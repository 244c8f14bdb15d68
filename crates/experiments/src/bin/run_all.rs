//! Run every experiment (E1–E14) in sequence — regenerates all the
//! measured tables recorded in EXPERIMENTS.md in one command:
//!
//! ```sh
//! cargo run --release -p dplearn-experiments --bin run_all
//! ```
//!
//! Each experiment is executed as a child process so a failure in one
//! doesn't hide the others; the overall exit code is nonzero if any
//! child fails.

use std::path::Path;
use std::process::{Command, ExitStatus};

const EXPERIMENTS: &[&str] = &[
    "e1_laplace_dp",
    "e2_exponential_dp",
    "e3_catoni_bound",
    "e4_gibbs_optimality",
    "e5_gibbs_privacy",
    "e6_mi_regularization",
    "e7_channel_tradeoff",
    "e8_private_erm_utility",
    "e9_private_regression",
    "e10_private_density",
    "e11_mi_bounds",
    "e12_bound_comparison",
    "e13_subsampling",
    "e14_mi_accounting",
];

/// Run experiment `exp` from `bin_dir` with `args`. A binary that
/// cannot be started is an error that says how to build it: the
/// experiments sit beside this binary, built with the same profile.
fn launch(bin_dir: &Path, exp: &str, args: &[String]) -> Result<ExitStatus, String> {
    let path = bin_dir.join(exp);
    Command::new(&path).args(args).status().map_err(|e| {
        let release = if bin_dir.ends_with("debug") {
            ""
        } else {
            " --release"
        };
        format!(
            "run_all: cannot launch {exp} ({}: {e}); build it with\n  \
             cargo build{release} -p dplearn-experiments --bin {exp}",
            path.display()
        )
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("bin dir");
    let mut failures = Vec::new();
    for exp in EXPERIMENTS {
        match launch(bin_dir, exp, &args) {
            Ok(status) if status.success() => {}
            Ok(_) => failures.push(*exp),
            Err(message) => {
                eprintln!("{message}");
                failures.push(*exp);
            }
        }
        println!();
    }
    if failures.is_empty() {
        println!("run_all: all {} experiments completed.", EXPERIMENTS.len());
    } else {
        eprintln!("run_all: FAILURES in {failures:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_binary_names_itself_and_its_build_command() {
        let dir = std::env::temp_dir().join("run_all_missing_binaries/release");
        let err = launch(&dir, "e1_laplace_dp", &[]).unwrap_err();
        assert!(err.contains("cannot launch e1_laplace_dp"), "{err}");
        assert!(
            err.contains("cargo build --release -p dplearn-experiments --bin e1_laplace_dp"),
            "{err}"
        );
        let debug = dir.with_file_name("debug");
        let err = launch(&debug, "e13_subsampling", &[]).unwrap_err();
        assert!(
            err.contains("cargo build -p dplearn-experiments --bin e13_subsampling"),
            "{err}"
        );
    }
}
