//! Smoke self-test: every workload at tiny size, untraced and traced.
//! Each run must pass its checks and print every metric that
//! `BENCHMARK.json` declares for its mode, with the declared unit.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["serve_durable", "ingest_stream", "leakage_audit"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let field = |line: &str, key: &str| {
        let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = line[start..].find('"')?;
        Some(line[start..start + len].to_string())
    };
    let mut current = "";
    let mut out = Vec::new();
    for line in text.lines() {
        for s in ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""] {
            if line.trim_start().starts_with(s) {
                current = s;
            }
        }
        if current.trim_matches('"') == section {
            if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
                out.push((name, unit));
            }
        }
    }
    assert!(
        !out.is_empty(),
        "no {section} metrics found in BENCHMARK.json"
    );
    out
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dplearn-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().unwrap_or_default().to_string()
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = declared(section);
        for workload in WORKLOADS {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true,") && line.contains("\"failed\": 0,"),
                "{workload} --trace {trace} failed: {line}"
            );
            for (name, unit) in &metrics {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
                let rest = &line[at + entry.len()..];
                let unit_field = format!(", \"unit\": \"{unit}\"}}");
                let value_end = rest.find(", \"unit\"").expect("every value has a unit");
                assert!(
                    rest[value_end..].starts_with(&unit_field),
                    "{workload}: {name} is not in {unit}"
                );
                let value: f64 = rest[..value_end].parse().expect("a numeric value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
            }
            // Only the declared metrics, nothing else.
            assert_eq!(
                line.matches("\"unit\"").count(),
                metrics.len(),
                "{workload} --trace {trace} prints undeclared metrics"
            );
        }
    }
}
