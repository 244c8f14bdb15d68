//! The one harness behind every `dplearn-bench` binary.
//!
//! A bench builds a [`Report`], times its work with [`measure`] (one
//! untimed warm-up call, then a fixed number of timed repetitions
//! summarized as median, min and max), records one section per
//! measurement with its inputs and the worker count it ran at, and
//! writes one JSON artifact with [`Report::write`].
//!
//! The only setting is the smoke switch: `--smoke` among the bench's
//! arguments (`cargo bench -p dplearn-bench -- --smoke`). It exists
//! because two callers need different sizes. CI runs the benches at
//! the reduced sizes its gates read; without the switch a bench runs at
//! full size and regenerates the committed `BENCH_<name>.json` at the
//! workspace root. A smoke run writes `target/bench-smoke/BENCH_<name>.json`
//! instead, which `.gitignore` hides, so it never overwrites a committed
//! artifact. Both paths are resolved from this crate's manifest
//! directory, so the working directory does not matter.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Untimed calls [`measure`] makes before its timed repetitions.
const WARMUP: usize = 1;

/// A timing summarized over repetitions, in seconds unless
/// [`Timing::scaled`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// The middle sample; the mean of the two middle samples for an
    /// even count.
    pub median: f64,
    /// The fastest sample.
    pub min: f64,
    /// The slowest sample.
    pub max: f64,
}

impl Timing {
    /// Median, min and max of `samples`; all NaN when there are none.
    fn from_samples(mut samples: Vec<f64>) -> Timing {
        samples.sort_by(f64::total_cmp);
        let at = |i: usize| samples.get(i).copied().unwrap_or(f64::NAN);
        let n = samples.len();
        let median = if n % 2 == 1 {
            at(n / 2)
        } else {
            0.5 * (at((n / 2).wrapping_sub(1)) + at(n / 2))
        };
        Timing {
            median,
            min: at(0),
            max: at(n.wrapping_sub(1)),
        }
    }

    /// Every statistic times `k`, for example `1e9 / passes` for
    /// nanoseconds per pass.
    pub fn scaled(self, k: f64) -> Timing {
        Timing {
            median: self.median * k,
            min: self.min * k,
            max: self.max * k,
        }
    }
}

/// Time `reps` calls of `f`, after one untimed warm-up call.
pub fn measure(reps: usize, mut f: impl FnMut()) -> Timing {
    measure_batched(reps, || (), |_| f())
}

/// Time `reps` calls of `run`, after one untimed warm-up call, each on
/// a fresh input from `setup`. Neither building nor dropping the input
/// is timed.
fn measure_batched<S>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&mut S),
) -> Timing {
    for _ in 0..WARMUP {
        run(&mut setup());
    }
    let samples = (0..reps)
        .map(|_| {
            let mut input = setup();
            let start = Instant::now();
            run(&mut input);
            start.elapsed().as_secs_f64()
        })
        .collect();
    Timing::from_samples(samples)
}

/// Where bench `bench` writes its artifact: the workspace root for a
/// full run, `target/bench-smoke/` under it for a smoke run.
fn artifact_path(bench: &str, smoke: bool) -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.parent().and_then(Path::parent).unwrap_or(manifest);
    let dir = if smoke {
        root.join("target").join("bench-smoke")
    } else {
        root.to_path_buf()
    };
    dir.join(format!("BENCH_{bench}.json"))
}

/// One field of a section.
#[derive(Clone, Copy, Debug)]
pub enum Value {
    /// A count or size.
    Int(u64),
    /// A number; a non-finite one is written as `null`.
    Num(f64),
    /// A flag.
    Bool(bool),
    /// A label.
    Str(&'static str),
    /// A timing, written as `{"median", "min", "max"}`.
    Time(Timing),
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as u64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&'static str> for Value {
    fn from(v: &'static str) -> Value {
        Value::Str(v)
    }
}

impl From<Timing> for Value {
    fn from(v: Timing) -> Value {
        Value::Time(v)
    }
}

impl From<Option<Timing>> for Value {
    /// A skipped measurement is written as `null`.
    fn from(v: Option<Timing>) -> Value {
        v.map_or(Value::Num(f64::NAN), Value::Time)
    }
}

fn write_num(out: &mut String, v: f64) {
    if v.is_finite() {
        // Six significant digits: run-to-run spread is far wider.
        let rounded = format!("{v:.5e}").parse().unwrap_or(v);
        let _ = write!(out, "{rounded}");
    } else {
        out.push_str("null");
    }
}

impl Value {
    fn write_json(self, out: &mut String) {
        match self {
            Value::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Num(v) => write_num(out, v),
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            // Labels are code constants: no character needs escaping.
            Value::Str(v) => {
                let _ = write!(out, "\"{v}\"");
            }
            Value::Time(t) => {
                out.push_str("{\"median\": ");
                write_num(out, t.median);
                out.push_str(", \"min\": ");
                write_num(out, t.min);
                out.push_str(", \"max\": ");
                write_num(out, t.max);
                out.push('}');
            }
        }
    }
}

/// One bench's sections, written as one JSON artifact.
pub struct Report {
    bench: &'static str,
    reps: usize,
    smoke: bool,
    sections: Vec<String>,
}

impl Report {
    /// A report for bench `bench` whose timings take `reps` repetitions;
    /// a smoke run when `--smoke` is among the process arguments.
    pub fn new(bench: &'static str, reps: usize) -> Report {
        Report {
            bench,
            reps,
            smoke: std::env::args().any(|a| a == "--smoke"),
            sections: Vec::new(),
        }
    }

    /// Whether this is a smoke run.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// [`measure`] at this report's repetition count.
    pub fn time(&self, f: impl FnMut()) -> Timing {
        measure(self.reps, f)
    }

    /// [`measure`], but each call gets a fresh input from `setup`;
    /// neither building nor dropping it is timed.
    pub fn time_batched<S>(&self, setup: impl FnMut() -> S, run: impl FnMut(&mut S)) -> Timing {
        measure_batched(self.reps, setup, run)
    }

    /// Record (and print) section `name` with its `fields`, stamped with
    /// the worker count configured now.
    pub fn section(&mut self, name: &str, fields: &[(&str, Value)]) {
        let threads = dplearn::parallel::thread_count();
        let mut line = format!("{{\"section\": \"{name}\", \"threads\": {threads}");
        for &(key, value) in fields {
            let _ = write!(line, ", \"{key}\": ");
            value.write_json(&mut line);
        }
        line.push('}');
        println!("{line}");
        self.sections.push(line);
    }

    /// The artifact: a header (`bench`, `reps`, `warmup`,
    /// `hardware_threads`) and the sections in the order recorded.
    fn to_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"{}\",\n  \"reps\": {},\n  \"warmup\": {WARMUP},\n  \
             \"hardware_threads\": {},\n  \"sections\": [\n    {}\n  ]\n}}\n",
            self.bench,
            self.reps,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            self.sections.join(",\n    ")
        )
    }

    /// Write the artifact where the crate docs say.
    pub fn write(&self) -> std::io::Result<()> {
        let path = artifact_path(self.bench, self.smoke);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&path, self.to_json())?;
        println!("wrote {}", path.display());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn median_min_and_max_for_odd_and_even_counts() {
        let odd = Timing::from_samples(vec![3.0, 1.0, 5.0]);
        assert_eq!((odd.median, odd.min, odd.max), (3.0, 1.0, 5.0));
        let even = Timing::from_samples(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!((even.median, even.min, even.max), (2.5, 1.0, 4.0));
        let one = Timing::from_samples(vec![7.0]);
        assert_eq!((one.median, one.min, one.max), (7.0, 7.0, 7.0));
        let none = Timing::from_samples(Vec::new());
        assert!(none.median.is_nan() && none.min.is_nan() && none.max.is_nan());
        for reps in [3, 4] {
            let t = measure(reps, || {});
            assert!(t.min <= t.median && t.median <= t.max, "{t:?}");
        }
    }

    #[test]
    fn the_warm_up_is_not_counted() {
        let mut calls = 0;
        let t = measure(4, || {
            calls += 1;
            if calls == 1 {
                std::thread::sleep(Duration::from_millis(300));
            }
        });
        assert_eq!(calls, 4 + WARMUP);
        assert!(t.max < 0.15, "the warm-up call was timed: {t:?}");

        let mut setups = 0;
        let t = measure_batched(
            3,
            || {
                setups += 1;
                std::thread::sleep(Duration::from_millis(300));
            },
            |_| {},
        );
        assert_eq!(setups, 3 + WARMUP);
        assert!(t.max < 0.15, "set-up was timed: {t:?}");
    }

    #[test]
    fn non_finite_values_are_written_as_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut out = String::new();
            Value::Num(v).write_json(&mut out);
            assert_eq!(out, "null");
            let mut out = String::new();
            Value::Time(Timing {
                median: v,
                min: 1.5,
                max: v,
            })
            .write_json(&mut out);
            assert_eq!(out, "{\"median\": null, \"min\": 1.5, \"max\": null}");
        }
        let mut out = String::new();
        Value::from(None::<Timing>).write_json(&mut out);
        assert_eq!(out, "null");
        let mut out = String::new();
        Value::Num(2.5221876500000002e-3).write_json(&mut out);
        assert_eq!(out, "0.00252219");

        let mut report = Report::new("unit", 3);
        report.section(
            "s",
            &[
                ("n", 4usize.into()),
                ("x", f64::NAN.into()),
                ("ok", true.into()),
            ],
        );
        let json = report.to_json();
        assert!(
            json.contains("\"n\": 4, \"x\": null, \"ok\": true}"),
            "{json}"
        );
        assert!(json.contains("\"reps\": 3,\n  \"warmup\": 1,"), "{json}");
    }

    #[test]
    fn the_output_path_does_not_depend_on_the_working_directory() {
        let full = artifact_path("unit", false);
        let smoke = artifact_path("unit", true);
        let cwd = std::env::current_dir().unwrap();
        std::env::set_current_dir(std::env::temp_dir()).unwrap();
        let (full_elsewhere, smoke_elsewhere) =
            (artifact_path("unit", false), artifact_path("unit", true));
        std::env::set_current_dir(cwd).unwrap();
        assert_eq!(full, full_elsewhere);
        assert_eq!(smoke, smoke_elsewhere);

        let root = full.parent().unwrap();
        assert!(full.is_absolute());
        assert!(root.join("Cargo.lock").is_file(), "{}", root.display());
        assert!(root.join("crates").join("bench").is_dir());
        assert_eq!(smoke, root.join("target/bench-smoke/BENCH_unit.json"));
    }
}
