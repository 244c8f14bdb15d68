//! Large-alphabet kernel and worker-pool stress bench, with a
//! machine-readable `BENCH_kernels.json` artifact.
//!
//! Sections (each run at 1 and 4 configured workers):
//!
//! * `pool_dispatch` — per-section latency of a minimal parallel section
//!   through the persistent worker pool vs a faithful scoped-spawn
//!   replica of the pre-pool dispatcher (one `thread::scope` + helper
//!   spawns per section). This is the overhead every Blahut–Arimoto
//!   iteration pays twice (row pass + column pass).
//! * `softmax` — `softmax_in_place` (one `exp` per cell, four lanes) vs
//!   the two-`exp` fold it replaced (`log_sum_exp`'s Kahan normalizer,
//!   then `exp(x − z)` per cell) across vector lengths. The CI smoke job
//!   asserts the kernel is at least 1.4× faster at 1024 cells on 1
//!   worker: it does half the `exp` calls, so the gain needs no second
//!   core.
//! * `exp` — `softmax_in_place` (the in-crate `exp`, with `f64::exp` on
//!   any 1024-cell block that holds an argument below its range) vs the
//!   same pass with `f64::exp` on every cell, at 2¹⁶ cells on 1 worker,
//!   once over normal-range arguments and once over mostly-underflowing
//!   ones (a λ = 2000 Gibbs row). The CI smoke job asserts that on the
//!   underflowing input the in-crate pass takes at most 1.5× the libm
//!   pass: every block falls back, so it costs a pre-scan more.
//! * `blahut_arimoto` — fixed-iteration BA solves (`tol = 0` runs
//!   exactly `iters` iterations, so the work is identical at every
//!   thread count) on alphabets up to 4096 symbols.
//! * `leakage` — mutual information and min-entropy leakage of a dense
//!   structured channel at large alphabet sizes, timed on the boxed-row
//!   folds (one `Vec` per row) the library ran before its channel kept
//!   one flat buffer. They are local replicas here, so this section keeps
//!   measuring what its committed baseline measured; the library's own
//!   kernels are timed by `mi_scale`.
//!
//! Size lists are env-configurable (`DPLEARN_BENCH_KERNELS_BA`,
//! `DPLEARN_BENCH_KERNELS_MI`, `DPLEARN_BENCH_KERNELS_SOFTMAX`,
//! comma-separated; alphabet sizes up to 4096 are
//! supported — the defaults stop earlier to keep smoke runs short).
//! Results land in `BENCH_kernels.json` (override via
//! `DPLEARN_BENCH_KERNELS_JSON`). The artifact records
//! `hardware_threads` so consumers can tell a 1-core container (where
//! threads=4 can at best tie threads=1) from a multicore runner (where
//! the CI smoke job asserts the parallel BA path is not slower than
//! serial).
//!
//! Not a criterion harness: the run *is* the measurement, so CI can
//! treat it as a smoke test and scrape the JSON.

use dplearn::infotheory::blahut_arimoto::{blahut_arimoto, BaOptions, RateDistortion};
use dplearn::infotheory::InfoError;
use dplearn::numerics::special::{log_sum_exp, softmax_in_place, xlogx_over_y, EXP_NORMAL_MIN};
use dplearn::telemetry::NoopRecorder;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_sizes(key: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(key)
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

/// Median wall time of `reps` runs of `f`, in seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

// ---------------------------------------------------------------------
// Section 1: pool dispatch vs scoped spawn.
// ---------------------------------------------------------------------

/// Per-section latency in microseconds: (persistent pool, scoped-spawn
/// replica). The section body is a no-op per chunk, so the entire time
/// is dispatch — parking/waking for the pool, thread creation for the
/// replica. At 1 configured worker both paths run inline and the
/// numbers measure the serial fast path.
fn bench_dispatch(reps: usize) -> (f64, f64) {
    const SECTIONS: usize = 2_000;
    let workers = dplearn::parallel::thread_count();
    let chunks = workers.max(2);
    // Warm the pool so worker-thread creation is not billed to the
    // steady-state sections.
    black_box(dplearn::parallel::par_map_indexed(chunks, 0, |k| k));
    let pool = median_secs(reps, || {
        for _ in 0..SECTIONS {
            black_box(dplearn::parallel::par_map_indexed(chunks, 0, |k| k));
        }
    });
    let spawn = median_secs(reps, || {
        let helpers = workers.saturating_sub(1);
        for _ in 0..SECTIONS {
            std::thread::scope(|s| {
                for _ in 0..helpers {
                    s.spawn(|| black_box(0usize));
                }
                black_box(0usize)
            });
        }
    });
    (pool / SECTIONS as f64 * 1e6, spawn / SECTIONS as f64 * 1e6)
}

// ---------------------------------------------------------------------
// Section 2: softmax.
// ---------------------------------------------------------------------

/// The two-`exp` fold `softmax_in_place` replaced: `log_sum_exp`'s
/// Kahan normalizer `z`, then `exp(x − z)` per cell into `out`.
fn two_exp_fold(xs: &[f64], out: &mut [f64]) -> f64 {
    let z = log_sum_exp(xs);
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = (x - z).exp();
    }
    z
}

/// Seconds per pass: (two-`exp` fold, `softmax_in_place`). The kernel
/// overwrites its input, so each of its passes first copies the log
/// weights in, as `FinitePosterior::from_log_weights` does.
fn bench_softmax(len: usize, reps: usize) -> (f64, f64) {
    let xs: Vec<f64> = (0..len)
        .map(|i| ((i * 37) % 101) as f64 / 7.0 - 6.0)
        .collect();
    let mut fold = vec![0.0; len];
    let mut kernel = xs.clone();
    let a = two_exp_fold(&xs, &mut fold);
    let b = softmax_in_place(&mut kernel);
    assert!(
        (a - b).abs() <= 1e-10 * a.abs().max(1.0),
        "softmax normalizer drifted: {a} vs {b}"
    );
    assert!(
        fold.iter()
            .zip(&kernel)
            .all(|(p, q)| (p - q).abs() <= 1e-12 * p),
        "softmax probabilities drifted from the two-exp fold"
    );
    const PASSES: usize = 2_000;
    let old = median_secs(reps, || {
        let mut acc = 0.0;
        for _ in 0..PASSES {
            acc += two_exp_fold(black_box(&xs), &mut fold);
        }
        black_box((acc, &fold));
    });
    let new = median_secs(reps, || {
        let mut acc = 0.0;
        for _ in 0..PASSES {
            kernel.copy_from_slice(black_box(&xs));
            acc += softmax_in_place(&mut kernel);
        }
        black_box((acc, &kernel));
    });
    (old / PASSES as f64, new / PASSES as f64)
}

// ---------------------------------------------------------------------
// Section 3: the in-crate exp against libm, inside the softmax pass.
// ---------------------------------------------------------------------

/// Cells of each `exp` pass.
const EXP_CELLS: usize = 1 << 16;

/// `softmax_in_place` with `f64::exp` on every cell, as it ran before the
/// in-crate `exp`: the baseline of the `exp` section.
fn libm_softmax(w: &mut [f64]) -> f64 {
    let mut lane_max = [f64::NEG_INFINITY; 4];
    for c in w.chunks_exact(4) {
        for (m, &x) in lane_max.iter_mut().zip(c) {
            *m = m.max(x);
        }
    }
    let tail = w.chunks_exact(4).remainder();
    let m = lane_max
        .iter()
        .chain(tail)
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return m;
    }
    let mut lanes = [0.0f64; 4];
    let mut chunks = w.chunks_exact_mut(4);
    for c in chunks.by_ref() {
        for (s, x) in lanes.iter_mut().zip(c) {
            *x = (*x - m).exp();
            *s += *x;
        }
    }
    let [l0, l1, l2, l3] = lanes;
    let mut sum = (l0 + l1) + (l2 + l3);
    for x in chunks.into_remainder() {
        *x = (*x - m).exp();
        sum += *x;
    }
    for x in w.iter_mut() {
        *x /= sum;
    }
    m + sum.ln()
}

/// Log weights for the `exp` section: arguments in (−15, 0] when
/// `underflow` is false; otherwise a Gibbs row at λ = 2000 over risks
/// spread on [0, 1), whose arguments reach −2000 and mostly lie below
/// the in-crate `exp`'s range.
fn exp_inputs(underflow: bool) -> Vec<f64> {
    (0..EXP_CELLS)
        .map(|i| {
            if underflow {
                -2000.0 * ((i * 7919) % EXP_CELLS) as f64 / EXP_CELLS as f64
            } else {
                ((i * 37) % 101) as f64 / 7.0 - 6.0
            }
        })
        .collect()
}

/// Seconds per pass: (`f64::exp` on every cell, `softmax_in_place`).
/// Both copy the log weights in first. On the underflowing input every
/// block falls back to `f64::exp`, so the two agree bit for bit.
fn bench_exp(underflow: bool, reps: usize) -> (f64, f64) {
    let xs = exp_inputs(underflow);
    let below = xs.iter().filter(|&&x| x < EXP_NORMAL_MIN).count();
    assert_eq!(
        below > EXP_CELLS / 2,
        underflow,
        "{below} arguments below range"
    );
    let mut libm = xs.clone();
    let mut kernel = xs.clone();
    let (a, b) = (libm_softmax(&mut libm), softmax_in_place(&mut kernel));
    if underflow {
        assert_eq!(a.to_bits(), b.to_bits(), "fallback normalizer drifted");
        assert!(
            libm.iter()
                .zip(&kernel)
                .all(|(p, q)| p.to_bits() == q.to_bits()),
            "fallback blocks drifted from f64::exp"
        );
    } else {
        assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{a} vs {b}");
        assert!(
            libm.iter()
                .zip(&kernel)
                .all(|(p, q)| (p - q).abs() <= 1e-12 * p),
            "in-crate exp drifted from f64::exp"
        );
    }
    const PASSES: usize = 100;
    let old = median_secs(reps, || {
        let mut acc = 0.0;
        for _ in 0..PASSES {
            libm.copy_from_slice(black_box(&xs));
            acc += libm_softmax(&mut libm);
        }
        black_box((acc, &libm));
    });
    let new = median_secs(reps, || {
        let mut acc = 0.0;
        for _ in 0..PASSES {
            kernel.copy_from_slice(black_box(&xs));
            acc += softmax_in_place(&mut kernel);
        }
        black_box((acc, &kernel));
    });
    (old / PASSES as f64, new / PASSES as f64)
}

// ---------------------------------------------------------------------
// Section 4: fixed-iteration Blahut–Arimoto at large alphabets.
// ---------------------------------------------------------------------

fn ba_problem(n: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let raw: Vec<f64> = (0..n).map(|x| 1.0 + (x % 3) as f64).collect();
    let z: f64 = raw.iter().sum();
    let source: Vec<f64> = raw.iter().map(|&w| w / z).collect();
    let distortion: Vec<Vec<f64>> = (0..n)
        .map(|x| {
            (0..n)
                .map(|y| {
                    let d = (x as f64 - y as f64) / n as f64;
                    d * d + 0.02 * ((x * 7 + y * 3) % 5) as f64
                })
                .collect()
        })
        .collect();
    (source, distortion)
}

/// Accept the deliberate `DidNotConverge` of a `tol = 0` run: the solver
/// still performed every iteration, which is the timed work.
fn run_fixed_iters(result: Result<RateDistortion, InfoError>) {
    match result {
        Ok(rd) => {
            black_box(rd);
        }
        Err(InfoError::DidNotConverge { .. }) => {}
        Err(e) => panic!("unexpected BA error: {e}"),
    }
}

/// Time `iters` fixed BA iterations (tol = 0 never converges early, so
/// every run does identical work at every thread count), in seconds.
fn bench_ba(n: usize, iters: usize, reps: usize) -> f64 {
    let (source, distortion) = ba_problem(n);
    let beta = 8.0;
    let opts = BaOptions::new(0.0, iters);
    median_secs(reps, || {
        run_fixed_iters(blahut_arimoto(
            &source,
            &distortion,
            beta,
            &opts,
            &NoopRecorder,
        ));
    })
}

// ---------------------------------------------------------------------
// Section 5: leakage / mutual-information stress.
// ---------------------------------------------------------------------

/// Input distribution and boxed kernel rows.
fn leakage_channel(n: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let input: Vec<f64> = {
        let raw: Vec<f64> = (0..n).map(|x| 1.0 + ((x * 13) % 7) as f64).collect();
        let z: f64 = raw.iter().sum();
        raw.into_iter().map(|w| w / z).collect()
    };
    let kernel: Vec<Vec<f64>> = (0..n)
        .map(|x| {
            let raw: Vec<f64> = (0..n)
                .map(|y| {
                    let d = (x as i64 - y as i64).unsigned_abs() as f64;
                    1.0 / (1.0 + d * d / n as f64)
                })
                .collect();
            let z: f64 = raw.iter().sum();
            raw.into_iter().map(|w| w / z).collect()
        })
        .collect();
    (input, kernel)
}

/// Replica of the boxed-row MI fold: the output marginal, then one
/// `xlogx_over_y` per cell into one accumulator.
fn boxed_mutual_information(input: &[f64], rows: &[Vec<f64>]) -> f64 {
    let mut marginal = vec![0.0; rows.first().map_or(0, Vec::len)];
    for (&px, row) in input.iter().zip(rows) {
        for (o, &pyx) in marginal.iter_mut().zip(row) {
            *o += px * pyx;
        }
    }
    let mut mi = 0.0;
    for (&px, row) in input.iter().zip(rows) {
        if px == 0.0 {
            continue;
        }
        for (&pyx, &py) in row.iter().zip(&marginal) {
            mi += px * xlogx_over_y(pyx, py);
        }
    }
    mi.max(0.0)
}

/// Replica of the boxed-row min-entropy leakage: the column-major
/// posterior-vulnerability scan (one row pointer chase per row per
/// output symbol) over the prior vulnerability, in bits.
fn boxed_min_entropy_leakage_bits(input: &[f64], rows: &[Vec<f64>]) -> f64 {
    let mut posterior = 0.0;
    for y in 0..rows.first().map_or(0, Vec::len) {
        let mut best = 0.0f64;
        for (&px, row) in input.iter().zip(rows) {
            best = best.max(px * row.get(y).copied().unwrap_or(0.0));
        }
        posterior += best;
    }
    (posterior / input.iter().copied().fold(0.0, f64::max)).log2()
}

/// Returns (mutual_information_seconds, min_entropy_leakage_seconds).
fn bench_leakage(n: usize, reps: usize) -> (f64, f64) {
    let (input, rows) = leakage_channel(n);
    let mi = median_secs(reps, || {
        black_box(boxed_mutual_information(&input, &rows));
    });
    let mel = median_secs(reps, || {
        black_box(boxed_min_entropy_leakage_bits(&input, &rows));
    });
    (mi, mel)
}

// ---------------------------------------------------------------------

struct Row {
    section: &'static str,
    threads: usize,
    fields: String,
}

fn main() {
    let reps = env_usize("DPLEARN_BENCH_KERNELS_REPS", 3);
    let ba_iters = env_usize("DPLEARN_BENCH_KERNELS_BA_ITERS", 200);
    let ba_sizes = env_sizes("DPLEARN_BENCH_KERNELS_BA", &[32, 96, 256]);
    let mi_sizes = env_sizes("DPLEARN_BENCH_KERNELS_MI", &[256, 1024]);
    let softmax_lens = env_sizes("DPLEARN_BENCH_KERNELS_SOFTMAX", &[64, 1024, 16384]);
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut rows: Vec<Row> = Vec::new();
    for &threads in &[1usize, 4] {
        dplearn::parallel::set_thread_count(threads);

        let (pool_us, spawn_us) = bench_dispatch(reps);
        rows.push(Row {
            section: "pool_dispatch",
            threads,
            fields: format!(
                "\"pool_us_per_section\": {pool_us:.3}, \
                 \"scoped_spawn_us_per_section\": {spawn_us:.3}, \
                 \"spawn_over_pool\": {:.2}",
                spawn_us / pool_us.max(1e-9)
            ),
        });

        for &len in &softmax_lens {
            let (fold, kernel) = bench_softmax(len, reps);
            rows.push(Row {
                section: "softmax",
                threads,
                fields: format!(
                    "\"len\": {len}, \"two_exp_fold_ns\": {:.1}, \"softmax_ns\": {:.1}, \
                     \"speedup\": {:.3}",
                    fold * 1e9,
                    kernel * 1e9,
                    fold / kernel
                ),
            });
        }

        if threads == 1 {
            for (input, underflow) in [("normal", false), ("underflow", true)] {
                let (libm, kernel) = bench_exp(underflow, reps);
                rows.push(Row {
                    section: "exp",
                    threads,
                    fields: format!(
                        "\"input\": \"{input}\", \"len\": {EXP_CELLS}, \"libm_ns\": {:.1}, \
                         \"in_crate_ns\": {:.1}, \"speedup\": {:.3}",
                        libm * 1e9,
                        kernel * 1e9,
                        libm / kernel
                    ),
                });
            }
        }

        for &n in &ba_sizes {
            let default = bench_ba(n, ba_iters, reps);
            let cells = (n * n * ba_iters) as f64;
            rows.push(Row {
                section: "blahut_arimoto",
                threads,
                fields: format!(
                    "\"alphabet\": {n}, \"iterations\": {ba_iters}, \
                     \"default_seconds\": {default:.6}, \
                     \"default_cells_per_second\": {:.0}",
                    cells / default
                ),
            });
        }

        for &n in &mi_sizes {
            let (mi, mel) = bench_leakage(n, reps);
            rows.push(Row {
                section: "leakage",
                threads,
                fields: format!(
                    "\"alphabet\": {n}, \"mutual_information_seconds\": {mi:.6}, \
                     \"min_entropy_leakage_seconds\": {mel:.6}"
                ),
            });
        }
    }
    dplearn::parallel::set_thread_count(0);

    println!("kernel stress results (median of {reps} reps):");
    for r in &rows {
        println!("  {:<16} threads={}  {}", r.section, r.threads, r.fields);
    }

    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"section\": \"{}\",\n      \"threads\": {},\n      {}\n    }}",
                r.section, r.threads, r.fields
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"reps\": {reps},\n  \
         \"hardware_threads\": {hardware_threads},\n  \"sections\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    let path = std::env::var("DPLEARN_BENCH_KERNELS_JSON")
        .unwrap_or_else(|_| "BENCH_kernels.json".to_string());
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
