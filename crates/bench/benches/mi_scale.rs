//! Large-alphabet leakage-analysis bench: the PR 10 cache-blocked
//! kernels vs their naive references, with a machine-readable
//! `BENCH_mi_scale.json` artifact.
//!
//! Sections (each run at 1 and 4 configured workers):
//!
//! * `blahut_arimoto` — fixed-iteration solves (`tol = 0` runs exactly
//!   `iters` iterations, so the work is identical at every thread
//!   count): `blahut_arimoto` (`naive_seconds`) vs
//!   `blahut_arimoto_tiled` with default options. Both run the same
//!   kernel, so the two columns differ only by noise.
//! * `mutual_information` — exact MI of a dense structured channel: the
//!   boxed-row fold (naive Vec-of-Vec row pass, one libm `ln` per cell)
//!   vs `DiscreteChannel::mutual_information_blocked`.
//! * `leakage` — min-entropy leakage: the boxed column-major
//!   posterior-vulnerability scan (the naive O(n²) pass with a full
//!   row-stride jump per cell) vs the flat column-tiled kernel.
//! * `realized_eps` — the realized ε of a 64-row Gibbs-selection
//!   channel (E14's shape): the boxed pairwise row-ratio scan (a
//!   division and a logarithm per row pair and column) vs
//!   `DiscreteChannel::max_row_log_ratio_blocked`, which drops provably
//!   dominated columns in one pass before the pairwise scan.
//!
//! The naive columns time local replicas of the boxed-row folds the
//! library ran before its channel kept one flat buffer, so each speedup
//! keeps its committed baseline.
//!
//! Alphabets default to 1024/4096/10240; above
//! `DPLEARN_BENCH_MI_SCALE_NAIVE_CAP` (default 8192) the naive
//! references are skipped — their quadratic pointer-chasing is the
//! point of the PR, not something CI should wait on — and the skip is
//! logged in the artifact (`naive_seconds: null`).
//!
//! Env knobs: `DPLEARN_BENCH_MI_SCALE_SIZES` (comma-separated),
//! `DPLEARN_BENCH_MI_SCALE_REPS`, `DPLEARN_BENCH_MI_SCALE_BA_ITERS`,
//! `DPLEARN_BENCH_MI_SCALE_NAIVE_CAP`, `DPLEARN_BENCH_MI_SCALE_JSON`
//! (artifact path, default `BENCH_mi_scale.json`). The artifact records
//! honest `hardware_threads` so the CI gate can demand a parallel
//! speedup only on runners that actually have cores to parallelize
//! over.
//!
//! Not a criterion harness: the run *is* the measurement, so CI can
//! treat it as a smoke test and scrape the JSON.

use dplearn::infotheory::blahut_arimoto::{
    blahut_arimoto, blahut_arimoto_tiled, BaTileOptions, RateDistortion,
};
use dplearn::infotheory::channel::DiscreteChannel;
use dplearn::infotheory::InfoError;
use dplearn::numerics::rng::{Rng, Xoshiro256};
use dplearn::numerics::special::{softmax_in_place, xlogx_over_y};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// Column/row tile for the blocked kernels: 256 doubles = 2 KB per
/// stripe, small enough to stay cache-resident, large enough to give
/// the worker pool tens of tiles at 10240 symbols.
const TILE: usize = 256;

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

/// Dense structured channel shared by the MI and leakage sections,
/// built once in flat form and copied into boxed rows for the naive
/// replicas.
fn scale_channel(n: usize) -> DiscreteChannel {
    let input: Vec<f64> = {
        let raw: Vec<f64> = (0..n).map(|x| 1.0 + ((x * 13) % 7) as f64).collect();
        let z: f64 = raw.iter().sum();
        raw.into_iter().map(|w| w / z).collect()
    };
    let mut kernel = Vec::with_capacity(n * n);
    for x in 0..n {
        let start = kernel.len();
        let mut z = 0.0;
        for y in 0..n {
            let d = (x as i64 - y as i64).unsigned_abs() as f64;
            let w = 1.0 / (1.0 + d * d / n as f64);
            kernel.push(w);
            z += w;
        }
        for w in &mut kernel[start..] {
            *w /= z;
        }
    }
    DiscreteChannel::new(input, kernel, n).unwrap()
}

/// The channel's input and one `Vec` per kernel row, for the replicas.
fn boxed_rows(ch: &DiscreteChannel) -> (Vec<f64>, Vec<Vec<f64>>) {
    (
        ch.input().to_vec(),
        ch.rows().map(<[f64]>::to_vec).collect(),
    )
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
/// posterior-vulnerability scan over the prior vulnerability, in bits.
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

/// Replica of the boxed pairwise row-ratio scan: `|ln(a/b)|` for every
/// row pair and column.
fn boxed_max_row_log_ratio(rows: &[Vec<f64>]) -> f64 {
    let mut worst = 0.0f64;
    for (i, row_i) in rows.iter().enumerate() {
        for row_j in rows.iter().skip(i + 1) {
            for (&a, &b) in row_i.iter().zip(row_j) {
                if a == 0.0 && b == 0.0 {
                    continue;
                }
                if a == 0.0 || b == 0.0 {
                    return f64::INFINITY;
                }
                worst = worst.max((a / b).ln().abs());
            }
        }
    }
    worst
}

/// Rows of the realized-ε channel: E14's secret count.
const EPS_ROWS: usize = 64;

/// E14's Gibbs-selection channel: [`EPS_ROWS`] rows
/// `p(θ|x) ∝ exp(s_x(θ))` over `n` hypotheses, scores uniform in [0, 1),
/// so every row log-ratio is below 2.
fn gibbs_channel(n: usize) -> DiscreteChannel {
    let mut rng = Xoshiro256::seed_from(n as u64);
    let mut kernel = Vec::with_capacity(EPS_ROWS * n);
    for _ in 0..EPS_ROWS {
        let row = kernel.len();
        kernel.extend((0..n).map(|_| rng.next_f64()));
        softmax_in_place(&mut kernel[row..]);
    }
    DiscreteChannel::new(vec![1.0 / EPS_ROWS as f64; EPS_ROWS], kernel, n).unwrap()
}

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

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| format!("{v:.6}"))
}

struct Row {
    section: &'static str,
    threads: usize,
    fields: String,
}

fn main() {
    let reps = env_usize("DPLEARN_BENCH_MI_SCALE_REPS", 3);
    let ba_iters = env_usize("DPLEARN_BENCH_MI_SCALE_BA_ITERS", 8);
    let sizes = env_sizes("DPLEARN_BENCH_MI_SCALE_SIZES", &[1024, 4096, 10240]);
    let naive_cap = env_usize("DPLEARN_BENCH_MI_SCALE_NAIVE_CAP", 8192);
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut rows: Vec<Row> = Vec::new();
    for &threads in &[1usize, 4] {
        dplearn::parallel::set_thread_count(threads);

        for &n in &sizes {
            // Above 8192 a single fixed-iteration sweep is already
            // seconds of work; trim the iteration count, never below 2.
            let iters = if n > 8192 {
                (ba_iters / 4).max(2)
            } else {
                ba_iters
            };
            let (source, distortion) = ba_problem(n);
            let beta = 8.0;
            let naive = (n <= naive_cap).then(|| {
                median_secs(reps, || {
                    run_fixed_iters(blahut_arimoto(&source, &distortion, beta, 0.0, iters));
                })
            });
            if naive.is_none() {
                println!("blahut_arimoto: skipping naive reference at n={n} (> cap {naive_cap})");
            }
            let opts = BaTileOptions::default();
            let tiled = median_secs(reps, || {
                run_fixed_iters(blahut_arimoto_tiled(
                    &source,
                    &distortion,
                    beta,
                    0.0,
                    iters,
                    &opts,
                ));
            });
            rows.push(Row {
                section: "blahut_arimoto",
                threads,
                fields: format!(
                    "\"alphabet\": {n}, \"iterations\": {iters}, \
                     \"naive_seconds\": {}, \"tiled_seconds\": {tiled:.6}, \
                     \"tiled_speedup\": {}",
                    fmt_opt(naive),
                    fmt_opt(naive.map(|s| s / tiled)),
                ),
            });
        }

        for &n in &sizes {
            let flat = scale_channel(n);
            let boxed = (n <= naive_cap).then(|| boxed_rows(&flat));
            if boxed.is_none() {
                println!("mi/leakage: skipping naive references at n={n} (> cap {naive_cap})");
            }

            let mi_naive = boxed.as_ref().map(|(input, rows)| {
                median_secs(reps, || {
                    black_box(boxed_mutual_information(input, rows));
                })
            });
            let mi_tiled = median_secs(reps, || {
                black_box(flat.mutual_information_blocked(TILE).unwrap());
            });
            rows.push(Row {
                section: "mutual_information",
                threads,
                fields: format!(
                    "\"alphabet\": {n}, \"naive_seconds\": {}, \
                     \"tiled_seconds\": {mi_tiled:.6}, \"tiled_speedup\": {}",
                    fmt_opt(mi_naive),
                    fmt_opt(mi_naive.map(|s| s / mi_tiled)),
                ),
            });

            let leak_naive = boxed.as_ref().map(|(input, rows)| {
                median_secs(reps, || {
                    black_box(boxed_min_entropy_leakage_bits(input, rows));
                })
            });
            let leak_tiled = median_secs(reps, || {
                black_box(flat.min_entropy_leakage_bits_blocked(TILE).unwrap());
            });
            rows.push(Row {
                section: "leakage",
                threads,
                fields: format!(
                    "\"alphabet\": {n}, \"naive_seconds\": {}, \
                     \"tiled_seconds\": {leak_tiled:.6}, \"tiled_speedup\": {}",
                    fmt_opt(leak_naive),
                    fmt_opt(leak_naive.map(|s| s / leak_tiled)),
                ),
            });
        }

        for &n in &sizes {
            let flat = gibbs_channel(n);
            let boxed = (n <= naive_cap).then(|| boxed_rows(&flat));
            if boxed.is_none() {
                println!("realized_eps: skipping naive reference at n={n} (> cap {naive_cap})");
            }
            let eps_naive = boxed.as_ref().map(|(_, rows)| {
                median_secs(reps, || {
                    black_box(boxed_max_row_log_ratio(rows));
                })
            });
            let eps_tiled = median_secs(reps, || {
                black_box(flat.max_row_log_ratio_blocked(TILE).unwrap());
            });
            rows.push(Row {
                section: "realized_eps",
                threads,
                fields: format!(
                    "\"alphabet\": {n}, \"rows\": {EPS_ROWS}, \"naive_seconds\": {}, \
                     \"tiled_seconds\": {eps_tiled:.6}, \"tiled_speedup\": {}",
                    fmt_opt(eps_naive),
                    fmt_opt(eps_naive.map(|s| s / eps_tiled)),
                ),
            });
        }
    }
    dplearn::parallel::set_thread_count(0);

    println!("mi_scale results (median of {reps} reps):");
    for r in &rows {
        println!("  {:<18} threads={}  {}", r.section, r.threads, r.fields);
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
        "{{\n  \"bench\": \"mi_scale\",\n  \"reps\": {reps},\n  \
         \"hardware_threads\": {hardware_threads},\n  \"sections\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    let path = std::env::var("DPLEARN_BENCH_MI_SCALE_JSON")
        .unwrap_or_else(|_| "BENCH_mi_scale.json".to_string());
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
