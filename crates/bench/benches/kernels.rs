//! Kernel benches, each against the code it replaced: the worker pool,
//! the softmax and its `exp`, Blahut–Arimoto (BA), the channel scans,
//! exponential-mechanism selection and the MH chain. Writes
//! `BENCH_kernels.json` (see the `dplearn_bench` crate docs for the
//! smoke switch and the path).
//!
//! Sections, each at 1 and 4 configured workers unless noted. The
//! artifact's `hardware_threads` tells a 1-core host, where 4 workers
//! can at best tie 1, from a multicore one.
//!
//! * `pool_dispatch` — per-section latency of an empty parallel section
//!   through the persistent pool vs a scoped-spawn replica of the
//!   pre-pool dispatcher. At 1 worker both run inline.
//! * `softmax` — `softmax_in_place` (one `exp` per cell) vs the two-`exp`
//!   fold it replaced (`log_sum_exp`, then `exp(x − z)` per cell). CI
//!   asserts ≥ 1.4× at 1024 cells on 1 worker: the gain is half the
//!   `exp` calls, so it needs no second core.
//! * `exp` (1 worker) — `softmax_in_place` vs the same pass with libm
//!   `exp` on every cell, at 2¹⁶ cells over normal-range and mostly
//!   underflowing (λ = 2000 Gibbs row) arguments. CI asserts the
//!   underflowing pass takes at most 1.5× the libm pass: every block
//!   falls back, so it costs a pre-scan more.
//! * `blahut_arimoto` — fixed-iteration solves (`tol = 0` runs exactly
//!   `iterations`, so the work is the same at every worker count). CI
//!   compares 4 workers with 1 at 96 and at 4096 symbols.
//! * `ba_gibbs_cache` — a converged solve, which builds its Gibbs kernel
//!   once, vs a replica that rebuilds it every iteration; kernels and
//!   iteration counts are asserted bit-identical.
//! * `mutual_information`, `leakage` (min-entropy) and `realized_eps`
//!   (E14's 64-row Gibbs channel) — the library's blocked kernels vs
//!   replicas of the boxed-row folds they replaced. Above [`NAIVE_CAP`]
//!   symbols the replicas are skipped (`null`). CI asserts the leakage
//!   scan ≥ 1.5× and realized ε ≥ 5× at 4096 symbols on 1 worker.
//! * `mh_chain` — `MetropolisGibbs::run` vs a replica of the loop before
//!   its caches; retained samples are asserted bit-identical.
//! * `selection` (1 worker: draws never reach the pool) — per-draw
//!   `select_with_temperature`, one prepare plus O(1) prepared draws,
//!   and per-draw Gumbel-max, at EXPERIMENTS.md A1's sizes and at 512
//!   candidates; prepared draws are asserted bit-identical to
//!   `select_with_temperature` over 1000 draws.

use dplearn::infotheory::blahut_arimoto::{blahut_arimoto, BaOptions, RateDistortion};
use dplearn::infotheory::channel::DiscreteChannel;
use dplearn::infotheory::InfoError;
use dplearn::mechanisms::exponential::ExponentialMechanism;
use dplearn::numerics::distributions::{Gaussian, Sample};
use dplearn::numerics::rng::{Rng, Xoshiro256};
use dplearn::numerics::special::{log_sum_exp, softmax_in_place, xlogx_over_y, EXP_NORMAL_MIN};
use dplearn::pacbayes::gibbs::{MetropolisGibbs, MhConfig};
use dplearn::pacbayes::posterior::DiagGaussian;
use dplearn::telemetry::NoopRecorder;
use dplearn_bench::Report;
use std::hint::black_box;

struct Sizes {
    softmax: &'static [usize],
    /// (alphabet, fixed iterations).
    ba: &'static [(usize, usize)],
    ba_cache: usize,
    channel: &'static [usize],
    selection: &'static [usize],
    draws: usize,
}

const FULL: Sizes = Sizes {
    softmax: &[64, 1024, 16384],
    ba: &[
        (32, 200),
        (96, 200),
        (256, 200),
        (1024, 8),
        (4096, 8),
        (10240, 2),
    ],
    ba_cache: 96,
    channel: &[1024, 4096, 10240],
    selection: &[16, 256, 512],
    draws: 20_000,
};

const SMOKE: Sizes = Sizes {
    softmax: &[1024],
    ba: &[(96, 200), (1024, 4), (4096, 4)],
    ba_cache: 32,
    channel: &[1024, 4096],
    selection: &[128],
    draws: 4_000,
};

/// Alphabets above this skip the boxed replicas: their quadratic
/// pointer chasing is what the library kernels removed.
const NAIVE_CAP: usize = 8192;

/// Column/row tile of the blocked channel scans: 256 doubles, 2 KB per
/// stripe.
const TILE: usize = 256;

// ---------------------------------------------------------------------
// Pool dispatch.
// ---------------------------------------------------------------------

fn bench_dispatch(r: &mut Report) {
    const SECTIONS: usize = 2_000;
    let workers = dplearn::parallel::thread_count();
    let chunks = workers.max(2);
    let pool = r.time(|| {
        for _ in 0..SECTIONS {
            black_box(dplearn::parallel::par_map_indexed(chunks, 0, |k| k));
        }
    });
    let spawn = r.time(|| {
        for _ in 0..SECTIONS {
            std::thread::scope(|s| {
                for _ in 1..workers {
                    s.spawn(|| black_box(0usize));
                }
            });
        }
    });
    let us = 1e6 / SECTIONS as f64;
    r.section(
        "pool_dispatch",
        &[
            ("sections", SECTIONS.into()),
            ("pool_us_per_section", pool.scaled(us).into()),
            ("scoped_spawn_us_per_section", spawn.scaled(us).into()),
        ],
    );
}

// ---------------------------------------------------------------------
// Softmax and its exp.
// ---------------------------------------------------------------------

/// The two-`exp` fold `softmax_in_place` replaced.
fn two_exp_fold(xs: &[f64], out: &mut [f64]) -> f64 {
    let z = log_sum_exp(xs);
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = (x - z).exp();
    }
    z
}

/// The kernel overwrites its input, so each pass first copies the log
/// weights in, as `FinitePosterior::from_log_weights` does.
fn bench_softmax(r: &mut Report, len: usize) {
    const PASSES: usize = 2_000;
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
    let old = r.time(|| {
        let mut acc = 0.0;
        for _ in 0..PASSES {
            acc += two_exp_fold(black_box(&xs), &mut fold);
        }
        black_box((acc, &fold));
    });
    let new = r.time(|| {
        let mut acc = 0.0;
        for _ in 0..PASSES {
            kernel.copy_from_slice(black_box(&xs));
            acc += softmax_in_place(&mut kernel);
        }
        black_box((acc, &kernel));
    });
    let ns = 1e9 / PASSES as f64;
    r.section(
        "softmax",
        &[
            ("len", len.into()),
            ("two_exp_fold_ns", old.scaled(ns).into()),
            ("softmax_ns", new.scaled(ns).into()),
        ],
    );
}

/// Cells of each `exp` pass.
const EXP_CELLS: usize = 1 << 16;

/// `softmax_in_place` with libm `exp` on every cell, as it ran before
/// the in-crate `exp`.
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

/// Arguments in (−15, 0], or a Gibbs row at λ = 2000 over risks spread
/// on [0, 1), whose arguments mostly lie below the in-crate `exp`'s
/// range.
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

/// On the underflowing input every block falls back to libm, so the
/// two passes agree bit for bit.
fn bench_exp(r: &mut Report, input: &'static str, underflow: bool) {
    const PASSES: usize = 100;
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
    let old = r.time(|| {
        let mut acc = 0.0;
        for _ in 0..PASSES {
            libm.copy_from_slice(black_box(&xs));
            acc += libm_softmax(&mut libm);
        }
        black_box((acc, &libm));
    });
    let new = r.time(|| {
        let mut acc = 0.0;
        for _ in 0..PASSES {
            kernel.copy_from_slice(black_box(&xs));
            acc += softmax_in_place(&mut kernel);
        }
        black_box((acc, &kernel));
    });
    let ns = 1e9 / PASSES as f64;
    r.section(
        "exp",
        &[
            ("input", input.into()),
            ("len", EXP_CELLS.into()),
            ("libm_ns", old.scaled(ns).into()),
            ("in_crate_ns", new.scaled(ns).into()),
        ],
    );
}

// ---------------------------------------------------------------------
// Blahut–Arimoto.
// ---------------------------------------------------------------------

const BA_BETA: f64 = 8.0;

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

fn bench_ba(r: &mut Report, n: usize, iterations: usize) {
    let (source, distortion) = ba_problem(n);
    let opts = BaOptions::new(0.0, iterations);
    let t = r.time(|| {
        run_fixed_iters(blahut_arimoto(
            &source,
            &distortion,
            BA_BETA,
            &opts,
            &NoopRecorder,
        ));
    });
    r.section(
        "blahut_arimoto",
        &[
            ("alphabet", n.into()),
            ("iterations", iterations.into()),
            ("seconds", t.into()),
        ],
    );
}

/// `Σ_y r(y)·a(y)` in the solver's association: four lanes by `y mod 4`,
/// combined as `(l₀+l₁)+(l₂+l₃)`, then the leftover products in order.
fn lane_sum(r: &[f64], a: &[f64]) -> f64 {
    let full = r.len() - r.len() % 4;
    let mut lanes = [0.0f64; 4];
    for y in 0..full {
        lanes[y % 4] += r[y] * a[y];
    }
    let mut tail = 0.0;
    for y in full..r.len() {
        tail += r[y] * a[y];
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// The row-shifted Gibbs kernel `A(x,y) = exp(min_y β·d(x,y) − β·d(x,y))`
/// of one row.
fn gibbs_row(row_d: &[f64], beta: f64, out: &mut [f64]) {
    let shift = row_d
        .iter()
        .map(|&d| beta * d)
        .fold(f64::INFINITY, f64::min);
    for (a, &d) in out.iter_mut().zip(row_d) {
        *a = (shift - beta * d).exp();
    }
}

/// Blahut–Arimoto's multiplicative iteration without the solver's cache:
/// the same arithmetic order, with `A` built in parallel row chunks and
/// the column pass in parallel column chunks, but `A` is rebuilt (one
/// `exp` per cell) into fresh buffers every iteration instead of once
/// per solve. No row of this problem needs the solver's log-space
/// fallback (asserted), so the kernels are bit-identical.
fn uncached_ba(
    source: &[f64],
    distortion: &[Vec<f64>],
    beta: f64,
    tol: f64,
    max_iters: usize,
) -> (Vec<Vec<f64>>, usize) {
    let (nx, ny) = (source.len(), distortion[0].len());
    let mut r = vec![1.0 / ny as f64; ny];
    let mut used = r.clone();
    let mut iterations = 0usize;
    let row_chunk = nx.div_ceil(64).max(1);
    let col_chunk = ny.div_ceil(64).max(64);
    while iterations < max_iters {
        iterations += 1;
        let mut gibbs = vec![vec![0.0; ny]; nx];
        // The solver's serial-cutover cost hints (≈ 8 ns per `A` cell,
        // ≈ 1 ns per column-pass cell), so both sides parallelize alike.
        dplearn::parallel::par_for_each_chunk_mut(
            &mut gibbs,
            row_chunk,
            8 * ny as u64,
            |_chunk, start, rows| {
                for (offset, row) in rows.iter_mut().enumerate() {
                    gibbs_row(&distortion[start + offset], beta, row);
                }
            },
        );
        let weight: Vec<f64> = source
            .iter()
            .zip(&gibbs)
            .map(|(&px, row)| {
                let s = lane_sum(&r, row);
                assert!(
                    s >= 1e-16 && s.is_finite(),
                    "row sum {s} needs the fallback"
                );
                if px == 0.0 {
                    0.0
                } else {
                    px / s
                }
            })
            .collect();
        let mut new_r = vec![0.0; ny];
        {
            let (gibbs, r) = (&gibbs, &r);
            dplearn::parallel::par_for_each_chunk_mut(
                &mut new_r,
                col_chunk,
                nx as u64,
                |_chunk, start, cols| {
                    let width = cols.len();
                    for (&wx, row) in weight.iter().zip(gibbs) {
                        for (c, &a) in cols.iter_mut().zip(&row[start..start + width]) {
                            *c += wx * a;
                        }
                    }
                    for (c, &ry) in cols.iter_mut().zip(&r[start..start + width]) {
                        *c *= ry;
                    }
                },
            );
        }
        let gap = r
            .iter()
            .zip(&new_r)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max);
        used = std::mem::replace(&mut r, new_r);
        if gap < tol {
            break;
        }
    }
    for ry in &mut used {
        if *ry < f64::MIN_POSITIVE {
            *ry = 0.0;
        }
    }
    let mut a = vec![0.0; ny];
    let kernel = distortion
        .iter()
        .map(|row_d| {
            gibbs_row(row_d, beta, &mut a);
            let s = lane_sum(&used, &a);
            used.iter()
                .zip(&a)
                .map(|(&ry, &axy)| ry * axy / s)
                .collect()
        })
        .collect();
    (kernel, iterations)
}

fn bench_ba_cache(r: &mut Report, n: usize) {
    let (source, distortion) = ba_problem(n);
    let (tol, max_iters) = (1e-6, 50_000);
    let opts = BaOptions::new(tol, max_iters);
    let rd = blahut_arimoto(&source, &distortion, BA_BETA, &opts, &NoopRecorder).unwrap();
    let (naive_kernel, naive_iters) = uncached_ba(&source, &distortion, BA_BETA, tol, max_iters);
    assert_eq!(rd.iterations, naive_iters, "iteration counts must match");
    for (a, b) in rd.channel.rows().zip(&naive_kernel) {
        for (&qa, &qb) in a.iter().zip(b) {
            assert_eq!(qa.to_bits(), qb.to_bits(), "kernels must be bit-identical");
        }
    }
    let uncached = r.time(|| {
        black_box(uncached_ba(&source, &distortion, BA_BETA, tol, max_iters));
    });
    let cached = r.time(|| {
        black_box(blahut_arimoto(&source, &distortion, BA_BETA, &opts, &NoopRecorder).unwrap());
    });
    r.section(
        "ba_gibbs_cache",
        &[
            ("alphabet", n.into()),
            ("iterations", naive_iters.into()),
            ("uncached_seconds", uncached.into()),
            ("cached_seconds", cached.into()),
        ],
    );
}

// ---------------------------------------------------------------------
// Channel scans: mutual information, min-entropy leakage, realized ε.
// ---------------------------------------------------------------------

/// Dense structured channel of the MI and leakage sections.
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

/// One `Vec` per kernel row, as the boxed-row replicas read them.
fn boxed_rows(ch: &DiscreteChannel) -> Vec<Vec<f64>> {
    ch.rows().map(<[f64]>::to_vec).collect()
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

fn bench_scale_channel(r: &mut Report, n: usize) {
    let ch = scale_channel(n);
    let boxed = (n <= NAIVE_CAP).then(|| boxed_rows(&ch));
    let naive = boxed.as_ref().map(|rows| {
        r.time(|| {
            black_box(boxed_mutual_information(ch.input(), rows));
        })
    });
    let tiled = r.time(|| {
        black_box(ch.mutual_information_blocked(TILE).unwrap());
    });
    r.section(
        "mutual_information",
        &[
            ("alphabet", n.into()),
            ("naive_seconds", naive.into()),
            ("tiled_seconds", tiled.into()),
        ],
    );
    let naive = boxed.as_ref().map(|rows| {
        r.time(|| {
            black_box(boxed_min_entropy_leakage_bits(ch.input(), rows));
        })
    });
    let tiled = r.time(|| {
        black_box(ch.min_entropy_leakage_bits_blocked(TILE).unwrap());
    });
    r.section(
        "leakage",
        &[
            ("alphabet", n.into()),
            ("naive_seconds", naive.into()),
            ("tiled_seconds", tiled.into()),
        ],
    );
}

fn bench_realized_eps(r: &mut Report, n: usize) {
    let ch = gibbs_channel(n);
    let naive = (n <= NAIVE_CAP).then(|| {
        let rows = boxed_rows(&ch);
        r.time(|| {
            black_box(boxed_max_row_log_ratio(&rows));
        })
    });
    let tiled = r.time(|| {
        black_box(ch.max_row_log_ratio_blocked(TILE).unwrap());
    });
    r.section(
        "realized_eps",
        &[
            ("alphabet", n.into()),
            ("rows", EPS_ROWS.into()),
            ("naive_seconds", naive.into()),
            ("tiled_seconds", tiled.into()),
        ],
    );
}

// ---------------------------------------------------------------------
// Metropolis–Hastings chain.
// ---------------------------------------------------------------------

/// The prior log-density as `DiagGaussian::ln_pdf` computed it before
/// the `ln σ` cache: one logarithm per coordinate per call. Same
/// expression tree, so the values (and hence the chain) are
/// bit-identical.
fn uncached_diag_ln_pdf(mean: &[f64], std: &[f64], x: &[f64]) -> f64 {
    let half_ln_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
    x.iter()
        .zip(mean.iter().zip(std))
        .map(|(&xi, (&m, &s))| {
            let z = (xi - m) / s;
            -0.5 * z * z - s.ln() - half_ln_2pi
        })
        .sum()
}

/// Replica of `MetropolisGibbs::run` before its caches: the uncached
/// prior density and a fresh proposal vector every iteration. Consumes
/// the RNG exactly as the current sampler does.
fn uncached_mh_run(
    prior: &DiagGaussian,
    risk: impl Fn(&[f64]) -> f64,
    lambda: f64,
    cfg: &MhConfig,
    rng: &mut Xoshiro256,
) -> Vec<Vec<f64>> {
    let log_target =
        |x: &[f64]| uncached_diag_ln_pdf(prior.mean(), prior.std(), x) - lambda * risk(x);
    let mut theta: Vec<f64> = prior.mean().to_vec();
    let mut log_p = log_target(&theta);
    let mut step = cfg.initial_step;
    let gauss = Gaussian::standard();

    let total = cfg.burn_in + cfg.n_samples * cfg.thin;
    let mut samples = Vec::with_capacity(cfg.n_samples);
    let mut window_accepts = 0usize;
    for it in 0..total {
        let proposal: Vec<f64> = theta
            .iter()
            .map(|&t| t + step * gauss.sample(rng))
            .collect();
        let log_q = log_target(&proposal);
        let accept = (log_q - log_p) >= rng.next_open_f64().ln();
        if accept {
            theta = proposal;
            log_p = log_q;
        }
        if it < cfg.burn_in {
            if accept {
                window_accepts += 1;
            }
            if (it + 1) % 100 == 0 {
                let rate = window_accepts as f64 / 100.0;
                if rate > 0.35 {
                    step *= 1.2;
                } else if rate < 0.25 {
                    step /= 1.2;
                }
                window_accepts = 0;
            }
        } else if (it - cfg.burn_in + 1).is_multiple_of(cfg.thin) {
            samples.push(theta.clone());
        }
    }
    samples
}

fn bench_mh(r: &mut Report) {
    const DIM: usize = 32;
    const SEED: u64 = 0x4D48_5EED;
    let prior = DiagGaussian::isotropic(DIM, 1.0).unwrap();
    let lambda = 2.0;
    let risk = |t: &[f64]| 0.5 * t.iter().map(|&v| (v - 0.7) * (v - 0.7)).sum::<f64>();
    let cfg = MhConfig {
        burn_in: 2000,
        n_samples: 2000,
        thin: 2,
        initial_step: 0.4,
    };
    let iterations = cfg.burn_in + cfg.n_samples * cfg.thin;
    let mh = MetropolisGibbs::new(&prior, risk, lambda, cfg.clone()).unwrap();

    let (fast, _) = mh.run(&mut Xoshiro256::seed_from(SEED));
    let slow = uncached_mh_run(&prior, risk, lambda, &cfg, &mut Xoshiro256::seed_from(SEED));
    assert_eq!(
        fast, slow,
        "cached chain must be bit-identical to the replica"
    );

    let uncached = r.time(|| {
        let mut rng = Xoshiro256::seed_from(SEED);
        black_box(uncached_mh_run(&prior, risk, lambda, &cfg, &mut rng));
    });
    let cached = r.time(|| {
        black_box(mh.run(&mut Xoshiro256::seed_from(SEED)));
    });
    r.section(
        "mh_chain",
        &[
            ("dim", DIM.into()),
            ("iterations", iterations.into()),
            ("uncached_seconds", uncached.into()),
            ("cached_seconds", cached.into()),
        ],
    );
}

// ---------------------------------------------------------------------
// Exponential-mechanism selection.
// ---------------------------------------------------------------------

fn bench_selection(r: &mut Report, k: usize, draws: usize) {
    const SEED: u64 = 0x5E1EC7;
    let mech = ExponentialMechanism::new(k, 1.0).unwrap();
    let scores: Vec<f64> = (0..k).map(|i| ((i * 37) % 100) as f64 / 10.0).collect();
    let t = 0.5; // ε = 2tΔq = 1 at sensitivity 1.

    // Prepared draws consume the RNG exactly as `select` does.
    let mut ra = Xoshiro256::seed_from(SEED);
    let mut rb = ra.clone();
    let prepared = mech.prepare_with_temperature(&scores, t).unwrap();
    for _ in 0..1000 {
        assert_eq!(
            mech.select_with_temperature(&scores, t, &mut ra).unwrap(),
            prepared.draw(&mut rb),
            "prepared draws must be bit-identical to select()"
        );
    }

    let per_draw = r.time(|| {
        let mut rng = Xoshiro256::seed_from(SEED);
        let mut acc = 0usize;
        for _ in 0..draws {
            acc ^= mech.select_with_temperature(&scores, t, &mut rng).unwrap();
        }
        black_box(acc);
    });
    // The prepare is part of the amortized path: paid once per `draws`.
    let prepared = r.time(|| {
        let mut rng = Xoshiro256::seed_from(SEED);
        let p = mech.prepare_with_temperature(&scores, t).unwrap();
        let mut acc = 0usize;
        for _ in 0..draws {
            acc ^= p.draw(&mut rng);
        }
        black_box(acc);
    });
    let gumbel = r.time(|| {
        let mut rng = Xoshiro256::seed_from(SEED);
        let mut acc = 0usize;
        for _ in 0..draws {
            acc ^= mech.select_gumbel(&scores, t, &mut rng).unwrap();
        }
        black_box(acc);
    });
    r.section(
        "selection",
        &[
            ("candidates", k.into()),
            ("draws", draws.into()),
            ("select_seconds", per_draw.into()),
            ("prepared_seconds", prepared.into()),
            ("gumbel_seconds", gumbel.into()),
        ],
    );
}

// ---------------------------------------------------------------------

fn main() -> std::io::Result<()> {
    let mut r = Report::new("kernels", 3);
    let sizes = if r.smoke() { SMOKE } else { FULL };
    for threads in [1, 4] {
        dplearn::parallel::set_thread_count(threads);
        bench_dispatch(&mut r);
        for &len in sizes.softmax {
            bench_softmax(&mut r, len);
        }
        if threads == 1 {
            bench_exp(&mut r, "normal", false);
            bench_exp(&mut r, "underflow", true);
            for &k in sizes.selection {
                bench_selection(&mut r, k, sizes.draws);
            }
        }
        for &(n, iterations) in sizes.ba {
            bench_ba(&mut r, n, iterations);
        }
        bench_ba_cache(&mut r, sizes.ba_cache);
        for &n in sizes.channel {
            bench_scale_channel(&mut r, n);
            bench_realized_eps(&mut r, n);
        }
        bench_mh(&mut r);
    }
    dplearn::parallel::set_thread_count(0);
    r.write()
}
