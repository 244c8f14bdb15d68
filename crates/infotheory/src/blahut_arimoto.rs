//! Blahut–Arimoto iteration for the rate–distortion function — an
//! independent algorithmic witness of the paper's Theorem 4.2.
//!
//! Rate–distortion asks for the channel `q(y|x)` minimizing `I(X;Y)`
//! subject to a bound on expected distortion `E[d(X,Y)]`. In Lagrangian
//! form, minimize `I(X;Y) + β·E[d(X,Y)]`. The alternating-minimization
//! fixed point is
//!
//! ```text
//! q(y|x) ∝ r(y)·exp(−β·d(x,y)),     r(y) = Σ_x p(x)·q(y|x)
//! ```
//!
//! Read `x = Ẑ`, `y = θ`, `d = R̂_Ẑ(θ)`, `β = λ`: the inner update is
//! **exactly the Gibbs posterior with prior `r`** — and the optimal prior
//! is the output marginal `E_Ẑ π̂_Ẑ`, precisely the paper's remark that
//! `π_OPT = E_Ẑ π̂` makes `E_Ẑ KL(π̂‖π)` equal the mutual information.
//! Experiment E6 runs this iteration on the learning problem and checks
//! the fixed point coincides with the Gibbs kernel.
//!
//! # The kernel
//!
//! Every entry point runs one kernel: Blahut's multiplicative form of the
//! iteration (Blahut, *Computation of channel capacity and rate-distortion
//! functions*, IEEE T-IT 1972). Once per solve it builds the row-shifted
//! Gibbs kernel, in parallel over row tiles:
//!
//! ```text
//! A(x,y) = exp(−(β·d(x,y) − min_y' β·d(x,y')))     (each row's largest entry is exactly 1)
//! ```
//!
//! Each iteration is then two multiply-add passes over `A`, with no `exp`
//! or `ln` and no writes to `A`:
//!
//! ```text
//! row pass:     s_x = Σ_y r(y)·A(x,y),    w(x) = p(x)/s_x
//! column pass:  r'(y) = r(y)·Σ_x w(x)·A(x,y)
//! ```
//!
//! until the marginal moves less than `tol` in ℓ∞. The channel
//! `q(y|x) = r(y)·A(x,y)/s_x` is built once, at the end, from the
//! marginal the last sweep used.
//!
//! * **Determinism.** A row sum's association depends only on the row
//!   length (four fixed lanes), and each column
//!   accumulates in source order. No tile size and no `DPLEARN_THREADS`
//!   value changes a bit.
//! * **Log-space fallback.** A row whose `s_x` is below `1e-16`, or not
//!   finite, takes the log-space row update instead (`ln r(y) − β·d(x,y)`
//!   normalized by `log_sum_exp`), and its `p(x)·q(y|x)` enters the new
//!   marginal after the column pass, in source order. A product
//!   `r(y)·A(x,y)` below `f64::MIN_POSITIVE` carries an absolute error of
//!   up to 2⁻¹⁰⁷⁴; after the division by `s_x` that error stays below
//!   1e-290 only while `s_x > 2.2e-18`.
//! * **Subnormal marginal.** Marginal entries below `f64::MIN_POSITIVE`
//!   are set to 0 before the channel is built: their cells' mass
//!   `p(x)·q(y|x)` can underflow out of the output marginal and make the
//!   rate `+∞`.
//! * **Certified bracket.** The same row and column sums give Blahut's
//!   dual lower bound on `R(D)`, returned as
//!   [`RateDistortion::rate_lower_bound`].

use crate::channel::DiscreteChannel;
use crate::{validate_distribution, InfoError, Result};
use dplearn_numerics::special::log_sum_exp;
use dplearn_robust::{ConvergenceReport, RetryPolicy};
use dplearn_telemetry::{NoopRecorder, Recorder};

/// Result of a Blahut–Arimoto run.
#[derive(Debug, Clone)]
pub struct RateDistortion {
    /// The optimizing channel `q(y|x)` (with the source as input dist).
    pub channel: DiscreteChannel,
    /// Rate `I(X;Y)` at the optimum, nats.
    pub rate: f64,
    /// Expected distortion at the optimum.
    pub distortion: f64,
    /// Iterations used.
    pub iterations: usize,
    /// Final ℓ∞ change of the output marginal (convergence witness).
    pub final_gap: f64,
    /// Blahut's dual lower bound on `R(D)` at the returned distortion
    /// `D`, nats, so that `rate_lower_bound ≤ R(D) ≤ rate` (the
    /// counterpart of `Capacity::bracket`):
    ///
    /// ```text
    /// −β·D − Σ_x p(x)·(ln s_x − min_y β·d(x,y)) − ln max_y Σ_x w(x)·A(x,y)
    /// ```
    ///
    /// with `s_x` and `w(x)` from the marginal the channel was built
    /// from. Clamped to `[0, rate]`, and `0` when a positive-mass row's
    /// `s_x` is zero: never NaN or `+∞`.
    pub rate_lower_bound: f64,
}

/// Validate Blahut–Arimoto inputs, returning the output-alphabet size.
fn validate_ba(source: &[f64], distortion: &[Vec<f64>], beta: f64) -> Result<usize> {
    validate_distribution("source", source)?;
    if distortion.len() != source.len() {
        return Err(InfoError::InvalidParameter {
            name: "distortion",
            reason: format!("expected {} rows, got {}", source.len(), distortion.len()),
        });
    }
    let ny = distortion.first().map_or(0, Vec::len);
    if ny == 0 {
        return Err(InfoError::InvalidParameter {
            name: "distortion",
            reason: "output alphabet must be non-empty".to_string(),
        });
    }
    for (i, row) in distortion.iter().enumerate() {
        if row.len() != ny {
            return Err(InfoError::InvalidParameter {
                name: "distortion",
                reason: format!("row {i} has length {}, expected {ny}", row.len()),
            });
        }
        if row.iter().any(|&v| !v.is_finite()) {
            return Err(InfoError::InvalidParameter {
                name: "distortion",
                reason: format!("row {i} contains a non-finite distortion"),
            });
        }
    }
    if !(beta.is_finite() && beta >= 0.0) {
        return Err(InfoError::InvalidParameter {
            name: "beta",
            reason: format!("must be finite and nonnegative, got {beta}"),
        });
    }
    Ok(ny)
}

/// Smallest row sum `s_x` the multiplicative row update divides by; a
/// smaller or non-finite one takes the log-space update (see the module
/// docs for why `1e-16`).
const MIN_ROW_SUM: f64 = 1e-16;

/// Approximate costs in [`dplearn_parallel::par_threshold`] units
/// (≈ nanoseconds) of one cell: building `A` (a multiply, a subtraction
/// and an `exp`), and one multiply-add in the row or column pass.
const GIBBS_CELL_COST: u64 = 8;
const ROW_CELL_COST: u64 = 1;
const COL_CELL_COST: u64 = 1;

/// `Σ_y r(y)·a(y)` over four fixed lanes: lane `k` adds the products at
/// `y ≡ k (mod 4)` in order, the lanes combine as `(l₀+l₁)+(l₂+l₃)`, and
/// the last `len mod 4` products, summed in order, are added at the end.
/// The association depends only on the row length.
fn row_sum(r: &[f64], a: &[f64]) -> f64 {
    let (r4, a4) = (r.chunks_exact(4), a.chunks_exact(4));
    let tail = r4
        .remainder()
        .iter()
        .zip(a4.remainder())
        .fold(0.0, |acc, (&ry, &ay)| acc + ry * ay);
    let mut lanes = [0.0f64; 4];
    for (rc, ac) in r4.zip(a4) {
        for ((l, &ry), &ay) in lanes.iter_mut().zip(rc).zip(ac) {
            *l += ry * ay;
        }
    }
    let [l0, l1, l2, l3] = lanes;
    (l0 + l1) + (l2 + l3) + tail
}

/// Whether the multiplicative row update may divide by `s`.
fn row_sum_ok(s: f64) -> bool {
    s >= MIN_ROW_SUM && s.is_finite()
}

/// `min_y β·d(x,y)`, the shift that makes a row of `A` peak at exactly 1.
fn min_beta_d(row_d: &[f64], beta: f64) -> f64 {
    row_d
        .iter()
        .map(|&d| beta * d)
        .fold(f64::INFINITY, f64::min)
}

/// The log-space row update for rows that fail [`row_sum_ok`]: fills `q`
/// with `exp(l(y) − log_sum_exp(l))`, `l(y) = ln r(y) − β·d(x,y)` and
/// `−∞` where `r(y) = 0`.
fn log_space_row(q: &mut [f64], r: &[f64], row_d: &[f64], beta: f64) {
    for ((l, &ry), &d) in q.iter_mut().zip(r).zip(row_d) {
        *l = if ry == 0.0 {
            f64::NEG_INFINITY
        } else {
            ry.ln() - beta * d
        };
    }
    let z = log_sum_exp(q);
    for l in q.iter_mut() {
        *l = (*l - z).exp();
    }
}

/// State left by one [`ba_loop`] run — kept even on non-convergence so a
/// retry can damp the marginal and resume rather than start cold.
struct BaState {
    /// The newest marginal.
    r: Vec<f64>,
    gap: f64,
    iterations: usize,
    converged: bool,
}

/// Working storage for one solve, built once and shared by every
/// iteration **and every retry attempt**. `gibbs` is the only `nx·ny`
/// buffer; the rest are vectors of one alphabet.
struct BaScratch {
    /// Output-alphabet size: the row stride of `gibbs`.
    ny: usize,
    /// Source rows per tile in the row pass and in building `gibbs`.
    row_tile: usize,
    /// Output columns per tile in the column pass.
    col_tile: usize,
    /// `A(x,y)`, flat row-major: row `x` occupies `[x·ny, (x+1)·ny)`.
    gibbs: Vec<f64>,
    /// Per row: `s_x` after the row pass, then `w(x)`.
    weight: Vec<f64>,
    /// Positive-mass rows that took the log-space update this sweep.
    fallback: Vec<usize>,
    /// The next marginal during a sweep; after it, the marginal the
    /// sweep used (the two are swapped).
    prev_r: Vec<f64>,
    /// One log-space row for the fallback.
    logits: Vec<f64>,
}

impl BaScratch {
    // Row tiles are whole rows of validated length, so each chunk's
    // first row index is `start / ny` and every row has `ny` distortions.
    #[allow(clippy::indexing_slicing)]
    fn new(distortion: &[Vec<f64>], beta: f64, ny: usize, opts: &BaTileOptions) -> Self {
        let nx = distortion.len();
        // Tile geometry is fixed per problem size — never a function of
        // the worker count. An explicit tile is clamped to the dimension
        // it splits (a larger one is still one tile), so `row_tile * ny`
        // cannot overflow.
        let row_tile = if opts.row_tile > 0 {
            opts.row_tile.min(nx)
        } else {
            nx.div_ceil(64).max(1)
        };
        let col_tile = if opts.col_tile > 0 {
            opts.col_tile.min(ny)
        } else {
            ny.div_ceil(64).max(64)
        };
        // Every cell is independent, so any tiling gives the same bits;
        // the workers also take the first-touch page faults.
        let mut gibbs = vec![0.0; nx * ny];
        dplearn_parallel::par_for_each_chunk_mut_with_cost(
            &mut gibbs,
            row_tile * ny,
            GIBBS_CELL_COST,
            |_chunk, start, cells| {
                for (row_a, row_d) in cells.chunks_mut(ny).zip(&distortion[start / ny..]) {
                    let shift = min_beta_d(row_d, beta);
                    for (a, &d) in row_a.iter_mut().zip(row_d) {
                        *a = (shift - beta * d).exp();
                    }
                }
            },
        );
        BaScratch {
            ny,
            row_tile,
            col_tile,
            gibbs,
            weight: vec![0.0; nx],
            fallback: Vec::new(),
            prev_r: vec![0.0; ny],
            logits: vec![0.0; ny],
        }
    }
}

/// Work counters from one run, recorded (sequentially, after the loop)
/// by [`blahut_arimoto_tiled_recorded`] as `infotheory.ba.tiles` and
/// `infotheory.ba.rows_converged`.
#[derive(Debug, Clone, Copy, Default)]
struct BaTileStats {
    tiles: u64,
    rows_converged: u64,
}

/// The iteration loop from marginal `r`, for up to `max_iters`
/// iterations or until the marginal moves < `tol` in ℓ∞. On return,
/// `scratch.prev_r` holds the marginal the last computed sweep used.
// Tile offsets are handed out by the parallel scheduler and bounded by
// the validated dimensions; fallback rows index validated rows.
#[allow(clippy::indexing_slicing)]
#[allow(clippy::too_many_arguments)]
fn ba_loop(
    source: &[f64],
    distortion: &[Vec<f64>],
    beta: f64,
    tol: f64,
    max_iters: usize,
    mut r: Vec<f64>,
    scratch: &mut BaScratch,
    recorder: &dyn Recorder,
    stats: &mut BaTileStats,
) -> BaState {
    let BaScratch {
        ny,
        row_tile,
        col_tile,
        gibbs,
        weight,
        fallback,
        prev_r,
        logits,
    } = scratch;
    let (ny, row_tile, col_tile) = (*ny, *row_tile, *col_tile);
    let gibbs = &*gibbs;
    let nx = source.len();
    let mut gap = f64::INFINITY;
    let mut iterations = 0;
    // Hoisted so the noop path pays one virtual call per run, not one
    // per iteration.
    let observe = recorder.enabled();
    // Rows the sweeps actually visit (for the rows_converged counter).
    let active_rows = source.iter().filter(|&&px| px != 0.0).count() as u64;
    let iter_tiles = (nx.div_ceil(row_tile) + ny.div_ceil(col_tile)) as u64;
    // Frozen early exit, set once the marginal is bitwise stationary:
    // `gap == 0.0` means `r` and the marginal the sweep used agree bit for
    // bit (every entry is a nonnegative sum, so there is no −0.0/+0.0
    // ambiguity and no NaN), and the next sweep is a pure function of `r`
    // — recomputing it must reproduce the marginal and a zero gap
    // exactly. So later sweeps are skipped, while iteration counting and
    // gap telemetry continue as if they had run. Only reachable when
    // `tol ≤ 0` (a positive tolerance stops at the first zero gap): the
    // fixed-iteration pattern the benches use.
    let mut frozen = false;
    while iterations < max_iters {
        iterations += 1;
        if frozen {
            stats.rows_converged += active_rows;
            if observe {
                recorder.histogram_record("infotheory.ba.gap", "", 0.0);
            }
            if gap < tol {
                break;
            }
            continue;
        }
        stats.tiles += iter_tiles;
        // Row pass: s_x, in parallel over row tiles.
        {
            let r = &r;
            dplearn_parallel::par_for_each_chunk_mut_with_cost(
                weight,
                row_tile,
                ny as u64 * ROW_CELL_COST,
                |_chunk, start, sums| {
                    // Zero-mass rows are pruned from both passes: their
                    // w(x) = 0 makes every column-pass term an exact +0.0
                    // on the never-negative accumulators.
                    for (x, s) in (start..).zip(sums.iter_mut()) {
                        if source[x] == 0.0 {
                            continue;
                        }
                        *s = row_sum(r, &gibbs[x * ny..(x + 1) * ny]);
                    }
                },
            );
        }
        // w(x) = p(x)/s_x, and 0 for a zero-mass row.
        fallback.clear();
        for (x, (w, &px)) in weight.iter_mut().zip(source).enumerate() {
            *w = if px == 0.0 {
                0.0
            } else if row_sum_ok(*w) {
                px / *w
            } else {
                fallback.push(x);
                0.0
            };
        }
        // Column pass, in parallel over column tiles: each column sums
        // its rows in source order, whatever the tile.
        {
            let (r, weight) = (&r, &*weight);
            dplearn_parallel::par_for_each_chunk_mut_with_cost(
                prev_r,
                col_tile,
                nx as u64 * COL_CELL_COST,
                |_chunk, start, cols| {
                    cols.fill(0.0);
                    let width = cols.len();
                    for (x, &wx) in weight.iter().enumerate() {
                        if source[x] == 0.0 {
                            continue;
                        }
                        let row0 = x * ny + start;
                        for (c, &a) in cols.iter_mut().zip(&gibbs[row0..row0 + width]) {
                            *c += wx * a;
                        }
                    }
                    for (c, &ry) in cols.iter_mut().zip(&r[start..start + width]) {
                        *c *= ry;
                    }
                },
            );
        }
        for &x in fallback.iter() {
            log_space_row(logits, &r, &distortion[x], beta);
            let px = source[x];
            for (nr, &q) in prev_r.iter_mut().zip(logits.iter()) {
                *nr += px * q;
            }
        }
        gap = r
            .iter()
            .zip(&*prev_r)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max);
        std::mem::swap(&mut r, prev_r);
        // Recorded from the sequential outer loop: the gap sequence is
        // a pure function of (source, distortion, beta, r₀), so the
        // histogram is bit-identical at every thread count.
        if observe {
            recorder.histogram_record("infotheory.ba.gap", "", gap);
        }
        if gap == 0.0 {
            frozen = true;
        }
        if gap < tol {
            break;
        }
    }
    BaState {
        r,
        gap,
        iterations,
        converged: gap < tol,
    }
}

/// Build the channel `q(y|x) = r(y)·A(x,y)/s_x` from the marginal the
/// last sweep used (`scratch.prev_r`), with its rate, distortion and
/// rate lower bound. Zero-mass and fallback rows are built here too.
fn ba_finalize(
    source: &[f64],
    distortion: &[Vec<f64>],
    beta: f64,
    scratch: &mut BaScratch,
    final_gap: f64,
    iterations: usize,
) -> Result<RateDistortion> {
    let ny = scratch.ny;
    for ry in scratch.prev_r.iter_mut() {
        if *ry < f64::MIN_POSITIVE {
            *ry = 0.0;
        }
    }
    let r = &scratch.prev_r;
    let mut kernel = vec![0.0; source.len() * ny];
    // Blahut's bound: c(y) = Σ_x w(x)·A(x,y), fallback rows included,
    // and Σ_x p(x)·ln Σ_y r(y)·exp(−β·d(x,y)).
    let mut c = vec![0.0; ny];
    let mut log_norm = 0.0;
    let mut bounded = true;
    let rows = source.iter().zip(distortion).zip(scratch.gibbs.chunks(ny));
    for (((&px, row_d), a_x), q) in rows.zip(kernel.chunks_mut(ny)) {
        let s = row_sum(r, a_x);
        if row_sum_ok(s) {
            for ((q, &ry), &a) in q.iter_mut().zip(r).zip(a_x) {
                *q = ry * a / s;
            }
        } else {
            log_space_row(q, r, row_d, beta);
        }
        if px != 0.0 {
            bounded &= s > 0.0;
            log_norm += px * (s.ln() - min_beta_d(row_d, beta));
            let w = px / s;
            for (cy, &a) in c.iter_mut().zip(a_x) {
                *cy += w * a;
            }
        }
    }
    let channel = DiscreteChannel::new(source.to_vec(), kernel, ny)?;
    let rate = channel.mutual_information();
    let mut dist = 0.0;
    for ((&px, row_q), row_d) in source.iter().zip(channel.rows()).zip(distortion) {
        for (&q, &d) in row_q.iter().zip(row_d) {
            dist += px * q * d;
        }
    }
    let lower = if bounded {
        let max_c = c.iter().copied().fold(0.0, f64::max);
        -beta * dist - log_norm - max_c.ln()
    } else {
        0.0
    };
    Ok(RateDistortion {
        channel,
        rate,
        distortion: dist,
        iterations,
        final_gap,
        // `max` maps a NaN to 0; `min` keeps rounding from lifting the
        // bound above the rate it brackets.
        rate_lower_bound: lower.max(0.0).min(rate),
    })
}

/// Run Blahut–Arimoto at Lagrange multiplier `beta ≥ 0` on a source
/// `p(x)` and distortion matrix `d[x][y]`.
///
/// Converges when the output marginal moves less than `tol` in ℓ∞, or
/// errors after `max_iters`. For a self-healing variant that escalates
/// its iteration budget instead of erroring, see
/// [`blahut_arimoto_with_retry`]. The same kernel as
/// [`blahut_arimoto_tiled`] with default options.
pub fn blahut_arimoto(
    source: &[f64],
    distortion: &[Vec<f64>],
    beta: f64,
    tol: f64,
    max_iters: usize,
) -> Result<RateDistortion> {
    blahut_arimoto_tiled(
        source,
        distortion,
        beta,
        tol,
        max_iters,
        &BaTileOptions::default(),
    )
}

/// Blahut–Arimoto with a bounded-restart [`RetryPolicy`] instead of a
/// bare `max_iters` error.
///
/// Attempt 0 runs `policy.base_iters` iterations from the uniform
/// marginal. Each subsequent attempt resumes from the failed marginal
/// **damped toward uniform** (`r ← (1−damping)·r + damping·uniform`,
/// which pulls the iterate off collapsed corners where mass on an output
/// letter underflowed to zero) with a geometrically larger budget
/// (`base_iters · growth^attempt`), up to `policy.max_attempts` total
/// attempts. Deterministic: no randomness, no clocks — the schedule is a
/// pure function of the policy, so results are bit-identical at every
/// `DPLEARN_THREADS` setting.
///
/// On success returns the solution plus a [`ConvergenceReport`]
/// recording attempts and total iterations; if every attempt is
/// exhausted, returns [`InfoError::DidNotConverge`] with the *total*
/// iteration count across attempts.
pub fn blahut_arimoto_with_retry(
    source: &[f64],
    distortion: &[Vec<f64>],
    beta: f64,
    tol: f64,
    policy: &RetryPolicy,
) -> Result<(RateDistortion, ConvergenceReport)> {
    blahut_arimoto_with_retry_recorded(source, distortion, beta, tol, policy, &NoopRecorder)
}

/// [`blahut_arimoto_with_retry`] with telemetry: every outer-loop ℓ∞
/// marginal gap lands in the `infotheory.ba.gap` histogram, each damped
/// restart bumps the `infotheory.ba.restarts` counter, and the run ends
/// with `infotheory.ba.iterations` (total across attempts), an
/// `infotheory.ba.final_gap` gauge, and either an `infotheory.ba.runs`
/// or `infotheory.ba.nonconverged` counter.
///
/// The recorder never influences the iteration — all metrics come from
/// the sequential outer loop, so recorded values are bit-identical at
/// every `DPLEARN_THREADS` setting.
pub fn blahut_arimoto_with_retry_recorded(
    source: &[f64],
    distortion: &[Vec<f64>],
    beta: f64,
    tol: f64,
    policy: &RetryPolicy,
    recorder: &dyn Recorder,
) -> Result<(RateDistortion, ConvergenceReport)> {
    policy.validate().map_err(|e| InfoError::InvalidParameter {
        name: "policy",
        reason: e.to_string(),
    })?;
    let ny = validate_ba(source, distortion, beta)?;
    let uniform = 1.0 / ny as f64;
    let mut r = vec![uniform; ny];
    let mut total_iterations = 0usize;
    let observe = recorder.enabled();
    // One scratch space (`A` and the marginal buffers) shared by every
    // retry attempt — restarts re-enter with `A` already built.
    let opts = BaTileOptions::default();
    let mut scratch = BaScratch::new(distortion, beta, ny, &opts);
    let mut stats = BaTileStats::default();
    for attempt in 0..policy.max_attempts {
        let budget = policy.budget_for(attempt);
        let state = ba_loop(
            source,
            distortion,
            beta,
            tol,
            budget,
            r,
            &mut scratch,
            recorder,
            &mut stats,
        );
        total_iterations = total_iterations.saturating_add(state.iterations);
        if state.converged {
            let report = ConvergenceReport {
                attempts: attempt + 1,
                converged: true,
                degraded: false,
                total_iterations,
                final_residual: state.gap,
            };
            if observe {
                recorder.counter_add("infotheory.ba.runs", "", 1);
                recorder.counter_add("infotheory.ba.iterations", "", total_iterations as u64);
                recorder.gauge_set("infotheory.ba.final_gap", "", state.gap);
            }
            let rd = ba_finalize(
                source,
                distortion,
                beta,
                &mut scratch,
                state.gap,
                total_iterations,
            )?;
            return Ok((rd, report));
        }
        // Damped re-initialization: mix the failed marginal back toward
        // uniform. Mixing two normalized distributions stays normalized.
        if observe && attempt + 1 < policy.max_attempts {
            recorder.counter_add("infotheory.ba.restarts", "", 1);
        }
        r = state
            .r
            .iter()
            .map(|&ri| (1.0 - policy.damping) * ri + policy.damping * uniform)
            .collect();
    }
    if observe {
        recorder.counter_add("infotheory.ba.nonconverged", "", 1);
        recorder.counter_add("infotheory.ba.iterations", "", total_iterations as u64);
    }
    Err(InfoError::DidNotConverge {
        iterations: total_iterations,
    })
}

/// Tile geometry for [`blahut_arimoto_tiled`].
///
/// No option value changes a bit of the result: tile boundaries never
/// change an accumulation order (pinned by
/// `tiled_is_bit_identical_across_tile_sizes`).
#[derive(Debug, Clone, Default)]
pub struct BaTileOptions {
    /// Source rows per parallel tile in the row pass and in building `A`
    /// (`0` = auto: `nx/64`).
    pub row_tile: usize,
    /// Output columns per parallel tile in the column pass
    /// (`0` = auto: `ny/64`, but at least 64 columns).
    pub col_tile: usize,
}

/// [`blahut_arimoto`] with explicit tile geometry — the large-alphabet
/// entry point.
///
/// Bit-identical to [`blahut_arimoto`] for **any** option values at
/// **any** `DPLEARN_THREADS` (tile boundaries never change an
/// accumulation order) — pinned across tile sizes {1, 7, 64, 4096} in
/// `tests/determinism.rs`.
pub fn blahut_arimoto_tiled(
    source: &[f64],
    distortion: &[Vec<f64>],
    beta: f64,
    tol: f64,
    max_iters: usize,
    opts: &BaTileOptions,
) -> Result<RateDistortion> {
    blahut_arimoto_tiled_recorded(
        source,
        distortion,
        beta,
        tol,
        max_iters,
        opts,
        &NoopRecorder,
    )
}

/// [`blahut_arimoto_tiled`] with telemetry: per-iteration gaps land in
/// the `infotheory.ba.gap` histogram, and the run ends with
/// `infotheory.ba.tiles` (tiles dispatched to the scheduler across all
/// iterations) and `infotheory.ba.rows_converged` (row updates skipped
/// by the frozen early-exit). All counters are accumulated in the
/// sequential control loop, so snapshots are bit-identical at every
/// thread count.
pub fn blahut_arimoto_tiled_recorded(
    source: &[f64],
    distortion: &[Vec<f64>],
    beta: f64,
    tol: f64,
    max_iters: usize,
    opts: &BaTileOptions,
    recorder: &dyn Recorder,
) -> Result<RateDistortion> {
    let ny = validate_ba(source, distortion, beta)?;
    let r = vec![1.0 / ny as f64; ny];
    let mut scratch = BaScratch::new(distortion, beta, ny, opts);
    let mut stats = BaTileStats::default();
    let state = ba_loop(
        source,
        distortion,
        beta,
        tol,
        max_iters,
        r,
        &mut scratch,
        recorder,
        &mut stats,
    );
    if recorder.enabled() {
        recorder.counter_add("infotheory.ba.tiles", "", stats.tiles);
        recorder.counter_add("infotheory.ba.rows_converged", "", stats.rows_converged);
    }
    if !state.converged {
        return Err(InfoError::DidNotConverge {
            iterations: state.iterations,
        });
    }
    ba_finalize(
        source,
        distortion,
        beta,
        &mut scratch,
        state.gap,
        state.iterations,
    )
}

/// ℓ∞ distance between a channel's rows and the Gibbs kernel built from a
/// given prior at inverse temperature `beta` — used by E6 to certify that
/// the rate–distortion optimizer *is* the Gibbs posterior family.
pub fn gibbs_fixed_point_gap(rd: &RateDistortion, distortion: &[Vec<f64>], beta: f64) -> f64 {
    let r = rd.channel.output_marginal();
    let mut worst = 0.0f64;
    for (row_q, row_d) in rd.channel.rows().zip(distortion) {
        let logits: Vec<f64> = r
            .iter()
            .zip(row_d)
            .map(|(&ry, &dxy)| {
                if ry == 0.0 {
                    f64::NEG_INFINITY
                } else {
                    ry.ln() - beta * dxy
                }
            })
            .collect();
        let z = log_sum_exp(&logits);
        for (&q, &l) in row_q.iter().zip(&logits) {
            worst = worst.max((q - (l - z).exp()).abs());
        }
    }
    worst
}

/// The Lagrangian value `I(X;Y) + β·E[d]` of an arbitrary channel against
/// a source and distortion — used to verify optimality of the BA output
/// against challenger channels.
pub fn lagrangian(
    source: &[f64],
    kernel: &[Vec<f64>],
    distortion: &[Vec<f64>],
    beta: f64,
) -> Result<f64> {
    let channel = DiscreteChannel::from_rows(source.to_vec(), kernel.to_vec())?;
    let mut dist = 0.0;
    for ((&px, row_q), row_d) in source.iter().zip(kernel).zip(distortion) {
        for (&q, &d) in row_q.iter().zip(row_d) {
            dist += px * q * d;
        }
    }
    Ok(channel.mutual_information() + beta * dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dplearn_numerics::rng::{Rng, Xoshiro256};
    use dplearn_numerics::special::{kahan_sum, xlogx_over_y};

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    fn rel_err(a: f64, b: f64) -> f64 {
        if a == b {
            0.0
        } else {
            (a - b).abs() / a.abs().max(b.abs())
        }
    }

    fn hamming(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| (0..n).map(|j| if i == j { 0.0 } else { 1.0 }).collect())
            .collect()
    }

    #[test]
    fn beta_zero_gives_zero_rate() {
        // No distortion pressure: the optimal channel ignores the input.
        let rd = blahut_arimoto(&[0.5, 0.5], &hamming(2), 0.0, 1e-12, 1000).unwrap();
        close(rd.rate, 0.0, 1e-9);
    }

    #[test]
    fn large_beta_approaches_zero_distortion_full_rate() {
        let rd = blahut_arimoto(&[0.5, 0.5], &hamming(2), 50.0, 1e-12, 10_000).unwrap();
        close(rd.distortion, 0.0, 1e-6);
        close(rd.rate, std::f64::consts::LN_2, 1e-4);
    }

    #[test]
    fn binary_hamming_matches_shannon_rate_distortion() {
        // For a uniform binary source with Hamming distortion,
        // R(D) = ln2 − H(D). The BA solution at β corresponds to
        // D = 1/(1+e^β).
        let beta = 2.0f64;
        let rd = blahut_arimoto(&[0.5, 0.5], &hamming(2), beta, 1e-13, 20_000).unwrap();
        let d = 1.0 / (1.0 + beta.exp());
        close(rd.distortion, d, 1e-6);
        let want_rate = std::f64::consts::LN_2 - dplearn_numerics::special::binary_entropy(d);
        close(rd.rate, want_rate, 1e-6);
    }

    #[test]
    fn fixed_point_is_gibbs_kernel() {
        let source = [0.3, 0.45, 0.25];
        let distortion = vec![
            vec![0.0, 0.6, 1.0],
            vec![0.5, 0.0, 0.4],
            vec![1.0, 0.7, 0.0],
        ];
        let beta = 3.0;
        let rd = blahut_arimoto(&source, &distortion, beta, 1e-13, 50_000).unwrap();
        let gap = gibbs_fixed_point_gap(&rd, &distortion, beta);
        assert!(gap < 1e-9, "Gibbs fixed-point gap {gap}");
    }

    #[test]
    fn ba_output_beats_random_challenger_channels() {
        let source = [0.4, 0.6];
        let distortion = vec![vec![0.0, 1.0], vec![0.8, 0.1]];
        let beta = 1.5;
        let rd = blahut_arimoto(&source, &distortion, beta, 1e-13, 50_000).unwrap();
        let rows: Vec<Vec<f64>> = rd.channel.rows().map(<[f64]>::to_vec).collect();
        let opt = lagrangian(&source, &rows, &distortion, beta).unwrap();
        let mut rng = Xoshiro256::seed_from(91);
        for _ in 0..2000 {
            let kernel: Vec<Vec<f64>> = (0..2)
                .map(|_| {
                    let a = rng.next_open_f64();
                    vec![a, 1.0 - a]
                })
                .collect();
            let val = lagrangian(&source, &kernel, &distortion, beta).unwrap();
            assert!(val >= opt - 1e-9, "challenger {val} beats optimum {opt}");
        }
    }

    /// The log-space iteration the multiplicative kernel replaced:
    /// per-cell `ln r(y) − β·d(x,y)` logits, a Kahan `log_sum_exp` per
    /// row, two `exp` per cell, serial loops. The tolerance oracle.
    fn naive_ba_reference(
        source: &[f64],
        distortion: &[Vec<f64>],
        beta: f64,
        tol: f64,
        max_iters: usize,
    ) -> (Vec<Vec<f64>>, Vec<f64>, usize) {
        let ny = distortion[0].len();
        let mut r = vec![1.0 / ny as f64; ny];
        let mut kernel = vec![vec![0.0; ny]; source.len()];
        let mut iterations = 0;
        while iterations < max_iters {
            iterations += 1;
            for (row_q, row_d) in kernel.iter_mut().zip(distortion) {
                let logits: Vec<f64> = r
                    .iter()
                    .zip(row_d)
                    .map(|(&ry, &dxy)| {
                        if ry == 0.0 {
                            f64::NEG_INFINITY
                        } else {
                            ry.ln() - beta * dxy
                        }
                    })
                    .collect();
                let z = log_sum_exp(&logits);
                for (q, &l) in row_q.iter_mut().zip(&logits) {
                    *q = (l - z).exp();
                }
            }
            let mut new_r = vec![0.0; ny];
            for (&px, row_q) in source.iter().zip(&kernel) {
                for (nr, &q) in new_r.iter_mut().zip(row_q) {
                    *nr += px * q;
                }
            }
            let gap = r
                .iter()
                .zip(&new_r)
                .map(|(&a, &b)| (a - b).abs())
                .fold(0.0, f64::max);
            r = new_r;
            if gap < tol {
                break;
            }
        }
        (kernel, r, iterations)
    }

    /// The multiplicative iteration as plain serial loops over boxed rows,
    /// with fresh buffers every iteration: the bit-exact reference for
    /// every entry point. Returns the channel built from the marginal the
    /// last sweep used, and the iteration count.
    fn serial_reference(
        source: &[f64],
        distortion: &[Vec<f64>],
        beta: f64,
        tol: f64,
        max_iters: usize,
    ) -> (Vec<Vec<f64>>, usize) {
        let (nx, ny) = (source.len(), distortion[0].len());
        let gibbs: Vec<Vec<f64>> = distortion
            .iter()
            .map(|row| {
                let shift = row.iter().map(|&d| beta * d).fold(f64::INFINITY, f64::min);
                row.iter().map(|&d| (shift - beta * d).exp()).collect()
            })
            .collect();
        // Four lanes by index, then the tail in order.
        let lane_sum = |r: &[f64], a: &[f64]| {
            let full = ny - ny % 4;
            let mut lanes = [0.0f64; 4];
            for y in 0..full {
                lanes[y % 4] += r[y] * a[y];
            }
            let mut tail = 0.0;
            for y in full..ny {
                tail += r[y] * a[y];
            }
            (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
        };
        let log_space = |r: &[f64], x: usize| {
            let logits: Vec<f64> = (0..ny)
                .map(|y| {
                    if r[y] == 0.0 {
                        f64::NEG_INFINITY
                    } else {
                        r[y].ln() - beta * distortion[x][y]
                    }
                })
                .collect();
            let z = log_sum_exp(&logits);
            logits.iter().map(|&l| (l - z).exp()).collect::<Vec<f64>>()
        };
        let ok = |s: f64| s >= 1e-16 && s.is_finite();
        let mut r = vec![1.0 / ny as f64; ny];
        let mut used = r.clone();
        let mut iterations = 0;
        while iterations < max_iters {
            iterations += 1;
            let mut w = vec![0.0; nx];
            let mut fallback = Vec::new();
            for x in 0..nx {
                if source[x] != 0.0 {
                    let s = lane_sum(&r, &gibbs[x]);
                    if ok(s) {
                        w[x] = source[x] / s;
                    } else {
                        fallback.push(x);
                    }
                }
            }
            let mut next = vec![0.0; ny];
            for y in 0..ny {
                for x in 0..nx {
                    next[y] += w[x] * gibbs[x][y];
                }
                next[y] *= r[y];
            }
            for &x in &fallback {
                let q = log_space(&r, x);
                for y in 0..ny {
                    next[y] += source[x] * q[y];
                }
            }
            let gap = (0..ny).map(|y| (r[y] - next[y]).abs()).fold(0.0, f64::max);
            used = std::mem::replace(&mut r, next);
            if gap < tol {
                break;
            }
        }
        for ry in &mut used {
            if *ry < f64::MIN_POSITIVE {
                *ry = 0.0;
            }
        }
        let kernel = (0..nx)
            .map(|x| {
                let s = lane_sum(&used, &gibbs[x]);
                if ok(s) {
                    (0..ny).map(|y| used[y] * gibbs[x][y] / s).collect()
                } else {
                    log_space(&used, x)
                }
            })
            .collect();
        (kernel, iterations)
    }

    fn assert_kernel_bits(got: &RateDistortion, want: &[Vec<f64>], what: &str) {
        for (row, want_row) in got.channel.rows().zip(want) {
            for (&q, &wq) in row.iter().zip(want_row) {
                assert_eq!(q.to_bits(), wq.to_bits(), "kernel drifted: {what}");
            }
        }
    }

    /// Sources with and without zero-mass symbols, an asymmetric
    /// distortion that runs many iterations, and a 6-symbol ring whose
    /// row length is not a multiple of the four row-sum lanes.
    fn bit_identity_cases() -> Vec<(Vec<f64>, Vec<Vec<f64>>, f64)> {
        let mut cases = tiled_cases();
        cases.push((vec![0.2, 0.8], hamming(2), 5.0));
        let ring: Vec<Vec<f64>> = (0..6)
            .map(|x: usize| {
                (0..6)
                    .map(|y: usize| x.abs_diff(y).min(6 - x.abs_diff(y)) as f64)
                    .collect()
            })
            .collect();
        cases.push((vec![0.1, 0.3, 0.0, 0.25, 0.15, 0.2], ring, 1.3));
        cases
    }

    #[test]
    fn scratch_reuse_output_is_bit_identical_to_naive_reference() {
        // Every entry point must reproduce the serial, allocate-per-
        // iteration replica bit for bit: the default solver, the first
        // retry attempt, and the tiled solver.
        let policy = RetryPolicy {
            max_attempts: 2,
            base_iters: 50_000,
            growth: 2.0,
            damping: 0.5,
        };
        for (source, distortion, beta) in bit_identity_cases() {
            let (tol, max_iters) = (1e-13, 50_000);
            let (want_kernel, want_iters) =
                serial_reference(&source, &distortion, beta, tol, max_iters);
            let rd = blahut_arimoto(&source, &distortion, beta, tol, max_iters).unwrap();
            assert_eq!(rd.iterations, want_iters);
            assert_kernel_bits(&rd, &want_kernel, &format!("default at β={beta}"));
            let (retry, rep) =
                blahut_arimoto_with_retry(&source, &distortion, beta, tol, &policy).unwrap();
            assert_eq!(rep.attempts, 1);
            assert_eq!(retry.iterations, want_iters);
            assert_kernel_bits(&retry, &want_kernel, &format!("retry at β={beta}"));
        }
    }

    #[test]
    fn retry_scratch_reuse_matches_fresh_allocation_per_attempt() {
        // Restart attempts share one scratch; a stale buffer from a
        // failed attempt must not leak into the next attempt's output.
        let source = [0.2, 0.8];
        let distortion = hamming(2);
        let (beta, tol) = (5.0, 1e-13);
        let policy = RetryPolicy {
            max_attempts: 8,
            base_iters: 2,
            growth: 4.0,
            damping: 0.5,
        };
        let (rd, rep) =
            blahut_arimoto_with_retry(&source, &distortion, beta, tol, &policy).unwrap();
        assert!(rep.attempts > 1, "premise: restarts must actually happen");
        // Reference: replay the retry schedule with a brand-new solve per
        // attempt (fresh scratch each time) and compare bits.
        let ny = 2;
        let uniform = 1.0 / ny as f64;
        let opts = BaTileOptions::default();
        let mut r = vec![uniform; ny];
        for attempt in 0.. {
            let budget = policy.budget_for(attempt);
            let mut scratch = BaScratch::new(&distortion, beta, ny, &opts);
            let state = ba_loop(
                &source,
                &distortion,
                beta,
                tol,
                budget,
                r,
                &mut scratch,
                &NoopRecorder,
                &mut BaTileStats::default(),
            );
            if state.converged {
                let fresh =
                    ba_finalize(&source, &distortion, beta, &mut scratch, state.gap, 0).unwrap();
                let fresh_rows: Vec<Vec<f64>> = fresh.channel.rows().map(<[f64]>::to_vec).collect();
                assert_kernel_bits(&rd, &fresh_rows, "fresh scratch per attempt");
                assert_eq!(rep.attempts, attempt + 1);
                break;
            }
            r = state
                .r
                .iter()
                .map(|&ri| (1.0 - policy.damping) * ri + policy.damping * uniform)
                .collect();
        }
    }

    #[test]
    fn blahut_arimoto_is_thread_count_invariant() {
        // The parallel row updates and column-accumulated marginal must
        // reproduce the same bits at every worker count.
        let source = [0.3, 0.45, 0.25];
        let distortion = vec![
            vec![0.0, 0.6, 1.0],
            vec![0.5, 0.0, 0.4],
            vec![1.0, 0.7, 0.0],
        ];
        let run = || {
            let rd = blahut_arimoto(&source, &distortion, 3.0, 1e-13, 50_000).unwrap();
            let kernel_bits: Vec<Vec<u64>> = rd
                .channel
                .rows()
                .map(|row| row.iter().map(|v| v.to_bits()).collect())
                .collect();
            (kernel_bits, rd.rate.to_bits(), rd.iterations)
        };
        dplearn_parallel::set_thread_count(1);
        let one = run();
        dplearn_parallel::set_thread_count(4);
        let four = run();
        dplearn_parallel::set_thread_count(0);
        assert_eq!(one, four);
    }

    #[test]
    fn retry_recovers_from_injected_non_convergence() {
        // An iteration budget far too small for the tolerance: the bare
        // solver errors, the retried solver escalates geometrically and
        // converges.
        let source = [0.2, 0.8];
        let distortion = hamming(2);
        let (beta, tol) = (5.0, 1e-13);
        assert!(matches!(
            blahut_arimoto(&source, &distortion, beta, tol, 2),
            Err(InfoError::DidNotConverge { .. })
        ));
        let policy = RetryPolicy {
            max_attempts: 8,
            base_iters: 2,
            growth: 4.0,
            damping: 0.5,
        };
        let (rd, report) = blahut_arimoto_with_retry(&source, &distortion, beta, tol, &policy)
            .expect("retry should recover");
        assert!(report.converged && !report.degraded);
        assert!(report.attempts > 1, "should have needed a restart");
        assert!(report.total_iterations > 2);
        assert!(rd.final_gap < tol);
        // The retried answer matches a single generous run.
        let direct = blahut_arimoto(&source, &distortion, beta, tol, 100_000).unwrap();
        close(rd.rate, direct.rate, 1e-9);
        close(rd.distortion, direct.distortion, 1e-9);
    }

    #[test]
    fn retry_is_deterministic_and_first_try_counts_once() {
        let source = [0.3, 0.45, 0.25];
        let distortion = hamming(3);
        let policy = RetryPolicy {
            max_attempts: 3,
            base_iters: 50_000,
            growth: 2.0,
            damping: 0.5,
        };
        let run = || {
            let (rd, rep) =
                blahut_arimoto_with_retry(&source, &distortion, 2.0, 1e-12, &policy).unwrap();
            (rd.rate.to_bits(), rep.attempts, rep.total_iterations)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.1, 1, "generous budget converges on attempt 1");
    }

    #[test]
    fn retry_exhaustion_reports_total_iterations() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_iters: 1,
            growth: 1.0,
            damping: 0.0,
        };
        match blahut_arimoto_with_retry(&[0.2, 0.8], &hamming(2), 5.0, 1e-15, &policy) {
            Err(InfoError::DidNotConverge { iterations }) => assert_eq!(iterations, 3),
            other => panic!("expected DidNotConverge, got {other:?}"),
        }
        // An invalid policy is a typed error, not a panic.
        let bad = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        assert!(matches!(
            blahut_arimoto_with_retry(&[0.5, 0.5], &hamming(2), 1.0, 1e-9, &bad),
            Err(InfoError::InvalidParameter { name: "policy", .. })
        ));
    }

    #[test]
    fn recorded_retry_matches_plain_and_traces_the_gap() {
        use dplearn_telemetry::MemoryRecorder;
        let source = [0.2, 0.8];
        let distortion = hamming(2);
        let (beta, tol) = (5.0, 1e-13);
        let policy = RetryPolicy {
            max_attempts: 8,
            base_iters: 2,
            growth: 4.0,
            damping: 0.5,
        };
        let recorder = MemoryRecorder::new();
        let (plain, plain_rep) =
            blahut_arimoto_with_retry(&source, &distortion, beta, tol, &policy).unwrap();
        let (rd, rep) =
            blahut_arimoto_with_retry_recorded(&source, &distortion, beta, tol, &policy, &recorder)
                .unwrap();
        // Observing the run must not change it.
        assert_eq!(rd.rate.to_bits(), plain.rate.to_bits());
        assert_eq!(rep, plain_rep);
        assert!(
            rep.attempts > 1,
            "premise: small base budget forces restarts"
        );

        let snap = recorder.snapshot().unwrap();
        let counter = |key: &str| {
            snap.counters
                .iter()
                .find(|(k, _)| k == key)
                .map(|&(_, v)| v)
        };
        assert_eq!(counter("infotheory.ba.runs"), Some(1));
        assert_eq!(
            counter("infotheory.ba.restarts"),
            Some(rep.attempts as u64 - 1)
        );
        assert_eq!(
            counter("infotheory.ba.iterations"),
            Some(rep.total_iterations as u64)
        );
        // One gap observation per outer iteration across all attempts.
        let gap = snap
            .histograms
            .iter()
            .find(|(k, _)| k == "infotheory.ba.gap")
            .map(|(_, h)| h)
            .unwrap();
        assert_eq!(
            gap.total + gap.non_finite,
            rep.total_iterations as u64,
            "one gap point per iteration"
        );
        // Non-convergence is itself observable.
        let starved = RetryPolicy {
            max_attempts: 2,
            base_iters: 1,
            growth: 1.0,
            damping: 0.0,
        };
        let rec2 = MemoryRecorder::new();
        assert!(blahut_arimoto_with_retry_recorded(
            &source,
            &distortion,
            beta,
            1e-15,
            &starved,
            &rec2
        )
        .is_err());
        let snap2 = rec2.snapshot().unwrap();
        assert!(snap2
            .counters
            .iter()
            .any(|(k, v)| k == "infotheory.ba.nonconverged" && *v == 1));
    }

    /// Cases with and without zero-mass source symbols, including the
    /// asymmetric distortion that runs many iterations.
    fn tiled_cases() -> Vec<(Vec<f64>, Vec<Vec<f64>>, f64)> {
        vec![
            (vec![0.3, 0.45, 0.25], hamming(3), 2.5),
            (vec![0.3, 0.0, 0.45, 0.25], hamming(4), 2.5),
            (vec![0.0, 0.2, 0.8, 0.0], hamming(4), 5.0),
            (
                vec![0.3, 0.45, 0.25],
                vec![
                    vec![0.0, 0.6, 1.0],
                    vec![0.5, 0.0, 0.4],
                    vec![1.0, 0.7, 0.0],
                ],
                3.0,
            ),
            (vec![0.35, 0.65], hamming(2), 1.5),
        ]
    }

    #[test]
    fn tiled_defaults_are_bit_identical_to_the_default_path() {
        for (source, distortion, beta) in tiled_cases() {
            let (tol, max_iters) = (1e-13, 50_000);
            let want = blahut_arimoto(&source, &distortion, beta, tol, max_iters).unwrap();
            let got = blahut_arimoto_tiled(
                &source,
                &distortion,
                beta,
                tol,
                max_iters,
                &BaTileOptions::default(),
            )
            .unwrap();
            assert_eq!(got.iterations, want.iterations);
            assert_eq!(got.rate.to_bits(), want.rate.to_bits());
            assert_eq!(got.distortion.to_bits(), want.distortion.to_bits());
            for (row, want_row) in got.channel.rows().zip(want.channel.rows()) {
                for (&q, &wq) in row.iter().zip(want_row) {
                    assert_eq!(q.to_bits(), wq.to_bits(), "kernel drifted at β={beta}");
                }
            }
        }
    }

    #[test]
    fn tiled_is_bit_identical_across_tile_sizes() {
        for (source, distortion, beta) in bit_identity_cases() {
            let (want_kernel, want_iters) =
                serial_reference(&source, &distortion, beta, 1e-13, 50_000);
            let want = blahut_arimoto(&source, &distortion, beta, 1e-13, 50_000).unwrap();
            // `1 << 63` rows of 2 or 4 cells wrap an unclamped chunk size
            // to 0; `usize::MAX` overflows any product.
            for threads in [1usize, 2, 8] {
                dplearn_parallel::set_thread_count(threads);
                for tile in [1usize, 7, 64, 4096, 1 << 63, usize::MAX] {
                    let opts = BaTileOptions {
                        row_tile: tile,
                        col_tile: tile,
                    };
                    let got =
                        blahut_arimoto_tiled(&source, &distortion, beta, 1e-13, 50_000, &opts)
                            .unwrap();
                    assert_eq!(got.iterations, want_iters, "tile={tile}");
                    assert_eq!(got.rate.to_bits(), want.rate.to_bits(), "tile={tile}");
                    assert_eq!(
                        got.rate_lower_bound.to_bits(),
                        want.rate_lower_bound.to_bits(),
                        "tile={tile}"
                    );
                    assert_kernel_bits(&got, &want_kernel, &format!("tile={tile} t={threads}"));
                }
            }
            dplearn_parallel::set_thread_count(0);
        }
    }

    #[test]
    fn frozen_early_exit_matches_naive_fixed_iteration_runs() {
        // tol = 0 forces the fixed-iteration pattern the benches use:
        // the serial replica recomputes the (bitwise stationary) fixed
        // point every iteration, the tiled loop freezes — same kernel
        // bits, same iteration count.
        let source = vec![0.2, 0.8];
        let distortion = hamming(2);
        let beta = 2.0;
        let max_iters = 2_000;
        let (want_kernel, want_iters) =
            serial_reference(&source, &distortion, beta, 0.0, max_iters);
        assert_eq!(want_iters, max_iters);
        use dplearn_telemetry::MemoryRecorder;
        let recorder = MemoryRecorder::new();
        let got = blahut_arimoto_tiled_recorded(
            &source,
            &distortion,
            beta,
            0.0,
            max_iters,
            &BaTileOptions::default(),
            &recorder,
        );
        // tol = 0 never satisfies `gap < tol`: both paths report
        // non-convergence after exactly max_iters.
        assert!(matches!(
            got,
            Err(InfoError::DidNotConverge {
                iterations
            }) if iterations == max_iters
        ));
        let snap = recorder.snapshot().unwrap();
        let counter = |key: &str| {
            snap.counters
                .iter()
                .find(|(k, _)| k == key)
                .map(|&(_, v)| v)
        };
        // The iterate must actually have frozen (the fixed point is
        // reached bitwise long before 2000 iterations)...
        let skipped = counter("infotheory.ba.rows_converged").unwrap();
        assert!(skipped > 0, "premise: the marginal must go stationary");
        // ...and every frozen iteration skipped all rows.
        assert_eq!(skipped % source.len() as u64, 0);
        assert!(counter("infotheory.ba.tiles").unwrap() > 0);
        // One gap observation per iteration, frozen or not.
        let gap = snap
            .histograms
            .iter()
            .find(|(k, _)| k == "infotheory.ba.gap")
            .map(|(_, h)| h)
            .unwrap();
        assert_eq!(gap.total + gap.non_finite, max_iters as u64);
        // A converged run at the same β pins the frozen kernel against
        // the replica's fixed-iteration kernel: rerun without the error.
        let frozen_rd = blahut_arimoto_tiled(
            &source,
            &distortion,
            beta,
            1e-30,
            max_iters,
            &BaTileOptions::default(),
        );
        // 1e-30 > 0, so the first exactly-zero gap converges the run —
        // while the replica at tol=0 runs all 2000 iterations to land on
        // the same bits.
        let frozen_rd = frozen_rd.expect("an exactly-stationary marginal satisfies any tol > 0");
        assert_kernel_bits(&frozen_rd, &want_kernel, "frozen vs fixed-iteration");
    }

    #[test]
    fn tiled_telemetry_counts_tiles_and_is_thread_invariant() {
        use dplearn_telemetry::MemoryRecorder;
        let (source, distortion, beta) = (&tiled_cases()[1].0, hamming(4), 2.5);
        let opts = BaTileOptions {
            row_tile: 1,
            col_tile: 1,
        };
        let run = |threads| {
            dplearn_parallel::set_thread_count(threads);
            let recorder = MemoryRecorder::new();
            let rd = blahut_arimoto_tiled_recorded(
                source,
                &distortion,
                beta,
                1e-13,
                50_000,
                &opts,
                &recorder,
            )
            .unwrap();
            dplearn_parallel::set_thread_count(0);
            let snap = recorder.snapshot().unwrap();
            let tiles = snap
                .counters
                .iter()
                .find(|(k, _)| k == "infotheory.ba.tiles")
                .map(|&(_, v)| v)
                .unwrap();
            (rd.rate.to_bits(), rd.iterations, tiles)
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one, four);
        // 1-row and 1-column tiles: (nx + ny) tiles per iteration.
        assert_eq!(one.2, (4 + 4) * one.1 as u64);
    }

    /// The benchmark's rate–distortion problem: source ∝ 1 + (x mod 3),
    /// distortion |x − y|/n.
    fn abs_distance_problem(n: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
        let raw: Vec<f64> = (0..n).map(|x| 1.0 + (x % 3) as f64).collect();
        let z: f64 = raw.iter().sum();
        let source = raw.iter().map(|&w| w / z).collect();
        let distortion = (0..n)
            .map(|x| (0..n).map(|y| x.abs_diff(y) as f64 / n as f64).collect())
            .collect();
        (source, distortion)
    }

    /// The log-space oracle's iteration count, rate within 1e-12
    /// relative, every cell ≥ 1e-290 within 1e-12 relative, and rows
    /// that sum to 1 within 1e-12.
    fn assert_matches_oracle(
        rd: &RateDistortion,
        source: &[f64],
        distortion: &[Vec<f64>],
        beta: f64,
        tol: f64,
        max_iters: usize,
    ) {
        let (want_kernel, _, want_iters) =
            naive_ba_reference(source, distortion, beta, tol, max_iters);
        assert_eq!(rd.iterations, want_iters, "iterations at β={beta}");
        let want = DiscreteChannel::from_rows(source.to_vec(), want_kernel).unwrap();
        let want_rate = want.mutual_information();
        assert!(
            rel_err(rd.rate, want_rate) <= 1e-12,
            "rate {} vs oracle {want_rate} at β={beta}",
            rd.rate
        );
        for (row, want_row) in rd.channel.rows().zip(want.rows()) {
            close(kahan_sum(row.iter().copied()), 1.0, 1e-12);
            for (&q, &wq) in row.iter().zip(want_row) {
                assert!(!q.is_nan());
                if q >= 1e-290 || wq >= 1e-290 {
                    assert!(
                        rel_err(q, wq) <= 1e-12,
                        "cell {q} vs oracle {wq} at β={beta}"
                    );
                }
            }
        }
        assert!(
            rd.rate_lower_bound <= rd.rate,
            "bracket inverted at β={beta}"
        );
    }

    #[test]
    fn multiplicative_kernel_agrees_with_the_log_space_oracle() {
        for (source, distortion, beta) in tiled_cases() {
            let rd = blahut_arimoto(&source, &distortion, beta, 1e-13, 50_000).unwrap();
            assert_matches_oracle(&rd, &source, &distortion, beta, 1e-13, 50_000);
        }
        // The benchmark's 384-symbol problem at its tolerance, from the
        // smooth regime into the one where most cells underflow.
        let (source, distortion) = abs_distance_problem(384);
        for (beta, iterations) in [(16.0, 241), (200.0, 103), (2000.0, 3), (20000.0, 2)] {
            let rd = blahut_arimoto(&source, &distortion, beta, 1e-5, 2_000).unwrap();
            assert_eq!(rd.iterations, iterations, "β={beta}");
            assert_matches_oracle(&rd, &source, &distortion, beta, 1e-5, 2_000);
        }
    }

    #[test]
    fn rate_is_the_mi_kernel_value_and_near_the_old_boxed_fold() {
        // The benchmark's 384-symbol problem at β 16. The rate comes from
        // the channel's MI kernel, bit for bit; the fold it replaced (one
        // `xlogx_over_y` per cell into one accumulator, over boxed rows)
        // agrees to rounding.
        let (source, distortion) = abs_distance_problem(384);
        let rd = blahut_arimoto(&source, &distortion, 16.0, 1e-5, 2_000).unwrap();
        assert_eq!(rd.iterations, 241);
        for tile in [1, 7, 64, 4096] {
            let kernel = rd.channel.mutual_information_blocked(tile).unwrap();
            assert_eq!(rd.rate.to_bits(), kernel.to_bits(), "tile={tile}");
        }
        assert_eq!(
            rd.rate.to_bits(),
            rd.channel.mutual_information_naive().to_bits()
        );
        let rows: Vec<Vec<f64>> = rd.channel.rows().map(<[f64]>::to_vec).collect();
        let mut marginal = vec![0.0; rows[0].len()];
        for (&px, row) in source.iter().zip(&rows) {
            for (o, &q) in marginal.iter_mut().zip(row) {
                *o += px * q;
            }
        }
        let mut boxed = 0.0;
        for (&px, row) in source.iter().zip(&rows) {
            if px != 0.0 {
                for (&q, &py) in row.iter().zip(&marginal) {
                    boxed += px * xlogx_over_y(q, py);
                }
            }
        }
        let boxed = boxed.max(0.0);
        assert!(
            rel_err(rd.rate, boxed) <= 1e-12,
            "rate {} vs boxed fold {boxed}",
            rd.rate
        );
    }

    #[test]
    fn subnormal_marginal_keeps_the_rate_finite() {
        // Most of this marginal ends subnormal. Without the flush the
        // cells of those columns underflow out of the channel's output
        // marginal and the rate is +∞. The log-space oracle needs 134,197
        // iterations and returned this rate.
        let (source, distortion) = abs_distance_problem(16);
        let (beta, tol, max_iters) = (2.0, 1e-12, 200_000);
        let oracle_rate = 4.391_796_809_952_611e-3;
        let opts = BaTileOptions::default();
        let mut scratch = BaScratch::new(&distortion, beta, 16, &opts);
        let state = ba_loop(
            &source,
            &distortion,
            beta,
            tol,
            max_iters,
            vec![1.0 / 16.0; 16],
            &mut scratch,
            &NoopRecorder,
            &mut BaTileStats::default(),
        );
        assert!(state.converged);
        let subnormal = scratch
            .prev_r
            .iter()
            .filter(|&&ry| ry > 0.0 && ry < f64::MIN_POSITIVE)
            .count();
        assert!(
            subnormal > 0,
            "premise: some marginal entries are subnormal"
        );
        let rd = blahut_arimoto(&source, &distortion, beta, tol, max_iters).unwrap();
        assert!(rd.rate.is_finite());
        assert!(
            rel_err(rd.rate, oracle_rate) <= 1e-12,
            "rate {} vs oracle {oracle_rate}",
            rd.rate
        );
        assert!(rd.rate_lower_bound > 0.0 && rd.rate_lower_bound <= rd.rate);
    }

    #[test]
    fn rows_with_a_vanishing_row_sum_take_the_log_space_update() {
        // Input 2 carries mass 1e-300, and its nearest output is used by
        // no other input, so r(2) collapses while A(2, 2) = 1 and the rest
        // of row 2 of A is far below 1e-16: s₂ < 1e-16. At β = 1000 the
        // rest of that row underflows to 0, yet q(1|2) ≈ e⁻³¹⁰ — a cell
        // only the log-space update gets right.
        let source = vec![0.5, 0.5, 1e-300];
        let distortion: Vec<Vec<f64>> = (0..3)
            .map(|x: usize| (0..3).map(|y: usize| x.abs_diff(y) as f64).collect())
            .collect();
        let (tol, max_iters) = (1e-13, 10_000);
        for beta in [50.0, 1000.0] {
            let opts = BaTileOptions::default();
            let mut scratch = BaScratch::new(&distortion, beta, 3, &opts);
            let state = ba_loop(
                &source,
                &distortion,
                beta,
                tol,
                max_iters,
                vec![1.0 / 3.0; 3],
                &mut scratch,
                &NoopRecorder,
                &mut BaTileStats::default(),
            );
            assert!(state.converged);
            assert_eq!(
                scratch.fallback,
                vec![2],
                "premise: row 2 takes the fallback"
            );
            let rd = blahut_arimoto(&source, &distortion, beta, tol, max_iters).unwrap();
            assert!(!rd.rate.is_nan() && !rd.distortion.is_nan());
            assert!(!rd.rate_lower_bound.is_nan());
            assert_matches_oracle(&rd, &source, &distortion, beta, tol, max_iters);
            let (want_kernel, _) = serial_reference(&source, &distortion, beta, tol, max_iters);
            assert_kernel_bits(&rd, &want_kernel, &format!("fallback row at β={beta}"));
        }
    }

    #[test]
    fn rate_lower_bound_brackets_the_rate() {
        for (source, distortion, beta) in bit_identity_cases() {
            let rd = blahut_arimoto(&source, &distortion, beta, 1e-13, 50_000).unwrap();
            assert!(rd.rate_lower_bound >= 0.0);
            assert!(rd.rate_lower_bound <= rd.rate, "β={beta}");
        }
        // Uniform binary source, Hamming distortion: R(D) = ln 2 − H(D)
        // at the returned D. At this source the bracket is exact in real
        // arithmetic, so it may be a few ulps narrower than the rounding
        // of the closed form.
        for beta in [0.5f64, 2.0, 5.0] {
            let rd = blahut_arimoto(&[0.5, 0.5], &hamming(2), beta, 1e-13, 20_000).unwrap();
            let closed =
                std::f64::consts::LN_2 - dplearn_numerics::special::binary_entropy(rd.distortion);
            let slack = 8.0 * f64::EPSILON;
            assert!(
                rd.rate_lower_bound <= closed + slack && closed <= rd.rate + slack,
                "R(D) = {closed} outside [{}, {}] at β={beta}",
                rd.rate_lower_bound,
                rd.rate
            );
        }
        // The bracket narrows as the tolerance tightens.
        let (source, distortion) = abs_distance_problem(24);
        let widths: Vec<f64> = [1e-3, 1e-6, 1e-9]
            .iter()
            .map(|&tol| {
                let rd = blahut_arimoto(&source, &distortion, 4.0, tol, 200_000).unwrap();
                rd.rate - rd.rate_lower_bound
            })
            .collect();
        assert!(
            widths[0] > widths[1] && widths[1] > widths[2] && widths[2] >= 0.0,
            "{widths:?}"
        );
    }

    #[test]
    fn validates_inputs() {
        assert!(blahut_arimoto(&[0.5, 0.6], &hamming(2), 1.0, 1e-9, 100).is_err());
        assert!(blahut_arimoto(&[0.5, 0.5], &hamming(3), 1.0, 1e-9, 100).is_err());
        assert!(blahut_arimoto(&[0.5, 0.5], &hamming(2), -1.0, 1e-9, 100).is_err());
        assert!(blahut_arimoto(&[1.0], &[vec![]], 1.0, 1e-9, 100).is_err());
        // Non-convergence in 1 iteration (asymmetric source so the
        // uniform starting marginal is not already the fixed point).
        assert!(matches!(
            blahut_arimoto(&[0.2, 0.8], &hamming(2), 5.0, 1e-15, 1),
            Err(InfoError::DidNotConverge { .. })
        ));
    }
}
