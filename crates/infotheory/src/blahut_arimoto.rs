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

use crate::channel::DiscreteChannel;
use crate::{validate_distribution, InfoError, Result};
use dplearn_numerics::special::{kahan_sum, log_sum_exp, xlogx_over_y};
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

/// State left by one [`ba_iterate`] run — kept even on non-convergence so
/// a retry can damp the marginal and resume rather than start cold. The
/// channel kernel itself lives in the [`BaScratch`] the run iterated in.
struct BaState {
    r: Vec<f64>,
    gap: f64,
    iterations: usize,
    converged: bool,
}

/// Preallocated working storage for [`ba_iterate`], built once per solve
/// and reused across every iteration **and every retry attempt**: the
/// channel kernel, the precomputed `β·d(x,y)` matrix (the distortion
/// logs' data-independent half), the per-iteration `ln r(y)` cache, and
/// the next-marginal accumulator.
///
/// The kernel and `β·d` matrices are **flat row-major** `nx·ny` buffers
/// (row `x` occupies `[x·ny, (x+1)·ny)`): one contiguous allocation each
/// instead of `nx` boxed rows, so the per-row logit sweep and the
/// column-sliced marginal accumulation walk cache lines without pointer
/// chasing and autovectorize. Flattening changes the *layout* only —
/// every row slice sees the same values in the same order, so arithmetic
/// order (and therefore every iterate) is unchanged bit for bit.
///
/// Caching `β·d` and `ln r` replaces the `nx·ny` logarithms the naive
/// per-cell `ln r(y) − β·d(x,y)` evaluation pays per iteration with `ny`
/// logarithms; every cached value is the identical subexpression the
/// naive evaluation computes, so the iterates are bit-identical (pinned
/// by `scratch_reuse_output_is_bit_identical_to_naive_reference`).
struct BaScratch {
    /// Output-alphabet size: the row stride of `kernel` and `beta_d`.
    ny: usize,
    /// `q(y|x)` as a flat row-major `nx·ny` matrix.
    kernel: Vec<f64>,
    /// `β·d(x,y)` as a flat row-major `nx·ny` matrix.
    beta_d: Vec<f64>,
    ln_r: Vec<f64>,
    new_r: Vec<f64>,
}

impl BaScratch {
    fn new(distortion: &[Vec<f64>], beta: f64, ny: usize) -> Self {
        let nx = distortion.len();
        let mut beta_d = Vec::with_capacity(nx * ny);
        for row in distortion {
            beta_d.extend(row.iter().map(|&d| beta * d));
        }
        BaScratch {
            ny,
            kernel: vec![0.0; nx * ny],
            beta_d,
            ln_r: vec![0.0; ny],
            new_r: vec![0.0; ny],
        }
    }
}

/// Rebuild per-row `Vec`s from a flat row-major kernel — the boundary
/// back to [`DiscreteChannel`], which owns its rows.
fn rows_from_flat(flat: Vec<f64>, ny: usize) -> Vec<Vec<f64>> {
    flat.chunks(ny).map(<[f64]>::to_vec).collect()
}

/// Approximate cost in [`dplearn_parallel::par_threshold`] units
/// (≈ nanoseconds) of one kernel cell in the row update: a subtraction,
/// its share of a `log_sum_exp`, and an `exp`.
const ROW_CELL_COST: u64 = 16;

/// The alternating-minimization loop from marginal `r`, for up to
/// `max_iters` iterations or until the marginal moves < `tol` in ℓ∞.
///
/// `lse` is the row normalizer: [`log_sum_exp`] on the default
/// bit-identical path, `log_sum_exp_fast` on the opt-in reordered-sum
/// path (see [`blahut_arimoto_fast`]).
// The chunked updates index rows/columns with offsets handed out by the
// parallel scheduler, all bounded by the validated kernel dimensions.
#[allow(clippy::indexing_slicing)]
fn ba_iterate(
    source: &[f64],
    tol: f64,
    max_iters: usize,
    mut r: Vec<f64>,
    scratch: &mut BaScratch,
    recorder: &dyn Recorder,
    lse: fn(&[f64]) -> f64,
) -> BaState {
    let BaScratch {
        ny,
        kernel,
        beta_d,
        ln_r,
        new_r,
    } = scratch;
    let ny = *ny;
    let nx = source.len();
    let beta_d = &*beta_d;
    let mut gap = f64::INFINITY;
    let mut iterations = 0;
    // Hoisted so the noop path pays one virtual call per run, not one
    // per iteration.
    let observe = recorder.enabled();
    // Fixed chunk sizes (independent of the worker count — part of the
    // determinism contract; see dplearn-parallel). Row updates are
    // per-row independent, and the marginal is accumulated per *column*
    // in source order, so both stages are bit-identical to the serial
    // loops at every thread count. Row chunks are sized in *cells* but
    // always a whole number of rows, so chunk boundaries never split a
    // row.
    let row_chunk_cells = source.len().div_ceil(64).max(1) * ny;
    let col_chunk = new_r.len().div_ceil(64).max(1);
    // Per-column cost of the marginal update: one fused multiply-add per
    // source letter.
    let col_cost = (2 * nx) as u64;
    while iterations < max_iters {
        iterations += 1;
        // The data-dependent half of the logits, once per iteration
        // instead of once per cell: ln r(y), with zero-mass letters
        // pinned to −∞ exactly as the per-cell branch did.
        for (l, &ry) in ln_r.iter_mut().zip(&r) {
            *l = if ry == 0.0 {
                f64::NEG_INFINITY
            } else {
                ry.ln()
            };
        }
        // Update channel rows: q(y|x) ∝ r(y) exp(−β d(x,y)) — the Gibbs
        // kernel with prior r. Rows are independent Gibbs updates, so
        // they parallelize freely. The logits are written into the
        // kernel row itself and exponentiated in place: no per-row
        // allocation, and both matrices are one contiguous sweep.
        {
            let ln_r = &*ln_r;
            dplearn_parallel::par_for_each_chunk_mut_with_cost(
                kernel,
                row_chunk_cells,
                ROW_CELL_COST,
                |_chunk, start, cells| {
                    for (offset_row, row_q) in cells.chunks_mut(ny).enumerate() {
                        let row0 = start + offset_row * ny;
                        let row_bd = &beta_d[row0..row0 + ny];
                        for ((q, &l), &bd) in row_q.iter_mut().zip(ln_r).zip(row_bd) {
                            *q = l - bd;
                        }
                        let z = lse(row_q);
                        for q in row_q.iter_mut() {
                            *q = (*q - z).exp();
                        }
                    }
                },
            );
        }
        // Update output marginal r(y) = Σ_x p(x) q(y|x), parallel over
        // output columns: each column sums its x-contributions in source
        // order, reproducing the serial accumulation exactly.
        new_r.fill(0.0);
        {
            let kernel = &*kernel;
            dplearn_parallel::par_for_each_chunk_mut_with_cost(
                new_r,
                col_chunk,
                col_cost,
                |_chunk, start, cols| {
                    let width = cols.len();
                    for (x, &px) in source.iter().enumerate() {
                        let row0 = x * ny + start;
                        for (nr, &q) in cols.iter_mut().zip(&kernel[row0..row0 + width]) {
                            *nr += px * q;
                        }
                    }
                },
            );
        }
        gap = r
            .iter()
            .zip(&*new_r)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max);
        std::mem::swap(&mut r, new_r);
        // Recorded from the sequential outer loop: the gap sequence is
        // a pure function of (source, distortion, beta, r₀), so the
        // histogram is bit-identical at every thread count.
        if observe {
            recorder.histogram_record("infotheory.ba.gap", "", gap);
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

/// Package a converged state as a [`RateDistortion`], taking ownership of
/// the flat row-major kernel the run left in its scratch space.
fn ba_finalize(
    source: &[f64],
    distortion: &[Vec<f64>],
    kernel: Vec<f64>,
    ny: usize,
    state: BaState,
    total_iterations: usize,
) -> Result<RateDistortion> {
    let channel = DiscreteChannel::new(source.to_vec(), rows_from_flat(kernel, ny))?;
    let rate = channel.mutual_information();
    let mut dist = 0.0;
    for ((&px, row_q), row_d) in source.iter().zip(channel.kernel()).zip(distortion) {
        for (&q, &d) in row_q.iter().zip(row_d) {
            dist += px * q * d;
        }
    }
    Ok(RateDistortion {
        channel,
        rate,
        distortion: dist,
        iterations: total_iterations,
        final_gap: state.gap,
    })
}

/// Run Blahut–Arimoto at Lagrange multiplier `beta ≥ 0` on a source
/// `p(x)` and distortion matrix `d[x][y]`.
///
/// Converges when the output marginal moves less than `tol` in ℓ∞, or
/// errors after `max_iters`. For a self-healing variant that escalates
/// its iteration budget instead of erroring, see
/// [`blahut_arimoto_with_retry`].
pub fn blahut_arimoto(
    source: &[f64],
    distortion: &[Vec<f64>],
    beta: f64,
    tol: f64,
    max_iters: usize,
) -> Result<RateDistortion> {
    ba_run(source, distortion, beta, tol, max_iters, log_sum_exp)
}

/// [`blahut_arimoto`] on the **reordered-sum fast path**: row normalizers
/// use `log_sum_exp_fast` (four-lane uncompensated exp-sum) instead of
/// the serial Kahan [`log_sum_exp`].
///
/// Per the workspace pinning contract this path is *not* bit-identical
/// to [`blahut_arimoto`] — the per-row sums associate differently, so
/// iterates drift by ulps — but it converges to the same fixed point:
/// the `fast_path_reaches_the_same_fixed_point` test pins closeness of
/// rate/distortion and a tiny [`gibbs_fixed_point_gap`], and the
/// `kernel_fastpaths` suite pins distribution-equivalence. It *is*
/// thread-count invariant: the lane reassociation is fixed per row, not
/// scheduling-dependent.
pub fn blahut_arimoto_fast(
    source: &[f64],
    distortion: &[Vec<f64>],
    beta: f64,
    tol: f64,
    max_iters: usize,
) -> Result<RateDistortion> {
    ba_run(
        source,
        distortion,
        beta,
        tol,
        max_iters,
        dplearn_numerics::special::log_sum_exp_fast,
    )
}

fn ba_run(
    source: &[f64],
    distortion: &[Vec<f64>],
    beta: f64,
    tol: f64,
    max_iters: usize,
    lse: fn(&[f64]) -> f64,
) -> Result<RateDistortion> {
    let ny = validate_ba(source, distortion, beta)?;
    // Start from the uniform output marginal.
    let r = vec![1.0 / ny as f64; ny];
    let mut scratch = BaScratch::new(distortion, beta, ny);
    let state = ba_iterate(source, tol, max_iters, r, &mut scratch, &NoopRecorder, lse);
    if !state.converged {
        return Err(InfoError::DidNotConverge {
            iterations: state.iterations,
        });
    }
    let total = state.iterations;
    ba_finalize(
        source,
        distortion,
        std::mem::take(&mut scratch.kernel),
        ny,
        state,
        total,
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
    // One scratch space (kernel, β·d matrix, marginal buffers) shared by
    // every retry attempt — restarts re-enter with warm allocations.
    let mut scratch = BaScratch::new(distortion, beta, ny);
    for attempt in 0..policy.max_attempts {
        let budget = policy.budget_for(attempt);
        let state = ba_iterate(source, tol, budget, r, &mut scratch, recorder, log_sum_exp);
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
                std::mem::take(&mut scratch.kernel),
                ny,
                state,
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

/// Tiling and acceleration options for [`blahut_arimoto_tiled`].
///
/// The defaults reproduce [`blahut_arimoto`] bit for bit: auto tile
/// sizing picks the same chunk geometry as the default path, and both
/// accelerators (zero-mass pruning, frozen early-exit) are *exact* —
/// they skip only work whose result is provably bit-identical to
/// recomputing it, so they are safe to leave on (pinned by
/// `tiled_defaults_are_bit_identical_to_the_default_path`).
#[derive(Debug, Clone)]
pub struct BaTileOptions {
    /// Source rows per parallel tile in the kernel sweep
    /// (`0` = auto: `nx/64`, the default path's geometry).
    pub row_tile: usize,
    /// Output columns per parallel tile in the marginal sweep
    /// (`0` = auto: `ny/64`).
    pub col_tile: usize,
    /// Skip zero-mass source rows in both sweeps. Their marginal
    /// contributions are exact `+0.0` terms (no-ops on the never-negative
    /// accumulators), and their kernel rows are reconstructed at
    /// finalization from the same `ln r` and normalizer the skipped
    /// sweep would have used — bit-identical either way.
    pub prune_zero_mass: bool,
    /// Once an iteration leaves the marginal bitwise unchanged
    /// (ℓ∞ gap exactly `0.0`), every subsequent row update and marginal
    /// are provably identical to the last computed ones, so the sweeps
    /// are skipped; iteration counting and gap telemetry continue
    /// exactly as if they had run. Only reachable when `tol ≤ 0`
    /// (a positive tolerance stops at the first zero gap anyway) — the
    /// fixed-iteration benchmarking pattern this crate's benches use.
    pub frozen_early_exit: bool,
}

impl Default for BaTileOptions {
    fn default() -> Self {
        BaTileOptions {
            row_tile: 0,
            col_tile: 0,
            prune_zero_mass: true,
            frozen_early_exit: true,
        }
    }
}

/// Work counters from one tiled run, recorded (sequentially, after the
/// loop) as `infotheory.ba.tiles` and `infotheory.ba.rows_converged`.
#[derive(Debug, Clone, Copy, Default)]
struct BaTileStats {
    tiles: u64,
    rows_converged: u64,
}

/// The tiled alternating-minimization loop: [`ba_iterate`] with
/// configurable tile geometry, zero-mass row pruning, and the frozen
/// early-exit. Kept separate so the default path's loop stays verbatim.
// Chunk offsets are handed out by the parallel scheduler and bounded by
// the validated kernel dimensions, like `ba_iterate`'s.
#[allow(clippy::indexing_slicing)]
#[allow(clippy::too_many_arguments)]
fn ba_iterate_tiled(
    source: &[f64],
    tol: f64,
    max_iters: usize,
    mut r: Vec<f64>,
    scratch: &mut BaScratch,
    recorder: &dyn Recorder,
    lse: fn(&[f64]) -> f64,
    opts: &BaTileOptions,
    stats: &mut BaTileStats,
) -> BaState {
    let BaScratch {
        ny,
        kernel,
        beta_d,
        ln_r,
        new_r,
    } = scratch;
    let ny = *ny;
    let nx = source.len();
    let beta_d = &*beta_d;
    let mut gap = f64::INFINITY;
    let mut iterations = 0;
    let observe = recorder.enabled();
    let prune = opts.prune_zero_mass;
    // Rows the sweeps actually visit (for the rows_converged counter).
    let active_rows = if prune {
        source.iter().filter(|&&px| px != 0.0).count()
    } else {
        nx
    } as u64;
    // Tile geometry: explicit sizes, or the default path's `n/64`
    // heuristic. Fixed per problem size — never a function of the
    // worker count — preserving the determinism contract. An explicit
    // tile is clamped to the dimension it splits (a larger one is still
    // one tile), so `row_tile_rows * ny` cannot overflow.
    let row_tile_rows = if opts.row_tile > 0 {
        opts.row_tile.min(nx)
    } else {
        nx.div_ceil(64).max(1)
    };
    let col_tile = if opts.col_tile > 0 {
        opts.col_tile.min(ny)
    } else {
        ny.div_ceil(64).max(1)
    };
    let row_chunk_cells = row_tile_rows * ny;
    let iter_tiles = (nx.div_ceil(row_tile_rows) + ny.div_ceil(col_tile)) as u64;
    let col_cost = (2 * nx) as u64;
    // Set once the marginal is bitwise stationary: `gap == 0.0` means
    // `r` and `new_r` agree bit for bit (every entry is a nonnegative
    // sum, so there is no −0.0/+0.0 ambiguity and no NaN), and the next
    // iteration is a pure function of `r` — recomputing it must
    // reproduce the kernel, the marginal, and a zero gap exactly.
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
        for (l, &ry) in ln_r.iter_mut().zip(&r) {
            *l = if ry == 0.0 {
                f64::NEG_INFINITY
            } else {
                ry.ln()
            };
        }
        {
            let ln_r = &*ln_r;
            dplearn_parallel::par_for_each_chunk_mut_with_cost(
                kernel,
                row_chunk_cells,
                ROW_CELL_COST,
                |_chunk, start, cells| {
                    for (offset_row, row_q) in cells.chunks_mut(ny).enumerate() {
                        let row0 = start + offset_row * ny;
                        // A pruned row's kernel cells are not read by the
                        // marginal sweep below and are rebuilt exactly at
                        // finalization, so its (stale) contents are dead.
                        if prune && source[row0 / ny] == 0.0 {
                            continue;
                        }
                        let row_bd = &beta_d[row0..row0 + ny];
                        for ((q, &l), &bd) in row_q.iter_mut().zip(ln_r).zip(row_bd) {
                            *q = l - bd;
                        }
                        let z = lse(row_q);
                        for q in row_q.iter_mut() {
                            *q = (*q - z).exp();
                        }
                    }
                },
            );
        }
        new_r.fill(0.0);
        {
            let kernel = &*kernel;
            dplearn_parallel::par_for_each_chunk_mut_with_cost(
                new_r,
                col_tile,
                col_cost,
                |_chunk, start, cols| {
                    let width = cols.len();
                    for (x, &px) in source.iter().enumerate() {
                        // p(x) = 0 terms are exact +0.0 no-ops on the
                        // nonnegative accumulators.
                        if prune && px == 0.0 {
                            continue;
                        }
                        let row0 = x * ny + start;
                        for (nr, &q) in cols.iter_mut().zip(&kernel[row0..row0 + width]) {
                            *nr += px * q;
                        }
                    }
                },
            );
        }
        gap = r
            .iter()
            .zip(&*new_r)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max);
        std::mem::swap(&mut r, new_r);
        if observe {
            recorder.histogram_record("infotheory.ba.gap", "", gap);
        }
        if opts.frozen_early_exit && gap == 0.0 {
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

/// Rebuild the kernel rows of pruned (zero-mass) source symbols from the
/// last computed `ln r` — the identical logits, normalizer, and
/// exponentiation the skipped row sweep would have produced, so the
/// finalized kernel is bit-identical to the unpruned run's.
// Row offsets are products of validated dimensions.
#[allow(clippy::indexing_slicing)]
fn ba_fill_pruned_rows(source: &[f64], scratch: &mut BaScratch, lse: fn(&[f64]) -> f64) {
    let BaScratch {
        ny,
        kernel,
        beta_d,
        ln_r,
        ..
    } = scratch;
    let ny = *ny;
    for (x, &px) in source.iter().enumerate() {
        if px != 0.0 {
            continue;
        }
        let row0 = x * ny;
        let row_q = &mut kernel[row0..row0 + ny];
        let row_bd = &beta_d[row0..row0 + ny];
        for ((q, &l), &bd) in row_q.iter_mut().zip(&*ln_r).zip(row_bd) {
            *q = l - bd;
        }
        let z = lse(row_q);
        for q in row_q.iter_mut() {
            *q = (*q - z).exp();
        }
    }
}

/// [`blahut_arimoto`] with explicit tile geometry and the exact
/// accelerators of [`BaTileOptions`] — the large-alphabet entry point.
///
/// Bit-identical to [`blahut_arimoto`] for **any** option values at
/// **any** `DPLEARN_THREADS` (the accelerators only skip provably
/// redundant work; tile boundaries never change an accumulation order) —
/// pinned across tile sizes {1, 7, 64, 4096} in `tests/determinism.rs`.
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
    let mut scratch = BaScratch::new(distortion, beta, ny);
    let mut stats = BaTileStats::default();
    let state = ba_iterate_tiled(
        source,
        tol,
        max_iters,
        r,
        &mut scratch,
        recorder,
        lse_of(opts),
        opts,
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
    if opts.prune_zero_mass {
        ba_fill_pruned_rows(source, &mut scratch, lse_of(opts));
    }
    let total = state.iterations;
    ba_finalize(
        source,
        distortion,
        std::mem::take(&mut scratch.kernel),
        ny,
        state,
        total,
    )
}

/// The tiled path always normalizes with the bit-identical
/// [`log_sum_exp`]; indirection kept so a future fast-path variant can
/// reuse the plumbing.
fn lse_of(_opts: &BaTileOptions) -> fn(&[f64]) -> f64 {
    log_sum_exp
}

/// ℓ∞ distance between a channel's rows and the Gibbs kernel built from a
/// given prior at inverse temperature `beta` — used by E6 to certify that
/// the rate–distortion optimizer *is* the Gibbs posterior family.
pub fn gibbs_fixed_point_gap(rd: &RateDistortion, distortion: &[Vec<f64>], beta: f64) -> f64 {
    let r = rd.channel.output_marginal();
    let mut worst = 0.0f64;
    for (row_q, row_d) in rd.channel.kernel().iter().zip(distortion) {
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
    let channel = DiscreteChannel::new(source.to_vec(), kernel.to_vec())?;
    let mut dist = 0.0;
    for ((&px, row_q), row_d) in source.iter().zip(kernel).zip(distortion) {
        for (&q, &d) in row_q.iter().zip(row_d) {
            dist += px * q * d;
        }
    }
    Ok(channel.mutual_information() + beta * dist)
}

/// Exact KL divergence between two channel rows — helper for tests.
pub fn row_kl(p: &[f64], q: &[f64]) -> f64 {
    kahan_sum(p.iter().zip(q).map(|(&a, &b)| xlogx_over_y(a, b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dplearn_numerics::rng::{Rng, Xoshiro256};

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
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
        let opt = lagrangian(&source, rd.channel.kernel(), &distortion, beta).unwrap();
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

    /// The pre-scratch-reuse iteration, verbatim: fresh allocations per
    /// iteration, per-cell `ln r(y) − β·d(x,y)` logits, serial loops.
    /// Regression reference for the allocation-churn fix.
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

    #[test]
    fn scratch_reuse_output_is_bit_identical_to_naive_reference() {
        // The reused-scratch solver must reproduce the naive
        // allocate-per-iteration iteration bit for bit, across symmetric
        // and asymmetric sources and a hard β that runs many iterations.
        let cases: Vec<(Vec<f64>, Vec<Vec<f64>>, f64)> = vec![
            (vec![0.3, 0.45, 0.25], hamming(3), 2.5),
            (vec![0.2, 0.8], hamming(2), 5.0),
            (
                vec![0.3, 0.45, 0.25],
                vec![
                    vec![0.0, 0.6, 1.0],
                    vec![0.5, 0.0, 0.4],
                    vec![1.0, 0.7, 0.0],
                ],
                3.0,
            ),
        ];
        for (source, distortion, beta) in cases {
            let (tol, max_iters) = (1e-13, 50_000);
            let rd = blahut_arimoto(&source, &distortion, beta, tol, max_iters).unwrap();
            let (want_kernel, _, want_iters) =
                naive_ba_reference(&source, &distortion, beta, tol, max_iters);
            assert_eq!(rd.iterations, want_iters);
            for (row, want_row) in rd.channel.kernel().iter().zip(&want_kernel) {
                for (&q, &wq) in row.iter().zip(want_row) {
                    assert_eq!(q.to_bits(), wq.to_bits(), "kernel drifted at β={beta}");
                }
            }
        }
    }

    #[test]
    fn retry_scratch_reuse_matches_fresh_allocation_per_attempt() {
        // Restart attempts share one scratch; a stale kernel from a
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
        let mut r = vec![uniform; ny];
        for attempt in 0.. {
            let budget = policy.budget_for(attempt);
            let mut scratch = BaScratch::new(&distortion, beta, ny);
            let state = ba_iterate(
                &source,
                tol,
                budget,
                r,
                &mut scratch,
                &NoopRecorder,
                log_sum_exp,
            );
            if state.converged {
                for (row, want_row) in rd.channel.kernel().iter().zip(scratch.kernel.chunks(ny)) {
                    for (&q, &wq) in row.iter().zip(want_row) {
                        assert_eq!(q.to_bits(), wq.to_bits());
                    }
                }
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
                .kernel()
                .iter()
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
    fn fast_path_reaches_the_same_fixed_point() {
        // The reordered-sum fast path is not bit-identical to the
        // default, but it must land on the same rate–distortion point
        // and satisfy the Gibbs fixed-point identity just as tightly.
        let source = [0.3, 0.45, 0.25];
        let distortion = vec![
            vec![0.0, 0.6, 1.0],
            vec![0.5, 0.0, 0.4],
            vec![1.0, 0.7, 0.0],
        ];
        let beta = 3.0;
        let slow = blahut_arimoto(&source, &distortion, beta, 1e-13, 50_000).unwrap();
        let fast = blahut_arimoto_fast(&source, &distortion, beta, 1e-13, 50_000).unwrap();
        close(fast.rate, slow.rate, 1e-9);
        close(fast.distortion, slow.distortion, 1e-9);
        let gap = gibbs_fixed_point_gap(&fast, &distortion, beta);
        assert!(gap < 1e-9, "fast-path Gibbs fixed-point gap {gap}");
        // And the fast path is still thread-count invariant.
        let bits = |threads| {
            dplearn_parallel::set_thread_count(threads);
            let rd = blahut_arimoto_fast(&source, &distortion, beta, 1e-13, 50_000).unwrap();
            dplearn_parallel::set_thread_count(0);
            rd.rate.to_bits()
        };
        assert_eq!(bits(1), bits(4));
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
            for (row, want_row) in got.channel.kernel().iter().zip(want.channel.kernel()) {
                for (&q, &wq) in row.iter().zip(want_row) {
                    assert_eq!(q.to_bits(), wq.to_bits(), "kernel drifted at β={beta}");
                }
            }
        }
    }

    #[test]
    fn tiled_is_bit_identical_across_tile_sizes() {
        for (source, distortion, beta) in tiled_cases() {
            let want = blahut_arimoto(&source, &distortion, beta, 1e-13, 50_000).unwrap();
            // `1 << 63` rows of 2 or 4 cells wrap an unclamped chunk size
            // to 0; `usize::MAX` overflows any product.
            for tile in [1usize, 7, 64, 4096, 1 << 63, usize::MAX] {
                let opts = BaTileOptions {
                    row_tile: tile,
                    col_tile: tile,
                    ..BaTileOptions::default()
                };
                let got =
                    blahut_arimoto_tiled(&source, &distortion, beta, 1e-13, 50_000, &opts).unwrap();
                assert_eq!(got.rate.to_bits(), want.rate.to_bits(), "tile={tile}");
                for (row, want_row) in got.channel.kernel().iter().zip(want.channel.kernel()) {
                    for (&q, &wq) in row.iter().zip(want_row) {
                        assert_eq!(q.to_bits(), wq.to_bits(), "kernel drifted at tile={tile}");
                    }
                }
            }
        }
    }

    #[test]
    fn frozen_early_exit_matches_naive_fixed_iteration_runs() {
        // tol = 0 forces the fixed-iteration pattern the benches use:
        // the naive loop recomputes the (bitwise stationary) fixed point
        // every iteration, the tiled loop freezes — same kernel bits,
        // same iteration count.
        let source = vec![0.2, 0.8];
        let distortion = hamming(2);
        let beta = 5.0;
        let max_iters = 2_000;
        let (want_kernel, _, want_iters) =
            naive_ba_reference(&source, &distortion, beta, 0.0, max_iters);
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
        // the naive fixed-iteration kernel: rerun without the error.
        let frozen_rd = blahut_arimoto_tiled(
            &source,
            &distortion,
            beta,
            1e-30,
            max_iters,
            &BaTileOptions::default(),
        );
        // 1e-30 > 0, so the first exactly-zero gap converges the run —
        // while the naive reference at tol=0 runs all 2000 iterations to
        // land on the same bits.
        let frozen_rd = frozen_rd.expect("an exactly-stationary marginal satisfies any tol > 0");
        for (row, want_row) in frozen_rd.channel.kernel().iter().zip(&want_kernel) {
            for (&q, &wq) in row.iter().zip(want_row) {
                assert_eq!(q.to_bits(), wq.to_bits());
            }
        }
    }

    #[test]
    fn tiled_telemetry_counts_tiles_and_is_thread_invariant() {
        use dplearn_telemetry::MemoryRecorder;
        let (source, distortion, beta) = (&tiled_cases()[1].0, hamming(4), 2.5);
        let opts = BaTileOptions {
            row_tile: 1,
            col_tile: 1,
            ..BaTileOptions::default()
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
