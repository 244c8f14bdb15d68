//! The channel kernels: the one implementation of every quantity of a
//! [`DiscreteChannel`], cache-blocked for large alphabets (10⁴+ symbols).
//!
//! The channel keeps its kernel in one flat row-major buffer, so each
//! O(nx·ny) scan — output marginal, mutual information, min-entropy
//! leakage, and the `dp_bounds`-adjacent worst-row-ratio scan — walks
//! contiguous memory in **blocked** (tile-based) sweeps instead of
//! chasing one allocation per row. Tiles are dispatched over the
//! `dplearn-parallel` worker pool with fixed-size chunks, so results are
//! bit-identical at every `DPLEARN_THREADS` setting, and — because every
//! blocked fold keeps the *same association* as its reference loop —
//! bit-identical at every tile size too. The tile-free methods in
//! [`crate::channel`] run these same kernels at a fixed tile. The unit
//! tests keep each boxed-row loop as an independent oracle:
//!
//! * `output_marginal_blocked` accumulates each column's contributions
//!   in source order — the same per-column addition sequence as the
//!   boxed-row loop, so it is **bit-identical** to it.
//! * `posterior_vulnerability_blocked` takes each column's max over
//!   inputs in source order, then sums the per-column bests in output
//!   order — the same operations as the boxed column scan, so it is
//!   **bit-identical** to it.
//! * `mutual_information_blocked` runs one row kernel per *row*, then
//!   folds the per-row values in input order with Kahan compensation.
//!   The kernel makes no libm call: each cell is
//!   `p(y|x)·ln(p(y|x)/p(y))` through the in-crate
//!   [`ln_positive_normal`], summed in four fixed lanes. Cell `y` goes to
//!   lane `y mod 4`, the lanes fold as `(l₀+l₁)+(l₂+l₃)`, and the last
//!   `ny mod 4` cells follow in order, so the row length alone sets the
//!   association (the baseline x86-64 build runs the loop as packed
//!   SSE2). A row with a nonzero cell whose quotient is not a positive
//!   normal number — subnormal, or `+∞` from a `p(y)` that underflowed
//!   to 0 — is redone with [`xlogx_over_y`] in the same lanes, so zeros
//!   and `+∞` keep their meaning. The serial replica
//!   [`DiscreteChannel::mutual_information_naive`] (no tiling, no
//!   dispatch) runs the same kernel and is pinned **bit-identical** at
//!   every tile size and thread count. The tests keep the
//!   one-libm-`ln`-per-cell fold as an oracle, within 1e-12 relative; so
//!   is the boxed-row fold into one global sum, a different association.
//! * `max_row_log_ratio_blocked` first drops every column whose ratio
//!   provably cannot hold the maximum, then runs the boxed pairwise loop
//!   on the rest, so it is **bit-identical** to that loop.

use crate::channel::DiscreteChannel;
use crate::{InfoError, Result};
use dplearn_numerics::special::{ln_positive_normal, xlogx_over_y, KahanSum};
use std::ops::Range;

/// Approximate cost (≈ nanoseconds, [`dplearn_parallel::par_threshold`]
/// units) of one matrix cell in the mutual-information row pass: two
/// divisions, the in-crate logarithm and a multiply-add, two cells per
/// packed instruction.
const MI_CELL_COST: u64 = 6;

/// Approximate cost of one cell pair in the realized-ε exact pass: a
/// division, a libm logarithm and a max.
const RATIO_CELL_COST: u64 = 24;

/// Approximate cost of one cell in the marginal / vulnerability sweeps:
/// a multiply and an add or max.
const SCAN_CELL_COST: u64 = 2;

/// Columns per task in the realized-ε bound pass. Fixed, so the set of
/// surviving columns never depends on `tile` or the worker count; at 8
/// rows a block is 64 KiB of kernel.
const EPS_BLOCK: usize = 1024;

/// Relative cut of the realized-ε bound pass: a column whose max/min
/// ratio is below `(1 − EPS_CUT)` × its block's largest is dropped. The
/// exact pass computes every pair value to within a few ulps of
/// `ln(max/min)`, about 10⁶ times finer than this cut.
const EPS_CUT: f64 = 1e-9;

/// The larger of `a` and `b` by one compare-select, a single packed max
/// where `f64::max` adds a NaN test per cell. The kernels feed it finite
/// cells, where the two agree but for the sign of a zero.
fn max_of(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

/// The smaller of `a` and `b` by one compare-select; see [`max_of`].
fn min_of(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// The channel type under its earlier name. The repo benchmark
/// (`benchmark/src/leakage.rs`) still names it; it goes when the
/// benchmark next changes. Everything else uses [`DiscreteChannel`].
pub type FlatChannel = DiscreteChannel;

/// One MI cell `p(y|x)·ln(p(y|x)/p(y))` through [`ln_positive_normal`],
/// and whether the cell needs the libm fallback: it is nonzero and its
/// quotient is not a positive normal number. A zero cell adds `+0.0`,
/// as in [`xlogx_over_y`].
fn fast_cell(pyx: f64, py: f64) -> (f64, bool) {
    let q = pyx / py;
    let term = pyx * ln_positive_normal(q);
    let normal = (f64::MIN_POSITIVE..=f64::MAX).contains(&q);
    if pyx == 0.0 {
        (0.0, false)
    } else {
        (term, !normal)
    }
}

/// `Σ_y cell(p(y|x), p(y))` over one row in four fixed lanes: lane `k`
/// adds the cells at `y ≡ k (mod 4)` in order, the lanes fold as
/// `(l₀+l₁)+(l₂+l₃)`, and the last `ny mod 4` cells follow in order. The
/// association depends only on the row length. Also returns whether any
/// cell asked for the fallback.
fn lane_sum(row: &[f64], marginal: &[f64], cell: impl Fn(f64, f64) -> (f64, bool)) -> (f64, bool) {
    let (r4, m4) = (row.chunks_exact(4), marginal.chunks_exact(4));
    let (r_tail, m_tail) = (r4.remainder(), m4.remainder());
    let mut lanes = [0.0f64; 4];
    let mut fallback = false;
    for (rc, mc) in r4.zip(m4) {
        for ((l, &pyx), &py) in lanes.iter_mut().zip(rc).zip(mc) {
            let (term, off) = cell(pyx, py);
            *l += term;
            fallback |= off;
        }
    }
    let [l0, l1, l2, l3] = lanes;
    let mut s = (l0 + l1) + (l2 + l3);
    for (&pyx, &py) in r_tail.iter().zip(m_tail) {
        let (term, off) = cell(pyx, py);
        s += term;
        fallback |= off;
    }
    (s, fallback)
}

/// The MI row kernel `Σ_y p(y|x)·ln(p(y|x)/p(y))` behind
/// [`DiscreteChannel::mutual_information_blocked`],
/// [`DiscreteChannel::mutual_information_naive`] and the capacity
/// iteration's per-row divergence. A row with a nonzero cell whose
/// quotient is zero, subnormal or infinite (a `p(y)` that underflowed to
/// 0) is redone with [`xlogx_over_y`] in the same lanes, so those cells
/// keep their libm value and `+∞`.
pub(crate) fn row_information(row: &[f64], marginal: &[f64]) -> f64 {
    match lane_sum(row, marginal, fast_cell) {
        (s, false) => s,
        _ => lane_sum(row, marginal, |pyx, py| (xlogx_over_y(pyx, py), false)).0,
    }
}

/// The output-marginal kernel over any input distribution `input` and a
/// validated flat `kernel` of row stride `ny`, with `tile` columns per
/// task (`tile ≥ 1`). Zero-mass inputs are skipped: they contribute exact
/// `+0.0` terms, which leave the (never-negative) accumulators unchanged
/// bit for bit. The capacity iteration calls it with its own input.
// Column tiles are handed out by the parallel scheduler, bounded by `ny`.
#[allow(clippy::indexing_slicing)]
pub(crate) fn output_marginal_kernel(
    input: &[f64],
    kernel: &[f64],
    ny: usize,
    tile: usize,
) -> Vec<f64> {
    let mut out = vec![0.0; ny];
    dplearn_parallel::par_for_each_chunk_mut(
        &mut out,
        tile,
        SCAN_CELL_COST * input.len() as u64,
        |_chunk, start, cols| {
            let width = cols.len();
            for (x, &px) in input.iter().enumerate() {
                if px == 0.0 {
                    continue;
                }
                let row0 = x * ny + start;
                for (o, &q) in cols.iter_mut().zip(&kernel[row0..row0 + width]) {
                    *o += px * q;
                }
            }
        },
    );
    out
}

/// Tile sizes must be positive: a zero tile would make the blocked
/// sweeps dispatch nothing and silently return garbage.
fn validate_tile(tile: usize) -> Result<usize> {
    if tile == 0 {
        return Err(InfoError::InvalidParameter {
            name: "tile",
            reason: "tile size must be positive".to_string(),
        });
    }
    Ok(tile)
}

// Blocked sweeps index rows/columns with offsets handed out by the
// parallel scheduler, all bounded by the validated kernel dimensions.
#[allow(clippy::indexing_slicing)]
impl DiscreteChannel {
    /// Output marginal `p(y) = Σ_x p(x)·p(y|x)`, accumulated per column
    /// tile with each column's terms added in source order —
    /// bit-identical to the boxed-row loop at every tile size and thread
    /// count.
    pub fn output_marginal_blocked(&self, tile: usize) -> Result<Vec<f64>> {
        Ok(output_marginal_kernel(
            self.input(),
            self.kernel_flat(),
            self.n_outputs(),
            validate_tile(tile)?,
        ))
    }

    /// Mutual information `I(X;Y)` in nats, blocked over row tiles.
    ///
    /// Each row with mass goes through the MI row kernel (four fixed
    /// lanes, no libm call, libm fallback for rows outside the normal
    /// range; see the module docs) and is multiplied by `p(x)`; the
    /// per-row values are then folded in input order with Kahan
    /// compensation. The fold structure never depends on the tile
    /// grouping or the worker count, so the result is bit-identical
    /// across both — pinned against
    /// [`DiscreteChannel::mutual_information_naive`] in
    /// `tests/determinism.rs`. Agreement with the one-libm-`ln`-per-cell
    /// fold and with the boxed-row fold (a different association) is to
    /// 1e-12 relative, checked in the unit tests.
    pub fn mutual_information_blocked(&self, tile: usize) -> Result<f64> {
        let tile = validate_tile(tile)?;
        let marginal = self.output_marginal_blocked(tile)?;
        let (input, kernel, ny) = (self.input(), self.kernel_flat(), self.n_outputs());
        let mut row_sums = vec![0.0; input.len()];
        {
            let marginal = &marginal;
            dplearn_parallel::par_for_each_chunk_mut(
                &mut row_sums,
                tile,
                MI_CELL_COST * ny as u64,
                |_chunk, start, rows| {
                    for (offset, slot) in rows.iter_mut().enumerate() {
                        let x = start + offset;
                        let px = input[x];
                        if px == 0.0 {
                            *slot = 0.0;
                            continue;
                        }
                        *slot = px * row_information(&kernel[x * ny..(x + 1) * ny], marginal);
                    }
                },
            );
        }
        let mut acc = KahanSum::new();
        for &v in &row_sums {
            acc.add(v);
        }
        // Clamp away −0.0 / tiny negative rounding.
        Ok(acc.value().max(0.0))
    }

    /// The serial replica of [`mutual_information_blocked`]: the same
    /// row kernel and the same Kahan fold over rows, with no tiling and
    /// no parallel dispatch. The blocked sweep is pinned bit-identical to
    /// this at every tile size and thread count.
    ///
    /// [`mutual_information_blocked`]: DiscreteChannel::mutual_information_blocked
    pub fn mutual_information_naive(&self) -> f64 {
        let (input, kernel, ny) = (self.input(), self.kernel_flat(), self.n_outputs());
        let mut marginal = vec![0.0; ny];
        for (x, &px) in input.iter().enumerate() {
            if px == 0.0 {
                continue;
            }
            let row = &kernel[x * ny..(x + 1) * ny];
            for (o, &q) in marginal.iter_mut().zip(row) {
                *o += px * q;
            }
        }
        let mut acc = KahanSum::new();
        for (x, &px) in input.iter().enumerate() {
            if px == 0.0 {
                continue;
            }
            let row = &kernel[x * ny..(x + 1) * ny];
            acc.add(px * row_information(row, &marginal));
        }
        acc.value().max(0.0)
    }

    /// Prior (one-guess) vulnerability `V(X) = max_x p(x)`: the success
    /// of an adversary who guesses the input without seeing the output
    /// (Alvim et al., refs [1, 2] of the paper).
    pub fn prior_vulnerability(&self) -> f64 {
        self.input().iter().copied().fold(0.0, f64::max)
    }

    /// Posterior vulnerability `V(X|Y) = Σ_y max_x p(x)·p(y|x)`, blocked
    /// over column tiles.
    ///
    /// The boxed-row reference walks the matrix column-major — one
    /// pointer chase per row per output symbol. Here each column tile
    /// streams the flat rows once, taking per-column maxima in source
    /// order; the per-column bests are then summed in output order
    /// (plain accumulation, matching the reference). Maxima are exact
    /// under any association and every product is `≥ 0.0`, so the result
    /// is **bit-identical** to the boxed column scan at every tile size
    /// and thread count.
    pub fn posterior_vulnerability_blocked(&self, tile: usize) -> Result<f64> {
        // A tile past the last column is one tile; clamping keeps the
        // cost product below from overflowing.
        let (input, kernel, ny) = (self.input(), self.kernel_flat(), self.n_outputs());
        let tile = validate_tile(tile)?.min(ny);
        let n_tiles = ny.div_ceil(tile);
        let total = dplearn_parallel::par_map_reduce(
            n_tiles,
            SCAN_CELL_COST.saturating_mul((tile * input.len()) as u64),
            0.0f64,
            |t| {
                let start = t * tile;
                let width = tile.min(ny - start);
                let mut bests = vec![0.0f64; width];
                for (x, &px) in input.iter().enumerate() {
                    let row0 = x * ny + start;
                    for (b, &q) in bests.iter_mut().zip(&kernel[row0..row0 + width]) {
                        *b = max_of(*b, px * q);
                    }
                }
                bests
            },
            // Tiles fold in index order, so the global sum visits the
            // per-column bests exactly in output order.
            |acc, bests| bests.iter().fold(acc, |a, &b| a + b),
        );
        Ok(total)
    }

    /// Min-entropy leakage in bits, blocked: `log₂ (V(X|Y)/V(X))` from
    /// the two vulnerability kernels.
    pub fn min_entropy_leakage_bits_blocked(&self, tile: usize) -> Result<f64> {
        Ok((self.posterior_vulnerability_blocked(tile)? / self.prior_vulnerability()).log2())
    }

    /// Multiplicative Bayes leakage `V(X|Y)/V(X)`, blocked.
    pub fn multiplicative_bayes_leakage_blocked(&self, tile: usize) -> Result<f64> {
        Ok(self.posterior_vulnerability_blocked(tile)? / self.prior_vulnerability())
    }

    /// The worst log-ratio between any two kernel rows — the
    /// `dp_bounds`-adjacent scan: for a learning channel over
    /// neighboring datasets this is the mechanism's exact ε.
    /// Bit-identical to the boxed pairwise loop at every tile size and
    /// thread count, computed in two passes:
    ///
    /// 1. **Bound pass.** One sweep over the kernel in fixed 1024-column
    ///    blocks takes each column's max and min over all rows. A column
    ///    with a zero and a nonzero cell makes ε infinite; an all-zero
    ///    column has no pair to compare. A column whose min/max quotient
    ///    is a normal number, and whose max/min ratio is below
    ///    `(1 − 1e-9)` × the largest such ratio in its block, is dropped.
    /// 2. **Exact pass.** Every other column goes through the
    ///    reference's pairwise `|ln(a/b)|` loop, with `tile` anchor rows
    ///    per task. That includes each block's largest-ratio column and
    ///    every column whose quotient is subnormal or zero.
    ///
    /// Dropping is exact. Division is correctly rounded, hence monotone,
    /// and `ln` is accurate to about an ulp, so every pair value of a
    /// column with a normal quotient lies within a few ulps of
    /// `ln(max/min)` — far inside the 1e-9 cut — while the block's
    /// largest-ratio column is evaluated pair by pair. Outside the
    /// normal range that bound fails: rows `(lo, hi, lo)` give pair
    /// values `ln(lo/hi) ≈ −709` and `ln(hi/lo) = ∞`, so such columns are
    /// never dropped. The closed form `ln(max/min)` is never returned,
    /// since it can differ from the pairwise maximum in the last ulp.
    ///
    /// On a Gibbs channel nearly every column is dropped, so the cost is
    /// one read of the kernel instead of a division and a logarithm per
    /// row pair and column.
    pub fn max_row_log_ratio_blocked(&self, tile: usize) -> Result<f64> {
        let nx = self.n_inputs();
        let tile = validate_tile(tile)?.min(nx);
        let (kernel, ny) = (self.kernel_flat(), self.n_outputs());
        let survivors = dplearn_parallel::par_map_reduce(
            ny.div_ceil(EPS_BLOCK),
            SCAN_CELL_COST.saturating_mul((EPS_BLOCK as u64).saturating_mul(nx as u64)),
            Some(Vec::new()),
            |block| self.eps_block_survivors(block),
            |acc: Option<Vec<Range<usize>>>, runs| {
                let mut acc = acc?;
                acc.extend(runs?);
                Some(acc)
            },
        );
        let Some(runs) = survivors else {
            return Ok(f64::INFINITY);
        };
        let cells: u64 = runs.iter().map(|run| run.len() as u64).sum();
        let worst = dplearn_parallel::par_map_reduce(
            nx.div_ceil(tile),
            RATIO_CELL_COST
                .saturating_mul(tile as u64)
                .saturating_mul(nx as u64)
                .saturating_mul(cells),
            0.0f64,
            |t| {
                let lo = t * tile;
                let hi = (lo + tile).min(nx);
                let mut w = 0.0f64;
                for i in lo..hi {
                    let row_i = &kernel[i * ny..(i + 1) * ny];
                    for j in (i + 1)..nx {
                        let row_j = &kernel[j * ny..(j + 1) * ny];
                        // Surviving columns are strictly positive: the
                        // bound pass settled every zero cell.
                        for run in &runs {
                            let pairs = row_i[run.clone()].iter().zip(&row_j[run.clone()]);
                            for (&a, &b) in pairs {
                                w = w.max((a / b).ln().abs());
                            }
                        }
                    }
                }
                w
            },
            f64::max,
        );
        Ok(worst)
    }

    /// The realized-ε bound pass over one column block: the block's
    /// surviving column runs in order, or `None` when a column mixes
    /// zero and nonzero cells (ε = ∞).
    fn eps_block_survivors(&self, block: usize) -> Option<Vec<Range<usize>>> {
        let (kernel, ny) = (self.kernel_flat(), self.n_outputs());
        let start = block * EPS_BLOCK;
        let cols = start..start + EPS_BLOCK.min(ny - start);
        let mut hi = kernel[cols.clone()].to_vec();
        let mut lo = hi.clone();
        for row in kernel.chunks_exact(ny).skip(1) {
            for ((h, l), &v) in hi.iter_mut().zip(&mut lo).zip(&row[cols.clone()]) {
                *h = max_of(*h, v);
                *l = min_of(*l, v);
            }
        }
        // `lo` becomes each column's min/max quotient q in [0, 1]: the
        // smaller q, the larger the ratio. An all-zero column gives
        // 0/0 = NaN, which no test below keeps; a zero beside a nonzero
        // cell gives q = 0 and sets `mixed`. Only normal quotients set
        // the cut, so a subnormal or zero quotient always passes it. The
        // loop has no branch, so it vectorizes.
        let mut mixed = false;
        let mut q_min = f64::INFINITY;
        for (&h, q) in hi.iter().zip(&mut lo) {
            mixed |= (*q == 0.0) & (h != 0.0);
            *q /= h;
            let normal = if *q >= f64::MIN_POSITIVE {
                *q
            } else {
                f64::INFINITY
            };
            q_min = min_of(q_min, normal);
        }
        if mixed {
            return None;
        }
        let mut runs: Vec<Range<usize>> = Vec::new();
        for (y, &q) in cols.zip(&lo) {
            // max/min < (1 − EPS_CUT)·largest  ⇔  q·(1 − EPS_CUT) > q_min.
            if q * (1.0 - EPS_CUT) <= q_min {
                match runs.last_mut() {
                    Some(run) if run.end == y => run.end += 1,
                    _ => runs.push(y..y + 1),
                }
            }
        }
        Some(runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dplearn_numerics::rng::{Rng, Xoshiro256};

    /// Tiles from one cell to far past any dimension. `1 << 63` and
    /// `usize::MAX` overflow an unclamped cost hint or chunk product.
    const HUGE_AND_SMALL_TILES: [usize; 6] = [1, 7, 64, 4096, 1 << 63, usize::MAX];

    /// The rows of a deterministic dense test channel with a few zero
    /// kernel cells and one zero-mass input symbol.
    fn test_rows(nx: usize, ny: usize, seed: u64) -> (Vec<f64>, Vec<Vec<f64>>) {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut input: Vec<f64> = (0..nx).map(|_| rng.next_open_f64()).collect();
        input[nx / 2] = 0.0;
        let total: f64 = input.iter().sum();
        for v in &mut input {
            *v /= total;
        }
        let kernel: Vec<Vec<f64>> = (0..nx)
            .map(|_| {
                let mut row: Vec<f64> = (0..ny)
                    .map(|_| {
                        if rng.next_bool(0.1) {
                            0.0
                        } else {
                            rng.next_open_f64()
                        }
                    })
                    .collect();
                if row.iter().all(|&v| v == 0.0) {
                    row[0] = 1.0;
                }
                let t: f64 = row.iter().sum();
                for v in &mut row {
                    *v /= t;
                }
                row
            })
            .collect();
        (input, kernel)
    }

    fn test_channel(nx: usize, ny: usize, seed: u64) -> DiscreteChannel {
        let (input, rows) = test_rows(nx, ny, seed);
        DiscreteChannel::from_rows(input, rows).unwrap()
    }

    // The boxed-row loops the kernels replaced, kept as independent
    // oracles: one `Vec` per row, serial folds, no tiling.

    fn boxed_marginal(input: &[f64], rows: &[Vec<f64>]) -> Vec<f64> {
        let mut out = vec![0.0; rows[0].len()];
        for (&px, row) in input.iter().zip(rows) {
            for (o, &pyx) in out.iter_mut().zip(row) {
                *o += px * pyx;
            }
        }
        out
    }

    /// One `xlogx_over_y` per cell into one global accumulator.
    fn boxed_mutual_information(input: &[f64], rows: &[Vec<f64>]) -> f64 {
        let marginal = boxed_marginal(input, rows);
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

    fn boxed_prior_vulnerability(input: &[f64]) -> f64 {
        input.iter().copied().fold(0.0, f64::max)
    }

    /// Column-major: one row pointer chase per row per output symbol.
    fn boxed_posterior_vulnerability(input: &[f64], rows: &[Vec<f64>]) -> f64 {
        let mut total = 0.0;
        for y in 0..rows[0].len() {
            let mut best = 0.0f64;
            for (&px, row) in input.iter().zip(rows) {
                best = best.max(px * row[y]);
            }
            total += best;
        }
        total
    }

    /// Every row pair, every column: `|ln(a/b)|`.
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

    #[test]
    fn construction_validates() {
        assert!(DiscreteChannel::new(vec![0.5, 0.5], vec![0.5, 0.5, 0.5, 0.5], 2).is_ok());
        // Wrong buffer size.
        assert!(DiscreteChannel::new(vec![0.5, 0.5], vec![0.5, 0.5, 0.5], 2).is_err());
        // Zero-width rows.
        assert!(DiscreteChannel::new(vec![1.0], vec![], 0).is_err());
        // A non-stochastic row.
        assert!(DiscreteChannel::new(vec![0.5, 0.5], vec![0.5, 0.5, 0.9, 0.2], 2).is_err());
        // A bad input distribution.
        assert!(DiscreteChannel::new(vec![0.5, 0.6], vec![0.5, 0.5, 0.5, 0.5], 2).is_err());
    }

    #[test]
    fn zero_tile_is_a_typed_error() {
        let f = test_channel(5, 7, 11);
        assert!(matches!(
            f.output_marginal_blocked(0),
            Err(InfoError::InvalidParameter { name: "tile", .. })
        ));
        assert!(f.mutual_information_blocked(0).is_err());
        assert!(f.posterior_vulnerability_blocked(0).is_err());
        assert!(f.min_entropy_leakage_bits_blocked(0).is_err());
        assert!(f.max_row_log_ratio_blocked(0).is_err());
    }

    #[test]
    fn blocked_marginal_is_bit_identical_to_boxed_rows_at_any_tile() {
        let (input, rows) = test_rows(13, 17, 5);
        let f = DiscreteChannel::from_rows(input.clone(), rows.clone()).unwrap();
        let want: Vec<u64> = boxed_marginal(&input, &rows)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for tile in HUGE_AND_SMALL_TILES {
            let got: Vec<u64> = f
                .output_marginal_blocked(tile)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, want, "marginal drifted at tile={tile}");
        }
    }

    #[test]
    fn blocked_vulnerability_and_leakage_are_bit_identical_to_reference() {
        let (input, rows) = test_rows(13, 17, 7);
        let f = DiscreteChannel::from_rows(input.clone(), rows.clone()).unwrap();
        let want_prior = boxed_prior_vulnerability(&input);
        let want_post = boxed_posterior_vulnerability(&input, &rows);
        let want_leak = (want_post / want_prior).log2();
        let want_mult = want_post / want_prior;
        assert_eq!(f.prior_vulnerability().to_bits(), want_prior.to_bits());
        for tile in HUGE_AND_SMALL_TILES {
            assert_eq!(
                f.posterior_vulnerability_blocked(tile).unwrap().to_bits(),
                want_post.to_bits(),
                "posterior vulnerability drifted at tile={tile}"
            );
            assert_eq!(
                f.min_entropy_leakage_bits_blocked(tile).unwrap().to_bits(),
                want_leak.to_bits()
            );
            assert_eq!(
                f.multiplicative_bayes_leakage_blocked(tile)
                    .unwrap()
                    .to_bits(),
                want_mult.to_bits()
            );
        }
    }

    #[test]
    fn blocked_mi_is_tile_invariant_and_matches_its_naive_reference() {
        let (input, rows) = test_rows(13, 17, 9);
        let want =
            assert_mi_pinned(&DiscreteChannel::from_rows(input.clone(), rows.clone()).unwrap());
        // Against the boxed-row association: rounding-level agreement.
        let boxed = boxed_mutual_information(&input, &rows);
        assert!(
            (want - boxed).abs() <= 1e-12 * boxed.abs().max(1.0),
            "blocked {want} vs boxed {boxed}"
        );
    }

    /// The output marginal in source order, as every MI path builds it.
    fn serial_marginal(f: &DiscreteChannel) -> Vec<f64> {
        let mut marginal = vec![0.0; f.n_outputs()];
        for (&px, row) in f.input().iter().zip(f.rows()) {
            if px != 0.0 {
                for (o, &q) in marginal.iter_mut().zip(row) {
                    *o += px * q;
                }
            }
        }
        marginal
    }

    /// Rows with mass, weighted `p(x)·row_sum(row)`, Kahan-folded in
    /// input order and clamped at 0.
    fn fold_rows(f: &DiscreteChannel, row_sum: impl Fn(&[f64], &[f64]) -> f64) -> f64 {
        let marginal = serial_marginal(f);
        let mut acc = KahanSum::new();
        for (&px, row) in f.input().iter().zip(f.rows()) {
            if px != 0.0 {
                acc.add(px * row_sum(row, &marginal));
            }
        }
        acc.value().max(0.0)
    }

    /// The libm oracle: one `xlogx_over_y` per cell, each row summed
    /// left to right.
    fn libm_oracle(f: &DiscreteChannel) -> f64 {
        fold_rows(f, |row, marginal| {
            row.iter()
                .zip(marginal)
                .fold(0.0, |s, (&pyx, &py)| s + xlogx_over_y(pyx, py))
        })
    }

    /// The documented row association, written by index: every cell
    /// through `ln_positive_normal` unless some nonzero cell of the row
    /// has a quotient outside the positive normals, in which case every
    /// cell through `xlogx_over_y`; cell `y` into lane `y mod 4`, the
    /// lanes folded `(l₀+l₁)+(l₂+l₃)`, the tail added in order.
    fn lane_replica_row(row: &[f64], marginal: &[f64]) -> f64 {
        let ny = row.len();
        let fallback = (0..ny).any(|y| {
            let q = row[y] / marginal[y];
            row[y] != 0.0 && !(q.is_normal() && q > 0.0)
        });
        let term = |y: usize| {
            if fallback {
                xlogx_over_y(row[y], marginal[y])
            } else if row[y] == 0.0 {
                0.0
            } else {
                row[y] * ln_positive_normal(row[y] / marginal[y])
            }
        };
        let body = ny - ny % 4;
        let mut lanes = [0.0f64; 4];
        for y in 0..body {
            lanes[y % 4] += term(y);
        }
        let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for y in body..ny {
            s += term(y);
        }
        s
    }

    /// Blocked MI at every tile, the serial replica and the lane replica
    /// agree to the bit; all are within 1e-12 relative of the oracle.
    fn assert_mi_pinned(f: &DiscreteChannel) -> f64 {
        let marginal = serial_marginal(f);
        for (x, row) in f.rows().enumerate() {
            let (got, want) = (
                row_information(row, &marginal),
                lane_replica_row(row, &marginal),
            );
            assert_eq!(got.to_bits(), want.to_bits(), "lane association, row {x}");
        }
        let naive = f.mutual_information_naive();
        assert_eq!(naive.to_bits(), fold_rows(f, lane_replica_row).to_bits());
        for tile in HUGE_AND_SMALL_TILES {
            let got = f.mutual_information_blocked(tile).unwrap();
            assert_eq!(got.to_bits(), naive.to_bits(), "MI drifted at tile={tile}");
        }
        let oracle = libm_oracle(f);
        assert!(
            naive == oracle || (naive - oracle).abs() <= 1e-12 * oracle.abs(),
            "kernel {naive:e} vs libm oracle {oracle:e}"
        );
        naive
    }

    #[test]
    fn blocked_mi_matches_the_libm_oracle_across_lane_tails() {
        // Each test channel has ~10% zero cells and one zero-mass input.
        for (i, ny) in [1usize, 2, 3, 5, 17, 4099].into_iter().enumerate() {
            let f = test_channel(64, ny, 40 + i as u64);
            let mi = assert_mi_pinned(&f);
            assert!(mi.is_finite() && mi >= 0.0, "ny={ny}: {mi}");
        }
    }

    #[test]
    fn tile_free_methods_equal_their_blocked_forms_bit_for_bit() {
        // The lane-tail channels, with their zero cells, and the same
        // rows lifted off zero so the realized-ε scan reaches its exact
        // pass.
        for (i, ny) in [1usize, 2, 3, 5, 17, 4099].into_iter().enumerate() {
            let (input, rows) = test_rows(64, ny, 40 + i as u64);
            let lifted: Vec<Vec<f64>> = rows
                .iter()
                .map(|row| {
                    let t = 1.0 + 0.01 * ny as f64;
                    row.iter().map(|&v| (v + 0.01) / t).collect()
                })
                .collect();
            for rows in [rows, lifted] {
                let c = DiscreteChannel::from_rows(input.clone(), rows).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                for tile in HUGE_AND_SMALL_TILES {
                    let at = format!("ny={ny} tile={tile}");
                    assert_eq!(
                        bits(&c.output_marginal()),
                        bits(&c.output_marginal_blocked(tile).unwrap()),
                        "{at}"
                    );
                    for (got, want) in [
                        (
                            c.mutual_information(),
                            c.mutual_information_blocked(tile).unwrap(),
                        ),
                        (
                            c.max_row_log_ratio(),
                            c.max_row_log_ratio_blocked(tile).unwrap(),
                        ),
                        (
                            c.posterior_vulnerability(),
                            c.posterior_vulnerability_blocked(tile).unwrap(),
                        ),
                        (
                            c.min_entropy_leakage_bits(),
                            c.min_entropy_leakage_bits_blocked(tile).unwrap(),
                        ),
                        (
                            c.multiplicative_bayes_leakage(),
                            c.multiplicative_bayes_leakage_blocked(tile).unwrap(),
                        ),
                    ] {
                        assert_eq!(got.to_bits(), want.to_bits(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn subnormal_quotient_rows_take_the_libm_fallback() {
        // p(y=3|x=0) = 1e-310 against p(y=3) = 0.15: a subnormal quotient
        // in lane 3; row 1 puts one in the tail (y = 4). Row 2 is clean.
        let tiny = 1e-310;
        let kernel = vec![
            0.3, 0.3, 0.4, tiny, 0.0, //
            0.3, 0.3, 0.2, 0.2, tiny, //
            0.2, 0.2, 0.2, 0.2, 0.2,
        ];
        let f = DiscreteChannel::new(vec![0.25, 0.25, 0.5], kernel, 5).unwrap();
        let marginal = serial_marginal(&f);
        for (x, fallback) in [(0, true), (1, true), (2, false)] {
            let row = f.row(x).unwrap();
            assert_eq!(lane_sum(row, &marginal, fast_cell).1, fallback, "row {x}");
            if fallback {
                let libm = lane_sum(row, &marginal, |a, b| (xlogx_over_y(a, b), false)).0;
                let got = row_information(row, &marginal);
                assert_eq!(got.to_bits(), libm.to_bits(), "row {x}");
            }
        }
        assert!(assert_mi_pinned(&f) > 0.0);
    }

    #[test]
    fn an_underflowed_marginal_keeps_mi_infinite() {
        // p(y=1) = 1e-200·1e-200 underflows to 0 while p(y=1|x=1) > 0:
        // the quotient is +∞ and the MI stays +∞, as with libm.
        let f = DiscreteChannel::new(vec![1.0, 1e-200], vec![1.0, 0.0, 1.0, 1e-200], 2).unwrap();
        assert_eq!(serial_marginal(&f)[1], 0.0);
        assert_eq!(f.mutual_information_naive(), f64::INFINITY);
        for tile in HUGE_AND_SMALL_TILES {
            assert_eq!(f.mutual_information_blocked(tile).unwrap(), f64::INFINITY);
        }
        assert_eq!(libm_oracle(&f), f64::INFINITY);
    }

    #[test]
    fn blocked_mi_known_values() {
        // BSC with crossover 0.1, uniform input: I = ln2 − H(0.1).
        let p = 0.1f64;
        let f = DiscreteChannel::new(vec![0.5, 0.5], vec![1.0 - p, p, p, 1.0 - p], 2).unwrap();
        let want = std::f64::consts::LN_2 - dplearn_numerics::special::binary_entropy(p);
        let got = f.mutual_information_blocked(64).unwrap();
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        // A useless channel clamps to exactly zero.
        let useless = DiscreteChannel::new(vec![0.3, 0.7], vec![0.5, 0.5, 0.5, 0.5], 2).unwrap();
        assert_eq!(useless.mutual_information_blocked(1).unwrap(), 0.0);
    }

    #[test]
    fn blocked_row_ratio_matches_boxed_rows() {
        let (_, rows) = test_rows(9, 6, 13);
        let f = test_channel(9, 6, 13);
        let want = boxed_max_row_log_ratio(&rows);
        for tile in HUGE_AND_SMALL_TILES {
            assert_eq!(
                f.max_row_log_ratio_blocked(tile).unwrap().to_bits(),
                want.to_bits()
            );
        }
        // Structural zeros in one row but not another force ε = ∞ in
        // both implementations.
        let inf = DiscreteChannel::new(vec![0.5, 0.5], vec![1.0, 0.0, 0.5, 0.5], 2).unwrap();
        assert_eq!(inf.max_row_log_ratio_blocked(1).unwrap(), f64::INFINITY);
    }

    #[test]
    fn blocked_sweeps_are_thread_count_invariant() {
        let f = test_channel(37, 41, 17);
        let run = || {
            (
                f.output_marginal_blocked(8)
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<u64>>(),
                f.mutual_information_blocked(8).unwrap().to_bits(),
                f.posterior_vulnerability_blocked(8).unwrap().to_bits(),
            )
        };
        dplearn_parallel::set_thread_count(1);
        let one = run();
        dplearn_parallel::set_thread_count(4);
        let four = run();
        dplearn_parallel::set_thread_count(0);
        assert_eq!(one, four);
    }
}
