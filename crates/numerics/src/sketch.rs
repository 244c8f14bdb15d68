//! Deterministic mergeable rank sketches for streaming quantile queries.
//!
//! A [`RankSketch`] summarizes a stream of reals so that any rank query
//! `#{v ≤ x}` is answered within a **tracked, worst-case** additive
//! error, using memory that grows logarithmically in the stream length
//! instead of linearly. It is the streaming replacement for the full
//! sorted copy the engine's sufficient statistics used to keep.
//!
//! The design is the classic compactor hierarchy (KLL / MRL family):
//! level `l` stores items that each represent `2^l` original records.
//! When a level overflows its capacity the items are sorted and every
//! other one is promoted to the next level at double weight. Two choices
//! make this implementation different from the randomized literature
//! version, both deliberate:
//!
//! 1. **Determinism.** Compaction keeps the even- or odd-indexed half of
//!    the sorted buffer according to an internal counter that flips on
//!    every compaction, instead of a coin flip. The sketch is therefore a
//!    pure function of the multiset of inserted values and the order of
//!    structural operations — bit-identical across runs, thread counts,
//!    and crash/replay cycles, which is the workspace-wide contract.
//! 2. **Honest error tracking.** Instead of quoting the probabilistic
//!    `O(1/k)` bound, the sketch *tracks its exact worst-case rank error*:
//!    each compaction of a level holding weight-`w` items can shift any
//!    rank by at most `w`, so [`RankSketch::rank_error_bound`] is the sum
//!    of compacted weights so far. Callers (and property tests) compare
//!    observed error against this declared bound — the bound is a
//!    guarantee, not an estimate.
//!
//! Between operations the levels keep three invariants, which make
//! ingest and queries cheap without changing any answer:
//!
//! * level 0 is an unsorted buffer of fewer than `k` records, filled a
//!   batch at a time;
//! * every level ≥ 1 is sorted under [`f64::total_cmp`]: promoted runs
//!   are merged into it ([`crate::order::merge_total`]), so compacting it
//!   needs no sort;
//! * a level compacts exactly when it reaches `k` items, so a batch
//!   causes one compaction per overflow and leaves the same state as
//!   inserting its records one at a time.
//!
//! Rank queries scan level 0 and binary-search every other level.
//!
//! Merging two sketches combines levels, adds the error bounds, and
//! re-compacts; because levels are kept sorted under a total order,
//! `merge(a, b)` and `merge(b, a)` produce bit-identical sketches.
//!
//! ```
//! use dplearn_numerics::sketch::RankSketch;
//!
//! let mut sk = RankSketch::new(64).unwrap();
//! for i in 0..100_000u64 {
//!     sk.insert((i % 1_000) as f64);
//! }
//! let est = sk.rank(499.5);
//! let truth = 50_000u64;
//! let err = est.abs_diff(truth);
//! assert!(err <= sk.rank_error_bound());
//! assert!(sk.retained() < 2_000); // vs 100_000 for a sorted copy
//! ```

use crate::order::{merge_total, sort_total};
use crate::{NumericsError, Result};

/// Default per-level capacity used by callers that do not tune `k`.
///
/// At `k = 200` the tracked worst-case rank error for an `n`-record
/// stream is ≈ `n / k · log₂(n / k)`-ish in the worst case and far
/// smaller in practice, while retaining only `O(k log(n / k))` items.
pub const DEFAULT_SKETCH_K: usize = 200;

/// A deterministic, mergeable rank/quantile sketch (compactor hierarchy).
///
/// See the [module docs](self) for the design. All operations are pure
/// functions of the insertion/merge history — no randomness, no
/// dependence on thread count or wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct RankSketch {
    /// Per-level capacity before a compaction triggers.
    k: usize,
    /// `levels[l]` holds items of weight `2^l`. Level 0 is in arrival
    /// order; every higher level is sorted under the total order.
    levels: Vec<Vec<f64>>,
    /// Exact number of inserted records (weights always sum to this).
    count: u64,
    /// Exact worst-case additive rank error accumulated by compactions.
    error_bound: u64,
    /// Compaction counter; its low bit selects the even- or odd-indexed
    /// survivors, alternating so systematic rank drift cancels.
    compactions: u64,
}

impl RankSketch {
    /// Create an empty sketch with per-level capacity `k`.
    ///
    /// Fails closed for `k < 2`: a one-slot level could never compact a
    /// pair and the hierarchy would degenerate.
    pub fn new(k: usize) -> Result<Self> {
        if k < 2 {
            return Err(NumericsError::InvalidParameter {
                name: "k",
                reason: format!("sketch capacity must be ≥ 2, got {k}"),
            });
        }
        Ok(RankSketch {
            k,
            levels: vec![Vec::new()],
            count: 0,
            error_bound: 0,
            compactions: 0,
        })
    }

    /// An empty sketch at the workspace default capacity.
    pub fn with_default_capacity() -> Self {
        RankSketch {
            k: DEFAULT_SKETCH_K,
            levels: vec![Vec::new()],
            count: 0,
            error_bound: 0,
            compactions: 0,
        }
    }

    /// Per-level capacity this sketch was built with.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Exact number of records inserted (merges included).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of items currently stored across all levels — the memory
    /// footprint, `O(k log(n / k))` versus `n` for a sorted copy.
    pub fn retained(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// The retained items level by level; each item of level `l` stands
    /// for `2^l` records. Level 0 is in arrival order, every higher level
    /// is sorted under [`f64::total_cmp`].
    pub fn levels(&self) -> impl Iterator<Item = &[f64]> {
        self.levels.iter().map(Vec::as_slice)
    }

    /// Worst-case additive error of any [`rank`](RankSketch::rank)
    /// answer, tracked exactly: the sum of the per-item weights of every
    /// compaction performed so far. `0` until the first compaction, i.e.
    /// the sketch is **exact** while the stream fits in level 0.
    pub fn rank_error_bound(&self) -> u64 {
        self.error_bound
    }

    /// Insert one record.
    pub fn insert(&mut self, x: f64) {
        self.extend_from_slice(std::slice::from_ref(&x));
    }

    /// Insert a batch of records in order. Level 0 takes the batch a
    /// chunk at a time, each chunk filling it to capacity, so the
    /// compactions — and the resulting sketch — are exactly those of
    /// inserting the records one by one.
    pub fn extend_from_slice(&mut self, xs: &[f64]) {
        let mut rest = xs;
        while !rest.is_empty() {
            let Some(l0) = self.levels.first_mut() else {
                return;
            };
            let room = self.k.saturating_sub(l0.len()).max(1);
            let (chunk, tail) = rest.split_at(room.min(rest.len()));
            l0.extend_from_slice(chunk);
            let full = l0.len() >= self.k;
            self.count = self.count.saturating_add(chunk.len() as u64);
            rest = tail;
            if full {
                self.compact_cascade();
            }
        }
    }

    /// Estimated `#{v ≤ x}` over everything inserted, within
    /// ±[`rank_error_bound`](RankSketch::rank_error_bound) of the truth.
    ///
    /// NaN queries return 0 (no record compares ≤ NaN), matching the
    /// linear-scan `v <= x` filter the exact path uses.
    pub fn rank(&self, x: f64) -> u64 {
        self.weighted_count(|v| v <= x)
    }

    /// Estimated `#{v < x}` — the strict (open) rank companion to
    /// [`rank`](RankSketch::rank), within the same
    /// ±[`rank_error_bound`](RankSketch::rank_error_bound). Interval
    /// counts use `rank(hi) − rank_lt(lo)` so records equal to the lower
    /// endpoint are included.
    ///
    /// NaN queries return 0, matching the linear-scan `v < x` filter.
    pub fn rank_lt(&self, x: f64) -> u64 {
        self.weighted_count(|v| v < x)
    }

    /// Weighted count of retained items satisfying `below`, which must be
    /// a comparison against a fixed query (`v <= x` or `v < x`).
    fn weighted_count(&self, below: impl Fn(f64) -> bool) -> u64 {
        let mut levels = self.levels.iter();
        let mut total = levels
            .next()
            .map_or(0, |l0| l0.iter().filter(|&&v| below(v)).count() as u64);
        for (l, level) in (1..).zip(levels) {
            // In total order the negative NaNs lead a level and the
            // positive NaNs trail it. No NaN satisfies `below`, so the
            // matching items are the run right after the negative NaNs.
            let negative_nan = |v: f64| v.is_nan() && v.is_sign_negative();
            let skipped = match level.first() {
                Some(&v) if negative_nan(v) => level.partition_point(|&v| negative_nan(v)),
                _ => 0,
            };
            let run = level.get(skipped..).unwrap_or(&[]);
            let n = run.partition_point(|&v| below(v)) as u64;
            total = total.saturating_add(n << l);
        }
        total
    }

    /// Merge another sketch into this one. The result summarizes the
    /// union of both streams; counts add, error bounds add, and the
    /// merged sketch is **bit-identical regardless of argument order**
    /// (levels combine in sorted order under a total order before the
    /// cascade halves them).
    ///
    /// The merged sketch keeps `self`'s capacity; merging a sketch built
    /// with a different `k` is permitted and simply re-compacts the
    /// incoming items under `self.k`.
    pub fn merge(&mut self, other: &RankSketch) {
        if other.levels.len() > self.levels.len() {
            self.levels.resize(other.levels.len(), Vec::new());
        }
        for (l, (mine, theirs)) in self.levels.iter_mut().zip(&other.levels).enumerate() {
            if l == 0 {
                // Sorting level 0 makes the merged state depend only on
                // the multisets, not on which operand contributed first.
                mine.extend_from_slice(theirs);
                sort_total(mine);
            } else {
                *mine = merge_total(mine, theirs);
            }
        }
        self.count = self.count.saturating_add(other.count);
        self.error_bound = self.error_bound.saturating_add(other.error_bound);
        self.compactions = self.compactions.saturating_add(other.compactions);
        self.compact_cascade();
    }

    /// Compact levels bottom-up until every level is within capacity.
    fn compact_cascade(&mut self) {
        let mut l = 0;
        while l < self.levels.len() {
            if self.levels.get(l).map_or(0, Vec::len) < self.k {
                l += 1;
                continue;
            }
            if l + 1 >= self.levels.len() {
                self.levels.push(Vec::new());
            }
            let Some(level) = self.levels.get_mut(l) else {
                break;
            };
            if l == 0 {
                sort_total(level);
            }
            // Compact an even number of items; an odd straggler stays at
            // this level (smallest item — a deterministic choice) with no
            // error contribution.
            let keep_parity = (self.compactions & 1) as usize;
            self.compactions = self.compactions.wrapping_add(1);
            let start = level.len() % 2;
            let promoted: Vec<f64> = level
                .iter()
                .skip(start + keep_parity)
                .step_by(2)
                .copied()
                .collect();
            level.truncate(start);
            if let Some(next) = self.levels.get_mut(l + 1) {
                *next = merge_total(next, &promoted);
            }
            // A compaction of weight-2^l items shifts any rank by ≤ 2^l.
            self.error_bound = self.error_bound.saturating_add(1u64 << l);
            l += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn true_rank(values: &[f64], x: f64) -> u64 {
        values.iter().filter(|&&v| v <= x).count() as u64
    }

    #[test]
    fn rejects_degenerate_capacity() {
        assert!(RankSketch::new(0).is_err());
        assert!(RankSketch::new(1).is_err());
        assert!(RankSketch::new(2).is_ok());
    }

    #[test]
    fn exact_while_under_capacity() {
        let mut sk = RankSketch::new(64).unwrap();
        let values: Vec<f64> = (0..50).map(|i| (i as f64 * 17.0) % 50.0).collect();
        sk.extend_from_slice(&values);
        assert_eq!(sk.rank_error_bound(), 0);
        for &x in &[-1.0, 0.0, 12.5, 25.0, 49.0, 100.0] {
            assert_eq!(sk.rank(x), true_rank(&values, x));
        }
    }

    #[test]
    fn observed_error_within_declared_bound() {
        let mut sk = RankSketch::new(32).unwrap();
        let values: Vec<f64> = (0..20_000).map(|i| ((i * 37) % 9973) as f64).collect();
        sk.extend_from_slice(&values);
        assert_eq!(sk.count(), values.len() as u64);
        assert!(sk.retained() < values.len() / 4, "sketch must compress");
        let bound = sk.rank_error_bound();
        assert!(bound > 0, "20k records at k=32 must have compacted");
        for q in 0..=20 {
            let x = q as f64 * 500.0;
            let err = sk.rank(x).abs_diff(true_rank(&values, x));
            assert!(err <= bound, "rank error {err} exceeds declared {bound}");
        }
    }

    #[test]
    fn deterministic_across_reruns() {
        let run = || {
            let mut sk = RankSketch::new(16).unwrap();
            for i in 0..5_000u64 {
                sk.insert(((i * 131) % 7919) as f64);
            }
            sk
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn merge_is_commutative_bit_for_bit() {
        let build = |lo: u64, hi: u64| {
            let mut sk = RankSketch::new(16).unwrap();
            for i in lo..hi {
                sk.insert(((i * 193) % 4001) as f64);
            }
            sk
        };
        let a = build(0, 3_000);
        let b = build(3_000, 7_500);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 7_500);
    }

    #[test]
    fn merged_error_bound_still_honest() {
        let mut all: Vec<f64> = Vec::new();
        let mut parts: Vec<RankSketch> = Vec::new();
        for p in 0..4u64 {
            let mut sk = RankSketch::new(24).unwrap();
            for i in 0..4_000u64 {
                let v = ((p * 4_000 + i) as f64 * 0.37) % 1000.0;
                sk.insert(v);
                all.push(v);
            }
            parts.push(sk);
        }
        let mut merged = parts.swap_remove(0);
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged.count(), all.len() as u64);
        let bound = merged.rank_error_bound();
        for q in 0..=10 {
            let x = q as f64 * 100.0;
            let err = merged.rank(x).abs_diff(true_rank(&all, x));
            assert!(err <= bound, "merged rank error {err} > bound {bound}");
        }
    }

    #[test]
    fn weights_always_sum_to_count() {
        let mut sk = RankSketch::new(8).unwrap();
        for i in 0..10_000u64 {
            sk.insert(i as f64);
            if i % 997 == 0 {
                let weighted: u64 = sk
                    .levels
                    .iter()
                    .enumerate()
                    .map(|(l, level)| (level.len() as u64) << l)
                    .sum();
                assert_eq!(weighted, sk.count());
            }
        }
    }

    #[test]
    fn nan_query_matches_linear_scan_semantics() {
        let mut sk = RankSketch::new(8).unwrap();
        sk.extend_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(sk.rank(f64::NAN), 0);
        assert_eq!(sk.rank_lt(f64::NAN), 0);
    }

    #[test]
    fn strict_rank_tracks_ties_and_stays_within_bound() {
        let mut sk = RankSketch::new(8).unwrap();
        let values: Vec<f64> = (0..6_000).map(|i| ((i * 7) % 100) as f64).collect();
        sk.extend_from_slice(&values);
        let bound = sk.rank_error_bound();
        for &x in &[0.0, 13.0, 50.0, 99.0] {
            let truth = values.iter().filter(|&&v| v < x).count() as u64;
            let err = sk.rank_lt(x).abs_diff(truth);
            assert!(err <= bound, "strict-rank error {err} > bound {bound}");
            // Closed rank is never below open rank.
            assert!(sk.rank(x) >= sk.rank_lt(x));
        }
    }
}
