//! The rank sketch against its reference implementation.
//!
//! `oracle::OracleSketch` is the original `RankSketch`: it inserts one
//! record at a time, walks every level after each record, keeps levels
//! in arrival order and sorts through `f64::total_cmp` before each
//! compaction. The production sketch fills level 0 a batch at a time,
//! keeps higher levels sorted and answers ranks by binary search; every
//! observable quantity must still match the oracle exactly, after every
//! operation of random interleavings of `insert`, `extend_from_slice`
//! and `merge`.

use dplearn_numerics::rng::{Rng, Xoshiro256};
use dplearn_numerics::sketch::RankSketch;
use proptest::prelude::*;

mod oracle {
    /// The reference sketch: levels in arrival order, a full cascade walk
    /// after every record, and a sort before every compaction.
    #[derive(Debug, Clone)]
    pub struct OracleSketch {
        /// Per-level capacity before a compaction triggers.
        k: usize,
        /// `levels[l]` holds items of weight `2^l`, in insertion order
        /// (sorted only transiently during compaction).
        levels: Vec<Vec<f64>>,
        /// Exact number of inserted records (weights always sum to this).
        count: u64,
        /// Exact worst-case additive rank error accumulated by compactions.
        error_bound: u64,
        /// Compaction counter; its low bit selects the even- or odd-indexed
        /// survivors, alternating so systematic rank drift cancels.
        compactions: u64,
    }

    impl OracleSketch {
        /// An empty sketch with per-level capacity `k` (≥ 2).
        pub fn new(k: usize) -> Self {
            assert!(k >= 2);
            OracleSketch {
                k,
                levels: vec![Vec::new()],
                count: 0,
                error_bound: 0,
                compactions: 0,
            }
        }

        /// The levels, each in the order the oracle keeps it.
        pub fn levels(&self) -> &[Vec<f64>] {
            &self.levels
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

        /// Worst-case additive error of any [`rank`](OracleSketch::rank)
        /// answer, tracked exactly: the sum of the per-item weights of every
        /// compaction performed so far. `0` until the first compaction, i.e.
        /// the sketch is **exact** while the stream fits in level 0.
        pub fn rank_error_bound(&self) -> u64 {
            self.error_bound
        }

        /// Insert one record.
        pub fn insert(&mut self, x: f64) {
            if let Some(l0) = self.levels.first_mut() {
                l0.push(x);
            }
            self.count = self.count.saturating_add(1);
            self.compact_cascade(0);
        }

        /// Insert a batch of records in order.
        pub fn extend_from_slice(&mut self, xs: &[f64]) {
            for &x in xs {
                self.insert(x);
            }
        }

        /// Estimated `#{v ≤ x}` over everything inserted, within
        /// ±[`rank_error_bound`](OracleSketch::rank_error_bound) of the truth.
        ///
        /// NaN queries return 0 (no record compares ≤ NaN), matching the
        /// linear-scan `v <= x` filter the exact path uses.
        pub fn rank(&self, x: f64) -> u64 {
            let mut total: u64 = 0;
            for (l, level) in self.levels.iter().enumerate() {
                let below = level.iter().filter(|&&v| v <= x).count() as u64;
                total = total.saturating_add(below << l);
            }
            total
        }

        /// Estimated `#{v < x}` — the strict (open) rank companion to
        /// [`rank`](OracleSketch::rank), within the same
        /// ±[`rank_error_bound`](OracleSketch::rank_error_bound). Interval
        /// counts use `rank(hi) − rank_lt(lo)` so records equal to the lower
        /// endpoint are included.
        ///
        /// NaN queries return 0, matching the linear-scan `v < x` filter.
        pub fn rank_lt(&self, x: f64) -> u64 {
            let mut total: u64 = 0;
            for (l, level) in self.levels.iter().enumerate() {
                let below = level.iter().filter(|&&v| v < x).count() as u64;
                total = total.saturating_add(below << l);
            }
            total
        }

        /// Merge another sketch into this one. The result summarizes the
        /// union of both streams; counts add, error bounds add, and the
        /// merged sketch is **bit-identical regardless of argument order**
        /// (compaction sorts under a total order before halving).
        ///
        /// The merged sketch keeps `self`'s capacity; merging a sketch built
        /// with a different `k` is permitted and simply re-compacts the
        /// incoming items under `self.k`.
        pub fn merge(&mut self, other: &OracleSketch) {
            if other.levels.len() > self.levels.len() {
                self.levels.resize(other.levels.len(), Vec::new());
            }
            for (l, level) in other.levels.iter().enumerate() {
                if let Some(mine) = self.levels.get_mut(l) {
                    mine.extend_from_slice(level);
                }
            }
            self.count = self.count.saturating_add(other.count);
            self.error_bound = self.error_bound.saturating_add(other.error_bound);
            self.compactions = self.compactions.saturating_add(other.compactions);
            // Canonicalize: sort every level so the merged state depends only
            // on the multisets, not on which operand contributed first, then
            // let the cascade restore the capacity invariant.
            for level in &mut self.levels {
                level.sort_unstable_by(f64::total_cmp);
            }
            self.compact_cascade(0);
        }

        /// Compact levels `from..` until every level is within capacity.
        fn compact_cascade(&mut self, from: usize) {
            let mut l = from;
            while l < self.levels.len() {
                let len = self.levels.get(l).map_or(0, Vec::len);
                if len < self.k.max(2) || len < 2 {
                    l += 1;
                    continue;
                }
                if l + 1 >= self.levels.len() {
                    self.levels.push(Vec::new());
                }
                let mut buf = match self.levels.get_mut(l) {
                    Some(level) => std::mem::take(level),
                    None => break,
                };
                buf.sort_unstable_by(f64::total_cmp);
                // Compact an even number of items; an odd straggler stays at
                // this level (smallest item — a deterministic choice) with no
                // error contribution.
                let keep_parity = (self.compactions & 1) as usize;
                self.compactions = self.compactions.wrapping_add(1);
                let start = buf.len() % 2;
                let mut promoted: Vec<f64> = Vec::with_capacity(buf.len() / 2);
                for (i, &v) in buf.iter().enumerate().skip(start) {
                    if (i - start) % 2 == keep_parity {
                        promoted.push(v);
                    }
                }
                let straggler = if start == 1 {
                    buf.first().copied()
                } else {
                    None
                };
                if let Some(level) = self.levels.get_mut(l) {
                    level.clear();
                    if let Some(s) = straggler {
                        level.push(s);
                    }
                }
                if let Some(next) = self.levels.get_mut(l + 1) {
                    next.extend_from_slice(&promoted);
                }
                // A compaction of weight-2^l items shifts any rank by ≤ 2^l.
                self.error_bound = self.error_bound.saturating_add(1u64 << l);
                l += 1;
            }
        }
    }
}

use oracle::OracleSketch;

/// A record drawn to hit every corner of the total order: duplicates
/// from a small grid, signed zeros, infinities, and NaNs of both signs
/// (with and without payload bits), beside ordinary finite values.
fn record(rng: &mut Xoshiro256) -> f64 {
    match rng.next_below(16) {
        0 => f64::NAN,
        1 => -f64::NAN,
        2 => f64::from_bits(0x7FF0_0000_0000_0001 + rng.next_below(1 << 20)),
        3 => f64::from_bits(0xFFF0_0000_0000_0001 + rng.next_below(1 << 20)),
        4 => 0.0,
        5 => -0.0,
        6 => f64::INFINITY,
        7 => f64::NEG_INFINITY,
        8..=11 => rng.next_below(9) as f64 - 4.0,
        _ => (rng.next_f64() - 0.5) * 1e6,
    }
}

fn batch(rng: &mut Xoshiro256) -> Vec<f64> {
    // Lengths 0–3000, so batches land below, at and across k.
    let len = match rng.next_below(4) {
        0 => rng.next_below(4),
        1 => rng.next_below(300),
        _ => rng.next_below(3001),
    };
    (0..len).map(|_| record(rng)).collect()
}

fn sorted_bits(items: &[f64]) -> Vec<u64> {
    let mut v = items.to_vec();
    v.sort_by(f64::total_cmp);
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_matches(sketch: &RankSketch, oracle: &OracleSketch, probes: &[f64], step: usize) {
    assert_eq!(sketch.count(), oracle.count(), "count after step {step}");
    assert_eq!(
        sketch.rank_error_bound(),
        oracle.rank_error_bound(),
        "error bound after step {step}"
    );
    assert_eq!(
        sketch.retained(),
        oracle.retained(),
        "retained after step {step}"
    );
    let levels: Vec<&[f64]> = sketch.levels().collect();
    let expected = oracle.levels();
    assert_eq!(
        levels.len(),
        expected.len(),
        "level count after step {step}"
    );
    for (l, (got, want)) in levels.iter().zip(expected).enumerate() {
        assert_eq!(
            sorted_bits(got),
            sorted_bits(want),
            "level {l} multiset after step {step}"
        );
        if l > 0 {
            assert!(
                got.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
                "level {l} unsorted after step {step}"
            );
        }
    }
    for &x in probes {
        assert_eq!(
            sketch.rank(x),
            oracle.rank(x),
            "rank({x:?}) after step {step}"
        );
        assert_eq!(
            sketch.rank_lt(x),
            oracle.rank_lt(x),
            "rank_lt({x:?}) after step {step}"
        );
    }
}

/// Run one random interleaving of insert, extend and merge at capacity
/// `k`, checking the sketch against the oracle after every step.
fn check_interleaving(seed: u64, k: usize) {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut probes = vec![
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
        5e-324,
        -5e-324,
    ];
    probes.extend((-5..=5).map(f64::from));
    probes.extend((0..8).map(|_| record(&mut rng)));

    let mut sketch = RankSketch::new(k).unwrap();
    let mut oracle = OracleSketch::new(k);
    for step in 0..24 {
        match rng.next_below(4) {
            0 => {
                for _ in 0..rng.next_below(2 * k as u64 + 2) {
                    let x = record(&mut rng);
                    sketch.insert(x);
                    oracle.insert(x);
                }
            }
            1 | 2 => {
                let xs = batch(&mut rng);
                sketch.extend_from_slice(&xs);
                oracle.extend_from_slice(&xs);
            }
            _ => {
                // Merge a sketch grown from its own batches, sometimes
                // at another capacity, sometimes a copy of this one.
                let (other, other_oracle) = if rng.next_below(4) == 0 {
                    (sketch.clone(), oracle.clone())
                } else {
                    let k_other = [2, 3, 8, k][rng.next_below(4) as usize];
                    let mut s = RankSketch::new(k_other).unwrap();
                    let mut o = OracleSketch::new(k_other);
                    for _ in 0..=rng.next_below(3) {
                        let xs = batch(&mut rng);
                        s.extend_from_slice(&xs);
                        o.extend_from_slice(&xs);
                    }
                    (s, o)
                };
                assert_matches(&other, &other_oracle, &probes, step);
                sketch.merge(&other);
                oracle.merge(&other_oracle);
            }
        }
        assert_matches(&sketch, &oracle, &probes, step);
    }
}

proptest! {
    #[test]
    fn sketch_matches_the_per_record_oracle(seed in any::<u64>()) {
        for k in [2, 3, 8, 256] {
            check_interleaving(seed ^ k as u64, k);
        }
    }
}

#[test]
fn merge_stays_commutative_bit_for_bit_with_nans_and_signed_zeros() {
    let mut rng = Xoshiro256::seed_from(7);
    let mut a = RankSketch::new(8).unwrap();
    let mut b = RankSketch::new(8).unwrap();
    for _ in 0..3 {
        a.extend_from_slice(&batch(&mut rng));
        b.extend_from_slice(&batch(&mut rng));
    }
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab.count(), ba.count());
    let bits = |s: &RankSketch| -> Vec<Vec<u64>> {
        s.levels()
            .map(|l| l.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    assert_eq!(bits(&ab), bits(&ba));
}
