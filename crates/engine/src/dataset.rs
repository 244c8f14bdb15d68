//! Bounds-validated datasets with streaming sufficient statistics.
//!
//! The engine serves queries against datasets of scalar records over a
//! declared bounded domain `[lo, hi]`. The bounds are not advisory: every
//! built-in mechanism's sensitivity claim (counts change by ≤ 1, sums by
//! ≤ `hi − lo` under replace-one adjacency) is **derived from them**, so
//! registration fails closed on any record outside the domain or any
//! non-finite record — a NaN row would silently void every downstream DP
//! guarantee.
//!
//! Datasets are no longer frozen at registration: [`Dataset::append`]
//! and [`Dataset::merge`] absorb new records as a stream arrives, each
//! mutation bumping an **epoch counter** that derived caches key on so
//! stale statistics are never served. The sufficient statistics come in
//! two modes (see [`StatsMode`]):
//!
//! * **Exact** (the default): a full sorted copy, every rank answer
//!   bit-identical to a linear scan — the original registration-time
//!   behavior, O(n) extra memory.
//! * **Sketch**: a deterministic mergeable rank sketch
//!   ([`dplearn_numerics::sketch::RankSketch`]) with an exactly-tracked
//!   worst-case rank error, O(k log(n/k)) memory and O(1) amortized
//!   ingest — the streaming configuration for datasets that grow to
//!   millions of records.

use crate::{EngineError, Result};
use dplearn_numerics::order::{merge_total, sort_total};
use dplearn_numerics::sketch::{RankSketch, DEFAULT_SKETCH_K};

/// How a dataset maintains its rank statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsMode {
    /// Full sorted copy: rank queries bit-identical to a linear scan.
    Exact,
    /// Mergeable rank sketch with per-level capacity `k`: approximate
    /// ranks within an exactly-tracked worst-case bound, logarithmic
    /// memory, constant-amortized ingest.
    Sketch {
        /// Per-level compactor capacity (≥ 2); larger is more accurate.
        k: usize,
    },
}

#[derive(Debug, Clone, PartialEq)]
enum StatsBacking {
    Exact { sorted: Vec<f64> },
    Sketch { sketch: RankSketch },
}

/// Sufficient statistics of a [`Dataset`], maintained incrementally as
/// records stream in and shared read-only across the engine's parallel
/// batch phase.
///
/// Everything a built-in mechanism reads from the raw records is
/// derivable from these: the count, the running sum (records are
/// clamp-validated into `[lo, hi]` before they reach the accumulator, so
/// this *is* the clamped sum the Laplace-sum sensitivity argument is
/// stated over), and a rank structure answering `#{v ≤ x}` queries.
///
/// # Running-sum semantics
///
/// The sum is a **Kahan-compensated running sum in arrival order**:
///
/// * For a dataset built in one shot (no appends), the build-time
///   accumulation uses the same naive left-to-right order as
///   `values.iter().sum()`, so the cached sum is **bit-identical** to a
///   per-request linear scan — the original registration-time contract.
/// * Each appended batch is folded into the compensated accumulator in
///   arrival order. The result is then guaranteed equal to the exact sum
///   up to the compensation's one-ulp-per-refold drift ("equality up to
///   refold"): re-building the dataset from the concatenated records may
///   differ from the streamed sum in the last ulp, and
///   the (crate-internal) stats merge folds the *partial sums* rather than the
///   records, so merge order moves the sum only within that same
///   tolerance. Counts and rank structures carry no such caveat — they
///   are order-independent exactly (exact mode) or bit-identical under
///   merge reordering (sketch mode).
#[derive(Debug, Clone, PartialEq)]
pub struct SufficientStats {
    count: usize,
    sum: f64,
    /// Kahan compensation of the running sum (0 until the first append).
    comp: f64,
    backing: StatsBacking,
}

impl SufficientStats {
    fn build(values: &[f64], mode: StatsMode) -> Self {
        // Same iteration order as `values.iter().sum()` over the raw
        // records: the build-time sum is bit-identical to a per-request
        // scan (the Kahan compensation starts at zero and only becomes
        // live on the first append).
        let sum = values.iter().sum();
        let backing = match mode {
            StatsMode::Exact => {
                let mut sorted = values.to_vec();
                sort_total(&mut sorted);
                StatsBacking::Exact { sorted }
            }
            StatsMode::Sketch { k } => {
                let mut sketch =
                    RankSketch::new(k).unwrap_or_else(|_| RankSketch::with_default_capacity());
                sketch.extend_from_slice(values);
                StatsBacking::Sketch { sketch }
            }
        };
        SufficientStats {
            count: values.len(),
            sum,
            comp: 0.0,
            backing,
        }
    }

    /// Number of records.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Sum of all records (equal to the clamped sum — records are
    /// validated into the declared domain before they reach the
    /// accumulator). See the type docs for the running-sum semantics.
    pub fn sum(&self) -> f64 {
        // A zero compensation is skipped rather than added: `-0.0 + 0.0`
        // is `+0.0`, which would break the pre-append bit-identity
        // contract for datasets whose build-time sum is `-0.0`.
        if self.comp == 0.0 || !self.sum.is_finite() {
            self.sum
        } else {
            self.sum + self.comp
        }
    }

    /// The records in ascending order — `Some` in exact mode, `None` in
    /// sketch mode (the whole point of the sketch is not keeping them).
    pub fn sorted(&self) -> Option<&[f64]> {
        match &self.backing {
            StatsBacking::Exact { sorted } => Some(sorted),
            StatsBacking::Sketch { .. } => None,
        }
    }

    /// Whether rank answers are exact (sorted copy) or sketched.
    pub fn is_exact(&self) -> bool {
        matches!(self.backing, StatsBacking::Exact { .. })
    }

    /// Worst-case additive error of any rank answer: 0 in exact mode,
    /// the sketch's exactly-tracked bound otherwise.
    pub fn rank_error_bound(&self) -> u64 {
        match &self.backing {
            StatsBacking::Exact { .. } => 0,
            StatsBacking::Sketch { sketch } => sketch.rank_error_bound(),
        }
    }

    /// `#{v ≤ x}`. Exact mode: binary search, identical to a linear
    /// scan. Sketch mode: within ±[`rank_error_bound`](Self::rank_error_bound).
    pub fn rank(&self, x: f64) -> usize {
        match &self.backing {
            StatsBacking::Exact { sorted } => sorted.partition_point(|&v| v <= x),
            StatsBacking::Sketch { sketch } => {
                usize::try_from(sketch.rank(x)).unwrap_or(usize::MAX)
            }
        }
    }

    /// `#{v < x}` — the open-rank companion used for interval counts.
    fn rank_lt(&self, x: f64) -> usize {
        match &self.backing {
            StatsBacking::Exact { sorted } => sorted.partition_point(|&v| v < x),
            StatsBacking::Sketch { sketch } => {
                usize::try_from(sketch.rank_lt(x)).unwrap_or(usize::MAX)
            }
        }
    }

    /// `#{lo ≤ v ≤ hi}` via two rank queries. Exact in exact mode; in
    /// sketch mode each endpoint carries the sketch's rank error.
    // The negated comparison is deliberate: `!(lo <= hi)` is true for
    // inverted *and* NaN bounds, which must both match no record.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn count_between(&self, lo: f64, hi: f64) -> usize {
        // Empty, inverted, or NaN intervals match no record — exactly as
        // the linear scan's `v >= lo && v <= hi` filter behaves.
        if !(lo <= hi) {
            return 0;
        }
        self.rank(hi).saturating_sub(self.rank_lt(lo))
    }

    /// Fold a validated batch into the statistics, in arrival order.
    fn append(&mut self, values: &[f64]) {
        for &v in values {
            // Kahan (Neumaier) compensated accumulation: the running sum
            // stays within one ulp of the exact sum however many batches
            // stream in.
            let t = self.sum + v;
            if self.sum.abs() >= v.abs() {
                self.comp += (self.sum - t) + v;
            } else {
                self.comp += (v - t) + self.sum;
            }
            self.sum = t;
        }
        self.count += values.len();
        match &mut self.backing {
            StatsBacking::Exact { sorted } => {
                let mut batch = values.to_vec();
                sort_total(&mut batch);
                *sorted = merge_total(sorted, &batch);
            }
            StatsBacking::Sketch { sketch } => sketch.extend_from_slice(values),
        }
    }

    /// Merge another statistic of the **same mode** into this one.
    ///
    /// Counts add exactly; rank structures merge exactly (exact mode) or
    /// bit-identically-commutatively (sketch mode); the sums fold as
    /// partial sums, which is commutative only up to the refold
    /// tolerance documented on the type.
    fn merge(&mut self, other: &SufficientStats) -> Result<()> {
        match (&mut self.backing, &other.backing) {
            (StatsBacking::Exact { sorted }, StatsBacking::Exact { sorted: theirs }) => {
                *sorted = merge_total(sorted, theirs);
            }
            (StatsBacking::Sketch { sketch }, StatsBacking::Sketch { sketch: theirs }) => {
                sketch.merge(theirs);
            }
            _ => {
                return Err(EngineError::InvalidParameter {
                    name: "stats_mode",
                    reason: "cannot merge exact-mode and sketch-mode statistics".to_string(),
                })
            }
        }
        // Fold the partial sums (and their compensations) through the
        // same Neumaier update the record path uses.
        for v in [other.sum, other.comp] {
            let t = self.sum + v;
            if self.sum.abs() >= v.abs() {
                self.comp += (self.sum - t) + v;
            } else {
                self.comp += (v - t) + self.sum;
            }
            self.sum = t;
        }
        self.count += other.count;
        Ok(())
    }
}

/// A dataset of scalar records over a bounded domain, growable by
/// validated appends.
#[derive(Debug, Clone)]
pub struct Dataset {
    name: String,
    values: Vec<f64>,
    lo: f64,
    hi: f64,
    // Derived deterministically from the record stream; excluded from
    // equality (two datasets are equal iff their declared contents are).
    stats: SufficientStats,
    // Administrative stream state, also excluded from equality: `epoch`
    // counts structural mutations (0 at construction, +1 per
    // append/merge) so caches can tag what they derived from; and
    // `batch_lens` records the arrival batching (registration batch
    // first) for continual-release mechanisms that replay the stream.
    // Two datasets holding the same records via different append
    // histories compare equal — the records are the data, the history
    // is bookkeeping.
    epoch: u64,
    batch_lens: Vec<usize>,
}

impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.values == other.values
            && self.lo == other.lo
            && self.hi == other.hi
    }
}

impl Dataset {
    /// Validate and seal a dataset with exact-mode statistics.
    ///
    /// Fails closed on: empty name, empty data, non-finite or inverted
    /// bounds, and any record that is non-finite or outside `[lo, hi]`.
    pub fn new(name: &str, values: Vec<f64>, lo: f64, hi: f64) -> Result<Self> {
        Self::with_mode(name, values, lo, hi, StatsMode::Exact)
    }

    /// [`Dataset::new`] with an explicit statistics mode. Use
    /// `StatsMode::Sketch { k: DEFAULT_SKETCH_K }` (or
    /// [`Dataset::new_streaming`]) for datasets expected to absorb large
    /// streams.
    pub fn with_mode(
        name: &str,
        values: Vec<f64>,
        lo: f64,
        hi: f64,
        mode: StatsMode,
    ) -> Result<Self> {
        if name.is_empty() {
            return Err(EngineError::InvalidParameter {
                name: "name",
                reason: "dataset name must be non-empty".to_string(),
            });
        }
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(EngineError::InvalidParameter {
                name: "bounds",
                reason: format!("need finite lo < hi, got [{lo}, {hi}]"),
            });
        }
        if values.is_empty() {
            return Err(EngineError::InvalidParameter {
                name: "values",
                reason: "dataset must be non-empty".to_string(),
            });
        }
        if let StatsMode::Sketch { k } = mode {
            if k < 2 {
                return Err(EngineError::InvalidParameter {
                    name: "k",
                    reason: format!("sketch capacity must be ≥ 2, got {k}"),
                });
            }
        }
        for (i, &v) in values.iter().enumerate() {
            if !v.is_finite() || v < lo || v > hi {
                return Err(EngineError::InvalidParameter {
                    name: "values",
                    reason: format!(
                        "record {i} is {v}, outside the declared domain [{lo}, {hi}]; \
                         sensitivity bounds would be void"
                    ),
                });
            }
        }
        let stats = SufficientStats::build(&values, mode);
        let batch_lens = vec![values.len()];
        Ok(Dataset {
            name: name.to_string(),
            values,
            lo,
            hi,
            stats,
            epoch: 0,
            batch_lens,
        })
    }

    /// A sketch-mode dataset at the default sketch capacity — the
    /// streaming configuration.
    pub fn new_streaming(name: &str, values: Vec<f64>, lo: f64, hi: f64) -> Result<Self> {
        Self::with_mode(
            name,
            values,
            lo,
            hi,
            StatsMode::Sketch {
                k: DEFAULT_SKETCH_K,
            },
        )
    }

    /// The sufficient statistics for the current epoch.
    pub fn stats(&self) -> &SufficientStats {
        &self.stats
    }

    /// The statistics mode this dataset maintains.
    pub fn stats_mode(&self) -> StatsMode {
        match &self.stats.backing {
            StatsBacking::Exact { .. } => StatsMode::Exact,
            StatsBacking::Sketch { sketch } => StatsMode::Sketch {
                k: sketch.capacity(),
            },
        }
    }

    /// Structural mutation counter: 0 at construction, +1 per successful
    /// [`Dataset::append`]/[`Dataset::merge`]. Caches derived from the
    /// statistics must tag themselves with the epoch they read and
    /// rebuild when it moves — serving epoch-`e` answers from epoch-`e′`
    /// statistics silently mis-states every sensitivity argument.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Arrival batching of the record stream: the registration batch
    /// first, then one entry per append/merge, in order. Continual
    /// mechanisms replay this to reconstruct per-step counts.
    pub fn batch_lens(&self) -> &[usize] {
        &self.batch_lens
    }

    /// The dataset's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false — construction rejects empty datasets; provided for
    /// the `len`/`is_empty` pair convention.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Lower domain bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper domain bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Domain width `hi − lo` — the replace-one sensitivity of a sum.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// The records (read-only).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Validate an append batch against the domain without mutating:
    /// non-empty, every record finite and inside `[lo, hi]`. The engine
    /// calls this before writing the durable append record so a rejected
    /// batch provably changes nothing.
    pub fn validate_batch(&self, values: &[f64]) -> Result<()> {
        if values.is_empty() {
            return Err(EngineError::InvalidParameter {
                name: "values",
                reason: "append batch must be non-empty".to_string(),
            });
        }
        for (i, &v) in values.iter().enumerate() {
            if !v.is_finite() || v < self.lo || v > self.hi {
                return Err(EngineError::InvalidParameter {
                    name: "values",
                    reason: format!(
                        "append record {i} is {v}, outside the declared domain [{}, {}]; \
                         sensitivity bounds would be void",
                        self.lo, self.hi
                    ),
                });
            }
        }
        Ok(())
    }

    /// Append a batch of records as the stream grows. All-or-nothing:
    /// the batch is fully validated (see [`Dataset::validate_batch`])
    /// before anything mutates, so a failed append leaves the dataset —
    /// and its epoch — untouched.
    pub fn append(&mut self, values: &[f64]) -> Result<()> {
        self.validate_batch(values)?;
        self.values.extend_from_slice(values);
        self.stats.append(values);
        self.batch_lens.push(values.len());
        self.epoch += 1;
        Ok(())
    }

    /// Merge another dataset's records into this one (one structural
    /// mutation, one epoch bump). Requires bit-identical domain bounds
    /// and the same statistics mode — merging across domains would void
    /// the sensitivity arguments, and exact/sketch rank structures do
    /// not compose.
    pub fn merge(&mut self, other: &Dataset) -> Result<()> {
        if self.lo.to_bits() != other.lo.to_bits() || self.hi.to_bits() != other.hi.to_bits() {
            return Err(EngineError::InvalidParameter {
                name: "bounds",
                reason: format!(
                    "cannot merge domain [{}, {}] into [{}, {}]",
                    other.lo, other.hi, self.lo, self.hi
                ),
            });
        }
        self.stats.merge(&other.stats)?;
        self.values.extend_from_slice(&other.values);
        self.batch_lens.push(other.values.len());
        self.epoch += 1;
        Ok(())
    }

    /// Number of records in `[lo, hi]` (inclusive). Sensitivity 1 under
    /// replace-one adjacency.
    ///
    /// Exact mode answers from the sorted sufficient-statistic copy in
    /// O(log n) — exactly what a linear scan of the records returns.
    /// Sketch mode answers within the sketch's declared rank error per
    /// endpoint.
    pub fn count_in(&self, lo: f64, hi: f64) -> usize {
        self.stats.count_between(lo, hi)
    }

    /// Sum of all records. Bounded by construction; sensitivity
    /// [`width`](Dataset::width) under replace-one adjacency.
    ///
    /// Returned from the sufficient-statistic running sum (bit-identical
    /// to a per-request scan until the first append; see
    /// [`SufficientStats`] for the streaming semantics).
    pub fn sum(&self) -> f64 {
        self.stats.sum()
    }

    /// Histogram of the domain split into `bins` equal-width bins
    /// (last bin closed), as `f64` counts ready for selection scoring.
    /// Each count has sensitivity 1 under replace-one adjacency.
    ///
    /// Fails closed when the per-bin width `(hi − lo) / bins`
    /// underflows to zero or subnormal (astronomically many bins over a
    /// narrow domain): the index computation `(v − lo) / w` would go
    /// NaN/∞ and silently skew the histogram into the edge bins.
    pub fn bin_counts(&self, bins: usize) -> Result<Vec<f64>> {
        if bins == 0 {
            return Err(EngineError::InvalidParameter {
                name: "bins",
                reason: "need at least one bin".to_string(),
            });
        }
        let w = self.width() / bins as f64;
        if !w.is_normal() {
            return Err(EngineError::InvalidParameter {
                name: "bins",
                reason: format!(
                    "bin width ({} / {bins}) underflows to {w:e}; bin indices would be \
                     NaN or infinite and the histogram silently skewed",
                    self.width()
                ),
            });
        }
        let mut counts = vec![0.0f64; bins];
        for &v in &self.values {
            let idx = (((v - self.lo) / w) as usize).min(bins - 1);
            if let Some(c) = counts.get_mut(idx) {
                *c += 1.0;
            }
        }
        Ok(counts)
    }

    /// `k` evenly spaced candidate points spanning the domain (both
    /// endpoints included). Data-independent, so safe to publish.
    ///
    /// Fails closed for `k = 0`: an empty grid would flow into selection
    /// mechanisms as an empty score vector and surface as a confusing
    /// downstream error (or worse, a silent no-op release).
    pub fn candidate_grid(&self, k: usize) -> Result<Vec<f64>> {
        if k == 0 {
            return Err(EngineError::InvalidParameter {
                name: "k",
                reason: "need at least one candidate point".to_string(),
            });
        }
        if k == 1 {
            return Ok(vec![(self.lo + self.hi) / 2.0]);
        }
        Ok((0..k)
            .map(|i| self.lo + self.width() * i as f64 / (k - 1) as f64)
            .collect())
    }

    /// Empirical rank risk of each candidate `c` as a `q`-quantile
    /// estimate: `R̂(c) = |#{x ≤ c}/n − q|`. The loss is bounded in
    /// `[0, 1]` and replacing one record moves each risk by at most
    /// `1/n` — the Gibbs-posterior quantile mechanism's sensitivity.
    ///
    /// Exact mode: each rank is a binary search of the sorted copy
    /// (O(k log n)), bit-identical to the linear-scan evaluation. Sketch
    /// mode: each rank carries the sketch's declared error, so each risk
    /// is within `rank_error_bound / n` of the exact risk.
    pub fn rank_risks(&self, candidates: &[f64], q: f64) -> Vec<f64> {
        let n = self.values.len() as f64;
        candidates
            .iter()
            .map(|&c| {
                let below = self.stats.rank(c) as f64;
                (below / n - q).abs()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Dataset::new("d", vec![0.5], 0.0, 1.0).is_ok());
        assert!(Dataset::new("", vec![0.5], 0.0, 1.0).is_err());
        assert!(Dataset::new("d", vec![], 0.0, 1.0).is_err());
        assert!(Dataset::new("d", vec![0.5], 1.0, 0.0).is_err());
        assert!(Dataset::new("d", vec![0.5], 0.0, f64::INFINITY).is_err());
        assert!(Dataset::new("d", vec![1.5], 0.0, 1.0).is_err());
        assert!(Dataset::new("d", vec![f64::NAN], 0.0, 1.0).is_err());
        assert!(Dataset::new("d", vec![f64::NEG_INFINITY], -1e308, 1.0).is_err());
        assert!(Dataset::with_mode("d", vec![0.5], 0.0, 1.0, StatsMode::Sketch { k: 1 }).is_err());
        assert!(Dataset::new_streaming("d", vec![0.5], 0.0, 1.0).is_ok());
    }

    #[test]
    fn counts_sums_and_bins() {
        let d = Dataset::new("d", vec![0.1, 0.4, 0.6, 0.9], 0.0, 1.0).unwrap();
        assert_eq!(d.len(), 4);
        assert_eq!(d.count_in(0.0, 0.5), 2);
        assert_eq!(d.count_in(0.6, 0.6), 1);
        assert!((d.sum() - 2.0).abs() < 1e-12);
        let bins = d.bin_counts(2).unwrap();
        assert_eq!(bins, vec![2.0, 2.0]);
        // The top edge lands in the last bin.
        let edge = Dataset::new("e", vec![1.0], 0.0, 1.0).unwrap();
        assert_eq!(edge.bin_counts(4).unwrap(), vec![0.0, 0.0, 0.0, 1.0]);
        assert!(d.bin_counts(0).is_err());
    }

    #[test]
    fn bin_width_underflow_fails_closed() {
        // Regression: width / bins underflowing to 0 (or subnormal) used
        // to make (v − lo)/w NaN (→ bin 0) or +∞ (→ last bin) and
        // silently skew the histogram. Now a typed rejection.
        let d = Dataset::new("d", vec![2e-308, 4e-308], 0.0, 5e-308).unwrap();
        let err = d.bin_counts(4).unwrap_err();
        assert!(
            matches!(err, EngineError::InvalidParameter { name: "bins", .. }),
            "want typed InvalidParameter, got {err:?}"
        );
        // A healthy domain at the same bin count is unaffected.
        let ok = Dataset::new("d", vec![0.5], 0.0, 1.0).unwrap();
        assert!(ok.bin_counts(4).is_ok());
        // Even a huge-but-representable bin count over a unit domain
        // stays normal and works.
        assert!(ok.bin_counts(65_536).is_ok());
    }

    #[test]
    fn candidate_grid_spans_domain() {
        let d = Dataset::new("d", vec![0.5], -1.0, 3.0).unwrap();
        let g = d.candidate_grid(5).unwrap();
        assert_eq!(g, vec![-1.0, 0.0, 1.0, 2.0, 3.0]);
        assert_eq!(d.candidate_grid(1).unwrap(), vec![1.0]);
    }

    #[test]
    fn empty_candidate_grid_fails_closed() {
        // Regression: k = 0 used to return an empty grid, which
        // downstream selection saw as an empty score vector.
        let d = Dataset::new("d", vec![0.5], 0.0, 1.0).unwrap();
        let err = d.candidate_grid(0).unwrap_err();
        assert!(
            matches!(err, EngineError::InvalidParameter { name: "k", .. }),
            "want typed InvalidParameter, got {err:?}"
        );
    }

    #[test]
    fn zero_compensation_preserves_sum_bits() {
        // Regression: `sum + comp` with comp == +0.0 flips a `-0.0`
        // accumulator to `+0.0`; a zero compensation must be skipped so
        // the accumulator comes back bit-for-bit.
        let mut s = SufficientStats::build(&[-0.0, -0.0], StatsMode::Exact);
        s.sum = -0.0;
        assert_eq!(s.sum().to_bits(), (-0.0f64).to_bits());
        // A live compensation still participates.
        s.sum = 1.0;
        s.comp = 0.5;
        assert_eq!(s.sum(), 1.5);
    }

    #[test]
    fn sufficient_stats_match_linear_scans_bit_for_bit() {
        // Awkward values: duplicates, domain endpoints, negatives.
        let values = vec![0.25, -1.0, 0.25, 3.0, 1.5, -0.5, 3.0, 0.0, 2.75];
        let d = Dataset::new("d", values.clone(), -1.0, 3.0).unwrap();
        let s = d.stats();
        assert_eq!(s.count(), values.len());
        assert_eq!(s.sum().to_bits(), values.iter().sum::<f64>().to_bits());
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(s.sorted().unwrap(), sorted.as_slice());
        // count_in answered from the sorted copy equals the linear scan
        // for every probe interval, including empty, inverted, and
        // endpoint-touching ones.
        let probes = [
            (-1.0, 3.0),
            (0.0, 0.25),
            (0.25, 0.25),
            (2.0, 1.0), // inverted → 0
            (-5.0, -2.0),
            (3.0, 3.0),
            (f64::NAN, 1.0),
        ];
        for &(lo, hi) in &probes {
            let scan = values.iter().filter(|&&v| v >= lo && v <= hi).count();
            assert_eq!(d.count_in(lo, hi), scan, "probe [{lo}, {hi}]");
        }
        // Ranks match the scan count at every candidate.
        for &c in &[-2.0, -1.0, 0.1, 0.25, 2.9, 3.0, 4.0] {
            let scan = values.iter().filter(|&&v| v <= c).count();
            assert_eq!(s.rank(c), scan, "rank at {c}");
        }
    }

    #[test]
    fn appended_stats_match_rebuilt_exact_stats() {
        // Stream three batches in; ranks and counts must be exactly the
        // rebuilt-from-scratch answers, the sum within the documented
        // refold tolerance (and here bit-equal in practice for a
        // same-order rebuild, but the pin is the tolerance).
        let b0 = vec![0.1, 0.9, 0.5];
        let b1 = vec![0.3, 0.3, 0.7];
        let b2 = vec![0.0, 1.0];
        let mut d = Dataset::new("d", b0.clone(), 0.0, 1.0).unwrap();
        assert_eq!(d.epoch(), 0);
        d.append(&b1).unwrap();
        d.append(&b2).unwrap();
        assert_eq!(d.epoch(), 2);
        assert_eq!(d.batch_lens(), &[3, 3, 2]);

        let all: Vec<f64> = b0.iter().chain(&b1).chain(&b2).copied().collect();
        let rebuilt = Dataset::new("d", all.clone(), 0.0, 1.0).unwrap();
        assert_eq!(d.len(), rebuilt.len());
        assert_eq!(
            d.stats().sorted().unwrap(),
            rebuilt.stats().sorted().unwrap()
        );
        for &c in &[-0.1, 0.0, 0.3, 0.5, 0.70001, 1.0] {
            assert_eq!(d.stats().rank(c), rebuilt.stats().rank(c), "rank at {c}");
        }
        let exact: f64 = all.iter().sum();
        assert!((d.sum() - exact).abs() <= 1e-12 * exact.abs().max(1.0));
    }

    #[test]
    fn append_is_all_or_nothing() {
        let mut d = Dataset::new("d", vec![0.5], 0.0, 1.0).unwrap();
        let before = d.clone();
        // Batch with a poisonous tail: nothing may land.
        assert!(d.append(&[0.1, 0.2, 7.0]).is_err());
        assert!(d.append(&[0.1, f64::NAN]).is_err());
        assert!(d.append(&[]).is_err());
        assert_eq!(d, before);
        assert_eq!(d.epoch(), 0);
        assert_eq!(d.len(), 1);
        assert_eq!(d.sum().to_bits(), before.sum().to_bits());
    }

    #[test]
    fn merge_requires_matching_bounds_and_mode() {
        let mut a = Dataset::new("a", vec![0.2], 0.0, 1.0).unwrap();
        let b = Dataset::new("b", vec![0.8], 0.0, 1.0).unwrap();
        let wrong_domain = Dataset::new("c", vec![0.5], 0.0, 2.0).unwrap();
        let sketchy = Dataset::new_streaming("s", vec![0.5], 0.0, 1.0).unwrap();
        assert!(a.merge(&wrong_domain).is_err());
        assert!(a.merge(&sketchy).is_err());
        assert_eq!(a.epoch(), 0, "failed merges must not bump the epoch");
        a.merge(&b).unwrap();
        assert_eq!(a.epoch(), 1);
        assert_eq!(a.len(), 2);
        assert_eq!(a.stats().sorted().unwrap(), &[0.2, 0.8]);
    }

    #[test]
    fn sketch_mode_answers_within_declared_error() {
        let values: Vec<f64> = (0..30_000).map(|i| ((i * 37) % 9973) as f64).collect();
        let mut d = Dataset::with_mode(
            "d",
            values.clone(),
            0.0,
            9973.0,
            StatsMode::Sketch { k: 64 },
        )
        .unwrap();
        let extra: Vec<f64> = (0..5_000).map(|i| ((i * 53) % 9973) as f64).collect();
        d.append(&extra).unwrap();
        let all: Vec<f64> = values.iter().chain(&extra).copied().collect();
        assert!(!d.stats().is_exact());
        assert!(d.stats().sorted().is_none());
        let bound = d.stats().rank_error_bound() as i64;
        assert!(bound > 0);
        for q in 0..=10 {
            let x = q as f64 * 997.0;
            let truth = all.iter().filter(|&&v| v <= x).count() as i64;
            let got = d.stats().rank(x) as i64;
            assert!(
                (got - truth).abs() <= bound,
                "rank error {} exceeds declared bound {bound}",
                (got - truth).abs()
            );
            let truth_in = all.iter().filter(|&&v| v >= 100.0 && v <= x).count() as i64;
            let got_in = d.count_in(100.0, x) as i64;
            assert!(
                (got_in - truth_in).abs() <= 2 * bound,
                "interval error exceeds two endpoint bounds"
            );
        }
        // The sum is mode-independent: still the compensated running sum.
        let exact: f64 = all.iter().sum();
        assert!((d.sum() - exact).abs() <= 1e-9 * exact.abs().max(1.0));
    }

    #[test]
    fn rank_risks_match_linear_scan_reference() {
        let values: Vec<f64> = (0..257).map(|i| (i as f64 * 37.0) % 100.0).collect();
        let d = Dataset::new("d", values.clone(), 0.0, 100.0).unwrap();
        let grid = d.candidate_grid(33).unwrap();
        let n = values.len() as f64;
        for &q in &[0.1, 0.5, 0.9] {
            let fast = d.rank_risks(&grid, q);
            let reference: Vec<f64> = grid
                .iter()
                .map(|&c| {
                    let below = values.iter().filter(|&&v| v <= c).count() as f64;
                    (below / n - q).abs()
                })
                .collect();
            for (f, r) in fast.iter().zip(&reference) {
                assert_eq!(f.to_bits(), r.to_bits(), "risk drifted at q={q}");
            }
        }
    }

    #[test]
    fn equality_ignores_the_derived_cache_and_epochs() {
        let a = Dataset::new("d", vec![0.2, 0.8], 0.0, 1.0).unwrap();
        let b = Dataset::new("d", vec![0.2, 0.8], 0.0, 1.0).unwrap();
        let c = Dataset::new("d", vec![0.8, 0.2], 0.0, 1.0).unwrap();
        assert_eq!(a, b);
        // Same multiset, different record order: distinct datasets even
        // though the sorted sufficient statistics coincide.
        assert_ne!(a, c);
        assert_eq!(a.stats().sorted(), c.stats().sorted());
        // Same records via different append histories: equal datasets
        // with different epochs — the epoch is bookkeeping, not data.
        let mut streamed = Dataset::new("d", vec![0.2], 0.0, 1.0).unwrap();
        streamed.append(&[0.8]).unwrap();
        assert_eq!(a, streamed);
        assert_ne!(a.epoch(), streamed.epoch());
    }

    #[test]
    fn rank_risks_are_bounded_and_minimized_at_the_quantile() {
        let values: Vec<f64> = (0..100).map(|i| i as f64 / 99.0).collect();
        let d = Dataset::new("d", values, 0.0, 1.0).unwrap();
        let grid = d.candidate_grid(101).unwrap();
        let risks = d.rank_risks(&grid, 0.5);
        assert!(risks.iter().all(|&r| (0.0..=1.0).contains(&r)));
        let (argmin, _) = risks
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let best = grid[argmin];
        assert!(
            (best - 0.5).abs() < 0.05,
            "median candidate {best} should be near 0.5"
        );
    }
}
