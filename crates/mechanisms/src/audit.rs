//! Empirical privacy auditing.
//!
//! Differential privacy is a statement about output-distribution ratios on
//! neighboring datasets. For mechanisms with *known* output distributions
//! (the exponential mechanism / Gibbs posterior over a finite hypothesis
//! class) the realized privacy loss can be computed **exactly** as
//! `max_S |ln(P[M(D)∈S] / P[M(D')∈S])|`, which for distributions is
//! attained on singletons. For black-box mechanisms we estimate the same
//! quantity by Monte Carlo: run the mechanism many times on `D` and on
//! `D'`, histogram the outputs, and take the smoothed maximum log ratio.
//!
//! The Monte-Carlo estimate is (in expectation, up to smoothing bias) a
//! *lower* bound on the true ε — a mechanism that **fails** its advertised
//! ε will be caught once enough trials land in a violating bin, while a
//! conforming mechanism will report ε̂ ≤ ε. Experiments E1, E2, and E5 use
//! exactly this machinery.

use crate::{MechanismError, Result};
use dplearn_numerics::rng::{Rng, Xoshiro256};
use dplearn_numerics::stats::Histogram;
use dplearn_telemetry::{Recorder, SpanTimer};

/// Outcome of a privacy audit on one neighbor pair.
#[derive(Debug, Clone, Copy)]
pub struct AuditResult {
    /// Estimated (or exact) maximum absolute log probability ratio.
    pub empirical_epsilon: f64,
    /// Number of mechanism invocations per dataset (0 for exact audits).
    pub trials: u64,
    /// Number of output categories/bins compared.
    pub support_size: usize,
}

/// Exact maximum absolute log-ratio between two finite distributions.
///
/// Skips outcomes where **both** probabilities are zero (the outcome is
/// outside both supports); returns `+inf` if exactly one side is zero —
/// a genuine, unbounded privacy breach.
pub fn max_log_ratio(p: &[f64], q: &[f64]) -> Result<f64> {
    if p.len() != q.len() {
        return Err(MechanismError::InvalidParameter {
            name: "q",
            reason: format!("length mismatch: {} vs {}", p.len(), q.len()),
        });
    }
    let mut worst = 0.0f64;
    for (&a, &b) in p.iter().zip(q) {
        if a == 0.0 && b == 0.0 {
            continue;
        }
        if a == 0.0 || b == 0.0 {
            return Ok(f64::INFINITY);
        }
        worst = worst.max((a / b).ln().abs());
    }
    Ok(worst)
}

/// Monte-Carlo audit of a mechanism with **discrete** outputs in
/// `{0, …, support_size−1}`.
///
/// `mech_d` and `mech_d_prime` run the mechanism on the two neighboring
/// datasets. Counts are smoothed with add-one (Laplace) smoothing so the
/// estimate is finite; with enough trials the smoothing bias is
/// negligible relative to ε.
pub fn audit_discrete<R, F, G>(
    mut mech_d: F,
    mut mech_d_prime: G,
    support_size: usize,
    trials: u64,
    rng: &mut R,
) -> Result<AuditResult>
where
    R: Rng + ?Sized,
    F: FnMut(&mut R) -> usize,
    G: FnMut(&mut R) -> usize,
{
    if support_size == 0 {
        return Err(MechanismError::InvalidParameter {
            name: "support_size",
            reason: "must be positive".to_string(),
        });
    }
    if trials == 0 {
        return Err(MechanismError::InvalidParameter {
            name: "trials",
            reason: "must be positive".to_string(),
        });
    }
    let mut counts_d = vec![0u64; support_size];
    let mut counts_dp = vec![0u64; support_size];
    for _ in 0..trials {
        tally(&mut counts_d, mech_d(rng), "mech_d")?;
        tally(&mut counts_dp, mech_d_prime(rng), "mech_d_prime")?;
    }
    let eps = smoothed_max_log_ratio(&counts_d, &counts_dp, trials);
    Ok(AuditResult {
        empirical_epsilon: eps,
        trials,
        support_size,
    })
}

/// Count `outcome` in `counts`. An outcome outside the support is a
/// broken mechanism, which the audit reports instead of indexing with it.
fn tally(counts: &mut [u64], outcome: usize, mech: &'static str) -> Result<()> {
    let support_size = counts.len();
    let slot = counts
        .get_mut(outcome)
        .ok_or_else(|| MechanismError::InvalidParameter {
            name: mech,
            reason: format!("returned outcome {outcome}, outside the support 0..{support_size}"),
        })?;
    *slot += 1;
    Ok(())
}

/// Record `output` in `h`. A NaN or infinite output is a broken
/// mechanism, which the audit reports instead of binning it; a finite
/// output outside the histogram's range goes to the nearer edge bin.
fn record(h: &mut Histogram, output: f64, mech: &'static str) -> Result<()> {
    if !output.is_finite() {
        return Err(MechanismError::InvalidParameter {
            name: mech,
            reason: format!("returned {output}, not a finite number"),
        });
    }
    h.record(output);
    Ok(())
}

/// Monte-Carlo audit of a mechanism with **continuous scalar** outputs,
/// compared over a histogram with `bins` equal-width cells on `[lo, hi)`
/// (finite outputs outside the range are clamped into the edge bins; a
/// NaN or infinite output is an error naming the mechanism).
#[allow(clippy::too_many_arguments)]
pub fn audit_continuous<R, F, G>(
    mut mech_d: F,
    mut mech_d_prime: G,
    lo: f64,
    hi: f64,
    bins: usize,
    trials: u64,
    rng: &mut R,
) -> Result<AuditResult>
where
    R: Rng + ?Sized,
    F: FnMut(&mut R) -> f64,
    G: FnMut(&mut R) -> f64,
{
    if trials == 0 {
        return Err(MechanismError::InvalidParameter {
            name: "trials",
            reason: "must be positive".to_string(),
        });
    }
    let mut h_d = Histogram::new(lo, hi, bins)?;
    let mut h_dp = Histogram::new(lo, hi, bins)?;
    for _ in 0..trials {
        record(&mut h_d, mech_d(rng), "mech_d")?;
        record(&mut h_dp, mech_d_prime(rng), "mech_d_prime")?;
    }
    // For continuous outputs the low-variance event class is the family
    // of one-sided tails {X ≤ t} / {X ≥ t}: tail probabilities are large
    // (so their ratio estimates are stable), and for monotone-likelihood-
    // ratio mechanisms such as Laplace the supremum over all events is
    // attained on a tail — the audit is tight without per-bin noise.
    let eps = tail_max_log_ratio(h_d.counts(), h_dp.counts(), trials);
    Ok(AuditResult {
        empirical_epsilon: eps,
        trials,
        support_size: bins,
    })
}

/// Maximum absolute log-ratio over all one-sided tail events of two
/// histograms. Tails with fewer than `max(500, 2%·trials)` counts on
/// either side are skipped: at 2% mass the relative Monte-Carlo error of
/// a tail probability is ~1.5% (≈0.03 in log-ratio), while for Laplace
///-like mechanisms the tail ratio has already saturated at e^ε well
/// before that depth — so the floor costs no tightness.
fn tail_max_log_ratio(counts_d: &[u64], counts_dp: &[u64], trials: u64) -> f64 {
    let min_tail = 500u64.max(trials / 50);
    let n = trials as f64;
    let mut worst = 0.0f64;
    let mut cum_d = 0u64;
    let mut cum_dp = 0u64;
    for i in 0..counts_d.len() {
        cum_d += counts_d[i];
        cum_dp += counts_dp[i];
        // Lower tail {X ≤ boundary_i} and its complement upper tail.
        for (a, b) in [(cum_d, cum_dp), (trials - cum_d, trials - cum_dp)] {
            if a < min_tail || b < min_tail {
                continue;
            }
            let pa = a as f64 / n;
            let pb = b as f64 / n;
            worst = worst.max((pa / pb).ln().abs());
        }
    }
    worst
}

/// Smoothed maximum log-ratio of two count vectors over the same support.
///
/// Bins with too few *combined* observations are skipped: the ratio of two
/// tiny counts is dominated by Monte-Carlo noise, and DP violations worth
/// reporting concentrate where the mechanism actually puts mass. The
/// threshold scales as `sqrt(trials)` so it vanishes in relative terms.
fn smoothed_max_log_ratio(counts_d: &[u64], counts_dp: &[u64], trials: u64) -> f64 {
    let min_combined = ((trials as f64).sqrt() * 0.5).ceil() as u64;
    let n = trials as f64;
    let k = counts_d.len() as f64;
    let mut worst = 0.0f64;
    for (&a, &b) in counts_d.iter().zip(counts_dp) {
        if a + b < min_combined {
            continue;
        }
        // Add-one smoothing keeps ratios finite.
        let pa = (a as f64 + 1.0) / (n + k);
        let pb = (b as f64 + 1.0) / (n + k);
        worst = worst.max((pa / pb).ln().abs());
    }
    worst
}

/// Configuration for the chunked, data-parallel Monte-Carlo audits
/// ([`audit_discrete_par`] / [`audit_continuous_par`]).
///
/// The trial range is split into fixed chunks of `chunk_size` trials;
/// chunk `k` always draws from the `k`-th jump-derived RNG stream (see
/// `Xoshiro256::jump_streams`) and local counts are merged in chunk
/// order, so the result is **bit-identical at every thread count** —
/// only `trials`, `chunk_size`, and the seed determine the output.
#[derive(Debug, Clone, Copy)]
pub struct AuditConfig {
    /// Mechanism invocations per dataset.
    pub trials: u64,
    /// Trials per parallel chunk (chunk boundaries are part of the
    /// deterministic result, so changing this changes the RNG layout).
    pub chunk_size: u64,
}

impl AuditConfig {
    /// Default chunk size: large enough to amortize scheduling, small
    /// enough to load-balance across many cores.
    pub const DEFAULT_CHUNK_SIZE: u64 = 1 << 16;

    /// Audit with `trials` invocations per dataset and the default
    /// chunking.
    pub fn new(trials: u64) -> Self {
        AuditConfig {
            trials,
            chunk_size: Self::DEFAULT_CHUNK_SIZE,
        }
    }

    /// Override the chunk size (changes the deterministic RNG layout).
    pub fn with_chunk_size(mut self, chunk_size: u64) -> Self {
        self.chunk_size = chunk_size;
        self
    }

    /// Reject degenerate configurations with typed errors instead of
    /// letting a zero bound silently skip the audit loop.
    pub fn validate(&self) -> Result<()> {
        if self.trials == 0 {
            return Err(MechanismError::InvalidParameter {
                name: "trials",
                reason: "must be positive".to_string(),
            });
        }
        if self.chunk_size == 0 {
            return Err(MechanismError::InvalidParameter {
                name: "chunk_size",
                reason: "must be positive".to_string(),
            });
        }
        Ok(())
    }

    /// Number of fixed-size chunks the trial range splits into.
    fn n_chunks(&self) -> usize {
        self.trials.div_ceil(self.chunk_size) as usize
    }

    /// Trial count of chunk `k` (the last chunk may be short).
    fn chunk_trials(&self, k: usize) -> u64 {
        let start = k as u64 * self.chunk_size;
        self.chunk_size.min(self.trials - start)
    }
}

/// Data-parallel Monte-Carlo audit of a **discrete** mechanism — the
/// deterministic parallel counterpart of [`audit_discrete`].
///
/// Each chunk accumulates local count vectors with its own jump-derived
/// RNG stream; chunk counts are merged in chunk order, so the result
/// depends only on `(cfg, seed)`, never on `DPLEARN_THREADS`. An outcome
/// outside `0..support_size` is an error, the first in chunk order.
///
/// Telemetry: counts audit runs, trials, and chunks under the
/// `mechanisms.audit.*` names (label `discrete`), records the estimated
/// ε̂ in the `mechanisms.audit.empirical_epsilon{discrete}` histogram,
/// and times the whole audit with a `mechanisms.audit.wall{discrete}`
/// span. All values are recorded after the chunk counts are merged in
/// chunk order, so recorded values are bit-identical at every
/// `DPLEARN_THREADS` setting (span timings are wall-clock and excluded
/// from snapshot comparison by design). A caller that does not observe
/// passes `&NoopRecorder`.
pub fn audit_discrete_par<F, G>(
    mech_d: F,
    mech_d_prime: G,
    support_size: usize,
    cfg: &AuditConfig,
    seed: u64,
    recorder: &dyn Recorder,
) -> Result<AuditResult>
where
    F: Fn(&mut Xoshiro256) -> usize + Sync,
    G: Fn(&mut Xoshiro256) -> usize + Sync,
{
    let _span = SpanTimer::new(recorder, "mechanisms.audit.wall", "discrete");
    if support_size == 0 {
        return Err(MechanismError::InvalidParameter {
            name: "support_size",
            reason: "must be positive".to_string(),
        });
    }
    cfg.validate()?;
    let streams = Xoshiro256::jump_streams(seed, cfg.n_chunks());
    let (counts_d, counts_dp) = dplearn_parallel::par_map_reduce(
        cfg.n_chunks(),
        0,
        Ok((vec![0u64; support_size], vec![0u64; support_size])),
        |k| -> Result<(Vec<u64>, Vec<u64>)> {
            let mut rng = streams[k].clone();
            let mut local_d = vec![0u64; support_size];
            let mut local_dp = vec![0u64; support_size];
            for _ in 0..cfg.chunk_trials(k) {
                tally(&mut local_d, mech_d(&mut rng), "mech_d")?;
                tally(&mut local_dp, mech_d_prime(&mut rng), "mech_d_prime")?;
            }
            Ok((local_d, local_dp))
        },
        |acc: Result<_>, local| {
            let (mut acc_d, mut acc_dp) = acc?;
            let (local_d, local_dp) = local?;
            for (a, l) in acc_d.iter_mut().zip(&local_d) {
                *a += l;
            }
            for (a, l) in acc_dp.iter_mut().zip(&local_dp) {
                *a += l;
            }
            Ok((acc_d, acc_dp))
        },
    )?;
    let eps = smoothed_max_log_ratio(&counts_d, &counts_dp, cfg.trials);
    if recorder.enabled() {
        recorder.counter_add("mechanisms.audit.runs", "discrete", 1);
        recorder.counter_add("mechanisms.audit.trials", "discrete", cfg.trials);
        recorder.counter_add("mechanisms.audit.chunks", "discrete", cfg.n_chunks() as u64);
        recorder.histogram_record("mechanisms.audit.empirical_epsilon", "discrete", eps);
    }
    Ok(AuditResult {
        empirical_epsilon: eps,
        trials: cfg.trials,
        support_size,
    })
}

/// Data-parallel Monte-Carlo audit of a **continuous scalar** mechanism
/// — the deterministic parallel counterpart of [`audit_continuous`].
///
/// Per-chunk histograms are accumulated locally and merged in chunk
/// order; see [`AuditConfig`] for the determinism contract. A NaN or
/// infinite output is an error, the first in chunk order. Telemetry as
/// in [`audit_discrete_par`], under the same `mechanisms.audit.*` names
/// with label `continuous`.
#[allow(clippy::too_many_arguments)]
pub fn audit_continuous_par<F, G>(
    mech_d: F,
    mech_d_prime: G,
    lo: f64,
    hi: f64,
    bins: usize,
    cfg: &AuditConfig,
    seed: u64,
    recorder: &dyn Recorder,
) -> Result<AuditResult>
where
    F: Fn(&mut Xoshiro256) -> f64 + Sync,
    G: Fn(&mut Xoshiro256) -> f64 + Sync,
{
    let _span = SpanTimer::new(recorder, "mechanisms.audit.wall", "continuous");
    cfg.validate()?;
    // Validate the histogram domain once up front (typed error) so
    // worker chunks cannot fail; chunks clone this empty prototype.
    let proto = Histogram::new(lo, hi, bins)?;
    let streams = Xoshiro256::jump_streams(seed, cfg.n_chunks());
    let (counts_d, counts_dp) = dplearn_parallel::par_map_reduce(
        cfg.n_chunks(),
        0,
        Ok((vec![0u64; bins], vec![0u64; bins])),
        |k| -> Result<(Vec<u64>, Vec<u64>)> {
            let mut rng = streams[k].clone();
            let mut h_d = proto.clone();
            let mut h_dp = proto.clone();
            for _ in 0..cfg.chunk_trials(k) {
                record(&mut h_d, mech_d(&mut rng), "mech_d")?;
                record(&mut h_dp, mech_d_prime(&mut rng), "mech_d_prime")?;
            }
            Ok((h_d.counts().to_vec(), h_dp.counts().to_vec()))
        },
        |acc: Result<_>, local| {
            let (mut acc_d, mut acc_dp) = acc?;
            let (local_d, local_dp) = local?;
            for (a, l) in acc_d.iter_mut().zip(&local_d) {
                *a += l;
            }
            for (a, l) in acc_dp.iter_mut().zip(&local_dp) {
                *a += l;
            }
            Ok((acc_d, acc_dp))
        },
    )?;
    let eps = tail_max_log_ratio(&counts_d, &counts_dp, cfg.trials);
    if recorder.enabled() {
        recorder.counter_add("mechanisms.audit.runs", "continuous", 1);
        recorder.counter_add("mechanisms.audit.trials", "continuous", cfg.trials);
        recorder.counter_add(
            "mechanisms.audit.chunks",
            "continuous",
            cfg.n_chunks() as u64,
        );
        recorder.histogram_record("mechanisms.audit.empirical_epsilon", "continuous", eps);
    }
    Ok(AuditResult {
        empirical_epsilon: eps,
        trials: cfg.trials,
        support_size: bins,
    })
}

/// Statistically certified evidence that a mechanism violates a claimed
/// ε, produced by [`certify_violation`].
#[derive(Debug, Clone, Copy)]
pub struct ViolationEvidence {
    /// Index of the (tail event, direction) pair exhibiting the
    /// violation: `4·bin + offset` with offsets 0/1 for the lower/upper
    /// tail of `D` vs `D'` and 2/3 for the same tails with the datasets
    /// swapped (DP bounds the ratio in both directions).
    pub event: usize,
    /// Clopper–Pearson **lower** confidence bound on the larger side's
    /// event probability.
    pub p_lower: f64,
    /// Clopper–Pearson **upper** confidence bound on the smaller side's
    /// event probability.
    pub q_upper: f64,
    /// The certified lower bound on the realized privacy loss,
    /// `ln(p_lower / q_upper) > ε`.
    pub certified_epsilon: f64,
}

/// Rigorous hypothesis test for a DP violation from Monte-Carlo counts.
///
/// Scans all one-sided tail events of the two count vectors (each from
/// `trials` runs) **in both dataset orders**; for each, forms exact
/// Clopper–Pearson bounds at a Bonferroni-corrected level and reports
/// the event whose *certified* ratio `p_lower / q_upper` exceeds `e^ε`
/// by the most.
///
/// A returned `Some` is a statistical certificate: with probability at
/// least `1 − alpha` over the auditing randomness, the mechanism is NOT
/// ε-DP. `None` means no violation was certified (which is not a proof
/// of privacy — the audit may lack power).
pub fn certify_violation(
    counts_d: &[u64],
    counts_dp: &[u64],
    trials: u64,
    epsilon: f64,
    alpha: f64,
) -> Result<Option<ViolationEvidence>> {
    if counts_d.len() != counts_dp.len() || counts_d.is_empty() {
        return Err(MechanismError::InvalidParameter {
            name: "counts",
            reason: "count vectors must be non-empty and equal-length".to_string(),
        });
    }
    // NaN-rejecting validations.
    let alpha_ok = alpha > 0.0 && alpha < 1.0;
    let epsilon_ok = epsilon > 0.0;
    if trials == 0 || !alpha_ok || !epsilon_ok {
        return Err(MechanismError::InvalidParameter {
            name: "trials/alpha/epsilon",
            reason: "need trials > 0, alpha in (0,1), epsilon > 0".to_string(),
        });
    }
    // Tail events in both directions, both dataset orders (the DP
    // definition bounds the ratio symmetrically, so a breach can live on
    // either side), two CP intervals per comparison.
    let n_events = 4 * counts_d.len();
    let level = alpha / n_events as f64;
    let mut best: Option<ViolationEvidence> = None;
    let mut cum_d = 0u64;
    let mut cum_dp = 0u64;
    for i in 0..counts_d.len() {
        cum_d += counts_d[i];
        cum_dp += counts_dp[i];
        for (event_offset, (a, b)) in [
            (0usize, (cum_d, cum_dp)),
            (1, (trials - cum_d, trials - cum_dp)),
            (2, (cum_dp, cum_d)),
            (3, (trials - cum_dp, trials - cum_d)),
        ] {
            if a == 0 {
                continue;
            }
            let (p_lower, _) = dplearn_numerics::special::clopper_pearson(a, trials, level);
            let (_, q_upper) = dplearn_numerics::special::clopper_pearson(b, trials, level);
            if q_upper <= 0.0 {
                continue;
            }
            let certified = (p_lower / q_upper).ln();
            if certified > epsilon && best.is_none_or(|e| certified > e.certified_epsilon) {
                best = Some(ViolationEvidence {
                    event: 4 * i + event_offset,
                    p_lower,
                    q_upper,
                    certified_epsilon: certified,
                });
            }
        }
    }
    Ok(best)
}

/// Audit a mechanism against **many** neighbor pairs and return the worst
/// empirical ε found (exact-distribution version).
///
/// `dist_of` maps each dataset to the mechanism's full output
/// distribution; the audit checks every supplied neighbor pair.
pub fn audit_exact_pairs<D, F>(base: &D, neighbors: &[D], dist_of: F) -> Result<AuditResult>
where
    F: Fn(&D) -> Vec<f64>,
{
    let p = dist_of(base);
    let mut worst = 0.0f64;
    for nb in neighbors {
        let q = dist_of(nb);
        worst = worst.max(max_log_ratio(&p, &q)?);
    }
    Ok(AuditResult {
        empirical_epsilon: worst,
        trials: 0,
        support_size: p.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplace::LaplaceMechanism;
    use crate::privacy::Epsilon;
    use dplearn_numerics::rng::Xoshiro256;
    use dplearn_telemetry::{MemoryRecorder, NoopRecorder};

    #[test]
    fn max_log_ratio_basics() {
        assert!((max_log_ratio(&[0.5, 0.5], &[0.5, 0.5]).unwrap()).abs() < 1e-15);
        // Ratios are ln(0.8/0.4) = ln 2 and |ln(0.2/0.6)| = ln 3; max is ln 3.
        let r = max_log_ratio(&[0.8, 0.2], &[0.4, 0.6]).unwrap();
        assert!((r - (3.0f64).ln()).abs() < 1e-12);
        assert_eq!(
            max_log_ratio(&[1.0, 0.0], &[0.5, 0.5]).unwrap(),
            f64::INFINITY
        );
        assert!((max_log_ratio(&[0.0, 1.0], &[0.0, 1.0]).unwrap()).abs() < 1e-15);
        assert!(max_log_ratio(&[1.0], &[0.5, 0.5]).is_err());
    }

    #[test]
    fn laplace_mechanism_passes_continuous_audit() {
        let eps = Epsilon::new(1.0).unwrap();
        let m = LaplaceMechanism::new(eps, 1.0).unwrap();
        let mut rng = Xoshiro256::seed_from(42);
        // Neighboring query values at exactly the sensitivity distance.
        let res = audit_continuous(
            |r| m.release(0.0, r),
            |r| m.release(1.0, r),
            -8.0,
            9.0,
            40,
            200_000,
            &mut rng,
        )
        .unwrap();
        assert!(
            res.empirical_epsilon <= eps.value() + 0.15,
            "audited ε̂ = {} should be ≲ ε = 1",
            res.empirical_epsilon
        );
        // And it should be close to ε (the Laplace bound is tight).
        assert!(res.empirical_epsilon > 0.6, "ε̂ = {}", res.empirical_epsilon);
    }

    #[test]
    fn non_private_mechanism_fails_audit() {
        // "Mechanism" that leaks the dataset deterministically.
        let mut rng = Xoshiro256::seed_from(1);
        let res = audit_discrete(|_r| 0usize, |_r| 1usize, 2, 50_000, &mut rng).unwrap();
        // Smoothed ratio: ln((N+1)/1) ≈ ln(50001) ≈ 10.8 — far above any
        // reasonable ε.
        assert!(res.empirical_epsilon > 5.0, "ε̂ = {}", res.empirical_epsilon);
    }

    #[test]
    fn randomized_response_audit_matches_epsilon() {
        use crate::randomized_response::RandomizedResponse;
        let eps = Epsilon::new(1.5).unwrap();
        let rr = RandomizedResponse::new(eps, 2).unwrap();
        let mut rng = Xoshiro256::seed_from(2);
        // Neighbors for local DP: the two possible single inputs.
        let res = audit_discrete(
            |r| rr.respond(0, r),
            |r| rr.respond(1, r),
            2,
            400_000,
            &mut rng,
        )
        .unwrap();
        assert!(
            (res.empirical_epsilon - 1.5).abs() < 0.05,
            "ε̂ = {}",
            res.empirical_epsilon
        );
    }

    #[test]
    fn exact_pairs_audit_on_exponential_mechanism() {
        use crate::exponential::ExponentialMechanism;
        // Dataset = vector of category labels; mechanism = private mode.
        let mech = ExponentialMechanism::new(3, 1.0).unwrap();
        let eps = Epsilon::new(0.8).unwrap();
        let t = mech.temperature_for(eps);
        let base: Vec<usize> = vec![0, 0, 1, 2, 2];
        // Replace-one neighbors.
        let mut neighbors = Vec::new();
        for i in 0..base.len() {
            for v in 0..3usize {
                if base[i] != v {
                    let mut d = base.clone();
                    d[i] = v;
                    neighbors.push(d);
                }
            }
        }
        let res = audit_exact_pairs(&base, &neighbors, |d| {
            let scores = crate::exponential::mode_quality(d, 3);
            mech.sampling_distribution(&scores, t)
                .unwrap()
                .probs()
                .to_vec()
        })
        .unwrap();
        assert!(
            res.empirical_epsilon <= eps.value() + 1e-9,
            "exact ε = {} exceeds {}",
            res.empirical_epsilon,
            eps.value()
        );
        // For mode counts a replace-one changes two scores by 1 each, and
        // the realized loss should be a significant fraction of ε.
        assert!(res.empirical_epsilon > 0.2 * eps.value());
    }

    #[test]
    fn certify_violation_flags_broken_and_clears_correct_mechanisms() {
        use crate::randomized_response::RandomizedResponse;
        let mut rng = Xoshiro256::seed_from(99);
        let trials = 200_000u64;
        let claimed = 1.0;

        // Broken RR: truth probability 0.95 ⇒ true loss ln(19) ≈ 2.94.
        let run = |p_truth: f64, rng: &mut Xoshiro256| {
            let mut counts_d = vec![0u64; 2];
            let mut counts_dp = vec![0u64; 2];
            for _ in 0..trials {
                let a = usize::from(!rng.next_bool(p_truth)); // input 0
                let b = usize::from(rng.next_bool(p_truth)); // input 1
                counts_d[a] += 1;
                counts_dp[b] += 1;
            }
            (counts_d, counts_dp)
        };
        let (cd, cdp) = run(0.95, &mut rng);
        let evidence = certify_violation(&cd, &cdp, trials, claimed, 0.05)
            .unwrap()
            .expect("violation must be certified");
        assert!(
            evidence.certified_epsilon > 2.0,
            "certified ε {}",
            evidence.certified_epsilon
        );
        assert!(evidence.p_lower > evidence.q_upper);

        // Correct RR at ε = 1 must NOT be certified as violating.
        let eps = Epsilon::new(claimed).unwrap();
        let rr = RandomizedResponse::new(eps, 2).unwrap();
        let (cd, cdp) = run(rr.p_truth(), &mut rng);
        assert!(certify_violation(&cd, &cdp, trials, claimed, 0.05)
            .unwrap()
            .is_none());
    }

    #[test]
    fn certify_violation_catches_breaches_in_both_directions() {
        // A deterministic leak concentrated on D' (the second argument):
        // the p/q direction is clean but q/p is unbounded — the symmetric
        // scan must still certify it.
        let trials = 10_000u64;
        // D puts everything in bin 0 (its upper tail is empty, so the
        // forward p/q comparisons are skipped or mild); D' spreads out —
        // the breach is only visible as q ≫ e^ε·p on D's empty tail.
        let counts_d = vec![10_000u64, 0];
        let counts_dp = vec![5_000u64, 5_000];
        let evidence = certify_violation(&counts_d, &counts_dp, trials, 1.0, 0.05)
            .unwrap()
            .expect("swapped-direction violation must be certified");
        assert!(evidence.certified_epsilon > 1.0);
        // The winning event is one of the swapped-order comparisons.
        assert!(evidence.event % 4 >= 2, "event {}", evidence.event);
    }

    #[test]
    fn certify_violation_validates_args() {
        assert!(certify_violation(&[1], &[1, 2], 2, 1.0, 0.05).is_err());
        assert!(certify_violation(&[], &[], 2, 1.0, 0.05).is_err());
        assert!(certify_violation(&[1], &[1], 0, 1.0, 0.05).is_err());
        assert!(certify_violation(&[1], &[1], 2, 0.0, 0.05).is_err());
        assert!(certify_violation(&[1], &[1], 2, 1.0, 1.0).is_err());
    }

    #[test]
    fn audit_rejects_degenerate_args() {
        let mut rng = Xoshiro256::seed_from(3);
        assert!(audit_discrete(|_r| 0usize, |_r| 0usize, 0, 10, &mut rng).is_err());
        assert!(audit_discrete(|_r| 0usize, |_r| 0usize, 2, 0, &mut rng).is_err());
        assert!(audit_continuous(|_r| 0.0, |_r| 0.0, 0.0, 1.0, 10, 0, &mut rng).is_err());
    }

    #[test]
    fn parallel_continuous_audit_matches_epsilon_bound() {
        let eps = Epsilon::new(1.0).unwrap();
        let m = LaplaceMechanism::new(eps, 1.0).unwrap();
        let cfg = AuditConfig::new(200_000).with_chunk_size(1 << 14);
        let res = audit_continuous_par(
            |r| m.release(0.0, r),
            |r| m.release(1.0, r),
            -8.0,
            9.0,
            40,
            &cfg,
            42,
            &NoopRecorder,
        )
        .unwrap();
        assert!(
            res.empirical_epsilon <= eps.value() + 0.15,
            "audited ε̂ = {} should be ≲ ε = 1",
            res.empirical_epsilon
        );
        assert!(res.empirical_epsilon > 0.6, "ε̂ = {}", res.empirical_epsilon);
        assert_eq!(res.trials, 200_000);
    }

    #[test]
    fn parallel_discrete_audit_matches_epsilon() {
        use crate::randomized_response::RandomizedResponse;
        let eps = Epsilon::new(1.5).unwrap();
        let rr = RandomizedResponse::new(eps, 2).unwrap();
        let cfg = AuditConfig::new(400_000);
        let res = audit_discrete_par(
            |r| rr.respond(0, r),
            |r| rr.respond(1, r),
            2,
            &cfg,
            7,
            &NoopRecorder,
        )
        .unwrap();
        assert!(
            (res.empirical_epsilon - 1.5).abs() < 0.05,
            "ε̂ = {}",
            res.empirical_epsilon
        );
    }

    #[test]
    fn parallel_audit_is_thread_count_invariant() {
        let eps = Epsilon::new(1.0).unwrap();
        let m = LaplaceMechanism::new(eps, 1.0).unwrap();
        let cfg = AuditConfig::new(20_000).with_chunk_size(1 << 10);
        let run = || {
            audit_continuous_par(
                |r| m.release(0.0, r),
                |r| m.release(1.0, r),
                -6.0,
                7.0,
                30,
                &cfg,
                9,
                &NoopRecorder,
            )
            .unwrap()
            .empirical_epsilon
            .to_bits()
        };
        dplearn_parallel::set_thread_count(1);
        let one = run();
        dplearn_parallel::set_thread_count(4);
        let four = run();
        dplearn_parallel::set_thread_count(0);
        assert_eq!(one, four);
    }

    #[test]
    fn recorded_audits_match_plain_and_count_trials() {
        let eps = Epsilon::new(1.0).unwrap();
        let m = LaplaceMechanism::new(eps, 1.0).unwrap();
        let cfg = AuditConfig::new(20_000).with_chunk_size(1 << 10);
        let recorder = MemoryRecorder::new();
        let plain = audit_continuous_par(
            |r| m.release(0.0, r),
            |r| m.release(1.0, r),
            -6.0,
            7.0,
            30,
            &cfg,
            9,
            &NoopRecorder,
        )
        .unwrap();
        let observed = audit_continuous_par(
            |r| m.release(0.0, r),
            |r| m.release(1.0, r),
            -6.0,
            7.0,
            30,
            &cfg,
            9,
            &recorder,
        )
        .unwrap();
        // Observing the audit must not change it.
        assert_eq!(
            observed.empirical_epsilon.to_bits(),
            plain.empirical_epsilon.to_bits()
        );
        let _ = audit_discrete_par(|_r| 0usize, |_r| 0usize, 2, &cfg, 9, &recorder).unwrap();

        let snap = recorder.snapshot().unwrap();
        let counter = |key: &str| {
            snap.counters
                .iter()
                .find(|(k, _)| k == key)
                .map(|&(_, v)| v)
        };
        assert_eq!(counter("mechanisms.audit.runs{continuous}"), Some(1));
        assert_eq!(counter("mechanisms.audit.trials{continuous}"), Some(20_000));
        assert_eq!(counter("mechanisms.audit.chunks{continuous}"), Some(20));
        assert_eq!(counter("mechanisms.audit.runs{discrete}"), Some(1));
        let hist = snap
            .histograms
            .iter()
            .find(|(k, _)| k == "mechanisms.audit.empirical_epsilon{continuous}")
            .map(|(_, h)| h)
            .unwrap();
        assert_eq!(hist.total, 1);
        assert_eq!(
            hist.sum.to_bits(),
            plain.empirical_epsilon.to_bits(),
            "single observation: sum is the ε̂ itself"
        );
        // The wall-clock span is captured (value not compared — timings
        // are excluded from snapshot equality by design).
        assert!(snap
            .timings
            .iter()
            .any(|(k, t)| k == "mechanisms.audit.wall{continuous}" && t.count == 1));
    }

    #[test]
    fn audit_config_validates() {
        assert!(AuditConfig::new(0).validate().is_err());
        assert!(AuditConfig::new(10).with_chunk_size(0).validate().is_err());
        assert!(AuditConfig::new(10).validate().is_ok());
        let cfg = AuditConfig::new(10);
        assert!(audit_discrete_par(|_r| 0usize, |_r| 0usize, 0, &cfg, 1, &NoopRecorder).is_err());
        assert!(
            audit_continuous_par(|_r| 0.0, |_r| 0.0, 1.0, 0.0, 10, &cfg, 1, &NoopRecorder).is_err()
        );
    }

    #[test]
    fn discrete_audits_reject_an_outcome_outside_the_support() {
        // A broken mechanism that answers 2 on a support of size 2.
        let rejected = |res: Result<AuditResult>, mech: &str| match res {
            Err(MechanismError::InvalidParameter { name, reason }) => {
                assert_eq!(name, mech);
                assert!(
                    reason.contains("outcome 2") && reason.contains("0..2"),
                    "{reason}"
                );
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        };
        let mut rng = Xoshiro256::seed_from(4);
        rejected(
            audit_discrete(|_r| 0usize, |_r| 2usize, 2, 100, &mut rng),
            "mech_d_prime",
        );
        // The parallel audit fails the same way at every thread count,
        // also when the mechanism leaves the support only rarely.
        let cfg = AuditConfig::new(4_000).with_chunk_size(1_000);
        let rare = |r: &mut Xoshiro256| if r.next_f64() < 1e-3 { 2 } else { 1 };
        for threads in [1, 4] {
            dplearn_parallel::set_thread_count(threads);
            rejected(
                audit_discrete_par(|_r| 2usize, |_r| 0usize, 2, &cfg, 5, &NoopRecorder),
                "mech_d",
            );
            rejected(
                audit_discrete_par(|_r| 1usize, rare, 2, &cfg, 5, &NoopRecorder),
                "mech_d_prime",
            );
        }
        dplearn_parallel::set_thread_count(0);
    }

    #[test]
    fn continuous_audits_reject_a_non_finite_output() {
        let rejected = |res: Result<AuditResult>, mech: &str, output: &str| match res {
            Err(MechanismError::InvalidParameter { name, reason }) => {
                assert_eq!(name, mech);
                assert!(reason.contains(&format!("returned {output},")), "{reason}");
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        };
        // NaN half the time beside 0.5, on [0, 1) in 10 bins: binned, the
        // NaNs would count as `lo` and give ε̂ ≈ 0.69.
        let half_nan = |r: &mut Xoshiro256| if r.next_f64() < 0.5 { f64::NAN } else { 0.5 };
        let mut rng = Xoshiro256::seed_from(4);
        rejected(
            audit_continuous(|_r| 0.5, half_nan, 0.0, 1.0, 10, 1_000, &mut rng),
            "mech_d_prime",
            "NaN",
        );
        rejected(
            audit_continuous(|_r| f64::INFINITY, |_r| 0.5, 0.0, 1.0, 10, 1_000, &mut rng),
            "mech_d",
            "inf",
        );
        // The parallel audit fails the same way at every thread count,
        // also when the mechanism leaves the reals only rarely.
        let cfg = AuditConfig::new(4_000).with_chunk_size(1_000);
        let rare = |r: &mut Xoshiro256| {
            if r.next_f64() < 1e-3 {
                f64::NEG_INFINITY
            } else {
                0.5
            }
        };
        for threads in [1, 4] {
            dplearn_parallel::set_thread_count(threads);
            rejected(
                audit_continuous_par(half_nan, |_r| 0.5, 0.0, 1.0, 10, &cfg, 5, &NoopRecorder),
                "mech_d",
                "NaN",
            );
            rejected(
                audit_continuous_par(|_r| 0.5, rare, 0.0, 1.0, 10, &cfg, 5, &NoopRecorder),
                "mech_d_prime",
                "-inf",
            );
        }
        dplearn_parallel::set_thread_count(0);
        // Finite outputs outside [lo, hi) still go to the edge bins: all
        // of D's mass in the first, all of D′'s in the last.
        let res = audit_continuous(|_r| -5.0, |_r| 7.0, 0.0, 1.0, 10, 1_000, &mut rng).unwrap();
        assert_eq!(res.empirical_epsilon, 0.0);
        let par = audit_continuous_par(|_r| -5.0, |_r| 7.0, 0.0, 1.0, 10, &cfg, 5, &NoopRecorder)
            .unwrap();
        assert_eq!(par.empirical_epsilon, 0.0);
    }
}
