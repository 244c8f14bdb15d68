//! Probability distributions over hypothesis spaces.
//!
//! A randomized predictor *is* a distribution on `Θ` (the paper's
//! "sample-dependent posterior probability distribution on Θ"). Two
//! concrete representations cover every experiment:
//!
//! * [`FinitePosterior`] — an explicit probability vector over a finite
//!   class, on which everything (KL, Gibbs, MI) is exact;
//! * [`DiagGaussian`] — a diagonal Gaussian over ℝᵈ for continuous linear
//!   models, used with the Metropolis sampler.

use crate::{PacBayesError, Result};
use dplearn_numerics::distributions::{Categorical, Gaussian, Sample};
use dplearn_numerics::rng::Rng;
use dplearn_numerics::special::{kahan_sum, softmax_in_place, xlogy};
use std::sync::OnceLock;

/// A probability distribution over a finite hypothesis class
/// `Θ = {θ₀, …, θ_{k−1}}`, stored as an explicit probability vector.
#[derive(Debug, Clone)]
pub struct FinitePosterior {
    probs: Vec<f64>,
    // Alias table built on the first `sample` and kept, so repeated
    // draws skip the O(k) Vose rebuild while posteriors that are never
    // sampled (channel rows, priors) never pay for it. Derived
    // deterministically from `probs` (and excluded from PartialEq), so
    // draws are bit-identical to sampling from a freshly built table.
    alias: OnceLock<Option<Categorical>>,
}

impl PartialEq for FinitePosterior {
    fn eq(&self, other: &Self) -> bool {
        self.probs == other.probs
    }
}

impl FinitePosterior {
    fn from_validated(probs: Vec<f64>) -> Self {
        FinitePosterior {
            probs,
            alias: OnceLock::new(),
        }
    }

    /// The uniform distribution over `k` hypotheses.
    pub fn uniform(k: usize) -> Result<Self> {
        if k == 0 {
            return Err(PacBayesError::InvalidParameter {
                name: "k",
                reason: "hypothesis space must be non-empty".to_string(),
            });
        }
        Ok(FinitePosterior::from_validated(vec![1.0 / k as f64; k]))
    }

    /// From an explicit probability vector (validated to sum to 1).
    pub fn from_probs(probs: Vec<f64>) -> Result<Self> {
        if probs.is_empty() {
            return Err(PacBayesError::InvalidParameter {
                name: "probs",
                reason: "must be non-empty".to_string(),
            });
        }
        let mut total = 0.0;
        for &p in &probs {
            if !(p.is_finite() && p >= 0.0) {
                return Err(PacBayesError::InvalidParameter {
                    name: "probs",
                    reason: format!("entries must be finite and nonnegative, got {p}"),
                });
            }
            total += p;
        }
        if (total - 1.0).abs() > 1e-9 {
            return Err(PacBayesError::InvalidParameter {
                name: "probs",
                reason: format!("must sum to 1, got {total}"),
            });
        }
        Ok(FinitePosterior::from_validated(probs))
    }

    /// From unnormalized log weights (normalized in log space by
    /// [`softmax_in_place`]).
    pub fn from_log_weights(log_weights: &[f64]) -> Result<Self> {
        FinitePosterior::from_log_weight_vec(log_weights.to_vec())
    }

    /// [`from_log_weights`](Self::from_log_weights) on an owned vector,
    /// which becomes the probability vector in place.
    pub(crate) fn from_log_weight_vec(mut weights: Vec<f64>) -> Result<Self> {
        if weights.is_empty() {
            return Err(PacBayesError::InvalidParameter {
                name: "log_weights",
                reason: "must be non-empty".to_string(),
            });
        }
        let z = softmax_in_place(&mut weights);
        if !z.is_finite() {
            return Err(PacBayesError::InvalidParameter {
                name: "log_weights",
                reason: format!("log-normalizer is not finite ({z})"),
            });
        }
        Ok(FinitePosterior::from_validated(weights))
    }

    /// Number of hypotheses.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True when there are no hypotheses (never constructible).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Probability of hypothesis `i` (zero when out of range).
    pub fn prob(&self, i: usize) -> f64 {
        self.probs.get(i).copied().unwrap_or(0.0)
    }

    /// The probability vector.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Expectation `E_{θ∼π̂}[v(θ)]` of a value vector aligned with the
    /// hypothesis indexing.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn expectation(&self, values: &[f64]) -> f64 {
        assert_eq!(
            values.len(),
            self.probs.len(),
            "expectation: length mismatch"
        );
        kahan_sum(self.probs.iter().zip(values).map(|(&p, &v)| p * v))
    }

    /// Shannon entropy in nats.
    pub fn entropy(&self) -> f64 {
        -kahan_sum(self.probs.iter().map(|&p| xlogy(p, p)))
    }

    /// The `q`-quantile of a value assignment under this distribution:
    /// the smallest `values[i]` (in sorted order) whose cumulative
    /// posterior mass reaches `q`. Used for posterior credible intervals
    /// over 1-D hypothesis parameters.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or `q ∉ [0, 1]`.
    // Indices come from sorting `0..values.len()` after the length assert,
    // so every lookup below is bounds-proven.
    #[allow(clippy::indexing_slicing)]
    pub fn quantile(&self, values: &[f64], q: f64) -> f64 {
        assert_eq!(values.len(), self.probs.len(), "quantile: length mismatch");
        assert!((0.0..=1.0).contains(&q), "q must lie in [0,1], got {q}");
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let mut cum = 0.0;
        for &i in &order {
            cum += self.probs[i];
            if cum >= q - 1e-15 {
                return values[i];
            }
        }
        order.last().map(|&i| values[i]).unwrap_or(f64::NAN)
    }

    /// Draw a hypothesis index.
    ///
    /// Samples from an alias table built on the first call — O(1) per
    /// later draw and bit-identical to rebuilding the table per call (the
    /// table is a pure function of `probs`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        // Every constructor validates `probs` to a positive, finite unit
        // sum, so the alias build cannot fail; if the impossible happens,
        // index 0 is a deterministic, in-bounds fallback.
        match self
            .alias
            .get_or_init(|| Categorical::new(&self.probs).ok())
        {
            Some(cat) => cat.sample(rng),
            None => 0,
        }
    }

    /// The mixture `Σᵢ wᵢ πᵢ` of several posteriors (e.g. `E_Ẑ π̂_Ẑ`, the
    /// paper's bound-optimal prior).
    pub fn mixture(components: &[(f64, &FinitePosterior)]) -> Result<Self> {
        if components.is_empty() {
            return Err(PacBayesError::InvalidParameter {
                name: "components",
                reason: "must be non-empty".to_string(),
            });
        }
        let k = components.first().map_or(0, |(_, c)| c.len());
        let mut probs = vec![0.0; k];
        let mut total_w = 0.0;
        for (w, c) in components {
            if c.len() != k {
                return Err(PacBayesError::InvalidParameter {
                    name: "components",
                    reason: "all components must share a support".to_string(),
                });
            }
            for (acc, &p) in probs.iter_mut().zip(c.probs()) {
                *acc += w * p;
            }
            total_w += w;
        }
        if (total_w - 1.0).abs() > 1e-9 {
            return Err(PacBayesError::InvalidParameter {
                name: "components",
                reason: format!("weights must sum to 1, got {total_w}"),
            });
        }
        FinitePosterior::from_probs(probs)
    }
}

/// A diagonal Gaussian distribution over ℝᵈ — prior/posterior for
/// continuous (linear-model) hypothesis spaces.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagGaussian {
    mean: Vec<f64>,
    std: Vec<f64>,
    // Per-coordinate `ln σᵢ`, cached at construction so every `ln_pdf`
    // call skips d logarithms. Derived deterministically from `std`, so
    // the derived PartialEq/Clone semantics are unchanged.
    ln_std: Vec<f64>,
}

impl DiagGaussian {
    /// Create from a mean vector and per-coordinate standard deviations.
    pub fn new(mean: Vec<f64>, std: Vec<f64>) -> Result<Self> {
        if mean.is_empty() || mean.len() != std.len() {
            return Err(PacBayesError::InvalidParameter {
                name: "std",
                reason: format!("dimension mismatch: {} vs {}", mean.len(), std.len()),
            });
        }
        if std.iter().any(|&s| !(s.is_finite() && s > 0.0)) {
            return Err(PacBayesError::InvalidParameter {
                name: "std",
                reason: "standard deviations must be finite and positive".to_string(),
            });
        }
        let ln_std = std.iter().map(|&s| s.ln()).collect();
        Ok(DiagGaussian { mean, std, ln_std })
    }

    /// Isotropic Gaussian `N(0, σ² I)` in `d` dimensions.
    pub fn isotropic(d: usize, sigma: f64) -> Result<Self> {
        DiagGaussian::new(vec![0.0; d], vec![sigma; d])
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Mean vector.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Per-coordinate standard deviations.
    pub fn std(&self) -> &[f64] {
        &self.std
    }

    /// Log density at a point.
    ///
    /// Uses the `ln σᵢ` values cached at construction; each term keeps the
    /// exact expression tree of the scalar Gaussian `ln_pdf`
    /// (`-0.5·z² − ln σ − 0.5·ln 2π`, left-associated), so the result is
    /// bit-identical to summing the per-coordinate `Gaussian::ln_pdf`
    /// calls while skipping `d` logarithms per evaluation.
    pub fn ln_pdf(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "ln_pdf: dimension mismatch");
        let half_ln_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
        x.iter()
            .zip(self.mean.iter().zip(self.std.iter().zip(&self.ln_std)))
            .map(|(&xi, (&m, (&s, &ln_s)))| {
                let z = (xi - m) / s;
                -0.5 * z * z - ln_s - half_ln_2pi
            })
            .sum()
    }

    /// Log density at a point — the **reordered-sum fast path**.
    ///
    /// Accumulates the per-coordinate terms into four independent lanes
    /// (plus a scalar remainder) so the compiler can vectorize the
    /// `z²`/subtract sweep, then folds the lanes. Same terms as
    /// [`DiagGaussian::ln_pdf`] in a different association, so the
    /// result can differ in the last ulps. Per the workspace pinning
    /// contract the fast path is opt-in (see
    /// `MetropolisGibbs::with_fast_log_prior`) and pinned by
    /// `audit_discrete_par` distribution-equivalence, not bit-identity.
    pub fn ln_pdf_fast(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim(), "ln_pdf_fast: dimension mismatch");
        const LANES: usize = 4;
        let half_ln_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
        let mut lane = [0.0f64; LANES];
        let mut xc = x.chunks_exact(LANES);
        let mut mc = self.mean.chunks_exact(LANES);
        let mut sc = self.std.chunks_exact(LANES);
        let mut lc = self.ln_std.chunks_exact(LANES);
        for (((xs, ms), ss), ls) in (&mut xc).zip(&mut mc).zip(&mut sc).zip(&mut lc) {
            for ((acc, (&xi, &m)), (&s, &ln_s)) in lane
                .iter_mut()
                .zip(xs.iter().zip(ms))
                .zip(ss.iter().zip(ls))
            {
                let z = (xi - m) / s;
                *acc += -0.5 * z * z - ln_s - half_ln_2pi;
            }
        }
        let mut total: f64 = lane.iter().sum();
        for ((&xi, &m), (&s, &ln_s)) in xc
            .remainder()
            .iter()
            .zip(mc.remainder())
            .zip(sc.remainder().iter().zip(lc.remainder()))
        {
            let z = (xi - m) / s;
            total += -0.5 * z * z - ln_s - half_ln_2pi;
        }
        total
    }

    /// Draw a sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        self.mean
            .iter()
            .zip(&self.std)
            .map(|(&m, &s)| {
                Gaussian::new(m, s)
                    .map(|g| g.sample(rng))
                    .unwrap_or(f64::NAN)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dplearn_numerics::distributions::Continuous;
    use dplearn_numerics::rng::Xoshiro256;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn construction_validates() {
        assert!(FinitePosterior::uniform(0).is_err());
        assert!(FinitePosterior::from_probs(vec![0.5, 0.4]).is_err());
        assert!(FinitePosterior::from_probs(vec![0.5, -0.5, 1.0]).is_err());
        assert!(FinitePosterior::from_probs(vec![0.25; 4]).is_ok());
        assert!(DiagGaussian::new(vec![0.0], vec![0.0]).is_err());
        assert!(DiagGaussian::new(vec![0.0, 1.0], vec![1.0]).is_err());
    }

    #[test]
    fn from_log_weights_normalizes() {
        let p = FinitePosterior::from_log_weights(&[-1000.0, -1000.0]).unwrap();
        close(p.prob(0), 0.5, 1e-12);
        close(p.prob(1), 0.5, 1e-12);
    }

    #[test]
    fn from_log_weights_runs_the_softmax_kernel() {
        // The probabilities are `softmax_in_place`'s, bit for bit, and
        // weights it cannot normalize are a typed rejection.
        let mut rng = Xoshiro256::seed_from(3);
        for k in (1..=9).chain([4099]) {
            let lw: Vec<f64> = (0..k).map(|_| 60.0 * rng.next_f64() - 30.0).collect();
            let mut want = lw.clone();
            softmax_in_place(&mut want);
            let got = FinitePosterior::from_log_weights(&lw).unwrap();
            for (a, b) in got.probs().iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits(), "k={k}");
            }
        }
        for bad in [
            vec![],
            vec![f64::NAN, 0.0],
            vec![0.0, f64::INFINITY],
            vec![f64::NEG_INFINITY; 3],
        ] {
            assert!(matches!(
                FinitePosterior::from_log_weights(&bad),
                Err(PacBayesError::InvalidParameter {
                    name: "log_weights",
                    ..
                })
            ));
        }
    }

    #[test]
    fn expectation_and_entropy() {
        let p = FinitePosterior::from_probs(vec![0.5, 0.25, 0.25]).unwrap();
        close(p.expectation(&[1.0, 2.0, 4.0]), 2.0, 1e-12);
        // H = 0.5 ln 2 + 2 · 0.25 ln 4 = 1.5 ln 2.
        close(p.entropy(), 1.5 * std::f64::consts::LN_2, 1e-12);
        // Degenerate distribution has zero entropy.
        let d = FinitePosterior::from_probs(vec![1.0, 0.0]).unwrap();
        close(d.entropy(), 0.0, 1e-15);
    }

    #[test]
    fn quantiles_of_value_assignment() {
        let p = FinitePosterior::from_probs(vec![0.1, 0.4, 0.3, 0.2]).unwrap();
        let values = [10.0, 0.0, 5.0, 7.0];
        // Sorted values: 0 (0.4), 5 (0.3), 7 (0.2), 10 (0.1).
        close(p.quantile(&values, 0.0), 0.0, 1e-12);
        close(p.quantile(&values, 0.4), 0.0, 1e-12);
        close(p.quantile(&values, 0.5), 5.0, 1e-12);
        close(p.quantile(&values, 0.71), 7.0, 1e-12);
        close(p.quantile(&values, 1.0), 10.0, 1e-12);
        // Degenerate distribution: every quantile is the atom.
        let d = FinitePosterior::from_probs(vec![0.0, 1.0]).unwrap();
        close(d.quantile(&[3.0, 8.0], 0.1), 8.0, 1e-12);
    }

    #[test]
    fn sampling_matches_probs() {
        let p = FinitePosterior::from_probs(vec![0.7, 0.3]).unwrap();
        let mut rng = Xoshiro256::seed_from(50);
        let n = 100_000;
        let ones = (0..n).filter(|_| p.sample(&mut rng) == 1).count();
        close(ones as f64 / n as f64, 0.3, 0.01);
    }

    #[test]
    fn lazy_alias_draws_match_an_eager_table() {
        let p = FinitePosterior::from_log_weights(&[-0.3, -2.0, 0.0, -1.1, -5.0]).unwrap();
        let eager = Categorical::new(p.probs()).unwrap();
        // Cloned before the first draw: the clone builds its own table.
        let clone = p.clone();
        let draws = |f: &dyn Fn(&mut Xoshiro256) -> usize| {
            let mut rng = Xoshiro256::seed_from(77);
            (0..2_000).map(|_| f(&mut rng)).collect::<Vec<usize>>()
        };
        let want = draws(&|rng| eager.sample(rng));
        assert_eq!(draws(&|rng| p.sample(rng)), want);
        assert_eq!(draws(&|rng| clone.sample(rng)), want);
        // A clone made after the first draw carries a copy of the table.
        let after = p.clone();
        assert_eq!(draws(&|rng| after.sample(rng)), want);
    }

    #[test]
    fn mixture_averages() {
        let a = FinitePosterior::from_probs(vec![1.0, 0.0]).unwrap();
        let b = FinitePosterior::from_probs(vec![0.0, 1.0]).unwrap();
        let m = FinitePosterior::mixture(&[(0.25, &a), (0.75, &b)]).unwrap();
        close(m.prob(0), 0.25, 1e-12);
        close(m.prob(1), 0.75, 1e-12);
        assert!(FinitePosterior::mixture(&[(0.5, &a)]).is_err());
    }

    #[test]
    fn diag_gaussian_ln_pdf_factorizes() {
        let g = DiagGaussian::new(vec![1.0, -1.0], vec![2.0, 0.5]).unwrap();
        let x = [0.0, 0.0];
        let want = Gaussian::new(1.0, 2.0).unwrap().ln_pdf(0.0)
            + Gaussian::new(-1.0, 0.5).unwrap().ln_pdf(0.0);
        close(g.ln_pdf(&x), want, 1e-12);
    }

    #[test]
    fn diag_gaussian_fast_ln_pdf_tracks_default_within_ulps() {
        // Every length that exercises lane remainders 0..=3, with
        // deterministic pseudo-random parameters.
        let mut rng = Xoshiro256::seed_from(7);
        for d in [1usize, 2, 3, 4, 5, 7, 8, 16, 33, 100] {
            let mean: Vec<f64> = (0..d).map(|_| rng.next_open_f64() * 4.0 - 2.0).collect();
            let std: Vec<f64> = (0..d).map(|_| rng.next_open_f64() + 0.1).collect();
            let x: Vec<f64> = (0..d).map(|_| rng.next_open_f64() * 6.0 - 3.0).collect();
            let g = DiagGaussian::new(mean, std).unwrap();
            let slow = g.ln_pdf(&x);
            let fast = g.ln_pdf_fast(&x);
            let tol = 1e-12 * slow.abs().max(1.0);
            close(fast, slow, tol);
        }
    }

    #[test]
    fn diag_gaussian_cached_ln_pdf_is_bit_identical_to_reference() {
        // The cached-constant evaluation must match a per-coordinate
        // Gaussian::ln_pdf sum bit for bit (not just approximately): the
        // MH sampler's accept/reject decisions depend on the exact bits.
        let means = [0.0, 1.5, -2.25, 1e6];
        let stds = [1.0, 0.125, 3.7, 42.0];
        let g = DiagGaussian::new(means.to_vec(), stds.to_vec()).unwrap();
        let points = [
            vec![0.0, 0.0, 0.0, 0.0],
            vec![1.0, -1.0, 2.5, 999_999.5],
            vec![-3.5, 0.1, 1e-8, 1e6],
        ];
        for x in &points {
            let reference: f64 = x
                .iter()
                .zip(means.iter().zip(&stds))
                .map(|(&xi, (&m, &s))| Gaussian::new(m, s).unwrap().ln_pdf(xi))
                .sum();
            assert_eq!(g.ln_pdf(x).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn diag_gaussian_samples_have_right_moments() {
        let g = DiagGaussian::new(vec![3.0], vec![0.5]).unwrap();
        let mut rng = Xoshiro256::seed_from(51);
        let xs: Vec<f64> = (0..100_000).map(|_| g.sample(&mut rng)[0]).collect();
        close(dplearn_numerics::stats::mean(&xs).unwrap(), 3.0, 0.01);
        close(dplearn_numerics::stats::variance(&xs).unwrap(), 0.25, 0.01);
    }
}
