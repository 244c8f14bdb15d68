//! Differentially-private **density estimation** via PAC-Bayesian Gibbs
//! posteriors — the second of the paper's announced future directions
//! ("... and density estimation using PAC-Bayesian bounds", Section 5).
//!
//! Setting: data on a bounded interval, candidate densities = the finite
//! family of histogram densities whose bin masses are compositions of a
//! granularity `g` into `m` bins (smoothed so every candidate is strictly
//! positive). The loss is the **clamped negative log-likelihood**
//! `min(−ln f(x), B)`, bounded because smoothing bounds the densities
//! away from zero — so `ΔR̂ = B/n`, Theorem 4.1 applies verbatim, and the
//! Gibbs posterior over candidate densities is an ε-DP density estimator
//! with a PAC-Bayes log-loss certificate.
//!
//! A Laplace-noised private histogram ([`dplearn_mechanisms::histogram`])
//! serves as the natural baseline; experiment E10 compares the two.

use crate::learner::GibbsLearner;
use crate::{DplearnError, Result};
use dplearn_learning::data::{Dataset, Example};
use dplearn_learning::hypothesis::Predictor;
use dplearn_learning::loss::Loss;
use dplearn_numerics::rng::Rng;
use dplearn_pacbayes::posterior::FinitePosterior;

/// A histogram density on `[lo, hi)` with `m` equal-width bins.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramDensity {
    lo: f64,
    hi: f64,
    /// Per-bin probability masses (sum to 1).
    masses: Vec<f64>,
}

impl HistogramDensity {
    /// Create from bin masses (validated to be a distribution).
    pub fn new(lo: f64, hi: f64, masses: Vec<f64>) -> Result<Self> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) || masses.is_empty() {
            return Err(DplearnError::InvalidParameter {
                name: "domain",
                reason: "need finite lo < hi and at least one bin".to_string(),
            });
        }
        let total: f64 = masses.iter().sum();
        if masses.iter().any(|&p| !(p.is_finite() && p >= 0.0)) || (total - 1.0).abs() > 1e-9 {
            return Err(DplearnError::InvalidParameter {
                name: "masses",
                reason: format!("must be nonnegative and sum to 1 (got {total})"),
            });
        }
        Ok(HistogramDensity { lo, hi, masses })
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.masses.len()
    }

    /// Bin masses.
    pub fn masses(&self) -> &[f64] {
        &self.masses
    }

    /// Density value at `x` (0 outside the domain).
    pub fn pdf(&self, x: f64) -> f64 {
        if x.is_nan() || x < self.lo || x >= self.hi {
            return 0.0;
        }
        let m = self.masses.len();
        let width = (self.hi - self.lo) / m as f64;
        let b = (((x - self.lo) / width).floor() as usize).min(m - 1);
        self.masses.get(b).copied().unwrap_or(0.0) / width
    }

    /// L1 distance `∫ |f − g|` to another density on the same binning.
    pub fn l1_distance(&self, other: &HistogramDensity) -> Result<f64> {
        if self.masses.len() != other.masses.len() || self.lo != other.lo || self.hi != other.hi {
            return Err(DplearnError::InvalidParameter {
                name: "other",
                reason: "densities must share a domain and binning".to_string(),
            });
        }
        Ok(self
            .masses
            .iter()
            .zip(&other.masses)
            .map(|(&a, &b)| (a - b).abs())
            .sum())
    }
}

/// Enumerate all compositions of `g` into `m` nonnegative parts — the
/// candidate grid on the probability simplex. Count: `C(g+m−1, m−1)`.
pub fn compositions(g: usize, m: usize) -> Vec<Vec<usize>> {
    assert!(m >= 1, "need at least one part");
    let mut out = Vec::new();
    let mut current = vec![0usize; m];
    fn recurse(g: usize, idx: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if idx + 1 == current.len() {
            if let Some(slot) = current.get_mut(idx) {
                *slot = g;
            }
            out.push(current.clone());
            return;
        }
        for v in 0..=g {
            if let Some(slot) = current.get_mut(idx) {
                *slot = v;
            }
            recurse(g - v, idx + 1, current, out);
        }
    }
    recurse(g, 0, &mut current, &mut out);
    out
}

/// A candidate density used as a "hypothesis": its prediction is ignored
/// (density estimation has no (x → y) structure); it carries the density.
#[derive(Debug, Clone)]
struct DensityHypothesis(HistogramDensity);

impl Predictor for DensityHypothesis {
    fn predict(&self, x: &[f64]) -> f64 {
        self.0.pdf(x.first().copied().unwrap_or(f64::NAN))
    }
}

/// Shifted, clamped negative log-likelihood "loss" for density
/// estimation: `l_f(x) = min(−ln f(x), nll_max) − nll_min`, where
/// `nll_min = −ln(max candidate density)` and `nll_max = −ln(min
/// candidate density)` are determined by the smoothed candidate family.
///
/// The shift keeps the loss in `[0, B]` (so `ΔR̂ = B/n` is valid) without
/// flattening the likelihood ordering — subtracting a constant leaves the
/// Gibbs posterior unchanged, whereas clamping negative NLLs at zero
/// would erase the reward for putting high density on the data.
#[derive(Debug, Clone, Copy)]
struct ClampedNll {
    nll_min: f64,
    nll_max: f64,
}

impl ClampedNll {
    fn range(&self) -> f64 {
        self.nll_max - self.nll_min
    }
}

impl Loss for ClampedNll {
    fn loss(&self, prediction: f64, _y: f64) -> f64 {
        let nll = if prediction <= 0.0 {
            self.nll_max
        } else {
            (-prediction.ln()).min(self.nll_max)
        };
        (nll - self.nll_min).max(0.0)
    }
    fn bound(&self) -> Option<f64> {
        Some(self.range())
    }
}

/// Configuration for private density estimation.
#[derive(Debug, Clone)]
pub struct PrivateDensityConfig {
    /// Privacy target ε.
    pub epsilon: f64,
    /// Domain lower edge.
    pub lo: f64,
    /// Domain upper edge.
    pub hi: f64,
    /// Number of histogram bins `m`.
    pub bins: usize,
    /// Simplex granularity `g` (candidate count is `C(g+m−1, m−1)`).
    pub granularity: usize,
    /// Additive smoothing `α > 0` applied to every candidate's bin
    /// weights — bounds densities away from 0, hence bounds the NLL.
    pub smoothing: f64,
}

impl Default for PrivateDensityConfig {
    fn default() -> Self {
        PrivateDensityConfig {
            epsilon: 1.0,
            lo: 0.0,
            hi: 1.0,
            bins: 5,
            granularity: 8,
            smoothing: 0.5,
        }
    }
}

/// A fitted private density estimator.
pub struct PrivateDensity {
    /// The Gibbs posterior over candidate densities.
    pub posterior: FinitePosterior,
    /// The candidate densities, aligned with the posterior.
    pub candidates: Vec<HistogramDensity>,
    /// Per-candidate empirical (clamped) NLL risks.
    pub risks: Vec<f64>,
    /// The privacy certificate of the release (Theorem 4.1).
    pub privacy: crate::certificate::PrivacyCertificate,
    /// The clamp `B` used on the NLL.
    pub loss_clamp: f64,
}

impl PrivateDensity {
    /// Fit an ε-DP density estimator on scalar data.
    pub fn fit(data: &[f64], cfg: &PrivateDensityConfig) -> Result<Self> {
        if data.is_empty() {
            return Err(DplearnError::Learning(
                dplearn_learning::LearningError::EmptyDataset,
            ));
        }
        if cfg.bins < 2 || cfg.granularity == 0 {
            return Err(DplearnError::InvalidParameter {
                name: "cfg",
                reason: "need at least 2 bins and positive granularity".to_string(),
            });
        }
        // NaN-rejecting check.
        if cfg.smoothing.is_nan() || cfg.smoothing <= 0.0 {
            return Err(DplearnError::InvalidParameter {
                name: "smoothing",
                reason: "smoothing must be positive (it bounds the NLL)".to_string(),
            });
        }
        let m = cfg.bins;
        let g = cfg.granularity as f64;
        let alpha = cfg.smoothing;
        let width = (cfg.hi - cfg.lo) / m as f64;

        // Candidate densities: smoothed compositions. The candidate
        // count C(g+m−1, m−1) grows combinatorially, and this map (like
        // the exponential-mechanism scoring loop over it inside
        // `GibbsLearner::fit`) is a pure per-candidate function, so it
        // parallelizes with bit-identical output at any thread count.
        let comps = compositions(cfg.granularity, m);
        let denom = g + alpha * m as f64;
        let candidates: Vec<HistogramDensity> = dplearn_parallel::par_map(&comps, 0, |_, c| {
            let masses: Vec<f64> = c.iter().map(|&v| (v as f64 + alpha) / denom).collect();
            HistogramDensity::new(cfg.lo, cfg.hi, masses)
        })
        .into_iter()
        .collect::<Result<_>>()?;

        // The candidate family's density range bounds the NLL from both
        // sides: these two constants define the loss range B.
        let min_density = alpha / denom / width;
        let max_density = (g + alpha) / denom / width;
        let loss = ClampedNll {
            nll_min: -max_density.ln(),
            nll_max: -min_density.ln() + 1e-9,
        };
        let loss_clamp = loss.range();

        let class = dplearn_learning::hypothesis::FiniteClass::new(
            candidates
                .iter()
                .cloned()
                .map(DensityHypothesis)
                .collect::<Vec<_>>(),
        );
        let dataset: Dataset = data
            .iter()
            .map(|&x| Example::scalar(x.clamp(cfg.lo, cfg.hi - 1e-12), 0.0))
            .collect();
        let fitted = GibbsLearner::new(loss)
            .with_target_epsilon(cfg.epsilon)
            .fit(&class, &dataset)?;

        Ok(PrivateDensity {
            posterior: fitted.posterior.clone(),
            candidates,
            risks: fitted.risks.clone(),
            privacy: fitted.privacy,
            loss_clamp,
        })
    }

    /// Draw the private release: one candidate density.
    // The posterior's support equals `candidates.len()` at construction, so
    // the sampled index is always in bounds.
    #[allow(clippy::indexing_slicing)]
    pub fn sample_density<R: Rng + ?Sized>(&self, rng: &mut R) -> &HistogramDensity {
        &self.candidates[self.posterior.sample(rng)]
    }

    /// Posterior-mean density (diagnostic; not the ε-certified release).
    pub fn posterior_mean(&self) -> Result<HistogramDensity> {
        let first = self
            .candidates
            .first()
            .ok_or(DplearnError::InvalidParameter {
                name: "candidates",
                reason: "density has no candidates".to_string(),
            })?;
        let mut masses = vec![0.0; first.bins()];
        for (i, c) in self.candidates.iter().enumerate() {
            let p = self.posterior.prob(i);
            for (acc, &v) in masses.iter_mut().zip(c.masses()) {
                *acc += p * v;
            }
        }
        HistogramDensity::new(first.lo, first.hi, masses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dplearn_numerics::distributions::{Sample, Uniform};
    use dplearn_numerics::rng::Xoshiro256;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    fn skewed_sample(n: usize, seed: u64) -> Vec<f64> {
        // 70% mass on [0, 0.2), 30% uniform elsewhere.
        let mut rng = Xoshiro256::seed_from(seed);
        let u = Uniform::new(0.0, 1.0).unwrap();
        (0..n)
            .map(|_| {
                if rng.next_bool(0.7) {
                    0.2 * u.sample(&mut rng)
                } else {
                    0.2 + 0.8 * u.sample(&mut rng)
                }
            })
            .collect()
    }

    #[test]
    fn compositions_count_matches_stars_and_bars() {
        // C(g+m−1, m−1) for g=4, m=3 is C(6,2) = 15.
        let comps = compositions(4, 3);
        assert_eq!(comps.len(), 15);
        assert!(comps.iter().all(|c| c.iter().sum::<usize>() == 4));
        assert_eq!(compositions(0, 2), vec![vec![0, 0]]);
    }

    #[test]
    fn histogram_density_pdf_and_l1() {
        let f = HistogramDensity::new(0.0, 1.0, vec![0.5, 0.5]).unwrap();
        close(f.pdf(0.25), 1.0, 1e-12);
        close(f.pdf(0.75), 1.0, 1e-12);
        assert_eq!(f.pdf(-0.1), 0.0);
        assert_eq!(f.pdf(1.0), 0.0);
        let g = HistogramDensity::new(0.0, 1.0, vec![1.0, 0.0]).unwrap();
        close(f.l1_distance(&g).unwrap(), 1.0, 1e-12);
        assert!(HistogramDensity::new(0.0, 1.0, vec![0.5, 0.4]).is_err());
        let h = HistogramDensity::new(0.0, 2.0, vec![0.5, 0.5]).unwrap();
        assert!(f.l1_distance(&h).is_err());
    }

    #[test]
    fn fit_recovers_skew_at_generous_epsilon() {
        let data = skewed_sample(3000, 301);
        let cfg = PrivateDensityConfig {
            epsilon: 10.0,
            ..Default::default()
        };
        let pd = PrivateDensity::fit(&data, &cfg).unwrap();
        let mean = pd.posterior_mean().unwrap();
        // True masses are [0.70, 0.075, 0.075, 0.075, 0.075]; the
        // smoothed g = 8 grid quantizes to ≈ 0.71 / ≤ 0.15 cells.
        assert!(mean.masses()[0] > 0.55, "bin 0 mass {}", mean.masses()[0]);
        for (i, &m) in mean.masses().iter().enumerate().skip(1) {
            assert!(m < 0.2, "bin {i} mass {m}");
        }
        close(pd.privacy.epsilon, 10.0, 1e-12);
    }

    #[test]
    fn quality_improves_with_epsilon() {
        let data = skewed_sample(1200, 302);
        // Ground-truth masses on the 5-bin grid: 70% in bin 0, the rest
        // uniform over [0.2, 1).
        let truth =
            HistogramDensity::new(0.0, 1.0, vec![0.70, 0.075, 0.075, 0.075, 0.075]).unwrap();
        let mut rng = Xoshiro256::seed_from(303);
        let avg_l1 = |eps: f64, rng: &mut Xoshiro256| {
            let cfg = PrivateDensityConfig {
                epsilon: eps,
                ..Default::default()
            };
            let pd = PrivateDensity::fit(&data, &cfg).unwrap();
            let mut total = 0.0;
            for _ in 0..20 {
                total += pd.sample_density(rng).l1_distance(&truth).unwrap();
            }
            total / 20.0
        };
        let noisy = avg_l1(0.05, &mut rng);
        let clean = avg_l1(5.0, &mut rng);
        assert!(
            clean < noisy,
            "L1 at ε=5 ({clean}) should beat ε=0.05 ({noisy})"
        );
        assert!(clean < 0.35, "clean L1 {clean}");
    }

    #[test]
    fn privacy_audit_of_density_release() {
        use dplearn_mechanisms::audit::max_log_ratio;
        let data = skewed_sample(60, 304);
        let cfg = PrivateDensityConfig {
            epsilon: 1.0,
            bins: 3,
            granularity: 5,
            ..Default::default()
        };
        let base = PrivateDensity::fit(&data, &cfg).unwrap();
        let mut worst = 0.0f64;
        for i in [0usize, 10, 30] {
            for v in [0.01, 0.5, 0.99] {
                let mut nb = data.clone();
                nb[i] = v;
                let fit = PrivateDensity::fit(&nb, &cfg).unwrap();
                let r = max_log_ratio(base.posterior.probs(), fit.posterior.probs()).unwrap();
                worst = worst.max(r);
            }
        }
        assert!(worst <= 1.0 + 1e-9, "audited ε̂ {worst}");
        assert!(worst > 0.0);
    }

    #[test]
    fn fit_validates_config() {
        let data = vec![0.5];
        assert!(PrivateDensity::fit(&[], &PrivateDensityConfig::default()).is_err());
        assert!(PrivateDensity::fit(
            &data,
            &PrivateDensityConfig {
                bins: 1,
                ..Default::default()
            }
        )
        .is_err());
        assert!(PrivateDensity::fit(
            &data,
            &PrivateDensityConfig {
                smoothing: 0.0,
                ..Default::default()
            }
        )
        .is_err());
    }
}
