//! Probability distributions with exact densities and inverse-CDF or
//! transform samplers.
//!
//! The differential-privacy layer needs exact densities (privacy proofs are
//! statements about density ratios), so every continuous distribution here
//! exposes `pdf`, `ln_pdf`, and `cdf` alongside sampling. Sampling is
//! implemented with classic exact transforms: inverse CDF for Laplace and
//! Exponential, Box–Muller for the Gaussian, and the alias method for
//! categorical draws.

use crate::rng::Rng;
use crate::special::softmax_in_place;
use crate::{NumericsError, Result};

/// Types that can draw a value from a [`Rng`].
pub trait Sample {
    /// The type of a single draw.
    type Output;
    /// Draw one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::Output;

    /// Draw `n` samples into a vector.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Self::Output> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Continuous distributions on ℝ with a density and CDF.
pub trait Continuous: Sample<Output = f64> {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }
    /// Natural log of the density at `x`.
    fn ln_pdf(&self, x: f64) -> f64;
    /// Cumulative distribution function `P[X ≤ x]`.
    fn cdf(&self, x: f64) -> f64;
    /// Mean of the distribution.
    fn mean(&self) -> f64;
    /// Variance of the distribution.
    fn variance(&self) -> f64;
}

fn require_positive(name: &'static str, v: f64) -> Result<()> {
    if v.is_finite() && v > 0.0 {
        Ok(())
    } else {
        Err(NumericsError::InvalidParameter {
            name,
            reason: format!("must be finite and positive, got {v}"),
        })
    }
}

fn require_finite(name: &'static str, v: f64) -> Result<()> {
    if v.is_finite() {
        Ok(())
    } else {
        Err(NumericsError::InvalidParameter {
            name,
            reason: format!("must be finite, got {v}"),
        })
    }
}

/// Laplace distribution `Lap(μ, b)` with density `exp(−|x−μ|/b) / (2b)`.
///
/// This is the noise distribution of the Laplace mechanism (Dwork et al.
/// 2006): adding `Lap(0, Δf/ε)` noise to a Δf-sensitive statistic yields
/// ε-differential privacy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laplace {
    mu: f64,
    b: f64,
}

impl Laplace {
    /// Create a Laplace distribution with location `mu` and scale `b > 0`.
    pub fn new(mu: f64, b: f64) -> Result<Self> {
        require_finite("mu", mu)?;
        require_positive("b", b)?;
        Ok(Laplace { mu, b })
    }

    /// Location parameter.
    pub fn location(&self) -> f64 {
        self.mu
    }

    /// Scale parameter.
    pub fn scale(&self) -> f64 {
        self.b
    }
}

impl Sample for Laplace {
    type Output = f64;
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse CDF: u ~ U(-1/2, 1/2), x = μ − b · sgn(u) ln(1 − 2|u|).
        let u = rng.next_open_f64() - 0.5;
        self.mu - self.b * u.signum() * (1.0 - 2.0 * u.abs()).ln()
    }
}

impl Continuous for Laplace {
    fn ln_pdf(&self, x: f64) -> f64 {
        -((x - self.mu).abs() / self.b) - (2.0 * self.b).ln()
    }
    fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.b;
        if z < 0.0 {
            0.5 * z.exp()
        } else {
            1.0 - 0.5 * (-z).exp()
        }
    }
    fn mean(&self) -> f64 {
        self.mu
    }
    fn variance(&self) -> f64 {
        2.0 * self.b * self.b
    }
}

/// Gaussian (normal) distribution `N(μ, σ²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mu: f64,
    sigma: f64,
}

impl Gaussian {
    /// Create a Gaussian with mean `mu` and standard deviation `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        require_finite("mu", mu)?;
        require_positive("sigma", sigma)?;
        Ok(Gaussian { mu, sigma })
    }

    /// Standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Gaussian {
            mu: 0.0,
            sigma: 1.0,
        }
    }

    /// Standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Sample for Gaussian {
    type Output = f64;
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller (basic form). We discard the second variate to keep
        // the sampler stateless; throughput is not a bottleneck here.
        let u1 = rng.next_open_f64();
        let u2 = rng.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.mu + self.sigma * r * theta.cos()
    }
}

impl Continuous for Gaussian {
    fn ln_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        -0.5 * z * z - self.sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }
    fn cdf(&self, x: f64) -> f64 {
        crate::special::std_normal_cdf((x - self.mu) / self.sigma)
    }
    fn mean(&self) -> f64 {
        self.mu
    }
    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }
}

/// Exponential distribution with rate `λ` (mean `1/λ`), supported on `[0, ∞)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Create an exponential distribution with rate `rate > 0`.
    pub fn new(rate: f64) -> Result<Self> {
        require_positive("rate", rate)?;
        Ok(Exponential { rate })
    }
}

impl Sample for Exponential {
    type Output = f64;
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        -rng.next_open_f64().ln() / self.rate
    }
}

impl Continuous for Exponential {
    fn ln_pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            f64::NEG_INFINITY
        } else {
            self.rate.ln() - self.rate * x
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            -(-self.rate * x).exp_m1()
        }
    }
    fn mean(&self) -> f64 {
        1.0 / self.rate
    }
    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }
}

/// Continuous uniform distribution on `[a, b)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    a: f64,
    b: f64,
}

impl Uniform {
    /// Create a uniform distribution on `[a, b)` with `a < b`.
    pub fn new(a: f64, b: f64) -> Result<Self> {
        require_finite("a", a)?;
        require_finite("b", b)?;
        if a >= b {
            return Err(NumericsError::InvalidParameter {
                name: "b",
                reason: format!("must exceed a={a}, got {b}"),
            });
        }
        Ok(Uniform { a, b })
    }
}

impl Sample for Uniform {
    type Output = f64;
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.a + (self.b - self.a) * rng.next_f64()
    }
}

impl Continuous for Uniform {
    fn ln_pdf(&self, x: f64) -> f64 {
        if x >= self.a && x < self.b {
            -(self.b - self.a).ln()
        } else {
            f64::NEG_INFINITY
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        ((x - self.a) / (self.b - self.a)).clamp(0.0, 1.0)
    }
    fn mean(&self) -> f64 {
        0.5 * (self.a + self.b)
    }
    fn variance(&self) -> f64 {
        (self.b - self.a).powi(2) / 12.0
    }
}

/// Standard Gumbel distribution (location 0, scale 1).
///
/// Used for Gumbel-max sampling of the exponential mechanism:
/// `argmaxᵢ (sᵢ + Gᵢ)` with i.i.d. Gumbel `Gᵢ` is a draw from the softmax of
/// the scores `sᵢ`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gumbel;

impl Sample for Gumbel {
    type Output = f64;
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        -(-rng.next_open_f64().ln()).ln()
    }
}

impl Continuous for Gumbel {
    fn ln_pdf(&self, x: f64) -> f64 {
        -x - (-x).exp()
    }
    fn cdf(&self, x: f64) -> f64 {
        (-(-x).exp()).exp()
    }
    fn mean(&self) -> f64 {
        // Euler–Mascheroni constant.
        0.577_215_664_901_532_9
    }
    fn variance(&self) -> f64 {
        std::f64::consts::PI.powi(2) / 6.0
    }
}

/// Categorical distribution over `{0, …, k−1}` with O(1) sampling via the
/// alias method (Walker/Vose).
#[derive(Debug, Clone)]
pub struct Categorical {
    probs: Vec<f64>,
    alias: Vec<usize>,
    cutoff: Vec<f64>,
}

impl Categorical {
    /// Build from (not necessarily normalized) nonnegative weights.
    ///
    /// Weights must be finite, nonnegative, and have a positive sum.
    pub fn new(weights: &[f64]) -> Result<Self> {
        if weights.is_empty() {
            return Err(NumericsError::EmptyInput);
        }
        let mut total = 0.0;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(NumericsError::InvalidParameter {
                    name: "weights",
                    reason: format!("weights must be finite and nonnegative, got {w}"),
                });
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(NumericsError::InvalidParameter {
                name: "weights",
                reason: "weights must have a positive sum".to_string(),
            });
        }
        let probs: Vec<f64> = weights.iter().map(|&w| w / total).collect();
        let (alias, cutoff) = Self::build_alias(&probs);
        Ok(Categorical {
            probs,
            alias,
            cutoff,
        })
    }

    /// Build from unnormalized **log**-weights; normalization happens in
    /// log space ([`softmax_in_place`]), so astronomically small or
    /// large weights are fine.
    ///
    /// This is the entry point the exponential mechanism and Gibbs
    /// posterior use: their weights are `exp(score)` for scores that can
    /// reach ±thousands.
    pub fn from_log_weights(log_weights: &[f64]) -> Result<Self> {
        if log_weights.is_empty() {
            return Err(NumericsError::EmptyInput);
        }
        let mut probs = log_weights.to_vec();
        let z = softmax_in_place(&mut probs);
        if !z.is_finite() {
            return Err(NumericsError::InvalidParameter {
                name: "log_weights",
                reason: format!("log-normalizer is not finite ({z})"),
            });
        }
        let (alias, cutoff) = Self::build_alias(&probs);
        Ok(Categorical {
            probs,
            alias,
            cutoff,
        })
    }

    // Every index here comes from enumerating `0..k` over vectors allocated
    // with length `k`, so the direct indexing cannot go out of bounds.
    #[allow(clippy::indexing_slicing)]
    fn build_alias(probs: &[f64]) -> (Vec<usize>, Vec<f64>) {
        // Vose's stable alias construction.
        let k = probs.len();
        let mut alias = vec![0usize; k];
        let mut cutoff = vec![0.0f64; k];
        let mut scaled: Vec<f64> = probs.iter().map(|&p| p * k as f64).collect();
        let mut small: Vec<usize> = Vec::with_capacity(k);
        let mut large: Vec<usize> = Vec::with_capacity(k);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            cutoff[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for &l in &large {
            cutoff[l] = 1.0;
        }
        for &s in &small {
            cutoff[s] = 1.0; // Only reachable through rounding error.
        }
        (alias, cutoff)
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True when there are no categories (never constructible; provided for
    /// the `len`/`is_empty` pair convention).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Normalized probability of category `i` (zero when out of range).
    pub fn prob(&self, i: usize) -> f64 {
        self.probs.get(i).copied().unwrap_or(0.0)
    }

    /// The full normalized probability vector.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }
}

impl Sample for Categorical {
    type Output = usize;
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.next_index(self.probs.len());
        let cut = self.cutoff.get(i).copied().unwrap_or(1.0);
        if rng.next_f64() < cut {
            i
        } else {
            self.alias.get(i).copied().unwrap_or(i)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;
    use crate::special::log_sum_exp;
    use crate::stats;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(Laplace::new(0.0, 0.0).is_err());
        assert!(Laplace::new(f64::NAN, 1.0).is_err());
        assert!(Gaussian::new(0.0, -1.0).is_err());
        assert!(Exponential::new(0.0).is_err());
        assert!(Uniform::new(1.0, 1.0).is_err());
        assert!(Categorical::new(&[]).is_err());
        assert!(Categorical::new(&[0.0, 0.0]).is_err());
        assert!(Categorical::new(&[-1.0, 2.0]).is_err());
    }

    #[test]
    fn laplace_moments_from_samples() {
        let mut rng = Xoshiro256::seed_from(1);
        let d = Laplace::new(3.0, 2.0).unwrap();
        let xs = d.sample_n(&mut rng, 200_000);
        close(stats::mean(&xs).unwrap(), d.mean(), 0.05);
        close(stats::variance(&xs).unwrap(), d.variance(), 0.3);
    }

    #[test]
    fn laplace_pdf_integrates_to_one() {
        let d = Laplace::new(0.0, 1.5).unwrap();
        let integral = crate::integrate::simpson(|x| d.pdf(x), -40.0, 40.0, 4000);
        close(integral, 1.0, 1e-8);
    }

    #[test]
    fn laplace_cdf_matches_quantiles() {
        let d = Laplace::new(0.0, 1.0).unwrap();
        close(d.cdf(0.0), 0.5, 1e-12);
        close(d.cdf(f64::INFINITY), 1.0, 1e-12);
        // cdf(-ln 2) for b=1 is 0.25.
        close(d.cdf(-(2f64.ln())), 0.25, 1e-12);
    }

    #[test]
    fn gaussian_moments_and_cdf() {
        let mut rng = Xoshiro256::seed_from(2);
        let d = Gaussian::new(-1.0, 0.5).unwrap();
        let xs = d.sample_n(&mut rng, 200_000);
        close(stats::mean(&xs).unwrap(), -1.0, 0.01);
        close(stats::variance(&xs).unwrap(), 0.25, 0.01);
        close(d.cdf(-1.0), 0.5, 1e-9);
    }

    #[test]
    fn exponential_moments_and_support() {
        let mut rng = Xoshiro256::seed_from(3);
        let d = Exponential::new(2.0).unwrap();
        let xs = d.sample_n(&mut rng, 100_000);
        assert!(xs.iter().all(|&x| x >= 0.0));
        close(stats::mean(&xs).unwrap(), 0.5, 0.01);
        assert_eq!(d.pdf(-1.0), 0.0);
        assert_eq!(d.cdf(-1.0), 0.0);
    }

    #[test]
    fn uniform_mean_and_bounds() {
        let mut rng = Xoshiro256::seed_from(4);
        let d = Uniform::new(2.0, 5.0).unwrap();
        let xs = d.sample_n(&mut rng, 50_000);
        assert!(xs.iter().all(|&x| (2.0..5.0).contains(&x)));
        close(stats::mean(&xs).unwrap(), 3.5, 0.02);
    }

    #[test]
    fn gumbel_mean_is_euler_gamma() {
        let mut rng = Xoshiro256::seed_from(5);
        let xs = Gumbel.sample_n(&mut rng, 200_000);
        close(stats::mean(&xs).unwrap(), 0.577_215_664_901_532_9, 0.02);
    }

    #[test]
    fn categorical_frequencies_match_weights() {
        let mut rng = Xoshiro256::seed_from(6);
        let d = Categorical::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let n = 400_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[d.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expect = (i + 1) as f64 / 10.0;
            close(c as f64 / n as f64, expect, 0.005);
        }
    }

    #[test]
    fn categorical_from_log_weights_handles_extreme_scale() {
        // exp(-2000) underflows; the log-space constructor must not care.
        let d = Categorical::from_log_weights(&[-2000.0, -2000.0 + (2f64).ln()]).unwrap();
        close(d.prob(0), 1.0 / 3.0, 1e-12);
        close(d.prob(1), 2.0 / 3.0, 1e-12);
    }

    #[test]
    fn categorical_from_log_weights_runs_the_softmax_kernel() {
        let mut rng = Xoshiro256::seed_from(5);
        for k in (1..=9).chain([4099]) {
            let lw: Vec<f64> = (0..k).map(|_| 60.0 * rng.next_f64() - 30.0).collect();
            let mut want = lw.clone();
            softmax_in_place(&mut want);
            let got = Categorical::from_log_weights(&lw).unwrap();
            for (a, b) in got.probs().iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits(), "k={k}");
            }
        }
        assert!(Categorical::from_log_weights(&[0.0, f64::NAN]).is_err());
    }

    #[test]
    fn categorical_degenerate_mass() {
        let mut rng = Xoshiro256::seed_from(7);
        let d = Categorical::new(&[0.0, 1.0, 0.0]).unwrap();
        for _ in 0..1000 {
            assert_eq!(d.sample(&mut rng), 1);
        }
    }

    #[test]
    fn gumbel_max_equals_softmax_sampling() {
        // Gumbel-max trick: argmax(score_i + G_i) ~ softmax(score).
        let mut rng = Xoshiro256::seed_from(8);
        let scores = [0.0, 1.0, 2.0];
        let z = log_sum_exp(&scores);
        let want: Vec<f64> = scores.iter().map(|s| (s - z).exp()).collect();
        let n = 300_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            let mut best = 0;
            let mut best_v = f64::NEG_INFINITY;
            for (i, &s) in scores.iter().enumerate() {
                let v = s + Gumbel.sample(&mut rng);
                if v > best_v {
                    best_v = v;
                    best = i;
                }
            }
            counts[best] += 1;
        }
        for i in 0..3 {
            close(counts[i] as f64 / n as f64, want[i], 0.005);
        }
    }
}
