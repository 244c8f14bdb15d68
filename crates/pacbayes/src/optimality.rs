//! Numerical verification machinery for Lemma 3.2 (Gibbs optimality).
//!
//! Lemma 3.2 says the Gibbs posterior minimizes the Catoni objective
//! `J_λ(π̂) = E_π̂[R̂] + KL(π̂‖π)/λ` over *all* posteriors. On a finite
//! class this is a convex program with an analytic solution, so the lemma
//! can be checked brutally: evaluate `J_λ` at the Gibbs posterior and at
//! thousands of random/perturbed posteriors and confirm none beats it.
//! Experiment E4 drives exactly this; the functions live here so they are
//! unit-tested library code, not experiment-script logic.
//!
//! The module also provides the *analytic* optimum value
//! `J_λ(π̂_λ) = −(1/λ)·ln E_π[e^{−λR̂}]` (the log-partition identity),
//! giving an independent closed form the search must match.

use crate::gibbs::{gibbs_finite, gibbs_log_weights};
use crate::kl::kl_finite;
use crate::posterior::FinitePosterior;
use crate::Result;
use dplearn_numerics::rng::Rng;
use dplearn_numerics::special::log_sum_exp;

/// Evaluate the Catoni objective `J_λ(π̂) = E_π̂[R̂] + KL(π̂‖π)/λ`.
pub fn objective(
    posterior: &FinitePosterior,
    prior: &FinitePosterior,
    risks: &[f64],
    lambda: f64,
) -> Result<f64> {
    let kl = kl_finite(posterior, prior)?;
    Ok(posterior.expectation(risks) + kl / lambda)
}

/// The analytic minimum of the objective:
/// `J_λ(π̂_λ) = −(1/λ)·ln Σᵢ π(i)·e^{−λ·risks[i]}`.
///
/// Derivation: plugging the Gibbs posterior into `J_λ` collapses to the
/// negative log partition function over λ — the classic variational
/// identity (a.k.a. the Donsker–Varadhan dual).
pub fn analytic_minimum(prior: &FinitePosterior, risks: &[f64], lambda: f64) -> Result<f64> {
    Ok(-log_sum_exp(&gibbs_log_weights(prior, risks, lambda)) / lambda)
}

/// A randomly perturbed variant of `base`: mixes with an independent
/// random distribution by a random coefficient. Used to probe the
/// objective landscape around (and far from) the Gibbs posterior.
pub fn random_perturbation<R: Rng + ?Sized>(
    base: &FinitePosterior,
    rng: &mut R,
) -> FinitePosterior {
    let k = base.len();
    // A random point on the simplex via normalized exponentials.
    let noise: Vec<f64> = (0..k).map(|_| -rng.next_open_f64().ln()).collect();
    let total: f64 = noise.iter().sum();
    let mix = rng.next_f64();
    let probs: Vec<f64> = base
        .probs()
        .iter()
        .zip(&noise)
        .map(|(&p, &n)| (1.0 - mix) * p + mix * n / total)
        .collect();
    // A convex mixture of two distributions is a distribution; the only
    // way construction can fail is catastrophic rounding, in which case
    // the unperturbed base is a valid (if boring) challenger.
    FinitePosterior::from_probs(probs).unwrap_or_else(|_| base.clone())
}

/// Result of a Gibbs-optimality search.
#[derive(Debug, Clone)]
pub struct OptimalityCheck {
    /// Objective value at the Gibbs posterior.
    pub gibbs_objective: f64,
    /// The analytic optimum `−(1/λ) ln Z` (must match `gibbs_objective`).
    pub analytic_optimum: f64,
    /// Best (smallest) objective found among all challengers.
    pub best_challenger: f64,
    /// Number of challenger posteriors evaluated.
    pub challengers: usize,
}

impl OptimalityCheck {
    /// Whether the Gibbs posterior won (up to numerical slack).
    pub fn gibbs_wins(&self, tol: f64) -> bool {
        self.gibbs_objective <= self.best_challenger + tol
            && (self.gibbs_objective - self.analytic_optimum).abs() <= tol
    }
}

/// Run the optimality search: evaluate `J_λ` at the Gibbs posterior and at
/// `n_challengers` random perturbations (of both the Gibbs posterior and
/// the prior).
pub fn verify_gibbs_optimality<R: Rng + ?Sized>(
    prior: &FinitePosterior,
    risks: &[f64],
    lambda: f64,
    n_challengers: usize,
    rng: &mut R,
) -> Result<OptimalityCheck> {
    let gibbs = gibbs_finite(prior, risks, lambda)?;
    let gibbs_objective = objective(&gibbs, prior, risks, lambda)?;
    let analytic_optimum = analytic_minimum(prior, risks, lambda)?;
    let mut best_challenger = f64::INFINITY;
    for i in 0..n_challengers {
        let base = if i % 2 == 0 { &gibbs } else { prior };
        let challenger = random_perturbation(base, rng);
        let obj = objective(&challenger, prior, risks, lambda)?;
        best_challenger = best_challenger.min(obj);
    }
    Ok(OptimalityCheck {
        gibbs_objective,
        analytic_optimum,
        best_challenger,
        challengers: n_challengers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dplearn_numerics::rng::Xoshiro256;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn analytic_minimum_matches_direct_evaluation() {
        let prior = FinitePosterior::uniform(5).unwrap();
        let risks = [0.1, 0.3, 0.2, 0.9, 0.05];
        for &lambda in &[0.5, 2.0, 10.0, 100.0] {
            let gibbs = gibbs_finite(&prior, &risks, lambda).unwrap();
            let direct = objective(&gibbs, &prior, &risks, lambda).unwrap();
            let analytic = analytic_minimum(&prior, &risks, lambda).unwrap();
            close(direct, analytic, 1e-10);
        }
    }

    #[test]
    fn gibbs_beats_thousands_of_challengers() {
        let prior = FinitePosterior::uniform(8).unwrap();
        let risks = [0.2, 0.5, 0.1, 0.8, 0.35, 0.6, 0.15, 0.9];
        let mut rng = Xoshiro256::seed_from(71);
        let check = verify_gibbs_optimality(&prior, &risks, 4.0, 5000, &mut rng).unwrap();
        assert!(check.gibbs_wins(1e-9), "{check:?}");
        // The margin should be strictly positive for challengers away from
        // the optimum.
        assert!(check.best_challenger > check.gibbs_objective);
    }

    #[test]
    fn gibbs_optimal_under_non_uniform_prior() {
        let prior = FinitePosterior::from_probs(vec![0.7, 0.1, 0.1, 0.1]).unwrap();
        let risks = [0.9, 0.1, 0.5, 0.2];
        let mut rng = Xoshiro256::seed_from(72);
        let check = verify_gibbs_optimality(&prior, &risks, 3.0, 3000, &mut rng).unwrap();
        assert!(check.gibbs_wins(1e-9), "{check:?}");
    }

    #[test]
    fn objective_at_prior_exceeds_minimum() {
        // KL(π‖π) = 0 so J(π) = E_π R̂ — still at least the optimum.
        let prior = FinitePosterior::uniform(3).unwrap();
        let risks = [0.1, 0.5, 0.9];
        let lambda = 2.0;
        let at_prior = objective(&prior, &prior, &risks, lambda).unwrap();
        let opt = analytic_minimum(&prior, &risks, lambda).unwrap();
        assert!(at_prior >= opt);
        close(at_prior, 0.5, 1e-12); // mean risk
    }

    #[test]
    fn perturbations_are_valid_distributions() {
        let base = FinitePosterior::uniform(6).unwrap();
        let mut rng = Xoshiro256::seed_from(73);
        for _ in 0..100 {
            let p = random_perturbation(&base, &mut rng);
            let total: f64 = p.probs().iter().sum();
            close(total, 1.0, 1e-9);
        }
    }
}
