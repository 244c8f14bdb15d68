//! The quantitative Figure 1: ε-sweeps over the learning channel,
//! reporting privacy, risk, information leakage, and bound values side by
//! side.
//!
//! "The level of privacy determines how important it is to tilt the
//! balance from minimizing the mutual information in favor of the
//! opposing goal of minimizing the expected loss of the predictor"
//! (Section 1 of the paper). [`epsilon_sweep`] produces exactly that
//! tradeoff curve, exactly computed.

use crate::certificate::PrivacyCertificate;
use crate::information::{learning_channel, DatasetSpace};
use crate::Result;
use dplearn_infotheory::dp_bounds;
use dplearn_learning::hypothesis::{FiniteClass, Predictor};
use dplearn_learning::loss::Loss;
use dplearn_learning::synth::DiscreteWorld;
use dplearn_pacbayes::posterior::FinitePosterior;

/// One row of the privacy–risk–information tradeoff table.
#[derive(Debug, Clone, Copy)]
pub struct TradeoffRow {
    /// Target privacy level ε.
    pub epsilon: f64,
    /// The Gibbs temperature λ realizing it.
    pub lambda: f64,
    /// Exact expected empirical Gibbs risk `E_Ẑ E_π̂ R̂`.
    pub expected_empirical_risk: f64,
    /// Exact expected **true** Gibbs risk `E_Ẑ E_π̂ R(θ)`.
    pub expected_true_risk: f64,
    /// Exact mutual information `I(Ẑ;θ)` in nats.
    pub mi_nats: f64,
    /// The DP ⇒ MI upper bound `n·ε` nats.
    pub mi_bound_nats: f64,
    /// Min-entropy leakage of the channel in bits.
    pub leakage_bits: f64,
    /// Exact realized privacy over neighbor pairs (≤ ε by Theorem 4.1).
    pub realized_epsilon: f64,
}

/// Sweep target ε values over the exact learning channel of an
/// enumerable world.
///
/// `true_risks[j]` must be the exact true risk `R(θ_j)` of each
/// hypothesis under the world distribution (computable from
/// [`DiscreteWorld::example_space`]).
pub fn epsilon_sweep<P: Predictor + Sync, L: Loss + Sync>(
    world: &DiscreteWorld,
    n: usize,
    class: &FiniteClass<P>,
    loss: &L,
    true_risks: &[f64],
    epsilons: &[f64],
) -> Result<Vec<TradeoffRow>> {
    let space = DatasetSpace::enumerate(world, n)?;
    let prior = FinitePosterior::uniform(class.len())?;
    let loss_bound = loss
        .bound()
        .ok_or_else(|| crate::DplearnError::InvalidParameter {
            name: "loss",
            reason: "tradeoff sweeps require a bounded loss".to_string(),
        })?;
    let mut rows = Vec::with_capacity(epsilons.len());
    for &eps in epsilons {
        let lambda = PrivacyCertificate::lambda_for_epsilon(eps, loss_bound, n)?;
        let lc = learning_channel(&space, class, loss, &prior, lambda)?;
        // Expected true risk: E_Ẑ Σ_j π̂_Ẑ(j)·R(θ_j).
        let mut true_risk = 0.0;
        for (&pz, row) in lc.channel.input().iter().zip(lc.channel.rows()) {
            let e: f64 = row.iter().zip(true_risks).map(|(&q, &r)| q * r).sum();
            true_risk += pz * e;
        }
        rows.push(TradeoffRow {
            epsilon: eps,
            lambda,
            expected_empirical_risk: lc.expected_empirical_risk(),
            expected_true_risk: true_risk,
            mi_nats: lc.mutual_information(),
            mi_bound_nats: dp_bounds::mi_bound_nats(eps, n)?,
            leakage_bits: lc.channel.min_entropy_leakage_bits(),
            realized_epsilon: lc.neighbor_privacy_level(&space),
        });
    }
    Ok(rows)
}

/// Exact true risks of threshold classifiers on a [`DiscreteWorld`]:
/// `R(θ) = E_Z[ 0-1 loss ]` computed from the enumerated example space.
pub fn discrete_world_true_risks<P: Predictor>(
    world: &DiscreteWorld,
    class: &FiniteClass<P>,
) -> Vec<f64> {
    let space = world.example_space();
    class
        .hypotheses()
        .iter()
        .map(|h| {
            space
                .iter()
                .map(|(z, p)| {
                    let pred = h.predict(&z.x);
                    if pred * z.y > 0.0 {
                        0.0
                    } else {
                        *p
                    }
                })
                .sum::<f64>()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dplearn_learning::loss::ZeroOne;

    fn sweep() -> Vec<TradeoffRow> {
        let world = DiscreteWorld::new(4, 0.1);
        let class = FiniteClass::threshold_grid(0.0, 4.0, 5);
        let true_risks = discrete_world_true_risks(&world, &class);
        epsilon_sweep(
            &world,
            2,
            &class,
            &ZeroOne,
            &true_risks,
            &[0.1, 0.5, 1.0, 2.0, 5.0],
        )
        .unwrap()
    }

    #[test]
    fn true_risks_are_probabilities() {
        let world = DiscreteWorld::new(4, 0.1);
        let class = FiniteClass::threshold_grid(0.0, 4.0, 5);
        let risks = discrete_world_true_risks(&world, &class);
        assert_eq!(risks.len(), 5);
        for &r in &risks {
            assert!((0.0..=1.0).contains(&r));
        }
        // The grid contains the true threshold (2.0): its risk is the
        // flip probability.
        let best = risks.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((best - 0.1).abs() < 1e-12, "best true risk {best}");
    }

    #[test]
    fn sweep_is_monotone_in_the_right_directions() {
        let rows = sweep();
        for w in rows.windows(2) {
            let (lo, hi) = (&w[0], &w[1]);
            assert!(hi.mi_nats >= lo.mi_nats, "MI must grow with ε");
            assert!(
                hi.expected_empirical_risk <= lo.expected_empirical_risk + 1e-12,
                "empirical risk must shrink with ε"
            );
            assert!(hi.leakage_bits >= lo.leakage_bits - 1e-12);
        }
    }

    #[test]
    fn realized_epsilon_below_target_everywhere() {
        for row in sweep() {
            assert!(
                row.realized_epsilon <= row.epsilon + 1e-9,
                "ε={}: realized {}",
                row.epsilon,
                row.realized_epsilon
            );
            assert!(row.mi_nats <= row.mi_bound_nats + 1e-12);
        }
    }

    #[test]
    fn true_risk_approaches_bayes_as_epsilon_grows() {
        let rows = sweep();
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(last.expected_true_risk < first.expected_true_risk);
        // At ε = 5 with only n = 2 examples, λ = εn/(2B) = 5: the
        // posterior tilts toward the true threshold but can't concentrate
        // hard — true risk lands well below the uniform-posterior level
        // (~0.42 here) while staying above the 0.1 noise floor.
        assert!(last.expected_true_risk < 0.3, "{}", last.expected_true_risk);
        assert!(last.expected_true_risk > 0.1);
    }
}
