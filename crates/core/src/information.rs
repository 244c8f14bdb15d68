//! The learning channel of Figure 1 and the mutual-information-regularized
//! objective of Theorem 4.2 — computed **exactly** on enumerable worlds.
//!
//! For a finite example space (the [`DiscreteWorld`] generator) and small
//! sample size `n`, the space of datasets `Ẑ ∈ Zⁿ` is finite, so the
//! paper's channel `Ẑ → θ` is a finite matrix whose rows are Gibbs
//! posteriors, and the following are all exactly computable:
//!
//! * `I(Ẑ; θ)` — the channel's mutual information,
//! * the paper's KL decomposition
//!   `E_Ẑ KL(π̂_Ẑ‖π) = I(Ẑ;θ) + KL(E_Ẑπ̂ ‖ π)`,
//! * the Theorem 4.2 objective
//!   `J(channel) = E_Ẑ E_{θ∼π̂_Ẑ}[R̂_Ẑ(θ)] + (1/λ)·I(Ẑ;θ)`,
//!
//! together with the Blahut–Arimoto witness: the channel minimizing `J`
//! is the **self-consistent Gibbs family** (rows Gibbs w.r.t. the output
//! marginal), which is exactly the rate–distortion fixed point with
//! distortion `d(Ẑ, θ) = R̂_Ẑ(θ)` and `β = λ`.

use crate::{DplearnError, Result};
use dplearn_infotheory::blahut_arimoto::{
    blahut_arimoto, gibbs_fixed_point_gap, BaOptions, RateDistortion,
};
use dplearn_infotheory::channel::DiscreteChannel;
use dplearn_learning::data::{Dataset, Example};
use dplearn_learning::hypothesis::{FiniteClass, Predictor};
use dplearn_learning::loss::Loss;
use dplearn_learning::synth::DiscreteWorld;
use dplearn_pacbayes::gibbs::gibbs_finite;
use dplearn_pacbayes::kl::kl_finite;
use dplearn_pacbayes::posterior::FinitePosterior;
use dplearn_telemetry::NoopRecorder;

/// The finite space of datasets of size `n` over an enumerable world,
/// with their sampling probabilities under i.i.d. draws.
#[derive(Debug, Clone)]
pub struct DatasetSpace {
    /// All datasets of size `n` (ordered tuples — the paper's samples are
    /// ordered, and i.i.d. probabilities multiply per position).
    pub datasets: Vec<Dataset>,
    /// `P[Ẑ = datasets[i]]`.
    pub probs: Vec<f64>,
}

impl DatasetSpace {
    /// Enumerate every dataset of size `n` over the world's example
    /// space. The count is `(2m)ⁿ` — keep `m` and `n` small (the
    /// experiments use `m ≤ 4`, `n ≤ 4`).
    pub fn enumerate(world: &DiscreteWorld, n: usize) -> Result<Self> {
        if n == 0 {
            return Err(DplearnError::InvalidParameter {
                name: "n",
                reason: "sample size must be positive".to_string(),
            });
        }
        let space = world.example_space();
        let k = space.len();
        let total = k
            .checked_pow(n as u32)
            .ok_or_else(|| DplearnError::InvalidParameter {
                name: "n",
                reason: "dataset space too large to enumerate".to_string(),
            })?;
        if total > 2_000_000 {
            return Err(DplearnError::InvalidParameter {
                name: "n",
                reason: format!("dataset space has {total} elements; refusing to enumerate"),
            });
        }
        let mut datasets = Vec::with_capacity(total);
        let mut probs = Vec::with_capacity(total);
        // Mixed-radix enumeration of example-index tuples.
        for code in 0..total {
            let mut c = code;
            let mut examples: Vec<Example> = Vec::with_capacity(n);
            let mut p = 1.0;
            for _ in 0..n {
                let idx = c % k;
                c /= k;
                if let Some((example, pe)) = space.get(idx) {
                    examples.push(example.clone());
                    p *= pe;
                }
            }
            datasets.push(Dataset::new(examples)?);
            probs.push(p);
        }
        Ok(DatasetSpace { datasets, probs })
    }

    /// Number of datasets.
    pub fn len(&self) -> usize {
        self.datasets.len()
    }

    /// True when empty (not constructible via `enumerate`).
    pub fn is_empty(&self) -> bool {
        self.datasets.is_empty()
    }
}

/// The exact learning channel: input distribution = dataset probabilities,
/// kernel rows = Gibbs posteriors `π̂_Ẑ` at temperature `lambda` under
/// `prior`. Also returns the per-dataset risk vectors (the "distortion
/// matrix" of the rate–distortion view).
pub struct LearningChannel {
    /// The channel `Ẑ → θ`.
    pub channel: DiscreteChannel,
    /// `risks[i][j] = R̂_{datasets[i]}(θ_j)`.
    pub risks: Vec<Vec<f64>>,
    /// The temperature the rows were built at.
    pub lambda: f64,
    /// The prior used for every row.
    pub prior: FinitePosterior,
}

/// Build the exact learning channel for a finite class over an enumerated
/// dataset space.
pub fn learning_channel<P: Predictor + Sync, L: Loss + Sync>(
    space: &DatasetSpace,
    class: &FiniteClass<P>,
    loss: &L,
    prior: &FinitePosterior,
    lambda: f64,
) -> Result<LearningChannel> {
    let mut kernel = Vec::with_capacity(space.len() * prior.len());
    let mut risks = Vec::with_capacity(space.len());
    for data in &space.datasets {
        let r = class.risk_vector(loss, data);
        let posterior = gibbs_finite(prior, &r, lambda)?;
        kernel.extend_from_slice(posterior.probs());
        risks.push(r);
    }
    let channel = DiscreteChannel::new(space.probs.clone(), kernel, prior.len())?;
    Ok(LearningChannel {
        channel,
        risks,
        lambda,
        prior: prior.clone(),
    })
}

impl LearningChannel {
    /// `I(Ẑ; θ)` in nats.
    pub fn mutual_information(&self) -> f64 {
        self.channel.mutual_information()
    }

    /// Expected empirical Gibbs risk `E_Ẑ E_{θ∼π̂_Ẑ}[R̂_Ẑ(θ)]`.
    pub fn expected_empirical_risk(&self) -> f64 {
        let mut total = 0.0;
        for ((&pz, row), r) in self
            .channel
            .input()
            .iter()
            .zip(self.channel.rows())
            .zip(&self.risks)
        {
            let e: f64 = row.iter().zip(r).map(|(&q, &risk)| q * risk).sum();
            total += pz * e;
        }
        total
    }

    /// The Theorem 4.2 objective `J = E[E R̂] + (1/λ)·I(Ẑ;θ)`.
    pub fn mi_regularized_objective(&self) -> f64 {
        self.expected_empirical_risk() + self.mutual_information() / self.lambda
    }

    /// Expected KL to the prior, `E_Ẑ KL(π̂_Ẑ ‖ π)`.
    pub fn expected_kl_to_prior(&self) -> Result<f64> {
        let mut total = 0.0;
        for (&pz, row) in self.channel.input().iter().zip(self.channel.rows()) {
            let post = FinitePosterior::from_probs(row.to_vec())?;
            total += pz * kl_finite(&post, &self.prior)?;
        }
        Ok(total)
    }

    /// The paper's Section 4 decomposition, returned as
    /// `(E_Ẑ KL(π̂‖π), I(Ẑ;θ), KL(E_Ẑπ̂ ‖ π))`.
    ///
    /// These satisfy `E_Ẑ KL(π̂‖π) = I(Ẑ;θ) + KL(E_Ẑπ̂ ‖ π)` exactly, and
    /// the residual term vanishes iff the prior equals the posterior
    /// mixture `E_Ẑ π̂` (the bound-optimal prior `π_OPT`).
    pub fn kl_decomposition(&self) -> Result<(f64, f64, f64)> {
        let expected_kl = self.expected_kl_to_prior()?;
        let mi = self.mutual_information();
        let mixture = FinitePosterior::from_probs(self.channel.output_marginal())?;
        let residual = kl_finite(&mixture, &self.prior)?;
        Ok((expected_kl, mi, residual))
    }

    /// The exact privacy level realized by this channel **restricted to
    /// replace-one neighbor pairs**: the max log-ratio between kernel
    /// rows of neighboring datasets (datasets differing in one example).
    pub fn neighbor_privacy_level(&self, space: &DatasetSpace) -> f64 {
        let mut worst = 0.0f64;
        let rows = self.channel.rows();
        for (i, (di, row_i)) in space.datasets.iter().zip(rows.clone()).enumerate() {
            for (dj, row_j) in space.datasets.iter().zip(rows.clone()).skip(i + 1) {
                if !are_neighbors(di, dj) {
                    continue;
                }
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
}

fn are_neighbors(a: &Dataset, b: &Dataset) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let diff = a.iter().zip(b.iter()).filter(|(x, y)| x != y).count();
    diff == 1
}

/// Solve the **global** Theorem 4.2 problem — minimize
/// `E[E R̂] + (1/λ)·I` over *all* channels — by Blahut–Arimoto on the
/// risk matrix, and report how far the optimum is from the Gibbs family.
pub struct Theorem42Witness {
    /// The optimizing channel from Blahut–Arimoto.
    pub rate_distortion: RateDistortion,
    /// ℓ∞ gap between the optimal rows and Gibbs rows built from the
    /// optimal output marginal — Theorem 4.2 says this is ~0.
    pub gibbs_gap: f64,
    /// Objective value at the optimum.
    pub optimal_objective: f64,
}

/// Run the witness computation.
pub fn theorem_42_witness(
    space: &DatasetSpace,
    risks: &[Vec<f64>],
    lambda: f64,
) -> Result<Theorem42Witness> {
    let opts = BaOptions::new(1e-12, 200_000);
    let rd = blahut_arimoto(&space.probs, risks, lambda, &opts, &NoopRecorder)?;
    let gibbs_gap = gibbs_fixed_point_gap(&rd, risks, lambda);
    let optimal_objective = rd.distortion + rd.rate / lambda;
    Ok(Theorem42Witness {
        rate_distortion: rd,
        gibbs_gap,
        optimal_objective,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dplearn_learning::hypothesis::ThresholdClassifier;
    use dplearn_learning::loss::ZeroOne;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    fn small_setup(
        lambda: f64,
    ) -> (
        DatasetSpace,
        FiniteClass<ThresholdClassifier>,
        LearningChannel,
    ) {
        let world = DiscreteWorld::new(4, 0.1);
        let space = DatasetSpace::enumerate(&world, 2).unwrap();
        let class = FiniteClass::threshold_grid(0.0, 4.0, 5);
        let prior = FinitePosterior::uniform(class.len()).unwrap();
        let lc = learning_channel(&space, &class, &ZeroOne, &prior, lambda).unwrap();
        (space, class, lc)
    }

    #[test]
    fn dataset_space_probabilities_sum_to_one() {
        let world = DiscreteWorld::new(3, 0.2);
        let space = DatasetSpace::enumerate(&world, 2).unwrap();
        assert_eq!(space.len(), 36); // (3·2)² ordered pairs
        let total: f64 = space.probs.iter().sum();
        close(total, 1.0, 1e-12);
        assert!(DatasetSpace::enumerate(&world, 0).is_err());
    }

    #[test]
    fn kl_decomposition_identity_holds() {
        let (_, _, lc) = small_setup(3.0);
        let (ekl, mi, residual) = lc.kl_decomposition().unwrap();
        close(ekl, mi + residual, 1e-10);
        assert!(mi >= 0.0 && residual >= 0.0);
    }

    #[test]
    fn optimal_prior_zeroes_the_residual() {
        // Rebuild the channel using the posterior mixture as the prior:
        // the residual KL(E π̂ ‖ π) must (self-consistently) shrink.
        let (space, class, lc) = small_setup(2.0);
        let (_, _, residual_uniform) = lc.kl_decomposition().unwrap();
        // One fixed-point-style iteration toward the optimal prior.
        let mixture = FinitePosterior::from_probs(lc.channel.output_marginal()).unwrap();
        let lc2 = learning_channel(&space, &class, &ZeroOne, &mixture, 2.0).unwrap();
        let (_, _, residual_mixture) = lc2.kl_decomposition().unwrap();
        assert!(
            residual_mixture < residual_uniform,
            "residual {residual_mixture} should drop below {residual_uniform}"
        );
    }

    #[test]
    fn mi_grows_with_lambda() {
        // Hotter (higher λ ⇒ higher ε) channels leak more information.
        let mut prev = -1.0;
        for &l in &[0.5, 2.0, 8.0, 32.0] {
            let (_, _, lc) = small_setup(l);
            let mi = lc.mutual_information();
            assert!(mi > prev, "MI {mi} at λ={l} not increasing");
            prev = mi;
        }
    }

    #[test]
    fn neighbor_privacy_respects_theorem_4_1() {
        // ΔR̂ = B/n = 1/2 here, so ε = 2λΔR̂ = λ.
        for &lambda in &[0.5, 1.0, 2.0] {
            let (space, _, lc) = small_setup(lambda);
            let eps_exact = lc.neighbor_privacy_level(&space);
            let eps_bound = 2.0 * lambda * (1.0 / 2.0);
            assert!(
                eps_exact <= eps_bound + 1e-9,
                "λ={lambda}: exact ε {eps_exact} exceeds bound {eps_bound}"
            );
            assert!(eps_exact > 0.0);
        }
    }

    #[test]
    fn theorem_42_ba_optimum_is_gibbs_and_beats_plain_gibbs_channel() {
        let (space, _, lc) = small_setup(4.0);
        let witness = theorem_42_witness(&space, &lc.risks, 4.0).unwrap();
        // The optimizer is (numerically exactly) a Gibbs family.
        assert!(witness.gibbs_gap < 1e-8, "gap {}", witness.gibbs_gap);
        // Global optimum ≤ objective of the uniform-prior Gibbs channel
        // (the uniform-prior channel pays a KL(E π̂ ‖ π) penalty for its
        // suboptimal prior — the paper's π_OPT discussion).
        assert!(witness.optimal_objective <= lc.mi_regularized_objective() + 1e-10);
        // At high λ the prior penalty is amortized away: the
        // uniform-prior Gibbs channel approaches the global optimum.
        let (space16, _, lc16) = small_setup(16.0);
        let witness16 = theorem_42_witness(&space16, &lc16.risks, 16.0).unwrap();
        assert!(lc16.mi_regularized_objective() - witness16.optimal_objective < 0.02);
    }

    #[test]
    fn enumeration_size_guard() {
        let world = DiscreteWorld::new(4, 0.1);
        // (8)^8 = 16.7M > guard.
        assert!(DatasetSpace::enumerate(&world, 8).is_err());
    }
}
