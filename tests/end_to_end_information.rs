//! Cross-crate integration: the information-theoretic reading of private
//! learning (paper Section 4), end to end.

use dplearn::information::{learning_channel, theorem_42_witness, DatasetSpace};
use dplearn::learning::hypothesis::FiniteClass;
use dplearn::learning::loss::ZeroOne;
use dplearn::learning::synth::DiscreteWorld;
use dplearn::pacbayes::posterior::FinitePosterior;
use dplearn::tradeoff::{discrete_world_true_risks, epsilon_sweep};

fn setup() -> (
    DiscreteWorld,
    DatasetSpace,
    FiniteClass<dplearn::learning::hypothesis::ThresholdClassifier>,
) {
    let world = DiscreteWorld::new(4, 0.1);
    let space = DatasetSpace::enumerate(&world, 2).unwrap();
    let class = FiniteClass::threshold_grid(0.0, 4.0, 5);
    (world, space, class)
}

/// The full Figure-1 pipeline: enumerate datasets, build the Gibbs
/// channel, measure MI, check the DP ⇒ MI bound and the KL decomposition,
/// and confirm the channel's realized privacy matches Theorem 4.1 — all
/// in one flow.
#[test]
fn figure_1_pipeline_is_internally_consistent() {
    let (_, space, class) = setup();
    let prior = FinitePosterior::uniform(class.len()).unwrap();
    let lambda = 3.0;
    let lc = learning_channel(&space, &class, &ZeroOne, &prior, lambda).unwrap();

    let (ekl, mi, residual) = lc.kl_decomposition().unwrap();
    assert!((ekl - mi - residual).abs() < 1e-10);

    // Theorem 4.1: ε = 2λΔR̂ = 2λ·(1/n) with B = 1, n = 2.
    let eps = 2.0 * lambda / 2.0;
    assert!(lc.neighbor_privacy_level(&space) <= eps + 1e-9);

    // DP ⇒ MI bound with n = 2 records.
    assert!(mi <= dplearn::infotheory::dp_bounds::mi_bound_nats(eps, 2).unwrap());

    // Blahut–Arimoto confirms the Gibbs-family optimality of Theorem 4.2.
    let witness = theorem_42_witness(&space, &lc.risks, lambda).unwrap();
    assert!(witness.gibbs_gap < 1e-8);
    assert!(witness.optimal_objective <= lc.mi_regularized_objective() + 1e-10);
}

/// Leakage (Alvim et al. connection): min-entropy leakage of the learning
/// channel is monotone in ε and bounded by the multiplicative-leakage
/// cap `ε·log₂e` implied by the channel's row ratios.
#[test]
fn leakage_tracks_privacy_level() {
    let (world, _, class) = setup();
    let true_risks = discrete_world_true_risks(&world, &class);
    let rows = epsilon_sweep(&world, 2, &class, &ZeroOne, &true_risks, &[0.2, 1.0, 5.0]).unwrap();
    let mut prev = -1.0;
    for r in &rows {
        assert!(r.leakage_bits >= prev);
        prev = r.leakage_bits;
        // Multiplicative Bayes leakage ≤ e^ε ⇒ leakage bits ≤ ε·log₂e.
        assert!(r.leakage_bits <= r.epsilon / std::f64::consts::LN_2 + 1e-9);
    }
}

/// The plug-in MI estimator (infotheory crate) recovers the exact channel
/// MI (core crate) from samples of the channel itself — the two crates'
/// views of `I(Ẑ;θ)` agree.
#[test]
fn sampled_mi_matches_exact_channel_mi() {
    use dplearn::infotheory::mutual_information::mi_plugin;
    use dplearn::numerics::distributions::{Categorical, Sample};
    use dplearn::numerics::rng::Xoshiro256;

    let (_, space, class) = setup();
    let prior = FinitePosterior::uniform(class.len()).unwrap();
    let lc = learning_channel(&space, &class, &ZeroOne, &prior, 6.0).unwrap();
    let exact = lc.mutual_information();

    let mut rng = Xoshiro256::seed_from(2001);
    let input = Categorical::new(lc.channel.input()).unwrap();
    let rows: Vec<Categorical> = lc
        .channel
        .rows()
        .map(|r| Categorical::new(r).unwrap())
        .collect();
    let pairs: Vec<(usize, usize)> = (0..400_000)
        .map(|_| {
            let z = input.sample(&mut rng);
            (z, rows[z].sample(&mut rng))
        })
        .collect();
    let est = mi_plugin(&pairs, space.len(), class.len(), true).unwrap();
    assert!(
        (est - exact).abs() < 0.01,
        "estimated {est} vs exact {exact}"
    );
}

/// Entropy bookkeeping across crates: H(input) from the infotheory crate
/// equals the entropy of the dataset distribution computed from the
/// enumeration probabilities.
#[test]
fn dataset_entropy_consistency() {
    use dplearn::infotheory::entropy::entropy;
    let (_, space, class) = setup();
    let prior = FinitePosterior::uniform(class.len()).unwrap();
    let lc = learning_channel(&space, &class, &ZeroOne, &prior, 1.0).unwrap();
    let h_direct = entropy(&space.probs).unwrap();
    assert!((lc.channel.input_entropy() - h_direct).abs() < 1e-12);
    // MI can never exceed either marginal entropy.
    assert!(lc.mutual_information() <= h_direct);
    assert!(lc.mutual_information() <= lc.channel.output_entropy() + 1e-12);
}
