//! E7 — The information channel of Figure 1, quantified.
//!
//! The paper's Figure 1 is a schematic: the sample `Ẑ` enters a channel
//! `p(θ|Ẑ)` and a predictor `θ` leaves; privacy is small `I(Ẑ;θ)`. This
//! experiment *instantiates* that channel exactly and sweeps the privacy
//! level, producing the quantitative tradeoff the paper describes in
//! prose: as ε shrinks, mutual information and leakage fall and risk
//! rises, with the realized privacy always within the Theorem 4.1
//! guarantee and the MI always within the DP ⇒ MI bound.
//!
//! Ablation A4: exact MI vs plug-in vs Miller–Madow estimates of the same
//! channel from sampled (Ẑ, θ) pairs.

use dplearn::learning::hypothesis::FiniteClass;
use dplearn::learning::loss::ZeroOne;
use dplearn::learning::synth::DiscreteWorld;
use dplearn::numerics::distributions::{Categorical, Sample};
use dplearn::numerics::rng::Xoshiro256;
use dplearn::tradeoff::{discrete_world_true_risks, epsilon_sweep};
use dplearn_experiments::{banner, f, s, seed_from_args, verdict, Table};

fn main() {
    let seed = seed_from_args();
    banner(
        "E7: the Figure-1 learning channel, exactly",
        "privacy level ε modulates I(Ẑ;θ) vs risk — the paper's central tradeoff",
        seed,
    );

    let world = DiscreteWorld::new(4, 0.1);
    let n = 3;
    let class = FiniteClass::threshold_grid(0.0, 4.0, 5);
    let true_risks = discrete_world_true_risks(&world, &class);
    let epsilons = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
    let rows = epsilon_sweep(&world, n, &class, &ZeroOne, &true_risks, &epsilons).unwrap();

    let mut table = Table::new(&[
        "eps",
        "lambda",
        "E emp risk",
        "E true risk",
        "I(Z;θ) nats",
        "n·ε bound",
        "leakage bits",
        "realized eps",
    ]);
    let mut all_pass = true;
    let mut prev_mi = -1.0;
    let mut prev_risk = f64::INFINITY;
    for r in &rows {
        all_pass &= r.realized_epsilon <= r.epsilon + 1e-9;
        all_pass &= r.mi_nats <= r.mi_bound_nats + 1e-12;
        all_pass &= r.mi_nats >= prev_mi - 1e-12;
        all_pass &= r.expected_empirical_risk <= prev_risk + 1e-12;
        prev_mi = r.mi_nats;
        prev_risk = r.expected_empirical_risk;
        table.row(vec![
            f(r.epsilon),
            f(r.lambda),
            f(r.expected_empirical_risk),
            f(r.expected_true_risk),
            f(r.mi_nats),
            f(r.mi_bound_nats),
            f(r.leakage_bits),
            f(r.realized_epsilon),
        ]);
    }
    table.print();

    // --- Ablation A4: MI estimators against the exact value -------------
    println!("\nAblation A4 — estimating I(Ẑ;θ) of the ε = 1 channel from samples:");
    let space = dplearn::information::DatasetSpace::enumerate(&world, n).unwrap();
    let prior = dplearn::pacbayes::posterior::FinitePosterior::uniform(class.len()).unwrap();
    let lambda = rows[4].lambda; // ε = 1 row
    let lc =
        dplearn::information::learning_channel(&space, &class, &ZeroOne, &prior, lambda).unwrap();
    let exact = lc.mutual_information();
    let input_dist = Categorical::new(lc.channel.input()).unwrap();
    let row_dists: Vec<Categorical> = lc
        .channel
        .rows()
        .map(|row| Categorical::new(row).unwrap())
        .collect();
    let mut ab = Table::new(&["N pairs", "plug-in", "Miller–Madow", "exact"]);
    let mut rng = Xoshiro256::substream(seed, 7);
    for &n_pairs in &[200usize, 2000, 20000, 200000] {
        let pairs: Vec<(usize, usize)> = (0..n_pairs)
            .map(|_| {
                let z = input_dist.sample(&mut rng);
                let th = row_dists[z].sample(&mut rng);
                (z, th)
            })
            .collect();
        let plug = dplearn::infotheory::mutual_information::mi_plugin(
            &pairs,
            space.len(),
            class.len(),
            false,
        )
        .unwrap();
        let mm = dplearn::infotheory::mutual_information::mi_plugin(
            &pairs,
            space.len(),
            class.len(),
            true,
        )
        .unwrap();
        ab.row(vec![s(n_pairs), f(plug), f(mm), f(exact)]);
    }
    ab.print();

    verdict(
        "E7",
        all_pass,
        "MI and leakage increase with ε, risk decreases, realized ε ≤ target, MI ≤ n·ε everywhere",
    );
}
