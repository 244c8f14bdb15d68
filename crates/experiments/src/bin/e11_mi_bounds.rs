//! E11 (extension) — comparing information bounds on the learning
//! channel: the paper's third announced future direction ("examining the
//! use of upper and lower bounds on the mutual information between the
//! sample and the predictor and their implication on the utility ...
//! similar to Alvim et al., and compare these bounds", Section 5).
//!
//! On the exact learning channel we compare, per ε:
//!
//! * exact `I(Ẑ;θ)` vs the DP upper bound `n·ε` nats (group-privacy
//!   chain) — how loose is the worst-case bound on the *average*?
//! * the **adversary side**: exact Bayes error of reconstructing the full
//!   sample `Ẑ` from the released `θ`, vs the Fano lower bound computed
//!   from the same mutual information, vs the Alvim-style
//!   vulnerability cap `V(Ẑ|θ) ≤ e^{nε}·V(Ẑ)` implied by group privacy.
//!
//! Expected shape: bounds sandwich the exact values at every ε; the Fano
//! bound is informative (non-zero) exactly where MI is small — i.e.
//! privacy provably forces reconstruction error.

use dplearn::information::{learning_channel, DatasetSpace};
use dplearn::infotheory::fano::{
    channel_input_bayes_error, channel_input_reconstruction_error_bound,
};
use dplearn::learning::hypothesis::FiniteClass;
use dplearn::learning::loss::ZeroOne;
use dplearn::learning::synth::DiscreteWorld;
use dplearn::pacbayes::posterior::FinitePosterior;
use dplearn_experiments::{banner, f, seed_from_args, verdict, Table};

fn main() {
    let seed = seed_from_args();
    banner(
        "E11: MI upper/lower bound comparison on the learning channel",
        "paper future direction #3 — bound sandwich around exact leakage",
        seed,
    );

    let world = DiscreteWorld::new(4, 0.1);
    let n = 2usize;
    let space = DatasetSpace::enumerate(&world, n).unwrap();
    let class = FiniteClass::threshold_grid(0.0, 4.0, 5);
    let prior = FinitePosterior::uniform(class.len()).unwrap();

    let mut table = Table::new(&[
        "eps",
        "exact MI",
        "capacity",
        "upper n*eps",
        "MI/bound",
        "bayes err(Z|θ)",
        "fano lower",
        "vuln",
        "vuln cap e^{n eps} V",
    ]);
    let mut all_pass = true;
    for &eps in &[0.1, 0.5, 1.0, 2.0, 4.0, 8.0] {
        // ΔR̂ = 1/n with B = 1 ⇒ λ = εn/2.
        let lambda = eps * n as f64 / 2.0;
        let lc = learning_channel(&space, &class, &ZeroOne, &prior, lambda).unwrap();
        let mi = lc.mutual_information();
        // Capacity = leakage under the adversary's worst-case prior on Ẑ.
        let capacity = dplearn::infotheory::capacity::capacity_of(&lc.channel, 1e-9).unwrap();
        let upper = dplearn::infotheory::dp_bounds::mi_bound_nats(eps, n).unwrap();
        let bayes = channel_input_bayes_error(&lc.channel);
        let fano = channel_input_reconstruction_error_bound(&lc.channel).unwrap();
        let vuln = lc.channel.posterior_vulnerability();
        let cap = ((eps * n as f64).exp() * lc.channel.prior_vulnerability()).min(1.0);
        all_pass &= mi <= upper + 1e-12;
        all_pass &= mi <= capacity.nats + 1e-8;
        all_pass &= capacity.nats <= upper + 1e-8;
        all_pass &= fano <= bayes + 1e-9;
        all_pass &= vuln <= cap + 1e-12;
        table.row(vec![
            f(eps),
            f(mi),
            f(capacity.nats),
            f(upper),
            f(mi / upper),
            f(bayes),
            f(fano),
            f(vuln),
            f(cap),
        ]);
    }
    table.print();
    println!(
        "\nReading: the worst-case DP bound overshoots the average-case MI by\n\
         10–1000× (DP constrains ratios, MI averages them); Fano converts the\n\
         small MI into a guaranteed reconstruction-error floor for ANY adversary\n\
         — the utility/privacy sandwich the paper proposes to study."
    );
    verdict(
        "E11",
        all_pass,
        "exact MI ≤ n·ε, Fano ≤ exact Bayes error, vulnerability ≤ e^{nε}·V everywhere",
    );
}
