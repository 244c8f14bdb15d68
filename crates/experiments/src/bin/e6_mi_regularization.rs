//! E6 — Differentially-private learning ≡ mutual-information-regularized
//! ERM (paper Theorem 4.2 and the Section 4 KL decomposition).
//!
//! Claims under test, all on an exactly enumerable world:
//!
//! 1. `E_Ẑ KL(π̂_Ẑ‖π) = I(Ẑ;θ) + KL(E_Ẑπ̂ ‖ π)` (exact identity).
//! 2. The channel minimizing `J = E_Ẑ E_π̂[R̂] + (1/λ)·I(Ẑ;θ)` is the
//!    Gibbs family: the Blahut–Arimoto optimizer's rows coincide with
//!    Gibbs posteriors built from its own output marginal (ℓ∞ gap ≈ 0),
//!    and no random challenger channel beats it.
//! 3. Iterating "prior ← E_Ẑ π̂" drives the decomposition residual to 0 —
//!    the paper's `π_OPT = E_Ẑ π̂` observation.

use dplearn::information::{learning_channel, theorem_42_witness, DatasetSpace};
use dplearn::learning::hypothesis::FiniteClass;
use dplearn::learning::loss::ZeroOne;
use dplearn::learning::synth::DiscreteWorld;
use dplearn::numerics::rng::{Rng, Xoshiro256};
use dplearn::pacbayes::posterior::FinitePosterior;
use dplearn_experiments::{banner, f, s, seed_from_args, verdict, Table};

fn main() {
    let seed = seed_from_args();
    banner(
        "E6: MI-regularized learning ≡ Gibbs (exact discrete world)",
        "Thm 4.2 — argmin { E E R̂ + (1/λ) I(Ẑ;θ) } is the Gibbs estimator",
        seed,
    );

    let world = DiscreteWorld::new(4, 0.1);
    let n = 2;
    let space = DatasetSpace::enumerate(&world, n).unwrap();
    let class = FiniteClass::threshold_grid(0.0, 4.0, 5);
    let prior = FinitePosterior::uniform(class.len()).unwrap();
    println!(
        "world: m=4 inputs, 10% label noise; |dataset space| = {}; |Θ| = {}\n",
        space.len(),
        class.len()
    );

    // --- Claim 1: the KL decomposition identity -------------------------
    let mut t1 = Table::new(&[
        "lambda",
        "E KL(post||prior)",
        "I(Z;theta)",
        "KL(mix||prior)",
        "identity gap",
    ]);
    let mut all_pass = true;
    for &lambda in &[0.5, 2.0, 8.0, 32.0] {
        let lc = learning_channel(&space, &class, &ZeroOne, &prior, lambda).unwrap();
        let (ekl, mi, residual) = lc.kl_decomposition().unwrap();
        let gap = (ekl - mi - residual).abs();
        all_pass &= gap < 1e-10;
        t1.row(vec![
            f(lambda),
            f(ekl),
            f(mi),
            f(residual),
            format!("{gap:.2e}"),
        ]);
    }
    println!("Claim 1 — E KL = I + KL(E π̂ ‖ π):");
    t1.print();

    // --- Claim 2: BA optimum = Gibbs family, beats challengers ----------
    println!("\nClaim 2 — Blahut–Arimoto optimum of J is the Gibbs family:");
    let mut t2 = Table::new(&[
        "lambda",
        "J(BA optimum)",
        "J(uniform-prior Gibbs)",
        "Gibbs fixed-point gap",
        "challengers beaten",
    ]);
    let mut rng = Xoshiro256::substream(seed, 1);
    for &lambda in &[0.5, 2.0, 8.0, 32.0] {
        let lc = learning_channel(&space, &class, &ZeroOne, &prior, lambda).unwrap();
        let w = theorem_42_witness(&space, &lc.risks, lambda).unwrap();
        all_pass &= w.gibbs_gap < 1e-8;
        // Random challenger channels.
        let n_challengers = 2000;
        let mut beaten = 0usize;
        for _ in 0..n_challengers {
            let kernel: Vec<Vec<f64>> = (0..space.len())
                .map(|_| {
                    let raw: Vec<f64> = (0..class.len())
                        .map(|_| -rng.next_open_f64().ln())
                        .collect();
                    let tot: f64 = raw.iter().sum();
                    raw.into_iter().map(|v| v / tot).collect()
                })
                .collect();
            let challenger = dplearn::infotheory::channel::DiscreteChannel::from_rows(
                space.probs.clone(),
                kernel.clone(),
            )
            .unwrap();
            let mut dist = 0.0;
            for ((&pz, row), r) in space.probs.iter().zip(&kernel).zip(&lc.risks) {
                dist += pz * row.iter().zip(r).map(|(&q, &rr)| q * rr).sum::<f64>();
            }
            let j = dist + challenger.mutual_information() / lambda;
            if j >= w.optimal_objective - 1e-9 {
                beaten += 1;
            }
        }
        all_pass &= beaten == n_challengers;
        t2.row(vec![
            f(lambda),
            f(w.optimal_objective),
            f(lc.mi_regularized_objective()),
            format!("{:.2e}", w.gibbs_gap),
            format!("{beaten}/{n_challengers}"),
        ]);
    }
    t2.print();

    // --- Claim 3: prior ← E π̂ iteration kills the residual -------------
    println!("\nClaim 3 — iterating π ← E_Ẑ π̂ reaches the optimal prior:");
    let mut t3 = Table::new(&["iteration", "KL(E π̂ ‖ π) residual", "J(channel)"]);
    let lambda = 8.0;
    let mut current = prior.clone();
    let mut last_residual = f64::INFINITY;
    for it in 0..25 {
        let lc = learning_channel(&space, &class, &ZeroOne, &current, lambda).unwrap();
        let (_, _, residual) = lc.kl_decomposition().unwrap();
        if it % 4 == 0 || it == 24 {
            t3.row(vec![
                s(it),
                format!("{residual:.3e}"),
                f(lc.mi_regularized_objective()),
            ]);
        }
        all_pass &= residual <= last_residual + 1e-12;
        last_residual = residual;
        current = FinitePosterior::from_probs(lc.channel.output_marginal()).unwrap();
    }
    all_pass &= last_residual < 1e-5;
    t3.print();

    verdict(
        "E6",
        all_pass,
        "identity exact; BA optimum is the Gibbs family (gap < 1e-8) and beats all challengers; π_OPT iteration drives the residual to ~0",
    );
}
