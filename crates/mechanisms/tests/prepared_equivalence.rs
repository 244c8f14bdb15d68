//! Cached-vs-uncached equivalence suite for the prepared (amortized)
//! selection paths.
//!
//! Two distinct contracts are pinned here, matching DESIGN.md §11:
//!
//! 1. **Bit-identity** — `PreparedSelection::draw` and
//!    `PreparedPermuteAndFlip::draw` must return exactly the candidate the
//!    uncached `select()` path returns on the same RNG stream, for *random*
//!    scores, priors, and temperatures (property tests), leaving the RNG
//!    in the same state.
//! 2. **Distribution equivalence at the declared budget** — the opt-in
//!    fast paths (`draw_gumbel`, `draw_inverse_cdf`) do not replay the
//!    uncached bitstream, so they are instead pinned by the
//!    `audit_discrete_par` empirical-ε harness: their realized privacy
//!    loss on worst-case neighboring score vectors must stay within the
//!    mechanism's declared ε.
//!
//! The audits run through `audit_discrete_par`, which is bit-identical at
//! every `DPLEARN_THREADS` setting — CI runs this file at 1 and 4 threads.

use dplearn_mechanisms::audit::audit_discrete_par;
use dplearn_mechanisms::audit::AuditConfig;
use dplearn_mechanisms::exponential::ExponentialMechanism;
use dplearn_mechanisms::permute_and_flip::PermuteAndFlip;
use dplearn_mechanisms::privacy::Epsilon;
use dplearn_numerics::rng::{Rng, Xoshiro256};
use dplearn_telemetry::NoopRecorder;
use proptest::prelude::*;

proptest! {
    /// PreparedSelection::draw ≡ ExponentialMechanism::select, bit for
    /// bit, on the same RNG stream — any scores, any prior, any ε.
    #[test]
    fn prepared_selection_bit_identical_for_random_inputs(
        eps in 0.05..4.0f64,
        scores in prop::collection::vec(-50.0..50.0f64, 1..24),
        prior_seed in prop::collection::vec(0.1..5.0f64, 1..24),
        seed in 0u64..u64::MAX,
    ) {
        let k = scores.len().min(prior_seed.len());
        let scores = &scores[..k];
        let log_prior: Vec<f64> = prior_seed[..k].iter().map(|w| w.ln()).collect();
        let eps = Epsilon::new(eps).unwrap();
        let mech = ExponentialMechanism::new(k, 1.0)
            .unwrap()
            .with_log_prior(log_prior)
            .unwrap();
        let prepared = mech.prepare(scores, eps).unwrap();
        let mut uncached_rng = Xoshiro256::seed_from(seed);
        let mut prepared_rng = Xoshiro256::seed_from(seed);
        for _ in 0..64 {
            let want = mech.select(scores, eps, &mut uncached_rng).unwrap();
            let got = prepared.draw(&mut prepared_rng);
            prop_assert_eq!(want, got);
        }
        // Identical consumption: the streams stay in lockstep afterwards.
        prop_assert_eq!(uncached_rng.next_u64(), prepared_rng.next_u64());
    }

    /// PreparedPermuteAndFlip::draw ≡ PermuteAndFlip::select, bit for
    /// bit, on the same RNG stream.
    #[test]
    fn prepared_permute_and_flip_bit_identical_for_random_inputs(
        eps in 0.05..4.0f64,
        scores in prop::collection::vec(-20.0..20.0f64, 1..24),
        seed in 0u64..u64::MAX,
    ) {
        let eps = Epsilon::new(eps).unwrap();
        let mech = PermuteAndFlip::new(1.0).unwrap();
        let prepared = mech.prepare(&scores, eps).unwrap();
        let mut uncached_rng = Xoshiro256::seed_from(seed);
        let mut prepared_rng = Xoshiro256::seed_from(seed);
        for _ in 0..64 {
            let want = mech.select(&scores, eps, &mut uncached_rng).unwrap();
            let got = prepared.draw(&mut prepared_rng);
            prop_assert_eq!(want, got);
        }
        prop_assert_eq!(uncached_rng.next_u64(), prepared_rng.next_u64());
    }
}

/// Worst-case neighboring score vectors for a sensitivity-1 quality
/// function: the asymmetric pair that realizes the factor 2 in
/// Theorem 2.2's guarantee.
fn worst_case_neighbors(k: usize) -> (Vec<f64>, Vec<f64>) {
    let mut d = vec![0.0; k];
    d[0] = 1.0;
    let mut dp = vec![1.0; k];
    dp[0] = 0.0;
    (d, dp)
}

#[test]
fn gumbel_fast_path_passes_empirical_epsilon_audit() {
    let k = 6;
    let eps = Epsilon::new(1.0).unwrap();
    let mech = ExponentialMechanism::new(k, 1.0).unwrap();
    let (scores_d, scores_dp) = worst_case_neighbors(k);
    let prep_d = mech.prepare(&scores_d, eps).unwrap();
    let prep_dp = mech.prepare(&scores_dp, eps).unwrap();
    let cfg = AuditConfig::new(400_000).with_chunk_size(50_000);
    let res = audit_discrete_par(
        |rng: &mut Xoshiro256| prep_d.draw_gumbel(rng),
        |rng: &mut Xoshiro256| prep_dp.draw_gumbel(rng),
        k,
        &cfg,
        0xFA57_9A7B,
        &NoopRecorder,
    )
    .unwrap();
    assert!(
        res.empirical_epsilon <= eps.value() + 0.15,
        "gumbel fast path leaked ε̂ = {} > declared ε = {}",
        res.empirical_epsilon,
        eps.value()
    );
    // The audit has power: on this worst-case pair the loss is non-trivial.
    assert!(res.empirical_epsilon > 0.3, "ε̂ = {}", res.empirical_epsilon);
}

#[test]
fn inverse_cdf_fast_path_passes_empirical_epsilon_audit() {
    let k = 6;
    let eps = Epsilon::new(1.0).unwrap();
    let mech = ExponentialMechanism::new(k, 1.0).unwrap();
    let (scores_d, scores_dp) = worst_case_neighbors(k);
    let prep_d = mech.prepare(&scores_d, eps).unwrap();
    let prep_dp = mech.prepare(&scores_dp, eps).unwrap();
    let cfg = AuditConfig::new(400_000).with_chunk_size(50_000);
    let res = audit_discrete_par(
        |rng: &mut Xoshiro256| prep_d.draw_inverse_cdf(rng),
        |rng: &mut Xoshiro256| prep_dp.draw_inverse_cdf(rng),
        k,
        &cfg,
        0x1CDF_2026,
        &NoopRecorder,
    )
    .unwrap();
    assert!(
        res.empirical_epsilon <= eps.value() + 0.15,
        "inverse-cdf fast path leaked ε̂ = {} > declared ε = {}",
        res.empirical_epsilon,
        eps.value()
    );
    assert!(res.empirical_epsilon > 0.3, "ε̂ = {}", res.empirical_epsilon);
}

#[test]
fn fast_paths_match_the_exact_distribution() {
    // Cross-check: empirical frequencies of both fast paths against the
    // exact softmax probabilities the bit-identity path samples from.
    let mech = ExponentialMechanism::new(5, 1.0).unwrap();
    let scores = [0.4, -1.0, 2.2, 0.0, 1.3];
    let t = 0.9;
    let prepared = mech.prepare_with_temperature(&scores, t).unwrap();
    let mut rng = Xoshiro256::seed_from(314);
    let n = 200_000usize;
    let mut gum = [0usize; 5];
    let mut inv = [0usize; 5];
    for _ in 0..n {
        gum[prepared.draw_gumbel(&mut rng)] += 1;
        inv[prepared.draw_inverse_cdf(&mut rng)] += 1;
    }
    for i in 0..5 {
        let p = prepared.prob(i);
        let fg = gum[i] as f64 / n as f64;
        let fi = inv[i] as f64 / n as f64;
        assert!((fg - p).abs() < 0.006, "gumbel {i}: {fg} vs {p}");
        assert!((fi - p).abs() < 0.006, "inverse-cdf {i}: {fi} vs {p}");
    }
}
