//! Property-based tests for the information-theory crate.

use dplearn_infotheory::blahut_arimoto::{blahut_arimoto, lagrangian, BaOptions};
use dplearn_infotheory::channel::DiscreteChannel;
use dplearn_infotheory::entropy::{cross_entropy, entropy};
use dplearn_infotheory::fano::fano_error_lower_bound;
use dplearn_infotheory::mutual_information::mi_from_joint;
use dplearn_telemetry::NoopRecorder;
use proptest::prelude::*;

fn normalize(raw: &[f64]) -> Vec<f64> {
    let t: f64 = raw.iter().sum();
    raw.iter().map(|x| x / t).collect()
}

fn random_channel(input_raw: &[f64], kernel_raw: &[Vec<f64>]) -> DiscreteChannel {
    let input = normalize(input_raw);
    let kernel: Vec<Vec<f64>> = kernel_raw.iter().map(|r| normalize(r)).collect();
    DiscreteChannel::from_rows(input, kernel).unwrap()
}

fn channel_strategy(nx: usize, ny: usize) -> impl Strategy<Value = (Vec<f64>, Vec<Vec<f64>>)> {
    (
        prop::collection::vec(0.05..5.0f64, nx),
        prop::collection::vec(prop::collection::vec(0.05..5.0f64, ny), nx),
    )
}

proptest! {
    /// 0 ≤ I(X;Y) ≤ min(H(X), H(Y)) for random channels.
    #[test]
    fn mi_within_entropy_bounds((input, kernel) in channel_strategy(4, 3)) {
        let c = random_channel(&input, &kernel);
        let mi = c.mutual_information();
        prop_assert!(mi >= 0.0);
        prop_assert!(mi <= c.input_entropy() + 1e-9);
        prop_assert!(mi <= c.output_entropy() + 1e-9);
    }

    /// I(X;Y) from the channel equals MI computed from its joint.
    #[test]
    fn channel_and_joint_mi_agree((input, kernel) in channel_strategy(3, 4)) {
        let c = random_channel(&input, &kernel);
        let joint = c.joint();
        let mi_joint = mi_from_joint(&joint).unwrap();
        prop_assert!((c.mutual_information() - mi_joint).abs() < 1e-9);
    }

    /// Gibbs/cross-entropy inequality: H(p, q) ≥ H(p), equality iff p = q.
    #[test]
    fn cross_entropy_dominates_entropy(
        raw_p in prop::collection::vec(0.05..5.0f64, 2..10),
        raw_q in prop::collection::vec(0.05..5.0f64, 2..10),
    ) {
        let k = raw_p.len().min(raw_q.len());
        let p = normalize(&raw_p[..k]);
        let q = normalize(&raw_q[..k]);
        prop_assert!(cross_entropy(&p, &q).unwrap() >= entropy(&p).unwrap() - 1e-12);
        prop_assert!((cross_entropy(&p, &p).unwrap() - entropy(&p).unwrap()).abs() < 1e-12);
    }

    /// Leakage is ≥ 0 and bounded by log₂ of the input support (and by
    /// the channel's max row ratio in the ε-DP case).
    #[test]
    fn leakage_bounds((input, kernel) in channel_strategy(4, 4)) {
        let c = random_channel(&input, &kernel);
        let l = c.min_entropy_leakage_bits();
        prop_assert!(l >= -1e-9);
        prop_assert!(l <= 2.0 + 1e-9); // log₂ 4
        prop_assert!(c.multiplicative_bayes_leakage() >= 1.0 - 1e-9);
        // Alvim-style cap: multiplicative leakage ≤ e^ε with ε the
        // realized worst row ratio.
        let eps = c.max_row_log_ratio();
        if eps.is_finite() {
            prop_assert!(c.multiplicative_bayes_leakage() <= eps.exp() + 1e-9);
        }
    }

    /// Fano bound is monotone in the conditional entropy and never
    /// exceeds the random-guessing cap (k−1)/k.
    #[test]
    fn fano_monotone_and_capped(h in 0.0..3.0f64, dh in 0.0..1.0f64, k in 2usize..20) {
        let lo = fano_error_lower_bound(h, k).unwrap();
        let hi = fano_error_lower_bound(h + dh, k).unwrap();
        prop_assert!(hi >= lo - 1e-12);
        prop_assert!(hi <= (k as f64 - 1.0) / k as f64 + 1e-12);
    }

    /// Blahut–Arimoto returns a channel whose Lagrangian is no worse than
    /// that of the "always output the distortion-minimizing symbol"
    /// deterministic channels — a family of natural challengers.
    #[test]
    fn ba_beats_deterministic_channels(
        raw_src in prop::collection::vec(0.1..5.0f64, 3),
        dist_raw in prop::collection::vec(prop::collection::vec(0.0..2.0f64, 3), 3),
        beta in 0.1..10.0f64,
    ) {
        let src = normalize(&raw_src);
        // BA's marginal converges linearly but the rate can be close to 1
        // for near-redundant reproduction symbols; 1e-9 on the marginal is
        // comfortably tighter than the 1e-8 Lagrangian tolerance below.
        let opts = BaOptions::new(1e-9, 200_000);
        let rd = blahut_arimoto(&src, &dist_raw, beta, &opts, &NoopRecorder).unwrap();
        let opt = rd.rate + beta * rd.distortion;
        for y in 0..3 {
            let kernel: Vec<Vec<f64>> = (0..3)
                .map(|_| (0..3).map(|j| if j == y { 1.0 } else { 0.0 }).collect())
                .collect();
            let val = lagrangian(&src, &kernel, &dist_raw, beta).unwrap();
            prop_assert!(val >= opt - 1e-8, "deterministic {val} beats BA {opt}");
        }
    }
}
