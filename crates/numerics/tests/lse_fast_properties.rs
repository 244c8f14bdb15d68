//! Property tests pinning `softmax_in_place`. The log normalizer it
//! returns is a four-lane, uncompensated ("fast") log-sum-exp, checked
//! against the compensated `log_sum_exp`; the probabilities it writes
//! are checked against `exp(x − log_sum_exp(x))`.
//!
//! The kernel sums the exp terms in four independent lanes without
//! Kahan compensation, so for lengths ≥ 2 its normalizer may differ
//! from `log_sum_exp` by a few ulps. After subtracting the (bit-exact,
//! shared) max, every exp term lies in `(0, 1]` and the true sum lies in
//! `[1, n]`, so a plain n-term sum is within `n·eps` relative of the
//! compensated one and `|fast − slow| ≤ 1e-13` absolute is a safe
//! documented tolerance for the lengths exercised here (n ≤ 64); every
//! probability is within 1e-12 relative. Edge cases — empty input,
//! single element, all-(−∞), any +∞, NaN — must match `log_sum_exp`
//! **bit for bit**; a single element is its own normalizer and gets
//! probability exactly 1.

use dplearn_numerics::special::{log_sum_exp, softmax_in_place};
use proptest::prelude::*;

/// Documented reordering tolerance for the normalizer (absolute, valid
/// because both paths subtract the same exact max before summing).
const LSE_FAST_ABS_TOL: f64 = 1e-13;

/// Relative tolerance of each probability against `exp(x − lse(x))`.
const PROB_REL_TOL: f64 = 1e-12;

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3..1e3f64, len)
}

/// The kernel's normalizer and probabilities for `xs`.
fn softmax(xs: &[f64]) -> (f64, Vec<f64>) {
    let mut probs = xs.to_vec();
    let z = softmax_in_place(&mut probs);
    (z, probs)
}

/// Every probability of at least 1e-290 within [`PROB_REL_TOL`] of
/// `exp(x − log_sum_exp(xs))`, smaller ones within 1e-300 absolute.
fn assert_probs_track_the_two_exp_fold(xs: &[f64], probs: &[f64]) {
    let z = log_sum_exp(xs);
    for (&x, &p) in xs.iter().zip(probs) {
        let want = (x - z).exp();
        if want >= 1e-290 {
            assert!(
                (p - want).abs() <= PROB_REL_TOL * want,
                "len={}: {p:e} vs {want:e}",
                xs.len()
            );
        } else {
            assert!((p - want).abs() <= 1e-300, "{p:e} vs {want:e}");
        }
    }
}

proptest! {
    #[test]
    fn fast_matches_slow_within_documented_tolerance(xs in finite_vec(2..64)) {
        let (fast, probs) = softmax(&xs);
        let slow = log_sum_exp(&xs);
        prop_assert!(
            (fast - slow).abs() <= LSE_FAST_ABS_TOL,
            "len={}: fast {fast} vs slow {slow}",
            xs.len()
        );
        assert_probs_track_the_two_exp_fold(&xs, &probs);
    }

    #[test]
    fn remainder_tail_lengths_not_divisible_by_four(
        xs in finite_vec(2..14),
    ) {
        // Lengths 2..=13 cover every residue mod 4 on both sides of the
        // 4-lane kernel's first full chunk, so the remainder loop and
        // the lane-merge are both exercised.
        let (fast, probs) = softmax(&xs);
        let slow = log_sum_exp(&xs);
        prop_assert!((fast - slow).abs() <= LSE_FAST_ABS_TOL);
        assert_probs_track_the_two_exp_fold(&xs, &probs);
    }

    #[test]
    fn single_element_is_bit_identical(x in -1e3..1e3f64) {
        // One term: exp(x − x) = 1, ln(1) = 0, so the normalizer is x
        // on both paths with no rounding at all, and the probability 1.
        let (fast, probs) = softmax(&[x]);
        prop_assert_eq!(fast.to_bits(), log_sum_exp(&[x]).to_bits());
        prop_assert_eq!(probs, vec![1.0]);
    }

    #[test]
    fn neg_infinities_are_transparent(xs in finite_vec(2..16), k in 0usize..4) {
        // −∞ entries contribute exp(−∞) = 0 on both paths; padding any
        // input with them must stay within the same tolerance and give
        // the padding probability exactly 0.
        let mut padded = xs.clone();
        for _ in 0..k {
            padded.push(f64::NEG_INFINITY);
        }
        let (fast, probs) = softmax(&padded);
        let slow = log_sum_exp(&padded);
        prop_assert!((fast - slow).abs() <= LSE_FAST_ABS_TOL);
        assert_probs_track_the_two_exp_fold(&padded, &probs);
        prop_assert!(probs[xs.len()..].iter().all(|&p| p.to_bits() == 0));
    }

    #[test]
    fn any_plus_infinity_dominates_bitwise(xs in finite_vec(1..12), at in 0usize..12) {
        let mut v = xs.clone();
        let at = at % v.len();
        v[at] = f64::INFINITY;
        let (fast, _) = softmax(&v);
        prop_assert_eq!(fast.to_bits(), log_sum_exp(&v).to_bits());
        prop_assert_eq!(fast.to_bits(), f64::INFINITY.to_bits());
    }

    #[test]
    fn a_nan_beside_finite_weights_poisons_the_normalizer(
        xs in finite_vec(1..12),
        at in 0usize..12,
    ) {
        // A NaN weight cannot be normalized: the normalizer is NaN on
        // both paths, so every caller's finiteness check rejects it.
        let mut v = xs.clone();
        let at = at % v.len();
        v.insert(at, f64::NAN);
        let (fast, _) = softmax(&v);
        prop_assert!(fast.is_nan());
        prop_assert!(log_sum_exp(&v).is_nan());
    }

    #[test]
    fn shift_invariance(xs in finite_vec(1..40), c in -50.0..50.0f64) {
        // Adding c to every weight adds c to the normalizer and leaves
        // the probabilities alone, up to the rounding of x + c.
        let shifted: Vec<f64> = xs.iter().map(|x| x + c).collect();
        let (z, p) = softmax(&xs);
        let (zs, ps) = softmax(&shifted);
        prop_assert!((zs - (z + c)).abs() <= 1e-12 * (z + c).abs().max(1.0));
        for (a, b) in p.iter().zip(&ps) {
            // |x| ≤ 1e3: x + c and (x + c) − max lose up to ~1e-13 of
            // each exponent, and a cell its relative share of that.
            prop_assert!((a - b).abs() <= 1e-12 * a.max(1e-300), "{a:e} vs {b:e}");
        }
    }
}

#[test]
fn empty_input_is_bit_identical_neg_infinity() {
    let (fast, probs) = softmax(&[]);
    assert_eq!(fast.to_bits(), log_sum_exp(&[]).to_bits());
    assert_eq!(fast.to_bits(), f64::NEG_INFINITY.to_bits());
    assert!(probs.is_empty());
}

#[test]
fn all_neg_infinity_is_bit_identical_at_every_tail_length() {
    // All-(−∞) inputs, and all-NaN ones, short-circuit (max is −∞) on
    // both paths for every length, including lengths not divisible by 4.
    for len in 0..=9 {
        for fill in [f64::NEG_INFINITY, f64::NAN] {
            let v = vec![fill; len];
            let (fast, _) = softmax(&v);
            assert_eq!(fast.to_bits(), log_sum_exp(&v).to_bits(), "len={len}");
            assert_eq!(fast.to_bits(), f64::NEG_INFINITY.to_bits());
        }
    }
}
