//! Fano-type lower bounds — the "compare upper and lower bounds on the
//! mutual information ... and their implication on the utility" direction
//! the paper announces in its conclusion (Section 5, citing Alvim et al.).
//!
//! Fano's inequality: for any estimator `X̂ = g(Y)` of `X` taking `k ≥ 2`
//! values,
//!
//! ```text
//! H(P_e) + P_e·ln(k − 1) ≥ H(X|Y) = H(X) − I(X;Y)
//! ```
//!
//! so a *small* mutual information — which differential privacy enforces
//! on the learning channel — *forces* a large reconstruction error on any
//! adversary trying to recover the sample `Ẑ` from the released
//! predictor `θ`. This is privacy's information-theoretic teeth: the same
//! quantity `I(Ẑ;θ)` that Theorem 4.2 trades against risk also
//! lower-bounds the adversary's error.

use crate::channel::DiscreteChannel;
use crate::{InfoError, Result};
use dplearn_numerics::special::binary_entropy;

/// Lower bound on the error probability `P_e = P[g(Y) ≠ X]` of **any**
/// estimator of `X` from `Y`, given `H(X|Y)` in nats and alphabet size
/// `k ≥ 2`.
///
/// Solves `H(p) + p·ln(k−1) = H(X|Y)` for the smallest admissible `p`
/// (the left side is increasing on `[0, (k−1)/k]`); returns 0 when
/// `H(X|Y) = 0` (perfect recovery possible) and saturates at
/// `(k−1)/k` (the error of random guessing against a uniform source).
pub fn fano_error_lower_bound(h_x_given_y_nats: f64, k: usize) -> Result<f64> {
    if k < 2 {
        return Err(InfoError::InvalidParameter {
            name: "k",
            reason: format!("alphabet must have at least 2 symbols, got {k}"),
        });
    }
    // NaN-rejecting check.
    if h_x_given_y_nats.is_nan() || h_x_given_y_nats < -1e-12 {
        return Err(InfoError::InvalidParameter {
            name: "h_x_given_y_nats",
            reason: format!("conditional entropy must be nonnegative, got {h_x_given_y_nats}"),
        });
    }
    let h = h_x_given_y_nats.max(0.0);
    let kf = k as f64;
    let cap = (kf - 1.0) / kf;
    let lhs = |p: f64| binary_entropy(p) + p * (kf - 1.0).ln();
    if h <= 0.0 {
        return Ok(0.0);
    }
    if h >= lhs(cap) {
        return Ok(cap);
    }
    // Bisection on the increasing branch [0, cap].
    let (mut lo, mut hi) = (0.0f64, cap);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if lhs(mid) < h {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Fano lower bound on the error of reconstructing the channel **input**
/// from its output, computed from the channel's exact `H(X|Y)`.
pub fn channel_input_reconstruction_error_bound(channel: &DiscreteChannel) -> Result<f64> {
    let h_x = channel.input_entropy();
    let mi = channel.mutual_information();
    fano_error_lower_bound((h_x - mi).max(0.0), channel.n_inputs())
}

/// Exact Bayes (MAP) error of reconstructing the channel input from the
/// output: `1 − Σ_y max_x p(x)p(y|x)` — the complement of the channel's
/// posterior vulnerability. The Fano bound must lie below
/// this value; the gap measures the bound's slack on this channel.
pub fn channel_input_bayes_error(channel: &DiscreteChannel) -> f64 {
    1.0 - channel.posterior_vulnerability()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn validates_input() {
        assert!(fano_error_lower_bound(0.5, 1).is_err());
        assert!(fano_error_lower_bound(-0.5, 4).is_err());
    }

    #[test]
    fn zero_conditional_entropy_allows_perfect_recovery() {
        close(fano_error_lower_bound(0.0, 10).unwrap(), 0.0, 1e-12);
    }

    #[test]
    fn maximal_entropy_forces_guessing_error() {
        // H(X|Y) = ln k (uniform, independent): bound saturates at (k−1)/k.
        let k = 8;
        let b = fano_error_lower_bound((k as f64).ln(), k).unwrap();
        close(b, 7.0 / 8.0, 1e-9);
    }

    #[test]
    fn bound_round_trips_through_the_fano_identity() {
        for &(h, k) in &[(0.3, 4usize), (1.0, 16), (0.05, 2)] {
            let p = fano_error_lower_bound(h, k).unwrap();
            let lhs = binary_entropy(p) + p * ((k - 1) as f64).ln();
            close(lhs, h, 1e-9);
        }
    }

    #[test]
    fn bound_is_monotone_in_entropy_and_valid_on_channels() {
        let mut prev = -1.0;
        for &h in &[0.05, 0.2, 0.5, 1.0] {
            let b = fano_error_lower_bound(h, 8).unwrap();
            assert!(b > prev);
            prev = b;
        }
        // On a concrete noisy channel the exact Bayes error dominates the
        // Fano bound.
        let c = DiscreteChannel::from_rows(
            vec![0.25; 4],
            vec![
                vec![0.7, 0.1, 0.1, 0.1],
                vec![0.1, 0.7, 0.1, 0.1],
                vec![0.1, 0.1, 0.7, 0.1],
                vec![0.1, 0.1, 0.1, 0.7],
            ],
        )
        .unwrap();
        let fano = channel_input_reconstruction_error_bound(&c).unwrap();
        let bayes = channel_input_bayes_error(&c);
        assert!(bayes >= fano - 1e-12, "bayes {bayes} vs fano {fano}");
        assert!(fano > 0.0);
        // Bayes error of this symmetric channel: 1 − 0.7 = 0.3.
        close(bayes, 0.3, 1e-12);
    }

    #[test]
    fn binary_channel_fano_is_tight_for_symmetric_noise() {
        // BSC with crossover f, uniform input: H(X|Y) = H(f) and the MAP
        // error is exactly f — Fano is tight for k = 2.
        let f = 0.2;
        let c =
            DiscreteChannel::from_rows(vec![0.5, 0.5], vec![vec![1.0 - f, f], vec![f, 1.0 - f]])
                .unwrap();
        let fano = channel_input_reconstruction_error_bound(&c).unwrap();
        let bayes = channel_input_bayes_error(&c);
        close(bayes, f, 1e-12);
        close(fano, f, 1e-9);
    }
}
