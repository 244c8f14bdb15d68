//! Information-theoretic consequences of differential privacy.
//!
//! If a mechanism `Ẑ ↦ θ` is ε-DP under replace-one adjacency, then for
//! any *conditional* distribution of `θ` given the rest of the sample,
//! changing one record moves the output distribution by a log-ratio of at
//! most ε, so each record leaks at most ε nats:
//! `I(Zᵢ; θ | Z₍₋ᵢ₎) ≤ ε`. Chaining over the `n` records,
//!
//! ```text
//! I(Ẑ; θ) ≤ n·ε    (nats)
//! ```
//!
//! (Equivalently `n·ε·log₂e` bits.) This is the whole-dataset counterpart
//! of the per-record bounds of Alvim et al. and the two-party bounds of
//! McGregor et al. that the paper cites. The bound is loose for
//! concentrated posteriors — experiment E7 reports both sides to show the
//! slack — but it is the cleanly provable anchor connecting the privacy
//! parameter to the paper's mutual-information story.
//!
//! These conversions sit on the engine's leakage path
//! (`LeakageLedger`), so per the workspace panic-free policy they
//! return typed [`InfoError`]s instead of asserting: a negative or NaN
//! ε from a corrupted ledger must surface as a `Result`, not a panic
//! mid-report. `ε = +∞` is **accepted** — advanced composition
//! legitimately yields an infinite ε when `1/δ′` overflows, and the
//! bound `∞` is still a (vacuously) correct bound.

use crate::{InfoError, Result};

fn validate_epsilon(epsilon: f64) -> Result<f64> {
    if epsilon.is_nan() || epsilon < 0.0 {
        return Err(InfoError::InvalidParameter {
            name: "epsilon",
            reason: format!("must be nonnegative (or +inf), got {epsilon}"),
        });
    }
    Ok(epsilon)
}

/// Upper bound on `I(Ẑ; θ)` in **nats** for an ε-DP mechanism on a sample
/// of `n` records. Errors on NaN or negative ε.
pub fn mi_bound_nats(epsilon: f64, n: usize) -> Result<f64> {
    let eps = validate_epsilon(epsilon)?;
    // 0·∞ would be NaN; n = 0 records leak exactly nothing.
    if n == 0 {
        return Ok(0.0);
    }
    Ok(eps * n as f64)
}

/// Upper bound on `I(Ẑ; θ)` in **bits**. Errors on NaN or negative ε.
pub fn mi_bound_bits(epsilon: f64, n: usize) -> Result<f64> {
    Ok(mi_bound_nats(epsilon, n)? / std::f64::consts::LN_2)
}

/// Per-record bound: `I(Zᵢ; θ | Z₍₋ᵢ₎) ≤ ε` nats. Exposed for
/// completeness and used in tests against exactly computable channels.
/// Errors on NaN or negative ε.
pub fn per_record_mi_bound_nats(epsilon: f64) -> Result<f64> {
    validate_epsilon(epsilon)
}

/// Cuff–Yu per-record MI charge: `ε·tanh(ε/2)` **nats**.
///
/// Cuff & Yu (*Differential privacy as a mutual information constraint*,
/// CCS 2016) show that an ε-DP mechanism satisfies the per-record
/// mutual-information constraint with the randomized-response pair as
/// the extremal case: two output distributions within a pointwise
/// log-ratio of ε have KL divergence at most
/// `ε·(e^ε − 1)/(e^ε + 1) = ε·tanh(ε/2)`, so
/// `I(Zᵢ; θ | Z₍₋ᵢ₎) ≤ ε·tanh(ε/2)`. Since `tanh(ε/2) < min(1, ε/2)`,
/// this charge is strictly tighter than both the linear bound ε
/// ([`per_record_mi_bound_nats`]) and the quadratic bound `ε²/2`, at
/// every ε > 0.
///
/// Edge cases follow [`mi_bound_nats`]: `ε = 0` charges `0`, `ε = +∞`
/// charges `+∞` (vacuous but correct), NaN/negative ε is a typed error.
pub fn cuff_yu_mi_charge_nats(epsilon: f64) -> Result<f64> {
    let eps = validate_epsilon(epsilon)?;
    // ∞ · tanh(∞/2) = ∞ · 1 — no indeterminate form to special-case.
    Ok(eps * (eps / 2.0).tanh())
}

/// Dataset-level Cuff–Yu bound: `n · ε·tanh(ε/2)` nats for `n` records
/// (the per-record charge chained over records, exactly as
/// [`mi_bound_nats`] chains the linear bound).
pub fn cuff_yu_mi_bound_nats(epsilon: f64, n: usize) -> Result<f64> {
    let charge = cuff_yu_mi_charge_nats(epsilon)?;
    // 0·∞ would be NaN; n = 0 records leak exactly nothing.
    if n == 0 {
        return Ok(0.0);
    }
    Ok(charge * n as f64)
}

/// KL bound: any two output distributions of an ε-DP mechanism on
/// neighboring inputs satisfy `KL(p ‖ q) ≤ ε` nats (since
/// `KL(p‖q) = E_p ln(p/q) ≤ sup ln(p/q) ≤ ε`). Helper for tests.
/// Errors on NaN or negative ε.
pub fn neighbor_kl_bound_nats(epsilon: f64) -> Result<f64> {
    validate_epsilon(epsilon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::DiscreteChannel;

    #[test]
    fn bounds_scale_linearly() {
        assert_eq!(mi_bound_nats(0.5, 10).unwrap(), 5.0);
        assert!((mi_bound_bits(1.0, 2).unwrap() - 2.0 / std::f64::consts::LN_2).abs() < 1e-12);
        assert_eq!(per_record_mi_bound_nats(0.3).unwrap(), 0.3);
        assert_eq!(neighbor_kl_bound_nats(0.3).unwrap(), 0.3);
    }

    #[test]
    fn epsilon_dp_channel_respects_per_record_bound() {
        // A "mechanism" over a single record (n = 1): two neighboring
        // inputs, rows within e^ε. Its MI must be ≤ ε nats.
        for &eps in &[0.1f64, 0.5, 1.0, 2.0] {
            let p = eps.exp() / (eps.exp() + 1.0);
            let c = DiscreteChannel::from_rows(
                vec![0.5, 0.5],
                vec![vec![p, 1.0 - p], vec![1.0 - p, p]],
            )
            .unwrap();
            // Construction check: the channel really is ε-DP.
            assert!((c.max_row_log_ratio() - eps).abs() < 1e-9);
            let mi = c.mutual_information();
            assert!(
                mi <= per_record_mi_bound_nats(eps).unwrap() + 1e-12,
                "ε={eps}: MI {mi} exceeds bound"
            );
        }
    }

    #[test]
    fn bound_is_loose_but_correct_shape() {
        // The MI of the ε-DP binary channel is Θ(ε²) for small ε while
        // the bound is ε — confirm both facts (looseness is expected and
        // documented).
        let eps = 0.1f64;
        let p = eps.exp() / (eps.exp() + 1.0);
        let c =
            DiscreteChannel::from_rows(vec![0.5, 0.5], vec![vec![p, 1.0 - p], vec![1.0 - p, p]])
                .unwrap();
        let mi = c.mutual_information();
        assert!(mi < eps * eps); // quadratic behaviour
        assert!(mi <= per_record_mi_bound_nats(eps).unwrap());
    }

    #[test]
    fn cuff_yu_charge_is_tighter_than_linear_and_quadratic_bounds() {
        for &eps in &[1e-6, 0.01, 0.1, 0.5, 1.0, 2.0, 10.0] {
            let charge = cuff_yu_mi_charge_nats(eps).unwrap();
            assert!(charge > 0.0);
            assert!(charge < eps, "ε={eps}: charge {charge} not below ε");
            assert!(
                charge < eps * eps / 2.0,
                "ε={eps}: charge {charge} not below ε²/2"
            );
            // Closed form sanity: ε·(e^ε−1)/(e^ε+1). Only checked away
            // from 0, where `e^ε − 1` does not cancel catastrophically.
            if eps >= 0.1 {
                let want = eps * (eps.exp() - 1.0) / (eps.exp() + 1.0);
                assert!((charge - want).abs() <= 1e-12 * want);
            }
        }
    }

    #[test]
    fn cuff_yu_charge_dominates_the_exact_randomized_response_mi() {
        // The extremal pair: a binary ε-DP channel over one record. Its
        // exact MI must sit below the Cuff–Yu charge, which in turn sits
        // below the linear ε bound.
        for &eps in &[0.1f64, 0.5, 1.0, 2.0] {
            let p = eps.exp() / (eps.exp() + 1.0);
            let c = DiscreteChannel::from_rows(
                vec![0.5, 0.5],
                vec![vec![p, 1.0 - p], vec![1.0 - p, p]],
            )
            .unwrap();
            let mi = c.mutual_information();
            let charge = cuff_yu_mi_charge_nats(eps).unwrap();
            assert!(
                mi <= charge + 1e-12,
                "ε={eps}: MI {mi} above charge {charge}"
            );
            assert!(charge <= per_record_mi_bound_nats(eps).unwrap());
        }
    }

    #[test]
    fn cuff_yu_edge_cases() {
        assert_eq!(cuff_yu_mi_charge_nats(0.0).unwrap(), 0.0);
        assert_eq!(
            cuff_yu_mi_charge_nats(f64::INFINITY).unwrap(),
            f64::INFINITY
        );
        assert_eq!(cuff_yu_mi_bound_nats(0.7, 0).unwrap(), 0.0);
        assert_eq!(cuff_yu_mi_bound_nats(f64::INFINITY, 0).unwrap(), 0.0);
        assert_eq!(
            cuff_yu_mi_bound_nats(f64::INFINITY, 2).unwrap(),
            f64::INFINITY
        );
        let one = cuff_yu_mi_charge_nats(0.5).unwrap();
        assert_eq!(cuff_yu_mi_bound_nats(0.5, 10).unwrap(), one * 10.0);
    }

    #[test]
    fn invalid_epsilon_is_a_typed_error_not_a_panic() {
        for bad in [-1.0, -f64::MIN_POSITIVE, f64::NAN, f64::NEG_INFINITY] {
            for res in [
                mi_bound_nats(bad, 5),
                mi_bound_bits(bad, 5),
                per_record_mi_bound_nats(bad),
                neighbor_kl_bound_nats(bad),
                cuff_yu_mi_charge_nats(bad),
                cuff_yu_mi_bound_nats(bad, 5),
            ] {
                assert!(
                    matches!(
                        res,
                        Err(InfoError::InvalidParameter {
                            name: "epsilon",
                            ..
                        })
                    ),
                    "ε={bad}: expected InvalidParameter, got {res:?}"
                );
            }
        }
    }

    #[test]
    fn infinite_epsilon_is_accepted() {
        // Advanced composition can legitimately report ε = ∞ (1/δ′
        // overflow); the MI bound degrades to the vacuous ∞, not an error.
        assert_eq!(mi_bound_nats(f64::INFINITY, 3).unwrap(), f64::INFINITY);
        assert_eq!(mi_bound_nats(f64::INFINITY, 0).unwrap(), 0.0);
        assert_eq!(
            per_record_mi_bound_nats(f64::INFINITY).unwrap(),
            f64::INFINITY
        );
    }

    #[test]
    fn zero_records_leak_nothing() {
        assert_eq!(mi_bound_nats(0.7, 0).unwrap(), 0.0);
        assert_eq!(mi_bound_bits(0.7, 0).unwrap(), 0.0);
    }
}
