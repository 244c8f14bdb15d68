//! Information theory: channels, entropy, mutual information,
//! rate–distortion, and leakage (Section 4 of the paper).
//!
//! Section 4.1 of the paper reads differentially-private learning as an
//! **information channel** whose input is the sample `Ẑ` and whose output
//! is the predictor `θ`, with transition kernel `p(θ|Ẑ) = π̂_Ẑ` (the Gibbs
//! posterior). This crate supplies everything needed to make that reading
//! executable:
//!
//! * [`entropy`] — Shannon entropies over finite alphabets,
//! * [`channel`] — discrete memoryless channels with exact joint /
//!   marginal / mutual-information computation and min-entropy leakage
//!   (the Figure 1 object, and the Alvim et al. connection the paper
//!   cites),
//! * [`mutual_information`] — exact MI plus plug-in estimation from
//!   samples with Miller–Madow bias correction,
//! * [`blahut_arimoto`] — the rate–distortion fixed point, whose inner
//!   update *is* the Gibbs kernel (an independent algorithmic witness of
//!   the paper's Theorem 4.2),
//! * [`dp_bounds`] — information-theoretic consequences of ε-DP
//!   (`I(Ẑ;θ) ≤ n·ε` nats, and the tighter Cuff–Yu per-record charge
//!   `ε·tanh(ε/2)`),
//! * [`flat`] — the cache-blocked, tile-parallel kernel behind each
//!   channel quantity, for alphabets up to 10⁴+ symbols,
//! * [`mi_accounting`] — the [`MiAccountant`](mi_accounting::MiAccountant)
//!   running MI-charge track the engine reports alongside ε composition,
//! * [`fano`] — Fano-type lower bounds: small `I(Ẑ;θ)` *forces*
//!   reconstruction error on any adversary (the paper's announced
//!   bound-comparison direction, experiment E11).

#![deny(missing_docs)]
#![warn(clippy::all)]
// Panic-free hardening: library code must surface typed errors, never
// panic. Bounds-proven kernels opt out per-module with a justification.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod blahut_arimoto;
pub mod capacity;
pub mod channel;
pub mod divergences;
pub mod dp_bounds;
pub mod entropy;
pub mod fano;
pub mod flat;
pub mod mi_accounting;
pub mod mutual_information;

/// Errors produced by the information-theory layer.
#[derive(Debug, Clone, PartialEq)]
pub enum InfoError {
    /// An invalid argument.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Constraint description.
        reason: String,
    },
    /// A probability vector failed validation.
    NotADistribution {
        /// What was being validated.
        what: &'static str,
        /// The offending sum or entry.
        detail: String,
    },
    /// An iterative routine failed to converge.
    DidNotConverge {
        /// Iterations performed.
        iterations: usize,
    },
}

impl std::fmt::Display for InfoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InfoError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            InfoError::NotADistribution { what, detail } => {
                write!(f, "{what} is not a probability distribution: {detail}")
            }
            InfoError::DidNotConverge { iterations } => {
                write!(f, "did not converge after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for InfoError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, InfoError>;

/// Check that `p` is a probability vector: non-empty, every entry finite
/// and nonnegative, summing to 1 within 1e-9.
///
/// One pass with no branch, so it vectorizes: the entries are summed in
/// four lanes (entry `i` in lane `i mod 4`, the lanes folded
/// `(l0 + l1) + (l2 + l3)`, the tail added in order) while four lane
/// minima ride along. The minimum catches a negative entry and `−∞`; a NaN
/// or `+∞` makes the sum NaN or `+∞`, which fails the tolerance test. Only
/// a rejected vector is scanned again, for the first bad entry to name.
pub(crate) fn validate_distribution(what: &'static str, p: &[f64]) -> Result<()> {
    if p.is_empty() {
        return Err(InfoError::NotADistribution {
            what,
            detail: "empty support".to_string(),
        });
    }
    let min_of = |lo: f64, x: f64| if x < lo { x } else { lo };
    let mut sums = [0.0f64; 4];
    let mut mins = [f64::INFINITY; 4];
    let chunks = p.chunks_exact(4);
    let tail = chunks.remainder();
    for c in chunks {
        for ((s, lo), &x) in sums.iter_mut().zip(&mut mins).zip(c) {
            *s += x;
            *lo = min_of(*lo, x);
        }
    }
    let [s0, s1, s2, s3] = sums;
    let mut total = (s0 + s1) + (s2 + s3);
    let mut min = mins.into_iter().fold(f64::INFINITY, min_of);
    for &x in tail {
        total += x;
        min = min_of(min, x);
    }
    if min >= 0.0 && (total - 1.0).abs() <= 1e-9 {
        return Ok(());
    }
    if let Some(x) = p.iter().find(|x| !(x.is_finite() && **x >= 0.0)) {
        return Err(InfoError::NotADistribution {
            what,
            detail: format!("entry {x} is negative or non-finite"),
        });
    }
    Err(InfoError::NotADistribution {
        what,
        detail: format!("sums to {total}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The entry-by-entry loop `validate_distribution` replaced, as the
    /// oracle: it stops at the first entry that is not finite and
    /// nonnegative, and sums left to right.
    fn sequential_oracle(what: &'static str, p: &[f64]) -> Result<()> {
        if p.is_empty() {
            return Err(InfoError::NotADistribution {
                what,
                detail: "empty support".to_string(),
            });
        }
        let mut total = 0.0;
        for &x in p {
            if !(x.is_finite() && x >= 0.0) {
                return Err(InfoError::NotADistribution {
                    what,
                    detail: format!("entry {x} is negative or non-finite"),
                });
            }
            total += x;
        }
        if (total - 1.0).abs() > 1e-9 {
            return Err(InfoError::NotADistribution {
                what,
                detail: format!("sums to {total}"),
            });
        }
        Ok(())
    }

    /// The verdict without the printed sum, whose last digits follow
    /// the association: "ok", the error's detail, or "sum".
    fn verdict(r: Result<()>) -> String {
        match r {
            Ok(()) => "ok".to_string(),
            Err(InfoError::NotADistribution { detail, .. }) if detail.starts_with("sums to") => {
                "sum".to_string()
            }
            Err(InfoError::NotADistribution { detail, .. }) => detail,
            Err(e) => e.to_string(),
        }
    }

    fn assert_agrees(p: &[f64]) -> String {
        let (got, want) = (
            verdict(validate_distribution("p", p)),
            verdict(sequential_oracle("p", p)),
        );
        assert_eq!(got, want, "{p:?}");
        got
    }

    #[test]
    fn lane_validation_agrees_with_the_sequential_loop() {
        assert_eq!(assert_agrees(&[]), "empty support");
        let tiny_negative = -f64::from_bits(1);
        let entries = [
            (f64::NAN, false),
            (f64::INFINITY, false),
            (f64::NEG_INFINITY, false),
            (-1e-300, false),
            (tiny_negative, false),
            (-0.0, true),
            (0.0, true),
            (f64::from_bits(1), true),
            (1e-310, true),
        ];
        // Every tail length: all of the vector in the tail (1–3), one
        // whole group of four plus a tail (4–7), and on to 13.
        for n in 1..=13usize {
            let uniform = vec![1.0 / n as f64; n];
            assert_eq!(assert_agrees(&uniform), "ok", "n={n}");
            for at in 0..n {
                // One special entry beside n − 1 uniform ones.
                for (v, accepted) in entries {
                    let mut p = vec![1.0 / (n - 1).max(1) as f64; n];
                    if n == 1 {
                        p[0] = 1.0;
                    }
                    p[at] = v;
                    if n == 1 && v.is_finite() && v >= 0.0 {
                        // A lone tiny entry cannot sum to 1.
                        assert_eq!(assert_agrees(&p), "sum", "{p:?}");
                        continue;
                    }
                    let want = if accepted { "ok" } else { "entry" };
                    assert!(assert_agrees(&p).starts_with(want), "n={n} at={at} v={v}");
                }
                // The sum just inside and just outside the tolerance.
                for (delta, want) in [
                    (0.9e-9, "ok"),
                    (-0.9e-9, "ok"),
                    (1.1e-9, "sum"),
                    (-1.1e-9, "sum"),
                ] {
                    let mut p = uniform.clone();
                    p[at] += delta;
                    assert_eq!(assert_agrees(&p), want, "n={n} at={at} delta={delta}");
                }
            }
        }
        // A NaN after a negative entry: both name the first bad entry.
        assert!(assert_agrees(&[0.5, -0.5, f64::NAN, 1.0, 0.0]).contains("entry -0.5"));
    }
}
