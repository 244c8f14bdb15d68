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

pub(crate) fn validate_distribution(what: &'static str, p: &[f64]) -> Result<()> {
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
