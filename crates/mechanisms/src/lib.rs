//! Differential-privacy mechanisms.
//!
//! This crate implements the mechanism toolkit the paper builds on
//! (Section 2 of Mir, PAIS 2012):
//!
//! * the **Laplace mechanism** (Dwork, McSherry, Nissim & Smith, TCC 2006)
//!   — Theorem 2.1 of the paper,
//! * the **exponential mechanism** (McSherry & Talwar, FOCS 2007) —
//!   Theorem 2.2 of the paper, and the bridge to the Gibbs estimator,
//! * supporting machinery: the Gaussian mechanism, randomized response,
//!   report-noisy-max, the sparse vector technique, sensitivity
//!   calculators, composition accounting, and an **empirical privacy
//!   auditor** that estimates the realized privacy loss of any mechanism
//!   by Monte Carlo (used by experiments E1, E2, and E5 to check the
//!   theorems against running code).
//!
//! # Example: ε-DP release of a mean
//!
//! ```
//! use dplearn_mechanisms::laplace::LaplaceMechanism;
//! use dplearn_mechanisms::privacy::Epsilon;
//! use dplearn_numerics::rng::Xoshiro256;
//!
//! let data = vec![0.2, 0.7, 0.4, 0.9];
//! // A mean of values in [0,1] over a fixed-size dataset has global
//! // sensitivity 1/n under the replace-one neighbor relation.
//! let sensitivity = 1.0 / data.len() as f64;
//! let mech = LaplaceMechanism::new(Epsilon::new(1.0).unwrap(), sensitivity).unwrap();
//! let mut rng = Xoshiro256::seed_from(7);
//! let true_mean = data.iter().sum::<f64>() / data.len() as f64;
//! let private_mean = mech.release(true_mean, &mut rng);
//! assert!(private_mean.is_finite());
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]
// Panic-free hardening: library code must surface typed errors, never
// panic. Bounds-proven kernels opt out per-module with a justification.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

// The Monte-Carlo audit estimators index count vectors and RNG streams
// with loop counters bounded by their lengths. A mechanism's outcome is
// never such an index: it is checked against the support first.
#[allow(clippy::indexing_slicing)]
pub mod audit;
pub mod composition;
pub mod continual;
// The grid sampler walks piecewise-constant envelopes whose index arithmetic
// is bounded by the grid length fixed at construction.
#[allow(clippy::indexing_slicing)]
pub mod continuous_exponential;
pub mod exponential;
pub mod gaussian;
pub mod geometric;
pub mod histogram;
pub mod laplace;
pub mod noisy_max;
// The rejection loop permutes `0..k` in place; every index is drawn from
// that range, so direct indexing is bounds-proven.
#[allow(clippy::indexing_slicing)]
pub mod permute_and_flip;
pub mod privacy;
pub mod randomized_response;
pub mod sensitivity;
pub mod sparse_vector;
pub mod subsampling;

/// Errors produced by the mechanisms layer.
#[derive(Debug, Clone, PartialEq)]
pub enum MechanismError {
    /// A privacy or mechanism parameter was invalid.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// The privacy budget was exhausted by a composition accountant.
    BudgetExhausted {
        /// ε requested by the operation.
        requested: f64,
        /// ε remaining in the budget.
        remaining: f64,
    },
    /// A charged operation failed after its budget was spent; the
    /// accountant fails closed and refuses all further spending.
    AccountantPoisoned,
    /// An underlying numerical routine failed.
    Numerics(dplearn_numerics::NumericsError),
}

impl std::fmt::Display for MechanismError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MechanismError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            MechanismError::BudgetExhausted {
                requested,
                remaining,
            } => {
                write!(
                    f,
                    "privacy budget exhausted: requested ε={requested}, remaining ε={remaining}"
                )
            }
            MechanismError::AccountantPoisoned => write!(
                f,
                "privacy accountant poisoned: a charged operation failed, refusing further spends"
            ),
            MechanismError::Numerics(e) => write!(f, "numerics error: {e}"),
        }
    }
}

impl std::error::Error for MechanismError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MechanismError::Numerics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dplearn_numerics::NumericsError> for MechanismError {
    fn from(e: dplearn_numerics::NumericsError) -> Self {
        MechanismError::Numerics(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MechanismError>;
