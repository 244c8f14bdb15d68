//! Robustness toolkit for the `dplearn` workspace: deterministic fault
//! injection, retry policies, and convergence reporting.
//!
//! The paper's central objects — the Gibbs posterior `dπ̂_λ ∝ exp(−λR̂)`
//! and the capacity of the `Ẑ → θ` channel — are computed by
//! floating-point samplers and fixed-point iterations. At the extreme
//! `ε`/`λ` settings the privacy–accuracy tradeoff invites, those
//! computations can silently underflow, overflow, or stall. This crate
//! supplies the machinery that lets the rest of the workspace fail
//! loudly, retry sensibly, and never panic on hostile input:
//!
//! * [`fault`] — a seeded, deterministic **fault-injection harness**:
//!   [`fault::FaultPlan`] corrupts score vectors, datasets, and
//!   distortion matrices with NaN / ±∞ / subnormal / adversarial-extreme
//!   values at reproducible positions, and [`fault::FaultyRng`] wraps any
//!   [`dplearn_numerics::rng::Rng`] to splice extreme raw draws into a
//!   random stream.
//! * [`retry`] — [`retry::RetryPolicy`] (bounded restarts with geometric
//!   iteration-budget growth and damped re-initialization), which
//!   schedules the Blahut–Arimoto solver's restarts, and
//!   [`retry::ConvergenceReport`] (attempts, residual, degraded-mode
//!   flag), which the multi-chain Metropolis–Hastings watchdog returns.
//!
//! # Example: asserting a mechanism survives a fault class
//!
//! ```
//! use dplearn_robust::fault::{FaultClass, FaultPlan};
//!
//! // A "clean" score vector a caller might feed report_noisy_max.
//! let mut scores = vec![0.3, 1.7, 0.9, 2.4];
//! let plan = FaultPlan::new(FaultClass::Nan).with_seed(7).random(1);
//! let hit = plan.corrupt_slice(&mut scores);
//! assert_eq!(hit.len(), 1);
//! assert!(scores[hit[0]].is_nan());
//! // A hardened mechanism must now return a typed error — never panic,
//! // never a silent NaN result. The fault-injection suite in
//! // tests/fault_injection.rs asserts exactly that for every public
//! // mechanism and solver in the workspace.
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod crash;
pub mod fault;
pub mod retry;

pub use crash::{CrashPlan, CrashPoint, WriteDisposition};
pub use fault::{FaultClass, FaultPlan, FaultyRng};
pub use retry::{ConvergenceReport, RetryPolicy};

/// Errors produced by the robustness layer itself.
#[derive(Debug, Clone, PartialEq)]
pub enum RobustError {
    /// A fault-plan or retry-policy parameter was invalid.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Why it was rejected.
        reason: String,
    },
}

impl std::fmt::Display for RobustError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RobustError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
        }
    }
}

impl std::error::Error for RobustError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RobustError>;
