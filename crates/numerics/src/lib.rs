//! Numerical substrate for the `dplearn` workspace.
//!
//! This crate is the foundation every other crate in the workspace builds
//! on. It deliberately has **no runtime dependencies**: random number
//! generation, special functions, probability distributions, dense linear
//! algebra, one-dimensional optimization, quadrature, and summary
//! statistics are all implemented here from scratch so that every
//! experiment in the reproduction is bit-for-bit deterministic under a
//! fixed seed.
//!
//! # Modules
//!
//! * [`rng`] — seedable pseudo-random generators (SplitMix64,
//!   Xoshiro256++) and reproducible stream splitting.
//! * [`special`] — numerically careful special functions
//!   (`log_sum_exp`, `ln_gamma`, `erf`, binary-entropy utilities, the
//!   Bernoulli KL divergence and its inverse).
//! * [`distributions`] — samplable distributions with exact densities
//!   (Laplace, Gaussian, Exponential, Uniform, Gumbel, Categorical).
//! * [`linalg`] — dense row-major matrices, Cholesky factorization and
//!   SPD solves, plus slice-level vector kernels.
//! * [`optimize`] — golden-section minimization, bisection/Brent root
//!   finding, and gradient descent with backtracking line search.
//! * [`integrate`] — Simpson and adaptive-Simpson quadrature.
//! * [`stats`] — summary statistics, histograms, empirical CDFs, and
//!   bootstrap confidence intervals.
//! * [`order`] — the `f64` total order's sort and merge kernels, shared
//!   by every rank structure.
//! * [`sketch`] — deterministic mergeable rank/quantile sketches with
//!   exactly-tracked worst-case error, for streaming sufficient
//!   statistics.
//!
//! # Example
//!
//! ```
//! use dplearn_numerics::rng::Xoshiro256;
//! use dplearn_numerics::distributions::{Laplace, Continuous, Sample};
//!
//! let mut rng = Xoshiro256::seed_from(42);
//! let lap = Laplace::new(0.0, 1.0).unwrap();
//! let x = lap.sample(&mut rng);
//! assert!(lap.pdf(x) > 0.0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]
// Panic-free hardening: library code must surface typed errors, never
// panic. Bounds-proven kernels opt out per-module with a justification.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod distributions;
pub mod integrate;
// Dense kernels index with loop counters bounded by dimensions checked at
// entry; rewriting with `get` would obscure the math without adding safety.
#[allow(clippy::indexing_slicing)]
pub mod linalg;
pub mod optimize;
pub mod order;
pub mod rng;
pub mod sketch;
pub mod special;
pub mod stats;

/// Errors produced by numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericsError {
    /// A distribution or routine parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the constraint that was violated.
        reason: String,
    },
    /// Matrix dimensions were incompatible with the requested operation.
    DimensionMismatch {
        /// Description of the expected shape.
        expected: String,
        /// Description of the shape that was provided.
        actual: String,
    },
    /// A factorization or solve failed (e.g. the matrix is not positive
    /// definite, or is numerically singular).
    NotPositiveDefinite,
    /// An iterative routine failed to converge within its iteration budget.
    DidNotConverge {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// The input slice was empty where at least one element is required.
    EmptyInput,
    /// A value that must be finite was NaN or infinite.
    NonFinite {
        /// Where the non-finite value was encountered.
        context: &'static str,
    },
}

impl std::fmt::Display for NumericsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumericsError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            NumericsError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            NumericsError::NotPositiveDefinite => {
                write!(f, "matrix is not (numerically) positive definite")
            }
            NumericsError::DidNotConverge { iterations } => {
                write!(f, "iteration failed to converge after {iterations} steps")
            }
            NumericsError::EmptyInput => write!(f, "input must be non-empty"),
            NumericsError::NonFinite { context } => {
                write!(f, "non-finite value (NaN or ±inf) in {context}")
            }
        }
    }
}

impl std::error::Error for NumericsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NumericsError>;
