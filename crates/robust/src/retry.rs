//! Retry policies and convergence reports for iterative solvers.
//!
//! A [`RetryPolicy`] replaces the bare `max_iters → error` contract of a
//! fixed-point iteration with a bounded escalation schedule: each restart
//! gets a geometrically larger iteration budget, and the caller may damp
//! its re-initialization toward a known-safe starting point. A
//! [`ConvergenceReport`] is the structured outcome — callers can
//! gracefully degrade (accept a not-fully-mixed posterior, widen a
//! tolerance) instead of aborting, and audits can log exactly how hard
//! the solver had to work.
//!
//! Determinism contract: a policy is pure data and its schedule depends
//! only on the attempt index — never on wall-clock time — so retrying
//! pipelines stay bit-identical at every `DPLEARN_THREADS` setting.
//!
//! Interaction with the worker pool (`dplearn-parallel`): a retry loop
//! drives one parallel section per attempt against the process-wide
//! persistent pool. Each dispatch is fully joined before the wrapper
//! regains control, so **no pool state crosses a restart boundary** — no
//! in-pool-section marker on the calling thread, no stale task, no
//! half-claimed chunks. The `retry_restarts_do_not_leak_pool_state`
//! fault-injection test pins this.

use crate::{Result, RobustError};

/// Bounded-restart schedule for an iterative solver.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (≥ 1).
    pub max_attempts: usize,
    /// Iteration budget of the first attempt (≥ 1).
    pub base_iters: usize,
    /// Geometric growth of the budget per restart (≥ 1).
    pub growth: f64,
    /// Damping in `[0, 1]` applied on restart: `0` resumes from the
    /// failed state unchanged, `1` restarts fresh, values in between mix
    /// the failed state toward the solver's safe initializer.
    pub damping: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_iters: 1_000,
            growth: 4.0,
            damping: 0.5,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: one attempt of `max_iters` — the
    /// legacy `max_iters` contract expressed as a policy.
    pub fn single_attempt(max_iters: usize) -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_iters: max_iters,
            growth: 1.0,
            damping: 0.0,
        }
    }

    /// Reject degenerate schedules.
    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(RobustError::InvalidParameter {
                name: "max_attempts",
                reason: "must be at least 1".to_string(),
            });
        }
        if self.base_iters == 0 {
            return Err(RobustError::InvalidParameter {
                name: "base_iters",
                reason: "must be at least 1".to_string(),
            });
        }
        if !(self.growth.is_finite() && self.growth >= 1.0) {
            return Err(RobustError::InvalidParameter {
                name: "growth",
                reason: format!("must be finite and ≥ 1, got {}", self.growth),
            });
        }
        if !(0.0..=1.0).contains(&self.damping) {
            return Err(RobustError::InvalidParameter {
                name: "damping",
                reason: format!("must lie in [0, 1], got {}", self.damping),
            });
        }
        Ok(())
    }

    /// Iteration budget of attempt `attempt` (0-based):
    /// `base_iters · growth^attempt`, saturating at `usize::MAX`.
    ///
    /// The escalation is computed in `f64` (the growth factor is
    /// fractional), which cannot represent every `usize` above 2⁵³: a
    /// naive `base_iters as f64` rounds, and for pathological
    /// `base_iters` the product could round *down* — an overflow
    /// "wrapping" the budget into a value smaller than the base. The
    /// result is therefore clamped to never fall below `base_iters`, so
    /// the schedule is monotone in `attempt` and attempt 0 always gets
    /// exactly its configured budget.
    pub fn budget_for(&self, attempt: usize) -> usize {
        let b = self.base_iters as f64 * self.growth.powi(attempt.min(10_000) as i32);
        // NaN (never produced by a validated policy, but `Budget`-style
        // defensiveness is cheap) and +inf both saturate.
        if !b.is_finite() || b >= usize::MAX as f64 {
            usize::MAX
        } else {
            // `as usize` saturates rather than wraps, and the clamp
            // repairs any downward rounding of the f64 round-trip.
            (b as usize).max(self.base_iters).max(1)
        }
    }

    /// Total iteration budget across all attempts, saturating.
    pub fn total_budget(&self) -> usize {
        (0..self.max_attempts).fold(0usize, |acc, a| acc.saturating_add(self.budget_for(a)))
    }
}

/// Structured outcome of a watched / retried solver run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceReport {
    /// Attempts performed (1 = converged first try).
    pub attempts: usize,
    /// Whether the convergence criterion was ultimately met.
    pub converged: bool,
    /// Degraded mode: the solver returned a usable-but-unconverged
    /// result (e.g. an under-mixed chain pool) instead of erroring.
    /// Always `false` when `converged` is `true`.
    pub degraded: bool,
    /// Total iterations consumed across all attempts.
    pub total_iterations: usize,
    /// Final convergence residual (solver-specific: the worst-dimension
    /// R̂ for the MCMC watchdog).
    pub final_residual: f64,
}

impl std::fmt::Display for ConvergenceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "attempts={} converged={} degraded={} iters={} residual={:.3e}",
            self.attempts,
            self.converged,
            self.degraded,
            self.total_iterations,
            self.final_residual
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_valid() {
        assert!(RetryPolicy::default().validate().is_ok());
    }

    #[test]
    fn budgets_grow_geometrically_and_saturate() {
        let p = RetryPolicy {
            max_attempts: 3,
            base_iters: 100,
            growth: 4.0,
            damping: 0.5,
        };
        assert_eq!(p.budget_for(0), 100);
        assert_eq!(p.budget_for(1), 400);
        assert_eq!(p.budget_for(2), 1600);
        assert_eq!(p.total_budget(), 2100);
        let huge = RetryPolicy {
            max_attempts: 100,
            base_iters: usize::MAX,
            growth: 10.0,
            damping: 0.0,
        };
        assert_eq!(huge.budget_for(50), usize::MAX);
        assert_eq!(huge.total_budget(), usize::MAX);
    }

    #[test]
    fn budget_never_falls_below_base_at_the_overflow_boundary() {
        // Above 2^53, `base_iters as f64` rounds: 2^53 + 1 rounds down to
        // 2^53, so the unclamped product reports a budget *smaller* than
        // the configured base — a geometric "escalation" that shrinks.
        let base = (1usize << 53) + 1;
        let p = RetryPolicy {
            max_attempts: 4,
            base_iters: base,
            growth: 1.0,
            damping: 0.0,
        };
        assert!(p.validate().is_ok());
        for attempt in 0..4 {
            assert!(
                p.budget_for(attempt) >= base,
                "attempt {attempt}: budget {} fell below base {base}",
                p.budget_for(attempt)
            );
        }
        // Monotone even with fractional growth straddling the boundary.
        let q = RetryPolicy {
            max_attempts: 8,
            base_iters: base,
            growth: 1.0000000001,
            damping: 0.0,
        };
        let mut prev = 0usize;
        for attempt in 0..8 {
            let b = q.budget_for(attempt);
            assert!(b >= prev, "schedule must be monotone: {b} < {prev}");
            assert!(b >= base);
            prev = b;
        }
        // Saturation still engages well past the representable range,
        // and the total never wraps into a small value.
        let huge = RetryPolicy {
            max_attempts: 10_000,
            base_iters: usize::MAX,
            growth: 10.0,
            damping: 0.0,
        };
        assert_eq!(huge.budget_for(0), usize::MAX);
        assert_eq!(huge.budget_for(9_999), usize::MAX);
        assert_eq!(huge.total_budget(), usize::MAX);
    }

    #[test]
    fn single_attempt_matches_legacy_contract() {
        let p = RetryPolicy::single_attempt(777);
        assert!(p.validate().is_ok());
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.budget_for(0), 777);
        assert_eq!(p.total_budget(), 777);
    }

    #[test]
    fn validation_rejects_degenerate_schedules() {
        for bad in [
            RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
            RetryPolicy {
                base_iters: 0,
                ..RetryPolicy::default()
            },
            RetryPolicy {
                growth: 0.5,
                ..RetryPolicy::default()
            },
            RetryPolicy {
                growth: f64::NAN,
                ..RetryPolicy::default()
            },
            RetryPolicy {
                damping: -0.1,
                ..RetryPolicy::default()
            },
            RetryPolicy {
                damping: f64::NAN,
                ..RetryPolicy::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn report_display_and_first_try() {
        let r = ConvergenceReport {
            attempts: 1,
            converged: true,
            degraded: false,
            total_iterations: 42,
            final_residual: 1e-13,
        };
        let s = r.to_string();
        assert!(s.contains("attempts=1"), "{s}");
    }
}
