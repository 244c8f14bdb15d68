//! Channel capacity by the (maximizing) Blahut–Arimoto algorithm.
//!
//! Capacity `C = max_{p(x)} I(X;Y)` is the **worst-case average leakage**
//! of a channel over all priors on the secret — for the learning channel
//! `Ẑ → θ` this is the adversary-chosen-prior counterpart of the fixed-
//! prior mutual information measured in E7/E11 (the quantity Alvim et
//! al.'s "min-entropy leakage ≤ capacity" results revolve around).
//!
//! The iteration (Blahut 1972, Arimoto 1972):
//!
//! ```text
//! c(x)  = exp( Σ_y p(y|x) · ln(p(y|x)/r(y)) ),   r = output marginal
//! p(x) ← p(x)·c(x) / Σ_x p(x)·c(x)
//! ```
//!
//! with the certified bracket `ln Σ p·c ≤ C ≤ ln max_x c(x)` at every
//! step, which this implementation uses as its convergence criterion —
//! the returned capacity carries a rigorous error bound.

use crate::channel::{DiscreteChannel, TILE};
use crate::flat::{output_marginal_kernel, row_information};
use crate::{InfoError, Result};

/// Result of a capacity computation.
#[derive(Debug, Clone)]
pub struct Capacity {
    /// The capacity in nats (midpoint of the final bracket).
    pub nats: f64,
    /// The capacity-achieving input distribution.
    pub input: Vec<f64>,
    /// Width of the final upper−lower bracket (certified error).
    pub bracket: f64,
    /// Iterations used.
    pub iterations: usize,
}

/// Compute the capacity of a channel given by kernel rows `p(y|x)`,
/// to within bracket width `tol` nats. The rows are validated by
/// [`DiscreteChannel::from_rows`].
pub fn channel_capacity(kernel: &[Vec<f64>], tol: f64, max_iters: usize) -> Result<Capacity> {
    let nx = kernel.len();
    let channel = DiscreteChannel::from_rows(vec![1.0 / nx as f64; nx], kernel.to_vec())?;
    capacity_iteration(&channel, tol, max_iters)
}

/// Capacity of an existing [`DiscreteChannel`]'s kernel (ignores its
/// input distribution, which capacity optimizes over).
pub fn capacity_of(channel: &DiscreteChannel, tol: f64) -> Result<Capacity> {
    capacity_iteration(channel, tol, 100_000)
}

/// The iteration on the channel's own storage, from the uniform input.
/// The marginal and the per-row divergence `D(p(·|x) ‖ r)` come from the
/// channel kernels: [`output_marginal_kernel`] over the current input,
/// and the MI row kernel [`row_information`].
fn capacity_iteration(channel: &DiscreteChannel, tol: f64, max_iters: usize) -> Result<Capacity> {
    // Panic-free policy sweep: a NaN or negative tolerance previously
    // burned the whole iteration budget before surfacing as a spurious
    // DidNotConverge (every `upper − lower ≤ tol` comparison is false);
    // fail it fast with a typed error instead. `tol = 0` stays legal —
    // the bracket can legitimately collapse to exactly zero.
    if tol.is_nan() || tol < 0.0 {
        return Err(InfoError::InvalidParameter {
            name: "tol",
            reason: format!("bracket tolerance must be nonnegative, got {tol}"),
        });
    }
    if max_iters == 0 {
        return Err(InfoError::InvalidParameter {
            name: "max_iters",
            reason: "need at least one iteration".to_string(),
        });
    }
    let (kernel, ny) = (channel.kernel_flat(), channel.n_outputs());
    let nx = channel.n_inputs();
    let mut p = vec![1.0 / nx as f64; nx];
    let mut iterations = 0;
    loop {
        iterations += 1;
        let r = output_marginal_kernel(&p, kernel, ny, TILE);
        let log_c: Vec<f64> = channel.rows().map(|row| row_information(row, &r)).collect();
        let lower = {
            // ln Σ p·c computed stably.
            let s: f64 = p.iter().zip(&log_c).map(|(&px, &lc)| px * lc.exp()).sum();
            s.ln()
        };
        let upper = log_c.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if upper - lower <= tol {
            return Ok(Capacity {
                nats: 0.5 * (upper + lower).max(0.0),
                input: p,
                bracket: upper - lower,
                iterations,
            });
        }
        if iterations >= max_iters {
            return Err(InfoError::DidNotConverge { iterations });
        }
        // Update input distribution.
        let mut total = 0.0;
        for (px, &lc) in p.iter_mut().zip(&log_c) {
            *px *= lc.exp();
            total += *px;
        }
        for px in &mut p {
            *px /= total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn validates_input() {
        assert!(channel_capacity(&[], 1e-9, 100).is_err());
        assert!(channel_capacity(&[vec![0.5, 0.4]], 1e-9, 100).is_err());
        // Asymmetric channel so the uniform start is not already optimal.
        assert!(matches!(
            channel_capacity(&[vec![1.0, 0.0], vec![0.4, 0.6]], 1e-15, 1),
            Err(InfoError::DidNotConverge { .. })
        ));
    }

    #[test]
    fn bad_tolerance_is_a_typed_error_not_a_burned_budget() {
        let kernel = vec![vec![0.9, 0.1], vec![0.2, 0.8]];
        // Previously a NaN tol silently spun `max_iters` iterations and
        // reported non-convergence; now it fails fast and typed.
        for bad in [f64::NAN, -1e-9, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    channel_capacity(&kernel, bad, 100_000),
                    Err(InfoError::InvalidParameter { name: "tol", .. })
                ),
                "tol={bad} should be rejected"
            );
        }
        assert!(matches!(
            channel_capacity(&kernel, 1e-9, 0),
            Err(InfoError::InvalidParameter {
                name: "max_iters",
                ..
            })
        ));
        // tol = 0 remains legal (the bracket may collapse exactly) and
        // +inf converges immediately.
        assert!(channel_capacity(&kernel, f64::INFINITY, 10).is_ok());
    }

    #[test]
    fn bsc_capacity_matches_shannon() {
        // BSC(f): C = ln2 − H(f), achieved by the uniform input.
        for &f in &[0.05, 0.11, 0.3] {
            let kernel = vec![vec![1.0 - f, f], vec![f, 1.0 - f]];
            let cap = channel_capacity(&kernel, 1e-10, 100_000).unwrap();
            let want = std::f64::consts::LN_2 - dplearn_numerics::special::binary_entropy(f);
            close(cap.nats, want, 1e-8);
            close(cap.input[0], 0.5, 1e-4);
            assert!(cap.bracket <= 1e-10);
        }
    }

    #[test]
    fn noiseless_and_useless_channels() {
        let noiseless = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let cap = channel_capacity(&noiseless, 1e-10, 10_000).unwrap();
        close(cap.nats, std::f64::consts::LN_2, 1e-9);
        let useless = vec![vec![0.5, 0.5], vec![0.5, 0.5]];
        let cap = channel_capacity(&useless, 1e-10, 10_000).unwrap();
        close(cap.nats, 0.0, 1e-9);
    }

    #[test]
    fn asymmetric_z_channel_capacity() {
        // Z-channel with crossover 0.5 from input 1:
        // known capacity ln(1 + (1−h(0.5)·...)) — use the closed form
        // C = ln(1 + e^{−H_b(q)/(1−q) ... }; simpler: compare against a
        // fine grid search over the input probability.
        let q = 0.5;
        let kernel = vec![vec![1.0, 0.0], vec![q, 1.0 - q]];
        let cap = channel_capacity(&kernel, 1e-10, 100_000).unwrap();
        let mut best = 0.0f64;
        for i in 1..10_000 {
            let p1 = i as f64 / 10_000.0;
            let c = DiscreteChannel::from_rows(vec![1.0 - p1, p1], kernel.clone()).unwrap();
            best = best.max(c.mutual_information());
        }
        close(cap.nats, best, 1e-6);
        // Capacity-achieving input for the Z(0.5) channel favours the
        // clean symbol.
        assert!(cap.input[0] > cap.input[1]);
    }

    #[test]
    fn capacity_dominates_any_fixed_prior_mi() {
        let kernel = vec![
            vec![0.7, 0.2, 0.1],
            vec![0.1, 0.6, 0.3],
            vec![0.25, 0.25, 0.5],
        ];
        let cap = channel_capacity(&kernel, 1e-10, 100_000).unwrap();
        for input in [
            vec![1.0 / 3.0; 3],
            vec![0.6, 0.3, 0.1],
            vec![0.05, 0.05, 0.9],
        ] {
            let c = DiscreteChannel::from_rows(input, kernel.clone()).unwrap();
            assert!(cap.nats >= c.mutual_information() - 1e-8);
        }
    }
}
