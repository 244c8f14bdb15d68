//! Discrete memoryless channels — the executable form of the paper's
//! Figure 1.
//!
//! A [`DiscreteChannel`] is an input distribution `p(x)` plus a transition
//! kernel `p(y|x)`. For the paper's learning channel, `x` ranges over
//! possible samples `Ẑ` and `y` over hypotheses `θ`, and the kernel row
//! for `Ẑ` is the Gibbs posterior `π̂_Ẑ` — the core crate builds exactly
//! that and hands it here for the information-theoretic measurements.
//!
//! The kernel is stored as one flat row-major buffer: row `x` occupies
//! `kernel[x·ny .. (x+1)·ny]`. This module holds the struct, its
//! constructors and accessors, the joint, the entropies, and the
//! tile-free form of every channel quantity. Each tile-free method runs
//! the one kernel for its quantity in [`crate::flat`], whose `_blocked`
//! forms take the tile explicitly; every kernel is bit-identical at any
//! tile, so the fixed tile here only sets how the work is split.

use crate::entropy::entropy;
use crate::{validate_distribution, InfoError, Result};

/// Tile of the tile-free methods: 256 doubles (2 KiB) per column stripe
/// or 256 rows per task.
pub(crate) const TILE: usize = 256;

/// A discrete memoryless channel: input distribution and row-stochastic
/// transition kernel, stored flat and row-major.
///
/// Construction validates the input distribution, the buffer shape and
/// each kernel row, so every kernel may assume a row-stochastic kernel
/// and a normalized input distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteChannel {
    input: Vec<f64>,
    kernel: Vec<f64>,
    ny: usize,
}

impl DiscreteChannel {
    /// Build a channel from an input distribution and a flat row-major
    /// kernel with row stride `ny`. Validates the input distribution, the
    /// buffer shape, and each kernel row; the buffer is kept, not copied.
    pub fn new(input: Vec<f64>, kernel: Vec<f64>, ny: usize) -> Result<Self> {
        validate_distribution("channel input", &input)?;
        if ny == 0 {
            return Err(InfoError::InvalidParameter {
                name: "ny",
                reason: "output alphabet must be non-empty".to_string(),
            });
        }
        if kernel.len() != input.len() * ny {
            return Err(InfoError::InvalidParameter {
                name: "kernel",
                reason: format!(
                    "expected {} cells ({} rows × {ny}), got {}",
                    input.len() * ny,
                    input.len(),
                    kernel.len()
                ),
            });
        }
        for (x, row) in kernel.chunks(ny).enumerate() {
            validate_distribution("kernel row", row).map_err(|_| InfoError::NotADistribution {
                what: "kernel row",
                detail: format!("row {x} is not a probability distribution"),
            })?;
        }
        Ok(DiscreteChannel { input, kernel, ny })
    }

    /// Build a channel from one `Vec` per kernel row: checks that the
    /// rows share one width, then flattens them into [`DiscreteChannel::new`].
    pub fn from_rows(input: Vec<f64>, rows: Vec<Vec<f64>>) -> Result<Self> {
        let ny = rows.first().map_or(0, Vec::len);
        if let Some((x, row)) = rows.iter().enumerate().find(|(_, row)| row.len() != ny) {
            return Err(InfoError::InvalidParameter {
                name: "kernel",
                reason: format!("row {x} has length {}, expected {ny}", row.len()),
            });
        }
        Self::new(input, rows.concat(), ny)
    }

    /// Number of channel inputs.
    pub fn n_inputs(&self) -> usize {
        self.input.len()
    }

    /// Number of channel outputs (the row stride).
    pub fn n_outputs(&self) -> usize {
        self.ny
    }

    /// Input distribution `p(x)`.
    pub fn input(&self) -> &[f64] {
        &self.input
    }

    /// The flat row-major kernel buffer.
    pub fn kernel_flat(&self) -> &[f64] {
        &self.kernel
    }

    /// Kernel row `p(·|x)`, or `None` past the input alphabet.
    pub fn row(&self, x: usize) -> Option<&[f64]> {
        let start = x.checked_mul(self.ny)?;
        self.kernel.get(start..start.checked_add(self.ny)?)
    }

    /// Kernel rows `p(·|x)` in input order.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        // `ny ≥ 1`: `new` rejects an empty output alphabet.
        self.kernel.chunks_exact(self.ny)
    }

    /// Joint distribution `p(x, y) = p(x)·p(y|x)` as rows over `x`.
    pub fn joint(&self) -> Vec<Vec<f64>> {
        self.input
            .iter()
            .zip(self.rows())
            .map(|(&px, row)| row.iter().map(|&pyx| px * pyx).collect())
            .collect()
    }

    /// Input entropy `H(X)` in nats.
    pub fn input_entropy(&self) -> f64 {
        // `input` was validated at construction; NaN marks the
        // impossible failure branch instead of panicking.
        entropy(&self.input).unwrap_or(f64::NAN)
    }

    /// Output entropy `H(Y)` in nats.
    pub fn output_entropy(&self) -> f64 {
        entropy(&self.output_marginal()).unwrap_or(f64::NAN)
    }

    // The tile-free methods below pass a positive tile, so their kernels
    // cannot fail; the fallback values mark that impossible branch.

    /// Output marginal `p(y) = Σ_x p(x)·p(y|x)`: the kernel of
    /// [`output_marginal_blocked`](Self::output_marginal_blocked).
    pub fn output_marginal(&self) -> Vec<f64> {
        self.output_marginal_blocked(TILE).unwrap_or_default()
    }

    /// Mutual information `I(X;Y) = Σ_{x,y} p(x,y) ln(p(y|x)/p(y))` in
    /// nats — for the learning channel this is exactly the paper's
    /// `I(Ẑ; θ)`. The kernel of
    /// [`mutual_information_blocked`](Self::mutual_information_blocked).
    pub fn mutual_information(&self) -> f64 {
        self.mutual_information_blocked(TILE).unwrap_or(f64::NAN)
    }

    /// The worst-case log-ratio between any two kernel rows — for a
    /// learning channel whose inputs are *neighboring* datasets this is
    /// the exact differential-privacy level of the mechanism restricted
    /// to those inputs. The kernel of
    /// [`max_row_log_ratio_blocked`](Self::max_row_log_ratio_blocked).
    pub fn max_row_log_ratio(&self) -> f64 {
        self.max_row_log_ratio_blocked(TILE).unwrap_or(f64::NAN)
    }

    /// Posterior vulnerability `V(X|Y) = Σ_y max_x p(x)·p(y|x)`: the
    /// one-guess adversary's success after seeing the output (Alvim et
    /// al., refs [1, 2] of the paper). The kernel of
    /// [`posterior_vulnerability_blocked`](Self::posterior_vulnerability_blocked).
    pub fn posterior_vulnerability(&self) -> f64 {
        self.posterior_vulnerability_blocked(TILE)
            .unwrap_or(f64::NAN)
    }

    /// Min-entropy leakage in bits,
    /// `L = log₂ V(X|Y) − log₂ V(X) = log₂ (multiplicative Bayes leakage)`.
    /// Alvim et al. proved that an ε-DP channel over neighbor-connected
    /// inputs has bounded min-entropy leakage; the experiments use it to
    /// show the Gibbs learning channel's leakage shrinking with ε. The
    /// kernel of
    /// [`min_entropy_leakage_bits_blocked`](Self::min_entropy_leakage_bits_blocked).
    pub fn min_entropy_leakage_bits(&self) -> f64 {
        self.min_entropy_leakage_bits_blocked(TILE)
            .unwrap_or(f64::NAN)
    }

    /// Multiplicative Bayes leakage `V(X|Y)/V(X)` (≥ 1, = 1 iff the
    /// channel is useless to a one-guess adversary). The kernel of
    /// [`multiplicative_bayes_leakage_blocked`](Self::multiplicative_bayes_leakage_blocked).
    pub fn multiplicative_bayes_leakage(&self) -> f64 {
        self.multiplicative_bayes_leakage_blocked(TILE)
            .unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn construction_validates() {
        assert!(DiscreteChannel::from_rows(vec![0.5, 0.5], vec![vec![1.0, 0.0]]).is_err());
        assert!(DiscreteChannel::from_rows(vec![0.5, 0.4], vec![vec![1.0], vec![1.0]]).is_err());
        assert!(
            DiscreteChannel::from_rows(vec![0.5, 0.5], vec![vec![0.6, 0.4], vec![0.9, 0.2]])
                .is_err()
        );
        assert!(
            DiscreteChannel::from_rows(vec![0.5, 0.5], vec![vec![0.6, 0.4], vec![0.3, 0.7]])
                .is_ok()
        );
    }

    /// A bad input: what is wrong, the input distribution, the kernel as
    /// rows, and the same kernel as the flat buffer and stride `new` gets.
    type BadCase = (&'static str, Vec<f64>, Vec<Vec<f64>>, Vec<f64>, usize);

    #[test]
    fn new_and_from_rows_reject_the_same_bad_inputs() {
        let cases: [BadCase; 5] = [
            (
                "ragged rows",
                vec![0.5, 0.5],
                vec![vec![0.5, 0.5], vec![1.0]],
                vec![0.5, 0.5, 1.0],
                2,
            ),
            ("empty width", vec![1.0], vec![vec![]], vec![], 0),
            (
                "non-stochastic row",
                vec![0.5, 0.5],
                vec![vec![0.5, 0.5], vec![0.9, 0.2]],
                vec![0.5, 0.5, 0.9, 0.2],
                2,
            ),
            (
                "bad input distribution",
                vec![0.5, 0.6],
                vec![vec![0.5, 0.5], vec![0.5, 0.5]],
                vec![0.5; 4],
                2,
            ),
            (
                "wrong buffer length",
                vec![0.5, 0.5],
                vec![vec![0.5, 0.5]],
                vec![0.5, 0.5],
                2,
            ),
        ];
        for (what, input, rows, flat, ny) in cases {
            let by_rows = DiscreteChannel::from_rows(input.clone(), rows).unwrap_err();
            let by_new = DiscreteChannel::new(input, flat, ny).unwrap_err();
            assert_eq!(
                std::mem::discriminant(&by_rows),
                std::mem::discriminant(&by_new),
                "{what}: {by_rows} vs {by_new}"
            );
        }
    }

    #[test]
    fn from_rows_keeps_the_shape_and_every_row() {
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|x| {
                let raw: Vec<f64> = (0..9).map(|y| 1.0 + ((x * 5 + y) % 7) as f64).collect();
                let z: f64 = raw.iter().sum();
                raw.iter().map(|v| v / z).collect()
            })
            .collect();
        let c = DiscreteChannel::from_rows(vec![1.0 / 6.0; 6], rows.clone()).unwrap();
        assert_eq!(c.n_inputs(), 6);
        assert_eq!(c.n_outputs(), 9);
        assert_eq!(c.row(2).unwrap(), rows[2].as_slice());
        assert!(c.row(6).is_none());
        assert!(c.rows().eq(rows.iter().map(Vec::as_slice)));
        assert_eq!(c.kernel_flat(), rows.concat().as_slice());
    }

    #[test]
    fn row_past_the_input_alphabet_is_none_without_overflow() {
        for ny in [1usize, 2, 4] {
            let nx = 3;
            let c = DiscreteChannel::new(
                vec![1.0 / nx as f64; nx],
                vec![1.0 / ny as f64; nx * ny],
                ny,
            )
            .unwrap();
            assert!(c.row(nx - 1).is_some());
            for x in [nx, 1 << 63, usize::MAX] {
                assert!(c.row(x).is_none(), "ny={ny} x={x}");
            }
        }
    }

    #[test]
    fn noiseless_channel_mi_is_input_entropy() {
        let c = DiscreteChannel::from_rows(vec![0.25, 0.75], vec![vec![1.0, 0.0], vec![0.0, 1.0]])
            .unwrap();
        close(c.mutual_information(), c.input_entropy(), 1e-12);
        assert_eq!(c.max_row_log_ratio(), f64::INFINITY);
    }

    #[test]
    fn useless_channel_mi_is_zero() {
        let c = DiscreteChannel::from_rows(vec![0.3, 0.7], vec![vec![0.5, 0.5], vec![0.5, 0.5]])
            .unwrap();
        close(c.mutual_information(), 0.0, 1e-15);
        close(c.max_row_log_ratio(), 0.0, 1e-15);
    }

    #[test]
    fn binary_symmetric_channel_known_mi() {
        // BSC with crossover 0.1, uniform input: I = ln2 − H(0.1).
        let f = 0.1;
        let c =
            DiscreteChannel::from_rows(vec![0.5, 0.5], vec![vec![1.0 - f, f], vec![f, 1.0 - f]])
                .unwrap();
        let want = std::f64::consts::LN_2 - dplearn_numerics::special::binary_entropy(f);
        close(c.mutual_information(), want, 1e-12);
    }

    #[test]
    fn joint_and_marginal_consistency() {
        let c = DiscreteChannel::from_rows(vec![0.4, 0.6], vec![vec![0.9, 0.1], vec![0.2, 0.8]])
            .unwrap();
        let joint = c.joint();
        let total: f64 = joint.iter().flatten().sum();
        close(total, 1.0, 1e-12);
        let marg = c.output_marginal();
        close(marg[0], 0.4 * 0.9 + 0.6 * 0.2, 1e-12);
        close(marg[1], 0.4 * 0.1 + 0.6 * 0.8, 1e-12);
    }

    #[test]
    fn mi_bounded_by_entropies() {
        let c = DiscreteChannel::from_rows(
            vec![0.2, 0.3, 0.5],
            vec![
                vec![0.7, 0.2, 0.1],
                vec![0.1, 0.8, 0.1],
                vec![0.25, 0.25, 0.5],
            ],
        )
        .unwrap();
        let mi = c.mutual_information();
        assert!(mi >= 0.0);
        assert!(mi <= c.input_entropy() + 1e-12);
        assert!(mi <= c.output_entropy() + 1e-12);
    }

    #[test]
    fn row_log_ratio_detects_privacy_level() {
        // Rows within a factor e^0.5 of each other.
        let a = 0.5f64;
        let p0 = (a.exp()) / (a.exp() + 1.0);
        let c = DiscreteChannel::from_rows(
            vec![0.5, 0.5],
            vec![vec![p0, 1.0 - p0], vec![1.0 - p0, p0]],
        )
        .unwrap();
        // log ratio between p0 and 1−p0 is exactly a = 0.5.
        close(c.max_row_log_ratio(), 0.5, 1e-12);
    }

    #[test]
    fn useless_channel_leaks_nothing() {
        let c = DiscreteChannel::from_rows(vec![0.5, 0.5], vec![vec![0.5, 0.5], vec![0.5, 0.5]])
            .unwrap();
        close(c.min_entropy_leakage_bits(), 0.0, 1e-12);
        close(c.multiplicative_bayes_leakage(), 1.0, 1e-12);
    }

    #[test]
    fn perfect_channel_leaks_everything() {
        // Uniform input on k symbols, identity channel: leakage = log2 k.
        let k = 4;
        let kernel: Vec<Vec<f64>> = (0..k)
            .map(|i| (0..k).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
            .collect();
        let c = DiscreteChannel::from_rows(vec![1.0 / k as f64; k], kernel).unwrap();
        close(c.min_entropy_leakage_bits(), 2.0, 1e-12);
    }

    #[test]
    fn leakage_monotone_in_channel_noise() {
        // Binary symmetric channels with decreasing crossover leak more.
        let mut prev = -1.0;
        for &f in &[0.5, 0.3, 0.1, 0.01] {
            let c = DiscreteChannel::from_rows(
                vec![0.5, 0.5],
                vec![vec![1.0 - f, f], vec![f, 1.0 - f]],
            )
            .unwrap();
            let l = c.min_entropy_leakage_bits();
            assert!(l >= prev, "leakage {l} not increasing (prev {prev})");
            prev = l;
        }
        close(prev, 1.98f64.log2(), 1e-9); // V(X|Y) = 0.99 at f = 0.01
    }

    #[test]
    fn leakage_bounded_by_dp_level() {
        // A channel whose rows are within e^ε has multiplicative leakage
        // ≤ e^ε (Alvim et al.). Check on a concrete ε = 0.5 channel.
        let eps = 0.5f64;
        let p = eps.exp() / (eps.exp() + 1.0);
        let c =
            DiscreteChannel::from_rows(vec![0.5, 0.5], vec![vec![p, 1.0 - p], vec![1.0 - p, p]])
                .unwrap();
        assert!(c.multiplicative_bayes_leakage() <= eps.exp() + 1e-12);
    }
}
