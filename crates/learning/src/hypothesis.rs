//! Predictors and hypothesis classes.
//!
//! The paper's `Θ` is an arbitrary predictor space. The exactly-analyzable
//! experiments (E3–E7) use **finite** classes — grids of threshold
//! classifiers or linear models — because there the Gibbs posterior, the
//! PAC-Bayes bounds, and the mutual information can all be computed in
//! closed form. The practical experiments (E8) use linear models over ℝᵈ.

use crate::data::Dataset;
use crate::loss::{empirical_risk, Loss};

/// A (deterministic) predictor `θ : X → ℝ`.
///
/// Binary classifiers return a real score whose sign is the class;
/// regressors return the predicted response.
pub trait Predictor {
    /// Predict a real-valued score/response for input `x`.
    fn predict(&self, x: &[f64]) -> f64;
}

/// A linear model `x ↦ ⟨w, x⟩ + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    /// Weight vector.
    pub weights: Vec<f64>,
    /// Intercept.
    pub bias: f64,
}

impl LinearModel {
    /// Create a linear model.
    pub fn new(weights: Vec<f64>, bias: f64) -> Self {
        LinearModel { weights, bias }
    }

    /// The zero model of dimension `d`.
    pub fn zeros(d: usize) -> Self {
        LinearModel {
            weights: vec![0.0; d],
            bias: 0.0,
        }
    }

    /// ℓ2 norm of the weight vector (excluding bias).
    pub fn weight_norm(&self) -> f64 {
        dplearn_numerics::linalg::norm2(&self.weights)
    }
}

impl Predictor for LinearModel {
    fn predict(&self, x: &[f64]) -> f64 {
        dplearn_numerics::linalg::dot(&self.weights, x) + self.bias
    }
}

/// A one-dimensional threshold classifier: predicts `+1` on one side of
/// `threshold` and `−1` on the other.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdClassifier {
    /// Decision threshold.
    pub threshold: f64,
    /// If true, predicts `+1` for `x ≥ threshold`; otherwise `+1` for
    /// `x < threshold`.
    pub positive_above: bool,
}

impl ThresholdClassifier {
    /// Create a threshold classifier.
    pub fn new(threshold: f64, positive_above: bool) -> Self {
        ThresholdClassifier {
            threshold,
            positive_above,
        }
    }
}

impl Predictor for ThresholdClassifier {
    fn predict(&self, x: &[f64]) -> f64 {
        let above = x.first().copied().unwrap_or(f64::NAN) >= self.threshold;
        if above == self.positive_above {
            1.0
        } else {
            -1.0
        }
    }
}

/// A constant predictor (useful as a baseline and in tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantPredictor(pub f64);

impl Predictor for ConstantPredictor {
    fn predict(&self, _x: &[f64]) -> f64 {
        self.0
    }
}

/// A finite hypothesis class `Θ = {θ₁, …, θ_k}`.
///
/// This is the setting where everything in the paper can be computed
/// exactly: the Gibbs posterior is a k-vector, KL divergences are finite
/// sums, and the learning channel `Ẑ → θ` is a finite matrix.
#[derive(Debug, Clone)]
pub struct FiniteClass<P> {
    hypotheses: Vec<P>,
}

impl<P: Predictor> FiniteClass<P> {
    /// Create from a non-empty list of hypotheses.
    ///
    /// # Panics
    ///
    /// Panics on an empty list.
    pub fn new(hypotheses: Vec<P>) -> Self {
        assert!(!hypotheses.is_empty(), "hypothesis class must be non-empty");
        FiniteClass { hypotheses }
    }

    /// Number of hypotheses `|Θ|`.
    pub fn len(&self) -> usize {
        self.hypotheses.len()
    }

    /// Always false (the constructor rejects empty classes).
    pub fn is_empty(&self) -> bool {
        self.hypotheses.is_empty()
    }

    /// Borrow hypothesis `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range, mirroring slice indexing.
    #[allow(clippy::indexing_slicing)]
    pub fn get(&self, i: usize) -> &P {
        &self.hypotheses[i]
    }

    /// Borrow all hypotheses.
    pub fn hypotheses(&self) -> &[P] {
        &self.hypotheses
    }

    /// The empirical-risk vector `(R̂(θ₁), …, R̂(θ_k))` on a sample.
    ///
    /// This is the exponential-mechanism scoring loop — the hot path of
    /// every finite-class fit (`|Θ|·n` loss evaluations). Large classes
    /// are scored in parallel; each hypothesis's risk is an independent
    /// pure function written to its own slot, so the result is
    /// bit-identical to the serial loop at every thread count.
    pub fn risk_vector<L>(&self, loss: &L, data: &Dataset) -> Vec<f64>
    where
        P: Sync,
        L: Loss + Sync,
    {
        // Below ~64k loss evaluations the scoring loop is microseconds;
        // stay inline rather than paying thread-spawn overhead.
        if self.hypotheses.len().saturating_mul(data.len()) < (1 << 16) {
            return self
                .hypotheses
                .iter()
                .map(|h| empirical_risk(h, loss, data))
                .collect();
        }
        dplearn_parallel::par_map(&self.hypotheses, 0, |_, h| empirical_risk(h, loss, data))
    }
}

impl FiniteClass<ThresholdClassifier> {
    /// A grid of `k` threshold classifiers (positive above) with
    /// thresholds equally spaced on `[lo, hi]`.
    pub fn threshold_grid(lo: f64, hi: f64, k: usize) -> Self {
        assert!(k >= 1 && lo < hi, "need k ≥ 1 and lo < hi");
        let hyps = (0..k)
            .map(|i| {
                let t = if k == 1 {
                    0.5 * (lo + hi)
                } else {
                    lo + (hi - lo) * i as f64 / (k - 1) as f64
                };
                ThresholdClassifier::new(t, true)
            })
            .collect();
        FiniteClass::new(hyps)
    }
}

impl FiniteClass<LinearModel> {
    /// A grid of 2-D linear classifiers with unit-norm weights at `k`
    /// equally spaced angles (no bias) — a small but expressive finite
    /// class for 2-D experiments.
    pub fn direction_grid_2d(k: usize) -> Self {
        assert!(k >= 1, "need k ≥ 1");
        let hyps = (0..k)
            .map(|i| {
                let angle = 2.0 * std::f64::consts::PI * i as f64 / k as f64;
                LinearModel::new(vec![angle.cos(), angle.sin()], 0.0)
            })
            .collect();
        FiniteClass::new(hyps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Example;
    use crate::loss::ZeroOne;

    #[test]
    fn linear_model_predicts() {
        let m = LinearModel::new(vec![2.0, -1.0], 0.5);
        assert!((m.predict(&[1.0, 1.0]) - 1.5).abs() < 1e-12);
        assert!((LinearModel::zeros(3).predict(&[1.0, 2.0, 3.0])).abs() < 1e-12);
        assert!((m.weight_norm() - 5.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn threshold_classifier_directions() {
        let up = ThresholdClassifier::new(1.0, true);
        assert_eq!(up.predict(&[2.0]), 1.0);
        assert_eq!(up.predict(&[0.0]), -1.0);
        assert_eq!(up.predict(&[1.0]), 1.0); // boundary is "above"
        let down = ThresholdClassifier::new(1.0, false);
        assert_eq!(down.predict(&[2.0]), -1.0);
        assert_eq!(down.predict(&[0.0]), 1.0);
    }

    #[test]
    fn threshold_grid_spacing() {
        let grid = FiniteClass::threshold_grid(0.0, 1.0, 5);
        assert_eq!(grid.len(), 5);
        let ts: Vec<f64> = grid.hypotheses().iter().map(|h| h.threshold).collect();
        assert_eq!(ts, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn direction_grid_has_unit_norm() {
        let grid = FiniteClass::direction_grid_2d(8);
        for h in grid.hypotheses() {
            assert!((h.weight_norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn risk_vector_identifies_best_threshold() {
        // Perfectly separable at 1.5.
        let data: Dataset = vec![
            Example::scalar(0.0, -1.0),
            Example::scalar(1.0, -1.0),
            Example::scalar(2.0, 1.0),
            Example::scalar(3.0, 1.0),
        ]
        .into_iter()
        .collect();
        let grid = FiniteClass::threshold_grid(0.0, 3.0, 7); // 0, .5, 1, 1.5, 2, 2.5, 3
        let risks = grid.risk_vector(&ZeroOne, &data);
        let best = risks
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert_eq!(*best.1, 0.0);
        let t = grid.get(best.0).threshold;
        assert!(t > 1.0 && t <= 2.0, "best threshold {t}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_class_panics() {
        let _: FiniteClass<ThresholdClassifier> = FiniteClass::new(vec![]);
    }
}
