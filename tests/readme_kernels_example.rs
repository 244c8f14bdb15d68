//! Compile-and-run check for the softmax-kernel example in README.md.
//! If this test breaks, update the README.

use dplearn::numerics::special::{log_sum_exp, softmax_in_place};

#[test]
fn readme_kernels_example_runs_as_written() {
    // Log weights in, probabilities out, the log normalizer returned.
    let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
    let mut probs = xs;
    let z = softmax_in_place(&mut probs);
    assert!((z - log_sum_exp(&xs)).abs() < 1e-12);
    for (p, x) in probs.iter().zip(&xs) {
        assert!((p - (x - z).exp()).abs() < 1e-12);
    }
    // Weights that cannot be normalized give a non-finite normalizer.
    assert!(!softmax_in_place(&mut [0.0, f64::NAN]).is_finite());
}
