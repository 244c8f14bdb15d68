//! Compile-and-run check for the vectorized-kernels example in README.md
//! ("Fast paths"). If this test breaks, update the README.

use dplearn::numerics::special::{log_sum_exp, log_sum_exp_fast};

#[test]
fn readme_kernels_example_runs_as_written() {
    // Default: the serial Kahan sum, bit-identical across runs, thread
    // counts, and machines. Fast: four uncompensated lanes — last-ulp
    // different, audit-pinned rather than bit-pinned. Choose it explicitly.
    let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
    assert!((log_sum_exp(&xs) - log_sum_exp_fast(&xs)).abs() < 1e-12);
}
