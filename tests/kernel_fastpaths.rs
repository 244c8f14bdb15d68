//! Distribution-equivalence pinning for the reordered-sum fast path.
//!
//! The workspace pinning contract has two tiers:
//!
//! 1. **Bit identity** — default code paths (`log_sum_exp`,
//!    `DiagGaussian::ln_pdf`, and `softmax_in_place`, whose four lanes
//!    are fixed by the slice length alone) run one arithmetic order at
//!    every `DPLEARN_THREADS` setting and are pinned bit-for-bit by the
//!    determinism suite; `softmax_in_place` is also pinned to an
//!    index-based lane replica in its unit tests.
//! 2. **Distribution equivalence** — the opt-in vectorized path
//!    (`DiagGaussian::ln_pdf_fast` via
//!    `MetropolisGibbs::with_fast_log_prior`) reorders a floating-point
//!    sum, so its outputs may differ from the default in the last
//!    ulps. It is pinned here by the
//!    `audit_discrete_par` empirical-ε harness: treating the default and
//!    fast paths as the two "neighboring" mechanisms, the estimated
//!    maximum log probability ratio between their output distributions
//!    must stay at sampling-noise level (ε̂ ≈ 0).
//!
//! `audit_discrete_par` itself is bit-identical at every thread count,
//! so these audits are stable regardless of `DPLEARN_THREADS`.

use dplearn_mechanisms::audit::{audit_discrete_par, AuditConfig};
use dplearn_numerics::rng::Xoshiro256;
use dplearn_pacbayes::gibbs::{MetropolisGibbs, MhConfig};
use dplearn_pacbayes::posterior::DiagGaussian;
use dplearn_telemetry::NoopRecorder;

/// MH with `with_fast_log_prior(true)` samples the same Gibbs posterior
/// as the bit-identical default: binned short-chain draws from the two
/// samplers are distribution-equivalent under `audit_discrete_par`.
#[test]
fn mh_fast_log_prior_is_distribution_equivalent_to_default() {
    let d = 3;
    let prior = DiagGaussian::isotropic(d, 1.0).unwrap();
    // A smooth, anisotropic empirical risk keeps the posterior
    // non-trivial without slowing the chain down.
    let risk = |theta: &[f64]| -> f64 {
        theta
            .iter()
            .enumerate()
            .map(|(i, &t)| (t - 0.3 * (i as f64 + 1.0)).powi(2))
            .sum::<f64>()
            / d as f64
    };
    let cfg = MhConfig {
        burn_in: 16,
        n_samples: 1,
        thin: 1,
        initial_step: 0.6,
    };
    let mh_default = MetropolisGibbs::new(&prior, risk, 4.0, cfg.clone()).unwrap();
    let mh_fast = MetropolisGibbs::new(&prior, risk, 4.0, cfg)
        .unwrap()
        .with_fast_log_prior(true);

    // Release: one short-chain draw, first coordinate binned over [-2, 2].
    const BINS: usize = 8;
    let bin = |mh: &MetropolisGibbs<'_, _>, rng: &mut Xoshiro256| -> usize {
        let (samples, _diag) = mh.run(rng);
        let x = samples[0][0];
        let t = ((x + 2.0) / 4.0).clamp(0.0, 1.0);
        ((t * BINS as f64) as usize).min(BINS - 1)
    };

    let cfg = AuditConfig::new(25_000).with_chunk_size(5_000);
    let res = audit_discrete_par(
        |rng: &mut Xoshiro256| bin(&mh_default, rng),
        |rng: &mut Xoshiro256| bin(&mh_fast, rng),
        BINS,
        &cfg,
        0x9B50_F457,
        &NoopRecorder,
    )
    .unwrap();
    assert!(
        res.empirical_epsilon <= 0.2,
        "fast log-prior MH drifted from the default sampler: ε̂ = {}",
        res.empirical_epsilon
    );
}
