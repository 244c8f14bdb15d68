//! Fault-injection suite: drive every public mechanism, solver, and bound
//! with inputs corrupted by each [`FaultClass`], and with RNG streams
//! spliced with adversarial-extreme draws.
//!
//! The contract under test is uniform: library code either returns a
//! **typed error** or a **well-defined value** — it never panics and never
//! silently releases NaN where a distribution or finite value is promised.
//! There is deliberately no `catch_unwind` anywhere in this file: a panic
//! anywhere below fails the test process itself, which is the point.

use dplearn_robust::{FaultClass, FaultPlan};

use dplearn_infotheory::blahut_arimoto::{blahut_arimoto, BaOptions, BaTileOptions};
use dplearn_infotheory::InfoError;
use dplearn_learning::data::{Dataset, Example};
use dplearn_learning::erm::erm_finite;
use dplearn_learning::hypothesis::{FiniteClass, ThresholdClassifier};
use dplearn_learning::loss::Squared;
use dplearn_mechanisms::composition::PrivacyAccountant;
use dplearn_mechanisms::continuous_exponential::{ContinuousExponential, PiecewiseQuality};
use dplearn_mechanisms::exponential::ExponentialMechanism;
use dplearn_mechanisms::gaussian::GaussianMechanism;
use dplearn_mechanisms::geometric::GeometricMechanism;
use dplearn_mechanisms::histogram::{private_histogram, Adjacency};
use dplearn_mechanisms::laplace::LaplaceMechanism;
use dplearn_mechanisms::noisy_max::{report_noisy_max, NoisyMaxNoise};
use dplearn_mechanisms::permute_and_flip::PermuteAndFlip;
use dplearn_mechanisms::privacy::{Budget, Epsilon};
use dplearn_mechanisms::randomized_response::RandomizedResponse;
use dplearn_mechanisms::sparse_vector::AboveThreshold;
use dplearn_mechanisms::subsampling::amplified_epsilon;
use dplearn_numerics::distributions::Sample;
use dplearn_numerics::rng::Xoshiro256;
use dplearn_pacbayes::bounds::{catoni_bound, maurer_bound, mcallester_bound};
use dplearn_pacbayes::gibbs::{gibbs_finite, MetropolisGibbs, MhConfig, WatchdogConfig};
use dplearn_pacbayes::posterior::{DiagGaussian, FinitePosterior};
use dplearn_robust::RetryPolicy;
use dplearn_telemetry::NoopRecorder;

/// True for the fault classes whose injected values are non-finite — the
/// ones a validating constructor is *required* to reject.
fn nonfinite(class: FaultClass) -> bool {
    matches!(
        class,
        FaultClass::Nan | FaultClass::PosInf | FaultClass::NegInf
    )
}

/// A clean score vector with two entries corrupted by `class`.
fn corrupted_scores(class: FaultClass) -> Vec<f64> {
    let mut s = vec![0.4, 1.2, -0.3, 2.2, 0.9, -1.7];
    let hit = FaultPlan::new(class)
        .with_seed(9)
        .random(2)
        .corrupt_slice(&mut s);
    assert_eq!(hit.len(), 2, "plan must corrupt exactly two entries");
    s
}

/// Assert a probability vector is a genuine distribution.
fn assert_distribution(p: &[f64], what: &str) {
    let sum: f64 = p.iter().sum();
    assert!(
        p.iter().all(|x| x.is_finite() && *x >= 0.0) && (sum - 1.0).abs() < 1e-6,
        "{what}: expected a distribution, got {p:?} (sum {sum})"
    );
}

#[test]
fn noisy_max_under_all_fault_classes() {
    let mut rng = Xoshiro256::seed_from(1);
    let eps = Epsilon::new(1.0).unwrap();
    for class in FaultClass::ALL {
        let scores = corrupted_scores(class);
        for noise in [NoisyMaxNoise::Laplace, NoisyMaxNoise::Gumbel] {
            let r = report_noisy_max(&scores, eps, 1.0, noise, &mut rng);
            if nonfinite(class) {
                assert!(r.is_err(), "{class}/{noise:?}: non-finite scores must fail");
            } else {
                let i = r.unwrap_or_else(|e| panic!("{class}/{noise:?}: {e}"));
                assert!(i < scores.len());
            }
        }
    }
}

#[test]
fn exponential_mechanism_under_all_fault_classes() {
    let mut rng = Xoshiro256::seed_from(2);
    let eps = Epsilon::new(1.0).unwrap();
    for class in FaultClass::ALL {
        let scores = corrupted_scores(class);
        let mech = ExponentialMechanism::new(scores.len(), 1.0).unwrap();
        let t = mech.temperature_for(eps);
        match mech.sampling_distribution(&scores, t) {
            Ok(dist) => {
                assert!(
                    !nonfinite(class) || dist.probs().iter().all(|p| p.is_finite()),
                    "{class}: Ok result must not smuggle non-finite probabilities"
                );
                assert_distribution(dist.probs(), "exponential sampling distribution");
                let i = dist.sample(&mut rng);
                assert!(i < scores.len());
            }
            Err(_) => {
                // Typed rejection is the expected outcome for ±inf scores
                // (infinite or vanishing normalizer).
            }
        }
    }
}

#[test]
fn permute_and_flip_under_all_fault_classes() {
    let mut rng = Xoshiro256::seed_from(3);
    let eps = Epsilon::new(1.0).unwrap();
    let pf = PermuteAndFlip::new(1.0).unwrap();
    for class in FaultClass::ALL {
        let scores = corrupted_scores(class);
        if let Ok(i) = pf.select(&scores, eps, &mut rng) {
            assert!(i < scores.len(), "{class}: index in range");
        }
        let t = pf.temperature_for(eps);
        if let Ok(dist) = pf.exact_distribution(&scores, t) {
            assert_distribution(&dist, "permute-and-flip exact distribution");
        }
    }
}

#[test]
fn continuous_exponential_under_all_fault_classes() {
    let mut rng = Xoshiro256::seed_from(4);
    let eps = Epsilon::new(1.0).unwrap();
    let mech = ContinuousExponential::new(1.0).unwrap();
    for class in FaultClass::ALL {
        // Corrupted quality landscape: constructor must reject non-finite
        // breakpoints/scores rather than hand the sampler a poisoned grid.
        let mut breakpoints = vec![0.0, 0.25, 0.5, 0.75, 1.0];
        let mut scores = vec![-1.0, -0.5, -0.25, -2.0];
        FaultPlan::new(class)
            .with_seed(5)
            .random(1)
            .corrupt_slice(&mut breakpoints);
        FaultPlan::new(class)
            .with_seed(6)
            .random(1)
            .corrupt_slice(&mut scores);
        if nonfinite(class) {
            assert!(
                PiecewiseQuality::new(breakpoints.clone(), scores.clone()).is_err(),
                "{class}: corrupted quality landscape must be rejected"
            );
        }
        // Corrupted *data* is legal input to the median builder (NaN
        // measurements happen); the release must stay inside the domain.
        let mut data = vec![0.1, 0.4, 0.45, 0.6, 0.8, 0.2];
        FaultPlan::new(class)
            .with_seed(7)
            .random(2)
            .corrupt_slice(&mut data);
        if let Ok(q) = PiecewiseQuality::median(&data, 0.0, 1.0) {
            let u = mech
                .select(&q, eps, &mut rng)
                .unwrap_or_else(|e| panic!("{class}: sampling failed: {e}"));
            assert!((0.0..=1.0).contains(&u), "{class}: release {u} off-domain");
        }
    }
}

#[test]
fn histogram_under_all_fault_classes() {
    let mut rng = Xoshiro256::seed_from(8);
    let eps = Epsilon::new(1.0).unwrap();
    for class in FaultClass::ALL {
        // Corrupted observations: clamped into edge bins, never a panic,
        // and the released probabilities stay a distribution.
        let mut data = vec![0.1, 0.2, 0.5, 0.7, 0.9, 0.3, 0.6];
        FaultPlan::new(class)
            .with_seed(1)
            .random(2)
            .corrupt_slice(&mut data);
        let hist = private_histogram(&data, 0.0, 1.0, 4, eps, Adjacency::ReplaceOne, &mut rng)
            .unwrap_or_else(|e| panic!("{class}: histogram release failed: {e}"));
        assert_distribution(&hist.probabilities(), "private histogram");
        // Corrupted domain: must be a typed rejection for non-finite ends.
        let bad = class.value(0);
        if nonfinite(class) {
            assert!(
                private_histogram(&data, bad, 1.0, 4, eps, Adjacency::ReplaceOne, &mut rng)
                    .is_err(),
                "{class}: non-finite domain must be rejected"
            );
        }
    }
}

#[test]
fn scalar_mechanisms_under_corrupted_parameters() {
    for class in FaultClass::ALL {
        let bad = class.value(0);
        let eps = Epsilon::new(1.0).unwrap();
        // Non-finite (and non-positive) sensitivities must be rejected at
        // construction for every noise mechanism.
        if nonfinite(class) {
            assert!(LaplaceMechanism::new(eps, bad).is_err(), "laplace {class}");
            assert!(
                GaussianMechanism::new(Budget::new(0.5, 1e-6).unwrap(), bad).is_err(),
                "gaussian {class}"
            );
            assert!(Epsilon::new(bad).is_err(), "epsilon {class}");
            assert!(amplified_epsilon(eps, bad).is_err(), "subsampling {class}");
        }
        // Corrupted true values flow through infallible releases without
        // panicking (the noise is finite; the result mirrors the input).
        let mut rng = Xoshiro256::seed_from(10);
        let lap = LaplaceMechanism::new(eps, 1.0).unwrap();
        let _ = lap.release(bad, &mut rng);
        let gauss = GaussianMechanism::new(Budget::new(0.5, 1e-6).unwrap(), 1.0).unwrap();
        let _ = gauss.release(bad, &mut rng);
    }
}

#[test]
fn sampling_survives_adversarial_rng_streams() {
    // FaultyRng splices boundary words (0 and u64::MAX) into the stream —
    // the draws that break naive ln(u) / inverse-CDF samplers.
    let eps = Epsilon::new(1.0).unwrap();
    for stride in [2usize, 3, 5] {
        let plan = FaultPlan::new(FaultClass::ExtremeMagnitude).every(stride, 0);
        let mut rng = plan.wrap_rng(Xoshiro256::seed_from(11));

        let lap = LaplaceMechanism::new(eps, 1.0).unwrap();
        let geo = GeometricMechanism::new(eps, 1).unwrap();
        let rr = RandomizedResponse::new(eps, 4).unwrap();
        let mech = ExponentialMechanism::new(4, 1.0).unwrap();
        let scores = [0.0, 1.0, 2.0, 0.5];
        for _ in 0..200 {
            let v = lap.release(1.0, &mut rng);
            assert!(v.is_finite(), "laplace release must stay finite");
            let _ = geo.release(3, &mut rng);
            let k = rr.respond(2, &mut rng);
            assert!(k < 4, "randomized response out of range");
            let i = mech.select(&scores, eps, &mut rng).unwrap();
            assert!(i < 4, "exponential mechanism out of range");
        }
        assert!(rng.injected() > 0, "the adversarial stream never fired");

        // AboveThreshold built from a hostile stream still answers.
        let mut svt = AboveThreshold::new(eps, 1.0, 0.0, &mut rng).unwrap();
        let _ = svt.query(-5.0, &mut rng).unwrap();
    }
}

#[test]
fn retry_restarts_do_not_leak_pool_state() {
    // Retry wrappers drive many parallel sections back to back (one per
    // attempt). None of that may leak worker-pool state into the caller:
    // after a restart-heavy solve the calling thread must not be marked
    // as inside a pool section, and the pool must serve later parallel
    // calls with bit-identical results.
    dplearn_parallel::set_thread_count(4);
    let policy = RetryPolicy {
        max_attempts: 8,
        base_iters: 2,
        growth: 4.0,
        damping: 0.5,
    };
    let source = [0.2, 0.8];
    let distortion = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
    let opts = BaOptions {
        tol: 1e-13,
        retry: policy,
        tiles: BaTileOptions::default(),
    };
    let rd = blahut_arimoto(&source, &distortion, 5.0, &opts, &NoopRecorder)
        .expect("retry should converge");
    assert!(rd.attempts > 1, "premise: restarts must happen");
    assert!(
        !dplearn_parallel::in_pool_section(),
        "pool section flag leaked across retry restarts"
    );
    // The pool is still healthy: a fresh dispatch matches serial bits.
    let pooled = dplearn_parallel::par_map_indexed(100, 0, |i| ((i as f64) + 0.5).sqrt().to_bits());
    dplearn_parallel::set_thread_count(1);
    let serial = dplearn_parallel::par_map_indexed(100, 0, |i| ((i as f64) + 0.5).sqrt().to_bits());
    dplearn_parallel::set_thread_count(0);
    assert_eq!(pooled, serial);
}

#[test]
fn blahut_arimoto_under_all_fault_classes() {
    let policy = RetryPolicy {
        max_attempts: 2,
        base_iters: 300,
        growth: 2.0,
        damping: 0.5,
    };
    for class in FaultClass::ALL {
        // Corrupt the source distribution: anything that is no longer a
        // distribution must be a typed rejection.
        let mut source = vec![0.25, 0.25, 0.25, 0.25];
        FaultPlan::new(class)
            .with_seed(3)
            .random(1)
            .corrupt_slice(&mut source);
        let distortion = vec![
            vec![0.0, 1.0, 4.0],
            vec![1.0, 0.0, 1.0],
            vec![4.0, 1.0, 0.0],
            vec![2.0, 2.0, 2.0],
        ];
        let plain = BaOptions::new(1e-9, 500);
        assert!(
            blahut_arimoto(&source, &distortion, 1.0, &plain, &NoopRecorder).is_err(),
            "{class}: corrupted source must be rejected"
        );

        // Corrupt the distortion matrix: non-finite entries are rejected;
        // finite-but-hostile entries must solve or fail with a typed
        // DidNotConverge — never panic, never NaN output.
        let clean_source = vec![0.25, 0.25, 0.25, 0.25];
        let mut d = distortion.clone();
        FaultPlan::new(class)
            .with_seed(4)
            .random(2)
            .corrupt_matrix(&mut d);
        let retried = BaOptions {
            tol: 1e-9,
            retry: policy.clone(),
            tiles: BaTileOptions::default(),
        };
        let run = blahut_arimoto(&clean_source, &d, 1.0, &retried, &NoopRecorder);
        if nonfinite(class) {
            assert!(
                run.is_err(),
                "{class}: non-finite distortion must be rejected"
            );
        } else if let Ok(rd) = run {
            assert!(
                rd.rate.is_finite() && rd.distortion.is_finite(),
                "{class}: solver must not leak non-finite rate/distortion"
            );
            assert!(rd.attempts >= 1);
        }

        // Corrupted β.
        if nonfinite(class) {
            assert!(
                blahut_arimoto(
                    &clean_source,
                    &distortion,
                    class.value(0),
                    &plain,
                    &NoopRecorder
                )
                .is_err(),
                "{class}: non-finite beta must be rejected"
            );
        }

        // Corrupted tolerance, both signs: a NaN or negative one is a
        // typed rejection naming `tol`, not a budget burned to
        // DidNotConverge; any other must solve or fail typed.
        for k in 0..2 {
            let tol = class.value(k);
            let run = blahut_arimoto(
                &clean_source,
                &distortion,
                1.0,
                &BaOptions::new(tol, 500),
                &NoopRecorder,
            );
            if tol.is_nan() || tol < 0.0 {
                assert!(
                    matches!(run, Err(InfoError::InvalidParameter { name: "tol", .. })),
                    "{class}: tol {tol} must be rejected, got {run:?}"
                );
            } else if let Ok(rd) = run {
                assert!(
                    rd.rate.is_finite() && rd.distortion.is_finite(),
                    "{class}: tol {tol} leaked a non-finite rate/distortion"
                );
            }
        }
    }
}

#[test]
fn gibbs_posterior_under_all_fault_classes() {
    let prior = FinitePosterior::uniform(6).unwrap();
    for class in FaultClass::ALL {
        let risks = corrupted_scores(class);
        match gibbs_finite(&prior, &risks, 2.0) {
            Ok(post) => assert_distribution(post.probs(), "finite Gibbs posterior"),
            Err(_) => {
                // NaN risks and −inf risks (infinite weight) are typed
                // rejections via the log-normalizer check.
            }
        }
    }
}

#[test]
fn metropolis_gibbs_watchdog_survives_faulty_risk_functions() {
    // An empirical-risk oracle that emits a hostile value every 7th call —
    // the MH sampler and its watchdog must run to completion, returning
    // degraded-or-converged diagnostics, without panicking.
    use std::sync::atomic::{AtomicUsize, Ordering};
    for class in FaultClass::ALL {
        let calls = AtomicUsize::new(0);
        let faulty_risk = |theta: &[f64]| {
            let k = calls.fetch_add(1, Ordering::Relaxed);
            if k % 7 == 6 {
                class.value(k)
            } else {
                theta.iter().map(|t| t * t).sum::<f64>().min(1.0)
            }
        };
        let prior = DiagGaussian::isotropic(2, 1.0).unwrap();
        let cfg = MhConfig {
            burn_in: 40,
            n_samples: 40,
            thin: 1,
            initial_step: 0.5,
        };
        let mh = MetropolisGibbs::new(&prior, faulty_risk, 4.0, cfg).unwrap();
        let wd = WatchdogConfig {
            rhat_threshold: 1.5,
            max_attempts: 2,
            step_widen: 2.0,
        };
        let (chains, diag, report) = mh
            .sample_chains_watched(3, 13, &wd, &NoopRecorder)
            .unwrap_or_else(|e| panic!("{class}: watchdog errored: {e}"));
        assert_eq!(chains.len(), 3);
        assert!(report.attempts >= 1 && report.attempts <= 2);
        assert!(
            diag.pooled_acceptance >= 0.0 && diag.pooled_acceptance <= 1.0,
            "{class}: acceptance rate {p} out of range",
            p = diag.pooled_acceptance
        );
        for chain in &chains {
            for sample in chain {
                assert!(
                    sample.iter().all(|x| x.is_finite()),
                    "{class}: a retained sample is non-finite — the MH accept \
                     step must reject hostile proposals"
                );
            }
        }
    }
}

#[test]
fn pacbayes_bounds_under_all_fault_classes() {
    for class in FaultClass::ALL {
        let bad = class.value(0);
        if nonfinite(class) {
            // A corrupted risk is never in [0,1]: every bound rejects it.
            assert!(catoni_bound(bad, 1.0, 100, 2.0, 0.05).is_err(), "{class}");
            assert!(mcallester_bound(bad, 1.0, 100, 0.05).is_err(), "{class}");
            assert!(maurer_bound(bad, 1.0, 100, 0.05).is_err(), "{class}");
            // NaN / negative KL is a typed rejection; +inf KL is a legal
            // (vacuous) complexity and must clamp to the trivial bound.
            if bad.is_nan() || bad < 0.0 {
                assert!(mcallester_bound(0.1, bad, 100, 0.05).is_err(), "{class}");
                assert!(maurer_bound(0.1, bad, 100, 0.05).is_err(), "{class}");
            }
        }
        // Whatever the inputs, an Ok bound must be a probability.
        for kl in [0.0, 1.0, f64::MAX, f64::INFINITY] {
            for b in [
                catoni_bound(0.1, kl, 100, 2.0, 0.05),
                mcallester_bound(0.1, kl, 100, 0.05),
                maurer_bound(0.1, kl, 100, 0.05),
            ]
            .into_iter()
            .flatten()
            {
                assert!((0.0..=1.0).contains(&b), "{class}: bound {b} not in [0,1]");
            }
        }
    }
}

#[test]
fn erm_under_all_fault_classes() {
    for class in FaultClass::ALL {
        // Corrupt the labels of a tiny threshold-learning problem.
        let mut ys: Vec<f64> = vec![-1.0, -1.0, 1.0, 1.0, 1.0, -1.0];
        FaultPlan::new(class)
            .with_seed(2)
            .random(2)
            .corrupt_slice(&mut ys);
        let examples: Vec<Example> = ys
            .iter()
            .enumerate()
            .map(|(i, &y)| Example::new(vec![i as f64 / 6.0], y))
            .collect();
        match Dataset::new(examples) {
            Err(_) => assert!(
                nonfinite(class),
                "{class}: finite labels must not be rejected at dataset construction"
            ),
            Ok(data) => {
                let class_h = FiniteClass::new(
                    (0..5)
                        .map(|i| ThresholdClassifier::new(i as f64 / 5.0, true))
                        .collect(),
                );
                let fit = erm_finite(&class_h, &Squared, &data)
                    .unwrap_or_else(|e| panic!("{class}: ERM on a valid dataset failed: {e}"));
                // ±MAX labels legitimately overflow the Squared risk to
                // +inf — unbounded loss — but NaN must never surface.
                assert!(
                    !fit.best_risk.is_nan(),
                    "{class}: ERM must not report a NaN best risk"
                );
            }
        }
    }
}

#[test]
fn accountant_under_all_fault_classes() {
    for class in FaultClass::ALL {
        let bad = class.value(0);
        let mut acc = PrivacyAccountant::new(Budget::new(1.0, 1e-6).unwrap());
        let charge = Budget {
            epsilon: bad,
            delta: 0.0,
        };
        let r = acc.spend(charge);
        if nonfinite(class) {
            assert!(r.is_err(), "{class}: malformed charge must fail closed");
            assert_eq!(acc.operations(), 0);
        }
        // Subnormal and ±MAX are finite: either accepted (subnormal) or
        // over budget (±MAX) — both total, neither panics.
    }
}
