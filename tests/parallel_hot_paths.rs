//! The parallel layer's four hot paths at throughput scale: a 10⁶-trial
//! continuous audit (serial and pooled), four Metropolis–Hastings chains,
//! a 256-symbol Blahut–Arimoto solve and a 4096-hypothesis risk vector
//! over 2000 records. Each must succeed at whatever `DPLEARN_THREADS`
//! the suite runs with, and the pooled chains must be the serial runs of
//! the same jump streams.

use dplearn::infotheory::blahut_arimoto::{blahut_arimoto, BaOptions};
use dplearn::learning::hypothesis::FiniteClass;
use dplearn::learning::loss::ZeroOne;
use dplearn::learning::synth::{DataGenerator, NoisyThreshold};
use dplearn::mechanisms::audit::{audit_continuous, audit_continuous_par, AuditConfig};
use dplearn::mechanisms::laplace::LaplaceMechanism;
use dplearn::mechanisms::privacy::Epsilon;
use dplearn::numerics::rng::Xoshiro256;
use dplearn::pacbayes::gibbs::{MetropolisGibbs, MhConfig};
use dplearn::pacbayes::posterior::DiagGaussian;
use dplearn::telemetry::NoopRecorder;

#[test]
fn hot_paths_run_at_throughput_scale() {
    const TRIALS: u64 = 1_000_000;
    let lap = LaplaceMechanism::new(Epsilon::new(1.0).unwrap(), 1.0).unwrap();
    audit_continuous(
        |r| lap.release(0.0, r),
        |r| lap.release(1.0, r),
        -6.0,
        7.0,
        40,
        TRIALS,
        &mut Xoshiro256::seed_from(1),
    )
    .unwrap();
    audit_continuous_par(
        |r| lap.release(0.0, r),
        |r| lap.release(1.0, r),
        -6.0,
        7.0,
        40,
        &AuditConfig::new(TRIALS),
        1,
        &NoopRecorder,
    )
    .unwrap();

    let prior = DiagGaussian::isotropic(4, 1.0).unwrap();
    let emp_risk = |theta: &[f64]| theta.iter().map(|t| (t - 0.3).powi(2)).sum::<f64>();
    let cfg = MhConfig {
        burn_in: 2_000,
        n_samples: 2_000,
        thin: 2,
        initial_step: 0.4,
    };
    let mh = MetropolisGibbs::new(&prior, emp_risk, 4.0, cfg).unwrap();
    let (chains, _) = mh.sample_chains(4, 11, &NoopRecorder).unwrap();
    let serial: Vec<Vec<Vec<f64>>> = Xoshiro256::jump_streams(11, 4)
        .iter()
        .map(|s| mh.run(&mut s.clone()).0)
        .collect();
    assert_eq!(chains, serial, "pooled chains must be the serial runs");

    // A loose tolerance keeps the iteration count modest.
    let n = 256usize;
    let source: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
    let z: f64 = source.iter().sum();
    let source: Vec<f64> = source.iter().map(|v| v / z).collect();
    let distortion: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| (i as f64 - j as f64).abs() / n as f64)
                .collect()
        })
        .collect();
    let opts = BaOptions::new(1e-4, 20_000);
    blahut_arimoto(&source, &distortion, 2.0, &opts, &NoopRecorder).unwrap();

    let data = NoisyThreshold::new(0.4, 0.1).sample(2_000, &mut Xoshiro256::seed_from(3));
    let class = FiniteClass::threshold_grid(0.0, 1.0, 4_096);
    let risks = class.risk_vector(&ZeroOne, &data);
    assert_eq!(risks.len(), 4_096);
    assert!(risks.iter().all(|r| (0.0..=1.0).contains(r)));
}
