//! Serial vs parallel throughput for the four parallelized hot paths:
//! Monte-Carlo audits, multi-chain Gibbs sampling, Blahut–Arimoto, and
//! finite-class risk scoring.
//!
//! The parallel variants are bit-identical to the serial ones at every
//! worker count (see `tests/determinism.rs`), so these benchmarks measure
//! pure throughput. Worker count comes from `DPLEARN_THREADS` (default:
//! available parallelism); run with `DPLEARN_THREADS=1` and `=8` to
//! compare scaling on the same binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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
use std::hint::black_box;

/// Trial budget for the audit benches. The acceptance target for the
/// parallel layer is ≥3× on 10⁷ trials with 8 workers; the default here
/// is kept small enough for smoke runs, and `DPLEARN_BENCH_TRIALS` can
/// raise it to the full 10⁷ on capable hardware.
fn audit_trials() -> u64 {
    std::env::var("DPLEARN_BENCH_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

fn bench_audit(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_audit");
    group.measurement_time(std::time::Duration::from_secs(5));
    group.sample_size(10);
    let eps = Epsilon::new(1.0).unwrap();
    let lap = LaplaceMechanism::new(eps, 1.0).unwrap();
    let trials = audit_trials();

    group.bench_with_input(
        BenchmarkId::new("audit_continuous_serial", trials),
        &trials,
        |b, &trials| {
            let mut rng = Xoshiro256::seed_from(1);
            b.iter(|| {
                black_box(
                    audit_continuous(
                        |r| lap.release(0.0, r),
                        |r| lap.release(1.0, r),
                        -6.0,
                        7.0,
                        40,
                        trials,
                        &mut rng,
                    )
                    .unwrap(),
                )
            })
        },
    );

    let cfg = AuditConfig::new(trials);
    group.bench_with_input(
        BenchmarkId::new("audit_continuous_parallel", trials),
        &trials,
        |b, _| {
            b.iter(|| {
                black_box(
                    audit_continuous_par(
                        |r| lap.release(0.0, r),
                        |r| lap.release(1.0, r),
                        -6.0,
                        7.0,
                        40,
                        &cfg,
                        1,
                        &NoopRecorder,
                    )
                    .unwrap(),
                )
            })
        },
    );
    group.finish();
}

fn bench_chains(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_gibbs_chains");
    group.measurement_time(std::time::Duration::from_secs(5));
    group.sample_size(10);
    let prior = DiagGaussian::isotropic(4, 1.0).unwrap();
    let emp_risk = |theta: &[f64]| theta.iter().map(|t| (t - 0.3).powi(2)).sum::<f64>();
    let cfg = MhConfig {
        burn_in: 2_000,
        n_samples: 2_000,
        thin: 2,
        initial_step: 0.4,
    };
    let mh = MetropolisGibbs::new(&prior, emp_risk, 4.0, cfg).unwrap();

    group.bench_function("serial_4_chains", |b| {
        // Four chains run one after another from the same jump streams.
        b.iter(|| {
            let streams = Xoshiro256::jump_streams(11, 4);
            for s in &streams {
                black_box(mh.run(&mut s.clone()));
            }
        })
    });
    group.bench_function("parallel_4_chains", |b| {
        b.iter(|| black_box(mh.sample_chains(4, 11, &NoopRecorder).unwrap()))
    });
    group.finish();
}

fn bench_blahut_arimoto(c: &mut Criterion) {
    use dplearn::infotheory::blahut_arimoto::{blahut_arimoto, BaOptions};
    let mut group = c.benchmark_group("parallel_blahut_arimoto");
    group.measurement_time(std::time::Duration::from_secs(5));
    group.sample_size(10);
    // A 256×256 rate–distortion problem: large enough that the per-row
    // Gibbs updates dominate.
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
    group.bench_function(BenchmarkId::new("ba_256x256", "beta2"), |b| {
        // A loose tolerance keeps the iteration count modest: the bench
        // measures per-iteration throughput, not convergence depth.
        let opts = BaOptions::new(1e-4, 20_000);
        b.iter(|| {
            black_box(blahut_arimoto(&source, &distortion, 2.0, &opts, &NoopRecorder).unwrap())
        })
    });
    group.finish();
}

fn bench_risk_vector(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_risk_vector");
    group.measurement_time(std::time::Duration::from_secs(5));
    group.sample_size(10);
    let world = NoisyThreshold::new(0.4, 0.1);
    let mut rng = Xoshiro256::seed_from(3);
    let data = world.sample(2_000, &mut rng);
    let class = FiniteClass::threshold_grid(0.0, 1.0, 4_096);
    group.bench_function("risk_vector_4096x2000", |b| {
        b.iter(|| black_box(class.risk_vector(&ZeroOne, black_box(&data))))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_audit,
    bench_chains,
    bench_blahut_arimoto,
    bench_risk_vector
);
criterion_main!(benches);
