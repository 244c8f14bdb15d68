//! Cost of the theory layer: PAC-Bayes bound evaluation, Gibbs posterior
//! construction, exact channel building + mutual information, and
//! Blahut–Arimoto convergence.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dplearn::information::{learning_channel, DatasetSpace};
use dplearn::infotheory::blahut_arimoto::{blahut_arimoto, BaOptions};
use dplearn::learning::hypothesis::FiniteClass;
use dplearn::learning::loss::ZeroOne;
use dplearn::learning::synth::DiscreteWorld;
use dplearn::pacbayes::bounds::{catoni_bound, maurer_bound, mcallester_bound};
use dplearn::pacbayes::gibbs::gibbs_finite;
use dplearn::pacbayes::kl::kl_finite;
use dplearn::pacbayes::posterior::FinitePosterior;
use dplearn::telemetry::NoopRecorder;
use std::hint::black_box;

fn bench_bounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("pacbayes_bounds");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(50);
    group.bench_function("catoni", |b| {
        b.iter(|| black_box(catoni_bound(black_box(0.12), 1.7, 500, 22.0, 0.05).unwrap()))
    });
    group.bench_function("mcallester", |b| {
        b.iter(|| black_box(mcallester_bound(black_box(0.12), 1.7, 500, 0.05).unwrap()))
    });
    group.bench_function("maurer_kl_inverse", |b| {
        b.iter(|| black_box(maurer_bound(black_box(0.12), 1.7, 500, 0.05).unwrap()))
    });
    group.finish();
}

fn bench_gibbs_and_kl(c: &mut Criterion) {
    let mut group = c.benchmark_group("posterior_ops");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(30);
    for &k in &[64usize, 1024, 16_384] {
        let prior = FinitePosterior::uniform(k).unwrap();
        let risks: Vec<f64> = (0..k).map(|i| ((i as f64) * 0.13).sin().abs()).collect();
        group.bench_with_input(BenchmarkId::new("gibbs_finite", k), &k, |b, _| {
            b.iter(|| black_box(gibbs_finite(black_box(&prior), black_box(&risks), 30.0).unwrap()))
        });
        let post = gibbs_finite(&prior, &risks, 30.0).unwrap();
        group.bench_with_input(BenchmarkId::new("kl_finite", k), &k, |b, _| {
            b.iter(|| black_box(kl_finite(black_box(&post), black_box(&prior)).unwrap()))
        });
    }
    group.finish();
}

fn bench_channel(c: &mut Criterion) {
    let mut group = c.benchmark_group("information_channel");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(15);
    let world = DiscreteWorld::new(4, 0.1);
    for &n in &[2usize, 3] {
        let space = DatasetSpace::enumerate(&world, n).unwrap();
        let class = FiniteClass::threshold_grid(0.0, 4.0, 5);
        let prior = FinitePosterior::uniform(class.len()).unwrap();
        group.bench_with_input(BenchmarkId::new("build_channel_8^n", n), &n, |b, _| {
            b.iter(|| black_box(learning_channel(&space, &class, &ZeroOne, &prior, 3.0).unwrap()))
        });
        let lc = learning_channel(&space, &class, &ZeroOne, &prior, 3.0).unwrap();
        group.bench_with_input(BenchmarkId::new("exact_mi_8^n", n), &n, |b, _| {
            b.iter(|| black_box(lc.channel.mutual_information()))
        });
        group.bench_with_input(BenchmarkId::new("blahut_arimoto_8^n", n), &n, |b, _| {
            let opts = BaOptions::new(1e-10, 100_000);
            b.iter(|| {
                black_box(
                    blahut_arimoto(&space.probs, &lc.risks, 3.0, &opts, &NoopRecorder).unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bounds, bench_gibbs_and_kl, bench_channel);
criterion_main!(benches);
