//! Reproducibility: every pipeline in the workspace is a pure function of
//! its seed. These tests re-run full flows twice and demand bit-identical
//! results — the property EXPERIMENTS.md relies on.

use dplearn::learner::GibbsLearner;
use dplearn::learning::hypothesis::FiniteClass;
use dplearn::learning::loss::ZeroOne;
use dplearn::learning::synth::{DataGenerator, GaussianClasses, NoisyThreshold};
use dplearn::numerics::rng::Xoshiro256;

fn gibbs_pipeline(seed: u64) -> (Vec<f64>, usize) {
    let world = NoisyThreshold::new(0.35, 0.05);
    let mut rng = Xoshiro256::seed_from(seed);
    let data = world.sample(200, &mut rng);
    let class = FiniteClass::threshold_grid(0.0, 1.0, 21);
    let fitted = GibbsLearner::new(ZeroOne)
        .with_target_epsilon(1.0)
        .fit(&class, &data)
        .unwrap();
    let draw = fitted.sample_index(&mut rng);
    (fitted.posterior.probs().to_vec(), draw)
}

#[test]
fn gibbs_pipeline_is_bit_reproducible() {
    let (p1, d1) = gibbs_pipeline(77);
    let (p2, d2) = gibbs_pipeline(77);
    assert_eq!(p1, p2);
    assert_eq!(d1, d2);
    let (p3, d3) = gibbs_pipeline(78);
    assert!(p1 != p3 || d1 != d3, "different seeds should differ");
}

#[test]
fn mcmc_pipeline_is_bit_reproducible() {
    use dplearn::pacbayes::gibbs::MhConfig;
    use dplearn::pacbayes::posterior::DiagGaussian;
    let run = |seed: u64| {
        let gen = GaussianClasses::new(vec![1.0], 0.8);
        let mut rng = Xoshiro256::seed_from(seed);
        let data = gen.sample(100, &mut rng);
        let prior = DiagGaussian::isotropic(1, 2.0).unwrap();
        let mh = MhConfig {
            burn_in: 500,
            n_samples: 200,
            thin: 2,
            initial_step: 0.3,
        };
        let fitted = GibbsLearner::new(ZeroOne)
            .with_target_epsilon(2.0)
            .fit_linear_mcmc(&prior, &data, mh, &mut rng)
            .unwrap();
        fitted
            .models
            .iter()
            .map(|m| m.weights[0])
            .collect::<Vec<f64>>()
    };
    assert_eq!(run(5), run(5));
}

#[test]
fn mechanism_audits_are_bit_reproducible() {
    use dplearn::mechanisms::audit::audit_continuous;
    use dplearn::mechanisms::laplace::LaplaceMechanism;
    use dplearn::mechanisms::privacy::Epsilon;
    let run = |seed: u64| {
        let m = LaplaceMechanism::new(Epsilon::new(1.0).unwrap(), 1.0).unwrap();
        let mut rng = Xoshiro256::seed_from(seed);
        audit_continuous(
            |r| m.release(0.0, r),
            |r| m.release(1.0, r),
            -6.0,
            7.0,
            30,
            30_000,
            &mut rng,
        )
        .unwrap()
        .empirical_epsilon
    };
    assert_eq!(run(9).to_bits(), run(9).to_bits());
}

// ---------------------------------------------------------------------
// Thread-count invariance
//
// The parallel execution layer (dplearn-parallel) promises that every
// parallelized pipeline is a pure function of its seed *and nothing
// else* — in particular, not of the worker count. These tests run each
// parallel hot path at 1, 2, and 8 workers and demand bit-identical
// outputs. The worker-count override is process-global, so the tests
// serialize on a shared lock.
// ---------------------------------------------------------------------

fn thread_override_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `body` at 1, 2, and 8 workers, assert all results are equal, and
/// return the 1-worker baseline (so callers can pin it against an
/// external reference too).
fn assert_thread_count_invariant<T: PartialEq + std::fmt::Debug>(body: impl Fn() -> T) -> T {
    let _guard = thread_override_lock();
    dplearn_parallel::set_thread_count(1);
    let baseline = body();
    for threads in [2, 8] {
        dplearn_parallel::set_thread_count(threads);
        assert_eq!(body(), baseline, "diverged at {threads} workers");
    }
    dplearn_parallel::set_thread_count(0);
    baseline
}

#[test]
fn parallel_continuous_audit_is_thread_count_invariant() {
    use dplearn::mechanisms::audit::{audit_continuous_par, AuditConfig};
    use dplearn::mechanisms::laplace::LaplaceMechanism;
    use dplearn::mechanisms::privacy::Epsilon;
    use dplearn::telemetry::NoopRecorder;
    let m = LaplaceMechanism::new(Epsilon::new(1.0).unwrap(), 1.0).unwrap();
    // Small chunks force many chunks, exercising the ordered merge.
    let cfg = AuditConfig::new(50_000).with_chunk_size(1 << 12);
    assert_thread_count_invariant(|| {
        audit_continuous_par(
            |r| m.release(0.0, r),
            |r| m.release(1.0, r),
            -6.0,
            7.0,
            30,
            &cfg,
            99,
            &NoopRecorder,
        )
        .unwrap()
        .empirical_epsilon
        .to_bits()
    });
}

#[test]
fn parallel_discrete_audit_is_thread_count_invariant() {
    use dplearn::mechanisms::audit::{audit_discrete_par, AuditConfig};
    use dplearn::mechanisms::privacy::Epsilon;
    use dplearn::mechanisms::randomized_response::RandomizedResponse;
    use dplearn::telemetry::NoopRecorder;
    let rr = RandomizedResponse::new(Epsilon::new(0.8).unwrap(), 2).unwrap();
    let cfg = AuditConfig::new(40_000).with_chunk_size(1 << 12);
    assert_thread_count_invariant(|| {
        audit_discrete_par(
            |r| rr.respond(0, r),
            |r| rr.respond(1, r),
            2,
            &cfg,
            7,
            &NoopRecorder,
        )
        .unwrap()
        .empirical_epsilon
        .to_bits()
    });
}

#[test]
fn multi_chain_gibbs_is_thread_count_invariant() {
    use dplearn::pacbayes::gibbs::{MetropolisGibbs, MhConfig};
    use dplearn::pacbayes::posterior::DiagGaussian;
    use dplearn::telemetry::NoopRecorder;
    let prior = DiagGaussian::isotropic(2, 1.0).unwrap();
    let emp_risk = |theta: &[f64]| theta.iter().map(|t| (t - 0.4).powi(2)).sum::<f64>();
    let cfg = MhConfig {
        burn_in: 200,
        n_samples: 100,
        thin: 2,
        initial_step: 0.4,
    };
    let mh = MetropolisGibbs::new(&prior, emp_risk, 4.0, cfg).unwrap();
    assert_thread_count_invariant(|| {
        let (chains, diag) = mh.sample_chains(4, 31, &NoopRecorder).unwrap();
        let bits: Vec<Vec<Vec<u64>>> = chains
            .iter()
            .map(|c| {
                c.iter()
                    .map(|s| s.iter().map(|v| v.to_bits()).collect())
                    .collect()
            })
            .collect();
        let rhat_bits: Vec<u64> = diag.rhat.iter().map(|v| v.to_bits()).collect();
        (bits, rhat_bits, diag.pooled_acceptance.to_bits())
    });
}

#[test]
fn blahut_arimoto_is_thread_count_invariant() {
    use dplearn::infotheory::blahut_arimoto::{blahut_arimoto, BaOptions};
    use dplearn::telemetry::NoopRecorder;
    let source = [0.2, 0.5, 0.3];
    let distortion = vec![
        vec![0.0, 0.8, 1.2],
        vec![0.7, 0.0, 0.5],
        vec![1.1, 0.6, 0.0],
    ];
    assert_thread_count_invariant(|| {
        let opts = BaOptions::new(1e-12, 50_000);
        let rd = blahut_arimoto(&source, &distortion, 2.5, &opts, &NoopRecorder).unwrap();
        let kernel_bits: Vec<Vec<u64>> = rd
            .channel
            .rows()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect();
        (kernel_bits, rd.rate.to_bits(), rd.distortion.to_bits())
    });
}

#[test]
fn risk_vector_is_thread_count_invariant() {
    use dplearn::learning::loss::ZeroOne;
    // 512 hypotheses × 200 examples = 102 400 loss evaluations — past the
    // inline threshold, so this exercises the parallel scoring loop.
    let world = NoisyThreshold::new(0.35, 0.05);
    let mut rng = Xoshiro256::seed_from(17);
    let data = world.sample(200, &mut rng);
    let class = FiniteClass::threshold_grid(0.0, 1.0, 512);
    assert_thread_count_invariant(|| {
        class
            .risk_vector(&ZeroOne, &data)
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<u64>>()
    });
}

#[test]
fn substreams_are_independent_of_evaluation_order() {
    // Experiment harnesses hand each trial its own substream; running
    // trials in any order must give the same per-trial results.
    let trial = |k: u64| {
        let world = NoisyThreshold::new(0.5, 0.1);
        let mut rng = Xoshiro256::substream(123, k);
        let data = world.sample(50, &mut rng);
        data.examples()[0].x[0]
    };
    let forward: Vec<f64> = (0..10).map(trial).collect();
    let backward: Vec<f64> = (0..10).rev().map(trial).rev().collect();
    assert_eq!(forward, backward);
}

#[test]
fn watched_gibbs_sampling_is_thread_count_invariant() {
    use dplearn::pacbayes::gibbs::{MetropolisGibbs, MhConfig, WatchdogConfig};
    use dplearn::pacbayes::posterior::DiagGaussian;
    use dplearn::telemetry::NoopRecorder;
    let prior = DiagGaussian::isotropic(2, 1.0).unwrap();
    let emp_risk = |theta: &[f64]| theta.iter().map(|t| (t - 0.4).powi(2)).sum::<f64>();
    let cfg = MhConfig {
        burn_in: 100,
        n_samples: 80,
        thin: 1,
        initial_step: 0.3,
    };
    let mh = MetropolisGibbs::new(&prior, emp_risk, 4.0, cfg).unwrap();
    // An unattainable R-hat threshold forces the watchdog down its full
    // retry-and-widen schedule; the whole escalation must stay a pure
    // function of the seed at any worker count.
    let wd = WatchdogConfig {
        rhat_threshold: 1.0 + 1e-9,
        max_attempts: 3,
        step_widen: 1.5,
    };
    assert_thread_count_invariant(|| {
        let (chains, diag, report) = mh.sample_chains_watched(4, 31, &wd, &NoopRecorder).unwrap();
        let bits: Vec<Vec<Vec<u64>>> = chains
            .iter()
            .map(|c| {
                c.iter()
                    .map(|s| s.iter().map(|v| v.to_bits()).collect())
                    .collect()
            })
            .collect();
        (
            bits,
            diag.pooled_acceptance.to_bits(),
            report.attempts,
            report.converged,
            report.degraded,
            report.total_iterations,
            report.final_residual.to_bits(),
        )
    });
}

#[test]
fn engine_batches_are_thread_count_invariant() {
    use dplearn::engine::engine::{Engine, EngineConfig};
    use dplearn::engine::request::{NoisyMaxNoise, QueryKind, QueryRequest, SelectStrategy};
    use dplearn::engine::QueryValue;
    use dplearn::mechanisms::privacy::Budget;

    // A mixed batch exercising every built-in mechanism, plus a
    // rejection in the middle — the rejected request must not shift its
    // neighbours' RNG streams at any worker count.
    let run = || {
        let mut e = Engine::new(EngineConfig::default()).unwrap();
        let values: Vec<f64> = (0..300).map(|i| (i % 30) as f64 / 30.0).collect();
        e.register_dataset("d", values, 0.0, 1.0, Budget::new(5.0, 1e-6).unwrap())
            .unwrap();
        let batch = vec![
            QueryRequest::new(
                "d",
                QueryKind::LaplaceCount {
                    lo: 0.0,
                    hi: 0.5,
                    epsilon: 0.3,
                },
            ),
            QueryRequest::new("d", QueryKind::LaplaceSum { epsilon: 0.3 }),
            QueryRequest::new("nope", QueryKind::LaplaceSum { epsilon: 0.1 }),
            QueryRequest::new(
                "d",
                QueryKind::Select {
                    bins: 12,
                    epsilon: 0.5,
                    strategy: SelectStrategy::Exponential,
                },
            ),
            QueryRequest::new(
                "d",
                QueryKind::Select {
                    bins: 12,
                    epsilon: 0.5,
                    strategy: SelectStrategy::PermuteAndFlip,
                },
            ),
            QueryRequest::new(
                "d",
                QueryKind::NoisyMax {
                    bins: 9,
                    epsilon: 0.4,
                    noise: NoisyMaxNoise::Laplace,
                },
            ),
            QueryRequest::new(
                "d",
                QueryKind::SvtRun {
                    threshold: 15.0,
                    epsilon: 0.6,
                    probes: vec![(0.4, 0.42), (0.0, 0.9), (0.0, 0.1)],
                },
            ),
            QueryRequest::new(
                "d",
                QueryKind::GibbsQuantile {
                    quantile: 0.5,
                    candidates: 31,
                    epsilon: 0.2,
                    draws: 3,
                },
            ),
        ];
        // Two batches: the per-batch seed schedule must replay too.
        let r1 = e.run_batch(&batch);
        let r2 = e.run_batch(&batch[..2]);
        let mut fingerprint: Vec<u64> = vec![r1.batch_seed, r2.batch_seed];
        for out in r1.outcomes.iter().chain(&r2.outcomes) {
            match out.value() {
                Some(QueryValue::Scalar(v)) => fingerprint.push(v.to_bits()),
                Some(QueryValue::Index(i)) => fingerprint.push(*i as u64),
                Some(QueryValue::Draws(vs)) => fingerprint.extend(vs.iter().map(|v| v.to_bits())),
                Some(QueryValue::SvtTranscript(t)) => fingerprint.push(t.len() as u64),
                None => fingerprint.push(u64::MAX),
            }
        }
        fingerprint.push(e.ledger("d").unwrap().snapshot().spent.epsilon.to_bits());
        fingerprint
    };
    // The issue's acceptance bar is 1 vs 4 workers; the shared helper
    // also checks 2 and 8.
    {
        let _guard = thread_override_lock();
        dplearn_parallel::set_thread_count(1);
        let serial = run();
        dplearn_parallel::set_thread_count(4);
        assert_eq!(run(), serial, "engine batch diverged at 4 workers");
        dplearn_parallel::set_thread_count(0);
    }
    assert_thread_count_invariant(run);
}

#[test]
fn streamed_batches_are_thread_count_invariant() {
    use dplearn::engine::dataset::StatsMode;
    use dplearn::engine::request::{QueryKind, QueryRequest};
    use dplearn::mechanisms::privacy::Budget;
    use dplearn_serve::{ServeConfig, ServingLoop};

    // The streaming acceptance bar: a fleet fed by interleaved appends,
    // continual-counter opens/releases, and query ticks must end in
    // bit-identical state — stream digests (epochs, sufficient stats,
    // release tapes), accounting digests, and every outcome — at any
    // DPLEARN_THREADS.
    assert_thread_count_invariant(|| {
        let mut fleet = ServingLoop::new(ServeConfig {
            shards: 3,
            ..ServeConfig::default()
        })
        .unwrap();
        for t in 0..6 {
            let records: Vec<f64> = (0..40).map(|j| (j % 10) as f64 / 10.0).collect();
            let mode = if t % 2 == 0 {
                StatsMode::Exact
            } else {
                StatsMode::Sketch { k: 32 }
            };
            fleet
                .register_tenant_with_mode(
                    &format!("t{t}"),
                    records,
                    0.0,
                    1.0,
                    Budget::new(4.0, 1e-6).unwrap(),
                    mode,
                )
                .unwrap();
        }
        let h2 = fleet.continual_open("t2", 0.5, 32).unwrap();
        let h5 = fleet.continual_open("t5", 0.25, 32).unwrap();

        let mut fingerprint: Vec<u64> = Vec::new();
        for round in 0..4u64 {
            for t in 0..6usize {
                let batch: Vec<f64> = (0..(t + 2))
                    .map(|j| ((round as usize * 3 + j) % 10) as f64 / 10.0)
                    .collect();
                fingerprint.push(fleet.append(&format!("t{t}"), &batch).unwrap());
            }
            for t in 0..6usize {
                fleet.enqueue(QueryRequest::new(
                    format!("t{t}"),
                    QueryKind::LaplaceCount {
                        lo: 0.0,
                        hi: 0.5,
                        epsilon: 0.05,
                    },
                ));
            }
            fleet.enqueue(QueryRequest::new(
                "t3",
                QueryKind::ContinualCount {
                    epsilon: 0.1,
                    horizon: 64,
                },
            ));
            let report = fleet.tick();
            for (ticket, outcome) in &report.outcomes {
                fingerprint.push(*ticket);
                match outcome.value() {
                    Some(dplearn::engine::QueryValue::Scalar(v)) => fingerprint.push(v.to_bits()),
                    Some(dplearn::engine::QueryValue::Draws(vs)) => {
                        fingerprint.extend(vs.iter().map(|v| v.to_bits()));
                    }
                    _ => fingerprint.push(u64::MAX),
                }
            }
            fingerprint.push(fleet.continual_release(h2).unwrap().to_bits());
            fingerprint.push(fleet.continual_release(h5).unwrap().to_bits());
        }
        (
            fingerprint,
            fleet.stream_digest(),
            fleet.durability_digest(),
        )
    });
}

#[test]
fn blahut_arimoto_retry_is_thread_count_invariant() {
    use dplearn::infotheory::blahut_arimoto::{blahut_arimoto, BaOptions, BaTileOptions};
    use dplearn::robust::RetryPolicy;
    use dplearn::telemetry::NoopRecorder;
    let source = [0.2, 0.5, 0.3];
    let distortion = vec![
        vec![0.0, 0.8, 1.2],
        vec![0.7, 0.0, 0.5],
        vec![1.1, 0.6, 0.0],
    ];
    // A starvation-level first budget forces at least one escalation.
    let policy = RetryPolicy {
        max_attempts: 4,
        base_iters: 2,
        growth: 8.0,
        damping: 0.5,
    };
    let opts = BaOptions {
        tol: 1e-12,
        retry: policy,
        tiles: BaTileOptions::default(),
    };
    assert_thread_count_invariant(|| {
        let rd = blahut_arimoto(&source, &distortion, 2.5, &opts, &NoopRecorder).unwrap();
        (
            rd.rate.to_bits(),
            rd.distortion.to_bits(),
            rd.attempts,
            rd.final_gap.to_bits(),
            rd.iterations,
        )
    });
}

// ---------------------------------------------------------------------
// Telemetry thread-count invariance
//
// The dplearn-telemetry recorder hooks only ever fire from sequential
// control paths (engine batch phases, MCMC pooling, BA outer loops), so
// every recorded *value* must be bit-identical at any worker count.
// `TelemetrySnapshot`'s equality compares floats by bit pattern and
// deliberately ignores the wall-clock `timings` section, so comparing
// whole snapshots is exactly the contract under test.
// ---------------------------------------------------------------------

#[test]
fn engine_telemetry_is_thread_count_invariant() {
    use dplearn::engine::engine::{Engine, EngineConfig};
    use dplearn::engine::request::{QueryKind, QueryRequest, SelectStrategy};
    use dplearn::mechanisms::privacy::Budget;
    use dplearn::telemetry::{MemoryRecorder, Recorder};
    use std::sync::Arc;

    assert_thread_count_invariant(|| {
        let mut e = Engine::new(EngineConfig::default()).unwrap();
        let values: Vec<f64> = (0..300).map(|i| (i % 30) as f64 / 30.0).collect();
        e.register_dataset("d", values, 0.0, 1.0, Budget::new(5.0, 1e-6).unwrap())
            .unwrap();
        let recorder = Arc::new(MemoryRecorder::new());
        e.set_recorder(recorder.clone());
        let batch = vec![
            QueryRequest::new(
                "d",
                QueryKind::LaplaceCount {
                    lo: 0.0,
                    hi: 0.5,
                    epsilon: 0.3,
                },
            ),
            QueryRequest::new("d", QueryKind::LaplaceSum { epsilon: 0.3 }),
            QueryRequest::new("nope", QueryKind::LaplaceSum { epsilon: 0.1 }),
            QueryRequest::new(
                "d",
                QueryKind::Select {
                    bins: 12,
                    epsilon: 0.5,
                    strategy: SelectStrategy::PermuteAndFlip,
                },
            ),
            QueryRequest::new(
                "d",
                QueryKind::GibbsQuantile {
                    quantile: 0.5,
                    candidates: 31,
                    epsilon: 0.2,
                    draws: 3,
                },
            ),
        ];
        let _ = e.run_batch(&batch);
        let _ = e.run_batch(&batch[..2]);
        let mut snap = recorder.snapshot().unwrap();
        // The JSON export (with a pinned timestamp) must replay
        // byte-for-byte too — it is what CI artifacts diff against.
        // Wall-clock timings are the one non-deterministic section, so
        // they are dropped before export, mirroring how snapshot
        // equality excludes them.
        snap.timings.clear();
        let json = snap.to_json(0);
        (snap, json)
    });
}

#[test]
fn mcmc_telemetry_is_thread_count_invariant() {
    use dplearn::pacbayes::gibbs::{MetropolisGibbs, MhConfig, WatchdogConfig};
    use dplearn::pacbayes::posterior::DiagGaussian;
    use dplearn::telemetry::{MemoryRecorder, Recorder};

    let prior = DiagGaussian::isotropic(2, 1.0).unwrap();
    let emp_risk = |theta: &[f64]| theta.iter().map(|t| (t - 0.4).powi(2)).sum::<f64>();
    let cfg = MhConfig {
        burn_in: 100,
        n_samples: 80,
        thin: 1,
        initial_step: 0.3,
    };
    let mh = MetropolisGibbs::new(&prior, emp_risk, 4.0, cfg).unwrap();
    // An unattainable threshold drives the full retry-and-widen
    // schedule, so widening events and the R-hat trajectory are
    // exercised — all of it must replay identically at any worker count.
    let wd = WatchdogConfig {
        rhat_threshold: 1.0 + 1e-9,
        max_attempts: 3,
        step_widen: 1.5,
    };
    assert_thread_count_invariant(|| {
        let recorder = MemoryRecorder::new();
        let _ = mh.sample_chains_watched(4, 31, &wd, &recorder).unwrap();
        recorder.snapshot().unwrap()
    });
}

#[test]
fn audit_and_ba_telemetry_is_thread_count_invariant() {
    use dplearn::infotheory::blahut_arimoto::{blahut_arimoto, BaOptions, BaTileOptions};
    use dplearn::mechanisms::audit::{audit_continuous_par, AuditConfig};
    use dplearn::mechanisms::laplace::LaplaceMechanism;
    use dplearn::mechanisms::privacy::Epsilon;
    use dplearn::robust::RetryPolicy;
    use dplearn::telemetry::{MemoryRecorder, Recorder};

    let m = LaplaceMechanism::new(Epsilon::new(1.0).unwrap(), 1.0).unwrap();
    let cfg = AuditConfig::new(30_000).with_chunk_size(1 << 12);
    let source = [0.2, 0.5, 0.3];
    let distortion = vec![
        vec![0.0, 0.8, 1.2],
        vec![0.7, 0.0, 0.5],
        vec![1.1, 0.6, 0.0],
    ];
    let policy = RetryPolicy {
        max_attempts: 4,
        base_iters: 2,
        growth: 8.0,
        damping: 0.5,
    };
    let opts = BaOptions {
        tol: 1e-12,
        retry: policy,
        tiles: BaTileOptions::default(),
    };
    assert_thread_count_invariant(|| {
        // One recorder across both subsystems: the merged snapshot keys
        // must not collide and every value must replay.
        let recorder = MemoryRecorder::new();
        let _ = audit_continuous_par(
            |r| m.release(0.0, r),
            |r| m.release(1.0, r),
            -6.0,
            7.0,
            30,
            &cfg,
            99,
            &recorder,
        )
        .unwrap();
        let _ = blahut_arimoto(&source, &distortion, 2.5, &opts, &recorder).unwrap();
        recorder.snapshot().unwrap()
    });
}

// ---------------------------------------------------------------------
// Worker-pool reuse
//
// The persistent pool (PR 6) replaces spawn-per-call scoped threads.
// These cases pin the pool-specific hazards: state leaking between
// consecutive dispatches, state leaking across retry restarts, and
// nested dispatch from inside a worker (which must degrade to serial,
// not deadlock).
// ---------------------------------------------------------------------

#[test]
fn consecutive_par_map_calls_reuse_pool_bit_identically() {
    // Two back-to-back dispatches on the same warm pool: the second call
    // must see no residue of the first (no stale task, no claimed-chunk
    // counter, no section marker).
    assert_thread_count_invariant(|| {
        let items: Vec<f64> = (0..5000).map(|i| i as f64 * 0.37).collect();
        let a: Vec<u64> =
            dplearn_parallel::par_map(&items, 0, |i, &x| (x.sin() + i as f64).to_bits());
        let b: Vec<u64> =
            dplearn_parallel::par_map(&items, 0, |i, &x| (x.cos() - i as f64).to_bits());
        (a, b)
    });
}

#[test]
fn pool_survives_blahut_arimoto_retry_restarts() {
    use dplearn::infotheory::blahut_arimoto::{blahut_arimoto, BaOptions, BaTileOptions};
    use dplearn::robust::RetryPolicy;
    use dplearn::telemetry::NoopRecorder;
    // A restart-heavy solve (each attempt is its own run of pool
    // dispatches), then an unrelated parallel call on the same pool:
    // both must be thread-count invariant, and the retry must not leave
    // the caller marked as in a pool section.
    let source = [0.2, 0.8];
    let distortion = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
    let policy = RetryPolicy {
        max_attempts: 8,
        base_iters: 2,
        growth: 4.0,
        damping: 0.5,
    };
    let opts = BaOptions {
        tol: 1e-13,
        retry: policy,
        tiles: BaTileOptions::default(),
    };
    assert_thread_count_invariant(|| {
        let rd = blahut_arimoto(&source, &distortion, 5.0, &opts, &NoopRecorder).unwrap();
        assert!(rd.attempts > 1, "premise: restarts must happen");
        assert!(
            !dplearn_parallel::in_pool_section(),
            "retry leaked the pool-section marker"
        );
        let after: Vec<u64> =
            dplearn_parallel::par_map_indexed(257, 0, |i| ((i as f64).sqrt() + 1.0).to_bits());
        (rd.rate.to_bits(), rd.attempts, after)
    });
}

// ---------------------------------------------------------------------
// Tiled / blocked large-alphabet kernels
//
// The cache-blocked kernels in `infotheory::flat` and the tiled BA
// sweep promise bit-identity to their naive references at *every* tile
// size and *every* worker count — tiling is a memory-layout decision,
// never a numerical one. These property tests pin that across random
// channels, the tile sizes {1, 7, 64, 4096} (degenerate, odd,
// cache-sized, larger-than-problem) and 1/2/8 workers.
// ---------------------------------------------------------------------

const PIN_TILES: [usize; 4] = [1, 7, 64, 4096];

/// Random channel with a zero-mass input row and ~10% zero kernel
/// cells, the same shape the unit suites use: the blocked paths must
/// handle pruning and sparse columns, not just dense strictly-positive
/// matrices.
fn random_channel(nx: usize, ny: usize, seed: u64) -> (Vec<f64>, Vec<Vec<f64>>) {
    use dplearn::numerics::rng::Rng;
    let mut rng = Xoshiro256::seed_from(seed);
    let mut input: Vec<f64> = (0..nx).map(|_| rng.next_f64() + 0.05).collect();
    if nx > 2 {
        input[nx / 2] = 0.0;
    }
    let total: f64 = input.iter().sum();
    for p in &mut input {
        *p /= total;
    }
    let kernel: Vec<Vec<f64>> = (0..nx)
        .map(|_| {
            let mut row: Vec<f64> = (0..ny)
                .map(|_| {
                    let v = rng.next_f64();
                    if v < 0.1 {
                        0.0
                    } else {
                        v + 0.02
                    }
                })
                .collect();
            if row.iter().all(|&v| v == 0.0) {
                row[0] = 1.0;
            }
            let t: f64 = row.iter().sum();
            for q in &mut row {
                *q /= t;
            }
            row
        })
        .collect();
    (input, kernel)
}

// The boxed-row loops the blocked kernels replaced, kept here as
// independent references: one `Vec` per row, serial folds, no tiling.

fn boxed_marginal(input: &[f64], rows: &[Vec<f64>]) -> Vec<f64> {
    let mut out = vec![0.0; rows[0].len()];
    for (&px, row) in input.iter().zip(rows) {
        for (o, &pyx) in out.iter_mut().zip(row) {
            *o += px * pyx;
        }
    }
    out
}

/// `Σ_y max_x p(x)·p(y|x)`, column-major over the boxed rows.
fn boxed_posterior_vulnerability(input: &[f64], rows: &[Vec<f64>]) -> f64 {
    let mut total = 0.0;
    for y in 0..rows[0].len() {
        let mut best = 0.0f64;
        for (&px, row) in input.iter().zip(rows) {
            best = best.max(px * row[y]);
        }
        total += best;
    }
    total
}

/// `|ln(a/b)|` over every row pair and column.
fn boxed_max_row_log_ratio(rows: &[Vec<f64>]) -> f64 {
    let mut worst = 0.0f64;
    for (i, row_i) in rows.iter().enumerate() {
        for row_j in rows.iter().skip(i + 1) {
            for (&a, &b) in row_i.iter().zip(row_j) {
                if a == 0.0 && b == 0.0 {
                    continue;
                }
                if a == 0.0 || b == 0.0 {
                    return f64::INFINITY;
                }
                worst = worst.max((a / b).ln().abs());
            }
        }
    }
    worst
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    #[test]
    fn blocked_leakage_kernels_pin_to_naive_references(
        nx in 3usize..10,
        ny in 2usize..9,
        seed in proptest::prelude::any::<u64>(),
    ) {
        use dplearn::infotheory::channel::DiscreteChannel;

        let (input, kernel) = random_channel(nx, ny, seed);
        let flat = DiscreteChannel::from_rows(input.clone(), kernel.clone()).unwrap();

        // Naive references, computed once on the serial boxed path.
        let ref_marginal: Vec<u64> = boxed_marginal(&input, &kernel)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let post = boxed_posterior_vulnerability(&input, &kernel);
        let prior = input.iter().copied().fold(0.0, f64::max);
        let ref_post = post.to_bits();
        let ref_leak = (post / prior).log2().to_bits();
        let ref_ratio = boxed_max_row_log_ratio(&kernel).to_bits();
        let ref_mi = flat.mutual_information_naive().to_bits();

        let baseline = assert_thread_count_invariant(|| {
            PIN_TILES
                .iter()
                .map(|&tile| {
                    let marginal: Vec<u64> = flat
                        .output_marginal_blocked(tile)
                        .unwrap()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    (
                        marginal,
                        flat.posterior_vulnerability_blocked(tile).unwrap().to_bits(),
                        flat.min_entropy_leakage_bits_blocked(tile).unwrap().to_bits(),
                        flat.max_row_log_ratio_blocked(tile).unwrap().to_bits(),
                        flat.mutual_information_blocked(tile).unwrap().to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        });
        for (tile, got) in PIN_TILES.iter().zip(&baseline) {
            let _ = tile;
            proptest::prop_assert_eq!(&got.0, &ref_marginal);
            proptest::prop_assert_eq!(got.1, ref_post);
            proptest::prop_assert_eq!(got.2, ref_leak);
            proptest::prop_assert_eq!(got.3, ref_ratio);
            proptest::prop_assert_eq!(got.4, ref_mi);
        }
    }

    #[test]
    fn tiled_blahut_arimoto_pins_to_the_default_path(
        n in 2usize..7,
        seed in proptest::prelude::any::<u64>(),
        beta in 0.5f64..6.0,
    ) {
        use dplearn::infotheory::blahut_arimoto::{blahut_arimoto, BaOptions, BaTileOptions};
        use dplearn::numerics::rng::Rng;
        use dplearn::telemetry::NoopRecorder;

        let mut rng = Xoshiro256::seed_from(seed);
        let mut source: Vec<f64> = (0..n).map(|_| rng.next_f64() + 0.05).collect();
        if n > 2 {
            source[n / 2] = 0.0; // exercise zero-mass pruning
        }
        let total: f64 = source.iter().sum();
        for p in &mut source {
            *p /= total;
        }
        let distortion: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| if i == j { 0.0 } else { 0.2 + 1.8 * rng.next_f64() })
                    .collect()
            })
            .collect();

        let plain = BaOptions::new(1e-10, 50_000);
        let reference = blahut_arimoto(&source, &distortion, beta, &plain, &NoopRecorder).unwrap();
        let ref_kernel: Vec<Vec<u64>> = reference
            .channel
            .rows()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect();

        let baseline = assert_thread_count_invariant(|| {
            PIN_TILES
                .iter()
                .map(|&tile| {
                    let opts = BaOptions {
                        tiles: BaTileOptions {
                            row_tile: tile,
                            col_tile: tile,
                        },
                        ..BaOptions::new(1e-10, 50_000)
                    };
                    let rd = blahut_arimoto(&source, &distortion, beta, &opts, &NoopRecorder)
                        .unwrap();
                    let kernel: Vec<Vec<u64>> = rd
                        .channel
                        .rows()
                        .map(|row| row.iter().map(|v| v.to_bits()).collect())
                        .collect();
                    (kernel, rd.rate.to_bits(), rd.distortion.to_bits())
                })
                .collect::<Vec<_>>()
        });
        for (tile, got) in PIN_TILES.iter().zip(&baseline) {
            let _ = tile;
            proptest::prop_assert_eq!(&got.0, &ref_kernel);
            proptest::prop_assert_eq!(got.1, reference.rate.to_bits());
            proptest::prop_assert_eq!(got.2, reference.distortion.to_bits());
        }
    }
}

/// A channel built to attack the realized-ε bound pass, which drops
/// columns whose max/min ratio is provably below the largest in their
/// block. Each case picks one of five regimes:
///
/// 0. generic spreads, with ulp-level near-ties and exact ties of one
///    wide column in every row order;
/// 1. near-uniform rows (every ratio within 10⁻⁶–10⁻¹² of 1);
/// 2. near-uniform rows led by a near-tie pair that holds the maximum: a
///    column, then a rescaled copy in reverse row order whose quotient
///    rounds higher but whose pair value also rounds higher — the pair a
///    cut without margin gets wrong;
/// 3. an explicit `(lo, hi, lo)` column, whose quotient is subnormal one
///    way and ∞ the other, beside a column with a deeper but finite
///    quotient, among normal columns;
/// 4. subnormal and overflowing ratios: one subnormal cell per column,
///    in the first row for half of the cases (finite ε), else anywhere.
///
/// All-zero columns appear throughout, and one case in eight hides a
/// single zero beside nonzero cells (ε = ∞). Cells stay below `0.5/ny`,
/// so each row's last cell tops it up to a distribution.
fn adversarial_eps_channel(nx: usize, ny: usize, seed: u64) -> (Vec<f64>, Vec<Vec<f64>>) {
    use dplearn::numerics::rng::Rng;
    let mut rng = Xoshiro256::seed_from(seed);
    let unit = 0.5 / ny as f64;
    let regime = rng.next_index(5);
    let jitter = 10f64.powi(-6 - rng.next_index(7) as i32);
    let lo_first = rng.next_bool(0.5);
    let wide: Vec<f64> = (0..nx)
        .map(|_| unit * (1e-3 + (1.0 - 1e-3) * rng.next_f64()))
        .collect();
    let quotient = |c: &[f64]| {
        c.iter().copied().fold(f64::INFINITY, f64::min) / c.iter().copied().fold(0.0, f64::max)
    };
    let pair_max = |c: &[f64]| {
        let mut w = 0.0f64;
        for (i, &a) in c.iter().enumerate() {
            for &b in &c[i + 1..] {
                w = w.max((a / b).ln().abs());
            }
        }
        w
    };
    let mut cols: Vec<Vec<f64>> = Vec::with_capacity(ny);
    if regime == 2 && ny >= 3 {
        for _ in 0..1_000 {
            let first: Vec<f64> = (0..nx)
                .map(|x| {
                    let spread = if x == 0 { 1.0 } else { 0.5 * rng.next_f64() };
                    0.4 * unit * (1.0 - jitter * spread)
                })
                .collect();
            let scale = 1.0 + rng.next_f64();
            let twin: Vec<f64> = first.iter().rev().map(|v| v * scale).collect();
            if quotient(&twin) > quotient(&first) && pair_max(&twin) > pair_max(&first) {
                cols.extend([first, twin]);
                break;
            }
        }
    }
    if regime == 3 && ny >= 3 {
        // ln(lo/hi) ≈ −710 but hi/lo overflows; the second column's
        // quotient, 2⁻¹⁰⁷⁴/hi, is the smallest any column here can reach.
        let mut lo_hi_lo = vec![f64::from_bits(1 << 30); nx];
        lo_hi_lo[1] = unit;
        let mut deeper = vec![unit; nx];
        deeper[0] = f64::from_bits(1);
        cols.extend([lo_hi_lo, deeper]);
    }
    // Families: 0 generic, 1 near-uniform, 2 ulp near-tie of `wide`,
    // 3 exact tie, 4 all-zero, 5 one subnormal cell.
    while cols.len() + 1 < ny {
        let family = match regime {
            1 | 2 => [1, 1, 1, 1, 3, 4][rng.next_index(6)],
            0 if rng.next_bool(0.5) => [0, 2][rng.next_index(2)],
            4 if rng.next_bool(0.5) => 5,
            4 => rng.next_index(6),
            _ => rng.next_index(5),
        };
        let mut col: Vec<f64> = match family {
            1 => {
                let level = unit * (0.25 + 0.25 * rng.next_f64());
                (0..nx)
                    .map(|_| level * (1.0 - 0.25 * jitter * rng.next_f64()))
                    .collect()
            }
            2 => wide
                .iter()
                .map(|v| f64::from_bits(v.to_bits() + rng.next_below(7) - 3))
                .collect(),
            3 => cols.last().cloned().unwrap_or_else(|| wide.clone()),
            4 => vec![0.0; nx],
            5 => {
                let mut col: Vec<f64> = (0..nx).map(|_| unit * rng.next_open_f64()).collect();
                let x = if lo_first { 0 } else { rng.next_index(nx) };
                col[x] = f64::from_bits((rng.next_u64() >> (12 + rng.next_index(52))).max(1));
                col
            }
            _ => (0..nx)
                .map(|_| unit * (0.02 + 0.98 * rng.next_f64()))
                .collect(),
        };
        if family == 2 || (family == 3 && rng.next_bool(0.5)) {
            for i in (1..nx).rev() {
                col.swap(i, rng.next_index(i + 1));
            }
        }
        cols.push(col);
    }
    if rng.next_bool(0.125) {
        if let Some(col) = cols.iter_mut().find(|c| c.iter().all(|&v| v > 0.0)) {
            col[rng.next_index(nx)] = 0.0;
        }
    }
    let kernel: Vec<Vec<f64>> = (0..nx)
        .map(|x| {
            let mut row: Vec<f64> = cols.iter().map(|c| c[x]).collect();
            let filled: f64 = row.iter().sum();
            row.push(1.0 - filled);
            row
        })
        .collect();
    (vec![1.0 / nx as f64; nx], kernel)
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

    #[test]
    fn pruned_realized_eps_pins_to_the_pairwise_oracle(
        nx in 2usize..11,
        ny in 1usize..9001,
        seed in proptest::prelude::any::<u64>(),
    ) {
        use dplearn::infotheory::channel::DiscreteChannel;

        let (input, kernel) = adversarial_eps_channel(nx, ny, seed);
        let want = boxed_max_row_log_ratio(&kernel).to_bits();
        let flat = DiscreteChannel::from_rows(input, kernel).unwrap();
        let tiles = [1, 2, 3, 7, 64, nx + 1];
        let got = assert_thread_count_invariant(|| {
            tiles
                .iter()
                .map(|&tile| flat.max_row_log_ratio_blocked(tile).unwrap().to_bits())
                .collect::<Vec<u64>>()
        });
        for (tile, bits) in tiles.iter().zip(got) {
            proptest::prop_assert!(
                bits == want,
                "nx={nx} ny={ny} seed={seed} tile={tile}: {} vs oracle {}",
                f64::from_bits(bits),
                f64::from_bits(want)
            );
        }
    }
}

#[test]
fn nested_pool_dispatch_falls_back_to_serial_not_deadlock() {
    // A parallel call issued from inside a pool worker must run inline
    // (serial) on that worker with identical results — never re-enter
    // the dispatcher. A deadlock here would hang the suite, so merely
    // completing is half the assertion; bit-identity is the other half.
    assert_thread_count_invariant(|| {
        dplearn_parallel::par_map_indexed(16, 0, |i| {
            let inner: Vec<u64> = dplearn_parallel::par_map_indexed(16, 0, move |j| {
                ((i * 16 + j) as f64).sqrt().to_bits()
            });
            inner
        })
    });
}
