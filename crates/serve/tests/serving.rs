//! Serving-layer acceptance suite: thread-count-invariant determinism,
//! per-shard write-ahead durability with fail-closed shard-local crash
//! recovery (siblings keep serving), and cross-shard SVT
//! suspend/resume.

use dplearn_engine::engine::Engine;
use dplearn_engine::request::{QueryKind, QueryOutcome, QueryRequest};
use dplearn_engine::wal::{CrashableWal, FsyncPolicy, MemoryWal};
use dplearn_engine::EngineError;
use dplearn_mechanisms::composition::PoisonReason;
use dplearn_mechanisms::privacy::Budget;
use dplearn_robust::crash::{CrashPlan, CrashPoint, FleetCrashPlan};
use dplearn_serve::{ServeConfig, ServeError, ServingLoop, ShardRouter};
use dplearn_telemetry::MemoryRecorder;
use std::sync::{Arc, Mutex, MutexGuard};

/// Tests that set the process-global worker count serialize here.
fn thread_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn cap(eps: f64) -> Budget {
    Budget::new(eps, 1e-6).unwrap()
}

fn values(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i % 10) as f64 / 10.0).collect()
}

fn count_req(tenant: &str, eps: f64) -> QueryRequest {
    QueryRequest::new(
        tenant,
        QueryKind::LaplaceCount {
            lo: 0.0,
            hi: 0.5,
            epsilon: eps,
        },
    )
}

/// A tenant name that routes to `shard` under `router` (deterministic
/// probe order, so every run picks the same names).
fn tenant_on(router: &ShardRouter, shard: usize, salt: &str) -> String {
    for i in 0.. {
        let name = format!("tenant-{salt}-{i}");
        if router.route(&name) == shard {
            return name;
        }
    }
    unreachable!()
}

fn config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        ..ServeConfig::default()
    }
}

/// A mixed 3-tick workload over 12 tenants on `shards` shards; some
/// requests are over-budget or target unknown tenants so rejections are
/// exercised on every run. Returns (all tick outcomes, fleet digest,
/// fleet telemetry snapshot, fleet report).
fn run_reference_workload(
    shards: usize,
) -> (
    Vec<(u64, QueryOutcome)>,
    Vec<u8>,
    dplearn_telemetry::TelemetrySnapshot,
    dplearn_serve::FleetReport,
) {
    let mut serving = ServingLoop::new(config(shards)).unwrap();
    serving.set_recorder(Arc::new(MemoryRecorder::new()));
    for k in 0..shards.min(4) {
        serving
            .set_shard_recorder(k, Arc::new(MemoryRecorder::new()))
            .unwrap();
    }
    for i in 0..12 {
        serving
            .register_tenant(&format!("tenant-{i}"), values(40 + i), 0.0, 1.0, cap(1.0))
            .unwrap();
    }
    let mut outcomes = Vec::new();
    for tick in 0..3u64 {
        for j in 0..40 {
            let tenant = format!("tenant-{}", (tick as usize * 7 + j) % 12);
            let req = match j % 4 {
                0 => count_req(&tenant, 0.01),
                1 => QueryRequest::new(&tenant, QueryKind::LaplaceSum { epsilon: 0.015 }),
                2 => count_req(&tenant, 5.0),   // over budget: rejected
                _ => count_req("nobody", 0.01), // unknown: rejected
            };
            serving.enqueue(req);
        }
        outcomes.extend(serving.tick().outcomes);
    }
    let digest = serving.durability_digest();
    let telemetry = serving.fleet_telemetry();
    let report = serving.report().unwrap();
    (outcomes, digest, telemetry, report)
}

#[test]
fn outcomes_ledgers_and_telemetry_are_thread_invariant() {
    let _guard = thread_lock();
    dplearn_parallel::set_thread_count(1);
    let baseline = run_reference_workload(4);
    for threads in [2, 8] {
        dplearn_parallel::set_thread_count(threads);
        let got = run_reference_workload(4);
        assert_eq!(got.0, baseline.0, "outcomes diverged at {threads} threads");
        assert_eq!(got.1, baseline.1, "digest diverged at {threads} threads");
        assert_eq!(got.2, baseline.2, "telemetry diverged at {threads} threads");
        assert_eq!(got.3, baseline.3, "report diverged at {threads} threads");
    }
    dplearn_parallel::set_thread_count(0);
}

#[test]
fn shard_results_do_not_depend_on_other_shards_traffic() {
    // A tenant's outcomes depend only on its own shard's request
    // sequence: adding traffic for *other* shards' tenants must not
    // change them. This is the no-cross-shard-coupling half of the
    // determinism contract.
    let shards = 4;
    let router = ShardRouter::new(shards).unwrap();
    let quiet_tenant = tenant_on(&router, 0, "quiet");
    let busy_tenant = tenant_on(&router, 1, "busy");

    let run = |with_busy_traffic: bool| {
        let mut serving = ServingLoop::new(config(shards)).unwrap();
        serving
            .register_tenant(&quiet_tenant, values(30), 0.0, 1.0, cap(2.0))
            .unwrap();
        serving
            .register_tenant(&busy_tenant, values(30), 0.0, 1.0, cap(2.0))
            .unwrap();
        let mut quiet_outcomes = Vec::new();
        for _ in 0..2 {
            serving.enqueue(count_req(&quiet_tenant, 0.05));
            if with_busy_traffic {
                for _ in 0..17 {
                    serving.enqueue(count_req(&busy_tenant, 0.01));
                }
            }
            let report = serving.tick();
            quiet_outcomes.extend(
                report
                    .outcomes
                    .into_iter()
                    .filter_map(|(_, o)| o.is_executed().then_some(o))
                    .take(1),
            );
        }
        (
            quiet_outcomes,
            serving.ledger(&quiet_tenant).unwrap().snapshot(),
        )
    };

    let (alone, ledger_alone) = run(false);
    let (crowded, ledger_crowded) = run(true);
    // Compare only the quiet tenant's executed outcomes/ledger.
    let quiet_alone: Vec<_> = alone
        .iter()
        .filter(|o| matches!(o, QueryOutcome::Executed { .. }))
        .collect();
    let quiet_crowded: Vec<_> = crowded
        .iter()
        .filter(|o| matches!(o, QueryOutcome::Executed { .. }))
        .collect();
    assert_eq!(quiet_alone.len(), 2);
    assert_eq!(
        ledger_alone.spent.epsilon.to_bits(),
        ledger_crowded.spent.epsilon.to_bits()
    );
    // First executed value for the quiet tenant is bit-identical.
    match (quiet_alone.first(), quiet_crowded.first()) {
        (
            Some(QueryOutcome::Executed { value: a, .. }),
            Some(QueryOutcome::Executed { value: b, .. }),
        ) => assert_eq!(a, b, "quiet tenant's release changed with foreign traffic"),
        other => panic!("expected executed outcomes, got {other:?}"),
    }
}

#[test]
fn a_tenant_that_only_sees_rejections_spends_exactly_zero() {
    // Every request is over the cap, so each one is rejected at
    // admission and none may leave a trace on the ledger.
    const REQUESTS: usize = 512;
    let mut serving = ServingLoop::new(config(4)).unwrap();
    serving
        .register_tenant("starved", values(64), 0.0, 1.0, cap(0.05))
        .unwrap();
    for _ in 0..REQUESTS {
        serving.enqueue(count_req("starved", 0.5));
    }
    let mut rejected = 0;
    while serving.queue_depth() > 0 {
        let report = serving.tick_bounded(4_096);
        assert_eq!(report.executed(), 0);
        rejected += report.rejected();
    }
    assert_eq!(rejected, REQUESTS);
    let ledger = serving.ledger("starved").unwrap();
    let snap = ledger.snapshot();
    assert_eq!(snap.spent.epsilon.to_bits(), 0.0f64.to_bits());
    assert_eq!(snap.operations, 0);
    assert_eq!(ledger.rejected(), REQUESTS as u64);
}

/// Build a fleet with per-shard crashable WALs under `plan`, run a
/// fixed workload (2 tenants on distinct shards, 2 ticks + an SVT
/// session on the victim), and return (fleet, per-shard durable
/// images, victim tenant, sibling tenant).
fn run_durable_workload(plan: &FleetCrashPlan) -> (ServingLoop, Vec<MemoryWal>, String, String) {
    let shards = plan.shards();
    let router = ShardRouter::new(shards).unwrap();
    let victim = tenant_on(&router, plan.crashing_shard().unwrap_or(0), "victim");
    let sibling = tenant_on(
        &router,
        (plan.crashing_shard().unwrap_or(0) + 1) % shards,
        "sibling",
    );

    let mut storages = Vec::new();
    let mut handles = Vec::new();
    for k in 0..shards {
        let (storage, handle) = CrashableWal::new(plan.shard(k));
        storages.push(storage);
        handles.push(handle);
    }
    let mut serving = ServingLoop::new(config(shards)).unwrap();
    serving
        .attach_wal(storages, FsyncPolicy::EveryAppend)
        .unwrap();
    serving
        .register_tenant(&victim, values(50), 0.0, 1.0, cap(1.0))
        .unwrap();
    serving
        .register_tenant(&sibling, values(50), 0.0, 1.0, cap(1.0))
        .unwrap();

    // Tick 1: two committed charges per tenant.
    for _ in 0..2 {
        serving.enqueue(count_req(&victim, 0.1));
        serving.enqueue(count_req(&sibling, 0.1));
    }
    let r1 = serving.tick();
    assert_eq!(r1.executed(), 4);
    // Tick 2: one more charge on the victim only.
    serving.enqueue(count_req(&victim, 0.05));
    let r2 = serving.tick();
    assert_eq!(r2.executed(), 1);
    (serving, handles, victim, sibling)
}

/// Victim-shard appends in the reference durable workload:
/// 0 DatasetRegistered, 1-2 Intents (tick 1), 3-4 Commits,
/// 5 Intent (tick 2), 6 Commit.
const VICTIM_LAST_INTENT: u64 = 5;

#[test]
fn shard_crash_recovery_is_bit_identical_to_oracle_and_fail_closed() {
    let _guard = thread_lock();
    let shards = 4;

    // Crash-free oracle: full log, recovery reproduces the live ledger.
    dplearn_parallel::set_thread_count(1);
    let (oracle_live, oracle_handles, victim, _) =
        run_durable_workload(&FleetCrashPlan::never(shards));
    let victim_shard = oracle_live.tenant_shard(&victim);
    let oracle_spent = oracle_live
        .ledger(&victim)
        .unwrap()
        .snapshot()
        .spent
        .epsilon;
    let oracle_recovered = Engine::recover(
        config(shards).shard_engine_config(victim_shard),
        MemoryWal::from_bytes(oracle_handles[victim_shard].bytes()),
    )
    .unwrap();
    let oracle_digest = oracle_recovered.durability_digest();

    // Crash after the last commit: the durable image is complete, so
    // recovery must be bit-identical to the crash-free oracle.
    let full_crash =
        FleetCrashPlan::crash_shard(shards, victim_shard, CrashPoint::AfterAppend(6)).unwrap();
    for threads in [1usize, 2, 8] {
        dplearn_parallel::set_thread_count(threads);
        let (_live, handles, v, _) = run_durable_workload(&full_crash);
        assert_eq!(v, victim);
        let recovered = Engine::recover(
            config(shards).shard_engine_config(victim_shard),
            MemoryWal::from_bytes(handles[victim_shard].bytes()),
        )
        .unwrap();
        assert_eq!(
            recovered.durability_digest(),
            oracle_digest,
            "post-commit crash recovery must be bit-identical at {threads} threads"
        );
    }

    // Crash between the last intent and its commit: fail-closed
    // recovery charges the intent conservatively and poisons.
    let torn_crash = FleetCrashPlan::crash_shard(
        shards,
        victim_shard,
        CrashPoint::AfterAppend(VICTIM_LAST_INTENT),
    )
    .unwrap();
    let mut digests = Vec::new();
    for threads in [1usize, 2, 8] {
        dplearn_parallel::set_thread_count(threads);
        let (_live, handles, _, _) = run_durable_workload(&torn_crash);
        let mut recovered = Engine::recover(
            config(shards).shard_engine_config(victim_shard),
            MemoryWal::from_bytes(handles[victim_shard].bytes()),
        )
        .unwrap();
        assert_eq!(recovered.recovered_pending(), vec![victim.as_str()]);
        // Re-supplying the data (same name, same cap) re-arms the
        // recovered ledger.
        recovered
            .register_dataset(&victim, values(50), 0.0, 1.0, cap(1.0))
            .unwrap();
        let ledger = recovered
            .ledger(&victim)
            .unwrap_or_else(|| panic!("victim ledger must be recovered"));
        // The unresolved intent's ε equals the executed charge, so the
        // conservative spend matches the live ledger bit-for-bit.
        assert_eq!(
            ledger.snapshot().spent.epsilon.to_bits(),
            oracle_spent.to_bits()
        );
        assert!(
            ledger.is_poisoned(),
            "fail-closed: unresolved intent poisons"
        );
        assert_eq!(
            ledger.poison_reason(),
            Some(PoisonReason::ConservativeRecovery)
        );
        assert_eq!(ledger.conservative(), 1);
        digests.push(recovered.durability_digest());
    }
    digests.dedup();
    assert_eq!(digests.len(), 1, "recovery must be thread-count invariant");
    dplearn_parallel::set_thread_count(0);
}

#[test]
fn crashed_shard_recovers_in_place_while_siblings_keep_serving() {
    let _guard = thread_lock();
    dplearn_parallel::set_thread_count(2);
    let shards = 3;
    let router = ShardRouter::new(shards).unwrap();
    let victim_shard = 1;
    let plan = FleetCrashPlan::crash_shard(
        shards,
        victim_shard,
        CrashPoint::AfterAppend(VICTIM_LAST_INTENT),
    )
    .unwrap();
    // Rebuild the workload with the victim on shard 1.
    let victim = tenant_on(&router, victim_shard, "victim");
    let (mut serving, handles, v, sibling) = run_durable_workload(&plan);
    assert_eq!(v, victim);
    let sibling_spent_before = serving.ledger(&sibling).unwrap().snapshot().spent.epsilon;

    // The victim shard "dies"; recover it in place from what its WAL
    // durably holds. Siblings are untouched.
    serving
        .recover_shard(
            victim_shard,
            MemoryWal::from_bytes(handles[victim_shard].bytes()),
        )
        .unwrap();
    assert_eq!(
        serving
            .shard_engine(victim_shard)
            .unwrap()
            .recovered_pending(),
        vec![victim.as_str()]
    );
    assert_eq!(
        serving
            .ledger(&sibling)
            .unwrap()
            .snapshot()
            .spent
            .epsilon
            .to_bits(),
        sibling_spent_before.to_bits(),
        "sibling ledgers must not change when another shard recovers"
    );

    // Siblings keep serving through and after the recovery.
    serving.enqueue(count_req(&sibling, 0.1));
    // The victim's data is not re-registered yet: its requests reject
    // with zero spend.
    serving.enqueue(count_req(&victim, 0.1));
    let report = serving.tick();
    assert_eq!(report.executed(), 1);
    assert_eq!(report.rejected(), 1);

    // Re-register the victim's data (same cap): the recovered ledger
    // re-arms poisoned, and the poison *reason* surfaces in the fleet
    // report for triage.
    serving
        .register_tenant(&victim, values(50), 0.0, 1.0, cap(1.0))
        .unwrap();
    let fleet = serving.report().unwrap();
    let poisoned = fleet.poisoned_tenants();
    assert_eq!(
        poisoned,
        vec![(
            victim.as_str(),
            PoisonReason::ConservativeRecovery.to_string()
        )]
    );
    assert_eq!(fleet.totals.poisoned, 1);
    // The sibling is healthy in the same report.
    assert!(!fleet.tenant(&sibling).unwrap().poisoned);
    dplearn_parallel::set_thread_count(0);
}

#[test]
fn svt_sessions_route_suspend_and_resume_across_shards() {
    let shards = 3;
    let router = ShardRouter::new(shards).unwrap();
    let tenant_a = tenant_on(&router, 0, "svt-a");
    let tenant_b = tenant_on(&router, 2, "svt-b");
    let mut serving = ServingLoop::new(config(shards)).unwrap();
    serving
        .register_tenant(&tenant_a, values(60), 0.0, 1.0, cap(1.0))
        .unwrap();
    serving
        .register_tenant(&tenant_b, values(60), 0.0, 1.0, cap(1.0))
        .unwrap();

    // Two concurrent sessions on different shards. The threshold sits
    // far above any probe count so answers stay Below and the sessions
    // survive several probes (SVT halts at the first Above).
    let ha = serving.svt_open(&tenant_a, 500.0, 0.1).unwrap();
    let hb = serving.svt_open(&tenant_b, 500.0, 0.1).unwrap();
    assert_eq!(ha.shard, 0);
    assert_eq!(hb.shard, 2);
    let _ = serving.svt_query(ha, 0.0, 1.0).unwrap();
    let _ = serving.svt_query(hb, 0.0, 1.0).unwrap();

    // Suspend A on its shard, resume it there: the session continues.
    let (owner, state) = serving.svt_suspend(ha).unwrap();
    assert_eq!(owner, tenant_a);
    let ha2 = serving.svt_resume(&tenant_a, state).unwrap();
    assert_eq!(ha2.shard, 0, "resume lands on the owning shard");
    let _ = serving.svt_query(ha2, 0.0, 1.0).unwrap();

    // B's session was untouched by A's suspend/resume.
    let _ = serving.svt_query(hb, 0.0, 1.0).unwrap();

    // The whole-session charge landed once per tenant.
    for tenant in [&tenant_a, &tenant_b] {
        let snap = serving.ledger(tenant).unwrap().snapshot();
        assert_eq!(snap.spent.epsilon.to_bits(), 0.1f64.to_bits());
    }
}

#[test]
fn svt_resume_is_refused_on_a_conservatively_charged_tenant() {
    let shards = 2;
    let router = ShardRouter::new(shards).unwrap();
    let tenant = tenant_on(&router, 1, "svt-crash");
    // Appends on shard 1: 0 registration, 1 svt intent, 2 commit,
    // 3 SvtSuspended, 4 batch intent, 5 commit. Crashing after
    // append 4 leaves the intent unresolved -> conservative charge.
    let (healthy, _h0) = CrashableWal::new(CrashPlan::never());
    let (storage, handle) = CrashableWal::new(CrashPlan::at(CrashPoint::AfterAppend(4)).unwrap());

    let mut serving = ServingLoop::new(config(shards)).unwrap();
    serving
        .attach_wal(vec![healthy, storage], FsyncPolicy::EveryAppend)
        .unwrap();
    serving
        .register_tenant(&tenant, values(50), 0.0, 1.0, cap(1.0))
        .unwrap();
    let h = serving.svt_open(&tenant, 20.0, 0.1).unwrap();
    let _ = serving.svt_query(h, 0.0, 1.0).unwrap();
    let (_, state) = serving.svt_suspend(h).unwrap();
    serving.enqueue(count_req(&tenant, 0.2));
    let r = serving.tick();
    assert_eq!(r.executed(), 1);

    // Crash + recover shard 1 from its durable image.
    serving
        .recover_shard(1, MemoryWal::from_bytes(handle.bytes()))
        .unwrap();
    serving
        .register_tenant(&tenant, values(50), 0.0, 1.0, cap(1.0))
        .unwrap();
    let ledger = serving.ledger(&tenant).unwrap();
    assert!(ledger.is_poisoned());
    assert_eq!(
        ledger.poison_reason(),
        Some(PoisonReason::ConservativeRecovery)
    );

    // Resuming the suspended session on the conservatively-charged
    // tenant is refused — the transcript can no longer be trusted
    // against the budget.
    match serving.svt_resume(&tenant, state) {
        Err(ServeError::Engine(EngineError::DatasetPoisoned(name))) => {
            assert_eq!(name, tenant);
        }
        other => panic!("expected DatasetPoisoned refusal, got {other:?}"),
    }
}

#[test]
fn recover_rebuilds_a_whole_fleet_from_per_shard_logs() {
    let shards = 2;
    let router = ShardRouter::new(shards).unwrap();
    let t0 = tenant_on(&router, 0, "fleet");
    let t1 = tenant_on(&router, 1, "fleet");
    let storages: Vec<MemoryWal> = (0..shards).map(|_| MemoryWal::new()).collect();
    let handles: Vec<MemoryWal> = storages.iter().map(MemoryWal::handle).collect();

    let mut serving = ServingLoop::new(config(shards)).unwrap();
    serving
        .attach_wal(storages, FsyncPolicy::EveryAppend)
        .unwrap();
    serving
        .register_tenant(&t0, values(30), 0.0, 1.0, cap(1.0))
        .unwrap();
    serving
        .register_tenant(&t1, values(30), 0.0, 1.0, cap(1.0))
        .unwrap();
    serving.enqueue(count_req(&t0, 0.25));
    serving.enqueue(count_req(&t1, 0.125));
    assert_eq!(serving.tick().executed(), 2);
    let digest_before = serving.durability_digest();
    drop(serving); // the whole process dies

    let mut recovered = ServingLoop::recover(
        config(shards),
        handles
            .iter()
            .map(|h| MemoryWal::from_bytes(h.bytes()))
            .collect(),
        FsyncPolicy::EveryAppend,
    )
    .unwrap();
    recovered
        .register_tenant(&t0, values(30), 0.0, 1.0, cap(1.0))
        .unwrap();
    recovered
        .register_tenant(&t1, values(30), 0.0, 1.0, cap(1.0))
        .unwrap();
    assert_eq!(recovered.durability_digest(), digest_before);
    assert_eq!(
        recovered
            .ledger(&t0)
            .unwrap()
            .snapshot()
            .spent
            .epsilon
            .to_bits(),
        0.25f64.to_bits()
    );
    // The recovered fleet keeps serving.
    recovered.enqueue(count_req(&t1, 0.05));
    assert_eq!(recovered.tick().executed(), 1);
}
