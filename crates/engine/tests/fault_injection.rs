//! Fault-injection suite for the serving engine.
//!
//! The acceptance bar: rejected and faulting requests **provably spend
//! zero budget at admission time**, and a fault that lands after a
//! charge is contained — the charge stays spent, the dataset's ledger
//! poisons, and every other dataset keeps serving. All five
//! [`FaultClass`]es are driven through the engine twice: once through
//! request *parameters* (caught at admission, zero spend) and once
//! through a registered faulty mechanism's *releases* (caught at
//! post-processing, charge kept, ledger poisoned).

use dplearn_engine::engine::{Engine, EngineConfig};
use dplearn_engine::mechanism::QueryMechanism;
use dplearn_engine::request::{QueryKind, QueryOutcome, QueryRequest};
use dplearn_engine::wal::{self, DurabilityError, FsyncPolicy, MemoryWal, WalResult, WalStorage};
use dplearn_engine::{Dataset, EngineError};
use dplearn_mechanisms::privacy::Budget;
use dplearn_numerics::rng::Rng;
use dplearn_robust::fault::FaultClass;
use dplearn_robust::retry::RetryPolicy;
use dplearn_telemetry::{MemoryRecorder, Recorder};
use std::sync::Arc;

fn engine(cap_eps: f64) -> Engine {
    let config = EngineConfig {
        retry: RetryPolicy {
            max_attempts: 3,
            base_iters: 1,
            growth: 1.0,
            damping: 1.0,
        },
        ..EngineConfig::default()
    };
    let mut e = Engine::new(config).unwrap();
    let values: Vec<f64> = (0..100).map(|i| (i % 10) as f64 / 10.0).collect();
    e.register_dataset(
        "main",
        values,
        0.0,
        1.0,
        Budget::new(cap_eps, 1e-6).unwrap(),
    )
    .unwrap();
    e
}

/// Every fault-class value, injected as the request's ε parameter, is
/// rejected at admission — before any charge. NaN/±∞/−MAX are invalid
/// epsilons; the subnormal overflows the Laplace noise scale to +∞; and
/// +MAX is a *valid* epsilon that admission control rejects as
/// over-budget. In all cases the ledger must show zero spend.
#[test]
fn fault_class_parameters_spend_zero_budget() {
    let mut e = engine(1.0);
    let mut requests = Vec::new();
    for class in FaultClass::ALL {
        // Both parities: sign-alternating classes inject ±MAX / ±5e-324.
        for k in 0..2 {
            requests.push(QueryRequest::new(
                "main",
                QueryKind::LaplaceCount {
                    lo: 0.0,
                    hi: 1.0,
                    epsilon: class.value(k),
                },
            ));
        }
    }
    let report = e.run_batch(&requests);
    assert_eq!(report.outcomes.len(), 10);
    for (i, out) in report.outcomes.iter().enumerate() {
        assert!(
            out.is_rejected(),
            "request {i} must be rejected, got {out:?}"
        );
        assert_eq!(out.spent().epsilon, 0.0);
        assert_eq!(out.spent().delta, 0.0);
    }
    let ledger = e.ledger("main").unwrap();
    assert_eq!(ledger.snapshot().spent.epsilon, 0.0, "no charge may land");
    assert_eq!(ledger.snapshot().operations, 0);
    assert_eq!(ledger.history().len(), 0);
    assert_eq!(ledger.rejected(), 10);
    assert!(!ledger.is_poisoned(), "admission rejections never poison");

    // The dataset still serves fine after the barrage.
    let ok = e.submit(&QueryRequest::new(
        "main",
        QueryKind::LaplaceCount {
            lo: 0.0,
            hi: 1.0,
            epsilon: 0.5,
        },
    ));
    assert!(ok.is_executed());
}

/// A mechanism whose releases carry an injected fault value.
struct FaultyMechanism {
    class: FaultClass,
}

impl QueryMechanism for FaultyMechanism {
    fn name(&self) -> &'static str {
        "faulty"
    }

    fn admit(&self, _kind: &QueryKind, _dataset: &Dataset) -> Result<Budget, EngineError> {
        Budget::new(0.25, 0.0).map_err(EngineError::Mechanism)
    }

    fn execute(
        &self,
        _kind: &QueryKind,
        _dataset: &Dataset,
        rng: &mut dyn Rng,
    ) -> Result<dplearn_engine::QueryValue, EngineError> {
        // Consume randomness like a real mechanism, then release the
        // injected fault on every attempt.
        let k = (rng.next_f64() * 2.0) as usize;
        Ok(dplearn_engine::QueryValue::Scalar(self.class.value(k)))
    }
}

/// All five fault classes, released mid-flight by a charged mechanism:
/// the engine retries on fresh substreams, classifies the terminal
/// fault, keeps the charge (fail-closed), and poisons exactly the
/// faulted dataset — sibling datasets keep serving.
#[test]
fn mid_flight_faults_poison_only_their_dataset_and_keep_the_charge() {
    let mut e = engine(1.0);
    let values: Vec<f64> = (0..50).map(|i| i as f64 / 50.0).collect();
    for class in FaultClass::ALL {
        let name = format!("victim_{class}");
        e.register_dataset(
            &name,
            values.clone(),
            0.0,
            1.0,
            Budget::new(1.0, 1e-6).unwrap(),
        )
        .unwrap();
    }

    for class in FaultClass::ALL {
        e.register_mechanism(Arc::new(FaultyMechanism { class }));
        let name = format!("victim_{class}");
        let out = e.submit(&QueryRequest::new(
            &name,
            QueryKind::Custom {
                mechanism: "faulty".to_string(),
                params: vec![],
            },
        ));
        match out {
            QueryOutcome::Faulted {
                error,
                cost,
                attempts,
                fault,
            } => {
                assert_eq!(
                    fault,
                    Some(class),
                    "terminal fault must classify as {class}"
                );
                assert!(matches!(error, EngineError::NonFiniteRelease(c) if c == class));
                assert!((cost.epsilon - 0.25).abs() < 1e-12);
                assert_eq!(attempts, 3, "all retry attempts must be consumed");
            }
            other => panic!("{class}: expected Faulted, got {other:?}"),
        }
        let ledger = e.ledger(&name).unwrap();
        assert!(ledger.is_poisoned(), "{class}: faulted dataset must poison");
        assert!(
            (ledger.snapshot().spent.epsilon - 0.25).abs() < 1e-12,
            "{class}: the charge stays spent (fail-closed, no refund)"
        );
        assert_eq!(ledger.faulted(), 1);

        // Poisoned datasets refuse everything afterwards.
        let refused = e.submit(&QueryRequest::new(
            &name,
            QueryKind::LaplaceSum { epsilon: 0.01 },
        ));
        assert!(matches!(
            refused,
            QueryOutcome::Rejected {
                error: EngineError::DatasetPoisoned(_)
            }
        ));
    }

    // The unrelated dataset never noticed.
    let main = e.ledger("main").unwrap();
    assert!(!main.is_poisoned());
    assert_eq!(main.snapshot().spent.epsilon, 0.0);
    let ok = e.submit(&QueryRequest::new(
        "main",
        QueryKind::LaplaceSum { epsilon: 0.3 },
    ));
    assert!(ok.is_executed(), "sibling datasets keep serving");
}

/// A mechanism that errors outright (no release at all) after its charge:
/// same containment contract as a non-finite release.
struct ErroringMechanism;

impl QueryMechanism for ErroringMechanism {
    fn name(&self) -> &'static str {
        "erroring"
    }

    fn admit(&self, _kind: &QueryKind, _dataset: &Dataset) -> Result<Budget, EngineError> {
        Budget::new(0.5, 0.0).map_err(EngineError::Mechanism)
    }

    fn execute(
        &self,
        _kind: &QueryKind,
        _dataset: &Dataset,
        _rng: &mut dyn Rng,
    ) -> Result<dplearn_engine::QueryValue, EngineError> {
        Err(EngineError::InvalidParameter {
            name: "simulated",
            reason: "mid-flight failure".to_string(),
        })
    }
}

#[test]
fn hard_errors_after_charge_poison_and_keep_the_spend() {
    let mut e = engine(1.0);
    e.register_mechanism(Arc::new(ErroringMechanism));
    let out = e.submit(&QueryRequest::new(
        "main",
        QueryKind::Custom {
            mechanism: "erroring".to_string(),
            params: vec![],
        },
    ));
    match out {
        QueryOutcome::Faulted { cost, fault, .. } => {
            assert!((cost.epsilon - 0.5).abs() < 1e-12);
            assert_eq!(fault, None, "hard errors carry no fault taxonomy class");
        }
        other => panic!("expected Faulted, got {other:?}"),
    }
    let ledger = e.ledger("main").unwrap();
    assert!(ledger.is_poisoned());
    assert!((ledger.snapshot().spent.epsilon - 0.5).abs() < 1e-12);
}

/// Budget exhaustion mid-batch: the over-budget request is rejected with
/// zero spend while admitted neighbours (before *and* after it in
/// submission order) execute — admission is per-request, not
/// all-or-nothing.
#[test]
fn over_budget_requests_reject_without_partial_spend() {
    let mut e = engine(1.0);
    let batch = vec![
        QueryRequest::new("main", QueryKind::LaplaceSum { epsilon: 0.6 }),
        // 0.5 > 0.4 remaining: rejected, spends nothing.
        QueryRequest::new("main", QueryKind::LaplaceSum { epsilon: 0.5 }),
        QueryRequest::new("main", QueryKind::LaplaceSum { epsilon: 0.4 }),
    ];
    let report = e.run_batch(&batch);
    assert!(report.outcomes[0].is_executed());
    assert!(matches!(
        &report.outcomes[1],
        QueryOutcome::Rejected {
            error: EngineError::BudgetExhausted {
                requested_epsilon,
                ..
            }
        } if (requested_epsilon - 0.5).abs() < 1e-12
    ));
    assert!(report.outcomes[2].is_executed());
    let snap = e.ledger("main").unwrap().snapshot();
    assert!((snap.spent.epsilon - 1.0).abs() < 1e-9);
    assert_eq!(snap.operations, 2);
}

/// Every fault-class value, injected as a *streamed record*, is refused
/// at the append boundary fail-closed: the batch never lands (epoch,
/// length, and sufficient statistics unchanged), no budget moves, and
/// an open continual counter never observes the poisoned batch as a
/// step. A valid batch afterwards still flows — ingest recovers.
#[test]
fn fault_class_records_are_refused_at_the_append_boundary() {
    let mut e = engine(1.0);
    let sid = e.continual_open("main", 0.5, 8).unwrap();
    e.append_dataset("main", &[0.25, 0.75]).unwrap();
    let before_epoch = e.dataset("main").unwrap().epoch();
    let before_len = e.dataset("main").unwrap().len();
    let before_sum = e.dataset("main").unwrap().stats().sum().to_bits();

    for class in FaultClass::ALL {
        for k in 0..2 {
            let v = class.value(k);
            // Subnormals of either sign sit inside [0,1] ∪ its mirror:
            // only the in-domain one is *accepted*; every non-finite or
            // out-of-domain injection must be refused with a typed
            // error.
            let result = e.append_dataset("main", &[0.5, v, 0.5]);
            if (0.0..=1.0).contains(&v) {
                continue; // in-domain: legitimately accepted
            }
            match result {
                Err(EngineError::InvalidParameter { .. }) => {}
                other => panic!("{class:?} value {v:e} must fail typed, got {other:?}"),
            }
        }
    }

    // Nothing moved: no partial batch, no epoch bump, no counter step
    // beyond the single valid batch, no budget change.
    let d = e.dataset("main").unwrap();
    assert_eq!(d.epoch(), before_epoch + 1); // +1: the in-domain subnormal batch
    assert_eq!(d.len(), before_len + 3);
    let _ = before_sum; // sum changed only by the accepted batch
    assert_eq!(e.continual_steps(sid).unwrap(), 2);
    assert!((e.ledger("main").unwrap().snapshot().spent.epsilon - 0.5).abs() < 1e-12);

    // Ingest recovers: a clean batch still appends and is observed.
    e.append_dataset("main", &[0.1, 0.9]).unwrap();
    assert_eq!(e.continual_steps(sid).unwrap(), 3);
}

/// Storage whose `fail_at`-th append (0-based) returns an i/o error and
/// persists nothing, while every other append lands. Unlike
/// `CrashableWal`, the process lives on, so the engine sees each
/// failure and must stay consistent with what did reach the log.
struct FailingWal {
    fail_at: u64,
    appends: u64,
    log: MemoryWal,
}

impl WalStorage for FailingWal {
    fn append(&mut self, frame: &[u8]) -> WalResult<()> {
        let index = self.appends;
        self.appends += 1;
        if index == self.fail_at {
            return Err(DurabilityError::Io("injected append failure".to_string()));
        }
        self.log.append(frame)
    }

    fn flush(&mut self) -> WalResult<()> {
        Ok(())
    }

    fn snapshot(&self) -> WalResult<Vec<u8>> {
        self.log.snapshot()
    }

    fn truncate(&mut self, len: usize) -> WalResult<()> {
        self.log.truncate(len)
    }
}

fn sweep_values(name: &str) -> Vec<f64> {
    let n = if name == "a" { 100 } else { 50 };
    (0..n).map(|i| (i % 10) as f64 / 10.0).collect()
}

fn sweep_cap() -> Budget {
    Budget::new(1.0, 1e-6).unwrap()
}

fn error_kind(e: &EngineError) -> &'static str {
    match e {
        EngineError::Durability(_) => "durability",
        EngineError::DatasetPoisoned(_) => "poisoned",
        EngineError::UnknownDataset(_) => "unknown_dataset",
        EngineError::UnknownSession(_) => "unknown_session",
        EngineError::BudgetExhausted { .. } => "exhausted",
        _ => "other",
    }
}

fn result_label<T: std::fmt::Debug>(r: &Result<T, EngineError>) -> String {
    match r {
        Ok(v) => format!("ok({v:?})"),
        Err(e) => format!("err({})", error_kind(e)),
    }
}

fn outcome_label(out: &QueryOutcome) -> String {
    match out {
        QueryOutcome::Executed { .. } => "executed".to_string(),
        QueryOutcome::Faulted { fault, .. } => format!("faulted({fault:?})"),
        QueryOutcome::Rejected { error } => format!("rejected({})", error_kind(error)),
    }
}

/// Appends the mixed sequence makes when none fails: two registrations,
/// a batch's two intents plus commit / poison / commit, the SVT
/// session's intent, commit and suspension, the continual counter's
/// intent, commit and open record, and one stream append.
const SEQUENCE_APPENDS: u64 = 14;

/// Run the mixed sequence over storage that fails append `fail_at`.
/// Returns the live engine, a one-line transcript of every outcome and
/// of the resulting state, and the durable log bytes. An engine whose
/// log could not be attached stops after the attach: it serves nothing
/// without its log.
fn failing_append_run(fail_at: u64) -> (Engine, String, Vec<u8>) {
    let log = MemoryWal::new();
    let recorder = Arc::new(MemoryRecorder::new());
    let mut e = Engine::new(EngineConfig::default()).unwrap();
    e.set_recorder(recorder.clone());
    e.register_mechanism(Arc::new(FaultyMechanism {
        class: FaultClass::Nan,
    }));
    e.register_dataset("a", sweep_values("a"), 0.0, 1.0, sweep_cap())
        .unwrap();
    let storage = FailingWal {
        fail_at,
        appends: 0,
        log: log.handle(),
    };
    let attach = e.attach_wal(storage, FsyncPolicy::EveryAppend);
    let mut steps = vec![format!("attach {}", result_label(&attach))];
    if attach.is_ok() {
        let reg = e.register_dataset("b", sweep_values("b"), 0.0, 1.0, sweep_cap());
        steps.push(format!("register {}", result_label(&reg)));
        let batch = e.run_batch(&[
            QueryRequest::new("a", QueryKind::LaplaceSum { epsilon: 0.1 }),
            QueryRequest::new(
                "b",
                QueryKind::Custom {
                    mechanism: "faulty".to_string(),
                    params: vec![],
                },
            ),
        ]);
        let outcomes: Vec<String> = batch.outcomes.iter().map(outcome_label).collect();
        steps.push(format!("batch [{}]", outcomes.join(", ")));
        let svt = e.svt_open("a", 50.0, 0.2);
        steps.push(format!("svt_open {}", result_label(&svt)));
        if let Ok(id) = svt {
            let suspended = e.svt_suspend(id).map(|_| ());
            steps.push(format!("svt_suspend {}", result_label(&suspended)));
        }
        let counter = e.continual_open("a", 0.3, 4);
        steps.push(format!("continual_open {}", result_label(&counter)));
        let appended = e.append_dataset("a", &[0.5, 0.25]);
        steps.push(format!("append {}", result_label(&appended)));
    }
    for name in ["a", "b"] {
        steps.push(match e.ledger(name) {
            Some(l) => format!(
                "{name}: spent={:?} rejected={} faulted={} poison={}",
                l.snapshot().spent.epsilon,
                l.rejected(),
                l.faulted(),
                l.poison_reason()
                    .map_or_else(|| "healthy".to_string(), |r| r.to_string()),
            ),
            None => format!("{name}: absent"),
        });
    }
    let snap = recorder.snapshot().unwrap();
    let append_errors = snap
        .counters
        .iter()
        .find(|(k, _)| k == "wal.append_errors")
        .map_or(0, |(_, v)| *v);
    steps.push(format!("append_errors={append_errors}"));
    let bytes = log.bytes();
    steps.push(format!("log={}B/{:08x}", bytes.len(), wal::crc32(&bytes)));
    (e, steps.join("; "), bytes)
}

/// The outcome of failing each append position in turn (index = the
/// failing append).
const FAILING_APPEND_EXPECTED: [&str; SEQUENCE_APPENDS as usize] = [
    // 0: DatasetRegistered(a), written by attach
    "attach err(durability); \
     a: spent=0.0 rejected=0 faulted=0 poison=healthy; \
     b: absent; \
     append_errors=0; log=0B/00000000",
    // 1: DatasetRegistered(b)
    "attach ok(()); register err(durability); \
     batch [executed, rejected(unknown_dataset)]; svt_open ok(1); \
     svt_suspend ok(()); continual_open ok(2); append ok(1); \
     a: spent=0.6000000000000001 rejected=0 faulted=0 poison=healthy; \
     b: absent; \
     append_errors=0; log=300B/8d263454",
    // 2: Intent(0, a): the executed request
    "attach ok(()); register ok(()); \
     batch [rejected(durability), faulted(Some(Nan))]; svt_open ok(1); \
     svt_suspend ok(()); continual_open ok(2); append ok(1); \
     a: spent=0.5 rejected=1 faulted=0 poison=healthy; \
     b: spent=0.25 rejected=0 faulted=1 poison=numeric_fault(nan); \
     append_errors=0; log=342B/0e8f8775",
    // 3: Intent(1, b): the faulting request
    "attach ok(()); register ok(()); batch [executed, rejected(durability)]; \
     svt_open ok(1); svt_suspend ok(()); continual_open ok(2); append ok(1); \
     a: spent=0.6000000000000001 rejected=0 faulted=0 poison=healthy; \
     b: spent=0.0 rejected=1 faulted=0 poison=healthy; \
     append_errors=0; log=328B/33d999fa",
    // 4: Commit(0)
    "attach ok(()); register ok(()); batch [executed, faulted(Some(Nan))]; \
     svt_open err(poisoned); continual_open err(poisoned); append ok(1); \
     a: spent=0.1 rejected=2 faulted=1 poison=durability_failure; \
     b: spent=0.25 rejected=0 faulted=1 poison=numeric_fault(nan); \
     append_errors=1; log=199B/8f3b2180",
    // 5: Poison(b, nan). No Commit follows a Poison that did not land,
    // so the log holds neither and recovery poisons `b` conservatively.
    "attach ok(()); register ok(()); batch [executed, faulted(Some(Nan))]; \
     svt_open ok(1); svt_suspend ok(()); continual_open ok(2); append ok(1); \
     a: spent=0.6000000000000001 rejected=0 faulted=0 poison=healthy; \
     b: spent=0.25 rejected=0 faulted=1 poison=numeric_fault(nan); \
     append_errors=1; log=364B/3eeabfda",
    // 6: Commit(1)
    "attach ok(()); register ok(()); batch [executed, faulted(Some(Nan))]; \
     svt_open ok(1); svt_suspend ok(()); continual_open ok(2); append ok(1); \
     a: spent=0.6000000000000001 rejected=0 faulted=0 poison=healthy; \
     b: spent=0.25 rejected=0 faulted=1 poison=numeric_fault(nan); \
     append_errors=1; log=378B/7467aadf",
    // 7: Intent(2, a): svt_open
    "attach ok(()); register ok(()); batch [executed, faulted(Some(Nan))]; \
     svt_open err(durability); continual_open ok(1); append ok(1); \
     a: spent=0.4 rejected=1 faulted=0 poison=healthy; \
     b: spent=0.25 rejected=0 faulted=1 poison=numeric_fault(nan); \
     append_errors=0; log=305B/96355802",
    // 8: Commit(2)
    "attach ok(()); register ok(()); batch [executed, faulted(Some(Nan))]; \
     svt_open ok(1); svt_suspend ok(()); continual_open err(poisoned); append ok(1); \
     a: spent=0.30000000000000004 rejected=1 faulted=1 poison=durability_failure; \
     b: spent=0.25 rejected=0 faulted=1 poison=numeric_fault(nan); \
     append_errors=1; log=289B/efd44276",
    // 9: SvtSuspended(1)
    "attach ok(()); register ok(()); batch [executed, faulted(Some(Nan))]; \
     svt_open ok(1); svt_suspend err(durability); continual_open ok(2); \
     append ok(1); \
     a: spent=0.6000000000000001 rejected=0 faulted=0 poison=healthy; \
     b: spent=0.25 rejected=0 faulted=1 poison=numeric_fault(nan); \
     append_errors=0; log=358B/98aa818a",
    // 10: Intent(3, a): continual_open
    "attach ok(()); register ok(()); batch [executed, faulted(Some(Nan))]; \
     svt_open ok(1); svt_suspend ok(()); continual_open err(durability); \
     append ok(1); \
     a: spent=0.30000000000000004 rejected=1 faulted=0 poison=healthy; \
     b: spent=0.25 rejected=0 faulted=1 poison=numeric_fault(nan); \
     append_errors=0; log=306B/745b8407",
    // 11: Commit(3)
    "attach ok(()); register ok(()); batch [executed, faulted(Some(Nan))]; \
     svt_open ok(1); svt_suspend ok(()); continual_open ok(2); append ok(1); \
     a: spent=0.6000000000000001 rejected=0 faulted=1 poison=durability_failure; \
     b: spent=0.25 rejected=0 faulted=1 poison=numeric_fault(nan); \
     append_errors=1; log=378B/1cad0133",
    // 12: ContinualOpened(2)
    "attach ok(()); register ok(()); batch [executed, faulted(Some(Nan))]; \
     svt_open ok(1); svt_suspend ok(()); continual_open err(durability); \
     append ok(1); \
     a: spent=0.6000000000000001 rejected=0 faulted=0 poison=healthy; \
     b: spent=0.25 rejected=0 faulted=1 poison=numeric_fault(nan); \
     append_errors=0; log=359B/7995fb58",
    // 13: DatasetAppended(a, 1)
    "attach ok(()); register ok(()); batch [executed, faulted(Some(Nan))]; \
     svt_open ok(1); svt_suspend ok(()); continual_open ok(2); \
     append err(durability); \
     a: spent=0.6000000000000001 rejected=0 faulted=0 poison=healthy; \
     b: spent=0.25 rejected=0 faulted=1 poison=numeric_fault(nan); \
     append_errors=0; log=355B/ee005302",
];

/// Fail each WAL append of one mixed sequence in turn — attach,
/// registration, a batch with an executed and a faulting request, an
/// SVT open and suspension, a continual open, and a stream append.
/// Every position pins each call's outcome, each ledger's spend,
/// rejection and fault counters and poison reason, the
/// `wal.append_errors` count, and the durable bytes. Recovering from
/// those bytes must then never report less spend than the live engine,
/// nor a healthy ledger where the live one is poisoned.
#[test]
fn each_failed_wal_append_leaves_the_log_at_least_as_conservative_as_the_live_engine() {
    let (_, _, clean) = failing_append_run(u64::MAX);
    let frames = wal::scan_frames(&clean).unwrap();
    assert_eq!(frames.records.len() as u64, SEQUENCE_APPENDS);

    let runs: Vec<(Engine, String, Vec<u8>)> =
        (0..SEQUENCE_APPENDS).map(failing_append_run).collect();
    let transcripts: Vec<&str> = runs.iter().map(|(_, t, _)| t.as_str()).collect();
    assert_eq!(
        transcripts,
        FAILING_APPEND_EXPECTED,
        "actual transcripts:\n{}",
        transcripts.join("\n")
    );

    for (k, (live, _, bytes)) in runs.iter().enumerate() {
        let mut recovered = Engine::recover(
            EngineConfig::default(),
            MemoryWal::from_bytes(bytes.clone()),
        )
        .unwrap();
        for name in live.dataset_names() {
            recovered
                .register_dataset(name, sweep_values(name), 0.0, 1.0, sweep_cap())
                .unwrap();
            let want = live.ledger(name).unwrap();
            let got = recovered.ledger(name).unwrap();
            assert!(
                got.snapshot().spent.epsilon >= want.snapshot().spent.epsilon
                    && got.snapshot().spent.delta >= want.snapshot().spent.delta,
                "append {k} fails: recovered `{name}` spent {:?} < live {:?}",
                got.snapshot().spent,
                want.snapshot().spent
            );
            assert!(
                got.is_poisoned() || !want.is_poisoned(),
                "append {k} fails: recovered `{name}` is healthy, live is poisoned ({:?})",
                want.poison_reason()
            );
        }
    }
}
