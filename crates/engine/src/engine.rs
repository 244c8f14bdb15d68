//! The query-serving runtime: admission, deterministic batch execution,
//! fault containment, and SVT session hosting.
//!
//! [`Engine::run_batch`] executes in three phases:
//!
//! 1. **Sequential admission** (submission order): resolve dataset and
//!    mechanism, fully validate the request, declare its cost, and charge
//!    the dataset's ledger. Anything that fails here is
//!    [`QueryOutcome::Rejected`] with provably zero spend.
//! 2. **Parallel execution** over `dplearn-parallel`: every request owns
//!    the RNG stream at its *submission index* from
//!    [`Xoshiro256::jump_streams`], and retry attempt `k` runs on that
//!    stream advanced by `k` [`Xoshiro256::long_jump`]s — so results are
//!    bit-identical at any `DPLEARN_THREADS`, rejected neighbours don't
//!    shift anyone's stream, and retries never replay randomness.
//! 3. **Sequential post-processing** (submission order): non-finite
//!    releases are classified against the fault taxonomy and failed
//!    closed; a request that failed after its charge poisons **its own
//!    dataset's ledger only** — the charge stays spent (fail-closed) and
//!    unrelated datasets keep serving.
//!
//! Every path that spends budget — batch admission, [`Engine::svt_open`]
//! and [`Engine::continual_open`] — charges through one durable bracket.
//! `open` admits the cost on the ledger, appends a durable
//! [`WalRecord::Intent`], then charges; `close` appends
//! [`WalRecord::Poison`] if the charged operation failed, then
//! [`WalRecord::Commit`]. Every step that can fail runs before the
//! intent, so inside the bracket only the log and the ledger can refuse.

use crate::dataset::{Dataset, StatsMode};
use crate::ledger::{BudgetLedger, LeakageLedger};
use crate::mechanism::{MechanismRegistry, QueryMechanism};
use crate::report::{BatchReport, EngineReport, EngineTotals};
use crate::request::{QueryKind, QueryOutcome, QueryRequest, QueryValue};
use crate::wal::{
    self, DurabilityError, FsyncPolicy, RecoveredCounter, WalRecord, WalStorage, WriteAheadLog,
};
use crate::{EngineError, Result};
use dplearn_mechanisms::composition::PoisonReason;
use dplearn_mechanisms::continual::TreeCounter;
use dplearn_mechanisms::privacy::Budget;
use dplearn_mechanisms::sparse_vector::{AboveThreshold, SvtAnswer, SvtSessionState};
use dplearn_numerics::rng::{Rng, SplitMix64, Xoshiro256};
use dplearn_parallel::par_map;
use dplearn_robust::fault::FaultClass;
use dplearn_robust::retry::RetryPolicy;
use dplearn_telemetry::{NoopRecorder, Recorder, SpanTimer};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Classify a released scalar against the fault taxonomy. `None` means
/// the value is a healthy finite float.
/// Stable, allocation-free label for a fault class (used as the dynamic
/// dimension of the `engine.faults` counter).
fn fault_label(class: FaultClass) -> &'static str {
    match class {
        FaultClass::Nan => "nan",
        FaultClass::PosInf => "pos_inf",
        FaultClass::NegInf => "neg_inf",
        FaultClass::Subnormal => "subnormal",
        FaultClass::ExtremeMagnitude => "extreme_magnitude",
    }
}

fn classify_release(v: f64) -> Option<FaultClass> {
    if v.is_nan() {
        Some(FaultClass::Nan)
    } else if v == f64::INFINITY {
        Some(FaultClass::PosInf)
    } else if v == f64::NEG_INFINITY {
        Some(FaultClass::NegInf)
    } else if v != 0.0 && v.abs() < f64::MIN_POSITIVE {
        Some(FaultClass::Subnormal)
    } else if v.abs() >= f64::MAX {
        Some(FaultClass::ExtremeMagnitude)
    } else {
        None
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Master seed: every batch and SVT session derives its randomness
    /// deterministically from this.
    pub seed: u64,
    /// Bounded re-execution of faulting queries; only
    /// [`RetryPolicy::max_attempts`] is consulted (each attempt runs on a
    /// fresh RNG substream, so iteration budgets don't apply).
    pub retry: RetryPolicy,
    /// Slack δ′ of the reported advanced-composition track.
    pub delta_prime: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 0xD9_1EA2_0E16,
            retry: RetryPolicy {
                max_attempts: 2,
                base_iters: 1,
                growth: 1.0,
                damping: 1.0,
            },
            delta_prime: 1e-6,
        }
    }
}

struct DatasetEntry {
    dataset: Arc<Dataset>,
    ledger: BudgetLedger,
}

struct SvtHostedSession {
    dataset: String,
    svt: AboveThreshold,
    rng: Xoshiro256,
}

struct ContinualHostedSession {
    dataset: String,
    counter: TreeCounter,
}

/// The privacy-budget-aware query-serving engine.
///
/// See the [crate docs](crate) for the architectural tour and the
/// [module docs](self) for execution semantics.
pub struct Engine {
    registry: MechanismRegistry,
    leakage: LeakageLedger,
    config: EngineConfig,
    datasets: BTreeMap<String, DatasetEntry>,
    sessions: BTreeMap<u64, SvtHostedSession>,
    batch_counter: u64,
    session_counter: u64,
    recorder: Arc<dyn Recorder>,
    wal: Option<WriteAheadLog>,
    /// Ledgers rebuilt by [`Engine::recover`] whose datasets have not
    /// been re-registered yet. The spend is real; the data is the
    /// operator's to re-supply.
    pending_recovered: BTreeMap<String, BudgetLedger>,
    /// Durably suspended SVT sessions (from a live suspend or a
    /// recovered log), by original session id.
    suspended_states: BTreeMap<u64, (String, SvtSessionState)>,
    /// Live continual-release counters, by session id (shared id space
    /// with SVT sessions).
    counters: BTreeMap<u64, ContinualHostedSession>,
    /// Stream batches recovered from the log for datasets not yet
    /// re-registered; applied in log order at re-registration.
    pending_appends: BTreeMap<String, Vec<Vec<f64>>>,
    /// Continual counters recovered from the log, re-armed when their
    /// dataset is re-registered.
    pending_counters: BTreeMap<u64, RecoveredCounter>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("datasets", &self.datasets.keys().collect::<Vec<_>>())
            .field("mechanisms", &self.registry.names())
            .field("open_sessions", &self.sessions.len())
            .field("batches_run", &self.batch_counter)
            .field("wal", &self.wal.is_some())
            .field(
                "pending_recovered",
                &self.pending_recovered.keys().collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Engine {
    /// Build an engine with the standard mechanism registry.
    pub fn new(config: EngineConfig) -> Result<Self> {
        Self::with_registry(config, MechanismRegistry::standard())
    }

    /// Build an engine with a caller-supplied registry.
    pub fn with_registry(config: EngineConfig, registry: MechanismRegistry) -> Result<Self> {
        config.retry.validate().map_err(EngineError::Robust)?;
        let leakage = LeakageLedger::new(config.delta_prime)?;
        Ok(Engine {
            registry,
            leakage,
            config,
            datasets: BTreeMap::new(),
            sessions: BTreeMap::new(),
            batch_counter: 0,
            session_counter: 0,
            recorder: Arc::new(NoopRecorder),
            wal: None,
            pending_recovered: BTreeMap::new(),
            suspended_states: BTreeMap::new(),
            counters: BTreeMap::new(),
            pending_appends: BTreeMap::new(),
            pending_counters: BTreeMap::new(),
        })
    }

    /// Attach a write-ahead log so every subsequent charge survives a
    /// crash (see the [`wal`] module docs for the guarantee).
    ///
    /// Must be called **before the first charge**: an engine that
    /// already has spend history would produce a log that under-counts
    /// on replay, so this fails closed with
    /// [`DurabilityError::AttachAfterCharges`]. Datasets registered
    /// before the attach (with pristine ledgers) are fine — their
    /// registrations are written to the log here.
    pub fn attach_wal(
        &mut self,
        storage: impl WalStorage + 'static,
        policy: FsyncPolicy,
    ) -> Result<()> {
        if self.wal.is_some() {
            return Err(EngineError::InvalidParameter {
                name: "wal",
                reason: "a write-ahead log is already attached".to_string(),
            });
        }
        let dirty = self.batch_counter > 0
            || !self.sessions.is_empty()
            || !self.suspended_states.is_empty()
            || self
                .datasets
                .values()
                .any(|e| !e.ledger.history().is_empty() || e.ledger.is_poisoned());
        if dirty {
            return Err(EngineError::Durability(DurabilityError::AttachAfterCharges));
        }
        let mut log = WriteAheadLog::new(storage, policy);
        for (name, entry) in &self.datasets {
            log.append(
                &WalRecord::DatasetRegistered {
                    dataset: name.clone(),
                    cap: entry.ledger.snapshot().cap,
                },
                self.recorder.as_ref(),
            )
            .map_err(EngineError::Durability)?;
        }
        self.wal = Some(log);
        Ok(())
    }

    /// Whether a write-ahead log is attached.
    pub fn has_wal(&self) -> bool {
        self.wal.is_some()
    }

    /// Rebuild an engine from a write-ahead log after a crash, with the
    /// standard mechanism registry and no telemetry.
    ///
    /// Every ledger the log describes comes back as **pending**: its
    /// spend, poisoned state, and fault counters are fully restored, and
    /// it is re-armed the moment [`Engine::register_dataset`] re-supplies
    /// the data under the same name (the budget cap must match the log).
    /// Durably suspended SVT sessions come back resumable via
    /// [`Engine::svt_resume_suspended`]. Unmatched intents are charged
    /// conservatively and poison their dataset; see [`wal::replay`] for
    /// the full fail-closed contract.
    pub fn recover(config: EngineConfig, storage: impl WalStorage + 'static) -> Result<Self> {
        Self::recover_with_registry(
            config,
            MechanismRegistry::standard(),
            storage,
            FsyncPolicy::EveryAppend,
            Arc::new(NoopRecorder),
        )
    }

    /// [`Engine::recover`] with a caller-supplied registry, fsync
    /// policy, and telemetry sink.
    pub fn recover_with_registry(
        config: EngineConfig,
        registry: MechanismRegistry,
        mut storage: impl WalStorage + 'static,
        policy: FsyncPolicy,
        recorder: Arc<dyn Recorder>,
    ) -> Result<Self> {
        let bytes = storage.snapshot().map_err(EngineError::Durability)?;
        let recovered = wal::replay(&bytes).map_err(EngineError::Durability)?;
        recorder.counter_add("wal.recovery.replays", "", 1);
        recorder.counter_add("wal.recovery.records", "", recovered.records as u64);
        recorder.counter_add(
            "wal.recovery.conservative_intents",
            "",
            recovered.conservative_intents,
        );
        recorder.counter_add("wal.recovery.datasets", "", recovered.ledgers.len() as u64);
        recorder.counter_add(
            "wal.recovery.sessions",
            "",
            recovered.suspended.len() as u64,
        );
        if recovered.truncated_tail {
            recorder.counter_add(
                "wal.recovery.truncated_bytes",
                "",
                bytes.len().saturating_sub(recovered.consumed) as u64,
            );
            storage
                .truncate(recovered.consumed)
                .map_err(EngineError::Durability)?;
        }
        let mut engine = Self::with_registry(config, registry)?;
        engine.recorder = recorder;
        for (name, rl) in &recovered.ledgers {
            engine.pending_recovered.insert(name.clone(), rl.restore()?);
        }
        engine.suspended_states = recovered.suspended;
        engine.pending_appends = recovered.appends;
        engine.pending_counters = recovered.counters;
        engine.recorder.counter_add(
            "wal.recovery.appends",
            "",
            engine
                .pending_appends
                .values()
                .map(|v| v.len() as u64)
                .sum(),
        );
        engine.recorder.counter_add(
            "wal.recovery.counters",
            "",
            engine.pending_counters.len() as u64,
        );
        engine.session_counter = recovered.next_session;
        let mut log = WriteAheadLog::new(storage, policy);
        log.set_next_intent(recovered.next_intent);
        engine.wal = Some(log);
        Ok(engine)
    }

    /// Datasets recovered from the log but not yet re-registered,
    /// sorted. Their ledgers are live (and included in
    /// [`Engine::report`] with `n_records = 0`); the data is not.
    pub fn recovered_pending(&self) -> Vec<&str> {
        self.pending_recovered.keys().map(String::as_str).collect()
    }

    /// A canonical byte dump of all durable accounting state —
    /// per-dataset caps, exact spend bits, charge histories, poisoned
    /// state, fault counters, and suspended sessions. Two engines with
    /// equal digests are accounting-equivalent; crash-recovery tests use
    /// this to assert replay idempotence and thread-count invariance.
    pub fn durability_digest(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut names: BTreeSet<&String> = self.datasets.keys().collect();
        names.extend(self.pending_recovered.keys());
        for name in names {
            let ledger = match self.datasets.get(name.as_str()) {
                Some(entry) => &entry.ledger,
                None => match self.pending_recovered.get(name.as_str()) {
                    Some(ledger) => ledger,
                    None => continue,
                },
            };
            let snap = ledger.snapshot();
            out.extend_from_slice(name.as_bytes());
            out.push(0);
            out.extend_from_slice(&snap.cap.epsilon.to_bits().to_le_bytes());
            out.extend_from_slice(&snap.cap.delta.to_bits().to_le_bytes());
            out.extend_from_slice(&snap.spent.epsilon.to_bits().to_le_bytes());
            out.extend_from_slice(&snap.spent.delta.to_bits().to_le_bytes());
            out.extend_from_slice(&(snap.operations as u64).to_le_bytes());
            out.push(u8::from(snap.poisoned));
            match ledger.poison_reason() {
                Some(reason) => out.extend_from_slice(reason.to_string().as_bytes()),
                None => out.extend_from_slice(b"healthy"),
            }
            out.push(0);
            out.extend_from_slice(&ledger.faulted().to_le_bytes());
            out.extend_from_slice(&ledger.conservative().to_le_bytes());
            out.extend_from_slice(&(ledger.history().len() as u64).to_le_bytes());
            for b in ledger.history() {
                out.extend_from_slice(&b.epsilon.to_bits().to_le_bytes());
                out.extend_from_slice(&b.delta.to_bits().to_le_bytes());
            }
        }
        for (id, (dataset, state)) in &self.suspended_states {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(dataset.as_bytes());
            out.push(0);
            out.extend_from_slice(&state.to_bytes());
        }
        out
    }

    /// Install a telemetry sink. The default is
    /// [`NoopRecorder`], whose per-event cost is a short-circuiting
    /// virtual call. Only *values* recorded from sequential control
    /// paths land here, so recorded metrics are bit-identical at any
    /// `DPLEARN_THREADS` (span timings excluded by design).
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = recorder;
    }

    /// The installed telemetry sink.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// Register an additional mechanism (open registry).
    pub fn register_mechanism(&mut self, mech: Arc<dyn QueryMechanism>) {
        self.registry.register(mech);
    }

    /// Register a dataset with budget cap `cap` and exact-mode
    /// statistics. The dataset can grow afterwards via
    /// [`Engine::append_dataset`]; its name, bounds, and cap are fixed.
    ///
    /// Fails closed on invalid data (see [`Dataset::new`]) and on name
    /// collisions — re-registration would silently reset the ledger.
    pub fn register_dataset(
        &mut self,
        name: &str,
        values: Vec<f64>,
        lo: f64,
        hi: f64,
        cap: Budget,
    ) -> Result<()> {
        self.register_dataset_with_mode(name, values, lo, hi, cap, StatsMode::Exact)
    }

    /// [`Engine::register_dataset`] with an explicit statistics mode —
    /// use `StatsMode::Sketch { .. }` for datasets expected to absorb
    /// large streams (see [`Dataset::with_mode`]).
    ///
    /// After crash recovery, re-registering a recovered dataset also
    /// replays its durably logged stream state: every
    /// [`WalRecord::DatasetAppended`] batch is re-applied in log order
    /// (fail closed if any batch violates the re-declared domain) and
    /// every continual counter opened on the dataset is re-armed with
    /// its original session id, noise tape, and observation history —
    /// bit-identical to the crash-free engine. Re-registration is
    /// all-or-nothing: on any error the engine and its pending recovery
    /// state are untouched, so a corrected call can be retried.
    pub fn register_dataset_with_mode(
        &mut self,
        name: &str,
        values: Vec<f64>,
        lo: f64,
        hi: f64,
        cap: Budget,
        mode: StatsMode,
    ) -> Result<()> {
        if self.datasets.contains_key(name) {
            return Err(EngineError::DuplicateDataset(name.to_string()));
        }
        let mut dataset = Dataset::with_mode(name, values, lo, hi, mode)?;
        // Replay the recovered stream BEFORE installing anything: a
        // batch outside the re-declared domain fails the whole
        // re-registration, leaving the ledger pending (fail closed).
        if let Some(batches) = self.pending_appends.get(name) {
            for batch in batches {
                dataset.append(batch)?;
            }
        }
        // Re-arm recovered continual counters on this dataset into a
        // local staging area: their ε was charged before the crash and
        // their noise tape is a pure function of (config seed, session
        // id), so replaying the logged observations reproduces every
        // release bit-for-bit. Staging keeps re-registration
        // all-or-nothing — if any counter fails to re-arm, the engine
        // is untouched (dataset unregistered, every pending_* entry
        // intact) and re-registration can be retried.
        let mut rearmed: Vec<(u64, ContinualHostedSession)> = Vec::new();
        for (&id, rc) in self
            .pending_counters
            .iter()
            .filter(|(_, c)| c.dataset == name)
        {
            let eps = dplearn_mechanisms::privacy::Epsilon::new(rc.epsilon)?;
            let mut counter = TreeCounter::new(eps, rc.horizon, self.continual_seed(id))?;
            // The live engine never observes past the horizon (ingest
            // skips exhausted counters), so cap the replay the same way
            // even if a hand-built history runs longer.
            for &step in rc.observed.iter().take(rc.horizon as usize) {
                counter.observe(step)?;
            }
            rearmed.push((
                id,
                ContinualHostedSession {
                    dataset: name.to_string(),
                    counter,
                },
            ));
        }
        let fresh_ledger = if let Some(recovered) = self.pending_recovered.get(name) {
            // Re-registration after crash recovery: the recovered ledger
            // (with its spend, poisoned state, and fault counters) is
            // installed as-is. The cap must match the durable record —
            // silently widening a recovered cap would launder spent ε.
            let logged = recovered.snapshot().cap;
            if logged.epsilon.to_bits() != cap.epsilon.to_bits()
                || logged.delta.to_bits() != cap.delta.to_bits()
            {
                return Err(EngineError::Durability(
                    DurabilityError::RecoveredCapMismatch {
                        dataset: name.to_string(),
                        logged_epsilon: logged.epsilon,
                        registered_epsilon: cap.epsilon,
                    },
                ));
            }
            // Already registered in the log — no new record.
            None
        } else {
            // The WAL append is the last fallible step; nothing has
            // mutated yet, so a durability failure leaves the engine
            // exactly as it was.
            self.log(&WalRecord::DatasetRegistered {
                dataset: name.to_string(),
                cap,
            })?;
            Some(BudgetLedger::new(cap))
        };
        // Commit point — everything below is infallible.
        let ledger = match fresh_ledger {
            Some(ledger) => ledger,
            None => self
                .pending_recovered
                .remove(name)
                .unwrap_or_else(|| BudgetLedger::new(cap)),
        };
        self.datasets.insert(
            name.to_string(),
            DatasetEntry {
                dataset: Arc::new(dataset),
                ledger,
            },
        );
        self.pending_appends.remove(name);
        for (id, hosted) in rearmed {
            self.pending_counters.remove(&id);
            self.counters.insert(id, hosted);
        }
        Ok(())
    }

    /// Append a validated batch of records to a registered dataset's
    /// stream. Durable-first: with a WAL attached, the
    /// [`WalRecord::DatasetAppended`] record is written (and flushed per
    /// policy) **before** any live state mutates, so the durable log and
    /// the live stream can never diverge — if the append record cannot
    /// be made durable, nothing changes and the error surfaces.
    ///
    /// Every open continual counter on the dataset observes the batch
    /// as one time step, all on this sequential control path (ingest
    /// telemetry and counter observations are thread-count invariant).
    /// Appending to a *poisoned* dataset is allowed: ingest is
    /// orthogonal to release accounting — the data keeps accumulating
    /// while releases stay refused.
    ///
    /// Returns the dataset's new epoch.
    pub fn append_dataset(&mut self, name: &str, values: &[f64]) -> Result<u64> {
        let entry = self
            .datasets
            .get(name)
            .ok_or_else(|| EngineError::UnknownDataset(name.to_string()))?;
        entry.dataset.validate_batch(values)?;
        let next_epoch = entry.dataset.epoch() + 1;
        let recorder = Arc::clone(&self.recorder);
        if let Some(log) = &mut self.wal {
            log.append_dataset_batch(name, next_epoch, values, recorder.as_ref())
                .map_err(EngineError::Durability)?;
        }
        let entry = self
            .datasets
            .get_mut(name)
            .ok_or_else(|| EngineError::UnknownDataset(name.to_string()))?;
        // The batch was validated above; Dataset::append re-validates
        // and cannot fail here (all-or-nothing either way).
        Arc::make_mut(&mut entry.dataset).append(values)?;
        recorder.counter_add("engine.ingest.batches", name, 1);
        recorder.counter_add("engine.ingest.records", name, values.len() as u64);
        for hosted in self.counters.values_mut() {
            if hosted.dataset != name {
                continue;
            }
            if hosted.counter.is_exhausted() {
                // The horizon the counter's ε was charged over is spent.
                // Ingest must not fail because of it — the counter just
                // stops observing (its past releases stay available).
                recorder.counter_add("engine.continual.horizon_exhausted", name, 1);
                continue;
            }
            hosted.counter.observe(values.len() as u64)?;
        }
        Ok(next_epoch)
    }

    /// Registered dataset names, sorted.
    pub fn dataset_names(&self) -> Vec<&str> {
        self.datasets.keys().map(String::as_str).collect()
    }

    /// A registered dataset.
    pub fn dataset(&self, name: &str) -> Option<&Dataset> {
        self.datasets.get(name).map(|e| e.dataset.as_ref())
    }

    /// A dataset's budget ledger (read-only).
    pub fn ledger(&self, name: &str) -> Option<&BudgetLedger> {
        self.datasets.get(name).map(|e| &e.ledger)
    }

    /// The mechanism registry (read-only).
    pub fn registry(&self) -> &MechanismRegistry {
        &self.registry
    }

    /// Serve a single request (a one-element batch; same semantics and
    /// the same per-batch seed schedule as [`Engine::run_batch`]).
    pub fn submit(&mut self, request: &QueryRequest) -> QueryOutcome {
        let mut report = self.run_batch(std::slice::from_ref(request));
        report.outcomes.pop().unwrap_or(QueryOutcome::Rejected {
            error: EngineError::InvalidParameter {
                name: "request",
                reason: "empty batch".to_string(),
            },
        })
    }

    /// Execute a batch of requests deterministically.
    ///
    /// Per-request outcomes come back in submission order. The batch is
    /// bit-identical for any thread count: request `i` always executes on
    /// RNG stream `i` of this batch's seed, whether its neighbours were
    /// admitted or not.
    pub fn run_batch(&mut self, requests: &[QueryRequest]) -> BatchReport {
        let recorder = Arc::clone(&self.recorder);
        let _batch_span = SpanTimer::new(recorder.as_ref(), "engine.batch.wall", "");
        recorder.counter_add("engine.batches", "", 1);
        recorder.counter_add("engine.requests.submitted", "", requests.len() as u64);

        let batch_seed = self.next_batch_seed();
        let max_attempts = self.config.retry.max_attempts.max(1);

        // Phase 1 — sequential admission in submission order. Charges
        // land here, before any execution, so concurrent execution can
        // never over-spend and rejection order is deterministic.
        // (Telemetry is recorded from this sequential loop — never from
        // phase 2's worker closures — which is what makes recorded
        // values thread-count invariant.)
        let streams = Xoshiro256::jump_streams(batch_seed, requests.len());
        let mut slots: Vec<Option<QueryOutcome>> = Vec::with_capacity(requests.len());
        let mut work: Vec<Option<impl_detail::AdmittedAlias>> = Vec::with_capacity(requests.len());
        for (req, rng) in requests.iter().zip(streams) {
            match self.admit_one(req, rng) {
                Ok(admitted) => {
                    recorder.counter_add("engine.requests.admitted", "", 1);
                    recorder.histogram_record(
                        "engine.request.epsilon",
                        &req.dataset,
                        admitted.cost.epsilon,
                    );
                    slots.push(None);
                    work.push(Some(admitted));
                }
                Err(error) => {
                    recorder.counter_add("engine.requests.rejected", "", 1);
                    slots.push(Some(QueryOutcome::Rejected { error }));
                    work.push(None);
                }
            }
        }

        // Phase 2 — parallel execution. Chunk boundaries and merge order
        // are fixed by `par_map`, and each request's randomness depends
        // only on (batch_seed, submission index, attempt), so the thread
        // count cannot perturb any released value.
        type ExecResult = std::result::Result<(QueryValue, usize), (EngineError, usize)>;
        let executed: Vec<Option<ExecResult>> = par_map(&work, 0, |_, slot| {
            slot.as_ref().map(|adm| {
                run_with_retries(
                    adm.mech.as_ref(),
                    &adm.kind,
                    &adm.dataset,
                    &adm.rng,
                    max_attempts,
                )
            })
        });

        // Phase 3 — sequential post-processing in submission order:
        // each charge closes its bracket, and faults poison their own
        // dataset's ledger, nothing else.
        let mut outcomes = Vec::with_capacity(requests.len());
        for (i, ((slot, result), req)) in slots.into_iter().zip(executed).zip(requests).enumerate()
        {
            if let Some(rejected) = slot {
                outcomes.push(rejected);
                continue;
            }
            let (cost, intent_seq) = work.get(i).and_then(|w| w.as_ref()).map_or(
                (
                    Budget {
                        epsilon: 0.0,
                        delta: 0.0,
                    },
                    None,
                ),
                |w| (w.cost, w.intent_seq),
            );
            match result {
                Some(Ok((value, attempts))) => {
                    recorder.counter_add("engine.requests.executed", "", 1);
                    recorder.counter_add("engine.retries", "", attempts.saturating_sub(1) as u64);
                    self.close(&req.dataset, intent_seq, None);
                    outcomes.push(QueryOutcome::Executed {
                        value,
                        cost,
                        attempts,
                    });
                }
                Some(Err((error, attempts))) => {
                    let fault = match &error {
                        EngineError::NonFiniteRelease(class) => Some(*class),
                        _ => None,
                    };
                    recorder.counter_add("engine.requests.faulted", "", 1);
                    recorder.counter_add("engine.retries", "", attempts.saturating_sub(1) as u64);
                    if let Some(class) = fault {
                        recorder.counter_add("engine.faults", fault_label(class), 1);
                    }
                    let reason = match fault {
                        Some(class) => PoisonReason::NumericFault(fault_label(class)),
                        None => PoisonReason::ChargedOperationFailed,
                    };
                    self.close(&req.dataset, intent_seq, Some(reason));
                    outcomes.push(QueryOutcome::Faulted {
                        error,
                        cost,
                        attempts,
                        fault,
                    });
                }
                // Unreachable: phase 2 maps every non-rejected slot.
                None => outcomes.push(QueryOutcome::Rejected {
                    error: EngineError::InvalidParameter {
                        name: "request",
                        reason: "executor dropped an admitted request".to_string(),
                    },
                }),
            }
        }
        // Post-batch gauges: ε spend, remaining headroom, and the
        // paper's MI bound for every dataset the batch touched. Guarded
        // by `enabled()` so the NoopRecorder path skips the summary
        // walk entirely; still sequential (submission-independent
        // BTreeSet order), so values stay thread-count invariant.
        if recorder.enabled() {
            let touched: BTreeSet<&str> = requests.iter().map(|r| r.dataset.as_str()).collect();
            for name in touched {
                let Some(entry) = self.datasets.get(name) else {
                    continue;
                };
                let snap = entry.ledger.snapshot();
                recorder.gauge_set("engine.dataset.spent_epsilon", name, snap.spent.epsilon);
                recorder.gauge_set(
                    "engine.dataset.remaining_epsilon",
                    name,
                    snap.remaining.epsilon,
                );
                match self
                    .leakage
                    .summarize(name, entry.dataset.len(), &entry.ledger)
                {
                    Ok(summary) => {
                        recorder.gauge_set(
                            "engine.dataset.mi_bound_nats",
                            name,
                            summary.mi_bound_nats,
                        );
                        recorder.gauge_set(
                            "engine.dataset.reported_epsilon",
                            name,
                            summary.reported_epsilon,
                        );
                    }
                    // A corrupted trace surfaces as a typed error from
                    // the leakage path; count it rather than lose it.
                    Err(_) => recorder.counter_add("engine.leakage.errors", name, 1),
                }
            }
        }

        BatchReport {
            outcomes,
            batch_seed,
        }
    }

    /// Validate `req` against its mechanism, then open its charge. A
    /// refusal on a registered dataset counts as a rejection.
    fn admit_one(
        &mut self,
        req: &QueryRequest,
        rng: Xoshiro256,
    ) -> Result<impl_detail::AdmittedAlias> {
        let entry = self
            .datasets
            .get_mut(&req.dataset)
            .ok_or_else(|| EngineError::UnknownDataset(req.dataset.clone()))?;
        let staged = self
            .registry
            .resolve(&req.kind)
            .and_then(|mech| Ok((mech.admit(&req.kind, &entry.dataset)?, mech)));
        let (cost, mech) = match staged {
            Ok(staged) => staged,
            Err(error) => {
                entry.ledger.note_rejection();
                return Err(error);
            }
        };
        let intent_seq = Self::open(
            &mut self.wal,
            self.recorder.as_ref(),
            &mut entry.ledger,
            &req.dataset,
            cost,
        )?;
        Ok(impl_detail::AdmittedAlias {
            mech,
            dataset: Arc::clone(&entry.dataset),
            kind: req.kind.clone(),
            cost,
            rng,
            intent_seq,
        })
    }

    fn next_batch_seed(&mut self) -> u64 {
        let mut sm = SplitMix64::new(self.config.seed ^ self.batch_counter);
        self.batch_counter += 1;
        sm.next_u64()
    }

    // ----------------------------------------------------------------
    // The durable charge bracket
    // ----------------------------------------------------------------

    /// Open a charge of `cost` on `dataset`, whose ledger is `ledger`:
    /// admit it on the ledger, append a durable [`WalRecord::Intent`] to
    /// `wal`, then charge. The intent is durable before the charge lands
    /// and long before anything runs on the charge. Any refusal counts
    /// as a rejection and spends nothing; a charge that fails after its
    /// intent appends [`WalRecord::Abort`]. Returns the intent's
    /// sequence number (`None` without a log), which [`Engine::close`]
    /// resolves. The caller's borrows are split so the batch path opens
    /// on the entry it already looked up.
    fn open(
        wal: &mut Option<WriteAheadLog>,
        recorder: &dyn Recorder,
        ledger: &mut BudgetLedger,
        dataset: &str,
        cost: Budget,
    ) -> Result<Option<u64>> {
        let opened = ledger.admit(dataset, cost).and_then(|()| {
            let seq = match wal {
                Some(log) => {
                    let seq = log.next_intent_seq();
                    let intent = WalRecord::Intent {
                        seq,
                        dataset: dataset.to_string(),
                        cost,
                    };
                    log.append(&intent, recorder)
                        .map_err(EngineError::Durability)?;
                    Some(seq)
                }
                None => None,
            };
            // Unreachable after a successful admit, but if it ever fires
            // the durable intent is resolved as never charged.
            if let Err(error) = ledger.charge(dataset, cost) {
                if let (Some(log), Some(seq)) = (wal, seq) {
                    append_resolution(log, &WalRecord::Abort { seq }, recorder);
                }
                return Err(error);
            }
            Ok(seq)
        });
        if opened.is_err() {
            ledger.note_rejection();
        }
        opened
    }

    /// [`Engine::open`] on a dataset looked up by name.
    fn open_named(&mut self, dataset: &str, cost: Budget) -> Result<Option<u64>> {
        let entry = self
            .datasets
            .get_mut(dataset)
            .ok_or_else(|| EngineError::UnknownDataset(dataset.to_string()))?;
        Self::open(
            &mut self.wal,
            self.recorder.as_ref(),
            &mut entry.ledger,
            dataset,
            cost,
        )
    }

    /// Close the charge [`Engine::open`] opened as intent `seq`: append
    /// [`WalRecord::Poison`] if the charged operation failed with
    /// `failure`, then [`WalRecord::Commit`]. A `Commit` is never written
    /// without its `Poison`: if the poison cannot be appended the intent
    /// stays open, and recovery charges it and poisons the dataset. The
    /// live ledger is poisoned with `failure`, or with
    /// [`PoisonReason::DurabilityFailure`] when the commit is not
    /// durable, so live state never claims more than the log backs. A
    /// successful close looks nothing up.
    fn close(&mut self, dataset: &str, seq: Option<u64>, failure: Option<PoisonReason>) {
        let mut committed = true;
        if let (Some(log), Some(seq)) = (&mut self.wal, seq) {
            let recorder = self.recorder.as_ref();
            let poisoned = match failure {
                Some(reason) => {
                    let poison = WalRecord::Poison {
                        dataset: dataset.to_string(),
                        reason,
                    };
                    append_resolution(log, &poison, recorder)
                }
                None => true,
            };
            committed = poisoned && append_resolution(log, &WalRecord::Commit { seq }, recorder);
        }
        let reason = match (failure, committed) {
            (Some(reason), _) => reason,
            (None, false) => PoisonReason::DurabilityFailure,
            (None, true) => return,
        };
        if let Some(entry) = self.datasets.get_mut(dataset) {
            entry.ledger.poison(reason);
        }
    }

    /// Append `record` durably before any live state changes (a no-op
    /// without a log).
    fn log(&mut self, record: &WalRecord) -> Result<()> {
        match &mut self.wal {
            Some(log) => log
                .append(record, self.recorder.as_ref())
                .map_err(EngineError::Durability),
            None => Ok(()),
        }
    }

    // ----------------------------------------------------------------
    // Hosted multi-turn SVT sessions
    // ----------------------------------------------------------------

    /// Open a hosted sparse-vector session against `dataset`.
    ///
    /// The **whole session** costs `epsilon`, charged here up front
    /// (AboveThreshold's privacy statement covers the full transcript);
    /// subsequent [`Engine::svt_query`] calls are free. Returns the
    /// session id.
    pub fn svt_open(&mut self, dataset: &str, threshold: f64, epsilon: f64) -> Result<u64> {
        if !threshold.is_finite() {
            return Err(EngineError::InvalidParameter {
                name: "threshold",
                reason: format!("must be finite, got {threshold}"),
            });
        }
        let eps = dplearn_mechanisms::privacy::Epsilon::new(epsilon)?;
        if !(4.0 / eps.value()).is_finite() {
            return Err(EngineError::InvalidParameter {
                name: "epsilon",
                reason: format!("SVT noise scales overflow at ε = {epsilon}"),
            });
        }
        // Build the session before the bracket, so nothing that runs
        // after the charge can fail.
        let mut rng = Xoshiro256::substream(
            self.config.seed ^ 0x5654_5F53_4553_5349,
            self.session_counter,
        );
        let svt = AboveThreshold::new(eps, 1.0, threshold, &mut rng)?;
        let seq = self.open_named(dataset, Budget::pure(eps))?;
        self.close(dataset, seq, None);
        self.session_counter += 1;
        let id = self.session_counter;
        self.sessions.insert(
            id,
            SvtHostedSession {
                dataset: dataset.to_string(),
                svt,
                rng,
            },
        );
        Ok(id)
    }

    /// Probe an open SVT session with a range count over `[lo, hi]`.
    /// Costs nothing — the session's ε was charged at
    /// [`Engine::svt_open`]. The session auto-closes after its first
    /// `Above` answer (one-shot AboveThreshold).
    pub fn svt_query(&mut self, session: u64, lo: f64, hi: f64) -> Result<SvtAnswer> {
        if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
            return Err(EngineError::InvalidParameter {
                name: "range",
                reason: format!("need finite lo ≤ hi, got [{lo}, {hi}]"),
            });
        }
        let hosted = self
            .sessions
            .get_mut(&session)
            .ok_or(EngineError::UnknownSession(session))?;
        let entry = self
            .datasets
            .get(&hosted.dataset)
            .ok_or_else(|| EngineError::UnknownDataset(hosted.dataset.clone()))?;
        if entry.ledger.is_poisoned() {
            return Err(EngineError::DatasetPoisoned(hosted.dataset.clone()));
        }
        let count = entry.dataset.count_in(lo, hi) as f64;
        let mut rng = hosted.rng.clone();
        let answer = hosted.svt.query(count, &mut rng)?;
        hosted.rng = rng;
        Ok(answer)
    }

    /// Suspend a session into its serializable [`SvtSessionState`] and
    /// close it. Privacy-neutral: the state carries no fresh information
    /// beyond what [`Engine::svt_open`] already charged for.
    ///
    /// Note the state contains the session's noisy threshold — a
    /// *secret* of the mechanism. Persist it server-side; releasing it
    /// would void the SVT privacy analysis.
    /// With a write-ahead log attached, the suspension is made durable
    /// before the session closes: a crash after this returns leaves the
    /// state recoverable via [`Engine::svt_resume_suspended`]. If the
    /// durable record cannot be appended the session **stays open** and
    /// the error is returned — a silently lost "resumable" session would
    /// betray the caller.
    pub fn svt_suspend(&mut self, session: u64) -> Result<(String, SvtSessionState)> {
        let hosted = self
            .sessions
            .get(&session)
            .ok_or(EngineError::UnknownSession(session))?;
        let dataset = hosted.dataset.clone();
        let state = hosted.svt.suspend();
        if self.wal.is_some() {
            self.log(&WalRecord::SvtSuspended {
                session,
                dataset: dataset.clone(),
                state,
            })?;
            self.suspended_states
                .insert(session, (dataset.clone(), state));
        }
        self.sessions.remove(&session);
        Ok((dataset, state))
    }

    /// Resume a suspended session against `dataset`. Costs nothing (the
    /// original [`Engine::svt_open`] charge covers the whole session,
    /// however it is split across suspensions). Returns the new id.
    ///
    /// Fails closed on a poisoned dataset: in particular, a dataset a
    /// crash recovery charged conservatively (an intent with no durable
    /// commit) refuses to resume its sessions — the accounting around
    /// the crash cannot be trusted enough to keep releasing through it.
    pub fn svt_resume(&mut self, dataset: &str, state: SvtSessionState) -> Result<u64> {
        let entry = self
            .datasets
            .get(dataset)
            .ok_or_else(|| EngineError::UnknownDataset(dataset.to_string()))?;
        if entry.ledger.is_poisoned() {
            return Err(EngineError::DatasetPoisoned(dataset.to_string()));
        }
        let svt = AboveThreshold::resume(state)?;
        // If this resume matches a durably suspended session, consume its
        // record so recovery won't resurrect it alongside the live one.
        let matched = self.suspended_states.iter().find_map(|(id, (ds, st))| {
            (ds == dataset && st.to_bytes() == state.to_bytes()).then_some(*id)
        });
        if let Some(id) = matched {
            self.log(&WalRecord::SvtResumed { session: id })?;
            self.suspended_states.remove(&id);
        }
        let rng = Xoshiro256::substream(
            self.config.seed ^ 0x5654_5F53_4553_5349,
            self.session_counter,
        );
        self.session_counter += 1;
        let id = self.session_counter;
        self.sessions.insert(
            id,
            SvtHostedSession {
                dataset: dataset.to_string(),
                svt,
                rng,
            },
        );
        Ok(id)
    }

    /// Resume a durably suspended session by its original id (the
    /// post-crash counterpart of holding the [`SvtSessionState`] in
    /// hand). Same semantics as [`Engine::svt_resume`], including the
    /// poisoned-dataset refusal; the dataset must have been
    /// re-registered first.
    pub fn svt_resume_suspended(&mut self, session: u64) -> Result<u64> {
        let (dataset, state) = self
            .suspended_states
            .get(&session)
            .cloned()
            .ok_or(EngineError::UnknownSession(session))?;
        self.svt_resume(&dataset, state)
    }

    /// Ids of durably suspended (crash-recoverable) sessions, sorted.
    pub fn suspended_sessions(&self) -> Vec<u64> {
        self.suspended_states.keys().copied().collect()
    }

    /// The dataset and state of a durably suspended session.
    pub fn suspended_state(&self, session: u64) -> Option<&(String, SvtSessionState)> {
        self.suspended_states.get(&session)
    }

    /// Close a session, discarding its state.
    pub fn svt_close(&mut self, session: u64) -> Result<()> {
        self.sessions
            .remove(&session)
            .map(|_| ())
            .ok_or(EngineError::UnknownSession(session))
    }

    /// Open SVT session count.
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }

    // ----------------------------------------------------------------
    // Hosted continual-release counters
    // ----------------------------------------------------------------

    /// The noise-tape seed for continual counter `id` — a pure function
    /// of the engine config seed and the session id, so a recovered
    /// engine re-derives the identical tape from the
    /// [`WalRecord::ContinualOpened`] record alone.
    fn continual_seed(&self, id: u64) -> u64 {
        SplitMix64::new(self.config.seed ^ 0x434F_4E54_5F43_5452 ^ id).next_u64()
    }

    /// Open a continual-release counter on `dataset`'s stream.
    ///
    /// The **entire release sequence** over at most `horizon` observed
    /// steps costs `epsilon`, charged here up front through the same
    /// durable intent/commit bracket as every other charge (binary tree
    /// aggregation: each appended batch lands in ≤ ⌊log₂ horizon⌋ + 1
    /// dyadic nodes, each noised at Laplace scale L/ε — see
    /// [`TreeCounter`]). Subsequent [`Engine::continual_release`] calls
    /// are free, and the composed ε flows into the dataset's MI bound in
    /// [`Engine::report`] like any other spend.
    ///
    /// From now on every [`Engine::append_dataset`] batch on `dataset`
    /// is one observed step. Returns the counter's session id.
    pub fn continual_open(&mut self, dataset: &str, epsilon: f64, horizon: u64) -> Result<u64> {
        let eps = dplearn_mechanisms::privacy::Epsilon::new(epsilon)?;
        if horizon == 0 {
            return Err(EngineError::InvalidParameter {
                name: "horizon",
                reason: "continual counter needs a horizon of at least one step".to_string(),
            });
        }
        // Build the counter before the bracket, seeded with the id it
        // will receive: a counter that cannot be built spends nothing.
        let id = self.session_counter + 1;
        let counter = TreeCounter::new(eps, horizon, self.continual_seed(id))?;
        let seq = self.open_named(dataset, Budget::pure(eps))?;
        self.close(dataset, seq, None);
        self.session_counter = id;
        // Durable open record AFTER the commit: a crash between the two
        // loses the counter but keeps its charge — strictly conservative
        // (spent ε with nothing released), never the reverse. If the
        // record itself cannot be appended, fail the open the same way:
        // the ε stays durably spent, no live counter exists.
        self.log(&WalRecord::ContinualOpened {
            session: id,
            dataset: dataset.to_string(),
            epsilon: eps.value(),
            horizon,
        })?;
        self.counters.insert(
            id,
            ContinualHostedSession {
                dataset: dataset.to_string(),
                counter,
            },
        );
        self.recorder
            .counter_add("engine.continual.opened", dataset, 1);
        Ok(id)
    }

    /// The noisy running count after counter `session`'s most recent
    /// observed step. Free — the whole sequence was charged at
    /// [`Engine::continual_open`]. Fails closed on a poisoned dataset
    /// (same refusal as [`Engine::svt_query`]) and before the first
    /// observed step.
    pub fn continual_release(&self, session: u64) -> Result<f64> {
        let hosted = self
            .counters
            .get(&session)
            .ok_or(EngineError::UnknownSession(session))?;
        self.continual_release_at(session, hosted.counter.steps())
    }

    /// The noisy running count after observed step `t` (1-based).
    /// Bit-identical however many steps have arrived since — node noise
    /// is a pure function of the counter's seed.
    pub fn continual_release_at(&self, session: u64, t: u64) -> Result<f64> {
        let hosted = self
            .counters
            .get(&session)
            .ok_or(EngineError::UnknownSession(session))?;
        let entry = self
            .datasets
            .get(&hosted.dataset)
            .ok_or_else(|| EngineError::UnknownDataset(hosted.dataset.clone()))?;
        if entry.ledger.is_poisoned() {
            return Err(EngineError::DatasetPoisoned(hosted.dataset.clone()));
        }
        Ok(hosted.counter.release_at(t)?)
    }

    /// Number of stream steps counter `session` has observed.
    pub fn continual_steps(&self, session: u64) -> Result<u64> {
        self.counters
            .get(&session)
            .map(|h| h.counter.steps())
            .ok_or(EngineError::UnknownSession(session))
    }

    /// Close a continual counter, discarding it. (Its ε stays spent —
    /// the charge covered the full horizon whether or not it was used.)
    pub fn continual_close(&mut self, session: u64) -> Result<()> {
        self.counters
            .remove(&session)
            .map(|_| ())
            .ok_or(EngineError::UnknownSession(session))
    }

    /// Open continual counter count (recovered-but-pending ones appear
    /// once their dataset is re-registered).
    pub fn open_counters(&self) -> usize {
        self.counters.len()
    }

    /// A canonical byte dump of all streaming state — per-dataset
    /// epochs, counts, running-sum bits, batch history, and every live
    /// continual counter's parameters plus its full release tape (bits).
    /// Two engines with equal stream digests serve bit-identical
    /// stream-derived answers; crash-recovery tests compare a recovered
    /// engine against the crash-free oracle with this. Complementary to
    /// [`Engine::durability_digest`], which covers the accounting.
    pub fn stream_digest(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (name, entry) in &self.datasets {
            let d = &entry.dataset;
            out.extend_from_slice(name.as_bytes());
            out.push(0);
            out.extend_from_slice(&d.epoch().to_le_bytes());
            out.extend_from_slice(&(d.len() as u64).to_le_bytes());
            out.extend_from_slice(&d.sum().to_bits().to_le_bytes());
            out.extend_from_slice(&(d.batch_lens().len() as u64).to_le_bytes());
            for &b in d.batch_lens() {
                out.extend_from_slice(&(b as u64).to_le_bytes());
            }
            out.push(u8::from(d.stats().is_exact()));
            out.extend_from_slice(&d.stats().rank_error_bound().to_le_bytes());
            // Rank probes over the domain pin the rank structure's
            // observable behavior without exposing its internals.
            for i in 0..=16u32 {
                let x = d.lo() + d.width() * f64::from(i) / 16.0;
                out.extend_from_slice(&(d.stats().rank(x) as u64).to_le_bytes());
            }
        }
        for (id, hosted) in &self.counters {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(hosted.dataset.as_bytes());
            out.push(0);
            out.extend_from_slice(&hosted.counter.epsilon().to_bits().to_le_bytes());
            out.extend_from_slice(&hosted.counter.horizon().to_le_bytes());
            out.extend_from_slice(&hosted.counter.steps().to_le_bytes());
            for r in hosted.counter.release_all() {
                out.extend_from_slice(&r.to_bits().to_le_bytes());
            }
        }
        out
    }

    // ----------------------------------------------------------------
    // Reporting
    // ----------------------------------------------------------------

    /// The engine-wide leakage report: per-dataset budget/MI summaries
    /// plus aggregate totals.
    ///
    /// Errors only if a ledger's ε trace is corrupted (the leakage
    /// path's ε→MI conversions fail closed instead of panicking).
    pub fn report(&self) -> Result<EngineReport> {
        // Registered datasets plus recovered-but-not-yet-re-registered
        // ones (reported with n_records = 0: the data isn't loaded, but
        // the spend is real and must stay visible).
        let mut names: BTreeSet<&String> = self.datasets.keys().collect();
        names.extend(self.pending_recovered.keys());
        let datasets = names
            .into_iter()
            .filter_map(|name| match self.datasets.get(name.as_str()) {
                Some(entry) => Some(self.leakage.summarize(
                    name,
                    entry.dataset.len(),
                    &entry.ledger,
                )),
                None => self
                    .pending_recovered
                    .get(name.as_str())
                    .map(|ledger| self.leakage.summarize(name, 0, ledger)),
            })
            .collect::<Result<Vec<_>>>()?;
        let totals = EngineTotals::from_summaries(&datasets);
        Ok(EngineReport {
            datasets,
            totals,
            mechanisms: self
                .registry
                .names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            batches_run: self.batch_counter,
            open_sessions: self.sessions.len(),
            telemetry: None,
        })
    }

    /// [`Engine::report`] with the installed recorder's snapshot
    /// attached (when the sink aggregates — the default
    /// [`NoopRecorder`] does not, leaving `telemetry` as `None`).
    pub fn report_with_telemetry(&self) -> Result<EngineReport> {
        let report = self.report()?;
        Ok(match self.recorder.snapshot() {
            Some(snapshot) => report.with_telemetry(snapshot),
            None => report,
        })
    }
}

/// Append a record that resolves an open intent. The charge has landed,
/// so a failure cannot be returned to undo it: it is counted, and the
/// caller keeps the live state at least as conservative as what
/// recovery will rebuild. Returns whether the record was appended.
fn append_resolution(log: &mut WriteAheadLog, record: &WalRecord, recorder: &dyn Recorder) -> bool {
    let appended = log.append(record, recorder).is_ok();
    if !appended {
        recorder.counter_add("wal.append_errors", "", 1);
    }
    appended
}

/// Execute with bounded retries: attempt `k` (0-based) runs on the
/// request's base stream advanced by `k` long-jumps, so retried
/// randomness never overlaps the failed attempt's and the schedule is
/// identical at any thread count. Returns `(value, attempts)` or
/// `(terminal error, attempts)`.
fn run_with_retries(
    mech: &dyn QueryMechanism,
    kind: &QueryKind,
    dataset: &Dataset,
    base_rng: &Xoshiro256,
    max_attempts: usize,
) -> std::result::Result<(QueryValue, usize), (EngineError, usize)> {
    let mut last_err = EngineError::InvalidParameter {
        name: "max_attempts",
        reason: "no attempt ran".to_string(),
    };
    // `stream` tracks the base stream advanced by `attempt` long-jumps,
    // maintained incrementally (one jump per retry rather than re-deriving
    // `attempt` jumps from the base — same bits, O(attempts) total work).
    // Each attempt executes on a clone so the mechanism's draws never
    // perturb the jump schedule.
    let mut stream = base_rng.clone();
    for attempt in 0..max_attempts {
        if attempt > 0 {
            stream.long_jump();
        }
        let mut rng = stream.clone();
        match mech.execute(kind, dataset, &mut rng) {
            Ok(value) => {
                let fault = value
                    .released_scalars()
                    .iter()
                    .find_map(|&v| classify_release(v));
                match fault {
                    None => return Ok((value, attempt + 1)),
                    Some(class) => last_err = EngineError::NonFiniteRelease(class),
                }
            }
            Err(e) => last_err = e,
        }
    }
    Err((last_err, max_attempts))
}

mod impl_detail {
    //! Private carrier for admitted work items (kept out of the public
    //! API surface).
    use super::*;

    pub struct AdmittedAlias {
        pub mech: Arc<dyn QueryMechanism>,
        pub dataset: Arc<Dataset>,
        pub kind: QueryKind,
        pub cost: Budget,
        pub rng: Xoshiro256,
        /// Sequence number of this charge's durable intent record
        /// (`None` when no write-ahead log is attached).
        pub intent_seq: Option<u64>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SelectStrategy;

    fn engine_with(name: &str, cap_eps: f64) -> Engine {
        let mut e = Engine::new(EngineConfig::default()).unwrap();
        let values: Vec<f64> = (0..100).map(|i| (i % 10) as f64 / 10.0).collect();
        e.register_dataset(name, values, 0.0, 1.0, Budget::new(cap_eps, 1e-6).unwrap())
            .unwrap();
        e
    }

    /// Faults once, then releases one raw RNG draw — so the released
    /// value *is* the identity of the substream the retry ran on.
    struct FlakyProbe {
        calls: std::sync::atomic::AtomicUsize,
    }

    impl QueryMechanism for FlakyProbe {
        fn name(&self) -> &'static str {
            "flaky_probe"
        }
        fn admit(&self, kind: &QueryKind, _dataset: &Dataset) -> Result<Budget> {
            match kind {
                QueryKind::Custom { .. } => Budget::new(0.05, 1e-9).map_err(EngineError::Mechanism),
                _ => Err(EngineError::InvalidParameter {
                    name: "kind",
                    reason: "flaky_probe only serves Custom".to_string(),
                }),
            }
        }
        fn execute(
            &self,
            _kind: &QueryKind,
            _dataset: &Dataset,
            rng: &mut dyn Rng,
        ) -> Result<QueryValue> {
            use std::sync::atomic::Ordering;
            if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
                // Consume a draw so a stream-reuse bug would be visible,
                // then fault: NaN forces the engine to retry.
                let _ = rng.next_open_f64();
                Ok(QueryValue::Scalar(f64::NAN))
            } else {
                Ok(QueryValue::Scalar(rng.next_open_f64()))
            }
        }
    }

    #[test]
    fn retried_request_lands_on_long_jump_advanced_substream() {
        // Regression pin for the retry contract under the worker pool:
        // attempt k of request i must draw from stream i of
        // jump_streams(batch_seed, n) advanced by exactly k long-jumps,
        // regardless of which pool thread runs the retry.
        dplearn_parallel::set_thread_count(4);
        let mut e = engine_with("d", 1.0);
        e.register_mechanism(Arc::new(FlakyProbe {
            calls: std::sync::atomic::AtomicUsize::new(0),
        }));
        let batch = vec![
            QueryRequest::new(
                "d",
                QueryKind::LaplaceCount {
                    lo: 0.0,
                    hi: 0.5,
                    epsilon: 0.1,
                },
            ),
            QueryRequest::new(
                "d",
                QueryKind::Custom {
                    mechanism: "flaky_probe".to_string(),
                    params: vec![],
                },
            ),
        ];
        let report = e.run_batch(&batch);
        dplearn_parallel::set_thread_count(0);

        let QueryOutcome::Executed {
            value, attempts, ..
        } = &report.outcomes[1]
        else {
            panic!("flaky request should execute, got {:?}", report.outcomes[1]);
        };
        assert_eq!(*attempts, 2, "first attempt faults, second succeeds");
        let QueryValue::Scalar(got) = value else {
            panic!("expected a scalar release");
        };
        // Re-derive the expected substream: request index 1's base
        // stream, advanced by one long-jump for retry attempt 1.
        let mut streams = Xoshiro256::jump_streams(report.batch_seed, batch.len());
        let mut expect = streams.remove(1);
        expect.long_jump();
        let want = expect.next_open_f64();
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "retry did not land on the long-jump-advanced substream"
        );
    }

    #[test]
    fn classify_release_covers_the_taxonomy() {
        assert_eq!(classify_release(f64::NAN), Some(FaultClass::Nan));
        assert_eq!(classify_release(f64::INFINITY), Some(FaultClass::PosInf));
        assert_eq!(
            classify_release(f64::NEG_INFINITY),
            Some(FaultClass::NegInf)
        );
        assert_eq!(classify_release(5e-324), Some(FaultClass::Subnormal));
        assert_eq!(
            classify_release(f64::MAX),
            Some(FaultClass::ExtremeMagnitude)
        );
        assert_eq!(classify_release(0.0), None);
        assert_eq!(classify_release(-3.5), None);
    }

    #[test]
    fn duplicate_dataset_is_rejected() {
        let mut e = engine_with("d", 1.0);
        let err = e
            .register_dataset("d", vec![0.5], 0.0, 1.0, Budget::new(1.0, 1e-6).unwrap())
            .unwrap_err();
        assert!(matches!(err, EngineError::DuplicateDataset(_)));
    }

    #[test]
    fn batch_mixes_outcomes_and_meters_budget() {
        let mut e = engine_with("d", 1.0);
        let batch = vec![
            QueryRequest::new(
                "d",
                QueryKind::LaplaceCount {
                    lo: 0.0,
                    hi: 0.5,
                    epsilon: 0.4,
                },
            ),
            QueryRequest::new("missing", QueryKind::LaplaceSum { epsilon: 0.1 }),
            QueryRequest::new(
                "d",
                QueryKind::Select {
                    bins: 10,
                    epsilon: 0.5,
                    strategy: SelectStrategy::Exponential,
                },
            ),
            // 0.4 + 0.5 spent; 0.2 > 0.1 remaining → rejected, zero spend.
            QueryRequest::new("d", QueryKind::LaplaceSum { epsilon: 0.2 }),
        ];
        let report = e.run_batch(&batch);
        assert_eq!(report.outcomes.len(), 4);
        assert!(report.outcomes[0].is_executed());
        assert!(matches!(
            report.outcomes[1],
            QueryOutcome::Rejected {
                error: EngineError::UnknownDataset(_)
            }
        ));
        assert!(report.outcomes[2].is_executed());
        assert!(matches!(
            report.outcomes[3],
            QueryOutcome::Rejected {
                error: EngineError::BudgetExhausted { .. }
            }
        ));
        let snap = e.ledger("d").unwrap().snapshot();
        assert!((snap.spent.epsilon - 0.9).abs() < 1e-12);
        assert_eq!(snap.operations, 2);
        assert_eq!(e.ledger("d").unwrap().rejected(), 1);
    }

    #[test]
    fn submit_matches_single_element_batch_semantics() {
        let mut e = engine_with("d", 1.0);
        let req = QueryRequest::new(
            "d",
            QueryKind::LaplaceCount {
                lo: 0.0,
                hi: 1.0,
                epsilon: 0.1,
            },
        );
        let out = e.submit(&req);
        assert!(out.is_executed());
        assert!((e.ledger("d").unwrap().snapshot().spent.epsilon - 0.1).abs() < 1e-12);
    }

    #[test]
    fn svt_session_lifecycle_with_suspend_resume() {
        let mut e = engine_with("d", 2.0);
        let id = e.svt_open("d", 200.0, 1.0).unwrap();
        // Whole session charged at open.
        assert!((e.ledger("d").unwrap().snapshot().spent.epsilon - 1.0).abs() < 1e-12);
        // Low-count probes: queries are free.
        let a1 = e.svt_query(id, 0.45, 0.451).unwrap();
        let _a2 = e.svt_query(id, 0.35, 0.351).unwrap();
        assert!(matches!(a1, SvtAnswer::Above | SvtAnswer::Below));
        assert!((e.ledger("d").unwrap().snapshot().spent.epsilon - 1.0).abs() < 1e-12);

        let (ds, state) = e.svt_suspend(id).unwrap();
        assert_eq!(ds, "d");
        assert!(e.svt_query(id, 0.0, 1.0).is_err(), "suspended id is gone");
        let id2 = e.svt_resume(&ds, state).unwrap();
        // Still serving, still free.
        let _ = e.svt_query(id2, 0.0, 0.1);
        assert!((e.ledger("d").unwrap().snapshot().spent.epsilon - 1.0).abs() < 1e-12);
        e.svt_close(id2).unwrap();
        assert_eq!(e.open_sessions(), 0);
        assert!(e.svt_close(id2).is_err());
    }

    #[test]
    fn svt_open_rejects_over_budget_without_spending() {
        let mut e = engine_with("d", 0.5);
        let err = e.svt_open("d", 10.0, 0.6).unwrap_err();
        assert!(matches!(err, EngineError::BudgetExhausted { .. }));
        assert_eq!(e.ledger("d").unwrap().snapshot().spent.epsilon, 0.0);
        assert_eq!(e.ledger("d").unwrap().rejected(), 1);
        assert_eq!(e.open_sessions(), 0);
    }

    #[test]
    fn report_aggregates_all_datasets() {
        let mut e = engine_with("a", 1.0);
        let values: Vec<f64> = (0..50).map(|i| i as f64 / 50.0).collect();
        e.register_dataset("b", values, 0.0, 1.0, Budget::new(2.0, 1e-6).unwrap())
            .unwrap();
        e.submit(&QueryRequest::new(
            "a",
            QueryKind::LaplaceSum { epsilon: 0.25 },
        ));
        e.submit(&QueryRequest::new(
            "b",
            QueryKind::LaplaceSum { epsilon: 0.5 },
        ));
        let report = e.report().unwrap();
        assert_eq!(report.datasets.len(), 2);
        assert_eq!(report.totals.datasets, 2);
        assert_eq!(report.totals.operations, 2);
        assert!((report.totals.spent_epsilon - 0.75).abs() < 1e-12);
        assert!(report.totals.mi_bound_nats > 0.0);
        assert!(report.telemetry.is_none());
        let text = report.to_string();
        assert!(text.contains("a") && text.contains("b"));
    }

    #[test]
    fn run_batch_records_admissions_rejections_and_budget_gauges() {
        use dplearn_telemetry::MemoryRecorder;

        let mut e = engine_with("d", 1.0);
        let recorder = Arc::new(MemoryRecorder::new());
        e.set_recorder(recorder.clone());

        let batch = vec![
            QueryRequest::new(
                "d",
                QueryKind::LaplaceCount {
                    lo: 0.0,
                    hi: 0.5,
                    epsilon: 0.4,
                },
            ),
            QueryRequest::new("missing", QueryKind::LaplaceSum { epsilon: 0.1 }),
            QueryRequest::new("d", QueryKind::LaplaceSum { epsilon: 0.3 }),
        ];
        let _ = e.run_batch(&batch);

        let snap = recorder.snapshot().unwrap();
        let counter = |key: &str| {
            snap.counters
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
        };
        assert_eq!(counter("engine.batches"), Some(1));
        assert_eq!(counter("engine.requests.submitted"), Some(3));
        assert_eq!(counter("engine.requests.admitted"), Some(2));
        assert_eq!(counter("engine.requests.rejected"), Some(1));
        assert_eq!(counter("engine.requests.executed"), Some(2));
        assert_eq!(counter("engine.requests.faulted"), None);

        let gauge = |key: &str| snap.gauges.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
        let spent = gauge("engine.dataset.spent_epsilon{d}").unwrap();
        assert!((spent - 0.7).abs() < 1e-12);
        let remaining = gauge("engine.dataset.remaining_epsilon{d}").unwrap();
        assert!((remaining - 0.3).abs() < 1e-12);
        assert!(gauge("engine.dataset.mi_bound_nats{d}").unwrap() > 0.0);

        // The per-request ε histogram saw both admitted costs.
        let hist = snap
            .histograms
            .iter()
            .find(|(k, _)| k == "engine.request.epsilon{d}")
            .map(|(_, h)| h)
            .unwrap();
        assert_eq!(hist.total, 2);
        assert!((hist.sum - 0.7).abs() < 1e-12);

        // And the snapshot rides along on the report.
        let report = e.report_with_telemetry().unwrap();
        assert_eq!(report.telemetry.as_ref(), Some(&snap));
        assert!(report.to_string().contains("telemetry:"));
    }

    #[test]
    fn append_bumps_epoch_and_records_ingest_telemetry() {
        use dplearn_telemetry::MemoryRecorder;

        let mut e = engine_with("d", 1.0);
        let recorder = Arc::new(MemoryRecorder::new());
        e.set_recorder(recorder.clone());
        assert_eq!(e.dataset("d").unwrap().epoch(), 0);

        assert_eq!(e.append_dataset("d", &[0.25, 0.75]).unwrap(), 1);
        assert_eq!(e.append_dataset("d", &[0.5]).unwrap(), 2);
        let d = e.dataset("d").unwrap();
        assert_eq!(d.epoch(), 2);
        assert_eq!(d.len(), 103);
        assert_eq!(d.batch_lens(), &[100, 2, 1]);

        // Out-of-domain and empty batches fail closed with no mutation.
        assert!(e.append_dataset("d", &[2.0]).is_err());
        assert!(e.append_dataset("d", &[]).is_err());
        assert!(e.append_dataset("missing", &[0.5]).is_err());
        assert_eq!(e.dataset("d").unwrap().epoch(), 2);

        let snap = recorder.snapshot().unwrap();
        let counter = |key: &str| {
            snap.counters
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
        };
        assert_eq!(counter("engine.ingest.batches{d}"), Some(2));
        assert_eq!(counter("engine.ingest.records{d}"), Some(3));
    }

    #[test]
    fn continual_lifecycle_charges_once_and_tracks_the_stream() {
        let mut e = engine_with("d", 2.0);
        let id = e.continual_open("d", 1.0, 8).unwrap();
        // Whole release sequence charged at open; the spend shows up in
        // the dataset's MI bound like any other composed ε.
        assert!((e.ledger("d").unwrap().snapshot().spent.epsilon - 1.0).abs() < 1e-12);
        let report = e.report().unwrap();
        let summary = report.datasets.iter().find(|s| s.dataset == "d").unwrap();
        assert!(
            summary.mi_bound_nats > 0.0,
            "continual ε must flow into the MI bound"
        );

        // No step observed yet → release fails closed.
        assert!(e.continual_release(id).is_err());

        e.append_dataset("d", &[0.25; 10]).unwrap();
        e.append_dataset("d", &[0.5; 5]).unwrap();
        assert_eq!(e.continual_steps(id).unwrap(), 2);
        let r1 = e.continual_release_at(id, 1).unwrap();
        let r2 = e.continual_release_at(id, 2).unwrap();
        // ε = 1 over horizon 8 → scale 4: releases are near the true
        // prefixes 10 and 15 with overwhelming probability.
        assert!((r1 - 10.0).abs() < 200.0 && (r2 - 15.0).abs() < 200.0);

        // Releases are pure functions of (seed, step): asking again or
        // after more arrivals reproduces the same bits.
        e.append_dataset("d", &[0.75]).unwrap();
        assert_eq!(
            e.continual_release_at(id, 1).unwrap().to_bits(),
            r1.to_bits()
        );
        assert_eq!(
            e.continual_release_at(id, 2).unwrap().to_bits(),
            r2.to_bits()
        );
        assert_eq!(
            e.continual_release(id).unwrap().to_bits(),
            e.continual_release_at(id, 3).unwrap().to_bits()
        );

        // Releases past the observed step fail closed; so does a second
        // open that would exceed the cap.
        assert!(e.continual_release_at(id, 4).is_err());
        assert!(e.continual_open("d", 1.5, 8).is_err());
        assert_eq!(e.ledger("d").unwrap().rejected(), 1);

        e.continual_close(id).unwrap();
        assert!(e.continual_release(id).is_err());
        assert_eq!(e.open_counters(), 0);
        // The charge stays spent after close.
        assert!((e.ledger("d").unwrap().snapshot().spent.epsilon - 1.0).abs() < 1e-12);
    }

    #[test]
    fn continual_horizon_exhaustion_never_fails_ingest() {
        let mut e = engine_with("d", 2.0);
        let id = e.continual_open("d", 1.0, 2).unwrap();
        e.append_dataset("d", &[0.1]).unwrap();
        e.append_dataset("d", &[0.2]).unwrap();
        // Horizon spent: the append still lands, the counter just stops.
        let epoch = e.append_dataset("d", &[0.3]).unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(e.continual_steps(id).unwrap(), 2);
        assert_eq!(e.dataset("d").unwrap().len(), 103);
    }

    #[test]
    fn continual_open_validates_parameters_before_any_charge() {
        let mut e = engine_with("d", 2.0);
        assert!(e.continual_open("d", f64::NAN, 8).is_err());
        assert!(e.continual_open("d", -1.0, 8).is_err());
        assert!(e.continual_open("d", 1.0, 0).is_err());
        assert!(e.continual_open("missing", 1.0, 8).is_err());
        assert_eq!(e.ledger("d").unwrap().snapshot().spent.epsilon, 0.0);
    }

    #[test]
    fn continual_open_with_an_overflowing_noise_scale_spends_and_logs_nothing() {
        use crate::wal::MemoryWal;

        let values: Vec<f64> = (0..100).map(|i| (i % 10) as f64 / 10.0).collect();
        let cap = Budget::new(2.0, 1e-6).unwrap();
        let storage = MemoryWal::new();
        let handle = storage.handle();
        let mut e = Engine::new(EngineConfig::default()).unwrap();
        e.attach_wal(storage, FsyncPolicy::EveryAppend).unwrap();
        e.register_dataset("d", values.clone(), 0.0, 1.0, cap)
            .unwrap();
        let registered = handle.bytes();

        // ε = 1e-310 is a valid ε, but the tree's Laplace scale 3/ε is +∞.
        assert!(e.continual_open("d", 1e-310, 4).is_err());
        assert_eq!(e.ledger("d").unwrap().snapshot().spent.epsilon, 0.0);
        assert_eq!(e.open_counters(), 0);
        assert_eq!(handle.bytes(), registered, "nothing reaches the log");

        // Recovery has no counter to re-arm, so the dataset re-registers.
        let mut recovered =
            Engine::recover(EngineConfig::default(), MemoryWal::from_bytes(registered)).unwrap();
        recovered
            .register_dataset("d", values, 0.0, 1.0, cap)
            .unwrap();
        assert_eq!(recovered.ledger("d").unwrap().snapshot().spent.epsilon, 0.0);
    }

    #[test]
    fn recovered_stream_state_matches_the_crash_free_oracle_bit_for_bit() {
        use crate::wal::MemoryWal;

        let values: Vec<f64> = (0..100).map(|i| (i % 10) as f64 / 10.0).collect();
        let cap = Budget::new(2.0, 1e-6).unwrap();

        // Crash-free oracle (no WAL): same config, same operations.
        let mut oracle = Engine::new(EngineConfig::default()).unwrap();
        oracle
            .register_dataset("d", values.clone(), 0.0, 1.0, cap)
            .unwrap();

        // Durable engine: register, stream, open a counter, stream more.
        let storage = MemoryWal::new();
        let handle = storage.handle();
        let mut live = Engine::new(EngineConfig::default()).unwrap();
        live.attach_wal(storage, FsyncPolicy::EveryAppend).unwrap();
        live.register_dataset("d", values, 0.0, 1.0, cap).unwrap();

        for engine in [&mut oracle, &mut live] {
            engine.append_dataset("d", &[0.25, 0.75]).unwrap();
            let id = engine.continual_open("d", 1.0, 8).unwrap();
            assert_eq!(id, 1);
            engine.append_dataset("d", &[0.5; 7]).unwrap();
            engine.append_dataset("d", &[0.125]).unwrap();
        }

        // Recover from the durable image and re-register the dataset.
        let mut recovered = Engine::recover(
            EngineConfig::default(),
            MemoryWal::from_bytes(handle.bytes()),
        )
        .unwrap();
        assert_eq!(recovered.recovered_pending(), vec!["d"]);
        assert_eq!(recovered.open_counters(), 0, "counter waits for its data");
        let values: Vec<f64> = (0..100).map(|i| (i % 10) as f64 / 10.0).collect();
        recovered
            .register_dataset("d", values, 0.0, 1.0, cap)
            .unwrap();

        assert_eq!(recovered.open_counters(), 1);
        assert_eq!(
            recovered.stream_digest(),
            oracle.stream_digest(),
            "recovered stream state must be bit-identical to the crash-free oracle"
        );
        assert_eq!(
            recovered.continual_release_at(1, 2).unwrap().to_bits(),
            oracle.continual_release_at(1, 2).unwrap().to_bits()
        );
        // And the accounting recovered too: the counter's ε is spent.
        assert!((recovered.ledger("d").unwrap().snapshot().spent.epsilon - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recovery_rejects_stream_batches_outside_the_redeclared_domain() {
        use crate::wal::MemoryWal;

        let cap = Budget::new(1.0, 1e-6).unwrap();
        let storage = MemoryWal::new();
        let handle = storage.handle();
        let mut live = Engine::new(EngineConfig::default()).unwrap();
        live.attach_wal(storage, FsyncPolicy::EveryAppend).unwrap();
        live.register_dataset("d", vec![0.5], 0.0, 1.0, cap)
            .unwrap();
        live.append_dataset("d", &[0.9]).unwrap();

        let mut recovered = Engine::recover(
            EngineConfig::default(),
            MemoryWal::from_bytes(handle.bytes()),
        )
        .unwrap();
        // Re-declare a narrower domain: the logged batch [0.9] no longer
        // fits, so re-registration fails closed and nothing installs.
        let err = recovered
            .register_dataset("d", vec![0.5], 0.0, 0.8, cap)
            .unwrap_err();
        assert!(
            matches!(err, EngineError::InvalidParameter { .. }),
            "got {err:?}"
        );
        assert!(recovered.dataset("d").is_none());
        assert_eq!(recovered.recovered_pending(), vec!["d"]);
    }

    #[test]
    fn continual_count_query_runs_through_the_batch_path() {
        let mut e = engine_with("d", 2.0);
        e.append_dataset("d", &[0.25, 0.75]).unwrap();
        let out = e.submit(&QueryRequest::new(
            "d",
            QueryKind::ContinualCount {
                epsilon: 1.0,
                horizon: 8,
            },
        ));
        let QueryOutcome::Executed { value, cost, .. } = out else {
            panic!("continual count should execute, got {out:?}");
        };
        assert!((cost.epsilon - 1.0).abs() < 1e-12);
        let QueryValue::Draws(tape) = value else {
            panic!("expected the release tape");
        };
        assert_eq!(tape.len(), 2, "one release per arrival batch");
        // A horizon shorter than the arrived batches is rejected with
        // zero spend.
        let out = e.submit(&QueryRequest::new(
            "d",
            QueryKind::ContinualCount {
                epsilon: 0.1,
                horizon: 1,
            },
        ));
        assert!(out.is_rejected());
        assert!((e.ledger("d").unwrap().snapshot().spent.epsilon - 1.0).abs() < 1e-12);
    }
}
