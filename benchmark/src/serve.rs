//! The two serving workloads, `serve_durable` and `ingest_stream`. Each
//! is a closed loop: one client thread enqueues a fixed number of
//! requests, drives `tick_bounded`, and waits for the outcomes before
//! sending more. Both write a WAL per shard.

use crate::probes::{traced_mechanisms, PageCacheWal};
use crate::report::{Checks, Digest};
use crate::trace::{self, Name, Phase};
use crate::{Args, RunDir, RunOutput, Timed};
use dplearn_engine::dataset::StatsMode;
use dplearn_engine::request::{QueryKind, QueryOutcome, QueryRequest, QueryValue};
use dplearn_engine::wal::FsyncPolicy;
use dplearn_mechanisms::privacy::Budget;
use dplearn_numerics::rng::{Rng, Xoshiro256};
use dplearn_serve::{ServeConfig, ServingLoop, SessionHandle, TickReport};
use std::path::{Path, PathBuf};
use std::time::Instant;

const SHARDS: usize = 2;
/// Every tenant's records lie in this domain.
const DOMAIN: (f64, f64) = (0.0, 1.0);
/// Caps far above what a run can spend: no request is ever rejected,
/// so a rejection is a defect and counts as a failed op.
const CAP_EPSILON: f64 = 1e9;

/// Sizes of one serving workload.
struct Shape {
    tenants: usize,
    records: usize,
    mode: StatsMode,
    /// Requests outstanding per tick.
    per_tick: usize,
    /// Rounds run before the timed phase. The restart image is taken
    /// after them, so `recover_s` replays a log of fixed length
    /// whatever the run's throughput.
    warmup_rounds: u64,
    /// Set-ups per run; `setup_s` is their median.
    setup_reps: usize,
    /// Restarts per run; `recover_s` is their median. Seven fill the
    /// interior segment boundaries of a 15-second run.
    restart_reps: usize,
}

fn config(seed: u64) -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        seed,
        ..ServeConfig::default()
    }
}

fn cap() -> Budget {
    Budget::new(CAP_EPSILON, 0.0).expect("a finite positive cap is valid")
}

fn tenant_name(i: usize) -> String {
    format!("tenant-{i:03}")
}

/// Per-tenant records from the seed: tenant `i` draws `u^(1 + (i mod 4)/2)`,
/// so tenants differ in shape but every record lies in [`DOMAIN`].
fn tenant_records(seed: u64, tenants: usize, records: usize) -> Vec<(String, Vec<f64>)> {
    (0..tenants)
        .map(|i| {
            let mut rng = Xoshiro256::substream(seed, 0x7E4A_0000 + i as u64);
            let shape = 1.0 + (i % 4) as f64 / 2.0;
            let values = (0..records).map(|_| rng.next_f64().powf(shape)).collect();
            (tenant_name(i), values)
        })
        .collect()
}

/// The `serve_durable` request stream: tenants uniform; 40% Laplace
/// counts over a random range, 40% Laplace sums, 20% 3-probe SVT runs.
struct RequestSource {
    rng: Xoshiro256,
    names: Vec<String>,
}

impl RequestSource {
    fn new(seed: u64, tenants: usize) -> Self {
        RequestSource {
            rng: Xoshiro256::substream(seed, 0x5EED_0001),
            names: (0..tenants).map(tenant_name).collect(),
        }
    }

    fn next(&mut self) -> QueryRequest {
        let r = &mut self.rng;
        let tenant = self.names[r.next_below(self.names.len() as u64) as usize].clone();
        let pick = r.next_below(10);
        let kind = if pick < 4 {
            let a = r.next_f64();
            let b = r.next_f64();
            QueryKind::LaplaceCount {
                lo: a.min(b),
                hi: a.max(b),
                epsilon: 1e-3,
            }
        } else if pick < 8 {
            QueryKind::LaplaceSum { epsilon: 1e-3 }
        } else {
            let probes = (0..3)
                .map(|_| {
                    let lo = r.next_f64() * 0.5;
                    (lo, lo + 0.25)
                })
                .collect();
            QueryKind::SvtRun {
                threshold: 0.2,
                epsilon: 1e-2,
                probes,
            }
        };
        QueryRequest::new(tenant, kind)
    }
}

/// What a valid release for a request looks like, kept so the request
/// itself can move into the queue.
#[derive(Debug, Clone, Copy)]
enum Expect {
    Scalar,
    Transcript { probes: usize },
    Draws { draws: usize },
}

impl Expect {
    fn of(kind: &QueryKind) -> Self {
        match kind {
            QueryKind::SvtRun { probes, .. } => Expect::Transcript {
                probes: probes.len(),
            },
            QueryKind::GibbsQuantile { draws, .. } => Expect::Draws { draws: *draws },
            _ => Expect::Scalar,
        }
    }

    /// Whether `outcome` is an executed, valid release.
    fn matches(self, outcome: &QueryOutcome) -> bool {
        let QueryOutcome::Executed { value, .. } = outcome else {
            return false;
        };
        match (self, value) {
            (Expect::Scalar, QueryValue::Scalar(v)) => v.is_finite(),
            (Expect::Transcript { probes }, QueryValue::SvtTranscript(a)) => {
                !a.is_empty() && a.len() <= probes
            }
            (Expect::Draws { draws }, QueryValue::Draws(d)) => {
                d.len() == draws && d.iter().all(|v| (DOMAIN.0..=DOMAIN.1).contains(v))
            }
            _ => false,
        }
    }
}

/// Serving-side tallies of the timed phase that feed per-layer metrics.
#[derive(Debug, Default)]
pub struct ServeTally {
    pub ticks: u64,
    pub requests: u64,
    pub executed: u64,
    pub rejected: u64,
    pub faulted: u64,
    pub retries: u64,
    /// Summed per-tick (largest shard's routed count ÷ mean across shards).
    pub skew_sum: f64,
    /// Bytes of the WAL image the restart replays, all shards.
    pub log_bytes: u64,
}

impl ServeTally {
    fn tick(&mut self, report: &TickReport) {
        self.ticks += 1;
        let routed: Vec<usize> = report.shards.iter().map(|s| s.routed).collect();
        let total: usize = routed.iter().sum();
        if total > 0 {
            let max = routed.iter().copied().max().unwrap_or(0);
            self.skew_sum += max as f64 * routed.len() as f64 / total as f64;
        }
        self.requests += total as u64;
        self.executed += report.executed() as u64;
        self.rejected += report.rejected() as u64;
        self.faulted += report.faulted() as u64;
        for (_, o) in &report.outcomes {
            if let QueryOutcome::Executed { attempts, .. } = o {
                self.retries += attempts.saturating_sub(1) as u64;
            }
        }
    }
}

fn wal_paths(dir: &Path) -> Vec<PathBuf> {
    (0..SHARDS)
        .map(|k| dir.join(format!("shard-{k}.wal")))
        .collect()
}

fn open_wals(dir: &Path) -> Vec<PageCacheWal> {
    wal_paths(dir)
        .iter()
        .map(|p| PageCacheWal::open(p).expect("the run directory is writable"))
        .collect()
}

/// Build a ready fleet with a fresh log per shard in `wal_dir`: the
/// set-up the `setup_s` timer covers.
fn build_fleet(
    seed: u64,
    shape: &Shape,
    mut records: Vec<(String, Vec<f64>)>,
    wal_dir: &Path,
) -> ServingLoop {
    let mut serving = ServingLoop::new(config(seed)).expect("two shards is a valid fleet");
    trace::call(Phase::Setup, Name::AttachWal, true, || {
        serving
            .attach_wal(open_wals(wal_dir), FsyncPolicy::EveryAppend)
            .expect("attaching fresh logs succeeds")
    });
    if trace::enabled() {
        for mech in traced_mechanisms() {
            serving.register_mechanism(mech);
        }
    }
    for (name, values) in records.drain(..) {
        trace::call(Phase::Setup, Name::Register, true, || {
            serving
                .register_tenant_with_mode(&name, values, DOMAIN.0, DOMAIN.1, cap(), shape.mode)
                .expect("tenant registration succeeds")
        });
    }
    serving
}

/// Copy the live logs into `image` (outside every timer).
fn copy_logs(from: &Path, to: &Path) -> u64 {
    std::fs::create_dir_all(to).expect("the run directory is writable");
    wal_paths(from)
        .iter()
        .zip(wal_paths(to))
        .map(|(a, b)| std::fs::copy(a, b).expect("copying a log succeeds"))
        .sum()
}

/// A ready fleet, its log directory and its continual counters.
type Ready = (ServingLoop, PathBuf, Vec<SessionHandle>);

/// Repeated set-ups; returns the last fleet and every set-up time. With
/// `counters`, set-up also opens one continual counter per tenant.
fn setups(
    seed: u64,
    shape: &Shape,
    records: &[(String, Vec<f64>)],
    dir: &RunDir,
    counters: bool,
) -> (Ready, Vec<f64>) {
    let mut times = Vec::with_capacity(shape.setup_reps);
    let mut last: Option<Ready> = None;
    for rep in 0..shape.setup_reps {
        let wal_dir = dir.fresh(&format!("setup-{rep}"));
        let copy = records.to_vec();
        if let Some((old, old_dir, _)) = last.take() {
            drop(old);
            dir.remove(&old_dir);
        }
        let start = Instant::now();
        let mut fleet = build_fleet(seed, shape, copy, &wal_dir);
        let handles = (0..if counters { shape.tenants } else { 0 })
            .map(|i| {
                trace::call(Phase::Setup, Name::ContinualOpen, true, || {
                    fleet
                        .continual_open(&tenant_name(i), 1.0, 1 << 20)
                        .expect("opening a counter within the cap succeeds")
                })
            })
            .collect();
        times.push(start.elapsed().as_secs_f64());
        last = Some((fleet, wal_dir, handles));
    }
    (last.expect("at least one set-up ran"), times)
}

/// Rebuild a fleet from the logs in `image`: recover, re-register every
/// tenant (which replays appended batches), and report. Returns the
/// rebuilt fleet, its time, and whether the report succeeded.
fn restart(
    seed: u64,
    shape: &Shape,
    records: Vec<(String, Vec<f64>)>,
    image: &Path,
) -> (ServingLoop, f64, bool) {
    let start = Instant::now();
    let mut serving = trace::call(Phase::Restart, Name::Recover, true, || {
        ServingLoop::recover(config(seed), open_wals(image), FsyncPolicy::EveryAppend)
            .expect("recovery from a complete log succeeds")
    });
    if trace::enabled() {
        for mech in traced_mechanisms() {
            serving.register_mechanism(mech);
        }
    }
    for (name, values) in records {
        trace::call(Phase::Restart, Name::Reregister, true, || {
            serving
                .register_tenant_with_mode(&name, values, DOMAIN.0, DOMAIN.1, cap(), shape.mode)
                .expect("re-registration with the logged cap succeeds")
        });
    }
    let report = trace::call(Phase::Restart, Name::Report, false, || serving.report());
    (serving, start.elapsed().as_secs_f64(), report.is_ok())
}

/// The restarts of one run. Each recovers from a fresh copy of the image
/// taken after warm-up and must reproduce the live fleet's digests at
/// that point. In the timed phase they run at segment boundaries with
/// the clocks paused, so they sample the same host conditions as the
/// throughput instead of one moment after it.
struct Restarts<'a> {
    seed: u64,
    shape: &'a Shape,
    records: &'a [(String, Vec<f64>)],
    dir: &'a RunDir,
    image: PathBuf,
    /// The live fleet's durability digest when the image was copied.
    durability: Vec<u8>,
    /// Its stream digest, on the workload that streams.
    stream: Option<Vec<u8>>,
    times: Vec<f64>,
}

impl Restarts<'_> {
    fn pending(&self) -> bool {
        self.times.len() < self.shape.restart_reps
    }

    fn one(&mut self, checks: &mut Checks) {
        let rep = self.times.len();
        let target = self.dir.fresh(&format!("restart-{rep}"));
        copy_logs(&self.image, &target);
        let (rebuilt, seconds, reported) =
            restart(self.seed, self.shape, self.records.to_vec(), &target);
        self.dir.remove(&target);
        self.times.push(seconds);
        checks.check(reported, || {
            format!("restart {rep}: the rebuilt fleet cannot report")
        });
        checks.check(rebuilt.durability_digest() == self.durability, || {
            format!("restart {rep}: recovered durability digest differs from the live fleet's")
        });
        if let Some(stream) = &self.stream {
            checks.check(rebuilt.stream_digest() == *stream, || {
                format!("restart {rep}: recovered stream digest differs from the live fleet's")
            });
        }
    }
}

/// The closed-loop client of `serve_durable`.
struct Client {
    source: RequestSource,
    per_tick: usize,
    sent: Vec<(u64, Expect, Instant)>,
    tally: ServeTally,
    latencies_ns: Vec<u64>,
    digest: Digest,
    failed: u64,
    attempted: u64,
}

impl Client {
    /// Enqueue `per_tick` requests, run one tick, check every outcome.
    fn round(&mut self, serving: &mut ServingLoop, phase: Phase) {
        self.sent.clear();
        for _ in 0..self.per_tick {
            let request = self.source.next();
            let expect = Expect::of(&request.kind);
            let at = Instant::now();
            let ticket = trace::call(phase, Name::Enqueue, false, || serving.enqueue(request));
            self.sent.push((ticket, expect, at));
        }
        let report = trace::call(phase, Name::Tick, true, || {
            serving.tick_bounded(self.per_tick)
        });
        let done = Instant::now();
        self.tally.tick(&report);
        self.attempted += self.sent.len() as u64;
        let answered = report.outcomes.len().min(self.sent.len());
        self.failed += (self.sent.len() - answered) as u64;
        for ((ticket, outcome), (sent_ticket, expect, at)) in report.outcomes.iter().zip(&self.sent)
        {
            self.digest.outcome(outcome);
            if ticket != sent_ticket || !expect.matches(outcome) {
                self.failed += 1;
            }
            self.latencies_ns.push((done - *at).as_nanos() as u64);
        }
    }

    /// Forget the warm-up's tallies; failures and the digest carry on.
    fn start_timed(&mut self) {
        self.tally = ServeTally::default();
        self.latencies_ns.clear();
    }
}

/// `serve_durable`: 2 shards × 64 exact tenants of 50 000 records, 64
/// cheap reads outstanding per tick, a FileWal per shard.
pub fn run_durable(args: &Args) -> RunOutput {
    let tiny = args.tiny;
    let shape = Shape {
        tenants: if tiny { 8 } else { 64 },
        records: if tiny { 1_000 } else { 50_000 },
        mode: StatsMode::Exact,
        per_tick: 64,
        warmup_rounds: if tiny { 20 } else { 3_000 },
        setup_reps: if tiny { 2 } else { 7 },
        restart_reps: if tiny { 1 } else { 7 },
    };
    let records = tenant_records(args.seed, shape.tenants, shape.records);
    let dir = RunDir::new(args);
    let mut checks = Checks::default();

    let ((mut serving, live_dir, _), setup_s) = setups(args.seed, &shape, &records, &dir, false);
    let mut client = Client {
        source: RequestSource::new(args.seed, shape.tenants),
        per_tick: shape.per_tick,
        sent: Vec::with_capacity(shape.per_tick),
        tally: ServeTally::default(),
        latencies_ns: Vec::new(),
        digest: Digest::default(),
        failed: 0,
        attempted: 0,
    };
    for _ in 0..shape.warmup_rounds {
        client.round(&mut serving, Phase::Warmup);
    }
    client.start_timed();
    let image = dir.fresh("image");
    client.tally.log_bytes = copy_logs(&live_dir, &image);
    let mut restarts = Restarts {
        seed: args.seed,
        shape: &shape,
        records: &records,
        dir: &dir,
        image,
        durability: serving.durability_digest(),
        stream: None,
        times: Vec::with_capacity(shape.restart_reps),
    };

    let mut timed = Timed::start();
    while !timed.done(
        args,
        client.tally.ticks,
        client.tally.requests,
        client.latencies_ns.len(),
    ) {
        if restarts.pending() && timed.take_boundary() {
            timed.pause(|| restarts.one(&mut checks));
        }
        client.round(&mut serving, Phase::Run);
    }
    let measured = timed.stop(client.tally.requests, client.latencies_ns.len());

    drop(serving);
    dir.remove(&live_dir);
    while restarts.pending() {
        restarts.one(&mut checks);
    }
    let recover_s = restarts.times;
    let failed = client.failed;
    checks.check(failed == 0, || {
        format!(
            "{failed} requests were rejected, faulted or returned an invalid release ({} rejected, {} faulted in the timed phase)",
            client.tally.rejected, client.tally.faulted
        )
    });

    RunOutput {
        setup_s,
        recover_s,
        measured,
        ops: client.tally.requests,
        rounds: client.tally.ticks,
        attempted: client.attempted,
        latencies_ns: client.latencies_ns,
        failed_ops: failed,
        checks,
        digest: client.digest,
        serve: Some(client.tally),
        leak: None,
    }
}

/// The closed-loop client of `ingest_stream`.
struct IngestClient {
    rng: Xoshiro256,
    batches: Vec<Vec<f64>>,
    handles: Vec<SessionHandle>,
    epochs: Vec<u64>,
    tally: ServeTally,
    latencies_ns: Vec<u64>,
    digest: Digest,
    failed: u64,
    attempted: u64,
}

impl IngestClient {
    /// One op: append a batch, release the tenant's continual count,
    /// serve one small Gibbs read.
    fn op(&mut self, serving: &mut ServingLoop, phase: Phase) {
        let t = self.rng.next_below(self.handles.len() as u64) as usize;
        let batch = &self.batches[self.rng.next_below(self.batches.len() as u64) as usize];
        let name = tenant_name(t);
        let request = QueryRequest::new(
            name.clone(),
            QueryKind::GibbsQuantile {
                quantile: 0.5,
                candidates: 64,
                epsilon: 1e-3,
                draws: 1,
            },
        );
        let expect = Expect::of(&request.kind);
        let handle = self.handles[t];
        let start = Instant::now();
        let epoch = trace::call(phase, Name::Append, true, || serving.append(&name, batch));
        let release = trace::call(phase, Name::Release, false, || {
            serving.continual_release(handle)
        });
        trace::call(phase, Name::Enqueue, false, || serving.enqueue(request));
        let report = trace::call(phase, Name::Tick, true, || serving.tick_bounded(1));
        self.latencies_ns.push(start.elapsed().as_nanos() as u64);
        self.tally.tick(&report);
        self.attempted += 1;
        self.epochs[t] += 1;
        let epoch_ok = matches!(epoch, Ok(e) if e == self.epochs[t]);
        let release_ok = matches!(release, Ok(r) if r.is_finite());
        let read_ok = report.outcomes.len() == 1 && expect.matches(&report.outcomes[0].1);
        if !(epoch_ok && release_ok && read_ok) {
            self.failed += 1;
        }
        self.digest.u64(*epoch.as_ref().unwrap_or(&0));
        self.digest.f64(*release.as_ref().unwrap_or(&f64::NAN));
        for (_, outcome) in &report.outcomes {
            self.digest.outcome(outcome);
        }
    }
}

/// `ingest_stream`: sketch-mode tenants with open continual counters,
/// fed 1000-record batches through the WAL.
pub fn run_ingest(args: &Args) -> RunOutput {
    let tiny = args.tiny;
    let shape = Shape {
        tenants: if tiny { 4 } else { 16 },
        records: if tiny { 2_000 } else { 200_000 },
        mode: StatsMode::Sketch { k: 256 },
        per_tick: 1,
        warmup_rounds: if tiny { 20 } else { 2_000 },
        setup_reps: if tiny { 2 } else { 5 },
        restart_reps: if tiny { 1 } else { 7 },
    };
    let batch_len = if tiny { 100 } else { 1_000 };
    let records = tenant_records(args.seed, shape.tenants, shape.records);
    // A pool of batches drawn before any timer; each op picks one.
    let batches: Vec<Vec<f64>> = {
        let mut rng = Xoshiro256::substream(args.seed, 0xBA7C_0000);
        (0..64)
            .map(|_| (0..batch_len).map(|_| rng.next_f64()).collect())
            .collect()
    };
    let dir = RunDir::new(args);
    let mut checks = Checks::default();

    let ((mut serving, live_dir, handles), setup_s) =
        setups(args.seed, &shape, &records, &dir, true);

    let mut client = IngestClient {
        rng: Xoshiro256::substream(args.seed, 0x5EED_0002),
        batches,
        epochs: vec![0; handles.len()],
        handles,
        tally: ServeTally::default(),
        latencies_ns: Vec::new(),
        digest: Digest::default(),
        failed: 0,
        attempted: 0,
    };
    for _ in 0..shape.warmup_rounds {
        client.op(&mut serving, Phase::Warmup);
    }
    client.tally = ServeTally::default();
    client.latencies_ns.clear();
    let image = dir.fresh("image");
    client.tally.log_bytes = copy_logs(&live_dir, &image);
    let mut restarts = Restarts {
        seed: args.seed,
        shape: &shape,
        records: &records,
        dir: &dir,
        image,
        durability: serving.durability_digest(),
        stream: Some(serving.stream_digest()),
        times: Vec::with_capacity(shape.restart_reps),
    };

    let mut timed = Timed::start();
    while !timed.done(
        args,
        client.tally.ticks,
        client.tally.ticks,
        client.latencies_ns.len(),
    ) {
        if restarts.pending() && timed.take_boundary() {
            timed.pause(|| restarts.one(&mut checks));
        }
        client.op(&mut serving, Phase::Run);
    }
    let measured = timed.stop(client.tally.ticks, client.latencies_ns.len());

    drop(serving);
    dir.remove(&live_dir);
    while restarts.pending() {
        restarts.one(&mut checks);
    }
    let recover_s = restarts.times;
    let failed = client.failed;
    checks.check(failed == 0, || {
        format!("{failed} ingest ops failed (epoch, release or read)")
    });

    RunOutput {
        setup_s,
        recover_s,
        measured,
        ops: client.tally.ticks,
        rounds: client.tally.ticks,
        attempted: client.attempted,
        latencies_ns: client.latencies_ns,
        failed_ops: failed,
        checks,
        digest: client.digest,
        serve: Some(client.tally),
        leak: None,
    }
}
