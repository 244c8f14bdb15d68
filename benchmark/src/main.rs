//! The dplearn benchmark: three closed-loop workloads over the public
//! library API, each run in its own process.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_durable --seed 20120330 --seconds 15 --trace 0
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics. With
//! `--trace 1` it runs the workload twice, each in a child process:
//! untraced for `--seconds`, then traced for exactly as many rounds,
//! and prints the per-layer metrics of the traced run. The two runs
//! must produce bit-identical outputs. The last line of standard
//! output is always one JSON object; `spec.json` beside this package
//! records why each workload exists and what each layer metric should
//! move.

mod leakage;
mod probes;
mod report;
mod serve;
mod sys;
mod trace;

use report::{median, quantile, result_line, Checks, Digest, Metric};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::{Name, Phase};

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 20_120_330;
/// Minimum share of the timed phase's wall time that the call spans
/// and the tracer's own folding must cover in a traced run. The rest is
/// the closed-loop client: building requests, checking outcomes and
/// recording latencies, about 4% on `serve_durable`'s µs-scale requests.
const MIN_COVERAGE: f64 = 0.94;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeDurable,
    IngestStream,
    LeakageAudit,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ServeDurable,
        Workload::IngestStream,
        Workload::LeakageAudit,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ServeDurable => "serve_durable",
            Workload::IngestStream => "ingest_stream",
            Workload::LeakageAudit => "leakage_audit",
        }
    }
}

/// Pool workers, for every workload. The reference host has 2 vCPUs,
/// but other guests steal them: at 2 workers, 10–14 s of steal per
/// 23-second run spread a heavy-read serving workload's throughput by
/// 49% and its p90 by 64% over five runs, while CPU time per op moved
/// 5%. At one worker the second vCPU absorbs the host's noise. A
/// parallel speedup needs a host with reliable cores; the `parallel.*`
/// layer metrics are kept for it.
const POOL_WORKERS: usize = 1;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    workload: Workload,
    pub seed: u64,
    seconds: f64,
    trace: bool,
    /// The untraced run a traced run must reproduce, round for round.
    reference: Option<Reference>,
    /// Smoke-test sizes.
    pub tiny: bool,
}

/// What the untraced run of a `--trace 1` invocation reported.
#[derive(Debug, Clone)]
struct Reference {
    rounds: u64,
    digest: String,
    throughput: f64,
    correct: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut reference = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                };
            }
            "--reference" => reference = Some(parse_reference(&value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        reference,
        tiny,
    })
}

fn parse_reference(s: &str) -> Result<Reference, String> {
    let bad = || format!("bad reference {s}");
    let parts: Vec<&str> = s.split(':').collect();
    let [rounds, digest, throughput, correct] = parts[..] else {
        return Err(bad());
    };
    Ok(Reference {
        rounds: rounds.parse().map_err(|_| bad())?,
        digest: digest.to_string(),
        throughput: throughput.parse().map_err(|_| bad())?,
        correct: correct == "1",
    })
}

/// A scratch directory for WAL files under the working directory,
/// removed when dropped.
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    fn new(args: &Args) -> Self {
        let root = Path::new(".bench_run").join(format!(
            "{}-{}",
            args.workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&root).expect("the working directory is writable");
        RunDir { root }
    }

    /// An empty subdirectory named `name`.
    fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the working directory is writable");
        dir
    }

    fn remove(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(".bench_run");
    }
}

/// Length of a segment of the timed phase, seconds. Each end-to-end
/// rate and latency is the median of its per-segment values: on the
/// reference host, contention from other guests shifts CPU speed by
/// 10–30% for a few seconds at a time, and the median over many short
/// segments discounts it.
const SEGMENT_S: f64 = 2.0;

/// Progress at the end of a segment of the timed phase.
#[derive(Debug, Clone, Copy)]
struct Mark {
    /// Seconds since the timed phase started.
    t: f64,
    ops: u64,
    /// Latency samples recorded so far.
    samples: usize,
    cpu_s: f64,
}

/// Wall and CPU time of a timed phase (pauses excluded), host steal
/// over it (pauses included), its segment marks, and the peak resident
/// set of the ready system.
#[derive(Debug, Clone)]
pub struct Measured {
    wall_s: f64,
    cpu_s: f64,
    steal_s: f64,
    /// `VmHWM` when the timed phase starts: set-up and warm-up done.
    /// Read then, not at exit, because the timed phase keeps growing
    /// ledgers and streams by a fixed amount per op, which would make a
    /// faster program look larger.
    ready_rss_mb: f64,
    /// Segment ends, at round boundaries; the last is the phase's end.
    marks: Vec<Mark>,
}

/// The timed phase: runs for `--seconds`, or for exactly the
/// reference's rounds in a traced run. Work done inside
/// [`Timed::pause`] is left out of its wall and CPU time.
pub struct Timed {
    start: Instant,
    cpu0: f64,
    steal0: f64,
    ready_rss_mb: f64,
    marks: Vec<Mark>,
    paused_s: f64,
    paused_cpu_s: f64,
    /// A segment has just closed and no pause has followed it yet.
    boundary: bool,
}

impl Timed {
    fn start() -> Self {
        let ready_rss_mb = sys::peak_rss_mb();
        let (cpu0, steal0) = (sys::process_cpu_s(), sys::host_steal_s());
        Timed {
            start: Instant::now(),
            cpu0,
            steal0,
            ready_rss_mb,
            marks: Vec::new(),
            paused_s: 0.0,
            paused_cpu_s: 0.0,
            boundary: false,
        }
    }

    fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.paused_s
    }

    fn cpu_s(&self) -> f64 {
        sys::process_cpu_s() - self.cpu0 - self.paused_cpu_s
    }

    fn mark(&mut self, ops: u64, samples: usize) {
        self.marks.push(Mark {
            t: self.elapsed_s(),
            ops,
            samples,
            cpu_s: self.cpu_s(),
        });
    }

    /// Called between rounds with the progress so far: closes a
    /// segment when its time is up and says whether the phase is over.
    fn done(&mut self, args: &Args, rounds: u64, ops: u64, samples: usize) -> bool {
        if let Some(reference) = &args.reference {
            return rounds >= reference.rounds;
        }
        let segments = (args.seconds / SEGMENT_S).round().max(1.0) as usize;
        let segment_end = args.seconds * (self.marks.len() + 1) as f64 / segments as f64;
        if self.elapsed_s() >= segment_end {
            self.mark(ops, samples);
            self.boundary = true;
        }
        self.marks.len() == segments
    }

    /// Whether a segment has closed since the last call: a point where
    /// other work can [`pause`](Timed::pause) the phase.
    fn take_boundary(&mut self) -> bool {
        std::mem::take(&mut self.boundary)
    }

    /// Run `f` with the phase's clocks stopped.
    fn pause<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (t0, cpu0) = (Instant::now(), sys::process_cpu_s());
        let out = f();
        self.paused_s += t0.elapsed().as_secs_f64();
        self.paused_cpu_s += sys::process_cpu_s() - cpu0;
        out
    }

    fn stop(mut self, ops: u64, samples: usize) -> Measured {
        if self.marks.last().is_none_or(|m| m.ops < ops) {
            self.mark(ops, samples);
        }
        Measured {
            wall_s: self.elapsed_s(),
            cpu_s: self.cpu_s(),
            steal_s: sys::host_steal_s() - self.steal0,
            ready_rss_mb: self.ready_rss_mb,
            marks: self.marks,
        }
    }
}

/// Per-segment values of the timed phase, for segment medians.
struct Segment<'a> {
    seconds: f64,
    ops: f64,
    cpu_s: f64,
    latencies_ns: &'a [u64],
}

fn segments(out: &RunOutput) -> Vec<Segment<'_>> {
    let zero = Mark {
        t: 0.0,
        ops: 0,
        samples: 0,
        cpu_s: 0.0,
    };
    let mut prev = zero;
    let mut segs = Vec::new();
    for mark in &out.measured.marks {
        if mark.ops > prev.ops {
            segs.push(Segment {
                seconds: mark.t - prev.t,
                ops: (mark.ops - prev.ops) as f64,
                cpu_s: mark.cpu_s - prev.cpu_s,
                latencies_ns: &out.latencies_ns[prev.samples..mark.samples],
            });
        }
        prev = *mark;
    }
    segs
}

/// Everything a workload run hands back.
pub struct RunOutput {
    setup_s: Vec<f64>,
    recover_s: Vec<f64>,
    measured: Measured,
    /// Ops completed in the timed phase.
    ops: u64,
    /// Driver rounds in the timed phase (ticks or ops).
    rounds: u64,
    /// Ops attempted in the whole run, warm-up included.
    attempted: u64,
    latencies_ns: Vec<u64>,
    /// Ops that were rejected, faulted or returned an invalid output.
    failed_ops: u64,
    checks: Checks,
    digest: Digest,
    serve: Option<serve::ServeTally>,
    leak: Option<leakage::LeakTally>,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn mean_ms(samples: &[u64]) -> f64 {
    samples.iter().map(|&ns| ns as f64).sum::<f64>() / samples.len() as f64 / 1e6
}

fn latency_ms(samples: &[u64], q: f64) -> f64 {
    let mut ms: Vec<f64> = samples.iter().map(|&ns| ns as f64 / 1e6).collect();
    quantile(&mut ms, q)
}

fn throughput(out: &RunOutput) -> f64 {
    out.ops as f64 / out.measured.wall_s
}

fn end_to_end(out: &RunOutput) -> Vec<Metric> {
    let failed = out.failed_ops + out.checks.failed();
    let segs = segments(out);
    let seg_median = |f: &dyn Fn(&Segment) -> f64| median(&segs.iter().map(f).collect::<Vec<_>>());
    vec![
        m("setup_s", "s", median(&out.setup_s)),
        m(
            "throughput_ops_s",
            "ops/s",
            seg_median(&|s| s.ops / s.seconds),
        ),
        // The mean, not the median: on the reference host a µs-scale
        // request runs in one of two speeds, as another guest's load on
        // the core comes and goes (serve_durable: modes near 230 and
        // 355 µs, about half the requests in each). The median sits in
        // the gap between them and jumps (spread 0.26–0.29 over ten
        // seeds), while the mean moves with the share of each mode.
        m(
            "latency_mean_ms",
            "ms",
            seg_median(&|s| mean_ms(s.latencies_ns)),
        ),
        m(
            "latency_p90_ms",
            "ms",
            seg_median(&|s| latency_ms(s.latencies_ns, 0.9)),
        ),
        m(
            "cpu_us_per_op",
            "us",
            seg_median(&|s| s.cpu_s * 1e6 / s.ops),
        ),
        m("peak_rss_mb", "MB", out.measured.ready_rss_mb),
        m("recover_s", "s", median(&out.recover_s)),
        m(
            "ok_ratio",
            "fraction",
            1.0 - failed.min(out.attempted) as f64 / out.attempted as f64,
        ),
    ]
}

/// Per-layer metrics of a traced run, and the share of the timed
/// phase's wall time its call spans cover.
fn per_layer(out: &RunOutput, reference_throughput: f64) -> (Vec<Metric>, f64) {
    let s = |ns: u64| ns as f64 / 1e9;
    let run = |name: Name| trace::totals(Phase::Run, name);
    let busy = |name: Name| s(run(name).busy_ns);
    let calls = |name: Name| run(name).calls as f64;
    let per_setup =
        |name: Name| s(trace::totals(Phase::Setup, name).busy_ns) / out.setup_s.len() as f64;
    let per_restart = |ns: u64| s(ns) / out.recover_s.len() as f64;
    let restart = |name: Name| trace::totals(Phase::Restart, name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let ops = out.ops.max(1) as f64;
    let tally = out.serve.as_ref();
    let leak = out.leak.as_ref();
    let count = |f: fn(&serve::ServeTally) -> u64| tally.map_or(0.0, |t| f(t) as f64);

    // The tracer's own folding happens between library calls; it is
    // measured, so it counts as accounted for.
    let call_spans = [
        Name::Fold,
        Name::Enqueue,
        Name::Tick,
        Name::Append,
        Name::Release,
        Name::FlatMaxLogRatio,
        Name::FlatMi,
        Name::FlatMinEntropy,
        Name::BaSolve,
    ];
    let coverage = call_spans.iter().map(|&d| busy(d)).sum::<f64>() / out.measured.wall_s;
    let (par_sum, par_union) = (busy(Name::ParallelSum), busy(Name::ParallelUnion));
    let flat_busy = busy(Name::FlatMaxLogRatio) + busy(Name::FlatMi) + busy(Name::FlatMinEntropy);
    let (wal_append, wal_flush) = (run(Name::WalAppend), run(Name::WalFlush));

    let mut v = vec![
        m("serve.enqueue.calls", "count", calls(Name::Enqueue)),
        m("serve.enqueue.busy_s", "s", busy(Name::Enqueue)),
        m("serve.tick.calls", "count", calls(Name::Tick)),
        m("serve.tick.busy_s", "s", busy(Name::Tick)),
        m("serve.tick.self_s", "s", s(run(Name::Tick).self_ns)),
        m(
            "serve.tick.requests_mean",
            "count",
            ratio(count(|t| t.requests), count(|t| t.ticks)),
        ),
        m(
            "serve.shard.skew",
            "ratio",
            tally.map_or(0.0, |t| ratio(t.skew_sum, t.ticks as f64)),
        ),
        m("serve.append.calls", "count", calls(Name::Append)),
        m("serve.append.busy_s", "s", busy(Name::Append)),
        m("serve.append.self_s", "s", s(run(Name::Append).self_ns)),
        m("serve.release.busy_s", "s", busy(Name::Release)),
        m("serve.register.busy_s", "s", per_setup(Name::Register)),
        m("serve.attach_wal.busy_s", "s", per_setup(Name::AttachWal)),
    ];
    let (recover, reregister, report, snapshot) = (
        restart(Name::Recover),
        restart(Name::Reregister),
        restart(Name::Report),
        restart(Name::WalSnapshot),
    );
    v.extend([
        m("serve.recover.busy_s", "s", per_restart(recover.busy_ns)),
        m("serve.recover.self_s", "s", per_restart(recover.self_ns)),
        m(
            "serve.reregister.busy_s",
            "s",
            per_restart(reregister.busy_ns),
        ),
        m("serve.report.busy_s", "s", per_restart(report.busy_ns)),
        m("engine.executed", "count", count(|t| t.executed)),
        m("engine.rejected", "count", count(|t| t.rejected)),
        m("engine.faulted", "count", count(|t| t.faulted)),
        m("engine.retries", "count", count(|t| t.retries)),
        m("engine.admit.calls", "count", calls(Name::Admit)),
        m("engine.admit.busy_s", "s", busy(Name::Admit)),
        m("wal.append.calls", "count", wal_append.calls as f64),
        m("wal.append.bytes", "B", wal_append.bytes as f64),
        m("wal.append.busy_s", "s", s(wal_append.busy_ns)),
        m("wal.flush.calls", "count", wal_flush.calls as f64),
        m("wal.flush.busy_s", "s", s(wal_flush.busy_ns)),
        m("wal.flushes_per_op", "count", wal_flush.calls as f64 / ops),
        m("wal.bytes_per_op", "B", wal_append.bytes as f64 / ops),
        m("wal.snapshot.busy_s", "s", per_restart(snapshot.busy_ns)),
        m(
            "wal.log_bytes",
            "B",
            tally.map_or(0.0, |t| t.log_bytes as f64),
        ),
    ]);
    for (name, calls_metric, busy_metric) in MECH_METRICS {
        v.push(m(calls_metric, "count", calls(name)));
        v.push(m(busy_metric, "s", busy(name)));
    }
    let ba_busy = busy(Name::BaSolve);
    v.extend([
        m("parallel.execute.sum_s", "s", par_sum),
        m("parallel.execute.union_s", "s", par_union),
        m("parallel.achieved", "ratio", ratio(par_sum, par_union)),
        m("ba.solve.busy_s", "s", ba_busy),
        m(
            "ba.iterations",
            "count",
            leak.map_or(0.0, |l| l.ba_iterations as f64),
        ),
        m("ba.final_gap", "prob", leak.map_or(0.0, |l| l.ba_final_gap)),
        m(
            "ba.cells_per_s",
            "1/s",
            ratio(leak.map_or(0.0, |l| l.ba_cells), ba_busy),
        ),
        m(
            "flat.max_log_ratio.busy_s",
            "s",
            busy(Name::FlatMaxLogRatio),
        ),
        m("flat.mi.busy_s", "s", busy(Name::FlatMi)),
        m("flat.min_entropy.busy_s", "s", busy(Name::FlatMinEntropy)),
        m(
            "flat.computed_gb_s",
            "GB/s",
            ratio(
                leak.map_or(0.0, |l| 3.0 * 8.0 * l.channel_cells * l.ops as f64) / 1e9,
                flat_busy,
            ),
        ),
        m("gibbs.build.busy_s", "s", per_setup(Name::GibbsBuild)),
        m("flat.build.busy_s", "s", per_setup(Name::FlatBuild)),
        m("proc.cpu_s", "s", out.measured.cpu_s),
        m("proc.steal_s", "s", out.measured.steal_s),
        m(
            "trace.overhead",
            "ratio",
            ratio(reference_throughput, throughput(out)) - 1.0,
        ),
        m("trace.coverage", "ratio", coverage),
    ]);
    (v, coverage)
}

/// Per-layer metric names of each traced mechanism.
const MECH_METRICS: [(Name, &str, &str); 4] = [
    (
        Name::MechLaplaceCount,
        "mech.laplace_count.calls",
        "mech.laplace_count.busy_s",
    ),
    (
        Name::MechLaplaceSum,
        "mech.laplace_sum.calls",
        "mech.laplace_sum.busy_s",
    ),
    (
        Name::MechSvtRun,
        "mech.svt_run.calls",
        "mech.svt_run.busy_s",
    ),
    (
        Name::MechGibbsQuantile,
        "mech.gibbs_quantile.calls",
        "mech.gibbs_quantile.busy_s",
    ),
];

fn run_workload(args: &Args) -> RunOutput {
    dplearn_parallel::set_thread_count(POOL_WORKERS);
    match args.workload {
        Workload::ServeDurable => serve::run_durable(args),
        Workload::IngestStream => serve::run_ingest(args),
        Workload::LeakageAudit => leakage::run_leakage(args),
    }
}

/// One workload run in this process: untraced, or traced against a
/// reference.
fn run_here(args: &Args) -> ExitCode {
    if args.trace {
        trace::enable();
    }
    let mut out = run_workload(args);
    let mut metrics_ok = true;
    let metrics = match &args.reference {
        None => end_to_end(&out),
        Some(reference) => {
            let (metrics, coverage) = per_layer(&out, reference.throughput);
            let digest = out.digest.hex();
            out.checks.check(reference.correct, || {
                "the untraced reference run failed its checks".to_string()
            });
            out.checks.check(digest == reference.digest, || {
                format!(
                    "traced outputs (digest {digest}) differ from the untraced run's ({})",
                    reference.digest
                )
            });
            out.checks
                .check((MIN_COVERAGE..=1.0 + 1e-9).contains(&coverage), || {
                    format!("call spans cover {coverage:.4} of the timed phase's wall time")
                });
            metrics
        }
    };
    for metric in &metrics {
        metrics_ok &= metric.value.is_finite();
    }
    out.checks
        .check(metrics_ok, || "a metric is not finite".to_string());
    let failed = (out.failed_ops + out.checks.failed()).min(out.attempted);
    eprintln!(
        "set-ups {:?} s, restarts {:?} s, segment rates {:?} ops/s",
        out.setup_s,
        out.recover_s,
        segments(&out)
            .iter()
            .map(|s| s.ops / s.seconds)
            .collect::<Vec<_>>()
    );
    println!(
        "diag rounds={} digest={} throughput_ops_s={:?} correct={} proc.cpu_s={:?} proc.steal_s={:?} latency_p50_ms={:?}",
        out.rounds,
        out.digest.hex(),
        throughput(&out),
        u8::from(failed == 0),
        out.measured.cpu_s,
        out.measured.steal_s,
        latency_ms(&out.latencies_ns, 0.5),
    );
    println!(
        "{}",
        result_line(failed == 0, out.attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// Run this benchmark binary again as a child with `extra` arguments.
fn child(args: &Args, extra: &[String], stdout: Stdio) -> std::process::Child {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut cmd = Command::new(exe);
    cmd.arg("--workload")
        .arg(args.workload.name())
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--seconds")
        .arg(args.seconds.to_string())
        .args(extra)
        .stdout(stdout);
    if args.tiny {
        cmd.arg("--tiny");
    }
    cmd.spawn().expect("the benchmark can start itself")
}

/// `--trace 1`: the untraced run, then the traced replay of its rounds.
fn run_traced(args: &Args) -> ExitCode {
    let untraced = child(args, &["--trace".into(), "0".into()], Stdio::piped())
        .wait_with_output()
        .expect("waiting for the untraced run");
    let stdout = String::from_utf8_lossy(&untraced.stdout);
    eprint!("{stdout}");
    let diag = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("diag "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|kv| kv.split_once('='))
                .collect::<Vec<_>>()
        });
    let (Some(diag), true) = (diag, untraced.status.success()) else {
        eprintln!("the untraced run did not complete");
        return ExitCode::FAILURE;
    };
    let get = |key: &str| diag.iter().find(|(k, _)| *k == key).map_or("", |(_, v)| *v);
    let reference = format!(
        "{}:{}:{}:{}",
        get("rounds"),
        get("digest"),
        get("throughput_ops_s"),
        get("correct")
    );
    let status = child(
        args,
        &[
            "--trace".into(),
            "1".into(),
            "--reference".into(),
            reference,
        ],
        Stdio::inherit(),
    )
    .wait()
    .expect("waiting for the traced run");
    if status.success() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.trace && args.reference.is_none() {
        run_traced(&args)
    } else {
        run_here(&args)
    }
}
