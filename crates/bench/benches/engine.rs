//! Budget-engine and serving-loop benches. Writes `BENCH_engine.json`
//! (see the `dplearn_bench` crate docs for the smoke switch and the
//! path).
//!
//! Every section runs at 1 and 4 configured workers; results are
//! bit-identical at any worker count (`tests/determinism.rs`), so the
//! two rows differ only in time.
//!
//! * `batch` — one mixed batch (counts, selections, Gibbs quantiles,
//!   SVT runs over 4 datasets) through `Engine::run_batch` on a fresh
//!   engine per repetition: with the default `NoopRecorder`, and with a
//!   `MemoryRecorder` attached. `noop_events` is the exact number of
//!   recorder calls the batch makes (counted by a probe that reports
//!   itself disabled, as `NoopRecorder` does), and `noop_share_percent`
//!   prices them at the measured cost of one dynamic call into
//!   `NoopRecorder`, as a share of the batch's median time.
//! * `sufficient_stats` — the batch's dataset reads through the sorted
//!   copy (`count_in`, `rank_risks`) vs the per-request linear scans the
//!   engine ran before; the two are asserted bit-identical.
//! * `shards` — the serving loop draining 10⁵ count requests over 64
//!   tenants with 1 shard and with 4. CI asserts 4 shards are no slower
//!   on a multicore host at 4 workers.

use dplearn::engine::dataset::Dataset;
use dplearn::engine::engine::{Engine, EngineConfig};
use dplearn::engine::request::{QueryKind, QueryRequest, SelectStrategy};
use dplearn::mechanisms::privacy::Budget;
use dplearn::telemetry::{MemoryRecorder, NoopRecorder, Recorder};
use dplearn_bench::{Report, Timing};
use dplearn_serve::{ServeConfig, ServingLoop};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const DATASETS: usize = 4;
const SHARD_REQUESTS: usize = 100_000;
const TENANTS: usize = 64;
const TICK_BUDGET: usize = 4_096;

/// Generous enough that no request is ever rejected: rejections skip
/// execution and would make the compared runs do different work.
const CAP_EPS: f64 = 1e9;

fn values(records: usize, salt: usize) -> Vec<f64> {
    (0..records)
        .map(|i| ((i * 31 + salt * 17) % 1000) as f64 / 1000.0)
        .collect()
}

fn cap() -> Budget {
    Budget::new(CAP_EPS, 1e-6).unwrap()
}

fn build_engine(records: usize) -> Engine {
    let mut e = Engine::new(EngineConfig::default()).unwrap();
    for d in 0..DATASETS {
        e.register_dataset(&format!("shard{d}"), values(records, d), 0.0, 1.0, cap())
            .unwrap();
    }
    e
}

/// A mixed workload across the datasets: the Gibbs and selection
/// queries scan the records, so batch execution has work to spread.
fn build_batch(requests: usize) -> Vec<QueryRequest> {
    (0..requests)
        .map(|i| {
            let kind = match i % 4 {
                0 => QueryKind::LaplaceCount {
                    lo: 0.0,
                    hi: 0.5,
                    epsilon: 0.1,
                },
                1 => QueryKind::Select {
                    bins: 64,
                    epsilon: 0.1,
                    strategy: SelectStrategy::PermuteAndFlip,
                },
                2 => QueryKind::GibbsQuantile {
                    quantile: 0.5,
                    candidates: 257,
                    epsilon: 0.05,
                    draws: 4,
                },
                _ => QueryKind::SvtRun {
                    threshold: 100.0,
                    epsilon: 0.2,
                    probes: vec![(0.0, 0.2), (0.0, 0.5), (0.0, 0.9)],
                },
            };
            QueryRequest::new(format!("shard{}", i % DATASETS), kind)
        })
        .collect()
}

/// Counts every recorder call while reporting `enabled() == false`,
/// exactly like `NoopRecorder`.
struct CountingDisabled(AtomicU64);

impl CountingDisabled {
    fn count(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

impl Recorder for CountingDisabled {
    fn enabled(&self) -> bool {
        self.count();
        false
    }
    fn counter_add(&self, _name: &'static str, _label: &str, _delta: u64) {
        self.count();
    }
    fn gauge_set(&self, _name: &'static str, _label: &str, _value: f64) {
        self.count();
    }
    fn histogram_record(&self, _name: &'static str, _label: &str, _value: f64) {
        self.count();
    }
    fn span_begin(&self) -> u64 {
        self.count();
        0
    }
    fn span_end(&self, _name: &'static str, _label: &str, _begin: u64) {
        self.count();
    }
}

/// Run the batch on a fresh engine per repetition (ledgers are charged
/// by each run); `None` keeps the engine's default `NoopRecorder`.
fn time_batch(
    r: &Report,
    records: usize,
    batch: &[QueryRequest],
    recorder: Option<Arc<dyn Recorder>>,
) -> Timing {
    r.time_batched(
        || {
            let mut engine = build_engine(records);
            if let Some(rec) = &recorder {
                engine.set_recorder(Arc::clone(rec));
            }
            engine
        },
        |engine| {
            let report = engine.run_batch(batch);
            assert_eq!(
                report.executed(),
                batch.len(),
                "workload must execute fully for a fair measurement"
            );
            black_box(report);
        },
    )
}

fn bench_batch(r: &mut Report, records: usize, requests: usize) {
    let batch = build_batch(requests);
    let probe = Arc::new(CountingDisabled(AtomicU64::new(0)));
    let mut engine = build_engine(records);
    engine.set_recorder(probe.clone());
    assert_eq!(engine.run_batch(&batch).executed(), batch.len());
    let events = probe.0.load(Ordering::Relaxed);

    let noop = time_batch(r, records, &batch, None);
    let memory = time_batch(r, records, &batch, Some(Arc::new(MemoryRecorder::new())));
    const CALLS: u64 = 20_000_000;
    let recorder: &dyn Recorder = black_box(&NoopRecorder);
    let per_event = r
        .time(|| {
            for i in 0..CALLS {
                recorder.counter_add("bench.telemetry.event", "", black_box(i & 1));
            }
        })
        .scaled(1e9 / CALLS as f64);
    let share = events as f64 * per_event.median / (noop.median * 1e9) * 100.0;
    r.section(
        "batch",
        &[
            ("datasets", DATASETS.into()),
            ("records_per_dataset", records.into()),
            ("requests", requests.into()),
            ("seconds", noop.into()),
            ("memory_recorder_seconds", memory.into()),
            ("noop_events", events.into()),
            ("noop_event_ns", per_event.into()),
            ("noop_share_percent", share.into()),
        ],
    );
}

fn scan_count_in(values: &[f64], lo: f64, hi: f64) -> usize {
    values.iter().filter(|&&v| v >= lo && v <= hi).count()
}

fn scan_rank_risks(values: &[f64], candidates: &[f64], q: f64) -> Vec<f64> {
    let n = values.len() as f64;
    candidates
        .iter()
        .map(|&c| {
            let below = values.iter().filter(|&&v| v <= c).count() as f64;
            (below / n - q).abs()
        })
        .collect()
}

/// Replay the batch's dataset reads through linear scans or through the
/// sorted copy, returning a checksum. `Select`'s `bin_counts` is not
/// cached, costs the same either way, and is skipped.
fn replay_batch_reads(ds: &[Dataset], batch: &[QueryRequest], scans: bool) -> f64 {
    let count = |d: &Dataset, lo: f64, hi: f64| {
        if scans {
            scan_count_in(d.values(), lo, hi)
        } else {
            d.count_in(lo, hi)
        }
    };
    let mut acc = 0.0f64;
    for (i, req) in batch.iter().enumerate() {
        let d = &ds[i % ds.len()];
        match &req.kind {
            QueryKind::LaplaceCount { lo, hi, .. } => acc += count(d, *lo, *hi) as f64,
            QueryKind::GibbsQuantile {
                quantile,
                candidates,
                ..
            } => {
                let grid = d.candidate_grid(*candidates).unwrap_or_default();
                let risks = if scans {
                    scan_rank_risks(d.values(), &grid, *quantile)
                } else {
                    d.rank_risks(&grid, *quantile)
                };
                acc += risks.iter().sum::<f64>();
            }
            QueryKind::SvtRun { probes, .. } => {
                for &(lo, hi) in probes {
                    acc += count(d, lo, hi) as f64;
                }
            }
            _ => {}
        }
    }
    acc
}

fn bench_sufficient_stats(r: &mut Report, records: usize, requests: usize) {
    let ds: Vec<Dataset> = (0..DATASETS)
        .map(|d| Dataset::new(&format!("shard{d}"), values(records, d), 0.0, 1.0).unwrap())
        .collect();
    let batch = build_batch(requests);
    assert_eq!(
        replay_batch_reads(&ds, &batch, true).to_bits(),
        replay_batch_reads(&ds, &batch, false).to_bits(),
        "sufficient-stat reads must reproduce the linear scans"
    );
    let scans = r.time(|| {
        black_box(replay_batch_reads(&ds, &batch, true));
    });
    let stats = r.time(|| {
        black_box(replay_batch_reads(&ds, &batch, false));
    });
    r.section(
        "sufficient_stats",
        &[
            ("datasets", DATASETS.into()),
            ("records_per_dataset", records.into()),
            ("requests", requests.into()),
            ("scan_seconds", scans.into()),
            ("stats_seconds", stats.into()),
        ],
    );
}

/// A fleet of `shards` with [`SHARD_REQUESTS`] count requests queued
/// over [`TENANTS`] tenants.
fn loaded_fleet(shards: usize) -> ServingLoop {
    let config = ServeConfig {
        shards,
        ..ServeConfig::default()
    };
    let mut serving = ServingLoop::new(config).unwrap();
    let tenants: Vec<String> = (0..TENANTS).map(|i| format!("tenant-{i:03}")).collect();
    for tenant in &tenants {
        serving
            .register_tenant(tenant, values(256, 0), 0.0, 1.0, cap())
            .unwrap();
    }
    for i in 0..SHARD_REQUESTS {
        let kind = QueryKind::LaplaceCount {
            lo: 0.0,
            hi: 0.5,
            epsilon: 1e-4,
        };
        serving.enqueue(QueryRequest::new(tenants[i % TENANTS].as_str(), kind));
    }
    assert_eq!(serving.queue_depth(), SHARD_REQUESTS);
    serving
}

/// Drain time of the loaded fleet: route, admit, execute and reassemble
/// in ticket order.
fn drain(r: &Report, shards: usize) -> Timing {
    r.time_batched(
        || loaded_fleet(shards),
        |serving| {
            let mut executed = 0usize;
            while serving.queue_depth() > 0 {
                let report = serving.tick_bounded(TICK_BUDGET);
                executed += report.executed();
                black_box(report.outcomes.len());
            }
            assert_eq!(executed, SHARD_REQUESTS, "workload must execute fully");
        },
    )
}

fn main() -> std::io::Result<()> {
    let mut r = Report::new("engine", 5);
    let (records, requests) = if r.smoke() { (4_000, 32) } else { (20_000, 64) };
    for threads in [1, 4] {
        dplearn::parallel::set_thread_count(threads);
        bench_batch(&mut r, records, requests);
        bench_sufficient_stats(&mut r, records, requests);
        let (one, four) = (drain(&r, 1), drain(&r, 4));
        r.section(
            "shards",
            &[
                ("requests", SHARD_REQUESTS.into()),
                ("tenants", TENANTS.into()),
                ("shards1_seconds", one.into()),
                ("shards4_seconds", four.into()),
            ],
        );
    }
    dplearn::parallel::set_thread_count(0);
    r.write()
}
