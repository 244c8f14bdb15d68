//! Streaming ingest and continual release. Writes `BENCH_streaming.json`
//! (see the `dplearn_bench` crate docs for the smoke switch and the
//! path).
//!
//! * `ingest` — append 10⁵ and 10⁶ records in 1000-record batches into
//!   an exact-mode dataset (a sorted-copy merge per append) and a
//!   sketch-mode one (a mergeable rank sketch). CI asserts the sketch is
//!   at least 10× faster at 10⁶ records. After the large ingest the
//!   sketch's rank answers at 21 probes must lie within its declared
//!   worst-case error of the exact answers (asserted here and in CI).
//! * `continual` — a tree-aggregation counter over a 4096-step horizon:
//!   one release after each observation, then a bit-stability re-read
//!   of the whole release tape (asserted here and in CI).

use dplearn::engine::dataset::{Dataset, StatsMode};
use dplearn::mechanisms::continual::TreeCounter;
use dplearn::mechanisms::privacy::Epsilon;
use dplearn_bench::{Report, Timing};
use std::hint::black_box;

const BATCH: usize = 1_000;
const SKETCH_K: usize = 200;
const HORIZON: u64 = 4_096;
const RECORDS: [usize; 2] = [100_000, 1_000_000];
const RANK_PROBES: usize = 21;

/// Deterministic in-domain record stream: value i of the workload.
fn record(i: usize) -> f64 {
    ((i.wrapping_mul(2_654_435_761)) % 100_000) as f64 / 100_000.0
}

/// Append `total` records in [`BATCH`]-sized batches under `mode`.
fn ingest(total: usize, mode: StatsMode) -> Dataset {
    let first: Vec<f64> = (0..BATCH).map(record).collect();
    let mut d = Dataset::with_mode("stream", first, 0.0, 1.0, mode).unwrap();
    let mut next = BATCH;
    while next < total {
        let batch: Vec<f64> = (next..(next + BATCH).min(total)).map(record).collect();
        d.append(&batch).unwrap();
        next += batch.len();
        black_box(d.stats().count());
    }
    assert_eq!(d.len(), total, "ingest must land every record");
    d
}

fn time_ingest(r: &Report, total: usize, mode: StatsMode) -> Timing {
    r.time(|| {
        black_box(ingest(total, mode));
    })
}

/// Max |sketch rank − exact rank| over [`RANK_PROBES`] evenly spaced
/// probes.
fn rank_error(sketch: &Dataset, exact: &Dataset) -> u64 {
    (0..RANK_PROBES)
        .map(|i| {
            let x = i as f64 / (RANK_PROBES - 1) as f64;
            sketch.stats().rank(x).abs_diff(exact.stats().rank(x)) as u64
        })
        .max()
        .unwrap_or(0)
}

/// Observe [`HORIZON`] steps with one release after each; returns the
/// release tape and the counter.
fn continual(seed: u64) -> (Vec<f64>, TreeCounter) {
    let eps = Epsilon::new(0.5).unwrap();
    let mut counter = TreeCounter::new(eps, HORIZON, seed).unwrap();
    let tape = (0..HORIZON)
        .map(|t| {
            counter.observe((t % 7) + 1).unwrap();
            counter.release().unwrap()
        })
        .collect();
    (tape, counter)
}

fn main() -> std::io::Result<()> {
    let mut r = Report::new("streaming", 3);
    let sketch = StatsMode::Sketch { k: SKETCH_K };
    for total in RECORDS {
        let exact_seconds = time_ingest(&r, total, StatsMode::Exact);
        let sketch_seconds = time_ingest(&r, total, sketch);
        let (exact_ds, sketch_ds) = (ingest(total, StatsMode::Exact), ingest(total, sketch));
        let err = rank_error(&sketch_ds, &exact_ds);
        let bound = sketch_ds.stats().rank_error_bound();
        assert!(
            err <= bound,
            "sketch rank error {err} exceeds declared bound {bound}"
        );
        r.section(
            "ingest",
            &[
                ("records", total.into()),
                ("batch", BATCH.into()),
                ("sketch_k", SKETCH_K.into()),
                ("exact_seconds", exact_seconds.into()),
                ("sketch_seconds", sketch_seconds.into()),
                ("rank_probes", RANK_PROBES.into()),
                ("rank_error_max", err.into()),
                ("rank_error_bound", bound.into()),
                ("rank_within_bound", (err <= bound).into()),
            ],
        );
    }

    const SEED: u64 = 0x5354_5245_414d;
    let release = r
        .time(|| {
            black_box(continual(SEED));
        })
        .scaled(1e9 / HORIZON as f64);
    let (tape, counter) = continual(SEED);
    let stable = tape
        .iter()
        .zip(1..)
        .all(|(&v, t)| counter.release_at(t).unwrap().to_bits() == v.to_bits());
    assert!(stable, "continual release tape drifted");
    r.section(
        "continual",
        &[
            ("horizon", HORIZON.into()),
            ("release_ns", release.into()),
            ("bit_stable", stable.into()),
        ],
    );
    r.write()
}
