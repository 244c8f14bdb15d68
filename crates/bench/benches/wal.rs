//! Write-ahead-log (WAL) overhead and recovery throughput. Writes
//! `BENCH_wal.json` (see the `dplearn_bench` crate docs for the smoke
//! switch and the path).
//!
//! * `batch` (at 1 and 4 configured workers) — the engine's batch of
//!   count requests with no WAL vs with an in-memory WAL under
//!   `FsyncPolicy::EveryAppend`: the durability tax on admission (one
//!   intent frame per admitted request, one commit frame per executed
//!   one).
//! * `append` — encoding a CRC-framed intent record and appending it to
//!   storage, per record.
//! * `recovery` — `wal::replay` over a log of one registration and N
//!   intent/commit pairs, and the full `Engine::recover` (replay plus
//!   ledger restoration).

use dplearn::engine::engine::{Engine, EngineConfig};
use dplearn::engine::request::{QueryKind, QueryRequest};
use dplearn::engine::wal::{self, FsyncPolicy, MemoryWal, WalRecord, WalStorage};
use dplearn::mechanisms::privacy::Budget;
use dplearn_bench::{Report, Timing};
use std::hint::black_box;

/// Generous enough that no request is ever rejected: rejections skip
/// the intent append and would make the compared runs do different
/// work.
const CAP_EPS: f64 = 1e9;
const REQUESTS: usize = 256;

fn build_engine(with_wal: bool) -> Engine {
    let mut e = Engine::new(EngineConfig::default()).unwrap();
    if with_wal {
        e.attach_wal(MemoryWal::new(), FsyncPolicy::EveryAppend)
            .unwrap();
    }
    let values: Vec<f64> = (0..2_000)
        .map(|i| ((i * 31) % 1000) as f64 / 1000.0)
        .collect();
    e.register_dataset(
        "shard0",
        values,
        0.0,
        1.0,
        Budget::new(CAP_EPS, 1e-6).unwrap(),
    )
    .unwrap();
    e
}

fn time_batch(r: &Report, batch: &[QueryRequest], with_wal: bool) -> Timing {
    r.time_batched(
        || build_engine(with_wal),
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

fn intent(seq: u64) -> Vec<u8> {
    WalRecord::Intent {
        seq,
        dataset: "shard0".to_string(),
        cost: Budget::new(1e-3, 0.0).unwrap(),
    }
    .encode_frame()
    .unwrap()
}

/// A log image of one registration plus `pairs` intent/commit pairs:
/// the shape a long-lived serving process leaves behind.
fn build_log_image(pairs: usize) -> Vec<u8> {
    let mut image = WalRecord::DatasetRegistered {
        dataset: "shard0".to_string(),
        cap: Budget::new(CAP_EPS, 1e-6).unwrap(),
    }
    .encode_frame()
    .unwrap();
    for seq in 0..pairs as u64 {
        image.extend_from_slice(&intent(seq));
        image.extend_from_slice(&WalRecord::Commit { seq }.encode_frame().unwrap());
    }
    image
}

fn main() -> std::io::Result<()> {
    let mut r = Report::new("wal", 5);
    let pairs = if r.smoke() { 2_000 } else { 20_000 };

    let batch: Vec<QueryRequest> = (0..REQUESTS)
        .map(|_| {
            let kind = QueryKind::LaplaceCount {
                lo: 0.0,
                hi: 0.5,
                epsilon: 1e-3,
            };
            QueryRequest::new("shard0", kind)
        })
        .collect();
    for threads in [1, 4] {
        dplearn::parallel::set_thread_count(threads);
        let no_wal = time_batch(&r, &batch, false);
        let with_wal = time_batch(&r, &batch, true);
        r.section(
            "batch",
            &[
                ("requests", REQUESTS.into()),
                ("no_wal_seconds", no_wal.into()),
                ("wal_seconds", with_wal.into()),
            ],
        );
    }
    dplearn::parallel::set_thread_count(0);

    let append = r.time(|| {
        let mut storage = MemoryWal::new();
        for seq in 0..pairs as u64 {
            storage.append(&intent(seq)).unwrap();
        }
        black_box(storage.bytes().len());
    });
    r.section(
        "append",
        &[
            ("records", pairs.into()),
            ("ns_per_record", append.scaled(1e9 / pairs as f64).into()),
        ],
    );

    let image = build_log_image(pairs);
    let records = 1 + 2 * pairs;
    let replay = r.time(|| {
        let replayed = wal::replay(&image).unwrap();
        assert_eq!(replayed.records, records);
        black_box(replayed);
    });
    let recover = r.time(|| {
        let storage = MemoryWal::from_bytes(image.clone());
        let engine = Engine::recover(EngineConfig::default(), storage).unwrap();
        assert_eq!(engine.recovered_pending(), vec!["shard0"]);
        black_box(engine);
    });
    r.section(
        "recovery",
        &[
            ("log_records", records.into()),
            ("replay_seconds", replay.into()),
            ("recover_seconds", recover.into()),
        ],
    );
    r.write()
}
