//! Byte compatibility of the write-ahead log codec.
//!
//! A log written by any earlier build must recover unchanged, so the
//! frame bytes are a contract: the slice-by-8 CRC must equal the
//! bytewise table CRC it replaced, and one record of every type must
//! encode to the committed golden bytes and decode back to itself.

use dplearn_engine::engine::{Engine, EngineConfig};
use dplearn_engine::wal::{crc32, scan_frames, FsyncPolicy, MemoryWal, WalRecord};
use dplearn_mechanisms::composition::PoisonReason;
use dplearn_mechanisms::privacy::Budget;
use dplearn_mechanisms::sparse_vector::SvtSessionState;
use dplearn_numerics::rng::{Rng, Xoshiro256};

/// The bytewise table-driven CRC32 the codec used before slice-by-8:
/// the reference the fast path is pinned to.
mod bytewise {
    const fn table() -> [u32; 256] {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    }

    const TABLE: [u32; 256] = table();

    pub fn crc32(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }
}

#[test]
fn slice_by_8_crc_equals_the_bytewise_crc() {
    let mut rng = Xoshiro256::seed_from(0xC3C3);
    let buf: Vec<u8> = (0..(64 << 10) + 8).map(|_| rng.next_u64() as u8).collect();
    for start in 0..8 {
        for len in 0..=64 {
            let bytes = &buf[start..start + len];
            assert_eq!(
                crc32(bytes),
                bytewise::crc32(bytes),
                "start {start}, len {len}"
            );
        }
        for _ in 0..16 {
            let len = rng.next_below((64 << 10) + 1) as usize;
            let bytes = &buf[start..start + len];
            assert_eq!(
                crc32(bytes),
                bytewise::crc32(bytes),
                "start {start}, len {len}"
            );
        }
    }
}

/// One record of each of the nine types, with the frame bytes the
/// bytewise-CRC encoder wrote for it.
fn golden() -> Vec<(WalRecord, &'static str)> {
    let ages = || "ages".to_string();
    vec![
        (
            WalRecord::DatasetRegistered {
                dataset: ages(),
                cap: Budget {
                    epsilon: 1.5,
                    delta: 1e-6,
                },
            },
            "17000000c5de8ac701040061676573000000000000f83f8dedb5a0f7c6b03e",
        ),
        (
            WalRecord::Intent {
                seq: 42,
                dataset: "âge".to_string(),
                cost: Budget {
                    epsilon: 0.25,
                    delta: 0.0,
                },
            },
            "1f000000ccc1b979022a000000000000000400c3a26765000000000000d03f0000000000000000",
        ),
        (
            WalRecord::Commit { seq: 42 },
            "09000000310edad9032a00000000000000",
        ),
        (
            WalRecord::Abort { seq: u64::MAX },
            "09000000131d6b9104ffffffffffffffff",
        ),
        (
            WalRecord::Poison {
                dataset: ages(),
                reason: PoisonReason::NumericFault("subnormal"),
            },
            "090000007d92f65f050400616765730203",
        ),
        (
            WalRecord::SvtSuspended {
                session: 3,
                dataset: ages(),
                state: SvtSessionState {
                    noisy_threshold: 12.5,
                    query_scale: 4.0,
                    exhausted: true,
                },
            },
            "20000000777616950603000000000000000400616765730000000000002940000000000000104001",
        ),
        (
            WalRecord::SvtResumed { session: 3 },
            "0900000040260f62070300000000000000",
        ),
        (
            WalRecord::DatasetAppended {
                dataset: ages(),
                epoch: 2,
                values: vec![0.5, -0.0, 1e-300, 99.0, -7.25],
            },
            "3b000000f227b00108040061676573020000000000000005000000000000000000e03f00000000\
             0000008059f3f8c21f6ea5010000000000c058400000000000001dc0",
        ),
        (
            WalRecord::ContinualOpened {
                session: 4,
                dataset: ages(),
                epsilon: 0.5,
                horizon: 4096,
            },
            "1f0000006b168ea5090400000000000000040061676573000000000000e03f0010000000000000",
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_record_type_encodes_to_its_golden_frame_and_back() {
    let mut log = Vec::new();
    for (record, frame_hex) in golden() {
        let frame = record.encode_frame().unwrap();
        assert_eq!(hex(&frame), frame_hex, "{record:?}");
        assert_eq!(
            WalRecord::decode_payload(&frame[8..], 0).unwrap(),
            record,
            "{frame_hex}"
        );
        log.extend_from_slice(&frame);
    }
    let scan = scan_frames(&log).unwrap();
    assert!(!scan.truncated_tail);
    assert_eq!(scan.consumed, log.len());
    let records: Vec<WalRecord> = scan.records.into_iter().map(|(_, r)| r).collect();
    let expected: Vec<WalRecord> = golden().into_iter().map(|(r, _)| r).collect();
    assert_eq!(records, expected);
}

#[test]
fn engine_writes_the_golden_registration_and_append_frames() {
    // The engine encodes an appended batch straight from the borrowed
    // slice; its bytes must be the record encoder's, byte for byte.
    let storage = MemoryWal::new();
    let wal = storage.handle();
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    engine
        .attach_wal(storage, FsyncPolicy::EveryAppend)
        .unwrap();
    engine
        .register_dataset(
            "ages",
            vec![1.0],
            -10.0,
            100.0,
            Budget::new(1.5, 1e-6).unwrap(),
        )
        .unwrap();
    engine.append_dataset("ages", &[3.0]).unwrap();
    engine
        .append_dataset("ages", &[0.5, -0.0, 1e-300, 99.0, -7.25])
        .unwrap();

    let log = wal.bytes();
    let scan = scan_frames(&log).unwrap();
    assert_eq!(scan.records.len(), 3);
    let golden = golden();
    assert_eq!(hex(&log[..scan.records[1].0]), golden[0].1);
    assert_eq!(hex(&log[scan.records[2].0..]), golden[7].1);
}
