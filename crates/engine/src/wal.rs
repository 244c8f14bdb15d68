//! Write-ahead durability for the engine's privacy accounting.
//!
//! The paper's guarantee — spent ε upper-bounds the mutual information a
//! release channel leaks — is only as strong as the accounting that
//! tracks the spend. A process crash that forgets a [`BudgetLedger`]
//! silently resets a dataset's spent ε to zero, which is not a
//! bookkeeping bug but a **privacy violation**: queries the crashed
//! process already answered leaked information the reborn process no
//! longer charges for. This module makes the accounting survive crashes,
//! with a fail-closed bias at every ambiguity:
//!
//! * **Intent before execution.** Every charge — a batch request, an
//!   SVT session or a continual counter — goes through the engine's one
//!   durable bracket. It appends a [`WalRecord::Intent`] *before* the
//!   ledger is charged and long before anything runs on the charge;
//!   closing it appends [`WalRecord::Poison`] if the charged operation
//!   failed, then the matching [`WalRecord::Commit`]. No `Commit` is
//!   written without its `Poison`. Recovery treats an intent with no
//!   commit as **spent** (the mechanism may have executed before the
//!   crash) and poisons the dataset with
//!   [`PoisonReason::ConservativeRecovery`]. Rejected requests never
//!   write an intent, so rejections provably spend zero even through a
//!   crash.
//! * **One fsync policy.** Every append is followed by a durability
//!   barrier ([`FsyncPolicy::EveryAppend`]), so an intent is on disk
//!   before anything runs on its charge.
//! * **CRC-framed, length-prefixed records.** Each record is framed as
//!   `len:u32le ‖ crc32(len‖payload):u32le ‖ payload`. A torn or
//!   bit-flipped **tail** record (the only kind an append-only crash can
//!   produce) is a truncation point: every preceding record is honored.
//!   Corruption strictly *before* the tail cannot come from a torn
//!   append, so it fails recovery with a typed [`DurabilityError`] —
//!   never a panic, never a silent undercount.
//! * **Injectable storage.** The engine writes through the
//!   [`WalStorage`] trait: [`FileWal`] for real deployments,
//!   [`MemoryWal`] as the deterministic in-memory implementation, and
//!   [`CrashableWal`] wiring a [`dplearn_robust::crash::CrashPlan`] into
//!   the byte stream so tests can kill the "process" at every append
//!   boundary, mid-frame, and with flipped bits.
//!
//! Determinism: all WAL appends happen on the engine's **sequential**
//! control paths (admission and post-processing), so the byte stream —
//! and therefore every recovered ledger — is bit-identical at any
//! `DPLEARN_THREADS` setting. Replay itself is single-threaded and pure.

use crate::ledger::BudgetLedger;
use dplearn_mechanisms::composition::PoisonReason;
use dplearn_mechanisms::privacy::Budget;
use dplearn_mechanisms::sparse_vector::SvtSessionState;
use dplearn_robust::crash::{CrashPlan, WriteDisposition};
use dplearn_telemetry::Recorder;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Seek, SeekFrom, Write};
use std::sync::{Arc, Mutex, PoisonError};

/// Errors produced by the durability layer.
///
/// Recovery **never panics**: a corrupt, truncated-in-the-middle, or
/// semantically impossible log surfaces as one of these. Only tail
/// damage (the kind an append-only crash can actually produce) is
/// repaired silently — by truncation, after honoring every record
/// before it.
#[derive(Debug, Clone, PartialEq)]
pub enum DurabilityError {
    /// Underlying storage I/O failed.
    Io(String),
    /// A record strictly before the log tail is corrupt (bad CRC or
    /// malformed payload). An append-only crash only damages the tail,
    /// so mid-log corruption means the storage itself is unsound and
    /// recovery fails closed.
    CorruptRecord {
        /// Byte offset of the offending frame.
        offset: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// A record type tag this build does not understand. Fail closed:
    /// skipping an unknown record could skip a charge.
    UnknownRecordType {
        /// Byte offset of the offending frame.
        offset: usize,
        /// The unknown tag.
        tag: u8,
    },
    /// A commit/abort/resume referenced a sequence number with no
    /// matching open intent or suspended session — impossible in a log
    /// the engine wrote, so the log is unsound.
    OrphanSequence {
        /// The dangling sequence number.
        seq: u64,
        /// Which reference dangled.
        reason: &'static str,
    },
    /// Two registration records for the same dataset name.
    DuplicateDataset(String),
    /// A charge or poison record referenced a dataset the log never
    /// registered.
    UnknownDatasetInLog(String),
    /// A record could not be encoded (e.g. a dataset name longer than
    /// the 16-bit length prefix allows).
    Unencodable(String),
    /// Write-ahead logging must start before the first charge: attaching
    /// a WAL to an engine with spend history would produce a log that
    /// under-counts on replay.
    AttachAfterCharges,
    /// A recovered dataset was re-registered with a different budget cap
    /// than the log recorded.
    RecoveredCapMismatch {
        /// The dataset being re-registered.
        dataset: String,
        /// ε cap recorded in the log.
        logged_epsilon: f64,
        /// ε cap the re-registration declared.
        registered_epsilon: f64,
    },
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "wal storage i/o failed: {e}"),
            DurabilityError::CorruptRecord { offset, reason } => {
                write!(f, "corrupt wal record at byte {offset}: {reason}")
            }
            DurabilityError::UnknownRecordType { offset, tag } => {
                write!(f, "unknown wal record type {tag} at byte {offset}")
            }
            DurabilityError::OrphanSequence { seq, reason } => {
                write!(f, "wal references unknown sequence {seq}: {reason}")
            }
            DurabilityError::DuplicateDataset(name) => {
                write!(f, "dataset `{name}` registered twice in the wal")
            }
            DurabilityError::UnknownDatasetInLog(name) => {
                write!(f, "wal references unregistered dataset `{name}`")
            }
            DurabilityError::Unencodable(reason) => {
                write!(f, "wal record not encodable: {reason}")
            }
            DurabilityError::AttachAfterCharges => write!(
                f,
                "write-ahead logging must be attached before the first charge"
            ),
            DurabilityError::RecoveredCapMismatch {
                dataset,
                logged_epsilon,
                registered_epsilon,
            } => write!(
                f,
                "dataset `{dataset}` re-registered with cap ε={registered_epsilon}, \
                 but the wal recorded ε={logged_epsilon}"
            ),
        }
    }
}

impl std::error::Error for DurabilityError {}

/// Durability-layer result alias.
pub type WalResult<T> = std::result::Result<T, DurabilityError>;

// ---------------------------------------------------------------------
// CRC32 (IEEE, reflected) — dependency-free, slice-by-8.
// ---------------------------------------------------------------------

// The `while` bounds prove every index; `.get_mut` is not usable in a
// const fn on this toolchain.
#[allow(clippy::indexing_slicing)]
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = crc;
        i += 1;
    }
    // tables[s][b] is the CRC state after byte `b` is followed by `s`
    // zero bytes, so eight table lookups advance the state eight bytes.
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[s - 1][i];
            tables[s][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Entry `byte & 0xFF` of a CRC table; the mask proves the index, so
/// the bounds check compiles away.
#[inline(always)]
fn crc_lookup(table: &[u32; 256], byte: u64) -> u32 {
    table.get((byte & 0xFF) as usize).copied().unwrap_or(0)
}

/// Advance a (pre-inverted) CRC32 state over `bytes`, eight bytes per
/// step.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().unwrap_or([0; 8])) ^ u64::from(crc);
        crc = crc_lookup(t7, w)
            ^ crc_lookup(t6, w >> 8)
            ^ crc_lookup(t5, w >> 16)
            ^ crc_lookup(t4, w >> 24)
            ^ crc_lookup(t3, w >> 32)
            ^ crc_lookup(t2, w >> 40)
            ^ crc_lookup(t1, w >> 48)
            ^ crc_lookup(t0, w >> 56);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ crc_lookup(t0, u64::from(crc ^ u32::from(b)));
    }
    crc
}

/// IEEE CRC32 over `bytes` (the checksum `cksum`-style tools and zip use).
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// A frame's checksum, `crc32(len‖payload)`, computed without joining
/// the two.
fn frame_crc(len: [u8; 4], payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, &len), payload)
}

// ---------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------

/// One durable accounting event. The log is the ground truth the engine
/// trusts after a crash, so the record set covers everything a
/// [`BudgetLedger`] or suspended SVT session is rebuilt from.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A dataset was registered with the given budget cap. Records the
    /// cap only — the data itself is the operator's to re-supply on
    /// recovery; the ledger must survive without it.
    DatasetRegistered {
        /// Dataset name.
        dataset: String,
        /// Budget cap the ledger enforces.
        cap: Budget,
    },
    /// An admitted request is about to be charged `cost` and executed.
    /// Written **before** the charge lands and before any mechanism
    /// runs; an intent with no matching commit is conservatively
    /// treated as spent on recovery.
    Intent {
        /// Monotonically increasing intent sequence number.
        seq: u64,
        /// The dataset being charged.
        dataset: String,
        /// The declared cost.
        cost: Budget,
    },
    /// Intent `seq`'s charge landed (whether or not the release later
    /// faulted — a faulted charge stays spent).
    Commit {
        /// The intent this commit resolves.
        seq: u64,
    },
    /// Intent `seq` provably never charged (the charge failed between
    /// intent and ledger mutation). Zero spend.
    Abort {
        /// The intent this abort resolves.
        seq: u64,
    },
    /// A dataset's ledger was poisoned, with the originating fault
    /// class preserved for post-crash triage.
    Poison {
        /// The poisoned dataset.
        dataset: String,
        /// Why it was poisoned.
        reason: PoisonReason,
    },
    /// A hosted SVT session was suspended into its serializable state.
    /// The state embeds the session's noisy threshold — a mechanism
    /// secret — so the log must be kept server-side, like the ledger.
    SvtSuspended {
        /// The suspended session's id.
        session: u64,
        /// The dataset the session ran against.
        dataset: String,
        /// The 17-byte resumable state.
        state: SvtSessionState,
    },
    /// A previously suspended session was resumed (and is live again —
    /// live sessions are not recoverable, but their ε was charged at
    /// open, so losing one in a crash is privacy-safe).
    SvtResumed {
        /// The suspended session that was consumed.
        session: u64,
    },
    /// A validated batch of records was appended to a registered
    /// dataset's stream. Unlike registration (which logs the cap only —
    /// the initial data is the operator's to re-supply), appended
    /// batches **are** logged verbatim: a stream is ephemeral, nobody
    /// can re-supply it, and without the values a recovered engine
    /// could not rebuild the stream state the continual counters and
    /// sufficient statistics were derived from. The log already holds
    /// mechanism secrets (SVT thresholds), so it is server-side trusted
    /// either way.
    DatasetAppended {
        /// The dataset the batch landed on.
        dataset: String,
        /// The dataset epoch this append produced (1 for the first
        /// append after registration; replay enforces contiguity).
        epoch: u64,
        /// The validated batch, in arrival order.
        values: Vec<f64>,
    },
    /// A continual-release counter was opened against a dataset, with
    /// its full ε (for the whole release sequence over the horizon)
    /// already charged by the surrounding intent/commit bracket. The
    /// counter's noise tape is a pure function of a seed the engine
    /// derives from its config and the session id, so recovery re-arms
    /// the counter from this record plus the subsequent
    /// [`WalRecord::DatasetAppended`] stream — bit-identical releases,
    /// no secrets stored.
    ContinualOpened {
        /// The counter's session id (shares the SVT session id space).
        session: u64,
        /// The dataset whose stream the counter observes.
        dataset: String,
        /// Total ε for the full release sequence.
        epsilon: f64,
        /// Maximum number of observed steps.
        horizon: u64,
    },
}

const TAG_DATASET: u8 = 1;
const TAG_INTENT: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_ABORT: u8 = 4;
const TAG_POISON: u8 = 5;
const TAG_SVT_SUSPENDED: u8 = 6;
const TAG_SVT_RESUMED: u8 = 7;
const TAG_DATASET_APPENDED: u8 = 8;
const TAG_CONTINUAL_OPENED: u8 = 9;

const REASON_MANUAL: u8 = 0;
const REASON_CHARGED_OP_FAILED: u8 = 1;
const REASON_NUMERIC: u8 = 2;
const REASON_CONSERVATIVE: u8 = 3;
const REASON_DURABILITY: u8 = 4;

const FAULT_LABELS: [&str; 5] = [
    "nan",
    "pos_inf",
    "neg_inf",
    "subnormal",
    "extreme_magnitude",
];
const FAULT_LABEL_OTHER: u8 = 255;

fn encode_reason(reason: PoisonReason, out: &mut Vec<u8>) {
    match reason {
        PoisonReason::Manual => out.push(REASON_MANUAL),
        PoisonReason::ChargedOperationFailed => out.push(REASON_CHARGED_OP_FAILED),
        PoisonReason::NumericFault(label) => {
            out.push(REASON_NUMERIC);
            let code = FAULT_LABELS
                .iter()
                .position(|&l| l == label)
                .map_or(FAULT_LABEL_OTHER, |i| i as u8);
            out.push(code);
        }
        PoisonReason::ConservativeRecovery => out.push(REASON_CONSERVATIVE),
        PoisonReason::DurabilityFailure => out.push(REASON_DURABILITY),
    }
}

/// Strict little-endian payload reader: every decode must consume the
/// payload exactly, so trailing or missing bytes surface as corruption.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    offset: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], offset: usize) -> Self {
        Cursor {
            bytes,
            pos: 0,
            offset,
        }
    }

    fn corrupt(&self, reason: &str) -> DurabilityError {
        DurabilityError::CorruptRecord {
            offset: self.offset,
            reason: reason.to_string(),
        }
    }

    fn take(&mut self, n: usize) -> WalResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| self.corrupt("length overflow"))?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.corrupt("payload shorter than its fields"))?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> WalResult<u8> {
        Ok(*self.take(1)?.first().unwrap_or(&0))
    }

    fn u16(&mut self) -> WalResult<u16> {
        let b = self.take(2)?;
        let arr: [u8; 2] = b.try_into().map_err(|_| self.corrupt("u16 field"))?;
        Ok(u16::from_le_bytes(arr))
    }

    fn u32(&mut self) -> WalResult<u32> {
        let b = self.take(4)?;
        let arr: [u8; 4] = b.try_into().map_err(|_| self.corrupt("u32 field"))?;
        Ok(u32::from_le_bytes(arr))
    }

    fn u64(&mut self) -> WalResult<u64> {
        let b = self.take(8)?;
        let arr: [u8; 8] = b.try_into().map_err(|_| self.corrupt("u64 field"))?;
        Ok(u64::from_le_bytes(arr))
    }

    fn f64(&mut self) -> WalResult<f64> {
        let b = self.take(8)?;
        let arr: [u8; 8] = b.try_into().map_err(|_| self.corrupt("f64 field"))?;
        Ok(f64::from_le_bytes(arr))
    }

    fn name(&mut self) -> WalResult<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("dataset name is not utf-8"))
    }

    fn budget(&mut self, what: &str) -> WalResult<Budget> {
        let epsilon = self.f64()?;
        let delta = self.f64()?;
        if !(epsilon.is_finite() && epsilon >= 0.0 && delta.is_finite() && delta >= 0.0) {
            return Err(self.corrupt(&format!(
                "{what} must have finite nonnegative components, got (ε={epsilon}, δ={delta})"
            )));
        }
        Ok(Budget { epsilon, delta })
    }

    fn finish(self) -> WalResult<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.corrupt("trailing bytes after record payload"))
        }
    }
}

/// Bytes before a frame's payload: `len:u32le ‖ crc:u32le`.
const FRAME_HEADER: usize = 8;

fn push_name(out: &mut Vec<u8>, name: &str) -> WalResult<()> {
    let len = u16::try_from(name.len()).map_err(|_| {
        DurabilityError::Unencodable(format!(
            "dataset name is {} bytes; the wal caps names at 65535",
            name.len()
        ))
    })?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    Ok(())
}

/// Payload size of a [`WalRecord::DatasetAppended`] record.
fn dataset_appended_len(dataset: &str, values: &[f64]) -> usize {
    1 + 2 + dataset.len() + 8 + 4 + 8 * values.len()
}

/// Append a [`WalRecord::DatasetAppended`] payload for a borrowed batch.
fn push_dataset_appended(
    out: &mut Vec<u8>,
    dataset: &str,
    epoch: u64,
    values: &[f64],
) -> WalResult<()> {
    out.push(TAG_DATASET_APPENDED);
    push_name(out, dataset)?;
    out.extend_from_slice(&epoch.to_le_bytes());
    let n = u32::try_from(values.len()).map_err(|_| {
        DurabilityError::Unencodable(format!(
            "append batch of {} records exceeds the u32 frame count",
            values.len()
        ))
    })?;
    out.extend_from_slice(&n.to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    Ok(())
}

/// A frame buffer holding the header's placeholder bytes, with room for
/// `payload` more.
fn frame_buffer(payload: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload);
    frame.resize(FRAME_HEADER, 0);
    frame
}

/// Fill in the header of `frame`, which holds [`FRAME_HEADER`]
/// placeholder bytes followed by the payload.
fn seal_frame(mut frame: Vec<u8>) -> WalResult<Vec<u8>> {
    let payload = frame.get(FRAME_HEADER..).unwrap_or(&[]);
    let len = u32::try_from(payload.len())
        .map_err(|_| DurabilityError::Unencodable("record exceeds 4 GiB".to_string()))?;
    let crc = frame_crc(len.to_le_bytes(), payload);
    if let Some(header) = frame.get_mut(..FRAME_HEADER) {
        // `len:u32le ‖ crc:u32le` is one little-endian u64, len in the low half.
        header.copy_from_slice(&((u64::from(crc) << 32) | u64::from(len)).to_le_bytes());
    }
    Ok(frame)
}

impl WalRecord {
    /// Encode this record's payload (type tag + fields, no framing).
    pub fn encode_payload(&self) -> WalResult<Vec<u8>> {
        let mut out = Vec::new();
        self.write_payload(&mut out)?;
        Ok(out)
    }

    /// Append this record's payload to `out`.
    fn write_payload(&self, out: &mut Vec<u8>) -> WalResult<()> {
        match self {
            WalRecord::DatasetRegistered { dataset, cap } => {
                out.push(TAG_DATASET);
                push_name(out, dataset)?;
                out.extend_from_slice(&cap.epsilon.to_le_bytes());
                out.extend_from_slice(&cap.delta.to_le_bytes());
            }
            WalRecord::Intent { seq, dataset, cost } => {
                out.push(TAG_INTENT);
                out.extend_from_slice(&seq.to_le_bytes());
                push_name(out, dataset)?;
                out.extend_from_slice(&cost.epsilon.to_le_bytes());
                out.extend_from_slice(&cost.delta.to_le_bytes());
            }
            WalRecord::Commit { seq } => {
                out.push(TAG_COMMIT);
                out.extend_from_slice(&seq.to_le_bytes());
            }
            WalRecord::Abort { seq } => {
                out.push(TAG_ABORT);
                out.extend_from_slice(&seq.to_le_bytes());
            }
            WalRecord::Poison { dataset, reason } => {
                out.push(TAG_POISON);
                push_name(out, dataset)?;
                encode_reason(*reason, out);
            }
            WalRecord::SvtSuspended {
                session,
                dataset,
                state,
            } => {
                out.push(TAG_SVT_SUSPENDED);
                out.extend_from_slice(&session.to_le_bytes());
                push_name(out, dataset)?;
                out.extend_from_slice(&state.to_bytes());
            }
            WalRecord::SvtResumed { session } => {
                out.push(TAG_SVT_RESUMED);
                out.extend_from_slice(&session.to_le_bytes());
            }
            WalRecord::DatasetAppended {
                dataset,
                epoch,
                values,
            } => push_dataset_appended(out, dataset, *epoch, values)?,
            WalRecord::ContinualOpened {
                session,
                dataset,
                epsilon,
                horizon,
            } => {
                out.push(TAG_CONTINUAL_OPENED);
                out.extend_from_slice(&session.to_le_bytes());
                push_name(out, dataset)?;
                out.extend_from_slice(&epsilon.to_le_bytes());
                out.extend_from_slice(&horizon.to_le_bytes());
            }
        }
        Ok(())
    }

    /// Decode one payload (exactly; trailing bytes are corruption).
    /// `offset` is the frame's byte offset, for error reporting.
    pub fn decode_payload(payload: &[u8], offset: usize) -> WalResult<Self> {
        let mut cur = Cursor::new(payload, offset);
        let tag = cur.u8()?;
        let record = match tag {
            TAG_DATASET => {
                let dataset = cur.name()?;
                let cap = cur.budget("cap")?;
                WalRecord::DatasetRegistered { dataset, cap }
            }
            TAG_INTENT => {
                let seq = cur.u64()?;
                let dataset = cur.name()?;
                let cost = cur.budget("cost")?;
                WalRecord::Intent { seq, dataset, cost }
            }
            TAG_COMMIT => WalRecord::Commit { seq: cur.u64()? },
            TAG_ABORT => WalRecord::Abort { seq: cur.u64()? },
            TAG_POISON => {
                let dataset = cur.name()?;
                let reason = match cur.u8()? {
                    REASON_MANUAL => PoisonReason::Manual,
                    REASON_CHARGED_OP_FAILED => PoisonReason::ChargedOperationFailed,
                    REASON_NUMERIC => {
                        let code = cur.u8()?;
                        let label = FAULT_LABELS
                            .get(code as usize)
                            .copied()
                            .unwrap_or("unknown");
                        PoisonReason::NumericFault(label)
                    }
                    REASON_CONSERVATIVE => PoisonReason::ConservativeRecovery,
                    REASON_DURABILITY => PoisonReason::DurabilityFailure,
                    other => {
                        return Err(cur.corrupt(&format!("unknown poison reason code {other}")))
                    }
                };
                WalRecord::Poison { dataset, reason }
            }
            TAG_SVT_SUSPENDED => {
                let session = cur.u64()?;
                let dataset = cur.name()?;
                let raw = cur.take(SvtSessionState::ENCODED_LEN)?.to_vec();
                let state = SvtSessionState::from_bytes(&raw).map_err(|e| {
                    DurabilityError::CorruptRecord {
                        offset,
                        reason: format!("svt state: {e}"),
                    }
                })?;
                WalRecord::SvtSuspended {
                    session,
                    dataset,
                    state,
                }
            }
            TAG_SVT_RESUMED => WalRecord::SvtResumed {
                session: cur.u64()?,
            },
            TAG_DATASET_APPENDED => {
                let dataset = cur.name()?;
                let epoch = cur.u64()?;
                let n = cur.u32()? as usize;
                if n == 0 {
                    return Err(cur.corrupt("append batch must be non-empty"));
                }
                let mut values = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let v = cur.f64()?;
                    // The engine only logs domain-validated batches, so a
                    // non-finite record can only be corruption.
                    if !v.is_finite() {
                        return Err(cur.corrupt(&format!("non-finite appended record {v}")));
                    }
                    values.push(v);
                }
                WalRecord::DatasetAppended {
                    dataset,
                    epoch,
                    values,
                }
            }
            TAG_CONTINUAL_OPENED => {
                let session = cur.u64()?;
                let dataset = cur.name()?;
                let epsilon = cur.f64()?;
                let horizon = cur.u64()?;
                if !(epsilon.is_finite() && epsilon > 0.0) {
                    return Err(cur.corrupt(&format!(
                        "continual counter ε must be finite and positive, got {epsilon}"
                    )));
                }
                if horizon == 0 {
                    return Err(cur.corrupt("continual counter horizon must be ≥ 1"));
                }
                WalRecord::ContinualOpened {
                    session,
                    dataset,
                    epsilon,
                    horizon,
                }
            }
            tag => return Err(DurabilityError::UnknownRecordType { offset, tag }),
        };
        cur.finish()?;
        Ok(record)
    }

    /// Encode this record as one framed log entry:
    /// `len:u32le ‖ crc32(len‖payload):u32le ‖ payload`.
    pub fn encode_frame(&self) -> WalResult<Vec<u8>> {
        // Room for any record with a short dataset name; the engine
        // encodes appended batches through `append_dataset_batch`.
        let mut frame = frame_buffer(56);
        self.write_payload(&mut frame)?;
        seal_frame(frame)
    }
}

/// The outcome of scanning a raw log image into frames.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameScan {
    /// Decoded records with their frame byte offsets, in log order.
    pub records: Vec<(usize, WalRecord)>,
    /// Bytes of valid log consumed; anything past this is a damaged
    /// tail a recovered writer must truncate before appending.
    pub consumed: usize,
    /// Whether a torn or corrupt tail was dropped.
    pub truncated_tail: bool,
}

/// Scan a log image into records, honoring the torn-tail rule.
///
/// Tail damage — an incomplete header, a payload shorter than its
/// length prefix claims, or a CRC mismatch on the **final** frame — is a
/// truncation point: scanning stops and everything before it is
/// returned. A CRC or decode failure on a frame that is *followed by
/// more bytes* cannot be a torn append and fails with a typed error.
pub fn scan_frames(bytes: &[u8]) -> WalResult<FrameScan> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < 8 {
            // Torn header.
            return Ok(FrameScan {
                records,
                consumed: offset,
                truncated_tail: true,
            });
        }
        let header = bytes.get(offset..offset + 8).unwrap_or(&[]);
        let len_bytes: [u8; 4] = header
            .get(..4)
            .and_then(|s| s.try_into().ok())
            .unwrap_or([0; 4]);
        let crc_bytes: [u8; 4] = header
            .get(4..8)
            .and_then(|s| s.try_into().ok())
            .unwrap_or([0; 4]);
        let len = u32::from_le_bytes(len_bytes) as usize;
        let stored_crc = u32::from_le_bytes(crc_bytes);
        if len > remaining - 8 {
            // Torn payload (or a corrupted length field on the final
            // frame — indistinguishable from a torn append, and equally
            // safe to drop: only the tail record is forfeited).
            return Ok(FrameScan {
                records,
                consumed: offset,
                truncated_tail: true,
            });
        }
        let payload = bytes.get(offset + 8..offset + 8 + len).unwrap_or(&[]);
        let frame_end = offset + 8 + len;
        let is_tail = frame_end == bytes.len();
        if frame_crc(len_bytes, payload) != stored_crc {
            if is_tail {
                return Ok(FrameScan {
                    records,
                    consumed: offset,
                    truncated_tail: true,
                });
            }
            return Err(DurabilityError::CorruptRecord {
                offset,
                reason: "crc mismatch before the log tail".to_string(),
            });
        }
        match WalRecord::decode_payload(payload, offset) {
            Ok(record) => records.push((offset, record)),
            // A CRC-valid but undecodable tail record is still tail
            // damage (e.g. a bit flip that happened to fix up the CRC is
            // astronomically unlikely; a half-baked writer is not).
            Err(e) if is_tail => {
                let _ = e;
                return Ok(FrameScan {
                    records,
                    consumed: offset,
                    truncated_tail: true,
                });
            }
            Err(e) => return Err(e),
        }
        offset = frame_end;
    }
    Ok(FrameScan {
        records,
        consumed: offset,
        truncated_tail: false,
    })
}

// ---------------------------------------------------------------------
// Storage backends
// ---------------------------------------------------------------------

/// Injectable append-only byte storage for the write-ahead log.
///
/// Implementations must make `append` atomic-or-prefix under crashes
/// (an interrupted append may persist any prefix of the frame, never a
/// suffix or an interleaving) and `flush` a durability barrier.
pub trait WalStorage: Send {
    /// Append one framed record.
    fn append(&mut self, frame: &[u8]) -> WalResult<()>;
    /// Durability barrier: everything appended so far must survive a
    /// crash after this returns.
    fn flush(&mut self) -> WalResult<()>;
    /// The full durable contents, from the beginning.
    fn snapshot(&self) -> WalResult<Vec<u8>>;
    /// Discard everything past `len` bytes (recovery uses this to drop
    /// a damaged tail before the log is appended to again).
    fn truncate(&mut self, len: usize) -> WalResult<()>;
}

fn lock_bytes(buf: &Arc<Mutex<Vec<u8>>>) -> std::sync::MutexGuard<'_, Vec<u8>> {
    // A panicked holder can only be another test thread; the byte
    // buffer itself is always in a consistent state.
    buf.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Deterministic in-memory log storage (the reference implementation
/// tests recover against).
#[derive(Debug, Clone, Default)]
pub struct MemoryWal {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl MemoryWal {
    /// An empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }

    /// An in-memory log pre-loaded with a durable image (e.g. the bytes
    /// a crashed [`CrashableWal`] left behind).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        MemoryWal {
            bytes: Arc::new(Mutex::new(bytes)),
        }
    }

    /// A live handle onto the same buffer: clones of a `MemoryWal`
    /// share storage, so a test can keep one and give the other to the
    /// engine.
    pub fn handle(&self) -> MemoryWal {
        self.clone()
    }

    /// The current contents.
    pub fn bytes(&self) -> Vec<u8> {
        lock_bytes(&self.bytes).clone()
    }
}

impl WalStorage for MemoryWal {
    fn append(&mut self, frame: &[u8]) -> WalResult<()> {
        lock_bytes(&self.bytes).extend_from_slice(frame);
        Ok(())
    }

    fn flush(&mut self) -> WalResult<()> {
        Ok(())
    }

    fn snapshot(&self) -> WalResult<Vec<u8>> {
        Ok(self.bytes())
    }

    fn truncate(&mut self, len: usize) -> WalResult<()> {
        let mut guard = lock_bytes(&self.bytes);
        if len <= guard.len() {
            guard.truncate(len);
        }
        Ok(())
    }
}

/// File-backed log storage: append-only writes, `sync_data` as the
/// durability barrier.
#[derive(Debug)]
pub struct FileWal {
    file: std::fs::File,
}

impl FileWal {
    /// Open (creating if absent) the log at `path` for appending.
    pub fn open(path: impl AsRef<std::path::Path>) -> WalResult<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| DurabilityError::Io(e.to_string()))?;
        Ok(FileWal { file })
    }
}

impl WalStorage for FileWal {
    fn append(&mut self, frame: &[u8]) -> WalResult<()> {
        self.file
            .write_all(frame)
            .map_err(|e| DurabilityError::Io(e.to_string()))
    }

    fn flush(&mut self) -> WalResult<()> {
        self.file
            .sync_data()
            .map_err(|e| DurabilityError::Io(e.to_string()))
    }

    fn snapshot(&self) -> WalResult<Vec<u8>> {
        let mut clone = self
            .file
            .try_clone()
            .map_err(|e| DurabilityError::Io(e.to_string()))?;
        clone
            .seek(SeekFrom::Start(0))
            .map_err(|e| DurabilityError::Io(e.to_string()))?;
        let mut bytes = Vec::new();
        clone
            .read_to_end(&mut bytes)
            .map_err(|e| DurabilityError::Io(e.to_string()))?;
        Ok(bytes)
    }

    fn truncate(&mut self, len: usize) -> WalResult<()> {
        self.file
            .set_len(len as u64)
            .map_err(|e| DurabilityError::Io(e.to_string()))
    }
}

/// Crash-injected storage for tests: persists exactly what a real
/// process death at the planned [`dplearn_robust::crash::CrashPoint`]
/// would have left on disk.
///
/// After the simulated death this wrapper **silently accepts and
/// discards** every further write: the in-test engine keeps running (its
/// post-crash behavior is irrelevant and is discarded by the harness),
/// while the durable image stays frozen at the crash instant. Recover
/// the image with [`CrashableWal::durable_image`] +
/// [`MemoryWal::from_bytes`].
#[derive(Debug)]
pub struct CrashableWal {
    plan: CrashPlan,
    bytes: Arc<Mutex<Vec<u8>>>,
    appends: u64,
    crashed: bool,
}

impl CrashableWal {
    /// Storage that dies per `plan`. Returns the storage and a handle
    /// the test keeps for reading the durable image after the "crash".
    pub fn new(plan: CrashPlan) -> (Self, MemoryWal) {
        let bytes = Arc::new(Mutex::new(Vec::new()));
        let handle = MemoryWal {
            bytes: Arc::clone(&bytes),
        };
        (
            CrashableWal {
                plan,
                bytes,
                appends: 0,
                crashed: false,
            },
            handle,
        )
    }

    /// Appends attempted so far (including post-death ones).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Whether the simulated process has died.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// The bytes that actually reached "disk".
    pub fn durable_image(&self) -> Vec<u8> {
        lock_bytes(&self.bytes).clone()
    }
}

impl WalStorage for CrashableWal {
    fn append(&mut self, frame: &[u8]) -> WalResult<()> {
        let index = self.appends;
        self.appends += 1;
        match self.plan.disposition(index, frame, self.crashed) {
            WriteDisposition::Persist => {
                lock_bytes(&self.bytes).extend_from_slice(frame);
            }
            WriteDisposition::PersistThenCrash(surviving) => {
                lock_bytes(&self.bytes).extend_from_slice(&surviving);
                self.crashed = true;
            }
            WriteDisposition::Dead => {}
        }
        Ok(())
    }

    fn flush(&mut self) -> WalResult<()> {
        Ok(())
    }

    fn snapshot(&self) -> WalResult<Vec<u8>> {
        Ok(self.durable_image())
    }

    fn truncate(&mut self, len: usize) -> WalResult<()> {
        if !self.crashed {
            let mut guard = lock_bytes(&self.bytes);
            if len <= guard.len() {
                guard.truncate(len);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------

/// When the log forces a durability barrier. There is one policy: a
/// barrier after every append, so an intent is durable before anything
/// runs on its charge.
///
/// The type remains because public signatures take it —
/// [`Engine::attach_wal`](crate::engine::Engine::attach_wal),
/// [`Engine::recover_with_registry`](crate::engine::Engine::recover_with_registry),
/// [`WriteAheadLog::new`] and the serving loop's attach and recover —
/// and their callers pass `FsyncPolicy::EveryAppend`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Flush after every append.
    #[default]
    EveryAppend,
}

/// The engine's append-side handle on a write-ahead log.
pub struct WriteAheadLog {
    storage: Box<dyn WalStorage>,
    next_intent: u64,
}

impl std::fmt::Debug for WriteAheadLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteAheadLog")
            .field("next_intent", &self.next_intent)
            .finish()
    }
}

impl WriteAheadLog {
    /// Wrap `storage`, starting intent numbering at 0. Every append is
    /// flushed ([`FsyncPolicy::EveryAppend`]).
    pub fn new(storage: impl WalStorage + 'static, _policy: FsyncPolicy) -> Self {
        WriteAheadLog {
            storage: Box::new(storage),
            next_intent: 0,
        }
    }

    pub(crate) fn set_next_intent(&mut self, next: u64) {
        self.next_intent = next;
    }

    pub(crate) fn next_intent_seq(&mut self) -> u64 {
        let seq = self.next_intent;
        self.next_intent = self.next_intent.wrapping_add(1);
        seq
    }

    /// Append one record durably. Telemetry is recorded from the
    /// (sequential) calling path, so counters stay thread-count
    /// invariant.
    pub(crate) fn append(&mut self, record: &WalRecord, recorder: &dyn Recorder) -> WalResult<()> {
        self.append_frame(&record.encode_frame()?, record_label(record), recorder)
    }

    /// Append a [`WalRecord::DatasetAppended`] record for a borrowed
    /// batch (the same bytes as [`WriteAheadLog::append`] would write).
    pub(crate) fn append_dataset_batch(
        &mut self,
        dataset: &str,
        epoch: u64,
        values: &[f64],
        recorder: &dyn Recorder,
    ) -> WalResult<()> {
        let mut frame = frame_buffer(dataset_appended_len(dataset, values));
        push_dataset_appended(&mut frame, dataset, epoch, values)?;
        self.append_frame(&seal_frame(frame)?, "dataset_appended", recorder)
    }

    /// Write one encoded frame, then flush it.
    fn append_frame(
        &mut self,
        frame: &[u8],
        label: &'static str,
        recorder: &dyn Recorder,
    ) -> WalResult<()> {
        self.storage.append(frame)?;
        recorder.counter_add("wal.appends", label, 1);
        recorder.counter_add("wal.bytes", "", frame.len() as u64);
        self.storage.flush()?;
        recorder.counter_add("wal.flushes", "", 1);
        Ok(())
    }
}

fn record_label(record: &WalRecord) -> &'static str {
    match record {
        WalRecord::DatasetRegistered { .. } => "dataset",
        WalRecord::Intent { .. } => "intent",
        WalRecord::Commit { .. } => "commit",
        WalRecord::Abort { .. } => "abort",
        WalRecord::Poison { .. } => "poison",
        WalRecord::SvtSuspended { .. } => "svt_suspended",
        WalRecord::SvtResumed { .. } => "svt_resumed",
        WalRecord::DatasetAppended { .. } => "dataset_appended",
        WalRecord::ContinualOpened { .. } => "continual_opened",
    }
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// One dataset's accounting, rebuilt from the log.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredLedger {
    /// The budget cap the log recorded at registration.
    pub cap: Budget,
    /// Every charge that landed (committed) or must be assumed to have
    /// landed (unresolved intent), in log order.
    pub charges: Vec<Budget>,
    /// Poisoned state carried over (first recorded reason wins; an
    /// unresolved intent poisons with
    /// [`PoisonReason::ConservativeRecovery`] if nothing earlier did).
    pub poison: Option<PoisonReason>,
    /// Fault events: poison records plus conservatively charged
    /// intents.
    pub faulted: u64,
    /// How many of [`charges`](Self::charges) were conservative
    /// (intent with no commit).
    pub conservative: u64,
}

/// A continual-release counter rebuilt from the log: its public
/// parameters plus the batch sizes it observed after opening. The noise
/// tape is derived, not stored — the engine re-arms the counter from its
/// config seed and the session id, and replaying these observations
/// reproduces every release bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredCounter {
    /// The dataset whose stream the counter observes.
    pub dataset: String,
    /// Total ε for the full release sequence (already charged).
    pub epsilon: f64,
    /// Maximum number of observed steps.
    pub horizon: u64,
    /// Per-step record counts observed since the counter opened, in log
    /// order (one step per append batch), capped at `horizon` — batches
    /// past the horizon were never observed by the live counter.
    pub observed: Vec<u64>,
}

/// Everything [`Engine::recover`](crate::engine::Engine::recover)
/// rebuilds from a log image.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredState {
    /// Per-dataset rebuilt ledgers, by name.
    pub ledgers: BTreeMap<String, RecoveredLedger>,
    /// Suspended (and not since resumed) SVT sessions.
    pub suspended: BTreeMap<u64, (String, SvtSessionState)>,
    /// Per-dataset appended batches in log order (epoch-contiguous,
    /// validated). Applied when the dataset is re-registered so the
    /// recovered stream state matches the crash-free engine exactly.
    pub appends: BTreeMap<String, Vec<Vec<f64>>>,
    /// Continual counters to re-arm, by session id.
    pub counters: BTreeMap<u64, RecoveredCounter>,
    /// The next intent sequence number a recovered writer must use.
    pub next_intent: u64,
    /// Lower bound for the recovered engine's session counter (past the
    /// largest session id the log mentions).
    pub next_session: u64,
    /// Valid log bytes; the tail past this point (if any) was damaged
    /// and must be truncated before appending resumes.
    pub consumed: usize,
    /// Whether a torn/corrupt tail was dropped.
    pub truncated_tail: bool,
    /// Records replayed.
    pub records: usize,
    /// Intents charged conservatively (no commit found).
    pub conservative_intents: u64,
}

/// Replay a log image into recovered accounting state.
///
/// Fail-closed semantics:
/// * committed intents charge their recorded cost, in log order;
/// * aborted intents charge nothing;
/// * unresolved intents charge their recorded cost **and poison their
///   dataset** — the mechanism may have executed before the crash;
/// * a damaged tail truncates (all preceding records honored); damage
///   before the tail is a typed error;
/// * any semantically impossible log (unknown dataset, dangling
///   sequence, duplicate registration) is a typed error — never a
///   guess, never a panic.
pub fn replay(bytes: &[u8]) -> WalResult<RecoveredState> {
    let scan = scan_frames(bytes)?;
    let mut ledgers: BTreeMap<String, RecoveredLedger> = BTreeMap::new();
    let mut open_intents: BTreeMap<u64, (String, Budget)> = BTreeMap::new();
    let mut resolved: BTreeSet<u64> = BTreeSet::new();
    let mut suspended: BTreeMap<u64, (String, SvtSessionState)> = BTreeMap::new();
    let mut appends: BTreeMap<String, Vec<Vec<f64>>> = BTreeMap::new();
    let mut counters: BTreeMap<u64, RecoveredCounter> = BTreeMap::new();
    let mut max_seq: Option<u64> = None;
    let mut max_session: Option<u64> = None;
    let records = scan.records.len();

    for (offset, record) in scan.records {
        match record {
            WalRecord::DatasetRegistered { dataset, cap } => {
                if ledgers.contains_key(&dataset) {
                    return Err(DurabilityError::DuplicateDataset(dataset));
                }
                ledgers.insert(
                    dataset,
                    RecoveredLedger {
                        cap,
                        charges: Vec::new(),
                        poison: None,
                        faulted: 0,
                        conservative: 0,
                    },
                );
            }
            WalRecord::Intent { seq, dataset, cost } => {
                if !ledgers.contains_key(&dataset) {
                    return Err(DurabilityError::UnknownDatasetInLog(dataset));
                }
                if open_intents.contains_key(&seq) || resolved.contains(&seq) {
                    return Err(DurabilityError::CorruptRecord {
                        offset,
                        reason: format!("intent sequence {seq} reused"),
                    });
                }
                max_seq = Some(max_seq.map_or(seq, |m| m.max(seq)));
                open_intents.insert(seq, (dataset, cost));
            }
            WalRecord::Commit { seq } => {
                let (dataset, cost) =
                    open_intents
                        .remove(&seq)
                        .ok_or(DurabilityError::OrphanSequence {
                            seq,
                            reason: "commit without an open intent",
                        })?;
                resolved.insert(seq);
                let ledger = ledgers
                    .get_mut(&dataset)
                    .ok_or(DurabilityError::UnknownDatasetInLog(dataset.clone()))?;
                ledger.charges.push(cost);
            }
            WalRecord::Abort { seq } => {
                open_intents
                    .remove(&seq)
                    .ok_or(DurabilityError::OrphanSequence {
                        seq,
                        reason: "abort without an open intent",
                    })?;
                resolved.insert(seq);
            }
            WalRecord::Poison { dataset, reason } => {
                let ledger = ledgers
                    .get_mut(&dataset)
                    .ok_or(DurabilityError::UnknownDatasetInLog(dataset.clone()))?;
                ledger.poison = ledger.poison.or(Some(reason));
                ledger.faulted += 1;
            }
            WalRecord::SvtSuspended {
                session,
                dataset,
                state,
            } => {
                if !ledgers.contains_key(&dataset) {
                    return Err(DurabilityError::UnknownDatasetInLog(dataset));
                }
                if suspended.contains_key(&session) {
                    return Err(DurabilityError::CorruptRecord {
                        offset,
                        reason: format!("session {session} suspended twice"),
                    });
                }
                max_session = Some(max_session.map_or(session, |m| m.max(session)));
                suspended.insert(session, (dataset, state));
            }
            WalRecord::SvtResumed { session } => {
                max_session = Some(max_session.map_or(session, |m| m.max(session)));
                suspended
                    .remove(&session)
                    .ok_or(DurabilityError::OrphanSequence {
                        seq: session,
                        reason: "resume without a suspended session",
                    })?;
            }
            WalRecord::DatasetAppended {
                dataset,
                epoch,
                values,
            } => {
                if !ledgers.contains_key(&dataset) {
                    return Err(DurabilityError::UnknownDatasetInLog(dataset));
                }
                let stream = appends.entry(dataset.clone()).or_default();
                // Epoch contiguity: registration is epoch 0, so the k-th
                // logged append must carry epoch k. A gap means a lost or
                // reordered record — the stream state would silently
                // diverge from what the counters observed, so fail closed.
                let expected = stream.len() as u64 + 1;
                if epoch != expected {
                    return Err(DurabilityError::CorruptRecord {
                        offset,
                        reason: format!(
                            "append to `{dataset}` carries epoch {epoch}, expected {expected}"
                        ),
                    });
                }
                let step = values.len() as u64;
                stream.push(values);
                // Every live counter on this dataset observes the batch
                // as one time step — but only up to its horizon. The
                // live engine skips observations on exhausted counters
                // (ingest never fails over a spent horizon), so the
                // replayed history must stop there too, or re-arming
                // would replay an observation the live counter never
                // made and reject a valid pre-crash state.
                for counter in counters.values_mut() {
                    if counter.dataset == dataset
                        && (counter.observed.len() as u64) < counter.horizon
                    {
                        counter.observed.push(step);
                    }
                }
            }
            WalRecord::ContinualOpened {
                session,
                dataset,
                epsilon,
                horizon,
            } => {
                if !ledgers.contains_key(&dataset) {
                    return Err(DurabilityError::UnknownDatasetInLog(dataset));
                }
                if counters.contains_key(&session) {
                    return Err(DurabilityError::CorruptRecord {
                        offset,
                        reason: format!("continual session {session} opened twice"),
                    });
                }
                max_session = Some(max_session.map_or(session, |m| m.max(session)));
                counters.insert(
                    session,
                    RecoveredCounter {
                        dataset,
                        epsilon,
                        horizon,
                        observed: Vec::new(),
                    },
                );
            }
        }
    }

    // Fail closed: every unresolved intent is assumed to have charged
    // (and possibly executed), in sequence order for determinism.
    let conservative_intents = open_intents.len() as u64;
    for (_seq, (dataset, cost)) in open_intents {
        let ledger = ledgers
            .get_mut(&dataset)
            .ok_or(DurabilityError::UnknownDatasetInLog(dataset.clone()))?;
        ledger.charges.push(cost);
        ledger.conservative += 1;
        ledger.faulted += 1;
        ledger.poison = ledger.poison.or(Some(PoisonReason::ConservativeRecovery));
    }

    Ok(RecoveredState {
        ledgers,
        suspended,
        appends,
        counters,
        next_intent: max_seq.map_or(0, |m| m.wrapping_add(1)),
        next_session: max_session.map_or(0, |m| m.wrapping_add(1)),
        consumed: scan.consumed,
        truncated_tail: scan.truncated_tail,
        records,
        conservative_intents,
    })
}

impl RecoveredLedger {
    /// Rebuild the live [`BudgetLedger`] this recovered state describes.
    pub fn restore(&self) -> crate::Result<BudgetLedger> {
        BudgetLedger::restore(
            self.cap,
            &self.charges,
            self.poison,
            self.faulted,
            self.conservative,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dplearn_robust::crash::CrashPoint;

    fn b(e: f64, d: f64) -> Budget {
        Budget {
            epsilon: e,
            delta: d,
        }
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_roundtrip_through_frames() {
        let records = vec![
            WalRecord::DatasetRegistered {
                dataset: "ages".to_string(),
                cap: b(1.5, 1e-6),
            },
            WalRecord::Intent {
                seq: 0,
                dataset: "ages".to_string(),
                cost: b(0.25, 0.0),
            },
            WalRecord::Commit { seq: 0 },
            WalRecord::Abort { seq: 1 },
            WalRecord::Poison {
                dataset: "ages".to_string(),
                reason: PoisonReason::NumericFault("nan"),
            },
            WalRecord::SvtSuspended {
                session: 7,
                dataset: "ages".to_string(),
                state: SvtSessionState {
                    noisy_threshold: 9.75,
                    query_scale: 4.0,
                    exhausted: false,
                },
            },
            WalRecord::SvtResumed { session: 7 },
            WalRecord::DatasetAppended {
                dataset: "ages".to_string(),
                epoch: 1,
                values: vec![0.25, 0.75, 0.5],
            },
            WalRecord::ContinualOpened {
                session: 8,
                dataset: "ages".to_string(),
                epsilon: 0.5,
                horizon: 1024,
            },
        ];
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&r.encode_frame().unwrap());
        }
        let scan = scan_frames(&log).unwrap();
        assert!(!scan.truncated_tail);
        assert_eq!(scan.consumed, log.len());
        let decoded: Vec<WalRecord> = scan.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(decoded, records);
    }

    #[test]
    fn torn_tail_truncates_and_honors_the_prefix() {
        let a = WalRecord::DatasetRegistered {
            dataset: "d".to_string(),
            cap: b(1.0, 0.0),
        }
        .encode_frame()
        .unwrap();
        let c = WalRecord::Intent {
            seq: 0,
            dataset: "d".to_string(),
            cost: b(0.1, 0.0),
        }
        .encode_frame()
        .unwrap();
        // Tear the second frame at every possible byte count. keep=0
        // leaves a clean frame boundary (nothing of the second frame
        // ever reached disk), so only keep ≥ 1 reports a torn tail.
        for keep in 0..c.len() {
            let mut log = a.clone();
            log.extend_from_slice(&c[..keep]);
            let scan = scan_frames(&log).unwrap();
            assert_eq!(scan.records.len(), 1, "keep={keep}");
            assert_eq!(scan.consumed, a.len(), "keep={keep}");
            assert_eq!(scan.truncated_tail, keep > 0, "keep={keep}");
        }
        // A fully present second frame scans cleanly.
        let mut log = a.clone();
        log.extend_from_slice(&c);
        let scan = scan_frames(&log).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(!scan.truncated_tail);
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error_tail_corruption_truncates() {
        let a = WalRecord::DatasetRegistered {
            dataset: "d".to_string(),
            cap: b(1.0, 0.0),
        }
        .encode_frame()
        .unwrap();
        let c = WalRecord::Commit { seq: 3 }.encode_frame().unwrap();
        let mut log = a.clone();
        log.extend_from_slice(&c);

        // Flip a payload bit in the FIRST frame: mid-log corruption.
        let mut corrupt_mid = log.clone();
        corrupt_mid[9] ^= 0x40;
        match scan_frames(&corrupt_mid) {
            Err(DurabilityError::CorruptRecord { offset: 0, .. }) => {}
            other => panic!("expected mid-log corruption error, got {other:?}"),
        }

        // Flip a payload bit in the LAST frame: tail damage, truncates.
        let mut corrupt_tail = log.clone();
        let tail_payload = a.len() + 9;
        corrupt_tail[tail_payload] ^= 0x40;
        let scan = scan_frames(&corrupt_tail).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.consumed, a.len());
        assert!(scan.truncated_tail);
    }

    #[test]
    fn replay_is_fail_closed_on_unresolved_intents() {
        let mut log = Vec::new();
        for r in [
            WalRecord::DatasetRegistered {
                dataset: "d".to_string(),
                cap: b(2.0, 0.0),
            },
            WalRecord::Intent {
                seq: 0,
                dataset: "d".to_string(),
                cost: b(0.5, 0.0),
            },
            WalRecord::Commit { seq: 0 },
            WalRecord::Intent {
                seq: 1,
                dataset: "d".to_string(),
                cost: b(0.25, 0.0),
            },
            // seq 1 never commits: the crash hit between execution and
            // resolution. It must be charged AND poison the dataset.
        ] {
            log.extend_from_slice(&r.encode_frame().unwrap());
        }
        let state = replay(&log).unwrap();
        let d = &state.ledgers["d"];
        assert_eq!(d.charges, vec![b(0.5, 0.0), b(0.25, 0.0)]);
        assert_eq!(d.conservative, 1);
        assert_eq!(d.faulted, 1);
        assert_eq!(d.poison, Some(PoisonReason::ConservativeRecovery));
        assert_eq!(state.conservative_intents, 1);
        assert_eq!(state.next_intent, 2);

        // An aborted intent, by contrast, provably spends zero.
        let mut log2 = Vec::new();
        for r in [
            WalRecord::DatasetRegistered {
                dataset: "d".to_string(),
                cap: b(2.0, 0.0),
            },
            WalRecord::Intent {
                seq: 0,
                dataset: "d".to_string(),
                cost: b(0.5, 0.0),
            },
            WalRecord::Abort { seq: 0 },
        ] {
            log2.extend_from_slice(&r.encode_frame().unwrap());
        }
        let state2 = replay(&log2).unwrap();
        let d2 = &state2.ledgers["d"];
        assert!(d2.charges.is_empty());
        assert_eq!(d2.poison, None);
    }

    #[test]
    fn replay_rejects_semantically_impossible_logs() {
        let reg = WalRecord::DatasetRegistered {
            dataset: "d".to_string(),
            cap: b(1.0, 0.0),
        };
        // Commit with no intent.
        let mut log = reg.encode_frame().unwrap();
        log.extend_from_slice(&WalRecord::Commit { seq: 9 }.encode_frame().unwrap());
        assert!(matches!(
            replay(&log),
            Err(DurabilityError::OrphanSequence { seq: 9, .. })
        ));
        // Intent against an unregistered dataset.
        let log2 = WalRecord::Intent {
            seq: 0,
            dataset: "ghost".to_string(),
            cost: b(0.1, 0.0),
        }
        .encode_frame()
        .unwrap();
        assert!(matches!(
            replay(&log2),
            Err(DurabilityError::UnknownDatasetInLog(_))
        ));
        // Duplicate registration.
        let mut log3 = reg.encode_frame().unwrap();
        log3.extend_from_slice(&reg.encode_frame().unwrap());
        assert!(matches!(
            replay(&log3),
            Err(DurabilityError::DuplicateDataset(_))
        ));
        // Unknown record tag (mid-log → typed error).
        let mut payload = vec![99u8];
        payload.extend_from_slice(&0u64.to_le_bytes());
        let len = payload.len() as u32;
        let mut checked = len.to_le_bytes().to_vec();
        checked.extend_from_slice(&payload);
        let crc = crc32(&checked);
        let mut log4 = Vec::new();
        log4.extend_from_slice(&len.to_le_bytes());
        log4.extend_from_slice(&crc.to_le_bytes());
        log4.extend_from_slice(&payload);
        log4.extend_from_slice(&reg.encode_frame().unwrap());
        assert!(matches!(
            scan_frames(&log4),
            Err(DurabilityError::UnknownRecordType { tag: 99, .. })
        ));
        // Non-finite cost bits (hand-built log) fail typed.
        let mut bad_cost = vec![TAG_INTENT];
        bad_cost.extend_from_slice(&0u64.to_le_bytes());
        bad_cost.extend_from_slice(&1u16.to_le_bytes());
        bad_cost.push(b'd');
        bad_cost.extend_from_slice(&f64::NAN.to_le_bytes());
        bad_cost.extend_from_slice(&0.0f64.to_le_bytes());
        assert!(matches!(
            WalRecord::decode_payload(&bad_cost, 0),
            Err(DurabilityError::CorruptRecord { .. })
        ));
    }

    #[test]
    fn replay_rebuilds_streams_and_counters_in_log_order() {
        let mut log = Vec::new();
        for r in [
            WalRecord::DatasetRegistered {
                dataset: "d".to_string(),
                cap: b(2.0, 0.0),
            },
            // First append happens before any counter opens: the stream
            // sees it, no counter does.
            WalRecord::DatasetAppended {
                dataset: "d".to_string(),
                epoch: 1,
                values: vec![0.1, 0.2],
            },
            WalRecord::ContinualOpened {
                session: 3,
                dataset: "d".to_string(),
                epsilon: 0.5,
                horizon: 16,
            },
            WalRecord::DatasetAppended {
                dataset: "d".to_string(),
                epoch: 2,
                values: vec![0.3, 0.4, 0.5],
            },
            WalRecord::DatasetAppended {
                dataset: "d".to_string(),
                epoch: 3,
                values: vec![0.6],
            },
        ] {
            log.extend_from_slice(&r.encode_frame().unwrap());
        }
        let state = replay(&log).unwrap();
        assert_eq!(
            state.appends["d"],
            vec![vec![0.1, 0.2], vec![0.3, 0.4, 0.5], vec![0.6]]
        );
        let counter = &state.counters[&3];
        assert_eq!(counter.dataset, "d");
        assert_eq!(counter.epsilon, 0.5);
        assert_eq!(counter.horizon, 16);
        assert_eq!(counter.observed, vec![3, 1], "only post-open batches");
        assert_eq!(state.next_session, 4, "counter ids advance the space");
    }

    #[test]
    fn replay_rejects_epoch_gaps_and_unknown_stream_targets() {
        let reg = WalRecord::DatasetRegistered {
            dataset: "d".to_string(),
            cap: b(1.0, 0.0),
        };
        // Epoch gap (first append must be epoch 1).
        let mut log = reg.encode_frame().unwrap();
        log.extend_from_slice(
            &WalRecord::DatasetAppended {
                dataset: "d".to_string(),
                epoch: 2,
                values: vec![0.5],
            }
            .encode_frame()
            .unwrap(),
        );
        assert!(matches!(
            replay(&log),
            Err(DurabilityError::CorruptRecord { .. })
        ));
        // Append to a dataset the log never registered.
        let log2 = WalRecord::DatasetAppended {
            dataset: "ghost".to_string(),
            epoch: 1,
            values: vec![0.5],
        }
        .encode_frame()
        .unwrap();
        assert!(matches!(
            replay(&log2),
            Err(DurabilityError::UnknownDatasetInLog(_))
        ));
        // Counter against an unregistered dataset.
        let log3 = WalRecord::ContinualOpened {
            session: 0,
            dataset: "ghost".to_string(),
            epsilon: 0.5,
            horizon: 8,
        }
        .encode_frame()
        .unwrap();
        assert!(matches!(
            replay(&log3),
            Err(DurabilityError::UnknownDatasetInLog(_))
        ));
        // Hand-built payloads with impossible fields decode as corrupt.
        let mut nan_append = vec![TAG_DATASET_APPENDED];
        nan_append.extend_from_slice(&1u16.to_le_bytes());
        nan_append.push(b'd');
        nan_append.extend_from_slice(&1u64.to_le_bytes());
        nan_append.extend_from_slice(&1u32.to_le_bytes());
        nan_append.extend_from_slice(&f64::NAN.to_le_bytes());
        assert!(matches!(
            WalRecord::decode_payload(&nan_append, 0),
            Err(DurabilityError::CorruptRecord { .. })
        ));
        let mut zero_horizon = vec![TAG_CONTINUAL_OPENED];
        zero_horizon.extend_from_slice(&0u64.to_le_bytes());
        zero_horizon.extend_from_slice(&1u16.to_le_bytes());
        zero_horizon.push(b'd');
        zero_horizon.extend_from_slice(&0.5f64.to_le_bytes());
        zero_horizon.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            WalRecord::decode_payload(&zero_horizon, 0),
            Err(DurabilityError::CorruptRecord { .. })
        ));
    }

    #[test]
    fn crashable_wal_persists_exactly_the_planned_prefix() {
        let frame_a = WalRecord::Commit { seq: 0 }.encode_frame().unwrap();
        let frame_b = WalRecord::Commit { seq: 1 }.encode_frame().unwrap();
        let plan = CrashPlan::at(CrashPoint::TornWrite { index: 1, keep: 5 }).unwrap();
        let (mut wal, handle) = CrashableWal::new(plan);
        wal.append(&frame_a).unwrap();
        wal.append(&frame_b).unwrap();
        // The "process" is dead; later writes vanish.
        wal.append(&frame_a).unwrap();
        assert!(wal.crashed());
        let mut want = frame_a.clone();
        want.extend_from_slice(&frame_b[..5]);
        assert_eq!(handle.bytes(), want);
        // And the image recovers as a torn tail.
        let scan = scan_frames(&handle.bytes()).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.truncated_tail);
    }

    #[test]
    fn file_wal_roundtrips_and_truncates() {
        let path =
            std::env::temp_dir().join(format!("dplearn_wal_test_{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = FileWal::open(&path).unwrap();
            wal.append(
                &WalRecord::DatasetRegistered {
                    dataset: "d".to_string(),
                    cap: b(1.0, 0.0),
                }
                .encode_frame()
                .unwrap(),
            )
            .unwrap();
            wal.flush().unwrap();
            let extra = WalRecord::Commit { seq: 0 }.encode_frame().unwrap();
            wal.append(&extra).unwrap();
            let full = wal.snapshot().unwrap();
            wal.truncate(full.len() - extra.len()).unwrap();
        }
        // Reopen: only the first record survives the truncation.
        let wal = FileWal::open(&path).unwrap();
        let scan = scan_frames(&wal.snapshot().unwrap()).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(!scan.truncated_tail);
        let _ = std::fs::remove_file(&path);
    }
}
