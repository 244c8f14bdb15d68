//! Outside-in tracing: spans recorded by the benchmark around its own
//! calls into the library (call spans) and by the instruments it
//! installs through public extension points (child spans).
//!
//! Child spans land in per-thread buffers, so pool workers never
//! contend. When a call span that can have children closes, the main
//! thread drains every buffer — the pool is idle by then, because the
//! library call has returned — and folds the children into per-layer
//! totals: busy time, calls, bytes, and the call span's self time
//! (its duration minus the union of its children). Folding per
//! call keeps memory bounded over millions of requests.
//!
//! With tracing off every entry point is a relaxed load and a branch;
//! the untraced run installs no mechanism wrappers at all.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Every span the benchmark records, plus three synthetic totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    Enqueue,
    Tick,
    Append,
    Release,
    ContinualOpen,
    Register,
    AttachWal,
    Recover,
    Reregister,
    Report,
    Admit,
    WalAppend,
    WalFlush,
    WalSnapshot,
    WalTruncate,
    MechLaplaceCount,
    MechLaplaceSum,
    MechSvtRun,
    MechGibbsQuantile,
    GibbsBuild,
    FlatBuild,
    FlatMaxLogRatio,
    FlatMi,
    FlatMinEntropy,
    BaSolve,
    /// Summed durations of the mechanism executions under each call span.
    ParallelSum,
    /// Union of the mechanism executions under each call span.
    ParallelUnion,
    /// The tracer's own time folding spans after each call span.
    Fold,
}

impl Name {
    const COUNT: usize = Name::Fold as usize + 1;

    fn is_mechanism(self) -> bool {
        (Name::MechLaplaceCount as usize..=Name::MechGibbsQuantile as usize)
            .contains(&(self as usize))
    }
}

/// The benchmark phase a call span belongs to; child spans inherit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Repeated set-up, before the timed phase.
    Setup,
    /// Untimed rounds between set-up and the timed phase.
    Warmup,
    /// The timed phase.
    Run,
    /// Restart after the timed phase.
    Restart,
}

impl Phase {
    const COUNT: usize = Phase::Restart as usize + 1;
}

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    /// Start and end, ns since the trace epoch.
    start: u64,
    end: u64,
    /// Id of the enclosing call span (0 outside any).
    parent: u64,
    /// Payload bytes the call moved (WAL frames), else 0.
    bytes: u64,
}

/// Totals for one span name within one phase.
#[derive(Debug, Clone, Copy)]
pub struct Agg {
    /// Spans folded.
    pub calls: u64,
    /// Summed duration, ns.
    pub busy_ns: u64,
    /// Summed self time (duration minus union of children), ns; call
    /// spans only.
    pub self_ns: u64,
    /// Summed payload bytes.
    pub bytes: u64,
}

const ZERO: Agg = Agg {
    calls: 0,
    busy_ns: 0,
    self_ns: 0,
    bytes: 0,
};

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Id of the call span currently open on the main thread: the parent
/// of every child span recorded meanwhile, on any thread.
static CURRENT: AtomicU64 = AtomicU64::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static BUFFERS: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());
static TOTALS: Mutex<[[Agg; Name::COUNT]; Phase::COUNT]> =
    Mutex::new([[ZERO; Name::COUNT]; Phase::COUNT]);

thread_local! {
    static LOCAL: Arc<Mutex<Vec<Span>>> = {
        let buf = Arc::new(Mutex::new(Vec::new()));
        lock(&BUFFERS).push(Arc::clone(&buf));
        buf
    };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a thread panicked while holding a trace buffer")
}

fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turn tracing on for the rest of the process.
pub fn enable() {
    now_ns();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether tracing is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Time `f` as a child span on the calling thread when tracing is on.
#[inline]
pub fn timed_child<T>(name: Name, bytes: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = now_ns();
    let out = f();
    let span = Span {
        name,
        start,
        end: now_ns(),
        parent: CURRENT.load(Ordering::Relaxed),
        bytes,
    };
    LOCAL.with(|buf| lock(buf).push(span));
    out
}

/// Run one benchmark call into the library as a call span
/// of `phase`. With `children`, the spans its instruments recorded are
/// folded in when it returns; without, it is a leaf (e.g. `enqueue`)
/// and costs two clock reads. Returns the call's result.
pub fn call<T>(phase: Phase, name: Name, children: bool, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = if children {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        CURRENT.store(id, Ordering::Relaxed);
        id
    } else {
        0
    };
    let start = now_ns();
    let out = f();
    let end = now_ns();
    let mut kids = Vec::new();
    if children {
        CURRENT.store(0, Ordering::Relaxed);
        for buf in lock(&BUFFERS).iter() {
            kids.append(&mut lock(buf));
        }
        // Spans recorded outside this call belong to no call span.
        kids.retain(|k| k.parent == id);
    }
    fold(phase, name, start, end, &kids);
    out
}

/// Length of the union of `[start, end)` intervals, clipped to `[lo, hi)`.
fn union_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

fn fold(phase: Phase, name: Name, start: u64, end: u64, kids: &[Span]) {
    let union = union_ns(kids.iter().map(|k| (k.start, k.end)).collect(), start, end);
    let mech: Vec<(u64, u64)> = kids
        .iter()
        .filter(|k| k.name.is_mechanism())
        .map(|k| (k.start, k.end))
        .collect();
    let mut totals = lock(&TOTALS);
    let row = &mut totals[phase as usize];
    let d = &mut row[name as usize];
    d.calls += 1;
    d.busy_ns += end - start;
    d.self_ns += (end - start).saturating_sub(union);
    for k in kids {
        let a = &mut row[k.name as usize];
        a.calls += 1;
        a.busy_ns += k.end.saturating_sub(k.start);
        a.bytes += k.bytes;
    }
    if !mech.is_empty() {
        row[Name::ParallelSum as usize].busy_ns += mech.iter().map(|(s, e)| e - s).sum::<u64>();
        row[Name::ParallelUnion as usize].busy_ns += union_ns(mech, start, end);
    }
    row[Name::Fold as usize].busy_ns += now_ns() - end;
}

/// The totals for `name` in `phase` so far (zero when never recorded).
pub fn totals(phase: Phase, name: Name) -> Agg {
    lock(&TOTALS)[phase as usize][name as usize]
}

#[cfg(test)]
mod tests {
    use super::union_ns;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_ns(vec![(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_ns(vec![], 0, 10), 0);
        assert_eq!(union_ns(vec![(3, 4), (0, 2)], 0, 10), 3);
    }
}
