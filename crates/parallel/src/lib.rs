//! Deterministic data-parallel execution for the dplearn workspace.
//!
//! Every hot path in the reproduction — Monte-Carlo privacy audits,
//! multi-chain Gibbs sampling, Blahut–Arimoto, exponential-mechanism
//! scoring — is embarrassingly parallel. This crate provides the one
//! primitive they all share: a **chunked parallel map over a persistent
//! worker pool** whose output is **bit-identical at every thread count**.
//!
//! # The determinism contract
//!
//! Work is split into *fixed-size chunks whose boundaries depend only on
//! the problem size*, never on the number of workers. Each chunk is an
//! independent computation (callers give stochastic chunks their own RNG
//! stream — see `Xoshiro256::jump_streams` in `dplearn-numerics`), and
//! chunk results are merged **in chunk-index order**. Threads only decide
//! *when* a chunk runs, never *what* it computes or *where* its result
//! lands, so:
//!
//! ```text
//! result(1 thread) == result(2 threads) == result(N threads), bit for bit
//! ```
//!
//! # Execution model
//!
//! Parallel calls dispatch to a lazily-initialized, process-wide pool of
//! condvar-parked workers (see [`pool`]'s module docs); the calling
//! thread always participates in the work. Dispatch costs microseconds,
//! not the thread-spawn milliseconds the original scoped-thread design
//! paid per call — the fix for the `BENCH_hotpaths.json` regression
//! where Blahut–Arimoto at `DPLEARN_THREADS=4` ran slower than serial.
//! Parallel calls made from *inside* a parallel section degrade to
//! serial execution (same results) instead of deadlocking.
//!
//! # Adaptive serial cutover
//!
//! Every entry point except [`par_for_each_mut`] takes a per-item (or
//! per-chunk) **cost hint** in arbitrary work units (roughly nanoseconds
//! of compute). When `items × hint` falls below [`par_threshold`], the
//! call runs serially and skips dispatch entirely — small problems
//! should never pay even microseconds of coordination. A hint of `0`
//! means "cost unknown" and always parallelizes, which protects callers
//! with few but very expensive items, like the engine batch executor.
//! The cutover decision depends only on the problem size and the hint —
//! never on the thread count — so it is itself deterministic and
//! thread-invariant.
//!
//! # Thread-count resolution
//!
//! [`thread_count`] resolves, in order: the process-global override set
//! by [`set_thread_count`] (used by tests and benches), the
//! `DPLEARN_THREADS` environment variable, and finally
//! `std::thread::available_parallelism()`. A count of 1 runs inline on
//! the calling thread with no dispatch.
//!
//! # Telemetry
//!
//! [`set_pool_recorder`] installs a `dplearn-telemetry` sink for pool
//! lifecycle counters ([`POOL_DISPATCHES`], [`POOL_PARK_WAKEUPS`],
//! [`POOL_SERIAL_CUTOVERS`]), all recorded from the sequential
//! dispatcher path — never from worker closures.

#![deny(missing_docs)]
#![warn(clippy::all)]
// Panic-free hardening: library code must surface typed errors, never
// panic. Bounds-proven kernels opt out per-module with a justification.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod pool;

pub use pool::in_pool_section;

use std::mem::{ManuallyDrop, MaybeUninit};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dplearn_telemetry::Recorder;

/// Counter: pooled dispatches actually issued (serial fallbacks and
/// cutovers don't count). Incremented once per parallel section, from
/// the dispatching thread.
pub const POOL_DISPATCHES: &str = "parallel.pool.dispatches";

/// Counter: parked workers woken across all dispatches (the sum of
/// engaged helper counts). Recorded from the dispatching thread.
pub const POOL_PARK_WAKEUPS: &str = "parallel.pool.park_wakeups";

/// Counter: parallel calls that the [`par_threshold`] heuristic sent
/// down the serial path. The decision depends only on problem size and
/// cost hint, so this counter is thread-count invariant.
pub const POOL_SERIAL_CUTOVERS: &str = "parallel.pool.serial_cutovers";

/// Process-global thread-count override; 0 means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the worker count for subsequent parallel calls (0 clears the
/// override). Intended for tests and benchmarks; normal configuration is
/// the `DPLEARN_THREADS` environment variable.
///
/// Because results are thread-count invariant, racing this setting
/// against in-flight parallel calls can change only their speed, never
/// their output.
pub fn set_thread_count(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The number of worker threads parallel calls will use: the
/// [`set_thread_count`] override if set, else `DPLEARN_THREADS`, else
/// the machine's available parallelism (minimum 1).
pub fn thread_count() -> usize {
    let ov = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if ov > 0 {
        return ov;
    }
    if let Ok(v) = std::env::var("DPLEARN_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The serial-cutover threshold in cost units (≈ nanoseconds of
/// compute): a parallel call whose `items × cost_hint` falls below this
/// runs serially.
pub const fn par_threshold() -> u64 {
    32_768
}

/// Fast guard so the no-recorder hot path is one relaxed atomic load.
static POOL_RECORDER_SET: AtomicBool = AtomicBool::new(false);
static POOL_RECORDER: Mutex<Option<Arc<dyn Recorder>>> = Mutex::new(None);

/// Install (or with `None`, remove) the telemetry sink for pool
/// lifecycle counters. All events are recorded from the sequential
/// dispatcher path, so [`dplearn_telemetry::MemoryRecorder`] snapshots
/// taken around parallel work stay race-free.
pub fn set_pool_recorder(recorder: Option<Arc<dyn Recorder>>) {
    let mut slot = POOL_RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    POOL_RECORDER_SET.store(recorder.is_some(), Ordering::Release);
    *slot = recorder;
}

fn pool_recorder() -> Option<Arc<dyn Recorder>> {
    if !POOL_RECORDER_SET.load(Ordering::Acquire) {
        return None;
    }
    POOL_RECORDER
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Split `n` items into chunks of `chunk_size` and return the chunk
/// count. Chunk `i` covers `[i*chunk_size, min((i+1)*chunk_size, n))`.
pub fn chunk_count(n: usize, chunk_size: usize) -> usize {
    assert!(chunk_size > 0, "chunk_size must be positive");
    n.div_ceil(chunk_size)
}

/// A raw pointer that may cross threads. Sound only under this crate's
/// write discipline: every index is written by exactly one claimant, and
/// the dispatcher joins all workers before reading anything back.
struct SendPtr<T>(*mut T);

// Manual impls: the derive would add an unwanted `T: Copy` bound.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: see the type docs — disjoint single-writer access, joined
// before any read, `T: Send` required at every use site.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Pointer to element `i`. Going through a method (rather than the
    /// raw field) makes closures capture the whole `SendPtr` — field
    /// capture of the bare pointer would sidestep the `Sync` impl.
    /// `wrapping_add` keeps this safe to call; dereferencing the result
    /// carries the usual in-bounds obligation at the use site.
    fn at(&self, i: usize) -> *mut T {
        self.0.wrapping_add(i)
    }
}

/// Returns true (and records the cutover) when the cost heuristic says
/// this call should run serially. Evaluated before any thread-count
/// check so the counter is thread-invariant.
fn cutover_to_serial(n_items: usize, cost_hint: u64) -> bool {
    if cost_hint == 0 {
        return false;
    }
    let total = (n_items as u64).saturating_mul(cost_hint);
    if total >= par_threshold() {
        return false;
    }
    if let Some(r) = pool_recorder() {
        r.counter_add(POOL_SERIAL_CUTOVERS, "", 1);
    }
    true
}

/// Dispatch `task` to the pool with `workers - 1` helpers plus the
/// calling thread, then record pool telemetry from this (sequential)
/// thread. `task` must be a chunk-claiming loop safe to call from any
/// number of threads concurrently.
fn dispatch(workers: usize, task: &(dyn Fn() + Sync)) {
    let engaged = pool::run(workers.saturating_sub(1), task);
    if engaged > 0 {
        if let Some(r) = pool_recorder() {
            r.counter_add(POOL_DISPATCHES, "", 1);
            r.counter_add(POOL_PARK_WAKEUPS, "", engaged as u64);
        }
    }
}

/// Map `f` over chunk indices `0..n_chunks`, returning results in chunk
/// order. `f(i)` must depend only on `i` (plus captured immutable state)
/// for the determinism contract to hold; scheduling across workers is
/// arbitrary, but the returned `Vec` is always `[f(0), f(1), …]`.
/// `chunk_cost_hint` is the cost of one chunk (≈ nanoseconds; 0 =
/// unknown = always parallelize), feeding the [`par_threshold`] serial
/// cutover.
pub fn par_map_indexed<T, F>(n_chunks: usize, chunk_cost_hint: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n_chunks <= 1 {
        return (0..n_chunks).map(f).collect();
    }
    if cutover_to_serial(n_chunks, chunk_cost_hint) {
        return (0..n_chunks).map(f).collect();
    }
    let workers = thread_count().min(n_chunks);
    if workers <= 1 {
        return (0..n_chunks).map(f).collect();
    }

    // Each chunk index is claimed exactly once and its result written
    // straight into its slot — no per-worker buffers, no sort-merge.
    let mut out: Vec<MaybeUninit<T>> = (0..n_chunks).map(|_| MaybeUninit::uninit()).collect();
    let base = SendPtr(out.as_mut_ptr());
    let next = AtomicUsize::new(0);
    dispatch(workers, &|| {
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_chunks {
                break;
            }
            let v = f(i);
            // SAFETY: `i` came from a unique fetch_add claim below
            // `n_chunks`, so this slot is written exactly once, and the
            // dispatcher joins every worker before reading the buffer.
            unsafe {
                (*base.at(i)).write(v);
            }
        }
    });
    // `dispatch` returned without unwinding, so all `n_chunks` slots are
    // initialized. (On panic the MaybeUninit buffer drops as raw bytes —
    // written elements leak, which is safe.)
    let mut out = ManuallyDrop::new(out);
    let (ptr, len, cap) = (out.as_mut_ptr(), out.len(), out.capacity());
    // SAFETY: every slot initialized; MaybeUninit<T> has T's layout.
    unsafe { Vec::from_raw_parts(ptr.cast::<T>(), len, cap) }
}

/// Map every element of `items` through `f` (called with the element's
/// index), preserving order. Items are grouped into contiguous blocks to
/// amortize scheduling; block boundaries depend only on `items.len()`,
/// so output is thread-count invariant whenever `f` is a pure function
/// of `(index, item)`. `item_cost_hint` is the cost of one item
/// (≈ nanoseconds; 0 = unknown = always parallelize), feeding the
/// [`par_threshold`] serial cutover.
pub fn par_map<T, U, F>(items: &[T], item_cost_hint: u64, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    if n <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    if cutover_to_serial(n, item_cost_hint) {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    // Fixed block size: targets ~64 blocks for large inputs, never less
    // than 1 item, and is independent of the worker count.
    let block = n.div_ceil(64).max(1);
    let blocks = chunk_count(n, block);
    let workers = thread_count().min(blocks);
    if workers <= 1 || blocks <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }

    let mut out: Vec<MaybeUninit<U>> = (0..n).map(|_| MaybeUninit::uninit()).collect();
    let base = SendPtr(out.as_mut_ptr());
    let next = AtomicUsize::new(0);
    dispatch(workers, &|| {
        loop {
            let b = next.fetch_add(1, Ordering::Relaxed);
            if b >= blocks {
                break;
            }
            let lo = b * block;
            let hi = (lo + block).min(n);
            for (k, item) in items.get(lo..hi).unwrap_or(&[]).iter().enumerate() {
                let v = f(lo + k, item);
                // SAFETY: block `b` is claimed exactly once and blocks
                // are disjoint, so slot `lo + k < n` has one writer; the
                // dispatcher joins before reading the buffer.
                unsafe {
                    (*base.at(lo + k)).write(v);
                }
            }
        }
    });
    let mut out = ManuallyDrop::new(out);
    let (ptr, len, cap) = (out.as_mut_ptr(), out.len(), out.capacity());
    // SAFETY: the disjoint blocks cover 0..n, so every slot is
    // initialized; MaybeUninit<U> has U's layout.
    unsafe { Vec::from_raw_parts(ptr.cast::<U>(), len, cap) }
}

/// Chunked map-reduce: apply `map` to each chunk index, then fold the
/// chunk results **strictly in chunk order** with `fold`, starting from
/// `init`. The fold order is part of the determinism contract: floating-
/// point accumulation happens in the same association at any thread
/// count. `chunk_cost_hint` is as in [`par_map_indexed`].
pub fn par_map_reduce<A, T, FM, FR>(
    n_chunks: usize,
    chunk_cost_hint: u64,
    init: A,
    map: FM,
    fold: FR,
) -> A
where
    T: Send,
    FM: Fn(usize) -> T + Sync,
    FR: FnMut(A, T) -> A,
{
    par_map_indexed(n_chunks, chunk_cost_hint, map)
        .into_iter()
        .fold(init, fold)
}

/// Apply `f` to disjoint mutable chunks of `items` in parallel. `f`
/// receives `(chunk_index, start_offset, chunk)`; chunk boundaries are
/// every `chunk_size` elements, independent of the worker count. Because
/// each chunk is written exactly once by a pure function of its inputs,
/// the final contents of `items` are thread-count invariant.
/// `item_cost_hint` is the cost of one element (≈ nanoseconds; 0 =
/// unknown = always parallelize), feeding the [`par_threshold`] serial
/// cutover.
pub fn par_for_each_chunk_mut<T, F>(items: &mut [T], chunk_size: usize, item_cost_hint: u64, f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n = items.len();
    if n == 0 {
        return;
    }
    let chunks = chunk_count(n, chunk_size);
    let serial = |items: &mut [T]| {
        for (i, chunk) in items.chunks_mut(chunk_size).enumerate() {
            f(i, i * chunk_size, chunk);
        }
    };
    if chunks <= 1 {
        serial(items);
        return;
    }
    if cutover_to_serial(n, item_cost_hint) {
        serial(items);
        return;
    }
    let workers = thread_count().min(chunks);
    if workers <= 1 {
        serial(items);
        return;
    }

    let base = SendPtr(items.as_mut_ptr());
    let next = AtomicUsize::new(0);
    dispatch(workers, &|| {
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= chunks {
                break;
            }
            let start = i * chunk_size;
            let len = chunk_size.min(n - start);
            // SAFETY: chunk `i` is claimed exactly once; chunks are
            // disjoint sub-ranges of `items`, and the dispatcher holds
            // the exclusive borrow until every worker has joined.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.at(start), len) };
            f(i, start, chunk);
        }
    });
}

/// Apply `f` to every element of `items` in parallel, one element per
/// pool chunk: `f(index, &mut item)`. The coarse-grained sibling of
/// [`par_for_each_chunk_mut`], for executors that each own one large
/// unit of work (a serving shard, a per-partition engine) where
/// per-item dispatch cost is negligible next to the work itself —
/// chunks of one element are dispatched unconditionally, with no serial
/// cutover. Each element is written exactly once by a pure function of
/// `(index, element)`, so the final contents are thread-count
/// invariant.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    par_for_each_chunk_mut(items, 1, 0, |_chunk, start, chunk_items| {
        for (offset, item) in chunk_items.iter_mut().enumerate() {
            f(start + offset, item);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dplearn_telemetry::MemoryRecorder;

    /// Tests that mutate the process-global override serialize on this
    /// lock so concurrent test threads don't observe each other's
    /// settings.
    fn override_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run `body` at each of the given worker counts and assert all
    /// results are identical.
    fn invariant_over_threads<T: PartialEq + std::fmt::Debug>(body: impl Fn() -> T) {
        let _guard = override_lock();
        let baseline = {
            set_thread_count(1);
            body()
        };
        for threads in [2, 3, 8] {
            set_thread_count(threads);
            assert_eq!(body(), baseline, "diverged at {threads} threads");
        }
        set_thread_count(0);
    }

    #[test]
    fn par_map_indexed_preserves_order() {
        invariant_over_threads(|| par_map_indexed(100, 0, |i| i * i));
    }

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 17).collect();
        invariant_over_threads(|| {
            let got = par_map(&items, 0, |i, &x| {
                assert_eq!(items[i], x);
                x.wrapping_mul(x) ^ 17
            });
            assert_eq!(got, serial);
            got
        });
    }

    #[test]
    fn par_map_reduce_folds_in_chunk_order() {
        // String concatenation is order-sensitive: any out-of-order merge
        // would be caught immediately.
        invariant_over_threads(|| {
            par_map_reduce(
                37,
                0,
                String::new(),
                |i| format!("[{i}]"),
                |acc, s| acc + &s,
            )
        });
    }

    #[test]
    fn float_reduction_is_bit_stable() {
        // Sums of many floats differ under re-association; the ordered
        // fold must produce identical bits at every thread count.
        let _guard = override_lock();
        let bits = |threads: usize| {
            set_thread_count(threads);
            let total = par_map_reduce(
                64,
                0,
                0.0f64,
                |i| {
                    let mut s = 0.0f64;
                    for k in 0..1000 {
                        s += ((i * 1000 + k) as f64).sqrt();
                    }
                    s
                },
                |acc, x| acc + x,
            );
            set_thread_count(0);
            total.to_bits()
        };
        let b1 = bits(1);
        assert_eq!(b1, bits(2));
        assert_eq!(b1, bits(8));
    }

    #[test]
    fn par_for_each_chunk_mut_writes_every_slot() {
        invariant_over_threads(|| {
            let mut data = vec![0u64; 257];
            par_for_each_chunk_mut(&mut data, 16, 0, |_i, start, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = (start + k) as u64 + 1;
                }
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
            data
        });
    }

    #[test]
    fn par_for_each_mut_visits_every_element_once() {
        invariant_over_threads(|| {
            let mut data = vec![0u64; 97];
            par_for_each_mut(&mut data, |i, v| {
                *v = (i as u64).wrapping_mul(0x9E37_79B9) ^ 3;
            });
            assert!(data
                .iter()
                .enumerate()
                .all(|(i, &v)| v == (i as u64).wrapping_mul(0x9E37_79B9) ^ 3));
            data
        });
        // Degenerate inputs.
        let mut empty: Vec<u64> = Vec::new();
        par_for_each_mut(&mut empty, |_, _| unreachable!());
        let mut one = vec![7u64];
        par_for_each_mut(&mut one, |i, v| *v += i as u64 + 1);
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(par_map_indexed(0, 0, |i| i).is_empty());
        assert_eq!(par_map_indexed(1, 0, |i| i + 5), vec![5]);
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, 0, |_, &x| x).is_empty());
        assert_eq!(par_map_reduce(0, 0, 42i32, |_| 1, |a, b| a + b), 42);
    }

    #[test]
    fn chunk_count_rounds_up() {
        assert_eq!(chunk_count(0, 10), 0);
        assert_eq!(chunk_count(1, 10), 1);
        assert_eq!(chunk_count(10, 10), 1);
        assert_eq!(chunk_count(11, 10), 2);
    }

    #[test]
    fn env_and_override_resolution() {
        let _guard = override_lock();
        set_thread_count(5);
        assert_eq!(thread_count(), 5);
        set_thread_count(0);
        assert!(thread_count() >= 1);
    }

    #[test]
    fn consecutive_calls_reuse_the_pool_bit_identically() {
        // Two back-to-back dispatches on the same (now-warm) pool must
        // each produce the serial result — the pool-reuse contract.
        invariant_over_threads(|| {
            let a = par_map_indexed(200, 0, |i| (i as f64).sqrt().to_bits());
            let b = par_map_indexed(200, 0, |i| (i as f64).sqrt().to_bits());
            assert_eq!(a, b);
            a
        });
    }

    #[test]
    fn cost_hint_cutover_runs_serially_and_counts() {
        let _guard = override_lock();
        set_thread_count(8);
        let recorder = Arc::new(MemoryRecorder::new());
        set_pool_recorder(Some(recorder.clone()));

        // Tiny total cost → serial cutover (threshold is 32_768 units).
        let items: Vec<u64> = (0..100).collect();
        let cheap = par_map(&items, 1, |_, &x| x + 1);
        assert_eq!(cheap, (1..=100).collect::<Vec<u64>>());

        // Huge per-item cost → no cutover; the pool dispatches.
        let dear = par_map(&items, 1_000_000, |_, &x| x + 1);
        assert_eq!(dear, cheap);

        set_pool_recorder(None);
        set_thread_count(0);

        let snap = recorder.snapshot().unwrap_or_default();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0, |&(_, v)| v)
        };
        assert_eq!(counter(POOL_SERIAL_CUTOVERS), 1);
        assert!(counter(POOL_DISPATCHES) >= 1);
        assert!(counter(POOL_PARK_WAKEUPS) >= 1);
    }

    #[test]
    fn zero_cost_hint_never_cuts_over() {
        let _guard = override_lock();
        set_thread_count(4);
        let recorder = Arc::new(MemoryRecorder::new());
        set_pool_recorder(Some(recorder.clone()));
        // Cost 0 = unknown: even a tiny problem may dispatch (protects
        // few-items-expensive-work callers like the engine batch path).
        let got = par_map_indexed(8, 0, |i| i);
        assert_eq!(got, (0..8).collect::<Vec<usize>>());
        set_pool_recorder(None);
        set_thread_count(0);
        let snap = recorder.snapshot().unwrap_or_default();
        assert!(!snap
            .counters
            .iter()
            .any(|(k, v)| k == POOL_SERIAL_CUTOVERS && *v > 0));
    }

    #[test]
    fn nested_par_map_falls_back_to_serial_not_deadlock() {
        invariant_over_threads(|| {
            // Outer parallel call; each chunk performs a nested parallel
            // call, which must run serially inside the pool section.
            par_map_indexed(8, 0, |i| {
                let inner = par_map_indexed(8, 0, move |j| (i * 8 + j) as u64);
                assert!(in_pool_section() || thread_count() == 1 || inner.len() == 8);
                inner.iter().sum::<u64>()
            })
        });
    }

    #[test]
    fn panic_in_chunk_propagates_and_pool_survives() {
        let _guard = override_lock();
        set_thread_count(4);
        let result = std::panic::catch_unwind(|| {
            par_map_indexed(64, 0, |i| {
                if i == 13 {
                    panic!("chunk 13 failed");
                }
                i
            })
        });
        assert!(result.is_err());
        // The pool must still work after the panicked dispatch.
        let ok = par_map_indexed(64, 0, |i| i * 2);
        assert_eq!(ok.len(), 64);
        assert_eq!(ok[13], 26);
        set_thread_count(0);
    }
}
