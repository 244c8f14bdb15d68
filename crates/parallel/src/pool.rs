//! The persistent worker pool behind every parallel call.
//!
//! PR 1's execution layer spawned **fresh scoped threads on every
//! `par_map` call** and joined them before returning. That is correct
//! (the determinism contract never depended on who runs a chunk) but
//! ruinously slow for iterative solvers: Blahut–Arimoto dispatches two
//! parallel sections per iteration, and at thousands of iterations the
//! per-call thread-spawn milliseconds dwarfed the numeric work, and 4
//! workers ran *slower* than 1 (`BENCH_kernels.json`'s `pool_dispatch`
//! rows time a pool section against a scoped-spawn replica).
//!
//! This module replaces spawn-per-call with a **lazily-initialized,
//! process-wide pool** of condvar-parked workers:
//!
//! * Workers are spawned on first use, up to the largest helper count any
//!   dispatch has requested (capped at `MAX_WORKERS`), and then live for
//!   the rest of the process parked on a condvar.
//! * A dispatch publishes one type-erased task, bumps an epoch, and wakes
//!   the workers; the **calling thread participates** in the work, so a
//!   dispatch never waits idle and `helpers = 0` degrades to a plain
//!   serial call.
//! * The dispatcher blocks until every engaged worker has finished the
//!   task, which is what makes it sound for the task to borrow the
//!   caller's stack (the same guarantee `std::thread::scope` gave, at a
//!   per-call cost of microseconds instead of spawn milliseconds).
//! * Worker panics are caught, carried back, and re-raised on the calling
//!   thread — identical observable behavior to the scoped-thread version.
//!
//! # Nested dispatch
//!
//! A task that itself calls into the parallel layer (directly or through
//! a library it invokes) must not dispatch to the pool: the pool's
//! dispatch path is serialized, so a worker waiting on a nested dispatch
//! it can never start would deadlock. Every thread inside a pool section
//! — workers permanently, the caller for the duration of its inline
//! share — carries a thread-local marker, and `run` falls back to a
//! plain serial call when it is set. Nested parallel calls therefore
//! degrade to serial execution with bit-identical results.
//!
//! # Determinism
//!
//! Nothing here touches *what* a chunk computes or *where* its result
//! lands; the pool only changes which OS thread happens to execute a
//! claimed chunk. The determinism contract of the crate root is
//! unaffected, and the pool-reuse cases in `tests/determinism.rs` pin
//! that across consecutive dispatches, retry restarts, and nested calls.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Hard cap on pool workers, far above any sane `DPLEARN_THREADS`; a
/// backstop against pathological configuration, not a tuning knob.
pub(crate) const MAX_WORKERS: usize = 256;

/// A borrowed, type-erased task. The pointee lives on the dispatching
/// thread's stack; `run` does not return until every worker that
/// picked the task up has finished running it, so the pointer never
/// dangles while dereferenced.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many workers are
// sound) and outlives every dereference because the dispatcher joins
// all engaged workers before returning — the same lifetime argument
// `std::thread::scope` makes, amortized across calls.
unsafe impl Send for TaskPtr {}

/// Pool state guarded by one mutex.
struct State {
    /// Bumped once per dispatch so parked workers can recognize work
    /// they have not yet picked up.
    epoch: u64,
    /// The current epoch's task.
    task: Option<TaskPtr>,
    /// Pickup slots left in the current epoch: each engaged worker
    /// claims exactly one.
    remaining: usize,
    /// Workers currently running the current task.
    active: usize,
    /// Worker threads spawned so far.
    spawned: usize,
    /// First panic payload caught from a worker in the current epoch.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Pool {
    state: Mutex<State>,
    /// Workers park here between dispatches.
    work: Condvar,
    /// The dispatcher parks here until `remaining == 0 && active == 0`.
    done: Condvar,
    /// Serializes dispatches from concurrent caller threads; the pool
    /// runs one parallel section at a time (concurrent sections queue,
    /// they do not interleave).
    dispatch: Mutex<()>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// True while this thread is executing inside a pool section —
    /// permanently for workers, transiently for a dispatching caller
    /// running its inline share. Nested parallel calls check this and
    /// fall back to serial.
    static IN_POOL_SECTION: Cell<bool> = const { Cell::new(false) };
}

/// True when called from inside a pool section (a pool worker, or a
/// caller's inline share of a dispatch). Parallel calls made in this
/// state run serially instead of dispatching — see the module docs.
pub fn in_pool_section() -> bool {
    IN_POOL_SECTION.with(Cell::get)
}

fn lock_state(pool: &Pool) -> MutexGuard<'_, State> {
    // A poisoned lock only means some thread panicked with the guard
    // held; the counters inside remain structurally valid.
    pool.state.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State {
            epoch: 0,
            task: None,
            remaining: 0,
            active: 0,
            spawned: 0,
            panic: None,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
        dispatch: Mutex::new(()),
    })
}

/// The body of every pool worker: park on the condvar, claim one pickup
/// slot per epoch, run the task, report completion.
fn worker_loop(pool: &'static Pool) {
    // A worker thread is *always* inside a pool section; any parallel
    // call the task makes from here must run serially.
    IN_POOL_SECTION.with(|flag| flag.set(true));
    let mut last_epoch = 0u64;
    let mut st = lock_state(pool);
    loop {
        if st.remaining > 0 && st.epoch != last_epoch {
            last_epoch = st.epoch;
            st.remaining -= 1;
            st.active += 1;
            let task = st.task;
            drop(st);
            if let Some(TaskPtr(ptr)) = task {
                // SAFETY: the dispatcher blocks until `active` returns
                // to zero, so the pointee is alive for this whole call.
                let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*ptr)() }));
                st = lock_state(pool);
                if let Err(payload) = result {
                    if st.panic.is_none() {
                        st.panic = Some(payload);
                    }
                }
            } else {
                st = lock_state(pool);
            }
            st.active -= 1;
            if st.active == 0 && st.remaining == 0 {
                pool.done.notify_all();
            }
        } else {
            st = pool.work.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Make sure at least `want` workers exist, spawning lazily; returns the
/// number actually available. Spawn failure (resource exhaustion) is not
/// an error — the dispatch just engages fewer helpers, down to zero.
fn ensure_workers(pool: &'static Pool, want: usize) -> usize {
    let want = want.min(MAX_WORKERS);
    let mut st = lock_state(pool);
    while st.spawned < want {
        let id = st.spawned;
        // Spawning under the state lock is fine: it happens at most
        // MAX_WORKERS times per process, and workers immediately block
        // on the same lock anyway.
        let spawned = std::thread::Builder::new()
            .name(format!("dplearn-pool-{id}"))
            .spawn(move || worker_loop(pool))
            .is_ok();
        if !spawned {
            break;
        }
        st.spawned += 1;
    }
    st.spawned.min(want)
}

/// Run `task` on the calling thread plus up to `helpers` pool workers,
/// returning the number of helpers actually engaged. The task must be a
/// chunk-claiming loop (idempotent under extra callers, complete under
/// fewer): every engaged thread calls it exactly once, concurrently.
///
/// Falls back to a plain serial call (returning 0) when `helpers == 0`,
/// when called from inside a pool section (nested dispatch — see module
/// docs), or when no worker could be spawned.
pub(crate) fn run(helpers: usize, task: &(dyn Fn() + Sync)) -> usize {
    if helpers == 0 || in_pool_section() {
        task();
        return 0;
    }
    let pool = pool();
    // One parallel section at a time; concurrent dispatchers queue here.
    let dispatch_guard = pool.dispatch.lock().unwrap_or_else(PoisonError::into_inner);
    let engaged = ensure_workers(pool, helpers);
    if engaged == 0 {
        drop(dispatch_guard);
        task();
        return 0;
    }

    // SAFETY: pure lifetime erasure (the pointee type is unchanged).
    // The dispatcher below does not return until every engaged worker
    // has finished running the task, so no worker dereferences the
    // pointer after `task`'s real lifetime ends.
    let task_static: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(task) };
    {
        let mut st = lock_state(pool);
        st.epoch = st.epoch.wrapping_add(1);
        st.task = Some(TaskPtr(task_static));
        st.remaining = engaged;
        st.active = 0;
        st.panic = None;
    }
    pool.work.notify_all();

    // The dispatcher participates: its inline share is a pool section,
    // so nested parallel calls from inside `task` degrade to serial.
    let caller_result = IN_POOL_SECTION.with(|flag| {
        flag.set(true);
        let r = catch_unwind(AssertUnwindSafe(task));
        flag.set(false);
        r
    });

    // Join: wait until every engaged worker has picked up and finished.
    let payload = {
        let mut st = lock_state(pool);
        while st.remaining > 0 || st.active > 0 {
            st = pool.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.task = None;
        st.panic.take()
    };
    drop(dispatch_guard);

    // Re-raise the caller's own panic first (it is the primary failure),
    // then any worker's — matching the scoped-thread behavior of
    // re-raising the original payload rather than masking it.
    if let Err(p) = caller_result {
        resume_unwind(p);
    }
    if let Some(p) = payload {
        resume_unwind(p);
    }
    engaged
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_with_zero_helpers_is_inline() {
        let hits = AtomicUsize::new(0);
        let engaged = run(0, &|| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(engaged, 0);
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn every_engaged_thread_calls_the_task_once() {
        let calls = AtomicUsize::new(0);
        let engaged = run(3, &|| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        // Caller + engaged helpers each call exactly once.
        assert_eq!(calls.load(Ordering::Relaxed), engaged + 1);
    }

    #[test]
    fn nested_dispatch_runs_serially() {
        let outer = AtomicUsize::new(0);
        let inner = AtomicUsize::new(0);
        run(2, &|| {
            outer.fetch_add(1, Ordering::Relaxed);
            // Nested: must run inline on this thread, engaging nobody.
            let nested_engaged = run(2, &|| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(nested_engaged, 0);
        });
        assert_eq!(inner.load(Ordering::Relaxed), outer.load(Ordering::Relaxed));
    }

    #[test]
    fn worker_panic_is_reraised_on_the_caller() {
        let result = std::panic::catch_unwind(|| {
            run(2, &|| panic!("boom from a pool task"));
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("(non-str payload)");
        assert!(msg.contains("boom"), "got {msg:?}");
        // The pool must remain usable after a panicked dispatch.
        let ok = AtomicUsize::new(0);
        run(2, &|| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert!(ok.load(Ordering::Relaxed) >= 1);
    }
}
