//! Property test: the `NoopRecorder` path never allocates per event.
//!
//! A counting global allocator wraps the system allocator; random
//! sequences of recorder operations (generated *before* measurement, so
//! generation's own allocations don't pollute the count) are replayed
//! against a `NoopRecorder` and the allocation counter must not move.
//!
//! The counter is per thread: the test harness runs tests on parallel
//! threads, and another test's allocations must not count against the
//! thread under measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dplearn_telemetry::{NoopRecorder, Recorder, SpanTimer};
use proptest::prelude::*;

struct CountingAlloc;

thread_local! {
    // `const` initialisation needs no lazy set-up, so touching the
    // counter from inside the allocator cannot itself allocate.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with` fails only while the thread's locals are being torn
    // down; allocations then belong to no measurement.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made so far by the calling thread.
fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One pre-generated recorder operation (no owned data, so replay
/// itself cannot allocate).
#[derive(Debug, Clone, Copy)]
enum Op {
    Counter(u64),
    Gauge(f64),
    Histogram(f64),
    Span,
    EnabledCheck,
}

fn label_for(i: usize) -> &'static str {
    match i % 3 {
        0 => "",
        1 => "dataset-a",
        _ => "fault:nan",
    }
}

fn replay(ops: &[Op], r: &NoopRecorder) -> u64 {
    let mut touched = 0u64;
    for (i, op) in ops.iter().enumerate() {
        let label = label_for(i);
        match *op {
            Op::Counter(d) => r.counter_add("noalloc.counter", label, d),
            Op::Gauge(v) => r.gauge_set("noalloc.gauge", label, v),
            Op::Histogram(v) => r.histogram_record("noalloc.hist", label, v),
            Op::Span => {
                let _span = SpanTimer::new(r, "noalloc.span", label);
            }
            Op::EnabledCheck => {
                // The `enabled()` guard is the documented cheap path.
                if r.enabled() {
                    touched += 1;
                }
            }
        }
        touched = touched.wrapping_add(1);
    }
    touched
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn noop_recorder_path_is_allocation_free(
        kinds in prop::collection::vec(0u8..5, 1..256),
        values in prop::collection::vec(-1.0e9f64..1.0e9, 1..256),
        deltas in prop::collection::vec(0u64..u64::MAX, 1..256),
    ) {
        // Materialize the op sequence BEFORE measuring: generation and
        // this Vec are allowed to allocate, the replay loop is not.
        let ops: Vec<Op> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let v = values[i % values.len()];
                let d = deltas[i % deltas.len()];
                match k {
                    0 => Op::Counter(d),
                    1 => Op::Gauge(v),
                    2 => Op::Histogram(if i % 7 == 0 { f64::NAN } else { v }),
                    3 => Op::Span,
                    _ => Op::EnabledCheck,
                }
            })
            .collect();
        let recorder = NoopRecorder;

        let before = alloc_calls();
        let touched = replay(&ops, &recorder);
        let after = alloc_calls();

        // `touched` keeps the loop observable so it cannot be optimized
        // away wholesale.
        prop_assert_eq!(touched, ops.len() as u64);
        prop_assert!(
            after == before,
            "NoopRecorder allocated {} time(s) on a {}-op sequence",
            after - before,
            ops.len()
        );
    }
}

#[test]
fn memory_recorder_is_allowed_to_allocate() {
    // Sanity check that the counter actually counts: the aggregating
    // recorder must show up in it.
    let r = dplearn_telemetry::MemoryRecorder::new();
    let before = alloc_calls();
    r.counter_add("c", "label", 1);
    let after = alloc_calls();
    assert!(
        after > before,
        "counting allocator failed to observe allocation"
    );
}
