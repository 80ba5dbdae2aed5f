//! Proof that disabled telemetry is allocation-free on the hot path.
//!
//! The training loop calls `counter.add` / `gauge.set` /
//! `histogram.record` from inside the per-batch kernels; when telemetry is
//! off those must compile down to one relaxed atomic load and nothing
//! else. A counting global allocator makes the claim checkable in CI
//! (counter-based, not timing-based): after warm-up, a burst of metric
//! operations with telemetry disabled must perform **zero** heap
//! allocations.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide. The count, though, is per
//! thread: the test harness allocates on its own threads while the test
//! runs, and those allocations say nothing about the metric ops.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocation calls made by the current thread. `const`-initialised
    /// and without a destructor, so reading it never allocates.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` cannot fail for a const, destructor-free thread-local;
    // it keeps the allocator panic-free regardless.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

fn allocs_on_this_thread() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

// SAFETY: delegates verbatim to `System`; the counter is a thread-local
// cell that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn disabled_telemetry_hot_loop_allocates_nothing() {
    // Warm up: intern the metrics once (registration may allocate).
    telemetry::set_enabled(true);
    let c = telemetry::metrics::counter("alloc.test.counter", true);
    let g = telemetry::metrics::gauge("alloc.test.gauge", true);
    let h = telemetry::metrics::histogram("alloc.test.hist", false);
    let s = telemetry::metrics::sketch("alloc.test.sketch", false);
    c.add(1);
    g.set(0.5);
    h.record(7);
    h.record_f64(3.5);
    s.record(125);

    telemetry::set_enabled(false);
    let before = allocs_on_this_thread();
    for i in 0..100_000u64 {
        c.add(i);
        c.inc();
        g.set(i as f64);
        h.record(i);
        h.record_f64(i as f64 * 0.25);
        s.record(i);
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "disabled-telemetry metric ops must not touch the heap"
    );

    // The enabled path on already-interned metrics is also allocation-free
    // (pure atomics) — keeps the overhead story honest when telemetry is on.
    telemetry::set_enabled(true);
    let before = allocs_on_this_thread();
    for i in 0..100_000u64 {
        c.add(i);
        g.set(i as f64);
        h.record(i);
        // The serve-latency sketch records on every request; it must be
        // pure atomics too (the ≤2% serve-overhead budget assumes it).
        s.record(i);
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "enabled metric ops on interned metrics must not touch the heap"
    );
    telemetry::set_enabled(false);
}
