//! Acceptance check: the telemetry-disabled hot path costs at most one
//! branch per event — no allocation, no formatting, no closure evaluation.
//!
//! A counting global allocator makes "no allocation" a hard assertion
//! rather than a code-review claim. It counts per thread: the calls under
//! test run synchronously on the test's own thread, so the harness's other
//! threads allocating concurrently cannot leak into a measured window, and
//! the tests need not run serially.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use telemetry::profile::Phase;
use telemetry::{Component, EventKind, Profiler, Recorder};

struct CountingAlloc;

thread_local! {
    // `const`-initialised, so touching it from inside the allocator never
    // allocates (no lazy initialisation, no destructor registration).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread already tearing down its locals has nothing to measure.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_recorder_allocates_nothing_and_runs_no_closures() {
    let rec = Recorder::disabled();
    let mut closure_runs = 0u64;

    let before = allocs();
    for i in 0..100_000u64 {
        rec.record(Component::Client, EventKind::ReadIssued, i, i * 64, 64);
        rec.record_with(|| {
            closure_runs += 1;
            // Would allocate if it ever ran.
            let s = format!("expensive {i}");
            (Component::Client, EventKind::Mark, 0, s.len() as u64, 0)
        });
    }
    let after = allocs();

    assert_eq!(closure_runs, 0, "disabled path must never run the closure");
    assert_eq!(
        after - before,
        0,
        "disabled path must not allocate (one branch per event, nothing else)"
    );
}

#[test]
fn disabled_profiler_allocates_nothing_per_scope_or_charge() {
    let prof = Profiler::disabled();

    let before = allocs();
    for i in 0..100_000u64 {
        // The one branch per scope; no clock read, no atomics, no heap.
        let _s = prof.scope(Phase::CowbirdPost);
        prof.charge(Phase::PostDoorbell, i);
        prof.set_now_ns(i);
    }
    let after = allocs();

    assert_eq!(
        after - before,
        0,
        "disabled profiler must not allocate (one branch per scope, nothing else)"
    );
    assert!(!prof.is_enabled());
}

#[test]
fn enabled_profiler_hot_charging_does_not_allocate_either() {
    // Account construction allocates once up front; steady-state scopes and
    // charges are relaxed atomic adds only.
    let acct = std::sync::Arc::new(telemetry::CostAccount::new());
    let prof = Profiler::attached(std::sync::Arc::clone(&acct), 0, Component::Client, false);

    let before = allocs();
    for i in 0..100_000u64 {
        prof.set_now_ns(i);
        let _s = prof.scope(Phase::CowbirdPoll);
        prof.charge(Phase::LocalAccess, 60);
    }
    let after = allocs();
    assert_eq!(after - before, 0, "steady-state charging must not allocate");
    assert_eq!(acct.phase_count(Phase::CowbirdPoll), 100_000);
    assert_eq!(acct.phase_ns(Phase::LocalAccess), 6_000_000);
}

#[test]
fn enabled_recorder_hot_record_does_not_allocate_either() {
    // Ring construction allocates once up front; steady-state record()
    // into the ring is allocation-free even when enabled.
    let ring = std::sync::Arc::new(telemetry::EventRing::with_capacity(1024));
    let rec = Recorder::attached(ring, 0, false);

    let before = allocs();
    for i in 0..100_000u64 {
        rec.set_now_ns(i);
        rec.record(Component::Client, EventKind::WriteIssued, i, i, 8);
    }
    let after = allocs();
    assert_eq!(after - before, 0, "steady-state record() must not allocate");
    assert_eq!(rec.snapshot().len(), 1024);
}
