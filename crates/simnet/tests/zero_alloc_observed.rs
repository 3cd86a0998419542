//! The kernel's zero-alloc claim with the observability plane on.
//!
//! `zero_alloc.rs` measures the plain kernel; this file runs the same
//! ping-pong with scheduler metrics, a provenance ring and a wall-clock
//! self-profiler attached. Their storage is sized when they are enabled
//! (histograms, the ring) and the self-profile is tallied in the kernel and
//! flushed without allocating, so the measured window must still perform
//! **zero heap allocations**.
//!
//! The allocation counter is a process-global `#[global_allocator]`, so this
//! file holds exactly one test: the quiet window is only meaningful while no
//! sibling test thread is allocating.

mod common;

use std::sync::atomic::Ordering;
use std::sync::Arc;

use common::{CountingAlloc, ALLOCS};
use simnet::time::Instant;
use telemetry::{Component, CostAccount, Phase, Profiler};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn observed_steady_state_processes_events_without_allocating() {
    let mut sim = common::ping_pong(7);
    sim.enable_scheduler_metrics();
    sim.enable_provenance(1 << 14);
    let account = Arc::new(CostAccount::default());
    sim.attach_self_profiler(Profiler::attached(
        Arc::clone(&account),
        u16::MAX,
        Component::Sim,
        true,
    ));

    // Warmup: grow every sticky capacity and take the first-touch misses.
    sim.run_until(Some(Instant(200_000)));
    let warm_events = sim.events_processed();
    assert!(warm_events > 100, "warmup must process events");

    // Measured window, in slices so the self-profile flushes many times.
    let before = ALLOCS.load(Ordering::Relaxed);
    for slice in 1..=100u64 {
        sim.run_until(Some(Instant(200_000 + slice * 198_000)));
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let events = sim.events_processed() - warm_events;

    assert!(events > 20_000, "window too small: {events} events");
    assert!(sim.scheduler_metrics().queue_depth().count() > events);
    assert!(account.phase_count(Phase::SchedPop) > events);
    assert_eq!(
        allocs, 0,
        "observed steady state must not allocate: {allocs} allocations over {events} events"
    );
}
