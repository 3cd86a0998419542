//! The kernel's zero-alloc claim, measured with a counting allocator.
//!
//! `lib.rs` promises that steady state allocates nothing per event: timer
//! wheel entries recycle through a slab, the command buffer is reused across
//! dispatches, link delivery queues keep their capacity, and packet payloads
//! borrow from a [`simnet::pool::BufArena`]. This test drives both hot paths
//! — wheel timers and packet ping-pong over a link — past warmup and then
//! asserts the whole process performs **zero heap allocations** over a
//! measured window of tens of thousands of events.
//!
//! The allocation counter is a process-global `#[global_allocator]`, so this
//! file holds exactly one test: the quiet window is only meaningful while no
//! sibling test thread is allocating.

mod common;

use std::sync::atomic::Ordering;

use common::{CountingAlloc, ALLOCS};
use simnet::time::Instant;

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_processes_events_without_allocating() {
    let mut sim = common::ping_pong(7);

    // Warmup: grow every sticky capacity (wheel slab, command buffer, link
    // queues, payload arenas) and let the first-touch arena misses happen.
    sim.run_until(Some(Instant(200_000)));
    let warm_events = sim.events_processed();
    assert!(warm_events > 100, "warmup must process events");

    // Measured window: tens of thousands of timer and delivery events, all
    // served from recycled storage.
    let before = ALLOCS.load(Ordering::Relaxed);
    sim.run_until(Some(Instant(20_000_000)));
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let events = sim.events_processed() - warm_events;

    assert!(events > 20_000, "window too small: {events} events");
    assert_eq!(
        allocs, 0,
        "steady state must not allocate: {allocs} allocations over {events} events"
    );
}
