//! Slicing a run loses nothing from the kernel's self-observation.
//!
//! The kernel tallies its self-profile locally and flushes it into the
//! profiler's account when `run_until` returns. `sim_throughput` drives its
//! lanes in many short `run_until(deadline)` slices, so this test runs one
//! seed twice — once to completion in a single call, once in slices — and
//! asserts both report the same dispatch and device visits and
//! allocations, and the same fired, cancelled and dwell counts. Pop visits
//! differ only by the empty pop that ends each call.
//!
//! Allocations are counted by `telemetry`'s `TallyAlloc`, a process-global
//! allocator, so this file holds exactly one test.

use std::sync::Arc;

use simnet::introspect::EventClass;
use simnet::{Ctx, Duration, FaultScript, Instant, LinkParams, Node, NodeId, Packet, Sim};
use telemetry::{Component, CostAccount, Phase, Profiler};

#[global_allocator]
static ALLOC: telemetry::profile::TallyAlloc = telemetry::profile::TallyAlloc;

/// Sends `left` beacons, one per `period`, each with a freshly allocated
/// payload, so dispatch allocates a known amount per event.
struct Beacon {
    peer: NodeId,
    period: Duration,
    left: u32,
}

impl Node for Beacon {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.period, 0);
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx) {}
    fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx) {
        let id = ctx.node_id();
        ctx.send(Packet::new(id, self.peer, 100, vec![0u8; 64]));
        self.left -= 1;
        if self.left > 0 {
            ctx.set_timer(self.period, 0);
        }
    }
}

/// Echoes every packet back after a think time.
struct Echo {
    think: Duration,
    pending: Vec<Packet>,
}

impl Node for Echo {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        self.pending.push(pkt);
        ctx.set_timer(self.think, 0);
    }
    fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx) {
        if let Some(pkt) = self.pending.pop() {
            let back = Packet::new(ctx.node_id(), pkt.src, pkt.wire_bytes, pkt.payload);
            ctx.send(back);
        }
    }
}

/// The rig with every observer on: the echo node is down for part of the
/// run, so deliveries and timers are cancelled as well as fired.
fn rig(account: &Arc<CostAccount>) -> Sim {
    let mut sim = Sim::new(41);
    sim.enable_scheduler_metrics();
    sim.enable_provenance(1 << 12);
    sim.attach_self_profiler(Profiler::attached(
        Arc::clone(account),
        u16::MAX,
        Component::Sim,
        true,
    ));
    let beacon = sim.add_node(Box::new(Beacon {
        peer: NodeId(1),
        period: Duration::from_nanos(900),
        left: 400,
    }));
    let echo = sim.add_node(Box::new(Echo {
        think: Duration::from_nanos(150),
        pending: Vec::new(),
    }));
    sim.connect(beacon, echo, LinkParams::rack_100g());
    sim.apply_fault_script(&FaultScript::new().node_outage(
        echo,
        Instant(100_000),
        Instant(130_000),
    ));
    sim
}

#[test]
fn sliced_runs_report_what_one_run_reports() {
    let whole_acct = Arc::new(CostAccount::default());
    let mut whole = rig(&whole_acct);
    whole.run();

    let sliced_acct = Arc::new(CostAccount::default());
    let mut sliced = rig(&sliced_acct);
    let mut calls = 0u64;
    let mut deadline = 0;
    while sliced.events_processed() < whole.events_processed() {
        deadline += 2_500;
        sliced.run_until(Some(Instant(deadline)));
        calls += 1;
    }
    // One more call finds the queue empty.
    sliced.run();
    calls += 1;
    assert!(calls > 100, "only {calls} slices");
    assert_eq!(sliced.events_processed(), whole.events_processed());

    for phase in [Phase::SchedDispatch, Phase::SchedDevice] {
        assert_eq!(
            sliced_acct.phase_count(phase),
            whole_acct.phase_count(phase),
            "{} visits",
            phase.name()
        );
        assert_eq!(
            sliced_acct.phase_allocs(phase),
            whole_acct.phase_allocs(phase),
            "{} allocations",
            phase.name()
        );
    }
    // Dispatch allocates at least each beacon's payload.
    assert!(whole_acct.phase_allocs(Phase::SchedDispatch) >= 400);
    // Every call ends with one empty pop; the single run made one.
    assert_eq!(
        sliced_acct.phase_count(Phase::SchedPop) - calls,
        whole_acct.phase_count(Phase::SchedPop) - 1
    );
    assert_eq!(
        whole_acct.phase_count(Phase::SchedPop),
        whole.events_processed() + 1
    );

    let (w, s) = (whole.scheduler_metrics(), sliced.scheduler_metrics());
    assert!(
        w.cancelled(EventClass::Deliver) > 0,
        "the outage cancels deliveries"
    );
    for class in EventClass::ALL {
        let name = class.name();
        assert_eq!(s.fired(class), w.fired(class), "{name} fired");
        assert_eq!(s.cancelled(class), w.cancelled(class), "{name} cancelled");
        assert_eq!(
            s.dwell_virtual(class).count(),
            w.dwell_virtual(class).count(),
            "{name} virtual dwell count"
        );
        assert_eq!(
            s.dwell_wall(class).count(),
            w.dwell_wall(class).count(),
            "{name} wall dwell count"
        );
        assert_eq!(
            s.dwell_virtual_total(class),
            w.dwell_virtual_total(class),
            "{name} virtual dwell total"
        );
    }
}
