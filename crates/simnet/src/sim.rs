//! The discrete-event kernel: nodes, packets, timers, and the event loop.
//!
//! Nodes never hold a reference to the simulator; they receive a [`Ctx`]
//! command buffer whose effects (sends, timers, stop) the kernel applies after
//! the callback returns. This keeps the ownership story trivial and the event
//! order fully deterministic: ties in time are broken by insertion sequence.
//!
//! The event queue is a hierarchical timer wheel ([`crate::wheel`]) whose
//! firing order is bit-identical to the binary heap it replaced — deadlines
//! ascending, ties in insertion order. A reference `BinaryHeap` scheduler is
//! kept behind the `ref-heap` feature so the determinism proptest can replay
//! random workloads against both and assert identical traces. The hot path
//! is allocation-free in steady state: wheel entries live in a recycled
//! slab, packet payloads are arena-pooled ([`crate::pool`]), the `Ctx`
//! command buffer is reused across dispatches, and links batch their
//! deliveries through one sweep event instead of carrying packets through
//! the scheduler.

use crate::fasthash::FastHashMap;
use std::any::Any;
#[cfg(feature = "ref-heap")]
use std::cmp::Reverse;
#[cfg(feature = "ref-heap")]
use std::collections::BinaryHeap;

use telemetry::{EventKind, Phase};

use crate::fault::{FaultEvent, FaultScript, FaultStats};
use crate::introspect::{EventClass, SchedulerMetrics};
use crate::link::{Link, LinkId, LinkParams, LinkStats};
use crate::pool::PoolBuf;
use crate::provenance::{EventOutcome, ProvenanceLog, ProvenanceRecord};
use crate::rng::Rng;
use crate::time::{Duration, Instant};
use crate::trace::{pack_pkt, Trace};
use crate::wheel::TimerWheel;

/// Identifies a node within one [`Sim`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// A packet in flight. The payload is opaque bytes; protocol crates define
/// the wire format (simnet moves encoded bytes, smoltcp-style, so nothing can
/// leak between nodes except through the wire).
///
/// Payloads are [`PoolBuf`]s: protocol adapters borrow them from a
/// [`crate::pool::BufArena`] and the buffer returns to its arena wherever
/// the packet's journey ends — delivery, a link-fault drop, or a crashed
/// receiver. Plain `Vec<u8>` payloads still work via `Into<PoolBuf>`.
#[derive(Clone, Debug)]
pub struct Packet {
    pub src: NodeId,
    pub dst: NodeId,
    /// Strict priority, 0 (highest) ..= 7 (lowest).
    pub prio: u8,
    /// On-wire size in bytes (headers included). Drives serialization delay.
    pub wire_bytes: usize,
    /// Encoded payload (arena-recycled; see [`crate::pool`]).
    pub payload: PoolBuf,
    /// Free metadata lane for protocol adapters (not on the wire).
    pub meta: u64,
}

impl Packet {
    pub fn new(src: NodeId, dst: NodeId, wire_bytes: usize, payload: impl Into<PoolBuf>) -> Packet {
        Packet {
            src,
            dst,
            prio: 0,
            wire_bytes,
            payload: payload.into(),
            meta: 0,
        }
    }

    pub fn with_prio(mut self, prio: u8) -> Packet {
        self.prio = prio.min(7);
        self
    }

    pub fn with_meta(mut self, meta: u64) -> Packet {
        self.meta = meta;
        self
    }
}

/// Behaviour attached to a [`NodeId`].
///
/// The `Any` supertrait lets tests and experiments recover the concrete node
/// type after a run via [`Sim::node_as`].
pub trait Node: Any {
    /// A packet addressed to this node has been delivered.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx);
    /// A timer set earlier with [`Ctx::set_timer`] has fired.
    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx);
    /// Called once before the event loop starts; set initial timers here.
    fn on_start(&mut self, _ctx: &mut Ctx) {}
}

enum Cmd {
    Send(Packet),
    Timer(Duration, u64),
    Stop,
}

/// Command buffer handed to node callbacks.
pub struct Ctx<'a> {
    now: Instant,
    node: NodeId,
    rng: &'a mut Rng,
    trace: &'a mut Trace,
    cmds: Vec<Cmd>,
}

impl<'a> Ctx<'a> {
    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// The node this context belongs to.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Deterministic randomness (kernel stream; fork per node for isolation).
    pub fn rng(&mut self) -> &mut Rng {
        self.rng
    }

    /// Event trace sink.
    pub fn trace(&mut self) -> &mut Trace {
        self.trace
    }

    /// Transmit a packet. The source is forced to this node. Panics at apply
    /// time if no link exists toward `pkt.dst`.
    pub fn send(&mut self, mut pkt: Packet) {
        pkt.src = self.node;
        self.cmds.push(Cmd::Send(pkt));
    }

    /// Schedule `on_timer(tag)` on this node after `delay`.
    pub fn set_timer(&mut self, delay: Duration, tag: u64) {
        self.cmds.push(Cmd::Timer(delay, tag));
    }

    /// Request the event loop to stop after this callback.
    pub fn stop(&mut self) {
        self.cmds.push(Cmd::Stop);
    }
}

/// Scheduled work. Packets are *not* carried through the scheduler: a link
/// that finishes a delivery parks the packet in its own delivery queue and a
/// `LinkDeliver` sweep drains everything due — so entries stay a few words
/// wide and a burst of simultaneous deliveries costs one event.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// Sweep the link's pending deliveries up to the current time.
    LinkDeliver(usize),
    Timer(NodeId, u64),
    /// A transmission on a directional link has finished serializing.
    LinkTxDone(usize),
    /// A scheduled fault (node crash/restart, link down/up) takes effect.
    Fault(FaultEvent),
}

impl Event {
    /// The dense per-class index for scheduler metrics and provenance.
    fn class(&self) -> EventClass {
        match self {
            Event::LinkDeliver(_) => EventClass::Deliver,
            Event::Timer(..) => EventClass::Timer,
            Event::LinkTxDone(_) => EventClass::LinkTxDone,
            Event::Fault(_) => EventClass::Fault,
        }
    }
}

/// Everything the kernel needs back when an event fires.
struct Scheduled {
    ev: Event,
    /// Unique nonzero event id (`seq + 1`); provenance keys on this.
    id: u64,
    /// Virtual time the event was pushed (schedule→fire dwell baseline).
    scheduled_at: Instant,
    /// Wall stamp at push, taken only while scheduler metrics are enabled
    /// (0 otherwise — never used on the disabled path). Inside the event
    /// loop it is the [`WallChain`] stamp that opened the running handler.
    wall_pushed_ns: u64,
}

/// The kernel's wall-clock bookkeeping while the observability plane is on.
///
/// `run_until` reads the clock once when it starts, once when an event
/// leaves the queue, and once when each handler returns; every wall figure
/// the kernel reports is a difference of two of these chained stamps. The
/// self-profile is tallied here and reaches the profiler's
/// [`telemetry::CostAccount`] once, when `run_until` returns.
#[derive(Default)]
struct WallChain {
    /// The latest stamp while `run_until` runs with the plane on; 0
    /// otherwise, so a push between runs knows to read its own.
    at_ns: u64,
    /// The process allocation counter at `at_ns` (self-profiling only).
    allocs: u64,
    /// Per phase (only the kernel's three are charged), what is not yet
    /// flushed to the self-profiler's account.
    tally: [PhaseTally; telemetry::PHASE_COUNT],
    /// Every wall-clock read the kernel has taken.
    reads: u64,
}

/// One kernel phase's unflushed self-profile.
#[derive(Clone, Copy, Default)]
struct PhaseTally {
    ns: u64,
    visits: u64,
    allocs: u64,
}

#[cfg(feature = "ref-heap")]
struct RefHeapEntry {
    at: u64,
    seq: u64,
    sched: Scheduled,
}

#[cfg(feature = "ref-heap")]
impl PartialEq for RefHeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
#[cfg(feature = "ref-heap")]
impl Eq for RefHeapEntry {}
#[cfg(feature = "ref-heap")]
impl PartialOrd for RefHeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
#[cfg(feature = "ref-heap")]
impl Ord for RefHeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The event queue: a timer wheel in production, with the old binary heap
/// kept behind `ref-heap` as the ordering oracle for the determinism
/// proptest. Both pop in `(at, seq)` order — see [`crate::wheel`].
enum EventQueue {
    Wheel(TimerWheel<Scheduled>),
    #[cfg(feature = "ref-heap")]
    RefHeap(BinaryHeap<Reverse<RefHeapEntry>>),
}

impl EventQueue {
    fn push(&mut self, at: u64, seq: u64, sched: Scheduled) {
        match self {
            EventQueue::Wheel(w) => {
                let _ = seq; // the wheel counts pushes itself
                w.push(at, sched);
            }
            #[cfg(feature = "ref-heap")]
            EventQueue::RefHeap(h) => h.push(Reverse(RefHeapEntry { at, seq, sched })),
        }
    }

    /// Pop the earliest entry with `at <= limit`; `None` otherwise.
    fn pop_before(&mut self, limit: u64) -> Option<(u64, Scheduled)> {
        match self {
            EventQueue::Wheel(w) => w.pop_before(limit),
            #[cfg(feature = "ref-heap")]
            EventQueue::RefHeap(h) => match h.peek() {
                Some(Reverse(e)) if e.at <= limit => {
                    let Reverse(e) = h.pop().unwrap();
                    Some((e.at, e.sched))
                }
                _ => None,
            },
        }
    }

    /// O(1) occupancy — feeds the queue-depth gauge.
    fn len(&self) -> usize {
        match self {
            EventQueue::Wheel(w) => w.len(),
            #[cfg(feature = "ref-heap")]
            EventQueue::RefHeap(h) => h.len(),
        }
    }
}

/// The simulator: topology + nodes + event loop.
pub struct Sim {
    now: Instant,
    seq: u64,
    queue: EventQueue,
    nodes: Vec<Option<Box<dyn Node>>>,
    started: Vec<bool>,
    /// `true` while a node is crashed by a fault script.
    down: Vec<bool>,
    /// Side-effect counters for fault scripts.
    faults: FaultStats,
    /// Directional links, densely indexed; `route[(src, dst)]` -> link index.
    links: Vec<Link>,
    route: FastHashMap<(NodeId, NodeId), usize>,
    rng: Rng,
    trace: Trace,
    /// Cycle-attribution profilers stamped with virtual time before each
    /// dispatch to their node (sparse; most nodes are unprofiled).
    profilers: FastHashMap<NodeId, telemetry::Profiler>,
    /// The scheduler's own vital signs (queue depth, dwell, fired/cancelled).
    sched: SchedulerMetrics,
    /// Per-event provenance ring (parent links, `sim_why`, flow traces).
    prov: ProvenanceLog,
    /// Id of the event whose handler is currently running; pushes made
    /// inside it inherit this as their provenance parent (0 = root).
    current_cause: u64,
    /// Wall-clock profiler charging the kernel's own hot loop
    /// (pop / dispatch / device phases).
    self_prof: telemetry::Profiler,
    /// Chained wall stamps and the unflushed self-profile.
    chain: WallChain,
    /// Recycled command buffer handed to node callbacks: one allocation for
    /// the whole run instead of one per dispatch.
    cmd_scratch: Vec<Cmd>,
    stopped: bool,
    events_processed: u64,
    /// Hard cap to catch runaway simulations (0 = unlimited).
    pub max_events: u64,
}

impl Sim {
    /// Create a simulator with the given seed.
    pub fn new(seed: u64) -> Sim {
        Sim {
            now: Instant::ZERO,
            seq: 0,
            queue: EventQueue::Wheel(TimerWheel::new()),
            nodes: Vec::new(),
            started: Vec::new(),
            down: Vec::new(),
            faults: FaultStats::default(),
            links: Vec::new(),
            route: FastHashMap::default(),
            rng: Rng::new(seed),
            trace: Trace::disabled(),
            profilers: FastHashMap::default(),
            sched: SchedulerMetrics::disabled(),
            prov: ProvenanceLog::disabled(),
            current_cause: 0,
            self_prof: telemetry::Profiler::disabled(),
            chain: WallChain::default(),
            cmd_scratch: Vec::new(),
            stopped: false,
            events_processed: 0,
            max_events: 0,
        }
    }

    /// Swap the timer wheel for the reference `BinaryHeap` scheduler — the
    /// ordering oracle for the determinism proptest. Only valid on a fresh
    /// simulator (nothing scheduled yet).
    #[cfg(feature = "ref-heap")]
    pub fn use_reference_heap_scheduler(&mut self) {
        assert_eq!(self.seq, 0, "scheduler swapped after events were pushed");
        self.queue = EventQueue::RefHeap(BinaryHeap::new());
    }

    /// Enable event tracing (pcap-style text log of every tx/rx).
    pub fn enable_trace(&mut self) {
        self.trace = Trace::enabled();
    }

    /// Take the accumulated trace lines.
    pub fn take_trace(&mut self) -> Vec<String> {
        self.trace.take()
    }

    /// Structured view of the trace ring (empty when tracing is off). Does
    /// not drain; [`Sim::take_trace`] still sees the same events.
    pub fn trace_events(&self) -> Vec<telemetry::Event> {
        self.trace.events()
    }

    /// Register a node; returns its id. Ids are assigned in insertion order
    /// starting from 0.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(node));
        self.started.push(false);
        self.down.push(false);
        id
    }

    /// Add a *directional* link `src -> dst`.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId, params: LinkParams) -> LinkId {
        let idx = self.links.len();
        self.links.push(Link::new(src, dst, params));
        self.route.insert((src, dst), idx);
        LinkId(idx)
    }

    /// Add a symmetric bidirectional link; returns (forward, reverse) ids.
    pub fn connect(&mut self, a: NodeId, b: NodeId, params: LinkParams) -> (LinkId, LinkId) {
        let f = self.add_link(a, b, params.clone());
        let r = self.add_link(b, a, params);
        (f, r)
    }

    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Utilization and drop statistics for a link.
    pub fn link_stats(&self, id: LinkId) -> &LinkStats {
        self.links[id.0].stats()
    }

    /// Side-effect counters for fault scripts.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
    }

    /// Attach a cycle-attribution profiler to a node. The kernel stamps the
    /// profiler's virtual clock ([`telemetry::Profiler::set_now_ns`]) with
    /// the simulation time before every callback on that node, so
    /// [`telemetry::CycleScope`]s opened inside `on_packet`/`on_timer` charge
    /// virtual nanoseconds consistent with the event loop. Attaching a
    /// disabled profiler removes the entry (no per-event overhead).
    pub fn attach_profiler(&mut self, node: NodeId, prof: telemetry::Profiler) {
        if prof.is_enabled() {
            self.profilers.insert(node, prof);
        } else {
            self.profilers.remove(&node);
        }
    }

    /// Attach a wall-clock profiler charging the kernel's own hot loop:
    /// queue pops ([`telemetry::Phase::SchedPop`]), node dispatch
    /// ([`telemetry::Phase::SchedDispatch`]), and device bookkeeping
    /// ([`telemetry::Phase::SchedDevice`]). The kernel charges wall time
    /// whatever the profiler's clock mode; pass a wall-mode profiler
    /// (`Profiler::attached(.., wall = true)`). Charges are tallied inside
    /// [`Sim::run_until`] and reach the profiler's account when it
    /// returns. A disabled profiler (the default) costs a single branch
    /// per phase transition.
    pub fn attach_self_profiler(&mut self, prof: telemetry::Profiler) {
        self.self_prof = prof;
    }

    /// Turn on scheduler introspection: queue-depth sampling per dispatch
    /// sweep, per-class fired/cancelled counters, and schedule→fire dwell
    /// histograms in virtual and wall time.
    pub fn enable_scheduler_metrics(&mut self) {
        self.sched = SchedulerMetrics::enabled();
    }

    /// The scheduler's self-metrics (all-zero while disabled).
    pub fn scheduler_metrics(&self) -> &SchedulerMetrics {
        &self.sched
    }

    /// Wall-clock reads the kernel has taken for scheduler metrics and the
    /// self-profiler: the observability plane's price, 0 while it is off.
    pub fn wall_clock_reads(&self) -> u64 {
        self.chain.reads
    }

    /// Turn on event provenance with a ring retaining the most recent
    /// `capacity` events (`capacity` must be a power of two).
    pub fn enable_provenance(&mut self, capacity: usize) {
        self.prov = ProvenanceLog::enabled(capacity);
    }

    /// The provenance ring (empty while disabled).
    pub fn provenance(&self) -> &ProvenanceLog {
        &self.prov
    }

    /// Why did event `id` fire? The causal chain from the event back to
    /// its root (an `on_start` send, an external fault, or the ring's
    /// retention horizon), newest first.
    pub fn sim_why(&self, id: u64) -> Vec<ProvenanceRecord> {
        self.prov.why(id)
    }

    /// Render the provenance ring as parent-linked flow spans for
    /// [`telemetry::flow::flow_trace_json`]: one slice per retired event
    /// covering its queue dwell, pid = node, tid = event class.
    pub fn flow_spans(&self) -> Vec<telemetry::FlowSpan> {
        self.prov
            .records()
            .into_iter()
            .filter(|r| r.outcome != EventOutcome::Pending)
            .map(|r| telemetry::FlowSpan {
                id: r.id,
                parent: r.parent,
                name: r.class.name().to_string(),
                pid: r.node as u64,
                tid: r.class as u64,
                start_ns: r.scheduled_ns,
                end_ns: r.fire_ns,
            })
            .collect()
    }

    /// Whether `id` is currently crashed by a fault script.
    pub fn node_is_down(&self, id: NodeId) -> bool {
        self.down[id.0 as usize]
    }

    /// Schedule a single fault. `at` must not be in the simulated past.
    pub fn schedule_fault(&mut self, at: Instant, ev: FaultEvent) {
        assert!(at >= self.now, "fault scheduled in the past");
        match ev {
            FaultEvent::NodeDown(n) | FaultEvent::NodeUp(n) => {
                assert!((n.0 as usize) < self.nodes.len(), "fault on unknown node");
            }
            FaultEvent::LinkDown(l) | FaultEvent::LinkUp(l) | FaultEvent::LinkJitter(l, _) => {
                assert!(l.0 < self.links.len(), "fault on unknown link");
            }
        }
        self.push(at, Event::Fault(ev));
    }

    /// Schedule every event of a fault script.
    pub fn apply_fault_script(&mut self, script: &FaultScript) {
        for &(at, ev) in script.events() {
            self.schedule_fault(at, ev);
        }
    }

    fn apply_fault(&mut self, ev: FaultEvent) {
        self.faults.faults_applied += 1;
        match ev {
            FaultEvent::NodeDown(n) => {
                self.trace
                    .event(self.now, n.0 as u16, EventKind::NodeDown, 0, 0, 0);
                self.down[n.0 as usize] = true;
            }
            FaultEvent::NodeUp(n) => {
                self.trace
                    .event(self.now, n.0 as u16, EventKind::NodeUp, 0, 0, 0);
                if std::mem::replace(&mut self.down[n.0 as usize], false) {
                    // Thaw: re-run on_start so the node can re-arm timers
                    // (everything it had scheduled was dropped while down).
                    self.dispatch(n, |node, ctx| node.on_start(ctx));
                }
            }
            FaultEvent::LinkDown(l) => {
                self.trace
                    .event(self.now, 0, EventKind::LinkDown, 0, l.0 as u64, 0);
                self.links[l.0].set_up(false);
            }
            FaultEvent::LinkUp(l) => {
                self.trace
                    .event(self.now, 0, EventKind::LinkUp, 0, l.0 as u64, 0);
                self.links[l.0].set_up(true);
            }
            FaultEvent::LinkJitter(l, max_extra_ns) => {
                self.trace.event(
                    self.now,
                    0,
                    EventKind::LinkJitter,
                    0,
                    l.0 as u64,
                    max_extra_ns,
                );
                self.links[l.0].set_jitter(max_extra_ns);
            }
        }
    }

    fn push(&mut self, at: Instant, ev: Event) {
        let seq = self.seq;
        self.seq += 1;
        let id = seq + 1;
        // Wall stamp only while dwell tracking wants it: the disabled path
        // stays free of clock reads. Inside `run_until` the running
        // handler's opening stamp serves; a push between runs reads its own.
        let wall_pushed_ns = if self.sched.is_enabled() {
            match self.chain.at_ns {
                0 => self.wall_read(),
                at => at,
            }
        } else {
            0
        };
        if self.prov.is_enabled() {
            let (node, meta) = match &ev {
                Event::LinkDeliver(idx) => {
                    let link = &self.links[*idx];
                    (link.dst().0 as u16, link.pending_head_meta())
                }
                Event::Timer(node, tag) => (node.0 as u16, *tag),
                Event::LinkTxDone(idx) => (self.links[*idx].src().0 as u16, *idx as u64),
                Event::Fault(fe) => match fe {
                    FaultEvent::NodeDown(n) | FaultEvent::NodeUp(n) => (n.0 as u16, 0),
                    FaultEvent::LinkDown(l) | FaultEvent::LinkUp(l) => (0, l.0 as u64),
                    FaultEvent::LinkJitter(l, _) => (0, l.0 as u64),
                },
            };
            self.prov.on_scheduled(ProvenanceRecord {
                id,
                parent: self.current_cause,
                class: ev.class(),
                node,
                meta,
                scheduled_ns: self.now.nanos(),
                fire_ns: 0,
                outcome: EventOutcome::Pending,
            });
        }
        self.queue.push(
            at.nanos(),
            seq,
            Scheduled {
                ev,
                id,
                scheduled_at: self.now,
                wall_pushed_ns,
            },
        );
    }

    /// Run a node callback and apply the resulting commands. Returns false
    /// when the node was removed (the event is cancelled).
    fn dispatch<F>(&mut self, node_id: NodeId, f: F) -> bool
    where
        F: FnOnce(&mut dyn Node, &mut Ctx),
    {
        let mut node = match self.nodes[node_id.0 as usize].take() {
            Some(n) => n,
            // Node removed; drop the event.
            None => return false,
        };
        if !self.profilers.is_empty() {
            if let Some(prof) = self.profilers.get(&node_id) {
                prof.set_now_ns(self.now.nanos());
            }
        }
        let mut ctx = Ctx {
            now: self.now,
            node: node_id,
            rng: &mut self.rng,
            trace: &mut self.trace,
            // Recycled: commands never nest (applying one cannot re-enter a
            // node callback), so one scratch buffer serves every dispatch.
            cmds: std::mem::take(&mut self.cmd_scratch),
        };
        f(node.as_mut(), &mut ctx);
        let mut cmds = ctx.cmds;
        self.nodes[node_id.0 as usize] = Some(node);
        for cmd in cmds.drain(..) {
            match cmd {
                Cmd::Send(pkt) => self.start_send(pkt),
                Cmd::Timer(delay, tag) => {
                    let at = self.now + delay;
                    self.push(at, Event::Timer(node_id, tag));
                }
                Cmd::Stop => self.stopped = true,
            }
        }
        self.cmd_scratch = cmds;
        true
    }

    fn start_send(&mut self, pkt: Packet) {
        let idx = *self
            .route
            .get(&(pkt.src, pkt.dst))
            .unwrap_or_else(|| panic!("no link {:?} -> {:?}", pkt.src, pkt.dst));
        self.trace.event(
            self.now,
            pkt.src.0 as u16,
            EventKind::PktTx,
            0,
            pack_pkt(pkt.dst.0, pkt.wire_bytes, pkt.prio),
            pkt.meta,
        );
        let link = &mut self.links[idx];
        if let Some(done_at) = link.enqueue(self.now, pkt, &mut self.rng) {
            self.push(done_at, Event::LinkTxDone(idx));
        }
    }

    fn link_tx_done(&mut self, idx: usize) {
        let link = &mut self.links[idx];
        let (finished, next_done) = link.tx_done(self.now, &mut self.rng);
        if let Some(done_at) = next_done {
            self.push(done_at, Event::LinkTxDone(idx));
        }
        if let Some((pkt, deliver_at)) = finished {
            if self.links[idx].queue_delivery(deliver_at, pkt) {
                self.push(deliver_at, Event::LinkDeliver(idx));
            }
        }
    }

    /// Drain every due pending delivery on the link and dispatch the
    /// packets. Returns `fired`: the sweep landed a packet, scheduled its
    /// successor, or had nothing to do (a benign duplicate); `false`
    /// (cancelled) only when packets existed and every one was discarded
    /// (crashed receiver) with no follow-up work — provenance requires that
    /// any event with children retired as fired.
    fn link_deliver(&mut self, idx: usize, profiling: bool) -> bool {
        self.links[idx].begin_sweep(self.now);
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        while let Some(pkt) = self.links[idx].pop_due(self.now) {
            let dst = pkt.dst;
            if self.down[dst.0 as usize] {
                self.faults.deliveries_dropped += 1;
                dropped += 1;
                continue;
            }
            self.trace.event(
                self.now,
                dst.0 as u16,
                EventKind::PktRx,
                0,
                pack_pkt(pkt.src.0, pkt.wire_bytes, pkt.prio),
                pkt.meta,
            );
            if self.dispatch(dst, |n, ctx| n.on_packet(pkt, ctx)) {
                delivered += 1;
            } else {
                dropped += 1;
            }
            if profiling {
                self.lap(Phase::SchedDispatch, 1);
            }
        }
        let mut rescheduled = false;
        if let Some(at) = self.links[idx].end_sweep() {
            self.push(at, Event::LinkDeliver(idx));
            rescheduled = true;
        }
        delivered > 0 || dropped == 0 || rescheduled
    }

    /// Read the wall clock for the observability plane. Every kernel read
    /// goes through here, so [`Sim::wall_clock_reads`] counts them all. A
    /// stamp is never 0, which marks an unstamped event.
    fn wall_read(&mut self) -> u64 {
        self.chain.reads += 1;
        telemetry::wall_now_ns().max(1)
    }

    /// Charge the interval since the chain's last stamp, and the
    /// allocations made in it, to `phase` as `visits` visits; `now_ns`
    /// becomes the chain's stamp.
    fn charge(&mut self, phase: Phase, visits: u64, now_ns: u64) {
        let allocs = telemetry::profile::allocs_now();
        let c = &mut self.chain;
        let t = &mut c.tally[phase as usize];
        t.ns += now_ns.saturating_sub(c.at_ns);
        t.visits += visits;
        t.allocs += allocs.saturating_sub(c.allocs);
        c.at_ns = now_ns;
        c.allocs = allocs;
    }

    /// Stamp the clock and charge the interval it closes to `phase`.
    fn lap(&mut self, phase: Phase, visits: u64) {
        let now = self.wall_read();
        self.charge(phase, visits, now);
    }

    /// Run until the event queue drains, a node calls [`Ctx::stop`], or
    /// `deadline` (if any) is reached. Returns the final virtual time.
    pub fn run_until(&mut self, deadline: Option<Instant>) -> Instant {
        let profiling = self.self_prof.is_enabled();
        // The plane reads the clock only while something consumes stamps:
        // the self-profiler (phase times) or scheduler metrics (dwell).
        let stamping = profiling || self.sched.is_enabled();
        if stamping {
            self.chain.at_ns = self.wall_read();
            self.chain.allocs = telemetry::profile::allocs_now();
        }
        // Fire on_start for nodes that have not started yet.
        let mut starts = 0;
        for i in 0..self.nodes.len() {
            if !self.started[i] {
                self.started[i] = true;
                self.dispatch(NodeId(i as u32), |n, ctx| n.on_start(ctx));
                starts += 1;
            }
        }
        if profiling && starts > 0 {
            self.lap(Phase::SchedDispatch, starts);
        }
        let limit = deadline.map_or(u64::MAX, |d| d.nanos());
        while !self.stopped {
            // Queue drained or next event past the deadline (the wheel never
            // advances past `limit`, so later pushes stay legal either way).
            let Some((at_ns, entry)) = self.queue.pop_before(limit) else {
                if profiling {
                    // The empty pop that ends the run counts as a visit but
                    // is not timed: that would cost a read per call.
                    let at = self.chain.at_ns;
                    self.charge(Phase::SchedPop, 1, at);
                }
                break;
            };
            let popped_wall_ns = if stamping {
                if profiling {
                    self.lap(Phase::SchedPop, 1);
                } else {
                    self.chain.at_ns = self.wall_read();
                }
                self.chain.at_ns
            } else {
                0
            };
            debug_assert!(at_ns >= self.now.nanos(), "time went backwards");
            self.now = Instant(at_ns);
            self.events_processed += 1;
            if self.max_events != 0 && self.events_processed > self.max_events {
                panic!("simulation exceeded max_events = {}", self.max_events);
            }
            let class = entry.ev.class();
            // Depth the sweep observed after removing its event; sampled
            // before dispatch so the handler's own pushes don't skew it.
            let depth = self.queue.len() as u64;
            self.current_cause = entry.id;
            let fired = match entry.ev {
                Event::LinkDeliver(idx) => self.link_deliver(idx, profiling),
                Event::Timer(node, tag) => {
                    if self.down[node.0 as usize] {
                        self.faults.timers_dropped += 1;
                        false
                    } else {
                        let fired = self.dispatch(node, |n, ctx| n.on_timer(tag, ctx));
                        if profiling {
                            self.lap(Phase::SchedDispatch, 1);
                        }
                        fired
                    }
                }
                Event::LinkTxDone(idx) => {
                    self.link_tx_done(idx);
                    if profiling {
                        self.lap(Phase::SchedDevice, 1);
                    }
                    true
                }
                Event::Fault(ev) => {
                    self.apply_fault(ev);
                    if profiling {
                        self.lap(Phase::SchedDevice, 1);
                    }
                    true
                }
            };
            self.current_cause = 0;
            if self.sched.is_enabled() {
                let virt_dwell = self.now.nanos().saturating_sub(entry.scheduled_at.nanos());
                let wall_dwell = if entry.wall_pushed_ns == 0 {
                    0
                } else {
                    popped_wall_ns.saturating_sub(entry.wall_pushed_ns)
                };
                self.sched.note_depth(depth);
                self.sched.note_popped(class, fired, virt_dwell, wall_dwell);
            }
            if self.prov.is_enabled() {
                let outcome = if fired {
                    EventOutcome::Fired
                } else {
                    EventOutcome::Cancelled
                };
                self.prov.on_popped(entry.id, self.now.nanos(), outcome);
            }
        }
        if stamping {
            self.chain.at_ns = 0;
            self.flush_self_profile();
        }
        if let Some(d) = deadline {
            if self.now < d && !self.stopped {
                self.now = d;
            }
        }
        self.now
    }

    /// Move the tallied self-profile into the profiler's account.
    fn flush_self_profile(&mut self) {
        let Some(account) = self.self_prof.account() else {
            return;
        };
        for (phase, t) in Phase::ALL.into_iter().zip(&mut self.chain.tally) {
            if t.visits != 0 {
                account.add_batch(phase, t.ns, t.visits, t.allocs);
            }
            *t = PhaseTally::default();
        }
    }

    /// Run for a fixed span of virtual time.
    pub fn run_for(&mut self, span: Duration) -> Instant {
        let deadline = self.now + span;
        self.run_until(Some(deadline))
    }

    /// Run until the queue drains or a node stops the simulation.
    pub fn run(&mut self) -> Instant {
        self.run_until(None)
    }

    /// Mutable access to a node as its concrete type.
    ///
    /// Panics if the node was removed or is of a different type.
    pub fn node_as<T: Node>(&mut self, id: NodeId) -> &mut T {
        let node = self.nodes[id.0 as usize]
            .as_mut()
            .expect("node was removed");
        let any: &mut dyn Any = node.as_mut();
        any.downcast_mut::<T>().expect("node type mismatch")
    }

    /// Shared access to a node as its concrete type.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> &T {
        let node = self.nodes[id.0 as usize]
            .as_ref()
            .expect("node was removed");
        let any: &dyn Any = node.as_ref();
        any.downcast_ref::<T>().expect("node type mismatch")
    }

    /// Remove a node (future events addressed to it are discarded).
    pub fn remove_node(&mut self, id: NodeId) -> Option<Box<dyn Node>> {
        self.nodes[id.0 as usize].take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;

    /// Echoes every packet back to its source after a fixed think time.
    struct Echo {
        think: Duration,
        pending: Vec<Packet>,
        received: u64,
    }

    impl Node for Echo {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
            self.received += 1;
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

    /// Sends `count` packets at start; records delivery times of echoes.
    struct Pinger {
        peer: NodeId,
        count: u32,
        echoes: Vec<Instant>,
    }

    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for _ in 0..self.count {
                let id = ctx.node_id();
                ctx.send(Packet::new(id, self.peer, 100, vec![]));
            }
        }
        fn on_packet(&mut self, _pkt: Packet, ctx: &mut Ctx) {
            self.echoes.push(ctx.now());
        }
        fn on_timer(&mut self, _tag: u64, _ctx: &mut Ctx) {}
    }

    fn params_100g() -> LinkParams {
        LinkParams::new(100e9, Duration::from_nanos(500))
    }

    fn build_pair(sim: &mut Sim, count: u32, think: Duration) -> (NodeId, NodeId) {
        let pinger = sim.add_node(Box::new(Pinger {
            peer: NodeId(1),
            count,
            echoes: vec![],
        }));
        let echo = sim.add_node(Box::new(Echo {
            think,
            pending: vec![],
            received: 0,
        }));
        sim.connect(pinger, echo, params_100g());
        (pinger, echo)
    }

    #[test]
    fn ping_pong_round_trip_time() {
        let mut sim = Sim::new(1);
        let (pinger, _echo) = build_pair(&mut sim, 1, Duration::from_nanos(100));
        sim.run();
        // 100 B at 100 Gbps = 8 ns serialize, +500 ns prop, each way, +100 think.
        let p: &Pinger = sim.node_ref(pinger);
        assert_eq!(p.echoes.len(), 1);
        assert_eq!(p.echoes[0].nanos(), 2 * (8 + 500) + 100);
    }

    #[test]
    fn serialization_queues_back_to_back() {
        let mut sim = Sim::new(2);
        let (pinger, echo) = build_pair(&mut sim, 2, Duration::ZERO);
        sim.run();
        let e: &Echo = sim.node_ref(echo);
        assert_eq!(e.received, 2);
        let p: &Pinger = sim.node_ref(pinger);
        assert_eq!(p.echoes.len(), 2);
        assert!(p.echoes[1] > p.echoes[0]);
    }

    #[test]
    fn run_for_respects_deadline() {
        struct Metronome {
            ticks: u64,
        }
        impl Node for Metronome {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(Duration::from_micros(1), 0);
            }
            fn on_packet(&mut self, _p: Packet, _c: &mut Ctx) {}
            fn on_timer(&mut self, _t: u64, ctx: &mut Ctx) {
                self.ticks += 1;
                ctx.set_timer(Duration::from_micros(1), 0);
            }
        }
        let mut sim = Sim::new(3);
        let id = sim.add_node(Box::new(Metronome { ticks: 0 }));
        sim.run_for(Duration::from_micros(10));
        assert_eq!(sim.now().micros(), 10);
        assert_eq!(sim.node_ref::<Metronome>(id).ticks, 10);
        // A second run_for continues from where we stopped.
        sim.run_for(Duration::from_micros(5));
        assert_eq!(sim.now().micros(), 15);
        assert_eq!(sim.node_ref::<Metronome>(id).ticks, 15);
    }

    #[test]
    fn stop_halts_event_loop() {
        struct Stopper;
        impl Node for Stopper {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(Duration::from_nanos(10), 0);
                ctx.set_timer(Duration::from_nanos(20), 1);
            }
            fn on_packet(&mut self, _p: Packet, _c: &mut Ctx) {}
            fn on_timer(&mut self, tag: u64, ctx: &mut Ctx) {
                if tag == 0 {
                    ctx.stop();
                } else {
                    panic!("event after stop");
                }
            }
        }
        let mut sim = Sim::new(4);
        sim.add_node(Box::new(Stopper));
        let end = sim.run();
        assert_eq!(end.nanos(), 10);
    }

    #[test]
    fn deterministic_event_order() {
        let run = || {
            let mut sim = Sim::new(7);
            build_pair(&mut sim, 50, Duration::from_nanos(30));
            sim.run();
            sim.events_processed()
        };
        assert_eq!(run(), run());
    }

    /// Sends one packet to its peer every `period`, counting replies.
    struct Beacon {
        peer: NodeId,
        period: Duration,
        sent: u64,
        replies: u64,
    }

    impl Node for Beacon {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(self.period, 0);
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx) {
            self.replies += 1;
        }
        fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx) {
            self.sent += 1;
            let id = ctx.node_id();
            ctx.send(Packet::new(id, self.peer, 100, vec![]));
            ctx.set_timer(self.period, 0);
        }
    }

    #[test]
    fn node_outage_drops_traffic_then_recovers() {
        let mut sim = Sim::new(11);
        let beacon = sim.add_node(Box::new(Beacon {
            peer: NodeId(1),
            period: Duration::from_micros(1),
            sent: 0,
            replies: 0,
        }));
        let echo = sim.add_node(Box::new(Echo {
            think: Duration::ZERO,
            pending: vec![],
            received: 0,
        }));
        sim.connect(beacon, echo, params_100g());
        // Echo is dead for 30..60 us of a 100 us run.
        let script = FaultScript::new().node_outage(
            echo,
            Instant::ZERO + Duration::from_micros(30),
            Instant::ZERO + Duration::from_micros(60),
        );
        sim.apply_fault_script(&script);
        sim.run_for(Duration::from_micros(100));
        let b: &Beacon = sim.node_ref(beacon);
        assert_eq!(b.sent, 100);
        // Beacons sent in 30..60 us land inside the outage and are discarded;
        // replies to the 99/100 us beacons are still in flight at the
        // deadline. 98 answered beacons - 30 lost = 68 replies.
        assert_eq!(b.replies, 68);
        let stats = sim.fault_stats();
        assert_eq!(stats.faults_applied, 2);
        assert_eq!(stats.deliveries_dropped, 30);
        assert!(!sim.node_is_down(echo));
    }

    #[test]
    fn node_up_reruns_on_start() {
        struct Restarts {
            starts: u64,
        }
        impl Node for Restarts {
            fn on_start(&mut self, _ctx: &mut Ctx) {
                self.starts += 1;
            }
            fn on_packet(&mut self, _p: Packet, _c: &mut Ctx) {}
            fn on_timer(&mut self, _t: u64, _c: &mut Ctx) {}
        }
        let mut sim = Sim::new(12);
        let id = sim.add_node(Box::new(Restarts { starts: 0 }));
        sim.schedule_fault(
            Instant::ZERO + Duration::from_micros(1),
            FaultEvent::NodeDown(id),
        );
        sim.schedule_fault(
            Instant::ZERO + Duration::from_micros(2),
            FaultEvent::NodeUp(id),
        );
        sim.run_for(Duration::from_micros(5));
        assert_eq!(sim.node_ref::<Restarts>(id).starts, 2);
        // NodeUp on a node that is not down is a no-op (no extra on_start).
        sim.schedule_fault(
            Instant::ZERO + Duration::from_micros(6),
            FaultEvent::NodeUp(id),
        );
        sim.run_for(Duration::from_micros(5));
        assert_eq!(sim.node_ref::<Restarts>(id).starts, 2);
    }

    #[test]
    fn link_outage_loses_packets_in_window() {
        let mut sim = Sim::new(13);
        let beacon = sim.add_node(Box::new(Beacon {
            peer: NodeId(1),
            period: Duration::from_micros(1),
            sent: 0,
            replies: 0,
        }));
        let echo = sim.add_node(Box::new(Echo {
            think: Duration::ZERO,
            pending: vec![],
            received: 0,
        }));
        let (fwd, _rev) = sim.connect(beacon, echo, params_100g());
        let script = FaultScript::new().link_outage(
            fwd,
            Instant::ZERO + Duration::from_micros(20),
            Instant::ZERO + Duration::from_micros(40),
        );
        sim.apply_fault_script(&script);
        sim.run_for(Duration::from_micros(100));
        let b: &Beacon = sim.node_ref(beacon);
        assert_eq!(b.sent, 100);
        // Beacons offered at 20..40 us hit the dead link; replies to the
        // 99/100 us beacons are still in flight at the deadline.
        let lost = sim.link_stats(fwd).dropped_linkdown;
        assert_eq!(lost, 20);
        assert_eq!(b.replies, 98 - lost);
    }

    #[test]
    fn timers_of_down_node_are_discarded() {
        struct Ticker {
            ticks: u64,
        }
        impl Node for Ticker {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(Duration::from_micros(1), 0);
            }
            fn on_packet(&mut self, _p: Packet, _c: &mut Ctx) {}
            fn on_timer(&mut self, _t: u64, ctx: &mut Ctx) {
                self.ticks += 1;
                ctx.set_timer(Duration::from_micros(1), 0);
            }
        }
        let mut sim = Sim::new(14);
        let id = sim.add_node(Box::new(Ticker { ticks: 0 }));
        // Down at 3.5 us: the 4 us tick is dropped and the chain is broken,
        // so even after NodeUp re-arms via on_start, only the post-restart
        // ticks accrue.
        sim.schedule_fault(
            Instant::ZERO + Duration::from_nanos(3500),
            FaultEvent::NodeDown(id),
        );
        sim.schedule_fault(
            Instant::ZERO + Duration::from_micros(7),
            FaultEvent::NodeUp(id),
        );
        sim.run_for(Duration::from_micros(10));
        // 3 ticks before the crash (1, 2, 3 us) + 3 after restart (8, 9, 10 us).
        assert_eq!(sim.node_ref::<Ticker>(id).ticks, 6);
        assert_eq!(sim.fault_stats().timers_dropped, 1);
    }

    #[test]
    fn attached_profiler_clock_follows_virtual_time() {
        use telemetry::{CostAccount, Phase, Profiler};

        /// Samples its profiler's clock (via a scope's start stamp) on each
        /// timer tick; the kernel must have stamped virtual time already.
        struct Sampler {
            prof: Profiler,
            samples: Vec<u64>,
        }
        impl Node for Sampler {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(Duration::from_micros(1), 0);
            }
            fn on_packet(&mut self, _p: Packet, _c: &mut Ctx) {}
            fn on_timer(&mut self, _t: u64, ctx: &mut Ctx) {
                let scope = self.prof.scope(Phase::AppWork);
                self.samples.push(scope.start_ns());
                drop(scope);
                if self.samples.len() < 3 {
                    ctx.set_timer(Duration::from_micros(1), 0);
                }
            }
        }
        let account = std::sync::Arc::new(CostAccount::default());
        let prof = Profiler::attached(account.clone(), 0, telemetry::Component::Client, false);
        let mut sim = Sim::new(21);
        let id = sim.add_node(Box::new(Sampler {
            prof: prof.clone(),
            samples: vec![],
        }));
        sim.attach_profiler(id, prof);
        sim.run();
        let s: &Sampler = sim.node_ref(id);
        assert_eq!(s.samples, vec![1_000, 2_000, 3_000]);
        // Virtual time does not advance inside a callback, so the scopes
        // charged 0 ns but counted 3 visits.
        assert_eq!(account.phase_count(Phase::AppWork), 3);
        assert_eq!(account.phase_ns(Phase::AppWork), 0);
        // Attaching a disabled profiler removes the stamping entry.
        sim.attach_profiler(id, Profiler::disabled());
    }

    #[test]
    fn partial_partition_downs_only_listed_links() {
        let mut sim = Sim::new(22);
        let beacon = sim.add_node(Box::new(Beacon {
            peer: NodeId(1),
            period: Duration::from_micros(1),
            sent: 0,
            replies: 0,
        }));
        let echo = sim.add_node(Box::new(Echo {
            think: Duration::ZERO,
            pending: vec![],
            received: 0,
        }));
        let (fwd, rev) = sim.connect(beacon, echo, params_100g());
        // Only the forward direction is partitioned: the echo node keeps its
        // return path, but no beacons reach it during the window.
        let script = FaultScript::new().partial_partition(
            &[fwd],
            Instant::ZERO + Duration::from_micros(20),
            Instant::ZERO + Duration::from_micros(40),
        );
        sim.apply_fault_script(&script);
        sim.run_for(Duration::from_micros(100));
        let lost = sim.link_stats(fwd).dropped_linkdown;
        assert_eq!(lost, 20);
        assert_eq!(sim.link_stats(rev).dropped_linkdown, 0);
        let b: &Beacon = sim.node_ref(beacon);
        assert_eq!(b.replies, 98 - lost);
    }

    #[test]
    fn scheduler_metrics_count_fired_and_cancelled_events() {
        use crate::introspect::EventClass;

        let mut sim = Sim::new(31);
        sim.enable_scheduler_metrics();
        let beacon = sim.add_node(Box::new(Beacon {
            peer: NodeId(1),
            period: Duration::from_micros(1),
            sent: 0,
            replies: 0,
        }));
        let echo = sim.add_node(Box::new(Echo {
            think: Duration::ZERO,
            pending: vec![],
            received: 0,
        }));
        sim.connect(beacon, echo, params_100g());
        let script = FaultScript::new().node_outage(
            echo,
            Instant::ZERO + Duration::from_micros(30),
            Instant::ZERO + Duration::from_micros(60),
        );
        sim.apply_fault_script(&script);
        sim.run_for(Duration::from_micros(100));

        let m = sim.scheduler_metrics();
        // Same scenario as node_outage_drops_traffic_then_recovers: 30
        // delivery sweeps land on the crashed echo and are cancelled.
        assert_eq!(m.cancelled(EventClass::Deliver), 30);
        assert_eq!(m.fired(EventClass::Fault), 2);
        assert_eq!(m.cancelled(EventClass::Fault), 0);
        assert!(m.fired(EventClass::Deliver) > 0);
        assert!(m.fired(EventClass::Timer) > 0);
        assert!(m.fired(EventClass::LinkTxDone) > 0);
        // Every pop sampled the depth and recorded a dwell; the totals line
        // up with the kernel's event counter.
        let popped: u64 = EventClass::ALL
            .iter()
            .map(|&c| m.fired(c) + m.cancelled(c))
            .sum();
        assert_eq!(popped, sim.events_processed());
        assert_eq!(m.queue_depth().count(), sim.events_processed());
        // Beacon timers dwell their full 1 us period (echo's zero-think
        // timers dwell 0, so the max captures the beacon).
        assert_eq!(m.dwell_virtual(EventClass::Timer).max(), 1_000);
        assert!(m.dwell_virtual_total(EventClass::Timer) >= 100 * 1_000);
        // Wall dwell was stamped (nonzero count; values are machine-dependent).
        assert_eq!(
            m.dwell_wall(EventClass::Timer).count(),
            m.fired(EventClass::Timer) + m.cancelled(EventClass::Timer)
        );
    }

    #[test]
    fn sim_why_walks_from_echo_delivery_back_to_the_root_send() {
        use crate::introspect::EventClass;
        use crate::provenance::EventOutcome;

        let mut sim = Sim::new(32);
        sim.enable_provenance(1 << 12);
        let (pinger, _echo) = build_pair(&mut sim, 1, Duration::from_nanos(100));
        sim.run();
        let p: &Pinger = sim.node_ref(pinger);
        assert_eq!(p.echoes.len(), 1);

        // The last fired Deliver is the echo reply landing on the pinger.
        let records = sim.provenance().records();
        let reply = records
            .iter()
            .rev()
            .find(|r| r.class == EventClass::Deliver && r.outcome == EventOutcome::Fired)
            .expect("echo reply recorded");
        assert_eq!(reply.node, pinger.0 as u16);
        let chain = sim.sim_why(reply.id);
        // ping tx-done -> ping deliver -> think timer -> reply tx-done ->
        // reply deliver: five events, rooted at the on_start send.
        assert_eq!(chain.len(), 5);
        assert_eq!(chain[0].id, reply.id);
        assert_eq!(chain.last().unwrap().parent, 0);
        // Ids strictly decrease toward the root: acyclic by construction.
        assert!(chain.windows(2).all(|w| w[1].id < w[0].id));
        let classes: Vec<EventClass> = chain.iter().map(|r| r.class).collect();
        assert_eq!(
            classes,
            vec![
                EventClass::Deliver,
                EventClass::LinkTxDone,
                EventClass::Timer,
                EventClass::Deliver,
                EventClass::LinkTxDone,
            ]
        );
    }

    #[test]
    fn flow_spans_cover_every_retired_event_and_resolve_parents() {
        let mut sim = Sim::new(33);
        sim.enable_provenance(1 << 12);
        build_pair(&mut sim, 3, Duration::from_nanos(50));
        sim.run();
        let spans = sim.flow_spans();
        assert_eq!(spans.len() as u64, sim.events_processed());
        // Every non-root parent resolves inside the span set (nothing was
        // truncated at this capacity).
        let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
        assert!(spans
            .iter()
            .filter(|s| s.parent != 0)
            .all(|s| ids.contains(&s.parent)));
        // And the export renders as valid Chrome trace JSON.
        let json = telemetry::flow_trace_json(&spans, &[(0, "pinger".into()), (1, "echo".into())]);
        telemetry::json::validate(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(json.contains("\"ph\":\"s\""));
    }

    #[test]
    fn self_profiler_charges_scheduler_phases() {
        use telemetry::{Component, CostAccount, Phase, Profiler};

        let account = std::sync::Arc::new(CostAccount::default());
        let mut sim = Sim::new(34);
        sim.attach_self_profiler(Profiler::attached(
            account.clone(),
            u16::MAX,
            Component::Sim,
            true,
        ));
        build_pair(&mut sim, 10, Duration::from_nanos(20));
        sim.run();
        // Each processed event charged exactly one pop visit, and the
        // dispatch/device split covers all of them.
        assert_eq!(
            account.phase_count(Phase::SchedPop),
            sim.events_processed() + 1 // the final empty pop that ends the run
        );
        assert!(account.phase_count(Phase::SchedDispatch) > 0);
        assert!(account.phase_count(Phase::SchedDevice) > 0);
    }

    /// The beacon/echo rig; returns (beacon, echo).
    fn beacon_echo(sim: &mut Sim) -> (NodeId, NodeId) {
        let beacon = sim.add_node(Box::new(Beacon {
            peer: NodeId(1),
            period: Duration::from_micros(1),
            sent: 0,
            replies: 0,
        }));
        let echo = sim.add_node(Box::new(Echo {
            think: Duration::ZERO,
            pending: vec![],
            received: 0,
        }));
        sim.connect(beacon, echo, params_100g());
        (beacon, echo)
    }

    #[test]
    fn wall_clock_reads_stay_within_two_per_event() {
        use crate::introspect::EventClass;
        use telemetry::{Component, CostAccount, Profiler};

        // Plane off: the kernel never reads the clock.
        let mut sim = Sim::new(35);
        beacon_echo(&mut sim);
        sim.run_for(Duration::from_micros(50));
        assert!(sim.events_processed() > 100);
        assert_eq!(sim.wall_clock_reads(), 0);

        // Plane on: scheduler metrics and the self-profiler together.
        let mut sim = Sim::new(35);
        sim.enable_scheduler_metrics();
        sim.attach_self_profiler(Profiler::attached(
            std::sync::Arc::new(CostAccount::default()),
            u16::MAX,
            Component::Sim,
            true,
        ));
        let (beacon, echo) = beacon_echo(&mut sim);
        // Starting the nodes costs one read more, once; the budget below
        // is the steady loop's.
        sim.run_for(Duration::from_micros(1));
        let packets = |sim: &Sim| {
            sim.node_ref::<Beacon>(beacon).replies + sim.node_ref::<Echo>(echo).received
        };
        let sweeps = |sim: &Sim| {
            let m = sim.scheduler_metrics();
            m.fired(EventClass::Deliver) + m.cancelled(EventClass::Deliver)
        };
        let (reads0, events0, packets0, sweeps0) = (
            sim.wall_clock_reads(),
            sim.events_processed(),
            packets(&sim),
            sweeps(&sim),
        );
        let calls = 40;
        for _ in 0..calls {
            sim.run_for(Duration::from_nanos(2_500));
        }
        let reads = sim.wall_clock_reads() - reads0;
        let events = sim.events_processed() - events0;
        let delivered = packets(&sim) - packets0;
        let sweeps = sweeps(&sim) - sweeps0;
        assert!(events > 200 && delivered > 50, "{events} events");
        // 2 per event, 1 per packet beyond the first of its sweep, 1 per
        // call. Before the stamps were chained the kernel read about 6 per
        // event.
        let budget = 2 * events + delivered.saturating_sub(sweeps) + calls;
        assert!(reads <= budget, "{reads} reads > budget {budget}");
        assert!(reads >= events, "every pop is stamped: {reads} < {events}");
    }

    #[test]
    fn stamps_taken_outside_the_loop_are_real() {
        use crate::introspect::EventClass;

        /// Sets one timer in `on_start`, then holds the CPU for a while.
        struct SlowStarter;
        impl Node for SlowStarter {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(Duration::from_nanos(10), 0);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            fn on_packet(&mut self, _p: Packet, _c: &mut Ctx) {}
            fn on_timer(&mut self, _t: u64, _c: &mut Ctx) {}
        }
        let mut sim = Sim::new(36);
        sim.enable_scheduler_metrics();
        let id = sim.add_node(Box::new(SlowStarter));
        // Scheduled between runs: the push reads its own stamp.
        sim.schedule_fault(Instant(20), FaultEvent::NodeUp(id));
        std::thread::sleep(std::time::Duration::from_millis(1));
        sim.run();
        let m = sim.scheduler_metrics();
        // An unstamped event would record 0; each of these sat in the
        // queue across a 1 ms sleep after its stamp.
        let fault = m.dwell_wall(EventClass::Fault);
        let timer = m.dwell_wall(EventClass::Timer);
        assert_eq!((fault.count(), timer.count()), (1, 1));
        assert!(fault.min() >= 1_000_000, "fault dwell {} ns", fault.min());
        assert!(timer.min() >= 1_000_000, "timer dwell {} ns", timer.min());
    }

    #[test]
    #[should_panic(expected = "fault scheduled in the past")]
    fn past_fault_rejected() {
        let mut sim = Sim::new(15);
        let id = sim.add_node(Box::new(Echo {
            think: Duration::ZERO,
            pending: vec![],
            received: 0,
        }));
        sim.run_for(Duration::from_micros(5));
        sim.schedule_fault(Instant::ZERO, FaultEvent::NodeDown(id));
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn sending_without_link_panics() {
        let mut sim = Sim::new(5);
        let a = sim.add_node(Box::new(Pinger {
            peer: NodeId(9),
            count: 1,
            echoes: vec![],
        }));
        let _ = a;
        sim.run();
    }
}
