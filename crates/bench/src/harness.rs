//! Packet-level rigs: a Cowbird compute-node client for `simnet`, and the
//! standard three-node topology (compute ↔ engine ↔ pool) used by the
//! latency and validation experiments.

use cowbird::channel::Channel;
use cowbird::layout::ChannelLayout;
use cowbird::meta::{ChaseStatus, CHASE_PTR_MASK};
use cowbird::region::{RegionMap, RemoteRegion};
use cowbird::reqid::{OpType, ReqId};
use cowbird_engine::core::EngineConfig;
use cowbird_engine::sim::{EngineNode, PoolNode};
use rdma::mem::Region;
use rdma::qp::QpConfig;
use rdma::sim::SimNic;
use simnet::link::{LinkId, LinkParams};
use simnet::sim::{Ctx, Node, NodeId, Packet, Sim};
use simnet::time::{Duration, Instant};
use telemetry::{Component, EventKind, Histogram, SloWatchdog, TailViolation, Telemetry};

const TAG_POLL: u64 = 1;
const TAG_NIC_TICK: u64 = 2;

/// Chase-race mode: pointer words cycle through this many slots in the
/// pool's top page, out of the plain-read record span. Slot reuse distance
/// (`CHASE_SLOTS * 4` ops) must exceed the inflight window so a chase's
/// oracle — the latest preceding write to its slot — is unambiguous.
const CHASE_SLOTS: u64 = 8;
/// Bytes reserved at the top of the pool for the chase slot words.
const CHASE_SLOT_PAGE: u64 = 4096;

/// A compute node running the Cowbird client library: issues reads of
/// `record_size` bytes, keeps `inflight` outstanding, and measures
/// issue-to-completion latency. Its NIC serves the offload engine's RDMA
/// traffic without any "CPU" involvement (no simulated cost — that is the
/// whole point).
pub struct CowbirdClientNode {
    nic: SimNic,
    channel: Channel,
    record_size: u32,
    inflight_target: usize,
    target_ops: u64,
    issued: u64,
    completed: u64,
    outstanding: Vec<(cowbird::channel::ReadHandle, Instant, u64)>,
    pool_span: u64,
    poll_interval: Duration,
    /// Delay before the first issue (models an idle application phase; used
    /// by the adaptive-probe ablation).
    start_after: Duration,
    pub latency: Histogram,
    /// Latency of the very first completed op (ns).
    first_latency: Option<u64>,
    pub done_at: Option<Instant>,
    pub stop_when_done: bool,
    /// Check every read's payload against the pool's deterministic content
    /// (offset stamp). The failover ablation uses this to prove takeover
    /// re-execution never hands back wrong bytes; requires 64 B records.
    verify_data: bool,
    /// Virtual time of every completion, in completion order (the failover
    /// throughput timeline).
    pub completion_times: Vec<Instant>,
    /// Fence the engine when no completion has arrived for this long while
    /// requests are outstanding (`None` disables the watchdog).
    watchdog: Option<Duration>,
    /// Virtual time of the last observed completion (watchdog reference).
    last_progress_at: Instant,
    /// Set after the watchdog fences; cleared when progress resumes, so a
    /// single stall episode fences exactly once (the successor adopts at
    /// the fence epoch — a second bump would out-epoch it too).
    stall_fenced: bool,
    /// Tail-latency SLO watchdog fed on every completion (`None` disables).
    tail_slo: Option<SloWatchdog>,
    /// Response-copy scratch for [`Channel::take_response_into`], reused
    /// across completions (zero-alloc reap path).
    resp_scratch: Vec<u8>,
    /// Violations the SLO watchdog flagged, in firing order.
    pub tail_violations: Vec<TailViolation>,
    /// Dependent-op race mode: the issue schedule cycles
    /// write-slot → chase-slot → read → read, so every chase dereferences
    /// a pointer word its own channel just staged — the conflict gate must
    /// hold the chase until the write commits.
    chase_race: bool,
    /// Latest pointer issued per chase slot. Ring FIFO plus the conflict
    /// gate make this the exact oracle: a chase observes precisely the
    /// last write to its slot that precedes it in ring order.
    slot_ptr: Vec<u64>,
    outstanding_chases: Vec<(cowbird::channel::ReadHandle, Instant, u64)>,
    outstanding_writes: Vec<ReqId>,
    /// Chase completions verified against the oracle.
    pub chases_completed: u64,
}

impl CowbirdClientNode {
    fn issue(&mut self, ctx: &mut Ctx) {
        while self.outstanding.len() + self.outstanding_chases.len() + self.outstanding_writes.len()
            < self.inflight_target
            && self.issued < self.target_ops
        {
            if self.chase_race {
                if !self.issue_chase_race(ctx) {
                    break; // ring full; poll will drain space
                }
                continue;
            }
            let max_rec = self.pool_span / self.record_size.max(1) as u64;
            let off = ctx.rng().next_below(max_rec) * self.record_size as u64;
            match self.channel.async_read(1, off, self.record_size) {
                Ok(h) => {
                    self.outstanding.push((h, ctx.now(), off));
                    self.issued += 1;
                }
                Err(e) if e.is_retryable() => break, // poll will drain space
                Err(e) => panic!("issue failed: {e}"),
            }
        }
    }

    /// One op of the write → chase → read → read schedule. Returns `false`
    /// on a retryable ring-full error (the next poll retries; `issued` is
    /// unchanged, so the schedule position is preserved).
    fn issue_chase_race(&mut self, ctx: &mut Ctx) -> bool {
        // Plain reads and chase targets stay below the slot page so the
        // racing slot writes never corrupt a verified record payload.
        let span = self.pool_span - CHASE_SLOT_PAGE;
        let max_rec = span / self.record_size.max(1) as u64;
        let slot = (self.issued / 4) % CHASE_SLOTS;
        let slot_addr = self.pool_span - CHASE_SLOT_PAGE + slot * 8;
        match self.issued % 4 {
            0 => {
                // Record 0 excluded: its stamp is 0, which the dereference
                // would read as a null pointer (no payload to verify).
                let ptr = (1 + ctx.rng().next_below(max_rec - 1)) * self.record_size as u64;
                match self.channel.async_write(1, slot_addr, &ptr.to_le_bytes()) {
                    Ok(id) => {
                        self.outstanding_writes.push(id);
                        self.slot_ptr[slot as usize] = ptr;
                        self.issued += 1;
                        true
                    }
                    Err(e) if e.is_retryable() => false,
                    Err(e) => panic!("chase-race write failed: {e}"),
                }
            }
            1 => {
                let expect = self.slot_ptr[slot as usize];
                match self
                    .channel
                    .async_read_indirect(1, slot_addr, 0, 0, self.record_size)
                {
                    Ok(h) => {
                        self.outstanding_chases.push((h, ctx.now(), expect));
                        self.issued += 1;
                        true
                    }
                    Err(e) if e.is_retryable() => false,
                    Err(e) => panic!("chase-race chase failed: {e}"),
                }
            }
            _ => {
                let off = ctx.rng().next_below(max_rec) * self.record_size as u64;
                match self.channel.async_read(1, off, self.record_size) {
                    Ok(h) => {
                        self.outstanding.push((h, ctx.now(), off));
                        self.issued += 1;
                        true
                    }
                    Err(e) if e.is_retryable() => false,
                    Err(e) => panic!("chase-race read failed: {e}"),
                }
            }
        }
    }

    fn reap(&mut self, ctx: &mut Ctx) {
        self.channel.recorder().set_now_ns(ctx.now().nanos());
        self.channel.refresh();
        let mut i = 0;
        while i < self.outstanding.len() {
            let (h, t0, off) = self.outstanding[i];
            if h.id
                .completed_by(self.channel.progress(cowbird::reqid::OpType::Read))
            {
                let lat = ctx.now().since(t0);
                self.first_latency.get_or_insert(lat.nanos());
                self.latency.record(lat.nanos());
                self.channel.recorder().record(
                    Component::Client,
                    EventKind::RequestCompleted,
                    h.id.raw(),
                    lat.nanos(),
                    0,
                );
                if let Some(wd) = self.tail_slo.as_mut() {
                    if let Some(v) = wd.observe("read", h.id.raw(), lat.nanos()) {
                        self.channel.recorder().record(
                            Component::Client,
                            EventKind::TailViolation,
                            v.req,
                            v.latency_ns,
                            v.p999_ns,
                        );
                        self.tail_violations.push(v);
                    }
                }
                self.channel
                    .take_response_into(&h, &mut self.resp_scratch)
                    .expect("completed read");
                if self.verify_data {
                    let expect = (off / 64).to_le_bytes();
                    assert_eq!(
                        &self.resp_scratch[..8],
                        &expect[..],
                        "read {:?} at offset {off} returned wrong bytes",
                        h.id
                    );
                }
                self.outstanding.swap_remove(i);
                self.completed += 1;
                self.completion_times.push(ctx.now());
                self.last_progress_at = ctx.now();
                self.stall_fenced = false;
            } else {
                i += 1;
            }
        }
        self.reap_chases(ctx);
        self.reap_writes(ctx);
        self.watchdog_check(ctx);
        if self.completed >= self.target_ops && self.done_at.is_none() {
            self.done_at = Some(ctx.now());
            if self.stop_when_done {
                ctx.stop();
            }
        }
    }

    /// Reap completed dependent reads and check each against the chase
    /// oracle: status Ok, exactly one hop, and the final block fetched from
    /// *precisely* the pointer the latest preceding slot write installed —
    /// a torn or stale pointer (the conflict gate letting a chase overtake
    /// a staged write, or observe a half-flushed word) fails here.
    fn reap_chases(&mut self, ctx: &mut Ctx) {
        let mut i = 0;
        while i < self.outstanding_chases.len() {
            let (h, t0, expect) = self.outstanding_chases[i];
            if !h.id.completed_by(self.channel.progress(OpType::Read)) {
                i += 1;
                continue;
            }
            let lat = ctx.now().since(t0);
            self.latency.record(lat.nanos());
            let out = self
                .channel
                .take_chase_response(&h)
                .expect("completed chase");
            // Every record stamp is non-zero, so the block fetched by the
            // single hop always embeds a non-null "next" word: the status
            // is the chain-continues signal, payload attached.
            assert_eq!(
                out.status.status,
                ChaseStatus::BudgetExhausted,
                "chase {:?} expecting pointer {expect:#x} must resolve its one hop",
                h.id
            );
            assert_eq!(out.status.hops, 1, "ReadIndirect is exactly one hop");
            assert_eq!(
                out.status.final_addr,
                expect & CHASE_PTR_MASK,
                "chase {:?} must observe the latest preceding pointer write",
                h.id
            );
            if self.verify_data {
                let stamp = (expect / 64).to_le_bytes();
                assert_eq!(
                    &out.data[..8],
                    &stamp[..],
                    "chase {:?} fetched wrong bytes at {expect:#x}",
                    h.id
                );
            }
            self.outstanding_chases.swap_remove(i);
            self.completed += 1;
            self.chases_completed += 1;
            self.completion_times.push(ctx.now());
            self.last_progress_at = ctx.now();
            self.stall_fenced = false;
        }
    }

    /// Reap completed slot writes (exactly-once via the write progress
    /// counter, like reads).
    fn reap_writes(&mut self, ctx: &mut Ctx) {
        let wp = self.channel.progress(OpType::Write);
        let mut i = 0;
        while i < self.outstanding_writes.len() {
            if self.outstanding_writes[i].completed_by(wp) {
                self.outstanding_writes.swap_remove(i);
                self.completed += 1;
                self.completion_times.push(ctx.now());
                self.last_progress_at = ctx.now();
                self.stall_fenced = false;
            } else {
                i += 1;
            }
        }
    }

    /// The client-side liveness watchdog: with requests outstanding and no
    /// completion for `watchdog`, the engine is presumed unreachable (dead
    /// *or* partitioned — from here they look identical) and the client
    /// raises the fence word so a standby can adopt at the fence epoch.
    fn watchdog_check(&mut self, ctx: &mut Ctx) {
        let Some(timeout) = self.watchdog else { return };
        if self.outstanding.is_empty() || self.stall_fenced {
            return;
        }
        if ctx.now().since(self.last_progress_at) >= timeout {
            let epoch = self.channel.fence_engine();
            self.stall_fenced = true;
            let (now, node) = (ctx.now(), ctx.node_id().0 as u16);
            ctx.trace().event(
                now,
                node,
                telemetry::EventKind::FenceRaised,
                0,
                epoch,
                self.outstanding.len() as u64,
            );
        }
    }

    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The client channel (stats and progress inspection).
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// Direct NIC access (diagnostics).
    pub fn nic(&self) -> &SimNic {
        &self.nic
    }

    /// Outstanding client requests (diagnostics).
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Latency of the first completed operation, ns (0 if none yet).
    pub fn first_latency_ns(&self) -> u64 {
        self.first_latency.unwrap_or(0)
    }

    /// The tail-latency SLO watchdog, when the rig enabled one (for
    /// exporting its window quantiles after a run).
    pub fn tail_watchdog(&self) -> Option<&SloWatchdog> {
        self.tail_slo.as_ref()
    }
}

impl Node for CowbirdClientNode {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.start_after, TAG_POLL);
        ctx.set_timer(Duration::from_micros(100), TAG_NIC_TICK);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        // Engine traffic against the channel region: NIC-only, no host CPU.
        self.nic.deliver(pkt, 1, ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx) {
        match tag {
            TAG_POLL => {
                self.reap(ctx);
                self.issue(ctx);
                if self.completed < self.target_ops {
                    ctx.set_timer(self.poll_interval, TAG_POLL);
                }
            }
            TAG_NIC_TICK => {
                self.nic.tick_and_send(1, ctx);
                ctx.set_timer(Duration::from_micros(100), TAG_NIC_TICK);
            }
            _ => {}
        }
    }
}

/// Configuration for the standard Cowbird rig.
pub struct CowbirdRig {
    pub seed: u64,
    pub record_size: u32,
    pub inflight: usize,
    pub target_ops: u64,
    pub engine_batch: usize,
    pub probe_interval: Duration,
    /// How often the client checks for completions (models the application
    /// interleaving polls with work).
    pub poll_interval: Duration,
    pub link: LinkParams,
    /// Per-link fault injection applies to every link when set.
    pub drop_probability: f64,
    /// Client liveness watchdog: fence the engine when no completion has
    /// arrived for this long while requests are outstanding.
    pub watchdog: Option<Duration>,
    /// Scatter-gather width for the engine's coalesced pool verbs: `0`
    /// keeps the variant default (16 for Spot, 1 for P4), `1` disables
    /// coalescing, larger values cap the SGE list per verb.
    pub coalesce_sge: usize,
    /// Channel ring sizing (the tail-latency artifact shrinks it to plant
    /// response-ring backpressure).
    pub layout: ChannelLayout,
    /// Flight-recorder hub to wire through the rig: the client channel and
    /// the engine core get virtual-clock recorders on nodes 0 and 1, so a
    /// run leaves a merged event timeline behind for span/waterfall
    /// analysis. `None` records nothing (the default; event recording is
    /// one branch per event but the rings are not free).
    pub trace: Option<Telemetry>,
    /// Tail-latency SLO watchdog parameters
    /// `(slo_p999_ns, min_samples, cooldown_samples)`; every completion is
    /// fed to [`SloWatchdog::observe`] and violations are collected on the
    /// client node (and recorded as [`EventKind::TailViolation`] when a
    /// trace hub is attached).
    pub tail_slo: Option<(u64, u64, u64)>,
    /// Replace the pure-read workload with the write → chase → read → read
    /// schedule: every 4th op rewrites a pool-side pointer word and the op
    /// right behind it dereferences that word with `ReadIndirect`, so the
    /// chase state machine races the staged-write conflict gate on every
    /// group. Implies per-op oracle checks on the chase responses.
    pub chase_race: bool,
}

impl Default for CowbirdRig {
    fn default() -> Self {
        CowbirdRig {
            seed: 1,
            record_size: 64,
            inflight: 1,
            target_ops: 500,
            engine_batch: 1,
            probe_interval: Duration::from_micros(2),
            poll_interval: Duration::from_nanos(250),
            link: LinkParams::rack_100g(),
            drop_probability: 0.0,
            watchdog: None,
            coalesce_sge: 0,
            layout: ChannelLayout::default_sizes(),
            trace: None,
            tail_slo: None,
            chase_race: false,
        }
    }
}

/// Directional link ids of the standard three-node topology, in the order
/// the rig connected them; fault scripts (outages, jitter) target these.
#[derive(Clone, Copy, Debug)]
pub struct RigLinks {
    /// compute → engine, engine → compute.
    pub compute_engine: (LinkId, LinkId),
    /// engine → pool, pool → engine.
    pub engine_pool: (LinkId, LinkId),
}

/// Build compute ↔ engine(switch) ↔ pool. Returns (sim, client node id,
/// engine node id).
pub fn build_cowbird_rig(cfg: CowbirdRig) -> (Sim, NodeId, NodeId) {
    build_cowbird_rig_with(cfg, Duration::ZERO, None)
}

/// [`build_cowbird_rig`] with an initial client idle period and an optional
/// adaptive probe policy `(idle interval, empty-probe threshold)`.
pub fn build_cowbird_rig_with(
    cfg: CowbirdRig,
    client_start_after: Duration,
    adaptive_probe: Option<(Duration, u32)>,
) -> (Sim, NodeId, NodeId) {
    let (sim, client, engine, _standby, _links) =
        build_rig_inner(cfg, client_start_after, adaptive_probe, None);
    (sim, client, engine)
}

/// [`build_cowbird_rig`] that also hands back the topology's [`RigLinks`]
/// so the caller can aim fault scripts at a specific hop (the tail-latency
/// artifact jitters the engine ↔ pool pair).
pub fn build_cowbird_rig_links(cfg: CowbirdRig) -> (Sim, NodeId, NodeId, RigLinks) {
    let (sim, client, engine, _standby, links) = build_rig_inner(cfg, Duration::ZERO, None, None);
    (sim, client, engine, links)
}

/// The failover rig: the standard topology plus a fourth node hosting a
/// standby engine wired to the same channel and pool over its own QPs. A
/// scheduled fault crashes the primary at `crash_at`; the standby activates
/// `takeover_delay` later (modelling detection + election), adopts the
/// channel from the red block, and resumes the workload. The client
/// additionally verifies every read payload, so a lost or duplicated
/// completion — or a wrong byte from re-execution — fails the run. Returns
/// `(sim, client, primary engine, standby engine)`.
pub fn build_cowbird_failover_rig(
    cfg: CowbirdRig,
    crash_at: Duration,
    takeover_delay: Duration,
) -> (Sim, NodeId, NodeId, NodeId) {
    let (sim, client, engine, standbys, _links) = build_rig_inner(
        cfg,
        Duration::ZERO,
        None,
        Some((crash_at, takeover_delay, FailoverFault::Crash, 1)),
    );
    (sim, client, engine, standbys[0])
}

/// The contested-election rig: like [`build_cowbird_failover_rig`], but with
/// *two* standby engines, both activating at `crash_at + takeover_delay`.
/// Each reads the red block and bids for the channel by compare-and-swapping
/// the engine-epoch word at the compute NIC; the NIC's atomic execution
/// arbitrates, so exactly one standby adopts and the other observes a lost
/// election and stays dormant. Returns
/// `(sim, client, primary engine, standby engines)`.
pub fn build_cowbird_multi_standby_rig(
    cfg: CowbirdRig,
    crash_at: Duration,
    takeover_delay: Duration,
) -> (Sim, NodeId, NodeId, Vec<NodeId>) {
    let (sim, client, engine, standbys, _links) = build_rig_inner(
        cfg,
        Duration::ZERO,
        None,
        Some((crash_at, takeover_delay, FailoverFault::Crash, 2)),
    );
    (sim, client, engine, standbys)
}

/// How the failover rig takes the primary engine out.
#[derive(Clone, Copy, Debug)]
enum FailoverFault {
    /// The primary node crashes outright (`NodeDown`).
    Crash,
    /// *Partial partition*: the primary stays up and keeps its pool links,
    /// but both directions of the compute ↔ engine pair go down over
    /// `[at, heal_at)`. From the client it is indistinguishable from a
    /// crash; from the pool the primary looks healthy — exactly the
    /// asymmetric failure the client-side fence word exists for.
    Partition { heal_at: Duration },
}

/// The partial-partition failover rig: like [`build_cowbird_failover_rig`],
/// but the primary is cut off from the *client only* (it still reaches the
/// memory pool) over `[partition_at, heal_at)`. The client's watchdog must
/// notice the stall and fence; the standby (activating `takeover_delay`
/// after the partition) adopts at the fence epoch; and when the partition
/// heals, the zombie primary observes the fence and stands down. The
/// client's watchdog defaults to a quarter of `takeover_delay` so the fence
/// lands before the standby adopts, as the fence-then-attach protocol
/// requires. Returns `(sim, client, primary engine, standby engine)`.
pub fn build_cowbird_partial_partition_rig(
    mut cfg: CowbirdRig,
    partition_at: Duration,
    heal_at: Duration,
    takeover_delay: Duration,
) -> (Sim, NodeId, NodeId, NodeId) {
    if cfg.watchdog.is_none() {
        cfg.watchdog = Some(Duration::from_nanos(takeover_delay.nanos() / 4));
    }
    let (sim, client, engine, standbys, _links) = build_rig_inner(
        cfg,
        Duration::ZERO,
        None,
        Some((
            partition_at,
            takeover_delay,
            FailoverFault::Partition { heal_at },
            1,
        )),
    );
    (sim, client, engine, standbys[0])
}

fn build_rig_inner(
    cfg: CowbirdRig,
    client_start_after: Duration,
    adaptive_probe: Option<(Duration, u32)>,
    failover: Option<(Duration, Duration, FailoverFault, usize)>,
) -> (Sim, NodeId, NodeId, Vec<NodeId>, RigLinks) {
    let mut sim = Sim::new(cfg.seed);
    let compute_id = NodeId(0);
    let engine_id = NodeId(1);
    let pool_id = NodeId(2);

    let pool_span: u64 = 8 << 20;
    let pool_mem = Region::new(pool_span as usize);
    // Deterministic content.
    for i in 0..(pool_span / 64) {
        pool_mem.write(i * 64, &i.to_le_bytes()).unwrap();
    }
    let mut pool = PoolNode::new();
    let pool_rkey = pool.register(pool_mem);
    pool.create_qp(201, 102, engine_id);

    let mut regions = RegionMap::new();
    regions.insert(
        1,
        RemoteRegion {
            rkey: pool_rkey,
            base: 0,
            size: pool_span,
        },
    );

    let standby_count = failover.as_ref().map_or(0, |f| f.3);

    let layout = cfg.layout;
    let mut channel = Channel::new(0, layout, regions.clone());
    if let Some(hub) = &cfg.trace {
        channel.set_recorder(hub.recorder_virtual(0, "compute"));
    }
    let mut nic = SimNic::new();
    let channel_rkey = nic.register(channel.region().clone());
    nic.create_qp(QpConfig::new(301, 101), engine_id);
    nic.create_qp(QpConfig::new(302, 103), engine_id);
    // Standby k gets node id 3+k and QP numbers offset by 10k from the
    // first standby's (111/311, 113/312 on the client, 112/211 at the pool).
    for k in 0..standby_count {
        let o = 10 * k as u32;
        let sid = NodeId(3 + k as u32);
        nic.create_qp(QpConfig::new(311 + o, 111 + o), sid);
        nic.create_qp(QpConfig::new(312 + o, 113 + o), sid);
        pool.create_qp(211 + o, 112 + o, sid);
    }

    let client = CowbirdClientNode {
        nic,
        channel,
        record_size: cfg.record_size,
        inflight_target: cfg.inflight,
        target_ops: cfg.target_ops,
        issued: 0,
        completed: 0,
        outstanding: Vec::new(),
        pool_span,
        poll_interval: cfg.poll_interval,
        start_after: client_start_after,
        latency: Histogram::new(),
        first_latency: None,
        done_at: None,
        stop_when_done: true,
        verify_data: failover.is_some(),
        completion_times: Vec::new(),
        watchdog: cfg.watchdog,
        last_progress_at: Instant::ZERO,
        stall_fenced: false,
        tail_slo: cfg
            .tail_slo
            .map(|(slo, min_samples, cooldown)| SloWatchdog::new(slo, min_samples, cooldown)),
        tail_violations: Vec::new(),
        resp_scratch: Vec::new(),
        chase_race: cfg.chase_race,
        slot_ptr: vec![0; CHASE_SLOTS as usize],
        outstanding_chases: Vec::new(),
        outstanding_writes: Vec::new(),
        chases_completed: 0,
    };

    let mut engine = EngineNode::new();
    let mut variant = if cfg.engine_batch <= 1 {
        EngineConfig::p4(layout, regions)
    } else {
        EngineConfig::spot(layout, regions, cfg.engine_batch)
    };
    if let Some((idle, threshold)) = adaptive_probe {
        variant = variant.with_adaptive_probe(idle, threshold);
    }
    if cfg.coalesce_sge > 0 {
        variant = variant.with_coalesce_sge(cfg.coalesce_sge);
    }
    if let Some(hub) = &cfg.trace {
        variant = variant.with_recorder(hub.recorder_virtual(1, "engine"));
    }
    let variant = variant.with_probe_interval(cfg.probe_interval);
    engine.add_instance(
        variant.clone(),
        compute_id,
        pool_id,
        (101, 301, 102, 201, 103, 302),
        channel_rkey,
    );

    sim.add_node(Box::new(client));
    sim.add_node(Box::new(engine));
    sim.add_node(Box::new(pool));
    let link = cfg.link.clone().with_drop_probability(cfg.drop_probability);
    let (ce_fwd, ce_rev) = sim.connect(compute_id, engine_id, link.clone());
    let (ep_fwd, ep_rev) = sim.connect(engine_id, pool_id, link.clone());
    let links = RigLinks {
        compute_engine: (ce_fwd, ce_rev),
        engine_pool: (ep_fwd, ep_rev),
    };

    let mut standbys = Vec::new();
    if let Some((crash_at, takeover_delay, fault, count)) = failover {
        for k in 0..count {
            let o = 10 * k as u32;
            let mut standby = EngineNode::new();
            standby.add_standby_instance(
                variant.clone(),
                compute_id,
                pool_id,
                (111 + o, 311 + o, 112 + o, 211 + o, 113 + o, 312 + o),
                channel_rkey,
                crash_at + takeover_delay,
            );
            let id = sim.add_node(Box::new(standby));
            debug_assert_eq!(id, NodeId(3 + k as u32));
            sim.connect(compute_id, id, link.clone());
            sim.connect(id, pool_id, link.clone());
            standbys.push(id);
        }
        match fault {
            FailoverFault::Crash => sim.schedule_fault(
                Instant::ZERO + crash_at,
                simnet::fault::FaultEvent::NodeDown(engine_id),
            ),
            FailoverFault::Partition { heal_at } => {
                // Both directions of compute <-> engine; engine <-> pool
                // stays up (the "partial" in partial partition).
                let script = simnet::fault::FaultScript::new().partial_partition(
                    &[ce_fwd, ce_rev],
                    Instant::ZERO + crash_at,
                    Instant::ZERO + heal_at,
                );
                sim.apply_fault_script(&script);
            }
        }
    }
    (sim, compute_id, engine_id, standbys, links)
}

/// Export every stats surface of a finished rig run into the process-wide
/// metrics registry ([`telemetry::metrics::global`]) under a `run` label:
/// client channel counters and latency histogram, plus NIC/QP counters for
/// both the compute and engine nodes. Experiments snapshot the registry
/// around a run and serialize the diff as `metrics.json`.
pub fn export_rig_metrics(sim: &Sim, client_id: NodeId, engine_id: NodeId, run: &str) {
    let reg = telemetry::metrics::global();
    let client: &CowbirdClientNode = sim.node_ref(client_id);
    let compute_labels = [("run", run), ("node", "compute")];
    client.channel().stats.export(reg, &compute_labels);
    client.channel().export_engine_telemetry(reg);
    client.nic().export_metrics(reg, &compute_labels);
    reg.hist_merge(
        "cowbird.client.latency_ns",
        &[("run", run)],
        &client.latency,
    );
    let engine: &EngineNode = sim.node_ref(engine_id);
    let engine_labels = [("run", run), ("node", "engine")];
    engine.core(0).stats.export(reg, &engine_labels);
    engine.nic().export_metrics(reg, &engine_labels);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rig_completes_target_ops() {
        let (mut sim, client_id, _) = build_cowbird_rig(CowbirdRig {
            target_ops: 100,
            ..Default::default()
        });
        sim.run_until(Some(Instant(Duration::from_millis(50).nanos())));
        let client: &CowbirdClientNode = sim.node_ref(client_id);
        assert_eq!(client.completed(), 100);
        assert!(client.latency.median() > 0);
    }

    #[test]
    fn export_rig_metrics_populates_the_global_registry() {
        let (mut sim, client_id, engine_id) = build_cowbird_rig(CowbirdRig {
            target_ops: 50,
            ..Default::default()
        });
        sim.run_until(Some(Instant(Duration::from_millis(50).nanos())));
        let before = telemetry::metrics::global().snapshot();
        export_rig_metrics(&sim, client_id, engine_id, "harness_test");
        let diff = telemetry::metrics::global().snapshot().diff(&before);
        assert_eq!(
            diff.counters
                .get("cowbird.client.reads_issued{node=compute,run=harness_test}"),
            Some(&50)
        );
        assert!(diff
            .counters
            .keys()
            .any(|k| k.starts_with("cowbird.engine.probes_sent")));
        assert_eq!(
            diff.hists
                .get("cowbird.client.latency_ns{run=harness_test}")
                .unwrap()
                .count,
            50
        );
        telemetry::json::validate(&diff.to_json()).unwrap();
    }

    #[test]
    fn rig_survives_packet_loss() {
        let (mut sim, client_id, _) = build_cowbird_rig(CowbirdRig {
            target_ops: 60,
            drop_probability: 0.01,
            seed: 3,
            ..Default::default()
        });
        sim.run_until(Some(Instant(Duration::from_millis(200).nanos())));
        let client: &CowbirdClientNode = sim.node_ref(client_id);
        assert_eq!(client.completed(), 60, "GBN must recover all ops");
    }

    #[test]
    fn failover_rig_completes_through_crash_exactly_once() {
        let (mut sim, cid, eid, sid) = build_cowbird_failover_rig(
            CowbirdRig {
                seed: 26,
                target_ops: 300,
                inflight: 8,
                engine_batch: 8,
                ..Default::default()
            },
            Duration::from_micros(50),
            Duration::from_micros(200),
        );
        sim.run_until(Some(Instant(Duration::from_millis(50).nanos())));
        assert!(sim.node_is_down(eid));
        let client: &CowbirdClientNode = sim.node_ref(cid);
        // Exactly once: every issued request completed, and the progress
        // counter equals the issue count (a duplicate would overshoot it, a
        // loss would stall it). Payloads were verified on the fly.
        assert_eq!(client.completed(), 300);
        assert_eq!(client.issued(), 300);
        assert_eq!(client.channel().progress(cowbird::reqid::OpType::Read), 300);
        assert_eq!(client.channel().stats.engine_takeovers, 1);
        let standby: &EngineNode = sim.node_ref(sid);
        assert_eq!(standby.core(0).stats.adoptions, 1);
        // The timeline straddles the outage: some ops before the crash, the
        // rest after the standby adopted.
        let crash = Instant(Duration::from_micros(50).nanos());
        assert!(client.completion_times.first().unwrap() < &crash);
        assert!(client.completion_times.last().unwrap() > &crash);
    }

    #[test]
    fn two_standbys_elect_exactly_one_leader() {
        // Both standbys activate at the same instant and bid for the channel
        // with a compare-and-swap on the engine-epoch word. The compute NIC
        // executes the atomics in arrival order, so exactly one wins, adopts,
        // and finishes the workload; the loser observes a lost election and
        // stays dormant at its configured epoch.
        let (mut sim, cid, eid, sids) = build_cowbird_multi_standby_rig(
            CowbirdRig {
                seed: 27,
                target_ops: 300,
                inflight: 8,
                engine_batch: 8,
                ..Default::default()
            },
            Duration::from_micros(50),
            Duration::from_micros(200),
        );
        assert_eq!(sids.len(), 2);
        sim.run_until(Some(Instant(Duration::from_millis(50).nanos())));
        assert!(sim.node_is_down(eid));
        let client: &CowbirdClientNode = sim.node_ref(cid);
        // Exactly once across the contested takeover, payloads verified.
        assert_eq!(client.completed(), 300);
        assert_eq!(client.issued(), 300);
        assert_eq!(client.channel().progress(cowbird::reqid::OpType::Read), 300);
        assert_eq!(client.channel().stats.engine_takeovers, 1);
        let (won, lost, adoptions): (u64, u64, u64) = sids
            .iter()
            .map(|&sid| {
                let s: &EngineNode = sim.node_ref(sid);
                let st = &s.core(0).stats;
                (st.elections_won, st.elections_lost, st.adoptions)
            })
            .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
        assert_eq!(won, 1, "exactly one standby may win the election");
        assert_eq!(lost, 1, "the other standby must observe the loss");
        assert_eq!(adoptions, 1, "only the winner adopts the channel");
        // The loser never advanced past its configured epoch.
        let dormant = sids.iter().any(|&sid| {
            let s: &EngineNode = sim.node_ref(sid);
            s.core(0).stats.adoptions == 0 && s.core(0).epoch() == 0
        });
        assert!(dormant, "the losing standby must stay dormant");
    }

    #[test]
    fn partial_partition_fences_and_standby_takes_over() {
        // Partition the primary from the client (only) at 50 us; heal at
        // 150 us; standby activates at 50 + 200 = 250 us. The watchdog
        // (takeover_delay / 4 = 50 us) fences around 100 us, the healed
        // zombie observes the fence before the standby adopts, and the
        // workload completes exactly once on the standby.
        let (mut sim, cid, eid, sid) = build_cowbird_partial_partition_rig(
            CowbirdRig {
                seed: 27,
                target_ops: 300,
                inflight: 8,
                engine_batch: 8,
                ..Default::default()
            },
            Duration::from_micros(50),
            Duration::from_micros(150),
            Duration::from_micros(200),
        );
        sim.run_until(Some(Instant(Duration::from_millis(50).nanos())));
        // The primary never crashed — it only lost its client-facing links.
        assert!(!sim.node_is_down(eid));
        let client: &CowbirdClientNode = sim.node_ref(cid);
        assert!(
            client.channel().stats.fences >= 1,
            "watchdog must fence the unreachable engine"
        );
        // Exactly once across the takeover, with payloads verified.
        assert_eq!(client.completed(), 300);
        assert_eq!(client.issued(), 300);
        assert_eq!(client.channel().progress(cowbird::reqid::OpType::Read), 300);
        let standby: &EngineNode = sim.node_ref(sid);
        assert_eq!(standby.core(0).stats.adoptions, 1);
        // Fence-then-attach: the standby adopts at the blessed fence epoch,
        // so the client sees no *unfenced* takeover.
        assert_eq!(client.channel().stats.engine_takeovers, 0);
        // The healed zombie probed the green block, saw the fence word above
        // its epoch, and stood down.
        let primary: &EngineNode = sim.node_ref(eid);
        assert!(primary.core(0).stats.fenced, "zombie must stand down");
    }

    #[test]
    fn batched_rig_uses_fewer_compute_writes() {
        let run = |batch: usize| {
            let (mut sim, _c, engine_id) = build_cowbird_rig(CowbirdRig {
                target_ops: 200,
                inflight: 32,
                engine_batch: batch,
                ..Default::default()
            });
            sim.run_until(Some(Instant(Duration::from_millis(50).nanos())));
            let engine: &EngineNode = sim.node_ref(engine_id);
            engine.core(0).stats.batches_flushed
        };
        let unbatched = run(1);
        let batched = run(16);
        assert!(
            batched < unbatched,
            "batched {batched} vs unbatched {unbatched}"
        );
    }
}
