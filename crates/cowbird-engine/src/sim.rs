//! Simulation drivers: the offload engine and the memory pool as `simnet`
//! nodes.
//!
//! [`EngineNode`] hosts any number of Cowbird instances (paper §5.4) with
//! round-robin probe multiplexing: one engine driver (`slot::Slot`) per
//! instance, posting on two queue pairs toward the compute node and one
//! toward the pool. Probe packets ride at the lowest priority (7),
//! everything else at a configurable RDMA priority — the knobs the Fig. 14
//! contention experiment turns.
//!
//! [`PoolNode`] is the memory pool: registered regions plus a NIC. It never
//! spends host CPU on Cowbird traffic — every operation against it is
//! one-sided.

use rdma::mem::{Region, Rkey};
use rdma::qp::{QpConfig, QpNum};
use rdma::sim::SimNic;
use rdma::verbs::Completion;
use simnet::sim::{Ctx, Node, NodeId, Packet};
use simnet::time::Duration;

use crate::core::{EngineConfig, EngineCore};
use crate::slot::{FabricPort, SimPort, Slot};

/// Timer tags.
const TAG_NIC_TICK: u64 = u64::MAX;
/// Standby activation timers: `TAG_ACTIVATE_BASE + instance index`.
const TAG_ACTIVATE_BASE: u64 = 1 << 32;
// Probe timers use the instance index directly.

/// An instance's WR ids carry its index in the bits from here up, so one CQ
/// poll routes every completion to its slot.
const WR_INSTANCE_SHIFT: u32 = 48;

/// The offload engine as a simulation node (works for both variants; the
/// [`EngineConfig`] decides batching and the consistency gate).
///
/// Each instance's probes travel on a queue pair of their own toward the
/// compute node: probes ride at the lowest priority (paper §5.2) while
/// data packets ride high, and mixing them in one PSN stream would let the
/// strict-priority fabric reorder the stream and trip Go-Back-N
/// permanently — as the switch's dedicated packet-generator QP context
/// avoids on real hardware.
pub struct EngineNode {
    nic: SimNic,
    slots: Vec<Slot>,
    /// When each standby wakes up and begins the takeover (from sim
    /// start); `None` for an instance that serves from the start.
    activate_after: Vec<Option<Duration>>,
    /// Priority of probe packets (lowest by default, per §5.2).
    pub probe_prio: u8,
    /// Priority of data-path RDMA packets.
    pub data_prio: u8,
    nic_tick: Duration,
    /// Completion-batch scratch, reused across reaps (zero-alloc
    /// completion path).
    cq_scratch: Vec<Completion>,
}

impl Default for EngineNode {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineNode {
    pub fn new() -> EngineNode {
        EngineNode {
            nic: SimNic::new(),
            slots: Vec::new(),
            activate_after: Vec::new(),
            probe_prio: 7,
            data_prio: 1,
            nic_tick: Duration::from_micros(50),
            cq_scratch: Vec::new(),
        }
    }

    /// Register an instance. `compute`/`pool` are the peers' node ids;
    /// `qpns` gives (local-data-qpn-to-compute, compute-data-qpn,
    /// local-qpn-to-pool, pool-qpn, local-probe-qpn, compute-probe-qpn);
    /// `channel_rkey` is the channel region's rkey on the compute NIC.
    /// Returns the instance index.
    pub fn add_instance(
        &mut self,
        cfg: EngineConfig,
        compute: NodeId,
        pool: NodeId,
        qpns: (QpNum, QpNum, QpNum, QpNum, QpNum, QpNum),
        channel_rkey: Rkey,
    ) -> usize {
        self.add_instance_inner(cfg, compute, pool, qpns, channel_rkey, None)
    }

    /// Register a standby instance: dormant until `activate_after` (from
    /// sim start), then it reads the predecessor's red block, wins the CAS
    /// election on the engine-epoch word, adopts the channel
    /// ([`EngineCore::adopt_from_red`]), publishes the bumped epoch, and
    /// starts probing. Failover experiments schedule the activation just
    /// after the fault script kills the primary.
    pub fn add_standby_instance(
        &mut self,
        cfg: EngineConfig,
        compute: NodeId,
        pool: NodeId,
        qpns: (QpNum, QpNum, QpNum, QpNum, QpNum, QpNum),
        channel_rkey: Rkey,
        activate_after: Duration,
    ) -> usize {
        self.add_instance_inner(cfg, compute, pool, qpns, channel_rkey, Some(activate_after))
    }

    fn add_instance_inner(
        &mut self,
        cfg: EngineConfig,
        compute: NodeId,
        pool: NodeId,
        qpns: (QpNum, QpNum, QpNum, QpNum, QpNum, QpNum),
        channel_rkey: Rkey,
        activate_after: Option<Duration>,
    ) -> usize {
        let (lc, rc, lp, rp, lprobe, rprobe) = qpns;
        self.nic.create_qp(QpConfig::new(lc, rc), compute);
        self.nic.create_qp(QpConfig::new(lp, rp), pool);
        self.nic.create_qp(QpConfig::new(lprobe, rprobe), compute);
        let index = self.slots.len();
        let wr_base = (index as u64) << WR_INSTANCE_SHIFT;
        let core = EngineCore::new(cfg);
        let standby = activate_after.is_some();
        let slot = Slot::new(core, [lc, lprobe, lp], channel_rkey, wr_base, standby);
        self.slots.push(slot);
        self.activate_after.push(activate_after);
        index
    }

    /// Inspection hook for experiments.
    pub fn core(&self, instance: usize) -> &EngineCore {
        &self.slots[instance].core
    }

    /// Total wire traffic the engine has injected (bytes of probes),
    /// derived from stats; used by the overhead experiments.
    pub fn nic_stats(&self) -> &rdma::sim::NicStats {
        &self.nic.stats
    }

    /// Direct NIC access (diagnostics).
    pub fn nic(&self) -> &SimNic {
        &self.nic
    }

    /// Push virtual time into every instance's telemetry recorder and cycle
    /// profiler so events and attribution scopes carry simulated
    /// timestamps. One relaxed store per enabled sink; a no-op for disabled
    /// ones.
    fn stamp_now(&self, ctx: &Ctx) {
        let ns = ctx.now().nanos();
        for slot in &self.slots {
            slot.core.recorder().set_now_ns(ns);
            slot.core.profiler().set_now_ns(ns);
        }
    }

    /// Reap the CQ, routing each completion to its instance's slot by the
    /// index in its WR id. Each read completion carries its own landed
    /// buffer; the steady-state reap path allocates nothing.
    fn drain_completions(&mut self, ctx: &mut Ctx) {
        let mut comps = std::mem::take(&mut self.cq_scratch);
        let mut port = SimPort {
            nic: &mut self.nic,
            ctx,
            probe_prio: self.probe_prio,
            data_prio: self.data_prio,
        };
        loop {
            comps.clear();
            port.poll_into(&mut comps);
            if comps.is_empty() {
                break;
            }
            for c in comps.drain(..) {
                let i = (c.wr_id >> WR_INSTANCE_SHIFT) as usize;
                let slot = &mut self.slots[i];
                if slot.complete(&mut port, c) {
                    // A standby won its election: start probing.
                    port.ctx.set_timer(slot.core.probe_interval(), i as u64);
                }
            }
        }
        self.cq_scratch = comps;
    }
}

impl Node for EngineNode {
    fn on_start(&mut self, ctx: &mut Ctx) {
        let n = self.slots.len() as u64;
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(after) = self.activate_after[i] {
                // Standby: wake up later and begin the takeover.
                ctx.set_timer(after, TAG_ACTIVATE_BASE + i as u64);
                continue;
            }
            // Stagger probe start per instance (round-robin TDM, §5.4).
            let d = slot.core.probe_interval();
            ctx.set_timer(d * (i as u64 + 1) / n, i as u64);
        }
        ctx.set_timer(self.nic_tick, TAG_NIC_TICK);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        self.stamp_now(ctx);
        self.nic.deliver(pkt, self.data_prio, ctx);
        self.drain_completions(ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx) {
        self.stamp_now(ctx);
        if tag == TAG_NIC_TICK {
            self.nic.tick_and_send(self.data_prio, ctx);
            ctx.set_timer(self.nic_tick, TAG_NIC_TICK);
            return;
        }
        let (i, activate) = match tag.checked_sub(TAG_ACTIVATE_BASE) {
            Some(i) => (i as usize, true),
            None => (tag as usize, false),
        };
        let Some(slot) = self.slots.get_mut(i) else {
            return;
        };
        let mut port = SimPort {
            nic: &mut self.nic,
            ctx,
            probe_prio: self.probe_prio,
            data_prio: self.data_prio,
        };
        match (activate, slot.is_active()) {
            (true, false) => slot.begin_takeover(&mut port),
            (false, true) => {
                slot.probe(&mut port);
                let d = slot.core.next_probe_interval();
                port.ctx.set_timer(d, tag);
            }
            // A standby woken after it began serving, or the probe timer
            // of an instance that does not serve.
            _ => {}
        }
    }
}

/// The memory pool: pure one-sided responder.
pub struct PoolNode {
    pub nic: SimNic,
    nic_tick: Duration,
}

impl Default for PoolNode {
    fn default() -> Self {
        Self::new()
    }
}

impl PoolNode {
    pub fn new() -> PoolNode {
        PoolNode {
            nic: SimNic::new(),
            nic_tick: Duration::from_micros(50),
        }
    }

    /// Register memory (pool memory, or a channel region); returns its
    /// rkey.
    pub fn register(&mut self, region: Region) -> Rkey {
        self.nic.register(region)
    }

    /// Accept a connection from `peer`.
    pub fn create_qp(&mut self, local: QpNum, remote: QpNum, peer: NodeId) {
        self.nic.create_qp(QpConfig::new(local, remote), peer);
    }
}

impl Node for PoolNode {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.nic_tick, TAG_NIC_TICK);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        self.nic.deliver(pkt, 1, ctx);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx) {
        self.nic.tick_and_send(1, ctx);
        ctx.set_timer(self.nic_tick, TAG_NIC_TICK);
    }
}

/// A compute node whose NIC hosts Cowbird channel regions. The application
/// model is external: experiments subclass behaviour via timers in their own
/// nodes; this node only services the engine's RDMA traffic (which is the
/// point — the host CPU does nothing for it).
pub struct ComputeNicNode {
    pub nic: SimNic,
    nic_tick: Duration,
}

impl Default for ComputeNicNode {
    fn default() -> Self {
        Self::new()
    }
}

impl ComputeNicNode {
    pub fn new() -> ComputeNicNode {
        ComputeNicNode {
            nic: SimNic::new(),
            nic_tick: Duration::from_micros(50),
        }
    }

    pub fn register(&mut self, region: Region) -> Rkey {
        self.nic.register(region)
    }

    pub fn create_qp(&mut self, local: QpNum, remote: QpNum, peer: NodeId) {
        self.nic.create_qp(QpConfig::new(local, remote), peer);
    }
}

impl Node for ComputeNicNode {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.nic_tick, TAG_NIC_TICK);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        self.nic.deliver(pkt, 1, ctx);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx) {
        self.nic.tick_and_send(1, ctx);
        ctx.set_timer(self.nic_tick, TAG_NIC_TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cowbird::channel::Channel;
    use cowbird::layout::ChannelLayout;
    use cowbird::region::{RegionMap, RemoteRegion};
    use simnet::link::{LinkId, LinkParams};
    use simnet::sim::Sim;
    use simnet::time::Duration;

    /// Full topology: compute NIC <-> engine <-> pool, with the client
    /// channel driven from outside the simulator (its ops are pure memory
    /// writes, so interleaving with `run_for` is sound). Also returns the
    /// engine -> compute link.
    fn build() -> (Sim, Channel, NodeId, Region, LinkId) {
        let mut sim = Sim::new(42);
        let compute_id = NodeId(0);
        let engine_id = NodeId(1);
        let pool_id = NodeId(2);

        let pool_mem = Region::new(1 << 20);
        let mut pool = PoolNode::new();
        let pool_rkey = pool.register(pool_mem.clone());
        pool.create_qp(201, 102, engine_id);

        let mut regions = RegionMap::new();
        regions.insert(
            1,
            RemoteRegion {
                rkey: pool_rkey,
                base: 0,
                size: 1 << 20,
            },
        );

        let layout = ChannelLayout::default_sizes();
        let ch = Channel::new(0, layout, regions.clone());

        let mut compute = ComputeNicNode::new();
        let channel_rkey = compute.register(ch.region().clone());
        compute.create_qp(301, 101, engine_id);
        compute.create_qp(302, 103, engine_id);

        let mut engine = EngineNode::new();
        engine.add_instance(
            EngineConfig::spot(layout, regions, 16).with_probe_interval(Duration::from_micros(2)),
            compute_id,
            pool_id,
            (101, 301, 102, 201, 103, 302),
            channel_rkey,
        );

        sim.add_node(Box::new(compute));
        sim.add_node(Box::new(engine));
        sim.add_node(Box::new(pool));
        let (_, to_compute) = sim.connect(compute_id, engine_id, LinkParams::rack_100g());
        sim.connect(engine_id, pool_id, LinkParams::rack_100g());
        (sim, ch, engine_id, pool_mem, to_compute)
    }

    #[test]
    fn end_to_end_read_over_simulated_fabric() {
        let (mut sim, mut ch, _engine, pool_mem, _) = build();
        pool_mem.write(500, b"from the pool").unwrap();
        let h = ch.async_read(1, 500, 13).unwrap();
        sim.run_for(Duration::from_millis(1));
        assert!(ch.is_complete(h.id));
        assert_eq!(ch.take_response(&h).unwrap(), b"from the pool");
    }

    #[test]
    fn end_to_end_write_over_simulated_fabric() {
        let (mut sim, mut ch, _engine, pool_mem, _) = build();
        let id = ch.async_write(1, 4096, b"persisted").unwrap();
        sim.run_for(Duration::from_millis(1));
        assert!(ch.is_complete(id));
        assert_eq!(pool_mem.read_vec(4096, 9).unwrap(), b"persisted");
    }

    #[test]
    fn pipelined_requests_all_complete() {
        let (mut sim, mut ch, engine_id, pool_mem, _) = build();
        for i in 0..64u64 {
            pool_mem.write(i * 64, &[i as u8; 64]).unwrap();
        }
        let handles: Vec<_> = (0..64u64)
            .map(|i| ch.async_read(1, i * 64, 64).unwrap())
            .collect();
        sim.run_for(Duration::from_millis(2));
        for (i, h) in handles.iter().enumerate() {
            assert!(ch.is_complete(h.id), "read {i}");
            let data = ch.take_response(h).unwrap();
            assert!(data.iter().all(|&b| b == i as u8));
        }
        let engine: &EngineNode = sim.node_ref(engine_id);
        let stats = engine.core(0).stats;
        assert!(stats.batches_flushed < 64, "batching must coalesce");
        assert!(stats.probes_sent > 0);
    }

    #[test]
    fn probe_traffic_rides_lowest_priority() {
        let (mut sim, mut ch, engine_id, pool_mem, to_compute) = build();
        let engine: &EngineNode = sim.node_ref(engine_id);
        let (probe, data) = (engine.probe_prio as usize, engine.data_prio as usize);
        // Idle channel: the engine sends the compute node nothing but
        // probes, all of them in the lowest class.
        sim.run_for(Duration::from_millis(1));
        let idle = sim.link_stats(to_compute).clone();
        assert_eq!(probe, 7);
        assert!(idle.busy_by_prio[probe] > Duration::ZERO, "probes flowed");
        assert_eq!(idle.busy_total(), idle.busy_by_prio[probe]);
        assert_eq!(idle.busy_by_prio[data], Duration::ZERO);
        // One read puts its metadata fetch and response write on the data
        // class.
        pool_mem.write(64, b"data").unwrap();
        let h = ch.async_read(1, 64, 4).unwrap();
        sim.run_for(Duration::from_millis(1));
        assert_eq!(ch.take_response(&h).unwrap(), b"data");
        assert!(sim.link_stats(to_compute).busy_by_prio[data] > Duration::ZERO);
    }
}
