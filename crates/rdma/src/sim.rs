//! An RNIC as a passive component of a `simnet` node.
//!
//! Every performance experiment gives each simulated machine (compute node,
//! memory pool, spot VM) a [`SimNic`]: a bundle of queue pairs, a memory
//! translation table and a completion queue. The owning `simnet::Node`
//! forwards inbound packets to [`SimNic::deliver`], which transmits
//! whatever comes back; crucially, **none of this consumes any
//! simulated host CPU** — exactly like a real RNIC executing one-sided
//! operations — unless the host explicitly posts/polls, at which point the
//! experiment charges [`crate::CostModel`] time to the calling thread.

use simnet::fasthash::FastHashMap;

use simnet::link::CORRUPT_FLAG;
use simnet::pool::{BufArena, PoolBuf};
use simnet::sim::{Ctx, NodeId, Packet};
use simnet::time::Instant;
use telemetry::profile::{Phase, Profiler};
use telemetry::{Component, EventKind, Recorder};

use crate::mem::{Region, RegionCatalog, Rkey};
use crate::qp::{Qp, QpConfig, QpError, QpNum, QpOutput};
use crate::verbs::{Completion, CompletionQueue, WorkRequest};
use crate::wire::RocePacket;

/// Result of feeding one inbound packet to the NIC.
#[derive(Default, Debug)]
pub struct NicOutput {
    /// Packets to transmit, tagged with the destination node.
    pub emit: Vec<(NodeId, RocePacket)>,
    /// Two-sided receive payloads, tagged with the local QP they arrived on.
    pub receives: Vec<(QpNum, PoolBuf)>,
}

impl NicOutput {
    /// Empty both queues, keeping capacity — pair with the `*_into` entry
    /// points so one scratch `NicOutput` serves a node's whole lifetime.
    pub fn clear(&mut self) {
        self.emit.clear();
        self.receives.clear();
    }
}

/// Per-NIC statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct NicStats {
    pub rx_packets: u64,
    pub rx_dropped_corrupt: u64,
    pub rx_dropped_unroutable: u64,
    /// Rkeys revoked via [`SimNic::revoke_rkey`] (pool-side fencing).
    pub rkeys_revoked: u64,
}

impl NicStats {
    /// Export into a metrics registry under `rdma.nic.*`.
    pub fn export(&self, reg: &telemetry::MetricsRegistry, labels: &[(&str, &str)]) {
        reg.counter_add("rdma.nic.rx_packets", labels, self.rx_packets);
        reg.counter_add(
            "rdma.nic.rx_dropped_corrupt",
            labels,
            self.rx_dropped_corrupt,
        );
        reg.counter_add(
            "rdma.nic.rx_dropped_unroutable",
            labels,
            self.rx_dropped_unroutable,
        );
        reg.counter_add("rdma.nic.rkeys_revoked", labels, self.rkeys_revoked);
    }
}

/// `PacketDropped` telemetry reason: integrity (iCRC stand-in) failure.
pub const DROP_REASON_CORRUPT: u64 = 1;
/// `PacketDropped` telemetry reason: no QP with the packet's destination qpn.
pub const DROP_REASON_UNROUTABLE: u64 = 2;

/// Idle buffers a NIC keeps pooled (header-only frames and by-reference
/// copies in flight at once; generously above any driver's working set).
const NIC_ARENA_DEPTH: usize = 128;

/// A software RNIC for simulation.
pub struct SimNic {
    /// Memory translation & protection table.
    pub catalog: RegionCatalog,
    /// Completion queue shared by all QPs (one CQ suffices for our drivers).
    pub cq: CompletionQueue,
    qps: FastHashMap<QpNum, Qp>,
    /// Where each local QP's peer lives.
    peer_node: FastHashMap<QpNum, NodeId>,
    pub stats: NicStats,
    /// Telemetry sink (disabled by default; one branch per event).
    rec: Recorder,
    /// Cycle-attribution sink for the verb paths (disabled by default; one
    /// branch per post/poll scope).
    prof: Profiler,
    /// Recycled buffers for the frames this NIC builds itself: header-only
    /// packets (payload frames travel in the buffer their payload was read
    /// into) and the copies the by-reference entry points make.
    arena: BufArena,
    /// Per-packet QP output scratch, reused across deliveries so the steady
    /// state allocates nothing.
    qp_scratch: QpOutput,
    /// Output scratch of [`SimNic::deliver`], likewise reused.
    out_scratch: NicOutput,
    /// Packet-build scratch for posts and retransmission sweeps.
    tx_scratch: Vec<RocePacket>,
}

impl Default for SimNic {
    fn default() -> Self {
        Self::new()
    }
}

impl SimNic {
    pub fn new() -> SimNic {
        SimNic {
            catalog: RegionCatalog::new(),
            cq: CompletionQueue::new(),
            qps: FastHashMap::default(),
            peer_node: FastHashMap::default(),
            stats: NicStats::default(),
            rec: Recorder::disabled(),
            prof: Profiler::disabled(),
            arena: BufArena::new(NIC_ARENA_DEPTH),
            qp_scratch: QpOutput::default(),
            out_scratch: NicOutput::default(),
            tx_scratch: Vec::new(),
        }
    }

    /// The NIC's buffer arena, which its outbound frames are built from
    /// (hit-rate observability; see [`simnet::pool::ArenaStats`]).
    pub fn buf_arena(&self) -> &BufArena {
        &self.arena
    }

    /// Attach a telemetry recorder (flight recorder). Disabled by default.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    /// This NIC's telemetry recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Attach a cycle profiler: the verb entry points ([`Self::post_chain`],
    /// [`Self::poll_into`]) then charge their CPU time to the NIC's account.
    /// Disabled by default.
    pub fn set_profiler(&mut self, prof: Profiler) {
        self.prof = prof;
    }

    /// This NIC's cycle profiler.
    pub fn profiler(&self) -> &Profiler {
        &self.prof
    }

    /// Revoke a registered rkey: the pool-side fence. Every subsequent verb
    /// that names this rkey is NAK'd at the responder, so a fenced (zombie)
    /// engine's one-sided reads and writes **fail closed** — its requester
    /// replays into NAKs forever and never sees a completion, and no data
    /// transfer takes effect. Returns whether the rkey was registered.
    pub fn revoke_rkey(&mut self, rkey: Rkey) -> bool {
        let revoked = self.catalog.deregister(rkey).is_some();
        if revoked {
            self.stats.rkeys_revoked += 1;
            self.rec
                .record(Component::Pool, EventKind::RkeyRevoked, 0, rkey as u64, 0);
        }
        revoked
    }

    /// Export NIC drop counters plus per-QP verb counters into a metrics
    /// registry (`rdma.nic.*` and `rdma.qp.*`, summed over this NIC's QPs).
    pub fn export_metrics(&self, reg: &telemetry::MetricsRegistry, labels: &[(&str, &str)]) {
        self.stats.export(reg, labels);
        let mut total = crate::qp::QpCounters::default();
        for qp in self.qps.values() {
            total.accumulate(&qp.counters);
        }
        total.export(reg, labels);
    }

    /// Register a memory region, returning its rkey.
    pub fn register(&mut self, region: Region) -> Rkey {
        self.catalog.register(region)
    }

    /// Create a queue pair whose peer lives on `peer`.
    pub fn create_qp(&mut self, cfg: QpConfig, peer: NodeId) -> QpNum {
        let qpn = cfg.qpn;
        assert!(
            self.qps.insert(qpn, Qp::new(cfg)).is_none(),
            "duplicate qpn {qpn}"
        );
        self.peer_node.insert(qpn, peer);
        qpn
    }

    pub fn qp(&self, qpn: QpNum) -> Option<&Qp> {
        self.qps.get(&qpn)
    }

    pub fn qp_mut(&mut self, qpn: QpNum) -> Option<&mut Qp> {
        self.qps.get_mut(&qpn)
    }

    /// Host post of a WR *chain* (a single WR is a chain of one): appends
    /// the generated packets into a caller-owned scratch and returns the
    /// peer node they are addressed to. Every work request is packetized
    /// under a single `PostWqe` scope — the chained analogue of one lock
    /// acquisition and one doorbell ring covering the whole linked list.
    /// On the emulated fabric the scope measures wall time under the NIC
    /// lock; on the simulator it counts the verb and charges whatever
    /// virtual time the driver advanced (usually zero). WQEs are enqueued
    /// in order on the same QP, so completion order matches chain order
    /// exactly as on hardware.
    ///
    /// Fails atomically-per-WR: if WR `i` is rejected (queue full, bad
    /// lkey), WRs `0..i` are already posted and their packets appended —
    /// mirroring `ibv_post_send`'s `bad_wr` semantics. Our drivers treat
    /// any error as fatal for the engine instance.
    pub fn post_chain(
        &mut self,
        qpn: QpNum,
        wrs: impl IntoIterator<Item = WorkRequest>,
        now: Instant,
        out: &mut Vec<RocePacket>,
    ) -> Result<NodeId, QpError> {
        let _scope = self.prof.scope(Phase::PostWqe);
        let peer = *self.peer_node.get(&qpn).expect("unknown qpn");
        let qp = self.qps.get_mut(&qpn).expect("unknown qpn");
        for wr in wrs {
            qp.post_into(wr, &self.catalog, now, out)?;
        }
        Ok(peer)
    }

    /// Host poll (charges one poll call in the CQ accounting): appends
    /// into a caller-owned scratch vector, so reaps are allocation-free.
    /// Returns the number of completions appended.
    pub fn poll_into(&mut self, max: usize, out: &mut Vec<Completion>) -> usize {
        let _scope = self.prof.scope(Phase::PollCqe);
        self.cq.poll_into(max, out)
    }

    /// Node entry point: receive `pkt`, execute it against this NIC's QPs
    /// and memory, and transmit every packet that comes back at `prio`.
    /// The frame is parsed in place and response frames are built in place,
    /// so a payload byte is touched once on the way in (frame to region)
    /// and once on the way out (region to frame); an owned read's response
    /// is not touched at all — its frame buffer reaches the poster in the
    /// completion ([`crate::verbs::WrOp::ReadOwned`]). Two-sided receive
    /// payloads are not surfaced here; a driver that wants them calls
    /// [`SimNic::receive`].
    pub fn deliver(&mut self, pkt: Packet, prio: u8, ctx: &mut Ctx) {
        let mut out = std::mem::take(&mut self.out_scratch);
        self.receive(pkt, ctx.now(), &mut out);
        for (dst, roce) in out.emit.drain(..) {
            self.send(dst, roce, prio, ctx);
        }
        out.receives.clear();
        self.out_scratch = out;
    }

    /// Node entry point: post `wr` on `qpn` and transmit its packets at
    /// `prio`, through reused scratch — no per-WR allocation in steady
    /// state.
    pub fn post_and_send(
        &mut self,
        qpn: QpNum,
        wr: WorkRequest,
        prio: u8,
        ctx: &mut Ctx,
    ) -> Result<(), QpError> {
        let mut pkts = std::mem::take(&mut self.tx_scratch);
        let posted = self.post_chain(qpn, [wr], ctx.now(), &mut pkts);
        if let Ok(dst) = posted {
            for roce in pkts.drain(..) {
                self.send(dst, roce, prio, ctx);
            }
        }
        self.tx_scratch = pkts;
        posted.map(drop)
    }

    /// Node entry point: the periodic retransmission sweep across all QPs,
    /// replays transmitted at `prio`.
    pub fn tick_and_send(&mut self, prio: u8, ctx: &mut Ctx) {
        for (dst, roce) in self.tick(ctx.now()) {
            self.send(dst, roce, prio, ctx);
        }
    }

    /// Transmit `roce`, its payload buffer becoming the frame.
    fn send(&self, dst: NodeId, roce: RocePacket, prio: u8, ctx: &mut Ctx) {
        let wire_size = roce.wire_size();
        let frame = roce.into_frame(&self.arena);
        ctx.send(Packet::new(ctx.node_id(), dst, wire_size, frame).with_prio(prio));
    }

    /// Feed an inbound simnet packet by reference, appending into a
    /// caller-owned scratch `NicOutput` ([`NicOutput::clear`] between
    /// deliveries). The by-reference twin of [`SimNic::receive`]: it copies
    /// the frame into an arena buffer to own it.
    pub fn handle_packet_into(&mut self, pkt: &Packet, now: Instant, out: &mut NicOutput) {
        let owned = Packet {
            payload: self.arena.take_copy(&pkt.payload),
            ..*pkt
        };
        self.receive(owned, now, out);
    }

    /// Receive an owned frame: parse it in place, execute it against this
    /// NIC's QPs and memory, and append what comes back onto `out`. The
    /// one receive path of both fabrics — [`SimNic::deliver`] and the
    /// emulated fabric's service thread run it.
    pub fn receive(&mut self, pkt: Packet, now: Instant, out: &mut NicOutput) {
        self.stats.rx_packets += 1;
        // iCRC failure (drop; Go-Back-N recovers) or a frame that does not
        // parse: both count as corrupt.
        let corrupt = pkt.meta & CORRUPT_FLAG != 0;
        match RocePacket::parse_frame(pkt.payload) {
            Ok(roce) if !corrupt => self.handle_roce_into(roce, now, out),
            _ => {
                self.stats.rx_dropped_corrupt += 1;
                self.rec.record(
                    Component::Nic,
                    EventKind::PacketDropped,
                    0,
                    DROP_REASON_CORRUPT,
                    0,
                );
            }
        }
    }

    /// Execute a parsed RoCE packet; appends onto `out`.
    fn handle_roce_into(&mut self, mut roce: RocePacket, now: Instant, out: &mut NicOutput) {
        let qpn = roce.bth.dst_qp;
        let Some(qp) = self.qps.get_mut(&qpn) else {
            self.stats.rx_dropped_unroutable += 1;
            self.rec.record(
                Component::Nic,
                EventKind::PacketDropped,
                0,
                DROP_REASON_UNROUTABLE,
                qpn as u64,
            );
            return;
        };
        let peer = *self.peer_node.get(&qpn).expect("qp without peer");
        self.qp_scratch.clear();
        qp.receive_into(&mut roce, &self.catalog, now, &mut self.qp_scratch);
        self.cq.push_all(&mut self.qp_scratch.completions);
        out.emit
            .extend(self.qp_scratch.emit.drain(..).map(|p| (peer, p)));
        out.receives
            .extend(self.qp_scratch.receives.drain(..).map(|r| (qpn, r)));
    }

    /// Retransmission sweep across all QPs; call on a periodic timer.
    /// Allocates only when something is actually replayed.
    pub fn tick(&mut self, now: Instant) -> Vec<(NodeId, RocePacket)> {
        let mut out = Vec::new();
        for (qpn, qp) in self.qps.iter_mut() {
            let peer = self.peer_node[qpn];
            qp.tick_into(now, &self.catalog, &mut self.tx_scratch);
            out.extend(self.tx_scratch.drain(..).map(|p| (peer, p)));
        }
        out
    }

    /// Encode `roce` into a simnet packet whose payload buffer is borrowed
    /// from this NIC's arena. The buffer recycles when the simulated
    /// delivery drops it. By-reference, so the payload is copied into the
    /// frame; [`SimNic::deliver`] and friends move it instead.
    pub fn make_packet(&self, src: NodeId, dst: NodeId, roce: &RocePacket, prio: u8) -> Packet {
        Packet::new(src, dst, roce.wire_size(), roce.to_frame(&self.arena)).with_prio(prio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verbs::WrOp;

    /// Convert a RoCE packet into a simnet packet (the reference codec).
    fn to_sim_packet(roce: &RocePacket) -> Packet {
        Packet::new(NodeId(1), NodeId(0), roce.wire_size(), roce.encode())
    }

    /// Receive `pkt` on `nic`; returns the packets it transmits.
    fn feed(nic: &mut SimNic, pkt: Packet) -> Vec<(NodeId, RocePacket)> {
        let mut out = NicOutput::default();
        nic.receive(pkt, Instant::ZERO, &mut out);
        out.emit
    }

    /// Post `wr` on `qpn`; returns its packets, addressed to the peer.
    fn post(nic: &mut SimNic, qpn: QpNum, wr: WorkRequest) -> Vec<(NodeId, RocePacket)> {
        let mut pkts = Vec::new();
        let peer = nic.post_chain(qpn, [wr], Instant::ZERO, &mut pkts).unwrap();
        pkts.into_iter().map(|p| (peer, p)).collect()
    }

    fn poll(nic: &mut SimNic) -> Vec<Completion> {
        let mut done = Vec::new();
        nic.poll_into(16, &mut done);
        done
    }

    /// Drive two SimNics against each other with a lossless in-test "wire".
    fn pump(a: &mut SimNic, a_id: NodeId, b: &mut SimNic, start: Vec<(NodeId, RocePacket)>) {
        let mut queue = start;
        while let Some((dst, roce)) = queue.pop() {
            let nic = if dst == a_id { &mut *a } else { &mut *b };
            queue.extend(feed(nic, to_sim_packet(&roce)));
        }
    }

    #[test]
    fn end_to_end_read_through_nics() {
        let a_id = NodeId(0);
        let b_id = NodeId(1);
        let mut a = SimNic::new();
        let mut b = SimNic::new();
        let local = Region::new(256);
        let remote = Region::new(256);
        remote.write(64, b"payload").unwrap();
        let lkey = a.register(local.clone());
        let rkey = b.register(remote);
        a.create_qp(QpConfig::new(10, 20), b_id);
        b.create_qp(QpConfig::new(20, 10), a_id);

        let read = WorkRequest {
            wr_id: 1,
            op: WrOp::Read {
                local_rkey: lkey,
                local_addr: 0,
                remote_addr: 64,
                remote_rkey: rkey,
                len: 7,
            },
        };
        let pkts = post(&mut a, 10, read);
        pump(&mut a, a_id, &mut b, pkts);
        let done = poll(&mut a);
        assert_eq!(done.len(), 1);
        assert!(done[0].is_ok());
        assert_eq!(local.read_vec(0, 7).unwrap(), b"payload");
    }

    #[test]
    fn corrupt_packets_are_dropped() {
        let mut nic = SimNic::new();
        nic.create_qp(QpConfig::new(1, 2), NodeId(1));
        let roce = RocePacket::ack(1, 0, 0);
        let pkt = to_sim_packet(&roce).with_meta(CORRUPT_FLAG);
        assert!(feed(&mut nic, pkt).is_empty());
        assert_eq!(nic.stats.rx_dropped_corrupt, 1);
    }

    #[test]
    fn unroutable_qpn_is_counted() {
        let mut nic = SimNic::new();
        let roce = RocePacket::ack(99, 0, 0);
        feed(&mut nic, to_sim_packet(&roce));
        assert_eq!(nic.stats.rx_dropped_unroutable, 1);
    }

    #[test]
    fn revoked_rkey_fails_closed() {
        let a_id = NodeId(0);
        let b_id = NodeId(1);
        let mut a = SimNic::new();
        let mut b = SimNic::new();
        let local = Region::new(256);
        local.write(0, b"poison").unwrap();
        let remote = Region::new(256);
        let lkey = a.register(local);
        let rkey = b.register(remote.clone());
        a.create_qp(QpConfig::new(10, 20), b_id);
        b.create_qp(QpConfig::new(20, 10), a_id);

        let ring = std::sync::Arc::new(telemetry::EventRing::with_capacity(64));
        b.set_recorder(Recorder::attached(std::sync::Arc::clone(&ring), 1, true));
        assert!(b.revoke_rkey(rkey), "rkey was registered");
        assert!(!b.revoke_rkey(rkey), "second revoke is a no-op");
        assert_eq!(b.stats.rkeys_revoked, 1);
        let revs: Vec<_> = ring
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == EventKind::RkeyRevoked)
            .collect();
        assert_eq!(revs.len(), 1);
        assert_eq!(revs[0].a, rkey as u64);

        // A write against the revoked rkey: the responder NAKs, the
        // requester replays into more NAKs, and no completion ever arrives.
        // (Bounded rounds here — a real deployment tears the zombie down.)
        let write = WorkRequest {
            wr_id: 9,
            op: WrOp::Write {
                local_rkey: lkey,
                local_addr: 0,
                remote_addr: 0,
                remote_rkey: rkey,
                len: 6,
            },
        };
        let mut to_b = post(&mut a, 10, write);
        for _ in 0..3 {
            let mut to_a = Vec::new();
            for (_, roce) in to_b.drain(..) {
                to_a.extend(feed(&mut b, to_sim_packet(&roce)));
            }
            for (_, roce) in to_a {
                to_b.extend(feed(&mut a, to_sim_packet(&roce)));
            }
        }
        assert!(
            poll(&mut a).is_empty(),
            "revoked-rkey write must not complete"
        );
        assert!(b.qp(20).unwrap().counters.naks_tx >= 1);
        assert_eq!(
            remote.read_vec(0, 6).unwrap(),
            vec![0; 6],
            "no bytes may land through a revoked rkey"
        );
    }

    #[test]
    fn garbage_payload_is_dropped_not_panicking() {
        let mut nic = SimNic::new();
        let pkt = Packet::new(NodeId(1), NodeId(0), 64, vec![0xFF; 5]);
        assert!(feed(&mut nic, pkt.clone()).is_empty());
        assert_eq!(nic.stats.rx_dropped_corrupt, 1);
        // The by-reference path copies the frame and then takes the same
        // receive path.
        let mut out = NicOutput::default();
        nic.handle_packet_into(&pkt, Instant::ZERO, &mut out);
        assert!(out.emit.is_empty());
        assert_eq!(nic.stats.rx_dropped_corrupt, 2);
        assert_eq!(nic.stats.rx_packets, 2);
    }
}
