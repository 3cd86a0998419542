//! Reliable-connection queue pairs: PSN sequencing, MTU segmentation,
//! responder execution, and Go-Back-N recovery.
//!
//! A [`Qp`] is a *passive* state machine: it never touches a wire or a clock
//! by itself. Drivers (the simulated NIC node, the emulated NIC thread, or
//! the Cowbird-P4 switch pipeline) feed it packets and ticks and transmit
//! whatever it emits. This keeps the protocol testable in isolation and lets
//! radically different substrates share one implementation.
//!
//! Semantics follow the InfiniBand RC transport as profiled in the paper:
//!
//! * RDMA READ requests consume as many PSNs as the response has segments.
//! * RDMA WRITEs segment at the path MTU into First/Middle/Last (or Only)
//!   packets; the last packet requests an ACK.
//! * ACKs are cumulative; a NAK with PSN-sequence-error syndrome or a local
//!   timeout triggers Go-Back-N: every un-acknowledged WQE from the NAK
//!   point is replayed (paper §5.3 uses the same recovery on the switch).
//! * Responder-side, out-of-order packets generate a NAK for the expected
//!   PSN and are dropped; duplicate reads are re-executed (idempotent).

use std::collections::VecDeque;

use simnet::pool::{BufArena, PoolBuf};
use simnet::time::{Duration, Instant};

use crate::mem::{MemError, Region, RegionCatalog};
use crate::verbs::{Completion, CompletionStatus, WorkRequest, WrKind, WrOp};
use crate::wire::{Aeth, Bth, Opcode, Reth, RocePacket, Syndrome, FRAME_HEADROOM};

/// Queue pair number (24 bits on the wire).
pub type QpNum = u32;

/// Static QP configuration.
#[derive(Clone, Debug)]
pub struct QpConfig {
    /// Our queue pair number (packets addressed to us carry it).
    pub qpn: QpNum,
    /// The peer's queue pair number (we address packets to it).
    pub peer_qpn: QpNum,
    /// Path MTU in bytes.
    pub mtu: usize,
    /// Requester retransmission timeout (Go-Back-N trigger).
    pub retransmit_timeout: Duration,
    /// Initial send PSN.
    pub initial_psn: u32,
}

impl QpConfig {
    pub fn new(qpn: QpNum, peer_qpn: QpNum) -> QpConfig {
        QpConfig {
            qpn,
            peer_qpn,
            mtu: crate::wire::DEFAULT_MTU,
            retransmit_timeout: Duration::from_micros(100),
            initial_psn: 0,
        }
    }

    pub fn with_mtu(mut self, mtu: usize) -> QpConfig {
        assert!(mtu > 0);
        self.mtu = mtu;
        self
    }

    pub fn with_retransmit_timeout(mut self, t: Duration) -> QpConfig {
        self.retransmit_timeout = t;
        self
    }
}

/// Errors surfaced to the poster.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QpError {
    /// A local memory access failed (bad lkey or bounds).
    Mem(MemError),
    /// Too many outstanding WQEs.
    SendQueueFull,
}

impl From<MemError> for QpError {
    fn from(e: MemError) -> QpError {
        QpError::Mem(e)
    }
}

impl std::fmt::Display for QpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QpError::Mem(e) => write!(f, "memory error: {e}"),
            QpError::SendQueueFull => write!(f, "send queue full"),
        }
    }
}

impl std::error::Error for QpError {}

/// Things a QP asks its driver to do after handling an event.
#[derive(Default, Debug)]
pub struct QpOutput {
    /// Packets to transmit toward the peer.
    pub emit: Vec<RocePacket>,
    /// Completed work requests (requester side).
    pub completions: Vec<Completion>,
    /// Payloads delivered by inbound SENDs (two-sided receive path).
    /// Arena-recycled: dropping a payload returns its buffer to the QP.
    pub receives: Vec<PoolBuf>,
}

impl QpOutput {
    /// Empty all three queues, keeping their capacity — so one `QpOutput`
    /// scratch can serve every [`Qp::handle_into`] call without reallocating.
    pub fn clear(&mut self) {
        self.emit.clear();
        self.completions.clear();
        self.receives.clear();
    }
}

/// Alias kept for the public API surface.
pub type QpEvent = QpOutput;

#[derive(Debug)]
struct OutstandingWqe {
    wr_id: u64,
    kind: WrKind,
    first_psn: u32,
    /// Number of PSNs this WQE consumes (write segments, read response
    /// segments, or 1).
    npsn: u32,
    /// Original operation, kept so Go-Back-N can regenerate the packets.
    op: WrOp,
    /// Read progress: bytes of response payload received so far.
    read_received: u32,
    /// [`WrOp::ReadOwned`]: the first response segment's buffer, which
    /// later segments append to; handed over in the completion.
    landed: PoolBuf,
}

impl OutstandingWqe {
    fn last_psn(&self) -> u32 {
        wrap_add(self.first_psn, self.npsn - 1)
    }
}

#[inline]
fn wrap_add(psn: u32, n: u32) -> u32 {
    (psn.wrapping_add(n)) & 0x00FF_FFFF
}

/// `a <= b` in 24-bit PSN space (within half the window).
#[inline]
fn psn_le(a: u32, b: u32) -> bool {
    b.wrapping_sub(a) & 0x00FF_FFFF < 0x0080_0000
}

/// Counters for tests and experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct QpCounters {
    pub posted: u64,
    pub tx_packets: u64,
    pub rx_packets: u64,
    pub acks_rx: u64,
    pub naks_rx: u64,
    pub naks_tx: u64,
    pub retransmit_rounds: u64,
    pub dropped_out_of_order: u64,
}

impl QpCounters {
    /// Sum another QP's counters into this one (per-NIC aggregation).
    pub fn accumulate(&mut self, other: &QpCounters) {
        self.posted += other.posted;
        self.tx_packets += other.tx_packets;
        self.rx_packets += other.rx_packets;
        self.acks_rx += other.acks_rx;
        self.naks_rx += other.naks_rx;
        self.naks_tx += other.naks_tx;
        self.retransmit_rounds += other.retransmit_rounds;
        self.dropped_out_of_order += other.dropped_out_of_order;
    }

    /// Export into a metrics registry under `rdma.qp.*`.
    pub fn export(&self, reg: &telemetry::MetricsRegistry, labels: &[(&str, &str)]) {
        reg.counter_add("rdma.qp.posted", labels, self.posted);
        reg.counter_add("rdma.qp.tx_packets", labels, self.tx_packets);
        reg.counter_add("rdma.qp.rx_packets", labels, self.rx_packets);
        reg.counter_add("rdma.qp.acks_rx", labels, self.acks_rx);
        reg.counter_add("rdma.qp.naks_rx", labels, self.naks_rx);
        reg.counter_add("rdma.qp.naks_tx", labels, self.naks_tx);
        reg.counter_add("rdma.qp.retransmit_rounds", labels, self.retransmit_rounds);
        reg.counter_add(
            "rdma.qp.dropped_out_of_order",
            labels,
            self.dropped_out_of_order,
        );
    }
}

/// A reliable-connection queue pair (requester + responder halves).
pub struct Qp {
    cfg: QpConfig,
    // ---- requester state ----
    next_psn: u32,
    outstanding: VecDeque<OutstandingWqe>,
    /// Time of the last forward progress (ack or response data).
    last_progress: Instant,
    max_outstanding: usize,
    // ---- responder state ----
    expected_psn: u32,
    msn: u32,
    /// In-progress multi-segment inbound write: (rkey, next_vaddr).
    write_in_progress: Option<(u32, u64)>,
    /// In-progress multi-segment inbound send payload.
    send_in_progress: Option<PoolBuf>,
    /// NAK suppression: the expected PSN we last NAKed for. RC responders
    /// send one NAK per sequence error and stay silent until the requester
    /// makes progress — without this, a reordered burst triggers a NAK/GBN
    /// storm.
    last_nak_for: Option<u32>,
    /// Responder-side atomic response cache: `(psn, original value)` of
    /// recently executed atomics. Unlike reads, atomics must NOT be
    /// re-executed on a Go-Back-N duplicate — a replayed CAS could observe
    /// its own earlier swap and report a lost election that was won. Real
    /// RNICs keep a small "responder resources" table for exactly this;
    /// duplicates are answered from the cache.
    atomic_responses: VecDeque<(u32, u64)>,
    /// Recycled payload buffers for every copy this QP makes: outbound
    /// write/send segments, responder read-response chunks, inbound send
    /// deliveries. Sticky capacity makes the steady state allocation-free.
    arena: BufArena,
    pub counters: QpCounters,
}

/// Responder atomic-response cache depth (IBTA "responder resources").
const ATOMIC_CACHE_DEPTH: usize = 16;

/// Idle payload buffers a QP keeps pooled. In-flight payloads at any instant
/// are bounded by the segment fan-out of a handful of ops, so a modest cap
/// recycles everything without hoarding.
const QP_ARENA_DEPTH: usize = 64;

impl Qp {
    pub fn new(cfg: QpConfig) -> Qp {
        let psn = cfg.initial_psn & 0x00FF_FFFF;
        Qp {
            next_psn: psn,
            expected_psn: psn,
            msn: 0,
            outstanding: VecDeque::new(),
            last_progress: Instant::ZERO,
            max_outstanding: 1024,
            write_in_progress: None,
            send_in_progress: None,
            last_nak_for: None,
            atomic_responses: VecDeque::new(),
            arena: BufArena::new(QP_ARENA_DEPTH),
            counters: QpCounters::default(),
            cfg,
        }
    }

    /// The QP's payload arena (observability: hit rate ≥ 99% in steady
    /// state is the "no per-op allocations" claim made measurable).
    pub fn payload_arena(&self) -> &BufArena {
        &self.arena
    }

    pub fn qpn(&self) -> QpNum {
        self.cfg.qpn
    }

    pub fn peer_qpn(&self) -> QpNum {
        self.cfg.peer_qpn
    }

    pub fn mtu(&self) -> usize {
        self.cfg.mtu
    }

    /// PSN the requester will stamp on its next packet — exported to the
    /// Cowbird-P4 control plane during Setup (paper §5.2 Phase I).
    pub fn next_psn(&self) -> u32 {
        self.next_psn
    }

    /// PSN the responder expects next.
    pub fn expected_psn(&self) -> u32 {
        self.expected_psn
    }

    /// Number of un-completed WQEs.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Post a work request; returns the packets to transmit.
    pub fn post(
        &mut self,
        wr: WorkRequest,
        cat: &RegionCatalog,
        now: Instant,
    ) -> Result<Vec<RocePacket>, QpError> {
        let mut out = Vec::new();
        self.post_into(wr, cat, now, &mut out)?;
        Ok(out)
    }

    /// Post a work request, *appending* the packets to transmit onto `out` —
    /// the scratch-reuse twin of [`Qp::post`]: a driver that keeps one
    /// packet vector across posts never allocates for it.
    pub fn post_into(
        &mut self,
        wr: WorkRequest,
        cat: &RegionCatalog,
        now: Instant,
        out: &mut Vec<RocePacket>,
    ) -> Result<(), QpError> {
        if self.outstanding.len() >= self.max_outstanding {
            return Err(QpError::SendQueueFull);
        }
        if self.outstanding.is_empty() {
            self.last_progress = now;
        }
        let first_psn = self.next_psn;
        let before = out.len();
        let (kind, npsn) = build_packets(&self.cfg, &self.arena, &wr.op, first_psn, cat, out)?;
        self.next_psn = wrap_add(self.next_psn, npsn);
        self.counters.posted += 1;
        self.counters.tx_packets += (out.len() - before) as u64;
        self.outstanding.push_back(OutstandingWqe {
            wr_id: wr.wr_id,
            kind,
            first_psn,
            npsn,
            op: wr.op,
            read_received: 0,
            landed: PoolBuf::empty(),
        });
        Ok(())
    }

    /// Feed an inbound packet. `cat` is this NIC's memory table (the
    /// responder executes one-sided ops against it; inbound read-response
    /// data lands through it as well).
    pub fn handle(&mut self, pkt: &RocePacket, cat: &RegionCatalog, now: Instant) -> QpOutput {
        let mut out = QpOutput::default();
        self.handle_into(pkt, cat, now, &mut out);
        out
    }

    /// Like [`Qp::handle`], but appends into a caller-owned scratch
    /// `QpOutput` ([`QpOutput::clear`] between packets) so the per-packet
    /// output vectors are allocated once per driver, not once per packet.
    /// By-reference, so the payload is copied once into a buffer of the
    /// QP's arena to own it; [`Qp::receive_into`] takes it from the packet.
    pub fn handle_into(
        &mut self,
        pkt: &RocePacket,
        cat: &RegionCatalog,
        now: Instant,
        out: &mut QpOutput,
    ) {
        let payload = match &pkt.payload[..] {
            [] => PoolBuf::empty(),
            bytes => self.arena.take_copy(bytes),
        };
        self.receive_into(&mut RocePacket { payload, ..*pkt }, cat, now, out);
    }

    /// Feed an inbound packet whose payload the QP may keep: a read
    /// response's payload buffer is taken out of `pkt` and becomes (or
    /// extends) its owned read's landed buffer without a copy; everything
    /// else is handled in place. Appends onto `out` like
    /// [`Qp::handle_into`].
    pub fn receive_into(
        &mut self,
        pkt: &mut RocePacket,
        cat: &RegionCatalog,
        now: Instant,
        out: &mut QpOutput,
    ) {
        self.counters.rx_packets += 1;
        let op = pkt.bth.opcode;
        if op == Opcode::Acknowledge {
            self.handle_ack(pkt, cat, now, out);
        } else if op == Opcode::AtomicAcknowledge {
            self.handle_atomic_ack(pkt, now, out);
        } else if op.is_read_response() {
            self.handle_read_response(pkt, cat, now, out);
        } else {
            self.handle_responder(pkt, cat, out);
        }
    }

    // ---------------- requester side ----------------

    fn handle_ack(
        &mut self,
        pkt: &RocePacket,
        cat: &RegionCatalog,
        now: Instant,
        out: &mut QpOutput,
    ) {
        let Some(aeth) = pkt.aeth else { return };
        match aeth.syndrome {
            Syndrome::Ack => {
                self.counters.acks_rx += 1;
                self.last_progress = now;
                // Cumulative: complete every non-read, non-atomic WQE whose
                // last PSN is <= acked PSN. (Reads complete via response
                // data; atomics via the atomic ACK that carries the
                // original value.)
                while let Some(front) = self.outstanding.front() {
                    if front.kind != WrKind::Read
                        && front.kind != WrKind::Atomic
                        && psn_le(front.last_psn(), pkt.bth.psn)
                    {
                        let w = self.outstanding.pop_front().unwrap();
                        out.completions.push(Completion::ok(w.wr_id, w.kind));
                    } else {
                        break;
                    }
                }
            }
            Syndrome::Nak(_) | Syndrome::RnrNak => {
                self.counters.naks_rx += 1;
                // Go-Back-N: replay everything outstanding.
                self.go_back_n(cat, now, &mut out.emit);
            }
        }
    }

    fn handle_read_response(
        &mut self,
        pkt: &mut RocePacket,
        cat: &RegionCatalog,
        now: Instant,
        out: &mut QpOutput,
    ) {
        // RC responses are strictly ordered: they must match the oldest
        // outstanding read WQE at its next expected PSN.
        let Some(front_idx) = self.outstanding.iter().position(|w| w.kind == WrKind::Read) else {
            // Stale response after Go-Back-N; drop.
            self.counters.dropped_out_of_order += 1;
            return;
        };
        // Reads are not allowed to overtake older writes in completion order
        // here; but response data may arrive while writes are outstanding.
        let w = &mut self.outstanding[front_idx];
        let expected = wrap_add(w.first_psn, w.read_received / self.cfg.mtu as u32);
        if pkt.bth.psn != expected {
            self.counters.dropped_out_of_order += 1;
            return;
        }
        let Some(len) = w.op.read_total_len() else {
            return;
        };
        let take = pkt.payload.len().min((len - w.read_received) as usize);
        if let WrOp::Read {
            local_rkey,
            local_addr,
            ..
        } = w.op
        {
            let at = local_addr + w.read_received as u64;
            if cat
                .remote_write(local_rkey, at, &pkt.payload[..take])
                .is_err()
            {
                out.completions.push(Completion::err(
                    w.wr_id,
                    WrKind::Read,
                    CompletionStatus::LocalError,
                ));
                self.outstanding.remove(front_idx);
                return;
            }
        } else if w.read_received == 0 {
            // An owned read keeps the first segment's frame buffer (the
            // packet is left the empty one)...
            std::mem::swap(&mut w.landed, &mut pkt.payload);
            w.landed.truncate(take);
        } else {
            // ...and appends every later segment to it.
            w.landed.extend_from_slice(&pkt.payload[..take]);
        }
        w.read_received += take as u32;
        self.last_progress = now;
        let done = matches!(
            pkt.bth.opcode,
            Opcode::ReadResponseLast | Opcode::ReadResponseOnly
        ) && w.read_received >= len;
        if done {
            let w = self.outstanding.remove(front_idx).unwrap();
            out.completions.push(Completion {
                wr_id: w.wr_id,
                kind: w.kind,
                status: CompletionStatus::Success,
                atomic_orig: None,
                data: w.landed,
            });
            // A read response also acknowledges everything before it.
            let first = w.first_psn;
            while let Some(front) = self.outstanding.front() {
                if front.kind != WrKind::Read
                    && front.kind != WrKind::Atomic
                    && psn_le(front.last_psn(), first)
                {
                    let fw = self.outstanding.pop_front().unwrap();
                    out.completions.push(Completion::ok(fw.wr_id, fw.kind));
                } else {
                    break;
                }
            }
        }
    }

    fn handle_atomic_ack(&mut self, pkt: &RocePacket, now: Instant, out: &mut QpOutput) {
        // Like read responses, atomic ACKs target the oldest outstanding
        // atomic WQE (RC responses are strictly ordered).
        let Some(idx) = self
            .outstanding
            .iter()
            .position(|w| w.kind == WrKind::Atomic)
        else {
            self.counters.dropped_out_of_order += 1;
            return;
        };
        if pkt.bth.psn != self.outstanding[idx].first_psn {
            self.counters.dropped_out_of_order += 1;
            return;
        }
        let Some(orig) = pkt.atomic_ack else { return };
        self.counters.acks_rx += 1;
        self.last_progress = now;
        let w = self.outstanding.remove(idx).unwrap();
        out.completions.push(Completion::ok_atomic(w.wr_id, orig));
        // The atomic ACK also acknowledges everything before it.
        let first = w.first_psn;
        while let Some(front) = self.outstanding.front() {
            if front.kind != WrKind::Read
                && front.kind != WrKind::Atomic
                && psn_le(front.last_psn(), first)
            {
                let fw = self.outstanding.pop_front().unwrap();
                out.completions.push(Completion::ok(fw.wr_id, fw.kind));
            } else {
                break;
            }
        }
    }

    /// Requester timeout check; call periodically. Returns retransmissions.
    pub fn tick(&mut self, now: Instant, cat: &RegionCatalog) -> Vec<RocePacket> {
        let mut out = Vec::new();
        self.tick_into(now, cat, &mut out);
        out
    }

    /// Like [`Qp::tick`], but appends the retransmissions onto `out`.
    pub fn tick_into(&mut self, now: Instant, cat: &RegionCatalog, out: &mut Vec<RocePacket>) {
        if !self.outstanding.is_empty()
            && now.since(self.last_progress) >= self.cfg.retransmit_timeout
        {
            self.go_back_n(cat, now, out);
        }
    }

    /// Replay every outstanding WQE from the front (Go-Back-N) onto `out`,
    /// resetting in-progress read reassembly: a partly landed buffer is
    /// dropped, and the replayed response lands afresh.
    fn go_back_n(&mut self, cat: &RegionCatalog, now: Instant, out: &mut Vec<RocePacket>) {
        self.counters.retransmit_rounds += 1;
        self.last_progress = now;
        let before = out.len();
        for w in self.outstanding.iter_mut() {
            w.read_received = 0;
            w.landed = PoolBuf::empty();
            // Regenerate; local memory may have been updated, but Cowbird's
            // ring discipline guarantees slots are stable until completed.
            // A failure here would have failed at post time already.
            let _ = build_packets(&self.cfg, &self.arena, &w.op, w.first_psn, cat, out);
        }
        self.counters.tx_packets += (out.len() - before) as u64;
    }

    // ---------------- responder side ----------------

    fn handle_responder(&mut self, pkt: &RocePacket, cat: &RegionCatalog, out: &mut QpOutput) {
        let psn = pkt.bth.psn;
        let op = pkt.bth.opcode;

        if op == Opcode::CompareSwap
            && !psn_eq(psn, self.expected_psn)
            && psn_lt(psn, self.expected_psn)
        {
            // Duplicate atomic: answer from the response cache, never
            // re-execute (a replayed CAS would observe its own swap).
            if let Some(&(_, orig)) = self
                .atomic_responses
                .iter()
                .find(|(cached_psn, _)| psn_eq(*cached_psn, psn))
            {
                out.emit.push(RocePacket::atomic_ack(
                    self.cfg.peer_qpn,
                    psn,
                    self.msn,
                    orig,
                ));
            } else {
                // Cache evicted (can only happen ATOMIC_CACHE_DEPTH atomics
                // later, long after the WQE completed): plain re-ACK.
                out.emit
                    .push(RocePacket::ack(self.cfg.peer_qpn, psn, self.msn));
            }
            return;
        }
        if op == Opcode::ReadRequest
            && !psn_eq(psn, self.expected_psn)
            && psn_lt(psn, self.expected_psn)
        {
            // Duplicate read: idempotent re-execution from the requested PSN.
            // (Simplification: re-execute fully; Go-Back-N re-requests align
            // with WQE starts, so this is exact for our drivers.)
        } else if !psn_eq(psn, self.expected_psn) {
            if psn_lt(psn, self.expected_psn) {
                // Duplicate write/send: drop silently, re-ACK to help requester.
                out.emit
                    .push(RocePacket::ack(self.cfg.peer_qpn, psn, self.msn));
                return;
            }
            // Gap: NAK once per expected PSN, then stay silent until the
            // requester resends (IBTA one-NAK rule).
            self.counters.dropped_out_of_order += 1;
            if self.last_nak_for != Some(self.expected_psn) {
                self.last_nak_for = Some(self.expected_psn);
                self.counters.naks_tx += 1;
                out.emit.push(RocePacket::nak(
                    self.cfg.peer_qpn,
                    self.expected_psn,
                    self.msn,
                ));
            }
            return;
        }
        // In-sequence packet: re-arm NAK generation.
        self.last_nak_for = None;

        match op {
            Opcode::ReadRequest => {
                let Some(reth) = pkt.reth else { return };
                // Response segments are read straight from the region into
                // the buffers that go on the wire.
                let msn = (self.msn + 1) & 0x00FF_FFFF;
                let msg = Message {
                    family: &READ_RESPONSE,
                    first_psn: psn,
                    len: reth.dma_len as usize,
                    reth: None,
                    aeth: Some(Aeth::ack(msn)),
                };
                let built = cat.get(reth.rkey).and_then(|region| {
                    let fill = read_from(region, reth.vaddr, msg.len)?;
                    Ok(segment(&self.cfg, &self.arena, msg, fill, &mut out.emit))
                });
                match built {
                    Ok(n) => {
                        self.expected_psn = wrap_add(psn, n);
                        self.msn = msn;
                    }
                    Err(_) => {
                        self.counters.naks_tx += 1;
                        out.emit.push(RocePacket::nak(
                            self.cfg.peer_qpn,
                            self.expected_psn,
                            self.msn,
                        ));
                    }
                }
            }
            Opcode::CompareSwap => {
                let Some(eth) = pkt.atomic else { return };
                match cat.remote_compare_exchange(eth.rkey, eth.vaddr, eth.compare, eth.swap) {
                    Ok(orig) => {
                        self.expected_psn = wrap_add(psn, 1);
                        self.msn = (self.msn + 1) & 0x00FF_FFFF;
                        if self.atomic_responses.len() >= ATOMIC_CACHE_DEPTH {
                            self.atomic_responses.pop_front();
                        }
                        self.atomic_responses.push_back((psn, orig));
                        out.emit.push(RocePacket::atomic_ack(
                            self.cfg.peer_qpn,
                            psn,
                            self.msn,
                            orig,
                        ));
                    }
                    Err(_) => {
                        self.counters.naks_tx += 1;
                        out.emit.push(RocePacket::nak(
                            self.cfg.peer_qpn,
                            self.expected_psn,
                            self.msn,
                        ));
                    }
                }
            }
            Opcode::WriteOnly | Opcode::WriteFirst => {
                let Some(reth) = pkt.reth else { return };
                if cat
                    .remote_write(reth.rkey, reth.vaddr, &pkt.payload)
                    .is_err()
                {
                    self.counters.naks_tx += 1;
                    out.emit.push(RocePacket::nak(
                        self.cfg.peer_qpn,
                        self.expected_psn,
                        self.msn,
                    ));
                    return;
                }
                self.expected_psn = wrap_add(self.expected_psn, 1);
                if op == Opcode::WriteOnly {
                    self.msn = (self.msn + 1) & 0x00FF_FFFF;
                    if pkt.bth.ack_req {
                        out.emit
                            .push(RocePacket::ack(self.cfg.peer_qpn, psn, self.msn));
                    }
                } else {
                    self.write_in_progress =
                        Some((reth.rkey, reth.vaddr + pkt.payload.len() as u64));
                }
            }
            Opcode::WriteMiddle | Opcode::WriteLast => {
                let Some((rkey, vaddr)) = self.write_in_progress else {
                    // Lost First segment: NAK.
                    self.counters.naks_tx += 1;
                    out.emit.push(RocePacket::nak(
                        self.cfg.peer_qpn,
                        self.expected_psn,
                        self.msn,
                    ));
                    return;
                };
                if cat.remote_write(rkey, vaddr, &pkt.payload).is_err() {
                    self.counters.naks_tx += 1;
                    out.emit.push(RocePacket::nak(
                        self.cfg.peer_qpn,
                        self.expected_psn,
                        self.msn,
                    ));
                    self.write_in_progress = None;
                    return;
                }
                self.expected_psn = wrap_add(self.expected_psn, 1);
                if op == Opcode::WriteLast {
                    self.write_in_progress = None;
                    self.msn = (self.msn + 1) & 0x00FF_FFFF;
                    if pkt.bth.ack_req {
                        out.emit
                            .push(RocePacket::ack(self.cfg.peer_qpn, psn, self.msn));
                    }
                } else {
                    self.write_in_progress = Some((rkey, vaddr + pkt.payload.len() as u64));
                }
            }
            Opcode::SendOnly | Opcode::SendFirst | Opcode::SendMiddle | Opcode::SendLast => {
                self.expected_psn = wrap_add(self.expected_psn, 1);
                match op {
                    Opcode::SendOnly => {
                        self.msn = (self.msn + 1) & 0x00FF_FFFF;
                        out.receives.push(self.arena.take_copy(&pkt.payload));
                        if pkt.bth.ack_req {
                            out.emit
                                .push(RocePacket::ack(self.cfg.peer_qpn, psn, self.msn));
                        }
                    }
                    Opcode::SendFirst => {
                        self.send_in_progress = Some(self.arena.take_copy(&pkt.payload));
                    }
                    Opcode::SendMiddle | Opcode::SendLast => {
                        if let Some(buf) = &mut self.send_in_progress {
                            buf.extend_from_slice(&pkt.payload);
                        }
                        if op == Opcode::SendLast {
                            if let Some(buf) = self.send_in_progress.take() {
                                out.receives.push(buf);
                            }
                            self.msn = (self.msn + 1) & 0x00FF_FFFF;
                            if pkt.bth.ack_req {
                                out.emit
                                    .push(RocePacket::ack(self.cfg.peer_qpn, psn, self.msn));
                            }
                        }
                    }
                    _ => unreachable!(),
                }
            }
            _ => {}
        }
    }
}

/// Generate the wire packets for an operation starting at `first_psn`,
/// appending them to `out`; returns the operation's kind and the PSNs it
/// consumes. A function of the configuration and the arena alone, so posting
/// and Go-Back-N replay build identical packets from the same buffers. Local
/// memory is checked before the first segment is built, so error paths
/// append nothing.
fn build_packets(
    cfg: &QpConfig,
    arena: &BufArena,
    op: &WrOp,
    first_psn: u32,
    cat: &RegionCatalog,
    out: &mut Vec<RocePacket>,
) -> Result<(WrKind, u32), QpError> {
    let write = |remote_addr: u64, remote_rkey: u32, len: usize| Message {
        family: &WRITE,
        first_psn,
        len,
        reth: Some(Reth {
            vaddr: remote_addr,
            rkey: remote_rkey,
            dma_len: len as u32,
        }),
        aeth: None,
    };
    Ok(match op {
        WrOp::Read {
            remote_addr,
            remote_rkey,
            len,
            ..
        }
        | WrOp::ReadOwned {
            remote_addr,
            remote_rkey,
            len,
        } => {
            out.push(RocePacket::read_request(
                cfg.peer_qpn,
                first_psn,
                *remote_addr,
                *remote_rkey,
                *len,
            ));
            (WrKind::Read, segments(cfg, *len as usize))
        }
        WrOp::Write {
            local_rkey,
            local_addr,
            remote_addr,
            remote_rkey,
            len,
        } => {
            // Segments are read straight from the local region into the
            // buffers that go on the wire.
            let fill = read_from(cat.get(*local_rkey)?, *local_addr, *len as usize)?;
            let msg = write(*remote_addr, *remote_rkey, *len as usize);
            (WrKind::Write, segment(cfg, arena, msg, fill, out))
        }
        WrOp::WriteInline {
            remote_addr,
            remote_rkey,
            data,
        } => {
            let msg = write(*remote_addr, *remote_rkey, data.len());
            (
                WrKind::Write,
                segment(cfg, arena, msg, copy_from(data), out),
            )
        }
        WrOp::WriteSg {
            remote_addr,
            remote_rkey,
            segments: parts,
        } => {
            // Gather the parts into one contiguous wire transfer: the fill
            // walks the part list once, in step with the wire segments.
            let len = parts.iter().map(|p| p.len()).sum();
            let (mut part, mut at) = (0, 0);
            let fill = |_, mut dst: &mut [u8]| {
                while !dst.is_empty() {
                    let src = &parts[part][at..];
                    let n = src.len().min(dst.len());
                    let (head, rest) = dst.split_at_mut(n);
                    head.copy_from_slice(&src[..n]);
                    dst = rest;
                    at += n;
                    if at == parts[part].len() {
                        (part, at) = (part + 1, 0);
                    }
                }
            };
            let msg = write(*remote_addr, *remote_rkey, len);
            (WrKind::Write, segment(cfg, arena, msg, fill, out))
        }
        WrOp::CompareSwap {
            remote_addr,
            remote_rkey,
            compare,
            swap,
        } => {
            out.push(RocePacket::comp_swap(
                cfg.peer_qpn,
                first_psn,
                *remote_addr,
                *remote_rkey,
                *compare,
                *swap,
            ));
            (WrKind::Atomic, 1)
        }
        WrOp::Send { payload } => {
            let msg = Message {
                family: &SEND,
                first_psn,
                len: payload.len(),
                reth: None,
                aeth: None,
            };
            (
                WrKind::Send,
                segment(cfg, arena, msg, copy_from(payload), out),
            )
        }
    })
}

/// Packets (and PSNs) a `len`-byte message occupies at the path MTU; a
/// zero-length message still takes one.
fn segments(cfg: &QpConfig, len: usize) -> u32 {
    (len.div_ceil(cfg.mtu) as u32).max(1)
}

/// The opcodes of a segmented message: Only, First, Middle, Last.
type Family = [Opcode; 4];
const WRITE: Family = [
    Opcode::WriteOnly,
    Opcode::WriteFirst,
    Opcode::WriteMiddle,
    Opcode::WriteLast,
];
const SEND: Family = [
    Opcode::SendOnly,
    Opcode::SendFirst,
    Opcode::SendMiddle,
    Opcode::SendLast,
];
const READ_RESPONSE: Family = [
    Opcode::ReadResponseOnly,
    Opcode::ReadResponseFirst,
    Opcode::ReadResponseMiddle,
    Opcode::ReadResponseLast,
];

/// A message to cut into MTU segments. `reth` and `aeth` ride on the
/// segments whose opcode carries one.
struct Message {
    family: &'static Family,
    first_psn: u32,
    len: usize,
    reth: Option<Reth>,
    aeth: Option<Aeth>,
}

/// A [`segment`] source that reads `region` from `base` on. The whole range
/// is checked here, before the first segment is built, so a bad range
/// leaves nothing half-sent and the fill itself cannot fail.
fn read_from(
    region: &Region,
    base: u64,
    len: usize,
) -> Result<impl FnMut(usize, &mut [u8]) + '_, MemError> {
    region.check(base, len)?;
    Ok(move |off: usize, dst: &mut [u8]| {
        let read = region.read(base + off as u64, dst);
        read.expect("range checked above");
    })
}

/// A [`segment`] source that copies from `data`.
fn copy_from(data: &[u8]) -> impl FnMut(usize, &mut [u8]) + '_ {
    move |off, dst| dst.copy_from_slice(&data[off..off + dst.len()])
}

/// Cut `msg` into MTU segments appended to `out`; returns how many. Each
/// payload is produced by `fill(offset, dst)` directly into an arena buffer
/// with frame headroom, so the source is read once and the segment never
/// moves again before it reaches the wire.
fn segment(
    cfg: &QpConfig,
    arena: &BufArena,
    msg: Message,
    mut fill: impl FnMut(usize, &mut [u8]),
    out: &mut Vec<RocePacket>,
) -> u32 {
    let n = segments(cfg, msg.len);
    for i in 0..n {
        let opcode = msg.family[match i {
            _ if n == 1 => 0,
            0 => 1,
            i if i == n - 1 => 3,
            _ => 2,
        }];
        let off = i as usize * cfg.mtu;
        let mut payload = arena.take_sized(FRAME_HEADROOM, cfg.mtu.min(msg.len - off));
        fill(off, &mut payload);
        let mut bth = Bth::new(opcode, cfg.peer_qpn, wrap_add(msg.first_psn, i));
        // The last segment of a request asks for the ACK that completes it.
        bth.ack_req = i == n - 1 && !opcode.is_read_response();
        out.push(RocePacket {
            bth,
            reth: msg.reth.filter(|_| opcode.has_reth()),
            aeth: msg.aeth.filter(|_| opcode.has_aeth()),
            atomic: None,
            atomic_ack: None,
            payload,
        });
    }
    n
}

#[inline]
fn psn_eq(a: u32, b: u32) -> bool {
    a & 0x00FF_FFFF == b & 0x00FF_FFFF
}

/// `a < b` in 24-bit wrap-around space.
#[inline]
fn psn_lt(a: u32, b: u32) -> bool {
    !psn_eq(a, b) && psn_le(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Region;

    fn pair(mtu: usize) -> (Qp, RegionCatalog, Qp, RegionCatalog) {
        // Node A (requester) with qpn 1; node B (responder) with qpn 2.
        let a = Qp::new(QpConfig::new(1, 2).with_mtu(mtu));
        let b = Qp::new(QpConfig::new(2, 1).with_mtu(mtu));
        (a, RegionCatalog::new(), b, RegionCatalog::new())
    }

    /// Deliver packets to a peer QP, collecting everything that comes back.
    fn exchange(
        from: Vec<RocePacket>,
        to: &mut Qp,
        to_cat: &RegionCatalog,
        back: &mut Qp,
        back_cat: &RegionCatalog,
    ) -> (Vec<Completion>, Vec<PoolBuf>) {
        let now = Instant::ZERO;
        let mut completions = Vec::new();
        let mut receives = Vec::new();
        let mut inbound = from;
        let mut forward = true;
        while !inbound.is_empty() {
            let mut next = Vec::new();
            for pkt in &inbound {
                let out = if forward {
                    to.handle(pkt, to_cat, now)
                } else {
                    back.handle(pkt, back_cat, now)
                };
                next.extend(out.emit);
                completions.extend(out.completions);
                receives.extend(out.receives);
            }
            inbound = next;
            forward = !forward;
        }
        (completions, receives)
    }

    #[test]
    fn read_roundtrip_single_segment() {
        let (mut a, mut a_cat, mut b, mut b_cat) = pair(1024);
        let local = Region::new(4096);
        let remote = Region::new(4096);
        remote.write(100, b"remote-data!").unwrap();
        let lkey = a_cat.register(local.clone());
        let rkey = b_cat.register(remote);

        let pkts = a
            .post(
                WorkRequest {
                    wr_id: 7,
                    op: WrOp::Read {
                        local_rkey: lkey,
                        local_addr: 10,
                        remote_addr: 100,
                        remote_rkey: rkey,
                        len: 12,
                    },
                },
                &a_cat,
                Instant::ZERO,
            )
            .unwrap();
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].bth.opcode, Opcode::ReadRequest);

        let (completions, _) = exchange(pkts, &mut b, &b_cat, &mut a, &a_cat);
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].wr_id, 7);
        assert_eq!(local.read_vec(10, 12).unwrap(), b"remote-data!");
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn read_segments_across_mtu() {
        let (mut a, mut a_cat, mut b, mut b_cat) = pair(256);
        let local = Region::new(4096);
        let remote = Region::new(4096);
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        remote.write(0, &data).unwrap();
        let lkey = a_cat.register(local.clone());
        let rkey = b_cat.register(remote);

        let pkts = a
            .post(
                WorkRequest {
                    wr_id: 1,
                    op: WrOp::Read {
                        local_rkey: lkey,
                        local_addr: 0,
                        remote_addr: 0,
                        remote_rkey: rkey,
                        len: 1000,
                    },
                },
                &a_cat,
                Instant::ZERO,
            )
            .unwrap();
        // The response occupies ceil(1000/256) = 4 PSNs.
        assert_eq!(a.next_psn(), 4);
        let out = b.handle(&pkts[0], &b_cat, Instant::ZERO);
        assert_eq!(out.emit.len(), 4);
        assert_eq!(out.emit[0].bth.opcode, Opcode::ReadResponseFirst);
        assert_eq!(out.emit[1].bth.opcode, Opcode::ReadResponseMiddle);
        assert_eq!(out.emit[3].bth.opcode, Opcode::ReadResponseLast);
        let mut done = Vec::new();
        for p in &out.emit {
            done.extend(a.handle(p, &a_cat, Instant::ZERO).completions);
        }
        assert_eq!(done.len(), 1);
        assert_eq!(local.read_vec(0, 1000).unwrap(), data);
    }

    #[test]
    fn write_roundtrip_with_segmentation_and_ack() {
        let (mut a, mut a_cat, mut b, mut b_cat) = pair(128);
        let local = Region::new(4096);
        let remote = Region::new(4096);
        let data: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        local.write(50, &data).unwrap();
        let lkey = a_cat.register(local);
        let rkey = b_cat.register(remote.clone());

        let pkts = a
            .post(
                WorkRequest {
                    wr_id: 9,
                    op: WrOp::Write {
                        local_rkey: lkey,
                        local_addr: 50,
                        remote_addr: 700,
                        remote_rkey: rkey,
                        len: 300,
                    },
                },
                &a_cat,
                Instant::ZERO,
            )
            .unwrap();
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[0].bth.opcode, Opcode::WriteFirst);
        assert_eq!(pkts[2].bth.opcode, Opcode::WriteLast);
        assert!(pkts[2].bth.ack_req);

        let (completions, _) = exchange(pkts, &mut b, &b_cat, &mut a, &a_cat);
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].wr_id, 9);
        assert_eq!(remote.read_vec(700, 300).unwrap(), data);
    }

    #[test]
    fn send_delivers_payload_two_sided() {
        let (mut a, a_cat, mut b, b_cat) = pair(1024);
        let pkts = a
            .post(
                WorkRequest {
                    wr_id: 3,
                    op: WrOp::Send {
                        payload: b"rpc-request".to_vec(),
                    },
                },
                &a_cat,
                Instant::ZERO,
            )
            .unwrap();
        let (completions, receives) = exchange(pkts, &mut b, &b_cat, &mut a, &a_cat);
        assert_eq!(receives, vec![b"rpc-request".to_vec()]);
        assert_eq!(completions.len(), 1);
    }

    #[test]
    fn out_of_order_write_triggers_nak_and_gbn() {
        let (mut a, mut a_cat, mut b, mut b_cat) = pair(1024);
        let local = Region::new(1024);
        local.write(0, &[1, 2, 3, 4]).unwrap();
        let lkey = a_cat.register(local);
        let remote = Region::new(1024);
        let rkey = b_cat.register(remote.clone());

        let wr = |id: u64| WorkRequest {
            wr_id: id,
            op: WrOp::Write {
                local_rkey: lkey,
                local_addr: 0,
                remote_addr: 0,
                remote_rkey: rkey,
                len: 4,
            },
        };
        let p0 = a.post(wr(0), &a_cat, Instant::ZERO).unwrap();
        let p1 = a.post(wr(1), &a_cat, Instant::ZERO).unwrap();
        // Drop p0; deliver p1 out of order -> NAK for PSN 0.
        drop(p0);
        let out = b.handle(&p1[0], &b_cat, Instant::ZERO);
        assert_eq!(out.emit.len(), 1);
        assert!(matches!(
            out.emit[0].aeth.unwrap().syndrome,
            Syndrome::Nak(0)
        ));
        // Requester reacts with Go-Back-N: replays both writes.
        let replays = a.handle(&out.emit[0], &a_cat, Instant::ZERO);
        assert_eq!(replays.emit.len(), 2);
        assert_eq!(replays.emit[0].bth.psn, 0);
        assert_eq!(replays.emit[1].bth.psn, 1);
        assert_eq!(a.counters.retransmit_rounds, 1);
        // Deliver them in order; both complete.
        let (mut completions, _) = (Vec::new(), ());
        for p in &replays.emit {
            completions.extend(b.handle(p, &b_cat, Instant::ZERO).emit);
        }
        let mut finished = Vec::new();
        for ack in &completions {
            finished.extend(a.handle(ack, &a_cat, Instant::ZERO).completions);
        }
        assert_eq!(finished.len(), 2);
    }

    #[test]
    fn timeout_triggers_go_back_n() {
        let (mut a, mut a_cat, _b, mut b_cat) = pair(1024);
        let local = Region::new(64);
        let lkey = a_cat.register(local);
        let remote = Region::new(64);
        let rkey = b_cat.register(remote);
        let _lost = a
            .post(
                WorkRequest {
                    wr_id: 0,
                    op: WrOp::Read {
                        local_rkey: lkey,
                        local_addr: 0,
                        remote_addr: 0,
                        remote_rkey: rkey,
                        len: 8,
                    },
                },
                &a_cat,
                Instant::ZERO,
            )
            .unwrap();
        // Before the timeout: nothing.
        assert!(a.tick(Instant(50_000), &a_cat).is_empty());
        // After: the read request is replayed.
        let replay = a.tick(Instant(200_000), &a_cat);
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].bth.opcode, Opcode::ReadRequest);
        assert_eq!(replay[0].bth.psn, 0);
    }

    #[test]
    fn cumulative_ack_completes_multiple_writes() {
        let (mut a, mut a_cat, _b, mut b_cat) = pair(1024);
        let local = Region::new(64);
        local.write(0, &[7; 8]).unwrap();
        let lkey = a_cat.register(local);
        let rkey = b_cat.register(Region::new(64));
        for id in 0..3 {
            a.post(
                WorkRequest {
                    wr_id: id,
                    op: WrOp::Write {
                        local_rkey: lkey,
                        local_addr: 0,
                        remote_addr: 0,
                        remote_rkey: rkey,
                        len: 8,
                    },
                },
                &a_cat,
                Instant::ZERO,
            )
            .unwrap();
        }
        // One cumulative ACK for PSN 2 completes all three.
        let ack = RocePacket::ack(1, 2, 3);
        let out = a.handle(&ack, &a_cat, Instant::ZERO);
        assert_eq!(out.completions.len(), 3);
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn duplicate_write_is_dropped_but_reacked() {
        let (mut a, mut a_cat, mut b, mut b_cat) = pair(1024);
        let local = Region::new(64);
        local.write(0, b"AAAA").unwrap();
        let lkey = a_cat.register(local.clone());
        let remote = Region::new(64);
        let rkey = b_cat.register(remote.clone());
        let pkts = a
            .post(
                WorkRequest {
                    wr_id: 0,
                    op: WrOp::Write {
                        local_rkey: lkey,
                        local_addr: 0,
                        remote_addr: 0,
                        remote_rkey: rkey,
                        len: 4,
                    },
                },
                &a_cat,
                Instant::ZERO,
            )
            .unwrap();
        let first = b.handle(&pkts[0], &b_cat, Instant::ZERO);
        assert_eq!(first.emit.len(), 1); // ACK
                                         // The remote now holds AAAA; mutate it and replay the duplicate.
        remote.write(0, b"BBBB").unwrap();
        let dup = b.handle(&pkts[0], &b_cat, Instant::ZERO);
        assert_eq!(dup.emit.len(), 1, "duplicate still produces an ACK");
        assert_eq!(
            remote.read_vec(0, 4).unwrap(),
            b"BBBB",
            "duplicate write dropped"
        );
    }

    #[test]
    fn psn_wraparound_comparisons() {
        assert!(psn_le(0x00FF_FFFF, 0x0000_0000)); // max wraps to 0
        assert!(psn_lt(0x00FF_FFF0, 0x0000_0010));
        assert!(!psn_lt(0x0000_0010, 0x00FF_FFF0));
        assert_eq!(wrap_add(0x00FF_FFFF, 1), 0);
    }

    #[test]
    fn traffic_across_psn_wraparound() {
        // Start both sides just below the 24-bit PSN wrap and push enough
        // writes through to cross it.
        let mut cfg_a = QpConfig::new(1, 2).with_mtu(1024);
        cfg_a.initial_psn = 0x00FF_FFF8;
        let mut cfg_b = QpConfig::new(2, 1).with_mtu(1024);
        cfg_b.initial_psn = 0x00FF_FFF8;
        let mut a = Qp::new(cfg_a);
        let mut b = Qp::new(cfg_b);
        let mut a_cat = RegionCatalog::new();
        let mut b_cat = RegionCatalog::new();
        let local = Region::new(64);
        local.write(0, b"wrapwrap").unwrap();
        let lkey = a_cat.register(local);
        let remote = Region::new(64);
        let rkey = b_cat.register(remote.clone());

        let mut completions = 0;
        for i in 0..32u64 {
            let pkts = a
                .post(
                    WorkRequest {
                        wr_id: i,
                        op: WrOp::Write {
                            local_rkey: lkey,
                            local_addr: 0,
                            remote_addr: 8 * (i % 8),
                            remote_rkey: rkey,
                            len: 8,
                        },
                    },
                    &a_cat,
                    Instant::ZERO,
                )
                .unwrap();
            for p in &pkts {
                let out = b.handle(p, &b_cat, Instant::ZERO);
                for ack in &out.emit {
                    completions += a.handle(ack, &a_cat, Instant::ZERO).completions.len();
                }
            }
        }
        assert_eq!(completions, 32);
        assert_eq!(a.outstanding(), 0);
        // PSN wrapped below the start value.
        assert!(a.next_psn() < 0x00FF_FFF8);
        assert_eq!(remote.read_vec(0, 8).unwrap(), b"wrapwrap");
    }

    #[test]
    fn zero_length_operations_emit_one_packet() {
        let (mut a, a_cat, _b, _b_cat) = pair(1024);
        let wr = WorkRequest {
            wr_id: 0,
            op: WrOp::WriteInline {
                remote_addr: 0,
                remote_rkey: 1,
                data: PoolBuf::empty(),
            },
        };
        let pkts = a.post(wr, &a_cat, Instant::ZERO).unwrap();
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].bth.opcode, Opcode::WriteOnly);
        assert!(pkts[0].payload.is_empty());
    }

    /// Post an owned read of `len` bytes at `remote` offset 0 and carry it
    /// to completion, through [`Qp::receive_into`] when `by_value`, else
    /// through the by-reference [`Qp::handle_into`].
    fn owned_read(mtu: usize, remote: &Region, len: u32, by_value: bool) -> (Completion, Qp) {
        let (mut a, a_cat, mut b, mut b_cat) = pair(mtu);
        let rkey = b_cat.register(remote.clone());
        let wr = WorkRequest {
            wr_id: 5,
            op: WrOp::ReadOwned {
                remote_addr: 0,
                remote_rkey: rkey,
                len,
            },
        };
        let req = a.post(wr, &a_cat, Instant::ZERO).unwrap();
        let resp = b.handle(&req[0], &b_cat, Instant::ZERO).emit;
        let mut out = QpOutput::default();
        for mut p in resp {
            if by_value {
                a.receive_into(&mut p, &a_cat, Instant::ZERO, &mut out);
            } else {
                a.handle_into(&p, &a_cat, Instant::ZERO, &mut out);
            }
        }
        assert_eq!(out.completions.len(), 1);
        (out.completions.pop().unwrap(), a)
    }

    #[test]
    fn owned_read_lands_byte_exact_across_mtu_boundaries() {
        let mtu = 256;
        let remote = Region::new(8192);
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 253) as u8).collect();
        remote.write(0, &data).unwrap();
        for len in [0, 1, mtu - 1, mtu, mtu + 1, 4096 + 3] {
            let (c, a) = owned_read(mtu, &remote, len as u32, true);
            assert!(c.is_ok());
            assert_eq!((c.wr_id, c.kind), (5, WrKind::Read));
            assert_eq!(c.data, data[..len], "len {len}");
            assert_eq!(a.outstanding(), 0);
        }
    }

    #[test]
    fn by_reference_and_by_value_land_identically() {
        let remote = Region::new(4096);
        remote.write(0, &[0x5A; 3000]).unwrap();
        for len in [0, 7, 1024, 3000] {
            let (by_ref, _) = owned_read(1024, &remote, len, false);
            let (by_val, _) = owned_read(1024, &remote, len, true);
            assert_eq!(by_ref, by_val);
            assert_eq!(by_val.data.len(), len as usize);
        }
    }

    #[test]
    fn owned_read_keeps_the_frame_buffer_of_a_single_segment_response() {
        let (mut a, a_cat, _b, _b_cat) = pair(1024);
        let wr = |wr_id| WorkRequest {
            wr_id,
            op: WrOp::ReadOwned {
                remote_addr: 0,
                remote_rkey: 9,
                len: 10,
            },
        };
        a.post(wr(1), &a_cat, Instant::ZERO).unwrap();
        a.post(wr(2), &a_cat, Instant::ZERO).unwrap();
        // The responder sends more than was asked for: exactly `len` lands,
        // in the very buffer that carried it.
        let resp = |psn, fill| RocePacket {
            bth: Bth::new(Opcode::ReadResponseOnly, 1, psn),
            reth: None,
            aeth: Some(Aeth::ack(1)),
            atomic: None,
            atomic_ack: None,
            payload: vec![fill; 20].into(),
        };
        let mut pkt = resp(0, 0xAB);
        let at = pkt.payload.as_ptr();
        let mut out = QpOutput::default();
        a.receive_into(&mut pkt, &a_cat, Instant::ZERO, &mut out);
        assert_eq!(out.completions[0].data, vec![0xAB; 10]);
        assert_eq!(
            out.completions[0].data.as_ptr(),
            at,
            "landed without a copy"
        );
        // A stale response for the finished read is dropped; the next read
        // still lands only its own bytes.
        a.receive_into(&mut resp(0, 0xEE), &a_cat, Instant::ZERO, &mut out);
        assert_eq!(a.counters.dropped_out_of_order, 1);
        a.receive_into(&mut resp(1, 0xCD), &a_cat, Instant::ZERO, &mut out);
        assert_eq!(out.completions.len(), 2);
        assert_eq!(out.completions[1].data, vec![0xCD; 10]);
    }

    #[test]
    fn stale_and_out_of_order_segments_leave_the_landed_buffer_alone() {
        let (mut a, a_cat, mut b, mut b_cat) = pair(256);
        let remote = Region::new(4096);
        let data: Vec<u8> = (0..700u32).map(|i| (i % 249) as u8).collect();
        remote.write(0, &data).unwrap();
        let rkey = b_cat.register(remote);
        let wr = WorkRequest {
            wr_id: 3,
            op: WrOp::ReadOwned {
                remote_addr: 0,
                remote_rkey: rkey,
                len: 700,
            },
        };
        let req = a.post(wr, &a_cat, Instant::ZERO).unwrap();
        let segs = b.handle(&req[0], &b_cat, Instant::ZERO).emit;
        assert_eq!(segs.len(), 3);
        let mut out = QpOutput::default();
        // First, then an early last, then the first again: only the first
        // delivery lands.
        for i in [0, 2, 0, 1, 1, 2] {
            a.receive_into(&mut segs[i].clone(), &a_cat, Instant::ZERO, &mut out);
        }
        assert_eq!(a.counters.dropped_out_of_order, 3);
        assert_eq!(out.completions.len(), 1);
        assert_eq!(out.completions[0].data, data);
    }

    #[test]
    fn dropped_middle_segment_replays_and_lands_the_bytes_once() {
        let (mut a, a_cat, mut b, mut b_cat) = pair(256);
        let remote = Region::new(4096);
        let data: Vec<u8> = (0..700u32).map(|i| (i % 247) as u8).collect();
        remote.write(0, &data).unwrap();
        let rkey = b_cat.register(remote);
        let wr = WorkRequest {
            wr_id: 4,
            op: WrOp::ReadOwned {
                remote_addr: 0,
                remote_rkey: rkey,
                len: 700,
            },
        };
        let req = a.post(wr, &a_cat, Instant::ZERO).unwrap();
        let mut segs = b.handle(&req[0], &b_cat, Instant::ZERO).emit;
        segs.remove(1);
        let mut out = QpOutput::default();
        for mut p in segs {
            a.receive_into(&mut p, &a_cat, Instant::ZERO, &mut out);
        }
        assert!(out.completions.is_empty());
        // The timeout replays the request; the replayed response lands
        // from scratch, not onto the first delivery's bytes.
        let replay = a.tick(Instant(200_000), &a_cat);
        assert_eq!(a.counters.retransmit_rounds, 1);
        for mut p in b.handle(&replay[0], &b_cat, Instant::ZERO).emit {
            a.receive_into(&mut p, &a_cat, Instant::ZERO, &mut out);
        }
        assert_eq!(out.completions.len(), 1);
        assert_eq!(out.completions[0].data, data);
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn gather_write_concatenates_segments_remotely() {
        let (mut a, a_cat, mut b, mut b_cat) = pair(128);
        let remote = Region::new(4096);
        let rkey = b_cat.register(remote.clone());
        let seg1: Vec<u8> = vec![0xAA; 100];
        let seg2: Vec<u8> = vec![0xBB; 200];
        let seg3: Vec<u8> = vec![0xCC; 50];

        let pkts = a
            .post(
                WorkRequest {
                    wr_id: 21,
                    op: WrOp::WriteSg {
                        remote_addr: 300,
                        remote_rkey: rkey,
                        segments: vec![
                            seg1.clone().into(),
                            seg2.clone().into(),
                            seg3.clone().into(),
                        ],
                    },
                },
                &a_cat,
                Instant::ZERO,
            )
            .unwrap();
        // 350 bytes at MTU 128 => 3 wire segments regardless of SGE count.
        assert_eq!(pkts.len(), 3);

        let (completions, _) = exchange(pkts, &mut b, &b_cat, &mut a, &a_cat);
        assert_eq!(completions.len(), 1);
        assert!(completions[0].is_ok());
        assert_eq!(remote.read_vec(300, 100).unwrap(), seg1);
        assert_eq!(remote.read_vec(400, 200).unwrap(), seg2);
        assert_eq!(remote.read_vec(600, 50).unwrap(), seg3);
    }

    #[test]
    fn compare_swap_roundtrip_reports_original_value() {
        let (mut a, a_cat, mut b, mut b_cat) = pair(1024);
        let remote = Region::new(64);
        remote.store_u64(8, 5, std::sync::atomic::Ordering::Release);
        let rkey = b_cat.register(remote.clone());

        let cas = |compare: u64, swap: u64| WorkRequest {
            wr_id: compare,
            op: WrOp::CompareSwap {
                remote_addr: 8,
                remote_rkey: rkey,
                compare,
                swap,
            },
        };
        // Winning CAS: word flips 5 -> 9, completion reports orig 5.
        let pkts = a.post(cas(5, 9), &a_cat, Instant::ZERO).unwrap();
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].bth.opcode, Opcode::CompareSwap);
        let (completions, _) = exchange(pkts, &mut b, &b_cat, &mut a, &a_cat);
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].kind, WrKind::Atomic);
        assert_eq!(completions[0].atomic_orig, Some(5));
        assert_eq!(remote.load_u64(8, std::sync::atomic::Ordering::Acquire), 9);
        // Losing CAS: word stays 9, completion reports orig 9 != compare.
        let pkts = a.post(cas(5, 77), &a_cat, Instant::ZERO).unwrap();
        let (completions, _) = exchange(pkts, &mut b, &b_cat, &mut a, &a_cat);
        assert_eq!(completions[0].atomic_orig, Some(9));
        assert_eq!(remote.load_u64(8, std::sync::atomic::Ordering::Acquire), 9);
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn duplicate_compare_swap_answers_from_cache_without_reexecution() {
        let (mut a, a_cat, mut b, mut b_cat) = pair(1024);
        let remote = Region::new(64);
        let rkey = b_cat.register(remote.clone());
        let pkts = a
            .post(
                WorkRequest {
                    wr_id: 1,
                    op: WrOp::CompareSwap {
                        remote_addr: 0,
                        remote_rkey: rkey,
                        compare: 0,
                        swap: 7,
                    },
                },
                &a_cat,
                Instant::ZERO,
            )
            .unwrap();
        let first = b.handle(&pkts[0], &b_cat, Instant::ZERO);
        assert_eq!(first.emit.len(), 1);
        assert_eq!(first.emit[0].bth.opcode, Opcode::AtomicAcknowledge);
        assert_eq!(first.emit[0].atomic_ack, Some(0));
        assert_eq!(remote.load_u64(0, std::sync::atomic::Ordering::Acquire), 7);

        // Reset the word; a Go-Back-N replay of the same request must be
        // answered from the cache — re-execution would swap it back to 7.
        remote.store_u64(0, 0, std::sync::atomic::Ordering::Release);
        let dup = b.handle(&pkts[0], &b_cat, Instant::ZERO);
        assert_eq!(dup.emit.len(), 1);
        assert_eq!(dup.emit[0].atomic_ack, Some(0), "cached original value");
        assert_eq!(
            remote.load_u64(0, std::sync::atomic::Ordering::Acquire),
            0,
            "duplicate atomic must not re-execute"
        );
        // The (possibly duplicated) response completes the WQE exactly once.
        let done = a.handle(&first.emit[0], &a_cat, Instant::ZERO);
        assert_eq!(done.completions.len(), 1);
        assert_eq!(done.completions[0].atomic_orig, Some(0));
        let stale = a.handle(&dup.emit[0], &a_cat, Instant::ZERO);
        assert!(stale.completions.is_empty());
    }

    #[test]
    fn cumulative_ack_skips_atomics() {
        let (mut a, mut a_cat, _b, mut b_cat) = pair(1024);
        let local = Region::new(64);
        local.write(0, &[7; 8]).unwrap();
        let lkey = a_cat.register(local);
        let rkey = b_cat.register(Region::new(64));
        let write = |id: u64| WorkRequest {
            wr_id: id,
            op: WrOp::Write {
                local_rkey: lkey,
                local_addr: 0,
                remote_addr: 0,
                remote_rkey: rkey,
                len: 8,
            },
        };
        a.post(write(0), &a_cat, Instant::ZERO).unwrap(); // psn 0
        a.post(
            WorkRequest {
                wr_id: 1,
                op: WrOp::CompareSwap {
                    remote_addr: 0,
                    remote_rkey: rkey,
                    compare: 0,
                    swap: 1,
                },
            },
            &a_cat,
            Instant::ZERO,
        )
        .unwrap(); // psn 1
        a.post(write(2), &a_cat, Instant::ZERO).unwrap(); // psn 2

        // A cumulative ACK up to PSN 2 completes only the first write: the
        // atomic needs its original value, and the second write must not
        // complete out of order ahead of it.
        let out = a.handle(&RocePacket::ack(1, 2, 3), &a_cat, Instant::ZERO);
        assert_eq!(out.completions.len(), 1);
        assert_eq!(out.completions[0].wr_id, 0);
        // The atomic ACK retires the atomic; a further ACK retires the rest.
        let out = a.handle(&RocePacket::atomic_ack(1, 1, 2, 0), &a_cat, Instant::ZERO);
        assert_eq!(out.completions.len(), 1);
        assert_eq!(out.completions[0].atomic_orig, Some(0));
        let out = a.handle(&RocePacket::ack(1, 2, 3), &a_cat, Instant::ZERO);
        assert_eq!(out.completions.len(), 1);
        assert_eq!(out.completions[0].wr_id, 2);
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn timeout_replays_compare_swap() {
        let (mut a, a_cat, _b, mut b_cat) = pair(1024);
        let rkey = b_cat.register(Region::new(64));
        let _lost = a
            .post(
                WorkRequest {
                    wr_id: 4,
                    op: WrOp::CompareSwap {
                        remote_addr: 8,
                        remote_rkey: rkey,
                        compare: 3,
                        swap: 4,
                    },
                },
                &a_cat,
                Instant::ZERO,
            )
            .unwrap();
        let replay = a.tick(Instant(200_000), &a_cat);
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].bth.opcode, Opcode::CompareSwap);
        assert_eq!(replay[0].bth.psn, 0);
        assert_eq!(
            replay[0].atomic.unwrap(),
            crate::wire::AtomicEth {
                vaddr: 8,
                rkey,
                swap: 4,
                compare: 3,
            }
        );
    }

    #[test]
    fn out_of_range_memory_is_refused_before_any_segment_is_built() {
        let (mut a, mut a_cat, mut b, mut b_cat) = pair(1024);
        let lkey = a_cat.register(Region::new(4096));
        let rkey = b_cat.register(Region::new(4096));
        // A local range whose first segment is in bounds and whose last is
        // not: the post fails and leaves nothing behind.
        let mut pkts = Vec::new();
        let write = WorkRequest {
            wr_id: 1,
            op: WrOp::Write {
                local_rkey: lkey,
                local_addr: 2048,
                remote_addr: 0,
                remote_rkey: rkey,
                len: 4096,
            },
        };
        let res = a.post_into(write, &a_cat, Instant::ZERO, &mut pkts);
        assert!(matches!(
            res,
            Err(QpError::Mem(MemError::OutOfBounds { .. }))
        ));
        assert!(pkts.is_empty());
        assert_eq!((a.outstanding(), a.next_psn()), (0, 0));
        // The same on the responder: a read request running off the end of
        // the region is NAKed whole, and consumes no PSN.
        let req = RocePacket::read_request(2, 0, 2048, rkey, 4096);
        let out = b.handle(&req, &b_cat, Instant::ZERO);
        assert_eq!(out.emit.len(), 1);
        assert!(matches!(
            out.emit[0].aeth.unwrap().syndrome,
            Syndrome::Nak(0)
        ));
        assert_eq!(b.expected_psn(), 0);
    }

    #[test]
    fn go_back_n_rounds_recycle_through_the_live_arena() {
        // Every retransmit round builds its segments from the QP's own
        // arena, and dropping them (here: all lost) returns them to it, so
        // however many rounds the loss forces the arena stays warm.
        let (mut a, mut a_cat, _b, _b_cat) = pair(1024);
        let local = Region::new(8192);
        let lkey = a_cat.register(local);
        for wr_id in 0..2 {
            let lost = a.post(
                WorkRequest {
                    wr_id,
                    op: WrOp::Write {
                        local_rkey: lkey,
                        local_addr: 0,
                        remote_addr: 0,
                        remote_rkey: 1,
                        len: 4096,
                    },
                },
                &a_cat,
                Instant::ZERO,
            );
            drop(lost);
        }
        let mut replay = Vec::new();
        for round in 1..=200u64 {
            a.tick_into(Instant(round * 200_000), &a_cat, &mut replay);
            assert_eq!(replay.len(), 8, "two 4 KiB writes at MTU 1024");
            replay.clear();
        }
        assert_eq!(a.counters.retransmit_rounds, 200);
        let stats = a.payload_arena().stats();
        assert_eq!(
            stats.hits + stats.misses,
            8 * 201,
            "every take is the live arena's"
        );
        assert!(stats.hit_rate() >= 0.99, "{stats:?}");
    }

    #[test]
    fn go_back_n_replays_sg_chain_exactly() {
        // Post a chain of [WriteSg, ReadOwned]; lose everything; the timeout
        // replay must regenerate identical packets and both WQEs must
        // complete exactly once.
        let (mut a, a_cat, mut b, mut b_cat) = pair(1024);
        let remote = Region::new(1024);
        remote.write(0, &[9u8; 64]).unwrap();
        let rkey = b_cat.register(remote.clone());

        let lost_w = a
            .post(
                WorkRequest {
                    wr_id: 1,
                    op: WrOp::WriteSg {
                        remote_addr: 512,
                        remote_rkey: rkey,
                        segments: vec![vec![1u8; 16].into(), vec![2u8; 16].into()],
                    },
                },
                &a_cat,
                Instant::ZERO,
            )
            .unwrap();
        let lost_r = a
            .post(
                WorkRequest {
                    wr_id: 2,
                    op: WrOp::ReadOwned {
                        remote_addr: 0,
                        remote_rkey: rkey,
                        len: 64,
                    },
                },
                &a_cat,
                Instant::ZERO,
            )
            .unwrap();
        drop((lost_w, lost_r));

        let replay = a.tick(Instant(200_000), &a_cat);
        assert_eq!(replay.len(), 2, "one write packet + one read request");
        let (completions, _) = exchange(replay, &mut b, &b_cat, &mut a, &a_cat);
        let mut ids: Vec<u64> = completions.iter().map(|c| c.wr_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(remote.read_vec(512, 16).unwrap(), vec![1u8; 16]);
        assert_eq!(remote.read_vec(528, 16).unwrap(), vec![2u8; 16]);
        let read = completions.iter().find(|c| c.wr_id == 2).unwrap();
        assert_eq!(read.data, vec![9u8; 64]);
        assert_eq!(a.outstanding(), 0);
    }
}
