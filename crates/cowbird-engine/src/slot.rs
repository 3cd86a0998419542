//! One engine instance's driver, on either fabric.
//!
//! A [`Slot`] is everything an engine shell wraps around one
//! [`EngineCore`]: it turns the core's [`FabricOp`]s into work requests,
//! remembers which posted WR's completion the core wants back, feeds
//! completions to the core, and runs the standby takeover — read the
//! predecessor's red block (and the client's fence word when that block
//! shows a newer epoch than the standby's own), bid for leadership with a
//! compare-and-swap on the channel's engine-epoch word, adopt on a win.
//! It reaches the fabric only through a [`FabricPort`]: [`SimPort`] over a
//! simulated NIC, [`EmuPort`] over the emulated one.
//!
//! The shells only decide *when*: `sim::EngineNode` probes on timers and
//! routes one CQ to many slots; `spot::SpotAgent` and `group::EngineGroup`
//! loop over [`Slot::probe`] and [`Slot::poll`] on real threads.

use std::mem;

use cowbird::layout::{
    RedBlock, GREEN_CLIENT_EPOCH, GREEN_LEN, GREEN_OFFSET, RED_ENGINE_EPOCH, RED_LEN, RED_OFFSET,
};
use rdma::mem::Rkey;
use rdma::qp::QpNum;
use rdma::sim::SimNic;
use rdma::verbs::{Completion, WorkRequest, WrOp};
use simnet::fasthash::FastHashMap;
use simnet::pool::PoolBuf;
use simnet::sim::Ctx;
use telemetry::profile::Phase;
use telemetry::Profiler;

use crate::core::{EngineConfig, EngineCore, FabricOp};
use crate::spot::SpotWiring;

/// Completions taken from the fabric per poll.
const POLL_BATCH: usize = 64;

/// How a slot reaches its fabric.
pub(crate) trait FabricPort {
    /// Post `wr` on `qpn`. `background` marks probe and telemetry traffic,
    /// which rides below the data path where the fabric has priorities.
    /// Post errors are fatal for the engine.
    fn post(&mut self, qpn: QpNum, background: bool, wr: WorkRequest);
    /// Append the completions waiting on the fabric to `out`.
    fn poll_into(&mut self, out: &mut Vec<Completion>);
}

/// The simulated fabric: every post is packetized and sent at once, at the
/// lowest priority for background traffic and at the data priority for
/// the rest (the knobs the Fig. 14 contention experiment turns).
pub(crate) struct SimPort<'a, 'c> {
    pub nic: &'a mut SimNic,
    pub ctx: &'a mut Ctx<'c>,
    pub probe_prio: u8,
    pub data_prio: u8,
}

impl FabricPort for SimPort<'_, '_> {
    fn post(&mut self, qpn: QpNum, background: bool, wr: WorkRequest) {
        let prio = if background {
            self.probe_prio
        } else {
            self.data_prio
        };
        if let Err(e) = self.nic.post_and_send(qpn, wr, prio, self.ctx) {
            panic!("engine post failed: {e}");
        }
    }

    fn poll_into(&mut self, out: &mut Vec<Completion>) {
        self.nic.poll_into(POLL_BATCH, out);
    }
}

/// The emulated fabric: a run of posts to one QP goes to the NIC as one
/// chain (one NIC entry, one doorbell). The run is sent when the next post
/// names another QP, before a poll, and on [`EmuPort::flush`], which a
/// shell calls before it lets the port go.
pub(crate) struct EmuPort<'a> {
    wiring: &'a SpotWiring,
    run_qpn: QpNum,
    run: &'a mut Vec<WorkRequest>,
}

impl<'a> EmuPort<'a> {
    /// A port whose runs build in `run`, a buffer the shell keeps across
    /// passes so a pass allocates nothing.
    pub fn new(wiring: &'a SpotWiring, run: &'a mut Vec<WorkRequest>) -> EmuPort<'a> {
        EmuPort {
            wiring,
            run_qpn: wiring.compute_qpn,
            run,
        }
    }

    /// Send the pending run.
    pub fn flush(&mut self) {
        if !self.run.is_empty() {
            self.wiring
                .nic
                .post_chain(self.run_qpn, self.run.drain(..))
                .expect("engine post");
        }
    }
}

impl FabricPort for EmuPort<'_> {
    fn post(&mut self, qpn: QpNum, _background: bool, wr: WorkRequest) {
        if qpn != self.run_qpn {
            self.flush();
            self.run_qpn = qpn;
        }
        self.run.push(wr);
    }

    fn poll_into(&mut self, out: &mut Vec<Completion>) {
        self.flush();
        self.wiring.nic.poll_into(POLL_BATCH, out);
    }
}

/// Where a posted WR's completion goes.
enum Pending {
    /// To the core under this tag: a read's landed buffer whole, or a
    /// tagged write's empty acknowledgment.
    Tag(u64),
    /// A coalesced read: each `(len, tag)` part takes its consecutive slice
    /// of the one landed buffer, in merge order.
    Parts(Vec<(u32, u64)>),
    /// A standby's read of the predecessor's red block.
    RedRead,
    /// A standby's read of the client's fence word, taken when the red
    /// snapshot in [`Slot::bid_red`] shows epoch `red`, newer than its own.
    FenceRead { red: u64 },
    /// A standby's CAS bid on the engine-epoch word: `bid` is the
    /// predecessor epoch the red snapshot in [`Slot::bid_red`] showed.
    Election { bid: u64 },
}

impl Pending {
    fn is_takeover(&self) -> bool {
        matches!(
            self,
            Pending::RedRead | Pending::FenceRead { .. } | Pending::Election { .. }
        )
    }
}

/// A slot's part in serving its channel.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A standby: dormant, or with its red read or CAS bid in flight (the
    /// pending table says which).
    Standby,
    /// Serving the channel.
    Active,
    /// Lost the election: another standby serves the channel.
    StoodDown,
}

/// One engine instance's complete driver state.
pub(crate) struct Slot {
    pub core: EngineCore,
    /// Where probe and execute work is attributed: the core's own
    /// profiler, or the polling-group shard's that owns the slot.
    pub prof: Profiler,
    compute_qpn: QpNum,
    /// Probes and telemetry writes; on a fabric without a dedicated
    /// low-priority QP this is `compute_qpn`.
    probe_qpn: QpNum,
    pool_qpn: QpNum,
    /// rkey of the channel region on the compute node's NIC.
    channel_rkey: Rkey,
    pending: FastHashMap<u64, Pending>,
    next_wr: u64,
    /// Op scratch for the core's `_into` calls.
    ops: Vec<FabricOp>,
    /// Completion scratch for [`Slot::poll`].
    comps: Vec<Completion>,
    role: Role,
    /// The red snapshot a standby's bid adopts if it wins, held from the
    /// red read until the bid settles (kept out of the pending table, whose
    /// every entry would otherwise carry room for it).
    bid_red: PoolBuf,
}

impl Slot {
    /// A slot posting on `[compute, probe, pool]` QPs, numbering its WRs
    /// from `wr_base + 1`; a `standby` starts dormant.
    pub fn new(
        core: EngineCore,
        [compute_qpn, probe_qpn, pool_qpn]: [QpNum; 3],
        channel_rkey: Rkey,
        wr_base: u64,
        standby: bool,
    ) -> Slot {
        Slot {
            prof: core.profiler().clone(),
            core,
            compute_qpn,
            probe_qpn,
            pool_qpn,
            channel_rkey,
            pending: FastHashMap::default(),
            next_wr: wr_base + 1,
            ops: Vec::new(),
            comps: Vec::new(),
            role: if standby { Role::Standby } else { Role::Active },
            bid_red: PoolBuf::empty(),
        }
    }

    /// A slot on the emulated fabric, which has no probe QP.
    pub fn emu(wiring: &SpotWiring, cfg: EngineConfig, standby: bool) -> Slot {
        let qpns = [wiring.compute_qpn, wiring.compute_qpn, wiring.pool_qpn];
        Slot::new(EngineCore::new(cfg), qpns, wiring.channel_rkey, 0, standby)
    }

    pub fn is_active(&self) -> bool {
        self.role == Role::Active
    }

    /// Did this standby lose the election?
    pub fn stood_down(&self) -> bool {
        self.role == Role::StoodDown
    }

    /// Posted WRs whose completion the slot still waits for.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// A probe is due: issue the green-block read (and the telemetry
    /// readback on its cadence). Returns whether anything was posted; an
    /// inactive slot posts nothing.
    pub fn probe(&mut self, port: &mut impl FabricPort) -> bool {
        if !self.is_active() {
            return false;
        }
        let prof = self.prof.clone();
        let _scope = prof.scope(Phase::Probe);
        self.core.on_probe_due_into(&mut self.ops);
        let posted = !self.ops.is_empty();
        self.exec(port);
        posted
    }

    /// Poll the fabric once and complete everything it returned. Returns
    /// whether anything came back.
    pub fn poll(&mut self, port: &mut impl FabricPort) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        let mut comps = mem::take(&mut self.comps);
        port.poll_into(&mut comps);
        let got = !comps.is_empty();
        for c in comps.drain(..) {
            self.complete(port, c);
        }
        self.comps = comps;
        got
    }

    /// Begin a standby takeover: read the predecessor's red block from the
    /// channel region.
    pub fn begin_takeover(&mut self, port: &mut impl FabricPort) {
        let red = WrOp::ReadOwned {
            remote_addr: RED_OFFSET,
            remote_rkey: self.channel_rkey,
            len: RED_LEN as u32,
        };
        self.post(port, self.compute_qpn, false, red, Some(Pending::RedRead));
    }

    /// Route one completion. Returns whether it made a standby active (its
    /// shell then starts probing it).
    pub fn complete(&mut self, port: &mut impl FabricPort, c: Completion) -> bool {
        let entry = self.pending.remove(&c.wr_id);
        if !c.is_ok() {
            if entry.as_ref().is_some_and(Pending::is_takeover) {
                // The takeover's own verb was lost: start it over.
                self.begin_takeover(port);
            } else {
                // Go-Back-N restart: the core replays from its committed
                // floor, so no data-path completion still owed is wanted.
                self.core.reset_to_committed();
                self.pending.retain(|_, p| p.is_takeover());
            }
            return false;
        }
        match entry {
            None => {}
            Some(Pending::Tag(tag)) => {
                let prof = self.prof.clone();
                let _scope = prof.scope(Phase::Execute);
                self.core.on_landed_into(tag, c.data, &mut self.ops);
                self.exec(port);
            }
            Some(Pending::Parts(parts)) => {
                // One CQE, one Execute visit, however many parts.
                let prof = self.prof.clone();
                let _scope = prof.scope(Phase::Execute);
                let mut at = 0;
                for (len, tag) in parts {
                    let part = &c.data[at..at + len as usize];
                    at += len as usize;
                    self.core.on_data_into(tag, part, &mut self.ops);
                    self.exec(port);
                }
            }
            Some(Pending::RedRead) => self.bid(port, c.data),
            Some(Pending::FenceRead { red }) => {
                let fence = u64::from_le_bytes(c.data[..8].try_into().expect("fence word"));
                if red + 1 == fence {
                    self.post_cas(port, red);
                } else {
                    self.stand_down(fence.saturating_sub(1), red);
                }
            }
            Some(Pending::Election { bid }) => {
                let orig = c
                    .atomic_orig
                    .expect("atomic completion carries the original value");
                return self.settle(port, bid, orig);
            }
        }
        false
    }

    /// The red snapshot is in. If it shows the predecessor this standby was
    /// configured against (its own epoch: 0 for a fresh core), bid at once.
    /// A newer epoch is either a peer that won and serves, or a successor
    /// that has since stalled and been fenced: the client's fence word
    /// tells which, so read it before bidding. With several standbys
    /// racing, exactly one CAS observes the predecessor's epoch.
    fn bid(&mut self, port: &mut impl FabricPort, red: PoolBuf) {
        let Some(block) = RedBlock::decode(&red) else {
            self.role = Role::StoodDown;
            return;
        };
        self.bid_red = red;
        let epoch = block.engine_epoch;
        if epoch == self.core.epoch() {
            self.post_cas(port, epoch);
            return;
        }
        let fence = WrOp::ReadOwned {
            remote_addr: GREEN_CLIENT_EPOCH,
            remote_rkey: self.channel_rkey,
            len: 8,
        };
        let entry = Pending::FenceRead { red: epoch };
        self.post(port, self.compute_qpn, false, fence, Some(entry));
    }

    /// Bid to succeed epoch `bid`: CAS the engine-epoch word to `bid + 1`.
    fn post_cas(&mut self, port: &mut impl FabricPort, bid: u64) {
        let cas = WrOp::CompareSwap {
            remote_addr: RED_ENGINE_EPOCH,
            remote_rkey: self.channel_rkey,
            compare: bid,
            swap: bid + 1,
        };
        self.post(
            port,
            self.compute_qpn,
            false,
            cas,
            Some(Pending::Election { bid }),
        );
    }

    /// Lose the election: the epoch word showed `observed`, not `bid`.
    fn stand_down(&mut self, bid: u64, observed: u64) {
        self.bid_red = PoolBuf::empty();
        self.core.note_election_lost(bid, observed);
        self.role = Role::StoodDown;
    }

    /// The CAS bid settled with the word's original value `orig`: adopt on
    /// a win, stand down on a loss. Returns whether the slot went active.
    fn settle(&mut self, port: &mut impl FabricPort, bid: u64, orig: u64) -> bool {
        if orig != bid {
            self.stand_down(bid, orig);
            return false;
        }
        let red = mem::replace(&mut self.bid_red, PoolBuf::empty());
        self.core.note_election_won(bid, bid + 1);
        // Adoption stages the bumped epoch's red publish, posted at once, so
        // the client (and any zombie predecessor, through the fence word)
        // sees the takeover without waiting for request traffic.
        self.core
            .adopt_from_red(&red, &mut self.ops)
            .expect("the bid decoded this red block");
        self.role = Role::Active;
        self.exec(port);
        true
    }

    /// Post every op the core just staged in the scratch, in order.
    fn exec(&mut self, port: &mut impl FabricPort) {
        let mut ops = mem::take(&mut self.ops);
        for op in ops.drain(..) {
            self.post_op(port, op);
        }
        self.ops = ops;
    }

    /// The one `FabricOp` → work request translation.
    fn post_op(&mut self, port: &mut impl FabricPort, op: FabricOp) {
        let read = |remote_addr, remote_rkey, len| WrOp::ReadOwned {
            remote_addr,
            remote_rkey,
            len,
        };
        let write = |remote_addr, remote_rkey, data| WrOp::WriteInline {
            remote_addr,
            remote_rkey,
            data,
        };
        let (qpn, background, wr, entry) = match op {
            FabricOp::ReadCompute { offset, len, tag } => {
                // The green-block probe is the only read of its shape.
                let probe = offset == GREEN_OFFSET && len == GREEN_LEN as u32;
                let wr = read(offset, self.channel_rkey, len);
                (self.compute_lane(probe), probe, wr, Some(Pending::Tag(tag)))
            }
            FabricOp::WriteCompute { offset, data, tag } => {
                // The fire-and-forget telemetry readback is background
                // traffic like the probe, so an idle engine never touches
                // the data priority classes. Tagged writes (red publishes)
                // want their delivery acknowledgment fed back.
                let telem = tag == 0 && offset == self.core.layout().telem_offset();
                let wr = write(offset, self.channel_rkey, data);
                let entry = (tag != 0).then_some(Pending::Tag(tag));
                (self.compute_lane(telem), telem, wr, entry)
            }
            FabricOp::ReadPool {
                rkey,
                addr,
                len,
                tag,
            } => (
                self.pool_qpn,
                false,
                read(addr, rkey, len),
                Some(Pending::Tag(tag)),
            ),
            // One owned read for the whole contiguous remote run.
            FabricOp::ReadPoolSg { rkey, addr, parts } => {
                let wr = read(addr, rkey, parts.iter().map(|(l, _)| l).sum());
                (self.pool_qpn, false, wr, Some(Pending::Parts(parts)))
            }
            FabricOp::WritePool { rkey, addr, data } => {
                (self.pool_qpn, false, write(addr, rkey, data), None)
            }
            FabricOp::WritePoolSg {
                rkey,
                addr,
                segments,
            } => {
                let wr = WrOp::WriteSg {
                    remote_addr: addr,
                    remote_rkey: rkey,
                    segments,
                };
                (self.pool_qpn, false, wr, None)
            }
        };
        self.post(port, qpn, background, wr, entry);
    }

    fn compute_lane(&self, background: bool) -> QpNum {
        if background {
            self.probe_qpn
        } else {
            self.compute_qpn
        }
    }

    fn post(
        &mut self,
        port: &mut impl FabricPort,
        qpn: QpNum,
        background: bool,
        op: WrOp,
        entry: Option<Pending>,
    ) {
        let wr_id = self.next_wr;
        self.next_wr += 1;
        if let Some(entry) = entry {
            self.pending.insert(wr_id, entry);
        }
        port.post(qpn, background, WorkRequest { wr_id, op });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cowbird::channel::Channel;
    use cowbird::layout::ChannelLayout;
    use cowbird::region::{RegionMap, RemoteRegion};
    use cowbird::reqid::OpType;
    use rdma::emu::EmuFabric;
    use rdma::mem::Region;
    use rdma::verbs::CompletionStatus;

    /// The emulated fabric, except that the first pool write's completion
    /// reports an error. Neither fabric fails an engine WR by itself (the
    /// simulated one retransmits through loss and link-down windows), so
    /// the one error rule is exercised by injection.
    struct FailFirstPoolWrite<'a> {
        inner: EmuPort<'a>,
        pool_qpn: QpNum,
        victim: Option<u64>,
        failed: bool,
    }

    impl FabricPort for FailFirstPoolWrite<'_> {
        fn post(&mut self, qpn: QpNum, background: bool, wr: WorkRequest) {
            let write = matches!(wr.op, WrOp::WriteInline { .. } | WrOp::WriteSg { .. });
            if qpn == self.pool_qpn && write && self.victim.is_none() {
                self.victim = Some(wr.wr_id);
            }
            self.inner.post(qpn, background, wr);
        }

        fn poll_into(&mut self, out: &mut Vec<Completion>) {
            let from = out.len();
            self.inner.poll_into(out);
            for c in &mut out[from..] {
                if Some(c.wr_id) == self.victim && !self.failed {
                    c.status = CompletionStatus::RemoteError;
                    self.failed = true;
                }
            }
        }
    }

    #[test]
    fn failed_untagged_pool_write_resets_and_completes_exactly_once() {
        let mut fabric = EmuFabric::new();
        let (compute, engine, pool) = (fabric.add_nic(), fabric.add_nic(), fabric.add_nic());
        let mut regions = RegionMap::new();
        regions.insert(
            1,
            RemoteRegion {
                rkey: pool.register(Region::new(1 << 20)),
                base: 0,
                size: 1 << 20,
            },
        );
        let layout = ChannelLayout::default_sizes();
        let mut ch = Channel::new(0, layout, regions.clone());
        let channel_rkey = compute.register(ch.region().clone());
        let (compute_qpn, _) = fabric.connect(&engine, &compute);
        let (pool_qpn, _) = fabric.connect(&engine, &pool);
        let wiring = SpotWiring {
            nic: engine,
            compute_qpn,
            pool_qpn,
            channel_rkey,
        };
        let mut slot = Slot::emu(&wiring, EngineConfig::spot(layout, regions, 16), false);
        let mut run = Vec::new();
        let mut port = FailFirstPoolWrite {
            inner: EmuPort::new(&wiring, &mut run),
            pool_qpn,
            victim: None,
            failed: false,
        };

        // The write's pool WR is untagged: no pending entry waits for it,
        // yet its failed completion resets the core to its committed state
        // like any other error, and the replay still completes the write
        // and the read behind it exactly once.
        let w = ch.async_write(1, 64, b"once").unwrap();
        let r = ch.async_read(1, 64, 4).unwrap();
        for _ in 0..1_000_000 {
            if ch.is_complete(w) && ch.is_complete(r.id) {
                break;
            }
            slot.probe(&mut port);
            slot.poll(&mut port);
            port.inner.flush();
        }
        assert!(port.failed, "the pool write's completion was failed");
        assert!(ch.is_complete(w) && ch.is_complete(r.id));
        assert_eq!(ch.take_response(&r).unwrap(), b"once");
        ch.refresh();
        assert_eq!(ch.progress(OpType::Write), 1);
        assert_eq!(ch.progress(OpType::Read), 1);
    }
}
