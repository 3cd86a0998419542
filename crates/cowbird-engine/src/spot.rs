//! Cowbird-Spot: the offload engine on a general-purpose core (paper §6).
//!
//! "These compute resources can come from many different sources, e.g., the
//! ARM cores of a SmartNIC, the management CPU of a harvested-memory VM, or
//! a separate spot instance dedicated to data-transfer offload." Here it is
//! a real OS thread — [`SpotAgent`] — driving the same [`EngineCore`] state
//! machine over the emulated RDMA fabric ([`rdma::emu`]). This is the
//! engine the runnable examples use: the compute node's threads never post a
//! verb; the agent thread does all of it, off the compute node.
//!
//! The agent is event-driven: it probes on a timer, executes transfers
//! through host-level RDMA work requests, and batches read responses
//! (`BATCH_SIZE`) before writing them back "to reduce the load on the
//! compute node and its network interface card" and its own verb count.
//!
//! ## Spot-instance failover
//!
//! Spot VMs get revoked. The agent models the full lifecycle:
//!
//! * [`SpotAgent::preemption_notice`] delivers the cloud's "two-minute
//!   warning": the agent drains — finishes everything it has accepted,
//!   publishes a final red block, and exits cleanly.
//! * [`SpotAgent::kill`] is revocation without warning (or a crash): the
//!   thread abandons in-flight work. The client detects the stall
//!   ([`cowbird::error::WaitError::EngineStalled`]), fences the epoch, and
//!   attaches a standby.
//! * [`SpotAgent::spawn_standby`] starts an agent that first reads the
//!   predecessor's red block from the channel region, adopts its committed
//!   state ([`EngineCore::adopt_from_red`]), publishes the bumped epoch, and
//!   resumes the normal loop.
//! * A zombie predecessor that was merely frozen (not dead) fences itself
//!   the first time a probe shows the client's fence word above its epoch,
//!   and exits with [`EngineStats::fenced`] set.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use cowbird::layout::{RED_LEN, RED_OFFSET};
use rdma::buf::PoolBuf;
use rdma::emu::EmuNic;
use rdma::mem::Rkey;
use rdma::qp::QpNum;
use rdma::verbs::{WorkRequest, WrKind, WrOp};
use telemetry::profile::Phase;
use telemetry::{Component, EventKind};

use crate::core::{EngineConfig, EngineCore, EngineStats, FabricOp};

/// Lifecycle signals shared between a [`SpotAgent`] and its thread.
#[derive(Default)]
struct Flags {
    /// Graceful stop: exit at the next round boundary.
    stop: AtomicBool,
    /// Abrupt revocation: exit immediately, abandoning in-flight work.
    kill: AtomicBool,
    /// Preemption notice received: finish accepted work, then exit.
    drain: AtomicBool,
    /// Freeze without exiting (a "zombie": alive but making no progress).
    pause: AtomicBool,
    /// Set by the thread while it is actually parked in the pause loop, so
    /// callers can wait for the freeze to take effect deterministically.
    parked: AtomicBool,
}

/// A running Cowbird-Spot agent; stops and joins on drop.
pub struct SpotAgent {
    flags: Arc<Flags>,
    handle: Option<JoinHandle<EngineStats>>,
}

/// Handle for delivering a spot preemption notice — the cloud's
/// "two-minute warning" — to a running agent from any thread.
#[derive(Clone)]
pub struct PreemptionNotice {
    flags: Arc<Flags>,
}

impl PreemptionNotice {
    /// Deliver the warning: the agent finishes every request it has
    /// accepted, publishes a final red block, and exits.
    pub fn deliver(&self) {
        self.flags.drain.store(true, Ordering::Release);
    }
}

/// Wiring the agent needs (established during the Setup phase).
#[derive(Clone)]
pub struct SpotWiring {
    /// The engine's NIC on the emulated fabric.
    pub nic: EmuNic,
    /// Engine's local QPN toward the compute node.
    pub compute_qpn: QpNum,
    /// Engine's local QPN toward the memory pool.
    pub pool_qpn: QpNum,
    /// rkey of the channel region on the compute node's NIC.
    pub channel_rkey: Rkey,
}

impl SpotAgent {
    /// Start the agent thread for one channel.
    pub fn spawn(wiring: SpotWiring, cfg: EngineConfig) -> SpotAgent {
        SpotAgent::spawn_inner(wiring, cfg, false)
    }

    /// Start a standby agent that adopts the channel from the predecessor's
    /// red block before serving it. The caller should have fenced the old
    /// epoch ([`cowbird::channel::Channel::fence_engine`]) first; the
    /// standby's first red publish then lands at exactly the fence epoch.
    pub fn spawn_standby(wiring: SpotWiring, cfg: EngineConfig) -> SpotAgent {
        SpotAgent::spawn_inner(wiring, cfg, true)
    }

    fn spawn_inner(wiring: SpotWiring, cfg: EngineConfig, adopt: bool) -> SpotAgent {
        let flags = Arc::new(Flags::default());
        let thread_flags = Arc::clone(&flags);
        // Per-channel names: several agents run at once in multi-channel
        // deployments, and identical thread names make flight-recorder node
        // attribution ambiguous.
        let name = if adopt {
            format!("cowbird-spot-standby-{}", cfg.channel_id)
        } else {
            format!("cowbird-spot-agent-{}", cfg.channel_id)
        };
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(move || agent_loop(wiring, cfg, thread_flags, adopt))
            .expect("spawn spot agent");
        SpotAgent {
            flags,
            handle: Some(handle),
        }
    }

    /// Stop the agent at the next round boundary and return its final
    /// statistics.
    pub fn stop(mut self) -> EngineStats {
        self.flags.stop.store(true, Ordering::Release);
        self.join_inner()
    }

    /// Revoke the agent without warning (crash / spot revocation): it exits
    /// as soon as it observes the flag, abandoning in-flight work and
    /// leaving the red block wherever the last completed round put it.
    pub fn kill(mut self) -> EngineStats {
        self.flags.kill.store(true, Ordering::Release);
        self.join_inner()
    }

    /// A handle for delivering the preemption "two-minute warning".
    pub fn preemption_notice(&self) -> PreemptionNotice {
        PreemptionNotice {
            flags: Arc::clone(&self.flags),
        }
    }

    /// Freeze (`true`) or thaw (`false`) the agent between rounds. A frozen
    /// agent is the deterministic model of a zombie: still holding its QPs,
    /// making no progress, and due for an epoch fence when it wakes.
    pub fn set_paused(&self, paused: bool) {
        self.flags.pause.store(paused, Ordering::Release);
    }

    /// Is the agent currently parked in the pause loop? (Pausing takes
    /// effect at the next round boundary; poll this to know the freeze has
    /// landed before acting on it.)
    pub fn is_parked(&self) -> bool {
        self.flags.parked.load(Ordering::Acquire)
    }

    /// Has the agent thread exited (drained after a preemption notice,
    /// fenced, or stopped)?
    pub fn is_finished(&self) -> bool {
        self.handle.as_ref().is_none_or(|h| h.is_finished())
    }

    /// Wait for the agent to exit on its own (after a preemption notice or
    /// an epoch fence) and return its final statistics.
    pub fn join(mut self) -> EngineStats {
        self.join_inner()
    }

    fn join_inner(&mut self) -> EngineStats {
        self.handle
            .take()
            .expect("already stopped")
            .join()
            .expect("agent panicked")
    }
}

impl Drop for SpotAgent {
    fn drop(&mut self) {
        self.flags.stop.store(true, Ordering::Release);
        self.flags.pause.store(false, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Where a posted WR's completion goes. A single read's tag takes the
/// landed buffer whole, and a tagged write's tag its empty acknowledgment; a
/// coalesced read's `(len, tag)` parts take consecutive slices of the one
/// landed buffer, in merge order.
pub(crate) enum Landing {
    Tag(u64),
    Parts(Vec<(u32, u64)>),
}

/// Turn the core's ops into work requests on `wiring`'s queue pairs and post
/// them — one chain per run of same-QP WRs when `chaining` (one doorbell per
/// destination run). Every WR whose completion the core wants back is
/// recorded in `pending`.
pub(crate) fn post_ops(
    wiring: &SpotWiring,
    chaining: bool,
    ops: Vec<FabricOp>,
    pending: &mut HashMap<u64, Landing>,
    next_wr: &mut u64,
) {
    let read = |remote_addr, remote_rkey, len| WrOp::ReadOwned {
        remote_addr,
        remote_rkey,
        len,
    };
    let mut posts: Vec<(QpNum, WorkRequest)> = Vec::with_capacity(ops.len());
    for op in ops {
        let (qpn, wr_op, landing) = match op {
            FabricOp::ReadCompute { offset, len, tag } => (
                wiring.compute_qpn,
                read(offset, wiring.channel_rkey, len),
                Some(Landing::Tag(tag)),
            ),
            FabricOp::ReadPool {
                rkey,
                addr,
                len,
                tag,
            } => (
                wiring.pool_qpn,
                read(addr, rkey, len),
                Some(Landing::Tag(tag)),
            ),
            // One owned read for the whole contiguous remote run.
            FabricOp::ReadPoolSg { rkey, addr, parts } => (
                wiring.pool_qpn,
                read(addr, rkey, parts.iter().map(|(l, _)| l).sum()),
                Some(Landing::Parts(parts)),
            ),
            FabricOp::WriteCompute { offset, data, tag } => (
                wiring.compute_qpn,
                WrOp::WriteInline {
                    remote_addr: offset,
                    remote_rkey: wiring.channel_rkey,
                    data,
                },
                // Tagged writes (red publishes) want their delivery
                // acknowledgment fed back.
                (tag != 0).then_some(Landing::Tag(tag)),
            ),
            FabricOp::WritePool { rkey, addr, data } => (
                wiring.pool_qpn,
                WrOp::WriteInline {
                    remote_addr: addr,
                    remote_rkey: rkey,
                    data,
                },
                None,
            ),
            FabricOp::WritePoolSg {
                rkey,
                addr,
                segments,
            } => (
                wiring.pool_qpn,
                WrOp::WriteSg {
                    remote_addr: addr,
                    remote_rkey: rkey,
                    segments,
                },
                None,
            ),
        };
        let wr_id = *next_wr;
        *next_wr += 1;
        if let Some(landing) = landing {
            pending.insert(wr_id, landing);
        }
        posts.push((qpn, WorkRequest { wr_id, op: wr_op }));
    }
    if chaining {
        let mut iter = posts.into_iter().peekable();
        while let Some((qpn, wr)) = iter.next() {
            let mut chain = vec![wr];
            while iter.peek().is_some_and(|(q, _)| *q == qpn) {
                chain.push(iter.next().unwrap().1);
            }
            wiring.nic.post_chain(qpn, chain).expect("engine post");
        }
    } else {
        for (qpn, wr) in posts {
            wiring.nic.post(qpn, wr).expect("engine post");
        }
    }
}

/// Feed one completion's landed buffer back through the core as `landing`
/// routes it; returns the ops the deliveries emit, in order.
pub(crate) fn deliver(core: &mut EngineCore, landing: Landing, data: PoolBuf) -> Vec<FabricOp> {
    let mut ops = Vec::new();
    match landing {
        Landing::Tag(tag) => core.on_landed_into(tag, data, &mut ops),
        Landing::Parts(parts) => {
            let mut at = 0;
            for (len, tag) in parts {
                ops.extend(core.on_data(tag, &data[at..at + len as usize]));
                at += len as usize;
            }
        }
    }
    ops
}

fn agent_loop(
    wiring: SpotWiring,
    cfg: EngineConfig,
    flags: Arc<Flags>,
    adopt: bool,
) -> EngineStats {
    let mut core = EngineCore::new(cfg);
    // Cycle-attribution handle (cloned so scopes don't borrow the core
    // across its mutations). Disabled by default: one branch per scope.
    let prof = core.profiler().clone();
    let mut pending: HashMap<u64, Landing> = HashMap::new();
    let mut next_wr: u64 = 1;
    let chaining = core.config().coalescing();

    // Standby path: adopt the predecessor's committed state from the red
    // block in the channel region before serving anything.
    if adopt {
        let wr_id = next_wr;
        next_wr += 1;
        let red_read = WorkRequest {
            wr_id,
            op: WrOp::ReadOwned {
                remote_addr: RED_OFFSET,
                remote_rkey: wiring.channel_rkey,
                len: RED_LEN as u32,
            },
        };
        wiring
            .nic
            .post(wiring.compute_qpn, red_read)
            .expect("standby red read");
        loop {
            if flags.stop.load(Ordering::Acquire) || flags.kill.load(Ordering::Acquire) {
                return core.stats;
            }
            let completions = wiring.nic.poll(4);
            if let Some(c) = completions
                .iter()
                .find(|c| c.wr_id == wr_id && c.kind == WrKind::Read)
            {
                if c.is_ok() {
                    core.adopt_from_red(&c.data);
                }
                break;
            }
            std::thread::yield_now();
        }
        // Publish the bumped epoch immediately so the client (and any
        // zombie predecessor, via its own probe of the fence word) observes
        // the takeover without waiting for request traffic.
        let ops = core.red_update();
        post_ops(&wiring, chaining, ops, &mut pending, &mut next_wr);
    }

    let mut drain_seen = false;
    'outer: while !flags.stop.load(Ordering::Acquire) && !flags.kill.load(Ordering::Acquire) {
        if flags.pause.load(Ordering::Acquire) {
            // a = 1 entering the freeze, 0 on thaw.
            core.recorder()
                .record(Component::Engine, EventKind::EngineParked, 0, 1, 0);
            flags.parked.store(true, Ordering::Release);
            while flags.pause.load(Ordering::Acquire)
                && !flags.stop.load(Ordering::Acquire)
                && !flags.kill.load(Ordering::Acquire)
            {
                std::thread::yield_now();
            }
            flags.parked.store(false, Ordering::Release);
            core.recorder()
                .record(Component::Engine, EventKind::EngineParked, 0, 0, 0);
        }
        let draining = flags.drain.load(Ordering::Acquire);
        if draining && !drain_seen {
            drain_seen = true;
            // a = 1: graceful two-minute warning (vs 0 for an abrupt kill).
            core.recorder()
                .record(Component::Engine, EventKind::EnginePreempted, 0, 1, 0);
        }
        // While draining we stop soliciting new work — except to kick the
        // state machine when parsed requests are waiting with nothing in
        // flight (a probe's completion is what re-runs the pending queue).
        if !draining || (pending.is_empty() && core.backlog() > 0) {
            // Attribution: soliciting work (green-block probe issue) is the
            // engine's Probe phase, measured on the agent thread's wall
            // clock.
            let _probe_scope = prof.scope(Phase::Probe);
            let ops = core.on_probe_due();
            post_ops(&wiring, chaining, ops, &mut pending, &mut next_wr);
        }

        // Drain completions until the engine goes quiet for this round.
        let mut idle_spins = 0;
        while !pending.is_empty() && idle_spins < 10_000 {
            if flags.kill.load(Ordering::Acquire) {
                break 'outer;
            }
            let completions = wiring.nic.poll(64);
            if completions.is_empty() {
                idle_spins += 1;
                std::thread::yield_now();
                continue;
            }
            idle_spins = 0;
            for c in completions {
                if !c.is_ok() {
                    core.reset_to_committed();
                    pending.clear();
                    continue;
                }
                let Some(landing) = pending.remove(&c.wr_id) else {
                    continue;
                };
                // Attribution: dispatching fetched data through the state
                // machine (and issuing the follow-up verbs) is Execute.
                let _exec_scope = prof.scope(Phase::Execute);
                let ops = deliver(&mut core, landing, c.data);
                post_ops(&wiring, chaining, ops, &mut pending, &mut next_wr);
            }
        }

        if core.is_fenced() {
            // A newer epoch owns the channel: exit without touching the
            // fabric again (EngineStats::fenced is already set).
            break;
        }
        if draining && pending.is_empty() && core.backlog() == 0 {
            // Preemption notice honored: everything accepted has completed
            // and the final red block is published.
            break;
        }

        // The paper's prototype probes every 2 us; emulated wall-clock
        // sleeps at that granularity are unreliable, so yield instead —
        // effectively the "maximum probe rate" configuration.
        std::thread::yield_now();
    }
    if flags.kill.load(Ordering::Acquire) {
        // a = 0: revocation without warning (in-flight work abandoned).
        core.recorder()
            .record(Component::Engine, EventKind::EnginePreempted, 0, 0, 0);
    }
    core.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use cowbird::channel::Channel;
    use cowbird::error::WaitError;
    use cowbird::layout::ChannelLayout;
    use cowbird::poll::PollGroup;
    use cowbird::region::{RegionMap, RemoteRegion};
    use rdma::emu::EmuFabric;
    use rdma::mem::Region;

    /// The full three-party system on the emulated fabric: compute NIC,
    /// spot engine, memory pool — with real threads everywhere — plus the
    /// spare parts needed to attach standby engines.
    struct TestBed {
        fabric: EmuFabric,
        ch: Channel,
        pool_mem: Region,
        agent: Option<SpotAgent>,
        compute: rdma::emu::EmuNic,
        pool: rdma::emu::EmuNic,
        channel_rkey: Rkey,
        layout: ChannelLayout,
        regions: RegionMap,
    }

    impl TestBed {
        /// Attach a standby engine on its own NIC (a different VM): fresh
        /// QPs to the compute node and the pool, adopting the channel.
        fn standby(&mut self) -> SpotAgent {
            let nic = self.fabric.add_nic();
            let (c_qpn, _) = self.fabric.connect(&nic, &self.compute);
            let (p_qpn, _) = self.fabric.connect(&nic, &self.pool);
            SpotAgent::spawn_standby(
                SpotWiring {
                    nic,
                    compute_qpn: c_qpn,
                    pool_qpn: p_qpn,
                    channel_rkey: self.channel_rkey,
                },
                EngineConfig::spot(self.layout, self.regions.clone(), 16),
            )
        }
    }

    fn deploy() -> TestBed {
        let mut fabric = EmuFabric::new();
        let compute = fabric.add_nic();
        let engine = fabric.add_nic();
        let pool = fabric.add_nic();

        // Pool memory.
        let pool_mem = Region::new(1 << 20);
        let pool_rkey = pool.register(pool_mem.clone());

        // Channel on the compute node.
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
        let channel_rkey = compute.register(ch.region().clone());

        // QPs: engine<->compute, engine<->pool.
        let (eng_c_qpn, _c_qpn) = fabric.connect(&engine, &compute);
        let (eng_p_qpn, _p_qpn) = fabric.connect(&engine, &pool);

        let agent = SpotAgent::spawn(
            SpotWiring {
                nic: engine,
                compute_qpn: eng_c_qpn,
                pool_qpn: eng_p_qpn,
                channel_rkey,
            },
            EngineConfig::spot(layout, regions.clone(), 16),
        );
        TestBed {
            fabric,
            ch,
            pool_mem,
            agent: Some(agent),
            compute,
            pool,
            channel_rkey,
            layout,
            regions,
        }
    }

    #[test]
    fn real_thread_end_to_end_read() {
        let mut bed = deploy();
        bed.pool_mem.write(777, b"threaded!").unwrap();
        let h = bed.ch.async_read(1, 777, 9).unwrap();
        assert!(bed.ch.wait(h.id, 50_000_000), "read must complete");
        assert_eq!(bed.ch.take_response(&h).unwrap(), b"threaded!");
        let stats = bed.agent.take().unwrap().stop();
        assert!(stats.probes_sent > 0);
        assert_eq!(stats.pool_reads, 1);
    }

    #[test]
    fn real_thread_end_to_end_write_then_read() {
        let mut bed = deploy();
        let w = bed.ch.async_write(1, 64, b"ABCD").unwrap();
        assert!(bed.ch.wait(w, 50_000_000));
        assert_eq!(bed.pool_mem.read_vec(64, 4).unwrap(), b"ABCD");
        // Read it back through Cowbird.
        let h = bed.ch.async_read(1, 64, 4).unwrap();
        assert!(bed.ch.wait(h.id, 50_000_000));
        assert_eq!(bed.ch.take_response(&h).unwrap(), b"ABCD");
    }

    #[test]
    fn poll_group_collects_batch_completions() {
        let mut bed = deploy();
        for i in 0..32u64 {
            bed.pool_mem.write(i * 8, &i.to_le_bytes()).unwrap();
        }
        let mut group = PollGroup::new();
        let handles: Vec<_> = (0..32u64)
            .map(|i| {
                let h = bed.ch.async_read(1, i * 8, 8).unwrap();
                group.add(h.id);
                h
            })
            .collect();
        let mut done = Vec::new();
        for _ in 0..1000 {
            match group.poll_wait_timeout(&mut bed.ch, 32 - done.len(), 100_000) {
                Ok(ids) => done.extend(ids),
                // A stalled verdict here just means the engine thread was
                // slow to schedule; keep waiting.
                Err(WaitError::EngineStalled { .. }) => continue,
                Err(e) => panic!("unexpected wait error: {e}"),
            }
            if done.len() == 32 {
                break;
            }
        }
        assert_eq!(done.len(), 32, "all completions must arrive");
        for (i, h) in handles.iter().enumerate() {
            let d = bed.ch.take_response(h).unwrap();
            assert_eq!(
                u64::from_le_bytes(d.as_slice().try_into().unwrap()),
                i as u64
            );
        }
    }

    #[test]
    fn preemption_notice_drains_and_standby_takes_over() {
        let mut bed = deploy();
        bed.pool_mem.write(0, b"both engines").unwrap();
        let h1 = bed.ch.async_read(1, 0, 4).unwrap();
        assert!(bed.ch.wait(h1.id, 50_000_000));
        assert_eq!(bed.ch.take_response(&h1).unwrap(), b"both");

        // Two-minute warning: the agent finishes what it accepted and
        // exits on its own.
        let agent = bed.agent.take().unwrap();
        agent.preemption_notice().deliver();
        let stats = agent.join();
        assert!(!stats.fenced);
        assert_eq!(stats.pool_reads, 1);

        // Requests issued after the VM is gone stall...
        let h2 = bed.ch.async_read(1, 5, 7).unwrap();
        assert!(matches!(
            bed.ch.wait_timeout(h2.id, 200_000),
            Err(WaitError::EngineStalled { .. })
        ));
        // ...until the client fences the dead epoch and attaches a standby.
        assert_eq!(bed.ch.fence_engine(), 1);
        let standby = bed.standby();
        assert!(bed.ch.wait(h2.id, 50_000_000), "standby must take over");
        assert_eq!(bed.ch.take_response(&h2).unwrap(), b"engines");
        assert_eq!(bed.ch.engine_epoch(), 1);
        let st = standby.stop();
        assert_eq!(st.adoptions, 1);
        assert_eq!(st.pool_reads, 1);
    }

    #[test]
    fn frozen_zombie_is_fenced_and_standby_resumes_exactly_once() {
        let mut bed = deploy();
        bed.pool_mem.write(64, b"SURVIVES").unwrap();
        // Warm up, then freeze the primary into a zombie: still holding
        // its QPs, making no progress.
        let h = bed.ch.async_read(1, 64, 8).unwrap();
        assert!(bed.ch.wait(h.id, 50_000_000));
        let agent = bed.agent.take().unwrap();
        agent.set_paused(true);
        while !agent.is_parked() {
            std::thread::yield_now();
        }

        // Work issued against the frozen engine stalls out.
        let w = bed.ch.async_write(1, 128, b"once!").unwrap();
        let r = bed.ch.async_read(1, 64, 8).unwrap();
        assert!(matches!(
            bed.ch.wait_timeout(w, 200_000),
            Err(WaitError::EngineStalled { .. })
        ));

        // Fence and fail over; the standby completes both, exactly once.
        assert_eq!(bed.ch.fence_engine(), 1);
        let standby = bed.standby();
        assert!(bed.ch.wait(w, 50_000_000));
        assert!(bed.ch.wait(r.id, 50_000_000));
        assert_eq!(bed.ch.take_response(&r).unwrap(), b"SURVIVES");
        assert_eq!(bed.pool_mem.read_vec(128, 5).unwrap(), b"once!");

        // Thaw the zombie: its next probe sees the fence word and it exits
        // by itself without emitting anything.
        agent.set_paused(false);
        let zombie = agent.join();
        assert!(zombie.fenced);
        assert_eq!(zombie.writes_executed, 0);

        let st = standby.stop();
        assert_eq!(st.adoptions, 1);
        assert_eq!(st.writes_executed, 1, "the write must apply exactly once");
    }
}
