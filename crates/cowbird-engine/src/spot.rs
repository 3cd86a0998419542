//! Cowbird-Spot: the offload engine on a general-purpose core (paper §6).
//!
//! "These compute resources can come from many different sources, e.g., the
//! ARM cores of a SmartNIC, the management CPU of a harvested-memory VM, or
//! a separate spot instance dedicated to data-transfer offload." Here it is
//! a real OS thread — [`SpotAgent`] — running the same engine driver as the
//! simulator's `EngineNode` over the emulated RDMA fabric ([`rdma::emu`]),
//! one slot's probe-and-poll pass after another. This is the engine the
//! runnable examples use: the compute node's threads never post a verb; the
//! agent thread does all of it, off the compute node.
//!
//! The agent probes at the maximum rate, executes transfers through
//! host-level RDMA work requests, and batches read responses
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
//!   predecessor's red block from the channel region, bids for leadership
//!   with a compare-and-swap on the channel's engine-epoch word, and on a
//!   win adopts the committed state ([`EngineCore::adopt_from_red`]),
//!   publishes the bumped epoch, and resumes the normal loop. Of several
//!   racing standbys exactly one wins; the rest exit without serving.
//! * A zombie predecessor that was merely frozen (not dead) fences itself
//!   the first time a probe shows the client's fence word above its epoch,
//!   and exits with [`EngineStats::fenced`] set.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use rdma::emu::EmuNic;
use rdma::mem::Rkey;
use rdma::qp::QpNum;
use telemetry::{Component, EventKind};

use crate::core::{EngineConfig, EngineCore, EngineStats};
use crate::slot::{EmuPort, Slot};

/// Lifecycle signals shared between a [`SpotAgent`] and its thread.
#[derive(Default)]
struct Flags {
    /// Graceful stop: exit once nothing is in flight.
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
            .spawn(move || run(wiring, cfg, thread_flags, adopt))
            .expect("spawn spot agent");
        SpotAgent {
            flags,
            handle: Some(handle),
        }
    }

    /// Stop the agent once it has nothing in flight (or its fabric has gone
    /// quiet for good) and return its final statistics.
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

    /// Freeze (`true`) or thaw (`false`) the agent the next time it has
    /// nothing in flight. A frozen agent is the deterministic model of a
    /// zombie: still holding its QPs, making no progress, and due for an
    /// epoch fence when it wakes.
    pub fn set_paused(&self, paused: bool) {
        self.flags.pause.store(paused, Ordering::Release);
    }

    /// Is the agent currently parked in the pause loop? (Pausing takes
    /// effect once nothing is in flight; poll this to know the freeze has
    /// landed before acting on it.)
    pub fn is_parked(&self) -> bool {
        self.flags.parked.load(Ordering::Acquire)
    }

    /// Has the agent thread exited (drained after a preemption notice,
    /// fenced, outvoted in a standby election, or stopped)?
    pub fn is_finished(&self) -> bool {
        self.handle.as_ref().is_none_or(|h| h.is_finished())
    }

    /// Wait for the agent to exit on its own (after a preemption notice, an
    /// epoch fence or a lost election) and return its final statistics.
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

/// Passes with nothing to do after which a stop request is honoured even
/// with WRs still in flight (their fabric is gone).
const STOP_IDLE_PASSES: u32 = 10_000;

/// The agent thread: one slot's probe-and-poll pass, over and over.
///
/// Once stop, pause or drain is requested the agent stops soliciting work
/// and lets what is in flight finish; the request lands only while the slot
/// has nothing in flight. A zombie frozen mid-round would finish the round
/// on thaw — and could write to the pool after its successor took over —
/// before a probe showed it the fence.
fn run(wiring: SpotWiring, cfg: EngineConfig, flags: Arc<Flags>, standby: bool) -> EngineStats {
    let mut slot = Slot::emu(&wiring, cfg, standby);
    let mut run = Vec::new();
    if standby {
        let mut port = EmuPort::new(&wiring, &mut run);
        slot.begin_takeover(&mut port);
        port.flush();
    }
    let mut draining = false;
    let mut idle_passes: u32 = 0;
    loop {
        if flags.kill.load(Ordering::Acquire) {
            // a = 0: revocation without warning (in-flight work abandoned).
            slot.core
                .recorder()
                .record(Component::Engine, EventKind::EnginePreempted, 0, 0, 0);
            break;
        }
        // A newer epoch owns the channel (EngineStats::fenced is set), or
        // a peer standby won the election: never touch the fabric again.
        if slot.core.is_fenced() || slot.stood_down() {
            break;
        }
        let stop = flags.stop.load(Ordering::Acquire);
        let pause = flags.pause.load(Ordering::Acquire);
        if !draining && flags.drain.load(Ordering::Acquire) {
            draining = true;
            // a = 1: graceful two-minute warning (vs 0 for an abrupt kill).
            slot.core
                .recorder()
                .record(Component::Engine, EventKind::EnginePreempted, 0, 1, 0);
        }
        let quiet = slot.in_flight() == 0;
        if stop && (quiet || idle_passes >= STOP_IDLE_PASSES) {
            break;
        }
        if quiet && pause {
            park(&flags, &slot.core);
            continue;
        }
        if draining && quiet && slot.core.backlog() == 0 {
            // Preemption notice honoured: everything accepted has completed
            // and the final red block is published.
            break;
        }
        // Winding down, the agent solicits no new work — except, quiet with
        // parsed requests still waiting, to kick the state machine (a
        // probe's completion is what re-runs the pending queue). Otherwise
        // probe at the maximum rate: emulated wall-clock sleeps at the
        // paper's 2 us granularity are unreliable.
        let mut port = EmuPort::new(&wiring, &mut run);
        let solicit = !(stop || pause || draining) || quiet;
        let probed = solicit && slot.probe(&mut port);
        let work = slot.poll(&mut port) || probed;
        port.flush();
        if work {
            idle_passes = 0;
        } else {
            idle_passes = idle_passes.saturating_add(1);
            std::thread::yield_now();
        }
    }
    slot.core.stats
}

/// Freeze until thawed (or stopped, or killed), flagging the park so
/// callers can wait for it.
fn park(flags: &Flags, core: &EngineCore) {
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

    /// Keep `ch` saturated with reads from another thread until `busy`
    /// clears; the thread returns how many reads completed.
    fn saturate(mut ch: Channel, busy: Arc<AtomicBool>) -> JoinHandle<u64> {
        std::thread::spawn(move || {
            let mut window = std::collections::VecDeque::new();
            let mut done = 0;
            while busy.load(Ordering::Acquire) {
                while window.len() < 32 {
                    match ch.async_read(1, 0, 8) {
                        Ok(h) => window.push_back(h),
                        Err(_) => break,
                    }
                }
                ch.refresh();
                while let Some(h) = window.front() {
                    if !ch.is_complete(h.id) {
                        break;
                    }
                    ch.take_response(h).unwrap();
                    window.pop_front();
                    done += 1;
                }
            }
            done
        })
    }

    /// Apply `wind_down` to the agent while a client keeps its channel
    /// saturated: the agent must stop soliciting work and exit in bounded
    /// time. Returns its final statistics.
    fn winds_down_under_load(wind_down: fn(SpotAgent) -> EngineStats) -> EngineStats {
        let mut bed = deploy();
        let agent = bed.agent.take().unwrap();
        let busy = Arc::new(AtomicBool::new(true));
        let client = saturate(bed.ch, Arc::clone(&busy));
        std::thread::sleep(std::time::Duration::from_millis(20));
        let waiter = std::thread::spawn(move || wind_down(agent));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !waiter.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "the agent must wind down under load"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        busy.store(false, Ordering::Release);
        assert!(client.join().unwrap() > 0, "the client was served");
        waiter.join().unwrap()
    }

    #[test]
    fn preemption_notice_lands_under_sustained_load() {
        let st = winds_down_under_load(|agent| {
            agent.preemption_notice().deliver();
            agent.join()
        });
        assert!(!st.fenced);
        assert!(st.reads_executed > 0);
    }

    #[test]
    fn stop_lands_under_sustained_load() {
        let st = winds_down_under_load(SpotAgent::stop);
        assert!(st.reads_executed > 0);
    }
}
