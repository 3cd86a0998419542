//! Standbys racing for one channel on the emulated fabric elect exactly one
//! leader, at every failover.
//!
//! The serving engine is frozen or revoked with work queued behind it, the
//! client fences its epoch, and two standby agents on NICs of their own
//! start at once. Each reads the red block (and, when that shows an epoch
//! newer than its own, the client's fence word) and bids with a
//! compare-and-swap on the channel's engine-epoch word; exactly one CAS sees
//! the predecessor's epoch. The winner adopts and serves, the loser stands
//! down and exits without touching the pool, and every queued write and
//! read completes exactly once. Results are checked through the channel
//! only.

use std::time::{Duration, Instant};

use cowbird::channel::{Channel, ReadHandle};
use cowbird::layout::ChannelLayout;
use cowbird::region::{RegionMap, RemoteRegion};
use cowbird::reqid::{OpType, ReqId};
use cowbird_engine::{EngineConfig, EngineStats, SpotAgent, SpotWiring};
use rdma::emu::{EmuFabric, EmuNic};
use rdma::mem::{Region, Rkey};

const PAIRS: u64 = 16;
const DEADLINE: Duration = Duration::from_secs(60);

/// A channel on a compute NIC, a memory pool, and the fabric to attach
/// engines to them.
struct Bed {
    fabric: EmuFabric,
    compute: EmuNic,
    pool: EmuNic,
    ch: Channel,
    channel_rkey: Rkey,
    layout: ChannelLayout,
    regions: RegionMap,
}

impl Bed {
    fn new() -> Bed {
        let mut fabric = EmuFabric::new();
        let compute = fabric.add_nic();
        let pool = fabric.add_nic();
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
        let ch = Channel::new(0, layout, regions.clone());
        let channel_rkey = compute.register(ch.region().clone());
        Bed {
            fabric,
            compute,
            pool,
            ch,
            channel_rkey,
            layout,
            regions,
        }
    }

    /// An engine NIC of its own, wired to the compute node and the pool.
    fn wiring(&mut self) -> SpotWiring {
        let nic = self.fabric.add_nic();
        let (compute_qpn, _) = self.fabric.connect(&nic, &self.compute);
        let (pool_qpn, _) = self.fabric.connect(&nic, &self.pool);
        SpotWiring {
            nic,
            compute_qpn,
            pool_qpn,
            channel_rkey: self.channel_rkey,
        }
    }

    fn cfg(&self) -> EngineConfig {
        EngineConfig::spot(self.layout, self.regions.clone(), 16)
    }

    fn primary(&mut self) -> SpotAgent {
        SpotAgent::spawn(self.wiring(), self.cfg())
    }

    fn standby(&mut self) -> SpotAgent {
        SpotAgent::spawn_standby(self.wiring(), self.cfg())
    }

    /// Wait for `id` under the test deadline.
    fn wait(&mut self, id: ReqId) {
        let deadline = Instant::now() + DEADLINE;
        while !self.ch.wait(id, 1 << 20) {
            assert!(Instant::now() < deadline, "{id:?} never completed");
        }
    }

    /// Queue `PAIRS` writes, each followed by a read of the same bytes, in
    /// round `round`'s slots.
    fn queue(&mut self, round: u64) -> Vec<(ReqId, ReadHandle)> {
        (0..PAIRS)
            .map(|i| {
                let at = (round * PAIRS + i) * 64;
                let w = self.ch.async_write(1, at, &value(round, i)).unwrap();
                (w, self.ch.async_read(1, at, 8).unwrap())
            })
            .collect()
    }

    /// Every queued op completes, and each read sees its write.
    fn check(&mut self, round: u64, pairs: &[(ReqId, ReadHandle)]) {
        for (i, (w, r)) in pairs.iter().enumerate() {
            self.wait(*w);
            self.wait(r.id);
            let got = self.ch.take_response(r).unwrap();
            assert_eq!(got, value(round, i as u64), "round {round} pair {i}");
        }
    }

    /// Freeze `agent` into a zombie: alive, holding its QPs, idle.
    fn freeze(agent: &SpotAgent) {
        agent.set_paused(true);
        let deadline = Instant::now() + DEADLINE;
        while !agent.is_parked() {
            assert!(Instant::now() < deadline, "the agent parks");
            std::thread::yield_now();
        }
    }
}

fn value(round: u64, i: u64) -> [u8; 8] {
    ((round << 32) | (i ^ 0xE1EC)).to_le_bytes()
}

/// Two standbys raced: wait for the loser to exit on its own and check it
/// never served. Returns the winner, still serving.
fn settle_race(a: SpotAgent, b: SpotAgent) -> SpotAgent {
    let deadline = Instant::now() + DEADLINE;
    while !a.is_finished() && !b.is_finished() {
        assert!(Instant::now() < deadline, "the losing standby exits");
        std::thread::yield_now();
    }
    let (lost, won) = if a.is_finished() {
        (a.join(), b)
    } else {
        (b.join(), a)
    };
    assert_lost(&lost);
    won
}

/// Wait under the test deadline for `agent` to exit on its own.
fn exits(agent: SpotAgent) -> EngineStats {
    let deadline = Instant::now() + DEADLINE;
    while !agent.is_finished() {
        assert!(Instant::now() < deadline, "the agent exits on its own");
        std::thread::yield_now();
    }
    agent.join()
}

fn assert_lost(st: &EngineStats) {
    assert_eq!(
        (st.adoptions, st.elections_won, st.elections_lost),
        (0, 0, 1)
    );
    assert_eq!(st.writes_executed, 0, "a loser never touches the pool");
}

fn assert_won(st: &EngineStats, writes: u64) {
    assert_eq!(
        (st.adoptions, st.elections_won, st.elections_lost),
        (1, 1, 0)
    );
    assert_eq!(
        st.writes_executed, writes,
        "every write applies exactly once"
    );
}

#[test]
fn two_emu_standbys_elect_exactly_one_leader() {
    let mut bed = Bed::new();

    // Warm up, then freeze the primary into a zombie.
    let primary = bed.primary();
    let h = bed.ch.async_read(1, 0, 8).unwrap();
    bed.wait(h.id);
    Bed::freeze(&primary);

    // Queue work behind the frozen engine, fence its epoch, and start two
    // standbys at once.
    let pairs = bed.queue(0);
    assert_eq!(bed.ch.fence_engine(), 1);
    let (a, b) = (bed.standby(), bed.standby());
    bed.check(0, &pairs);
    bed.ch.refresh();
    assert_eq!(bed.ch.progress(OpType::Write), PAIRS);
    assert_eq!(bed.ch.progress(OpType::Read), PAIRS + 1);
    assert_eq!(bed.ch.engine_epoch(), 1, "the winner's epoch is published");

    // The loser exits on its own; the winner keeps serving.
    let won = settle_race(a, b).stop();
    assert_won(&won, PAIRS);

    // Thawed, the zombie sees the fence and exits having written nothing.
    primary.set_paused(false);
    let zombie = exits(primary);
    assert!(zombie.fenced);
    assert_eq!(zombie.writes_executed, 0);
}

#[test]
fn successive_failovers_each_elect_one_leader() {
    let mut bed = Bed::new();
    let primary = bed.primary();
    let h = bed.ch.async_read(1, 0, 8).unwrap();
    bed.wait(h.id);
    Bed::freeze(&primary);

    // First failover: one standby succeeds epoch 0.
    let pairs = bed.queue(0);
    assert_eq!(bed.ch.fence_engine(), 1);
    let first = bed.standby();
    bed.check(0, &pairs);
    assert_eq!(bed.ch.engine_epoch(), 1);

    // The epoch-1 engine is revoked with work queued behind it. Its
    // successors are fresh cores: they learn from the fence word that
    // epoch 1, not 0, is the one to succeed, and exactly one wins.
    assert_won(&first.kill(), PAIRS);
    let pairs = bed.queue(1);
    assert_eq!(bed.ch.fence_engine(), 2);
    let (a, b) = (bed.standby(), bed.standby());
    bed.check(1, &pairs);
    assert_eq!(bed.ch.engine_epoch(), 2, "the second winner's epoch");
    let second = settle_race(a, b);

    // A standby arriving after the takeover finds the fence word at the
    // serving epoch and stands down instead of displacing the live winner.
    assert_lost(&exits(bed.standby()));
    let pairs = bed.queue(2);
    bed.check(2, &pairs);
    bed.ch.refresh();
    assert_eq!(bed.ch.progress(OpType::Write), 3 * PAIRS);
    assert_eq!(bed.ch.progress(OpType::Read), 3 * PAIRS + 1);
    assert_eq!(bed.ch.engine_epoch(), 2);
    assert_won(&second.stop(), 2 * PAIRS);

    primary.set_paused(false);
    let zombie = exits(primary);
    assert!(zombie.fenced);
    assert_eq!(zombie.writes_executed, 0);
}
