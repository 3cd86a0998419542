//! Every RDMA read the engine has in flight lands intact, however many there
//! are.
//!
//! The scenario: a client with 8 MiB data rings pre-posts 255 × 32 KiB
//! writes and then 255 × 32 KiB reads before any engine attaches, so the
//! engine's first probe finds ~16 MiB of fetches to put in flight at once —
//! far more than any fixed-size, wrap-around landing zone could hold without
//! overwriting reads that have not completed yet. The pool starts with every
//! 8-byte word stamped with its own address; writes go to the first half
//! and store each word's address inverted, reads come from the second half.
//! Every response byte and the whole pool image are checked afterwards.
//!
//! Both emulated-fabric shells ([`SpotAgent`] and [`EngineGroup`]) run the
//! scenario under a wall-clock deadline, so a hang fails instead of
//! stalling. The simulated [`EngineNode`] runs a multi-instance variant of
//! it (several channels pre-posting at once).

use std::time::{Duration, Instant};

use cowbird::channel::{Channel, ReadHandle};
use cowbird::layout::ChannelLayout;
use cowbird::region::{RegionMap, RemoteRegion};
use cowbird::reqid::ReqId;
use cowbird_engine::sim::ComputeNicNode;
use cowbird_engine::{
    EngineConfig, EngineGroup, EngineNode, GroupConfig, PoolNode, SpotAgent, SpotWiring,
};
use rdma::emu::EmuFabric;
use rdma::mem::Region;
use simnet::link::LinkParams;
use simnet::sim::{NodeId, Sim};

const LEN: u64 = 32 << 10;
const DEADLINE: Duration = Duration::from_secs(120);

/// A client's pre-posted work: `ops` writes into `[base, +ops·LEN)` of the
/// pool, then `ops` reads of `[base + ops·LEN, +ops·LEN)`.
struct Plan {
    base: u64,
    ops: u64,
}

impl Plan {
    fn write_addr(&self, i: u64) -> u64 {
        self.base + i * LEN
    }

    fn read_addr(&self, i: u64) -> u64 {
        self.base + (self.ops + i) * LEN
    }

    fn end(&self) -> u64 {
        self.base + 2 * self.ops * LEN
    }

    /// The bytes of `[addr, +len)` with every word stamped by `word(addr)`.
    fn stamped(addr: u64, len: u64, word: impl Fn(u64) -> u64) -> Vec<u8> {
        (addr..addr + len)
            .step_by(8)
            .flat_map(|a| word(a).to_le_bytes())
            .collect()
    }

    /// Post every write, then every read.
    fn post(&self, ch: &mut Channel) -> (Vec<ReqId>, Vec<ReadHandle>) {
        let writes = (0..self.ops)
            .map(|i| {
                let addr = self.write_addr(i);
                let data = Plan::stamped(addr, LEN, |a| !a);
                ch.async_write(1, addr, &data).expect("wdata ring has room")
            })
            .collect();
        let reads = (0..self.ops)
            .map(|i| {
                ch.async_read(1, self.read_addr(i), LEN as u32)
                    .expect("rdata ring has room")
            })
            .collect();
        (writes, reads)
    }

    /// Every read returned the stamped words of its range.
    fn check_responses(&self, ch: &mut Channel, reads: &[ReadHandle]) {
        for (i, h) in reads.iter().enumerate() {
            let got = ch.take_response(h).expect("read completed");
            let addr = self.read_addr(i as u64);
            let want = Plan::stamped(addr, LEN, |a| a);
            if let Some(w) = (0..got.len() / 8).find(|w| got[w * 8..][..8] != want[w * 8..][..8]) {
                panic!(
                    "read {i} of {}: word {w} is {:#x}, not its address {:#x}",
                    self.ops,
                    u64::from_le_bytes(got[w * 8..][..8].try_into().unwrap()),
                    addr + 8 * w as u64,
                );
            }
        }
    }

    /// The pool's `[base, end)` as the plan leaves it: writes applied over
    /// the first half, the second half untouched.
    fn pool_image(&self) -> Vec<u8> {
        let mid = self.base + self.ops * LEN;
        let mut image = Plan::stamped(self.base, mid - self.base, |a| !a);
        image.extend(Plan::stamped(mid, self.end() - mid, |a| a));
        image
    }
}

fn stamped_pool(size: u64) -> Region {
    let pool = Region::new(size as usize);
    pool.write(0, &Plan::stamped(0, size, |a| a)).unwrap();
    pool
}

fn pool_map(rkey: u32, size: u64) -> RegionMap {
    let mut regions = RegionMap::new();
    regions.insert(
        1,
        RemoteRegion {
            rkey,
            base: 0,
            size,
        },
    );
    regions
}

/// Wait, up to the deadline, until `done` holds.
fn until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + DEADLINE;
    while !done() {
        assert!(Instant::now() < deadline, "{what} within {DEADLINE:?}");
        std::thread::yield_now();
    }
}

/// The scenario on the emulated fabric: the client pre-posts everything,
/// then `attach` starts an engine on the channel's wiring (returning
/// whatever keeps it alive).
fn emu_scenario<E>(attach: impl FnOnce(SpotWiring, EngineConfig) -> E) {
    let plan = Plan { base: 0, ops: 255 };
    let mut fabric = EmuFabric::new();
    let compute = fabric.add_nic();
    let engine_nic = fabric.add_nic();
    let pool_nic = fabric.add_nic();
    let pool = stamped_pool(plan.end());
    let regions = pool_map(pool_nic.register(pool.clone()), plan.end());
    let layout = ChannelLayout::default_sizes().with_data_capacities(8 << 20, 8 << 20);
    let mut ch = Channel::new(0, layout, regions.clone());
    let channel_rkey = compute.register(ch.region().clone());
    let (compute_qpn, _) = fabric.connect(&engine_nic, &compute);
    let (pool_qpn, _) = fabric.connect(&engine_nic, &pool_nic);

    let (writes, reads) = plan.post(&mut ch);
    let _engine = attach(
        SpotWiring {
            nic: engine_nic,
            compute_qpn,
            pool_qpn,
            channel_rkey,
        },
        EngineConfig::spot(layout, regions, 16),
    );
    until("every pre-posted op completes", || {
        let last_write = *writes.last().unwrap();
        ch.is_complete(last_write) && ch.is_complete(reads.last().unwrap().id)
    });
    plan.check_responses(&mut ch, &reads);
    // A write completes at the client once the engine has issued it; the
    // pool sees it when it lands.
    let image = plan.pool_image();
    until("the pool image matches the writes", || {
        pool.read_vec(0, plan.end() as usize).unwrap() == image
    });
}

#[test]
fn spot_agent_lands_every_preposted_op_intact() {
    emu_scenario(SpotAgent::spawn);
}

#[test]
fn engine_group_lands_every_preposted_op_intact() {
    let group = EngineGroup::spawn(GroupConfig::with_workers(1));
    emu_scenario(|wiring, cfg| group.add_channel(wiring, cfg));
}

#[test]
fn sim_engine_instances_land_every_preposted_op_intact() {
    const INSTANCES: u64 = 8;
    let plans: Vec<Plan> = (0..INSTANCES)
        .map(|k| Plan {
            base: k * 64 * LEN,
            ops: 32,
        })
        .collect();
    let size = plans.last().unwrap().end();
    let (compute_id, engine_id, pool_id) = (NodeId(0), NodeId(1), NodeId(2));
    let pool_mem = stamped_pool(size);
    let mut pool = PoolNode::new();
    let regions = pool_map(pool.register(pool_mem.clone()), size);
    let layout = ChannelLayout::default_sizes().with_data_capacities(1 << 20, 1 << 20);
    let mut compute = ComputeNicNode::new();
    let mut engine = EngineNode::new();
    let mut channels = Vec::new();
    for k in 0..INSTANCES as u32 {
        // QPNs per instance: engine (data, pool, probe), compute (data,
        // probe), pool.
        let q = |base: u32| base + 10 * k;
        pool.create_qp(q(201), q(102), engine_id);
        let ch = Channel::new(k as u16, layout, regions.clone());
        let rkey = compute.register(ch.region().clone());
        compute.create_qp(q(301), q(101), engine_id);
        compute.create_qp(q(302), q(103), engine_id);
        engine.add_instance(
            EngineConfig::spot(layout, regions.clone(), 16).with_channel_id(k as u16),
            compute_id,
            pool_id,
            (q(101), q(301), q(102), q(201), q(103), q(302)),
            rkey,
        );
        channels.push(ch);
    }
    let posted: Vec<_> = channels
        .iter_mut()
        .zip(&plans)
        .map(|(ch, plan)| plan.post(ch))
        .collect();

    let mut sim = Sim::new(7);
    sim.add_node(Box::new(compute));
    sim.add_node(Box::new(engine));
    sim.add_node(Box::new(pool));
    sim.connect(compute_id, engine_id, LinkParams::rack_100g());
    sim.connect(engine_id, pool_id, LinkParams::rack_100g());
    sim.run_for(simnet::time::Duration::from_millis(50));

    for ((ch, plan), (writes, reads)) in channels.iter_mut().zip(&plans).zip(&posted) {
        assert!(writes.iter().all(|&w| ch.is_complete(w)), "writes complete");
        assert!(reads.iter().all(|h| ch.is_complete(h.id)), "reads complete");
        plan.check_responses(ch, reads);
        let image = pool_mem
            .read_vec(plan.base, (plan.end() - plan.base) as usize)
            .unwrap();
        assert!(image == plan.pool_image(), "pool image of {}", plan.base);
    }
}
