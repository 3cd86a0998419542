//! Staging and flushing pool writes allocates nothing once warm — measured
//! with a counting allocator.
//!
//! With coalescing on, every pool write whose payload arrives is *staged*
//! and the stage is flushed once the fetch window drains. A warmed-up core
//! driven through rounds of eight non-adjacent writes (so every round stages
//! eight and flushes eight, and nothing fuses into a scatter-gather verb)
//! performs **zero heap allocations**: the stage keeps its capacity across
//! flushes, payloads land in recycled buffers, and every scratch the loopback
//! driver uses is reused.
//!
//! The allocation counter is a process-global `#[global_allocator]`, so this
//! file holds exactly one test: the quiet window is only meaningful while no
//! sibling test thread is allocating.

use std::collections::VecDeque;

use cowbird::channel::Channel;
use cowbird::layout::ChannelLayout;
use cowbird::region::{RegionMap, RemoteRegion};
use cowbird_engine::{EngineConfig, EngineCore, FabricOp};
use rdma::mem::Region;
use simnet::pool::BufArena;
use telemetry::profile::{allocs_now, TallyAlloc};

#[global_allocator]
static COUNTER: TallyAlloc = TallyAlloc;

const WRITES: u64 = 8;
const LEN: usize = 64;

/// A synchronous loopback fabric whose every scratch is reused: fetched
/// bytes land in buffers from `arena` and go to the core owned, as an owned
/// read's landed buffer would.
struct Loopback {
    compute: Region,
    pool: Region,
    arena: BufArena,
    queue: VecDeque<FabricOp>,
    emitted: Vec<FabricOp>,
}

impl Loopback {
    fn land(&mut self, core: &mut EngineCore, from: &Region, addr: u64, len: u32, tag: u64) {
        let mut buf = self.arena.take_sized(0, len as usize);
        from.read(addr, &mut buf).unwrap();
        core.on_landed_into(tag, buf, &mut self.emitted);
    }

    fn probe(&mut self, core: &mut EngineCore) {
        core.on_probe_due_into(&mut self.emitted);
        self.queue.extend(self.emitted.drain(..));
        while let Some(op) = self.queue.pop_front() {
            match op {
                FabricOp::ReadCompute { offset, len, tag } => {
                    let compute = self.compute.clone();
                    self.land(core, &compute, offset, len, tag);
                }
                FabricOp::ReadPool { addr, len, tag, .. } => {
                    let pool = self.pool.clone();
                    self.land(core, &pool, addr, len, tag);
                }
                FabricOp::WriteCompute { offset, data, tag } => {
                    self.compute.write(offset, &data).unwrap();
                    if tag != 0 {
                        core.on_data_into(tag, &[], &mut self.emitted);
                    }
                }
                FabricOp::WritePool { addr, data, .. } => {
                    self.pool.write(addr, &data).unwrap();
                }
                op => panic!("no op of this round coalesces: {op:?}"),
            }
            self.queue.extend(self.emitted.drain(..));
        }
    }
}

#[test]
fn warmed_up_write_stage_allocates_nothing() {
    let mut regions = RegionMap::new();
    regions.insert(
        1,
        RemoteRegion {
            rkey: 5,
            base: 0,
            size: 1 << 16,
        },
    );
    let layout = ChannelLayout::default_sizes();
    let mut ch = Channel::new(0, layout, regions.clone());
    let cfg = EngineConfig::spot(layout, regions, WRITES as usize);
    assert!(cfg.coalescing(), "the write stage is the coalescing path");
    let mut core = EngineCore::new(cfg);
    let mut fabric = Loopback {
        compute: ch.region().clone(),
        pool: Region::new(1 << 16),
        arena: BufArena::new(64),
        queue: VecDeque::with_capacity(64),
        emitted: Vec::with_capacity(64),
    };
    let payload = [0u8; LEN];

    let mut round = |r: u64| {
        // Every other 64-byte slot, so no two writes are adjacent.
        let mut last = None;
        for i in 0..WRITES {
            let mut data = payload;
            data[..8].copy_from_slice(&r.to_le_bytes());
            last = Some(ch.async_write(1, i * 2 * LEN as u64, &data).unwrap());
        }
        let last = last.unwrap();
        for _ in 0..8 {
            fabric.probe(&mut core);
            if ch.is_complete(last) {
                return;
            }
        }
        panic!("round {r} did not complete");
    };

    for r in 0..64 {
        round(r);
    }
    let before = allocs_now();
    for r in 64..1064 {
        round(r);
    }
    let allocs = allocs_now() - before;
    assert_eq!(core.stats.writes_executed, 1064 * WRITES);
    assert_eq!(
        allocs, 0,
        "allocations over 1000 warmed-up rounds of staged writes"
    );
    assert_eq!(
        fabric.pool.read_vec(0, 8).unwrap(),
        1063u64.to_le_bytes(),
        "the last round's writes reached the pool"
    );
}
