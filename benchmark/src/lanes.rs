//! Direct-call lanes: one public function (or one tight two-party loop)
//! timed in batches of at least a thousand calls, at the workload's record
//! size. They give each layer a number that owes nothing to the layers
//! around it, so a budget line from the traced run can be cross-checked.

use std::collections::VecDeque;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::Ordering;

use cowbird::channel::Channel;
use cowbird::layout::{ChannelLayout, RED_READ_PROGRESS, RED_WRITE_PROGRESS};
use cowbird_engine::core::{EngineConfig, EngineCore, FabricOp};
use kvstore::{FasterKv, HashIndex, LocalMemoryDevice, ReadResult, StoreConfig};
use rdma::mem::{Region, RegionCatalog};
use rdma::qp::{Qp, QpConfig, QpOutput};
use rdma::verbs::{WorkRequest, WrOp};
use rdma::wire::{RocePacket, DEFAULT_MTU};
use simnet::pool::BufArena;
use simnet::time::Instant;

use crate::client::{pool_region_map, ScriptClient, REGION_ID};
use crate::script::{Script, ScriptKind};
use crate::simrig::Engine;
use crate::stats::median;
use crate::timed::now_ns;

/// Batches per lane; the lane reports the median batch.
const BATCHES: usize = 9;

/// Median over `BATCHES` batches of `ns per call`, where `batch()` runs
/// `calls` calls and returns the nanoseconds they took.
fn lane(calls: u64, mut batch: impl FnMut() -> u64) -> f64 {
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| batch() as f64 / calls as f64)
        .collect();
    median(&per_call)
}

// ---------------------------------------------------------------------
// cowbird: the client library alone, the engine played by two stores
// ---------------------------------------------------------------------

pub struct CowbirdLanes {
    pub async_read_ns: f64,
    pub async_write_ns: f64,
    pub refresh_ns: f64,
}

pub fn cowbird_lanes(record: u32) -> CowbirdLanes {
    let layout = ChannelLayout::default_sizes();
    // One round stays well inside the rings (no mid-round drain, no
    // no-wrap padding); rounds repeat until a batch has made 1000 calls.
    let per_round = (layout.meta_entries / 2).min(layout.rdata_capacity / record as u64 / 2);
    let rounds = 1000u64.div_ceil(per_round);
    let mut ch = Channel::new(0, layout, pool_region_map(1));
    let mut resp = Vec::new();
    let mut handles = Vec::with_capacity(per_round as usize);
    let payload = vec![0x5Au8; record as usize];

    let async_read_ns = lane(per_round * rounds, || {
        let mut ns = 0;
        for _ in 0..rounds {
            handles.clear();
            let t0 = now_ns();
            for i in 0..per_round {
                handles.push(
                    ch.async_read(REGION_ID, i * record as u64, record)
                        .expect("ring sized for the round"),
                );
            }
            ns += now_ns() - t0;
            // Play the engine: complete everything, then drain.
            let done = handles.last().expect("non-empty round").id.seq();
            ch.region()
                .store_u64(RED_READ_PROGRESS, done, Ordering::Release);
            for h in &handles {
                ch.take_response_into(h, &mut resp).expect("completed");
            }
        }
        ns
    });

    let async_write_ns = lane(per_round * rounds, || {
        let mut ns = 0;
        for _ in 0..rounds {
            let mut last = None;
            let t0 = now_ns();
            for i in 0..per_round {
                last = Some(
                    ch.async_write(REGION_ID, i * record as u64, &payload)
                        .expect("ring sized for the round"),
                );
            }
            ns += now_ns() - t0;
            let done = last.expect("non-empty round").seq();
            ch.region()
                .store_u64(RED_WRITE_PROGRESS, done, Ordering::Release);
            ch.refresh();
        }
        ns
    });

    // The common poll: nothing new has landed.
    let refresh_ns = lane(1000, || {
        let t0 = now_ns();
        for _ in 0..1000 {
            ch.refresh();
        }
        now_ns() - t0
    });
    black_box(&ch);
    CowbirdLanes {
        async_read_ns,
        async_write_ns,
        refresh_ns,
    }
}

// ---------------------------------------------------------------------
// rdma: wire codec, two queue pairs back to back, region copies
// ---------------------------------------------------------------------

pub struct RdmaLanes {
    pub wire_encode_ns: f64,
    pub wire_parse_ns: f64,
    pub qp_ns_per_pkt: f64,
    pub region_copy_ns_per_kib: f64,
}

pub fn rdma_lanes(record: u32) -> RdmaLanes {
    // One packet carries at most an MTU of payload.
    let seg = (record as usize).min(DEFAULT_MTU);
    let pkt = RocePacket::write_only(7, 1, 4096, 9, vec![0xC3u8; seg]);
    let mut buf = Vec::with_capacity(seg + 64);
    let wire_encode_ns = lane(1000, || {
        let t0 = now_ns();
        for _ in 0..1000 {
            buf.clear();
            black_box(&pkt).encode_into(&mut buf);
            black_box(&buf);
        }
        now_ns() - t0
    });
    let arena = BufArena::new(8);
    let wire_parse_ns = lane(1000, || {
        let t0 = now_ns();
        for _ in 0..1000 {
            let parsed = RocePacket::parse_pooled(black_box(&buf), &arena).expect("own encoding");
            black_box(&parsed);
        }
        now_ns() - t0
    });

    // Requester A reads `record` bytes from responder B: request packet,
    // response packet(s), completion. No wire codec, no links.
    let (local, remote) = (Region::new(1 << 20), Region::new(1 << 20));
    let (mut cat_a, mut cat_b) = (RegionCatalog::new(), RegionCatalog::new());
    let lkey = cat_a.register(local);
    let rkey = cat_b.register(remote);
    let mut a = Qp::new(QpConfig::new(1, 2));
    let mut b = Qp::new(QpConfig::new(2, 1));
    let (mut out_a, mut out_b) = (QpOutput::default(), QpOutput::default());
    let mut tx = Vec::new();
    let now = Instant::ZERO;
    let mut wr_id = 0u64;
    // One read, start to completion; returns the packets both sides handled.
    let mut round = |a: &mut Qp, b: &mut Qp| -> u64 {
        wr_id += 1;
        tx.clear();
        a.post_into(
            WorkRequest {
                wr_id,
                op: WrOp::Read {
                    local_rkey: lkey,
                    local_addr: 0,
                    remote_addr: (wr_id % 64) * record as u64,
                    remote_rkey: rkey,
                    len: record,
                },
            },
            &cat_a,
            now,
            &mut tx,
        )
        .expect("send queue has room: every read completes before the next");
        let mut packets = 0;
        for req in tx.drain(..) {
            out_b.clear();
            b.handle_into(&req, &cat_b, now, &mut out_b);
            packets += 1 + out_b.emit.len() as u64;
            for resp in out_b.emit.drain(..) {
                out_a.clear();
                a.handle_into(&resp, &cat_a, now, &mut out_a);
                assert!(out_a.emit.is_empty(), "a read response needs no ack");
            }
        }
        packets
    };
    let per_pkt: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut packets = 0;
            let t0 = now_ns();
            for _ in 0..1000 {
                packets += round(&mut a, &mut b);
            }
            (now_ns() - t0) as f64 / packets as f64
        })
        .collect();
    assert_eq!(a.outstanding(), 0, "every read must have completed");
    let qp_ns_per_pkt = median(&per_pkt);

    let region = Region::new(1 << 20);
    let data = vec![0x77u8; record as usize];
    let mut out = Vec::new();
    let region_copy_ns = lane(1000, || {
        let t0 = now_ns();
        for i in 0..500u64 {
            let off = (i % 200) * record as u64;
            region.write(off, black_box(&data)).expect("in bounds");
            region
                .read_into(off, record as usize, &mut out)
                .expect("in bounds");
            black_box(&out);
        }
        now_ns() - t0
    });
    RdmaLanes {
        wire_encode_ns,
        wire_parse_ns,
        qp_ns_per_pkt,
        region_copy_ns_per_kib: region_copy_ns * 1024.0 / record as f64,
    }
}

// ---------------------------------------------------------------------
// cowbird-engine: EngineCore alone, its FabricOps served from Regions
// ---------------------------------------------------------------------

pub struct CoreLane {
    pub ops: u64,
    pub failed: u64,
    /// Host ns inside `on_probe_due_into` / `on_data_into`, clock cost
    /// subtracted, per op.
    pub core_ns_per_op: f64,
}

/// Run a script through a `Channel` and an `EngineCore` with no QP, no wire
/// and no simulator: every `FabricOp` the core emits is executed at once
/// against the channel region or the pool region, in emission order.
pub fn core_lane(
    kind: ScriptKind,
    engine: Engine,
    window: usize,
    seed: u64,
    ops: usize,
    clock_read_ns: f64,
) -> CoreLane {
    let script = Rc::new(Script::generate(kind, seed, ops));
    let pool = Script::pristine_pool();
    let layout = ChannelLayout::default_sizes();
    let regions = pool_region_map(1);
    let channel = Channel::new(0, layout, regions.clone());
    let chan_mem = channel.region().clone();
    let mut client = ScriptClient::new(channel, Rc::clone(&script), window, false, None);
    let mut core = EngineCore::new(match engine {
        Engine::Spot { batch } => EngineConfig::spot(layout, regions, batch),
        Engine::P4 => EngineConfig::p4(layout, regions),
    });

    let mut queue: VecDeque<FabricOp> = VecDeque::new();
    let mut emitted: Vec<FabricOp> = Vec::new();
    let mut data = Vec::new();
    let (mut core_ns, mut core_calls) = (0u64, 0u64);
    // Virtual clock for the latency histogram: one tick per sweep.
    let mut sweep = 0u64;
    // Far more sweeps than a healthy run needs; a stall ends as failures.
    let sweep_cap = ops as u64 * 64 + 10_000;

    while !client.done() && sweep < sweep_cap {
        sweep += 1;
        client.reap(sweep);
        client.issue(sweep);

        let t0 = now_ns();
        core.on_probe_due_into(&mut emitted);
        core_ns += now_ns() - t0;
        core_calls += 1;
        queue.extend(emitted.drain(..));

        while let Some(op) = queue.pop_front() {
            // `feed`: hand fetched bytes (or a delivery ack) back to the core.
            let mut feed = |tag: u64, bytes: &[u8], queue: &mut VecDeque<FabricOp>| {
                let t0 = now_ns();
                core.on_data_into(tag, bytes, &mut emitted);
                core_ns += now_ns() - t0;
                core_calls += 1;
                queue.extend(emitted.drain(..));
            };
            match op {
                FabricOp::ReadCompute { offset, len, tag } => {
                    chan_mem
                        .read_into(offset, len as usize, &mut data)
                        .expect("core reads inside the channel region");
                    feed(tag, &data, &mut queue);
                }
                FabricOp::WriteCompute {
                    offset,
                    data: payload,
                    tag,
                } => {
                    chan_mem
                        .write(offset, &payload)
                        .expect("core writes inside the channel region");
                    if tag != 0 {
                        feed(tag, &[], &mut queue);
                    }
                }
                FabricOp::ReadPool { addr, len, tag, .. } => {
                    pool.read_into(addr, len as usize, &mut data)
                        .expect("core reads inside the pool");
                    feed(tag, &data, &mut queue);
                }
                FabricOp::WritePool {
                    addr,
                    data: payload,
                    ..
                } => pool
                    .write(addr, &payload)
                    .expect("core writes inside the pool"),
                FabricOp::ReadPoolSg { addr, parts, .. } => {
                    let mut off = addr;
                    for (len, tag) in parts {
                        pool.read_into(off, len as usize, &mut data)
                            .expect("core reads inside the pool");
                        feed(tag, &data, &mut queue);
                        off += len as u64;
                    }
                }
                FabricOp::WritePoolSg { addr, segments, .. } => {
                    let mut off = addr;
                    for seg in segments {
                        pool.write(off, &seg).expect("core writes inside the pool");
                        off += seg.len() as u64;
                    }
                }
            }
        }
    }
    client.reap(sweep + 1);
    let failed = client.failed + client.unfinished() + script.pool_mismatches(&pool);
    let net_ns = core_ns as f64 - core_calls as f64 * clock_read_ns;
    CoreLane {
        ops: ops as u64,
        failed,
        core_ns_per_op: net_ns.max(0.0) / ops as f64,
    }
}

// ---------------------------------------------------------------------
// kvstore: index probe, hot read, upsert
// ---------------------------------------------------------------------

pub struct KvLanes {
    pub index_lookup_ns: f64,
    pub read_hot_ns: f64,
    pub upsert_ns: f64,
}

pub fn kv_lanes() -> KvLanes {
    use crate::kv::{INDEX_SLOTS, KEYS, VALUE_BYTES};
    let index = HashIndex::new(INDEX_SLOTS);
    for key in 0..KEYS {
        // Any non-null address will do; the lane times the probe alone.
        let _ = index.publish(key, index.lookup(key), 64 + key * 8);
    }
    // The probe sequence runs on across batches, so a batch does not find
    // the previous batch's slots still in cache.
    let mut probe = 0u64;
    let index_lookup_ns = lane(1000, || {
        let t0 = now_ns();
        for _ in 0..1000 {
            probe += 7919;
            black_box(index.lookup(black_box(probe % KEYS)));
        }
        now_ns() - t0
    });

    // A window (1 MiB) that holds every key: each read is a memory hit.
    let kv = FasterKv::new(
        StoreConfig {
            memory_per_shard: 1 << 20,
            mutable_fraction: 0.25,
            index_slots: INDEX_SLOTS,
            max_value_bytes: VALUE_BYTES as u32,
            remote_index: None,
        },
        vec![LocalMemoryDevice::new()],
    );
    let value = [0x42u8; VALUE_BYTES];
    for key in 0..KEYS {
        kv.upsert(key, &value);
    }
    let read_hot_ns = lane(1000, || {
        let t0 = now_ns();
        for i in 0..1000u64 {
            let r = kv.read(black_box((i * 7919) % KEYS));
            assert!(matches!(r, ReadResult::Found(_)), "hot read went cold");
        }
        now_ns() - t0
    });
    // Upserts append, so the log rolls through the window and flushes: the
    // steady-state cost, not the first-touch cost.
    let upsert_ns = lane(10_000, || {
        let t0 = now_ns();
        for i in 0..10_000u64 {
            kv.upsert(black_box((i * 7919) % KEYS), &value);
        }
        now_ns() - t0
    });
    KvLanes {
        index_lookup_ns,
        read_hot_ns,
        upsert_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_lane_completes_every_op_and_leaves_the_oracle_pool_image() {
        // `failed` counts rejected responses, unfinished ops and pool
        // records that differ from the sequential replay.
        for (kind, engine, window) in [
            (ScriptKind::Read64, Engine::Spot { batch: 16 }, 32),
            (ScriptKind::Mixed4k, Engine::Spot { batch: 16 }, 16),
            (ScriptKind::Chase, Engine::P4, 32),
        ] {
            let out = core_lane(kind, engine, window, 5, 3000, 0.0);
            assert_eq!(out.ops, 3000);
            assert_eq!(out.failed, 0, "{kind:?}");
            assert!(out.core_ns_per_op > 0.0);
        }
    }

    #[test]
    fn lanes_report_positive_costs() {
        let c = cowbird_lanes(64);
        assert!(c.async_read_ns > 0.0 && c.async_write_ns > 0.0 && c.refresh_ns > 0.0);
        let r = rdma_lanes(4096);
        assert!(r.wire_encode_ns > 0.0 && r.wire_parse_ns > 0.0);
        assert!(r.qp_ns_per_pkt > 0.0 && r.region_copy_ns_per_kib > 0.0);
        let k = kv_lanes();
        assert!(k.index_lookup_ns > 0.0 && k.read_hot_ns > 0.0 && k.upsert_ns > 0.0);
    }
}
