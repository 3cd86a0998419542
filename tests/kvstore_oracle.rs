//! The FASTER-style store against a `HashMap` oracle, under eviction
//! pressure, over both a local device and the full Cowbird stack, through
//! both `read_blocking` and batched `read` + `poll`.

use std::collections::HashMap;

use kvstore::store::PendingId;
use kvstore::{
    CowbirdDevice, Device, FasterKv, LocalMemoryDevice, ReadResult, RemoteIndex, StoreConfig,
};
use proptest::prelude::*;
use simnet::rng::Rng;

fn tiny_cfg() -> StoreConfig {
    StoreConfig {
        memory_per_shard: 8 << 10, // 8 KiB window: constant eviction
        mutable_fraction: 0.25,
        index_slots: 1 << 10,
        max_value_bytes: 64,
        remote_index: None,
    }
}

#[derive(Clone, Debug)]
enum KvOp {
    Upsert { key: u8, val: u8, len: u8 },
    Read { key: u8 },
}

fn arb_kv_op() -> impl Strategy<Value = KvOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), 0u8..64).prop_map(|(key, val, len)| KvOp::Upsert {
            key,
            val,
            len
        }),
        any::<u8>().prop_map(|key| KvOp::Read { key }),
    ]
}

fn run_against_oracle<D: Device>(kv: &FasterKv<D>, ops: &[KvOp]) {
    let mut oracle: HashMap<u64, Vec<u8>> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            KvOp::Upsert { key, val, len } => {
                let v = vec![val; len as usize];
                kv.upsert(key as u64, &v);
                oracle.insert(key as u64, v);
            }
            KvOp::Read { key } => {
                let got = kv.read_blocking(key as u64);
                assert_eq!(got.as_ref(), oracle.get(&(key as u64)), "op {i}: key {key}");
            }
        }
    }
    // Full verification at the end.
    for (k, v) in &oracle {
        assert_eq!(kv.read_blocking(*k).as_ref(), Some(v), "final key {k}");
    }
}

/// Ops for the batched oracle: GETs go out up to 16 at a time and are
/// collected through `poll`.
#[derive(Clone, Debug)]
enum BatchOp {
    Upsert { key: u8, val: u8, len: u8 },
    Delete { key: u8 },
    Reads(Vec<u8>),
}

fn arb_batch_op() -> impl Strategy<Value = BatchOp> {
    let upsert = || {
        (any::<u8>(), any::<u8>(), 0u8..64).prop_map(|(key, val, len)| BatchOp::Upsert {
            key,
            val,
            len,
        })
    };
    // Three upsert arms: enough live data to keep the window evicting.
    prop_oneof![
        upsert(),
        upsert(),
        upsert(),
        any::<u8>().prop_map(|key| BatchOp::Delete { key }),
        proptest::collection::vec(any::<u8>(), 1..=16).prop_map(BatchOp::Reads),
    ]
}

fn remote_cfg(chase: bool) -> StoreConfig {
    StoreConfig {
        remote_index: Some(RemoteIndex {
            base: 1 << 20,
            chase,
        }),
        ..tiny_cfg()
    }
}

/// Issue each batch's GETs with `read`, then `poll` until every pending id
/// has come back: each exactly once, none that was never issued, every
/// value the oracle's.
fn run_batched_against_oracle<D: Device>(kv: &FasterKv<D>, ops: &[BatchOp]) {
    let mut oracle: HashMap<u64, Vec<u8>> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            &BatchOp::Upsert { key, val, len } => {
                let v = vec![val; len as usize];
                kv.upsert(key as u64, &v);
                oracle.insert(key as u64, v);
            }
            &BatchOp::Delete { key } => {
                kv.delete(key as u64);
                oracle.remove(&(key as u64));
            }
            BatchOp::Reads(keys) => {
                let mut pending: HashMap<PendingId, u64> = HashMap::new();
                for &key in keys {
                    let key = key as u64;
                    match kv.read(key) {
                        ReadResult::Found(v) => {
                            assert_eq!(Some(&v), oracle.get(&key), "op {i}: hot key {key}")
                        }
                        ReadResult::NotFound => {
                            assert_eq!(None, oracle.get(&key), "op {i}: key {key}")
                        }
                        ReadResult::Pending(id) => {
                            assert!(pending.insert(id, key).is_none(), "op {i}: {id:?} reissued")
                        }
                    }
                }
                let mut polls = 0;
                while !pending.is_empty() {
                    polls += 1;
                    assert!(polls <= 64, "op {i}: {pending:?} never resolved");
                    for (id, got) in kv.poll(0) {
                        let key = pending
                            .remove(&id)
                            .unwrap_or_else(|| panic!("op {i}: {id:?} not pending"));
                        assert_eq!(got.as_ref(), oracle.get(&key), "op {i}: cold key {key}");
                    }
                }
            }
        }
    }
    assert!(kv.poll(0).is_empty(), "poll returned an id twice");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn batched_reads_match_oracle_through_chase(
        ops in proptest::collection::vec(arb_batch_op(), 1..300),
    ) {
        let kv = FasterKv::new(remote_cfg(true), vec![LocalMemoryDevice::new()]);
        run_batched_against_oracle(&kv, &ops);
    }

    #[test]
    fn batched_reads_match_oracle_through_slot_probe(
        ops in proptest::collection::vec(arb_batch_op(), 1..300),
    ) {
        let kv = FasterKv::new(remote_cfg(false), vec![LocalMemoryDevice::new()]);
        run_batched_against_oracle(&kv, &ops);
    }

    #[test]
    fn store_matches_hashmap_oracle_under_eviction(
        ops in proptest::collection::vec(arb_kv_op(), 1..300),
    ) {
        let kv = FasterKv::new(tiny_cfg(), vec![LocalMemoryDevice::new()]);
        run_against_oracle(&kv, &ops);
    }

    #[test]
    fn sharded_store_matches_oracle(
        ops in proptest::collection::vec(arb_kv_op(), 1..200),
    ) {
        let kv = FasterKv::new(
            tiny_cfg(),
            (0..3).map(|_| LocalMemoryDevice::new()).collect(),
        );
        run_against_oracle(&kv, &ops);
    }
}

/// A one-shard store holding two keys that eviction has pushed to the
/// device, so GETs of either go pending.
fn store_with_two_cold_keys() -> FasterKv<LocalMemoryDevice> {
    let kv = FasterKv::new(tiny_cfg(), vec![LocalMemoryDevice::new()]);
    kv.upsert(1, b"first");
    kv.upsert(2, b"second");
    for k in 100..400u64 {
        kv.upsert(k, &[0xEE; 64]);
    }
    kv
}

/// Poll `pid`'s shard a bounded number of times for its result.
fn poll_for(kv: &FasterKv<LocalMemoryDevice>, pid: PendingId) -> Option<Vec<u8>> {
    for _ in 0..16 {
        if let Some((_, v)) = kv.poll(pid.shard).into_iter().find(|&(id, _)| id == pid) {
            return v;
        }
    }
    panic!("pending read {pid:?} never came back from poll");
}

/// `read_blocking` takes only its own completion: a GET another caller left
/// pending on the same shard still comes back from `poll`.
#[test]
fn read_blocking_leaves_other_pending_reads_to_poll() {
    let kv = store_with_two_cold_keys();
    let ReadResult::Pending(first) = kv.read(1) else {
        panic!("key 1 must be cold");
    };
    assert_eq!(kv.read_blocking(2), Some(b"second".to_vec()));
    assert_eq!(poll_for(&kv, first), Some(b"first".to_vec()));
}

/// The same through `rmw`, which resolves its cold read inline.
#[test]
fn rmw_leaves_other_pending_reads_to_poll() {
    let kv = store_with_two_cold_keys();
    let ReadResult::Pending(first) = kv.read(1) else {
        panic!("key 1 must be cold");
    };
    kv.rmw(2, |cur| {
        assert_eq!(cur, Some(b"second".as_slice()));
        b"third".to_vec()
    });
    assert_eq!(poll_for(&kv, first), Some(b"first".to_vec()));
    assert_eq!(kv.read_blocking(2), Some(b"third".to_vec()));
}

/// The same oracle discipline over the full emulated Cowbird stack: the
/// store's device reads/writes travel through the offload engine.
#[test]
fn store_over_cowbird_matches_oracle() {
    use cowbird::channel::Channel;
    use cowbird::layout::ChannelLayout;
    use cowbird::region::{RegionMap, RemoteRegion};
    use cowbird_engine::core::EngineConfig;
    use cowbird_engine::spot::{SpotAgent, SpotWiring};
    use rdma::emu::EmuFabric;
    use rdma::mem::Region;

    let mut fabric = EmuFabric::new();
    let compute = fabric.add_nic();
    let engine = fabric.add_nic();
    let pool = fabric.add_nic();
    let pool_mem = Region::new(8 << 20);
    let pool_rkey = pool.register(pool_mem);
    let mut regions = RegionMap::new();
    regions.insert(
        1,
        RemoteRegion {
            rkey: pool_rkey,
            base: 0,
            size: 8 << 20,
        },
    );
    let layout = ChannelLayout::default_sizes();
    let channel = Channel::new(0, layout, regions.clone());
    let channel_rkey = compute.register(channel.region().clone());
    let (eng_c, _) = fabric.connect(&engine, &compute);
    let (eng_p, _) = fabric.connect(&engine, &pool);
    let _agent = SpotAgent::spawn(
        SpotWiring {
            nic: engine,
            compute_qpn: eng_c,
            pool_qpn: eng_p,
            channel_rkey,
        },
        EngineConfig::spot(layout, regions, 16),
    );

    let kv = FasterKv::new(tiny_cfg(), vec![CowbirdDevice::new(channel, 1)]);
    // A deterministic random workload (proptest would spin up a fabric per
    // case; one long deterministic run covers the same ground).
    let mut rng = Rng::new(99);
    let mut ops = Vec::new();
    for _ in 0..800 {
        if rng.chance(0.6) {
            ops.push(KvOp::Upsert {
                key: rng.next_below(64) as u8,
                val: rng.next_below(256) as u8,
                len: rng.next_below(64) as u8,
            });
        } else {
            ops.push(KvOp::Read {
                key: rng.next_below(64) as u8,
            });
        }
    }
    run_against_oracle(&kv, &ops);
}
