//! The store's per-op allocation budget, measured with a counting allocator
//! (the discipline of `rdma/tests/zero_alloc.rs`).
//!
//! Over `LocalMemoryDevice` with a chasing remote index, once warmed up:
//!
//! * an upsert that does not evict makes **0** allocations: header, value
//!   and padding are written straight into the log window;
//! * a hot GET makes **1**: the value it returns;
//! * a cold GET (`read`, then `poll` until it resolves) makes **2**: the
//!   device's response buffer, which is handed back as the value, and the
//!   `Vec` that `poll` returns.
//!
//! The allocation counter is a process-global `#[global_allocator]`, so this
//! file holds exactly one test: the quiet window is only meaningful while no
//! sibling test thread is allocating.

use kvstore::{FasterKv, HashIndex, LocalMemoryDevice, ReadResult, RemoteIndex, StoreConfig};
use telemetry::profile::{allocs_now, TallyAlloc};

#[global_allocator]
static COUNTER: TallyAlloc = TallyAlloc;

const INDEX_SLOTS: usize = 1 << 12;

/// Keys whose hash buckets are pairwise distinct, so every cold GET finds
/// its key at the head of its bucket's chain.
fn collision_free_keys(n: usize) -> Vec<u64> {
    let index = HashIndex::new(INDEX_SLOTS);
    let mut used = vec![false; index.slots()];
    let mut keys = Vec::with_capacity(n);
    let mut k = 1u64;
    while keys.len() < n {
        let slot = index.slot_of(k);
        if !used[slot] {
            used[slot] = true;
            keys.push(k);
        }
        k += 1;
    }
    keys
}

#[test]
fn warmed_store_allocates_only_what_it_returns() {
    let kv = FasterKv::new(
        StoreConfig {
            memory_per_shard: 16 << 10,
            mutable_fraction: 0.25,
            index_slots: INDEX_SLOTS,
            max_value_bytes: 64,
            remote_index: Some(RemoteIndex {
                base: 1 << 20,
                chase: true,
            }),
        },
        vec![LocalMemoryDevice::new()],
    );
    let keys = collision_free_keys(1200);
    let (cold, rest) = keys.split_at(400);
    let (fillers, hot) = rest.split_at(600);
    for &k in cold {
        kv.upsert(k, &k.to_le_bytes());
    }
    for &k in fillers {
        kv.upsert(k, &[0xEE; 16]);
    }
    assert!(kv.log_stats().1 > 0, "the fillers must evict the cold keys");

    let mut upserts_measured = 0;
    for (round, (&hot_key, &cold_key)) in hot.iter().zip(cold).enumerate() {
        let warm = round < 20;

        let evictions = kv.log_stats().1;
        let before = allocs_now();
        kv.upsert(hot_key, &hot_key.to_le_bytes());
        let upsert = allocs_now() - before;
        if !warm && kv.log_stats().1 == evictions {
            assert_eq!(upsert, 0, "round {round}: an upsert that does not evict");
            upserts_measured += 1;
        }

        let before = allocs_now();
        let hot_get = kv.read(hot_key);
        let hot_allocs = allocs_now() - before;
        assert_eq!(hot_get, ReadResult::Found(hot_key.to_le_bytes().to_vec()));

        let before = allocs_now();
        let ReadResult::Pending(pid) = kv.read(cold_key) else {
            panic!("round {round}: key {cold_key} must be cold");
        };
        let mut got = None;
        for _ in 0..4 {
            got = kv.poll(0).into_iter().find(|&(id, _)| id == pid);
            if got.is_some() {
                break;
            }
        }
        let cold_allocs = allocs_now() - before;
        let (_, value) = got.expect("a local cold GET resolves on the first polls");
        assert_eq!(value, Some(cold_key.to_le_bytes().to_vec()));

        if !warm {
            assert_eq!(hot_allocs, 1, "round {round}: a hot GET");
            assert_eq!(cold_allocs, 2, "round {round}: a cold GET");
        }
    }
    assert!(
        upserts_measured > 150,
        "only {upserts_measured} non-evicting upserts measured"
    );
    let stats = kv.get_stats();
    assert_eq!(stats.chase_fallbacks, 0);
    assert_eq!(
        stats.round_trips, stats.chase_gets,
        "one chase per cold GET"
    );
}
