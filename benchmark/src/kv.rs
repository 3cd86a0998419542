//! The `kv_*` workloads: `FasterKv` over a flat in-process device, one
//! thread. The engine, RDMA and simulator layers do no work here — these are
//! the bypass workloads for every engine-side change, and the target for
//! work on the store itself.

use std::sync::Arc;

use kvstore::{Device, FasterKv, LocalMemoryDevice, ReadResult, RemoteIndex, StoreConfig};
use simnet::rng::Rng;
use workloads::zipf::ZipfSampler;

use crate::timed::{now_ns, SharedTally, SpanSink, Stamp, Tally, TimedDevice, SAMPLE};

// The store is sized to live in the core's private L2 (2.5 MiB on the
// reference host): 5 000 keys x 88 B of log, a 128 KiB index and its mirror,
// a 64 KiB window — the same 1:7 window-to-data ratio, ~10 % local hits and
// 0.3 index load as a 400 000-key store with a 4 MiB window. On a shared host
// a neighbour's memory traffic moved the LLC-sized version by 10-15 % for
// minutes at a time (reproduced with a streaming thrasher on the other core:
// +10 % / +15 %) and moves this one by about 1 %, like the sim workloads. What
// the workloads are for — the cost of the store's own code on the GET and
// the append/flush path — does not need DRAM misses to show.
pub const KEYS: u64 = 5_000;
pub const VALUE_BYTES: usize = 64;
const WINDOW_BYTES: u64 = 64 << 10;
pub const INDEX_SLOTS: usize = 1 << 14;
/// GETs kept pending before the shard is polled.
const PENDING: usize = 32;
/// Device address of the index mirror. `LocalMemoryDevice` is a flat `Vec`
/// that grows to the highest address written, so the mirror sits just above
/// the largest log a rep can reach (preload + every upsert of the biggest
/// rep ≈ 45 MB), not at a far-away round number.
const MIRROR_BASE: u64 = 64 << 20;

#[derive(Clone, Copy, Debug)]
pub struct KvSpec {
    /// Share of ops that are upserts (the rest are GETs).
    pub upsert_fraction: f64,
}

/// One scripted op: the key, and whether it is an upsert.
#[derive(Clone, Copy)]
struct KvOp {
    key: u64,
    upsert: bool,
}

/// `[key][version][filler derived from both]`.
fn value_of(key: u64, version: u32, out: &mut [u8; VALUE_BYTES]) {
    out[..8].copy_from_slice(&key.to_le_bytes());
    out[8..16].copy_from_slice(&(version as u64).to_le_bytes());
    let fill = (key as u8) ^ (version as u8) ^ 0xA5;
    out[16..].fill(fill);
}

/// A value is right if it is some version of `key` no older than what was
/// current when the GET was issued and no newer than what is current now.
fn value_ok(key: u64, issued_version: u32, current_version: u32, got: &[u8]) -> bool {
    if got.len() != VALUE_BYTES || got[..8] != key.to_le_bytes() {
        return false;
    }
    let version = u64::from_le_bytes(got[8..16].try_into().expect("8 bytes"));
    if version < issued_version as u64 || version > current_version as u64 {
        return false;
    }
    let mut want = [0u8; VALUE_BYTES];
    value_of(key, version as u32, &mut want);
    got == want
}

/// What the harness hands the store: the bare device, or the same device
/// with every call timed.
enum AnyStore {
    Plain(FasterKv<LocalMemoryDevice>),
    Timed(FasterKv<TimedDevice<LocalMemoryDevice>>),
}

/// One rep, set up and ready to run.
pub struct KvRep {
    store: AnyStore,
    driver: Driver,
    /// Host time spent generating the script (part of set-up).
    pub script_gen_ns: u64,
}

/// The closed-loop client: everything a rep needs besides the store.
struct Driver {
    script: Vec<KvOp>,
    /// Current version of every key (the oracle).
    versions: Vec<u32>,
    device: Arc<SharedTally>,
    spans: Option<SpanSink>,
    check: bool,
}

/// What one rep counted, as deltas of the store's public stats over the
/// timed region: exact under a fixed seed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KvCounts {
    pub ops: u64,
    pub gets: u64,
    pub local_hits: u64,
    pub round_trips: u64,
    pub chase_gets: u64,
    pub chase_fallbacks: u64,
    pub upserts: u64,
    pub flushed_bytes: u64,
    pub evictions: u64,
}

pub struct KvOutcome {
    pub failed: u64,
    pub host_ns: u64,
    /// Time inside device calls (zero in an untraced rep).
    pub device: Tally,
    /// Allocations during the timed region (zero unless the binary counts).
    pub run_allocs: u64,
    pub counts: KvCounts,
}

fn store_config() -> StoreConfig {
    StoreConfig {
        memory_per_shard: WINDOW_BYTES,
        mutable_fraction: 0.25,
        index_slots: INDEX_SLOTS,
        max_value_bytes: VALUE_BYTES as u32,
        remote_index: Some(RemoteIndex {
            base: MIRROR_BASE,
            chase: true,
        }),
    }
}

fn preload<D: Device>(kv: &FasterKv<D>) {
    let mut value = [0u8; VALUE_BYTES];
    for key in 0..KEYS {
        value_of(key, 0, &mut value);
        kv.upsert(key, &value);
    }
}

impl KvRep {
    /// Set-up: script generation, a fresh store, the preload.
    pub fn build(
        spec: &KvSpec,
        seed: u64,
        ops: usize,
        check: bool,
        spans: Option<&SpanSink>,
    ) -> KvRep {
        let t0 = std::time::Instant::now();
        let zipf = ZipfSampler::new(KEYS, 0.99);
        let mut rng = Rng::new(seed ^ 0x4B56_0000_C0DE_0001);
        let script: Vec<KvOp> = (0..ops)
            .map(|_| KvOp {
                key: zipf.sample_scrambled(&mut rng),
                upsert: rng.next_f64() < spec.upsert_fraction,
            })
            .collect();
        let script_gen_ns = t0.elapsed().as_nanos() as u64;

        let device = Arc::new(SharedTally::default());
        let store = match spans {
            None => {
                let kv = FasterKv::new(store_config(), vec![LocalMemoryDevice::new()]);
                preload(&kv);
                AnyStore::Plain(kv)
            }
            Some(s) => {
                let dev =
                    TimedDevice::new(LocalMemoryDevice::new(), Arc::clone(&device), s.clone());
                let kv = FasterKv::new(store_config(), vec![dev]);
                preload(&kv);
                AnyStore::Timed(kv)
            }
        };
        KvRep {
            store,
            driver: Driver {
                script,
                versions: vec![0; KEYS as usize],
                device,
                spans: spans.cloned(),
                check,
            },
            script_gen_ns,
        }
    }

    /// The timed region (every response checked as it arrives), then the
    /// store's counters.
    pub fn run(self) -> KvOutcome {
        let mut driver = self.driver;
        match self.store {
            AnyStore::Plain(kv) => driver.run_on(&kv),
            AnyStore::Timed(kv) => driver.run_on(&kv),
        }
    }
}

impl Driver {
    fn run_on<D: Device>(&mut self, kv: &FasterKv<D>) -> KvOutcome {
        let gets0 = kv.get_stats();
        let (flushed0, evictions0) = kv.log_stats();
        let device0 = self.device.get();
        let mut failed = 0u64;
        let mut upserts = 0u64;
        // (pending id, key, version current at issue).
        let mut pending = Vec::with_capacity(PENDING);
        let mut value = [0u8; VALUE_BYTES];
        let check = self.check;
        let mut judge = |ok: bool, what: &str, key: u64| {
            if !ok {
                failed += 1;
                assert!(
                    !check,
                    "{what} of key {key} returned a value the oracle rejects"
                );
            }
        };

        let root = self.spans.as_ref().map(|s| s.begin_root("run"));
        let from = Stamp::now();
        let t0 = std::time::Instant::now();
        for (i, op) in self.script.iter().enumerate() {
            let span_start = match &self.spans {
                Some(_) if (i as u64).is_multiple_of(SAMPLE) => Some(now_ns()),
                _ => None,
            };
            let k = op.key as usize;
            if op.upsert {
                self.versions[k] += 1;
                value_of(op.key, self.versions[k], &mut value);
                kv.upsert(op.key, &value);
                upserts += 1;
            } else {
                match kv.read(op.key) {
                    ReadResult::Found(v) => judge(
                        value_ok(op.key, self.versions[k], self.versions[k], &v),
                        "hot GET",
                        op.key,
                    ),
                    ReadResult::NotFound => judge(false, "GET (not found)", op.key),
                    ReadResult::Pending(id) => pending.push((id, op.key, self.versions[k])),
                }
            }
            if let (Some(t0), Some(s)) = (span_start, &self.spans) {
                let name = if op.upsert {
                    "kvstore.upsert"
                } else {
                    "kvstore.read"
                };
                s.record(name, t0, now_ns(), i as u64 + 1);
            }
            if pending.len() == PENDING || (i + 1 == self.script.len() && !pending.is_empty()) {
                // LocalMemoryDevice completes on the next poll; a device
                // that did not would be polled again here.
                while !pending.is_empty() {
                    for (id, got) in kv.poll(0) {
                        let at = pending
                            .iter()
                            .position(|&(p, _, _)| p == id)
                            .expect("completion for a GET this loop issued");
                        let (_, key, issued_version) = pending.swap_remove(at);
                        let ok = got.is_some_and(|v| {
                            value_ok(key, issued_version, self.versions[key as usize], &v)
                        });
                        judge(ok, "cold GET", key);
                    }
                }
            }
        }
        let host_ns = t0.elapsed().as_nanos() as u64;
        let run_allocs = Stamp::now().allocs - from.allocs;
        if let (Some(s), Some(id)) = (&self.spans, root) {
            s.end_root(id);
        }

        let gets = kv.get_stats();
        let (flushed, evictions) = kv.log_stats();
        let device1 = self.device.get();
        KvOutcome {
            failed,
            host_ns,
            device: Tally {
                ns: device1.ns - device0.ns,
                allocs: device1.allocs - device0.allocs,
                calls: device1.calls - device0.calls,
            },
            run_allocs,
            counts: KvCounts {
                ops: self.script.len() as u64,
                gets: gets.gets - gets0.gets,
                local_hits: gets.local_hits - gets0.local_hits,
                round_trips: gets.round_trips - gets0.round_trips,
                chase_gets: gets.chase_gets - gets0.chase_gets,
                chase_fallbacks: gets.chase_fallbacks - gets0.chase_fallbacks,
                upserts,
                flushed_bytes: flushed - flushed0,
                evictions: evictions - evictions0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_oracle_accepts_only_versions_in_the_issue_window() {
        let mut v = [0u8; VALUE_BYTES];
        value_of(9, 3, &mut v);
        assert!(value_ok(9, 3, 3, &v));
        assert!(value_ok(9, 1, 5, &v));
        assert!(!value_ok(9, 4, 5, &v), "older than at issue");
        assert!(!value_ok(9, 1, 2, &v), "newer than current");
        assert!(!value_ok(8, 3, 3, &v), "another key's value");
        v[40] ^= 1;
        assert!(!value_ok(9, 3, 3, &v), "corrupt filler");
    }

    #[test]
    fn both_mixes_complete_with_no_failures_and_cold_gets_go_out_as_chases() {
        for upsert_fraction in [0.0, 0.5] {
            let rep = KvRep::build(&KvSpec { upsert_fraction }, 11, 60_000, true, None);
            let out = rep.run();
            assert_eq!(out.failed, 0);
            let out = out.counts;
            assert_eq!(out.gets + out.upserts, 60_000);
            let cold = out.gets - out.local_hits;
            assert!(cold > 0, "the window must not hold every key");
            // A cold GET goes out as one dependent read (or, when its bucket's
            // head is still in memory, as a plain record read), plus a record
            // read for each further hop along a shared bucket's chain.
            assert!(out.chase_gets > cold * 9 / 10 && out.chase_gets <= cold);
            assert!(out.round_trips >= cold && out.round_trips < cold * 3 / 2);
            assert_eq!(out.chase_fallbacks, 0);
        }
    }
}
