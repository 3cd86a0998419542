//! The store: sharded reads/upserts over the hybrid log, with asynchronous
//! storage-miss handling.
//!
//! A read whose record lives below the log head returns
//! [`ReadResult::Pending`]; the caller later collects it via
//! [`FasterKv::poll`] — mirroring FASTER threads completing pending I/Os
//! through Cowbird's notification groups (paper §7). Hash-bucket collisions
//! resolve by walking the record chain, re-issuing device reads as needed
//! (chains can span memory and storage).

use cowbird::meta::{ChaseStatus, ChaseStatusWord};
use parking_lot::Mutex;
use simnet::fasthash::FastHashMap;

use crate::device::{Completion, Device, Token};
use crate::hlog::HybridLog;
use crate::index::{hash_key, HashIndex};
use crate::record::{footprint, RecordHeader, HEADER_BYTES, NULL_ADDR};

/// A pool-side mirror of the hash-index slots, making the index probe a
/// *remote* access — the disaggregated deployment where the index outgrows
/// compute memory. Every publish also writes the packed slot word
/// (`[tag:16 | address:48]`) at `base + slot * 8` on the device, so a GET
/// whose record was evicted can resolve entirely pool-side.
#[derive(Clone, Copy, Debug)]
pub struct RemoteIndex {
    /// Device address of slot 0's mirror. Must sit above any address the
    /// log will ever reach — enforced by an assert on each mirror write.
    pub base: u64,
    /// Issue one dependent-op `ReadIndirect` per GET (slot dereference +
    /// record fetch in a single round trip) instead of probe-then-fetch.
    /// Falls back to two trips when the device lacks dependent-op support.
    pub chase: bool,
}

/// Store configuration.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// In-memory log window per shard, bytes.
    pub memory_per_shard: u64,
    /// Mutable fraction of the window.
    pub mutable_fraction: f64,
    /// Hash-index slots per shard.
    pub index_slots: usize,
    /// Largest value the store will ever hold (sizes device reads — FASTER
    /// likewise reads a fixed upper bound per miss).
    pub max_value_bytes: u32,
    /// Mirror the hash index to the device and serve cold GETs through it.
    pub remote_index: Option<RemoteIndex>,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            memory_per_shard: 1 << 20,
            mutable_fraction: 0.25,
            index_slots: 1 << 16,
            max_value_bytes: 512,
            remote_index: None,
        }
    }
}

/// Aggregate GET-path counters (summed over shards). The chase acceptance
/// bar reads as: with `chase` on, `round_trips == gets - local_hits` —
/// exactly one device round trip per cold GET.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GetStats {
    /// GETs served (reads + RMW current-value fetches).
    pub gets: u64,
    /// GETs resolved from the in-memory log, zero device trips.
    pub local_hits: u64,
    /// Device round trips issued on behalf of GETs.
    pub round_trips: u64,
    /// GETs that went out as a one-trip dependent read.
    pub chase_gets: u64,
    /// Chase responses that could not resolve the GET (abort status or an
    /// undecodable block) and fell back to the two-trip path.
    pub chase_fallbacks: u64,
}

/// Outcome of a read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadResult {
    Found(Vec<u8>),
    NotFound,
    /// The record is on the device; collect via [`FasterKv::poll`].
    Pending(PendingId),
}

/// Handle to a pending storage read.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PendingId {
    pub shard: usize,
    pub id: u64,
}

enum Resolution {
    Found(Vec<u8>),
    NotFound,
    NeedDevice(Token, PendingKind),
}

/// What a pending device completion means to the GET that issued it.
enum PendingKind {
    /// A record read at a known address (chain walk step).
    Record,
    /// Trip 1 of probe-then-fetch: the 8-byte mirrored slot word.
    SlotProbe,
    /// A one-trip dependent read: `[status word][record block]`.
    Chase,
}

struct PendingOp {
    pid: u64,
    key: u64,
    kind: PendingKind,
}

struct Shard<D: Device> {
    index: HashIndex,
    log: HybridLog<D>,
    /// device token -> the GET continuation it resolves
    pending: FastHashMap<Token, PendingOp>,
    /// Resolved GETs not yet taken by their caller: `(pid, value)`.
    done: Vec<(u64, Option<Vec<u8>>)>,
    /// Reused buffer for one poll's device completions.
    completions: Vec<Completion>,
    next_pending: u64,
    max_read_span: u64,
    remote_index: Option<RemoteIndex>,
    stats: GetStats,
}

impl<D: Device> Shard<D> {
    fn new(cfg: &StoreConfig, device: D) -> Shard<D> {
        Shard {
            index: HashIndex::new(cfg.index_slots),
            log: HybridLog::new(cfg.memory_per_shard, cfg.mutable_fraction, device),
            pending: FastHashMap::default(),
            done: Vec::new(),
            completions: Vec::new(),
            next_pending: 1,
            max_read_span: footprint(cfg.max_value_bytes as usize),
            remote_index: cfg.remote_index,
            stats: GetStats::default(),
        }
    }

    /// Mirror `key`'s (possibly shared) slot to the device after a publish.
    /// Single-writer per shard, so a plain overwrite of the packed word is
    /// enough; channel FIFO ordering makes it visible to any later chase.
    fn mirror_slot(&mut self, key: u64) {
        let Some(ri) = self.remote_index else {
            return;
        };
        let slot = self.index.slot_of(key);
        let word = self.index.raw_slot(slot);
        assert!(
            self.log.tail() <= ri.base,
            "log tail {} grew into the slot mirror at {}",
            self.log.tail(),
            ri.base
        );
        // The completion surfaces in poll() without a pending entry and is
        // discarded there, like a flush ack.
        self.log
            .device
            .write_async(ri.base + slot as u64 * 8, &word.to_le_bytes());
    }

    fn upsert(&mut self, key: u64, value: &[u8]) {
        self.append(key, value, false)
    }

    fn delete(&mut self, key: u64) {
        // FASTER-style deletion: append a tombstone version.
        self.append(key, &[], true)
    }

    /// Write header, value and zero padding straight into the log window.
    fn append(&mut self, key: u64, value: &[u8], tombstone: bool) {
        let mut head = self.index.lookup(key);
        let fp = footprint(value.len());
        let addr = self.log.alloc(fp);
        let header = RecordHeader {
            prev: head.unwrap_or(NULL_ADDR),
            key,
            val_len: value.len() as u32,
            tombstone,
        };
        self.log.write_at(addr, &header.encode());
        let value_at = addr + HEADER_BYTES;
        self.log.write_at(value_at, value);
        let pad = (fp - HEADER_BYTES) as usize - value.len();
        self.log
            .write_at(value_at + value.len() as u64, &[0u8; 8][..pad]);
        loop {
            match self.index.publish(key, head, addr) {
                Ok(()) => break,
                Err(observed) => {
                    head = if observed == NULL_ADDR {
                        None
                    } else {
                        Some(observed)
                    };
                    // Re-chain the freshly written record before retrying.
                    self.log
                        .write_at(addr, &head.unwrap_or(NULL_ADDR).to_le_bytes());
                }
            }
        }
        self.mirror_slot(key);
    }

    /// Walk the chain from `addr`; stop at a key match, the chain end, or
    /// the memory/storage boundary.
    fn resolve(&mut self, key: u64, mut addr: u64) -> Resolution {
        loop {
            if addr == NULL_ADDR {
                return Resolution::NotFound;
            }
            if self.log.in_memory(addr) {
                let mut bytes = [0u8; HEADER_BYTES as usize];
                assert!(self.log.read_mem_into(addr, &mut bytes), "in-memory header");
                let header = RecordHeader::decode(&bytes).expect("header decodes");
                if header.key == key {
                    if header.tombstone {
                        return Resolution::NotFound;
                    }
                    let mut val = vec![0u8; header.val_len as usize];
                    assert!(
                        self.log.read_mem_into(addr + HEADER_BYTES, &mut val),
                        "in-memory value"
                    );
                    return Resolution::Found(val);
                }
                addr = header.prev;
            } else {
                let span = self
                    .max_read_span
                    .min(self.log.flushed_boundary().saturating_sub(addr));
                debug_assert!(span >= HEADER_BYTES);
                self.stats.round_trips += 1;
                let token = self.log.device.read_async(addr, span as u32);
                return Resolution::NeedDevice(token, PendingKind::Record);
            }
        }
    }

    /// Kick off a cold GET through the remote index mirror: one dependent
    /// read when chase is on and the device supports it, otherwise trip 1
    /// of probe-then-fetch (the slot word).
    fn remote_get(&mut self, key: u64) -> (Token, PendingKind) {
        let ri = self.remote_index.expect("remote path needs a mirror");
        let slot_addr = ri.base + self.index.slot_of(key) as u64 * 8;
        if ri.chase {
            if let Some(token) = self
                .log
                .device
                .read_indirect_async(slot_addr, self.max_read_span as u32)
            {
                self.stats.round_trips += 1;
                self.stats.chase_gets += 1;
                return (token, PendingKind::Chase);
            }
        }
        self.stats.round_trips += 1;
        (
            self.log.device.read_async(slot_addr, 8),
            PendingKind::SlotProbe,
        )
    }

    fn read(&mut self, key: u64) -> Resolution {
        self.stats.gets += 1;
        match self.index.lookup(key) {
            None => {
                // Mirror parity: an empty local slot means an empty (or
                // foreign-tag) mirrored slot — no trip needed either way.
                self.stats.local_hits += 1;
                Resolution::NotFound
            }
            Some(addr) if self.remote_index.is_some() && !self.log.in_memory(addr) => {
                let (token, kind) = self.remote_get(key);
                Resolution::NeedDevice(token, kind)
            }
            Some(addr) => {
                let r = self.resolve(key, addr);
                if !matches!(r, Resolution::NeedDevice(..)) {
                    self.stats.local_hits += 1;
                }
                r
            }
        }
    }

    /// Register a GET that went to the device; returns its pending id.
    fn park(&mut self, key: u64, token: Token, kind: PendingKind) -> u64 {
        let pid = self.next_pending;
        self.next_pending += 1;
        self.pending.insert(token, PendingOp { pid, key, kind });
        pid
    }

    /// Collect device completions, continuing chain walks as needed; every
    /// GET that resolves lands in `done`.
    fn poll_into(&mut self) {
        let mut completions = std::mem::take(&mut self.completions);
        self.log.take_stashed_into(&mut completions);
        self.log.device.poll_into(&mut completions);
        for c in completions.drain(..) {
            let Some(op) = self.pending.remove(&c.token) else {
                continue; // a flush or slot-mirror ack that raced; harmless
            };
            let (pid, key) = (op.pid, op.key);
            if !c.ok {
                self.done.push((pid, None));
                continue;
            }
            let bytes = c.data.expect("read completion carries data");
            match op.kind {
                PendingKind::Record => self.continue_with_record(pid, key, bytes, 0),
                PendingKind::SlotProbe => {
                    // Trip 2 of probe-then-fetch: dereference the mirrored
                    // slot word and go after the record.
                    let word = u64::from_le_bytes(bytes[..8].try_into().expect("8-byte slot"));
                    let addr = HashIndex::addr_of_raw(word);
                    if addr == NULL_ADDR {
                        self.done.push((pid, None));
                    } else {
                        self.continue_resolve(pid, key, addr);
                    }
                }
                PendingKind::Chase => {
                    let outcome = bytes
                        .get(..8)
                        .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
                        .and_then(ChaseStatusWord::decode);
                    match outcome {
                        Some(s)
                            if matches!(
                                s.status,
                                ChaseStatus::Ok | ChaseStatus::BudgetExhausted
                            ) =>
                        {
                            self.continue_with_record(pid, key, bytes, 8)
                        }
                        Some(s) if s.status == ChaseStatus::NullPointer => {
                            self.done.push((pid, None));
                        }
                        _ => {
                            // Abort status or undecodable response: retry
                            // the GET on the two-trip path rather than
                            // guessing.
                            self.stats.chase_fallbacks += 1;
                            let ri = self.remote_index.expect("chase implies a mirror");
                            let slot_addr = ri.base + self.index.slot_of(key) as u64 * 8;
                            self.stats.round_trips += 1;
                            let token = self.log.device.read_async(slot_addr, 8);
                            self.pending.insert(
                                token,
                                PendingOp {
                                    pid,
                                    key,
                                    kind: PendingKind::SlotProbe,
                                },
                            );
                        }
                    }
                }
            }
        }
        self.completions = completions;
    }

    /// A record block arrived for `pid` at offset `at` of `bytes`: finish
    /// on a key match, handing `bytes` itself back as the value, otherwise
    /// keep walking the chain.
    fn continue_with_record(&mut self, pid: u64, key: u64, mut bytes: Vec<u8>, at: usize) {
        let Some((header, value)) = RecordHeader::decode_block(&bytes[at..]) else {
            self.done.push((pid, None));
            return;
        };
        if header.key == key {
            let value = (!header.tombstone).then(|| {
                bytes.truncate(at + value.end);
                bytes.drain(..at + value.start);
                bytes
            });
            self.done.push((pid, value));
            return;
        }
        // Collision: continue along the chain (may hop back into memory or
        // need another device read).
        self.continue_resolve(pid, key, header.prev);
    }

    fn continue_resolve(&mut self, pid: u64, key: u64, addr: u64) {
        match self.resolve(key, addr) {
            Resolution::Found(v) => self.done.push((pid, Some(v))),
            Resolution::NotFound => self.done.push((pid, None)),
            Resolution::NeedDevice(token, kind) => {
                self.pending.insert(token, PendingOp { pid, key, kind });
            }
        }
    }

    /// Poll, then take `pid`'s result if it has resolved, leaving every
    /// other caller's in `done`.
    fn take_done(&mut self, pid: u64) -> Option<Option<Vec<u8>>> {
        self.poll_into();
        let at = self.done.iter().position(|&(id, _)| id == pid)?;
        Some(self.done.remove(at).1)
    }
}

/// The FASTER-style store.
pub struct FasterKv<D: Device> {
    shards: Vec<Mutex<Shard<D>>>,
}

impl<D: Device> FasterKv<D> {
    /// Create a store with one shard per device (a shard per application
    /// thread is the intended deployment, matching the paper's per-thread
    /// Cowbird channels).
    pub fn new(cfg: StoreConfig, devices: Vec<D>) -> FasterKv<D> {
        assert!(!devices.is_empty());
        FasterKv {
            shards: devices
                .into_iter()
                .map(|d| Mutex::new(Shard::new(&cfg, d)))
                .collect(),
        }
    }

    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns a key (uses hash bits disjoint from the index's).
    pub fn shard_of(&self, key: u64) -> usize {
        ((hash_key(key) >> 48) % self.shards.len() as u64) as usize
    }

    /// Insert or update.
    pub fn upsert(&self, key: u64, value: &[u8]) {
        self.shards[self.shard_of(key)].lock().upsert(key, value)
    }

    /// Delete a key (appends a tombstone version, as FASTER does).
    pub fn delete(&self, key: u64) {
        self.shards[self.shard_of(key)].lock().delete(key)
    }

    /// Atomic read-modify-write: `f` sees the current value (None if
    /// absent) and returns the new one. Holds the shard for the duration;
    /// if the current version is in cold storage, the shard's device is
    /// polled inline until it arrives (FASTER's RMW similarly goes pending
    /// on a storage miss). Other callers' GETs that resolve meanwhile stay
    /// in the shard's stash for them.
    pub fn rmw(&self, key: u64, f: impl FnOnce(Option<&[u8]>) -> Vec<u8>) {
        let shard = self.shard_of(key);
        let mut guard = self.shards[shard].lock();
        let current = match guard.read(key) {
            Resolution::Found(v) => Some(v),
            Resolution::NotFound => None,
            Resolution::NeedDevice(token, kind) => {
                // Resolve inline, still holding the shard.
                let pid = guard.park(key, token, kind);
                let mut spins: u64 = 0;
                loop {
                    if let Some(v) = guard.take_done(pid) {
                        break v;
                    }
                    spins += 1;
                    if spins.is_multiple_of(8) {
                        std::thread::yield_now();
                    }
                }
            }
        };
        let new = f(current.as_deref());
        guard.upsert(key, &new);
    }

    /// Read; may return `Pending` when the record is in cold storage.
    pub fn read(&self, key: u64) -> ReadResult {
        let shard = self.shard_of(key);
        // One lock scope: the pending entry must be registered before any
        // other thread can poll the device and observe the completion.
        let mut guard = self.shards[shard].lock();
        match guard.read(key) {
            Resolution::Found(v) => ReadResult::Found(v),
            Resolution::NotFound => ReadResult::NotFound,
            Resolution::NeedDevice(token, kind) => ReadResult::Pending(PendingId {
                shard,
                id: guard.park(key, token, kind),
            }),
        }
    }

    /// Collect completed pending reads for a shard: those resolved by this
    /// call and those other calls resolved but did not take.
    pub fn poll(&self, shard: usize) -> Vec<(PendingId, Option<Vec<u8>>)> {
        let mut guard = self.shards[shard].lock();
        guard.poll_into();
        guard
            .done
            .drain(..)
            .map(|(id, v)| (PendingId { shard, id }, v))
            .collect()
    }

    /// Convenience for tests and single-threaded examples: read and spin
    /// for the result. Concurrent `read_blocking` and `rmw` callers on one
    /// shard are safe: each takes only its own result. A concurrent
    /// [`FasterKv::poll`] caller on the same shard can still take this
    /// caller's id, and then this call never returns.
    pub fn read_blocking(&self, key: u64) -> Option<Vec<u8>> {
        match self.read(key) {
            ReadResult::Found(v) => Some(v),
            ReadResult::NotFound => None,
            ReadResult::Pending(pid) => {
                let mut spins: u64 = 0;
                loop {
                    if let Some(v) = self.shards[pid.shard].lock().take_done(pid.id) {
                        return v;
                    }
                    spins += 1;
                    if spins.is_multiple_of(8) {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// Flush all shards' logs to their devices.
    pub fn flush_all(&self) {
        for s in &self.shards {
            s.lock().log.flush_all();
        }
    }

    /// Aggregate GET-path counters across shards.
    pub fn get_stats(&self) -> GetStats {
        let mut agg = GetStats::default();
        for s in &self.shards {
            let g = s.lock();
            agg.gets += g.stats.gets;
            agg.local_hits += g.stats.local_hits;
            agg.round_trips += g.stats.round_trips;
            agg.chase_gets += g.stats.chase_gets;
            agg.chase_fallbacks += g.stats.chase_fallbacks;
        }
        agg
    }

    /// Aggregate log statistics: (bytes flushed, evictions).
    pub fn log_stats(&self) -> (u64, u64) {
        let mut bytes = 0;
        let mut ev = 0;
        for s in &self.shards {
            let g = s.lock();
            bytes += g.log.bytes_flushed;
            ev += g.log.evictions;
        }
        (bytes, ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::LocalMemoryDevice;

    fn small_store(shards: usize) -> FasterKv<LocalMemoryDevice> {
        let cfg = StoreConfig {
            memory_per_shard: 16 << 10,
            mutable_fraction: 0.25,
            index_slots: 1 << 12,
            max_value_bytes: 256,
            remote_index: None,
        };
        FasterKv::new(cfg, (0..shards).map(|_| LocalMemoryDevice::new()).collect())
    }

    #[test]
    fn basic_upsert_read_in_memory() {
        let kv = small_store(1);
        kv.upsert(1, b"one");
        kv.upsert(2, b"two");
        assert_eq!(kv.read(1), ReadResult::Found(b"one".to_vec()));
        assert_eq!(kv.read(2), ReadResult::Found(b"two".to_vec()));
        assert_eq!(kv.read(3), ReadResult::NotFound);
    }

    #[test]
    fn updates_return_latest_version() {
        let kv = small_store(1);
        for i in 0..10u64 {
            kv.upsert(42, format!("v{i}").as_bytes());
        }
        assert_eq!(kv.read_blocking(42), Some(b"v9".to_vec()));
    }

    #[test]
    fn eviction_forces_pending_reads_that_resolve() {
        let kv = small_store(1);
        // Write enough 64-byte values to evict the early ones from the
        // 16 KiB window.
        for k in 0..1000u64 {
            kv.upsert(k, &[k as u8; 64]);
        }
        let (_bytes, evictions) = kv.log_stats();
        assert!(evictions > 0, "must have evicted");
        // Early keys now come from the device.
        let r = kv.read(0);
        assert!(matches!(r, ReadResult::Pending(_)), "got {r:?}");
        assert_eq!(kv.read_blocking(0), Some(vec![0u8; 64]));
        // And recent keys still come from memory.
        assert_eq!(kv.read(999), ReadResult::Found(vec![231u8; 64]));
    }

    #[test]
    fn every_key_survives_eviction() {
        let kv = small_store(1);
        for k in 0..2000u64 {
            kv.upsert(k, k.to_le_bytes().as_slice());
        }
        for k in (0..2000u64).step_by(37) {
            let v = kv
                .read_blocking(k)
                .unwrap_or_else(|| panic!("key {k} lost"));
            assert_eq!(v, k.to_le_bytes().as_slice());
        }
    }

    #[test]
    fn updates_survive_eviction_with_old_versions_on_device() {
        let kv = small_store(1);
        kv.upsert(7, b"old");
        for k in 100..1100u64 {
            kv.upsert(k, &[1u8; 64]);
        }
        kv.upsert(7, b"new");
        for k in 1100..2100u64 {
            kv.upsert(k, &[2u8; 64]);
        }
        assert_eq!(kv.read_blocking(7), Some(b"new".to_vec()));
    }

    #[test]
    fn sharding_routes_consistently() {
        let kv = small_store(4);
        for k in 0..500u64 {
            kv.upsert(k, &k.to_le_bytes());
        }
        for k in 0..500u64 {
            assert_eq!(
                kv.read_blocking(k),
                Some(k.to_le_bytes().to_vec()),
                "key {k}"
            );
        }
        assert_eq!(kv.shards(), 4);
    }

    #[test]
    fn concurrent_shard_access() {
        use std::sync::Arc;
        let kv = Arc::new(small_store(4));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let kv = Arc::clone(&kv);
            handles.push(std::thread::spawn(move || {
                let base = t * 10_000;
                for k in base..base + 1500 {
                    kv.upsert(k, &k.to_le_bytes());
                }
                for k in base..base + 1500 {
                    assert_eq!(kv.read_blocking(k), Some(k.to_le_bytes().to_vec()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn zero_length_values_work() {
        let kv = small_store(1);
        kv.upsert(5, b"");
        assert_eq!(kv.read_blocking(5), Some(vec![]));
    }
}

#[cfg(test)]
mod remote_index_tests {
    use std::collections::HashMap;

    use super::*;
    use crate::devices::LocalMemoryDevice;

    /// Mirror base well above anything a 16 KiB-window test log reaches.
    const MIRROR_BASE: u64 = 1 << 20;

    fn remote_store(chase: bool) -> FasterKv<LocalMemoryDevice> {
        FasterKv::new(
            StoreConfig {
                memory_per_shard: 16 << 10,
                mutable_fraction: 0.25,
                index_slots: 1 << 12,
                max_value_bytes: 256,
                remote_index: Some(RemoteIndex {
                    base: MIRROR_BASE,
                    chase,
                }),
            },
            vec![LocalMemoryDevice::new()],
        )
    }

    /// Keys whose hash buckets are pairwise distinct, so every cold GET is
    /// a head hit (no cross-key chain walks to muddy the trip counts).
    fn collision_free_keys(n: usize) -> Vec<u64> {
        let scratch = HashIndex::new(1 << 12);
        let mut used = std::collections::HashSet::new();
        let mut keys = Vec::new();
        let mut k = 1u64;
        while keys.len() < n {
            if used.insert(scratch.slot_of(k)) {
                keys.push(k);
            }
            k += 1;
        }
        keys
    }

    /// A pair of distinct keys sharing one hash bucket.
    fn colliding_pair() -> (u64, u64) {
        let scratch = HashIndex::new(1 << 12);
        let mut seen: HashMap<usize, u64> = HashMap::new();
        for k in 1u64..100_000 {
            if let Some(&other) = seen.get(&scratch.slot_of(k)) {
                return (other, k);
            }
            seen.insert(scratch.slot_of(k), k);
        }
        unreachable!("4096 buckets must collide within 100k keys");
    }

    fn evict_everything(kv: &FasterKv<LocalMemoryDevice>, fillers: &[u64]) {
        for &k in fillers {
            kv.upsert(k, &[0xEE; 64]);
        }
        let (_, evictions) = kv.log_stats();
        assert!(evictions > 0, "filler must evict the window");
    }

    #[test]
    fn baseline_remote_get_pays_two_trips() {
        let kv = remote_store(false);
        // Targets and fillers from disjoint buckets: a filler sharing a
        // target's bucket would sit at the chain head and add record trips.
        let all = collision_free_keys(32 + 1500);
        let (keys, fillers) = all.split_at(32);
        for &k in keys {
            kv.upsert(k, &k.to_le_bytes());
        }
        evict_everything(&kv, fillers);
        let before = kv.get_stats();
        for &k in keys {
            assert_eq!(kv.read_blocking(k), Some(k.to_le_bytes().to_vec()));
        }
        let after = kv.get_stats();
        let gets = after.gets - before.gets;
        let cold = gets - (after.local_hits - before.local_hits);
        assert!(cold >= keys.len() as u64 / 2, "most GETs must go remote");
        // Probe-then-fetch: every cold GET pays the slot trip plus the
        // record trip.
        assert_eq!(after.round_trips - before.round_trips, 2 * cold);
        assert_eq!(after.chase_gets, 0);
    }

    #[test]
    fn chase_get_is_exactly_one_round_trip() {
        let kv = remote_store(true);
        let all = collision_free_keys(32 + 1500);
        let (keys, fillers) = all.split_at(32);
        for &k in keys {
            kv.upsert(k, &k.to_le_bytes());
        }
        evict_everything(&kv, fillers);
        let before = kv.get_stats();
        for &k in keys {
            assert_eq!(kv.read_blocking(k), Some(k.to_le_bytes().to_vec()));
        }
        let after = kv.get_stats();
        let gets = after.gets - before.gets;
        let cold = gets - (after.local_hits - before.local_hits);
        assert!(cold >= keys.len() as u64 / 2, "most GETs must go remote");
        // The acceptance bar: one round trip per cold GET, all of them
        // dependent reads, none falling back.
        assert_eq!(after.round_trips - before.round_trips, cold);
        assert_eq!(after.chase_gets - before.chase_gets, cold);
        assert_eq!(after.chase_fallbacks, 0);
    }

    #[test]
    fn chase_walks_bucket_collisions_and_serves_tombstones() {
        let kv = remote_store(true);
        let (older, newer) = colliding_pair();
        kv.upsert(older, b"older-value");
        kv.upsert(newer, b"newer-value");
        let dead = collision_free_keys(1)[0];
        kv.upsert(dead, b"soon-gone");
        kv.delete(dead);
        evict_everything(&kv, &(2_000_000..2_001_500).collect::<Vec<_>>());
        // The chase lands on the bucket head (`newer`); reading `older`
        // walks the chain with an extra record trip — correctness over
        // trip-count purity.
        assert_eq!(kv.read_blocking(older), Some(b"older-value".to_vec()));
        assert_eq!(kv.read_blocking(newer), Some(b"newer-value".to_vec()));
        // A tombstone fetched through the chase reads as absent.
        assert_eq!(kv.read_blocking(dead), None);
        let stats = kv.get_stats();
        assert!(stats.chase_gets >= 3);
        assert_eq!(stats.chase_fallbacks, 0);
    }

    #[test]
    fn chase_on_and_off_are_observationally_equivalent() {
        let on = remote_store(true);
        let off = remote_store(false);
        let plain = FasterKv::new(
            StoreConfig {
                memory_per_shard: 16 << 10,
                mutable_fraction: 0.25,
                index_slots: 1 << 12,
                max_value_bytes: 256,
                remote_index: None,
            },
            vec![LocalMemoryDevice::new()],
        );
        let stores = [&on, &off, &plain];
        // Mixed workload: upserts, overwrites, deletes, interleaved with
        // enough volume to spill the window.
        let mut x = 0x243F_6A88_85A3_08D3u64; // deterministic xorshift
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..4000u64 {
            let key = step() % 512;
            match step() % 10 {
                0 => stores.iter().for_each(|s| s.delete(key)),
                _ => {
                    let val = vec![(i % 251) as u8; 16 + (key % 48) as usize];
                    stores.iter().for_each(|s| s.upsert(key, &val));
                }
            }
        }
        let (_, ev) = on.log_stats();
        assert!(ev > 0, "workload must spill");
        for key in 0..512u64 {
            let want = plain.read_blocking(key);
            assert_eq!(on.read_blocking(key), want, "chase-on diverges at {key}");
            assert_eq!(off.read_blocking(key), want, "chase-off diverges at {key}");
        }
        assert!(
            on.get_stats().chase_gets > 0,
            "chase path must be exercised"
        );
    }
}

#[cfg(test)]
mod delete_rmw_tests {
    use super::*;
    use crate::devices::LocalMemoryDevice;

    fn store() -> FasterKv<LocalMemoryDevice> {
        FasterKv::new(
            StoreConfig {
                memory_per_shard: 16 << 10,
                mutable_fraction: 0.25,
                index_slots: 1 << 12,
                max_value_bytes: 256,
                remote_index: None,
            },
            vec![LocalMemoryDevice::new()],
        )
    }

    #[test]
    fn delete_hides_key() {
        let kv = store();
        kv.upsert(1, b"alive");
        assert_eq!(kv.read_blocking(1), Some(b"alive".to_vec()));
        kv.delete(1);
        assert_eq!(kv.read_blocking(1), None);
        // Re-insert after delete works.
        kv.upsert(1, b"back");
        assert_eq!(kv.read_blocking(1), Some(b"back".to_vec()));
    }

    #[test]
    fn deleted_key_stays_deleted_across_eviction() {
        let kv = store();
        kv.upsert(7, b"v");
        kv.delete(7);
        // Push both versions to the device.
        for k in 100..1200u64 {
            kv.upsert(k, &[1u8; 64]);
        }
        assert_eq!(kv.read_blocking(7), None, "tombstone must survive eviction");
        // A neighbour key is unaffected.
        assert_eq!(kv.read_blocking(100), Some(vec![1u8; 64]));
    }

    #[test]
    fn delete_of_missing_key_is_noop_tombstone() {
        let kv = store();
        kv.delete(42);
        assert_eq!(kv.read_blocking(42), None);
    }

    #[test]
    fn rmw_counter_semantics() {
        let kv = store();
        for _ in 0..100 {
            kv.rmw(5, |cur| {
                let n = cur
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                    .unwrap_or(0);
                (n + 1).to_le_bytes().to_vec()
            });
        }
        let v = kv.read_blocking(5).unwrap();
        assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), 100);
    }

    #[test]
    fn rmw_resolves_evicted_versions() {
        let kv = store();
        kv.upsert(9, &10u64.to_le_bytes());
        for k in 100..1200u64 {
            kv.upsert(k, &[2u8; 64]);
        }
        // Version of key 9 is now on the device; RMW must fetch it.
        kv.rmw(9, |cur| {
            let n = u64::from_le_bytes(cur.expect("exists").try_into().unwrap());
            (n * 3).to_le_bytes().to_vec()
        });
        let v = kv.read_blocking(9).unwrap();
        assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), 30);
    }

    #[test]
    fn concurrent_rmw_from_threads_is_atomic() {
        use std::sync::Arc;
        let kv = Arc::new(store());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let kv = Arc::clone(&kv);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    kv.rmw(77, |cur| {
                        let n = cur
                            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                            .unwrap_or(0);
                        (n + 1).to_le_bytes().to_vec()
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let v = kv.read_blocking(77).unwrap();
        assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), 2000);
    }
}
