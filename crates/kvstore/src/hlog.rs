//! The hybrid log (paper §7).
//!
//! "Records in FASTER are stored in a hybrid log — a log partitioned across
//! main memory (the tail of the log that is writable) and storage (the
//! read-only part of the log). [...] When main memory is insufficient,
//! older data will be appended to storage, e.g., SSDs or remote memory."
//!
//! Addresses are monotone (never reused); the newest `capacity` bytes live
//! in a circular in-memory buffer:
//!
//! ```text
//!   0 ... [device-resident] ... head ... [in-memory read-only] ...
//!         read_only ... [in-memory mutable] ... tail
//! ```
//!
//! Invariant: `head <= flushed <= read_only <= tail` and
//! `tail - head <= capacity`. Eviction flushes `[flushed, read_only)` to
//! the device (blocking until durable — buffer space must not be reused
//! before the flush lands remotely) and then advances `head`.

use crate::device::{Completion, Device, Token};

/// First valid log address (0 is the null/chain-terminator address).
pub const LOG_BASE: u64 = 64;

/// Flush chunk bound — must fit comfortably in a Cowbird request data ring.
const FLUSH_CHUNK: u64 = 64 * 1024;

/// The hybrid log over a storage device.
pub struct HybridLog<D: Device> {
    buf: Vec<u8>,
    capacity: u64,
    head: u64,
    flushed: u64,
    read_only: u64,
    tail: u64,
    /// Fraction of the in-memory window kept mutable (FASTER defaults to
    /// ~10 %; we keep it configurable).
    mutable_fraction: f64,
    pub device: D,
    /// Completions that belong to the store's pending reads but surfaced
    /// while the log was waiting for its own flush tokens; the store drains
    /// them via [`HybridLog::take_stashed_into`].
    stashed: Vec<Completion>,
    /// Flush statistics.
    pub bytes_flushed: u64,
    pub evictions: u64,
}

impl<D: Device> HybridLog<D> {
    /// Create a log with an in-memory window of `capacity` bytes.
    pub fn new(capacity: u64, mutable_fraction: f64, device: D) -> HybridLog<D> {
        assert!(capacity >= 4096, "window too small");
        assert!((0.01..=1.0).contains(&mutable_fraction));
        HybridLog {
            buf: vec![0; capacity as usize],
            capacity,
            head: LOG_BASE,
            flushed: LOG_BASE,
            read_only: LOG_BASE,
            tail: LOG_BASE,
            mutable_fraction,
            device,
            stashed: Vec::new(),
            bytes_flushed: 0,
            evictions: 0,
        }
    }

    /// Move completions for operations the log does not own (reads issued
    /// by the store) that were reaped during a blocking flush to `out`.
    pub fn take_stashed_into(&mut self, out: &mut Vec<Completion>) {
        if out.is_empty() {
            // Hand the stash's buffer over whole: a long stretch of upserts
            // with no poll can stash thousands of acks.
            std::mem::swap(out, &mut self.stashed);
        } else {
            out.append(&mut self.stashed);
        }
    }

    /// Wait until every token in `tokens` completes, stashing any foreign
    /// completions for the store.
    fn await_tokens(&mut self, mut tokens: Vec<Token>) {
        let mut spins: u64 = 0;
        while !tokens.is_empty() {
            let before = tokens.len();
            // Poll onto the stash, then take this flush's acks back out of
            // the fresh tail, keeping the foreign completions in order.
            let fresh = self.stashed.len();
            self.device.poll_into(&mut self.stashed);
            let mut kept = fresh;
            for i in fresh..self.stashed.len() {
                let c = &self.stashed[i];
                if let Some(at) = tokens.iter().position(|&t| t == c.token) {
                    debug_assert!(c.ok, "flush write failed");
                    tokens.swap_remove(at);
                } else {
                    self.stashed.swap(kept, i);
                    kept += 1;
                }
            }
            self.stashed.truncate(kept);
            if tokens.len() == before {
                spins += 1;
                if spins.is_multiple_of(16) {
                    std::thread::yield_now();
                }
            }
        }
    }

    pub fn head(&self) -> u64 {
        self.head
    }

    pub fn tail(&self) -> u64 {
        self.tail
    }

    pub fn read_only_boundary(&self) -> u64 {
        self.read_only
    }

    /// Is `addr` still resident in memory?
    pub fn in_memory(&self, addr: u64) -> bool {
        addr >= self.head && addr < self.tail
    }

    /// Addresses below this are durable on the device.
    pub fn flushed_boundary(&self) -> u64 {
        self.flushed
    }

    /// Allocate `len` contiguous log bytes, evicting cold data if needed.
    /// Returns the record's address.
    pub fn alloc(&mut self, len: u64) -> u64 {
        assert!(
            len > 0 && len <= self.capacity / 2,
            "allocation of {len} bytes"
        );
        if self.tail + len - self.head > self.capacity {
            // Evict at least what is needed, but advance the head by a
            // whole region (1/8 of the window) so eviction is amortized —
            // evicting one record at a time would pay a device round trip
            // per subsequent allocation.
            let needed = self.tail + len - self.capacity;
            let target = needed.max(self.head + self.capacity / 8);
            self.evict(target);
        }
        let addr = self.tail;
        self.tail += len;
        addr
    }

    /// Evict so that `head >= target_head`.
    fn evict(&mut self, target_head: u64) {
        self.evictions += 1;
        // Move the read-only boundary forward far enough, keeping the
        // configured mutable window when possible.
        let mutable_bytes = (self.capacity as f64 * self.mutable_fraction) as u64;
        let wanted_ro = self.tail.saturating_sub(mutable_bytes).max(target_head);
        let new_ro = wanted_ro.min(self.tail).max(self.read_only);
        // Flush [flushed, new_ro).
        let mut flush_tokens = Vec::new();
        let mut at = self.flushed;
        while at < new_ro {
            let phys = (at % self.capacity) as usize;
            let span = (new_ro - at)
                .min(FLUSH_CHUNK)
                .min(self.capacity - at % self.capacity) as usize;
            flush_tokens.push(self.device.write_async(at, &self.buf[phys..phys + span]));
            self.bytes_flushed += span as u64;
            at += span as u64;
        }
        self.read_only = new_ro;
        // Buffer space is reused as soon as head advances: wait for
        // durability first.
        self.await_tokens(flush_tokens);
        self.flushed = new_ro;
        self.head = target_head.min(self.flushed);
        debug_assert!(self.tail - self.head <= self.capacity);
    }

    /// Force-flush everything below the tail (used before shutdown or by
    /// tests); the mutable region becomes read-only.
    pub fn flush_all(&mut self) {
        self.evict(self.head);
        // evict() only flushes to wanted_ro; force the remainder.
        let target = self.tail;
        let mut flush_tokens = Vec::new();
        let mut at = self.flushed;
        while at < target {
            let phys = (at % self.capacity) as usize;
            let span = (target - at)
                .min(FLUSH_CHUNK)
                .min(self.capacity - at % self.capacity) as usize;
            flush_tokens.push(self.device.write_async(at, &self.buf[phys..phys + span]));
            self.bytes_flushed += span as u64;
            at += span as u64;
        }
        self.await_tokens(flush_tokens);
        self.read_only = target;
        self.flushed = target;
    }

    /// Write `data` at `addr` (must be within the in-memory window; the
    /// caller owns ordering within the mutable region).
    pub fn write_at(&mut self, addr: u64, data: &[u8]) {
        debug_assert!(addr >= self.head, "write below head");
        debug_assert!(addr + data.len() as u64 <= self.tail, "write past tail");
        let mut off = addr;
        let mut i = 0;
        while i < data.len() {
            let phys = (off % self.capacity) as usize;
            let span = ((self.capacity - off % self.capacity) as usize).min(data.len() - i);
            self.buf[phys..phys + span].copy_from_slice(&data[i..i + span]);
            off += span as u64;
            i += span;
        }
    }

    /// Fill `out` with the bytes at `addr` from memory; `false` (and `out`
    /// untouched) if any of them are not in memory.
    pub fn read_mem_into(&self, addr: u64, out: &mut [u8]) -> bool {
        if addr < self.head || addr + out.len() as u64 > self.tail {
            return false;
        }
        let mut off = addr;
        let mut i = 0;
        while i < out.len() {
            let phys = (off % self.capacity) as usize;
            let span = ((self.capacity - off % self.capacity) as usize).min(out.len() - i);
            out[i..i + span].copy_from_slice(&self.buf[phys..phys + span]);
            off += span as u64;
            i += span;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::LocalMemoryDevice;

    fn log(capacity: u64) -> HybridLog<LocalMemoryDevice> {
        HybridLog::new(capacity, 0.25, LocalMemoryDevice::new())
    }

    fn read_mem(l: &HybridLog<LocalMemoryDevice>, addr: u64, len: usize) -> Option<Vec<u8>> {
        let mut out = vec![0u8; len];
        l.read_mem_into(addr, &mut out).then_some(out)
    }

    #[test]
    fn alloc_and_readback_in_memory() {
        let mut l = log(4096);
        let a = l.alloc(100);
        assert_eq!(a, LOG_BASE);
        l.write_at(a, &[7u8; 100]);
        assert_eq!(read_mem(&l, a, 100).unwrap(), vec![7u8; 100]);
        assert!(l.in_memory(a));
    }

    #[test]
    fn eviction_flushes_then_advances_head() {
        let mut l = log(4096);
        let first = l.alloc(1024);
        l.write_at(first, &[1u8; 1024]);
        for i in 0..8u8 {
            let a = l.alloc(1024);
            l.write_at(a, &[i + 2; 1024]);
        }
        // The first record must be evicted by now.
        assert!(!l.in_memory(first));
        assert!(read_mem(&l, first, 1024).is_none());
        assert!(l.evictions > 0);
        // And durable on the device.
        assert!(l.flushed_boundary() > first);
        let dev = &l.device;
        assert_eq!(dev.peek(first, 1024), vec![1u8; 1024]);
    }

    #[test]
    fn records_wrap_the_circular_buffer() {
        let mut l = log(4096);
        // Fill so the next alloc wraps the physical buffer.
        let mut last = 0;
        for i in 0..20u8 {
            let a = l.alloc(600);
            let pattern = vec![i; 600];
            l.write_at(a, &pattern);
            last = a;
            assert_eq!(read_mem(&l, a, 600).unwrap(), pattern, "iter {i}");
        }
        assert!(l.in_memory(last));
    }

    #[test]
    fn flush_all_makes_everything_durable() {
        let mut l = log(8192);
        let a = l.alloc(256);
        l.write_at(a, &[9u8; 256]);
        l.flush_all();
        assert_eq!(l.flushed_boundary(), l.tail());
        assert_eq!(l.device.peek(a, 256), vec![9u8; 256]);
        // Still readable from memory (flushing != evicting).
        assert!(l.in_memory(a));
    }

    #[test]
    #[should_panic(expected = "allocation")]
    fn oversized_alloc_panics() {
        let mut l = log(4096);
        l.alloc(3000);
    }

    #[test]
    fn monotone_addresses_never_reused() {
        let mut l = log(4096);
        let mut prev = 0;
        for _ in 0..100 {
            let a = l.alloc(128);
            assert!(a > prev);
            prev = a;
        }
    }
}
