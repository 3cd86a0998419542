//! Recycled buffer arena — the software analogue of the paper's
//! packet-*recycling* template (§5.3), hoisted into the simulation kernel.
//!
//! Cowbird-P4 never allocates packets: the switch rewrites the headers of the
//! packet that just arrived and sends it back out. The same discipline now
//! applies at every layer of the reproduction: protocol payloads *and* the
//! simulator's own [`crate::Packet`] payloads are borrowed from a free-list,
//! travel through the fabric, and return to their arena when the last owner
//! drops them — a delivery, a retired WQE, or a link-fault drop all recycle
//! the buffer through ordinary ownership, no callbacks required.
//!
//! A buffer's *capacity* is sticky: the first few ops grow each buffer to the
//! working set's payload size, after which [`BufArena::take`] never
//! reallocates. The arena counts hits (buffer reused), misses (free-list
//! empty, fresh allocation) and recycles (buffer returned), so the
//! steady-state claim "no per-op allocations on the hot path" is observable
//! as a ≥ 99% hit rate — and enforced by counting-allocator tests.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The free-list and its counters, under one lock: a take and a return are
/// two lock round trips and nothing else.
#[derive(Debug, Default)]
struct FreeList {
    bufs: Vec<Vec<u8>>,
    stats: ArenaStats,
}

#[derive(Debug, Default)]
struct ArenaInner {
    free: Mutex<FreeList>,
    /// Free-list length cap; buffers returned beyond it are dropped.
    /// Atomic so a shared arena can be re-capped while buffers are in
    /// flight (a polling-group shard grows its arena with channel fan-in).
    max_pooled: AtomicUsize,
}

/// Counters exposed by [`BufArena::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// `take` calls served from the free-list.
    pub hits: u64,
    /// `take` calls that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers returned to the free-list on drop.
    pub recycled: u64,
}

impl ArenaStats {
    /// Fraction of takes served without allocating (1.0 when nothing was
    /// taken yet, so an idle arena does not read as cold).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A shared pool of reusable byte buffers.
///
/// Cloning the arena clones the handle; all clones share one free-list and
/// one set of counters.
#[derive(Clone, Debug, Default)]
pub struct BufArena {
    inner: Arc<ArenaInner>,
}

impl BufArena {
    /// An arena keeping at most `max_pooled` idle buffers.
    pub fn new(max_pooled: usize) -> BufArena {
        BufArena {
            inner: Arc::new(ArenaInner {
                free: Mutex::new(FreeList {
                    bufs: Vec::with_capacity(max_pooled),
                    stats: ArenaStats::default(),
                }),
                max_pooled: AtomicUsize::new(max_pooled),
            }),
        }
    }

    /// Current free-list cap.
    pub fn max_pooled(&self) -> usize {
        self.inner.max_pooled.load(Ordering::Relaxed)
    }

    /// Re-cap the free-list. Growing takes effect immediately (returning
    /// buffers start pooling up to the new cap); shrinking lets the excess
    /// drain naturally — buffers already idle stay until taken, returns
    /// beyond the new cap are dropped.
    pub fn set_max_pooled(&self, max_pooled: usize) {
        self.inner.max_pooled.store(max_pooled, Ordering::Relaxed);
    }

    /// Borrow an empty buffer (len 0, capacity whatever it last grew to).
    /// Extend it with [`PoolBuf::extend_from_slice`]; growth beyond the
    /// recycled capacity reallocates once and the larger capacity then
    /// sticks for every later reuse.
    pub fn take(&self) -> PoolBuf {
        self.take_sized(0, 0)
    }

    /// Borrow a buffer of `len` bytes with `headroom` spare bytes in front
    /// of them (see [`PoolBuf::prepend`]). The `len` bytes hold whatever the
    /// recycled buffer last held — the caller overwrites all of them — so a
    /// warmed-up take touches no payload byte at all.
    pub fn take_sized(&self, headroom: usize, len: usize) -> PoolBuf {
        let mut data = {
            let mut free = self.inner.free.lock().expect("arena lock poisoned");
            match free.bufs.pop() {
                Some(v) => {
                    free.stats.hits += 1;
                    v
                }
                None => {
                    free.stats.misses += 1;
                    Vec::new()
                }
            }
        };
        let end = headroom + len;
        if data.len() < end {
            data.resize(end, 0);
        }
        PoolBuf {
            data,
            start: headroom,
            end,
            arena: Some(Arc::clone(&self.inner)),
        }
    }

    /// Borrow a buffer pre-filled with a copy of `src`.
    pub fn take_copy(&self, src: &[u8]) -> PoolBuf {
        let mut b = self.take_sized(0, src.len());
        b.copy_from_slice(src);
        b
    }

    /// Buffers currently idle on the free-list.
    pub fn pooled(&self) -> usize {
        self.inner
            .free
            .lock()
            .expect("arena lock poisoned")
            .bufs
            .len()
    }

    /// Hit/miss/recycle counters since construction.
    pub fn stats(&self) -> ArenaStats {
        self.inner.free.lock().expect("arena lock poisoned").stats
    }
}

/// A byte buffer borrowed from a [`BufArena`] (or a plain owned buffer when
/// constructed via [`From<Vec<u8>>`] — unpooled buffers behave like the
/// `Vec<u8>` payloads they replaced and are simply freed on drop).
///
/// The buffer is a window `start..end` onto its backing bytes. The bytes in
/// front of the window are *headroom*: [`PoolBuf::prepend`] grows the window
/// backwards over them, so a protocol header is written in front of a
/// payload that is already in place, and [`PoolBuf::advance`] shrinks it
/// from the front, so a parsed frame's payload is a view of the frame. The
/// backing bytes keep their length across recycling; only the window moves.
///
/// Dropping a pooled buffer returns it to its arena, capacity intact. That
/// drop happens wherever the payload's journey ends — for an inline write,
/// when the NIC retires the outstanding WQE on completion; for a simulated
/// packet, when the receiving node finishes `on_packet` — so "returned on
/// completion" falls out of ownership rather than a callback.
#[derive(Default)]
pub struct PoolBuf {
    /// Invariant: `start <= end <= data.len()`.
    data: Vec<u8>,
    start: usize,
    end: usize,
    arena: Option<Arc<ArenaInner>>,
}

impl PoolBuf {
    /// An empty buffer not tied to any arena.
    pub const fn empty() -> PoolBuf {
        PoolBuf {
            data: Vec::new(),
            start: 0,
            end: 0,
            arena: None,
        }
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Append bytes, growing the (sticky) capacity if needed.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        let end = self.end + src.len();
        if self.data.len() < end {
            self.data.resize(end, 0);
        }
        self.data[self.end..end].copy_from_slice(src);
        self.end = end;
    }

    pub fn clear(&mut self) {
        self.end = self.start;
    }

    /// Keep the first `len` bytes of the contents (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        self.end = self.end.min(self.start + len);
    }

    /// Spare bytes in front of the contents.
    pub fn headroom(&self) -> usize {
        self.start
    }

    /// Grow the contents backwards by `n` bytes of headroom and return them
    /// for the caller to fill. Panics if `n` exceeds [`PoolBuf::headroom`].
    pub fn prepend(&mut self, n: usize) -> &mut [u8] {
        let start = self
            .start
            .checked_sub(n)
            .expect("prepend beyond the buffer's headroom");
        self.start = start;
        &mut self.data[start..start + n]
    }

    /// Drop the first `n` bytes of the contents; they become headroom.
    /// Panics if `n` exceeds the length.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance beyond the buffer's contents");
        self.start += n;
    }

    /// True when this buffer will return to an arena on drop (tests).
    pub fn is_pooled(&self) -> bool {
        self.arena.is_some()
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        if let Some(arena) = self.arena.take() {
            // A poisoned lock means a holder panicked; the buffer is then
            // simply freed.
            if let Ok(mut free) = arena.free.lock() {
                if free.bufs.len() < arena.max_pooled.load(Ordering::Relaxed) {
                    free.bufs.push(std::mem::take(&mut self.data));
                    free.stats.recycled += 1;
                }
            }
        }
    }
}

impl Deref for PoolBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl DerefMut for PoolBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for PoolBuf {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// Deep copy of the bytes, *unpooled* — clones are escape hatches (test
/// fixtures, Go-Back-N snapshots of a `Clone`d op), not hot-path borrows,
/// and must not inflate the recycle counters.
impl Clone for PoolBuf {
    fn clone(&self) -> PoolBuf {
        self[..].into()
    }
}

/// Byte equality; arena provenance is irrelevant to protocol semantics.
impl PartialEq for PoolBuf {
    fn eq(&self, other: &PoolBuf) -> bool {
        self[..] == other[..]
    }
}

impl Eq for PoolBuf {}

impl PartialEq<Vec<u8>> for PoolBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<PoolBuf> for Vec<u8> {
    fn eq(&self, other: &PoolBuf) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<[u8]> for PoolBuf {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<&[u8]> for PoolBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        &self[..] == *other
    }
}

impl fmt::Debug for PoolBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self[..].fmt(f)
    }
}

impl From<Vec<u8>> for PoolBuf {
    fn from(data: Vec<u8>) -> PoolBuf {
        PoolBuf {
            start: 0,
            end: data.len(),
            data,
            arena: None,
        }
    }
}

impl From<&[u8]> for PoolBuf {
    fn from(src: &[u8]) -> PoolBuf {
        src.to_vec().into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_take_misses_then_reuse_hits() {
        let arena = BufArena::new(8);
        let mut b = arena.take();
        b.extend_from_slice(&[1, 2, 3]);
        assert!(b.is_pooled());
        drop(b);
        assert_eq!(arena.pooled(), 1);
        let b2 = arena.take();
        assert!(b2.is_empty(), "recycled buffer must come back cleared");
        let s = arena.stats();
        assert_eq!((s.hits, s.misses, s.recycled), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_sticky_across_reuse() {
        let arena = BufArena::new(8);
        let mut b = arena.take();
        b.extend_from_slice(&vec![0u8; 4096]);
        drop(b);
        let b2 = arena.take();
        assert!(b2.data.capacity() >= 4096);
    }

    #[test]
    fn headers_go_in_front_of_a_payload_already_in_place() {
        let arena = BufArena::new(8);
        let mut b = arena.take_sized(4, 3);
        assert_eq!((b.headroom(), b.len()), (4, 3));
        b.copy_from_slice(&[7, 8, 9]);
        b.prepend(2).copy_from_slice(&[1, 2]);
        assert_eq!(b, vec![1u8, 2, 7, 8, 9]);
        assert_eq!(b.headroom(), 2);
        // Consuming the header leaves the payload as a view of the frame.
        b.advance(2);
        assert_eq!(b, vec![7u8, 8, 9]);
        b.extend_from_slice(&[10]);
        assert_eq!(b.clone(), vec![7u8, 8, 9, 10]);
        b.truncate(9);
        assert_eq!(b.len(), 4);
        b.truncate(2);
        assert_eq!(b, vec![7u8, 8]);
        // A recycled buffer comes back as an empty window at the front,
        // whatever window it left with.
        drop(b);
        let again = arena.take();
        assert_eq!((again.headroom(), again.len()), (0, 0));
        assert_eq!(arena.stats().hits, 1);
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn prepend_beyond_headroom_panics() {
        BufArena::new(1).take_sized(2, 0).prepend(3);
    }

    #[test]
    fn free_list_is_capped() {
        let arena = BufArena::new(2);
        let bufs: Vec<PoolBuf> = (0..4).map(|_| arena.take()).collect();
        drop(bufs);
        assert_eq!(arena.pooled(), 2);
        assert_eq!(arena.stats().recycled, 2);
    }

    #[test]
    fn clone_is_unpooled_deep_copy() {
        let arena = BufArena::new(8);
        let b = arena.take_copy(&[7, 8, 9]);
        let c = b.clone();
        assert_eq!(b, c);
        assert!(!c.is_pooled());
        drop(c);
        assert_eq!(arena.stats().recycled, 0);
        drop(b);
        assert_eq!(arena.stats().recycled, 1);
    }

    #[test]
    fn from_vec_is_unpooled_and_byte_equal() {
        let b: PoolBuf = vec![1u8, 2].into();
        assert!(!b.is_pooled());
        assert_eq!(&b[..], &[1, 2]);
        let c: PoolBuf = (&[1u8, 2][..]).into();
        assert_eq!(b, c);
        assert_eq!(b, vec![1u8, 2]);
    }

    #[test]
    fn idle_arena_reports_full_hit_rate() {
        assert_eq!(BufArena::new(4).stats().hit_rate(), 1.0);
    }

    #[test]
    fn recapping_grows_the_free_list_for_in_flight_buffers() {
        let arena = BufArena::new(1);
        let bufs: Vec<PoolBuf> = (0..4).map(|_| arena.take()).collect();
        // The cap grows while the buffers are still out.
        arena.set_max_pooled(3);
        assert_eq!(arena.max_pooled(), 3);
        drop(bufs);
        assert_eq!(arena.pooled(), 3, "returns honor the new cap");
        // Shrinking drops later returns but leaves idle buffers alone.
        arena.set_max_pooled(2);
        let b = arena.take();
        let c = arena.take();
        drop(b);
        drop(c);
        assert_eq!(arena.pooled(), 2);
    }
}
