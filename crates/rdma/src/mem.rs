//! Registered memory: word-atomic regions with remote keys.
//!
//! A [`Region`] is a block of shared memory addressable by byte offset but
//! stored as `AtomicU64` words, which gives us exactly the properties a
//! disaggregation substrate needs:
//!
//! * the Cowbird client library can publish ring entries with
//!   acquire/release word operations (the x86-TSO protocol of paper §4.3);
//! * an emulated NIC thread can "DMA" bytes in and out of the same region
//!   concurrently without data races (partial-word writes use CAS loops, so
//!   adjacent writers never clobber each other);
//! * the single-threaded simulator uses the same code with negligible cost.
//!
//! A [`RegionCatalog`] maps remote keys (rkeys) to regions, playing the role
//! of the NIC's memory translation and protection table.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Remote key identifying a registered region, as carried in a RETH.
pub type Rkey = u32;

/// Errors from region access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemError {
    /// Offset + length exceeds the region.
    OutOfBounds {
        offset: u64,
        len: usize,
        size: usize,
    },
    /// No region registered under this rkey.
    BadRkey(Rkey),
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfBounds { offset, len, size } => {
                write!(
                    f,
                    "access [{offset}, {offset}+{len}) outside region of {size} bytes"
                )
            }
            MemError::BadRkey(k) => write!(f, "no region registered for rkey {k}"),
        }
    }
}

impl std::error::Error for MemError {}

struct RegionInner {
    words: Box<[AtomicU64]>,
    size: usize,
}

/// A registered, shareable memory region. Cloning is cheap (Arc).
#[derive(Clone)]
pub struct Region {
    inner: Arc<RegionInner>,
}

impl Region {
    /// Allocate a zeroed region of `size` bytes (rounded up to 8).
    pub fn new(size: usize) -> Region {
        let words = size.div_ceil(8);
        let mut v = Vec::with_capacity(words);
        v.resize_with(words, || AtomicU64::new(0));
        Region {
            inner: Arc::new(RegionInner {
                words: v.into_boxed_slice(),
                size,
            }),
        }
    }

    /// Region size in bytes.
    pub fn len(&self) -> usize {
        self.inner.size
    }

    pub fn is_empty(&self) -> bool {
        self.inner.size == 0
    }

    /// Is `[offset, offset + len)` inside the region?
    pub fn check(&self, offset: u64, len: usize) -> Result<(), MemError> {
        let end = offset.checked_add(len as u64);
        match end {
            Some(e) if e <= self.inner.size as u64 => Ok(()),
            _ => Err(MemError::OutOfBounds {
                offset,
                len,
                size: self.inner.size,
            }),
        }
    }

    /// Read `buf.len()` bytes starting at byte `offset`. Every word is read
    /// with its own acquire load, so bulk data written before a
    /// release-published control word is fully visible once the control
    /// word is observed.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<(), MemError> {
        self.check(offset, buf.len())?;
        let off = offset as usize;
        // Unaligned head, whole words, unaligned tail. The body walks one
        // bounds-checked slice of words in step with `chunks_exact_mut`, so
        // the loop carries no index arithmetic and no per-word check.
        let (head, rest) = buf.split_at_mut((off.wrapping_neg() % 8).min(buf.len()));
        let first = (off + head.len()) / 8;
        let (body, tail) = rest.split_at_mut(rest.len() / 8 * 8);
        let words = &self.inner.words[first..first + body.len() / 8];
        if !head.is_empty() {
            let bytes = self.inner.words[off / 8]
                .load(Ordering::Acquire)
                .to_le_bytes();
            head.copy_from_slice(&bytes[off % 8..off % 8 + head.len()]);
        }
        for (chunk, word) in body.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.load(Ordering::Acquire).to_le_bytes());
        }
        if !tail.is_empty() {
            let bytes = self.inner.words[first + words.len()]
                .load(Ordering::Acquire)
                .to_le_bytes();
            tail.copy_from_slice(&bytes[..tail.len()]);
        }
        Ok(())
    }

    /// Convenience: read into a fresh vec.
    pub fn read_vec(&self, offset: u64, len: usize) -> Result<Vec<u8>, MemError> {
        let mut v = vec![0u8; len];
        self.read(offset, &mut v)?;
        Ok(v)
    }

    /// Like [`Region::read_vec`], but reuses a caller-owned scratch vector
    /// (resized in place): hot readers pay zero allocations once the
    /// scratch has grown to the working length.
    pub fn read_into(&self, offset: u64, len: usize, out: &mut Vec<u8>) -> Result<(), MemError> {
        // No `clear` first: every byte is overwritten below, so only growth
        // needs filling.
        out.resize(len, 0);
        self.read(offset, out)
    }

    /// Write `data` starting at byte `offset`. Whole words use one release
    /// store each (a later release-published control word therefore
    /// publishes the data too); partial words use a CAS loop so concurrent
    /// writers to *different* bytes of the same word never lose updates.
    pub fn write(&self, offset: u64, data: &[u8]) -> Result<(), MemError> {
        self.check(offset, data.len())?;
        let off = offset as usize;
        let (head, rest) = data.split_at((off.wrapping_neg() % 8).min(data.len()));
        let first = (off + head.len()) / 8;
        let (body, tail) = rest.split_at(rest.len() / 8 * 8);
        let words = &self.inner.words[first..first + body.len() / 8];
        if !head.is_empty() {
            merge_bytes(&self.inner.words[off / 8], off % 8, head);
        }
        for (chunk, word) in body.chunks_exact(8).zip(words) {
            let bytes: [u8; 8] = chunk.try_into().expect("chunks_exact(8) yields 8 bytes");
            word.store(u64::from_le_bytes(bytes), Ordering::Release);
        }
        if !tail.is_empty() {
            merge_bytes(&self.inner.words[first + words.len()], 0, tail);
        }
        Ok(())
    }

    /// Atomically load the aligned u64 at byte `offset`.
    pub fn load_u64(&self, offset: u64, order: Ordering) -> u64 {
        debug_assert_eq!(offset % 8, 0, "unaligned control-word load");
        self.inner.words[(offset / 8) as usize].load(order)
    }

    /// Atomically store the aligned u64 at byte `offset`.
    pub fn store_u64(&self, offset: u64, val: u64, order: Ordering) {
        debug_assert_eq!(offset % 8, 0, "unaligned control-word store");
        self.inner.words[(offset / 8) as usize].store(val, order);
    }

    /// Atomic fetch-add on the aligned u64 at byte `offset`.
    pub fn fetch_add_u64(&self, offset: u64, val: u64, order: Ordering) -> u64 {
        debug_assert_eq!(offset % 8, 0, "unaligned control-word rmw");
        self.inner.words[(offset / 8) as usize].fetch_add(val, order)
    }

    /// Atomic compare-exchange on the aligned u64 at byte `offset`.
    pub fn compare_exchange_u64(&self, offset: u64, current: u64, new: u64) -> Result<u64, u64> {
        debug_assert_eq!(offset % 8, 0);
        self.inner.words[(offset / 8) as usize].compare_exchange(
            current,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        )
    }

    /// Do two regions share storage?
    pub fn same_region(&self, other: &Region) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// Replace bytes `at..at + bytes.len()` of `word` (little-endian byte order,
/// fewer than eight of them) and leave the others as concurrent writers set
/// them.
fn merge_bytes(word: &AtomicU64, at: usize, bytes: &[u8]) {
    let mut mask = [0u8; 8];
    let mut val = [0u8; 8];
    mask[at..at + bytes.len()].fill(0xFF);
    val[at..at + bytes.len()].copy_from_slice(bytes);
    let (mask, val) = (u64::from_le_bytes(mask), u64::from_le_bytes(val));
    word.fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
        Some((w & !mask) | val)
    })
    .expect("fetch_update closure never returns None");
}

impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Region({} bytes)", self.inner.size)
    }
}

/// The NIC-side translation table: rkey -> region.
///
/// Rkeys are handed out sequentially from 1, so the table is a dense vector
/// indexed by rkey. Slot 0 stays empty (an uninitialized rkey never
/// matches) and a deregistered rkey leaves a hole that is never reused.
pub struct RegionCatalog {
    regions: Vec<Option<Region>>,
}

impl Default for RegionCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl RegionCatalog {
    pub fn new() -> RegionCatalog {
        RegionCatalog {
            regions: vec![None],
        }
    }

    /// Register a region, returning its rkey.
    pub fn register(&mut self, region: Region) -> Rkey {
        self.regions.push(Some(region));
        (self.regions.len() - 1) as Rkey
    }

    /// Deregister; returns the region if it was present.
    pub fn deregister(&mut self, rkey: Rkey) -> Option<Region> {
        self.regions.get_mut(rkey as usize)?.take()
    }

    pub fn get(&self, rkey: Rkey) -> Result<&Region, MemError> {
        match self.regions.get(rkey as usize) {
            Some(Some(region)) => Ok(region),
            _ => Err(MemError::BadRkey(rkey)),
        }
    }

    /// Execute a remote write into region `rkey` at `vaddr`.
    pub fn remote_write(&self, rkey: Rkey, vaddr: u64, data: &[u8]) -> Result<(), MemError> {
        self.get(rkey)?.write(vaddr, data)
    }

    /// Execute a remote compare-and-swap on the aligned u64 at `vaddr` of
    /// region `rkey`. Returns the word's original value; the swap happened
    /// iff it equals `compare`.
    pub fn remote_compare_exchange(
        &self,
        rkey: Rkey,
        vaddr: u64,
        compare: u64,
        swap: u64,
    ) -> Result<u64, MemError> {
        let region = self.get(rkey)?;
        if !vaddr.is_multiple_of(8) || vaddr + 8 > region.len() as u64 {
            return Err(MemError::OutOfBounds {
                offset: vaddr,
                len: 8,
                size: region.len(),
            });
        }
        Ok(match region.compare_exchange_u64(vaddr, compare, swap) {
            Ok(orig) | Err(orig) => orig,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn read_write_roundtrip_unaligned() {
        let r = Region::new(64);
        let data: Vec<u8> = (0..23).collect();
        r.write(3, &data).unwrap();
        assert_eq!(r.read_vec(3, 23).unwrap(), data);
        // Neighbouring bytes untouched.
        assert_eq!(r.read_vec(0, 3).unwrap(), vec![0, 0, 0]);
        assert_eq!(r.read_vec(26, 4).unwrap(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn bounds_are_enforced() {
        let r = Region::new(16);
        assert!(r.write(10, &[0u8; 7]).is_err());
        assert!(r.read_vec(16, 1).is_err());
        assert!(r.write(u64::MAX, &[1]).is_err());
        assert!(r.write(16, &[]).is_ok()); // zero-length at end is fine
    }

    #[test]
    fn control_word_ordering_ops() {
        let r = Region::new(32);
        r.store_u64(8, 42, Ordering::Release);
        assert_eq!(r.load_u64(8, Ordering::Acquire), 42);
        assert_eq!(r.fetch_add_u64(8, 8, Ordering::AcqRel), 42);
        assert_eq!(r.load_u64(8, Ordering::Acquire), 50);
        assert_eq!(r.compare_exchange_u64(8, 50, 60), Ok(50));
        assert_eq!(r.compare_exchange_u64(8, 50, 70), Err(60));
    }

    #[test]
    fn concurrent_adjacent_byte_writers_do_not_clobber() {
        // Two threads write interleaved bytes of the same words; the CAS
        // path must preserve both.
        let r = Region::new(1024);
        let r1 = r.clone();
        let r2 = r.clone();
        let t1 = thread::spawn(move || {
            for i in (0..1024u64).step_by(2) {
                r1.write(i, &[0xAA]).unwrap();
            }
        });
        let t2 = thread::spawn(move || {
            for i in (1..1024u64).step_by(2) {
                r2.write(i, &[0xBB]).unwrap();
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
        let all = r.read_vec(0, 1024).unwrap();
        for (i, b) in all.iter().enumerate() {
            let want = if i % 2 == 0 { 0xAA } else { 0xBB };
            assert_eq!(*b, want, "byte {i}");
        }
    }

    #[test]
    fn catalog_registers_and_resolves() {
        let mut cat = RegionCatalog::new();
        let r = Region::new(128);
        let k = cat.register(r.clone());
        cat.remote_write(k, 5, b"hello").unwrap();
        assert_eq!(cat.get(k).unwrap().read_vec(5, 5).unwrap(), b"hello");
        assert_eq!(r.read_vec(5, 5).unwrap(), b"hello");
        assert!(matches!(cat.get(999), Err(MemError::BadRkey(999))));
        cat.deregister(k);
        assert!(cat.get(k).is_err());
    }

    #[test]
    fn rkeys_are_unique_and_nonzero() {
        let mut cat = RegionCatalog::new();
        let a = cat.register(Region::new(8));
        let b = cat.register(Region::new(8));
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
