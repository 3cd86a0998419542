//! On-log record layout.
//!
//! ```text
//! offset 0   prev     u64   log address of the previous version / chain hop
//! offset 8   key      u64   the paper's 8-byte keys
//! offset 16  val_len  u32
//! offset 20  flags    u32   bit 0: tombstone (deletion marker)
//! offset 24  value    [u8; val_len], padded to 8 bytes
//! ```
//!
//! Records are immutable once written; updates append a new record whose
//! `prev` points at the old one (FASTER's hybrid-log discipline: the
//! in-memory tail is writable only until an address becomes read-only).
//! Only the header is ever decoded: a value is read (or handed on) where it
//! lies, after the header.

use std::ops::Range;

/// Record header size.
pub const HEADER_BYTES: u64 = 24;

/// The null log address (chain terminator). Valid log addresses start
/// above [`crate::hlog::LOG_BASE`].
pub const NULL_ADDR: u64 = 0;

/// Flags bit 0: this record is a deletion marker.
pub const FLAG_TOMBSTONE: u32 = 1;

/// Total on-log footprint of a record with a `val_len`-byte value (8-byte
/// aligned).
pub fn footprint(val_len: usize) -> u64 {
    (HEADER_BYTES + val_len as u64 + 7) & !7
}

/// A record's fixed-size header; the value follows it on the log.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecordHeader {
    pub prev: u64,
    pub key: u64,
    pub val_len: u32,
    /// Deletion marker: the key is gone as of this version.
    pub tombstone: bool,
}

impl RecordHeader {
    /// The header's on-log bytes.
    pub fn encode(&self) -> [u8; HEADER_BYTES as usize] {
        let mut out = [0u8; HEADER_BYTES as usize];
        out[0..8].copy_from_slice(&self.prev.to_le_bytes());
        out[8..16].copy_from_slice(&self.key.to_le_bytes());
        out[16..20].copy_from_slice(&self.val_len.to_le_bytes());
        let flags = if self.tombstone { FLAG_TOMBSTONE } else { 0 };
        out[20..24].copy_from_slice(&flags.to_le_bytes());
        out
    }

    /// Decode the header at the front of `bytes`; `None` if it is short.
    pub fn decode(bytes: &[u8]) -> Option<RecordHeader> {
        let h = bytes.get(..HEADER_BYTES as usize)?;
        let word = |at: usize| u64::from_le_bytes(h[at..at + 8].try_into().expect("8 bytes"));
        let half = |at: usize| u32::from_le_bytes(h[at..at + 4].try_into().expect("4 bytes"));
        Some(RecordHeader {
            prev: word(0),
            key: word(8),
            val_len: half(16),
            tombstone: half(20) & FLAG_TOMBSTONE != 0,
        })
    }

    /// Decode the record at the front of `block`: its header, and where its
    /// value lies in `block`. `None` if the block is too short for either.
    pub fn decode_block(block: &[u8]) -> Option<(RecordHeader, Range<usize>)> {
        let header = RecordHeader::decode(block)?;
        let value = HEADER_BYTES as usize..HEADER_BYTES as usize + header.val_len as usize;
        (value.end <= block.len()).then_some((header, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips() {
        for tombstone in [false, true] {
            let h = RecordHeader {
                prev: 0xABCD,
                key: 42,
                val_len: 11,
                tombstone,
            };
            assert_eq!(RecordHeader::decode(&h.encode()), Some(h));
        }
    }

    #[test]
    fn footprint_alignment() {
        assert_eq!(footprint(0), 24);
        assert_eq!(footprint(1), 32);
        assert_eq!(footprint(8), 32);
        assert_eq!(footprint(9), 40);
        assert_eq!(footprint(64), 88);
    }

    #[test]
    fn truncated_blocks_rejected() {
        let h = RecordHeader {
            prev: 1,
            key: 2,
            val_len: 100,
            tombstone: false,
        };
        let mut block = h.encode().to_vec();
        block.resize(footprint(100) as usize, 7);
        assert!(RecordHeader::decode(&block[..23]).is_none());
        assert!(RecordHeader::decode_block(&block[..23]).is_none());
        assert!(
            RecordHeader::decode_block(&block[..60]).is_none(),
            "short value"
        );
        assert_eq!(RecordHeader::decode_block(&block), Some((h, 24..124)));
    }
}
