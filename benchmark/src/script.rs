//! Op scripts for the `sim_*` workloads: generated from the seed *before*
//! the timed region, with the response every op must produce baked in.
//!
//! Cowbird promises issue-order consistency per channel (a read observes
//! exactly the writes that precede it in ring order), so a sequential replay
//! of the script is the oracle: the generator runs that replay while it
//! emits ops and stores each op's expected version / pointer in the op.

use rdma::mem::Region;
use simnet::rng::Rng;
use std::sync::atomic::Ordering;

/// Pool size shared by every `sim_*` workload.
pub const POOL_SPAN: u64 = 64 << 20;
/// The pool is stamped in records of this size: word 0 of record `g` holds
/// `stamp(version, g)`, the other seven words stay zero.
pub const RECORD: u64 = 64;
/// `sim_mixed4k` op size, and the granularity of its version oracle.
pub const BLOCK: u64 = 4096;
/// `sim_mixed4k` hot range: one op in eight lands here, so reads regularly
/// queue behind staged writes to the same block.
const HOT_BLOCKS: u64 = (64 << 10) / BLOCK;
/// Pointer-word slots of the chase schedule, in the pool's top page. More
/// slots than a quarter of the widest window, so a slot is never rewritten
/// while a chase of its previous pointer is still in flight.
pub const CHASE_SLOTS: u64 = 16;
/// Bytes reserved at the top of the pool for the chase slot words.
const SLOT_PAGE: u64 = 4096;

/// Word 0 of record `g` after `version` writes-in-script-order (0 = the
/// pristine pool). Never 0 for `g > 0`, which the chase schedule relies on.
#[inline]
pub fn stamp(version: u32, g: u64) -> u64 {
    (version as u64) << 32 | g
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScriptKind {
    /// Uniform 64 B reads.
    Read64,
    /// 4 KiB ops, half writes, one in eight aimed at a 64 KiB hot range.
    Mixed4k,
    /// write-slot → `ReadIndirect` → read → read, 64 B records.
    Chase,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// Plain read of `len` bytes at `addr`; `aux` is the version it must see.
    Read,
    /// Write of `len` bytes at `addr` carrying version `aux`.
    Write,
    /// 8-byte write of pointer `aux` into the slot word at `addr`.
    SlotWrite,
    /// `ReadIndirect` through the slot word at `addr`; must land on `aux`.
    Chase,
}

#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub kind: OpKind,
    pub len: u32,
    pub addr: u64,
    pub aux: u64,
}

/// A generated script plus the final pool state its sequential replay
/// leaves behind.
pub struct Script {
    pub kind: ScriptKind,
    pub ops: Vec<Op>,
    /// Useful payload bytes the ops move (goodput numerator).
    pub payload_bytes: u64,
    /// `sim_mixed4k`: version of each 4 KiB block after the last op.
    block_version: Vec<u32>,
    /// Chase schedule: final pointer held by each slot word.
    slot_ptr: [u64; CHASE_SLOTS as usize],
}

impl Script {
    /// Pure function of `(kind, seed, n)`.
    pub fn generate(kind: ScriptKind, seed: u64, n: usize) -> Script {
        let mut rng = Rng::new(seed ^ 0x5C21_97A1_0B5E_ED01);
        let mut ops = Vec::with_capacity(n);
        let mut block_version = Vec::new();
        let mut slot_ptr = [0u64; CHASE_SLOTS as usize];
        match kind {
            ScriptKind::Read64 => {
                let records = POOL_SPAN / RECORD;
                for _ in 0..n {
                    ops.push(Op {
                        kind: OpKind::Read,
                        len: RECORD as u32,
                        addr: rng.next_below(records) * RECORD,
                        aux: 0,
                    });
                }
            }
            ScriptKind::Mixed4k => {
                let blocks = POOL_SPAN / BLOCK;
                block_version = vec![0u32; blocks as usize];
                for i in 0..n {
                    let block = if rng.next_below(8) == 0 {
                        rng.next_below(HOT_BLOCKS)
                    } else {
                        HOT_BLOCKS + rng.next_below(blocks - HOT_BLOCKS)
                    };
                    let write = rng.next_u64() & 1 == 1;
                    let version = if write {
                        block_version[block as usize] = i as u32 + 1;
                        i as u32 + 1
                    } else {
                        block_version[block as usize]
                    };
                    ops.push(Op {
                        kind: if write { OpKind::Write } else { OpKind::Read },
                        len: BLOCK as u32,
                        addr: block * BLOCK,
                        aux: version as u64,
                    });
                }
            }
            ScriptKind::Chase => {
                // Plain reads and chase targets stay below the slot page, so
                // slot writes never touch a verified record. Record 0 is not
                // a target: its stamp is 0, a null pointer to the engine.
                let records = (POOL_SPAN - SLOT_PAGE) / RECORD;
                for i in 0..n {
                    let slot = (i as u64 / 4) % CHASE_SLOTS;
                    let slot_addr = POOL_SPAN - SLOT_PAGE + slot * 8;
                    let op = match i % 4 {
                        0 => {
                            let ptr = (1 + rng.next_below(records - 1)) * RECORD;
                            slot_ptr[slot as usize] = ptr;
                            Op {
                                kind: OpKind::SlotWrite,
                                len: 8,
                                addr: slot_addr,
                                aux: ptr,
                            }
                        }
                        1 => Op {
                            kind: OpKind::Chase,
                            len: RECORD as u32,
                            addr: slot_addr,
                            aux: slot_ptr[slot as usize],
                        },
                        _ => Op {
                            kind: OpKind::Read,
                            len: RECORD as u32,
                            addr: rng.next_below(records) * RECORD,
                            aux: 0,
                        },
                    };
                    ops.push(op);
                }
            }
        }
        let payload_bytes = ops.iter().map(|o| o.len as u64).sum();
        Script {
            kind,
            ops,
            payload_bytes,
            block_version,
            slot_ptr,
        }
    }

    /// FNV-1a over every field of every op: equal for equal `(kind, seed,
    /// n)`, different otherwise.
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for op in &self.ops {
            eat(op.kind as u64);
            eat(op.len as u64);
            eat(op.addr);
            eat(op.aux);
        }
        h
    }

    /// Fill `out` with the payload of write `op`.
    pub fn write_payload(op: &Op, out: &mut Vec<u8>) {
        out.clear();
        match op.kind {
            OpKind::Write => {
                out.resize(op.len as usize, 0);
                let g0 = op.addr / RECORD;
                for (j, rec) in out.chunks_exact_mut(RECORD as usize).enumerate() {
                    rec[..8].copy_from_slice(&stamp(op.aux as u32, g0 + j as u64).to_le_bytes());
                }
            }
            OpKind::SlotWrite => out.extend_from_slice(&op.aux.to_le_bytes()),
            OpKind::Read | OpKind::Chase => unreachable!("reads carry no payload"),
        }
    }

    /// Does `data` hold records `[addr, addr + data.len())` at `version`?
    pub fn payload_ok(addr: u64, version: u32, data: &[u8]) -> bool {
        let g0 = addr / RECORD;
        (data.len() as u64).is_multiple_of(RECORD)
            && data
                .chunks_exact(RECORD as usize)
                .enumerate()
                .all(|(j, rec)| {
                    rec[..8] == stamp(version, g0 + j as u64).to_le_bytes()
                        && rec[8..].iter().all(|&b| b == 0)
                })
    }

    /// The pool before any op ran: every record stamped at version 0.
    pub fn pristine_pool() -> Region {
        let pool = Region::new(POOL_SPAN as usize);
        for g in 0..POOL_SPAN / RECORD {
            pool.store_u64(g * RECORD, stamp(0, g), Ordering::Relaxed);
        }
        pool
    }

    /// Compare the pool against the sequential replay's final state;
    /// returns the number of records (or slot words) that differ.
    pub fn pool_mismatches(&self, pool: &Region) -> u64 {
        let mut bad = 0u64;
        let mut chunk = vec![0u8; BLOCK as usize];
        let data_end = match self.kind {
            ScriptKind::Chase => POOL_SPAN - SLOT_PAGE,
            _ => POOL_SPAN,
        };
        for block in 0..data_end / BLOCK {
            pool.read(block * BLOCK, &mut chunk).expect("in-pool read");
            let version = self.block_version.get(block as usize).copied().unwrap_or(0);
            if !Script::payload_ok(block * BLOCK, version, &chunk) {
                bad += 1;
            }
        }
        if self.kind == ScriptKind::Chase {
            // Slot words hold the last pointer written; the rest of the
            // slot page was never stamped past word 0 of each record, and
            // the slot words overwrite exactly those.
            for (slot, &ptr) in self.slot_ptr.iter().enumerate() {
                let addr = POOL_SPAN - SLOT_PAGE + slot as u64 * 8;
                let expect = if ptr != 0 {
                    ptr
                } else {
                    // Slot never written: still the pristine image.
                    if addr.is_multiple_of(RECORD) {
                        stamp(0, addr / RECORD)
                    } else {
                        0
                    }
                };
                if pool.load_u64(addr, Ordering::Relaxed) != expect {
                    bad += 1;
                }
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_a_pure_function_of_kind_and_seed() {
        for kind in [ScriptKind::Read64, ScriptKind::Mixed4k, ScriptKind::Chase] {
            let a = Script::generate(kind, 7, 4000).hash();
            assert_eq!(a, Script::generate(kind, 7, 4000).hash(), "{kind:?}");
            assert_ne!(a, Script::generate(kind, 8, 4000).hash(), "{kind:?}");
        }
        assert_ne!(
            Script::generate(ScriptKind::Read64, 7, 4000).hash(),
            Script::generate(ScriptKind::Chase, 7, 4000).hash()
        );
    }

    #[test]
    fn mixed_reads_expect_the_latest_preceding_write() {
        let s = Script::generate(ScriptKind::Mixed4k, 3, 20_000);
        let mut version = vec![0u32; (POOL_SPAN / BLOCK) as usize];
        let (mut writes, mut hot) = (0, 0);
        for (i, op) in s.ops.iter().enumerate() {
            let b = (op.addr / BLOCK) as usize;
            hot += (op.addr < HOT_BLOCKS * BLOCK) as usize;
            match op.kind {
                OpKind::Write => {
                    writes += 1;
                    assert_eq!(op.aux, i as u64 + 1);
                    version[b] = i as u32 + 1;
                }
                OpKind::Read => assert_eq!(op.aux, version[b] as u64),
                _ => panic!("mixed script has only reads and writes"),
            }
        }
        assert!((9_000..11_000).contains(&writes), "{writes} writes");
        assert!((2_000..3_000).contains(&hot), "{hot} hot ops");
        assert_eq!(s.block_version, version);
    }

    #[test]
    fn chase_expects_the_pointer_written_just_before_it() {
        let s = Script::generate(ScriptKind::Chase, 5, 4000);
        for quad in s.ops.chunks_exact(4) {
            assert_eq!(quad[0].kind, OpKind::SlotWrite);
            assert_eq!(quad[1].kind, OpKind::Chase);
            assert_eq!(quad[0].addr, quad[1].addr);
            assert_eq!(quad[0].aux, quad[1].aux);
            assert!(quad[0].aux >= RECORD && quad[0].aux < POOL_SPAN - SLOT_PAGE);
            assert_eq!(quad[2].kind, OpKind::Read);
            assert_eq!(quad[3].kind, OpKind::Read);
        }
    }

    #[test]
    fn payload_round_trips_and_rejects_a_flipped_byte() {
        let op = Op {
            kind: OpKind::Write,
            len: BLOCK as u32,
            addr: 5 * BLOCK,
            aux: 42,
        };
        let mut buf = Vec::new();
        Script::write_payload(&op, &mut buf);
        assert!(Script::payload_ok(op.addr, 42, &buf));
        assert!(!Script::payload_ok(op.addr, 41, &buf));
        buf[100] ^= 1;
        assert!(!Script::payload_ok(op.addr, 42, &buf));
    }
}
