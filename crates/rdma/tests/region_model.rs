//! `Region` against a `Vec<u8>` model, and the ordering contract its bulk
//! path keeps.
//!
//! The bulk `read`/`write` split every access into an unaligned head, a run
//! of whole words and an unaligned tail. The model test drives random
//! interleavings of the three access functions over every such shape and
//! checks each byte, including the ones next to the access; the two-thread
//! test checks that the whole-word run still publishes under a control word.

use std::sync::atomic::Ordering;
use std::sync::Barrier;

use proptest::prelude::*;

use rdma::mem::{MemError, Region};

const SIZE: usize = 203; // not a multiple of 8: the last word is partial

#[derive(Clone, Debug)]
enum Access {
    Write { offset: u64, data: Vec<u8> },
    Read { offset: u64, len: usize },
    ReadInto { offset: u64, len: usize },
}

/// Offsets over the whole region and a little past it; lengths from zero
/// through sub-word to several words, so heads, tails, both, neither and
/// out-of-bounds ranges all come up.
fn arb_access() -> impl Strategy<Value = Access> {
    let offset = || 0u64..SIZE as u64 + 12;
    let len = || prop_oneof![0usize..9, 0usize..80];
    prop_oneof![
        (offset(), len(), any::<u8>()).prop_map(|(offset, len, seed)| Access::Write {
            offset,
            data: (0..len).map(|i| seed.wrapping_add(i as u8) | 1).collect(),
        }),
        (offset(), len()).prop_map(|(offset, len)| Access::Read { offset, len }),
        (offset(), len()).prop_map(|(offset, len)| Access::ReadInto { offset, len }),
    ]
}

fn out_of_bounds(offset: u64, len: usize) -> bool {
    offset as usize + len > SIZE
}

proptest! {
    #[test]
    fn region_matches_a_byte_vector(script in proptest::collection::vec(arb_access(), 1..60)) {
        let region = Region::new(SIZE);
        let mut model = vec![0u8; SIZE];
        // Scratch with stale contents longer than most reads: `read_into`
        // must leave exactly the requested bytes.
        let mut scratch = vec![0xEEu8; 64];
        for access in script {
            match access {
                Access::Write { offset, data } => {
                    let res = region.write(offset, &data);
                    if out_of_bounds(offset, data.len()) {
                        prop_assert_eq!(
                            res,
                            Err(MemError::OutOfBounds { offset, len: data.len(), size: SIZE })
                        );
                    } else {
                        prop_assert_eq!(res, Ok(()));
                        model[offset as usize..offset as usize + data.len()].copy_from_slice(&data);
                    }
                }
                Access::Read { offset, len } => {
                    let mut buf = vec![0xEEu8; len];
                    let res = region.read(offset, &mut buf);
                    if out_of_bounds(offset, len) {
                        prop_assert!(res.is_err());
                        prop_assert!(buf.iter().all(|&b| b == 0xEE), "a rejected read wrote nothing");
                    } else {
                        prop_assert_eq!(&buf[..], &model[offset as usize..offset as usize + len]);
                    }
                }
                Access::ReadInto { offset, len } => {
                    let res = region.read_into(offset, len, &mut scratch);
                    if out_of_bounds(offset, len) {
                        prop_assert!(res.is_err());
                    } else {
                        prop_assert_eq!(&scratch[..], &model[offset as usize..offset as usize + len]);
                    }
                }
            }
            // Every byte, after every access: neighbours of a write are
            // untouched and a rejected access changed nothing.
            prop_assert_eq!(region.read_vec(0, SIZE).unwrap(), model.clone());
        }
    }
}

/// The contract the client/engine ring protocol rests on: bulk data written
/// with `write`, then a control word stored with Release, is fully visible to
/// a reader that loads the control word with Acquire and then bulk-`read`s.
/// The barrier releases both threads into every round together, so the
/// reader polls while the writer is still filling the range.
#[test]
fn bulk_write_is_published_by_a_release_store_of_a_control_word() {
    const ROUNDS: u64 = 2_000;
    const DATA: u64 = 8; // the control word sits at 0, the range after it
    let len = 1024 + 5; // whole words plus an unaligned tail
    let region = Region::new(DATA as usize + 3 + len);
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 1..=ROUNDS {
                barrier.wait();
                // Unaligned start: head bytes go through the CAS path.
                region.write(DATA + 3, &vec![round as u8; len]).unwrap();
                region.store_u64(0, round, Ordering::Release);
            }
        });
        let mut buf = vec![0u8; len];
        for round in 1..=ROUNDS {
            barrier.wait();
            while region.load_u64(0, Ordering::Acquire) != round {
                std::hint::spin_loop();
            }
            region.read(DATA + 3, &mut buf).unwrap();
            assert!(
                buf.iter().all(|&b| b == round as u8),
                "round {round}: control word visible before the data it publishes"
            );
        }
    });
}
