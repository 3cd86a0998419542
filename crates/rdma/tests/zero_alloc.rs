//! The payload path's zero-alloc claim, measured with a counting allocator
//! (the discipline of `simnet/tests/zero_alloc.rs`).
//!
//! A warmed-up 4 KiB READ, 4 KiB owned READ and 4 KiB WRITE between two
//! queue pairs — posted, segmented at the MTU, every packet turned into its
//! wire frame and parsed back on the other side, executed against the
//! regions (or, for the owned read, landed in the frame buffers that carried
//! it), acknowledged and completed — performs **zero heap allocations**:
//! segments are read from the region into recycled buffers, frames are
//! built and parsed in those same buffers, the owned read's landed buffer
//! recycles when its completion drops, and every scratch vector is reused.
//!
//! The allocation counter is a process-global `#[global_allocator]`, so this
//! file holds exactly one test: the quiet window is only meaningful while no
//! sibling test thread is allocating.

use rdma::mem::{Region, RegionCatalog};
use rdma::qp::{Qp, QpConfig, QpOutput};
use rdma::verbs::{Completion, WorkRequest, WrOp};
use rdma::wire::RocePacket;
use simnet::pool::BufArena;
use simnet::time::Instant;
use telemetry::profile::{allocs_now, TallyAlloc};

#[global_allocator]
static COUNTER: TallyAlloc = TallyAlloc;

const LEN: u32 = 4096;

/// One side of the connection: a queue pair, its memory table, the arena its
/// NIC builds header-only frames from, and its output scratch.
struct Side {
    qp: Qp,
    cat: RegionCatalog,
    nic_arena: BufArena,
    out: QpOutput,
}

impl Side {
    fn new(qpn: u32, peer: u32, region: Region) -> (Side, u32) {
        let mut cat = RegionCatalog::new();
        let rkey = cat.register(region);
        let side = Side {
            qp: Qp::new(QpConfig::new(qpn, peer)),
            cat,
            nic_arena: BufArena::new(16),
            out: QpOutput::default(),
        };
        (side, rkey)
    }
}

/// Carry `pkts` from `from` to `to` over the wire codec, then the replies
/// back, until nothing is left in flight; completions land in `done`.
fn exchange<'a>(
    pkts: &mut Vec<RocePacket>,
    mut from: &'a mut Side,
    mut to: &'a mut Side,
    done: &mut Vec<Completion>,
) {
    while !pkts.is_empty() {
        to.out.clear();
        for pkt in pkts.drain(..) {
            let frame = pkt.into_frame(&from.nic_arena);
            let mut pkt = RocePacket::parse_frame(frame).expect("own encoding");
            to.qp
                .receive_into(&mut pkt, &to.cat, Instant::ZERO, &mut to.out);
        }
        done.append(&mut to.out.completions);
        pkts.append(&mut to.out.emit);
        (from, to) = (to, from);
    }
}

#[test]
fn warmed_up_4k_reads_and_write_allocate_nothing() {
    let (local, remote) = (Region::new(1 << 16), Region::new(1 << 16));
    let pattern: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    remote.write(8192, &pattern).unwrap();
    let (mut a, lkey) = Side::new(1, 2, local.clone());
    let (mut b, rkey) = Side::new(2, 1, remote.clone());
    let mut pkts = Vec::new();
    let mut done = Vec::new();

    let mut round = |wr_id: u64| {
        let read = WrOp::Read {
            local_rkey: lkey,
            local_addr: 0,
            remote_addr: 8192,
            remote_rkey: rkey,
            len: LEN,
        };
        let owned = WrOp::ReadOwned {
            remote_addr: 8192,
            remote_rkey: rkey,
            len: LEN,
        };
        let write = WrOp::Write {
            local_rkey: lkey,
            local_addr: 0,
            remote_addr: 16384,
            remote_rkey: rkey,
            len: LEN,
        };
        for op in [read, owned, write] {
            let wr = WorkRequest { wr_id, op };
            a.qp.post_into(wr, &a.cat, Instant::ZERO, &mut pkts)
                .expect("send queue has room");
            exchange(&mut pkts, &mut a, &mut b, &mut done);
        }
        assert_eq!(done.len(), 3, "both reads and the write completed");
        assert!(done.iter().all(|c| c.wr_id == wr_id && c.is_ok()));
        assert_eq!(done[1].data, pattern[..], "the owned read landed");
        done.clear();
    };

    for wr_id in 0..64 {
        round(wr_id);
    }
    let before = allocs_now();
    for wr_id in 64..1064 {
        round(wr_id);
    }
    let allocs = allocs_now() - before;
    assert_eq!(
        allocs, 0,
        "allocations over 1000 warmed-up READ+owned READ+WRITE rounds"
    );

    // The bytes really moved: remote -> local by the read, local -> remote
    // by the write.
    assert_eq!(local.read_vec(0, LEN as usize).unwrap(), pattern);
    assert_eq!(remote.read_vec(16384, LEN as usize).unwrap(), pattern);
}
