//! The emulated fabric's allocation budget, measured with a counting
//! allocator (the discipline of `zero_alloc.rs`).
//!
//! A warmed-up 4 KiB owned READ plus a 4 KiB WRITE between two emulated
//! NICs — posted by the host, carried as owned frames over the fabric's
//! one wire to its service thread, received through the simulator NIC's own
//! receive path, acknowledged and polled into a reused vector — allocates
//! at most a quarter of an allocation per op, counted on every thread.
//! Frames are built in arena buffers and recycle when dropped; the one
//! remaining source is `std::sync::mpsc`, which allocates a block per 31
//! messages queued.
//!
//! The allocation counter is a process-global `#[global_allocator]`, so this
//! file holds exactly one test: the quiet window is only meaningful while no
//! sibling test thread is allocating.

use rdma::emu::EmuFabric;
use rdma::mem::Region;
use rdma::verbs::{WorkRequest, WrOp};
use telemetry::profile::{allocs_now, TallyAlloc};

#[global_allocator]
static COUNTER: TallyAlloc = TallyAlloc;

const LEN: u32 = 4096;
const WARMUP: u64 = 200;
const ROUNDS: u64 = 2000;
/// Allocations per op allowed on every thread together.
const BUDGET_PER_OP: f64 = 0.25;

#[test]
fn warmed_up_emu_round_trips_allocate_at_most_a_quarter_per_op() {
    let mut fabric = EmuFabric::new();
    let client = fabric.add_nic();
    let server = fabric.add_nic();
    let (qpn, _) = fabric.connect(&client, &server);
    let (local, remote) = (Region::new(1 << 16), Region::new(1 << 16));
    let pattern: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    remote.write(8192, &pattern).unwrap();
    local.write(0, &pattern).unwrap();
    let lkey = client.register(local);
    let rkey = server.register(remote.clone());
    let mut done = Vec::new();

    let mut round = |wr_id: u64| {
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
        for op in [owned, write] {
            client.post(qpn, WorkRequest { wr_id, op }).expect("posted");
        }
        while done.len() < 2 {
            if client.poll_into(2 - done.len(), &mut done) == 0 {
                std::thread::yield_now();
            }
        }
        assert!(done.iter().all(|c| c.wr_id == wr_id && c.is_ok()));
        assert_eq!(done[0].data, pattern[..], "the owned read landed");
        done.clear();
    };

    for wr_id in 0..WARMUP {
        round(wr_id);
    }
    let before = allocs_now();
    for wr_id in WARMUP..WARMUP + ROUNDS {
        round(wr_id);
    }
    let allocs = allocs_now() - before;
    let per_op = allocs as f64 / (2 * ROUNDS) as f64;
    assert!(
        per_op <= BUDGET_PER_OP,
        "{allocs} allocations over {ROUNDS} warmed-up owned READ+WRITE rounds: \
         {per_op:.3} per op (budget {BUDGET_PER_OP})"
    );
    assert_eq!(remote.read_vec(16384, LEN as usize).unwrap(), pattern);
}
