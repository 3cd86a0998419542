//! The one-sided RDMA device lands every pending read intact, however many
//! are pending: 300 × 32 KiB asynchronous reads — more than the 8 MiB a
//! wrap-around staging ring would hold before overwriting the oldest — all
//! land before a single `poll`, and every word of every response is still
//! the pool word it was read from.

use std::time::{Duration, Instant};

use kvstore::devices::{RdmaDevice, RdmaMode};
use kvstore::{Device, Token};
use rdma::emu::EmuFabric;
use rdma::mem::Region;

const N: u64 = 300;
const LEN: u64 = 32 << 10;

#[test]
fn rdma_device_reads_pending_past_eight_mib_land_intact() {
    let mut fabric = EmuFabric::new();
    let client = fabric.add_nic();
    let server = fabric.add_nic();
    let (qpn, _) = fabric.connect(&client, &server);
    // Every pool word holds its own address.
    let pool = Region::new((N * LEN) as usize);
    let stamps: Vec<u8> = (0..N * LEN).step_by(8).flat_map(u64::to_le_bytes).collect();
    pool.write(0, &stamps).unwrap();
    let rkey = server.register(pool);
    let mut dev = RdmaDevice::new(client.clone(), qpn, rkey, 0, RdmaMode::Async);
    let tokens: Vec<Token> = (0..N)
        .map(|i| dev.read_async(i * LEN, LEN as u32))
        .collect();

    // Every read has landed before the one poll that collects them.
    let deadline = Instant::now() + Duration::from_secs(120);
    while client.with_nic(|nic| nic.cq.len()) < N as usize {
        assert!(Instant::now() < deadline, "reads did not complete");
        std::thread::yield_now();
    }
    let done = dev.poll();
    assert_eq!(done.len(), N as usize);
    for (i, c) in done.iter().enumerate() {
        assert_eq!(c.token, tokens[i]);
        assert!(c.ok);
        let data = c.data.as_deref().expect("a read carries data");
        let want = &stamps[(i as u64 * LEN) as usize..][..LEN as usize];
        if let Some(w) = (0..data.len() / 8).find(|w| data[w * 8..][..8] != want[w * 8..][..8]) {
            panic!("read {i}: word {w} is not the pool word it was read from");
        }
    }
}
