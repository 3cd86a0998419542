//! Coalescing must be invisible to the protocol: for any op stream, the
//! engine with scatter-gather merging and completion moderation enabled
//! produces exactly the same pool state, the same responses, and the same
//! client-visible progress trajectory as the one-verb-per-op engine. The
//! write-after-read crash barrier must also hold across a chain boundary —
//! a held write never reaches the pool before the covering read commits,
//! even when that read travelled as one segment of a multi-SGE verb.

use std::collections::VecDeque;

use cowbird::channel::Channel;
use cowbird::layout::ChannelLayout;
use cowbird::region::{RegionMap, RemoteRegion};
use cowbird_engine::loopback::Loopback;
use cowbird_engine::{EngineConfig, EngineCore, FabricOp};
use proptest::prelude::*;
use rdma::mem::Region;

const POOL_SIZE: usize = 1 << 16;
const SLOT: u64 = 8;

fn setup(coalesce_sge: usize) -> (Channel, EngineCore, Loopback) {
    let mut regions = RegionMap::new();
    regions.insert(
        1,
        RemoteRegion {
            rkey: 5,
            base: 0,
            size: POOL_SIZE as u64,
        },
    );
    let layout = ChannelLayout::default_sizes();
    let ch = Channel::new(0, layout, regions.clone());
    let cfg = EngineConfig::spot(layout, regions, 8).with_coalesce_sge(coalesce_sge);
    let core = EngineCore::new(cfg);
    let driver = Loopback::new(ch.region().clone(), Region::new(POOL_SIZE));
    (ch, core, driver)
}

/// One client operation against a slot-aligned address range.
#[derive(Clone, Debug)]
enum OpSpec {
    Read { slot: u8, slots: u8 },
    Write { slot: u8, slots: u8, fill: u8 },
}

fn op_spec() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        (0u8..60, 1u8..4).prop_map(|(slot, slots)| OpSpec::Read { slot, slots }),
        (0u8..60, 1u8..4, any::<u8>()).prop_map(|(slot, slots, fill)| OpSpec::Write {
            slot,
            slots,
            fill
        }),
    ]
}

/// Client-visible outcome of one run: the progress trajectory, all read
/// responses (in issue order), and the final pool image.
type Outcome = (Vec<(u64, u64)>, Vec<Vec<u8>>, Vec<u8>);

/// Drive one engine over `ops`, probing every `burst` issues.
fn run(ops: &[OpSpec], coalesce_sge: usize, burst: usize) -> Outcome {
    let (mut ch, mut core, mut driver) = setup(coalesce_sge);
    for i in 0..POOL_SIZE {
        driver.pool.write(i as u64, &[(i % 251) as u8]).unwrap();
    }
    let mut trajectory = Vec::new();
    let mut handles = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            OpSpec::Read { slot, slots } => {
                let addr = u64::from(slot) * SLOT;
                let len = u32::from(slots) * SLOT as u32;
                if let Ok(h) = ch.async_read(1, addr, len) {
                    handles.push(h);
                }
            }
            OpSpec::Write { slot, slots, fill } => {
                let addr = u64::from(slot) * SLOT;
                let len = usize::from(slots) * SLOT as usize;
                let _ = ch.async_write(1, addr, &vec![fill; len]);
            }
        }
        if (i + 1) % burst == 0 {
            driver.probe(&mut core);
            trajectory.push(core.progress());
        }
    }
    // Drain: probe until nothing is in flight.
    for _ in 0..16 {
        driver.probe(&mut core);
        trajectory.push(core.progress());
        if ch.in_flight() == (0, 0) {
            break;
        }
        ch.refresh();
    }
    assert_eq!(ch.in_flight(), (0, 0), "stream must drain");
    let responses = handles
        .iter()
        .map(|h| ch.take_response(h).unwrap())
        .collect();
    (
        trajectory,
        responses,
        driver.pool.read_vec(0, POOL_SIZE).unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random op streams: coalescing on vs off must be observationally
    /// identical — same progress trajectory (completion order is implied by
    /// the monotone per-type counters), same response bytes, same pool.
    #[test]
    fn coalescing_preserves_pool_state_and_completion_order(
        ops in proptest::collection::vec(op_spec(), 1..80),
        burst in 1usize..12,
    ) {
        let (traj_on, resp_on, pool_on) = run(&ops, 16, burst);
        let (traj_off, resp_off, pool_off) = run(&ops, 1, burst);
        prop_assert_eq!(traj_on, traj_off);
        prop_assert_eq!(resp_on, resp_off);
        prop_assert_eq!(pool_on, pool_off);
    }
}

/// A held write must not cross the crash barrier even when the read that
/// holds it back rode in the middle of a scatter-gather chain: crash the
/// engine after the chain executed but before the red block committed, and
/// the pool must still carry the old bytes; recovery then replays the read
/// (seeing the original data) before releasing the write.
#[test]
fn crash_barrier_holds_across_chain_boundary() {
    let (mut ch, mut core, mut driver) = setup(16);
    driver.pool.write(0, b"OLDAOLDB").unwrap();
    let r1 = ch.async_read(1, 0, 4).unwrap();
    let r2 = ch.async_read(1, 4, 4).unwrap();
    let w = ch.async_write(1, 0, b"NEW!").unwrap();

    // Execute the probe results by hand, dropping every tagged compute
    // write (the red publish and its delivery ack) — a crash at the worst
    // moment: the SG read chain completed, the commit did not.
    let mut probe = Vec::new();
    core.on_probe_due_into(&mut probe);
    let mut queue = VecDeque::from(probe);
    let mut saw_sg = false;
    while let Some(op) = queue.pop_front() {
        match op {
            // Red publish lost: no ack, no commit.
            FabricOp::WriteCompute { tag, .. } if tag != 0 => continue,
            FabricOp::WritePool { .. } | FabricOp::WritePoolSg { .. } => {
                panic!("held write released before the read committed");
            }
            FabricOp::ReadPoolSg { .. } => saw_sg = true,
            _ => {}
        }
        driver.exec(&mut core, op, &mut queue);
    }
    assert!(
        saw_sg,
        "adjacent reads must have coalesced into one SG verb"
    );
    assert_eq!(core.stats.writes_held, 1);
    assert_eq!(
        driver.pool.read_vec(0, 8).unwrap(),
        b"OLDAOLDB",
        "held write must not reach the pool across the crash barrier"
    );

    // Crash + recover: Go-Back-N to the committed floor, then replay.
    core.reset_to_committed();
    for _ in 0..4 {
        driver.probe(&mut core);
    }
    assert!(ch.is_complete(r1.id));
    assert!(ch.is_complete(r2.id));
    assert!(ch.is_complete(w));
    assert_eq!(ch.take_response(&r1).unwrap(), b"OLDA");
    assert_eq!(ch.take_response(&r2).unwrap(), b"OLDB");
    assert_eq!(driver.pool.read_vec(0, 4).unwrap(), b"NEW!");
}
