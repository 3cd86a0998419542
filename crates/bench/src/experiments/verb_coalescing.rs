//! Verb coalescing: modeled per-op engine cost vs chain/batch width.
//!
//! The flat Figure-2 accounting prices every engine verb at a full RDMA
//! post+poll (600 ns), six verbs per remote op — the 3600 ns floor a
//! verb-at-a-time engine cannot beat. The coalesced pipeline splits that
//! price: one doorbell per *chained* post, one WQE per work request, one
//! SGE entry per extra scatter-gather segment, one CQ poll per chain. This
//! artifact sweeps the chain/batch width 1→32 over read-only, write-only,
//! and mixed adjacent-offset workloads, prices the engine's actual verb
//! stream with the split model, and checks the headline claims: per-op
//! cost is monotone non-increasing in chain width, sits below the flat
//! 6-verb floor, and drops ≥25% below the single-verb baseline by chain 8.
//!
//! The sweep drives [`EngineCore`] synchronously over the engine crate's
//! [`Loopback`] fabric, so every verb counter is workload-determined and
//! the asserts are CI-stable.
//! A second table reruns the low-load (one outstanding op) packet-level rig
//! with coalescing on vs off: completion moderation must not tax the
//! quiescent path, so the p99 on/off ratio is bounded at 5%.

use cowbird::channel::Channel;
use cowbird::layout::ChannelLayout;
use cowbird::region::{RegionMap, RemoteRegion};
use cowbird_engine::loopback::Loopback;
use cowbird_engine::{EngineConfig, EngineCore};
use rdma::cost::CostModel;
use rdma::mem::Region;
use simnet::time::{Duration, Instant};

use crate::harness::{build_cowbird_rig, CowbirdClientNode, CowbirdRig};
use crate::report::{fnum, Table};

/// Chain/batch widths swept (batch size and SGE cap move together).
pub const CHAINS: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Adjacent ops issued per burst (fixed across the sweep so the workload,
/// not the knob, decides how much adjacency is available).
const BURST: usize = 32;
/// Bursts per run.
const ROUNDS: usize = 16;
/// The flat model's per-op floor: six verbs at a full post+poll each.
pub const FLAT_FLOOR_NS: f64 = 6.0 * 600.0;
/// Required improvement over the chain-1 baseline at chain >= 8.
pub const CHAIN8_IMPROVEMENT: f64 = 0.25;
/// Low-load p99 budget: coalescing on vs off.
pub const P99_LOW_LOAD_SLACK: f64 = 1.05;

const POOL_SIZE: usize = 1 << 20;
const REC: u64 = 64;

#[derive(Clone, Copy)]
enum Workload {
    ReadOnly,
    WriteOnly,
    Mixed,
}

impl Workload {
    fn key(self) -> &'static str {
        match self {
            Workload::ReadOnly => "read",
            Workload::WriteOnly => "write",
            Workload::Mixed => "mixed",
        }
    }
}

struct SweepPoint {
    per_op_ns: f64,
    /// Average work requests per doorbell (chain length).
    chain_len: f64,
    /// Average scatter-gather elements per work request.
    sge_per_wr: f64,
}

/// Run one (workload, chain) cell: `ROUNDS` bursts of `BURST` adjacent ops
/// against a chain-wide engine, then price the verb stream with the split
/// cost model.
fn sweep(workload: Workload, chain: usize) -> SweepPoint {
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
    let mut ch = Channel::new(0, layout, regions.clone());
    let mut core =
        EngineCore::new(EngineConfig::spot(layout, regions, chain).with_coalesce_sge(chain));
    let mut driver = Loopback::new(ch.region().clone(), Region::new(POOL_SIZE));
    for slot in 0..(POOL_SIZE as u64 / REC) {
        driver.pool.write(slot * REC, &slot.to_le_bytes()).unwrap();
    }

    // Reads walk the lower half of the pool, writes the upper half:
    // adjacent offsets within each burst (the coalescible common case —
    // think sequential scans and log appends), no read/write overlap so
    // the consistency gate never serializes the stream.
    let write_base = (POOL_SIZE as u64) / 2;
    let mut handles = Vec::new();
    let mut ops = 0u64;
    for round in 0..ROUNDS as u64 {
        let base = (round * BURST as u64 * REC) % write_base;
        for i in 0..BURST as u64 {
            let addr = base + i * REC;
            match workload {
                Workload::ReadOnly => {
                    handles.push(ch.async_read(1, addr, REC as u32).unwrap());
                }
                Workload::WriteOnly => {
                    ch.async_write(1, write_base + addr, &[round as u8; REC as usize])
                        .unwrap();
                }
                Workload::Mixed => {
                    if i < BURST as u64 / 2 {
                        handles.push(ch.async_read(1, addr, REC as u32).unwrap());
                    } else {
                        ch.async_write(1, write_base + addr, &[round as u8; REC as usize])
                            .unwrap();
                    }
                }
            }
            ops += 1;
        }
        driver.probe(&mut core);
    }
    ch.refresh();
    assert_eq!(
        ch.in_flight(),
        (0, 0),
        "synchronous sweep must drain every burst"
    );
    for h in &handles {
        let data = ch.take_response(h).unwrap();
        assert_eq!(data.len(), REC as usize);
    }

    // Price the verb stream with the split model: one doorbell per chained
    // post, one WQE per WR, one SGE entry beyond the first per WR, one CQ
    // poll per chain plus one CQE per WR.
    let m = CostModel::paper_defaults();
    let s = &core.stats;
    let post_ns = s.chain_posts * (m.post_lock_ns + m.post_doorbell_ns)
        + s.chained_wrs * m.post_wqe_ns
        + (s.sge_total - s.chained_wrs) * m.post_sge_ns;
    let poll_ns = s.chain_posts * m.poll_lock_ns + s.chained_wrs * m.poll_cqe_ns;
    let per_op_ns = (post_ns + poll_ns) as f64 / ops as f64;
    let chain_len = s.chained_wrs as f64 / (s.chain_posts.max(1)) as f64;
    let sge_per_wr = s.sge_total as f64 / (s.chained_wrs.max(1)) as f64;

    let c = chain.to_string();
    let labels: &[(&str, &str)] = &[("workload", workload.key()), ("chain", c.as_str())];
    let reg = telemetry::metrics::global();
    reg.gauge_set("cowbird.engine.coalesce.per_op_model_ns", labels, per_op_ns);
    reg.gauge_set("cowbird.engine.coalesce.chain_len", labels, chain_len);
    reg.gauge_set("cowbird.engine.coalesce.sge_per_wr", labels, sge_per_wr);

    SweepPoint {
        per_op_ns,
        chain_len,
        sge_per_wr,
    }
}

/// The low-load rig: one outstanding op over the packet-level simulator,
/// coalescing on (`sge` 16) vs off (`sge` 1). Virtual-time latency, so the
/// comparison is exact and CI-stable.
fn low_load(coalesce_sge: usize) -> (u64, u64) {
    let (mut sim, client_id, _engine) = build_cowbird_rig(CowbirdRig {
        seed: 7,
        target_ops: 400,
        inflight: 1,
        engine_batch: 8,
        coalesce_sge,
        ..Default::default()
    });
    sim.run_until(Some(Instant(Duration::from_millis(100).nanos())));
    let client: &CowbirdClientNode = sim.node_ref(client_id);
    assert_eq!(client.completed(), 400, "low-load rig must finish");
    (client.latency.median(), client.latency.p99())
}

pub fn run() -> Vec<Table> {
    vec![chain_sweep(), low_load_latency()]
}

/// Chain/batch 1→32 over the three workloads.
pub fn chain_sweep() -> Table {
    let mut t = Table::new(
        "Verb coalescing 1",
        "modeled per-op engine cost vs chain width (flat 6-verb floor: 3600 ns)",
        &[
            "chain",
            "read ns/op",
            "write ns/op",
            "mixed ns/op",
            "wrs/doorbell",
            "sge/wr",
        ],
    )
    .with_paper_note(
        "extension of Fig. 2: WR chaining + scatter-gather amortize the doorbell and CQ poll; \
         the flat model charges every verb a full 600 ns post+poll",
    );
    for chain in CHAINS {
        let read = sweep(Workload::ReadOnly, chain);
        let write = sweep(Workload::WriteOnly, chain);
        let mixed = sweep(Workload::Mixed, chain);
        // Structure columns come from the mixed workload: it exercises both
        // amortization axes (payload-fetch runs chain, adjacent pool ops
        // gather), where read-only collapses a burst into one SG verb and
        // leaves almost nothing to chain.
        t.push_row(vec![
            chain.to_string(),
            fnum(read.per_op_ns),
            fnum(write.per_op_ns),
            fnum(mixed.per_op_ns),
            fnum(mixed.chain_len),
            fnum(mixed.sge_per_wr),
        ]);
    }
    t
}

/// Completion moderation must not tax the quiescent path.
pub fn low_load_latency() -> Table {
    let mut t = Table::new(
        "Verb coalescing 2",
        "low-load latency (1 outstanding op): moderation must not defer quiescent completions",
        &["mode", "p50 ns", "p99 ns"],
    )
    .with_paper_note(
        "adaptive red-block deadline: defer only while pool reads or payload fetches are in flight",
    );
    let reg = telemetry::metrics::global();
    for (mode, sge) in [("off", 1usize), ("on", 16usize)] {
        let (p50, p99) = low_load(sge);
        reg.gauge_set(
            "cowbird.engine.coalesce.low_load_p99_ns",
            &[("coalesce", mode)],
            p99 as f64,
        );
        t.push_row(vec![mode.to_string(), p50.to_string(), p99.to_string()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_cost_is_monotone_and_beats_the_flat_floor() {
        let t = chain_sweep();
        for col in ["read ns/op", "write ns/op", "mixed ns/op"] {
            let series: Vec<f64> = CHAINS
                .iter()
                .map(|c| t.cell_f64(&c.to_string(), col).unwrap())
                .collect();
            for w in series.windows(2) {
                assert!(
                    w[1] <= w[0] * 1.001,
                    "{col} must be monotone non-increasing in chain width: {series:?}"
                );
            }
            for (c, v) in CHAINS.iter().zip(&series) {
                assert!(
                    *v < FLAT_FLOOR_NS,
                    "{col} at chain {c} ({v} ns) must beat the flat {FLAT_FLOOR_NS} ns floor"
                );
            }
            let baseline = series[0];
            let chain8 = t.cell_f64("8", col).unwrap();
            assert!(
                chain8 <= baseline * (1.0 - CHAIN8_IMPROVEMENT),
                "{col}: chain 8 ({chain8} ns) must sit >= {CHAIN8_IMPROVEMENT:.0$}% below the \
                 single-verb baseline ({baseline} ns)",
                0
            );
        }
        // The knob actually engages: wide chains carry multiple WRs per
        // doorbell and multiple SGEs per WR.
        assert!(t.cell_f64("32", "wrs/doorbell").unwrap() > 1.5);
        assert!(t.cell_f64("32", "sge/wr").unwrap() > 1.5);
        assert!((t.cell_f64("1", "wrs/doorbell").unwrap() - 1.0).abs() < 1e-9);
        assert!((t.cell_f64("1", "sge/wr").unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn moderation_does_not_regress_low_load_p99() {
        let t = low_load_latency();
        let off = t.cell_f64("off", "p99 ns").unwrap();
        let on = t.cell_f64("on", "p99 ns").unwrap();
        assert!(
            on <= off * P99_LOW_LOAD_SLACK,
            "low-load p99 with coalescing on ({on} ns) exceeds off ({off} ns) \
             by more than {:.0}%",
            (P99_LOW_LOAD_SLACK - 1.0) * 100.0
        );
    }
}
