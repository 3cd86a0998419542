//! Packet-level RDMA client node for `simnet` — drives one-sided reads
//! against a memory pool exactly as the RDMA baselines do, for the latency
//! experiment (Fig. 13) and for cross-validating the closed-form model.

use std::collections::HashMap;

use rdma::qp::{QpConfig, QpNum};
use rdma::sim::SimNic;
use rdma::verbs::{Completion, WorkRequest, WrOp};
use simnet::sim::{Ctx, Node, NodeId, Packet};
use simnet::time::{Duration, Instant};
use telemetry::Histogram;

const TAG_ISSUE: u64 = 1;
const TAG_NIC_TICK: u64 = 2;
const TAG_BATCH_POST: u64 = 3;

/// How the client schedules its reads.
#[derive(Clone, Copy, Debug)]
pub enum ClientMode {
    /// One read at a time; next issued when the previous completes.
    Closed,
    /// Keep `inflight` reads outstanding (ideal pipelining, no CPU model).
    Pipelined { inflight: usize },
    /// The paper's asynchronous baseline: form a software batch of `size`
    /// requests, post them back-to-back (each post costs the Figure 2
    /// `rdma_post` CPU time, which spaces the wire departures), poll until
    /// all complete, repeat. Per-op latency is measured from batch
    /// formation — which is why the paper's async latencies sit at tens of
    /// microseconds (Fig. 13).
    Batched { size: usize },
}

/// A compute-node client that issues one-sided RDMA reads of `record_size`
/// bytes at random offsets of the pool region and records completion
/// latencies.
pub struct RdmaClientNode {
    nic: SimNic,
    qpn: QpNum,
    pool_rkey: u32,
    pool_size: u64,
    scratch_lkey: u32,
    record_size: u32,
    mode: ClientMode,
    target_ops: u64,
    issued: u64,
    completed: u64,
    /// CPU cost of one post (spaces batched posts on the wire).
    post_gap: simnet::time::Duration,
    /// Batched mode: posts still to issue in the current batch, and the
    /// batch formation time every op in it is measured from.
    batch_left: usize,
    batch_t0: Instant,
    started_at: HashMap<u64, Instant>,
    /// Completion scratch, reused across polls.
    done: Vec<Completion>,
    pub latency: Histogram,
    pub done_at: Option<Instant>,
    /// Stop the whole simulation when target reached.
    pub stop_when_done: bool,
}

impl RdmaClientNode {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        pool_node: NodeId,
        local_qpn: QpNum,
        remote_qpn: QpNum,
        pool_rkey: u32,
        pool_size: u64,
        record_size: u32,
        mode: ClientMode,
        target_ops: u64,
    ) -> RdmaClientNode {
        let mut nic = SimNic::new();
        let scratch = rdma::mem::Region::new(16 << 20);
        let scratch_lkey = nic.register(scratch);
        nic.create_qp(QpConfig::new(local_qpn, remote_qpn), pool_node);
        RdmaClientNode {
            nic,
            qpn: local_qpn,
            pool_rkey,
            pool_size,
            scratch_lkey,
            record_size,
            mode,
            target_ops,
            issued: 0,
            completed: 0,
            post_gap: crate::model::Testbed::paper().cost.rdma_post(),
            batch_left: 0,
            batch_t0: Instant::ZERO,
            started_at: HashMap::new(),
            done: Vec::new(),
            latency: Histogram::new(),
            done_at: None,
            stop_when_done: true,
        }
    }

    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Ops per second over the elapsed window.
    pub fn throughput_mops(&self, elapsed: Duration) -> f64 {
        if elapsed == Duration::ZERO {
            return 0.0;
        }
        self.completed as f64 / elapsed.secs_f64() / 1e6
    }

    fn issue_one(&mut self, ctx: &mut Ctx) {
        if self.issued >= self.target_ops {
            return;
        }
        let wr_id = self.issued;
        self.issued += 1;
        let max_off = self.pool_size - self.record_size as u64;
        let addr = if max_off == 0 {
            0
        } else {
            ctx.rng().next_below(max_off / 8) * 8
        };
        // Batched mode measures from batch formation, not post time.
        let t0 = match self.mode {
            ClientMode::Batched { .. } => self.batch_t0,
            _ => ctx.now(),
        };
        self.started_at.insert(wr_id, t0);
        let wr = WorkRequest {
            wr_id,
            op: WrOp::Read {
                local_rkey: self.scratch_lkey,
                local_addr: (wr_id % 1024) * self.record_size.max(8) as u64,
                remote_addr: addr,
                remote_rkey: self.pool_rkey,
                len: self.record_size,
            },
        };
        if let Err(e) = self.nic.post_and_send(self.qpn, wr, 1, ctx) {
            panic!("client post failed: {e}");
        }
    }

    fn fill_pipeline(&mut self, ctx: &mut Ctx) {
        match self.mode {
            ClientMode::Closed => {
                while self.issued - self.completed < 1 && self.issued < self.target_ops {
                    self.issue_one(ctx);
                }
            }
            ClientMode::Pipelined { inflight } => {
                while self.issued - self.completed < inflight as u64
                    && self.issued < self.target_ops
                {
                    self.issue_one(ctx);
                }
            }
            ClientMode::Batched { size } => {
                // Start a new batch only when the previous fully drained.
                if self.batch_left == 0
                    && self.issued == self.completed
                    && self.issued < self.target_ops
                {
                    self.batch_left = size.min((self.target_ops - self.issued) as usize);
                    self.batch_t0 = ctx.now();
                    self.post_next_in_batch(ctx);
                }
            }
        }
    }

    /// Post one request of the current batch; the next follows after the
    /// post CPU time.
    fn post_next_in_batch(&mut self, ctx: &mut Ctx) {
        if self.batch_left == 0 {
            return;
        }
        self.batch_left -= 1;
        self.issue_one(ctx);
        if self.batch_left > 0 {
            ctx.set_timer(self.post_gap, TAG_BATCH_POST);
        }
    }
}

impl Node for RdmaClientNode {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(Duration::ZERO, TAG_ISSUE);
        ctx.set_timer(Duration::from_micros(100), TAG_NIC_TICK);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        self.nic.deliver(pkt, 1, ctx);
        self.nic.poll_into(64, &mut self.done);
        for c in self.done.drain(..) {
            if let Some(t0) = self.started_at.remove(&c.wr_id) {
                self.completed += 1;
                self.latency.record(ctx.now().since(t0).nanos());
            }
        }
        if self.completed >= self.target_ops {
            if self.done_at.is_none() {
                self.done_at = Some(ctx.now());
            }
            if self.stop_when_done {
                ctx.stop();
            }
            return;
        }
        self.fill_pipeline(ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx) {
        match tag {
            TAG_ISSUE => self.fill_pipeline(ctx),
            TAG_BATCH_POST => self.post_next_in_batch(ctx),
            TAG_NIC_TICK => {
                self.nic.tick_and_send(1, ctx);
                ctx.set_timer(Duration::from_micros(100), TAG_NIC_TICK);
            }
            _ => {}
        }
    }
}

/// Build the standard client+pool latency rig: returns (sim, client id).
pub fn latency_rig(
    seed: u64,
    record_size: u32,
    mode: ClientMode,
    target_ops: u64,
    link: simnet::link::LinkParams,
) -> (simnet::sim::Sim, NodeId) {
    use cowbird_pool::build_pool;
    let mut sim = simnet::sim::Sim::new(seed);
    let client_id = NodeId(0);
    let pool_id = NodeId(1);
    let (pool, rkey, size) = build_pool(client_id);
    let client = RdmaClientNode::new(pool_id, 501, 601, rkey, size, record_size, mode, target_ops);
    sim.add_node(Box::new(client));
    sim.add_node(Box::new(pool));
    sim.connect(client_id, pool_id, link);
    (sim, client_id)
}

/// Minimal pool-node construction shared by rigs.
mod cowbird_pool {
    use super::*;
    use rdma::mem::Region;

    pub struct SimplePool {
        nic: SimNic,
    }

    impl Node for SimplePool {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(Duration::from_micros(100), 0);
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
            self.nic.deliver(pkt, 1, ctx);
        }
        fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx) {
            self.nic.tick_and_send(1, ctx);
            ctx.set_timer(Duration::from_micros(100), 0);
        }
    }

    pub fn build_pool(client: NodeId) -> (SimplePool, u32, u64) {
        let mut nic = SimNic::new();
        let size = 16u64 << 20;
        let region = Region::new(size as usize);
        let rkey = nic.register(region);
        nic.create_qp(QpConfig::new(601, 501), client);
        (SimplePool { nic }, rkey, size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::link::LinkParams;

    fn rack() -> LinkParams {
        // 100 Gbps, 600 ns propagation each way; with switch hops the
        // modelled read RTT lands near the testbed's ~3.3 us envelope.
        LinkParams::new(100e9, Duration::from_nanos(1500))
    }

    #[test]
    fn closed_loop_latency_is_about_one_rtt() {
        let (mut sim, client_id) = latency_rig(1, 64, ClientMode::Closed, 500, rack());
        sim.run();
        let client: &RdmaClientNode = sim.node_ref(client_id);
        assert_eq!(client.completed(), 500);
        let p50 = client.latency.median();
        // 2 x 1500 ns propagation + serialization + headers: ~3.0-3.5 us.
        assert!(p50 > 2_900 && p50 < 4_000, "p50 {p50} ns");
        // Closed loop, lossless: tail tracks the median closely.
        assert!(
            client.latency.p99() < p50 * 2,
            "p99 {}",
            client.latency.p99()
        );
    }

    #[test]
    fn pipelined_mode_has_higher_latency_but_higher_throughput() {
        let ops = 2000;
        let (mut sim_c, id_c) = latency_rig(2, 64, ClientMode::Closed, ops, rack());
        sim_c.run();
        let closed: &RdmaClientNode = sim_c.node_ref(id_c);
        let closed_done = closed.done_at.unwrap();
        let closed_p50 = closed.latency.median();

        let (mut sim_p, id_p) =
            latency_rig(2, 64, ClientMode::Pipelined { inflight: 100 }, ops, rack());
        sim_p.run();
        let piped: &RdmaClientNode = sim_p.node_ref(id_p);
        let piped_done = piped.done_at.unwrap();
        let piped_p50 = piped.latency.median();

        assert!(
            piped_done < closed_done,
            "pipelining must be faster overall"
        );
        assert!(piped_p50 > closed_p50, "per-op latency grows with queueing");
    }

    #[test]
    fn larger_records_take_longer() {
        let (mut sim_small, id_s) = latency_rig(3, 8, ClientMode::Closed, 300, rack());
        sim_small.run();
        let (mut sim_big, id_b) = latency_rig(3, 2048, ClientMode::Closed, 300, rack());
        sim_big.run();
        let small: &RdmaClientNode = sim_small.node_ref(id_s);
        let big: &RdmaClientNode = sim_big.node_ref(id_b);
        assert!(big.latency.median() > small.latency.median());
    }

    #[test]
    fn batched_mode_latency_reflects_post_costs() {
        // A software batch of 100 posts, each costing the Figure-2 post
        // time (350 ns), spreads departures over ~35 us; per-op latency is
        // measured from batch formation, so the median sits near half the
        // batch issue time plus an RTT.
        let (mut sim, id) = latency_rig(8, 64, ClientMode::Batched { size: 100 }, 1000, rack());
        sim.run();
        let c: &RdmaClientNode = sim.node_ref(id);
        assert_eq!(c.completed(), 1000);
        let p50 = c.latency.median();
        let p99 = c.latency.p99();
        assert!((15_000..30_000).contains(&p50), "p50 {p50} ns");
        assert!(p99 > 30_000, "p99 {p99} ns spans the whole batch");
        // And well above the closed-loop (single RTT) regime.
        let (mut closed_sim, cid) = latency_rig(8, 64, ClientMode::Closed, 200, rack());
        closed_sim.run();
        let closed: &RdmaClientNode = closed_sim.node_ref(cid);
        assert!(p50 > closed.latency.median() * 4);
    }

    #[test]
    fn lossy_link_recovers_via_gbn() {
        let lossy = LinkParams::new(100e9, Duration::from_nanos(1500)).with_drop_probability(0.02);
        let (mut sim, client_id) = latency_rig(4, 64, ClientMode::Closed, 300, lossy);
        sim.run_until(Some(Instant(2_000_000_000)));
        let client: &RdmaClientNode = sim.node_ref(client_id);
        assert_eq!(client.completed(), 300, "all ops survive 2% loss");
        // Retransmissions inflate the tail beyond the lossless bound.
        assert!(
            client.latency.p99() > 100_000,
            "p99 {}",
            client.latency.p99()
        );
    }
}
