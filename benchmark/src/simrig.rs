//! The `sim_*` workloads: compute ↔ engine ↔ pool on the packet-level
//! simulator, one thread, every node owned by the benchmark so each can be
//! wrapped from outside.
//!
//! The topology mirrors `crates/bench/src/harness.rs` (rack 100G links,
//! probe every 2 µs, client poll every 250 ns) but is built here from the
//! public pieces — `Sim`, `EngineNode::add_instance`, `PoolNode`, `SimNic` —
//! so the benchmark does not depend on the bench crate's rig.

use std::rc::Rc;
use std::sync::Arc;

use cowbird::channel::{Channel, ChannelStats};
use cowbird::layout::ChannelLayout;
use cowbird_engine::core::{EngineConfig, EngineStats};
use cowbird_engine::sim::{EngineNode, PoolNode};
use rdma::mem::Region;
use rdma::qp::{QpConfig, QpCounters, QpNum};
use rdma::sim::{NicOutput, SimNic};
use simnet::link::{LinkId, LinkParams};
use simnet::sim::{Ctx, Node, NodeId, Packet, Sim};
use simnet::time::{Duration, Instant};
use telemetry::{Component, CostAccount, EventRing, Profiler, Recorder};

use crate::client::{pool_region_map, ScriptClient};
use crate::script::{Script, ScriptKind};
use crate::stats::LatHist;
use crate::timed::{SpanSink, Stamp, Tally, Timed, SAMPLE};

const TAG_POLL: u64 = 1;
const TAG_NIC_TICK: u64 = 2;
const TAG_STOP: u64 = 3;

const COMPUTE: NodeId = NodeId(0);
const ENGINE: NodeId = NodeId(1);
const POOL: NodeId = NodeId(2);

// Queue-pair numbers, as in the bench crate's rig: engine (data, pool,
// probe) = (101, 102, 103); compute (data, probe) = (301, 302); pool = 201.
const ENGINE_QPS: [QpNum; 3] = [101, 102, 103];
const COMPUTE_QPS: [QpNum; 2] = [301, 302];
const POOL_QPS: [QpNum; 1] = [201];

const PROBE_INTERVAL: Duration = Duration(2_000);
const POLL_INTERVAL: Duration = Duration(250);
const CLIENT_NIC_TICK: Duration = Duration(100_000);
/// How long the simulation keeps running after the last completion, outside
/// the timed region. A write completes at the client when the engine has
/// posted it, so the last few may still be on the wire (or, under loss,
/// waiting out a retransmission timeout); the final pool image is compared
/// only once they have landed.
const DRAIN: Duration = Duration(1_000_000);

#[derive(Clone, Copy, Debug)]
pub enum Engine {
    /// Spot-VM engine: response batching, range-overlap gate, coalescing.
    Spot { batch: usize },
    /// Switch engine: batch 1, pause-all gate, no coalescing.
    P4,
}

#[derive(Clone, Copy, Debug)]
pub struct SimSpec {
    pub engine: Engine,
    pub window: usize,
    pub script: ScriptKind,
    /// Drop probability on every link.
    pub drop_probability: f64,
    /// Turn the product's observability plane on (recorders on channel and
    /// engine, scheduler metrics, provenance, wall self-profiler).
    pub obs: bool,
}

/// The benchmark's compute node: the script client plus the NIC that serves
/// the engine's one-sided traffic against the channel region.
struct ClientNode {
    client: ScriptClient,
    nic: SimNic,
    nic_out: NicOutput,
    /// Virtual and host time of the last completion: the end of the timed
    /// region.
    done_at: Option<(Instant, std::time::Instant)>,
    /// Traced run only (`spans` is set): host time of this node's own calls,
    /// split by what they call into.
    issue: Tally,
    reap: Tally,
    nic_tally: Tally,
    spans: Option<SpanSink>,
}

impl ClientNode {
    #[inline]
    fn traced(&self) -> bool {
        self.spans.is_some()
    }

    #[inline]
    fn stamp(&self) -> Stamp {
        if self.traced() {
            Stamp::now()
        } else {
            Stamp::default()
        }
    }

    fn sample(&self, tally: &Tally, name: &'static str, from: Stamp, to: Stamp) {
        if let Some(spans) = &self.spans {
            if tally.calls.is_multiple_of(SAMPLE) {
                spans.record(name, from.ns, to.ns, 0);
            }
        }
    }
}

impl Node for ClientNode {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(Duration::ZERO, TAG_POLL);
        ctx.set_timer(CLIENT_NIC_TICK, TAG_NIC_TICK);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        // Engine traffic against the channel region: NIC only, no client
        // library code runs here.
        let from = self.stamp();
        self.nic_out.clear();
        self.nic
            .handle_packet_into(&pkt, ctx.now(), &mut self.nic_out);
        for (dst, roce) in self.nic_out.emit.drain(..) {
            ctx.send(self.nic.make_packet(ctx.node_id(), dst, &roce, 1));
        }
        if self.traced() {
            let to = Stamp::now();
            self.nic_tally.charge(from, to);
            self.sample(&self.nic_tally, "rdma.compute_nic", from, to);
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx) {
        match tag {
            TAG_POLL => {
                let now = ctx.now().nanos();
                let t0 = self.stamp();
                self.client.reap(now);
                let t1 = self.stamp();
                self.client.issue(now);
                if self.traced() {
                    let t2 = Stamp::now();
                    self.reap.charge(t0, t1);
                    self.issue.charge(t1, t2);
                    self.sample(&self.reap, "cowbird.reap_sweep", t0, t1);
                    self.sample(&self.issue, "cowbird.issue_sweep", t1, t2);
                }
                if self.client.done() {
                    self.done_at = Some((ctx.now(), std::time::Instant::now()));
                    ctx.set_timer(DRAIN, TAG_STOP);
                } else {
                    ctx.set_timer(POLL_INTERVAL, TAG_POLL);
                }
            }
            TAG_NIC_TICK => {
                let from = self.stamp();
                for (dst, roce) in self.nic.tick(ctx.now()) {
                    ctx.send(self.nic.make_packet(ctx.node_id(), dst, &roce, 1));
                }
                ctx.set_timer(CLIENT_NIC_TICK, TAG_NIC_TICK);
                if self.traced() {
                    self.nic_tally.charge(from, Stamp::now());
                }
            }
            TAG_STOP => ctx.stop(),
            _ => {}
        }
    }
}

/// One rep, set up and ready to run.
pub struct SimRep {
    sim: Sim,
    pool: Region,
    script: Rc<Script>,
    links: [LinkId; 4],
    spans: Option<SpanSink>,
    /// The observability plane's event sinks (channel, engine), kept so
    /// their counts can be read; `None` with the plane off.
    obs_rings: Option<[Arc<EventRing>; 2]>,
    /// Host time spent generating the script (part of set-up).
    pub script_gen_ns: u64,
}

/// Host time one rep spent, by layer. Only `host_ns` is set by an untraced
/// rep; `run_allocs` stays zero unless the binary counts allocations.
#[derive(Clone, Copy, Default)]
pub struct SimTimes {
    /// The timed region: `Sim::run_until` from its start to the last
    /// completion.
    pub host_ns: u64,
    pub issue: Tally,
    pub reap: Tally,
    pub compute_nic: Tally,
    pub engine: Tally,
    pub pool: Tally,
    /// Allocations during the timed region.
    pub run_allocs: u64,
}

impl SimTimes {
    pub fn add(&mut self, o: &SimTimes) {
        self.host_ns += o.host_ns;
        self.issue.add(&o.issue);
        self.reap.add(&o.reap);
        self.compute_nic.add(&o.compute_nic);
        self.engine.add(&o.engine);
        self.pool.add(&o.pool);
        self.run_allocs += o.run_allocs;
    }
}

/// What one rep simulated and counted, read from the layers' public stats
/// after the run: exact under a fixed seed, so every rep of a run must
/// produce the same.
pub struct SimCounts {
    pub ops: u64,
    /// Virtual time at the last completion.
    pub virt_ns: u64,
    pub lat: LatHist,
    pub events: u64,
    pub payload_bytes: u64,
    pub channel: ChannelStats,
    pub engine: EngineStats,
    pub qp: QpCounters,
    pub link_packets: u64,
    pub link_bytes: u64,
    pub link_dropped_fault: u64,
    pub events_recorded: u64,
}

/// Everything one rep produced.
pub struct SimOutcome {
    pub failed: u64,
    pub times: SimTimes,
    pub counts: SimCounts,
}

impl SimRep {
    /// Set-up: script, pool fill, channel, three nodes, four links.
    pub fn build(
        spec: &SimSpec,
        seed: u64,
        ops: usize,
        check: bool,
        spans: Option<&SpanSink>,
    ) -> SimRep {
        let t0 = std::time::Instant::now();
        let script = Rc::new(Script::generate(spec.script, seed, ops));
        let script_gen_ns = t0.elapsed().as_nanos() as u64;

        let pool_mem = Script::pristine_pool();
        let mut pool = PoolNode::new();
        let pool_rkey = pool.register(pool_mem.clone());
        pool.create_qp(POOL_QPS[0], ENGINE_QPS[1], ENGINE);

        let regions = pool_region_map(pool_rkey);

        let obs_rings = spec
            .obs
            .then(|| std::array::from_fn(|_| Arc::new(EventRing::with_capacity(1 << 12))));

        let layout = ChannelLayout::default_sizes();
        let mut channel = Channel::new(0, layout, regions.clone());
        if let Some(rings) = &obs_rings {
            channel.set_recorder(Recorder::attached(Arc::clone(&rings[0]), 0, false));
        }
        let mut nic = SimNic::new();
        let channel_rkey = nic.register(channel.region().clone());
        nic.create_qp(QpConfig::new(COMPUTE_QPS[0], ENGINE_QPS[0]), ENGINE);
        nic.create_qp(QpConfig::new(COMPUTE_QPS[1], ENGINE_QPS[2]), ENGINE);

        let client = ClientNode {
            client: ScriptClient::new(
                channel,
                Rc::clone(&script),
                spec.window,
                check,
                spans.cloned(),
            ),
            nic,
            nic_out: NicOutput::default(),
            done_at: None,
            issue: Tally::default(),
            reap: Tally::default(),
            nic_tally: Tally::default(),
            spans: spans.cloned(),
        };

        let mut cfg = match spec.engine {
            Engine::Spot { batch } => EngineConfig::spot(layout, regions, batch),
            Engine::P4 => EngineConfig::p4(layout, regions),
        }
        .with_probe_interval(PROBE_INTERVAL);
        if let Some(rings) = &obs_rings {
            cfg = cfg.with_recorder(Recorder::attached(Arc::clone(&rings[1]), 1, false));
        }
        let mut engine = EngineNode::new();
        engine.add_instance(
            cfg,
            COMPUTE,
            POOL,
            (
                ENGINE_QPS[0],
                COMPUTE_QPS[0],
                ENGINE_QPS[1],
                POOL_QPS[0],
                ENGINE_QPS[2],
                COMPUTE_QPS[1],
            ),
            channel_rkey,
        );

        let mut sim = Sim::new(seed);
        sim.add_node(Box::new(client));
        match spans {
            Some(s) => {
                sim.add_node(Box::new(Timed::new(
                    engine,
                    "cowbird-engine.node",
                    s.clone(),
                )));
                sim.add_node(Box::new(Timed::new(pool, "rdma.pool_node", s.clone())));
            }
            None => {
                sim.add_node(Box::new(engine));
                sim.add_node(Box::new(pool));
            }
        }
        let link = LinkParams::rack_100g().with_drop_probability(spec.drop_probability);
        let (ce, ec) = sim.connect(COMPUTE, ENGINE, link.clone());
        let (ep, pe) = sim.connect(ENGINE, POOL, link);
        if spec.obs {
            sim.enable_scheduler_metrics();
            sim.enable_provenance(1 << 14);
            sim.attach_self_profiler(Profiler::attached(
                Arc::new(CostAccount::default()),
                u16::MAX,
                Component::Sim,
                true,
            ));
        }
        SimRep {
            sim,
            pool: pool_mem,
            script,
            links: [ce, ec, ep, pe],
            spans: spans.cloned(),
            obs_rings,
            script_gen_ns,
        }
    }

    /// A node the traced run wraps in [`Timed`], with what the wrapper
    /// charged it (nothing in an untraced rep, which builds no wrapper).
    fn wrapped_node<N: Node>(&self, id: NodeId) -> (&N, Tally) {
        if self.spans.is_some() {
            let t: &Timed<N> = self.sim.node_ref(id);
            (&t.inner, t.tally)
        } else {
            (self.sim.node_ref(id), Tally::default())
        }
    }

    /// The timed region, then verification and stats collection.
    pub fn run(mut self) -> SimOutcome {
        let ops = self.script.ops.len() as u64;
        // A wedged engine must end the run, not hang it: far beyond any
        // healthy completion time, the rest of the script counts as failed.
        let deadline = Instant(ops * 200_000 + 50_000_000);
        let root = self.spans.as_ref().map(|s| s.begin_root("run"));
        let from = Stamp::now();
        let t0 = std::time::Instant::now();
        self.sim.run_until(Some(deadline));
        let ran_ns = t0.elapsed().as_nanos() as u64;
        let run_allocs = Stamp::now().allocs - from.allocs;
        if let (Some(s), Some(id)) = (&self.spans, root) {
            s.end_root(id);
        }

        let sum_qps = |nic: &SimNic, qpns: &[QpNum], into: &mut QpCounters| {
            for &q in qpns {
                into.accumulate(&nic.qp(q).expect("rig created this qp").counters);
            }
        };
        let mut qp = QpCounters::default();
        let (engine, engine_tally) = self.wrapped_node::<EngineNode>(ENGINE);
        let engine_stats = engine.core(0).stats;
        sum_qps(engine.nic(), &ENGINE_QPS, &mut qp);
        let (pool, pool_tally) = self.wrapped_node::<PoolNode>(POOL);
        sum_qps(&pool.nic, &POOL_QPS, &mut qp);
        let c: &ClientNode = self.sim.node_ref(COMPUTE);
        sum_qps(&c.nic, &COMPUTE_QPS, &mut qp);
        // A run that hit the deadline has no last completion; charge it all.
        let (virt_ns, host_ns) = match c.done_at {
            Some((v, h)) => (v.nanos(), h.duration_since(t0).as_nanos() as u64),
            None => (self.sim.now().nanos(), ran_ns),
        };

        let (mut link_packets, mut link_bytes, mut link_dropped_fault) = (0, 0, 0);
        for &l in &self.links {
            let s = self.sim.link_stats(l);
            link_packets += s.tx_packets;
            link_bytes += s.tx_bytes;
            link_dropped_fault += s.dropped_fault;
        }

        // Timed out ops and a pool image that differs from the sequential
        // replay both count as failures.
        let failed =
            c.client.failed + c.client.unfinished() + self.script.pool_mismatches(&self.pool);
        SimOutcome {
            failed,
            times: SimTimes {
                host_ns,
                issue: c.issue,
                reap: c.reap,
                compute_nic: c.nic_tally,
                engine: engine_tally,
                pool: pool_tally,
                run_allocs,
            },
            counts: SimCounts {
                ops,
                virt_ns,
                lat: c.client.lat.clone(),
                events: self.sim.events_processed(),
                payload_bytes: self.script.payload_bytes,
                channel: c.client.channel.stats,
                engine: engine_stats,
                qp,
                link_packets,
                link_bytes,
                link_dropped_fault,
                events_recorded: self.obs_rings.iter().flatten().map(|r| r.recorded()).sum(),
            },
        }
    }
}
