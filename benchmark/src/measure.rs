//! Running a workload: reps until the time budget is spent, medians over
//! reps, and the per-layer budget of the traced run.
//!
//! Every rep of a run is the same fixed work — same script, same simulator
//! seed — so host time is the only thing that varies between reps, and
//! everything counted or simulated must repeat exactly (a rep that does not
//! is reported as a failure). Counts therefore come from the first rep;
//! host times are summed over all of them.

use std::time::Instant;

use crate::kv::{KvCounts, KvRep, KvSpec, VALUE_BYTES};
use crate::lanes;
use crate::report::RunResult;
use crate::script::{ScriptKind, BLOCK, RECORD};
use crate::simrig::{SimCounts, SimRep, SimSpec, SimTimes};
use crate::stats::{median, quartiles};
use crate::timed::{clock_read_ns, SpanSink, Tally};
use crate::workload::{Kind, Workload};

pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    /// Panic on the first response the oracle rejects.
    pub check: bool,
    /// Divide every rep's op count by this (`--quick` uses 20).
    pub shrink: usize,
    /// Fewest reps a run makes, whatever its budget.
    pub min_reps: usize,
}

/// Rep scheduling: call `rep` while the next call still fits the budget
/// that started at `start` (the longest rep so far stands for the next),
/// and at least `opts.min_reps` times.
fn reps_within_budget(start: Instant, opts: &RunOpts, mut rep: impl FnMut()) {
    let (mut reps, mut longest_s) = (0, 0.0f64);
    while reps < opts.min_reps || start.elapsed().as_secs_f64() + longest_s <= opts.seconds {
        let t0 = Instant::now();
        rep();
        reps += 1;
        longest_s = longest_s.max(t0.elapsed().as_secs_f64());
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn spread_note(what: &str, values: &[f64]) -> String {
    let (q1, q2, q3) = quartiles(values);
    let each: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!(
        "{what}: {} reps, q1 {q1:.4}, median {q2:.4}, q3 {q3:.4}, iqr/median {:.4}; in order: {}",
        values.len(),
        ratio(q3 - q1, q2),
        each.join(" ")
    )
}

/// `VmHWM` of this process in MiB (0 where `/proc` is not available).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(w: &'static Workload, opts: &RunOpts, spans: Option<&SpanSink>) -> RunResult {
    let ops = (w.ops_per_rep / opts.shrink).max(1);
    match (&w.kind, spans) {
        (Kind::Sim(spec), None) => sim_untraced(w.name, spec, ops, opts),
        (Kind::Sim(spec), Some(s)) => sim_traced(w.name, spec, ops, opts, s),
        (Kind::Kv(spec), None) => kv_untraced(w.name, spec, ops, opts),
        (Kind::Kv(spec), Some(s)) => kv_traced(w.name, spec, ops, opts, s),
    }
}

/// The three end-to-end metrics, the same for every workload.
fn end_to_end(
    name: &'static str,
    what: String,
    (attempted, failed): (u64, u64),
    ns_per_op: &[f64],
    setup_s: &[f64],
) -> RunResult {
    RunResult {
        workload: name,
        traced: false,
        attempted,
        failed,
        metrics: vec![
            ("host_ns_per_op", median(ns_per_op)),
            ("setup_s", median(setup_s)),
            ("peak_rss_mb", peak_rss_mb()),
        ],
        notes: vec![
            what,
            spread_note("host_ns_per_op", ns_per_op),
            spread_note("setup_s", setup_s),
        ],
    }
}

// ---------------------------------------------------------------------
// sim_* workloads
// ---------------------------------------------------------------------

/// Reps of one configuration (plane on/off, wrapped or not).
#[derive(Default)]
struct SimLane {
    ns_per_op: Vec<f64>,
    setup_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// The first rep's counts; every later rep must repeat them.
    counts: Option<SimCounts>,
    /// Host times summed over the reps.
    times: SimTimes,
    script_gen_ns: u64,
}

impl SimLane {
    fn rep(&mut self, spec: &SimSpec, ops: usize, opts: &RunOpts, spans: Option<&SpanSink>) {
        let t0 = Instant::now();
        let rep = SimRep::build(spec, opts.seed, ops, opts.check, spans);
        self.setup_s.push(t0.elapsed().as_secs_f64());
        self.script_gen_ns += rep.script_gen_ns;
        let out = rep.run();
        self.ns_per_op
            .push(out.times.host_ns as f64 / out.counts.ops as f64);
        self.times.add(&out.times);
        self.attempted += out.counts.ops;
        self.failed += out.failed + conservation_breaks(&out.counts);
        match &self.counts {
            None => self.counts = Some(out.counts),
            // Same script, same seed: simulated time, event count and every
            // latency must repeat. One failure per rep that strays.
            Some(first) => {
                let c = &out.counts;
                let same = first.virt_ns == c.virt_ns
                    && first.events == c.events
                    && first.lat.same_as(&c.lat);
                self.failed += !same as u64;
            }
        }
    }

    fn reps(&self) -> usize {
        self.ns_per_op.len()
    }
}

/// Ops issued, executed and attempted must be the same number.
fn conservation_breaks(o: &SimCounts) -> u64 {
    let (c, e) = (&o.channel, &o.engine);
    // A chase is a read for sequencing: `reads_issued` includes chases on
    // the client, `reads_executed` includes them on the engine. Go-Back-N
    // replays re-parse a chase, so the engine may start one more than once.
    let holds = c.reads_issued + c.writes_issued == o.ops
        && e.reads_executed == c.reads_issued
        && e.writes_executed == c.writes_issued
        && e.chases_executed >= c.chases_issued;
    !holds as u64
}

fn sim_untraced(name: &'static str, spec: &SimSpec, ops: usize, opts: &RunOpts) -> RunResult {
    let mut lane = SimLane::default();
    reps_within_budget(Instant::now(), opts, || lane.rep(spec, ops, opts, None));
    end_to_end(
        name,
        format!(
            "{ops} ops per rep, one thread, closed loop, window {}",
            spec.window
        ),
        (lane.attempted, lane.failed),
        &lane.ns_per_op,
        &lane.setup_s,
    )
}

fn record_size(kind: ScriptKind) -> u32 {
    match kind {
        ScriptKind::Mixed4k => BLOCK as u32,
        ScriptKind::Read64 | ScriptKind::Chase => RECORD as u32,
    }
}

fn sim_traced(
    name: &'static str,
    spec: &SimSpec,
    ops: usize,
    opts: &RunOpts,
    spans: &SpanSink,
) -> RunResult {
    // Direct-call lanes first: fixed work, a fraction of a second, out of
    // the same time budget as the reps.
    let start = Instant::now();
    let clock_ns = clock_read_ns();
    let record = record_size(spec.script);
    let cb = lanes::cowbird_lanes(record);
    let rd = lanes::rdma_lanes(record);
    let core = lanes::core_lane(
        spec.script,
        spec.engine,
        spec.window,
        opts.seed,
        ops.min(20_000),
        clock_ns,
    );

    // Untraced and traced reps alternate, so both see the same machine; on
    // the observability workload a plane-off control rep joins the cycle.
    let control_spec = SimSpec {
        obs: false,
        ..*spec
    };
    let (mut plain, mut traced, mut control) =
        (SimLane::default(), SimLane::default(), SimLane::default());
    reps_within_budget(start, opts, || {
        plain.rep(spec, ops, opts, None);
        traced.rep(spec, ops, opts, Some(spans));
        if spec.obs {
            control.rep(&control_spec, ops, opts, None);
        }
    });

    // Host times: sums over the traced reps, per op executed in them.
    let t = &traced.times;
    let n_timed = (traced.reps() * ops) as f64;
    let per_op = |tally: &Tally| tally.ns as f64 / n_timed;
    let callbacks = t.issue.ns + t.reap.ns + t.compute_nic.ns + t.engine.ns + t.pool.ns;
    let callback_allocs =
        t.issue.allocs + t.reap.allocs + t.compute_nic.allocs + t.engine.allocs + t.pool.allocs;
    // The kernel is what `Sim::run_until` spends outside every node callback.
    let kernel_ns = t.host_ns.saturating_sub(callbacks) as f64;
    let kernel_allocs = t.run_allocs.saturating_sub(callback_allocs) as f64;
    // The budget lines are means over the traced reps; summed, they must
    // land on the traced reps' median ns/op.
    let traced_ns_per_op = median(&traced.ns_per_op);
    let layer_sum = (callbacks as f64 + kernel_ns) / n_timed;

    // Counts: one rep's, per op of one rep.
    let k = traced.counts.as_ref().expect("at least one traced rep");
    let n = ops as f64;
    let (c, e, q) = (&k.channel, &k.engine, &k.qp);
    let events_timed = (k.events * traced.reps() as u64) as f64;

    let metrics = vec![
        ("cowbird.issue_ns_per_op", per_op(&t.issue)),
        ("cowbird.reap_ns_per_op", per_op(&t.reap)),
        ("cowbird.polls_per_op", c.polls as f64 / n),
        (
            "cowbird.issue_retries_per_kop",
            c.issue_retries as f64 / n * 1e3,
        ),
        (
            "cowbird.completion_run_len",
            ratio(n, c.completion_runs as f64),
        ),
        (
            "cowbird.allocs_per_op",
            (t.issue.allocs + t.reap.allocs) as f64 / n_timed,
        ),
        ("cowbird.async_read_ns", cb.async_read_ns),
        ("cowbird.async_write_ns", cb.async_write_ns),
        ("cowbird.refresh_ns", cb.refresh_ns),
        ("cowbird-engine.node_ns_per_op", per_op(&t.engine)),
        ("cowbird-engine.core_ns_per_op", core.core_ns_per_op),
        (
            "cowbird-engine.allocs_per_op",
            t.engine.allocs as f64 / n_timed,
        ),
        ("cowbird-engine.probes_per_op", e.probes_sent as f64 / n),
        (
            "cowbird-engine.probe_hit_ratio",
            ratio(e.probes_found_work as f64, e.probes_sent as f64),
        ),
        (
            "cowbird-engine.ops_per_batch",
            ratio(e.reads_executed as f64, e.batches_flushed as f64),
        ),
        ("cowbird-engine.wrs_per_op", e.chained_wrs as f64 / n),
        (
            "cowbird-engine.sge_per_wr",
            ratio(e.sge_total as f64, e.chained_wrs as f64),
        ),
        (
            "cowbird-engine.red_updates_per_op",
            e.red_updates as f64 / n,
        ),
        (
            "cowbird-engine.gate_holds_per_kop",
            (e.reads_paused + e.writes_held + e.chase_parked) as f64 / n * 1e3,
        ),
        (
            "cowbird-engine.chase_hops_per_chase",
            ratio(e.chase_hops as f64, e.chases_executed as f64),
        ),
        ("rdma.pool_node_ns_per_op", per_op(&t.pool)),
        ("rdma.compute_nic_ns_per_op", per_op(&t.compute_nic)),
        ("rdma.pool_allocs_per_op", t.pool.allocs as f64 / n_timed),
        ("rdma.packets_per_op", k.link_packets as f64 / n),
        ("rdma.wire_bytes_per_op", k.link_bytes as f64 / n),
        (
            "rdma.goodput_frac",
            ratio(k.payload_bytes as f64, k.link_bytes as f64),
        ),
        (
            "rdma.retransmit_rounds_per_kop",
            q.retransmit_rounds as f64 / n * 1e3,
        ),
        ("rdma.naks_per_kop", q.naks_tx as f64 / n * 1e3),
        (
            "rdma.ooo_drops_per_kop",
            q.dropped_out_of_order as f64 / n * 1e3,
        ),
        ("rdma.wire_encode_ns", rd.wire_encode_ns),
        ("rdma.wire_parse_ns", rd.wire_parse_ns),
        ("rdma.qp_ns_per_pkt", rd.qp_ns_per_pkt),
        ("rdma.region_copy_ns_per_kib", rd.region_copy_ns_per_kib),
        ("simnet.kernel_ns_per_op", kernel_ns / n_timed),
        ("simnet.kernel_ns_per_event", ratio(kernel_ns, events_timed)),
        ("simnet.events_per_op", k.events as f64 / n),
        (
            "simnet.allocs_per_event",
            ratio(kernel_allocs, events_timed),
        ),
        (
            "simnet.dropped_fault_per_kop",
            k.link_dropped_fault as f64 / n * 1e3,
        ),
        (
            "telemetry.obs_overhead_frac",
            if spec.obs {
                median(&plain.ns_per_op) / median(&control.ns_per_op) - 1.0
            } else {
                0.0
            },
        ),
        (
            "telemetry.events_recorded_per_op",
            k.events_recorded as f64 / n,
        ),
        (
            "workloads.script_gen_ns_per_op",
            traced.script_gen_ns as f64 / n_timed,
        ),
        (
            "trace.overhead_frac",
            traced_ns_per_op / median(&plain.ns_per_op) - 1.0,
        ),
        ("trace.layer_sum_frac", ratio(layer_sum, traced_ns_per_op)),
        ("model.virt_lat_p50_ns", k.lat.percentile(0.50) as f64),
        ("model.virt_lat_p99_ns", k.lat.percentile(0.99) as f64),
        ("model.virt_ops_per_s", ratio(n, k.virt_ns as f64 / 1e9)),
    ];
    let mut notes = vec![
        format!(
            "{ops} ops per rep; reps alternate untraced/traced{}",
            if spec.obs { "/plane-off control" } else { "" }
        ),
        spread_note("untraced host_ns_per_op", &plain.ns_per_op),
        spread_note("traced host_ns_per_op", &traced.ns_per_op),
        format!(
            "virtual latency: {} samples per rep, {} beyond p99; identical in every rep",
            k.lat.count(),
            k.lat.samples_beyond(0.99)
        ),
        format!(
            "direct EngineCore lane: {} ops, {} failed; clock read {clock_ns:.1} ns",
            core.ops, core.failed
        ),
    ];
    if spec.obs {
        notes.push(spread_note(
            "plane-off control host_ns_per_op",
            &control.ns_per_op,
        ));
    }
    RunResult {
        workload: name,
        traced: true,
        attempted: plain.attempted + traced.attempted + control.attempted + core.ops,
        failed: plain.failed + traced.failed + control.failed + core.failed,
        metrics,
        notes,
    }
}

// ---------------------------------------------------------------------
// kv_* workloads
// ---------------------------------------------------------------------

#[derive(Default)]
struct KvLane {
    ns_per_op: Vec<f64>,
    setup_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// The first rep's counts; every later rep must repeat them.
    counts: Option<KvCounts>,
    // Host times summed over the reps.
    host_ns: u64,
    device: Tally,
    run_allocs: u64,
    script_gen_ns: u64,
}

impl KvLane {
    fn rep(&mut self, spec: &KvSpec, ops: usize, opts: &RunOpts, spans: Option<&SpanSink>) {
        let t0 = Instant::now();
        let rep = KvRep::build(spec, opts.seed, ops, opts.check, spans);
        self.setup_s.push(t0.elapsed().as_secs_f64());
        self.script_gen_ns += rep.script_gen_ns;
        let out = rep.run();
        let c = out.counts;
        self.ns_per_op.push(out.host_ns as f64 / c.ops as f64);
        self.host_ns += out.host_ns;
        self.device.add(&out.device);
        self.run_allocs += out.run_allocs;
        self.attempted += c.ops;
        self.failed += out.failed + (c.gets + c.upserts != c.ops) as u64;
        self.failed += (*self.counts.get_or_insert(c) != c) as u64;
    }
}

fn kv_untraced(name: &'static str, spec: &KvSpec, ops: usize, opts: &RunOpts) -> RunResult {
    let mut lane = KvLane::default();
    reps_within_budget(Instant::now(), opts, || lane.rep(spec, ops, opts, None));
    end_to_end(
        name,
        format!("{ops} ops per rep, one thread, closed loop, 32 GETs pending per poll"),
        (lane.attempted, lane.failed),
        &lane.ns_per_op,
        &lane.setup_s,
    )
}

fn kv_traced(
    name: &'static str,
    spec: &KvSpec,
    ops: usize,
    opts: &RunOpts,
    spans: &SpanSink,
) -> RunResult {
    let start = Instant::now();
    let kl = lanes::kv_lanes();
    let (mut plain, mut traced) = (KvLane::default(), KvLane::default());
    reps_within_budget(start, opts, || {
        plain.rep(spec, ops, opts, None);
        traced.rep(spec, ops, opts, Some(spans));
    });
    let n_timed = (traced.ns_per_op.len() * ops) as f64;
    let total = traced.host_ns as f64 / n_timed;
    let device = traced.device.ns as f64 / n_timed;
    let self_ns = (total - device).max(0.0);
    let traced_ns_per_op = median(&traced.ns_per_op);
    let k = traced.counts.as_ref().expect("at least one traced rep");
    let n = ops as f64;
    let cold = (k.gets - k.local_hits) as f64;
    let metrics = vec![
        ("kvstore.self_ns_per_op", self_ns),
        ("kvstore.device_ns_per_op", device),
        (
            "kvstore.allocs_per_op",
            traced.run_allocs.saturating_sub(traced.device.allocs) as f64 / n_timed,
        ),
        (
            "kvstore.local_hit_ratio",
            ratio(k.local_hits as f64, k.gets as f64),
        ),
        (
            "kvstore.round_trips_per_cold_get",
            ratio(k.round_trips as f64, cold),
        ),
        (
            "kvstore.chase_fallback_ratio",
            ratio(k.chase_fallbacks as f64, k.chase_gets as f64),
        ),
        (
            "kvstore.flushed_bytes_per_user_byte",
            ratio(
                k.flushed_bytes as f64,
                (k.upserts * VALUE_BYTES as u64) as f64,
            ),
        ),
        ("kvstore.evictions_per_kop", k.evictions as f64 / n * 1e3),
        ("kvstore.index_lookup_ns", kl.index_lookup_ns),
        ("kvstore.read_hot_ns", kl.read_hot_ns),
        ("kvstore.upsert_ns", kl.upsert_ns),
        (
            "workloads.script_gen_ns_per_op",
            traced.script_gen_ns as f64 / n_timed,
        ),
        (
            "trace.overhead_frac",
            traced_ns_per_op / median(&plain.ns_per_op) - 1.0,
        ),
        // Means over the traced reps, against the traced reps' median.
        (
            "trace.layer_sum_frac",
            ratio(self_ns + device, traced_ns_per_op),
        ),
    ];
    RunResult {
        workload: name,
        traced: true,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
        notes: vec![
            format!("{ops} ops per rep; reps alternate untraced/traced"),
            spread_note("untraced host_ns_per_op", &plain.ns_per_op),
            spread_note("traced host_ns_per_op", &traced.ns_per_op),
            format!(
                "device calls per op: {:.3}",
                traced.device.calls as f64 / n_timed
            ),
        ],
    }
}
