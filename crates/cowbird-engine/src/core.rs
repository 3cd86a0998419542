//! The engine protocol core: Probe → Execute → Complete as a sans-IO state
//! machine.
//!
//! The core never touches a NIC or a clock. Each entry point returns a list
//! of [`FabricOp`] commands; the embedding driver (simulated switch node,
//! spot-VM agent thread) turns them into RDMA operations and feeds results
//! back through [`EngineCore::on_data`]. This mirrors how the same protocol
//! runs on radically different hardware in the paper (§5 vs §6) — only the
//! driver changes.
//!
//! ## Protocol walk-through (paper §5.2)
//!
//! * **Probe**: read the channel's green bookkeeping block (32 B — the tail
//!   pointers plus the client fence word, fetched with a single RDMA read
//!   per requirement R3). If `meta_tail` moved, fetch the new metadata
//!   entries `[head, tail)` (split only at the ring-wrap boundary).
//! * **Execute**: for a read request, fetch the data from the memory pool
//!   and write it to the channel's response ring; for a write request,
//!   fetch the payload from the compute node and write it to the pool.
//! * **Complete**: write the red bookkeeping block (metadata head, both
//!   progress counters, engine epoch and the committed floor — 56 B, a
//!   single RDMA write) so the client can observe completions and recycle
//!   ring space.
//!
//! ## Failover (extension)
//!
//! The red block persists everything a standby needs to adopt the channel:
//! [`EngineCore::adopt_from_red`] rewinds to the committed floor, bumps the
//! epoch past the predecessor's, and resumes probing; re-fetched requests the
//! progress counters already cover are skipped, so completions stay
//! exactly-once. A zombie predecessor fences itself the moment a probe
//! observes a client fence word above its epoch.
//!
//! ## Consistency (paper §5.3 / §6)
//!
//! Requests execute strictly in ring order within a type. A read may not
//! overtake a conflicting in-flight write: the Spot variant checks address
//! ranges ([`crate::consistency::RangeGate`]); the P4 variant — which cannot
//! do range queries in the data plane — pauses **all** newly probed reads
//! while any write is in flight.
//!
//! ## Batching (paper §6)
//!
//! The Spot variant accumulates up to `BATCH_SIZE` read responses bound for
//! contiguous response-ring space and lands them with a single RDMA write,
//! reducing compute-NIC load and engine verb counts. The P4 variant recycles
//! each read response into a write immediately (batch size 1).

use simnet::fasthash::FastHashMap;
use std::collections::VecDeque;

use cowbird::error::WaitError;
use cowbird::layout::{
    ChannelLayout, RedBlock, TelemetrySnapshot, GREEN_LEN, GREEN_OFFSET, RED_OFFSET, TELEM_LEN,
};
use cowbird::meta::{
    ChaseStatus, ChaseStatusWord, RequestMeta, RwType, CHASE_PTR_MASK, META_ENTRY_BYTES,
};
use cowbird::region::{RegionId, RegionMap};
use cowbird::reqid::{OpType, ReqId};
use p4rt::pktgen::PktGenConfig;
use rdma::cost::CostModel;
use rdma::mem::Rkey;
use simnet::pool::{ArenaStats, BufArena, PoolBuf};
use simnet::time::Duration;
use telemetry::profile::Profiler;
use telemetry::{Component, EventKind, Recorder};

use crate::consistency::RangeGate;

/// Which engine flavour a configuration models.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineVariant {
    /// Programmable switch: per-packet recycling, pause-all-reads gate.
    P4,
    /// Spot VM / SmartNIC core: batching + range-overlap gate.
    Spot,
}

/// Engine configuration for one Cowbird instance (one channel).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    pub variant: EngineVariant,
    /// The client channel's layout (shared at Setup).
    pub layout: ChannelLayout,
    /// Remote regions on the memory pool (region_id -> rkey/base/size).
    pub regions: RegionMap,
    /// Maximum read responses per batched compute write (Spot only; forced
    /// to 1 for P4).
    pub batch_size: usize,
    /// Interval between probes of this channel.
    pub probe_interval: Duration,
    /// Optional adaptive probing (paper §5.2: "the switch can also start at
    /// a low baseline rate and ramp up only when activity is detected"):
    /// (idle interval, empty probes before ramping down).
    pub adaptive_probe: Option<(Duration, u32)>,
    /// Telemetry sink for engine lifecycle events (disabled by default —
    /// one branch per emission point when off).
    pub recorder: Recorder,
    /// Cycle-attribution sink for the engine's probe/execute phases
    /// (disabled by default — one branch per scope when off).
    pub profiler: Profiler,
    /// The channel id used to stamp request-scoped events with the same
    /// [`ReqId`] encoding the client issues, so a span reconstructor can
    /// join both sides of a request's lifecycle.
    pub channel_id: u16,
    /// The recycled-buffer arena op payloads are borrowed from (paper §5.3's
    /// packet-recycling template in software). Every config gets a private
    /// arena by default; a polling group shares one arena per shard across
    /// its channels via [`EngineConfig::with_arena`] so a hot channel's
    /// buffers serve its neighbours too.
    pub arena: BufArena,
    /// Maximum scatter-gather elements per coalesced pool verb. `1` turns
    /// the coalescing pipeline off entirely — no SG merging, no chained
    /// accounting, no completion moderation — restoring one verb per op.
    /// Values above 1 let adjacent contiguous pool reads/writes merge into
    /// one SG verb, let drivers flush each sweep as one chained post per
    /// QP, and moderate red-block completion writes (one completion verb
    /// covering a run of sequence numbers). Spot defaults to coalescing;
    /// P4 recycles per packet and cannot chain, so it defaults to 1.
    pub coalesce_sge: usize,
    /// In-band telemetry readback cadence: every `n` probe timer firings
    /// the core pushes a seqlock-stamped [`TelemetrySnapshot`] into the
    /// channel's readback region as a fire-and-forget compute write (the
    /// compute CPU issues zero verbs to observe it). `0` disables the
    /// readback plane.
    pub telem_every_probes: u32,
}

/// Free-list cap for a config's private arena: enough for a full read
/// batch, the red block, and a pipeline of held writes.
const DEFAULT_ARENA_POOLED: usize = 64;

/// Default scatter-gather width for spot engines. Commodity NICs take up
/// to 30 SGEs per WQE; 16 keeps a merged verb inside one WQE cache line
/// pair while still amortising the doorbell across a full read batch.
const DEFAULT_COALESCE_SGE: usize = 16;

/// Default readback cadence: one 128-byte snapshot write per 16 probes is
/// well under 1% of the engine's probe traffic by bytes and verbs.
const DEFAULT_TELEM_EVERY_PROBES: u32 = 16;

impl EngineConfig {
    pub fn p4(layout: ChannelLayout, regions: RegionMap) -> EngineConfig {
        EngineConfig {
            variant: EngineVariant::P4,
            layout,
            regions,
            batch_size: 1,
            probe_interval: Duration::from_micros(2),
            adaptive_probe: None,
            recorder: Recorder::disabled(),
            profiler: Profiler::disabled(),
            channel_id: 0,
            arena: BufArena::new(DEFAULT_ARENA_POOLED),
            coalesce_sge: 1,
            telem_every_probes: DEFAULT_TELEM_EVERY_PROBES,
        }
    }

    pub fn spot(layout: ChannelLayout, regions: RegionMap, batch_size: usize) -> EngineConfig {
        EngineConfig {
            variant: EngineVariant::Spot,
            layout,
            regions,
            batch_size: batch_size.max(1),
            probe_interval: Duration::from_micros(2),
            adaptive_probe: None,
            recorder: Recorder::disabled(),
            profiler: Profiler::disabled(),
            channel_id: 0,
            arena: BufArena::new(DEFAULT_ARENA_POOLED),
            coalesce_sge: DEFAULT_COALESCE_SGE,
            telem_every_probes: DEFAULT_TELEM_EVERY_PROBES,
        }
    }

    pub fn with_probe_interval(mut self, d: Duration) -> EngineConfig {
        self.probe_interval = d;
        self
    }

    /// Enable adaptive probe ramping: fast (`probe_interval`) while active,
    /// backing off toward `idle` after `threshold` empty probes.
    pub fn with_adaptive_probe(mut self, idle: Duration, threshold: u32) -> EngineConfig {
        self.adaptive_probe = Some((idle, threshold));
        self
    }

    /// Attach a telemetry recorder. Event timestamps follow the recorder's
    /// clock mode; sim drivers push virtual time via `set_now_ns`.
    pub fn with_recorder(mut self, rec: Recorder) -> EngineConfig {
        self.recorder = rec;
        self
    }

    /// Attach a cycle profiler: drivers then wrap the probe and execute
    /// paths in attribution scopes charging the engine's account.
    pub fn with_profiler(mut self, prof: Profiler) -> EngineConfig {
        self.profiler = prof;
        self
    }

    /// Stamp request-scoped events with this channel id (must match the id
    /// the client's `Channel` was created with).
    pub fn with_channel_id(mut self, id: u16) -> EngineConfig {
        self.channel_id = id;
        self
    }

    /// Share a buffer arena with other engines (one arena per polling-group
    /// shard: channels that migrate between shards bring no buffers along,
    /// they just borrow from the new shard's pool).
    pub fn with_arena(mut self, arena: BufArena) -> EngineConfig {
        self.arena = arena;
        self
    }

    /// Cap coalesced pool verbs at `n` scatter-gather elements. `1`
    /// disables the coalescing pipeline (SG merging, chain accounting and
    /// red-write moderation); values are clamped to at least 1.
    pub fn with_coalesce_sge(mut self, n: usize) -> EngineConfig {
        self.coalesce_sge = n.max(1);
        self
    }

    /// Push an in-band telemetry snapshot every `n` probe timer firings
    /// (`0` disables the readback plane).
    pub fn with_telemetry_export(mut self, n: u32) -> EngineConfig {
        self.telem_every_probes = n;
        self
    }

    fn effective_batch(&self) -> usize {
        match self.variant {
            EngineVariant::P4 => 1,
            EngineVariant::Spot => self.batch_size,
        }
    }

    /// Is the coalescing pipeline on? Adjacent pool ops then merge into
    /// SG verbs, and each emitted op vector is priced as one chained post
    /// per destination run instead of one post per op.
    pub fn coalescing(&self) -> bool {
        self.coalesce_sge > 1
    }
}

/// RDMA commands the driver must execute for the core.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FabricOp {
    /// One-sided read of the channel region on the compute node.
    ReadCompute { offset: u64, len: u32, tag: u64 },
    /// One-sided write into the channel region on the compute node. A zero
    /// `tag` is fire-and-forget; a non-zero tag means the core needs the
    /// completion (delivery acknowledgment) fed back via
    /// [`EngineCore::on_data`] with an empty payload — red-block publishes
    /// carry one so the core can track what is *durably* committed in
    /// client memory, which gates conflicting pool writes across a crash.
    ///
    /// `data` is borrowed from the engine's [`BufArena`]: the driver hands
    /// it to the NIC (inline write), and its drop at WQE retirement recycles
    /// it — the software analogue of §5.3's packet recycling.
    WriteCompute {
        offset: u64,
        data: PoolBuf,
        tag: u64,
    },
    /// One-sided read of pool memory.
    ReadPool {
        rkey: Rkey,
        addr: u64,
        len: u32,
        tag: u64,
    },
    /// One-sided write into pool memory (payload pooled, as above).
    WritePool {
        rkey: Rkey,
        addr: u64,
        data: PoolBuf,
    },
    /// Coalesced pool read: one SG verb covering `parts` adjacent reads of
    /// a contiguous remote range starting at `addr`. Each `(len, tag)` part
    /// must be completed (in order) via [`EngineCore::on_data`] with its
    /// slice of the payload — the driver scatters one wire response back
    /// into per-request completions. Produced by the coalescing pass from
    /// runs of contiguous [`FabricOp::ReadPool`] ops; never emitted when
    /// `coalesce_sge <= 1`.
    ReadPoolSg {
        rkey: Rkey,
        addr: u64,
        parts: Vec<(u32, u64)>,
    },
    /// Coalesced pool write: `segments` gathered into one contiguous
    /// remote range starting at `addr` (fire-and-forget, like
    /// [`FabricOp::WritePool`]). Each segment recycles to the arena at WQE
    /// retirement.
    WritePoolSg {
        rkey: Rkey,
        addr: u64,
        segments: Vec<PoolBuf>,
    },
}

/// A completion's payload as the driver hands it over: borrowed bytes, or
/// an owned read's landed buffer, which the core keeps instead of copying.
enum Payload<'a> {
    Borrowed(&'a [u8]),
    Owned(PoolBuf),
}

impl Payload<'_> {
    fn bytes(&self) -> &[u8] {
        match self {
            Payload::Borrowed(b) => b,
            Payload::Owned(b) => b,
        }
    }

    /// The payload in a buffer of its own: the landed one, or a copy
    /// borrowed from `arena`.
    fn into_buf(self, arena: &BufArena) -> PoolBuf {
        match self {
            Payload::Borrowed(b) => arena.take_copy(b),
            Payload::Owned(b) => b,
        }
    }
}

#[derive(Clone, Debug)]
enum TagKind {
    Probe,
    Meta {
        start: u64,
        count: u64,
    },
    WritePayload {
        seq: u64,
        rkey: Rkey,
        addr: u64,
        len: u32,
        /// The pool write may not be issued until the red block covering
        /// read seq `need_reads` has been acknowledged (see
        /// [`EngineCore::handle_write_payload`]).
        need_reads: u64,
    },
    ReadData {
        seq: u64,
        resp_addr: u64,
    },
    /// A red-block publish was delivered to client memory: everything it
    /// carried — in particular `read_progress = reads` — is now durable
    /// across an engine crash.
    RedCommit {
        reads: u64,
    },
    /// One pool access of the active chase (the base pointer-word read or a
    /// dependent block fetch). All per-hop state lives in
    /// [`EngineCore::active_chase`] — at most one hop is ever outstanding.
    ChaseHop,
}

/// Where the active chase is in its hop sequence.
#[derive(Clone, Copy, Debug)]
enum ChasePhase {
    /// Awaiting the 8-byte base pointer word at `req_addr + offset_of_ptr`.
    AwaitPtr,
    /// Awaiting the `len`-byte block at region offset `target`.
    AwaitBlock { target: u64 },
    /// The next block fetch at `target` is deferred: the conflict gate holds
    /// a racing write overlapping it. Retried after writes flush.
    Parked { target: u64 },
}

/// The chase state machine: one dependent-op request being executed hop by
/// hop. While a chase is active nothing behind it in ring order is issued —
/// per-type ordering would otherwise let a later write overtake a hop and
/// the chase could observe a torn pointer→block pair.
#[derive(Clone, Debug)]
struct ActiveChase {
    seq: u64,
    region_id: RegionId,
    rkey: Rkey,
    region_base: u64,
    region_size: u64,
    resp_addr: u64,
    len: u32,
    offset_of_ptr: u8,
    stride: u16,
    /// Effective hop budget (P4 pins this to 1 — table 5 prices exactly one
    /// recirculation per dependent op).
    budget: u8,
    /// Dependent block fetches completed so far.
    hops: u8,
    phase: ChasePhase,
}

/// A parsed request waiting on the consistency gate.
#[derive(Clone, Debug)]
struct ParsedReq {
    meta: RequestMeta,
    /// Per-type sequence number this request will complete as.
    seq: u64,
    /// For writes: the read seq assigned to the last read parsed before
    /// this entry (reads earlier in ring order). The write-after-read
    /// barrier below never has to wait for reads issued *after* the write.
    read_barrier: u64,
}

/// A pool write whose payload has arrived but whose issue is deferred until
/// every earlier overlapping read is durably committed (write-after-read
/// barrier): if the engine crashed after the pool write but before the red
/// block covering the read was delivered, a standby would re-execute the
/// read against the already-overwritten pool and return the *later* write's
/// data — violating issue-order consistency.
#[derive(Clone, Debug)]
struct HeldWrite {
    /// Release once `committed_reads >= need_reads`.
    need_reads: u64,
    seq: u64,
    /// `None` models the unknown-region no-op completion path.
    op: Option<(Rkey, u64, PoolBuf)>,
}

/// Engine statistics, used by experiments (probe overhead, Fig. 14 traffic
/// accounting) and by tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    pub probes_sent: u64,
    pub probes_found_work: u64,
    pub meta_fetches: u64,
    pub meta_entries: u64,
    pub reads_executed: u64,
    pub writes_executed: u64,
    pub pool_reads: u64,
    pub pool_writes: u64,
    pub compute_reads: u64,
    pub compute_writes: u64,
    pub red_updates: u64,
    pub batches_flushed: u64,
    pub reads_paused: u64,
    /// Pool writes deferred by the write-after-read barrier (waiting for
    /// the red commit of an earlier overlapping read).
    pub writes_held: u64,
    pub bytes_to_compute: u64,
    pub bytes_to_pool: u64,
    /// Re-parsed requests skipped during replay because the committed
    /// progress already covered them (takeover / Go-Back-N).
    pub replay_skipped: u64,
    /// Channels adopted from a predecessor's red block.
    pub adoptions: u64,
    /// CAS elections won on the engine-epoch word (standby takeover races).
    pub elections_won: u64,
    /// CAS elections lost: another standby's epoch landed first and this
    /// one stood down.
    pub elections_lost: u64,
    /// Doorbells: runs of same-destination fabric ops a driver can post as
    /// one chained WR list. With coalescing off every op is its own chain.
    pub chain_posts: u64,
    /// Work requests carried by those chains (one per fabric op).
    pub chained_wrs: u64,
    /// Scatter-gather elements across all WRs (1 for plain ops, one per
    /// part/segment for SG ops).
    pub sge_total: u64,
    /// Adjacent contiguous pool ops folded into an SG neighbour.
    pub sg_merges: u64,
    /// Red-block publishes deferred by completion moderation (the dirty
    /// red stayed pending because work was still in flight).
    pub moderation_deferred: u64,
    /// Red-block publishes that actually went to the wire — each covers
    /// the whole contiguous run of seqs completed since the previous one.
    pub moderation_flushes: u64,
    /// In-band telemetry snapshots written to the readback region. Also
    /// counted in `compute_writes`; kept separately because they are a
    /// *cadence* (per probes issued), not a per-op cost — experiments that
    /// attribute verbs to operations subtract them.
    pub telem_exports: u64,
    /// Did this engine observe a client fence above its epoch and stand
    /// down? (Terminal: a fenced core emits no further fabric ops.)
    pub fenced: bool,
    /// Dependent-op requests (`ReadIndirect` / `Chase`) started.
    pub chases_executed: u64,
    /// Pool accesses made by the chase machine (pointer-word reads plus
    /// dependent block fetches). Also counted in `pool_reads`.
    pub chase_hops: u64,
    /// Chases that ended at a null pointer *after* fetching at least one
    /// block (a complete chain walk).
    pub chase_ok: u64,
    /// Chases whose very first dereference was null (index miss).
    pub chase_null: u64,
    /// Chases that ran out of budget with the chain still going.
    pub chase_budget_exhausted: u64,
    /// Chases aborted because a dereferenced hop target fell outside the
    /// region (status to the client, never a fault).
    pub chase_aborts: u64,
    /// Hop fetches deferred by the conflict gate (a racing write to the
    /// hop's target had to flush first).
    pub chase_parked: u64,
    /// Completed-chase depth histogram: bucket `d` counts chases that
    /// fetched exactly `d` blocks (`d` saturates at 15, the wire budget).
    pub chase_depth_hist: [u64; 16],
}

impl EngineStats {
    /// Export every counter into a metrics registry under
    /// `cowbird.engine.*` with the given labels.
    pub fn export(&self, reg: &telemetry::MetricsRegistry, labels: &[(&str, &str)]) {
        reg.counter_add("cowbird.engine.probes_sent", labels, self.probes_sent);
        reg.counter_add(
            "cowbird.engine.probes_found_work",
            labels,
            self.probes_found_work,
        );
        reg.counter_add("cowbird.engine.meta_fetches", labels, self.meta_fetches);
        reg.counter_add("cowbird.engine.meta_entries", labels, self.meta_entries);
        reg.counter_add("cowbird.engine.reads_executed", labels, self.reads_executed);
        reg.counter_add(
            "cowbird.engine.writes_executed",
            labels,
            self.writes_executed,
        );
        reg.counter_add("cowbird.engine.pool_reads", labels, self.pool_reads);
        reg.counter_add("cowbird.engine.pool_writes", labels, self.pool_writes);
        reg.counter_add("cowbird.engine.compute_reads", labels, self.compute_reads);
        reg.counter_add("cowbird.engine.compute_writes", labels, self.compute_writes);
        reg.counter_add("cowbird.engine.red_updates", labels, self.red_updates);
        reg.counter_add(
            "cowbird.engine.batches_flushed",
            labels,
            self.batches_flushed,
        );
        reg.counter_add("cowbird.engine.reads_paused", labels, self.reads_paused);
        reg.counter_add("cowbird.engine.writes_held", labels, self.writes_held);
        reg.counter_add(
            "cowbird.engine.bytes_to_compute",
            labels,
            self.bytes_to_compute,
        );
        reg.counter_add("cowbird.engine.bytes_to_pool", labels, self.bytes_to_pool);
        reg.counter_add("cowbird.engine.replay_skipped", labels, self.replay_skipped);
        reg.counter_add("cowbird.engine.adoptions", labels, self.adoptions);
        reg.counter_add("cowbird.engine.elections_won", labels, self.elections_won);
        reg.counter_add("cowbird.engine.elections_lost", labels, self.elections_lost);
        reg.counter_add(
            "cowbird.engine.coalesce.chain_posts",
            labels,
            self.chain_posts,
        );
        reg.counter_add(
            "cowbird.engine.coalesce.chained_wrs",
            labels,
            self.chained_wrs,
        );
        reg.counter_add("cowbird.engine.coalesce.sge_total", labels, self.sge_total);
        reg.counter_add("cowbird.engine.coalesce.sg_merges", labels, self.sg_merges);
        reg.counter_add(
            "cowbird.engine.coalesce.moderation_deferred",
            labels,
            self.moderation_deferred,
        );
        reg.counter_add(
            "cowbird.engine.coalesce.moderation_flushes",
            labels,
            self.moderation_flushes,
        );
        if self.chain_posts > 0 {
            reg.gauge_set(
                "cowbird.engine.coalesce.chain_len",
                labels,
                self.chained_wrs as f64 / self.chain_posts as f64,
            );
        }
        if self.chained_wrs > 0 {
            reg.gauge_set(
                "cowbird.engine.coalesce.sge_per_wr",
                labels,
                self.sge_total as f64 / self.chained_wrs as f64,
            );
        }
        reg.counter_add(
            "cowbird.engine.telem_exports_count",
            labels,
            self.telem_exports,
        );
        reg.gauge_set(
            "cowbird.engine.fenced",
            labels,
            if self.fenced { 1.0 } else { 0.0 },
        );
        reg.counter_add(
            "cowbird.engine.chase.executed_count",
            labels,
            self.chases_executed,
        );
        reg.counter_add("cowbird.engine.chase.hops_count", labels, self.chase_hops);
        reg.counter_add(
            "cowbird.engine.chase.null_ptr_count",
            labels,
            self.chase_null,
        );
        reg.counter_add(
            "cowbird.engine.chase.budget_exhausted_count",
            labels,
            self.chase_budget_exhausted,
        );
        reg.counter_add(
            "cowbird.engine.chase.aborts_count",
            labels,
            self.chase_aborts,
        );
        reg.counter_add(
            "cowbird.engine.chase.parked_count",
            labels,
            self.chase_parked,
        );
        if self.chases_executed > 0 {
            reg.gauge_set(
                "cowbird.engine.chase.hit_rate",
                labels,
                self.chase_ok as f64 / self.chases_executed as f64,
            );
            let blocks: u64 = self
                .chase_depth_hist
                .iter()
                .enumerate()
                .map(|(d, n)| d as u64 * n)
                .sum();
            reg.gauge_set(
                "cowbird.engine.chase.depth_len",
                labels,
                blocks as f64 / self.chases_executed as f64,
            );
        }
        for (d, n) in self.chase_depth_hist.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            let depth = d.to_string();
            let mut with_depth: Vec<(&str, &str)> = labels.to_vec();
            with_depth.push(("depth", depth.as_str()));
            reg.counter_add("cowbird.engine.chase.depth_count", &with_depth, *n);
        }
    }
}

/// The sans-IO engine core for one channel.
pub struct EngineCore {
    cfg: EngineConfig,
    // Ring cursors (virtual entry indices).
    meta_head: u64,
    fetch_cursor: u64,
    probed_tail: u64,
    /// Next metadata entry index expected by the parser (sanity tracking).
    parse_cursor: u64,
    probe_outstanding: bool,
    // Per-type progress (last completed seq).
    read_progress: u64,
    write_progress: u64,
    // Sequence assignment at parse time.
    next_read_seq: u64,
    next_write_seq: u64,
    /// Every parsed-but-not-completed ring entry in ring order, driving the
    /// committed floor below.
    inflight_entries: VecDeque<(RwType, u64)>,
    /// Committed floor: all entries below `floor_idx` completed, consuming
    /// read seqs up to `floor_reads` and write seqs up to `floor_writes`.
    /// Persisted in the red block so a standby can rewind to it on takeover.
    floor_idx: u64,
    floor_reads: u64,
    floor_writes: u64,
    /// This engine's epoch (published in every red block). A fresh engine
    /// runs at 0; adopting a channel bumps the predecessor's epoch.
    epoch: u64,
    /// Set when a probe observes a client fence word above `epoch`: this
    /// engine has been replaced and must not touch the fabric again.
    fenced: bool,
    /// The fence epoch that ended this engine (valid when `fenced`).
    fence_epoch: u64,
    // Requests parsed but not yet issued (consistency gate applies here).
    pending: VecDeque<ParsedReq>,
    // Conflict tracking for in-flight writes (pool-address ranges).
    gate: RangeGate,
    /// Highest read seq known to be covered by a *delivered* red block —
    /// the durable frontier a standby is guaranteed to rewind no further
    /// than. Advanced by [`TagKind::RedCommit`] acknowledgments.
    committed_reads: u64,
    /// Parsed reads not yet covered by `committed_reads`, in seq order:
    /// (seq, region, lo, hi) over pool offsets. Scanned by the
    /// write-after-read barrier.
    uncommitted_reads: VecDeque<(u64, RegionId, u64, u64)>,
    /// Pool writes deferred by the write-after-read barrier, in seq order.
    held_writes: VecDeque<HeldWrite>,
    // Read-response batch: one pooled buffer accumulating contiguous
    // responses starting at client ring offset `batch_start`. Responses
    // append straight into it — the single copy between the pool's bytes
    // and the compute-bound write.
    batch_buf: PoolBuf,
    batch_start: u64,
    batch_entries: usize,
    batch_last_seq: u64,
    /// Warm merge buffer for [`EngineCore::coalesce_ops`], swapped with the
    /// op list each pass (zero-alloc coalescing in steady state).
    coalesce_scratch: Vec<FabricOp>,
    // Outstanding pool reads (for quiescent batch flush).
    pool_reads_in_flight: usize,
    /// Outstanding write-payload fetches on the compute QP. Each one is a
    /// guaranteed future `on_data`, so both the write stage and red-block
    /// moderation may defer against this count without stranding.
    write_payloads_in_flight: usize,
    /// Pool writes whose payloads arrived and whose barriers are satisfied,
    /// staged (coalescing only) so adjacent writes leave as one
    /// scatter-gather verb instead of a verb apiece.
    write_stage: Vec<(u64, Rkey, u64, PoolBuf)>,
    /// The chase state machine: at most one dependent-op request executes at
    /// a time, and nothing behind it in ring order issues until it retires.
    active_chase: Option<ActiveChase>,
    tags: FastHashMap<u64, TagKind>,
    next_tag: u64,
    red_dirty: bool,
    /// Consecutive red publishes deferred by completion moderation since
    /// the last one that went out (bounds the adaptive deadline).
    moderation_run: u32,
    /// Probe pacing (fixed or adaptive, from the config).
    pktgen: PktGenConfig,
    /// Did the most recent probe discover new work?
    last_probe_found: bool,
    /// Seqlock stamp of the last exported telemetry snapshot (even,
    /// monotone; 0 = never exported).
    telem_seq: u64,
    /// Probe timer firings since the last telemetry export.
    probes_since_telem: u32,
    /// Shard placement hint published in the readback snapshot (set by the
    /// polling group; standalone engines report shard 0, depth 0).
    shard_id: u64,
    shard_queue_depth: u64,
    pub stats: EngineStats,
}

impl EngineCore {
    pub fn new(cfg: EngineConfig) -> EngineCore {
        let pktgen = match cfg.adaptive_probe {
            Some((idle, threshold)) => PktGenConfig::adaptive(cfg.probe_interval, idle, threshold),
            None => PktGenConfig::fixed(cfg.probe_interval),
        };
        EngineCore {
            pktgen,
            last_probe_found: false,
            cfg,
            meta_head: 0,
            fetch_cursor: 0,
            probed_tail: 0,
            parse_cursor: 0,
            probe_outstanding: false,
            read_progress: 0,
            write_progress: 0,
            next_read_seq: 0,
            next_write_seq: 0,
            inflight_entries: VecDeque::new(),
            floor_idx: 0,
            floor_reads: 0,
            floor_writes: 0,
            epoch: 0,
            fenced: false,
            fence_epoch: 0,
            pending: VecDeque::new(),
            gate: RangeGate::new(),
            committed_reads: 0,
            uncommitted_reads: VecDeque::new(),
            held_writes: VecDeque::new(),
            batch_buf: PoolBuf::empty(),
            batch_start: 0,
            batch_entries: 0,
            batch_last_seq: 0,
            coalesce_scratch: Vec::new(),
            pool_reads_in_flight: 0,
            write_payloads_in_flight: 0,
            write_stage: Vec::new(),
            active_chase: None,
            tags: FastHashMap::default(),
            next_tag: 1,
            red_dirty: false,
            moderation_run: 0,
            telem_seq: 0,
            probes_since_telem: 0,
            shard_id: 0,
            shard_queue_depth: 0,
            stats: EngineStats::default(),
        }
    }

    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The telemetry recorder events are emitted through. Sim drivers push
    /// virtual time into it before dispatching to the core.
    pub fn recorder(&self) -> &Recorder {
        &self.cfg.recorder
    }

    /// The cycle profiler charging this engine's attribution account.
    /// Drivers wrap probe/execute dispatch in its scopes and (for the
    /// simulator) push virtual time via `set_now_ns`.
    pub fn profiler(&self) -> &Profiler {
        &self.cfg.profiler
    }

    #[inline]
    fn rec(&self, kind: EventKind, req: u64, a: u64, b: u64) {
        self.cfg.recorder.record(Component::Engine, kind, req, a, b);
    }

    /// The raw `ReqId` the client knows this request by.
    #[inline]
    fn req_raw(&self, op: OpType, seq: u64) -> u64 {
        ReqId::new(op, self.cfg.channel_id, seq).raw()
    }

    /// The channel layout this core serves (drivers use it to recognize
    /// the in-band telemetry region among compute-bound writes).
    pub fn layout(&self) -> &ChannelLayout {
        &self.cfg.layout
    }

    /// The probe interval the driver should schedule (fixed configs).
    pub fn probe_interval(&self) -> Duration {
        self.cfg.probe_interval
    }

    /// The delay until the next probe, advancing the adaptive rate policy
    /// with the most recent probe's outcome. Drivers should prefer this
    /// over [`EngineCore::probe_interval`].
    pub fn next_probe_interval(&mut self) -> Duration {
        self.pktgen.next_interval(self.last_probe_found)
    }

    /// Requests parsed but not yet executed.
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// The recycled-buffer arena this core borrows payloads from.
    pub fn arena(&self) -> &BufArena {
        &self.cfg.arena
    }

    /// Arena hit/miss/recycle counters (exported by drivers as
    /// `cowbird.engine.arena.*`).
    pub fn arena_stats(&self) -> ArenaStats {
        self.cfg.arena.stats()
    }

    /// Rebind the core to another arena (a polling group does this when a
    /// channel migrates to a new shard). Buffers already taken drain back
    /// to the arena they came from; only future takes use the new one.
    pub fn set_arena(&mut self, arena: BufArena) {
        self.cfg.arena = arena;
    }

    fn tag(&mut self, kind: TagKind) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        self.tags.insert(t, kind);
        t
    }

    /// Record which polling-group shard owns this channel and how loaded
    /// that shard is; both ride in the next readback snapshot so the client
    /// can observe placement without any verbs of its own.
    pub fn set_shard_hint(&mut self, shard: u64, queue_depth: u64) {
        self.shard_id = shard;
        self.shard_queue_depth = queue_depth;
    }

    /// Push an in-band telemetry snapshot into the channel's readback
    /// region on the configured probe cadence. The write is fire-and-forget
    /// (tag 0): no completion routing, no client verbs — the client picks
    /// it up on its normal poll sweep. The cadence counts probes actually
    /// *issued*, not timer firings: while a probe is stuck outstanding the
    /// engine's progress counters are frozen, so republishing an identical
    /// snapshot carries no information — and under fabric congestion each
    /// redundant write deepens the very stall that froze the probe (timer
    /// firings outrun completions, telemetry floods the compute QP, probe
    /// latency grows, more firings...). Never emitted once fenced.
    fn maybe_export_telemetry(&mut self, out: &mut Vec<FabricOp>) {
        if self.cfg.telem_every_probes == 0 {
            return;
        }
        self.probes_since_telem += 1;
        if self.probes_since_telem < self.cfg.telem_every_probes {
            return;
        }
        self.probes_since_telem = 0;
        self.telem_seq += 2;
        let arena = self.arena_stats();
        let snap = TelemetrySnapshot {
            sweeps: self.stats.probes_sent,
            backlog: self.pending.len() as u64,
            reads_executed: self.stats.reads_executed,
            writes_executed: self.stats.writes_executed,
            red_updates: self.stats.red_updates,
            chain_posts: self.stats.chain_posts,
            chained_wrs: self.stats.chained_wrs,
            sg_merges: self.stats.sg_merges,
            arena_hits: arena.hits,
            arena_misses: arena.misses,
            arena_recycled: arena.recycled,
            shard_id: self.shard_id,
            shard_queue_depth: self.shard_queue_depth,
        };
        let data = self.cfg.arena.take_copy(&snap.encode(self.telem_seq));
        self.stats.compute_writes += 1;
        self.stats.telem_exports += 1;
        self.stats.bytes_to_compute += TELEM_LEN;
        self.rec(
            EventKind::TelemetryExported,
            0,
            self.telem_seq,
            snap.backlog,
        );
        // The export is one single-SGE RDMA write on the compute QP;
        // charge its post cost so Fig. 2 stays honest about the readback
        // plane's overhead.
        CostModel::paper_defaults().charge_rdma_post_chain(&self.cfg.profiler, 1, 1);
        out.push(FabricOp::WriteCompute {
            offset: self.cfg.layout.telem_offset(),
            data,
            tag: 0,
        });
    }

    /// Phase II trigger: a probe timer fired. Emits the green-block read
    /// (unless one is already outstanding) and, on the readback cadence,
    /// the in-band telemetry snapshot write.
    pub fn on_probe_due(&mut self) -> Vec<FabricOp> {
        let mut out = Vec::new();
        self.on_probe_due_into(&mut out);
        out
    }

    /// Like [`EngineCore::on_probe_due`], but appends into a caller-owned
    /// scratch vector (cleared by the caller between calls): the probe
    /// timer path allocates nothing in steady state.
    pub fn on_probe_due_into(&mut self, out: &mut Vec<FabricOp>) {
        if self.fenced {
            return;
        }
        if !self.probe_outstanding {
            self.maybe_export_telemetry(out);
            self.probe_outstanding = true;
            self.stats.probes_sent += 1;
            self.stats.compute_reads += 1;
            self.rec(EventKind::ProbeSent, 0, self.fetch_cursor, 0);
            let tag = self.tag(TagKind::Probe);
            out.push(FabricOp::ReadCompute {
                offset: GREEN_OFFSET,
                len: GREEN_LEN as u32,
                tag,
            });
        }
        self.account_chains(out);
    }

    /// A fabric read completed; `data` is its payload.
    pub fn on_data(&mut self, tag: u64, data: &[u8]) -> Vec<FabricOp> {
        let mut out = Vec::new();
        self.on_data_into(tag, data, &mut out);
        out
    }

    /// Like [`EngineCore::on_data`], but appends into a caller-owned
    /// scratch vector: the hot data-completion path allocates nothing in
    /// steady state. `out` must arrive empty (the fence path clears it —
    /// nothing staged before the fence may reach the fabric, and the core
    /// cannot distinguish its own staging from a caller's carry-over).
    pub fn on_data_into(&mut self, tag: u64, data: &[u8], out: &mut Vec<FabricOp>) {
        self.dispatch(tag, Payload::Borrowed(data), out);
    }

    /// Like [`EngineCore::on_data_into`], but takes the landed buffer of an
    /// owned read ([`rdma::verbs::WrOp::ReadOwned`]) itself: a write payload
    /// goes on to the pool in it, and the first read response of a batch
    /// becomes the batch buffer, so neither is copied.
    pub fn on_landed_into(&mut self, tag: u64, data: PoolBuf, out: &mut Vec<FabricOp>) {
        self.dispatch(tag, Payload::Owned(data), out);
    }

    fn dispatch(&mut self, tag: u64, data: Payload<'_>, out: &mut Vec<FabricOp>) {
        debug_assert!(out.is_empty(), "the op scratch must arrive empty");
        let Some(kind) = self.tags.remove(&tag) else {
            return;
        };
        if self.fenced {
            return;
        }
        match kind {
            TagKind::Probe => self.handle_probe(data.bytes(), out),
            TagKind::Meta { start, count } => self.handle_meta(start, count, data.bytes(), out),
            TagKind::WritePayload {
                seq,
                rkey,
                addr,
                len,
                need_reads,
            } => self.handle_write_payload(seq, rkey, addr, len, need_reads, data, out),
            TagKind::ReadData { seq, resp_addr } => {
                self.handle_read_data(seq, resp_addr, data, out)
            }
            TagKind::RedCommit { reads } => self.handle_red_commit(reads, out),
            TagKind::ChaseHop => self.handle_chase_hop(data.bytes(), out),
        }
        if self.fenced {
            // The op we just handled observed the fence: nothing staged so
            // far may reach the fabric.
            out.clear();
            return;
        }
        self.drain_pending(out);
        self.maybe_flush_batch(out, false);
        self.maybe_flush_writes(out, false);
        // A parked chase retries after the write path above had its chance
        // to flush the conflicting write out of the gate.
        self.advance_chase(out);
        self.flush_red(out, false);
        if self.cfg.coalescing() {
            self.coalesce_ops(out);
        }
        self.account_chains(out);
    }

    /// Fold runs of adjacent, contiguous pool ops into single
    /// scatter-gather verbs, capped at `coalesce_sge` elements each. Only
    /// *neighbouring* ops merge — the emission order (and therefore the
    /// completion order the client observes) is never changed, so
    /// coalescing is invisible to everything but the verb count.
    fn coalesce_ops(&mut self, out: &mut Vec<FabricOp>) {
        if out.len() < 2 {
            return;
        }
        enum Fuse {
            No,
            ReadPair,
            ReadExtend,
            WritePair,
            WriteExtend,
        }
        let cap = self.cfg.coalesce_sge;
        // The merge target is core-owned scratch swapped in for the pass:
        // steady-state coalescing reuses one warm buffer instead of
        // allocating per completion.
        let mut merged = std::mem::take(&mut self.coalesce_scratch);
        merged.clear();
        merged.reserve(out.len());
        for op in out.drain(..) {
            let fuse = match (merged.last(), &op) {
                (
                    Some(FabricOp::ReadPool {
                        rkey: r1,
                        addr: a1,
                        len: l1,
                        ..
                    }),
                    FabricOp::ReadPool { rkey, addr, .. },
                ) if r1 == rkey && *a1 + u64::from(*l1) == *addr => Fuse::ReadPair,
                (
                    Some(FabricOp::ReadPoolSg {
                        rkey: r1,
                        addr: a1,
                        parts,
                    }),
                    FabricOp::ReadPool { rkey, addr, .. },
                ) if r1 == rkey
                    && parts.len() < cap
                    && *a1 + parts.iter().map(|(l, _)| u64::from(*l)).sum::<u64>() == *addr =>
                {
                    Fuse::ReadExtend
                }
                (
                    Some(FabricOp::WritePool {
                        rkey: r1,
                        addr: a1,
                        data: d1,
                    }),
                    FabricOp::WritePool { rkey, addr, .. },
                ) if r1 == rkey && *a1 + d1.len() as u64 == *addr => Fuse::WritePair,
                (
                    Some(FabricOp::WritePoolSg {
                        rkey: r1,
                        addr: a1,
                        segments,
                    }),
                    FabricOp::WritePool { rkey, addr, .. },
                ) if r1 == rkey
                    && segments.len() < cap
                    && *a1 + segments.iter().map(|s| s.len() as u64).sum::<u64>() == *addr =>
                {
                    Fuse::WriteExtend
                }
                _ => Fuse::No,
            };
            match fuse {
                Fuse::No => merged.push(op),
                Fuse::ReadPair => {
                    let Some(FabricOp::ReadPool {
                        rkey,
                        addr,
                        len,
                        tag,
                    }) = merged.pop()
                    else {
                        unreachable!()
                    };
                    let FabricOp::ReadPool {
                        len: l2, tag: t2, ..
                    } = op
                    else {
                        unreachable!()
                    };
                    merged.push(FabricOp::ReadPoolSg {
                        rkey,
                        addr,
                        parts: vec![(len, tag), (l2, t2)],
                    });
                    self.stats.sg_merges += 1;
                }
                Fuse::ReadExtend => {
                    let Some(FabricOp::ReadPoolSg { parts, .. }) = merged.last_mut() else {
                        unreachable!()
                    };
                    let FabricOp::ReadPool { len, tag, .. } = op else {
                        unreachable!()
                    };
                    parts.push((len, tag));
                    self.stats.sg_merges += 1;
                }
                Fuse::WritePair => {
                    let Some(FabricOp::WritePool { rkey, addr, data }) = merged.pop() else {
                        unreachable!()
                    };
                    let FabricOp::WritePool { data: d2, .. } = op else {
                        unreachable!()
                    };
                    merged.push(FabricOp::WritePoolSg {
                        rkey,
                        addr,
                        segments: vec![data, d2],
                    });
                    self.stats.sg_merges += 1;
                }
                Fuse::WriteExtend => {
                    let Some(FabricOp::WritePoolSg { segments, .. }) = merged.last_mut() else {
                        unreachable!()
                    };
                    let FabricOp::WritePool { data, .. } = op else {
                        unreachable!()
                    };
                    segments.push(data);
                    self.stats.sg_merges += 1;
                }
            }
        }
        std::mem::swap(out, &mut merged);
        // `merged` is now the drained input vector; keep it (and its
        // capacity) as the next pass's scratch.
        self.coalesce_scratch = merged;
    }

    /// Account what the emission costs on the wire: WRs, SGEs, and
    /// doorbells. With coalescing on, a run of ops bound for the same
    /// destination (compute vs. pool) counts as one chained post — the
    /// driver rings one doorbell per run. With coalescing off every op is
    /// its own post, which is exactly the pre-chaining cost model.
    fn account_chains(&mut self, out: &[FabricOp]) {
        let chaining = self.cfg.coalescing();
        let mut prev_pool: Option<bool> = None;
        for op in out {
            let is_pool = matches!(
                op,
                FabricOp::ReadPool { .. }
                    | FabricOp::WritePool { .. }
                    | FabricOp::ReadPoolSg { .. }
                    | FabricOp::WritePoolSg { .. }
            );
            let sges = match op {
                FabricOp::ReadPoolSg { parts, .. } => parts.len() as u64,
                FabricOp::WritePoolSg { segments, .. } => segments.len() as u64,
                _ => 1,
            };
            self.stats.chained_wrs += 1;
            self.stats.sge_total += sges;
            if !chaining || prev_pool != Some(is_pool) {
                self.stats.chain_posts += 1;
                prev_pool = Some(is_pool);
            }
        }
    }

    fn handle_probe(&mut self, data: &[u8], out: &mut Vec<FabricOp>) {
        self.probe_outstanding = false;
        if data.len() < GREEN_LEN as usize {
            return;
        }
        // The fence word rides in the green block, so fencing costs the
        // client nothing beyond the probe the engine was doing anyway.
        let client_epoch = u64::from_le_bytes(data[24..32].try_into().unwrap());
        if client_epoch > self.epoch {
            self.fenced = true;
            self.fence_epoch = client_epoch;
            self.stats.fenced = true;
            self.rec(EventKind::FenceObserved, 0, client_epoch, self.epoch);
            return;
        }
        let meta_tail = u64::from_le_bytes(data[0..8].try_into().unwrap());
        if meta_tail <= self.fetch_cursor {
            self.last_probe_found = false;
            return;
        }
        self.last_probe_found = true;
        self.stats.probes_found_work += 1;
        self.rec(EventKind::ProbeFoundWork, 0, meta_tail, self.fetch_cursor);
        // Fetch [fetch_cursor, meta_tail), split at the ring-wrap boundary so
        // each fetch is one contiguous RDMA read (requirement R1).
        let entries = self.cfg.layout.meta_entries;
        let mut start = self.fetch_cursor;
        let end = meta_tail.min(self.fetch_cursor + entries);
        while start < end {
            let phys_idx = start % entries;
            let span = (entries - phys_idx).min(end - start);
            let tag = self.tag(TagKind::Meta { start, count: span });
            self.stats.meta_fetches += 1;
            self.stats.compute_reads += 1;
            out.push(FabricOp::ReadCompute {
                offset: self.cfg.layout.meta_entry_offset(start),
                len: (span * META_ENTRY_BYTES) as u32,
                tag,
            });
            start += span;
        }
        self.fetch_cursor = end;
        self.probed_tail = meta_tail;
    }

    fn handle_meta(&mut self, start: u64, count: u64, data: &[u8], _out: &mut Vec<FabricOp>) {
        self.rec(EventKind::MetaFetched, 0, start, count);
        for i in 0..count {
            let off = (i * META_ENTRY_BYTES) as usize;
            let Some(chunk) = data.get(off..off + META_ENTRY_BYTES as usize) else {
                break;
            };
            let idx = start + i;
            let Some(meta) = RequestMeta::decode_bytes(chunk, idx) else {
                // Publication race (should not happen: tail was observed
                // after the entry was published) — rewind and re-fetch on
                // the next probe.
                self.fetch_cursor = idx;
                self.probed_tail = idx;
                return;
            };
            debug_assert_eq!(idx, self.parse_cursor, "metadata parsed out of order");
            self.parse_cursor = idx + 1;
            let seq = match meta.rw_type {
                RwType::Read => {
                    self.next_read_seq += 1;
                    // Track the read for the write-after-read barrier until
                    // a red commit covers it (replayed entries may already
                    // be committed).
                    if self.next_read_seq > self.committed_reads {
                        self.uncommitted_reads.push_back((
                            self.next_read_seq,
                            meta.region_id,
                            meta.req_addr,
                            meta.req_addr + meta.length as u64,
                        ));
                    }
                    self.next_read_seq
                }
                RwType::ReadIndirect | RwType::Chase => {
                    // A chase consumes a read seq. Its hop targets are
                    // unknown at parse time, so the write-after-read barrier
                    // tracks a whole-region span: any write parsed behind it
                    // waits for the chase's red commit — which also keeps
                    // those writes out of the gate while the chase hops.
                    self.next_read_seq += 1;
                    if self.next_read_seq > self.committed_reads {
                        self.uncommitted_reads.push_back((
                            self.next_read_seq,
                            meta.region_id,
                            0,
                            u64::MAX,
                        ));
                    }
                    self.next_read_seq
                }
                RwType::Write => {
                    self.next_write_seq += 1;
                    self.next_write_seq
                }
                RwType::Invalid => {
                    // Still occupies a ring slot: track it so the committed
                    // floor stays aligned with ring indices.
                    self.inflight_entries.push_back((RwType::Invalid, 0));
                    continue;
                }
            };
            self.inflight_entries.push_back((meta.rw_type, seq));
            self.pending.push_back(ParsedReq {
                meta,
                seq,
                // Reads earlier in ring order have seqs up to the current
                // read counter; a write's barrier never extends past them.
                read_barrier: self.next_read_seq,
            });
            self.stats.meta_entries += 1;
        }
        // Entries are safely fetched; the client may reuse the slots.
        self.meta_head = start + count;
        self.red_dirty = true;
    }

    /// Execute pending requests in order, subject to the consistency gate.
    fn drain_pending(&mut self, out: &mut Vec<FabricOp>) {
        while let Some(front) = self.pending.front() {
            // Nothing may overtake an active chase: a later write could
            // race a hop (torn pointer→block pair) and a later read's
            // response would land out of seq order.
            if self.active_chase.is_some() {
                break;
            }
            // Replay after a rewind (Go-Back-N or takeover): a re-parsed
            // request the progress counters already cover completed before
            // the crash — re-executing it would double-apply. Completions
            // are in order per type, so skipped requests are always a
            // prefix and the pipeline debug-asserts below stay valid.
            let already_done = match front.meta.rw_type {
                RwType::Read | RwType::ReadIndirect | RwType::Chase => {
                    front.seq <= self.read_progress
                }
                RwType::Write => front.seq <= self.write_progress,
                RwType::Invalid => false,
            };
            if already_done {
                self.pending.pop_front();
                self.stats.replay_skipped += 1;
                continue;
            }
            match front.meta.rw_type {
                RwType::Write => {
                    let req = self.pending.pop_front().unwrap();
                    self.issue_write(req, out);
                }
                RwType::Read => {
                    let blocked = match self.cfg.variant {
                        // P4 cannot range-match in the data plane: pause all
                        // reads while any write is in flight (§5.3).
                        EngineVariant::P4 => !self.gate.is_empty(),
                        // Spot checks for actual overlap (§6).
                        EngineVariant::Spot => {
                            let r = front.meta.region_id;
                            let lo = front.meta.req_addr;
                            let hi = lo + front.meta.length as u64;
                            self.gate.overlaps(r, lo, hi)
                        }
                    };
                    if blocked {
                        self.stats.reads_paused += 1;
                        break;
                    }
                    let req = self.pending.pop_front().unwrap();
                    self.issue_read(req, out);
                }
                RwType::ReadIndirect | RwType::Chase => {
                    // Gate the base pointer word like a plain read of those
                    // 8 bytes; each dependent hop re-checks its own target.
                    let blocked = match self.cfg.variant {
                        EngineVariant::P4 => !self.gate.is_empty(),
                        EngineVariant::Spot => {
                            let r = front.meta.region_id;
                            let lo = front.meta.req_addr + front.meta.chase.offset_of_ptr as u64;
                            self.gate.overlaps(r, lo, lo + 8)
                        }
                    };
                    if blocked {
                        self.stats.reads_paused += 1;
                        break;
                    }
                    let req = self.pending.pop_front().unwrap();
                    self.issue_chase(req, out);
                }
                RwType::Invalid => {
                    self.pending.pop_front();
                }
            }
        }
    }

    /// Phase III step 1b: fetch the to-be-written payload from the compute
    /// node.
    fn issue_write(&mut self, req: ParsedReq, out: &mut Vec<FabricOp>) {
        let Some(region) = self.cfg.regions.get(req.meta.region_id).copied() else {
            // Unknown region: complete it as a no-op to avoid wedging the
            // per-type pipeline. (The client validated, so this indicates a
            // Setup mismatch.) Queued behind any held write so per-type
            // completion order survives the barrier.
            if self.held_writes.is_empty() {
                self.write_progress = req.seq;
                self.red_dirty = true;
            } else {
                self.held_writes.push_back(HeldWrite {
                    need_reads: 0,
                    seq: req.seq,
                    op: None,
                });
            }
            return;
        };
        let pool_addr = region.base + req.meta.resp_addr;
        self.gate.insert(
            req.meta.region_id,
            req.meta.resp_addr,
            req.meta.resp_addr + req.meta.length as u64,
            req.seq,
        );
        // Write-after-read barrier (crash consistency): the pool write may
        // not land while an earlier overlapping read is uncommitted, or a
        // standby rewinding to the red block would re-execute that read
        // against the overwritten pool. Spot range-matches; P4 — no range
        // queries in the data plane — conservatively waits for every read
        // parsed before this write.
        let need_reads = match self.cfg.variant {
            EngineVariant::P4 => req.read_barrier,
            EngineVariant::Spot => {
                let lo = req.meta.resp_addr;
                let hi = lo + req.meta.length as u64;
                self.uncommitted_reads
                    .iter()
                    .filter(|&&(s, r, rlo, rhi)| {
                        s <= req.read_barrier && r == req.meta.region_id && rlo < hi && lo < rhi
                    })
                    .map(|&(s, ..)| s)
                    .max()
                    .unwrap_or(0)
            }
        };
        let tag = self.tag(TagKind::WritePayload {
            seq: req.seq,
            rkey: region.rkey,
            addr: pool_addr,
            len: req.meta.length,
            need_reads,
        });
        self.stats.compute_reads += 1;
        self.write_payloads_in_flight += 1;
        self.rec(
            EventKind::WriteExecuted,
            self.req_raw(OpType::Write, req.seq),
            pool_addr,
            req.meta.length as u64,
        );
        out.push(FabricOp::ReadCompute {
            offset: req.meta.req_addr,
            len: req.meta.length,
            tag,
        });
    }

    /// Phase III step 1a: fetch the requested data from the memory pool.
    fn issue_read(&mut self, req: ParsedReq, out: &mut Vec<FabricOp>) {
        let Some(region) = self.cfg.regions.get(req.meta.region_id).copied() else {
            self.read_progress = req.seq;
            self.red_dirty = true;
            return;
        };
        let tag = self.tag(TagKind::ReadData {
            seq: req.seq,
            resp_addr: req.meta.resp_addr,
        });
        self.pool_reads_in_flight += 1;
        self.stats.pool_reads += 1;
        self.rec(
            EventKind::ReadExecuted,
            self.req_raw(OpType::Read, req.seq),
            region.base + req.meta.req_addr,
            req.meta.length as u64,
        );
        out.push(FabricOp::ReadPool {
            rkey: region.rkey,
            addr: region.base + req.meta.req_addr,
            len: req.meta.length,
            tag,
        });
    }

    /// Start a dependent-op request: install the chase state machine and
    /// emit hop 0, the 8-byte pointer-word read at `req_addr +
    /// offset_of_ptr`. P4 pins the budget to 1 (table 5 prices exactly one
    /// recirculation per dependent op); Spot takes the encoded budget.
    fn issue_chase(&mut self, req: ParsedReq, out: &mut Vec<FabricOp>) {
        let Some(region) = self.cfg.regions.get(req.meta.region_id).copied() else {
            // Unknown region: no-op completion, same as a plain read.
            self.read_progress = req.seq;
            self.red_dirty = true;
            return;
        };
        let budget = match self.cfg.variant {
            EngineVariant::P4 => crate::p4::P4_CHASE_BUDGET,
            EngineVariant::Spot => req.meta.effective_budget(),
        };
        let ptr_off = req.meta.req_addr + req.meta.chase.offset_of_ptr as u64;
        self.stats.chases_executed += 1;
        self.rec(
            EventKind::ReadExecuted,
            self.req_raw(OpType::Read, req.seq),
            region.base + ptr_off,
            req.meta.length as u64,
        );
        let ac = ActiveChase {
            seq: req.seq,
            region_id: req.meta.region_id,
            rkey: region.rkey,
            region_base: region.base,
            region_size: region.size,
            resp_addr: req.meta.resp_addr,
            len: req.meta.length,
            offset_of_ptr: req.meta.chase.offset_of_ptr,
            stride: req.meta.chase.stride,
            budget,
            hops: 0,
            phase: ChasePhase::AwaitPtr,
        };
        if ptr_off + 8 > region.size {
            // The client validates this, so only a Setup mismatch gets
            // here; abort with a status rather than faulting the driver.
            self.stats.chase_aborts += 1;
            self.complete_chase(ac, ChaseStatus::OutOfBounds, 0, &[], out);
            return;
        }
        self.active_chase = Some(ac);
        self.emit_chase_read(ptr_off, 8, out);
    }

    /// One pool access of the active chase. Counts toward
    /// `pool_reads_in_flight` so batching quiescence and red-write
    /// moderation see it as the guaranteed future `on_data` it is.
    fn emit_chase_read(&mut self, off: u64, len: u32, out: &mut Vec<FabricOp>) {
        let ac = self.active_chase.as_ref().expect("chase active");
        let (rkey, addr) = (ac.rkey, ac.region_base + off);
        let tag = self.tag(TagKind::ChaseHop);
        self.pool_reads_in_flight += 1;
        self.stats.pool_reads += 1;
        self.stats.chase_hops += 1;
        out.push(FabricOp::ReadPool {
            rkey,
            addr,
            len,
            tag,
        });
    }

    /// A chase pool access completed: dereference, bound-check, gate-check,
    /// and either hop again, park, or retire the chase.
    fn handle_chase_hop(&mut self, data: &[u8], out: &mut Vec<FabricOp>) {
        self.pool_reads_in_flight = self.pool_reads_in_flight.saturating_sub(1);
        let Some(mut ac) = self.active_chase.take() else {
            debug_assert!(false, "chase hop completion with no active chase");
            return;
        };
        match ac.phase {
            ChasePhase::AwaitPtr => {
                debug_assert!(data.len() >= 8);
                let word = u64::from_le_bytes(data[..8].try_into().unwrap());
                let ptr = word & CHASE_PTR_MASK;
                if ptr == 0 {
                    self.stats.chase_null += 1;
                    self.complete_chase(ac, ChaseStatus::NullPointer, 0, &[], out);
                    return;
                }
                let target = ptr + ac.stride as u64;
                self.start_hop(ac, target, out);
            }
            ChasePhase::AwaitBlock { target } => {
                debug_assert_eq!(data.len(), ac.len as usize);
                ac.hops += 1;
                // The next pointer rides inside the block just fetched —
                // re-dereferencing it costs no extra pool access. A block
                // too short to hold one terminates the chain.
                let ptr_end = ac.offset_of_ptr as usize + 8;
                let next = if ptr_end <= data.len() {
                    u64::from_le_bytes(data[ac.offset_of_ptr as usize..ptr_end].try_into().unwrap())
                        & CHASE_PTR_MASK
                } else {
                    0
                };
                if next == 0 {
                    self.stats.chase_ok += 1;
                    self.complete_chase(ac, ChaseStatus::Ok, target, data, out);
                } else if ac.hops >= ac.budget {
                    self.stats.chase_budget_exhausted += 1;
                    self.complete_chase(ac, ChaseStatus::BudgetExhausted, target, data, out);
                } else {
                    let target = next + ac.stride as u64;
                    self.start_hop(ac, target, out);
                }
            }
            ChasePhase::Parked { .. } => {
                debug_assert!(false, "no hop is outstanding while parked");
                self.active_chase = Some(ac);
            }
        }
    }

    /// Fetch the next dependent block at region offset `target`, parking if
    /// the conflict gate holds a racing write overlapping it (the chase must
    /// observe either the pre-write or post-flush block, never a torn one).
    fn start_hop(&mut self, mut ac: ActiveChase, target: u64, out: &mut Vec<FabricOp>) {
        if target.saturating_add(ac.len as u64) > ac.region_size {
            self.stats.chase_aborts += 1;
            self.complete_chase(ac, ChaseStatus::OutOfBounds, target, &[], out);
            return;
        }
        let blocked = match self.cfg.variant {
            EngineVariant::P4 => !self.gate.is_empty(),
            EngineVariant::Spot => self
                .gate
                .overlaps(ac.region_id, target, target + ac.len as u64),
        };
        if blocked {
            self.stats.chase_parked += 1;
            ac.phase = ChasePhase::Parked { target };
            self.active_chase = Some(ac);
            return;
        }
        ac.phase = ChasePhase::AwaitBlock { target };
        self.active_chase = Some(ac);
        let len = self.active_chase.as_ref().unwrap().len;
        self.emit_chase_read(target, len, out);
    }

    /// Retry a parked chase. Runs after the write path of every `on_data`
    /// pass: gate entries only leave via `emit_pool_write` (or the red
    /// commit releasing a held write), both of which precede this in the
    /// post-handling sequence — so the park can never strand.
    fn advance_chase(&mut self, out: &mut Vec<FabricOp>) {
        let Some(ac) = self.active_chase.as_ref() else {
            return;
        };
        let ChasePhase::Parked { target } = ac.phase else {
            return;
        };
        let blocked = match self.cfg.variant {
            EngineVariant::P4 => !self.gate.is_empty(),
            EngineVariant::Spot => self
                .gate
                .overlaps(ac.region_id, target, target + ac.len as u64),
        };
        if blocked {
            return;
        }
        let ac = self.active_chase.take().unwrap();
        self.start_hop(ac, target, out);
    }

    /// Retire the active chase: flush the read batch so earlier reads'
    /// responses are ordered first, then deliver `[status word | payload]`
    /// to the response ring and advance read progress past the chase's seq.
    fn complete_chase(
        &mut self,
        ac: ActiveChase,
        status: ChaseStatus,
        final_addr: u64,
        payload: &[u8],
        out: &mut Vec<FabricOp>,
    ) {
        // Earlier reads all landed before this hop on the FIFO pool QP;
        // force their batch out so completion order matches seq order.
        self.maybe_flush_batch(out, true);
        debug_assert_eq!(self.read_progress + 1, ac.seq);
        let word = ChaseStatusWord {
            status,
            hops: ac.hops,
            final_addr,
        }
        .encode();
        let mut buf = self.cfg.arena.take();
        buf.extend_from_slice(&word.to_le_bytes());
        buf.extend_from_slice(payload);
        self.stats.compute_writes += 1;
        self.stats.bytes_to_compute += buf.len() as u64;
        self.rec(
            EventKind::ComputeWrite,
            self.req_raw(OpType::Read, ac.seq),
            ac.resp_addr,
            buf.len() as u64,
        );
        out.push(FabricOp::WriteCompute {
            offset: ac.resp_addr,
            data: buf,
            tag: 0,
        });
        self.stats.chase_depth_hist[(ac.hops as usize).min(15)] += 1;
        self.stats.reads_executed = ac.seq;
        self.read_progress = ac.seq;
        self.batch_last_seq = ac.seq;
        self.red_dirty = true;
        debug_assert!(self.active_chase.is_none());
    }

    /// Phase III step 2b: the write payload arrived; write it to the pool —
    /// unless the write-after-read barrier defers it. The gate entry stays
    /// in place while a write is held, so later overlapping reads keep
    /// waiting behind it and read-after-write consistency is preserved.
    #[allow(clippy::too_many_arguments)]
    fn handle_write_payload(
        &mut self,
        seq: u64,
        rkey: Rkey,
        addr: u64,
        len: u32,
        need_reads: u64,
        data: Payload<'_>,
        out: &mut Vec<FabricOp>,
    ) {
        debug_assert_eq!(data.bytes().len(), len as usize);
        self.write_payloads_in_flight = self.write_payloads_in_flight.saturating_sub(1);
        // The payload's own buffer, shared by the staged (held) path and
        // the immediate apply path: a landed buffer goes on as it is.
        let buf = data.into_buf(&self.cfg.arena);
        // Writes apply in seq order, so anything behind a held write queues
        // too, even if its own barrier is already satisfied.
        if need_reads > self.committed_reads || !self.held_writes.is_empty() {
            self.stats.writes_held += 1;
            self.rec(
                EventKind::WriteHeld,
                self.req_raw(OpType::Write, seq),
                need_reads,
                self.committed_reads,
            );
            self.held_writes.push_back(HeldWrite {
                need_reads,
                seq,
                op: Some((rkey, addr, buf)),
            });
            return;
        }
        self.apply_pool_write(seq, rkey, addr, buf, out);
    }

    /// A write is ready for the pool. With coalescing on it is *staged*
    /// rather than issued: adjacent writes whose payloads arrive in the same
    /// fetch window then leave as one scatter-gather verb (see
    /// [`EngineCore::maybe_flush_writes`]). The conflict-gate entry stays in
    /// place while staged, so overlapping reads keep waiting and
    /// read-after-write order is preserved; `write_progress` (and therefore
    /// the red block) only advances when the write actually reaches the
    /// fabric queue.
    fn apply_pool_write(
        &mut self,
        seq: u64,
        rkey: Rkey,
        addr: u64,
        data: PoolBuf,
        out: &mut Vec<FabricOp>,
    ) {
        if !self.cfg.coalescing() {
            self.emit_pool_write(seq, rkey, addr, data, out);
            return;
        }
        self.write_stage.push((seq, rkey, addr, data));
        if self.write_stage.len() >= self.cfg.effective_batch() {
            self.flush_write_stage(out);
        }
    }

    /// Flush the staged writes. When `force` is false, flush only once no
    /// more payloads are in flight (each outstanding fetch is a guaranteed
    /// future `on_data` that re-runs this check, so staging never strands a
    /// write) — the same quiescence discipline as the read-response batch.
    fn maybe_flush_writes(&mut self, out: &mut Vec<FabricOp>, force: bool) {
        if self.write_stage.is_empty() {
            return;
        }
        if !force
            && self.write_payloads_in_flight > 0
            && self.write_stage.len() < self.cfg.effective_batch()
        {
            return;
        }
        self.flush_write_stage(out);
    }

    fn flush_write_stage(&mut self, out: &mut Vec<FabricOp>) {
        // Drained in place: the stage keeps its capacity for the next run.
        let mut stage = std::mem::take(&mut self.write_stage);
        for (seq, rkey, addr, data) in stage.drain(..) {
            self.emit_pool_write(seq, rkey, addr, data, out);
        }
        self.write_stage = stage;
    }

    fn emit_pool_write(
        &mut self,
        seq: u64,
        rkey: Rkey,
        addr: u64,
        data: PoolBuf,
        out: &mut Vec<FabricOp>,
    ) {
        self.stats.pool_writes += 1;
        self.stats.bytes_to_pool += data.len() as u64;
        out.push(FabricOp::WritePool { rkey, addr, data });
        // The engine->pool QP is FIFO: once the write is issued, any later
        // read observes it. The conflict window closes here.
        self.gate.remove(seq);
        self.stats.writes_executed += 1;
        // Writes are issued and complete in order (single queue).
        debug_assert_eq!(seq, self.write_progress + 1);
        self.write_progress = seq;
        self.red_dirty = true;
    }

    /// A red-block publish was acknowledged: its `read_progress` is durable
    /// in client memory, so the reads it covers can never be re-executed by
    /// a standby. Retire them from the barrier set and release any held
    /// writes whose barrier is now satisfied (in order — writes never
    /// overtake each other).
    fn handle_red_commit(&mut self, reads: u64, out: &mut Vec<FabricOp>) {
        self.rec(EventKind::RedCommitted, 0, reads, self.committed_reads);
        self.committed_reads = self.committed_reads.max(reads);
        while self
            .uncommitted_reads
            .front()
            .is_some_and(|&(s, ..)| s <= self.committed_reads)
        {
            self.uncommitted_reads.pop_front();
        }
        while self
            .held_writes
            .front()
            .is_some_and(|w| w.need_reads <= self.committed_reads)
        {
            let w = self.held_writes.pop_front().unwrap();
            match w.op {
                Some((rkey, addr, data)) => self.apply_pool_write(w.seq, rkey, addr, data, out),
                None => {
                    // Deferred unknown-region no-op completion.
                    self.write_progress = w.seq;
                    self.red_dirty = true;
                }
            }
        }
    }

    /// Phase III step 2a: read data arrived from the pool; stage it for the
    /// compute node (batched for Spot, immediate for P4).
    fn handle_read_data(
        &mut self,
        seq: u64,
        resp_addr: u64,
        data: Payload<'_>,
        out: &mut Vec<FabricOp>,
    ) {
        self.pool_reads_in_flight -= 1;
        // Responses arrive in issue order (single FIFO QP to the pool).
        debug_assert_eq!(seq, self.read_progress + self.batch_entries as u64 + 1);
        // Batch only if contiguous with the current buffer.
        if self.batch_entries > 0 && self.batch_start + self.batch_buf.len() as u64 != resp_addr {
            self.maybe_flush_batch(out, true);
        }
        if self.batch_entries == 0 {
            // The batch's first response becomes its buffer (a landed one
            // as it is)...
            self.batch_buf = data.into_buf(&self.cfg.arena);
            self.batch_start = resp_addr;
        } else {
            // ...and the rest append to it: at most one copy between the
            // pool's bytes and the compute-bound write.
            self.batch_buf.extend_from_slice(data.bytes());
        }
        self.batch_entries += 1;
        self.batch_last_seq = seq;
        if self.batch_entries >= self.cfg.effective_batch() {
            self.maybe_flush_batch(out, true);
        }
    }

    /// Flush the read-response batch as one compute write. When `force` is
    /// false, flush only if the engine is quiescent (no more responses are
    /// coming that could extend the batch).
    fn maybe_flush_batch(&mut self, out: &mut Vec<FabricOp>, force: bool) {
        if self.batch_entries == 0 {
            return;
        }
        if !force
            && self.pool_reads_in_flight > 0
            && self.batch_entries < self.cfg.effective_batch()
        {
            return;
        }
        let start_addr = self.batch_start;
        let payload = std::mem::replace(&mut self.batch_buf, PoolBuf::empty());
        let entries = self.batch_entries as u64;
        self.batch_entries = 0;
        self.stats.batches_flushed += 1;
        self.stats.compute_writes += 1;
        self.stats.bytes_to_compute += payload.len() as u64;
        if self.cfg.recorder.is_enabled() {
            // The flush carries every response in the contiguous seq range
            // ending at `batch_last_seq`; stamp each request so the tail
            // waterfall sees its fabric phase end here (not just the last
            // request of the batch).
            for seq in (self.batch_last_seq + 1 - entries)..=self.batch_last_seq {
                self.rec(
                    EventKind::ComputeWrite,
                    self.req_raw(OpType::Read, seq),
                    start_addr,
                    payload.len() as u64,
                );
            }
        }
        out.push(FabricOp::WriteCompute {
            offset: start_addr,
            data: payload,
            tag: 0,
        });
        self.stats.reads_executed = self.batch_last_seq;
        // The compute QP is FIFO: the progress update below (red block) is
        // ordered after the data write.
        self.read_progress = self.batch_last_seq;
        self.red_dirty = true;
    }

    /// Phase IV: write the red bookkeeping block if anything changed.
    ///
    /// With coalescing on, publishes are *moderated*: while pool reads are
    /// still in flight the dirty red block is deferred so one completion
    /// verb covers the whole contiguous run of seqs finished in between.
    /// The deferral is bounded by an adaptive deadline — proportional to
    /// the current backlog, never more than a batch — and skipped entirely
    /// when the engine is quiescent, so a lone low-load request still gets
    /// its completion on the first flush (no p99 regression at inflight 1).
    /// `force` bypasses moderation (adoption handoff, explicit
    /// [`EngineCore::red_update`]).
    fn flush_red(&mut self, out: &mut Vec<FabricOp>, force: bool) {
        if !self.red_dirty {
            return;
        }
        if !force && self.cfg.coalescing() {
            // Defer only while pool reads or write-payload fetches are
            // outstanding: each one is a guaranteed future `on_data` that
            // re-runs this flush, so the deferred red can never strand (a
            // held write waiting on a red commit always gets its publish
            // once the in-flight run drains).
            let cap = (self.pending.len()
                + self.pool_reads_in_flight
                + self.write_payloads_in_flight
                + self.batch_entries)
                .clamp(1, self.cfg.effective_batch());
            if (self.pool_reads_in_flight > 0 || self.write_payloads_in_flight > 0)
                && (self.moderation_run as usize) < cap
            {
                self.moderation_run += 1;
                self.stats.moderation_deferred += 1;
                return;
            }
        }
        self.moderation_run = 0;
        self.stats.moderation_flushes += 1;
        self.red_dirty = false;
        // Publish the freshest committed floor a standby could rewind to.
        self.advance_floor();
        self.stats.red_updates += 1;
        self.stats.compute_writes += 1;
        self.rec(
            EventKind::RedPublished,
            0,
            self.write_progress,
            self.read_progress,
        );
        let red = RedBlock {
            meta_head: self.meta_head,
            write_progress: self.write_progress,
            read_progress: self.read_progress,
            engine_epoch: self.epoch,
            floor_idx: self.floor_idx,
            floor_reads: self.floor_reads,
            floor_writes: self.floor_writes,
        };
        let data = self.cfg.arena.take_copy(&red.encode());
        self.stats.bytes_to_compute += data.len() as u64;
        // Tagged: the delivery acknowledgment advances `committed_reads`
        // (see `handle_red_commit`), which the write-after-read barrier
        // waits on.
        let tag = self.tag(TagKind::RedCommit {
            reads: red.read_progress,
        });
        out.push(FabricOp::WriteCompute {
            offset: RED_OFFSET,
            data,
            tag,
        });
    }

    /// Advance the committed floor past every leading ring entry whose
    /// request has completed. The floor is the longest ring prefix with no
    /// incomplete entry — an incomplete entry blocks completed stragglers
    /// behind it on purpose, because rewinding is only safe to a prefix.
    fn advance_floor(&mut self) {
        while let Some(&(rw, seq)) = self.inflight_entries.front() {
            let done = match rw {
                RwType::Read | RwType::ReadIndirect | RwType::Chase => seq <= self.read_progress,
                RwType::Write => seq <= self.write_progress,
                RwType::Invalid => true,
            };
            if !done {
                break;
            }
            match rw {
                RwType::Read | RwType::ReadIndirect | RwType::Chase => self.floor_reads = seq,
                RwType::Write => self.floor_writes = seq,
                RwType::Invalid => {}
            }
            self.floor_idx += 1;
            self.inflight_entries.pop_front();
        }
    }

    /// Go-Back-N restart (paper §5.3): after a detected loss, the driver
    /// resets the engine to its last committed state; probing resumes from
    /// the head pointer.
    pub fn reset_to_committed(&mut self) {
        self.tags.clear();
        self.pending.clear();
        self.batch_buf = PoolBuf::empty();
        self.batch_entries = 0;
        self.gate.clear();
        // Barrier state: held payloads and tracked reads are re-derived by
        // the replay; `committed_reads` survives — acknowledged red blocks
        // stay delivered no matter what was lost afterwards.
        self.held_writes.clear();
        self.uncommitted_reads.clear();
        self.pool_reads_in_flight = 0;
        self.write_payloads_in_flight = 0;
        self.write_stage.clear();
        self.probe_outstanding = false;
        self.moderation_run = 0;
        // A mid-flight chase dies with its hop completions; the replay
        // re-parses the chase request and re-executes it from hop 0.
        self.active_chase = None;
        self.advance_floor();
        self.inflight_entries.clear();
        self.rewind_to_floor();
        self.rec(EventKind::GoBackN, 0, self.floor_reads, self.floor_writes);
    }

    /// Rewind every cursor to the committed floor. Entries above the floor
    /// (including completed stragglers stranded behind an incomplete one by
    /// cross-type reordering) are re-fetched: the client never reuses a slot
    /// above the floor, so the re-fetch sees the original bytes, re-derives
    /// the original seqs, and `drain_pending` skips anything the progress
    /// counters already cover. (An earlier floor of `read_progress +
    /// write_progress` — a completed-request *count* — was wrong exactly in
    /// that straggler case: it could rewind past an incomplete entry.)
    fn rewind_to_floor(&mut self) {
        self.meta_head = self.floor_idx;
        self.fetch_cursor = self.floor_idx;
        self.probed_tail = self.floor_idx;
        self.parse_cursor = self.floor_idx;
        self.next_read_seq = self.floor_reads;
        self.next_write_seq = self.floor_writes;
        self.batch_last_seq = self.read_progress;
        self.red_dirty = true;
    }

    /// Standby takeover: adopt a channel from the predecessor's last
    /// committed red block, as read back from the client region. Rewinds to
    /// the persisted floor and runs at `predecessor_epoch + 1`, so the first
    /// red publish simultaneously announces the takeover to the client and
    /// out-epochs any zombie still writing. Returns the new epoch, or `None`
    /// if `red_bytes` is not a full red block.
    pub fn adopt_from_red(&mut self, red_bytes: &[u8]) -> Option<u64> {
        let red = RedBlock::decode(red_bytes)?;
        self.read_progress = red.read_progress;
        self.write_progress = red.write_progress;
        self.floor_idx = red.floor_idx;
        self.floor_reads = red.floor_reads;
        self.floor_writes = red.floor_writes;
        self.epoch = red.engine_epoch + 1;
        self.fenced = false;
        self.fence_epoch = 0;
        self.tags.clear();
        self.pending.clear();
        self.batch_buf = PoolBuf::empty();
        self.batch_entries = 0;
        self.gate.clear();
        self.held_writes.clear();
        self.uncommitted_reads.clear();
        // The adopted red block came *from* client memory: its progress is
        // durable by construction.
        self.committed_reads = red.read_progress;
        self.inflight_entries.clear();
        self.pool_reads_in_flight = 0;
        self.write_payloads_in_flight = 0;
        self.write_stage.clear();
        self.probe_outstanding = false;
        self.active_chase = None;
        self.rewind_to_floor();
        self.stats.adoptions += 1;
        self.rec(EventKind::Adopted, 0, self.epoch, red.floor_idx);
        Some(self.epoch)
    }

    /// Record a won CAS election on the engine-epoch word: this standby's
    /// compare-and-swap installed `installed` over `bid` and it will adopt.
    pub fn note_election_won(&mut self, bid: u64, installed: u64) {
        self.stats.elections_won += 1;
        self.rec(EventKind::ElectionWon, 0, bid, installed);
    }

    /// Record a lost CAS election: the epoch word held `observed` instead of
    /// `bid` (a peer standby adopted first); this engine stands down.
    pub fn note_election_lost(&mut self, bid: u64, observed: u64) {
        self.stats.elections_lost += 1;
        self.rec(EventKind::ElectionLost, 0, bid, observed);
    }

    /// Force a red-block publish (used by a standby right after adoption so
    /// the client observes the new epoch without waiting for request
    /// traffic). Emits nothing once fenced.
    pub fn red_update(&mut self) -> Vec<FabricOp> {
        if self.fenced {
            return Vec::new();
        }
        let mut out = Vec::new();
        self.red_dirty = true;
        self.flush_red(&mut out, true);
        self.account_chains(&out);
        out
    }

    /// This engine's epoch (published in every red block).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Has a client fence above this engine's epoch been observed?
    pub fn is_fenced(&self) -> bool {
        self.fenced
    }

    /// [`WaitError::StaleEpoch`] once fenced — drivers surface this to
    /// their owner instead of continuing to run the channel.
    pub fn check_fenced(&self) -> Result<(), WaitError> {
        if self.fenced {
            Err(WaitError::StaleEpoch {
                engine: self.epoch,
                fence: self.fence_epoch,
            })
        } else {
            Ok(())
        }
    }

    /// Current progress counters (test/inspection hook).
    pub fn progress(&self) -> (u64, u64) {
        (self.read_progress, self.write_progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cowbird::channel::Channel;
    use cowbird::layout::ChannelLayout;
    use cowbird::region::{RegionMap, RemoteRegion};
    use rdma::mem::Region;

    /// A loopback driver: executes FabricOps directly against a client
    /// channel region and a pool region, synchronously.
    struct LoopDriver {
        compute: Region,
        pool: Region,
    }

    impl LoopDriver {
        fn run(&self, core: &mut EngineCore, ops: Vec<FabricOp>) {
            let mut queue = ops;
            while !queue.is_empty() {
                let mut next = Vec::new();
                for op in queue {
                    match op {
                        FabricOp::ReadCompute { offset, len, tag } => {
                            let data = self.compute.read_vec(offset, len as usize).unwrap();
                            next.extend(core.on_data(tag, &data));
                        }
                        FabricOp::WriteCompute { offset, data, tag } => {
                            self.compute.write(offset, &data).unwrap();
                            // Synchronous fabric: delivery acknowledgments
                            // are immediate.
                            if tag != 0 {
                                next.extend(core.on_data(tag, &[]));
                            }
                        }
                        FabricOp::ReadPool { addr, len, tag, .. } => {
                            let data = self.pool.read_vec(addr, len as usize).unwrap();
                            next.extend(core.on_data(tag, &data));
                        }
                        FabricOp::WritePool { addr, data, .. } => {
                            self.pool.write(addr, &data).unwrap();
                        }
                        FabricOp::ReadPoolSg { addr, parts, .. } => {
                            // One SG verb on the wire; the driver scatters
                            // the contiguous payload back into per-part
                            // completions, in order.
                            let mut cursor = addr;
                            for (len, tag) in parts {
                                let data = self.pool.read_vec(cursor, len as usize).unwrap();
                                cursor += u64::from(len);
                                next.extend(core.on_data(tag, &data));
                            }
                        }
                        FabricOp::WritePoolSg { addr, segments, .. } => {
                            let mut cursor = addr;
                            for seg in segments {
                                self.pool.write(cursor, &seg).unwrap();
                                cursor += seg.len() as u64;
                            }
                        }
                    }
                }
                queue = next;
            }
        }

        fn probe(&self, core: &mut EngineCore) {
            let ops = core.on_probe_due();
            self.run(core, ops);
        }
    }

    fn setup(variant: EngineVariant, batch: usize) -> (Channel, EngineCore, LoopDriver) {
        let mut regions = RegionMap::new();
        regions.insert(
            1,
            RemoteRegion {
                rkey: 5,
                base: 0,
                size: 1 << 16,
            },
        );
        let layout = ChannelLayout::default_sizes();
        let ch = Channel::new(0, layout, regions.clone());
        let cfg = match variant {
            EngineVariant::P4 => EngineConfig::p4(layout, regions),
            EngineVariant::Spot => EngineConfig::spot(layout, regions, batch),
        };
        let core = EngineCore::new(cfg);
        let driver = LoopDriver {
            compute: ch.region().clone(),
            pool: Region::new(1 << 16),
        };
        (ch, core, driver)
    }

    #[test]
    fn probe_empty_channel_finds_nothing() {
        let (_ch, mut core, driver) = setup(EngineVariant::Spot, 8);
        driver.probe(&mut core);
        assert_eq!(core.stats.probes_sent, 1);
        assert_eq!(core.stats.probes_found_work, 0);
        assert_eq!(core.stats.meta_fetches, 0);
    }

    #[test]
    fn telemetry_readback_exports_on_cadence_without_client_verbs() {
        use cowbird::layout::{TelemetrySnapshot, TELEM_LEN};
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 8);
        let mut core2 = EngineCore::new(core.config().clone().with_telemetry_export(4));
        std::mem::swap(&mut core, &mut core2);
        core.set_shard_hint(3, 11);
        driver.pool.write(0, b"AAAAAAAA").unwrap();
        let layout = core.config().layout;
        let telem = |d: &LoopDriver| {
            let raw = d
                .compute
                .read_vec(layout.telem_offset(), TELEM_LEN as usize)
                .unwrap();
            TelemetrySnapshot::decode(&raw)
        };
        // The readback region stays a zeroed (undecodable) image until the
        // cadence fires.
        for _ in 0..3 {
            let h = ch.async_read(1, 0, 8).unwrap();
            driver.probe(&mut core);
            assert!(ch.is_complete(h.id));
            ch.take_response(&h).unwrap();
            assert_eq!(telem(&driver), None);
        }
        // Fourth probe tick: the snapshot lands in-band. The client issued
        // nothing — the engine's compute-bound write carried it.
        driver.probe(&mut core);
        let (seq, snap) = telem(&driver).expect("snapshot after 4th probe tick");
        assert_eq!(seq, 2);
        assert_eq!(snap.sweeps, 3, "stats as of the export instant");
        assert_eq!(snap.reads_executed, 3);
        assert_eq!(snap.shard_id, 3);
        assert_eq!(snap.shard_queue_depth, 11);
        // Next cadence boundary: a fresh image with a higher stamp.
        for _ in 0..4 {
            driver.probe(&mut core);
        }
        let (seq2, snap2) = telem(&driver).unwrap();
        assert_eq!(seq2, 4);
        assert!(snap2.sweeps > snap.sweeps);
    }

    #[test]
    fn read_request_round_trips() {
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 8);
        driver.pool.write(100, b"hello pool").unwrap();
        let h = ch.async_read(1, 100, 10).unwrap();
        driver.probe(&mut core);
        assert!(ch.is_complete(h.id));
        assert_eq!(ch.take_response(&h).unwrap(), b"hello pool");
        assert_eq!(core.stats.pool_reads, 1);
        assert_eq!(core.progress(), (1, 0));
    }

    #[test]
    fn write_request_round_trips() {
        let (mut ch, mut core, driver) = setup(EngineVariant::P4, 1);
        let id = ch.async_write(1, 200, b"write me").unwrap();
        driver.probe(&mut core);
        assert!(ch.is_complete(id));
        assert_eq!(driver.pool.read_vec(200, 8).unwrap(), b"write me");
        assert_eq!(core.progress(), (0, 1));
    }

    #[test]
    fn write_after_read_same_address_held_until_read_commit() {
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 8);
        driver.pool.write(0, b"OLD!").unwrap();
        let r = ch.async_read(1, 0, 4).unwrap();
        let w = ch.async_write(1, 0, b"NEW!").unwrap();
        driver.probe(&mut core);
        assert!(ch.is_complete(r.id));
        assert!(ch.is_complete(w));
        assert_eq!(ch.take_response(&r).unwrap(), b"OLD!");
        assert_eq!(driver.pool.read_vec(0, 4).unwrap(), b"NEW!");
        // The pool write waited for the read's red commit: had the engine
        // crashed in between, a standby rewinding to the red block would
        // have re-executed the read against the overwritten pool.
        assert_eq!(core.stats.writes_held, 1);
    }

    #[test]
    fn p4_holds_any_write_behind_uncommitted_reads_spot_only_overlaps() {
        // Spot range-matches: a non-overlapping write is not deferred.
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 8);
        let _r = ch.async_read(1, 0, 4).unwrap();
        let w = ch.async_write(1, 512, b"far").unwrap();
        driver.probe(&mut core);
        assert!(ch.is_complete(w));
        assert_eq!(core.stats.writes_held, 0);

        // P4 cannot range-match: every write waits for the reads parsed
        // before it to commit.
        let (mut ch, mut core, driver) = setup(EngineVariant::P4, 1);
        let _r = ch.async_read(1, 0, 4).unwrap();
        let w = ch.async_write(1, 512, b"far").unwrap();
        driver.probe(&mut core);
        assert!(ch.is_complete(w));
        assert_eq!(core.stats.writes_held, 1);
    }

    #[test]
    fn read_after_write_same_address_sees_new_data() {
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 8);
        driver.pool.write(0, b"OLD!").unwrap();
        let w = ch.async_write(1, 0, b"NEW!").unwrap();
        let r = ch.async_read(1, 0, 4).unwrap();
        driver.probe(&mut core);
        assert!(ch.is_complete(w));
        assert!(ch.is_complete(r.id));
        assert_eq!(ch.take_response(&r).unwrap(), b"NEW!");
    }

    #[test]
    fn batching_coalesces_contiguous_responses() {
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 100);
        for i in 0..10u64 {
            driver.pool.write(i * 8, &i.to_le_bytes()).unwrap();
        }
        let handles: Vec<_> = (0..10u64)
            .map(|i| ch.async_read(1, i * 8, 8).unwrap())
            .collect();
        driver.probe(&mut core);
        // All ten responses landed with a single batched compute write
        // (plus red updates).
        assert_eq!(core.stats.batches_flushed, 1);
        for (i, h) in handles.iter().enumerate() {
            assert!(ch.is_complete(h.id));
            let data = ch.take_response(h).unwrap();
            assert_eq!(
                u64::from_le_bytes(data.as_slice().try_into().unwrap()),
                i as u64
            );
        }
    }

    #[test]
    fn contiguous_pool_reads_coalesce_into_one_sg_verb() {
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 100);
        for i in 0..10u64 {
            driver.pool.write(i * 8, &i.to_le_bytes()).unwrap();
        }
        let handles: Vec<_> = (0..10u64)
            .map(|i| ch.async_read(1, i * 8, 8).unwrap())
            .collect();
        driver.probe(&mut core);
        for (i, h) in handles.iter().enumerate() {
            assert!(ch.is_complete(h.id));
            let data = ch.take_response(h).unwrap();
            assert_eq!(
                u64::from_le_bytes(data.as_slice().try_into().unwrap()),
                i as u64
            );
        }
        // Ten adjacent reads fused into one ten-element SG verb: nine
        // merges, with the logical op count untouched.
        assert_eq!(core.stats.sg_merges, 9);
        assert_eq!(core.stats.pool_reads, 10);
        assert_eq!(core.stats.batches_flushed, 1);
        // Fewer doorbells than WRs, fewer WRs than SGEs.
        assert!(core.stats.chain_posts < core.stats.chained_wrs);
        assert!(core.stats.chained_wrs < core.stats.sge_total);
    }

    #[test]
    fn sg_width_cap_splits_long_runs() {
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 100);
        let mut core2 = EngineCore::new(core.config().clone().with_coalesce_sge(4));
        std::mem::swap(&mut core, &mut core2);
        for i in 0..20u64 {
            driver.pool.write(i * 8, &i.to_le_bytes()).unwrap();
        }
        let handles: Vec<_> = (0..20u64)
            .map(|i| ch.async_read(1, i * 8, 8).unwrap())
            .collect();
        driver.probe(&mut core);
        for h in &handles {
            assert!(ch.is_complete(h.id));
        }
        // Twenty adjacent reads under a 4-wide cap: five 4-part verbs,
        // three merges each.
        assert_eq!(core.stats.sg_merges, 15);
        assert_eq!(core.stats.pool_reads, 20);
    }

    #[test]
    fn released_held_writes_gather_into_one_sg_verb() {
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 8);
        let r = ch.async_read(1, 0, 16).unwrap();
        ch.async_write(1, 0, b"AAAAAAAA").unwrap();
        ch.async_write(1, 8, b"BBBBBBBB").unwrap();

        let ops = core.on_probe_due();
        let FabricOp::ReadCompute { offset, len, tag } = ops[0].clone() else {
            panic!()
        };
        let green = driver.compute.read_vec(offset, len as usize).unwrap();
        let ops = core.on_data(tag, &green);
        let FabricOp::ReadCompute { offset, len, tag } = ops[0].clone() else {
            panic!()
        };
        let meta = driver.compute.read_vec(offset, len as usize).unwrap();
        let mut ops = core.on_data(tag, &meta);
        // ops[0] reads the pool for `r`; the rest fetch the write
        // payloads. Deliver both payloads while the read is still in
        // flight so the write-after-read barrier holds both writes.
        let FabricOp::ReadPool {
            addr,
            len,
            tag: rtag,
            ..
        } = ops.remove(0)
        else {
            panic!()
        };
        let mut later = Vec::new();
        for op in ops {
            let FabricOp::ReadCompute { offset, len, tag } = op else {
                panic!()
            };
            let payload = driver.compute.read_vec(offset, len as usize).unwrap();
            later.extend(core.on_data(tag, &payload));
        }
        assert_eq!(core.stats.writes_held, 2);
        // The read completes: its red commit releases both writes in one
        // emission, where they gather into a single SG pool verb.
        let data = driver.pool.read_vec(addr, len as usize).unwrap();
        later.extend(core.on_data(rtag, &data));
        driver.run(&mut core, later);
        assert!(ch.is_complete(r.id));
        assert_eq!(driver.pool.read_vec(0, 16).unwrap(), b"AAAAAAAABBBBBBBB");
        assert!(core.stats.sg_merges >= 1);
        assert_eq!(core.stats.pool_writes, 2);
    }

    #[test]
    fn moderation_covers_a_read_run_with_one_red_publish() {
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 100);
        for i in 0..10u64 {
            driver.pool.write(i * 8, &i.to_le_bytes()).unwrap();
        }
        for i in 0..10u64 {
            ch.async_read(1, i * 8, 8).unwrap();
        }
        driver.probe(&mut core);
        assert_eq!(core.progress(), (10, 0));
        // The meta-advance publish and every per-completion publish were
        // deferred while reads streamed in: one red covered the whole run.
        assert!(core.stats.moderation_deferred >= 1);
        assert_eq!(core.stats.red_updates, 1);
        assert_eq!(core.stats.moderation_flushes, 1);
    }

    #[test]
    fn moderation_never_delays_a_quiescent_completion() {
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 8);
        driver.pool.write(0, b"AAAAAAAA").unwrap();
        let h = ch.async_read(1, 0, 8).unwrap();
        driver.probe(&mut core);
        assert!(ch.is_complete(h.id));
        // A lone request's red publish is deferred at most while its own
        // pool read is outstanding — the completing event flushes it.
        assert!(core.stats.moderation_deferred <= 1);
        assert!(core.stats.moderation_flushes >= 1);
    }

    #[test]
    fn coalescing_disabled_posts_one_verb_per_op() {
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 100);
        let mut core2 = EngineCore::new(core.config().clone().with_coalesce_sge(1));
        std::mem::swap(&mut core, &mut core2);
        for i in 0..10u64 {
            driver.pool.write(i * 8, &i.to_le_bytes()).unwrap();
        }
        for i in 0..10u64 {
            ch.async_read(1, i * 8, 8).unwrap();
        }
        driver.probe(&mut core);
        assert_eq!(core.progress(), (10, 0));
        assert_eq!(core.stats.sg_merges, 0);
        assert_eq!(core.stats.moderation_deferred, 0);
        // Every op is its own doorbell: posts == WRs == SGEs.
        assert_eq!(core.stats.chain_posts, core.stats.chained_wrs);
        assert_eq!(core.stats.chained_wrs, core.stats.sge_total);
    }

    #[test]
    fn p4_variant_never_batches() {
        let (mut ch, mut core, driver) = setup(EngineVariant::P4, 100);
        for i in 0..5u64 {
            ch.async_read(1, i * 8, 8).unwrap();
        }
        driver.probe(&mut core);
        assert_eq!(core.stats.batches_flushed, 5);
        assert_eq!(core.progress(), (5, 0));
    }

    #[test]
    fn many_rounds_with_ring_wrap() {
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 4);
        for round in 0..5000u64 {
            let h = ch.async_read(1, (round % 100) * 8, 8).unwrap();
            let w = ch
                .async_write(1, (round % 100) * 8, &round.to_le_bytes())
                .unwrap();
            driver.probe(&mut core);
            assert!(ch.is_complete(h.id), "round {round}");
            assert!(ch.is_complete(w), "round {round}");
            ch.take_response(&h).unwrap();
        }
        assert_eq!(core.progress(), (5000, 5000));
        assert_eq!(core.stats.meta_entries, 10000);
    }

    #[test]
    fn p4_pauses_reads_behind_any_write_spot_only_behind_overlaps() {
        // The §5.3 distinction, observed through the reads_paused counter:
        // a write to [0,8) followed by a read of a DISJOINT range [1024,
        // 1032) pauses on P4 (no range queries in the data plane) but not
        // on Spot.
        for (variant, expect_pause) in [(EngineVariant::P4, true), (EngineVariant::Spot, false)] {
            let (mut ch, mut core, driver) = setup(variant, 1);
            driver.pool.write(1024, b"DISJOINT").unwrap();
            ch.async_write(1, 0, b"busywrite").unwrap();
            let h = ch.async_read(1, 1024, 8).unwrap();
            driver.probe(&mut core);
            // Both variants complete everything (the pause is transient —
            // it lifts when the write's pool packet is issued)...
            assert!(ch.is_complete(h.id), "{variant:?}");
            assert_eq!(ch.take_response(&h).unwrap(), b"DISJOINT");
            // ...but only P4 had to pause the disjoint read.
            assert_eq!(
                core.stats.reads_paused > 0,
                expect_pause,
                "{variant:?}: paused {}",
                core.stats.reads_paused
            );
        }
        // And both variants pause on a genuine overlap.
        for variant in [EngineVariant::P4, EngineVariant::Spot] {
            let (mut ch, mut core, driver) = setup(variant, 1);
            ch.async_write(1, 0, b"AAAAAAAA").unwrap();
            let h = ch.async_read(1, 0, 8).unwrap();
            driver.probe(&mut core);
            assert!(ch.is_complete(h.id));
            assert_eq!(ch.take_response(&h).unwrap(), b"AAAAAAAA");
            assert!(
                core.stats.reads_paused > 0,
                "{variant:?} must gate the overlap"
            );
        }
    }

    #[test]
    fn gbn_reset_reexecutes_uncommitted_requests_exactly_once() {
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 1);
        driver.pool.write(0, b"AAAAAAAA").unwrap();
        driver.pool.write(64, b"BBBBBBBB").unwrap();
        driver.pool.write(128, b"CCCCCCCC").unwrap();
        let h1 = ch.async_read(1, 0, 8).unwrap();
        let h2 = ch.async_read(1, 64, 8).unwrap();
        let h3 = ch.async_read(1, 128, 8).unwrap();

        // Run the probe but simulate losing everything after the first
        // read completes: deliver ops selectively.
        let ops = core.on_probe_due();
        // ops[0] is the green read; execute it by hand.
        let FabricOp::ReadCompute { offset, len, tag } = ops[0].clone() else {
            panic!()
        };
        let green = driver.compute.read_vec(offset, len as usize).unwrap();
        let ops = core.on_data(tag, &green);
        // Metadata fetch next.
        let FabricOp::ReadCompute { offset, len, tag } = ops[0].clone() else {
            panic!()
        };
        let meta = driver.compute.read_vec(offset, len as usize).unwrap();
        let ops = core.on_data(tag, &meta);
        // Three pool reads issued; deliver only the FIRST, then "crash".
        let FabricOp::ReadPool { addr, len, tag, .. } = ops[0].clone() else {
            panic!()
        };
        let data = driver.pool.read_vec(addr, len as usize).unwrap();
        let ops2 = core.on_data(tag, &data);
        driver.run(&mut core, ops2);
        assert_eq!(core.progress(), (1, 0));

        // Loss detected: Go-Back-N restart.
        core.reset_to_committed();
        // The next probe re-fetches and re-executes reads 2 and 3 (read 1
        // is committed and its ring slot may be reused).
        driver.probe(&mut core);
        assert_eq!(core.progress(), (3, 0));
        assert!(ch.is_complete(h1.id));
        assert!(ch.is_complete(h2.id));
        assert!(ch.is_complete(h3.id));
        assert_eq!(ch.take_response(&h2).unwrap(), b"BBBBBBBB");
        assert_eq!(ch.take_response(&h3).unwrap(), b"CCCCCCCC");
        let _ = h1;
    }

    /// Run `core` up to the point where the read's pool data has landed but
    /// the write payload is still "in flight": ring order is W1 then R1, so
    /// read_progress = 1 strands a completed straggler behind the
    /// incomplete write. Returns with `core.progress() == (1, 0)`.
    fn run_to_straggler(core: &mut EngineCore, driver: &LoopDriver) {
        let ops = core.on_probe_due();
        let FabricOp::ReadCompute { offset, len, tag } = ops[0].clone() else {
            panic!()
        };
        let green = driver.compute.read_vec(offset, len as usize).unwrap();
        let ops = core.on_data(tag, &green);
        let FabricOp::ReadCompute { offset, len, tag } = ops[0].clone() else {
            panic!()
        };
        let meta = driver.compute.read_vec(offset, len as usize).unwrap();
        let ops = core.on_data(tag, &meta);
        // ops[0] fetches the write payload, ops[1] the read's pool data.
        // Deliver only the latter.
        let FabricOp::ReadPool { addr, len, tag, .. } = ops[1].clone() else {
            panic!()
        };
        let data = driver.pool.read_vec(addr, len as usize).unwrap();
        let ops = core.on_data(tag, &data);
        driver.run(core, ops);
        assert_eq!(core.progress(), (1, 0));
    }

    #[test]
    fn floor_blocks_rewind_past_incomplete_entry() {
        // Cross-type completion reorder: the read (ring entry 1) completes
        // while the write (ring entry 0) is still in flight. The committed
        // floor must stay at entry 0 — a completed-request *count* would
        // say 1 and rewind past the incomplete write, losing it.
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 1);
        driver.pool.write(64, b"RRRRRRRR").unwrap();
        let w = ch.async_write(1, 0, b"WWWWWWWW").unwrap();
        let r = ch.async_read(1, 64, 8).unwrap();
        run_to_straggler(&mut core, &driver);
        assert!(ch.is_complete(r.id));
        assert!(!ch.is_complete(w));

        // The write payload is lost: Go-Back-N restart.
        core.reset_to_committed();
        driver.probe(&mut core);
        assert_eq!(core.progress(), (1, 1));
        assert!(ch.is_complete(w));
        assert_eq!(driver.pool.read_vec(0, 8).unwrap(), b"WWWWWWWW");
        assert_eq!(ch.take_response(&r).unwrap(), b"RRRRRRRR");
        // The completed read was re-parsed and skipped, not re-executed.
        assert_eq!(core.stats.replay_skipped, 1);
        assert_eq!(core.stats.pool_reads, 1);
    }

    #[test]
    fn standby_adopts_channel_and_resumes_exactly_once() {
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 1);
        driver.pool.write(64, b"RRRRRRRR").unwrap();
        let w = ch.async_write(1, 0, b"WWWWWWWW").unwrap();
        let r = ch.async_read(1, 64, 8).unwrap();
        run_to_straggler(&mut core, &driver);

        // The primary dies mid-write. The client fences its epoch, then a
        // standby adopts the channel from the persisted red block.
        assert_eq!(ch.fence_engine(), 1);
        let mut standby = EngineCore::new(core.config().clone());
        let red = driver
            .compute
            .read_vec(RED_OFFSET, cowbird::layout::RED_LEN as usize)
            .unwrap();
        assert_eq!(standby.adopt_from_red(&red), Some(1));
        assert_eq!(standby.epoch(), 1);
        assert_eq!(standby.stats.adoptions, 1);
        let ops = standby.red_update();
        driver.run(&mut standby, ops);
        driver.probe(&mut standby);
        assert_eq!(standby.progress(), (1, 1));
        assert!(ch.is_complete(w));
        assert!(ch.is_complete(r.id));
        assert_eq!(ch.take_response(&r).unwrap(), b"RRRRRRRR");
        assert_eq!(driver.pool.read_vec(0, 8).unwrap(), b"WWWWWWWW");
        // The read that completed under the primary was skipped on replay.
        assert_eq!(standby.stats.replay_skipped, 1);
        // The client fenced this epoch itself, so the standby's red writes
        // arrive at exactly the fence epoch — accepted, and not counted as
        // a surprise takeover.
        assert_eq!(ch.engine_epoch(), 1);
        assert_eq!(ch.stats.fences, 1);
        assert_eq!(ch.stats.engine_takeovers, 0);
        assert_eq!(ch.stats.stale_red_ignored, 0);

        // The zombie primary fences itself on its next probe and goes
        // silent: no fabric ops, ever again.
        let ops = core.on_probe_due();
        assert_eq!(ops.len(), 1);
        let FabricOp::ReadCompute { offset, len, tag } = ops[0].clone() else {
            panic!()
        };
        let green = driver.compute.read_vec(offset, len as usize).unwrap();
        assert!(core.on_data(tag, &green).is_empty());
        assert!(core.is_fenced());
        assert!(core.stats.fenced);
        assert_eq!(
            core.check_fenced(),
            Err(WaitError::StaleEpoch {
                engine: 0,
                fence: 1
            })
        );
        assert!(core.on_probe_due().is_empty());
        assert!(core.red_update().is_empty());
    }

    #[test]
    fn recorder_stamps_engine_events_with_the_clients_reqid() {
        use std::sync::Arc;
        use telemetry::EventRing;

        let mut regions = RegionMap::new();
        regions.insert(
            1,
            RemoteRegion {
                rkey: 5,
                base: 0,
                size: 1 << 16,
            },
        );
        let layout = ChannelLayout::default_sizes();
        let mut ch = Channel::new(0, layout, regions.clone());
        let ring = Arc::new(EventRing::with_capacity(256));
        let cfg = EngineConfig::spot(layout, regions, 8)
            .with_recorder(Recorder::attached(Arc::clone(&ring), 1, true))
            .with_channel_id(0);
        let mut core = EngineCore::new(cfg);
        let driver = LoopDriver {
            compute: ch.region().clone(),
            pool: Region::new(1 << 16),
        };
        driver.pool.write(100, b"hello").unwrap();
        let h = ch.async_read(1, 100, 5).unwrap();
        let w = ch.async_write(1, 400, b"bye").unwrap();
        driver.probe(&mut core);
        assert!(ch.is_complete(h.id));
        assert!(ch.is_complete(w));

        let events = ring.snapshot();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        for want in [
            EventKind::ProbeSent,
            EventKind::ProbeFoundWork,
            EventKind::MetaFetched,
            EventKind::ReadExecuted,
            EventKind::WriteExecuted,
            EventKind::ComputeWrite,
            EventKind::RedPublished,
            EventKind::RedCommitted,
        ] {
            assert!(kinds.contains(&want), "missing {want:?} in {kinds:?}");
        }
        // The engine re-derived exactly the ids the client issued, so a span
        // reconstructor can join both sides of each request.
        let read_exec = events
            .iter()
            .find(|e| e.kind == EventKind::ReadExecuted)
            .unwrap();
        assert_eq!(read_exec.req, h.id.raw());
        assert_eq!(read_exec.b, 5, "payload b = len");
        let write_exec = events
            .iter()
            .find(|e| e.kind == EventKind::WriteExecuted)
            .unwrap();
        assert_eq!(write_exec.req, w.raw());
        assert!(events.iter().all(|e| e.component == Component::Engine));
        assert!(events.iter().all(|e| e.node == 1));
    }

    #[test]
    fn probe_while_outstanding_is_suppressed() {
        let (_ch, mut core, _driver) = setup(EngineVariant::Spot, 1);
        let ops1 = core.on_probe_due();
        assert_eq!(ops1.len(), 1);
        let ops2 = core.on_probe_due();
        assert!(ops2.is_empty(), "second probe suppressed while outstanding");
        assert_eq!(core.stats.probes_sent, 1);
    }

    use cowbird::meta::ChaseStatus;

    /// Write a pointer word (48-bit address, upper 16 bits are app tag
    /// bits the engine must mask off) at `at` in the pool.
    fn plant_ptr(driver: &LoopDriver, at: u64, addr: u64, tag: u16) {
        let word = ((tag as u64) << 48) | addr;
        driver.pool.write(at, &word.to_le_bytes()).unwrap();
    }

    /// Write a 16-byte chase block at `at`: an 8-byte next pointer followed
    /// by 8 payload bytes.
    fn plant_block(driver: &LoopDriver, at: u64, next: u64, payload: &[u8; 8]) {
        plant_ptr(driver, at, next, 0);
        driver.pool.write(at + 8, payload).unwrap();
    }

    #[test]
    fn read_indirect_round_trips_in_one_request() {
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 8);
        // Slot word at 64 points (with tag bits set, which must be masked)
        // at a terminal record at 4096.
        plant_ptr(&driver, 64, 4096, 0xBEEF);
        plant_block(&driver, 4096, 0, b"recordAA");
        let h = ch.async_read_indirect(1, 64, 0, 0, 16).unwrap();
        driver.probe(&mut core);
        assert!(ch.is_complete(h.id));
        let outcome = ch.take_chase_response(&h).unwrap();
        assert_eq!(outcome.status.status, ChaseStatus::Ok);
        assert_eq!(outcome.status.hops, 1);
        assert_eq!(outcome.status.final_addr, 4096);
        assert_eq!(&outcome.data[8..], b"recordAA");
        assert_eq!(core.stats.chases_executed, 1);
        assert_eq!(core.stats.chase_ok, 1);
        // One pointer-word access plus one block fetch, zero extra ring
        // entries: the whole GET was a single client round trip.
        assert_eq!(core.stats.chase_hops, 2);
        assert_eq!(core.stats.chase_depth_hist[1], 1);
        assert_eq!(core.progress(), (1, 0));
    }

    #[test]
    fn chase_walks_chain_until_null_or_budget() {
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 8);
        plant_ptr(&driver, 64, 1024, 0);
        plant_block(&driver, 1024, 2048, b"node-one");
        plant_block(&driver, 2048, 4096, b"node-two");
        plant_block(&driver, 4096, 0, b"node-end");

        // Generous budget: walks to the terminal node.
        let h = ch.async_chase(1, 64, 0, 0, 16, 8).unwrap();
        driver.probe(&mut core);
        let outcome = ch.take_chase_response(&h).unwrap();
        assert_eq!(outcome.status.status, ChaseStatus::Ok);
        assert_eq!(outcome.status.hops, 3);
        assert_eq!(outcome.status.final_addr, 4096);
        assert_eq!(&outcome.data[8..], b"node-end");

        // Budget 2: stops at node two and says so.
        let h = ch.async_chase(1, 64, 0, 0, 16, 2).unwrap();
        driver.probe(&mut core);
        let outcome = ch.take_chase_response(&h).unwrap();
        assert_eq!(outcome.status.status, ChaseStatus::BudgetExhausted);
        assert_eq!(outcome.status.hops, 2);
        assert_eq!(outcome.status.final_addr, 2048);
        assert_eq!(&outcome.data[8..], b"node-two");
        assert_eq!(core.stats.chase_budget_exhausted, 1);
        assert_eq!(core.stats.chase_ok, 1);
    }

    #[test]
    fn chase_null_pointer_and_out_of_bounds_abort_with_status() {
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 8);
        // Empty slot: null pointer, no block fetched.
        let h = ch.async_read_indirect(1, 64, 0, 0, 16).unwrap();
        driver.probe(&mut core);
        let outcome = ch.take_chase_response(&h).unwrap();
        assert_eq!(outcome.status.status, ChaseStatus::NullPointer);
        assert_eq!(outcome.status.hops, 0);
        assert!(outcome.data.is_empty());
        assert_eq!(core.stats.chase_null, 1);

        // Pointer past the region: the hop aborts pool-side instead of
        // faulting the driver.
        plant_ptr(&driver, 64, (1 << 16) - 4, 0);
        let h = ch.async_read_indirect(1, 64, 0, 0, 16).unwrap();
        driver.probe(&mut core);
        let outcome = ch.take_chase_response(&h).unwrap();
        assert_eq!(outcome.status.status, ChaseStatus::OutOfBounds);
        assert!(outcome.data.is_empty());
        assert_eq!(core.stats.chase_aborts, 1);
        assert_eq!(core.progress(), (2, 0));
    }

    #[test]
    fn chase_parks_behind_racing_write_and_observes_flushed_data() {
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 1);
        plant_ptr(&driver, 64, 1024, 0);
        plant_block(&driver, 1024, 0, b"OLDOLDOL");
        // An uncommitted read of the record holds the overlapping write in
        // the staged gate; the chase dereferences the slot, lands on the
        // gated range, and must park rather than race the flush.
        let r = ch.async_read(1, 1024, 16).unwrap();
        let mut new_block = [0u8; 16];
        new_block[8..].copy_from_slice(b"NEWNEWNE");
        let w = ch.async_write(1, 1024, &new_block).unwrap();
        let c = ch.async_read_indirect(1, 64, 0, 0, 16).unwrap();
        driver.probe(&mut core);
        assert!(ch.is_complete(r.id));
        assert!(ch.is_complete(w));
        assert!(ch.is_complete(c.id));
        assert_eq!(&ch.take_response(&r).unwrap()[8..], b"OLDOLDOL");
        let outcome = ch.take_chase_response(&c).unwrap();
        assert_eq!(outcome.status.status, ChaseStatus::Ok);
        // The chase parked while the write was staged, then resumed and saw
        // the *flushed* block — never a torn pointer→block pair.
        assert!(core.stats.chase_parked >= 1, "chase must have parked");
        assert_eq!(core.stats.writes_held, 1);
        assert_eq!(&outcome.data[8..], b"NEWNEWNE");
        assert_eq!(core.progress(), (2, 1));
    }

    #[test]
    fn p4_pins_chase_budget_to_one_hop() {
        // Table 5 prices exactly one dependent recirculation: a deep chain
        // comes back after one hop with BudgetExhausted so the client can
        // continue, rather than consuming unbounded switch passes.
        let (mut ch, mut core, driver) = setup(EngineVariant::P4, 1);
        plant_ptr(&driver, 64, 1024, 0);
        plant_block(&driver, 1024, 2048, b"node-one");
        plant_block(&driver, 2048, 0, b"node-two");
        let h = ch.async_chase(1, 64, 0, 0, 16, 8).unwrap();
        driver.probe(&mut core);
        let outcome = ch.take_chase_response(&h).unwrap();
        assert_eq!(outcome.status.status, ChaseStatus::BudgetExhausted);
        assert_eq!(outcome.status.hops, 1);
        assert_eq!(outcome.status.final_addr, 1024);
        assert_eq!(&outcome.data[8..], b"node-one");
    }

    #[test]
    fn chase_orders_with_plain_reads_and_replays_after_reset() {
        let (mut ch, mut core, driver) = setup(EngineVariant::Spot, 8);
        driver.pool.write(100, b"before").unwrap();
        plant_ptr(&driver, 64, 1024, 0);
        plant_block(&driver, 1024, 0, b"chase-ok");
        driver.pool.write(200, b"after!").unwrap();
        let a = ch.async_read(1, 100, 6).unwrap();
        let c = ch.async_read_indirect(1, 64, 0, 0, 16).unwrap();
        let b = ch.async_read(1, 200, 6).unwrap();
        driver.probe(&mut core);
        assert_eq!(ch.take_response(&a).unwrap(), b"before");
        assert_eq!(&ch.take_chase_response(&c).unwrap().data[8..], b"chase-ok");
        assert_eq!(ch.take_response(&b).unwrap(), b"after!");
        assert_eq!(core.progress(), (3, 0));

        // Go-Back-N mid-chase: the reset clears the chase state machine and
        // the replay re-executes from hop 0 without double counting.
        let d = ch.async_read_indirect(1, 64, 0, 0, 16).unwrap();
        let ops = core.on_probe_due();
        // Drop the in-flight ops on the floor (simulated loss), rewind.
        drop(ops);
        core.reset_to_committed();
        driver.probe(&mut core);
        assert!(ch.is_complete(d.id));
        let outcome = ch.take_chase_response(&d).unwrap();
        assert_eq!(outcome.status.status, ChaseStatus::Ok);
        assert_eq!(&outcome.data[8..], b"chase-ok");
        assert_eq!(core.progress(), (4, 0));
    }
}
