//! Engine scale-out: a sharded multi-channel polling group (paper §6).
//!
//! One Cowbird engine serves *many* channels — the paper provisions "one
//! channel per hardware thread" on the compute side, while the offload side
//! is supposed to stay cheap enough that a couple of spot cores (or one
//! switch pipeline) carry the whole machine.
//! [`SpotAgent`](crate::spot::SpotAgent) is the one-thread-per-channel
//! existence proof; [`EngineGroup`] is the shape a deployment actually
//! wants:
//!
//! * **M worker threads, each owning a shard of N channels.** A worker
//!   makes one non-blocking [`EngineCore`](crate::core::EngineCore) pass
//!   per channel per sweep: issue the green probe when its (per-channel,
//!   adaptive) deadline is due, poll that channel's completion queue,
//!   dispatch fetched data through the state machine. No channel ever blocks its neighbours.
//! * **An adaptive idle ladder.** A worker whose whole shard went quiet
//!   spins briefly (latency), then yields (fairness), then *parks* on the
//!   group [`Doorbell`] — woken either by a co-located client bumping the
//!   doorbell on post, or by the earliest probe deadline in the shard
//!   (remote clients cannot ring a process-local bell, so probing remains
//!   the discovery path of record). After a timeout wake that finds no
//!   work the worker goes straight back to park: an idle shard burns zero
//!   spin iterations.
//! * **Hot-channel rebalancing.** Every rebalance interval a worker
//!   publishes its shard's observed ops and, if it is running hot against
//!   the lightest shard, donates its hottest channel — the whole slot
//!   (core, queue pairs, in-flight ops) moves through the receiving
//!   shard's inbox. Migration is fencing-safe for the same reason standby
//!   takeover is: the slot is exclusively owned by exactly one worker at
//!   a time, and a fenced core is retired rather than moved.
//! * **A recycled-buffer arena per shard** ([`simnet::pool::BufArena`], the
//!   software analogue of §5.3's packet recycling): every channel adopted
//!   by a shard is rebound to the shard's arena, so a hot channel's
//!   retired payload buffers immediately serve its neighbours.
//!
//! Wiring model: each channel carries its own [`SpotWiring`] — its own
//! queue pairs (and, on the emulated fabric, its own NIC handle), exactly
//! as a per-channel [`SpotAgent`](crate::spot::SpotAgent) would. A slot's
//! completion queue is therefore private to the slot, which is what makes
//! handing the whole slot to another worker trivially safe.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cowbird::Doorbell;
use rdma::verbs::WorkRequest;
use simnet::pool::{ArenaStats, BufArena};
use telemetry::profile::{CostAccount, Phase};
use telemetry::{Component, MetricsRegistry, Profiler};

use crate::core::{EngineConfig, EngineStats};
use crate::slot::{EmuPort, Slot};
use crate::spot::SpotWiring;

/// Idle ladder stage 1: busy-spin sweeps before yielding.
const SPIN_LIMIT: u32 = 64;
/// Idle ladder stage 2: yielding sweeps before parking.
const YIELD_LIMIT: u32 = 64;
/// Free-list budget of each shard's buffer arena, *per attached channel*.
/// The shard re-caps its arena to `ARENA_POOLED × channels` whenever its
/// channel count changes (adoption, donation, steal, retirement), so a
/// shard driving eight channels pools eight channels' worth of in-flight
/// payload buffers instead of thrashing a single-channel-sized free list.
const ARENA_POOLED: usize = 256;

/// Tuning for an [`EngineGroup`].
#[derive(Clone, Debug)]
pub struct GroupConfig {
    /// Worker threads (= shards).
    pub workers: usize,
    /// Upper bound on one park (also how often an empty shard checks its
    /// inbox). The actual park is the *earlier* of this and the shard's
    /// next probe deadline.
    pub park_timeout: Duration,
    /// How often a worker publishes shard load and considers donating its
    /// hottest channel to the lightest shard.
    pub rebalance_interval: Duration,
    /// Hysteresis: donate only when this shard's interval ops exceed twice
    /// the lightest shard's plus this floor (avoids ping-ponging channels
    /// on noise).
    pub rebalance_min_ops: u64,
    /// How often a worker looks for a *stuck* neighbour: a shard whose
    /// published backlog has stayed above the hysteresis bound (same `2x +
    /// rebalance_min_ops` guard as donation) for two consecutive checks
    /// clearly missed its own rebalance ticks, so the lightest shard
    /// steals its hottest channel instead of waiting for a donation that
    /// is not coming.
    pub steal_interval: Duration,
}

impl Default for GroupConfig {
    fn default() -> GroupConfig {
        GroupConfig {
            workers: 1,
            park_timeout: Duration::from_millis(1),
            rebalance_interval: Duration::from_millis(10),
            rebalance_min_ops: 16,
            steal_interval: Duration::from_millis(20),
        }
    }
}

impl GroupConfig {
    /// A group with `workers` shards and default tuning.
    pub fn with_workers(workers: usize) -> GroupConfig {
        GroupConfig {
            workers: workers.max(1),
            ..GroupConfig::default()
        }
    }

    /// Override the park bound (tests use long parks to prove idleness).
    pub fn with_park_timeout(mut self, d: Duration) -> GroupConfig {
        self.park_timeout = d;
        self
    }

    /// Override the rebalance cadence.
    pub fn with_rebalance_interval(mut self, d: Duration) -> GroupConfig {
        self.rebalance_interval = d;
        self
    }

    /// Override the work-stealing check cadence.
    pub fn with_steal_interval(mut self, d: Duration) -> GroupConfig {
        self.steal_interval = d;
        self
    }
}

/// Final statistics of a channel the group has retired (fenced, or still
/// owned at [`EngineGroup::stop`]).
#[derive(Clone, Copy, Debug)]
pub struct FinishedChannel {
    pub channel_id: u16,
    pub stats: EngineStats,
}

/// A point-in-time view of one shard, for gauges and tests.
#[derive(Clone, Debug)]
pub struct ShardSnapshot {
    pub shard: usize,
    /// Channels currently owned by the shard's worker.
    pub channels: usize,
    /// Executed ops observed over the last completed rebalance interval.
    pub load_ops: u64,
    pub sweeps: u64,
    /// Busy-spin iterations (ladder stage 1).
    pub spins: u64,
    /// Yield iterations (ladder stage 2).
    pub yields: u64,
    /// Times the worker parked on the doorbell.
    pub parks: u64,
    /// Parks that ended in a doorbell ring (vs a timeout).
    pub wakes: u64,
    pub migrations_out: u64,
    pub migrations_in: u64,
    /// Steal requests this shard filed against stuck neighbours.
    pub steals_requested: u64,
    /// Steal requests this shard honored by handing a channel over.
    pub steals_honored: u64,
    /// Fenced channels retired by this shard.
    pub retired: u64,
    /// The shard arena's hit/miss/recycle counters.
    pub arena: ArenaStats,
    /// Wall nanoseconds attributed to probing across the shard.
    pub probe_ns: u64,
    /// Wall nanoseconds attributed to executing fetched data.
    pub execute_ns: u64,
}

#[derive(Default)]
struct ShardCounters {
    sweeps: AtomicU64,
    spins: AtomicU64,
    yields: AtomicU64,
    parks: AtomicU64,
    wakes: AtomicU64,
    migrations_out: AtomicU64,
    migrations_in: AtomicU64,
    steals_requested: AtomicU64,
    steals_honored: AtomicU64,
    retired: AtomicU64,
}

struct ShardShared {
    /// Channels handed to this shard (new or migrated); the worker adopts
    /// them at the top of each sweep.
    inbox: Mutex<Vec<ChannelSlot>>,
    /// The shard's recycled-buffer arena; every adopted channel is rebound
    /// to it.
    arena: BufArena,
    /// Cycle attribution for the shard's probe/execute work.
    account: Arc<CostAccount>,
    profiler: Profiler,
    /// Executed ops over the last completed rebalance interval.
    load: AtomicU64,
    /// Issued-but-incomplete work (pending WRs + parsed backlog), published
    /// every sweep — the signal work stealing keys on. A shard too wedged
    /// to rebalance still publishes this from its sweep loop.
    backlog: AtomicU64,
    /// Thief shard index wanting a channel (`usize::MAX` = none). Set by a
    /// light shard that watched this shard stay overloaded; honored at the
    /// owner's next sweep.
    steal_request: AtomicUsize,
    /// Channels currently owned (worker-published).
    channels: AtomicUsize,
    counters: ShardCounters,
}

struct GroupShared {
    cfg: GroupConfig,
    stop: AtomicBool,
    doorbell: Doorbell,
    shards: Vec<ShardShared>,
    finished: Mutex<Vec<FinishedChannel>>,
}

/// One channel's complete engine state — its driver slot, wiring, probe
/// deadline and load counters; exclusively owned by one worker at a time
/// and moved wholesale on rebalance.
struct ChannelSlot {
    slot: Slot,
    wiring: SpotWiring,
    /// The emulated port's chain buffer, kept across passes.
    run: Vec<WorkRequest>,
    next_probe_at: Instant,
    /// `reads_executed + writes_executed` at the last rebalance tick.
    last_executed: u64,
    /// Executed ops since the last rebalance tick (this slot's share of
    /// the shard's published load).
    interval_ops: u64,
}

impl ChannelSlot {
    fn new(wiring: SpotWiring, cfg: EngineConfig, now: Instant) -> ChannelSlot {
        ChannelSlot {
            slot: Slot::emu(&wiring, cfg, false),
            wiring,
            run: Vec::new(),
            next_probe_at: now,
            last_executed: 0,
            interval_ops: 0,
        }
    }

    /// One non-blocking pass: probe if due, poll the CQ once, dispatch.
    /// Returns whether anything happened.
    fn pass(&mut self, now: Instant) -> bool {
        let mut port = EmuPort::new(&self.wiring, &mut self.run);
        let mut work = false;
        if now >= self.next_probe_at {
            work = self.slot.probe(&mut port);
            // The core's adaptive policy speaks virtual (nanosecond)
            // durations; this driver runs on the wall clock.
            let next = self.slot.core.next_probe_interval();
            self.next_probe_at = now + Duration::from_nanos(next.0);
        }
        work |= self.slot.poll(&mut port);
        port.flush();
        work
    }

    /// Issued-but-incomplete work: WRs in flight plus the parsed backlog.
    fn depth(&self) -> u64 {
        (self.slot.in_flight() + self.slot.core.backlog()) as u64
    }

    fn executed(&self) -> u64 {
        self.slot.core.stats.reads_executed + self.slot.core.stats.writes_executed
    }
}

/// A running polling group; stops and joins its workers on drop.
pub struct EngineGroup {
    shared: Arc<GroupShared>,
    handles: Vec<JoinHandle<()>>,
    /// Round-robin cursor for channel placement.
    next_shard: AtomicUsize,
}

impl EngineGroup {
    /// Spawn `cfg.workers` shard workers. Channels are attached afterwards
    /// with [`EngineGroup::add_channel`].
    pub fn spawn(cfg: GroupConfig) -> EngineGroup {
        let workers = cfg.workers.max(1);
        let doorbell = Doorbell::new(workers);
        let shards = (0..workers)
            .map(|i| {
                let account = Arc::new(CostAccount::new());
                ShardShared {
                    inbox: Mutex::new(Vec::new()),
                    arena: BufArena::new(ARENA_POOLED),
                    profiler: Profiler::attached(
                        Arc::clone(&account),
                        i as u16,
                        Component::Engine,
                        true,
                    ),
                    account,
                    load: AtomicU64::new(0),
                    backlog: AtomicU64::new(0),
                    steal_request: AtomicUsize::new(usize::MAX),
                    channels: AtomicUsize::new(0),
                    counters: ShardCounters::default(),
                }
            })
            .collect();
        let shared = Arc::new(GroupShared {
            cfg,
            stop: AtomicBool::new(false),
            doorbell,
            shards,
            finished: Mutex::new(Vec::new()),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cowbird-engine-shard-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn group worker")
            })
            .collect();
        EngineGroup {
            shared,
            handles,
            next_shard: AtomicUsize::new(0),
        }
    }

    /// The group's doorbell. Hand a clone to every co-located client
    /// channel ([`cowbird::channel::Channel::set_doorbell`]) so posts wake
    /// parked workers.
    pub fn doorbell(&self) -> Doorbell {
        self.shared.doorbell.clone()
    }

    /// Attach a channel, placing it round-robin across shards.
    pub fn add_channel(&self, wiring: SpotWiring, cfg: EngineConfig) {
        let n = self.shared.shards.len();
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % n;
        self.add_channel_to(shard, wiring, cfg);
    }

    /// Attach a channel to a specific shard (benchmarks skew placement on
    /// purpose; rebalancing should undo it).
    pub fn add_channel_to(&self, shard: usize, wiring: SpotWiring, cfg: EngineConfig) {
        let slot = ChannelSlot::new(wiring, cfg, Instant::now());
        self.shared.shards[shard].inbox.lock().unwrap().push(slot);
        // Wake a parked receiver so adoption doesn't wait for a timeout.
        self.shared.doorbell.ring();
    }

    /// Channels retired so far (fenced mid-flight; the rest arrive when
    /// the group stops).
    pub fn finished(&self) -> Vec<FinishedChannel> {
        self.shared.finished.lock().unwrap().clone()
    }

    /// Point-in-time per-shard statistics.
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.shared
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardSnapshot {
                shard: i,
                channels: s.channels.load(Ordering::Acquire),
                load_ops: s.load.load(Ordering::Acquire),
                sweeps: s.counters.sweeps.load(Ordering::Relaxed),
                spins: s.counters.spins.load(Ordering::Relaxed),
                yields: s.counters.yields.load(Ordering::Relaxed),
                parks: s.counters.parks.load(Ordering::Relaxed),
                wakes: s.counters.wakes.load(Ordering::Relaxed),
                migrations_out: s.counters.migrations_out.load(Ordering::Relaxed),
                migrations_in: s.counters.migrations_in.load(Ordering::Relaxed),
                steals_requested: s.counters.steals_requested.load(Ordering::Relaxed),
                steals_honored: s.counters.steals_honored.load(Ordering::Relaxed),
                retired: s.counters.retired.load(Ordering::Relaxed),
                arena: s.arena.stats(),
                probe_ns: s.account.phase_ns(Phase::Probe),
                execute_ns: s.account.phase_ns(Phase::Execute),
            })
            .collect()
    }

    /// Export per-shard gauges under `cowbird.engine.shard.*` and the
    /// shard arenas' recycling counters under `cowbird.engine.arena.*`.
    pub fn export_metrics(&self, reg: &MetricsRegistry) {
        for snap in self.shard_snapshots() {
            let shard = snap.shard.to_string();
            let labels: &[(&str, &str)] = &[("shard", shard.as_str())];
            reg.gauge_set(
                "cowbird.engine.shard.channels",
                labels,
                snap.channels as f64,
            );
            reg.gauge_set(
                "cowbird.engine.shard.load_ops",
                labels,
                snap.load_ops as f64,
            );
            reg.gauge_set("cowbird.engine.shard.sweeps", labels, snap.sweeps as f64);
            reg.gauge_set("cowbird.engine.shard.spins", labels, snap.spins as f64);
            reg.gauge_set("cowbird.engine.shard.yields", labels, snap.yields as f64);
            reg.gauge_set("cowbird.engine.shard.parks", labels, snap.parks as f64);
            reg.gauge_set("cowbird.engine.shard.wakes", labels, snap.wakes as f64);
            reg.gauge_set(
                "cowbird.engine.shard.migrations_out",
                labels,
                snap.migrations_out as f64,
            );
            reg.gauge_set(
                "cowbird.engine.shard.migrations_in",
                labels,
                snap.migrations_in as f64,
            );
            reg.gauge_set(
                "cowbird.engine.shard.steals_requested",
                labels,
                snap.steals_requested as f64,
            );
            reg.gauge_set(
                "cowbird.engine.shard.steals_honored",
                labels,
                snap.steals_honored as f64,
            );
            reg.gauge_set("cowbird.engine.shard.retired", labels, snap.retired as f64);
            reg.gauge_set(
                "cowbird.engine.shard.probe_ns",
                labels,
                snap.probe_ns as f64,
            );
            reg.gauge_set(
                "cowbird.engine.shard.execute_ns",
                labels,
                snap.execute_ns as f64,
            );
            reg.gauge_set("cowbird.engine.arena.hits", labels, snap.arena.hits as f64);
            reg.gauge_set(
                "cowbird.engine.arena.misses",
                labels,
                snap.arena.misses as f64,
            );
            reg.gauge_set(
                "cowbird.engine.arena.recycled",
                labels,
                snap.arena.recycled as f64,
            );
            reg.gauge_set(
                "cowbird.engine.arena.hit_rate",
                labels,
                snap.arena.hit_rate(),
            );
        }
    }

    /// Stop every worker, retire all channels, and return their final
    /// statistics (mid-flight retirements included).
    pub fn stop(mut self) -> Vec<FinishedChannel> {
        self.stop_inner();
        self.shared.finished.lock().unwrap().clone()
    }

    fn stop_inner(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Posts don't stop arriving just because we do; ring until every
        // worker has observed the flag and exited.
        for h in self.handles.drain(..) {
            while !h.is_finished() {
                self.shared.doorbell.ring();
                std::thread::yield_now();
            }
            let _ = h.join();
        }
    }
}

impl Drop for EngineGroup {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Publish the shard's channel count and re-cap its arena to the
/// per-channel budget times the channels it now drives (min one channel's
/// worth, so an emptied shard still recycles its next adoption's traffic).
fn publish_channels(me: &ShardShared, channels: usize) {
    me.channels.store(channels, Ordering::Release);
    me.arena.set_max_pooled(ARENA_POOLED * channels.max(1));
}

fn worker_loop(shared: Arc<GroupShared>, shard_idx: usize) {
    let me = &shared.shards[shard_idx];
    let cfg = &shared.cfg;
    let park_threshold = SPIN_LIMIT + YIELD_LIMIT;
    let mut slots: Vec<ChannelSlot> = Vec::new();
    let mut idle_streak: u32 = 0;
    let mut next_rebalance = Instant::now() + cfg.rebalance_interval;
    let mut next_steal = Instant::now() + cfg.steal_interval;
    let mut overload_streaks: Vec<u32> = vec![0; shared.shards.len()];

    while !shared.stop.load(Ordering::Acquire) {
        // Adopt new/migrated channels; rebind them to this shard's arena
        // and attribution account.
        {
            let mut inbox = me.inbox.lock().unwrap();
            if !inbox.is_empty() {
                for mut cs in inbox.drain(..) {
                    cs.slot.core.set_arena(me.arena.clone());
                    cs.slot.prof = me.profiler.clone();
                    slots.push(cs);
                }
                publish_channels(me, slots.len());
                idle_streak = 0;
            }
        }

        // Honor a steal request filed by a lighter shard: hand over the
        // hottest non-fenced channel through its inbox — the same path
        // (and the same exclusive-ownership safety) as a donation. Fenced
        // slots never move; the sweep below retires them.
        let thief = me.steal_request.swap(usize::MAX, Ordering::AcqRel);
        if thief != usize::MAX && thief != shard_idx && slots.len() >= 2 {
            let hottest = slots
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.slot.core.is_fenced())
                .max_by_key(|(_, s)| s.executed() - s.last_executed);
            if let Some((idx, _)) = hottest {
                let mut slot = slots.swap_remove(idx);
                slot.interval_ops = 0;
                me.counters.steals_honored.fetch_add(1, Ordering::Relaxed);
                me.counters.migrations_out.fetch_add(1, Ordering::Relaxed);
                let to = &shared.shards[thief];
                to.counters.migrations_in.fetch_add(1, Ordering::Relaxed);
                to.inbox.lock().unwrap().push(slot);
                publish_channels(me, slots.len());
                shared.doorbell.ring();
            }
        }

        // Doorbell snapshot BEFORE sweeping: a post that lands mid-sweep
        // moves the counter past the snapshot and the park below returns
        // immediately instead of losing the wakeup.
        let snapshot = shared.doorbell.posts();
        let now = Instant::now();
        let mut work = false;
        let mut inflight = false;
        let mut backlog = 0u64;
        let mut next_deadline: Option<Instant> = None;
        let mut i = 0;
        while i < slots.len() {
            // Keep the in-band readback snapshot's placement view current:
            // which shard owns the channel and how deep its queue runs.
            let depth = slots[i].depth();
            slots[i].slot.core.set_shard_hint(shard_idx as u64, depth);
            work |= slots[i].pass(now);
            if slots[i].slot.core.is_fenced() {
                // A newer epoch owns this channel: retire it exactly like
                // an agent exiting, never to touch the fabric again.
                let slot = slots.swap_remove(i);
                retire(&shared, me, slot);
                publish_channels(me, slots.len());
                work = true;
                continue;
            }
            inflight |= slots[i].slot.in_flight() > 0;
            backlog += slots[i].depth();
            next_deadline = Some(match next_deadline {
                Some(d) => d.min(slots[i].next_probe_at),
                None => slots[i].next_probe_at,
            });
            i += 1;
        }
        me.counters.sweeps.fetch_add(1, Ordering::Relaxed);
        // Published every sweep (unlike `load`, which needs a rebalance
        // tick): the staleness-proof signal work stealing keys on.
        me.backlog.store(backlog, Ordering::Release);

        if now >= next_rebalance {
            rebalance(&shared, shard_idx, &mut slots);
            publish_channels(me, slots.len());
            next_rebalance = now + cfg.rebalance_interval;
        }
        if now >= next_steal {
            steal_check(&shared, shard_idx, &mut overload_streaks, backlog);
            next_steal = now + cfg.steal_interval;
        }

        if work {
            idle_streak = 0;
            continue;
        }
        idle_streak = idle_streak.saturating_add(1);
        if idle_streak <= SPIN_LIMIT {
            me.counters.spins.fetch_add(1, Ordering::Relaxed);
            std::hint::spin_loop();
        } else if idle_streak <= park_threshold || inflight {
            // Completions arrive from the fabric's NICs without ringing
            // the doorbell, so a shard with ops in flight never parks.
            me.counters.yields.fetch_add(1, Ordering::Relaxed);
            std::thread::yield_now();
        } else {
            let timeout = match next_deadline {
                Some(d) => d.saturating_duration_since(now).min(cfg.park_timeout),
                None => cfg.park_timeout,
            };
            me.counters.parks.fetch_add(1, Ordering::Relaxed);
            if shared.doorbell.park(snapshot, timeout) {
                // A client posted: probe everything now rather than waiting
                // out backed-off adaptive deadlines.
                me.counters.wakes.fetch_add(1, Ordering::Relaxed);
                let now = Instant::now();
                for slot in &mut slots {
                    slot.next_probe_at = now;
                }
                idle_streak = 0;
            } else {
                // Timeout (a probe deadline, or an inbox check): sweep once
                // and, if still idle, park again immediately — no spinning.
                idle_streak = park_threshold;
            }
        }
    }

    for slot in slots.drain(..) {
        retire(&shared, me, slot);
    }
    me.channels.store(0, Ordering::Release);
}

fn retire(shared: &GroupShared, me: &ShardShared, slot: ChannelSlot) {
    let core = &slot.slot.core;
    if core.is_fenced() {
        me.counters.retired.fetch_add(1, Ordering::Relaxed);
    }
    shared.finished.lock().unwrap().push(FinishedChannel {
        channel_id: core.config().channel_id,
        stats: core.stats,
    });
}

/// Work-stealing fallback: a neighbour whose published backlog stays
/// above the donation hysteresis bound (twice ours plus
/// `rebalance_min_ops`) for two consecutive checks has evidently missed
/// its own rebalance ticks — if this shard is the lightest, it files a
/// steal request for the neighbour's hottest channel. The owner hands the
/// slot over at its next sweep through the inbox, so exclusive ownership
/// (and fenced-slot retirement) work exactly as they do for donations.
fn steal_check(shared: &GroupShared, shard_idx: usize, streaks: &mut [u32], my_backlog: u64) {
    if shared.shards.len() < 2 {
        return;
    }
    let me = &shared.shards[shard_idx];
    let lightest = shared
        .shards
        .iter()
        .enumerate()
        .min_by_key(|(i, s)| (s.backlog.load(Ordering::Acquire), *i))
        .map(|(i, _)| i);
    for (i, other) in shared.shards.iter().enumerate() {
        if i == shard_idx {
            continue;
        }
        if other.backlog.load(Ordering::Acquire) <= 2 * my_backlog + shared.cfg.rebalance_min_ops {
            streaks[i] = 0;
            continue;
        }
        streaks[i] += 1;
        if streaks[i] >= 2 && lightest == Some(shard_idx) {
            if other
                .steal_request
                .compare_exchange(usize::MAX, shard_idx, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                me.counters.steals_requested.fetch_add(1, Ordering::Relaxed);
                // Nudge the owner (it may be parked between sweeps).
                shared.doorbell.ring();
            }
            streaks[i] = 0;
        }
    }
}

/// Publish this shard's observed load and donate the hottest channel to
/// the lightest shard when running hot. Donation moves the whole slot
/// through the receiver's inbox; the donor never touches it again.
fn rebalance(shared: &GroupShared, shard_idx: usize, slots: &mut Vec<ChannelSlot>) {
    let me = &shared.shards[shard_idx];
    let mut my_load = 0u64;
    for slot in slots.iter_mut() {
        let executed = slot.executed();
        slot.interval_ops = executed - slot.last_executed;
        slot.last_executed = executed;
        my_load += slot.interval_ops;
    }
    me.load.store(my_load, Ordering::Release);
    if slots.len() < 2 || shared.shards.len() < 2 {
        return;
    }
    let (lightest, light_load) = shared
        .shards
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != shard_idx)
        .map(|(i, s)| (i, s.load.load(Ordering::Acquire)))
        .min_by_key(|(_, l)| *l)
        .expect("at least one other shard");
    if my_load <= 2 * light_load + shared.cfg.rebalance_min_ops {
        return;
    }
    // The hottest channel whose departure still leaves us at or above the
    // receiver (ops < my_load - light_load) — strictly shrinking the
    // imbalance, so two balanced shards never ping-pong a channel.
    let hottest = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.interval_ops > 0 && s.interval_ops < my_load - light_load)
        .max_by_key(|(_, s)| s.interval_ops);
    let Some((idx, _)) = hottest else {
        return;
    };
    let mut slot = slots.swap_remove(idx);
    slot.interval_ops = 0;
    me.counters.migrations_out.fetch_add(1, Ordering::Relaxed);
    let to = &shared.shards[lightest];
    to.counters.migrations_in.fetch_add(1, Ordering::Relaxed);
    to.inbox.lock().unwrap().push(slot);
    // Wake the receiver if it is parked.
    shared.doorbell.ring();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cowbird::channel::Channel;
    use cowbird::layout::ChannelLayout;
    use cowbird::region::{RegionMap, RemoteRegion};
    use rdma::emu::EmuFabric;
    use rdma::mem::Region;

    struct GroupBed {
        _fabric: EmuFabric,
        channels: Vec<Channel>,
        pool_mem: Region,
        group: EngineGroup,
    }

    /// `n` channels on one compute NIC, one pool, each channel wired to
    /// the group through its own engine-side NIC (the spot model).
    fn deploy(n: usize, gcfg: GroupConfig, placement: impl Fn(usize) -> Option<usize>) -> GroupBed {
        deploy_with(n, gcfg, placement, |cfg| cfg)
    }

    fn deploy_with(
        n: usize,
        gcfg: GroupConfig,
        placement: impl Fn(usize) -> Option<usize>,
        cfgmap: impl Fn(EngineConfig) -> EngineConfig,
    ) -> GroupBed {
        let mut fabric = EmuFabric::new();
        let compute = fabric.add_nic();
        let pool = fabric.add_nic();
        let pool_mem = Region::new(1 << 20);
        let pool_rkey = pool.register(pool_mem.clone());
        let mut regions = RegionMap::new();
        regions.insert(
            1,
            RemoteRegion {
                rkey: pool_rkey,
                base: 0,
                size: 1 << 20,
            },
        );
        let layout = ChannelLayout::default_sizes();
        let group = EngineGroup::spawn(gcfg);
        let mut channels = Vec::new();
        for id in 0..n {
            let mut ch = Channel::new(id as u16, layout, regions.clone());
            ch.set_doorbell(group.doorbell());
            let channel_rkey = compute.register(ch.region().clone());
            let engine = fabric.add_nic();
            let (c_qpn, _) = fabric.connect(&engine, &compute);
            let (p_qpn, _) = fabric.connect(&engine, &pool);
            let wiring = SpotWiring {
                nic: engine,
                compute_qpn: c_qpn,
                pool_qpn: p_qpn,
                channel_rkey,
            };
            let cfg =
                cfgmap(EngineConfig::spot(layout, regions.clone(), 16).with_channel_id(id as u16));
            match placement(id) {
                Some(shard) => group.add_channel_to(shard, wiring, cfg),
                None => group.add_channel(wiring, cfg),
            }
            channels.push(ch);
        }
        GroupBed {
            _fabric: fabric,
            channels,
            pool_mem,
            group,
        }
    }

    #[test]
    fn one_worker_drives_eight_channels() {
        let mut bed = deploy(8, GroupConfig::with_workers(1), |_| None);
        for i in 0..8usize {
            bed.pool_mem
                .write(i as u64 * 64, format!("chan-{i}").as_bytes())
                .unwrap();
        }
        let handles: Vec<_> = (0..8)
            .map(|i| bed.channels[i].async_read(1, i as u64 * 64, 6).unwrap())
            .collect();
        for (i, h) in handles.iter().enumerate() {
            assert!(
                bed.channels[i].wait(h.id, 200_000_000),
                "channel {i} read must complete"
            );
            assert_eq!(
                bed.channels[i].take_response(h).unwrap(),
                format!("chan-{i}").as_bytes()
            );
        }
        let snaps = bed.group.shard_snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].channels, 8);
        let finished = bed.group.stop();
        assert_eq!(finished.len(), 8);
        assert!(finished.iter().all(|f| f.stats.pool_reads == 1));
    }

    #[test]
    fn writes_and_reads_interleave_across_the_group() {
        let mut bed = deploy(4, GroupConfig::with_workers(2), |_| None);
        for i in 0..4usize {
            let w = bed.channels[i]
                .async_write(1, 4096 + i as u64 * 16, format!("W{i}").as_bytes())
                .unwrap();
            assert!(bed.channels[i].wait(w, 200_000_000));
        }
        for i in 0..4usize {
            let h = bed.channels[i]
                .async_read(1, 4096 + i as u64 * 16, 2)
                .unwrap();
            assert!(bed.channels[i].wait(h.id, 200_000_000));
            assert_eq!(
                bed.channels[i].take_response(&h).unwrap(),
                format!("W{i}").as_bytes()
            );
        }
        // Steady-state recycling: after the first touches, payload buffers
        // come off the shard free lists.
        let snaps = bed.group.shard_snapshots();
        let (hits, misses) = snaps
            .iter()
            .fold((0, 0), |(h, m), s| (h + s.arena.hits, m + s.arena.misses));
        assert!(hits + misses > 0, "traffic must touch the arenas");
    }

    #[test]
    fn skewed_placement_rebalances_toward_the_idle_shard() {
        let mut gcfg =
            GroupConfig::with_workers(2).with_rebalance_interval(Duration::from_millis(2));
        gcfg.rebalance_min_ops = 2;
        // Both channels forced onto shard 0; shard 1 starts empty.
        let mut bed = deploy(2, gcfg, |_| Some(0));
        bed.pool_mem.write(0, b"hot-data").unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut migrated = false;
        'outer: while Instant::now() < deadline {
            // A burst of concurrent reads on both channels so the interval
            // load clears the donation hysteresis.
            let handles: Vec<_> = (0..2usize)
                .flat_map(|i| {
                    (0..16)
                        .map(|_| (i, bed.channels[i].async_read(1, 0, 8).unwrap()))
                        .collect::<Vec<_>>()
                })
                .collect();
            for (i, h) in &handles {
                assert!(bed.channels[*i].wait(h.id, 200_000_000));
                assert_eq!(bed.channels[*i].take_response(h).unwrap(), b"hot-data");
            }
            let snaps = bed.group.shard_snapshots();
            if snaps[0].migrations_out + snaps[1].migrations_out > 0 {
                migrated = true;
                break 'outer;
            }
        }
        assert!(migrated, "a hot channel must migrate to the empty shard");
        // Traffic still completes after the move.
        for i in 0..2usize {
            let h = bed.channels[i].async_read(1, 0, 8).unwrap();
            assert!(bed.channels[i].wait(h.id, 200_000_000));
        }
        bed.group.stop();
    }

    #[test]
    fn stuck_shard_has_its_hottest_channel_stolen() {
        // Donation is effectively disabled (hour-long rebalance interval):
        // the only way a channel can move is the work-stealing fallback,
        // where the idle shard watches shard 0's backlog stay over the
        // hysteresis bound and files a steal request.
        let mut gcfg = GroupConfig::with_workers(2)
            .with_rebalance_interval(Duration::from_secs(3600))
            .with_steal_interval(Duration::from_millis(1));
        gcfg.rebalance_min_ops = 2;
        // Both channels forced onto shard 0; shard 1 starts empty.
        let mut bed = deploy(2, gcfg, |_| Some(0));
        bed.pool_mem.write(0, b"stolen!!").unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut stolen = false;
        while Instant::now() < deadline {
            let handles: Vec<_> = (0..2usize)
                .flat_map(|i| {
                    (0..16)
                        .map(|_| (i, bed.channels[i].async_read(1, 0, 8).unwrap()))
                        .collect::<Vec<_>>()
                })
                .collect();
            for (i, h) in &handles {
                assert!(bed.channels[*i].wait(h.id, 200_000_000));
                assert_eq!(bed.channels[*i].take_response(h).unwrap(), b"stolen!!");
            }
            let snaps = bed.group.shard_snapshots();
            if snaps[0].steals_honored > 0 {
                assert!(snaps[1].steals_requested > 0, "the thief filed the request");
                assert!(snaps[1].migrations_in > 0, "the slot moved to the thief");
                stolen = true;
                break;
            }
        }
        assert!(stolen, "the idle shard must steal from the stuck one");
        // Traffic still completes after the theft.
        for i in 0..2usize {
            let h = bed.channels[i].async_read(1, 0, 8).unwrap();
            assert!(bed.channels[i].wait(h.id, 200_000_000));
        }
        bed.group.stop();
    }

    #[test]
    fn fenced_channel_is_retired_not_served() {
        let mut bed = deploy(1, GroupConfig::with_workers(1), |_| None);
        bed.pool_mem.write(0, b"before-fence").unwrap();
        let h = bed.channels[0].async_read(1, 0, 12).unwrap();
        assert!(bed.channels[0].wait(h.id, 200_000_000));
        // Fence the epoch, as a failover would; the group's next probe
        // observes it and retires the slot.
        assert_eq!(bed.channels[0].fence_engine(), 1);
        let deadline = Instant::now() + Duration::from_secs(20);
        while bed.group.finished().is_empty() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let finished = bed.group.finished();
        assert_eq!(finished.len(), 1, "fenced channel must be retired");
        assert!(finished[0].stats.fenced);
        assert_eq!(bed.group.shard_snapshots()[0].retired, 1);
    }

    #[test]
    fn idle_group_parks_and_doorbell_wakes_it() {
        let gcfg = GroupConfig::with_workers(1).with_park_timeout(Duration::from_secs(5));
        // Without adaptive probing the 2 us default keeps the worker
        // perpetually busy issuing probes; with it, an idle channel ramps
        // down and the worker walks the ladder to park.
        let mut bed = deploy_with(
            1,
            gcfg,
            |_| None,
            |cfg| cfg.with_adaptive_probe(simnet::Duration::from_millis(500), 8),
        );
        bed.pool_mem.write(128, b"wake").unwrap();
        // Let the worker walk the ladder down to park.
        let deadline = Instant::now() + Duration::from_secs(20);
        while bed.group.doorbell().parked() == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(bed.group.doorbell().parked() > 0, "idle worker must park");
        let parks_before = bed.group.shard_snapshots()[0].parks;
        assert!(parks_before > 0);
        // A post rings the doorbell through the channel and the read
        // completes without waiting out the 5 s park.
        let t0 = Instant::now();
        let h = bed.channels[0].async_read(1, 128, 4).unwrap();
        assert!(bed.channels[0].wait(h.id, 2_000_000_000));
        assert_eq!(bed.channels[0].take_response(&h).unwrap(), b"wake");
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "doorbell must beat the park timeout"
        );
        assert!(bed.group.shard_snapshots()[0].wakes > 0);
    }

    #[test]
    fn metrics_export_covers_every_shard() {
        let bed = deploy(3, GroupConfig::with_workers(2), |_| None);
        let reg = MetricsRegistry::new();
        // Give workers a beat to adopt their inboxes.
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            let snaps = bed.group.shard_snapshots();
            if snaps.iter().map(|s| s.channels).sum::<usize>() == 3 {
                break;
            }
            std::thread::yield_now();
        }
        bed.group.export_metrics(&reg);
        let snap = reg.snapshot();
        let json = snap.to_json();
        for key in [
            "cowbird.engine.shard.channels",
            "cowbird.engine.shard.parks",
            "cowbird.engine.arena.hit_rate",
        ] {
            assert!(json.contains(key), "metrics must include {key}");
        }
    }
}
