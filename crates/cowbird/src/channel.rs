//! The Cowbird client library: issuing requests and collecting completions
//! with **only local memory operations** (paper §4.3).
//!
//! One [`Channel`] corresponds to one per-hardware-thread set of rings
//! (paper §4.2: "per-hardware-thread, lock-free circular buffers"). The
//! channel is a single producer — the owning application thread — and a
//! single consumer — the offload engine, which observes the rings *through
//! the NIC* (RDMA reads/writes of the shared [`Region`]), never through this
//! code.
//!
//! ## Issue protocol (paper §4.3)
//!
//! For a read: (1) reserve a metadata slot by bumping the local tail,
//! (2) reserve response-ring space by bumping the response tail, (3) fill
//! the entry's body words, then write the `rw_type` word, then publish the
//! new tails — release stores throughout, which on x86-TSO compiles to plain
//! stores ("this sequence of atomic increments and writes guarantees
//! consistent request issuance even without explicit locks or mfence
//! instructions"). Writes are symmetric but reserve request-data-ring space
//! and copy the payload in before publishing.
//!
//! ## Completion protocol
//!
//! The engine maintains two monotone progress counters in the red
//! bookkeeping block (last completed read seq / write seq). A request is
//! complete iff `seq <= counter` — checked locally, no interrupt, no
//! syscall, no fence.
//!
//! ## Flow control
//!
//! When any ring lacks space the issue call returns a retryable
//! [`IssueError`] (paper §4.3). Data-ring head pointers are derived locally
//! from the progress counters plus the per-request reservations this channel
//! remembers — possible precisely because completions are linearized per
//! type (§4.2: the two counters "are sufficient to track the progress").

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use rdma::mem::Region;
use telemetry::profile::{Phase, Profiler};
use telemetry::{Component, EventKind, Recorder};

use crate::doorbell::Doorbell;
use crate::error::{CowbirdError, IssueError, WaitError};
use crate::layout::{
    reserve_no_wrap, ChannelLayout, TelemetrySnapshot, GREEN_CLIENT_EPOCH, GREEN_DOORBELL,
    GREEN_META_TAIL, GREEN_RDATA_TAIL, GREEN_WDATA_TAIL, RED_ENGINE_EPOCH, RED_META_HEAD,
    RED_READ_PROGRESS, RED_WRITE_PROGRESS, TELEM_LEN,
};
use crate::meta::{
    ChaseParams, ChaseStatusWord, RequestMeta, RwType, CHASE_BUDGET_MAX, CHASE_RESP_OVERHEAD,
    CHASE_STRIDE_MAX,
};
use crate::region::{RegionId, RegionMap};
use crate::reqid::{OpType, ReqId};

/// Handle to an in-flight (or completed) read: where its response lands.
#[derive(Clone, Copy, Debug)]
pub struct ReadHandle {
    /// The request id (also usable with poll groups).
    pub id: ReqId,
    /// Virtual offset of the response in the response ring.
    rdata_start: u64,
    /// Length of the response.
    pub len: u32,
}

/// A decoded chase response: the engine's status word plus the last block
/// fetched (empty when the chase ended before fetching any block).
#[derive(Clone, Debug)]
pub struct ChaseOutcome {
    pub status: ChaseStatusWord,
    pub data: Vec<u8>,
}

#[derive(Debug)]
struct PendingRead {
    seq: u64,
    rdata_end: u64,
    consumed: bool,
}

#[derive(Debug)]
struct PendingWrite {
    seq: u64,
    wdata_end: u64,
}

/// Client-side statistics (local bookkeeping only, no shared state).
#[derive(Clone, Copy, Debug, Default)]
pub struct ChannelStats {
    pub reads_issued: u64,
    pub writes_issued: u64,
    /// Dependent-op entries issued (`ReadIndirect` / `Chase`); these also
    /// count in `reads_issued` — a chase is a read for sequencing purposes.
    pub chases_issued: u64,
    pub issue_retries: u64,
    pub polls: u64,
    /// Red-block updates discarded because they carried an epoch older than
    /// the newest this client has seen (a fenced zombie still writing).
    pub stale_red_ignored: u64,
    /// Times [`Channel::refresh`] observed a red block from a *newer* epoch
    /// than expected (a standby took over without a client-side fence).
    pub engine_takeovers: u64,
    /// Times the client raised the fence word ([`Channel::fence_engine`]).
    pub fences: u64,
    /// Refreshes that observed a progress counter advance. With a moderated
    /// engine each red-block write covers a burst, so one refresh consumes
    /// a whole run of back-to-back completions.
    pub completion_runs: u64,
    /// Longest single progress jump (per counter) one refresh delivered.
    pub max_run_len: u64,
    /// Fresh in-band telemetry snapshots decoded off the readback region
    /// (torn or unchanged images don't count).
    pub telem_scrapes: u64,
}

impl ChannelStats {
    /// Export into a metrics registry under `cowbird.client.*`.
    pub fn export(&self, reg: &telemetry::MetricsRegistry, labels: &[(&str, &str)]) {
        reg.counter_add("cowbird.client.reads_issued", labels, self.reads_issued);
        reg.counter_add("cowbird.client.writes_issued", labels, self.writes_issued);
        reg.counter_add(
            "cowbird.client.chases_issued_count",
            labels,
            self.chases_issued,
        );
        reg.counter_add("cowbird.client.issue_retries", labels, self.issue_retries);
        reg.counter_add("cowbird.client.polls", labels, self.polls);
        reg.counter_add(
            "cowbird.client.stale_red_ignored",
            labels,
            self.stale_red_ignored,
        );
        reg.counter_add(
            "cowbird.client.engine_takeovers",
            labels,
            self.engine_takeovers,
        );
        reg.counter_add("cowbird.client.fences", labels, self.fences);
        reg.counter_add(
            "cowbird.client.completion_runs",
            labels,
            self.completion_runs,
        );
        reg.gauge_set(
            "cowbird.client.max_run_len",
            labels,
            self.max_run_len as f64,
        );
        reg.counter_add(
            "cowbird.client.telem_scrapes_count",
            labels,
            self.telem_scrapes,
        );
    }
}

/// One per-thread Cowbird channel.
///
/// # Example
///
/// Issue a read and a write; completion is signalled purely through the
/// red bookkeeping block, which an offload engine would update over RDMA
/// (here we play the engine with two local stores):
///
/// ```
/// use std::sync::atomic::Ordering;
/// use cowbird::channel::Channel;
/// use cowbird::layout::{ChannelLayout, RED_READ_PROGRESS, RED_WRITE_PROGRESS};
/// use cowbird::region::{RegionMap, RemoteRegion};
///
/// let mut regions = RegionMap::new();
/// regions.insert(1, RemoteRegion { rkey: 9, base: 0, size: 1 << 20 });
/// let mut ch = Channel::new(0, ChannelLayout::default_sizes(), regions);
///
/// let handle = ch.async_read(1, 4096, 64).unwrap();   // local stores only
/// let write_id = ch.async_write(1, 8192, b"payload").unwrap();
/// assert!(!ch.is_complete(handle.id));
///
/// // The offload engine executes the transfers and bumps the progress
/// // counters (one RDMA write of the red block, per the paper's Phase IV):
/// ch.region().store_u64(RED_READ_PROGRESS, 1, Ordering::Release);
/// ch.region().store_u64(RED_WRITE_PROGRESS, 1, Ordering::Release);
///
/// assert!(ch.is_complete(handle.id));
/// assert!(ch.is_complete(write_id));
/// let response = ch.take_response(&handle).unwrap();
/// assert_eq!(response.len(), 64);
/// ```
pub struct Channel {
    region: Region,
    layout: ChannelLayout,
    cid: u16,
    regions: RegionMap,
    // ---- producer-local cursors (virtual offsets) ----
    meta_tail: u64,
    cached_meta_head: u64,
    wdata_tail: u64,
    wdata_head: u64,
    rdata_tail: u64,
    rdata_head: u64,
    read_seq: u64,
    write_seq: u64,
    cached_read_progress: u64,
    cached_write_progress: u64,
    pending_reads: VecDeque<PendingRead>,
    pending_writes: VecDeque<PendingWrite>,
    /// Every published-but-not-completed metadata entry, in ring order. A
    /// slot is only reused once its request *completed* (not merely once the
    /// engine fetched it), so a standby engine can always re-parse the live
    /// suffix of the ring after a takeover.
    pending_entries: VecDeque<(OpType, u64)>,
    /// Virtual index below which every metadata entry has completed.
    meta_free_head: u64,
    /// Highest engine epoch this client has accepted (see `RED_ENGINE_EPOCH`).
    engine_epoch: u64,
    /// Seqlock stamp of the last readback snapshot decoded (0 = none yet);
    /// an unchanged stamp skips the full-region read on refresh.
    telem_seen_seq: u64,
    /// The freshest engine telemetry snapshot scraped off the readback
    /// region, if any valid one has landed.
    engine_telem: Option<TelemetrySnapshot>,
    pub stats: ChannelStats,
    /// Telemetry sink; disabled by default (one branch per event).
    rec: Recorder,
    /// Cycle-attribution sink; disabled by default (one branch per scope).
    prof: Profiler,
    /// Engine-group wake channel; `None` for remote/simulated engines
    /// (probing alone discovers work there).
    doorbell: Option<Doorbell>,
}

impl Channel {
    /// Create a channel over a freshly allocated region.
    pub fn new(cid: u16, layout: ChannelLayout, regions: RegionMap) -> Channel {
        let region = Region::new(layout.region_size() as usize);
        Channel::over_region(cid, layout, regions, region)
    }

    /// Create a channel over an existing (registered) region. The region
    /// must be zero-initialized and at least `layout.region_size()` bytes.
    pub fn over_region(
        cid: u16,
        layout: ChannelLayout,
        regions: RegionMap,
        region: Region,
    ) -> Channel {
        assert!(region.len() as u64 >= layout.region_size());
        Channel {
            region,
            layout,
            cid,
            regions,
            meta_tail: 0,
            cached_meta_head: 0,
            wdata_tail: 0,
            wdata_head: 0,
            rdata_tail: 0,
            rdata_head: 0,
            read_seq: 0,
            write_seq: 0,
            cached_read_progress: 0,
            cached_write_progress: 0,
            pending_reads: VecDeque::new(),
            pending_writes: VecDeque::new(),
            pending_entries: VecDeque::new(),
            meta_free_head: 0,
            engine_epoch: 0,
            telem_seen_seq: 0,
            engine_telem: None,
            stats: ChannelStats::default(),
            rec: Recorder::disabled(),
            prof: Profiler::disabled(),
            doorbell: None,
        }
    }

    /// Attach a telemetry recorder (flight recorder / span tracing). The
    /// default is disabled, which costs one branch per would-be event.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    /// The channel's telemetry recorder (disabled unless set).
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Attach a cycle profiler: the issue path then charges `CowbirdPost`
    /// and the completion path `CowbirdPoll` to the client's attribution
    /// account. Disabled by default (one branch per scope).
    pub fn set_profiler(&mut self, prof: Profiler) {
        self.prof = prof;
    }

    /// The channel's cycle profiler (disabled unless set).
    pub fn profiler(&self) -> &Profiler {
        &self.prof
    }

    /// Attach an engine-group doorbell: every post then rings it (after
    /// bumping the [`GREEN_DOORBELL`] word), waking a parked polling-group
    /// worker. Leave unset for remote engines — they only probe.
    pub fn set_doorbell(&mut self, db: Doorbell) {
        self.doorbell = Some(db);
    }

    /// This channel's id (encoded into its request ids).
    pub fn id(&self) -> u16 {
        self.cid
    }

    /// The backing region — register this with the compute-node NIC so the
    /// offload engine can reach the rings.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// The layout, shared with the engine during Setup.
    pub fn layout(&self) -> ChannelLayout {
        self.layout
    }

    /// The remote region table.
    pub fn regions(&self) -> &RegionMap {
        &self.regions
    }

    /// Requests issued but not yet known complete (reads, writes).
    pub fn in_flight(&self) -> (u64, u64) {
        (
            self.read_seq - self.cached_read_progress,
            self.write_seq - self.cached_write_progress,
        )
    }

    // ------------------------------------------------------------------
    // Issue path
    // ------------------------------------------------------------------

    /// Asynchronously read `len` bytes at `src` (an offset within remote
    /// region `region_id`). Returns a handle carrying the request id.
    ///
    /// Cost on the compute node: a handful of local stores. No RDMA verbs,
    /// no fences (paper Figure 2: ~35 ns vs ~350 ns for an RDMA post).
    pub fn async_read(
        &mut self,
        region_id: RegionId,
        src: u64,
        len: u32,
    ) -> Result<ReadHandle, IssueError> {
        // Cycle attribution: everything below is the Cowbird "post" — a
        // handful of local stores (cloning the handle keeps the RAII scope
        // from borrowing `self` across the mutations).
        let prof = self.prof.clone();
        let _scope = prof.scope(Phase::CowbirdPost);
        self.validate_remote(region_id, src, len)?;
        self.ensure_meta_slot()?;
        // Reserve response-ring space (never wrapping; paper R1).
        let (start, end) = match reserve_no_wrap(
            self.rdata_tail,
            self.rdata_head,
            self.layout.rdata_capacity,
            len as u64,
        ) {
            Some(r) => r,
            None => {
                if len as u64 > self.layout.rdata_capacity {
                    return Err(IssueError::RequestTooLarge {
                        len,
                        capacity: self.layout.rdata_capacity,
                    });
                }
                self.refresh();
                self.stats.issue_retries += 1;
                reserve_no_wrap(
                    self.rdata_tail,
                    self.rdata_head,
                    self.layout.rdata_capacity,
                    len as u64,
                )
                .ok_or(IssueError::ResponseDataRingFull)?
            }
        };
        let seq = self.read_seq + 1;
        let meta = RequestMeta {
            rw_type: RwType::Read,
            req_addr: src,
            resp_addr: self.layout.rdata_phys(start),
            length: len,
            region_id,
            chase: ChaseParams::default(),
        };
        self.publish_entry(&meta);
        self.rdata_tail = end;
        self.region
            .store_u64(GREEN_RDATA_TAIL, self.rdata_tail, Ordering::Release);
        self.read_seq = seq;
        self.pending_reads.push_back(PendingRead {
            seq,
            rdata_end: end,
            consumed: false,
        });
        self.pending_entries.push_back((OpType::Read, seq));
        self.stats.reads_issued += 1;
        let id = ReqId::new(OpType::Read, self.cid, seq);
        self.rec.record(
            Component::Client,
            EventKind::ReadIssued,
            id.raw(),
            src,
            len as u64,
        );
        Ok(ReadHandle {
            id,
            rdata_start: start,
            len,
        })
    }

    /// Asynchronously write `data` to `dst` (an offset within remote region
    /// `region_id`). Returns the request id.
    pub fn async_write(
        &mut self,
        region_id: RegionId,
        dst: u64,
        data: &[u8],
    ) -> Result<ReqId, IssueError> {
        let prof = self.prof.clone();
        let _scope = prof.scope(Phase::CowbirdPost);
        let len = data.len() as u32;
        self.validate_remote(region_id, dst, len)?;
        self.ensure_meta_slot()?;
        let (start, end) = match reserve_no_wrap(
            self.wdata_tail,
            self.wdata_head,
            self.layout.wdata_capacity,
            len as u64,
        ) {
            Some(r) => r,
            None => {
                if len as u64 > self.layout.wdata_capacity {
                    return Err(IssueError::RequestTooLarge {
                        len,
                        capacity: self.layout.wdata_capacity,
                    });
                }
                self.refresh();
                self.stats.issue_retries += 1;
                reserve_no_wrap(
                    self.wdata_tail,
                    self.wdata_head,
                    self.layout.wdata_capacity,
                    len as u64,
                )
                .ok_or(IssueError::RequestDataRingFull)?
            }
        };
        // Copy the payload into the request data ring *before* publishing.
        let phys = self.layout.wdata_phys(start);
        self.region.write(phys, data).expect("in-layout write");
        let seq = self.write_seq + 1;
        let meta = RequestMeta {
            rw_type: RwType::Write,
            req_addr: phys,
            resp_addr: dst,
            length: len,
            region_id,
            chase: ChaseParams::default(),
        };
        self.publish_entry(&meta);
        self.wdata_tail = end;
        self.region
            .store_u64(GREEN_WDATA_TAIL, self.wdata_tail, Ordering::Release);
        self.write_seq = seq;
        self.pending_writes.push_back(PendingWrite {
            seq,
            wdata_end: end,
        });
        self.pending_entries.push_back((OpType::Write, seq));
        self.stats.writes_issued += 1;
        let id = ReqId::new(OpType::Write, self.cid, seq);
        self.rec.record(
            Component::Client,
            EventKind::WriteIssued,
            id.raw(),
            dst,
            len as u64,
        );
        Ok(id)
    }

    /// Dependent read, one ring entry and one round trip: the engine
    /// dereferences the 8-byte pointer word at `base + offset_of_ptr`
    /// (48-bit mask), then fetches `len` bytes at `ptr + stride`. The
    /// response is a [`ChaseStatusWord`] followed by the fetched block —
    /// decode it with [`Channel::take_chase_response`].
    pub fn async_read_indirect(
        &mut self,
        region_id: RegionId,
        base: u64,
        offset_of_ptr: u8,
        stride: u16,
        len: u32,
    ) -> Result<ReadHandle, IssueError> {
        self.async_dependent(
            RwType::ReadIndirect,
            region_id,
            base,
            offset_of_ptr,
            stride,
            len,
            1,
        )
    }

    /// Bounded pointer chase: like [`Channel::async_read_indirect`], but the
    /// engine re-dereferences the pointer word at `offset_of_ptr` inside
    /// each fetched block and hops again, up to `budget` hops (clamped to
    /// [`CHASE_BUDGET_MAX`]) or until the pointer is null. The response
    /// carries the *last* block fetched.
    pub fn async_chase(
        &mut self,
        region_id: RegionId,
        base: u64,
        offset_of_ptr: u8,
        stride: u16,
        len: u32,
        budget: u8,
    ) -> Result<ReadHandle, IssueError> {
        self.async_dependent(
            RwType::Chase,
            region_id,
            base,
            offset_of_ptr,
            stride,
            len,
            budget,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn async_dependent(
        &mut self,
        rw_type: RwType,
        region_id: RegionId,
        base: u64,
        offset_of_ptr: u8,
        stride: u16,
        len: u32,
        budget: u8,
    ) -> Result<ReadHandle, IssueError> {
        let prof = self.prof.clone();
        let _scope = prof.scope(Phase::CowbirdPost);
        // Only the base pointer word is statically checkable; dereferenced
        // hop targets are bounds-checked pool-side (an out-of-bounds hop
        // aborts with a status code, it never faults).
        self.validate_remote(region_id, base.saturating_add(offset_of_ptr as u64), 8)?;
        self.ensure_meta_slot()?;
        // The response is the status word plus the payload block.
        let total = len as u64 + CHASE_RESP_OVERHEAD;
        let (start, end) = match reserve_no_wrap(
            self.rdata_tail,
            self.rdata_head,
            self.layout.rdata_capacity,
            total,
        ) {
            Some(r) => r,
            None => {
                if total > self.layout.rdata_capacity {
                    return Err(IssueError::RequestTooLarge {
                        len: total as u32,
                        capacity: self.layout.rdata_capacity,
                    });
                }
                self.refresh();
                self.stats.issue_retries += 1;
                reserve_no_wrap(
                    self.rdata_tail,
                    self.rdata_head,
                    self.layout.rdata_capacity,
                    total,
                )
                .ok_or(IssueError::ResponseDataRingFull)?
            }
        };
        let seq = self.read_seq + 1;
        let meta = RequestMeta {
            rw_type,
            req_addr: base,
            resp_addr: self.layout.rdata_phys(start),
            length: len,
            region_id,
            chase: ChaseParams {
                offset_of_ptr,
                stride: stride.min(CHASE_STRIDE_MAX),
                budget: budget.min(CHASE_BUDGET_MAX),
            },
        };
        self.publish_entry(&meta);
        self.rdata_tail = end;
        self.region
            .store_u64(GREEN_RDATA_TAIL, self.rdata_tail, Ordering::Release);
        self.read_seq = seq;
        self.pending_reads.push_back(PendingRead {
            seq,
            rdata_end: end,
            consumed: false,
        });
        self.pending_entries.push_back((OpType::Read, seq));
        self.stats.reads_issued += 1;
        self.stats.chases_issued += 1;
        let id = ReqId::new(OpType::Read, self.cid, seq);
        self.rec.record(
            Component::Client,
            EventKind::ReadIssued,
            id.raw(),
            base,
            total,
        );
        Ok(ReadHandle {
            id,
            rdata_start: start,
            len: total as u32,
        })
    }

    fn validate_remote(&self, region_id: RegionId, off: u64, len: u32) -> Result<(), IssueError> {
        let r = self
            .regions
            .get(region_id)
            .ok_or(IssueError::UnknownRegion(region_id))?;
        if off.saturating_add(len as u64) > r.size {
            return Err(IssueError::OutOfRegionBounds {
                offset: off,
                len,
                size: r.size,
            });
        }
        Ok(())
    }

    fn ensure_meta_slot(&mut self) -> Result<(), IssueError> {
        // Slots free on *completion*, not on engine fetch: a fetched but
        // still-executing entry must survive in the ring so a standby engine
        // can reconstruct it after a takeover.
        if self.meta_tail - self.meta_free_head >= self.layout.meta_entries {
            self.refresh();
            self.stats.issue_retries += 1;
            if self.meta_tail - self.meta_free_head >= self.layout.meta_entries {
                return Err(IssueError::MetadataRingFull);
            }
        }
        Ok(())
    }

    /// Write an entry's body, then its publication word, then the tail —
    /// the §4.3 ordering.
    fn publish_entry(&mut self, meta: &RequestMeta) {
        let base = self.layout.meta_entry_offset(self.meta_tail);
        let body = meta.body_words();
        self.region.store_u64(base + 8, body[0], Ordering::Relaxed);
        self.region.store_u64(base + 16, body[1], Ordering::Relaxed);
        self.region.store_u64(base + 24, body[2], Ordering::Relaxed);
        // rw_type (+ publication token) last.
        self.region.store_u64(
            base,
            meta.publication_word(self.meta_tail),
            Ordering::Release,
        );
        self.meta_tail += 1;
        self.region
            .store_u64(GREEN_META_TAIL, self.meta_tail, Ordering::Release);
        // Doorbell: one relaxed add on a client-owned line (nothing like the
        // MMIO+fence doorbell of an RDMA post), then the process-local wake.
        self.region
            .fetch_add_u64(GREEN_DOORBELL, 1, Ordering::Relaxed);
        if let Some(db) = &self.doorbell {
            db.ring();
        }
    }

    // ------------------------------------------------------------------
    // Completion path
    // ------------------------------------------------------------------

    /// Re-read the red bookkeeping block and advance derived ring heads.
    /// This is the entire CPU cost of a Cowbird poll.
    ///
    /// The epoch word is checked first: a red block written by an engine
    /// *older* than the newest this client has seen is a zombie's stale
    /// update and is ignored wholesale — its counters could otherwise travel
    /// backwards past a successor's. Counters are additionally adopted
    /// monotonically, as defense in depth against torn or reordered images.
    pub fn refresh(&mut self) {
        let prof = self.prof.clone();
        let _scope = prof.scope(Phase::CowbirdPoll);
        self.stats.polls += 1;
        let red_epoch = self.region.load_u64(RED_ENGINE_EPOCH, Ordering::Acquire);
        if red_epoch < self.engine_epoch {
            self.stats.stale_red_ignored += 1;
            self.rec.record(
                Component::Client,
                EventKind::StaleRedIgnored,
                0,
                red_epoch,
                self.engine_epoch,
            );
            return;
        }
        if red_epoch > self.engine_epoch {
            // A standby took over without us fencing first (e.g. an operator
            // attached one on a preemption notice). Bless the new epoch so
            // the old engine fences itself on its next probe.
            self.engine_epoch = red_epoch;
            self.stats.engine_takeovers += 1;
            self.rec.record(
                Component::Client,
                EventKind::TakeoverObserved,
                0,
                red_epoch,
                0,
            );
            self.region
                .store_u64(GREEN_CLIENT_EPOCH, red_epoch, Ordering::Release);
        }
        self.cached_meta_head = self
            .cached_meta_head
            .max(self.region.load_u64(RED_META_HEAD, Ordering::Acquire));
        let prev_write = self.cached_write_progress;
        let prev_read = self.cached_read_progress;
        self.cached_write_progress = self
            .cached_write_progress
            .max(self.region.load_u64(RED_WRITE_PROGRESS, Ordering::Acquire));
        self.cached_read_progress = self
            .cached_read_progress
            .max(self.region.load_u64(RED_READ_PROGRESS, Ordering::Acquire));
        // Run-length accounting: each counter advance in one refresh is a
        // run of back-to-back completions delivered by one red-block write.
        for delta in [
            self.cached_write_progress - prev_write,
            self.cached_read_progress - prev_read,
        ] {
            if delta > 0 {
                self.stats.completion_runs += 1;
                self.stats.max_run_len = self.stats.max_run_len.max(delta);
            }
        }
        // Free write payload space for completed writes.
        while let Some(front) = self.pending_writes.front() {
            if front.seq <= self.cached_write_progress {
                self.wdata_head = front.wdata_end;
                self.pending_writes.pop_front();
            } else {
                break;
            }
        }
        // Free response space for completed *and consumed* reads.
        while let Some(front) = self.pending_reads.front() {
            if front.consumed && front.seq <= self.cached_read_progress {
                self.rdata_head = front.rdata_end;
                self.pending_reads.pop_front();
            } else {
                break;
            }
        }
        // Free metadata slots whose requests completed (in ring order — an
        // incomplete entry blocks the slots behind it, deliberately).
        while let Some(&(op, seq)) = self.pending_entries.front() {
            let done = match op {
                OpType::Read => seq <= self.cached_read_progress,
                OpType::Write => seq <= self.cached_write_progress,
            };
            if done {
                self.meta_free_head += 1;
                self.pending_entries.pop_front();
            } else {
                break;
            }
        }
        self.scrape_telemetry();
    }

    /// In-band readback: pick up the engine's latest telemetry snapshot
    /// from the channel's readback region, if a fresh one has landed. The
    /// stamp word is checked first so an unchanged (or still-empty) region
    /// costs one load; a torn image (the engine's write racing this read)
    /// fails the seqlock check and the previous snapshot is kept — the
    /// next refresh sees the settled image.
    fn scrape_telemetry(&mut self) {
        let off = self.layout.telem_offset();
        let seq = self.region.load_u64(off, Ordering::Acquire);
        if seq == 0 || seq == self.telem_seen_seq {
            return;
        }
        let mut raw = [0u8; TELEM_LEN as usize];
        self.region.read(off, &mut raw).expect("in-layout read");
        let Some((seq, snap)) = TelemetrySnapshot::decode(&raw) else {
            return;
        };
        if seq <= self.telem_seen_seq {
            return;
        }
        self.telem_seen_seq = seq;
        self.engine_telem = Some(snap);
        self.stats.telem_scrapes += 1;
        self.rec.record(
            Component::Client,
            EventKind::TelemetryScraped,
            0,
            seq,
            snap.backlog,
        );
    }

    /// The freshest engine telemetry snapshot scraped off the readback
    /// region (with its seqlock stamp), or `None` if no valid snapshot has
    /// landed yet. Scraping happens on the normal [`Channel::refresh`]
    /// poll sweep — the client never issues a verb for it.
    pub fn engine_telemetry(&self) -> Option<(u64, TelemetrySnapshot)> {
        self.engine_telem.map(|s| (self.telem_seen_seq, s))
    }

    /// Export the scraped engine snapshot as `cowbird.engine.readback.*`
    /// gauges, labelled with the owning shard. No-op until a snapshot has
    /// landed.
    pub fn export_engine_telemetry(&self, reg: &telemetry::MetricsRegistry) {
        let Some((seq, snap)) = self.engine_telemetry() else {
            return;
        };
        let shard = snap.shard_id.to_string();
        let labels: &[(&str, &str)] = &[("shard", shard.as_str())];
        reg.gauge_set("cowbird.engine.readback.snapshot_seq", labels, seq as f64);
        reg.gauge_set(
            "cowbird.engine.readback.sweeps_count",
            labels,
            snap.sweeps as f64,
        );
        reg.gauge_set(
            "cowbird.engine.readback.backlog_len",
            labels,
            snap.backlog as f64,
        );
        reg.gauge_set(
            "cowbird.engine.readback.reads_executed_count",
            labels,
            snap.reads_executed as f64,
        );
        reg.gauge_set(
            "cowbird.engine.readback.writes_executed_count",
            labels,
            snap.writes_executed as f64,
        );
        reg.gauge_set(
            "cowbird.engine.readback.red_updates_count",
            labels,
            snap.red_updates as f64,
        );
        reg.gauge_set(
            "cowbird.engine.readback.chain_posts_count",
            labels,
            snap.chain_posts as f64,
        );
        reg.gauge_set(
            "cowbird.engine.readback.chained_wrs_count",
            labels,
            snap.chained_wrs as f64,
        );
        reg.gauge_set(
            "cowbird.engine.readback.sg_merges_count",
            labels,
            snap.sg_merges as f64,
        );
        reg.gauge_set(
            "cowbird.engine.readback.arena_hits_count",
            labels,
            snap.arena_hits as f64,
        );
        reg.gauge_set(
            "cowbird.engine.readback.arena_misses_count",
            labels,
            snap.arena_misses as f64,
        );
        reg.gauge_set(
            "cowbird.engine.readback.arena_recycled_count",
            labels,
            snap.arena_recycled as f64,
        );
        reg.gauge_set(
            "cowbird.engine.readback.shard_queue_len",
            labels,
            snap.shard_queue_depth as f64,
        );
    }

    /// Last completed sequence number for an operation type (cached; call
    /// [`Channel::refresh`] to re-read shared state).
    pub fn progress(&self, op: OpType) -> u64 {
        match op {
            OpType::Read => self.cached_read_progress,
            OpType::Write => self.cached_write_progress,
        }
    }

    /// Is this request complete? Refreshes at most once.
    pub fn is_complete(&mut self, id: ReqId) -> bool {
        debug_assert_eq!(id.channel(), self.cid);
        if id.completed_by(self.progress(id.op())) {
            return true;
        }
        self.refresh();
        id.completed_by(self.progress(id.op()))
    }

    /// Copy a completed read's response out of the response ring and release
    /// its ring space.
    pub fn take_response(&mut self, h: &ReadHandle) -> Result<Vec<u8>, CowbirdError> {
        let mut out = Vec::new();
        self.take_response_into(h, &mut out)?;
        Ok(out)
    }

    /// Like [`Channel::take_response`], but copies into a caller-owned
    /// scratch vector (cleared and resized in place): a reap loop that
    /// drains one op at a time pays zero allocations once the scratch has
    /// grown to the record length.
    pub fn take_response_into(
        &mut self,
        h: &ReadHandle,
        out: &mut Vec<u8>,
    ) -> Result<(), CowbirdError> {
        let at = self.consume(h)?;
        self.region
            .read_into(at, h.len as usize, out)
            .expect("in-layout read");
        Ok(())
    }

    /// Decode a completed chase response: the leading status word plus the
    /// payload block (empty when no block was fetched). Releases the ring
    /// space like [`Channel::take_response`].
    pub fn take_chase_response(&mut self, h: &ReadHandle) -> Result<ChaseOutcome, CowbirdError> {
        let at = self.consume(h)?;
        debug_assert!(u64::from(h.len) >= CHASE_RESP_OVERHEAD);
        let mut word = [0u8; 8];
        self.region.read(at, &mut word).expect("in-layout read");
        let status = ChaseStatusWord::decode(u64::from_le_bytes(word))
            .ok_or(CowbirdError::MalformedResponse)?;
        let data = match status.status {
            crate::meta::ChaseStatus::Ok | crate::meta::ChaseStatus::BudgetExhausted => self
                .region
                .read_vec(at + 8, h.len as usize - 8)
                .expect("in-layout read"),
            _ => Vec::new(),
        };
        Ok(ChaseOutcome { status, data })
    }

    /// Claim a completed read's response and release its ring space, which
    /// the caller reads at the returned offset before issuing again. The
    /// read is found by index: `pending_reads` holds consecutive seqs, since
    /// every read-type issue pushes the next one and only the front is ever
    /// removed.
    fn consume(&mut self, h: &ReadHandle) -> Result<u64, CowbirdError> {
        if h.id.channel() != self.cid {
            return Err(CowbirdError::ForeignRequest);
        }
        if !self.is_complete(h.id) {
            return Err(CowbirdError::NotComplete);
        }
        let seq = h.id.seq();
        let idx = self
            .pending_reads
            .front()
            .and_then(|p| seq.checked_sub(p.seq));
        let Some(p) = idx.and_then(|i| self.pending_reads.get_mut(i as usize)) else {
            return Err(CowbirdError::AlreadyTaken);
        };
        debug_assert_eq!(p.seq, seq);
        if p.consumed {
            return Err(CowbirdError::AlreadyTaken);
        }
        p.consumed = true;
        // Opportunistically reclaim the freed prefix.
        while let Some(front) = self.pending_reads.front() {
            if front.consumed && front.seq <= self.cached_read_progress {
                self.rdata_head = front.rdata_end;
                self.pending_reads.pop_front();
            } else {
                break;
            }
        }
        Ok(self.layout.rdata_phys(h.rdata_start))
    }

    /// Copy a completed read's response into `out` without releasing it.
    pub fn peek_response(&self, h: &ReadHandle, out: &mut [u8]) -> Result<(), CowbirdError> {
        if h.id.channel() != self.cid {
            return Err(CowbirdError::ForeignRequest);
        }
        if !h.id.completed_by(self.progress(OpType::Read)) {
            return Err(CowbirdError::NotComplete);
        }
        let n = out.len().min(h.len as usize);
        self.region
            .read(self.layout.rdata_phys(h.rdata_start), &mut out[..n])
            .expect("in-layout read");
        Ok(())
    }

    // ------------------------------------------------------------------
    // poll_wait-style helpers (see also `PollGroup`)
    // ------------------------------------------------------------------

    /// Spin until `id` completes or `spin_limit` refreshes pass. Returns
    /// whether it completed. (The blocking form is meant for the real-thread
    /// substrate; simulations model poll costs explicitly.)
    pub fn wait(&mut self, id: ReqId, spin_limit: u64) -> bool {
        for _ in 0..spin_limit {
            if self.is_complete(id) {
                self.rec.record(
                    Component::Client,
                    EventKind::RequestCompleted,
                    id.raw(),
                    self.progress(id.op()),
                    0,
                );
                return true;
            }
            std::hint::spin_loop();
        }
        false
    }

    /// Deadline-bounded [`Channel::wait`]: distinguishes "completed" from a
    /// progress stall. If the spin budget expires with the request still
    /// outstanding, the engine is presumed dead and
    /// [`WaitError::EngineStalled`] tells the caller to fail over (fence,
    /// attach a standby, retry).
    pub fn wait_timeout(&mut self, id: ReqId, spin_limit: u64) -> Result<(), WaitError> {
        if self.wait(id, spin_limit) {
            return Ok(());
        }
        let (r, w) = self.in_flight();
        self.rec.record(
            Component::Client,
            EventKind::EngineStalled,
            id.raw(),
            r + w,
            0,
        );
        Err(WaitError::EngineStalled {
            pending: (r + w) as usize,
        })
    }

    // ------------------------------------------------------------------
    // Failover
    // ------------------------------------------------------------------

    /// The engine epoch this client currently trusts.
    pub fn engine_epoch(&self) -> u64 {
        self.engine_epoch
    }

    /// Fence the current engine and return the epoch a successor must run
    /// at. Publishes the new epoch in the green block: the old engine (if
    /// merely wedged, not dead) observes it on its next probe and stops
    /// writing; red blocks it already posted are discarded by
    /// [`Channel::refresh`]'s epoch check.
    ///
    /// Protocol: fence exactly once per takeover, *then* attach the standby
    /// (which adopts at `old epoch + 1 == fence epoch`).
    pub fn fence_engine(&mut self) -> u64 {
        self.engine_epoch += 1;
        self.region
            .store_u64(GREEN_CLIENT_EPOCH, self.engine_epoch, Ordering::Release);
        self.stats.fences += 1;
        self.rec.record(
            Component::Client,
            EventKind::FenceRaised,
            0,
            self.engine_epoch,
            0,
        );
        self.engine_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RemoteRegion;

    fn regions_1mb() -> RegionMap {
        let mut m = RegionMap::new();
        m.insert(
            1,
            RemoteRegion {
                rkey: 9,
                base: 0,
                size: 1 << 20,
            },
        );
        m
    }

    /// A minimal in-test "engine": reads the rings directly (the real ones
    /// go through RDMA; the memory discipline is identical) and completes
    /// everything it finds.
    struct MiniEngine {
        consumed_meta: u64,
        read_done: u64,
        write_done: u64,
    }

    impl MiniEngine {
        fn new() -> MiniEngine {
            MiniEngine {
                consumed_meta: 0,
                read_done: 0,
                write_done: 0,
            }
        }

        /// Process all published entries; fill read responses with a marker.
        fn run(&mut self, region: &Region, layout: &ChannelLayout) {
            let tail = region.load_u64(GREEN_META_TAIL, Ordering::Acquire);
            while self.consumed_meta < tail {
                let base = layout.meta_entry_offset(self.consumed_meta);
                let words = [
                    region.load_u64(base, Ordering::Acquire),
                    region.load_u64(base + 8, Ordering::Acquire),
                    region.load_u64(base + 16, Ordering::Acquire),
                    region.load_u64(base + 24, Ordering::Acquire),
                ];
                let meta = RequestMeta::decode(words, self.consumed_meta)
                    .expect("published entry must decode");
                match meta.rw_type {
                    RwType::Read => {
                        let fill: Vec<u8> = (0..meta.length).map(|i| (i % 251) as u8).collect();
                        region.write(meta.resp_addr, &fill).unwrap();
                        self.read_done += 1;
                        region.store_u64(RED_READ_PROGRESS, self.read_done, Ordering::Release);
                    }
                    RwType::ReadIndirect | RwType::Chase => {
                        // No pool behind this mini engine: answer every chase
                        // with a one-hop Ok so the client decode path runs.
                        let status = crate::meta::ChaseStatusWord {
                            status: crate::meta::ChaseStatus::Ok,
                            hops: 1,
                            final_addr: meta.req_addr + meta.chase.stride as u64,
                        };
                        region.store_u64(meta.resp_addr, status.encode(), Ordering::Release);
                        let fill: Vec<u8> = (0..meta.length).map(|i| (i % 251) as u8).collect();
                        region.write(meta.resp_addr + 8, &fill).unwrap();
                        self.read_done += 1;
                        region.store_u64(RED_READ_PROGRESS, self.read_done, Ordering::Release);
                    }
                    RwType::Write => {
                        self.write_done += 1;
                        region.store_u64(RED_WRITE_PROGRESS, self.write_done, Ordering::Release);
                    }
                    RwType::Invalid => unreachable!(),
                }
                self.consumed_meta += 1;
                region.store_u64(RED_META_HEAD, self.consumed_meta, Ordering::Release);
            }
        }
    }

    #[test]
    fn read_completes_and_returns_data() {
        let mut ch = Channel::new(0, ChannelLayout::tiny(), regions_1mb());
        let mut eng = MiniEngine::new();
        let h = ch.async_read(1, 4096, 16).unwrap();
        assert!(!ch.is_complete(h.id));
        eng.run(ch.region(), &ch.layout());
        assert!(ch.is_complete(h.id));
        let data = ch.take_response(&h).unwrap();
        assert_eq!(data.len(), 16);
        assert_eq!(data[3], 3);
        // Double-take is rejected.
        assert_eq!(ch.take_response(&h), Err(CowbirdError::AlreadyTaken));
    }

    #[test]
    fn out_of_order_takes_return_own_bytes_and_free_only_the_prefix() {
        let mut ch = Channel::new(0, ChannelLayout::tiny(), regions_1mb());
        let mut eng = MiniEngine::new();
        let handles: Vec<_> = (0..4).map(|_| ch.async_read(1, 0, 16).unwrap()).collect();
        eng.run(ch.region(), &ch.layout());
        // Overwrite each response with its own marker.
        for (i, h) in handles.iter().enumerate() {
            let at = ch.layout().rdata_phys(h.rdata_start);
            ch.region().write(at, &[i as u8 + 1; 16]).unwrap();
        }
        let end = |i: usize| handles[i].rdata_start + 16;
        // Take 3, 1, 4, 2: the ring head moves only once the prefix is taken.
        for (k, head) in [(2, 0), (0, end(0)), (3, end(0)), (1, end(3))] {
            let h = &handles[k];
            assert_eq!(ch.take_response(h).unwrap(), [k as u8 + 1; 16]);
            assert_eq!(ch.take_response(h), Err(CowbirdError::AlreadyTaken));
            assert_eq!(ch.rdata_head, head, "after taking read {}", k + 1);
        }
    }

    #[test]
    fn chase_issues_one_entry_and_decodes_status() {
        use crate::meta::ChaseStatus;
        let mut ch = Channel::new(0, ChannelLayout::tiny(), regions_1mb());
        let mut eng = MiniEngine::new();
        let h = ch.async_read_indirect(1, 4096, 0, 24, 64).unwrap();
        // One ring entry, sequenced as a read.
        assert_eq!(ch.stats.reads_issued, 1);
        assert_eq!(ch.stats.chases_issued, 1);
        assert_eq!(h.len, 64 + 8, "handle spans status word + payload");
        eng.run(ch.region(), &ch.layout());
        assert!(ch.is_complete(h.id));
        let out = ch.take_chase_response(&h).unwrap();
        assert_eq!(out.status.status, ChaseStatus::Ok);
        assert_eq!(out.status.hops, 1);
        assert_eq!(out.status.final_addr, 4096 + 24);
        assert_eq!(out.data.len(), 64);
        assert_eq!(out.data[3], 3);
        // Ring space is released like a plain read's.
        assert!(matches!(
            ch.take_chase_response(&h),
            Err(CowbirdError::AlreadyTaken)
        ));
    }

    #[test]
    fn chase_validates_base_pointer_word_and_budget_clamps() {
        let mut ch = Channel::new(0, ChannelLayout::tiny(), regions_1mb());
        // Base pointer word outside the region is rejected at issue time.
        let err = ch
            .async_read_indirect(1, (1 << 20) - 4, 0, 0, 8)
            .unwrap_err();
        assert!(matches!(err, IssueError::OutOfRegionBounds { .. }));
        // Oversized budget / stride are clamped, not rejected.
        let h = ch.async_chase(1, 0, 0, u16::MAX, 8, 200).unwrap();
        let layout = ch.layout();
        let region = ch.region().clone();
        let base = layout.meta_entry_offset(0);
        let words = [
            region.load_u64(base, Ordering::Acquire),
            region.load_u64(base + 8, Ordering::Acquire),
            region.load_u64(base + 16, Ordering::Acquire),
            region.load_u64(base + 24, Ordering::Acquire),
        ];
        let meta = RequestMeta::decode(words, 0).unwrap();
        assert_eq!(meta.rw_type, RwType::Chase);
        assert_eq!(meta.chase.budget, CHASE_BUDGET_MAX);
        assert_eq!(meta.chase.stride, CHASE_STRIDE_MAX);
        let _ = h;
    }

    #[test]
    fn write_completes() {
        let mut ch = Channel::new(0, ChannelLayout::tiny(), regions_1mb());
        let mut eng = MiniEngine::new();
        let id = ch.async_write(1, 64, b"payload!").unwrap();
        assert!(!id.completed_by(ch.progress(OpType::Write)));
        eng.run(ch.region(), &ch.layout());
        assert!(ch.is_complete(id));
        assert_eq!(ch.in_flight(), (0, 0));
    }

    #[test]
    fn metadata_ring_full_returns_retryable_error() {
        let mut ch = Channel::new(0, ChannelLayout::tiny(), regions_1mb());
        // tiny layout: 8 entries; writes of 1 byte don't hit data limits.
        for _ in 0..8 {
            ch.async_write(1, 0, &[1]).unwrap();
        }
        let err = ch.async_write(1, 0, &[1]).unwrap_err();
        assert_eq!(err, IssueError::MetadataRingFull);
        assert!(err.is_retryable());
        // After the engine drains, issuing works again.
        let mut eng = MiniEngine::new();
        eng.run(ch.region(), &ch.layout());
        ch.async_write(1, 0, &[1]).unwrap();
    }

    #[test]
    fn response_ring_backpressure_until_responses_taken() {
        let mut ch = Channel::new(0, ChannelLayout::tiny(), regions_1mb());
        let mut eng = MiniEngine::new();
        // tiny: rdata 256 bytes. Two 128-byte reads fill it.
        let h1 = ch.async_read(1, 0, 128).unwrap();
        let _h2 = ch.async_read(1, 0, 128).unwrap();
        let err = ch.async_read(1, 0, 1).unwrap_err();
        assert_eq!(err, IssueError::ResponseDataRingFull);
        // Engine completes them; still full until the app consumes.
        eng.run(ch.region(), &ch.layout());
        assert_eq!(
            ch.async_read(1, 0, 128).unwrap_err(),
            IssueError::ResponseDataRingFull
        );
        ch.take_response(&h1).unwrap();
        // Now one slot's worth is free.
        ch.async_read(1, 0, 128).unwrap();
    }

    #[test]
    fn oversized_request_is_rejected_permanently() {
        let mut ch = Channel::new(0, ChannelLayout::tiny(), regions_1mb());
        let err = ch.async_read(1, 0, 512).unwrap_err();
        assert!(matches!(err, IssueError::RequestTooLarge { .. }));
        assert!(!err.is_retryable());
    }

    #[test]
    fn unknown_region_and_bounds_are_validated() {
        let mut ch = Channel::new(0, ChannelLayout::tiny(), regions_1mb());
        assert_eq!(
            ch.async_read(7, 0, 8).unwrap_err(),
            IssueError::UnknownRegion(7)
        );
        let err = ch.async_read(1, (1 << 20) - 4, 8).unwrap_err();
        assert!(matches!(err, IssueError::OutOfRegionBounds { .. }));
    }

    #[test]
    fn write_payload_lands_in_request_data_ring() {
        let mut ch = Channel::new(3, ChannelLayout::tiny(), regions_1mb());
        ch.async_write(1, 0, b"abcdef").unwrap();
        // The engine's view: decode entry 0, then read the payload bytes.
        let layout = ch.layout();
        let region = ch.region().clone();
        let words = [
            region.load_u64(layout.meta_entry_offset(0), Ordering::Acquire),
            region.load_u64(layout.meta_entry_offset(0) + 8, Ordering::Acquire),
            region.load_u64(layout.meta_entry_offset(0) + 16, Ordering::Acquire),
            region.load_u64(layout.meta_entry_offset(0) + 24, Ordering::Acquire),
        ];
        let meta = RequestMeta::decode(words, 0).unwrap();
        assert_eq!(meta.rw_type, RwType::Write);
        assert_eq!(meta.length, 6);
        assert_eq!(meta.region_id, 1);
        assert_eq!(region.read_vec(meta.req_addr, 6).unwrap(), b"abcdef");
    }

    #[test]
    fn req_ids_are_monotone_per_type() {
        let mut ch = Channel::new(0, ChannelLayout::default_sizes(), regions_1mb());
        let r1 = ch.async_read(1, 0, 8).unwrap();
        let w1 = ch.async_write(1, 0, &[0]).unwrap();
        let r2 = ch.async_read(1, 0, 8).unwrap();
        assert_eq!(r1.id.seq(), 1);
        assert_eq!(w1.seq(), 1);
        assert_eq!(r2.id.seq(), 2);
        assert_eq!(r1.id.op(), OpType::Read);
        assert_eq!(w1.op(), OpType::Write);
    }

    #[test]
    fn meta_slots_free_on_completion_not_fetch() {
        let mut ch = Channel::new(0, ChannelLayout::tiny(), regions_1mb());
        for _ in 0..8 {
            ch.async_write(1, 0, &[1]).unwrap();
        }
        // The engine fetched the whole ring but completed nothing: every
        // slot is still live (a standby must be able to re-parse them).
        ch.region().store_u64(RED_META_HEAD, 8, Ordering::Release);
        assert_eq!(
            ch.async_write(1, 0, &[1]).unwrap_err(),
            IssueError::MetadataRingFull
        );
        // Completing one write frees exactly one slot.
        ch.region()
            .store_u64(RED_WRITE_PROGRESS, 1, Ordering::Release);
        ch.async_write(1, 0, &[1]).unwrap();
        assert_eq!(
            ch.async_write(1, 0, &[1]).unwrap_err(),
            IssueError::MetadataRingFull
        );
    }

    #[test]
    fn wait_timeout_distinguishes_stall_from_completion() {
        let mut ch = Channel::new(0, ChannelLayout::tiny(), regions_1mb());
        let h = ch.async_read(1, 0, 8).unwrap();
        let _w = ch.async_write(1, 0, &[1]).unwrap();
        match ch.wait_timeout(h.id, 10) {
            Err(WaitError::EngineStalled { pending }) => assert_eq!(pending, 2),
            other => panic!("expected stall, got {other:?}"),
        }
        let mut eng = MiniEngine::new();
        eng.run(ch.region(), &ch.layout());
        ch.wait_timeout(h.id, 10).unwrap();
    }

    #[test]
    fn fenced_zombie_red_updates_are_ignored() {
        let mut ch = Channel::new(0, ChannelLayout::tiny(), regions_1mb());
        let h = ch.async_read(1, 0, 8).unwrap();
        // Client fences epoch 0 (engine presumed dead)…
        assert_eq!(ch.fence_engine(), 1);
        assert_eq!(
            ch.region().load_u64(GREEN_CLIENT_EPOCH, Ordering::Acquire),
            1
        );
        // …but the zombie writes a completion anyway (still at epoch 0).
        ch.region()
            .store_u64(RED_READ_PROGRESS, 1, Ordering::Release);
        assert!(
            !ch.is_complete(h.id),
            "stale-epoch completion must not land"
        );
        assert!(ch.stats.stale_red_ignored > 0);
        // The standby (epoch 1) republishes the red block; now it lands.
        ch.region()
            .store_u64(RED_ENGINE_EPOCH, 1, Ordering::Release);
        assert!(ch.is_complete(h.id));
        assert_eq!(ch.stats.fences, 1);
    }

    #[test]
    fn unfenced_takeover_is_adopted_and_blessed() {
        let mut ch = Channel::new(0, ChannelLayout::tiny(), regions_1mb());
        // A standby at epoch 2 appears without the client having fenced.
        ch.region()
            .store_u64(RED_ENGINE_EPOCH, 2, Ordering::Release);
        ch.refresh();
        assert_eq!(ch.engine_epoch(), 2);
        assert_eq!(ch.stats.engine_takeovers, 1);
        // The client propagates the fence so the old engine stands down.
        assert_eq!(
            ch.region().load_u64(GREEN_CLIENT_EPOCH, Ordering::Acquire),
            2
        );
    }

    #[test]
    fn refresh_counts_completion_runs() {
        let mut ch = Channel::new(0, ChannelLayout::default_sizes(), regions_1mb());
        let mut eng = MiniEngine::new();
        for _ in 0..4 {
            ch.async_read(1, 0, 8).unwrap();
        }
        // The engine completes all four before the client polls once: the
        // single refresh observes one run of length 4.
        eng.run(ch.region(), &ch.layout());
        ch.refresh();
        assert_eq!(ch.stats.completion_runs, 1);
        assert_eq!(ch.stats.max_run_len, 4);
        // A refresh with no progress is not a run.
        ch.refresh();
        assert_eq!(ch.stats.completion_runs, 1);
    }

    #[test]
    fn refresh_scrapes_readback_snapshots_and_skips_torn_images() {
        let mut ch = Channel::new(0, ChannelLayout::tiny(), regions_1mb());
        assert_eq!(ch.engine_telemetry(), None);
        ch.refresh();
        assert_eq!(ch.engine_telemetry(), None, "zeroed region yields nothing");
        assert_eq!(ch.stats.telem_scrapes, 0);

        // The engine lands a snapshot (over RDMA in production; same bytes).
        let snap = TelemetrySnapshot {
            sweeps: 40,
            backlog: 3,
            shard_id: 2,
            shard_queue_depth: 5,
            ..TelemetrySnapshot::default()
        };
        let off = ch.layout().telem_offset();
        ch.region().write(off, &snap.encode(2)).unwrap();
        ch.refresh();
        assert_eq!(ch.engine_telemetry(), Some((2, snap)));
        assert_eq!(ch.stats.telem_scrapes, 1);
        // Unchanged stamp: no re-decode, no new scrape.
        ch.refresh();
        assert_eq!(ch.stats.telem_scrapes, 1);

        // A torn image (stamp bumped, trailer stale) is ignored and the
        // previous snapshot survives.
        let mut torn = snap.encode(4);
        torn[TELEM_LEN as usize - 8..].copy_from_slice(&2u64.to_le_bytes());
        ch.region().write(off, &torn).unwrap();
        ch.refresh();
        assert_eq!(ch.engine_telemetry(), Some((2, snap)));
        assert_eq!(ch.stats.telem_scrapes, 1);

        // The settled image lands on the next poll.
        let snap2 = TelemetrySnapshot { sweeps: 80, ..snap };
        ch.region().write(off, &snap2.encode(4)).unwrap();
        ch.refresh();
        assert_eq!(ch.engine_telemetry(), Some((4, snap2)));
        assert_eq!(ch.stats.telem_scrapes, 2);

        // Exported gauges carry the shard label and suffixed names.
        let reg = telemetry::MetricsRegistry::new();
        ch.export_engine_telemetry(&reg);
        let json = reg.snapshot().to_json();
        assert!(json.contains("cowbird.engine.readback.sweeps_count"));
        assert!(json.contains("cowbird.engine.readback.shard_queue_len"));
        assert!(json.contains("{shard=2}"));
    }

    #[test]
    fn sustained_traffic_wraps_all_rings() {
        let mut ch = Channel::new(0, ChannelLayout::tiny(), regions_1mb());
        let mut eng = MiniEngine::new();
        for round in 0..100u64 {
            let h = ch.async_read(1, round * 8, 48).unwrap();
            let id = ch.async_write(1, round * 8, &[round as u8; 40]).unwrap();
            eng.run(ch.region(), &ch.layout());
            assert!(ch.is_complete(h.id), "round {round}");
            assert!(ch.is_complete(id), "round {round}");
            let data = ch.take_response(&h).unwrap();
            assert_eq!(data.len(), 48);
        }
        assert_eq!(ch.stats.reads_issued, 100);
        assert_eq!(ch.stats.writes_issued, 100);
    }
}
