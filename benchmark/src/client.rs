//! The closed-loop script client: keeps `window` ops of a pre-generated
//! [`Script`] in flight on one `cowbird::Channel` and checks every response.
//!
//! Substrate-free: the `sim_*` workloads drive it from a `simnet` node, the
//! direct `EngineCore` lane from a plain loop. "Now" is whatever clock the
//! driver passes in (virtual nanoseconds in both cases).

use std::collections::VecDeque;
use std::rc::Rc;

use cowbird::channel::{Channel, ReadHandle};
use cowbird::meta::{ChaseStatus, CHASE_PTR_MASK};
use cowbird::region::{RegionId, RegionMap, RemoteRegion};
use cowbird::reqid::{OpType, ReqId};
use rdma::mem::Rkey;
use telemetry::{Component, EventKind};

use crate::script::{Op, OpKind, Script, POOL_SPAN};
use crate::stats::LatHist;
use crate::timed::{now_ns, SpanSink, SAMPLE};

/// The one remote region every script addresses.
pub const REGION_ID: RegionId = 1;

/// The region map client and engine share: the whole pool as [`REGION_ID`].
pub fn pool_region_map(rkey: Rkey) -> RegionMap {
    let mut regions = RegionMap::new();
    regions.insert(
        REGION_ID,
        RemoteRegion {
            rkey,
            base: 0,
            size: POOL_SPAN,
        },
    );
    regions
}

struct PendingRead {
    handle: ReadHandle,
    issued_at: u64,
    op: u32,
}

pub struct ScriptClient {
    pub channel: Channel,
    script: Rc<Script>,
    window: usize,
    next: usize,
    // Completions arrive in per-type issue order (one progress counter per
    // type), so each queue is reaped strictly from the front.
    reads: VecDeque<PendingRead>,
    writes: VecDeque<(ReqId, u64)>,
    pub completed: u64,
    pub failed: u64,
    /// Issue → completion latency of every op, on the driver's clock.
    pub lat: LatHist,
    resp: Vec<u8>,
    wbuf: Vec<u8>,
    /// Panic on the first rejected response instead of counting it.
    check: bool,
    /// Traced run: where sampled per-request spans go.
    spans: Option<SpanSink>,
}

impl ScriptClient {
    pub fn new(
        channel: Channel,
        script: Rc<Script>,
        window: usize,
        check: bool,
        spans: Option<SpanSink>,
    ) -> ScriptClient {
        ScriptClient {
            channel,
            script,
            window,
            next: 0,
            reads: VecDeque::with_capacity(window),
            writes: VecDeque::with_capacity(window),
            completed: 0,
            failed: 0,
            lat: LatHist::default(),
            resp: Vec::new(),
            wbuf: Vec::new(),
            check,
            spans,
        }
    }

    pub fn done(&self) -> bool {
        self.completed == self.script.ops.len() as u64
    }

    /// Ops issued but not completed, plus ops never issued: what a run that
    /// hit its deadline must count as failed.
    pub fn unfinished(&self) -> u64 {
        self.script.ops.len() as u64 - self.completed
    }

    /// Issue script ops until the window or a ring is full.
    pub fn issue(&mut self, now: u64) {
        while self.reads.len() + self.writes.len() < self.window
            && self.next < self.script.ops.len()
        {
            let op = self.script.ops[self.next];
            // 1-in-SAMPLE ops get a span of their own, tagged with the
            // request id, so a trace can follow one request across layers.
            let span_start = match &self.spans {
                Some(_) if (self.next as u64).is_multiple_of(SAMPLE) => Some(now_ns()),
                _ => None,
            };
            let issued = match op.kind {
                OpKind::Read => self
                    .channel
                    .async_read(REGION_ID, op.addr, op.len)
                    .map(|h| self.push_read(h, now)),
                OpKind::Chase => self
                    .channel
                    .async_read_indirect(REGION_ID, op.addr, 0, 0, op.len)
                    .map(|h| self.push_read(h, now)),
                OpKind::Write | OpKind::SlotWrite => {
                    Script::write_payload(&op, &mut self.wbuf);
                    self.channel
                        .async_write(REGION_ID, op.addr, &self.wbuf)
                        .inspect(|&id| {
                            self.writes.push_back((id, now));
                        })
                }
            };
            match issued {
                Ok(id) => {
                    if let (Some(t0), Some(spans)) = (span_start, &self.spans) {
                        spans.record("cowbird.issue", t0, now_ns(), id.raw());
                    }
                    self.next += 1;
                }
                // A full ring drains on a later reap.
                Err(e) if e.is_retryable() => break,
                Err(e) => panic!("op {} ({op:?}) cannot be issued: {e}", self.next),
            }
        }
    }

    fn push_read(&mut self, handle: ReadHandle, now: u64) -> ReqId {
        self.reads.push_back(PendingRead {
            handle,
            issued_at: now,
            op: self.next as u32,
        });
        handle.id
    }

    /// Poll the channel and consume (and verify) everything that completed.
    pub fn reap(&mut self, now: u64) {
        self.channel.recorder().set_now_ns(now);
        self.channel.refresh();
        let read_progress = self.channel.progress(OpType::Read);
        while self
            .reads
            .front()
            .is_some_and(|p| p.handle.id.completed_by(read_progress))
        {
            let p = self.reads.pop_front().expect("front was just observed");
            let span_start = match &self.spans {
                Some(_) if (p.op as u64).is_multiple_of(SAMPLE) => Some(now_ns()),
                _ => None,
            };
            let ok = self.take_and_verify(&p);
            if let (Some(t0), Some(spans)) = (span_start, &self.spans) {
                spans.record("cowbird.reap", t0, now_ns(), p.handle.id.raw());
            }
            self.complete(p.handle.id, p.issued_at, now, ok, p.op as usize);
        }
        let write_progress = self.channel.progress(OpType::Write);
        while let Some(&(id, issued_at)) = self.writes.front() {
            if !id.completed_by(write_progress) {
                break;
            }
            self.writes.pop_front();
            // A write's effect is checked by the reads behind it and by the
            // final pool image.
            self.complete(id, issued_at, now, true, usize::MAX);
        }
    }

    fn take_and_verify(&mut self, p: &PendingRead) -> bool {
        let op: Op = self.script.ops[p.op as usize];
        match op.kind {
            OpKind::Read => {
                self.channel
                    .take_response_into(&p.handle, &mut self.resp)
                    .is_ok()
                    && Script::payload_ok(op.addr, op.aux as u32, &self.resp)
            }
            OpKind::Chase => match self.channel.take_chase_response(&p.handle) {
                // Every record's stamp is non-zero, so the fetched block
                // "points on": exactly one hop, chain-continues status.
                Ok(out) => {
                    out.status.status == ChaseStatus::BudgetExhausted
                        && out.status.hops == 1
                        && out.status.final_addr == op.aux & CHASE_PTR_MASK
                        && Script::payload_ok(op.aux, 0, &out.data)
                }
                Err(_) => false,
            },
            OpKind::Write | OpKind::SlotWrite => unreachable!("writes are not in the read queue"),
        }
    }

    fn complete(&mut self, id: ReqId, issued_at: u64, now: u64, ok: bool, op: usize) {
        let lat = now - issued_at;
        self.lat.record(lat);
        self.completed += 1;
        // What an application using the observability plane records per
        // request; one branch when the plane is off.
        self.channel.recorder().record(
            Component::Client,
            EventKind::RequestCompleted,
            id.raw(),
            lat,
            0,
        );
        if !ok {
            self.failed += 1;
            assert!(
                !self.check,
                "op {op} ({:?}) returned bytes the oracle rejects",
                self.script.ops.get(op)
            );
        }
    }
}
