//! Poll notification groups — the epoll-like completion interface of
//! paper §4.1 and §4.4.
//!
//! "`poll_create()` allocates a list of (region_id, req_id) tuples. Adding or
//! removing requests from the notification group updates an integer for the
//! associated region that tracks the maximum registered req_id. [...] it
//! checks for such completions in every poll* call. For efficiency, req_ids
//! are generated [so that] almost all checks can be done with simple integer
//! arithmetic and comparison."
//!
//! Because sequence numbers are monotone per (channel, type), the group keeps
//! two sorted queues; a poll pops the prefix at or below the corresponding
//! progress counter — O(completions), no hashing, no scanning.
//!
//! **No-wrap assumption.** All of this relies on per-type seqs increasing
//! monotonically without wrapping: `completed_by` is `seq <= progress`, and
//! the queues pop strictly increasing prefixes. Seqs are 48 bits
//! ([`crate::reqid::MAX_SEQ`]) — at one request per nanosecond a channel
//! would take over three days of sustained issue to exhaust them, and a
//! channel (re)starts from 1, so wraparound is deliberately unhandled.
//! Engine failover preserves the assignment: a standby re-derives the exact
//! seqs of in-flight requests from the committed floor, never reusing or
//! skipping one.

use std::collections::VecDeque;

use crate::channel::Channel;
use crate::error::WaitError;
use crate::reqid::{OpType, ReqId};

/// A run of consecutively-numbered completions of one type, reported as a
/// single unit: `first`, `first+1`, …, `first + count - 1` all completed.
///
/// Runs are what a moderated engine produces: one red-block write covers a
/// whole burst of back-to-back completions, so the client can consume them
/// with one progress comparison instead of one per request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompletionRun {
    /// First completed request of the run.
    pub first: ReqId,
    /// Number of consecutive seqs covered (≥ 1).
    pub count: u64,
}

impl CompletionRun {
    /// The last request id covered by the run.
    pub fn last(&self) -> ReqId {
        ReqId::new(
            self.first.op(),
            self.first.channel(),
            self.first.seq() + self.count - 1,
        )
    }

    /// Iterate every request id in the run, in seq order.
    pub fn ids(&self) -> impl Iterator<Item = ReqId> + '_ {
        let (op, ch, base) = (self.first.op(), self.first.channel(), self.first.seq());
        (0..self.count).map(move |i| ReqId::new(op, ch, base + i))
    }
}

/// A notification group for Cowbird requests on one channel.
#[derive(Debug, Default)]
pub struct PollGroup {
    reads: VecDeque<ReqId>,
    writes: VecDeque<ReqId>,
    /// Max registered seq per type (the paper's tracked integers).
    max_read_seq: u64,
    max_write_seq: u64,
}

impl PollGroup {
    /// `poll_create()`.
    pub fn new() -> PollGroup {
        PollGroup::default()
    }

    /// `poll_add(poll_id, req_id)`. Requests must be added in issue order
    /// per type (they are, if added as issued — the natural pattern).
    pub fn add(&mut self, id: ReqId) {
        match id.op() {
            OpType::Read => {
                debug_assert!(id.seq() > self.max_read_seq, "poll_add out of order");
                self.max_read_seq = self.max_read_seq.max(id.seq());
                self.reads.push_back(id);
            }
            OpType::Write => {
                debug_assert!(id.seq() > self.max_write_seq, "poll_add out of order");
                self.max_write_seq = self.max_write_seq.max(id.seq());
                self.writes.push_back(id);
            }
        }
    }

    /// `poll_remove(poll_id, req_id)`.
    pub fn remove(&mut self, id: ReqId) -> bool {
        let q = match id.op() {
            OpType::Read => &mut self.reads,
            OpType::Write => &mut self.writes,
        };
        if let Some(pos) = q.iter().position(|&r| r == id) {
            q.remove(pos);
            true
        } else {
            false
        }
    }

    /// Number of registered, not-yet-reported requests.
    pub fn pending(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    /// Non-blocking poll: report completions against the channel's *cached*
    /// progress (cheap); refreshes once if nothing is ready.
    pub fn poll_try(&mut self, ch: &mut Channel, max_ret: usize) -> Vec<ReqId> {
        let mut out = Vec::new();
        self.collect(ch, max_ret, &mut out);
        if out.is_empty() && self.pending() > 0 {
            ch.refresh();
            self.collect(ch, max_ret, &mut out);
        }
        out
    }

    /// Non-blocking run-length poll: like [`PollGroup::poll_try`], but
    /// consecutive completions of one type collapse into a single
    /// [`CompletionRun`]. `max_ids` bounds the total seqs consumed (not the
    /// number of runs). With a coalescing engine the common case is one run
    /// per type per poll — O(1) bookkeeping for a whole completion burst.
    pub fn poll_runs(&mut self, ch: &mut Channel, max_ids: usize) -> Vec<CompletionRun> {
        let mut out = Vec::new();
        self.collect_runs(ch, max_ids, &mut out);
        if out.is_empty() && self.pending() > 0 {
            ch.refresh();
            self.collect_runs(ch, max_ids, &mut out);
        }
        out
    }

    fn collect_runs(&mut self, ch: &Channel, max_ids: usize, out: &mut Vec<CompletionRun>) {
        let _scope = ch.profiler().scope(telemetry::Phase::Complete);
        let rec = ch.recorder();
        let mut budget = max_ids;
        let rp = ch.progress(OpType::Read);
        let wp = ch.progress(OpType::Write);
        for (q, progress) in [(&mut self.reads, rp), (&mut self.writes, wp)] {
            let mut run: Option<CompletionRun> = None;
            while budget > 0 {
                match q.front() {
                    Some(id) if id.completed_by(progress) => {
                        let id = q.pop_front().unwrap();
                        budget -= 1;
                        match &mut run {
                            // Consecutive seq: extend the current run.
                            Some(r) if id.seq() == r.first.seq() + r.count => r.count += 1,
                            _ => {
                                if let Some(r) = run.take() {
                                    out.push(r);
                                }
                                run = Some(CompletionRun {
                                    first: id,
                                    count: 1,
                                });
                            }
                        }
                    }
                    _ => break,
                }
            }
            if let Some(r) = run {
                out.push(r);
            }
        }
        for r in out.iter() {
            rec.record(
                telemetry::Component::Client,
                telemetry::EventKind::RequestCompleted,
                r.first.raw(),
                r.last().seq(),
                r.count,
            );
        }
    }

    fn collect(&mut self, ch: &Channel, max_ret: usize, out: &mut Vec<ReqId>) {
        // Cycle attribution: delivering completions to the application is
        // the `Complete` phase (the red-block re-read inside `refresh` has
        // already charged `CowbirdPoll`).
        let _scope = ch.profiler().scope(telemetry::Phase::Complete);
        let rec = ch.recorder();
        let rp = ch.progress(OpType::Read);
        while out.len() < max_ret {
            match self.reads.front() {
                Some(id) if id.completed_by(rp) => {
                    let id = self.reads.pop_front().unwrap();
                    rec.record(
                        telemetry::Component::Client,
                        telemetry::EventKind::RequestCompleted,
                        id.raw(),
                        rp,
                        0,
                    );
                    out.push(id);
                }
                _ => break,
            }
        }
        let wp = ch.progress(OpType::Write);
        while out.len() < max_ret {
            match self.writes.front() {
                Some(id) if id.completed_by(wp) => {
                    let id = self.writes.pop_front().unwrap();
                    rec.record(
                        telemetry::Component::Client,
                        telemetry::EventKind::RequestCompleted,
                        id.raw(),
                        wp,
                        0,
                    );
                    out.push(id);
                }
                _ => break,
            }
        }
    }

    /// The paper's `poll_wait(poll_id, responses, max_ret, timeout)`: spin
    /// until `max_ret` completions arrive or `spin_limit` refresh rounds
    /// elapse. Meant for the real-thread substrate (simulations model poll
    /// costs explicitly instead of spinning).
    ///
    /// An exhausted deadline is distinguishable from an idle group: if
    /// requests are registered but *zero* completions arrived within the
    /// budget, the engine is presumed dead and [`WaitError::EngineStalled`]
    /// tells the caller to fail over.
    /// Partial progress is returned as `Ok` (the engine is alive, just
    /// slower than the deadline), as is an immediate empty result when
    /// nothing is registered.
    pub fn poll_wait_timeout(
        &mut self,
        ch: &mut Channel,
        max_ret: usize,
        spin_limit: u64,
    ) -> Result<Vec<ReqId>, WaitError> {
        let mut out = Vec::new();
        let want = max_ret.min(self.pending());
        if want == 0 {
            return Ok(out);
        }
        for _ in 0..spin_limit {
            out.extend(self.poll_try(ch, max_ret - out.len()));
            if out.len() >= want {
                return Ok(out);
            }
            std::hint::spin_loop();
        }
        if out.is_empty() {
            ch.recorder().record(
                telemetry::Component::Client,
                telemetry::EventKind::EngineStalled,
                0,
                self.pending() as u64,
                0,
            );
            return Err(WaitError::EngineStalled {
                pending: self.pending(),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ChannelLayout;
    use crate::region::{RegionMap, RemoteRegion};
    use rdma::mem::Region;
    use std::sync::atomic::Ordering;

    fn channel() -> Channel {
        let mut m = RegionMap::new();
        m.insert(
            1,
            RemoteRegion {
                rkey: 1,
                base: 0,
                size: 1 << 16,
            },
        );
        Channel::new(0, ChannelLayout::default_sizes(), m)
    }

    fn complete(ch: &Channel, reads: u64, writes: u64) {
        let region: &Region = ch.region();
        region.store_u64(crate::layout::RED_READ_PROGRESS, reads, Ordering::Release);
        region.store_u64(crate::layout::RED_WRITE_PROGRESS, writes, Ordering::Release);
    }

    #[test]
    fn empty_group_polls_empty() {
        let mut ch = channel();
        let mut g = PollGroup::new();
        assert!(g.poll_try(&mut ch, 8).is_empty());
        assert_eq!(g.pending(), 0);
    }

    #[test]
    fn completions_report_in_order_up_to_max_ret() {
        let mut ch = channel();
        let mut g = PollGroup::new();
        let mut ids = Vec::new();
        for _ in 0..5 {
            let h = ch.async_read(1, 0, 8).unwrap();
            g.add(h.id);
            ids.push(h.id);
        }
        assert!(g.poll_try(&mut ch, 8).is_empty());
        complete(&ch, 3, 0);
        let got = g.poll_try(&mut ch, 2);
        assert_eq!(got, vec![ids[0], ids[1]]);
        let got = g.poll_try(&mut ch, 8);
        assert_eq!(got, vec![ids[2]]);
        assert_eq!(g.pending(), 2);
    }

    #[test]
    fn mixed_types_complete_independently() {
        let mut ch = channel();
        let mut g = PollGroup::new();
        let r = ch.async_read(1, 0, 8).unwrap();
        let w = ch.async_write(1, 0, &[0; 8]).unwrap();
        g.add(r.id);
        g.add(w);
        complete(&ch, 0, 1); // only the write done
        let got = g.poll_try(&mut ch, 8);
        assert_eq!(got, vec![w]);
        complete(&ch, 1, 1);
        let got = g.poll_try(&mut ch, 8);
        assert_eq!(got, vec![r.id]);
    }

    #[test]
    fn remove_unregisters() {
        let mut ch = channel();
        let mut g = PollGroup::new();
        let h = ch.async_read(1, 0, 8).unwrap();
        g.add(h.id);
        assert!(g.remove(h.id));
        assert!(!g.remove(h.id));
        complete(&ch, 1, 0);
        assert!(g.poll_try(&mut ch, 8).is_empty());
    }

    #[test]
    fn runs_collapse_consecutive_completions() {
        let mut ch = channel();
        let mut g = PollGroup::new();
        let reads: Vec<_> = (0..5).map(|_| ch.async_read(1, 0, 8).unwrap()).collect();
        let writes: Vec<_> = (0..2)
            .map(|_| ch.async_write(1, 0, &[0; 8]).unwrap())
            .collect();
        for h in &reads {
            g.add(h.id);
        }
        for w in &writes {
            g.add(*w);
        }
        assert!(g.poll_runs(&mut ch, 16).is_empty());
        complete(&ch, 3, 2);
        let runs = g.poll_runs(&mut ch, 16);
        assert_eq!(
            runs,
            vec![
                CompletionRun {
                    first: reads[0].id,
                    count: 3
                },
                CompletionRun {
                    first: writes[0],
                    count: 2
                },
            ]
        );
        assert_eq!(runs[0].last(), reads[2].id);
        assert_eq!(runs[0].ids().collect::<Vec<_>>().len(), 3);
        assert_eq!(g.pending(), 2);
    }

    #[test]
    fn runs_split_at_seq_gaps_and_respect_budget() {
        let mut ch = channel();
        let mut g = PollGroup::new();
        let reads: Vec<_> = (0..4).map(|_| ch.async_read(1, 0, 8).unwrap()).collect();
        for h in &reads {
            g.add(h.id);
        }
        // Remove seq 2: completions 1 and 3..4 are no longer consecutive.
        assert!(g.remove(reads[1].id));
        complete(&ch, 4, 0);
        // Budget of 2 ids stops the second run after one element.
        let runs = g.poll_runs(&mut ch, 2);
        assert_eq!(
            runs,
            vec![
                CompletionRun {
                    first: reads[0].id,
                    count: 1
                },
                CompletionRun {
                    first: reads[2].id,
                    count: 1
                },
            ]
        );
        let runs = g.poll_runs(&mut ch, 16);
        assert_eq!(
            runs,
            vec![CompletionRun {
                first: reads[3].id,
                count: 1
            }]
        );
        assert_eq!(g.pending(), 0);
    }

    #[test]
    fn poll_wait_timeout_separates_idle_stall_and_progress() {
        let mut ch = channel();
        let mut g = PollGroup::new();
        // Idle group: immediate Ok(empty), no spinning.
        assert_eq!(g.poll_wait_timeout(&mut ch, 8, 10).unwrap(), vec![]);
        let r = ch.async_read(1, 0, 8).unwrap();
        let w = ch.async_write(1, 0, &[0; 8]).unwrap();
        g.add(r.id);
        g.add(w);
        // Zero completions within the budget: the engine is stalled.
        assert_eq!(
            g.poll_wait_timeout(&mut ch, 2, 10),
            Err(crate::error::WaitError::EngineStalled { pending: 2 })
        );
        // Partial progress is Ok — slow is not dead.
        complete(&ch, 0, 1);
        assert_eq!(g.poll_wait_timeout(&mut ch, 2, 10).unwrap(), vec![w]);
        complete(&ch, 1, 1);
        assert_eq!(g.poll_wait_timeout(&mut ch, 2, 10).unwrap(), vec![r.id]);
    }
}
