//! The host-level verbs interface: work requests and completion queues.
//!
//! This mirrors the slice of the `ibv_*` API that disaggregation frameworks
//! actually use (paper §2.1): post a work request to a QP's send queue, later
//! poll a completion queue. The cost of doing just that — and nothing else —
//! is what Cowbird eliminates from the compute node.

use simnet::pool::PoolBuf;

use crate::mem::Rkey;

/// Operation kinds, for completions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WrKind {
    Read,
    Write,
    Send,
    /// Remote atomic (compare-and-swap); completes via an atomic ACK
    /// carrying the target word's original value.
    Atomic,
}

/// A work request operation.
#[derive(Clone, Debug)]
pub enum WrOp {
    /// One-sided read: remote `[remote_addr, +len)` of `remote_rkey` lands in
    /// local `[local_addr, +len)` of `local_rkey`.
    Read {
        local_rkey: Rkey,
        local_addr: u64,
        remote_addr: u64,
        remote_rkey: Rkey,
        len: u32,
    },
    /// One-sided write from registered local memory.
    Write {
        local_rkey: Rkey,
        local_addr: u64,
        remote_addr: u64,
        remote_rkey: Rkey,
        len: u32,
    },
    /// One-sided write of an inline buffer (used by offload engines that
    /// assemble payloads themselves, e.g. the Spot batch writer). The
    /// payload is a [`PoolBuf`]: when borrowed from a [`simnet::pool::BufArena`]
    /// it is recycled once the WQE retires (paper §5.3's packet-recycling
    /// template), and plain `Vec<u8>` payloads still work via `.into()`.
    WriteInline {
        remote_addr: u64,
        remote_rkey: Rkey,
        data: PoolBuf,
    },
    /// Owned read: remote `[remote_addr, +len)` of `remote_rkey` lands in no
    /// local region. The response payload stays in the buffer of the frame
    /// that carried it — later segments append to the first — and reaches
    /// the poster as its completion's [`Completion::data`]. The buffer is
    /// held exactly as long as the read is outstanding; a Go-Back-N replay
    /// drops it and lands the replayed response afresh.
    ReadOwned {
        remote_addr: u64,
        remote_rkey: Rkey,
        len: u32,
    },
    /// Gather write: several local payload buffers written back-to-back to
    /// the contiguous remote range starting at `remote_addr`. Each segment
    /// keeps its own [`PoolBuf`] so arena recycling still happens per
    /// borrowed buffer when the WQE retires.
    WriteSg {
        remote_addr: u64,
        remote_rkey: Rkey,
        segments: Vec<PoolBuf>,
    },
    /// Atomic compare-and-swap on the 8-byte word at `remote_addr` of
    /// `remote_rkey`: iff the word equals `compare`, it becomes `swap`. The
    /// completion's `atomic_orig` reports the original value either way —
    /// equality with `compare` tells the poster whether it won. Cowbird's
    /// multi-standby election CASes the engine-epoch word with this.
    CompareSwap {
        remote_addr: u64,
        remote_rkey: Rkey,
        compare: u64,
        swap: u64,
    },
    /// Two-sided send (delivered to the peer's receive path).
    Send { payload: Vec<u8> },
}

impl WrOp {
    pub fn kind(&self) -> WrKind {
        match self {
            WrOp::Read { .. } | WrOp::ReadOwned { .. } => WrKind::Read,
            WrOp::Write { .. } | WrOp::WriteInline { .. } | WrOp::WriteSg { .. } => WrKind::Write,
            WrOp::CompareSwap { .. } => WrKind::Atomic,
            WrOp::Send { .. } => WrKind::Send,
        }
    }

    /// Number of scatter-gather elements this operation occupies in its WQE.
    /// Plain operations carry one SGE; a gather write carries one per segment
    /// (never reported as zero — an empty list still builds a WQE).
    pub fn num_sges(&self) -> usize {
        match self {
            WrOp::WriteSg { segments, .. } => segments.len().max(1),
            _ => 1,
        }
    }

    /// Total payload bytes a read-class operation will receive, if this is
    /// a read.
    pub fn read_total_len(&self) -> Option<u32> {
        match self {
            WrOp::Read { len, .. } | WrOp::ReadOwned { len, .. } => Some(*len),
            _ => None,
        }
    }
}

/// A work request: user cookie + operation.
#[derive(Clone, Debug)]
pub struct WorkRequest {
    pub wr_id: u64,
    pub op: WrOp,
}

/// Completion status.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CompletionStatus {
    Success,
    LocalError,
    RemoteError,
}

/// A completion-queue entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Completion {
    pub wr_id: u64,
    pub kind: WrKind,
    pub status: CompletionStatus,
    /// For [`WrKind::Atomic`]: the target word's original value.
    pub atomic_orig: Option<u64>,
    /// For [`WrOp::ReadOwned`]: the landed response, exactly the bytes
    /// asked for. Empty for every other operation.
    pub data: PoolBuf,
}

impl Completion {
    pub fn ok(wr_id: u64, kind: WrKind) -> Completion {
        Completion {
            wr_id,
            kind,
            status: CompletionStatus::Success,
            atomic_orig: None,
            data: PoolBuf::empty(),
        }
    }

    /// A successful atomic completion carrying the original value.
    pub fn ok_atomic(wr_id: u64, orig: u64) -> Completion {
        Completion {
            wr_id,
            kind: WrKind::Atomic,
            status: CompletionStatus::Success,
            atomic_orig: Some(orig),
            data: PoolBuf::empty(),
        }
    }

    pub fn err(wr_id: u64, kind: WrKind, status: CompletionStatus) -> Completion {
        Completion {
            wr_id,
            kind,
            status,
            atomic_orig: None,
            data: PoolBuf::empty(),
        }
    }

    pub fn is_ok(&self) -> bool {
        self.status == CompletionStatus::Success
    }
}

/// A completion queue with poll-call accounting.
///
/// `polls` counts *calls* to [`CompletionQueue::poll_into`] (each one costs
/// `CostModel::rdma_poll()` of CPU), not entries returned — matching how the
/// paper measures: "the latency is for a single check of the completion
/// queue". Entries sit in a plain `Vec`: a poll that takes them all, the
/// common case, moves the whole batch in one copy.
#[derive(Debug, Default)]
pub struct CompletionQueue {
    entries: Vec<Completion>,
    pub polls: u64,
    pub completions_delivered: u64,
}

impl CompletionQueue {
    pub fn new() -> CompletionQueue {
        CompletionQueue::default()
    }

    /// NIC side: push a completion.
    pub fn push(&mut self, c: Completion) {
        self.entries.push(c);
    }

    /// NIC side: push every completion of `batch`, in order, leaving it
    /// empty (one copy for the batch, not one move per entry).
    pub fn push_all(&mut self, batch: &mut Vec<Completion>) {
        self.entries.append(batch);
    }

    /// Host side: drain up to `max` completions (one "poll call") into a
    /// caller-owned scratch vector (cleared between polls by the caller):
    /// hot pollers pay zero allocations per completion batch. Returns the
    /// number of completions appended.
    pub fn poll_into(&mut self, max: usize, out: &mut Vec<Completion>) -> usize {
        self.polls += 1;
        let n = self.entries.len().min(max);
        if n == self.entries.len() {
            out.append(&mut self.entries);
        } else {
            out.extend(self.entries.drain(..n));
        }
        self.completions_delivered += n as u64;
        n
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cq_poll_counts_calls_not_entries() {
        let mut cq = CompletionQueue::new();
        let mut got = Vec::new();
        assert_eq!(cq.poll_into(16, &mut got), 0);
        cq.push(Completion::ok(1, WrKind::Read));
        let mut batch = vec![
            Completion::ok(2, WrKind::Write),
            Completion::ok(3, WrKind::Read),
        ];
        cq.push_all(&mut batch);
        assert!(batch.is_empty());
        assert_eq!(cq.poll_into(2, &mut got), 2);
        assert_eq!((got[0].wr_id, got[1].wr_id), (1, 2));
        assert_eq!(cq.poll_into(2, &mut got), 1);
        assert_eq!(got[2].wr_id, 3);
        assert_eq!(cq.polls, 3);
        assert_eq!(cq.completions_delivered, 3);
        assert!(cq.is_empty());
    }

    #[test]
    fn wrop_kind_classification() {
        let read = WrOp::Read {
            local_rkey: 1,
            local_addr: 0,
            remote_addr: 0,
            remote_rkey: 2,
            len: 8,
        };
        assert_eq!(read.kind(), WrKind::Read);
        let wi = WrOp::WriteInline {
            remote_addr: 0,
            remote_rkey: 2,
            data: vec![].into(),
        };
        assert_eq!(wi.kind(), WrKind::Write);
        assert_eq!(WrOp::Send { payload: vec![] }.kind(), WrKind::Send);
    }

    #[test]
    fn ops_report_kind_sges_and_total_len() {
        let owned = WrOp::ReadOwned {
            remote_addr: 1024,
            remote_rkey: 2,
            len: 64,
        };
        assert_eq!(owned.kind(), WrKind::Read);
        assert_eq!(owned.num_sges(), 1);
        assert_eq!(owned.read_total_len(), Some(64));

        let wsg = WrOp::WriteSg {
            remote_addr: 0,
            remote_rkey: 2,
            segments: vec![
                vec![1u8; 8].into(),
                vec![2u8; 8].into(),
                vec![3u8; 8].into(),
            ],
        };
        assert_eq!(wsg.kind(), WrKind::Write);
        assert_eq!(wsg.num_sges(), 3);
        assert_eq!(wsg.read_total_len(), None);

        // Plain ops are single-SGE; empty SG lists still occupy one.
        assert_eq!(WrOp::Send { payload: vec![] }.num_sges(), 1);
        let empty = WrOp::WriteSg {
            remote_addr: 0,
            remote_rkey: 2,
            segments: vec![],
        };
        assert_eq!(empty.num_sges(), 1);
    }
}
