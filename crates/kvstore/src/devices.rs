//! IDevice backends — one per Figure 9 series.
//!
//! * [`LocalMemoryDevice`] — "purely local memory that represents an upper
//!   bound on disaggregated memory performance".
//! * [`SsdSimDevice`] — the SATA SSD default backend, with its latency and
//!   IOPS character (delays modelled in wall-clock time, since this backend
//!   runs on the real-thread substrate).
//! * [`RdmaDevice`] — "an alternative design of an IDevice that can
//!   leverage remote memory using traditional one-sided RDMA verbs", in
//!   both synchronous and asynchronous flavours. The compute node pays the
//!   verb costs itself.
//! * [`CowbirdDevice`] — the paper's §7 port: one Cowbird channel per
//!   store shard (per thread), issuing `async_read`/`async_write` and
//!   completing through a notification group.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration as StdDuration, Instant as StdInstant};

use cowbird::channel::{Channel, ReadHandle};
use cowbird::meta::{ChaseStatus, ChaseStatusWord, CHASE_PTR_MASK};
use cowbird::poll::PollGroup;
use cowbird::region::RegionId;
use cowbird::reqid::ReqId;
use rdma::emu::EmuNic;
use rdma::mem::Rkey;
use rdma::qp::QpNum;
use rdma::verbs::{WorkRequest, WrOp};

use crate::device::{Completion, Device, Token};

// ---------------------------------------------------------------------
// Local memory
// ---------------------------------------------------------------------

/// Flat in-process memory; operations complete on the next poll.
pub struct LocalMemoryDevice {
    store: Vec<u8>,
    ready: VecDeque<Completion>,
    next_token: Token,
}

impl Default for LocalMemoryDevice {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalMemoryDevice {
    pub fn new() -> LocalMemoryDevice {
        LocalMemoryDevice {
            store: Vec::new(),
            ready: VecDeque::new(),
            next_token: 1,
        }
    }

    fn ensure(&mut self, end: u64) {
        if self.store.len() < end as usize {
            self.store.resize(end as usize, 0);
        }
    }

    /// Test hook: direct view of stored bytes.
    pub fn peek(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(len);
        self.extend_stored(addr, len, &mut v);
        v
    }

    /// Append the `len` bytes at `addr` to `out`; bytes never written read
    /// as zero.
    fn extend_stored(&self, addr: u64, len: usize, out: &mut Vec<u8>) {
        let from = (addr as usize).min(self.store.len());
        let to = (addr as usize + len).min(self.store.len());
        out.extend_from_slice(&self.store[from..to]);
        out.resize(out.len() + len - (to - from), 0);
    }

    /// The 8-byte little-endian word at `addr` (zero where never written).
    fn word_at(&self, addr: u64) -> u64 {
        let from = (addr as usize).min(self.store.len());
        let to = (addr as usize + 8).min(self.store.len());
        let mut word = [0u8; 8];
        word[..to - from].copy_from_slice(&self.store[from..to]);
        u64::from_le_bytes(word)
    }

    fn next_token(&mut self) -> Token {
        let token = self.next_token;
        self.next_token += 1;
        token
    }
}

impl Device for LocalMemoryDevice {
    fn write_async(&mut self, addr: u64, data: &[u8]) -> Token {
        self.ensure(addr + data.len() as u64);
        self.store[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        let token = self.next_token();
        self.ready.push_back(Completion {
            token,
            data: None,
            ok: true,
        });
        token
    }

    fn read_async(&mut self, addr: u64, len: u32) -> Token {
        let token = self.next_token();
        let mut data = Vec::with_capacity(len as usize);
        self.extend_stored(addr, len as usize, &mut data);
        self.ready.push_back(Completion {
            token,
            data: Some(data),
            ok: true,
        });
        token
    }

    fn read_indirect_async(&mut self, slot_addr: u64, len: u32) -> Option<Token> {
        // Local execution of the engine's single-hop semantics, including
        // the wire-format response, so store logic is backend-agnostic. The
        // response is built in one buffer of its exact size.
        let ptr = self.word_at(slot_addr) & CHASE_PTR_MASK;
        let token = self.next_token();
        let (status, block_len) = if ptr == 0 {
            let status = ChaseStatusWord {
                status: ChaseStatus::NullPointer,
                hops: 0,
                final_addr: 0,
            };
            (status, 0)
        } else {
            let next = if len >= 8 {
                self.word_at(ptr) & CHASE_PTR_MASK
            } else {
                0
            };
            let status = ChaseStatusWord {
                status: if next == 0 {
                    ChaseStatus::Ok
                } else {
                    ChaseStatus::BudgetExhausted
                },
                hops: 1,
                final_addr: ptr,
            };
            (status, len as usize)
        };
        let mut data = Vec::with_capacity(8 + block_len);
        data.extend_from_slice(&status.encode().to_le_bytes());
        self.extend_stored(ptr, block_len, &mut data);
        self.ready.push_back(Completion {
            token,
            data: Some(data),
            ok: true,
        });
        Some(token)
    }

    fn poll(&mut self) -> Vec<Completion> {
        self.ready.drain(..).collect()
    }

    fn poll_into(&mut self, out: &mut Vec<Completion>) {
        out.extend(self.ready.drain(..));
    }

    fn pending(&self) -> usize {
        self.ready.len()
    }
}

// ---------------------------------------------------------------------
// Simulated SATA SSD
// ---------------------------------------------------------------------

/// Local memory plus SATA-class completion delays (wall clock).
pub struct SsdSimDevice {
    inner: LocalMemoryDevice,
    latency: StdDuration,
    delayed: VecDeque<(StdInstant, Completion)>,
}

impl SsdSimDevice {
    /// `latency` per I/O (SATA flash: ~80 µs; tests may shrink it).
    pub fn new(latency: StdDuration) -> SsdSimDevice {
        SsdSimDevice {
            inner: LocalMemoryDevice::new(),
            latency,
            delayed: VecDeque::new(),
        }
    }

    fn absorb(&mut self) {
        let due = StdInstant::now() + self.latency;
        self.delayed
            .extend(self.inner.ready.drain(..).map(|c| (due, c)));
    }
}

impl Device for SsdSimDevice {
    fn write_async(&mut self, addr: u64, data: &[u8]) -> Token {
        let t = self.inner.write_async(addr, data);
        self.absorb();
        t
    }

    fn read_async(&mut self, addr: u64, len: u32) -> Token {
        let t = self.inner.read_async(addr, len);
        self.absorb();
        t
    }

    fn poll(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        self.poll_into(&mut out);
        out
    }

    fn poll_into(&mut self, out: &mut Vec<Completion>) {
        let now = StdInstant::now();
        while let Some((due, _)) = self.delayed.front() {
            if *due <= now {
                out.push(self.delayed.pop_front().unwrap().1);
            } else {
                break;
            }
        }
    }

    fn pending(&self) -> usize {
        self.delayed.len()
    }
}

// ---------------------------------------------------------------------
// Direct one-sided RDMA
// ---------------------------------------------------------------------

/// Synchronous (block per op) or asynchronous (pipelined) verbs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RdmaMode {
    Sync,
    Async,
}

/// An IDevice over raw one-sided RDMA to a memory pool region — the
/// "One-sided RDMA" baselines of Figure 9. The calling thread posts and
/// polls verbs itself. Reads are owned reads: each lands in its own
/// response buffer, however many are pending.
pub struct RdmaDevice {
    nic: EmuNic,
    qpn: QpNum,
    pool_rkey: Rkey,
    /// Base offset of the log inside the pool region.
    pool_base: u64,
    mode: RdmaMode,
    /// In-flight WRs: their token, and whether they are reads.
    inflight: HashMap<u64, (Token, bool)>,
    ready: VecDeque<Completion>,
    next_wr: u64,
    next_token: Token,
}

impl RdmaDevice {
    pub fn new(
        nic: EmuNic,
        qpn: QpNum,
        pool_rkey: Rkey,
        pool_base: u64,
        mode: RdmaMode,
    ) -> RdmaDevice {
        RdmaDevice {
            nic,
            qpn,
            pool_rkey,
            pool_base,
            mode,
            inflight: HashMap::new(),
            ready: VecDeque::new(),
            next_wr: 1,
            next_token: 1,
        }
    }

    fn reap(&mut self, block_for: Option<u64>) {
        loop {
            let got = self.nic.poll(64);
            if got.is_empty() {
                match block_for {
                    Some(wr) if self.inflight.contains_key(&wr) => {
                        std::thread::yield_now();
                        continue;
                    }
                    _ => break,
                }
            }
            for c in got {
                if let Some((token, read)) = self.inflight.remove(&c.wr_id) {
                    self.ready.push_back(Completion {
                        token,
                        data: read.then(|| c.data.to_vec()),
                        ok: c.is_ok(),
                    });
                }
            }
            if let Some(wr) = block_for {
                if !self.inflight.contains_key(&wr) {
                    break;
                }
            }
        }
    }
}

impl Device for RdmaDevice {
    fn write_async(&mut self, addr: u64, data: &[u8]) -> Token {
        let token = self.next_token;
        self.next_token += 1;
        let wr_id = self.next_wr;
        self.next_wr += 1;
        self.inflight.insert(wr_id, (token, false));
        self.nic
            .post(
                self.qpn,
                WorkRequest {
                    wr_id,
                    op: WrOp::WriteInline {
                        remote_addr: self.pool_base + addr,
                        remote_rkey: self.pool_rkey,
                        data: data.into(),
                    },
                },
            )
            .expect("rdma device write");
        if self.mode == RdmaMode::Sync {
            self.reap(Some(wr_id));
        }
        token
    }

    fn read_async(&mut self, addr: u64, len: u32) -> Token {
        let token = self.next_token;
        self.next_token += 1;
        let wr_id = self.next_wr;
        self.next_wr += 1;
        self.inflight.insert(wr_id, (token, true));
        self.nic
            .post(
                self.qpn,
                WorkRequest {
                    wr_id,
                    op: WrOp::ReadOwned {
                        remote_addr: self.pool_base + addr,
                        remote_rkey: self.pool_rkey,
                        len,
                    },
                },
            )
            .expect("rdma device read");
        if self.mode == RdmaMode::Sync {
            self.reap(Some(wr_id));
        }
        token
    }

    fn poll(&mut self) -> Vec<Completion> {
        self.reap(None);
        self.ready.drain(..).collect()
    }

    fn pending(&self) -> usize {
        self.inflight.len() + self.ready.len()
    }
}

// ---------------------------------------------------------------------
// Cowbird
// ---------------------------------------------------------------------

/// The §7 integration: an IDevice over a Cowbird channel.
///
/// "To reduce contention, each FASTER thread calls through the device
/// poll_create() to create a notification group. After issuing an I/O
/// operation with async_read() or async_write(), a thread immediately calls
/// poll_add() ... and invokes poll_wait() periodically."
pub struct CowbirdDevice {
    channel: Channel,
    group: PollGroup,
    region: RegionId,
    reads: HashMap<ReqId, (Token, ReadHandle)>,
    writes: HashMap<ReqId, Token>,
    ready: VecDeque<Completion>,
    next_token: Token,
    /// Issue retries due to full rings (flow-control pressure indicator).
    pub ring_full_retries: u64,
}

impl CowbirdDevice {
    /// Wrap a connected channel; log addresses map 1:1 onto offsets of
    /// `region` (which must be at least as large as the log's address
    /// space will grow).
    pub fn new(channel: Channel, region: RegionId) -> CowbirdDevice {
        CowbirdDevice {
            channel,
            group: PollGroup::new(),
            region,
            reads: HashMap::new(),
            writes: HashMap::new(),
            ready: VecDeque::new(),
            next_token: 1,
            ring_full_retries: 0,
        }
    }

    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// Reap completions from the notification group into `ready`.
    fn reap(&mut self) {
        loop {
            let done = self.group.poll_try(&mut self.channel, 64);
            if done.is_empty() {
                break;
            }
            for id in done {
                if let Some((token, handle)) = self.reads.remove(&id) {
                    let data = self
                        .channel
                        .take_response(&handle)
                        .expect("completed read must yield data");
                    self.ready.push_back(Completion {
                        token,
                        data: Some(data),
                        ok: true,
                    });
                } else if let Some(token) = self.writes.remove(&id) {
                    self.ready.push_back(Completion {
                        token,
                        data: None,
                        ok: true,
                    });
                }
            }
        }
    }
}

impl Device for CowbirdDevice {
    fn write_async(&mut self, addr: u64, data: &[u8]) -> Token {
        let token = self.next_token;
        self.next_token += 1;
        loop {
            match self.channel.async_write(self.region, addr, data) {
                Ok(id) => {
                    self.group.add(id);
                    self.writes.insert(id, token);
                    return token;
                }
                Err(e) if e.is_retryable() => {
                    // Paper §4.3: drain completions, then retry.
                    self.ring_full_retries += 1;
                    self.reap();
                    std::hint::spin_loop();
                }
                Err(e) => panic!("cowbird write failed: {e}"),
            }
        }
    }

    fn read_async(&mut self, addr: u64, len: u32) -> Token {
        let token = self.next_token;
        self.next_token += 1;
        loop {
            match self.channel.async_read(self.region, addr, len) {
                Ok(handle) => {
                    self.group.add(handle.id);
                    self.reads.insert(handle.id, (token, handle));
                    return token;
                }
                Err(e) if e.is_retryable() => {
                    self.ring_full_retries += 1;
                    self.reap();
                    std::hint::spin_loop();
                }
                Err(e) => panic!("cowbird read failed: {e}"),
            }
        }
    }

    fn read_indirect_async(&mut self, slot_addr: u64, len: u32) -> Option<Token> {
        let token = self.next_token;
        self.next_token += 1;
        loop {
            // The raw response bytes are already the wire format the store
            // expects (`[status word][block]`), so the completion path is
            // shared with plain reads — `take_response` delivers both.
            match self
                .channel
                .async_read_indirect(self.region, slot_addr, 0, 0, len)
            {
                Ok(handle) => {
                    self.group.add(handle.id);
                    self.reads.insert(handle.id, (token, handle));
                    return Some(token);
                }
                Err(e) if e.is_retryable() => {
                    self.ring_full_retries += 1;
                    self.reap();
                    std::hint::spin_loop();
                }
                Err(e) => panic!("cowbird read_indirect failed: {e}"),
            }
        }
    }

    fn poll(&mut self) -> Vec<Completion> {
        self.reap();
        self.ready.drain(..).collect()
    }

    fn pending(&self) -> usize {
        self.reads.len() + self.writes.len() + self.ready.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_memory_roundtrip() {
        let mut d = LocalMemoryDevice::new();
        let wt = d.write_async(100, b"abc");
        let rt = d.read_async(100, 3);
        let done = d.poll();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].token, wt);
        assert!(done[0].data.is_none());
        assert_eq!(done[1].token, rt);
        assert_eq!(done[1].data.as_deref(), Some(b"abc".as_slice()));
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn local_memory_reads_beyond_written_are_zero() {
        let mut d = LocalMemoryDevice::new();
        d.read_async(1000, 4);
        let done = d.poll();
        assert_eq!(done[0].data.as_deref(), Some([0u8; 4].as_slice()));
    }

    #[test]
    fn ssd_delays_completions() {
        let mut d = SsdSimDevice::new(StdDuration::from_millis(5));
        d.write_async(0, b"x");
        assert!(d.poll().is_empty(), "not due yet");
        assert_eq!(d.pending(), 1);
        std::thread::sleep(StdDuration::from_millis(8));
        assert_eq!(d.poll().len(), 1);
    }

    #[test]
    fn drain_blocking_waits_for_ssd() {
        let mut d = SsdSimDevice::new(StdDuration::from_millis(3));
        d.write_async(0, b"a");
        d.write_async(8, b"b");
        let done = d.drain_blocking();
        assert_eq!(done.len(), 2);
        assert_eq!(d.pending(), 0);
    }
}
