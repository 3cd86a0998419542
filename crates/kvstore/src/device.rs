//! The IDevice abstraction (paper §7).
//!
//! "We adapt FASTER to use Cowbird by instantiating an IDevice, the
//! interface FASTER exposes for implementing its storage layer for the
//! larger-than-memory part of the log."
//!
//! A device addresses the *log's* address space directly: the hybrid log
//! flushes `[addr, addr+len)` spans and reads them back by the same
//! addresses. All operations are asynchronous — completions surface through
//! [`Device::poll`], matching FASTER's callback-per-IO model and Cowbird's
//! notification groups.

/// Identifies an in-flight device operation.
pub type Token = u64;

/// A finished device operation.
#[derive(Clone, Debug)]
pub struct Completion {
    pub token: Token,
    /// Read data (None for writes).
    pub data: Option<Vec<u8>>,
    pub ok: bool,
}

/// Asynchronous storage for the cold portion of the hybrid log.
pub trait Device: Send {
    /// Begin writing `data` at log address `addr`.
    fn write_async(&mut self, addr: u64, data: &[u8]) -> Token;

    /// Begin reading `len` bytes at log address `addr`.
    fn read_async(&mut self, addr: u64, len: u32) -> Token;

    /// Begin a dependent read: dereference the 8-byte pointer word at
    /// `slot_addr` (48-bit address, high tag bits masked off) and fetch
    /// `len` bytes at the resulting address — one round trip where
    /// probe-then-fetch pays two. The completion's data is the wire format
    /// `[ChaseStatusWord: 8 B][block]` (see `cowbird::meta`). Backends
    /// without dependent-op support return `None` and the store falls back
    /// to the two-trip path.
    fn read_indirect_async(&mut self, _slot_addr: u64, _len: u32) -> Option<Token> {
        None
    }

    /// Collect finished operations.
    fn poll(&mut self) -> Vec<Completion>;

    /// Append finished operations to `out`. Backends that queue their
    /// completions override this to move them without a fresh `Vec`.
    fn poll_into(&mut self, out: &mut Vec<Completion>) {
        out.extend(self.poll());
    }

    /// Operations issued but not yet surfaced by [`Device::poll`].
    fn pending(&self) -> usize;

    /// Spin until every in-flight operation has completed, returning all
    /// completions (used by log eviction, which must not release buffer
    /// space before the flush is durable remotely).
    fn drain_blocking(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        let mut spins: u64 = 0;
        while self.pending() > 0 {
            let got = self.poll();
            if got.is_empty() {
                spins += 1;
                if spins.is_multiple_of(16) {
                    // Yield aggressively: on few-core hosts the agent and
                    // NIC threads need this core to make progress.
                    std::thread::yield_now();
                }
            } else {
                out.extend(got);
            }
        }
        out
    }
}
