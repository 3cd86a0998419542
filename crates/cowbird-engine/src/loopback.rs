//! A synchronous in-memory fabric for driving an [`EngineCore`] without a
//! NIC: unit tests, the coalescing-equivalence proptests and the
//! verb-coalescing figure.
//!
//! [`Loopback`] executes each [`FabricOp`] at once against a compute
//! region (the client channel's) and a pool region, and feeds the
//! completion straight back to the core through the `_into` entry points,
//! landing data the way the product driver does: a plain read lands in a
//! buffer of its own and goes to [`EngineCore::on_landed_into`]; a
//! coalesced read lands its whole range in one buffer and hands each part
//! its slice through [`EngineCore::on_data_into`], in merge order; a
//! tagged compute write is acknowledged with an empty payload.
//!
//! Ops run in FIFO order over one queue, so every op the core emits in
//! response to one batch runs before anything those ops emit in turn. Once
//! warm, a round allocates nothing: landed buffers come from a private
//! arena and the queue and op scratch keep their capacity.

use std::collections::VecDeque;
use std::mem;

use rdma::mem::Region;
use simnet::pool::{BufArena, PoolBuf};

use crate::core::{EngineCore, FabricOp};

/// Free-list cap for the loopback's landing arena.
const ARENA_POOLED: usize = 64;

/// A synchronous loopback fabric between one engine core, its client
/// channel's region and a memory pool.
pub struct Loopback {
    /// The client channel's region (the compute node's side).
    pub compute: Region,
    /// The memory pool.
    pub pool: Region,
    arena: BufArena,
    queue: VecDeque<FabricOp>,
    /// The core's output scratch; empty between calls.
    ops: Vec<FabricOp>,
}

impl Loopback {
    pub fn new(compute: Region, pool: Region) -> Loopback {
        Loopback {
            compute,
            pool,
            arena: BufArena::new(ARENA_POOLED),
            queue: VecDeque::new(),
            ops: Vec::new(),
        }
    }

    /// A probe timer fired: run the probe and everything it leads to.
    pub fn probe(&mut self, core: &mut EngineCore) {
        core.on_probe_due_into(&mut self.ops);
        self.queue.extend(self.ops.drain(..));
        self.drain(core);
    }

    /// Run `ops`, and every op their completions lead to, to quiescence.
    pub fn run(&mut self, core: &mut EngineCore, ops: impl IntoIterator<Item = FabricOp>) {
        self.queue.extend(ops);
        self.drain(core);
    }

    fn drain(&mut self, core: &mut EngineCore) {
        let mut queue = mem::take(&mut self.queue);
        while let Some(op) = queue.pop_front() {
            self.exec(core, op, &mut queue);
        }
        self.queue = queue;
    }

    /// Run one op, appending what the core emits in response to `next`.
    pub fn exec(&mut self, core: &mut EngineCore, op: FabricOp, next: &mut impl Extend<FabricOp>) {
        match op {
            FabricOp::ReadCompute { offset, len, tag } => {
                let buf = land(&self.arena, &self.compute, offset, len);
                core.on_landed_into(tag, buf, &mut self.ops);
            }
            FabricOp::ReadPool { addr, len, tag, .. } => {
                let buf = land(&self.arena, &self.pool, addr, len);
                core.on_landed_into(tag, buf, &mut self.ops);
            }
            FabricOp::ReadPoolSg { addr, parts, .. } => {
                let len = parts.iter().map(|(l, _)| l).sum();
                let buf = land(&self.arena, &self.pool, addr, len);
                let mut at = 0;
                for (len, tag) in parts {
                    core.on_data_into(tag, &buf[at..at + len as usize], &mut self.ops);
                    at += len as usize;
                    next.extend(self.ops.drain(..));
                }
            }
            FabricOp::WriteCompute { offset, data, tag } => {
                self.compute.write(offset, &data).unwrap();
                if tag != 0 {
                    core.on_data_into(tag, &[], &mut self.ops);
                }
            }
            FabricOp::WritePool { addr, data, .. } => self.pool.write(addr, &data).unwrap(),
            FabricOp::WritePoolSg { addr, segments, .. } => {
                let mut at = addr;
                for seg in segments {
                    self.pool.write(at, &seg).unwrap();
                    at += seg.len() as u64;
                }
            }
        }
        next.extend(self.ops.drain(..));
    }
}

/// Read `len` bytes at `addr` of `from` into a buffer from `arena`.
fn land(arena: &BufArena, from: &Region, addr: u64, len: u32) -> PoolBuf {
    let mut buf = arena.take_sized(0, len as usize);
    from.read(addr, &mut buf).unwrap();
    buf
}
