//! The zero-alloc tests' shared rig: a counting allocator and the
//! ping-pong pair. Each test file installs the allocator itself, since a
//! binary has one `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use simnet::link::LinkParams;
use simnet::pool::BufArena;
use simnet::sim::{Ctx, Node, NodeId, Packet, Sim};
use simnet::time::Duration;

/// Counts every allocation into [`ALLOCS`].
pub struct CountingAlloc;

pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Echoes every packet back with an arena-pooled payload and keeps a
/// periodic timer alive, so one node exercises the wheel's short-horizon
/// slots, the link delivery sweep, and the payload pool at once.
struct Pinger {
    peer: NodeId,
    arena: BufArena,
    serve: bool,
}

impl Pinger {
    fn new(peer: NodeId, serve: bool) -> Pinger {
        Pinger {
            peer,
            arena: BufArena::new(16),
            serve,
        }
    }
}

const PAYLOAD: [u8; 64] = [0xA5; 64];

impl Node for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(Duration::from_nanos(700), 1);
        if self.serve {
            let payload = self.arena.take_copy(&PAYLOAD);
            let pkt = Packet::new(ctx.node_id(), self.peer, PAYLOAD.len(), payload);
            ctx.send(pkt);
        }
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let payload = self.arena.take_copy(&pkt.payload);
        let echo = Packet::new(ctx.node_id(), self.peer, pkt.wire_bytes, payload);
        ctx.send(echo);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx) {
        ctx.set_timer(Duration::from_nanos(700), 1);
    }
}

/// Two pingers over a rack link: node 0 serves the first packet.
pub fn ping_pong(seed: u64) -> Sim {
    let mut sim = Sim::new(seed);
    let a = NodeId(0);
    let b = NodeId(1);
    sim.add_node(Box::new(Pinger::new(b, true)));
    sim.add_node(Box::new(Pinger::new(a, false)));
    sim.connect(a, b, LinkParams::rack_100g());
    sim
}
