//! Tracing from the outside: wrappers that time every call into a layer.
//!
//! Nothing here touches the crates under test. [`Timed`] wraps any
//! `simnet::Node`, [`TimedDevice`] any `kvstore::Device`; both accumulate
//! host nanoseconds and heap allocations per call, and keep full span
//! records for a 1-in-[`SAMPLE`] sample. The untraced run builds none of
//! these, so it records no spans and pays for no clock reads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use kvstore::{Completion, Device, Token};
use simnet::sim::{Ctx, Node, Packet};
use telemetry::profile::allocs_now;

/// One call in `SAMPLE` keeps a full span record.
pub const SAMPLE: u64 = 64;
/// Spans kept per run; later samples are counted, not stored, so the trace
/// file stays a few MB.
const SPAN_CAP: usize = 60_000;

/// Host nanoseconds since the first call in this process.
#[inline]
pub fn now_ns() -> u64 {
    static ANCHOR: OnceLock<std::time::Instant> = OnceLock::new();
    ANCHOR
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// Cost of one `now_ns()` call, measured over a million back-to-back reads.
/// Direct-call lanes that bracket single calls subtract it.
pub fn clock_read_ns() -> f64 {
    const N: u64 = 1_000_000;
    let t0 = now_ns();
    let mut last = t0;
    for _ in 0..N {
        last = std::hint::black_box(now_ns());
    }
    (last - t0) as f64 / N as f64
}

/// Host time, allocations and call count charged to one layer.
#[derive(Clone, Copy, Default, Debug)]
pub struct Tally {
    pub ns: u64,
    pub allocs: u64,
    pub calls: u64,
}

/// A point in host time and in the process's allocation count.
#[derive(Clone, Copy, Default)]
pub struct Stamp {
    pub ns: u64,
    pub allocs: u64,
}

impl Stamp {
    #[inline]
    pub fn now() -> Stamp {
        Stamp {
            ns: now_ns(),
            allocs: allocs_now(),
        }
    }
}

impl Tally {
    /// Charge one call spanning `[from, to]`. Chaining stamps (the end of
    /// one interval is the start of the next) leaves no unattributed gaps.
    #[inline]
    pub fn charge(&mut self, from: Stamp, to: Stamp) {
        self.ns += to.ns - from.ns;
        self.allocs += to.allocs - from.allocs;
        self.calls += 1;
    }

    pub fn add(&mut self, other: &Tally) {
        self.ns += other.ns;
        self.allocs += other.allocs;
        self.calls += other.calls;
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request id where the caller knows it, else 0.
    pub req: u64,
}

#[derive(Default)]
struct SpanLog {
    spans: Vec<Span>,
    next_id: u64,
    /// The rep's `run` span: parent of every sampled call made during it.
    root: u64,
    dropped: u64,
}

/// Shared, in-memory span store; written out once when the run ends.
#[derive(Clone, Default)]
pub struct SpanSink(Arc<Mutex<SpanLog>>);

impl SpanSink {
    fn log(&self) -> std::sync::MutexGuard<'_, SpanLog> {
        self.0.lock().expect("span log poisoned by a panicking rep")
    }

    /// Open the root span of a rep; sampled calls parent to it until the
    /// next `begin_root`. Close it with [`SpanSink::end_root`].
    pub fn begin_root(&self, name: &'static str) -> u64 {
        let mut log = self.log();
        log.next_id += 1;
        let id = log.next_id;
        log.root = id;
        let start_ns = now_ns();
        log.spans.push(Span {
            id,
            parent: 0,
            name,
            start_ns,
            end_ns: start_ns,
            req: 0,
        });
        id
    }

    pub fn end_root(&self, id: u64) {
        let end = now_ns();
        if let Some(s) = self.log().spans.iter_mut().rev().find(|s| s.id == id) {
            s.end_ns = end;
        }
    }

    /// Record a finished child of the current root.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64, req: u64) {
        let mut log = self.log();
        if log.spans.len() >= SPAN_CAP {
            log.dropped += 1;
            return;
        }
        log.next_id += 1;
        let (id, parent) = (log.next_id, log.root);
        log.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            req,
        });
    }

    pub fn len(&self) -> usize {
        self.log().spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Chrome trace-event JSON (open in Perfetto or `chrome://tracing`):
    /// one complete event per span, span id / parent / request id in `args`.
    pub fn to_chrome_json(&self) -> String {
        let log = self.log();
        let mut out = String::with_capacity(log.spans.len() * 120 + 64);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in log.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.req
            ));
        }
        out.push_str(&format!(
            "\n],\"sampled_one_in\":{SAMPLE},\"spans_dropped_over_cap\":{}}}\n",
            log.dropped
        ));
        out
    }
}

/// A `simnet` node with every callback timed from outside.
pub struct Timed<N: Node> {
    pub inner: N,
    pub tally: Tally,
    name: &'static str,
    spans: SpanSink,
}

impl<N: Node> Timed<N> {
    pub fn new(inner: N, name: &'static str, spans: SpanSink) -> Timed<N> {
        Timed {
            inner,
            tally: Tally::default(),
            name,
            spans,
        }
    }

    #[inline]
    fn around(&mut self, f: impl FnOnce(&mut N)) {
        let from = Stamp::now();
        f(&mut self.inner);
        let to = Stamp::now();
        self.tally.charge(from, to);
        if self.tally.calls.is_multiple_of(SAMPLE) {
            self.spans.record(self.name, from.ns, to.ns, 0);
        }
    }
}

impl<N: Node> Node for Timed<N> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.around(|n| n.on_start(ctx));
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        self.around(|n| n.on_packet(pkt, ctx));
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx) {
        self.around(|n| n.on_timer(tag, ctx));
    }
}

/// [`Tally`] a [`TimedDevice`] shares with the harness: the store owns its
/// device and never hands it back. Single-threaded, so plain load + store.
#[derive(Default)]
pub struct SharedTally {
    ns: AtomicU64,
    allocs: AtomicU64,
    calls: AtomicU64,
}

impl SharedTally {
    pub fn get(&self) -> Tally {
        Tally {
            ns: self.ns.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
        }
    }
}

/// A KV device with every call timed from outside.
pub struct TimedDevice<D: Device> {
    inner: D,
    tally: Arc<SharedTally>,
    spans: SpanSink,
}

impl<D: Device> TimedDevice<D> {
    pub fn new(inner: D, tally: Arc<SharedTally>, spans: SpanSink) -> TimedDevice<D> {
        TimedDevice {
            inner,
            tally,
            spans,
        }
    }

    #[inline]
    fn around<R>(&mut self, name: &'static str, f: impl FnOnce(&mut D) -> R) -> R {
        let from = Stamp::now();
        let r = f(&mut self.inner);
        let to = Stamp::now();
        let bump =
            |a: &AtomicU64, by: u64| a.store(a.load(Ordering::Relaxed) + by, Ordering::Relaxed);
        bump(&self.tally.ns, to.ns - from.ns);
        bump(&self.tally.allocs, to.allocs - from.allocs);
        bump(&self.tally.calls, 1);
        if self
            .tally
            .calls
            .load(Ordering::Relaxed)
            .is_multiple_of(SAMPLE)
        {
            self.spans.record(name, from.ns, to.ns, 0);
        }
        r
    }
}

impl<D: Device> Device for TimedDevice<D> {
    fn write_async(&mut self, addr: u64, data: &[u8]) -> Token {
        self.around("device.write_async", |d| d.write_async(addr, data))
    }

    fn read_async(&mut self, addr: u64, len: u32) -> Token {
        self.around("device.read_async", |d| d.read_async(addr, len))
    }

    fn read_indirect_async(&mut self, slot_addr: u64, len: u32) -> Option<Token> {
        self.around("device.read_indirect_async", |d| {
            d.read_indirect_async(slot_addr, len)
        })
    }

    fn poll(&mut self) -> Vec<Completion> {
        self.around("device.poll", |d| d.poll())
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::link::LinkParams;
    use simnet::sim::{NodeId, Sim};
    use simnet::time::Duration;

    /// Burns ~`spin_ns` of host time per timer tick, then pings its peer.
    struct Spinner {
        peer: NodeId,
        spin_ns: u64,
        ticks: u32,
    }

    impl Node for Spinner {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(Duration::from_micros(1), 0);
        }
        fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx) {
            let t0 = now_ns();
            while now_ns() - t0 < self.spin_ns / 2 {}
        }
        fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx) {
            let t0 = now_ns();
            while now_ns() - t0 < self.spin_ns {}
            ctx.send(Packet::new(ctx.node_id(), self.peer, 64, vec![0u8; 8]));
            self.ticks -= 1;
            if self.ticks > 0 {
                ctx.set_timer(Duration::from_micros(1), 0);
            }
        }
    }

    #[test]
    fn timed_nodes_plus_kernel_residual_account_for_the_whole_run() {
        let spans = SpanSink::default();
        let mut sim = Sim::new(1);
        let mk = |peer, spin_ns| Spinner {
            peer: NodeId(peer),
            spin_ns,
            ticks: 200,
        };
        let a = sim.add_node(Box::new(Timed::new(mk(1, 20_000), "a", spans.clone())));
        let b = sim.add_node(Box::new(Timed::new(mk(0, 5_000), "b", spans.clone())));
        sim.connect(a, b, LinkParams::rack_100g());
        let root = spans.begin_root("run");
        let t0 = now_ns();
        sim.run();
        let total = now_ns() - t0;
        spans.end_root(root);

        let ta = sim.node_ref::<Timed<Spinner>>(a).tally;
        let tb = sim.node_ref::<Timed<Spinner>>(b).tally;
        // 200 ticks + 200 packets + on_start each.
        assert_eq!(ta.calls, 401);
        assert_eq!(tb.calls, 401);
        // Self-time accounting. Each callback spins for a known minimum, so
        // a missed call shows as a tally below it; a call counted twice (or
        // a child charged outside its parent) shows as callbacks exceeding
        // the run that contains them. Upper bounds on host time would only
        // test the scheduler: other tests share this machine's cores.
        let min_a = 200 * 20_000 + 200 * 10_000;
        let min_b = 200 * 5_000 + 200 * 2_500;
        assert!(ta.ns >= min_a && tb.ns >= min_b, "{ta:?} {tb:?}");
        let callbacks = ta.ns + tb.ns;
        assert!(callbacks <= total, "children exceed the parent span");
        // The kernel is the residual, so the layers sum to the run.
        let kernel = total - callbacks;
        let layer_sum_frac = (callbacks + kernel) as f64 / total as f64;
        assert!((0.98..=1.02).contains(&layer_sum_frac));

        // 1-in-64 sampling: 6 spans per node, each a child of the run span.
        assert_eq!(spans.len(), 1 + 6 + 6);
        let json = spans.to_chrome_json();
        telemetry::json::validate(&json).unwrap();
        assert!(json.contains(&format!("\"parent\":{root}")));
    }

    #[test]
    fn timed_device_charges_calls_to_the_shared_tally() {
        let tally = Arc::new(SharedTally::default());
        let mut dev = TimedDevice::new(
            kvstore::LocalMemoryDevice::new(),
            Arc::clone(&tally),
            SpanSink::default(),
        );
        dev.write_async(0, &[7u8; 64]);
        let tok = dev.read_async(0, 64);
        let done = dev.poll();
        assert_eq!(tally.get().calls, 3);
        assert!(tally.get().ns > 0);
        let read = done.iter().find(|c| c.token == tok).unwrap();
        assert_eq!(read.data.as_deref(), Some(&[7u8; 64][..]));
    }
}
