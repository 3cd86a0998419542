//! Scheduler introspection: where does the *simulator's* time and queue
//! pressure go?
//!
//! The Cowbird stack can attribute every nanosecond of a simulated request,
//! but until now the event kernel itself was a black box exposing only
//! `events_processed`. This module adds the scheduler's own vital signs,
//! behind the same one-branch-disabled pattern as [`crate::trace::Trace`]
//! and [`telemetry::Profiler`]:
//!
//! * a **queue-depth histogram**, sampled at every heap pop (the depth the
//!   dispatch sweep observed after removing its event);
//! * **per-event-class fired/cancelled counters** — an event is *fired*
//!   when its handler runs, *cancelled* when the kernel discards it
//!   (delivery or timer for a crashed/removed node);
//! * **schedule→fire dwell-time histograms** in both virtual and wall
//!   time, plus exact per-class virtual-dwell sums (histograms bucket;
//!   conservation checks need the exact totals). Dwell is queue-resident
//!   time and is recorded for cancelled events too — they sat in the queue
//!   just as long.
//!
//! Disabled (the default), every hook is a single branch: no clock read,
//! no histogram touch, no allocation after construction.
//!
//! Enabled, the wall figures come from stamps the event loop chains:
//! `Sim::run_until` reads the clock once when it starts, once when an event
//! leaves the queue, and once when each handler returns (in a delivery
//! sweep, once per delivered packet). An event's wall dwell runs from the
//! stamp that opened the handler which scheduled it to its own pop stamp.
//! That start differs from a stamp taken at the push itself by at most the
//! scheduling handler's run time; events pushed between runs (a fault
//! scheduled before `run`) read their own stamp. The kernel's self-profile
//! (`Sim::attach_self_profiler`) is cut from the same stamps, tallied in
//! the kernel, and reaches the profiler's `CostAccount` when `run_until`
//! returns. Where the loop used to read the clock about six times per event
//! (a push stamp, a pair per pop scope, a pair per dispatch or device
//! scope, one for dwell) and do four atomic adds on the account, it now
//! reads it at most twice per event, plus once per packet beyond the first
//! of a sweep and once per `run_until` call (`Sim::wall_clock_reads`
//! counts them).

use telemetry::Histogram;

/// Number of distinct [`EventClass`] values.
pub const EVENT_CLASS_COUNT: usize = 4;

/// The kernel's event kinds, as a dense index for per-class counters.
///
/// This mirrors the kernel's private `Event` enum shape (delivery, timer,
/// link transmit completion, fault) without exposing its payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventClass {
    /// A packet delivery to a node.
    Deliver = 0,
    /// A node timer.
    Timer = 1,
    /// A link finished serializing a packet.
    LinkTxDone = 2,
    /// A scheduled fault took effect.
    Fault = 3,
}

impl EventClass {
    /// Every class, in discriminant order.
    pub const ALL: [EventClass; EVENT_CLASS_COUNT] = [
        EventClass::Deliver,
        EventClass::Timer,
        EventClass::LinkTxDone,
        EventClass::Fault,
    ];

    /// Stable display name (used in metrics labels and flow traces).
    pub fn name(self) -> &'static str {
        match self {
            EventClass::Deliver => "deliver",
            EventClass::Timer => "timer",
            EventClass::LinkTxDone => "link_tx_done",
            EventClass::Fault => "fault",
        }
    }
}

#[derive(Debug)]
struct SchedInner {
    depth: Histogram,
    fired: [u64; EVENT_CLASS_COUNT],
    cancelled: [u64; EVENT_CLASS_COUNT],
    dwell_virtual: [Histogram; EVENT_CLASS_COUNT],
    dwell_wall: [Histogram; EVENT_CLASS_COUNT],
    dwell_virtual_total: [u64; EVENT_CLASS_COUNT],
}

/// The scheduler's self-metrics. Disabled by default; every recording hook
/// is one branch when disabled.
#[derive(Debug, Default)]
pub struct SchedulerMetrics {
    inner: Option<Box<SchedInner>>,
}

impl SchedulerMetrics {
    /// The no-op default: recording costs one branch, reads return zeros.
    pub const fn disabled() -> SchedulerMetrics {
        SchedulerMetrics { inner: None }
    }

    /// An enabled collector (allocates its histograms up front).
    pub fn enabled() -> SchedulerMetrics {
        SchedulerMetrics {
            inner: Some(Box::new(SchedInner {
                depth: Histogram::new(),
                fired: [0; EVENT_CLASS_COUNT],
                cancelled: [0; EVENT_CLASS_COUNT],
                dwell_virtual: std::array::from_fn(|_| Histogram::new()),
                dwell_wall: std::array::from_fn(|_| Histogram::new()),
                dwell_virtual_total: [0; EVENT_CLASS_COUNT],
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record the queue depth a dispatch sweep observed (entries remaining
    /// after popping its event).
    #[inline]
    pub fn note_depth(&mut self, depth: u64) {
        if let Some(i) = &mut self.inner {
            i.depth.record(depth);
        }
    }

    /// Record an event leaving the queue. `fired` = the handler ran;
    /// `!fired` = the kernel cancelled it (down/removed node). Dwell is the
    /// schedule→pop interval in each clock domain.
    #[inline]
    pub fn note_popped(
        &mut self,
        class: EventClass,
        fired: bool,
        virtual_dwell_ns: u64,
        wall_dwell_ns: u64,
    ) {
        if let Some(i) = &mut self.inner {
            let c = class as usize;
            if fired {
                i.fired[c] += 1;
            } else {
                i.cancelled[c] += 1;
            }
            i.dwell_virtual[c].record(virtual_dwell_ns);
            i.dwell_wall[c].record(wall_dwell_ns);
            i.dwell_virtual_total[c] += virtual_dwell_ns;
        }
    }

    /// Events of `class` whose handler ran.
    pub fn fired(&self, class: EventClass) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.fired[class as usize])
    }

    /// Events of `class` the kernel discarded.
    pub fn cancelled(&self, class: EventClass) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.cancelled[class as usize])
    }

    /// Queue-depth histogram (empty when disabled).
    pub fn queue_depth(&self) -> Histogram {
        self.inner
            .as_ref()
            .map_or_else(Histogram::new, |i| i.depth.clone())
    }

    /// Virtual-time schedule→fire dwell histogram for `class`.
    pub fn dwell_virtual(&self, class: EventClass) -> Histogram {
        self.inner
            .as_ref()
            .map_or_else(Histogram::new, |i| i.dwell_virtual[class as usize].clone())
    }

    /// Wall-clock schedule→fire dwell histogram for `class`.
    pub fn dwell_wall(&self, class: EventClass) -> Histogram {
        self.inner
            .as_ref()
            .map_or_else(Histogram::new, |i| i.dwell_wall[class as usize].clone())
    }

    /// Exact sum of virtual dwell nanoseconds for `class` (fired and
    /// cancelled events both — queue-resident time is outcome-independent).
    pub fn dwell_virtual_total(&self, class: EventClass) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dwell_virtual_total[class as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_metrics_read_as_zero() {
        let mut m = SchedulerMetrics::disabled();
        assert!(!m.is_enabled());
        m.note_depth(5);
        m.note_popped(EventClass::Timer, true, 100, 7);
        assert_eq!(m.fired(EventClass::Timer), 0);
        assert_eq!(m.queue_depth().count(), 0);
        assert_eq!(m.dwell_virtual_total(EventClass::Timer), 0);
    }

    #[test]
    fn enabled_metrics_accumulate_per_class() {
        let mut m = SchedulerMetrics::enabled();
        m.note_depth(3);
        m.note_depth(9);
        m.note_popped(EventClass::Deliver, true, 1_000, 50);
        m.note_popped(EventClass::Deliver, false, 2_000, 60);
        m.note_popped(EventClass::Fault, true, 0, 0);
        assert_eq!(m.fired(EventClass::Deliver), 1);
        assert_eq!(m.cancelled(EventClass::Deliver), 1);
        assert_eq!(m.fired(EventClass::Fault), 1);
        assert_eq!(m.cancelled(EventClass::Fault), 0);
        assert_eq!(m.dwell_virtual_total(EventClass::Deliver), 3_000);
        assert_eq!(m.dwell_virtual(EventClass::Deliver).count(), 2);
        assert_eq!(m.dwell_wall(EventClass::Deliver).count(), 2);
        assert_eq!(m.queue_depth().count(), 2);
        assert_eq!(m.queue_depth().max(), 9);
    }

    #[test]
    fn classes_name_stably() {
        for c in EventClass::ALL {
            assert!(!c.name().is_empty());
        }
        assert_eq!(EventClass::ALL.len(), EVENT_CLASS_COUNT);
    }
}
