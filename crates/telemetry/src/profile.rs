//! The cycle-attribution profiler: where does every CPU nanosecond go?
//!
//! Cowbird's headline claim is an *accounting* claim — the compute node
//! spends ~0 cycles on remote memory because the verb costs of Fig. 2
//! (lock, doorbell, WQE, CQE) move to the offload engine. This module makes
//! that observable instead of assumed: every layer charges its CPU time to
//! a [`CostAccount`] keyed by `(node, component, phase)`, and the
//! [`crate::attribution`] module folds the accounts back into the paper's
//! post/poll breakdown and a freed-cores gauge.
//!
//! Two charging styles cover both substrates:
//!
//! * **scoped** — [`Profiler::scope`] returns a [`CycleScope`] RAII guard
//!   that charges the elapsed time between construction and drop to one
//!   [`Phase`]. On the emulated fabric the clock is the shared monotonic
//!   process clock ([`crate::wall_now_ns`]); on the simulator the driver
//!   pushes virtual time in with [`Profiler::set_now_ns`] (a scope then
//!   charges virtual elapsed time, and still counts the visit even when no
//!   virtual time passed inside the handler).
//! * **charged** — [`Profiler::charge`] adds an explicit number of
//!   nanoseconds, used by cost-model-driven simulation where per-op CPU
//!   costs are constants rather than measured intervals. Both styles land
//!   in the same account, so sim and emu produce one attribution schema.
//!
//! Like [`crate::Recorder`], a disabled [`Profiler`] costs one branch per
//! scope or charge: no clock read, no allocation, no atomics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::event::Component;
use crate::recorder::wall_now_ns;

/// Number of distinct [`Phase`] values (array sizes in [`CostAccount`]).
pub const PHASE_COUNT: usize = 16;

/// What a slice of CPU time was spent on.
///
/// The first five variants are the paper's Fig. 2 verb subtasks (RDMA post
/// = lock + doorbell + WQE, RDMA poll = lock + CQE); the Cowbird pair is
/// the client's ring append / completion-poll path that replaces them.
/// The remaining variants attribute engine-side and application work.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Phase {
    /// RDMA post: taking the QP lock.
    PostLock = 0,
    /// RDMA post: ringing the doorbell (MMIO).
    PostDoorbell = 1,
    /// RDMA post: building the work-queue entry.
    PostWqe = 2,
    /// RDMA poll: taking the CQ lock.
    PollLock = 3,
    /// RDMA poll: consuming the completion-queue entry.
    PollCqe = 4,
    /// Cowbird client: appending to the ring channel (local stores).
    CowbirdPost = 5,
    /// Cowbird client: polling the red block / completion flags.
    CowbirdPoll = 6,
    /// Engine: probing the green block for new work.
    Probe = 7,
    /// Engine: executing fetched requests against the pool.
    Execute = 8,
    /// Client: delivering completions back to the application.
    Complete = 9,
    /// Application: local memory accesses that stay on the compute node.
    LocalAccess = 10,
    /// Application: other compute.
    AppWork = 11,
    /// Anything else.
    Other = 12,
    /// Simulator: popping the next event off the scheduler heap.
    SchedPop = 13,
    /// Simulator: dispatching an event into a node callback and applying
    /// the commands it buffered.
    SchedDispatch = 14,
    /// Simulator: device-model bookkeeping (link transmit completion,
    /// fault application) outside any node callback.
    SchedDevice = 15,
}

impl Phase {
    /// Every phase, in discriminant order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::PostLock,
        Phase::PostDoorbell,
        Phase::PostWqe,
        Phase::PollLock,
        Phase::PollCqe,
        Phase::CowbirdPost,
        Phase::CowbirdPoll,
        Phase::Probe,
        Phase::Execute,
        Phase::Complete,
        Phase::LocalAccess,
        Phase::AppWork,
        Phase::Other,
        Phase::SchedPop,
        Phase::SchedDispatch,
        Phase::SchedDevice,
    ];

    /// Stable display name (used in reports and Chrome counter tracks).
    pub fn name(self) -> &'static str {
        match self {
            Phase::PostLock => "post_lock",
            Phase::PostDoorbell => "post_doorbell",
            Phase::PostWqe => "post_wqe",
            Phase::PollLock => "poll_lock",
            Phase::PollCqe => "poll_cqe",
            Phase::CowbirdPost => "cowbird_post",
            Phase::CowbirdPoll => "cowbird_poll",
            Phase::Probe => "probe",
            Phase::Execute => "execute",
            Phase::Complete => "complete",
            Phase::LocalAccess => "local_access",
            Phase::AppWork => "app_work",
            Phase::Other => "other",
            Phase::SchedPop => "sched_pop",
            Phase::SchedDispatch => "sched_dispatch",
            Phase::SchedDevice => "sched_device",
        }
    }

    /// Phases that are CPU spent servicing *remote memory* — the cycles
    /// the paper argues should not be burned on the compute node. The
    /// freed-cores gauge is `remote-memory ns ÷ total ns` per node.
    pub fn is_remote_memory(self) -> bool {
        matches!(
            self,
            Phase::PostLock
                | Phase::PostDoorbell
                | Phase::PostWqe
                | Phase::PollLock
                | Phase::PollCqe
                | Phase::CowbirdPost
                | Phase::CowbirdPoll
        )
    }
}

/// Process-wide heap-allocation counter, bumped by a harness-installed
/// counting [`std::alloc::GlobalAlloc`] (see the bench crate and the
/// `disabled_path` tests for the installer idiom). When no counting
/// allocator is installed the counter stays at zero and alloc attribution
/// degrades to "0 allocs" rather than failing — the ns/count columns are
/// unaffected.
static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Record one heap allocation. Called from a `GlobalAlloc::alloc` wrapper;
/// must not itself allocate.
#[inline]
pub fn note_alloc() {
    GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// Current value of the process-wide allocation counter.
#[inline]
pub fn allocs_now() -> u64 {
    GLOBAL_ALLOCS.load(Ordering::Relaxed)
}

/// A [`std::alloc::GlobalAlloc`] that forwards to the system allocator and
/// counts every allocation via [`note_alloc`], so [`CycleScope`]s can
/// attribute allocations-per-phase. Install it per binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: telemetry::profile::TallyAlloc = telemetry::profile::TallyAlloc;
/// ```
///
/// Binaries that don't install it still work — scopes then observe a
/// counter that never moves and attribute zero allocations.
pub struct TallyAlloc;

unsafe impl std::alloc::GlobalAlloc for TallyAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        note_alloc();
        std::alloc::System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        std::alloc::System.realloc(ptr, layout, new_size)
    }
}

/// One `(node, component)`'s per-phase cycle totals: a fixed array of
/// relaxed atomics, so charging is lock-free and allocation-free.
#[derive(Debug, Default)]
pub struct CostAccount {
    ns: [AtomicU64; PHASE_COUNT],
    count: [AtomicU64; PHASE_COUNT],
    allocs: [AtomicU64; PHASE_COUNT],
}

impl CostAccount {
    pub fn new() -> CostAccount {
        CostAccount::default()
    }

    /// Charge `ns` nanoseconds to `phase` and count one visit.
    #[inline]
    pub fn add(&self, phase: Phase, ns: u64) {
        let i = phase as usize;
        self.ns[i].fetch_add(ns, Ordering::Relaxed);
        self.count[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Charge a batch tallied elsewhere: `ns` nanoseconds over `visits`
    /// visits, with `allocs` heap allocations, to `phase`. A driver that
    /// counts its phases locally flushes them here once instead of paying
    /// the atomics per visit.
    pub fn add_batch(&self, phase: Phase, ns: u64, visits: u64, allocs: u64) {
        let i = phase as usize;
        self.ns[i].fetch_add(ns, Ordering::Relaxed);
        self.count[i].fetch_add(visits, Ordering::Relaxed);
        self.add_allocs(phase, allocs);
    }

    /// Attribute `n` heap allocations to `phase` (scopes charge the delta
    /// of the process-wide counter observed across their lifetime).
    #[inline]
    pub fn add_allocs(&self, phase: Phase, n: u64) {
        if n != 0 {
            self.allocs[phase as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Heap allocations attributed to `phase`.
    pub fn phase_allocs(&self, phase: Phase) -> u64 {
        self.allocs[phase as usize].load(Ordering::Relaxed)
    }

    /// Total nanoseconds charged to `phase`.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.ns[phase as usize].load(Ordering::Relaxed)
    }

    /// Number of charges (scope exits or explicit charges) to `phase`.
    pub fn phase_count(&self, phase: Phase) -> u64 {
        self.count[phase as usize].load(Ordering::Relaxed)
    }

    /// Nanoseconds summed across every phase.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }
}

#[derive(Debug)]
struct Inner {
    account: Arc<CostAccount>,
    node: u16,
    component: Component,
    /// true: scopes read [`wall_now_ns`]; false: they read the value last
    /// stored via [`Profiler::set_now_ns`] (virtual time).
    wall: bool,
    now_ns: AtomicU64,
}

impl Inner {
    #[inline]
    fn now(&self) -> u64 {
        if self.wall {
            wall_now_ns()
        } else {
            self.now_ns.load(Ordering::Relaxed)
        }
    }
}

/// Cheap-to-clone cycle-charging handle for one `(node, component)`.
///
/// The default is disabled; layers hold one unconditionally and pay a
/// single branch per scope when profiling is off.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    inner: Option<Arc<Inner>>,
}

impl Profiler {
    /// A profiler that charges nothing. One branch per [`scope`] / [`charge`].
    ///
    /// [`scope`]: Profiler::scope
    /// [`charge`]: Profiler::charge
    pub const fn disabled() -> Profiler {
        Profiler { inner: None }
    }

    /// Attach to an account. `wall` picks the clock mode (see module docs).
    pub fn attached(
        account: Arc<CostAccount>,
        node: u16,
        component: Component,
        wall: bool,
    ) -> Profiler {
        Profiler {
            inner: Some(Arc::new(Inner {
                account,
                node,
                component,
                wall,
                now_ns: AtomicU64::new(0),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The node charges are attributed to, if enabled.
    pub fn node(&self) -> Option<u16> {
        self.inner.as_ref().map(|i| i.node)
    }

    /// The component charges are attributed to, if enabled.
    pub fn component(&self) -> Option<Component> {
        self.inner.as_ref().map(|i| i.component)
    }

    /// The underlying account, if enabled (aggregators read this).
    pub fn account(&self) -> Option<Arc<CostAccount>> {
        self.inner.as_ref().map(|i| Arc::clone(&i.account))
    }

    /// Advance the virtual clock (no-op for wall-clock or disabled
    /// profilers). Simulation drivers call this with `now` before handing
    /// control to a sans-IO state machine, mirroring
    /// [`crate::Recorder::set_now_ns`].
    #[inline]
    pub fn set_now_ns(&self, ns: u64) {
        if let Some(i) = &self.inner {
            i.now_ns.store(ns, Ordering::Relaxed);
        }
    }

    /// Charge an explicit number of nanoseconds to `phase` (cost-model
    /// style). One branch when disabled.
    #[inline]
    pub fn charge(&self, phase: Phase, ns: u64) {
        if let Some(i) = &self.inner {
            i.account.add(phase, ns);
        }
    }

    /// Open a scope charging elapsed time to `phase` when the returned
    /// guard drops. The disabled path is this one branch (the guard's drop
    /// re-tests the captured `Option`, which the branch predictor has
    /// already resolved); no clock read, no allocation.
    ///
    /// If the clock runs backwards across the scope — a virtual clock
    /// rewind, or span wraparound — the scope charges zero rather than an
    /// enormous wrapped interval, so accounts stay conserved.
    #[inline]
    #[must_use = "the scope charges on drop; binding it to _ drops immediately"]
    pub fn scope(&self, phase: Phase) -> CycleScope<'_> {
        match &self.inner {
            Some(i) => CycleScope {
                inner: Some(i),
                phase,
                start_ns: i.now(),
                start_allocs: allocs_now(),
            },
            None => CycleScope {
                inner: None,
                phase,
                start_ns: 0,
                start_allocs: 0,
            },
        }
    }
}

/// RAII guard returned by [`Profiler::scope`]: charges the elapsed
/// nanoseconds between construction and drop to its phase.
#[must_use = "the scope charges on drop; binding it to _ drops immediately"]
pub struct CycleScope<'a> {
    inner: Option<&'a Inner>,
    phase: Phase,
    start_ns: u64,
    start_allocs: u64,
}

impl CycleScope<'_> {
    /// The clock value captured when the scope opened (tests).
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }
}

impl Drop for CycleScope<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(i) = self.inner {
            let elapsed = i.now().saturating_sub(self.start_ns);
            i.account.add(self.phase, elapsed);
            i.account
                .add_allocs(self.phase, allocs_now().saturating_sub(self.start_allocs));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_charges_nothing() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        assert!(p.node().is_none());
        assert!(p.account().is_none());
        p.charge(Phase::PostLock, 1_000);
        let s = p.scope(Phase::Execute);
        drop(s);
        // Nothing observable happened; nothing to assert beyond no panic.
    }

    #[test]
    fn virtual_scope_charges_elapsed_virtual_time() {
        let acct = Arc::new(CostAccount::new());
        let p = Profiler::attached(Arc::clone(&acct), 1, Component::Engine, false);
        p.set_now_ns(100);
        let s = p.scope(Phase::Probe);
        p.set_now_ns(350);
        drop(s);
        assert_eq!(acct.phase_ns(Phase::Probe), 250);
        assert_eq!(acct.phase_count(Phase::Probe), 1);
        assert_eq!(acct.total_ns(), 250);
    }

    #[test]
    fn clock_rewind_charges_zero_not_wraparound() {
        let acct = Arc::new(CostAccount::new());
        let p = Profiler::attached(Arc::clone(&acct), 0, Component::Client, false);
        p.set_now_ns(1_000);
        let s = p.scope(Phase::CowbirdPoll);
        p.set_now_ns(400); // rewind
        drop(s);
        assert_eq!(acct.phase_ns(Phase::CowbirdPoll), 0);
        assert_eq!(acct.phase_count(Phase::CowbirdPoll), 1);
    }

    #[test]
    fn explicit_charges_accumulate_exactly() {
        let acct = Arc::new(CostAccount::new());
        let p = Profiler::attached(Arc::clone(&acct), 0, Component::Client, false);
        p.charge(Phase::PostLock, 90);
        p.charge(Phase::PostDoorbell, 160);
        p.charge(Phase::PostWqe, 100);
        assert_eq!(acct.total_ns(), 350);
        assert_eq!(acct.phase_ns(Phase::PostDoorbell), 160);
    }

    #[test]
    fn batched_charges_land_like_the_visits_they_sum() {
        let acct = CostAccount::new();
        acct.add_batch(Phase::SchedPop, 900, 3, 2);
        acct.add_batch(Phase::SchedPop, 100, 1, 0);
        assert_eq!(acct.phase_ns(Phase::SchedPop), 1_000);
        assert_eq!(acct.phase_count(Phase::SchedPop), 4);
        assert_eq!(acct.phase_allocs(Phase::SchedPop), 2);
        assert_eq!(acct.total_ns(), 1_000);
    }

    #[test]
    fn wall_scope_is_nonnegative_and_counts() {
        let acct = Arc::new(CostAccount::new());
        let p = Profiler::attached(Arc::clone(&acct), 0, Component::Client, true);
        {
            let _s = p.scope(Phase::AppWork);
            std::hint::black_box(42);
        }
        assert_eq!(acct.phase_count(Phase::AppWork), 1);
    }

    #[test]
    fn scope_attributes_alloc_counter_deltas_to_its_phase() {
        let acct = Arc::new(CostAccount::new());
        let p = Profiler::attached(Arc::clone(&acct), 2, Component::Sim, false);
        let s = p.scope(Phase::SchedDispatch);
        // Simulate a counting allocator observing three heap allocations
        // while the scope is open.
        note_alloc();
        note_alloc();
        note_alloc();
        drop(s);
        assert_eq!(acct.phase_allocs(Phase::SchedDispatch), 3);
        assert_eq!(acct.phase_allocs(Phase::SchedPop), 0);
    }

    #[test]
    fn remote_memory_phases_are_the_verb_and_cowbird_paths() {
        for ph in Phase::ALL {
            let expect = matches!(
                ph,
                Phase::PostLock
                    | Phase::PostDoorbell
                    | Phase::PostWqe
                    | Phase::PollLock
                    | Phase::PollCqe
                    | Phase::CowbirdPost
                    | Phase::CowbirdPoll
            );
            assert_eq!(ph.is_remote_memory(), expect, "{}", ph.name());
        }
    }
}
