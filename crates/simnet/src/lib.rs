//! # simnet — deterministic discrete-event network simulation kernel
//!
//! `simnet` is the substrate under every performance experiment in the Cowbird
//! reproduction. The paper's testbed (Tofino switch, ConnectX-5 RNICs, 100 Gbps
//! links) is unavailable, so the protocol stacks in the sibling crates run on a
//! virtual-time simulator instead. The kernel is intentionally small and follows
//! the smoltcp philosophy: event-driven, no hidden allocation in the hot path,
//! no wall-clock anywhere, and fault injection as a first-class feature.
//!
//! ## Model
//!
//! * **Nodes** implement [`Node`] and react to delivered packets and timers.
//!   All side effects go through a [`Ctx`] command buffer, so the kernel never
//!   re-enters a node.
//! * **Links** are directional, serialize transmissions at a configured
//!   bandwidth, add propagation delay, and carry eight strict-priority queues
//!   (priority 0 is served first — Cowbird probes ride at priority 7, the
//!   lowest, per §5.2 of the paper).
//! * **Fault injection**: per-link drop and corruption probabilities, applied
//!   deterministically from the simulation seed, plus scheduled fault scripts
//!   ([`fault::FaultScript`]) that crash/restart nodes and take links down —
//!   the substrate for the engine-failover experiments.
//! * **Accounting**: per-link busy time split by priority class, used by the
//!   Fig. 14 TCP-contention experiment.
//! * **Self-observability**: the kernel can watch itself — scheduler
//!   introspection ([`introspect`]: queue depth, per-class fired/cancelled
//!   counters, schedule→fire dwell in virtual and wall time) and event
//!   provenance ([`provenance`]: every event carries its causal parent, so
//!   [`sim::Sim::sim_why`] walks any event back to the client post that
//!   caused it and [`sim::Sim::flow_spans`] exports Chrome-trace flow
//!   arrows). Both are off by default and cost one branch when disabled.
//!
//! ## Determinism
//!
//! Every run is a pure function of the seed. The kernel breaks event-time ties
//! with a monotone sequence number, and [`rng`] implements SplitMix64 and
//! xoshiro256** locally so results are stable across toolchains. The event
//! queue is a hierarchical timer wheel ([`wheel`]) whose firing order is
//! bit-identical to the binary heap it replaced; the `ref-heap` feature keeps
//! the old heap as an ordering oracle for the determinism proptest.
//!
//! ## Zero-alloc hot path
//!
//! Steady state allocates nothing per event: wheel entries recycle through a
//! slab, packet payloads through a [`pool::BufArena`], the `Ctx` command
//! buffer across dispatches, and links batch deliveries into one sweep event.

pub mod cpu;
pub mod fasthash;
pub mod fault;
pub mod introspect;
pub mod link;
pub mod pool;
pub mod provenance;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod tcp;
pub mod time;
pub mod trace;
pub mod wheel;

pub use cpu::CpuSpec;
pub use fault::{FaultEvent, FaultScript, FaultStats};
pub use introspect::{EventClass, SchedulerMetrics, EVENT_CLASS_COUNT};
pub use link::{LinkId, LinkParams, LinkStats, Priority};
pub use pool::{ArenaStats, BufArena, PoolBuf};
pub use provenance::{EventOutcome, ProvenanceLog, ProvenanceRecord};
pub use rng::Rng;
pub use sim::{Ctx, Node, NodeId, Packet, Sim};
pub use stats::Summary;
pub use tcp::{TcpFlow, TcpSink};
pub use time::{Duration, Instant};
pub use wheel::TimerWheel;
