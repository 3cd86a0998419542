//! # cowbird-engine — the offload engines (paper §5–6)
//!
//! An offload engine executes the compute node's requested transfers without
//! compute-node intervention: it polls the client's rings over RDMA,
//! generates the reads/writes against the memory pool, and posts completions
//! back — Probe, Execute, Complete (the Setup phase lives in
//! `p4rt::switchd` for the P4 variant and in plain constructor arguments for
//! Spot).
//!
//! The protocol logic is substrate-independent and lives in [`core`] as a
//! sans-IO state machine ([`core::EngineCore`]) that emits [`core::FabricOp`]
//! commands. One driver turns those commands into verbs and completions
//! back into core calls — the crate-private `slot::Slot`, over either
//! fabric — and three shells run it:
//!
//! * [`sim::EngineNode`] — a `simnet` node, used by every performance
//!   experiment (both engine variants; they differ in configuration:
//!   batching + range-overlap checks for Spot, per-packet + pause-all for
//!   P4 — see [`core::EngineConfig`]).
//! * [`spot::SpotAgent`] — a real OS thread over the emulated RDMA fabric;
//!   this is the runnable engine the examples and integration tests use.
//! * [`group::EngineGroup`] — worker threads each sweeping a shard of
//!   channels over the emulated fabric.
//! * [`p4`] — the Cowbird-P4 program shape on the `p4rt` pipeline: the
//!   12-stage spec whose resource fold regenerates Table 5, plus the
//!   recycling rules (§5.2) expressed as tests over `rdma::wire`.

pub mod consistency;
pub mod core;
pub mod group;
pub mod p4;
pub mod sim;
mod slot;
pub mod spot;

pub use crate::core::{EngineConfig, EngineCore, EngineStats, EngineVariant, FabricOp};
pub use crate::group::{EngineGroup, FinishedChannel, GroupConfig, ShardSnapshot};
pub use crate::sim::{EngineNode, PoolNode};
pub use crate::spot::{PreemptionNotice, SpotAgent, SpotWiring};
