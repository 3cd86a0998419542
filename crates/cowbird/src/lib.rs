//! # cowbird — remote memory through purely local operations
//!
//! This crate is the core contribution of *"Cowbird: Freeing CPUs to Compute
//! by Offloading the Disaggregation of Memory"* (SIGCOMM 2023): a memory
//! disaggregation client whose **issue and completion paths consist solely of
//! local memory reads and writes**. No RDMA verb is ever called on the
//! compute node; an offload engine (see the `cowbird-engine` crate) polls the
//! client's rings over RDMA and executes the transfers.
//!
//! ## The API (paper Table 2)
//!
//! | call | effect |
//! |---|---|
//! | [`Channel::async_read`] | queue an asynchronous read of remote memory; returns a request id |
//! | [`Channel::async_write`] | queue an asynchronous write to remote memory; returns a request id |
//! | [`PollGroup::new`] / `add` / `remove` | manage a notification group |
//! | [`PollGroup::poll_try`] / [`PollGroup::poll_wait_timeout`] | collect completions for a group |
//!
//! ## Data organization (paper §4.2, Figure 4, Table 3)
//!
//! Each channel (one per hardware thread, per the paper) owns three
//! lock-free circular buffers inside one RDMA-registered [`rdma::Region`]:
//!
//! * the **request metadata ring** of fixed 32-byte entries ([`meta`]),
//! * the **request data ring** holding raw write payloads,
//! * the **response data ring** into which the engine lands read results,
//!
//! plus a **bookkeeping block** split into a green half (client-written
//! tails, fetched by the engine with a single RDMA read) and a red half
//! (engine-written head and progress counters, updated with a single RDMA
//! write) — the colors of Figure 4.
//!
//! ## Consistency (paper §4.3, §5.3)
//!
//! Requests publish with the x86-TSO-friendly protocol: payload and entry
//! fields first, `rw_type` word next, tail pointer last (release stores all
//! the way down; the engine reads with acquire loads). Completion is two
//! per-type progress counters; because Cowbird linearizes requests per type,
//! "`my seq <= progress`" is a complete completion check, making polls a
//! couple of integer comparisons.

pub mod channel;
pub mod doorbell;
pub mod error;
pub mod layout;
pub mod meta;
pub mod poll;
pub mod region;
pub mod reqid;

pub use channel::{Channel, ReadHandle};
pub use doorbell::Doorbell;
pub use error::{CowbirdError, IssueError};
pub use layout::ChannelLayout;
pub use meta::{RequestMeta, RwType};
pub use poll::PollGroup;
pub use region::{RegionId, RegionMap, RemoteRegion};
pub use reqid::{OpType, ReqId};
