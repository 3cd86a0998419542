//! # rdma — RoCEv2 wire format, verbs layer, and software RNICs
//!
//! The Cowbird paper runs on ConnectX-5 RNICs speaking RDMA over Converged
//! Ethernet v2 (RoCEv2). No RDMA hardware is available here, so this crate
//! provides the protocol from scratch, twice over the same core:
//!
//! * [`wire`] — byte-exact encode/parse of the RoCEv2 headers Cowbird uses
//!   (BTH, RETH, AETH — Table 4 of the paper), plus the Ethernet/IP/UDP
//!   framing overhead constants that drive simulated serialization time.
//! * [`mem`] — registered memory regions with remote keys. Regions are
//!   word-atomic shared memory, so the *same* region type backs both the
//!   multi-threaded emulation and the single-threaded simulation, and a
//!   software NIC can "DMA" into memory the host is concurrently reading.
//! * [`qp`] — reliable-connection queue pairs: PSN sequencing, MTU
//!   segmentation (Read Response / Write First/Middle/Last), Go-Back-N
//!   recovery, and responder-side execution of one-sided operations.
//! * [`verbs`] — the host-level API (`post_send` / `poll_cq`) with the
//!   [`cost::CostModel`] that charges the compute-side CPU time measured in
//!   Figure 2 of the paper (lock + doorbell + WQE on post; lock + CQE on
//!   poll).
//! * [`sim`] — an RNIC as a passive state machine embeddable in a `simnet`
//!   node (used by every performance experiment).
//! * [`emu`] — the same RNIC on real OS threads, frames carried between
//!   them over channels (used by the runnable examples and integration
//!   tests; the "NIC" thread executes one-sided ops against registered
//!   regions without involving the host).

pub mod cost;
pub mod emu;
pub mod mem;
pub mod qp;
pub mod sim;
pub mod verbs;
pub mod wire;

pub use cost::CostModel;
pub use mem::{Region, RegionCatalog, Rkey};
pub use qp::{Qp, QpEvent, QpNum};
pub use verbs::{Completion, CompletionQueue, WorkRequest, WrOp};
pub use wire::{Aeth, Bth, Opcode, Reth, RocePacket};
