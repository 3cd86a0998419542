//! Cowbird-P4: the programmable-switch offload engine (paper §5).
//!
//! Behaviourally, Cowbird-P4 is [`EngineCore`](crate::core::EngineCore) with
//! `batch_size = 1` and the pause-all-reads consistency gate — that is what
//! the performance experiments simulate. This module supplies the pieces
//! that are *specific* to the switch realization:
//!
//! * [`cowbird_p4_spec`] — the 12-stage RMT program shape (parser state,
//!   match tables, stateful registers, VLIW budget), validated against
//!   Tofino limits and folded into the Table 5 resource numbers;
//! * [`recycle`] — the packet-recycling rules of §5.2: the switch never
//!   generates Execute/Complete packets from scratch, it rewrites the packet
//!   it just received (probe response → read request; read response → write;
//!   ACK → bookkeeping write), preserving S2's "no recirculation" property;
//! * [`P4DataPlane`] — the probe/gate bookkeeping expressed on
//!   `p4rt::RegisterFile`, demonstrating that each stateful step fits the
//!   one-sALU-op-per-packet discipline at its assigned stage.

use cowbird::meta::CHASE_PTR_MASK;
use p4rt::register::{RegisterFile, SaluOp};
use p4rt::spec::{MatchKind, PipelineSpec, RegisterSpec, StageSpec, TableSpec};
use rdma::wire::{Bth, Opcode, Reth, RocePacket};
use simnet::pool::PoolBuf;

/// Maximum Cowbird instances the switch program is provisioned for.
pub const MAX_INSTANCES: u32 = 4096;

/// Dependent-hop budget of the switch realization. One hop is free under
/// the Table 5 provisioning: the pointer-word read response is *recycled*
/// into the block read request by the stage-11 rewrite — the same
/// no-packet-generation discipline as every other protocol step, preserving
/// S2's "no recirculation" property. Every hop beyond the first would need
/// the block response re-submitted through the ingress pipeline (one
/// recirculation per hop) plus a per-instance hop counter register with its
/// own sALU — resources Table 5 does not provision — so the engine pins a
/// P4 chase to exactly one dependent dereference and returns
/// `BudgetExhausted` for deeper chains, letting the client continue from
/// the returned block.
pub const P4_CHASE_BUDGET: u8 = 1;

/// What a bounded chase budget would cost the switch beyond Table 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaseBudgetCost {
    /// Ingress re-submissions per chase (each hop past the first burns a
    /// recirculation-port pass, halving its effective line rate).
    pub recirculations: u32,
    /// Extra stateful ALUs: a hop counter array appears only when the
    /// budget exceeds one.
    pub extra_salus: u32,
}

/// Price a chase budget on the switch. `chase_budget_cost(P4_CHASE_BUDGET)`
/// is free — the justification for pinning.
pub fn chase_budget_cost(budget: u8) -> ChaseBudgetCost {
    ChaseBudgetCost {
        recirculations: u32::from(budget.saturating_sub(1)),
        extra_salus: u32::from(budget > 1),
    }
}

/// Packet-header-vector budget, bits. Breakdown: Ethernet (112) + IPv4
/// (160) + UDP (64) + BTH (96) + RETH (128) + AETH (32) plus ~493 bits of
/// metadata (instance id, phase, pointers, PSNs, resolved rkey/address,
/// bridge headers) — matching the 1085 b the paper reports.
pub const PHV_BITS: u32 = 112 + 160 + 64 + 96 + 128 + 32 + 493;

/// The Cowbird-P4 pipeline: 12 stages on a 32-port L3-forwarding Tofino.
pub fn cowbird_p4_spec() -> PipelineSpec {
    PipelineSpec::new("cowbird-p4", PHV_BITS)
        // Stage 0: L3 forwarding (the baseline switch program Cowbird rides
        // on, per Table 5's caption) + RoCE detection.
        .with_stage(
            StageSpec::new("l3_forward")
                .with_table(TableSpec {
                    name: "ipv4_fib",
                    match_kind: MatchKind::Exact,
                    key_bits: 32,
                    entries: 16384,
                    action_bits: 48,
                })
                .with_vliw(3),
        )
        // Stage 1: QPN -> instance id (§5.4: queried at every step, since
        // non-Probe packets carry no instance id).
        .with_stage(
            StageSpec::new("qpn_to_instance")
                .with_table(TableSpec {
                    name: "qpn_map",
                    match_kind: MatchKind::Exact,
                    key_bits: 24,
                    entries: 65536,
                    action_bits: 16,
                })
                .with_vliw(2),
        )
        // Stage 2: classify the packet into a protocol phase (opcode +
        // direction patterns — ternary).
        .with_stage(
            StageSpec::new("phase_classify")
                .with_table(TableSpec {
                    name: "recycle_rules",
                    match_kind: MatchKind::Ternary,
                    key_bits: 64,
                    entries: 80,
                    action_bits: 16,
                })
                .with_vliw(3),
        )
        // Stage 3: probe bookkeeping — last-seen request metadata tail per
        // instance; sALU compares the probed tail against it.
        .with_stage(
            StageSpec::new("probe_tail")
                .with_register(RegisterSpec {
                    name: "seen_meta_tail",
                    width_bits: 64,
                    depth: MAX_INSTANCES,
                })
                .with_vliw(3),
        )
        // Stage 4: local head pointer per instance (advanced as metadata is
        // fetched; reset by Go-Back-N).
        .with_stage(
            StageSpec::new("meta_head")
                .with_register(RegisterSpec {
                    name: "meta_head",
                    width_bits: 64,
                    depth: MAX_INSTANCES,
                })
                .with_vliw(3),
        )
        // Stage 5: PSN state toward the compute node.
        .with_stage(
            StageSpec::new("psn_compute")
                .with_register(RegisterSpec {
                    name: "psn_compute",
                    width_bits: 32,
                    depth: MAX_INSTANCES,
                })
                .with_register(RegisterSpec {
                    name: "epsn_compute",
                    width_bits: 32,
                    depth: MAX_INSTANCES,
                })
                .with_register(RegisterSpec {
                    name: "msn_compute",
                    width_bits: 32,
                    depth: MAX_INSTANCES,
                })
                .with_vliw(4),
        )
        // Stage 6: PSN state toward the memory pool.
        .with_stage(
            StageSpec::new("psn_pool")
                .with_register(RegisterSpec {
                    name: "psn_pool",
                    width_bits: 32,
                    depth: MAX_INSTANCES,
                })
                .with_register(RegisterSpec {
                    name: "epsn_pool",
                    width_bits: 32,
                    depth: MAX_INSTANCES,
                })
                .with_register(RegisterSpec {
                    name: "msn_pool",
                    width_bits: 32,
                    depth: MAX_INSTANCES,
                })
                .with_vliw(4),
        )
        // Stage 7: region table — (instance, region_id) -> rkey + base.
        .with_stage(
            StageSpec::new("region_resolve")
                .with_table(TableSpec {
                    name: "region_table",
                    match_kind: MatchKind::Exact,
                    key_bits: 32,
                    entries: 8192,
                    action_bits: 96,
                })
                .with_vliw(3),
        )
        // Stage 8: response-address tracker ("stores the target response
        // address in a hash table so that it knows where to write the data
        // in the subsequent step", §5.2 step 1a).
        .with_stage(
            StageSpec::new("resp_addr_track")
                .with_register(RegisterSpec {
                    name: "resp_addr",
                    width_bits: 64,
                    depth: 65536,
                })
                .with_vliw(3),
        )
        // Stage 9: the linearizability gate — writes-in-flight counter per
        // instance; reads pause while nonzero (§5.3).
        .with_stage(
            StageSpec::new("write_gate")
                .with_register(RegisterSpec {
                    name: "writes_in_flight",
                    width_bits: 32,
                    depth: MAX_INSTANCES,
                })
                .with_vliw(3),
        )
        // Stage 10: timeout detection for Go-Back-N (last-progress
        // timestamp per instance, compared against the periodic
        // packet-generator beacon).
        .with_stage(
            StageSpec::new("gbn_timer")
                .with_register(RegisterSpec {
                    name: "last_progress_ts",
                    width_bits: 64,
                    depth: MAX_INSTANCES,
                })
                .with_vliw(3),
        )
        // Stage 11: header rewrite for recycling (opcode conversion, QPN/PSN
        // stamping, RETH construction) — the VLIW-heavy stage.
        .with_stage(StageSpec::new("recycle_rewrite").with_vliw(4))
}

/// Packet recycling (paper §5.2): rewrite a received RDMA packet into the
/// next packet of the protocol without generating a new one.
pub mod recycle {
    use super::*;

    /// Phase II: a probe response (an RDMA read response carrying the green
    /// block) is recycled into an RDMA read request for the metadata ring —
    /// "the switch will take the probe response, recycle it by removing the
    /// AETH header and adding a RETH header".
    pub fn probe_response_to_meta_fetch(
        probe_resp: &RocePacket,
        dst_qp: u32,
        psn: u32,
        meta_vaddr: u64,
        channel_rkey: u32,
        fetch_len: u32,
    ) -> Option<RocePacket> {
        if !probe_resp.bth.opcode.is_read_response() {
            return None;
        }
        Some(RocePacket {
            bth: Bth::new(Opcode::ReadRequest, dst_qp, psn),
            reth: Some(Reth {
                vaddr: meta_vaddr,
                rkey: channel_rkey,
                dma_len: fetch_len,
            }),
            aeth: None,
            atomic: None,
            atomic_ack: None,
            payload: PoolBuf::empty(),
        })
    }

    /// Phase III step 2a/2b: a read response (from pool or compute) becomes
    /// an RDMA write of the *unmodified payload* toward the other side.
    /// Segmented responses map First/Middle/Last/Only onto the matching
    /// write opcodes.
    pub fn read_response_to_write(
        resp: &RocePacket,
        dst_qp: u32,
        psn: u32,
        vaddr: u64,
        rkey: u32,
        total_len: u32,
    ) -> Option<RocePacket> {
        let opcode = resp.bth.opcode.read_response_to_write()?;
        let mut bth = Bth::new(opcode, dst_qp, psn);
        bth.ack_req = matches!(opcode, Opcode::WriteLast | Opcode::WriteOnly);
        let reth = if opcode.has_reth() {
            Some(Reth {
                vaddr,
                rkey,
                dma_len: total_len,
            })
        } else {
            None
        };
        Some(RocePacket {
            bth,
            reth,
            aeth: None,
            atomic: None,
            atomic_ack: None,
            payload: resp.payload.clone(),
        })
    }

    /// Dependent hop (the chase ISA on the switch): the read response
    /// carrying the 8-byte pointer word is recycled into the block read
    /// request — mask the 48-bit address out of the word, add the stride,
    /// rewrite opcode/QPN/PSN/RETH. A null pointer is not recyclable (the
    /// switch answers with the status word instead). This single rewrite is
    /// why [`P4_CHASE_BUDGET`] hops cost no extra Table 5 resources.
    pub fn pointer_response_to_block_read(
        resp: &RocePacket,
        dst_qp: u32,
        psn: u32,
        pool_rkey: u32,
        region_base: u64,
        stride: u16,
        len: u32,
    ) -> Option<RocePacket> {
        if !resp.bth.opcode.is_read_response() || resp.payload.len() < 8 {
            return None;
        }
        let word = u64::from_le_bytes(resp.payload[..8].try_into().unwrap());
        let ptr = word & CHASE_PTR_MASK;
        if ptr == 0 {
            return None;
        }
        Some(RocePacket {
            bth: Bth::new(Opcode::ReadRequest, dst_qp, psn),
            reth: Some(Reth {
                vaddr: region_base + ptr + stride as u64,
                rkey: pool_rkey,
                dma_len: len,
            }),
            aeth: None,
            atomic: None,
            atomic_ack: None,
            payload: PoolBuf::empty(),
        })
    }

    /// Phase IV: an RDMA ACK is recycled into the bookkeeping write (red
    /// block) toward the compute node — "sending an RDMA write request to
    /// the compute node (again, recycling the previous RDMA
    /// response/acknowledgment)".
    #[allow(clippy::too_many_arguments)]
    pub fn ack_to_bookkeeping_write(
        ack: &RocePacket,
        dst_qp: u32,
        psn: u32,
        red_vaddr: u64,
        channel_rkey: u32,
        meta_head: u64,
        write_progress: u64,
        read_progress: u64,
    ) -> Option<RocePacket> {
        if ack.bth.opcode != Opcode::Acknowledge {
            return None;
        }
        let mut data = Vec::with_capacity(24);
        data.extend_from_slice(&meta_head.to_le_bytes());
        data.extend_from_slice(&write_progress.to_le_bytes());
        data.extend_from_slice(&read_progress.to_le_bytes());
        Some(RocePacket::write_only(
            dst_qp,
            psn,
            red_vaddr,
            channel_rkey,
            data,
        ))
    }
}

/// The stateful-register view of the Probe/gate bookkeeping, proving the
/// program respects RMT discipline (one sALU op per array per traversal, at
/// its declared stage). The behavioural twin is `EngineCore`; this structure
/// is exercised by tests and the Table 5 bench.
pub struct P4DataPlane {
    pub regs: RegisterFile,
}

impl Default for P4DataPlane {
    fn default() -> Self {
        Self::new()
    }
}

impl P4DataPlane {
    pub fn new() -> P4DataPlane {
        let spec = cowbird_p4_spec();
        spec.validate().expect("Cowbird-P4 must fit the switch");
        P4DataPlane {
            regs: RegisterFile::from_spec(&spec),
        }
    }

    /// Process a probe response carrying `meta_tail` for `instance`;
    /// returns how many new entries should be fetched (tail - seen), with
    /// the register updated — a single sALU max-exchange at stage 3.
    pub fn probe_advance(&mut self, instance: u32, meta_tail: u64) -> u64 {
        self.regs.begin_traversal();
        let prev = self.regs.salu(
            3,
            "seen_meta_tail",
            instance as usize,
            SaluOp::Max(meta_tail),
        );
        meta_tail.saturating_sub(prev)
    }

    /// A write request entered Execute: bump the in-flight counter (stage 9).
    pub fn write_started(&mut self, instance: u32) -> u64 {
        self.regs.begin_traversal();
        self.regs
            .salu(9, "writes_in_flight", instance as usize, SaluOp::Add(1))
    }

    /// A write's pool-bound packet was emitted: decrement.
    pub fn write_finished(&mut self, instance: u32) -> u64 {
        self.regs.begin_traversal();
        self.regs
            .salu(9, "writes_in_flight", instance as usize, SaluOp::SubSat(1))
    }

    /// Gate check for a newly probed read: pause if any write is in flight.
    /// (Reading the counter is the packet's one op on that array.)
    pub fn reads_paused(&mut self, instance: u32) -> bool {
        self.regs.begin_traversal();
        self.regs
            .salu(9, "writes_in_flight", instance as usize, SaluOp::Read)
            > 0
    }

    /// Go-Back-N (§5.3): reset the local head pointer so the Probe phase
    /// re-executes from the last committed point (control-plane assisted).
    pub fn gbn_reset(&mut self, instance: u32, committed_head: u64) {
        self.regs
            .cp_write("meta_head", instance as usize, committed_head);
        self.regs
            .cp_write("seen_meta_tail", instance as usize, committed_head);
        self.regs.cp_write("writes_in_flight", instance as usize, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4rt::resources::ResourceUsage;
    use rdma::wire::Aeth;

    #[test]
    fn spec_fits_tofino_and_matches_table5_shape() {
        let spec = cowbird_p4_spec();
        spec.validate().expect("must fit");
        let u = ResourceUsage::of(&spec);
        // Table 5: PHV 1085 b, SRAM 1424 KB, TCAM 1.28 KB, 12 stages,
        // 38 VLIW, 11 sALU. Exact SRAM depends on provisioned table depths;
        // assert the reported values and sane neighborhoods.
        assert_eq!(u.phv_bits, 1085);
        assert_eq!(u.stages, 12);
        assert_eq!(u.vliw_instrs, 38);
        assert_eq!(u.salus, 11);
        assert!(
            (u.tcam_kb() - 1.25).abs() < 0.2,
            "TCAM {:.2} KB",
            u.tcam_kb()
        );
        assert!(
            u.sram_kb() > 1000.0 && u.sram_kb() < 2000.0,
            "SRAM {:.0} KB",
            u.sram_kb()
        );
    }

    #[test]
    fn probe_response_recycles_into_meta_fetch() {
        let probe_resp = RocePacket {
            bth: Bth::new(Opcode::ReadResponseOnly, 7, 3),
            reth: None,
            aeth: Some(Aeth::ack(1)),
            atomic: None,
            atomic_ack: None,
            payload: vec![0u8; 24].into(),
        };
        let req = recycle::probe_response_to_meta_fetch(&probe_resp, 30, 11, 128, 5, 64).unwrap();
        assert_eq!(req.bth.opcode, Opcode::ReadRequest);
        assert!(req.aeth.is_none(), "AETH removed");
        let reth = req.reth.unwrap();
        assert_eq!(reth.vaddr, 128);
        assert_eq!(reth.rkey, 5);
        assert_eq!(reth.dma_len, 64);
        // Non-responses are not recyclable.
        let ack = RocePacket::ack(7, 3, 1);
        assert!(recycle::probe_response_to_meta_fetch(&ack, 0, 0, 0, 0, 0).is_none());
    }

    #[test]
    fn segmented_read_responses_recycle_into_matching_writes() {
        for (resp_op, want) in [
            (Opcode::ReadResponseFirst, Opcode::WriteFirst),
            (Opcode::ReadResponseMiddle, Opcode::WriteMiddle),
            (Opcode::ReadResponseLast, Opcode::WriteLast),
            (Opcode::ReadResponseOnly, Opcode::WriteOnly),
        ] {
            let resp = RocePacket {
                bth: Bth::new(resp_op, 7, 9),
                reth: None,
                aeth: if resp_op.has_aeth() {
                    Some(Aeth::ack(1))
                } else {
                    None
                },
                atomic: None,
                atomic_ack: None,
                payload: vec![0xAB; 256].into(),
            };
            let w = recycle::read_response_to_write(&resp, 40, 21, 0x9000, 6, 2048).unwrap();
            assert_eq!(w.bth.opcode, want);
            assert_eq!(w.payload, resp.payload, "payload carried unmodified");
            assert_eq!(w.reth.is_some(), want.has_reth());
        }
    }

    #[test]
    fn chase_hop_recycles_and_budget_pin_is_free() {
        // Pinning to one hop costs the switch nothing; any deeper budget
        // would burn recirculations and an unprovisioned sALU.
        assert_eq!(
            chase_budget_cost(P4_CHASE_BUDGET),
            ChaseBudgetCost {
                recirculations: 0,
                extra_salus: 0
            }
        );
        let deep = chase_budget_cost(4);
        assert_eq!(deep.recirculations, 3);
        assert_eq!(deep.extra_salus, 1);

        // The one priced hop is a pure rewrite: pointer-word response in,
        // block read request out, tag bits masked off the 48-bit address.
        let word = (0xBEEFu64 << 48) | 0x4000;
        let resp = RocePacket {
            bth: Bth::new(Opcode::ReadResponseOnly, 7, 3),
            reth: None,
            aeth: Some(Aeth::ack(1)),
            atomic: None,
            atomic_ack: None,
            payload: word.to_le_bytes().to_vec().into(),
        };
        let req =
            recycle::pointer_response_to_block_read(&resp, 30, 11, 6, 0x100000, 8, 64).unwrap();
        assert_eq!(req.bth.opcode, Opcode::ReadRequest);
        let reth = req.reth.unwrap();
        assert_eq!(reth.vaddr, 0x100000 + 0x4000 + 8);
        assert_eq!(reth.rkey, 6);
        assert_eq!(reth.dma_len, 64);

        // A null pointer never recycles — the switch must answer instead.
        let null_resp = RocePacket {
            payload: 0u64.to_le_bytes().to_vec().into(),
            ..resp
        };
        assert!(recycle::pointer_response_to_block_read(&null_resp, 30, 11, 6, 0, 0, 64).is_none());
    }

    #[test]
    fn ack_recycles_into_red_block_write() {
        let ack = RocePacket::ack(7, 5, 2);
        let w = recycle::ack_to_bookkeeping_write(&ack, 30, 6, 64, 5, 10, 4, 6).unwrap();
        assert_eq!(w.bth.opcode, Opcode::WriteOnly);
        assert_eq!(w.payload.len(), 24);
        assert_eq!(u64::from_le_bytes(w.payload[0..8].try_into().unwrap()), 10);
        assert_eq!(u64::from_le_bytes(w.payload[8..16].try_into().unwrap()), 4);
        assert_eq!(u64::from_le_bytes(w.payload[16..24].try_into().unwrap()), 6);
    }

    #[test]
    fn data_plane_gate_counts_writes() {
        let mut dp = P4DataPlane::new();
        assert!(!dp.reads_paused(3));
        dp.write_started(3);
        dp.write_started(3);
        assert!(dp.reads_paused(3));
        dp.write_finished(3);
        assert!(dp.reads_paused(3));
        dp.write_finished(3);
        assert!(!dp.reads_paused(3));
        // Other instances unaffected.
        assert!(!dp.reads_paused(4));
    }

    #[test]
    fn probe_advance_reports_new_entries_once() {
        let mut dp = P4DataPlane::new();
        assert_eq!(dp.probe_advance(0, 5), 5);
        assert_eq!(dp.probe_advance(0, 5), 0, "no double fetch");
        assert_eq!(dp.probe_advance(0, 9), 4);
        // A stale (smaller) tail — e.g. a reordered probe — fetches nothing.
        assert_eq!(dp.probe_advance(0, 7), 0);
    }

    #[test]
    fn gbn_reset_rewinds_probe_state() {
        let mut dp = P4DataPlane::new();
        dp.probe_advance(1, 10);
        dp.write_started(1);
        dp.gbn_reset(1, 6);
        assert!(!dp.reads_paused(1));
        // Probing tail 10 again re-fetches the uncommitted suffix.
        assert_eq!(dp.probe_advance(1, 10), 4);
    }
}
