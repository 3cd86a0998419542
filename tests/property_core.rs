//! Property-based tests over the core data structures and codecs
//! (proptest): wire format, request ids, metadata blocks, ring
//! reservation, registered memory, histograms, and the Zipf sampler.

use proptest::prelude::*;

use cowbird::layout::reserve_no_wrap;
use cowbird::meta::{ChaseParams, RequestMeta, RwType, CHASE_BUDGET_MAX, CHASE_STRIDE_MAX};
use cowbird::reqid::{OpType, ReqId};
use rdma::mem::Region;
use rdma::wire::{Aeth, AtomicEth, Bth, Opcode, Reth, RocePacket};
use simnet::rng::Rng;
use telemetry::Histogram;
use workloads::zipf::ZipfSampler;

fn arb_opcode() -> impl Strategy<Value = Opcode> {
    prop_oneof![
        Just(Opcode::SendOnly),
        Just(Opcode::WriteFirst),
        Just(Opcode::WriteMiddle),
        Just(Opcode::WriteLast),
        Just(Opcode::WriteOnly),
        Just(Opcode::ReadRequest),
        Just(Opcode::ReadResponseFirst),
        Just(Opcode::ReadResponseMiddle),
        Just(Opcode::ReadResponseLast),
        Just(Opcode::ReadResponseOnly),
        Just(Opcode::Acknowledge),
        Just(Opcode::AtomicAcknowledge),
        Just(Opcode::CompareSwap),
    ]
}

proptest! {
    #[test]
    fn roce_packet_roundtrips(
        opcode in arb_opcode(),
        qp in 0u32..0x0100_0000,
        psn in 0u32..0x0100_0000,
        vaddr in any::<u64>(),
        rkey in any::<u32>(),
        dma_len in any::<u32>(),
        msn in 0u32..0x0100_0000,
        swap in any::<u64>(),
        compare in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let no_payload = (opcode.has_reth()
            && opcode != Opcode::WriteFirst
            && opcode != Opcode::WriteOnly)
            || opcode.has_atomic_eth()
            || opcode.has_atomic_ack_eth();
        let pkt = RocePacket {
            bth: Bth::new(opcode, qp, psn),
            reth: opcode.has_reth().then_some(Reth { vaddr, rkey, dma_len }),
            aeth: opcode.has_aeth().then_some(Aeth::ack(msn)),
            atomic: opcode
                .has_atomic_eth()
                .then_some(AtomicEth { vaddr, rkey, swap, compare }),
            atomic_ack: opcode.has_atomic_ack_eth().then_some(swap),
            payload: if no_payload { vec![] } else { payload }.into(),
        };
        let bytes = pkt.encode();
        let parsed = RocePacket::parse(&bytes).unwrap();
        prop_assert_eq!(parsed, pkt);
    }

    #[test]
    fn parsing_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // The in-place parser of an owned frame reaches the same verdict.
        let verdict = RocePacket::parse(&bytes);
        prop_assert_eq!(RocePacket::parse_frame(bytes.into()), verdict);
    }

    #[test]
    fn reqid_roundtrips(channel in 0u16..0x8000, seq in 1u64..(1 << 48), write in any::<bool>()) {
        let op = if write { OpType::Write } else { OpType::Read };
        let id = ReqId::new(op, channel, seq);
        prop_assert_eq!(id.op(), op);
        prop_assert_eq!(id.channel(), channel);
        prop_assert_eq!(id.seq(), seq);
        prop_assert_eq!(ReqId::from_raw(id.raw()), id);
        // Completion check is exactly the seq comparison.
        prop_assert_eq!(id.completed_by(seq), true);
        prop_assert_eq!(id.completed_by(seq - 1), false);
    }

    #[test]
    fn request_meta_roundtrips(
        kind in 0u8..4,
        req_addr in any::<u64>(),
        resp_addr in any::<u64>(),
        length in any::<u32>(),
        region_id in any::<u16>(),
        offset_of_ptr in any::<u8>(),
        stride in 0u16..=CHASE_STRIDE_MAX,
        budget in 0u8..=CHASE_BUDGET_MAX,
        idx in 0u64..(1 << 40),
    ) {
        let rw_type = match kind {
            0 => RwType::Read,
            1 => RwType::Write,
            2 => RwType::ReadIndirect,
            _ => RwType::Chase,
        };
        // The chase bits live in words 0 and 3 alongside every other
        // field; plain reads/writes must leave them zero on the wire.
        let chase = if rw_type.is_chase() {
            ChaseParams { offset_of_ptr, stride, budget }
        } else {
            ChaseParams::default()
        };
        let m = RequestMeta {
            rw_type,
            req_addr,
            resp_addr,
            length,
            region_id,
            chase,
        };
        let body = m.body_words();
        let words = [m.publication_word(idx), body[0], body[1], body[2]];
        prop_assert_eq!(RequestMeta::decode(words, idx), Some(m));
        // A stale/foreign index never decodes.
        prop_assert_eq!(RequestMeta::decode(words, idx + 1), None);
    }

    #[test]
    fn ring_reservation_invariants(
        ops in proptest::collection::vec((1u64..300, any::<bool>()), 1..200),
        capacity in 256u64..2048,
    ) {
        // Simulate reserve/free cycles; reservations must stay in capacity,
        // never wrap the ring boundary, and never overlap live data.
        let mut tail = 0u64;
        let mut head = 0u64;
        let mut live: Vec<(u64, u64)> = Vec::new();
        for (len, free_one) in ops {
            if free_one && !live.is_empty() {
                let (_s, e) = live.remove(0);
                head = e;
                continue;
            }
            if let Some((start, end)) = reserve_no_wrap(tail, head, capacity, len) {
                // Fits in the window.
                prop_assert!(end - head <= capacity);
                // Never straddles the physical boundary.
                prop_assert!(start % capacity + len <= capacity);
                // Monotone.
                prop_assert!(start >= tail);
                // No overlap with live reservations (physical).
                for &(s, e) in &live {
                    let (ps, pe) = (s % capacity, (e - 1) % capacity);
                    let (qs, qe) = (start % capacity, (end.max(start + 1) - 1) % capacity);
                    if len > 0 && e > s {
                        let disjoint = pe < qs || qe < ps;
                        prop_assert!(disjoint || (ps <= pe && qs <= qe && (pe < qs || qe < ps)),
                            "overlap: live ({ps},{pe}) vs new ({qs},{qe})");
                    }
                }
                live.push((start, end));
                tail = end;
            }
        }
    }

    #[test]
    fn region_matches_vec_oracle(
        writes in proptest::collection::vec(
            (0u64..1000, proptest::collection::vec(any::<u8>(), 1..64)),
            1..40
        ),
    ) {
        let region = Region::new(1064);
        let mut oracle = vec![0u8; 1064];
        for (off, data) in &writes {
            region.write(*off, data).unwrap();
            oracle[*off as usize..*off as usize + data.len()].copy_from_slice(data);
        }
        let got = region.read_vec(0, 1064).unwrap();
        prop_assert_eq!(got, oracle);
    }

    #[test]
    fn histogram_quantiles_match_exact_within_error(
        samples in proptest::collection::vec(1u64..10_000_000, 10..500),
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let exact = sorted[(((q * sorted.len() as f64).ceil() as usize).max(1) - 1).min(sorted.len() - 1)];
            let est = h.quantile(q);
            let err = (est as f64 - exact as f64).abs() / exact as f64;
            prop_assert!(err < 0.04, "q{q}: est {est} vs exact {exact}");
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min(), sorted[0]);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
    }

    #[test]
    fn zipf_stays_in_range(n in 1u64..1_000_000, theta in 0.01f64..0.999, seed in any::<u64>()) {
        let z = ZipfSampler::new(n, theta);
        let mut rng = Rng::new(seed);
        for _ in 0..64 {
            let k = z.sample(&mut rng);
            prop_assert!((1..=n).contains(&k));
            let s = z.sample_scrambled(&mut rng);
            prop_assert!(s < n);
        }
    }

    #[test]
    fn rng_range_is_uniformly_bounded(lo in 0u64..1000, span in 1u64..1000, seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        for _ in 0..64 {
            let v = rng.range(lo, lo + span);
            prop_assert!((lo..lo + span).contains(&v));
        }
    }
}
