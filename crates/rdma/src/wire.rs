//! RoCEv2 wire format: the headers of Table 4 of the paper.
//!
//! A RoCEv2 packet on the wire is `Ethernet | IPv4 | UDP(dport 4791) | BTH |
//! [RETH] | [AETH] | payload | iCRC | FCS`. This module encodes and parses
//! the InfiniBand transport headers byte-exactly (per the IBTA spec layouts)
//! and accounts for the outer framing as size constants — the simulator only
//! needs outer sizes, not outer bytes, and the emulation rides on channels.
//!
//! Current Tofino switches cannot compute the iCRC, so Cowbird disables the
//! check on end hosts (paper §5.1, footnote 1). We keep a 4-byte iCRC slot in
//! the size accounting and mirror the "disabled check" behaviour: an injected
//! corruption is detected out-of-band and the packet is dropped by the
//! receiver, which is exactly what a real NIC with iCRC enabled would do.

use core::fmt;

use simnet::pool::{BufArena, PoolBuf};

/// Outer framing bytes present on every RoCEv2 packet: Ethernet (14) +
/// IPv4 (20) + UDP (8) + iCRC (4) + Ethernet FCS (4).
pub const OUTER_OVERHEAD: usize = 14 + 20 + 8 + 4 + 4;

/// Base Transport Header length.
pub const BTH_LEN: usize = 12;
/// RDMA Extended Transport Header length.
pub const RETH_LEN: usize = 16;
/// ACK Extended Transport Header length.
pub const AETH_LEN: usize = 4;
/// Atomic Extended Transport Header length (vaddr 8 + rkey 4 + swap 8 +
/// compare 8).
pub const ATOMIC_ETH_LEN: usize = 28;
/// Atomic ACK Extended Transport Header length (the 8-byte original value).
pub const ATOMIC_ACK_ETH_LEN: usize = 8;

/// Spare bytes in front of a pooled payload: room for the longest transport
/// header (BTH + AtomicETH), so any packet's headers can be written in front
/// of a payload that is already in place ([`RocePacket::into_frame`]).
pub const FRAME_HEADROOM: usize = BTH_LEN + ATOMIC_ETH_LEN;

/// The UDP destination port registered for RoCEv2.
pub const ROCE_UDP_PORT: u16 = 4791;

/// Default RoCE path MTU (payload bytes per packet). The paper notes that
/// responses larger than 1024 B segment into First/Middle/Last packets.
pub const DEFAULT_MTU: usize = 1024;

/// InfiniBand RC opcodes used by Cowbird (IBTA spec, table 35).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Opcode {
    SendFirst = 0x00,
    SendMiddle = 0x01,
    SendLast = 0x02,
    SendOnly = 0x04,
    WriteFirst = 0x06,
    WriteMiddle = 0x07,
    WriteLast = 0x08,
    WriteOnly = 0x0A,
    ReadRequest = 0x0C,
    ReadResponseFirst = 0x0D,
    ReadResponseMiddle = 0x0E,
    ReadResponseLast = 0x0F,
    ReadResponseOnly = 0x10,
    Acknowledge = 0x11,
    AtomicAcknowledge = 0x12,
    CompareSwap = 0x13,
}

impl Opcode {
    pub fn from_u8(v: u8) -> Result<Opcode, WireError> {
        use Opcode::*;
        Ok(match v {
            0x00 => SendFirst,
            0x01 => SendMiddle,
            0x02 => SendLast,
            0x04 => SendOnly,
            0x06 => WriteFirst,
            0x07 => WriteMiddle,
            0x08 => WriteLast,
            0x0A => WriteOnly,
            0x0C => ReadRequest,
            0x0D => ReadResponseFirst,
            0x0E => ReadResponseMiddle,
            0x0F => ReadResponseLast,
            0x10 => ReadResponseOnly,
            0x11 => Acknowledge,
            0x12 => AtomicAcknowledge,
            0x13 => CompareSwap,
            other => return Err(WireError::UnknownOpcode(other)),
        })
    }

    /// Does a packet with this opcode carry a RETH?
    pub fn has_reth(self) -> bool {
        matches!(
            self,
            Opcode::ReadRequest | Opcode::WriteFirst | Opcode::WriteOnly
        )
    }

    /// Does a packet with this opcode carry an AETH?
    pub fn has_aeth(self) -> bool {
        matches!(
            self,
            Opcode::Acknowledge
                | Opcode::AtomicAcknowledge
                | Opcode::ReadResponseFirst
                | Opcode::ReadResponseLast
                | Opcode::ReadResponseOnly
        )
    }

    /// Does a packet with this opcode carry an AtomicETH?
    pub fn has_atomic_eth(self) -> bool {
        matches!(self, Opcode::CompareSwap)
    }

    /// Does a packet with this opcode carry an AtomicAckETH (the 8-byte
    /// original value returned by an atomic)?
    pub fn has_atomic_ack_eth(self) -> bool {
        matches!(self, Opcode::AtomicAcknowledge)
    }

    /// Is this any flavour of RDMA read response?
    pub fn is_read_response(self) -> bool {
        matches!(
            self,
            Opcode::ReadResponseFirst
                | Opcode::ReadResponseMiddle
                | Opcode::ReadResponseLast
                | Opcode::ReadResponseOnly
        )
    }

    /// Is this any flavour of RDMA write request?
    pub fn is_write(self) -> bool {
        matches!(
            self,
            Opcode::WriteFirst | Opcode::WriteMiddle | Opcode::WriteLast | Opcode::WriteOnly
        )
    }

    /// Is this any flavour of SEND?
    pub fn is_send(self) -> bool {
        matches!(
            self,
            Opcode::SendFirst | Opcode::SendMiddle | Opcode::SendLast | Opcode::SendOnly
        )
    }

    /// The RDMA Write opcode corresponding to a Read Response segment — the
    /// exact conversion Cowbird-P4 performs when recycling packets (paper
    /// §5.2, Phase III step 2a).
    pub fn read_response_to_write(self) -> Option<Opcode> {
        Some(match self {
            Opcode::ReadResponseFirst => Opcode::WriteFirst,
            Opcode::ReadResponseMiddle => Opcode::WriteMiddle,
            Opcode::ReadResponseLast => Opcode::WriteLast,
            Opcode::ReadResponseOnly => Opcode::WriteOnly,
            _ => return None,
        })
    }
}

/// Errors from parsing a RoCEv2 transport payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    Truncated,
    UnknownOpcode(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "packet truncated"),
            WireError::UnknownOpcode(op) => write!(f, "unknown BTH opcode {op:#x}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Base Transport Header (the fields Cowbird uses; reserved fields encode as
/// zero).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Bth {
    pub opcode: Opcode,
    /// Solicited-event / migration / pad / header-version packed byte. We
    /// keep only the ack-request bit of the later word; this byte encodes 0.
    pub pkey: u16,
    /// Destination queue pair (24 bits).
    pub dst_qp: u32,
    /// Ack-request bit.
    pub ack_req: bool,
    /// Packet sequence number (24 bits).
    pub psn: u32,
}

impl Bth {
    pub fn new(opcode: Opcode, dst_qp: u32, psn: u32) -> Bth {
        Bth {
            opcode,
            pkey: 0xFFFF,
            dst_qp: dst_qp & 0x00FF_FFFF,
            ack_req: false,
            psn: psn & 0x00FF_FFFF,
        }
    }

    /// Write the header into the first [`BTH_LEN`] bytes of `out`.
    pub fn encode(&self, out: &mut [u8]) {
        out[0] = self.opcode as u8;
        out[1] = 0; // se|m|pad|tver
        out[2..4].copy_from_slice(&self.pkey.to_be_bytes());
        out[4] = 0; // reserved
        out[5..8].copy_from_slice(&self.dst_qp.to_be_bytes()[1..4]);
        out[8] = if self.ack_req { 0x80 } else { 0 }; // a|rsvd
        out[9..12].copy_from_slice(&self.psn.to_be_bytes()[1..4]);
    }

    pub fn parse(buf: &[u8]) -> Result<Bth, WireError> {
        if buf.len() < BTH_LEN {
            return Err(WireError::Truncated);
        }
        let opcode = Opcode::from_u8(buf[0])?;
        let pkey = u16::from_be_bytes([buf[2], buf[3]]);
        let dst_qp = u32::from_be_bytes([0, buf[5], buf[6], buf[7]]);
        let ack_req = buf[8] & 0x80 != 0;
        let psn = u32::from_be_bytes([0, buf[9], buf[10], buf[11]]);
        Ok(Bth {
            opcode,
            pkey,
            dst_qp,
            ack_req,
            psn,
        })
    }
}

/// RDMA Extended Transport Header: where to read/write remotely.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Reth {
    pub vaddr: u64,
    pub rkey: u32,
    pub dma_len: u32,
}

impl Reth {
    /// Write the header into the first [`RETH_LEN`] bytes of `out`.
    pub fn encode(&self, out: &mut [u8]) {
        out[0..8].copy_from_slice(&self.vaddr.to_be_bytes());
        out[8..12].copy_from_slice(&self.rkey.to_be_bytes());
        out[12..16].copy_from_slice(&self.dma_len.to_be_bytes());
    }

    pub fn parse(buf: &[u8]) -> Result<Reth, WireError> {
        if buf.len() < RETH_LEN {
            return Err(WireError::Truncated);
        }
        Ok(Reth {
            vaddr: u64::from_be_bytes(buf[0..8].try_into().unwrap()),
            rkey: u32::from_be_bytes(buf[8..12].try_into().unwrap()),
            dma_len: u32::from_be_bytes(buf[12..16].try_into().unwrap()),
        })
    }
}

/// Atomic Extended Transport Header: target word plus the compare-and-swap
/// operands (IBTA AtomicETH layout: VA, R_Key, Swap/Add data, Compare data).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AtomicEth {
    /// Remote virtual address of the 8-byte target word (must be 8-aligned).
    pub vaddr: u64,
    pub rkey: u32,
    /// Value stored if the comparison succeeds.
    pub swap: u64,
    /// Value the target word must hold for the swap to happen.
    pub compare: u64,
}

impl AtomicEth {
    /// Write the header into the first [`ATOMIC_ETH_LEN`] bytes of `out`.
    pub fn encode(&self, out: &mut [u8]) {
        out[0..8].copy_from_slice(&self.vaddr.to_be_bytes());
        out[8..12].copy_from_slice(&self.rkey.to_be_bytes());
        out[12..20].copy_from_slice(&self.swap.to_be_bytes());
        out[20..28].copy_from_slice(&self.compare.to_be_bytes());
    }

    pub fn parse(buf: &[u8]) -> Result<AtomicEth, WireError> {
        if buf.len() < ATOMIC_ETH_LEN {
            return Err(WireError::Truncated);
        }
        Ok(AtomicEth {
            vaddr: u64::from_be_bytes(buf[0..8].try_into().unwrap()),
            rkey: u32::from_be_bytes(buf[8..12].try_into().unwrap()),
            swap: u64::from_be_bytes(buf[12..20].try_into().unwrap()),
            compare: u64::from_be_bytes(buf[20..28].try_into().unwrap()),
        })
    }
}

/// AETH syndrome values (top 3 bits select the class).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Syndrome {
    /// Positive acknowledgment (credit field ignored here).
    Ack,
    /// Receiver-not-ready NAK.
    RnrNak,
    /// NAK with a code; `0` = PSN sequence error (triggers Go-Back-N).
    Nak(u8),
}

impl Syndrome {
    fn to_byte(self) -> u8 {
        match self {
            Syndrome::Ack => 0b0001_1111, // ACK, credit ~ unlimited
            Syndrome::RnrNak => 0b0010_0000,
            Syndrome::Nak(code) => 0b0110_0000 | (code & 0x1F),
        }
    }

    fn from_byte(b: u8) -> Syndrome {
        match b >> 5 {
            0b000..=0b001 => Syndrome::Ack,
            0b010 => Syndrome::RnrNak,
            _ => Syndrome::Nak(b & 0x1F),
        }
    }
}

/// ACK Extended Transport Header: syndrome + message sequence number.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Aeth {
    pub syndrome: Syndrome,
    /// Message sequence number (24 bits).
    pub msn: u32,
}

impl Aeth {
    pub fn ack(msn: u32) -> Aeth {
        Aeth {
            syndrome: Syndrome::Ack,
            msn: msn & 0x00FF_FFFF,
        }
    }

    pub fn nak_sequence(msn: u32) -> Aeth {
        Aeth {
            syndrome: Syndrome::Nak(0),
            msn: msn & 0x00FF_FFFF,
        }
    }

    /// Write the header into the first [`AETH_LEN`] bytes of `out`.
    pub fn encode(&self, out: &mut [u8]) {
        out[0] = self.syndrome.to_byte();
        out[1..4].copy_from_slice(&self.msn.to_be_bytes()[1..4]);
    }

    pub fn parse(buf: &[u8]) -> Result<Aeth, WireError> {
        if buf.len() < AETH_LEN {
            return Err(WireError::Truncated);
        }
        Ok(Aeth {
            syndrome: Syndrome::from_byte(buf[0]),
            msn: u32::from_be_bytes([0, buf[1], buf[2], buf[3]]),
        })
    }
}

/// A complete RoCEv2 transport PDU (inner headers + payload).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RocePacket {
    pub bth: Bth,
    pub reth: Option<Reth>,
    pub aeth: Option<Aeth>,
    /// AtomicETH on CompareSwap requests.
    pub atomic: Option<AtomicEth>,
    /// AtomicAckETH on atomic acknowledgments: the original value of the
    /// target word, from which the requester learns whether its swap won.
    pub atomic_ack: Option<u64>,
    /// Payload bytes. On the simulated hot path this is the frame buffer
    /// itself, headers in its headroom ([`RocePacket::parse_frame`],
    /// [`RocePacket::into_frame`]); plain owned bytes elsewhere — any
    /// `Vec<u8>` converts via `.into()`.
    pub payload: PoolBuf,
}

impl RocePacket {
    /// A read request for `dma_len` bytes at `vaddr`/`rkey`.
    pub fn read_request(dst_qp: u32, psn: u32, vaddr: u64, rkey: u32, dma_len: u32) -> RocePacket {
        RocePacket {
            bth: Bth::new(Opcode::ReadRequest, dst_qp, psn),
            reth: Some(Reth {
                vaddr,
                rkey,
                dma_len,
            }),
            aeth: None,
            atomic: None,
            atomic_ack: None,
            payload: PoolBuf::empty(),
        }
    }

    /// A single-packet (Only) write of `payload` to `vaddr`/`rkey`.
    pub fn write_only(
        dst_qp: u32,
        psn: u32,
        vaddr: u64,
        rkey: u32,
        payload: impl Into<PoolBuf>,
    ) -> RocePacket {
        let payload = payload.into();
        let mut bth = Bth::new(Opcode::WriteOnly, dst_qp, psn);
        bth.ack_req = true;
        RocePacket {
            bth,
            reth: Some(Reth {
                vaddr,
                rkey,
                dma_len: payload.len() as u32,
            }),
            aeth: None,
            atomic: None,
            atomic_ack: None,
            payload,
        }
    }

    /// An explicit acknowledgment.
    pub fn ack(dst_qp: u32, psn: u32, msn: u32) -> RocePacket {
        RocePacket {
            bth: Bth::new(Opcode::Acknowledge, dst_qp, psn),
            reth: None,
            aeth: Some(Aeth::ack(msn)),
            atomic: None,
            atomic_ack: None,
            payload: PoolBuf::empty(),
        }
    }

    /// A compare-and-swap request on the 8-byte word at `vaddr`/`rkey`.
    pub fn comp_swap(
        dst_qp: u32,
        psn: u32,
        vaddr: u64,
        rkey: u32,
        compare: u64,
        swap: u64,
    ) -> RocePacket {
        let mut bth = Bth::new(Opcode::CompareSwap, dst_qp, psn);
        bth.ack_req = true;
        RocePacket {
            bth,
            reth: None,
            aeth: None,
            atomic: Some(AtomicEth {
                vaddr,
                rkey,
                swap,
                compare,
            }),
            atomic_ack: None,
            payload: PoolBuf::empty(),
        }
    }

    /// An atomic acknowledgment carrying the original value of the target
    /// word.
    pub fn atomic_ack(dst_qp: u32, psn: u32, msn: u32, orig: u64) -> RocePacket {
        RocePacket {
            bth: Bth::new(Opcode::AtomicAcknowledge, dst_qp, psn),
            reth: None,
            aeth: Some(Aeth::ack(msn)),
            atomic: None,
            atomic_ack: Some(orig),
            payload: PoolBuf::empty(),
        }
    }

    /// A NAK reporting a PSN sequence error (requester should go back to
    /// `psn`).
    pub fn nak(dst_qp: u32, psn: u32, msn: u32) -> RocePacket {
        RocePacket {
            bth: Bth::new(Opcode::Acknowledge, dst_qp, psn),
            reth: None,
            aeth: Some(Aeth::nak_sequence(msn)),
            atomic: None,
            atomic_ack: None,
            payload: PoolBuf::empty(),
        }
    }

    /// Encode the transport PDU (BTH onward) into bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.header_len() + self.payload.len());
        self.encode_into(&mut out);
        out
    }

    /// Encode the transport PDU by *appending* to `out` — pass a recycled
    /// buffer whose sticky capacity already covers the PDU and nothing
    /// touches the allocator.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let at = out.len();
        out.resize(at + self.header_len(), 0);
        self.put_header(&mut out[at..]);
        out.extend_from_slice(&self.payload);
    }

    /// Turn the packet into its frame (the bytes of [`RocePacket::encode`])
    /// without moving the payload: the headers are written into the
    /// payload buffer's headroom, and that buffer *is* the frame. A payload
    /// without the headroom (unpooled bytes, an empty ACK) is first copied
    /// into a buffer from `arena` that has it.
    pub fn into_frame(mut self, arena: &BufArena) -> PoolBuf {
        if self.payload.headroom() < self.header_len() {
            return self.to_frame(arena);
        }
        let payload = std::mem::take(&mut self.payload);
        self.seal(payload)
    }

    /// [`RocePacket::into_frame`] for a packet the caller keeps: the payload
    /// is copied once, into the frame.
    pub fn to_frame(&self, arena: &BufArena) -> PoolBuf {
        let mut payload = arena.take_sized(FRAME_HEADROOM, self.payload.len());
        payload.copy_from_slice(&self.payload);
        self.seal(payload)
    }

    /// Write this packet's headers in front of `payload`.
    fn seal(&self, mut payload: PoolBuf) -> PoolBuf {
        self.put_header(payload.prepend(self.header_len()));
        payload
    }

    /// Transport header bytes in front of the payload.
    fn header_len(&self) -> usize {
        BTH_LEN
            + if self.reth.is_some() { RETH_LEN } else { 0 }
            + if self.aeth.is_some() { AETH_LEN } else { 0 }
            + if self.atomic.is_some() {
                ATOMIC_ETH_LEN
            } else {
                0
            }
            + if self.atomic_ack.is_some() {
                ATOMIC_ACK_ETH_LEN
            } else {
                0
            }
    }

    /// Write the transport headers into `out` (`header_len()` bytes).
    fn put_header(&self, out: &mut [u8]) {
        let op = self.bth.opcode;
        debug_assert_eq!(
            (
                self.reth.is_some(),
                self.aeth.is_some(),
                self.atomic.is_some(),
                self.atomic_ack.is_some()
            ),
            (
                op.has_reth(),
                op.has_aeth(),
                op.has_atomic_eth(),
                op.has_atomic_ack_eth()
            ),
            "RETH/AETH/AtomicETH/AtomicAckETH presence must match opcode {op:?}",
        );
        self.bth.encode(out);
        let mut at = BTH_LEN;
        if let Some(reth) = &self.reth {
            reth.encode(&mut out[at..]);
            at += RETH_LEN;
        }
        if let Some(aeth) = &self.aeth {
            aeth.encode(&mut out[at..]);
            at += AETH_LEN;
        }
        if let Some(atomic) = &self.atomic {
            atomic.encode(&mut out[at..]);
            at += ATOMIC_ETH_LEN;
        }
        if let Some(orig) = self.atomic_ack {
            out[at..at + ATOMIC_ACK_ETH_LEN].copy_from_slice(&orig.to_be_bytes());
        }
    }

    /// Parse a transport PDU from bytes.
    pub fn parse(buf: &[u8]) -> Result<RocePacket, WireError> {
        Self::parse_with(buf, |buf, off| buf[off..].into())
    }

    /// Parse with the payload copied into a recycled arena buffer instead of
    /// a fresh allocation. Empty payloads (ACKs, read requests) skip the
    /// arena entirely.
    pub fn parse_pooled(buf: &[u8], arena: &BufArena) -> Result<RocePacket, WireError> {
        Self::parse_with(buf, |buf, off| match &buf[off..] {
            [] => PoolBuf::empty(),
            payload => arena.take_copy(payload),
        })
    }

    /// Parse a frame the caller owns, in place: the payload is the frame
    /// buffer with the headers consumed — no byte moves, and the consumed
    /// headers are the headroom a reply built from this payload needs.
    pub fn parse_frame(frame: PoolBuf) -> Result<RocePacket, WireError> {
        Self::parse_with(frame, |mut frame, off| {
            frame.advance(off);
            frame
        })
    }

    /// Parse the headers at the front of `src`, then let `payload` turn the
    /// source and the offset at which its payload starts into the payload.
    fn parse_with<B: AsRef<[u8]>>(
        src: B,
        payload: impl FnOnce(B, usize) -> PoolBuf,
    ) -> Result<RocePacket, WireError> {
        let buf = src.as_ref();
        let bth = Bth::parse(buf)?;
        let mut off = BTH_LEN;
        let reth = if bth.opcode.has_reth() {
            let r = Reth::parse(&buf[off.min(buf.len())..])?;
            off += RETH_LEN;
            Some(r)
        } else {
            None
        };
        let aeth = if bth.opcode.has_aeth() {
            let a = Aeth::parse(&buf[off.min(buf.len())..])?;
            off += AETH_LEN;
            Some(a)
        } else {
            None
        };
        let atomic = if bth.opcode.has_atomic_eth() {
            let a = AtomicEth::parse(&buf[off.min(buf.len())..])?;
            off += ATOMIC_ETH_LEN;
            Some(a)
        } else {
            None
        };
        let atomic_ack = if bth.opcode.has_atomic_ack_eth() {
            let rest = &buf[off.min(buf.len())..];
            if rest.len() < ATOMIC_ACK_ETH_LEN {
                return Err(WireError::Truncated);
            }
            off += ATOMIC_ACK_ETH_LEN;
            Some(u64::from_be_bytes(rest[0..8].try_into().unwrap()))
        } else {
            None
        };
        if off > buf.len() {
            return Err(WireError::Truncated);
        }
        Ok(RocePacket {
            bth,
            reth,
            aeth,
            atomic,
            atomic_ack,
            payload: payload(src, off),
        })
    }

    /// Size on the wire including Ethernet/IP/UDP framing, iCRC and FCS.
    pub fn wire_size(&self) -> usize {
        OUTER_OVERHEAD + self.header_len() + self.payload.len()
    }
}

/// Wire size of a read request (no payload).
pub fn read_request_wire_size() -> usize {
    OUTER_OVERHEAD + BTH_LEN + RETH_LEN
}

/// Wire size of an ACK.
pub fn ack_wire_size() -> usize {
    OUTER_OVERHEAD + BTH_LEN + AETH_LEN
}

/// Total wire bytes needed to move `len` payload bytes as an RDMA write,
/// given the path MTU (includes per-segment headers).
pub fn write_wire_size(len: usize, mtu: usize) -> usize {
    let segments = len.div_ceil(mtu).max(1);
    // First (or Only) segment carries a RETH; the rest only BTH.
    len + OUTER_OVERHEAD + BTH_LEN + RETH_LEN + (segments - 1) * (OUTER_OVERHEAD + BTH_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bth_roundtrip() {
        let bth = Bth {
            opcode: Opcode::ReadRequest,
            pkey: 0xFFFF,
            dst_qp: 0x0012_3456,
            ack_req: true,
            psn: 0x00AB_CDEF,
        };
        let mut buf = [0u8; BTH_LEN];
        bth.encode(&mut buf);
        assert_eq!(Bth::parse(&buf).unwrap(), bth);
    }

    #[test]
    fn reth_roundtrip() {
        let reth = Reth {
            vaddr: 0xDEAD_BEEF_0123_4567,
            rkey: 0x1122_3344,
            dma_len: 4096,
        };
        let mut buf = [0u8; RETH_LEN];
        reth.encode(&mut buf);
        assert_eq!(Reth::parse(&buf).unwrap(), reth);
    }

    #[test]
    fn aeth_roundtrip_ack_and_nak() {
        for aeth in [Aeth::ack(7), Aeth::nak_sequence(9)] {
            let mut buf = [0u8; AETH_LEN];
            aeth.encode(&mut buf);
            assert_eq!(Aeth::parse(&buf).unwrap(), aeth);
        }
    }

    /// One packet of every header combination the transport produces.
    fn shapes() -> Vec<RocePacket> {
        vec![
            RocePacket::read_request(3, 100, 0x1000, 42, 256),
            RocePacket::write_only(3, 101, 0x2000, 42, vec![9u8; 64]),
            RocePacket::ack(3, 101, 5),
            RocePacket::nak(3, 102, 5),
            RocePacket {
                bth: Bth::new(Opcode::ReadResponseOnly, 3, 103),
                reth: None,
                aeth: Some(Aeth::ack(6)),
                atomic: None,
                atomic_ack: None,
                payload: vec![1, 2, 3].into(),
            },
            RocePacket {
                bth: Bth::new(Opcode::ReadResponseMiddle, 3, 104),
                reth: None,
                aeth: None,
                atomic: None,
                atomic_ack: None,
                payload: vec![7u8; 1024].into(),
            },
            RocePacket::comp_swap(3, 105, 0x40, 42, 0, 1),
            RocePacket::atomic_ack(3, 105, 7, 0xDEAD_BEEF_CAFE_F00D),
        ]
    }

    #[test]
    fn packet_roundtrip_all_shapes() {
        for pkt in shapes() {
            let bytes = pkt.encode();
            let parsed = RocePacket::parse(&bytes).unwrap();
            assert_eq!(parsed, pkt);
            assert_eq!(pkt.wire_size(), bytes.len() + OUTER_OVERHEAD);
        }
    }

    #[test]
    fn in_place_frames_are_the_encoded_bytes_for_all_shapes() {
        let arena = BufArena::new(8);
        for pkt in shapes() {
            let bytes = pkt.encode();
            // A payload without headroom (unpooled here) is copied once.
            assert_eq!(pkt.to_frame(&arena), bytes);
            assert_eq!(pkt.clone().into_frame(&arena), bytes);
            // A payload with headroom stays where it is: the headers are
            // written in front of it and its buffer is the frame.
            let mut payload = arena.take_sized(FRAME_HEADROOM, pkt.payload.len());
            payload.copy_from_slice(&pkt.payload);
            let at = payload.as_ptr();
            let frame = RocePacket {
                payload,
                ..pkt.clone()
            }
            .into_frame(&arena);
            assert_eq!(frame, bytes);
            assert_eq!(frame[pkt.header_len()..].as_ptr(), at);
            // Parsing the frame in place gives the packet back, the payload
            // still where it was and with the headroom to be sent on under
            // any header (the paper's response-to-write recycling).
            let parsed = RocePacket::parse_frame(frame).unwrap();
            assert_eq!(parsed, pkt);
            assert_eq!(parsed.payload.as_ptr(), at);
            assert_eq!(parsed.payload.headroom(), FRAME_HEADROOM);
        }
    }

    #[test]
    fn owned_parser_rejects_what_the_borrowing_parser_rejects() {
        let arena = BufArena::new(8);
        let same_verdict = |bytes: &[u8]| {
            let verdict = RocePacket::parse(bytes);
            assert_eq!(RocePacket::parse_frame(bytes.to_vec().into()), verdict);
            assert_eq!(RocePacket::parse_frame(arena.take_copy(bytes)), verdict);
            verdict
        };
        for pkt in shapes() {
            let bytes = pkt.encode();
            for cut in 0..pkt.header_len() {
                assert_eq!(same_verdict(&bytes[..cut]), Err(WireError::Truncated));
            }
            assert_eq!(same_verdict(&bytes), Ok(pkt));
            let mut unknown = bytes.clone();
            unknown[0] = 0x3F;
            assert_eq!(same_verdict(&unknown), Err(WireError::UnknownOpcode(0x3F)));
        }
        assert!(same_verdict(&[0xFF; 5]).is_err());
        assert!(same_verdict(&[]).is_err());
    }

    #[test]
    fn qp_and_psn_are_24_bit() {
        let bth = Bth::new(Opcode::Acknowledge, 0xFFFF_FFFF, 0xFFFF_FFFF);
        assert_eq!(bth.dst_qp, 0x00FF_FFFF);
        assert_eq!(bth.psn, 0x00FF_FFFF);
    }

    #[test]
    fn truncated_packets_are_rejected() {
        assert_eq!(Bth::parse(&[0u8; 4]), Err(WireError::Truncated));
        let pkt = RocePacket::read_request(1, 1, 0, 0, 0);
        let bytes = pkt.encode();
        assert!(RocePacket::parse(&bytes[..BTH_LEN + 3]).is_err());
    }

    #[test]
    fn pooled_parse_recycles() {
        let arena = BufArena::new(8);
        let pkt = RocePacket::write_only(3, 9, 0x2000, 42, vec![5u8; 128]);
        let bytes = pkt.encode();
        let parsed = RocePacket::parse_pooled(&bytes, &arena).unwrap();
        assert_eq!(parsed, pkt);
        assert!(parsed.payload.is_pooled());
        drop(parsed);
        assert_eq!(arena.stats().recycled, 1);
        // Empty payloads never touch the arena.
        let ack_bytes = RocePacket::ack(3, 9, 1).encode();
        let ack = RocePacket::parse_pooled(&ack_bytes, &arena).unwrap();
        assert!(!ack.payload.is_pooled());
        assert_eq!(arena.stats().misses, 1, "only the payload parse takes");
    }

    #[test]
    fn unknown_opcode_is_rejected() {
        let mut bytes = RocePacket::ack(1, 1, 1).encode();
        bytes[0] = 0x3F;
        assert!(matches!(
            RocePacket::parse(&bytes),
            Err(WireError::UnknownOpcode(0x3F))
        ));
    }

    #[test]
    fn atomic_eth_roundtrip_and_header_lengths() {
        let eth = AtomicEth {
            vaddr: 0x58,
            rkey: 0x0102_0304,
            swap: 7,
            compare: 6,
        };
        let mut buf = [0u8; ATOMIC_ETH_LEN];
        eth.encode(&mut buf);
        assert_eq!(AtomicEth::parse(&buf).unwrap(), eth);
        assert_eq!(AtomicEth::parse(&buf[..27]), Err(WireError::Truncated));

        // Request is BTH + AtomicETH; response is BTH + AETH + AtomicAckETH.
        let req = RocePacket::comp_swap(1, 0, 0x58, 9, 6, 7);
        assert_eq!(req.wire_size(), OUTER_OVERHEAD + BTH_LEN + ATOMIC_ETH_LEN);
        let resp = RocePacket::atomic_ack(1, 0, 1, 6);
        assert_eq!(
            resp.wire_size(),
            OUTER_OVERHEAD + BTH_LEN + AETH_LEN + ATOMIC_ACK_ETH_LEN
        );
        let bytes = resp.encode();
        assert!(RocePacket::parse(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn recycle_conversion_matches_paper() {
        // Cowbird-P4 converts Read Response {First,Middle,Last,Only} into
        // Write {First,Middle,Last,Only} (paper §5.2).
        assert_eq!(
            Opcode::ReadResponseFirst.read_response_to_write(),
            Some(Opcode::WriteFirst)
        );
        assert_eq!(
            Opcode::ReadResponseMiddle.read_response_to_write(),
            Some(Opcode::WriteMiddle)
        );
        assert_eq!(
            Opcode::ReadResponseLast.read_response_to_write(),
            Some(Opcode::WriteLast)
        );
        assert_eq!(
            Opcode::ReadResponseOnly.read_response_to_write(),
            Some(Opcode::WriteOnly)
        );
        assert_eq!(Opcode::Acknowledge.read_response_to_write(), None);
    }

    #[test]
    fn write_wire_size_accounts_for_segmentation() {
        // 1 KiB at MTU 1024: single Only packet.
        let one = write_wire_size(1024, 1024);
        assert_eq!(one, 1024 + OUTER_OVERHEAD + BTH_LEN + RETH_LEN);
        // 2.5 KiB at MTU 1024: First + Middle + Last.
        let three = write_wire_size(2560, 1024);
        assert_eq!(
            three,
            2560 + OUTER_OVERHEAD + BTH_LEN + RETH_LEN + 2 * (OUTER_OVERHEAD + BTH_LEN)
        );
        // Zero-length write still emits one packet.
        assert_eq!(
            write_wire_size(0, 1024),
            OUTER_OVERHEAD + BTH_LEN + RETH_LEN
        );
    }
}
