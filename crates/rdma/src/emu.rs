//! An RNIC emulated with real OS threads — the runnable substrate.
//!
//! The fabric runs one service thread that plays every NIC's packet engine:
//! it takes RoCE frames off the wire, executes one-sided operations directly
//! against the registered [`Region`]s and transmits responses, **without any
//! involvement from the host threads**. That is the point: a Cowbird compute
//! node's application threads only touch local memory, while its NIC serves
//! the offload engine's reads and writes of the rings in the background.
//!
//! The NIC is the simulator's [`SimNic`], and the frames are the ones it
//! sends there: owned, arena-recycled `simnet` packets, received through
//! [`SimNic::receive`], so both fabrics share one codec, one integrity
//! check and one set of drop counters. Time on this fabric is frozen at
//! [`Instant::ZERO`], so Go-Back-N retransmit timers never fire here and no
//! retransmission sweep runs; the channel wire is lossless, and loss
//! recovery is exercised in the simulator instead.
//!
//! The wire is one FIFO: a frame sent after another is received after it,
//! whichever NICs they address. So a thread that sees the completion the
//! engine writes to the compute node sees the pool write posted before it.
//! Real RoCE orders frames only within a QP (see DESIGN.md §6.1).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;
use simnet::sim::{NodeId, Packet};
use simnet::time::Instant;

use crate::mem::{Region, Rkey};
use crate::qp::{QpConfig, QpError, QpNum};
use crate::sim::{NicOutput, SimNic};
use crate::verbs::{Completion, WorkRequest};
use crate::wire::RocePacket;

/// Identifies a NIC on the emulated fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NicId(pub u32);

enum EmuMsg {
    /// A new NIC joins; frames addressed to its id reach it from here on.
    Attach(Arc<NicShared>),
    Packet(Packet),
    Shutdown,
}

/// The protocol NIC and its reused scratch, behind the NIC's one mutex.
/// `NodeId` slots in the NIC hold `NicId` values.
struct NicState {
    nic: SimNic,
    out: NicOutput,
    pkts: Vec<RocePacket>,
}

/// Interior state shared between host threads and the fabric's service
/// thread.
struct NicShared {
    id: NicId,
    state: Mutex<NicState>,
    wire: Sender<EmuMsg>,
}

impl NicShared {
    /// Transmit `roce` to `dst`, its payload buffer becoming the frame.
    /// Called under the NIC lock; sending takes no NIC lock.
    fn send(&self, nic: &SimNic, dst: NodeId, roce: RocePacket) {
        let wire_size = roce.wire_size();
        let frame = roce.into_frame(nic.buf_arena());
        let src = NodeId(self.id.0);
        // A closed wire means the fabric was shut down; drop the frame like
        // a real network would.
        let _ = self
            .wire
            .send(EmuMsg::Packet(Packet::new(src, dst, wire_size, frame)));
    }
}

/// Host-side handle to an emulated NIC. Clone freely across threads.
#[derive(Clone)]
pub struct EmuNic {
    shared: Arc<NicShared>,
}

impl EmuNic {
    /// This NIC's fabric address.
    pub fn id(&self) -> NicId {
        self.shared.id
    }

    /// Register a memory region; the NIC may now DMA into/out of it.
    pub fn register(&self, region: Region) -> Rkey {
        self.with_nic(|nic| nic.register(region))
    }

    /// Post a work request on a QP (host CPU path): a chain of one.
    pub fn post(&self, qpn: QpNum, wr: WorkRequest) -> Result<(), QpError> {
        self.post_chain(qpn, [wr])
    }

    /// Post a chain of work requests on a QP with a single NIC-lock
    /// acquisition — the emulated analogue of a doorbell-batched WR list:
    /// the host pays for entering the NIC once, every WQE in the chain is
    /// built under that one entry, and the packets of the whole chain go
    /// out together.
    pub fn post_chain(
        &self,
        qpn: QpNum,
        wrs: impl IntoIterator<Item = WorkRequest>,
    ) -> Result<(), QpError> {
        let mut state = self.shared.state.lock();
        let NicState { nic, pkts, .. } = &mut *state;
        match nic.post_chain(qpn, wrs, Instant::ZERO, pkts) {
            Ok(dst) => {
                for roce in pkts.drain(..) {
                    self.shared.send(nic, dst, roce);
                }
                Ok(())
            }
            Err(e) => {
                pkts.clear();
                Err(e)
            }
        }
    }

    /// Poll the completion queue (host CPU path), appending into a
    /// caller-owned scratch vector. Returns the number of completions
    /// appended.
    pub fn poll_into(&self, max: usize, out: &mut Vec<Completion>) -> usize {
        self.with_nic(|nic| nic.poll_into(max, out))
    }

    /// Attach a telemetry recorder to the underlying NIC (flight recorder).
    pub fn set_recorder(&self, rec: telemetry::Recorder) {
        self.with_nic(|nic| nic.set_recorder(rec));
    }

    /// Attach a wall-clock cycle profiler to the underlying NIC: the host
    /// verb paths ([`Self::post_chain`], [`Self::poll_into`]) then charge
    /// their CPU time to the NIC's attribution account.
    pub fn set_profiler(&self, prof: telemetry::Profiler) {
        self.with_nic(|nic| nic.set_profiler(prof));
    }

    /// Revoke a registered rkey (pool-side fencing): subsequent verbs naming
    /// it are NAK'd, so a fenced engine's pool access fails closed. Returns
    /// whether the rkey was registered.
    pub fn revoke_rkey(&self, rkey: Rkey) -> bool {
        self.with_nic(|nic| nic.revoke_rkey(rkey))
    }

    /// Direct access to the underlying protocol NIC (setup & inspection).
    pub fn with_nic<R>(&self, f: impl FnOnce(&mut SimNic) -> R) -> R {
        f(&mut self.shared.state.lock().nic)
    }
}

/// The emulated fabric: creates NICs and connects QPs between them.
pub struct EmuFabric {
    wire: Sender<EmuMsg>,
    service: Option<JoinHandle<()>>,
    next_nic: u32,
    next_qpn: AtomicU32,
}

impl Default for EmuFabric {
    fn default() -> Self {
        Self::new()
    }
}

impl EmuFabric {
    /// An empty fabric with its service thread running.
    pub fn new() -> EmuFabric {
        let (wire, rx) = channel();
        let service = std::thread::Builder::new()
            .name("emu-fabric".into())
            .spawn(move || fabric_service(&rx))
            .expect("spawn fabric thread");
        EmuFabric {
            wire,
            service: Some(service),
            next_nic: 0,
            next_qpn: AtomicU32::new(100),
        }
    }

    /// Create a NIC and attach it to the wire.
    pub fn add_nic(&mut self) -> EmuNic {
        let id = NicId(self.next_nic);
        self.next_nic += 1;
        let shared = Arc::new(NicShared {
            id,
            state: Mutex::new(NicState {
                nic: SimNic::new(),
                out: NicOutput::default(),
                pkts: Vec::new(),
            }),
            wire: self.wire.clone(),
        });
        self.wire
            .send(EmuMsg::Attach(Arc::clone(&shared)))
            .expect("fabric thread is running");
        EmuNic { shared }
    }

    /// Connect two NICs with a fresh QP pair; returns (qpn on a, qpn on b).
    pub fn connect(&self, a: &EmuNic, b: &EmuNic) -> (QpNum, QpNum) {
        let qa = self.next_qpn.fetch_add(1, Ordering::Relaxed);
        let qb = self.next_qpn.fetch_add(1, Ordering::Relaxed);
        a.with_nic(|nic| {
            nic.create_qp(QpConfig::new(qa, qb), NodeId(b.id().0));
        });
        b.with_nic(|nic| {
            nic.create_qp(QpConfig::new(qb, qa), NodeId(a.id().0));
        });
        (qa, qb)
    }
}

impl Drop for EmuFabric {
    fn drop(&mut self) {
        let _ = self.wire.send(EmuMsg::Shutdown);
        if let Some(service) = self.service.take() {
            let _ = service.join();
        }
    }
}

/// The fabric's packet engine loop: block for the next frame, receive it
/// through the addressed NIC's shared receive path and transmit what comes
/// back. NIC ids index `nics`, as they are attached in id order. Two-sided
/// receive payloads are dropped, as [`SimNic::deliver`] drops them.
fn fabric_service(rx: &Receiver<EmuMsg>) {
    let mut nics: Vec<Arc<NicShared>> = Vec::new();
    while let Ok(msg) = rx.recv() {
        let pkt = match msg {
            EmuMsg::Attach(nic) => {
                nics.push(nic);
                continue;
            }
            EmuMsg::Packet(pkt) => pkt,
            EmuMsg::Shutdown => return,
        };
        // A frame for no attached NIC is dropped like a real network would.
        let Some(shared) = nics.get(pkt.dst.0 as usize) else {
            continue;
        };
        let mut state = shared.state.lock();
        let NicState { nic, out, .. } = &mut *state;
        nic.receive(pkt, Instant::ZERO, out);
        for (dst, roce) in out.emit.drain(..) {
            shared.send(nic, dst, roce);
        }
        out.receives.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verbs::{WrKind, WrOp};

    /// Spin until `n` completions have been collected, yielding like a
    /// real poller would.
    fn poll_blocking(nic: &EmuNic, n: usize) -> Vec<Completion> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            if nic.poll_into(n - out.len(), &mut out) == 0 {
                std::thread::yield_now();
            }
        }
        out
    }

    #[test]
    fn one_sided_read_between_threads() {
        let mut fabric = EmuFabric::new();
        let client = fabric.add_nic();
        let server = fabric.add_nic();
        let (cq, _sq) = fabric.connect(&client, &server);

        let local = Region::new(1024);
        let remote = Region::new(1024);
        remote.write(40, b"emulated rdma").unwrap();
        let lkey = client.register(local.clone());
        let rkey = server.register(remote);

        client
            .post(
                cq,
                WorkRequest {
                    wr_id: 42,
                    op: WrOp::Read {
                        local_rkey: lkey,
                        local_addr: 0,
                        remote_addr: 40,
                        remote_rkey: rkey,
                        len: 13,
                    },
                },
            )
            .unwrap();
        let done = poll_blocking(&client, 1);
        assert_eq!(done[0].wr_id, 42);
        assert!(done[0].is_ok());
        assert_eq!(local.read_vec(0, 13).unwrap(), b"emulated rdma");
    }

    #[test]
    fn garbage_frame_is_dropped_by_the_shared_receive_path() {
        let mut fabric = EmuFabric::new();
        let client = fabric.add_nic();
        let server = fabric.add_nic();
        let (cq, _sq) = fabric.connect(&client, &server);
        let remote = Region::new(64);
        remote.write(0, b"intact").unwrap();
        let rkey = server.register(remote);

        let to_server = NodeId(server.id().0);
        let garbage = Packet::new(NodeId(client.id().0), to_server, 64, vec![0xFF; 5]);
        fabric.wire.send(EmuMsg::Packet(garbage)).unwrap();
        let read = WrOp::ReadOwned {
            remote_addr: 0,
            remote_rkey: rkey,
            len: 6,
        };
        client.post(cq, WorkRequest { wr_id: 7, op: read }).unwrap();
        let done = poll_blocking(&client, 1);
        assert!(done[0].is_ok());
        assert_eq!(done[0].data, b"intact"[..]);
        // The wire is FIFO: the garbage frame was received first.
        let stats = server.with_nic(|nic| nic.stats);
        assert_eq!(stats.rx_dropped_corrupt, 1);
        assert_eq!(stats.rx_packets, 2, "the garbage frame, then the read");
    }

    #[test]
    fn one_sided_write_lands_without_server_cpu() {
        let mut fabric = EmuFabric::new();
        let client = fabric.add_nic();
        let server = fabric.add_nic();
        let (cq, _sq) = fabric.connect(&client, &server);

        let local = Region::new(8192);
        let remote = Region::new(8192);
        let data: Vec<u8> = (0..3000u32).map(|i| (i * 7) as u8).collect();
        local.write(0, &data).unwrap();
        let lkey = client.register(local);
        let rkey = server.register(remote.clone());

        client
            .post(
                cq,
                WorkRequest {
                    wr_id: 1,
                    op: WrOp::Write {
                        local_rkey: lkey,
                        local_addr: 0,
                        remote_addr: 100,
                        remote_rkey: rkey,
                        len: 3000,
                    },
                },
            )
            .unwrap();
        let done = poll_blocking(&client, 1);
        assert_eq!(done[0].kind, WrKind::Write);
        // The server's host threads did nothing; the fabric's service
        // thread wrote the bytes.
        assert_eq!(remote.read_vec(100, 3000).unwrap(), data);
    }

    #[test]
    fn a_later_frame_to_another_nic_lands_after_an_earlier_one() {
        // The engine's shape: a pool write, then a completion on another
        // QP. Whoever sees the completion must see the pool write.
        let mut fabric = EmuFabric::new();
        let [engine, pool, compute] = [(); 3].map(|_| fabric.add_nic());
        let (to_pool, _) = fabric.connect(&engine, &pool);
        let (to_compute, _) = fabric.connect(&engine, &compute);
        let (pool_mem, done_mem) = (Region::new(64), Region::new(64));
        let rkeys = [
            pool.register(pool_mem.clone()),
            compute.register(done_mem.clone()),
        ];
        let mut acks = Vec::new();
        for round in 1..=200u64 {
            let word = round.to_le_bytes();
            for (qpn, remote_rkey) in [to_pool, to_compute].into_iter().zip(rkeys) {
                let segments = vec![word.to_vec().into()];
                let op = WrOp::WriteSg {
                    remote_addr: 0,
                    remote_rkey,
                    segments,
                };
                engine.post(qpn, WorkRequest { wr_id: round, op }).unwrap();
            }
            while done_mem.read_vec(0, 8).unwrap() != word {
                std::hint::spin_loop();
            }
            assert_eq!(pool_mem.read_vec(0, 8).unwrap(), word, "round {round}");
            while acks.len() < 2 * round as usize {
                engine.poll_into(2, &mut acks);
            }
        }
    }

    #[test]
    fn fabric_shutdown_with_inflight_ops_does_not_hang() {
        let mut fabric = EmuFabric::new();
        let client = fabric.add_nic();
        let server = fabric.add_nic();
        let (cq, _sq) = fabric.connect(&client, &server);
        let local = Region::new(4096);
        let remote = Region::new(4096);
        let lkey = client.register(local);
        let rkey = server.register(remote);
        for i in 0..64u64 {
            client
                .post(
                    cq,
                    WorkRequest {
                        wr_id: i,
                        op: WrOp::Read {
                            local_rkey: lkey,
                            local_addr: 0,
                            remote_addr: 0,
                            remote_rkey: rkey,
                            len: 64,
                        },
                    },
                )
                .unwrap();
        }
        // Drop the fabric immediately: the service thread must terminate even
        // though completions may still be in flight.
        drop(fabric);
    }

    #[test]
    fn chained_post_completes_in_chain_order() {
        let mut fabric = EmuFabric::new();
        let client = fabric.add_nic();
        let server = fabric.add_nic();
        let (cq, _sq) = fabric.connect(&client, &server);
        let remote = Region::new(4096);
        for i in 0..8u64 {
            remote.write(i * 8, &(i * 3).to_le_bytes()).unwrap();
        }
        let rkey = server.register(remote.clone());

        // One chain: a gather write followed by owned reads, one doorbell.
        let mut wrs = vec![WorkRequest {
            wr_id: 100,
            op: WrOp::WriteSg {
                remote_addr: 1024,
                remote_rkey: rkey,
                segments: vec![vec![5u8; 8].into(), vec![6u8; 8].into()],
            },
        }];
        for i in 0..8u64 {
            wrs.push(WorkRequest {
                wr_id: i,
                op: WrOp::ReadOwned {
                    remote_addr: i * 8,
                    remote_rkey: rkey,
                    len: 8,
                },
            });
        }
        client.post_chain(cq, wrs).unwrap();
        let done = poll_blocking(&client, 9);
        // Chain order is completion order.
        assert_eq!(done[0].wr_id, 100);
        for (k, c) in done[1..].iter().enumerate() {
            assert_eq!(c.wr_id, k as u64);
            assert!(c.is_ok());
            assert_eq!(c.data, (k as u64 * 3).to_le_bytes()[..]);
        }
        assert_eq!(remote.read_vec(1024, 8).unwrap(), vec![5u8; 8]);
        assert_eq!(remote.read_vec(1032, 8).unwrap(), vec![6u8; 8]);
    }

    #[test]
    fn many_concurrent_ops_complete() {
        let mut fabric = EmuFabric::new();
        let client = fabric.add_nic();
        let server = fabric.add_nic();
        let (cq, _sq) = fabric.connect(&client, &server);
        let local = Region::new(1 << 16);
        let remote = Region::new(1 << 16);
        for i in 0..256u64 {
            remote.write(i * 8, &i.to_le_bytes()).unwrap();
        }
        let lkey = client.register(local.clone());
        let rkey = server.register(remote);
        for i in 0..256u64 {
            client
                .post(
                    cq,
                    WorkRequest {
                        wr_id: i,
                        op: WrOp::Read {
                            local_rkey: lkey,
                            local_addr: i * 8,
                            remote_addr: i * 8,
                            remote_rkey: rkey,
                            len: 8,
                        },
                    },
                )
                .unwrap();
        }
        let done = poll_blocking(&client, 256);
        assert_eq!(done.len(), 256);
        for i in 0..256u64 {
            let mut buf = [0u8; 8];
            local.read(i * 8, &mut buf).unwrap();
            assert_eq!(u64::from_le_bytes(buf), i);
        }
    }
}
