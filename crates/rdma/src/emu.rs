//! An RNIC emulated with real OS threads — the runnable substrate.
//!
//! Each [`EmuNic`] spawns a service thread that plays the role of the NIC's
//! packet-processing engine: it receives encoded RoCE packets from other
//! NICs over channels, executes one-sided operations directly against the
//! registered [`Region`]s, and transmits responses — all **without any
//! involvement from the host threads**. That asymmetry is the point: a
//! Cowbird compute node's application threads only ever touch local memory,
//! while its NIC services the offload engine's reads and writes of the
//! request/response rings in the background, concurrently, just like real
//! RDMA hardware would.
//!
//! The channel "wire" is lossless and ordered, so Go-Back-N rarely fires
//! here (the service thread still ticks its QPs for completeness); loss and
//! reordering are exercised in the simulator instead.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration as StdDuration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use simnet::time::Instant;

use crate::mem::{Region, Rkey};
use crate::qp::{Qp, QpConfig, QpError, QpNum};
use crate::sim::SimNic;
use crate::verbs::{Completion, WorkRequest};
use crate::wire::RocePacket;

/// Identifies a NIC on the emulated fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NicId(pub u32);

enum EmuMsg {
    Packet(Vec<u8>),
    Shutdown,
}

#[derive(Default)]
struct Router {
    mailboxes: RwLock<HashMap<NicId, Sender<EmuMsg>>>,
}

impl Router {
    fn deliver(&self, dst: NicId, bytes: Vec<u8>) {
        if let Some(tx) = self.mailboxes.read().get(&dst) {
            // A closed mailbox means the NIC was shut down; drop the packet
            // like a real network would.
            let _ = tx.send(EmuMsg::Packet(bytes));
        }
    }
}

/// Interior state shared between host threads and the NIC service thread.
struct NicShared {
    /// The full protocol engine is reused from the simulator flavour; here
    /// `NodeId` slots hold `NicId` values.
    nic: Mutex<SimNic>,
    router: Arc<Router>,
    /// Two-sided receive payloads, per QP.
    receives: Mutex<HashMap<QpNum, Vec<Vec<u8>>>>,
}

impl NicShared {
    fn transmit(&self, emits: Vec<(simnet::sim::NodeId, RocePacket)>) {
        for (dst, roce) in emits {
            self.router.deliver(NicId(dst.0), roce.encode());
        }
    }
}

/// Host-side handle to an emulated NIC. Clone freely across threads.
#[derive(Clone)]
pub struct EmuNic {
    id: NicId,
    shared: Arc<NicShared>,
}

impl EmuNic {
    /// This NIC's fabric address.
    pub fn id(&self) -> NicId {
        self.id
    }

    /// Register a memory region; the NIC may now DMA into/out of it.
    pub fn register(&self, region: Region) -> Rkey {
        self.shared.nic.lock().register(region)
    }

    /// Post a work request on a QP (host CPU path).
    pub fn post(&self, qpn: QpNum, wr: WorkRequest) -> Result<(), QpError> {
        let emits = self.shared.nic.lock().post(qpn, wr, Instant::ZERO)?;
        self.shared.transmit(emits);
        Ok(())
    }

    /// Post a chain of work requests on a QP with a single NIC-lock
    /// acquisition — the emulated analogue of a doorbell-batched WR list:
    /// the host pays for entering the NIC once, every WQE in the chain is
    /// built under that one entry, and the packets of the whole chain go
    /// out together.
    pub fn post_chain(&self, qpn: QpNum, wrs: Vec<WorkRequest>) -> Result<(), QpError> {
        let emits = self.shared.nic.lock().post_chain(qpn, wrs, Instant::ZERO)?;
        self.shared.transmit(emits);
        Ok(())
    }

    /// Poll the completion queue (host CPU path).
    pub fn poll(&self, max: usize) -> Vec<Completion> {
        self.shared.nic.lock().poll(max)
    }

    /// Like [`EmuNic::poll`], but appends into a caller-owned scratch
    /// vector. Returns the number of completions appended.
    pub fn poll_into(&self, max: usize, out: &mut Vec<Completion>) -> usize {
        self.shared.nic.lock().poll_into(max, out)
    }

    /// Blockingly wait until `n` completions have been collected (test and
    /// example convenience; spins with a yield like a real poller would).
    pub fn poll_blocking(&self, n: usize) -> Vec<Completion> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let got = self.poll(n - out.len());
            if got.is_empty() {
                std::thread::yield_now();
            } else {
                out.extend(got);
            }
        }
        out
    }

    /// Drain two-sided receive payloads for a QP.
    pub fn drain_receives(&self, qpn: QpNum) -> Vec<Vec<u8>> {
        self.shared
            .receives
            .lock()
            .get_mut(&qpn)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Attach a telemetry recorder to the underlying NIC (flight recorder).
    pub fn set_recorder(&self, rec: telemetry::Recorder) {
        self.shared.nic.lock().set_recorder(rec);
    }

    /// Attach a wall-clock cycle profiler to the underlying NIC: the host
    /// verb paths ([`Self::post`], [`Self::poll`]) then charge their CPU
    /// time to the NIC's attribution account.
    pub fn set_profiler(&self, prof: telemetry::Profiler) {
        self.shared.nic.lock().set_profiler(prof);
    }

    /// Revoke a registered rkey (pool-side fencing): subsequent verbs naming
    /// it are NAK'd, so a fenced engine's pool access fails closed. Returns
    /// whether the rkey was registered.
    pub fn revoke_rkey(&self, rkey: Rkey) -> bool {
        self.shared.nic.lock().revoke_rkey(rkey)
    }

    /// Direct access to the underlying protocol NIC (setup & inspection).
    pub fn with_nic<R>(&self, f: impl FnOnce(&mut SimNic) -> R) -> R {
        f(&mut self.shared.nic.lock())
    }
}

/// The emulated fabric: creates NICs and connects QPs between them.
pub struct EmuFabric {
    router: Arc<Router>,
    threads: Vec<(NicId, JoinHandle<()>)>,
    nics: Vec<EmuNic>,
    next_nic: u32,
    next_qpn: Arc<AtomicU32>,
}

impl Default for EmuFabric {
    fn default() -> Self {
        Self::new()
    }
}

impl EmuFabric {
    pub fn new() -> EmuFabric {
        EmuFabric {
            router: Arc::new(Router::default()),
            threads: Vec::new(),
            nics: Vec::new(),
            next_nic: 0,
            next_qpn: Arc::new(AtomicU32::new(100)),
        }
    }

    /// Create a NIC and start its service thread.
    pub fn add_nic(&mut self) -> EmuNic {
        let id = NicId(self.next_nic);
        self.next_nic += 1;
        let (tx, rx) = unbounded();
        self.router.mailboxes.write().insert(id, tx);
        let shared = Arc::new(NicShared {
            nic: Mutex::new(SimNic::new()),
            router: Arc::clone(&self.router),
            receives: Mutex::new(HashMap::new()),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(format!("emu-nic-{}", id.0))
            .spawn(move || nic_service(thread_shared, rx))
            .expect("spawn nic thread");
        self.threads.push((id, handle));
        let nic = EmuNic { id, shared };
        self.nics.push(nic.clone());
        nic
    }

    /// Connect two NICs with a fresh QP pair; returns (qpn on a, qpn on b).
    pub fn connect(&self, a: &EmuNic, b: &EmuNic) -> (QpNum, QpNum) {
        let qa = self.next_qpn.fetch_add(1, Ordering::Relaxed);
        let qb = self.next_qpn.fetch_add(1, Ordering::Relaxed);
        a.with_nic(|nic| {
            nic.create_qp(QpConfig::new(qa, qb), simnet::sim::NodeId(b.id.0));
        });
        b.with_nic(|nic| {
            nic.create_qp(QpConfig::new(qb, qa), simnet::sim::NodeId(a.id.0));
        });
        (qa, qb)
    }
}

impl Drop for EmuFabric {
    fn drop(&mut self) {
        let boxes = self.router.mailboxes.write();
        for (_, tx) in boxes.iter() {
            let _ = tx.send(EmuMsg::Shutdown);
        }
        drop(boxes);
        for (_, handle) in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The NIC's packet engine loop.
fn nic_service(shared: Arc<NicShared>, rx: Receiver<EmuMsg>) {
    loop {
        match rx.recv_timeout(StdDuration::from_millis(10)) {
            Ok(EmuMsg::Packet(bytes)) => {
                let out = {
                    let mut nic = shared.nic.lock();
                    match RocePacket::parse(&bytes) {
                        Ok(roce) => nic.handle_roce(roce, Instant::ZERO),
                        Err(_) => continue,
                    }
                };
                if !out.receives.is_empty() {
                    let mut rec = shared.receives.lock();
                    for (qpn, payload) in out.receives {
                        // The emu path hands receive payloads across threads;
                        // copy out so the pooled buffer recycles immediately.
                        rec.entry(qpn).or_default().push(payload.to_vec());
                    }
                }
                shared.transmit(out.emit);
            }
            Ok(EmuMsg::Shutdown) => break,
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                // Periodic retransmission sweep (rarely needed: the channel
                // wire is lossless).
                let emits = shared.nic.lock().tick(Instant::ZERO);
                shared.transmit(emits);
            }
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Convenience re-export so emu users need not know about `Qp` internals.
pub type EmuQp = Qp;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verbs::{WrKind, WrOp};

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
        let done = client.poll_blocking(1);
        assert_eq!(done[0].wr_id, 42);
        assert!(done[0].is_ok());
        assert_eq!(local.read_vec(0, 13).unwrap(), b"emulated rdma");
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
        let done = client.poll_blocking(1);
        assert_eq!(done[0].kind, WrKind::Write);
        // The server's host threads did nothing; the NIC thread wrote the
        // bytes.
        assert_eq!(remote.read_vec(100, 3000).unwrap(), data);
    }

    #[test]
    fn two_sided_send_receives_on_peer() {
        let mut fabric = EmuFabric::new();
        let a = fabric.add_nic();
        let b = fabric.add_nic();
        let (qa, qb) = fabric.connect(&a, &b);
        a.post(
            qa,
            WorkRequest {
                wr_id: 5,
                op: WrOp::Send {
                    payload: b"hello rpc".to_vec(),
                },
            },
        )
        .unwrap();
        a.poll_blocking(1);
        // The payload is on b now.
        let mut got = b.drain_receives(qb);
        while got.is_empty() {
            std::thread::yield_now();
            got = b.drain_receives(qb);
        }
        assert_eq!(got, vec![b"hello rpc".to_vec()]);
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
        // Drop the fabric immediately: service threads must terminate even
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
        let done = client.poll_blocking(9);
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
        let done = client.poll_blocking(256);
        assert_eq!(done.len(), 256);
        for i in 0..256u64 {
            let mut buf = [0u8; 8];
            local.read(i * 8, &mut buf).unwrap();
            assert_eq!(u64::from_le_bytes(buf), i);
        }
    }
}
