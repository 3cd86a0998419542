//! End-to-end integration over the real-thread emulated fabric: compute
//! node + Cowbird-Spot agent + memory pool, exercising the full public API
//! across crates.

use cowbird::channel::Channel;
use cowbird::error::IssueError;
use cowbird::layout::ChannelLayout;
use cowbird::poll::PollGroup;
use cowbird::region::{RegionMap, RemoteRegion};
use cowbird_engine::core::EngineConfig;
use cowbird_engine::spot::{SpotAgent, SpotWiring};
use rdma::emu::{EmuFabric, EmuNic};
use rdma::mem::Region;

struct Deployment {
    _fabric: EmuFabric,
    pool_mem: Region,
    agents: Vec<SpotAgent>,
    channels: Vec<Channel>,
    _compute: EmuNic,
}

/// Deploy `n` channels, each with its own engine agent, over one pool.
fn deploy(n: usize, layout: ChannelLayout, batch: usize) -> Deployment {
    let mut fabric = EmuFabric::new();
    let compute = fabric.add_nic();
    let pool = fabric.add_nic();
    let pool_mem = Region::new(8 << 20);
    let pool_rkey = pool.register(pool_mem.clone());
    let mut regions = RegionMap::new();
    regions.insert(
        1,
        RemoteRegion {
            rkey: pool_rkey,
            base: 0,
            size: 8 << 20,
        },
    );
    let mut agents = Vec::new();
    let mut channels = Vec::new();
    for cid in 0..n {
        let channel = Channel::new(cid as u16, layout, regions.clone());
        let channel_rkey = compute.register(channel.region().clone());
        let engine = fabric.add_nic();
        let (eng_c, _) = fabric.connect(&engine, &compute);
        let (eng_p, _) = fabric.connect(&engine, &pool);
        agents.push(SpotAgent::spawn(
            SpotWiring {
                nic: engine,
                compute_qpn: eng_c,
                pool_qpn: eng_p,
                channel_rkey,
            },
            EngineConfig::spot(layout, regions.clone(), batch),
        ));
        channels.push(channel);
    }
    Deployment {
        _fabric: fabric,
        pool_mem,
        agents,
        channels,
        _compute: compute,
    }
}

#[test]
fn write_then_read_roundtrip_through_engine() {
    let mut d = deploy(1, ChannelLayout::default_sizes(), 8);
    let ch = &mut d.channels[0];
    let w = ch.async_write(1, 1000, b"integration").unwrap();
    assert!(ch.wait(w, u64::MAX));
    assert_eq!(d.pool_mem.read_vec(1000, 11).unwrap(), b"integration");
    let h = ch.async_read(1, 1000, 11).unwrap();
    assert!(ch.wait(h.id, u64::MAX));
    assert_eq!(ch.take_response(&h).unwrap(), b"integration");
}

#[test]
fn read_after_write_ordering_without_waiting() {
    // Issue W then R back-to-back with no intermediate wait: per-channel
    // linearizability guarantees the read observes the write.
    let mut d = deploy(1, ChannelLayout::default_sizes(), 8);
    let ch = &mut d.channels[0];
    for round in 0..200u64 {
        let addr = (round % 17) * 64;
        let val = round.to_le_bytes();
        let _w = ch.async_write(1, addr, &val).unwrap();
        let h = ch.async_read(1, addr, 8).unwrap();
        assert!(ch.wait(h.id, u64::MAX), "round {round}");
        assert_eq!(
            ch.take_response(&h).unwrap(),
            val,
            "round {round}: read must observe preceding write"
        );
    }
}

#[test]
fn ring_backpressure_resolves_under_load() {
    // Tiny rings force MetadataRingFull / data-ring-full paths; the
    // retry-after-drain discipline must always make progress.
    let layout = ChannelLayout {
        meta_entries: 8,
        wdata_capacity: 512,
        rdata_capacity: 512,
    };
    let mut d = deploy(1, layout, 4);
    let ch = &mut d.channels[0];
    let mut done = 0u64;
    let mut retries = 0u64;
    let mut outstanding: Vec<cowbird::channel::ReadHandle> = Vec::new();
    while done < 500 {
        match ch.async_read(1, (done % 64) * 64, 48) {
            Ok(h) => outstanding.push(h),
            Err(e) => {
                assert!(e.is_retryable(), "unexpected {e}");
                retries += 1;
                // Drain one completed response to free space.
                ch.refresh();
                let mut i = 0;
                while i < outstanding.len() {
                    if ch.is_complete(outstanding[i].id) {
                        let h = outstanding.swap_remove(i);
                        ch.take_response(&h).unwrap();
                        done += 1;
                    } else {
                        i += 1;
                    }
                }
                std::thread::yield_now();
            }
        }
    }
    assert!(retries > 0, "test must actually hit backpressure");
}

#[test]
fn oversized_request_rejected_cleanly() {
    let layout = ChannelLayout::tiny();
    let mut d = deploy(1, layout, 4);
    let ch = &mut d.channels[0];
    let err = ch.async_read(1, 0, 4096).unwrap_err();
    assert!(matches!(err, IssueError::RequestTooLarge { .. }));
    // The channel still works afterwards.
    let h = ch.async_read(1, 0, 32).unwrap();
    assert!(ch.wait(h.id, u64::MAX));
}

/// One read's lifecycle — issued on the compute node, executed and written
/// back on the engine node, completed on the compute node — reconstructs
/// as a single request-scoped span from the merged flight-recorder dump.
#[test]
fn request_span_reconstructs_across_nodes() {
    use telemetry::{EventKind, Telemetry};

    // The idle agent's probe events share the engine node's ring with the
    // span's events: size it so they cannot push the span out.
    const RING: usize = 1 << 16;
    let hub = Telemetry::new(RING);
    let mut fabric = EmuFabric::new();
    let compute = fabric.add_nic();
    let pool = fabric.add_nic();
    let pool_mem = Region::new(1 << 20);
    let pool_rkey = pool.register(pool_mem.clone());
    let mut regions = RegionMap::new();
    regions.insert(
        1,
        RemoteRegion {
            rkey: pool_rkey,
            base: 0,
            size: 1 << 20,
        },
    );
    let layout = ChannelLayout::default_sizes();
    let mut ch = Channel::new(0, layout, regions.clone());
    ch.set_recorder(hub.recorder(0, "compute"));
    let channel_rkey = compute.register(ch.region().clone());
    let engine = fabric.add_nic();
    let (eng_c, _) = fabric.connect(&engine, &compute);
    let (eng_p, _) = fabric.connect(&engine, &pool);
    let agent = SpotAgent::spawn(
        SpotWiring {
            nic: engine,
            compute_qpn: eng_c,
            pool_qpn: eng_p,
            channel_rkey,
        },
        EngineConfig::spot(layout, regions, 8)
            .with_recorder(hub.recorder(1, "engine"))
            .with_channel_id(0),
    );

    let w = ch.async_write(1, 512, b"span").unwrap();
    assert!(ch.wait(w, u64::MAX));
    let h = ch.async_read(1, 512, 4).unwrap();
    assert!(ch.wait(h.id, u64::MAX));
    assert_eq!(ch.take_response(&h).unwrap(), b"span");
    agent.stop();

    let dump = hub.dump();
    telemetry::json::validate(&dump.to_chrome_json()).expect("chrome trace must be valid JSON");
    assert!(dump.nodes_seen().contains(&0) && dump.nodes_seen().contains(&1));
    let engine_events = dump.events.iter().filter(|e| e.node == 1).count();
    assert!(
        engine_events < RING,
        "the engine node's ring wrapped ({engine_events} events): the span's \
         engine events may have been overwritten"
    );

    // The read's span: both nodes touched it, bracketed by the client-side
    // issue and completion, with the engine's pool verb in between.
    let spans = telemetry::spans(&dump.events);
    let read = spans
        .iter()
        .find(|s| s.req == h.id.raw())
        .expect("the read must reconstruct as a span");
    assert_eq!(read.nodes(), vec![0, 1], "client first, then engine");
    assert_eq!(read.events.first().unwrap().kind, EventKind::ReadIssued);
    assert_eq!(
        read.events.last().unwrap().kind,
        EventKind::RequestCompleted
    );
    assert!(
        read.events
            .iter()
            .any(|e| e.kind == EventKind::ReadExecuted && e.node == 1),
        "the engine's pool read must join the client's span"
    );

    // The write reconstructs too, stamped with the same ReqId the client got.
    assert!(
        spans.iter().any(|s| {
            s.req == w.raw()
                && s.events
                    .iter()
                    .any(|e| e.kind == EventKind::WriteExecuted && e.node == 1)
        }),
        "the write's engine-side execution must join its span"
    );
}

#[test]
fn concurrent_channels_from_many_threads() {
    let n = 4;
    let d = deploy(n, ChannelLayout::default_sizes(), 16);
    let pool = d.pool_mem.clone();
    let handles: Vec<_> = d
        .channels
        .into_iter()
        .enumerate()
        .map(|(t, mut ch)| {
            std::thread::spawn(move || {
                // Each thread owns a disjoint 64 KiB arena.
                let base = (t as u64) * 65536;
                let mut group = PollGroup::new();
                let mut handles = Vec::new();
                for i in 0..256u64 {
                    let w = ch
                        .async_write(1, base + (i % 128) * 64, &(i + t as u64).to_le_bytes())
                        .unwrap();
                    assert!(ch.wait(w, u64::MAX));
                    let h = ch.async_read(1, base + (i % 128) * 64, 8).unwrap();
                    group.add(h.id);
                    handles.push((i, h));
                    if handles.len() >= 16 {
                        let mut got = 0;
                        while got < handles.len() {
                            got += group
                                .poll_wait_timeout(&mut ch, 16, u64::MAX)
                                .expect("engine alive")
                                .len();
                        }
                        for (i, h) in handles.drain(..) {
                            let v = ch.take_response(&h).unwrap();
                            assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), i + t as u64);
                        }
                    }
                }
                ch.stats
            })
        })
        .collect();
    for h in handles {
        let stats = h.join().unwrap();
        assert_eq!(stats.writes_issued, 256);
    }
    // Pool holds the final values of each thread's arena.
    for t in 0..n as u64 {
        let v = pool.read_vec(t * 65536 + 127 * 64, 8).unwrap();
        assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), 255 + t);
    }
    for a in d.agents {
        let s = a.stop();
        assert_eq!(s.writes_executed, 256);
        assert_eq!(s.reads_executed, 256);
    }
}
