//! The workload table. Adding a workload is adding a row (and, if it needs
//! a new op mix, a `ScriptKind`); no existing row changes.

use crate::kv::KvSpec;
use crate::script::ScriptKind;
use crate::simrig::{Engine, SimSpec};

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Sim(SimSpec),
    Kv(KvSpec),
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload is in the set.
    pub why: &'static str,
    /// Fixed work of one rep. A run makes as many reps as fit its
    /// `--seconds`; every rep of a run executes the identical op script.
    /// Sized so a rep's timed region takes 0.2–0.9 s on the 2-core reference
    /// host and a 10 s run takes the median of a dozen reps or more.
    pub ops_per_rep: usize,
    pub kind: Kind,
}

/// A lossless sim workload on the Spot engine (batch 16), plane off.
const fn spot(window: usize, script: ScriptKind) -> SimSpec {
    SimSpec {
        engine: Engine::Spot { batch: 16 },
        window,
        script,
        drop_probability: 0.0,
        obs: false,
    }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sim_read64",
        why: "smallest message (64 B reads, window 32, Spot engine): per-op and per-packet cost \
              in cowbird, cowbird-engine, rdma and the simnet kernel is everything, payload \
              bytes nothing",
        ops_per_rep: 400_000,
        kind: Kind::Sim(spot(32, ScriptKind::Read64)),
    },
    Workload {
        name: "sim_read64_obs",
        why: "the same script with the observability plane on: prices the enabled plane end to \
              end and shows a hot-path gain bought by making the enabled path dearer",
        ops_per_rep: 250_000,
        kind: Kind::Sim(SimSpec {
            obs: true,
            ..spot(32, ScriptKind::Read64)
        }),
    },
    Workload {
        name: "sim_mixed4k",
        why: "4 KiB ops, half writes, hot 64 KiB range: per-byte cost (MTU segmentation, ring \
              copies, Region memcpy), the write path and the conflict gate; a per-op win paid \
              for with a copy loses here",
        ops_per_rep: 50_000,
        kind: Kind::Sim(spot(16, ScriptKind::Mixed4k)),
    },
    Workload {
        name: "sim_chase_loss",
        why: "P4 engine, write-slot/ReadIndirect/read/read, 0.1% loss on every link: everything \
              that leaves the fast path - dependent ops, gate parking, Go-Back-N",
        ops_per_rep: 100_000,
        kind: Kind::Sim(SimSpec {
            engine: Engine::P4,
            drop_probability: 0.001,
            ..spot(32, ScriptKind::Chase)
        }),
    },
    Workload {
        name: "kv_get_cold",
        why: "FasterKv over a flat device, Zipf GETs, 90% cold: kvstore does all the work and \
              engine/rdma/simnet none - the bypass workload for every engine-side change",
        ops_per_rep: 1_500_000,
        kind: Kind::Kv(KvSpec {
            upsert_fraction: 0.0,
        }),
    },
    Workload {
        name: "kv_update_heavy",
        why: "same store, 50/50 upsert/GET: log append, eviction and flush beside reads, so a \
              GET-path gain that taxes the write path shows",
        ops_per_rep: 1_000_000,
        kind: Kind::Kv(KvSpec {
            upsert_fraction: 0.5,
        }),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
