//! The contract in one place: metric names, units, directions and bounds,
//! the text of `BENCHMARK.json` generated from them, and the result a run
//! prints.

use crate::workload::Workload;

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// How long one driver run measures, seconds.
pub const RUN_SECONDS: u32 = 10;

/// The end-to-end metrics: what `--trace 0` prints and the driver gates.
#[rustfmt::skip]
pub const END_TO_END: &[Metric] = &[
    gated("host_ns_per_op", "ns", 0.10),
    gated("setup_s", "s", 0.25),
    gated("peak_rss_mb", "MiB", 0.10),
];

/// The per-layer metrics: what `--trace 1` prints. Layer prefixes are the
/// workspace's crate names; `model` is the simulated deployment (virtual
/// time), `trace` the tracing itself.
#[rustfmt::skip]
pub const PER_LAYER: &[Metric] = &[
    lower("cowbird.issue_ns_per_op", "ns"),
    lower("cowbird.reap_ns_per_op", "ns"),
    lower("cowbird.polls_per_op", "1/op"),
    lower("cowbird.issue_retries_per_kop", "1/kop"),
    higher("cowbird.completion_run_len", "ops"),
    lower("cowbird.allocs_per_op", "1/op"),
    lower("cowbird.async_read_ns", "ns"),
    lower("cowbird.async_write_ns", "ns"),
    lower("cowbird.refresh_ns", "ns"),
    lower("cowbird-engine.node_ns_per_op", "ns"),
    lower("cowbird-engine.core_ns_per_op", "ns"),
    lower("cowbird-engine.allocs_per_op", "1/op"),
    lower("cowbird-engine.probes_per_op", "1/op"),
    higher("cowbird-engine.probe_hit_ratio", "ratio"),
    higher("cowbird-engine.ops_per_batch", "ops"),
    lower("cowbird-engine.wrs_per_op", "1/op"),
    higher("cowbird-engine.sge_per_wr", "ratio"),
    lower("cowbird-engine.red_updates_per_op", "1/op"),
    lower("cowbird-engine.gate_holds_per_kop", "1/kop"),
    lower("cowbird-engine.chase_hops_per_chase", "ratio"),
    lower("rdma.pool_node_ns_per_op", "ns"),
    lower("rdma.compute_nic_ns_per_op", "ns"),
    lower("rdma.pool_allocs_per_op", "1/op"),
    lower("rdma.packets_per_op", "1/op"),
    lower("rdma.wire_bytes_per_op", "B"),
    higher("rdma.goodput_frac", "frac"),
    lower("rdma.retransmit_rounds_per_kop", "1/kop"),
    lower("rdma.naks_per_kop", "1/kop"),
    lower("rdma.ooo_drops_per_kop", "1/kop"),
    lower("rdma.wire_encode_ns", "ns"),
    lower("rdma.wire_parse_ns", "ns"),
    lower("rdma.qp_ns_per_pkt", "ns"),
    lower("rdma.region_copy_ns_per_kib", "ns"),
    lower("simnet.kernel_ns_per_op", "ns"),
    lower("simnet.kernel_ns_per_event", "ns"),
    lower("simnet.events_per_op", "1/op"),
    lower("simnet.allocs_per_event", "ratio"),
    lower("simnet.dropped_fault_per_kop", "1/kop"),
    lower("telemetry.obs_overhead_frac", "frac"),
    lower("telemetry.events_recorded_per_op", "1/op"),
    lower("kvstore.self_ns_per_op", "ns"),
    lower("kvstore.device_ns_per_op", "ns"),
    lower("kvstore.allocs_per_op", "1/op"),
    higher("kvstore.local_hit_ratio", "ratio"),
    lower("kvstore.round_trips_per_cold_get", "ratio"),
    lower("kvstore.chase_fallback_ratio", "ratio"),
    lower("kvstore.flushed_bytes_per_user_byte", "ratio"),
    lower("kvstore.evictions_per_kop", "1/kop"),
    lower("kvstore.index_lookup_ns", "ns"),
    lower("kvstore.read_hot_ns", "ns"),
    lower("kvstore.upsert_ns", "ns"),
    lower("workloads.script_gen_ns_per_op", "ns"),
    lower("trace.overhead_frac", "frac"),
    higher("trace.layer_sum_frac", "frac"),
    lower("model.virt_lat_p50_ns", "virt_ns"),
    lower("model.virt_lat_p99_ns", "virt_ns"),
    higher("model.virt_ops_per_s", "ops/virt_s"),
];

/// The text of `BENCHMARK.json`. The file is generated from the tables here
/// and the workload table (`bench --print-contract`), and `--quick` fails
/// when the two differ — so a metric or workload cannot be printed without
/// being in the contract, or the other way round.
pub fn contract_json(workloads: &[Workload]) -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let metric = |m: &Metric| {
        let better = match m.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
            m.name, m.unit
        )
    };
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(
            workloads
                .iter()
                .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect()
        ),
        list(END_TO_END.iter().map(metric).collect()),
        list(PER_LAYER.iter().map(metric).collect()),
    )
}

/// What one run of one workload found.
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; units come from the tables above.
    pub metrics: Vec<(&'static str, f64)>,
    /// Context printed beside the metrics (rep counts, quartiles, …).
    pub notes: Vec<String>,
}

impl RunResult {
    fn table(&self) -> &'static [Metric] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Every metric of the run's table, in table order, missing ones as 0:
    /// a layer that does no work on this workload reports that it did none.
    fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        for (name, _) in &self.metrics {
            assert!(
                self.table().iter().any(|m| m.name == *name),
                "metric {name} is not in the {} table",
                if self.traced {
                    "per-layer"
                } else {
                    "end-to-end"
                }
            );
        }
        self.table()
            .iter()
            .map(|m| {
                let v = self
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |&(_, v)| v);
                (m.name, if v.is_finite() { v } else { 0.0 }, m.unit)
            })
            .collect()
    }

    /// Human-readable lines, one metric per line.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "# {} ({}): attempted {} ops, failed {}\n",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed
        );
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        for (name, v, unit) in self.rows() {
            out.push_str(&format!("{name:<40} {v:>16.4} {unit}\n"));
        }
        out
    }

    /// The one-line result object the driver reads.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .rows()
            .iter()
            .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_table_metric() {
        let r = RunResult {
            workload: "w",
            traced: false,
            attempted: 10,
            failed: 0,
            // Non-finite and missing values print as 0, never as invalid JSON.
            metrics: vec![("host_ns_per_op", 12.5), ("setup_s", f64::NAN)],
            notes: vec![],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"host_ns_per_op\": {\"value\": 12.5, \"unit\": \"ns\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 0, \"unit\": \"MiB\"}}}"
        );
        let failed = RunResult { failed: 3, ..r };
        assert!(failed.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "not in the end-to-end table")]
    fn a_metric_outside_the_table_cannot_be_printed() {
        RunResult {
            workload: "w",
            traced: false,
            attempted: 1,
            failed: 0,
            metrics: vec![("trace.overhead_frac", 0.1)],
            notes: vec![],
        }
        .to_json();
    }

    #[test]
    fn generated_contract_is_valid_and_inside_the_limits() {
        let text = contract_json(WORKLOADS);
        telemetry::json::validate(&text).unwrap();
        assert!(text.len() < 64 << 10);
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));

        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{}", m.unit);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for m in END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        // The one metric the driver insists on, spelled its way.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for w in WORKLOADS {
            assert!(ok_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']),
                "{}",
                w.name
            );
        }
    }
}
