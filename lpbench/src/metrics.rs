//! The benchmark's contract: workload and metric names, units, directions
//! and regression bounds. `BENCHMARK.json` is generated from these tables
//! (`lpbench --print-benchmark-json`) and a test keeps the two equal, so a
//! name exists in exactly one place.

use crate::json::Json;
use crate::trace::Span;

/// The command of `BENCHMARK.json`; the driver appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--offline",
    "--release",
    "--quiet",
    "--manifest-path",
    "lpbench/Cargo.toml",
    "--",
];
pub const PATHS: &[&str] = &["lpbench"];
pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "sim_loaded_1k",
        "Engine<Lpbcast> n=1000 at 40 events/round (Fig. 6 shape): the event/digest path of handle_message dominates",
    ),
    (
        "sim_membership_10k",
        "Engine<Lpbcast> n=10000, one probe per 5 rounds: membership gossip and a 10x working set dominate, event path idle",
    ),
    (
        "sim_churn_swim_2k",
        "Engine<Swim<Lpbcast>> n=2000 with joins, leaves and a 10% crash every run: view/subs/unSubs writes, SWIM and slab add/remove beside dissemination",
    ),
    (
        "net_loopback_512",
        "2 Cluster<Lpbcast> x 256 over loopback UDP, open loop 200 events/s: the only path through wire codec, envelope, batching, sockets, timer wheel",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: `(name, unit, better, bound)`. One bound per
/// metric serves all four workloads, so each is the widest any workload
/// needs: three times the quartile spread seen over ten seeds on the
/// reference box (README, "Steadiness"), which is far looser than the
/// 2-10 % the issue hoped for on the time-based ones.
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("setup_s", "s", Lower, 0.25),
    ("deliveries_per_s", "1/s", Higher, 0.25),
    ("node_rounds_per_s", "1/s", Higher, 0.25),
    ("delivery_latency_rounds_p50", "rounds", Lower, 0.13),
    ("delivery_latency_rounds_p99", "rounds", Lower, 0.15),
    ("delivered_share", "ratio", Higher, 0.002),
    ("cpu_us_per_delivery", "us", Lower, 0.25),
    ("wire_bytes_per_delivery", "B", Lower, 0.05),
    ("peak_rss_mb", "MB", Lower, 0.10),
];

/// Span classes; each yields `<name>.calls`, `.busy_ns`, `.ns_per_call`.
pub const SPANS: &[&str] = &[
    "core.tick",
    "core.handle.gossip",
    "core.handle.pull",
    "core.handle.subscribe",
    "core.broadcast",
    "membership.swim.handle",
    "membership.swim.evict",
    "sim.engine.step",
    "sim.engine.publish",
    "sim.engine.add_node",
    "sim.engine.remove_node",
    "sim.engine.crash",
    "sim.engine.meter",
    "net.wire.encode",
    "net.wire.decode",
    "net.wire.encoded_len",
    "net.cluster.step",
    "net.cluster.broadcast",
    "net.cluster.take_deliveries",
];

/// Counters and derived per-layer values: `(name, unit, better)`.
pub const COUNTERS: &[(&str, &str, Better)] = &[
    ("core.duplicate_ratio", "ratio", Lower),
    ("core.ids_learned", "count", Lower),
    ("core.ids_purged", "count", Lower),
    ("core.events_truncated", "count", Lower),
    ("core.retransmit_requests_sent", "count", Lower),
    ("core.retransmits_served", "count", Lower),
    ("core.retransmit_misses", "count", Lower),
    ("core.subs_added", "count", Lower),
    ("core.unsubs_applied", "count", Lower),
    ("core.join_requests_sent", "count", Lower),
    ("membership.swim.self_ns", "ns", Lower),
    ("membership.swim.pings_sent", "count", Lower),
    ("membership.swim.suspicions", "count", Lower),
    ("membership.swim.confirms", "count", Lower),
    ("membership.swim.refutations", "count", Lower),
    ("membership.swim.false_confirms", "count", Lower),
    ("sim.engine.self_ns", "ns", Lower),
    ("sim.engine.self_ns_per_node_round", "ns", Lower),
    ("sim.engine.build_ns", "ns", Lower),
    ("sim.engine.wire_messages", "count", Lower),
    ("sim.engine.wire_bytes", "B", Lower),
    ("sim.network.delivered", "count", Higher),
    ("sim.network.dropped", "count", Lower),
    ("net.wire.encode.bytes", "B", Lower),
    ("net.wire.decode.bytes", "B", Lower),
    ("net.wire.encodes_per_remote_msg", "ratio", Lower),
    ("net.cluster.self_cpu_ns", "ns", Lower),
    ("net.cluster.datagrams_tx", "count", Lower),
    ("net.cluster.datagrams_rx", "count", Lower),
    ("net.cluster.wire_tx_bytes", "B", Lower),
    ("net.cluster.wire_rx_bytes", "B", Lower),
    ("net.cluster.datagram_loss_share", "ratio", Lower),
    ("net.cluster.local_messages", "count", Higher),
    ("net.cluster.ticks", "count", Higher),
    ("net.cluster.frames_per_datagram", "ratio", Higher),
    ("net.cluster.datagrams_per_delivery", "ratio", Lower),
    ("net.cluster.tick_shortfall", "ratio", Lower),
    ("net.cluster.deliveries_per_step", "ratio", Higher),
    ("bench.gen.lateness_ms_p99", "ms", Lower),
    ("bench.gen.lateness_ms_max", "ms", Lower),
    ("bench.trace.overhead_ratio", "ratio", Lower),
    ("bench.trace.window_coverage", "ratio", Higher),
    ("bench.calib.speed_factor", "ratio", Lower),
    ("bench.latency.samples", "count", Higher),
    ("bench.oracle.delivery_failed_share", "ratio", Lower),
    ("bench.oracle.excess_deliveries", "count", Lower),
    ("bench.churn.joins", "count", Higher),
    ("bench.churn.leaves", "count", Higher),
    ("bench.churn.leaves_refused", "count", Lower),
    ("bench.churn.crashed", "count", Higher),
];

const SPAN_FIELDS: [(&str, &str); 3] =
    [("calls", "count"), ("busy_ns", "ns"), ("ns_per_call", "ns")];

/// Every per-layer metric as `(name, unit, better)`, in file order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let spans = SPANS.iter().flat_map(|span| {
        SPAN_FIELDS
            .iter()
            .map(move |(field, unit)| (format!("{span}.{field}"), *unit, Lower))
    });
    let counters = COUNTERS
        .iter()
        .map(|&(name, unit, better)| (name.to_string(), unit, better));
    spans.chain(counters).collect()
}

/// The per-layer metrics of one traced run. Starts with every name at
/// zero so that each workload reports the whole list; setting a name the
/// contract does not have is a bug in the benchmark and panics.
#[derive(Debug)]
pub struct LayerSheet {
    values: Vec<(String, &'static str, f64)>,
}

impl LayerSheet {
    pub fn new() -> Self {
        LayerSheet {
            values: per_layer()
                .into_iter()
                .map(|(name, unit, _)| (name, unit, 0.0))
                .collect(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not in the contract"));
        slot.2 = value;
    }

    pub fn span(&mut self, name: &str, span: &Span) {
        self.set(&format!("{name}.calls"), span.calls as f64);
        self.set(&format!("{name}.busy_ns"), span.busy_ns() as f64);
        self.set(&format!("{name}.ns_per_call"), span.ns_per_call());
    }

    pub fn into_metrics(self) -> Vec<(String, &'static str, f64)> {
        self.values
    }
}

/// The `metrics` object of a result line.
pub fn metrics_json(metrics: &[(String, &'static str, f64)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, unit, value)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str((*unit).into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn benchmark_json() -> String {
    let text = |s: &str| Json::Str(s.into());
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| text(s)).collect());
    // One object per line inside each list, so the file diffs by metric.
    let list = |rows: Vec<Json>| -> String {
        let lines: Vec<String> = rows.iter().map(|row| format!("    {row}")).collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| Json::obj(vec![("name", text(name)), ("why", text(why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|&(name, unit, better, bound)| {
            Json::obj(vec![
                ("name", text(name)),
                ("unit", text(unit)),
                ("better", text(better.as_str())),
                ("bound", Json::Num(bound)),
            ])
        })
        .collect();
    let layers = per_layer()
        .iter()
        .map(|(name, unit, better)| {
            Json::obj(vec![
                ("name", text(name)),
                ("unit", text(unit)),
                ("better", text(better.as_str())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(COMMAND),
        strings(PATHS),
        list(workloads),
        list(end_to_end),
        list(layers),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn contract_limits_hold() {
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        let mut names: Vec<String> = layers.iter().map(|(n, _, _)| n.clone()).collect();
        names.extend(END_TO_END.iter().map(|(n, ..)| n.to_string()));
        names.extend(WORKLOADS.iter().map(|(n, _)| n.to_string()));
        for name in &names {
            assert!(well_formed(name), "{name}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for &(_, _, _, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|&(n, u, b, _)| n == "setup_s" && u == "s" && b == Lower));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --print-benchmark-json"
        );
        let parsed = Json::parse(&committed).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "not in the contract")]
    fn sheet_rejects_unknown_names() {
        LayerSheet::new().set("core.tock.calls", 1.0);
    }
}
