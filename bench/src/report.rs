//! The metric registry (`BENCHMARK.json` lists exactly these names) and
//! the run's printed report.

use crate::metrics::Values;
use crate::oracle::Failures;
use crate::stats::quartiles;

/// A metric's name and unit.
pub type Def = (&'static str, &'static str);

/// The end-to-end metrics, printed by an untraced run.
pub const END_TO_END: [Def; 8] = [
    ("setup_s", "s"),
    ("capacity_rps", "1/s"),
    ("lat_lo_p50_us", "us"),
    ("lat_lo_p90_us", "us"),
    ("lat_hi_p50_us", "us"),
    ("msgs_per_req", "count"),
    ("wire_bytes_per_req", "B"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by a traced run, grouped by layer.
pub const PER_LAYER: [Def; 64] = [
    ("workloads.draw_ns_per_cmd", "ns"),
    ("canon.build_s", "s"),
    ("cluster.spawn_s", "s"),
    ("cluster.preload_s", "s"),
    ("runtime.inject_ns_per_cmd", "ns"),
    ("runtime.step_share", "share"),
    ("runtime.step_us_per_msg", "us"),
    ("runtime.rounds_burst", "count"),
    ("runtime.next_event_us_per_round", "us"),
    ("runtime.idle_round_us", "us"),
    ("runtime.events_per_round_hi", "count"),
    ("clock.wait_share", "share"),
    ("node.mean_hops", "count"),
    ("node.forwards_per_req", "count"),
    ("node.replicas_per_put", "count"),
    ("node.forward_peak_over_mean", "ratio"),
    ("node.lat_lo_p99_us", "us"),
    ("node.lat_hi_p90_us", "us"),
    ("node.lat_hi_p99_us", "us"),
    ("rpc.retransmits", "count"),
    ("rpc.timeouts", "count"),
    ("rpc.open_resolve_ns", "ns"),
    ("transport.push_drain_ns_per_msg", "ns"),
    ("framed.frames_per_req", "count"),
    ("framed.msgs_per_frame", "count"),
    ("framed.bytes_per_msg", "B"),
    ("framed.header_share", "share"),
    ("framed.batch_saving", "share"),
    ("framed.decode_errors", "count"),
    ("framed.kind_share.request", "share"),
    ("framed.kind_share.response", "share"),
    ("framed.kind_share.replicate", "share"),
    ("framed.kind_share.cache-fill", "share"),
    ("framed.kind_share.cache-invalidate", "share"),
    ("wire.encode_ns_per_msg", "ns"),
    ("wire.decode_ns_per_msg", "ns"),
    ("overlay.route_ns_per_hop", "ns"),
    ("overlay.static_mean_hops", "count"),
    ("overlay.mean_degree", "count"),
    ("store.put_ns", "ns"),
    ("store.get_ns", "ns"),
    ("shard.entries_total", "count"),
    ("cache.hit_ratio", "share"),
    ("cache.fills_per_get", "count"),
    ("cache.invalidations_per_put", "count"),
    ("cache.evictions_per_fill", "count"),
    ("cache.stale_fills", "count"),
    ("cache.entries", "count"),
    ("cache.lookup_ns", "ns"),
    ("cache.fill_ns", "ns"),
    ("attrib.wire_us_per_req", "us"),
    ("attrib.overlay_us_per_req", "us"),
    ("attrib.store_us_per_req", "us"),
    ("attrib.cache_us_per_req", "us"),
    ("attrib.transport_us_per_req", "us"),
    ("attrib.rpc_us_per_req", "us"),
    ("attrib.residual_us_per_req", "us"),
    ("attrib.coverage", "share"),
    ("gen.late_p99_us", "us"),
    ("gen.backlog_growth", "ratio"),
    ("host.probe_us", "us"),
    ("par.workers", "count"),
    ("trace.overhead_share", "share"),
    ("trace.span_coverage", "share"),
];

/// One metric over a run's cycles: median and quartiles.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// The metric.
    pub def: Def,
    /// First quartile, median, third quartile over the cycles.
    pub q: [f64; 3],
    /// Cycles that contributed a value.
    pub cycles: usize,
}

/// Aggregates `defs` over `cycles`: a metric missing from every cycle
/// reads 0 over 0 cycles.
pub fn rows(defs: &[Def], cycles: &[Values]) -> Vec<Row> {
    defs.iter()
        .map(|&def| {
            let values: Vec<f64> = cycles
                .iter()
                .filter_map(|c| c.get(def.0).copied())
                .collect();
            Row {
                def,
                q: quartiles(&values),
                cycles: values.len(),
            }
        })
        .collect()
}

/// Prints the metric table: name, unit, median, quartiles, cycle count.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n{title}");
    println!(
        "  {:<36} {:>6} {:>14} {:>14} {:>14} {:>6}",
        "metric", "unit", "median", "q1", "q3", "cycles"
    );
    for r in rows {
        println!(
            "  {:<36} {:>6} {:>14.4} {:>14.4} {:>14.4} {:>6}",
            r.def.0, r.def.1, r.q[1], r.q[0], r.q[2], r.cycles
        );
    }
}

/// Prints attempted and failed operations by category.
pub fn print_ops(attempted: u64, failures: &Failures) {
    let failed = failures.total();
    println!("\nops_attempted {attempted}");
    let by_category: Vec<String> = failures
        .categories()
        .iter()
        .map(|(name, count)| format!("{name}={count}"))
        .collect();
    println!("ops_failed {failed} ({})", by_category.join(" "));
    println!(
        "failure_share {:.6}",
        failed as f64 / attempted.max(1) as f64
    );
}

/// A finite JSON number with all the digits measured.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, rows: &[Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.def.0,
                number(r.q[1]),
                r.def.1
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    /// The names listed under `section` of `BENCHMARK.json`, in order.
    fn declared(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is an array")];
        body.split("\"name\"")
            .skip(1)
            .filter_map(|rest| rest.split('"').nth(1).map(str::to_owned))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = |defs: &[Def]| defs.iter().map(|d| d.0.to_owned()).collect::<Vec<_>>();
        assert_eq!(declared(&json, "end_to_end"), names(&END_TO_END));
        assert_eq!(declared(&json, "per_layer"), names(&PER_LAYER));
        let workloads: Vec<String> = crate::workloads::SPECS
            .iter()
            .map(|s| s.name.to_owned())
            .collect();
        assert_eq!(declared(&json, "workloads"), workloads);
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let cycles = [
            Values::from([("setup_s", 0.25), ("capacity_rps", 100.0)]),
            Values::from([("setup_s", 0.75), ("capacity_rps", 300.0)]),
        ];
        let rows = rows(&END_TO_END[..2], &cycles);
        assert_eq!(rows[0].q[1], 0.5);
        assert_eq!(rows[1].cycles, 2);
        let line = result_line(true, 10, 0, &rows);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"capacity_rps\": {\"value\": 200, \"unit\": \"1/s\"}}}"
        );
    }
}
