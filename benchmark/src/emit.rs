//! Output: every metric by name with its unit for the reader, then the
//! one-line JSON result the driver parses.

use std::fmt::Write as _;

/// Name and unit of every end-to-end metric, as BENCHMARK.json lists
/// them: what an untraced run reports. (`failure_rate` is the result's
/// `failed` ÷ `attempted`.)
pub const END_TO_END: &[(&str, &str)] = &[
    ("trips_per_s", "1/s"),
    ("response_ms_p50", "ms"),
    ("response_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("service_rate", "ratio"),
    ("km_per_delivery", "km"),
    ("wait_s_mean", "s"),
];

/// Name and unit of every per-layer metric, as BENCHMARK.json lists them:
/// what a traced run reports.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_s", "s"),
    ("roadnet.label_build_s", "s"),
    ("roadnet.label_entries_mean", "count"),
    ("roadnet.label_mb", "MB"),
    ("oracle.dist_calls_per_trip", "count"),
    ("oracle.dist_s", "s"),
    ("oracle.dist_hit_rate", "ratio"),
    ("oracle.path_calls", "count"),
    ("oracle.path_s", "s"),
    ("oracle.path_hit_rate", "ratio"),
    ("oracle.hit_ns", "ns"),
    ("oracle.label_merge_ns", "ns"),
    ("oracle.dijkstra_ns", "ns"),
    ("grid.query_ns", "ns"),
    ("grid.candidates_per_query", "count"),
    ("grid.update_ns", "ns"),
    ("dispatch.candidates_per_trip", "count"),
    ("dispatch.evaluated_per_trip", "count"),
    ("dispatch.pruned_by_slack_frac", "ratio"),
    ("dispatch.pruned_by_bound_frac", "ratio"),
    ("dispatch.useful_eval_ratio", "ratio"),
    ("dispatch.self_s", "s"),
    ("dispatch.response_ms_p99", "ms"),
    ("kinetic.eval_us_mean", "us"),
    ("kinetic.eval_us_active4plus", "us"),
    ("kinetic.tree_nodes_mean", "count"),
    ("kinetic.tree_nodes_max", "count"),
    ("parallel.speedup_w2", "ratio"),
    ("parallel.batch_vs_single_ratio", "ratio"),
    ("parallel.items_per_batch", "count"),
    ("engine.advance_s", "s"),
    ("engine.advance_share", "ratio"),
    ("engine.advance_self_s", "s"),
    ("engine.submit_s", "s"),
    ("engine.drain_s", "s"),
    ("engine.advance_ns_per_vehicle_call", "ns"),
    ("shard.k1_time_ratio", "ratio"),
    ("shard.k4_time_ratio", "ratio"),
    ("shard.boundary_request_frac", "ratio"),
    ("shard.borrows_per_trip", "count"),
    ("shard.migrations", "count"),
    ("serve.tick_ms_p50", "ms"),
    ("serve.tick_ms_p99", "ms"),
    ("serve.overhead_ratio", "ratio"),
    ("serve.journal_overhead_ratio", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.shed_fraction", "ratio"),
    ("serve.latency_virtual_s_p99", "s"),
    ("serve.knee_rps", "1/s"),
    ("harness.noise_ratio", "ratio"),
    ("harness.timer_ns", "ns"),
    ("harness.trace_overhead_ratio", "ratio"),
    ("harness.reconcile_ratio", "ratio"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in BENCHMARK.json.
    pub name: &'static str,
    /// Value as measured, all digits.
    pub value: f64,
    /// Unit as listed in BENCHMARK.json.
    pub unit: &'static str,
}

/// Lays `values` out as `table` lists them, so a run reports exactly the
/// metrics BENCHMARK.json promises, each with its listed unit.
pub fn tabulate(
    table: &[(&'static str, &'static str)],
    values: &[(&str, f64)],
) -> Result<Vec<Metric>, String> {
    if let Some((extra, _)) = values
        .iter()
        .find(|(n, _)| !table.iter().any(|(t, _)| t == n))
    {
        return Err(format!("metric {extra:?} is not in the table"));
    }
    table
        .iter()
        .map(|&(name, unit)| {
            values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, value)| Metric { name, value, unit })
                .ok_or_else(|| format!("metric {name:?} was not measured"))
        })
        .collect()
}

/// The result of one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Whether every output check passed.
    pub correct: bool,
    /// Requests offered over all checked passes.
    pub attempted: u64,
    /// Failures over all output checks.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

/// A JSON number: finite values as Rust prints them (shortest form that
/// round-trips, so no digit is lost), anything else as 0 — JSON has no
/// NaN or infinity, and a layer metric that could not be computed is
/// reported as absent work, not as a parse error.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl RunResult {
    /// The driver's line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter keyed by name with `value` and `unit`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The metrics as an aligned table, one per line.
    pub fn to_table(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<width$}  {:>16}  {}",
                m.name,
                format!("{:.6}", m.value),
                m.unit
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: tabulate(
                &[("trips_per_s", "1/s"), ("setup_s", "s")],
                &[("setup_s", 0.8127), ("trips_per_s", 612.25)],
            )
            .unwrap(),
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"trips_per_s\": {\"value\": 612.25, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn numbers_keep_every_digit_and_never_emit_nan() {
        assert_eq!(number(1.2034567890123), "1.2034567890123");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
        let v = 0.1 + 0.2;
        assert_eq!(number(v).parse::<f64>().unwrap(), v);
    }

    #[test]
    fn tabulate_reports_exactly_the_table() {
        let table = [("a", "ms"), ("b", "s")];
        assert!(tabulate(&table, &[("a", 1.0)])
            .unwrap_err()
            .contains("\"b\""));
        assert!(tabulate(&table, &[("a", 1.0), ("b", 2.0), ("c", 3.0)]).is_err());
        let m = tabulate(&table, &[("b", 2.0), ("a", 1.0)]).unwrap();
        assert_eq!((m[0].name, m[0].unit, m[1].value), ("a", "ms", 2.0));
    }

    /// The tables above are what BENCHMARK.json promises; the driver
    /// refuses a run that reports anything else.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = start + text[start..].find(']').expect("list end");
            &text[start..end]
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = section(key);
            assert_eq!(listed.matches("\"name\"").count(), table.len(), "{key}");
            for (name, unit) in table {
                assert!(
                    listed.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                    "{key} lacks {name} [{unit}]"
                );
            }
        }
    }

    #[test]
    fn table_lists_every_metric_with_its_unit() {
        let r = RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: tabulate(
                &[("a", "ms"), ("longer", "1/s")],
                &[("a", 1.0), ("longer", 2.5)],
            )
            .unwrap(),
        };
        let t = r.to_table();
        assert_eq!(t.lines().count(), 2);
        assert!(t.lines().all(|l| l.ends_with("ms") || l.ends_with("1/s")));
    }
}
