//! Metric names, units, the statistics behind them, and the result
//! line the benchmark prints last.

use std::fmt::Write;

/// End-to-end metrics (`--trace 0`), in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("migrations_completed_frac", "ratio"),
    ("sim_migration_s_p50", "sim_s"),
    ("sim_migration_s_p90", "sim_s"),
    ("sim_downtime_ms_p90", "sim_ms"),
    ("sim_migration_gib", "GiB"),
    ("sim_sla_violation_s", "sim_s"),
    ("sim_useful_compute_s", "sim_s"),
];

/// Traffic tags in `TrafficTag::ALL` order, as metric suffixes.
pub const TAGS: [&str; 8] = [
    "memory",
    "storage_push",
    "storage_pull",
    "mirror",
    "repo_fetch",
    "pvfs_io",
    "app_net",
    "control",
];

/// Strategies in `StrategyKind::ALL` order, as metric suffixes.
pub const STRATEGIES: [&str; 5] = ["hybrid", "mirror", "postcopy", "precopy", "sharedfs"];

/// Per-layer metrics (`--trace 1`), in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("parse.s", "s"),
        ("parse.bytes", "bytes"),
        ("lint.s", "s"),
        ("lint.errors", "count"),
        ("shard.partition_s", "s"),
        ("shard.components", "count"),
        ("build.s", "s"),
        ("engine.step_s", "s"),
        ("engine.events", "count"),
        ("engine.ns_per_event", "ns"),
        ("engine.event_ns_p50", "ns"),
        ("engine.event_ns_p99", "ns"),
        ("engine.window_ms_max", "ms"),
        ("report.s", "s"),
        ("netsim.flow_starts", "count"),
        ("netsim.flow_ends", "count"),
        ("netsim.replay_s", "s"),
        ("netsim.start_us", "us"),
        ("netsim.end_us", "us"),
        ("netsim.next_completion_us", "us"),
        ("netsim.live_flows_mean", "count"),
        ("netsim.peak_flows", "count"),
        ("netsim.share", "ratio"),
        ("parallel.threads", "count"),
        ("parallel.shards", "count"),
        ("parallel.speedup_vs_mono", "x"),
        ("blockdev.reads_hit_bytes", "bytes"),
        ("blockdev.reads_miss_bytes", "bytes"),
        ("blockdev.writes_buffered_bytes", "bytes"),
        ("blockdev.writes_throttled_bytes", "bytes"),
        ("blockdev.reads_pull_blocked", "count"),
        ("storage.pushed_chunks", "count"),
        ("storage.pulled_chunks", "count"),
        ("storage.ondemand_chunks", "count"),
        ("hypervisor.mem_rounds", "count"),
    ];
    let mut all: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    all.extend(TAGS.iter().map(|t| (format!("netsim.bytes.{t}"), "bytes")));
    for (n, u) in [
        ("planner.decisions", "count"),
        ("planner.deferred", "count"),
        ("planner.skips", "count"),
    ] {
        all.push((n.to_string(), u));
    }
    all.extend(
        STRATEGIES
            .iter()
            .map(|s| (format!("planner.strategy.{s}"), "count")),
    );
    for (n, u) in [
        ("check.checks_run", "count"),
        ("check.violations", "count"),
        ("migrations_failed_frac", "ratio"),
        ("trace.overhead", "ratio"),
    ] {
        all.push((n.to_string(), u));
    }
    all
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Collects metrics by name, taking units from a fixed table so a name
/// and its unit cannot disagree.
pub struct Sheet {
    table: Vec<(String, &'static str)>,
    /// The metrics set so far, in insertion order.
    pub metrics: Vec<Metric>,
}

impl Sheet {
    /// An empty sheet over `table`.
    pub fn new(table: Vec<(String, &'static str)>) -> Self {
        Sheet {
            table,
            metrics: Vec::new(),
        }
    }

    /// Set `name` (which must be in the table) to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = self
            .table
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, u)| u)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// Table names that were never set or were set to a non-finite value.
    pub fn missing(&self) -> Vec<String> {
        self.table
            .iter()
            .filter(|(n, _)| {
                !self
                    .metrics
                    .iter()
                    .any(|m| &m.name == n && m.value.is_finite())
            })
            .map(|(n, _)| n.clone())
            .collect()
    }
}

/// The end-to-end table as owned names.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// Median of `v` (mean of the middle pair for even lengths); NaN if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `0..=1`) of an ascending slice; NaN
/// if empty.
pub fn percentile_sorted<T: Copy + Into<f64>>(sorted: &[T], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1].into()
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric a `{"value", "unit"}` object. A value that
/// could not be measured (NaN or infinite) is written as `null`, so the
/// line stays JSON; [`Sheet::missing`] already makes such a run
/// incorrect.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() {
            m.value.to_string()
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_medians() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 5.0);
        assert_eq!(percentile_sorted(&v, 0.9), 9.0);
        assert_eq!(percentile_sorted(&v, 1.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_is_json_with_the_four_keys() {
        let m = [Metric {
            name: "run_s".into(),
            unit: "s",
            value: 1.25,
        }];
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert!(serde_json::parse(&line).is_ok());
    }

    #[test]
    fn unmeasured_values_are_null() {
        let m = [
            Metric {
                name: "sim_migration_s_p50".into(),
                unit: "sim_s",
                value: f64::NAN,
            },
            Metric {
                name: "run_s".into(),
                unit: "s",
                value: f64::INFINITY,
            },
        ];
        let line = result_line(false, 3, 3, &m);
        let doc = serde_json::parse(&line).expect("the line is JSON");
        let metrics = doc.get("metrics").expect("metrics");
        for name in ["sim_migration_s_p50", "run_s"] {
            let value = metrics.get(name).and_then(|v| v.get("value"));
            assert!(matches!(value, Some(serde::Value::Null)), "{line}");
        }
    }
}
