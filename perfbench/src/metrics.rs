//! The metric tables every workload reports against, order statistics,
//! and the result line.
//!
//! Every workload prints every metric of the table it is asked for, so a
//! run's result always has the same keys. A per-layer metric of a layer
//! the workload never calls reads 0 (that layer did no work); an
//! end-to-end metric is defined on every workload and is never 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, as declared in
/// `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_ms.p90", "ms"),
    ("names_per_s", "1/s"),
    ("rounds.mean", "rounds"),
    ("wire_bytes_per_name", "B"),
];

/// `(name, unit)` of every per-layer metric, as declared in
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("job_ms.p50", "ms"),
    ("pipeline.setup_ms", "ms"),
    ("threaded.setup_ms", "ms"),
    ("socket.setup_ms", "ms"),
    ("local.compose_ms", "ms"),
    ("local.apply_ms", "ms"),
    ("local.sweep_ms", "ms"),
    ("round.r0_ms", "ms"),
    ("round.r1_ms", "ms"),
    ("round.steady_ns_per_ball", "ns"),
    ("pipeline.deliver_ms", "ms"),
    ("adversary.plan_ms", "ms"),
    ("local.views_per_round.mean", "count"),
    ("local.views_per_round.max", "count"),
    ("pipeline.messages_per_job", "count"),
    ("pipeline.delivered_per_job", "count"),
    ("adversary.crashes_per_job", "count"),
    ("wire.bytes_per_round", "B"),
    ("threaded.compose_ms", "ms"),
    ("threaded.apply_ms", "ms"),
    ("threaded.sweep_ms", "ms"),
    ("threaded.shutdown_ms", "ms"),
    ("socket.compose_ms", "ms"),
    ("socket.apply_ms", "ms"),
    ("socket.sweep_ms", "ms"),
    ("socket.shutdown_ms", "ms"),
    ("sharded.submit_ms", "ms"),
    ("sharded.begin_ms", "ms"),
    ("sharded.complete_ms", "ms"),
    ("epoch.execute_ms", "ms"),
    ("epoch.execute_max_ms", "ms"),
    ("shard.admitted", "count"),
    ("shard.released", "count"),
    ("shard.recycled", "count"),
    ("sharded.spilled", "count"),
    ("epoch.rounds_max", "rounds"),
    ("process.peak_rss_mb", "MB"),
];

/// What one run of a workload found: its operations and every metric it
/// measured, keyed by name.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Whether every checked output had the properties the method
    /// promises.
    pub correct: bool,
    /// Operations attempted: renaming jobs, or service requests.
    pub attempted: u64,
    /// Operations that returned an error instead of a result.
    pub failed: u64,
    /// End-to-end metrics (always measured).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (measured only by a traced run).
    pub per_layer: BTreeMap<&'static str, f64>,
}

/// The `q`-quantile of `samples` by linear interpolation between order
/// statistics; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of weighted samples `(value, weight)`: the least
/// value at which the cumulative weight reaches `q` of the total, as if
/// each value were repeated `weight` times; 0 for no weight.
pub fn weighted_quantile(samples: &[(f64, u64)], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = sorted.iter().map(|&(_, w)| w).sum();
    let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (value, weight) in sorted {
        seen += weight;
        if seen >= rank {
            return value;
        }
    }
    0.0
}

/// The mean of the middle half of `samples` (between the quartiles); 0
/// for no samples. Unlike the median it does not jump between the two
/// modes of a bimodal run, and unlike a high percentile it ignores the
/// rare slow outlier.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    ratio(middle.iter().sum(), middle.len() as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Renders `table`'s metrics as a JSON object body, in table order.
/// Missing entries read 0.
pub fn json_metrics(table: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = values.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

/// The result line: the operations and the metrics of `table`.
pub fn result_line(result: &RunResult, traced: bool) -> String {
    let (table, values) = if traced {
        (PER_LAYER, &result.per_layer)
    } else {
        (END_TO_END, &result.end_to_end)
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.correct,
        result.attempted,
        result.failed,
        json_metrics(table, values)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn weighted_quantiles_count_each_value_weight_times() {
        // As if 1.0 were seen 8 times and 5.0 twice: the 80th percentile
        // is still 1.0, the 90th is 5.0.
        let xs = [(5.0, 2), (1.0, 8)];
        assert_eq!(weighted_quantile(&xs, 0.8), 1.0);
        assert_eq!(weighted_quantile(&xs, 0.9), 5.0);
        assert_eq!(weighted_quantile(&xs, 0.0), 1.0);
        assert_eq!(weighted_quantile(&[], 0.5), 0.0);
        assert_eq!(weighted_quantile(&[(3.0, 0)], 0.5), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_each_outer_quarter() {
        let xs = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0];
        assert_eq!(interquartile_mean(&xs), 3.5);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn every_metric_is_declared_in_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                manifest.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
        let workloads = manifest.matches("\"why\": ").count();
        let known = crate::WORKLOADS
            .iter()
            .filter(|name| manifest.contains(&format!("\"name\": \"{name}\", \"why\"")))
            .count();
        assert_eq!(known, workloads, "BENCHMARK.json lists an unknown workload");
        let declared = manifest.matches("\"name\": ").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
    }
}
