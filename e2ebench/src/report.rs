//! The metric catalogue and the one-line JSON result every run prints.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` (a test keeps
//! them equal). A run with `--trace 0` prints every end-to-end metric,
//! one with `--trace 1` every per-layer metric, on every workload. The
//! end-to-end names are shared by the workloads, each filling them with
//! its own operation (see `README.md`); a per-layer metric of a layer a
//! workload never calls reads 0.

use eras_data::Json;
use std::fmt::Display;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Spans the traced runs record around calls into the workspace crates.
/// Each one's summed self time is reported as `<name>_pct`, its share of
/// the traced wall.
pub const LAYER_SPANS: &[&str] = &[
    "data.generate",
    "data.filter_build",
    "train.init",
    "ctrl.sample",
    "train.block_minibatch",
    "ctrl.em",
    "ctrl.arch_update",
    "core.derive",
    "train.screen",
    "train.retrain",
    "eval.valid",
    "serve.load_read",
    "serve.engine_build",
    "serve.parse",
    "serve.answer",
    "serve.batch_answer",
    "serve.render",
];

/// Per-layer metrics: `(name, unit)`. `op.*` describe the durations of
/// the workload's most frequent traced call (`train.block_minibatch` on
/// eras-search, `serve.answer` on serve-1m).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_pct", "%"),
    ("op.count", "count"),
    ("op.p50_ms", "ms"),
    ("op.tail_ms", "ms"),
    ("op.tail_pct", "%"),
    ("data.generate_pct", "%"),
    ("data.filter_build_pct", "%"),
    ("train.init_pct", "%"),
    ("ctrl.sample_pct", "%"),
    ("train.block_minibatch_pct", "%"),
    ("ctrl.em_pct", "%"),
    ("ctrl.arch_update_pct", "%"),
    ("core.derive_pct", "%"),
    ("train.screen_pct", "%"),
    ("train.retrain_pct", "%"),
    ("eval.valid_pct", "%"),
    ("serve.load_read_pct", "%"),
    ("serve.engine_build_pct", "%"),
    ("serve.parse_pct", "%"),
    ("serve.answer_pct", "%"),
    ("serve.batch_answer_pct", "%"),
    ("serve.render_pct", "%"),
    ("ctrl.sample_calls", "count"),
    ("train.block_minibatch_triples", "count"),
    ("ctrl.em_calls", "count"),
    ("ctrl.arch_update_calls", "count"),
    ("core.derive_candidates", "count"),
    ("train.screen_epochs", "count"),
    ("train.retrain_epochs", "count"),
    ("core.replay_mismatch", "count"),
    ("serve.cache_hit_ratio", "1"),
    ("serve.cache_hit_base", "count"),
    ("serve.bulk_cache_hit_ratio", "1"),
    ("serve.repeat_share", "1"),
    ("serve.late_p99_pct", "%"),
    ("serve.outside_pct", "%"),
];

/// Per-layer metrics that only one workload measures; the others report
/// 0 for them, since they never call that layer. Every other metric must
/// be set by every run.
const ONE_WORKLOAD: &[&str] = &[
    "ctrl.sample_calls",
    "train.block_minibatch_triples",
    "ctrl.em_calls",
    "ctrl.arch_update_calls",
    "core.derive_candidates",
    "train.screen_epochs",
    "train.retrain_epochs",
    "core.replay_mismatch",
    "serve.cache_hit_ratio",
    "serve.cache_hit_base",
    "serve.bulk_cache_hit_ratio",
    "serve.repeat_share",
    "serve.late_p99_pct",
    "serve.outside_pct",
];

/// Unit of a declared metric in the given table.
fn unit_of(table: &[(&str, &'static str)], name: &str) -> Option<&'static str> {
    table.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// Operation counts, whole-run checks and metric values of one run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    broken: Vec<String>,
    metrics: Vec<(String, f64)>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Count one attempted operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("failed: {what}");
        }
    }

    /// A whole-run output check; a failing one makes the run incorrect.
    pub fn require(&mut self, ok: bool, what: impl Display) {
        if !ok {
            eprintln!("check failed: {what}");
            self.broken.push(what.to_string());
        }
    }

    /// Record a metric value (replacing an earlier one of that name).
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_owned(), value));
    }

    /// True when every operation and every check passed and every
    /// metric is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.broken.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    /// The result line, with every metric of the table the trace flag
    /// selects. A metric set but not declared there is a bug in this
    /// benchmark. A metric that is not finite, such as the mean of a NaN
    /// batch loss, or one left unset (other than the [`ONE_WORKLOAD`]
    /// ones, which read 0) is left out and makes the run incorrect.
    pub fn to_json(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        for (name, _) in &self.metrics {
            assert!(
                unit_of(table, name).is_some(),
                "metric {name} is not declared for trace={trace}"
            );
        }
        let mut complete = true;
        let mut metrics = Json::obj();
        for &(name, unit) in table {
            let value = match self.metrics.iter().find(|(n, _)| n == name) {
                Some(&(_, v)) => v,
                None if trace && ONE_WORKLOAD.contains(&name) => 0.0,
                None => {
                    eprintln!("check failed: metric {name} was not measured");
                    complete = false;
                    continue;
                }
            };
            if value.is_finite() {
                metrics = metrics.set(name, Json::obj().set("value", value).set("unit", unit));
            } else {
                eprintln!("check failed: metric {name} is not finite: {value}");
            }
        }
        Json::obj()
            .set("correct", complete && self.correct())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics)
            .to_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn manifest_metrics(key: &str) -> BTreeMap<String, String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        json.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.to_owned(), unit.to_owned())
            })
            .collect()
    }

    fn declared(table: &[(&str, &str)]) -> BTreeMap<String, String> {
        let map: BTreeMap<String, String> = table
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(map.len(), table.len(), "duplicate metric names");
        map
    }

    #[test]
    fn every_metric_name_is_well_formed() {
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
        }
    }

    #[test]
    fn every_layer_span_has_a_share() {
        for name in LAYER_SPANS {
            assert_eq!(unit_of(PER_LAYER, &format!("{name}_pct")), Some("%"), "{name}");
        }
        for name in ONE_WORKLOAD {
            assert!(unit_of(PER_LAYER, name).is_some(), "{name}");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(declared(END_TO_END), manifest_metrics("end_to_end"));
        assert_eq!(declared(PER_LAYER), manifest_metrics("per_layer"));
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let json = Json::parse(&full_report().to_json(false)).expect("result parses");
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("attempted").and_then(Json::as_usize), Some(1));
        assert_eq!(json.get("failed").and_then(Json::as_usize), Some(0));
        let m = json
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }

    /// A report with one passed operation and every end-to-end metric.
    fn full_report() -> Report {
        let mut r = Report::new();
        r.op(true, "one");
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 0.5 + i as f64);
        }
        r
    }

    #[test]
    fn a_missing_metric_makes_the_run_incorrect() {
        let mut r = Report::new();
        r.op(true, "one");
        r.set("setup_s", 0.5);
        let json = Json::parse(&r.to_json(false)).expect("result parses");
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn a_layer_one_workload_never_calls_reads_zero() {
        let mut r = Report::new();
        r.op(true, "one");
        for (name, _) in PER_LAYER {
            if !ONE_WORKLOAD.contains(name) {
                r.set(name, 1.5);
            }
        }
        let json = Json::parse(&r.to_json(true)).expect("result parses");
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = json.get("metrics").expect("metrics");
        for (name, _) in PER_LAYER {
            assert!(metrics.get(name).is_some(), "{name} missing");
        }
        let calls = metrics.get("ctrl.em_calls").and_then(|m| m.get("value"));
        assert_eq!(calls.and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn a_failed_operation_or_check_makes_the_run_incorrect() {
        let mut r = Report::new();
        r.op(false, "bad");
        assert!(!r.correct());
        let mut r = Report::new();
        r.op(true, "good");
        r.require(false, "bad check");
        assert!(!r.correct());
    }

    #[test]
    fn a_metric_that_is_not_finite_is_left_out_and_fails_the_run() {
        let mut r = full_report();
        r.set("peak_rss_mb", f64::NAN);
        let json = Json::parse(&r.to_json(false)).expect("result parses");
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(false));
        let metrics = json.get("metrics").expect("metrics");
        assert!(metrics.get("setup_s").is_some());
        assert!(metrics.get("peak_rss_mb").is_none());
    }

    #[test]
    fn attempted_is_printed_as_counted() {
        let json = Json::parse(&Report::new().to_json(false)).expect("result parses");
        assert_eq!(json.get("attempted").and_then(Json::as_usize), Some(0));
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(false));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_a_bug() {
        let mut r = Report::new();
        r.set("latency_ms", 1.0);
        let _ = r.to_json(true);
    }
}
