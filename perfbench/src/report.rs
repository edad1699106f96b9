//! The metric catalogue and the result line the benchmark ends with.

use std::collections::HashMap;
use std::fmt::Write;

/// Whether a metric is reported by untraced (end-to-end) or traced
/// (per-layer) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Seen by a user of the system; reported with `--trace 0`.
    EndToEnd,
    /// Splits the end-to-end numbers by layer; reported with `--trace 1`.
    PerLayer,
}

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which runs report it.
    pub kind: Kind,
}

const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("day_cpu_ms_p50", "ms"),
    ("day_cpu_ms_p90", "ms"),
    ("precision_mean", "frac"),
];

const LAYERS_BEFORE_METHODS: &[(&str, &str)] = &[
    ("fusion.methods.run_s", "s"),
    ("fusion.methods.trust_run_s", "s"),
];

const LAYERS_AFTER_METHODS: &[(&str, &str)] = &[
    ("fusion.problem.prepare_s", "s"),
    ("fusion.problem.prepare_calls", "count"),
    ("fusion.delta.prepare_s", "s"),
    ("fusion.delta.run_s", "s"),
    ("fusion.delta.full_refreshes", "count"),
    ("fusion.delta.dirty_fraction_mean", "frac"),
    ("evaluation.sampled_trust_s", "s"),
    ("evaluation.precision_recall_s", "s"),
    ("evaluation.precision_trust_mean", "frac"),
    ("service.ingest_s", "s"),
    ("service.ingest_ops_per_s", "1/s"),
    ("service.ops_applied", "count"),
    ("service.ops_duplicate", "count"),
    ("service.ops_stale", "count"),
    ("service.ops_rejected", "count"),
    ("service.seals", "count"),
    ("service.seal_s", "s"),
    ("service.seal_other_s", "s"),
    ("service.queue_ms_p50", "ms"),
    ("service.idle_s", "s"),
    ("service.read_calls", "count"),
    ("service.read_busy_s", "s"),
    ("service.read_us_p50", "us"),
    ("service.read_us_p99", "us"),
    ("bench.visible_ms_p50", "ms"),
    ("bench.visible_ms_p90", "ms"),
    ("bench.wall_s", "s"),
    ("bench.busy_s", "s"),
    ("bench.self_s", "s"),
    ("bench.worker_idle_s", "s"),
    ("bench.workers", "count"),
    ("bench.units", "count"),
    ("bench.spans", "count"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.producer_late_ms_max", "ms"),
    ("bench.reader_late_ms_max", "ms"),
    ("bench.reads_skipped", "count"),
    ("bench.cpu_steal_frac", "frac"),
];

/// Every metric the benchmark reports, in print order. Per-method metrics
/// follow the fusion registry's Table-6 order.
pub fn catalogue() -> Vec<MetricSpec> {
    let spec = |kind| {
        move |&(name, unit): &(&str, &'static str)| MetricSpec {
            name: name.to_string(),
            unit,
            kind,
        }
    };
    let mut specs: Vec<MetricSpec> = END_TO_END.iter().map(spec(Kind::EndToEnd)).collect();
    specs.extend(LAYERS_BEFORE_METHODS.iter().map(spec(Kind::PerLayer)));
    for (_, method) in fusion::all_methods() {
        let name = method.name();
        for (suffix, unit) in [("run_s", "s"), ("rounds", "count")] {
            specs.push(MetricSpec {
                name: format!("fusion.methods.{name}.{suffix}"),
                unit,
                kind: Kind::PerLayer,
            });
        }
    }
    specs.extend(LAYERS_AFTER_METHODS.iter().map(spec(Kind::PerLayer)));
    specs
}

/// Measured values by metric name.
pub type Values = HashMap<String, f64>;

/// The metrics of `kind`, in catalogue order, with their values. An
/// end-to-end metric the run did not measure is a bug and panics; a
/// per-layer metric of a layer the workload does not exercise reads 0.
pub fn select(values: &Values, kind: Kind) -> Vec<(MetricSpec, f64)> {
    catalogue()
        .into_iter()
        .filter(|spec| spec.kind == kind)
        .map(|spec| {
            let value = match (values.get(&spec.name), kind) {
                (Some(&v), _) => v,
                (None, Kind::PerLayer) => 0.0,
                (None, Kind::EndToEnd) => {
                    panic!("end-to-end metric {} was not measured", spec.name)
                }
            };
            (spec, value)
        })
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. Non-finite values are written as 0 (the caller counts
/// them as failures first).
pub fn result_line(attempted: u64, failed: u64, metrics: &[(MetricSpec, f64)]) -> String {
    let mut out = String::new();
    write!(
        out,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && attempted > 0
    )
    .expect("writing to a String cannot fail");
    for (i, (spec, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            spec.name, spec.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// Peak resident set size of this process in MB (`VmHWM`), when the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Machine-wide CPU time counters (`/proc/stat`, in clock ticks): time
/// stolen by the hypervisor and the total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    /// Ticks the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
    /// All ticks.
    pub total: u64,
}

impl CpuTicks {
    /// Read the counters, when the platform exposes them.
    pub fn read() -> Option<Self> {
        Self::parse(&std::fs::read_to_string("/proc/stat").ok()?)
    }

    fn parse(stat: &str) -> Option<Self> {
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        Some(Self {
            steal: *fields.get(7)?,
            total: fields.iter().sum(),
        })
    }

    /// Share of the ticks since `earlier` that were stolen.
    pub fn steal_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        self.steal.saturating_sub(earlier.steal) as f64 / total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_from_proc_stat() {
        let a = CpuTicks::parse("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n").unwrap();
        assert_eq!(
            a,
            CpuTicks {
                steal: 35,
                total: 1000
            }
        );
        let b = CpuTicks {
            steal: 45,
            total: 1100,
        };
        assert!((b.steal_since(&a) - 0.1).abs() < 1e-12);
        assert_eq!(CpuTicks::parse("intr 1 2"), None);
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let specs = catalogue();
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(total <= 128 + END_TO_END.len());
        for s in &specs {
            assert!(s.name.len() <= 64, "{}", s.name);
            assert!(s.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                s.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                s.name
            );
            assert!(s.unit.len() <= 16);
        }
        assert!(names.contains(&"fusion.methods.AccuCopy.rounds"));
        assert!(names.contains(&"fusion.methods.2-Estimates.run_s"));
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        for spec in catalogue() {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", spec.name, spec.unit);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = crate::Workload::ALL.len();
        assert_eq!(
            json.matches("\"name\":").count(),
            catalogue().len() + workloads
        );
    }

    #[test]
    fn missing_layer_reads_zero_and_result_line_is_json_shaped() {
        let mut values = Values::new();
        for (name, _) in END_TO_END {
            values.insert(name.to_string(), 1.5);
        }
        let e2e = select(&values, Kind::EndToEnd);
        assert_eq!(e2e.len(), END_TO_END.len());
        let layers = select(&values, Kind::PerLayer);
        assert!(layers.iter().all(|(_, v)| *v == 0.0));
        let line = result_line(3, 0, &e2e[..1]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(3, 1, &[]).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn unmeasured_end_to_end_metric_panics() {
        select(&Values::new(), Kind::EndToEnd);
    }
}
