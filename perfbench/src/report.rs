//! Metric records, the human-readable report and the one-line JSON
//! result.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Layer-qualified metric name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
}

/// End-to-end metrics gated by `BENCHMARK.json` on every workload: the
/// `--trace 0` result line carries exactly these. The tail percentiles
/// and the commit latencies are printed in the report but not gated: on
/// a shared two-core host the wire workload's tail moves with the
/// neighbours' load by more than any bound a gate may have, and commits
/// exist on one workload only.
pub const END_TO_END: [&str; 4] = ["setup_s", "qps", "query_p50_ms", "pool_mib"];

/// Per-layer metrics of the `--trace 1` result line. Timings that are
/// absent or identically zero on some workload (server exec and wire,
/// commit splits, catalog generation, kernel time and subsumption search,
/// both zero when every instruction hits) are printed in the report but
/// left out of the result line, where a time must move from run to run.
pub const PER_LAYER: [&str; 30] = [
    "recycling.build_s",
    "rmal.prepare_ms",
    "recycler.warmup_s",
    "rcy-server.error_replies",
    "rmal.instrs_per_query",
    "rmal.marked_per_query",
    "rbat.kernel_share",
    "rbat.materialised_mb_per_query",
    "recycler.hit_ratio",
    "recycler.hits",
    "recycler.subsumed",
    "recycler.admissions",
    "recycler.admission_rejects",
    "recycler.duplicate_admissions",
    "recycler.cross_session_hits",
    "recycler.nonkernel_us_per_query",
    "recycler.evictions",
    "recycler.inline_evictions",
    "recycler.evict_gather_visited",
    "recycler.invalidated",
    "recycler.propagated",
    "recycler.overhead_ms",
    "recycler.time_saved_ms",
    "recycler.admit_reuse_ratio",
    "recycler.pool_entries",
    "recycler.spilled_mib",
    "recycler.speedup_vs_naive",
    "bench.trace_overhead_pct",
    "bench.attribution_residual_pct",
    "bench.reassociated_answers",
];

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations executed and checked (queries and commits).
    pub attempted: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// Operations whose answer differed from the naive twin's:
    /// (op index, description).
    pub mismatches: Vec<(usize, String)>,
    /// Operations whose answer matched the naive twin's only up to float
    /// reassociation ([`crate::Match::Reassociated`]).
    pub reassociated: u64,
    /// End-to-end metrics of the timed phase.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    /// Every answer matched and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty()
    }

    /// Look a metric up by name in either list.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// The human-readable report: one `name value unit` line per metric.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# checked {} ops: {} failed, {} matched only up to float reassociation\n",
            self.attempted, self.failed, self.reassociated
        );
        for (title, list) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            if list.is_empty() {
                continue;
            }
            let _ = writeln!(out, "# {title}");
            for m in list {
                let _ = writeln!(out, "{:<36} {:>16.6} {}", m.name, m.value, m.unit);
            }
        }
        for (idx, what) in &self.mismatches {
            let _ = writeln!(out, "MISMATCH at op {idx}: {what}");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// named in `names`, in that order. Panics if one was not measured.
    pub fn json_line(&self, names: &[&str]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, name) in names.iter().enumerate() {
            let m = self
                .metric(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Push a metric onto `list`.
pub fn push(list: &mut Vec<Metric>, name: &'static str, value: f64, unit: &'static str) {
    list.push(Metric { name, value, unit });
}
