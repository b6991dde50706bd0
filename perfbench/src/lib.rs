//! The repository benchmark: three closed-loop workloads driven through
//! the public entry points (`recycling::{DatabaseBuilder, Database,
//! Session}` and `rcy_server::{Server, Client}`), every answer checked
//! against a naive twin, every metric printed by name and unit.
//!
//! * `sky_wire` — the SkyServer log over TCP, two connections, a pool
//!   that holds the working set;
//! * `tpch_tight` — the TPC-H mixed batch in one session, pool capped at
//!   about a tenth of the stream's working set;
//! * `tpch_refresh` — the same stream, uncapped, with a §7.4 update block
//!   (four commits) after every 20 queries.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) of the same workload and seed reports the per-layer
//! metrics, timed from outside around each layer's public calls, and
//! writes its spans to `.bench_trace/`.

pub mod report;
mod sky_wire;
pub mod stats;
pub mod stream;
mod tpch_load;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use rbat::Value;
use recycling::{PoolSnapshot, RecyclerStats};

pub use report::{Metric, Outcome};

/// Bytes per MiB.
const MIB: f64 = 1024.0 * 1024.0;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SkyServer log over the wire, two connections, uncapped pool.
    SkyWire,
    /// TPC-H mixed batch, one session, pool capped below the working set.
    TpchTight,
    /// TPC-H mixed batch with an update block after every 20 queries.
    TpchRefresh,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SkyWire,
        Workload::TpchTight,
        Workload::TpchRefresh,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SkyWire => "sky_wire",
            Workload::TpchTight => "tpch_tight",
            Workload::TpchRefresh => "tpch_refresh",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and run lengths. [`Scale::full`] is the benchmark;
/// [`Scale::tiny`] keeps the self-tests to seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// TPC-H scale factor.
    pub tpch_sf: f64,
    /// `tpch_tight` pool cap in bytes.
    pub tight_cap: usize,
    /// SkyServer catalog objects.
    pub sky_objects: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// TPC-H warm-up rounds (20 queries each, plus an update block on
    /// `tpch_refresh`) per workload: (`tpch_tight`, `tpch_refresh`).
    pub warmup_rounds: (usize, usize),
    /// Timed TPC-H rounds at least (the counter window).
    pub min_rounds: usize,
    /// SkyServer warm-up queries per connection.
    pub sky_warmup: usize,
    /// Timed SkyServer queries per connection at least.
    pub sky_min_queries: usize,
    /// SkyServer queries per traced/untraced alternation chunk.
    pub sky_chunk: usize,
    /// SkyServer queries replayed in process for the rbat/rmal split.
    pub sky_inproc: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            tpch_sf: 0.02,
            tight_cap: 8 << 20,
            sky_objects: 40_000,
            setups: 5,
            warmup_rounds: (10, 1),
            min_rounds: 80,
            sky_warmup: 1_000,
            sky_min_queries: 500,
            sky_chunk: 500,
            sky_inproc: 2_000,
        }
    }

    /// Self-test sizes: every code path, a fraction of a second each.
    pub fn tiny() -> Scale {
        Scale {
            tpch_sf: 0.002,
            tight_cap: 800 << 10,
            sky_objects: 2_000,
            setups: 2,
            warmup_rounds: (1, 1),
            min_rounds: 4,
            sky_warmup: 50,
            sky_min_queries: 100,
            sky_chunk: 50,
            sky_inproc: 100,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Minimum length of the timed phase.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
    /// Where a traced run writes its spans (`None`: keep them in memory).
    pub trace_dir: Option<PathBuf>,
}

/// Run one workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    match cfg.workload {
        Workload::SkyWire => sky_wire::run(cfg),
        Workload::TpchTight | Workload::TpchRefresh => tpch_load::run(cfg),
    }
}

/// How a recycled answer compares with the naive twin's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Match {
    /// Every value equal (floats bit for bit).
    Exact,
    /// Equal except floats that differ by at most [`FLOAT_REL_TOL`]
    /// relative: the same sum taken in another order (a subsumed or
    /// recycled intermediate feeds an aggregate its rows in a different
    /// order). Counted and reported, not failed.
    Reassociated,
    /// A real difference.
    Differs,
}

/// Relative difference up to which two floats count as the same sum in
/// another order. Reassociating n terms moves a sum by about n·2⁻⁵³
/// relative (1e-13 for 10³ terms); one row more or less moves it by far
/// more than 1e-9.
const FLOAT_REL_TOL: f64 = 1e-9;

fn compare_values(a: &Value, b: &Value) -> Match {
    match (a, b) {
        (Value::Bat(x), Value::Bat(y)) => {
            let (tx, ty) = (x.canonical_tuples(), y.canonical_tuples());
            if tx.len() != ty.len() {
                return Match::Differs;
            }
            tx.iter()
                .zip(&ty)
                .map(|((hx, vx), (hy, vy))| compare_values(hx, hy).max(compare_values(vx, vy)))
                .max()
                .unwrap_or(Match::Exact)
        }
        (Value::Float(x), Value::Float(y)) if x.to_bits() != y.to_bits() => {
            let scale = x.abs().max(y.abs());
            if x.is_finite() && y.is_finite() && (x - y).abs() <= FLOAT_REL_TOL * scale {
                Match::Reassociated
            } else {
                Match::Differs
            }
        }
        _ if a == b => Match::Exact,
        _ => Match::Differs,
    }
}

/// Compare two export lists: names must match in order, values by
/// [`Match`]. A BAT compares by its canonical tuples, because BAT values
/// are equal only to themselves.
fn compare_exports(a: &[(String, Value)], b: &[(String, Value)]) -> Match {
    if a.len() != b.len() {
        return Match::Differs;
    }
    a.iter()
        .zip(b)
        .map(|((na, va), (nb, vb))| {
            if na == nb {
                compare_values(va, vb)
            } else {
                Match::Differs
            }
        })
        .max()
        .unwrap_or(Match::Exact)
}

/// Exact equality of two export lists ([`Match::Exact`]).
fn same_exports(a: &[(String, Value)], b: &[(String, Value)]) -> bool {
    compare_exports(a, b) == Match::Exact
}

/// Write a traced run's spans to
/// `<trace_dir>/<workload>-seed<seed>.tsv`; a failure is reported, not
/// fatal, since the metrics are already measured.
fn write_spans(cfg: &RunConfig, tracer: &trace::Tracer) {
    if let Some(dir) = &cfg.trace_dir {
        let path = dir.join(format!("{}-seed{}.tsv", cfg.workload.name(), cfg.seed));
        if let Err(e) = tracer.write_tsv(&path) {
            eprintln!("cannot write spans to {}: {e}", path.display());
        }
    }
}

/// Milliseconds of a duration.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Recycler counters of the counter window (deltas of
/// `Database::stats()`), plus the pool's shape at the window's end.
fn recycler_metrics(
    list: &mut Vec<Metric>,
    before: &RecyclerStats,
    after: &RecyclerStats,
    snap: &PoolSnapshot,
) {
    use report::push;
    let d = |f: fn(&RecyclerStats) -> u64| f(after).saturating_sub(f(before)) as f64;
    let dt = |f: fn(&RecyclerStats) -> Duration| ms(f(after).saturating_sub(f(before)));
    let monitored = d(|s| s.monitored);
    let admissions = d(|s| s.admissions);
    push(
        list,
        "recycler.hit_ratio",
        d(|s| s.hits) / monitored.max(1.0),
        "ratio",
    );
    push(list, "recycler.hits", d(|s| s.hits), "count");
    push(list, "recycler.subsumed", d(|s| s.subsumed), "count");
    push(list, "recycler.admissions", admissions, "count");
    push(
        list,
        "recycler.admission_rejects",
        d(|s| s.admission_rejects),
        "count",
    );
    push(
        list,
        "recycler.duplicate_admissions",
        d(|s| s.duplicate_admissions),
        "count",
    );
    push(
        list,
        "recycler.cross_session_hits",
        d(|s| s.cross_session_hits),
        "count",
    );
    push(list, "recycler.evictions", d(|s| s.evictions), "count");
    push(
        list,
        "recycler.inline_evictions",
        d(|s| s.inline_evictions),
        "count",
    );
    push(
        list,
        "recycler.evict_gather_visited",
        d(|s| s.evict_gather_visited),
        "count",
    );
    push(list, "recycler.invalidated", d(|s| s.invalidated), "count");
    push(list, "recycler.propagated", d(|s| s.propagated), "count");
    push(list, "recycler.overhead_ms", dt(|s| s.overhead), "ms");
    push(
        list,
        "recycler.subsume_search_ms",
        dt(|s| s.subsume_search),
        "ms",
    );
    push(list, "recycler.time_saved_ms", dt(|s| s.time_saved), "ms");
    push(
        list,
        "recycler.admit_reuse_ratio",
        snap.reused_entries as f64 / admissions.max(1.0),
        "ratio",
    );
    push(list, "recycler.pool_entries", snap.entries as f64, "count");
    push(
        list,
        "recycler.spilled_mib",
        after.spilled_bytes as f64 / MIB,
        "MiB",
    );
}
