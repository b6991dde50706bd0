//! In-memory spans recorded around the calls the benchmark makes into
//! each layer's public functions, written out when the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use rbat::Value;
use recycling::Session;
use rmal::Program;

use crate::report::{push, Metric};

/// One span. Spans of one request share `req`; `parent` is the span that
/// caused this one (0 for a root). Spans built from a reported profile
/// rather than a clock (one per executed instruction) have no start and
/// end and carry only `cpu_ns`.
#[derive(Debug)]
pub struct Span {
    /// Unique id, counting from 1.
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Request id shared by every span of one request (0 outside one).
    pub req: u64,
    /// Layer-qualified name, e.g. `recycling.Session::query_output`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: Option<u64>,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: Option<u64>,
    /// Reported duration (instruction CPU time, server-reported exec).
    pub cpu_ns: Option<u64>,
    /// Bytes materialised by the span's work, where known.
    pub bytes: u64,
}

/// A span recorder owned by one thread; merge recorders with
/// [`Tracer::absorb`] before writing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin` and whose span ids
    /// start at `first_id` (give each thread a disjoint id range).
    pub fn new(origin: Instant, first_id: u64) -> Tracer {
        Tracer {
            origin,
            next_id: first_id.max(1),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a timed span; returns its id.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: Some(start_ns),
            end_ns: Some(end_ns),
            cpu_ns: None,
            bytes: 0,
        });
        id
    }

    /// Record a reported-duration child span (no clock of ours saw it).
    pub fn reported(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        cpu: Duration,
        bytes: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: None,
            end_ns: None,
            cpu_ns: Some(cpu.as_nanos() as u64),
            bytes,
        });
        id
    }

    /// Move every span of `other` into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Write the spans as tab-separated lines
    /// (`id parent req name start_ns end_ns cpu_ns bytes`, `-` where a
    /// field is absent) to `path`, creating its directory.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\treq\tname\tstart_ns\tend_ns\tcpu_ns\tbytes"
        )?;
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.req,
                s.name,
                opt(s.start_ns),
                opt(s.end_ns),
                opt(s.cpu_ns),
                s.bytes
            )?;
        }
        out.flush()
    }
}

/// Time `f` and, when tracing, record it as a root span named `name`.
pub fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let t0 = Instant::now();
    let v = f();
    let t1 = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.span(name, 0, 0, t0, t1);
    }
    (v, t1 - t0)
}

/// One traced query's measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryTrace {
    /// Wall time around `Session::query_output`.
    pub outer: Duration,
    /// The interpreter's own wall time (`ExecStats::elapsed`).
    pub session: Duration,
    /// Sum of `InstrProfile::cpu` over executed (not reused) instructions.
    pub kernel: Duration,
    /// Sum of `InstrProfile::result_bytes` over executed instructions.
    pub materialised: u64,
    /// Instructions run or reused.
    pub instrs: u64,
    /// Marked instructions.
    pub marked: u64,
}

/// Aggregate traced queries into the rmal / rbat / non-kernel split.
/// Returns the attribution residual in percent: the share of the wall
/// time around the public call that the interpreter's own clock (kernel
/// plus non-kernel) does not cover.
pub fn layer_split(list: &mut Vec<Metric>, traces: &[QueryTrace]) -> f64 {
    let n = traces.len().max(1) as f64;
    let sum = |f: fn(&QueryTrace) -> f64| traces.iter().map(f).sum::<f64>();
    let outer = sum(|t| t.outer.as_secs_f64());
    let session = sum(|t| t.session.as_secs_f64());
    let kernel = sum(|t| t.kernel.as_secs_f64());
    push(
        list,
        "rmal.instrs_per_query",
        sum(|t| t.instrs as f64) / n,
        "count",
    );
    push(
        list,
        "rmal.marked_per_query",
        sum(|t| t.marked as f64) / n,
        "count",
    );
    push(list, "rbat.kernel_ms_per_query", kernel * 1e3 / n, "ms");
    push(
        list,
        "rbat.kernel_share",
        kernel / session.max(f64::MIN_POSITIVE),
        "ratio",
    );
    push(
        list,
        "rbat.materialised_mb_per_query",
        sum(|t| t.materialised as f64) / 1e6 / n,
        "MB",
    );
    push(
        list,
        "recycler.nonkernel_us_per_query",
        (session - kernel) * 1e6 / n,
        "us",
    );
    (outer - session).abs() / outer.max(f64::MIN_POSITIVE) * 100.0
}

/// Run a query through `Session::query_output` and record its span, with
/// one child span per executed instruction carrying its CPU time.
pub fn traced_query(
    session: &mut Session,
    template: &Program,
    params: &[Value],
    tracer: &mut Tracer,
    req: u64,
) -> (recycling::Result<Vec<(String, Value)>>, QueryTrace) {
    let t0 = Instant::now();
    let out = session.query_output(template, params);
    let t1 = Instant::now();
    let span = tracer.span("recycling.Session::query_output", 0, req, t0, t1);
    let mut qt = QueryTrace {
        outer: t1 - t0,
        ..QueryTrace::default()
    };
    let out = out.map(|out| {
        qt.session = out.stats.elapsed;
        qt.instrs = out.stats.instrs as u64;
        qt.marked = out.stats.marked as u64;
        for ins in out.stats.profile.iter().filter(|i| !i.reused) {
            qt.kernel += ins.cpu;
            qt.materialised += ins.result_bytes as u64;
            tracer.reported(ins.op, span, req, ins.cpu, ins.result_bytes as u64);
        }
        out.exports
    });
    (out, qt)
}
