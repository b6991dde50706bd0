//! `sky_wire`: the SkyServer log served by `rcy_server::Server` to two
//! closed-loop TCP connections, one request outstanding each.
//!
//! The stream repeats about 106 distinct queries, so each connection
//! interns its answers: an op keeps the index of its distinct answer, and
//! the check compares every distinct answer (hence every op) with the
//! naive twin's. That keeps a run of ~10^5 queries in a few megabytes.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rbat::{Catalog, Value};
use rcy_server::{Client, Server, ServerConfig};
use recycling::{Database, DatabaseBuilder};
use rmal::Program;

use crate::report::{push, Outcome};
use crate::stats::{grouped_percentile, median, median_rate, percentile, windowed_percentile};
use crate::stream::{mix, QueryOp, SkyStream, SKY_TEMPLATES};
use crate::trace::{layer_split, timed, traced_query, Tracer};
use crate::{
    compare_exports, ms, recycler_metrics, same_exports, write_spans, Match, RunConfig, MIB,
};

/// Connections, each driven by its own thread.
const CONNECTIONS: usize = 2;

/// Queries per connection per window of the `qps` median.
const QPS_WINDOW: f64 = 1000.0;

type Rows = Vec<(String, Value)>;

/// Distinct queries and the distinct answers each received.
#[derive(Debug, Default)]
struct Interner {
    keys: HashMap<QueryOp, usize>,
    queries: Vec<QueryOp>,
    /// Per query: the distinct answers seen, how many ops got each and
    /// the first op that did.
    answers: Vec<Vec<(Rows, u64, usize)>>,
    /// Failed calls: (op index, error).
    errors: Vec<(usize, String)>,
    ops: usize,
}

impl Interner {
    fn record(&mut self, op: QueryOp, answer: Result<Rows, String>) {
        let idx = self.ops;
        self.ops += 1;
        let rows = match answer {
            Ok(rows) => rows,
            Err(e) => {
                self.errors.push((idx, e));
                return;
            }
        };
        let k = match self.keys.get(&op) {
            Some(&k) => k,
            None => {
                self.queries.push(op.clone());
                self.answers.push(Vec::new());
                self.keys.insert(op, self.queries.len() - 1);
                self.queries.len() - 1
            }
        };
        let seen = &mut self.answers[k];
        match seen.iter_mut().find(|(a, _, _)| same_exports(a, &rows)) {
            Some((_, n, _)) => *n += 1,
            None => seen.push((rows, 1, idx)),
        }
    }
}

/// One connection's timed-phase samples.
#[derive(Debug, Default)]
struct Samples {
    rtt: Vec<f64>,
    /// (1 query, seconds since the previous completion) per query.
    steps: Vec<(f64, f64)>,
    exec_us: Vec<u64>,
    wire_us: Vec<f64>,
    traced: (Duration, usize),
    untraced: (Duration, usize),
}

/// One connection: its client, stream and answers.
struct Conn {
    client: Client,
    stream: SkyStream,
    seen: Interner,
}

impl Conn {
    /// One closed-loop query; with a tracer, split into send and receive
    /// spans plus the server-reported exec time. Returns the RTT and the
    /// server's `elapsed_us` (None on error).
    fn query(&mut self, tracer: Option<&mut Tracer>) -> (Duration, Option<u64>) {
        let op = self.stream.next().expect("the stream is endless");
        let name = SKY_TEMPLATES[op.template];
        let t0 = Instant::now();
        let (reply, t2) = match tracer {
            None => {
                let r = self.client.query(name, &op.params);
                (r, Instant::now())
            }
            Some(t) => {
                let sent = self.client.send_query(name, &op.params);
                let t1 = Instant::now();
                let r = sent.and_then(|id| self.client.recv_query(id));
                let t2 = Instant::now();
                let req = t.span("request", 0, 0, t0, t2);
                t.span("rcy_server.Client::send_query", req, req, t0, t1);
                let recv = t.span("rcy_server.Client::recv_query", req, req, t1, t2);
                if let Ok(r) = &r {
                    t.reported(
                        "rcy-server.exec",
                        recv,
                        req,
                        Duration::from_micros(r.elapsed_us),
                        0,
                    );
                }
                (r, t2)
            }
        };
        let exec = reply.as_ref().ok().map(|r| r.elapsed_us);
        self.seen
            .record(op, reply.map(|r| r.exports).map_err(|e| e.to_string()));
        (t2 - t0, exec)
    }
}

/// Set-up phase durations.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    gen: Duration,
    build: Duration,
    prepare: Duration,
    start: Duration,
    warmup: Duration,
}

impl SetupTimes {
    fn total(&self) -> Duration {
        self.gen + self.build + self.prepare + self.start + self.warmup
    }
}

struct Rig {
    db: Database,
    server: Server,
    conns: Vec<Conn>,
    twin_catalog: Catalog,
    times: SetupTimes,
}

fn setup(cfg: &RunConfig, mut tracer: Option<&mut Tracer>) -> Rig {
    let mut times = SetupTimes::default();
    let (catalog, gen) = timed(&mut tracer, "skyserver::generate", || {
        skyserver::generate(skyserver::SkyScale {
            objects: cfg.scale.sky_objects,
            seed: mix(cfg.seed, 0x5CA7),
        })
    });
    times.gen = gen;
    let twin_catalog = catalog.clone();
    let (db, build) = timed(&mut tracer, "recycling.DatabaseBuilder::build", || {
        DatabaseBuilder::new(catalog).build()
    });
    times.build = build;
    times.prepare = timed(&mut tracer, "recycling.Database::register", || {
        for (name, program) in SKY_TEMPLATES.iter().zip(SkyStream::templates()) {
            db.register(name, program);
        }
    })
    .1;
    let ((server, mut conns), start) = timed(&mut tracer, "rcy_server.Server::start", || {
        let config = ServerConfig {
            max_sessions: CONNECTIONS,
            ..ServerConfig::default()
        };
        let server =
            Server::start(db.clone(), "127.0.0.1:0", config).expect("server starts on loopback");
        let conns: Vec<Conn> = (0..CONNECTIONS)
            .map(|c| Conn {
                client: Client::connect(server.local_addr())
                    .expect("connect to the benchmark's own server"),
                stream: SkyStream::new(cfg.seed, c as u64),
                seen: Interner::default(),
            })
            .collect();
        (server, conns)
    });
    times.start = start;
    let warmup = cfg.scale.sky_warmup;
    times.warmup = timed(&mut tracer, "warmup", || {
        std::thread::scope(|s| {
            for conn in conns.iter_mut() {
                s.spawn(move || {
                    for _ in 0..warmup {
                        conn.query(None);
                    }
                });
            }
        })
    })
    .1;
    Rig {
        db,
        server,
        conns,
        twin_catalog,
        times,
    }
}

/// Drive one connection until the phase has lasted `seconds` and the
/// connection sent `min` queries. Chunks alternate traced / untraced
/// when a tracer is given.
fn drive(
    conn: &mut Conn,
    mut tracer: Option<&mut Tracer>,
    start: Instant,
    cfg: &RunConfig,
) -> Samples {
    let mut out = Samples::default();
    let chunk = cfg.scale.sky_chunk.max(1);
    let mut n = 0;
    let mut last = start;
    loop {
        let traced = tracer.is_some() && (n / chunk).is_multiple_of(2);
        let (rtt, exec) = conn.query(if traced { tracer.as_deref_mut() } else { None });
        n += 1;
        let now = Instant::now();
        out.steps.push((1.0, (now - last).as_secs_f64()));
        last = now;
        out.rtt.push(ms(rtt));
        if let Some(us) = exec {
            out.exec_us.push(us);
            out.wire_us.push(rtt.as_secs_f64() * 1e6 - us as f64);
        }
        let side = if traced {
            &mut out.traced
        } else {
            &mut out.untraced
        };
        side.0 += rtt;
        side.1 += 1;
        if n >= cfg.scale.sky_min_queries && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    out
}

/// Compare every distinct answer with the naive twin's, recording
/// failures and reassociated floats in `out`; returns the ops checked.
fn check(db: &Database, seen: &Interner, offset: usize, out: &mut Outcome) -> u64 {
    let templates: Vec<Program> = SkyStream::templates()
        .into_iter()
        .map(|t| db.prepare(t))
        .collect();
    let mut session = db.session();
    for (idx, e) in &seen.errors {
        out.failed += 1;
        out.mismatches
            .push((offset + idx, format!("call failed: {e}")));
    }
    for (q, answers) in seen.queries.iter().zip(&seen.answers) {
        let naive = session.query(&templates[q.template], &q.params);
        for (rows, count, first) in answers {
            let verdict = match &naive {
                Ok(n) => compare_exports(rows, &n.exports),
                Err(_) => Match::Differs,
            };
            if verdict == Match::Reassociated {
                out.reassociated += count;
            }
            if verdict == Match::Differs {
                out.failed += count;
                out.mismatches.push((
                    offset + first,
                    format!(
                        "{count} answer(s) to {} {:?} differ from the naive twin",
                        SKY_TEMPLATES[q.template], q.params
                    ),
                ));
            }
        }
    }
    seen.ops as u64
}

/// Run `sky_wire`.
pub fn run(cfg: &RunConfig) -> Outcome {
    let origin = Instant::now();
    let mut tracer = cfg.trace.then(|| Tracer::new(origin, 1));
    let mut setups = Vec::new();
    let mut rig: Option<Rig> = None;
    for _ in 0..cfg.scale.setups.max(1) {
        if let Some(old) = rig.take() {
            drop(old.conns);
            old.server.shutdown();
        }
        let r = setup(cfg, tracer.as_mut());
        setups.push(r.times);
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one set-up");

    let before = rig.db.stats();
    let start = Instant::now();
    let mut conn_tracers: Vec<Option<Tracer>> = (0..CONNECTIONS)
        .map(|c| cfg.trace.then(|| Tracer::new(origin, (c as u64 + 1) << 40)))
        .collect();
    let samples: Vec<Samples> = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .conns
            .iter_mut()
            .zip(conn_tracers.iter_mut())
            .map(|(conn, t)| s.spawn(move || drive(conn, t.as_mut(), start, cfg)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread completes"))
            .collect()
    });
    let after = rig.db.stats();
    let pool_bytes = rig.db.pool().bytes();
    let snap = cfg.trace.then(|| rig.db.snapshot());
    let rejected = rig.server.rejected_connections();

    // in-process pass over connection 0's stream: the rbat / rmal split
    // the wire cannot show, and the naive-twin speedup
    let mut inproc = Vec::new();
    let mut inproc_answers = Interner::default();
    let mut speedup = (Duration::ZERO, Duration::ZERO);
    let twin = DatabaseBuilder::new(rig.twin_catalog.clone())
        .naive()
        .build();
    if let Some(tracer) = tracer.as_mut() {
        let templates: Vec<Program> = SKY_TEMPLATES
            .iter()
            .map(|n| (*rig.db.template(n).expect("registered")).clone())
            .collect();
        let naive_templates: Vec<Program> = SkyStream::templates()
            .into_iter()
            .map(|t| twin.prepare(t))
            .collect();
        let mut session = rig.db.session();
        let mut naive = twin.session();
        for (i, op) in SkyStream::new(cfg.seed, 0)
            .take(cfg.scale.sky_inproc)
            .enumerate()
        {
            let (r, qt) = traced_query(
                &mut session,
                &templates[op.template],
                &op.params,
                tracer,
                1 + i as u64,
            );
            let t0 = Instant::now();
            let _ = naive.query(&naive_templates[op.template], &op.params);
            speedup.0 += t0.elapsed();
            speedup.1 += qt.outer;
            inproc.push(qt);
            inproc_answers.record(op, r.map_err(|e| e.to_string()));
        }
    }

    let mut out = Outcome::default();
    for seen in rig.conns.iter().map(|c| &c.seen).chain([&inproc_answers]) {
        out.attempted += check(&twin, seen, out.attempted as usize, &mut out);
    }
    let errors: usize = rig.conns.iter().map(|c| c.seen.errors.len()).sum();

    let mut rtt: Vec<f64> = samples.iter().flat_map(|s| s.rtt.iter().copied()).collect();
    let e2e = &mut out.end_to_end;
    let mut totals: Vec<f64> = setups.iter().map(|s| s.total().as_secs_f64()).collect();
    push(e2e, "setup_s", median(&mut totals), "s");
    let qps: f64 = samples
        .iter()
        .map(|s| median_rate(&s.steps, QPS_WINDOW))
        .sum();
    push(e2e, "qps", qps, "1/s");
    let series: Vec<&[f64]> = samples.iter().map(|s| s.rtt.as_slice()).collect();
    push(e2e, "query_p50_ms", percentile(&mut rtt, 50.0), "ms");
    push(e2e, "query_p90_ms", percentile(&mut rtt, 90.0), "ms");
    push(
        e2e,
        "query_p99_ms",
        windowed_percentile(&series, 99.0),
        "ms",
    );
    push(
        e2e,
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    push(e2e, "pool_mib", pool_bytes as f64 / MIB, "MiB");

    if let Some(mut tracer) = tracer {
        let layer = &mut out.per_layer;
        let med = |f: fn(&SetupTimes) -> Duration| {
            median(
                &mut setups
                    .iter()
                    .map(|s| f(s).as_secs_f64())
                    .collect::<Vec<_>>(),
            )
        };
        push(layer, "skyserver.gen_s", med(|s| s.gen), "s");
        push(layer, "recycling.build_s", med(|s| s.build), "s");
        push(layer, "rmal.prepare_ms", med(|s| s.prepare) * 1e3, "ms");
        push(layer, "rcy-server.start_ms", med(|s| s.start) * 1e3, "ms");
        push(layer, "recycler.warmup_s", med(|s| s.warmup), "s");
        let mut exec: Vec<u64> = samples
            .iter()
            .flat_map(|s| s.exec_us.iter().copied())
            .collect();
        let mut wire: Vec<f64> = samples
            .iter()
            .flat_map(|s| s.wire_us.iter().copied())
            .collect();
        push(
            layer,
            "rcy-server.exec_p50_us",
            grouped_percentile(&mut exec, 50.0),
            "us",
        );
        push(
            layer,
            "rcy-server.exec_p99_us",
            grouped_percentile(&mut exec, 99.0),
            "us",
        );
        push(
            layer,
            "rcy-server.wire_p50_us",
            percentile(&mut wire, 50.0),
            "us",
        );
        push(
            layer,
            "rcy-server.wire_p99_us",
            percentile(&mut wire, 99.0),
            "us",
        );
        push(
            layer,
            "rcy-server.error_replies",
            (errors as u64 + rejected) as f64,
            "count",
        );
        let residual = layer_split(layer, &inproc);
        let snap = snap.expect("traced runs snapshot the pool");
        recycler_metrics(layer, &before, &after, &snap);
        push(
            layer,
            "recycler.speedup_vs_naive",
            speedup.0.as_secs_f64() / speedup.1.as_secs_f64().max(f64::MIN_POSITIVE),
            "x",
        );
        let mean_rtt = |(t, n): (Duration, usize)| t.as_secs_f64() / n.max(1) as f64;
        let traced: f64 = samples.iter().map(|s| mean_rtt(s.traced)).sum();
        let untraced: f64 = samples.iter().map(|s| mean_rtt(s.untraced)).sum();
        // qps is inverse to the mean RTT of a closed loop
        push(
            layer,
            "bench.trace_overhead_pct",
            (1.0 - untraced / traced.max(f64::MIN_POSITIVE)) * 100.0,
            "%",
        );
        push(layer, "bench.attribution_residual_pct", residual, "%");
        push(
            layer,
            "bench.reassociated_answers",
            out.reassociated as f64,
            "count",
        );
        for t in conn_tracers.into_iter().flatten() {
            tracer.absorb(t);
        }
        write_spans(cfg, &tracer);
    }
    let Rig { conns, server, .. } = rig;
    for conn in conns {
        let _ = conn.client.close();
    }
    server.shutdown();
    out
}
