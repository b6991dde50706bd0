//! `tpch_tight` and `tpch_refresh`: the TPC-H mixed batch in one
//! in-process session, in rounds of 20 queries. On `tpch_refresh` every
//! round ends with a §7.4 update block of four `Session::commit` calls.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rbat::catalog::CommitReport;
use rbat::{Catalog, Value};
use recycling::{Database, DatabaseBuilder, PoolSnapshot, RecyclerStats, Session, Update};
use rmal::Program;

use crate::report::{push, Outcome};
use crate::stats::{median, median_rate, percentile, windowed_percentile};
use crate::stream::{QueryOp, TpchStream, UpdateStream};
use crate::trace::{layer_split, timed, traced_query, QueryTrace, Tracer};
use crate::{compare_exports, ms, recycler_metrics, write_spans, Match, RunConfig, Workload, MIB};

/// Queries per round.
const ROUND: usize = 20;

/// Queries per window of the `qps` median (ten rounds).
const QPS_WINDOW: f64 = 200.0;

/// One executed operation.
#[derive(Debug, Clone)]
enum Op {
    /// A query.
    Query(QueryOp),
    /// A commit.
    Commit(Update),
}

/// What a commit reported, in a form both engines produce identically.
#[derive(Debug, Clone, PartialEq)]
struct CommitSummary {
    /// Table updated.
    table: String,
    /// Rows appended.
    inserted: usize,
    /// OIDs deleted.
    deleted: Vec<u64>,
    /// New table version.
    version: u64,
}

impl CommitSummary {
    fn of(r: &CommitReport) -> CommitSummary {
        CommitSummary {
            table: r.table.clone(),
            inserted: r.inserted.first().map_or(0, |(_, b)| b.len()),
            deleted: r.deleted.clone(),
            version: r.version,
        }
    }
}

/// An operation's answer.
#[derive(Debug, Clone)]
enum Answer {
    /// A query's exports.
    Rows(Vec<(String, Value)>),
    /// A commit's report.
    Commit(CommitSummary),
    /// The call failed.
    Failed(String),
}

/// One executed operation with its answer and latency.
#[derive(Debug, Clone)]
struct Done {
    /// The operation.
    op: Op,
    /// Its answer.
    answer: Answer,
    /// Wall time of the public call.
    latency: Duration,
}

/// Set-up phase durations.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    gen: Duration,
    build: Duration,
    prepare: Duration,
    warmup: Duration,
}

/// A database, its session and the streams that drive it.
struct Rig {
    db: Database,
    session: Session,
    templates: Vec<Program>,
    twin_catalog: Catalog,
    queries: TpchStream,
    updates: Option<UpdateStream>,
    log: Vec<Done>,
    times: SetupTimes,
}

fn setup(cfg: &RunConfig, mut tracer: Option<&mut Tracer>) -> Rig {
    let scale = cfg.scale;
    let refresh = cfg.workload == Workload::TpchRefresh;
    let (catalog, gen) = timed(&mut tracer, "tpch::generate", || {
        tpch::generate(tpch::TpchScale::new(scale.tpch_sf))
    });
    let twin_catalog = catalog.clone();
    let (db, build) = timed(&mut tracer, "recycling.DatabaseBuilder::build", || {
        let builder = DatabaseBuilder::new(catalog);
        if refresh {
            builder.build()
        } else {
            builder.memory_budget(scale.tight_cap).build()
        }
    });
    let (templates, prepare) = timed(&mut tracer, "recycling.Database::prepare", || {
        TpchStream::templates()
            .into_iter()
            .map(|t| db.prepare(t))
            .collect::<Vec<_>>()
    });
    let session = db.session();
    let mut rig = Rig {
        db,
        session,
        templates,
        twin_catalog,
        queries: TpchStream::new(cfg.seed),
        updates: refresh.then(|| UpdateStream::new(cfg.seed)),
        log: Vec::new(),
        times: SetupTimes {
            gen,
            build,
            prepare,
            warmup: Duration::ZERO,
        },
    };
    let rounds = if refresh {
        scale.warmup_rounds.1
    } else {
        scale.warmup_rounds.0
    };
    let t0 = Instant::now();
    for _ in 0..rounds {
        run_round(&mut rig, None, &mut Vec::new());
    }
    let t1 = Instant::now();
    if let Some(t) = tracer {
        t.span("warmup", 0, 0, t0, t1);
    }
    rig.times.warmup = t1 - t0;
    rig
}

fn commit(rig: &mut Rig, update: Update, tracer: Option<&mut Tracer>) {
    let req = rig.log.len() as u64 + 1;
    let t0 = Instant::now();
    let r = rig.session.commit(update.clone());
    let t1 = Instant::now();
    if let Some(t) = tracer {
        t.span("recycling.Session::commit", 0, req, t0, t1);
    }
    let answer = match r {
        Ok(report) => Answer::Commit(CommitSummary::of(&report)),
        Err(e) => Answer::Failed(e.to_string()),
    };
    rig.log.push(Done {
        op: Op::Commit(update),
        answer,
        latency: t1 - t0,
    });
}

/// One round: 20 queries, then the update block when the rig has one.
/// Returns the time spent generating the block, which is not the
/// system's time.
fn run_round(
    rig: &mut Rig,
    mut tracer: Option<&mut Tracer>,
    traces: &mut Vec<QueryTrace>,
) -> Duration {
    for _ in 0..ROUND {
        let q = rig.queries.next().expect("the stream is endless");
        let template = &rig.templates[q.template];
        let (answer, latency) = match tracer.as_deref_mut() {
            Some(t) => {
                let req = rig.log.len() as u64 + 1;
                let (r, qt) = traced_query(&mut rig.session, template, &q.params, t, req);
                traces.push(qt);
                (r, qt.outer)
            }
            None => {
                let t0 = Instant::now();
                let r = rig.session.query(template, &q.params).map(|r| r.exports);
                (r, t0.elapsed())
            }
        };
        rig.log.push(Done {
            op: Op::Query(q),
            answer: answer.map_or_else(|e| Answer::Failed(e.to_string()), Answer::Rows),
            latency,
        });
    }
    let mut generating = Duration::ZERO;
    if let Some(mut updates) = rig.updates.take() {
        let g = Instant::now();
        let inserts = updates.inserts(&rig.db.catalog());
        generating += g.elapsed();
        for u in inserts {
            commit(rig, u, tracer.as_deref_mut());
        }
        let g = Instant::now();
        let deletes = updates.deletes(&rig.db.catalog());
        generating += g.elapsed();
        for u in deletes {
            commit(rig, u, tracer.as_deref_mut());
        }
        rig.updates = Some(updates);
    }
    generating
}

/// The timed phase's measurements.
#[derive(Default)]
struct Phase {
    first_op: usize,
    /// (queries, seconds) of each round, generation time excluded.
    rounds: Vec<(f64, f64)>,
    traces: Vec<QueryTrace>,
    traced: (Duration, usize),
    untraced: (Duration, usize),
    /// Recycler counters before and after the counter window (the first
    /// `min_rounds` rounds), the pool at its end, and how many traced
    /// queries it holds: every count reported is over this window, so it
    /// repeats exactly from run to run.
    window: Option<(RecyclerStats, RecyclerStats, PoolSnapshot, usize)>,
    pool_bytes: usize,
}

/// Rounds until the phase has lasted `cfg.seconds` and covered the
/// counter window. In a traced run, even rounds are traced and odd ones
/// are not, so the tracing overhead is measured within one run.
fn timed_phase(rig: &mut Rig, cfg: &RunConfig, mut tracer: Option<&mut Tracer>) -> Phase {
    let mut phase = Phase {
        first_op: rig.log.len(),
        ..Phase::default()
    };
    let before = rig.db.stats();
    let mut excluded = Duration::ZERO;
    let start = Instant::now();
    let mut round = 0;
    loop {
        let traced = tracer.is_some() && round % 2 == 0;
        let t0 = Instant::now();
        let generating = run_round(
            rig,
            if traced { tracer.as_deref_mut() } else { None },
            &mut phase.traces,
        );
        let spent = t0.elapsed() - generating;
        phase.rounds.push((ROUND as f64, spent.as_secs_f64()));
        let side = if traced {
            &mut phase.traced
        } else {
            &mut phase.untraced
        };
        side.0 += spent;
        side.1 += ROUND;
        excluded += generating;
        round += 1;
        if round == cfg.scale.min_rounds && tracer.is_some() {
            let t0 = Instant::now();
            phase.window = Some((
                before.clone(),
                rig.db.stats(),
                rig.db.snapshot(),
                phase.traces.len(),
            ));
            excluded += t0.elapsed();
        }
        if round >= cfg.scale.min_rounds
            && (start.elapsed() - excluded).as_secs_f64() >= cfg.seconds
        {
            break;
        }
    }

    phase.pool_bytes = rig.db.pool().bytes();
    phase
}

/// The naive twin's replay of the whole op log.
struct Check {
    mismatches: Vec<(usize, String)>,
    reassociated: u64,
    /// Naive time of each op, aligned with the log.
    naive: Vec<Duration>,
}

/// Replay every logged op, commits included and in order, on a naive
/// database over the same initial catalog, and compare each answer. A
/// query repeated since the last commit takes its first run's answer and
/// time: the naive engine keeps no state between queries, so rerunning it
/// would only cost the benchmark time.
fn check(rig: &Rig) -> Check {
    let db = DatabaseBuilder::new(rig.twin_catalog.clone())
        .naive()
        .build();
    let templates: Vec<Program> = TpchStream::templates()
        .into_iter()
        .map(|t| db.prepare(t))
        .collect();
    let mut session = db.session();
    let mut out = Check {
        mismatches: Vec::new(),
        reassociated: 0,
        naive: Vec::with_capacity(rig.log.len()),
    };
    let mut memo: HashMap<&QueryOp, (recycling::Result<Answer>, Duration)> = HashMap::new();
    for (i, done) in rig.log.iter().enumerate() {
        let (naive, took) = match &done.op {
            Op::Query(q) => memo
                .entry(q)
                .or_insert_with(|| {
                    let t0 = Instant::now();
                    let r = session.query(&templates[q.template], &q.params);
                    (r.map(|r| Answer::Rows(r.exports)), t0.elapsed())
                })
                .clone(),
            Op::Commit(u) => {
                memo.clear();
                let t0 = Instant::now();
                let r = session.commit(u.clone());
                (
                    r.map(|r| Answer::Commit(CommitSummary::of(&r))),
                    t0.elapsed(),
                )
            }
        };
        out.naive.push(took);
        let same = match (&done.answer, &naive) {
            (Answer::Failed(e), _) => {
                out.mismatches
                    .push((i, format!("recycled call failed: {e}")));
                continue;
            }
            (_, Err(e)) => {
                out.mismatches.push((i, format!("naive call failed: {e}")));
                continue;
            }
            (Answer::Rows(a), Ok(Answer::Rows(b))) => compare_exports(a, b),
            (Answer::Commit(a), Ok(Answer::Commit(b))) if a == b => Match::Exact,
            _ => Match::Differs,
        };
        match same {
            Match::Exact => {}
            Match::Reassociated => out.reassociated += 1,
            Match::Differs => out.mismatches.push((
                i,
                format!(
                    "{}: recycled {:?}, naive {:?}",
                    done.op_label(),
                    done.answer,
                    naive.ok()
                ),
            )),
        }
    }
    out
}

impl Done {
    fn op_label(&self) -> String {
        match &self.op {
            Op::Query(q) => format!("query template {} params {:?}", q.template, q.params),
            Op::Commit(u) => format!("commit on {}", u.table),
        }
    }
}

/// Run `tpch_tight` or `tpch_refresh`.
pub fn run(cfg: &RunConfig) -> Outcome {
    let origin = Instant::now();
    let mut tracer = cfg.trace.then(|| Tracer::new(origin, 1));
    let mut setups = Vec::new();
    let mut rig: Option<Rig> = None;
    for _ in 0..cfg.scale.setups.max(1) {
        // drop the previous rig first so set-ups do not overlap in memory
        drop(rig.take());
        let r = setup(cfg, tracer.as_mut());
        setups.push(r.times);
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one set-up");
    let phase = timed_phase(&mut rig, cfg, tracer.as_mut());
    let checked = check(&rig);
    let timed_ops = &rig.log[phase.first_op..];

    let mut query_ms = Vec::new();
    let mut commit_ms = Vec::new();
    let mut naive_commit_ms = Vec::new();
    let (mut recycled_wall, mut naive_wall) = (Duration::ZERO, Duration::ZERO);
    for (done, naive) in timed_ops.iter().zip(&checked.naive[phase.first_op..]) {
        match done.op {
            Op::Query(_) => query_ms.push(ms(done.latency)),
            Op::Commit(_) => {
                commit_ms.push(ms(done.latency));
                naive_commit_ms.push(ms(*naive));
            }
        }
        recycled_wall += done.latency;
        naive_wall += *naive;
    }

    let mut out = Outcome {
        attempted: rig.log.len() as u64,
        failed: checked.mismatches.len() as u64,
        mismatches: checked.mismatches,
        reassociated: checked.reassociated,
        ..Outcome::default()
    };
    let e2e = &mut out.end_to_end;
    let mut totals: Vec<f64> = setups
        .iter()
        .map(|s| (s.gen + s.build + s.prepare + s.warmup).as_secs_f64())
        .collect();
    push(e2e, "setup_s", median(&mut totals), "s");
    push(e2e, "qps", median_rate(&phase.rounds, QPS_WINDOW), "1/s");
    // windows in measurement order, before `percentile` sorts the samples
    let p99 = windowed_percentile(&[&query_ms], 99.0);
    push(e2e, "query_p50_ms", percentile(&mut query_ms, 50.0), "ms");
    push(e2e, "query_p90_ms", percentile(&mut query_ms, 90.0), "ms");
    push(e2e, "query_p99_ms", p99, "ms");
    let commit_p50 = percentile(&mut commit_ms, 50.0);
    if cfg.workload == Workload::TpchRefresh {
        push(e2e, "commit_p50_ms", commit_p50, "ms");
        push(e2e, "commit_p90_ms", percentile(&mut commit_ms, 90.0), "ms");
    }
    push(
        e2e,
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    push(e2e, "pool_mib", phase.pool_bytes as f64 / MIB, "MiB");

    if let Some(tracer) = tracer {
        let layer = &mut out.per_layer;
        let med = |f: fn(&SetupTimes) -> Duration| {
            median(
                &mut setups
                    .iter()
                    .map(|s| f(s).as_secs_f64())
                    .collect::<Vec<_>>(),
            )
        };
        push(layer, "tpch.gen_s", med(|s| s.gen), "s");
        push(layer, "recycling.build_s", med(|s| s.build), "s");
        push(layer, "rmal.prepare_ms", med(|s| s.prepare) * 1e3, "ms");
        push(layer, "recycler.warmup_s", med(|s| s.warmup), "s");
        push(layer, "rcy-server.error_replies", 0.0, "count");
        let (before, after, snap, traced) = phase
            .window
            .as_ref()
            .expect("traced runs capture the window");
        let residual = layer_split(layer, &phase.traces[..*traced]);
        if cfg.workload == Workload::TpchRefresh {
            let naive_p50 = percentile(&mut naive_commit_ms, 50.0);
            push(layer, "rbat.commit_p50_ms", naive_p50, "ms");
            push(
                layer,
                "recycler.commit_extra_ms",
                commit_p50 - naive_p50,
                "ms",
            );
        }
        recycler_metrics(layer, before, after, snap);
        push(
            layer,
            "recycler.speedup_vs_naive",
            naive_wall.as_secs_f64() / recycled_wall.as_secs_f64().max(f64::MIN_POSITIVE),
            "x",
        );
        let qps = |(t, n): (Duration, usize)| n as f64 / t.as_secs_f64().max(f64::MIN_POSITIVE);
        let (traced, untraced) = (qps(phase.traced), qps(phase.untraced));
        push(
            layer,
            "bench.trace_overhead_pct",
            (untraced - traced) / untraced.max(f64::MIN_POSITIVE) * 100.0,
            "%",
        );
        push(layer, "bench.attribution_residual_pct", residual, "%");
        push(
            layer,
            "bench.reassociated_answers",
            out.reassociated as f64,
            "count",
        );
        write_spans(cfg, &tracer);
    }
    out
}
