//! Self-tests of the benchmark: seeded streams repeat, the percentile
//! helpers pick the right sample, and a tiny run of every workload emits
//! every metric with no failed answer, at two seeds.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::stats::{percentile, rank};
use perfbench::stream::{SkyStream, TpchStream, UpdateStream};
use perfbench::{run, Outcome, RunConfig, Scale, Workload};
use recycling::{DatabaseBuilder, Update};

#[test]
fn same_seed_same_query_streams() {
    let a: Vec<_> = TpchStream::new(7).take(450).collect();
    let b: Vec<_> = TpchStream::new(7).take(450).collect();
    let c: Vec<_> = TpchStream::new(8).take(450).collect();
    assert_eq!(a, b);
    assert_ne!(a, c);
    for client in 0..2 {
        let a: Vec<_> = SkyStream::new(7, client).take(2500).collect();
        let b: Vec<_> = SkyStream::new(7, client).take(2500).collect();
        assert_eq!(a, b);
    }
    let c0: Vec<_> = SkyStream::new(7, 0).take(100).collect();
    let c1: Vec<_> = SkyStream::new(7, 1).take(100).collect();
    assert_ne!(c0, c1, "connections draw distinct streams");
}

/// Three update blocks of `seed`, committed on a naive database so each
/// block is drawn against the catalog the previous one left.
fn update_blocks(seed: u64) -> Vec<String> {
    let db = DatabaseBuilder::new(tpch::generate(tpch::TpchScale::new(0.001)))
        .naive()
        .build();
    let mut session = db.session();
    let mut updates = UpdateStream::new(seed);
    let mut out = Vec::new();
    for _ in 0..3 {
        let inserts = updates.inserts(&db.catalog());
        let apply = |session: &mut recycling::Session, u: Update, out: &mut Vec<String>| {
            out.push(format!("{u:?}"));
            session.commit(u).expect("update commits");
        };
        for u in inserts {
            apply(&mut session, u, &mut out);
        }
        for u in updates.deletes(&db.catalog()) {
            apply(&mut session, u, &mut out);
        }
    }
    out
}

#[test]
fn same_seed_same_update_stream() {
    let a = update_blocks(3);
    assert_eq!(a.len(), 12);
    assert_eq!(a, update_blocks(3));
    assert_ne!(a, update_blocks(4));
}

#[test]
fn percentile_boundaries() {
    // nearest rank: the p99 of 100 samples is the 99th, of 1000 the 990th
    assert_eq!(rank(100, 99.0), 98);
    assert_eq!(rank(1000, 99.0), 989);
    assert_eq!(rank(1001, 99.0), 990);
    assert_eq!(rank(1, 99.0), 0);
    assert_eq!(rank(2, 50.0), 0);
    assert_eq!(rank(3, 50.0), 1);
    assert_eq!(rank(10, 0.0), 0);
    assert_eq!(rank(10, 100.0), 9);
    assert_eq!(rank(10, 150.0), 9);
    let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&mut v, 99.0), 99.0);
    assert_eq!(percentile(&mut v, 50.0), 50.0);
    assert_eq!(percentile(&mut v, 100.0), 100.0);
    assert_eq!(percentile(&mut [], 50.0), 0.0);
    assert_eq!(percentile(&mut [4.0], 99.0), 4.0);
}

/// Every metric the report prints for `w`, end-to-end and per layer.
fn expected(w: Workload) -> Vec<&'static str> {
    let mut names = vec![
        "setup_s",
        "qps",
        "query_p50_ms",
        "query_p90_ms",
        "query_p99_ms",
        "failed_ratio",
        "pool_mib",
    ];
    names.extend([
        "recycling.build_s",
        "rmal.prepare_ms",
        "recycler.warmup_s",
        "rcy-server.error_replies",
        "rmal.instrs_per_query",
        "rmal.marked_per_query",
        "rbat.kernel_ms_per_query",
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
        "recycler.subsume_search_ms",
        "recycler.time_saved_ms",
        "recycler.admit_reuse_ratio",
        "recycler.pool_entries",
        "recycler.spilled_mib",
        "recycler.speedup_vs_naive",
        "bench.trace_overhead_pct",
        "bench.attribution_residual_pct",
        "bench.reassociated_answers",
    ]);
    match w {
        Workload::SkyWire => names.extend([
            "skyserver.gen_s",
            "rcy-server.start_ms",
            "rcy-server.exec_p50_us",
            "rcy-server.exec_p99_us",
            "rcy-server.wire_p50_us",
            "rcy-server.wire_p99_us",
        ]),
        Workload::TpchTight => names.push("tpch.gen_s"),
        Workload::TpchRefresh => names.extend([
            "tpch.gen_s",
            "commit_p50_ms",
            "commit_p90_ms",
            "rbat.commit_p50_ms",
            "recycler.commit_extra_ms",
        ]),
    }
    names
}

fn tiny(w: Workload, seed: u64) -> Outcome {
    run(&RunConfig {
        workload: w,
        seed,
        seconds: 0.0,
        trace: true,
        scale: Scale::tiny(),
        trace_dir: None,
    })
}

fn names(o: &Outcome) -> Vec<&'static str> {
    let mut v: Vec<_> = o
        .end_to_end
        .iter()
        .chain(&o.per_layer)
        .map(|m| m.name)
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn tiny_runs_emit_every_metric_at_two_seeds() {
    for w in Workload::ALL {
        let first = tiny(w, 1);
        let mut want = expected(w);
        want.sort_unstable();
        assert_eq!(names(&first), want, "{}", w.name());
        assert!(first.correct(), "{}: {}", w.name(), first.render());
        assert!(first.attempted > 0);
        for m in first.end_to_end.iter().chain(&first.per_layer) {
            assert!(m.value.is_finite(), "{} {} = {}", w.name(), m.name, m.value);
        }
        // both result lines can be built from what was measured
        first.json_line(&END_TO_END);
        first.json_line(&PER_LAYER);

        let second = tiny(w, 2);
        assert_eq!(names(&second), names(&first), "{}", w.name());
        assert_eq!(second.metric("failed_ratio").map(|m| m.value), Some(0.0));
        assert!(second.correct(), "{}: {}", w.name(), second.render());
    }
}

#[test]
fn untraced_runs_report_end_to_end_only() {
    let o = run(&RunConfig {
        workload: Workload::TpchTight,
        seed: 1,
        seconds: 0.0,
        trace: false,
        scale: Scale::tiny(),
        trace_dir: None,
    });
    assert!(o.per_layer.is_empty());
    let line = o.json_line(&END_TO_END);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    for name in END_TO_END {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{line}"
        );
    }
}

/// The metric names of one list in `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("list present");
    let end = json[start..].find(']').expect("list closes") + start;
    json[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn result_lines_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(listed(&json, "end_to_end"), END_TO_END);
    assert_eq!(listed(&json, "per_layer"), PER_LAYER);
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed(&json, "workloads"), workloads);
}
