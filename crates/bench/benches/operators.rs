//! Micro-benchmarks of the binary relational algebra — the per-operator
//! costs that determine which intermediates are worth recycling.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rbat::ops::{self, GrpFunc, SelectBounds};
use rbat::{Bat, Column, Props, Value};

fn make_int_bat(n: usize) -> Bat {
    let vals: Vec<i64> = (0..n as i64)
        .map(|i| (i * 2_654_435_761) % n as i64)
        .collect();
    Bat::from_tail(Column::from_ints(vals))
}

fn make_oid_pair(n: usize) -> (Bat, Bat) {
    let l = Bat::new(
        Column::from_oids((0..n as u64).collect()),
        Column::from_oids((0..n as u64).map(|i| (i * 7) % n as u64).collect()),
        Props::default(),
    );
    let r = Bat::from_tail(Column::from_ints((0..n as i64).collect()));
    (l, r)
}

fn bench_select(c: &mut Criterion) {
    let mut g = c.benchmark_group("select");
    for n in [10_000usize, 100_000] {
        let b = make_int_bat(n);
        let bounds = SelectBounds::closed(Value::Int(n as i64 / 4), Value::Int(n as i64 / 2));
        g.bench_with_input(BenchmarkId::new("range_unsorted", n), &n, |bench, _| {
            bench.iter(|| ops::select(black_box(&b), black_box(&bounds)).unwrap())
        });
        let sorted = Bat::from_tail(Column::from_ints((0..n as i64).collect()));
        g.bench_with_input(BenchmarkId::new("range_sorted_view", n), &n, |bench, _| {
            bench.iter(|| ops::select(black_box(&sorted), black_box(&bounds)).unwrap())
        });
    }
    g.finish();
}

fn bench_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("join");
    for n in [10_000usize, 100_000] {
        let (l, r) = make_oid_pair(n);
        g.bench_with_input(BenchmarkId::new("fetch_dense", n), &n, |bench, _| {
            bench.iter(|| ops::join(black_box(&l), black_box(&r)).unwrap())
        });
        let r_hash = Bat::new(
            Column::from_oids((0..n as u64).rev().collect()),
            Column::from_ints((0..n as i64).collect()),
            Props::default(),
        );
        g.bench_with_input(BenchmarkId::new("hash", n), &n, |bench, _| {
            bench.iter(|| ops::join(black_box(&l), black_box(&r_hash)).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("semijoin", n), &n, |bench, _| {
            bench.iter(|| ops::semijoin(black_box(&l), black_box(&r_hash)).unwrap())
        });
        // Keys spread over the whole u64 range, so the build's hash map
        // sees scattered keys rather than a small dense run.
        let spread = |k: u64| k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let l_sparse = Bat::new(
            Column::from_oids((0..n as u64).collect()),
            Column::from_oids((0..n as u64).map(|i| spread((i * 7) % n as u64)).collect()),
            Props::default(),
        );
        let r_sparse = Bat::new(
            Column::from_oids((0..n as u64).rev().map(spread).collect()),
            Column::from_ints((0..n as i64).collect()),
            Props::default(),
        );
        g.bench_with_input(BenchmarkId::new("hash_sparse", n), &n, |bench, _| {
            bench.iter(|| ops::join(black_box(&l_sparse), black_box(&r_sparse)).unwrap())
        });
    }
    // The foreign-key filter of TPC-H plans: a 60k-row join index,
    // reversed so its targets (25 nations) are the head, semijoined with
    // the 22 nations a selection kept.
    let index = Bat::from_tail(Column::from_oids(
        (0..60_000u64).map(|i| (i * 7) % 25).collect(),
    ));
    let fk = index.reverse();
    let kept = Bat::new(
        Column::from_oids((0..25).filter(|k| k % 8 != 3).collect()),
        Column::from_ints(vec![0; 22]),
        Props::default(),
    );
    assert_eq!(kept.len(), 22);
    g.bench_function("fk_filter", |bench| {
        bench.iter(|| ops::semijoin(black_box(&fk), black_box(&kept)).unwrap())
    });
    g.finish();
}

fn bench_group_aggr(c: &mut Criterion) {
    let mut g = c.benchmark_group("group_aggr");
    for n in [10_000usize, 100_000] {
        let keys = Bat::from_tail(Column::from_ints((0..n as i64).map(|i| i % 1000).collect()));
        let vals = Bat::from_tail(Column::from_floats((0..n).map(|i| i as f64).collect()));
        g.bench_with_input(BenchmarkId::new("group", n), &n, |bench, _| {
            bench.iter(|| ops::group(black_box(&keys)).unwrap())
        });
        let groups = ops::group(&keys).unwrap();
        g.bench_with_input(BenchmarkId::new("grp_sum", n), &n, |bench, _| {
            bench
                .iter(|| ops::grp_aggr(black_box(&vals), black_box(&groups), GrpFunc::Sum).unwrap())
        });
    }
    g.finish();
}

fn bench_zero_cost_views(c: &mut Criterion) {
    let b = make_int_bat(100_000);
    c.bench_function("view/reverse", |bench| {
        bench.iter(|| black_box(&b).reverse())
    });
    c.bench_function("view/mark_t", |bench| {
        bench.iter(|| black_box(&b).mark_t(0))
    });
    c.bench_function("view/mirror", |bench| bench.iter(|| black_box(&b).mirror()));
}

criterion_group!(
    benches,
    bench_select,
    bench_join,
    bench_group_aggr,
    bench_zero_cost_views
);
criterion_main!(benches);
