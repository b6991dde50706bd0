//! Property-based tests of the relational algebra's core invariants.

use proptest::prelude::*;
use rbat::ops::{self, GrpFunc, SelectBounds};
use rbat::{Bat, Column, ColumnBuilder, Date, LogicalType, Oid, Props, Value};

fn int_bat(vals: Vec<i64>) -> Bat {
    Bat::from_tail(Column::from_ints(vals))
}

/// Float keys that compare by bit pattern: `-0.0 != 0.0`, NaN matches NaN.
const FLOAT_KEYS: [f64; 8] = [
    0.0,
    -0.0,
    f64::NAN,
    1.5,
    -2.25,
    f64::INFINITY,
    f64::MIN_POSITIVE,
    1e300,
];

/// A key column of type `ty` (0 Int, 1 Date, 2 Oid, 3 Float, 4 Str) from
/// generated `(key code, roll)` rows, NULL where the roll is 0, over one
/// of three domains: `shape` 0 is small and non-negative, 1 is small
/// and negative (sign-extended keys near `u64::MAX`), 2 is sparse, which
/// forces the hash-set membership kernel.
fn key_column(ty: u8, shape: u8, raw: &[(u64, u8)]) -> Column {
    let lt = [
        LogicalType::Int,
        LogicalType::Date,
        LogicalType::Oid,
        LogicalType::Float,
        LogicalType::Str,
    ][ty as usize];
    let mut b = ColumnBuilder::new(lt);
    for &(k, roll) in raw {
        let v = match (roll, ty, shape) {
            (0, ..) => Value::Nil,
            (_, 0, 0) => Value::Int(k as i64),
            (_, 0, 1) => Value::Int(k as i64 - 40),
            (_, 0, _) => Value::Int((k as i64 - 12) * 1_000_000_007),
            (_, 1, 0) => Value::Date(Date(k as i32)),
            (_, 1, 1) => Value::Date(Date(k as i32 - 40)),
            (_, 1, _) => Value::Date(Date(k as i32 * 99_991)),
            (_, 2, 2) => Value::Oid(Oid(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))),
            (_, 2, _) => Value::Oid(Oid(k)),
            (_, 3, _) => Value::Float(FLOAT_KEYS[k as usize % 8] * (1 + k / 8) as f64),
            (_, _, 2) => Value::str(&format!("ключ-{}", k * 7919)),
            _ => Value::str(&"k".repeat(k as usize % 5)),
        };
        b.push(&v);
    }
    b.finish()
}

/// Key equality as the kernels define it: NULL matches nothing, floats
/// compare by bits.
fn same_key(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Nil, _) | (_, Value::Nil) => false,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// A BAT's tuples in order, floats spelled by their bits.
fn tuples(b: &Bat) -> Vec<String> {
    (0..b.len())
        .map(|i| format!("{:?}", (b.head().value(i), b.tail().value(i))))
        .collect()
}

/// `(head, tail)` of the full columns, cut to the window that leaves out
/// `pre` leading and `post` trailing rows where there are enough.
fn window(head: Column, tail: Column, pre: usize, post: usize) -> Bat {
    let n = head.len();
    let from = pre.min(n);
    let len = n - from - post.min(n - from);
    Bat::new(head, tail, Props::default()).slice(from, len)
}

/// Nested-loop join: `l` order, then `r` order within a key.
fn model_join(l: &Bat, r: &Bat) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..l.len() {
        for j in 0..r.len() {
            if same_key(&l.tail().value(i), &r.head().value(j)) {
                out.push(format!("{:?}", (l.head().value(i), r.tail().value(j))));
            }
        }
    }
    out
}

/// Nested-loop semijoin (`keep_members`) or diff: `l` rows with a
/// non-NULL head, in `l` order.
fn model_filter(l: &Bat, r: &Bat, keep_members: bool) -> Vec<String> {
    (0..l.len())
        .filter(|&i| {
            let k = l.head().value(i);
            !k.is_nil() && (0..r.len()).any(|j| same_key(&k, &r.head().value(j))) == keep_members
        })
        .map(|i| format!("{:?}", (l.head().value(i), l.tail().value(i))))
        .collect()
}

proptest! {
    /// select(b, lo, hi) returns exactly the tuples whose tail is in range,
    /// regardless of the sorted-view fast path.
    #[test]
    fn select_matches_filter(vals in prop::collection::vec(-100i64..100, 0..200),
                             a in -120i64..120, b in -120i64..120) {
        let (lo, hi) = (a.min(b), a.max(b));
        let bat = int_bat(vals.clone());
        let bounds = SelectBounds::closed(Value::Int(lo), Value::Int(hi));
        let got = ops::select(&bat, &bounds).unwrap();
        let expect = vals.iter().filter(|&&v| v >= lo && v <= hi).count();
        prop_assert_eq!(got.len(), expect);
        for i in 0..got.len() {
            let v = got.tail().value(i).as_int().unwrap();
            prop_assert!(v >= lo && v <= hi);
        }
    }

    /// Sorted and unsorted selects agree (the zero-copy view fast path is
    /// semantically invisible).
    #[test]
    fn sorted_select_equals_unsorted(mut vals in prop::collection::vec(-50i64..50, 1..120),
                                     a in -60i64..60, b in -60i64..60) {
        let (lo, hi) = (a.min(b), a.max(b));
        let bounds = SelectBounds::half_open(Value::Int(lo), Value::Int(hi));
        let unsorted = int_bat(vals.clone());
        let from_unsorted = ops::select(&unsorted, &bounds).unwrap();
        vals.sort_unstable();
        let sorted = int_bat(vals);
        let from_sorted = ops::select(&sorted, &bounds).unwrap();
        // same multiset of tail values (heads differ: rows moved)
        let mut t1: Vec<i64> = (0..from_unsorted.len())
            .map(|i| from_unsorted.tail().value(i).as_int().unwrap()).collect();
        let mut t2: Vec<i64> = (0..from_sorted.len())
            .map(|i| from_sorted.tail().value(i).as_int().unwrap()).collect();
        t1.sort_unstable();
        t2.sort_unstable();
        prop_assert_eq!(t1, t2);
    }

    /// semijoin and diff partition the left input.
    #[test]
    fn semijoin_diff_partition(l_heads in prop::collection::vec(0u64..40, 0..80),
                               r_heads in prop::collection::vec(0u64..40, 0..80)) {
        let n = l_heads.len();
        let l = Bat::new(
            Column::from_oids(l_heads),
            Column::from_ints((0..n as i64).collect()),
            Props::default(),
        );
        let r = Bat::new(
            Column::from_oids(r_heads.clone()),
            Column::from_ints(vec![0; r_heads.len()]),
            Props::default(),
        );
        let s = ops::semijoin(&l, &r).unwrap();
        let d = ops::diff(&l, &r).unwrap();
        prop_assert_eq!(s.len() + d.len(), l.len());
        // every semijoin head is in r, every diff head is not
        let rset: std::collections::HashSet<u64> =
            (0..r.len()).map(|i| r.head().value(i).as_oid().unwrap().0).collect();
        for i in 0..s.len() {
            prop_assert!(rset.contains(&s.head().value(i).as_oid().unwrap().0));
        }
        for i in 0..d.len() {
            prop_assert!(!rset.contains(&d.head().value(i).as_oid().unwrap().0));
        }
    }

    /// join result size equals the sum over l-keys of their multiplicity
    /// in r's head.
    #[test]
    fn join_cardinality(l_keys in prop::collection::vec(0u64..30, 0..60),
                        r_keys in prop::collection::vec(0u64..30, 0..60)) {
        let l = Bat::new(
            Column::dense(0, l_keys.len()),
            Column::from_oids(l_keys.clone()),
            Props { head_dense: true, ..Props::default() },
        );
        let r = Bat::new(
            Column::from_oids(r_keys.clone()),
            Column::from_ints((0..r_keys.len() as i64).collect()),
            Props::default(),
        );
        let j = ops::join(&l, &r).unwrap();
        let mut counts = std::collections::HashMap::new();
        for k in &r_keys {
            *counts.entry(*k).or_insert(0usize) += 1;
        }
        let expect: usize = l_keys.iter().map(|k| counts.get(k).copied().unwrap_or(0)).sum();
        prop_assert_eq!(j.len(), expect);
    }

    /// group ids are dense and grp counts sum to the input size.
    #[test]
    fn group_counts_partition(vals in prop::collection::vec(0i64..12, 1..120)) {
        let b = int_bat(vals.clone());
        let g = ops::group(&b).unwrap();
        let n = ops::num_groups(&g);
        prop_assert!(n >= 1 && n <= vals.len());
        let counts = ops::grp_aggr(&b, &g, GrpFunc::Count).unwrap();
        let total: i64 = (0..counts.len())
            .map(|i| counts.tail().value(i).as_int().unwrap())
            .sum();
        prop_assert_eq!(total as usize, vals.len());
    }

    /// reverse ∘ reverse and sort preserve the tuple multiset.
    #[test]
    fn views_and_sort_preserve_tuples(vals in prop::collection::vec(-1000i64..1000, 0..150)) {
        let b = int_bat(vals);
        let rr = b.reverse().reverse();
        prop_assert_eq!(b.canonical_tuples(), rr.canonical_tuples());
        let sorted = ops::sort(&b, true).unwrap();
        prop_assert_eq!(b.canonical_tuples(), sorted.canonical_tuples());
        prop_assert!(sorted.tail().is_sorted());
    }

    /// kunique keeps exactly one tuple per distinct head.
    #[test]
    fn kunique_distinct(heads in prop::collection::vec(0u64..25, 0..100)) {
        let n = heads.len();
        let b = Bat::new(
            Column::from_oids(heads.clone()),
            Column::from_ints((0..n as i64).collect()),
            Props::default(),
        );
        let u = ops::kunique(&b).unwrap();
        let distinct: std::collections::HashSet<u64> = heads.into_iter().collect();
        prop_assert_eq!(u.len(), distinct.len());
    }

    /// concat of a split equals the original, for dense and OID heads,
    /// NULLs and strings, and with the split's windows cutting through
    /// the validity words.
    #[test]
    fn concat_roundtrip(raw in prop::collection::vec((0u64..24, 0u8..8), 2..100),
                        ty in 0u8..5, dense_head in 0u8..2,
                        cut_ratio in 0.1f64..0.9) {
        let n = raw.len();
        let head = if dense_head == 1 {
            Column::dense(7, n)
        } else {
            key_column(2, 2, &raw)
        };
        let b = Bat::new(head, key_column(ty, 0, &raw), Props::default());
        let cut = ((n as f64 * cut_ratio) as usize).clamp(1, n - 1);
        let front = b.slice(0, cut);
        let back = b.slice(cut, n - cut);
        let merged = ops::concat(&[&front, &back]).unwrap();
        prop_assert_eq!(tuples(&merged), tuples(&b));
        let swapped = ops::concat(&[&back, &front]).unwrap();
        let mut expect = tuples(&back);
        expect.extend(tuples(&front));
        prop_assert_eq!(tuples(&swapped), expect);
    }

    /// join, join_probe over a reused build, semijoin, diff and kunique
    /// equal nested-loop models tuple for tuple, in order, over every key
    /// type and kernel: compact (bitmap), negative and sparse (hash) domains,
    /// dense heads (fetch join, range membership), NULL keys on both
    /// sides, sliced windows, empty sides and duplicate build keys.
    #[test]
    fn join_family_matches_nested_loop(ty in 0u8..5, shape in 0u8..3, dense in 0u8..6,
                                       l_raw in prop::collection::vec((0u64..24, 0u8..8), 0..40),
                                       r_raw in prop::collection::vec((0u64..24, 0u8..8), 0..40),
                                       cuts in (0usize..3, 0usize..3, 0usize..3, 0usize..3)) {
        let (l_pre, l_post, r_pre, r_post) = cuts;
        // Dense heads (r's for `dense` 0, l's for 2) take small OID keys.
        let oid_dense = dense == 0 || dense == 2;
        let (ty, shape) = if oid_dense { (2, 0) } else { (ty, shape) };
        let (ln, rn) = (l_raw.len(), r_raw.len());
        let l_keys = key_column(ty, shape, &l_raw);
        let r_keys = if oid_dense && dense == 0 {
            Column::dense(3, rn)
        } else {
            key_column(ty, shape, &r_raw)
        };
        let row_ids = |n: usize| if dense == 1 {
            Column::dense(1000, n)
        } else {
            Column::from_oids((1000..1000 + n as u64).collect())
        };
        let payload = |n: usize| Column::from_ints((0..n as i64).map(|i| i * 10).collect());

        // Join: keys on l's tail and r's head.
        let l = window(row_ids(ln), l_keys.clone(), l_pre, l_post);
        let r = window(r_keys.clone(), payload(rn), r_pre, r_post);
        let expect = model_join(&l, &r);
        prop_assert_eq!(tuples(&ops::join(&l, &r).unwrap()), expect.clone());
        let build = ops::join_build(&r).unwrap();
        prop_assert!(build.byte_size() > 0);
        prop_assert_eq!(tuples(&ops::join_probe(&l, &r, &build).unwrap()), expect);
        let l2 = l.slice(l.len().min(1), l.len().saturating_sub(1));
        prop_assert_eq!(tuples(&ops::join_probe(&l2, &r, &build).unwrap()), model_join(&l2, &r));

        // Semijoin, diff and kunique: keys on both heads.
        let l_head = if oid_dense && dense == 2 { Column::dense(5, ln) } else { l_keys };
        let l = window(l_head, payload(ln), l_pre, l_post);
        let r = window(r_keys, payload(rn), r_pre, r_post);
        prop_assert_eq!(tuples(&ops::semijoin(&l, &r).unwrap()), model_filter(&l, &r, true));
        prop_assert_eq!(tuples(&ops::diff(&l, &r).unwrap()), model_filter(&l, &r, false));
        let firsts: Vec<String> = (0..l.len())
            .filter(|&i| {
                let k = l.head().value(i);
                (0..i).all(|p| {
                    let q = l.head().value(p);
                    !(same_key(&k, &q) || k.is_nil() && q.is_nil())
                })
            })
            .map(|i| format!("{:?}", (l.head().value(i), l.tail().value(i))))
            .collect();
        prop_assert_eq!(tuples(&ops::kunique(&l).unwrap()), firsts);
    }
}
