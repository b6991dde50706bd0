//! An independent oracle for `Catalog::commit`.
//!
//! Random insert/delete sequences run against a catalog and, in parallel,
//! against a row-level `Vec<Vec<Value>>` model. After every commit each
//! table and join index is rebuilt from the model through `TableBuilder` +
//! `add_join_index`, and every column and index the catalog holds must
//! equal the rebuild: values, NULLs, type and BAT properties. BAT
//! identities must change exactly for the committed table's columns and
//! the indices that name it.

use std::collections::{BTreeSet, HashSet};

use proptest::prelude::*;
use proptest::TestRng;
use rbat::catalog::JoinIndexDef;
use rbat::{Bat, BatId, Catalog, Date, LogicalType, Oid, TableBuilder, Value};

type Rows = Vec<Vec<Value>>;

const TABLES: [(&str, &[(&str, LogicalType)]); 3] = [
    (
        "parent",
        &[
            ("p_key", LogicalType::Int),
            ("p_name", LogicalType::Str),
            ("p_val", LogicalType::Float),
        ],
    ),
    (
        "child",
        &[
            ("c_fk", LogicalType::Int),
            ("c_note", LogicalType::Str),
            ("c_amt", LogicalType::Float),
            ("c_day", LogicalType::Date),
            ("c_flag", LogicalType::Bool),
            ("c_ref", LogicalType::Oid),
        ],
    ),
    (
        "node",
        &[("n_id", LogicalType::Int), ("n_parent", LogicalType::Int)],
    ),
];

/// `(name, from_table, from_column, to_table, to_key)`; `node_tree` is
/// self-referencing.
const INDICES: [(&str, &str, &str, &str, &str); 3] = [
    ("child_parent", "child", "c_fk", "parent", "p_key"),
    ("node_parent", "node", "n_parent", "parent", "p_key"),
    ("node_tree", "node", "n_parent", "node", "n_id"),
];

/// Referenced keys come from `0..KEYS`, foreign keys from `0..FKS`: keys
/// repeat, and some foreign keys dangle until an insert resolves them.
const KEYS: u64 = 4;
const FKS: u64 = 6;

fn is_fk(column: &str) -> bool {
    INDICES.iter().any(|(_, _, from, _, _)| *from == column)
}

fn draw(rng: &mut TestRng, n: u64) -> u64 {
    (0..n).generate(rng)
}

fn chance(rng: &mut TestRng, percent: u64) -> bool {
    draw(rng, 100) < percent
}

fn gen_value(rng: &mut TestRng, column: &str, ty: LogicalType) -> Value {
    if chance(rng, 15) {
        return Value::Nil;
    }
    match ty {
        LogicalType::Int if is_fk(column) => Value::Int(draw(rng, FKS) as i64),
        LogicalType::Int => Value::Int(draw(rng, KEYS) as i64),
        LogicalType::Str => Value::str(["", "a", "b", "ccc", "wörld"][draw(rng, 5) as usize]),
        // The builder widens an integer into a float column.
        LogicalType::Float if chance(rng, 30) => Value::Int(draw(rng, 10) as i64),
        LogicalType::Float => Value::Float(draw(rng, 100) as f64 / 4.0),
        LogicalType::Date => Value::Date(Date(draw(rng, 50) as i32)),
        LogicalType::Bool => Value::Bool(chance(rng, 50)),
        LogicalType::Oid => Value::Oid(Oid(draw(rng, 20))),
    }
}

fn gen_rows(rng: &mut TestRng, table: usize, n: u64) -> Rows {
    let schema = TABLES[table].1;
    (0..n)
        .map(|_| {
            schema
                .iter()
                .map(|(c, ty)| gen_value(rng, c, *ty))
                .collect()
        })
        .collect()
}

/// One commit: staged inserts and deletes on one table. `delete_all`
/// additionally stages every row live at the time of the step.
#[derive(Debug, Clone)]
struct Step {
    table: usize,
    inserts: Rows,
    deletes: Vec<u64>,
    delete_all: bool,
}

#[derive(Debug, Clone)]
struct Script {
    initial: Vec<Rows>,
    steps: Vec<Step>,
}

/// Strategy for whole scripts: small initial tables, then 1–15 commits.
struct Scripts;

impl Strategy for Scripts {
    type Value = Script;

    fn generate(&self, rng: &mut TestRng) -> Script {
        let initial = (0..TABLES.len())
            .map(|t| {
                let n = draw(rng, 7);
                gen_rows(rng, t, n)
            })
            .collect();
        let nsteps = 1 + draw(rng, 15);
        let steps = (0..nsteps)
            .map(|_| {
                let table = draw(rng, TABLES.len() as u64) as usize;
                let ninserts = if chance(rng, 60) { 1 + draw(rng, 4) } else { 0 };
                let inserts = gen_rows(rng, table, ninserts);
                let ndeletes = if chance(rng, 60) { 1 + draw(rng, 3) } else { 0 };
                // OIDs past the live row count are ignored by the commit.
                let mut deletes: Vec<u64> = (0..ndeletes).map(|_| draw(rng, 10)).collect();
                if !deletes.is_empty() && chance(rng, 20) {
                    deletes.push(deletes[0]);
                }
                Step {
                    table,
                    inserts,
                    deletes,
                    delete_all: chance(rng, 8),
                }
            })
            .collect();
        Script { initial, steps }
    }
}

fn build(model: &[Rows]) -> Catalog {
    let mut cat = Catalog::new();
    for ((name, schema), rows) in TABLES.iter().zip(model) {
        let mut tb = TableBuilder::new(name);
        for (c, ty) in schema.iter() {
            tb = tb.column(c, *ty);
        }
        for row in rows {
            tb.push_row(row);
        }
        cat.add_table(tb.finish());
    }
    for (name, from_table, from_column, to_table, to_key) in INDICES {
        cat.add_join_index(JoinIndexDef {
            name: name.into(),
            from_table: from_table.into(),
            from_column: from_column.into(),
            to_table: to_table.into(),
            to_key: to_key.into(),
        })
        .expect("integer keys index");
    }
    cat
}

fn same_bat(what: &str, got: &Bat, want: &Bat) -> Result<(), TestCaseError> {
    let shape = |b: &Bat| {
        (
            what.to_string(),
            b.head_type(),
            b.tail_type(),
            b.props(),
            b.tail().is_view(),
            b.tail().iter_values().collect::<Vec<_>>(),
            b.head().iter_values().collect::<Vec<_>>(),
        )
    };
    prop_assert_eq!(shape(got), shape(want));
    Ok(())
}

/// Every column and index of `cat` equals a from-scratch build of `model`.
fn check(cat: &Catalog, model: &[Rows]) -> Result<(), TestCaseError> {
    let fresh = build(model);
    for (name, schema) in TABLES {
        let (got, want) = (cat.table(name).unwrap(), fresh.table(name).unwrap());
        prop_assert_eq!((name, got.nrows()), (name, want.nrows()));
        for (c, _) in schema {
            same_bat(
                c,
                &cat.bind(name, c).unwrap(),
                &fresh.bind(name, c).unwrap(),
            )?;
        }
    }
    for (name, ..) in INDICES {
        same_bat(
            name,
            &cat.bind_idx(name).unwrap(),
            &fresh.bind_idx(name).unwrap(),
        )?;
    }
    Ok(())
}

/// Every column and index identity, by name.
fn identities(cat: &Catalog) -> Vec<(String, BatId)> {
    let mut ids = Vec::new();
    for (name, schema) in TABLES {
        for (c, _) in schema {
            ids.push((format!("{name}.{c}"), cat.bind(name, c).unwrap().id()));
        }
    }
    for (name, ..) in INDICES {
        ids.push((name.to_string(), cat.bind_idx(name).unwrap().id()));
    }
    ids
}

fn column_of(table: usize, rows: &Rows, column: &str) -> Vec<Value> {
    let ci = TABLES[table].1.iter().position(|(c, _)| *c == column);
    rows.iter().map(|r| r[ci.unwrap()].clone()).collect()
}

/// The edge cases a step exercises, judged on the pre-commit model.
fn coverage(model: &[Rows], step: &Step, gone: &[u64], hit: &mut BTreeSet<&'static str>) {
    let (name, schema) = TABLES[step.table];
    let rows = &model[step.table];
    for row in &step.inserts {
        for ((c, ty), v) in schema.iter().zip(row) {
            match (ty, v) {
                (_, Value::Nil) if is_fk(c) => hit.insert("null foreign key"),
                (_, Value::Nil) => hit.insert("null data value"),
                (LogicalType::Str, _) => hit.insert("string value"),
                (LogicalType::Float, Value::Int(_)) => hit.insert("int into float column"),
                _ => false,
            };
        }
    }
    let deletes = !gone.is_empty();
    match (step.inserts.is_empty(), deletes) {
        (true, true) => hit.insert("delete-only commit"),
        (false, false) => hit.insert("insert-only commit"),
        (false, true) => hit.insert("mixed commit"),
        (true, false) if step.deletes.is_empty() && (rows.is_empty() || !step.delete_all) => {
            hit.insert("empty commit")
        }
        (true, false) => false,
    };
    if deletes && gone.len() == rows.len() {
        hit.insert("delete all rows");
    }
    if step.deletes.iter().collect::<BTreeSet<_>>().len() < step.deletes.len() {
        hit.insert("duplicate delete oid");
    }
    if step.deletes.iter().any(|&o| o as usize >= rows.len()) {
        hit.insert("out-of-range delete oid");
    }
    if name == "node" && (deletes || !step.inserts.is_empty()) {
        hit.insert("self-referencing index maintained");
    }
    // Keys this table is referenced by, and the foreign keys pointing in.
    for (_, from_table, from_column, to_table, to_key) in INDICES {
        if to_table != name {
            continue;
        }
        let from = TABLES.iter().position(|(t, _)| *t == from_table).unwrap();
        let keys = column_of(step.table, rows, to_key);
        let fks: HashSet<Value> = column_of(from, &model[from], from_column)
            .into_iter()
            .filter(|v| *v != Value::Nil)
            .collect();
        let inserted = column_of(step.table, &step.inserts, to_key);
        if fks
            .iter()
            .any(|k| !keys.contains(k) && inserted.contains(k))
        {
            hit.insert("dangling foreign key resolved by insert");
        }
        for (o, k) in keys.iter().enumerate() {
            let last = keys.iter().rposition(|x| x == k) == Some(o);
            let survivor =
                (0..o).any(|p| keys[p] == *k && gone.binary_search(&(p as u64)).is_err());
            if *k != Value::Nil
                && fks.contains(k)
                && last
                && survivor
                && gone.binary_search(&(o as u64)).is_ok()
            {
                hit.insert("referenced duplicate key loses its last row");
            }
        }
    }
}

/// Run `script` against a catalog and the model, checking after every
/// commit; returns the edge cases it exercised.
fn run(script: &Script) -> Result<BTreeSet<&'static str>, TestCaseError> {
    let mut hit = BTreeSet::new();
    let mut model = script.initial.clone();
    let mut cat = build(&model);
    check(&cat, &model)?;
    for step in &script.steps {
        let (name, _) = TABLES[step.table];
        let live = model[step.table].len() as u64;
        let mut deletes = step.deletes.clone();
        if step.delete_all {
            deletes.extend(0..live);
        }
        let mut gone = deletes.clone();
        gone.sort_unstable();
        gone.dedup();
        gone.retain(|&o| o < live);
        coverage(&model, step, &gone, &mut hit);

        let before = identities(&cat);
        let version = cat.table(name).unwrap().version();
        if !step.inserts.is_empty() {
            cat.append(name, step.inserts.clone()).unwrap();
        }
        let staged = !step.inserts.is_empty() || !deletes.is_empty();
        if !deletes.is_empty() {
            cat.delete(name, deletes).unwrap();
        }
        let report = cat.commit(name).unwrap();

        let rows = &mut model[step.table];
        let mut oid = 0;
        rows.retain(|_| {
            oid += 1;
            gone.binary_search(&(oid - 1)).is_err()
        });
        rows.extend(step.inserts.iter().cloned());
        check(&cat, &model)?;

        // Identities: fresh exactly for the committed table's columns and
        // the indices naming it, and only when something was staged.
        let touched: Vec<&str> = INDICES
            .iter()
            .filter(|(_, from, _, to, _)| staged && (*from == name || *to == name))
            .map(|(n, ..)| *n)
            .collect();
        prop_assert_eq!(&report.rebuilt_indices, &touched);
        prop_assert_eq!(&report.deleted, &gone);
        prop_assert_eq!(report.version, version + staged as u64);
        for ((what, old), (_, new)) in before.iter().zip(identities(&cat)) {
            let fresh = staged
                && (what.starts_with(&format!("{name}.")) || touched.contains(&what.as_str()));
            prop_assert!(
                (old != &new) == fresh,
                "{what}: identity {} after a commit to {name}",
                if fresh { "kept" } else { "changed" }
            );
        }
    }
    Ok(hit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every commit leaves each column and join index equal to a rebuild
    /// from the row-level model.
    #[test]
    fn commit_equals_rebuild_from_rows(script in Scripts) {
        run(&script)?;
    }
}

/// The generator reaches every edge case the oracle is meant to cover.
#[test]
fn scripts_cover_the_edge_cases() {
    let mut hit = BTreeSet::new();
    for case in 0..128 {
        let script = Scripts.generate(&mut proptest::test_rng("commit_oracle_coverage", case));
        hit.extend(run(&script).unwrap_or_else(|e| panic!("case {case}: {e}")));
    }
    for want in [
        "null data value",
        "null foreign key",
        "string value",
        "int into float column",
        "delete-only commit",
        "insert-only commit",
        "mixed commit",
        "delete all rows",
        "duplicate delete oid",
        "out-of-range delete oid",
        "empty commit",
        "dangling foreign key resolved by insert",
        "referenced duplicate key loses its last row",
        "self-referencing index maintained",
    ] {
        assert!(hit.contains(want), "no generated script exercises: {want}");
    }
}
