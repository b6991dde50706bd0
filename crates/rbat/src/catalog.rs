//! The SQL catalog: persistent tables, join indices and update processing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use crate::bat::Bat;
use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnBuilder};
use crate::delta::{Row, TableDelta};
use crate::error::{BatError, Result};
use crate::hash::FxHashMap;
use crate::ops::visit_keys;
use crate::types::{LogicalType, Value};

/// A persistent table: one BAT per column, all with identical dense heads.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Vec<(String, LogicalType)>,
    columns: BTreeMap<String, Arc<Bat>>,
    nrows: usize,
    next_oid: u64,
    delta: TableDelta,
    version: u64,
}

impl Table {
    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Schema as `(column, type)` pairs in definition order.
    pub fn schema(&self) -> &[(String, LogicalType)] {
        &self.schema
    }

    /// Number of live rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Monotone version, bumped on every commit; the recycler uses it to
    /// detect staleness.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Column BAT by name.
    pub fn column(&self, name: &str) -> Result<Arc<Bat>> {
        self.columns
            .get(name)
            .cloned()
            .ok_or_else(|| BatError::not_found("column", format!("{}.{}", self.name, name)))
    }

    fn column_type(&self, name: &str) -> Option<LogicalType> {
        self.schema.iter().find(|(n, _)| n == name).map(|(_, t)| *t)
    }
}

/// Declarative definition of a foreign-key join index: maps every row of
/// `from_table` (via `from_column` values) to the OID of the row in
/// `to_table` whose `to_key` column holds that value — the last such row
/// when the key repeats — or to NULL when none does.
///
/// A commit to either table maintains the index incrementally, at the
/// cost of typed passes over the index plus hash probes for the delta's
/// keys (see [`Catalog::commit`]); a self-referencing index
/// (`from_table == to_table`) is rebuilt from scratch.
#[derive(Debug, Clone)]
pub struct JoinIndexDef {
    /// Index name used by `sql.bindIdxbat`.
    pub name: String,
    /// Referencing table.
    pub from_table: String,
    /// Foreign-key column in the referencing table.
    pub from_column: String,
    /// Referenced table.
    pub to_table: String,
    /// Key column in the referenced table.
    pub to_key: String,
}

/// Builder for bulk-loading a [`Table`].
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    schema: Vec<(String, LogicalType)>,
    builders: Vec<ColumnBuilder>,
}

impl TableBuilder {
    /// Start a table definition.
    pub fn new(name: &str) -> TableBuilder {
        TableBuilder {
            name: name.to_string(),
            schema: Vec::new(),
            builders: Vec::new(),
        }
    }

    /// Add a column.
    pub fn column(mut self, name: &str, ty: LogicalType) -> TableBuilder {
        self.schema.push((name.to_string(), ty));
        self.builders.push(ColumnBuilder::new(ty));
        self
    }

    /// Append a row (values in schema order).
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.schema.len(), "row arity mismatch");
        for (b, v) in self.builders.iter_mut().zip(row) {
            b.push(v);
        }
    }

    /// Finish into a [`Table`].
    pub fn finish(self) -> Table {
        let nrows = self.builders.first().map(|b| b.len()).unwrap_or(0);
        let mut columns = BTreeMap::new();
        for ((name, _), b) in self.schema.iter().zip(self.builders) {
            assert_eq!(b.len(), nrows, "ragged column {name}");
            columns.insert(name.clone(), Arc::new(Bat::from_tail(b.finish())));
        }
        Table {
            name: self.name,
            schema: self.schema,
            columns,
            nrows,
            next_oid: nrows as u64,
            delta: TableDelta::default(),
            version: 0,
        }
    }
}

/// What a [`Catalog::commit`] did — consumed by the recycler to synchronise
/// the recycle pool (invalidation or delta propagation, paper §6).
#[derive(Debug, Clone)]
pub struct CommitReport {
    /// Updated table.
    pub table: String,
    /// Per-column BATs of the appended rows; heads are the fresh OIDs.
    /// Empty when nothing was inserted.
    pub inserted: Vec<(String, Arc<Bat>)>,
    /// OIDs that were deleted (pre-compaction ids).
    pub deleted: Vec<u64>,
    /// New table version.
    pub version: u64,
    /// Names of the join indices this commit maintained — every index
    /// whose referencing or referenced table is the committed one. Each
    /// gets a fresh BAT identity, whether it was updated incrementally or
    /// rebuilt (self-referencing indices).
    pub rebuilt_indices: Vec<String>,
}

/// The catalog: named tables plus derived join indices.
///
/// Cloning a catalog is cheap-ish (column BATs are `Arc`-shared) and gives
/// an independent update domain — the experiment harness clones one
/// generated database to compare naive and recycled engines on identical
/// data.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
    index_defs: Vec<JoinIndexDef>,
    indices: FxHashMap<String, Arc<Bat>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table (replacing any previous definition).
    pub fn add_table(&mut self, table: Table) {
        self.tables.insert(table.name().to_string(), table);
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| BatError::not_found("table", name))
    }

    /// Iterate over all tables.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// `sql.bind`: the BAT of a persistent column. Returns the *shared*
    /// instance — repeated binds of an unchanged column yield the same
    /// [`crate::BatId`], which is what instruction matching relies on.
    pub fn bind(&self, table: &str, column: &str) -> Result<Arc<Bat>> {
        self.table(table)?.column(column)
    }

    /// Register and build a join index (`sql.bindIdxbat` source).
    pub fn add_join_index(&mut self, def: JoinIndexDef) -> Result<()> {
        let bat = self.build_index(&def)?;
        self.indices.insert(def.name.clone(), bat);
        self.index_defs.push(def);
        Ok(())
    }

    /// `sql.bindIdxbat`: fetch a join index BAT by name.
    pub fn bind_idx(&self, name: &str) -> Result<Arc<Bat>> {
        self.indices
            .get(name)
            .cloned()
            .ok_or_else(|| BatError::not_found("index", name))
    }

    fn build_index(&self, def: &JoinIndexDef) -> Result<Arc<Bat>> {
        let from = self.bind(&def.from_table, &def.from_column)?;
        let to = self.bind(&def.to_table, &def.to_key)?;
        let tail = lookup(from.tail(), to.tail())?;
        Ok(Arc::new(Bat::from_tail(tail)))
    }

    /// The post-commit value of index `def` given its pre-commit BAT
    /// `old`, equal to a [`Catalog::build_index`] over the post-commit
    /// tables but costing typed passes over `old` plus probes for the
    /// delta's keys. Runs after `edit`'s table has its new columns.
    fn maintain_index(&self, def: &JoinIndexDef, old: &Column, edit: &Edit) -> Result<Arc<Bat>> {
        if def.from_table == def.to_table {
            return self.build_index(def);
        }
        let tail = if def.from_table == edit.table {
            // Referencing side: surviving entries keep their targets (the
            // referenced table is unchanged); inserted rows look theirs up.
            let fresh = match edit.inserted(&def.from_column) {
                Some(ins) => Some(lookup(ins, self.bind(&def.to_table, &def.to_key)?.tail())?),
                None => None,
            };
            splice(old, &edit.runs, fresh.as_ref())
        } else {
            // Referenced side: a key held by an inserted row now points at
            // the last such row. A key whose old target was deleted falls
            // back to the last surviving row holding it, if any. Every
            // other match shifts down by the deletions before it, and
            // every other NULL stays NULL.
            let to = self.bind(&def.to_table, &def.to_key)?;
            let mut targets: FxHashMap<u64, Option<u64>> = FxHashMap::default();
            if let Some(ins) = edit.inserted(&def.to_key) {
                let base = to.len() - ins.len();
                index_keys(ins, |j, k| {
                    if let Some(k) = k {
                        targets.insert(k, Some((base + j) as u64));
                    }
                })?;
            }
            let from = self.bind(&def.from_table, &def.from_column)?;
            let fks = from.tail();
            let old_targets = old.typed();
            let old_target = |i: usize| old_targets.oid_at(i).filter(|_| old.is_valid(i));
            let mut lost: FxHashMap<u64, Option<u64>> = FxHashMap::default();
            index_keys(fks, |i, k| {
                if let (Some(k), Some(o)) = (k, old_target(i)) {
                    if edit.deleted.binary_search(&o).is_ok() {
                        lost.insert(k, None);
                    }
                }
            })?;
            if !lost.is_empty() {
                resolve_last(to.tail(), &mut lost)?;
                targets.extend(lost);
            }
            oid_column(fks, |i, k| match targets.get(&k) {
                Some(&t) => t,
                None => {
                    let o = old_target(i)?;
                    Some(o - edit.deleted.partition_point(|&d| d < o) as u64)
                }
            })?
        };
        Ok(Arc::new(Bat::from_tail(tail)))
    }

    /// Stage row inserts (takes effect at [`Catalog::commit`]).
    pub fn append(&mut self, table: &str, rows: Vec<Row>) -> Result<()> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| BatError::not_found("table", table))?;
        for r in &rows {
            if r.len() != t.schema.len() {
                return Err(BatError::InvalidUpdate(format!(
                    "row arity {} vs schema {}",
                    r.len(),
                    t.schema.len()
                )));
            }
        }
        t.delta.inserts.extend(rows);
        Ok(())
    }

    /// Stage row deletions by OID.
    pub fn delete(&mut self, table: &str, oids: Vec<u64>) -> Result<()> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| BatError::not_found("table", table))?;
        t.delta.deletes.extend(oids);
        Ok(())
    }

    /// Merge the staged deltas of `table` into its persistent columns,
    /// bump the version, maintain dependent join indices and report what
    /// changed. Deletions compact OIDs (documented engine policy; the
    /// recycler's propagation mode therefore only engages for insert-only
    /// commits and falls back to invalidation otherwise).
    ///
    /// Cost: O(delta) value work plus typed memory copies. Each column is
    /// spliced from zero-copy windows of its surviving runs and the
    /// inserted rows, one `extend_from_slice` per window. Each dependent
    /// join index costs typed passes over it plus hash probes against
    /// only the delta's keys: on the referencing side the referenced key
    /// column is scanned once for the inserted foreign keys, on the
    /// referenced side only when a deleted row was some key's target. A
    /// self-referencing index is rebuilt. Every committed column and
    /// maintained index gets a fresh BAT identity; nothing else does.
    pub fn commit(&mut self, table: &str) -> Result<CommitReport> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| BatError::not_found("table", table))?;
        if t.delta.is_empty() {
            return Ok(CommitReport {
                table: table.to_string(),
                inserted: Vec::new(),
                deleted: Vec::new(),
                version: t.version,
                rebuilt_indices: Vec::new(),
            });
        }
        let delta = std::mem::take(&mut t.delta);
        let insert_base = t.next_oid;

        // Build per-column BATs of the inserted rows (for the report).
        let mut inserted: Vec<(String, Arc<Bat>)> = Vec::new();
        if !delta.inserts.is_empty() {
            for (ci, (cname, cty)) in t.schema.iter().enumerate() {
                let mut cb = ColumnBuilder::new(*cty);
                for row in &delta.inserts {
                    cb.push(&row[ci]);
                }
                let tail = cb.finish();
                let len = tail.len();
                let bat = Bat::new(
                    Column::dense(insert_base, len),
                    tail,
                    crate::props::Props::base_column(true),
                );
                inserted.push((cname.clone(), Arc::new(bat)));
            }
        }

        // Splice each column: its surviving runs, then the inserted rows.
        let mut deleted = delta.deletes;
        deleted.sort_unstable();
        deleted.dedup();
        deleted.retain(|&o| (o as usize) < t.nrows);
        let edit = Edit {
            table,
            runs: survivor_runs(t.nrows, &deleted),
            deleted,
            inserted: &inserted,
        };
        for (cname, old) in t.columns.iter_mut() {
            let tail = splice(old.tail(), &edit.runs, edit.inserted(cname));
            *old = Arc::new(Bat::from_tail(tail));
        }
        t.nrows = t.nrows - edit.deleted.len() + delta.inserts.len();
        t.next_oid = t.nrows as u64;
        t.version += 1;
        let version = t.version;

        // Maintain join indices that reference this table on either side.
        let mut rebuilt = Vec::new();
        for def in &self.index_defs {
            if def.from_table != table && def.to_table != table {
                continue;
            }
            let old = self.bind_idx(&def.name)?;
            let bat = self.maintain_index(def, old.tail(), &edit)?;
            rebuilt.push((def.name.clone(), bat));
        }
        let rebuilt_indices = rebuilt.iter().map(|(n, _)| n.clone()).collect();
        self.indices.extend(rebuilt);

        let Edit { deleted, .. } = edit;
        Ok(CommitReport {
            table: table.to_string(),
            inserted,
            deleted,
            version,
            rebuilt_indices,
        })
    }

    /// Total bytes resident in persistent columns (diagnostics).
    pub fn resident_bytes(&self) -> usize {
        self.tables
            .values()
            .flat_map(|t| t.columns.values())
            .map(|b| b.resident_bytes())
            .sum()
    }

    /// The definition of a registered join index (the recycler derives the
    /// index's base-column lineage from this).
    pub fn index_def(&self, name: &str) -> Option<&JoinIndexDef> {
        self.index_defs.iter().find(|d| d.name == name)
    }

    /// Convenience for tests and generators: fetch a column's logical type.
    pub fn column_type(&self, table: &str, column: &str) -> Result<LogicalType> {
        self.table(table)?
            .column_type(column)
            .ok_or_else(|| BatError::not_found("column", format!("{table}.{column}")))
    }
}

/// One commit's row-level edit of a table, as index maintenance needs it.
struct Edit<'a> {
    table: &'a str,
    /// Deleted OIDs: sorted, deduplicated, in range.
    deleted: Vec<u64>,
    /// Maximal `(from, len)` runs of surviving rows.
    runs: Vec<(usize, usize)>,
    /// Per-column BATs of the inserted rows (empty when none).
    inserted: &'a [(String, Arc<Bat>)],
}

impl Edit<'_> {
    /// The inserted rows' values of `column`, if the commit inserted any.
    fn inserted(&self, column: &str) -> Option<&Column> {
        self.inserted
            .iter()
            .find(|(n, _)| n == column)
            .map(|(_, b)| b.tail())
    }
}

/// Maximal runs `(from, len)` of the rows in `0..nrows` that survive the
/// sorted, deduplicated, in-range `deleted` OIDs.
fn survivor_runs(nrows: usize, deleted: &[u64]) -> Vec<(usize, usize)> {
    let mut runs = Vec::with_capacity(deleted.len() + 1);
    let mut from = 0;
    for end in deleted.iter().map(|&o| o as usize).chain([nrows]) {
        if end > from {
            runs.push((from, end - from));
        }
        from = end + 1;
    }
    runs
}

/// `old`'s surviving `runs` followed by `appended`, as one owned column.
fn splice(old: &Column, runs: &[(usize, usize)], appended: Option<&Column>) -> Column {
    let mut parts: Vec<Column> = runs
        .iter()
        .map(|&(from, len)| old.slice(from, len))
        .collect();
    parts.extend(appended.cloned());
    if parts.is_empty() {
        parts.push(old.slice(0, 0));
    }
    Column::concat(&parts)
}

/// Visit the keys of a join-index column (see [`visit_keys`]); string
/// keys are rejected.
fn index_keys(col: &Column, f: impl FnMut(usize, Option<u64>)) -> Result<()> {
    if visit_keys(col, f) {
        Ok(())
    } else {
        Err(BatError::type_mismatch(
            "join_index",
            "string keys unsupported for indices",
        ))
    }
}

/// Point every key of `targets` at the last row of `keys` holding it.
fn resolve_last(keys: &Column, targets: &mut FxHashMap<u64, Option<u64>>) -> Result<()> {
    index_keys(keys, |i, k| {
        if let Some(slot) = k.and_then(|k| targets.get_mut(&k)) {
            *slot = Some(i as u64);
        }
    })
}

/// The index tail for the foreign keys `fks` into the key column `keys`.
fn lookup(fks: &Column, keys: &Column) -> Result<Column> {
    let mut targets: FxHashMap<u64, Option<u64>> = FxHashMap::default();
    index_keys(fks, |_, k| {
        if let Some(k) = k {
            targets.insert(k, None);
        }
    })?;
    resolve_last(keys, &mut targets)?;
    oid_column(fks, |_, k| targets[&k])
}

/// An index tail with one entry per row `i` of `fks`: `target(i, key)`,
/// or NULL where the key is NULL or has no target. A NULL stores 0, as a
/// [`ColumnBuilder`] would.
fn oid_column(fks: &Column, mut target: impl FnMut(usize, u64) -> Option<u64>) -> Result<Column> {
    let mut valid = Bitmap::new(fks.len(), true);
    let mut oids = Vec::with_capacity(fks.len());
    index_keys(fks, |i, k| {
        oids.push(k.and_then(|k| target(i, k)).unwrap_or_else(|| {
            valid.set(i, false);
            0
        }));
    })?;
    Ok(Column::from_oids(oids).with_validity(valid))
}

/// An epoch-style bind snapshot over a shared catalog: many reader
/// sessions, one committing writer, no reader ever blocked on a commit.
///
/// The cell holds the current catalog behind an `Arc` swapped atomically
/// at commit time. Readers pin an epoch with [`CatalogCell::pinned`] —
/// a cheap `Arc` clone under a briefly-held read lock — and keep probing,
/// executing and admitting against that consistent pre-commit view for as
/// long as they like (column BATs are immutable and `Arc`-shared, so a
/// snapshot stays valid forever). A writer serialises on the cell's
/// writer mutex, builds the next catalog *off to the side* (clones are
/// `Arc`-backed and cheap), and publishes it with a pointer swap — the
/// only instant readers can contend is the swap itself, never the commit
/// work, and a commit to one table never blocks sessions reading others.
#[derive(Debug)]
pub struct CatalogCell {
    current: RwLock<Arc<Catalog>>,
    epoch: AtomicU64,
    /// Single-writer discipline: commits serialise here, keeping version
    /// bumps and epoch publication totally ordered.
    writer: Mutex<()>,
}

impl CatalogCell {
    /// Wrap a catalog for shared multi-session access at epoch 0.
    pub fn new(catalog: Catalog) -> Arc<CatalogCell> {
        Arc::new(CatalogCell {
            current: RwLock::new(Arc::new(catalog)),
            epoch: AtomicU64::new(0),
            writer: Mutex::new(()),
        })
    }

    /// The current epoch (bumped once per published commit).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The current catalog snapshot.
    pub fn snapshot(&self) -> Arc<Catalog> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Epoch and snapshot, read consistently (one read-lock critical
    /// section — a concurrent commit lands either entirely before or
    /// entirely after).
    pub fn pinned(&self) -> (u64, Arc<Catalog>) {
        let cur = self.current.read().unwrap_or_else(PoisonError::into_inner);
        (self.epoch.load(Ordering::Acquire), Arc::clone(&cur))
    }

    /// Stage `inserts`/`deletes` on `table` and commit, publishing the
    /// post-commit catalog as a new epoch. Readers holding pre-commit
    /// snapshots are unaffected; they observe the new epoch at their next
    /// [`CatalogCell::pinned`].
    pub fn update(
        &self,
        table: &str,
        inserts: Vec<Row>,
        deletes: Vec<u64>,
    ) -> Result<CommitReport> {
        let _w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let mut next: Catalog = (*self.snapshot()).clone();
        if !inserts.is_empty() {
            next.append(table, inserts)?;
        }
        if !deletes.is_empty() {
            next.delete(table, deletes)?;
        }
        let report = next.commit(table)?;
        let mut cur = self.current.write().unwrap_or_else(PoisonError::into_inner);
        *cur = Arc::new(next);
        self.epoch.fetch_add(1, Ordering::Release);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Oid;

    fn orders_lineitem() -> Catalog {
        let mut cat = Catalog::new();
        let mut ob = TableBuilder::new("orders")
            .column("o_orderkey", LogicalType::Int)
            .column("o_totalprice", LogicalType::Float);
        for (k, p) in [(100, 10.0), (200, 20.0), (300, 30.0)] {
            ob.push_row(&[Value::Int(k), Value::Float(p)]);
        }
        cat.add_table(ob.finish());
        let mut lb = TableBuilder::new("lineitem")
            .column("l_orderkey", LogicalType::Int)
            .column("l_qty", LogicalType::Int);
        for (k, q) in [(100, 1), (100, 2), (300, 3)] {
            lb.push_row(&[Value::Int(k), Value::Int(q)]);
        }
        cat.add_table(lb.finish());
        cat.add_join_index(JoinIndexDef {
            name: "li_fkey".into(),
            from_table: "lineitem".into(),
            from_column: "l_orderkey".into(),
            to_table: "orders".into(),
            to_key: "o_orderkey".into(),
        })
        .unwrap();
        cat
    }

    #[test]
    fn bind_is_shared() {
        let cat = orders_lineitem();
        let a = cat.bind("orders", "o_orderkey").unwrap();
        let b = cat.bind("orders", "o_orderkey").unwrap();
        assert_eq!(a.id(), b.id(), "bind must return the shared BAT");
    }

    #[test]
    fn join_index_maps_fk_to_oid() {
        let cat = orders_lineitem();
        let idx = cat.bind_idx("li_fkey").unwrap();
        assert_eq!(
            idx.tail().iter_values().collect::<Vec<_>>(),
            vec![Value::Oid(Oid(0)), Value::Oid(Oid(0)), Value::Oid(Oid(2))]
        );
    }

    #[test]
    fn append_commit_extends_columns() {
        let mut cat = orders_lineitem();
        let before = cat.bind("orders", "o_orderkey").unwrap();
        cat.append("orders", vec![vec![Value::Int(400), Value::Float(40.0)]])
            .unwrap();
        // staged, not yet visible
        assert_eq!(cat.table("orders").unwrap().nrows(), 3);
        let report = cat.commit("orders").unwrap();
        assert_eq!(cat.table("orders").unwrap().nrows(), 4);
        assert_eq!(report.version, 1);
        assert_eq!(report.inserted.len(), 2);
        let (name, ins) = &report.inserted[0];
        assert_eq!(name, "o_orderkey");
        assert_eq!(ins.head().value(0), Value::Oid(Oid(3)));
        let after = cat.bind("orders", "o_orderkey").unwrap();
        assert_ne!(before.id(), after.id(), "commit must re-identify columns");
        assert!(report.rebuilt_indices.contains(&"li_fkey".to_string()));
    }

    #[test]
    fn delete_compacts_and_reindexes() {
        let mut cat = orders_lineitem();
        cat.delete("orders", vec![0]).unwrap(); // drop orderkey 100
        let report = cat.commit("orders").unwrap();
        assert_eq!(report.deleted, vec![0]);
        assert_eq!(cat.table("orders").unwrap().nrows(), 2);
        let idx = cat.bind_idx("li_fkey").unwrap();
        // lineitems of deleted order now dangle → Nil
        let vals: Vec<Value> = idx.tail().iter_values().collect();
        assert_eq!(vals[0], Value::Nil);
        assert_eq!(vals[2], Value::Oid(Oid(1))); // order 300 shifted to oid 1
    }

    /// Every column and index identity of `cat`, by name.
    fn identities(cat: &Catalog) -> BTreeMap<String, crate::BatId> {
        let mut ids: BTreeMap<String, crate::BatId> = cat
            .tables()
            .flat_map(|t| {
                t.columns
                    .iter()
                    .map(|(c, b)| (format!("{}.{c}", t.name), b.id()))
            })
            .collect();
        ids.extend(cat.indices.iter().map(|(n, b)| (n.clone(), b.id())));
        ids
    }

    /// A fast smoke test of the identity rule; the commit oracle in
    /// `tests/commit_oracle.rs` checks it after every random commit.
    #[test]
    fn commit_reidentifies_only_what_it_touches() {
        let mut cat = orders_lineitem();
        let mut nb = TableBuilder::new("nation").column("n_key", LogicalType::Int);
        for k in [1, 2, 3] {
            nb.push_row(&[Value::Int(k)]);
        }
        cat.add_table(nb.finish());
        cat.add_join_index(JoinIndexDef {
            name: "li_nation".into(),
            from_table: "lineitem".into(),
            from_column: "l_qty".into(),
            to_table: "nation".into(),
            to_key: "n_key".into(),
        })
        .unwrap();
        let before = identities(&cat);
        cat.append("orders", vec![vec![Value::Int(400), Value::Float(40.0)]])
            .unwrap();
        cat.delete("orders", vec![1]).unwrap();
        let report = cat.commit("orders").unwrap();
        assert_eq!(report.rebuilt_indices, vec!["li_fkey".to_string()]);
        let after = identities(&cat);
        for (name, id) in &before {
            let fresh = name.starts_with("orders.") || name == "li_fkey";
            assert_eq!(after[name] != *id, fresh, "{name}");
        }
    }

    #[test]
    fn spliced_columns_carry_from_scratch_props() {
        let fresh_props = |rows: &[(Value, Value)]| {
            let mut ob = TableBuilder::new("orders")
                .column("o_orderkey", LogicalType::Int)
                .column("o_totalprice", LogicalType::Float);
            for (k, p) in rows {
                ob.push_row(&[k.clone(), p.clone()]);
            }
            let t = ob.finish();
            ["o_orderkey", "o_totalprice"].map(|c| t.column(c).unwrap().props())
        };
        let props = |cat: &Catalog| {
            ["o_orderkey", "o_totalprice"].map(|c| cat.bind("orders", c).unwrap().props())
        };
        let mut cat = orders_lineitem();
        // A sorted key gains a sorted tail and a NULL price ...
        cat.append("orders", vec![vec![Value::Int(400), Value::Nil]])
            .unwrap();
        cat.commit("orders").unwrap();
        let rows = [
            (Value::Int(100), Value::Float(10.0)),
            (Value::Int(200), Value::Float(20.0)),
            (Value::Int(300), Value::Float(30.0)),
            (Value::Int(400), Value::Nil),
        ];
        assert_eq!(props(&cat), fresh_props(&rows));
        assert!(props(&cat)[0].tail_sorted && !props(&cat)[1].tail_nonil);
        // ... then loses that NULL row and gains an out-of-order key.
        cat.delete("orders", vec![3]).unwrap();
        cat.append("orders", vec![vec![Value::Int(50), Value::Float(5.0)]])
            .unwrap();
        cat.commit("orders").unwrap();
        let rows = [
            (Value::Int(100), Value::Float(10.0)),
            (Value::Int(200), Value::Float(20.0)),
            (Value::Int(300), Value::Float(30.0)),
            (Value::Int(50), Value::Float(5.0)),
        ];
        assert_eq!(props(&cat), fresh_props(&rows));
        assert!(!props(&cat)[0].tail_sorted && props(&cat)[1].tail_nonil);
    }

    #[test]
    fn empty_commit_is_noop() {
        let mut cat = orders_lineitem();
        let before = cat.bind("orders", "o_orderkey").unwrap();
        let report = cat.commit("orders").unwrap();
        assert_eq!(report.version, 0);
        let after = cat.bind("orders", "o_orderkey").unwrap();
        assert_eq!(before.id(), after.id());
    }

    #[test]
    fn arity_checked() {
        let mut cat = orders_lineitem();
        assert!(cat.append("orders", vec![vec![Value::Int(1)]]).is_err());
        assert!(cat.bind("orders", "nope").is_err());
        assert!(cat.bind("nope", "x").is_err());
        assert!(cat.bind_idx("nope").is_err());
    }

    #[test]
    fn cell_readers_keep_their_epoch() {
        let cell = CatalogCell::new(orders_lineitem());
        let (e0, snap0) = cell.pinned();
        assert_eq!(e0, 0);
        let report = cell
            .update(
                "orders",
                vec![vec![Value::Int(400), Value::Float(40.0)]],
                vec![],
            )
            .unwrap();
        assert_eq!(report.version, 1);
        // the pinned pre-commit snapshot is untouched
        assert_eq!(snap0.table("orders").unwrap().nrows(), 3);
        let (e1, snap1) = cell.pinned();
        assert_eq!(e1, 1);
        assert_eq!(snap1.table("orders").unwrap().nrows(), 4);
        // bind identities differ across the commit, agree within an epoch
        let old = snap0.bind("orders", "o_orderkey").unwrap();
        let new = snap1.bind("orders", "o_orderkey").unwrap();
        assert_ne!(old.id(), new.id());
        assert_eq!(
            new.id(),
            cell.snapshot().bind("orders", "o_orderkey").unwrap().id()
        );
    }

    #[test]
    fn cell_update_errors_leave_epoch_unchanged() {
        let cell = CatalogCell::new(orders_lineitem());
        assert!(cell
            .update("orders", vec![vec![Value::Int(1)]], vec![])
            .is_err());
        assert_eq!(cell.epoch(), 0);
        assert_eq!(cell.snapshot().table("orders").unwrap().nrows(), 3);
    }
}
