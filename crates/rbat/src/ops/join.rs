//! Join operators: natural join on `l.tail == r.head`, semijoin and
//! anti-semijoin (difference) on head OIDs.
//!
//! # Kernel selection
//!
//! Every kernel reads its keys through the zero-allocation visitors
//! ([`visit_keys`], [`visit_str_keys`]). The choice between kernels
//! depends only on the inputs (a dense head, or key span against row
//! counts). That is a property of the data, so there is no knob.
//!
//! * **Join** (`l.tail == r.head`, build side `r`):
//!   * a dense `r.head` is a *fetch join*: a key is its own build row, so
//!     there is no table at all;
//!   * otherwise the build is a CSR table: an `FxHashMap` maps each key
//!     to a slot, and slot `s`'s build rows are
//!     `rows[offsets[s]..offsets[s + 1]]`, in ascending order. No key owns
//!     a `Vec` of rows.
//! * **Semijoin / diff** (membership of `l.head` among `r.head`):
//!   * a dense `r.head` is a range check;
//!   * `r`'s keys spanning at most [`BITMAP_SPAN`] times `|l| + |r|`
//!     are a bitmap over `[min, max]`: ≤ 4 bytes per input row, one
//!     word test per probe;
//!   * otherwise an `FxHashSet`.
//!
//! Semantics are the same on every path: NULL keys match nothing (so
//! `diff` drops NULL-head rows too), float keys compare by `to_bits`, a
//! semijoin keeps `l`'s order, and a join emits `l`'s order, then build
//! order within a key.

use crate::bat::Bat;
use crate::bitmap::Bitmap;
use crate::buffer::TypedSlice;
use crate::column::Column;
use crate::error::{BatError, Result};
use crate::hash::{FxHashMap, FxHashSet};
use crate::ops::{visit_keys, visit_str_keys};
use crate::props::Props;
use crate::types::LogicalType;

/// Semijoin membership is a bitmap when `r`'s keys span at most this many
/// bits per row of `|l| + |r|`.
const BITMAP_SPAN: u64 = 32;

/// Exported build side of a hash join: the lookup structure over `r.head`,
/// detached from the borrow of `r` so it can be cached and re-imported by a
/// later probe (operator-state recycling). String tables copy their keys
/// out of the build BAT's string buffer.
#[derive(Debug)]
pub struct JoinBuild(Build);

#[derive(Debug)]
enum Build {
    /// `r.head` is dense: a fetch join needs no table, only the range.
    Dense { start: u64, len: usize },
    /// Fixed-width keys (NULL build rows excluded).
    Num(Table<u64>),
    /// String keys (NULL build rows excluded).
    Str(Table<Box<[u8]>>),
}

impl JoinBuild {
    /// Heap footprint, for pool byte accounting.
    pub fn byte_size(&self) -> usize {
        match &self.0 {
            Build::Dense { .. } => 16,
            Build::Num(t) => t.byte_size(),
            Build::Str(t) => t.byte_size() + t.slots.keys().map(|k| k.len()).sum::<usize>(),
        }
    }
}

/// Marks a build row without a slot (a NULL key).
const NO_SLOT: u32 = u32::MAX;

/// The slot of `key` in `slots`, a new one if it is new.
#[inline]
fn slot_of<K: Eq + std::hash::Hash>(slots: &mut FxHashMap<K, u32>, key: Option<K>) -> u32 {
    key.map_or(NO_SLOT, |k| {
        let next = slots.len() as u32;
        *slots.entry(k).or_insert(next)
    })
}

/// Build rows grouped by key slot: slot `s` owns
/// `rows[offsets[s]..offsets[s + 1]]`, in ascending row order.
#[derive(Debug)]
struct Csr {
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl Csr {
    /// Counting sort of the rows `j` by `row_slots[j]` over `nslots` slots;
    /// rows marked [`NO_SLOT`] are left out.
    fn new(row_slots: &[u32], nslots: usize) -> Csr {
        let mut offsets = vec![0u32; nslots + 1];
        for &s in row_slots.iter().filter(|&&s| s != NO_SLOT) {
            offsets[s as usize] += 1;
        }
        let mut total = 0;
        for o in &mut offsets {
            (*o, total) = (total, total + *o);
        }
        // Filling moves each slot's start to its end, which is the next
        // slot's start; shift right by one to restore the starts.
        let mut rows = vec![0u32; total as usize];
        for (j, &s) in row_slots.iter().enumerate().filter(|(_, &s)| s != NO_SLOT) {
            let o = &mut offsets[s as usize];
            rows[*o as usize] = j as u32;
            *o += 1;
        }
        offsets.copy_within(0..nslots, 1);
        offsets[0] = 0;
        Csr { offsets, rows }
    }

    /// The build rows under `slot`.
    #[inline]
    fn rows(&self, slot: usize) -> &[u32] {
        &self.rows[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }

    fn byte_size(&self) -> usize {
        (self.offsets.len() + self.rows.len()) * 4
    }
}

/// A CSR join table: key → slot, slots in order of first appearance.
#[derive(Debug)]
struct Table<K> {
    slots: FxHashMap<K, u32>,
    csr: Csr,
}

impl<K: Eq + std::hash::Hash> Table<K> {
    /// Groups the build rows by `row_slots[j]`, the slot `slots` gave
    /// row `j`'s key.
    fn new(slots: FxHashMap<K, u32>, row_slots: &[u32]) -> Table<K> {
        let csr = Csr::new(row_slots, slots.len());
        Table { slots, csr }
    }

    /// Heap footprint of the map's buckets and the CSR arrays (not of any
    /// heap data the keys own).
    fn byte_size(&self) -> usize {
        self.slots.capacity() * (std::mem::size_of::<(K, u32)>() + 1) + self.csr.byte_size()
    }
}

/// Build half of [`join`]: construct the CSR table (or dense descriptor)
/// over `r.head`, the canonical build side.
pub fn join_build(r: &Bat) -> Result<JoinBuild> {
    let head = r.head();
    if let TypedSlice::Dense { start, len } = head.typed() {
        return Ok(JoinBuild(Build::Dense { start, len }));
    }
    let mut row_slots = Vec::with_capacity(head.len());
    let mut nums = FxHashMap::default();
    let build = if visit_keys(head, |_, k| row_slots.push(slot_of(&mut nums, k))) {
        Build::Num(Table::new(nums, &row_slots))
    } else {
        let mut strs = FxHashMap::default();
        visit_str_keys(head, |_, k| {
            row_slots.push(slot_of(&mut strs, k.map(Box::from)))
        });
        Build::Str(Table::new(strs, &row_slots))
    };
    Ok(JoinBuild(build))
}

/// Probe half of [`join`]: stream `l.tail` through a prebuilt table over
/// `r.head`. `build` must have been produced by [`join_build`] on the same
/// `r` (enforced upstream by keying cached builds on the BAT's identity).
pub fn join_probe(l: &Bat, r: &Bat, build: &JoinBuild) -> Result<Bat> {
    let keys = l.tail();
    let (mut li, mut ri) = (Vec::new(), Vec::new());
    if let Build::Dense { .. } = build.0 {
        // A fetch join emits at most one pair per probe row.
        li.reserve(keys.len());
        ri.reserve(keys.len());
    }
    let mut emit = |i: usize, matches: &[u32]| {
        for &j in matches {
            li.push(i as u32);
            ri.push(j);
        }
    };
    let typed = match &build.0 {
        Build::Dense { start, len } => {
            let fetched = visit_keys(keys, |i, k| {
                let row = k.map_or(u64::MAX, |k| k.wrapping_sub(*start));
                if row < *len as u64 {
                    emit(i, &[row as u32]);
                }
            });
            if !fetched {
                return Err(BatError::type_mismatch(
                    "join",
                    "string fetch-join keys unsupported",
                ));
            }
            true
        }
        Build::Num(t) => visit_keys(keys, |i, k| {
            if let Some(&slot) = k.and_then(|k| t.slots.get(&k)) {
                emit(i, t.csr.rows(slot as usize));
            }
        }),
        Build::Str(t) => visit_str_keys(keys, |i, k| {
            if let Some(&slot) = k.and_then(|k| t.slots.get(k)) {
                emit(i, t.csr.rows(slot as usize));
            }
        }),
    };
    if !typed {
        return Err(BatError::type_mismatch(
            "join",
            format!(
                "join key types differ: {} vs {}",
                l.tail_type(),
                r.head_type()
            ),
        ));
    }
    Ok(assemble(l, r, &li, &ri))
}

/// `algebra.join(l, r)`: for every pair `i, j` with `l.tail[i] == r.head[j]`
/// emit `(l.head[i], r.tail[j])` — the canonical MonetDB binary join.
/// Kernels are chosen as the module documentation describes.
///
/// Composed from [`join_build`] + [`join_probe`], so a cached build side
/// produces bit-identical results to a cold join.
pub fn join(l: &Bat, r: &Bat) -> Result<Bat> {
    let build = join_build(r)?;
    join_probe(l, r, &build)
}

fn assemble(l: &Bat, r: &Bat, li: &[u32], ri: &[u32]) -> Bat {
    let head = l.head().gather(li);
    let tail = r.tail().gather(ri);
    Bat::new(
        head,
        tail,
        Props {
            head_sorted: l.props().head_dense || l.props().head_sorted,
            ..Props::default()
        },
    )
}

/// `algebra.semijoin(l, r)`: tuples of `l` whose *head* appears among the
/// heads of `r` — the projection idiom of MonetDB plans.
pub fn semijoin(l: &Bat, r: &Bat) -> Result<Bat> {
    filter_by_head(l, r, true)
}

/// `bat.kdiff`-style anti-semijoin: tuples of `l` whose head does *not*
/// appear among the heads of `r`.
pub fn diff(l: &Bat, r: &Bat) -> Result<Bat> {
    filter_by_head(l, r, false)
}

fn filter_by_head(l: &Bat, r: &Bat, keep_members: bool) -> Result<Bat> {
    let (lh, rh) = (l.head(), r.head());
    let idx = match (
        l.head_type() == LogicalType::Str,
        r.head_type() == LogicalType::Str,
    ) {
        (false, false) => num_members(lh, rh, keep_members),
        (true, true) => {
            let mut set = FxHashSet::default();
            visit_str_keys(rh, |_, k| {
                set.extend(k);
            });
            let mut idx = Vec::new();
            visit_str_keys(lh, |i, k| {
                if k.is_some_and(|k| set.contains(k) == keep_members) {
                    idx.push(i as u32);
                }
            });
            idx
        }
        _ => {
            return Err(BatError::type_mismatch(
                "semijoin",
                format!("head types differ: {} vs {}", l.head_type(), r.head_type()),
            ))
        }
    };
    Ok(Bat::new(
        l.head().gather(&idx),
        l.tail().gather(&idx),
        Props {
            head_sorted: l.props().head_dense || l.props().head_sorted,
            head_key: l.props().head_key,
            tail_nonil: l.props().tail_nonil,
            ..Props::default()
        },
    ))
}

/// Rows of fixed-width `keys` whose membership among the non-NULL keys of
/// `members` equals `keep_members`, in row order; NULL keys never qualify.
fn num_members(keys: &Column, members: &Column, keep_members: bool) -> Vec<u32> {
    fn scan(keys: &Column, keep_members: bool, member: impl Fn(u64) -> bool) -> Vec<u32> {
        let mut idx = Vec::new();
        visit_keys(keys, |i, k| {
            if k.is_some_and(|k| member(k) == keep_members) {
                idx.push(i as u32);
            }
        });
        idx
    }
    if let (TypedSlice::Dense { start, len }, false) = (members.typed(), members.has_nulls()) {
        return scan(keys, keep_members, |k| k.wrapping_sub(start) < len as u64);
    }
    let (mut lo, mut hi, mut n) = (u64::MAX, 0, 0usize);
    visit_keys(members, |_, k| {
        if let Some(k) = k {
            (lo, hi, n) = (lo.min(k), hi.max(k), n + 1);
        }
    });
    if n == 0 {
        return scan(keys, keep_members, |_| false);
    }
    let rows = (keys.len() + members.len()) as u64;
    if hi - lo < rows.saturating_mul(BITMAP_SPAN) {
        let span = hi - lo;
        let mut bits = Bitmap::new(span as usize + 1, false);
        visit_keys(members, |_, k| {
            if let Some(k) = k {
                bits.set((k - lo) as usize, true);
            }
        });
        scan(keys, keep_members, |k| {
            let s = k.wrapping_sub(lo);
            s <= span && bits.get(s as usize)
        })
    } else {
        let mut set = FxHashSet::with_capacity_and_hasher(n, Default::default());
        visit_keys(members, |_, k| {
            set.extend(k);
        });
        scan(keys, keep_members, |k| set.contains(&k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::types::{Oid, Value};

    fn bat(head: Vec<u64>, tail: Vec<i64>) -> Bat {
        Bat::new(
            Column::from_oids(head),
            Column::from_ints(tail),
            Props::default(),
        )
    }

    #[test]
    fn hash_join_basic() {
        // l: (h, key), r: (key-as-head, payload)
        let l = Bat::new(
            Column::from_oids(vec![0, 1, 2]),
            Column::from_oids(vec![10, 20, 10]),
            Props::default(),
        );
        let r = Bat::new(
            Column::from_oids(vec![10, 30]),
            Column::from_ints(vec![111, 333]),
            Props::default(),
        );
        let j = join(&l, &r).unwrap();
        assert_eq!(
            j.canonical_tuples(),
            vec![
                (Value::Oid(Oid(0)), Value::Int(111)),
                (Value::Oid(Oid(2)), Value::Int(111)),
            ]
        );
    }

    #[test]
    fn fetch_join_dense_head() {
        let l = Bat::new(
            Column::from_oids(vec![7, 8]),
            Column::from_oids(vec![1, 5]),
            Props::default(),
        );
        let r = Bat::from_tail(Column::from_ints(vec![100, 101, 102])); // dense head 0..3
        let j = join(&l, &r).unwrap();
        // key 5 out of range, key 1 matches positionally
        assert_eq!(
            j.canonical_tuples(),
            vec![(Value::Oid(Oid(7)), Value::Int(101))]
        );
    }

    #[test]
    fn join_multimatch_duplicates() {
        let l = Bat::new(
            Column::from_oids(vec![0]),
            Column::from_oids(vec![5]),
            Props::default(),
        );
        let r = Bat::new(
            Column::from_oids(vec![5, 5]),
            Column::from_ints(vec![1, 2]),
            Props::default(),
        );
        let j = join(&l, &r).unwrap();
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn string_join() {
        let l = Bat::new(
            Column::from_oids(vec![0, 1]),
            Column::from_strs(["GERMANY", "FRANCE"]),
            Props::default(),
        );
        let r = Bat::new(
            Column::from_strs(["FRANCE", "KENYA"]),
            Column::from_ints(vec![7, 9]),
            Props::default(),
        );
        let j = join(&l, &r).unwrap();
        assert_eq!(
            j.canonical_tuples(),
            vec![(Value::Oid(Oid(1)), Value::Int(7))]
        );
    }

    #[test]
    fn semijoin_and_diff_partition() {
        let l = bat(vec![0, 1, 2, 3], vec![10, 11, 12, 13]);
        let r = bat(vec![1, 3, 9], vec![0, 0, 0]);
        let s = semijoin(&l, &r).unwrap();
        let d = diff(&l, &r).unwrap();
        assert_eq!(s.len() + d.len(), l.len());
        assert_eq!(
            s.head().iter_values().collect::<Vec<_>>(),
            vec![Value::Oid(Oid(1)), Value::Oid(Oid(3))]
        );
        assert_eq!(
            d.head().iter_values().collect::<Vec<_>>(),
            vec![Value::Oid(Oid(0)), Value::Oid(Oid(2))]
        );
    }

    #[test]
    fn join_null_keys_do_not_match() {
        use crate::column::ColumnBuilder;
        use crate::types::LogicalType;
        let mut cb = ColumnBuilder::new(LogicalType::Oid);
        cb.push(&Value::Oid(Oid(1)));
        cb.push(&Value::Nil);
        let l = Bat::new(Column::from_oids(vec![0, 1]), cb.finish(), Props::default());
        let r = Bat::new(
            Column::from_oids(vec![1]),
            Column::from_ints(vec![42]),
            Props::default(),
        );
        let j = join(&l, &r).unwrap();
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn join_type_mismatch_errors() {
        let l = Bat::from_tail(Column::from_strs(["a"]));
        let r = Bat::new(
            Column::from_oids(vec![0]),
            Column::from_ints(vec![1]),
            Props::default(),
        );
        // l.tail is str, r.head is oid (non-dense) → error
        let l2 = Bat::new(
            Column::from_oids(vec![0]),
            Column::from_strs(["x"]),
            Props::default(),
        );
        assert!(join(&l2, &r).is_err());
        let _ = l;
    }
}
