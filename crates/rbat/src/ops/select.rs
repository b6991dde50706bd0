//! Selection operators: range select, equality select, NULL filtering,
//! and tuple concatenation.

use std::cmp::Ordering;

use crate::bat::Bat;
use crate::buffer::TypedSlice;
use crate::column::Column;
use crate::error::{BatError, Result};
use crate::props::Props;
use crate::types::Value;

/// Bounds of a range selection: `lo`/`hi` of `Value::Nil` mean unbounded.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SelectBounds {
    /// Lower bound (or Nil).
    pub lo: Value,
    /// Upper bound (or Nil).
    pub hi: Value,
    /// Lower bound inclusive?
    pub lo_incl: bool,
    /// Upper bound inclusive?
    pub hi_incl: bool,
}

impl SelectBounds {
    /// Closed range `[lo, hi]`.
    pub fn closed(lo: Value, hi: Value) -> SelectBounds {
        SelectBounds {
            lo,
            hi,
            lo_incl: true,
            hi_incl: true,
        }
    }

    /// Half-open range `[lo, hi)`, the TPC-H date-range idiom.
    pub fn half_open(lo: Value, hi: Value) -> SelectBounds {
        SelectBounds {
            lo,
            hi,
            lo_incl: true,
            hi_incl: false,
        }
    }

    /// Does `v` fall within these bounds? NULL never qualifies.
    pub fn contains(&self, v: &Value) -> bool {
        if v.is_nil() {
            return false;
        }
        if !self.lo.is_nil() {
            match v.cmp_same(&self.lo) {
                Some(Ordering::Less) => return false,
                Some(Ordering::Equal) if !self.lo_incl => return false,
                None => return false,
                _ => {}
            }
        }
        if !self.hi.is_nil() {
            match v.cmp_same(&self.hi) {
                Some(Ordering::Greater) => return false,
                Some(Ordering::Equal) if !self.hi_incl => return false,
                None => return false,
                _ => {}
            }
        }
        true
    }

    /// Are these bounds contained within `outer` (i.e. `outer` subsumes
    /// `self`)? Unbounded sides of `outer` always contain; unbounded sides
    /// of `self` require the same side of `outer` unbounded.
    pub fn subsumed_by(&self, outer: &SelectBounds) -> bool {
        let lo_ok = if outer.lo.is_nil() {
            true
        } else if self.lo.is_nil() {
            false
        } else {
            match self.lo.cmp_same(&outer.lo) {
                Some(Ordering::Greater) => true,
                Some(Ordering::Equal) => outer.lo_incl || !self.lo_incl,
                _ => false,
            }
        };
        let hi_ok = if outer.hi.is_nil() {
            true
        } else if self.hi.is_nil() {
            false
        } else {
            match self.hi.cmp_same(&outer.hi) {
                Some(Ordering::Less) => true,
                Some(Ordering::Equal) => outer.hi_incl || !self.hi_incl,
                _ => false,
            }
        };
        lo_ok && hi_ok
    }

    /// Do two bound ranges overlap (share at least a point, assuming a
    /// totally ordered domain)? Used by combined subsumption.
    pub fn overlaps(&self, other: &SelectBounds) -> bool {
        let hi_before_lo = |hi: &Value, hi_incl: bool, lo: &Value, lo_incl: bool| -> bool {
            if hi.is_nil() || lo.is_nil() {
                return false;
            }
            match hi.cmp_same(lo) {
                Some(Ordering::Less) => true,
                Some(Ordering::Equal) => !(hi_incl && lo_incl),
                _ => false,
            }
        };
        !hi_before_lo(&self.hi, self.hi_incl, &other.lo, other.lo_incl)
            && !hi_before_lo(&other.hi, other.hi_incl, &self.lo, self.lo_incl)
    }
}

fn filter_indices(tail: &Column, bounds: &SelectBounds) -> Vec<u32> {
    let mut idx = Vec::new();
    let t = tail.typed();
    macro_rules! scan_native {
        ($s:expr, $conv:expr) => {{
            let lo = bounds.lo.clone();
            let hi = bounds.hi.clone();
            let lo_n = if lo.is_nil() { None } else { $conv(&lo) };
            let hi_n = if hi.is_nil() { None } else { $conv(&hi) };
            // Type mismatch between bounds and column → empty result.
            if (!lo.is_nil() && lo_n.is_none()) || (!hi.is_nil() && hi_n.is_none()) {
                return idx;
            }
            for (i, &v) in $s.iter().enumerate() {
                if !tail.is_valid(i) {
                    continue;
                }
                if let Some(l) = lo_n {
                    if v < l || (v == l && !bounds.lo_incl) {
                        continue;
                    }
                }
                if let Some(h) = hi_n {
                    if v > h || (v == h && !bounds.hi_incl) {
                        continue;
                    }
                }
                idx.push(i as u32);
            }
        }};
    }
    match t {
        TypedSlice::Int(s) => scan_native!(s, |v: &Value| v.as_int()),
        TypedSlice::Float(s) => scan_native!(s, |v: &Value| v.as_float()),
        TypedSlice::Date(s) => scan_native!(s, |v: &Value| v.as_date().map(|d| d.0)),
        TypedSlice::Oid(s) => scan_native!(s, |v: &Value| v.as_oid().map(|o| o.0)),
        TypedSlice::Bool(s) => scan_native!(s, |v: &Value| v.as_bool()),
        TypedSlice::Dense { start, len } => {
            for i in 0..len {
                let v = Value::Oid(crate::types::Oid(start + i as u64));
                if bounds.contains(&v) {
                    idx.push(i as u32);
                }
            }
        }
        TypedSlice::Str { buf, offset, len } => {
            // Byte order is `str` order: compare raw bytes, no UTF-8 check.
            let lo = bounds.lo.as_str().map(str::as_bytes);
            let hi = bounds.hi.as_str().map(str::as_bytes);
            if (!bounds.lo.is_nil() && lo.is_none()) || (!bounds.hi.is_nil() && hi.is_none()) {
                return idx;
            }
            for i in 0..len {
                if !tail.is_valid(i) {
                    continue;
                }
                let s = buf.get_bytes(offset + i);
                if let Some(l) = lo {
                    if s < l || (s == l && !bounds.lo_incl) {
                        continue;
                    }
                }
                if let Some(h) = hi {
                    if s > h || (s == h && !bounds.hi_incl) {
                        continue;
                    }
                }
                idx.push(i as u32);
            }
        }
    }
    idx
}

/// Binary-search window `[start, end)` of qualifying rows in a sorted,
/// NULL-free tail.
fn sorted_window(tail: &Column, bounds: &SelectBounds) -> (usize, usize) {
    let n = tail.len();
    let lower = |v: &Value, incl: bool| -> usize {
        // first index i with tail[i] "inside" the lower bound
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let c = tail.value(mid).cmp_same(v).unwrap_or(Ordering::Less);
            let keep_right = match c {
                Ordering::Less => true,
                Ordering::Equal => !incl,
                Ordering::Greater => false,
            };
            if keep_right {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let upper = |v: &Value, incl: bool| -> usize {
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let c = tail.value(mid).cmp_same(v).unwrap_or(Ordering::Less);
            let keep_right = match c {
                Ordering::Less => true,
                Ordering::Equal => incl,
                Ordering::Greater => false,
            };
            if keep_right {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let start = if bounds.lo.is_nil() {
        0
    } else {
        lower(&bounds.lo, bounds.lo_incl)
    };
    let end = if bounds.hi.is_nil() {
        n
    } else {
        upper(&bounds.hi, bounds.hi_incl)
    };
    (start, end.max(start))
}

/// Range selection over the tail: returns the qualifying `(head, tail)`
/// tuples. If the tail is sorted and NULL-free the result is a zero-copy
/// view (`algebra.select` over an ordered BAT returns a BAT view, §2.3).
pub fn select(b: &Bat, bounds: &SelectBounds) -> Result<Bat> {
    if b.props().tail_sorted && !b.tail().has_nulls() {
        let (start, end) = sorted_window(b.tail(), bounds);
        return Ok(b.slice(start, end - start));
    }
    let idx = filter_indices(b.tail(), bounds);
    let head = b.head().gather(&idx);
    let tail = b.tail().gather(&idx);
    let props = Props {
        head_dense: false,
        head_sorted: b.props().head_dense || b.props().head_sorted,
        head_key: b.props().head_key,
        tail_sorted: false,
        tail_nonil: true,
    };
    Ok(Bat::new(head, tail, props))
}

/// Equality selection (`algebra.uselect`): tuples whose tail equals `v`.
pub fn uselect(b: &Bat, v: &Value) -> Result<Bat> {
    if v.is_nil() {
        return Err(BatError::type_mismatch("uselect", "nil probe value"));
    }
    select(b, &SelectBounds::closed(v.clone(), v.clone()))
}

/// Drop tuples whose tail is NULL (`algebra.selectNotNil`).
pub fn select_not_nil(b: &Bat) -> Result<Bat> {
    if !b.tail().has_nulls() {
        // Cheap identity-like copy: share the columns, keep a new id.
        return Ok(b.slice(0, b.len()));
    }
    let idx: Vec<u32> = (0..b.len())
        .filter(|&i| b.tail().is_valid(i))
        .map(|i| i as u32)
        .collect();
    Ok(Bat::new(
        b.head().gather(&idx),
        b.tail().gather(&idx),
        Props {
            tail_nonil: true,
            head_key: b.props().head_key,
            ..Props::default()
        },
    ))
}

/// Tuple union of BATs with identical schemas — used for piecing together
/// combined-subsumption segments and for delta propagation appends.
pub fn concat(parts: &[&Bat]) -> Result<Bat> {
    let first = parts
        .first()
        .ok_or_else(|| BatError::Internal("concat of zero parts".into()))?;
    let (ht, tt) = (first.head_type(), first.tail_type());
    for p in parts {
        if p.head_type() != ht || p.tail_type() != tt {
            return Err(BatError::type_mismatch(
                "concat",
                format!(
                    "schema mismatch: [{},{}] vs [{},{}]",
                    ht,
                    tt,
                    p.head_type(),
                    p.tail_type()
                ),
            ));
        }
    }
    let heads: Vec<Column> = parts.iter().map(|p| p.head().clone()).collect();
    let tails: Vec<Column> = parts.iter().map(|p| p.tail().clone()).collect();
    Ok(Bat::new(
        Column::concat(&heads),
        Column::concat(&tails),
        Props::default(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::types::{Date, Oid};

    fn int_bat(vals: Vec<i64>) -> Bat {
        // force unsorted path unless actually sorted
        Bat::from_tail(Column::from_ints(vals))
    }

    #[test]
    fn range_select_unsorted() {
        let b = int_bat(vec![5, 1, 9, 3, 7]);
        let r = select(&b, &SelectBounds::closed(Value::Int(3), Value::Int(7))).unwrap();
        assert_eq!(
            r.canonical_tuples(),
            vec![
                (Value::Oid(Oid(0)), Value::Int(5)),
                (Value::Oid(Oid(3)), Value::Int(3)),
                (Value::Oid(Oid(4)), Value::Int(7)),
            ]
        );
    }

    #[test]
    fn range_select_sorted_returns_view() {
        let b = int_bat(vec![1, 3, 5, 7, 9]);
        assert!(b.props().tail_sorted);
        let r = select(&b, &SelectBounds::half_open(Value::Int(3), Value::Int(9))).unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.tail().is_view(), "sorted select must be zero-copy");
        assert_eq!(r.tuple(0), (Value::Oid(Oid(1)), Value::Int(3)));
        assert_eq!(r.tuple(2), (Value::Oid(Oid(3)), Value::Int(7)));
    }

    #[test]
    fn select_open_bounds() {
        let b = int_bat(vec![5, 1, 9]);
        let r = select(&b, &SelectBounds::closed(Value::Nil, Value::Int(5))).unwrap();
        assert_eq!(r.len(), 2);
        let r2 = select(&b, &SelectBounds::closed(Value::Int(5), Value::Nil)).unwrap();
        assert_eq!(r2.len(), 2);
        let all = select(&b, &SelectBounds::closed(Value::Nil, Value::Nil)).unwrap();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn select_exclusive_bounds() {
        let b = int_bat(vec![2, 4, 1, 3]); // unsorted
        let r = select(
            &b,
            &SelectBounds {
                lo: Value::Int(1),
                hi: Value::Int(4),
                lo_incl: false,
                hi_incl: false,
            },
        )
        .unwrap();
        let vals: Vec<Value> = r.tail().iter_values().collect();
        assert_eq!(vals, vec![Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn select_dates() {
        let d = |s: &str| Date::parse(s).unwrap().0;
        let b = Bat::from_tail(Column::from_dates(vec![
            d("1996-07-01"),
            d("1996-01-15"),
            d("1996-09-30"),
        ]));
        let r = select(
            &b,
            &SelectBounds::half_open(Value::date("1996-07-01"), Value::date("1996-10-01")),
        )
        .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn uselect_strings() {
        let b = Bat::from_tail(Column::from_strs(["R", "A", "N", "R"]));
        let r = uselect(&b, &Value::str("R")).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(
            r.head().iter_values().collect::<Vec<_>>(),
            vec![Value::Oid(Oid(0)), Value::Oid(Oid(3))]
        );
    }

    #[test]
    fn select_type_mismatch_is_empty() {
        let b = int_bat(vec![1, 2, 3]);
        let r = select(&b, &SelectBounds::closed(Value::str("a"), Value::str("z"))).unwrap();
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn not_nil_filters() {
        let mut cb = ColumnBuilder::new(crate::types::LogicalType::Int);
        cb.push(&Value::Int(1));
        cb.push(&Value::Nil);
        cb.push(&Value::Int(3));
        let b = Bat::from_tail(cb.finish());
        let r = select_not_nil(&b).unwrap();
        assert_eq!(r.len(), 2);
        assert!(!r.tail().has_nulls());
    }

    #[test]
    fn nulls_never_qualify_in_range() {
        let mut cb = ColumnBuilder::new(crate::types::LogicalType::Int);
        cb.push(&Value::Int(5));
        cb.push(&Value::Nil);
        let b = Bat::from_tail(cb.finish());
        let r = select(&b, &SelectBounds::closed(Value::Nil, Value::Nil)).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn bounds_subsumption() {
        let inner = SelectBounds::closed(Value::Int(4), Value::Int(8));
        let outer = SelectBounds::closed(Value::Int(3), Value::Int(15));
        assert!(inner.subsumed_by(&outer));
        assert!(!outer.subsumed_by(&inner));
        // equal bounds with compatible inclusivity
        let a = SelectBounds::half_open(Value::Int(3), Value::Int(15));
        assert!(a.subsumed_by(&outer));
        assert!(!outer.subsumed_by(&a)); // outer includes 15, a does not
                                         // unbounded outer subsumes everything
        let unb = SelectBounds::closed(Value::Nil, Value::Nil);
        assert!(outer.subsumed_by(&unb));
        assert!(!unb.subsumed_by(&outer));
    }

    #[test]
    fn bounds_overlap() {
        let a = SelectBounds::closed(Value::Int(3), Value::Int(7));
        let b = SelectBounds::closed(Value::Int(5), Value::Int(15));
        let c = SelectBounds::closed(Value::Int(8), Value::Int(9));
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        // touching endpoints
        let d = SelectBounds::closed(Value::Int(7), Value::Int(8));
        assert!(a.overlaps(&d));
        let e = SelectBounds::half_open(Value::Int(1), Value::Int(3));
        assert!(
            !e.overlaps(&a),
            "half-open upper does not touch 3-closed lower"
        );
    }

    #[test]
    fn concat_parts() {
        let a = int_bat(vec![1, 2]);
        let b = int_bat(vec![3]);
        let c = concat(&[&a, &b]).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(
            c.tail().iter_values().collect::<Vec<_>>(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
        assert!(concat(&[]).is_err());
    }
}
