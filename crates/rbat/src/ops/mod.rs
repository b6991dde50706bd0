//! The binary relational algebra over BATs.
//!
//! Every operator takes BAT references and produces a fresh BAT
//! (operator-at-a-time, full materialisation). Cheap viewpoint operators
//! live on [`crate::Bat`] itself (`reverse`, `mirror`, `mark_t`); this module
//! hosts the data-touching operators:
//!
//! * [`select`] / [`uselect`] / [`select_not_nil`] / [`like_select`] — filters
//! * [`join`] / [`semijoin`] / [`diff`] — joins and set operations
//! * [`group`] / [`group_refine`] / grouped aggregates — grouping
//! * [`aggr`] — scalar aggregates
//! * [`sort`] / [`topn`] — ordering
//! * [`calc`] / [`calc_cmp`] — column arithmetic and comparisons
//! * [`kunique`] — duplicate elimination
//! * [`concat`] — tuple union (used by combined subsumption and deltas)

mod aggr;
mod calc;
mod group;
mod join;
mod like;
mod select;
mod sort;
mod unique;

pub use aggr::{aggr, AggrFunc};
pub use calc::{calc, calc_cmp, CalcOp, CalcRhs, CmpOp};
pub use group::{
    group, group_build, group_probe, group_refine, grp_aggr, grp_first, num_groups, GroupMap,
    GrpFunc,
};
pub use join::{diff, join, join_build, join_probe, semijoin, JoinBuild};
pub use like::{like_match, like_select, like_subsumes};
pub use select::{concat, select, select_not_nil, uselect, SelectBounds};
pub use sort::{sort, sort_build, sort_probe, topn, SortedRun};
pub use unique::kunique;

use crate::buffer::TypedSlice;
use crate::column::Column;

/// Visit the fixed-width keys of `col` in row order as `u64` words:
/// `f(i, Some(key))` for row `i`, `f(i, None)` for a NULL row. Returns
/// `false`, visiting nothing, for a string column (see
/// [`visit_str_keys`]).
///
/// Keys are OIDs as they are, integers and dates sign-extended, booleans
/// as 0/1 and floats by `to_bits` (so `-0.0 != 0.0` and a NaN matches
/// only its own bit pattern). There is one loop per physical type, so
/// each caller's closure is compiled into each of them, and the NULL test
/// is hoisted out of the loop when the window holds no NULLs. Nothing is
/// allocated.
#[inline]
pub(crate) fn visit_keys(col: &Column, mut f: impl FnMut(usize, Option<u64>)) -> bool {
    macro_rules! visit {
        ($keys:expr) => {
            if col.has_nulls() {
                for (i, k) in $keys.enumerate() {
                    f(i, col.is_valid(i).then_some(k));
                }
            } else {
                for (i, k) in $keys.enumerate() {
                    f(i, Some(k));
                }
            }
        };
    }
    match col.typed() {
        TypedSlice::Dense { start, len } => visit!(start..start + len as u64),
        TypedSlice::Oid(s) => visit!(s.iter().copied()),
        TypedSlice::Int(s) => visit!(s.iter().map(|&v| v as u64)),
        TypedSlice::Date(s) => visit!(s.iter().map(|&v| v as i64 as u64)),
        TypedSlice::Bool(s) => visit!(s.iter().map(|&v| v as u64)),
        TypedSlice::Float(s) => visit!(s.iter().map(|&v| v.to_bits())),
        TypedSlice::Str { .. } => return false,
    }
    true
}

/// The string counterpart of [`visit_keys`]: `f(i, Some(bytes))` per row,
/// `None` for NULL, no UTF-8 check (byte order is `str` order). Returns
/// `false`, visiting nothing, for a fixed-width column.
#[inline]
pub(crate) fn visit_str_keys<'a>(
    col: &'a Column,
    mut f: impl FnMut(usize, Option<&'a [u8]>),
) -> bool {
    let TypedSlice::Str { buf, offset, len } = col.typed() else {
        return false;
    };
    let keys = (offset..offset + len).map(|i| buf.get_bytes(i));
    if col.has_nulls() {
        for (i, k) in keys.enumerate() {
            f(i, col.is_valid(i).then_some(k));
        }
    } else {
        for (i, k) in keys.enumerate() {
            f(i, Some(k));
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use crate::types::{LogicalType, Value};

    fn num_keys(col: &Column) -> Option<Vec<Option<u64>>> {
        let mut out = Vec::new();
        visit_keys(col, |i, k| {
            assert_eq!(i, out.len());
            out.push(k);
        })
        .then_some(out)
    }

    #[test]
    fn visit_keys_types() {
        let k = num_keys(&Column::from_ints(vec![-1, 0, 5])).unwrap();
        assert_eq!(k, [Some(-1i64 as u64), Some(0), Some(5)]);
        let k = num_keys(&Column::from_dates(vec![-2, 7])).unwrap();
        assert_eq!(k, [Some(-2i64 as u64), Some(7)]);
        let k = num_keys(&Column::from_floats(vec![0.0, -0.0])).unwrap();
        assert_eq!(k, [Some(0), Some((-0.0f64).to_bits())]);
        let k = num_keys(&Column::dense(10, 4).slice(1, 2)).unwrap();
        assert_eq!(k, [Some(11), Some(12)]);
        let s = Column::from_strs(["x"]);
        assert!(num_keys(&s).is_none());
        let mut strs = Vec::new();
        assert!(visit_str_keys(&s, |_, k| strs.push(k)));
        assert_eq!(strs, [Some(&b"x"[..])]);
        assert!(!visit_str_keys(&Column::from_oids(vec![1]), |_, _| {
            unreachable!()
        }));
    }

    #[test]
    fn visit_keys_null() {
        let mut b = ColumnBuilder::new(LogicalType::Int);
        for v in [Value::Int(1), Value::Nil, Value::Int(3)] {
            b.push(&v);
        }
        let c = b.finish();
        assert_eq!(num_keys(&c).unwrap(), [Some(1), None, Some(3)]);
        assert_eq!(num_keys(&c.slice(2, 1)).unwrap(), [Some(3)]);
        let mut b = ColumnBuilder::new(LogicalType::Str);
        for v in [Value::Nil, Value::str("é")] {
            b.push(&v);
        }
        let c = b.finish();
        let mut strs = Vec::new();
        visit_str_keys(&c, |_, k| strs.push(k));
        assert_eq!(strs, [None, Some("é".as_bytes())]);
    }
}
