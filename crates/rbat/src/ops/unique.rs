//! Duplicate elimination on the head (`bat.kunique`).

use crate::bat::Bat;
use crate::error::Result;
use crate::hash::FxHashSet;
use crate::ops::{visit_keys, visit_str_keys};
use crate::props::Props;

/// Keep the first tuple for each distinct *head* value — the MAL idiom for
/// `COUNT(DISTINCT x)` is `reverse` (value becomes head), `kunique`,
/// `reverse`, `count`. NULL heads count as one value.
pub fn kunique(b: &Bat) -> Result<Bat> {
    let mut idx = Vec::new();
    let mut nums = FxHashSet::default();
    let mut strs = FxHashSet::default();
    let fixed_width = visit_keys(b.head(), |i, k| {
        if nums.insert(k) {
            idx.push(i as u32);
        }
    });
    if !fixed_width {
        visit_str_keys(b.head(), |i, k| {
            if strs.insert(k) {
                idx.push(i as u32);
            }
        });
    }
    Ok(Bat::new(
        b.head().gather(&idx),
        b.tail().gather(&idx),
        Props {
            head_key: true,
            tail_nonil: b.props().tail_nonil,
            ..Props::default()
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::types::{Oid, Value};

    #[test]
    fn dedup_by_head() {
        let b = Bat::new(
            Column::from_oids(vec![5, 5, 7, 5]),
            Column::from_ints(vec![1, 2, 3, 4]),
            Props::default(),
        );
        let u = kunique(&b).unwrap();
        assert_eq!(
            u.canonical_tuples(),
            vec![
                (Value::Oid(Oid(5)), Value::Int(1)),
                (Value::Oid(Oid(7)), Value::Int(3)),
            ]
        );
        assert!(u.props().head_key);
    }

    #[test]
    fn string_heads() {
        let b = Bat::new(
            Column::from_strs(["a", "b", "a"]),
            Column::from_ints(vec![1, 2, 3]),
            Props::default(),
        );
        let u = kunique(&b).unwrap();
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn count_distinct_idiom() {
        // distinct count over tail values: reverse → kunique → count
        let b = Bat::from_tail(Column::from_ints(vec![10, 20, 10, 30, 20]));
        let u = kunique(&b.reverse()).unwrap();
        assert_eq!(u.len(), 3);
    }
}
