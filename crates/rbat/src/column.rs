//! Columns: a typed buffer plus a view window and an optional validity map.

use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::buffer::{Buffer, TypedSlice};
use crate::strbuf::StrBuffer;
use crate::types::{Date, LogicalType, Oid, Value};

/// A column is a window (`offset`, `len`) over a shared [`Buffer`], with an
/// optional validity bitmap for NULLs.
///
/// Slicing a column (for example the fast path of a range select over a
/// sorted column) produces a *view*: it shares the parent's buffer and costs
/// O(1) space. [`Column::resident_bytes`] reports ~0 for views so the
/// recycler's memory accounting reflects actual resource consumption — this
/// is what makes keeping whole instruction lineages affordable (paper §3.4).
#[derive(Debug, Clone)]
pub struct Column {
    buf: Buffer,
    offset: usize,
    len: usize,
    /// Validity aligned with the *buffer* (not the window).
    validity: Option<Arc<Bitmap>>,
    /// True when this column borrows another column's buffer.
    view: bool,
}

impl Column {
    /// A dense OID sequence (a MonetDB "void" column).
    pub fn dense(start: u64, len: usize) -> Column {
        Column {
            buf: Buffer::Dense { start, len },
            offset: 0,
            len,
            validity: None,
            view: false,
        }
    }

    /// Owned column from a buffer (no NULLs).
    pub fn from_buffer(buf: Buffer) -> Column {
        let len = buf.len();
        Column {
            buf,
            offset: 0,
            len,
            validity: None,
            view: false,
        }
    }

    /// Owned integer column.
    pub fn from_ints(v: Vec<i64>) -> Column {
        Column::from_buffer(Buffer::Int(Arc::new(v)))
    }

    /// Owned float column.
    pub fn from_floats(v: Vec<f64>) -> Column {
        Column::from_buffer(Buffer::Float(Arc::new(v)))
    }

    /// Owned OID column.
    pub fn from_oids(v: Vec<u64>) -> Column {
        Column::from_buffer(Buffer::Oid(Arc::new(v)))
    }

    /// Owned date column (days since epoch).
    pub fn from_dates(v: Vec<i32>) -> Column {
        Column::from_buffer(Buffer::Date(Arc::new(v)))
    }

    /// Owned string column.
    pub fn from_strs<'a>(it: impl IntoIterator<Item = &'a str>) -> Column {
        Column::from_buffer(Buffer::Str(Arc::new(StrBuffer::from_iter(it))))
    }

    /// Owned boolean column.
    pub fn from_bools(v: Vec<bool>) -> Column {
        Column::from_buffer(Buffer::Bool(Arc::new(v)))
    }

    /// Attach a validity bitmap (must match the buffer length).
    pub fn with_validity(mut self, validity: Bitmap) -> Column {
        assert_eq!(validity.len(), self.buf.len(), "validity length mismatch");
        if !validity.all_set() {
            self.validity = Some(Arc::new(validity));
        }
        self
    }

    /// Number of visible values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Logical type of the values.
    pub fn logical_type(&self) -> LogicalType {
        self.buf.logical_type()
    }

    /// Is this column a zero-copy view over another column's buffer?
    pub fn is_view(&self) -> bool {
        self.view
    }

    /// Does this column (window) contain NULLs?
    pub fn has_nulls(&self) -> bool {
        match &self.validity {
            None => false,
            Some(bm) => !bm.all_set_in(self.offset, self.offset + self.len),
        }
    }

    /// Is row `i` (window-relative) valid (non-NULL)?
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        match &self.validity {
            None => true,
            Some(bm) => bm.get(self.offset + i),
        }
    }

    /// Fetch value `i` (window-relative), mapping NULLs to [`Value::Nil`].
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        debug_assert!(i < self.len);
        if !self.is_valid(i) {
            return Value::Nil;
        }
        self.buf.value(self.offset + i)
    }

    /// Typed window over the visible values.
    #[inline]
    pub fn typed(&self) -> TypedSlice<'_> {
        self.buf.slice(self.offset, self.len)
    }

    /// Zero-copy sub-window `[from, from+len)` of this column.
    pub fn slice(&self, from: usize, len: usize) -> Column {
        assert!(from + len <= self.len, "slice out of bounds");
        Column {
            buf: self.buf.clone(),
            offset: self.offset + from,
            len,
            validity: self.validity.clone(),
            view: true,
        }
    }

    /// Bytes this column keeps alive *on its own account*: ~0 for views, the
    /// full buffer size for owned columns.
    pub fn resident_bytes(&self) -> usize {
        if self.view {
            std::mem::size_of::<Column>()
        } else {
            self.buf.byte_size() + self.validity.as_ref().map(|v| v.byte_size()).unwrap_or(0)
        }
    }

    /// Gather rows by window-relative indices into a fresh owned column.
    pub fn gather(&self, idx: &[u32]) -> Column {
        let t = self.typed();
        let mut nulls: Option<Bitmap> = None;
        let mark_null = |nulls: &mut Option<Bitmap>, pos: usize, total: usize| {
            nulls
                .get_or_insert_with(|| Bitmap::new(total, true))
                .set(pos, false);
        };
        let buf = match t {
            TypedSlice::Dense { start, .. } => {
                let v: Vec<u64> = idx.iter().map(|&i| start + i as u64).collect();
                Buffer::Oid(Arc::new(v))
            }
            TypedSlice::Oid(s) => {
                Buffer::Oid(Arc::new(idx.iter().map(|&i| s[i as usize]).collect()))
            }
            TypedSlice::Int(s) => {
                Buffer::Int(Arc::new(idx.iter().map(|&i| s[i as usize]).collect()))
            }
            TypedSlice::Float(s) => {
                Buffer::Float(Arc::new(idx.iter().map(|&i| s[i as usize]).collect()))
            }
            TypedSlice::Date(s) => {
                Buffer::Date(Arc::new(idx.iter().map(|&i| s[i as usize]).collect()))
            }
            TypedSlice::Str { buf, offset, .. } => {
                let mut out = StrBuffer::with_capacity(idx.len(), 8);
                for &i in idx {
                    out.push(buf.get(offset + i as usize));
                }
                Buffer::Str(Arc::new(out))
            }
            TypedSlice::Bool(s) => {
                Buffer::Bool(Arc::new(idx.iter().map(|&i| s[i as usize]).collect()))
            }
        };
        if self.validity.is_some() {
            for (pos, &i) in idx.iter().enumerate() {
                if !self.is_valid(i as usize) {
                    mark_null(&mut nulls, pos, idx.len());
                }
            }
        }
        let mut col = Column::from_buffer(buf);
        if let Some(bm) = nulls {
            col = col.with_validity(bm);
        }
        col
    }

    /// Concatenate same-typed columns into one fresh owned column: one
    /// `extend_from_slice` per part and buffer (a string window copies its
    /// byte arena once), validity kept aligned. Dense parts materialise as
    /// OIDs. Panics on an empty `parts` or on mixed logical types.
    pub fn concat(parts: &[Column]) -> Column {
        let first = parts.first().expect("concat needs at least one part");
        let total: usize = parts.iter().map(Column::len).sum();
        fn mixed() -> ! {
            panic!("concat of mixed column types")
        }
        let buf = match first.logical_type() {
            LogicalType::Oid => {
                let mut v = Vec::with_capacity(total);
                for p in parts {
                    match p.typed() {
                        TypedSlice::Dense { start, len } => v.extend(start..start + len as u64),
                        TypedSlice::Oid(s) => v.extend_from_slice(s),
                        _ => mixed(),
                    }
                }
                Buffer::Oid(Arc::new(v))
            }
            LogicalType::Int => Buffer::Int(Arc::new(concat_vec(parts, total, |t| match t {
                TypedSlice::Int(s) => s,
                _ => mixed(),
            }))),
            LogicalType::Float => Buffer::Float(Arc::new(concat_vec(parts, total, |t| match t {
                TypedSlice::Float(s) => s,
                _ => mixed(),
            }))),
            LogicalType::Date => Buffer::Date(Arc::new(concat_vec(parts, total, |t| match t {
                TypedSlice::Date(s) => s,
                _ => mixed(),
            }))),
            LogicalType::Bool => Buffer::Bool(Arc::new(concat_vec(parts, total, |t| match t {
                TypedSlice::Bool(s) => s,
                _ => mixed(),
            }))),
            LogicalType::Str => {
                let windows: Vec<(&StrBuffer, usize, usize)> = parts
                    .iter()
                    .map(|p| match p.typed() {
                        TypedSlice::Str { buf, offset, len } => (buf, offset, len),
                        _ => mixed(),
                    })
                    .collect();
                let bytes: usize = windows.iter().map(|(b, o, l)| b.range_bytes(*o, *l)).sum();
                let mut out = StrBuffer::with_capacity(total, bytes.div_ceil(total.max(1)));
                for (buf, offset, len) in windows {
                    out.extend_from_range(buf, offset, len);
                }
                Buffer::Str(Arc::new(out))
            }
        };
        let col = Column::from_buffer(buf);
        if parts.iter().all(|p| p.validity.is_none()) {
            return col;
        }
        let mut validity = Bitmap::new(total, true);
        let mut base = 0;
        for p in parts {
            if p.validity.is_some() {
                for i in (0..p.len).filter(|&i| !p.is_valid(i)) {
                    validity.set(base + i, false);
                }
            }
            base += p.len;
        }
        col.with_validity(validity)
    }

    /// Check whether the visible values are non-decreasing (NULLs first).
    pub fn is_sorted(&self) -> bool {
        if self.len < 2 {
            return true;
        }
        match self.typed() {
            TypedSlice::Dense { .. } => true,
            TypedSlice::Oid(s) => s.windows(2).all(|w| w[0] <= w[1]),
            TypedSlice::Int(s) => s.windows(2).all(|w| w[0] <= w[1]),
            TypedSlice::Float(s) => s.windows(2).all(|w| w[0] <= w[1]),
            TypedSlice::Date(s) => s.windows(2).all(|w| w[0] <= w[1]),
            TypedSlice::Str { buf, offset, len } => {
                (1..len).all(|i| buf.get(offset + i - 1) <= buf.get(offset + i))
            }
            TypedSlice::Bool(s) => s.windows(2).all(|w| !w[0] | w[1]),
        }
    }

    /// Materialise the window into fully owned values (dense stays dense).
    /// Used by update propagation when a view must outlive its base.
    pub fn to_owned_column(&self) -> Column {
        if !self.view {
            return self.clone();
        }
        let idx: Vec<u32> = (0..self.len as u32).collect();
        self.gather(&idx)
    }

    /// Iterate values (with NULLs) — convenience for tests and result export.
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len).map(move |i| self.value(i))
    }
}

/// The typed windows of `parts`, appended into one vector of `total` values.
fn concat_vec<'a, T: Copy + 'a>(
    parts: &'a [Column],
    total: usize,
    window: impl Fn(TypedSlice<'a>) -> &'a [T],
) -> Vec<T> {
    let mut out = Vec::with_capacity(total);
    for p in parts {
        out.extend_from_slice(window(p.typed()));
    }
    out
}

/// Incremental builder for owned columns of a fixed logical type.
#[derive(Debug)]
pub struct ColumnBuilder {
    ty: LogicalType,
    oids: Vec<u64>,
    ints: Vec<i64>,
    floats: Vec<f64>,
    dates: Vec<i32>,
    strs: StrBuffer,
    bools: Vec<bool>,
    validity: Bitmap,
    any_null: bool,
}

impl ColumnBuilder {
    /// New builder producing values of type `ty`.
    pub fn new(ty: LogicalType) -> ColumnBuilder {
        ColumnBuilder {
            ty,
            oids: Vec::new(),
            ints: Vec::new(),
            floats: Vec::new(),
            dates: Vec::new(),
            strs: StrBuffer::new(),
            bools: Vec::new(),
            validity: Bitmap::new(0, false),
            any_null: false,
        }
    }

    /// Logical type being built.
    pub fn logical_type(&self) -> LogicalType {
        self.ty
    }

    /// Number of values pushed so far.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a value; [`Value::Nil`] records a NULL. Panics on type
    /// mismatch — builders are always driven by typed operator code.
    pub fn push(&mut self, v: &Value) {
        match (self.ty, v) {
            (_, Value::Nil) => {
                self.push_default();
                self.validity.push(false);
                self.any_null = true;
                return;
            }
            (LogicalType::Oid, Value::Oid(Oid(o))) => self.oids.push(*o),
            (LogicalType::Int, Value::Int(i)) => self.ints.push(*i),
            (LogicalType::Float, Value::Float(x)) => self.floats.push(*x),
            (LogicalType::Float, Value::Int(i)) => self.floats.push(*i as f64),
            (LogicalType::Date, Value::Date(Date(d))) => self.dates.push(*d),
            (LogicalType::Str, Value::Str(s)) => self.strs.push(s),
            (LogicalType::Bool, Value::Bool(b)) => self.bools.push(*b),
            (ty, v) => panic!("ColumnBuilder type mismatch: building {ty}, got {v}"),
        }
        self.validity.push(true);
    }

    fn push_default(&mut self) {
        match self.ty {
            LogicalType::Oid => self.oids.push(0),
            LogicalType::Int => self.ints.push(0),
            LogicalType::Float => self.floats.push(0.0),
            LogicalType::Date => self.dates.push(0),
            LogicalType::Str => self.strs.push(""),
            LogicalType::Bool => self.bools.push(false),
        }
    }

    /// Finish building.
    pub fn finish(self) -> Column {
        let buf = match self.ty {
            LogicalType::Oid => Buffer::Oid(Arc::new(self.oids)),
            LogicalType::Int => Buffer::Int(Arc::new(self.ints)),
            LogicalType::Float => Buffer::Float(Arc::new(self.floats)),
            LogicalType::Date => Buffer::Date(Arc::new(self.dates)),
            LogicalType::Str => Buffer::Str(Arc::new(self.strs)),
            LogicalType::Bool => Buffer::Bool(Arc::new(self.bools)),
        };
        let col = Column::from_buffer(buf);
        if self.any_null {
            col.with_validity(self.validity)
        } else {
            col
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_is_zero_copy() {
        let c = Column::from_ints((0..1000).collect());
        let owned = c.resident_bytes();
        assert!(owned >= 8000);
        let v = c.slice(100, 50);
        assert!(v.is_view());
        assert_eq!(v.len(), 50);
        assert_eq!(v.value(0), Value::Int(100));
        assert!(v.resident_bytes() < 128);
    }

    #[test]
    fn gather_basic() {
        let c = Column::from_strs(["a", "b", "c", "d"]);
        let g = c.gather(&[3, 1, 1]);
        let vals: Vec<Value> = g.iter_values().collect();
        assert_eq!(
            vals,
            vec![Value::str("d"), Value::str("b"), Value::str("b")]
        );
        assert!(!g.is_view());
    }

    #[test]
    fn gather_dense_materialises_oids() {
        let c = Column::dense(5, 10);
        let g = c.gather(&[0, 9, 4]);
        assert_eq!(
            g.iter_values().collect::<Vec<_>>(),
            vec![Value::Oid(Oid(5)), Value::Oid(Oid(14)), Value::Oid(Oid(9))]
        );
    }

    #[test]
    fn nulls_roundtrip() {
        let mut b = ColumnBuilder::new(LogicalType::Int);
        b.push(&Value::Int(1));
        b.push(&Value::Nil);
        b.push(&Value::Int(3));
        let c = b.finish();
        assert!(c.has_nulls());
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(1), Value::Nil);
        assert_eq!(c.value(2), Value::Int(3));
        // gather keeps NULLs aligned
        let g = c.gather(&[1, 0]);
        assert_eq!(g.value(0), Value::Nil);
        assert_eq!(g.value(1), Value::Int(1));
    }

    #[test]
    fn slice_preserves_validity_alignment() {
        let mut b = ColumnBuilder::new(LogicalType::Int);
        for i in 0..10 {
            if i == 5 {
                b.push(&Value::Nil);
            } else {
                b.push(&Value::Int(i));
            }
        }
        let c = b.finish();
        let s = c.slice(4, 3); // values 4, NULL, 6
        assert_eq!(s.value(0), Value::Int(4));
        assert_eq!(s.value(1), Value::Nil);
        assert_eq!(s.value(2), Value::Int(6));
        assert!(s.has_nulls());
    }

    #[test]
    fn has_nulls_sees_only_the_window() {
        // NULLs at 5 and 130; windows start off word boundaries.
        let mut b = ColumnBuilder::new(LogicalType::Int);
        for i in 0..200 {
            b.push(&if i == 5 || i == 130 {
                Value::Nil
            } else {
                Value::Int(i)
            });
        }
        let c = b.finish();
        assert!(c.has_nulls());
        assert!(
            !c.slice(6, 124).has_nulls(),
            "NULLs only outside the window"
        );
        assert!(!c.slice(131, 69).has_nulls());
        assert!(!c.slice(7, 0).has_nulls());
        assert!(c.slice(3, 3).has_nulls(), "NULL inside a one-word window");
        assert!(c.slice(70, 61).has_nulls(), "NULL on the window's last row");
        assert!(c.slice(5, 1).has_nulls());
        assert!(
            c.slice(1, 150).has_nulls(),
            "NULLs inside a multi-word window"
        );
        for from in 0..200 {
            for len in [0, 1, 63, 64, 65].into_iter().filter(|&l| from + l <= 200) {
                let s = c.slice(from, len);
                assert_eq!(s.has_nulls(), (0..len).any(|i| !s.is_valid(i)));
            }
        }
    }

    #[test]
    fn concat_keeps_windows_and_validity_aligned() {
        let mut b = ColumnBuilder::new(LogicalType::Str);
        for v in [
            Value::str("a"),
            Value::Nil,
            Value::str("cc"),
            Value::str("d"),
        ] {
            b.push(&v);
        }
        let strs = b.finish();
        let tail = Column::from_strs(["e"]);
        let c = Column::concat(&[strs.slice(1, 2), tail, strs.slice(0, 1)]);
        assert!(!c.is_view());
        assert_eq!(
            c.iter_values().collect::<Vec<_>>(),
            vec![
                Value::Nil,
                Value::str("cc"),
                Value::str("e"),
                Value::str("a")
            ]
        );
        let mut b = ColumnBuilder::new(LogicalType::Int);
        for v in [Value::Nil, Value::Int(2), Value::Int(3)] {
            b.push(&v);
        }
        let ints = Column::concat(&[b.finish().slice(2, 1)]);
        assert_eq!(ints.iter_values().collect::<Vec<_>>(), vec![Value::Int(3)]);
        assert!(
            ints.validity.is_none(),
            "an all-valid result drops its bitmap"
        );
        let oids = Column::concat(&[Column::dense(7, 2), Column::from_oids(vec![1])]);
        assert_eq!(
            oids.iter_values().collect::<Vec<_>>(),
            vec![Value::Oid(Oid(7)), Value::Oid(Oid(8)), Value::Oid(Oid(1))]
        );
    }

    #[test]
    #[should_panic(expected = "concat of mixed column types")]
    fn concat_rejects_mixed_types() {
        Column::concat(&[Column::from_ints(vec![1]), Column::from_floats(vec![1.0])]);
    }

    #[test]
    fn sortedness() {
        assert!(Column::from_ints(vec![1, 2, 2, 9]).is_sorted());
        assert!(!Column::from_ints(vec![1, 0]).is_sorted());
        assert!(Column::dense(3, 100).is_sorted());
        assert!(Column::from_strs(["a", "ab", "b"]).is_sorted());
    }

    #[test]
    fn to_owned_detaches_view() {
        let c = Column::from_ints((0..100).collect());
        let v = c.slice(10, 5);
        let o = v.to_owned_column();
        assert!(!o.is_view());
        assert_eq!(
            o.iter_values().collect::<Vec<_>>(),
            v.iter_values().collect::<Vec<_>>()
        );
    }

    #[test]
    fn builder_float_widens_int() {
        let mut b = ColumnBuilder::new(LogicalType::Float);
        b.push(&Value::Int(2));
        b.push(&Value::Float(0.5));
        let c = b.finish();
        assert_eq!(c.value(0), Value::Float(2.0));
        assert_eq!(c.value(1), Value::Float(0.5));
    }
}
