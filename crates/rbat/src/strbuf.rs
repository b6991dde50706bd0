//! Compact string column storage: a shared byte arena with an offsets array.

/// Append-only string buffer: all string bytes live in one arena, with an
/// `offsets` array delimiting the individual values (Arrow-style layout).
///
/// This keeps string columns cache-friendly and makes the recycle pool's
/// memory accounting honest (one allocation per column, not per value).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StrBuffer {
    bytes: Vec<u8>,
    offsets: Vec<u32>,
}

impl StrBuffer {
    /// New empty buffer.
    pub fn new() -> StrBuffer {
        StrBuffer {
            bytes: Vec::new(),
            offsets: vec![0],
        }
    }

    /// New buffer with room for `n` strings of ~`avg` bytes.
    pub fn with_capacity(n: usize, avg: usize) -> StrBuffer {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        StrBuffer {
            bytes: Vec::with_capacity(n * avg),
            offsets,
        }
    }

    /// Build from an iterator of string slices.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<'a>(it: impl IntoIterator<Item = &'a str>) -> StrBuffer {
        let mut b = StrBuffer::new();
        for s in it {
            b.push(s);
        }
        b
    }

    /// Append a string. Panics if the arena would outgrow `u32` offsets.
    pub fn push(&mut self, s: &str) {
        let end = arena_offset(self.bytes.len() + s.len());
        self.bytes.extend_from_slice(s.as_bytes());
        self.offsets.push(end);
    }

    /// Append strings `[from, from + len)` of `src`: one copy of their
    /// bytes, offsets rebased onto this arena. Panics if the arena would
    /// outgrow `u32` offsets.
    pub fn extend_from_range(&mut self, src: &StrBuffer, from: usize, len: usize) {
        let src_offsets = &src.offsets[from..=from + len];
        let (start, end) = (src_offsets[0] as usize, src_offsets[len] as usize);
        let base = self.bytes.len();
        // Checked once up front: every rebased offset is at most this one.
        arena_offset(base + (end - start));
        self.bytes.extend_from_slice(&src.bytes[start..end]);
        self.offsets.extend(
            src_offsets[1..]
                .iter()
                .map(|&o| (base + (o as usize - start)) as u32),
        );
    }

    /// Arena bytes spanned by strings `[from, from + len)`.
    pub fn range_bytes(&self, from: usize, len: usize) -> usize {
        (self.offsets[from + len] - self.offsets[from]) as usize
    }

    /// Number of strings stored.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no strings are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch string `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        // SAFETY-free: we only ever store whole &str values, so slicing on
        // recorded offsets is valid UTF-8 by construction.
        std::str::from_utf8(self.get_bytes(i)).expect("strbuf stores valid utf8")
    }

    /// Fetch string `i` as raw bytes, skipping the UTF-8 check of
    /// [`StrBuffer::get`]. Byte order is `str` order, so kernels compare,
    /// hash and match on these.
    #[inline]
    pub fn get_bytes(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterate all strings.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Heap bytes used.
    pub fn byte_size(&self) -> usize {
        self.bytes.len() + self.offsets.len() * 4
    }
}

/// An arena position as a stored offset; panics rather than letting an
/// arena past 4 GiB wrap its offsets silently.
fn arena_offset(pos: usize) -> u32 {
    u32::try_from(pos).unwrap_or_else(|_| {
        panic!("string arena of {pos} bytes exceeds the 4 GiB reach of u32 offsets")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get() {
        let mut b = StrBuffer::new();
        b.push("hello");
        b.push("");
        b.push("wörld");
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(0), "hello");
        assert_eq!(b.get(1), "");
        assert_eq!(b.get(2), "wörld");
        assert_eq!(b.get_bytes(2), "wörld".as_bytes());
        assert_eq!(b.get_bytes(1), b"");
    }

    #[test]
    fn from_iter_roundtrip() {
        let src = ["R", "A", "N", "R"];
        let b = StrBuffer::from_iter(src.iter().copied());
        let back: Vec<&str> = b.iter().collect();
        assert_eq!(back, src);
    }

    #[test]
    fn extend_from_range_rebases_offsets() {
        let src = StrBuffer::from_iter(["skip", "", "wörld", "xy", "tail"]);
        let mut b = StrBuffer::from_iter(["pre"]);
        b.extend_from_range(&src, 1, 3);
        assert_eq!(b.iter().collect::<Vec<_>>(), ["pre", "", "wörld", "xy"]);
        assert_eq!(b.range_bytes(1, 3), src.range_bytes(1, 3));
        b.extend_from_range(&src, 4, 1);
        b.extend_from_range(&src, 0, 0);
        assert_eq!(b.len(), 5);
        assert_eq!(b.get(4), "tail");
        assert_eq!(b.byte_size(), "prewörldxytail".len() + 6 * 4);
    }

    #[test]
    #[should_panic(expected = "exceeds the 4 GiB reach of u32 offsets")]
    fn arena_offsets_never_wrap() {
        assert_eq!(arena_offset(u32::MAX as usize), u32::MAX);
        arena_offset(u32::MAX as usize + 1);
    }

    #[test]
    fn byte_size_counts_arena() {
        let b = StrBuffer::from_iter(["abc", "de"]);
        assert_eq!(b.byte_size(), 5 + 3 * 4);
    }
}
