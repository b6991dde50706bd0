//! A packed validity bitmap used for NULL tracking in columns.

/// A fixed-length bitmap, one bit per row. Bit set means *valid* (non-NULL).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Create a bitmap of `len` bits, all set to `value`.
    pub fn new(len: usize, value: bool) -> Bitmap {
        let nwords = len.div_ceil(64);
        let fill = if value { u64::MAX } else { 0 };
        let mut words = vec![fill; nwords];
        if value && !len.is_multiple_of(64) {
            // clear the padding bits so count_ones stays exact
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        Bitmap { words, len }
    }

    /// Build from a boolean slice.
    pub fn from_bools(bits: &[bool]) -> Bitmap {
        let mut bm = Bitmap::new(bits.len(), false);
        for (i, &b) in bits.iter().enumerate() {
            if b {
                bm.set(i, true);
            }
        }
        bm
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Write bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set (valid) bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Are all bits set?
    pub fn all_set(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Are all bits in `[from, to)` set? Word-wise: masked end words and
    /// whole middle words, never bit by bit.
    pub fn all_set_in(&self, from: usize, to: usize) -> bool {
        debug_assert!(from <= to && to <= self.len);
        if from == to {
            return true;
        }
        let (first, last) = (from / 64, (to - 1) / 64);
        let lead = u64::MAX << (from % 64);
        let trail = u64::MAX >> (63 - (to - 1) % 64);
        if first == last {
            let mask = lead & trail;
            return self.words[first] & mask == mask;
        }
        self.words[first] & lead == lead
            && self.words[first + 1..last].iter().all(|&w| w == u64::MAX)
            && self.words[last] & trail == trail
    }

    /// Append a bit, growing the bitmap by one.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        let i = self.len - 1;
        if value {
            self.words[i / 64] |= 1u64 << (i % 64);
        }
    }

    /// Heap bytes used by the bitmap.
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }

    /// Iterate over bits as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_all_true_exact_count() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let bm = Bitmap::new(len, true);
            assert_eq!(bm.count_ones(), len, "len {len}");
            assert!(bm.all_set() || len == 0 && bm.all_set());
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut bm = Bitmap::new(100, false);
        bm.set(0, true);
        bm.set(63, true);
        bm.set(64, true);
        bm.set(99, true);
        assert!(bm.get(0) && bm.get(63) && bm.get(64) && bm.get(99));
        assert!(!bm.get(1) && !bm.get(65));
        assert_eq!(bm.count_ones(), 4);
        bm.set(63, false);
        assert!(!bm.get(63));
        assert_eq!(bm.count_ones(), 3);
    }

    #[test]
    fn push_grows() {
        let mut bm = Bitmap::new(0, false);
        for i in 0..200 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 200);
        assert_eq!(bm.count_ones(), (0..200).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn all_set_in_matches_bitwise() {
        let mut bm = Bitmap::new(200, true);
        for hole in [0usize, 63, 64, 130, 199] {
            bm.set(hole, false);
        }
        for from in 0..200 {
            for to in from..=200 {
                let expect = (from..to).all(|i| bm.get(i));
                assert_eq!(bm.all_set_in(from, to), expect, "[{from}, {to})");
            }
        }
    }

    #[test]
    fn from_bools_matches() {
        let bits: Vec<bool> = (0..77).map(|i| i % 2 == 0).collect();
        let bm = Bitmap::from_bools(&bits);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(bm.get(i), b);
        }
    }
}
