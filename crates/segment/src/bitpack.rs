//! Fixed-width bit packing for dictionary ids.
//!
//! A column whose dictionary has `c` distinct values needs only
//! `ceil(log2(c))` bits per document. [`PackedIntVec`] stores a sequence of
//! u32 values at that width inside a `Vec<u64>`, giving the "bit packing of
//! values" the paper lists among its encoding strategies.

/// Documents decoded per batch by the vectorized execution path: one
/// block fills one scratch buffer, small enough to stay cache-resident.
pub const BLOCK: usize = 1024;

/// Bits needed to represent values in `[0, max_value]`.
pub fn bits_needed(max_value: u32) -> u8 {
    if max_value == 0 {
        1
    } else {
        (32 - max_value.leading_zeros()) as u8
    }
}

/// A fixed-width packed vector of u32 values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedIntVec {
    bits: u8,
    len: usize,
    words: Vec<u64>,
}

impl PackedIntVec {
    /// Create an empty vector storing `bits`-wide values (1..=32).
    pub fn new(bits: u8) -> PackedIntVec {
        assert!((1..=32).contains(&bits), "bits must be in 1..=32");
        PackedIntVec {
            bits,
            len: 0,
            words: Vec::new(),
        }
    }

    /// Pack an existing slice at the minimal width for its maximum.
    pub fn from_slice(values: &[u32]) -> PackedIntVec {
        let bits = bits_needed(values.iter().copied().max().unwrap_or(0));
        let mut v = PackedIntVec::with_capacity(bits, values.len());
        for &x in values {
            v.push(x);
        }
        v
    }

    pub fn with_capacity(bits: u8, n: usize) -> PackedIntVec {
        assert!((1..=32).contains(&bits), "bits must be in 1..=32");
        let words = (n * bits as usize).div_ceil(64);
        PackedIntVec {
            bits,
            len: 0,
            words: Vec::with_capacity(words),
        }
    }

    pub fn bits(&self) -> u8 {
        self.bits
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a value; panics in debug builds if it exceeds the width.
    pub fn push(&mut self, value: u32) {
        debug_assert!(
            self.bits == 32 || value < (1u32 << self.bits),
            "value {value} exceeds {} bits",
            self.bits
        );
        let bit_pos = self.len * self.bits as usize;
        let word = bit_pos / 64;
        let offset = bit_pos % 64;
        if word >= self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= (value as u64) << offset;
        let spill = offset + self.bits as usize;
        if spill > 64 {
            // Value straddles a word boundary.
            self.words.push((value as u64) >> (64 - offset));
        }
        self.len += 1;
    }

    /// Read the value at `idx`. Panics when out of bounds.
    #[inline]
    pub fn get(&self, idx: usize) -> u32 {
        assert!(
            idx < self.len,
            "index {idx} out of bounds (len {})",
            self.len
        );
        let bits = self.bits as usize;
        let bit_pos = idx * bits;
        let word = bit_pos / 64;
        let offset = bit_pos % 64;
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        let mut v = self.words[word] >> offset;
        if offset + bits > 64 {
            v |= self.words[word + 1] << (64 - offset);
        }
        (v & mask) as u32
    }

    /// Iterate all values.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Bulk-read `[start, end)` into `out` (cleared first) — the batched
    /// read path range scans on sorted columns use.
    pub fn read_range(&self, start: usize, end: usize, out: &mut Vec<u32>) {
        assert!(start <= end && end <= self.len);
        out.clear();
        out.resize(end - start, 0);
        self.unpack_block(start, out);
    }

    /// Bulk-decode `out.len()` consecutive values starting at `start`,
    /// word at a time. Widths that divide 64 (1, 2, 4, 8, 16, 32 bits)
    /// never straddle a word, so their inner loop is a shift-and-mask
    /// over one loaded word; other widths shift values out of a bit
    /// buffer and splice the straddling high part from the next word.
    pub fn unpack_block(&self, start: usize, out: &mut [u32]) {
        let n = out.len();
        assert!(
            start + n <= self.len,
            "unpack_block [{start}, {}) out of bounds (len {})",
            start + n,
            self.len
        );
        if n == 0 {
            return;
        }
        let bits = self.bits as usize;
        let mask = if bits == 32 {
            u64::from(u32::MAX)
        } else {
            (1u64 << bits) - 1
        };
        if 64 % bits == 0 {
            // Whole-word widths: no value straddles a word, so decode a
            // word at a time. The word index advances incrementally —
            // one division up front, none in the loop.
            let per = 64 / bits;
            let mut word_idx = start / per;
            let lane = start % per;
            let mut i = 0;
            if lane != 0 {
                let take = (per - lane).min(n);
                let mut word = self.words[word_idx] >> (lane * bits);
                for slot in &mut out[..take] {
                    *slot = (word & mask) as u32;
                    word >>= bits;
                }
                i = take;
                word_idx += 1;
            }
            while i + per <= n {
                let mut word = self.words[word_idx];
                for slot in &mut out[i..i + per] {
                    *slot = (word & mask) as u32;
                    word >>= bits;
                }
                i += per;
                word_idx += 1;
            }
            if i < n {
                let mut word = self.words[word_idx];
                for slot in &mut out[i..n] {
                    *slot = (word & mask) as u32;
                    word >>= bits;
                }
            }
        } else {
            // Other widths: keep the current word's unread bits in a
            // buffer and splice in the next word when a value straddles,
            // so each word is loaded once and no value recomputes its bit
            // position. A straddling value always has its high part in
            // the next word.
            let bit_pos = start * bits;
            let mut word_idx = bit_pos / 64;
            let mut buf = self.words[word_idx] >> (bit_pos % 64);
            let mut avail = 64 - bit_pos % 64;
            for slot in out.iter_mut() {
                if avail >= bits {
                    *slot = (buf & mask) as u32;
                    buf >>= bits;
                    avail -= bits;
                } else {
                    word_idx += 1;
                    let next = self.words[word_idx];
                    *slot = ((buf | next << avail) & mask) as u32;
                    let used = bits - avail;
                    buf = next >> used;
                    avail = 64 - used;
                }
            }
        }
    }

    /// Gather the values at positions `idx[i] - base` into `out[i]` — the
    /// block decode for a sparse selection. `idx` must be ascending (doc
    /// ids of one block), so one bounds check on its last entry covers
    /// the whole gather.
    pub fn gather(&self, idx: &[u32], base: u32, out: &mut [u32]) {
        assert_eq!(idx.len(), out.len(), "gather index/output length mismatch");
        let Some(&last) = idx.last() else {
            return;
        };
        assert!(
            last >= base && ((last - base) as usize) < self.len,
            "gather index {last} - {base} out of bounds (len {})",
            self.len
        );
        let bits = self.bits as usize;
        let mask = if bits == 32 {
            u64::from(u32::MAX)
        } else {
            (1u64 << bits) - 1
        };
        let words = &self.words[..];
        for (slot, &i) in out.iter_mut().zip(idx) {
            let bit_pos = (i - base) as usize * bits;
            let word = bit_pos >> 6;
            let offset = bit_pos & 63;
            // A value spans at most two words; a missing second word only
            // happens for values that end inside the first.
            let pair = u128::from(words[word])
                | u128::from(words.get(word + 1).copied().unwrap_or(0)) << 64;
            *slot = ((pair >> offset) as u64 & mask) as u32;
        }
    }

    /// Approximate heap bytes used.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.words.len() * 8
    }

    pub(crate) fn raw_parts(&self) -> (u8, usize, &[u64]) {
        (self.bits, self.len, &self.words)
    }

    pub(crate) fn from_raw_parts(bits: u8, len: usize, words: Vec<u64>) -> Option<PackedIntVec> {
        if !(1..=32).contains(&bits) {
            return None;
        }
        let needed = (len * bits as usize).div_ceil(64);
        if words.len() != needed {
            return None;
        }
        Some(PackedIntVec { bits, len, words })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_needed_edges() {
        assert_eq!(bits_needed(0), 1);
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(2), 2);
        assert_eq!(bits_needed(255), 8);
        assert_eq!(bits_needed(256), 9);
        assert_eq!(bits_needed(u32::MAX), 32);
    }

    #[test]
    fn push_get_round_trip_varied_widths() {
        for bits in [1u8, 3, 7, 8, 13, 16, 17, 31, 32] {
            let max = if bits == 32 {
                u32::MAX
            } else {
                (1u32 << bits) - 1
            };
            let values: Vec<u32> = (0..1000u32)
                .map(|i| (i.wrapping_mul(2_654_435_761)) % (max / 2 + 1) + max / 2)
                .collect();
            let mut v = PackedIntVec::new(bits);
            for &x in &values {
                v.push(x);
            }
            assert_eq!(v.len(), values.len());
            for (i, &x) in values.iter().enumerate() {
                assert_eq!(v.get(i), x, "bits={bits} idx={i}");
            }
            assert_eq!(v.iter().collect::<Vec<_>>(), values);
        }
    }

    #[test]
    fn from_slice_uses_minimal_width() {
        let v = PackedIntVec::from_slice(&[0, 5, 9]);
        assert_eq!(v.bits(), 4);
        let v = PackedIntVec::from_slice(&[0]);
        assert_eq!(v.bits(), 1);
        let v = PackedIntVec::from_slice(&[]);
        assert_eq!(v.bits(), 1);
        assert!(v.is_empty());
    }

    #[test]
    fn straddling_word_boundaries() {
        // 13-bit values: 64/13 is not integral, so values straddle words.
        let mut v = PackedIntVec::new(13);
        let values: Vec<u32> = (0..200).map(|i| (i * 37) % 8192).collect();
        for &x in &values {
            v.push(x);
        }
        for (i, &x) in values.iter().enumerate() {
            assert_eq!(v.get(i), x);
        }
    }

    #[test]
    fn read_range_bulk() {
        let v = PackedIntVec::from_slice(&(0..100u32).collect::<Vec<_>>());
        let mut out = Vec::new();
        v.read_range(10, 20, &mut out);
        assert_eq!(out, (10..20u32).collect::<Vec<_>>());
        v.read_range(0, 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn unpack_block_matches_get() {
        for bits in [1u8, 2, 3, 4, 7, 8, 11, 13, 16, 17, 24, 31, 32] {
            let max = if bits == 32 {
                u32::MAX
            } else {
                (1u32 << bits) - 1
            };
            let values: Vec<u32> = (0..2500u32)
                .map(|i| i.wrapping_mul(2_654_435_761) & max)
                .collect();
            let v = {
                let mut v = PackedIntVec::new(bits);
                for &x in &values {
                    v.push(x);
                }
                v
            };
            // Offsets/lengths chosen to hit word-aligned and straddling
            // starts, partial first/last words, and block boundaries.
            for (start, len) in [
                (0, 0),
                (0, 1),
                (0, BLOCK),
                (1, BLOCK),
                (63, 130),
                (values.len() - 1, 1),
                (500, values.len() - 500),
            ] {
                let mut out = vec![0u32; len];
                v.unpack_block(start, &mut out);
                assert_eq!(
                    out,
                    values[start..start + len],
                    "bits={bits} start={start} len={len}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn unpack_block_out_of_bounds_panics() {
        let v = PackedIntVec::from_slice(&[1, 2, 3]);
        let mut out = [0u32; 2];
        v.unpack_block(2, &mut out);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let v = PackedIntVec::from_slice(&[1, 2]);
        v.get(2);
    }

    #[test]
    fn packing_actually_compresses() {
        let values: Vec<u32> = (0..10_000).map(|i| i % 16).collect();
        let v = PackedIntVec::from_slice(&values);
        assert_eq!(v.bits(), 4);
        // 10_000 values at 4 bits = 5 KB, vs 40 KB raw.
        assert!(v.size_bytes() < 6_000);
    }

    #[test]
    fn raw_parts_round_trip() {
        let v = PackedIntVec::from_slice(&[7, 1, 4, 4, 0]);
        let (bits, len, words) = v.raw_parts();
        let back = PackedIntVec::from_raw_parts(bits, len, words.to_vec()).unwrap();
        assert_eq!(back, v);
        assert!(PackedIntVec::from_raw_parts(0, 5, vec![]).is_none());
        assert!(PackedIntVec::from_raw_parts(8, 100, vec![0; 1]).is_none());
    }
}
