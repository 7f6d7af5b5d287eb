//! Roaring containers: the per-chunk storage for low 16 bits.

/// Array containers hold at most this many values; beyond it they are
/// promoted to bitmap containers (the threshold from the Roaring paper:
/// 4096 × 2 bytes = 8 KiB, the fixed size of a bitmap container).
pub const ARRAY_MAX: usize = 4096;

const WORDS: usize = 1024;

#[derive(Clone, PartialEq, Eq)]
pub enum Container {
    /// Sorted unique values.
    Array(Vec<u16>),
    /// Fixed 65536-bit bitmap plus a cached popcount.
    Bitmap { words: Box<[u64; WORDS]>, len: u32 },
    /// Sorted disjoint non-adjacent runs, stored as (start, last) inclusive.
    Run(Vec<(u16, u16)>),
}

impl Container {
    pub fn new_array() -> Container {
        Container::Array(Vec::new())
    }

    /// A run container covering `[start, last]` inclusive.
    pub fn new_run_range(start: u16, last: u16) -> Container {
        debug_assert!(start <= last);
        Container::Run(vec![(start, last)])
    }

    pub fn kind_name(&self) -> &'static str {
        match self {
            Container::Array(_) => "array",
            Container::Bitmap { .. } => "bitmap",
            Container::Run(_) => "run",
        }
    }

    pub fn len(&self) -> u32 {
        match self {
            Container::Array(v) => v.len() as u32,
            Container::Bitmap { len, .. } => *len,
            Container::Run(runs) => runs
                .iter()
                .map(|(s, l)| (*l as u32) - (*s as u32) + 1)
                .sum(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn contains(&self, v: u16) -> bool {
        match self {
            Container::Array(a) => a.binary_search(&v).is_ok(),
            Container::Bitmap { words, .. } => words[(v >> 6) as usize] & (1u64 << (v & 63)) != 0,
            Container::Run(runs) => runs
                .binary_search_by(|(s, l)| {
                    if *l < v {
                        std::cmp::Ordering::Less
                    } else if *s > v {
                        std::cmp::Ordering::Greater
                    } else {
                        std::cmp::Ordering::Equal
                    }
                })
                .is_ok(),
        }
    }

    /// Insert; returns true if the value was newly added. Run containers
    /// degrade to array/bitmap on mutation (runs are a read-optimized form).
    pub fn insert(&mut self, v: u16) -> bool {
        match self {
            Container::Array(a) => match a.binary_search(&v) {
                Ok(_) => false,
                Err(i) => {
                    if a.len() >= ARRAY_MAX {
                        let mut bm = self.to_bitmap();
                        let added = bm.insert(v);
                        *self = bm;
                        added
                    } else {
                        a.insert(i, v);
                        true
                    }
                }
            },
            Container::Bitmap { words, len } => {
                let w = &mut words[(v >> 6) as usize];
                let bit = 1u64 << (v & 63);
                if *w & bit == 0 {
                    *w |= bit;
                    *len += 1;
                    true
                } else {
                    false
                }
            }
            Container::Run(_) => {
                if self.contains(v) {
                    return false;
                }
                let mut bm = self.to_bitmap();
                let added = bm.insert(v);
                *self = bm;
                added
            }
        }
    }

    /// Bulk append of strictly-ascending low bits, every one greater than
    /// the current max (the `push_back` contract, amortized): arrays
    /// extend in place (converting once if they'd exceed [`ARRAY_MAX`]),
    /// bitmaps just set bits — no per-element search or length check.
    pub(crate) fn append_ascending(&mut self, values: &[u32]) {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(self
            .max()
            .is_none_or(|m| values.first().is_none_or(|&v| m < (v & 0xFFFF) as u16)));
        match self {
            Container::Array(a) => {
                if a.len() + values.len() > ARRAY_MAX {
                    let mut bm = self.to_bitmap();
                    if let Container::Bitmap { words, len } = &mut bm {
                        set_ascending(words, values);
                        *len += values.len() as u32;
                    }
                    *self = bm;
                } else {
                    a.extend(values.iter().map(|&v| (v & 0xFFFF) as u16));
                }
            }
            Container::Bitmap { words, len } => {
                set_ascending(words, values);
                *len += values.len() as u32;
            }
            Container::Run(_) => {
                for &v in values {
                    self.insert((v & 0xFFFF) as u16);
                }
            }
        }
    }

    /// Remove; returns true if present. Bitmap containers demote to array
    /// when they shrink to the array threshold.
    pub fn remove(&mut self, v: u16) -> bool {
        match self {
            Container::Array(a) => match a.binary_search(&v) {
                Ok(i) => {
                    a.remove(i);
                    true
                }
                Err(_) => false,
            },
            Container::Bitmap { words, len } => {
                let w = &mut words[(v >> 6) as usize];
                let bit = 1u64 << (v & 63);
                if *w & bit != 0 {
                    *w &= !bit;
                    *len -= 1;
                    if (*len as usize) <= ARRAY_MAX {
                        *self = Container::Array(self.iter().collect());
                    }
                    true
                } else {
                    false
                }
            }
            Container::Run(_) => {
                if !self.contains(v) {
                    return false;
                }
                let mut bm = self.to_bitmap();
                bm.remove(v);
                *self = bm.normalized();
                true
            }
        }
    }

    pub fn min(&self) -> Option<u16> {
        match self {
            Container::Array(a) => a.first().copied(),
            Container::Bitmap { words, .. } => {
                for (i, w) in words.iter().enumerate() {
                    if *w != 0 {
                        return Some((i * 64) as u16 + w.trailing_zeros() as u16);
                    }
                }
                None
            }
            Container::Run(runs) => runs.first().map(|(s, _)| *s),
        }
    }

    pub fn max(&self) -> Option<u16> {
        match self {
            Container::Array(a) => a.last().copied(),
            Container::Bitmap { words, .. } => {
                for (i, w) in words.iter().enumerate().rev() {
                    if *w != 0 {
                        return Some((i * 64) as u16 + (63 - w.leading_zeros()) as u16);
                    }
                }
                None
            }
            Container::Run(runs) => runs.last().map(|(_, l)| *l),
        }
    }

    pub fn iter(&self) -> Box<dyn Iterator<Item = u16> + '_> {
        match self {
            Container::Array(a) => Box::new(a.iter().copied()),
            Container::Bitmap { words, .. } => Box::new(BitmapIter {
                words,
                word_idx: 0,
                cur: words[0],
            }),
            Container::Run(runs) => Box::new(
                runs.iter()
                    .flat_map(|(s, l)| (*s as u32..=*l as u32).map(|v| v as u16)),
            ),
        }
    }

    /// Append every value, offset by `high` (the chunk's high bits), onto
    /// `out` in ascending order — the container-at-a-time extraction the
    /// batched execution path drains selections with, avoiding the
    /// per-element virtual dispatch of the boxed `iter()`.
    pub(crate) fn append_into(&self, high: u32, out: &mut Vec<u32>) {
        match self {
            Container::Array(a) => out.extend(a.iter().map(|&v| high | v as u32)),
            Container::Bitmap { words, len } => {
                out.reserve(*len as usize);
                for (i, &word) in words.iter().enumerate() {
                    let mut w = word;
                    let base = high | ((i as u32) << 6);
                    while w != 0 {
                        out.push(base | w.trailing_zeros());
                        w &= w - 1;
                    }
                }
            }
            Container::Run(runs) => {
                for &(s, l) in runs {
                    out.extend((s as u32..=l as u32).map(|v| high | v));
                }
            }
        }
    }

    /// Materialize as a bitmap container (used by ops and mutations on runs).
    fn to_bitmap(&self) -> Container {
        match self {
            Container::Bitmap { .. } => self.clone(),
            _ => {
                let mut words = Box::new([0u64; WORDS]);
                let mut len = 0u32;
                match self {
                    Container::Array(a) => {
                        for &v in a {
                            words[(v >> 6) as usize] |= 1u64 << (v & 63);
                        }
                        len = a.len() as u32;
                    }
                    Container::Run(runs) => {
                        for &(s, l) in runs {
                            for v in s..=l {
                                words[(v >> 6) as usize] |= 1u64 << (v & 63);
                            }
                            len += (l as u32) - (s as u32) + 1;
                        }
                    }
                    Container::Bitmap { .. } => unreachable!(),
                }
                Container::Bitmap { words, len }
            }
        }
    }

    /// Pick the canonical form for the current cardinality: array when
    /// small, bitmap otherwise. (Runs are only chosen by `run_optimize`.)
    fn normalized(self) -> Container {
        let n = self.len() as usize;
        match &self {
            Container::Bitmap { .. } if n <= ARRAY_MAX => Container::Array(self.iter().collect()),
            Container::Array(_) if n > ARRAY_MAX => self.to_bitmap(),
            _ => self,
        }
    }

    /// Convert to a run container when strictly smaller than the current
    /// representation.
    pub fn run_optimize(&mut self) {
        if matches!(self, Container::Run(_)) {
            return;
        }
        let mut runs: Vec<(u16, u16)> = Vec::new();
        for v in self.iter() {
            match runs.last_mut() {
                Some((_, l)) if *l as u32 + 1 == v as u32 => *l = v,
                _ => runs.push((v, v)),
            }
        }
        let run_size = runs.len() * 4 + 8;
        if run_size < self.size_bytes() {
            *self = Container::Run(runs);
        }
    }

    pub fn size_bytes(&self) -> usize {
        match self {
            Container::Array(a) => a.len() * 2 + 8,
            Container::Bitmap { .. } => WORDS * 8 + 8,
            Container::Run(runs) => runs.len() * 4 + 8,
        }
    }

    pub fn and(&self, other: &Container) -> Container {
        match (self, other) {
            (Container::Array(a), Container::Array(b)) => {
                let mut out = Vec::new();
                let (mut i, mut j) = (0usize, 0usize);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                Container::Array(out)
            }
            (Container::Array(a), other) => {
                Container::Array(a.iter().copied().filter(|v| other.contains(*v)).collect())
            }
            (this, Container::Array(b)) => {
                Container::Array(b.iter().copied().filter(|v| this.contains(*v)).collect())
            }
            _ => {
                let (x, y) = (self.to_bitmap(), other.to_bitmap());
                match (x, y) {
                    (Container::Bitmap { words: wa, .. }, Container::Bitmap { words: wb, .. }) => {
                        let mut words = Box::new([0u64; WORDS]);
                        let mut len = 0u32;
                        for i in 0..WORDS {
                            words[i] = wa[i] & wb[i];
                            len += words[i].count_ones();
                        }
                        Container::Bitmap { words, len }.normalized()
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    pub fn and_len(&self, other: &Container) -> u32 {
        match (self, other) {
            (Container::Array(a), other) => a.iter().filter(|v| other.contains(**v)).count() as u32,
            (this, Container::Array(b)) => b.iter().filter(|v| this.contains(**v)).count() as u32,
            (Container::Bitmap { words: wa, .. }, Container::Bitmap { words: wb, .. }) => {
                (0..WORDS).map(|i| (wa[i] & wb[i]).count_ones()).sum()
            }
            _ => self.and(other).len(),
        }
    }

    pub fn or(&self, other: &Container) -> Container {
        match (self, other) {
            (Container::Array(a), Container::Array(b)) if a.len() + b.len() <= ARRAY_MAX => {
                let mut out = Vec::with_capacity(a.len() + b.len());
                let (mut i, mut j) = (0usize, 0usize);
                while i < a.len() || j < b.len() {
                    match (a.get(i), b.get(j)) {
                        (Some(x), Some(y)) => match x.cmp(y) {
                            std::cmp::Ordering::Less => {
                                out.push(*x);
                                i += 1;
                            }
                            std::cmp::Ordering::Greater => {
                                out.push(*y);
                                j += 1;
                            }
                            std::cmp::Ordering::Equal => {
                                out.push(*x);
                                i += 1;
                                j += 1;
                            }
                        },
                        (Some(x), None) => {
                            out.push(*x);
                            i += 1;
                        }
                        (None, Some(y)) => {
                            out.push(*y);
                            j += 1;
                        }
                        (None, None) => break,
                    }
                }
                Container::Array(out)
            }
            _ => {
                let (x, y) = (self.to_bitmap(), other.to_bitmap());
                match (x, y) {
                    (Container::Bitmap { words: wa, .. }, Container::Bitmap { words: wb, .. }) => {
                        let mut words = Box::new([0u64; WORDS]);
                        let mut len = 0u32;
                        for i in 0..WORDS {
                            words[i] = wa[i] | wb[i];
                            len += words[i].count_ones();
                        }
                        Container::Bitmap { words, len }.normalized()
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    pub fn and_not(&self, other: &Container) -> Container {
        match self {
            Container::Array(a) => {
                Container::Array(a.iter().copied().filter(|v| !other.contains(*v)).collect())
            }
            _ => {
                let (x, y) = (self.to_bitmap(), other.to_bitmap());
                match (x, y) {
                    (Container::Bitmap { words: wa, .. }, Container::Bitmap { words: wb, .. }) => {
                        let mut words = Box::new([0u64; WORDS]);
                        let mut len = 0u32;
                        for i in 0..WORDS {
                            words[i] = wa[i] & !wb[i];
                            len += words[i].count_ones();
                        }
                        Container::Bitmap { words, len }.normalized()
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    /// Raw parts for serialization.
    pub(crate) fn encode_parts(&self) -> (u8, Vec<u16>) {
        match self {
            Container::Array(a) => (0, a.clone()),
            Container::Bitmap { words, .. } => {
                let mut out = Vec::with_capacity(WORDS * 4);
                for w in words.iter() {
                    out.push((w & 0xFFFF) as u16);
                    out.push(((w >> 16) & 0xFFFF) as u16);
                    out.push(((w >> 32) & 0xFFFF) as u16);
                    out.push(((w >> 48) & 0xFFFF) as u16);
                }
                (1, out)
            }
            Container::Run(runs) => {
                let mut out = Vec::with_capacity(runs.len() * 2);
                for (s, l) in runs {
                    out.push(*s);
                    out.push(*l);
                }
                (2, out)
            }
        }
    }

    pub(crate) fn decode_parts(kind: u8, data: Vec<u16>) -> Option<Container> {
        match kind {
            0 => {
                if data.windows(2).any(|w| w[0] >= w[1]) {
                    return None;
                }
                Some(Container::Array(data))
            }
            1 => {
                if data.len() != WORDS * 4 {
                    return None;
                }
                let mut words = Box::new([0u64; WORDS]);
                let mut len = 0u32;
                for i in 0..WORDS {
                    let w = data[i * 4] as u64
                        | (data[i * 4 + 1] as u64) << 16
                        | (data[i * 4 + 2] as u64) << 32
                        | (data[i * 4 + 3] as u64) << 48;
                    words[i] = w;
                    len += w.count_ones();
                }
                Some(Container::Bitmap { words, len })
            }
            2 => {
                if !data.len().is_multiple_of(2) {
                    return None;
                }
                let runs: Vec<(u16, u16)> = data.chunks(2).map(|c| (c[0], c[1])).collect();
                // Runs must be sorted, disjoint, non-adjacent, start <= last.
                for w in runs.windows(2) {
                    if w[0].1 as u32 + 1 >= w[1].0 as u32 {
                        return None;
                    }
                }
                if runs.iter().any(|(s, l)| s > l) {
                    return None;
                }
                Some(Container::Run(runs))
            }
            _ => None,
        }
    }
}

struct BitmapIter<'a> {
    words: &'a [u64; WORDS],
    word_idx: usize,
    cur: u64,
}

impl Iterator for BitmapIter<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        while self.cur == 0 {
            self.word_idx += 1;
            if self.word_idx >= WORDS {
                return None;
            }
            self.cur = self.words[self.word_idx];
        }
        let bit = self.cur.trailing_zeros();
        self.cur &= self.cur - 1;
        Some((self.word_idx * 64) as u16 + bit as u16)
    }
}

/// Set the low 16 bits of ascending `values` in a bitmap container's
/// words. Bits gather in a register while consecutive values share a
/// word, so a dense run costs one store per word rather than a
/// load-or-store chain through memory per value.
fn set_ascending(words: &mut [u64; WORDS], values: &[u32]) {
    let Some(&first) = values.first() else {
        return;
    };
    let mut word = (first >> 6) as usize & 0x3FF;
    let mut bits = 0u64;
    for &v in values {
        let w = (v >> 6) as usize & 0x3FF;
        if w != word {
            words[word] |= bits;
            word = w;
            bits = 0;
        }
        bits |= 1u64 << (v & 63);
    }
    words[word] |= bits;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_promotes_at_threshold() {
        let mut c = Container::new_array();
        for v in 0..=ARRAY_MAX as u16 {
            c.insert(v);
        }
        assert_eq!(c.kind_name(), "bitmap");
        assert_eq!(c.len() as usize, ARRAY_MAX + 1);
    }

    #[test]
    fn run_container_contains_and_iter() {
        let c = Container::Run(vec![(2, 4), (10, 10), (100, 102)]);
        assert_eq!(c.len(), 7);
        assert!(c.contains(2) && c.contains(4) && c.contains(10) && c.contains(101));
        assert!(!c.contains(5) && !c.contains(9) && !c.contains(103));
        let vals: Vec<u16> = c.iter().collect();
        assert_eq!(vals, vec![2, 3, 4, 10, 100, 101, 102]);
        assert_eq!(c.min(), Some(2));
        assert_eq!(c.max(), Some(102));
    }

    #[test]
    fn run_mutation_degrades() {
        let mut c = Container::new_run_range(0, 10);
        assert!(!c.insert(5)); // already present
        assert!(c.insert(20));
        assert_ne!(c.kind_name(), "run");
        assert!(c.contains(20) && c.contains(0) && c.contains(10));

        let mut c = Container::new_run_range(0, 10);
        assert!(c.remove(5));
        assert!(!c.contains(5));
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn bitmap_min_max() {
        let mut c = Container::new_array();
        for v in (1000..6000).step_by(1) {
            c.insert(v);
        }
        assert_eq!(c.kind_name(), "bitmap");
        assert_eq!(c.min(), Some(1000));
        assert_eq!(c.max(), Some(5999));
    }

    #[test]
    fn mixed_kind_ops() {
        let arr = Container::Array(vec![1, 5, 9, 4000]);
        let run = Container::new_run_range(0, 8);
        let mut big = Container::new_array();
        for v in 0..5000u16 {
            big.insert(v);
        }
        assert_eq!(arr.and(&run).iter().collect::<Vec<_>>(), vec![1, 5]);
        assert_eq!(arr.and_len(&big), 4);
        assert_eq!(run.and(&big).len(), 9);
        let u = arr.or(&run);
        assert_eq!(u.len(), 11);
        let d = big.and_not(&run);
        assert_eq!(d.len(), 5000 - 9);
    }

    #[test]
    fn encode_decode_round_trip() {
        let cases = vec![
            Container::Array(vec![3, 7, 9]),
            Container::new_run_range(5, 500),
            {
                let mut c = Container::new_array();
                for v in 0..4200u16 {
                    c.insert(v * 3);
                }
                c
            },
        ];
        for c in cases {
            let (kind, data) = c.encode_parts();
            let back = Container::decode_parts(kind, data).unwrap();
            assert_eq!(
                back.iter().collect::<Vec<_>>(),
                c.iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(Container::decode_parts(0, vec![5, 5]).is_none()); // duplicates
        assert!(Container::decode_parts(0, vec![9, 3]).is_none()); // unsorted
        assert!(Container::decode_parts(1, vec![0; 7]).is_none()); // bad length
        assert!(Container::decode_parts(2, vec![1, 2, 3]).is_none()); // odd
        assert!(Container::decode_parts(2, vec![1, 5, 5, 9]).is_none()); // overlap
        assert!(Container::decode_parts(2, vec![9, 1]).is_none()); // start > last
        assert!(Container::decode_parts(9, vec![]).is_none()); // bad kind
    }
}
