//! A compact fixed-capacity bit set used by the dataflow solvers.

/// A fixed-capacity set of small integers backed by `u64` words.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold values `0..capacity`.
    pub fn new(capacity: usize) -> BitSet {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `bit`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= capacity`.
    pub fn insert(&mut self, bit: usize) -> bool {
        assert!(
            bit < self.capacity,
            "bit {bit} out of capacity {}",
            self.capacity
        );
        let word = &mut self.words[bit / 64];
        let mask = 1u64 << (bit % 64);
        let was = *word & mask != 0;
        *word |= mask;
        !was
    }

    /// Removes `bit`; returns `true` if it was present.
    pub fn remove(&mut self, bit: usize) -> bool {
        if bit >= self.capacity {
            return false;
        }
        let word = &mut self.words[bit / 64];
        let mask = 1u64 << (bit % 64);
        let was = *word & mask != 0;
        *word &= !mask;
        was
    }

    /// Membership test.
    pub fn contains(&self, bit: usize) -> bool {
        bit < self.capacity && self.words[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    /// Unions `other` into `self`; returns `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let mut changed = false;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            let new = *w | o;
            if new != *w {
                changed = true;
                *w = new;
            }
        }
        changed
    }

    /// Removes every bit set in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn subtract(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// Number of bits set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The backing words, least significant label first.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Unions raw words (as laid out by [`BitSet::words`]) into `self`.
    pub(crate) fn union_words(&mut self, words: &[u64]) {
        or_words(&mut self.words, words);
    }

    /// Iterator over the set bits, ascending.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// `dst |= src`, word by word (the slices have equal length).
pub(crate) fn or_words(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Iterator over the bits of a [`BitSet`].
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to hold the largest element.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> BitSet {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut set = BitSet::new(cap);
        for i in items {
            set.insert(i);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn union_and_subtract() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(1);
        b.insert(2);
        b.insert(1);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2]);
        a.subtract(&b);
        assert!(a.is_empty());
    }

    #[test]
    fn iterate_across_words() {
        let s: BitSet = [0usize, 63, 64, 65, 127].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 65, 127]);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        BitSet::new(4).insert(4);
    }

    #[test]
    fn clear_and_empty() {
        let mut s = BitSet::new(10);
        assert!(s.is_empty());
        s.insert(3);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 10);
    }
}
