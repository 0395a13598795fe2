//! A small fixed-capacity bitset: the matched set of the agreement oracle
//! ([`crate::agree`]), which matches spans in any order. Search nodes do
//! not use it; a search matches only minimal spans, so its matched sets
//! are cuts of the order ([`crate::history::Cut`]).

/// A compact set of indices `0..capacity`, hashable so it can key a memo
/// table.
///
/// # Examples
///
/// ```
/// use cal_core::bitset::BitSet;
/// let mut s = BitSet::new(10);
/// s.insert(3);
/// assert!(s.contains(3));
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Box<[u64]>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet { words: vec![0; capacity.div_ceil(64)].into_boxed_slice(), capacity }
    }

    /// Inserts `i` into the set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.capacity, "index {i} out of capacity {}", self.capacity);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Removes `i` from the set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.capacity, "index {i} out of capacity {}", self.capacity);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Returns `true` if `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        i < self.capacity && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the indices in ascending order, one step per set bit
    /// plus one per word.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(k, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
                rest &= rest - 1;
                Some(k * 64 + bit)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iter_ascending() {
        let mut s = BitSet::new(10);
        s.insert(7);
        s.insert(2);
        s.insert(9);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 7, 9]);
    }

    /// A set over `0..capacity` holding exactly `members`.
    fn set_of(capacity: usize, members: &[usize]) -> BitSet {
        let mut s = BitSet::new(capacity);
        for &i in members {
            s.insert(i);
        }
        s
    }

    #[test]
    fn iteration_at_word_boundaries() {
        for capacity in [63usize, 64, 65, 127, 128, 129] {
            assert_eq!(BitSet::new(capacity).iter().count(), 0, "capacity {capacity}");
            let all: Vec<usize> = (0..capacity).collect();
            assert_eq!(set_of(capacity, &all).iter().collect::<Vec<_>>(), all);
            // The edge members: first, last, and either side of bit 64.
            let mut edges: Vec<usize> =
                [0, 62, 63, 64, capacity - 1].into_iter().filter(|&i| i < capacity).collect();
            edges.sort_unstable();
            edges.dedup();
            let s = set_of(capacity, &edges);
            assert_eq!(s.iter().collect::<Vec<_>>(), edges, "capacity {capacity}");
            assert_eq!(s.len(), edges.len(), "capacity {capacity}");
        }
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        let mut s = BitSet::new(4);
        s.insert(4);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = BitSet::new(4);
        assert!(!s.contains(100));
    }

    #[test]
    fn equality_and_hash_by_contents() {
        use std::collections::HashSet;
        let (a, b) = (set_of(130, &[3, 129]), set_of(130, &[129, 3]));
        assert_eq!(a, b);
        assert_ne!(a, set_of(131, &[3, 129]), "capacity is part of the value");
        let mut removed = a.clone();
        removed.remove(3);
        assert_ne!(a, removed);
        let set: HashSet<BitSet> = [a, removed.clone()].into_iter().collect();
        assert!(set.contains(&b) && set.contains(&removed));
    }
}
