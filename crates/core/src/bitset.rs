//! A small fixed-capacity bitset used to memoize checker search states.

use std::fmt;

/// A compact set of indices `0..capacity`, hashable so it can key a memo
/// table in the CAL and linearizability checkers.
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
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet { words: vec![0; capacity.div_ceil(64)], capacity }
    }

    /// The capacity the set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
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
        Ones { rest: self.words.iter().copied(), loaded: 0, word: 0 }
    }

    /// Iterates over the indices in `0..capacity` that are *not* in the
    /// set, ascending; a fully set word costs one step.
    pub fn iter_unset(&self) -> impl Iterator<Item = usize> + '_ {
        // Bits at and above `capacity` in the last word are never set, so
        // their complement has to be masked off.
        let last = self.words.len().wrapping_sub(1);
        let tail = self.capacity % 64;
        let last_mask = if tail == 0 { !0 } else { (1u64 << tail) - 1 };
        let rest = self
            .words
            .iter()
            .enumerate()
            .map(move |(k, &w)| if k == last { !w & last_mask } else { !w });
        Ones { rest, loaded: 0, word: 0 }
    }

    /// Returns `true` if every element of `self` is also in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        // Words `other` is too short to have must be empty here.
        let (shared, beyond) = self.words.split_at(self.words.len().min(other.words.len()));
        shared.iter().zip(&other.words).all(|(w, o)| w & !o == 0) && beyond.iter().all(|&w| w == 0)
    }

    /// Adds every element of `other` to `self`, a word at a time.
    ///
    /// # Panics
    ///
    /// Panics if `other` has a larger capacity than `self`.
    pub fn union_with(&mut self, other: &BitSet) {
        assert!(
            other.capacity <= self.capacity,
            "union of capacity {} into capacity {}",
            other.capacity,
            self.capacity
        );
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }
}

/// The positions of the one-bits of a word sequence, ascending.
struct Ones<I> {
    rest: I,
    /// Words taken from `rest` so far; `word` is what is left of the last.
    loaded: usize,
    word: u64,
}

impl<I: Iterator<Item = u64>> Iterator for Ones<I> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.word = self.rest.next()?;
            self.loaded += 1;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some((self.loaded - 1) * 64 + bit)
    }
}

impl fmt::Display for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (k, i) in self.iter().enumerate() {
            if k > 0 {
                f.write_str(",")?;
            }
            write!(f, "{i}")?;
        }
        f.write_str("}")
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
            let empty = BitSet::new(capacity);
            assert_eq!(empty.iter().count(), 0, "capacity {capacity}");
            assert_eq!(
                empty.iter_unset().collect::<Vec<_>>(),
                (0..capacity).collect::<Vec<_>>(),
                "capacity {capacity}"
            );
            let full = set_of(capacity, &(0..capacity).collect::<Vec<_>>());
            assert_eq!(
                full.iter().collect::<Vec<_>>(),
                (0..capacity).collect::<Vec<_>>(),
                "capacity {capacity}"
            );
            assert_eq!(full.iter_unset().count(), 0, "capacity {capacity}");
            // The edge members: first, last, and either side of bit 64.
            let edges: Vec<usize> =
                [0, 62, 63, 64, capacity - 1].into_iter().filter(|&i| i < capacity).collect();
            let mut expect = edges.clone();
            expect.sort_unstable();
            expect.dedup();
            let s = set_of(capacity, &edges);
            assert_eq!(s.iter().collect::<Vec<_>>(), expect, "capacity {capacity}");
            assert_eq!(
                s.iter_unset().collect::<Vec<_>>(),
                (0..capacity).filter(|i| !expect.contains(i)).collect::<Vec<_>>(),
                "capacity {capacity}"
            );
        }
        assert_eq!(BitSet::new(0).iter_unset().count(), 0);
    }

    #[test]
    fn subset_and_union_at_word_boundaries() {
        for capacity in [63usize, 64, 65] {
            let low = set_of(capacity, &[0, 61]);
            let high = set_of(capacity, &[capacity - 1]);
            assert!(BitSet::new(capacity).is_subset(&low));
            assert!(low.is_subset(&low));
            assert!(!low.is_subset(&high) && !high.is_subset(&low));
            let mut both = low.clone();
            both.union_with(&high);
            assert!(low.is_subset(&both) && high.is_subset(&both));
            assert!(!both.is_subset(&low));
            assert_eq!(both.len(), 3);
        }
        // A smaller set unions into, and is compared against, a larger one.
        let mut wide = set_of(130, &[129]);
        let narrow = set_of(65, &[64]);
        wide.union_with(&narrow);
        assert_eq!(wide.iter().collect::<Vec<_>>(), vec![64, 129]);
        assert!(narrow.is_subset(&wide));
        assert!(!wide.is_subset(&narrow));
    }

    #[test]
    #[should_panic(expected = "union of capacity")]
    fn union_with_a_larger_set_panics() {
        BitSet::new(64).union_with(&BitSet::new(65));
    }

    mod model {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Every word-wise operation against a `Vec<bool>` model.
            #[test]
            fn word_wise_operations_match_a_per_bit_model(
                capacity in 1usize..200,
                a_bits in prop::collection::vec(any::<bool>(), 200..201),
                b_bits in prop::collection::vec(any::<bool>(), 200..201),
            ) {
                let members = |bits: &[bool]| -> Vec<usize> {
                    (0..capacity).filter(|&i| bits[i]).collect()
                };
                let (in_a, in_b) = (members(&a_bits), members(&b_bits));
                let (a, b) = (set_of(capacity, &in_a), set_of(capacity, &in_b));
                prop_assert_eq!(a.iter().collect::<Vec<_>>(), in_a.clone());
                prop_assert_eq!(
                    a.iter_unset().collect::<Vec<_>>(),
                    (0..capacity).filter(|&i| !a_bits[i]).collect::<Vec<_>>()
                );
                prop_assert_eq!(a.len(), in_a.len());
                prop_assert_eq!(a.is_subset(&b), in_a.iter().all(|i| in_b.contains(i)));
                let mut union = a.clone();
                union.union_with(&b);
                prop_assert_eq!(
                    union.iter().collect::<Vec<_>>(),
                    (0..capacity).filter(|&i| a_bits[i] || b_bits[i]).collect::<Vec<_>>()
                );
            }
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
    fn display() {
        let mut s = BitSet::new(8);
        s.insert(1);
        s.insert(5);
        assert_eq!(s.to_string(), "{1,5}");
    }

    #[test]
    fn equality_and_hash_by_contents() {
        use std::collections::HashSet;
        let mut a = BitSet::new(8);
        a.insert(3);
        let mut b = BitSet::new(8);
        b.insert(3);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }
}
