//! A small fixed-capacity bitset used to memoize checker search states.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Words a set keeps in place. With two the struct is the 32 bytes a word
/// vector and a capacity took, so nothing that holds sets by the thousand
/// (the closed order's rows, a long history's successor arena) grew; and
/// every search node over up to 128 spans — a streaming window, a small
/// history — copies its matched set with no allocation. (Six words, 64
/// bytes, were measured: the exchanger's 295-span nodes stopped allocating
/// and ran 8 % faster, 4,000 small histories ran 5 % slower and a
/// 6,000-span whole-history search an eighth slower.)
const INLINE_WORDS: usize = 2;

/// Where the words live: in place up to [`INLINE_WORDS`], one heap block
/// beyond. The capacity alone decides which, so two sets of one capacity
/// always have the same shape, and in-place words past the capacity stay
/// zero.
#[derive(Clone)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

/// A compact set of indices `0..capacity`, hashable so it can key the
/// search's memo table.
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
#[derive(Clone)]
pub struct BitSet {
    words: Words,
    capacity: usize,
}

impl PartialEq for BitSet {
    fn eq(&self, other: &BitSet) -> bool {
        self.capacity == other.capacity && self.words() == other.words()
    }
}

impl Eq for BitSet {}

impl Hash for BitSet {
    /// Words, then capacity: what deriving `Hash` on a word vector and a
    /// capacity fed the hasher, so memo fingerprints are what they were.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words().hash(state);
        self.capacity.hash(state);
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitSet({self} of {})", self.capacity)
    }
}

impl BitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        let len = capacity.div_ceil(64);
        let words = if len <= INLINE_WORDS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; len].into_boxed_slice())
        };
        BitSet { words, capacity }
    }

    /// The `capacity.div_ceil(64)` words that hold the set.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(words) => &words[..self.capacity.div_ceil(64)],
            Words::Heap(words) => words,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(words) => &mut words[..self.capacity.div_ceil(64)],
            Words::Heap(words) => words,
        }
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
        self.words_mut()[i / 64] |= 1u64 << (i % 64);
    }

    /// Removes `i` from the set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.capacity, "index {i} out of capacity {}", self.capacity);
        self.words_mut()[i / 64] &= !(1u64 << (i % 64));
    }

    /// Returns `true` if `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        i < self.capacity && self.words()[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// The smallest index in `0..capacity` that is *not* in the set.
    pub fn first_unset(&self) -> Option<usize> {
        self.iter_unset().next()
    }

    /// The largest index in the set.
    pub fn last_set(&self) -> Option<usize> {
        let (k, w) = self.words().iter().enumerate().rev().find(|&(_, &w)| w != 0)?;
        Some(k * 64 + 63 - w.leading_zeros() as usize)
    }

    /// Iterates over the indices in ascending order, one step per set bit
    /// plus one per word.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        ones(self.words())
    }

    /// Iterates over the indices in `0..capacity` that are *not* in the
    /// set, ascending; a fully set word costs one step.
    pub fn iter_unset(&self) -> impl Iterator<Item = usize> + '_ {
        // Bits at and above `capacity` in the last word are never set, so
        // their complement has to be masked off.
        let words = self.words();
        let last = words.len().wrapping_sub(1);
        let tail = self.capacity % 64;
        let last_mask = if tail == 0 { !0 } else { (1u64 << tail) - 1 };
        let rest =
            words.iter().enumerate().map(move |(k, &w)| if k == last { !w & last_mask } else { !w });
        Ones { rest, loaded: 0, word: 0 }
    }

    /// Returns `true` if every element of `self` is also in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        subset(self.words(), other.words())
    }
}

/// `true` if every one-bit of `words` is also set in `of`.
pub(crate) fn subset(words: &[u64], of: &[u64]) -> bool {
    // Words `of` is too short to have must be empty here.
    let (shared, beyond) = words.split_at(words.len().min(of.len()));
    shared.iter().zip(of).all(|(w, o)| w & !o == 0) && beyond.iter().all(|&w| w == 0)
}

/// The positions of the one-bits of `words`, ascending.
pub(crate) fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    Ones { rest: words.iter().copied(), loaded: 0, word: 0 }
}

/// `rows` sets over `0..capacity`, each a bare run of words: what a closed
/// order keeps per direction and scans a row a candidate at every search
/// node, where a [`BitSet`] a row would make each of those scans find out
/// first where that set keeps its words.
#[derive(Debug, Clone)]
pub(crate) struct BitRows {
    rows: Vec<Box<[u64]>>,
}

impl BitRows {
    /// `rows` empty sets over `0..capacity`.
    pub(crate) fn new(rows: usize, capacity: usize) -> Self {
        BitRows { rows: vec![vec![0; capacity.div_ceil(64)].into_boxed_slice(); rows] }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The words of row `r`, for [`subset`] and [`ones`].
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[u64] {
        &self.rows[r]
    }

    /// Whether row `r` exists and holds `i`.
    pub(crate) fn contains(&self, r: usize, i: usize) -> bool {
        let word = self.rows.get(r).and_then(|row| row.get(i / 64));
        word.is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Adds `i` to row `r`.
    pub(crate) fn insert(&mut self, r: usize, i: usize) {
        self.rows[r][i / 64] |= 1u64 << (i % 64);
    }

    /// Adds every element of row `from` to row `into`, a word at a time.
    ///
    /// # Panics
    ///
    /// Panics if the two are one row.
    pub(crate) fn union_rows(&mut self, into: usize, from: usize) {
        assert_ne!(into, from, "a row is unioned into another");
        let (low, high) = self.rows.split_at_mut(into.max(from));
        let (into, from) =
            if into < from { (&mut low[into], &high[0]) } else { (&mut high[0], &low[from]) };
        for (w, &o) in into.iter_mut().zip(from.iter()) {
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
    fn subset_at_word_boundaries() {
        for capacity in [63usize, 64, 65] {
            let low = set_of(capacity, &[0, 61]);
            let high = set_of(capacity, &[capacity - 1]);
            assert!(BitSet::new(capacity).is_subset(&low));
            assert!(low.is_subset(&low));
            assert!(!low.is_subset(&high) && !high.is_subset(&low));
            let both = set_of(capacity, &[0, 61, capacity - 1]);
            assert!(low.is_subset(&both) && high.is_subset(&both));
            assert!(!both.is_subset(&low));
            assert_eq!(both.len(), 3);
        }
        // A smaller set is compared against a larger one.
        let wide = set_of(130, &[64, 129]);
        let narrow = set_of(65, &[64]);
        assert!(narrow.is_subset(&wide));
        assert!(!wide.is_subset(&narrow));
    }

    #[test]
    fn rows_union_either_way_and_answer_out_of_range() {
        let mut rows = BitRows::new(3, 70);
        assert_eq!((rows.len(), rows.row(0).len()), (3, 2));
        rows.insert(0, 1);
        rows.insert(2, 69);
        rows.union_rows(1, 0);
        rows.union_rows(1, 2);
        rows.union_rows(0, 2);
        assert_eq!(ones(rows.row(1)).collect::<Vec<_>>(), vec![1, 69]);
        assert_eq!(ones(rows.row(0)).collect::<Vec<_>>(), vec![1, 69]);
        assert_eq!(ones(rows.row(2)).collect::<Vec<_>>(), vec![69]);
        assert!(rows.contains(1, 69) && !rows.contains(1, 68));
        assert!(!rows.contains(3, 1) && !rows.contains(1, 500));
        assert!(subset(rows.row(2), rows.row(1)) && !subset(rows.row(1), rows.row(2)));
        assert_eq!(BitRows::new(0, 0).len(), 0);
    }

    mod model {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Every word-wise operation against a `Vec<bool>` model.
            #[test]
            fn word_wise_operations_match_a_per_bit_model(
                // Either side of the in-place / heap boundary.
                capacity in 1usize..450,
                a_bits in prop::collection::vec(any::<bool>(), 450..451),
                b_bits in prop::collection::vec(any::<bool>(), 450..451),
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
                prop_assert_eq!(a.first_unset(), (0..capacity).find(|&i| !a_bits[i]));
                prop_assert_eq!(a.last_set(), in_a.last().copied());
                prop_assert_eq!(a.is_subset(&b), in_a.iter().all(|i| in_b.contains(i)));
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
    fn sets_of_one_capacity_compare_and_hash_alike_on_both_sides_of_the_heap_boundary() {
        use std::collections::HashSet;
        for capacity in [INLINE_WORDS * 64, INLINE_WORDS * 64 + 1] {
            let (a, b) = (set_of(capacity, &[0, capacity - 1]), set_of(capacity, &[capacity - 1, 0]));
            assert_eq!(a, b);
            assert_eq!(format!("{a:?}"), format!("BitSet({{0,{}}} of {capacity})", capacity - 1));
            let mut removed = a.clone();
            removed.remove(0);
            assert_ne!(a, removed);
            assert_ne!(a, set_of(capacity + 1, &[0, capacity - 1]), "capacity is part of the value");
            let set: HashSet<BitSet> = [a, removed.clone()].into_iter().collect();
            assert!(set.contains(&b) && set.contains(&removed));
        }
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
