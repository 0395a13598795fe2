//! Symmetry reduction over interchangeable operations.
//!
//! Backtracking membership search explores one *matched set* of spans at
//! a time. When a history contains several operations that are
//! indistinguishable to the specification — same object, method,
//! argument and return value, and the same real-time constraints — the
//! search tree contains one isomorphic subtree per way of picking *which
//! of them* is matched first. Memoization alone cannot collapse these:
//! the matched bit-sets differ even though the residual search problems
//! are identical.
//!
//! This module computes, once per history, the **interchangeability
//! classes** of spans and provides a canonicalization of matched
//! bit-sets under permutation within each class. The engine then keys
//! its failed-state memo on the canonical form, so all `C(n, k)` ways of
//! matching `k` ops out of an `n`-clone class share one memo entry.
//!
//! ## Soundness
//!
//! Two spans `i`, `j` are placed in one class only if:
//!
//! 1. they denote the same operation: equal object, method, argument,
//!    completeness and return value;
//! 2. they have identical order constraint sets: the same predecessors
//!    and the same successors under the happens-before relation the
//!    search runs over ([`crate::history::PartialHistory`]).
//!
//! Swapping `i` and `j` in any matched set then maps every valid
//! CA-trace extension to a valid one: the spec's transition relation
//! sees operations only through [`crate::op::Operation`]-level data
//! (condition 1 makes `i` and `j` identical there *except* the thread
//! id), and the minimal-candidate frontier is determined by the
//! happens-before order (condition 2 makes it invariant).
//!
//! The argument is order-generic: the search consults the ordering only
//! through pred sets (minimality) and pairwise concurrency (element
//! membership), and both are invariant under a within-class swap by
//! condition 2. It therefore holds unchanged when the relation is a
//! causal partial order rather than `≺H` — which is why
//! [`SymClasses::of_order`] takes the relation as a parameter instead
//! of hard-coding `≺H`.
//!
//! The one residual distinction is the **thread id**. Condition 2
//! forces class members to be pairwise concurrent (a span never equals
//! its own predecessor set plus itself), and no two concurrent spans
//! share a thread under either relation family: a well-formed history
//! interleaves no two real-time-concurrent spans on one thread, and a
//! causal order contains per-thread session order by construction — so
//! class members always carry *distinct* thread ids, and a permutation
//! within a class permutes threads injectively. Specifications in this crate consume
//! thread ids only through *intra-element* equality tests (e.g. "an
//! exchange pair must come from two distinct threads"), which injective
//! renaming preserves. A spec that discriminated on absolute thread ids
//! (or stored them in its state) would break this assumption, which is
//! why the engine exposes the reduction behind
//! [`CheckOptions::symmetry`](crate::engine::CheckOptions) rather than
//! applying it unconditionally.

use std::collections::HashMap;

use crate::bitset::BitSet;
use crate::history::{HbRelation, PartialHistory, Span};

/// Interchangeability classes of a history's spans, precomputed once and
/// shared read-only across search workers.
///
/// Only classes with at least two members are stored — singletons cannot
/// be permuted and would cost a probe per memo operation for nothing.
#[derive(Debug, Clone, Default)]
pub struct SymClasses {
    /// Each class: the member span indices, ascending. Classes are in
    /// first-member order.
    classes: Vec<Vec<usize>>,
    /// `reach[c]` = the largest member of classes `0..=c`. Ascending, so
    /// a binary search finds the first class that reaches an index.
    reach: Vec<usize>,
}

impl SymClasses {
    /// Computes the interchangeability classes of `spans` under the
    /// real-time order `≺H`.
    pub fn of(spans: &[Span]) -> Self {
        Self::of_order(spans, &HbRelation::real_time(spans))
    }

    /// Computes the interchangeability classes of `spans` under an
    /// arbitrary happens-before relation: constraint sets (condition 2)
    /// are the relation's pred/succ sets instead of `≺H`'s, compared
    /// through [`PartialHistory::constraint_key`]. See the
    /// module docs for why the soundness argument carries over to partial
    /// orders.
    pub fn of_order(spans: &[Span], hb: &HbRelation) -> Self {
        // One grouping pass on (condition 1, condition 2). Preds alone
        // would let the first and last clone of a chain merge, so the
        // constraint key carries both sides. `first[i]` is the first span
        // with `i`'s key; most spans are alone with theirs, so a class is
        // allocated only once its size is known to be at least two.
        let n = spans.len();
        let mut first_with = HashMap::with_capacity(n);
        let mut first: Vec<usize> = Vec::with_capacity(n);
        let mut size = vec![0usize; n];
        for (i, s) in spans.iter().enumerate() {
            // `ret` covers completeness: both pending, or equal values.
            let same_op = (s.object, s.method, s.arg, s.ret);
            let f = *first_with.entry((same_op, hb.constraint_key(i))).or_insert(i);
            first.push(f);
            size[f] += 1;
        }
        // Classes in first-member order, members ascending.
        let mut class_of = vec![usize::MAX; n];
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for (i, &f) in first.iter().enumerate().filter(|&(_, &f)| size[f] >= 2) {
            if f == i {
                class_of[f] = classes.len();
                classes.push(Vec::with_capacity(size[f]));
            }
            classes[class_of[f]].push(i);
        }
        let reach = classes
            .iter()
            .scan(0, |reach, class| {
                *reach = class[class.len() - 1].max(*reach);
                Some(*reach)
            })
            .collect();
        SymClasses { classes, reach }
    }

    /// The non-singleton classes, in first-member order, members
    /// ascending.
    pub fn classes(&self) -> &[Vec<usize>] {
        &self.classes
    }

    /// True when no span is interchangeable with another: the reduction
    /// is a no-op and callers can skip canonicalization entirely.
    pub fn is_trivial(&self) -> bool {
        self.classes.is_empty()
    }

    /// Number of non-singleton classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True when there are no non-singleton classes.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Canonicalizes a matched set under within-class permutation: for
    /// each class, the *count* of matched members is preserved but the
    /// specific members are normalized to the class's first `count`
    /// (ascending). Returns `None` when `bits` is already canonical —
    /// the common case on small frontiers, kept allocation-free.
    ///
    /// Only classes straddling the frontier are looked at: one whose
    /// members all lie below the first unmatched index is wholly matched,
    /// one whose members all lie above the last matched index is wholly
    /// unmatched, and both are their own canonical form. `bits` need not
    /// be downward closed.
    pub fn canonical_bits(&self, bits: &BitSet) -> Option<BitSet> {
        let (lo, hi) = (bits.first_unset()?, bits.last_set()?);
        let from = self.reach.partition_point(|&reach| reach < lo);
        let straddling = || {
            self.classes[from..]
                .iter()
                .take_while(move |class| class[0] <= hi)
                .filter(move |class| class[class.len() - 1] >= lo)
        };
        // First pass: detect non-canonical classes without allocating. A
        // set bit after a gap is not the prefix pattern.
        let is_prefix = |class: &[usize]| {
            let matched = class.iter().take_while(|&&m| bits.contains(m)).count();
            !class[matched..].iter().any(|&m| bits.contains(m))
        };
        if straddling().all(|class| is_prefix(class)) {
            return None;
        }
        let mut canon = bits.clone();
        for class in straddling() {
            let count = class.iter().filter(|&&m| bits.contains(m)).count();
            for (k, &m) in class.iter().enumerate() {
                if k < count {
                    canon.insert(m);
                } else {
                    canon.remove(m);
                }
            }
        }
        Some(canon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Method, ObjectId, ThreadId, Value};

    fn span(inv: usize, resp: Option<usize>, thread: u32, arg: i64, ret: Option<Value>) -> Span {
        Span {
            inv,
            resp,
            thread: ThreadId(thread),
            object: ObjectId(0),
            method: Method("m"),
            arg: Value::Int(arg),
            ret,
        }
    }

    #[test]
    fn identical_concurrent_ops_form_one_class() {
        // Three identical fully-concurrent ops + one different.
        let spans = vec![
            span(0, Some(10), 1, 5, Some(Value::Int(1))),
            span(1, Some(11), 2, 5, Some(Value::Int(1))),
            span(2, Some(12), 3, 5, Some(Value::Int(1))),
            span(3, Some(13), 4, 9, Some(Value::Int(1))),
        ];
        let sym = SymClasses::of(&spans);
        assert_eq!(sym.len(), 1);
        assert_eq!(sym.classes[0], vec![0, 1, 2]);
    }

    #[test]
    fn real_time_order_splits_classes() {
        // Same op, but the second strictly follows the first.
        let spans = vec![
            span(0, Some(1), 1, 5, Some(Value::Int(1))),
            span(2, Some(3), 1, 5, Some(Value::Int(1))),
        ];
        let sym = SymClasses::of(&spans);
        assert!(sym.is_trivial(), "ordered clones are not interchangeable");
    }

    #[test]
    fn canonicalization_normalizes_to_prefix() {
        let spans = vec![
            span(0, Some(10), 1, 5, Some(Value::Int(1))),
            span(1, Some(11), 2, 5, Some(Value::Int(1))),
            span(2, Some(12), 3, 5, Some(Value::Int(1))),
        ];
        let sym = SymClasses::of(&spans);
        // {2} and {1} both canonicalize to {0}.
        let mut b = BitSet::new(3);
        b.insert(2);
        let canon = sym.canonical_bits(&b).expect("non-canonical");
        assert!(canon.contains(0) && !canon.contains(1) && !canon.contains(2));
        let mut b1 = BitSet::new(3);
        b1.insert(1);
        assert_eq!(sym.canonical_bits(&b1), Some(canon.clone()));
        // {0} is already canonical: zero-alloc fast path.
        let mut b0 = BitSet::new(3);
        b0.insert(0);
        assert_eq!(sym.canonical_bits(&b0), None);
        // {0,2} ≡ {0,1}.
        let mut b02 = BitSet::new(3);
        b02.insert(0);
        b02.insert(2);
        let c = sym.canonical_bits(&b02).expect("non-canonical");
        assert!(c.contains(0) && c.contains(1) && !c.contains(2));
        // Full set is canonical.
        let mut all = BitSet::new(3);
        for i in 0..3 {
            all.insert(i);
        }
        assert_eq!(sym.canonical_bits(&all), None);
    }

    #[test]
    fn causal_order_reshapes_classes() {
        // Two identical ops on distinct threads, strictly ordered in real
        // time: `of` splits them, but a session-only causal order leaves
        // them concurrent and merges them into one class.
        let spans = vec![
            span(0, Some(1), 1, 5, Some(Value::Int(1))),
            span(2, Some(3), 2, 5, Some(Value::Int(1))),
        ];
        assert!(SymClasses::of(&spans).is_trivial());
        let causal = HbRelation::causal(&spans, &[]).unwrap();
        let sym = SymClasses::of_order(&spans, &causal);
        assert_eq!(sym.len(), 1);
        assert_eq!(sym.classes[0], vec![0, 1]);
        // An explicit hb edge restores the ordering constraint and splits
        // the class again.
        let edged = HbRelation::causal(&spans, &[(0, 1)]).unwrap();
        assert!(SymClasses::of_order(&spans, &edged).is_trivial());
    }

    #[test]
    fn pending_and_complete_do_not_mix() {
        let spans = vec![
            span(0, Some(10), 1, 5, Some(Value::Int(1))),
            span(1, None, 2, 5, None),
        ];
        let sym = SymClasses::of(&spans);
        assert!(sym.is_trivial());
    }
}
