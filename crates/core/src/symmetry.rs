//! Symmetry reduction over interchangeable operations.
//!
//! Backtracking membership search explores one *matched set* of spans at
//! a time. When a history contains several operations that are
//! indistinguishable to the specification — same object, method,
//! argument and return value, and the same real-time constraints — the
//! search tree contains one isomorphic subtree per way of picking *which
//! of them* is matched first. Memoization alone cannot collapse these:
//! the matched sets differ even though the residual search problems are
//! identical.
//!
//! This module computes, once per history, the **interchangeability
//! classes** of spans, and for each span the member of its class just
//! before it ([`SymClasses::prev_clone`]). The CAL domain's move
//! generator lets a span join a candidate element only once its previous
//! clone is matched or already in the element, so every class is matched
//! as a prefix of its members: of all the successors that differ only in
//! *which* `k` clones of an `n`-clone class they match, exactly one is
//! generated — one successor per orbit. Every node the search creates is
//! then its own canonical form, so the memo needs no canonical key, and
//! the search on one thread or several and the streaming
//! window's goal enumeration all inherit the reduction from the one move
//! generator.
//!
//! ## Soundness
//!
//! Two spans `i`, `j` are placed in one class only if:
//!
//! 1. they denote the same operation: equal object, method, argument,
//!    completeness and return value;
//! 2. they have identical order constraint sets: the same predecessors
//!    and the same successors under the happens-before relation the
//!    search runs over ([`crate::history::HbRelation`]).
//!
//! Swapping `i` and `j` in any matched set then maps every valid
//! CA-trace extension to a valid one: the spec's transition relation
//! sees operations only through [`crate::op::Operation`]-level data
//! (condition 1 makes `i` and `j` identical there *except* the thread
//! id), and the minimal-candidate frontier is determined by the
//! happens-before order (condition 2 makes it invariant). In particular
//! class members are minimal together, so whenever a clone is a
//! candidate, so is every unmatched clone before it, and the prefix
//! choice of an element is always available where any other choice is.
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
//! renaming preserves, and never keep them in their state — so a swap
//! leaves the state an element leads to unchanged, and the set of states
//! a goal can end in (what the streaming window keeps) is the same with
//! the reduction as without it. A spec that discriminated on absolute
//! thread ids (or stored them in its state) would break this assumption,
//! which is why the engine exposes the reduction behind
//! [`CheckOptions::symmetry`](crate::engine::CheckOptions) rather than
//! applying it unconditionally.

use std::collections::HashMap;

use crate::history::{HbRelation, Span};

/// Interchangeability classes of a history's spans, precomputed once and
/// shared read-only across search workers.
///
/// Only classes with at least two members are stored — singletons cannot
/// be permuted.
#[derive(Debug, Clone, Default)]
pub struct SymClasses {
    /// Each class: the member span indices, ascending. Classes are in
    /// first-member order.
    classes: Vec<Vec<usize>>,
    /// Per span, the member of its class just before it, `u32::MAX` for
    /// the first member or a span with no clone. Empty when there are no
    /// classes.
    prev: Vec<u32>,
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
    /// through [`HbRelation::constraint_key`]. See the
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
        let mut prev = Vec::new();
        for (i, &f) in first.iter().enumerate().filter(|&(_, &f)| size[f] >= 2) {
            if f == i {
                class_of[f] = classes.len();
                classes.push(Vec::with_capacity(size[f]));
            } else {
                prev.resize(n, u32::MAX);
                // An index past `u32` keeps no clone: less reduction, never
                // a wrong one.
                let last = *classes[class_of[f]].last().expect("the first member is in");
                prev[i] = u32::try_from(last).unwrap_or(u32::MAX);
            }
            classes[class_of[f]].push(i);
        }
        SymClasses { classes, prev }
    }

    /// The non-singleton classes, in first-member order, members
    /// ascending.
    pub fn classes(&self) -> &[Vec<usize>] {
        &self.classes
    }

    /// The member of span `i`'s class just before it, or `None` when `i`
    /// is the first of its class or has no clone. A generator that lets
    /// `i` into an element only when this clone is matched or already in
    /// the element generates one successor per orbit.
    pub fn prev_clone(&self, i: usize) -> Option<usize> {
        self.prev.get(i).filter(|&&p| p != u32::MAX).map(|&p| p as usize)
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
        assert_eq!(sym.classes().len(), 1);
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
        assert!(sym.classes().is_empty(), "ordered clones are not interchangeable");
        assert_eq!(sym.prev_clone(1), None);
    }

    #[test]
    fn each_clone_points_at_the_one_before_it() {
        // Two interleaved classes, {0, 2, 4} and {1, 3}, and a singleton.
        let spans = vec![
            span(0, Some(10), 1, 5, Some(Value::Int(1))),
            span(1, Some(11), 2, 6, Some(Value::Int(1))),
            span(2, Some(12), 3, 5, Some(Value::Int(1))),
            span(3, Some(13), 4, 6, Some(Value::Int(1))),
            span(4, Some(14), 5, 5, Some(Value::Int(1))),
            span(5, Some(15), 6, 7, Some(Value::Int(1))),
        ];
        let sym = SymClasses::of(&spans);
        assert_eq!(sym.classes(), [vec![0, 2, 4], vec![1, 3]]);
        let prev: Vec<Option<usize>> = (0..spans.len()).map(|i| sym.prev_clone(i)).collect();
        assert_eq!(prev, [None, None, Some(0), Some(1), Some(2), None]);
        assert_eq!(sym.prev_clone(99), None, "out of range");
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
        assert!(SymClasses::of(&spans).classes().is_empty());
        let causal = HbRelation::causal(&spans, &[]).unwrap();
        let sym = SymClasses::of_order(&spans, &causal);
        assert_eq!(sym.classes().len(), 1);
        assert_eq!(sym.classes[0], vec![0, 1]);
        assert_eq!(sym.prev_clone(1), Some(0));
        // An explicit hb edge restores the ordering constraint and splits
        // the class again.
        let edged = HbRelation::causal(&spans, &[(0, 1)]).unwrap();
        assert!(SymClasses::of_order(&spans, &edged).classes().is_empty());
    }

    #[test]
    fn pending_and_complete_do_not_mix() {
        let spans = vec![
            span(0, Some(10), 1, 5, Some(Value::Int(1))),
            span(1, None, 2, 5, None),
        ];
        let sym = SymClasses::of(&spans);
        assert!(sym.classes().is_empty());
    }
}
