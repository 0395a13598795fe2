//! The agreement relation `H ⊑CAL T` (Def. 5 of the paper).
//!
//! A complete history `H` agrees with a CA-trace `T` when there is a
//! surjection `π` from the operations of `H` onto the elements of `T` such
//! that (i) each element `T_k` equals the operation set mapped onto it and
//! (ii) the real-time order of `H` is respected: `i ≺H j ⟹ π(i) < π(j)`.
//!
//! The relation is order-parametric: [`agrees`] instantiates it with the
//! real-time order `≺H` (Def. 5 exactly), while [`agrees_under`] takes any
//! [`HbRelation`] — the causal checker's oracle substitutes a
//! happens-before partial order without changing the matching search.
//!
//! The search proceeds element-by-element: element `k` must be matched by a
//! set of yet-unmatched operations that (a) equals `T_k` as a set and
//! (b) consists only of *minimal* operations — ones all of whose
//! order-predecessors were matched to earlier elements. Because equal
//! operations can appear at several history positions, the match is found
//! by backtracking with memoization; minimality is tracked incrementally
//! with predecessor counts, so the common case (few duplicate operations)
//! costs one count update per ordered pair of operations.

use std::collections::{HashMap, HashSet};

use crate::action::Action;
use crate::bitset::BitSet;
use crate::history::{HbRelation, History, Span};
use crate::op::Operation;
use crate::trace::CaTrace;

/// A witness for `H ⊑CAL T`: `assignment[i] = k` maps the `i`-th operation
/// (in invocation order) of the history to the `k`-th element of the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Agreement {
    /// For each history operation (by span index), the trace element index
    /// it was matched to.
    pub assignment: Vec<usize>,
}

/// Checks `H ⊑CAL T` (Def. 5) and returns a witness surjection if one
/// exists.
///
/// # Panics
///
/// Panics if `history` is not well-formed or not complete; Def. 5 is only
/// defined for complete histories. Use [`History::completions`] first for
/// incomplete histories, or the full CAL membership check in
/// [`crate::check`].
///
/// # Examples
///
/// ```
/// use cal_core::{agree, Action, CaElement, CaTrace, History, Method, ObjectId,
///                Operation, ThreadId, Value};
/// let e = ObjectId(0);
/// let ex = Method("exchange");
/// let h = History::from_actions(vec![
///     Action::invoke(ThreadId(1), e, ex, Value::Int(3)),
///     Action::invoke(ThreadId(2), e, ex, Value::Int(4)),
///     Action::response(ThreadId(1), e, ex, Value::Pair(true, 4)),
///     Action::response(ThreadId(2), e, ex, Value::Pair(true, 3)),
/// ]);
/// let swap = CaElement::pair(
///     Operation::new(ThreadId(1), e, ex, Value::Int(3), Value::Pair(true, 4)),
///     Operation::new(ThreadId(2), e, ex, Value::Int(4), Value::Pair(true, 3)),
/// ).unwrap();
/// let t = CaTrace::from_elements(vec![swap]);
/// assert!(agree::agrees(&h, &t).is_some());
/// ```
pub fn agrees(history: &History, trace: &CaTrace) -> Option<Agreement> {
    let hb = HbRelation::real_time(&history.spans());
    agrees_under(history, trace, &hb)
}

/// Like [`agrees`], but under an arbitrary happens-before relation built
/// over this history's spans: condition (ii) becomes `i ≺hb j ⟹ π(i) <
/// π(j)` and element membership requires pairwise hb-concurrency. With
/// [`HbRelation::real_time`] this is exactly [`agrees`]; with a causal
/// order it is the agreement oracle of `--mode causal`.
///
/// # Panics
///
/// Panics if `history` is not well-formed or not complete, or if `hb` was
/// built over a different number of spans.
pub fn agrees_under(history: &History, trace: &CaTrace, hb: &HbRelation) -> Option<Agreement> {
    let spans = history.spans();
    assert!(
        spans.iter().all(Span::is_complete),
        "⊑CAL is defined on complete histories only"
    );
    assert_eq!(hb.len(), spans.len(), "hb relation built over a different history");
    if spans.len() != trace.total_ops() {
        // π must be total on operations and each element exactly matched,
        // so the operation counts must be equal.
        return None;
    }
    let n = spans.len();
    // pending[i] = number of unmatched predecessors of i under hb.
    let pending: Vec<usize> = (0..n).map(|i| hb.pred_count(i)).collect();
    // Positions of each concrete operation value.
    let mut by_op: HashMap<Operation, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_op.entry(s.operation().expect("complete")).or_default().push(i);
    }
    let mut search = AgreeSearch {
        hb,
        trace,
        pending,
        by_op,
        matched: BitSet::new(n.max(1)),
        assignment: vec![usize::MAX; n],
        failed: HashSet::new(),
    };
    if search.element(0) {
        Some(Agreement { assignment: search.assignment })
    } else {
        None
    }
}

/// Convenience wrapper for [`agrees`] returning only a boolean.
pub fn agrees_bool(history: &History, trace: &CaTrace) -> bool {
    agrees(history, trace).is_some()
}

struct AgreeSearch<'a> {
    hb: &'a HbRelation,
    trace: &'a CaTrace,
    pending: Vec<usize>,
    by_op: HashMap<Operation, Vec<usize>>,
    matched: BitSet,
    assignment: Vec<usize>,
    failed: HashSet<(usize, BitSet)>,
}

impl AgreeSearch<'_> {
    fn element(&mut self, k: usize) -> bool {
        if k == self.trace.len() {
            return self.matched.len() == self.hb.len();
        }
        if self.failed.contains(&(k, self.matched.clone())) {
            return false;
        }
        let element = &self.trace.elements()[k];
        // For each (distinct) operation of the element, the candidate
        // spans: unmatched, minimal, carrying exactly that operation.
        let mut chosen: Vec<usize> = Vec::with_capacity(element.len());
        if self.combos(k, 0, &mut chosen) {
            return true;
        }
        self.failed.insert((k, self.matched.clone()));
        false
    }

    /// Chooses a span for operation `idx` of element `k`, then recurses.
    fn combos(&mut self, k: usize, idx: usize, chosen: &mut Vec<usize>) -> bool {
        let element = &self.trace.elements()[k];
        if idx == element.len() {
            // Commit this combination and move to the next element.
            for &i in chosen.iter() {
                self.matched.insert(i);
                self.assignment[i] = k;
            }
            let hb = self.hb;
            for &i in chosen.iter() {
                hb.for_each_succ(i, |j| self.pending[j] -= 1);
            }
            if self.element(k + 1) {
                return true;
            }
            for &i in chosen.iter() {
                hb.for_each_succ(i, |j| self.pending[j] += 1);
            }
            for &i in chosen.iter() {
                self.matched.remove(i);
                self.assignment[i] = usize::MAX;
            }
            return false;
        }
        let target = element.ops()[idx];
        let candidates = match self.by_op.get(&target) {
            Some(c) => c.clone(),
            None => return false,
        };
        for i in candidates {
            if self.matched.contains(i) || self.pending[i] != 0 || chosen.contains(&i) {
                continue;
            }
            // Members of one element must be pairwise concurrent under hb.
            if !chosen.iter().all(|&j| self.hb.concurrent(i, j)) {
                continue;
            }
            chosen.push(i);
            if self.combos(k, idx + 1, chosen) {
                return true;
            }
            chosen.pop();
        }
        false
    }
}

/// Reconstructs the completion of `history` implied by `witness` (see
/// [`crate::check::witness_explains`]): every complete operation must
/// appear in the trace exactly once, a pending invocation may appear once
/// completed, absent pending invocations are dropped. Returns the
/// completion plus the surviving spans' original indices (ascending) so
/// order relations built over the original spans can be restricted to
/// the completion.
pub(crate) fn reconstruct_completion(
    history: &History,
    witness: &CaTrace,
) -> Option<(History, Vec<usize>)> {
    let spans = history.spans();
    // Multiset of witness operations, minus each complete operation.
    let mut counts: HashMap<Operation, i64> = HashMap::new();
    for op in witness.all_ops() {
        *counts.entry(op).or_insert(0) += 1;
    }
    for span in spans.iter().filter(|s| s.is_complete()) {
        let op = span.operation().expect("complete span has an operation");
        match counts.get_mut(&op) {
            Some(c) if *c > 0 => *c -= 1,
            _ => return None, // a complete operation the trace does not explain
        }
    }
    // What remains must complete pending invocations, at most one per
    // thread (well-formedness guarantees at most one pending per thread).
    let mut completed_pending: Vec<(usize, Operation)> = Vec::new();
    for (op, count) in counts {
        match count {
            0 => {}
            1 => {
                let Some(span) = spans.iter().find(|s| {
                    !s.is_complete()
                        && s.thread == op.thread
                        && s.object == op.object
                        && s.method == op.method
                        && s.arg == op.arg
                }) else {
                    return None; // an op the history never invoked
                };
                completed_pending.push((span.inv, op));
            }
            _ => return None, // duplicated beyond the one pending slot
        }
    }
    // Build the completion: drop uncompleted pending invocations, append
    // responses for completed ones. Appending at the end adds no real-time
    // constraints, matching the checker's treatment of completed pending
    // operations.
    let completed_invs: HashSet<usize> = completed_pending.iter().map(|&(inv, _)| inv).collect();
    let dropped: HashSet<usize> = spans
        .iter()
        .filter(|s| !s.is_complete() && !completed_invs.contains(&s.inv))
        .map(|s| s.inv)
        .collect();
    let mut actions: Vec<Action> = history
        .actions()
        .iter()
        .enumerate()
        .filter(|(i, _)| !dropped.contains(i))
        .map(|(_, a)| *a)
        .collect();
    for (_, op) in &completed_pending {
        actions.push(op.response());
    }
    let completion = History::from_actions(actions);
    let kept: Vec<usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_complete() || completed_invs.contains(&s.inv))
        .map(|(i, _)| i)
        .collect();
    Some((completion, kept))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::ids::{Method, ObjectId, ThreadId, Value};
    use crate::trace::CaElement;

    const E: ObjectId = ObjectId(0);
    const EX: Method = Method("exchange");

    fn inv(t: u32, v: i64) -> Action {
        Action::invoke(ThreadId(t), E, EX, Value::Int(v))
    }

    fn res(t: u32, ok: bool, v: i64) -> Action {
        Action::response(ThreadId(t), E, EX, Value::Pair(ok, v))
    }

    fn op(t: u32, arg: i64, ok: bool, ret: i64) -> Operation {
        Operation::new(ThreadId(t), E, EX, Value::Int(arg), Value::Pair(ok, ret))
    }

    fn swap12() -> CaElement {
        CaElement::pair(op(1, 3, true, 4), op(2, 4, true, 3)).unwrap()
    }

    #[test]
    fn empty_agrees_with_empty() {
        assert!(agrees_bool(&History::new(), &CaTrace::new()));
    }

    #[test]
    fn empty_history_disagrees_with_nonempty_trace() {
        let t = CaTrace::from_elements(vec![CaElement::singleton(op(1, 7, false, 7))]);
        assert!(!agrees_bool(&History::new(), &t));
    }

    #[test]
    fn overlapping_swap_agrees() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, true, 4), res(2, true, 3)]);
        let t = CaTrace::from_elements(vec![swap12()]);
        let w = agrees(&h, &t).unwrap();
        assert_eq!(w.assignment, vec![0, 0]);
    }

    #[test]
    fn non_overlapping_ops_cannot_share_element() {
        // t1 finishes before t2 starts, so they cannot be simultaneous.
        let h = History::from_actions(vec![inv(1, 3), res(1, true, 4), inv(2, 4), res(2, true, 3)]);
        let t = CaTrace::from_elements(vec![swap12()]);
        assert!(!agrees_bool(&h, &t));
    }

    #[test]
    fn real_time_order_must_be_preserved() {
        // t1 ≺H t2, trace has t2's element first: refused.
        let h = History::from_actions(vec![inv(1, 3), res(1, false, 3), inv(2, 4), res(2, false, 4)]);
        let t_wrong = CaTrace::from_elements(vec![
            CaElement::singleton(op(2, 4, false, 4)),
            CaElement::singleton(op(1, 3, false, 3)),
        ]);
        assert!(!agrees_bool(&h, &t_wrong));
        let t_right = CaTrace::from_elements(vec![
            CaElement::singleton(op(1, 3, false, 3)),
            CaElement::singleton(op(2, 4, false, 4)),
        ]);
        let w = agrees(&h, &t_right).unwrap();
        assert_eq!(w.assignment, vec![0, 1]);
    }

    #[test]
    fn concurrent_singletons_may_order_either_way() {
        let h = History::from_actions(vec![inv(1, 3), inv(2, 4), res(1, false, 3), res(2, false, 4)]);
        let t_ab = CaTrace::from_elements(vec![
            CaElement::singleton(op(1, 3, false, 3)),
            CaElement::singleton(op(2, 4, false, 4)),
        ]);
        let t_ba = CaTrace::from_elements(vec![
            CaElement::singleton(op(2, 4, false, 4)),
            CaElement::singleton(op(1, 3, false, 3)),
        ]);
        assert!(agrees_bool(&h, &t_ab));
        assert!(agrees_bool(&h, &t_ba));
    }

    #[test]
    fn operation_mismatch_detected() {
        let h = History::from_actions(vec![inv(1, 3), res(1, false, 3)]);
        // Trace claims the exchange succeeded.
        let t = CaTrace::from_elements(vec![CaElement::singleton(op(1, 3, true, 9))]);
        assert!(!agrees_bool(&h, &t));
    }

    #[test]
    fn surjection_requires_all_ops_covered() {
        let h = History::from_actions(vec![inv(1, 3), res(1, false, 3), inv(2, 4), res(2, false, 4)]);
        let t = CaTrace::from_elements(vec![CaElement::singleton(op(1, 3, false, 3))]);
        // Trace misses t2's operation.
        assert!(!agrees_bool(&h, &t));
    }

    #[test]
    fn trace_with_extra_element_rejected() {
        let h = History::from_actions(vec![inv(1, 3), res(1, false, 3)]);
        let t = CaTrace::from_elements(vec![
            CaElement::singleton(op(1, 3, false, 3)),
            CaElement::singleton(op(2, 4, false, 4)),
        ]);
        assert!(!agrees_bool(&h, &t));
    }

    #[test]
    fn duplicate_operations_need_backtracking() {
        // The same thread performs two identical failed exchanges, with a
        // different thread's op strictly between them. Matching the wrong
        // occurrence first must be undone by backtracking.
        let h = History::from_actions(vec![
            inv(1, 5),
            res(1, false, 5),
            inv(2, 6),
            res(2, false, 6),
            inv(1, 5),
            res(1, false, 5),
        ]);
        let t = CaTrace::from_elements(vec![
            CaElement::singleton(op(1, 5, false, 5)),
            CaElement::singleton(op(2, 6, false, 6)),
            CaElement::singleton(op(1, 5, false, 5)),
        ]);
        let w = agrees(&h, &t).unwrap();
        assert_eq!(w.assignment, vec![0, 1, 2]);
    }

    #[test]
    fn duplicate_operations_across_threads() {
        // Two different threads perform the same op concurrently; the
        // element order in the trace can bind either occurrence.
        let h = History::from_actions(vec![inv(1, 5), inv(2, 5), res(1, false, 5), res(2, false, 5)]);
        let t = CaTrace::from_elements(vec![
            CaElement::singleton(op(1, 5, false, 5)),
            CaElement::singleton(op(2, 5, false, 5)),
        ]);
        assert!(agrees_bool(&h, &t));
    }

    #[test]
    fn fig3_h1_agrees_with_swap_then_fail() {
        // Fig. 3's H1: t1, t2 swap 3↔4 concurrently; t3 fails with 7.
        let h = History::from_actions(vec![
            inv(1, 3),
            inv(2, 4),
            inv(3, 7),
            res(1, true, 4),
            res(2, true, 3),
            res(3, false, 7),
        ]);
        let t = CaTrace::from_elements(vec![swap12(), CaElement::singleton(op(3, 7, false, 7))]);
        assert!(agrees_bool(&h, &t));
        // And the other element order also works since all overlap:
        let t2 = CaTrace::from_elements(vec![CaElement::singleton(op(3, 7, false, 7)), swap12()]);
        assert!(agrees_bool(&h, &t2));
    }

    #[test]
    fn causal_order_relaxes_agreement() {
        // t1 finishes before t2 starts: `≺H` forbids them sharing an
        // element, but a session-only causal order (no cross-thread
        // edges) leaves them concurrent.
        let h = History::from_actions(vec![inv(1, 3), res(1, true, 4), inv(2, 4), res(2, true, 3)]);
        let t = CaTrace::from_elements(vec![swap12()]);
        assert!(agrees(&h, &t).is_none());
        let session = HbRelation::causal(&h.spans(), &[]).unwrap();
        assert!(agrees_under(&h, &t, &session).is_some());
        // An explicit hb edge t1-op -> t2-op restores the prohibition.
        let edged = HbRelation::causal(&h.spans(), &[(0, 1)]).unwrap();
        assert!(agrees_under(&h, &t, &edged).is_none());
    }

    #[test]
    #[should_panic(expected = "complete histories")]
    fn incomplete_history_panics() {
        let h = History::from_actions(vec![inv(1, 3)]);
        agrees_bool(&h, &CaTrace::new());
    }
}
