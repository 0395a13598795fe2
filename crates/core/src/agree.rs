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
//! happens-before partial order.
//!
//! No search is needed. An [`Operation`] carries its thread, and program
//! order lies inside the order: real time orders a thread's spans, and a
//! causal order contains its sessions. So `π` maps a thread's spans onto
//! elements in program order, and the `k`-th operation of thread `t` in
//! the trace can only be the `k`-th span of `t`. That forced assignment
//! is one pass over the trace with a cursor a thread; what is left is one
//! sweep of the elements against the order (`HbRelation::respects`).

use crate::history::{HbRelation, History, Span, Threads};
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
/// order it is the agreement oracle of `--mode causal`. The relation must
/// order each thread's spans, as both constructors' do.
///
/// # Panics
///
/// Panics if `history` is not well-formed or not complete, or if `hb` was
/// built over a different number of spans.
pub fn agrees_under(history: &History, trace: &CaTrace, hb: &HbRelation) -> Option<Agreement> {
    let spans = history.spans();
    assert!(spans.iter().all(Span::is_complete), "⊑CAL is defined on complete histories only");
    explain(&spans, trace, hb).map(|assignment| Agreement { assignment })
}

/// Convenience wrapper for [`agrees`] returning only a boolean.
pub fn agrees_bool(history: &History, trace: &CaTrace) -> bool {
    agrees(history, trace).is_some()
}

/// Def. 5 between `trace` and the completion of `spans` it implies
/// (Def. 2): the forced assignment, then the sweep. A complete span must
/// appear in the trace as its operation; a pending span may appear with
/// the return value the trace gives it, or not at all, and is then
/// dropped. Returns, per span, the element it went to — `usize::MAX` for a
/// dropped span.
///
/// # Panics
///
/// Panics if `hb` was built over a different number of spans.
pub(crate) fn explain(spans: &[Span], trace: &CaTrace, hb: &HbRelation) -> Option<Vec<usize>> {
    assert_eq!(hb.len(), spans.len(), "hb relation built over a different history");
    // Per thread, its first span not yet assigned; per span, its thread's
    // next.
    let mut cursor: Threads<Option<usize>> = Threads::default();
    let mut next = vec![None; spans.len()];
    for (i, s) in spans.iter().enumerate().rev() {
        let slot = cursor.slot(s.thread);
        next[i] = cursor.records[slot].replace(i);
    }
    let mut element = vec![usize::MAX; spans.len()];
    let mut members = Vec::with_capacity(trace.total_ops());
    for (k, e) in trace.elements().iter().enumerate() {
        for op in e.ops() {
            let slot = cursor.find(op.thread)?;
            let i = cursor.records[slot]?;
            let s = &spans[i];
            let Operation { object, method, arg, ret, .. } = *op;
            if (s.object, s.method, s.arg) != (object, method, arg)
                || s.ret.is_some_and(|r| r != ret)
            {
                return None;
            }
            cursor.records[slot] = next[i];
            element[i] = k;
            members.push(i);
        }
    }
    // A thread's first span the trace left unassigned: a pending one is
    // its last and is dropped, a complete one is an operation the trace
    // does not explain.
    if cursor.records.iter().flatten().any(|&i| spans[i].is_complete()) {
        return None;
    }
    let mut rest = &members[..];
    let groups = trace.elements().iter().map(|e| {
        let (group, tail) = rest.split_at(e.len());
        rest = tail;
        group
    });
    hb.respects(groups, |i| element[i] == usize::MAX).then_some(element)
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
    fn duplicate_operations_map_in_program_order() {
        // The same thread performs two identical failed exchanges, with a
        // different thread's op strictly between them: the first copy in
        // the trace is the first in the history.
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
