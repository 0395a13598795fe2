//! The exchanger specification (§4 of the paper).
//!
//! The CA-trace set of an exchanger `E` consists of sequences of elements
//! that are each either
//!
//! - `E.swap(t, v, t', v') = E.{(t, ex(v) ▷ (true, v')), (t', ex(v') ▷ (true, v))}`
//!   with `t ≠ t'` — a successful pairwise swap, or
//! - `E.{(t, ex(v) ▷ (false, v))}` — a failed exchange returning its own
//!   argument.
//!
//! This is exactly the "accurate specification" of §4: a successful
//! exchange overlaps precisely the operation it swapped with, and a failed
//! exchange overlaps nothing.

use cal_core::spec::{CaSpec, Invocation, Shape};
use cal_core::{CaElement, ObjectId, Operation, ThreadId, Value};

use crate::vocab::EXCHANGE;

/// The concurrency-aware exchanger specification for one exchanger object.
///
/// # Examples
///
/// ```
/// use cal_core::spec::CaSpec;
/// use cal_core::{CaTrace, ObjectId, ThreadId};
/// use cal_specs::exchanger::{swap_element, ExchangerSpec};
/// let e = ObjectId(0);
/// let spec = ExchangerSpec::new(e);
/// let trace = CaTrace::from_elements(vec![
///     swap_element(e, ThreadId(1), 3, ThreadId(2), 4),
/// ]);
/// assert!(spec.accepts(&trace));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangerSpec {
    object: ObjectId,
}

impl ExchangerSpec {
    /// Creates the specification of exchanger `object`.
    pub fn new(object: ObjectId) -> Self {
        ExchangerSpec { object }
    }

    /// The specified object.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Returns `true` if `element` is a legal exchanger element of this
    /// object: a matched swap pair or a singleton failure.
    pub fn is_legal_element(&self, element: &CaElement) -> bool {
        element.object() == self.object && is_exchange_shape(element)
    }
}

/// Shape check shared by the exchanger and the elimination array: swap pair
/// or singleton failure, on whatever object the element belongs to.
pub(crate) fn is_exchange_shape(element: &CaElement) -> bool {
    match element.ops() {
        [a] => {
            a.method == EXCHANGE
                && matches!((a.ret.as_pair(), a.arg.as_int()),
                            (Some((false, r)), Some(v)) if r == v)
        }
        [a, b] => {
            a.method == EXCHANGE
                && b.method == EXCHANGE
                && a.thread != b.thread
                && matches!(
                    (a.ret.as_pair(), b.ret.as_pair(), a.arg.as_int(), b.arg.as_int()),
                    (Some((true, ra)), Some((true, rb)), Some(va), Some(vb))
                        if ra == vb && rb == va
                )
        }
        _ => false,
    }
}

/// Peer-aware completions shared by the exchanger and the elimination
/// array: fail with the own argument, or succeed with any peer's argument.
pub(crate) fn exchange_completions(inv: &Invocation, peers: &[Invocation]) -> Vec<Value> {
    let mut out = Vec::with_capacity(1 + peers.len());
    if let Some(v) = inv.arg.as_int() {
        out.push(Value::Pair(false, v));
    }
    out.extend(peers.iter().filter_map(|p| Some(Value::Pair(true, p.arg.as_int()?))));
    out
}

impl CaSpec for ExchangerSpec {
    type State = ();

    fn initial(&self) -> Self::State {}

    fn step(&self, _state: &Self::State, element: &CaElement) -> Option<Self::State> {
        self.is_legal_element(element).then_some(())
    }

    fn max_element_size(&self) -> usize {
        2
    }

    fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
        exchange_completions(inv, &[])
    }

    fn completions_among(&self, inv: &Invocation, peers: &[Invocation]) -> Vec<Value> {
        exchange_completions(inv, peers)
    }

    fn restrict(&self, object: ObjectId) -> Option<Self> {
        (object == self.object).then_some(*self)
    }

    fn shape(&self) -> Shape {
        Shape::Pairs
    }
}

/// Builds the paper's `E.swap(t, v, t', v')` element: `t` exchanges `v` for
/// `v'` while `t'` exchanges `v'` for `v`.
///
/// # Panics
///
/// Panics if `t == t2` — a thread cannot swap with itself.
pub fn swap_element(object: ObjectId, t: ThreadId, v: i64, t2: ThreadId, v2: i64) -> CaElement {
    CaElement::pair(
        Operation::new(t, object, EXCHANGE, Value::Int(v), Value::Pair(true, v2)),
        Operation::new(t2, object, EXCHANGE, Value::Int(v2), Value::Pair(true, v)),
    )
    .expect("distinct threads swapping on one object")
}

/// Builds the failure element `E.{(t, ex(v) ▷ (false, v))}`.
pub fn fail_element(object: ObjectId, t: ThreadId, v: i64) -> CaElement {
    CaElement::singleton(Operation::new(t, object, EXCHANGE, Value::Int(v), Value::Pair(false, v)))
}

/// The successful-exchange operation `(t, ex(v) ▷ (true, got))`.
pub fn exchange_ok(object: ObjectId, t: ThreadId, v: i64, got: i64) -> Operation {
    Operation::new(t, object, EXCHANGE, Value::Int(v), Value::Pair(true, got))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cal_core::check::is_cal;
    use cal_core::{Action, CaTrace, History};

    const E: ObjectId = ObjectId(0);

    fn spec() -> ExchangerSpec {
        ExchangerSpec::new(E)
    }

    #[test]
    fn swap_and_fail_elements_are_legal() {
        let s = spec();
        assert!(s.is_legal_element(&swap_element(E, ThreadId(1), 3, ThreadId(2), 4)));
        assert!(s.is_legal_element(&fail_element(E, ThreadId(3), 7)));
    }

    #[test]
    fn self_swap_values_must_cross() {
        let bad = CaElement::pair(
            exchange_ok(E, ThreadId(1), 3, 9),
            exchange_ok(E, ThreadId(2), 4, 3),
        )
        .unwrap();
        assert!(!spec().is_legal_element(&bad));
    }

    #[test]
    fn lone_success_is_illegal() {
        let bad = CaElement::singleton(exchange_ok(E, ThreadId(1), 3, 4));
        assert!(!spec().is_legal_element(&bad));
    }

    #[test]
    fn fail_must_return_own_argument() {
        let bad = CaElement::singleton(Operation::new(
            ThreadId(1),
            E,
            EXCHANGE,
            Value::Int(3),
            Value::Pair(false, 4),
        ));
        assert!(!spec().is_legal_element(&bad));
    }

    #[test]
    fn wrong_object_rejected() {
        let other = swap_element(ObjectId(5), ThreadId(1), 3, ThreadId(2), 4);
        assert!(!spec().is_legal_element(&other));
    }

    #[test]
    fn wrong_method_rejected() {
        let bad = CaElement::singleton(Operation::new(
            ThreadId(1),
            E,
            crate::vocab::PUSH,
            Value::Int(3),
            Value::Pair(false, 3),
        ));
        assert!(!spec().is_legal_element(&bad));
    }

    #[test]
    fn accepts_any_sequence_of_legal_elements() {
        let t = CaTrace::from_elements(vec![
            fail_element(E, ThreadId(1), 1),
            swap_element(E, ThreadId(1), 3, ThreadId(2), 4),
            swap_element(E, ThreadId(3), 5, ThreadId(1), 6),
            fail_element(E, ThreadId(2), 2),
        ]);
        assert!(spec().accepts(&t));
    }

    #[test]
    fn concurrent_swap_history_is_cal() {
        let h = History::from_actions(vec![
            Action::invoke(ThreadId(1), E, EXCHANGE, Value::Int(3)),
            Action::invoke(ThreadId(2), E, EXCHANGE, Value::Int(4)),
            Action::response(ThreadId(1), E, EXCHANGE, Value::Pair(true, 4)),
            Action::response(ThreadId(2), E, EXCHANGE, Value::Pair(true, 3)),
        ]);
        assert!(is_cal(&h, &spec()).unwrap());
    }

    #[test]
    fn sequential_swap_history_is_not_cal() {
        let h = History::from_actions(vec![
            Action::invoke(ThreadId(1), E, EXCHANGE, Value::Int(3)),
            Action::response(ThreadId(1), E, EXCHANGE, Value::Pair(true, 4)),
            Action::invoke(ThreadId(2), E, EXCHANGE, Value::Int(4)),
            Action::response(ThreadId(2), E, EXCHANGE, Value::Pair(true, 3)),
        ]);
        assert!(!is_cal(&h, &spec()).unwrap());
    }

    #[test]
    fn completions_propose_failure_and_peer_successes() {
        let s = spec();
        let inv = Invocation::new(ThreadId(1), E, EXCHANGE, Value::Int(3));
        assert_eq!(s.completions_of(&inv), vec![Value::Pair(false, 3)]);
        let peer = Invocation::new(ThreadId(2), E, EXCHANGE, Value::Int(9));
        let among = s.completions_among(&inv, &[peer]);
        assert!(among.contains(&Value::Pair(false, 3)));
        assert!(among.contains(&Value::Pair(true, 9)));
    }
}
