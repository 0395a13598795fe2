//! A synchronous queue specification — the extended paper's second client
//! of the exchanger (§2, citing Scherer–Lea–Scott).
//!
//! A synchronous queue transfers an element only when a producer and a
//! consumer rendezvous: `put(v)` blocks until some `take()` receives `v`,
//! and vice versa. Like the exchanger this is a CA-object: a successful
//! transfer is a *pair* of operations taking effect simultaneously, and no
//! useful sequential specification exists. The CA-trace set consists of
//! elements that are either
//!
//! - `Q.{(t, put(v) ▷ true), (t', take() ▷ (true, v))}` with `t ≠ t'`, or
//! - `Q.{(t, put(v) ▷ false)}` / `Q.{(t, take() ▷ (false, 0))}` — a timed-out
//!   rendezvous attempt.

use cal_core::compose::TraceMap;
use cal_core::spec::{CaSpec, Invocation, Shape};
use cal_core::{CaElement, CaTrace, ObjectId, Operation, ThreadId, Value};

use crate::vocab::{PUT, TAKE, TAKE_SENTINEL};

/// The concurrency-aware synchronous queue specification.
///
/// # Examples
///
/// ```
/// use cal_core::spec::CaSpec;
/// use cal_core::{CaTrace, ObjectId, ThreadId};
/// use cal_specs::sync_queue::{transfer_element, SyncQueueSpec};
/// let q = ObjectId(0);
/// let spec = SyncQueueSpec::new(q);
/// let t = CaTrace::from_elements(vec![transfer_element(q, ThreadId(1), 5, ThreadId(2))]);
/// assert!(spec.accepts(&t));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncQueueSpec {
    object: ObjectId,
}

impl SyncQueueSpec {
    /// Creates the specification of synchronous queue `object`.
    pub fn new(object: ObjectId) -> Self {
        SyncQueueSpec { object }
    }

    /// The specified object.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Returns `true` if `element` is a legal synchronous-queue element: a
    /// matched transfer pair or a singleton timeout.
    pub fn is_legal_element(&self, element: &CaElement) -> bool {
        if element.object() != self.object {
            return false;
        }
        match element.ops() {
            [a] => match a.method {
                PUT => a.ret == Value::Bool(false),
                TAKE => a.ret == Value::Pair(false, 0),
                _ => false,
            },
            [a, b] => {
                let (put, take) = match (a.method, b.method) {
                    (PUT, TAKE) => (a, b),
                    (TAKE, PUT) => (b, a),
                    _ => return false,
                };
                put.thread != take.thread
                    && put.ret == Value::Bool(true)
                    && matches!((take.ret.as_pair(), put.arg.as_int()),
                                (Some((true, got)), Some(v)) if got == v)
            }
            _ => false,
        }
    }
}

impl CaSpec for SyncQueueSpec {
    type State = ();

    fn initial(&self) -> Self::State {}

    fn step(&self, _state: &Self::State, element: &CaElement) -> Option<Self::State> {
        self.is_legal_element(element).then_some(())
    }

    fn max_element_size(&self) -> usize {
        2
    }

    fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
        match inv.method {
            PUT => vec![Value::Bool(false)],
            TAKE => vec![Value::Pair(false, 0)],
            _ => Vec::new(),
        }
    }

    fn completions_among(&self, inv: &Invocation, peers: &[Invocation]) -> Vec<Value> {
        let mut out = self.completions_of(inv);
        match inv.method {
            PUT if peers.iter().any(|p| p.method == TAKE) => out.push(Value::Bool(true)),
            TAKE => out.extend(
                peers
                    .iter()
                    .filter(|p| p.method == PUT)
                    .filter_map(|p| Some(Value::Pair(true, p.arg.as_int()?))),
            ),
            _ => {}
        }
        out
    }

    fn restrict(&self, object: ObjectId) -> Option<Self> {
        (object == self.object).then_some(*self)
    }

    fn shape(&self) -> Shape {
        Shape::Pairs
    }
}

/// Builds the transfer element `Q.{(t, put(v) ▷ true), (t', take() ▷ (true, v))}`.
///
/// # Panics
///
/// Panics if `producer == consumer`.
pub fn transfer_element(object: ObjectId, producer: ThreadId, v: i64, consumer: ThreadId) -> CaElement {
    CaElement::pair(
        Operation::new(producer, object, PUT, Value::Int(v), Value::Bool(true)),
        Operation::new(consumer, object, TAKE, Value::Unit, Value::Pair(true, v)),
    )
    .expect("distinct threads rendezvousing on one object")
}

/// Builds the timeout element `Q.{(t, put(v) ▷ false)}`.
pub fn put_timeout_element(object: ObjectId, t: ThreadId, v: i64) -> CaElement {
    CaElement::singleton(Operation::new(t, object, PUT, Value::Int(v), Value::Bool(false)))
}

/// Builds the timeout element `Q.{(t, take() ▷ (false, 0))}`.
pub fn take_timeout_element(object: ObjectId, t: ThreadId) -> CaElement {
    CaElement::singleton(Operation::new(t, object, TAKE, Value::Unit, Value::Pair(false, 0)))
}

/// The view function `F_Q` of an exchanger-based synchronous queue `Q`:
/// a successful exchange in which exactly one side offered the
/// [`TAKE_SENTINEL`] becomes a transfer pair on `Q` — the producer's `put`
/// and the consumer's `take` stay *simultaneous* (one CA-element, unlike
/// `F_ES` which sequences push before pop). All other exchanger elements
/// are hidden; the queue logs its own timeout singletons directly on `Q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FQMap {
    queue: ObjectId,
    exchanger: ObjectId,
}

impl FQMap {
    /// Creates `F_Q` for `queue` encapsulating `exchanger`.
    pub fn new(queue: ObjectId, exchanger: ObjectId) -> Self {
        FQMap { queue, exchanger }
    }

    /// The queue object.
    pub fn queue(&self) -> ObjectId {
        self.queue
    }

    /// The encapsulated exchanger object.
    pub fn exchanger(&self) -> ObjectId {
        self.exchanger
    }
}

impl TraceMap for FQMap {
    fn map_element(&self, element: &CaElement) -> Option<CaTrace> {
        if element.object() != self.exchanger {
            return None;
        }
        let [a, b] = element.ops() else { return Some(CaTrace::new()) };
        let (Some((true, _)), Some((true, _))) = (a.ret.as_pair(), b.ret.as_pair()) else {
            return Some(CaTrace::new());
        };
        let (producer, consumer) = match (a.arg.as_int(), b.arg.as_int()) {
            (Some(va), Some(vb)) if va != TAKE_SENTINEL && vb == TAKE_SENTINEL => (a, b),
            (Some(va), Some(vb)) if vb != TAKE_SENTINEL && va == TAKE_SENTINEL => (b, a),
            _ => return Some(CaTrace::new()),
        };
        let v = producer.arg.as_int().expect("checked above");
        Some(CaTrace::from_elements(vec![transfer_element(
            self.queue,
            producer.thread,
            v,
            consumer.thread,
        )]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cal_core::check::is_cal;
    use cal_core::{Action, CaTrace, History};

    const Q: ObjectId = ObjectId(0);

    fn spec() -> SyncQueueSpec {
        SyncQueueSpec::new(Q)
    }

    fn t(n: u32) -> ThreadId {
        ThreadId(n)
    }

    #[test]
    fn transfer_and_timeouts_are_legal() {
        let s = spec();
        assert!(s.is_legal_element(&transfer_element(Q, t(1), 5, t(2))));
        assert!(s.is_legal_element(&put_timeout_element(Q, t(1), 5)));
        assert!(s.is_legal_element(&take_timeout_element(Q, t(2))));
    }

    #[test]
    fn lone_successful_put_is_illegal() {
        let bad = CaElement::singleton(Operation::new(
            t(1),
            Q,
            PUT,
            Value::Int(5),
            Value::Bool(true),
        ));
        assert!(!spec().is_legal_element(&bad));
    }

    #[test]
    fn transfer_value_must_match() {
        let bad = CaElement::pair(
            Operation::new(t(1), Q, PUT, Value::Int(5), Value::Bool(true)),
            Operation::new(t(2), Q, TAKE, Value::Unit, Value::Pair(true, 6)),
        )
        .unwrap();
        assert!(!spec().is_legal_element(&bad));
    }

    #[test]
    fn two_puts_cannot_pair() {
        let bad = CaElement::pair(
            Operation::new(t(1), Q, PUT, Value::Int(5), Value::Bool(true)),
            Operation::new(t(2), Q, PUT, Value::Int(6), Value::Bool(true)),
        )
        .unwrap();
        assert!(!spec().is_legal_element(&bad));
    }

    #[test]
    fn concurrent_transfer_history_is_cal() {
        let h = History::from_actions(vec![
            Action::invoke(t(1), Q, PUT, Value::Int(5)),
            Action::invoke(t(2), Q, TAKE, Value::Unit),
            Action::response(t(1), Q, PUT, Value::Bool(true)),
            Action::response(t(2), Q, TAKE, Value::Pair(true, 5)),
        ]);
        assert!(is_cal(&h, &spec()).unwrap());
    }

    #[test]
    fn sequential_transfer_history_is_not_cal() {
        let h = History::from_actions(vec![
            Action::invoke(t(1), Q, PUT, Value::Int(5)),
            Action::response(t(1), Q, PUT, Value::Bool(true)),
            Action::invoke(t(2), Q, TAKE, Value::Unit),
            Action::response(t(2), Q, TAKE, Value::Pair(true, 5)),
        ]);
        assert!(!is_cal(&h, &spec()).unwrap());
    }

    #[test]
    fn pending_take_completed_against_pending_put() {
        let h = History::from_actions(vec![
            Action::invoke(t(1), Q, PUT, Value::Int(5)),
            Action::invoke(t(2), Q, TAKE, Value::Unit),
            Action::response(t(1), Q, PUT, Value::Bool(true)),
        ]);
        assert!(is_cal(&h, &spec()).unwrap());
    }

    #[test]
    fn fq_maps_mixed_rendezvous_to_transfer() {
        use crate::exchanger::swap_element;
        let e = ObjectId(9);
        let f = FQMap::new(Q, e);
        // Producer offers 5, consumer offers the take sentinel.
        let rendezvous = swap_element(e, t(1), 5, t(2), TAKE_SENTINEL);
        let mapped = f.apply(&CaTrace::from_elements(vec![rendezvous]));
        assert_eq!(mapped.len(), 1);
        assert!(spec().is_legal_element(&mapped.elements()[0]));
        assert_eq!(mapped.elements()[0], transfer_element(Q, t(1), 5, t(2)));
    }

    #[test]
    fn fq_hides_same_role_and_failed_exchanges() {
        use crate::exchanger::{fail_element, swap_element};
        use cal_core::compose::TraceMap;
        let e = ObjectId(9);
        let f = FQMap::new(Q, e);
        let tr = CaTrace::from_elements(vec![
            swap_element(e, t(1), 5, t(2), 6),                            // put-put
            swap_element(e, t(1), TAKE_SENTINEL, t(2), TAKE_SENTINEL),    // take-take
            fail_element(e, t(3), 7),                                     // failed exchange
            take_timeout_element(Q, t(3)),                                // queue's own element
        ]);
        let mapped = f.apply(&tr);
        assert_eq!(mapped.len(), 1);
        assert_eq!(mapped.elements()[0], take_timeout_element(Q, t(3)));
        assert_eq!(f.queue(), Q);
        assert_eq!(f.exchanger(), e);
    }

    #[test]
    fn trace_acceptance() {
        let tr = CaTrace::from_elements(vec![
            transfer_element(Q, t(1), 5, t(2)),
            take_timeout_element(Q, t(3)),
            transfer_element(Q, t(2), 6, t(1)),
        ]);
        assert!(spec().accepts(&tr));
    }
}
