//! Sequential stack specifications (§4 "Stack specification").
//!
//! The paper specifies stacks via *well-defined* sequential histories: a
//! history of stack operations is well-defined over an initial stack if
//! executing the **successful** operations in order is possible and yields
//! the reported pop results; failed operations (the contention failures of
//! Fig. 2's central stack) are no-ops.
//!
//! [`StackSpec`] is that acceptor. The [`StackSpec::failing`] variant
//! admits spurious failures (Fig. 2's `S`, whose `push`/`pop` fail under
//! CAS contention); the [`StackSpec::total`] variant admits failures only
//! for `pop` on an empty stack (a conventional total LIFO stack, and the
//! abstract specification of the elimination stack).

use cal_core::spec::{Invocation, SeqSpec};
use cal_core::{ObjectId, Operation, Value};

use crate::vocab::{POP, PUSH};

/// The abstract state of a stack: its contents, bottom first.
pub type StackState = Vec<i64>;

/// A sequential LIFO stack specification.
///
/// # Examples
///
/// ```
/// use cal_core::spec::SeqSpec;
/// use cal_core::{ObjectId, ThreadId};
/// use cal_specs::stack::{pop_ok, push_ok, StackSpec};
/// let s = ObjectId(0);
/// let spec = StackSpec::total(s);
/// assert!(spec.accepts(&[
///     push_ok(s, ThreadId(1), 10),
///     push_ok(s, ThreadId(2), 20),
///     pop_ok(s, ThreadId(1), 20),
///     pop_ok(s, ThreadId(2), 10),
/// ]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackSpec {
    object: ObjectId,
    spurious_failures: bool,
    /// Values proposed when completing a pending `pop` as successful.
    pop_universe: Vec<i64>,
}

impl StackSpec {
    /// A total stack: `push` always succeeds, `pop` fails only on empty.
    pub fn total(object: ObjectId) -> Self {
        StackSpec { object, spurious_failures: false, pop_universe: Vec::new() }
    }

    /// Fig. 2's central stack: `push` and `pop` may additionally fail
    /// spuriously (CAS contention), leaving the stack unchanged.
    pub fn failing(object: ObjectId) -> Self {
        StackSpec { object, spurious_failures: true, pop_universe: Vec::new() }
    }

    /// Sets the value universe used to complete pending `pop` invocations
    /// as successful. Without it, pending pops are only completed as
    /// failures (or dropped).
    pub fn with_pop_universe(mut self, universe: Vec<i64>) -> Self {
        self.pop_universe = universe;
        self
    }

    /// The specified object.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Whether spurious (contention) failures are admitted.
    pub fn admits_spurious_failures(&self) -> bool {
        self.spurious_failures
    }
}

impl SeqSpec for StackSpec {
    type State = StackState;

    fn initial(&self) -> StackState {
        Vec::new()
    }

    fn apply(&self, state: &StackState, op: &Operation) -> Option<StackState> {
        if op.object != self.object {
            return None;
        }
        match op.method {
            PUSH => {
                let v = op.arg.as_int()?;
                match op.ret.as_bool()? {
                    true => {
                        let mut next = state.clone();
                        next.push(v);
                        Some(next)
                    }
                    false => self.spurious_failures.then(|| state.clone()),
                }
            }
            POP => {
                let (ok, v) = op.ret.as_pair()?;
                if ok {
                    (state.last() == Some(&v)).then(|| {
                        let mut next = state.clone();
                        next.pop();
                        next
                    })
                } else if v != 0 {
                    None // failed pops report (false, 0)
                } else if self.spurious_failures || state.is_empty() {
                    Some(state.clone())
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
        match inv.method {
            PUSH => {
                let mut out = vec![Value::Bool(true)];
                if self.spurious_failures {
                    out.push(Value::Bool(false));
                }
                out
            }
            POP => {
                let mut out = vec![Value::Pair(false, 0)];
                out.extend(self.pop_universe.iter().map(|&v| Value::Pair(true, v)));
                out
            }
            _ => Vec::new(),
        }
    }

    fn restrict(&self, object: ObjectId) -> Option<Self> {
        (object == self.object).then(|| self.clone())
    }
}

/// The operation `(t, push(v) ▷ true)`.
pub fn push_ok(object: ObjectId, t: cal_core::ThreadId, v: i64) -> Operation {
    Operation::new(t, object, PUSH, Value::Int(v), Value::Bool(true))
}

/// The operation `(t, push(v) ▷ false)` — a contention failure.
pub fn push_fail(object: ObjectId, t: cal_core::ThreadId, v: i64) -> Operation {
    Operation::new(t, object, PUSH, Value::Int(v), Value::Bool(false))
}

/// The operation `(t, pop() ▷ (true, v))`.
pub fn pop_ok(object: ObjectId, t: cal_core::ThreadId, v: i64) -> Operation {
    Operation::new(t, object, POP, Value::Unit, Value::Pair(true, v))
}

/// The operation `(t, pop() ▷ (false, 0))` — empty or contention failure.
pub fn pop_fail(object: ObjectId, t: cal_core::ThreadId) -> Operation {
    Operation::new(t, object, POP, Value::Unit, Value::Pair(false, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cal_core::check::is_cal;
    use cal_core::spec::{SeqAsCa, SeqSpec};
    use cal_core::{History, ThreadId};

    const S: ObjectId = ObjectId(0);

    fn t(n: u32) -> ThreadId {
        ThreadId(n)
    }

    #[test]
    fn lifo_order_enforced() {
        let spec = StackSpec::total(S);
        assert!(spec.accepts(&[push_ok(S, t(1), 1), push_ok(S, t(1), 2), pop_ok(S, t(1), 2)]));
        assert!(!spec.accepts(&[push_ok(S, t(1), 1), push_ok(S, t(1), 2), pop_ok(S, t(1), 1)]));
    }

    #[test]
    fn pop_empty_fails_cleanly() {
        let spec = StackSpec::total(S);
        assert!(spec.accepts(&[pop_fail(S, t(1))]));
        assert!(!spec.accepts(&[push_ok(S, t(1), 1), pop_fail(S, t(1))]));
    }

    #[test]
    fn failing_variant_admits_spurious_failures() {
        let spec = StackSpec::failing(S);
        assert!(spec.accepts(&[
            push_ok(S, t(1), 1),
            pop_fail(S, t(2)),
            push_fail(S, t(2), 9),
            pop_ok(S, t(1), 1),
        ]));
    }

    #[test]
    fn total_variant_rejects_spurious_push_failure() {
        let spec = StackSpec::total(S);
        assert!(!spec.accepts(&[push_fail(S, t(1), 9)]));
    }

    #[test]
    fn failed_pop_must_report_zero() {
        let spec = StackSpec::failing(S);
        let bad = Operation::new(t(1), S, POP, Value::Unit, Value::Pair(false, 3));
        assert!(!spec.accepts(&[bad]));
    }

    #[test]
    fn wrong_object_or_method_rejected() {
        let spec = StackSpec::total(S);
        assert!(!spec.accepts(&[push_ok(ObjectId(4), t(1), 1)]));
        let bad = Operation::new(t(1), S, crate::vocab::EXCHANGE, Value::Int(1), Value::Bool(true));
        assert!(!spec.accepts(&[bad]));
    }

    #[test]
    fn concurrent_push_pop_linearizable() {
        // push(5) overlaps pop; pop may see 5 or empty.
        let push = push_ok(S, t(1), 5);
        for pop in [pop_ok(S, t(2), 5), pop_fail(S, t(2))] {
            let h = History::from_actions(vec![
                push.invocation(),
                pop.invocation(),
                push.response(),
                pop.response(),
            ]);
            let linearizable = is_cal(&h, &SeqAsCa::new(StackSpec::total(S))).unwrap();
            assert!(linearizable, "pop {pop} should linearize");
        }
    }

    #[test]
    fn pop_of_never_pushed_value_not_linearizable() {
        let h = History::from_actions(vec![
            pop_ok(S, t(1), 42).invocation(),
            pop_ok(S, t(1), 42).response(),
        ]);
        assert!(!is_cal(&h, &SeqAsCa::new(StackSpec::total(S))).unwrap());
    }

    #[test]
    fn pending_pop_completed_from_universe() {
        let spec = StackSpec::total(S).with_pop_universe(vec![5]);
        // push(5) completes; pop invoked but never responds. The pop can be
        // completed as (true,5) or dropped — either way linearizable.
        let push = push_ok(S, t(1), 5);
        let h = History::from_actions(vec![
            push.invocation(),
            push.response(),
            pop_ok(S, t(2), 5).invocation(),
        ]);
        assert!(is_cal(&h, &SeqAsCa::new(spec.clone())).unwrap());
        let inv = Invocation::new(t(2), S, POP, Value::Unit);
        assert!(spec.completions_of(&inv).contains(&Value::Pair(true, 5)));
    }

    #[test]
    fn completions_shapes() {
        let total = StackSpec::total(S);
        let failing = StackSpec::failing(S);
        let push_inv = Invocation::new(t(1), S, PUSH, Value::Int(3));
        assert_eq!(total.completions_of(&push_inv), vec![Value::Bool(true)]);
        assert_eq!(
            failing.completions_of(&push_inv),
            vec![Value::Bool(true), Value::Bool(false)]
        );
        let other = Invocation::new(t(1), S, crate::vocab::EXCHANGE, Value::Int(3));
        assert!(total.completions_of(&other).is_empty());
    }

    #[test]
    fn accessors() {
        assert_eq!(StackSpec::total(S).object(), S);
        assert!(StackSpec::failing(S).admits_spurious_failures());
        assert!(!StackSpec::total(S).admits_spurious_failures());
    }
}
