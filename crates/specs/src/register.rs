//! Sequential register and counter specifications, used to calibrate the
//! checkers against classical (singleton-element) objects.

use cal_core::spec::{Invocation, RegisterShape, SeqSpec, Shape};
use cal_core::{ObjectId, Operation, ThreadId, Value};

use crate::vocab::{INC, READ, WRITE};

/// A sequential integer register: `read` returns the last written value,
/// initially 0.
///
/// # Examples
///
/// ```
/// use cal_core::spec::SeqSpec;
/// use cal_core::{ObjectId, ThreadId};
/// use cal_specs::register::{read_op, write_op, RegisterSpec};
/// let r = ObjectId(0);
/// let spec = RegisterSpec::new(r);
/// assert!(spec.accepts(&[write_op(r, ThreadId(1), 5), read_op(r, ThreadId(2), 5)]));
/// assert!(!spec.accepts(&[write_op(r, ThreadId(1), 5), read_op(r, ThreadId(2), 0)]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterSpec {
    object: ObjectId,
    /// Values proposed when completing a pending `read`.
    read_universe: Vec<i64>,
}

impl RegisterSpec {
    /// Creates the specification of register `object`.
    pub fn new(object: ObjectId) -> Self {
        RegisterSpec { object, read_universe: vec![0] }
    }

    /// Sets the value universe used to complete pending reads.
    pub fn with_read_universe(mut self, universe: Vec<i64>) -> Self {
        self.read_universe = universe;
        self
    }

    /// The specified object.
    pub fn object(&self) -> ObjectId {
        self.object
    }
}

impl SeqSpec for RegisterSpec {
    type State = i64;

    fn initial(&self) -> i64 {
        0
    }

    fn apply(&self, state: &i64, op: &Operation) -> Option<i64> {
        if op.object != self.object {
            return None;
        }
        match op.method {
            WRITE => {
                if op.ret != Value::Unit {
                    return None;
                }
                op.arg.as_int()
            }
            READ => (op.ret == Value::Int(*state)).then_some(*state),
            _ => None,
        }
    }

    fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
        match inv.method {
            WRITE => vec![Value::Unit],
            READ => self.read_universe.iter().map(|&v| Value::Int(v)).collect(),
            _ => Vec::new(),
        }
    }

    fn restrict(&self, object: ObjectId) -> Option<Self> {
        (object == self.object).then(|| self.clone())
    }

    fn shape(&self) -> Shape {
        Shape::Register(RegisterShape {
            writes: &[WRITE],
            reads: &[READ],
            object: Some(self.object),
        })
    }
}

/// The operation `(t, write(v) ▷ ())`.
pub fn write_op(object: ObjectId, t: ThreadId, v: i64) -> Operation {
    Operation::new(t, object, WRITE, Value::Int(v), Value::Unit)
}

/// The operation `(t, read() ▷ v)`.
pub fn read_op(object: ObjectId, t: ThreadId, v: i64) -> Operation {
    Operation::new(t, object, READ, Value::Unit, Value::Int(v))
}

/// A sequential counter: `inc() ▷ n` returns the pre-increment count.
///
/// # Examples
///
/// ```
/// use cal_core::spec::SeqSpec;
/// use cal_core::{ObjectId, ThreadId};
/// use cal_specs::register::{inc_op, CounterSpec};
/// let c = ObjectId(0);
/// let spec = CounterSpec::new(c);
/// assert!(spec.accepts(&[inc_op(c, ThreadId(1), 0), inc_op(c, ThreadId(2), 1)]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSpec {
    object: ObjectId,
    /// Largest count proposed when completing a pending `inc`.
    max_completion: i64,
}

impl CounterSpec {
    /// Creates the specification of counter `object`.
    pub fn new(object: ObjectId) -> Self {
        CounterSpec { object, max_completion: 16 }
    }

    /// The specified object.
    pub fn object(&self) -> ObjectId {
        self.object
    }
}

impl SeqSpec for CounterSpec {
    type State = i64;

    fn initial(&self) -> i64 {
        0
    }

    fn apply(&self, state: &i64, op: &Operation) -> Option<i64> {
        if op.object != self.object || op.method != INC {
            return None;
        }
        (op.ret == Value::Int(*state)).then_some(state + 1)
    }

    fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
        if inv.method == INC {
            (0..=self.max_completion).map(Value::Int).collect()
        } else {
            Vec::new()
        }
    }

    fn restrict(&self, object: ObjectId) -> Option<Self> {
        (object == self.object).then(|| self.clone())
    }
}

/// The operation `(t, inc() ▷ n)`.
pub fn inc_op(object: ObjectId, t: ThreadId, n: i64) -> Operation {
    Operation::new(t, object, INC, Value::Unit, Value::Int(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cal_core::check::is_cal;
    use cal_core::spec::SeqAsCa;
    use cal_core::History;

    const R: ObjectId = ObjectId(0);

    fn t(n: u32) -> ThreadId {
        ThreadId(n)
    }

    #[test]
    fn register_reads_last_write() {
        let spec = RegisterSpec::new(R);
        assert!(spec.accepts(&[read_op(R, t(1), 0), write_op(R, t(1), 7), read_op(R, t(2), 7)]));
        assert!(!spec.accepts(&[write_op(R, t(1), 7), read_op(R, t(2), 8)]));
    }

    #[test]
    fn register_rejects_wrong_object() {
        let spec = RegisterSpec::new(R);
        assert!(!spec.accepts(&[write_op(ObjectId(3), t(1), 7)]));
    }

    #[test]
    fn counter_counts() {
        let spec = CounterSpec::new(R);
        assert!(spec.accepts(&[inc_op(R, t(1), 0), inc_op(R, t(2), 1), inc_op(R, t(1), 2)]));
        assert!(!spec.accepts(&[inc_op(R, t(1), 1)]));
    }

    #[test]
    fn concurrent_incs_linearize_in_either_order() {
        let a = inc_op(R, t(1), 0);
        let b = inc_op(R, t(2), 1);
        let h = History::from_actions(vec![
            a.invocation(),
            b.invocation(),
            b.response(),
            a.response(),
        ]);
        assert!(is_cal(&h, &SeqAsCa::new(CounterSpec::new(R))).unwrap());
    }

    #[test]
    fn duplicate_count_not_linearizable() {
        let a = inc_op(R, t(1), 0);
        let b = inc_op(R, t(2), 0);
        let h = History::from_actions(vec![
            a.invocation(),
            b.invocation(),
            a.response(),
            b.response(),
        ]);
        assert!(!is_cal(&h, &SeqAsCa::new(CounterSpec::new(R))).unwrap());
    }

    #[test]
    fn completions() {
        let reg = RegisterSpec::new(R).with_read_universe(vec![0, 5]);
        let read_inv = Invocation::new(t(1), R, READ, Value::Unit);
        assert_eq!(reg.completions_of(&read_inv).len(), 2);
        let write_inv = Invocation::new(t(1), R, WRITE, Value::Int(3));
        assert_eq!(reg.completions_of(&write_inv), vec![Value::Unit]);
        let ctr = CounterSpec::new(R);
        let inc_inv = Invocation::new(t(1), R, INC, Value::Unit);
        assert_eq!(ctr.completions_of(&inc_inv).len(), 17);
    }
}
