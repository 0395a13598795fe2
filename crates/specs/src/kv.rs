//! A key-value register map: the spec family for imported distributed-
//! system traces (etcd-style Jepsen registers, flat Put/Get logs).
//!
//! Every object id is one key holding an independent integer register,
//! initially 0. `write`/`put` stores, `read`/`get` loads. Because the keys
//! are independent, [`SeqSpec::restrict`] narrows the spec to a single
//! key, which is exactly what the per-object parallel decomposition needs.

use cal_core::spec::{Invocation, RegisterShape, SeqSpec, Shape};
use cal_core::{Method, ObjectId, Operation, ThreadId, Value};

use crate::vocab::{PUT, READ, WRITE};

/// `get` is the Put/Get-log spelling of `read`.
pub const GET: Method = Method("get");

/// A map of independent integer registers, one per object id, each
/// initially 0.
///
/// # Examples
///
/// ```
/// use cal_core::spec::SeqSpec;
/// use cal_core::{ObjectId, ThreadId};
/// use cal_specs::kv::{get_op, put_op, KvMapSpec};
/// let (x, y, t) = (ObjectId(0), ObjectId(1), ThreadId(0));
/// let spec = KvMapSpec::new();
/// assert!(spec.accepts(&[put_op(x, t, 5), get_op(y, t, 0), get_op(x, t, 5)]));
/// assert!(!spec.accepts(&[put_op(x, t, 5), get_op(y, t, 5)]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvMapSpec {
    /// When set, the spec is the restriction to this single key.
    only: Option<ObjectId>,
    /// Values proposed when completing a pending read.
    read_universe: Vec<i64>,
}

impl Default for KvMapSpec {
    fn default() -> Self {
        KvMapSpec::new()
    }
}

impl KvMapSpec {
    /// Creates the spec of the whole map (every key admissible).
    pub fn new() -> Self {
        KvMapSpec { only: None, read_universe: vec![0] }
    }

    /// Sets the value universe used to complete pending reads.
    pub fn with_read_universe(mut self, universe: Vec<i64>) -> Self {
        self.read_universe = universe;
        self
    }

    fn admits(&self, object: ObjectId) -> bool {
        self.only.is_none() || self.only == Some(object)
    }
}

/// Map state: the keys written so far with their values, sorted by key so
/// equal states hash equally. Absent keys read as 0.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct KvState(Vec<(ObjectId, i64)>);

impl KvState {
    fn get(&self, key: ObjectId) -> i64 {
        match self.0.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => self.0[i].1,
            Err(_) => 0,
        }
    }

    fn set(&self, key: ObjectId, value: i64) -> KvState {
        let mut entries = self.0.clone();
        match entries.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => entries[i].1 = value,
            Err(i) => entries.insert(i, (key, value)),
        }
        KvState(entries)
    }
}

impl SeqSpec for KvMapSpec {
    type State = KvState;

    fn initial(&self) -> KvState {
        KvState::default()
    }

    fn apply(&self, state: &KvState, op: &Operation) -> Option<KvState> {
        if !self.admits(op.object) {
            return None;
        }
        match op.method {
            WRITE | PUT => {
                if op.ret != Value::Unit {
                    return None;
                }
                Some(state.set(op.object, op.arg.as_int()?))
            }
            READ | GET => {
                (op.ret == Value::Int(state.get(op.object))).then(|| state.clone())
            }
            _ => None,
        }
    }

    fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
        match inv.method {
            WRITE | PUT => vec![Value::Unit],
            READ | GET => self.read_universe.iter().map(|&v| Value::Int(v)).collect(),
            _ => Vec::new(),
        }
    }

    fn restrict(&self, object: ObjectId) -> Option<Self> {
        self.admits(object).then(|| KvMapSpec { only: Some(object), ..self.clone() })
    }

    fn shape(&self) -> Shape {
        Shape::Register(RegisterShape {
            writes: &[WRITE, PUT],
            reads: &[READ, GET],
            object: self.only,
        })
    }
}

/// The operation `(t, put(v) ▷ ())` on `key`.
pub fn put_op(key: ObjectId, t: ThreadId, v: i64) -> Operation {
    Operation::new(t, key, WRITE, Value::Int(v), Value::Unit)
}

/// The operation `(t, get() ▷ v)` on `key`.
pub fn get_op(key: ObjectId, t: ThreadId, v: i64) -> Operation {
    Operation::new(t, key, READ, Value::Unit, Value::Int(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cal_core::check::{check_cal, is_cal};
    use cal_core::spec::SeqAsCa;
    use cal_core::History;

    const X: ObjectId = ObjectId(0);
    const Y: ObjectId = ObjectId(1);

    fn t(n: u32) -> ThreadId {
        ThreadId(n)
    }

    #[test]
    fn keys_are_independent() {
        let spec = KvMapSpec::new();
        assert!(spec.accepts(&[
            put_op(X, t(0), 1),
            put_op(Y, t(0), 2),
            get_op(X, t(1), 1),
            get_op(Y, t(1), 2),
        ]));
        assert!(!spec.accepts(&[put_op(X, t(0), 1), get_op(Y, t(1), 1)]));
    }

    #[test]
    fn unwritten_keys_read_zero() {
        let spec = KvMapSpec::new();
        assert!(spec.accepts(&[get_op(ObjectId(9), t(0), 0)]));
        assert!(!spec.accepts(&[get_op(ObjectId(9), t(0), 1)]));
    }

    #[test]
    fn overwrite_in_place() {
        let spec = KvMapSpec::new();
        assert!(spec.accepts(&[put_op(X, t(0), 1), put_op(X, t(0), 2), get_op(X, t(1), 2)]));
        assert!(!spec.accepts(&[put_op(X, t(0), 1), put_op(X, t(0), 2), get_op(X, t(1), 1)]));
    }

    #[test]
    fn put_and_get_spellings_accepted() {
        let spec = KvMapSpec::new();
        let stale = Operation::new(t(0), X, PUT, Value::Int(3), Value::Unit);
        let load = Operation::new(t(1), X, GET, Value::Unit, Value::Int(3));
        assert!(spec.accepts(&[stale, load]));
    }

    #[test]
    fn restrict_narrows_to_one_key() {
        let spec = KvMapSpec::new();
        let only_x = spec.restrict(X).unwrap();
        assert!(only_x.accepts(&[put_op(X, t(0), 1)]));
        assert!(!only_x.accepts(&[put_op(Y, t(0), 1)]));
        // restricting a restriction to another key is empty:
        assert!(only_x.restrict(Y).is_none());
        assert!(only_x.restrict(X).is_some());
    }

    #[test]
    fn concurrent_writes_linearize_in_either_order() {
        let a = put_op(X, t(0), 1);
        let b = put_op(X, t(1), 2);
        let r = get_op(X, t(2), 1);
        let h = History::from_actions(vec![
            a.invocation(),
            b.invocation(),
            a.response(),
            b.response(),
            r.invocation(),
            r.response(),
        ]);
        // read may see 1 only if b linearized before a — still admissible:
        assert!(check_cal(&h, &SeqAsCa::new(KvMapSpec::new())).unwrap().verdict.is_cal());
    }

    #[test]
    fn stale_read_rejected_everywhere() {
        let w1 = put_op(X, t(0), 1);
        let w2 = put_op(X, t(0), 2);
        let r = get_op(X, t(1), 1);
        let h = History::from_actions(vec![
            w1.invocation(),
            w1.response(),
            w2.invocation(),
            w2.response(),
            r.invocation(),
            r.response(),
        ]);
        assert!(!check_cal(&h, &SeqAsCa::new(KvMapSpec::new())).unwrap().verdict.is_cal());
    }

    #[test]
    fn pending_read_completes_from_universe() {
        let w = put_op(X, t(0), 5);
        let h = History::from_actions(vec![
            w.invocation(),
            w.response(),
            Operation::new(t(1), X, READ, Value::Unit, Value::Unit).invocation(),
        ]);
        // default universe only proposes 0, but dropping the pending read
        // is always admissible:
        assert!(is_cal(&h, &SeqAsCa::new(KvMapSpec::new())).unwrap());
        let with5 = KvMapSpec::new().with_read_universe(vec![0, 5]);
        assert!(is_cal(&h, &SeqAsCa::new(with5)).unwrap());
    }
}
