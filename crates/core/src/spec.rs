//! Specification traits: concurrency-aware and sequential object
//! specifications.
//!
//! The paper specifies an object by a set of CA-traces (§4). We represent
//! such a set operationally, as a stateful acceptor: a [`CaSpec`] has an
//! initial state and a partial transition function over CA-elements; the
//! specified trace set is every sequence of elements the acceptor can
//! consume. This matches the paper's examples, which are all prefix-closed.
//!
//! Classical linearizability uses *sequential* specifications; those are
//! [`SeqSpec`]s, acceptors over single operations. [`SeqAsCa`] embeds a
//! sequential specification into the CA world as the singleton-element
//! fragment, recovering Herlihy–Wing linearizability as the special case the
//! paper describes.

use std::fmt::Debug;
use std::hash::Hash;

use crate::ids::{Method, ObjectId, ThreadId, Value};
use crate::op::Operation;
use crate::trace::{CaElement, CaTrace};

/// A not-yet-responded invocation, as presented to a specification when the
/// checker needs candidate return values to complete it (Def. 2's
/// completions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Invocation {
    /// Invoking thread.
    pub thread: ThreadId,
    /// Target object.
    pub object: ObjectId,
    /// Invoked method.
    pub method: Method,
    /// Invocation argument.
    pub arg: Value,
}

impl Invocation {
    /// Creates an invocation descriptor.
    pub fn new(thread: ThreadId, object: ObjectId, method: Method, arg: Value) -> Self {
        Invocation { thread, object, method, arg }
    }

    /// The operation obtained by completing this invocation with `ret`.
    pub fn complete_with(&self, ret: Value) -> Operation {
        Operation::new(self.thread, self.object, self.method, self.arg, ret)
    }
}

/// A concurrency-aware specification: a prefix-closed set of CA-traces,
/// represented as a stateful acceptor (§4 of the paper).
///
/// A spec and its states are `Sync` (and states `Send`) because every
/// front end may run the search on worker threads
/// ([`crate::check::CheckOptions::threads`]): the workers share the spec
/// and one memo table of its states.
pub trait CaSpec: Sync {
    /// Acceptor state. For a stack this is the abstract stack contents; for
    /// the exchanger it is `()` (every element is judged locally).
    type State: Clone + Eq + Hash + Debug + Send + Sync;

    /// The initial acceptor state.
    fn initial(&self) -> Self::State;

    /// Attempts to consume one CA-element, returning the successor state if
    /// the element is allowed in `state`.
    fn step(&self, state: &Self::State, element: &CaElement) -> Option<Self::State>;

    /// Upper bound on the number of operations in any CA-element of the
    /// specification. The CAL checker enumerates candidate elements up to
    /// this size; `1` recovers classical linearizability.
    fn max_element_size(&self) -> usize {
        1
    }

    /// Candidate return values for completing a pending invocation
    /// (Def. 2's completions). Return an empty vector to force dropping the
    /// invocation.
    fn completions_of(&self, inv: &Invocation) -> Vec<Value>;

    /// Candidate return values for completing a pending invocation that is
    /// being placed in a CA-element together with `peers` (the invocation
    /// views of the element's other members).
    ///
    /// The default ignores the peers. Specifications whose successful
    /// return values are determined by simultaneous operations — e.g. the
    /// exchanger, where a successful `exchange(v)` returns its partner's
    /// argument — should override this to propose peer-derived values,
    /// otherwise the CAL checker cannot complete pending invocations into
    /// multi-operation elements.
    fn completions_among(&self, inv: &Invocation, peers: &[Invocation]) -> Vec<Value> {
        let _ = peers;
        self.completions_of(inv)
    }

    /// Whether `next` may join a candidate CA-element that already holds
    /// `members`, in `state`. The search grows an element span by span in
    /// the history's invocation order, so `members` all come before
    /// `next`; `false` prunes `next` *and every element grown from
    /// `members` and `next` by later spans*, so it must be monotone: a
    /// refusal must stay right however many later spans would join.
    ///
    /// The default admits everything and leaves judging the element to
    /// [`CaSpec::step`]; a spec overrides this to refuse early what `step`
    /// would reject at every size.
    fn may_join(
        &self,
        _state: &Self::State,
        _next: &Invocation,
        _members: impl Iterator<Item = Invocation>,
    ) -> bool {
        true
    }

    /// Returns `true` if the full trace is accepted from the initial state.
    fn accepts(&self, trace: &CaTrace) -> bool {
        let mut state = self.initial();
        for e in trace.elements() {
            match self.step(&state, e) {
                Some(next) => state = next,
                None => return false,
            }
        }
        true
    }

    /// The specification restricted to a single object, when this
    /// specification constrains its objects independently (CAL locality).
    ///
    /// Contract: if `restrict(o)` returns `Some` for **every** object `o`
    /// occurring in a trace `T`, then `self` accepts `T` iff each
    /// `restrict(o)` accepts the projection `T|o`. The CAL checker uses
    /// this to check per-object subhistories independently, at every
    /// thread count; returning `None` for any object forces the
    /// whole-history search, which is always sound.
    ///
    /// A specification that restricts at all answers `Some` for exactly
    /// the objects it admits an element on: **`None` after `Some` for
    /// another object means the specification admits no element on it** —
    /// [`CaSpec::step`] is `None` for every element there, in every state —
    /// and `restrict(o)` itself admits elements on `o` alone. The batch
    /// check ([`crate::check::check_cal_with`]) asks every object before
    /// it builds anything, and searches the whole history when one
    /// answers `None`; the streaming checker ([`crate::stream`]) cannot,
    /// once it has retired a prefix object by object, and instead treats
    /// the object as this sentence reads: explainable iff none of its
    /// operations completes. Every specification in this repository is of
    /// that kind, held to it by `tests/front_door.rs`. A specification
    /// that couples its objects must return `None` for all of them.
    ///
    /// The default returns `None` (no decomposition).
    fn restrict(&self, object: ObjectId) -> Option<Self>
    where
        Self: Sized,
    {
        let _ = object;
        None
    }

    /// What the specification is, for choosing the procedure that decides
    /// a check against it: the CA search, or a decision procedure for the
    /// shape ([`Shape`]). A shape is a promise about every `step`, so a
    /// specification answers anything but [`Shape::Search`] only when
    /// its transition function is exactly the one the shape describes.
    ///
    /// The default is [`Shape::Search`], which is always sound.
    fn shape(&self) -> Shape {
        Shape::Search
    }
}

/// A sequential specification: a prefix-closed set of sequential histories,
/// represented as a stateful acceptor over single operations.
///
/// `Sync`, with `Send + Sync` states, for the reason [`CaSpec`] is: every
/// front end may run the search over it on worker threads.
pub trait SeqSpec: Sync {
    /// Acceptor state (e.g. abstract stack contents).
    type State: Clone + Eq + Hash + Debug + Send + Sync;

    /// The initial acceptor state.
    fn initial(&self) -> Self::State;

    /// Attempts to apply one operation, returning the successor state if
    /// the operation is legal in `state`.
    fn apply(&self, state: &Self::State, op: &Operation) -> Option<Self::State>;

    /// Candidate return values for completing a pending invocation.
    fn completions_of(&self, inv: &Invocation) -> Vec<Value>;

    /// Returns `true` if the sequence of operations is accepted from the
    /// initial state.
    fn accepts(&self, ops: &[Operation]) -> bool {
        let mut state = self.initial();
        for op in ops {
            match self.apply(&state, op) {
                Some(next) => state = next,
                None => return false,
            }
        }
        true
    }

    /// The specification restricted to a single object; same contract as
    /// [`CaSpec::restrict`], `None` after `Some` included (with
    /// [`SeqSpec::apply`] for `step`). The default returns `None`.
    fn restrict(&self, object: ObjectId) -> Option<Self>
    where
        Self: Sized,
    {
        let _ = object;
        None
    }

    /// What the specification is; same contract as [`CaSpec::shape`]
    /// (with [`SeqSpec::apply`] for `step`), and forwarded by
    /// [`SeqAsCa`]. The default is [`Shape::Search`].
    fn shape(&self) -> Shape {
        Shape::Search
    }
}

/// What a specification is, as far as choosing a decision procedure goes
/// ([`CaSpec::shape`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Decided by the CA search alone.
    Search,
    /// A register, or a map of independent registers, each holding 0
    /// before its first write.
    Register(RegisterShape),
    /// A stateless pair specification, decided by a matching
    /// ([`crate::matching`]): elements hold one or two operations
    /// ([`CaSpec::max_element_size`] is at most 2), and `step` ignores
    /// its state, so a trace is accepted iff each of its elements is.
    /// `step` judges an element by its object and by its members'
    /// methods, arguments and returns, not by which threads they are on
    /// (they are on distinct ones), and [`CaSpec::completions_among`]
    /// judges an invocation the same way.
    Pairs,
}

/// `S` with every method forwarded but [`CaSpec::shape`], which is left
/// [`Shape::Search`]: where `S` is decided by a procedure for its shape,
/// this one is searched, with the same states, verdicts and end states.
/// It holds a decision procedure to the search in tests and benchmarks.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct Searched<S>(pub S);

impl<S: CaSpec> CaSpec for Searched<S> {
    type State = S::State;

    fn initial(&self) -> S::State {
        self.0.initial()
    }

    fn step(&self, state: &S::State, element: &CaElement) -> Option<S::State> {
        self.0.step(state, element)
    }

    fn max_element_size(&self) -> usize {
        self.0.max_element_size()
    }

    fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
        self.0.completions_of(inv)
    }

    fn completions_among(&self, inv: &Invocation, peers: &[Invocation]) -> Vec<Value> {
        self.0.completions_among(inv, peers)
    }

    fn may_join(&self, state: &S::State, next: &Invocation, members: impl Iterator<Item = Invocation>) -> bool {
        self.0.may_join(state, next, members)
    }

    fn restrict(&self, object: ObjectId) -> Option<Self> {
        self.0.restrict(object).map(Searched)
    }
}

/// A register-shaped specification: each admitted object holds one
/// integer, 0 before any write; a write method stores its `Int`
/// argument and returns `()`, a read method returns the value held,
/// whatever its argument, and nothing else is admitted. Objects are
/// independent of each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterShape {
    /// The methods that store their argument.
    pub writes: &'static [Method],
    /// The methods that return the value held.
    pub reads: &'static [Method],
    /// The one object admitted, or `None` when every object is.
    pub object: Option<ObjectId>,
}

impl RegisterShape {
    /// The value every admitted object holds before its first write.
    pub const INITIAL: i64 = 0;

    /// Whether the specification admits operations on `object`.
    pub fn admits(&self, object: ObjectId) -> bool {
        self.object.is_none_or(|o| o == object)
    }

    /// The value `op`'s object holds once `op` took effect, for an
    /// operation the specification accepts: a write's argument, a read's
    /// return. `None` for an operation that is neither.
    pub fn holds_after(&self, op: &Operation) -> Option<i64> {
        if self.writes.contains(&op.method) {
            op.arg.as_int()
        } else if self.reads.contains(&op.method) {
            op.ret.as_int()
        } else {
            None
        }
    }
}

/// Embeds a sequential specification as a CA specification whose elements
/// are all singletons.
///
/// CAL with a `SeqAsCa` specification coincides with classical
/// linearizability, which is how the paper relates the two notions — and
/// how this crate checks linearizability: there is no second search for
/// it, only [`crate::check`] over this adapter.
///
/// # Examples
///
/// ```
/// use cal_core::spec::{CaSpec, SeqAsCa, SeqSpec};
/// # use cal_core::spec::Invocation;
/// # use cal_core::{Operation, Value};
/// #[derive(Debug)]
/// struct AnyOp;
/// impl SeqSpec for AnyOp {
///     type State = ();
///     fn initial(&self) {}
///     fn apply(&self, _: &(), _: &Operation) -> Option<()> { Some(()) }
///     fn completions_of(&self, _: &Invocation) -> Vec<Value> { vec![] }
/// }
/// let ca = SeqAsCa::new(AnyOp);
/// assert_eq!(ca.max_element_size(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeqAsCa<S> {
    inner: S,
}

impl<S> SeqAsCa<S> {
    /// Wraps a sequential specification.
    pub fn new(inner: S) -> Self {
        SeqAsCa { inner }
    }

    /// The wrapped sequential specification.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the sequential specification.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: SeqSpec> CaSpec for SeqAsCa<S> {
    type State = S::State;

    fn initial(&self) -> Self::State {
        self.inner.initial()
    }

    fn step(&self, state: &Self::State, element: &CaElement) -> Option<Self::State> {
        if element.len() != 1 {
            return None;
        }
        self.inner.apply(state, &element.ops()[0])
    }

    fn max_element_size(&self) -> usize {
        1
    }

    fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
        self.inner.completions_of(inv)
    }

    fn restrict(&self, object: ObjectId) -> Option<Self> {
        self.inner.restrict(object).map(SeqAsCa::new)
    }

    fn shape(&self) -> Shape {
        self.inner.shape()
    }
}

/// A product specification constraining each object independently: object
/// `o`'s elements are judged by `o`'s part alone, so the composed trace set
/// is `{T | ∀o. part_o accepts T|o}`.
///
/// This is exactly the shape [`CaSpec::restrict`]'s locality contract
/// describes, so the CAL checker splits a `PerObject` check into
/// independent per-object subchecks. Elements on objects without a part
/// are rejected.
///
/// # Examples
///
/// ```
/// use cal_core::spec::{CaSpec, PerObject, SeqAsCa};
/// # use cal_core::spec::{Invocation, SeqSpec};
/// # use cal_core::{ObjectId, Operation, Value};
/// #[derive(Debug, Clone)]
/// struct AnyOp;
/// impl SeqSpec for AnyOp {
///     type State = ();
///     fn initial(&self) {}
///     fn apply(&self, _: &(), _: &Operation) -> Option<()> { Some(()) }
///     fn completions_of(&self, _: &Invocation) -> Vec<Value> { vec![] }
///     fn restrict(&self, _: ObjectId) -> Option<Self> { Some(AnyOp) }
/// }
/// let spec = PerObject::new(vec![
///     (ObjectId(0), SeqAsCa::new(AnyOp)),
///     (ObjectId(1), SeqAsCa::new(AnyOp)),
/// ]);
/// assert!(spec.restrict(ObjectId(1)).is_some());
/// assert!(spec.restrict(ObjectId(9)).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct PerObject<S> {
    parts: Vec<(ObjectId, S)>,
}

impl<S> PerObject<S> {
    /// Composes per-object parts. Later duplicates of an object id are
    /// ignored (the first part wins).
    pub fn new(parts: Vec<(ObjectId, S)>) -> Self {
        PerObject { parts }
    }

    /// The per-object parts in composition order.
    pub fn parts(&self) -> &[(ObjectId, S)] {
        &self.parts
    }

    fn position(&self, object: ObjectId) -> Option<usize> {
        self.parts.iter().position(|(o, _)| *o == object)
    }
}

impl<S: CaSpec + Clone> CaSpec for PerObject<S> {
    type State = Vec<S::State>;

    fn initial(&self) -> Self::State {
        self.parts.iter().map(|(_, s)| s.initial()).collect()
    }

    fn step(&self, state: &Self::State, element: &CaElement) -> Option<Self::State> {
        let k = self.position(element.object())?;
        let next = self.parts[k].1.step(&state[k], element)?;
        let mut out = state.clone();
        out[k] = next;
        Some(out)
    }

    fn max_element_size(&self) -> usize {
        self.parts.iter().map(|(_, s)| s.max_element_size()).max().unwrap_or(1)
    }

    fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
        match self.position(inv.object) {
            Some(k) => self.parts[k].1.completions_of(inv),
            None => vec![],
        }
    }

    fn completions_among(&self, inv: &Invocation, peers: &[Invocation]) -> Vec<Value> {
        match self.position(inv.object) {
            Some(k) => self.parts[k].1.completions_among(inv, peers),
            None => vec![],
        }
    }

    fn restrict(&self, object: ObjectId) -> Option<Self> {
        let k = self.position(object)?;
        Some(PerObject { parts: vec![self.parts[k].clone()] })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ObjectId;

    /// A toy sequential counter: `inc() ▷ n` must return the number of
    /// previous increments.
    #[derive(Debug, Clone, Copy)]
    struct Counter(ObjectId);

    impl SeqSpec for Counter {
        type State = i64;

        fn initial(&self) -> i64 {
            0
        }

        fn apply(&self, state: &i64, op: &Operation) -> Option<i64> {
            if op.object != self.0 || op.method != Method("inc") {
                return None;
            }
            (op.ret == Value::Int(*state)).then_some(state + 1)
        }

        fn completions_of(&self, _inv: &Invocation) -> Vec<Value> {
            (0..4).map(Value::Int).collect()
        }
    }

    fn inc(t: u32, ret: i64) -> Operation {
        Operation::new(ThreadId(t), ObjectId(0), Method("inc"), Value::Unit, Value::Int(ret))
    }

    #[test]
    fn seq_accepts_folds_apply() {
        let c = Counter(ObjectId(0));
        assert!(c.accepts(&[inc(1, 0), inc(2, 1), inc(1, 2)]));
        assert!(!c.accepts(&[inc(1, 0), inc(2, 0)]));
        assert!(c.accepts(&[]));
    }

    #[test]
    fn seq_as_ca_accepts_singleton_traces() {
        let ca = SeqAsCa::new(Counter(ObjectId(0)));
        let t = CaTrace::from_elements(vec![
            CaElement::singleton(inc(1, 0)),
            CaElement::singleton(inc(2, 1)),
        ]);
        assert!(ca.accepts(&t));
    }

    #[test]
    fn seq_as_ca_rejects_wide_elements() {
        let ca = SeqAsCa::new(Counter(ObjectId(0)));
        let wide = CaElement::pair(inc(1, 0), inc(2, 1)).unwrap();
        let t = CaTrace::from_elements(vec![wide]);
        assert!(!ca.accepts(&t));
    }

    #[test]
    fn seq_as_ca_rejects_illegal_singleton() {
        let ca = SeqAsCa::new(Counter(ObjectId(0)));
        let t = CaTrace::from_elements(vec![CaElement::singleton(inc(1, 5))]);
        assert!(!ca.accepts(&t));
    }

    #[test]
    fn invocation_complete_with() {
        let inv = Invocation::new(ThreadId(1), ObjectId(0), Method("inc"), Value::Unit);
        let op = inv.complete_with(Value::Int(3));
        assert_eq!(op.ret, Value::Int(3));
        assert_eq!(op.thread, ThreadId(1));
    }

    #[test]
    fn seq_as_ca_forwards_completions() {
        let ca = SeqAsCa::new(Counter(ObjectId(0)));
        let inv = Invocation::new(ThreadId(1), ObjectId(0), Method("inc"), Value::Unit);
        assert_eq!(ca.completions_of(&inv).len(), 4);
        assert_eq!(ca.inner().completions_of(&inv).len(), 4);
    }
}
