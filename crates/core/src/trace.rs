//! Concurrency-aware traces (Def. 4 of the paper).
//!
//! A [`CaTrace`] is a sequence of [`CaElement`]s; each CA-element is a pair
//! `o.S` of an object `o` and a non-empty set `S` of operations of `o` that
//! "seem to take effect simultaneously".

use std::error::Error;
use std::fmt;

use crate::ids::{ObjectId, ThreadId};
use crate::op::Operation;

/// Why a set of operations does not form a CA-element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaElementError {
    /// The operation set is empty; Def. 4 requires non-emptiness.
    Empty,
    /// An operation's object differs from the element's object.
    ForeignOperation {
        /// The element's object.
        expected: ObjectId,
        /// The offending operation's object.
        found: ObjectId,
    },
    /// Two operations of the same thread appear in the element; a thread is
    /// sequential, so its operations can never be simultaneous.
    DuplicateThread(ThreadId),
}

impl fmt::Display for CaElementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaElementError::Empty => f.write_str("CA-element must contain at least one operation"),
            CaElementError::ForeignOperation { expected, found } => {
                write!(f, "operation on {found} cannot join a CA-element of {expected}")
            }
            CaElementError::DuplicateThread(t) => {
                write!(f, "thread {t} appears twice in one CA-element")
            }
        }
    }
}

impl Error for CaElementError {}

/// A CA-element `o.S`: a non-empty set of operations on one object that
/// appear to take effect simultaneously (Def. 4).
///
/// Operations are stored sorted so equality is set equality. Since every
/// thread is sequential, an element never contains two operations of the
/// same thread, so the set is duplicate-free.
///
/// # Examples
///
/// ```
/// use cal_core::{CaElement, Method, ObjectId, Operation, ThreadId, Value};
/// let e = ObjectId(0);
/// let ex = Method("exchange");
/// let swap = CaElement::new(e, vec![
///     Operation::new(ThreadId(1), e, ex, Value::Int(3), Value::Pair(true, 4)),
///     Operation::new(ThreadId(2), e, ex, Value::Int(4), Value::Pair(true, 3)),
/// ]).unwrap();
/// assert_eq!(swap.len(), 2);
/// assert_eq!(swap.object(), e);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CaElement {
    object: ObjectId,
    /// Sorted, duplicate-thread-free.
    ops: Vec<Operation>,
}

impl CaElement {
    /// Creates a CA-element of `object` from the given operations.
    ///
    /// # Errors
    ///
    /// Returns an error if `ops` is empty, contains an operation on a
    /// different object, or contains two operations of the same thread.
    pub fn new(object: ObjectId, mut ops: Vec<Operation>) -> Result<Self, CaElementError> {
        if ops.is_empty() {
            return Err(CaElementError::Empty);
        }
        for op in &ops {
            if op.object != object {
                return Err(CaElementError::ForeignOperation {
                    expected: object,
                    found: op.object,
                });
            }
        }
        ops.sort_unstable();
        for w in ops.windows(2) {
            if w[0].thread == w[1].thread {
                return Err(CaElementError::DuplicateThread(w[0].thread));
            }
        }
        Ok(CaElement { object, ops })
    }

    /// Creates a singleton CA-element holding exactly `op`.
    pub fn singleton(op: Operation) -> Self {
        CaElement { object: op.object, ops: vec![op] }
    }

    /// Creates a two-operation CA-element.
    ///
    /// # Errors
    ///
    /// Returns an error if the operations act on different objects or share
    /// a thread.
    pub fn pair(a: Operation, b: Operation) -> Result<Self, CaElementError> {
        CaElement::new(a.object, vec![a, b])
    }

    /// The object `o` of the element.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// The operations of the element, sorted.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Takes the element apart into its operations, sorted — and their
    /// buffer, which a caller trying one candidate element after another
    /// hands back to [`CaElement::new`] instead of allocating the next.
    pub fn into_ops(self) -> Vec<Operation> {
        self.ops
    }

    /// Number of operations in the element.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `false`; kept for API completeness — a CA-element is never
    /// empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns `true` if the element contains an operation of thread `t`.
    pub fn mentions_thread(&self, t: ThreadId) -> bool {
        self.ops.iter().any(|op| op.thread == t)
    }

    /// Returns `true` if the element equals the given operation set
    /// (compared as sets).
    pub fn matches_ops(&self, mut ops: Vec<Operation>) -> bool {
        ops.sort_unstable();
        self.ops == ops
    }
}

impl fmt::Display for CaElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{{", self.object)?;
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{op}")?;
        }
        f.write_str("}")
    }
}

/// A concurrency-aware trace: a sequence of CA-elements (Def. 4).
///
/// # Examples
///
/// ```
/// use cal_core::{CaElement, CaTrace, Method, ObjectId, Operation, ThreadId, Value};
/// let e = ObjectId(0);
/// let ex = Method("exchange");
/// let fail = Operation::new(ThreadId(3), e, ex, Value::Int(7), Value::Pair(false, 7));
/// let trace: CaTrace = [CaElement::singleton(fail)].into_iter().collect();
/// assert_eq!(trace.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct CaTrace {
    elements: Vec<CaElement>,
}

impl CaTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        CaTrace { elements: Vec::new() }
    }

    /// Creates a trace from a sequence of elements.
    pub fn from_elements(elements: Vec<CaElement>) -> Self {
        CaTrace { elements }
    }

    /// Appends an element.
    pub fn push(&mut self, element: CaElement) {
        self.elements.push(element);
    }

    /// The elements in order.
    pub fn elements(&self) -> &[CaElement] {
        &self.elements
    }

    /// Number of elements (`|T|`).
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Returns `true` if the trace has no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The projection `T|t`: the subsequence of CA-elements mentioning
    /// thread `t`. Note (per the paper) this keeps *whole elements*, so it
    /// returns not only `t`'s operations but also the operations concurrent
    /// with them.
    pub fn project_thread(&self, t: ThreadId) -> CaTrace {
        CaTrace {
            elements: self
                .elements
                .iter()
                .filter(|e| e.mentions_thread(t))
                .cloned()
                .collect(),
        }
    }

    /// The projection `T|o`: the subsequence of CA-elements of object `o`.
    pub fn project_object(&self, o: ObjectId) -> CaTrace {
        CaTrace {
            elements: self.elements.iter().filter(|e| e.object() == o).cloned().collect(),
        }
    }

    /// Total number of operations across all elements.
    pub fn total_ops(&self) -> usize {
        self.elements.iter().map(CaElement::len).sum()
    }

    /// All operations in element order (then operation order within each
    /// element).
    pub fn all_ops(&self) -> Vec<Operation> {
        self.elements.iter().flat_map(|e| e.ops().iter().copied()).collect()
    }

    /// Concatenates another trace onto this one.
    pub fn concat(mut self, other: CaTrace) -> CaTrace {
        self.elements.extend(other.elements);
        self
    }
}

impl FromIterator<CaElement> for CaTrace {
    fn from_iter<I: IntoIterator<Item = CaElement>>(iter: I) -> Self {
        CaTrace { elements: iter.into_iter().collect() }
    }
}

impl Extend<CaElement> for CaTrace {
    fn extend<I: IntoIterator<Item = CaElement>>(&mut self, iter: I) {
        self.elements.extend(iter);
    }
}

impl fmt::Display for CaTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.elements.iter().enumerate() {
            if i > 0 {
                f.write_str(" · ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Method, Value};

    const E: ObjectId = ObjectId(0);
    const EX: Method = Method("exchange");

    fn op(t: u32, arg: i64, ok: bool, ret: i64) -> Operation {
        Operation::new(ThreadId(t), E, EX, Value::Int(arg), Value::Pair(ok, ret))
    }

    #[test]
    fn empty_element_rejected() {
        assert_eq!(CaElement::new(E, vec![]), Err(CaElementError::Empty));
    }

    #[test]
    fn foreign_operation_rejected() {
        let foreign = Operation::new(ThreadId(1), ObjectId(9), EX, Value::Unit, Value::Unit);
        assert_eq!(
            CaElement::new(E, vec![foreign]),
            Err(CaElementError::ForeignOperation { expected: E, found: ObjectId(9) })
        );
    }

    #[test]
    fn duplicate_thread_rejected() {
        let r = CaElement::new(E, vec![op(1, 3, true, 4), op(1, 4, true, 3)]);
        assert_eq!(r, Err(CaElementError::DuplicateThread(ThreadId(1))));
    }

    #[test]
    fn element_is_a_set() {
        let a = CaElement::new(E, vec![op(1, 3, true, 4), op(2, 4, true, 3)]).unwrap();
        let b = CaElement::new(E, vec![op(2, 4, true, 3), op(1, 3, true, 4)]).unwrap();
        assert_eq!(a, b);
        assert!(a.matches_ops(vec![op(2, 4, true, 3), op(1, 3, true, 4)]));
        assert!(!a.matches_ops(vec![op(1, 3, true, 4)]));
    }

    #[test]
    fn singleton_and_pair_constructors() {
        let s = CaElement::singleton(op(1, 7, false, 7));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        let p = CaElement::pair(op(1, 3, true, 4), op(2, 4, true, 3)).unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.mentions_thread(ThreadId(1)));
        assert!(p.mentions_thread(ThreadId(2)));
        assert!(!p.mentions_thread(ThreadId(3)));
    }

    #[test]
    fn trace_projections() {
        let swap = CaElement::pair(op(1, 3, true, 4), op(2, 4, true, 3)).unwrap();
        let fail = CaElement::singleton(op(3, 7, false, 7));
        let t = CaTrace::from_elements(vec![swap.clone(), fail.clone()]);
        // T|t1 keeps the whole swap element including t2's operation.
        let t1 = t.project_thread(ThreadId(1));
        assert_eq!(t1.len(), 1);
        assert_eq!(t1.elements()[0], swap);
        let t3 = t.project_thread(ThreadId(3));
        assert_eq!(t3.elements(), std::slice::from_ref(&fail));
        assert_eq!(t.project_object(E).len(), 2);
        assert!(t.project_object(ObjectId(5)).is_empty());
    }

    #[test]
    fn trace_ops_and_concat() {
        let swap = CaElement::pair(op(1, 3, true, 4), op(2, 4, true, 3)).unwrap();
        let fail = CaElement::singleton(op(3, 7, false, 7));
        let a = CaTrace::from_elements(vec![swap]);
        let b = CaTrace::from_elements(vec![fail]);
        let c = a.concat(b);
        assert_eq!(c.len(), 2);
        assert_eq!(c.total_ops(), 3);
        assert_eq!(c.all_ops().len(), 3);
    }

    #[test]
    fn display() {
        let fail = CaElement::singleton(op(3, 7, false, 7));
        let t = CaTrace::from_elements(vec![fail.clone(), fail]);
        let s = t.to_string();
        assert!(s.contains(" · "));
        assert!(s.starts_with("o0.{"));
    }

    #[test]
    fn error_display() {
        assert!(CaElementError::Empty.to_string().contains("at least one"));
        assert!(CaElementError::DuplicateThread(ThreadId(2)).to_string().contains("t2"));
    }
}
