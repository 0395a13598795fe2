//! The elimination array specification and its view function `F_AR` (§5).
//!
//! The elimination array `AR` encapsulates exchangers `E[0], …, E[K-1]` and
//! exposes *the same specification surface as a single exchanger*. Its view
//! function is `F_AR(E[i].S) = (AR.S)`: an exchange done by any encapsulated
//! exchanger is made to look like an exchange on the array itself, hiding
//! the implementation from clients such as the elimination stack.

use cal_core::compose::TraceMap;
use cal_core::spec::{CaSpec, Invocation, Shape};
use cal_core::{CaElement, CaTrace, ObjectId, Operation, Value};

use crate::exchanger::{exchange_completions, is_exchange_shape};

/// The concurrency-aware specification of an elimination array: identical
/// element shapes to [`crate::exchanger::ExchangerSpec`], on the array
/// object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElimArraySpec {
    object: ObjectId,
}

impl ElimArraySpec {
    /// Creates the specification of elimination array `object`.
    pub fn new(object: ObjectId) -> Self {
        ElimArraySpec { object }
    }

    /// The specified object.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Returns `true` if `element` is a legal element of this array.
    pub fn is_legal_element(&self, element: &CaElement) -> bool {
        element.object() == self.object && is_exchange_shape(element)
    }
}

impl CaSpec for ElimArraySpec {
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

/// The view function `F_AR`: renames CA-elements of the encapsulated
/// exchangers to CA-elements of the array. Elements of other objects are
/// left to the total extension.
///
/// # Examples
///
/// ```
/// use cal_core::compose::TraceMap;
/// use cal_core::{CaTrace, ObjectId, ThreadId};
/// use cal_specs::elim_array::FArMap;
/// use cal_specs::exchanger::swap_element;
/// let ar = ObjectId(0);
/// let slots = vec![ObjectId(10), ObjectId(11)];
/// let f = FArMap::new(ar, slots.clone());
/// let t = CaTrace::from_elements(vec![swap_element(slots[1], ThreadId(1), 3, ThreadId(2), 4)]);
/// let mapped = f.apply(&t);
/// assert_eq!(mapped.elements()[0].object(), ar);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FArMap {
    array: ObjectId,
    exchangers: Vec<ObjectId>,
}

impl FArMap {
    /// Creates `F_AR` for `array` encapsulating the given exchanger
    /// objects.
    pub fn new(array: ObjectId, exchangers: Vec<ObjectId>) -> Self {
        FArMap { array, exchangers }
    }

    /// The array object.
    pub fn array(&self) -> ObjectId {
        self.array
    }

    /// The encapsulated exchanger objects.
    pub fn exchangers(&self) -> &[ObjectId] {
        &self.exchangers
    }
}

impl TraceMap for FArMap {
    fn map_element(&self, element: &CaElement) -> Option<CaTrace> {
        if !self.exchangers.contains(&element.object()) {
            return None;
        }
        let renamed: Vec<Operation> = element
            .ops()
            .iter()
            .map(|op| Operation::new(op.thread, self.array, op.method, op.arg, op.ret))
            .collect();
        let renamed =
            CaElement::new(self.array, renamed).expect("renaming preserves element validity");
        Some(CaTrace::from_elements(vec![renamed]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchanger::{fail_element, swap_element};
    use cal_core::spec::CaSpec;
    use cal_core::ThreadId;

    const AR: ObjectId = ObjectId(0);
    const E0: ObjectId = ObjectId(10);
    const E1: ObjectId = ObjectId(11);

    fn far() -> FArMap {
        FArMap::new(AR, vec![E0, E1])
    }

    #[test]
    fn far_renames_any_slot_to_array() {
        let t = CaTrace::from_elements(vec![
            swap_element(E0, ThreadId(1), 3, ThreadId(2), 4),
            fail_element(E1, ThreadId(3), 7),
        ]);
        let mapped = far().apply(&t);
        assert_eq!(mapped.len(), 2);
        assert!(mapped.elements().iter().all(|e| e.object() == AR));
    }

    #[test]
    fn far_leaves_foreign_objects_alone() {
        let other = fail_element(ObjectId(99), ThreadId(1), 1);
        let t = CaTrace::from_elements(vec![other.clone()]);
        let mapped = far().apply(&t);
        assert_eq!(mapped.elements()[0], other);
    }

    #[test]
    fn mapped_trace_satisfies_array_spec() {
        // The paper's compositionality argument: any trace of legal
        // exchanger elements maps to a trace of legal array elements.
        let t = CaTrace::from_elements(vec![
            swap_element(E0, ThreadId(1), 3, ThreadId(2), 4),
            fail_element(E1, ThreadId(3), 7),
            swap_element(E1, ThreadId(2), 5, ThreadId(3), 6),
        ]);
        let mapped = far().apply(&t);
        assert!(ElimArraySpec::new(AR).accepts(&mapped));
    }

    #[test]
    fn far_is_idempotent() {
        let t = CaTrace::from_elements(vec![swap_element(E0, ThreadId(1), 3, ThreadId(2), 4)]);
        let once = far().apply(&t);
        assert_eq!(far().apply(&once), once);
    }

    #[test]
    fn array_spec_judges_shapes_like_exchanger() {
        let s = ElimArraySpec::new(AR);
        assert!(s.is_legal_element(&swap_element(AR, ThreadId(1), 3, ThreadId(2), 4)));
        assert!(s.is_legal_element(&fail_element(AR, ThreadId(1), 9)));
        assert!(!s.is_legal_element(&fail_element(E0, ThreadId(1), 9)));
        assert_eq!(s.object(), AR);
        assert_eq!(s.max_element_size(), 2);
    }
}
