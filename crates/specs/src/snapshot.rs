//! Snapshot objects from the paper's related work (§6): the
//! Borowsky–Gafni *immediate atomic snapshot*, Neiger's motivating example
//! for set-linearizability (which CAL subsumes), and the *write-snapshot*
//! task of Castañeda et al., which separates interval-linearizability from
//! CAL.
//!
//! Values are small integers `0..63`; a *view* (set of observed values) is
//! encoded as an `i64` bitmask.

use cal_core::interval::IntervalSpec;
use cal_core::spec::{CaSpec, Invocation};
use cal_core::{CaElement, ObjectId, Operation, ThreadId, Value};

/// The method name of snapshot operations.
pub const IM_SNAP: cal_core::Method = cal_core::Method("im_snap");
/// The method name of write-snapshot operations.
pub const WRITE_SNAPSHOT: cal_core::Method = cal_core::Method("write_snapshot");

/// Builds the view bitmask of a set of values.
///
/// # Panics
///
/// Panics if a value is outside `0..63`.
pub fn view(values: &[i64]) -> i64 {
    values.iter().fold(0, |m, &v| {
        assert!((0..63).contains(&v), "snapshot values must be in 0..63");
        m | (1 << v)
    })
}

/// The immediate-snapshot operation `(t, im_snap(v) ▷ view)`.
pub fn im_snap_op(object: ObjectId, t: ThreadId, v: i64, seen: i64) -> Operation {
    Operation::new(t, object, IM_SNAP, Value::Int(v), Value::Int(seen))
}

/// The write-snapshot operation `(t, write_snapshot(v) ▷ view)`.
pub fn write_snapshot_op(object: ObjectId, t: ThreadId, v: i64, seen: i64) -> Operation {
    Operation::new(t, object, WRITE_SNAPSHOT, Value::Int(v), Value::Int(seen))
}

/// The Borowsky–Gafni immediate atomic snapshot, as a CA specification:
/// executions proceed in *blocks* (CA-elements); every operation in a
/// block writes its value and returns the view containing all values of
/// this and all earlier blocks. This is Neiger's canonical
/// set-linearizable object — expressible in CAL, inexpressible
/// sequentially (a lone op in a bigger "simultaneous" group would see
/// values not yet written).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImmediateSnapshotSpec {
    object: ObjectId,
    max_block: usize,
}

impl ImmediateSnapshotSpec {
    /// Creates the specification of the immediate snapshot `object`,
    /// admitting blocks of at most `max_block` simultaneous operations.
    pub fn new(object: ObjectId, max_block: usize) -> Self {
        ImmediateSnapshotSpec { object, max_block: max_block.max(1) }
    }

    /// The specified object.
    pub fn object(&self) -> ObjectId {
        self.object
    }
}

impl CaSpec for ImmediateSnapshotSpec {
    /// The bitmask of values written so far.
    type State = i64;

    fn initial(&self) -> i64 {
        0
    }

    fn step(&self, state: &i64, element: &CaElement) -> Option<i64> {
        if element.object() != self.object {
            return None;
        }
        let mut mask = *state;
        for op in element.ops() {
            if op.method != IM_SNAP {
                return None;
            }
            let v = op.arg.as_int()?;
            if !(0..63).contains(&v) {
                return None;
            }
            mask |= 1 << v;
        }
        // Immediacy: every member sees exactly the block-closing view.
        for op in element.ops() {
            if op.ret != Value::Int(mask) {
                return None;
            }
        }
        Some(mask)
    }

    fn max_element_size(&self) -> usize {
        self.max_block
    }

    fn completions_of(&self, _inv: &Invocation) -> Vec<Value> {
        Vec::new()
    }

    fn restrict(&self, object: ObjectId) -> Option<Self> {
        (object == self.object).then_some(*self)
    }
}

/// The write-snapshot task of Castañeda et al., as an interval
/// specification: an operation's value becomes visible when its interval
/// opens, and its returned view is the set of values visible when it
/// closes. Because an operation may need to be concurrent with two
/// operations that are *ordered* between themselves, single-point (CAL)
/// assignments cannot express it — see the separation tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSnapshotSpec {
    object: ObjectId,
    max_active: usize,
}

impl WriteSnapshotSpec {
    /// Creates the specification of the write-snapshot `object`, with at
    /// most `max_active` simultaneously-active operations.
    pub fn new(object: ObjectId, max_active: usize) -> Self {
        WriteSnapshotSpec { object, max_active: max_active.max(1) }
    }

    /// The specified object.
    pub fn object(&self) -> ObjectId {
        self.object
    }
}

impl IntervalSpec for WriteSnapshotSpec {
    /// The bitmask of values written so far.
    type State = i64;

    fn initial(&self) -> i64 {
        0
    }

    fn step(
        &self,
        state: &i64,
        active: &[Operation],
        opening: &[Operation],
        closing: &[Operation],
    ) -> Option<i64> {
        let mut mask = *state;
        for op in active {
            if op.object != self.object || op.method != WRITE_SNAPSHOT {
                return None;
            }
        }
        for op in opening {
            let v = op.arg.as_int()?;
            if !(0..63).contains(&v) {
                return None;
            }
            mask |= 1 << v;
        }
        for op in closing {
            if op.ret != Value::Int(mask) {
                return None;
            }
        }
        Some(mask)
    }

    fn max_active(&self) -> usize {
        self.max_active
    }

    fn completions_of(&self, _inv: &Invocation) -> Vec<Value> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cal_core::check::is_cal;
    use cal_core::gen::render;
    use crate::registry::run_interval;
    use cal_core::check::CheckOptions;
    use cal_core::spec::CaSpec;
    use cal_core::{CaTrace, History};

    const O: ObjectId = ObjectId(0);

    fn t(n: u32) -> ThreadId {
        ThreadId(n)
    }

    fn interval_linearizable(h: &History, spec: &WriteSnapshotSpec) -> bool {
        run_interval(h, spec, &CheckOptions::default()).unwrap().verdict.is_cal()
    }

    fn spec() -> ImmediateSnapshotSpec {
        ImmediateSnapshotSpec::new(O, 3)
    }

    #[test]
    fn block_semantics_accepted() {
        // Block {1,2} then block {3}: both members of the first block see
        // {1,2}; the third op sees everything.
        let b1 = CaElement::new(
            O,
            vec![im_snap_op(O, t(1), 1, view(&[1, 2])), im_snap_op(O, t(2), 2, view(&[1, 2]))],
        )
        .unwrap();
        let b2 = CaElement::singleton(im_snap_op(O, t(3), 3, view(&[1, 2, 3])));
        let trace = CaTrace::from_elements(vec![b1, b2]);
        assert!(spec().accepts(&trace));
        let h = render(&trace);
        assert!(is_cal(&h, &spec()).unwrap());
    }

    #[test]
    fn asymmetric_views_in_one_block_rejected() {
        // Immediacy: members of one block must see the same view.
        let bad = CaElement::new(
            O,
            vec![im_snap_op(O, t(1), 1, view(&[1])), im_snap_op(O, t(2), 2, view(&[1, 2]))],
        )
        .unwrap();
        assert!(!spec().accepts(&CaTrace::from_elements(vec![bad])));
    }

    #[test]
    fn view_must_include_own_value() {
        let bad = CaElement::singleton(im_snap_op(O, t(1), 1, 0));
        assert!(!spec().accepts(&CaTrace::from_elements(vec![bad])));
    }

    #[test]
    fn stale_view_rejected() {
        let b1 = CaElement::singleton(im_snap_op(O, t(1), 1, view(&[1])));
        // Second op's view omits the first block's value.
        let b2 = CaElement::singleton(im_snap_op(O, t(2), 2, view(&[2])));
        assert!(!spec().accepts(&CaTrace::from_elements(vec![b1, b2])));
    }

    #[test]
    fn immediate_snapshot_history_not_sequentially_explainable() {
        // Two concurrent ops that saw each other: CAL explains them as one
        // block; a sequential (singleton-only) reading cannot.
        let a = im_snap_op(O, t(1), 1, view(&[1, 2]));
        let b = im_snap_op(O, t(2), 2, view(&[1, 2]));
        let h = History::from_actions(vec![
            a.invocation(),
            b.invocation(),
            a.response(),
            b.response(),
        ]);
        assert!(is_cal(&h, &spec()).unwrap());
        let singleton_only = ImmediateSnapshotSpec::new(O, 1);
        assert!(!is_cal(&h, &singleton_only).unwrap());
    }

    #[test]
    fn write_snapshot_separation() {
        // The §6 separation: interval-linearizable but not CAL.
        let a = write_snapshot_op(O, t(1), 1, view(&[1, 2, 3]));
        let b = write_snapshot_op(O, t(2), 2, view(&[1, 2]));
        let c = write_snapshot_op(O, t(3), 3, view(&[1, 2, 3]));
        let h = History::from_actions(vec![
            a.invocation(),
            b.invocation(),
            b.response(),
            c.invocation(),
            c.response(),
            a.response(),
        ]);
        assert!(interval_linearizable(&h, &WriteSnapshotSpec::new(O, 4)));
        // The one-point (CAL) reading of the same object rejects it. The
        // CAL analogue of write-snapshot coincides with the immediate
        // snapshot's element shape:
        #[derive(Debug)]
        struct OnePoint;
        impl CaSpec for OnePoint {
            type State = i64;
            fn initial(&self) -> i64 {
                0
            }
            fn step(&self, state: &i64, e: &CaElement) -> Option<i64> {
                let mut mask = *state;
                for op in e.ops() {
                    mask |= 1 << op.arg.as_int()?;
                }
                for op in e.ops() {
                    if op.ret != Value::Int(mask) {
                        return None;
                    }
                }
                Some(mask)
            }
            fn max_element_size(&self) -> usize {
                4
            }
            fn completions_of(&self, _: &Invocation) -> Vec<Value> {
                Vec::new()
            }
        }
        assert!(!is_cal(&h, &OnePoint).unwrap());
    }

    #[test]
    fn interval_spec_rejects_foreign_ops() {
        let bad = Operation::new(t(1), ObjectId(9), WRITE_SNAPSHOT, Value::Int(1), Value::Int(2));
        let h = History::from_actions(vec![bad.invocation(), bad.response()]);
        assert!(!interval_linearizable(&h, &WriteSnapshotSpec::new(O, 2)));
    }

    #[test]
    #[should_panic(expected = "0..63")]
    fn view_rejects_out_of_range() {
        view(&[64]);
    }
}
