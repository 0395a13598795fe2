//! Step-machine model of the elimination array of Fig. 2 (lines 1–6): `K`
//! exchangers, with the slot chosen nondeterministically (the scheduler
//! explores every choice, covering all outcomes of `random(0, K-1)`).

use cal_core::{ObjectId, ThreadId};

use crate::model::{Model, OpRequest, StepCtx, StepOutcome};
use crate::models::exchanger::{exchanger_step, ExchangerLocal, ExchangerShared};
use cal_specs::vocab::EXCHANGE;

/// Shared state: one [`ExchangerShared`] per slot.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ElimArrayShared {
    /// The exchanger slots `E[0..K]`.
    pub slots: Vec<ExchangerShared>,
}

/// Local state of one `AR.exchange(v)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ElimArrayLocal {
    /// Line 4: about to pick a random slot.
    Pick {
        /// The offered value.
        v: i64,
    },
    /// Line 5: running `E[slot].exchange(v)`.
    InSlot {
        /// The chosen slot.
        slot: usize,
        /// The exchanger-local state.
        inner: ExchangerLocal,
    },
}

/// The elimination array model: object `array` with `K` exchanger
/// subobjects whose ids are supplied explicitly (they appear in the logged
/// trace and are later renamed by `F_AR`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElimArrayModel {
    array: ObjectId,
    slot_objects: Vec<ObjectId>,
}

impl ElimArrayModel {
    /// Creates an elimination array named `array` over exchangers named
    /// `slot_objects`.
    ///
    /// # Panics
    ///
    /// Panics if `slot_objects` is empty.
    pub fn new(array: ObjectId, slot_objects: Vec<ObjectId>) -> Self {
        assert!(!slot_objects.is_empty(), "elimination array needs at least one slot");
        ElimArrayModel { array, slot_objects }
    }

    /// Number of slots `K`.
    pub fn slots(&self) -> usize {
        self.slot_objects.len()
    }
}

/// One step of the elimination array algorithm, reusable by the elimination
/// stack model.
pub fn elim_array_step(
    model: &ElimArrayModel,
    shared: &mut ElimArrayShared,
    local: &mut ElimArrayLocal,
    ctx: &mut StepCtx<'_>,
) -> StepOutcome<ElimArrayLocal> {
    match local {
        ElimArrayLocal::Pick { v } => {
            // Line 4: int slot = random(0, K-1) — branch over all slots.
            let v = *v;
            StepOutcome::Choose(
                (0..model.slots())
                    .map(|slot| ElimArrayLocal::InSlot {
                        slot,
                        inner: ExchangerLocal::Init { v },
                    })
                    .collect(),
            )
        }
        ElimArrayLocal::InSlot { slot, inner } => {
            // Line 5: return E[slot].exchange(data).
            let object = model.slot_objects[*slot];
            match exchanger_step(object, &mut shared.slots[*slot], inner, ctx) {
                StepOutcome::Continue => StepOutcome::Continue,
                StepOutcome::Done(ret) => StepOutcome::Done(ret),
                StepOutcome::Stuck => StepOutcome::Stuck,
                StepOutcome::Choose(_) => unreachable!("exchanger never branches"),
            }
        }
    }
}

impl Model for ElimArrayModel {
    type Shared = ElimArrayShared;
    type Local = ElimArrayLocal;

    fn object(&self) -> ObjectId {
        self.array
    }

    fn init_shared(&self) -> ElimArrayShared {
        ElimArrayShared { slots: vec![ExchangerShared::new(); self.slots()] }
    }

    fn on_invoke(&self, _thread: ThreadId, request: &OpRequest) -> ElimArrayLocal {
        assert_eq!(request.method, EXCHANGE, "elimination array only offers exchange()");
        ElimArrayLocal::Pick { v: request.arg.as_int().expect("exchange takes an integer") }
    }

    fn step(
        &self,
        shared: &mut ElimArrayShared,
        local: &mut ElimArrayLocal,
        ctx: &mut StepCtx<'_>,
    ) -> StepOutcome<ElimArrayLocal> {
        elim_array_step(self, shared, local, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Explorer, Workload};
    use cal_core::agree::agrees_bool;
    use cal_core::compose::TraceMap;
    use cal_core::spec::CaSpec;
    use cal_core::Value;
    use cal_specs::elim_array::{ElimArraySpec, FArMap};

    const AR: ObjectId = ObjectId(0);
    const E0: ObjectId = ObjectId(10);
    const E1: ObjectId = ObjectId(11);

    fn model(k: usize) -> ElimArrayModel {
        ElimArrayModel::new(AR, vec![E0, E1][..k].to_vec())
    }

    fn exchange(v: i64) -> OpRequest {
        OpRequest::new(EXCHANGE, Value::Int(v))
    }

    #[test]
    fn single_slot_behaves_like_exchanger() {
        let m = model(1);
        let w = Workload::new(vec![vec![exchange(3)], vec![exchange(4)]]);
        let mut swapped = false;
        Explorer::new(&m, w).run(|e| {
            for op in e.history.operations() {
                if op.ret == Value::Pair(true, 4) {
                    swapped = true;
                }
            }
        });
        assert!(swapped);
    }

    #[test]
    fn two_slots_swap_only_within_a_slot() {
        let m = model(2);
        let w = Workload::new(vec![vec![exchange(3)], vec![exchange(4)]]);
        let mut swapped = false;
        let mut both_failed = false;
        Explorer::new(&m, w).run(|e| {
            let rets: Vec<Value> = e.history.operations().iter().map(|o| o.ret).collect();
            if rets.iter().any(|r| matches!(r, Value::Pair(true, _))) {
                swapped = true;
            }
            if rets.iter().all(|r| matches!(r, Value::Pair(false, _))) {
                both_failed = true;
            }
        });
        assert!(swapped, "same-slot choices must swap in some schedule");
        assert!(both_failed, "different-slot choices must both fail");
    }

    #[test]
    fn far_mapped_trace_satisfies_array_spec_and_agrees() {
        let m = model(2);
        let far = FArMap::new(AR, vec![E0, E1]);
        let spec = ElimArraySpec::new(AR);
        let w = Workload::new(vec![vec![exchange(3)], vec![exchange(4)], vec![exchange(5)]]);
        let mut execs = 0;
        Explorer::new(&m, w).run(|e| {
            execs += 1;
            // The elements are logged on E[i]; F_AR lifts them to AR.
            let mapped = far.apply(&e.trace);
            assert!(spec.accepts(&mapped), "mapped trace {mapped} illegal");
            // The AR-level history agrees with the lifted trace — the
            // paper's compositional argument, checked per interleaving.
            assert!(
                agrees_bool(&e.history, &mapped),
                "history {} does not agree with {}",
                e.history,
                mapped
            );
        });
        assert!(execs > 10);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_array_rejected() {
        ElimArrayModel::new(AR, vec![]);
    }
}
