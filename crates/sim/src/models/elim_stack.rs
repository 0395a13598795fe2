//! Step-machine model of the elimination stack of Fig. 2 (lines 25–48).
//!
//! `push(v)` first attempts `S.push(v)`; on contention failure it offers
//! `v` to the elimination array and succeeds if it received the pop
//! sentinel, otherwise it retries. `pop()` is symmetric, offering the
//! sentinel. The unbounded `while(true)` retry loops are bounded by a
//! configurable number of rounds; exhausting the budget leaves the
//! operation pending ([`StepOutcome::Stuck`]), which CAL treats as a
//! droppable invocation — exactly the semantics of a non-terminating
//! operation.

use cal_core::{ObjectId, ThreadId, Value};

use crate::model::{Model, OpRequest, StepCtx, StepOutcome};
use crate::models::elim_array::{elim_array_step, ElimArrayLocal, ElimArrayModel, ElimArrayShared};
use crate::models::stack::{failing_stack_step, StackLocal, StackShared};
use cal_specs::vocab::{POP, POP_SENTINEL, PUSH};

/// Shared state: the central stack plus the elimination array slots.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ElimStackShared {
    /// The central stack `S`.
    pub stack: StackShared,
    /// The elimination array `AR`.
    pub array: ElimArrayShared,
}

/// Which operation an elimination-stack local state belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum EsOp {
    Push { v: i64 },
    Pop,
}

/// Local state of one elimination-stack operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ElimStackLocal {
    op: EsOp,
    rounds_left: u8,
    phase: EsPhase,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum EsPhase {
    /// Running the central-stack attempt (lines 32 / 42).
    OnStack(StackLocal),
    /// Running the elimination attempt (lines 34 / 44).
    OnArray(ElimArrayLocal),
}

/// The elimination stack model, composed of a [`FailingStackModel`]-style
/// central stack and an [`ElimArrayModel`].
///
/// [`FailingStackModel`]: crate::models::stack::FailingStackModel
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElimStackModel {
    es: ObjectId,
    stack: ObjectId,
    array: ElimArrayModel,
    max_rounds: u8,
}

impl ElimStackModel {
    /// Creates an elimination stack named `es` whose central stack is
    /// `stack` and whose elimination array is `array`, retrying at most
    /// `max_rounds` stack+elimination rounds per operation.
    pub fn new(es: ObjectId, stack: ObjectId, array: ElimArrayModel, max_rounds: u8) -> Self {
        ElimStackModel { es, stack, array, max_rounds }
    }

    /// The elimination array model.
    pub fn array(&self) -> &ElimArrayModel {
        &self.array
    }

    fn stack_phase(op: EsOp) -> EsPhase {
        match op {
            EsOp::Push { v } => EsPhase::OnStack(StackLocal::PushRead { v }),
            EsOp::Pop => EsPhase::OnStack(StackLocal::PopRead),
        }
    }

    fn array_phase(op: EsOp) -> EsPhase {
        let offer = match op {
            EsOp::Push { v } => v,
            EsOp::Pop => POP_SENTINEL,
        };
        EsPhase::OnArray(ElimArrayLocal::Pick { v: offer })
    }

    fn retry(&self, local: &mut ElimStackLocal) -> StepOutcome<ElimStackLocal> {
        if local.rounds_left == 0 {
            return StepOutcome::Stuck;
        }
        local.rounds_left -= 1;
        local.phase = Self::stack_phase(local.op);
        StepOutcome::Continue
    }
}

impl Model for ElimStackModel {
    type Shared = ElimStackShared;
    type Local = ElimStackLocal;

    fn object(&self) -> ObjectId {
        self.es
    }

    fn init_shared(&self) -> ElimStackShared {
        ElimStackShared {
            stack: StackShared::new(),
            array: self.array.init_shared(),
        }
    }

    fn on_invoke(&self, _thread: ThreadId, request: &OpRequest) -> ElimStackLocal {
        let op = match request.method {
            PUSH => {
                let v = request.arg.as_int().expect("push takes an integer");
                assert!(v != POP_SENTINEL, "cannot push the pop sentinel");
                EsOp::Push { v }
            }
            POP => EsOp::Pop,
            other => panic!("elimination stack does not offer {other}"),
        };
        ElimStackLocal { op, rounds_left: self.max_rounds, phase: Self::stack_phase(op) }
    }

    fn step(
        &self,
        shared: &mut ElimStackShared,
        local: &mut ElimStackLocal,
        ctx: &mut StepCtx<'_>,
    ) -> StepOutcome<ElimStackLocal> {
        match &mut local.phase {
            EsPhase::OnStack(inner) => {
                match failing_stack_step(self.stack, &mut shared.stack, inner, ctx) {
                    StepOutcome::Continue => StepOutcome::Continue,
                    StepOutcome::Done(ret) => match (local.op, ret) {
                        // Line 33: if (b) return true.
                        (EsOp::Push { .. }, Value::Bool(true)) => {
                            StepOutcome::Done(Value::Bool(true))
                        }
                        // Line 34: fall through to elimination.
                        (EsOp::Push { .. }, Value::Bool(false)) => {
                            local.phase = Self::array_phase(local.op);
                            StepOutcome::Continue
                        }
                        // Line 43: if (b) return (true, v).
                        (EsOp::Pop, Value::Pair(true, v)) => {
                            StepOutcome::Done(Value::Pair(true, v))
                        }
                        // Line 44: fall through to elimination.
                        (EsOp::Pop, Value::Pair(false, _)) => {
                            local.phase = Self::array_phase(local.op);
                            StepOutcome::Continue
                        }
                        (op, ret) => unreachable!("stack returned {ret:?} for {op:?}"),
                    },
                    StepOutcome::Stuck => StepOutcome::Stuck,
                    StepOutcome::Choose(_) => unreachable!("stack never branches"),
                }
            }
            EsPhase::OnArray(inner) => {
                match elim_array_step(&self.array, &mut shared.array, inner, ctx) {
                    StepOutcome::Continue => StepOutcome::Continue,
                    StepOutcome::Choose(inners) => StepOutcome::Choose(
                        inners
                            .into_iter()
                            .map(|i| ElimStackLocal {
                                op: local.op,
                                rounds_left: local.rounds_left,
                                phase: EsPhase::OnArray(i),
                            })
                            .collect(),
                    ),
                    StepOutcome::Done(ret) => {
                        let (ok, d) = ret.as_pair().expect("exchange returns a pair");
                        match local.op {
                            EsOp::Push { .. } => {
                                // Lines 35–36: if (d == POP_SENTINAL) return true.
                                if ok && d == POP_SENTINEL {
                                    StepOutcome::Done(Value::Bool(true))
                                } else {
                                    self.retry(local)
                                }
                            }
                            EsOp::Pop => {
                                // Lines 45–46: if (v != POP_SENTINAL) return (true, v).
                                if ok && d != POP_SENTINEL {
                                    StepOutcome::Done(Value::Pair(true, d))
                                } else {
                                    self.retry(local)
                                }
                            }
                        }
                    }
                    StepOutcome::Stuck => StepOutcome::Stuck,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Explorer, Workload};
    use cal_core::agree::agrees_bool;
    use cal_core::compose::{Composed, TraceMap};
    use cal_specs::elim_array::FArMap;
    use cal_specs::elim_stack::{modular_stack_check, FEsMap};

    const ES: ObjectId = ObjectId(0);
    const S: ObjectId = ObjectId(1);
    const AR: ObjectId = ObjectId(2);
    const E0: ObjectId = ObjectId(10);

    fn model() -> ElimStackModel {
        ElimStackModel::new(ES, S, ElimArrayModel::new(AR, vec![E0]), 1)
    }

    fn push(v: i64) -> OpRequest {
        OpRequest::new(PUSH, Value::Int(v))
    }

    fn pop() -> OpRequest {
        OpRequest::new(POP, Value::Unit)
    }

    fn maps() -> (FArMap, FEsMap) {
        (FArMap::new(AR, vec![E0]), FEsMap::new(ES, S, AR))
    }

    #[test]
    fn sequential_push_pop_round_trip() {
        let m = model();
        let w = Workload::new(vec![vec![push(5), pop()]]);
        Explorer::new(&m, w).run(|e| {
            let rets: Vec<Value> = e.history.operations().iter().map(|o| o.ret).collect();
            assert_eq!(rets, vec![Value::Bool(true), Value::Pair(true, 5)]);
        });
    }

    #[test]
    fn concurrent_push_pop_all_interleavings_pass_modular_check() {
        let m = model();
        let (far, fes) = maps();
        let composed = Composed::new(fes, far.clone());
        let w = Workload::new(vec![vec![push(5)], vec![pop()]]);
        let mut execs = 0;
        Explorer::new(&m, w).run(|e| {
            execs += 1;
            // Lift E-elements to AR, then through F_ES to abstract ES ops.
            let lifted = far.apply(&e.trace);
            assert!(modular_stack_check(&fes, &lifted), "trace {} fails check", e.trace);
            // The ES-level history agrees with the abstract trace.
            let abstract_trace = composed.apply(&e.trace);
            // Agreement holds only over completed ES operations; drop
            // abstract ops of threads whose ES op never returned (stuck).
            if e.history.is_complete() {
                assert!(
                    agrees_bool(&e.history, &abstract_trace),
                    "history {} disagrees with {}",
                    e.history,
                    abstract_trace
                );
            }
        });
        assert!(execs > 5);
    }

    #[test]
    fn elimination_path_is_reachable_under_contention() {
        // A push can only fail (and try elimination) when another stack CAS
        // races it, so contention needs two pushers; the popper meets the
        // loser in the elimination array.
        let m = model();
        let w = Workload::new(vec![vec![push(1)], vec![push(2)], vec![pop()]]);
        let mut eliminated = false;
        Explorer::new(&m, w).run(|e| {
            if e.trace.elements().iter().any(|el| el.object() == E0 && el.len() == 2) {
                eliminated = true;
            }
        });
        assert!(eliminated, "some schedule must take the elimination path");
    }

    #[test]
    fn pop_on_empty_stack_waits_for_elimination_partner() {
        // A lone pop on an empty stack can only finish via elimination; with
        // no partner it must end up stuck (pending), never returning empty.
        let m = model();
        let w = Workload::new(vec![vec![pop()]]);
        Explorer::new(&m, w).run(|e| {
            assert!(!e.history.is_complete(), "lone pop cannot complete: {}", e.history);
        });
    }

    #[test]
    fn elimination_transfers_the_right_value() {
        let m = model();
        let w = Workload::new(vec![vec![push(5)], vec![pop()]]);
        Explorer::new(&m, w).run(|e| {
            for op in e.history.operations() {
                if op.method == POP {
                    if let Some((true, v)) = op.ret.as_pair() {
                        assert_eq!(v, 5);
                    }
                }
            }
        });
    }
}
