//! Step-machine model of a Scherer–Scott style dual stack (§6): `pop` on
//! an empty stack installs a *reservation* node and waits; a `push` that
//! finds a reservation on top fulfills it instead of pushing data. The
//! fulfillment CAS is the single CA-linearization point of *both*
//! operations, logged as one pair element — the specification style the
//! paper advocates over the original two-linearization-point treatment.

use cal_core::{CaElement, ObjectId, ThreadId, Value};

use crate::model::{Model, OpRequest, StepCtx, StepOutcome};
use cal_specs::dual_stack::{dual_pop_op, dual_push_op, fulfillment_element};
use cal_specs::vocab::{POP, PUSH};

/// What a dual-stack node holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DualCell {
    /// A data value waiting to be popped.
    Data(i64),
    /// A waiting pop's reservation, with its owner and fulfillment slot.
    Reservation {
        /// The waiting popper.
        owner: ThreadId,
        /// The value a fulfilling push installed, if any.
        filled: Option<i64>,
    },
}

/// One node of the dual stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DualNode {
    /// The payload.
    pub cell: DualCell,
    /// The next node down.
    pub next: Option<usize>,
}

/// Shared state of the dual stack.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DualStackShared {
    /// The node arena.
    pub nodes: Vec<DualNode>,
    /// The top of the stack.
    pub top: Option<usize>,
}

/// Local state of one dual-stack operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DualStackLocal {
    /// `push(v)`: read `top` and decide between pushing and fulfilling.
    PushRead {
        /// The value to push.
        v: i64,
        /// Remaining retries.
        tries: u8,
    },
    /// `push(v)`: CAS a data node on top of the observed `h`.
    PushCas {
        /// The value to push.
        v: i64,
        /// Observed top.
        h: Option<usize>,
        /// The allocated data node.
        n: usize,
        /// Remaining retries.
        tries: u8,
    },
    /// `push(v)`: try to fulfill the reservation node `r`.
    Fulfill {
        /// The value to hand over.
        v: i64,
        /// The reservation node observed on top.
        r: usize,
        /// Remaining retries.
        tries: u8,
    },
    /// `push`: pop the fulfilled reservation off the stack (helping), then
    /// return.
    PopFulfilled {
        /// The fulfilled reservation node.
        r: usize,
    },
    /// `pop()`: read `top` and decide between taking data and reserving.
    PopRead {
        /// Remaining retries.
        tries: u8,
    },
    /// `pop()`: CAS the observed data node `h` off the stack.
    PopCas {
        /// Observed top (a data node).
        h: usize,
        /// Remaining retries.
        tries: u8,
    },
    /// `pop()`: CAS own reservation `r` onto the observed top `h`.
    Reserve {
        /// Observed top.
        h: Option<usize>,
        /// The allocated reservation node.
        r: usize,
        /// Remaining retries.
        tries: u8,
    },
    /// `pop()`: wait for the reservation to be filled.
    WaitFill {
        /// Own reservation node.
        r: usize,
        /// Remaining wait steps before giving up (operation stays
        /// pending).
        patience: u8,
    },
}

/// The dual stack model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DualStackModel {
    object: ObjectId,
    max_tries: u8,
    patience: u8,
}

impl DualStackModel {
    /// Creates a dual stack named `object`, retrying contended CASes up to
    /// `max_tries` times and letting a waiting pop poll its reservation
    /// `patience` times before parking forever.
    pub fn new(object: ObjectId, max_tries: u8, patience: u8) -> Self {
        DualStackModel { object, max_tries, patience }
    }

    fn retry_push(&self, local: &mut DualStackLocal, v: i64, tries: u8) -> StepOutcome<DualStackLocal> {
        if tries == 0 {
            return StepOutcome::Stuck;
        }
        *local = DualStackLocal::PushRead { v, tries: tries - 1 };
        StepOutcome::Continue
    }

    fn retry_pop(&self, local: &mut DualStackLocal, tries: u8) -> StepOutcome<DualStackLocal> {
        if tries == 0 {
            return StepOutcome::Stuck;
        }
        *local = DualStackLocal::PopRead { tries: tries - 1 };
        StepOutcome::Continue
    }
}

impl Model for DualStackModel {
    type Shared = DualStackShared;
    type Local = DualStackLocal;

    fn object(&self) -> ObjectId {
        self.object
    }

    fn init_shared(&self) -> DualStackShared {
        DualStackShared::default()
    }

    fn on_invoke(&self, _thread: ThreadId, request: &OpRequest) -> DualStackLocal {
        match request.method {
            PUSH => DualStackLocal::PushRead {
                v: request.arg.as_int().expect("push takes an integer"),
                tries: self.max_tries,
            },
            POP => DualStackLocal::PopRead { tries: self.max_tries },
            other => panic!("dual stack does not offer {other}"),
        }
    }

    fn step(
        &self,
        shared: &mut DualStackShared,
        local: &mut DualStackLocal,
        ctx: &mut StepCtx<'_>,
    ) -> StepOutcome<DualStackLocal> {
        let t = ctx.thread;
        match *local {
            DualStackLocal::PushRead { v, tries } => {
                match shared.top {
                    Some(h) if matches!(shared.nodes[h].cell, DualCell::Reservation { .. }) => {
                        *local = DualStackLocal::Fulfill { v, r: h, tries };
                    }
                    h => {
                        let n = shared.nodes.len();
                        shared.nodes.push(DualNode { cell: DualCell::Data(v), next: h });
                        *local = DualStackLocal::PushCas { v, h, n, tries };
                    }
                }
                StepOutcome::Continue
            }
            DualStackLocal::PushCas { v, h, n, tries } => {
                if shared.top == h {
                    shared.top = Some(n);
                    ctx.label("PUSH");
                    ctx.log(CaElement::singleton(dual_push_op(self.object, t, v)));
                    StepOutcome::Done(Value::Unit)
                } else {
                    self.retry_push(local, v, tries)
                }
            }
            DualStackLocal::Fulfill { v, r, tries } => {
                match &mut shared.nodes[r].cell {
                    DualCell::Reservation { owner, filled } if filled.is_none() => {
                        let popper = *owner;
                        *filled = Some(v);
                        ctx.label("FULFILL");
                        // The single CA-linearization point of both ops.
                        ctx.log(fulfillment_element(self.object, t, v, popper));
                        *local = DualStackLocal::PopFulfilled { r };
                        StepOutcome::Continue
                    }
                    _ => self.retry_push(local, v, tries),
                }
            }
            DualStackLocal::PopFulfilled { r } => {
                // Helping: unlink the fulfilled reservation if still on top.
                if shared.top == Some(r) {
                    shared.top = shared.nodes[r].next;
                    ctx.label("UNLINK");
                }
                StepOutcome::Done(Value::Unit)
            }
            DualStackLocal::PopRead { tries } => {
                match shared.top {
                    Some(h) if matches!(shared.nodes[h].cell, DualCell::Data(_)) => {
                        *local = DualStackLocal::PopCas { h, tries };
                    }
                    h => {
                        // Empty or reservations on top: add our own.
                        let r = shared.nodes.len();
                        shared.nodes.push(DualNode {
                            cell: DualCell::Reservation { owner: t, filled: None },
                            next: h,
                        });
                        *local = DualStackLocal::Reserve { h, r, tries };
                    }
                }
                StepOutcome::Continue
            }
            DualStackLocal::PopCas { h, tries } => {
                if shared.top == Some(h) {
                    shared.top = shared.nodes[h].next;
                    let DualCell::Data(v) = shared.nodes[h].cell else {
                        unreachable!("PopCas targets data nodes");
                    };
                    ctx.label("POP");
                    ctx.log(CaElement::singleton(dual_pop_op(self.object, t, v)));
                    StepOutcome::Done(Value::Int(v))
                } else {
                    self.retry_pop(local, tries)
                }
            }
            DualStackLocal::Reserve { h, r, tries } => {
                if shared.top == h {
                    shared.top = Some(r);
                    ctx.label("RESERVE");
                    *local = DualStackLocal::WaitFill { r, patience: self.patience };
                    StepOutcome::Continue
                } else {
                    self.retry_pop(local, tries)
                }
            }
            DualStackLocal::WaitFill { r, patience } => {
                let DualCell::Reservation { filled, .. } = shared.nodes[r].cell else {
                    unreachable!("own reservation");
                };
                match filled {
                    Some(v) => {
                        // The fulfiller logged the pair element; unlink if
                        // still linked (helping may have done it).
                        if shared.top == Some(r) {
                            shared.top = shared.nodes[r].next;
                            ctx.label("UNLINK");
                        }
                        StepOutcome::Done(Value::Int(v))
                    }
                    None if patience == 0 => StepOutcome::Stuck,
                    None => {
                        *local = DualStackLocal::WaitFill { r, patience: patience - 1 };
                        StepOutcome::Continue
                    }
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
    use cal_core::check::is_cal;
    use cal_core::spec::CaSpec;
    use cal_specs::dual_stack::DualStackSpec;

    const S: ObjectId = ObjectId(0);

    fn push(v: i64) -> OpRequest {
        OpRequest::new(PUSH, Value::Int(v))
    }

    fn pop() -> OpRequest {
        OpRequest::new(POP, Value::Unit)
    }

    fn model() -> DualStackModel {
        DualStackModel::new(S, 2, 2)
    }

    #[test]
    fn sequential_push_pop() {
        let w = Workload::new(vec![vec![push(5), pop()]]);
        Explorer::new(&model(), w).run(|e| {
            let rets: Vec<Value> = e.history.operations().iter().map(|o| o.ret).collect();
            assert_eq!(rets, vec![Value::Unit, Value::Int(5)]);
        });
    }

    #[test]
    fn lone_pop_waits_forever() {
        let w = Workload::new(vec![vec![pop()]]);
        Explorer::new(&model(), w).run(|e| {
            assert!(!e.history.is_complete(), "a lone pop cannot complete");
        });
    }

    #[test]
    fn all_interleavings_cal_and_trace_agrees() {
        let spec = DualStackSpec::new(S);
        let w = Workload::new(vec![vec![push(5)], vec![pop()]]);
        let mut n = 0;
        let mut fulfilled = false;
        Explorer::new(&model(), w).run(|e| {
            n += 1;
            assert!(spec.accepts(&e.trace), "illegal trace {} for {}", e.trace, e.history);
            if e.history.is_complete() {
                assert!(
                    agrees_bool(&e.history, &e.trace),
                    "trace {} does not explain {}",
                    e.trace,
                    e.history
                );
                assert!(is_cal(&e.history, &spec).unwrap());
            }
            if e.trace.elements().iter().any(|el| el.len() == 2) {
                fulfilled = true;
            }
        });
        assert!(n > 5);
        assert!(fulfilled, "the reservation/fulfillment path must be reachable");
    }

    #[test]
    fn two_pushers_one_popper_exhaustive() {
        let spec = DualStackSpec::new(S);
        let w = Workload::new(vec![vec![push(1)], vec![push(2)], vec![pop()]]);
        let stats = Explorer::new(&model(), w).run(|e| {
            assert!(spec.accepts(&e.trace), "illegal trace {} for {}", e.trace, e.history);
            if e.history.is_complete() {
                assert!(agrees_bool(&e.history, &e.trace));
            }
        });
        assert_eq!(stats.paths, 2_012, "pruned schedules");
    }

    #[test]
    fn pushers_and_poppers_sampled() {
        let spec = DualStackSpec::new(S);
        let w = Workload::new(vec![
            vec![push(1), push(2)],
            vec![pop()],
            vec![pop()],
        ]);
        Explorer::new(&model(), w).sample(51, 2_000, |e| {
            assert!(spec.accepts(&e.trace), "illegal trace {} for {}", e.trace, e.history);
            if e.history.is_complete() {
                assert!(agrees_bool(&e.history, &e.trace));
            }
        });
    }
}
