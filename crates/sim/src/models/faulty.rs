//! Deliberately broken variants of the paper's algorithms, used to show
//! the verification tooling is not vacuous: for each injected bug, some
//! interleaving must be *rejected* — by the CAL search, by the
//! witness-agreement check, or by the rely/guarantee obligations (the
//! tests of `cal-rg`, which depends on this crate, run every bug here
//! through its checkers).

use cal_core::{CaElement, ObjectId, Operation, ThreadId, Value};

use crate::model::{Model, OpRequest, StepCtx, StepOutcome};
use crate::models::exchanger::{ExchangerLocal, ExchangerShared, Hole, Offer};
use crate::models::stack::{StackLocal, StackShared};
use cal_specs::vocab::{EXCHANGE, POP, PUSH};

/// The injectable exchanger bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangerBug {
    /// The matcher returns its *own* value instead of the partner's
    /// (line 33 returns `v` instead of `cur.data`) — a safety bug the CAL
    /// search rejects, and `exchange`'s postcondition with it.
    ReturnOwnValue,
    /// The matcher writes `cur.hole` unconditionally instead of with a CAS
    /// (line 29) — two matchers can both claim one waiter, so one side of
    /// a "swap" is unreciprocated.
    MatchWithoutCas,
    /// The `XCHG` instrumentation logs the matcher's value on both sides
    /// of the swap element — the memory behaviour is correct but the
    /// auxiliary trace lies; caught by witness agreement and by the
    /// rely/guarantee conformance check, not by the history alone.
    WrongSwapLog,
}

/// An exchanger model with one injected bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultyExchangerModel {
    object: ObjectId,
    bug: ExchangerBug,
}

impl FaultyExchangerModel {
    /// Creates a faulty exchanger named `object` exhibiting `bug`.
    pub fn new(object: ObjectId, bug: ExchangerBug) -> Self {
        FaultyExchangerModel { object, bug }
    }

    /// The injected bug.
    pub fn bug(&self) -> ExchangerBug {
        self.bug
    }
}

fn fail_element(object: ObjectId, t: ThreadId, v: i64) -> CaElement {
    CaElement::singleton(Operation::new(
        t,
        object,
        EXCHANGE,
        Value::Int(v),
        Value::Pair(false, v),
    ))
}

impl Model for FaultyExchangerModel {
    type Shared = ExchangerShared;
    type Local = ExchangerLocal;

    fn object(&self) -> ObjectId {
        self.object
    }

    fn init_shared(&self) -> ExchangerShared {
        ExchangerShared::new()
    }

    fn on_invoke(&self, _thread: ThreadId, request: &OpRequest) -> ExchangerLocal {
        assert_eq!(request.method, EXCHANGE);
        ExchangerLocal::Init { v: request.arg.as_int().expect("exchange takes an integer") }
    }

    fn step(
        &self,
        shared: &mut ExchangerShared,
        local: &mut ExchangerLocal,
        ctx: &mut StepCtx<'_>,
    ) -> StepOutcome<ExchangerLocal> {
        let t = ctx.thread;
        let object = self.object;
        match *local {
            // The init, wait, pass and fail paths are the correct ones.
            ExchangerLocal::Init { v } => {
                let n = shared.offers.len();
                shared.offers.push(Offer { tid: t, data: v, hole: Hole::Null });
                if shared.g.is_none() {
                    shared.g = Some(n);
                    ctx.label("INIT");
                    *local = ExchangerLocal::Wait { n, v };
                } else {
                    *local = ExchangerLocal::ReadG { n, v };
                }
                StepOutcome::Continue
            }
            ExchangerLocal::Wait { n, v } => {
                *local = ExchangerLocal::TryPass { n, v };
                StepOutcome::Continue
            }
            ExchangerLocal::TryPass { n, v } => match shared.offers[n].hole {
                Hole::Null => {
                    shared.offers[n].hole = Hole::Fail;
                    ctx.label("PASS");
                    *local = ExchangerLocal::FailReturn { n, v };
                    StepOutcome::Continue
                }
                Hole::Matched(m) => StepOutcome::Done(Value::Pair(true, shared.offers[m].data)),
                Hole::Fail => unreachable!("only the owner passes"),
            },
            ExchangerLocal::FailReturn { n: _, v } => {
                ctx.label("FAIL");
                ctx.log(fail_element(object, t, v));
                StepOutcome::Done(Value::Pair(false, v))
            }
            ExchangerLocal::ReadG { n, v } => match shared.g {
                Some(cur) => {
                    *local = ExchangerLocal::TryXchg { n, v, cur };
                    StepOutcome::Continue
                }
                None => {
                    ctx.label("FAIL");
                    ctx.log(fail_element(object, t, v));
                    StepOutcome::Done(Value::Pair(false, v))
                }
            },
            ExchangerLocal::TryXchg { n, v, cur } => {
                let cas_ok = match self.bug {
                    // BUG: unconditional write instead of CAS.
                    ExchangerBug::MatchWithoutCas => true,
                    _ => shared.offers[cur].hole == Hole::Null,
                };
                let s = if cas_ok {
                    let partner = shared.offers[cur];
                    shared.offers[cur].hole = Hole::Matched(n);
                    ctx.label("XCHG");
                    let logged = match self.bug {
                        // BUG: both sides of the element carry `v`.
                        ExchangerBug::WrongSwapLog => CaElement::pair(
                            Operation::new(
                                partner.tid,
                                object,
                                EXCHANGE,
                                Value::Int(partner.data),
                                Value::Pair(true, v),
                            ),
                            Operation::new(t, object, EXCHANGE, Value::Int(v), Value::Pair(true, v)),
                        )
                        .expect("distinct threads"),
                        _ => CaElement::pair(
                            Operation::new(
                                partner.tid,
                                object,
                                EXCHANGE,
                                Value::Int(partner.data),
                                Value::Pair(true, v),
                            ),
                            Operation::new(
                                t,
                                object,
                                EXCHANGE,
                                Value::Int(v),
                                Value::Pair(true, partner.data),
                            ),
                        )
                        .expect("distinct threads"),
                    };
                    ctx.log(logged);
                    true
                } else {
                    false
                };
                *local = ExchangerLocal::Clean { n, v, cur, s };
                StepOutcome::Continue
            }
            ExchangerLocal::Clean { n, v, cur, s } => {
                if shared.g == Some(cur) {
                    shared.g = None;
                    ctx.label("CLEAN");
                }
                *local = ExchangerLocal::Finish { n, v, cur, s };
                StepOutcome::Continue
            }
            ExchangerLocal::Finish { n: _, v, cur, s } => {
                if s {
                    match self.bug {
                        // BUG: return own value instead of the partner's.
                        ExchangerBug::ReturnOwnValue => StepOutcome::Done(Value::Pair(true, v)),
                        _ => StepOutcome::Done(Value::Pair(true, shared.offers[cur].data)),
                    }
                } else {
                    ctx.label("FAIL");
                    ctx.log(fail_element(object, t, v));
                    StepOutcome::Done(Value::Pair(false, v))
                }
            }
        }
    }
}

/// The injectable stack bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackBug {
    /// `pop` writes `top` unconditionally instead of with a CAS — a racing
    /// push between the read and the write is lost.
    PopWithoutCas,
    /// `pop` reports the value of the cell *below* the popped one.
    PopWrongValue,
}

/// A failing stack with one injected bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultyStackModel {
    object: ObjectId,
    bug: StackBug,
}

impl FaultyStackModel {
    /// Creates a faulty failing stack named `object` exhibiting `bug`.
    pub fn new(object: ObjectId, bug: StackBug) -> Self {
        FaultyStackModel { object, bug }
    }
}

impl Model for FaultyStackModel {
    type Shared = StackShared;
    type Local = StackLocal;

    fn object(&self) -> ObjectId {
        self.object
    }

    fn init_shared(&self) -> StackShared {
        StackShared::new()
    }

    fn on_invoke(&self, _thread: ThreadId, request: &OpRequest) -> StackLocal {
        match request.method {
            PUSH => StackLocal::PushRead { v: request.arg.as_int().expect("push takes an int") },
            POP => StackLocal::PopRead,
            other => panic!("stack does not offer {other}"),
        }
    }

    fn step(
        &self,
        shared: &mut StackShared,
        local: &mut StackLocal,
        ctx: &mut StepCtx<'_>,
    ) -> StepOutcome<StackLocal> {
        use crate::models::stack::Cell;
        let t = ctx.thread;
        match *local {
            StackLocal::PushRead { v } => {
                let h = shared.top;
                let n = shared.cells.len();
                shared.cells.push(Cell { data: v, next: h });
                *local = StackLocal::PushCas { v, h, n };
                StepOutcome::Continue
            }
            StackLocal::PushCas { v, h, n } => {
                if shared.top == h {
                    shared.top = Some(n);
                    ctx.label("PUSH");
                    ctx.log(CaElement::singleton(Operation::new(
                        t,
                        self.object,
                        PUSH,
                        Value::Int(v),
                        Value::Bool(true),
                    )));
                    StepOutcome::Done(Value::Bool(true))
                } else {
                    ctx.log(CaElement::singleton(Operation::new(
                        t,
                        self.object,
                        PUSH,
                        Value::Int(v),
                        Value::Bool(false),
                    )));
                    StepOutcome::Done(Value::Bool(false))
                }
            }
            StackLocal::PopRead => match shared.top {
                None => {
                    ctx.log(CaElement::singleton(Operation::new(
                        t,
                        self.object,
                        POP,
                        Value::Unit,
                        Value::Pair(false, 0),
                    )));
                    StepOutcome::Done(Value::Pair(false, 0))
                }
                Some(h) => {
                    *local = StackLocal::PopCas { h };
                    StepOutcome::Continue
                }
            },
            StackLocal::PopCas { h } => {
                let n = shared.cells[h].next;
                let cas_ok = match self.bug {
                    StackBug::PopWithoutCas => true, // BUG: no comparison
                    StackBug::PopWrongValue => shared.top == Some(h),
                };
                if cas_ok {
                    shared.top = n;
                    let v = match self.bug {
                        // BUG: report the next cell's value (0 if none).
                        StackBug::PopWrongValue => {
                            n.map(|i| shared.cells[i].data).unwrap_or(0)
                        }
                        _ => shared.cells[h].data,
                    };
                    ctx.label("POP");
                    ctx.log(CaElement::singleton(Operation::new(
                        t,
                        self.object,
                        POP,
                        Value::Unit,
                        Value::Pair(true, v),
                    )));
                    StepOutcome::Done(Value::Pair(true, v))
                } else {
                    ctx.log(CaElement::singleton(Operation::new(
                        t,
                        self.object,
                        POP,
                        Value::Unit,
                        Value::Pair(false, 0),
                    )));
                    StepOutcome::Done(Value::Pair(false, 0))
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
    use cal_core::spec::{CaSpec, SeqAsCa};
    use cal_specs::exchanger::ExchangerSpec;
    use cal_specs::stack::StackSpec;

    const E: ObjectId = ObjectId(0);

    fn exchange(v: i64) -> OpRequest {
        OpRequest::new(EXCHANGE, Value::Int(v))
    }

    #[test]
    fn return_own_value_is_caught_by_cal_search() {
        let model = FaultyExchangerModel::new(E, ExchangerBug::ReturnOwnValue);
        let spec = ExchangerSpec::new(E);
        let w = Workload::new(vec![vec![exchange(3)], vec![exchange(4)]]);
        let mut rejected = false;
        Explorer::new(&model, w).run(|e| {
            if !is_cal(&e.history, &spec).unwrap() {
                rejected = true;
            }
        });
        assert!(rejected, "the bug must surface in some schedule");
        assert_eq!(model.bug(), ExchangerBug::ReturnOwnValue);
    }

    #[test]
    fn match_without_cas_is_caught() {
        // Three threads: two matchers can both claim the one waiter.
        let model = FaultyExchangerModel::new(E, ExchangerBug::MatchWithoutCas);
        let spec = ExchangerSpec::new(E);
        let w = Workload::new(vec![vec![exchange(1)], vec![exchange(2)], vec![exchange(3)]]);
        let mut rejected = false;
        Explorer::new(&model, w).run(|e| {
            if !is_cal(&e.history, &spec).unwrap() {
                rejected = true;
            }
        });
        assert!(rejected, "double-match must break CAL in some schedule");
    }

    #[test]
    fn wrong_swap_log_is_caught_by_witness_agreement_not_by_history() {
        let model = FaultyExchangerModel::new(E, ExchangerBug::WrongSwapLog);
        let spec = ExchangerSpec::new(E);
        let w = Workload::new(vec![vec![exchange(3)], vec![exchange(4)]]);
        let mut witness_rejected = false;
        Explorer::new(&model, w).run(|e| {
            // The memory behaviour is the correct algorithm's, so the
            // history itself stays CAL…
            assert!(is_cal(&e.history, &spec).unwrap());
            // …but the lying instrumentation is caught by the agreement
            // check (and would invalidate any proof built on the trace).
            if !agrees_bool(&e.history, &e.trace) || !spec.accepts(&e.trace) {
                witness_rejected = true;
            }
        });
        assert!(witness_rejected, "the lying trace must be caught");
    }

    #[test]
    fn pop_without_cas_is_caught() {
        // The incriminating schedule: two concurrent pops both read the
        // same top cell and, lacking the CAS, both return its value — a
        // duplicated pop no stack specification admits. (A *lost push* is
        // unobservable under the failing spec, which allows any pop to
        // fail spuriously; the duplication is the safety violation.)
        let model = FaultyStackModel::new(E, StackBug::PopWithoutCas);
        let spec = SeqAsCa::new(StackSpec::failing(E));
        let w = Workload::new(vec![
            vec![OpRequest::new(PUSH, Value::Int(1))],
            vec![OpRequest::new(POP, Value::Unit)],
            vec![OpRequest::new(POP, Value::Unit)],
        ]);
        let mut rejected = false;
        Explorer::new(&model, w).run(|e| {
            if !is_cal(&e.history, &spec).unwrap() {
                rejected = true;
            }
        });
        assert!(rejected, "duplicated pop must break linearizability in some schedule");
    }

    #[test]
    fn pop_wrong_value_is_caught() {
        let model = FaultyStackModel::new(E, StackBug::PopWrongValue);
        let spec = SeqAsCa::new(StackSpec::failing(E));
        let w = Workload::new(vec![
            vec![OpRequest::new(PUSH, Value::Int(1)), OpRequest::new(PUSH, Value::Int(2))],
            vec![OpRequest::new(POP, Value::Unit)],
        ]);
        let mut rejected = false;
        Explorer::new(&model, w).run(|e| {
            if !is_cal(&e.history, &spec).unwrap() {
                rejected = true;
            }
        });
        assert!(rejected, "wrong pop value must break linearizability");
    }

    #[test]
    fn correct_paths_of_faulty_models_still_pass() {
        // A faulty model that never hits its bug behaves correctly: a lone
        // failed exchange is still CAL.
        for bug in [
            ExchangerBug::ReturnOwnValue,
            ExchangerBug::MatchWithoutCas,
            ExchangerBug::WrongSwapLog,
        ] {
            let model = FaultyExchangerModel::new(E, bug);
            let spec = ExchangerSpec::new(E);
            let w = Workload::new(vec![vec![exchange(9)]]);
            Explorer::new(&model, w).run(|e| {
                assert!(is_cal(&e.history, &spec).unwrap());
                assert!(agrees_bool(&e.history, &e.trace));
            });
        }
    }
}
