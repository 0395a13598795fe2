//! Step-machine model of the wait-free exchanger of Fig. 1.
//!
//! Every step is one shared access, matching the figure's lines:
//!
//! - `Init` — allocate the `Offer` (line 13) and `CAS(g, null, n)` (line 15);
//! - `Wait` — the `sleep(50)` of line 17, modelled as a single
//!   schedulable no-op (the scheduler explores both "partner arrives
//!   during the wait" and "wait elapses first");
//! - `TryPass` — `CAS(n.hole, null, fail)` (line 18) and the returns of
//!   lines 20/22;
//! - `ReadG` — `cur = g` (line 25) and the null test of line 27;
//! - `TryXchg` — `CAS(cur.hole, null, n)` (line 29), logging the paper's
//!   `XCHG` trace element on success;
//! - `Clean` — the unconditional `CAS(g, cur, null)` (line 31);
//! - `Finish` — the returns of lines 33/35, logging `FAIL` on line 35.
//!
//! The trace instrumentation follows §5.1: the swap element
//! `E.swap(cur.tid, cur.data, tid, n.data)` is appended at the successful
//! CAS of line 29, and failure singletons at the two failing returns.

use cal_core::{CaElement, ObjectId, Operation, ThreadId, Value};

use crate::model::{Model, OpRequest, StepCtx, StepOutcome};
use cal_specs::vocab::EXCHANGE;

/// The `hole` field of an offer: `null`, the `fail` sentinel, or a match
/// with another offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Hole {
    /// Initial state: open for matching.
    #[default]
    Null,
    /// The owner gave up (`hole = fail`).
    Fail,
    /// Matched with the offer at this arena index.
    Matched(usize),
}

/// One `Offer` object (Fig. 1, lines 1–7), including the auxiliary `tid`
/// field the proof adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Offer {
    /// The allocating thread (auxiliary state, §5.1).
    pub tid: ThreadId,
    /// The value offered for exchange.
    pub data: i64,
    /// The hole pointer.
    pub hole: Hole,
}

/// Shared state of one exchanger: an offer arena plus the global slot `g`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ExchangerShared {
    /// All offers ever allocated, addressed by index.
    pub offers: Vec<Offer>,
    /// The global offer slot `g` (line 9).
    pub g: Option<usize>,
}

impl ExchangerShared {
    /// Creates the initial state: empty arena, `g = null`.
    pub fn new() -> Self {
        ExchangerShared::default()
    }
}

/// Local state (program counter and registers) of one `exchange(v)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExchangerLocal {
    /// Before line 13: about to allocate and try the init CAS.
    Init {
        /// The offered value.
        v: i64,
    },
    /// Line 17: waiting for a partner.
    Wait {
        /// Own offer index.
        n: usize,
        /// The offered value.
        v: i64,
    },
    /// Line 18: about to CAS own hole to `fail`.
    TryPass {
        /// Own offer index.
        n: usize,
        /// The offered value.
        v: i64,
    },
    /// Between lines 18 and 20: the pass CAS succeeded; about to log the
    /// failure and return.
    FailReturn {
        /// Own offer index.
        n: usize,
        /// The offered value.
        v: i64,
    },
    /// Line 25: about to read `g`.
    ReadG {
        /// Own offer index.
        n: usize,
        /// The offered value.
        v: i64,
    },
    /// Line 29: about to CAS `cur.hole` from `null` to own offer.
    TryXchg {
        /// Own offer index.
        n: usize,
        /// The offered value.
        v: i64,
        /// The offer read from `g`.
        cur: usize,
    },
    /// Line 31: about to clean `g`.
    Clean {
        /// Own offer index.
        n: usize,
        /// The offered value.
        v: i64,
        /// The offer read from `g`.
        cur: usize,
        /// Whether the exchange CAS succeeded (`s` in Fig. 1).
        s: bool,
    },
    /// Lines 32–35: about to return.
    Finish {
        /// Own offer index.
        n: usize,
        /// The offered value.
        v: i64,
        /// The offer read from `g`.
        cur: usize,
        /// Whether the exchange CAS succeeded.
        s: bool,
    },
}

/// The exchanger model for object `object`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangerModel {
    object: ObjectId,
}

impl ExchangerModel {
    /// Creates a model of the exchanger named `object`.
    pub fn new(object: ObjectId) -> Self {
        ExchangerModel { object }
    }
}

/// One step of the exchanger algorithm, reusable by composite models
/// (elimination array, synchronous queue).
pub fn exchanger_step(
    object: ObjectId,
    shared: &mut ExchangerShared,
    local: &mut ExchangerLocal,
    ctx: &mut StepCtx<'_>,
) -> StepOutcome<ExchangerLocal> {
    let t = ctx.thread;
    match *local {
        ExchangerLocal::Init { v } => {
            // Line 13: Offer n = new Offer(tid, v); line 15: CAS(g, null, n).
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
            // Line 17: sleep(50) — one schedulable no-op.
            *local = ExchangerLocal::TryPass { n, v };
            StepOutcome::Continue
        }
        ExchangerLocal::TryPass { n, v } => {
            // Line 18: if (CAS(n.hole, null, fail)).
            match shared.offers[n].hole {
                Hole::Null => {
                    shared.offers[n].hole = Hole::Fail;
                    ctx.label("PASS");
                    *local = ExchangerLocal::FailReturn { n, v };
                    StepOutcome::Continue
                }
                Hole::Matched(m) => {
                    // Line 22: return (true, n.hole.data); the swap was
                    // already logged by the partner's XCHG.
                    StepOutcome::Done(Value::Pair(true, shared.offers[m].data))
                }
                Hole::Fail => unreachable!("only the owner sets fail, and it then returns"),
            }
        }
        ExchangerLocal::FailReturn { n: _, v } => {
            // Line 20: return (false, v) — the FAIL trace element is the
            // auxiliary assignment at the return statement (§5.1).
            ctx.label("FAIL");
            ctx.log(fail_element(object, t, v));
            StepOutcome::Done(Value::Pair(false, v))
        }
        ExchangerLocal::ReadG { n, v } => {
            // Line 25: cur = g; line 27: if (cur != null).
            match shared.g {
                Some(cur) => {
                    *local = ExchangerLocal::TryXchg { n, v, cur };
                    StepOutcome::Continue
                }
                None => {
                    // Line 35: return (false, v).
                    ctx.label("FAIL");
                    ctx.log(fail_element(object, t, v));
                    StepOutcome::Done(Value::Pair(false, v))
                }
            }
        }
        ExchangerLocal::TryXchg { n, v, cur } => {
            // Line 29: s = CAS(cur.hole, null, n).
            let s = if shared.offers[cur].hole == Hole::Null {
                shared.offers[cur].hole = Hole::Matched(n);
                ctx.label("XCHG");
                // §5.1: log 𝒯 := 𝒯 · E.swap(cur.tid, cur.data, tid, n.data).
                let partner = shared.offers[cur];
                ctx.log(swap_element_for(object, partner.tid, partner.data, t, v));
                true
            } else {
                false
            };
            *local = ExchangerLocal::Clean { n, v, cur, s };
            StepOutcome::Continue
        }
        ExchangerLocal::Clean { n, v, cur, s } => {
            // Line 31: CAS(g, cur, null) — unconditional help.
            if shared.g == Some(cur) {
                shared.g = None;
                ctx.label("CLEAN");
            }
            *local = ExchangerLocal::Finish { n, v, cur, s };
            StepOutcome::Continue
        }
        ExchangerLocal::Finish { n: _, v, cur, s } => {
            if s {
                // Line 33: return (true, cur.data).
                StepOutcome::Done(Value::Pair(true, shared.offers[cur].data))
            } else {
                // Line 35: return (false, v).
                ctx.label("FAIL");
                ctx.log(fail_element(object, t, v));
                StepOutcome::Done(Value::Pair(false, v))
            }
        }
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

fn swap_element_for(
    object: ObjectId,
    waiter: ThreadId,
    waiter_value: i64,
    matcher: ThreadId,
    matcher_value: i64,
) -> CaElement {
    CaElement::pair(
        Operation::new(
            waiter,
            object,
            EXCHANGE,
            Value::Int(waiter_value),
            Value::Pair(true, matcher_value),
        ),
        Operation::new(
            matcher,
            object,
            EXCHANGE,
            Value::Int(matcher_value),
            Value::Pair(true, waiter_value),
        ),
    )
    .expect("waiter and matcher are distinct threads")
}

impl Model for ExchangerModel {
    type Shared = ExchangerShared;
    type Local = ExchangerLocal;

    fn object(&self) -> ObjectId {
        self.object
    }

    fn init_shared(&self) -> ExchangerShared {
        ExchangerShared::new()
    }

    fn on_invoke(&self, _thread: ThreadId, request: &OpRequest) -> ExchangerLocal {
        assert_eq!(request.method, EXCHANGE, "exchanger only offers exchange()");
        let v = request.arg.as_int().expect("exchange takes an integer");
        ExchangerLocal::Init { v }
    }

    fn step(
        &self,
        shared: &mut ExchangerShared,
        local: &mut ExchangerLocal,
        ctx: &mut StepCtx<'_>,
    ) -> StepOutcome<ExchangerLocal> {
        exchanger_step(self.object, shared, local, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Explorer, Workload};
    use cal_core::agree::agrees_bool;
    use cal_core::check::is_cal;
    use cal_core::spec::CaSpec;
    use cal_specs::exchanger::ExchangerSpec;

    const E: ObjectId = ObjectId(0);

    fn exchange(v: i64) -> OpRequest {
        OpRequest::new(EXCHANGE, Value::Int(v))
    }

    #[test]
    fn lone_exchange_always_fails() {
        let m = ExchangerModel::new(E);
        let w = Workload::new(vec![vec![exchange(3)]]);
        let mut rets = Vec::new();
        Explorer::new(&m, w).run(|e| {
            rets.push(e.history.operations()[0].ret);
        });
        assert!(!rets.is_empty());
        assert!(rets.iter().all(|&r| r == Value::Pair(false, 3)));
    }

    #[test]
    fn two_threads_can_swap_and_can_fail() {
        let m = ExchangerModel::new(E);
        let w = Workload::new(vec![vec![exchange(3)], vec![exchange(4)]]);
        let mut swapped = false;
        let mut failed = false;
        let stats = Explorer::new(&m, w).run(|e| {
            for op in e.history.operations() {
                match op.ret {
                    Value::Pair(true, _) => swapped = true,
                    Value::Pair(false, _) => failed = true,
                    _ => panic!("unexpected return {:?}", op.ret),
                }
            }
        });
        assert!(stats.paths > 1);
        assert!(swapped, "some interleaving must swap");
        assert!(failed, "some interleaving must fail");
    }

    #[test]
    fn every_interleaving_is_cal_and_trace_is_witness() {
        let m = ExchangerModel::new(E);
        let spec = ExchangerSpec::new(E);
        let w = Workload::new(vec![vec![exchange(3)], vec![exchange(4)], vec![exchange(7)]]);
        let mut execs = 0u64;
        Explorer::new(&m, w).run(|e| {
            execs += 1;
            // The logged trace is accepted by the spec…
            assert!(spec.accepts(&e.trace), "illegal trace {} for {}", e.trace, e.history);
            // …and explains the client-visible history.
            assert!(
                agrees_bool(&e.history, &e.trace),
                "trace {} does not explain history {}",
                e.trace,
                e.history
            );
            // Cross-check with the full CAL search.
            assert!(is_cal(&e.history, &spec).unwrap());
        });
        assert!(execs > 10);
    }

    #[test]
    fn swap_returns_cross_values() {
        let m = ExchangerModel::new(E);
        let w = Workload::new(vec![vec![exchange(3)], vec![exchange(4)]]);
        Explorer::new(&m, w).run(|e| {
            let ops = e.history.operations();
            if ops.iter().any(|o| matches!(o.ret, Value::Pair(true, _))) {
                // If anyone succeeded, both did, with crossed values.
                let a = ops.iter().find(|o| o.thread == ThreadId(0)).unwrap();
                let b = ops.iter().find(|o| o.thread == ThreadId(1)).unwrap();
                assert_eq!(a.ret, Value::Pair(true, 4));
                assert_eq!(b.ret, Value::Pair(true, 3));
            }
        });
    }

    #[test]
    fn sequential_back_to_back_exchanges_fail() {
        // One thread exchanging twice: no partner ever present.
        let m = ExchangerModel::new(E);
        let w = Workload::new(vec![vec![exchange(1), exchange(2)]]);
        Explorer::new(&m, w).run(|e| {
            assert!(e
                .history
                .operations()
                .iter()
                .all(|o| matches!(o.ret, Value::Pair(false, _))));
        });
    }

    #[test]
    fn g_is_cleared_after_all_operations_finish() {
        let m = ExchangerModel::new(E);
        let w = Workload::new(vec![vec![exchange(3)], vec![exchange(4)]]);
        Explorer::new(&m, w).run(|e| {
            // After a complete run, any published offer is matched or failed.
            if let Some(g) = e.final_shared.g {
                assert_ne!(e.final_shared.offers[g].hole, Hole::Null);
            }
        });
    }
}
