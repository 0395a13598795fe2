//! The causal-mode differential anchor: on **totally ordered** histories
//! — the happens-before relation instantiated as
//! [`HbRelation::real_time`] — causal mode must return exactly the CAL
//! verdict, for every shipped specification family, at 1, 2 and 4
//! threads. Causal mode is the same membership search with the order
//! relation swapped underneath; when the order *is* `≺H`, nothing may
//! change. Accepting runs additionally cross-validate their witness
//! through [`witness_explains_causal`], so agreement is on evidence, not
//! just on the verdict bit.

use cal::core::causal::{check_causal_with, witness_explains_causal};
use cal::core::check::{check_cal_with, CheckOptions, Verdict};
use cal::core::gen::interleave;
use cal::core::history::HbRelation;
use cal::core::spec::{CaSpec, SeqAsCa};
use cal::core::{Action, History, Method, ObjectId, ThreadId, Value};
use cal::specs::dual_stack::DualStackSpec;
use cal::specs::elim_array::ElimArraySpec;
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::kv::KvMapSpec;
use cal::specs::register::{CounterSpec, RegisterSpec};
use cal::specs::stack::StackSpec;
use cal::specs::sync_queue::SyncQueueSpec;
use proptest::prelude::*;

const O: ObjectId = ObjectId(0);

// --- history generation ----------------------------------------------------

/// One generated operation: object, method, argument, response value and
/// whether the final occurrence completes (earlier ops on a thread always
/// complete — only the last may stay pending).
type OpShape = (ObjectId, Method, Value, Value, bool);

fn arb_exchange_op() -> BoxedStrategy<OpShape> {
    (0i64..3, any::<bool>(), 0i64..3, any::<bool>())
        .prop_map(|(arg, ok, got, complete)| {
            (O, Method("exchange"), Value::Int(arg), Value::Pair(ok, got), complete)
        })
        .boxed()
}

fn arb_queue_op() -> BoxedStrategy<OpShape> {
    prop_oneof![
        (0i64..3, any::<bool>(), any::<bool>())
            .prop_map(|(v, ok, c)| (O, Method("put"), Value::Int(v), Value::Bool(ok), c)),
        (any::<bool>(), 0i64..3, any::<bool>())
            .prop_map(|(ok, v, c)| (O, Method("take"), Value::Unit, Value::Pair(ok, v), c)),
    ]
    .boxed()
}

fn arb_dual_stack_op() -> BoxedStrategy<OpShape> {
    prop_oneof![
        (0i64..3, any::<bool>())
            .prop_map(|(v, c)| (O, Method("push"), Value::Int(v), Value::Unit, c)),
        (0i64..3, any::<bool>())
            .prop_map(|(v, c)| (O, Method("pop"), Value::Unit, Value::Int(v), c)),
    ]
    .boxed()
}

fn arb_stack_op() -> BoxedStrategy<OpShape> {
    prop_oneof![
        (0i64..3, any::<bool>(), any::<bool>())
            .prop_map(|(v, ok, c)| (O, Method("push"), Value::Int(v), Value::Bool(ok), c)),
        (any::<bool>(), 0i64..3, any::<bool>()).prop_map(|(ok, v, c)| {
            // Failed pops report (false, 0).
            let v = if ok { v } else { 0 };
            (O, Method("pop"), Value::Unit, Value::Pair(ok, v), c)
        }),
    ]
    .boxed()
}

fn arb_register_op() -> BoxedStrategy<OpShape> {
    prop_oneof![
        (0i64..3, any::<bool>())
            .prop_map(|(v, c)| (O, Method("write"), Value::Int(v), Value::Unit, c)),
        (0i64..3, any::<bool>())
            .prop_map(|(v, c)| (O, Method("read"), Value::Unit, Value::Int(v), c)),
    ]
    .boxed()
}

fn arb_counter_op() -> BoxedStrategy<OpShape> {
    (0i64..4, any::<bool>())
        .prop_map(|(n, c)| (O, Method("inc"), Value::Unit, Value::Int(n), c))
        .boxed()
}

fn arb_kv_op() -> BoxedStrategy<OpShape> {
    prop_oneof![
        (0u32..2, 0i64..3, any::<bool>()).prop_map(|(k, v, c)| {
            (ObjectId(k), Method("write"), Value::Int(v), Value::Unit, c)
        }),
        (0u32..2, 0i64..3, any::<bool>()).prop_map(|(k, v, c)| {
            (ObjectId(k), Method("read"), Value::Unit, Value::Int(v), c)
        }),
    ]
    .boxed()
}

/// Builds a seeded interleaving of the per-thread programs — the same
/// construction `tests/engine_invariants.rs` uses, extended with
/// per-operation objects for the multi-key kv family.
fn build_history(threads: Vec<Vec<OpShape>>, seed: u64) -> History {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let lists: Vec<Vec<Action>> = threads
        .into_iter()
        .enumerate()
        .map(|(t, ops)| {
            let mut out = Vec::new();
            let n = ops.len();
            for (i, (obj, m, arg, ret, complete)) in ops.into_iter().enumerate() {
                out.push(Action::invoke(ThreadId(t as u32), obj, m, arg));
                if complete || i + 1 < n {
                    out.push(Action::response(ThreadId(t as u32), obj, m, ret));
                }
            }
            out
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    interleave(&lists, &mut rng)
}

fn history_of(op: impl Strategy<Value = OpShape>) -> impl Strategy<Value = History> {
    (prop::collection::vec(prop::collection::vec(op, 0..4), 1..4), any::<u64>())
        .prop_map(|(threads, seed)| build_history(threads, seed))
}

// --- the differential ------------------------------------------------------

/// Checks `h` against `spec` in CAL mode and in causal mode under the
/// real-time order, at 1, 2 and 4 threads, and asserts every decided
/// verdict agrees with the sequential CAL baseline. Causal acceptances
/// must come with a witness the causal oracle confirms.
fn assert_causal_matches_cal<S: CaSpec>(h: &History, spec: &S) {
    let hb = HbRelation::real_time(&h.spans());
    assert!(hb.is_real_time(), "the anchor order must be recognized as total");

    let baseline = check_cal_with(h, spec, &CheckOptions::default()).expect("well-formed").verdict;
    assert!(
        !baseline.is_undecided(),
        "CAL baseline must decide tiny instances, got {baseline:?}\nhistory:\n{h}"
    );

    for threads in [1usize, 2, 4] {
        let options = CheckOptions { threads, ..CheckOptions::default() };
        let cal = check_cal_with(h, spec, &options).expect("well-formed").verdict;
        let causal = check_causal_with(h, spec, &hb, &options).expect("well-formed").verdict;
        assert_eq!(
            baseline.is_cal(),
            cal.is_cal(),
            "CAL mode diverged from its own baseline at threads={threads}\nhistory:\n{h}"
        );
        assert_eq!(
            baseline.is_cal(),
            causal.is_cal(),
            "causal mode under real time diverged from CAL at threads={threads}: \
             {baseline:?} vs {causal:?}\nhistory:\n{h}"
        );
        if let Verdict::Cal(witness) = &causal {
            assert!(
                witness_explains_causal(h, spec, witness, &hb),
                "causal witness fails the oracle at threads={threads}\nhistory:\n{h}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn exchanger_family_agrees(h in history_of(arb_exchange_op())) {
        assert_causal_matches_cal(&h, &ExchangerSpec::new(O));
    }

    #[test]
    fn elim_array_family_agrees(h in history_of(arb_exchange_op())) {
        assert_causal_matches_cal(&h, &ElimArraySpec::new(O));
    }

    #[test]
    fn sync_queue_family_agrees(h in history_of(arb_queue_op())) {
        assert_causal_matches_cal(&h, &SyncQueueSpec::new(O));
    }

    #[test]
    fn dual_stack_family_agrees(h in history_of(arb_dual_stack_op())) {
        assert_causal_matches_cal(&h, &DualStackSpec::new(O));
    }

    #[test]
    fn stack_family_agrees(h in history_of(arb_stack_op())) {
        let spec = SeqAsCa::new(StackSpec::total(O).with_pop_universe(vec![0, 1, 2]));
        assert_causal_matches_cal(&h, &spec);
    }

    #[test]
    fn failing_stack_family_agrees(h in history_of(arb_stack_op())) {
        let spec = SeqAsCa::new(StackSpec::failing(O).with_pop_universe(vec![0, 1, 2]));
        assert_causal_matches_cal(&h, &spec);
    }

    #[test]
    fn register_family_agrees(h in history_of(arb_register_op())) {
        let spec = SeqAsCa::new(RegisterSpec::new(O).with_read_universe(vec![0, 1, 2]));
        assert_causal_matches_cal(&h, &spec);
    }

    #[test]
    fn counter_family_agrees(h in history_of(arb_counter_op())) {
        assert_causal_matches_cal(&h, &SeqAsCa::new(CounterSpec::new(O)));
    }

    #[test]
    fn kv_family_agrees(h in history_of(arb_kv_op())) {
        let spec = SeqAsCa::new(KvMapSpec::new().with_read_universe(vec![0, 1, 2]));
        assert_causal_matches_cal(&h, &spec);
    }
}
