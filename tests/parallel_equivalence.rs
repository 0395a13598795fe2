//! Differential testing of the check on several threads against the
//! check on one: for arbitrary generated histories and every
//! specification in `cal-specs`, `check_cal_with` at 2, 4 and 8 threads
//! must return the same verdict as at one — and, when the verdict is
//! CAL, a witness the sequential machinery validates
//! ([`witness_explains`]). The check splits a multi-object history by
//! object at every thread count, so there the reference is the
//! whole-history search (the spec with its locality hidden), and the
//! merged witness must be the same at every thread count. The paper's
//! pair objects and the register are held here behind `Searched`, which
//! hides the shape a matching or zones would decide them by: it is the
//! search that runs on several threads.

mod common;

use std::sync::Arc;

use cal::core::check::{check_cal_with, witness_explains, CheckOptions, Verdict};
use cal::core::gen::interleave;
use cal::core::spec::{CaSpec, Invocation, PerObject, Searched, SeqAsCa};
use cal::core::{Action, CaElement, History, Method, ObjectId, ThreadId, Value};
use cal::specs::dual_stack::DualStackSpec;
use cal::specs::elim_array::ElimArraySpec;
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::register::{CounterSpec, RegisterSpec};
use cal::specs::stack::StackSpec;
use cal::specs::sync_queue::SyncQueueSpec;
use common::EventCounter;
use proptest::prelude::*;

const O: ObjectId = ObjectId(0);
const O2: ObjectId = ObjectId(1);

/// One generated operation: method, argument, return value, and whether
/// the response is recorded (the last op of a thread may stay pending).
type OpShape = (Method, Value, Value, bool);

fn arb_exchange_op() -> BoxedStrategy<OpShape> {
    (0i64..3, any::<bool>(), 0i64..3, any::<bool>())
        .prop_map(|(arg, ok, got, complete)| {
            (Method("exchange"), Value::Int(arg), Value::Pair(ok, got), complete)
        })
        .boxed()
}

fn arb_stack_op() -> BoxedStrategy<OpShape> {
    prop_oneof![
        (0i64..3, any::<bool>(), any::<bool>())
            .prop_map(|(v, ok, c)| (Method("push"), Value::Int(v), Value::Bool(ok), c)),
        (any::<bool>(), 0i64..3, any::<bool>())
            .prop_map(|(ok, v, c)| (Method("pop"), Value::Unit, Value::Pair(ok, v), c)),
    ]
    .boxed()
}

fn arb_queue_op() -> BoxedStrategy<OpShape> {
    prop_oneof![
        (0i64..3, any::<bool>(), any::<bool>())
            .prop_map(|(v, ok, c)| (Method("put"), Value::Int(v), Value::Bool(ok), c)),
        (any::<bool>(), 0i64..3, any::<bool>())
            .prop_map(|(ok, v, c)| (Method("take"), Value::Unit, Value::Pair(ok, v), c)),
    ]
    .boxed()
}

fn arb_dual_op() -> BoxedStrategy<OpShape> {
    prop_oneof![
        (0i64..3, any::<bool>())
            .prop_map(|(v, c)| (Method("push"), Value::Int(v), Value::Unit, c)),
        (0i64..3, any::<bool>())
            .prop_map(|(v, c)| (Method("pop"), Value::Unit, Value::Int(v), c)),
    ]
    .boxed()
}

fn arb_register_op() -> BoxedStrategy<OpShape> {
    prop_oneof![
        (0i64..3, any::<bool>())
            .prop_map(|(v, c)| (Method("write"), Value::Int(v), Value::Unit, c)),
        (0i64..3, any::<bool>())
            .prop_map(|(v, c)| (Method("read"), Value::Unit, Value::Int(v), c)),
    ]
    .boxed()
}

fn arb_counter_op() -> BoxedStrategy<OpShape> {
    (0i64..4, any::<bool>())
        .prop_map(|(n, c)| (Method("inc"), Value::Unit, Value::Int(n), c))
        .boxed()
}

/// Builds a history: up to 3 threads × up to 3 ops, interleaved by seed.
/// `objects` maps each op to an object round-robin (1 = single-object).
fn build_history(threads: Vec<Vec<OpShape>>, seed: u64, objects: usize) -> History {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let lists: Vec<Vec<Action>> = threads
        .into_iter()
        .enumerate()
        .map(|(t, ops)| {
            let mut out = Vec::new();
            let n = ops.len();
            for (i, (m, arg, ret, complete)) in ops.into_iter().enumerate() {
                let obj = if objects > 1 { ObjectId((i % objects) as u32) } else { O };
                out.push(Action::invoke(ThreadId(t as u32), obj, m, arg));
                // Only the final op of a thread may stay pending.
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

fn history_of(
    op: impl Strategy<Value = OpShape>,
    objects: usize,
) -> impl Strategy<Value = History> {
    (
        prop::collection::vec(prop::collection::vec(op, 0..4), 1..4),
        any::<u64>(),
    )
        .prop_map(move |(threads, seed)| build_history(threads, seed, objects))
}

/// The category of a check result, ignoring the witness: enabling a
/// stats sink must never move a result between these buckets.
fn category(r: &Result<cal::core::check::CheckOutcome, cal::core::check::CheckError>) -> String {
    match r {
        Ok(o) => match &o.verdict {
            Verdict::Cal(_) => "cal".into(),
            Verdict::NotCal => "not-cal".into(),
            Verdict::ResourcesExhausted => "exhausted".into(),
            Verdict::Interrupted { reason } => format!("interrupted({reason:?})"),
        },
        Err(e) => format!("error({e:?})"),
    }
}

/// Re-runs a check with a stats sink attached and asserts the verdict
/// category is unchanged — observation must not perturb the search —
/// and that the sink saw one expansion for every node the checker's own
/// stats charged and no memo hit pruned, at every thread count.
fn assert_sink_is_inert<S: CaSpec>(
    h: &History,
    spec: &S,
    options: &CheckOptions,
    baseline: &Result<cal::core::check::CheckOutcome, cal::core::check::CheckError>,
) {
    let sink = Arc::new(EventCounter::default());
    let observed = check_cal_with(h, spec, &sink.attach(options));
    assert_eq!(
        category(baseline),
        category(&observed),
        "attaching a stats sink changed the verdict (threads={})\nhistory:\n{h}",
        options.threads,
    );
    if let Ok(outcome) = &observed {
        let what = format!("threads={}\nhistory:\n{h}", options.threads);
        sink.assert_one_frontier_per_expansion(&outcome.stats, &what);
    }
}

/// The core oracle: sequential and parallel checks agree on `h`, and
/// parallel CAL witnesses explain `h`. Panics on divergence.
fn assert_equivalent<S: CaSpec>(h: &History, spec: &S) {
    let seq = check_cal_with(h, spec, &CheckOptions::default());
    assert_parallel_matches(h, spec, &seq);
}

/// `check_cal_with` at 1, 2, 4 and 8 threads returns `reference`'s
/// verdict, with a witness that explains `h`.
fn assert_parallel_matches<S: CaSpec>(
    h: &History,
    spec: &S,
    reference: &Result<cal::core::check::CheckOutcome, cal::core::check::CheckError>,
) {
    for threads in [1usize, 2, 4, 8] {
        let par_options = CheckOptions { threads, ..CheckOptions::default() };
        let par = check_cal_with(h, spec, &par_options);
        assert_sink_is_inert(h, spec, &par_options, &par);
        match (reference, &par) {
            (Ok(s), Ok(p)) => match (&s.verdict, &p.verdict) {
                (Verdict::Cal(_), Verdict::Cal(w)) => {
                    assert!(
                        witness_explains(h, spec, w),
                        "threads={threads}: parallel witness not validated\nhistory:\n{h}\nwitness: {w}"
                    );
                }
                (Verdict::NotCal, Verdict::NotCal) => {}
                (a, b) => {
                    panic!("threads={threads}: sequential {a:?} vs parallel {b:?}\nhistory:\n{h}")
                }
            },
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => {
                panic!("threads={threads}: sequential {a:?} vs parallel {b:?}\nhistory:\n{h}")
            }
        }
    }
}

/// A specification with its locality hidden: `restrict` keeps its
/// default `None`, so every check of it searches the whole history.
#[derive(Debug)]
struct Whole<'a, S>(&'a S);

impl<S: CaSpec> CaSpec for Whole<'_, S> {
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

    fn may_join(
        &self,
        state: &S::State,
        next: &Invocation,
        members: impl Iterator<Item = Invocation>,
    ) -> bool {
        self.0.may_join(state, next, members)
    }
}

/// The multi-object oracle: the checker, which splits `h` by object at
/// every thread count, agrees with the whole-history search, and its
/// merged witness is the same at every thread count.
fn assert_decomposition_equivalent<S: CaSpec>(h: &History, spec: &S) {
    let whole = check_cal_with(h, &Whole(spec), &CheckOptions::default());
    assert_equivalent(h, spec);
    assert_parallel_matches(h, spec, &whole);
    let witness = |threads| {
        let options = CheckOptions { threads, ..CheckOptions::default() };
        let outcome = check_cal_with(h, spec, &options).ok()?;
        outcome.verdict.witness().map(ToString::to_string)
    };
    let one = witness(1);
    for threads in [2, 4, 8] {
        assert_eq!(witness(threads), one, "threads={threads}: witness moved\nhistory:\n{h}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exchanger_parallel_equivalent(h in history_of(arb_exchange_op(), 1)) {
        assert_equivalent(&h, &Searched(ExchangerSpec::new(O)));
    }

    #[test]
    fn elim_array_parallel_equivalent(h in history_of(arb_exchange_op(), 1)) {
        assert_equivalent(&h, &Searched(ElimArraySpec::new(O)));
    }

    #[test]
    fn sync_queue_parallel_equivalent(h in history_of(arb_queue_op(), 1)) {
        assert_equivalent(&h, &Searched(SyncQueueSpec::new(O)));
    }

    #[test]
    fn dual_stack_parallel_equivalent(h in history_of(arb_dual_op(), 1)) {
        assert_equivalent(&h, &DualStackSpec::with_timeouts(O));
    }

    #[test]
    fn stack_parallel_equivalent(h in history_of(arb_stack_op(), 1)) {
        let spec = SeqAsCa::new(StackSpec::failing(O).with_pop_universe(vec![0, 1, 2]));
        assert_equivalent(&h, &spec);
    }

    #[test]
    fn register_parallel_equivalent(h in history_of(arb_register_op(), 1)) {
        let spec = Searched(SeqAsCa::new(RegisterSpec::new(O).with_read_universe(vec![0, 1, 2])));
        assert_equivalent(&h, &spec);
    }

    #[test]
    fn counter_parallel_equivalent(h in history_of(arb_counter_op(), 1)) {
        assert_equivalent(&h, &SeqAsCa::new(CounterSpec::new(O)));
    }

    #[test]
    fn multi_object_decomposition_equivalent(h in history_of(arb_exchange_op(), 2)) {
        // Two independent exchangers: every thread count takes the
        // per-object path; the reference does not.
        let spec = PerObject::new(vec![
            (O, ExchangerSpec::new(O)),
            (O2, ExchangerSpec::new(O2)),
        ]);
        assert_decomposition_equivalent(&h, &spec);
    }

    #[test]
    fn multi_object_registers_equivalent(h in history_of(arb_register_op(), 2)) {
        let spec = PerObject::new(vec![
            (O, SeqAsCa::new(RegisterSpec::new(O).with_read_universe(vec![0, 1, 2]))),
            (O2, SeqAsCa::new(RegisterSpec::new(O2).with_read_universe(vec![0, 1, 2]))),
        ]);
        assert_decomposition_equivalent(&h, &spec);
    }
}
