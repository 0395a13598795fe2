//! Differential suite for the spec DSL: the `.cal` programs shipped in
//! `specs/` and their native Rust counterparts must decide identically.
//! Each family is driven over random histories and compared verdict-for-
//! verdict — sequentially and through the parallel entry point at 1, 2
//! and 4 threads — so the interpreter cannot silently diverge from the
//! hand-written specifications on any reachable code path (guards,
//! effects, element shapes, or pending-operation completions).

use std::sync::Arc;

use cal::core::check::{check_cal_with, CheckError, CheckOptions, CheckOutcome, Verdict};
use cal::core::dsl::{self, SpecDef};
use cal::core::gen::interleave;
use cal::core::spec::{CaSpec, SeqAsCa, SeqSpec};
use cal::core::{Action, History, Method, ObjectId, ThreadId, Value};
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::register::{CounterSpec, RegisterSpec};
use cal::specs::stack::StackSpec;
use cal::specs::sync_queue::SyncQueueSpec;
use proptest::prelude::*;

const O: ObjectId = ObjectId(0);

/// Compiles one shipped `.cal` file and returns its single spec. The
/// sources are embedded at compile time so the suite cannot pass against
/// stale copies.
fn shipped(name: &str) -> Arc<SpecDef> {
    let src = match name {
        "register" => include_str!("../specs/register.cal"),
        "counter" => include_str!("../specs/counter.cal"),
        "stack" => include_str!("../specs/stack.cal"),
        "exchanger" => include_str!("../specs/exchanger.cal"),
        "sync_queue" => include_str!("../specs/sync_queue.cal"),
        other => panic!("no shipped spec named {other}"),
    };
    let file = dsl::parse_str(src).unwrap_or_else(|d| panic!("specs/{name}.cal: {d}"));
    Arc::clone(file.get(name).unwrap_or_else(|| panic!("specs/{name}.cal does not define {name}")))
}

/// One generated operation: method, argument, return value, and whether
/// the response is recorded (the last op of a thread may stay pending).
type OpShape = (Method, Value, Value, bool);

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

fn arb_stack_op() -> BoxedStrategy<OpShape> {
    prop_oneof![
        (0i64..3, any::<bool>(), any::<bool>())
            .prop_map(|(v, ok, c)| (Method("push"), Value::Int(v), Value::Bool(ok), c)),
        (any::<bool>(), 0i64..3, any::<bool>())
            .prop_map(|(ok, v, c)| (Method("pop"), Value::Unit, Value::Pair(ok, v), c)),
    ]
    .boxed()
}

fn arb_exchanger_op() -> BoxedStrategy<OpShape> {
    (0i64..3, any::<bool>(), 0i64..3, any::<bool>())
        .prop_map(|(v, ok, got, c)| {
            (Method("exchange"), Value::Int(v), Value::Pair(ok, got), c)
        })
        .boxed()
}

fn arb_sync_queue_op() -> BoxedStrategy<OpShape> {
    prop_oneof![
        (0i64..3, any::<bool>(), any::<bool>())
            .prop_map(|(v, ok, c)| (Method("put"), Value::Int(v), Value::Bool(ok), c)),
        (any::<bool>(), 0i64..3, any::<bool>())
            .prop_map(|(ok, v, c)| (Method("take"), Value::Unit, Value::Pair(ok, v), c)),
    ]
    .boxed()
}

/// Builds a history: up to 3 threads × up to 3 ops on one object,
/// interleaved by seed.
fn build_history(threads: Vec<Vec<OpShape>>, seed: u64) -> History {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let lists: Vec<Vec<Action>> = threads
        .into_iter()
        .enumerate()
        .map(|(t, ops)| {
            let mut out = Vec::new();
            let n = ops.len();
            for (i, (m, arg, ret, complete)) in ops.into_iter().enumerate() {
                out.push(Action::invoke(ThreadId(t as u32), O, m, arg));
                // Only the final op of a thread may stay pending.
                if complete || i + 1 < n {
                    out.push(Action::response(ThreadId(t as u32), O, m, ret));
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

/// The bucket of a check result, ignoring the witness payload — the unit
/// of DSL/native agreement.
fn category<W>(r: &Result<CheckOutcome<W>, CheckError>) -> String {
    match r {
        Ok(o) => match &o.verdict {
            Verdict::Cal(_) => "accepted".into(),
            Verdict::NotCal => "rejected".into(),
            Verdict::ResourcesExhausted => "exhausted".into(),
            Verdict::Interrupted { reason } => format!("interrupted({reason:?})"),
        },
        Err(e) => format!("error({e:?})"),
    }
}

/// The oracle for concurrency-aware families: the interpreted spec and
/// the native one agree under the CAL checker, sequentially and in
/// parallel at 1, 2 and 4 threads.
fn assert_ca_agreement<S: CaSpec + Clone>(h: &History, name: &str, native: &S) {
    let def = shipped(name);
    let interpreted = def.to_ca(O);
    let options = CheckOptions::default();
    let want = category(&check_cal_with(h, native, &options));
    let got = category(&check_cal_with(h, &interpreted, &options));
    assert_eq!(want, got, "{name}: DSL vs native diverge\nhistory:\n{h}");
    for threads in [1usize, 2, 4] {
        let par = CheckOptions { threads, ..CheckOptions::default() };
        let pgot = category(&check_cal_with(h, &interpreted, &par));
        assert_eq!(want, pgot, "{name}: threads={threads}: parallel DSL diverged\nhistory:\n{h}");
    }
}

/// The oracle for sequential families: the interpreted spec agrees with
/// the native one under the CAL checker with singleton lifting — both its
/// sequential reading lifted by [`SeqAsCa`] and its own CA reading, which
/// is what `--mode cal` and `--mode seq` check a loaded `kind seq` spec
/// with — sequentially and in parallel.
fn assert_seq_agreement<S: SeqSpec + Clone>(h: &History, name: &str, native: &S) {
    let def = shipped(name);
    let lifted = SeqAsCa::new(def.to_seq(O).expect("shipped seq spec has a sequential reading"));
    let own = def.to_ca(O);
    let options = CheckOptions::default();
    let want = category(&check_cal_with(h, &SeqAsCa::new(native.clone()), &options));
    let got = category(&check_cal_with(h, &lifted, &options));
    assert_eq!(want, got, "{name}: DSL vs native diverge (seq reading)\nhistory:\n{h}");
    let got_ca = category(&check_cal_with(h, &own, &options));
    assert_eq!(want, got_ca, "{name}: DSL vs native diverge (CA reading)\nhistory:\n{h}");
    for threads in [1usize, 2, 4] {
        let par = CheckOptions { threads, ..CheckOptions::default() };
        let pseq = category(&check_cal_with(h, &lifted, &par));
        let pca = category(&check_cal_with(h, &own, &par));
        assert_eq!(want, pseq, "{name}: threads={threads}: seq reading diverged\nhistory:\n{h}");
        assert_eq!(want, pca, "{name}: threads={threads}: CA reading diverged\nhistory:\n{h}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn register_dsl_matches_native(h in history_of(arb_register_op())) {
        assert_seq_agreement(&h, "register", &RegisterSpec::new(O));
    }

    #[test]
    fn counter_dsl_matches_native(h in history_of(arb_counter_op())) {
        assert_seq_agreement(&h, "counter", &CounterSpec::new(O));
    }

    #[test]
    fn stack_dsl_matches_native(h in history_of(arb_stack_op())) {
        assert_seq_agreement(&h, "stack", &StackSpec::total(O));
    }

    #[test]
    fn exchanger_dsl_matches_native(h in history_of(arb_exchanger_op())) {
        assert_ca_agreement(&h, "exchanger", &ExchangerSpec::new(O));
    }

    #[test]
    fn sync_queue_dsl_matches_native(h in history_of(arb_sync_queue_op())) {
        assert_ca_agreement(&h, "sync_queue", &SyncQueueSpec::new(O));
    }
}

/// Fixed histories with known verdicts, so the agreement suite cannot
/// vacuously pass on generator quirks.
#[test]
fn fixed_exchanger_histories_have_known_verdicts() {
    let def = shipped("exchanger");
    let spec = def.to_ca(O);
    let options = CheckOptions::default();
    let m = Method("exchange");
    // Fig. 1: two concurrent exchanges swapping 3 and 4 — accepted.
    let good = History::from_actions(vec![
        Action::invoke(ThreadId(1), O, m, Value::Int(3)),
        Action::invoke(ThreadId(2), O, m, Value::Int(4)),
        Action::response(ThreadId(1), O, m, Value::Pair(true, 4)),
        Action::response(ThreadId(2), O, m, Value::Pair(true, 3)),
    ]);
    assert_eq!(category(&check_cal_with(&good, &spec, &options)), "accepted");
    // A sequential "swap" has no concurrent peer — rejected.
    let bad = History::from_actions(vec![
        Action::invoke(ThreadId(1), O, m, Value::Int(3)),
        Action::response(ThreadId(1), O, m, Value::Pair(true, 4)),
        Action::invoke(ThreadId(2), O, m, Value::Int(4)),
        Action::response(ThreadId(2), O, m, Value::Pair(true, 3)),
    ]);
    assert_eq!(category(&check_cal_with(&bad, &spec, &options)), "rejected");
}

#[test]
fn fixed_stack_histories_have_known_verdicts() {
    let def = shipped("stack");
    let spec = SeqAsCa::new(def.to_seq(O).unwrap());
    let options = CheckOptions::default();
    let (push, pop) = (Method("push"), Method("pop"));
    // push 1; push 2; pop -> (true, 2) — LIFO, accepted.
    let good = History::from_actions(vec![
        Action::invoke(ThreadId(1), O, push, Value::Int(1)),
        Action::response(ThreadId(1), O, push, Value::Bool(true)),
        Action::invoke(ThreadId(1), O, push, Value::Int(2)),
        Action::response(ThreadId(1), O, push, Value::Bool(true)),
        Action::invoke(ThreadId(1), O, pop, Value::Unit),
        Action::response(ThreadId(1), O, pop, Value::Pair(true, 2)),
    ]);
    assert_eq!(category(&check_cal_with(&good, &spec, &options)), "accepted");
    // pop -> (true, 1) after pushing only 2 — FIFO order, rejected.
    let bad = History::from_actions(vec![
        Action::invoke(ThreadId(1), O, push, Value::Int(1)),
        Action::response(ThreadId(1), O, push, Value::Bool(true)),
        Action::invoke(ThreadId(1), O, push, Value::Int(2)),
        Action::response(ThreadId(1), O, push, Value::Bool(true)),
        Action::invoke(ThreadId(1), O, pop, Value::Unit),
        Action::response(ThreadId(1), O, pop, Value::Pair(true, 1)),
    ]);
    assert_eq!(category(&check_cal_with(&bad, &spec, &options)), "rejected");
}
