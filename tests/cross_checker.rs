//! Cross-checker differential suite against an independent reference. On
//! a sequential specification, CAL with every operation lifted to a
//! singleton element ([`SeqAsCa`]) and interval-linearizability with every
//! interval confined to one point ([`SeqAsInterval`]) both decide
//! classical linearizability. Both searches run on the shared kernel — the
//! engine, `HbRelation`'s minimal sets, symmetry classes, `FpMemo` — so a
//! kernel bug would agree with itself if they were compared only with each
//! other. Each is held instead to [`end_states`], a membership reference
//! written over nothing but `CaSpec::step` and Def. 3's real-time order, on
//! every generated history, accepted and rejected alike: the CAL search
//! sequentially and at 1, 2 and 4 threads with symmetry and memoization
//! each on and off, the interval search sequentially and in parallel.
//!
//! The CA-families are held to the same reference with elements of up to
//! their `max_element_size`: the exchanger and the synchronous queue, on
//! windows of fully-overlapping operations full of clones — the histories
//! symmetry reduction matches in one order — some legal by construction,
//! some with a swap nobody offered or one clone too many planted last.

use cal::core::check::{check_cal_with, CheckError, CheckOptions, CheckOutcome, Verdict};
use cal::core::gen::interleave;
use cal::core::interval::{check_interval_par_with, check_interval_with, SeqAsInterval};
use cal::core::par::check_cal_par_with;
use cal::core::spec::{CaSpec, SeqAsCa, SeqSpec};
use cal::core::{Action, CaElement, History, Method, ObjectId, Operation, ThreadId, Value};
use cal::specs::exchanger::{exchange_ok, ExchangerSpec};
use cal::specs::kv::KvMapSpec;
use cal::specs::register::{read_op, write_op, CounterSpec, RegisterSpec};
use cal::specs::stack::StackSpec;
use cal::specs::sync_queue::{
    put_timeout_element, take_timeout_element, transfer_element, SyncQueueSpec,
};
use cal::specs::vocab::TAKE;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{clone_windows, end_states, exchanger_shapes};

const O: ObjectId = ObjectId(0);

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
/// of cross-checker agreement.
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

/// The reference's verdict: is `h` CAL w.r.t. `spec`?
fn reference<S: CaSpec>(h: &History, spec: &S) -> bool {
    !end_states(spec, h.actions(), &[spec.initial()]).is_empty()
}

/// The CAL half of the oracle: the reference decides `h`, and the CAL
/// search returns that verdict in every configuration. Returns it.
fn assert_cal_agreement<S>(h: &History, ca: &S) -> &'static str
where
    S: CaSpec + Sync,
    S::State: Send + Sync,
{
    let expected = if reference(h, ca) { "accepted" } else { "rejected" };
    for symmetry in [true, false] {
        for memoize in [true, false] {
            let options = CheckOptions { symmetry, memoize, ..CheckOptions::default() };
            let what = format!("symmetry={symmetry} memoize={memoize}");
            let cal = category(&check_cal_with(h, ca, &options));
            assert_eq!(cal, expected, "CAL ({what}) vs the reference\nhistory:\n{h}");
            for threads in [1usize, 2, 4] {
                let par = CheckOptions { threads, ..options.clone() };
                let pcal = category(&check_cal_par_with(h, ca, &par));
                assert_eq!(pcal, expected, "CAL ({what} threads={threads})\nhistory:\n{h}");
            }
        }
    }
    expected
}

/// The oracle on a sequential spec: the CAL half over [`SeqAsCa`], and
/// every configuration of the interval search returns the same verdict.
fn assert_cross_agreement<S>(h: &History, spec: &S)
where
    S: SeqSpec + Clone + Sync,
    S::State: Send + Sync,
{
    let expected = assert_cal_agreement(h, &SeqAsCa::new(spec.clone()));
    let interval = SeqAsInterval::new(spec.clone());
    let seq = category(&check_interval_with(h, &interval, &CheckOptions::default()));
    assert_eq!(seq, expected, "interval vs the reference\nhistory:\n{h}");
    for threads in [1usize, 2, 4] {
        let par = CheckOptions { threads, ..CheckOptions::default() };
        let pinterval = category(&check_interval_par_with(h, &interval, &par));
        assert_eq!(pinterval, expected, "interval (threads={threads})\nhistory:\n{h}");
    }
}

/// Synchronous-queue elements over one value: transfers and timeouts.
fn sync_queue_shapes() -> Vec<CaElement> {
    let t = ThreadId;
    vec![
        transfer_element(O, t(0), 1, t(1)),
        transfer_element(O, t(0), 1, t(1)),
        put_timeout_element(O, t(0), 1),
        take_timeout_element(O, t(0)),
    ]
}

/// What a clone-window case plants in its last window: nothing (the
/// history is CAL), a swap nobody offered (one side got 101, which no call
/// offers: the history is not), or one clone too many (a success no
/// complete call is left to pair with — a pending one may be).
fn plant(which: u8, too_many: Operation) -> Vec<Operation> {
    let t = ThreadId(0);
    match which {
        0 => Vec::new(),
        1 => vec![exchange_ok(O, t, 100, 101), exchange_ok(O, t, 102, 100)],
        _ => vec![too_many],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exchanger_checkers_agree_on_clone_windows(
        seed in any::<u64>(), windows in 1usize..3, width in 1usize..4, which in 0u8..3,
    ) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let planted = plant(which, exchange_ok(O, ThreadId(0), 0, 0));
        let h = clone_windows(rng, windows, width, &exchanger_shapes(), &planted);
        let verdict = assert_cal_agreement(&h, &ExchangerSpec::new(O));
        if which < 2 {
            prop_assert_eq!(verdict == "accepted", which == 0, "{}", h);
        }
    }

    #[test]
    fn sync_queue_checkers_agree_on_clone_windows(
        seed in any::<u64>(), windows in 1usize..3, width in 1usize..4, which in 0u8..3,
    ) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let take = Operation::new(ThreadId(0), O, TAKE, Value::Unit, Value::Pair(true, 1));
        let planted = plant(which, take);
        let h = clone_windows(rng, windows, width, &sync_queue_shapes(), &planted);
        let verdict = assert_cal_agreement(&h, &SyncQueueSpec::new(O));
        if which < 2 {
            prop_assert_eq!(verdict == "accepted", which == 0, "{}", h);
        }
    }

    #[test]
    fn register_checkers_agree(h in history_of(arb_register_op())) {
        let spec = RegisterSpec::new(O).with_read_universe(vec![0, 1, 2]);
        assert_cross_agreement(&h, &spec);
    }

    #[test]
    fn counter_checkers_agree(h in history_of(arb_counter_op())) {
        assert_cross_agreement(&h, &CounterSpec::new(O));
    }

    #[test]
    fn stack_checkers_agree(h in history_of(arb_stack_op())) {
        assert_cross_agreement(&h, &StackSpec::failing(O));
    }
}

/// Fixed register histories with known verdicts, so the agreement suite
/// cannot vacuously pass on generator quirks — and so the reference is
/// itself held to an answer.
#[test]
fn fixed_register_histories_agree_with_known_verdicts() {
    let spec = RegisterSpec::new(O);
    let write = write_op(O, ThreadId(1), 5);
    let read = |v| read_op(O, ThreadId(2), v);
    let after = |r: Operation| {
        History::from_actions(vec![
            write.invocation(),
            write.response(),
            r.invocation(),
            r.response(),
        ])
    };
    let overlapping = |r: Operation| {
        History::from_actions(vec![
            write.invocation(),
            r.invocation(),
            write.response(),
            r.response(),
        ])
    };
    // The write never responds: it may take effect or be dropped.
    let pending = |r: Operation| {
        History::from_actions(vec![write.invocation(), r.invocation(), r.response()])
    };
    let cases = [
        ("read 5 after write 5", after(read(5)), true),
        ("stale read of 0 after write 5 completed", after(read(0)), false),
        ("read 0 overlapping write 5", overlapping(read(0)), true),
        ("read 5 overlapping write 5", overlapping(read(5)), true),
        ("read 3 overlapping write 5", overlapping(read(3)), false),
        ("read 0 beside a pending write 5", pending(read(0)), true),
        ("read 5 beside a pending write 5", pending(read(5)), true),
    ];
    for (what, h, linearizable) in cases {
        assert_eq!(reference(&h, &SeqAsCa::new(spec.clone())), linearizable, "{what}");
        assert_cross_agreement(&h, &spec);
    }
}

/// Two registers whose operations interleave, and a response with no
/// invocation.
#[test]
fn fixed_two_object_and_ill_formed_histories_have_known_verdicts() {
    let o1 = ObjectId(1);
    let spec = KvMapSpec::new();
    let ops = [
        write_op(O, ThreadId(1), 5),
        write_op(o1, ThreadId(2), 7),
        read_op(O, ThreadId(1), 5),
        read_op(o1, ThreadId(2), 7),
    ];
    let actions = ops.iter().flat_map(|op| [op.invocation(), op.response()]);
    let h = History::from_actions(actions.collect());
    assert!(reference(&h, &SeqAsCa::new(spec.clone())));
    assert_cross_agreement(&h, &spec);
    let ca = SeqAsCa::new(spec.clone());
    for threads in [1usize, 2, 4] {
        let options = CheckOptions { threads, ..CheckOptions::default() };
        let outcome = check_cal_par_with(&h, &ca, &options).unwrap();
        let witness = outcome.verdict.witness().expect("accepted");
        assert_eq!(witness.len(), 4, "threads={threads}");
        assert!(witness.elements().iter().all(|e| e.len() == 1), "threads={threads}");
    }

    let orphan = Action::response(ThreadId(1), O, Method("read"), Value::Int(0));
    let ill = History::from_actions(vec![orphan]);
    let options = CheckOptions { threads: 2, ..CheckOptions::default() };
    let interval = SeqAsInterval::new(spec);
    assert!(check_cal_with(&ill, &ca, &CheckOptions::default()).is_err());
    assert!(check_cal_par_with(&ill, &ca, &options).is_err());
    assert!(check_interval_with(&ill, &interval, &CheckOptions::default()).is_err());
    assert!(check_interval_par_with(&ill, &interval, &options).is_err());
}
