//! Cross-checker differential suite against independent references. Both
//! readings run the one CA search — the engine, `HbRelation`'s minimal
//! sets, symmetry classes, `FpMemo` — so a kernel bug would agree with
//! itself if they were compared only with each other. Each is held instead
//! to a reference written over nothing but the specification's `step` and
//! Def. 3's real-time order, on every generated history, accepted and
//! rejected alike, at 1, 2 and 4 threads with symmetry and memoization
//! each on and off:
//!
//! - CAL to [`end_states`], on sequential specs lifted to singleton
//!   elements ([`SeqAsCa`]) and on the CA-families with elements of up to
//!   their `max_element_size` — the exchanger, the synchronous queue, the
//!   elimination array and the dual stack, on windows of fully-overlapping
//!   operations full of clones (the histories symmetry reduction matches
//!   in one order), some legal by construction, some with an operation
//!   nobody offered or one clone too many planted last;
//! - interval-linearizability (the CA search over split operations) to
//!   [`interval_end_states`], which never splits anything, every accepted
//!   witness replayed by [`replay_interval`]: on the sequential families
//!   confined to one-point intervals ([`SeqAsInterval`], which must also
//!   agree with CAL), on write-snapshot histories with pending calls, on a
//!   snapshot whose pending calls complete, and on a spec whose return
//!   value is the length of the operation's interval.

use cal::core::check::{check_cal_with, CheckError, CheckOptions, CheckOutcome, Verdict};
use cal::core::gen::interleave;
use cal::core::interval::{IntervalSpec, SeqAsInterval};
use cal::core::spec::{CaSpec, Invocation, Searched, SeqAsCa, SeqSpec};
use cal::core::{Action, CaElement, History, Method, ObjectId, Operation, ThreadId, Value};
use cal::specs::dual_stack::{dual_pop_op, fulfillment_element, DualStackSpec};
use cal::specs::elim_array::ElimArraySpec;
use cal::specs::exchanger::{exchange_ok, ExchangerSpec};
use cal::specs::kv::KvMapSpec;
use cal::specs::register::{read_op, write_op, CounterSpec, RegisterSpec};
use cal::specs::registry::run_interval;
use cal::specs::snapshot::{WriteSnapshotSpec, WRITE_SNAPSHOT};
use cal::specs::stack::StackSpec;
use cal::specs::sync_queue::{
    put_timeout_element, take_timeout_element, transfer_element, SyncQueueSpec,
};
use cal::specs::vocab::{CANCEL_SENTINEL, TAKE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{
    clone_windows, end_states, exchanger_shapes, interval_end_states, replay_interval,
};

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

/// `write_snapshot(v) ▷ view` over values 0..3 and views over them.
fn arb_snapshot_op() -> BoxedStrategy<OpShape> {
    (0i64..3, 0i64..8, any::<bool>())
        .prop_map(|(v, view, c)| (WRITE_SNAPSHOT, Value::Int(v), Value::Int(view), c))
        .boxed()
}

/// `tick() ▷ n`: claims its interval is `n` points long.
fn arb_tick_op() -> BoxedStrategy<OpShape> {
    (1i64..4, any::<bool>()).prop_map(|(n, c)| (TICK, Value::Unit, Value::Int(n), c)).boxed()
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
/// search returns that verdict in every configuration — the search, so
/// the spec goes behind [`Searched`], which hides a shape zones or a
/// matching would decide. Returns it.
fn assert_cal_agreement<S: CaSpec + Clone>(h: &History, spec: &S) -> &'static str {
    let expected = if reference(h, spec) { "accepted" } else { "rejected" };
    let ca = &Searched(spec.clone());
    for symmetry in [true, false] {
        for memoize in [true, false] {
            let options = CheckOptions { symmetry, memoize, ..CheckOptions::default() };
            let what = format!("symmetry={symmetry} memoize={memoize}");
            let cal = category(&check_cal_with(h, ca, &options));
            assert_eq!(cal, expected, "CAL ({what}) vs the reference\nhistory:\n{h}");
            for threads in [1usize, 2, 4] {
                let par = CheckOptions { threads, ..options.clone() };
                let pcal = category(&check_cal_with(h, ca, &par));
                assert_eq!(pcal, expected, "CAL ({what} threads={threads})\nhistory:\n{h}");
            }
        }
    }
    expected
}

/// The interval half of the oracle: the reference decides `h`, and
/// `run_interval` returns that verdict in every configuration, every
/// witness it accepts with replaying. Returns the verdict.
fn assert_interval_agreement<S: IntervalSpec>(h: &History, spec: &S) -> &'static str {
    let expected =
        if interval_end_states(spec, h).is_empty() { "rejected" } else { "accepted" };
    for symmetry in [true, false] {
        for memoize in [true, false] {
            for threads in [1usize, 2, 4] {
                let options = CheckOptions { symmetry, memoize, threads, ..CheckOptions::default() };
                let what = format!("symmetry={symmetry} memoize={memoize} threads={threads}");
                let outcome = run_interval(h, spec, &options);
                assert_eq!(category(&outcome), expected, "interval ({what})\nhistory:\n{h}");
                if let Ok(CheckOutcome { verdict: Verdict::Cal(witness), .. }) = &outcome {
                    if let Err(e) = replay_interval(spec, h, witness) {
                        panic!("interval ({what}): {e}\nwitness: {witness}\nhistory:\n{h}");
                    }
                }
            }
        }
    }
    expected
}

/// The oracle on a sequential spec: the CAL half over [`SeqAsCa`], the
/// interval half over [`SeqAsInterval`], and the two verdicts equal.
fn assert_cross_agreement<S: SeqSpec + Clone>(h: &History, spec: &S) {
    let cal = assert_cal_agreement(h, &SeqAsCa::new(spec.clone()));
    let interval = assert_interval_agreement(h, &SeqAsInterval::new(spec.clone()));
    assert_eq!(interval, cal, "one-point intervals vs singleton elements\nhistory:\n{h}");
}

/// [`WriteSnapshotSpec`] whose pending calls complete — with the view of
/// every value, so a pending write that opens can close only once all
/// three values are written, or its interval never closes.
#[derive(Debug, Clone, Copy)]
struct CompletingSnapshot(WriteSnapshotSpec);

impl IntervalSpec for CompletingSnapshot {
    type State = i64;

    fn initial(&self) -> i64 {
        self.0.initial()
    }

    fn step(
        &self,
        state: &i64,
        active: &[Operation],
        opening: &[Operation],
        closing: &[Operation],
    ) -> Option<i64> {
        self.0.step(state, active, opening, closing)
    }

    fn max_active(&self) -> usize {
        self.0.max_active()
    }

    fn completions_of(&self, _inv: &Invocation) -> Vec<Value> {
        vec![Value::Int(0b111)]
    }
}

const TICK: Method = Method("tick");

/// `tick() ▷ n` returns the number of points its interval spans: a spec
/// that tells every interval's length apart, so clone operations must be
/// free to open and close in either order.
#[derive(Debug, Clone, Copy)]
struct IntervalLength;

impl IntervalSpec for IntervalLength {
    /// Every active operation with the points it has spanned so far.
    type State = Vec<(Operation, i64)>;

    fn initial(&self) -> Self::State {
        Vec::new()
    }

    fn step(
        &self,
        state: &Self::State,
        active: &[Operation],
        opening: &[Operation],
        closing: &[Operation],
    ) -> Option<Self::State> {
        let mut next = Vec::with_capacity(active.len());
        for op in active {
            let so_far = state.iter().find(|(o, _)| o == op).map(|&(_, n)| n);
            if op.method != TICK || so_far.is_some() == opening.contains(op) {
                return None;
            }
            let length = so_far.unwrap_or(0) + 1;
            if !closing.contains(op) {
                next.push((*op, length));
            } else if op.ret != Value::Int(length) {
                return None;
            }
        }
        next.sort();
        Some(next)
    }

    fn max_active(&self) -> usize {
        usize::MAX
    }

    fn completions_of(&self, _inv: &Invocation) -> Vec<Value> {
        vec![Value::Int(1), Value::Int(2)]
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

/// Dual-stack elements that leave the data stack as they found it, so
/// that any order of them is legal: fulfillments of two values, one of
/// them twice, and a timed-out reservation.
fn dual_stack_shapes() -> Vec<CaElement> {
    let t = ThreadId;
    vec![
        fulfillment_element(O, t(0), 0, t(1)),
        fulfillment_element(O, t(0), 0, t(1)),
        fulfillment_element(O, t(0), 1, t(1)),
        CaElement::singleton(dual_pop_op(O, t(0), CANCEL_SENTINEL)),
    ]
}

/// What a clone-window case plants in its last window: nothing (the
/// history is CAL), `unoffered` — operations answered with a value no call
/// offers (the history is not) — or one clone too many (a success no
/// complete call is left to pair with; a pending one may be).
fn plant(which: u8, unoffered: &[Operation], too_many: Operation) -> Vec<Operation> {
    match which {
        0 => Vec::new(),
        1 => unoffered.to_vec(),
        _ => vec![too_many],
    }
}

/// A swap nobody offered: one side got 101, which no call offers.
fn unoffered_swap() -> [Operation; 2] {
    let t = ThreadId(0);
    [exchange_ok(O, t, 100, 101), exchange_ok(O, t, 102, 100)]
}

/// Holds a CA-family to the reference on one clone-window case, and a
/// legal or unoffered plant to its known verdict.
fn assert_clone_window<S: CaSpec + Clone>(spec: &S, h: &History, which: u8) {
    let verdict = assert_cal_agreement(h, spec);
    if which < 2 {
        assert_eq!(verdict == "accepted", which == 0, "{h}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exchanger_checkers_agree_on_clone_windows(
        seed in any::<u64>(), windows in 1usize..3, width in 1usize..4, which in 0u8..3,
    ) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let planted = plant(which, &unoffered_swap(), exchange_ok(O, ThreadId(0), 0, 0));
        let h = clone_windows(rng, windows, width, &exchanger_shapes(), &planted);
        assert_clone_window(&ExchangerSpec::new(O), &h, which);
    }

    #[test]
    fn elim_array_checkers_agree_on_clone_windows(
        seed in any::<u64>(), windows in 1usize..3, width in 1usize..4, which in 0u8..3,
    ) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let planted = plant(which, &unoffered_swap(), exchange_ok(O, ThreadId(0), 1, 0));
        let h = clone_windows(rng, windows, width, &exchanger_shapes(), &planted);
        assert_clone_window(&ElimArraySpec::new(O), &h, which);
    }

    #[test]
    fn sync_queue_checkers_agree_on_clone_windows(
        seed in any::<u64>(), windows in 1usize..3, width in 1usize..4, which in 0u8..3,
    ) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let take = Operation::new(ThreadId(0), O, TAKE, Value::Unit, Value::Pair(true, 1));
        let planted = plant(which, &unoffered_swap(), take);
        let h = clone_windows(rng, windows, width, &sync_queue_shapes(), &planted);
        assert_clone_window(&SyncQueueSpec::new(O), &h, which);
    }

    #[test]
    fn dual_stack_checkers_agree_on_clone_windows(
        seed in any::<u64>(), windows in 1usize..3, width in 1usize..4, which in 0u8..3,
    ) {
        let rng = &mut StdRng::seed_from_u64(seed);
        // A pop of a value nobody pushes; a pop one push short.
        let unoffered = [dual_pop_op(O, ThreadId(0), 101)];
        let planted = plant(which, &unoffered, dual_pop_op(O, ThreadId(0), 0));
        let h = clone_windows(rng, windows, width, &dual_stack_shapes(), &planted);
        assert_clone_window(&DualStackSpec::with_timeouts(O), &h, which);
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

    #[test]
    fn write_snapshot_checkers_agree(h in history_of(arb_snapshot_op())) {
        // Bounded below the three threads' peak concurrency, and unbounded.
        for max_active in [2, usize::MAX] {
            assert_interval_agreement(&h, &WriteSnapshotSpec::new(O, max_active));
        }
    }

    #[test]
    fn completing_snapshot_checkers_agree(h in history_of(arb_snapshot_op())) {
        assert_interval_agreement(&h, &CompletingSnapshot(WriteSnapshotSpec::new(O, usize::MAX)));
    }

    #[test]
    fn interval_length_checkers_agree(h in history_of(arb_tick_op())) {
        assert_interval_agreement(&h, &IntervalLength);
    }

    #[test]
    fn interval_length_checkers_agree_on_clone_windows(
        seed in any::<u64>(), windows in 1usize..3, width in 1usize..4,
    ) {
        // Windows full of clone ticks, whose intervals must be free to
        // overlap in any order: two concurrent `tick() ▷ 3` need it.
        let ticks: Vec<CaElement> = (1..4)
            .map(|n| Operation::new(ThreadId(0), O, TICK, Value::Unit, Value::Int(n)))
            .map(CaElement::singleton)
            .collect();
        let h = clone_windows(&mut StdRng::seed_from_u64(seed), windows, width, &ticks, &[]);
        assert_interval_agreement(&h, &IntervalLength);
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
        let outcome = check_cal_with(&h, &ca, &options).unwrap();
        let witness = outcome.verdict.witness().expect("accepted");
        assert_eq!(witness.len(), 4, "threads={threads}");
        assert!(witness.elements().iter().all(|e| e.len() == 1), "threads={threads}");
    }

    let orphan = Action::response(ThreadId(1), O, Method("read"), Value::Int(0));
    let ill = History::from_actions(vec![orphan]);
    let options = CheckOptions { threads: 2, ..CheckOptions::default() };
    let interval = SeqAsInterval::new(spec);
    assert!(check_cal_with(&ill, &ca, &CheckOptions::default()).is_err());
    assert!(check_cal_with(&ill, &ca, &options).is_err());
    for options in [CheckOptions::default(), options] {
        let outcome = run_interval(&ill, &interval, &options);
        assert!(matches!(outcome, Err(CheckError::IllFormed(_))), "{outcome:?}");
    }
}
