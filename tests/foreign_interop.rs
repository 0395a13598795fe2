//! Foreign-format interop: round-trip differential tests and parser
//! robustness.
//!
//! Round trip: serialize a generated native history to the jepsen (and,
//! for register-shaped histories, kvlog) wire format, sniff it, parse it
//! back, and require the *identical* `History` — and therefore identical
//! verdicts, re-checked at 1, 2 and 4 threads against the family's spec.
//! Every spec family the repo ships is covered: exchanger and sync-queue
//! (genuinely concurrency-aware), stack, register, counter and kv
//! (sequential specs lifted through [`SeqAsCa`]).
//!
//! Robustness: seeded byte mutations of valid foreign traces, plus a
//! fuzz corpus of hand-picked nasty inputs, must parse to either a valid
//! history or a line-anchored [`FormatError`] — never a panic. Whatever
//! parses is then checked under a small budget, which must also not
//! panic.

use cal::core::check::{check_cal_with, CheckError, CheckOptions, CheckOutcome, Verdict};
use cal::core::format::{detect, format_jepsen, format_kvlog, parse_as, Format};
use cal::core::gen::{interleave, render_loose};
use cal::core::spec::{CaSpec, SeqAsCa};
use cal::core::{Action, History, Method, ObjectId, ThreadId, Value};
use cal::specs::gen::{random_exchanger_trace, random_sync_queue_trace};
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::kv::KvMapSpec;
use cal::specs::register::{CounterSpec, RegisterSpec};
use cal::specs::stack::StackSpec;
use cal::specs::sync_queue::SyncQueueSpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const O: ObjectId = ObjectId(0);

/// One generated operation: method, key, argument, return value, and
/// whether the response is recorded (only a thread's last op may stay
/// pending).
type OpShape = (Method, ObjectId, Value, Value, bool);

fn arb_register_op() -> BoxedStrategy<OpShape> {
    prop_oneof![
        (0i64..3, any::<bool>())
            .prop_map(|(v, c)| (Method("write"), O, Value::Int(v), Value::Unit, c)),
        (0i64..3, any::<bool>())
            .prop_map(|(v, c)| (Method("read"), O, Value::Unit, Value::Int(v), c)),
    ]
    .boxed()
}

fn arb_counter_op() -> BoxedStrategy<OpShape> {
    (0i64..4, any::<bool>())
        .prop_map(|(n, c)| (Method("inc"), O, Value::Unit, Value::Int(n), c))
        .boxed()
}

fn arb_stack_op() -> BoxedStrategy<OpShape> {
    prop_oneof![
        (0i64..3, any::<bool>(), any::<bool>())
            .prop_map(|(v, ok, c)| (Method("push"), O, Value::Int(v), Value::Bool(ok), c)),
        (any::<bool>(), 0i64..3, any::<bool>())
            .prop_map(|(ok, v, c)| (Method("pop"), O, Value::Unit, Value::Pair(ok, v), c)),
    ]
    .boxed()
}

fn arb_kv_op() -> BoxedStrategy<OpShape> {
    (0u32..2, any::<bool>(), 0i64..3, any::<bool>())
        .prop_map(|(k, is_write, v, c)| {
            let key = ObjectId(k);
            if is_write {
                (Method("write"), key, Value::Int(v), Value::Unit, c)
            } else {
                (Method("read"), key, Value::Unit, Value::Int(v), c)
            }
        })
        .boxed()
}

/// Builds a history from per-thread op lists, interleaved by seed.
fn build_history(threads: Vec<Vec<OpShape>>, seed: u64) -> History {
    let lists: Vec<Vec<Action>> = threads
        .into_iter()
        .enumerate()
        .map(|(t, ops)| {
            let mut out = Vec::new();
            let n = ops.len();
            for (i, (m, key, arg, ret, complete)) in ops.into_iter().enumerate() {
                out.push(Action::invoke(ThreadId(t as u32), key, m, arg));
                if complete || i + 1 < n {
                    out.push(Action::response(ThreadId(t as u32), key, m, ret));
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

fn exchanger_history() -> impl Strategy<Value = History> {
    (any::<u64>(), 2u32..5, 1usize..4, 0usize..6).prop_map(|(seed, threads, elements, moves)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = random_exchanger_trace(&mut rng, O, threads, elements);
        render_loose(&trace, &mut rng, moves)
    })
}

fn sync_queue_history() -> impl Strategy<Value = History> {
    (any::<u64>(), 2u32..5, 1usize..4, 0usize..6).prop_map(|(seed, threads, elements, moves)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = random_sync_queue_trace(&mut rng, O, threads, elements);
        render_loose(&trace, &mut rng, moves)
    })
}

/// The verdict bucket, ignoring the witness payload.
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

/// Serializes `h` in `format`, sniffs it, parses it back, and requires
/// the identical history; then re-checks the parsed copy against `spec`
/// at 1, 2 and 4 threads and requires the native verdict each time.
fn assert_round_trip<S: CaSpec>(h: &History, format: Format, spec: &S) {
    let wire = match format {
        Format::Jepsen => format_jepsen(h),
        Format::KvLog => {
            format_kvlog(h).unwrap_or_else(|e| panic!("kvlog cannot express:\n{h}\n{e}"))
        }
        Format::Native => cal::core::text::format_history(h),
    };
    if !wire.trim().is_empty() {
        assert_eq!(detect(&wire), format, "sniffing misread the wire:\n{wire}");
    }
    let back = parse_as(format, &wire)
        .unwrap_or_else(|e| panic!("round-trip parse failed: {e}\nwire:\n{wire}"));
    assert_eq!(back, *h, "round trip through {format:?} changed the history\nwire:\n{wire}");
    let options = CheckOptions::default();
    let native = category(&check_cal_with(h, spec, &options));
    for threads in [1usize, 2, 4] {
        let par = CheckOptions { threads, ..CheckOptions::default() };
        let foreign = category(&check_cal_with(&back, spec, &par));
        assert_eq!(
            native, foreign,
            "threads={threads}: verdict changed across the {format:?} round trip\nwire:\n{wire}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn register_round_trips_through_jepsen(h in history_of(arb_register_op())) {
        let spec = SeqAsCa::new(RegisterSpec::new(O).with_read_universe(vec![0, 1, 2]));
        assert_round_trip(&h, Format::Jepsen, &spec);
    }

    #[test]
    fn register_round_trips_through_kvlog(h in history_of(arb_register_op())) {
        let spec = SeqAsCa::new(RegisterSpec::new(O).with_read_universe(vec![0, 1, 2]));
        assert_round_trip(&h, Format::KvLog, &spec);
    }

    #[test]
    fn counter_round_trips_through_jepsen(h in history_of(arb_counter_op())) {
        assert_round_trip(&h, Format::Jepsen, &SeqAsCa::new(CounterSpec::new(O)));
    }

    #[test]
    fn stack_round_trips_through_jepsen(h in history_of(arb_stack_op())) {
        assert_round_trip(&h, Format::Jepsen, &SeqAsCa::new(StackSpec::failing(O)));
    }

    #[test]
    fn kv_round_trips_through_jepsen(h in history_of(arb_kv_op())) {
        assert_round_trip(&h, Format::Jepsen, &SeqAsCa::new(KvMapSpec::new()));
    }

    #[test]
    fn kv_round_trips_through_kvlog(h in history_of(arb_kv_op())) {
        assert_round_trip(&h, Format::KvLog, &SeqAsCa::new(KvMapSpec::new()));
    }

    #[test]
    fn exchanger_round_trips_through_jepsen(h in exchanger_history()) {
        assert_round_trip(&h, Format::Jepsen, &ExchangerSpec::new(O));
    }

    #[test]
    fn sync_queue_round_trips_through_jepsen(h in sync_queue_history()) {
        assert_round_trip(&h, Format::Jepsen, &SyncQueueSpec::new(O));
    }
}

// ---------------------------------------------------------------------------
// Parser robustness
// ---------------------------------------------------------------------------

/// Applies `edits` seeded byte edits (replace / delete / insert of
/// printable ASCII) and re-validates as UTF-8 lossily.
fn mutate_text(text: &str, seed: u64, edits: usize) -> String {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..edits {
        if bytes.is_empty() {
            break;
        }
        let i = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..3u8) {
            0 => bytes[i] = rng.gen_range(0x20u8..0x7f),
            1 => {
                bytes.remove(i);
            }
            _ => bytes.insert(i, rng.gen_range(0x20u8..0x7f)),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A mutated trace must parse to a history or a line-anchored error —
/// never a panic, in any format — and whatever parses must survive a
/// budgeted check without panicking.
fn assert_parses_or_anchors(text: &str) {
    for format in [Format::Native, Format::Jepsen, Format::KvLog] {
        match parse_as(format, text) {
            Ok(h) => {
                let options = CheckOptions { max_nodes: 10_000, ..CheckOptions::default() };
                let _ = check_cal_with(&h, &SeqAsCa::new(KvMapSpec::new()), &options);
            }
            Err(e) => {
                assert!(
                    e.line > 0,
                    "{format:?}: diagnostic lost its line anchor: {e}\ninput:\n{text}"
                );
            }
        }
    }
    // Auto-detection must hold up on garbage too.
    let sniffed = detect(text);
    let _ = parse_as(sniffed, text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mutated_foreign_traces_never_panic(
        h in history_of(arb_kv_op()),
        seed in any::<u64>(),
        edits in 1usize..8,
    ) {
        let jepsen = format_jepsen(&h);
        assert_parses_or_anchors(&mutate_text(&jepsen, seed, edits));
        if let Ok(kvlog) = format_kvlog(&h) {
            assert_parses_or_anchors(&mutate_text(&kvlog, seed, edits));
        }
    }
}

/// A checked-in fuzz corpus of nasty inputs: each must yield a valid
/// parse or a line-anchored error in every format, never a panic.
#[test]
fn fuzz_corpus_is_rejected_with_anchored_diagnostics() {
    const FUZZ: &[&str] = &[
        "",
        "{",
        "{}",
        "[",
        "{:process 0}",
        "{:process -1, :type :invoke, :f :write, :value 1}",
        "{:process 0, :type :bogus, :f :write, :value 1}",
        "{:process 0, :type :invoke, :f :write}",
        "{:process 99999999999999999999, :type :invoke, :f :write, :value 1}",
        "{:process 0, :type :ok, :f :read, :value 1}",
        "{:process 0, :type :invoke, :f :write, :value 1, :key \"x\"}\n\
         {:process 1, :type :invoke, :f :write, :value 1, :key 0}",
        "{:process 0, :type :invoke, :f :write, :value 1}\n\
         {:process 0, :type :invoke, :f :write, :value 2}",
        "{\"process\": 0, \"type\": \"invoke\", \"f\": \"write\", \"value\": }",
        "0 1 c0 put x",
        "1 0 c0 put x 1",
        "0 1 cX put x 1",
        "0 1 c0 frob x 1",
        "0 1 c0 get x",
        "0 - c0 put x 999999999999999999999999",
        "18446744073709551616 1 c0 put x 1",
        "not a history at all \u{0} \u{7}",
        "inv t0 o0",
        "inv t0 o0 write 1\nres t1 o0 write ()",
    ];
    for input in FUZZ {
        assert_parses_or_anchors(input);
    }
}
