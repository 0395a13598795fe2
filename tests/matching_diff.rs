//! The matching against the search and the reference: on the three
//! stateless pair specifications — the exchanger, the elimination array
//! and the synchronous queue — `run_ca` decides by a matching, and that
//! verdict must be the CA search's (`check_cal_with` over the spec behind
//! [`Searched`], which hides its shape) and the kernel-free [`end_states`]
//! reference's. Every accepted witness must pass `witness_explains`; every
//! refutation must name needy operations whose partners, recomputed here
//! from the specification and the real-time order alone, are fewer than
//! they are.
//!
//! The histories are windows of fully-overlapping clones
//! ([`clone_windows`]): the last window leaves some operations pending
//! and may plant operations nobody offered or one clone too many; every
//! case also gets a pending tail, invocations with no response, some of
//! them inside the last window where they overlap complete operations.
//! Windows overlap all or nothing, so a second generator staggers the
//! operations ([`staggered`]): there an element's point — which of its
//! members' invocations orders it — decides whether the witness
//! respects real time.

use std::collections::HashSet;

use cal::core::check::{check_cal_with, witness_explains, CheckOptions, CheckOutcome, Verdict};
use cal::core::history::Span;
use cal::core::matching::{self, Shortage};
use cal::core::spec::{CaSpec, Invocation, Searched};
use cal::core::text::parse_history;
use cal::core::{Action, CaElement, CaTrace, History, Operation, ThreadId, Value};
use cal::specs::elim_array::ElimArraySpec;
use cal::specs::exchanger::{exchange_ok, ExchangerSpec};
use cal::specs::registry::run_ca;
use cal::specs::sync_queue::{
    put_timeout_element, take_timeout_element, transfer_element, SyncQueueSpec,
};
use cal::specs::vocab::{EXCHANGE, PUT, TAKE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{clone_windows, end_states, exchanger_shapes, exchanger_windows, O};

/// Clone-window cases per family.
const CASES: usize = 10_000;

/// Staggered cases per family.
const STAGGERED_CASES: usize = 3_000;

/// How often each outcome was reached, over every case of a family.
#[derive(Debug, Default)]
struct Tally {
    cases: usize,
    accepted: usize,
    /// Refuted by a set of needy operations no two of which pair.
    hall: usize,
    /// Refuted by a set some of whose members pair: a blossom.
    tutte: usize,
    /// Accepted with a pending operation completed into a pair.
    pending_partner: usize,
    /// Accepted with a pending operation left out.
    pending_dropped: usize,
    /// Three pairwise-concurrent complete operations of one `(v→v)`
    /// class: an odd cycle in the graph.
    odd_cycle: usize,
}

impl Tally {
    /// Asserts that at least 1 % of the cases reached `count`.
    fn at_least_a_percent(&self, what: &str, count: usize) {
        assert!(count * 100 >= self.cases, "{what}: {count} of {} cases\n{self:?}", self.cases);
    }
}

fn verdict_name<W>(outcome: &CheckOutcome<W>) -> &'static str {
    match outcome.verdict {
        Verdict::Cal(_) => "cal",
        Verdict::NotCal => "not-cal",
        Verdict::ResourcesExhausted => "exhausted",
        Verdict::Interrupted { .. } => "interrupted",
    }
}

fn invocation(s: &Span) -> Invocation {
    Invocation::new(s.thread, s.object, s.method, s.arg)
}

/// Whether `a` and `b` form a legal element, a pending one completed with
/// any value the specification proposes beside the other.
fn pairs<S: CaSpec>(spec: &S, a: &Span, b: &Span) -> bool {
    let legal = |x: Operation, y: Operation| {
        CaElement::pair(x, y).is_ok_and(|e| spec.step(&spec.initial(), &e).is_some())
    };
    match (a.operation(), b.operation()) {
        (Some(x), Some(y)) => legal(x, y),
        (None, Some(y)) => spec
            .completions_among(&invocation(a), &[invocation(b)])
            .into_iter()
            .any(|r| legal(a.operation_with_ret(r), y)),
        (Some(x), None) => spec
            .completions_among(&invocation(b), &[invocation(a)])
            .into_iter()
            .any(|r| legal(x, b.operation_with_ret(r))),
        (None, None) => false,
    }
}

/// A refutation's claim, recomputed: every member is complete and cannot
/// stand alone, the operations outside the members that pair with one are
/// exactly the partners named, and they are fewer than the members (one
/// fewer than the odd groups).
fn assert_shortage_holds<S: CaSpec>(spec: &S, h: &History, shortage: &Shortage) {
    let spans = h.spans();
    let members: HashSet<usize> = shortage.members.iter().map(|s| s.inv).collect();
    for m in &shortage.members {
        let op = m.operation().unwrap_or_else(|| panic!("a pending member {m:?}\n{h}"));
        let alone = spec.step(&spec.initial(), &CaElement::singleton(op));
        assert!(alone.is_none(), "member {op} can stand alone\n{h}");
    }
    let available: Vec<usize> = spans
        .iter()
        .filter(|s| !members.contains(&s.inv))
        .filter(|s| {
            shortage
                .members
                .iter()
                .any(|m| History::spans_concurrent(m, s) && pairs(spec, m, s))
        })
        .map(|s| s.inv)
        .collect();
    let named: Vec<usize> = shortage.partners.iter().map(|s| s.inv).collect();
    assert_eq!(available, named, "the partners named are not the available ones\n{h}");
    assert!(available.len() < shortage.members.len(), "{shortage}\n{h}");
    assert_eq!(shortage.groups, available.len() + 1, "{shortage}\n{h}");
    assert!(shortage.groups <= shortage.members.len(), "{shortage}\n{h}");
}

/// Three pairwise-concurrent complete exchanges of one `(v→v)` class.
fn has_odd_cycle(h: &History) -> bool {
    let spans = h.spans();
    let class: Vec<&Span> = spans
        .iter()
        .filter(|s| {
            s.method == EXCHANGE
                && matches!((s.arg, s.ret), (Value::Int(v), Some(Value::Pair(true, r))) if v == r)
        })
        .collect();
    class.iter().enumerate().any(|(i, a)| {
        class[i + 1..].iter().enumerate().any(|(j, b)| {
            History::spans_concurrent(a, b)
                && a.arg == b.arg
                && class[i + j + 2..].iter().any(|c| {
                    c.arg == a.arg
                        && History::spans_concurrent(a, c)
                        && History::spans_concurrent(b, c)
                })
        })
    })
}

/// Runs `h` through the dispatch, the kernel and the reference, asserts
/// one verdict, a witness that explains `h` and a refutation that holds,
/// and tallies the outcome.
fn assert_matching_agrees<S: CaSpec + Clone>(spec: &S, h: &History, tally: &mut Tally) {
    let options = CheckOptions::default();
    let decided = run_ca(h, spec, None, &options).expect("well-formed");
    assert_eq!((decided.stats.matching, decided.stats.nodes), (1, 0), "not matched\n{h}");
    let searched = check_cal_with(h, &Searched(spec.clone()), &options).expect("well-formed");
    assert_eq!(searched.stats.matching, 0, "a searched spec never takes the matching path");
    let verdict = verdict_name(&decided);
    assert_eq!(verdict, verdict_name(&searched), "the matching vs the search\n{h}");
    let reference = !end_states(spec, h.actions(), &[spec.initial()]).is_empty();
    assert_eq!(verdict == "cal", reference, "the matching vs the reference\n{h}");
    tally.cases += 1;
    tally.odd_cycle += usize::from(has_odd_cycle(h));
    match decide(h, spec) {
        Ok(witness) => {
            assert!(witness_explains(h, spec, &witness), "witness {witness}\nfor\n{h}");
            tally.accepted += 1;
            let pending: HashSet<ThreadId> =
                h.spans().iter().filter(|s| !s.is_complete()).map(|s| s.thread).collect();
            let used: HashSet<ThreadId> = witness.all_ops().iter().map(|op| op.thread).collect();
            tally.pending_partner += usize::from(pending.iter().any(|t| used.contains(t)));
            tally.pending_dropped += usize::from(pending.iter().any(|t| !used.contains(t)));
        }
        Err(shortage) => {
            assert_shortage_holds(spec, h, &shortage);
            if shortage.groups == shortage.members.len() {
                tally.hall += 1;
            } else {
                tally.tutte += 1;
            }
        }
    }
}

/// What a case plants in its last window: nothing, operations answered
/// with a value nobody offers, or one clone too many.
fn plant(rng: &mut StdRng, unoffered: &[Operation], too_many: Operation) -> Vec<Operation> {
    match rng.gen_range(0..3) {
        0 => Vec::new(),
        1 => unoffered.to_vec(),
        _ => vec![too_many],
    }
}

/// `h` with one to three invocations of `pending` appended, never
/// answered, each on a fresh thread: some right after the last window's
/// invocations, where they overlap its complete operations, the rest at
/// the end.
fn with_pending_tail(rng: &mut StdRng, h: &History, pending: &[Operation]) -> History {
    let mut actions = h.actions().to_vec();
    let last_inv = actions.iter().rposition(|a| a.is_invoke()).map_or(0, |i| i + 1);
    let mut thread = 10_000;
    for _ in 0..rng.gen_range(1..4) {
        thread += 1;
        let op = pending[rng.gen_range(0..pending.len())];
        let at = if rng.gen_bool(0.5) { last_inv } else { actions.len() };
        actions.insert(at, Action::invoke(ThreadId(thread), op.object, op.method, op.arg));
    }
    History::from_actions(actions)
}

/// Runs [`CASES`] cases of one family: clone windows of `shapes`, a plant
/// drawn from `unoffered` and `too_many`, a pending tail drawn from
/// `pending`.
fn family<S: CaSpec + Clone>(
    spec: &S,
    seed: u64,
    shapes: &[CaElement],
    unoffered: &[Operation],
    too_many: Operation,
    pending: &[Operation],
) -> Tally {
    let rng = &mut StdRng::seed_from_u64(seed);
    let mut tally = Tally::default();
    for _ in 0..CASES {
        let (windows, width) = (rng.gen_range(1..3), rng.gen_range(1..4));
        let planted = plant(rng, unoffered, too_many);
        let h = clone_windows(rng, windows, width, shapes, &planted);
        let h = with_pending_tail(rng, &h, pending);
        assert_matching_agrees(spec, &h, &mut tally);
    }
    tally.at_least_a_percent("accepted", tally.accepted);
    tally.at_least_a_percent("a Hall refutation", tally.hall);
    tally.at_least_a_percent("a pending partner", tally.pending_partner);
    tally.at_least_a_percent("a pending operation dropped", tally.pending_dropped);
    tally
}

/// A CAL history by construction whose operations overlap partly:
/// `elements` elements drawn from `shapes`, each member on a thread of
/// its own, invoked at its own moment; an element takes effect once all
/// its members are invoked, and each member responds at its own moment
/// after that. Members unanswered when the run stops stay pending: those
/// of an element that took effect complete it, the rest are dropped.
fn staggered(rng: &mut StdRng, elements: usize, shapes: &[CaElement]) -> History {
    struct Live {
        ops: Vec<Operation>,
        invoked: usize,
        effected: bool,
        responded: usize,
    }
    let mut live: Vec<Live> = Vec::new();
    let mut actions = Vec::new();
    let mut thread = 0;
    let stop_early = rng.gen_bool(0.5);
    loop {
        // Moves: start an element, or advance a live one.
        let started = live.len() < elements;
        let movable: Vec<usize> = (0..live.len())
            .filter(|&k| live[k].responded < live[k].ops.len())
            .collect();
        if !started && movable.is_empty() || !started && stop_early && rng.gen_bool(0.2) {
            break;
        }
        if started && (movable.is_empty() || rng.gen_bool(0.3)) {
            let ops = shapes[rng.gen_range(0..shapes.len())].ops().iter().map(|&op| {
                thread += 1;
                Operation { thread: ThreadId(thread), ..op }
            });
            live.push(Live { ops: ops.collect(), invoked: 0, effected: false, responded: 0 });
            continue;
        }
        let e = &mut live[movable[rng.gen_range(0..movable.len())]];
        if e.invoked < e.ops.len() {
            actions.push(e.ops[e.invoked].invocation());
            e.invoked += 1;
        } else if !e.effected {
            e.effected = true;
        } else {
            actions.push(e.ops[e.responded].response());
            e.responded += 1;
        }
    }
    History::from_actions(actions)
}

/// `h` bent as `mutation` says: 0 leaves it, 1 swaps the returns of two
/// complete operations of one method, 2 adds `extra` at a random
/// invocation and a random response after it.
fn bend(rng: &mut StdRng, h: &History, mutation: u8, extra: Operation) -> History {
    let mut actions = h.actions().to_vec();
    let spans = h.spans();
    match mutation {
        1 => {
            let complete: Vec<&Span> = spans.iter().filter(|s| s.is_complete()).collect();
            if complete.len() >= 2 {
                let a = complete[rng.gen_range(0..complete.len())];
                let b = complete[rng.gen_range(0..complete.len())];
                if a.method == b.method {
                    for (s, ret) in [(a, b.ret), (b, a.ret)] {
                        let ret = ret.expect("complete");
                        actions[s.resp.expect("complete")] =
                            Action::response(s.thread, s.object, s.method, ret);
                    }
                }
            }
        }
        2 => {
            let extra = Operation { thread: ThreadId(20_000), ..extra };
            let inv = rng.gen_range(0..=actions.len());
            actions.insert(inv, extra.invocation());
            actions.insert(rng.gen_range(inv + 1..=actions.len()), extra.response());
        }
        _ => {}
    }
    History::from_actions(actions)
}

/// Holds a family to the search and the reference on [`staggered`]
/// histories, bent one way in three.
fn staggered_family<S: CaSpec + Clone>(spec: &S, seed: u64, shapes: &[CaElement], extra: Operation) {
    let rng = &mut StdRng::seed_from_u64(seed);
    let mut tally = Tally::default();
    for case in 0..STAGGERED_CASES {
        let elements = rng.gen_range(1..6);
        let h = staggered(rng, elements, shapes);
        let h = bend(rng, &h, (case % 3) as u8, extra);
        assert_matching_agrees(spec, &h, &mut tally);
    }
    tally.at_least_a_percent("accepted", tally.accepted);
    tally.at_least_a_percent("a Hall refutation", tally.hall);
    tally.at_least_a_percent("a pending partner", tally.pending_partner);
    tally.at_least_a_percent("a pending operation dropped", tally.pending_dropped);
}

#[test]
fn staggered_histories_agree_with_the_search_and_the_reference() {
    let t = ThreadId;
    let (exchanges, extra) = (exchanger_shapes(), |v| exchange_ok(O, t(0), v, 0));
    staggered_family(&ExchangerSpec::new(O), 0x20_e4, &exchanges, extra(0));
    staggered_family(&ElimArraySpec::new(O), 0x20_e5, &exchanges, extra(1));
    let shapes = [
        transfer_element(O, t(0), 1, t(1)),
        transfer_element(O, t(0), 2, t(1)),
        put_timeout_element(O, t(0), 1),
        take_timeout_element(O, t(0)),
    ];
    let take = Operation::new(t(0), O, TAKE, Value::Unit, Value::Pair(true, 1));
    staggered_family(&SyncQueueSpec::new(O), 0x20_e6, &shapes, take);
}

/// A swap nobody offered: one side got 101, which no call offers.
fn unoffered_swap() -> [Operation; 2] {
    let t = ThreadId(0);
    [exchange_ok(O, t, 100, 101), exchange_ok(O, t, 102, 100)]
}

/// Exchanges of both values the shapes use, as a pending tail.
fn pending_exchanges() -> [Operation; 2] {
    let t = ThreadId(0);
    [exchange_ok(O, t, 0, 0), exchange_ok(O, t, 1, 0)]
}

#[test]
fn exchanger_matching_agrees_with_the_search_and_the_reference() {
    let spec = ExchangerSpec::new(O);
    let too_many = exchange_ok(O, ThreadId(0), 0, 0);
    let (shapes, pending) = (exchanger_shapes(), pending_exchanges());
    let tally = family(&spec, 0x20_e1, &shapes, &unoffered_swap(), too_many, &pending);
    tally.at_least_a_percent("a (v→v) odd cycle", tally.odd_cycle);
    tally.at_least_a_percent("a Tutte refutation", tally.tutte);
}

#[test]
fn elim_array_matching_agrees_with_the_search_and_the_reference() {
    let spec = ElimArraySpec::new(O);
    let too_many = exchange_ok(O, ThreadId(0), 1, 0);
    let (shapes, pending) = (exchanger_shapes(), pending_exchanges());
    let tally = family(&spec, 0x20_e2, &shapes, &unoffered_swap(), too_many, &pending);
    tally.at_least_a_percent("a (v→v) odd cycle", tally.odd_cycle);
}

#[test]
fn sync_queue_matching_agrees_with_the_search_and_the_reference() {
    let spec = SyncQueueSpec::new(O);
    let t = ThreadId;
    let shapes = [
        transfer_element(O, t(0), 1, t(1)),
        transfer_element(O, t(0), 2, t(1)),
        put_timeout_element(O, t(0), 1),
        take_timeout_element(O, t(0)),
    ];
    let take = |v| Operation::new(t(0), O, TAKE, Value::Unit, Value::Pair(true, v));
    let put = |v| Operation::new(t(0), O, PUT, Value::Int(v), Value::Bool(true));
    family(&spec, 0x20_e3, &shapes, &[take(7), put(8)], take(1), &[put(1), put(2), take(0)]);
}

/// `check-exchanger-refute`'s input and its unplanted twin, at a few
/// sizes: the matching against the search, every witness replayed.
#[test]
fn benchmark_shaped_windows_agree_with_the_search() {
    let spec = ExchangerSpec::new(O);
    for windows in 1..=4 {
        for plant in [false, true] {
            let h = exchanger_windows(windows, plant);
            let options = CheckOptions::default();
            let decided = run_ca(&h, &spec, None, &options).expect("well-formed");
            let searched = check_cal_with(&h, &Searched(spec), &options).expect("well-formed");
            assert_eq!(verdict_name(&decided), verdict_name(&searched), "{windows} windows");
            assert_eq!(decided.verdict.is_cal(), !plant, "{windows} windows");
            if let Verdict::Cal(witness) = &decided.verdict {
                assert!(witness_explains(&h, &spec, witness), "{windows} windows");
            }
        }
    }
}

/// Fixed histories: an operation off the spec's object is a NO when
/// complete and dropped when pending; a pending take pairs with a complete
/// put; a `(v→v)` triangle leaves one over, and its refutation names the
/// three as one odd group with no partner.
#[test]
fn fixed_histories_decide_as_the_search_does() {
    let exchanger = ExchangerSpec::new(O);
    let queue = SyncQueueSpec::new(O);
    let parse = |text: &str| parse_history(text).expect("parses");
    let triangle = "t1 inv o0.exchange 0\nt2 inv o0.exchange 0\nt3 inv o0.exchange 0\n\
                    t1 res o0.exchange (true,0)\nt2 res o0.exchange (true,0)\n\
                    t3 res o0.exchange (true,0)\n";
    let cases = [
        ("t1 inv o1.exchange 3\nt1 res o1.exchange (false,3)\n", false),
        ("t1 inv o1.exchange 3\nt2 inv o0.exchange 4\nt2 res o0.exchange (false,4)\n", true),
        (triangle, false),
    ];
    for (text, accepted) in cases {
        let h = parse(text);
        let outcome = run_ca(&h, &exchanger, None, &CheckOptions::default()).unwrap();
        assert_eq!(outcome.verdict.is_cal(), accepted, "{h}");
        assert_eq!(is_cal_by_search(&h, &exchanger), accepted, "{h}");
    }
    let Err(shortage) = decide(&parse(triangle), &exchanger) else {
        panic!("the triangle is refuted");
    };
    assert_eq!((shortage.members.len(), shortage.groups, shortage.partners.len()), (3, 1, 0));
    assert!(shortage.to_string().contains("odd group"), "{shortage}");
    let h = parse("t1 inv o0.put 5\nt2 inv o0.take ()\nt1 res o0.put true\n");
    let Ok(witness) = decide(&h, &queue) else {
        panic!("the pending take completes the transfer");
    };
    assert!(witness_explains(&h, &queue, &witness), "{witness}");
    assert_eq!(witness.len(), 1);
}

fn is_cal_by_search<S: CaSpec + Clone>(h: &History, spec: &S) -> bool {
    check_cal_with(h, &Searched(spec.clone()), &CheckOptions::default()).unwrap().verdict.is_cal()
}

/// The matching's own answer on all of `h`: the witness, or the shortage.
fn decide<S: CaSpec>(h: &History, spec: &S) -> Result<CaTrace, Shortage> {
    let witness = matching::decide(&h.spans(), spec)?;
    Ok(witness.into_iter().map(|(element, _)| element).collect())
}

/// An ill-formed history is the search's error.
#[test]
fn an_ill_formed_history_is_the_searchs_error() {
    let spec = ExchangerSpec::new(O);
    let h = parse_history("t1 inv o0.exchange 3\nt1 inv o0.exchange 4\n").expect("parses");
    let kernel = check_cal_with(&h, &Searched(spec), &CheckOptions::default()).map(|_| ()).unwrap_err();
    let dispatched = run_ca(&h, &spec, None, &CheckOptions::default()).map(|_| ()).unwrap_err();
    assert_eq!(dispatched.to_string(), kernel.to_string());
}
