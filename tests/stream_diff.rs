//! Differential validation of the streaming checker: pushing a history
//! through [`cal::core::stream::StreamChecker`] — with checkpoints forced
//! at random chunk boundaries, so retirement happens at arbitrary
//! moments — must reach exactly the batch [`check_cal`] verdict. Runs
//! over every spec family (a rendezvous spec, a queue spec, the stack, the
//! dual stack, and lifted sequential counter and register specs) at 1, 2
//! and 4 threads, on both consistent and corrupted histories.
//!
//! Where objects are many the checker carries its reachable-state set as
//! a product of per-object sets, and the second half of this file holds
//! that to two references at once: the batch verdicts of the search
//! ([`check_cal_with`] over [`Searched`], at one and two threads) and of
//! the dispatch ([`run_ca`]), and [`Joint`] — the retirement this
//! replaced, one state set over the whole specification with every closed
//! segment enumerated as one joint problem, written out here over
//! `tests/common`'s reference (nothing but [`CaSpec::step`] and Def. 3) —
//! whose verdict, `|Q|`, peak `|Q|` and retired-segment count the product
//! must reproduce after every event. Exchanger windows full of clones are
//! held to it too, behind [`Searched`] with symmetry reduction on and off
//! (their closed segments are what the retirement's search walks one orbit
//! at a time) and bare, decided by the matching. The pair families stream
//! both ways, so the search and the matching each meet the references.
//!
//! The last part holds the procedures the window runs instead of the
//! search — zones on register parts, the matching on the paper's pair
//! objects — to the search itself, behind [`Searched`], after every event.

use std::collections::HashSet;

use cal::core::check::{check_cal, check_cal_with, CheckOptions, Verdict};
use cal::core::gen::{interleave, mutate, render_loose, Mutation};
use cal::core::spec::{CaSpec, Invocation, PerObject, Searched, SeqAsCa};
use cal::core::stream::{Push, StreamChecker, StreamOptions, StreamVerdict};
use cal::core::text::parse_history;
use cal::core::{Action, CaElement, CaTrace, History, Method, ObjectId, Operation, ThreadId, Value};
use cal::specs::dual_stack::DualStackSpec;
use cal::specs::elim_array::ElimArraySpec;
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::gen::{random_exchanger_trace, random_sync_queue_trace};
use cal::specs::kv::KvMapSpec;
use cal::specs::register::{CounterSpec, RegisterSpec};
use cal::specs::registry::run_ca;
use cal::specs::stack::StackSpec;
use cal::specs::sync_queue::SyncQueueSpec;
use cal::specs::vocab::{CANCEL_SENTINEL, POP, PUSH};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{clone_windows, end_states, exchanger_shapes};

const OBJ: ObjectId = ObjectId(0);

/// Streams `history` through a fresh checker, checkpointing after
/// rng-sized chunks, and returns the closing verdict. Panics on
/// rejected events: every generated history is well-formed.
fn stream_verdict<S: CaSpec>(spec: S, history: &History, rng: &mut StdRng) -> StreamVerdict {
    let opts = StreamOptions {
        // Manual checkpoints only: the chunking is the thing under test.
        checkpoint_every: 0,
        ..StreamOptions::default()
    };
    let mut checker = StreamChecker::new(spec, opts);
    let mut until_checkpoint = rng.gen_range(1usize..6);
    for action in history.actions() {
        match checker.push(*action) {
            Push::Admitted => {}
            Push::Refused => return checker.verdict(), // violation latched mid-stream
            other => panic!("well-formed event not admitted: {other:?}"),
        }
        until_checkpoint -= 1;
        if until_checkpoint == 0 {
            checker.checkpoint();
            until_checkpoint = rng.gen_range(1usize..6);
        }
    }
    checker.finish()
}

/// Asserts verdict parity between the batch checker and a chunked
/// streaming replay of the same history.
fn assert_parity<S: CaSpec + Clone>(spec: S, history: &History, rng: &mut StdRng) {
    let batch = check_cal(history, &spec).expect("batch check must not error");
    let streamed = stream_verdict(spec, history, rng);
    match batch.verdict {
        Verdict::Cal(_) => assert_eq!(
            streamed,
            StreamVerdict::Consistent,
            "batch accepted but stream said {streamed}:\n{history}"
        ),
        Verdict::NotCal => assert_eq!(
            streamed,
            StreamVerdict::Violation,
            "batch rejected but stream said {streamed}:\n{history}"
        ),
        // Budget-bound batch outcomes have no parity obligation.
        Verdict::ResourcesExhausted | Verdict::Interrupted { .. } => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exchanger (rendezvous) family, 2/4 threads (a rendezvous needs
    /// two), loosened renderings. Single-thread coverage comes from the
    /// lifted sequential families below.
    #[test]
    fn exchanger_streams_match_batch(seed in 0u64..5_000, size in 0usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        for threads in [2u32, 4] {
            let trace = random_exchanger_trace(&mut rng, OBJ, threads, size);
            let h = render_loose(&trace, &mut rng, 25);
            assert_parity(ExchangerSpec::new(OBJ), &h, &mut rng);
            assert_parity(Searched(ExchangerSpec::new(OBJ)), &h, &mut rng);
        }
    }

    /// Corrupted exchanger histories: violation parity.
    #[test]
    fn corrupted_exchanger_streams_match_batch(seed in 0u64..5_000, size in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = random_exchanger_trace(&mut rng, OBJ, 3, size);
        let h = render_loose(&trace, &mut rng, 25);
        if let Some(bad) = mutate(&h, Mutation::CorruptReturn, &mut rng,
                                  |_| Value::Pair(true, 777_777_777)) {
            assert_parity(ExchangerSpec::new(OBJ), &bad, &mut rng);
            assert_parity(Searched(ExchangerSpec::new(OBJ)), &bad, &mut rng);
        }
    }

    /// Synchronous queue family.
    #[test]
    fn sync_queue_streams_match_batch(seed in 0u64..5_000, size in 0usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        for threads in [2u32, 4] {
            let trace = random_sync_queue_trace(&mut rng, OBJ, threads, size);
            let h = render_loose(&trace, &mut rng, 25);
            assert_parity(SyncQueueSpec::new(OBJ), &h, &mut rng);
            assert_parity(Searched(SyncQueueSpec::new(OBJ)), &h, &mut rng);
        }
    }

    /// Lifted sequential counter: each `inc` returns the pre-increment
    /// count, assigned along a random global order, then re-interleaved —
    /// the re-interleaving sometimes contradicts real-time order, so both
    /// verdicts are exercised through the same generator.
    #[test]
    fn counter_streams_match_batch(seed in 0u64..5_000, per_thread in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        for threads in [1usize, 2, 4] {
            // A random global sequence of thread slots fixes the returns.
            let mut slots: Vec<usize> =
                (0..threads).flat_map(|t| std::iter::repeat_n(t, per_thread)).collect();
            for i in (1..slots.len()).rev() {
                slots.swap(i, rng.gen_range(0..=i));
            }
            let mut per: Vec<Vec<Action>> = vec![Vec::new(); threads];
            for (count, &t) in slots.iter().enumerate() {
                let tid = ThreadId(t as u32);
                per[t].push(Action::invoke(tid, OBJ, Method("inc"), Value::Unit));
                per[t].push(Action::response(tid, OBJ, Method("inc"), Value::Int(count as i64)));
            }
            let h = interleave(&per, &mut rng);
            assert_parity(SeqAsCa::new(CounterSpec::new(OBJ)), &h, &mut rng);
        }
    }

    /// Lifted sequential register with reads that may or may not be
    /// justified — exercises both verdicts through the same generator.
    #[test]
    fn register_streams_match_batch(seed in 0u64..5_000, ops in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        for threads in [1usize, 2, 4] {
            let per: Vec<Vec<Action>> = (0..threads)
                .map(|t| {
                    let tid = ThreadId(t as u32);
                    (0..ops)
                        .flat_map(|_| {
                            if rng.gen_bool(0.5) {
                                let v = rng.gen_range(0i64..3);
                                [
                                    Action::invoke(tid, OBJ, Method("write"), Value::Int(v)),
                                    Action::response(tid, OBJ, Method("write"), Value::Unit),
                                ]
                            } else {
                                let v = rng.gen_range(0i64..3);
                                [
                                    Action::invoke(tid, OBJ, Method("read"), Value::Unit),
                                    Action::response(tid, OBJ, Method("read"), Value::Int(v)),
                                ]
                            }
                        })
                        .collect()
                })
                .collect();
            let h = interleave(&per, &mut rng);
            assert_parity(SeqAsCa::new(RegisterSpec::new(OBJ)), &h, &mut rng);
        }
    }
}

/// A history `clients` clients make of `ops` operations on one sequential
/// object, linearizable by construction: each client is stepped at random
/// through invoke → take effect → respond, so an operation's effect — its
/// return value, `effect`'s answer against `state` — lands anywhere in its
/// interval. Once every operation has started and every one that took
/// effect has responded, the rest stay pending.
fn effect_history<Q>(
    rng: &mut StdRng,
    clients: u32,
    ops: usize,
    mut state: Q,
    invoke: impl Fn(&mut StdRng) -> (Method, Value),
    effect: impl Fn(&mut Q, Method, Value) -> Value,
) -> History {
    let mut h = History::new();
    // Per client: its open operation, and its return once it took effect.
    let mut open: Vec<Option<(Method, Value, Option<Value>)>> = vec![None; clients as usize];
    let mut started = 0;
    let took_effect = |open: &[Option<(Method, Value, Option<Value>)>]| {
        open.iter().any(|o| matches!(o, Some((_, _, Some(_)))))
    };
    while started < ops || took_effect(&open) {
        let c = rng.gen_range(0..clients) as usize;
        let t = ThreadId(c as u32);
        open[c] = match open[c] {
            None if started < ops => {
                started += 1;
                let (method, arg) = invoke(rng);
                h.push(Action::invoke(t, OBJ, method, arg));
                Some((method, arg, None))
            }
            None => None,
            Some((method, arg, None)) => Some((method, arg, Some(effect(&mut state, method, arg)))),
            Some((method, _, Some(ret))) => {
                h.push(Action::response(t, OBJ, method, ret));
                None
            }
        };
    }
    h
}

/// The `stack` built-in as `cal-serve stack` runs it, with no pop
/// universe: a checkpoint taken while a pop is pending refutes a prefix
/// that the pop's later response explains, and the stream latches that
/// refutation as final (CHANGES.md, the `FOUND` line on `StackSpec::total`).
/// The batch accepts the history.
#[test]
#[ignore = "known defect: a checkpoint refutes a window a pending pop later explains"]
fn bare_stack_stream_matches_batch_with_a_pop_pending_at_a_checkpoint() {
    let h = parse_history(
        "t1 inv o0.pop ()\nt3 inv o0.pop ()\nt2 inv o0.pop ()\nt0 inv o0.push 0\nt0 res o0.push true\n\
         t3 res o0.pop (false,0)\nt0 inv o0.pop ()\nt2 res o0.pop (false,0)\nt0 res o0.pop (false,0)\n\
         t1 res o0.pop (true,0)\n",
    )
    .expect("parses");
    let spec = SeqAsCa::new(StackSpec::total(OBJ));
    assert!(check_cal(&h, &spec).expect("checks").verdict.is_cal());
    let mut checker = StreamChecker::new(spec, StreamOptions { checkpoint_every: 1, ..StreamOptions::default() });
    for action in h.actions() {
        checker.push(*action);
    }
    assert_eq!(checker.finish(), StreamVerdict::Consistent);
}

/// `h`, or with every other seed one response's return replaced by
/// `wrong`'s.
fn maybe_corrupt(h: History, rng: &mut StdRng, wrong: impl Fn(&Action) -> Value) -> History {
    if rng.gen_bool(0.5) {
        return h;
    }
    mutate(&h, Mutation::CorruptReturn, rng, wrong).unwrap_or(h)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The total stack, lifted: pushes and pops taking effect anywhere in
    /// their intervals, a pop on an empty stack failing; a corrupted one
    /// pops a value nobody pushed, or a push fails. The spec proposes every
    /// value pushed here (0, 1, 2) for a pending pop: a checkpoint latches
    /// a refutation of the window as final, which it is only when a
    /// pending operation may be completed with whatever it will return.
    /// (The `stack` built-in proposes no successful pop, and the stream
    /// then refutes a prefix the batch accepts once the pop responds.)
    #[test]
    fn stack_streams_match_batch(seed in 0u64..5_000, ops in 1usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        for clients in [1u32, 2, 4] {
            let push = |rng: &mut StdRng| (PUSH, Value::Int(rng.gen_range(0..3)));
            let invoke = |rng: &mut StdRng| if rng.gen_bool(0.5) { push(rng) } else { (POP, Value::Unit) };
            let effect = |stack: &mut Vec<i64>, method, arg: Value| match (method, arg) {
                (PUSH, Value::Int(v)) => {
                    stack.push(v);
                    Value::Bool(true)
                }
                _ => stack.pop().map_or(Value::Pair(false, 0), |v| Value::Pair(true, v)),
            };
            let h = effect_history(&mut rng, clients, ops, Vec::new(), invoke, effect);
            let wrong = |a: &Action| if a.method() == PUSH { Value::Bool(false) } else { Value::Pair(true, 7) };
            let h = maybe_corrupt(h, &mut rng, wrong);
            let spec = SeqAsCa::new(StackSpec::total(OBJ).with_pop_universe(vec![0, 1, 2]));
            assert_parity(spec, &h, &mut rng);
        }
    }

    /// The dual stack with timeouts: a pop on an empty stack times out,
    /// and the checker may also pair it with a concurrent push; a
    /// corrupted one pops a value nobody pushed, or a push returns one.
    #[test]
    fn dual_stack_streams_match_batch(seed in 0u64..5_000, ops in 1usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        for clients in [1u32, 2, 4] {
            let push = |rng: &mut StdRng| (PUSH, Value::Int(rng.gen_range(0..3)));
            let invoke = |rng: &mut StdRng| if rng.gen_bool(0.5) { push(rng) } else { (POP, Value::Unit) };
            let effect = |stack: &mut Vec<i64>, method, arg: Value| match (method, arg) {
                (PUSH, Value::Int(v)) => {
                    stack.push(v);
                    Value::Unit
                }
                _ => Value::Int(stack.pop().unwrap_or(CANCEL_SENTINEL)),
            };
            let h = effect_history(&mut rng, clients, ops, Vec::new(), invoke, effect);
            let wrong = |a: &Action| if a.method() == PUSH { Value::Int(1) } else { Value::Int(7) };
            let h = maybe_corrupt(h, &mut rng, wrong);
            assert_parity(DualStackSpec::with_timeouts(OBJ), &h, &mut rng);
        }
    }
}

// --- many objects: the product against the joint set it replaced ------------

/// One thing that happens to a stream.
#[derive(Debug, Clone, Copy)]
enum Event {
    Action(Action),
    /// The thread's client is gone; its open operation never responds.
    Abandon(ThreadId),
}

/// What the two checkers are compared on after every event.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Gauges {
    verdict: StreamVerdict,
    states: usize,
    peak_states: usize,
    retired_segments: u64,
}

/// The joint retirement the product replaced, real-time order only: one
/// set `states` of whole-specification states, a closed segment
/// enumerated from each of them as one problem over every object at
/// once, the cut rule and the forced sealing of abandoned operations
/// under `max_window` as the stream checker has them.
struct Joint<S: CaSpec> {
    spec: S,
    max_window: usize,
    window: Vec<Action>,
    /// Window indices of abandoned invocations.
    abandoned: Vec<usize>,
    states: Vec<S::State>,
    peak_states: usize,
    retired_segments: u64,
    violated: bool,
    /// A forced boundary has committed a pending operation: from here on
    /// the stream may reject what a batch check accepts.
    sealed: bool,
}

impl<S: CaSpec> Joint<S> {
    fn new(spec: S, max_window: usize) -> Self {
        let states = vec![spec.initial()];
        Joint {
            spec,
            max_window,
            window: Vec::new(),
            abandoned: Vec::new(),
            states,
            peak_states: 1,
            retired_segments: 0,
            violated: false,
            sealed: false,
        }
    }

    fn full(&self) -> bool {
        let open = self.window.iter().filter(|a| a.is_invoke()).count();
        self.max_window > 0 && open >= self.max_window
    }

    fn first_cut(&self, force: bool) -> Option<usize> {
        let mut depth = 0usize;
        for (i, a) in self.window.iter().enumerate() {
            if !a.is_invoke() {
                depth -= 1;
            } else if !(force && self.abandoned.contains(&i)) {
                depth += 1;
            }
            if depth == 0 {
                return Some(i + 1);
            }
        }
        None
    }

    fn retire(&mut self, force: bool) {
        while !self.violated {
            let Some(cut) = self.first_cut(force) else { break };
            let next = end_states(&self.spec, &self.window[..cut], &self.states);
            if next.is_empty() {
                self.violated = true;
                break;
            }
            self.states = next;
            self.peak_states = self.peak_states.max(self.states.len());
            self.retired_segments += 1;
            self.sealed |= self.abandoned.iter().any(|&at| at < cut);
            self.window.drain(..cut);
            self.abandoned.retain(|&at| at >= cut);
            self.abandoned.iter_mut().for_each(|at| *at -= cut);
        }
    }

    fn push(&mut self, action: Action) -> Push {
        if self.violated {
            return Push::Refused;
        }
        if action.is_invoke() && self.full() {
            self.retire(false);
            if !self.violated && self.full() {
                self.retire(true);
            }
            if self.violated {
                return Push::Refused;
            }
            if self.full() {
                return Push::Saturated;
            }
        }
        self.window.push(action);
        Push::Admitted
    }

    fn abandon(&mut self, thread: ThreadId) {
        // The thread's open invocation: its last action, if that is one.
        let last = self.window.iter().rposition(|a| a.thread() == thread);
        if let Some(at) = last.filter(|&at| self.window[at].is_invoke() && !self.violated) {
            self.abandoned.push(at);
        }
    }

    fn checkpoint(&mut self) {
        self.retire(false);
        if !self.violated && !self.window.is_empty() {
            self.violated = end_states(&self.spec, &self.window, &self.states).is_empty();
        }
    }

    fn gauges(&self) -> Gauges {
        let verdict =
            if self.violated { StreamVerdict::Violation } else { StreamVerdict::Consistent };
        Gauges {
            verdict,
            states: self.states.len(),
            peak_states: self.peak_states,
            retired_segments: self.retired_segments,
        }
    }
}

fn gauges_of<S: CaSpec>(checker: &StreamChecker<S>) -> Gauges {
    let s = checker.stats();
    Gauges {
        verdict: checker.verdict(),
        states: s.states,
        peak_states: s.peak_states,
        retired_segments: s.retired_segments,
    }
}

/// Feeds `events` to the shipped checker and to [`Joint`] side by side,
/// checkpointing both at the same rng-chosen moments and comparing them
/// after every event, then holds the closing verdict to the search's at
/// one and two threads ([`Searched`]) and to the dispatch's ([`run_ca`],
/// which may decide by zones or the matching instead of searching). A stream that sealed an abandoned
/// operation is only held to soundness there: it may reject what batch
/// accepts, never accept what batch rejects. `symmetry` is every search's
/// [`CheckOptions::symmetry`], the stream's and the batch searches' alike.
fn assert_product_is_the_joint_set<S: CaSpec + Clone>(
    spec: S,
    events: &[Event],
    max_window: usize,
    symmetry: bool,
    rng: &mut StdRng,
) {
    let check = CheckOptions { symmetry, ..CheckOptions::default() };
    let opts = StreamOptions { max_window, checkpoint_every: 0, check, ..StreamOptions::default() };
    let mut checker = StreamChecker::new(spec.clone(), opts);
    let mut joint = Joint::new(spec.clone(), max_window);
    let mut admitted = History::new();
    let mut until_checkpoint = rng.gen_range(1usize..6);
    for (i, event) in events.iter().enumerate() {
        match *event {
            Event::Abandon(thread) => {
                checker.abandon_thread(thread);
                joint.abandon(thread);
            }
            Event::Action(action) => {
                let (pushed, expected) = (checker.push(action), joint.push(action));
                assert_eq!(pushed, expected, "event {i} of {events:?}");
                if pushed != Push::Admitted {
                    break;
                }
                admitted.push(action);
            }
        }
        until_checkpoint -= 1;
        if until_checkpoint == 0 {
            checker.checkpoint();
            joint.checkpoint();
            until_checkpoint = rng.gen_range(1usize..6);
        }
        assert_eq!(gauges_of(&checker), joint.gauges(), "after event {i} of {events:?}");
    }
    checker.finish();
    joint.checkpoint();
    let closing = gauges_of(&checker);
    assert_eq!(closing, joint.gauges(), "at the end of {events:?}");
    // The search at one and two threads, and the dispatch, which decides
    // a unique-write register or map by zones and a pair spec by the
    // matching instead.
    let options = |threads| CheckOptions { threads, symmetry, ..CheckOptions::default() };
    let searched = Searched(spec.clone());
    let references = [
        ("the search, 1 thread", check_cal_with(&admitted, &searched, &options(1))),
        ("the search, 2 threads", check_cal_with(&admitted, &searched, &options(2))),
        ("run_ca", run_ca(&admitted, &spec, None, &options(1))),
    ];
    for (by, batch) in references {
        match batch.expect("batch check must not error").verdict {
            Verdict::Cal(_) if joint.sealed => {}
            Verdict::Cal(_) => assert_eq!(
                closing.verdict,
                StreamVerdict::Consistent,
                "batch ({by}) accepted:\n{admitted}"
            ),
            Verdict::NotCal => assert_eq!(
                closing.verdict,
                StreamVerdict::Violation,
                "batch ({by}) rejected:\n{admitted}"
            ),
            Verdict::ResourcesExhausted | Verdict::Interrupted { .. } => {}
        }
    }
}

/// A key-value stream of `clients` clients over `keys` keys: each client
/// is stepped at random through invoke → take effect → respond, so an
/// operation's effect lands anywhere in its interval. With `stale`, one
/// read in three returns the value its key held *before* the last write
/// (a violation unless that write is still open); with `deaths`, a client
/// now and then goes away with its operation open, and is abandoned; with
/// `repeat`, one write in three stores 0, 1 or 2 instead of a fresh value,
/// so values repeat and a write may store the value its key holds. The
/// tail may be cut off, leaving operations pending and not abandoned.
fn kv_events(
    rng: &mut StdRng,
    clients: u32,
    keys: u32,
    ops: usize,
    stale: bool,
    deaths: bool,
    repeat: bool,
) -> Vec<Event> {
    #[derive(Clone, Copy)]
    enum Client {
        Idle,
        Invoked { key: ObjectId, write: Option<i64> },
        Effected { op: Operation },
        Dead,
    }
    let mut at = vec![Client::Idle; clients as usize];
    let mut store = vec![(0i64, 0i64); keys as usize]; // (before the last write, now)
    let (mut fresh, mut issued) = (0i64, 0usize);
    let mut events = Vec::new();
    let busy = |at: &[Client]| at.iter().any(|c| matches!(c, Client::Invoked { .. } | Client::Effected { .. }));
    while busy(&at) || (issued < ops && at.iter().any(|c| matches!(c, Client::Idle))) {
        let c = rng.gen_range(0..clients) as usize;
        let t = ThreadId(c as u32);
        let dies = deaths && rng.gen_range(0..12) == 0;
        at[c] = match at[c] {
            Client::Idle if issued < ops => {
                issued += 1;
                let key = ObjectId(rng.gen_range(0..keys));
                let write = rng.gen_bool(0.5).then(|| {
                    if repeat && rng.gen_range(0..3) == 0 {
                        return rng.gen_range(0..3);
                    }
                    fresh += 1;
                    fresh
                });
                let (method, arg) = match write {
                    Some(v) => (Method("write"), Value::Int(v)),
                    None => (Method("read"), Value::Unit),
                };
                events.push(Event::Action(Action::invoke(t, key, method, arg)));
                Client::Invoked { key, write }
            }
            Client::Invoked { .. } | Client::Effected { .. } if dies => {
                events.push(Event::Abandon(t));
                Client::Dead
            }
            Client::Invoked { key, write } => {
                let cell = &mut store[key.0 as usize];
                let op = match write {
                    Some(v) => {
                        *cell = (cell.1, v);
                        Operation::new(t, key, Method("write"), Value::Int(v), Value::Unit)
                    }
                    None => {
                        let seen = if stale && rng.gen_range(0..3) == 0 { cell.0 } else { cell.1 };
                        Operation::new(t, key, Method("read"), Value::Unit, Value::Int(seen))
                    }
                };
                Client::Effected { op }
            }
            Client::Effected { op } => {
                events.push(Event::Action(op.response()));
                Client::Idle
            }
            rest => rest,
        };
    }
    let cut = rng.gen_range(0..3usize).min(events.len());
    events.truncate(events.len() - cut);
    events
}

/// A specification that never restricts, whatever it wraps: the stream
/// checker is given no way to split it.
#[derive(Debug, Clone)]
struct Whole<S>(S);

impl<S: CaSpec> CaSpec for Whole<S> {
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
}

fn kv_spec() -> SeqAsCa<KvMapSpec> {
    SeqAsCa::new(KvMapSpec::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Key-value streams, 1–4 keys × 2–4 clients: accepted ones, ones with
    /// stale reads planted, ones whose clients die mid-operation.
    #[test]
    fn kv_streams_match_batch_and_the_joint_set(
        seed in 0u64..5_000, keys in 1u32..5, clients in 2u32..5, ops in 1usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (stale, deaths) in [(false, false), (true, false), (true, true)] {
            let events = kv_events(&mut rng, clients, keys, ops, stale, deaths, false);
            assert_product_is_the_joint_set(kv_spec(), &events, 0, true, &mut rng);
        }
    }

    /// The same under a window of about one operation a client: it fills
    /// with operations a dead client's open one keeps from retiring, the
    /// abandoned operation is sealed at a forced boundary — or the stream
    /// saturates, at the same event in both.
    #[test]
    fn kv_streams_seal_abandoned_operations_alike(
        seed in 0u64..5_000, keys in 1u32..4, clients in 2u32..5, ops in 4usize..14,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let events = kv_events(&mut rng, clients, keys, ops, seed % 2 == 0, true, false);
        let max_window = rng.gen_range(clients as usize..clients as usize + 3);
        assert_product_is_the_joint_set(kv_spec(), &events, max_window, true, &mut rng);
    }

    /// A specification that cannot be split is the one-part case of the
    /// same code.
    #[test]
    fn a_spec_that_never_restricts_streams_as_one_part(
        seed in 0u64..5_000, keys in 1u32..4, clients in 2u32..4, ops in 1usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let events = kv_events(&mut rng, clients, keys, ops, seed % 2 == 0, seed % 3 == 0, false);
        assert_product_is_the_joint_set(Whole(kv_spec()), &events, 0, true, &mut rng);
    }

    /// Two exchangers behind one `PerObject`: elements of two operations,
    /// on two objects, sometimes with a swap nobody offered; matched and
    /// searched.
    #[test]
    fn two_exchangers_stream_as_two_parts(seed in 0u64..5_000, size in 0usize..6, corrupt in any::<bool>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let objects = [ObjectId(0), ObjectId(1)];
        let mut sources = objects.map(|o| random_exchanger_trace(&mut rng, o, 3, size).elements().to_vec());
        let mut trace = CaTrace::new();
        while sources.iter().any(|s| !s.is_empty()) {
            let from = &mut sources[rng.gen_range(0..2usize)];
            if !from.is_empty() {
                trace.push(from.remove(0));
            }
        }
        let mut h = render_loose(&trace, &mut rng, 25);
        if corrupt {
            h = mutate(&h, Mutation::CorruptReturn, &mut rng, |_| Value::Pair(true, 777_777_777)).unwrap_or(h);
        }
        let events: Vec<Event> = h.actions().iter().map(|&a| Event::Action(a)).collect();
        let spec = PerObject::new(objects.map(|o| (o, ExchangerSpec::new(o))).to_vec());
        assert_product_is_the_joint_set(spec.clone(), &events, 0, true, &mut rng);
        assert_product_is_the_joint_set(Searched(spec), &events, 0, true, &mut rng);
    }

    /// Exchanger windows full of clones, some with one clone too many
    /// planted last: every window is a closed segment, searched one
    /// successor per orbit with symmetry reduction on and every symmetric
    /// sibling with it off, or decided by the matching, and each must keep
    /// the joint set's states.
    #[test]
    fn exchanger_clone_windows_stream_as_the_joint_set(
        seed in 0u64..5_000, windows in 1usize..4, width in 1usize..4, plant in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let planted: Vec<Operation> = if plant {
            vec![Operation::new(ThreadId(0), OBJ, Method("exchange"), Value::Int(0), Value::Pair(true, 0))]
        } else {
            Vec::new()
        };
        let h = clone_windows(&mut rng, windows, width, &exchanger_shapes(), &planted);
        let events: Vec<Event> = h.actions().iter().map(|&a| Event::Action(a)).collect();
        assert_product_is_the_joint_set(ExchangerSpec::new(OBJ), &events, 0, true, &mut rng);
        for symmetry in [true, false] {
            let spec = Searched(ExchangerSpec::new(OBJ));
            assert_product_is_the_joint_set(spec, &events, 0, symmetry, &mut rng);
        }
    }

    /// One operation on an object the specification does not admit, first
    /// in the stream (nothing is split) or later (the object gets the part
    /// its `None` implies): a violation iff the operation completes.
    #[test]
    fn an_unadmitted_object_is_explainable_iff_nothing_completes_on_it(
        seed in 0u64..5_000, ops in 1usize..8, first in any::<bool>(), completes in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let stranger = ThreadId(9);
        let mut events: Vec<Event> = kv_events(&mut rng, 2, 1, ops, false, false, false);
        let mut at = if first { 0 } else { rng.gen_range(1..=events.len().max(1)).min(events.len()) };
        events.insert(at, Event::Action(Action::invoke(stranger, ObjectId(1), Method("write"), Value::Int(1))));
        if completes {
            at = rng.gen_range(at + 1..=events.len());
            events.insert(at, Event::Action(Action::response(stranger, ObjectId(1), Method("write"), Value::Unit)));
        }
        let spec = SeqAsCa::new(RegisterSpec::new(OBJ));
        assert_product_is_the_joint_set(spec.clone(), &events, 0, true, &mut rng);
        let mut checker = StreamChecker::new(spec, StreamOptions::default());
        for event in &events {
            if let Event::Action(action) = *event {
                if checker.push(action) != Push::Admitted {
                    break;
                }
            }
        }
        let expected = if completes { StreamVerdict::Violation } else { StreamVerdict::Consistent };
        prop_assert_eq!(checker.finish(), expected);
    }
}

// --- zones and the matching against the search ------------------------------

/// What a procedure-against-search comparison saw, over every stream.
#[derive(Debug, Default)]
struct Tally {
    consistent: u64,
    violation: u64,
    /// Part decisions zones or the matching made, in the checkers that
    /// had them.
    decided: u64,
    /// Nodes those checkers searched: the parts the procedure left to the
    /// search.
    fallback_nodes: u64,
    /// Streams that sealed an abandoned operation under window pressure.
    sealed: u64,
    /// Retirements that left some part more than one state.
    several: u64,
}

/// Each part's states, as a set, by object.
fn held_sets<S: CaSpec>(checker: &StreamChecker<S>) -> Vec<(Option<ObjectId>, HashSet<S::State>)> {
    checker.held_states().into_iter().map(|(o, states)| (o, states.into_iter().collect())).collect()
}

/// Feeds `events` to a checker of `spec`, whose shape has a procedure —
/// zones where a register's windows qualify, the matching for a pair
/// spec — and to one of [`Searched`]`(spec)`, which searches every window,
/// with the same options, and holds them to each other after every event:
/// what each push answered, the verdict, and every part's state set — so
/// every retirement either made left the same end states. Returns the
/// closing verdict.
fn procedure_matches_the_search<S: CaSpec + Clone>(
    spec: S,
    events: &[Event],
    opts: &StreamOptions,
    tally: &mut Tally,
) -> StreamVerdict {
    let mut zoned = StreamChecker::new(spec.clone(), opts.clone());
    let mut searched = StreamChecker::new(Searched(spec), opts.clone());
    for (i, event) in events.iter().enumerate() {
        match *event {
            Event::Abandon(thread) => {
                zoned.abandon_thread(thread);
                searched.abandon_thread(thread);
            }
            Event::Action(action) => {
                let pushed = zoned.push(action);
                assert_eq!(pushed, searched.push(action), "event {i} of {events:?}");
                if pushed != Push::Admitted {
                    break;
                }
            }
        }
        assert_eq!(zoned.verdict(), searched.verdict(), "after event {i} of {events:?}");
        assert_eq!(held_sets(&zoned), held_sets(&searched), "after event {i} of {events:?}");
    }
    let verdict = zoned.finish();
    assert_eq!(verdict, searched.finish(), "at the end of {events:?}");
    assert_eq!(held_sets(&zoned), held_sets(&searched), "at the end of {events:?}");
    let (z, s) = (zoned.stats(), searched.stats());
    assert_eq!(s.search.zones + s.search.matching, 0);
    tally.decided += z.search.zones + z.search.matching;
    tally.fallback_nodes += z.search.nodes;
    tally.sealed += u64::from(z.abandoned > 0 && opts.max_window > 0 && z.retired_ops > 0);
    tally.several += u64::from(z.peak_states > 1);
    verdict
}

/// Zones against the search, on generated streams of the `register` and
/// `kv` built-ins — stale reads planted in five of six, clients dying in
/// one of five (sealed under a window of about one operation a client in
/// half of those), values repeated and written over a held value in one
/// of seven — with automatic checkpoints every 2, 8, 32 or 128 events, so
/// that checkpoints fall while operations are pending. Each stream is held
/// to the search after every event ([`procedure_matches_the_search`]),
/// until ten thousand have ended each way.
#[test]
fn zones_decide_register_parts_as_the_search_does() {
    let mut tally = Tally::default();
    let mut seed = 0u64;
    while tally.consistent.min(tally.violation) < 10_000 {
        assert!(seed < 100_000, "too few of one polarity: {tally:?}");
        let mut rng = StdRng::seed_from_u64(seed);
        let register = seed.is_multiple_of(2);
        let every = [2usize, 8, 32, 128][(seed / 2 % 4) as usize];
        let clients = rng.gen_range(2u32..5);
        let keys = if register { 1 } else { rng.gen_range(2u32..5) };
        let ops = rng.gen_range(6..14 + every / 4);
        let (stale, deaths, repeat) = (!seed.is_multiple_of(6), seed.is_multiple_of(5), seed.is_multiple_of(7));
        let events = kv_events(&mut rng, clients, keys, ops, stale, deaths, repeat);
        let max_window = if deaths && rng.gen_bool(0.5) {
            rng.gen_range(clients as usize..clients as usize + 3)
        } else {
            0
        };
        let opts = StreamOptions { max_window, checkpoint_every: every, ..StreamOptions::default() };
        let verdict = if register {
            procedure_matches_the_search(SeqAsCa::new(RegisterSpec::new(OBJ)), &events, &opts, &mut tally)
        } else {
            procedure_matches_the_search(kv_spec(), &events, &opts, &mut tally)
        };
        match verdict {
            StreamVerdict::Consistent => tally.consistent += 1,
            StreamVerdict::Violation => tally.violation += 1,
            StreamVerdict::Undecided(_) => {}
        }
        seed += 1;
    }
    eprintln!("{seed} streams: {tally:?}");
    assert!(tally.decided > 0 && tally.fallback_nodes > 0, "{tally:?}");
    assert!(tally.sealed > 0 && tally.several > 0, "{tally:?}");
}

/// The matching against the search, on generated streams of the three
/// pair built-ins — the exchanger's clone windows, one clone too many
/// planted in some; random exchanger, elimination-array and queue traces,
/// loosened, a return corrupted in one of three; clients dying with an
/// operation open in one of five, sealed under a tight window in half of
/// those — with automatic checkpoints every 2, 8 or 32 events. Each
/// stream is held to the search after every event
/// ([`procedure_matches_the_search`]), until five thousand have ended each
/// way; the matching decides every part that is not a lone operation.
#[test]
fn matching_decides_pair_parts_as_the_search_does() {
    let mut tally = Tally::default();
    let mut seed = 0u64;
    while tally.consistent.min(tally.violation) < 5_000 {
        assert!(seed < 50_000, "too few of one polarity: {tally:?}");
        let mut rng = StdRng::seed_from_u64(seed);
        let family = seed % 4;
        let (a, b) = (rng.gen_range(1..4), rng.gen_range(1..8));
        let h = match family {
            0 => {
                let planted = if rng.gen_bool(0.5) {
                    vec![Operation::new(ThreadId(0), OBJ, Method("exchange"), Value::Int(0), Value::Pair(true, 0))]
                } else {
                    Vec::new()
                };
                clone_windows(&mut rng, a, b % 3 + 1, &exchanger_shapes(), &planted)
            }
            1 | 2 => {
                let trace = random_exchanger_trace(&mut rng, OBJ, a as u32 + 1, b);
                render_loose(&trace, &mut rng, 25)
            }
            _ => {
                let trace = random_sync_queue_trace(&mut rng, OBJ, a as u32 + 1, b);
                render_loose(&trace, &mut rng, 25)
            }
        };
        let h = if family != 0 && seed.is_multiple_of(3) {
            mutate(&h, Mutation::CorruptReturn, &mut rng, |_| Value::Pair(true, 777)).unwrap_or(h)
        } else {
            h
        };
        let mut events: Vec<Event> = h.actions().iter().map(|&a| Event::Action(a)).collect();
        let deaths = seed.is_multiple_of(5);
        if deaths {
            let at = rng.gen_range(0..=events.len());
            events.insert(at, Event::Abandon(ThreadId(rng.gen_range(0..4))));
        }
        let max_window = if deaths && rng.gen_bool(0.5) { rng.gen_range(2..6) } else { 0 };
        let every = [2usize, 8, 32][(seed / 4 % 3) as usize];
        let opts = StreamOptions { max_window, checkpoint_every: every, ..StreamOptions::default() };
        let verdict = match family {
            0 | 1 => procedure_matches_the_search(ExchangerSpec::new(OBJ), &events, &opts, &mut tally),
            2 => procedure_matches_the_search(ElimArraySpec::new(OBJ), &events, &opts, &mut tally),
            _ => procedure_matches_the_search(SyncQueueSpec::new(OBJ), &events, &opts, &mut tally),
        };
        match verdict {
            StreamVerdict::Consistent => tally.consistent += 1,
            StreamVerdict::Violation => tally.violation += 1,
            StreamVerdict::Undecided(_) => {}
        }
        seed += 1;
    }
    eprintln!("{seed} streams: {tally:?}");
    assert!(tally.decided > 0, "{tally:?}");
    assert_eq!(tally.fallback_nodes, 0, "{tally:?}");
}
