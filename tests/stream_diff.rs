//! Differential validation of the streaming checker: pushing a history
//! through [`cal::core::stream::StreamChecker`] — with checkpoints forced
//! at random chunk boundaries, so retirement happens at arbitrary
//! moments — must reach exactly the batch [`check_cal`] verdict. Runs
//! over every spec family (a rendezvous spec, a queue spec, and two
//! lifted sequential specs) at 1, 2 and 4 threads, on both consistent
//! and corrupted histories.
//!
//! Where objects are many the checker carries its reachable-state set as
//! a product of per-object sets, and the second half of this file holds
//! that to two references at once: the batch verdict of
//! [`run_ca`] at one and two threads, and [`Joint`] — the retirement this
//! replaced, one state set over the whole specification with every closed
//! segment enumerated as one joint problem, written out here over
//! `tests/common`'s reference (nothing but [`CaSpec::step`] and Def. 3) —
//! whose verdict, `|Q|`, peak `|Q|` and retired-segment count the product
//! must reproduce after every event. Exchanger windows full of clones are
//! held to it too, with symmetry reduction on and off: their closed
//! segments are what the retirement enumeration walks one orbit at a time.

use cal::core::check::{check_cal, CheckOptions, Verdict};
use cal::core::gen::{interleave, mutate, render_loose, Mutation};
use cal::core::spec::{CaSpec, Invocation, PerObject, SeqAsCa};
use cal::core::stream::{Push, StreamChecker, StreamOptions, StreamVerdict};
use cal::core::{Action, CaElement, CaTrace, History, Method, ObjectId, Operation, ThreadId, Value};
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::gen::{random_exchanger_trace, random_sync_queue_trace};
use cal::specs::kv::KvMapSpec;
use cal::specs::register::{CounterSpec, RegisterSpec};
use cal::specs::registry::run_ca;
use cal::specs::sync_queue::SyncQueueSpec;
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
/// after every event, then holds the closing verdict to the batch
/// checker's at one and two threads. A stream that sealed an abandoned
/// operation is only held to soundness there: it may reject what batch
/// accepts, never accept what batch rejects. `symmetry` is every search's
/// [`CheckOptions::symmetry`], the stream's and the batch checker's alike.
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
    for threads in [1usize, 2] {
        let options = CheckOptions { threads, symmetry, ..CheckOptions::default() };
        let batch = run_ca(&admitted, &spec, None, &options).expect("batch check must not error");
        match batch.verdict {
            Verdict::Cal(_) if joint.sealed => {}
            Verdict::Cal(_) => assert_eq!(
                closing.verdict,
                StreamVerdict::Consistent,
                "batch ({threads} threads) accepted:\n{admitted}"
            ),
            Verdict::NotCal => assert_eq!(
                closing.verdict,
                StreamVerdict::Violation,
                "batch ({threads} threads) rejected:\n{admitted}"
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
/// now and then goes away with its operation open, and is abandoned. The
/// tail may be cut off, leaving operations pending and not abandoned.
fn kv_events(rng: &mut StdRng, clients: u32, keys: u32, ops: usize, stale: bool, deaths: bool) -> Vec<Event> {
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
            let events = kv_events(&mut rng, clients, keys, ops, stale, deaths);
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
        let events = kv_events(&mut rng, clients, keys, ops, seed % 2 == 0, true);
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
        let events = kv_events(&mut rng, clients, keys, ops, seed % 2 == 0, seed % 3 == 0);
        assert_product_is_the_joint_set(Whole(kv_spec()), &events, 0, true, &mut rng);
    }

    /// Two exchangers behind one `PerObject`: elements of two operations,
    /// on two objects, sometimes with a swap nobody offered.
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
        assert_product_is_the_joint_set(spec, &events, 0, true, &mut rng);
    }

    /// Exchanger windows full of clones, some with one clone too many
    /// planted last: every window is a closed segment, enumerated one
    /// successor per orbit with symmetry reduction on and every symmetric
    /// sibling with it off, and both must keep the joint set's states.
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
        for symmetry in [true, false] {
            assert_product_is_the_joint_set(ExchangerSpec::new(OBJ), &events, 0, symmetry, &mut rng);
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
        let mut events: Vec<Event> = kv_events(&mut rng, 2, 1, ops, false, false);
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
