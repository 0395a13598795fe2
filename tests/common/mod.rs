//! Histories more than one test file builds, the CAL and
//! interval-linearizability references they are held to, and a stats
//! sink that counts its events.
#![allow(dead_code)]

pub mod decode_ref;

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cal::core::check::{CheckOptions, CheckStats, InterruptReason};
use cal::core::history::Span;
use cal::core::interval::{IntervalSpec, IntervalWitness};
use cal::core::obs::{CountingSink, ObjectOutcome, StatsSink};
use cal::core::spec::{CaSpec, Invocation};
use cal::core::text::parse_history;
use cal::core::{Action, CaElement, History, ObjectId, Operation, ThreadId};
use cal::specs::exchanger::{fail_element, swap_element};
use cal::specs::register::{read_op, write_op};
use cal::specs::snapshot::{view, write_snapshot_op};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const O: ObjectId = ObjectId(0);

/// `k` pairwise-concurrent identical `exchange(0) -> (true, got)` calls.
/// With `got = 0` and odd `k` any two of them swap but one is left over:
/// unsatisfiable, super-exponential to refute naively, and maximally
/// symmetric. With `got = 1` no two of them swap and none may succeed
/// alone, so every candidate at the root is rejected.
pub fn identical_exchanges(k: usize, got: i64) -> History {
    let invs = (0..k).map(|t| format!("t{t} inv o0.exchange 0\n"));
    let ress = (0..k).map(|t| format!("t{t} res o0.exchange (true,{got})\n"));
    parse_history(&invs.chain(ress).collect::<String>()).expect("it parses")
}

/// `k` pairwise-concurrent `write_snapshot(i) ▷ {i}` calls: at most one of
/// them can close with a view of its own value alone, so `k ≥ 2` is not
/// interval-linearizable, and refuting it means trying every way of
/// opening and closing the calls point by point.
pub fn lone_view_snapshots(k: usize) -> History {
    let ops: Vec<Operation> = (0..k)
        .map(|i| write_snapshot_op(O, ThreadId(i as u32), i as i64, view(&[i as i64])))
        .collect();
    let mut actions: Vec<Action> = ops.iter().map(Operation::invocation).collect();
    actions.extend(ops.iter().map(Operation::response));
    History::from_actions(actions)
}

/// [`cal::specs::gen::exchanger_windows`] on object `O`: the benchmark's
/// `check-exchanger-refute` input without its seed.
pub fn exchanger_windows(windows: usize, plant: bool) -> History {
    cal::specs::gen::exchanger_windows(O, windows, plant)
}

/// `windows` windows of fully-overlapping operations: each window holds
/// `width` CA-elements drawn from `shapes` — few, so that a window is full
/// of clones, the operations symmetry reduction matches in one order —
/// every operation on a thread of its own. In the last window one in
/// three of the drawn operations stays pending, and `plant`'s operations
/// (complete) join them. Without a plant the history is CAL by
/// construction; a plant is meant to make it unexplainable.
pub fn clone_windows(
    rng: &mut StdRng,
    windows: usize,
    width: usize,
    shapes: &[CaElement],
    plant: &[Operation],
) -> History {
    let mut actions = Vec::new();
    let mut thread = 0u32;
    for w in 0..windows {
        let last = w + 1 == windows;
        let mut ops: Vec<Operation> = Vec::new();
        for _ in 0..width {
            for &op in shapes[rng.gen_range(0..shapes.len())].ops() {
                thread += 1;
                ops.push(Operation { thread: ThreadId(thread), ..op });
            }
        }
        let drawn = ops.len();
        if last {
            for &op in plant {
                thread += 1;
                ops.push(Operation { thread: ThreadId(thread), ..op });
            }
        }
        actions.extend(ops.iter().map(Operation::invocation));
        for (k, op) in ops.iter().enumerate() {
            if !(last && k < drawn && rng.gen_range(0..3) == 0) {
                actions.push(op.response());
            }
        }
    }
    History::from_actions(actions)
}

/// Exchanger elements over two values, so that a window repeats each
/// operation shape: swaps of 0 and 1, swaps of 0 with 0, lone failures.
pub fn exchanger_shapes() -> Vec<CaElement> {
    let t = ThreadId;
    vec![
        swap_element(O, t(0), 0, t(1), 1),
        swap_element(O, t(0), 0, t(1), 0),
        fail_element(O, t(0), 0),
        fail_element(O, t(0), 1),
    ]
}

/// `ops` register operations by four clients, each taking effect at its
/// invocation: client `k % 4` responds to its previous operation, then
/// invokes operation `k`, so three or four operations are always open.
/// The invocation order is a linearization and it is the order the search
/// tries first, so a checker accepts in one node an operation — unless
/// building or consulting the order costs more than the order does.
pub fn pipelined_register_history(ops: usize) -> History {
    let mut h = History::new();
    let mut open: [Option<Operation>; 4] = [None; 4];
    let mut stored = 0i64;
    for k in 0..ops {
        let (slot, t) = (k % 4, ThreadId((k % 4) as u32));
        if let Some(done) = open[slot].take() {
            h.push(done.response());
        }
        let op = if k % 2 == 0 {
            stored = k as i64 + 1;
            write_op(O, t, stored)
        } else {
            read_op(O, t, stored)
        };
        h.push(op.invocation());
        open[slot] = Some(op);
    }
    for done in open.into_iter().flatten() {
        h.push(done.response());
    }
    h
}

/// `ops` operations on a map of sixteen registers by four clients, in
/// rounds of four concurrent operations on four distinct keys; a key's
/// visits alternate between a write of a fresh value and a read of what
/// it holds. The history splits by key into sixteen sequential
/// projections, and each is accepted in one search node an operation.
pub fn kv_rounds(ops: usize) -> History {
    let mut h = History::new();
    let mut store = [0i64; 16];
    for round in 0..ops.div_ceil(4) {
        let first = 4 * round;
        let round_ops: Vec<Operation> = (first..ops.min(first + 4))
            .map(|k| {
                let (t, key) = (ThreadId((k % 4) as u32), k % 16);
                if (round / 4 + k % 4) % 2 == 0 {
                    store[key] = k as i64 + 1;
                    write_op(ObjectId(key as u32), t, store[key])
                } else {
                    read_op(ObjectId(key as u32), t, store[key])
                }
            })
            .collect();
        round_ops.iter().for_each(|op| h.push(op.invocation()));
        round_ops.iter().for_each(|op| h.push(op.response()));
    }
    h
}

/// [`cal::specs::gen::kv_bursts`] over sixteen keys, a hundred bursts,
/// seed 7: the stream the node and allocation pins are taken on.
pub fn kv_stream(clients: u32) -> History {
    cal::specs::gen::kv_bursts(&mut StdRng::seed_from_u64(7), clients, 16, 100)
}

// --- the reference -----------------------------------------------------------
//
// CAL membership written out over nothing but `CaSpec::step` and Def. 3's
// real-time order (`History::spans_precede`): no engine, no `HbRelation`,
// no symmetry classes, no `FpMemo` — none of what the checkers share, so a
// bug there cannot hide by agreeing with itself.

// --- the interval reference ----------------------------------------------------
//
// Interval-linearizability written out the same way, over nothing but
// `IntervalSpec::step` and Def. 3's real-time order: no engine, no
// `HbRelation`, no symmetry classes, no `FpMemo`, and no split history.

/// Every subset of `items`, the empty one included, each in `items` order.
fn all_subsets<T: Copy>(items: &[T]) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = vec![Vec::new()];
    for &item in items {
        let with: Vec<Vec<T>> = out.iter().map(|s| [&s[..], &[item]].concat()).collect();
        out.extend(with);
    }
    out
}

/// Every way to open the spans `opening` as operations: a complete span is
/// its operation, a pending one takes each value the specification
/// proposes for it.
fn openings<S: IntervalSpec>(
    spec: &S,
    spans: &[Span],
    opening: &[usize],
) -> Vec<Vec<(usize, Operation)>> {
    let mut out: Vec<Vec<(usize, Operation)>> = vec![Vec::new()];
    for &i in opening {
        let s = &spans[i];
        let choices: Vec<Operation> = match s.operation() {
            Some(op) => vec![op],
            None => {
                let inv = Invocation::new(s.thread, s.object, s.method, s.arg);
                let rets = spec.completions_of(&inv);
                rets.into_iter().map(|ret| s.operation_with_ret(ret)).collect()
            }
        };
        out = out
            .into_iter()
            .flat_map(|ops| choices.iter().map(move |&op| [&ops[..], &[(i, op)]].concat()))
            .collect();
    }
    out
}

fn ops_of(entries: &[(usize, Operation)]) -> Vec<Operation> {
    entries.iter().map(|&(_, op)| op).collect()
}

/// Every state some interval linearization of `history` leaves `spec` in:
/// all ways to take a point — open spans whose real-time predecessors are
/// all closed (a pending one completed with each value the spec proposes,
/// or never opened), close any of the open and opening ones, at least one
/// of either, all of one object, at most `max_active` active — until every
/// complete span is closed and nothing is open. Operations active at one
/// point are then pairwise concurrent: one before another would have had
/// to close before the other could open.
pub fn interval_end_states<S: IntervalSpec>(spec: &S, history: &History) -> Vec<S::State> {
    let spans = history.spans();
    let n = spans.len();
    assert!(n <= 64, "a reference for small histories");
    let complete = (0..n).filter(|&i| spans[i].is_complete()).fold(0u64, |m, i| m | 1 << i);
    let mut ends: Vec<S::State> = Vec::new();
    type Node<St> = (u64, Vec<(usize, Operation)>, St);
    let mut seen: HashSet<Node<S::State>> = HashSet::new();
    let mut stack: Vec<Node<S::State>> = vec![(0, Vec::new(), spec.initial())];
    while let Some(node) = stack.pop() {
        if !seen.insert(node.clone()) {
            continue;
        }
        let (closed, open, state) = node;
        if open.is_empty() && closed & complete == complete && !ends.contains(&state) {
            ends.push(state.clone());
        }
        let done = |i: usize| closed >> i & 1 == 1 || open.iter().any(|&(j, _)| j == i);
        let openable: Vec<usize> = (0..n)
            .filter(|&i| {
                !done(i)
                    && (0..n).all(|j| {
                        closed >> j & 1 == 1 || !History::spans_precede(&spans[j], &spans[i])
                    })
            })
            .collect();
        for opening in all_subsets(&openable) {
            if open.len() + opening.len() > spec.max_active() {
                continue;
            }
            for opened in openings(spec, &spans, &opening) {
                let active: Vec<(usize, Operation)> = [&open[..], &opened[..]].concat();
                for closing in all_subsets(&active) {
                    let touched = || opened.iter().chain(&closing).map(|&(_, op)| op.object);
                    let first = touched().next();
                    if first.is_none() || touched().any(|o| Some(o) != first) {
                        continue;
                    }
                    let (all, new, gone) = (ops_of(&active), ops_of(&opened), ops_of(&closing));
                    if let Some(next) = spec.step(&state, &all, &new, &gone) {
                        let closed = closing.iter().fold(closed, |m, &(i, _)| m | 1 << i);
                        let still: Vec<(usize, Operation)> =
                            active.iter().filter(|e| !closing.contains(e)).copied().collect();
                        stack.push((closed, still, next));
                    }
                }
            }
        }
    }
    ends
}

/// Replays an interval witness against `spec` and `history`: every point
/// opens or closes something, all of one object, opens each thread's next
/// operation (its
/// complete ones in order, then possibly its pending one, completed),
/// closes only active operations, lists the active set exactly, keeps
/// within `max_active` and is accepted by the spec in turn; every interval
/// closes, every complete operation has one, and real-time order holds
/// between intervals.
pub fn replay_interval<S: IntervalSpec>(
    spec: &S,
    history: &History,
    witness: &IntervalWitness,
) -> Result<(), String> {
    let spans = history.spans();
    let mut next_of: HashMap<ThreadId, usize> = HashMap::new();
    let mut state = spec.initial();
    let mut open: Vec<(usize, Operation)> = Vec::new();
    let mut interval: Vec<Option<(usize, usize)>> = vec![None; spans.len()];
    for (k, point) in witness.points().iter().enumerate() {
        let mut touched = point.opening.iter().chain(&point.closing).map(|op| op.object);
        let Some(object) = touched.next() else {
            return Err(format!("point {k} opens and closes nothing"));
        };
        if touched.any(|o| o != object) {
            return Err(format!("point {k} opens or closes operations of two objects"));
        }
        let mut active = open.clone();
        for op in &point.opening {
            let nth = next_of.entry(op.thread).or_insert(0);
            let Some(i) = (0..spans.len()).filter(|&i| spans[i].thread == op.thread).nth(*nth)
            else {
                return Err(format!("point {k} opens {op}, one more than its thread invoked"));
            };
            *nth += 1;
            let s = &spans[i];
            let fits = match s.operation() {
                Some(real) => real == *op,
                None => (s.object, s.method, s.arg) == (op.object, op.method, op.arg),
            };
            if !fits {
                return Err(format!("point {k} opens {op} where its thread invoked span {i}"));
            }
            interval[i] = Some((k, usize::MAX));
            active.push((i, *op));
        }
        let mut listed = point.active.clone();
        let mut ours = ops_of(&active);
        listed.sort();
        ours.sort();
        if listed != ours {
            return Err(format!("point {k} lists active {listed:?}, not {ours:?}"));
        }
        if active.len() > spec.max_active() {
            return Err(format!("point {k} has {} active operations", active.len()));
        }
        for op in &point.closing {
            let Some(at) = active.iter().position(|&(_, a)| a == *op) else {
                return Err(format!("point {k} closes {op}, which is not active"));
            };
            let (i, _) = active.remove(at);
            interval[i] = interval[i].map(|(first, _)| (first, k));
        }
        let Some(next) = spec.step(&state, &point.active, &point.opening, &point.closing) else {
            return Err(format!("the spec rejects point {k}: {point}"));
        };
        state = next;
        open = active;
    }
    if let Some(&(i, _)) = open.first() {
        return Err(format!("span {i}'s interval never closes"));
    }
    for (i, s) in spans.iter().enumerate() {
        if s.is_complete() && interval[i].is_none() {
            return Err(format!("complete span {i} has no interval"));
        }
        for (j, t) in spans.iter().enumerate() {
            if let (Some((_, last)), Some((first, _))) = (interval[i], interval[j]) {
                if History::spans_precede(s, t) && last >= first {
                    return Err(format!("span {i} precedes span {j}, but their intervals meet"));
                }
            }
        }
    }
    Ok(())
}

/// Every way to complete the spans `subset` into operations: a complete
/// span is its operation, a pending one takes each value the
/// specification proposes for it among the others.
fn completions<S: CaSpec>(spec: &S, spans: &[Span], subset: &[usize]) -> Vec<Vec<Operation>> {
    let invocations: Vec<Invocation> = subset
        .iter()
        .map(|&i| Invocation::new(spans[i].thread, spans[i].object, spans[i].method, spans[i].arg))
        .collect();
    let mut out: Vec<Vec<Operation>> = vec![Vec::new()];
    for (k, &i) in subset.iter().enumerate() {
        let choices: Vec<Operation> = match spans[i].operation() {
            Some(op) => vec![op],
            None => {
                let peers: Vec<Invocation> = (0..subset.len())
                    .filter(|&j| j != k)
                    .map(|j| invocations[j])
                    .collect();
                let rets = spec.completions_among(&invocations[k], &peers);
                rets.into_iter().map(|ret| spans[i].operation_with_ret(ret)).collect()
            }
        };
        out = out
            .into_iter()
            .flat_map(|ops| choices.iter().map(move |&op| [&ops[..], &[op]].concat()))
            .collect();
    }
    out
}

/// Every subset of `minimal` of one to `max` members, each ascending.
fn subsets_up_to(minimal: &[usize], max: usize) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut open: Vec<(Vec<usize>, usize)> = vec![(Vec::new(), 0)];
    while let Some((subset, from)) = open.pop() {
        for (k, &i) in minimal.iter().enumerate().skip(from) {
            let grown = [&subset[..], &[i]].concat();
            if grown.len() < max {
                open.push((grown.clone(), k + 1));
            }
            out.push(grown);
        }
    }
    out
}

/// Every state some explanation of `segment` leaves `spec` in, started
/// from any of `from`: all ways to take a CA-element — up to
/// `max_element_size` same-object minimal operations under Def. 3's
/// real-time order (minimal operations are pairwise concurrent: an
/// unmatched one before another would keep that one from being minimal),
/// pending ones completed or left out — until every complete operation is
/// taken. Every clone of a clone class is tried in every position, so
/// this is no place for wide windows of them.
pub fn end_states<S: CaSpec>(spec: &S, segment: &[Action], from: &[S::State]) -> Vec<S::State> {
    let spans = History::from_actions(segment.to_vec()).spans();
    let n = spans.len();
    assert!(n <= 64, "a reference for small windows");
    let complete = (0..n).filter(|&i| spans[i].is_complete()).fold(0u64, |m, i| m | 1 << i);
    let mut ends: Vec<S::State> = Vec::new();
    let mut seen: HashSet<(u64, S::State)> = HashSet::new();
    let mut stack: Vec<(u64, S::State)> = from.iter().map(|q| (0, q.clone())).collect();
    while let Some((matched, state)) = stack.pop() {
        if !seen.insert((matched, state.clone())) {
            continue;
        }
        if matched & complete == complete && !ends.contains(&state) {
            ends.push(state.clone());
        }
        let has = |i: usize| matched >> i & 1 == 1;
        let minimal: Vec<usize> = (0..n)
            .filter(|&i| {
                !has(i) && (0..n).all(|j| has(j) || !History::spans_precede(&spans[j], &spans[i]))
            })
            .collect();
        for subset in subsets_up_to(&minimal, spec.max_element_size().max(1)) {
            let object = spans[subset[0]].object;
            if subset.iter().any(|&i| spans[i].object != object) {
                continue;
            }
            let taken = subset.iter().fold(matched, |m, &i| m | 1 << i);
            for ops in completions(spec, &spans, &subset) {
                let Ok(element) = CaElement::new(object, ops) else { continue };
                if let Some(next) = spec.step(&state, &element) {
                    stack.push((taken, next));
                }
            }
        }
    }
    ends
}

/// A stats sink that counts each event it receives and passes the
/// frontier widths and object rows on to a [`CountingSink`]. The search counts nodes and memo hits in its own
/// [`CheckStats`]; the events counted here are the independent check on
/// them: one `on_frontier` per expansion, so the calls are the nodes
/// less the memo hits.
#[derive(Debug, Default)]
pub struct EventCounter {
    /// The sink a [`cal::core::obs::SearchReport`] is taken from.
    pub inner: CountingSink,
    frontiers: AtomicU64,
    objects: AtomicU64,
    interrupts: AtomicU64,
}

impl EventCounter {
    /// `options` with this sink attached.
    pub fn attach(self: &Arc<Self>, options: &CheckOptions) -> CheckOptions {
        CheckOptions { sink: Some(Arc::clone(self) as Arc<dyn StatsSink>), ..options.clone() }
    }

    /// `on_frontier` calls so far.
    pub fn frontiers(&self) -> u64 {
        self.frontiers.load(Ordering::Relaxed)
    }

    /// `on_object_done` calls so far.
    pub fn objects(&self) -> u64 {
        self.objects.load(Ordering::Relaxed)
    }

    /// `on_interrupt` calls so far.
    pub fn interrupts(&self) -> u64 {
        self.interrupts.load(Ordering::Relaxed)
    }

    /// Asserts that the sink saw one `on_frontier` for each node `stats`
    /// charged that no memo hit pruned.
    pub fn assert_one_frontier_per_expansion(&self, stats: &CheckStats, what: &str) {
        assert_eq!(
            self.frontiers(),
            stats.nodes - stats.memo_hits,
            "{what}: one on_frontier per expansion ({stats:?})"
        );
    }
}

impl StatsSink for EventCounter {
    fn on_frontier(&self, width: usize) {
        self.frontiers.fetch_add(1, Ordering::Relaxed);
        self.inner.on_frontier(width);
    }

    fn on_object_done(&self, object: ObjectId, wall: Duration, outcome: ObjectOutcome) {
        self.objects.fetch_add(1, Ordering::Relaxed);
        self.inner.on_object_done(object, wall, outcome);
    }

    fn on_interrupt(&self, _reason: InterruptReason) {
        self.interrupts.fetch_add(1, Ordering::Relaxed);
    }
}
