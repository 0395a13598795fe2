//! Def. 5 in one pass against the backtracking search it replaced.
//!
//! `cal_core::agree` decides `H ⊑CAL T` by a forced assignment — the
//! `k`-th operation of a thread in the trace is that thread's `k`-th span
//! — and one sweep of the elements against the order. Before, it searched
//! for the surjection by backtracking over every span carrying each
//! operation, memoized on `(element, matched set)`, over a completion it
//! rebuilt from the witness as a history. That search is kept here,
//! copied but for the order, which it reads through `precedes` over the
//! completion's spans instead of the predecessor counts, successor lists
//! and restriction the order layer no longer has, and for its matched
//! set, a word here (the cases hold at most 64 spans).
//!
//! Each test draws 10⁵ cases over the operations of the shipped spec
//! families (the exchanger and the elimination array share theirs, as do
//! the two stacks): a random CA-trace over few threads and values, so
//! that operations repeat, rendered as an agreeing history, then
//! - some threads' last operations left pending, each completed by the
//!   trace (with its own or another return value) or dropped from it;
//! - half the time the trace or the history mutated: elements swapped or
//!   merged, an operation moved, dropped, repeated or given another
//!   return value, two adjacent actions of different threads swapped;
//! - and a causal order over the history's sessions with declared edges
//!   between random spans, pending ones included.
//!
//! Both decide each case under real time (`witness_explains`) and under
//! the causal order (`witness_explains_causal`), against a specification
//! that accepts every trace; on a complete history `agrees_under`'s
//! assignment must be the one the search finds, which is unique.

use cal::core::agree::agrees_under;
use cal::core::causal::witness_explains_causal;
use cal::core::check::witness_explains;
use cal::core::gen::render_loose;
use cal::core::history::HbRelation;
use cal::core::spec::{CaSpec, Invocation};
use cal::core::{
    Action, CaElement, CaTrace, History, Method, ObjectId, Operation, ThreadId, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The agreement check as it was before the forced assignment.
mod reference {
    use std::hash::{BuildHasherDefault, Hasher};

    use cal::core::{Action, CaTrace, History, Operation};

    /// FNV-1a: SipHash cost about a quarter of the reference's time in a
    /// debug build.
    #[derive(Default)]
    pub struct Fnv(u64);

    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }

        fn write(&mut self, bytes: &[u8]) {
            bytes.iter().for_each(|&b| self.write_u64(b.into()));
        }

        fn write_u64(&mut self, n: u64) {
            self.0 = (self.0 ^ n).wrapping_mul(0x0100_0000_01b3);
        }
    }

    type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<Fnv>>;
    type HashSet<K> = std::collections::HashSet<K, BuildHasherDefault<Fnv>>;

    /// Reconstructs the completion of `history` implied by `witness`:
    /// every complete operation must appear in the trace exactly once, a
    /// pending invocation may appear once completed, absent pending
    /// invocations are dropped. Returns the completion plus the surviving
    /// spans' original indices (ascending).
    pub fn reconstruct_completion(
        history: &History,
        witness: &CaTrace,
    ) -> Option<(History, Vec<usize>)> {
        let spans = history.spans();
        // Multiset of witness operations, minus each complete operation.
        let mut counts: HashMap<Operation, i64> = HashMap::default();
        for op in witness.all_ops() {
            *counts.entry(op).or_insert(0) += 1;
        }
        for span in spans.iter().filter(|s| s.is_complete()) {
            let op = span.operation().expect("complete span has an operation");
            match counts.get_mut(&op) {
                Some(c) if *c > 0 => *c -= 1,
                _ => return None, // a complete operation the trace does not explain
            }
        }
        // What remains must complete pending invocations, at most one per
        // thread (well-formedness guarantees at most one pending per thread).
        let mut completed_pending: Vec<(usize, Operation)> = Vec::new();
        for (op, count) in counts {
            match count {
                0 => {}
                1 => {
                    let Some(span) = spans.iter().find(|s| {
                        !s.is_complete()
                            && s.thread == op.thread
                            && s.object == op.object
                            && s.method == op.method
                            && s.arg == op.arg
                    }) else {
                        return None; // an op the history never invoked
                    };
                    completed_pending.push((span.inv, op));
                }
                _ => return None, // duplicated beyond the one pending slot
            }
        }
        // A pending invocation completed twice (two return values).
        let completed_invs: HashSet<usize> =
            completed_pending.iter().map(|&(inv, _)| inv).collect();
        if completed_invs.len() != completed_pending.len() {
            return None;
        }
        // Build the completion: drop uncompleted pending invocations,
        // append responses for completed ones.
        let dropped: HashSet<usize> = spans
            .iter()
            .filter(|s| !s.is_complete() && !completed_invs.contains(&s.inv))
            .map(|s| s.inv)
            .collect();
        let mut actions: Vec<Action> = history
            .actions()
            .iter()
            .enumerate()
            .filter(|(i, _)| !dropped.contains(i))
            .map(|(_, a)| *a)
            .collect();
        for (_, op) in &completed_pending {
            actions.push(op.response());
        }
        let completion = History::from_actions(actions);
        let kept: Vec<usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_complete() || completed_invs.contains(&s.inv))
            .map(|(i, _)| i)
            .collect();
        Some((completion, kept))
    }

    /// The surjection search over the complete history `completion`,
    /// ordered by `precedes` over its span indices, of which there are at
    /// most 64. Returns the assignment, span by span.
    pub fn agrees(
        completion: &History,
        trace: &CaTrace,
        precedes: &dyn Fn(usize, usize) -> bool,
    ) -> Option<Vec<usize>> {
        let spans = completion.spans();
        if spans.len() != trace.total_ops() {
            return None;
        }
        let n = spans.len();
        assert!(n <= 64, "a matched set is one word");
        let (mut preds, mut succ) = (vec![0u64; n], vec![0u64; n]);
        for (i, row) in succ.iter_mut().enumerate() {
            for j in (0..n).filter(|&j| precedes(i, j)) {
                *row |= 1 << j;
                preds[j] |= 1 << i;
            }
        }
        let pending = preds.iter().map(|p| p.count_ones() as usize).collect();
        let mut by_op: HashMap<Operation, Vec<usize>> = HashMap::default();
        for (i, s) in spans.iter().enumerate() {
            by_op.entry(s.operation().expect("complete")).or_default().push(i);
        }
        let mut search = AgreeSearch {
            n,
            preds,
            succ,
            trace,
            pending,
            by_op,
            matched: 0,
            assignment: vec![usize::MAX; n],
            failed: HashSet::default(),
        };
        search.element(0).then_some(search.assignment)
    }

    struct AgreeSearch<'a> {
        n: usize,
        preds: Vec<u64>,
        succ: Vec<u64>,
        trace: &'a CaTrace,
        pending: Vec<usize>,
        by_op: HashMap<Operation, Vec<usize>>,
        matched: u64,
        assignment: Vec<usize>,
        failed: HashSet<(usize, u64)>,
    }

    impl AgreeSearch<'_> {
        fn element(&mut self, k: usize) -> bool {
            if k == self.trace.len() {
                return self.matched.count_ones() as usize == self.n;
            }
            if self.failed.contains(&(k, self.matched)) {
                return false;
            }
            let element = &self.trace.elements()[k];
            let mut chosen: Vec<usize> = Vec::with_capacity(element.len());
            if self.combos(k, 0, &mut chosen) {
                return true;
            }
            self.failed.insert((k, self.matched));
            false
        }

        /// The spans of `bits`.
        fn each(bits: u64) -> impl Iterator<Item = usize> {
            (0..64).filter(move |&j| bits >> j & 1 == 1)
        }

        /// Chooses a span for operation `idx` of element `k`, then recurses.
        fn combos(&mut self, k: usize, idx: usize, chosen: &mut Vec<usize>) -> bool {
            let element = &self.trace.elements()[k];
            if idx == element.len() {
                for &i in chosen.iter() {
                    self.matched |= 1 << i;
                    self.assignment[i] = k;
                }
                for &i in chosen.iter() {
                    Self::each(self.succ[i]).for_each(|j| self.pending[j] -= 1);
                }
                if self.element(k + 1) {
                    return true;
                }
                for &i in chosen.iter() {
                    Self::each(self.succ[i]).for_each(|j| self.pending[j] += 1);
                }
                for &i in chosen.iter() {
                    self.matched &= !(1 << i);
                    self.assignment[i] = usize::MAX;
                }
                return false;
            }
            let target = element.ops()[idx];
            let candidates = match self.by_op.get(&target) {
                Some(c) => c.clone(),
                None => return false,
            };
            for i in candidates {
                if self.matched >> i & 1 == 1 || self.pending[i] != 0 || chosen.contains(&i) {
                    continue;
                }
                // Members of one element must be pairwise concurrent.
                let related = self.preds[i] | self.succ[i];
                if chosen.iter().any(|&j| related >> j & 1 == 1) {
                    continue;
                }
                chosen.push(i);
                if self.combos(k, idx + 1, chosen) {
                    return true;
                }
                chosen.pop();
            }
            false
        }
    }
}

/// Accepts every trace: the cases test agreement alone.
#[derive(Debug)]
struct AnyTrace;

impl CaSpec for AnyTrace {
    type State = ();

    fn initial(&self) {}

    fn step(&self, _: &(), _: &CaElement) -> Option<()> {
        Some(())
    }

    fn completions_of(&self, _: &Invocation) -> Vec<Value> {
        vec![]
    }
}

/// A family's operations, less thread and object: method, argument and
/// return value, over values `0..2`.
type Alphabet = fn(&mut StdRng) -> (Method, Value, Value);

fn exchange(rng: &mut StdRng) -> (Method, Value, Value) {
    (
        Method("exchange"),
        Value::Int(rng.gen_range(0..2)),
        Value::Pair(rng.gen_bool(0.5), rng.gen_range(0..2)),
    )
}

fn queue(rng: &mut StdRng) -> (Method, Value, Value) {
    if rng.gen_bool(0.5) {
        (Method("put"), Value::Int(rng.gen_range(0..2)), Value::Bool(rng.gen_bool(0.5)))
    } else {
        (Method("take"), Value::Unit, Value::Pair(rng.gen_bool(0.5), rng.gen_range(0..2)))
    }
}

fn dual_stack(rng: &mut StdRng) -> (Method, Value, Value) {
    if rng.gen_bool(0.5) {
        (Method("push"), Value::Int(rng.gen_range(0..2)), Value::Unit)
    } else {
        (Method("pop"), Value::Unit, Value::Int(rng.gen_range(0..2)))
    }
}

fn stack(rng: &mut StdRng) -> (Method, Value, Value) {
    if rng.gen_bool(0.5) {
        (Method("push"), Value::Int(rng.gen_range(0..2)), Value::Bool(rng.gen_bool(0.5)))
    } else {
        (Method("pop"), Value::Unit, Value::Pair(rng.gen_bool(0.5), rng.gen_range(0..2)))
    }
}

fn register(rng: &mut StdRng) -> (Method, Value, Value) {
    if rng.gen_bool(0.5) {
        (Method("write"), Value::Int(rng.gen_range(0..2)), Value::Unit)
    } else {
        (Method("read"), Value::Unit, Value::Int(rng.gen_range(0..2)))
    }
}

fn counter(rng: &mut StdRng) -> (Method, Value, Value) {
    (Method("inc"), Value::Unit, Value::Int(rng.gen_range(0..2)))
}

/// One drawn case.
struct Case {
    history: History,
    trace: CaTrace,
    edges: Vec<(usize, usize)>,
}

/// An operation of `alphabet` by thread `t` on `object`.
fn op(rng: &mut StdRng, alphabet: Alphabet, t: u32, object: ObjectId) -> Operation {
    let (method, arg, ret) = alphabet(rng);
    Operation::new(ThreadId(t), object, method, arg, ret)
}

/// `ops` as an element, or `None` if they are none.
fn element(ops: Vec<Operation>) -> Option<CaElement> {
    let object = ops.first()?.object;
    CaElement::new(object, ops).ok()
}

/// A random CA-trace: up to six elements over up to four threads and
/// `objects` objects, each element up to three operations of distinct
/// threads.
fn draw_trace(rng: &mut StdRng, alphabet: Alphabet, objects: u32) -> CaTrace {
    let threads = rng.gen_range(1..5u32);
    let elements = (0..rng.gen_range(1..7)).map(|_| {
        let object = ObjectId(rng.gen_range(0..objects));
        let mut members: Vec<u32> = (0..threads).collect();
        let size = rng.gen_range(1..=members.len().min(3));
        let ops = (0..size).map(|_| {
            let t = members.swap_remove(rng.gen_range(0..members.len()));
            op(rng, alphabet, t, object)
        });
        element(ops.collect()).expect("distinct threads, one object")
    });
    CaTrace::from_elements(elements.collect())
}

/// Leaves some threads' last operations pending; each is completed by
/// the trace, perhaps with another return value, or dropped from it.
fn leave_pending(rng: &mut StdRng, alphabet: Alphabet, history: &mut History, trace: &mut CaTrace) {
    let mut actions = history.actions().to_vec();
    let mut elements = trace.elements().to_vec();
    let threads: Vec<ThreadId> = {
        let mut ts: Vec<ThreadId> = actions.iter().map(Action::thread).collect();
        ts.sort_unstable();
        ts.dedup();
        ts
    };
    for t in threads {
        if !rng.gen_bool(0.4) {
            continue;
        }
        let last = actions.iter().rposition(|a| a.thread() == t).expect("the thread acts");
        actions.remove(last);
        // The thread's last operation is in the last element naming it.
        let k = elements.iter().rposition(|e| e.mentions_thread(t)).expect("in the trace");
        let mut ops = elements[k].ops().to_vec();
        let at = ops.iter().position(|o| o.thread == t).expect("named");
        match rng.gen_range(0..3) {
            0 => {
                ops.remove(at);
            }
            1 => ops[at].ret = alphabet(rng).2,
            _ => {}
        }
        match element(ops) {
            Some(e) => elements[k] = e,
            None => {
                elements.remove(k);
            }
        }
    }
    *history = History::from_actions(actions);
    *trace = CaTrace::from_elements(elements);
}

/// One mutation of the trace or the history, which may or may not break
/// agreement.
fn mutate(rng: &mut StdRng, alphabet: Alphabet, history: &mut History, trace: &mut CaTrace) {
    let mut elements = trace.elements().to_vec();
    let n = elements.len();
    let pick = |rng: &mut StdRng| rng.gen_range(0..n);
    // An empty trace (every operation was left pending and dropped) can
    // only have its history mutated.
    match if n == 0 { 6 } else { rng.gen_range(0..7) } {
        0 => {
            let (a, b) = (pick(rng), pick(rng));
            elements.swap(a, b);
        }
        1 => {
            // Merge two elements, if they can be one.
            let (a, b) = (pick(rng), pick(rng));
            let ops = [elements[a].ops(), elements[b].ops()].concat();
            if let (true, Ok(e)) = (a != b, CaElement::new(elements[a].object(), ops)) {
                elements[a] = e;
                elements.remove(b);
            }
        }
        2 => {
            // Move an operation to its own element, somewhere.
            let k = pick(rng);
            let mut ops = elements[k].ops().to_vec();
            let moved = ops.swap_remove(rng.gen_range(0..ops.len()));
            match element(ops) {
                Some(e) => elements[k] = e,
                None => {
                    elements.remove(k);
                }
            }
            let to = rng.gen_range(0..=elements.len());
            elements.insert(to, CaElement::singleton(moved));
        }
        3 => {
            // Drop an operation.
            let k = pick(rng);
            let mut ops = elements[k].ops().to_vec();
            ops.remove(rng.gen_range(0..ops.len()));
            match element(ops) {
                Some(e) => elements[k] = e,
                None => {
                    elements.remove(k);
                }
            }
        }
        4 => {
            // Repeat an operation somewhere.
            let k = pick(rng);
            let ops = elements[k].ops();
            let copy = ops[rng.gen_range(0..ops.len())];
            let to = rng.gen_range(0..=elements.len());
            elements.insert(to, CaElement::singleton(copy));
        }
        5 => {
            // Another return value.
            let k = pick(rng);
            let mut ops = elements[k].ops().to_vec();
            let at = rng.gen_range(0..ops.len());
            ops[at].ret = alphabet(rng).2;
            elements[k] = element(ops).expect("same threads, same object");
        }
        _ => {
            // Two adjacent actions of different threads trade places.
            let mut actions = history.actions().to_vec();
            if actions.len() >= 2 {
                let i = rng.gen_range(1..actions.len());
                if actions[i - 1].thread() != actions[i].thread() {
                    actions.swap(i - 1, i);
                }
            }
            *history = History::from_actions(actions);
        }
    }
    *trace = CaTrace::from_elements(elements);
}

fn draw(rng: &mut StdRng, alphabet: Alphabet, objects: u32) -> Case {
    let mut trace = draw_trace(rng, alphabet, objects);
    let moves = rng.gen_range(0..=3 * trace.total_ops());
    let mut history = render_loose(&trace, rng, moves);
    if rng.gen_bool(0.5) {
        leave_pending(rng, alphabet, &mut history, &mut trace);
    }
    if rng.gen_bool(0.5) {
        mutate(rng, alphabet, &mut history, &mut trace);
    }
    // Declared edges run forward in invocation order, as sessions do, so
    // the order is acyclic.
    let n = history.spans().len();
    let edges = if n < 2 {
        Vec::new()
    } else {
        (0..rng.gen_range(0..=n / 2))
            .map(|_| {
                let j = rng.gen_range(1..n);
                (rng.gen_range(0..j), j)
            })
            .collect()
    };
    Case { history, trace, edges }
}

/// What the old search decides of `case` under real time and under its
/// causal order `hb`, with the assignment on a complete history.
fn by_search(case: &Case, hb: &HbRelation) -> (bool, bool, Option<Vec<usize>>) {
    let Some((completion, kept)) = reference::reconstruct_completion(&case.history, &case.trace)
    else {
        return (false, false, None);
    };
    let real_time = HbRelation::real_time(&completion.spans());
    let by_time = reference::agrees(&completion, &case.trace, &|a, b| real_time.precedes(a, b));
    let by_hb = reference::agrees(&completion, &case.trace, &|a, b| hb.precedes(kept[a], kept[b]));
    (by_time.is_some(), by_hb.is_some(), by_time)
}

/// Tallies of what the drawn cases reached.
#[derive(Debug, Default)]
struct Reached {
    agree: usize,
    disagree: usize,
    causal_only: usize,
    duplicates: usize,
    completed_pending: usize,
    dropped_pending: usize,
    edges_out_of_pending: usize,
}

fn assert_the_pass_decides_as_the_search(seed: u64, alphabet: Alphabet, objects: u32) {
    const CASES: usize = 100_000;
    let rng = &mut StdRng::seed_from_u64(seed);
    let mut reached = Reached::default();
    for _ in 0..CASES {
        let case = draw(rng, alphabet, objects);
        let spans = case.history.spans();
        let hb = HbRelation::causal(&spans, &case.edges).expect("forward edges are acyclic");
        let (by_time, by_hb, assignment) = by_search(&case, &hb);
        let what =
            || format!("history:\n{}trace: {}\nedges: {:?}", case.history, case.trace, case.edges);
        assert_eq!(
            witness_explains(&case.history, &AnyTrace, &case.trace),
            by_time,
            "real time, {}",
            what()
        );
        assert_eq!(
            witness_explains_causal(&case.history, &AnyTrace, &case.trace, &hb),
            by_hb,
            "causal, {}",
            what()
        );
        if case.history.is_complete() {
            let real_time = HbRelation::real_time(&spans);
            let pass = agrees_under(&case.history, &case.trace, &real_time);
            assert_eq!(pass.map(|a| a.assignment), assignment, "assignment, {}", what());
        }
        // What the case reached.
        let mut ops = case.trace.all_ops();
        ops.sort_unstable();
        reached.duplicates += usize::from(ops.windows(2).any(|w| w[0] == w[1]));
        let pending: Vec<usize> = (0..spans.len()).filter(|&i| !spans[i].is_complete()).collect();
        let in_trace = |i: usize| {
            case.trace.elements().iter().any(|e| {
                e.ops().iter().any(|o| {
                    o.thread == spans[i].thread
                        && o.method == spans[i].method
                        && o.arg == spans[i].arg
                })
            })
        };
        reached.completed_pending += usize::from(by_hb && pending.iter().any(|&i| in_trace(i)));
        reached.dropped_pending += usize::from(by_hb && pending.iter().any(|&i| !in_trace(i)));
        reached.edges_out_of_pending +=
            usize::from(case.edges.iter().any(|(from, _)| pending.contains(from)));
        reached.causal_only += usize::from(by_hb && !by_time);
        if by_time {
            reached.agree += 1;
        } else {
            reached.disagree += 1;
        }
    }
    let floor = CASES / 100;
    let Reached {
        agree,
        disagree,
        causal_only,
        duplicates,
        completed_pending,
        dropped_pending,
        edges_out_of_pending,
    } = reached;
    for (count, what) in [
        (agree, "agree"),
        (disagree, "disagree"),
        (causal_only, "agree under the causal order only"),
        (duplicates, "repeat an operation"),
        (completed_pending, "agree, completing a pending operation"),
        (dropped_pending, "agree, dropping a pending operation"),
        (edges_out_of_pending, "declare an edge out of a pending operation"),
    ] {
        assert!(count >= floor, "only {count} of {CASES} cases {what}: {reached:?}");
    }
}

#[test]
fn exchanger_and_elimination_array_operations() {
    assert_the_pass_decides_as_the_search(1, exchange, 1);
}

#[test]
fn sync_queue_operations() {
    assert_the_pass_decides_as_the_search(2, queue, 1);
}

#[test]
fn dual_stack_operations() {
    assert_the_pass_decides_as_the_search(3, dual_stack, 1);
}

#[test]
fn stack_and_failing_stack_operations() {
    assert_the_pass_decides_as_the_search(4, stack, 1);
}

#[test]
fn register_operations() {
    assert_the_pass_decides_as_the_search(5, register, 1);
}

#[test]
fn counter_operations() {
    assert_the_pass_decides_as_the_search(6, counter, 1);
}

#[test]
fn kv_operations() {
    assert_the_pass_decides_as_the_search(7, register, 2);
}
