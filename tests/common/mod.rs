//! Histories more than one test file builds, and the CAL-membership
//! reference they are held to.
#![allow(dead_code)]

use std::collections::HashSet;

use cal::core::gen::render_windowed;
use cal::core::history::Span;
use cal::core::spec::{CaSpec, Invocation};
use cal::core::text::parse_history;
use cal::core::{Action, CaElement, CaTrace, History, ObjectId, Operation, ThreadId};
use cal::specs::exchanger::{exchange_ok, fail_element, swap_element};
use cal::specs::register::{read_op, write_op};
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

/// The benchmark's `check-exchanger-refute` input (`benchmark/src/gen.rs`)
/// without its seed: `windows` windows of twelve fully-overlapping
/// CA-elements — nine swaps and three lone failures over four values,
/// renamed, re-threaded and reordered from window to window. With `plant`,
/// one failure of the last window gives way to a swap naming values nobody
/// offered, which the search finds out only after it has tried every
/// pairing of every window.
pub fn exchanger_windows(windows: usize, plant: bool) -> History {
    const WINDOW: usize = 12;
    const THREADS: usize = 28;
    const SWAPS: [(usize, usize); 9] =
        [(0, 1), (0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (0, 2), (1, 1), (3, 0)];
    const FAILS: [usize; 3] = [0, 1, 2];
    let mut trace = CaTrace::new();
    for w in 0..windows {
        let name = |i: usize| ((i + w) % 4) as i64;
        let mut next = 7 * w;
        let mut take = || {
            next += 1;
            ThreadId((next % THREADS) as u32)
        };
        let mut elements: Vec<CaElement> = Vec::with_capacity(WINDOW);
        for (a, b) in SWAPS {
            elements.push(swap_element(O, take(), name(a), take(), name(b)));
        }
        let planted = plant && w + 1 == windows;
        for &a in &FAILS[usize::from(planted)..] {
            elements.push(fail_element(O, take(), name(a)));
        }
        if planted {
            let (a, b) = (exchange_ok(O, take(), 100, 101), exchange_ok(O, take(), 102, 100));
            elements.push(CaElement::pair(a, b).expect("two threads, one object"));
        }
        elements.rotate_left(5 * w % WINDOW);
        trace.extend(elements);
    }
    render_windowed(&trace, WINDOW)
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
