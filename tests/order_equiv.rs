//! Equivalence oracle for the order layer: both private shapes of
//! [`HbRelation`] against the definitions they replace.
//!
//! The reference is a plain `n × n` boolean matrix, filled for real time by
//! the all-pairs loop over [`History::spans_precede`] (Def. 3, the loop
//! `HbRelation::real_time` used to run) and for causal orders by a per-bit
//! transitive closure of session order plus the declared edges. Every
//! question a checker asks of an order is answered from the matrix by its
//! definition and compared: `precedes` / `concurrent` on every pair,
//! `minimal` and `contains` on the cuts a search reaches (grown by
//! matching random minimal spans), and the symmetry classes (the old
//! pairwise grouping, kept here, against `SymClasses::of_order`, and each
//! member's previous clone against the class lists). The chain cover is
//! held to its invariants: every span in exactly one chain, every chain
//! totally ordered, and under real time as many chains as spans are ever
//! open at once. Every order also holds each thread's spans in program
//! order, the one premise of the agreement pass.
//!
//! The rank shape is additionally compared with the *clock* shape of the
//! same order — `HbRelation::causal` fed every real-time pair as an edge —
//! so the two representations meet on identical input.

use cal::core::gen::interleave;
use cal::core::history::{HbRelation, Span};
use cal::core::symmetry::SymClasses;
use cal::core::{Action, History, Method, ObjectId, ThreadId, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// --- generation --------------------------------------------------------------

/// Few distinct operations, so that interchangeable spans are common.
fn arb_op() -> impl Strategy<Value = (Method, i64, i64, bool)> {
    (any::<bool>(), 0i64..2, 0i64..2, any::<bool>()).prop_map(|(write, arg, ret, complete)| {
        (if write { Method("write") } else { Method("read") }, arg, ret, complete)
    })
}

/// A well-formed history of up to six threads, each a chain of up to 27
/// operations whose last one may stay pending, interleaved by seed.
fn arb_history() -> impl Strategy<Value = History> {
    (prop::collection::vec(prop::collection::vec(arb_op(), 0..28), 1..7), any::<u64>()).prop_map(
        |(threads, seed)| {
            let lists: Vec<Vec<Action>> = threads
                .into_iter()
                .enumerate()
                .map(|(t, ops)| {
                    let (t, last) = (ThreadId(t as u32), ops.len().saturating_sub(1));
                    let mut out = Vec::new();
                    for (i, (method, arg, ret, complete)) in ops.into_iter().enumerate() {
                        out.push(Action::invoke(t, ObjectId(0), method, Value::Int(arg)));
                        if complete || i < last {
                            out.push(Action::response(t, ObjectId(0), method, Value::Int(ret)));
                        }
                    }
                    out
                })
                .collect();
            interleave(&lists, &mut StdRng::seed_from_u64(seed))
        },
    )
}

// --- the reference -----------------------------------------------------------

/// `m[i][j]` iff span `i` precedes span `j`.
type Matrix = Vec<Vec<bool>>;

/// Def. 3 by the all-pairs loop.
fn real_time_matrix(spans: &[Span]) -> Matrix {
    let n = spans.len();
    let mut m = vec![vec![false; n]; n];
    for (i, a) in spans.iter().enumerate() {
        for (j, b) in spans.iter().enumerate() {
            m[i][j] = i != j && History::spans_precede(a, b);
        }
    }
    m
}

/// Session order plus `edges`, closed one bit at a time.
fn causal_matrix(spans: &[Span], edges: &[(usize, usize)]) -> Matrix {
    let n = spans.len();
    let mut m = vec![vec![false; n]; n];
    for (j, b) in spans.iter().enumerate() {
        for (i, a) in spans.iter().enumerate().take(j) {
            m[i][j] = a.thread == b.thread;
        }
    }
    for &(i, j) in edges {
        m[i][j] = true;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                m[i][j] |= m[i][k] && m[k][j];
            }
        }
    }
    m
}

fn restrict_matrix(m: &Matrix, keep: &[usize]) -> Matrix {
    keep.iter().map(|&i| keep.iter().map(|&j| m[i][j]).collect()).collect()
}

fn minimal_by_definition(m: &Matrix, matched: &[bool]) -> Vec<usize> {
    let n = m.len();
    (0..n).filter(|&i| !matched[i] && (0..n).all(|j| !m[j][i] || matched[j])).collect()
}

/// Per span, its predecessor set (a column of the matrix) and its
/// successor set (a row).
fn constraint_sets(m: &Matrix) -> Vec<(Vec<bool>, Vec<bool>)> {
    (0..m.len()).map(|i| (m.iter().map(|row| row[i]).collect(), m[i].clone())).collect()
}

/// The grouping `SymClasses::of_order` used to do: each unassigned span
/// collects the later spans with the same operation, the same predecessors
/// and the same successors.
fn pairwise_classes(spans: &[Span], m: &Matrix) -> Vec<Vec<usize>> {
    let n = spans.len();
    let sets = constraint_sets(m);
    let same_op = |a: &Span, b: &Span| {
        a.object == b.object && a.method == b.method && a.arg == b.arg && a.ret == b.ret
    };
    let mut classes = Vec::new();
    let mut assigned = vec![false; n];
    for i in 0..n {
        if assigned[i] {
            continue;
        }
        let class: Vec<usize> = (i..n)
            .filter(|&j| {
                j == i
                    || (!assigned[j] && same_op(&spans[i], &spans[j]) && sets[i] == sets[j])
            })
            .collect();
        for &member in &class {
            assigned[member] = true;
        }
        if class.len() >= 2 {
            classes.push(class);
        }
    }
    classes
}

// --- cuts ----------------------------------------------------------------------

/// The matched sets a search reaches, each with its cut: grown from
/// nothing by matching one minimal span at a time, chosen at random, to
/// the full set. `minimal` is checked at every step on the way.
fn assert_cuts_match(hb: &HbRelation, m: &Matrix, rng: &mut StdRng, what: &str) {
    let n = m.len();
    // `minimal` replaces what the buffer held.
    let mut out = vec![usize::MAX];
    for _ in 0..3 {
        let (mut matched, mut cut) = (vec![false; n], hb.empty_cut());
        loop {
            let contains: Vec<bool> = (0..n).map(|i| hb.contains(&cut, i)).collect();
            assert_eq!(contains, matched, "{what}: contains");
            hb.minimal(&cut, &mut out);
            assert_eq!(out, minimal_by_definition(m, &matched), "{what}: minimal of {matched:?}");
            let Some(&next) = out.get(rng.gen_range(0..out.len().max(1))) else { break };
            hb.take(&mut cut, next);
            matched[next] = true;
        }
        assert!(matched.iter().all(|&on| on), "{what}: a cut with no minimal span left is full");
    }
}

/// The cover's invariants: every span in exactly one chain, and each
/// chain totally ordered in the order it lists its spans.
fn assert_cover_holds(hb: &HbRelation, m: &Matrix, what: &str) {
    let mut chains_of = vec![0; m.len()];
    for c in 0..hb.width() {
        let chain: Vec<usize> = hb.chain(c).collect();
        for pair in chain.windows(2) {
            assert!(m[pair[0]][pair[1]], "{what}: chain {c} = {chain:?} is not ordered");
        }
        chain.iter().for_each(|&i| chains_of[i] += 1);
    }
    assert!(chains_of.iter().all(|&k| k == 1), "{what}: chains per span {chains_of:?}");
}

/// The most spans open at one instant: at some invocation, the spans
/// invoked by then that have not responded.
fn peak_concurrency(spans: &[Span]) -> usize {
    let open_at = |t: usize| {
        spans.iter().filter(move |s| s.inv <= t && s.resp.is_none_or(|r| r > t)).count()
    };
    spans.iter().map(|s| open_at(s.inv)).max().unwrap_or(0)
}

// --- the comparison ----------------------------------------------------------

/// Every answer `hb` gives over `spans`, against the matrix.
fn assert_answers_match(hb: &HbRelation, spans: &[Span], m: &Matrix, rng: &mut StdRng, what: &str) {
    let n = spans.len();
    assert_eq!(hb.len(), n, "{what}: len");
    let sets = constraint_sets(m);
    for (i, (preds, succs)) in sets.iter().enumerate() {
        for (j, (&j_before_i, &i_before_j)) in preds.iter().zip(succs).enumerate() {
            assert_eq!(hb.precedes(i, j), i_before_j, "{what}: precedes({i}, {j})");
            assert_eq!(
                hb.concurrent(i, j),
                i != j && !i_before_j && !j_before_i,
                "{what}: concurrent({i}, {j})"
            );
            // Equal keys iff equal predecessor and successor sets.
            assert_eq!(
                hb.constraint_key(i) == hb.constraint_key(j),
                sets[i] == sets[j],
                "{what}: constraint keys of {i} and {j}"
            );
        }
    }
    let sym = SymClasses::of_order(spans, hb);
    let classes = pairwise_classes(spans, m);
    assert_eq!(sym.classes(), classes, "{what}: symmetry classes");
    let mut prev = vec![None; n];
    for class in &classes {
        for pair in class.windows(2) {
            prev[pair[1]] = Some(pair[0]);
        }
    }
    assert_eq!((0..n).map(|i| sym.prev_clone(i)).collect::<Vec<_>>(), prev, "{what}: clones");
    assert_cover_holds(hb, m, what);
    if hb.is_real_time() {
        assert_eq!(hb.width(), peak_concurrency(spans), "{what}: width");
    }
    assert_cuts_match(hb, m, rng, what);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The rank shape is the all-pairs real-time order, and so is the
    /// clock shape built from the all-pairs edges.
    #[test]
    fn ranks_are_the_all_pairs_real_time_order(h in arb_history(), seed in any::<u64>()) {
        let spans = h.spans();
        let m = real_time_matrix(&spans);
        let rng = &mut StdRng::seed_from_u64(seed);

        let ranks = HbRelation::real_time(&spans);
        prop_assert!(ranks.is_real_time());
        assert_answers_match(&ranks, &spans, &m, rng, "ranks");

        let edges: Vec<(usize, usize)> = (0..spans.len())
            .flat_map(|i| (0..spans.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| m[i][j])
            .collect();
        let clocks = HbRelation::causal(&spans, &edges).expect("real time is acyclic");
        prop_assert!(!clocks.is_real_time());
        assert_answers_match(&clocks, &spans, &m, rng, "clocked real time");

        // The real-time order of a subset of the spans is the restriction
        // of the real-time order.
        let keep: Vec<usize> = (0..spans.len()).filter(|_| rng.gen_bool(0.6)).collect();
        let kept: Vec<Span> = keep.iter().map(|&i| spans[i]).collect();
        prop_assert_eq!(real_time_matrix(&kept), restrict_matrix(&m, &keep));
        assert_answers_match(
            &HbRelation::real_time(&kept), &kept, &restrict_matrix(&m, &keep), rng, "rebuilt ranks",
        );
    }

    /// The one premise of the agreement pass (`cal_core::agree`): every
    /// order a check runs under holds each thread's spans in program
    /// order — real time by well-formedness, a causal order because its
    /// sessions are chains of it — whatever edges are declared, out of
    /// pending spans too. Edges in any direction may close a cycle, and
    /// such a declaration builds no order; forward ones never do.
    #[test]
    fn every_order_keeps_program_order(h in arb_history(), seed in any::<u64>()) {
        let spans = h.spans();
        let n = spans.len();
        let rng = &mut StdRng::seed_from_u64(seed);
        let mut edges = |forward: bool| -> Vec<(usize, usize)> {
            let count = if n < 2 { 0 } else { rng.gen_range(0..=n) };
            let edge = |rng: &mut StdRng| match forward {
                true => {
                    let j = rng.gen_range(1..n);
                    (rng.gen_range(0..j), j)
                }
                false => (rng.gen_range(0..n), rng.gen_range(0..n)),
            };
            (0..count).map(|_| edge(rng)).filter(|(i, j)| i != j).collect()
        };
        let (any, forward) = (edges(false), edges(true));
        let causal = HbRelation::causal(&spans, &forward).expect("forward edges are acyclic");
        let orders = [HbRelation::real_time(&spans), causal];
        for hb in orders.iter().chain(HbRelation::causal(&spans, &any).ok().as_ref()) {
            for (j, later) in spans.iter().enumerate() {
                for (i, earlier) in spans[..j].iter().enumerate() {
                    if earlier.thread == later.thread {
                        prop_assert!(hb.precedes(i, j), "{i} and {j} of {} unordered", later.thread);
                    }
                }
            }
        }
    }

    /// The clocks are the per-bit closure of session order plus the
    /// declared edges. Edges run forward in invocation order, as session
    /// order does, so the declaration is acyclic.
    #[test]
    fn causal_clocks_are_the_per_bit_closure(h in arb_history(), seed in any::<u64>()) {
        let spans = h.spans();
        let n = spans.len();
        let rng = &mut StdRng::seed_from_u64(seed);
        let edges: Vec<(usize, usize)> = (0..if n < 2 { 0 } else { rng.gen_range(0..=n) })
            .map(|_| {
                let j = rng.gen_range(1..n);
                (rng.gen_range(0..j), j)
            })
            .collect();
        let m = causal_matrix(&spans, &edges);
        let causal = HbRelation::causal(&spans, &edges).expect("forward edges are acyclic");
        prop_assert!(!causal.is_real_time());
        assert_answers_match(&causal, &spans, &m, rng, "causal");
    }
}
