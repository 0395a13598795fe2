//! Property-based tests of the core data structures and invariants.

use cal_core::gen::{interleave, render, render_windowed};
use cal_core::text::{format_history, format_trace, parse_history, parse_trace};
use cal_core::{Action, CaElement, CaTrace, History, Method, ObjectId, Operation, ThreadId, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        (-100i64..100).prop_map(Value::Int),
        (any::<bool>(), -100i64..100).prop_map(|(b, n)| Value::Pair(b, n)),
    ]
}

fn arb_method() -> impl Strategy<Value = Method> {
    prop_oneof![
        Just(Method("exchange")),
        Just(Method("push")),
        Just(Method("pop")),
        Just(Method("put")),
    ]
}

/// A per-thread sequential action list: alternating inv/res on one object.
fn arb_thread_actions(t: u32) -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec((arb_method(), arb_value(), arb_value(), any::<bool>()), 0..5).prop_map(
        move |ops| {
            let mut out = Vec::new();
            let n = ops.len();
            for (i, (m, arg, ret, complete)) in ops.into_iter().enumerate() {
                out.push(Action::invoke(ThreadId(t), ObjectId(0), m, arg));
                // Only the final operation may stay pending.
                if complete || i + 1 < n {
                    out.push(Action::response(ThreadId(t), ObjectId(0), m, ret));
                }
            }
            out
        },
    )
}

fn arb_history() -> impl Strategy<Value = History> {
    (prop::collection::vec(arb_thread_actions(0), 1..4), any::<u64>()).prop_map(
        |(mut lists, seed)| {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            // Re-thread the lists so thread ids are distinct.
            for (t, list) in lists.iter_mut().enumerate() {
                for a in list.iter_mut() {
                    let rethreaded = match (a.is_invoke(), a.arg(), a.ret()) {
                        (true, Some(arg), _) => {
                            Action::invoke(ThreadId(t as u32), a.object(), a.method(), arg)
                        }
                        (_, _, Some(ret)) => {
                            Action::response(ThreadId(t as u32), a.object(), a.method(), ret)
                        }
                        _ => unreachable!(),
                    };
                    *a = rethreaded;
                }
            }
            let mut rng = StdRng::seed_from_u64(seed);
            interleave(&lists, &mut rng)
        },
    )
}

fn arb_trace() -> impl Strategy<Value = CaTrace> {
    prop::collection::vec(
        (0u32..4, arb_method(), arb_value(), arb_value(), any::<bool>(), arb_value()),
        0..8,
    )
    .prop_map(|specs| {
        let mut elements = Vec::new();
        for (t, m, arg, ret, pair, arg2) in specs {
            let a = Operation::new(ThreadId(t), ObjectId(0), m, arg, ret);
            if pair {
                let b = Operation::new(ThreadId(t + 10), ObjectId(0), m, arg2, ret);
                elements.push(CaElement::pair(a, b).expect("distinct threads"));
            } else {
                elements.push(CaElement::singleton(a));
            }
        }
        CaTrace::from_elements(elements)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn interleaved_histories_are_well_formed(h in arb_history()) {
        prop_assert!(h.is_well_formed());
        // Per-thread projections are sequential.
        let threads: std::collections::HashSet<_> = h.actions().iter().map(|a| a.thread()).collect();
        for t in threads {
            prop_assert!(h.project_thread(t).is_sequential());
        }
    }

    #[test]
    fn spans_pair_invocations_and_responses(h in arb_history()) {
        let spans = h.spans();
        let invocations = h.actions().iter().filter(|a| a.is_invoke()).count();
        let responses = h.actions().iter().filter(|a| a.is_response()).count();
        prop_assert_eq!(spans.len(), invocations);
        prop_assert_eq!(spans.iter().filter(|s| s.is_complete()).count(), responses);
        // Real-time order is irreflexive and antisymmetric.
        for a in &spans {
            prop_assert!(!History::spans_precede(a, a));
            for b in &spans {
                if History::spans_precede(a, b) {
                    prop_assert!(!History::spans_precede(b, a));
                }
            }
        }
    }

    #[test]
    fn completions_are_complete_and_bounded(h in arb_history()) {
        let pending = h.spans().iter().filter(|s| !s.is_complete()).count();
        let completions = h.completions(|_| vec![Value::Unit]);
        prop_assert_eq!(completions.len(), 2usize.pow(pending as u32));
        for c in completions {
            prop_assert!(c.is_complete());
        }
    }

    #[test]
    fn history_text_round_trip(h in arb_history()) {
        let text = format_history(&h);
        let parsed = parse_history(&text).expect("formatter output parses");
        prop_assert_eq!(parsed, h);
    }

    #[test]
    fn trace_text_round_trip(t in arb_trace()) {
        let text = format_trace(&t);
        let parsed = parse_trace(&text).expect("formatter output parses");
        prop_assert_eq!(parsed, t);
    }

    #[test]
    fn trace_projections_partition_objects(t in arb_trace()) {
        // Projection to the only object is the identity here.
        prop_assert_eq!(t.project_object(ObjectId(0)), t.clone());
        prop_assert!(t.project_object(ObjectId(9)).is_empty());
        // Thread projections keep whole elements.
        for el in t.elements() {
            for op in el.ops() {
                let proj = t.project_thread(op.thread);
                prop_assert!(proj.elements().contains(el));
            }
        }
    }

    #[test]
    fn windowed_render_always_agrees(t in arb_trace(), w in 1usize..6) {
        let h = render_windowed(&t, w);
        prop_assert!(h.is_well_formed());
        prop_assert!(cal_core::agree::agrees_bool(&h, &t));
        // The strict render agrees too.
        prop_assert!(cal_core::agree::agrees_bool(&render(&t), &t));
    }
}

/// Well-formedness as it was decided before one rule did it: a scan over
/// the threads with an open invocation for every action, then a second
/// loop that matches responses into spans. The parity tests below hold
/// the one rule to it.
mod scan {
    use cal_core::history::{HistoryError, Span};
    use cal_core::{Action, ActionKind, Method, ObjectId, ThreadId};

    pub fn validate(actions: &[Action]) -> Result<(), HistoryError> {
        let mut pending: Vec<(ThreadId, ObjectId, Method)> = Vec::new();
        for (index, a) in actions.iter().enumerate() {
            let t = a.thread();
            let slot = pending.iter().position(|(pt, _, _)| *pt == t);
            match a.kind() {
                ActionKind::Invoke(_) => {
                    if slot.is_some() {
                        return Err(HistoryError::NestedInvocation { index, thread: t });
                    }
                    pending.push((t, a.object(), a.method()));
                }
                ActionKind::Response(_) => match slot {
                    None => {
                        return Err(HistoryError::ResponseWithoutInvocation { index, thread: t })
                    }
                    Some(i) => {
                        let (_, o, m) = pending[i];
                        if o != a.object() || m != a.method() {
                            return Err(HistoryError::MismatchedResponse { index, thread: t });
                        }
                        pending.swap_remove(i);
                    }
                },
            }
        }
        Ok(())
    }

    pub fn spans(actions: &[Action]) -> Result<Vec<Span>, HistoryError> {
        validate(actions)?;
        let mut spans: Vec<Span> = Vec::new();
        let mut pending: Vec<(ThreadId, usize)> = Vec::new();
        for (index, a) in actions.iter().enumerate() {
            match a.kind() {
                ActionKind::Invoke(arg) => {
                    pending.push((a.thread(), spans.len()));
                    spans.push(Span {
                        inv: index,
                        resp: None,
                        thread: a.thread(),
                        object: a.object(),
                        method: a.method(),
                        arg,
                        ret: None,
                    });
                }
                ActionKind::Response(ret) => {
                    let i = pending.iter().position(|(t, _)| *t == a.thread()).unwrap();
                    let (_, si) = pending.swap_remove(i);
                    spans[si].resp = Some(index);
                    spans[si].ret = Some(ret);
                }
            }
        }
        Ok(spans)
    }
}

/// A specification every history satisfies, so a stream of it never
/// latches a verdict and refuses nothing.
#[derive(Debug, Clone)]
struct Anything;

impl cal_core::spec::SeqSpec for Anything {
    type State = ();
    fn initial(&self) {}
    fn apply(&self, _: &(), _: &Operation) -> Option<()> {
        Some(())
    }
    fn completions_of(&self, _: &cal_core::spec::Invocation) -> Vec<Value> {
        Vec::new()
    }
}

/// Action sequences over four threads and two objects that are mostly
/// well-formed, with nested invocations, orphan responses and mismatched
/// responses mixed in: each move is a thread, what it does and a value.
/// Moves 0–6 keep the thread well-formed (invoke if it has nothing open,
/// else answer it), 7 invokes regardless, 8 answers on a random object
/// and method, and 9 answers the open invocation's object with the other
/// method.
fn arb_ragged_actions() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec((0u32..4, 0u32..10, 0u32..2, any::<bool>(), -3i64..3), 0..40).prop_map(
        |moves| {
            const METHODS: [Method; 2] = [Method("push"), Method("pop")];
            let mut open: [Option<(ObjectId, Method)>; 4] = [None; 4];
            let mut out = Vec::new();
            for (t, kind, o, m, v) in moves {
                let (thread, value) = (ThreadId(t), Value::Int(v));
                let (object, method) = (ObjectId(o), METHODS[usize::from(m)]);
                let answer = |(o, m): (ObjectId, Method)| Action::response(thread, o, m, value);
                let action = match (kind, open[t as usize]) {
                    (0..=6, Some(inv)) => answer(inv),
                    (0..=7, _) => Action::invoke(thread, object, method, value),
                    (9, Some((o, m))) => answer((o, METHODS[usize::from(m == METHODS[0])])),
                    _ => answer((object, method)),
                };
                // Follow the thread as a well-formed history would.
                open[t as usize] = match (action.is_invoke(), open[t as usize]) {
                    (true, None) => Some((action.object(), action.method())),
                    (true, pending) => pending,
                    (false, Some(inv)) if inv == (action.object(), action.method()) => None,
                    (false, pending) => pending,
                };
                out.push(action);
            }
            out
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_rule_decides_as_the_scan_did(actions in arb_ragged_actions()) {
        let h = History::from_actions(actions.clone());
        prop_assert_eq!(h.validate(), scan::validate(&actions));
        prop_assert_eq!(h.try_spans(), scan::spans(&actions));
    }

    #[test]
    fn the_stream_rejects_what_the_batch_rejects(actions in arb_ragged_actions()) {
        use cal_core::spec::SeqAsCa;
        use cal_core::stream::{Push, StreamChecker, StreamOptions};
        // Unbounded, and retiring after every event: admission reads the
        // table across every retirement, and nothing is ever sealed.
        let options = StreamOptions { max_window: 0, checkpoint_every: 1, ..StreamOptions::default() };
        let mut stream = StreamChecker::new(SeqAsCa::new(Anything), options);
        let mut admitted: Vec<Action> = Vec::new();
        for (k, &action) in actions.iter().enumerate() {
            if k % 5 == 4 {
                // A client that leaves changes nothing about admission.
                stream.abandon_thread(action.thread());
            }
            admitted.push(action);
            let batch = History::from_actions(admitted.clone()).try_spans();
            match stream.push(action) {
                Push::Admitted => prop_assert!(batch.is_ok(), "admitted {} but {:?}", action, batch),
                Push::Rejected(e) => {
                    prop_assert_eq!(batch, Err(e));
                    admitted.pop();
                }
                other => prop_assert!(false, "{} was neither admitted nor rejected: {:?}", action, other),
            }
        }
    }
}
