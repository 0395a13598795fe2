//! Zones against the search and the reference: on registers and maps
//! whose writes are unique, `run_ca` decides every key by zones, and that
//! verdict must be the CA search's (`check_cal_with` over the spec behind
//! [`Searched`], which hides its shape) and, on small histories, the
//! kernel-free [`end_states`] reference's. Every accepted witness must
//! pass `witness_explains`. The histories are linearizable by
//! construction, pending operations included, or one of those mutated: a
//! stale read, a read of a value nobody wrote, a read of a value written
//! only after it returned, or two reads' responses swapped. A key that
//! repeats a written value must go to the search, and only that key.

use cal::core::check::{check_cal_with, witness_explains, CheckOptions, CheckOutcome, Verdict};
use cal::core::spec::{CaSpec, RegisterShape, SeqAsCa, Searched, Shape};
use cal::core::text::parse_history;
use cal::core::zones;
use cal::core::{Action, ActionKind, History, Method, ObjectId, Operation, ThreadId, Value};
use cal::specs::kv::KvMapSpec;
use cal::specs::register::RegisterSpec;
use cal::specs::registry::run_ca;
use cal::specs::vocab::{READ, WRITE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{end_states, kv_rounds, pipelined_register_history, O};

/// How a generated history is bent after it is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    None,
    /// A read returns a value its key held earlier.
    Stale,
    /// A read returns a value nothing wrote.
    Unwritten,
    /// A read returns a value written only after it responded.
    BeforeItsWrite,
    /// Two reads of one key swap their responses.
    SwapResponses,
}

const MUTATIONS: [Mutation; 5] = [
    Mutation::None,
    Mutation::Stale,
    Mutation::Unwritten,
    Mutation::BeforeItsWrite,
    Mutation::SwapResponses,
];

/// Where a thread is in its current operation.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Idle,
    Invoked(Method, ObjectId, Value),
    TookEffect(Operation),
}

/// A linearizable history by construction: `ops` operations by `threads`
/// threads over `keys` keys, each taking effect at a random moment
/// between its invocation and its response. A write stores a fresh value
/// (1, 2, …), a read returns what its key holds when it takes effect.
/// With `pending`, threads still busy at the end never respond, whether
/// or not their operation took effect.
fn generate(rng: &mut StdRng, threads: u32, ops: usize, keys: u32, pending: bool) -> History {
    let mut h = History::new();
    let mut phase = vec![Phase::Idle; threads as usize];
    let mut store = vec![0i64; keys as usize];
    let (mut started, mut fresh) = (0, 0);
    loop {
        let busy = phase.iter().any(|p| !matches!(p, Phase::Idle));
        if started == ops && (!busy || pending) {
            break;
        }
        let t = rng.gen_range(0..threads);
        let thread = ThreadId(t);
        phase[t as usize] = match phase[t as usize] {
            Phase::Idle if started < ops => {
                started += 1;
                let key = ObjectId(rng.gen_range(0..keys));
                let (method, arg) = if rng.gen_bool(0.5) {
                    fresh += 1;
                    (WRITE, Value::Int(fresh))
                } else {
                    (READ, Value::Unit)
                };
                h.push(Action::invoke(thread, key, method, arg));
                Phase::Invoked(method, key, arg)
            }
            Phase::Idle => Phase::Idle,
            Phase::Invoked(method, key, arg) => {
                let slot = &mut store[key.0 as usize];
                let ret = match arg {
                    Value::Int(v) => {
                        *slot = v;
                        Value::Unit
                    }
                    _ => Value::Int(*slot),
                };
                Phase::TookEffect(Operation::new(thread, key, method, arg, ret))
            }
            Phase::TookEffect(op) => {
                h.push(op.response());
                Phase::Idle
            }
        };
    }
    h
}

/// `h` with one read's response changed as `mutation` says, when it has a
/// read to change; `None` otherwise.
fn mutate(rng: &mut StdRng, h: &History, mutation: Mutation) -> Option<History> {
    let spans = h.spans();
    let reads: Vec<usize> =
        (0..spans.len()).filter(|&i| spans[i].method == READ && spans[i].is_complete()).collect();
    if reads.is_empty() || mutation == Mutation::None {
        return (mutation == Mutation::None).then(|| h.clone());
    }
    let r = reads[rng.gen_range(0..reads.len())];
    let writes_of = |key: ObjectId| {
        spans.iter().filter(move |s| s.method == WRITE && s.object == key)
    };
    let mut rets: Vec<(usize, Value)> = Vec::new();
    match mutation {
        Mutation::None => unreachable!(),
        Mutation::Stale => {
            let earlier: Vec<i64> = std::iter::once(0)
                .chain(writes_of(spans[r].object).filter(|w| w.inv < spans[r].inv).map(|w| {
                    w.arg.as_int().expect("a write stores an Int")
                }))
                .collect();
            rets.push((r, Value::Int(earlier[rng.gen_range(0..earlier.len())])));
        }
        Mutation::Unwritten => rets.push((r, Value::Int(1_000_000))),
        Mutation::BeforeItsWrite => {
            let later = writes_of(spans[r].object).find(|w| Some(w.inv) > spans[r].resp)?;
            rets.push((r, later.arg));
        }
        Mutation::SwapResponses => {
            let others: Vec<usize> =
                reads.iter().copied().filter(|&o| spans[o].object == spans[r].object).collect();
            let o = others[rng.gen_range(0..others.len())];
            rets.push((r, spans[o].ret.expect("complete")));
            rets.push((o, spans[r].ret.expect("complete")));
        }
    }
    let mut actions = h.actions().to_vec();
    for (i, ret) in rets {
        let s = &spans[i];
        let resp = s.resp.expect("complete");
        actions[resp] = Action::response(s.thread, s.object, s.method, ret);
    }
    Some(History::from_actions(actions))
}

fn verdict_name<W>(outcome: &CheckOutcome<W>) -> &'static str {
    match outcome.verdict {
        Verdict::Cal(_) => "cal",
        Verdict::NotCal => "not-cal",
        Verdict::ResourcesExhausted => "exhausted",
        Verdict::Interrupted { .. } => "interrupted",
    }
}

/// The objects `h` touches: the parts zones decide, one each.
fn keys(h: &History) -> u64 {
    let mut objects: Vec<ObjectId> = h.actions().iter().map(|a| a.object()).collect();
    objects.sort_unstable();
    objects.dedup();
    objects.len().max(1) as u64
}

/// Runs `h` through the dispatch and the search, asserts that zones
/// decided it — every key of an acceptance, at least one key of a
/// refutation, which ends the check — that both give one verdict, and
/// that an acceptance's witness explains `h`. Returns the verdict.
fn assert_zones_agree<S: CaSpec + Clone>(h: &History, spec: &S) -> &'static str {
    let options = CheckOptions::default();
    let decided = run_ca(h, spec, None, &options).expect("well-formed");
    let zones = decided.stats.zones;
    assert!(zones == keys(h) || (zones >= 1 && !decided.verdict.is_cal()), "zones decided {zones} keys\n{h}");
    assert_eq!(decided.stats.nodes, 0, "zones searched\n{h}");
    let searched = check_cal_with(h, &Searched(spec.clone()), &options).expect("well-formed");
    assert_eq!(searched.stats.zones, 0, "a searched spec never takes the zones path");
    let verdict = verdict_name(&decided);
    assert_eq!(verdict, verdict_name(&searched), "zones vs the search\n{h}");
    if let Verdict::Cal(witness) = &decided.verdict {
        assert!(witness_explains(h, spec, witness), "zones witness {witness}\nfor\n{h}");
    }
    verdict
}

/// Small histories of both polarities on one register and on a two-key
/// map, against the kernel and the reference.
#[test]
fn zones_agree_with_the_search_and_the_reference_on_small_histories() {
    let mut rng = StdRng::seed_from_u64(0x2011);
    let register = SeqAsCa::new(RegisterSpec::new(O));
    let kv = SeqAsCa::new(KvMapSpec::new());
    let mut tally = [[0usize; 2]; 2];
    let mut checked = 0;
    while checked < 12_000 {
        let keys = if checked % 2 == 0 { 1 } else { 2 };
        let threads = rng.gen_range(1..4);
        let ops = rng.gen_range(1..9);
        let pending = rng.gen_bool(0.5);
        let built = generate(&mut rng, threads, ops, keys, pending);
        let mutation = MUTATIONS[checked % MUTATIONS.len()];
        let Some(h) = mutate(&mut rng, &built, mutation) else { continue };
        checked += 1;
        let (verdict, reference) = if keys == 1 {
            let reference = !end_states(&register, h.actions(), &[register.initial()]).is_empty();
            (assert_zones_agree(&h, &register), reference)
        } else {
            let reference = !end_states(&kv, h.actions(), &[kv.initial()]).is_empty();
            (assert_zones_agree(&h, &kv), reference)
        };
        assert_eq!(verdict == "cal", reference, "zones vs the reference\n{h}");
        if mutation == Mutation::None {
            assert_eq!(verdict, "cal", "a generated history is linearizable\n{h}");
        }
        tally[keys as usize - 1][usize::from(verdict == "cal")] += 1;
    }
    for (spec, [refuted, accepted]) in ["register", "kv"].iter().zip(tally) {
        assert!(accepted > 1_000 && refuted > 1_000, "{spec}: {accepted} / {refuted}");
    }
}

fn register_shape() -> RegisterShape {
    match SeqAsCa::new(RegisterSpec::new(O)).shape() {
        Shape::Register(shape) => shape,
        other => panic!("the register is register-shaped, not {other:?}"),
    }
}

/// Each refutation kind on a fixed history, and the operations a
/// refutation names.
#[test]
fn each_refutation_names_its_operations() {
    let shape = register_shape();
    let parse = |text: &str| parse_history(text).expect("parses");
    let cases = [
        ("t1 inv o0.read ()\nt1 res o0.read 4\n", "returns a value nothing wrote"),
        (
            "t1 inv o0.read ()\nt1 res o0.read 4\nt2 inv o0.write 4\nt2 res o0.write ()\n",
            "write(4)",
        ),
        (
            "t1 inv o0.write 1\nt2 inv o0.write 2\nt1 res o0.write ()\nt2 res o0.write ()\n\
             t3 inv o0.read ()\nt3 res o0.read 1\nt4 inv o0.read ()\nt4 res o0.read 2\n",
            "stretches overlap",
        ),
        (
            "t1 inv o0.write 1\nt1 res o0.write ()\nt1 inv o0.write 2\nt1 res o0.write ()\n\
             t2 inv o0.read ()\nt2 res o0.read 1\n",
            "must take effect inside",
        ),
    ];
    for (text, says) in cases {
        let h = parse(text);
        let end = h.len() as i64;
        match zones::cluster(&h.spans(), &shape, RegisterShape::INITIAL, end) {
            Some(Err(conflict)) => {
                assert!(conflict.to_string().contains(says), "{conflict}\n{h}");
            }
            other => panic!("expected a refutation, got {:?}\n{h}", other.map(|z| z.is_ok())),
        }
    }
}

/// A repeated written value, a write of the initial value, an operation
/// off the register's object or outside its methods, a write returning
/// a value or storing a non-`Int`: the history goes to the search.
#[test]
fn histories_that_do_not_qualify_go_to_the_search() {
    let register = SeqAsCa::new(RegisterSpec::new(O));
    let parse = |text: &str| parse_history(text).expect("parses");
    for (text, accepted) in [
        ("t1 inv o0.write 3\nt1 res o0.write ()\nt2 inv o0.write 3\nt2 res o0.write ()\n", true),
        ("t1 inv o0.write 0\nt1 res o0.write ()\nt2 inv o0.read ()\nt2 res o0.read 0\n", true),
        ("t1 inv o1.write 3\nt1 res o1.write ()\n", false),
        ("t1 inv o0.inc ()\nt1 res o0.inc 0\n", false),
        ("t1 inv o0.write 3\nt1 res o0.write 3\n", false),
        ("t1 inv o0.write true\nt1 res o0.write ()\n", false),
    ] {
        let h = parse(text);
        let outcome = run_ca(&h, &register, None, &CheckOptions::default()).unwrap();
        assert_eq!(outcome.stats.zones, 0, "{h}");
        assert_eq!(outcome.verdict.is_cal(), accepted, "{h}");
    }
    // Generated histories whose values repeat: never zones, and the
    // search's verdict either way.
    let mut rng = StdRng::seed_from_u64(7);
    let mut repeated = 0;
    for _ in 0..500 {
        let h = generate(&mut rng, 3, 6, 1, true);
        let actions: Vec<Action> = h
            .actions()
            .iter()
            .map(|a| match a.kind() {
                ActionKind::Invoke(Value::Int(v)) => {
                    Action::invoke(a.thread(), a.object(), a.method(), Value::Int(v % 2 + 1))
                }
                ActionKind::Response(Value::Int(v)) if v > 0 => {
                    Action::response(a.thread(), a.object(), a.method(), Value::Int(v % 2 + 1))
                }
                _ => *a,
            })
            .collect();
        let h = History::from_actions(actions);
        let writes = h.spans().iter().filter(|s| s.method == WRITE).count();
        if writes < 3 {
            continue;
        }
        repeated += 1;
        let outcome = run_ca(&h, &register, None, &CheckOptions::default()).unwrap();
        assert_eq!(outcome.stats.zones, 0, "{h}");
        let searched = check_cal_with(&h, &Searched(register.clone()), &CheckOptions::default()).unwrap();
        assert_eq!(outcome.verdict, searched.verdict, "{h}");
    }
    assert!(repeated > 100, "{repeated} histories repeated a value");
}

/// An ill-formed history is the same error whether zones or the search
/// would have decided it: the spans are read, and the error found, before
/// any procedure is chosen.
#[test]
fn an_ill_formed_history_is_an_error_either_way() {
    let register = SeqAsCa::new(RegisterSpec::new(O));
    let parse = |text: &str| parse_history(text).expect("parses");
    for text in ["t1 inv o0.write 3\nt1 res o0.read 3\n", "t1 inv o0.write 3\nt1 inv o0.write 3\n"] {
        let h = parse(text);
        let options = CheckOptions::default();
        let searched = check_cal_with(&h, &Searched(register.clone()), &options).map(|_| ()).unwrap_err();
        let dispatched = run_ca(&h, &register, None, &options).map(|_| ()).unwrap_err();
        assert_eq!(dispatched.to_string(), searched.to_string(), "{h}");
    }
}

/// `ops` operations, linearizable by construction, with one read near the
/// end made stale when `plant` is set.
fn large(seed: u64, ops: usize, keys: u32, plant: bool) -> History {
    let mut rng = StdRng::seed_from_u64(seed);
    let h = generate(&mut rng, 4, ops, keys, true);
    if !plant {
        return h;
    }
    let spans = h.spans();
    let late = spans.iter().rposition(|s| {
        s.method == READ && s.is_complete() && s.ret != Some(Value::Int(0))
    });
    let s = &spans[late.expect("a late read")];
    let mut actions = h.actions().to_vec();
    actions[s.resp.unwrap()] = Action::response(s.thread, s.object, s.method, Value::Int(0));
    History::from_actions(actions)
}

/// Ten-thousand to hundred-thousand operation histories, accepted and
/// planted, on a register and on a sixteen-key map: zones against the
/// kernel, and every accepted witness replayed.
#[test]
fn zones_agree_with_the_search_at_scale() {
    let register = SeqAsCa::new(RegisterSpec::new(O));
    let kv = SeqAsCa::new(KvMapSpec::new());
    let mut cases: Vec<(History, bool, &str)> = Vec::new();
    for (seed, plant) in [(1, false), (2, true), (3, false), (4, true)] {
        cases.push((large(seed, 10_000, 1, plant), !plant, "register"));
        cases.push((large(seed, 20_000, 16, plant), !plant, "kv"));
    }
    cases.push((pipelined_register_history(100_000), true, "register"));
    cases.push((kv_rounds(100_000), true, "kv"));
    for (h, accepted, spec) in &cases {
        let verdict = match *spec {
            "register" => assert_large(h, &register),
            _ => assert_large(h, &kv),
        };
        assert_eq!(verdict == "cal", *accepted, "{spec}, {} actions", h.len());
    }
}

fn assert_large<S: CaSpec + Clone>(h: &History, spec: &S) -> &'static str {
    let options = CheckOptions::default();
    let decided = run_ca(h, spec, None, &options).expect("well-formed");
    let zones = decided.stats.zones;
    assert!(zones == keys(h) || (zones >= 1 && !decided.verdict.is_cal()), "{zones} keys by zones");
    assert_eq!(decided.stats.nodes, 0);
    let searched = check_cal_with(h, &Searched(spec.clone()), &options).expect("well-formed");
    let verdict = verdict_name(&decided);
    assert_eq!(verdict, verdict_name(&searched), "zones vs the search, {} actions", h.len());
    if let Verdict::Cal(witness) = &decided.verdict {
        let explained = witness_explains(h, spec, witness);
        assert!(explained, "the zones witness does not explain {} actions", h.len());
    }
    verdict
}
