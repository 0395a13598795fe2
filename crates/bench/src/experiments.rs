//! The experiment bodies: one function per EXPERIMENTS.md section that
//! quotes numbers, each measuring its series through [`Bench`] and
//! asserting the verdict (or the conservation law) of every call it times.

use std::sync::atomic::{AtomicU64, Ordering};

use cal_bench::{elim_subobject_trace, exchanger_history, exchanger_trace, fes, ids};
use cal_core::agree::agrees_bool;
use cal_core::check::{check_cal, check_cal_with, CheckOptions, CheckOutcome, Verdict};
use cal_core::compose::TraceMap;
use cal_core::gen::{render, render_windowed};
use cal_core::spec::{CaSpec, PerObject, SeqAsCa};
use cal_core::stream::{Push, StreamChecker, StreamOptions, StreamVerdict};
use cal_core::{Action, CaElement, History, ObjectId, Operation, ThreadId, Value};
use cal_objects::record::Recorder;
use cal_objects::{arena_exchanger::ArenaExchanger, elim_stack::EliminationStack};
use cal_objects::{exchanger::Exchanger, stack::TreiberStack};
use cal_rg::check_exchanger_rg;
use cal_sim::models::{elim_array::ElimArrayModel, elim_stack::ElimStackModel};
use cal_sim::{models::exchanger::ExchangerModel, Explorer, OpRequest, Workload};
use cal_specs::gen::{exchanger_windows, kv_bursts};
use cal_specs::kv::KvMapSpec;
use cal_specs::register::{read_op, write_op, RegisterSpec};
use cal_specs::vocab::{EXCHANGE, POP, PUSH};
use cal_specs::{elim_array::FArMap, elim_stack::modular_stack_check};
use cal_specs::{exchanger::ExchangerSpec, stack::StackSpec};
use rand::{rngs::StdRng, SeedableRng};

use crate::timing::Bench;

/// The deterministic counters every checker series records beside its time.
const SEARCH: [&str; 2] = ["nodes", "elements_tried"];

/// The counters of a search that must have accepted.
fn accepted<W>(out: CheckOutcome<W>) -> [u64; 2] {
    assert!(out.verdict.is_cal(), "expected an acceptance");
    [out.stats.nodes, out.stats.elements_tried]
}

/// The counters of a search that must have refuted.
fn refuted<W>(out: CheckOutcome<W>) -> [u64; 2] {
    assert!(matches!(out.verdict, Verdict::NotCal), "expected a refutation");
    [out.stats.nodes, out.stats.elements_tried]
}

/// `threads` threads with one exchange each (values 0, 1, …).
fn one_exchange_each(threads: u32) -> Workload {
    let exchange = |i| vec![OpRequest::new(EXCHANGE, Value::Int(i as i64))];
    Workload::new((0..threads).map(exchange).collect())
}

/// E2 — what the exhaustive sweeps behind Theorem "the exchanger is CAL"
/// cost: schedules explored, and every rely/guarantee obligation on every
/// step of the pruned state graph.
pub fn e2(b: &mut Bench) {
    const E: ObjectId = ObjectId(0);
    let model = ExchangerModel::new(E);
    for threads in [2, 3] {
        let w = one_exchange_each(threads);
        b.exact(format!("model_check/exchanger_cal/{threads}"), ["paths"], || {
            [Explorer::new(&model, w.clone()).run(|_| {}).paths]
        });
    }
    let exchange = |v| OpRequest::new(EXCHANGE, Value::Int(v));
    let two_by_two = Workload::new(vec![vec![exchange(0), exchange(1)], vec![exchange(2), exchange(3)]]);
    for (name, w) in [("2x1", one_exchange_each(2)), ("3x1", one_exchange_each(3)), ("2x2", two_by_two)] {
        b.exact(format!("model_check/exchanger_rg/{name}"), ["edges"], || {
            let stats = Explorer::new(&model, w.clone()).edges(|step| {
                check_exchanger_rg(E, step).unwrap();
            });
            [stats.edges]
        });
    }
}

/// E4 — the modular check of the elimination stack on every schedule of
/// push ‖ pop.
pub fn e4(b: &mut Bench) {
    let array = ElimArrayModel::new(ids::AR, vec![ids::E0]);
    let model = ElimStackModel::new(ids::ES, ids::S, array, 1);
    let (far, fes) = (FArMap::new(ids::AR, vec![ids::E0]), fes());
    let w = Workload::new(vec![
        vec![OpRequest::new(PUSH, Value::Int(1))],
        vec![OpRequest::new(POP, Value::Unit)],
    ]);
    b.exact("model_check/elim_stack_modular/push_pop", ["paths"], || {
        let mut n = 0;
        Explorer::new(&model, w.clone()).run(|e| {
            assert!(modular_stack_check(&fes, &far.apply(&e.trace)));
            n += 1;
        });
        [n]
    });
}

/// E5 — the paper's central claim, quantified: verifying the elimination
/// stack *modularly* (subobject trace lifted through `F_ES`, replayed
/// against the sequential stack spec, witness agreement — near-linear
/// passes) against *monolithically* (the CAL search over the client-visible
/// history with the stack spec lifted to singleton elements — the
/// Wing–Gong search). Accepting runs, then a corrupted execution (a
/// pop of a never-pushed value) that the search must exhaust its space to
/// refute while the replay fails where it stands.
pub fn e5(b: &mut Bench) {
    const THREADS: u32 = 16;
    const WINDOW: usize = 8;
    let f = fes();
    let spec = SeqAsCa::new(StackSpec::total(ids::ES));
    for n in [8, 16, 32, 64, 128] {
        let sub = elim_subobject_trace(3, THREADS, n);
        let history = render_windowed(&f.apply(&sub), WINDOW);
        let modular = format!("verify_elim_stack/accept/modular/{n}");
        b.exact(&*modular, [], || {
            let mapped = f.apply(&sub);
            assert!(modular_stack_check(&f, &sub));
            assert!(agrees_bool(&history, &mapped));
            []
        });
        b.exact(format!("verify_elim_stack/accept/monolithic/{n}"), SEARCH, || {
            accepted(check_cal(&history, &spec).unwrap())
        });
        b.versus(&modular);

        let phantom = Value::Pair(true, 999_999);
        let pop = Operation::new(ThreadId(THREADS - 1), ids::S, POP, Value::Unit, phantom);
        let mut bad = sub.clone();
        bad.push(CaElement::singleton(pop));
        let history = render_windowed(&f.apply(&bad), WINDOW);
        let modular = format!("verify_elim_stack/reject/modular/{n}");
        b.exact(&*modular, [], || {
            assert!(!modular_stack_check(&f, &bad));
            []
        });
        b.exact(format!("verify_elim_stack/reject/monolithic/{n}"), SEARCH, || {
            refuted(check_cal(&history, &spec).unwrap())
        });
        b.versus(&modular);
    }
}

/// `threads` OS threads, each calling `op(thread, i)` for `i` in `0..ops`;
/// how many of the calls returned true.
fn hammer(threads: u32, ops: i64, op: impl Fn(u32, i64) -> bool + Sync) -> u64 {
    let hits = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (op, hits) = (&op, &hits);
            scope.spawn(move || {
                let mine = (0..ops).filter(|&i| op(t, i)).count();
                hits.fetch_add(mine as u64, Ordering::Relaxed);
            });
        }
    });
    hits.into_inner()
}

/// A value no other `(thread, i)` produces.
fn tagged(t: u32, i: i64) -> i64 {
    t as i64 * 1_000_000 + i
}

/// E6 — the scalability claim the paper imports from Hendler et al.:
/// under contention the elimination stack should beat a retrying Treiber
/// stack, because matching push/pop pairs cancel in the array instead of
/// serialising on `top`. Each thread does `OPS` push+pop pairs; then the
/// array width `K` is swept at 4 threads.
pub fn e6(b: &mut Bench) {
    const OPS: i64 = 300;
    let elimination = |threads, k| {
        let s = EliminationStack::new(k, 128);
        hammer(threads, OPS, |t, i| {
            s.push(tagged(t, i));
            s.pop_wait();
            true
        });
        []
    };
    for threads in [1, 2, 4, 8] {
        let ops = 2 * OPS as u64 * threads as u64;
        let treiber = format!("stack_throughput/treiber/{threads}");
        let series = b.exact(&*treiber, [], || {
            let s = TreiberStack::new();
            hammer(threads, OPS, |t, i| {
                s.push(tagged(t, i));
                // Each thread pops after its own push, so the stack can
                // only look empty while a sibling is mid-pop.
                (0..1_000_000).any(|_| s.pop().0) || panic!("pop starved")
            });
            []
        });
        series.rate("ops", ops);
        let eliminating = format!("stack_throughput/elimination_k2/{threads}");
        b.exact(eliminating, [], || elimination(threads, 2)).rate("ops", ops);
        b.versus(&treiber);
    }
    for k in [1, 2, 4, 8] {
        b.exact(format!("elimination_k_sweep/4threads/{k}"), [], || elimination(4, k))
            .rate("ops", 2 * OPS as u64 * 4);
    }
}

const EXCHANGES: i64 = 400;

/// `EXCHANGES` exchanges a thread on one slot; how many succeeded.
fn single_slot(threads: u32, spin: usize) -> [u64; 1] {
    let e = Exchanger::new();
    [hammer(threads, EXCHANGES, |t, i| e.exchange(tagged(t, i), spin).0)]
}

/// E7 — the exchanger as a CA-object in the wild: throughput and pairing
/// (`paired` of `ops` exchanges succeeded) against thread count and spin
/// budget. Success needs overlap: one thread never pairs, and neither do
/// four that do not wait.
pub fn e7(b: &mut Bench) {
    for threads in [1, 2, 4, 8] {
        let name = format!("exchanger_throughput/threads/{threads}");
        b.ranged(name, ["paired"], || single_slot(threads, 64))
            .rate("ops", EXCHANGES as u64 * threads as u64);
    }
    for spin in [0, 16, 64, 256, 1024] {
        b.ranged(format!("exchanger_throughput/spin/{spin}"), ["paired"], || single_slot(4, spin))
            .rate("ops", EXCHANGES as u64 * 4);
    }
}

/// E13 — one slot against the adaptive Scherer–Lea–Scott arena (8 slots)
/// under growing concurrency: the arena spreads rendezvous across slots.
pub fn e13(b: &mut Bench) {
    for threads in [2, 4, 8] {
        let ops = EXCHANGES as u64 * threads as u64;
        let single = format!("exchanger_throughput/arena_vs_single/single/{threads}");
        b.ranged(&*single, ["paired"], || single_slot(threads, 64)).rate("ops", ops);
        b.ranged(format!("exchanger_throughput/arena_vs_single/arena8/{threads}"), ["paired"], || {
            let a = ArenaExchanger::new(8, 64);
            [hammer(threads, EXCHANGES, |t, i| a.exchange(tagged(t, i), 3).0)]
        })
        .rate("ops", ops);
        b.versus(&single);
    }
}

/// E8 — checker scalability on accepting instances: CAL membership against
/// history length and thread count, and `⊑CAL` agreement on a logged
/// witness.
pub fn e8(b: &mut Bench) {
    let spec = ExchangerSpec::new(ids::E0);
    for n in [4, 8, 16, 32, 64] {
        let h = exchanger_history(42, 3, n, n);
        let name = format!("cal_check/elements/{n}");
        b.exact(name, SEARCH, || accepted(check_cal(&h, &spec).unwrap()));
    }
    for t in [2, 4, 8, 16] {
        // More threads, more overlap under the same loosening budget.
        let h = exchanger_history(7, t, 24, 48);
        let name = format!("cal_check/threads/{t}");
        b.exact(name, SEARCH, || accepted(check_cal(&h, &spec).unwrap()));
    }
    for n in [8, 32, 128, 512] {
        // The modular fast path: validating the logged witness, no search.
        let t = exchanger_trace(11, 4, n);
        let h = render(&t);
        b.exact(format!("agree/elements/{n}"), [], || {
            assert!(agrees_bool(&h, &t));
            []
        });
    }
}

/// An adversarial-but-CAL stack block: `k` pairwise-concurrent pushes, then
/// `k` *sequential* pops in FIFO order. The only linearization popping
/// 1, 2, …, k pushes k, …, 2, 1 — the last push permutation the DFS
/// enumerates — so the witness search walks nearly the whole tree first.
fn hard_cal_stack_block(object: ObjectId, base: u32, k: i64) -> Vec<Action> {
    let thread = |i: i64| ThreadId(base + i as u32);
    let mut a = Vec::new();
    a.extend((1..=k).map(|i| Action::invoke(thread(i), object, PUSH, Value::Int(i))));
    a.extend((1..=k).map(|i| Action::response(thread(i), object, PUSH, Value::Bool(true))));
    for i in 1..=k {
        a.push(Action::invoke(thread(i), object, POP, Value::Unit));
        a.push(Action::response(thread(i), object, POP, Value::Pair(true, i)));
    }
    a
}

/// E14 — the parallel-checker series whose sequential arm runs long
/// enough to mean something. **decompose/refute-last-stacks**: four stack
/// objects, the first three adversarial-but-CAL, the last with a pop of a
/// value never pushed; a sequential decomposed checker grinds through the
/// healthy three first, the parallel one is done when any worker reaches
/// the bad object and cancels the rest (asserted ≥ 1.8×).
/// **cal/frontier-stack-8**: one adversarial block against the sequential
/// stack spec lifted to singletons, one worker against every worker on
/// the root. **cal/refute-exchanger-14**: `check-exchanger-refute`'s
/// fourteen windows, one worker against every worker on the root; the
/// workers must add at most 15 % to the one-worker nodes on any host
/// (asserted), and with two or more be ≥ 1.2× faster (asserted).
pub fn e14(b: &mut Bench) {
    const OBJECTS: u32 = 4;
    let mut actions: Vec<Action> =
        (0..OBJECTS - 1).flat_map(|o| hard_cal_stack_block(ObjectId(o), o * 32, 8)).collect();
    let (bad, t) = (ObjectId(OBJECTS - 1), ThreadId(200));
    actions.extend([
        Action::invoke(t, bad, PUSH, Value::Int(1)),
        Action::response(t, bad, PUSH, Value::Bool(true)),
        Action::invoke(t, bad, POP, Value::Unit),
        Action::response(t, bad, POP, Value::Pair(true, 2)),
    ]);
    let h = History::from_actions(actions);
    let spec = PerObject::new(
        (0..OBJECTS).map(|o| (ObjectId(o), SeqAsCa::new(StackSpec::total(ObjectId(o))))).collect(),
    );
    let one = CheckOptions::default();
    let many = CheckOptions { threads: b.workers, ..CheckOptions::default() };

    b.ranged("decompose/refute-last-stacks/par", SEARCH, || {
        refuted(check_cal_with(&h, &spec, &many).unwrap())
    });
    b.exact("decompose/refute-last-stacks/seq", SEARCH, || {
        // Each subhistory in object order, stopping at the first refutation.
        let mut total = [0; 2];
        for o in 0..OBJECTS {
            let part = spec.restrict(ObjectId(o)).expect("restrictable");
            let out = check_cal_with(&h.project_object(ObjectId(o)), &part, &one).unwrap();
            total = [total[0] + out.stats.nodes, total[1] + out.stats.elements_tried];
            if matches!(out.verdict, Verdict::NotCal) {
                return total;
            }
        }
        panic!("no object was refuted")
    });
    // The headline must hold on any host: decomposition bounds refutation
    // latency by the cheapest counterexample a worker can reach, not by
    // object order.
    let speedup = b.versus("decompose/refute-last-stacks/par");
    assert!(speedup >= 1.8, "refute-last speedup {speedup:.2}x below the 1.8x floor");

    let h = History::from_actions(hard_cal_stack_block(ObjectId(0), 0, 8));
    let spec = SeqAsCa::new(StackSpec::total(ObjectId(0)));
    b.ranged("cal/frontier-stack-8/par", SEARCH, || {
        accepted(check_cal_with(&h, &spec, &many).unwrap())
    });
    b.exact("cal/frontier-stack-8/seq", SEARCH, || {
        accepted(check_cal_with(&h, &spec, &one).unwrap())
    });
    b.versus("cal/frontier-stack-8/par");

    let h = exchanger_windows(ObjectId(0), 14, true);
    let spec = ExchangerSpec::new(ObjectId(0));
    let mut par_nodes = 0;
    b.ranged("cal/refute-exchanger-14/par", SEARCH, || {
        let counts = refuted(check_cal_with(&h, &spec, &many).unwrap());
        par_nodes = par_nodes.max(counts[0]);
        counts
    });
    let mut seq_nodes = 0;
    b.exact("cal/refute-exchanger-14/seq", SEARCH, || {
        let counts = refuted(check_cal_with(&h, &spec, &one).unwrap());
        seq_nodes = counts[0];
        counts
    });
    let speedup = b.versus("cal/refute-exchanger-14/par");
    assert!(
        par_nodes * 100 <= seq_nodes * 115,
        "refute-exchanger-14: {par_nodes} nodes on {} workers against {seq_nodes} on one",
        b.workers
    );
    if b.workers >= 2 {
        assert!(speedup >= 1.2, "refute-exchanger-14 speedup {speedup:.2}x below the 1.2x floor");
    }
}

/// E16 — streaming replay at verdict parity. `pairs` overlapping exchange
/// rendezvous on one object: each pair closes a retirement boundary, but
/// every segment is concurrent and goes through the real search. The batch
/// checker and a 64-entry window decide the same 4,000 events; then the
/// window alone takes a stream 250 times as long, and its peak must not
/// have moved.
pub fn e16(b: &mut Bench) {
    let o = ObjectId(0);
    let stream = |pairs: i64| -> Vec<Action> {
        (0..pairs)
            .flat_map(|i| {
                let (a, b, va, vb) = (ThreadId(0), ThreadId(1), i % 100, (i + 1) % 100);
                [
                    Action::invoke(a, o, EXCHANGE, Value::Int(va)),
                    Action::invoke(b, o, EXCHANGE, Value::Int(vb)),
                    Action::response(a, o, EXCHANGE, Value::Pair(true, vb)),
                    Action::response(b, o, EXCHANGE, Value::Pair(true, va)),
                ]
            })
            .collect()
    };
    let spec = ExchangerSpec::new(o);
    let options =
        StreamOptions { max_window: 64, checkpoint_every: 256, ..StreamOptions::default() };
    let replay = |actions: &[Action]| {
        let mut c = StreamChecker::new(spec, options.clone());
        for &action in actions {
            assert_eq!(c.push(action), Push::Admitted);
        }
        assert_eq!(c.finish(), StreamVerdict::Consistent);
        let s = c.stats();
        assert_eq!(s.retired_actions + s.window as u64, s.events, "admitted = retired + in window");
        [s.peak_window as u64, s.retired_actions, s.retired_segments, s.checkpoints, s.saturated]
    };
    const WINDOW: [&str; 5] =
        ["peak_window", "retired_actions", "retired_segments", "checkpoints", "saturated"];

    let short = stream(1_000);
    b.exact("stream/replay-throughput/stream-4k", WINDOW, || replay(&short)).rate("events", 4_000);
    let h = History::from_actions(short.clone());
    b.exact("stream/replay-throughput/batch-4k", SEARCH, || accepted(check_cal(&h, &spec).unwrap()))
        .rate("events", 4_000);
    b.versus("stream/replay-throughput/stream-4k");
    let long = stream(250_000);
    b.exact("stream/replay-throughput/stream-1m", WINDOW, || replay(&long))
        .rate("events", 1_000_000);

    // Many objects: sixteen keys, four and eight clients, a quiescent cut
    // every 64 operations or so, `cal-serve`'s own options. Every closed
    // segment is retired key by key, so what an event costs in search
    // nodes does not grow with the clients.
    let kv = SeqAsCa::new(KvMapSpec::new());
    for clients in [4u32, 8] {
        let actions = kv_bursts(&mut StdRng::seed_from_u64(7), clients, 16, 100);
        let actions = actions.actions();
        let replay = || {
            let mut c = StreamChecker::new(kv.clone(), StreamOptions::default());
            for &action in actions {
                assert_eq!(c.push(action), Push::Admitted);
            }
            assert_eq!(c.finish(), StreamVerdict::Consistent);
            let s = c.stats();
            [s.search.nodes, s.peak_states as u64, s.peak_window as u64, s.retired_segments]
        };
        b.exact(
            format!("stream/kv-concurrent/{clients}-clients"),
            ["nodes", "peak_states", "peak_window", "retired_segments"],
            replay,
        )
        .rate("events", actions.len() as u64);
    }
}

/// A rejecting register history: `n` pairwise-concurrent writes of distinct
/// values and one concurrent read of a value never written. Without the
/// failed-state cache the search walks the `n!` write orders; with it, the
/// far smaller set of (matched set, register value) pairs.
fn rejecting_register_history(n: usize) -> History {
    let o = ObjectId(0);
    let mut ops: Vec<_> = (0..n).map(|i| write_op(o, ThreadId(i as u32), i as i64)).collect();
    ops.push(read_op(o, ThreadId(n as u32), 999));
    History::from_actions(
        ops.iter().map(|op| op.invocation()).chain(ops.iter().map(|op| op.response())).collect(),
    )
}

/// Ablations of the design choices DESIGN.md calls out: memoisation in the
/// search (Lowe's optimisation), state pruning in the exhaustive scheduler
/// (identical `(shared, locals, history, trace)` states have identical
/// subtrees), and what recording costs the object being observed.
pub fn ablations(b: &mut Bench) {
    let spec = SeqAsCa::new(RegisterSpec::new(ObjectId(0)));
    let without = CheckOptions { memoize: false, ..CheckOptions::default() };
    for n in [5, 6, 7, 8] {
        let h = rejecting_register_history(n);
        let on = format!("ablation/memoization_reject/memo_on/{n}");
        b.exact(&*on, SEARCH, || refuted(check_cal(&h, &spec).unwrap()));
        b.exact(format!("ablation/memoization_reject/memo_off/{n}"), SEARCH, || {
            refuted(check_cal_with(&h, &spec, &without).unwrap())
        });
        b.versus(&on);
    }

    let model = ExchangerModel::new(ObjectId(0));
    let exchange = |v| OpRequest::new(EXCHANGE, Value::Int(v));
    let workloads = [
        ("2x1", one_exchange_each(2)),
        ("2x2", Workload::new(vec![vec![exchange(1), exchange(2)], vec![exchange(3), exchange(4)]])),
    ];
    for (name, w) in &workloads {
        let on = format!("ablation/scheduler_pruning/prune_on/{name}");
        b.exact(&*on, ["paths"], || [Explorer::new(&model, w.clone()).run(|_| {}).paths]);
        b.exact(format!("ablation/scheduler_pruning/prune_off/{name}"), ["paths"], || {
            [Explorer::new(&model, w.clone()).no_pruning().run(|_| {}).paths]
        });
        b.versus(&on);
    }

    const OPS: i64 = 300;
    for threads in [2, 4] {
        let none = format!("ablation/recorder_overhead/none/{threads}");
        b.exact(&*none, [], || {
            let e = Exchanger::new();
            hammer(threads, OPS, |t, i| e.exchange(tagged(t, i), 16).0);
            []
        });
        b.exact(format!("ablation/recorder_overhead/mutex/{threads}"), ["logged"], || {
            let (e, rec) = (Exchanger::new(), Recorder::new());
            hammer(threads, OPS, |t, i| {
                let v = tagged(t, i);
                let (ok, got) = e.exchange(v, 16);
                rec.invoke(ThreadId(t), ObjectId(0), EXCHANGE, Value::Int(v));
                rec.response(ThreadId(t), ObjectId(0), EXCHANGE, Value::Pair(ok, got));
                ok
            });
            [rec.len() as u64]
        });
        b.versus(&none);
    }
}
