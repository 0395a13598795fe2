//! Ablations of the two design choices DESIGN.md calls out:
//!
//! - **memoization** in the Wing–Gong / CAL search (Lowe's optimization):
//!   on rejecting instances the search must exhaust its space, and without
//!   the failed-state cache the cost grows factorially;
//! - **state-space pruning** in the exhaustive scheduler: identical
//!   `(shared, locals, history, trace)` states have identical subtrees, so
//!   revisits can be cut; this is what makes 3-thread exhaustive
//!   exploration feasible (~17M raw interleavings collapse to ~1.4k).

use cal_core::check::CheckOptions;
use cal_core::{seqlin, History, ObjectId, ThreadId, Value};
use cal_sim::models::exchanger::ExchangerModel;
use cal_sim::{Explorer, OpRequest, Workload};

use cal_specs::vocab::EXCHANGE;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// A rejecting register history: `n` fully-concurrent writes of distinct
/// values plus one concurrent read of a never-written value. The checker
/// must exhaust the interleaving space to say no: without memoization that
/// space is the `n!` write orders; with it, the far smaller set of
/// `(matched-set, register-state)` pairs.
fn rejecting_register_history(n: usize) -> History {
    use cal_specs::register::{read_op, write_op};
    let mut actions = Vec::new();
    for i in 0..n {
        actions.push(write_op(ObjectId(0), ThreadId(i as u32), i as i64).invocation());
    }
    actions.push(read_op(ObjectId(0), ThreadId(n as u32), 999).invocation());
    for i in 0..n {
        actions.push(write_op(ObjectId(0), ThreadId(i as u32), i as i64).response());
    }
    actions.push(read_op(ObjectId(0), ThreadId(n as u32), 999).response());
    History::from_actions(actions)
}

fn bench_memoization(c: &mut Criterion) {
    use cal_specs::register::RegisterSpec;
    let spec = RegisterSpec::new(ObjectId(0));
    let mut group = c.benchmark_group("ablation/memoization_reject");
    group.sample_size(10);
    for &n in &[5usize, 6, 7, 8] {
        let h = rejecting_register_history(n);
        let with = CheckOptions::default();
        let without = CheckOptions { memoize: false, ..CheckOptions::default() };
        group.bench_with_input(BenchmarkId::new("memo_on", n), &h, |b, h| {
            b.iter(|| {
                let out = seqlin::check_linearizable_with(h, &spec, &with).unwrap();
                assert!(!out.verdict.is_cal());
                out.stats.nodes
            })
        });
        group.bench_with_input(BenchmarkId::new("memo_off", n), &h, |b, h| {
            b.iter(|| {
                let out = seqlin::check_linearizable_with(h, &spec, &without).unwrap();
                assert!(!out.verdict.is_cal());
                out.stats.nodes
            })
        });
    }
    group.finish();
}

fn bench_pruning(c: &mut Criterion) {
    const E: ObjectId = ObjectId(0);
    let model = ExchangerModel::new(E);
    let mut group = c.benchmark_group("ablation/scheduler_pruning");
    group.sample_size(10);
    let workloads = [
        ("2x1", Workload::new(vec![
            vec![OpRequest::new(EXCHANGE, Value::Int(1))],
            vec![OpRequest::new(EXCHANGE, Value::Int(2))],
        ])),
        ("2x2", Workload::new(vec![
            vec![OpRequest::new(EXCHANGE, Value::Int(1)), OpRequest::new(EXCHANGE, Value::Int(2))],
            vec![OpRequest::new(EXCHANGE, Value::Int(3)), OpRequest::new(EXCHANGE, Value::Int(4))],
        ])),
    ];
    for (name, w) in &workloads {
        group.bench_with_input(BenchmarkId::new("prune_on", name), w, |b, w| {
            b.iter(|| Explorer::new(&model, w.clone()).run(|_| {}).paths)
        });
        group.bench_with_input(BenchmarkId::new("prune_off", name), w, |b, w| {
            b.iter(|| Explorer::new(&model, w.clone()).no_pruning().run(|_| {}).paths)
        });
    }
    group.finish();
}

/// Recorder overhead: exercising an exchanger with no recording and with
/// the mutex recorder — quantifies how much the observation perturbs the
/// observed object.
fn bench_recorder_overhead(c: &mut Criterion) {
    use cal_core::{Method, ObjectId as Oid, ThreadId};
    use cal_objects::exchanger::Exchanger;
    use cal_objects::record::Recorder;
    use std::sync::Arc;
    const OPS: i64 = 300;
    const EXCHANGE: Method = Method("exchange");

    fn run(threads: u32, record: impl Fn(ThreadId, i64, (bool, i64)) + Sync) {
        let e = Arc::new(Exchanger::new());
        std::thread::scope(|s| {
            for t in 0..threads {
                let e = Arc::clone(&e);
                let record = &record;
                s.spawn(move || {
                    for i in 0..OPS {
                        let v = (t as i64) * 100_000 + i;
                        let r = e.exchange(v, 16);
                        record(ThreadId(t), v, r);
                    }
                });
            }
        });
    }

    let mut group = c.benchmark_group("ablation/recorder_overhead");
    group.sample_size(10);
    for &threads in &[2u32, 4] {
        group.bench_with_input(BenchmarkId::new("none", threads), &threads, |b, &t| {
            b.iter(|| run(t, |_, _, _| {}))
        });
        group.bench_with_input(BenchmarkId::new("mutex", threads), &threads, |b, &t| {
            b.iter(|| {
                let rec = Recorder::new();
                run(t, |tid, v, (ok, got)| {
                    rec.invoke(tid, Oid(0), EXCHANGE, Value::Int(v));
                    rec.response(tid, Oid(0), EXCHANGE, Value::Pair(ok, got));
                });
                rec.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_memoization, bench_pruning, bench_recorder_overhead);
criterion_main!(benches);
