//! Random generation of specification-level CA-traces, used by the checker
//! validation tests and the scaling benchmarks.

use cal_core::gen::{interleave, render_windowed};
use cal_core::{Action, CaElement, CaTrace, History, ObjectId, ThreadId, Value};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::elim_stack::FEsMap;
use crate::exchanger::{exchange_ok, fail_element, swap_element};
use crate::stack::{pop_fail, pop_ok, push_fail, push_ok};
use crate::sync_queue::{put_timeout_element, take_timeout_element, transfer_element};
use crate::vocab::{POP_SENTINEL, READ, WRITE};

/// Generates a random legal exchanger trace: `elements` CA-elements, each a
/// swap between two distinct random threads or a singleton failure.
///
/// # Panics
///
/// Panics if `threads < 2` (a swap needs two distinct threads).
pub fn random_exchanger_trace<R: Rng>(
    rng: &mut R,
    object: ObjectId,
    threads: u32,
    elements: usize,
) -> CaTrace {
    assert!(threads >= 2, "need at least two threads to generate swaps");
    let mut trace = CaTrace::new();
    let mut fresh = 0i64;
    for _ in 0..elements {
        if rng.gen_bool(0.6) {
            let a = rng.gen_range(0..threads);
            let b = loop {
                let b = rng.gen_range(0..threads);
                if b != a {
                    break b;
                }
            };
            trace.push(swap_element(object, ThreadId(a), fresh, ThreadId(b), fresh + 1));
            fresh += 2;
        } else {
            let t = rng.gen_range(0..threads);
            trace.push(fail_element(object, ThreadId(t), fresh));
            fresh += 1;
        }
    }
    trace
}

/// The benchmark's `check-exchanger-refute` input (`benchmark/src/gen.rs`)
/// without its seed, on `object`: `windows` windows of twelve
/// fully-overlapping CA-elements — nine swaps and three lone failures over four values,
/// renamed, re-threaded and reordered from window to window. With `plant`,
/// one failure of the last window gives way to a swap naming values nobody
/// offered, which the search finds out only after it has tried every
/// pairing of every window.
pub fn exchanger_windows(object: ObjectId, windows: usize, plant: bool) -> History {
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
            elements.push(swap_element(object, take(), name(a), take(), name(b)));
        }
        let planted = plant && w + 1 == windows;
        for &a in &FAILS[usize::from(planted)..] {
            elements.push(fail_element(object, take(), name(a)));
        }
        if planted {
            let a = exchange_ok(object, take(), 100, 101);
            let b = exchange_ok(object, take(), 102, 100);
            elements.push(CaElement::pair(a, b).expect("two threads, one object"));
        }
        elements.rotate_left(5 * w % WINDOW);
        trace.extend(elements);
    }
    render_windowed(&trace, WINDOW)
}

/// Generates a random legal synchronous-queue trace.
///
/// # Panics
///
/// Panics if `threads < 2`.
pub fn random_sync_queue_trace<R: Rng>(
    rng: &mut R,
    object: ObjectId,
    threads: u32,
    elements: usize,
) -> CaTrace {
    assert!(threads >= 2, "need at least two threads to generate transfers");
    let mut trace = CaTrace::new();
    let mut fresh = 0i64;
    for _ in 0..elements {
        match rng.gen_range(0..4u8) {
            0..=1 => {
                let p = rng.gen_range(0..threads);
                let c = loop {
                    let c = rng.gen_range(0..threads);
                    if c != p {
                        break c;
                    }
                };
                trace.push(transfer_element(object, ThreadId(p), fresh, ThreadId(c)));
                fresh += 1;
            }
            2 => {
                trace.push(put_timeout_element(object, ThreadId(rng.gen_range(0..threads)), fresh));
                fresh += 1;
            }
            _ => trace.push(take_timeout_element(object, ThreadId(rng.gen_range(0..threads)))),
        }
    }
    trace
}

/// Generates a random legal *subobject* trace of the elimination stack:
/// CA-elements of the central stack `S` (successful and failing pushes and
/// pops) and of the elimination array `AR` (eliminations, failed exchanges
/// and non-eliminating same-operation exchanges), such that the `F_ES`
/// image is a well-defined sequential stack history.
///
/// # Panics
///
/// Panics if `threads < 2`.
pub fn random_elim_subobject_trace<R: Rng>(
    rng: &mut R,
    f_es: &FEsMap,
    threads: u32,
    elements: usize,
) -> CaTrace {
    assert!(threads >= 2, "need at least two threads for eliminations");
    let s = f_es.stack();
    let ar = f_es.array();
    let mut trace = CaTrace::new();
    let mut stack: Vec<i64> = Vec::new();
    let mut fresh = 0i64;
    for _ in 0..elements {
        let t = ThreadId(rng.gen_range(0..threads));
        let choices: &[u8] = if stack.is_empty() {
            &[0, 2, 3, 4, 5, 6]
        } else {
            &[0, 1, 2, 3, 4, 5, 6]
        };
        match *choices.choose(rng).expect("non-empty") {
            0 => {
                stack.push(fresh);
                trace.push(CaElement::singleton(push_ok(s, t, fresh)));
                fresh += 1;
            }
            1 => {
                let v = stack.pop().expect("guarded by choice set");
                trace.push(CaElement::singleton(pop_ok(s, t, v)));
            }
            2 => trace.push(CaElement::singleton(push_fail(s, t, fresh))),
            3 => trace.push(CaElement::singleton(pop_fail(s, t))),
            4 => {
                // Elimination: net no-op on the abstract stack.
                let t2 = ThreadId(loop {
                    let u = rng.gen_range(0..threads);
                    if ThreadId(u) != t {
                        break u;
                    }
                });
                trace.push(swap_element(ar, t, fresh, t2, POP_SENTINEL));
                fresh += 1;
            }
            5 => {
                trace.push(fail_element(ar, t, fresh));
                fresh += 1;
            }
            _ => {
                // Same-operation exchange (two pushers): hidden by F_ES.
                let t2 = ThreadId(loop {
                    let u = rng.gen_range(0..threads);
                    if ThreadId(u) != t {
                        break u;
                    }
                });
                trace.push(swap_element(ar, t, fresh, t2, fresh + 1));
                fresh += 2;
            }
        }
    }
    trace
}

/// Generates a linearizable key-value history over `keys` keys (the `kv`
/// specification's registers, [`crate::kv::KvMapSpec`]) in the shape a
/// streaming checker's cost depends on: `bursts` bursts in which each of
/// `clients` clients runs about `64 / clients` operations (give or take an
/// eighth) back to back, scheduled against one another by [`interleave`],
/// and none starts the next burst before all have finished this one — a
/// quiescent cut, and the only kind there is. An operation takes effect
/// at its invocation: a write stores a fresh value, a read returns what
/// its key holds then, so the invocation order is a linearization. One
/// client makes the stream sequential: every operation is a closed segment
/// of its own.
pub fn kv_bursts<R: Rng>(rng: &mut R, clients: u32, keys: u32, bursts: usize) -> History {
    let mut store = vec![0i64; keys as usize];
    let mut fresh = 0i64;
    let mut history = History::new();
    for _ in 0..bursts {
        let mean = (64 / clients as usize).max(1);
        let per_client: Vec<Vec<Action>> = (0..clients)
            .map(|c| {
                let (t, ops) = (ThreadId(c), rng.gen_range(mean - mean / 8..=mean + mean / 8));
                (0..ops)
                    .flat_map(|_| {
                        let key = ObjectId(rng.gen_range(0..keys));
                        // Values are filled in below, in schedule order.
                        let (method, arg) =
                            if rng.gen_bool(0.5) { (WRITE, Value::Int(0)) } else { (READ, Value::Unit) };
                        [Action::invoke(t, key, method, arg), Action::response(t, key, method, Value::Unit)]
                    })
                    .collect()
            })
            .collect();
        let mut owed = vec![Value::Unit; clients as usize];
        for action in interleave(&per_client, rng).actions() {
            let (t, key, method) = (action.thread(), action.object(), action.method());
            let cell = &mut store[key.0 as usize];
            history.push(match (action.is_invoke(), method == WRITE) {
                (true, true) => {
                    fresh += 1;
                    *cell = fresh;
                    owed[t.0 as usize] = Value::Unit;
                    Action::invoke(t, key, method, Value::Int(fresh))
                }
                (true, false) => {
                    owed[t.0 as usize] = Value::Int(*cell);
                    *action
                }
                (false, _) => Action::response(t, key, method, owed[t.0 as usize]),
            });
        }
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elim_stack::modular_stack_check;
    use crate::exchanger::ExchangerSpec;
    use crate::sync_queue::SyncQueueSpec;
    use cal_core::spec::CaSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exchanger_traces_are_legal() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = ExchangerSpec::new(ObjectId(0));
        for n in [0, 1, 5, 40] {
            let t = random_exchanger_trace(&mut rng, ObjectId(0), 4, n);
            assert_eq!(t.len(), n);
            assert!(spec.accepts(&t));
        }
    }

    #[test]
    fn sync_queue_traces_are_legal() {
        let mut rng = StdRng::seed_from_u64(2);
        let spec = SyncQueueSpec::new(ObjectId(0));
        for n in [0, 3, 25] {
            let t = random_sync_queue_trace(&mut rng, ObjectId(0), 3, n);
            assert!(spec.accepts(&t));
        }
    }

    #[test]
    fn elim_subobject_traces_pass_modular_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let f = FEsMap::new(ObjectId(0), ObjectId(1), ObjectId(2));
        for n in [0, 5, 60] {
            let t = random_elim_subobject_trace(&mut rng, &f, 4, n);
            assert!(modular_stack_check(&f, &t), "generated trace failed modular check");
        }
    }

    #[test]
    fn kv_bursts_are_linearizable_and_cut_between_bursts() {
        use cal_core::check::is_cal;
        use cal_core::spec::SeqAsCa;
        let mut rng = StdRng::seed_from_u64(5);
        for clients in [1, 3] {
            let h = kv_bursts(&mut rng, clients, 4, 3);
            assert!(h.is_well_formed() && h.is_complete());
            assert!(is_cal(&h, &SeqAsCa::new(crate::kv::KvMapSpec::new())).unwrap());
            // Sequential with one client; with three, some pair overlaps.
            assert_eq!(h.is_sequential(), clients == 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least two threads")]
    fn exchanger_generator_needs_two_threads() {
        let mut rng = StdRng::seed_from_u64(4);
        random_exchanger_trace(&mut rng, ObjectId(0), 1, 3);
    }
}
