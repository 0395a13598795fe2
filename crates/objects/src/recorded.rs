//! Recorded objects: the real objects instrumented to log client-visible
//! histories for offline CAL / linearizability checking.
//!
//! There is one wrapper, [`Recorded<T>`], and one instrumentation point,
//! its private bracket: the invocation is logged, the call runs between
//! the `OpStart` and `OpEnd` chaos points, the response is logged — and
//! for an abandoned operation ([`Recorded::abandon`]: the chaos harness's
//! worker dying mid-operation) the invocation is logged and nothing
//! else happens. Every typed method below is one line over that bracket
//! — what it logs as argument, what it calls, how it spells the return
//! — so a richer log (ROADMAP item 6's instrumented trace) has a single
//! place to be emitted from.

use std::sync::Arc;

use cal_core::{Method, ObjectId, ThreadId, Value};
use cal_specs::vocab::{CANCEL_SENTINEL, EXCHANGE, POP, PUSH, PUT, TAKE};

use crate::arena_exchanger::ArenaExchanger;
use crate::dual_stack::DualStack;
use crate::elim_stack::EliminationStack;
use crate::exchanger::Exchanger;
use crate::hooks::{self, Site};
use crate::record::Recorder;
use crate::stack::TreiberStack;
use crate::sync_queue::SyncQueue;

/// A live object named `object` whose operations are logged to a
/// [`Recorder`]. The typed operations live on the aliases
/// ([`RecordedExchanger`] … [`RecordedSyncQueue`]).
#[derive(Debug)]
pub struct Recorded<T> {
    inner: T,
    object: ObjectId,
    recorder: Arc<Recorder>,
}

/// An [`Exchanger`] that records its history.
///
/// # Examples
///
/// ```
/// use cal_core::{ObjectId, ThreadId};
/// use cal_objects::recorded::RecordedExchanger;
/// let e = RecordedExchanger::new(ObjectId(0));
/// e.exchange(ThreadId(0), 5, 4);
/// assert_eq!(e.recorder().history().len(), 2);
/// ```
pub type RecordedExchanger = Recorded<Exchanger>;
/// An [`ArenaExchanger`] that records its history. The arena exposes the
/// same concurrency-aware specification surface as a single exchanger.
pub type RecordedArenaExchanger = Recorded<ArenaExchanger>;
/// A [`TreiberStack`] that records its history.
pub type RecordedTreiberStack = Recorded<TreiberStack>;
/// An [`EliminationStack`] that records its client-visible history.
pub type RecordedEliminationStack = Recorded<EliminationStack>;
/// A [`DualStack`] that records its history.
pub type RecordedDualStack = Recorded<DualStack>;
/// A [`SyncQueue`] that records its history.
pub type RecordedSyncQueue = Recorded<SyncQueue>;

impl<T> Recorded<T> {
    fn wrap(inner: T, object: ObjectId) -> Self {
        Recorded { inner, object, recorder: Arc::new(Recorder::new()) }
    }

    /// The recorder collecting the history.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The recording bracket — the only place an action is logged and
    /// the only place the operation-boundary chaos points are hit.
    /// `None` is the abandoned operation: invoked, never run.
    fn bracket<R>(
        &self,
        thread: ThreadId,
        method: Method,
        arg: Value,
        abandoned: bool,
        run: impl FnOnce(&T) -> R,
        ret: impl FnOnce(&R) -> Value,
    ) -> Option<R> {
        self.recorder.invoke(thread, self.object, method, arg);
        if abandoned {
            return None;
        }
        hooks::chaos_point(Site::OpStart);
        let out = run(&self.inner);
        hooks::chaos_point(Site::OpEnd);
        self.recorder.response(thread, self.object, method, ret(&out));
        Some(out)
    }

    /// A recorded operation seen through: what every typed method is.
    fn call<R>(
        &self,
        thread: ThreadId,
        method: Method,
        arg: Value,
        run: impl FnOnce(&T) -> R,
        ret: impl FnOnce(&R) -> Value,
    ) -> R {
        self.bracket(thread, method, arg, false, run, ret).expect("only an abandoned call is None")
    }

    /// Records `thread` invoking `method(arg)` and dying inside it: the
    /// object is never called and no response is ever logged, so the
    /// operation stays pending in the history.
    pub fn abandon(&self, thread: ThreadId, method: Method, arg: Value) {
        self.bracket(thread, method, arg, true, |_| (), |()| Value::Unit);
    }
}

/// The `(ok, v)` spelling of a bounded `pop` / `take`: `(false, 0)` for
/// one that gave up — the convention of [`StackSpec::failing`].
///
/// [`StackSpec::failing`]: cal_specs::stack::StackSpec::failing
fn found(got: &Option<i64>) -> Value {
    Value::Pair(got.is_some(), got.unwrap_or(0))
}

impl Recorded<Exchanger> {
    /// Creates a recorded exchanger named `object`.
    pub fn new(object: ObjectId) -> Self {
        Self::wrap(Exchanger::new(), object)
    }

    /// Creates a recorded **deliberately broken** exchanger (see
    /// [`Exchanger::new_misdelivering`]) — the chaos harness's planted
    /// bug.
    pub fn new_misdelivering(object: ObjectId) -> Self {
        Self::wrap(Exchanger::new_misdelivering(), object)
    }

    /// A recorded `exchange` performed by `thread`.
    pub fn exchange(&self, thread: ThreadId, v: i64, spin_budget: usize) -> (bool, i64) {
        let pair = |&(ok, got): &(bool, i64)| Value::Pair(ok, got);
        self.call(thread, EXCHANGE, Value::Int(v), |e| e.exchange(v, spin_budget), pair)
    }
}

impl Recorded<ArenaExchanger> {
    /// Creates a recorded arena named `object` with `slots` slots.
    pub fn new(object: ObjectId, slots: usize, spin_budget: usize) -> Self {
        Self::wrap(ArenaExchanger::new(slots, spin_budget), object)
    }

    /// A recorded `exchange` by `thread`, trying up to `attempts` slots.
    pub fn exchange(&self, thread: ThreadId, v: i64, attempts: usize) -> (bool, i64) {
        let pair = |&(ok, got): &(bool, i64)| Value::Pair(ok, got);
        self.call(thread, EXCHANGE, Value::Int(v), |a| a.exchange(v, attempts), pair)
    }
}

impl Recorded<TreiberStack> {
    /// Creates a recorded retrying stack named `object`.
    pub fn new(object: ObjectId) -> Self {
        Self::wrap(TreiberStack::new(), object)
    }

    /// A recorded `push`.
    pub fn push(&self, thread: ThreadId, v: i64) {
        self.call(thread, PUSH, Value::Int(v), |s| s.push(v), |()| Value::Bool(true))
    }

    /// A recorded `pop`.
    pub fn pop(&self, thread: ThreadId) -> (bool, i64) {
        let pair = |&(ok, v): &(bool, i64)| Value::Pair(ok, if ok { v } else { 0 });
        self.call(thread, POP, Value::Unit, TreiberStack::pop, pair)
    }
}

impl Recorded<EliminationStack> {
    /// Creates a recorded elimination stack named `object`, with `k`
    /// elimination slots and the given exchanger spin budget.
    pub fn new(object: ObjectId, k: usize, spin_budget: usize) -> Self {
        Self::wrap(EliminationStack::new(k, spin_budget), object)
    }

    /// A recorded `push`.
    pub fn push(&self, thread: ThreadId, v: i64) {
        self.call(thread, PUSH, Value::Int(v), |s| s.push(v), |()| Value::Bool(true))
    }

    /// A recorded blocking `pop`.
    pub fn pop_wait(&self, thread: ThreadId) -> i64 {
        self.call(thread, POP, Value::Unit, EliminationStack::pop_wait, |&v| Value::Pair(true, v))
    }

    /// A recorded *bounded* pop: up to `rounds` rounds, then gives up
    /// with `(false, 0)` — the convention of [`StackSpec::failing`].
    /// Chaos workloads use this so starved poppers still terminate.
    ///
    /// [`StackSpec::failing`]: cal_specs::stack::StackSpec::failing
    pub fn try_pop(&self, thread: ThreadId, rounds: usize) -> Option<i64> {
        self.call(thread, POP, Value::Unit, |s| s.try_pop(rounds), found)
    }
}

impl Recorded<DualStack> {
    /// Creates a recorded dual stack named `object`.
    pub fn new(object: ObjectId) -> Self {
        Self::wrap(DualStack::new(), object)
    }

    /// A recorded `push`.
    pub fn push(&self, thread: ThreadId, v: i64) {
        self.call(thread, PUSH, Value::Int(v), |s| s.push(v), |()| Value::Unit)
    }

    /// A recorded waiting `pop`.
    pub fn pop_wait(&self, thread: ThreadId) -> i64 {
        self.call(thread, POP, Value::Unit, DualStack::pop_wait, |&v| Value::Int(v))
    }

    /// A recorded *bounded* pop: waits up to `patience` polls, recording
    /// [`CANCEL_SENTINEL`] as the return on timeout. Check the resulting
    /// history against [`DualStackSpec::with_timeouts`].
    ///
    /// [`DualStackSpec::with_timeouts`]: cal_specs::dual_stack::DualStackSpec::with_timeouts
    pub fn try_pop(&self, thread: ThreadId, patience: usize) -> Option<i64> {
        let or_cancelled = |got: &Option<i64>| Value::Int(got.unwrap_or(CANCEL_SENTINEL));
        self.call(thread, POP, Value::Unit, |s| s.try_pop(patience), or_cancelled)
    }
}

impl Recorded<SyncQueue> {
    /// Creates a recorded synchronous queue named `object`.
    pub fn new(object: ObjectId, spin_budget: usize) -> Self {
        Self::wrap(SyncQueue::new(spin_budget), object)
    }

    /// A recorded bounded `put`.
    pub fn try_put(&self, thread: ThreadId, v: i64, attempts: usize) -> bool {
        self.call(thread, PUT, Value::Int(v), |q| q.try_put(v, attempts), |&ok| Value::Bool(ok))
    }

    /// A recorded bounded `take`.
    pub fn try_take(&self, thread: ThreadId, attempts: usize) -> Option<i64> {
        self.call(thread, TAKE, Value::Unit, |q| q.try_take(attempts), found)
    }
}

/// Runs `body(ThreadId(0)) … body(ThreadId(n-1))` on `n` scoped OS
/// threads, returning after all complete.
pub fn run_threads<F>(n: u32, body: F)
where
    F: Fn(ThreadId) + Sync,
{
    std::thread::scope(|s| {
        for t in 0..n {
            let body = &body;
            s.spawn(move || body(ThreadId(t)));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::ChaosHooks;
    use cal_core::check::is_cal;
    use cal_core::spec::SeqAsCa;
    use cal_core::Action;
    use cal_specs::exchanger::ExchangerSpec;
    use cal_specs::stack::StackSpec;
    use cal_specs::sync_queue::SyncQueueSpec;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const O: ObjectId = ObjectId(0);
    const T: ThreadId = ThreadId(0);

    /// Counts the operation-boundary points a registered thread hits.
    #[derive(Default)]
    struct Boundaries {
        starts: AtomicUsize,
        ends: AtomicUsize,
    }

    impl ChaosHooks for Boundaries {
        fn at_point(&self, site: Site) {
            match site {
                Site::OpStart => self.starts.fetch_add(1, Ordering::Relaxed),
                Site::OpEnd => self.ends.fetch_add(1, Ordering::Relaxed),
                _ => 0,
            };
        }
    }

    /// Runs `body` as a registered chaos participant and returns how
    /// many `OpStart` and `OpEnd` points it hit.
    fn boundaries_hit<R>(body: impl FnOnce() -> R) -> (usize, usize) {
        let _serial = hooks::tests::INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let seen = Arc::new(Boundaries::default());
        let _installed = hooks::install(Arc::clone(&seen) as Arc<dyn ChaosHooks>);
        let _registered = hooks::register_current_thread();
        body();
        (seen.starts.load(Ordering::Relaxed), seen.ends.load(Ordering::Relaxed))
    }

    #[test]
    fn a_completed_call_hits_each_boundary_once() {
        let s = RecordedTreiberStack::new(O);
        assert_eq!(boundaries_hit(|| s.push(T, 7)), (1, 1));
        assert_eq!(boundaries_hit(|| s.pop(T)), (1, 1));
        assert!(s.recorder().history().is_complete());
    }

    #[test]
    fn an_abandoned_call_is_one_invocation_and_nothing_else() {
        let s = RecordedTreiberStack::new(O);
        assert_eq!(boundaries_hit(|| s.abandon(T, PUSH, Value::Int(7))), (0, 0));
        let h = s.recorder().history();
        assert_eq!(h.actions(), [Action::invoke(T, O, PUSH, Value::Int(7))]);
        // The object was never called: nothing to pop.
        assert_eq!(s.pop(ThreadId(1)), (false, 0));
    }

    /// The return of every method as it is logged, pinned: the
    /// specifications in `cal-specs` read exactly these spellings.
    #[test]
    fn recorded_return_encodings_are_pinned() {
        fn rets<X>(object: &Recorded<X>) -> Vec<Value> {
            object.recorder().history().operations().iter().map(|op| op.ret).collect()
        }
        let (yes, int, pair) = (Value::Bool(true), Value::Int, Value::Pair);

        // A lone exchange finds no partner and keeps its own value.
        let e = RecordedExchanger::new(O);
        assert_eq!(e.exchange(T, 5, 2), (false, 5));
        assert_eq!(rets(&e), [pair(false, 5)]);
        let a = RecordedArenaExchanger::new(O, 2, 2);
        assert_eq!(a.exchange(T, 5, 1), (false, 5));
        assert_eq!(rets(&a), [pair(false, 5)]);

        let s = RecordedTreiberStack::new(O);
        s.push(T, 3);
        assert_eq!((s.pop(T), s.pop(T)), ((true, 3), (false, 0)));
        assert_eq!(rets(&s), [yes, pair(true, 3), pair(false, 0)]);

        let s = RecordedEliminationStack::new(O, 1, 2);
        s.push(T, 3);
        s.push(T, 4);
        assert_eq!((s.pop_wait(T), s.try_pop(T, 1), s.try_pop(T, 1)), (4, Some(3), None));
        assert_eq!(rets(&s), [yes, yes, pair(true, 4), pair(true, 3), pair(false, 0)]);

        let s = RecordedDualStack::new(O);
        s.push(T, 3);
        s.push(T, 4);
        assert_eq!((s.pop_wait(T), s.try_pop(T, 1), s.try_pop(T, 1)), (4, Some(3), None));
        assert_eq!(rets(&s), [Value::Unit, Value::Unit, int(4), int(3), int(CANCEL_SENTINEL)]);

        // No partner on either side: both give up.
        let q = RecordedSyncQueue::new(O, 2);
        assert_eq!((q.try_put(T, 3, 1), q.try_take(T, 1)), (false, None));
        assert_eq!(rets(&q), [Value::Bool(false), pair(false, 0)]);
    }

    #[test]
    fn recorded_exchanger_history_is_cal() {
        let e = RecordedExchanger::new(ObjectId(0));
        run_threads(3, |t| {
            for i in 0..8 {
                e.exchange(t, (t.0 as i64) * 100 + i, 64);
            }
        });
        let h = e.recorder().history();
        assert!(h.is_complete());
        assert!(is_cal(&h, &ExchangerSpec::new(ObjectId(0))).unwrap(), "history not CAL:\n{h}");
    }

    #[test]
    fn recorded_arena_exchanger_history_is_cal() {
        let a = RecordedArenaExchanger::new(ObjectId(0), 4, 64);
        run_threads(4, |t| {
            for i in 0..8 {
                a.exchange(t, (t.0 as i64) * 100 + i, 3);
            }
        });
        let h = a.recorder().history();
        assert!(h.is_complete());
        assert!(is_cal(&h, &ExchangerSpec::new(ObjectId(0))).unwrap(), "history not CAL:\n{h}");
    }

    #[test]
    fn recorded_treiber_history_is_linearizable() {
        let s = RecordedTreiberStack::new(ObjectId(0));
        run_threads(3, |t| {
            for i in 0..10 {
                let v = (t.0 as i64) * 100 + i;
                s.push(t, v);
                s.pop(t);
            }
        });
        let h = s.recorder().history();
        let linearizable = is_cal(&h, &SeqAsCa::new(StackSpec::total(ObjectId(0)))).unwrap();
        assert!(linearizable, "history not linearizable:\n{h}");
    }

    #[test]
    fn recorded_elimination_stack_history_is_linearizable() {
        let s = RecordedEliminationStack::new(ObjectId(0), 2, 64);
        run_threads(4, |t| {
            for i in 0..8 {
                let v = (t.0 as i64) * 100 + i;
                s.push(t, v);
                s.pop_wait(t);
            }
        });
        let h = s.recorder().history();
        let linearizable = is_cal(&h, &SeqAsCa::new(StackSpec::total(ObjectId(0)))).unwrap();
        assert!(linearizable, "history not linearizable:\n{h}");
    }

    #[test]
    fn recorded_dual_stack_history_is_cal() {
        use cal_specs::dual_stack::DualStackSpec;
        let s = RecordedDualStack::new(ObjectId(0));
        run_threads(4, |t| {
            for i in 0..6 {
                let v = (t.0 as i64) * 100 + i;
                s.push(t, v);
                s.pop_wait(t);
            }
        });
        let h = s.recorder().history();
        assert!(h.is_complete());
        assert!(is_cal(&h, &DualStackSpec::new(ObjectId(0))).unwrap(), "history not CAL:\n{h}");
    }

    #[test]
    fn recorded_sync_queue_history_is_cal() {
        let q = RecordedSyncQueue::new(ObjectId(0), 64);
        run_threads(2, |t| {
            for i in 0..10 {
                if t.0 == 0 {
                    q.try_put(t, i, 32);
                } else {
                    q.try_take(t, 32);
                }
            }
        });
        let h = q.recorder().history();
        assert!(is_cal(&h, &SyncQueueSpec::new(ObjectId(0))).unwrap(), "history not CAL:\n{h}");
    }
}
