//! Chaos instrumentation points and backoff for the live objects.
//!
//! The objects in this crate call [`chaos_point`] (and consult
//! [`cas_should_fail`]) at the algorithmically interesting moments: the
//! window between loading a pointer and CASing it, each iteration of a
//! wait loop, the start and end of a recorded operation. A fault-injection
//! harness (the `cal-chaos` crate) installs a [`ChaosHooks`] implementation
//! with [`install`] and registers its worker threads with
//! [`register_current_thread`]; the hooks then see every instrumented
//! point on those threads and can delay, yield, or force a CAS to be
//! treated as failed.
//!
//! The production cost is one relaxed atomic load per point when no hooks
//! are installed. Even with hooks installed, threads that have not
//! registered as participants pass through untouched, so unrelated tests
//! and benchmarks running in the same process are unaffected.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};

/// An instrumented point inside one of the live objects.
///
/// The set of sites is open-ended (`#[non_exhaustive]`): hooks should
/// treat unknown sites generically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Site {
    /// A recorded operation has logged its invocation and is about to
    /// call into the live object.
    OpStart,
    /// A recorded operation's inner call returned; the response is about
    /// to be logged.
    OpEnd,
    /// Exchanger: the offer-publishing CAS on the global slot is next.
    ExchangeInstall,
    /// Exchanger: one iteration of the wait-for-partner loop.
    ExchangeWait,
    /// Exchanger: the matching CAS on a found offer's hole is next.
    ExchangeMatch,
    /// Stack: the window between loading the head and the head CAS.
    StackCas,
    /// Elimination stack: a push/pop round is about to start.
    ElimRound,
    /// Dual stack: the window between loading `top` and acting on it.
    DualCas,
    /// Dual stack: one poll of a reservation's fulfillment slot.
    DualPoll,
    /// A randomized slot choice (elimination array, arena exchanger) is
    /// about to be drawn.
    SlotPick,
}

impl Site {
    /// A short stable name, for reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            Site::OpStart => "op-start",
            Site::OpEnd => "op-end",
            Site::ExchangeInstall => "exchange-install",
            Site::ExchangeWait => "exchange-wait",
            Site::ExchangeMatch => "exchange-match",
            Site::StackCas => "stack-cas",
            Site::ElimRound => "elim-round",
            Site::DualCas => "dual-cas",
            Site::DualPoll => "dual-poll",
            Site::SlotPick => "slot-pick",
        }
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fault-injection policy, installed process-wide by a chaos harness.
///
/// Implementations must be cheap and must not call back into the
/// instrumented objects (the hooks run inside their critical windows).
pub trait ChaosHooks: Send + Sync {
    /// Called at every instrumented point reached by a registered thread.
    /// May sleep, spin, or yield to perturb the schedule.
    fn at_point(&self, site: Site);

    /// Returns `true` to make the instrumented CAS at `site` act as if it
    /// failed (a spurious failure), without attempting it. Only sites
    /// where the algorithm has a sound failure/retry path consult this.
    fn cas_should_fail(&self, _site: Site) -> bool {
        false
    }

    /// Supplies the index for a randomized choice in `0..bound` at
    /// `site`, or `None` to let the object draw its own randomness.
    /// Deterministic harnesses override this so that every random choice
    /// in a run is a function of the seed.
    fn choose_index(&self, _site: Site, _bound: usize) -> Option<usize> {
        None
    }
}

/// Fast-path gate: true while some harness has hooks installed.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// The installed hooks. Guarded by `ENABLED` for the fast path.
static HOOKS: RwLock<Option<Arc<dyn ChaosHooks>>> = RwLock::new(None);

thread_local! {
    /// Whether the current thread opted in to fault injection.
    static PARTICIPANT: Cell<bool> = const { Cell::new(false) };
}

fn hooks_read() -> RwLockReadGuard<'static, Option<Arc<dyn ChaosHooks>>> {
    // The lock is never held across a panic by this module; recover the
    // guard anyway so a panicking hook cannot wedge the process.
    HOOKS.read().unwrap_or_else(|e| e.into_inner())
}

/// Installs `hooks` process-wide, returning a guard that uninstalls them
/// on drop. At most one harness may have hooks installed at a time;
/// installing over existing hooks replaces them (harnesses serialize runs
/// with their own lock).
pub fn install(hooks: Arc<dyn ChaosHooks>) -> InstallGuard {
    *HOOKS.write().unwrap_or_else(|e| e.into_inner()) = Some(hooks);
    ENABLED.store(true, Ordering::SeqCst);
    InstallGuard { _private: () }
}

/// Uninstalls hooks when dropped. Returned by [`install`].
#[derive(Debug)]
pub struct InstallGuard {
    _private: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
        *HOOKS.write().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Opts the current thread in to fault injection until the returned guard
/// drops. Threads that never register are never perturbed.
pub fn register_current_thread() -> ParticipantGuard {
    PARTICIPANT.with(|p| p.set(true));
    ParticipantGuard { _private: () }
}

/// De-registers the thread when dropped. Returned by
/// [`register_current_thread`].
#[derive(Debug)]
pub struct ParticipantGuard {
    _private: (),
}

impl Drop for ParticipantGuard {
    fn drop(&mut self) {
        PARTICIPANT.with(|p| p.set(false));
    }
}

/// An instrumented point. No-op (one relaxed load) unless hooks are
/// installed *and* the current thread registered as a participant.
#[inline]
pub fn chaos_point(site: Site) {
    if ENABLED.load(Ordering::Relaxed) {
        chaos_point_slow(site);
    }
}

#[cold]
fn chaos_point_slow(site: Site) {
    if !PARTICIPANT.with(Cell::get) {
        return;
    }
    if let Some(h) = hooks_read().as_ref() {
        h.at_point(site);
    }
}

/// Asks the installed hooks whether the CAS at `site` should be treated
/// as spuriously failed. Always `false` without hooks or registration.
#[inline]
pub fn cas_should_fail(site: Site) -> bool {
    ENABLED.load(Ordering::Relaxed) && cas_should_fail_slow(site)
}

#[cold]
fn cas_should_fail_slow(site: Site) -> bool {
    if !PARTICIPANT.with(Cell::get) {
        return false;
    }
    hooks_read().as_ref().is_some_and(|h| h.cas_should_fail(site))
}

/// Asks the installed hooks to pick an index in `0..bound` for the
/// randomized choice at `site`. `None` (always, without hooks or
/// registration) means the object should use its own randomness.
#[inline]
pub fn choose_index(site: Site, bound: usize) -> Option<usize> {
    if ENABLED.load(Ordering::Relaxed) {
        choose_index_slow(site, bound)
    } else {
        None
    }
}

#[cold]
fn choose_index_slow(site: Site, bound: usize) -> Option<usize> {
    if !PARTICIPANT.with(Cell::get) {
        return None;
    }
    hooks_read().as_ref().and_then(|h| h.choose_index(site, bound))
}

/// Capped exponential backoff for retry and wait loops: bursts of
/// [`std::hint::spin_loop`] that double per step up to a cap, after which
/// every step yields the CPU with [`std::thread::yield_now`].
///
/// The shape follows crossbeam's `Backoff`: short contention windows are
/// ridden out without a syscall, while long waits hand the core to the
/// thread being waited for — essential on few-core machines where the
/// partner cannot run until we yield.
///
/// # Examples
///
/// ```
/// use cal_objects::hooks::Backoff;
/// let mut b = Backoff::new();
/// for _ in 0..4 {
///     b.snooze(); // spins, cheap
/// }
/// assert!(!b.is_yielding());
/// for _ in 0..10 {
///     b.snooze(); // escalates to yield_now
/// }
/// assert!(b.is_yielding());
/// ```
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Steps `0..=SPIN_LIMIT` spin; later steps yield. `2^6 = 64` spin
    /// hints in the largest burst, ~127 in total before the first yield.
    const SPIN_LIMIT: u32 = 6;

    /// A fresh backoff at the cheapest step.
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Backs off once: a doubling burst of spin hints while below the
    /// cap, a `yield_now` at and beyond it.
    pub fn snooze(&mut self) {
        if self.step < Self::SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
            self.step += 1;
        } else {
            std::thread::yield_now();
        }
    }

    /// True once the backoff has escalated past spinning to yielding.
    pub fn is_yielding(&self) -> bool {
        self.step >= Self::SPIN_LIMIT
    }

    /// Resets to the cheapest step (call after making progress).
    pub fn reset(&mut self) {
        self.step = 0;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    /// Serializes every test in this crate that installs hooks (the
    /// registry is global).
    pub(crate) static INSTALL_LOCK: Mutex<()> = Mutex::new(());

    struct Counter {
        points: AtomicUsize,
        fail_cas: bool,
    }

    impl ChaosHooks for Counter {
        fn at_point(&self, _site: Site) {
            self.points.fetch_add(1, Ordering::Relaxed);
        }
        fn cas_should_fail(&self, _site: Site) -> bool {
            self.fail_cas
        }
    }

    #[test]
    fn disabled_points_are_noops() {
        chaos_point(Site::OpStart);
        assert!(!cas_should_fail(Site::StackCas));
    }

    #[test]
    fn unregistered_threads_are_unaffected() {
        let _serial = INSTALL_LOCK.lock().unwrap();
        let hooks = Arc::new(Counter { points: AtomicUsize::new(0), fail_cas: true });
        let _guard = install(Arc::clone(&hooks) as Arc<dyn ChaosHooks>);
        chaos_point(Site::OpStart);
        assert!(!cas_should_fail(Site::StackCas));
        assert_eq!(hooks.points.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn registered_threads_hit_hooks_until_guards_drop() {
        let _serial = INSTALL_LOCK.lock().unwrap();
        let hooks = Arc::new(Counter { points: AtomicUsize::new(0), fail_cas: true });
        let guard = install(Arc::clone(&hooks) as Arc<dyn ChaosHooks>);
        {
            let _reg = register_current_thread();
            chaos_point(Site::ExchangeWait);
            chaos_point(Site::ExchangeMatch);
            assert!(cas_should_fail(Site::StackCas));
        }
        // De-registered: no further hits.
        chaos_point(Site::ExchangeWait);
        assert_eq!(hooks.points.load(Ordering::Relaxed), 2);
        drop(guard);
        // Uninstalled: fully inert again.
        let _reg = register_current_thread();
        chaos_point(Site::ExchangeWait);
        assert!(!cas_should_fail(Site::StackCas));
        assert_eq!(hooks.points.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn backoff_escalates_and_resets() {
        let mut b = Backoff::new();
        assert!(!b.is_yielding());
        for _ in 0..Backoff::SPIN_LIMIT {
            b.snooze();
        }
        assert!(b.is_yielding());
        b.snooze(); // yields without panicking
        b.reset();
        assert!(!b.is_yielding());
    }

    #[test]
    fn site_names_are_stable() {
        assert_eq!(Site::ExchangeInstall.name(), "exchange-install");
        assert_eq!(Site::DualPoll.to_string(), "dual-poll");
    }
}
