//! The chaos run driver: builds a live recorded object, runs a seeded
//! workload against it under an injector, harvests the history, and pipes
//! it into the deadline-aware CAL checker.
//!
//! Everything the harness knows about a target — CLI name, registry
//! spec, constructor, operation mix — is its row of the private
//! `TARGETS` table; the public [`TargetKind`] surface and both binaries'
//! `--help` read that table.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use cal_core::check::{CheckError, CheckOptions, CheckOutcome, CheckStats, Verdict};
use cal_core::spec::CaSpec;
use cal_core::{History, Method, ObjectId, ThreadId, Value};
use cal_objects::hooks::{self, ChaosHooks};
use cal_objects::record::Recorder;
use cal_objects::recorded::{
    Recorded, RecordedDualStack, RecordedEliminationStack, RecordedExchanger, RecordedSyncQueue,
    RecordedTreiberStack,
};
use cal_specs::registry::{self, run_ca, CheckMode, Selected, Visitor};
use cal_specs::vocab::{EXCHANGE, POP, PUSH, PUT, TAKE};

use crate::faults::{Profile, SplitMix64};
use crate::injector::{enter_worker, Scheduler, StressInjector};
use crate::report::{FailureClass, FailureReport};
use crate::shrink;

/// The hooks registry is process-global, so runs must not overlap; every
/// [`run_once`] serializes on this lock.
static RUN_LOCK: Mutex<()> = Mutex::new(());

fn run_lock() -> MutexGuard<'static, ()> {
    RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Which live object a run targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// The wait-free exchanger of Fig. 1 ([`RecordedExchanger`]).
    Exchanger,
    /// The deliberately broken exchanger that hands the same value to
    /// both sides — the planted bug the harness must catch.
    BuggyExchanger,
    /// The retrying Treiber stack ([`RecordedTreiberStack`]).
    TreiberStack,
    /// Hendler et al.'s elimination stack
    /// ([`RecordedEliminationStack`]).
    ElimStack,
    /// The Scherer–Scott dual stack ([`RecordedDualStack`]).
    DualStack,
    /// The exchanger-based synchronous queue ([`RecordedSyncQueue`]).
    SyncQueue,
}

/// The one object of every run.
const OBJ: ObjectId = ObjectId(0);
/// Spin budgets are kept tiny: chaos points, not spinning, provide the
/// waiting windows, and small budgets keep deterministic runs short.
const SPIN: usize = 6;

/// One target: its CLI name, the registry specification its histories
/// must satisfy, and how to build a fresh object under its operation mix.
struct Row {
    kind: TargetKind,
    name: &'static str,
    spec: &'static str,
    build: fn() -> Box<dyn Live>,
}

/// The targets, in CLI order.
const TARGETS: [Row; 6] = [
    Row {
        kind: TargetKind::Exchanger,
        name: "exchanger",
        spec: registry::EXCHANGER,
        build: || live(RecordedExchanger::new(OBJ), exchange),
    },
    Row {
        kind: TargetKind::BuggyExchanger,
        name: "buggy-exchanger",
        spec: registry::EXCHANGER,
        build: || live(RecordedExchanger::new_misdelivering(OBJ), exchange),
    },
    Row {
        kind: TargetKind::TreiberStack,
        name: "treiber-stack",
        spec: registry::STACK,
        build: || live(RecordedTreiberStack::new(OBJ), treiber_push_or_pop),
    },
    Row {
        kind: TargetKind::ElimStack,
        name: "elim-stack",
        spec: registry::FAILING_STACK,
        build: || live(RecordedEliminationStack::new(OBJ, 2, SPIN), elim_push_or_pop),
    },
    Row {
        kind: TargetKind::DualStack,
        name: "dual-stack",
        spec: registry::DUAL_STACK,
        build: || live(RecordedDualStack::new(OBJ), dual_push_or_pop),
    },
    Row {
        kind: TargetKind::SyncQueue,
        name: "sync-queue",
        spec: registry::SYNC_QUEUE,
        build: || live(RecordedSyncQueue::new(OBJ, SPIN), put_or_take),
    },
];

fn exchange(e: &RecordedExchanger, turn: &Turn, rng: &mut SplitMix64) {
    let spin = SPIN + rng.index(SPIN);
    turn.op(e, EXCHANGE, Value::Int(turn.v), |t| e.exchange(t, turn.v, spin));
}

fn treiber_push_or_pop(s: &RecordedTreiberStack, turn: &Turn, rng: &mut SplitMix64) {
    if rng.chance(128) {
        turn.op(s, PUSH, Value::Int(turn.v), |t| s.push(t, turn.v));
    } else {
        turn.op(s, POP, Value::Unit, |t| s.pop(t));
    }
}

fn elim_push_or_pop(s: &RecordedEliminationStack, turn: &Turn, rng: &mut SplitMix64) {
    if rng.chance(128) {
        turn.op(s, PUSH, Value::Int(turn.v), |t| s.push(t, turn.v));
    } else {
        let rounds = 1 + rng.index(3);
        turn.op(s, POP, Value::Unit, |t| s.try_pop(t, rounds));
    }
}

fn dual_push_or_pop(s: &RecordedDualStack, turn: &Turn, rng: &mut SplitMix64) {
    if rng.chance(128) {
        turn.op(s, PUSH, Value::Int(turn.v), |t| s.push(t, turn.v));
    } else {
        let patience = 1 + rng.index(3);
        turn.op(s, POP, Value::Unit, |t| s.try_pop(t, patience));
    }
}

fn put_or_take(q: &RecordedSyncQueue, turn: &Turn, rng: &mut SplitMix64) {
    let (put, attempts) = (rng.chance(128), 1 + rng.index(3));
    if put {
        turn.op(q, PUT, Value::Int(turn.v), |t| q.try_put(t, turn.v, attempts));
    } else {
        turn.op(q, TAKE, Value::Unit, |t| q.try_take(t, attempts));
    }
}

impl TargetKind {
    /// All checkable targets, in CLI order.
    pub const ALL: [TargetKind; 6] = {
        let mut all = [TargetKind::Exchanger; TARGETS.len()];
        let mut i = 0;
        while i < all.len() {
            all[i] = TARGETS[i].kind;
            i += 1;
        }
        all
    };

    fn row(self) -> &'static Row {
        TARGETS.iter().find(|row| row.kind == self).expect("every target has its row")
    }

    /// The target's CLI name.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// Parses a CLI target name.
    pub fn parse(s: &str) -> Option<Self> {
        TARGETS.iter().find(|row| row.name == s).map(|row| row.kind)
    }

    /// The registry specification the target's histories must satisfy.
    pub fn spec(self) -> Selected {
        Selected::builtin(self.row().spec).expect("registry constants name BUILTINS rows")
    }
}

impl std::fmt::Display for TargetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the workload's threads are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Cooperative token-passing: one virtual thread at a time, switches
    /// only at chaos points, all decisions seeded — bit-for-bit
    /// reproducible.
    Deterministic,
    /// Real OS-thread parallelism with seeded perturbation streams — not
    /// bit-for-bit reproducible, but exercises true data races.
    Stress,
}

impl Mode {
    /// Both modes, in CLI order.
    pub const ALL: [Mode; 2] = [Mode::Deterministic, Mode::Stress];

    /// The mode's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Deterministic => "deterministic",
            Mode::Stress => "stress",
        }
    }

    /// Parses a CLI mode name.
    pub fn parse(s: &str) -> Option<Self> {
        Mode::ALL.into_iter().find(|m| m.name() == s)
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully specified chaos run: everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The seed: the run's whole identity in deterministic mode.
    pub seed: u64,
    /// Worker (virtual) threads.
    pub threads: usize,
    /// Operations per worker.
    pub ops_per_thread: usize,
    /// The object under test.
    pub target: TargetKind,
    /// The fault profile.
    pub profile: Profile,
    /// The scheduling model.
    pub mode: Mode,
    /// Wall-clock budget handed to the checker.
    pub deadline: Option<Duration>,
    /// Node budget handed to the checker.
    pub max_nodes: u64,
    /// Worker threads for the checker (not the workload); `> 1` routes the
    /// harvested history through the parallel checker.
    pub check_threads: usize,
    /// A specification to check harvested histories against instead of
    /// the target's own ([`TargetKind::spec`]) — `chaos-soak --spec`. It
    /// is instantiated on the run's single object; a `.cal` file behind
    /// it was compiled before any run starts (the exit-3 contract).
    pub spec: Option<Selected>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 0,
            threads: 3,
            ops_per_thread: 5,
            target: TargetKind::Exchanger,
            profile: Profile::Heavy,
            mode: Mode::Deterministic,
            deadline: Some(Duration::from_secs(2)),
            max_nodes: 2_000_000,
            check_threads: 1,
            spec: None,
        }
    }
}

impl RunConfig {
    /// The checker options this config implies.
    pub fn check_options(&self) -> CheckOptions {
        CheckOptions {
            max_nodes: self.max_nodes,
            deadline: self.deadline,
            threads: self.check_threads,
            ..CheckOptions::default()
        }
    }
}

/// How a single chaos run ended.
#[derive(Debug, Clone)]
pub enum ChaosVerdict {
    /// The harvested history satisfies its specification.
    Passed(CheckStats),
    /// The history violates the specification — a bug, with the witness
    /// that there is none.
    Violation(CheckStats),
    /// The checker stopped without deciding (budget or deadline); the
    /// string names the reason.
    Undecided(String, CheckStats),
    /// The checker itself failed (ill-formed history, panicking spec).
    CheckerError(String),
}

impl ChaosVerdict {
    /// The failure class, or `None` if the run passed.
    pub fn class(&self) -> Option<FailureClass> {
        match self {
            ChaosVerdict::Passed(_) => None,
            ChaosVerdict::Violation(_) => Some(FailureClass::Violation),
            ChaosVerdict::Undecided(..) => Some(FailureClass::Undecided),
            ChaosVerdict::CheckerError(_) => Some(FailureClass::CheckerError),
        }
    }

    /// The checker statistics for this run, when the check ran at all.
    pub fn stats(&self) -> Option<&CheckStats> {
        match self {
            ChaosVerdict::Passed(s)
            | ChaosVerdict::Violation(s)
            | ChaosVerdict::Undecided(_, s) => Some(s),
            ChaosVerdict::CheckerError(_) => None,
        }
    }
}

impl std::fmt::Display for ChaosVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosVerdict::Passed(s) => write!(f, "passed ({} nodes)", s.nodes),
            ChaosVerdict::Violation(s) => {
                write!(f, "VIOLATION: history is not explainable ({} nodes searched)", s.nodes)
            }
            ChaosVerdict::Undecided(why, s) => {
                write!(f, "undecided: {why} ({} nodes searched)", s.nodes)
            }
            ChaosVerdict::CheckerError(e) => write!(f, "checker error: {e}"),
        }
    }
}

/// A run's harvested history and check result.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The exact configuration that produced this outcome.
    pub config: RunConfig,
    /// The recorded client-visible history.
    pub history: History,
    /// The checker's verdict on it.
    pub verdict: ChaosVerdict,
}

/// A target's operation mix: draws the shape of one operation from the
/// worker's RNG and takes the [`Turn`] on the object.
type Mix<T> = fn(&Recorded<T>, &Turn, &mut SplitMix64);

/// A live object as a run sees it, whatever its type: the log it
/// records into, and its row's [`Mix`] bound to it.
trait Live: Send + Sync {
    fn recorder(&self) -> &Recorder;
    fn op(&self, turn: &Turn, rng: &mut SplitMix64);
}

impl<T: Send + Sync> Live for (Recorded<T>, Mix<T>) {
    fn recorder(&self) -> &Recorder {
        self.0.recorder()
    }

    fn op(&self, turn: &Turn, rng: &mut SplitMix64) {
        (self.1)(&self.0, turn, rng)
    }
}

fn live<T: Send + Sync + 'static>(object: Recorded<T>, mix: Mix<T>) -> Box<dyn Live> {
    Box::new((object, mix))
}

/// One worker's turn at the object: who it is, the value it offers, and
/// whether it dies inside the operation.
struct Turn {
    thread: ThreadId,
    /// A value unique to (worker, op): misdelivery and duplication bugs
    /// become visible in the history.
    v: i64,
    abandons: bool,
}

impl Turn {
    /// Performs `call` — or, for a worker that abandons, only logs that
    /// it invoked `method(arg)`, the invocation `call` would have logged
    /// (`an_abandoned_turn_invokes_what_a_completed_one_does` holds the
    /// two together). A mix draws an operation's whole shape before it
    /// gets here, so an abandoned operation consumes the same randomness
    /// as a completed one.
    fn op<T, R>(
        &self,
        object: &Recorded<T>,
        method: Method,
        arg: Value,
        call: impl FnOnce(ThreadId) -> R,
    ) {
        if self.abandons {
            object.abandon(self.thread, method, arg);
        } else {
            call(self.thread);
        }
    }
}

/// The check of one harvested history, waiting for the registry to say
/// what type the spec has.
struct Check<'a>(&'a History, CheckOptions);

impl Visitor for Check<'_> {
    type Out = Result<CheckOutcome, CheckError>;

    fn ca<S: CaSpec>(self, spec: S) -> Self::Out {
        run_ca(self.0, &spec, None, &self.1)
    }
}

/// Runs one seeded chaos workload and checks the harvested history.
///
/// In [`Mode::Deterministic`] the outcome — fault schedule, interleaving
/// and recorded history — is a pure function of `config` (same seed ⇒
/// same bits). Runs serialize on a process-global lock because the hook
/// registry is global.
pub fn run_once(config: &RunConfig) -> RunOutcome {
    let _serial = run_lock();
    let target = (config.target.row().build)();
    let plan = config.profile.plan();

    // The two modes differ in the injector, and in that deterministic
    // workers take turns on the scheduler's token.
    let sched = (config.mode == Mode::Deterministic)
        .then(|| Scheduler::new(config.threads, config.seed, plan));
    let injector: Arc<dyn ChaosHooks> = match &sched {
        Some(sched) => Arc::clone(sched) as _,
        None => StressInjector::new(config.threads, plan),
    };
    let installed = hooks::install(injector);
    std::thread::scope(|scope| {
        for w in 0..config.threads {
            let (sched, target) = (sched.as_deref(), &*target);
            scope.spawn(move || {
                let _id = enter_worker(w, config.seed);
                let _reg = hooks::register_current_thread();
                let mut rng = SplitMix64::for_worker(config.seed, w);
                if let Some(sched) = sched {
                    sched.wait_for_turn(w);
                }
                for i in 0..config.ops_per_thread {
                    let turn = Turn {
                        thread: ThreadId(w as u32),
                        v: (w as i64) * 1_000_000 + i as i64,
                        abandons: plan.abandon_prob > 0 && rng.chance(plan.abandon_prob),
                    };
                    target.op(&turn, &mut rng);
                    if turn.abandons {
                        // The worker dies mid-operation: its invocation
                        // stays pending forever.
                        break;
                    }
                }
                if let Some(sched) = sched {
                    sched.finish(w);
                }
            });
        }
    });
    drop(installed);

    let history = target.recorder().history();
    let selected = config.spec.clone().unwrap_or_else(|| config.target.spec());
    let result = selected.visit(CheckMode::Cal, OBJ, Check(&history, config.check_options()));
    let verdict = match result {
        Ok(CheckOutcome { verdict: Verdict::Cal(_), stats }) => ChaosVerdict::Passed(stats),
        Ok(CheckOutcome { verdict: Verdict::NotCal, stats }) => ChaosVerdict::Violation(stats),
        Ok(CheckOutcome { verdict, stats }) => {
            ChaosVerdict::Undecided(verdict.to_string(), stats)
        }
        Err(e) => ChaosVerdict::CheckerError(e.to_string()),
    };
    RunOutcome { config: config.clone(), history, verdict }
}

/// The result of a soak: either every seed passed, or the first failing
/// seed, shrunk to a minimal reproducer.
#[derive(Debug)]
pub enum SoakResult {
    /// All runs passed.
    Clean {
        /// How many seeded runs completed.
        runs: u64,
    },
    /// A run failed; the minimal reproducer found by shrinking.
    Failed {
        /// Runs completed before (and including) the failing one.
        runs: u64,
        /// The shrunk failure, ready to print (boxed: it is far larger
        /// than the clean tally).
        report: Box<FailureReport>,
    },
}

/// Soaks: runs `config` with seeds `seed, seed+1, …` until `budget`
/// elapses or a run fails. A failure is re-run and greedily shrunk to a
/// minimal reproducer (same seed, smaller workload).
pub fn soak(config: &RunConfig, budget: Duration) -> SoakResult {
    soak_interruptible(config, budget, || false, |_, _| {})
}

/// Like [`soak`], invoking `on_run` after every completed run with the
/// run's outcome and the wall-clock elapsed since the soak started (the
/// failing run, if any, is observed before shrinking begins), and
/// polling `stop` between runs: when it returns `true` the soak ends
/// early with a [`SoakResult::Clean`] tally of the runs completed so
/// far. `chaos-soak` hangs its progress lines and per-seed aggregates on
/// the first and its SIGINT/SIGTERM flag on the second, so an
/// interrupted soak still flushes its per-target aggregates instead of
/// dying mid-loop. `stop` is checked *before* each run, never mid-run —
/// a run that has started always completes and is observed by `on_run`.
pub fn soak_interruptible(
    config: &RunConfig,
    budget: Duration,
    stop: impl Fn() -> bool,
    mut on_run: impl FnMut(&RunOutcome, Duration),
) -> SoakResult {
    let start = Instant::now();
    let mut runs = 0u64;
    loop {
        if stop() {
            return SoakResult::Clean { runs };
        }
        let mut cfg = config.clone();
        cfg.seed = config.seed.wrapping_add(runs);
        let outcome = run_once(&cfg);
        runs += 1;
        on_run(&outcome, start.elapsed());
        if let Some(class) = outcome.verdict.class() {
            let report = Box::new(shrink::shrink_failure(outcome, class));
            return SoakResult::Failed { runs, report };
        }
        if start.elapsed() >= budget {
            return SoakResult::Clean { runs };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_and_mode_names_round_trip() {
        for t in TargetKind::ALL {
            assert_eq!(TargetKind::parse(t.name()), Some(t));
        }
        assert_eq!(TargetKind::parse("bogus"), None);
        for m in Mode::ALL {
            assert_eq!(Mode::parse(m.name()), Some(m));
        }
    }

    /// `Turn::op` is handed an operation's invocation next to its call;
    /// this holds the two together. From the same RNG state, what an
    /// abandoning worker logs is what a completing one logs first.
    #[test]
    fn an_abandoned_turn_invokes_what_a_completed_one_does() {
        for row in &TARGETS {
            for seed in 0..32 {
                let invocation = |abandons| {
                    let object = (row.build)();
                    let turn = Turn { thread: ThreadId(1), v: 7, abandons };
                    object.op(&turn, &mut SplitMix64::for_worker(seed, 0));
                    let history = object.recorder().history();
                    assert_eq!(history.len(), if abandons { 1 } else { 2 });
                    history.actions()[0]
                };
                assert_eq!(invocation(true), invocation(false), "{} seed {seed}", row.name);
            }
        }
    }

    #[test]
    fn deterministic_exchanger_run_passes() {
        let cfg = RunConfig { seed: 11, ..RunConfig::default() };
        let out = run_once(&cfg);
        assert!(out.verdict.class().is_none(), "unexpected failure: {}", out.verdict);
        assert!(out.history.is_well_formed());
    }

    #[test]
    fn deterministic_runs_are_bit_for_bit_reproducible() {
        for target in TargetKind::ALL {
            if target == TargetKind::BuggyExchanger {
                continue; // covered by its own test
            }
            let cfg = RunConfig { seed: 0xCA11, target, ..RunConfig::default() };
            let a = run_once(&cfg);
            let b = run_once(&cfg);
            assert_eq!(
                a.history.to_string(),
                b.history.to_string(),
                "{target}: same seed must give the same history"
            );
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_schedules() {
        // Not guaranteed for any two seeds, but across 8 seeds the
        // histories must not all collapse to one interleaving.
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..8 {
            let cfg = RunConfig { seed, ..RunConfig::default() };
            distinct.insert(run_once(&cfg).history.to_string());
        }
        assert!(distinct.len() > 1, "seeds do not influence the schedule");
    }

    #[test]
    fn all_targets_pass_a_deterministic_run() {
        for target in TargetKind::ALL {
            if target == TargetKind::BuggyExchanger {
                continue;
            }
            let cfg = RunConfig { seed: 5, target, ..RunConfig::default() };
            let out = run_once(&cfg);
            assert!(
                out.verdict.class().is_none(),
                "{target} failed under chaos: {}\n{}",
                out.verdict,
                out.history
            );
        }
    }

    #[test]
    fn stress_mode_runs_and_passes() {
        let cfg = RunConfig { seed: 3, mode: Mode::Stress, ..RunConfig::default() };
        let out = run_once(&cfg);
        assert!(out.verdict.class().is_none(), "stress run failed: {}", out.verdict);
        assert!(out.history.is_well_formed());
    }

    /// The shipped exchanger `.cal` file, compiled at test time — the
    /// same source the soak binary loads with `--spec`.
    fn loaded_exchanger() -> Selected {
        let file = cal_core::dsl::parse_str(include_str!("../../../specs/exchanger.cal"))
            .expect("shipped spec must compile");
        Selected::resolve(Some(&file), None, CheckMode::Cal).expect("the file defines one spec")
    }

    /// A loaded spec drives the check instead of the built-in: the
    /// healthy exchanger still passes under the equivalent `.cal` spec.
    #[test]
    fn loaded_spec_checks_a_run() {
        let cfg =
            RunConfig { seed: 11, spec: Some(loaded_exchanger()), ..RunConfig::default() };
        let out = run_once(&cfg);
        assert!(out.verdict.class().is_none(), "unexpected failure: {}", out.verdict);
    }

    /// The loaded spec is really what the checker consults: it catches
    /// the planted misdelivery bug just like the built-in spec does, and
    /// the shrunk reproducer comes out of the same pipeline.
    #[test]
    fn loaded_spec_catches_the_planted_bug() {
        let cfg = RunConfig {
            seed: 1,
            target: TargetKind::BuggyExchanger,
            spec: Some(loaded_exchanger()),
            ..RunConfig::default()
        };
        match soak(&cfg, Duration::from_secs(10)) {
            SoakResult::Failed { report, .. } => {
                assert_eq!(report.class, FailureClass::Violation);
            }
            SoakResult::Clean { runs } => {
                panic!("planted bug survived {runs} soak runs under the loaded spec")
            }
        }
    }

    #[test]
    fn buggy_exchanger_soak_is_caught_quickly() {
        let cfg = RunConfig {
            seed: 1,
            target: TargetKind::BuggyExchanger,
            ..RunConfig::default()
        };
        match soak(&cfg, Duration::from_secs(10)) {
            SoakResult::Failed { report, .. } => {
                assert_eq!(report.class, FailureClass::Violation);
                let text = report.to_string();
                assert!(text.contains("seed"), "report must print the seed:\n{text}");
            }
            SoakResult::Clean { runs } => {
                panic!("planted bug survived {runs} soak runs")
            }
        }
    }
}
