//! Schedulers: exhaustive DFS over the state graph of all interleavings,
//! and seeded random walks for configurations too large to enumerate.
//!
//! Every scheduling point is either an *invocation* (a new client-visible
//! action enters the history) or one *shared-memory step* of a running
//! operation; responses are appended the moment an operation completes,
//! which yields the richest real-time order (the strictest input for the
//! checkers). A state is everything that determines the rest of a
//! schedule — shared memory, each thread's position and locals, the history
//! and the trace — and the explorer expands each distinct state once.
//! [`Explorer::run`] hands its visitor every distinct terminal
//! [`Execution`] (the client-visible [`History`], the logged auxiliary
//! trace `𝒯`, the final shared state); [`Explorer::edges`] hands its
//! visitor every step out of every reachable state as an [`Edge`], the unit
//! the rely/guarantee obligations of `cal-rg` are stated over.

use std::collections::HashSet;

use cal_core::{Action, CaElement, CaTrace, History, ThreadId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::{Model, OpRequest, StepCtx, StepOutcome};

/// More steps than this in one operation is a model bug: unbounded retry
/// loops must end in [`StepOutcome::Stuck`].
const MAX_STEPS_PER_OP: usize = 10_000;

/// A bounded client program: one list of operation requests per thread.
/// Thread `i` runs as [`ThreadId`]`(i)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Workload {
    per_thread: Vec<Vec<OpRequest>>,
}

impl Workload {
    /// Creates a workload from per-thread request lists.
    pub fn new(per_thread: Vec<Vec<OpRequest>>) -> Self {
        Workload { per_thread }
    }

    /// The request lists, one per thread.
    pub fn per_thread(&self) -> &[Vec<OpRequest>] {
        &self.per_thread
    }

    /// Number of threads.
    pub fn threads(&self) -> usize {
        self.per_thread.len()
    }

    /// Total number of operation requests.
    pub fn total_ops(&self) -> usize {
        self.per_thread.iter().map(Vec::len).sum()
    }
}

/// What an [`Edge`] did to the history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// A client invoked an operation (history grew by an invocation).
    Invoke,
    /// A shared-memory step; `completed` is `true` when the operation
    /// returned at this step (history grew by a response).
    Step {
        /// Whether the operation responded at this step.
        completed: bool,
    },
}

/// One step of the state graph: the thread that moved, what it did, and
/// the state on either side of it.
#[derive(Debug, Clone)]
pub struct Edge<'a, S, L> {
    /// The thread that moved.
    pub thread: ThreadId,
    /// The rely/guarantee action label the model attached, if any.
    pub label: Option<&'static str>,
    /// What the step did to the history.
    pub kind: StepKind,
    /// Shared state before the step.
    pub pre: &'a S,
    /// Shared state after the step.
    pub post: &'a S,
    /// The trace after the step.
    pub trace: &'a CaTrace,
    /// The elements the step appended to the trace (a suffix of `trace`).
    pub logged: &'a [CaElement],
    /// The history after the step.
    pub history: &'a History,
    /// Every thread's local state after the step (`None` for threads with
    /// no operation in flight). Proof-outline assertions evaluated against
    /// these on every edge check both their establishment and their
    /// stability under interference.
    pub locals: Vec<Option<&'a L>>,
}

/// A complete run of the workload under one schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Execution<S> {
    /// The client-visible history of invocations and responses.
    pub history: History,
    /// The logged auxiliary trace `𝒯`.
    pub trace: CaTrace,
    /// The final shared state.
    pub final_shared: S,
}

/// Aggregate statistics of an exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExploreStats {
    /// Terminal schedules reached (with pruning: distinct terminal states).
    pub paths: u64,
    /// Distinct `(history, trace)` outcomes among them.
    pub unique_executions: u64,
    /// Steps taken: every successor generated from every expanded state.
    pub edges: u64,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ThreadState<L> {
    Idle { next_op: usize },
    Running { next_op: usize, local: L, steps: usize },
    Parked,
}

/// A node of the state graph: everything that determines the remainder of
/// a schedule, and so the pruning key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State<S, L> {
    shared: S,
    threads: Vec<ThreadState<L>>,
    history: History,
    trace: CaTrace,
}

type StateOf<M> = State<<M as Model>::Shared, <M as Model>::Local>;

impl<S, L> State<S, L> {
    fn into_execution(self) -> Execution<S> {
        Execution { history: self.history, trace: self.trace, final_shared: self.shared }
    }
}

impl<'a, S, L> Edge<'a, S, L> {
    /// Thread `t`'s step from `pre` to `post`, labelled `label`.
    fn between(
        pre: &'a State<S, L>,
        t: usize,
        label: Option<&'static str>,
        post: &'a State<S, L>,
    ) -> Self {
        let kind = match pre.threads[t] {
            ThreadState::Idle { .. } => StepKind::Invoke,
            _ => StepKind::Step { completed: post.history.len() > pre.history.len() },
        };
        Edge {
            thread: ThreadId(t as u32),
            label,
            kind,
            pre: &pre.shared,
            post: &post.shared,
            trace: &post.trace,
            logged: &post.trace.elements()[pre.trace.len()..],
            history: &post.history,
            locals: post
                .threads
                .iter()
                .map(|thread| match thread {
                    ThreadState::Running { local, .. } => Some(local),
                    _ => None,
                })
                .collect(),
        }
    }
}

/// Exhaustive exploration of all interleavings of a workload against a
/// model.
pub struct Explorer<'m, M> {
    model: &'m M,
    workload: Workload,
    prune: bool,
}

impl<M> std::fmt::Debug for Explorer<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Explorer")
            .field("workload", &self.workload)
            .field("prune", &self.prune)
            .finish_non_exhaustive()
    }
}

impl<'m, M: Model> Explorer<'m, M> {
    /// Creates an explorer for `model` running `workload`.
    pub fn new(model: &'m M, workload: Workload) -> Self {
        Explorer { model, workload, prune: true }
    }

    /// Disables state-space pruning. By default a state already expanded is
    /// not expanded again — its subtree is the one already explored, so no
    /// outcome and no edge is lost; only the number of explored schedules
    /// changes. Without pruning every schedule is walked to its end, and
    /// [`Explorer::edges`] reports each step of each one.
    pub fn no_pruning(mut self) -> Self {
        self.prune = false;
        self
    }

    /// Runs the exploration, invoking `visit` on each distinct terminal
    /// execution.
    ///
    /// # Panics
    ///
    /// Panics if an operation exceeds the per-operation step bound — a
    /// model must encode unbounded retry loops with
    /// [`StepOutcome::Stuck`].
    pub fn run<F>(&self, mut visit: F) -> ExploreStats
    where
        F: FnMut(&Execution<M::Shared>),
    {
        self.explore(&mut None::<fn(&Edge<'_, M::Shared, M::Local>)>, &mut visit)
    }

    /// Runs the exploration, invoking `visit` on every step out of every
    /// reachable state. Each distinct state is expanded once, so each edge
    /// of the state graph is reported once.
    ///
    /// # Panics
    ///
    /// As [`Explorer::run`].
    pub fn edges<F>(&self, visit: F) -> ExploreStats
    where
        F: FnMut(&Edge<'_, M::Shared, M::Local>),
    {
        self.explore(&mut Some(visit), &mut |_: &Execution<M::Shared>| {})
    }

    /// The one DFS under [`Explorer::run`] and [`Explorer::edges`]; edges
    /// are only built when there is someone to show them to.
    fn explore<E, T>(&self, on_edge: &mut Option<E>, on_terminal: &mut T) -> ExploreStats
    where
        E: FnMut(&Edge<'_, M::Shared, M::Local>),
        T: FnMut(&Execution<M::Shared>),
    {
        let mut stats = ExploreStats::default();
        let (mut seen, mut visited) = (HashSet::new(), HashSet::new());
        self.dfs(self.root(), &mut stats, &mut seen, &mut visited, on_edge, on_terminal);
        stats
    }

    fn dfs<E, T>(
        &self,
        state: StateOf<M>,
        stats: &mut ExploreStats,
        seen: &mut HashSet<(History, CaTrace)>,
        visited: &mut HashSet<StateOf<M>>,
        on_edge: &mut Option<E>,
        on_terminal: &mut T,
    ) where
        E: FnMut(&Edge<'_, M::Shared, M::Local>),
        T: FnMut(&Execution<M::Shared>),
    {
        if self.prune && !visited.insert(state.clone()) {
            return;
        }
        let enabled = self.enabled_threads(&state);
        if enabled.is_empty() {
            stats.paths += 1;
            if seen.insert((state.history.clone(), state.trace.clone())) {
                stats.unique_executions += 1;
                on_terminal(&state.into_execution());
            }
            return;
        }
        for t in enabled {
            let (label, successors) = self.advance(&state, t);
            for next in successors {
                stats.edges += 1;
                if let Some(visit) = on_edge {
                    visit(&Edge::between(&state, t, label, &next));
                }
                self.dfs(next, stats, seen, visited, on_edge, on_terminal);
            }
        }
    }

    fn root(&self) -> StateOf<M> {
        State {
            shared: self.model.init_shared(),
            threads: vec![ThreadState::Idle { next_op: 0 }; self.workload.threads()],
            history: History::new(),
            trace: CaTrace::new(),
        }
    }

    fn enabled_threads(&self, state: &StateOf<M>) -> Vec<usize> {
        (0..state.threads.len())
            .filter(|&t| match state.threads[t] {
                ThreadState::Idle { next_op } => next_op < self.workload.per_thread[t].len(),
                ThreadState::Running { .. } => true,
                ThreadState::Parked => false,
            })
            .collect()
    }

    /// Applies one scheduling choice for thread `t`: the label the model
    /// attached to the step, and the successor states (several if the step
    /// branched nondeterministically).
    fn advance(&self, state: &StateOf<M>, t: usize) -> (Option<&'static str>, Vec<StateOf<M>>) {
        let thread = ThreadId(t as u32);
        let mut next = state.clone();
        let (next_op, mut local, steps) = match &state.threads[t] {
            &ThreadState::Idle { next_op } => {
                let request = &self.workload.per_thread[t][next_op];
                let local = self.model.on_invoke(thread, request);
                next.history.push(Action::invoke(
                    thread,
                    self.model.object(),
                    request.method,
                    request.arg,
                ));
                next.threads[t] = ThreadState::Running { next_op: next_op + 1, local, steps: 0 };
                return (None, vec![next]);
            }
            ThreadState::Running { next_op, local, steps } => (*next_op, local.clone(), *steps),
            ThreadState::Parked => return (None, Vec::new()),
        };
        assert!(
            steps < MAX_STEPS_PER_OP,
            "operation exceeded {MAX_STEPS_PER_OP} steps; bound retry loops with StepOutcome::Stuck"
        );
        let request = &self.workload.per_thread[t][next_op - 1];
        let mut label = None;
        let outcome = {
            let mut ctx = StepCtx::new(thread, &mut next.trace, &mut label);
            self.model.step(&mut next.shared, &mut local, &mut ctx)
        };
        let running = |local| ThreadState::Running { next_op, local, steps: steps + 1 };
        match outcome {
            StepOutcome::Choose(locals) => {
                // Branch: no shared change, no history change.
                debug_assert_eq!(next.shared, state.shared, "Choose must not mutate");
                debug_assert_eq!(next.trace.len(), state.trace.len());
                let branches = locals.into_iter().map(|l| {
                    let mut branch = next.clone();
                    branch.threads[t] = running(l);
                    branch
                });
                return (label, branches.collect());
            }
            StepOutcome::Continue => next.threads[t] = running(local),
            StepOutcome::Done(ret) => {
                next.history.push(Action::response(
                    thread,
                    self.model.object(),
                    request.method,
                    ret,
                ));
                next.threads[t] = if next_op < self.workload.per_thread[t].len() {
                    ThreadState::Idle { next_op }
                } else {
                    ThreadState::Parked
                };
            }
            StepOutcome::Stuck => next.threads[t] = ThreadState::Parked,
        }
        (label, vec![next])
    }

    /// Runs `count` seeded random schedules, invoking `visit` on each
    /// terminal execution (duplicates included).
    pub fn sample<F>(&self, seed: u64, count: u64, mut visit: F) -> ExploreStats
    where
        F: FnMut(&Execution<M::Shared>),
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stats = ExploreStats::default();
        let mut seen: HashSet<(History, CaTrace)> = HashSet::new();
        for _ in 0..count {
            let mut state = self.root();
            loop {
                let enabled = self.enabled_threads(&state);
                if enabled.is_empty() {
                    break;
                }
                let t = enabled[rng.gen_range(0..enabled.len())];
                let (_, mut successors) = self.advance(&state, t);
                let pick = rng.gen_range(0..successors.len());
                state = successors.swap_remove(pick);
                stats.edges += 1;
            }
            stats.paths += 1;
            if seen.insert((state.history.clone(), state.trace.clone())) {
                stats.unique_executions += 1;
            }
            visit(&state.into_execution());
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::models::exchanger::ExchangerModel;
    use cal_core::{Method, ObjectId, Operation, Value};
    use cal_specs::vocab::EXCHANGE;

    /// A two-step atomic counter: read then CAS-increment (retrying once,
    /// then sticking). Returns the value it incremented from.
    #[derive(Debug)]
    struct CasCounter;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Pc {
        Read { tries: u8 },
        Cas { seen: i64, tries: u8 },
    }

    const INC: Method = Method("inc");

    impl Model for CasCounter {
        type Shared = i64;
        type Local = Pc;

        fn object(&self) -> ObjectId {
            ObjectId(0)
        }

        fn init_shared(&self) -> i64 {
            0
        }

        fn on_invoke(&self, _t: ThreadId, _r: &OpRequest) -> Pc {
            Pc::Read { tries: 0 }
        }

        fn step(
            &self,
            shared: &mut i64,
            local: &mut Pc,
            ctx: &mut StepCtx<'_>,
        ) -> StepOutcome<Pc> {
            match *local {
                Pc::Read { tries } => {
                    *local = Pc::Cas { seen: *shared, tries };
                    StepOutcome::Continue
                }
                Pc::Cas { seen, tries } => {
                    if *shared == seen {
                        *shared = seen + 1;
                        ctx.label("INC");
                        ctx.log(CaElement::singleton(Operation::new(
                            ctx.thread,
                            ObjectId(0),
                            INC,
                            Value::Unit,
                            Value::Int(seen),
                        )));
                        StepOutcome::Done(Value::Int(seen))
                    } else if tries >= 1 {
                        StepOutcome::Stuck
                    } else {
                        *local = Pc::Read { tries: tries + 1 };
                        StepOutcome::Continue
                    }
                }
            }
        }
    }

    fn workload(threads: usize) -> Workload {
        Workload::new(vec![vec![OpRequest::new(INC, Value::Unit)]; threads])
    }

    #[test]
    fn single_thread_single_path() {
        let m = CasCounter;
        let explorer = Explorer::new(&m, workload(1));
        let mut execs = Vec::new();
        let stats = explorer.run(|e| execs.push(e.clone()));
        assert_eq!(stats.paths, 1);
        assert_eq!(stats.unique_executions, 1);
        assert_eq!(execs[0].final_shared, 1);
        assert!(execs[0].history.is_complete());
        assert_eq!(execs[0].trace.len(), 1);
    }

    #[test]
    fn two_threads_explore_contention() {
        let m = CasCounter;
        let explorer = Explorer::new(&m, workload(2));
        let mut finals = HashSet::new();
        let mut all_complete = true;
        let stats = explorer.run(|e| {
            finals.insert(e.final_shared);
            all_complete &= e.history.is_well_formed();
        });
        assert!(stats.paths > 1);
        assert!(all_complete);
        // Both increments always succeed (one retry suffices for 2 threads).
        assert_eq!(finals, HashSet::from([2]));
    }

    #[test]
    fn histories_are_well_formed_and_traces_consistent() {
        let m = CasCounter;
        let explorer = Explorer::new(&m, workload(3));
        explorer.run(|e| {
            assert!(e.history.is_well_formed());
            // Each logged element corresponds to one completed operation.
            let completed = e.history.operations().len();
            assert_eq!(e.trace.total_ops(), completed);
        });
    }

    #[test]
    fn edges_show_each_step_and_its_mutation() {
        let m = CasCounter;
        let mut shown = Vec::new();
        let stats = Explorer::new(&m, workload(1)).edges(|e| {
            shown.push((e.kind, e.label, (*e.pre, *e.post), e.logged.len(), e.locals[0].cloned()));
        });
        assert_eq!((stats.edges, stats.paths), (3, 1));
        let step = |completed| StepKind::Step { completed };
        assert_eq!(
            shown,
            [
                (StepKind::Invoke, None, (0, 0), 0, Some(Pc::Read { tries: 0 })),
                (step(false), None, (0, 0), 0, Some(Pc::Cas { seen: 0, tries: 0 })),
                (step(true), Some("INC"), (0, 1), 1, None),
            ]
        );
    }

    /// One step of the tree: state, thread, label, successor.
    type TreeStep<M> = (StateOf<M>, usize, Option<&'static str>, StateOf<M>);

    /// Every step of the unpruned tree below `state`, each once.
    fn tree_steps<M: Model>(
        explorer: &Explorer<'_, M>,
        state: &StateOf<M>,
        steps: &mut HashSet<TreeStep<M>>,
    ) {
        for t in explorer.enabled_threads(state) {
            let (label, successors) = explorer.advance(state, t);
            for next in successors {
                // A step seen before has had its successor's subtree walked.
                if steps.insert((state.clone(), t, label, next.clone())) {
                    tree_steps(explorer, &next, steps);
                }
            }
        }
    }

    /// `edges` reports each distinct step of the unpruned tree exactly once
    /// (compared as multisets of what an edge shows, so a repeat shows up
    /// as a count); returns how many there are.
    fn edges_are_the_distinct_tree_steps<M: Model>(model: &M, workload: Workload) -> u64 {
        let explorer = Explorer::new(model, workload);
        let mut steps = HashSet::new();
        tree_steps(&explorer, &explorer.root(), &mut steps);
        let shown = |e: &Edge<'_, M::Shared, M::Local>| {
            let (pre, post, logged) = (e.pre.clone(), e.post.clone(), e.logged.to_vec());
            let locals: Vec<_> = e.locals.iter().map(|l| l.cloned()).collect();
            let (trace, history) = (e.trace.clone(), e.history.clone());
            (e.thread, e.label, e.kind, pre, post, logged, trace, history, locals)
        };
        let mut want = HashMap::new();
        for (pre, t, label, post) in &steps {
            *want.entry(shown(&Edge::between(pre, *t, *label, post))).or_insert(0) += 1;
        }
        let mut got = HashMap::new();
        let stats = explorer.edges(|e| *got.entry(shown(e)).or_insert(0) += 1);
        assert_eq!(stats.edges, steps.len() as u64);
        assert!(got == want, "edges differ from the distinct steps of the tree");
        stats.edges
    }

    #[test]
    fn edges_are_every_step_exactly_once() {
        assert!(edges_are_the_distinct_tree_steps(&CasCounter, workload(2)) > 10);
        assert!(edges_are_the_distinct_tree_steps(&CasCounter, workload(3)) > 100);
        let exchange = |v| vec![OpRequest::new(EXCHANGE, Value::Int(v))];
        let model = ExchangerModel::new(ObjectId(0));
        assert_eq!(
            edges_are_the_distinct_tree_steps(&model, Workload::new(vec![exchange(3), exchange(4)])),
            194
        );
    }

    #[test]
    fn sampling_visits_requested_count() {
        let m = CasCounter;
        let explorer = Explorer::new(&m, workload(3));
        let mut n = 0;
        let stats = explorer.sample(42, 25, |e| {
            n += 1;
            assert!(e.history.is_well_formed());
        });
        assert_eq!(n, 25);
        assert_eq!(stats.paths, 25);
        assert!(stats.unique_executions >= 1);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = CasCounter;
        let explorer = Explorer::new(&m, workload(2));
        let mut a = Vec::new();
        let mut b = Vec::new();
        explorer.sample(7, 10, |e| a.push(e.history.clone()));
        explorer.sample(7, 10, |e| b.push(e.history.clone()));
        assert_eq!(a, b);
    }

    #[test]
    fn workload_accessors() {
        let w = workload(2);
        assert_eq!(w.threads(), 2);
        assert_eq!(w.total_ops(), 2);
        assert_eq!(w.per_thread().len(), 2);
    }
}
