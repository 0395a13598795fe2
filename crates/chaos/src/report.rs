//! Failure reports: everything a human needs to reproduce a chaos
//! finding — the seed, the workload shape, the verdict and the harvested
//! history.

use cal_core::check::CheckStats;

use crate::driver::{RunConfig, RunOutcome};

/// The kind of failure a chaos run surfaced. Shrinking preserves the
/// class so a reproducer demonstrates the same problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// The history violates its specification: an object bug.
    Violation,
    /// The checker gave up (node budget or deadline): the workload may
    /// need a bigger budget or a smaller shape.
    Undecided,
    /// The checker itself errored (ill-formed history or panicking
    /// spec): a harness or spec bug.
    CheckerError,
}

impl std::fmt::Display for FailureClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureClass::Violation => f.write_str("specification violation"),
            FailureClass::Undecided => f.write_str("undecided check"),
            FailureClass::CheckerError => f.write_str("checker error"),
        }
    }
}

/// A shrunk, reproducible failure.
#[derive(Debug)]
pub struct FailureReport {
    /// The minimal failing configuration (seed included).
    pub config: RunConfig,
    /// The failure class the shrinker preserved.
    pub class: FailureClass,
    /// The verdict text of the minimal run.
    pub detail: String,
    /// The minimal run's harvested history.
    pub history: cal_core::History,
    /// Checker statistics summed over *every* replay the shrinker made
    /// (the original failing run included), not just the minimal one.
    pub search: CheckStats,
    /// How many checker runs contributed to [`FailureReport::search`].
    pub replays: u64,
}

impl FailureReport {
    /// Packages a (shrunk) failing outcome. The search totals start from
    /// the outcome's own stats; [`FailureReport::with_search_totals`]
    /// replaces them with the across-replay sums.
    pub fn new(outcome: RunOutcome, class: FailureClass) -> Self {
        let search = outcome.verdict.stats().copied().unwrap_or_default();
        FailureReport {
            detail: outcome.verdict.to_string(),
            class,
            history: outcome.history,
            config: outcome.config,
            search,
            replays: 1,
        }
    }

    /// Records the checker statistics accumulated across all `replays`
    /// shrinker runs.
    pub fn with_search_totals(mut self, search: CheckStats, replays: u64) -> Self {
        self.search = search;
        self.replays = replays;
        self
    }

    /// The CLI invocation that replays this exact failure: the shape,
    /// and every checker setting that differs from
    /// [`RunConfig::default`] — an `undecided` found under a 50 ms
    /// deadline is not reproduced by a run under the default 2 s. The
    /// path of a `--spec` file is not part of the configuration, so it is
    /// left for the reader to fill in next to the spec's name.
    pub fn repro_command(&self) -> String {
        let (config, defaults) = (&self.config, RunConfig::default());
        let mut command = format!(
            "chaos-soak --seed {:#x} --target {} --threads {} --ops {} --profile {} --mode {}",
            config.seed,
            config.target,
            config.threads,
            config.ops_per_thread,
            config.profile,
            config.mode,
        );
        if config.check_threads != defaults.check_threads {
            command += &format!(" --check-threads {}", config.check_threads);
        }
        if let Some(deadline) = config.deadline.filter(|d| Some(*d) != defaults.deadline) {
            command += &format!(" --deadline-ms {}", deadline.as_millis());
        }
        if let Some(spec) = &config.spec {
            command += &format!(" --spec <FILE.cal> --spec-name {}", spec.name());
        }
        command
    }
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "chaos failure: {}", self.class)?;
        writeln!(f, "  detail:  {}", self.detail)?;
        writeln!(f, "  seed:    {:#x}", self.config.seed)?;
        writeln!(
            f,
            "  shape:   target={} threads={} ops/thread={} profile={} mode={}",
            self.config.target,
            self.config.threads,
            self.config.ops_per_thread,
            self.config.profile,
            self.config.mode,
        )?;
        writeln!(f, "  repro:   {}", self.repro_command())?;
        writeln!(
            f,
            "  search:  {} nodes, {} elements, {} memo hits across {} replays",
            self.search.nodes, self.search.elements_tried, self.search.memo_hits, self.replays,
        )?;
        writeln!(f, "  minimal failing history:")?;
        for line in self.history.to_string().lines() {
            writeln!(f, "    {line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_once, RunConfig, TargetKind};

    #[test]
    fn report_prints_seed_and_repro() {
        let cfg = RunConfig { seed: 0xBEEF, target: TargetKind::Exchanger, ..Default::default() };
        let outcome = run_once(&cfg);
        let report = FailureReport::new(outcome, FailureClass::Undecided);
        let text = report.to_string();
        assert!(text.contains("0xbeef"), "seed missing:\n{text}");
        assert!(text.contains("chaos-soak --seed 0xbeef"), "repro missing:\n{text}");
        assert!(text.contains("exchanger"), "target missing:\n{text}");
    }

    /// A failure found under non-default checker settings is reported
    /// with them: without `--deadline-ms 50` an `undecided` replays under
    /// the 2 s default and passes.
    #[test]
    fn repro_carries_non_default_checker_settings() {
        let repro = |config: RunConfig| {
            FailureReport::new(run_once(&config), FailureClass::Undecided).repro_command()
        };
        let plain = repro(RunConfig { seed: 0xBEEF, ..Default::default() });
        assert!(plain.ends_with("--mode deterministic"), "defaults are not spelled out: {plain}");
        let tuned = repro(RunConfig {
            seed: 0xBEEF,
            check_threads: 4,
            deadline: Some(std::time::Duration::from_millis(50)),
            spec: Some(TargetKind::Exchanger.spec()),
            ..Default::default()
        });
        let spec = "--spec <FILE.cal> --spec-name exchanger";
        assert_eq!(tuned, format!("{plain} --check-threads 4 --deadline-ms 50 {spec}"));
    }

    #[test]
    fn report_sums_stats_across_replays() {
        let cfg = RunConfig { seed: 0xBEEF, target: TargetKind::Exchanger, ..Default::default() };
        let outcome = run_once(&cfg);
        let last = outcome.verdict.stats().copied().unwrap();
        // Simulate the shrinker: three replays, each contributing stats.
        let mut total = CheckStats::default();
        for _ in 0..3 {
            total += last;
        }
        let report = FailureReport::new(outcome, FailureClass::Undecided)
            .with_search_totals(total, 3);
        assert_eq!(report.search.nodes, 3 * last.nodes);
        assert_eq!(report.search.elements_tried, 3 * last.elements_tried);
        assert_eq!(report.replays, 3);
        let text = report.to_string();
        assert!(
            text.contains(&format!("{} nodes", 3 * last.nodes)),
            "summed nodes missing:\n{text}"
        );
        assert!(text.contains("across 3 replays"), "replay count missing:\n{text}");
    }
}
