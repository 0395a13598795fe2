//! `chaos-soak` — soak the live objects under seeded fault injection
//! until a time budget elapses or a history fails its CAL check, then
//! shrink the failure to a minimal reproducer and print it with its seed.
//!
//! ```text
//! Usage: chaos-soak [--seed <N>] [--secs <S>] [--target <T>|all]
//!                   [--spec <FILE.cal>] [--spec-name <NAME>]
//!                   [--threads <N>] [--check-threads <N>] [--ops <N>]
//!                   [--profile <P>] [--mode <M>] [--deadline-ms <N>]
//!                   [--stats]
//!
//!   T  a live object, or `all` (the default)
//!   P  a fault profile                          (default heavy)
//!   M  a scheduling model                       (default deterministic)
//!
//! `--help` lists the values of T, P and M from the tables that define
//! them: `TargetKind::ALL` (one row per target in `cal_chaos::driver`),
//! `Profile::ALL` and `Mode::ALL`. `all` soaks every target except the
//! deliberately broken exchanger, splitting the time budget evenly.
//!
//! `--spec <FILE.cal>` checks harvested histories against a runtime-loaded
//! spec (docs/SPEC_DSL.md) instead of the target's built-in one, with the
//! same compile-before-input contract as `cal-check`/`cal-serve`: the file
//! compiles before any run starts, and a compile failure prints its
//! diagnostic and exits 3. `--spec-name` names the spec, under the one
//! rule all three binaries share: a name the file defines shadows the
//! built-in of that name, a name it lacks falls back to the built-ins, a
//! one-spec file needs no name, and a command line that does not select
//! exactly one spec is a usage error. Because the selected spec replaces
//! the per-target ones, `--spec` requires a single explicit `--target`
//! (not `all`).
//!
//! `--threads` sizes the *workload*; `--check-threads` sizes the CAL
//! checker run on each harvested history (> 1 engages the parallel
//! checker).
//!
//! `--stats` prints a progress line roughly every two seconds while a
//! target soaks, and an end-of-run aggregate per target keyed by seed:
//! seed range covered, total / mean search nodes, and the most expensive
//! seed (the one whose check expanded the most nodes).
//!
//! Exit status (the contract shared with `cal-check` and `cal-serve`):
//! 0 = every run passed (including a SIGINT/SIGTERM-interrupted soak,
//! which flushes its per-target aggregates first), 1 = a failure was
//! found (reproducer printed), 3 = a `--spec` file that cannot be read
//! or does not compile, 4 = usage error. A closed output pipe
//! (`chaos-soak ... | head -1`) ends the soak with exit 0.
//! ```
//!
//! Examples:
//!
//! ```bash
//! cargo run --bin chaos-soak -- --seed 0xCA11 --secs 10 --stats
//! cargo run --bin chaos-soak -- --target buggy-exchanger --secs 10   # finds the planted bug
//! ```

use std::cell::Cell;
use std::io::{self, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cal::chaos::driver::{soak_interruptible, Mode, RunConfig, SoakResult, TargetKind};
use cal::chaos::Profile;
use cal::cli::{
    self, install_shutdown_handler, one_of, parse_seed, shutdown_requested, Args, EXIT_ACCEPTED,
    EXIT_ERROR, EXIT_REJECTED, EXIT_USAGE,
};
use cal::core::check::CheckStats;
use cal::specs::registry::{self, CheckMode, Selected};
use cal::{errln, outln};

fn usage() -> io::Result<ExitCode> {
    errln!(
        "usage: chaos-soak [--seed <N>] [--secs <S>] [--target <T>|all]\n\
         \x20                 [--spec <FILE.cal>] [--spec-name <NAME>]\n\
         \x20                 [--threads <N>] [--check-threads <N>] [--ops <N>]\n\
         \x20                 [--profile <P>] [--mode <M>] [--deadline-ms <N>] [--stats]\n\
         \n\
         T: {} | all\n\
         P: {}\n\
         M: {}\n\
         --spec: check against a runtime-loaded .cal spec (docs/SPEC_DSL.md) instead of\n\
         \x20       the target's built-in; compiled before any run, compile failure exits 3;\n\
         \x20       requires a single explicit --target\n\
         --spec-name: which spec: one the --spec file defines, else a built-in; a\n\
         \x20       one-spec file needs no name. Built-ins:\n\
         \x20       {}\n\
         --stats: periodic progress lines + per-target search-cost aggregate keyed by seed",
        one_of(TargetKind::ALL),
        one_of(Profile::ALL),
        one_of(Mode::ALL),
        registry::builtin_names(Some(CheckMode::Cal))
    )?;
    Ok(ExitCode::from(EXIT_USAGE))
}

/// Per-target aggregation of checker statistics across seeded runs.
#[derive(Default)]
struct TargetAgg {
    runs: u64,
    nodes: u64,
    elements: u64,
    memo_hits: u64,
    first_seed: Option<u64>,
    last_seed: u64,
    /// The seed whose check expanded the most nodes, and that count.
    worst: Option<(u64, u64)>,
}

impl TargetAgg {
    fn add(&mut self, seed: u64, stats: &CheckStats) {
        self.runs += 1;
        self.nodes += stats.nodes;
        self.elements += stats.elements_tried;
        self.memo_hits += stats.memo_hits;
        self.first_seed.get_or_insert(seed);
        self.last_seed = seed;
        if self.worst.is_none_or(|(_, n)| stats.nodes > n) {
            self.worst = Some((seed, stats.nodes));
        }
    }

    fn print(&self, target: TargetKind) -> io::Result<()> {
        let Some(first) = self.first_seed else {
            return outln!("  stats[{target}]: no checked runs");
        };
        let mean = self.nodes as f64 / self.runs as f64;
        outln!(
            "  stats[{target}]: seeds {first:#x}..={:#x}, {} runs, {} nodes total (mean {mean:.1}), \
             {} elements, {} memo hits",
            self.last_seed, self.runs, self.nodes, self.elements, self.memo_hits,
        )?;
        if let Some((seed, nodes)) = self.worst {
            outln!("  stats[{target}]: most expensive seed {seed:#x} ({nodes} nodes)")?;
        }
        Ok(())
    }
}

/// The parsed command line.
struct Cli {
    config: RunConfig,
    /// `None` soaks every healthy target.
    target: Option<TargetKind>,
    secs: u64,
    stats: bool,
    spec_file: Option<String>,
    spec_name: Option<String>,
}

impl Cli {
    /// `None` is a usage error: an unknown flag, or a missing or
    /// malformed value.
    fn parse(mut args: Args) -> Option<Cli> {
        let mut cli = Cli {
            config: RunConfig::default(),
            target: None,
            secs: 10,
            stats: false,
            spec_file: None,
            spec_name: None,
        };
        let config = &mut cli.config;
        while let Some(a) = args.next() {
            match a.as_str() {
                "--seed" => config.seed = args.with(parse_seed)?,
                "--secs" => cli.secs = args.positive()?,
                "--target" => {
                    let t = args.next()?;
                    cli.target = if t == "all" { None } else { Some(TargetKind::parse(&t)?) };
                }
                "--threads" => config.threads = args.positive()?,
                "--check-threads" => config.check_threads = args.positive()?,
                "--ops" => config.ops_per_thread = args.positive()?,
                "--profile" => config.profile = args.with(Profile::parse)?,
                "--mode" => config.mode = args.with(Mode::parse)?,
                "--deadline-ms" => config.deadline = Some(Duration::from_millis(args.value()?)),
                "--spec" => cli.spec_file = Some(args.next()?),
                "--spec-name" => cli.spec_name = Some(args.next()?),
                "--stats" => cli.stats = true,
                _ => return None,
            }
        }
        Some(cli)
    }
}

fn main() -> ExitCode {
    cli::main("chaos-soak", try_main)
}

fn try_main() -> io::Result<ExitCode> {
    let Some(Cli { mut config, target, secs, stats, spec_file, spec_name }) =
        Cli::parse(Args::from_env())
    else {
        return usage();
    };

    // `--spec` compiles before any run starts, so a bad .cal file fails
    // fast with its diagnostic (exit 3) — the contract shared with
    // `cal-check` and `cal-serve`. The selected spec replaces the
    // target's own, so it only makes sense against one explicit target.
    if let Some(path) = &spec_file {
        if target.is_none() {
            errln!("chaos-soak: --spec requires a single explicit --target")?;
            return usage();
        }
        let loaded = match registry::load(path) {
            Ok(loaded) => loaded,
            Err(e) => {
                errln!("chaos-soak: {e}")?;
                return Ok(ExitCode::from(EXIT_ERROR));
            }
        };
        match Selected::resolve(Some(&loaded), spec_name.as_deref(), CheckMode::Cal) {
            Ok(selected) => config.spec = Some(selected),
            Err(e) => {
                errln!("chaos-soak: {e} (--spec-name)")?;
                return usage();
            }
        }
    } else if spec_name.is_some() {
        return usage(); // --spec-name is meaningless without --spec
    }

    // SIGINT/SIGTERM raise a flag checked between runs: an interrupted
    // soak still flushes its per-target aggregates and exits clean.
    install_shutdown_handler();

    // The planted bug is opt-in: `all` soaks only the healthy objects.
    let targets = target.map_or_else(
        || TargetKind::ALL.into_iter().filter(|t| *t != TargetKind::BuggyExchanger).collect(),
        |t| vec![t],
    );
    let per_target = Duration::from_secs(secs) / targets.len() as u32;
    // A reader that hung up ends the soak at the next run boundary; the
    // print after it then reports the broken pipe to `main` (exit 0).
    let hung_up = Cell::new(false);

    let mut total_runs = 0u64;
    for target in targets {
        let cfg = RunConfig { target, ..config.clone() };
        outln!(
            "soaking {target} for {:.1}s (seed {:#x}, {} threads x {} ops, {} profile, {} mode)",
            per_target.as_secs_f64(),
            cfg.seed,
            cfg.threads,
            cfg.ops_per_thread,
            cfg.profile,
            cfg.mode,
        )?;
        let mut agg = TargetAgg::default();
        let mut last_progress = Instant::now();
        let stop = || shutdown_requested() || hung_up.get();
        let result = soak_interruptible(&cfg, per_target, stop, |outcome, elapsed| {
            if let Some(s) = outcome.verdict.stats() {
                agg.add(outcome.config.seed, s);
            }
            if stats && last_progress.elapsed() >= Duration::from_secs(2) {
                let printed = outln!(
                    "  [{:5.1}s] {} runs, {} nodes searched, at seed {:#x}",
                    elapsed.as_secs_f64(),
                    agg.runs,
                    agg.nodes,
                    outcome.config.seed,
                );
                hung_up.set(printed.is_err());
                last_progress = Instant::now();
            }
        });
        match result {
            SoakResult::Clean { runs } => {
                total_runs += runs;
                outln!("  {runs} seeded runs passed")?;
                if stats {
                    agg.print(target)?;
                }
                if shutdown_requested() {
                    outln!("soak interrupted: {total_runs} runs completed, aggregates flushed")?;
                    return Ok(ExitCode::from(EXIT_ACCEPTED));
                }
            }
            SoakResult::Failed { runs, report } => {
                outln!("  failure on run {runs}; shrunk to a minimal reproducer:")?;
                write!(io::stdout(), "{report}")?;
                if stats {
                    agg.print(target)?;
                }
                return Ok(ExitCode::from(EXIT_REJECTED));
            }
        }
    }
    outln!("soak clean: {total_runs} runs, every history explainable")?;
    Ok(ExitCode::from(EXIT_ACCEPTED))
}
