//! `cal-check` — check a recorded history against one of the built-in
//! specifications, or run a single seeded chaos workload against a live
//! object and check the harvested history. Histories may be native
//! (`cal_core::text`), porcupine/Jepsen-style records, or timestamped
//! Put/Get logs (`cal_core::format`); the format is sniffed per input
//! unless `--format` pins it.
//!
//! ```text
//! Usage: cal-check <SPEC> <FILE> [--spec <FILE.cal>] [--mode cal|seq|interval|causal]
//!                  [--hb auto|session|real-time] [--object <N>]
//!                  [--format auto|native|jepsen|kvlog]
//!                  [--deadline-ms <N>] [--max-nodes <N>] [--threads <N>]
//!                  [--no-symmetry] [--stats] [--stats-json <PATH>] [--explain]
//!        cal-check <SPEC> --batch <DIR> [--spec <FILE.cal>]
//!                  [--mode cal|seq|interval|causal] [--hb auto|session|real-time]
//!                  [--object <N>] [--format auto|native|jepsen|kvlog]
//!                  [--deadline-ms <N>] [--max-nodes <N>] [--threads <N>]
//!                  [--no-symmetry]
//!        cal-check --chaos <PROFILE> [--seed <N>] [--target <T>]
//!                  [--threads <N>] [--check-threads <N>] [--ops <N>]
//!                  [--mode <M>] [--deadline-ms <N>]
//!
//!   SPEC     a built-in — `--help` lists them, from the one table in
//!            `cal_specs::registry` — or a name defined by `--spec`
//!   FILE     history file, or - for stdin
//!   DIR      directory of history files, checked concurrently
//!   PROFILE  a fault profile — `--help` lists them (`Profile::ALL`)
//!   T        a live object (default exchanger) — `--help` lists them, one
//!            row each in `cal_chaos::driver` (`TargetKind::ALL`)
//!   M        file/batch mode: cal | seq | interval | causal (default cal)
//!            chaos mode: a scheduling model (default deterministic) —
//!            `--help` lists them (`Mode::ALL`)
//!
//! `--format` selects the input trace format (default `auto`: sniff each
//! input, first contentful line wins). The `kv` spec — a map of
//! independent per-key integer registers — is the natural spec for
//! imported jepsen/kvlog traces and works in every `--mode`.
//!
//! `--spec <FILE.cal>` loads user-written specifications from a `.cal`
//! file (see `docs/SPEC_DSL.md`) at runtime; a compile failure prints the
//! diagnostic (code, message, line and column) and exits 3. Loaded spec
//! names *shadow* the built-ins, so a file may deliberately redefine
//! `register`. If the file defines exactly one spec, the positional SPEC
//! may be omitted; with several, name one. Mode gating is as for the
//! built-ins: `kind seq` specs check in every `--mode`, `kind ca` specs
//! under `--mode cal` and `--mode causal`.
//!
//! `--max-nodes` bounds the search (decimal or `0x` hex; exhausting it is
//! verdict `undecided`), and `--no-symmetry` turns off symmetry reduction
//! over interchangeable operations (file and batch mode).
//!
//! `--mode` selects the property, every one checked by the one CA search:
//! `cal` (concurrency-aware linearizability; sequential specs are lifted
//! to singleton elements), `seq` (classical linearizability — CAL's
//! singleton fragment, so the same search as `cal` on a sequential spec;
//! sequential specs only), `interval` (interval-linearizability, the CA
//! search over the history with every operation split into an open and a
//! close half; sequential specs become singleton-interval specs, plus the
//! interval-native `write-snapshot`, served with no bound on how many
//! operations are active at once), or `causal` (the
//! CAL membership search constrained by a happens-before *partial* order
//! instead of the real-time total order — the weak-memory reading of a
//! trace).
//!
//! `--hb` picks causal mode's order source. `auto` (the default) uses
//! the trace's declared causality metadata — kvlog `hb session` / `hb
//! <i> <j>` lines — when present, and falls back to real time otherwise
//! (so unannotated traces behave exactly as in `--mode cal`). `session`
//! keeps only per-thread session order plus declared edges — the
//! Jepsen-`:process` reading of any input. `real-time` forces the total
//! order, making `causal` agree with `cal` on every input (the
//! differential anchor the test-suite pins).
//!
//! In file mode `--threads` sets how many of the checker's tasks run at
//! once, in every mode; it never changes how a check is split. A history
//! over several independently specified objects is checked object by
//! object at every thread count, and one that is not is searched from its
//! root by every thread at once, each trying successors in its own order
//! against one shared memo. In batch mode it
//! sizes the pool of files checked concurrently; in chaos mode it sets
//! the *workload* threads and `--check-threads` the checker's.
//!
//! Observability (file mode, every `--mode`): `--stats` prints a one-line
//! search summary to stderr, `--stats-json <PATH>` writes the full
//! SearchReport as JSON (`-` for stdout), `--explain` prints a multi-line
//! account of where the search spent its work and why an undecided
//! verdict stopped.
//!
//! Exit status: 0 = accepted, 1 = rejected, 2 = undecided (budget,
//! deadline or cancellation), 3 = input/parse/checker error, 4 = usage.
//! Batch mode folds per-file results with the same codes (worst wins:
//! 3 > 2 > 1 > 0). Chaos mode: 0 = passed, 1 = violation, 2 = undecided,
//! 3 = checker error. A closed output pipe (e.g. `cal-check ... | head`)
//! is not an error: the process exits 0 as soon as the pipe breaks.
//! ```
//!
//! Example:
//!
//! ```bash
//! printf 't1 inv o0.exchange 3\nt2 inv o0.exchange 4\nt1 res o0.exchange (true,4)\nt2 res o0.exchange (true,3)\n' \
//!   | cargo run --bin cal-check -- exchanger - --deadline-ms 500 --stats
//! cargo run --bin cal-check -- register history.txt --mode seq --stats
//! cargo run --bin cal-check -- exchanger --batch tests/corpus --threads 4
//! cargo run --bin cal-check -- --chaos heavy --seed 7 --target elim-stack
//! ```

use std::io::{self, Read, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cal::chaos::driver::{run_once, ChaosVerdict, Mode, RunConfig, TargetKind};
use cal::chaos::Profile;
use cal::cli::{
    self, one_of, parse_seed, Args, EXIT_ACCEPTED, EXIT_ERROR, EXIT_REJECTED, EXIT_UNDECIDED,
    EXIT_USAGE,
};
use cal::core::check::{CheckError, CheckOptions, CheckOutcome, Verdict};
use cal::core::engine::run_tasks;
use cal::core::format::{self, Format};
use cal::core::history::HbRelation;
use cal::core::interval::{IntervalSpec, IntervalWitness};
use cal::core::obs::{CountingSink, SearchReport, StatsSink};
use cal::core::spec::CaSpec;
use cal::core::text::format_trace;
use cal::core::{History, ObjectId};
use cal::specs::registry::{self, run_ca, run_interval, CheckMode, Selected, Visitor};
use cal::{errln, outln};

fn usage() -> io::Result<ExitCode> {
    errln!(
        "usage: cal-check <SPEC> <FILE> [--spec <FILE.cal>] [--mode cal|seq|interval|causal]\n\
         \x20                [--hb auto|session|real-time] [--object <N>]\n\
         \x20                [--format auto|native|jepsen|kvlog]\n\
         \x20                [--deadline-ms <N>] [--max-nodes <N>] [--threads <N>]\n\
         \x20                [--no-symmetry] [--stats] [--stats-json <PATH>] [--explain]\n\
         \x20      cal-check <SPEC> --batch <DIR> [--spec <FILE.cal>]\n\
         \x20                [--mode cal|seq|interval|causal] [--hb auto|session|real-time]\n\
         \x20                [--object <N>] [--format auto|native|jepsen|kvlog]\n\
         \x20                [--deadline-ms <N>] [--max-nodes <N>] [--threads <N>]\n\
         \x20                [--no-symmetry]\n\
         \x20      cal-check --chaos <PROFILE> [--seed <N>] [--target <T>]\n\
         \x20                [--threads <N>] [--check-threads <N>] [--ops <N>] [--mode <M>]\n\
         \x20                [--deadline-ms <N>]\n\
         \n\
         SPEC:    {}\n\
         FILE:    history file (native, jepsen, or kvlog format), or - for stdin\n\
         DIR:     directory of history files, checked concurrently\n\
         PROFILE: {}\n\
         T:       {}\n\
         M:       cal | seq | interval | causal (file/batch; default cal)\n\
         \x20        — {} (chaos)\n\
         \n\
         --spec         load user specs from a .cal file (docs/SPEC_DSL.md); loaded\n\
         \x20              names shadow built-ins, and with a single-spec file the\n\
         \x20              positional SPEC may be omitted\n\
         --hb           causal-mode order source (default auto): auto uses declared kvlog\n\
         \x20              `hb` metadata when present and real time otherwise; session\n\
         \x20              keeps only per-thread session order plus declared edges;\n\
         \x20              real-time forces the total order (causal ≡ cal)\n\
         --format       input trace format; auto (default) sniffs each input\n\
         --max-nodes    search node budget; exhausting it is verdict `undecided` (exit 2)\n\
         --no-symmetry  disable symmetry reduction over interchangeable ops\n\
         --stats        print a one-line search summary to stderr (file mode)\n\
         --stats-json   write the SearchReport as JSON to PATH, or - for stdout (file mode)\n\
         --explain      print why the verdict was slow or undecided (file mode)\n\
         \n\
         exit status: 0 accepted, 1 rejected, 2 undecided, 3 input/checker error, 4 usage",
        registry::builtin_names(None),
        one_of(Profile::ALL),
        one_of(TargetKind::ALL),
        one_of(Mode::ALL),
    )?;
    Ok(ExitCode::from(EXIT_USAGE))
}

/// How `--mode causal` derives the happens-before order from the input
/// (`--hb`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum HbPolicy {
    /// Annotated traces (kvlog `hb` lines) use their declared edges over
    /// session order; unannotated traces fall back to the real-time
    /// order, on which causal mode agrees with CAL mode by construction.
    #[default]
    Auto,
    /// Session order only (plus any declared edges): the weak-memory
    /// reading of any trace — for Jepsen inputs this is the `:process`
    /// session-edge interpretation.
    Session,
    /// The real-time total order `≺H`; causal mode then agrees with CAL
    /// mode on every input (the differential anchor).
    RealTime,
}

impl HbPolicy {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(HbPolicy::Auto),
            "session" => Some(HbPolicy::Session),
            "real-time" => Some(HbPolicy::RealTime),
            _ => None,
        }
    }
}

/// The parsed command line; `None`/`false` is "flag not given".
#[derive(Default)]
struct Cli {
    spec_name: Option<String>,
    spec_file: Option<String>,
    file: Option<String>,
    batch: Option<String>,
    object: Option<ObjectId>,
    deadline: Option<Duration>,
    chaos_profile: Option<Profile>,
    seed: u64,
    target: Option<TargetKind>,
    threads: Option<usize>,
    check_threads: Option<usize>,
    ops: Option<usize>,
    chaos_mode: Option<Mode>,
    mode: Option<CheckMode>,
    hb: Option<HbPolicy>,
    format: Option<Format>,
    max_nodes: Option<u64>,
    no_symmetry: bool,
    stats: bool,
    stats_json: Option<String>,
    explain: bool,
}

impl Cli {
    /// `None` is a usage error: an unknown flag, or a missing or
    /// malformed value.
    fn parse(mut args: Args) -> Option<Cli> {
        let mut cli = Cli::default();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--object" => cli.object = Some(ObjectId(args.value()?)),
                "--deadline-ms" => cli.deadline = Some(Duration::from_millis(args.value()?)),
                "--chaos" => cli.chaos_profile = Some(args.with(Profile::parse)?),
                "--batch" => cli.batch = Some(args.next()?),
                "--spec" => cli.spec_file = Some(args.next()?),
                "--seed" => cli.seed = args.with(parse_seed)?,
                "--target" => cli.target = Some(args.with(TargetKind::parse)?),
                "--threads" => cli.threads = Some(args.positive()?),
                "--check-threads" => cli.check_threads = Some(args.positive()?),
                "--ops" => cli.ops = Some(args.positive()?),
                // `--mode` is overloaded: checker selection in file/batch
                // mode, schedule selection in chaos mode. The value
                // disambiguates.
                "--mode" => {
                    let m = args.next()?;
                    match CheckMode::parse(&m) {
                        Some(mode) => cli.mode = Some(mode),
                        None => cli.chaos_mode = Some(Mode::parse(&m)?),
                    }
                }
                "--hb" => cli.hb = Some(args.with(HbPolicy::parse)?),
                "--format" => cli.format = args.format("cal-check")?,
                "--max-nodes" => cli.max_nodes = Some(args.with(parse_seed).filter(|n| *n > 0)?),
                "--no-symmetry" => cli.no_symmetry = true,
                "--stats" => cli.stats = true,
                "--stats-json" => cli.stats_json = Some(args.next()?),
                "--explain" => cli.explain = true,
                "-h" | "--help" => return None,
                _ if cli.spec_name.is_none() => cli.spec_name = Some(a),
                _ if cli.file.is_none() => cli.file = Some(a),
                _ => return None,
            }
        }
        Some(cli)
    }

    /// Whether any flag that only file mode understands was given.
    fn file_mode_flags(&self) -> bool {
        self.stats || self.explain || self.stats_json.is_some()
    }
}

fn main() -> ExitCode {
    cli::main("cal-check", try_main)
}

fn try_main() -> io::Result<ExitCode> {
    let Some(mut cli) = Cli::parse(Args::from_env()) else {
        return usage();
    };
    if let Some(profile) = cli.chaos_profile {
        // Spec, input, checker-mode, stats, format, budget and search
        // flags are file-mode only.
        if cli.spec_name.is_some()
            || cli.spec_file.is_some()
            || cli.batch.is_some()
            || cli.mode.is_some()
            || cli.file_mode_flags()
            || cli.no_symmetry
            || cli.format.is_some()
            || cli.max_nodes.is_some()
            || cli.hb.is_some()
        {
            return usage();
        }
        let defaults = RunConfig::default();
        return run_chaos(&RunConfig {
            seed: cli.seed,
            target: cli.target.unwrap_or(defaults.target),
            profile,
            mode: cli.chaos_mode.unwrap_or(defaults.mode),
            threads: cli.threads.unwrap_or(defaults.threads),
            check_threads: cli.check_threads.unwrap_or(defaults.check_threads),
            ops_per_thread: cli.ops.unwrap_or(defaults.ops_per_thread),
            deadline: cli.deadline.or(defaults.deadline),
            ..defaults
        });
    }
    let mode = cli.mode.unwrap_or(CheckMode::Cal);
    // deterministic|stress make sense only with --chaos, and --hb chooses
    // the order source for --mode causal only.
    if cli.chaos_mode.is_some() || (cli.hb.is_some() && mode != CheckMode::Causal) {
        return usage();
    }

    // Loading happens before any history is read, so a bad .cal file
    // fails fast (exit 3) even when the input would come from stdin.
    let loaded = match cli.spec_file.as_deref().map(registry::load).transpose() {
        Ok(loaded) => loaded,
        Err(e) => {
            errln!("cal-check: {e}")?;
            return Ok(ExitCode::from(EXIT_ERROR));
        }
    };
    // With --spec, a single positional that names no loaded spec is the
    // input file — `cal-check --spec one.cal trace.hist` just works.
    if let (Some(file), None, Some(name)) = (&loaded, &cli.file, &cli.spec_name) {
        if file.get(name).is_none() {
            cli.file = cli.spec_name.take();
        }
    }
    let selected = match Selected::resolve(loaded.as_ref(), cli.spec_name.as_deref(), mode) {
        Ok(selected) => selected,
        Err(e) => {
            errln!("cal-check: {e}")?;
            return usage();
        }
    };
    let hb = cli.hb.unwrap_or_default();
    let job = Job { selected, mode, hb, format: cli.format, object: cli.object };
    let mut options = CheckOptions {
        deadline: cli.deadline,
        threads: cli.threads.unwrap_or(1),
        symmetry: !cli.no_symmetry,
        ..CheckOptions::default()
    };
    if let Some(n) = cli.max_nodes {
        options.max_nodes = n;
    }

    if let Some(dir) = &cli.batch {
        if cli.file.is_some() || cli.file_mode_flags() {
            return usage();
        }
        return run_batch(&job, dir, options);
    }

    let Some(file) = &cli.file else {
        return usage();
    };
    let input = match read_input(file) {
        Ok(s) => s,
        Err(e) => {
            errln!("cal-check: cannot read {file}: {e}")?;
            return Ok(ExitCode::from(EXIT_ERROR));
        }
    };
    let want_report = cli.stats || cli.explain || cli.stats_json.is_some();
    let (checked, report) = job.check(&input, &options, want_report, true);
    if let Some(report) = &report {
        if cli.stats {
            errln!("stats: {}", report.summary())?;
        }
        if cli.explain {
            errln!("{}", report.explain())?;
        }
        if let Some(path) = &cli.stats_json {
            let json = report.to_json();
            if path == "-" {
                outln!("{json}")?;
            } else if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                errln!("cal-check: cannot write {path}: {e}")?;
                return Ok(ExitCode::from(EXIT_ERROR));
            }
        }
    }
    match checked {
        Checked::Accepted { adjective, witness } => {
            outln!("{adjective}: yes")?;
            write!(io::stdout(), "{}", witness.unwrap_or_default())?;
            io::stdout().flush()?;
            Ok(ExitCode::from(EXIT_ACCEPTED))
        }
        Checked::Rejected { adjective } => {
            outln!("{adjective}: NO")?;
            Ok(ExitCode::from(EXIT_REJECTED))
        }
        Checked::Undecided(why) => {
            errln!("cal-check: undecided — {why}")?;
            Ok(ExitCode::from(EXIT_UNDECIDED))
        }
        Checked::Error(e) => {
            errln!("cal-check: {e}")?;
            Ok(ExitCode::from(EXIT_ERROR))
        }
    }
}

/// Runs one seeded chaos workload and reports the harvested history's
/// verdict.
fn run_chaos(config: &RunConfig) -> io::Result<ExitCode> {
    let outcome = run_once(config);
    outln!(
        "chaos run: seed={:#x} target={} threads={} ops/thread={} profile={} mode={} check-threads={}",
        config.seed, config.target, config.threads, config.ops_per_thread, config.profile,
        config.mode, config.check_threads,
    )?;
    outln!("harvested history:")?;
    for line in outcome.history.to_string().lines() {
        outln!("  {line}")?;
    }
    outln!("verdict: {}", outcome.verdict)?;
    Ok(match outcome.verdict {
        ChaosVerdict::Passed(_) => ExitCode::from(EXIT_ACCEPTED),
        ChaosVerdict::Violation(_) => ExitCode::from(EXIT_REJECTED),
        ChaosVerdict::Undecided(..) => ExitCode::from(EXIT_UNDECIDED),
        ChaosVerdict::CheckerError(_) => ExitCode::from(EXIT_ERROR),
    })
}

fn read_input(file: &str) -> io::Result<String> {
    if file == "-" {
        let mut buf = String::new();
        io::stdin().read_to_string(&mut buf)?;
        Ok(buf)
    } else {
        std::fs::read_to_string(file)
    }
}

/// One history's check result, renderable in single-file or batch mode.
enum Checked {
    /// `witness` is its text where the caller asked for it: file mode
    /// prints it, batch mode never does and must not pay for formatting
    /// (or holding) one a file.
    Accepted { adjective: &'static str, witness: Option<String> },
    Rejected { adjective: &'static str },
    Undecided(String),
    Error(String),
}

/// What a file/batch invocation checks every input against.
struct Job {
    selected: Selected,
    mode: CheckMode,
    hb: HbPolicy,
    /// Pinned input format; `None` sniffs each input.
    format: Option<Format>,
    /// Pinned object; `None` takes the first one each history mentions.
    object: Option<ObjectId>,
}

impl Job {
    /// Parses `input` (in the pinned format, or sniffed), builds the
    /// order the mode asks for, and checks it against the selected spec.
    /// With `want_report` a [`CountingSink`] rides along and the
    /// checker's [`SearchReport`] is returned next to the result (absent
    /// when parsing or the checker itself failed); with `want_witness` an
    /// accepted history's witness is formatted into the result.
    ///
    /// Parse and validation errors are line-anchored: `cal_core::format`
    /// tracks the source line of every action, so even well-formedness
    /// failures (nested invocation, mismatched response) name the
    /// offending input line.
    fn check(
        &self,
        input: &str,
        options: &CheckOptions,
        want_report: bool,
        want_witness: bool,
    ) -> (Checked, Option<SearchReport>) {
        let fmt = self.format.unwrap_or_else(|| format::detect(input));
        // Causal mode parses with annotations so kvlog `hb` metadata
        // reaches the order; the other modes ignore causality metadata by
        // design.
        let parsed = if self.mode == CheckMode::Causal {
            format::parse_annotated(fmt, input).map(|a| (a.history, a.hb_edges))
        } else {
            format::parse_as(fmt, input).map(|h| (h, None))
        };
        let (history, hb_edges) = match parsed {
            Ok(parsed) => parsed,
            Err(e) => return (Checked::Error(format!("parse error ({fmt}): {e}")), None),
        };
        let order = match self.order(&history, hb_edges.as_deref()) {
            Ok(order) => order,
            Err(e) => return (Checked::Error(e), None),
        };
        let object =
            self.object.or_else(|| history.objects().first().copied()).unwrap_or(ObjectId(0));
        let sink = want_report.then(|| Arc::new(CountingSink::new()));
        let options =
            CheckOptions { sink: sink.clone().map(|s| s as Arc<dyn StatsSink>), ..options.clone() };
        let run = Run {
            history: &history,
            order: order.as_ref(),
            options: &options,
            adjective: self.selected.adjective(self.mode),
            sink: sink.as_deref(),
            want_witness,
            start: Instant::now(),
        };
        self.selected.visit(self.mode, object, run)
    }

    /// The happens-before order `--mode causal` searches under (`None`:
    /// the mode checks against real time, as every other mode does).
    fn order(
        &self,
        history: &History,
        hb_edges: Option<&[(usize, usize)]>,
    ) -> Result<Option<HbRelation>, String> {
        if self.mode != CheckMode::Causal {
            return Ok(None);
        }
        let spans = history.try_spans().map_err(|e| format!("ill-formed history: {e}"))?;
        let hb = match (self.hb, hb_edges) {
            (HbPolicy::RealTime, _) | (HbPolicy::Auto, None) => Ok(HbRelation::real_time(&spans)),
            (HbPolicy::Session, edges) => HbRelation::causal(&spans, edges.unwrap_or(&[])),
            (HbPolicy::Auto, Some(edges)) => HbRelation::causal(&spans, edges),
        };
        hb.map(Some).map_err(|e| format!("happens-before: {e}"))
    }
}

/// One check, waiting for the registry to say what type the spec has.
struct Run<'a> {
    history: &'a History,
    order: Option<&'a HbRelation>,
    options: &'a CheckOptions,
    adjective: &'static str,
    sink: Option<&'a CountingSink>,
    want_witness: bool,
    start: Instant,
}

impl Visitor for Run<'_> {
    type Out = (Checked, Option<SearchReport>);

    fn ca<S: CaSpec>(self, spec: S) -> Self::Out {
        self.render(run_ca(self.history, &spec, self.order, self.options), format_trace)
    }

    fn interval<S: IntervalSpec>(self, spec: S) -> Self::Out {
        self.render(run_interval(self.history, &spec, self.options), format_interval_witness)
    }
}

impl Run<'_> {
    /// Folds a checker outcome (any witness type) into a renderable
    /// [`Checked`] plus, if a sink rode along, its [`SearchReport`].
    fn render<W>(
        &self,
        result: Result<CheckOutcome<W>, CheckError>,
        format_witness: impl Fn(&W) -> String,
    ) -> (Checked, Option<SearchReport>) {
        let adjective = self.adjective;
        let report = match (self.sink, &result) {
            (Some(sink), Ok(outcome)) => {
                Some(sink.report(outcome, self.options, self.start.elapsed()))
            }
            _ => None,
        };
        let checked = match result {
            Ok(outcome) => match outcome.verdict {
                Verdict::Cal(witness) => Checked::Accepted {
                    adjective,
                    witness: self.want_witness.then(|| format_witness(&witness)),
                },
                Verdict::NotCal => Checked::Rejected { adjective },
                Verdict::ResourcesExhausted => {
                    Checked::Undecided("node budget exhausted".to_string())
                }
                Verdict::Interrupted { reason } => {
                    Checked::Undecided(format!("interrupted ({reason})"))
                }
            },
            Err(e) => Checked::Error(e.to_string()),
        };
        (checked, report)
    }
}

/// One witness point per line, matching the trace format's line-oriented
/// style.
fn format_interval_witness(witness: &IntervalWitness) -> String {
    witness.points().iter().map(|p| format!("{p}\n")).collect()
}

/// Checks every regular file under `dir`, spreading files across
/// `options.threads` workers of the search's task runner (each file is
/// checked with a single-threaded search — the parallelism is across
/// files). With
/// `--format auto` each file is sniffed independently, so one directory
/// may mix native, jepsen, and kvlog traces.
fn run_batch(job: &Job, dir: &str, options: CheckOptions) -> io::Result<ExitCode> {
    let mut files: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_file())
            .collect(),
        Err(e) => {
            errln!("cal-check: cannot read directory {dir}: {e}")?;
            return Ok(ExitCode::from(EXIT_ERROR));
        }
    };
    files.sort();
    if files.is_empty() {
        errln!("cal-check: no files in {dir}")?;
        return Ok(ExitCode::from(EXIT_ERROR));
    }
    let threads = options.threads;
    let options = CheckOptions { threads: 1, ..options };
    let results = run_tasks(threads, files.len(), |idx| {
        match std::fs::read_to_string(&files[idx]) {
            Ok(input) => job.check(&input, &options, false, false).0,
            Err(e) => Checked::Error(format!("cannot read: {e}")),
        }
    });
    let mut rejected = 0usize;
    let mut undecided = 0usize;
    let mut errors = 0usize;
    let mut first_error: Option<String> = None;
    for (path, checked) in files.iter().zip(results) {
        let name = path.display();
        match checked {
            Checked::Accepted { adjective, .. } => outln!("{name}: {adjective}: yes")?,
            Checked::Rejected { adjective } => {
                outln!("{name}: {adjective}: NO")?;
                rejected += 1;
            }
            Checked::Undecided(why) => {
                outln!("{name}: undecided — {why}")?;
                undecided += 1;
            }
            Checked::Error(e) => {
                outln!("{name}: error — {e}")?;
                if first_error.is_none() {
                    first_error = Some(format!("{name}: {e}"));
                }
                errors += 1;
            }
        }
    }
    outln!(
        "batch: {} files, {} rejected, {} undecided, {} error(s)",
        files.len(),
        rejected,
        undecided,
        errors
    )?;
    if let Some(diag) = first_error {
        // The full line/field-anchored diagnostic of the first failing
        // input, repeated after the fold so it survives long batch output.
        outln!("batch: first error: {diag}")?;
    }
    Ok(if errors > 0 {
        ExitCode::from(EXIT_ERROR)
    } else if undecided > 0 {
        ExitCode::from(EXIT_UNDECIDED)
    } else if rejected > 0 {
        ExitCode::from(EXIT_REJECTED)
    } else {
        ExitCode::from(EXIT_ACCEPTED)
    })
}
