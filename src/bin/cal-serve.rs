//! `cal-serve` — a long-running streaming checker daemon: ingest
//! invoke/response events line-by-line over stdin or a TCP socket, check
//! them online against a built-in specification with bounded memory
//! ([`cal::core::stream`]), and emit verdicts plus stream reports
//! continuously in the `--stats-json` wire format.
//!
//! ```text
//! Usage: cal-serve <SPEC> [--spec <FILE.cal>] [--format <F>] [--object <N>]
//!                  [--causal] [--window <N>] [--checkpoint-every <N>]
//!                  [--max-states <N>] [--max-nodes <N>] [--deadline-ms <N>]
//!                  [--error-budget <N>] [--listen <ADDR:PORT>] [--ack]
//!                  [--stats-json <PATH|->] [--stats-every <N>] [--quiet]
//!
//!   SPEC     a built-in checkable under `cal-check --mode cal` — `--help`
//!            lists them, from the one table in `cal_specs::registry` — or a
//!            name defined by `--spec`
//!
//!   --spec <FILE.cal>       load user specs from a .cal file
//!                           (docs/SPEC_DSL.md) — loaded names shadow the
//!                           built-ins; with a single-spec file the
//!                           positional SPEC may be omitted; a compile
//!                           failure prints the diagnostic and exits 3
//!
//!   --format <F>            wire format: auto (default) | native | jepsen |
//!                           kvlog — auto sniffs the first contentful line and
//!                           latches
//!
//!   --causal                check against the happens-before partial order
//!                           instead of real time: kvlog `hb` lines (and the
//!                           wire's `hb <i> <j>` / `hb session` events)
//!                           constrain the window searches, and retirement
//!                           cuts are hb-closed — a segment is only retired
//!                           once no declared edge points back into it. An
//!                           edge whose target is already retired latches
//!                           `undecided: late happens-before edge`. Without
//!                           the flag, edges are counted but inert.
//!
//!   --window <N>            cap on open-or-undecided invocations buffered
//!                           in the search window (default 4096, 0 = unbounded)
//!   --checkpoint-every <N>  retire + re-evaluate every N admitted events
//!                           (default 128)
//!   --max-states <N>        cap on reachable states carried across a
//!                           retirement boundary (default 64)
//!   --max-nodes / --deadline-ms   per-checkpoint search budget
//!   --error-budget <N>      malformed or ill-formed events tolerated before
//!                           the stream is refused (default 16)
//!   --listen <ADDR:PORT>    serve TCP clients instead of stdin (port 0 picks
//!                           a free port; the bound address is printed first)
//!   --ack                   acknowledge every line: ok | ign | rej <why> |
//!                           nak saturated | refused <verdict>
//!   --stats-json <PATH|->   write the stream report JSON to PATH (latest
//!                           snapshot) or append lines to stdout with -
//!   --stats-every <N>       also emit a report every N admitted events
//!   --quiet                 suppress verdict-transition and summary lines
//! ```
//!
//! ## Wire format
//!
//! One event per line in any [`cal::core::format`] format — the native
//! `cal_core::text` history format (`t<N> inv <object>.<method> <value>`
//! / `t<N> res <object>.<method> <value>`), Jepsen-style EDN/JSON records
//! (`{:process 0, :type :invoke, :f :write, :value 1, :key 0}`), or
//! timestamped kvlog lines (`<start> <end|-|?> <client> put|get <key>
//! [<value>]`). `--format` pins the format; the default sniffs the first
//! contentful line and latches. Decoding is incremental
//! ([`cal::core::format::StreamDecoder`]): a Jepsen `:fail`/`:info`
//! record and a kvlog line with no end timestamp abandon the thread's
//! pending operation, which the checker then explains through the
//! specification's timeout-admission completions. Malformed lines are
//! quarantined against `--error-budget` with line-anchored diagnostics,
//! whatever the format.
//!
//! Blank lines and `#` comments are ignored. Two control lines ride
//! along: `bye` ends the stream (TCP: closes the session cleanly) and
//! `abandon t<N>` declares thread N's client dead, sealing its pending
//! operation via the specification's timeout-admission completions at
//! the next retirement boundary.
//!
//! ## Backpressure and degradation
//!
//! When the window cap is hit and retirement cannot free space, TCP
//! clients running with `--ack` are NAKed (`nak saturated`) and expected
//! to retry — the event is not admitted, reads continue. NAK-and-retry
//! requires the retried line to decode cleanly a second time, so it is
//! only offered on the stateless native format; Jepsen and kvlog lines
//! (whose decode has already recorded the line's effect) resolve
//! saturation server-side instead. Without an ack channel (stdin, or TCP
//! without `--ack`), and on those stateful formats, the daemon forces a
//! checkpoint, retries once, and then degrades explicitly: the verdict
//! latches `undecided: window exceeded`, admitted events are kept, and
//! the rest of the stream is drained without admission — bounded memory,
//! never an abort.
//!
//! A TCP client that disconnects (or says `bye`) with operations still
//! pending has them abandoned automatically. An interrupting SIGINT or
//! SIGTERM flushes a final report before exiting.
//!
//! Exit status (the audited contract, shared with `cal-check`):
//! 0 = consistent, 1 = violation, 2 = undecided (budget, deadline or
//! window exceeded), 3 = input/checker error (including an exceeded
//! error budget), 4 = usage. A closed stdout pipe exits 0.
//!
//! Example:
//!
//! ```bash
//! printf 't1 inv o0.exchange 3\nt2 inv o0.exchange 4\nt1 res o0.exchange (true,4)\nt2 res o0.exchange (true,3)\n' \
//!   | cargo run --bin cal-serve -- exchanger --stats-json -
//! ```

use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cal::cli::{
    self, install_shutdown_handler, parse_seed, shutdown_requested, Args, EXIT_ACCEPTED,
    EXIT_ERROR, EXIT_REJECTED, EXIT_UNDECIDED, EXIT_USAGE,
};
use cal::core::check::CheckOptions;
use cal::core::format::{Format, StreamDecoder, WireItem};
use cal::core::spec::CaSpec;
use cal::core::stream::{Push, StreamChecker, StreamOptions, StreamVerdict, UndecidedWhy};
use cal::core::{ObjectId, ThreadId};
use cal::specs::registry::{self, CheckMode, Selected, Visitor};
use cal::{errln, outln};
use parking_lot::Mutex;

fn usage() -> io::Result<ExitCode> {
    errln!(
        "usage: cal-serve <SPEC> [--spec <FILE.cal>] [--format auto|native|jepsen|kvlog]\n\
         \x20                [--object <N>] [--causal] [--window <N>] [--checkpoint-every <N>]\n\
         \x20                [--max-states <N>] [--max-nodes <N>] [--deadline-ms <N>]\n\
         \x20                [--error-budget <N>] [--listen <ADDR:PORT>] [--ack]\n\
         \x20                [--stats-json <PATH|->] [--stats-every <N>] [--quiet]\n\
         \n\
         SPEC: {}\n\
         \n\
         --spec loads user specs from a .cal file (docs/SPEC_DSL.md); loaded names\n\
         shadow built-ins, and with a single-spec file SPEC may be omitted\n\
         --causal checks against happens-before instead of real time: declared kvlog\n\
         `hb` edges constrain the search and retirement cuts are hb-closed\n\
         \n\
         events on stdin (or per TCP client): one event per line in the native,\n\
         jepsen, or kvlog format (--format auto sniffs the first line and latches);\n\
         control lines: 'bye' (end of stream), 'abandon t<N>' (client death)\n\
         \n\
         exit status: 0 consistent, 1 violation, 2 undecided, 3 input/checker error, 4 usage",
        registry::builtin_names(Some(CheckMode::Cal))
    )?;
    Ok(ExitCode::from(EXIT_USAGE))
}

/// Parsed command line.
struct Cfg {
    spec_name: Option<String>,
    spec_file: Option<String>,
    /// Pinned wire format; `None` sniffs the first contentful line.
    format: Option<Format>,
    object: ObjectId,
    window: usize,
    checkpoint_every: usize,
    max_states: usize,
    max_nodes: u64,
    deadline: Option<Duration>,
    error_budget: u64,
    listen: Option<String>,
    ack: bool,
    stats_json: Option<String>,
    stats_every: u64,
    quiet: bool,
    /// Causal mode: retirement cuts must be hb-closed and declared
    /// `hb` edges constrain the window searches.
    causal: bool,
}

impl Cfg {
    /// `None` is a usage error: an unknown flag, or a missing or
    /// malformed value.
    fn parse(mut args: Args) -> Option<Cfg> {
        let mut cfg = Cfg {
            spec_name: None,
            spec_file: None,
            format: None,
            object: ObjectId(0),
            window: 4096,
            checkpoint_every: 128,
            max_states: 64,
            max_nodes: CheckOptions::default().max_nodes,
            deadline: None,
            error_budget: 16,
            listen: None,
            ack: false,
            stats_json: None,
            stats_every: 0,
            quiet: false,
            causal: false,
        };
        while let Some(a) = args.next() {
            match a.as_str() {
                "--format" => cfg.format = args.format("cal-serve")?,
                "--object" => cfg.object = ObjectId(args.value()?),
                "--window" => cfg.window = args.value()?,
                "--checkpoint-every" => cfg.checkpoint_every = args.positive()?,
                "--max-states" => cfg.max_states = args.positive()?,
                "--max-nodes" => cfg.max_nodes = args.with(parse_seed).filter(|n| *n > 0)?,
                "--deadline-ms" => cfg.deadline = Some(Duration::from_millis(args.value()?)),
                "--error-budget" => cfg.error_budget = args.value()?,
                "--listen" => cfg.listen = Some(args.next()?),
                "--spec" => cfg.spec_file = Some(args.next()?),
                "--ack" => cfg.ack = true,
                "--stats-json" => cfg.stats_json = Some(args.next()?),
                "--stats-every" => cfg.stats_every = args.value()?,
                "--quiet" => cfg.quiet = true,
                "--causal" => cfg.causal = true,
                "-h" | "--help" => return None,
                _ if cfg.spec_name.is_none() => cfg.spec_name = Some(a),
                _ => return None,
            }
        }
        Some(cfg)
    }
}

fn main() -> ExitCode {
    cli::main("cal-serve", try_main)
}

fn try_main() -> io::Result<ExitCode> {
    let Some(cfg) = Cfg::parse(Args::from_env()) else {
        return usage();
    };
    // `--spec` loads and compiles before any event is read, so a bad
    // .cal file fails fast with its diagnostic (exit 3).
    let loaded = match cfg.spec_file.as_deref().map(registry::load).transpose() {
        Ok(loaded) => loaded,
        Err(e) => {
            errln!("cal-serve: {e}")?;
            return Ok(ExitCode::from(EXIT_ERROR));
        }
    };
    // The stream checker decides CAL membership, so it serves exactly the
    // specs `cal-check --mode cal` does.
    let name = cfg.spec_name.as_deref();
    let selected = match Selected::resolve(loaded.as_ref(), name, CheckMode::Cal) {
        Ok(selected) => selected,
        Err(e) => {
            errln!("cal-serve: {e}")?;
            return usage();
        }
    };
    install_shutdown_handler();
    selected.visit(CheckMode::Cal, cfg.object, Serve(&cfg))
}

/// The daemon, waiting for the registry to say what type the spec has.
struct Serve<'a>(&'a Cfg);

impl Visitor for Serve<'_> {
    type Out = io::Result<ExitCode>;

    fn ca<S>(self, spec: S) -> io::Result<ExitCode>
    where
        S: CaSpec + Send + 'static,
        S::State: Send,
    {
        let cfg = self.0;
        let options = StreamOptions {
            max_window: cfg.window,
            checkpoint_every: cfg.checkpoint_every,
            max_states: cfg.max_states,
            check: CheckOptions {
                max_nodes: cfg.max_nodes,
                deadline: cfg.deadline,
                ..CheckOptions::default()
            },
            causal: cfg.causal,
        };
        let checker = StreamChecker::new(spec, options);
        let decoder = StreamDecoder::new(cfg.format);
        match &cfg.listen {
            None => serve_stdin(checker, decoder, cfg),
            Some(addr) => serve_tcp(checker, decoder, cfg, addr),
        }
    }
}

/// What one input line did to the stream.
enum Reply {
    /// Blank, comment, or a handled control line.
    Ignored,
    /// The event entered the window.
    Admitted,
    /// Quarantined (ill-formed event or parse error): counts against the
    /// error budget.
    Quarantined(String),
    /// Window saturated; the event was not admitted and may be retried.
    Saturated,
    /// The stream is closed (final verdict or degradation).
    Refused,
    /// The client said `bye`.
    Bye,
}

/// Feeds one raw line to the checker: control lines first, then one
/// decode (the decoder's state advances exactly once per line, whatever
/// the format), then admission of each decoded item. `line_no` is only
/// for error messages. `nak` says an ack channel exists for NAKing a
/// saturated event back to the client; it only helps when retrying the
/// line is sound — the native format, before the line has had any
/// effect. Everywhere else saturation resolves in-line: force a
/// checkpoint, retry the push once, then degrade explicitly. Threads
/// seen invoking are appended to `invoked` (even when admission then
/// fails) so TCP sessions can abandon them on disconnect.
fn apply_line<S: CaSpec>(
    checker: &mut StreamChecker<S>,
    decoder: &mut StreamDecoder,
    line_no: u64,
    raw: &str,
    nak: bool,
    invoked: &mut Vec<ThreadId>,
) -> Reply {
    let text = raw.trim();
    if text == "bye" {
        return Reply::Bye;
    }
    if let Some(rest) = text.strip_prefix("abandon ") {
        match rest.trim().strip_prefix('t').and_then(|n| n.parse::<u32>().ok()) {
            Some(n) => {
                checker.abandon_thread(ThreadId(n));
                return Reply::Ignored;
            }
            None => {
                return Reply::Quarantined(format!("line {line_no}: bad abandon target {rest:?}"))
            }
        }
    }
    let items = match decoder.decode_line(line_no as usize, raw) {
        Ok(items) => items,
        Err(e) => return Reply::Quarantined(e.to_string()),
    };
    if items.is_empty() {
        return Reply::Ignored;
    }
    // NAK-and-retry re-decodes the resent line, which is only sound when
    // decoding is stateless (native) and this line has not yet touched
    // the checker — a jepsen or kvlog line has already advanced the
    // decoder and would not decode the same way twice.
    let can_nak = nak && decoder.format() == Some(Format::Native);
    let mut effect = false;
    for item in items {
        match item {
            WireItem::Abandon(t) => {
                checker.abandon_thread(t);
                effect = true;
            }
            WireItem::HbEdge { from, to } => match checker.push_hb_edge(from, to) {
                Push::Refused => return Reply::Refused,
                _ => effect = true,
            },
            WireItem::Action(action) => {
                if action.is_invoke() {
                    invoked.push(action.thread());
                }
                match checker.push(action) {
                    Push::Admitted => effect = true,
                    Push::Rejected(e) => {
                        return Reply::Quarantined(format!("line {line_no}: {e}"))
                    }
                    Push::Refused => return Reply::Refused,
                    Push::Saturated => {
                        if can_nak && !effect {
                            return Reply::Saturated;
                        }
                        checker.checkpoint();
                        match checker.push(action) {
                            Push::Admitted => effect = true,
                            Push::Rejected(e) => {
                                return Reply::Quarantined(format!("line {line_no}: {e}"))
                            }
                            Push::Refused => return Reply::Refused,
                            Push::Saturated => {
                                checker.degrade();
                                return Reply::Refused;
                            }
                        }
                    }
                }
            }
        }
    }
    Reply::Admitted
}

/// Emits the report to the `--stats-json` target: `-` appends a line to
/// stdout (a report *stream*), a path is overwritten with the latest
/// snapshot.
fn emit_report(cfg: &Cfg, json: &str) -> io::Result<()> {
    match cfg.stats_json.as_deref() {
        Some("-") => {
            outln!("{json}")?;
            io::stdout().flush()
        }
        Some(path) => {
            std::fs::write(path, format!("{json}\n"))
                .or_else(|e| errln!("cal-serve: cannot write {path}: {e}"))
        }
        None => Ok(()),
    }
}

/// Folds the final state into the exit-code contract.
fn exit_for(verdict: &StreamVerdict, budget_exceeded: bool) -> ExitCode {
    ExitCode::from(if budget_exceeded {
        EXIT_ERROR
    } else {
        match verdict {
            StreamVerdict::Consistent => EXIT_ACCEPTED,
            StreamVerdict::Violation => EXIT_REJECTED,
            StreamVerdict::Undecided(UndecidedWhy::CheckerError) => EXIT_ERROR,
            StreamVerdict::Undecided(_) => EXIT_UNDECIDED,
        }
    })
}

/// The single-session mode: events arrive on stdin; backpressure means
/// pausing reads (the pipe fills) and, if that cannot help, explicit
/// degradation.
fn serve_stdin<S: CaSpec>(
    mut checker: StreamChecker<S>,
    mut decoder: StreamDecoder,
    cfg: &Cfg,
) -> io::Result<ExitCode> {
    let start = Instant::now();
    // A reader thread forwards lines over a channel so the main loop can
    // poll the shutdown flag: std's blocking read retries EINTR, so a
    // signal would otherwise go unnoticed until the next line. The
    // channel is bounded: when the checker falls behind, the reader
    // blocks on send, stops draining stdin, and the pipe fills — that
    // *is* the backpressure, and it keeps ingest memory O(1) instead of
    // buffering an unbounded backlog of a fast producer's lines.
    let (tx, rx) = std::sync::mpsc::sync_channel::<String>(1024);
    std::thread::spawn(move || {
        for line in io::stdin().lock().lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let mut lines = 0u64;
    let mut faults = 0u64;
    let mut budget_exceeded = false;
    let mut last_verdict = checker.verdict();
    'ingest: loop {
        if shutdown_requested() {
            if !cfg.quiet {
                errln!("cal-serve: shutdown signal, flushing final report")?;
            }
            break;
        }
        let line = match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(line) => line,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        };
        lines += 1;
        let mut invoked = Vec::new();
        let reply = apply_line(&mut checker, &mut decoder, lines, &line, false, &mut invoked);
        match &reply {
            Reply::Bye => {
                ack(cfg, &mut io::stdout(), "ok")?;
                break;
            }
            Reply::Ignored => ack(cfg, &mut io::stdout(), "ign")?,
            Reply::Admitted => ack(cfg, &mut io::stdout(), "ok")?,
            Reply::Quarantined(why) => {
                faults += 1;
                if !cfg.quiet {
                    errln!("cal-serve: quarantined: {why}")?;
                }
                ack(cfg, &mut io::stdout(), &format!("rej {why}"))?;
                if faults > cfg.error_budget {
                    errln!(
                        "cal-serve: error budget exceeded ({faults} > {}), refusing stream",
                        cfg.error_budget
                    )?;
                    budget_exceeded = true;
                    break;
                }
            }
            Reply::Saturated => {
                unreachable!("without an ack channel, saturation resolves in-line")
            }
            Reply::Refused => {
                ack(cfg, &mut io::stdout(), &format!("refused {}", checker.verdict()))?;
                // A refused stream can only end one way; drain nothing.
                break;
            }
        }
        let verdict = checker.verdict();
        if verdict != last_verdict {
            if !cfg.quiet {
                outln!("verdict: {verdict} ({} events)", checker.stats().events)?;
                io::stdout().flush()?;
            }
            if verdict == StreamVerdict::Violation {
                break 'ingest;
            }
            last_verdict = verdict;
        }
        if cfg.stats_every > 0 && checker.stats().events.is_multiple_of(cfg.stats_every) {
            emit_report(cfg, &checker.report(start.elapsed()).to_json())?;
        }
    }
    let verdict = checker.finish();
    let report = checker.report(start.elapsed());
    emit_report(cfg, &report.to_json())?;
    if !cfg.quiet {
        errln!("cal-serve: {}", report.summary())?;
        outln!("verdict: {verdict} ({} events)", checker.stats().events)?;
        io::stdout().flush()?;
    }
    Ok(exit_for(&verdict, budget_exceeded))
}

fn ack(cfg: &Cfg, sink: &mut impl Write, text: &str) -> io::Result<()> {
    if cfg.ack {
        writeln!(sink, "{text}")?;
        sink.flush()?;
    }
    Ok(())
}

/// State shared between the TCP accept loop and the per-client threads.
struct Shared<S: CaSpec> {
    checker: Mutex<StreamChecker<S>>,
    /// One wire decoder for the whole stream, shared by every session.
    /// Locked together with (and after) `checker` so a line's decode and
    /// admission are atomic with respect to other clients.
    decoder: Mutex<StreamDecoder>,
    /// Which session an event thread last invoked from, for disconnect
    /// handling.
    owners: Mutex<HashMap<ThreadId, u64>>,
    /// Live connections, so shutdown can unblock readers.
    conns: Mutex<Vec<TcpStream>>,
    lines: Mutex<u64>,
    faults: Mutex<u64>,
    /// Raised on violation, degradation or an exceeded error budget:
    /// stop accepting, wind clients down.
    fatal: AtomicBool,
    budget_exceeded: AtomicBool,
    start: Instant,
}

/// The multi-client mode: every connection is a session whose pending
/// operations are abandoned if it disconnects; saturation NAKs the
/// offending client (with `--ack`) instead of degrading the stream.
fn serve_tcp<S>(
    checker: StreamChecker<S>,
    decoder: StreamDecoder,
    cfg: &Cfg,
    addr: &str,
) -> io::Result<ExitCode>
where
    S: CaSpec + Send + 'static,
    S::State: Send,
{
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    // Port 0 picks a free port; announce the real address first so
    // clients (and tests) can find it.
    outln!("cal-serve: listening on {}", listener.local_addr()?)?;
    io::stdout().flush()?;
    let shared = Arc::new(Shared {
        checker: Mutex::new(checker),
        decoder: Mutex::new(decoder),
        owners: Mutex::new(HashMap::new()),
        conns: Mutex::new(Vec::new()),
        lines: Mutex::new(0),
        faults: Mutex::new(0),
        fatal: AtomicBool::new(false),
        budget_exceeded: AtomicBool::new(false),
        start: Instant::now(),
    });
    let mut handles = Vec::new();
    let mut sessions = 0u64;
    while !shutdown_requested() && !shared.fatal.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                sessions += 1;
                let session = sessions;
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().push(clone);
                }
                let shared = Arc::clone(&shared);
                let cfg = CfgLite::of(cfg);
                handles.push(std::thread::spawn(move || client(shared, cfg, stream, session)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => {
                errln!("cal-serve: accept error: {e}")?;
                break;
            }
        }
    }
    // Unblock every client reader, then wait for them to finish their
    // disconnect handling (abandoning pending ops).
    for conn in shared.conns.lock().iter() {
        let _ = conn.shutdown(Shutdown::Both);
    }
    for handle in handles {
        let _ = handle.join();
    }
    let mut checker = shared.checker.lock();
    let verdict = checker.finish();
    let report = checker.report(shared.start.elapsed());
    emit_report(cfg, &report.to_json())?;
    if !cfg.quiet {
        errln!("cal-serve: {sessions} sessions served")?;
        errln!("cal-serve: {}", report.summary())?;
        outln!("verdict: {verdict} ({} events)", checker.stats().events)?;
        io::stdout().flush()?;
    }
    Ok(exit_for(&verdict, shared.budget_exceeded.load(Ordering::SeqCst)))
}

/// The slice of [`Cfg`] a client thread needs (cheap to clone per
/// connection).
#[derive(Clone)]
struct CfgLite {
    ack: bool,
    quiet: bool,
    error_budget: u64,
}

impl CfgLite {
    fn of(cfg: &Cfg) -> Self {
        CfgLite { ack: cfg.ack, quiet: cfg.quiet, error_budget: cfg.error_budget }
    }
}

/// One client session: feed its lines to the shared checker, ack per the
/// policy, and abandon its pending operations when it goes away.
fn client<S: CaSpec>(shared: Arc<Shared<S>>, cfg: CfgLite, stream: TcpStream, session: u64) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut threads: HashSet<ThreadId> = HashSet::new();
    loop {
        if shutdown_requested() || shared.fatal.load(Ordering::SeqCst) {
            break;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Err(_) => break,
            Ok(_) => {}
        }
        let line_no = {
            let mut lines = shared.lines.lock();
            *lines += 1;
            *lines
        };
        let mut invoked = Vec::new();
        let reply = {
            let mut checker = shared.checker.lock();
            let mut decoder = shared.decoder.lock();
            apply_line(&mut checker, &mut decoder, line_no, &line, cfg.ack, &mut invoked)
        };
        // Remember which threads this session drives, admitted or not, so
        // even a still-pending (or NAKed) first invocation is abandoned
        // on disconnect.
        for t in invoked {
            threads.insert(t);
            shared.owners.lock().insert(t, session);
        }
        let closed = match &reply {
            Reply::Bye => {
                let _ = ack_to(&cfg, &mut writer, "ok");
                break;
            }
            Reply::Ignored => {
                let _ = ack_to(&cfg, &mut writer, "ign");
                false
            }
            Reply::Admitted => {
                let _ = ack_to(&cfg, &mut writer, "ok");
                false
            }
            Reply::Quarantined(why) => {
                let _ = ack_to(&cfg, &mut writer, &format!("rej {why}"));
                if !cfg.quiet {
                    let _ = errln!("cal-serve: quarantined: {why}");
                }
                let mut faults = shared.faults.lock();
                *faults += 1;
                if *faults > cfg.error_budget {
                    let _ = errln!(
                        "cal-serve: error budget exceeded ({} > {}), refusing stream",
                        *faults,
                        cfg.error_budget
                    );
                    shared.budget_exceeded.store(true, Ordering::SeqCst);
                    true
                } else {
                    false
                }
            }
            // Saturation only surfaces here when an ack channel exists
            // and the retry is sound (native format, no effect yet): NAK
            // and let the client retry. Every other case resolved inside
            // apply_line.
            Reply::Saturated => {
                let _ = ack_to(&cfg, &mut writer, "nak saturated");
                false
            }
            Reply::Refused => true,
        };
        let verdict = shared.checker.lock().verdict();
        if closed || verdict == StreamVerdict::Violation {
            let _ = ack_to(&cfg, &mut writer, &format!("refused {verdict}"));
            shared.fatal.store(true, Ordering::SeqCst);
            break;
        }
    }
    // Session over (clean or crashed): no one will ever respond to its
    // in-flight operations — seal them.
    let owners = shared.owners.lock();
    let mut checker = shared.checker.lock();
    for t in threads {
        if owners.get(&t) == Some(&session) {
            checker.abandon_thread(t);
        }
    }
}

fn ack_to(cfg: &CfgLite, writer: &mut TcpStream, text: &str) -> io::Result<()> {
    if cfg.ack {
        writeln!(writer, "{text}")?;
        writer.flush()?;
    }
    Ok(())
}
