//! The traced run: the workload's input pushed through each layer's public
//! functions in this process, a span around each call, counts taken at the
//! same boundaries — and the real binary once more under a `proc.*` span, so
//! the in-process verdict can be held against it.
//!
//! Two pipelines exist in the product, and every workload's input goes
//! through both, whichever its binary uses:
//!
//! - *stream* (`cal-serve`): `stream.decode` → `stream.push`, then the
//!   daemon itself and a paced `--ack` replay. `check-batch-small` streams
//!   its first [`STREAMED_FILES`] files, one daemon each.
//! - *batch* (`cal-check`): `format.parse` → `history.spans` →
//!   `history.order` → `symmetry.classes` → `engine.search` / `par.search` →
//!   `obs.report`. A `serve-*` stream is far too long for the quadratic
//!   order build, so the batch pipeline gets a slice of it as long as the
//!   largest window the stream checker held — about what one checkpoint
//!   search sees.
//!
//! Around the on-path search sit arms that change one thing each — a
//! counting sink, one thread, two threads, symmetry off, the `.cal` twin of
//! the spec — on the same input, for the ratios. An arm that would not end
//! (a 5,000-op kv history does not decompose on one thread) is cut off after
//! a few seconds; the numbers it feeds become bounds and are marked so.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cal_core::causal::{check_causal_par_with, check_causal_with};
use cal_core::check::{
    check_cal_with, CheckError, CheckOptions, CheckOutcome, CheckStats, Verdict,
};
use cal_core::dsl;
use cal_core::format::{self, StreamDecoder, WireItem};
use cal_core::fpmemo::FpMemo;
use cal_core::history::HbRelation;
use cal_core::obs::{CountingSink, StatsSink};
use cal_core::par::check_cal_par_with;
use cal_core::spec::{CaSpec, SeqAsCa};
use cal_core::stream::{Push, StreamChecker, StreamOptions, StreamStats, StreamVerdict};
use cal_core::symmetry::SymClasses;
use cal_core::{text, CaTrace, History, ObjectId};
use cal_specs::exchanger::ExchangerSpec;
use cal_specs::kv::KvMapSpec;
use cal_specs::register::RegisterSpec;

use crate::clock::Width;
use crate::e2e::{run_once, Tally};
use crate::metrics::{self, PER_LAYER};
use crate::proc::{self, Env, Feed};
use crate::trace::{Span, Trace};
use crate::workloads::{Bin, Case, Scale, Shape, Workload};

/// Files of `check-batch-small` that also go through the stream pipeline.
pub const STREAMED_FILES: usize = 32;
/// The open-loop replay's fixed rate, events a second.
pub const PACED_RATE: f64 = 20_000.0;

/// Runs `$body` with `$spec` bound to the built-in a spec name stands for —
/// the same values `cal-check` and `cal-serve` construct for it.
macro_rules! with_spec {
    ($name:expr, |$spec:ident| $body:expr) => {
        match $name {
            "register" => {
                let $spec = SeqAsCa::new(RegisterSpec::new(ObjectId(0)));
                $body
            }
            "kv" => {
                let $spec = SeqAsCa::new(KvMapSpec::new());
                $body
            }
            "exchanger" => {
                let $spec = ExchangerSpec::new(ObjectId(0));
                $body
            }
            other => unreachable!("no workload uses spec {other:?}"),
        }
    };
}

/// What the traced run of one workload found.
#[derive(Debug)]
pub struct Layers {
    /// Every per-layer metric, in the order of [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    pub trace: Trace,
    /// Each layer's share of the binary's time, largest first.
    pub shares: Vec<(&'static str, f64)>,
    /// Seconds the binary's own pipeline took in this process, and once more
    /// without spans — the difference is the tracing overhead. All three at
    /// the reference clock.
    pub in_process_s: f64,
    pub untraced_s: f64,
    /// The binary under its `proc.*` span.
    pub binary_s: f64,
    /// Metrics that are bounds because an arm was cut off.
    pub cut: Vec<&'static str>,
    /// Verdicts checked: the binaries' and this process's.
    pub tally: Tally,
}

/// A history's declared happens-before edges, if its trace carried any.
type Edges = Option<Vec<(usize, usize)>>;

/// One arm's searches over every history.
#[derive(Default)]
struct Sweep {
    stats: CheckStats,
    /// Per history: accepted, rejected, or cut off undecided.
    accepted: Vec<Option<bool>>,
    witnesses: Vec<CaTrace>,
}

impl Sweep {
    fn cut(&self) -> bool {
        self.accepted.iter().any(Option::is_none)
    }
}

/// One arm of a ratio after its rounds: the last round's sweep and
/// allocations (every round's are the same), the median of their seconds.
struct Arm {
    sweep: Sweep,
    seconds: f64,
    allocs: u64,
}

/// `cal-check`'s dispatch: the causal or real-time checker, on the parallel
/// driver above one thread.
fn check_one<S>(
    history: &History,
    hb: Option<&HbRelation>,
    spec: &S,
    options: &CheckOptions,
) -> Result<CheckOutcome, CheckError>
where
    S: CaSpec + Sync,
    S::State: Send + Sync,
{
    match (hb, options.threads > 1) {
        (None, false) => check_cal_with(history, spec, options),
        (None, true) => check_cal_par_with(history, spec, options),
        (Some(hb), false) => check_causal_with(history, spec, hb, options),
        (Some(hb), true) => check_causal_par_with(history, spec, hb, options),
    }
}

fn sweep<S>(
    histories: &[History],
    orders: Option<&[HbRelation]>,
    spec: &S,
    options: &CheckOptions,
) -> Sweep
where
    S: CaSpec + Sync,
    S::State: Send + Sync,
{
    let mut out = Sweep::default();
    for (i, history) in histories.iter().enumerate() {
        let outcome = check_one(history, orders.map(|o| &o[i]), spec, options)
            .expect("generated histories are well-formed and built-in specs do not panic");
        out.stats += outcome.stats;
        out.accepted.push(match outcome.verdict {
            Verdict::Cal(witness) => {
                out.witnesses.push(witness);
                Some(true)
            }
            Verdict::NotCal => Some(false),
            Verdict::ResourcesExhausted | Verdict::Interrupted { .. } => None,
        });
    }
    out
}

/// Pushes pre-decoded items through a fresh checker with `cal-serve`'s
/// default options, optionally timing each push (ns, as they passed).
fn push_all<S: CaSpec>(
    spec: S,
    items: &[WireItem],
    mut each: Option<&mut Vec<f64>>,
) -> (StreamStats, StreamVerdict) {
    let mut checker = StreamChecker::new(spec, StreamOptions::default());
    for item in items {
        let start = each.is_some().then(Instant::now);
        let refused = match item {
            WireItem::Action(a) => checker.push(*a) == Push::Refused,
            WireItem::HbEdge { from, to } => checker.push_hb_edge(*from, *to) == Push::Refused,
            WireItem::Abandon(t) => {
                checker.abandon_thread(*t);
                false
            }
        };
        if let (Some(times), Some(start)) = (each.as_deref_mut(), start) {
            times.push(start.elapsed().as_nanos() as f64);
        }
        if refused {
            break;
        }
    }
    let verdict = checker.finish();
    (checker.stats().clone(), verdict)
}

/// The open-loop replay: lines leave on a fixed schedule whatever the daemon
/// does, and each ack is timed from when its line was *due*. Returns ack
/// latencies and how late the generator itself ran, in ms as they passed.
fn paced_replay(command: &mut Command, lines: &[&str]) -> Result<(Vec<f64>, f64), String> {
    let ((acks, start, late_s), _exit) = proc::run_with(command, |stdin, stdout| {
        std::thread::scope(|scope| {
            let reader = scope.spawn(move || {
                let acks = BufReader::new(stdout).lines().map_while(Result::ok);
                acks.map(|_| Instant::now()).collect::<Vec<_>>()
            });
            let mut stdin = BufWriter::new(stdin);
            let start = Instant::now();
            let (mut sent, mut late_s) = (0usize, 0f64);
            'send: while sent < lines.len() {
                let now = start.elapsed().as_secs_f64();
                let due = (((now * PACED_RATE) as usize) + 1).min(lines.len());
                for line in &lines[sent..due] {
                    late_s = late_s.max(now - sent as f64 / PACED_RATE);
                    // The daemon exits on a violation; the rest is unsent.
                    if writeln!(stdin, "{line}").is_err() {
                        break 'send;
                    }
                    sent += 1;
                }
                if stdin.flush().is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            drop(stdin);
            (
                reader.join().expect("the ack reader does not panic"),
                start,
                late_s,
            )
        })
    })
    .map_err(|e| format!("cannot run cal-serve --ack: {e}"))?;
    let latencies = acks
        .iter()
        .enumerate()
        .map(|(i, at)| (at.duration_since(start).as_secs_f64() - i as f64 / PACED_RATE) * 1e3)
        .collect();
    Ok((latencies, late_s * 1e3))
}

/// `cal-serve` on `workload`'s spec, verdict lines off. Never `--causal`,
/// whatever the workload: four unsynchronised clients never let a causal
/// stream retire, and closing it enumerates every state the whole history
/// can reach — 1,400 operations did not finish in ten minutes. So
/// `check-kv-causal`'s kvlog goes through the stream pipeline under real
/// time, which it also satisfies; its `hb` lines are decoded and inert.
fn serve_command(env: &Env, workload: &Workload) -> Command {
    let mut command = Command::new(&env.cal_serve);
    command.arg(workload.spec).arg("--quiet");
    command
}

/// What `cal-check` does with no `--format`: sniff, then parse.
fn parse(texts: &[&str], causal: bool) -> (Vec<History>, Vec<Edges>) {
    texts
        .iter()
        .map(|text| {
            let format = format::detect(text);
            if causal {
                let annotated =
                    format::parse_annotated(format, text).expect("generated fixtures parse");
                (annotated.history, annotated.hb_edges)
            } else {
                (
                    format::parse_as(format, text).expect("generated fixtures parse"),
                    None,
                )
            }
        })
        .unzip()
}

/// `--hb auto`: declared edges over session order when the mode is causal and
/// the trace carries them, real time otherwise.
fn order(spans: &[cal_core::Span], edges: &Edges, causal: bool) -> HbRelation {
    match edges {
        Some(edges) if causal => {
            HbRelation::causal(spans, edges).expect("generated edges are acyclic")
        }
        _ => HbRelation::real_time(spans),
    }
}

/// `work` over `items` on `threads` threads that each take the next one, the
/// way `cal-check --batch` spreads files; in place on one.
fn pooled<T: Sync>(items: &[T], threads: usize, work: impl Fn(&T) + Sync) {
    if threads < 2 {
        return items.iter().for_each(work);
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while let Some(item) = items.get(next.fetch_add(1, Ordering::Relaxed)) {
                    work(item);
                }
            });
        }
    });
}

/// How many lines of a one-event-a-line history make a prefix that ends at
/// the first quiescent cut at or after `events` lines.
fn quiescent_prefix(history: &History, events: usize) -> usize {
    let mut open = 0i64;
    for (i, action) in history.actions().iter().enumerate() {
        open += if action.is_invoke() { 1 } else { -1 };
        if i + 1 >= events && open == 0 {
            return i + 1;
        }
    }
    history.len()
}

struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        assert!(!self.0.iter().any(|(n, _)| *n == name), "{name} set twice");
        // A ratio over a zero count (no nodes, no events) is 0, not NaN.
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    fn ordered(mut self) -> Vec<(&'static str, f64)> {
        for metric in &PER_LAYER {
            assert!(
                self.0.iter().any(|(n, _)| *n == metric.name),
                "{} was never set",
                metric.name
            );
        }
        self.0
            .sort_by_key(|(name, _)| PER_LAYER.iter().position(|m| m.name == *name));
        self.0
    }
}

/// What one traced run carries from stage to stage.
struct Run<'a> {
    env: &'a Env,
    workload: &'a Workload,
    dir: &'a Path,
    causal: bool,
    /// Threads of the on-path search.
    threads: usize,
    /// When an arm is cut off.
    cut_after: Duration,
    paced_lines: usize,
    t: Trace,
    m: Metrics,
    tally: Tally,
    cut: Vec<&'static str>,
}

/// What the stream pipeline hands on.
struct Streamed {
    decode: Span,
    push: Span,
    events: f64,
    peak_window: usize,
}

/// What the batch pipeline hands on.
struct Batched {
    histories: Vec<History>,
    /// Only under `--mode causal`: the checkers take the order as an input.
    orders: Option<Vec<HbRelation>>,
    /// Spans, classes and (under real time) order: what a checker redoes
    /// inside before it searches.
    inside_s: f64,
    on_path: Sweep,
    on_path_s: f64,
    times: Times,
}

/// The batch pipeline's times, at the reference clock.
struct Times {
    in_process_s: f64,
    untraced_s: f64,
    /// `cal-check` on the same input, under its span.
    check_s: f64,
    /// (label, seconds) of each stage on the binary's path.
    stages: Vec<(&'static str, f64)>,
}

impl Run<'_> {
    fn io(&self, e: std::io::Error) -> String {
        format!("{}: {e}", self.dir.display())
    }

    /// `stream.decode` → `stream.push`, the daemon, the paced replay.
    fn stream_pipeline(
        &mut self,
        cases: &[Case],
        files: &[PathBuf],
        binary_s: f64,
    ) -> Result<Streamed, String> {
        let (env, workload, paced_lines) = (self.env, self.workload, self.paced_lines);
        self.t.enter("pipeline.stream");
        let lines: Vec<Vec<&str>> = cases.iter().map(|c| c.text.lines().collect()).collect();
        let (items, decode) = self.t.span("stream.decode", || {
            lines
                .iter()
                .map(|lines| {
                    let mut decoder = StreamDecoder::new(None);
                    let mut items = Vec::with_capacity(lines.len());
                    for (i, line) in lines.iter().enumerate() {
                        items.extend(
                            decoder
                                .decode_line(i + 1, line)
                                .expect("generated lines decode"),
                        );
                    }
                    items
                })
                .collect::<Vec<Vec<WireItem>>>()
        });
        let events = items
            .iter()
            .flatten()
            .filter(|item| matches!(item, WireItem::Action(_)))
            .count() as f64;

        let ((stats, right), push) = self.t.span("stream.push", || {
            let (mut total, mut right) = (StreamStats::default(), true);
            for (items, case) in items.iter().zip(cases) {
                let (stats, verdict) =
                    with_spec!(workload.spec, |spec| push_all(spec, items, None));
                right &= verdict
                    == if case.violation {
                        StreamVerdict::Violation
                    } else {
                        StreamVerdict::Consistent
                    };
                total.search += stats.search;
                total.checkpoints += stats.checkpoints;
                total.retired_segments += stats.retired_segments;
                total.peak_window = total.peak_window.max(stats.peak_window);
                total.peak_states = total.peak_states.max(stats.peak_states);
            }
            (total, right)
        });
        self.tally.judge(
            "in-process stream",
            (!right).then(|| "the stream checker's verdict is not the known answer".into()),
        );
        // Once more with a stopwatch around every push, for the tail; the
        // mean above is free of the stopwatch's own cost.
        let mut push_ns: Vec<f64> = Vec::with_capacity(events as usize);
        self.t.span("aux.push-latency", || {
            for items in &items {
                with_spec!(workload.spec, |spec| push_all(
                    spec,
                    items,
                    Some(&mut push_ns)
                ));
            }
        });
        drop(items);
        let m = &mut self.m;
        m.set("stream.push_ns_per_event", push.scaled_s * 1e9 / events);
        m.set(
            "stream.push_p99_us",
            metrics::quantile(&push_ns, 0.99) / 1e3,
        );
        m.set(
            "stream.push_max_ms",
            push_ns.iter().copied().fold(0.0, f64::max) / 1e6,
        );
        m.set("stream.nodes_per_event", stats.search.nodes as f64 / events);
        m.set("stream.checkpoints", stats.checkpoints as f64);
        m.set("stream.retired_segments", stats.retired_segments as f64);
        m.set("stream.peak_window", stats.peak_window as f64);
        m.set("stream.peak_states", stats.peak_states as f64);
        m.set("stream.allocs_per_event", push.allocs as f64 / events);

        // The daemon on the same lines. For a `serve-*` workload that is the
        // run already made; a `check-*` workload's files are piped in here.
        let daemon_s = if workload.bin == Bin::Serve {
            binary_s
        } else {
            let (codes, span) = self.t.span("proc.cal-serve", || {
                files
                    .iter()
                    .map(|file| {
                        proc::run(&mut serve_command(env, workload), Feed::Pipe(file))
                            .map(|exit| exit.code)
                    })
                    .collect::<Result<Vec<_>, _>>()
            });
            let codes = codes.map_err(|e| format!("cannot run cal-serve: {e}"))?;
            for (code, case) in codes.iter().zip(cases) {
                let want = i32::from(case.violation);
                self.tally.judge(
                    "cal-serve replay",
                    (*code != Some(want)).then(|| format!("exit {code:?}, expected {want}")),
                );
            }
            span.scaled_s
        };
        // Base: the daemon's events a second over this process's.
        self.m.set(
            "cal-serve.pipeline_ratio",
            (decode.scaled_s + push.scaled_s) / daemon_s,
        );

        let (mut latencies, mut late_ms) = (Vec::new(), 0f64);
        let (paced, _) = self.t.span("aux.paced-ack", || -> Result<(), String> {
            for lines in &lines {
                let mut command = serve_command(env, workload);
                command.arg("--ack");
                let (acked, late) =
                    paced_replay(&mut command, &lines[..lines.len().min(paced_lines)])?;
                latencies.extend(acked);
                late_ms = late_ms.max(late);
            }
            Ok(())
        });
        paced?;
        self.m
            .set("cal-serve.ack_p50_ms", metrics::quantile(&latencies, 0.5));
        self.m
            .set("cal-serve.ack_p99_ms", metrics::quantile(&latencies, 0.99));
        self.m.set("cal-serve.gen_late_max_ms", late_ms);
        self.t.leave();
        Ok(Streamed {
            decode,
            push,
            events,
            peak_window: stats.peak_window,
        })
    }

    /// `format.parse` → … → `obs.report` over `texts`, whose answers are
    /// `violations`; `check_s` is `cal-check`'s time on the same input.
    fn batch_pipeline(&mut self, texts: &[&str], violations: &[bool], check_s: f64) -> Batched {
        let (workload, causal, threads) = (self.workload, self.causal, self.threads);
        let plain = CheckOptions {
            threads,
            ..CheckOptions::default()
        };

        // The whole pipeline the way the binary runs it — file by file, on a
        // pool of threads under `--batch` — and without spans inside: what
        // the process overhead and the tracing overhead are held against.
        // It runs before the traced stages, unmeasured, and after them: this
        // process's first pass over a 366 MiB order took up to eight times
        // as long as its later ones when it came right after a run of
        // children that size.
        let pool = workload.pool_threads();
        let width = if pool > 1 || threads > 1 {
            Width::All
        } else {
            Width::One
        };
        let whole = || {
            with_spec!(workload.spec, |spec| pooled(texts, pool, |text| {
                let (histories, edges) = parse(&[text], causal);
                let orders = causal.then(|| vec![order(&histories[0].spans(), &edges[0], causal)]);
                for witness in sweep(&histories, orders.as_deref(), &spec, &plain).witnesses {
                    std::hint::black_box(text::format_trace(&witness));
                }
            }))
        };
        let mut bare = Trace::new(String::new());
        bare.span_on("warm-up", width, whole);

        self.t.enter("pipeline.batch");
        let ((histories, edges), parsed) = self.t.span("format.parse", || parse(texts, causal));
        let ops = histories.iter().map(|h| h.len() / 2).sum::<usize>() as f64;
        let (all_spans, spans) = self.t.span("history.spans", || {
            histories
                .iter()
                .map(|h| h.try_spans().expect("well-formed"))
                .collect::<Vec<_>>()
        });
        let (orders, ordered) = self.t.span("history.order", || {
            all_spans
                .iter()
                .zip(&edges)
                .map(|(spans, edges)| order(spans, edges, causal))
                .collect::<Vec<_>>()
        });
        let ((), classes) = self.t.span("symmetry.classes", || {
            for (spans, hb) in all_spans.iter().zip(&orders) {
                std::hint::black_box(SymClasses::of_order(spans, hb));
            }
        });
        drop(all_spans);
        // Real-time checkers build their own order; a 5,000-op one is a
        // quarter of a gigabyte, so it goes before they start.
        let orders: Option<Vec<HbRelation>> = causal.then_some(orders);

        let search = |t: &mut Trace, work: &mut dyn FnMut() -> Sweep| {
            if threads > 1 {
                t.span_wide("par.search", work)
            } else {
                t.span("engine.search", work)
            }
        };
        let (on_path, searched) = search(&mut self.t, &mut || {
            with_spec!(workload.spec, |spec| sweep(
                &histories,
                orders.as_deref(),
                &spec,
                &plain
            ))
        });
        let ((), report) = self.t.span("obs.report", || {
            for witness in &on_path.witnesses {
                std::hint::black_box(text::format_trace(witness));
            }
        });
        self.t.leave();
        let ((), untraced) = bare.span_on("untraced", width, whole);
        let known: Vec<Option<bool>> = violations.iter().map(|&v| Some(!v)).collect();
        self.tally.judge(
            "in-process batch",
            (on_path.accepted != known)
                .then(|| "the checker's verdicts are not the known answers".into()),
        );

        let inside_s =
            spans.scaled_s + classes.scaled_s + if causal { 0.0 } else { ordered.scaled_s };
        let search_s = (searched.scaled_s - inside_s).max(0.0);
        // `cal-check --mode causal` builds spans and order itself, outside
        // the checker; under real time they are inside it.
        let outside_s = if causal {
            spans.scaled_s + ordered.scaled_s
        } else {
            0.0
        };
        let in_process_s = parsed.scaled_s + outside_s + searched.scaled_s + report.scaled_s;

        let m = &mut self.m;
        if workload.bin == Bin::Check {
            m.set(
                "format.decode_ns_per_event",
                parsed.scaled_s * 1e9 / (ops * 2.0),
            );
            m.set("format.bytes_per_event", parsed.bytes as f64 / (ops * 2.0));
            m.set(
                "format.allocs_per_event",
                parsed.allocs as f64 / (ops * 2.0),
            );
        }
        m.set("history.spans_ns_per_op", spans.scaled_s * 1e9 / ops);
        m.set("history.order_build_ms", ordered.scaled_s * 1e3);
        m.set("history.order_bytes_per_op", ordered.peak_live as f64 / ops);
        m.set("history.order_allocs", ordered.allocs as f64);
        m.set("symmetry.classes_ms", classes.scaled_s * 1e3);
        m.set("engine.search_ms", search_s * 1e3);
        m.set(
            "cal-check.process_overhead_ms",
            (check_s - untraced.scaled_s) * 1e3,
        );
        m.set("cal-check.files_per_s", texts.len() as f64 / check_s);
        Batched {
            histories,
            orders,
            inside_s,
            on_path,
            on_path_s: searched.scaled_s,
            times: Times {
                in_process_s,
                untraced_s: untraced.scaled_s,
                check_s,
                stages: vec![
                    ("format", parsed.scaled_s),
                    ("history.spans", spans.scaled_s),
                    ("history.order", ordered.scaled_s),
                    ("symmetry", classes.scaled_s),
                    (
                        if threads > 1 {
                            "par + engine search"
                        } else {
                            "engine search"
                        },
                        search_s,
                    ),
                    ("obs.report", report.scaled_s),
                ],
            },
        }
    }

    /// Runs the two arms of a ratio in turns — three rounds, fewer once they
    /// have used up [`Run::cut_after`] — so a change of the core's speed hits
    /// both alike.
    fn paired(
        &mut self,
        a: (&'static str, &mut dyn FnMut() -> Sweep),
        b: (&'static str, &mut dyn FnMut() -> Sweep),
    ) -> (Arm, Arm) {
        let started = Instant::now();
        let (mut a_s, mut b_s) = (Vec::new(), Vec::new());
        loop {
            let (a_sweep, a_span) = self.t.span(a.0, &mut *a.1);
            let (b_sweep, b_span) = self.t.span(b.0, &mut *b.1);
            a_s.push(a_span.scaled_s);
            b_s.push(b_span.scaled_s);
            if a_s.len() == 3 || started.elapsed() > self.cut_after {
                return (
                    Arm {
                        sweep: a_sweep,
                        seconds: metrics::median(&a_s),
                        allocs: a_span.allocs,
                    },
                    Arm {
                        sweep: b_sweep,
                        seconds: metrics::median(&b_s),
                        allocs: b_span.allocs,
                    },
                );
            }
        }
    }

    /// The arms around the on-path search. Hands back the pipeline's times,
    /// the histories spent.
    fn arms(&mut self, batched: Batched) -> Times {
        let workload = self.workload;
        let Batched {
            histories,
            orders,
            inside_s,
            on_path,
            on_path_s,
            times,
        } = batched;
        let orders = orders.as_deref();
        let aux = CheckOptions {
            threads: 1,
            deadline: Some(self.cut_after),
            ..CheckOptions::default()
        };
        self.t.enter("arms");

        let sink = Arc::new(CountingSink::new());
        let with_sink = CheckOptions {
            sink: Some(sink.clone() as Arc<dyn StatsSink>),
            ..aux.clone()
        };
        let (sunk, one) = self.paired(
            ("aux.sink-1t", &mut || {
                with_spec!(workload.spec, |spec| sweep(
                    &histories, orders, &spec, &with_sink
                ))
            }),
            ("aux.plain-1t", &mut || {
                with_spec!(workload.spec, |spec| sweep(&histories, orders, &spec, &aux))
            }),
        );
        let (sunk_s, one_s, one_allocs) = (sunk.seconds, one.seconds, one.allocs);
        let (sunk, one) = (sunk.sweep, one.sweep);
        let (two, two_s) = if self.threads == 2 {
            (on_path, on_path_s)
        } else {
            let options = CheckOptions {
                threads: 2,
                ..CheckOptions::default()
            };
            let (two, span) = self.t.span_wide("aux.par-2t", || {
                with_spec!(workload.spec, |spec| sweep(
                    &histories, orders, &spec, &options
                ))
            });
            (two, span.scaled_s)
        };
        let no_symmetry = CheckOptions {
            symmetry: false,
            ..aux.clone()
        };
        let (unreduced, _) = self.t.span("aux.nosym-1t", || {
            with_spec!(workload.spec, |spec| sweep(
                &histories,
                orders,
                &spec,
                &no_symmetry
            ))
        });

        // Where one thread cannot finish, the counters come from the run
        // that can: under decomposition each part is one thread's own exact
        // search, so they still repeat.
        let counted = if sunk.cut() {
            self.cut.extend([
                "engine.frontier_mean",
                "engine.ns_per_node",
                "engine.allocs_per_node",
                "par.speedup_2t",
                "par.node_inflation_2t",
                "obs.sink_overhead_ratio",
                "symmetry.node_ratio",
            ]);
            two.stats
        } else {
            if unreduced.cut() {
                self.cut.push("symmetry.node_ratio");
            }
            sunk.stats
        };
        let m = &mut self.m;
        let one_nodes = one.stats.nodes as f64;
        m.set("engine.nodes", counted.nodes as f64);
        m.set("engine.elements_tried", counted.elements_tried as f64);
        m.set(
            "engine.memo_hit_ratio",
            counted.memo_hits as f64 / counted.nodes as f64,
        );
        m.set("engine.frontier_mean", sink.frontier_mean());
        m.set(
            "engine.ns_per_node",
            (one_s - inside_s).max(0.0) * 1e9 / one_nodes,
        );
        m.set("engine.allocs_per_node", one_allocs as f64 / one_nodes);
        // Per node, so two arms cut off at the same deadline still compare.
        m.set(
            "obs.sink_overhead_ratio",
            (sunk_s / sunk.stats.nodes as f64) / (one_s / one_nodes),
        );
        m.set("par.speedup_2t", one_s / two_s);
        m.set("par.node_inflation_2t", two.stats.nodes as f64 / one_nodes);
        m.set("par.steals", two.stats.steals as f64);
        m.set(
            "symmetry.node_ratio",
            one_nodes / unreduced.stats.nodes as f64,
        );

        // The `.cal` twin. `kv` has none, but each key is a register: there
        // both specs get the first key's projection, under real time.
        let twin = if workload.spec == "exchanger" {
            "exchanger"
        } else {
            "register"
        };
        let source = proc::read(&self.env.root.join(format!("specs/{twin}.cal")));
        let file =
            dsl::parse_str(&source.expect("the shipped specs are there")).expect("and compile");
        let interpreted_spec = file
            .get(twin)
            .expect("each defines the spec it is named for")
            .to_ca(ObjectId(0));
        let (histories, orders): (Vec<History>, Option<&[HbRelation]>) = if workload.spec == "kv" {
            (
                histories
                    .iter()
                    .map(|h| h.project_object(ObjectId(0)))
                    .collect(),
                None,
            )
        } else {
            (histories, orders)
        };
        let (interpreted, compiled) = self.paired(
            ("aux.dsl-1t", &mut || {
                sweep(&histories, orders, &interpreted_spec, &aux)
            }),
            ("aux.twin-1t", &mut || match twin {
                "exchanger" => sweep(&histories, orders, &ExchangerSpec::new(ObjectId(0)), &aux),
                _ => sweep(
                    &histories,
                    orders,
                    &SeqAsCa::new(RegisterSpec::new(ObjectId(0))),
                    &aux,
                ),
            }),
        );
        if interpreted.sweep.cut() || compiled.sweep.cut() {
            self.cut.push("dsl.search_ratio");
        }
        self.m.set(
            "dsl.search_ratio",
            (interpreted.seconds / interpreted.sweep.stats.nodes as f64)
                / (compiled.seconds / compiled.sweep.stats.nodes as f64),
        );
        self.t.leave();
        times
    }

    /// Numbers that do not depend on the workload: compiling the shipped
    /// specs, and the shared memo's primitives on 2^16 fixed keys. Each the
    /// median of five.
    fn fixed_costs(&mut self) -> Result<(), String> {
        let sources: Vec<String> = ["counter", "exchanger", "register", "stack", "sync_queue"]
            .iter()
            .map(|name| proc::read(&self.env.root.join(format!("specs/{name}.cal"))))
            .collect::<Result<_, _>>()?;
        let keys: Vec<u64> = (0..1u64 << 16)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let (mut compile_s, mut new_s, mut insert_s, mut hit_s) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        self.t.enter("fixed-costs");
        for _ in 0..5 {
            let t = &mut self.t;
            let ((), span) = t.span("dsl.compile", || {
                for source in &sources {
                    std::hint::black_box(
                        dsl::parse_str(source).expect("the shipped specs compile"),
                    );
                }
            });
            compile_s.push(span.scaled_s);
            let (memo, span) = t.span("fpmemo.new", FpMemo::<u64>::new);
            new_s.push(span.scaled_s);
            let ((), span) = t.span("fpmemo.insert", || {
                for key in &keys {
                    std::hint::black_box(memo.insert(key));
                }
            });
            insert_s.push(span.scaled_s);
            let ((), span) = t.span("fpmemo.hit", || {
                for key in &keys {
                    std::hint::black_box(memo.contains(key));
                }
            });
            hit_s.push(span.scaled_s);
        }
        self.t.leave();
        self.m
            .set("dsl.compile_us", metrics::median(&compile_s) * 1e6);
        self.m.set("fpmemo.new_us", metrics::median(&new_s) * 1e6);
        self.m.set(
            "fpmemo.insert_ns",
            metrics::median(&insert_s) * 1e9 / keys.len() as f64,
        );
        self.m.set(
            "fpmemo.hit_ns",
            metrics::median(&hit_s) * 1e9 / keys.len() as f64,
        );
        Ok(())
    }
}

pub fn run(
    env: &Env,
    workload: &Workload,
    seed: u64,
    scale: Scale,
    dir: &Path,
) -> Result<Layers, String> {
    let quick = scale == Scale::Quick;
    let mut run = Run {
        env,
        workload,
        dir,
        causal: workload.args.contains(&"causal"),
        threads: workload.search_threads(),
        cut_after: Duration::from_secs(if quick { 1 } else { 5 }),
        paced_lines: (PACED_RATE * if quick { 0.25 } else { 2.0 }) as usize,
        t: Trace::new(format!("{}#{seed:#x}", workload.name)),
        m: Metrics(Vec::new()),
        tally: Tally::default(),
        cut: Vec::new(),
    };
    let cases = workload.cases(seed, scale, false);
    let fixture = workload
        .write_fixture(seed, scale, false, dir)
        .map_err(|e| run.io(e))?;

    // The binary itself, from outside.
    let work = || run_once(env, workload, &fixture);
    let main_span = if workload.bin == Bin::Check {
        "proc.cal-check"
    } else {
        "proc.cal-serve"
    };
    let ((exit, complaint), binary) = run.t.span_on(main_span, workload.width(), work);
    run.tally.judge("traced", complaint);
    let binary_s = binary.scaled_s;

    let streamed_cases = &cases[..cases.len().min(STREAMED_FILES)];
    let files: Vec<PathBuf> = match workload.shape {
        Shape::SmallRegisters { .. } => (0..streamed_cases.len())
            .map(|i| fixture.path.join(format!("h{i:06}.hist")))
            .collect(),
        _ => vec![fixture.path.clone()],
    };
    // A `check-*` workload's every case goes through the batch pipeline
    // first, on a heap as fresh as the binary's (after the stream pipeline's
    // churn the same search runs 15 % slower). A `serve-*` stream goes
    // through the stream pipeline first, which says how large a slice the
    // batch pipeline gets; `cal-check` is run on that slice for the process
    // overhead.
    let (streamed, times) = match workload.bin {
        Bin::Check => {
            let texts: Vec<&str> = cases.iter().map(|c| c.text.as_str()).collect();
            let violations: Vec<bool> = cases.iter().map(|c| c.violation).collect();
            let batched = run.batch_pipeline(&texts, &violations, binary_s);
            let rejected = batched
                .on_path
                .accepted
                .iter()
                .filter(|a| **a == Some(false))
                .count();
            run.tally.judge(
                "in-process against binary",
                (exit.code != Some(i32::from(rejected > 0))).then(|| {
                    format!(
                        "binary exit {:?}, in-process {rejected} rejected",
                        exit.code
                    )
                }),
            );
            let times = run.arms(batched);
            (
                run.stream_pipeline(streamed_cases, &files, binary_s)?,
                times,
            )
        }
        Bin::Serve => {
            let streamed = run.stream_pipeline(streamed_cases, &files, binary_s)?;
            let whole =
                format::parse_as(workload.format(), &cases[0].text).map_err(|e| e.to_string())?;
            let keep = quiescent_prefix(&whole, streamed.peak_window.max(2));
            let slice: String = cases[0]
                .text
                .lines()
                .take(keep)
                .flat_map(|l| [l, "\n"])
                .collect();
            let path = dir.join("slice.txt");
            std::fs::write(&path, &slice).map_err(|e| run.io(e))?;
            let mut command = Command::new(&env.cal_check);
            command.arg(workload.spec).arg(&path);
            let (exit, span) = run
                .t
                .span("proc.cal-check", || proc::run(&mut command, Feed::None));
            let exit = exit.map_err(|e| format!("cannot run cal-check: {e}"))?;
            run.tally.judge(
                "cal-check on the slice",
                (exit.code != Some(0)).then(|| format!("exit {:?}, expected 0", exit.code)),
            );
            let m = &mut run.m;
            m.set(
                "format.decode_ns_per_event",
                streamed.decode.scaled_s * 1e9 / streamed.events,
            );
            m.set(
                "format.bytes_per_event",
                streamed.decode.bytes as f64 / streamed.events,
            );
            m.set(
                "format.allocs_per_event",
                streamed.decode.allocs as f64 / streamed.events,
            );
            let batched = run.batch_pipeline(&[&slice], &[false], span.scaled_s);
            (streamed, run.arms(batched))
        }
    };

    // Each layer's share of the binary's time. A pool's stages are summed
    // over all files, so each counts for its part of one thread's time.
    let pool = workload.pool_threads() as f64;
    let (in_process_s, untraced_s, mut shares) = match workload.bin {
        Bin::Check => {
            let mut shares = times.stages;
            for share in &mut shares {
                share.1 /= pool;
            }
            shares.push(("cal-check (process)", times.check_s - times.untraced_s));
            (times.in_process_s / pool, times.untraced_s, shares)
        }
        Bin::Serve => {
            let in_process_s = streamed.decode.scaled_s + streamed.push.scaled_s;
            let shares = vec![
                ("format", streamed.decode.scaled_s),
                ("stream.push", streamed.push.scaled_s),
                ("cal-serve (pipeline)", binary_s - in_process_s),
            ];
            (in_process_s, in_process_s, shares)
        }
    };
    for share in &mut shares {
        share.1 /= binary_s;
    }
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));

    run.fixed_costs()?;
    Ok(Layers {
        metrics: run.m.ordered(),
        trace: run.t,
        shares,
        in_process_s,
        untraced_s,
        binary_s,
        cut: run.cut,
        tally: run.tally,
    })
}
