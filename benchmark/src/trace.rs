//! Spans recorded from outside: around each call into a layer's public
//! functions and around each child process. Kept in memory, written out when
//! the run ends. Allocation counts are taken at the same boundaries.

use std::time::Instant;

use crate::alloc;
use crate::clock::{Clock, Width};
use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The span this one ran inside, as an index into the trace.
    pub parent: Option<usize>,
    /// ns since the trace began.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Seconds at the reference clock ([`crate::clock`]).
    pub scaled_s: f64,
    pub allocs: u64,
    /// Bytes requested from the allocator.
    pub bytes: u64,
    /// How far live bytes rose above their level at the span's start.
    pub peak_live: u64,
}

#[derive(Debug)]
pub struct Trace {
    /// All spans of one run share it (workload and seed name the run).
    pub run: String,
    epoch: Instant,
    clock: Clock,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// Starts a trace on the calling thread, whose allocations its spans count.
    pub fn new(run: String) -> Trace {
        Trace {
            run,
            epoch: Instant::now(),
            clock: Clock::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str) -> usize {
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            scaled_s: 0.0,
            allocs: 0,
            bytes: 0,
            peak_live: 0,
        });
        self.spans.len() - 1
    }

    /// Runs single-threaded `work` inside a span, on the pinned core, and
    /// hands back what was recorded.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> (T, Span) {
        self.span_on(name, Width::One, work)
    }

    /// Runs `work` that has threads or children of its own inside a span,
    /// on every allowed core.
    pub fn span_wide<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> (T, Span) {
        self.span_on(name, Width::All, work)
    }

    pub fn span_on<T>(
        &mut self,
        name: &'static str,
        width: Width,
        work: impl FnOnce() -> T,
    ) -> (T, Span) {
        let index = self.open(name);
        let epoch = self.epoch;
        let ((out, start_ns, before, after), lap) = self.clock.time(width, || {
            let start_ns = epoch.elapsed().as_nanos() as u64;
            alloc::reset_peak();
            let before = alloc::snapshot();
            let out = work();
            (out, start_ns, before, alloc::snapshot())
        });
        let span = &mut self.spans[index];
        span.start_ns = start_ns;
        span.end_ns = start_ns + (lap.wall_s * 1e9) as u64;
        span.scaled_s = lap.scaled_s;
        span.allocs = after.allocs - before.allocs;
        span.bytes = after.bytes - before.bytes;
        span.peak_live = (after.peak - before.live).max(0) as u64;
        (out, span.clone())
    }

    /// Opens a span that only groups: spans recorded until the matching
    /// [`Trace::leave`] become its children.
    pub fn enter(&mut self, name: &'static str) {
        let index = self.open(name);
        self.open.push(index);
    }

    /// Closes the innermost group; its scaled time is its children's added up.
    pub fn leave(&mut self) {
        let index = self.open.pop().expect("a group to leave");
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.scaled_s)
            .sum();
        let span = &mut self.spans[index];
        span.end_ns = self.epoch.elapsed().as_nanos() as u64;
        span.scaled_s = children;
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::Str(s.name.into())),
                        ("run", Json::Str(self.run.clone())),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("scaled_s", Json::Num(s.scaled_s)),
                        ("allocs", Json::Num(s.allocs as f64)),
                        ("bytes", Json::Num(s.bytes as f64)),
                    ])
                })
                .collect(),
        )
    }
}
