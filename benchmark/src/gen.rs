//! Seeded input generators.
//!
//! Every generator builds its history *from* a linearization it chooses, so
//! the checker's answer is known by construction and the linearization is
//! the evidence: `tests/known_answers.rs` validates it with
//! `check::witness_explains` / `causal::witness_explains_causal`. A planted
//! violation is always a value no legal trace can produce at that point
//! (reads of an overwritten unique value between quiescent cuts, an exchange
//! that names a partner value nobody offered), so rejection is certain too.
//!
//! Values are drawn so accepted inputs stay polynomial to check: every write
//! stores a fresh value, so a read pins the write it saw. (A 2,000-op stack
//! with repeated values took 237 s while sizing; that is why no stack
//! workload ships.)

use std::io::{self, Write};

use cal_core::{Action, CaElement, CaTrace, History, ObjectId, Operation, ThreadId, Value};
use cal_specs::exchanger::{fail_element, swap_element};
use cal_specs::vocab::{EXCHANGE, READ, WRITE};
use rand::rngs::StdRng;
use rand::Rng;

/// One piece of a generated history.
#[derive(Debug, Clone, Copy)]
pub enum Piece {
    /// The next action of the history.
    Action(Action),
    /// The next operation of the linearization the history was built from.
    Linearized(Operation),
}

/// The shape of a key-value (or, with one key, register) history.
#[derive(Debug, Clone, Copy)]
pub struct KvShape {
    pub clients: u32,
    pub keys: u32,
    /// Operations to generate (a planted violation adds three more).
    pub ops: usize,
    /// Mean operations between quiescent cuts — points where no operation
    /// is open. This is the property streaming throughput depends on: the
    /// daemon can only retire its window at such a cut.
    pub mean_burst: usize,
    /// Share of operations that take effect at their invocation, before any
    /// other client moves. At 1.0 the linearization is the invocation order,
    /// the order the search tries first.
    pub eager: f64,
}

/// Generates a linearizable key-value history piece by piece, so a
/// million-event stream never sits in memory: the child's peak RSS is read
/// through `wait4`, and the kernel floors that at the spawning process's own
/// high-water mark.
///
/// Clients are stepped at random through invoke → take effect → respond;
/// the take-effect order is the linearization, and it lies inside each
/// operation's interval, so the history agrees with it under real time.
/// After `burst` invocations (the given mean, give or take an eighth) no client starts
/// a new operation until all have responded: a quiescent cut, and the only
/// kind there is.
///
/// With `plant_after = Some(k)`, the first cut after `k` operations gets a
/// stale read: client 0 writes `a`, then `b`, then reads `a`, each alone.
pub fn kv_history(
    shape: &KvShape,
    plant_after: Option<usize>,
    rng: &mut StdRng,
    out: &mut dyn FnMut(Piece),
) {
    #[derive(Clone, Copy)]
    enum Client {
        Idle,
        Invoked { key: ObjectId, write: Option<i64> },
        Effected { op: Operation },
    }
    let take_effect = |t, key: ObjectId, write, store: &mut [i64], out: &mut dyn FnMut(Piece)| {
        let cell = &mut store[key.0 as usize];
        let op = match write {
            Some(v) => {
                *cell = v;
                Operation::new(t, key, WRITE, Value::Int(v), Value::Unit)
            }
            None => Operation::new(t, key, READ, Value::Unit, Value::Int(*cell)),
        };
        out(Piece::Linearized(op));
        Client::Effected { op }
    };
    let mut clients = vec![Client::Idle; shape.clients as usize];
    let mut store = vec![0i64; shape.keys as usize];
    let mut fresh = 0i64;
    let mut issued = 0usize;
    let mut plant_after = plant_after;
    while issued < shape.ops {
        // Within an eighth of the mean: wide enough that cuts drift against
        // the daemon's fixed checkpoint interval, narrow enough that the
        // search cost (steeply convex in the window) does not hang on how
        // many very long bursts a seed happens to draw.
        let (mean, jitter) = (shape.mean_burst.max(1), shape.mean_burst / 8);
        let burst = rng
            .gen_range(mean - jitter..=mean + jitter)
            .min(shape.ops - issued);
        let (mut started, mut open) = (0usize, 0usize);
        while started < burst || open > 0 {
            let c = rng.gen_range(0..shape.clients) as usize;
            let t = ThreadId(c as u32);
            clients[c] = match clients[c] {
                Client::Idle if started < burst => {
                    let key = ObjectId(rng.gen_range(0..shape.keys));
                    let write = rng.gen_bool(0.5).then(|| {
                        fresh += 1;
                        fresh
                    });
                    let (method, arg) = match write {
                        Some(v) => (WRITE, Value::Int(v)),
                        None => (READ, Value::Unit),
                    };
                    out(Piece::Action(Action::invoke(t, key, method, arg)));
                    started += 1;
                    open += 1;
                    if rng.gen_bool(shape.eager) {
                        take_effect(t, key, write, &mut store, out)
                    } else {
                        Client::Invoked { key, write }
                    }
                }
                Client::Idle => Client::Idle,
                Client::Invoked { key, write } => take_effect(t, key, write, &mut store, out),
                // The last open operation of an unfinished burst stays open,
                // or the burst would fall apart into accidental cuts.
                Client::Effected { op } if open > 1 || started == burst => {
                    out(Piece::Action(op.response()));
                    open -= 1;
                    Client::Idle
                }
                waiting @ Client::Effected { .. } => waiting,
            };
        }
        issued += burst;
        if plant_after.is_some_and(|k| issued > k) {
            plant_after = None;
            let (t, key) = (ThreadId(0), ObjectId(rng.gen_range(0..shape.keys)));
            let (a, b) = (fresh + 1, fresh + 2);
            fresh += 2;
            store[key.0 as usize] = b;
            for op in [
                Operation::new(t, key, WRITE, Value::Int(a), Value::Unit),
                Operation::new(t, key, WRITE, Value::Int(b), Value::Unit),
                Operation::new(t, key, READ, Value::Unit, Value::Int(a)),
            ] {
                out(Piece::Action(op.invocation()));
                out(Piece::Action(op.response()));
            }
        }
    }
}

/// A history held in memory with the linearization it was built from.
#[derive(Debug, Clone, Default)]
pub struct Built {
    pub history: History,
    /// Empty when a violation was planted: no linearization exists.
    pub linearization: CaTrace,
}

/// [`kv_history`] collected in memory.
pub fn kv_built(shape: &KvShape, plant_after: Option<usize>, rng: &mut StdRng) -> Built {
    let mut built = Built::default();
    kv_history(shape, plant_after, rng, &mut |piece| match piece {
        Piece::Action(a) => built.history.push(a),
        Piece::Linearized(op) => built.linearization.push(CaElement::singleton(op)),
    });
    if plant_after.is_some() {
        built.linearization = CaTrace::new();
    }
    built
}

/// The wire formats the streaming writer speaks. (kvlog fixtures are small
/// and go through `format::format_kvlog_annotated`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    Native,
    Jepsen,
}

/// Writes one action as one line, byte for byte what
/// `text::format_history` / `format::format_jepsen` write for it.
pub fn write_action(w: &mut impl Write, wire: Wire, a: &Action) -> io::Result<()> {
    let value = a
        .arg()
        .or_else(|| a.ret())
        .expect("every action carries a value");
    match wire {
        Wire::Native => {
            let kind = if a.is_invoke() { "inv" } else { "res" };
            writeln!(
                w,
                "{} {} {}.{} {}",
                a.thread(),
                kind,
                a.object(),
                a.method(),
                value
            )
        }
        Wire::Jepsen => {
            let kind = if a.is_invoke() { "invoke" } else { "ok" };
            write!(
                w,
                "{{:process {}, :type :{}, :f :{}, :key {}, :value ",
                a.thread().0,
                kind,
                a.method(),
                a.object().0
            )?;
            match value {
                Value::Unit => w.write_all(b"nil}\n"),
                Value::Bool(b) => writeln!(w, "{b}}}"),
                Value::Int(n) => writeln!(w, "{n}}}"),
                Value::Pair(b, n) => writeln!(w, "[{b} {n}]}}"),
            }
        }
    }
}

/// One reads-from edge per get that saw a put, as span-index pairs: the
/// happens-before order a causally consistent store would declare. Puts
/// store fresh values, so the value names the put.
pub fn reads_from(history: &History) -> Vec<(usize, usize)> {
    let spans = history.spans();
    let mut put_of = std::collections::HashMap::new();
    for (i, span) in spans.iter().enumerate() {
        if let (WRITE, Value::Int(v)) = (span.method, span.arg) {
            put_of.insert((span.object, v), i);
        }
    }
    spans
        .iter()
        .enumerate()
        .filter_map(|(get, span)| match (span.method, span.ret) {
            (READ, Some(Value::Int(v))) => put_of.get(&(span.object, v)).map(|&put| (put, get)),
            _ => None,
        })
        .collect()
}

/// Elements per fully-overlapping window of an exchanger history.
pub const EXCHANGER_WINDOW: usize = 12;
/// Thread pool of an exchanger history; a window needs at most 24.
pub const EXCHANGER_THREADS: u32 = 28;

/// Generates the paper's exchanger as `windows` windows of
/// [`EXCHANGER_WINDOW`] CA-elements each — nine swap pairs and three lone
/// failures with arguments from four values, so many operations are
/// interchangeable and symmetry classes are non-trivial. Inside a window
/// every operation overlaps every other (`gen::render_windowed`), so the
/// checker faces all pairings at once.
///
/// Every window has the same multiset of element kinds up to a renaming of
/// the four values; the seed picks the renaming, the threads and the order.
/// Drawing the kinds freely made the search size swing ±7 % between seeds,
/// which is wider than the change the workload exists to detect.
///
/// With `plant`, one failure of the last window gives way to a swap whose two
/// sides name values (100.., outside the four) that nobody offered. The
/// search cannot know that early: it exhausts every pairing of every window
/// first.
pub fn exchanger_windows(windows: usize, plant: bool, rng: &mut StdRng) -> Built {
    const E: ObjectId = ObjectId(0);
    // Indices into the window's renaming of the four values.
    const SWAPS: [(usize, usize); 9] = [
        (0, 1),
        (0, 1),
        (0, 1),
        (2, 3),
        (2, 3),
        (0, 2),
        (0, 2),
        (1, 1),
        (3, 0),
    ];
    const FAILS: [usize; 3] = [0, 1, 2];
    let mut trace = CaTrace::new();
    let mut threads: Vec<u32> = (0..EXCHANGER_THREADS).collect();
    let mut names = [0i64, 1, 2, 3];
    for w in 0..windows {
        // Distinct threads within a window, so `render_windowed` never has
        // to close one early.
        shuffle(&mut threads, rng);
        shuffle(&mut names, rng);
        let mut free = threads.iter().map(|&t| ThreadId(t));
        let mut take = || free.next().expect("a window uses at most 24 of 28 threads");
        let mut elements: Vec<CaElement> = Vec::with_capacity(EXCHANGER_WINDOW);
        for (a, b) in SWAPS {
            elements.push(swap_element(E, take(), names[a], take(), names[b]));
        }
        let planted = plant && w + 1 == windows;
        for &a in &FAILS[usize::from(planted)..] {
            elements.push(fail_element(E, take(), names[a]));
        }
        if planted {
            let op =
                |t, v, got| Operation::new(t, E, EXCHANGE, Value::Int(v), Value::Pair(true, got));
            elements.push(
                CaElement::pair(op(take(), 100, 101), op(take(), 102, 100))
                    .expect("two threads, one object"),
            );
        }
        shuffle(&mut elements, rng);
        for element in elements {
            trace.push(element);
        }
    }
    let history = cal_core::gen::render_windowed(&trace, EXCHANGER_WINDOW);
    Built {
        history,
        linearization: if plant { CaTrace::new() } else { trace },
    }
}

/// Fisher–Yates; the vendored rand has no `shuffle`.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn lines_are_what_the_library_formats() {
        let shape = KvShape {
            clients: 3,
            keys: 4,
            ops: 200,
            mean_burst: 8,
            eager: 0.5,
        };
        let built = kv_built(&shape, Some(150), &mut StdRng::seed_from_u64(5));
        for (wire, whole) in [
            (Wire::Native, cal_core::text::format_history(&built.history)),
            (
                Wire::Jepsen,
                cal_core::format::format_jepsen(&built.history),
            ),
        ] {
            let mut lines = Vec::new();
            for action in built.history.actions() {
                write_action(&mut lines, wire, action).unwrap();
            }
            assert_eq!(String::from_utf8(lines).unwrap(), whole);
        }
        let exchanger = exchanger_windows(2, true, &mut StdRng::seed_from_u64(5));
        let mut lines = Vec::new();
        for action in exchanger.history.actions() {
            write_action(&mut lines, Wire::Native, action).unwrap();
        }
        assert_eq!(
            String::from_utf8(lines).unwrap(),
            cal_core::text::format_history(&exchanger.history)
        );
    }
}
