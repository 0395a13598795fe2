//! Acceptance: the streaming checker replays a million-event generated
//! trace in bounded memory. The bound is verified through the retirement
//! counters — `retired_actions + window == events` with `peak_window`
//! pinned at the configured cap — not wall-clock or RSS sampling, so the
//! test is deterministic on any machine.

use cal::core::spec::SeqAsCa;
use cal::core::stream::{Push, StreamChecker, StreamOptions, StreamVerdict};
use cal::core::{Action, Method, ObjectId, ThreadId, Value};
use cal::specs::exchanger::ExchangerSpec;
use cal::specs::register::RegisterSpec;

const OBJ: ObjectId = ObjectId(0);

/// One million events of a sequential register client: every operation
/// closes a retirement boundary, so the steady-state window is O(1)
/// regardless of history length. 500k ops = 1M actions.
#[test]
fn million_event_sequential_replay_stays_bounded() {
    let opts = StreamOptions {
        max_window: 64,
        checkpoint_every: 256,
        ..StreamOptions::default()
    };
    let mut c = StreamChecker::new(SeqAsCa::new(RegisterSpec::new(OBJ)), opts);
    let t = ThreadId(0);
    let ops = 500_000u64;
    for i in 0..ops {
        let v = (i % 10) as i64;
        let (m, arg, ret) = if i % 2 == 0 {
            (Method("write"), Value::Int(v), Value::Unit)
        } else {
            // Reads observe the value just written (i-1 wrote (i-1)%10).
            (Method("read"), Value::Unit, Value::Int(((i - 1) % 10) as i64))
        };
        assert_eq!(c.push(Action::invoke(t, OBJ, m, arg)), Push::Admitted);
        assert_eq!(c.push(Action::response(t, OBJ, m, ret)), Push::Admitted);
    }
    assert_eq!(c.finish(), StreamVerdict::Consistent);
    let s = c.stats();
    assert_eq!(s.events, 2 * ops);
    // The memory bound, in counters: everything the stream ever admitted
    // is either retired or still inside the (bounded) window.
    assert_eq!(s.retired_actions + s.window as u64, s.events);
    assert_eq!(s.retired_ops, ops);
    assert!(
        s.peak_window <= 2 * 64,
        "peak window {} exceeds the configured bound",
        s.peak_window
    );
    // A sequential stream never needs more than one reachable state.
    assert_eq!(s.peak_states, 1);
    // Retirement ran continuously, not in one giant deferred batch.
    assert!(s.retired_segments >= ops / 64, "only {} segments retired", s.retired_segments);
}

/// A long concurrent stream — overlapping exchange pairs — retires
/// through the real search path (segments are genuinely concurrent), and
/// the window still never outgrows the cap.
#[test]
fn concurrent_exchange_replay_stays_bounded() {
    let opts = StreamOptions {
        max_window: 32,
        checkpoint_every: 128,
        ..StreamOptions::default()
    };
    let mut c = StreamChecker::new(ExchangerSpec::new(OBJ), opts);
    let ex = Method("exchange");
    let pairs = 25_000u64;
    for i in 0..pairs {
        let (a, b) = (ThreadId(0), ThreadId(1));
        let (va, vb) = ((i % 100) as i64, ((i + 1) % 100) as i64);
        assert_eq!(c.push(Action::invoke(a, OBJ, ex, Value::Int(va))), Push::Admitted);
        assert_eq!(c.push(Action::invoke(b, OBJ, ex, Value::Int(vb))), Push::Admitted);
        assert_eq!(c.push(Action::response(a, OBJ, ex, Value::Pair(true, vb))), Push::Admitted);
        assert_eq!(c.push(Action::response(b, OBJ, ex, Value::Pair(true, va))), Push::Admitted);
    }
    assert_eq!(c.finish(), StreamVerdict::Consistent);
    let s = c.stats();
    assert_eq!(s.events, 4 * pairs);
    assert_eq!(s.retired_actions + s.window as u64, s.events);
    assert_eq!(s.retired_ops, 2 * pairs);
    assert!(s.peak_window <= 2 * 32, "peak window {}", s.peak_window);
    assert_eq!(s.peak_states, 1, "the exchanger is stateless across elements");
    assert_eq!(s.saturated, 0, "retirement kept up; backpressure never fired");
}

/// Saturation + degradation under a window too small for the workload:
/// the checker answers `undecided: window exceeded` instead of growing —
/// and the counters still reconcile.
#[test]
fn overflowing_replay_degrades_instead_of_growing() {
    let opts = StreamOptions { max_window: 4, checkpoint_every: 0, ..StreamOptions::default() };
    let mut c = StreamChecker::new(ExchangerSpec::new(OBJ), opts);
    let ex = Method("exchange");
    // Open invocations on distinct threads, never responding: nothing
    // can retire, so the cap must bite at the fifth invocation.
    let mut saturated_at = None;
    for i in 0..16u32 {
        match c.push(Action::invoke(ThreadId(i), OBJ, ex, Value::Int(i as i64))) {
            Push::Admitted => {}
            Push::Saturated => {
                saturated_at = Some(i);
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(saturated_at, Some(4), "cap counts open invocations");
    c.degrade();
    assert_eq!(
        c.finish().to_string(),
        "undecided: window exceeded",
        "degradation must be the explicit documented verdict"
    );
    let s = c.stats();
    assert_eq!(s.events, 4);
    assert_eq!(s.peak_window, 4);
}

/// A causal stream whose write is declared to follow a read that has not
/// arrived yet: the cut after the write is closed in time but not in
/// happens-before, so nothing retires until the read comes, and the read
/// of 0 is then explained by being ordered first.
#[test]
fn a_declared_edge_from_a_future_read_holds_back_the_write() {
    let opts = StreamOptions { causal: true, checkpoint_every: 0, ..StreamOptions::default() };
    let mut c = StreamChecker::new(SeqAsCa::new(RegisterSpec::new(OBJ)), opts);
    let (t0, t1) = (ThreadId(0), ThreadId(1));
    let (read, write) = (Method("read"), Method("write"));
    assert_eq!(c.push(Action::invoke(t0, OBJ, write, Value::Int(1))), Push::Admitted);
    assert_eq!(c.push(Action::response(t0, OBJ, write, Value::Unit)), Push::Admitted);
    assert_eq!(c.push_hb_edge(1, 0), Push::Admitted);
    assert_eq!(c.checkpoint(), StreamVerdict::Consistent);
    assert_eq!(c.stats().retired_ops, 0, "the edge from op 1 blocks the cut after op 0");
    assert_eq!(c.push(Action::invoke(t1, OBJ, read, Value::Unit)), Push::Admitted);
    assert_eq!(c.push(Action::response(t1, OBJ, read, Value::Int(0))), Push::Admitted);
    assert_eq!(c.finish(), StreamVerdict::Consistent);
}

/// A causal stream whose reader sees a value that a seen writer has not
/// written yet: a write of 2 on one thread, then a read of 1 on another.
/// A checkpoint finds no witness, but under a partial order the writer's
/// next operation need not follow the read, and a write of 1 explains
/// it — no edge is declared at all. So the checkpoint answers undecided
/// and latches nothing, the write is admitted, and the stream ends with
/// the batch's verdict: consistent.
#[test]
fn a_seen_writers_next_write_can_explain_a_causal_read() {
    let opts = StreamOptions { causal: true, checkpoint_every: 0, ..StreamOptions::default() };
    let mut c = StreamChecker::new(SeqAsCa::new(RegisterSpec::new(OBJ)), opts);
    let (t0, t1) = (ThreadId(0), ThreadId(1));
    let (read, write) = (Method("read"), Method("write"));
    assert_eq!(c.push(Action::invoke(t1, OBJ, write, Value::Int(2))), Push::Admitted);
    assert_eq!(c.push(Action::response(t1, OBJ, write, Value::Unit)), Push::Admitted);
    assert_eq!(c.push(Action::invoke(t0, OBJ, read, Value::Unit)), Push::Admitted);
    assert_eq!(c.push(Action::response(t0, OBJ, read, Value::Int(1))), Push::Admitted);
    let verdict = c.checkpoint();
    assert!(matches!(verdict, StreamVerdict::Undecided(_)), "{verdict}");
    assert_eq!(c.stats().retired_ops, 0);
    assert_eq!(c.push(Action::invoke(t1, OBJ, write, Value::Int(1))), Push::Admitted);
    assert_eq!(c.push(Action::response(t1, OBJ, write, Value::Unit)), Push::Admitted);
    assert_eq!(c.finish(), StreamVerdict::Consistent);
}
