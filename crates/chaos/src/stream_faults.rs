//! Stream-fault family for the online checker: seeded perturbations of a
//! wire-format event stream, modelling what a `cal-serve` deployment
//! actually sees — truncated feeds, admission-bounded reordering,
//! clients dying mid-stream, and garbage on the wire.
//!
//! The family is defined at the *transport* level (text lines plus the
//! `abandon` control event), not the [`cal_core::Action`] level, so a fault can
//! produce exactly the malformed input a real socket can: a half line
//! cut mid-token, a line that parses as nothing at all. [`replay`]
//! drives the perturbed stream through [`Ingest`], the
//! quarantine/backpressure/degradation policy `cal-serve` itself runs,
//! and the tests pin the family's soundness contract:
//!
//! - **Truncate** keeps a prefix of a consistent stream, so by prefix
//!   closure the verdict stays `consistent` or degrades to `undecided` —
//!   never a violation, never a panic.
//! - **Reorder** swaps only *adjacent, same-kind, different-thread*
//!   lines. Such swaps cannot move a response across a later invocation,
//!   so the precedence relation — and therefore the verdict — is
//!   unchanged.
//! - **ClientDeath** cuts one thread's events at a seeded point and
//!   declares it abandoned; its pending operation is sealed through the
//!   spec's completion machinery at the next retirement boundary.
//! - **Malformed** splices garbage lines into the stream; they are
//!   quarantined against the error budget and must not perturb the
//!   verdict while the budget holds.

use cal_core::format::Format;
use cal_core::spec::CaSpec;
use cal_core::stream::{Ingest, Reply, StreamOptions, StreamVerdict};
use cal_core::text::{format_history, parse_action_line};
use cal_core::{History, ThreadId};

use crate::faults::SplitMix64;

/// One seeded perturbation of an event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFault {
    /// Cut the stream at a seeded point, possibly mid-line.
    Truncate,
    /// Swap seeded pairs of adjacent same-kind lines by different
    /// threads (the reorderings admission cannot distinguish).
    Reorder,
    /// One seeded client's events stop at a seeded point; the thread is
    /// declared dead (`abandon`).
    ClientDeath,
    /// Garbage lines spliced in at seeded positions.
    Malformed,
}

impl StreamFault {
    /// Every member of the family.
    pub const ALL: [StreamFault; 4] =
        [StreamFault::Truncate, StreamFault::Reorder, StreamFault::ClientDeath, StreamFault::Malformed];

    /// Stable name, for reports.
    pub fn name(&self) -> &'static str {
        match self {
            StreamFault::Truncate => "truncate",
            StreamFault::Reorder => "reorder",
            StreamFault::ClientDeath => "client-death",
            StreamFault::Malformed => "malformed",
        }
    }
}

/// One step of a perturbed stream: a raw wire line, or the out-of-band
/// news that a client died.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// A line to feed as-is (may be garbage or a truncated half-line).
    Line(String),
    /// The client driving `thread` disconnected without responding.
    Abandon(ThreadId),
}

/// Renders `history` to wire-format lines and applies `fault` at points
/// drawn from `seed`. Pure: the same inputs produce the same stream.
pub fn perturb(fault: StreamFault, seed: u64, history: &History) -> Vec<StreamEvent> {
    let mut rng = SplitMix64::new(seed ^ 0x0057_EA4F_A117_u64);
    let lines: Vec<String> = format_history(history).lines().map(str::to_owned).collect();
    let mut out: Vec<StreamEvent> = Vec::with_capacity(lines.len() + 4);
    match fault {
        StreamFault::Truncate => {
            let cut = if lines.is_empty() { 0 } else { rng.index(lines.len() + 1) };
            out.extend(lines[..cut].iter().cloned().map(StreamEvent::Line));
            // Half the time the cut lands mid-line, as a dying pipe would.
            if cut < lines.len() && rng.chance(128) {
                let line = &lines[cut];
                let keep = rng.index(line.len().max(1));
                out.push(StreamEvent::Line(line[..keep].to_owned()));
            }
        }
        StreamFault::Reorder => {
            let mut lines = lines;
            let mut i = 0;
            while i + 1 < lines.len() {
                let (a, b) = (parse(&lines[i]), parse(&lines[i + 1]));
                if let (Some(a), Some(b)) = (a, b) {
                    if a.is_invoke() == b.is_invoke()
                        && a.thread() != b.thread()
                        && rng.chance(96)
                    {
                        lines.swap(i, i + 1);
                        i += 2; // keep swaps non-overlapping
                        continue;
                    }
                }
                i += 1;
            }
            out.extend(lines.into_iter().map(StreamEvent::Line));
        }
        StreamFault::ClientDeath => {
            let mut threads: Vec<ThreadId> = Vec::new();
            for line in &lines {
                if let Some(a) = parse(line) {
                    if !threads.contains(&a.thread()) {
                        threads.push(a.thread());
                    }
                }
            }
            if threads.is_empty() {
                return lines.into_iter().map(StreamEvent::Line).collect();
            }
            let victim = threads[rng.index(threads.len())];
            let victim_lines: Vec<usize> = lines
                .iter()
                .enumerate()
                .filter(|(_, l)| parse(l).is_some_and(|a| a.thread() == victim))
                .map(|(i, _)| i)
                .collect();
            let death = victim_lines[rng.index(victim_lines.len())];
            for (i, line) in lines.into_iter().enumerate() {
                if i == death {
                    out.push(StreamEvent::Abandon(victim));
                }
                if i < death || parse(&line).is_none_or(|a| a.thread() != victim) {
                    out.push(StreamEvent::Line(line));
                }
            }
        }
        StreamFault::Malformed => {
            const GARBAGE: [&str; 4] =
                ["?? not an action ??", "t9 flub", "inv res inv", "t1 inv o0."];
            let extra = 1 + rng.index(3);
            let mut splice: Vec<usize> =
                (0..extra).map(|_| rng.index(lines.len() + 1)).collect();
            splice.sort_unstable();
            let mut splice = splice.into_iter().peekable();
            for (i, line) in lines.into_iter().enumerate() {
                while splice.peek() == Some(&i) {
                    splice.next();
                    out.push(StreamEvent::Line(GARBAGE[rng.index(GARBAGE.len())].to_owned()));
                }
                out.push(StreamEvent::Line(line));
            }
            for _ in splice {
                out.push(StreamEvent::Line(GARBAGE[rng.index(GARBAGE.len())].to_owned()));
            }
        }
    }
    out
}

fn parse(line: &str) -> Option<cal_core::Action> {
    parse_action_line(1, line).ok().flatten()
}

/// Replays a perturbed stream through [`Ingest::line`] — the policy
/// `cal-serve` runs, not a copy of it: parse errors and ill-formed
/// events are quarantined (counted, not fatal), saturation forces a
/// checkpoint and one retry before explicit degradation, and a refused
/// stream stops the replay. Returns the closing verdict and the
/// quarantine count.
pub fn replay<S: CaSpec>(
    spec: S,
    opts: StreamOptions,
    events: &[StreamEvent],
) -> (StreamVerdict, u64) {
    let mut ingest = Ingest::new(spec, opts, Some(Format::Native));
    let mut invoked = Vec::new();
    for event in events {
        match event {
            StreamEvent::Abandon(t) => ingest.checker.abandon_thread(*t),
            StreamEvent::Line(line) => {
                if matches!(ingest.line(line, false, &mut invoked), Reply::Refused | Reply::Bye) {
                    break;
                }
            }
        }
    }
    (ingest.checker.finish(), ingest.quarantined())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_once, RunConfig, TargetKind};
    use cal_core::ObjectId;
    use cal_specs::exchanger::ExchangerSpec;

    /// A harvested healthy-exchanger history: consistent by construction.
    fn consistent_history(seed: u64) -> History {
        let cfg = RunConfig { seed, target: TargetKind::Exchanger, ..RunConfig::default() };
        run_once(&cfg).history
    }

    fn small_window() -> StreamOptions {
        StreamOptions { max_window: 16, checkpoint_every: 4, ..StreamOptions::default() }
    }

    /// Unperturbed replays of consistent histories stay consistent — the
    /// family's baseline.
    #[test]
    fn baseline_replay_is_consistent() {
        for seed in 0..8 {
            let h = consistent_history(seed);
            let events: Vec<StreamEvent> = cal_core::text::format_history(&h)
                .lines()
                .map(|l| StreamEvent::Line(l.to_owned()))
                .collect();
            let (verdict, quarantined) =
                replay(ExchangerSpec::new(ObjectId(0)), small_window(), &events);
            assert_eq!(verdict, StreamVerdict::Consistent, "seed {seed}");
            assert_eq!(quarantined, 0, "seed {seed}");
        }
    }

    /// Truncation of a consistent stream can only stay consistent or go
    /// undecided (prefix closure): never a violation, never a panic.
    #[test]
    fn truncation_never_fabricates_a_violation() {
        for seed in 0..24 {
            let h = consistent_history(seed);
            let events = perturb(StreamFault::Truncate, seed.wrapping_mul(31), &h);
            let (verdict, _) = replay(ExchangerSpec::new(ObjectId(0)), small_window(), &events);
            assert_ne!(verdict, StreamVerdict::Violation, "seed {seed}: {verdict}");
        }
    }

    /// Admission-bounded reordering preserves the precedence relation,
    /// so a consistent stream must stay exactly consistent.
    #[test]
    fn admission_bounded_reorder_preserves_the_verdict() {
        for seed in 0..24 {
            let h = consistent_history(seed);
            let events = perturb(StreamFault::Reorder, seed.wrapping_mul(37), &h);
            let (verdict, quarantined) =
                replay(ExchangerSpec::new(ObjectId(0)), small_window(), &events);
            assert_eq!(verdict, StreamVerdict::Consistent, "seed {seed}");
            assert_eq!(quarantined, 0, "seed {seed}: reorder must stay well-formed");
        }
    }

    /// A client dying mid-stream never panics the checker and always
    /// yields a contract verdict. (A violation is legitimate here: the
    /// replay is counterfactual — dropping a victim's later
    /// *invocations* can orphan a partner's recorded success, which no
    /// checker should explain.)
    #[test]
    fn client_death_never_panics() {
        for seed in 0..24 {
            let h = consistent_history(seed);
            let events = perturb(StreamFault::ClientDeath, seed.wrapping_mul(41), &h);
            let (first, _) = replay(ExchangerSpec::new(ObjectId(0)), small_window(), &events);
            let (again, _) = replay(ExchangerSpec::new(ObjectId(0)), small_window(), &events);
            assert_eq!(first, again, "seed {seed}: replay must be deterministic");
        }
    }

    /// The minimal realistic crash — the victim dies *between its final
    /// invocation and its response* — IS absorbed: the abandoned
    /// operation rides unsealed until the end, where the exchanger's
    /// completion machinery offers both the timeout failure and the
    /// partner-success pairing, so no violation can be fabricated.
    #[test]
    fn crash_before_final_response_is_absorbed() {
        for seed in 0..24 {
            let h = consistent_history(seed);
            let lines: Vec<String> =
                cal_core::text::format_history(&h).lines().map(str::to_owned).collect();
            // The victim's dropped response must be its final event, or
            // the remaining stream would be ill-formed (a dead client
            // cannot invoke again).
            let Some(last_res) = lines.iter().enumerate().rev().position(|(i, l)| {
                parse(l).is_some_and(|a| {
                    !a.is_invoke()
                        && lines[i + 1..]
                            .iter()
                            .all(|m| parse(m).is_none_or(|b| b.thread() != a.thread()))
                })
            }) else {
                continue;
            };
            let last_res = lines.len() - 1 - last_res;
            let victim = parse(&lines[last_res]).unwrap().thread();
            let mut events: Vec<StreamEvent> = lines
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != last_res)
                .map(|(_, l)| StreamEvent::Line(l.clone()))
                .collect();
            events.push(StreamEvent::Abandon(victim));
            // Default (ample) window: the abandoned op is never
            // force-sealed, so the final evaluation has exact batch
            // pending-op semantics.
            let (verdict, quarantined) =
                replay(ExchangerSpec::new(ObjectId(0)), StreamOptions::default(), &events);
            assert_ne!(verdict, StreamVerdict::Violation, "seed {seed}: {verdict}");
            assert_eq!(quarantined, 0, "seed {seed}");
        }
    }

    /// Garbage on the wire is quarantined and the surrounding stream is
    /// still judged on its own merits.
    #[test]
    fn malformed_lines_are_quarantined_and_harmless() {
        for seed in 0..24 {
            let h = consistent_history(seed);
            let events = perturb(StreamFault::Malformed, seed.wrapping_mul(43), &h);
            let (verdict, quarantined) =
                replay(ExchangerSpec::new(ObjectId(0)), small_window(), &events);
            assert_eq!(verdict, StreamVerdict::Consistent, "seed {seed}");
            assert!(quarantined >= 1, "seed {seed}: the splice must have been seen");
        }
    }

    /// The whole family is deterministic: same fault, seed and history,
    /// same perturbed stream.
    #[test]
    fn perturbations_replay_bit_for_bit() {
        let h = consistent_history(5);
        for fault in StreamFault::ALL {
            assert_eq!(perturb(fault, 99, &h), perturb(fault, 99, &h), "{}", fault.name());
        }
    }
}
