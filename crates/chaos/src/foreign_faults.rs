//! Foreign-trace fault family: seeded perturbations of a history
//! rendered as Jepsen-style records, modelling the distributed-system
//! failures a real trace collector records — a client crashing between
//! its invocation and its acknowledgement, and a network partition
//! swallowing a window of acknowledgements. The fault is applied at the
//! *observer's* level: a lost ack becomes an `:info` record (the
//! operation's outcome is unknown forever), and the crashed client comes
//! back under a fresh process id, exactly as a Jepsen harness would
//! report it.
//!
//! Soundness contract (pinned by the tests): a perturbation only ever
//! *removes* information — a completed operation becomes a pending one
//! whose original completion is still admissible — so perturbing a
//! consistent history can yield `consistent` or `undecided`, never a
//! fabricated violation, in both the batch parser and the streaming
//! decoder.

use std::collections::HashMap;

use cal_core::format::write_jepsen_record;
use cal_core::spec::CaSpec;
use cal_core::stream::{Ingest, Reply, StreamOptions, StreamVerdict};
use cal_core::{ActionKind, History, ThreadId, Value};

use crate::faults::SplitMix64;

/// One seeded distributed-system fault applied to a foreign trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForeignFault {
    /// One client crashes after invoking: its acknowledgement is lost
    /// (the record degrades to `:info`) and the client restarts under a
    /// fresh process id.
    CrashRestart,
    /// A seeded window of the trace partitions a seeded subset of
    /// clients from the observer: each affected client's first
    /// acknowledgement inside the window is lost, and the client rejoins
    /// under a fresh process id.
    Partition,
}

impl ForeignFault {
    /// Every member of the family.
    pub const ALL: [ForeignFault; 2] = [ForeignFault::CrashRestart, ForeignFault::Partition];

    /// Stable name, for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ForeignFault::CrashRestart => "crash-restart",
            ForeignFault::Partition => "partition",
        }
    }
}

/// Renders `history` as Jepsen-style records with `fault` applied at
/// points drawn from `seed`. Pure: the same inputs produce the same
/// trace. The result always parses under
/// [`cal_core::format::Format::Jepsen`].
pub fn perturb_foreign(fault: ForeignFault, seed: u64, history: &History) -> String {
    let mut rng = SplitMix64::new(seed ^ 0x0F0E_1637_FA17_u64);
    let actions = history.actions();
    // Indices whose response degrades to an `:info` record — at most one
    // per thread, so every retired process stays retired.
    let mut cuts: Vec<usize> = Vec::new();
    match fault {
        ForeignFault::CrashRestart => {
            let responses: Vec<usize> =
                (0..actions.len()).filter(|&i| actions[i].is_response()).collect();
            if !responses.is_empty() {
                cuts.push(responses[rng.index(responses.len())]);
            }
        }
        ForeignFault::Partition => {
            if !actions.is_empty() {
                let lo = rng.index(actions.len());
                let hi = lo + 1 + rng.index(actions.len() - lo);
                let mut threads: Vec<ThreadId> = Vec::new();
                for a in actions {
                    if !threads.contains(&a.thread()) {
                        threads.push(a.thread());
                    }
                }
                for t in threads.into_iter().filter(|_| rng.chance(128)) {
                    if let Some(i) =
                        (lo..hi).find(|&i| actions[i].is_response() && actions[i].thread() == t)
                    {
                        cuts.push(i);
                    }
                }
            }
        }
    }
    render_with_cuts(history, &cuts)
}

/// Renders the history as one Jepsen record per action, degrading the
/// responses at `cuts` to `:info` and moving the affected thread's later
/// actions onto a fresh process id (the restarted client).
fn render_with_cuts(history: &History, cuts: &[usize]) -> String {
    let actions = history.actions();
    let mut fresh = actions.iter().map(|a| a.thread().0).max().map_or(0, |m| m + 1);
    // The wire process id currently carrying each original thread.
    let mut process: HashMap<ThreadId, u32> = HashMap::new();
    let mut out = String::new();
    for (i, a) in actions.iter().enumerate() {
        let p = *process.entry(a.thread()).or_insert(a.thread().0);
        if cuts.contains(&i) {
            // The ack never reached the observer: outcome unknown, the
            // process is retired, the client restarts fresh.
            write_jepsen_record(&mut out, p, "info", a, Value::Unit);
            out.push_str(&format!("; process {p} crashed; client restarts as {fresh}\n"));
            process.insert(a.thread(), fresh);
            fresh += 1;
        } else {
            match a.kind() {
                ActionKind::Invoke(arg) => write_jepsen_record(&mut out, p, "invoke", a, arg),
                ActionKind::Response(ret) => write_jepsen_record(&mut out, p, "ok", a, ret),
            }
        }
    }
    out
}

/// Replays a foreign wire text through [`Ingest::line`] — the policy
/// `cal-serve` runs on a sniffed stream, not a copy of it: malformed
/// lines are quarantined (counted, not fatal), an abandoned thread is
/// sealed through the specification's timeout-admission completions,
/// and saturation forces a checkpoint and one retry before explicit
/// degradation. Returns the closing verdict and the quarantine count.
pub fn replay_foreign<S: CaSpec>(
    spec: S,
    opts: StreamOptions,
    input: &str,
) -> (StreamVerdict, u64) {
    let mut ingest = Ingest::new(spec, opts, None);
    let mut invoked = Vec::new();
    for line in input.lines() {
        if matches!(ingest.line(line, false, &mut invoked), Reply::Refused | Reply::Bye) {
            break;
        }
    }
    (ingest.checker.finish(), ingest.quarantined())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cal_core::check::{check_cal, is_cal};
    use cal_core::format::{parse_as, Format};
    use cal_core::spec::SeqAsCa;
    use cal_core::{Action, ObjectId};
    use cal_specs::kv::KvMapSpec;
    use cal_specs::vocab::{READ, WRITE};

    /// A sequential (hence consistent) multi-thread kv history: every
    /// read observes the value the map actually held.
    fn consistent_kv_history(seed: u64) -> History {
        let mut rng = SplitMix64::new(seed);
        let mut state: HashMap<u32, i64> = HashMap::new();
        let mut actions = Vec::new();
        for _ in 0..24 {
            let t = ThreadId(rng.index(3) as u32);
            let k = rng.index(2) as u32;
            let key = ObjectId(k);
            if rng.chance(128) {
                let v = rng.index(5) as i64;
                actions.push(Action::invoke(t, key, WRITE, Value::Int(v)));
                actions.push(Action::response(t, key, WRITE, Value::Unit));
                state.insert(k, v);
            } else {
                let v = state.get(&k).copied().unwrap_or(0);
                actions.push(Action::invoke(t, key, READ, Value::Unit));
                actions.push(Action::response(t, key, READ, Value::Int(v)));
            }
        }
        History::from_actions(actions)
    }

    /// Same fault, seed and history — same perturbed trace, byte for
    /// byte.
    #[test]
    fn perturbations_are_deterministic() {
        let h = consistent_kv_history(5);
        for fault in ForeignFault::ALL {
            assert_eq!(
                perturb_foreign(fault, 99, &h),
                perturb_foreign(fault, 99, &h),
                "{}",
                fault.name()
            );
        }
    }

    /// A crash-restart of a consistent history always parses, always
    /// carries the `:info` record, and never fabricates a violation in
    /// the batch checkers: the lost ack's original completion is still
    /// admissible.
    #[test]
    fn crash_restart_is_sound_in_batch() {
        for seed in 0..24u64 {
            let h = consistent_kv_history(seed);
            let wire = perturb_foreign(ForeignFault::CrashRestart, seed.wrapping_mul(31), &h);
            assert!(wire.contains(":info"), "seed {seed}: no crash recorded:\n{wire}");
            let parsed = parse_as(Format::Jepsen, &wire)
                .unwrap_or_else(|e| panic!("seed {seed}: perturbed trace must parse: {e}"));
            assert!(
                check_cal(&parsed, &SeqAsCa::new(KvMapSpec::new())).unwrap().verdict.is_cal(),
                "seed {seed}"
            );
        }
    }

    /// The restarted client is visible: for histories where the victim
    /// keeps operating past the crash, a fresh process id appears.
    #[test]
    fn crash_restart_reassigns_the_process_id() {
        let restarted = (0..24u64).any(|seed| {
            let h = consistent_kv_history(seed);
            let wire = perturb_foreign(ForeignFault::CrashRestart, seed.wrapping_mul(31), &h);
            // Threads are 0..3, so any process ≥ 3 is a restart.
            wire.lines().any(|l| l.contains(":process 3") || l.contains(":process 4"))
        });
        assert!(restarted, "no seed in 0..24 exercised the restart path");
    }

    /// A partition of a consistent history parses and never fabricates a
    /// violation in the batch checkers.
    #[test]
    fn partition_is_sound_in_batch() {
        for seed in 0..24u64 {
            let h = consistent_kv_history(seed);
            let wire = perturb_foreign(ForeignFault::Partition, seed.wrapping_mul(37), &h);
            let parsed = parse_as(Format::Jepsen, &wire)
                .unwrap_or_else(|e| panic!("seed {seed}: perturbed trace must parse: {e}"));
            assert!(is_cal(&parsed, &SeqAsCa::new(KvMapSpec::new())).unwrap(), "seed {seed}");
        }
    }

    /// The streaming path agrees: decoding the perturbed trace through
    /// [`StreamDecoder`] (where `:info` becomes an abandon) and replaying
    /// it against the kv spec never yields a violation and never
    /// quarantines a line.
    #[test]
    fn stream_replay_never_fabricates_a_violation() {
        for fault in ForeignFault::ALL {
            for seed in 0..24u64 {
                let h = consistent_kv_history(seed);
                let wire = perturb_foreign(fault, seed.wrapping_mul(41), &h);
                let (verdict, quarantined) = replay_foreign(
                    SeqAsCa::new(KvMapSpec::new()),
                    StreamOptions::default(),
                    &wire,
                );
                assert_ne!(
                    verdict,
                    StreamVerdict::Violation,
                    "{} seed {seed}:\n{wire}",
                    fault.name()
                );
                assert_eq!(quarantined, 0, "{} seed {seed}", fault.name());
            }
        }
    }
}
