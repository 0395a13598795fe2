//! Weak-memory-plausible partial-order emission: relax a recorded
//! history's real-time order into a happens-before order a weak-memory
//! multicore could actually have produced.
//!
//! A recorded [`History`] is totally ordered by the recorder's clock, but
//! on a weak-memory machine that order over-constrains what the threads
//! themselves observed: a store sitting in a core's store buffer may
//! *complete* (in real time) long before it becomes visible to other
//! cores, and out-of-order execution can detach cross-thread visibility
//! from wall-clock precedence entirely. This module emits a seeded,
//! deterministic *sub-order* of the real-time order under two profiles:
//!
//! - [`WeakMemProfile::StoreBuffering`] — TSO-style: cross-thread edges
//!   whose source is a payload-carrying operation (a store, push, put,
//!   offer — anything whose invocation carries a non-unit argument) are
//!   mostly dropped; edges sourced at read-like operations survive.
//!   This is the store-buffering litmus shape: my completed write need
//!   not have been visible to your later read.
//! - [`WeakMemProfile::Reordering`] — a more aggressive out-of-order
//!   model: every cross-thread edge is dropped by a seeded coin,
//!   whatever its source.
//!
//! Per-thread *session order* is never relaxed — both profiles emit
//! orders that contain it, as every causal order must
//! ([`HbRelation::causal`] adds it back unconditionally).
//!
//! **Soundness contract** (pinned by the tests here and in the chaos
//! causal fault family): the emitted edges are always a subset of
//! real-time precedence, so the resulting happens-before relation is a
//! sub-order of `≺H`. Relaxation only ever *removes* ordering
//! constraints, hence a history accepted under the real-time order is
//! still accepted under the relaxed order — the emitter can weaken a
//! verdict from reject to accept (that is the point: the reordering
//! explains the anomaly) but can never fabricate a violation.

use cal_core::history::{HbRelation, Span};
use cal_core::{History, Value};

/// Which weak-memory model shapes the relaxation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeakMemProfile {
    /// TSO-style store buffering: writes become visible late; cross-thread
    /// edges sourced at payload-carrying operations are mostly dropped.
    StoreBuffering,
    /// General out-of-order visibility: every cross-thread edge is
    /// dropped by a seeded coin.
    Reordering,
}

impl WeakMemProfile {
    /// Every profile, in CLI order.
    pub const ALL: [WeakMemProfile; 2] =
        [WeakMemProfile::StoreBuffering, WeakMemProfile::Reordering];

    /// Stable name, for reports and CLIs.
    pub fn name(&self) -> &'static str {
        match self {
            WeakMemProfile::StoreBuffering => "store-buffering",
            WeakMemProfile::Reordering => "reordering",
        }
    }

    /// Parses a CLI profile name.
    pub fn parse(s: &str) -> Option<Self> {
        WeakMemProfile::ALL.into_iter().find(|p| p.name() == s)
    }
}

impl std::fmt::Display for WeakMemProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// SplitMix64 finalizer over (seed, edge): one independent coin per edge,
/// so the decision for edge (i, j) never depends on iteration order.
fn coin(seed: u64, i: usize, j: usize) -> u64 {
    let mut z = seed
        ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (j as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A "store-like" operation for the store-buffering profile: its
/// invocation carries a payload. This deliberately spans vocabularies —
/// `write`, `put`, `push`, `exchange(v)` all carry non-unit arguments,
/// while `read`, `get`, `pop`, `take` do not.
fn is_store(history: &History, span: &Span) -> bool {
    history.actions()[span.inv].arg().is_some_and(|v| v != Value::Unit)
}

/// Emits the surviving cross-thread real-time edges of `history` under
/// `profile`, seeded by `seed`, as `(from, to)` span-index pairs suitable
/// for [`HbRelation::causal`] and the kvlog `hb` annotation
/// (`cal_core::format::format_kvlog_annotated`).
///
/// Only the *transitive reduction* of the cross-thread real-time order is
/// considered (an edge bridged by a third operation adds nothing), and
/// same-thread pairs are skipped entirely — session order is implicit.
/// The result is deterministic in `(history, profile, seed)` and always a
/// subset of real-time precedence.
pub fn relax(history: &History, profile: WeakMemProfile, seed: u64) -> Vec<(usize, usize)> {
    let spans = history.spans();
    let n = spans.len();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i == j
                || spans[i].thread == spans[j].thread
                || !History::spans_precede(&spans[i], &spans[j])
            {
                continue;
            }
            // Transitive reduction: a bridged edge carries no information.
            let bridged = (0..n).any(|k| {
                k != i
                    && k != j
                    && History::spans_precede(&spans[i], &spans[k])
                    && History::spans_precede(&spans[k], &spans[j])
            });
            if bridged {
                continue;
            }
            let r = coin(seed, i, j);
            let drop = match profile {
                // A store's completion says nothing about its visibility:
                // drop 3 in 4 store-sourced edges. Read-sourced edges
                // survive (a load's value was already globally visible).
                WeakMemProfile::StoreBuffering => is_store(history, &spans[i]) && !r.is_multiple_of(4),
                // Out-of-order visibility detaches everything: even coin.
                WeakMemProfile::Reordering => !r.is_multiple_of(2),
            };
            if !drop {
                edges.push((i, j));
            }
        }
    }
    edges
}

/// Like [`relax`], but folds the surviving edges into the happens-before
/// relation itself (session order ∪ kept edges, transitively closed).
///
/// The emitted edges are real-time edges, so together with session order
/// they can never form a cycle — the relation always builds.
pub fn relaxed_order(history: &History, profile: WeakMemProfile, seed: u64) -> HbRelation {
    let spans = history.spans();
    HbRelation::causal(&spans, &relax(history, profile, seed))
        .expect("a sub-order of real time is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::exchanger::ExchangerModel;
    use crate::sched::{Explorer, Workload};
    use crate::OpRequest;
    use cal_core::causal::is_causal;
    use cal_core::check::is_cal;
    use cal_core::ObjectId;
    use cal_specs::exchanger::ExchangerSpec;
    use cal_specs::vocab::EXCHANGE;

    const X: ObjectId = ObjectId(0);

    fn executions(threads: usize) -> Vec<History> {
        let model = ExchangerModel::new(X);
        let ops = (0..threads)
            .map(|t| vec![OpRequest::new(EXCHANGE, Value::Int(t as i64))])
            .collect();
        let mut out = Vec::new();
        Explorer::new(&model, Workload::new(ops)).run(|e| out.push(e.history.clone()));
        out
    }

    #[test]
    fn profiles_round_trip_their_names() {
        for p in WeakMemProfile::ALL {
            assert_eq!(WeakMemProfile::parse(p.name()), Some(p));
        }
        assert_eq!(WeakMemProfile::parse("tso"), None);
    }

    #[test]
    fn relaxation_is_deterministic() {
        for h in executions(3) {
            for p in WeakMemProfile::ALL {
                assert_eq!(relax(&h, p, 7), relax(&h, p, 7), "{p} on {h}");
            }
        }
    }

    /// The pinned contract: the relaxed order is a sub-order of real
    /// time — every pair it orders, real time orders the same way.
    #[test]
    fn relaxed_order_is_a_sub_order_of_real_time() {
        for h in executions(3) {
            let spans = h.spans();
            let real = HbRelation::real_time(&spans);
            for p in WeakMemProfile::ALL {
                for seed in 0..8 {
                    let hb = relaxed_order(&h, p, seed);
                    for i in 0..hb.len() {
                        for j in 0..hb.len() {
                            assert!(
                                !hb.precedes(i, j) || real.precedes(i, j),
                                "{p} seed {seed}: ({i}, {j}) ordered beyond real time in {h}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Session order survives every profile: same-thread operations stay
    /// ordered however aggressive the relaxation.
    #[test]
    fn session_order_is_never_relaxed() {
        for h in executions(2) {
            let spans = h.spans();
            for p in WeakMemProfile::ALL {
                let hb = relaxed_order(&h, p, 3);
                for i in 0..spans.len() {
                    for j in 0..spans.len() {
                        if i != j
                            && spans[i].thread == spans[j].thread
                            && History::spans_precede(&spans[i], &spans[j])
                        {
                            assert!(hb.precedes(i, j), "{p}: session edge ({i}, {j}) lost");
                        }
                    }
                }
            }
        }
    }

    /// Monotone acceptance: a history the CAL checker accepts stays
    /// accepted under any relaxed order — relaxation removes constraints,
    /// it never fabricates a violation.
    #[test]
    fn relaxation_never_fabricates_a_violation() {
        let spec = ExchangerSpec::new(X);
        let mut checked = 0;
        for h in executions(3) {
            if !is_cal(&h, &spec).unwrap() {
                continue;
            }
            for p in WeakMemProfile::ALL {
                for seed in 0..4 {
                    let hb = relaxed_order(&h, p, seed);
                    assert!(
                        is_causal(&h, &spec, &hb).unwrap(),
                        "{p} seed {seed}: relaxation broke an accepted history:\n{h}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "no accepted execution was exercised");
    }
}
