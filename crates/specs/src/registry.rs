//! The front door: the one place a name becomes a specification.
//!
//! A specification is a set of CA-traces, and the classical notions are
//! fragments of that (sequential specs are its singleton-element
//! fragment, Defs. 4–6), so "which spec, read how, under which order,
//! called what" is one decision. This module makes it once: [`BUILTINS`]
//! is the table of names, [`Selected::resolve`] turns a command line's
//! `--spec FILE` and name into one spec, [`Selected::visit`] hands it —
//! lifted as the [`CheckMode`] asks — to a [`Visitor`], and
//! [`run_ca`] picks the order; the CAL check chooses each object's
//! procedure by the spec's shape. There is one search: classical
//! linearizability is CAL's singleton fragment, so `seq` reads a
//! sequential spec exactly as `cal` does, and [`run_interval`] is
//! [`run_ca`] over a history whose operations are split into open and
//! close halves.
//! `cal-check`, `cal-serve`, `chaos-soak` and the chaos driver all go
//! through here; none of them names a spec type.
//!
//! The visitor's methods are generic, not `dyn`: each call site is
//! compiled per spec type, so the search below it is monomorphised
//! exactly as if the binary had matched on the name itself. Only the
//! choice is dynamic.

use std::sync::Arc;

use cal_core::causal::check_causal_with;
use cal_core::check::{check_cal_with, CheckError, CheckOptions, CheckOutcome};
use cal_core::dsl::{self, SpecDef, SpecFile};
use cal_core::history::HbRelation;
use cal_core::interval::{IntervalAsCa, IntervalSpec, IntervalWitness, SeqAsInterval};
use cal_core::spec::{CaSpec, SeqAsCa, SeqSpec};
use cal_core::{History, ObjectId};

use crate::dual_stack::DualStackSpec;
use crate::elim_array::ElimArraySpec;
use crate::exchanger::ExchangerSpec;
use crate::kv::KvMapSpec;
use crate::register::{CounterSpec, RegisterSpec};
use crate::snapshot::WriteSnapshotSpec;
use crate::stack::StackSpec;
use crate::sync_queue::SyncQueueSpec;

/// What a specification natively is; decides which [`CheckMode`]s can
/// read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A set of CA-traces with genuinely concurrent elements.
    Ca,
    /// A sequential specification: liftable into every mode.
    Seq,
    /// An interval-sequential specification.
    Interval,
}

/// Which property is checked (`cal-check --mode`). Every mode is the CAL
/// search: `Seq` is `Cal` gated to sequential specs, `Interval` is `Cal`
/// over split operations, `Causal` is `Cal` under a happens-before order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// Concurrency-aware linearizability.
    Cal,
    /// Classical linearizability: CAL's singleton-element fragment, so the
    /// same search as `Cal` on a sequential spec, and no reading of a
    /// concurrency-aware one.
    Seq,
    /// Interval-linearizability: CAL over the history with every operation
    /// split into an open and a close half.
    Interval,
    /// CAL membership under a happens-before partial order.
    Causal,
}

impl CheckMode {
    /// Every mode with its command-line spelling.
    pub const ALL: [(&'static str, CheckMode); 4] = [
        ("cal", CheckMode::Cal),
        ("seq", CheckMode::Seq),
        ("interval", CheckMode::Interval),
        ("causal", CheckMode::Causal),
    ];

    /// Parses a `--mode` value.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.iter().find(|(name, _)| *name == s).map(|(_, mode)| *mode)
    }
}

impl Kind {
    /// Sequential specs check in every mode, concurrency-aware ones where
    /// elements may hold several operations, interval ones natively only.
    pub fn supports(self, mode: CheckMode) -> bool {
        match self {
            Kind::Ca => matches!(mode, CheckMode::Cal | CheckMode::Causal),
            Kind::Seq => true,
            Kind::Interval => mode == CheckMode::Interval,
        }
    }
}

// Built-in spec names. Every other module refers to a built-in through
// these, never through a string literal of its own (CI greps for one).

/// The wait-free exchanger of §4: swap pairs and singleton failures.
pub const EXCHANGER: &str = "exchanger";
/// The elimination array, exposing the exchanger surface (§5).
pub const ELIM_ARRAY: &str = "elim-array";
/// The exchanger-based synchronous queue: put/take hand-off pairs.
pub const SYNC_QUEUE: &str = "sync-queue";
/// The Scherer–Scott dual stack, with timed-out reservations.
pub const DUAL_STACK: &str = "dual-stack";
/// A total sequential stack.
pub const STACK: &str = "stack";
/// A sequential stack whose operations may fail under contention (Fig. 2).
pub const FAILING_STACK: &str = "failing-stack";
/// A single integer register.
pub const REGISTER: &str = "register";
/// A fetch-and-increment counter.
pub const COUNTER: &str = "counter";
/// A map of independent per-key integer registers, for imported traces.
pub const KV: &str = "kv";
/// The write-snapshot task, the interval-sequential example.
pub const WRITE_SNAPSHOT: &str = "write-snapshot";

/// The built-in specifications, in the order help texts and docs list
/// them. A name is served exactly when it has a row here (and an arm in
/// [`Selected::visit`], which the unit tests walk row by row).
pub const BUILTINS: [(&str, Kind); 10] = [
    (EXCHANGER, Kind::Ca),
    (ELIM_ARRAY, Kind::Ca),
    (SYNC_QUEUE, Kind::Ca),
    (DUAL_STACK, Kind::Ca),
    (STACK, Kind::Seq),
    (FAILING_STACK, Kind::Seq),
    (REGISTER, Kind::Seq),
    (COUNTER, Kind::Seq),
    (KV, Kind::Seq),
    (WRITE_SNAPSHOT, Kind::Interval),
];

/// The built-in names checkable under `mode`, `|`-separated in table
/// order — the SPEC line of each binary's `--help`.
pub fn builtin_names(mode: Option<CheckMode>) -> String {
    let served = BUILTINS.iter().filter(|(_, kind)| mode.is_none_or(|m| kind.supports(m)));
    served.map(|(name, _)| *name).collect::<Vec<_>>().join(" | ")
}

/// Reads and compiles a `.cal` file (`--spec`).
///
/// # Errors
///
/// The message to print — unreadable file or the compile diagnostic with
/// its code and position. Front ends exit 3 on it, before any input.
pub fn load(path: &str) -> Result<SpecFile, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    dsl::parse_str(&src).map_err(|diag| format!("{path}: {diag}"))
}

/// The specification an invocation checks against.
#[derive(Debug, Clone)]
pub enum Selected {
    /// A row of [`BUILTINS`].
    Builtin(&'static str, Kind),
    /// A spec compiled from a `--spec` file.
    Loaded(Arc<SpecDef>),
}

impl Selected {
    /// The built-in called `name`, if there is one.
    pub fn builtin(name: &str) -> Option<Selected> {
        BUILTINS.iter().find(|(n, _)| *n == name).map(|(n, kind)| Selected::Builtin(n, *kind))
    }

    /// The one rule for `--spec FILE` plus a name: a loaded name shadows
    /// the built-in of that name, a name the file lacks falls back to the
    /// built-ins, a file defining exactly one spec needs no name, and the
    /// spec must have a reading under `mode`.
    ///
    /// # Errors
    ///
    /// The message for a command line that does not select exactly one
    /// checkable spec; front ends treat it as a usage error (exit 4).
    pub fn resolve(
        file: Option<&SpecFile>,
        name: Option<&str>,
        mode: CheckMode,
    ) -> Result<Selected, String> {
        let selected = match (file, name) {
            (_, Some(name)) => file
                .and_then(|f| f.get(name))
                .map(|def| Selected::Loaded(Arc::clone(def)))
                .or_else(|| Selected::builtin(name))
                .ok_or_else(|| format!("unknown spec {name:?}"))?,
            (Some(file), None) => match file.specs() {
                [only] => Selected::Loaded(Arc::clone(only)),
                many => {
                    let names = file.names().join(", ");
                    return Err(format!(
                        "the --spec file defines {} specs ({names}); name one",
                        many.len()
                    ));
                }
            },
            (None, None) => return Err("no spec named".to_string()),
        };
        if !selected.kind().supports(mode) {
            return Err(format!("spec {:?} is not checkable under {mode:?}", selected.name()));
        }
        Ok(selected)
    }

    /// The spec's name.
    pub fn name(&self) -> &str {
        match self {
            Selected::Builtin(name, _) => name,
            Selected::Loaded(def) => def.name(),
        }
    }

    /// What the spec natively is.
    pub fn kind(&self) -> Kind {
        match self {
            Selected::Builtin(_, kind) => *kind,
            Selected::Loaded(def) if def.is_sequential() => Kind::Seq,
            Selected::Loaded(_) => Kind::Ca,
        }
    }

    /// The property a verdict under `mode` is about (`<adjective>: yes`).
    /// A sequential spec lifted to singleton elements is checked for
    /// classical linearizability, so it keeps that name under `cal`.
    pub fn adjective(&self, mode: CheckMode) -> &'static str {
        match (mode, self.kind()) {
            (CheckMode::Interval, _) => "interval-linearizable",
            (CheckMode::Seq, _) | (CheckMode::Cal, Kind::Seq) => "linearizable",
            (CheckMode::Cal, _) => "concurrency-aware linearizable",
            (CheckMode::Causal, Kind::Seq) => "causally linearizable",
            (CheckMode::Causal, _) => "causally concurrency-aware linearizable",
        }
    }

    /// Instantiates the spec on `object` and hands it to `visitor` in the
    /// reading `mode` asks for.
    ///
    /// # Panics
    ///
    /// If the spec has no such reading (`!self.kind().supports(mode)`);
    /// [`Selected::resolve`] under the same `mode` rules that out.
    pub fn visit<V: Visitor>(&self, mode: CheckMode, object: ObjectId, visitor: V) -> V::Out {
        assert!(self.kind().supports(mode), "{:?} has no {mode:?} reading", self.name());
        match self {
            Selected::Loaded(def) => match (mode, def.to_seq(object)) {
                (CheckMode::Interval, Some(spec)) => visitor.interval(SeqAsInterval::new(spec)),
                _ => visitor.ca(def.to_ca(object)),
            },
            Selected::Builtin(name, _) => match *name {
                EXCHANGER => visitor.ca(ExchangerSpec::new(object)),
                ELIM_ARRAY => visitor.ca(ElimArraySpec::new(object)),
                SYNC_QUEUE => visitor.ca(SyncQueueSpec::new(object)),
                DUAL_STACK => visitor.ca(DualStackSpec::with_timeouts(object)),
                STACK => lift(mode, StackSpec::total(object), visitor),
                FAILING_STACK => lift(mode, StackSpec::failing(object), visitor),
                REGISTER => lift(mode, RegisterSpec::new(object), visitor),
                COUNTER => lift(mode, CounterSpec::new(object), visitor),
                KV => lift(mode, KvMapSpec::new(), visitor),
                // Unbounded: a point's active operations are pairwise concurrent,
                // so the history's own peak concurrency bounds the search.
                WRITE_SNAPSHOT => visitor.interval(WriteSnapshotSpec::new(object, usize::MAX)),
                other => unreachable!("{other:?} has a BUILTINS row but no constructor"),
            },
        }
    }
}

/// The two readings of a sequential specification: singleton elements
/// (`cal`, `seq`, `causal`) and singleton intervals.
fn lift<S: SeqSpec + Send + 'static, V: Visitor>(mode: CheckMode, spec: S, visitor: V) -> V::Out {
    match mode {
        CheckMode::Interval => visitor.interval(SeqAsInterval::new(spec)),
        _ => visitor.ca(SeqAsCa::new(spec)),
    }
}

/// What a front end does with the selected spec once its concrete type is
/// known. `interval` is reached only under [`CheckMode::Interval`], so a
/// front end that does not offer it (`cal-serve`, the chaos driver)
/// implements `ca` alone.
pub trait Visitor: Sized {
    /// What the visit produces.
    type Out;

    /// The spec as a set of CA-traces (`cal`, `seq`, `causal`).
    fn ca<S: CaSpec + Send + 'static>(self, spec: S) -> Self::Out;

    /// The spec as an interval-sequential specification (`interval`).
    fn interval<S: IntervalSpec>(self, _spec: S) -> Self::Out {
        unreachable!("this front end never visits under CheckMode::Interval")
    }
}

/// Checks `history` against a CA specification: under the real-time
/// order when `order` is `None`, under that happens-before order
/// otherwise, on [`CheckOptions::threads`] workers.
///
/// Only the order is chosen here: in real time [`check_cal_with`] decides
/// each object's part by zones, a matching or the search, as the spec's
/// shape allows; a partial order is searched whole
/// ([`check_causal_with`]). The budgets in `options` bound the search.
///
/// # Errors
///
/// As the `cal_core` checker it runs.
pub fn run_ca<S: CaSpec>(
    history: &History,
    spec: &S,
    order: Option<&HbRelation>,
    options: &CheckOptions,
) -> Result<CheckOutcome, CheckError> {
    match order {
        Some(hb) => check_causal_with(history, spec, hb, options),
        None => check_cal_with(history, spec, options),
    }
}

/// Checks `history` for interval-linearizability: [`run_ca`] over the
/// history with its operations split into open and close halves, against
/// the spec read one point per CA-element ([`IntervalAsCa`]), the witness
/// read back as interval points.
///
/// # Errors
///
/// As [`run_ca`].
pub fn run_interval<S: IntervalSpec>(
    history: &History,
    spec: &S,
    options: &CheckOptions,
) -> Result<CheckOutcome<IntervalWitness>, CheckError> {
    let (split, halves) = IntervalAsCa::new(spec, history)?;
    let outcome = run_ca(&halves, &split, None, options)?;
    Ok(outcome.map_witness(|trace| split.witness(&trace)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records which reading a visit produced.
    struct Reading;

    impl Visitor for Reading {
        type Out = &'static str;

        fn ca<S: CaSpec + Send + 'static>(self, _: S) -> &'static str {
            "ca"
        }

        fn interval<S: IntervalSpec>(self, _: S) -> &'static str {
            "interval"
        }
    }

    /// The mode gate, row by row, as `cal-check`'s `spec_supports` had it
    /// before the table existed.
    #[test]
    fn supports_matches_the_old_truth_table() {
        use CheckMode::{Cal, Causal, Interval, Seq};
        for (name, kind) in BUILTINS {
            let expected: &[CheckMode] = match name {
                "exchanger" | "elim-array" | "sync-queue" | "dual-stack" => &[Cal, Causal],
                "stack" | "failing-stack" | "register" | "counter" | "kv" => {
                    &[Cal, Seq, Interval, Causal]
                }
                "write-snapshot" => &[Interval],
                other => panic!("{other} joined BUILTINS without a row in this truth table"),
            };
            for (_, mode) in CheckMode::ALL {
                assert_eq!(kind.supports(mode), expected.contains(&mode), "{name} under {mode:?}");
            }
        }
    }

    #[test]
    fn the_five_adjectives_are_pinned() {
        let ca = Selected::builtin(EXCHANGER).unwrap();
        let seq = Selected::builtin(REGISTER).unwrap();
        let interval = Selected::builtin(WRITE_SNAPSHOT).unwrap();
        assert_eq!(ca.adjective(CheckMode::Cal), "concurrency-aware linearizable");
        assert_eq!(ca.adjective(CheckMode::Causal), "causally concurrency-aware linearizable");
        assert_eq!(seq.adjective(CheckMode::Cal), "linearizable");
        assert_eq!(seq.adjective(CheckMode::Seq), "linearizable");
        assert_eq!(seq.adjective(CheckMode::Causal), "causally linearizable");
        assert_eq!(seq.adjective(CheckMode::Interval), "interval-linearizable");
        assert_eq!(interval.adjective(CheckMode::Interval), "interval-linearizable");
    }

    /// Every row has a constructor, and each supported mode gets the
    /// reading it names: `seq` is the CA reading of a sequential spec.
    #[test]
    fn every_row_visits_in_every_supported_mode() {
        for (name, kind) in BUILTINS {
            let selected = Selected::builtin(name).unwrap();
            assert_eq!((selected.name(), selected.kind()), (name, kind));
            for (_, mode) in CheckMode::ALL.into_iter().filter(|(_, m)| kind.supports(*m)) {
                let want = match mode {
                    CheckMode::Interval => "interval",
                    _ => "ca",
                };
                assert_eq!(selected.visit(mode, ObjectId(0), Reading), want, "{name} {mode:?}");
            }
        }
    }

    /// A loaded `kind seq` spec reads as the builtins do; a `kind ca` one
    /// has the CA reading alone.
    #[test]
    fn loaded_specs_visit_like_the_builtins() {
        let seq = dsl::parse_str(include_str!("../../../specs/register.cal")).unwrap();
        let selected = Selected::resolve(Some(&seq), None, CheckMode::Seq).unwrap();
        for (mode, reading) in [
            (CheckMode::Cal, "ca"),
            (CheckMode::Seq, "ca"),
            (CheckMode::Causal, "ca"),
            (CheckMode::Interval, "interval"),
        ] {
            assert_eq!(selected.visit(mode, ObjectId(0), Reading), reading, "{mode:?}");
        }
        let ca = dsl::parse_str(include_str!("../../../specs/exchanger.cal")).unwrap();
        assert!(Selected::resolve(Some(&ca), None, CheckMode::Seq).is_err());
        let selected = Selected::resolve(Some(&ca), None, CheckMode::Causal).unwrap();
        assert_eq!(selected.visit(CheckMode::Causal, ObjectId(0), Reading), "ca");
    }

    #[test]
    fn modes_parse_by_their_spelling() {
        for (name, mode) in CheckMode::ALL {
            assert_eq!(CheckMode::parse(name), Some(mode));
        }
        assert_eq!(CheckMode::parse("stress"), None);
    }

    #[test]
    fn resolve_applies_one_rule() {
        let one = dsl::parse_str(include_str!("../../../specs/register.cal")).unwrap();
        let two = dsl::parse_str(&format!(
            "{}\n{}",
            include_str!("../../../specs/register.cal"),
            include_str!("../../../specs/counter.cal")
        ))
        .unwrap();
        let cal = |file, name| Selected::resolve(file, name, CheckMode::Cal);
        let loaded = |r: Result<Selected, String>| matches!(r, Ok(Selected::Loaded(_)));
        let builtin = |r: Result<Selected, String>| matches!(r, Ok(Selected::Builtin(..)));
        assert!(builtin(cal(None, Some("register"))));
        assert!(loaded(cal(Some(&one), None)), "a one-spec file needs no name");
        assert!(loaded(cal(Some(&two), Some("register"))), "loaded names shadow");
        assert!(builtin(cal(Some(&one), Some("exchanger"))), "falls back");
        assert!(cal(Some(&two), None).unwrap_err().contains("register, counter"));
        assert!(cal(Some(&two), Some("nope")).is_err());
        assert!(cal(None, Some("nope")).is_err());
        assert!(cal(None, None).is_err());
        assert!(cal(None, Some("write-snapshot")).is_err(), "no reading under cal");
        assert!(Selected::resolve(None, Some("exchanger"), CheckMode::Seq).is_err());
    }
}
