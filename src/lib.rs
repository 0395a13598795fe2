//! # cal — concurrency-aware linearizability, batteries included
//!
//! Umbrella crate re-exporting the whole CAL toolkit:
//!
//! - [`core`] *(re-export of `cal-core`)* — the CAL formalism: histories,
//!   CA-traces, the `⊑CAL` agreement relation, and the CAL membership
//!   checker — classical linearizability is its singleton fragment.
//! - [`specs`] *(re-export of `cal-specs`)* — ready-made specifications:
//!   exchanger, elimination array, stacks, elimination stack, synchronous
//!   queue, plus the paper's `F_AR`/`F_ES` view functions.
//! - [`objects`] *(re-export of `cal-objects`)* — real lock-free
//!   implementations of those objects with history recording.
//! - [`sim`] *(re-export of `cal-sim`)* — a deterministic interleaving
//!   simulator with step-machine models of the paper's algorithms.
//! - [`rg`] *(re-export of `cal-rg`)* — the rely/guarantee action framework
//!   and the machine-checked proof obligations of the exchanger proof.
//! - [`chaos`] *(re-export of `cal-chaos`)* — a seeded, reproducible
//!   fault-injection and soak harness over the live objects, with
//!   workload shrinking for minimal reproducers.
//!
//! See the repository `README.md` for a tour and `EXPERIMENTS.md` for the
//! reproduction results.

pub mod cli;

pub use cal_chaos as chaos;
pub use cal_core as core;
pub use cal_objects as objects;
pub use cal_rg as rg;
pub use cal_sim as sim;
pub use cal_specs as specs;
