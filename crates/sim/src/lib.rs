//! # cal-sim — deterministic concurrency substrate
//!
//! The paper proves its theorems with a program logic; this crate provides
//! the executable analogue: each algorithm of Figs. 1–2 is rendered as a
//! *step machine* in which every step is one shared-memory access, and a
//! scheduler explores **all** interleavings of bounded client programs
//! (or seeded random samples of larger ones). Each explored schedule
//! yields the client-visible [`cal_core::History`] and the auxiliary trace
//! `𝒯` logged at the paper's instrumentation points; each step of the
//! explored state graph, with the state on both sides of it, is what the
//! rely/guarantee checker in `cal-rg` checks.
//!
//! - [`model`] — the [`model::Model`] trait, step outcomes and the logging
//!   context;
//! - [`sched`] — the exhaustive DFS [`sched::Explorer`] (terminal
//!   executions or every edge of the pruned state graph) and random
//!   sampler;
//! - [`models`] — the exchanger (Fig. 1), failing and retrying stacks,
//!   elimination array, elimination stack (Fig. 2) and synchronous queue;
//! - [`weakmem`] — seeded store-buffering / reordering relaxations of a
//!   recorded history's real-time order into a weak-memory-plausible
//!   happens-before sub-order, for the causal checking mode.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod model;
pub mod models;
pub mod sched;
pub mod weakmem;

pub use model::{Model, OpRequest, StepCtx, StepOutcome};
pub use sched::{Edge, Execution, ExploreStats, Explorer, StepKind, Workload};
