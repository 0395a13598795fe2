//! # cal-objects — real lock-free concurrency-aware objects
//!
//! Production-style Rust implementations (atomics + epoch reclamation) of
//! every object in the paper:
//!
//! - [`exchanger::Exchanger`] — the wait-free exchanger of Fig. 1;
//! - [`elim_array::ElimArray`] — the elimination array of Fig. 2;
//! - [`stack::FailingStack`] / [`stack::TreiberStack`] — the failing
//!   central stack of Fig. 2 and the retrying baseline;
//! - [`elim_stack::EliminationStack`] — Hendler et al.'s elimination
//!   stack;
//! - [`sync_queue::SyncQueue`] — the exchanger-based synchronous queue;
//! - [`record::Recorder`] and [`recorded::Recorded`], the one wrapper
//!   with the one recording bracket — history recording for offline CAL /
//!   linearizability checking of real runs;
//! - [`hooks`] — chaos instrumentation points and capped-exponential
//!   backoff, the substrate of the `cal-chaos` fault-injection harness.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena_exchanger;
pub mod dual_stack;
pub mod elim_array;
pub mod elim_stack;
pub mod exchanger;
pub mod hooks;
pub mod record;
pub mod recorded;
pub mod snapshot;
pub mod stack;
pub mod sync_queue;
