//! # cal-specs — concrete specifications for the paper's objects
//!
//! Ready-made [`cal_core::spec::CaSpec`] / [`cal_core::spec::SeqSpec`]
//! instances and `F_o` view functions for every object in the paper:
//!
//! - [`exchanger::ExchangerSpec`] — the CA specification of §4: swap pairs
//!   and singleton failures;
//! - [`elim_array::ElimArraySpec`] and [`elim_array::FArMap`] — the
//!   elimination array exposing the exchanger surface, with `F_AR` hiding
//!   the encapsulated exchangers (§5);
//! - [`stack::StackSpec`] — sequential stacks, total and with Fig. 2's
//!   contention failures;
//! - [`elim_stack::FEsMap`] and [`elim_stack::modular_stack_check`] — the
//!   elimination stack's `F_ES` and the modular correctness check of §5;
//! - [`sync_queue::SyncQueueSpec`] — the synchronous queue client of the
//!   extended paper;
//! - [`register::RegisterSpec`] / [`register::CounterSpec`] — classical
//!   sequential baselines for checker calibration;
//! - [`kv::KvMapSpec`] — a map of independent per-key registers, the spec
//!   family for imported distributed-system traces (`cal_core::format`);
//! - [`gen`] — random legal traces for tests and benchmarks;
//! - [`registry`] — the front door: the table of built-in names, `--spec`
//!   resolution, mode lifting and driver choice every binary goes through.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dual_stack;
pub mod elim_array;
pub mod elim_stack;
pub mod exchanger;
pub mod gen;
pub mod kv;
pub mod register;
pub mod registry;
pub mod snapshot;
pub mod stack;
pub mod sync_queue;
pub mod vocab;
