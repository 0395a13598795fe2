//! # cal-rg — machine-checked rely/guarantee obligations
//!
//! The paper proves the exchanger concurrency-aware linearizable with a
//! rely/guarantee program logic (§5.1, Fig. 4). This crate renders that
//! proof executable: on every step of the state graph `cal-sim`'s
//! exhaustive scheduler walks ([`cal_sim::Explorer::edges`]), it checks
//!
//! - **guarantee conformance** — the step instantiates one of the Fig. 4
//!   actions (`INIT`, `CLEAN`, `PASS`, `XCHG`, `FAIL`) or is
//!   environment-invisible;
//! - **the global invariant `J`** of §5.1, after the step;
//! - **the proof-outline assertions** of Fig. 1 (`A`, `B(k)` and the
//!   per-line disjunctions), at every in-flight thread's program point after
//!   the step — establishment *and* stability under interference;
//! - **`exchange`'s postcondition**, on the step that returns.
//!
//! Each obligation is a property of one step or of the state after it, so
//! checking every edge of the pruned graph once covers every interleaving
//! of the bounded clients: the executable analogue of the paper's
//! deductive proof. [`check_stack_rg`] does the same for the central stack.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod exchanger_rg;
pub mod stack_rg;

pub use exchanger_rg::{check_exchanger_rg, RgViolation};
pub use stack_rg::check_stack_rg;
