//! # cal-core — concurrency-aware linearizability
//!
//! A from-scratch implementation of *concurrency-aware linearizability*
//! (CAL) as defined by Hemed, Rinetzky and Vafeiadis: a generalization of
//! Herlihy–Wing linearizability in which a specification is a set of
//! **CA-traces** — sequences of sets of operations that appear to take
//! effect *simultaneously* — rather than a set of sequential histories.
//! CAL makes it possible to specify concurrency-aware objects such as
//! exchangers, elimination arrays and synchronous queues, whose concurrent
//! behaviour is intentionally different from any sequential behaviour.
//!
//! The crate provides:
//!
//! - the formal vocabulary: [`Action`]s, [`History`]s with projections and
//!   the real-time order (Defs. 1–3), [`Operation`]s, [`CaElement`]s and
//!   [`CaTrace`]s (Def. 4);
//! - the agreement relation `H ⊑CAL T` ([`agree`], Def. 5);
//! - a CAL membership checker over stateful trace specifications
//!   ([`check`], Def. 6, [`spec::CaSpec`]), which is also the classical
//!   linearizability checker: a sequential specification
//!   ([`spec::SeqSpec`]) lifted to singleton elements ([`spec::SeqAsCa`])
//!   is CAL's singleton-element fragment;
//! - interval-linearizability ([`interval`]) as the same search over a
//!   history whose operations are split into an open and a close half;
//! - a decision procedure for registers and maps whose writes are unique
//!   ([`zones`]), and one for stateless pair specifications — the
//!   exchanger, the elimination array, the synchronous queue — by a
//!   matching of concurrent legal pairs ([`matching`]): the CAL check and
//!   the streaming checker run them in place of the search, object by
//!   object, wherever a part qualifies;
//! - the `F_o` view-function machinery for compositional verification of
//!   objects built from subobjects ([`compose`]);
//! - generators of sound and adversarial histories ([`gen`]).
//!
//! ## Example: a successful exchange is CAL but not linearizable
//!
//! ```
//! use cal_core::{check, Action, History, Method, ObjectId, ThreadId, Value};
//! use cal_core::spec::{CaSpec, Invocation};
//! use cal_core::trace::CaElement;
//!
//! /// Exchanger spec: a CA-element is a matched swap pair or a singleton
//! /// failure.
//! #[derive(Debug)]
//! struct Exchanger;
//! impl CaSpec for Exchanger {
//!     type State = ();
//!     fn initial(&self) {}
//!     fn step(&self, _: &(), e: &CaElement) -> Option<()> {
//!         match e.ops() {
//!             [a] => {
//!                 let (ok, v) = a.ret.as_pair()?;
//!                 (!ok && Value::Int(v) == a.arg).then_some(())
//!             }
//!             [a, b] => {
//!                 let (oka, va) = a.ret.as_pair()?;
//!                 let (okb, vb) = b.ret.as_pair()?;
//!                 (oka && okb && a.arg == Value::Int(vb) && b.arg == Value::Int(va))
//!                     .then_some(())
//!             }
//!             _ => None,
//!         }
//!     }
//!     fn max_element_size(&self) -> usize { 2 }
//!     fn completions_of(&self, inv: &Invocation) -> Vec<Value> {
//!         vec![Value::Pair(false, inv.arg.as_int().unwrap_or(0))]
//!     }
//! }
//!
//! let e = ObjectId(0);
//! let ex = Method("exchange");
//! // Two overlapping exchanges that swapped 3 ↔ 4:
//! let h = History::from_actions(vec![
//!     Action::invoke(ThreadId(1), e, ex, Value::Int(3)),
//!     Action::invoke(ThreadId(2), e, ex, Value::Int(4)),
//!     Action::response(ThreadId(1), e, ex, Value::Pair(true, 4)),
//!     Action::response(ThreadId(2), e, ex, Value::Pair(true, 3)),
//! ]);
//! assert!(check::is_cal(&h, &Exchanger).unwrap());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod action;
pub mod agree;
pub mod causal;
pub mod check;
pub mod compose;
pub mod dsl;
pub mod engine;
pub mod format;
pub mod fpmemo;
pub mod gen;
pub mod history;
pub mod ids;
pub mod interval;
pub mod matching;
pub mod obs;
pub mod op;
pub mod par;
pub mod spec;
pub mod stream;
pub mod symmetry;
pub mod text;
pub mod trace;
pub mod zones;

pub use action::{Action, ActionKind};
pub use history::{History, HistoryError, Span};
pub use ids::{Method, ObjectId, ThreadId, Value};
pub use op::Operation;
pub use trace::{CaElement, CaElementError, CaTrace};
