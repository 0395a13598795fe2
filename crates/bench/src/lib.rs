//! # cal-bench — workload builders for the experiment runner
//!
//! The `cal-bench` binary (`src/main.rs`) measures every series
//! `EXPERIMENTS.md` quotes; this library hosts the seeded workload
//! builders its experiments share.

#![warn(missing_docs)]

use cal_core::gen::render_loose;
use cal_core::{CaTrace, History};
use cal_specs::elim_stack::FEsMap;
use cal_specs::gen::{random_elim_subobject_trace, random_exchanger_trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The standard object ids used across the experiments.
pub mod ids {
    use cal_core::ObjectId;
    /// The elimination stack.
    pub const ES: ObjectId = ObjectId(0);
    /// The central stack.
    pub const S: ObjectId = ObjectId(1);
    /// The elimination array.
    pub const AR: ObjectId = ObjectId(2);
    /// A standalone exchanger (also the array's first slot).
    pub const E0: ObjectId = ObjectId(10);
}

/// A deterministic exchanger history of `elements` CA-elements over
/// `threads` threads, loosened by `moves` hoists.
pub fn exchanger_history(seed: u64, threads: u32, elements: usize, moves: usize) -> History {
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = random_exchanger_trace(&mut rng, ids::E0, threads, elements);
    render_loose(&trace, &mut rng, moves)
}

/// A deterministic exchanger trace (for the agreement series).
pub fn exchanger_trace(seed: u64, threads: u32, elements: usize) -> CaTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    random_exchanger_trace(&mut rng, ids::E0, threads, elements)
}

/// A deterministic elimination-stack *subobject* trace (elements of `S`
/// and `AR`) whose `F_ES` image is a legal stack history.
pub fn elim_subobject_trace(seed: u64, threads: u32, elements: usize) -> CaTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    random_elim_subobject_trace(&mut rng, &fes(), threads, elements)
}

/// The experiments' `F_ES`.
pub fn fes() -> FEsMap {
    FEsMap::new(ids::ES, ids::S, ids::AR)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_well_formed_inputs() {
        let h = exchanger_history(1, 3, 8, 10);
        assert!(h.is_well_formed());
        assert!(h.is_complete());
        let t = elim_subobject_trace(1, 3, 8);
        assert_eq!(t.len(), 8);
        assert!(exchanger_trace(1, 3, 5).len() == 5);
    }
}
