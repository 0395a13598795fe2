//! `pipeline`: the repository's benchmark. See `benchmark/README.md`.

pub mod alloc;
pub mod clock;
pub mod compare;
pub mod e2e;
pub mod gen;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod proc;
pub mod report;
pub mod trace;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
