//! The parallel entry point's old name.
//!
//! [`check_cal_par_with`] is [`crate::check::check_cal_with`], which runs
//! the one search ([`crate::engine::search`]) on
//! [`crate::check::CheckOptions::threads`] workers. The name stays only
//! because the benchmark harness imports it; it goes when that harness
//! calls the un-suffixed entry point.

pub use crate::check::check_cal_with as check_cal_par_with;
