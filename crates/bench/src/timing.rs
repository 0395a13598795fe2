//! The one timing loop under every experiment, and the series it yields.
//!
//! A series is one body called over and over: once untimed to warm caches
//! and lazy set-up, then in samples until [`MIN_SAMPLES`] *and*
//! [`MIN_TIME`] are both reached. A sample is a batch of calls sized by
//! the first timed call, so a sub-microsecond body is timed a millisecond
//! at a time rather than one clock read at a time. What is kept is the median and the
//! quartiles of the per-call time, the sample count, and — because this
//! host's cores switch between two speeds 1.28× apart every few seconds —
//! the cost of one step of a reference multiply-add chain read right after
//! the samples, so two series (or two recordings) can be told apart from
//! two clock speeds. The chain is `benchmark/src/clock.rs`'s, without its
//! pinning: nothing here is scaled, the reading is recorded beside the time.

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

use cal_core::obs::JsonLine;

/// A series has at least this many samples …
pub const MIN_SAMPLES: usize = 15;
/// … and at least this much timed work.
pub const MIN_TIME: Duration = Duration::from_millis(100);
/// A sample is as many calls as fit this, going by the first timed call.
const SAMPLE_TARGET: Duration = Duration::from_millis(1);

/// The `p`-quantile of `sorted` (ascending, non-empty), interpolating
/// linearly between the two nearest ranks.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let at = (sorted.len() - 1) as f64 * p;
    let (below, above) = (sorted[at.floor() as usize], sorted[at.ceil() as usize]);
    below + (above - below) * at.fract()
}

/// ns per step of a dependent multiply-add chain on the calling thread's
/// core, best of three bursts of ~4 ms: the first may still be ramping up
/// from idle, and a pre-empted one only reads high.
fn chain_ns_per_step() -> f64 {
    const STEPS: u64 = 4_000_000;
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = 1u64;
            for i in 0..STEPS {
                // Without the barrier LLVM solves the affine recurrence.
                x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
            }
            black_box(x);
            start.elapsed().as_nanos() as f64 / STEPS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// One timed series, as it goes into `BENCH_experiments.json`.
#[derive(Debug)]
pub struct Series {
    experiment: &'static str,
    /// The series' name, unique in the file.
    pub name: String,
    /// Median time of one call of the body, in microseconds.
    pub median_us: f64,
    q1_us: f64,
    q3_us: f64,
    samples: usize,
    /// Calls per sample.
    iters: u64,
    chain_ns_per_step: f64,
    /// Counters and derived values, already spelled, in the order added.
    fields: Vec<(String, String)>,
}

impl Series {
    /// Adds a field after the timing columns.
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.fields.push((key.to_owned(), value.to_string()));
        self
    }

    /// Adds `<unit>` (how many a call does) and `<unit>_per_s` at the median.
    pub fn rate(&mut self, unit: &str, per_call: u64) -> &mut Self {
        let per_s = per_call as f64 / (self.median_us * 1e-6);
        self.field(unit, per_call).field(&format!("{unit}_per_s"), format_args!("{per_s:.0}"))
    }

    /// The series as one line of JSON.
    pub fn to_json(&self) -> String {
        let line = JsonLine::new()
            .str("experiment", self.experiment)
            .str("name", &self.name)
            .ms("median_us", self.median_us)
            .ms("q1_us", self.q1_us)
            .ms("q3_us", self.q3_us)
            .num("samples", self.samples)
            .num("iters", self.iters)
            .ms("chain_ns_per_step", self.chain_ns_per_step);
        self.fields.iter().fold(line, |line, (key, value)| line.num(key, value)).finish()
    }
}

/// The series of one experiment, in the order its body measured them.
#[derive(Debug)]
pub struct Bench {
    experiment: &'static str,
    /// Checker workers of the multi-worker arms: `min(4, host cores)`.
    pub workers: usize,
    /// What has been measured so far.
    pub series: Vec<Series>,
}

impl Bench {
    /// An empty run of `experiment`.
    pub fn new(experiment: &'static str, workers: usize) -> Self {
        Bench { experiment, workers, series: Vec::new() }
    }

    /// Times `body`, whose counters (named by `counters`) must read the
    /// same on every call: a one-worker search is deterministic, and one
    /// that is not should fail the run rather than widen a quartile.
    pub fn exact<const N: usize>(
        &mut self,
        name: impl Into<String>,
        counters: [&'static str; N],
        body: impl FnMut() -> [u64; N],
    ) -> &mut Series {
        let (series, low, high) = self.measure(name.into(), body);
        assert_eq!(low, high, "{}: {counters:?} differ from call to call", series.name);
        for (key, value) in counters.iter().zip(low) {
            series.field(key, value);
        }
        series
    }

    /// Times `body`, whose counters legitimately vary (sibling workers may
    /// refute a state twice; which exchanges pair is the scheduler's):
    /// records the least and the most seen as `<counter>_min` / `_max`.
    pub fn ranged<const N: usize>(
        &mut self,
        name: impl Into<String>,
        counters: [&'static str; N],
        body: impl FnMut() -> [u64; N],
    ) -> &mut Series {
        let (series, low, high) = self.measure(name.into(), body);
        for ((key, low), high) in counters.iter().zip(low).zip(high) {
            series.field(&format!("{key}_min"), low).field(&format!("{key}_max"), high);
        }
        series
    }

    /// Marks the last series against the earlier series `base`: `ratio` is
    /// its median over `base`'s. Returns the ratio.
    pub fn versus(&mut self, base: &str) -> f64 {
        let base_series = self.series.iter().find(|s| s.name == base);
        let base_us = base_series.expect("base is measured first").median_us;
        let last = self.series.last_mut().expect("a series to mark");
        let ratio = last.median_us / base_us;
        last.field("base", format_args!("\"{base}\"")).field("ratio", format_args!("{ratio:.3}"));
        ratio
    }

    /// The timing loop. Returns the new series and, per counter, the least
    /// and the most any call reported.
    fn measure<const N: usize>(
        &mut self,
        name: String,
        mut body: impl FnMut() -> [u64; N],
    ) -> (&mut Series, [u64; N], [u64; N]) {
        let first = body();
        let (mut low, mut high) = (first, first);
        let (mut samples, mut timed) = (Vec::new(), Duration::ZERO);
        let mut iters = 0;
        while samples.len() < MIN_SAMPLES || timed < MIN_TIME {
            let calls = iters.max(1);
            let start = Instant::now();
            for _ in 0..calls {
                let counts = black_box(body());
                for i in 0..N {
                    low[i] = low[i].min(counts[i]);
                    high[i] = high[i].max(counts[i]);
                }
            }
            let elapsed = start.elapsed();
            if iters == 0 {
                // The first timed call sizes the batch, and is a sample
                // itself only where a batch is one call.
                let fit = SAMPLE_TARGET.as_nanos() / elapsed.as_nanos().max(1);
                iters = fit.clamp(1, 1_000_000) as u64;
                if iters > 1 {
                    continue;
                }
            }
            timed += elapsed;
            samples.push(elapsed.as_secs_f64() * 1e6 / calls as f64);
        }
        samples.sort_by(f64::total_cmp);
        self.series.push(Series {
            experiment: self.experiment,
            name,
            median_us: quantile(&samples, 0.5),
            q1_us: quantile(&samples, 0.25),
            q3_us: quantile(&samples, 0.75),
            samples: samples.len(),
            iters,
            chain_ns_per_step: chain_ns_per_step(),
            fields: Vec::new(),
        });
        (self.series.last_mut().expect("just pushed"), low, high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_fixed_samples() {
        // Odd: every quantile asked for falls on a rank.
        let odd = [1.0, 2.0, 4.0, 8.0, 16.0];
        assert_eq!([0.25, 0.5, 0.75].map(|p| quantile(&odd, p)), [2.0, 4.0, 8.0]);
        // Even: the median is halfway between the middle two, the
        // quartiles a quarter and three quarters of the way along a gap.
        let even = [1.0, 2.0, 4.0, 8.0];
        assert_eq!([0.25, 0.5, 0.75].map(|p| quantile(&even, p)), [1.75, 3.0, 5.0]);
        // One sample is its own median and both quartiles.
        assert_eq!([0.0, 0.25, 0.5, 0.75, 1.0].map(|p| quantile(&[7.0], p)), [7.0; 5]);
    }

    #[test]
    fn a_series_carries_its_counters_and_its_ratio() {
        let mut bench = Bench::new("T", 1);
        let mut calls = 0u64;
        bench.exact("t/base", ["nodes"], || {
            calls += 1;
            [black_box(7)]
        });
        assert!(calls > MIN_SAMPLES as u64, "one warm-up and the samples");
        let mut flip = 0;
        let other = bench.ranged("t/other", ["paired"], || {
            flip ^= 1;
            [flip]
        });
        other.rate("ops", 10);
        let ratio = bench.versus("t/base");
        let [base, other] = [0, 1].map(|i| bench.series[i].to_json());
        assert!(base.starts_with(r#"{"experiment": "T", "name": "t/base", "median_us": "#));
        assert!(base.ends_with(r#""nodes": 7}"#), "{base}");
        assert!(bench.series[0].samples >= MIN_SAMPLES && bench.series[0].iters > 1, "{base}");
        let counters = r#""paired_min": 0, "paired_max": 1, "ops": 10, "ops_per_s": "#;
        assert!(other.contains(counters), "{other}");
        assert!(other.ends_with(&format!(r#""base": "t/base", "ratio": {ratio:.3}}}"#)), "{other}");
    }

    #[test]
    #[should_panic(expected = "differ from call to call")]
    fn a_counter_that_moves_fails_an_exact_series() {
        let mut n = 0;
        Bench::new("T", 1).exact("t/drifting", ["nodes"], || {
            n += 1;
            [n]
        });
    }
}
