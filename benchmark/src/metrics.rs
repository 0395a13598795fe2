//! Every metric by name, unit and direction — the table `BENCHMARK.json`
//! repeats (`tests/contract.rs` holds the two together) — and the statistics
//! they are summarised with.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// An end-to-end metric and the share of the parent's median by which it may
/// worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct Gated {
    pub metric: Metric,
    pub bound: f64,
    /// How one run's samples become its value.
    pub summary: Summary,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Summary {
    /// The median of the repetitions.
    Median,
    /// The highest any repetition reached. (A 3 MiB daemon's own peak
    /// wanders by 6 % from run to run; the highest of twenty does not.)
    Highest,
}

impl Gated {
    /// One run's value of this metric from its samples.
    pub fn value(&self, samples: &[f64]) -> f64 {
        match self.summary {
            Summary::Median => median(samples),
            Summary::Highest => samples.iter().copied().fold(f64::NAN, f64::max),
        }
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the binaries sees. All four are reported on every
/// workload: `verdict_s` is spawn to exit of the one child, `events_per_s`
/// the input's events over that. Times are at the reference clock
/// ([`crate::clock`]). Failures are not a metric here because a metric may
/// never be 0: they are the result's `attempted` / `failed` pair.
///
/// The bounds are three times what two sets of ten runs of one commit showed
/// on the 2-core host this was sized on, ten seeds a set, half an hour
/// apart: the quartile distance of a timing was 3–8.5 % of its median and
/// the medians of the two sets differed by up to 10 %, after scaling; a peak
/// RSS spread 0.03–2.3 % and moved by at most 0.4 %.
pub const END_TO_END: [Gated; 4] = [
    Gated {
        metric: lower("verdict_s", "s"),
        bound: 0.25,
        summary: Summary::Median,
    },
    Gated {
        metric: higher("events_per_s", "1/s"),
        bound: 0.25,
        summary: Summary::Median,
    },
    Gated {
        metric: lower("peak_rss_mb", "MiB"),
        bound: 0.08,
        summary: Summary::Highest,
    },
    Gated {
        metric: lower("setup_s", "s"),
        bound: 0.25,
        summary: Summary::Median,
    },
];

/// One number per layer boundary, from the traced run. On a workload whose
/// binary never enters a layer the number comes from pushing the workload's
/// input (or a bounded slice of it) through that layer anyway; the README's
/// table says which cells are on the binary's path.
pub const PER_LAYER: [Metric; 40] = [
    lower("format.decode_ns_per_event", "ns"),
    lower("format.bytes_per_event", "B"),
    lower("format.allocs_per_event", "count"),
    lower("history.spans_ns_per_op", "ns"),
    lower("history.order_build_ms", "ms"),
    lower("history.order_bytes_per_op", "B"),
    lower("history.order_allocs", "count"),
    lower("symmetry.classes_ms", "ms"),
    lower("symmetry.node_ratio", "ratio"),
    lower("engine.search_ms", "ms"),
    lower("engine.nodes", "count"),
    lower("engine.elements_tried", "count"),
    higher("engine.memo_hit_ratio", "ratio"),
    lower("engine.frontier_mean", "count"),
    lower("engine.ns_per_node", "ns"),
    lower("engine.allocs_per_node", "count"),
    higher("par.speedup_2t", "ratio"),
    lower("par.node_inflation_2t", "ratio"),
    higher("par.steals", "count"),
    lower("fpmemo.new_us", "us"),
    lower("fpmemo.insert_ns", "ns"),
    lower("fpmemo.hit_ns", "ns"),
    lower("stream.push_ns_per_event", "ns"),
    lower("stream.push_p99_us", "us"),
    lower("stream.push_max_ms", "ms"),
    lower("stream.nodes_per_event", "count"),
    lower("stream.checkpoints", "count"),
    higher("stream.retired_segments", "count"),
    lower("stream.peak_window", "count"),
    lower("stream.peak_states", "count"),
    lower("stream.allocs_per_event", "count"),
    lower("obs.sink_overhead_ratio", "ratio"),
    lower("dsl.compile_us", "us"),
    lower("dsl.search_ratio", "ratio"),
    lower("cal-check.process_overhead_ms", "ms"),
    higher("cal-check.files_per_s", "1/s"),
    higher("cal-serve.pipeline_ratio", "ratio"),
    lower("cal-serve.ack_p50_ms", "ms"),
    lower("cal-serve.ack_p99_ms", "ms"),
    lower("cal-serve.gen_late_max_ms", "ms"),
];

/// Counters that depend on the input alone, so two runs of one seed must
/// agree on them exactly; `compare` checks that.
pub const DETERMINISTIC: [&str; 4] = [
    "engine.nodes",
    "engine.elements_tried",
    "stream.checkpoints",
    "stream.retired_segments",
];

/// The median of `values`, which need not be sorted.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile, the way Python's `statistics.quantiles(v, n=4)`
/// places them (exclusive method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: f64| {
        // position k*(n+1)/4, 1-based, clamped into the data
        let pos = (k * (n as f64 + 1.0) / 4.0).clamp(1.0, n as f64);
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        let hi = (lo + 1).min(n);
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
    };
    match n {
        0 => (f64::NAN, f64::NAN),
        _ => (at(1.0), at(3.0)),
    }
}

/// The distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n => {
            let pos = q * (n - 1) as f64;
            let (lo, frac) = (pos.floor() as usize, pos.fract());
            v[lo] + (v[(lo + 1).min(n - 1)] - v[lo]) * frac
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|g| g.metric.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
