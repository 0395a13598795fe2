//! Printing: every metric by name and unit for people, the contract's one
//! JSON line for the driver, and the result file `compare` reads.

use crate::e2e::{EndToEnd, Tally};
use crate::json::Json;
use crate::layers::Layers;
use crate::metrics::{self, Summary, END_TO_END, PER_LAYER};
use crate::workloads::{Scale, Workload};

/// One workload's results; either half may be absent (the driver asks for
/// one at a time).
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static Workload,
    pub end_to_end: Option<EndToEnd>,
    pub layers: Option<Layers>,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.tallies().map(|t| t.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.tallies().map(|t| t.failed).sum()
    }

    fn tallies(&self) -> impl Iterator<Item = &Tally> {
        self.end_to_end
            .iter()
            .map(|e| &e.tally)
            .chain(self.layers.iter().map(|l| &l.tally))
    }

    /// The contract's last line: the end-to-end metrics untraced, the
    /// per-layer ones traced.
    pub fn contract_line(&self, traced: bool) -> Json {
        let metric = |value: f64, unit: &str| {
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ])
        };
        let metrics: Vec<(String, Json)> = if traced {
            let layers = self.layers.as_ref().expect("a traced run has layers");
            layers
                .metrics
                .iter()
                .zip(&PER_LAYER)
                .map(|((name, value), m)| (name.to_string(), metric(*value, m.unit)))
                .collect()
        } else {
            let e = self
                .end_to_end
                .as_ref()
                .expect("an untraced run has end-to-end samples");
            END_TO_END
                .iter()
                .map(|g| {
                    (
                        g.metric.name.to_string(),
                        metric(g.value(e.samples.of(g.metric.name)), g.metric.unit),
                    )
                })
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.failed() == 0)),
            ("attempted", Json::Num(self.attempted() as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// This workload's entry in the result file.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".to_string(), Json::Str(self.workload.name.into())),
            ("attempted".to_string(), Json::Num(self.attempted() as f64)),
            ("failed".to_string(), Json::Num(self.failed() as f64)),
        ];
        if let Some(e) = &self.end_to_end {
            fields.push((
                "end_to_end".into(),
                Json::obj(END_TO_END.iter().map(|g| {
                    let samples = e.samples.of(g.metric.name);
                    (
                        g.metric.name,
                        Json::obj([
                            ("unit", Json::Str(g.metric.unit.into())),
                            ("value", Json::Num(g.value(samples))),
                            ("samples", Json::nums(samples)),
                        ]),
                    )
                })),
            ));
            fields.push(("wall_s".into(), Json::nums(&e.samples.wall_s)));
        }
        if let Some(l) = &self.layers {
            fields.push((
                "per_layer".into(),
                Json::obj(l.metrics.iter().zip(&PER_LAYER).map(|((name, value), m)| {
                    (
                        *name,
                        Json::obj([
                            ("unit", Json::Str(m.unit.into())),
                            ("value", Json::Num(*value)),
                        ]),
                    )
                })),
            ));
            fields.push((
                "cut".into(),
                Json::Arr(l.cut.iter().map(|c| Json::Str((*c).into())).collect()),
            ));
            fields.push((
                "shares".into(),
                Json::obj(l.shares.iter().map(|(n, s)| (*n, Json::Num(*s)))),
            ));
        }
        Json::Obj(fields)
    }

    /// Everything, by name and unit, for a person.
    pub fn print(&self, scale: Scale) {
        let w = self.workload;
        let label = if scale == Scale::Quick {
            " [QUICK: a twentieth of the size, one repetition; not comparable]"
        } else {
            ""
        };
        println!("== {}{label}", w.name);
        println!("   {}", w.why);
        if let Some(e) = &self.end_to_end {
            println!(
                "   end to end ({} events; times at the reference clock):",
                e.events
            );
            for g in &END_TO_END {
                let samples = e.samples.of(g.metric.name);
                let (q1, q3) = metrics::quartiles(samples);
                println!(
                    "     {:<14} {:>14.6} {:<4} {} of {:>2}  [q1 {:.6}, q3 {:.6}]  may worsen by {:.0} %",
                    g.metric.name,
                    g.value(samples),
                    g.metric.unit,
                    match g.summary {
                        Summary::Median => "median ",
                        Summary::Highest => "highest",
                    },
                    samples.len(),
                    q1,
                    q3,
                    g.bound * 100.0
                );
            }
            println!(
                "     {:<14} {:>14.6} s    median, as it passed on the wall (printed, not gated)",
                "wall_s",
                metrics::median(&e.samples.wall_s)
            );
            println!(
                "     {:<14} {:>14.6} MiB  the benchmark's own peak; no child can read lower",
                "rss_floor_mb", e.rss_floor_mb
            );
            println!(
                "     failed_share   {:>14.6}      {} of {} runs (timed, warm-up and probe)",
                e.tally.failed as f64 / e.tally.attempted as f64,
                e.tally.failed,
                e.tally.attempted
            );
        }
        if let Some(l) = &self.layers {
            println!("   per layer (traced run):");
            for ((name, value), m) in l.metrics.iter().zip(&PER_LAYER) {
                let cut = if l.cut.contains(name) {
                    "  (an arm was cut off: a bound, not a value)"
                } else {
                    ""
                };
                println!("     {name:<32} {value:>16.4} {}{cut}", m.unit);
            }
            println!(
                "   binary {:.4} s, in-process {:.4} s, untraced in-process {:.4} s: tracing overhead {:+.4} s",
                l.binary_s,
                l.in_process_s,
                l.untraced_s,
                l.in_process_s - l.untraced_s
            );
            let shares: Vec<String> = l
                .shares
                .iter()
                .map(|(n, s)| format!("{n} {:.1} %", s * 100.0))
                .collect();
            println!("   shares of the binary's time: {}", shares.join(", "));
            println!(
                "   verdicts: {} runs checked against the known answer, in-process and binary, {} wrong",
                l.tally.attempted, l.tally.failed
            );
        }
        for complaint in self.tallies().flat_map(|t| &t.complaints) {
            println!("   FAILED {complaint}");
        }
    }
}
