//! The repository benchmark: five workloads that drive the max-finding
//! stack from outside, through public functions only, from the
//! `compare_many` kernel up to a crash-resumed crowd-serve run.
//!
//! Each workload builds its inputs from a seed, times its main phase for
//! a wall-clock budget, checks the program's outputs, and returns an
//! [`Outcome`]: end-to-end metrics from a run with no recorder installed,
//! or — in a traced run — per-layer metrics, with bench-side spans around
//! every call into a layer. `BENCHMARK.json` names every metric;
//! `perfbench/map.json` says which end-to-end metric and workload each
//! per-layer metric should move.

pub mod chaos;
pub mod measure;
pub mod offline;
pub mod serve;
pub mod spec;

use std::collections::BTreeMap;

/// Input sizes of every workload. [`Scale::full`] is the benchmark;
/// [`Scale::toy`] runs the same code in well under a second per workload
/// for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Catalog size of `offline_1e5`.
    pub offline_1e5_n: usize,
    /// Catalog size of `offline_1e6`.
    pub offline_1e6_n: usize,
    /// Catalog size of `platform_chaos`.
    pub chaos_n: usize,
    /// Jobs offered by `serve_steady`.
    pub steady_jobs: u64,
    /// Jobs offered by `serve_overload_hot`.
    pub overload_jobs: u64,
    /// How many times set-up is repeated before the timed phase (see
    /// [`measure::SetupClock`]).
    pub setup_reps: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Scale {
            offline_1e5_n: 100_000,
            offline_1e6_n: 1_000_000,
            chaos_n: 5_000,
            steady_jobs: 1_500,
            overload_jobs: 16_000,
            setup_reps: 5,
        }
    }

    /// Toy sizes for the self-test.
    pub fn toy() -> Self {
        Scale {
            offline_1e5_n: 2_000,
            offline_1e6_n: 3_000,
            chaos_n: 400,
            steady_jobs: 60,
            overload_jobs: 600,
            setup_reps: 2,
        }
    }
}

/// How one workload run is driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Wall-clock budget of the timed phase, in seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics, no recorder. `true`: the traced run,
    /// which reports the per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// One reported number: its value and, for an order statistic, the
/// sample it was taken over.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value, as measured.
    pub value: f64,
    /// Sample count and percentile actually reported, for percentiles.
    pub note: Option<String>,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (see `map.json` for each workload's unit).
    pub attempted: u64,
    /// Every failed correctness check, described.
    pub failures: Vec<String>,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Bench-side spans of a traced run, as JSON lines.
    pub spans_jsonl: String,
}

impl Outcome {
    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics
            .insert(name.to_string(), Metric { value, note: None });
    }

    /// Records the median of timing samples, noting their count and range.
    pub fn put_median(&mut self, name: &str, samples: &[f64]) {
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.metrics.insert(
            name.to_string(),
            Metric {
                value: measure::median(samples),
                note: Some(format!(
                    "median of {}, range {lo:.4}–{hi:.4}",
                    samples.len()
                )),
            },
        );
    }

    /// Records the mean of timing samples — the timed phase's wall time
    /// over its pass count — noting their count, median and range.
    pub fn put_mean(&mut self, name: &str, samples: &[f64]) {
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mid = measure::median(samples);
        self.metrics.insert(
            name.to_string(),
            Metric {
                value: samples.iter().sum::<f64>() / samples.len() as f64,
                note: Some(format!(
                    "mean of {}, median {mid:.4}, range {lo:.4}–{hi:.4}",
                    samples.len()
                )),
            },
        );
    }

    /// Records an order statistic with its sample count.
    pub fn put_percentile(&mut self, name: &str, p: measure::Percentile) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value: p.value,
                note: Some(format!("n={} p{}", p.samples, p.percent)),
            },
        );
    }

    /// Records a correctness check; a failed one is kept with its message.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Attempted operations that returned an error or failed a check:
    /// one per failed check, at most every attempted operation.
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted.max(1))
    }

    /// Share of attempted operations that did not fail.
    pub fn ok_frac(&self) -> f64 {
        ratio(
            (self.attempted - self.failed().min(self.attempted)) as f64,
            self.attempted as f64,
        )
    }
}

/// Records `peak_rss_mb`: the memory high-water mark once set-up and the
/// first uninterrupted run are done, so it does not depend on how many
/// passes fit in the time budget.
pub fn put_peak_rss(out: &mut Outcome) {
    match measure::peak_rss_mb() {
        Some(mb) => out.put("peak_rss_mb", mb),
        None => out
            .failures
            .push("the memory high-water mark is unavailable".into()),
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The benchmark's workload names, in run order. `BENCHMARK.json` gates
/// the serve workloads (see `map.json`).
pub const WORKLOADS: [&str; 5] = [
    "offline_1e5",
    "offline_1e6",
    "platform_chaos",
    "serve_steady",
    "serve_overload_hot",
];

/// Runs the named workload, or `None` for an unknown name.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    Some(match name {
        "offline_1e5" => offline::run(cfg, cfg.scale.offline_1e5_n),
        "offline_1e6" => offline::run(cfg, cfg.scale.offline_1e6_n),
        "platform_chaos" => chaos::run(cfg),
        "serve_steady" => serve::run(serve::Load::Steady, cfg),
        "serve_overload_hot" => serve::run(serve::Load::OverloadHot, cfg),
        _ => return None,
    })
}
