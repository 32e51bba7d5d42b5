//! Runs one benchmark workload (or `all` of them) and prints every metric
//! by name with its unit, then one JSON result line:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of `BENCHMARK.json`, measured
//! with no recorder installed; `--trace 1` is the separate traced run that
//! reports the per-layer metrics and writes its bench-side spans to
//! `perfbench/out/`. The exit code is nonzero when any correctness check
//! fails.

use crowd_perfbench::spec::{self, MetricSpec};
use crowd_perfbench::{run_workload, Metric, Outcome, RunConfig, Scale, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "usage: crowd-perfbench --workload <name|all> [--seed <n>] \
                     [--seconds <n>] [--trace <0|1>] [--toy]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    toy: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: spec::seeds().0,
        seconds: 10.0,
        trace: false,
        toy: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--toy" {
            args.toy = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The metrics this run must report, in `BENCHMARK.json` order, filled
/// from the outcome. A per-layer metric the workload does not exercise
/// (per `map.json`) reads 0; any other missing metric is a defect.
fn collect(workload: &str, trace: bool, out: &mut Outcome) -> Vec<(MetricSpec, Metric)> {
    let bench = spec::benchmark();
    let map = spec::layer_map();
    let wanted = if trace {
        bench.per_layer
    } else {
        bench.end_to_end
    };
    let mut rows = Vec::new();
    for m in wanted {
        let metric = match out.metrics.remove(&m.name) {
            Some(metric) => metric,
            None if trace
                && !map
                    .iter()
                    .any(|(n, e)| *n == m.name && e.measured_on.iter().any(|w| w == workload)) =>
            {
                Metric {
                    value: 0.0,
                    note: Some("not exercised by this workload".into()),
                }
            }
            None => {
                out.failures
                    .push(format!("metric {} was not measured", m.name));
                continue;
            }
        };
        if !metric.value.is_finite() {
            out.failures
                .push(format!("metric {} is {}", m.name, metric.value));
            continue;
        }
        rows.push((m, metric));
    }
    for extra in out.metrics.keys() {
        out.failures
            .push(format!("metric {extra} is not declared in BENCHMARK.json"));
    }
    rows
}

fn json_line(correct: bool, attempted: u64, failed: u64, rows: &[(MetricSpec, Metric)]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(spec, m)| {
            format!(
                "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                spec.name, m.value, spec.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Runs one workload in this process and prints its metrics and result.
fn run_one(args: &Args) -> Result<bool, String> {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: if args.toy {
            Scale::toy()
        } else {
            Scale::full()
        },
    };
    let mut out = run_workload(&args.workload, &cfg).ok_or_else(|| {
        format!(
            "unknown workload {:?}; one of {WORKLOADS:?} or all",
            args.workload
        )
    })?;
    let rows = collect(&args.workload, args.trace, &mut out);
    if args.trace {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, &out.spans_jsonl))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans: {}", path.display());
    }
    for (m, metric) in &rows {
        let note = metric
            .note
            .as_deref()
            .map_or(String::new(), |n| format!("  ({n})"));
        println!(
            "{:<28} {:>16} {:<6} {}-is-better{note}",
            m.name,
            format!("{:.6}", metric.value),
            m.unit,
            m.better
        );
    }
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = out.failures.is_empty();
    println!("{}", json_line(correct, out.attempted, out.failed(), &rows));
    Ok(correct)
}

/// Runs every workload, each in a child process of its own (so each has
/// its own memory high-water mark), and prints a combined result line
/// whose metrics are named `<workload>.<metric>`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut merged = Vec::new();
    for w in WORKLOADS {
        println!("== {w}");
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.toy {
            cmd.arg("--toy");
        }
        let child = cmd.output().map_err(|e| format!("running {w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        eprint!("{}", String::from_utf8_lossy(&child.stderr));
        let lines: Vec<&str> = stdout.lines().collect();
        let (last, body) = lines.split_last().ok_or(format!("{w} printed nothing"))?;
        for l in body {
            println!("{l}");
        }
        let v = serde_json::from_str_value(last).map_err(|e| format!("{w} result: {e}"))?;
        let num = |key: &str| serde::field::<u64>(&v, key).map_err(|e| format!("{w}: {e}"));
        attempted += num("attempted")?;
        failed += num("failed")?;
        let correct = matches!(v.get("correct"), Some(serde::Value::Bool(true)));
        all_correct &= correct && child.status.success();
        if let Some(serde::Value::Object(ms)) = v.get("metrics") {
            for (name, m) in ms {
                merged.push((format!("{w}.{name}"), m.clone()));
            }
        }
    }
    let metrics: Vec<String> = merged
        .iter()
        .map(|(n, m)| format!("{n:?}: {}", serde_json::to_string(m).unwrap_or_default()))
        .collect();
    println!(
        "{{\"correct\": {all_correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
