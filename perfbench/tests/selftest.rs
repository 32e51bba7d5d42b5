//! Self-test of the benchmark: every workload runs at toy size through the
//! real command line, passes its checks, and emits exactly the metrics
//! `BENCHMARK.json` names; `BENCHMARK.json` and `map.json` agree.

use crowd_perfbench::spec::{benchmark, layer_map, seeds};
use crowd_perfbench::WORKLOADS;
use serde::Value;
use std::path::Path;
use std::process::Command;

fn run(workload: &str, trace: bool) -> (bool, Value) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root");
    let out = Command::new(env!("CARGO_BIN_EXE_crowd-perfbench"))
        .current_dir(root)
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--toy"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let v = serde_json::from_str_value(last).expect("the result line is JSON");
    (out.status.success(), v)
}

fn check_result(workload: &str, trace: bool, names: &[String]) {
    let (ok, v) = run(workload, trace);
    let Value::Object(fields) = &v else {
        panic!("{workload}: the result is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert!(ok, "{workload} trace={trace} exited nonzero: {v:?}");
    assert_eq!(v.get("correct"), Some(&Value::Bool(true)), "{workload}");
    assert_eq!(v.get("failed"), Some(&Value::UInt(0)), "{workload}");
    assert!(
        matches!(v.get("attempted"), Some(Value::UInt(n)) if *n >= 1),
        "{workload}"
    );
    let Some(Value::Object(metrics)) = v.get("metrics") else {
        panic!("{workload}: no metrics object")
    };
    let emitted: Vec<&String> = metrics.iter().map(|(k, _)| k).collect();
    assert_eq!(emitted, names.iter().collect::<Vec<_>>(), "{workload}");
    for (name, m) in metrics {
        let value = match m.get("value") {
            Some(Value::Float(x)) => *x,
            Some(Value::UInt(n)) => *n as f64,
            other => panic!("{workload} {name}: value {other:?}"),
        };
        assert!(value.is_finite(), "{workload} {name}");
        if !trace {
            assert!(
                value > 0.0,
                "{workload} {name}: end-to-end metrics are never 0"
            );
        }
        assert!(
            matches!(m.get("unit"), Some(Value::Str(_))),
            "{workload} {name}"
        );
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let names: Vec<String> = benchmark().end_to_end.into_iter().map(|m| m.name).collect();
    for w in WORKLOADS {
        check_result(w, false, &names);
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_when_traced() {
    let names: Vec<String> = benchmark().per_layer.into_iter().map(|m| m.name).collect();
    for w in WORKLOADS {
        check_result(w, true, &names);
    }
}

#[test]
fn unknown_workloads_and_flags_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_crowd-perfbench"))
        .args(["--workload", "nope", "--toy"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_crowd-perfbench"))
        .args(["--workload", "serve_steady", "--trace", "2"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
}

#[test]
fn benchmark_json_and_map_agree() {
    let bench = benchmark();
    assert!(bench.workloads.len() >= 2);
    for w in &bench.workloads {
        assert!(WORKLOADS.contains(&w.as_str()), "{w} is not a workload");
    }
    let e2e: Vec<&str> = bench.end_to_end.iter().map(|m| m.name.as_str()).collect();
    assert!(e2e.contains(&"setup_s"));
    let map = layer_map();
    let mapped: Vec<&str> = map.iter().map(|(n, _)| n.as_str()).collect();
    let layers: Vec<&str> = bench.per_layer.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        mapped, layers,
        "map.json lists the per-layer metrics in order"
    );
    for (name, entry) in &map {
        assert!(!entry.moves.is_empty(), "{name} moves nothing");
        for (metric, workload) in &entry.moves {
            assert!(e2e.contains(&metric.as_str()), "{name}: {metric}");
            assert!(WORKLOADS.contains(&workload.as_str()), "{name}: {workload}");
        }
        for w in &entry.measured_on {
            assert!(WORKLOADS.contains(&w.as_str()), "{name}: {w}");
        }
    }
    let (default, held_back) = seeds();
    assert_ne!(default, held_back);
}
