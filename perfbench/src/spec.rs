//! The benchmark's own description: `BENCHMARK.json` (metric names,
//! units, directions, bounds) and `perfbench/map.json` (which end-to-end
//! metric and workload each per-layer metric should move, and which
//! workloads exercise it), both compiled into the binary.

use serde::Value;

/// `BENCHMARK.json`, as committed at the repository root.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
/// `perfbench/map.json`.
pub const MAP_JSON: &str = include_str!("../map.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
}

/// The parts of `BENCHMARK.json` the runner needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// Metrics of the untraced runs.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of the traced runs.
    pub per_layer: Vec<MetricSpec>,
}

fn parse(text: &str, what: &str) -> Value {
    serde_json::from_str_value(text).unwrap_or_else(|e| panic!("{what} is not JSON: {e}"))
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        _ => panic!("missing list {key:?}"),
    }
}

fn string(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        _ => panic!("missing string {key:?}"),
    }
}

fn metrics(v: &Value, key: &str) -> Vec<MetricSpec> {
    list(v, key)
        .iter()
        .map(|m| MetricSpec {
            name: string(m, "name"),
            unit: string(m, "unit"),
            better: string(m, "better"),
        })
        .collect()
}

/// The committed `BENCHMARK.json`.
///
/// # Panics
///
/// Panics when the compiled-in file is malformed (a build defect).
pub fn benchmark() -> Benchmark {
    let v = parse(BENCHMARK_JSON, "BENCHMARK.json");
    Benchmark {
        workloads: list(&v, "workloads")
            .iter()
            .map(|w| string(w, "name"))
            .collect(),
        end_to_end: metrics(&v, "end_to_end"),
        per_layer: metrics(&v, "per_layer"),
    }
}

/// One per-layer metric's entry in `map.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerEntry {
    /// Workloads whose traced run exercises the layer; elsewhere the
    /// metric reads 0.
    pub measured_on: Vec<String>,
    /// `(end-to-end metric, workload)` pairs the metric should move.
    pub moves: Vec<(String, String)>,
}

/// The per-layer entries of `map.json`, by metric name.
///
/// # Panics
///
/// Panics when the compiled-in file is malformed (a build defect).
pub fn layer_map() -> Vec<(String, LayerEntry)> {
    let v = parse(MAP_JSON, "map.json");
    let Some(Value::Object(entries)) = v.get("per_layer") else {
        panic!("map.json has no per_layer object");
    };
    let strings = |v: &Value, key: &str| -> Vec<String> {
        list(v, key)
            .iter()
            .map(|s| match s {
                Value::Str(s) => s.clone(),
                _ => panic!("{key} holds a non-string"),
            })
            .collect()
    };
    entries
        .iter()
        .map(|(name, e)| {
            let moves = list(e, "moves")
                .iter()
                .map(|m| (string(m, "metric"), string(m, "workload")))
                .collect();
            (
                name.clone(),
                LayerEntry {
                    measured_on: strings(e, "measured_on"),
                    moves,
                },
            )
        })
        .collect()
}

/// The default workload seed and the seed held back for checking claims.
///
/// # Panics
///
/// Panics when the compiled-in file is malformed (a build defect).
pub fn seeds() -> (u64, u64) {
    let v = parse(MAP_JSON, "map.json");
    let seed = |key: &str| match v.get("seeds").and_then(|s| s.get(key)) {
        Some(Value::UInt(n)) => *n,
        _ => panic!("map.json seeds.{key} is missing"),
    };
    (seed("default"), seed("held_back"))
}
