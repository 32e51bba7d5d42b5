//! # crowd-bench
//!
//! The benchmark pipelines behind the committed baselines:
//!
//! * the `bench` binary (see [`pipeline`]) — Algorithm 1, its filter
//!   (sequential and parallel) and 2-MaxFind per size tier, whose
//!   deterministic metadata half is committed as `BENCH_results.json`
//!   and diffed in CI;
//! * the `serve_load` binary (see [`serve_load`]) — crowd-serve under
//!   fixed load scenarios, committed as `SERVE_results.json`.
//!
//! Repeated, per-layer wall-clock timing lives in the repository
//! benchmark (`perfbench/`), whose traced run times every layer from the
//! comparison kernel to a crowd-serve tick.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod pipeline;
pub mod serve_load;
