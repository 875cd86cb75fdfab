//! The repository's benchmark of record.
//!
//! Four workloads, each generated as scenario text from `(workload,
//! --seed)` and pushed through the program's public API from spec text
//! to exported report; end-to-end metrics from timed repetitions with
//! observability off, per-layer metrics from a separate traced run.
//! `benchmark/README.md` has the tables and their rationale.

pub mod catalog;
pub mod json;
pub mod kernels;
pub mod layers;
pub mod provenance;
pub mod run;
pub mod spans;
pub mod specs;
pub mod stats;
