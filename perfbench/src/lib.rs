//! # lsm-perfbench — the repository benchmark
//!
//! Seeded workloads generated as scenario TOML, run through the
//! program's public API with tracing off for the end-to-end metrics
//! ([`timed`]) and in separate instrumented passes for the per-layer
//! metrics ([`trace`]). See `README.md` for the metric map.

#![forbid(unsafe_code)]

pub mod check;
pub mod gen;
pub mod metrics;
pub mod probe;
pub mod runner;
pub mod stamp;
pub mod timed;
pub mod trace;

/// Worker threads the machine offers (`nproc`).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
