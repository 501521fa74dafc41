//! The repository's benchmark.
//!
//! Four workloads drive the engine through its public API, check every
//! answer, and report the end-to-end metrics `BENCHMARK.json` declares. A
//! separate traced run records spans around the calls into each crate and
//! reports the per-layer metrics. See `README.md` in this directory.

pub mod check;
pub mod layers;
pub mod measure;
pub mod profile;
pub mod report;
pub mod rig;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod wire_client;
pub mod workloads;

/// The runner's error: a message for the person reading the terminal.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchError(pub String);

pub type Result<T> = std::result::Result<T, BenchError>;

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchError {}

impl From<String> for BenchError {
    fn from(s: String) -> Self {
        BenchError(s)
    }
}

impl From<vectorh_common::VhError> for BenchError {
    fn from(e: vectorh_common::VhError) -> Self {
        BenchError(format!("engine: {e}"))
    }
}

impl From<stats::StatsError> for BenchError {
    fn from(e: stats::StatsError) -> Self {
        BenchError(format!("stats: {e}"))
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError(format!("io: {e}"))
    }
}
