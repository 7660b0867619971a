//! End-to-end and per-layer benchmark of the `bcc listen` TCP server.
//!
//! The binary (`src/main.rs`) runs one workload per invocation; these
//! modules are its pieces, kept in a library so `tests/` can check them.
//! See README.md for the workloads, the metrics and how to run it.

pub mod check;
pub mod draw;
pub mod json;
pub mod machine;
pub mod outcome;
pub mod server;
pub mod stats;
pub mod trace;
pub mod workload;
