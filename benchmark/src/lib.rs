//! `cupbench`: the repository's benchmark. See `README.md` beside the
//! manifest for the workloads, the metrics and how to run it.

// Measuring wall time is this package's job (see /clippy.toml).
#![allow(clippy::disallowed_methods)]

pub mod alloc;
pub mod cli;
pub mod diff;
pub mod json;
pub mod micro;
pub mod proc;
pub mod report;
pub mod script;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod surface;
pub mod traced;
pub mod workloads;
