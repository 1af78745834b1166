//! # dynastar-bench
//!
//! Shared harness code for the experiment binaries that regenerate every
//! table and figure of the paper's evaluation (§6). Each figure has a
//! `src/bin/figN_*.rs` binary; run them with
//! `cargo run --release -p dynastar-bench --bin <name>`. Every binary
//! declares its flags, writes its `--out` record and gates
//! `--check-against` through [`harness`].
//!
//! The binaries print the same rows/series the paper plots. Absolute
//! numbers differ from the paper (simulated network vs. EC2), but the
//! shapes — who wins, by what factor, where crossovers fall — are the
//! reproduction targets; see EXPERIMENTS.md for the side-by-side record.

#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_methods,
    reason = "the harness runs simulations on host threads and reads and writes record files, outside any simulation"
)]

pub mod harness;
pub mod report;
pub mod scenarios;
pub mod setup;

pub use report::{print_series, print_table};
pub use setup::{chirper_cluster, run_parallel, tpcc_cluster, ChirperSetup, TpccSetup};
