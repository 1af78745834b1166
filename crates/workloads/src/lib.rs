//! # dynastar-workloads
//!
//! The two benchmarks the DynaStar paper evaluates with, plus the data
//! generators they need:
//!
//! * [`tpcc`] — an in-memory implementation of the TPC-C order-processing
//!   benchmark (9 tables, 5 transaction types at the standard 45/43/4/4/4
//!   mix), mapped onto DynaStar objects exactly as §5.3 describes: every
//!   district (with its orders and customers) and every warehouse (with its
//!   stock) is a workload-graph vertex. A district row keeps only what the
//!   transactions read back: its undelivered orders' customers and totals
//!   and the id range of its recent orders, not order lines or delivered
//!   orders, since a borrowed row is shipped and copied whole.
//! * [`chirper`] — the paper's Twitter-like social network (§5.4): post,
//!   follow, unfollow and read-timeline commands over a per-user timeline.
//! * [`socialgraph`] — a Barabási–Albert preferential-attachment generator
//!   standing in for the Higgs Twitter dataset (see DESIGN.md for the
//!   substitution argument), plus celebrity injection for the dynamic
//!   workload experiment (Figure 6).
//! * [`zipf`] — the Zipfian sampler (ρ = 0.95 in the paper) used to pick
//!   active users.
//! * [`placement`] — initial-placement helpers: random (DynaStar's t=0
//!   state), aligned, and partitioner-optimized (S-SMR\*'s offline METIS
//!   step).
//! * [`scenarios`] — adversarial scenario generators for the robustness
//!   suite: flash crowds, diurnal hot-spot rotation, Zipf-parameter ramps
//!   and membership-churn nemesis presets.
//! * [`counters`] — the toy add-to-every-variable application (and a
//!   uniform closed-loop client for it) that the probes and the keyspace
//!   scenarios drive.

#![forbid(unsafe_code)]

pub mod chirper;
pub mod counters;
pub mod placement;
pub mod scenarios;
pub mod socialgraph;
pub mod tpcc;
pub mod zipf;

pub use chirper::{Chirper, ChirperOp, ChirperReply, ChirperUser, ChirperWorkload};
pub use scenarios::{churn_nemesis, flash_crowd, DiurnalRotation, ScenarioWorkload, ZipfRamp};
pub use socialgraph::SocialGraph;
pub use zipf::Zipf;
