//! # dynastar-core
//!
//! The DynaStar protocol: scalable state machine replication with
//! *optimized dynamic partitioning*, reproducing Le et al. (ICDCS 2019).
//!
//! ## Architecture
//!
//! The service state is a set of *variables* ([`VarId`]) grouped into
//! *locality keys* ([`LocKey`], the paper's workload-graph vertices — a
//! TPC-C district, a Chirper user). Keys are mapped to *partitions*, each a
//! Paxos-replicated server group; a replicated *location oracle* owns the
//! key→partition map and the workload graph.
//!
//! * Clients with warm [location caches](client::ClientCore) multicast
//!   commands straight to the involved partitions; cold or stale clients go
//!   through the oracle and receive a *prophecy*.
//! * Single-partition commands execute locally. For multi-partition
//!   commands the chosen *target* partition borrows the needed variables,
//!   executes alone, replies, and returns the variables (the paper's key
//!   difference from S-SMR, which executes everywhere).
//! * The oracle accumulates workload hints, periodically recomputes an
//!   optimized partitioning with a multilevel graph partitioner
//!   ([`dynastar_partitioner`], standing in for METIS) and multicasts the
//!   plan; partitions migrate keys without blocking execution.
//!
//! All ordered communication uses genuine atomic multicast
//! ([`dynastar_amcast`]); executions are linearizable (checked in tests
//! with a [linearizability checker](linearizability)).
//!
//! Three execution modes share this machinery (see [`Mode`]):
//! DynaStar itself, the static **S-SMR**/S-SMR\* baseline, and the naive
//! dynamic **DS-SMR** baseline.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` at the repository root, or
//! [`cluster::ClusterBuilder`] for the entry point.

#![forbid(unsafe_code)]

pub mod client;
pub mod cluster;
pub mod command;
mod deploy;
mod hints;
mod host;
pub mod linearizability;
pub mod metric_names;
pub mod migration;
pub mod oracle;
pub mod payload;
pub mod routing;
pub mod server;
mod transport;

pub use client::{ClientCore, ClientEvent, Workload};
pub use cluster::{Cluster, ClusterBuilder, LocationView};
pub use command::{
    AccessSets, Application, Command, CommandKind, LocKey, Mode, PartitionId, VarId,
};
pub use deploy::ClusterConfig;
pub use dynastar_paxos::BatchConfig;
pub use payload::{Direct, OracleDest, Payload};
pub use routing::{compute_route, exec_shard, shard_of, Route};
pub use server::{ExecConfig, ServerConfig};
