//! # dynastar-runtime
//!
//! A deterministic discrete-event simulation runtime for message-passing
//! distributed protocols.
//!
//! The runtime is the substrate on which the DynaStar reproduction runs: it
//! replaces the paper's Amazon EC2 cluster with a simulated network whose
//! latency distribution, failure pattern and clock are fully controlled and
//! reproducible from a seed. Protocol code is written as [`actor::Actor`]
//! implementations that react to messages and timers; the
//! [`sim::Simulation`] scheduler delivers events in deterministic order.
//!
//! # Example
//!
//! ```
//! use dynastar_runtime::prelude::*;
//!
//! /// A node that counts every "ping" it receives.
//! struct Pong;
//! impl Actor<&'static str> for Pong {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, &'static str>, _from: NodeId, msg: &'static str) {
//!         if msg == "ping" {
//!             ctx.metrics_mut().incr_counter("pongs", 1);
//!         }
//!     }
//! }
//!
//! struct Ping { target: NodeId }
//! impl Actor<&'static str> for Ping {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, &'static str>) {
//!         ctx.send(self.target, "ping");
//!     }
//! }
//!
//! let mut sim = Simulation::new(SimConfig::default().seed(42));
//! let pong = sim.add_node("pong", Pong);
//! sim.add_node("ping", Ping { target: pong });
//! sim.run_until_quiescent();
//! assert_eq!(sim.metrics().counter("pongs"), 1);
//! ```

#![forbid(unsafe_code)]

pub mod actor;
pub mod dedup;
pub mod event;
pub mod hash;
pub mod metrics;
pub mod nemesis;
pub mod net;
pub mod sim;
pub mod time;

/// Convenience re-exports of the types nearly every protocol crate needs.
pub mod prelude {
    pub use crate::actor::{Actor, Ctx, NodeId};
    pub use crate::metrics::Metrics;
    pub use crate::net::{LatencyModel, NetConfig};
    pub use crate::sim::{SimConfig, Simulation};
    pub use crate::time::{SimDuration, SimTime};
}

pub use actor::{Actor, Ctx, NodeId};
pub use hash::{FastHashMap, FastHashSet, FxHasher};
pub use metrics::{
    Cdf, CounterId, Histogram, HistogramId, Interned, Metrics, SeriesId, TimeSeries,
};
pub use net::{LatencyModel, NetConfig};
pub use sim::{SimConfig, Simulation};
pub use time::{SimDuration, SimTime};
