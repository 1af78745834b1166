//! Network model: message latency, loss and connectivity.
//!
//! The paper runs on EC2 with sub-millisecond intra-region latency; the
//! defaults here ([`NetConfig::default`]) approximate that environment
//! (0.5 ms ± 0.25 ms one-way, no loss). Experiments override the model to
//! study other regimes.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::actor::NodeId;
use crate::time::SimDuration;

/// A one-way message latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Fixed(SimDuration),
    /// Uniformly distributed in `[min, max]`.
    Uniform {
        /// Smallest possible latency.
        min: SimDuration,
        /// Largest possible latency.
        max: SimDuration,
    },
}

impl LatencyModel {
    /// Samples a latency from the model.
    pub fn sample(&self, rng: &mut StdRng) -> SimDuration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Uniform { min, max } => {
                let (lo, hi) = (min.as_micros(), max.as_micros());
                if lo >= hi {
                    min
                } else {
                    SimDuration::from_micros(rng.gen_range(lo..=hi))
                }
            }
        }
    }

    /// The largest latency the model can produce.
    pub fn max(&self) -> SimDuration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Uniform { max, .. } => max,
        }
    }
}

impl Default for LatencyModel {
    /// Intra-datacenter style latency: uniform in `[250us, 750us]` one-way.
    fn default() -> Self {
        LatencyModel::Uniform {
            min: SimDuration::from_micros(250),
            max: SimDuration::from_micros(750),
        }
    }
}

/// Full network configuration for a simulation.
///
/// # Example
///
/// ```
/// use dynastar_runtime::net::{LatencyModel, NetConfig};
/// use dynastar_runtime::time::SimDuration;
///
/// let net = NetConfig::default()
///     .latency(LatencyModel::Fixed(SimDuration::from_millis(1)))
///     .loss_probability(0.01);
/// assert_eq!(net.loss_probability, 0.01);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetConfig {
    /// Latency applied to every message (self-sends use [`NetConfig::local_latency`]).
    pub latency_model: LatencyModel,
    /// Latency of a message a node sends to itself (loopback).
    pub local_latency: SimDuration,
    /// Probability in `[0, 1]` that any given message is silently dropped.
    pub loss_probability: f64,
}

impl NetConfig {
    /// Builder-style setter for the latency model.
    pub fn latency(mut self, model: LatencyModel) -> Self {
        self.latency_model = model;
        self
    }

    /// Builder-style setter for loopback latency.
    pub fn local(mut self, latency: SimDuration) -> Self {
        self.local_latency = latency;
        self
    }

    /// Builder-style setter for the drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn loss_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability must be in [0, 1]");
        self.loss_probability = p;
        self
    }

    /// Samples the delivery latency for a message from `from` to `to`, or
    /// `None` if the message is lost.
    pub fn sample_delivery(
        &self,
        from: NodeId,
        to: NodeId,
        rng: &mut StdRng,
    ) -> Option<SimDuration> {
        if self.loss_probability > 0.0 && rng.gen_bool(self.loss_probability) {
            return None;
        }
        if from == to {
            Some(self.local_latency)
        } else {
            Some(self.latency_model.sample(rng))
        }
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency_model: LatencyModel::default(),
            local_latency: SimDuration::from_micros(10),
            loss_probability: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fixed_latency_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel::Fixed(SimDuration::from_millis(2));
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_millis(2));
        }
    }

    #[test]
    fn uniform_latency_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = LatencyModel::Uniform {
            min: SimDuration::from_micros(100),
            max: SimDuration::from_micros(200),
        };
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!(d >= SimDuration::from_micros(100));
            assert!(d <= SimDuration::from_micros(200));
        }
    }

    #[test]
    fn degenerate_uniform_returns_min() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = LatencyModel::Uniform {
            min: SimDuration::from_micros(100),
            max: SimDuration::from_micros(100),
        };
        assert_eq!(m.sample(&mut rng), SimDuration::from_micros(100));
    }

    #[test]
    fn self_sends_use_local_latency() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = NetConfig::default().local(SimDuration::from_micros(1));
        let n = NodeId::from_raw(7);
        assert_eq!(net.sample_delivery(n, n, &mut rng), Some(SimDuration::from_micros(1)));
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = NetConfig::default().loss_probability(1.0);
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        assert_eq!(net.sample_delivery(a, b, &mut rng), None);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn loss_probability_validated() {
        let _ = NetConfig::default().loss_probability(1.5);
    }
}
