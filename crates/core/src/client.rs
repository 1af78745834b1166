//! The client protocol core (paper Algorithm 1 and the §4.3 location
//! cache) and the workload-driver abstraction.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use dynastar_amcast::MsgId;
use dynastar_runtime::{
    CounterId, FastHashMap, HistogramId, Interned, Metrics, NodeId, SeriesId, SimDuration, SimTime,
};
use rand::rngs::StdRng;

use crate::command::{Application, Command, CommandKind, LocKey, Mode, PartitionId};
use crate::metric_names as mn;
use crate::payload::{Direct, Effect, OracleDest, Payload};
use crate::routing::{compute_route, dispatch_mid, exec_shard, query_mid};

/// Generates the stream of commands a closed-loop client issues.
///
/// Implementations may keep state (e.g. the social graph for Chirper, the
/// warehouse layout for TPC-C); `next_command` is called once per completed
/// command.
pub trait Workload<A: Application>: 'static {
    /// The next command to issue at simulated time `now`, or `None` when
    /// the workload is done.
    fn next_command(&mut self, now: SimTime, rng: &mut StdRng) -> Option<CommandKind<A>>;

    /// Observes a completed command at time `now` (default: ignore).
    fn on_completed(&mut self, now: SimTime, cmd: &Command<A>, reply: Option<&A::Reply>) {
        let _ = (now, cmd, reply);
    }

    /// Delay before the next command is issued (default: zero — a pure
    /// closed loop). A paced workload returns a positive duration to
    /// model think time, stretching a bounded command budget across a
    /// long run (e.g. so a short recorded history spans a mid-run fault
    /// window).
    fn think_time(&mut self, now: SimTime, rng: &mut StdRng) -> SimDuration {
        let _ = (now, rng);
        SimDuration::ZERO
    }
}

/// Completion notification surfaced to the driving actor.
#[derive(Debug, Clone)]
pub enum ClientEvent<A: Application> {
    /// The outstanding command finished.
    Completed {
        /// The finished command.
        cmd: Command<A>,
        /// The application reply (`None` for create/delete acks).
        reply: Option<A::Reply>,
        /// End-to-end latency.
        latency: SimDuration,
        /// Whether the command ultimately failed (`nok` prophecy).
        ok: bool,
    },
}

#[derive(Debug)]
struct Outstanding<A: Application> {
    cmd: Command<A>,
    attempt: u32,
    issued_at: SimTime,
}

/// A client's location cache: `key → (partition, plan version the fact
/// came from)`.
pub(crate) type LocationCache = FastHashMap<LocKey, (PartitionId, u64)>;

/// A cache that knows `entries` (S-SMR's static map, or a warm start),
/// built once per deployment and copied into each client
/// ([`ClientCore::set_cache`]). Entries are tagged with the initial plan
/// version 0, so the first observed repartitioning flushes them.
pub(crate) fn warm_cache(
    entries: impl IntoIterator<Item = (LocKey, PartitionId)>,
) -> LocationCache {
    entries.into_iter().map(|(k, p)| (k, (p, 0))).collect()
}

/// Client-side protocol logic: location cache, oracle fallback, retry.
///
/// Drive it with [`ClientCore::issue`], [`ClientCore::on_direct`] and
/// [`ClientCore::on_timeout`]; a closed-loop client issues the next
/// command when [`ClientEvent::Completed`] surfaces.
pub struct ClientCore<A: Application> {
    id: NodeId,
    mode: Mode,
    seq: u32,
    /// Entries from a plan older than [`ClientCore::plan_version`] are
    /// flushed wholesale when a newer version is observed — without the
    /// version tag, every stale entry would cost its own NOK round-trip
    /// before being evicted.
    cache: LocationCache,
    /// Highest oracle plan version observed in prophecies.
    plan_version: u64,
    outstanding: Option<Outstanding<A>>,
    /// Base delay before re-dispatching after a `Retry` (stale routing).
    /// Zero (the default) re-dispatches immediately; non-zero turns the
    /// retry storm a migration causes into backpressure — each retry of
    /// the same command backs off exponentially from this base.
    retry_backoff: SimDuration,
    /// A retry the core chose to delay: `(attempt, due)`. Dispatched when
    /// the actor's backoff timer fires ([`ClientCore::on_backoff`]);
    /// cleared by completion or response timeout.
    deferred: Option<(u32, SimTime)>,
    /// Number of oracle shard groups in the deployment; oracle `Exec`
    /// queries route by [`exec_shard`].
    oracle_shards: u32,
    /// Whether routing facts are cached at all. Disabled, every command
    /// goes through an oracle query — the permanently-cold-cache client
    /// the fig8 flash-crowd benchmark models.
    caching: bool,
    /// Interned metric handles for the per-command completion path.
    mids: Interned<ClientMetricIds>,
}

/// Dense metric ids recorded per completed/retried/timed-out command.
#[derive(Debug, Clone, Copy)]
struct ClientMetricIds {
    cmd_retry: CounterId,
    s_cmd_retry: SeriesId,
    cmd_completed: CounterId,
    s_cmd_completed: SeriesId,
    cmd_latency: HistogramId,
    cmd_timeout: CounterId,
    cmd_retry_backoff: CounterId,
    cmd_failed: CounterId,
}

impl<A: Application> ClientCore<A> {
    /// Creates a client core. `id` doubles as the message-id origin.
    pub fn new(id: NodeId, mode: Mode) -> Self {
        ClientCore {
            id,
            mode,
            seq: 0,
            cache: FastHashMap::default(),
            plan_version: 0,
            outstanding: None,
            retry_backoff: SimDuration::ZERO,
            deferred: None,
            oracle_shards: 1,
            caching: true,
            mids: Interned::default(),
        }
    }

    /// Sets the base retry backoff (see the field docs). Zero disables
    /// deferral and reproduces the immediate-retry behaviour.
    pub fn set_retry_backoff(&mut self, backoff: SimDuration) {
        self.retry_backoff = backoff;
    }

    /// Tells the core how many oracle shard groups the deployment runs,
    /// so `Exec` queries route to the right shard (see [`exec_shard`]).
    pub fn set_oracle_shards(&mut self, shards: u32) {
        assert!(shards > 0, "need at least one oracle shard");
        self.oracle_shards = shards;
    }

    /// Enables or disables the location cache. Disabled, every dispatch
    /// goes through the oracle and prophecy facts are not retained.
    pub fn set_location_cache(&mut self, on: bool) {
        self.caching = on;
        if !on {
            self.cache.clear();
        }
    }

    /// The interned metric ids.
    fn mids(&mut self, metrics: &mut Metrics) -> ClientMetricIds {
        *self.mids.get(metrics, |m| ClientMetricIds {
            cmd_retry: m.counter_id(mn::CMD_RETRY),
            s_cmd_retry: m.series_id(mn::CMD_RETRY),
            cmd_completed: m.counter_id(mn::CMD_COMPLETED),
            s_cmd_completed: m.series_id(mn::CMD_COMPLETED),
            cmd_latency: m.histogram_id(mn::CMD_LATENCY),
            cmd_timeout: m.counter_id(mn::CMD_TIMEOUT),
            cmd_retry_backoff: m.counter_id(mn::CMD_RETRY_BACKOFF),
            cmd_failed: m.counter_id(mn::CMD_FAILED),
        })
    }

    /// Starts the location cache from a copy of a deployment's
    /// [`warm_cache`]: one table copy instead of an insert per key.
    pub(crate) fn set_cache(&mut self, cache: &LocationCache) {
        self.cache.clone_from(cache);
    }

    /// Number of cached locations (test/debug aid).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Highest plan version this client has observed (test/debug aid).
    pub fn plan_version(&self) -> u64 {
        self.plan_version
    }

    /// Whether a command is in flight.
    pub fn is_busy(&self) -> bool {
        self.outstanding.is_some()
    }

    /// The in-flight command id, if any.
    pub fn outstanding_cmd(&self) -> Option<MsgId> {
        self.outstanding.as_ref().map(|o| o.cmd.id)
    }

    /// The in-flight command's attempt, if any: 0 when issued, bumped by each
    /// `Retry` and response timeout.
    pub(crate) fn outstanding_attempt(&self) -> Option<u32> {
        self.outstanding.as_ref().map(|o| o.attempt)
    }

    /// Issues a new command (closed loop: at most one outstanding).
    ///
    /// # Panics
    ///
    /// Panics if a command is already outstanding.
    pub fn issue(&mut self, kind: CommandKind<A>, now: SimTime) -> Vec<Effect<A>> {
        assert!(self.outstanding.is_none(), "client is closed-loop: command already in flight");
        let cmd =
            Command { id: MsgId::new(self.id.as_raw() as u64, self.seq), client: self.id, kind };
        self.seq += 1;
        self.outstanding = Some(Outstanding { cmd: cmd.clone(), attempt: 0, issued_at: now });
        self.dispatch(cmd, 0)
    }

    /// Dispatches (or re-dispatches) the outstanding command: straight to
    /// the partitions when the cache can route it, through the oracle
    /// otherwise.
    fn dispatch(&mut self, cmd: Command<A>, attempt: u32) -> Vec<Effect<A>> {
        if let CommandKind::Access { .. } = cmd.kind {
            if let Some(route) = compute_route(&cmd, |k| self.cache.get(&k).map(|&(p, _)| p)) {
                let keep = self.mode.keeps_moved_state() && route.is_multi_partition();
                return vec![Effect::Multicast {
                    mid: dispatch_mid(cmd.id, attempt),
                    partitions: route.dests,
                    // DS-SMR keep moves keys in every shard's map replica.
                    oracle: if keep { OracleDest::All } else { OracleDest::None },
                    payload: Payload::Access {
                        cmd,
                        attempt,
                        expected: route.expected,
                        target: route.target,
                        keep,
                    },
                }];
            }
        }
        // Cold cache, stale cache, or create/delete: involve the oracle —
        // the one shard the query's routing function picks, rotating with
        // the attempt so `Retry` referrals reach the owner shard.
        let shard = exec_shard(&cmd, attempt, self.oracle_shards);
        vec![Effect::Multicast {
            mid: query_mid(cmd.id, attempt),
            partitions: Vec::new(),
            oracle: OracleDest::Shard(shard),
            payload: Payload::Exec { cmd, attempt },
        }]
    }

    /// Handles a direct message from a server or the oracle.
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "a client consumes only Prophecy, Reply and Retry; every other Direct variant is server-to-server traffic it must ignore, not enumerate"
    )]
    pub fn on_direct(
        &mut self,
        msg: Direct<A>,
        now: SimTime,
        metrics: &mut Metrics,
    ) -> (Vec<Effect<A>>, Option<ClientEvent<A>>) {
        match msg {
            Direct::Prophecy { cmd, ok, locations, version } => {
                if version > self.plan_version {
                    // A new plan superseded every older cached fact, not
                    // just this command's keys: flush them all instead of
                    // paying one NOK round-trip per stale entry.
                    self.plan_version = version;
                    self.cache.retain(|_, &mut (_, v)| v >= version);
                }
                if self.caching && version >= self.plan_version {
                    for (k, p) in locations {
                        self.cache.insert(k, (p, version));
                    }
                }
                let matches = self.outstanding.as_ref().map(|o| o.cmd.id) == Some(cmd);
                if matches && !ok {
                    // Command cannot execute (unknown variable, duplicate
                    // create): complete unsuccessfully.
                    return (Vec::new(), self.abandon(now, metrics));
                }
                (Vec::new(), None)
            }
            Direct::Reply { cmd, reply, .. } => self.complete(cmd, Some(reply), now, metrics),
            Direct::Ack { cmd } => self.complete(cmd, None, now, metrics),
            Direct::Retry { cmd, attempt } => {
                let matches = self
                    .outstanding
                    .as_ref()
                    .map(|o| o.cmd.id == cmd && o.attempt == attempt)
                    .unwrap_or(false);
                if !matches {
                    return (Vec::new(), None);
                }
                let ids = self.mids(metrics);
                metrics.incr(ids.cmd_retry, 1);
                metrics.record_at(ids.s_cmd_retry, now, 1.0);
                // Our cached locations for this command were stale.
                let Some(out) = self.outstanding.as_mut() else {
                    return (Vec::new(), None);
                };
                for k in out.cmd.keys() {
                    self.cache.remove(&k);
                }
                out.attempt += 1;
                let (cmd, attempt) = (out.cmd.clone(), out.attempt);
                if self.retry_backoff > SimDuration::ZERO {
                    // Stale routing usually means a migration is mid-flight:
                    // back off instead of hammering the moving key. Delay
                    // doubles per attempt of this command, capped at 64×.
                    let shift = attempt.min(6);
                    let delay = self.retry_backoff.saturating_mul(1u64 << shift);
                    let due = now + delay;
                    self.deferred = Some((attempt, due));
                    metrics.incr(ids.cmd_retry_backoff, 1);
                    return (vec![Effect::Wake { at: due }], None);
                }
                (self.dispatch(cmd, attempt), None)
            }
            _ => (Vec::new(), None),
        }
    }

    /// Gives up on the outstanding command: it completes unsuccessfully
    /// (counted as `cmd.failed`) and the client can issue again. A late
    /// `Reply` or `Retry` for it fails the id check and is ignored.
    pub fn abandon(&mut self, now: SimTime, metrics: &mut Metrics) -> Option<ClientEvent<A>> {
        let out = self.outstanding.take()?;
        self.deferred = None;
        let latency = now.saturating_duration_since(out.issued_at);
        let ids = self.mids(metrics);
        metrics.incr(ids.cmd_failed, 1);
        Some(ClientEvent::Completed { cmd: out.cmd, reply: None, latency, ok: false })
    }

    fn complete(
        &mut self,
        cmd: MsgId,
        reply: Option<A::Reply>,
        now: SimTime,
        metrics: &mut Metrics,
    ) -> (Vec<Effect<A>>, Option<ClientEvent<A>>) {
        let matches = self.outstanding.as_ref().map(|o| o.cmd.id) == Some(cmd);
        if !matches {
            return (Vec::new(), None); // late duplicate from an old attempt
        }
        let Some(out) = self.outstanding.take() else {
            return (Vec::new(), None);
        };
        self.deferred = None;
        let latency = now.saturating_duration_since(out.issued_at);
        let ids = self.mids(metrics);
        metrics.incr(ids.cmd_completed, 1);
        metrics.record_at(ids.s_cmd_completed, now, 1.0);
        metrics.observe(ids.cmd_latency, latency);
        (Vec::new(), Some(ClientEvent::Completed { cmd: out.cmd, reply, latency, ok: true }))
    }

    /// Dispatches a retry the core delayed for backpressure, once the
    /// actor's backoff timer fires. A stale wake-up (the command already
    /// completed, timed out, or retried through another path) is a no-op.
    pub fn on_backoff(&mut self, now: SimTime) -> Vec<Effect<A>> {
        let Some((attempt, due)) = self.deferred else {
            return Vec::new();
        };
        if now < due {
            return Vec::new(); // superseded wake-up; a later timer is set
        }
        self.deferred = None;
        let matches = self.outstanding.as_ref().map(|o| o.attempt == attempt).unwrap_or(false);
        if !matches {
            return Vec::new();
        }
        let Some(out) = self.outstanding.as_ref() else {
            return Vec::new();
        };
        let (cmd, attempt) = (out.cmd.clone(), out.attempt);
        self.dispatch(cmd, attempt)
    }

    /// Re-dispatches the outstanding command through the oracle after a
    /// response timeout (lost messages / leader churn).
    pub fn on_timeout(&mut self, _now: SimTime, metrics: &mut Metrics) -> Vec<Effect<A>> {
        if self.outstanding.is_none() {
            return Vec::new();
        }
        self.deferred = None;
        let ids = self.mids(metrics);
        metrics.incr(ids.cmd_timeout, 1);
        let Some(out) = self.outstanding.as_mut() else {
            return Vec::new();
        };
        out.attempt += 1;
        for k in out.cmd.keys() {
            self.cache.remove(&k);
        }
        let (cmd, attempt) = (out.cmd.clone(), out.attempt);
        self.dispatch(cmd, attempt)
    }
}

impl<A: Application> std::fmt::Debug for ClientCore<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientCore")
            .field("id", &self.id)
            .field("seq", &self.seq)
            .field("cache", &self.cache.len())
            .field("busy", &self.outstanding.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::VarId;
    use crate::host::tests::App;

    fn access(var: u64) -> CommandKind<App> {
        CommandKind::Access { op: (), vars: vec![VarId(var)] }
    }

    /// A caller that stops waiting frees the client: the command it gave
    /// up on is a failure, and the next one goes out.
    #[test]
    fn an_abandoned_command_fails_and_the_next_goes_out() {
        let mut metrics = Metrics::new();
        let mut client = ClientCore::<App>::new(NodeId::from_raw(7), Mode::Dynastar);
        assert_eq!(client.issue(access(0), SimTime::ZERO).len(), 1);
        let first = client.outstanding_cmd().expect("in flight");

        let event = client.abandon(SimTime::from_millis(5), &mut metrics);
        let Some(ClientEvent::Completed { cmd, ok, latency, .. }) = event else {
            panic!("abandoning completes the command: {event:?}");
        };
        assert_eq!((cmd.id, ok, latency), (first, false, SimDuration::from_millis(5)));
        assert!(!client.is_busy());
        assert_eq!(metrics.counter(mn::CMD_FAILED), 1);

        assert_eq!(client.issue(access(1), SimTime::from_millis(6)).len(), 1);
        assert!(client.outstanding_cmd().is_some_and(|next| next != first));
    }
}
