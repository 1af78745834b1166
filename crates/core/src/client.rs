//! The client protocol (paper Algorithm 1 and the §4.3 location cache) and
//! the workload-driver abstraction.
//!
//! The client is one sans-io state machine: it looks a command's keys up
//! in its cache, falls back to the oracle, re-dispatches on a stale-routing
//! `Retry` or a response timeout, and arms that timeout itself. It calls
//! the driver's port in place, as a replica host does (`host.rs`); the
//! simulator's client actor (`cluster.rs`) adds the workload loop.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use std::sync::Arc;

use dynastar_amcast::{McastWire, MsgId};
use dynastar_runtime::{
    CounterId, FastHashMap, HistogramId, Interned, Metrics, NodeId, SeriesId, SimDuration, SimTime,
};
use rand::rngs::StdRng;

use crate::command::{Application, Command, CommandKind, LocKey, Mode, PartitionId};
use crate::deploy::ClusterConfig;
use crate::host::{Inner, Port, RouteTable};
use crate::metric_names as mn;
use crate::payload::{Direct, OracleDest, Payload};
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

/// A finished command, surfaced to the driver.
#[derive(Debug)]
pub(crate) struct ClientEvent<A: Application> {
    /// The finished command.
    pub(crate) cmd: Command<A>,
    /// The application reply: `None` for create/delete acks and failures.
    pub(crate) reply: Option<A::Reply>,
    /// Whether it succeeded; `false` after a `nok` prophecy or
    /// [`ClientCore::abandon`] (counted as `cmd.failed`).
    pub(crate) ok: bool,
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
/// ([`ClientCore::new`]). Entries are tagged with the initial plan
/// version 0, so the first observed repartitioning flushes them.
pub(crate) fn warm_cache(
    entries: impl IntoIterator<Item = (LocKey, PartitionId)>,
) -> LocationCache {
    entries.into_iter().map(|(k, p)| (k, (p, 0))).collect()
}

/// One client: location cache, oracle fallback, retry and response
/// timeout, calling the driver's [`Port`] in place.
///
/// Drive it with [`Self::issue`], [`Self::on_direct`] and the two timers
/// it arms: the retry timer ([`Port::arm_retry`], the response timeout)
/// calls [`Self::on_timeout`], the wake timer ([`Port::arm_wake`], a
/// deferred retry) [`Self::on_backoff`]. A closed-loop driver issues the
/// next command when [`Self::on_direct`] returns a [`ClientEvent`].
pub(crate) struct ClientCore<A: Application> {
    id: NodeId,
    mode: Mode,
    routes: Arc<RouteTable>,
    seq: u32,
    /// Entries from a plan older than [`Self::plan_version`] are flushed
    /// wholesale when a newer version is observed — without the version
    /// tag, every stale entry would cost its own NOK round-trip before
    /// being evicted.
    cache: LocationCache,
    /// Highest oracle plan version observed in prophecies.
    plan_version: u64,
    outstanding: Option<Outstanding<A>>,
    /// How long an attempt may go unanswered before it is re-dispatched
    /// through the oracle (lost messages, leader churn). Armed after each
    /// dispatch or deferral, cancelled by completion.
    timeout: SimDuration,
    /// Base delay before re-dispatching after a `Retry` (stale routing).
    /// Zero re-dispatches immediately; non-zero turns the retry storm a
    /// migration causes into backpressure — each retry of the same
    /// command backs off exponentially from this base.
    retry_backoff: SimDuration,
    /// A retry the core chose to delay: `(attempt, due)`. Dispatched when
    /// the wake timer fires ([`Self::on_backoff`]); cleared by completion
    /// or response timeout.
    deferred: Option<(u32, SimTime)>,
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
    /// Client `id` of the deployment `cfg` describes, whose nodes `routes`
    /// names. `id` doubles as the message-id origin. The location cache
    /// starts as a copy of `cache`, the deployment's
    /// [`crate::deploy::client_cache`], unless caching is off; S-SMR has no
    /// oracle fallback, so its static map stays cached regardless.
    pub(crate) fn new(
        id: NodeId,
        cfg: &ClusterConfig,
        cache: &LocationCache,
        routes: Arc<RouteTable>,
    ) -> Self {
        let caching = cfg.client_location_cache || cfg.mode == Mode::SSmr;
        ClientCore {
            id,
            mode: cfg.mode,
            routes,
            seq: 0,
            cache: if caching { cache.clone() } else { LocationCache::default() },
            plan_version: 0,
            outstanding: None,
            timeout: cfg.client_timeout,
            retry_backoff: cfg.client_retry_backoff,
            deferred: None,
            caching,
            mids: Interned::default(),
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

    /// Whether a command is in flight.
    pub(crate) fn is_busy(&self) -> bool {
        self.outstanding.is_some()
    }

    /// Issues a new command (closed loop: at most one outstanding) and
    /// arms the response timeout.
    ///
    /// # Panics
    ///
    /// Panics if a command is already outstanding.
    pub(crate) fn issue(&mut self, kind: CommandKind<A>, port: &mut impl Port<A>) {
        assert!(self.outstanding.is_none(), "client is closed-loop: command already in flight");
        let cmd =
            Command { id: MsgId::new(self.id.as_raw() as u64, self.seq), client: self.id, kind };
        self.seq += 1;
        let issued_at = port.now();
        self.outstanding = Some(Outstanding { cmd: cmd.clone(), attempt: 0, issued_at });
        self.dispatch(cmd, 0, port);
        port.arm_retry(Some(self.timeout));
    }

    /// Dispatches (or re-dispatches) the outstanding command: straight to
    /// the partitions when the cache can route it, through the oracle
    /// otherwise.
    fn dispatch(&self, cmd: Command<A>, attempt: u32, port: &mut impl Port<A>) {
        if let CommandKind::Access { .. } = cmd.kind {
            if let Some(route) = compute_route(&cmd, |k| self.cache.get(&k).map(|&(p, _)| p)) {
                let mid = dispatch_mid(cmd.id, attempt);
                let keep = self.mode.keeps_moved_state() && route.is_multi_partition();
                // DS-SMR keep moves keys in every shard's map replica.
                let oracle = if keep { OracleDest::All } else { OracleDest::None };
                let (expected, target) = (route.expected, route.target);
                let payload = Payload::Access { cmd, attempt, expected, target, keep };
                return self.submit(mid, route.dests, oracle, payload, port);
            }
        }
        // Cold cache, stale cache, or create/delete: involve the oracle —
        // the one shard the query's routing function picks, rotating with
        // the attempt so `Retry` referrals reach the owner shard.
        let shard = exec_shard(&cmd, attempt, self.routes.oracle_shards());
        let mid = query_mid(cmd.id, attempt);
        self.submit(
            mid,
            Vec::new(),
            OracleDest::Shard(shard),
            Payload::Exec { cmd, attempt },
            port,
        );
    }

    /// Client-side multicast: a client is no group member, so it submits
    /// straight to every replica of every destination group, one body for
    /// all of them.
    fn submit(
        &self,
        mid: MsgId,
        partitions: Vec<PartitionId>,
        oracle: OracleDest,
        payload: Payload<A>,
        port: &mut impl Port<A>,
    ) {
        let dests = self.routes.mcast_groups(partitions, oracle);
        let payload = Arc::new(payload);
        let body =
            Arc::new(Inner::Wire(McastWire::Submit { mid, dests: Arc::clone(&dests), payload }));
        for &g in dests.iter() {
            for &node in self.routes.group_nodes(g) {
                port.send(node, Arc::clone(&body));
            }
        }
    }

    /// Handles a direct message from a server or the oracle; returns the
    /// outstanding command if this message finished it.
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "a client consumes only Prophecy, Reply, Ack and Retry; every other Direct variant is server-to-server traffic it must ignore, not enumerate"
    )]
    pub(crate) fn on_direct(
        &mut self,
        msg: Direct<A>,
        port: &mut impl Port<A>,
    ) -> Option<ClientEvent<A>> {
        let now = port.now();
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
                // A command that cannot execute (unknown variable,
                // duplicate create) completes unsuccessfully.
                if !ok && self.outstanding_cmd() == Some(cmd) {
                    return self.abandon(port);
                }
                None
            }
            Direct::Reply { cmd, reply, .. } => self.complete(cmd, Some(reply), now, port),
            Direct::Ack { cmd } => self.complete(cmd, None, now, port),
            Direct::Retry { cmd, attempt } => {
                self.on_retry(cmd, attempt, now, port);
                None
            }
            _ => None,
        }
    }

    /// A `Retry` of the current attempt: the cached locations of its keys
    /// were stale. Re-dispatches at once, or after a backoff; either way
    /// the response timeout restarts for the new attempt.
    fn on_retry(&mut self, cmd: MsgId, attempt: u32, now: SimTime, port: &mut impl Port<A>) {
        if !self.outstanding.as_ref().is_some_and(|o| o.cmd.id == cmd && o.attempt == attempt) {
            return; // a late one, of an earlier attempt or command
        }
        let ids = self.mids(port.metrics());
        port.metrics().incr(ids.cmd_retry, 1);
        port.metrics().record_at(ids.s_cmd_retry, now, 1.0);
        let Some(out) = self.outstanding.as_mut() else { return };
        for k in out.cmd.keys() {
            self.cache.remove(&k);
        }
        out.attempt += 1;
        let attempt = out.attempt;
        if self.retry_backoff > SimDuration::ZERO {
            // Stale routing usually means a migration is mid-flight:
            // back off instead of hammering the moving key. Delay
            // doubles per attempt of this command, capped at 64×.
            let due = now + self.retry_backoff.saturating_mul(1u64 << attempt.min(6));
            self.deferred = Some((attempt, due));
            port.metrics().incr(ids.cmd_retry_backoff, 1);
            port.arm_wake(due);
        } else {
            let cmd = out.cmd.clone();
            self.dispatch(cmd, attempt, port);
        }
        port.arm_retry(Some(self.timeout));
    }

    /// The outstanding command's id, if any.
    fn outstanding_cmd(&self) -> Option<MsgId> {
        self.outstanding.as_ref().map(|o| o.cmd.id)
    }

    /// Gives up on the outstanding command: it completes unsuccessfully
    /// (counted as `cmd.failed`), its response timeout is cancelled and the
    /// client can issue again. A late `Reply` or `Retry` for it fails the
    /// id check and is ignored.
    pub(crate) fn abandon(&mut self, port: &mut impl Port<A>) -> Option<ClientEvent<A>> {
        let out = self.outstanding.take()?;
        self.deferred = None;
        let ids = self.mids(port.metrics());
        port.metrics().incr(ids.cmd_failed, 1);
        port.arm_retry(None);
        Some(ClientEvent { cmd: out.cmd, reply: None, ok: false })
    }

    /// Completes the outstanding command `cmd` and cancels its response
    /// timeout; a late duplicate from an old attempt is ignored.
    fn complete(
        &mut self,
        cmd: MsgId,
        reply: Option<A::Reply>,
        now: SimTime,
        port: &mut impl Port<A>,
    ) -> Option<ClientEvent<A>> {
        let out = self.outstanding.take_if(|o| o.cmd.id == cmd)?;
        self.deferred = None;
        let ids = self.mids(port.metrics());
        let m = port.metrics();
        m.incr(ids.cmd_completed, 1);
        m.record_at(ids.s_cmd_completed, now, 1.0);
        m.observe(ids.cmd_latency, now.saturating_duration_since(out.issued_at));
        port.arm_retry(None);
        Some(ClientEvent { cmd: out.cmd, reply, ok: true })
    }

    /// The wake timer fired: dispatches the retry the core delayed for
    /// backpressure and re-arms the response timeout for it. A stale
    /// wake-up (the command already completed, timed out, or retried
    /// through another path) sends and arms nothing: the timeout running
    /// is a newer attempt's.
    pub(crate) fn on_backoff(&mut self, port: &mut impl Port<A>) {
        let now = port.now();
        // A wake-up before `due` is superseded: a later one is armed.
        let Some((attempt, _)) = self.deferred.take_if(|&mut (_, due)| now >= due) else { return };
        if let Some(out) = self.outstanding.as_ref().filter(|o| o.attempt == attempt) {
            self.dispatch(out.cmd.clone(), attempt, port);
            port.arm_retry(Some(self.timeout));
        }
    }

    /// The response timeout fired: re-dispatches the outstanding command
    /// through the oracle (its cached locations are dropped) and re-arms.
    pub(crate) fn on_timeout(&mut self, port: &mut impl Port<A>) {
        if !self.is_busy() {
            return;
        }
        self.deferred = None;
        let ids = self.mids(port.metrics());
        port.metrics().incr(ids.cmd_timeout, 1);
        let Some(out) = self.outstanding.as_mut() else { return };
        out.attempt += 1;
        for k in out.cmd.keys() {
            self.cache.remove(&k);
        }
        let (cmd, attempt) = (out.cmd.clone(), out.attempt);
        self.dispatch(cmd, attempt, port);
        port.arm_retry(Some(self.timeout));
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::deploy::client_cache;
    use crate::host::tests::{access, send, App, Recorder, Seen, CLIENT};

    const T0: SimTime = SimTime::from_secs(1);
    const TIMEOUT: SimDuration = SimDuration::from_millis(250);
    const BACKOFF: SimDuration = SimDuration::from_millis(2);

    /// Keys 0..8 alternate over two partitions of three replicas: partition
    /// 0 is nodes 0..3, partition 1 nodes 3..6, the oracle nodes 6..9.
    fn placement() -> BTreeMap<LocKey, PartitionId> {
        (0..8).map(|k| (LocKey(k), PartitionId((k % 2) as u32))).collect()
    }

    /// Client `id` of the deployment `config` describes (a 250 ms response
    /// timeout, warm caches unless it says otherwise).
    fn client_of(id: u32, config: &ClusterConfig) -> ClientCore<App> {
        let cache = client_cache(config, &placement());
        let routes = Arc::new(RouteTable::new(2, 1, 3));
        ClientCore::new(NodeId::from_raw(id), config, &cache, routes)
    }

    fn config(retry_backoff: SimDuration) -> ClusterConfig {
        ClusterConfig {
            client_timeout: TIMEOUT,
            client_retry_backoff: retry_backoff,
            warm_client_caches: true,
            ..ClusterConfig::default()
        }
    }

    fn cmd_id(seq: u32) -> MsgId {
        MsgId::new(CLIENT as u64, seq)
    }

    fn to_nodes(nodes: std::ops::Range<u32>, name: &str) -> Vec<Seen> {
        nodes.map(|n| send(n, name)).collect()
    }

    /// The response timeout, (re-)armed.
    fn armed() -> Seen {
        Seen::Retry(Some(TIMEOUT))
    }

    /// What a port sees from a call that reads the clock, sends `name` to
    /// `nodes` and then (re-)arms the response timeout. A warm client
    /// sends key 5 straight to partition 1: `dispatched(3..6, "Access")`.
    fn dispatched(nodes: std::ops::Range<u32>, name: &str) -> Vec<Seen> {
        [vec![Seen::Clock], to_nodes(nodes, name), vec![armed()]].concat()
    }

    /// A warm client with `access(0, &[5])` in flight and a clean port.
    fn busy(retry_backoff: SimDuration) -> (ClientCore<App>, Recorder) {
        let mut client = client_of(CLIENT, &config(retry_backoff));
        let mut port = Recorder::at(T0);
        client.issue(access(0, &[5]).kind, &mut port);
        assert_eq!(port.take(), dispatched(3..6, "Access"));
        (client, port)
    }

    #[test]
    fn the_response_timeout_is_armed_after_the_dispatch_sends() {
        busy(SimDuration::ZERO);
        // A cold client's query goes to the oracle first, then the same.
        let mut cold = client_of(
            CLIENT,
            &ClusterConfig { warm_client_caches: false, ..config(SimDuration::ZERO) },
        );
        let mut port = Recorder::at(T0);
        cold.issue(access(0, &[5]).kind, &mut port);
        assert_eq!(port.take(), dispatched(6..9, "Exec"));
    }

    #[test]
    fn an_ok_prophecy_and_a_late_duplicate_reply_leave_the_timeout_alone() {
        let (mut client, mut port) = busy(SimDuration::ZERO);
        let reply = |seq| Direct::Reply { cmd: cmd_id(seq), attempt: 0, reply: () };
        assert!(client.on_direct(reply(0), &mut port).is_some());
        port.take();
        client.issue(access(1, &[5]).kind, &mut port);
        port.take();

        // The first command's reply again, and an `ok` prophecy for the
        // second: the clock is read, nothing is sent, armed or cancelled.
        assert!(client.on_direct(reply(0), &mut port).is_none());
        let locations = vec![(LocKey(5), PartitionId(1))];
        let prophecy = Direct::Prophecy { cmd: cmd_id(1), ok: true, locations, version: 0 };
        assert!(client.on_direct(prophecy, &mut port).is_none());
        assert_eq!(port.take(), [Seen::Clock, Seen::Clock]);
        assert_eq!(client.outstanding_cmd(), Some(cmd_id(1)));
    }

    #[test]
    fn a_retry_re_arms_the_timeout_after_it_dispatches_again() {
        let (mut client, mut port) = busy(SimDuration::ZERO);
        let retry = Direct::Retry { cmd: cmd_id(0), attempt: 0 };
        assert!(client.on_direct(retry, &mut port).is_none());
        // Key 5's location was stale: the command asks the oracle.
        assert_eq!(port.take(), dispatched(6..9, "Exec"));
        assert_eq!(port.metrics.counter(mn::CMD_RETRY), 1);
        // A retry of an attempt already retried is late: nothing happens.
        let retry = Direct::Retry { cmd: cmd_id(0), attempt: 0 };
        assert!(client.on_direct(retry, &mut port).is_none());
        assert_eq!(port.take(), [Seen::Clock]);
    }

    #[test]
    fn a_deferred_retry_re_arms_the_timeout_after_the_wake_and_again_when_it_goes_out() {
        let (mut client, mut port) = busy(BACKOFF);
        let retry = Direct::Retry { cmd: cmd_id(0), attempt: 0 };
        assert!(client.on_direct(retry, &mut port).is_none());
        // Attempt 1 backs off twice the base.
        let due = T0 + BACKOFF.saturating_mul(2);
        assert_eq!(port.take(), [Seen::Clock, Seen::Wake(due), armed()]);
        assert_eq!(port.metrics.counter(mn::CMD_RETRY_BACKOFF), 1);

        port.now = due;
        client.on_backoff(&mut port);
        assert_eq!(port.take(), dispatched(6..9, "Exec"));
    }

    /// A wake-up whose deferred retry is gone sends nothing, and must not
    /// push back the response timeout of what is in flight now.
    #[test]
    fn a_stale_backoff_wake_up_leaves_the_timeout_alone() {
        let (mut client, mut port) = busy(BACKOFF);
        let retry = |seq| Direct::Retry { cmd: cmd_id(seq), attempt: 0 };
        assert!(client.on_direct(retry(0), &mut port).is_none());
        let due = T0 + BACKOFF.saturating_mul(2);
        // The first attempt's reply completes the command before the
        // wake-up, and the next command goes out.
        let reply = Direct::Reply { cmd: cmd_id(0), attempt: 0, reply: () };
        assert!(client.on_direct(reply, &mut port).is_some());
        client.issue(access(1, &[5]).kind, &mut port);
        port.take();
        port.now = due;
        client.on_backoff(&mut port);
        assert_eq!(port.take(), [Seen::Clock], "completion made the wake-up stale");

        // A response timeout overtakes the next deferred retry.
        assert!(client.on_direct(retry(1), &mut port).is_none());
        client.on_timeout(&mut port);
        port.take();
        port.now = due + BACKOFF.saturating_mul(2);
        client.on_backoff(&mut port);
        assert_eq!(port.take(), [Seen::Clock], "the timeout made the wake-up stale");
    }

    #[test]
    fn completion_cancels_the_timeout() {
        for ack in [false, true] {
            let (mut client, mut port) = busy(SimDuration::ZERO);
            port.now = T0 + SimDuration::from_millis(3);
            let msg = if ack {
                Direct::Ack { cmd: cmd_id(0) }
            } else {
                Direct::Reply { cmd: cmd_id(0), attempt: 0, reply: () }
            };
            let done = client.on_direct(msg, &mut port).expect("the command completed");
            assert_eq!((done.cmd.id, done.ok, done.reply.is_some()), (cmd_id(0), true, !ack));
            assert_eq!(port.take(), [Seen::Clock, Seen::Retry(None)]);
            assert!(!client.is_busy());
            assert_eq!(port.metrics.counter(mn::CMD_COMPLETED), 1);
        }
    }

    #[test]
    fn a_nok_prophecy_fails_the_command_and_cancels_the_timeout() {
        let (mut client, mut port) = busy(SimDuration::ZERO);
        let prophecy =
            Direct::Prophecy { cmd: cmd_id(0), ok: false, locations: vec![], version: 0 };
        let done = client.on_direct(prophecy, &mut port).expect("the command completed");
        assert_eq!((done.cmd.id, done.ok, done.reply), (cmd_id(0), false, None));
        assert_eq!(port.take(), [Seen::Clock, Seen::Retry(None)]);
        assert_eq!(port.metrics.counter(mn::CMD_FAILED), 1);
        assert_eq!(port.metrics.counter(mn::CMD_COMPLETED), 0);
    }

    #[test]
    fn a_response_timeout_asks_the_oracle_and_re_arms() {
        let (mut client, mut port) = busy(SimDuration::ZERO);
        client.on_timeout(&mut port);
        assert_eq!(port.take(), [to_nodes(6..9, "Exec"), vec![armed()]].concat());
        assert_eq!(port.metrics.counter(mn::CMD_TIMEOUT), 1);
        // An idle client's timeout (none is armed) does nothing.
        let reply = Direct::Reply { cmd: cmd_id(0), attempt: 1, reply: () };
        assert!(client.on_direct(reply, &mut port).is_some());
        port.take();
        client.on_timeout(&mut port);
        assert_eq!(port.take(), []);
        assert_eq!(port.metrics.counter(mn::CMD_TIMEOUT), 1);
    }

    /// A caller that stops waiting frees the client: the command it gave
    /// up on is a failure, its timeout is cancelled and the next one goes
    /// out.
    #[test]
    fn an_abandoned_command_fails_and_the_next_goes_out() {
        let (mut client, mut port) = busy(SimDuration::ZERO);
        let done = client.abandon(&mut port).expect("abandoning completes the command");
        assert_eq!((done.cmd.id, done.ok), (cmd_id(0), false));
        assert_eq!(port.take(), [Seen::Retry(None)]);
        assert!(!client.is_busy());
        assert_eq!(port.metrics.counter(mn::CMD_FAILED), 1);

        client.issue(access(1, &[5]).kind, &mut port);
        assert_eq!(port.take(), dispatched(3..6, "Access"));
        assert_eq!(client.outstanding_cmd(), Some(cmd_id(1)));
    }

    #[test]
    fn clients_start_from_their_own_copy_of_the_deployments_warm_cache() {
        let cold = ClusterConfig::default();
        assert!(client_cache(&cold, &placement()).is_empty());
        let config = config(SimDuration::ZERO);
        let (mut a, mut b) = (client_of(CLIENT, &config), client_of(CLIENT + 1, &config));
        assert_eq!((a.cache.len(), b.cache.len()), (8, 8));

        // Both route key 5 straight to partition 1 (nodes 3..6).
        let mut port = Recorder::at(T0);
        a.issue(access(0, &[5]).kind, &mut port);
        assert_eq!(port.take(), dispatched(3..6, "Access"));
        // A stale-routing `Retry` drops key 5 from `a`'s cache alone: `a`
        // asks the oracle (nodes 6..9), `b` still goes straight there.
        let retry = Direct::Retry { cmd: cmd_id(0), attempt: 0 };
        assert!(a.on_direct(retry, &mut port).is_none());
        assert_eq!(port.take()[1..4], to_nodes(6..9, "Exec"));
        assert_eq!((a.cache.len(), b.cache.len()), (7, 8));
        b.issue(access(0, &[5]).kind, &mut port);
        assert_eq!(port.take()[1..4], to_nodes(3..6, "Access"));
    }
}
