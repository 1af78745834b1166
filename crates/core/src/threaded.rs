//! A real-thread deployment of the protocol cores.
//!
//! Everything else in this workspace runs on the deterministic simulator,
//! but the protocol state machines ([`ServerCore`], [`OracleCore`],
//! [`ClientCore`], [`McastMember`]) are sans-io, so they run unchanged on
//! any transport. This module wires them to OS threads and crossbeam
//! channels: one thread per replica, lossless FIFO channels between them
//! (what TCP would provide), wall-clock timers.
//!
//! This is the deployment a downstream user embeds in a real binary; the
//! simulator remains the tool for experiments (deterministic, fault
//! injection, simulated time). The integration test at the bottom runs a
//! full cluster — Paxos, atomic multicast, oracle, borrowing — on real
//! threads.

// detlint::allow-file(D001): this module IS the wall-clock deployment — real threads and real timers by design; determinism is the simulator's job, not this file's
// detlint::allow-file(W001, W002, W003): this module is the one sanctioned weld between the sans-io cores and the host OS (threads, channels, wall clocks); every weld below is inventoried in results/weld_map.json as the sans-IO work-list, and the CI ratchet keeps the count from growing

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dynastar_runtime::hash::FastHashMap;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dynastar_amcast::{Delivery, GroupId, McastMember, McastWire, MemberId, MsgId, Topology};
use dynastar_runtime::{Metrics, NodeId, SimTime};
use parking_lot::Mutex;

use crate::client::{ClientCore, ClientEvent};
use crate::command::{Application, CommandKind, LocKey, Mode, PartitionId, VarId};
use crate::oracle::{OracleConfig, OracleCore};
use crate::payload::{Destination, Direct, Effect, OracleDest, Payload};
use crate::server::{ServerConfig, ServerCore};

/// Messages between threads: multicast wires or direct protocol messages.
enum Wire<A: Application> {
    Mcast(McastWire<Arc<Payload<A>>>),
    Direct(Direct<A>),
}

/// Address book: a sender for every replica thread and every client.
/// Clients register after the replica threads start, so their map is
/// interior-mutable.
struct Fabric<A: Application> {
    replicas: FastHashMap<MemberId, Sender<Wire<A>>>,
    clients: Mutex<FastHashMap<NodeId, Sender<Direct<A>>>>,
    groups: Vec<Vec<MemberId>>,
    oracle_group: GroupId,
    /// Messages dropped because the addressee was unknown or its channel
    /// was disconnected (thread exited). A lossy fabric is the contract —
    /// the protocol retries — but the count must be observable so an
    /// operator can tell "peer shut down" from "protocol stalled".
    dropped_sends: AtomicU64,
}

impl<A: Application> Fabric<A> {
    fn group_members(&self, g: GroupId) -> &[MemberId] {
        self.groups.get(g.0 as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Routes `wire` to `m`, counting (never panicking on) unknown
    /// members and disconnected channels.
    fn send_replica(&self, m: MemberId, wire: Wire<A>) {
        match self.replicas.get(&m) {
            Some(tx) if tx.send(wire).is_ok() => {}
            _ => {
                self.dropped_sends.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn send_direct(&self, dest: Destination, msg: Direct<A>) {
        match dest {
            Destination::Partition(p) => {
                for &m in self.group_members(GroupId(p.0)) {
                    self.send_replica(m, Wire::Direct(msg.clone()));
                }
            }
            Destination::Oracle => {
                for &m in self.group_members(self.oracle_group) {
                    self.send_replica(m, Wire::Direct(msg.clone()));
                }
            }
            Destination::Client(node) => {
                let tx = self.clients.lock().get(&node).cloned();
                match tx {
                    Some(tx) if tx.send(msg).is_ok() => {}
                    _ => {
                        self.dropped_sends.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    fn submit(&self, mid: MsgId, groups: Vec<GroupId>, payload: Arc<Payload<A>>) {
        for &g in &groups {
            for &m in self.group_members(g) {
                self.send_replica(
                    m,
                    Wire::Mcast(McastWire::Submit {
                        mid,
                        dests: groups.clone(),
                        payload: Arc::clone(&payload),
                    }),
                );
            }
        }
    }
}

/// Which protocol core a replica thread hosts.
// One per thread (never collected in bulk), so variant size skew is moot.
#[allow(clippy::large_enum_variant)]
enum Role<A: Application> {
    Partition(ServerCore<A>),
    Oracle(OracleCore<A>),
}

/// Per-thread replica driver.
struct ReplicaThread<A: Application> {
    member: McastMember<Arc<Payload<A>>>,
    role: Role<A>,
    rx: Receiver<Wire<A>>,
    fabric: Arc<Fabric<A>>,
    metrics: Arc<Mutex<Metrics>>,
    epoch: Instant,
    stop: Arc<AtomicBool>,
    /// Pending oracle plan publication (deadline, precomputed effect).
    plan_due: Option<Instant>,
}

impl<A: Application> ReplicaThread<A> {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn run(mut self) {
        let tick = Duration::from_millis(1);
        let mut next_tick = Instant::now() + tick;
        while !self.stop.load(Ordering::Relaxed) {
            let timeout = next_tick.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(timeout) {
                Ok(Wire::Mcast(wire)) => {
                    let out = self.member.on_message(wire);
                    self.absorb(out);
                }
                Ok(Wire::Direct(d)) => {
                    let now = self.now();
                    let effects = {
                        let mut m = self.metrics.lock();
                        match &mut self.role {
                            Role::Partition(c) => c.on_direct(d, now, &mut m),
                            Role::Oracle(c) => c.on_direct(d, now, &mut m),
                        }
                    };
                    self.apply(effects);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if Instant::now() >= next_tick {
                next_tick += tick;
                let out = self.member.tick();
                self.absorb(out);
                let now = self.now();
                let effects = {
                    let mut m = self.metrics.lock();
                    match &mut self.role {
                        Role::Oracle(c) => c.on_tick(now, &mut m),
                        Role::Partition(_) => Vec::new(),
                    }
                };
                self.apply(effects);
                if self.plan_due.map(|d| Instant::now() >= d).unwrap_or(false) {
                    self.plan_due = None;
                    let now = self.now();
                    let effects = {
                        let mut m = self.metrics.lock();
                        match &mut self.role {
                            Role::Oracle(c) => c.on_plan_timer(now, &mut m),
                            Role::Partition(_) => Vec::new(),
                        }
                    };
                    self.apply(effects);
                }
            }
        }
    }

    fn absorb(&mut self, out: dynastar_amcast::McastOutput<Arc<Payload<A>>>) {
        for (to, wire) in out.outgoing {
            self.fabric.send_replica(to, Wire::Mcast(wire));
        }
        let mut deliveries: std::collections::VecDeque<Delivery<Arc<Payload<A>>>> =
            out.delivered.into();
        while let Some(d) = deliveries.pop_front() {
            let now = self.now();
            let effects = {
                let mut m = self.metrics.lock();
                match &mut self.role {
                    Role::Partition(c) => c.on_deliver(d.payload, now, &mut m),
                    Role::Oracle(c) => c.on_deliver(d.payload, now, &mut m),
                }
            };
            for eff in effects {
                match eff {
                    Effect::Multicast { mid, partitions, oracle, payload } => {
                        let groups = resolve_groups(&self.fabric, &partitions, oracle);
                        let out = self.member.submit(mid, groups, Arc::new(payload));
                        for (to, wire) in out.outgoing {
                            self.fabric.send_replica(to, Wire::Mcast(wire));
                        }
                        deliveries.extend(out.delivered);
                    }
                    other => self.apply_one(other),
                }
            }
        }
    }

    fn apply(&mut self, effects: Vec<Effect<A>>) {
        for eff in effects {
            match eff {
                Effect::Multicast { mid, partitions, oracle, payload } => {
                    let groups = resolve_groups(&self.fabric, &partitions, oracle);
                    let out = self.member.submit(mid, groups, Arc::new(payload));
                    self.absorb(out);
                }
                other => self.apply_one(other),
            }
        }
    }

    fn apply_one(&mut self, eff: Effect<A>) {
        match eff {
            Effect::Send { to, msg } => self.fabric.send_direct(to, msg),
            Effect::SchedulePlan { after } => {
                self.plan_due = Some(Instant::now() + Duration::from_micros(after.as_micros()));
            }
            Effect::Wake { .. } => {
                // Threaded replicas are driven by real time; the next tick
                // re-pumps the queue, so an explicit wake-up is a no-op
                // (service_time is a simulation-only model anyway).
            }
            // detlint::allow(P003): both callers (absorb, apply) split Multicast off before calling apply_one; a silent drop here would lose a command
            Effect::Multicast { .. } => unreachable!("handled by caller"),
        }
    }
}

fn resolve_groups<A: Application>(
    fabric: &Fabric<A>,
    partitions: &[PartitionId],
    oracle: OracleDest,
) -> Vec<GroupId> {
    let mut gs: Vec<GroupId> = partitions.iter().map(|p| GroupId(p.0)).collect();
    // The threaded harness deploys a single oracle shard, so `All` and
    // `Shard(_)` both resolve to the one oracle group.
    if oracle != OracleDest::None {
        gs.push(fabric.oracle_group);
    }
    gs.sort_unstable();
    gs.dedup();
    gs
}

/// Configuration for a threaded deployment.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Number of partitions.
    pub partitions: u32,
    /// Replicas per group.
    pub replicas: usize,
    /// Replication scheme.
    pub mode: Mode,
    /// Oracle repartitioning threshold.
    pub repartition_threshold: u64,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            partitions: 2,
            replicas: 3,
            mode: Mode::Dynastar,
            repartition_threshold: u64::MAX,
        }
    }
}

/// A DynaStar cluster running on real threads.
///
/// Build with [`ThreadedCluster::start`], issue commands with a
/// [`ThreadedClient`] handle, shut down with
/// [`ThreadedCluster::shutdown`] (also done on drop).
///
/// # Example
///
/// See the `threaded_cluster_end_to_end` test in this module or
/// `examples/quickstart.rs` for the simulated twin.
pub struct ThreadedCluster<A: Application> {
    fabric: Arc<Fabric<A>>,
    metrics: Arc<Mutex<Metrics>>,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    next_client: u32,
    epoch: Instant,
    mode: Mode,
    placement: Vec<(LocKey, PartitionId)>,
}

impl<A: Application> ThreadedCluster<A> {
    /// Starts the replica threads with the given initial placement and
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if an initial variable's key has no placement.
    pub fn start(
        config: ThreadedConfig,
        placement: Vec<(LocKey, PartitionId)>,
        initial_vars: Vec<(VarId, A::Value)>,
    ) -> Self {
        let k = config.partitions as usize;
        let topo = Topology::uniform(k + 1, config.replicas);
        let oracle_group = GroupId(k as u32);
        let metrics = Arc::new(Mutex::new(Metrics::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();

        let mut txs: FastHashMap<MemberId, Sender<Wire<A>>> = FastHashMap::default();
        let mut rxs: FastHashMap<MemberId, Receiver<Wire<A>>> = FastHashMap::default();
        let mut groups: Vec<Vec<MemberId>> = Vec::new();
        for g in 0..=k {
            let mut members = Vec::new();
            for r in 0..config.replicas {
                let m = MemberId::new(GroupId(g as u32), r);
                let (tx, rx) = unbounded();
                txs.insert(m, tx);
                rxs.insert(m, rx);
                members.push(m);
            }
            groups.push(members);
        }
        let fabric = Arc::new(Fabric {
            replicas: txs,
            clients: Mutex::new(FastHashMap::default()),
            groups,
            oracle_group,
            dropped_sends: AtomicU64::new(0),
        });

        let placement_map: FastHashMap<LocKey, PartitionId> = placement.iter().copied().collect();
        let mut vars_by_part: Vec<Vec<(VarId, A::Value)>> = vec![Vec::new(); k];
        for (v, val) in initial_vars {
            let p = placement_map
                .get(&A::locality(v))
                .unwrap_or_else(|| panic!("initial var {v} has unplaced key"));
            vars_by_part[p.0 as usize].push((v, val));
        }

        let mut handles = Vec::new();
        // Group k is the oracle, which owns no vars — `g` is a group id
        // first and a `vars_by_part` index only for partition groups.
        #[allow(clippy::needless_range_loop)]
        for g in 0..=k {
            for r in 0..config.replicas {
                let m = MemberId::new(GroupId(g as u32), r);
                let role = if g < k {
                    let mut core = ServerCore::<A>::new(
                        PartitionId(g as u32),
                        config.mode,
                        ServerConfig {
                            record_metrics: r == 0,
                            collect_hints: config.mode.optimizes(),
                            ..ServerConfig::default()
                        },
                    );
                    core.set_replica(r as u32, config.replicas as u32);
                    core.preload(
                        placement.iter().filter(|&&(_, p)| p.0 as usize == g).map(|&(kk, _)| kk),
                        vars_by_part[g].iter().cloned(),
                    );
                    Role::Partition(core)
                } else {
                    let mut core = OracleCore::<A>::new(OracleConfig {
                        partitions: config.partitions,
                        mode: config.mode,
                        repartition_threshold: config.repartition_threshold,
                        record_metrics: r == 0,
                        ..OracleConfig::default()
                    });
                    core.preload_map(placement.iter().copied());
                    Role::Oracle(core)
                };
                let thread = ReplicaThread {
                    member: McastMember::new(m, topo.clone()),
                    role,
                    rx: rxs.remove(&m).expect("receiver"),
                    fabric: Arc::clone(&fabric),
                    metrics: Arc::clone(&metrics),
                    epoch,
                    stop: Arc::clone(&stop),
                    plan_due: None,
                };
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("dynastar-{m}"))
                        .spawn(move || thread.run())
                        .expect("spawn replica thread"),
                );
            }
        }

        ThreadedCluster {
            fabric,
            metrics,
            stop,
            handles,
            next_client: 1_000_000, // distinct from replica "node" space
            epoch,
            mode: config.mode,
            placement,
        }
    }

    /// Creates a synchronous client handle.
    pub fn client(&mut self) -> ThreadedClient<A> {
        let id = NodeId::from_raw(self.next_client);
        self.next_client += 1;
        let (tx, rx) = unbounded();
        self.fabric.clients.lock().insert(id, tx);
        let mut core = ClientCore::new(id, self.mode);
        core.preload_cache(self.placement.iter().copied());
        ThreadedClient { core, rx, fabric: Arc::clone(&self.fabric), epoch: self.epoch }
    }

    /// A snapshot of the merged metrics.
    pub fn metrics(&self) -> Arc<Mutex<Metrics>> {
        Arc::clone(&self.metrics)
    }

    /// Messages the fabric dropped so far (unknown addressee or a
    /// disconnected channel — e.g. sends racing shutdown). Non-zero while
    /// threads are being stopped is normal; non-zero in steady state
    /// means a replica thread died.
    pub fn dropped_sends(&self) -> u64 {
        self.fabric.dropped_sends.load(Ordering::Relaxed)
    }

    /// Stops all replica threads and joins them.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl<A: Application> Drop for ThreadedCluster<A> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A blocking client for a [`ThreadedCluster`].
pub struct ThreadedClient<A: Application> {
    core: ClientCore<A>,
    rx: Receiver<Direct<A>>,
    fabric: Arc<Fabric<A>>,
    epoch: Instant,
}

impl<A: Application> ThreadedClient<A> {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Executes one command, blocking until its reply (or `None` after
    /// `timeout`).
    pub fn execute(&mut self, kind: CommandKind<A>, timeout: Duration) -> Option<Option<A::Reply>> {
        let deadline = Instant::now() + timeout;
        let effects = self.core.issue(kind, self.now());
        self.dispatch(effects);
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let msg = match self.rx.recv_timeout(remaining) {
                Ok(m) => m,
                Err(_) => return None,
            };
            let now = self.now();
            let (effects, event) = {
                // Client-side metrics are thread-local and merged lazily;
                // use a scratch registry (clients record latency/counters).
                let mut scratch = Metrics::new();
                self.core.on_direct(msg, now, &mut scratch)
            };
            self.dispatch(effects);
            if let Some(ClientEvent::Completed { reply, ok, .. }) = event {
                return Some(if ok { reply } else { None });
            }
        }
    }

    fn dispatch(&mut self, effects: Vec<Effect<A>>) {
        for eff in effects {
            match eff {
                Effect::Multicast { mid, partitions, oracle, payload } => {
                    let groups = resolve_groups(&self.fabric, &partitions, oracle);
                    self.fabric.submit(mid, groups, Arc::new(payload));
                }
                Effect::Send { to, msg } => self.fabric.send_direct(to, msg),
                Effect::SchedulePlan { .. } | Effect::Wake { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    struct Counters;
    impl Application for Counters {
        type Op = i64;
        type Value = i64;
        type Reply = Vec<(VarId, i64)>;
        fn locality(var: VarId) -> LocKey {
            LocKey(var.0)
        }
        fn execute(op: &i64, vars: &mut BTreeMap<VarId, Option<i64>>) -> Self::Reply {
            vars.iter_mut()
                .map(|(&v, val)| {
                    let next = val.unwrap_or(0) + op;
                    *val = Some(next);
                    (v, next)
                })
                .collect()
        }
    }

    #[test]
    fn threaded_cluster_end_to_end() {
        let placement: Vec<(LocKey, PartitionId)> =
            (0..10u64).map(|k| (LocKey(k), PartitionId((k % 2) as u32))).collect();
        let vars: Vec<(VarId, i64)> = (0..10u64).map(|v| (VarId(v), 0)).collect();
        let mut cluster = ThreadedCluster::<Counters>::start(
            ThreadedConfig { partitions: 2, replicas: 3, ..Default::default() },
            placement,
            vars,
        );
        let mut client = cluster.client();
        let timeout = Duration::from_secs(10);

        // Single-partition command.
        let r = client
            .execute(CommandKind::Access { op: 1, vars: vec![VarId(0)] }, timeout)
            .expect("reply within timeout")
            .expect("ok");
        assert_eq!(r, vec![(VarId(0), 1)]);

        // Multi-partition borrow across real threads.
        let r = client
            .execute(CommandKind::Access { op: 1, vars: vec![VarId(0), VarId(1)] }, timeout)
            .expect("reply within timeout")
            .expect("ok");
        assert_eq!(r, vec![(VarId(0), 2), (VarId(1), 1)]);

        // Sequential consistency from one client's perspective.
        for i in 0..10 {
            let r = client
                .execute(CommandKind::Access { op: 1, vars: vec![VarId(5)] }, timeout)
                .expect("reply within timeout")
                .expect("ok");
            assert_eq!(r, vec![(VarId(5), i + 1)]);
        }
        cluster.shutdown();
    }

    #[test]
    fn threaded_clients_in_parallel() {
        let placement: Vec<(LocKey, PartitionId)> =
            (0..4u64).map(|k| (LocKey(k), PartitionId((k % 2) as u32))).collect();
        let vars: Vec<(VarId, i64)> = (0..4u64).map(|v| (VarId(v), 0)).collect();
        let mut cluster = ThreadedCluster::<Counters>::start(
            ThreadedConfig { partitions: 2, replicas: 2, ..Default::default() },
            placement,
            vars,
        );
        // Two clients on distinct vars, driven from two threads.
        let mut c1 = cluster.client();
        let mut c2 = cluster.client();
        let t1 = std::thread::spawn(move || {
            for _ in 0..20 {
                c1.execute(
                    CommandKind::Access { op: 1, vars: vec![VarId(0)] },
                    Duration::from_secs(10),
                )
                .expect("reply")
                .expect("ok");
            }
        });
        let t2 = std::thread::spawn(move || {
            for _ in 0..20 {
                c2.execute(
                    CommandKind::Access { op: 1, vars: vec![VarId(1)] },
                    Duration::from_secs(10),
                )
                .expect("reply")
                .expect("ok");
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
        cluster.shutdown();
    }
}
