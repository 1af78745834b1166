//! A real-thread deployment of the protocol cores.
//!
//! Everything else in this workspace runs on the deterministic simulator,
//! but the hosts (`host.rs`) are sans-io, so they run unchanged on any
//! transport. This module drives them from OS threads: one thread per
//! replica, lossless FIFO channels between them (what TCP would provide),
//! wall-clock time, and the two deadlines a core can ask for. What a
//! replica does with a message, a tick or a deadline is the host's
//! business and identical to the simulated deployment; so is how a
//! [`ClusterConfig`] becomes cores (`deploy::build_hosts`).
//!
//! This is the deployment a downstream user embeds in a real binary; the
//! simulator remains the tool for experiments (deterministic, fault
//! injection, simulated time). Threads neither crash nor lose messages,
//! so there is no ARQ and no recovery here.

// detlint::allow-file(D001): this module IS the wall-clock deployment — real threads and real timers by design; determinism is the simulator's job, not this file's
// detlint::allow-file(W001, W003): this module is the one sanctioned weld between the sans-io hosts and the OS (threads, channels, wall clocks); every weld below is inventoried in results/weld_map.json as the sans-IO work-list, and the CI ratchet keeps the count from growing

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dynastar_runtime::hash::FastHashMap;
use dynastar_runtime::{Metrics, NodeId, SimDuration, SimTime};
use parking_lot::{Mutex, MutexGuard};

use crate::client::{ClientEvent, LocationCache};
use crate::command::{Application, CommandKind, LocKey, PartitionId, VarId};
use crate::deploy::{build_hosts, client_cache, client_host, ClusterConfig};
use crate::host::{unwrap_released, ClientHost, Inner, Port, ReplicaHost, RouteTable, TICK};

type Inbox<A> = Sender<Arc<Inner<A>>>;

/// What every thread shares: the address book, the clock's origin and the
/// metrics registry. Clients register after the replica threads start, so
/// their map is interior-mutable.
struct Fabric<A: Application> {
    /// Replica inboxes, indexed by node id.
    replicas: Vec<Inbox<A>>,
    clients: Mutex<FastHashMap<NodeId, Inbox<A>>>,
    metrics: Arc<Mutex<Metrics>>,
    epoch: Instant,
    /// Messages dropped because the addressee was unknown or its channel
    /// was disconnected (thread exited). A lossy fabric is the contract —
    /// the protocol retries — but the count must be observable so an
    /// operator can tell "peer shut down" from "protocol stalled".
    dropped_sends: AtomicU64,
}

impl<A: Application> Fabric<A> {
    /// This thread's [`Port`] for one event. It holds the registry's lock
    /// until dropped; nothing a host does through it blocks.
    fn port<'a>(&'a self, due: &'a mut Deadlines) -> ThreadPort<'a, A> {
        ThreadPort { fabric: self, metrics: self.metrics.lock(), due }
    }

    /// The wall-clock instant at which the cores' clock reads `at`.
    fn instant_of(&self, at: SimTime) -> Instant {
        self.epoch + Duration::from_micros(at.as_micros())
    }
}

/// The two deadlines a core can ask its driver for. Arming one supersedes
/// its pending value, like re-arming a simulation timer.
#[derive(Default)]
struct Deadlines {
    plan: Option<Instant>,
    wake: Option<Instant>,
}

/// Clears and reports `slot` if it has passed.
fn fired(slot: &mut Option<Instant>, now: Instant) -> bool {
    let due = slot.is_some_and(|at| now >= at);
    if due {
        *slot = None;
    }
    due
}

struct ThreadPort<'a, A: Application> {
    fabric: &'a Fabric<A>,
    metrics: MutexGuard<'a, Metrics>,
    due: &'a mut Deadlines,
}

impl<A: Application> Port<A> for ThreadPort<'_, A> {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.fabric.epoch.elapsed().as_micros() as u64)
    }

    fn metrics(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Counts (never panics on) unknown addressees and closed channels.
    fn send(&mut self, to: NodeId, body: Arc<Inner<A>>) {
        let sent = match self.fabric.replicas.get(to.as_raw() as usize) {
            Some(tx) => tx.send(body).is_ok(),
            None => self.fabric.clients.lock().get(&to).is_some_and(|tx| tx.send(body).is_ok()),
        };
        if !sent {
            self.fabric.dropped_sends.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn arm_plan(&mut self, after: SimDuration) {
        self.due.plan = Some(self.fabric.instant_of(self.now() + after));
    }

    fn arm_wake(&mut self, at: SimTime) {
        self.due.wake = Some(self.fabric.instant_of(at));
    }
}

/// Per-thread replica driver.
struct ReplicaThread<A: Application> {
    host: ReplicaHost<A>,
    rx: Receiver<Arc<Inner<A>>>,
    fabric: Arc<Fabric<A>>,
    stop: Arc<AtomicBool>,
}

impl<A: Application> ReplicaThread<A> {
    fn run(mut self) {
        let tick = Duration::from_micros(TICK.as_micros());
        let mut next_tick = Instant::now() + tick;
        let mut due = Deadlines::default();
        while !self.stop.load(Ordering::Relaxed) {
            let next = [due.plan, due.wake].into_iter().flatten().fold(next_tick, Instant::min);
            match self.rx.recv_timeout(next.saturating_duration_since(Instant::now())) {
                Ok(body) => self.host.on_body(body, &mut self.fabric.port(&mut due)),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            let now = Instant::now();
            if now >= next_tick {
                next_tick += tick;
                self.host.on_tick(&mut self.fabric.port(&mut due));
            }
            if fired(&mut due.plan, now) {
                self.host.on_plan_timer(&mut self.fabric.port(&mut due));
            }
            if fired(&mut due.wake, now) {
                self.host.on_wake(&mut self.fabric.port(&mut due));
            }
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
    routes: Arc<RouteTable>,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    next_client: u32,
    config: ClusterConfig,
    /// What each new client's location cache starts as.
    client_cache: LocationCache,
}

impl<A: Application> ThreadedCluster<A> {
    /// Starts the replica threads with the given initial placement and
    /// state. `config` means what it means to the simulated cluster, less
    /// its `seed` and `net`.
    ///
    /// # Panics
    ///
    /// Panics if an initial variable's key has no placement.
    pub fn start(
        config: ClusterConfig,
        placement: Vec<(LocKey, PartitionId)>,
        initial_vars: Vec<(VarId, A::Value)>,
    ) -> Self {
        let placement: BTreeMap<LocKey, PartitionId> = placement.into_iter().collect();
        let (routes, hosts) = build_hosts::<A>(&config, &placement, initial_vars);
        let (replicas, inboxes): (Vec<_>, Vec<_>) = hosts.iter().map(|_| unbounded()).unzip();
        let fabric = Arc::new(Fabric {
            replicas,
            clients: Mutex::new(FastHashMap::default()),
            metrics: Arc::new(Mutex::new(Metrics::new())),
            epoch: Instant::now(),
            dropped_sends: AtomicU64::new(0),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let spawn = |(host, rx): (ReplicaHost<A>, _)| {
            let name = format!("dynastar-{}", host.me());
            let thread =
                ReplicaThread { host, rx, fabric: Arc::clone(&fabric), stop: Arc::clone(&stop) };
            std::thread::Builder::new()
                .name(name)
                .spawn(move || thread.run())
                .expect("spawn replica thread")
        };
        let handles = hosts.into_iter().zip(inboxes).map(spawn).collect();
        // Client ids start well clear of the replicas' node ids.
        let client_cache = client_cache(&config, &placement);
        ThreadedCluster {
            fabric,
            routes,
            stop,
            handles,
            next_client: 1_000_000,
            config,
            client_cache,
        }
    }

    /// Creates a synchronous client handle.
    pub fn client(&mut self) -> ThreadedClient<A> {
        let id = NodeId::from_raw(self.next_client);
        self.next_client += 1;
        let (tx, rx) = unbounded();
        self.fabric.clients.lock().insert(id, tx);
        let host = client_host(id, &self.config, &self.client_cache, Arc::clone(&self.routes));
        ThreadedClient { host, rx, fabric: Arc::clone(&self.fabric), due: Deadlines::default() }
    }

    /// The metrics registry every replica and client records into.
    pub fn metrics(&self) -> Arc<Mutex<Metrics>> {
        Arc::clone(&self.fabric.metrics)
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
    host: ClientHost<A>,
    rx: Receiver<Arc<Inner<A>>>,
    fabric: Arc<Fabric<A>>,
    /// Only `wake` is ever armed: the retry backoff.
    due: Deadlines,
}

impl<A: Application> ThreadedClient<A> {
    /// Executes one command, blocking until its reply (or `None` after
    /// `timeout`, when the command is abandoned and the client is free to
    /// execute the next).
    pub fn execute(&mut self, kind: CommandKind<A>, timeout: Duration) -> Option<Option<A::Reply>> {
        let deadline = Instant::now() + timeout;
        self.host.issue(kind, &mut self.fabric.port(&mut self.due));
        loop {
            let next = self.due.wake.map_or(deadline, |at| at.min(deadline));
            match self.rx.recv_timeout(next.saturating_duration_since(Instant::now())) {
                Ok(body) => {
                    let Inner::Direct(msg) = unwrap_released(body) else { continue };
                    let event = self.host.on_direct(msg, &mut self.fabric.port(&mut self.due));
                    if let Some(ClientEvent::Completed { reply, ok, .. }) = event {
                        return Some(if ok { reply } else { None });
                    }
                }
                Err(RecvTimeoutError::Timeout) if Instant::now() < deadline => {
                    if fired(&mut self.due.wake, Instant::now()) {
                        self.host.on_backoff(&mut self.fabric.port(&mut self.due));
                    }
                }
                Err(_) => {
                    self.host.abandon(&mut self.fabric.port(&mut self.due));
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            ClusterConfig { partitions: 2, replicas: 3, ..Default::default() },
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
            ClusterConfig { partitions: 2, replicas: 2, ..Default::default() },
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
