//! Replicas that start from the *same* `Arc<ChirperUser>`s stay independent.
//!
//! A deployment hands every replica of a partition clones of one value
//! vector, so replicas begin by sharing each user's allocation. Execution
//! moves values through the application and `Arc::make_mut` updates them in
//! place once a replica owns its copy — which is only sound if one replica's
//! in-place update can never show through another replica's handle.

use std::sync::Arc;

use dynastar_amcast::MsgId;
use dynastar_core::server::ServerCore;
use dynastar_core::{Command, CommandKind, Mode, PartitionId, Payload, ServerConfig, VarId};
use dynastar_runtime::{Metrics, NodeId, SimTime};
use dynastar_workloads::chirper::{Chirper, ChirperOp, ChirperUser, TIMELINE_CAP};

const USERS: u64 = 40;
/// User 0 is the hub: users 1..=30 follow it. User 35 follows user 31.
const HUB_FOLLOWERS: u64 = 30;

fn users() -> Vec<(VarId, Arc<ChirperUser>)> {
    (0..USERS)
        .map(|u| {
            let mut user = ChirperUser::default();
            match u {
                0 => user.followers = (1..=HUB_FOLLOWERS).collect(),
                1..=HUB_FOLLOWERS => user.follows = vec![0],
                31 => user.followers = vec![35],
                35 => user.follows = vec![31],
                _ => {}
            }
            (Chirper::var(u), Arc::new(user))
        })
        .collect()
}

fn replica(vars: &[(VarId, Arc<ChirperUser>)]) -> ServerCore<Chirper> {
    let mut core = ServerCore::new(PartitionId(0), Mode::Dynastar, ServerConfig::default());
    core.preload((0..USERS).map(Chirper::key), vars.iter().cloned());
    core
}

/// Hub posts (more than a timeline holds, so the cap's pop is exercised),
/// a small post and timeline reads in between.
fn commands() -> Vec<Payload<Chirper>> {
    let post = |seq: u32, author: u64, followers: Vec<u64>| {
        let vars: Vec<VarId> = std::iter::once(author).chain(followers).map(Chirper::var).collect();
        (seq, ChirperOp::Post { user: author, text: format!("post #{seq}") }, vars)
    };
    let read =
        |seq: u32, user: u64| (seq, ChirperOp::GetTimeline { user }, vec![Chirper::var(user)]);
    let mut script = Vec::new();
    for seq in 0..(TIMELINE_CAP as u32 + 5) {
        script.push(post(3 * seq, 0, (1..=HUB_FOLLOWERS).collect()));
        script.push(read(3 * seq + 1, 1 + u64::from(seq) % HUB_FOLLOWERS));
        script.push(post(3 * seq + 2, 31, vec![35]));
    }
    script
        .into_iter()
        .map(|(seq, op, vars)| Payload::Access {
            expected: vars.iter().map(|&v| (v, PartitionId(0))).collect(),
            cmd: Command {
                id: MsgId::new(7, seq),
                client: NodeId::from_raw(9),
                kind: CommandKind::Access { op, vars },
            },
            attempt: 0,
            target: PartitionId(0),
            keep: false,
        })
        .collect()
}

fn run(core: &mut ServerCore<Chirper>) {
    let mut metrics = Metrics::new();
    for (i, payload) in commands().into_iter().enumerate() {
        let _ = core.on_deliver(payload, SimTime::from_micros(i as u64), &mut metrics);
    }
}

fn state(core: &ServerCore<Chirper>) -> Vec<ChirperUser> {
    (0..USERS).map(|u| (**core.value_of(Chirper::var(u)).expect("user exists")).clone()).collect()
}

#[test]
fn replicas_sharing_initial_values_stay_identical_and_independent() {
    let shared = users();
    let mut replicas = [replica(&shared), replica(&shared), replica(&shared)];
    let initial = state(&replicas[0]);
    // The control never shares an allocation with anyone.
    let mut control = replica(&users());
    run(&mut control);
    let expected = state(&control);
    assert_eq!(expected[1].timeline.len(), TIMELINE_CAP, "hub posts must fill a timeline");
    assert_ne!(expected, initial);

    // One replica at a time runs the whole script; whoever has not run yet
    // must still hold exactly the initial state.
    for done in 0..replicas.len() {
        run(&mut replicas[done]);
        assert_eq!(state(&replicas[done]), expected, "replica {done} diverged from the control");
        for (later, core) in replicas.iter().enumerate().skip(done + 1) {
            assert_eq!(
                state(core),
                initial,
                "replica {done}'s execution shows through replica {later}'s values"
            );
        }
    }
    for (u, original) in &shared {
        assert_eq!(**original, initial[u.0 as usize], "the deployment's own handle was mutated");
    }

    // Written users ended up with one allocation per replica; users no
    // command wrote to (the authors, the bystanders) are still shared.
    let handle = |r: usize, u: u64| replicas[r].value_of(Chirper::var(u)).expect("user exists");
    for u in (1..=HUB_FOLLOWERS).chain([35]) {
        assert!(
            !Arc::ptr_eq(handle(0, u), handle(1, u)) && !Arc::ptr_eq(handle(1, u), handle(2, u))
        );
    }
    for u in [0, 31, 36] {
        assert!(Arc::ptr_eq(handle(0, u), handle(1, u)) && Arc::ptr_eq(handle(1, u), handle(2, u)));
    }
}
