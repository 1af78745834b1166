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

/// The users the script writes: the hub's followers and user 35.
fn written() -> impl Iterator<Item = u64> {
    (1..=HUB_FOLLOWERS).chain([35])
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
    for u in written() {
        assert!(
            !Arc::ptr_eq(handle(0, u), handle(1, u)) && !Arc::ptr_eq(handle(1, u), handle(2, u))
        );
    }
    for u in [0, 31, 36] {
        assert!(Arc::ptr_eq(handle(0, u), handle(1, u)) && Arc::ptr_eq(handle(1, u), handle(2, u)));
    }
}

#[test]
fn replicas_taking_turns_stay_independent_across_a_shared_hand_over() {
    let mut control = replica(&users());
    run(&mut control);
    let expected = state(&control);

    let shared = users();
    let mut replicas = [replica(&shared), replica(&shared), replica(&shared)];
    let mut scripts: Vec<_> = replicas.iter().map(|_| commands().into_iter()).collect();
    let mut metrics = Metrics::new();
    let half = commands().len() / 2;
    let mut handed: Vec<(VarId, Arc<ChirperUser>)> = Vec::new();
    let mut handed_then: Vec<ChirperUser> = Vec::new();
    for i in 0..commands().len() {
        if i == half {
            // Replica 0's written users reach the other two as the same
            // `Arc`s, as one `VarsReturn` frame delivered to a whole group
            // does. All three have run the same prefix, so the values
            // match.
            handed = written()
                .map(|u| {
                    (Chirper::var(u), Arc::clone(replicas[0].value_of(Chirper::var(u)).unwrap()))
                })
                .collect();
            handed_then = handed.iter().map(|(_, user)| (**user).clone()).collect();
            for core in &mut replicas[1..] {
                core.preload(std::iter::empty(), handed.iter().cloned());
            }
        }
        // One command at a time, each replica in turn: a replica's append
        // must not show in the replicas that have not run it yet.
        for r in 0..replicas.len() {
            let others: Vec<_> = (0..replicas.len()).filter(|&o| o != r).collect();
            let before: Vec<_> = others.iter().map(|&o| state(&replicas[o])).collect();
            let payload = scripts[r].next().unwrap();
            let _ = replicas[r].on_deliver(payload, SimTime::from_micros(i as u64), &mut metrics);
            for (o, before) in others.iter().zip(before) {
                assert_eq!(
                    state(&replicas[*o]),
                    before,
                    "command {i} on replica {r} shows through replica {o}'s values"
                );
            }
        }
    }
    for (r, core) in replicas.iter().enumerate() {
        assert_eq!(state(core), expected, "replica {r} diverged from the control");
    }
    for ((_, user), then) in handed.iter().zip(&handed_then) {
        assert_eq!(**user, *then, "an append showed through the handed-over value");
    }
    // The hand-over was shared, and each replica's next write copied it.
    assert!(!handed.is_empty());
    for u in written() {
        let handle = |r: usize| replicas[r].value_of(Chirper::var(u)).unwrap();
        assert!(!Arc::ptr_eq(handle(0), handle(1)) && !Arc::ptr_eq(handle(1), handle(2)));
    }
}
