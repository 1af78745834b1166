//! Integration and property tests for the atomic multicast layer.
//!
//! The properties from §2.2 of the DynaStar paper are checked directly:
//! validity, uniform agreement, integrity, atomic (acyclic) order and
//! prefix order. FIFO order is provided by the core crate's transport
//! (its per-peer link records) and covered there.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dynastar_amcast::{
    Delivery, GroupId, McastMember, McastOutput, McastWire, MemberId, MsgId, Topology,
};
use dynastar_paxos::{GroupConfig, Peers, MAX_GROUP_SIZE};
use proptest::prelude::*;

/// An in-memory network of multicast members with a controllable schedule.
struct Net {
    members: BTreeMap<MemberId, McastMember<u64>>,
    queue: VecDeque<(MemberId, McastWire<u64>)>,
    delivered: BTreeMap<MemberId, Vec<Delivery<u64>>>,
    /// Every message any member emitted, in emission order.
    sent: Vec<(MemberId, McastWire<u64>)>,
    down: Vec<MemberId>,
    /// `Some`: drive members through the set-addressed `_into` forms, all
    /// appending to this one buffer; `None`: through the by-value API.
    reuse: Option<McastOutput<u64, (GroupId, Peers)>>,
}

/// One input to a member.
enum Input {
    Submit(MsgId, Vec<GroupId>, u64),
    Tick,
    Message(McastWire<u64>),
}

impl Net {
    fn new(topo: &Topology) -> Self {
        let mut members = BTreeMap::new();
        for g in topo.groups() {
            for m in topo.members_of(g) {
                // Fast election timing: these tests drive ticks directly.
                let cfg = GroupConfig::new(topo.size_of(g));
                members.insert(m, McastMember::with_group_config(m, topo.clone(), cfg));
            }
        }
        let delivered = members.keys().map(|&m| (m, Vec::new())).collect();
        Net {
            members,
            queue: VecDeque::new(),
            delivered,
            sent: Vec::new(),
            down: Vec::new(),
            reuse: None,
        }
    }

    /// The same net, driven through the `_into` forms with one buffer.
    fn reusing_one_output(self) -> Self {
        Net { reuse: Some(McastOutput::default()), ..self }
    }

    fn absorb(&mut self, at: MemberId, out: &mut McastOutput<u64>) {
        for (to, wire) in out.outgoing.drain(..) {
            self.sent.push((to, wire.clone()));
            self.queue.push_back((to, wire));
        }
        self.delivered.get_mut(&at).unwrap().append(&mut out.delivered);
    }

    /// Drains a set-addressed output, one message per recipient: groups in
    /// output order, replicas by ascending index (spelled out here, not
    /// through [`McastOutput::expand`], so the two can be compared).
    fn absorb_sets(&mut self, at: MemberId, out: &mut McastOutput<u64, (GroupId, Peers)>) {
        for ((group, peers), wire) in out.outgoing.drain(..) {
            for idx in (0..MAX_GROUP_SIZE).filter(|&i| peers.contains(i)) {
                self.sent.push((MemberId::new(group, idx), wire.clone()));
                self.queue.push_back((MemberId::new(group, idx), wire.clone()));
            }
        }
        self.delivered.get_mut(&at).unwrap().append(&mut out.delivered);
    }

    fn feed(&mut self, at: MemberId, input: Input) {
        let member = self.members.get_mut(&at).unwrap();
        match self.reuse.take() {
            None => {
                let mut out = match input {
                    Input::Submit(mid, dests, payload) => member.submit(mid, dests, payload),
                    Input::Tick => member.tick(),
                    Input::Message(wire) => member.on_message(wire),
                };
                self.absorb(at, &mut out);
            }
            Some(mut out) => {
                match input {
                    Input::Submit(mid, mut dests, payload) => {
                        dests.sort_unstable();
                        dests.dedup();
                        member.submit_into(mid, dests.into(), payload, &mut out)
                    }
                    Input::Tick => member.tick_into(&mut out),
                    Input::Message(wire) => member.on_message_into(wire, &mut out),
                }
                self.absorb_sets(at, &mut out);
                self.reuse = Some(out);
            }
        }
    }

    fn submit_at(&mut self, at: MemberId, mid: MsgId, dests: Vec<GroupId>, payload: u64) {
        self.feed(at, Input::Submit(mid, dests, payload));
    }

    fn tick_all(&mut self) {
        let ids: Vec<MemberId> = self.members.keys().copied().collect();
        for id in ids {
            if self.down.contains(&id) {
                continue;
            }
            self.feed(id, Input::Tick);
        }
    }

    fn deliver_one(&mut self, k: usize) {
        if self.queue.is_empty() {
            return;
        }
        let k = k % self.queue.len();
        let (to, wire) = self.queue.remove(k).unwrap();
        if self.down.contains(&to) {
            return;
        }
        self.feed(to, Input::Message(wire));
    }

    fn drop_one(&mut self, k: usize) {
        if !self.queue.is_empty() {
            let k = k % self.queue.len();
            self.queue.remove(k);
        }
    }

    /// Runs a fixed budget of tick+drain rounds so elections and retries
    /// (which need many quiet ticks) get a chance to fire.
    fn settle(&mut self) {
        for _ in 0..120 {
            while let Some((to, wire)) = self.queue.pop_front() {
                if self.down.contains(&to) {
                    continue;
                }
                self.feed(to, Input::Message(wire));
            }
            self.tick_all();
        }
        // Final drain.
        while let Some((to, wire)) = self.queue.pop_front() {
            if self.down.contains(&to) {
                continue;
            }
            self.feed(to, Input::Message(wire));
        }
    }

    fn delivered_mids(&self, m: MemberId) -> Vec<MsgId> {
        self.delivered[&m].iter().map(|d| d.mid).collect()
    }

    /// Integrity: no member delivers a message twice.
    fn check_integrity(&self) {
        for (m, log) in &self.delivered {
            let mut seen = BTreeSet::new();
            for d in log {
                assert!(seen.insert(d.mid), "{m} delivered {} twice", d.mid);
            }
        }
    }

    /// Uniform agreement: all live members of a group deliver the same
    /// sequence.
    fn check_group_agreement(&self, topo: &Topology) {
        for g in topo.groups() {
            let live: Vec<MemberId> =
                topo.members_of(g).filter(|m| !self.down.contains(m)).collect();
            if live.len() < 2 {
                continue;
            }
            let reference = self.delivered_mids(live[0]);
            for &m in &live[1..] {
                assert_eq!(
                    self.delivered_mids(m),
                    reference,
                    "members {} and {} of {g} disagree",
                    live[0],
                    m
                );
            }
        }
    }

    /// Prefix order: any two members order their common messages the same
    /// way (implies atomic/acyclic order).
    fn check_prefix_order(&self) {
        let members: Vec<MemberId> = self.delivered.keys().copied().collect();
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let a = self.delivered_mids(members[i]);
                let b = self.delivered_mids(members[j]);
                let pos_a: BTreeMap<MsgId, usize> =
                    a.iter().enumerate().map(|(k, &m)| (m, k)).collect();
                let pos_b: BTreeMap<MsgId, usize> =
                    b.iter().enumerate().map(|(k, &m)| (m, k)).collect();
                let common: Vec<MsgId> =
                    a.iter().copied().filter(|m| pos_b.contains_key(m)).collect();
                for x in 0..common.len() {
                    for y in (x + 1)..common.len() {
                        let (mx, my) = (common[x], common[y]);
                        let same = (pos_a[&mx] < pos_a[&my]) == (pos_b[&mx] < pos_b[&my]);
                        assert!(
                            same,
                            "members {} and {} order {} and {} differently",
                            members[i], members[j], mx, my
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn single_group_multicast_is_atomic_broadcast() {
    let topo = Topology::uniform(1, 3);
    let mut net = Net::new(&topo);
    let sender = MemberId::new(GroupId(0), 0);
    for i in 0..10 {
        net.submit_at(sender, MsgId::new(1, i), vec![GroupId(0)], i as u64);
    }
    net.settle();
    for m in topo.members_of(GroupId(0)) {
        let mids = net.delivered_mids(m);
        assert_eq!(mids.len(), 10, "{m} delivered {}", mids.len());
    }
    net.check_group_agreement(&topo);
    net.check_integrity();
}

#[test]
fn two_group_multicast_reaches_both_groups() {
    let topo = Topology::uniform(2, 3);
    let mut net = Net::new(&topo);
    let sender = MemberId::new(GroupId(0), 0);
    net.submit_at(sender, MsgId::new(1, 0), vec![GroupId(0), GroupId(1)], 42);
    net.settle();
    for g in topo.groups() {
        for m in topo.members_of(g) {
            assert_eq!(net.delivered_mids(m).len(), 1, "{m}");
            assert_eq!(net.delivered[&m][0].payload, 42);
        }
    }
}

#[test]
fn interleaved_single_and_multi_group_messages_stay_ordered() {
    let topo = Topology::uniform(3, 2);
    let mut net = Net::new(&topo);
    let s0 = MemberId::new(GroupId(0), 0);
    let s1 = MemberId::new(GroupId(1), 0);
    let mut n = 0;
    for i in 0..8 {
        net.submit_at(s0, MsgId::new(1, i), vec![GroupId(0), GroupId(1)], n);
        n += 1;
        net.submit_at(s1, MsgId::new(2, i), vec![GroupId(1), GroupId(2)], n);
        n += 1;
        net.submit_at(s0, MsgId::new(3, i), vec![GroupId(0)], n);
        n += 1;
    }
    net.settle();
    // Everyone in group 1 sees all 16 messages addressed to it.
    for m in topo.members_of(GroupId(1)) {
        assert_eq!(net.delivered_mids(m).len(), 16, "{m}");
    }
    net.check_group_agreement(&topo);
    net.check_prefix_order();
    net.check_integrity();
}

#[test]
fn duplicate_submits_deliver_once() {
    let topo = Topology::uniform(2, 3);
    let mut net = Net::new(&topo);
    let mid = MsgId::new(9, 0);
    // Two different replicas submit the same id (replicated-sender pattern).
    net.submit_at(MemberId::new(GroupId(0), 0), mid, vec![GroupId(0), GroupId(1)], 5);
    net.submit_at(MemberId::new(GroupId(0), 1), mid, vec![GroupId(0), GroupId(1)], 5);
    net.settle();
    net.check_integrity();
    for g in topo.groups() {
        for m in topo.members_of(g) {
            assert_eq!(net.delivered_mids(m), vec![mid], "{m}");
        }
    }
}

#[test]
fn genuineness_uninvolved_group_stays_silent() {
    let topo = Topology::uniform(3, 2);
    let mut net = Net::new(&topo);
    net.submit_at(MemberId::new(GroupId(0), 0), MsgId::new(1, 0), vec![GroupId(0), GroupId(1)], 1);
    net.settle();
    // Group 2 neither delivers nor holds protocol state for the message.
    for m in topo.members_of(GroupId(2)) {
        assert!(net.delivered_mids(m).is_empty(), "{m} delivered a message not addressed to it");
        assert_eq!(net.members[&m].clock(), 0, "{m}'s clock moved for an unrelated message");
    }
}

#[test]
fn minority_crash_in_a_group_does_not_block_multicast() {
    let topo = Topology::uniform(2, 3);
    let mut net = Net::new(&topo);
    // Crash one (non-leader) replica in each group.
    net.down.push(MemberId::new(GroupId(0), 2));
    net.down.push(MemberId::new(GroupId(1), 2));
    for i in 0..5 {
        net.submit_at(
            MemberId::new(GroupId(0), 0),
            MsgId::new(1, i),
            vec![GroupId(0), GroupId(1)],
            i as u64,
        );
    }
    net.settle();
    for g in topo.groups() {
        for m in topo.members_of(g) {
            if net.down.contains(&m) {
                continue;
            }
            assert_eq!(net.delivered_mids(m).len(), 5, "{m}");
        }
    }
    net.check_prefix_order();
}

#[test]
fn leader_crash_mid_multicast_recovers() {
    let topo = Topology::uniform(2, 3);
    let mut net = Net::new(&topo);
    // Start a multi-group multicast, deliver a few protocol messages, then
    // crash both initial leaders.
    net.submit_at(MemberId::new(GroupId(0), 1), MsgId::new(1, 0), vec![GroupId(0), GroupId(1)], 7);
    for _ in 0..4 {
        net.deliver_one(0);
    }
    net.down.push(MemberId::new(GroupId(0), 0));
    net.down.push(MemberId::new(GroupId(1), 0));
    net.settle();
    for g in topo.groups() {
        for m in topo.members_of(g) {
            if net.down.contains(&m) {
                continue;
            }
            assert_eq!(net.delivered_mids(m), vec![MsgId::new(1, 0)], "{m}");
        }
    }
}

#[test]
fn crashed_member_recovers_from_peer_snapshots_and_rejoins() {
    let topo = Topology::uniform(2, 3);
    let mut net = Net::new(&topo);
    for i in 0..6 {
        net.submit_at(
            MemberId::new(GroupId(0), 0),
            MsgId::new(1, i),
            vec![GroupId(0), GroupId(1)],
            i as u64,
        );
    }
    net.settle();
    // Replica 2 of group 0 crashes with total amnesia...
    let victim = MemberId::new(GroupId(0), 2);
    let delivered_before = net.delivered_mids(victim).len();
    assert_eq!(delivered_before, 6);
    let floor = net.members[&victim].promised();
    // ...and rebuilds from a quorum of its peers' snapshots.
    let snaps = vec![
        net.members[&MemberId::new(GroupId(0), 0)].snapshot(),
        net.members[&MemberId::new(GroupId(0), 1)].snapshot(),
    ];
    let cfg = GroupConfig::new(3);
    let (rebuilt, mut out, donor) = McastMember::recover(victim, topo.clone(), cfg, floor, &snaps);
    assert!(donor < snaps.len());
    net.members.insert(victim, rebuilt);
    net.delivered.get_mut(&victim).unwrap().clear();
    net.absorb_sets(victim, &mut out);
    assert!(!net.members[&victim].is_leader());
    // The snapshot fast-forwards past already-delivered messages: nothing
    // re-delivers, and new traffic flows to the recovered member normally.
    assert!(net.delivered_mids(victim).is_empty());
    for i in 6..10 {
        net.submit_at(
            MemberId::new(GroupId(0), 0),
            MsgId::new(1, i),
            vec![GroupId(0), GroupId(1)],
            i as u64,
        );
    }
    net.settle();
    let mids = net.delivered_mids(victim);
    assert_eq!(mids, (6..10).map(|i| MsgId::new(1, i)).collect::<Vec<_>>());
    net.check_integrity();
    net.check_prefix_order();
}

/// Three groups of three: multicasts to one, two and three groups from
/// leaders and followers, a lost message, a crashed leader and its
/// group's election.
fn mixed_schedule(net: &mut Net) {
    let dest_sets = [vec![0, 1], vec![1, 2], vec![0], vec![0, 1, 2], vec![2, 0]];
    for (i, dests) in dest_sets.iter().cycle().take(12).enumerate() {
        let sender = MemberId::new(GroupId(i as u32 % 3), i % 2);
        let dests = dests.iter().map(|&g| GroupId(g)).collect();
        net.submit_at(sender, MsgId::new(1, i as u32), dests, i as u64);
        net.deliver_one(i * 7);
        if i == 5 {
            net.drop_one(3);
        }
    }
    net.tick_all();
    net.down.push(MemberId::new(GroupId(1), 0));
    for i in 12..16 {
        net.submit_at(MemberId::new(GroupId(2), 1), MsgId::new(1, i), vec![GroupId(1)], 0);
    }
    net.settle();
}

/// FNV-1a over the debug rendering of every message sent.
fn digest(sent: &[(MemberId, McastWire<u64>)]) -> u64 {
    format!("{sent:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn the_by_value_output_is_the_per_recipient_sequence_members_always_sent() {
    // Pinned from the member that addressed every message to one member:
    // a recipient set must expand to the same messages, to the same
    // members, in the same order.
    let topo = Topology::uniform(3, 3);
    let mut net = Net::new(&topo);
    mixed_schedule(&mut net);
    let delivered = topo.groups().map(|g| net.delivered_mids(MemberId::new(g, 2)).len());
    assert_eq!(delivered.collect::<Vec<_>>(), [9, 12, 7], "every message reaches its groups");
    net.check_group_agreement(&topo);
    net.check_prefix_order();
    assert_eq!((net.sent.len(), digest(&net.sent)), (950, 0xadb3_1db2_fd84_199f));

    let mut sets = Net::new(&topo).reusing_one_output();
    mixed_schedule(&mut sets);
    assert_eq!(sets.sent, net.sent);
    assert_eq!(sets.delivered, net.delivered);
}

/// A randomized schedule action.
#[derive(Debug, Clone)]
enum Action {
    Submit { sender: usize, dest_mask: u8 },
    Deliver { k: usize },
    Drop { k: usize },
    Tick,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        2 => (0usize..6, 1u8..8).prop_map(|(sender, dest_mask)| Action::Submit { sender, dest_mask }),
        10 => (0usize..64).prop_map(|k| Action::Deliver { k }),
        1 => (0usize..64).prop_map(|k| Action::Drop { k }),
        3 => Just(Action::Tick),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Integrity, per-group agreement and global prefix order hold for
    /// three groups of two replicas under arbitrary reordering and loss.
    /// The same schedule driven through the set-addressed `_into` forms,
    /// every call appending to one reused buffer and each recipient set
    /// expanded by ascending index, sends and delivers exactly the same.
    #[test]
    fn multicast_order_properties(actions in prop::collection::vec(action_strategy(), 1..150)) {
        let topo = Topology::uniform(3, 2);
        let run = |mut net: Net| {
            let mut seq = 0u32;
            for a in &actions {
                match *a {
                    Action::Submit { sender, dest_mask } => {
                        let g = GroupId((sender % 3) as u32);
                        let m = MemberId::new(g, sender / 3 % 2);
                        let dests: Vec<GroupId> = (0..3)
                            .filter(|i| dest_mask & (1 << i) != 0)
                            .map(|i| GroupId(i as u32))
                            .collect();
                        net.submit_at(m, MsgId::new(100 + sender as u64, seq), dests, seq as u64);
                        seq += 1;
                    }
                    Action::Deliver { k } => net.deliver_one(k),
                    Action::Drop { k } => net.drop_one(k),
                    Action::Tick => net.tick_all(),
                }
            }
            let in_flight = net.queue.clone();
            net.settle();
            (net, in_flight)
        };
        let (net, in_flight) = run(Net::new(&topo));
        net.check_integrity();
        net.check_group_agreement(&topo);
        net.check_prefix_order();
        let (reusing, reusing_in_flight) = run(Net::new(&topo).reusing_one_output());
        prop_assert_eq!(reusing_in_flight, in_flight);
        prop_assert_eq!(&reusing.sent, &net.sent);
        prop_assert_eq!(&reusing.delivered, &net.delivered);
        prop_assert!(reusing.reuse.is_some_and(|out| out.is_empty()), "the caller drained it");
    }

    /// Validity under a clean network: every submitted message is
    /// delivered by every member of every destination group.
    #[test]
    fn multicast_validity_clean(dest_masks in prop::collection::vec(1u8..8, 1..20)) {
        let topo = Topology::uniform(3, 2);
        let mut net = Net::new(&topo);
        let sender = MemberId::new(GroupId(0), 0);
        let mut expected: BTreeMap<GroupId, Vec<MsgId>> = BTreeMap::new();
        for (i, &mask) in dest_masks.iter().enumerate() {
            let dests: Vec<GroupId> = (0..3)
                .filter(|b| mask & (1 << b) != 0)
                .map(|b| GroupId(b as u32))
                .collect();
            let mid = MsgId::new(1, i as u32);
            for &g in &dests {
                expected.entry(g).or_default().push(mid);
            }
            net.submit_at(sender, mid, dests, i as u64);
        }
        net.settle();
        for g in topo.groups() {
            let want: BTreeSet<MsgId> =
                expected.get(&g).cloned().unwrap_or_default().into_iter().collect();
            for m in topo.members_of(g) {
                let got: BTreeSet<MsgId> =
                    net.delivered_mids(m).into_iter().collect();
                prop_assert_eq!(&got, &want, "member {}", m);
            }
        }
    }
}

/// Randomized schedules with crashes: safety properties must hold with a
/// minority of each 3-replica group crashed at arbitrary points.
#[derive(Debug, Clone)]
enum CrashAction {
    Submit { sender: usize, dest_mask: u8 },
    Deliver { k: usize },
    Tick,
    Crash { victim: usize },
}

fn crash_action_strategy() -> impl Strategy<Value = CrashAction> {
    prop_oneof![
        2 => (0usize..6, 1u8..4).prop_map(|(sender, dest_mask)| CrashAction::Submit { sender, dest_mask }),
        10 => (0usize..64).prop_map(|k| CrashAction::Deliver { k }),
        3 => Just(CrashAction::Tick),
        1 => (0usize..2).prop_map(|victim| CrashAction::Crash { victim }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two 3-replica groups; at most one replica per group crashes.
    /// Integrity, per-group agreement among survivors and prefix order
    /// must hold on every schedule.
    #[test]
    fn multicast_safety_under_minority_crashes(
        actions in prop::collection::vec(crash_action_strategy(), 1..120),
    ) {
        let topo = Topology::uniform(2, 3);
        let mut net = Net::new(&topo);
        let mut crashed_in_group = [false; 2];
        let mut seq = 0u32;
        for a in &actions {
            match *a {
                CrashAction::Submit { sender, dest_mask } => {
                    let g = GroupId((sender % 2) as u32);
                    let m = MemberId::new(g, sender / 2 % 3);
                    if net.down.contains(&m) {
                        continue;
                    }
                    let dests: Vec<GroupId> = (0..2)
                        .filter(|i| dest_mask & (1 << i) != 0)
                        .map(|i| GroupId(i as u32))
                        .collect();
                    if dests.is_empty() {
                        continue;
                    }
                    net.submit_at(m, MsgId::new(50 + sender as u64, seq), dests, seq as u64);
                    seq += 1;
                }
                CrashAction::Deliver { k } => net.deliver_one(k),
                CrashAction::Tick => net.tick_all(),
                CrashAction::Crash { victim } => {
                    // One crash per group, never the same replica index
                    // pattern that would exceed a minority.
                    if !crashed_in_group[victim] {
                        crashed_in_group[victim] = true;
                        // Crash replica 1 (keeps replica 0's initial
                        // leadership deterministic half the time and
                        // forces elections the other half via index 0).
                        let idx = (victim + seq as usize) % 3;
                        net.down.push(MemberId::new(GroupId(victim as u32), idx));
                    }
                }
            }
        }
        net.settle();
        net.check_integrity();
        net.check_group_agreement(&topo);
        net.check_prefix_order();
    }
}
