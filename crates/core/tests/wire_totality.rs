//! Wire totality for the core's two wire enums. `payload_tag` and
//! `direct_tag` match `Payload` and `Direct` exhaustively and without a
//! wildcard, so a new variant does not compile until this file names it;
//! the handlers that consume them deny wildcard arms for the same reason.

use std::collections::{BTreeMap, BTreeSet};

use dynastar_amcast::MsgId;
use dynastar_core::{
    Application, Command, CommandKind, Direct, LocKey, PartitionId, Payload, VarId,
};
use dynastar_runtime::NodeId;

struct Keys;

impl Application for Keys {
    type Op = ();
    type Value = i64;
    type Reply = ();

    fn locality(var: VarId) -> LocKey {
        LocKey(var.0)
    }

    fn execute(_: &(), _: &mut BTreeMap<VarId, Option<i64>>) {}
}

fn payload_tag(payload: &Payload<Keys>) -> &'static str {
    match payload {
        Payload::Exec { .. } => "Exec",
        Payload::Access { .. } => "Access",
        Payload::CreateKey { .. } => "CreateKey",
        Payload::DeleteKey { .. } => "DeleteKey",
        Payload::HintSets { .. } => "HintSets",
        Payload::Hint { .. } => "Hint",
        Payload::Plan { .. } => "Plan",
        Payload::Recompute { .. } => "Recompute",
        Payload::MigrationDone { .. } => "MigrationDone",
        Payload::MigrationRevert { .. } => "MigrationRevert",
    }
}

fn direct_tag(direct: &Direct<Keys>) -> &'static str {
    match direct {
        Direct::Prophecy { .. } => "Prophecy",
        Direct::Reply { .. } => "Reply",
        Direct::Retry { .. } => "Retry",
        Direct::Ack { .. } => "Ack",
        Direct::VarsForCmd { .. } => "VarsForCmd",
        Direct::VarsReturn { .. } => "VarsReturn",
        Direct::Abort { .. } => "Abort",
        Direct::Signal { .. } => "Signal",
        Direct::PlanVars { .. } => "PlanVars",
        Direct::PlanVarsChunk { .. } => "PlanVarsChunk",
        Direct::PlanVarsAck { .. } => "PlanVarsAck",
        Direct::PlanVarsPull { .. } => "PlanVarsPull",
        Direct::SsmrExchange { .. } => "SsmrExchange",
    }
}

/// One value of every variant gets its own name: no two arms collide.
#[test]
fn every_wire_variant_has_a_distinct_tag() {
    let cmd = Command::<Keys> {
        id: MsgId::new(1, 0),
        client: NodeId::from_raw(9),
        kind: CommandKind::Access { op: (), vars: vec![VarId(1)] },
    };
    let (key, p, id) = (LocKey(1), PartitionId(0), cmd.id);
    let payloads = [
        Payload::Exec { cmd: cmd.clone(), attempt: 0 },
        Payload::Access { cmd: cmd.clone(), attempt: 0, expected: vec![], target: p, keep: false },
        Payload::CreateKey { cmd: cmd.clone(), dest: p },
        Payload::DeleteKey { cmd, dest: p },
        Payload::HintSets { vertices: vec![], ranks: vec![], sets: vec![] },
        Payload::Hint { vertices: vec![], edges: vec![] },
        Payload::Plan { version: 1, moves: vec![] },
        Payload::Recompute { version: 1 },
        Payload::MigrationDone { version: 1, key, from: p, to: p },
        Payload::MigrationRevert { version: 1, key, from: p, to: p },
    ];
    let directs = [
        Direct::Prophecy { cmd: id, ok: true, locations: vec![], version: 0 },
        Direct::Reply { cmd: id, attempt: 0, reply: () },
        Direct::Retry { cmd: id, attempt: 0 },
        Direct::Ack { cmd: id },
        Direct::VarsForCmd { cmd: id, attempt: 0, from: p, vars: vec![] },
        Direct::VarsReturn { cmd: id, attempt: 0, vars: vec![] },
        Direct::Abort { cmd: id, attempt: 0, missing_at: p },
        Direct::Signal { cmd: id },
        Direct::PlanVars { version: 1, key, from: p, vars: vec![], pending: vec![], primary: true },
        Direct::PlanVarsChunk { version: 1, key, from: p, chunk: 0, total: 1, vars: vec![] },
        Direct::PlanVarsAck { version: 1, key, chunk: 0 },
        Direct::PlanVarsPull { key, to: p },
        Direct::SsmrExchange { cmd: id, attempt: 0, from: p, vars: vec![] },
    ];
    let payload_tags: BTreeSet<_> = payloads.iter().map(payload_tag).collect();
    let direct_tags: BTreeSet<_> = directs.iter().map(direct_tag).collect();
    assert_eq!(payload_tags.len(), payloads.len(), "{payload_tags:?}");
    assert_eq!(direct_tags.len(), directs.len(), "{direct_tags:?}");
}
