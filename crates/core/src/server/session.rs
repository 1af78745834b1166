//! Exactly-once execution: one session per client.
//!
//! A client has at most one command outstanding and numbers its commands
//! in order (`ClientCore::issue`): it issues seq s+1 only once s completed
//! or failed. So a replica needs, per client, only the newest seq it has
//! delivered, the reply of the newest command it executed, and the
//! attempts known aborted — memory per client, not per command, and
//! nothing is forgotten after a window. A command older than its client's
//! session is *obsolete*: a late copy of one that already ran somewhere,
//! or of one its client gave up on. Running it may break linearizability;
//! skipping it cannot.
//!
//! A session moves only on what every replica of a partition sees alike
//! or applies alike: delivered commands (in delivery order) and `Abort`s
//! (which only ever stop a command that cannot run anyway — its lender
//! will not ship).

use dynastar_amcast::MsgId;
use dynastar_runtime::FastHashMap;

/// What one client's commands have done at this replica.
#[derive(Debug, Clone)]
struct Session<R> {
    /// Newest command seq delivered here (0 before any): anything older is
    /// obsolete.
    seq: u32,
    /// The newest command executed here, and its reply.
    reply: Option<(u32, R)>,
    /// Attempts known aborted, as `(seq, attempt)`; none below `seq`. An
    /// `Abort` can overtake its command's delivery, so this may name a
    /// seq not delivered yet.
    aborted: Vec<(u32, u32)>,
}

/// Every client's session at one replica, keyed by the client (a command
/// id's origin).
#[derive(Debug, Clone)]
pub(super) struct Sessions<R> {
    by_client: FastHashMap<u64, Session<R>>,
}

impl<R> Default for Sessions<R> {
    fn default() -> Self {
        Sessions { by_client: FastHashMap::default() }
    }
}

impl<R> Sessions<R> {
    fn session(&mut self, cmd: MsgId) -> &mut Session<R> {
        self.by_client.entry(cmd.origin).or_insert_with(|| Session {
            seq: 0,
            reply: None,
            aborted: Vec::new(),
        })
    }

    /// Notes the delivery of an attempt of `cmd`. Returns whether it is
    /// obsolete (older than the client's newest delivered command); a
    /// newer seq advances the session and drops the aborted attempts of
    /// older ones.
    pub(super) fn deliver(&mut self, cmd: MsgId) -> bool {
        let s = self.session(cmd);
        if cmd.seq < s.seq {
            return true;
        }
        if cmd.seq > s.seq {
            s.seq = cmd.seq;
            s.aborted.retain(|&(seq, _)| seq >= cmd.seq);
        }
        false
    }

    /// Number of sessions (clients seen).
    pub(super) fn len(&self) -> usize {
        self.by_client.len()
    }

    /// Whether `cmd` is older than its client's newest delivered command.
    pub(super) fn obsolete(&self, cmd: MsgId) -> bool {
        self.by_client.get(&cmd.origin).is_some_and(|s| cmd.seq < s.seq)
    }

    /// The reply of `cmd`, if an attempt of it executed here and is still
    /// the client's newest executed command.
    pub(super) fn reply(&self, cmd: MsgId) -> Option<&R> {
        match self.by_client.get(&cmd.origin)?.reply {
            Some((seq, ref reply)) if seq == cmd.seq => Some(reply),
            _ => None,
        }
    }

    /// Records that `cmd` executed here with `reply`; the client's previous
    /// reply is dropped.
    pub(super) fn executed(&mut self, cmd: MsgId, reply: R) {
        self.session(cmd).reply = Some((cmd.seq, reply));
    }

    /// Records that attempt `attempt` of `cmd` is aborted. An obsolete
    /// command is not recorded: it never runs here anyway.
    pub(super) fn abort(&mut self, cmd: MsgId, attempt: u32) {
        let s = self.session(cmd);
        if cmd.seq >= s.seq && !s.aborted.contains(&(cmd.seq, attempt)) {
            s.aborted.push((cmd.seq, attempt));
        }
    }

    /// Whether attempt `attempt` of a not-obsolete `cmd` is known aborted.
    pub(super) fn aborted(&self, cmd: MsgId, attempt: u32) -> bool {
        self.by_client.get(&cmd.origin).is_some_and(|s| s.aborted.contains(&(cmd.seq, attempt)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(client: u64, seq: u32) -> MsgId {
        MsgId::new(client, seq)
    }

    #[test]
    fn only_an_older_seq_is_obsolete() {
        let mut s = Sessions::<u8>::default();
        assert!(!s.deliver(id(1, 3)));
        assert!(!s.deliver(id(1, 3)), "another attempt of the newest command");
        assert!(s.deliver(id(1, 2)));
        assert!(s.obsolete(id(1, 2)) && !s.obsolete(id(1, 3)) && !s.obsolete(id(1, 4)));
        assert!(!s.deliver(id(2, 0)), "clients do not share a session");
    }

    #[test]
    fn a_reply_lasts_until_the_clients_next_execution() {
        let mut s = Sessions::default();
        s.deliver(id(1, 0));
        s.executed(id(1, 0), 'a');
        assert_eq!(s.reply(id(1, 0)), Some(&'a'));
        s.deliver(id(1, 1));
        assert_eq!(s.reply(id(1, 0)), Some(&'a'), "a delivery alone keeps it");
        assert_eq!(s.reply(id(1, 1)), None);
        s.executed(id(1, 1), 'b');
        assert_eq!((s.reply(id(1, 0)), s.reply(id(1, 1))), (None, Some(&'b')));
    }

    #[test]
    fn aborts_may_precede_delivery_and_fall_away_behind_the_session() {
        let mut s = Sessions::<u8>::default();
        s.abort(id(1, 5), 2);
        assert!(s.aborted(id(1, 5), 2) && !s.aborted(id(1, 5), 1));
        s.deliver(id(1, 5));
        assert!(s.aborted(id(1, 5), 2), "delivering the same seq keeps it");
        s.deliver(id(1, 6));
        assert!(!s.aborted(id(1, 5), 2), "dropped once obsolete");
        s.abort(id(1, 5), 3);
        assert!(!s.aborted(id(1, 5), 3), "an obsolete command is not recorded");
    }
}
