//! Group-consistency oracle: auditing quorum replication from the
//! event stream.
//!
//! The quorum machinery (`rmodp-functions` views + elections,
//! `rmodp-transparency` replication) *claims* three safety properties:
//! at most one leader per epoch, no committed update ever lost across a
//! view change, and reads that only ever observe committed state.
//! [`verify_consistency`] checks those claims **independently** — it
//! never inspects replica state, only the event stream it is handed, as
//! the layers emit it (`view_change`, `quorum_commit`, `fenced_write`,
//! `replica_read`), replayed in virtual-time order per group:
//!
//! - **epochs strictly increase** — a `view_change` that does not raise
//!   the group's epoch is an `epoch_regression`;
//! - **≤ 1 leader per epoch** — two `view_change`s naming different
//!   leaders for one `(group, epoch)`, or a `quorum_commit` stamped
//!   with an epoch older than the installed one (a deposed leader that
//!   still managed to commit), count as `split_brain`;
//! - **committed updates survive** — every view change carries the new
//!   leader's commit watermark; a watermark below the highest commit
//!   previously observed for the group means a committed update was
//!   dropped by the failover (`lost_committed`);
//! - **reads are committed-only** — a `replica_read` reporting a commit
//!   watermark above anything ever committed is a `dirty_read`.
//!
//! Fenced writes are *counted*, not flagged: a fenced write is the
//! mechanism working (a stale front was refused), and chaos scenarios
//! assert the count is non-zero under partition-during-commit.

use std::collections::BTreeMap;

use rmodp_observe::json::ToJson;
use rmodp_observe::oracle::Verdict;
use rmodp_observe::{json_into, Event, EventKind};

/// Extracts the integer after `key=` in a `k=v`-style detail string.
fn field(detail: &str, key: &str) -> Option<u64> {
    detail.split_whitespace().find_map(|tok| {
        tok.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix('='))
            .and_then(|v| v.parse().ok())
    })
}

/// Per-group audit of the replicated-group safety invariants.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupConsistency {
    /// The audited group id.
    pub group: u64,
    /// View changes observed.
    pub view_changes: u64,
    /// Highest epoch installed.
    pub max_epoch: u64,
    /// Quorum commits observed.
    pub commits: u64,
    /// Highest committed sequence number (from commits or watermarks).
    pub max_committed: u64,
    /// Stale-epoch writes and reads refused by replica fencing.
    pub fenced_writes: u64,
    /// Linearizable reads served.
    pub reads: u64,
    /// View changes that failed to raise the epoch.
    pub epoch_regressions: u64,
    /// Evidence of two leaders in one epoch (conflicting `view_change`
    /// leaders, or a commit under a deposed epoch). Must be zero.
    pub split_brain: u64,
    /// View changes whose watermark dropped below a prior commit. Must
    /// be zero.
    pub lost_committed: u64,
    /// Reads that returned state beyond anything committed. Must be
    /// zero.
    pub dirty_reads: u64,
}

impl GroupConsistency {
    /// Whether every safety invariant held for this group.
    pub fn clean(&self) -> bool {
        self.epoch_regressions == 0
            && self.split_brain == 0
            && self.lost_committed == 0
            && self.dirty_reads == 0
    }
}

/// Replays `events` (in stream order, which is virtual-time order) and
/// audits every replicated group found in it: one verdict per group, in
/// group-id order. See the module docs for the invariants.
pub fn verify_consistency(events: &[Event]) -> ConsistencyReport {
    #[derive(Default)]
    struct Track {
        verdict: GroupConsistency,
        leaders_by_epoch: BTreeMap<u64, u64>,
    }
    let mut tracks: BTreeMap<u64, Track> = BTreeMap::new();
    for e in events {
        let Some(group) = field(&e.detail, "group") else {
            continue;
        };
        match e.kind {
            EventKind::ViewChange => {
                let t = tracks.entry(group).or_default();
                t.verdict.group = group;
                t.verdict.view_changes += 1;
                let epoch = field(&e.detail, "epoch").unwrap_or(0);
                let leader = field(&e.detail, "leader").unwrap_or(0);
                let watermark = field(&e.detail, "watermark").unwrap_or(0);
                if epoch <= t.verdict.max_epoch && t.verdict.view_changes > 1 {
                    t.verdict.epoch_regressions += 1;
                }
                match t.leaders_by_epoch.get(&epoch) {
                    Some(&known) if known != leader => t.verdict.split_brain += 1,
                    _ => {
                        t.leaders_by_epoch.insert(epoch, leader);
                    }
                }
                if watermark < t.verdict.max_committed {
                    t.verdict.lost_committed += 1;
                }
                t.verdict.max_epoch = t.verdict.max_epoch.max(epoch);
                t.verdict.max_committed = t.verdict.max_committed.max(watermark);
            }
            EventKind::QuorumCommit => {
                let t = tracks.entry(group).or_default();
                t.verdict.group = group;
                t.verdict.commits += 1;
                let epoch = field(&e.detail, "epoch").unwrap_or(0);
                let seq = field(&e.detail, "seq").unwrap_or(0);
                // A commit under an epoch older than the installed
                // one means a deposed leader assembled a quorum —
                // exactly the split-brain the fencing must prevent.
                if epoch < t.verdict.max_epoch {
                    t.verdict.split_brain += 1;
                }
                t.verdict.max_committed = t.verdict.max_committed.max(seq);
            }
            EventKind::FencedWrite => {
                let t = tracks.entry(group).or_default();
                t.verdict.group = group;
                t.verdict.fenced_writes += 1;
            }
            EventKind::ReplicaRead => {
                let t = tracks.entry(group).or_default();
                t.verdict.group = group;
                t.verdict.reads += 1;
                if let Some(commit) = field(&e.detail, "commit") {
                    if commit > t.verdict.max_committed {
                        t.verdict.dirty_reads += 1;
                    }
                }
            }
            _ => {}
        }
    }
    ConsistencyReport {
        groups: tracks.into_values().map(|t| t.verdict).collect(),
    }
}

/// The full consistency verdict for a run: one entry per replicated
/// group observed in the event stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Per-group verdicts, in group-id order.
    pub groups: Vec<GroupConsistency>,
}

/// Clean when every group satisfied every safety invariant.
impl Verdict for ConsistencyReport {
    fn clean(&self) -> bool {
        self.groups.iter().all(GroupConsistency::clean)
    }
}

impl ConsistencyReport {
    /// Total split-brain observations across groups (must be zero).
    pub fn split_brain(&self) -> u64 {
        self.groups.iter().map(|g| g.split_brain).sum()
    }

    /// Total lost-committed observations across groups (must be zero).
    pub fn lost_committed(&self) -> u64 {
        self.groups.iter().map(|g| g.lost_committed).sum()
    }

    /// Total fenced stale writes/reads across groups.
    pub fn fenced_writes(&self) -> u64 {
        self.groups.iter().map(|g| g.fenced_writes).sum()
    }
}

/// Deterministic JSON with a fixed field order.
impl ToJson for ConsistencyReport {
    fn write_json(&self, out: &mut String) {
        json_into!(out, {
            "groups": [for g in &self.groups => {
                "group": g.group,
                "view_changes": g.view_changes,
                "max_epoch": g.max_epoch,
                "commits": g.commits,
                "max_committed": g.max_committed,
                "fenced_writes": g.fenced_writes,
                "reads": g.reads,
                "split_brain": g.split_brain,
                "lost_committed": g.lost_committed,
                "epoch_regressions": g.epoch_regressions,
                "dirty_reads": g.dirty_reads,
            }],
            "clean": self.clean(),
            "split_brain": self.split_brain(),
            "lost_committed": self.lost_committed(),
            "fenced_writes": self.fenced_writes(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_observe::Layer;

    fn ev(layer: Layer, kind: EventKind, t_us: u64, detail: &str) -> Event {
        Event {
            seq: 0,
            t_us,
            layer,
            kind,
            span: None,
            parent: None,
            node: None,
            port: None,
            channel: None,
            capsule: None,
            detail: detail.to_string(),
        }
    }

    fn view(t: u64, detail: &str) -> Event {
        ev(Layer::Functions, EventKind::ViewChange, t, detail)
    }

    fn commit(t: u64, detail: &str) -> Event {
        ev(Layer::Transparency, EventKind::QuorumCommit, t, detail)
    }

    #[test]
    fn clean_history_passes() {
        let events = vec![
            view(10, "group=1 epoch=1 leader=4 members=3 acks=2 watermark=0"),
            commit(20, "group=1 epoch=1 seq=1 acks=3"),
            commit(30, "group=1 epoch=1 seq=2 acks=2"),
            ev(
                Layer::Transparency,
                EventKind::ReplicaRead,
                35,
                "group=1 epoch=1 commit=2 n=7 replica=4",
            ),
            view(40, "group=1 epoch=2 leader=5 members=3 acks=2 watermark=2"),
            ev(
                Layer::Transparency,
                EventKind::FencedWrite,
                50,
                "group=1 epoch=1 newer=2 seq=3",
            ),
            commit(60, "group=1 epoch=2 seq=3 acks=2"),
        ];
        let report = verify_consistency(&events);
        assert_eq!(report.groups.len(), 1);
        let g = &report.groups[0];
        report.assert_clean("a clean history");
        assert_eq!(g.max_epoch, 2);
        assert_eq!(g.max_committed, 3);
        assert_eq!(g.fenced_writes, 1);
        assert_eq!(g.reads, 1);
        assert_eq!(report.fenced_writes(), 1);
        assert!(report.to_json().contains(r#""clean":true"#));
    }

    #[test]
    fn commit_under_deposed_epoch_is_split_brain() {
        let events = vec![
            view(10, "group=1 epoch=1 leader=4 members=3 acks=2 watermark=0"),
            view(20, "group=1 epoch=2 leader=5 members=3 acks=2 watermark=0"),
            // The old leader somehow still commits under epoch 1.
            commit(30, "group=1 epoch=1 seq=1 acks=2"),
        ];
        let report = verify_consistency(&events);
        assert_eq!(report.split_brain(), 1);
        assert!(!report.clean());
    }

    #[test]
    fn two_leaders_in_one_epoch_is_split_brain() {
        let events = vec![
            view(10, "group=1 epoch=1 leader=4 members=3 acks=2 watermark=0"),
            view(20, "group=1 epoch=1 leader=9 members=3 acks=2 watermark=0"),
        ];
        let report = verify_consistency(&events);
        assert_eq!(report.split_brain(), 1);
        // The non-raising second install is also an epoch regression.
        assert_eq!(report.groups[0].epoch_regressions, 1);
    }

    #[test]
    fn watermark_regression_is_lost_committed() {
        let events = vec![
            view(10, "group=1 epoch=1 leader=4 members=3 acks=2 watermark=0"),
            commit(20, "group=1 epoch=1 seq=5 acks=2"),
            // New view elected a leader that never saw seq 5.
            view(30, "group=1 epoch=2 leader=5 members=3 acks=2 watermark=3"),
        ];
        let report = verify_consistency(&events);
        assert_eq!(report.lost_committed(), 1);
        assert!(!report.clean());
    }

    #[test]
    fn read_beyond_commit_is_dirty() {
        let events = vec![
            view(10, "group=1 epoch=1 leader=4 members=3 acks=2 watermark=0"),
            commit(20, "group=1 epoch=1 seq=1 acks=2"),
            ev(
                Layer::Transparency,
                EventKind::ReplicaRead,
                25,
                "group=1 epoch=1 commit=4 n=9 replica=4",
            ),
        ];
        let report = verify_consistency(&events);
        assert_eq!(report.groups[0].dirty_reads, 1);
        assert!(!report.clean());
    }

    #[test]
    fn groups_are_audited_independently() {
        let events = vec![
            view(10, "group=1 epoch=1 leader=4 members=3 acks=2 watermark=0"),
            view(20, "group=2 epoch=1 leader=7 members=3 acks=2 watermark=0"),
            commit(30, "group=2 epoch=1 seq=1 acks=2"),
            view(40, "group=2 epoch=1 leader=8 members=3 acks=2 watermark=1"),
        ];
        let report = verify_consistency(&events);
        assert_eq!(report.groups.len(), 2);
        assert!(report.groups[0].clean());
        assert_eq!(report.groups[1].split_brain, 1);
        assert!(!report.clean());
    }
}
