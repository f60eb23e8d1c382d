//! Groups and replication membership (§8.2).
//!
//! Replication transparency (§9) needs a *group* abstraction: a set of
//! replica interfaces presented behind a common interface. This module
//! manages group membership as numbered **views**, and installs the
//! **epochs** a quorum election wins; the transparency layer commits
//! updates on a majority of the current view.

use std::collections::BTreeMap;
use std::fmt;

use rmodp_core::id::{GroupId, IdGen, InterfaceId};
use rmodp_observe::{bus, event, EventKind, Layer};

/// One numbered membership view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// Monotone view number (starts at 1).
    pub number: u64,
    /// Fencing epoch. Membership changes (`join`/`leave`) bump `number`
    /// but keep the epoch; only an elected view installed by majority
    /// acknowledgement ([`GroupManager::install_view`]) advances it.
    pub epoch: u64,
    /// Members in deterministic (insertion) order.
    pub members: Vec<InterfaceId>,
    /// The elected leader holding this view's epoch, once a quorum
    /// election has run ([`GroupManager::install_view`]); `None` for
    /// purely membership-managed groups.
    pub leader: Option<InterfaceId>,
}

impl View {
    /// How many acknowledgements constitute a majority of this view.
    pub fn majority(&self) -> usize {
        self.members.len() / 2 + 1
    }
}

/// A group-management failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupError {
    /// The group does not exist.
    UnknownGroup { group: GroupId },
    /// The member is already in the group.
    AlreadyMember { member: InterfaceId },
    /// The member is not in the group.
    NotMember { member: InterfaceId },
    /// A view install carried an epoch at or below the current one.
    StaleEpoch { epoch: u64, current: u64 },
    /// A view install was acknowledged by fewer than a majority of the
    /// previous view's members.
    NoQuorum { acks: usize, needed: usize },
}

impl fmt::Display for GroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupError::UnknownGroup { group } => write!(f, "unknown group {group}"),
            GroupError::AlreadyMember { member } => write!(f, "{member} is already a member"),
            GroupError::NotMember { member } => write!(f, "{member} is not a member"),
            GroupError::StaleEpoch { epoch, current } => {
                write!(f, "epoch {epoch} is not above the current epoch {current}")
            }
            GroupError::NoQuorum { acks, needed } => {
                write!(f, "{acks} acks where a majority needs {needed}")
            }
        }
    }
}

impl std::error::Error for GroupError {}

#[derive(Debug)]
struct Group {
    members: Vec<InterfaceId>,
    view_number: u64,
    epoch: u64,
    leader: Option<InterfaceId>,
}

impl Group {
    fn current_view(&self) -> View {
        View {
            number: self.view_number,
            epoch: self.epoch,
            members: self.members.clone(),
            leader: self.leader,
        }
    }

    fn bump(&mut self) {
        self.view_number += 1;
    }
}

/// The group/replication function: creates groups, manages membership
/// views, answers "who should receive this update".
#[derive(Debug, Default)]
pub struct GroupManager {
    groups: BTreeMap<GroupId, Group>,
    gen: IdGen<GroupId>,
}

impl GroupManager {
    /// Creates a group with initial members.
    pub fn create(&mut self, members: impl IntoIterator<Item = InterfaceId>) -> GroupId {
        let id = self.gen.fresh();
        let mut group = Group {
            members: members.into_iter().collect(),
            view_number: 0,
            epoch: 0,
            leader: None,
        };
        group.bump();
        self.groups.insert(id, group);
        id
    }

    /// The current view of a group.
    ///
    /// # Errors
    ///
    /// Unknown group.
    pub fn view(&self, group: GroupId) -> Result<View, GroupError> {
        Ok(self
            .groups
            .get(&group)
            .ok_or(GroupError::UnknownGroup { group })?
            .current_view())
    }

    /// Adds a member, creating a new view.
    ///
    /// # Errors
    ///
    /// Unknown group or duplicate member.
    pub fn join(&mut self, group: GroupId, member: InterfaceId) -> Result<View, GroupError> {
        let g = self
            .groups
            .get_mut(&group)
            .ok_or(GroupError::UnknownGroup { group })?;
        if g.members.contains(&member) {
            return Err(GroupError::AlreadyMember { member });
        }
        g.members.push(member);
        g.bump();
        Ok(g.current_view())
    }

    /// Removes a member (e.g. on failure detection), creating a new view.
    ///
    /// # Errors
    ///
    /// Unknown group or non-member.
    pub fn leave(&mut self, group: GroupId, member: InterfaceId) -> Result<View, GroupError> {
        let g = self
            .groups
            .get_mut(&group)
            .ok_or(GroupError::UnknownGroup { group })?;
        let before = g.members.len();
        g.members.retain(|m| *m != member);
        if g.members.len() == before {
            return Err(GroupError::NotMember { member });
        }
        g.bump();
        Ok(g.current_view())
    }

    /// Installs an **elected** view at a strictly higher epoch, on the
    /// strength of `acks` election acknowledgements. The quorum rule is
    /// the heart of the no-split-brain argument: the install is refused
    /// unless a majority *of the previous view's members* acknowledged
    /// the new epoch, so any two installed epochs share an acker, and a
    /// replica that acked epoch `e+1` fences every write at epoch `e`.
    ///
    /// Emits a `view_change` event (group/epoch/leader/watermark detail)
    /// and bumps the `group.view_changes` counter.
    ///
    /// # Errors
    ///
    /// Unknown group, stale epoch, leader outside `members`, or fewer
    /// acks than a majority of the previous view.
    pub fn install_view(
        &mut self,
        group: GroupId,
        epoch: u64,
        leader: InterfaceId,
        members: Vec<InterfaceId>,
        acks: usize,
        commit_watermark: u64,
    ) -> Result<View, GroupError> {
        let g = self
            .groups
            .get_mut(&group)
            .ok_or(GroupError::UnknownGroup { group })?;
        if epoch <= g.epoch {
            return Err(GroupError::StaleEpoch {
                epoch,
                current: g.epoch,
            });
        }
        if !members.contains(&leader) {
            return Err(GroupError::NotMember { member: leader });
        }
        let needed = g.current_view().majority();
        if acks < needed {
            return Err(GroupError::NoQuorum { acks, needed });
        }
        g.epoch = epoch;
        g.leader = Some(leader);
        g.members = members;
        g.bump();
        bus::counter_add("group.view_changes", 1);
        event(Layer::Functions, EventKind::ViewChange)
            .in_context()
            .detail_fmt(format_args!(
                "group={} epoch={} leader={} members={} acks={} watermark={}",
                group.raw(),
                epoch,
                leader.raw(),
                g.members.len(),
                acks,
                commit_watermark,
            ))
            .emit();
        Ok(g.current_view())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ifc(i: u64) -> InterfaceId {
        InterfaceId::new(i)
    }

    #[test]
    fn create_and_view() {
        let mut gm = GroupManager::default();
        let g = gm.create([ifc(3), ifc(1), ifc(2)]);
        let v = gm.view(g).unwrap();
        assert_eq!(v.number, 1);
        assert_eq!(v.members, vec![ifc(3), ifc(1), ifc(2)]);
        assert_eq!((v.epoch, v.leader), (0, None));
    }

    #[test]
    fn join_and_leave_bump_views() {
        let mut gm = GroupManager::default();
        let g = gm.create([ifc(1), ifc(2)]);
        let v = gm.join(g, ifc(3)).unwrap();
        assert_eq!(v.number, 2);
        assert!(matches!(
            gm.join(g, ifc(3)),
            Err(GroupError::AlreadyMember { .. })
        ));
        let v = gm.leave(g, ifc(1)).unwrap();
        assert_eq!(v.number, 3);
        assert_eq!(v.members, vec![ifc(2), ifc(3)]);
        assert!(matches!(
            gm.leave(g, ifc(1)),
            Err(GroupError::NotMember { .. })
        ));
    }

    #[test]
    fn install_view_demands_majority_and_fresh_epoch() {
        let mut gm = GroupManager::default();
        let g = gm.create([ifc(1), ifc(2), ifc(3)]);
        // 1 ack of a 3-member view is short of the majority (2).
        assert_eq!(
            gm.install_view(g, 1, ifc(2), vec![ifc(2), ifc(3)], 1, 0),
            Err(GroupError::NoQuorum { acks: 1, needed: 2 })
        );
        let v = gm
            .install_view(g, 1, ifc(2), vec![ifc(2), ifc(3)], 2, 0)
            .unwrap();
        assert_eq!(v.epoch, 1);
        assert_eq!(v.leader, Some(ifc(2)));
        assert_eq!(v.members, vec![ifc(2), ifc(3)]);
        // A competing install at the same epoch is stale.
        assert_eq!(
            gm.install_view(g, 1, ifc(3), vec![ifc(3)], 2, 0),
            Err(GroupError::StaleEpoch {
                epoch: 1,
                current: 1
            })
        );
        // A leader outside the proposed membership is refused.
        assert!(matches!(
            gm.install_view(g, 2, ifc(9), vec![ifc(2), ifc(3)], 2, 0),
            Err(GroupError::NotMember { .. })
        ));
        // Membership churn keeps the epoch.
        let v = gm.join(g, ifc(4)).unwrap();
        assert_eq!(v.epoch, 1);
        assert_eq!(v.leader, Some(ifc(2)));
    }

    #[test]
    fn unknown_group_errors() {
        let mut gm = GroupManager::default();
        let ghost = GroupId::new(99);
        assert!(matches!(
            gm.view(ghost),
            Err(GroupError::UnknownGroup { .. })
        ));
        assert!(matches!(
            gm.leave(ghost, ifc(1)),
            Err(GroupError::UnknownGroup { .. })
        ));
    }
}
