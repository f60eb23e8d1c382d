//! Communities: objects grouped to achieve a purpose, filling roles.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A community error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommunityError {
    /// The role already exists.
    DuplicateRole { role: String },
    /// The role does not exist.
    UnknownRole { role: String },
    /// The object already fills the role.
    AlreadyAssigned { object: u64, role: String },
}

impl fmt::Display for CommunityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommunityError::DuplicateRole { role } => write!(f, "role {role} already exists"),
            CommunityError::UnknownRole { role } => write!(f, "unknown role {role}"),
            CommunityError::AlreadyAssigned { object, role } => {
                write!(f, "object {object} already fills role {role}")
            }
        }
    }
}

impl std::error::Error for CommunityError {}

/// A grouping of enterprise objects intended to achieve some purpose —
/// e.g. "a bank branch consists of a bank manager, some tellers, and some
/// bank accounts; the branch provides banking services to a geographical
/// area" (§3).
#[derive(Debug, Clone, PartialEq)]
pub struct Community {
    id: u64,
    name: String,
    objective: String,
    roles: BTreeSet<String>,
    members: BTreeMap<u64, BTreeSet<String>>,
}

impl Community {
    /// Creates a community with a stated objective.
    pub fn new(id: u64, name: impl Into<String>, objective: impl Into<String>) -> Self {
        Self {
            id,
            name: name.into(),
            objective: objective.into(),
            roles: BTreeSet::new(),
            members: BTreeMap::new(),
        }
    }

    /// The community name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a role.
    ///
    /// # Errors
    ///
    /// Returns [`CommunityError::DuplicateRole`] if it exists.
    pub fn add_role(&mut self, role: impl Into<String>) -> Result<(), CommunityError> {
        let role = role.into();
        if !self.roles.insert(role.clone()) {
            return Err(CommunityError::DuplicateRole { role });
        }
        Ok(())
    }

    /// Assigns an object to a role (objects may fill several roles).
    ///
    /// # Errors
    ///
    /// Returns [`CommunityError::UnknownRole`] or
    /// [`CommunityError::AlreadyAssigned`].
    pub fn assign(&mut self, object: u64, role: impl Into<String>) -> Result<(), CommunityError> {
        let role = role.into();
        if !self.roles.contains(&role) {
            return Err(CommunityError::UnknownRole { role });
        }
        let filled = self.members.entry(object).or_default();
        if !filled.insert(role.clone()) {
            return Err(CommunityError::AlreadyAssigned { object, role });
        }
        Ok(())
    }

    /// Removes an object from a role; returns whether it was assigned.
    pub fn unassign(&mut self, object: u64, role: &str) -> bool {
        let Some(filled) = self.members.get_mut(&object) else {
            return false;
        };
        let removed = filled.remove(role);
        if filled.is_empty() {
            self.members.remove(&object);
        }
        removed
    }

    /// The roles an object fills.
    pub fn roles_of(&self, object: u64) -> Vec<&str> {
        self.members
            .get(&object)
            .map(|r| r.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "community {} ({}): {} roles, {} members",
            self.name,
            self.objective,
            self.roles.len(),
            self.members.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn branch() -> Community {
        let mut c = Community::new(1, "toowong-branch", "banking services for Toowong");
        c.add_role("manager").unwrap();
        c.add_role("teller").unwrap();
        c.add_role("customer").unwrap();
        c
    }

    #[test]
    fn roles_are_unique() {
        let mut c = branch();
        assert_eq!(
            c.add_role("teller"),
            Err(CommunityError::DuplicateRole {
                role: "teller".into()
            })
        );
        assert_eq!(c.roles.len(), 3);
    }

    #[test]
    fn assignment_and_queries() {
        let mut c = branch();
        c.assign(1, "manager").unwrap();
        c.assign(2, "teller").unwrap();
        c.assign(3, "teller").unwrap();
        // One object can fill several roles (a manager can also tell).
        c.assign(1, "teller").unwrap();
        assert!([1, 2, 3].iter().all(|&m| c.roles_of(m).contains(&"teller")));
        assert_eq!(c.roles_of(1), vec!["manager", "teller"]);
        assert_eq!(c.roles_of(2), vec!["teller"]);
        assert!(c.members.keys().eq(&[1, 2, 3]));
    }

    #[test]
    fn unknown_role_and_double_assignment_rejected() {
        let mut c = branch();
        assert_eq!(
            c.assign(1, "auditor"),
            Err(CommunityError::UnknownRole {
                role: "auditor".into()
            })
        );
        c.assign(1, "teller").unwrap();
        assert_eq!(
            c.assign(1, "teller"),
            Err(CommunityError::AlreadyAssigned {
                object: 1,
                role: "teller".into()
            })
        );
    }

    #[test]
    fn unassign_removes_membership() {
        let mut c = branch();
        c.assign(1, "teller").unwrap();
        assert!(c.unassign(1, "teller"));
        assert!(!c.unassign(1, "teller"));
        assert!(c.roles_of(1).is_empty());
        assert!(c.members.is_empty());
    }
}
