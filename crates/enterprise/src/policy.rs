//! Policies: permissions, prohibitions and obligations.

use std::fmt;

use rmodp_core::expr::{Expr, ParseError};

/// The three policy kinds of the enterprise language (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// What can be done — "money can be deposited into an open account".
    Permission,
    /// What must not be done — "customers must not withdraw more than
    /// $500 per day".
    Prohibition,
    /// What must be done — "the bank manager must advise customers when
    /// the interest rate changes".
    Obligation,
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyKind::Permission => write!(f, "permission"),
            PolicyKind::Prohibition => write!(f, "prohibition"),
            PolicyKind::Obligation => write!(f, "obligation"),
        }
    }
}

/// A policy: a kind, the role it constrains, the action it concerns, and
/// an optional condition over the action context.
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    name: String,
    kind: PolicyKind,
    role: String,
    action: String,
    condition: Option<Expr>,
}

impl Policy {
    /// A permission for `role` to perform `action`.
    pub fn permission(
        name: impl Into<String>,
        role: impl Into<String>,
        action: impl Into<String>,
    ) -> Self {
        Self::new(name, PolicyKind::Permission, role, action)
    }

    /// A prohibition on `role` performing `action`.
    pub fn prohibition(
        name: impl Into<String>,
        role: impl Into<String>,
        action: impl Into<String>,
    ) -> Self {
        Self::new(name, PolicyKind::Prohibition, role, action)
    }

    /// An obligation on `role` to perform `action`.
    pub fn obligation(
        name: impl Into<String>,
        role: impl Into<String>,
        action: impl Into<String>,
    ) -> Self {
        Self::new(name, PolicyKind::Obligation, role, action)
    }

    fn new(
        name: impl Into<String>,
        kind: PolicyKind,
        role: impl Into<String>,
        action: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            kind,
            role: role.into(),
            action: action.into(),
            condition: None,
        }
    }

    /// Restricts the policy to contexts satisfying a predicate.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed predicates.
    pub fn when(mut self, predicate: &str) -> Result<Self, ParseError> {
        self.condition = Some(Expr::parse(predicate)?);
        Ok(self)
    }

    /// The policy name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The policy kind.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// The action the policy concerns (`"*"` matches any action).
    pub fn action(&self) -> &str {
        &self.action
    }

    /// The condition, if any.
    pub fn condition(&self) -> Option<&Expr> {
        self.condition.as_ref()
    }

    /// Whether this policy speaks to the given role and action at all
    /// (ignoring the condition).
    pub fn matches(&self, role: &str, action: &str) -> bool {
        (self.role == role || self.role == "*") && (self.action == action || self.action == "*")
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {} may", self.name, self.kind, self.role)?;
        if self.kind == PolicyKind::Prohibition {
            write!(f, " not")?;
        }
        write!(f, " {}", self.action)?;
        if let Some(c) = &self.condition {
            write!(f, " when {c}")?;
        }
        Ok(())
    }
}

/// The outcome of evaluating an action request against the policy set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Allowed, naming the permission that granted it (or "default").
    Allowed { by: String },
    /// Denied, naming the prohibition (or "default") that blocked it.
    Denied { by: String },
}

impl Decision {
    /// Whether the action may proceed.
    pub fn is_allowed(&self) -> bool {
        matches!(self, Decision::Allowed { .. })
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Allowed { by } => write!(f, "allowed by {by}"),
            Decision::Denied { by } => write!(f, "denied by {by}"),
        }
    }
}

/// The lifecycle state of an obligation instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObligationState {
    /// Created but not yet discharged.
    Outstanding,
    /// Discharged by the obligor performing the action.
    Fulfilled,
    /// The deadline passed without discharge.
    Violated,
}

impl fmt::Display for ObligationState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObligationState::Outstanding => write!(f, "outstanding"),
            ObligationState::Fulfilled => write!(f, "fulfilled"),
            ObligationState::Violated => write!(f, "violated"),
        }
    }
}

/// A live obligation created by a performative action.
#[derive(Debug, Clone, PartialEq)]
pub struct Obligation {
    /// Instance identity.
    pub id: u64,
    /// The obligation policy this instance stems from.
    pub policy: String,
    /// The object that must act.
    pub obligor: u64,
    /// The action that discharges the obligation.
    pub action: String,
    /// Human-readable description (e.g. "notify customer 12 of new rate").
    pub description: String,
    /// Logical time of creation.
    pub created_at: u64,
    /// Logical deadline, if any.
    pub deadline: Option<u64>,
    /// Current lifecycle state.
    pub state: ObligationState,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert_eq!(
            Policy::permission("p", "r", "a").kind(),
            PolicyKind::Permission
        );
        assert_eq!(
            Policy::prohibition("p", "r", "a").kind(),
            PolicyKind::Prohibition
        );
        assert_eq!(
            Policy::obligation("p", "r", "a").kind(),
            PolicyKind::Obligation
        );
    }

    #[test]
    fn matching_supports_wildcards() {
        let p = Policy::permission("p", "*", "deposit");
        assert!(p.matches("teller", "deposit"));
        assert!(p.matches("manager", "deposit"));
        assert!(!p.matches("teller", "withdraw"));
        let p = Policy::prohibition("p", "customer", "*");
        assert!(p.matches("customer", "anything"));
        assert!(!p.matches("teller", "anything"));
    }

    #[test]
    fn when_parses_or_fails() {
        assert!(Policy::permission("p", "r", "a").when("x > 0").is_ok());
        assert!(Policy::permission("p", "r", "a").when("x >").is_err());
    }

    #[test]
    fn display_reads_like_a_policy() {
        let p = Policy::prohibition("limit", "customer", "withdraw")
            .when("amount > 500")
            .unwrap();
        let s = p.to_string();
        assert!(s.contains("may not withdraw"), "{s}");
        assert!(s.contains("when"), "{s}");
        assert!(Decision::Allowed { by: "p".into() }
            .to_string()
            .contains("allowed"));
    }

    #[test]
    fn decision_accessors() {
        let d = Decision::Denied { by: "limit".into() };
        assert!(!d.is_allowed());
    }
}
