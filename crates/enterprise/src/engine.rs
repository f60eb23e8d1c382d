//! The policy engine: decisions, performative actions and obligations.

use std::fmt;

use rmodp_core::expr::EvalError;
use rmodp_core::value::Value;

use crate::community::Community;
use crate::policy::{Decision, Obligation, ObligationState, Policy, PolicyKind};

/// A request by an object to perform an action in some context.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionRequest {
    /// The acting object.
    pub actor: u64,
    /// The action name.
    pub action: String,
    /// The action context (a record the policy conditions range over).
    pub context: Value,
}

impl ActionRequest {
    /// Creates a request with an empty context.
    pub fn new(actor: u64, action: impl Into<String>) -> Self {
        Self {
            actor,
            action: action.into(),
            context: Value::record::<&str, _>([]),
        }
    }

    /// Builder: sets the context record.
    pub fn with_context(mut self, context: Value) -> Self {
        self.context = context;
        self
    }
}

/// A policy-engine failure.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyError {
    /// A policy with the same name is already adopted.
    DuplicatePolicy { name: String },
    /// A condition failed to evaluate against the request context.
    Condition { policy: String, error: EvalError },
    /// No adopted obligation policy has this name.
    UnknownObligationPolicy { name: String },
    /// The obligation instance does not exist or is not outstanding.
    NotOutstanding { id: u64 },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::DuplicatePolicy { name } => write!(f, "policy {name} already adopted"),
            PolicyError::Condition { policy, error } => {
                write!(f, "condition of policy {policy} failed: {error}")
            }
            PolicyError::UnknownObligationPolicy { name } => {
                write!(f, "no obligation policy named {name}")
            }
            PolicyError::NotOutstanding { id } => {
                write!(f, "obligation {id} is not outstanding")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// One audit-trail entry.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditEntry {
    /// A decision was rendered.
    Decision {
        actor: u64,
        action: String,
        decision: Decision,
        at: u64,
    },
    /// A performative action changed the policy set.
    Performative { description: String, at: u64 },
    /// An obligation changed state.
    ObligationChange {
        id: u64,
        state: ObligationState,
        at: u64,
    },
}

/// Evaluates action requests against adopted policies, manages obligation
/// instances, and keeps an audit trail.
///
/// Time is logical: callers pass monotonically increasing instants to
/// [`tick`](Self::tick)-sensitive methods so the engine composes with the
/// deterministic simulator.
#[derive(Debug)]
pub struct PolicyEngine {
    policies: Vec<Policy>,
    obligations: Vec<Obligation>,
    audit: Vec<AuditEntry>,
    next_obligation: u64,
    now: u64,
}

impl Default for PolicyEngine {
    fn default() -> Self {
        Self {
            policies: Vec::new(),
            obligations: Vec::new(),
            audit: Vec::new(),
            next_obligation: 1,
            now: 0,
        }
    }
}

impl PolicyEngine {
    /// Advances logical time (checks obligation deadlines).
    pub fn tick(&mut self, now: u64) {
        self.now = self.now.max(now);
        for ob in &mut self.obligations {
            if ob.state == ObligationState::Outstanding {
                if let Some(deadline) = ob.deadline {
                    if self.now > deadline {
                        ob.state = ObligationState::Violated;
                        self.audit.push(AuditEntry::ObligationChange {
                            id: ob.id,
                            state: ObligationState::Violated,
                            at: self.now,
                        });
                    }
                }
            }
        }
    }

    /// Adopts a policy. Adopting a policy is itself performative.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::DuplicatePolicy`] on a name collision.
    pub fn adopt(&mut self, policy: Policy) -> Result<(), PolicyError> {
        if self.policies.iter().any(|p| p.name() == policy.name()) {
            return Err(PolicyError::DuplicatePolicy {
                name: policy.name().to_owned(),
            });
        }
        self.audit.push(AuditEntry::Performative {
            description: format!("adopt {policy}"),
            at: self.now,
        });
        self.policies.push(policy);
        Ok(())
    }

    /// Revokes a policy by name (performative); returns whether it existed.
    pub fn revoke(&mut self, name: &str) -> bool {
        let before = self.policies.len();
        self.policies.retain(|p| p.name() != name);
        let removed = self.policies.len() != before;
        if removed {
            self.audit.push(AuditEntry::Performative {
                description: format!("revoke {name}"),
                at: self.now,
            });
        }
        removed
    }

    /// The adopted policies.
    pub fn policies(&self) -> &[Policy] {
        &self.policies
    }

    /// Decides whether a request may proceed.
    ///
    /// Prohibitions dominate permissions; the world is closed, so an
    /// action no permission covers is denied. The actor's roles come from
    /// the community.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::Condition`] if an applicable policy's
    /// condition cannot be evaluated.
    pub fn decide(
        &mut self,
        community: &Community,
        request: &ActionRequest,
    ) -> Result<Decision, PolicyError> {
        let roles = community.roles_of(request.actor);
        let decision = self.decide_for_roles(&roles, request)?;
        self.audit.push(AuditEntry::Decision {
            actor: request.actor,
            action: request.action.clone(),
            decision: decision.clone(),
            at: self.now,
        });
        Ok(decision)
    }

    fn decide_for_roles(
        &self,
        roles: &[&str],
        request: &ActionRequest,
    ) -> Result<Decision, PolicyError> {
        let applicable = |p: &Policy| -> Result<bool, PolicyError> {
            let speaks = roles.iter().any(|r| p.matches(r, &request.action));
            if !speaks {
                return Ok(false);
            }
            match p.condition() {
                None => Ok(true),
                Some(cond) => {
                    cond.eval_bool(&request.context)
                        .map_err(|error| PolicyError::Condition {
                            policy: p.name().to_owned(),
                            error,
                        })
                }
            }
        };
        for p in &self.policies {
            if p.kind() == PolicyKind::Prohibition && applicable(p)? {
                return Ok(Decision::Denied {
                    by: p.name().to_owned(),
                });
            }
        }
        for p in &self.policies {
            if p.kind() == PolicyKind::Permission && applicable(p)? {
                return Ok(Decision::Allowed {
                    by: p.name().to_owned(),
                });
            }
        }
        Ok(Decision::Denied {
            by: "default".to_owned(),
        })
    }

    /// Performs a performative action that *creates an obligation
    /// instance* under an adopted obligation policy — e.g. an interest-rate
    /// change obliging the manager to notify a customer.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::UnknownObligationPolicy`] if no adopted
    /// obligation policy has the given name.
    pub fn create_obligation(
        &mut self,
        policy_name: &str,
        obligor: u64,
        description: impl Into<String>,
        deadline: Option<u64>,
    ) -> Result<u64, PolicyError> {
        let policy = self
            .policies
            .iter()
            .find(|p| p.name() == policy_name && p.kind() == PolicyKind::Obligation)
            .ok_or_else(|| PolicyError::UnknownObligationPolicy {
                name: policy_name.to_owned(),
            })?;
        let id = self.next_obligation;
        self.next_obligation += 1;
        let ob = Obligation {
            id,
            policy: policy.name().to_owned(),
            obligor,
            action: policy.action().to_owned(),
            description: description.into(),
            created_at: self.now,
            deadline,
            state: ObligationState::Outstanding,
        };
        self.audit.push(AuditEntry::ObligationChange {
            id,
            state: ObligationState::Outstanding,
            at: self.now,
        });
        self.obligations.push(ob);
        Ok(id)
    }

    /// Discharges an outstanding obligation (the obligor performed the
    /// required action).
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::NotOutstanding`] if the instance is unknown,
    /// already fulfilled, or already violated.
    pub fn discharge(&mut self, id: u64) -> Result<(), PolicyError> {
        let ob = self
            .obligations
            .iter_mut()
            .find(|o| o.id == id && o.state == ObligationState::Outstanding)
            .ok_or(PolicyError::NotOutstanding { id })?;
        ob.state = ObligationState::Fulfilled;
        self.audit.push(AuditEntry::ObligationChange {
            id,
            state: ObligationState::Fulfilled,
            at: self.now,
        });
        Ok(())
    }

    /// Obligation instances in a given state.
    pub fn obligations_in(&self, state: ObligationState) -> Vec<&Obligation> {
        self.obligations
            .iter()
            .filter(|o| o.state == state)
            .collect()
    }

    /// The audit trail.
    pub fn audit(&self) -> &[AuditEntry] {
        &self.audit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn branch() -> Community {
        let mut c = Community::new(1, "branch", "banking");
        c.add_role("manager").unwrap();
        c.add_role("teller").unwrap();
        c.add_role("customer").unwrap();
        c.assign(1, "manager").unwrap();
        c.assign(2, "teller").unwrap();
        c.assign(3, "customer").unwrap();
        c
    }

    fn engine() -> PolicyEngine {
        let mut e = PolicyEngine::default();
        e.adopt(Policy::permission("deposit-open", "*", "deposit"))
            .unwrap();
        e.adopt(
            Policy::permission("customer-withdraw", "customer", "withdraw")
                .when("amount > 0")
                .unwrap(),
        )
        .unwrap();
        e.adopt(
            Policy::prohibition("daily-limit", "customer", "withdraw")
                .when("amount + withdrawn_today > 500")
                .unwrap(),
        )
        .unwrap();
        e.adopt(Policy::permission(
            "manager-create",
            "manager",
            "create_account",
        ))
        .unwrap();
        e.adopt(Policy::obligation(
            "advise-rate",
            "manager",
            "notify_customer",
        ))
        .unwrap();
        e
    }

    fn withdraw_ctx(amount: i64, withdrawn: i64) -> Value {
        Value::record([
            ("amount", Value::Int(amount)),
            ("withdrawn_today", Value::Int(withdrawn)),
        ])
    }

    #[test]
    fn prohibition_dominates_permission() {
        let c = branch();
        let mut e = engine();
        let ok = ActionRequest::new(3, "withdraw").with_context(withdraw_ctx(400, 0));
        assert_eq!(
            e.decide(&c, &ok).unwrap(),
            Decision::Allowed {
                by: "customer-withdraw".into()
            }
        );
        let too_much = ActionRequest::new(3, "withdraw").with_context(withdraw_ctx(200, 400));
        assert_eq!(
            e.decide(&c, &too_much).unwrap(),
            Decision::Denied {
                by: "daily-limit".into()
            }
        );
    }

    #[test]
    fn default_denies_unpermitted_actions() {
        let c = branch();
        let mut e = engine();
        // A teller has no permission to create accounts; only the manager.
        let req = ActionRequest::new(2, "create_account");
        assert_eq!(
            e.decide(&c, &req).unwrap(),
            Decision::Denied {
                by: "default".into()
            }
        );
        let req = ActionRequest::new(1, "create_account");
        assert!(e.decide(&c, &req).unwrap().is_allowed());
    }

    #[test]
    fn wildcard_role_policies_apply_to_everyone() {
        let c = branch();
        let mut e = engine();
        for actor in [1, 2, 3] {
            let req = ActionRequest::new(actor, "deposit");
            assert!(e.decide(&c, &req).unwrap().is_allowed(), "actor {actor}");
        }
    }

    #[test]
    fn condition_errors_are_reported() {
        let c = branch();
        let mut e = engine();
        // Missing context fields make the daily-limit condition unevaluable.
        let req = ActionRequest::new(3, "withdraw");
        let err = e.decide(&c, &req).unwrap_err();
        assert!(matches!(err, PolicyError::Condition { .. }));
    }

    #[test]
    fn revoking_permission_is_performative() {
        let c = branch();
        let mut e = engine();
        assert!(e.revoke("customer-withdraw"));
        assert!(!e.revoke("customer-withdraw"));
        let req = ActionRequest::new(3, "withdraw").with_context(withdraw_ctx(100, 0));
        assert_eq!(
            e.decide(&c, &req).unwrap(),
            Decision::Denied {
                by: "default".into()
            }
        );
        assert!(e
            .audit()
            .iter()
            .any(|a| matches!(a, AuditEntry::Performative { description, .. } if description.contains("revoke"))));
    }

    #[test]
    fn interest_rate_change_creates_obligations() {
        let mut e = engine();
        e.tick(10);
        // The performative action: rate changed → obligation per customer.
        let ob1 = e
            .create_obligation("advise-rate", 1, "notify customer 3", Some(100))
            .unwrap();
        let ob2 = e
            .create_obligation("advise-rate", 1, "notify customer 4", Some(100))
            .unwrap();
        assert_eq!(e.obligations_in(ObligationState::Outstanding).len(), 2);
        e.discharge(ob1).unwrap();
        assert_eq!(e.obligations_in(ObligationState::Fulfilled).len(), 1);
        // Deadline passes: the second obligation is violated.
        e.tick(101);
        assert_eq!(e.obligations_in(ObligationState::Violated).len(), 1);
        assert!(matches!(
            e.discharge(ob2),
            Err(PolicyError::NotOutstanding { .. })
        ));
        // Double-discharge is also rejected.
        assert!(matches!(
            e.discharge(ob1),
            Err(PolicyError::NotOutstanding { .. })
        ));
    }

    #[test]
    fn obligations_need_an_adopted_policy() {
        let mut e = engine();
        assert!(matches!(
            e.create_obligation("no-such", 1, "x", None),
            Err(PolicyError::UnknownObligationPolicy { .. })
        ));
        // Permissions are not obligation policies.
        assert!(matches!(
            e.create_obligation("deposit-open", 1, "x", None),
            Err(PolicyError::UnknownObligationPolicy { .. })
        ));
    }

    #[test]
    fn duplicate_policy_names_rejected() {
        let mut e = engine();
        assert!(matches!(
            e.adopt(Policy::permission("deposit-open", "x", "y")),
            Err(PolicyError::DuplicatePolicy { .. })
        ));
    }

    #[test]
    fn audit_records_decisions() {
        let c = branch();
        let mut e = engine();
        let req = ActionRequest::new(3, "deposit");
        e.decide(&c, &req).unwrap();
        assert!(e.audit().iter().any(|a| matches!(
            a,
            AuditEntry::Decision { actor: 3, action, .. } if action == "deposit"
        )));
    }
}
