//! Security functions (§8.4): authentication, access control and audit,
//! modelled after the OSI security frameworks the paper cites.
//!
//! Secrets never cross a channel in this realisation: authentication
//! exchanges a (name, secret) pair for a bearer token with an expiry in
//! simulator time; access control evaluates ACL rules over principals and
//! their roles; every decision lands in the audit trail.

use std::collections::BTreeMap;
use std::fmt;

use rmodp_core::id::{IdGen, PrincipalId};

/// A bearer token proving authentication until it expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// The authenticated principal.
    pub principal: PrincipalId,
    /// Opaque token value.
    pub value: u64,
    /// Expiry instant (simulator microseconds).
    pub expires_at: u64,
}

/// An authentication failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthError {
    /// Unknown principal or wrong secret (deliberately indistinguishable).
    BadCredentials,
    /// The token is unknown, expired, or revoked.
    InvalidToken,
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::BadCredentials => write!(f, "authentication failed"),
            AuthError::InvalidToken => write!(f, "token is invalid or expired"),
        }
    }
}

impl std::error::Error for AuthError {}

/// The authentication function.
#[derive(Debug, Default)]
pub struct Authenticator {
    secrets: BTreeMap<PrincipalId, String>,
    by_name: BTreeMap<String, PrincipalId>,
    tokens: BTreeMap<u64, Token>,
    gen: IdGen<PrincipalId>,
    next_token: u64,
    /// Token lifetime in simulator microseconds.
    token_ttl: u64,
}

impl Authenticator {
    /// Creates an authenticator with the given token lifetime
    /// (simulator microseconds).
    pub fn new(token_ttl: u64) -> Self {
        Self {
            token_ttl,
            next_token: 1,
            ..Self::default()
        }
    }

    /// Enrols a principal; returns its identity. Re-enrolling a name
    /// replaces its secret.
    pub fn enrol(&mut self, name: impl Into<String>, secret: impl Into<String>) -> PrincipalId {
        let id = *self
            .by_name
            .entry(name.into())
            .or_insert_with(|| self.gen.fresh());
        self.secrets.insert(id, secret.into());
        id
    }

    /// Exchanges credentials for a token.
    ///
    /// # Errors
    ///
    /// [`AuthError::BadCredentials`] for unknown names or wrong secrets.
    pub fn authenticate(&mut self, name: &str, secret: &str, now: u64) -> Result<Token, AuthError> {
        let id = self.by_name.get(name).ok_or(AuthError::BadCredentials)?;
        if self.secrets.get(id).ok_or(AuthError::BadCredentials)? != secret {
            return Err(AuthError::BadCredentials);
        }
        let token = Token {
            principal: *id,
            value: self.next_token,
            expires_at: now + self.token_ttl,
        };
        self.next_token += 1;
        self.tokens.insert(token.value, token);
        Ok(token)
    }

    /// Validates a token value at a point in time.
    ///
    /// # Errors
    ///
    /// [`AuthError::InvalidToken`] for unknown, expired or revoked tokens.
    pub fn validate(&self, token_value: u64, now: u64) -> Result<PrincipalId, AuthError> {
        match self.tokens.get(&token_value) {
            Some(t) if t.expires_at > now => Ok(t.principal),
            _ => Err(AuthError::InvalidToken),
        }
    }

    /// Revokes a token; returns whether it existed.
    pub fn revoke(&mut self, token_value: u64) -> bool {
        self.tokens.remove(&token_value).is_some()
    }
}

/// An access-control rule: `(principal-or-role, operation pattern)` →
/// allow. `"*"` matches any operation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Subject {
    Principal(PrincipalId),
    Role(String),
}

/// One audit-trail entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// When (simulator microseconds).
    pub at: u64,
    /// Which principal.
    pub principal: PrincipalId,
    /// What operation was attempted.
    pub operation: String,
    /// Whether it was allowed.
    pub allowed: bool,
}

/// The access-control + audit function.
#[derive(Debug, Default)]
pub struct AccessController {
    rules: Vec<(Subject, String)>,
    roles: BTreeMap<PrincipalId, Vec<String>>,
    audit: Vec<AuditRecord>,
}

impl AccessController {
    /// Grants an operation (or `"*"`) to a principal.
    pub fn allow_principal(&mut self, principal: PrincipalId, operation: impl Into<String>) {
        self.rules
            .push((Subject::Principal(principal), operation.into()));
    }

    /// Grants an operation (or `"*"`) to a role.
    pub fn allow_role(&mut self, role: impl Into<String>, operation: impl Into<String>) {
        self.rules
            .push((Subject::Role(role.into()), operation.into()));
    }

    /// Assigns a role to a principal.
    pub fn assign_role(&mut self, principal: PrincipalId, role: impl Into<String>) {
        self.roles.entry(principal).or_default().push(role.into());
    }

    /// Decides (and audits) whether a principal may perform an operation.
    pub fn check(&mut self, principal: PrincipalId, operation: &str, now: u64) -> bool {
        let roles = self.roles.get(&principal).cloned().unwrap_or_default();
        let allowed = self.rules.iter().any(|(subject, op)| {
            let subject_matches = match subject {
                Subject::Principal(p) => *p == principal,
                Subject::Role(r) => roles.iter().any(|have| have == r),
            };
            subject_matches && (op == operation || op == "*")
        });
        self.audit.push(AuditRecord {
            at: now,
            principal,
            operation: operation.to_owned(),
            allowed,
        });
        allowed
    }

    /// The audit trail.
    pub fn audit(&self) -> &[AuditRecord] {
        &self.audit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn authenticate_and_validate() {
        let mut auth = Authenticator::new(1_000);
        let alice = auth.enrol("alice", "sesame");
        let token = auth.authenticate("alice", "sesame", 100).unwrap();
        assert_eq!(token.principal, alice);
        assert_eq!(auth.validate(token.value, 500), Ok(alice));
        // Expired.
        assert_eq!(
            auth.validate(token.value, 1_100),
            Err(AuthError::InvalidToken)
        );
    }

    #[test]
    fn bad_credentials_are_indistinguishable() {
        let mut auth = Authenticator::new(1_000);
        auth.enrol("alice", "sesame");
        assert_eq!(
            auth.authenticate("alice", "wrong", 0),
            Err(AuthError::BadCredentials)
        );
        assert_eq!(
            auth.authenticate("nobody", "sesame", 0),
            Err(AuthError::BadCredentials)
        );
    }

    #[test]
    fn revocation_invalidates_tokens() {
        let mut auth = Authenticator::new(1_000);
        auth.enrol("alice", "s");
        let token = auth.authenticate("alice", "s", 0).unwrap();
        assert!(auth.revoke(token.value));
        assert!(!auth.revoke(token.value));
        assert_eq!(auth.validate(token.value, 1), Err(AuthError::InvalidToken));
    }

    #[test]
    fn re_enrol_replaces_secret_keeps_identity() {
        let mut auth = Authenticator::new(1_000);
        let a = auth.enrol("alice", "old");
        let b = auth.enrol("alice", "new");
        assert_eq!(a, b);
        assert!(auth.authenticate("alice", "old", 0).is_err());
        assert!(auth.authenticate("alice", "new", 0).is_ok());
    }

    #[test]
    fn access_control_by_principal_and_role() {
        let mut auth = Authenticator::new(1_000);
        let manager = auth.enrol("mgr", "s");
        let teller = auth.enrol("tlr", "s");
        let mut ac = AccessController::default();
        ac.allow_role("teller", "Deposit");
        ac.allow_role("teller", "Withdraw");
        ac.allow_principal(manager, "*");
        ac.assign_role(teller, "teller");

        assert!(ac.check(teller, "Deposit", 1));
        assert!(!ac.check(teller, "CreateAccount", 2));
        assert!(ac.check(manager, "CreateAccount", 3));
        // Default deny for strangers.
        let stranger = auth.enrol("x", "s");
        assert!(!ac.check(stranger, "Deposit", 4));

        let audit = ac.audit();
        assert_eq!(audit.len(), 4);
        assert!(audit[0].allowed);
        assert!(!audit[1].allowed);
        assert_eq!(audit[1].operation, "CreateAccount");
    }
}
