//! Property tests for the security functions: token uniqueness and
//! expiry boundaries, credential isolation, and ACL soundness.

use proptest::prelude::*;

use rmodp_functions::security::{AccessController, Authenticator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Tokens are unique and valid exactly until (not at) their expiry.
    #[test]
    fn token_expiry_boundary(ttl in 1u64..10_000, issued_at in 0u64..10_000, probe in 0u64..30_000) {
        let mut auth = Authenticator::new(ttl);
        auth.enrol("alice", "s3cret");
        let token = auth.authenticate("alice", "s3cret", issued_at).unwrap();
        prop_assert_eq!(token.expires_at, issued_at + ttl);
        let valid = auth.validate(token.value, probe).is_ok();
        prop_assert_eq!(valid, probe < issued_at + ttl);
    }

    /// Distinct authentications yield distinct token values.
    #[test]
    fn tokens_are_unique(count in 1usize..50) {
        let mut auth = Authenticator::new(1_000);
        auth.enrol("alice", "s");
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..count {
            let t = auth.authenticate("alice", "s", i as u64).unwrap();
            prop_assert!(seen.insert(t.value), "duplicate token value");
        }
    }

    /// A principal's secret never authenticates another principal, and
    /// revoked tokens stay invalid forever after.
    #[test]
    fn credential_isolation_and_revocation(now in 0u64..1_000) {
        let mut auth = Authenticator::new(10_000);
        let alice = auth.enrol("alice", "apple");
        let bob = auth.enrol("bob", "banana");
        prop_assert_ne!(alice, bob);
        prop_assert!(auth.authenticate("alice", "banana", now).is_err());
        prop_assert!(auth.authenticate("bob", "apple", now).is_err());
        let t = auth.authenticate("bob", "banana", now).unwrap();
        prop_assert_eq!(auth.validate(t.value, now), Ok(bob));
        prop_assert!(auth.revoke(t.value));
        prop_assert!(auth.validate(t.value, now).is_err());
    }

    /// ACL soundness: a check passes iff some rule grants it — mirrored
    /// against an independent ground-truth evaluation.
    #[test]
    fn acl_matches_ground_truth(
        rules in proptest::collection::vec((0u8..2, 0u8..3, 0u8..4), 0..10),
        principal_roles in proptest::collection::vec(0u8..3, 0..3),
        op in 0u8..4,
    ) {
        let mut auth = Authenticator::new(1_000);
        let p = auth.enrol("p", "s");
        let mut ac = AccessController::default();
        for role in &principal_roles {
            ac.assign_role(p, format!("role{role}"));
        }
        // kind 0: principal rule; kind 1: role rule. op 3 encodes "*".
        for (kind, role, rule_op) in &rules {
            let op_name = if *rule_op == 3 { "*".to_owned() } else { format!("op{rule_op}") };
            if *kind == 0 {
                ac.allow_principal(p, op_name);
            } else {
                ac.allow_role(format!("role{role}"), op_name);
            }
        }
        let expected = rules.iter().any(|(kind, role, rule_op)| {
            let op_matches = *rule_op == 3 || *rule_op == op;
            let subject_matches = *kind == 0 || principal_roles.contains(role);
            op_matches && subject_matches
        });
        let got = ac.check(p, &format!("op{op}"), 0);
        prop_assert_eq!(got, expected);
        // The decision is in the audit trail either way.
        prop_assert_eq!(ac.audit().len(), 1);
        prop_assert_eq!(ac.audit()[0].allowed, expected);
    }
}
