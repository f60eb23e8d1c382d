//! Property tests for the policy engine: prohibition dominance, default
//! closure, revocation equivalence, and obligation lifecycle laws.

use proptest::prelude::*;

use rmodp_core::value::Value;
use rmodp_enterprise::prelude::*;

#[derive(Debug, Clone)]
struct PolicySpec {
    kind: u8, // 0 permission, 1 prohibition
    role: u8,
    action: u8,
    threshold: Option<i64>,
}

fn arb_policies() -> impl Strategy<Value = Vec<PolicySpec>> {
    proptest::collection::vec(
        (0u8..2, 0u8..3, 0u8..3, proptest::option::of(0i64..100)).prop_map(
            |(kind, role, action, threshold)| PolicySpec {
                kind,
                role,
                action,
                threshold,
            },
        ),
        0..12,
    )
}

fn build(policies: &[PolicySpec]) -> (Community, PolicyEngine) {
    let mut community = Community::new(1, "c", "test");
    for r in 0..3u8 {
        community.add_role(format!("r{r}")).unwrap();
    }
    // Object n fills role n.
    for r in 0..3u8 {
        community.assign(r as u64, format!("r{r}")).unwrap();
    }
    let mut engine = PolicyEngine::default();
    for (i, p) in policies.iter().enumerate() {
        let name = format!("p{i}");
        let role = format!("r{}", p.role);
        let action = format!("a{}", p.action);
        let mut policy = if p.kind == 0 {
            Policy::permission(name, role, action)
        } else {
            Policy::prohibition(name, role, action)
        };
        if let Some(t) = p.threshold {
            policy = policy.when(&format!("amount > {t}")).unwrap();
        }
        engine.adopt(policy).unwrap();
    }
    (community, engine)
}

fn request(actor: u8, action: u8, amount: i64) -> ActionRequest {
    ActionRequest::new(actor as u64, format!("a{action}"))
        .with_context(Value::record([("amount", Value::Int(amount))]))
}

/// Ground truth mirror of the documented decision procedure.
fn expected(policies: &[PolicySpec], actor: u8, action: u8, amount: i64) -> bool {
    let applicable = |p: &PolicySpec| {
        p.role == actor && p.action == action && p.threshold.map(|t| amount > t).unwrap_or(true)
    };
    if policies.iter().any(|p| p.kind == 1 && applicable(p)) {
        return false;
    }
    policies.iter().any(|p| p.kind == 0 && applicable(p))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The engine agrees with the documented semantics on every input:
    /// prohibitions dominate, then permissions, then default deny.
    #[test]
    fn decisions_match_ground_truth(
        policies in arb_policies(),
        actor in 0u8..3,
        action in 0u8..3,
        amount in 0i64..150,
    ) {
        let (community, mut engine) = build(&policies);
        let d = engine.decide(&community, &request(actor, action, amount)).unwrap();
        prop_assert_eq!(d.is_allowed(), expected(&policies, actor, action, amount));
    }

    /// Adding a prohibition never turns a denied action into an allowed
    /// one (anti-monotonicity of prohibitions).
    #[test]
    fn prohibitions_are_anti_monotone(
        policies in arb_policies(),
        actor in 0u8..3,
        action in 0u8..3,
        amount in 0i64..150,
    ) {
        let (community, mut engine) = build(&policies);
        let before = engine
            .decide(&community, &request(actor, action, amount))
            .unwrap()
            .is_allowed();
        engine
            .adopt(Policy::prohibition("extra-prohibition", format!("r{actor}"), format!("a{action}")))
            .unwrap();
        let after = engine
            .decide(&community, &request(actor, action, amount))
            .unwrap()
            .is_allowed();
        prop_assert!(!after || before);
        prop_assert!(!after, "an unconditional prohibition must deny");
    }

    /// Revoking every policy returns the engine to default-deny.
    #[test]
    fn revoking_everything_restores_default(
        policies in arb_policies(),
        actor in 0u8..3,
        action in 0u8..3,
    ) {
        let (community, mut engine) = build(&policies);
        let names: Vec<String> = engine.policies().iter().map(|p| p.name().to_owned()).collect();
        for name in names {
            prop_assert!(engine.revoke(&name));
        }
        let d = engine.decide(&community, &request(actor, action, 0)).unwrap();
        prop_assert_eq!(d, Decision::Denied { by: "default".into() });
    }

    /// Obligation lifecycle: created → exactly one of fulfilled/violated;
    /// discharge after the deadline never succeeds.
    #[test]
    fn obligation_lifecycle_is_linear(
        deadline in 1u64..100,
        discharge_at in 0u64..200,
    ) {
        let mut engine = PolicyEngine::default();
        engine.adopt(Policy::obligation("ob", "r0", "act")).unwrap();
        let id = engine.create_obligation("ob", 1, "do it", Some(deadline)).unwrap();
        engine.tick(discharge_at);
        let result = engine.discharge(id);
        if discharge_at <= deadline {
            prop_assert!(result.is_ok());
            prop_assert_eq!(engine.obligations_in(ObligationState::Fulfilled).len(), 1);
        } else {
            prop_assert!(result.is_err());
            prop_assert_eq!(engine.obligations_in(ObligationState::Violated).len(), 1);
        }
        // Never both, never still outstanding.
        prop_assert_eq!(engine.obligations_in(ObligationState::Outstanding).len(), 0);
        prop_assert_eq!(
            engine.obligations_in(ObligationState::Fulfilled).len()
                + engine.obligations_in(ObligationState::Violated).len(),
            1
        );
    }

    /// The audit trail records exactly one entry per decision.
    #[test]
    fn audit_is_complete(requests in proptest::collection::vec((0u8..3, 0u8..3), 0..20)) {
        let (community, mut engine) = build(&[]);
        let adopt_entries = engine.audit().len();
        for (actor, action) in &requests {
            engine.decide(&community, &request(*actor, *action, 0)).unwrap();
        }
        prop_assert_eq!(engine.audit().len() - adopt_entries, requests.len());
    }
}
