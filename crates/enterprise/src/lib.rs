//! # rmodp-enterprise — the enterprise viewpoint (§3)
//!
//! The enterprise language expresses *purpose, scope and policies*:
//!
//! - **objects** — active (bank managers, tellers, customers) and passive
//!   (accounts, money);
//! - **communities** — groupings of objects intended to achieve some
//!   purpose (a bank branch providing banking services);
//! - **roles** whose behaviour is constrained by **policies**:
//!   *permissions* (what can be done), *prohibitions* (what must not be
//!   done) and *obligations* (what must be done).
//!
//! The language is specifically concerned with **performative actions**
//! that change policy — e.g. changing the interest rate *creates an
//! obligation* on the bank manager to inform customers. The
//! [`PolicyEngine`](engine::PolicyEngine) evaluates action requests
//! against the policy set, tracks obligation instances through their
//! lifecycle, and keeps an audit trail.
//!
//! # Example
//!
//! ```
//! use rmodp_enterprise::prelude::*;
//! use rmodp_core::value::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut community = Community::new(1, "branch", "provide banking services");
//! community.add_role("teller")?;
//! community.assign(10, "teller")?;
//!
//! let mut engine = PolicyEngine::default();
//! engine.adopt(Policy::permission("teller-ops", "teller", "withdraw")
//!     .when("amount <= 500")?)?;
//! engine.adopt(Policy::prohibition("limit", "teller", "withdraw")
//!     .when("amount > 500")?)?;
//!
//! let small = ActionRequest::new(10, "withdraw")
//!     .with_context(Value::record([("amount", Value::Int(100))]));
//! assert!(engine.decide(&community, &small)?.is_allowed());
//!
//! let big = ActionRequest::new(10, "withdraw")
//!     .with_context(Value::record([("amount", Value::Int(800))]));
//! assert!(!engine.decide(&community, &big)?.is_allowed());
//! # Ok(())
//! # }
//! ```

pub mod community;
pub mod engine;
pub mod policy;

/// Commonly used items.
pub mod prelude {
    pub use crate::community::{Community, CommunityError};
    pub use crate::engine::{ActionRequest, AuditEntry, PolicyEngine, PolicyError};
    pub use crate::policy::{Decision, Obligation, ObligationState, Policy, PolicyKind};
}
