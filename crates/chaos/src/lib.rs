//! # rmodp-chaos — deterministic fault injection and recovery SLOs
//!
//! RM-ODP's failure transparency (§9) promises that "failure and
//! possible recovery of objects" is masked from applications — a
//! promise that can only be *tested* by making objects fail. This crate
//! supplies the failure half of that contract check: typed, seeded
//! fault schedules played on the simulated network on virtual time,
//! plus oracles that judge whether the transparency machinery (retries,
//! circuit breakers, dedup, relocation, 2PC) actually delivered
//! recovery.
//!
//! The pieces, bottom-up:
//!
//! - [`plan`] — [`FaultPlan`]: a schedule of typed faults (node
//!   crash/restart, link partition/heal, loss bursts, one-way loss,
//!   latency spikes) written by hand or drawn from a seeded RNG, and
//!   [`FaultPlan::timeline`], the one compiler of a plan: absolute
//!   network actions on virtual time, which a single simulator plays
//!   from its own event queue ([`FaultPlan::schedule_on`]) and a sharded
//!   run applies at its epoch barriers, so faults land at their planned
//!   instants on every shard count;
//! - [`oracle`] — [`verify_recovery`] → [`RecoveryReport`]: computes
//!   per-fault MTTR and in-window availability from the event stream it
//!   is handed, and reads the at-most-once counters from the metrics it
//!   is handed (`duplicate_dispatches` must stay zero);
//! - [`linear`] — [`verify_consistency`] → [`ConsistencyReport`]:
//!   replays the event stream of quorum-replicated groups and audits the
//!   consensus-safety invariants (epochs strictly increase, at most one
//!   leader per epoch, committed updates survive view changes, reads
//!   observe committed state only);
//! - [`driver`] — [`run_scenario_under_faults`]: the one-call harness
//!   tying a workload scenario, a fault plan, and the oracles together.
//!
//! Both reports are [`Verdict`]s, as the observe layer's causality check
//! is: `clean()` is the verdict, `assert_clean` fails with the report's
//! JSON, and JSON is the only rendering.
//!
//! Everything runs on `rmodp-netsim` virtual time with dedicated seeded
//! RNGs: the same seed produces the same fault trace, the same observe
//! stream, and byte-identical reports.
//!
//! [`FaultPlan`]: plan::FaultPlan
//! [`FaultPlan::timeline`]: plan::FaultPlan::timeline
//! [`FaultPlan::schedule_on`]: plan::FaultPlan::schedule_on
//! [`verify_recovery`]: oracle::verify_recovery
//! [`RecoveryReport`]: oracle::RecoveryReport
//! [`verify_consistency`]: linear::verify_consistency
//! [`ConsistencyReport`]: linear::ConsistencyReport
//! [`Verdict`]: rmodp_observe::oracle::Verdict
//! [`run_scenario_under_faults`]: driver::run_scenario_under_faults

pub mod driver;
pub mod linear;
pub mod oracle;
pub mod plan;

/// Commonly used items.
pub mod prelude {
    pub use crate::driver::{run_scenario_under_faults, ChaosOutcome};
    pub use crate::linear::{verify_consistency, ConsistencyReport, GroupConsistency};
    pub use crate::oracle::{verify_recovery, FaultRecovery, RecoveryReport};
    pub use crate::plan::{ChaosProfile, FaultEvent, FaultKind, FaultPlan};
    pub use rmodp_observe::json::ToJson;
    pub use rmodp_observe::oracle::Verdict;
}
