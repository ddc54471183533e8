//! # rskip-core — shared foundations of the RSkip workspace
//!
//! Four small pieces every layer agrees on:
//!
//! * [`plan`] — the [`ProtectionPlan`]: what the compile-time protection
//!   pass decided per region, in exactly the shape the deployment runtime
//!   consumes. `rskip-passes` produces it, `rskip-runtime` is configured
//!   from it; neither crate depends on the other.
//! * [`parallel`] — deterministic scoped-thread parallel maps shared by
//!   the fault-injection campaign driver and the experiment engine.
//! * [`digest`] — CRC-32 / FNV-1a-64 content hashes shared by the model
//!   store and the executor's decoded-unit cache.
//! * [`stats`] — campaign outcome accounting ([`CampaignStats`] and
//!   friends) and Wilson confidence-interval / early-stopping math,
//!   shared by the one-shot campaign driver and the campaign service.
//!
//! The crate depends only on the vendored `serde` shim (the [`stats`]
//! aggregates are wire types for the campaign service), so it still sits
//! below every other workspace member.

#![deny(missing_docs)]

pub mod digest;
pub mod parallel;
pub mod plan;
pub mod stats;

pub use plan::{ProtectionPlan, RegionPlan};
pub use stats::{
    wilson_ci, CampaignStats, ClassCounts, EarlyStop, OutcomeClass, StopMetric, TrialOutcome,
    WilsonCi,
};
