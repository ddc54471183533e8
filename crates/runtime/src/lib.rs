//! # rskip-runtime — run-time management for prediction-based protection
//!
//! The deployed half of RSkip (paper §5–§6): per-region prediction state,
//! the intrinsic handler that the transformed code drives, context
//! signatures, the QoS model, and the offline training phase.
//!
//! * [`PredictionRuntime`] implements
//!   [`RuntimeHooks`](rskip_exec::RuntimeHooks): `observe` feeds the
//!   dynamic-interpolation phase machine (first-level predictor) and, on
//!   rejection, approximate memoization (second-level predictor, §4.2);
//!   elements failing both become *pending* re-computations that the
//!   transformed code drains through `next_pending`.
//! * [`signature`] builds context signatures — the ranking of the
//!   slope-change histogram bins (§5's `"312"` example).
//! * [`QosTable`] maps signatures to tuning parameters; the runtime
//!   periodically regenerates the signature and adjusts TP, keeping the
//!   previous TP on a miss (as the paper does).
//! * [`train_from_profiles`] implements the offline phase (§6): profile once
//!   (skip-all semantics keep outputs exact), then *simulate* dynamic
//!   interpolation over the sampled outputs while sweeping TP to find the
//!   best parameter per signature, and build the memoization lookup table
//!   from the recorded `(args, output)` samples.
//!
//! Every intrinsic returns a modeled instruction cost (the real runtime
//! executes real instructions; PAPI would count them) — see [`costs`] for
//! the constants and their calibration notes.

#![deny(missing_docs)]

pub mod costs;
mod qos;
mod region;
mod runtime;
pub mod signature;
pub mod stored;
pub mod supervisor;
mod train;

pub use qos::QosTable;
pub use region::{RegionState, RegionStats};
pub use rskip_core::{ProtectionPlan, RegionPlan};
pub use runtime::{PredictionRuntime, RegionInit, RuntimeConfig, StateFaultTarget};
pub use stored::{export_profiles, import_profiles};
pub use supervisor::{
    DemotionCauses, Supervisor, SupervisorPolicy, SupervisorState, SupervisorStats,
};
pub use train::{
    profile_module, profile_module_with, profiling_run_count, train_from_profiles,
    training_run_count, RegionModel, RegionProfile, TrainedModel, TrainingConfig,
};
