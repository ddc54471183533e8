//! The execution boundary between the service and the harness.
//!
//! `rskip-serve` owns queueing, scheduling, streaming and stopping; it
//! deliberately does not know how to build a benchmark or inject a
//! fault. Both live behind [`CampaignRunner`], implemented by
//! `rskip-harness` (which sits *above* this crate — Cargo forbids the
//! cycle that a direct dependency would create). Tests here use small
//! mock runners for the same reason production uses the harness one:
//! the scheduler's correctness is independent of what a trial does.

use std::ops::Range;

use rskip_core::stats::CampaignStats;

use crate::protocol::{ErrorKind, JobSpec};

/// The result of executing one contiguous chunk of a job's trials.
#[derive(Clone, Debug, Default)]
pub struct ChunkOutput {
    /// Aggregate over exactly the trials in the chunk's range.
    pub stats: CampaignStats,
    /// Per-trial outcome codes (one char per trial, chunk order), when
    /// the job asked for them; `None` otherwise.
    pub outcomes: Option<String>,
}

/// Executes validated campaign chunks on behalf of the service.
///
/// Implementations must be deterministic in the sharding sense the
/// service advertises: `run_chunk(spec, a..b)` followed by
/// `run_chunk(spec, b..c)` must merge to exactly
/// `run_chunk(spec, a..c)` — i.e. each trial's result depends only on
/// the spec and the trial's global index, never on chunk boundaries,
/// thread counts or what other jobs ran in between.
pub trait CampaignRunner: Send + Sync + 'static {
    /// Checks the parts of `spec` only the runner can judge (bench,
    /// scheme and fault-model names). The service has already
    /// checked tenant shape and trial-count bounds.
    ///
    /// # Errors
    ///
    /// A typed reason plus human-readable detail, forwarded verbatim as
    /// a [`Rejected`](crate::protocol::Response::Rejected) frame.
    fn validate(&self, spec: &JobSpec) -> Result<(), (ErrorKind, String)>;

    /// Runs trials `range` (global, zero-based indices into the job's
    /// `0..trials`) and returns their aggregate. `want_outcomes` on the
    /// spec asks for the per-trial code string too.
    fn run_chunk(&self, spec: &JobSpec, range: Range<u32>) -> ChunkOutput;

    /// A content hash of everything *beyond the spec's own wire
    /// fields* that determines trial results — for the harness, the
    /// selected scheme's compiled module text. The service folds this
    /// into each job's identity key, so a result cached under one
    /// binary/model-store state is never served after the underlying
    /// benchmark content changes. Runners whose results depend only on
    /// the spec (the mock runners in tests) can keep the default.
    fn fingerprint(&self, _spec: &JobSpec) -> u64 {
        0
    }
}
