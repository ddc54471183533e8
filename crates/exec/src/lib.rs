//! # rskip-exec — execution substrate for the RSkip system
//!
//! The paper evaluates on an Intel Xeon (performance, PAPI counters) and on
//! gem5 (statistical fault injection). Neither is available to a
//! self-contained reproduction, so this crate provides the equivalent
//! substrate for the RSkip IR:
//!
//! * [`Machine`] — an IR interpreter with retired-instruction counters
//!   (the PAPI substitute) and pluggable [`RuntimeHooks`] implementing the
//!   `rskip.*` intrinsics.
//! * [`Pipeline`] — a superscalar scoreboard timing model (in-order issue,
//!   out-of-order completion, per-class latencies, branch predictor)
//!   producing cycles and IPC over the dynamic instruction trace. It
//!   reproduces the architectural effect the paper's §7.1 relies on:
//!   independent duplicated instructions raise IPC, while dependent
//!   validation compare/branch chains stall.
//! * [`InjectionPlan`] — the gem5-SFI substitute: one fault per run,
//!   drawn from a pluggable [`FaultModel`] (the paper's single-bit SEU,
//!   a contiguous multi-bit burst, or an instruction skip à la Moro et
//!   al.) at a uniformly random dynamic instant *inside the detected
//!   loop regions* (paper §7.2).
//! * [`enumerate_faults`] — exhaustive fault enumeration over
//!   micro-regions per fault model ([`enumerate_flips`] is the
//!   single-bit form): the dynamic cross-check of `rskip-lint`'s static
//!   protection-coverage claims (every claimed-covered fault must be
//!   masked or detected; unprotected windows must be witnessed by SDC).
//! * [`OutcomeClass`] — the five outcome classes of §7.2 (Correct / SDC /
//!   Segfault / Core dump / Hang), derived from the run's termination and a
//!   bit-exact output comparison ("our evaluation considers even small
//!   output errors as bad quality").
//! * [`ExecTier`] — selectable execution engines over one decode: the
//!   reference match-dispatch interpreter (semantics oracle) and a
//!   direct-threaded tier (the default, observationally identical,
//!   faster). Decodes are shared
//!   process-wide through a content-hash cache ([`decode_cache_stats`]).

#![deny(missing_docs)]

mod counters;
mod decoded;
mod enumerate;
mod fault;
mod hooks;
mod machine;
mod pipeline;
mod threaded;

pub use counters::Counters;
pub use decoded::{decode_cache_stats, DecodeCacheStats, Decoded};
pub use enumerate::{
    enumerate_faults, enumerate_faults_pruned, enumerate_flips, EnumError, Enumeration, Probe,
    TraceEntry,
};
pub use fault::{
    classify_outcome, ExactFault, ExactFaultKind, ExactFlip, FaultEffect, FaultModel,
    InjectionPlan, InjectionRecord, OutcomeClass,
};
pub use hooks::{IntrinsicAction, NoopHooks, RuntimeHooks};
pub use machine::{run_simple, ExecConfig, ExecTier, Machine, RunOutcome, Termination, Trap};
pub use pipeline::{class_of, latency_of, latency_of_class, OpClass, Pipeline, PipelineConfig};
