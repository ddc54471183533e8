//! # rskip — low-cost prediction-based fault protection
//!
//! A from-scratch Rust reproduction of *"Low-Cost Prediction-Based Fault
//! Protection Strategy"* (Park, Li, Zhang, Mahlke — CGO 2020): the RSkip
//! compiler, its prediction runtime, the SWIFT/SWIFT-R baselines, and a
//! complete evaluation substrate (IR, interpreter, timing model, SEU fault
//! injector, nine benchmark workloads, and a harness regenerating every
//! table and figure of the paper's evaluation).
//!
//! ## The idea
//!
//! Conventional software fault protection re-executes every computation
//! and compares (SWIFT-R triples it for recovery) — 2–3.5× the dynamic
//! instructions. RSkip instead *predicts* loop outputs with cheap
//! approximation models and fuzzy-validates: when the computed value and
//! the prediction agree within an *acceptable range*, the expensive
//! redundant re-computation is skipped. Mispredictions cost time, never
//! correctness; missed faults are bounded by the acceptable range.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`ProtectionPlan`] | `rskip-core` | compiler↔runtime plan types, parallel utilities |
//! | [`ir`] | `rskip-ir` | typed register IR, builder, verifier, parser |
//! | [`analysis`] | `rskip-analysis` | CFG, dominators, loops, slices, candidates |
//! | [`passes`] | `rskip-passes` | SWIFT, SWIFT-R, outliner, RSkip transform |
//! | [`predict`] | `rskip-predict` | dynamic interpolation, approximate memoization |
//! | [`exec`] | `rskip-exec` | interpreter, pipeline timing, SEU injection |
//! | [`runtime`] | `rskip-runtime` | prediction runtime, signatures, QoS, training |
//! | [`workloads`] | `rskip-workloads` | the nine Table-1 benchmarks |
//! | [`harness`] | `rskip-harness` | per-figure experiment drivers |
//!
//! ## Quickstart
//!
//! ```
//! use rskip::exec::{Machine, NoopHooks};
//! use rskip::passes::{protect, Scheme};
//! use rskip::runtime::{PredictionRuntime, RuntimeConfig};
//! use rskip::workloads::{benchmark_by_name, SizeProfile};
//!
//! // 1. A workload (or build your own module with rskip::ir).
//! let bench = benchmark_by_name("conv1d").unwrap();
//! let module = bench.build(SizeProfile::Tiny);
//! let input = bench.gen_input(SizeProfile::Tiny, 2000);
//!
//! // 2. Compile with prediction-based protection.
//! let protected = protect(&module, Scheme::RSkip);
//!
//! // 3. Attach the prediction runtime and run.
//! let inits = rskip::region_inits(&protected);
//! let rt = PredictionRuntime::new(&inits, RuntimeConfig::with_ar(0.2));
//! let mut machine = Machine::new(&protected.module, rt);
//! input.apply(&mut machine);
//! let outcome = machine.run("main", &[]);
//! assert!(outcome.returned());
//! let skip_rate = machine.hooks().total_skip_rate();
//! assert!(skip_rate > 0.0);
//! ```

#![deny(missing_docs)]

pub use rskip_analysis as analysis;
pub use rskip_exec as exec;
pub use rskip_harness as harness;
pub use rskip_ir as ir;
pub use rskip_passes as passes;
pub use rskip_predict as predict;
pub use rskip_runtime as runtime;
pub use rskip_workloads as workloads;

pub use rskip_core::{ProtectionPlan, RegionPlan};

use rskip_passes::Protected;
use rskip_runtime::RegionInit;

/// Converts a protected build's region specs into runtime init records —
/// the glue every deployment needs. Equivalent to `p.plan().regions`;
/// [`ProtectionPlan`] is the compiler↔runtime handoff type.
///
/// # Example
///
/// ```
/// use rskip::passes::{protect, Scheme};
/// use rskip::workloads::{benchmark_by_name, SizeProfile};
///
/// let bench = benchmark_by_name("sgemm").unwrap();
/// let p = protect(&bench.build(SizeProfile::Tiny), Scheme::RSkip);
/// let inits = rskip::region_inits(&p);
/// assert_eq!(inits.len(), p.regions.len());
/// ```
pub fn region_inits(p: &Protected) -> Vec<RegionInit> {
    p.plan().regions
}
