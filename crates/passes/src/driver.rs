//! The scheme driver: one entry point that turns an unprotected module
//! into a protected one (paper Fig. 3's compiler box).
//!
//! Every [`protect_with`] call ends with the `rskip-lint` post-pass hook:
//! the transformed module is re-verified, its protection coverage is
//! linted under the scheme's validation model, and memoized region bodies
//! are checked for purity. A transformation bug therefore fails the build
//! with a typed [`PassError`] instead of surfacing as a detection miss in
//! a fault campaign.

use rskip_analysis::{
    find_candidates, lint_memoized_body, lint_module, CandidateKind, CoverageDiag, CoverageReport,
    DetectConfig, ValidationModel,
};
use rskip_core::{ProtectionPlan, RegionPlan};
use rskip_ir::{Module, RegionId, Ty, VerifyError};

use crate::outline::outline_body;
use crate::rskip::{apply_rskip, BodySource};
use crate::swift::apply_swift;
use crate::swift_r::apply_swift_r;
use crate::util::add_region_markers;

/// The protection scheme to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No protection (the paper's UNSAFE bar); candidate loops still get
    /// region markers so fault injection covers the same code.
    Unsafe,
    /// SWIFT — duplication with detection only (ablation baseline).
    Swift,
    /// SWIFT-R — TMR duplication with majority-vote recovery (the paper's
    /// baseline).
    SwiftR,
    /// RSkip — prediction-based protection on candidate loops, SWIFT-R
    /// everywhere else.
    RSkip,
}

impl Scheme {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Unsafe => "UNSAFE",
            Scheme::Swift => "SWIFT",
            Scheme::SwiftR => "SWIFT-R",
            Scheme::RSkip => "RSkip",
        }
    }

    /// The validation discipline this scheme's coverage promise uses —
    /// `None` for [`Scheme::Unsafe`], which promises nothing and is
    /// therefore never linted.
    pub fn validation_model(self) -> Option<ValidationModel> {
        match self {
            Scheme::Unsafe => None,
            Scheme::Swift => Some(ValidationModel::Detect),
            Scheme::SwiftR | Scheme::RSkip => Some(ValidationModel::Vote),
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything the runtime needs to know about one protected region.
#[derive(Clone, Debug)]
pub struct RegionSpec {
    /// The region id (indexes runtime state).
    pub region: RegionId,
    /// Function containing the region.
    pub function: String,
    /// The PP body function, when the scheme built one.
    pub body_fn: Option<String>,
    /// Body parameter types (argument replay).
    pub param_tys: Vec<Ty>,
    /// Whether approximate memoization may be deployed (Fig. 4a pattern
    /// with a pure callee).
    pub memoizable: bool,
    /// Per-loop acceptable-range override (the paper's pragma).
    pub acceptable_range: Option<f64>,
    /// Static cost estimate of one value computation (runtime heuristics).
    pub estimated_cost: f64,
}

impl RegionSpec {
    /// The runtime-facing slice of this spec as a shared [`RegionPlan`].
    pub fn plan(&self) -> RegionPlan {
        RegionPlan {
            region: self.region.0,
            has_body: self.body_fn.is_some(),
            memoizable: self.memoizable,
            acceptable_range: self.acceptable_range,
        }
    }
}

/// A protected build: the transformed module plus region metadata.
#[derive(Clone, Debug)]
pub struct Protected {
    /// The transformed module (verifies).
    pub module: Module,
    /// One spec per detected candidate loop.
    pub regions: Vec<RegionSpec>,
    /// The scheme that was applied.
    pub scheme: Scheme,
}

impl Protected {
    /// The [`ProtectionPlan`] to hand to the prediction runtime: one
    /// [`RegionPlan`] per region, carrying exactly the metadata the
    /// runtime consumes.
    pub fn plan(&self) -> ProtectionPlan {
        ProtectionPlan {
            regions: self.regions.iter().map(RegionSpec::plan).collect(),
        }
    }
}

/// A failure raised by [`protect_with`]: either an invalid input module,
/// or — far more seriously — evidence that a protection pass produced a
/// module that fails verification or leaves unprotected windows.
#[derive(Clone, Debug)]
pub enum PassError {
    /// The input module does not verify; nothing was transformed.
    InputVerify(VerifyError),
    /// The transformed module fails IR verification — a pass bug.
    OutputVerify {
        /// The scheme whose output failed to verify.
        scheme: Scheme,
        /// The verifier's complaint.
        error: VerifyError,
    },
    /// The post-pass coverage lint found unprotected windows — the
    /// transformed module does not honour the scheme's fault-protection
    /// contract.
    Coverage {
        /// The scheme whose output failed the lint.
        scheme: Scheme,
        /// Every unprotected-window diagnostic, source-located.
        diags: Vec<CoverageDiag>,
    },
    /// A region was marked memoizable but its body function has side
    /// effects, so replaying or memoizing it would change program state.
    MemoizedImpure {
        /// The offending body function.
        body_fn: String,
        /// One diagnostic per impure instruction.
        diags: Vec<CoverageDiag>,
    },
}

impl std::fmt::Display for PassError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PassError::InputVerify(e) => write!(f, "input module fails verification: {e}"),
            PassError::OutputVerify { scheme, error } => {
                write!(f, "{scheme} output fails verification: {error}")
            }
            PassError::Coverage { scheme, diags } => {
                writeln!(
                    f,
                    "{scheme} output fails the protection-coverage lint ({} diagnostics):",
                    diags.len()
                )?;
                for d in diags.iter().take(8) {
                    writeln!(f, "  {d}")?;
                }
                if diags.len() > 8 {
                    writeln!(f, "  ... and {} more", diags.len() - 8)?;
                }
                Ok(())
            }
            PassError::MemoizedImpure { body_fn, diags } => {
                writeln!(f, "memoizable body @{body_fn} is impure:")?;
                for d in diags {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PassError {}

/// Protects `module` under `scheme` with default detection thresholds.
///
/// # Panics
///
/// Panics on any [`PassError`] — use [`protect_with`] to handle failures
/// as values.
pub fn protect(module: &Module, scheme: Scheme) -> Protected {
    protect_with(module, scheme, &DetectConfig::default()).unwrap_or_else(|e| panic!("{e}"))
}

/// Protects `module` under `scheme` with explicit detection thresholds.
///
/// All schemes run candidate detection and add region markers around
/// detected loops, so the fault-injection scope of §7.2 ("faults are only
/// injected into the detected loops") is identical across schemes.
///
/// After transforming, the driver re-verifies the output and runs the
/// `rskip-lint` coverage and purity checks, so a buggy pass surfaces here
/// as a typed error rather than as silent missed detections downstream.
pub fn protect_with(
    module: &Module,
    scheme: Scheme,
    detect: &DetectConfig,
) -> Result<Protected, PassError> {
    let protected = transform(module, scheme, detect)?;
    lint_protected(&protected.module, scheme, &protected.regions)?;
    Ok(protected)
}

/// Runs the protection pipeline *without* the post-pass lint hook — the
/// transformation and output verification only. This is the entry point
/// for the `rskip-eval lint` front-end, which wants the coverage report
/// (diagnostics included) as data rather than as an error.
pub fn transform(
    module: &Module,
    scheme: Scheme,
    detect: &DetectConfig,
) -> Result<Protected, PassError> {
    rskip_ir::Verifier::new(module)
        .verify()
        .map_err(PassError::InputVerify)?;
    let mut out = module.clone();
    let candidates = find_candidates(module, detect);

    // Reject overlapping candidates (nested target loops): keep the more
    // expensive one.
    let mut kept: Vec<&rskip_analysis::CandidateLoop> = Vec::new();
    for c in &candidates {
        let overlaps = kept
            .iter()
            .any(|k| k.function == c.function && !k.target.blocks.is_disjoint(&c.target.blocks));
        if !overlaps {
            kept.push(c);
        }
    }

    let mut regions = Vec::new();
    match scheme {
        Scheme::Unsafe | Scheme::Swift | Scheme::SwiftR => {
            for cand in &kept {
                let region = out.new_region();
                add_region_markers(
                    &mut out,
                    &cand.function,
                    &cand.target.blocks,
                    cand.target.header,
                    region,
                );
                regions.push(RegionSpec {
                    region,
                    function: cand.function.clone(),
                    body_fn: None,
                    param_tys: Vec::new(),
                    memoizable: false,
                    acceptable_range: cand.acceptable_range,
                    estimated_cost: cand.estimated_cost,
                });
            }
        }
        Scheme::RSkip => {
            // Phase B: outline on the pristine module (block/loop indices
            // recorded in the candidates stay valid).
            let mut prepared: Vec<(usize, BodySource)> = Vec::new();
            for (i, cand) in kept.iter().enumerate() {
                match &cand.kind {
                    CandidateKind::Call { callee, .. } => {
                        prepared.push((
                            i,
                            BodySource::Callee {
                                original: callee.clone(),
                            },
                        ));
                    }
                    CandidateKind::SliceLoop => match outline_body(module, cand, "tmp") {
                        Ok(ob) => prepared.push((i, BodySource::Outlined(ob))),
                        Err(_) => { /* falls back below */ }
                    },
                }
            }

            // Phase C: transform.
            let mut transformed = vec![false; kept.len()];
            for (i, source) in prepared {
                let cand = kept[i];
                let region = out.new_region();
                if let Ok((body_fn, param_tys)) = apply_rskip(&mut out, cand, region, source) {
                    transformed[i] = true;
                    let memoizable = matches!(
                        &cand.kind,
                        CandidateKind::Call {
                            memoizable: true,
                            ..
                        }
                    );
                    regions.push(RegionSpec {
                        region,
                        function: cand.function.clone(),
                        body_fn: Some(body_fn),
                        param_tys,
                        memoizable,
                        acceptable_range: cand.acceptable_range,
                        estimated_cost: cand.estimated_cost,
                    });
                }
            }
            // Fallback: conventional protection with markers.
            for (i, cand) in kept.iter().enumerate() {
                if transformed[i] {
                    continue;
                }
                let region = out.new_region();
                add_region_markers(
                    &mut out,
                    &cand.function,
                    &cand.target.blocks,
                    cand.target.header,
                    region,
                );
                regions.push(RegionSpec {
                    region,
                    function: cand.function.clone(),
                    body_fn: None,
                    param_tys: Vec::new(),
                    memoizable: false,
                    acceptable_range: cand.acceptable_range,
                    estimated_cost: cand.estimated_cost,
                });
            }
        }
    }

    match scheme {
        Scheme::Unsafe => {}
        Scheme::Swift => apply_swift(&mut out),
        Scheme::SwiftR | Scheme::RSkip => apply_swift_r(&mut out),
    }
    // Drop the PP clones' bypassed subloop skeletons and any other dead
    // blocks the transforms stranded.
    crate::cleanup::remove_unreachable_blocks(&mut out);

    rskip_ir::Verifier::new(&out)
        .verify()
        .map_err(|error| PassError::OutputVerify { scheme, error })?;
    Ok(Protected {
        module: out,
        regions,
        scheme,
    })
}

/// The `rskip-lint` post-pass hook: coverage-lint the transformed module
/// under the scheme's validation model and purity-check every memoized
/// region body. Returns the coverage report so callers (the harness's
/// `lint` subcommand) can surface per-function statistics.
pub fn lint_protected(
    module: &Module,
    scheme: Scheme,
    regions: &[RegionSpec],
) -> Result<Option<CoverageReport>, PassError> {
    // Unprotected builds have nothing to promise.
    let Some(model) = scheme.validation_model() else {
        return Ok(None);
    };
    let report = lint_module(module, model);
    if !report.is_clean() {
        return Err(PassError::Coverage {
            scheme,
            diags: report.diags.clone(),
        });
    }
    for spec in regions {
        let Some(body_fn) = spec.body_fn.as_deref() else {
            continue;
        };
        if !spec.memoizable {
            continue;
        }
        let diags = lint_memoized_body(module, body_fn);
        if !diags.is_empty() {
            return Err(PassError::MemoizedImpure {
                body_fn: body_fn.to_string(),
                diags,
            });
        }
    }
    Ok(Some(report))
}
