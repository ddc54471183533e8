//! Exhaustive fault enumeration — the dynamic cross-check of
//! `rskip-lint`'s static coverage claims.
//!
//! Statistical campaigns ([`crate::InjectionPlan`]) sample the fault space;
//! this module *covers* it for micro-regions: a clean traced run records
//! every instruction boundary together with the registers live (written) at
//! that instant, then one deterministic run per enumerated case arms an
//! [`crate::ExactFault`] at exactly that instant and classifies the outcome
//! against the clean run's memory image. What "a case" is depends on the
//! [`FaultModel`]:
//!
//! * [`FaultModel::SingleBitSeu`] — one case per
//!   `(boundary, live register, bit)` triple (the original sweep);
//! * [`FaultModel::MultiBitBurst`] — one case per
//!   `(boundary, live register, window start)` triple, with window starts
//!   taken from `bits`, clamped so the window fits in 64 bits and
//!   deduplicated (clamping collisions are logged in
//!   [`Enumeration::notes`]);
//! * [`FaultModel::InstructionSkip`] — one case per dynamic instruction
//!   boundary (there is nothing else to sweep: the skipped instruction
//!   *is* the fault). Intrinsic-call boundaries are excluded — the skip
//!   model never swallows the runtime interface (see
//!   [`FaultModel::InstructionSkip`]) — and the exclusion count is noted
//!   in [`Enumeration::notes`].
//!
//! The resulting [`Probe`] list carries the *static* coordinates of each
//! fault — function, block, next-instruction index — which are exactly the
//! coordinates `rskip-lint`'s coverage map speaks in. That makes the
//! cross-validation contract checkable in both directions:
//!
//! * every probe the linter claims covered must end **Correct** (the fault
//!   was masked or repaired by a majority vote) or **Detected** (a SWIFT
//!   check caught it) — never a silent corruption;
//! * a module with unprotected-window diagnostics must yield at least one
//!   unclaimed probe that ends in silent data corruption, witnessing the
//!   window dynamically.
//!
//! Enumeration cost is one full run per case, so [`enumerate_faults`]
//! refuses traces longer than a caller-supplied bound — this is a
//! verification tool for micro-regions, not a campaign engine.

use rskip_ir::{BlockId, Module, Reg, Value};

use crate::decoded::Decoded;
use crate::fault::{
    classify_outcome, skip_holds_fire, ExactFault, ExactFaultKind, FaultModel, OutcomeClass,
};
use crate::hooks::RuntimeHooks;
use crate::machine::{ExecConfig, Machine, Termination};

/// One boundary of the clean census run: where the innermost frame stood
/// and which registers held live values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Index of the function the innermost frame was executing.
    pub func: u32,
    /// Block index of the next instruction at this boundary.
    pub block: u32,
    /// Instruction index within the block (`== insts.len()` ⇒ the
    /// terminator is next).
    pub ip: u32,
    /// Registers of the innermost frame holding written values — the
    /// targets a register fault at this boundary can strike.
    pub written: Vec<Reg>,
}

impl TraceEntry {
    pub(crate) fn capture(func: u32, block: u32, ip: u32, written: &[bool]) -> Self {
        TraceEntry {
            func,
            block,
            ip,
            written: written
                .iter()
                .enumerate()
                .filter(|(_, &w)| w)
                .map(|(i, _)| Reg(i as u32))
                .collect(),
        }
    }
}

/// One enumerated fault and its classified outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct Probe {
    /// The instruction boundary the fault fired at.
    pub at: u64,
    /// Function the innermost frame was executing.
    pub function: String,
    /// Block of the next instruction at fire time.
    pub block: BlockId,
    /// Index of the next instruction (`== insts.len()` ⇒ terminator).
    pub ip: usize,
    /// The deterministic fault that was applied.
    pub kind: ExactFaultKind,
    /// What the corrupted run did.
    pub outcome: OutcomeClass,
}

impl Probe {
    /// The register the fault targeted, if any (skip probes target the
    /// instruction itself).
    pub fn reg(&self) -> Option<Reg> {
        match self.kind {
            ExactFaultKind::BitFlip { reg, .. } | ExactFaultKind::Burst { reg, .. } => Some(reg),
            ExactFaultKind::Skip => None,
        }
    }
}

/// The result of one exhaustive enumeration.
#[derive(Clone, Debug)]
pub struct Enumeration {
    /// Instruction boundaries of the clean run (the trace length).
    pub boundaries: u64,
    /// Every enumerated probe, in `(at, target, effect)` order.
    pub probes: Vec<Probe>,
    /// Human-readable notes about coverage caps applied during the sweep
    /// (e.g. burst windows clamped into range and merged). Empty when the
    /// sweep ran exactly as requested.
    pub notes: Vec<String>,
    /// Enumerated cases answered by a static prune filter instead of
    /// execution ([`enumerate_faults_pruned`]): the filter claimed the
    /// site benign, so no run was performed and no probe recorded. The
    /// fault universe of the sweep is therefore
    /// `probes.len() + pruned` — accounting the universe-sum tests pin.
    pub pruned: u64,
}

impl Enumeration {
    /// Probes that ended in silent data corruption.
    pub fn sdc_probes(&self) -> impl Iterator<Item = &Probe> {
        self.probes
            .iter()
            .filter(|p| p.outcome == OutcomeClass::Sdc)
    }
}

/// Why an enumeration could not run.
#[derive(Clone, Debug)]
pub enum EnumError {
    /// The clean (fault-free) run did not return normally, so there is no
    /// golden image to classify against.
    CleanRunFailed(Termination),
    /// The clean run crossed more boundaries than the caller's limit —
    /// the region is too large for exhaustive enumeration.
    TooLong {
        /// Boundaries the clean run actually crossed.
        boundaries: u64,
        /// The caller-supplied limit.
        limit: u64,
    },
}

impl std::fmt::Display for EnumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnumError::CleanRunFailed(t) => write!(f, "clean run did not return: {t:?}"),
            EnumError::TooLong { boundaries, limit } => write!(
                f,
                "clean run crosses {boundaries} boundaries, over the enumeration limit {limit}"
            ),
        }
    }
}

impl std::error::Error for EnumError {}

/// Exhaustively enumerates the fault space of `model` over a
/// micro-region.
///
/// Runs `entry(args)` once cleanly to capture the golden memory image and
/// the boundary census, then re-runs it once per enumerated case with an
/// [`ExactFault`] armed (see the module docs for what each model
/// enumerates). `make_hooks` must hand back fresh hooks per run so runs
/// stay independent and deterministic. `bits` selects the bit positions
/// (SEU) or window start positions (burst) swept, and is ignored for
/// skip; `max_boundaries` bounds the clean-run length this tool accepts.
///
/// # Panics
///
/// Panics if `entry` does not exist or the argument count mismatches
/// (entry setup errors are caller bugs, as with [`Machine::run`]).
#[allow(clippy::too_many_arguments)]
pub fn enumerate_faults<H: RuntimeHooks>(
    module: &Module,
    entry: &str,
    args: &[Value],
    exec: &ExecConfig,
    make_hooks: impl FnMut() -> H,
    model: FaultModel,
    bits: &[u32],
    max_boundaries: u64,
) -> Result<Enumeration, EnumError> {
    enumerate_faults_pruned(
        module,
        entry,
        args,
        exec,
        make_hooks,
        model,
        bits,
        max_boundaries,
        |_, _, _, _| false,
    )
}

/// [`enumerate_faults`] with a static prune filter in front of the
/// per-case runs.
///
/// `prune(function, block, ip, kind)` is consulted once per enumerated
/// case, in enumeration order; returning `true` claims the site is
/// statically benign (a fault there cannot change observable behavior),
/// and the case is **counted** in [`Enumeration::pruned`] but neither
/// executed nor recorded as a probe. The filter must be sound — the
/// cross-validation tests check soundness by running the same sweep
/// unpruned and asserting every prunable case ends `Correct`.
///
/// # Panics
///
/// Panics if `entry` does not exist or the argument count mismatches
/// (entry setup errors are caller bugs, as with [`Machine::run`]).
#[allow(clippy::too_many_arguments)]
pub fn enumerate_faults_pruned<H: RuntimeHooks>(
    module: &Module,
    entry: &str,
    args: &[Value],
    exec: &ExecConfig,
    mut make_hooks: impl FnMut() -> H,
    model: FaultModel,
    bits: &[u32],
    max_boundaries: u64,
    mut prune: impl FnMut(&str, BlockId, usize, &ExactFaultKind) -> bool,
) -> Result<Enumeration, EnumError> {
    let decoded = Decoded::new(module);

    let mut trace = Vec::new();
    let mut clean = Machine::from_decoded(&decoded, make_hooks(), exec.clone());
    let outcome = clean.run_traced(entry, args, &mut trace);
    if !outcome.returned() {
        return Err(EnumError::CleanRunFailed(outcome.termination));
    }
    if trace.len() as u64 > max_boundaries {
        return Err(EnumError::TooLong {
            boundaries: trace.len() as u64,
            limit: max_boundaries,
        });
    }
    let golden = clean.memory().to_vec();

    let mut notes = Vec::new();
    // The per-register effects swept at each boundary (empty for skip,
    // which has exactly one per-boundary case instead).
    let effects: Vec<ExactFaultKind> = match model {
        FaultModel::SingleBitSeu => bits
            .iter()
            .map(|&bit| ExactFaultKind::BitFlip { reg: Reg(0), bit })
            .collect(),
        FaultModel::MultiBitBurst { width } => {
            let w = width.clamp(1, 64);
            let mut starts: Vec<u32> = Vec::new();
            let mut clamped = 0u32;
            for &b in bits {
                let s = b.min(64 - w);
                if s != b {
                    clamped += 1;
                }
                if !starts.contains(&s) {
                    starts.push(s);
                }
            }
            if clamped > 0 || starts.len() < bits.len() {
                notes.push(format!(
                    "burst:{w}: {clamped} window starts clamped into 0..={}, \
                     {} distinct windows kept of {} requested",
                    64 - w,
                    starts.len(),
                    bits.len()
                ));
            }
            starts
                .into_iter()
                .map(|start| ExactFaultKind::Burst {
                    reg: Reg(0),
                    start,
                    width: w,
                })
                .collect()
        }
        FaultModel::InstructionSkip => Vec::new(),
    };

    let mut probes = Vec::new();
    let mut intrinsic_boundaries = 0u64;
    let mut pruned = 0u64;
    for (at, entry_at) in trace.iter().enumerate() {
        let function = &module.functions[entry_at.func as usize].name;
        let mut probe_one = |kind: ExactFaultKind| {
            let mut m = Machine::from_decoded(&decoded, make_hooks(), exec.clone());
            m.set_exact_fault(ExactFault {
                at: at as u64,
                kind,
            });
            let out = m.run(entry, args);
            debug_assert!(
                out.injection.is_some(),
                "census said {kind:?} had a live target at boundary {at}"
            );
            probes.push(Probe {
                at: at as u64,
                function: function.clone(),
                block: BlockId(entry_at.block),
                ip: entry_at.ip as usize,
                kind,
                outcome: classify_outcome(&out, m.memory(), &golden),
            });
        };
        if model == FaultModel::InstructionSkip {
            // An armed skip holds fire over intrinsic boundaries, so a
            // probe here would really strike (and be classified at) a
            // later boundary under the census label of this one.
            if skip_holds_fire(module, (entry_at.func, entry_at.block, entry_at.ip)) {
                intrinsic_boundaries += 1;
            } else if prune(
                function,
                BlockId(entry_at.block),
                entry_at.ip as usize,
                &ExactFaultKind::Skip,
            ) {
                pruned += 1;
            } else {
                probe_one(ExactFaultKind::Skip);
            }
            continue;
        }
        for &reg in &entry_at.written {
            for effect in &effects {
                let kind = match *effect {
                    ExactFaultKind::BitFlip { bit, .. } => ExactFaultKind::BitFlip { reg, bit },
                    ExactFaultKind::Burst { start, width, .. } => {
                        ExactFaultKind::Burst { reg, start, width }
                    }
                    ExactFaultKind::Skip => unreachable!(),
                };
                if prune(
                    function,
                    BlockId(entry_at.block),
                    entry_at.ip as usize,
                    &kind,
                ) {
                    pruned += 1;
                } else {
                    probe_one(kind);
                }
            }
        }
    }
    if intrinsic_boundaries > 0 {
        notes.push(format!(
            "skip: {intrinsic_boundaries} intrinsic-call boundaries excluded \
             (the runtime interface is not a skip target)"
        ));
    }
    Ok(Enumeration {
        boundaries: trace.len() as u64,
        probes,
        notes,
        pruned,
    })
}
