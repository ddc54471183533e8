//! Fault models, injection plans and outcome classification (§7.2).
//!
//! The paper's evaluation is single-bit-SEU only; this module lifts the
//! fault model into a pluggable [`FaultModel`] so campaigns, exhaustive
//! enumeration and the lint contract can also reason about multi-bit
//! bursts and instruction-skip faults (Moro et al., arXiv 1402.6461).

use rskip_ir::{BlockId, Module, Reg, Value};
use serde::Serialize;

use crate::counters::Counters;
use crate::decoded::{DFunc, DInst};
use crate::machine::{RunOutcome, Termination, Trap};

pub use rskip_core::stats::OutcomeClass;

/// The transient-fault model a campaign or enumeration samples from.
///
/// Every model shares the same *trigger* semantics (a dynamic instant
/// drawn over region-scoped retired instructions) and differs only in the
/// *effect* applied at that instant:
///
/// * [`FaultModel::SingleBitSeu`] — the paper's model: flip one uniformly
///   random bit of one uniformly random live register.
/// * [`FaultModel::MultiBitBurst`] — flip `width` *contiguous* bits of one
///   random live register (a charge-sharing multi-bit upset). The window
///   start is drawn uniformly from the positions where the whole window
///   fits in 64 bits.
/// * [`FaultModel::InstructionSkip`] — the next instruction (or
///   terminator) is fetched but not executed, as if replaced by a bubble:
///   it still retires (counters advance) but has no architectural effect.
///   Models clock/voltage-glitch attacks and marginal fetch faults.
///   Intrinsic calls — the predictor-runtime interface — are never skip
///   targets: they execute host-side, where a swallowed call has no
///   emulated failure mode (it would desync the runtime's own metadata,
///   which is the separate runtime-state campaign's fault space). An
///   armed skip holds fire over an intrinsic boundary and strikes the
///   next architectural instruction instead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize)]
pub enum FaultModel {
    /// Single Event Upset: one random bit of one random live register.
    #[default]
    SingleBitSeu,
    /// Contiguous multi-bit upset of `width` bits in one live register.
    MultiBitBurst {
        /// Number of adjacent bits flipped (clamped to 1..=64).
        width: u32,
    },
    /// The instruction at the trigger boundary retires without executing
    /// (intrinsic-call boundaries are held over, never swallowed).
    InstructionSkip,
}

impl FaultModel {
    /// Parses a fault-model name as used by `--fault-model` flags:
    /// `seu`, `skip`, or `burst:N` (N in 1..=64; plain `burst` means
    /// `burst:4`).
    pub fn parse(s: &str) -> Option<FaultModel> {
        match s {
            "seu" => Some(FaultModel::SingleBitSeu),
            "skip" => Some(FaultModel::InstructionSkip),
            "burst" => Some(FaultModel::MultiBitBurst { width: 4 }),
            _ => {
                let width: u32 = s.strip_prefix("burst:")?.parse().ok()?;
                (1..=64)
                    .contains(&width)
                    .then_some(FaultModel::MultiBitBurst { width })
            }
        }
    }

    /// Stable display name (inverse of [`FaultModel::parse`]).
    pub fn label(self) -> String {
        match self {
            FaultModel::SingleBitSeu => "seu".to_string(),
            FaultModel::MultiBitBurst { width } => format!("burst:{width}"),
            FaultModel::InstructionSkip => "skip".to_string(),
        }
    }

    /// A seed perturbation mixed into campaign base seeds so different
    /// models draw independent trigger/seed streams. `SingleBitSeu` maps
    /// to 0 so pre-existing SEU campaigns keep their exact seeds (and
    /// goldens).
    pub fn seed_tag(self) -> u64 {
        match self {
            FaultModel::SingleBitSeu => 0,
            FaultModel::MultiBitBurst { width } => 0xB0_0057 ^ ((width as u64) << 24),
            FaultModel::InstructionSkip => 0x5C_1B00,
        }
    }
}

impl std::fmt::Display for FaultModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Clamps a burst window into 0..64 and builds its flip mask, returning
/// `(start, width, mask)` as actually applied.
pub(crate) fn burst_window(start: u32, width: u32) -> (u32, u32, u64) {
    let w = width.clamp(1, 64);
    let s = start.min(64 - w);
    let mask = if w == 64 { !0 } else { ((1u64 << w) - 1) << s };
    (s, w, mask)
}

/// An armed fault for the next run: a random draw from a fault model, a
/// deterministic exact fault, or a strike against the prediction
/// runtime's own metadata.
pub(crate) enum ArmedFault {
    Random(InjectionPlan),
    Exact(ExactFault),
    RuntimeState { trigger: u64, seed: u64 },
}

impl ArmedFault {
    /// Whether the fault fires at the instruction boundary described by
    /// the run's counters, region nesting and boundary count.
    pub(crate) fn due(&self, counters: &Counters, region_depth: u32, boundary: u64) -> bool {
        match self {
            ArmedFault::Random(plan) => {
                if plan.anywhere {
                    counters.retired >= plan.trigger
                } else {
                    region_depth > 0 && counters.region_retired >= plan.trigger
                }
            }
            ArmedFault::Exact(fault) => boundary >= fault.at,
            // The runtime's own metadata outlives region activations (the
            // pending queue, for one, drains in the post-exit flush
            // recheck), so once the trigger count is reached the strike
            // may land at any boundary, in or out of a region.
            ArmedFault::RuntimeState { trigger, .. } => counters.region_retired >= *trigger,
        }
    }

    /// Whether the fault swallows an instruction instead of corrupting a
    /// register.
    pub(crate) fn is_skip(&self) -> bool {
        matches!(
            self,
            ArmedFault::Random(InjectionPlan {
                model: FaultModel::InstructionSkip,
                ..
            }) | ArmedFault::Exact(ExactFault {
                kind: ExactFaultKind::Skip,
                ..
            })
        )
    }
}

/// A tier's live call frames as the register injectors see them. Frame 0
/// is the outermost; the last frame is the running one.
pub(crate) trait FaultFrames {
    /// Number of live frames.
    fn depth(&self) -> usize;
    /// Which registers of frame `fi` have been written.
    fn written(&self, fi: usize) -> &[bool];
    /// Register `ri` of frame `fi`.
    fn reg_mut(&mut self, fi: usize, ri: usize) -> &mut Value;
    /// Frame `fi`'s `(function, block, ip)`: its function index and the
    /// program point it executes next.
    fn point(&self, fi: usize) -> (u32, u32, u32);
}

/// Applies the random register effect of `plan.model` (SEU bit flip or
/// burst) to one random live register. Skip faults never reach here —
/// each tier fires them itself.
pub(crate) fn inject_random(
    module: &Module,
    plan: &InjectionPlan,
    frames: &mut (impl FaultFrames + ?Sized),
    at_retired: u64,
) -> Option<InjectionRecord> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(plan.seed);

    // Gather live (written) registers across all active frames — the
    // architectural register file is shared state on real hardware.
    let mut targets: Vec<(usize, usize)> = Vec::new();
    for fi in 0..frames.depth() {
        for (ri, &w) in frames.written(fi).iter().enumerate() {
            if w {
                targets.push((fi, ri));
            }
        }
    }
    if targets.is_empty() {
        return None;
    }
    // The target draw precedes the effect draw for every model, so the
    // SEU stream (and with it every pre-existing campaign golden) is
    // unchanged by the generalization.
    let (fi, ri) = targets[rng.gen_range(0..targets.len())];
    let reg = Reg(ri as u32);
    let kind = match plan.model {
        FaultModel::InstructionSkip => unreachable!("skip faults fire through the tier"),
        FaultModel::SingleBitSeu => ExactFaultKind::BitFlip {
            reg,
            bit: rng.gen_range(0..64u32),
        },
        FaultModel::MultiBitBurst { width } => {
            let width = width.clamp(1, 64);
            ExactFaultKind::Burst {
                reg,
                start: rng.gen_range(0..(65 - width)),
                width,
            }
        }
    };
    let effect = flip(frames.reg_mut(fi, ri), kind);
    Some(record(module, frames.point(fi), at_retired, effect))
}

/// Applies an exact register effect (bit flip or burst) in the running
/// frame, or does nothing if that register has not been written yet (a
/// fault in a never-written register is architecturally invisible: the
/// verifier guarantees such registers are never read on this path).
/// Skip faults never reach here — each tier fires them itself.
pub(crate) fn inject_exact(
    module: &Module,
    fault: &ExactFault,
    frames: &mut (impl FaultFrames + ?Sized),
    at_retired: u64,
) -> Option<InjectionRecord> {
    let fi = frames.depth().checked_sub(1)?;
    let reg = match fault.kind {
        ExactFaultKind::BitFlip { reg, .. } | ExactFaultKind::Burst { reg, .. } => reg,
        ExactFaultKind::Skip => unreachable!("skip faults fire through the tier"),
    };
    let ri = reg.index();
    if !frames.written(fi).get(ri).copied().unwrap_or(false) {
        return None;
    }
    let effect = flip(frames.reg_mut(fi, ri), fault.kind);
    Some(record(module, frames.point(fi), at_retired, effect))
}

/// Flips the bits `kind` names in `slot` and describes what changed.
fn flip(slot: &mut Value, kind: ExactFaultKind) -> FaultEffect {
    let old = *slot;
    match kind {
        ExactFaultKind::BitFlip { reg, bit } => {
            *slot = old.with_bits_flipped(1u64 << bit.min(63));
            FaultEffect::BitFlip {
                reg,
                bit,
                old_bits: old.bits(),
                new_bits: slot.bits(),
            }
        }
        ExactFaultKind::Burst { reg, start, width } => {
            let (start, width, mask) = burst_window(start, width);
            *slot = old.with_bits_flipped(mask);
            FaultEffect::Burst {
                reg,
                start,
                width,
                old_bits: old.bits(),
                new_bits: slot.bits(),
            }
        }
        ExactFaultKind::Skip => unreachable!("skips corrupt no register"),
    }
}

/// The record of an effect applied to a frame at `(function, block, ip)`.
pub(crate) fn record(
    module: &Module,
    (func, block, ip): (u32, u32, u32),
    at_retired: u64,
    effect: FaultEffect,
) -> InjectionRecord {
    InjectionRecord {
        function: module.functions[func as usize].name.clone(),
        block: BlockId(block),
        ip: ip as usize,
        at_retired,
        effect,
    }
}

/// True when the program point `(function, block, ip)` is an intrinsic
/// call — the one shape a skip fault must hold fire over (the runtime
/// interface executes host-side; swallowing a call would desync the
/// runtime's own metadata rather than the emulated program state).
pub(crate) fn skip_holds_fire(funcs: &[DFunc], (func, block, ip): (u32, u32, u32)) -> bool {
    funcs[func as usize].blocks[block as usize]
        .insts
        .get(ip as usize)
        .is_some_and(|step| matches!(step.op, DInst::IntrinsicCall { .. }))
}

/// One armed random fault: at the `trigger`-th retired instruction
/// (counted inside protection regions unless `anywhere`), apply the
/// effect of `model` to a random live target.
///
/// Deterministic given `seed` — campaigns are reproducible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectionPlan {
    /// Fire when this many instructions have retired (region-scoped count
    /// unless `anywhere` is set).
    pub trigger: u64,
    /// RNG seed for target selection.
    pub seed: u64,
    /// When true, count *all* retired instructions instead of only those
    /// inside protection regions. The paper injects "only into the detected
    /// loops"; `anywhere` exists for whole-program studies and tests.
    pub anywhere: bool,
    /// The fault effect sampled at the trigger.
    pub model: FaultModel,
}

/// One deterministic single-bit flip — the SEU-specific legacy form of
/// [`ExactFault`], kept because the original cross-validation suite and
/// enumeration API are phrased in terms of it: at the `at`-th instruction
/// boundary (counting every executed instruction and terminator, anywhere
/// in the program), flip bit `bit` of register `reg` in the innermost
/// active frame.
///
/// Unlike [`InjectionPlan`] there is no randomness: a full enumeration
/// sweeps `at` over every boundary of a clean trace, `reg` over the
/// registers written at that boundary and `bit` over bit positions —
/// see [`crate::enumerate_flips`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExactFlip {
    /// The instruction boundary to fire at: the flip happens after `at`
    /// instructions/terminators have executed, before the next one.
    pub at: u64,
    /// Register to flip in the innermost (currently executing) frame. If
    /// it has not been written yet the flip is skipped (dead target).
    pub reg: Reg,
    /// The bit position to flip.
    pub bit: u32,
}

/// One deterministic fault for exhaustive enumeration, generalizing
/// [`ExactFlip`] across fault models: at the `at`-th instruction boundary
/// apply `kind` to the innermost active frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExactFault {
    /// The instruction boundary to fire at: the effect happens after `at`
    /// instructions/terminators have executed, before the next one.
    pub at: u64,
    /// The deterministic effect applied at that boundary.
    pub kind: ExactFaultKind,
}

/// The deterministic effect of an [`ExactFault`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExactFaultKind {
    /// Flip bit `bit` of register `reg` (dead target if unwritten).
    BitFlip {
        /// Register to flip in the innermost frame.
        reg: Reg,
        /// The bit position to flip.
        bit: u32,
    },
    /// Flip `width` contiguous bits of `reg` starting at `start` (dead
    /// target if `reg` is unwritten; the window is clamped into 0..64).
    Burst {
        /// Register to corrupt in the innermost frame.
        reg: Reg,
        /// Lowest bit position of the window.
        start: u32,
        /// Window width in bits.
        width: u32,
    },
    /// Skip the instruction or terminator at the boundary: it retires as
    /// a bubble with no architectural effect. Dead target if the boundary
    /// lies past the end of the program.
    Skip,
}

impl From<ExactFlip> for ExactFault {
    fn from(flip: ExactFlip) -> ExactFault {
        ExactFault {
            at: flip.at,
            kind: ExactFaultKind::BitFlip {
                reg: flip.reg,
                bit: flip.bit,
            },
        }
    }
}

/// What an injected fault actually did — the model-aware payload of an
/// [`InjectionRecord`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEffect {
    /// One bit of one live register was flipped.
    BitFlip {
        /// The register hit.
        reg: Reg,
        /// The flipped bit position.
        bit: u32,
        /// Register bits before the flip.
        old_bits: u64,
        /// Register bits after the flip.
        new_bits: u64,
    },
    /// A contiguous window of bits in one live register was flipped.
    Burst {
        /// The register hit.
        reg: Reg,
        /// Lowest bit position of the flipped window.
        start: u32,
        /// Window width in bits.
        width: u32,
        /// Register bits before the flip.
        old_bits: u64,
        /// Register bits after the flip.
        new_bits: u64,
    },
    /// The instruction (or terminator) at the boundary was skipped.
    SkippedInstruction,
}

impl FaultEffect {
    /// The register the effect corrupted, if any (skips touch no
    /// register).
    pub fn reg(&self) -> Option<Reg> {
        match self {
            FaultEffect::BitFlip { reg, .. } | FaultEffect::Burst { reg, .. } => Some(*reg),
            FaultEffect::SkippedInstruction => None,
        }
    }

    /// The XOR mask actually applied to the register bits (0 for skips).
    pub fn flipped_bits(&self) -> u64 {
        match self {
            FaultEffect::BitFlip {
                old_bits, new_bits, ..
            }
            | FaultEffect::Burst {
                old_bits, new_bits, ..
            } => old_bits ^ new_bits,
            FaultEffect::SkippedInstruction => 0,
        }
    }
}

/// What an injection actually did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InjectionRecord {
    /// Function whose frame was hit.
    pub function: String,
    /// The block the hit frame was executing.
    pub block: BlockId,
    /// Index of the next instruction of that block at fire time
    /// (`== insts.len()` means the terminator was next).
    pub ip: usize,
    /// Retired-instruction count at injection time.
    pub at_retired: u64,
    /// The model-specific effect that was applied.
    pub effect: FaultEffect,
}

/// Classifies one injected run against the golden output cells.
///
/// `output` is the injected run's output memory (the cells of the globals
/// that constitute program output); `golden` is the same region from a
/// clean run. Comparison is bit-exact: "our evaluation considers even small
/// output errors as bad quality and only 100% of output quality as
/// Correct".
pub fn classify_outcome(outcome: &RunOutcome, output: &[Value], golden: &[Value]) -> OutcomeClass {
    match &outcome.termination {
        Termination::Returned(_) => {
            if output.len() == golden.len() && output.iter().zip(golden).all(|(a, b)| a.bit_eq(*b))
            {
                OutcomeClass::Correct
            } else {
                OutcomeClass::Sdc
            }
        }
        Termination::Trapped(Trap::OutOfBounds { .. }) => OutcomeClass::Segfault,
        Termination::Trapped(Trap::StepLimit) => OutcomeClass::Hang,
        Termination::Trapped(Trap::FaultDetected) => OutcomeClass::Detected,
        Termination::Trapped(
            Trap::DivByZero
            | Trap::UnknownFunction(_)
            | Trap::StackOverflow
            | Trap::CodeRunoff
            | Trap::RuntimeAbort,
        ) => OutcomeClass::CoreDump,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;

    fn outcome(t: Termination) -> RunOutcome {
        RunOutcome {
            termination: t,
            counters: Counters::default(),
            injection: None,
            state_injection: None,
            prints: Vec::new(),
        }
    }

    #[test]
    fn classifies_correct_and_sdc() {
        let golden = [Value::F(1.0), Value::F(2.0)];
        let ok = outcome(Termination::Returned(None));
        assert_eq!(
            classify_outcome(&ok, &golden, &golden),
            OutcomeClass::Correct
        );
        let bad = [Value::F(1.0), Value::F(2.0000001)];
        assert_eq!(classify_outcome(&ok, &bad, &golden), OutcomeClass::Sdc);
    }

    #[test]
    fn negative_zero_counts_as_corruption() {
        // Bit-exact comparison: -0.0 != 0.0 at the bit level.
        let golden = [Value::F(0.0)];
        let flipped = [Value::F(-0.0)];
        let ok = outcome(Termination::Returned(None));
        assert_eq!(classify_outcome(&ok, &flipped, &golden), OutcomeClass::Sdc);
    }

    #[test]
    fn classifies_traps() {
        let golden = [Value::I(0)];
        assert_eq!(
            classify_outcome(
                &outcome(Termination::Trapped(Trap::OutOfBounds { addr: 9 })),
                &golden,
                &golden
            ),
            OutcomeClass::Segfault
        );
        assert_eq!(
            classify_outcome(
                &outcome(Termination::Trapped(Trap::StepLimit)),
                &golden,
                &golden
            ),
            OutcomeClass::Hang
        );
        assert_eq!(
            classify_outcome(
                &outcome(Termination::Trapped(Trap::DivByZero)),
                &golden,
                &golden
            ),
            OutcomeClass::CoreDump
        );
        assert_eq!(
            classify_outcome(
                &outcome(Termination::Trapped(Trap::CodeRunoff)),
                &golden,
                &golden
            ),
            OutcomeClass::CoreDump
        );
        assert_eq!(
            classify_outcome(
                &outcome(Termination::Trapped(Trap::FaultDetected)),
                &golden,
                &golden
            ),
            OutcomeClass::Detected
        );
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(OutcomeClass::Sdc.label(), "SDC");
        assert_eq!(OutcomeClass::CoreDump.label(), "Core dump");
    }

    #[test]
    fn fault_model_parse_roundtrip() {
        for s in ["seu", "skip", "burst:1", "burst:4", "burst:64"] {
            let m = FaultModel::parse(s).expect("parses");
            assert_eq!(m.label(), s, "label must invert parse");
        }
        assert_eq!(
            FaultModel::parse("burst"),
            Some(FaultModel::MultiBitBurst { width: 4 })
        );
        for s in ["", "burst:0", "burst:65", "burst:x", "SEU", "flip"] {
            assert_eq!(FaultModel::parse(s), None, "{s:?} must not parse");
        }
    }

    #[test]
    fn seed_tags_are_distinct_and_seu_is_zero() {
        let models = [
            FaultModel::SingleBitSeu,
            FaultModel::MultiBitBurst { width: 2 },
            FaultModel::MultiBitBurst { width: 4 },
            FaultModel::InstructionSkip,
        ];
        assert_eq!(FaultModel::SingleBitSeu.seed_tag(), 0);
        for (i, a) in models.iter().enumerate() {
            for b in &models[i + 1..] {
                assert_ne!(a.seed_tag(), b.seed_tag(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn burst_windows_are_contiguous_and_clamped() {
        assert_eq!(burst_window(0, 1), (0, 1, 1));
        assert_eq!(burst_window(3, 4), (3, 4, 0b1111 << 3));
        assert_eq!(burst_window(0, 64), (0, 64, !0));
        // Window clamped so it never shifts out of the register.
        assert_eq!(burst_window(63, 4), (60, 4, 0b1111 << 60));
        assert_eq!(burst_window(200, 8), (56, 8, 0xFFu64 << 56));
        for (start, width) in [(0u32, 3u32), (17, 5), (56, 8), (63, 1)] {
            let (s, w, m) = burst_window(start, width);
            assert_eq!((s, w), (start, width));
            assert_eq!(m.count_ones(), width);
            // Contiguity: shifting out trailing zeros leaves 2^w - 1.
            assert_eq!(m >> m.trailing_zeros(), (1u64 << width) - 1);
        }
    }
}
