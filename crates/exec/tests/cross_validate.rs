//! Cross-validation of `rskip-lint`'s static coverage claims against
//! exhaustive fault enumeration (the issue's two-directional contract):
//!
//! 1. every fault the linter claims covered must be masked or detected —
//!    an SDC under a claimed-covered probe is a linter (or pass) bug;
//! 2. a statically-reported unprotected window must be witnessed by at
//!    least one undetected corruption — a diagnostic nothing can trigger
//!    dynamically would be a false positive.

use rskip_analysis::{lint_module, CoverageKind, ValidationModel};
use rskip_exec::{enumerate_faults, ExecConfig, FaultModel, NoopHooks, OutcomeClass};
use rskip_ir::{BinOp, CmpOp, Inst, Module, ModuleBuilder, Operand, Reg, Ty, Value, Verifier};
use rskip_passes::{apply_swift, apply_swift_r};

/// Bit positions swept per (boundary, register): low bits corrupt values
/// and addresses by small deltas, middle and high bits by large ones —
/// enough to witness every failure mode without 64× the runtime.
const BITS: [u32; 5] = [0, 1, 7, 31, 62];

/// Short enough that `boundaries × live regs × bits` runs stay cheap.
const MAX_BOUNDARIES: u64 = 4096;

fn exec_config() -> ExecConfig {
    ExecConfig {
        // A corrupted loop counter can spin; bound each probe run.
        step_limit: 100_000,
        ..ExecConfig::default()
    }
}

/// A micro workload: sum five array elements into an output cell.
/// Small enough for exhaustive enumeration, real enough to exercise
/// loads, stores, branches and loop-carried state.
fn micro_module() -> Module {
    let mut mb = ModuleBuilder::new("micro");
    let a = mb.global_init(
        "a",
        Ty::I64,
        [3, 1, 4, 1, 5].into_iter().map(Value::I).collect(),
    );
    let out = mb.global_zeroed("out", Ty::I64, 1);

    let mut f = mb.function("main", vec![], None);
    let entry = f.entry_block();
    let header = f.new_block("header");
    let body = f.new_block("body");
    let exit = f.new_block("exit");
    let i = f.def_reg(Ty::I64, "i");
    let s = f.def_reg(Ty::I64, "s");

    f.switch_to(entry);
    f.mov(i, Operand::imm_i(0));
    f.mov(s, Operand::imm_i(0));
    f.br(header);

    f.switch_to(header);
    let c = f.cmp(CmpOp::Lt, Ty::I64, Operand::reg(i), Operand::imm_i(5));
    f.cond_br(Operand::reg(c), body, exit);

    f.switch_to(body);
    let addr = f.bin(BinOp::Add, Ty::I64, Operand::global(a), Operand::reg(i));
    let v = f.load(Ty::I64, Operand::reg(addr));
    f.bin_into(s, BinOp::Add, Ty::I64, Operand::reg(s), Operand::reg(v));
    f.bin_into(i, BinOp::Add, Ty::I64, Operand::reg(i), Operand::imm_i(1));
    f.br(header);

    f.switch_to(exit);
    f.store(Ty::I64, Operand::global(out), Operand::reg(s));
    f.ret(None);
    f.finish();
    mb.finish()
}

/// Direction 1 for one protected build: no claimed-covered probe may end
/// in silent corruption (or any outcome other than masked/detected).
fn assert_covered_faults_harmless(module: &Module, model: ValidationModel) {
    Verifier::new(module).verify().expect("module verifies");
    let report = lint_module(module, model);
    assert!(
        report.is_clean(),
        "protected micro module must lint clean:\n{}",
        report
            .diags
            .iter()
            .map(|d| format!("  {d}\n"))
            .collect::<String>()
    );
    assert!(report.map.claims() > 0, "coverage map is empty");

    let en = enumerate_faults(
        module,
        "main",
        &[],
        &exec_config(),
        || NoopHooks,
        FaultModel::SingleBitSeu,
        &BITS,
        MAX_BOUNDARIES,
    )
    .expect("enumeration runs");

    let mut claimed = 0usize;
    for p in &en.probes {
        let Some(reg) = p.reg() else { continue };
        if !report.map.is_covered(&p.function, p.block, p.ip, reg) {
            continue;
        }
        claimed += 1;
        assert!(
            matches!(p.outcome, OutcomeClass::Correct | OutcomeClass::Detected),
            "claimed-covered flip escaped: {:?} at {}:{}[{}] {:?} -> {}",
            p.outcome,
            p.function,
            p.block.0,
            p.ip,
            p.kind,
            p.outcome,
        );
    }
    // The sweep must actually have exercised the claims, or the assertion
    // above is vacuous.
    assert!(
        claimed > en.probes.len() / 10,
        "only {claimed} of {} probes hit claimed-covered state",
        en.probes.len()
    );
}

#[test]
fn swift_r_covered_faults_are_masked() {
    let mut m = micro_module();
    apply_swift_r(&mut m);
    assert_covered_faults_harmless(&m, ValidationModel::Vote);
}

#[test]
fn swift_covered_faults_are_masked_or_detected() {
    let mut m = micro_module();
    apply_swift(&mut m);
    assert_covered_faults_harmless(&m, ValidationModel::Detect);
}

/// Under SWIFT (detection only), some covered fault must actually take the
/// detection path — otherwise the Detect handler is dead code and the
/// cross-validation proves less than it claims.
#[test]
fn swift_detection_path_is_exercised() {
    let mut m = micro_module();
    apply_swift(&mut m);
    let en = enumerate_faults(
        &m,
        "main",
        &[],
        &exec_config(),
        || NoopHooks,
        FaultModel::SingleBitSeu,
        &BITS,
        MAX_BOUNDARIES,
    )
    .expect("enumeration runs");
    assert!(
        en.probes
            .iter()
            .any(|p| p.outcome == OutcomeClass::Detected),
        "no probe ever reached the SWIFT detect handler"
    );
}

/// Rewrites the store of `%s` in `func` to consume a raw replica instead
/// of the majority-vote result: the classic "skipped vote before store"
/// pass bug. Returns the raw register now feeding the store.
fn unvote_one_store(module: &mut Module, func: &str) -> Reg {
    let f = module
        .functions
        .iter_mut()
        .find(|f| f.name == func)
        .expect("function exists");
    // Map every vote-select destination to its first arm (the original
    // replica the vote would have repaired).
    let mut vote_arm: Vec<(Reg, Operand)> = Vec::new();
    for b in &f.blocks {
        for inst in &b.insts {
            if let Inst::Select { dst, on_true, .. } = *inst {
                vote_arm.push((dst, on_true));
            }
        }
    }
    for b in f.blocks.iter_mut() {
        for inst in b.insts.iter_mut() {
            if let Inst::Store { value, .. } = inst {
                if let Operand::Reg(v) = *value {
                    if let Some((_, arm)) = vote_arm.iter().find(|(d, _)| *d == v) {
                        *value = *arm;
                        if let Operand::Reg(raw) = *arm {
                            return raw;
                        }
                    }
                }
            }
        }
    }
    panic!("no voted store found to break");
}

/// Direction 2: a hand-broken module (vote dropped before the store) must
/// both (a) produce the exact static diagnostic and (b) be witnessed by at
/// least one undetected corruption in that window.
#[test]
fn dropped_vote_window_is_witnessed_by_sdc() {
    let mut m = micro_module();
    apply_swift_r(&mut m);
    let raw = unvote_one_store(&mut m, "main");
    Verifier::new(&m)
        .verify()
        .expect("broken module still verifies");

    let report = lint_module(&m, ValidationModel::Vote);
    assert!(!report.is_clean(), "dropped vote must be diagnosed");
    assert!(
        report
            .diags
            .iter()
            .any(|d| d.kind == CoverageKind::UnprotectedStoreValue && d.loc.function == "main"),
        "expected an unprotected-store-value diagnostic, got:\n{}",
        report
            .diags
            .iter()
            .map(|d| format!("  {d}\n"))
            .collect::<String>()
    );

    let en = enumerate_faults(
        &m,
        "main",
        &[],
        &exec_config(),
        || NoopHooks,
        FaultModel::SingleBitSeu,
        &BITS,
        MAX_BOUNDARIES,
    )
    .expect("enumeration runs");

    // The window is real: some flip of the raw (unvoted) register slips
    // through to the output unrepaired and undetected.
    assert!(
        en.sdc_probes().any(|p| p.reg() == Some(raw)),
        "no undetected corruption ever witnessed the dropped-vote window"
    );
}
