//! Property tests: on randomly generated programs, every protection
//! scheme must preserve semantics exactly — same outputs, same
//! termination — and SWIFT-R must keep its ~3x instruction envelope.

use proptest::prelude::*;
use rskip_exec::{run_simple, Machine, NoopHooks, Termination};
use rskip_ir::{BinOp, CmpOp, ModuleBuilder, Operand, Ty, UnOp, Value, Verifier};
use rskip_passes::{apply_swift, apply_swift_r};

/// A recipe for one loop-body instruction.
#[derive(Debug, Clone)]
enum Step {
    AddI(i64),
    MulF,
    AddF,
    Sqrt,
    LoadSig,
    StoreOut,
    CmpSel,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (-4i64..5).prop_map(Step::AddI),
        Just(Step::MulF),
        Just(Step::AddF),
        Just(Step::Sqrt),
        Just(Step::LoadSig),
        Just(Step::StoreOut),
        Just(Step::CmpSel),
    ]
}

/// Builds a random-but-verifiable program: a counted loop over `n`
/// iterations whose body applies the generated steps to rolling i64/f64
/// state, loading from a signal array and storing to an output array.
fn build_program(steps: &[Step], n: i64) -> rskip_ir::Module {
    let mut mb = ModuleBuilder::new("prop");
    let sig = mb.global_init(
        "sig",
        Ty::F64,
        (0..64).map(|k| Value::F(1.0 + k as f64 * 0.25)).collect(),
    );
    let out = mb.global_zeroed("out", Ty::F64, 64);
    let mut f = mb.function("main", vec![], Some(Ty::F64));
    let entry = f.entry_block();
    let header = f.new_block("header");
    let body = f.new_block("body");
    let exit = f.new_block("exit");
    let i = f.def_reg(Ty::I64, "i");
    let ival = f.def_reg(Ty::I64, "ival");
    let fval = f.def_reg(Ty::F64, "fval");

    f.switch_to(entry);
    f.mov(i, Operand::imm_i(0));
    f.mov(ival, Operand::imm_i(1));
    f.mov(fval, Operand::imm_f(1.0));
    f.br(header);

    f.switch_to(header);
    let c = f.cmp(CmpOp::Lt, Ty::I64, Operand::reg(i), Operand::imm_i(n));
    f.cond_br(Operand::reg(c), body, exit);

    f.switch_to(body);
    for step in steps {
        match step {
            Step::AddI(k) => {
                f.bin_into(
                    ival,
                    BinOp::Add,
                    Ty::I64,
                    Operand::reg(ival),
                    Operand::imm_i(*k),
                );
            }
            Step::MulF => {
                f.bin_into(
                    fval,
                    BinOp::Mul,
                    Ty::F64,
                    Operand::reg(fval),
                    Operand::imm_f(1.0625),
                );
            }
            Step::AddF => {
                f.bin_into(
                    fval,
                    BinOp::Add,
                    Ty::F64,
                    Operand::reg(fval),
                    Operand::imm_f(0.5),
                );
            }
            Step::Sqrt => {
                let a = f.un(UnOp::Abs, Ty::F64, Operand::reg(fval));
                f.un_into(fval, UnOp::Sqrt, Ty::F64, Operand::reg(a));
                f.bin_into(
                    fval,
                    BinOp::Add,
                    Ty::F64,
                    Operand::reg(fval),
                    Operand::imm_f(1.0),
                );
            }
            Step::LoadSig => {
                let m = f.bin(BinOp::Rem, Ty::I64, Operand::reg(ival), Operand::imm_i(64));
                let idx = f.un(UnOp::Abs, Ty::I64, Operand::reg(m));
                let a = f.bin(BinOp::Add, Ty::I64, Operand::global(sig), Operand::reg(idx));
                let v = f.load(Ty::F64, Operand::reg(a));
                f.bin_into(
                    fval,
                    BinOp::Add,
                    Ty::F64,
                    Operand::reg(fval),
                    Operand::reg(v),
                );
            }
            Step::StoreOut => {
                let m = f.bin(BinOp::Rem, Ty::I64, Operand::reg(i), Operand::imm_i(64));
                let a = f.bin(BinOp::Add, Ty::I64, Operand::global(out), Operand::reg(m));
                f.store(Ty::F64, Operand::reg(a), Operand::reg(fval));
            }
            Step::CmpSel => {
                let c = f.cmp(
                    CmpOp::Gt,
                    Ty::F64,
                    Operand::reg(fval),
                    Operand::imm_f(100.0),
                );
                let sel = f.select(
                    Ty::F64,
                    Operand::reg(c),
                    Operand::imm_f(1.0),
                    Operand::reg(fval),
                );
                f.mov(fval, Operand::reg(sel));
            }
        }
    }
    f.bin_into(i, BinOp::Add, Ty::I64, Operand::reg(i), Operand::imm_i(1));
    f.br(header);

    f.switch_to(exit);
    f.ret(Some(Operand::reg(fval)));
    f.finish();
    mb.finish()
}

fn outputs(m: &rskip_ir::Module) -> (Termination, Vec<Value>, u64) {
    let mut machine = Machine::new(m, NoopHooks);
    let out = machine.run("main", &[]);
    (
        out.termination,
        machine.read_global("out").to_vec(),
        out.counters.retired,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn swift_r_preserves_random_programs(
        steps in prop::collection::vec(step_strategy(), 1..14),
        n in 1i64..40,
    ) {
        let m = build_program(&steps, n);
        Verifier::new(&m).verify().expect("generated program verifies");
        let (t0, o0, retired0) = outputs(&m);

        let mut protected = m.clone();
        apply_swift_r(&mut protected);
        Verifier::new(&protected).verify().expect("SWIFT-R output verifies");
        let (t1, o1, retired1) = outputs(&protected);

        prop_assert_eq!(&t0, &t1);
        if let (Termination::Returned(Some(a)), Termination::Returned(Some(b))) = (&t0, &t1) {
            prop_assert!(a.bit_eq(*b), "return value differs: {a:?} vs {b:?}");
        }
        for (i, (a, b)) in o0.iter().zip(&o1).enumerate() {
            prop_assert!(a.bit_eq(*b), "out[{i}] differs");
        }
        // Instruction envelope: triplication plus voting, bounded.
        prop_assert!(retired1 >= retired0, "protection cannot shrink work");
        prop_assert!(
            retired1 <= retired0 * 5,
            "SWIFT-R blew past the envelope: {retired0} -> {retired1}"
        );
    }

    #[test]
    fn swift_detection_preserves_random_programs(
        steps in prop::collection::vec(step_strategy(), 1..14),
        n in 1i64..40,
    ) {
        let m = build_program(&steps, n);
        let (t0, o0, _) = outputs(&m);
        let mut protected = m.clone();
        apply_swift(&mut protected);
        Verifier::new(&protected).verify().expect("SWIFT output verifies");
        let (t1, o1, _) = outputs(&protected);
        prop_assert_eq!(&t0, &t1);
        for (a, b) in o0.iter().zip(&o1) {
            prop_assert!(a.bit_eq(*b));
        }
    }

    #[test]
    fn swift_r_shadow_faults_are_always_harmless(
        steps in prop::collection::vec(step_strategy(), 2..10),
        trigger in 0u64..2000,
        seed in 0u64..1000,
    ) {
        // Build, mark the loop as a region, protect, inject one SEU.
        //
        // The precise TMR property: a single bit flip confined to a
        // *shadow* register can never affect the program — the majority
        // vote always has two clean copies, and shadow registers never
        // feed loads or stores directly (ECC load handling). Shadows are
        // allocated contiguously right after the original registers, so
        // they are exactly the range [n_orig, 3*n_orig).
        let m = build_program(&steps, 24);
        let f = m.function("main").unwrap();
        let cfg = rskip_analysis::Cfg::new(f);
        let dom = rskip_analysis::DomTree::new(f, &cfg);
        let forest = rskip_analysis::LoopForest::new(f, &cfg, &dom);
        prop_assume!(!forest.loops().is_empty());
        let blocks = forest.loops()[0].blocks.clone();
        let header = forest.loops()[0].header;
        let mut marked = m.clone();
        let region = marked.new_region();
        rskip_passes::add_region_markers(&mut marked, "main", &blocks, header, region);
        let n_orig = marked.function("main").unwrap().regs.len() as u32;
        apply_swift_r(&mut marked);

        let golden = {
            let mut machine = Machine::new(&marked, NoopHooks);
            let out = machine.run("main", &[]);
            prop_assert!(out.returned());
            (machine.read_global("out").to_vec(), out.termination)
        };
        let mut machine = Machine::with_config(
            &marked,
            NoopHooks,
            rskip_exec::ExecConfig { step_limit: 5_000_000, ..Default::default() },
        );
        machine.set_injection(rskip_exec::InjectionPlan {
            trigger,
            seed,
            model: rskip_exec::FaultModel::SingleBitSeu,
        });
        let out = machine.run("main", &[]);
        if let Some(rec) = &out.injection {
            let reg = rec.effect.reg().map_or(u32::MAX, |r| r.0);
            if rec.function == "main" && reg >= n_orig && reg < 3 * n_orig {
                prop_assert_eq!(&out.termination, &golden.1, "shadow fault changed termination");
                for (i, (a, b)) in machine.read_global("out").iter().zip(&golden.0).enumerate() {
                    prop_assert!(a.bit_eq(*b), "shadow fault corrupted out[{i}]");
                }
            }
        }
        let _ = run_simple(&marked, "main", &[]); // smoke: determinism
    }
}
