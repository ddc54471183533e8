//! SWIFT: instruction duplication with detection only
//! [Reis et al., "SWIFT: Software implemented fault tolerance", CGO'05].
//!
//! One shadow copy of every computation; at synchronization points the
//! original and shadow are compared, and a mismatch branches to a detector
//! block that fires the `detect` intrinsic (which traps — SWIFT claims no
//! recovery). Used as an ablation baseline; the paper's evaluation baseline
//! is SWIFT-R.

use rskip_ir::{BlockId, CmpOp, Function, Inst, Module, Operand, Reg, Terminator, Ty};

/// Applies SWIFT to every function with `attrs.protect == true`.
pub fn apply_swift(module: &mut Module) {
    for f in &mut module.functions {
        if f.attrs.protect && !f.attrs.outlined {
            transform_function(f);
        }
    }
}

fn operand_ty(f: &Function, op: Operand) -> Ty {
    match op {
        Operand::Reg(r) => f.reg_ty(r),
        Operand::ImmI(_) | Operand::Global(_) => Ty::I64,
        Operand::ImmF(_) => Ty::F64,
    }
}

fn transform_function(f: &mut Function) {
    let n_orig = f.regs.len();
    let shadow: Vec<Reg> = (0..n_orig).map(|i| f.new_reg(f.regs[i].ty)).collect();

    // The detector block: fires `detect` and (unreachably) returns a zero.
    let detect_bb = f.add_block("swift_detect");
    f.block_mut(detect_bb).insts.push(Inst::IntrinsicCall {
        dst: None,
        intr: rskip_ir::Intrinsic::Detect,
        args: vec![],
    });
    f.block_mut(detect_bb).term = Terminator::Ret(match f.ret {
        None => None,
        Some(Ty::I64) => Some(Operand::imm_i(0)),
        Some(Ty::F64) => Some(Operand::imm_f(0.0)),
    });

    let shadow_op = |op: Operand| -> Operand {
        match op {
            Operand::Reg(r) if r.index() < n_orig => Operand::Reg(shadow[r.index()]),
            other => other,
        }
    };

    let n_blocks = f.blocks.len() - 1; // exclude the detector
    for bi in 0..n_blocks {
        if BlockId(bi as u32) == detect_bb {
            continue;
        }
        let old_insts = std::mem::take(&mut f.blocks[bi].insts);
        let old_term = f.blocks[bi].term.clone();

        // Build the (possibly split) chain of blocks replacing block `bi`.
        let mut cur = BlockId(bi as u32);
        let mut out: Vec<Inst> = Vec::with_capacity(old_insts.len() * 2);

        // Entry block: seed shadows from parameters.
        if bi == 0 {
            for (p, &sh) in shadow.iter().enumerate().take(f.params.len()) {
                out.push(Inst::Mov {
                    ty: f.regs[p].ty,
                    dst: sh,
                    src: Operand::Reg(Reg(p as u32)),
                });
            }
        }

        // Emits a mismatch check on `op`, splitting the block.
        macro_rules! check {
            ($f:expr, $out:expr, $cur:expr, $op:expr, $ty:expr) => {{
                let op: Operand = $op;
                if let Operand::Reg(r) = op {
                    if r.index() < n_orig {
                        let t = $f.new_reg(Ty::I64);
                        $out.push(Inst::Cmp {
                            ty: $ty,
                            op: CmpOp::Ne,
                            dst: t,
                            lhs: op,
                            rhs: Operand::Reg(shadow[r.index()]),
                        });
                        let cont = $f.add_block(format!("{}.chk", $f.block($cur).name));
                        $f.block_mut($cur).insts = std::mem::take(&mut $out);
                        $f.block_mut($cur).term =
                            Terminator::CondBr(Operand::Reg(t), detect_bb, cont);
                        $cur = cont;
                    }
                }
            }};
        }

        for inst in old_insts {
            match &inst {
                Inst::Store { ty, addr, value } => {
                    check!(f, out, cur, *addr, Ty::I64);
                    check!(f, out, cur, *value, *ty);
                    out.push(inst);
                }
                Inst::Call { dst, callee, args } => {
                    for &a in args {
                        let ty = operand_ty(f, a);
                        check!(f, out, cur, a, ty);
                    }
                    out.push(Inst::Call {
                        dst: *dst,
                        callee: callee.clone(),
                        args: args.clone(),
                    });
                    if let Some(d) = dst {
                        if d.index() < n_orig {
                            out.push(Inst::Mov {
                                ty: f.reg_ty(*d),
                                dst: shadow[d.index()],
                                src: Operand::Reg(*d),
                            });
                        }
                    }
                }
                Inst::IntrinsicCall { dst, .. } => {
                    out.push(inst.clone());
                    if let Some(d) = dst {
                        if d.index() < n_orig {
                            out.push(Inst::Mov {
                                ty: f.reg_ty(*d),
                                dst: shadow[d.index()],
                                src: Operand::Reg(*d),
                            });
                        }
                    }
                }
                Inst::Load { ty, dst, addr } => {
                    // Validate the address, load once, copy the value to
                    // the shadow (SWIFT's ECC-based load handling).
                    check!(f, out, cur, *addr, Ty::I64);
                    out.push(inst.clone());
                    out.push(Inst::Mov {
                        ty: *ty,
                        dst: shadow[dst.index()],
                        src: Operand::Reg(*dst),
                    });
                    let _ = addr;
                }
                pure => {
                    out.push(pure.clone());
                    let mut clone = pure.clone();
                    clone.map_uses(shadow_op);
                    if let Some(d) = clone.dst() {
                        clone.set_dst(shadow[d.index()]);
                    }
                    out.push(clone);
                }
            }
        }

        // Terminator sync points.
        let new_term = match old_term {
            Terminator::CondBr(c, t, fl) => {
                check!(f, out, cur, c, Ty::I64);
                Terminator::CondBr(c, t, fl)
            }
            Terminator::Ret(Some(v)) => {
                let ty = operand_ty(f, v);
                check!(f, out, cur, v, ty);
                Terminator::Ret(Some(v))
            }
            other => other,
        };
        f.block_mut(cur).insts = out;
        f.block_mut(cur).term = new_term;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rskip_exec::{
        run_simple, ExecConfig, FaultModel, InjectionPlan, Machine, NoopHooks, Termination, Trap,
    };
    use rskip_ir::{BinOp, ModuleBuilder, Value, Verifier};

    fn loop_module() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let out = mb.global_zeroed("out", Ty::F64, 1);
        let mut f = mb.function("main", vec![], Some(Ty::F64));
        let entry = f.entry_block();
        let header = f.new_block("header");
        let body = f.new_block("body");
        let exit = f.new_block("exit");
        let i = f.def_reg(Ty::I64, "i");
        let acc = f.def_reg(Ty::F64, "acc");
        f.switch_to(entry);
        f.mov(i, Operand::imm_i(0));
        f.mov(acc, Operand::imm_f(0.0));
        f.br(header);
        f.switch_to(header);
        let c = f.cmp(CmpOp::Lt, Ty::I64, Operand::reg(i), Operand::imm_i(20));
        f.cond_br(Operand::reg(c), body, exit);
        f.switch_to(body);
        let fi = f.un(rskip_ir::UnOp::IntToFloat, Ty::F64, Operand::reg(i));
        f.bin_into(
            acc,
            BinOp::Add,
            Ty::F64,
            Operand::reg(acc),
            Operand::reg(fi),
        );
        f.bin_into(i, BinOp::Add, Ty::I64, Operand::reg(i), Operand::imm_i(1));
        f.br(header);
        f.switch_to(exit);
        f.store(Ty::F64, Operand::global(out), Operand::reg(acc));
        f.ret(Some(Operand::reg(acc)));
        f.finish();
        mb.finish()
    }

    #[test]
    fn preserves_semantics() {
        let mut m = loop_module();
        let clean = run_simple(&m, "main", &[]);
        apply_swift(&mut m);
        Verifier::new(&m).verify().unwrap();
        let protected = run_simple(&m, "main", &[]);
        assert_eq!(clean.termination, protected.termination);
        assert_eq!(
            protected.termination,
            Termination::Returned(Some(Value::F(190.0)))
        );
    }

    #[test]
    fn roughly_doubles_dynamic_instructions() {
        let mut m = loop_module();
        let clean = run_simple(&m, "main", &[]);
        apply_swift(&mut m);
        let protected = run_simple(&m, "main", &[]);
        let ratio = protected.counters.retired as f64 / clean.counters.retired as f64;
        assert!((1.8..3.2).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn detects_injected_faults() {
        let mut m = loop_module();
        // Region-mark the loop so injection fires inside it.
        let f = m.function("main").unwrap();
        let cfg = rskip_analysis::Cfg::new(f);
        let dom = rskip_analysis::DomTree::new(f, &cfg);
        let forest = rskip_analysis::LoopForest::new(f, &cfg, &dom);
        let blocks = forest.loops()[0].blocks.clone();
        let region = m.new_region();
        crate::util::add_region_markers(&mut m, "main", &blocks, BlockId(1), region);
        apply_swift(&mut m);
        Verifier::new(&m).verify().unwrap();

        let config = ExecConfig {
            step_limit: 100_000,
            ..ExecConfig::default()
        };
        let mut detected = 0;
        let mut total = 0;
        for trigger in (0..300).step_by(7) {
            for seed in 0..3 {
                let mut machine = Machine::with_config(&m, NoopHooks, config.clone());
                machine.set_injection(InjectionPlan {
                    trigger,
                    seed,
                    model: FaultModel::SingleBitSeu,
                });
                let out = machine.run("main", &[]);
                if out.injection.is_none() {
                    continue;
                }
                total += 1;
                if out.termination == Termination::Trapped(Trap::FaultDetected) {
                    detected += 1;
                }
            }
        }
        assert!(total > 40, "fired {total}");
        // Many faults are masked (dead registers, shadows whose divergence
        // is overwritten); but a healthy share must reach the detector.
        assert!(detected > total / 10, "detected {detected}/{total}");
    }
}
