//! SWIFT-R: instruction triplication with majority-vote recovery
//! [Reis et al., "Automatic instruction-level software-only recovery"].
//!
//! Every computational instruction is executed three times into disjoint
//! register files (the original plus two shadows). At synchronization
//! points — store value and address, conditional branch conditions, call
//! arguments, return values — a two-instruction majority vote
//! (`eq` + `select`) recovers the correct value if any single copy was
//! corrupted:
//!
//! ```text
//! t = cmp.eq x, x1        ; does the original agree with shadow 1?
//! m = select t, x, x2     ; yes -> x is majority; no -> x2 breaks the tie
//! ```
//!
//! * If `x` is corrupted: `t = 0`, vote yields clean `x2`.
//! * If `x1` is corrupted: `t = 0`, vote yields clean `x2` (= `x`).
//! * If `x2` is corrupted: `t = 1`, vote yields clean `x`.
//!
//! Loads are triplicated too (the memory system is ECC-protected, so three
//! loads of the same address agree); stores execute once with voted
//! operands. Calls execute once with voted arguments — the callee rebuilds
//! redundancy from its (voted) parameters, making calls synchronization
//! points as in the paper. Intrinsic calls (the trusted runtime) are never
//! duplicated.

use rskip_ir::{CmpOp, Function, Inst, Module, Operand, Reg, Terminator, Ty};

/// Applies SWIFT-R to every function with `attrs.protect == true`.
pub fn apply_swift_r(module: &mut Module) {
    for f in &mut module.functions {
        if f.attrs.protect && !f.attrs.outlined {
            transform_function(f);
        }
    }
}

struct Ctx {
    /// First shadow register per original register.
    s1: Vec<Reg>,
    /// Second shadow register per original register.
    s2: Vec<Reg>,
    n_orig: usize,
}

impl Ctx {
    fn shadow_op(&self, op: Operand, which: u8) -> Operand {
        match op {
            Operand::Reg(r) if r.index() < self.n_orig => {
                let s = if which == 1 {
                    self.s1[r.index()]
                } else {
                    self.s2[r.index()]
                };
                Operand::Reg(s)
            }
            other => other,
        }
    }
}

fn transform_function(f: &mut Function) {
    let n_orig = f.regs.len();
    let mut s1 = Vec::with_capacity(n_orig);
    let mut s2 = Vec::with_capacity(n_orig);
    for i in 0..n_orig {
        let ty = f.regs[i].ty;
        s1.push(f.new_reg(ty));
        s2.push(f.new_reg(ty));
    }
    let ctx = Ctx { s1, s2, n_orig };

    for bi in 0..f.blocks.len() {
        let old = std::mem::take(&mut f.blocks[bi].insts);
        let mut out: Vec<Inst> = Vec::with_capacity(old.len() * 3);

        // Entry block: rebuild redundancy from the parameters.
        if bi == 0 {
            for p in 0..f.params.len() {
                let ty = f.regs[p].ty;
                out.push(Inst::Mov {
                    ty,
                    dst: ctx.s1[p],
                    src: Operand::Reg(Reg(p as u32)),
                });
                out.push(Inst::Mov {
                    ty,
                    dst: ctx.s2[p],
                    src: Operand::Reg(Reg(p as u32)),
                });
            }
        }

        for inst in old {
            match &inst {
                Inst::Store { ty, addr, value } => {
                    let a = vote(f, &ctx, &mut out, *addr, Ty::I64);
                    let v = vote(f, &ctx, &mut out, *value, *ty);
                    out.push(Inst::Store {
                        ty: *ty,
                        addr: a,
                        value: v,
                    });
                }
                Inst::Call { dst, callee, args } => {
                    let voted: Vec<Operand> = args
                        .iter()
                        .map(|&a| {
                            let ty = operand_ty(f, a);
                            vote(f, &ctx, &mut out, a, ty)
                        })
                        .collect();
                    out.push(Inst::Call {
                        dst: *dst,
                        callee: callee.clone(),
                        args: voted,
                    });
                    if let Some(d) = dst {
                        copy_to_shadows(f, &ctx, &mut out, *d);
                    }
                }
                Inst::IntrinsicCall { dst, intr, args } => {
                    let voted: Vec<Operand> = args
                        .iter()
                        .map(|&a| {
                            let ty = operand_ty(f, a);
                            vote(f, &ctx, &mut out, a, ty)
                        })
                        .collect();
                    out.push(Inst::IntrinsicCall {
                        dst: *dst,
                        intr: *intr,
                        args: voted,
                    });
                    if let Some(d) = dst {
                        copy_to_shadows(f, &ctx, &mut out, *d);
                    }
                }
                Inst::Load { ty, dst, addr } => {
                    // Loads execute once with a *voted* address (memory is
                    // ECC-protected, so re-loading adds nothing — SWIFT's
                    // "removing unnecessary memory redundancies"); the
                    // loaded value is copied to the shadows. This also
                    // prevents a corrupted shadow address from causing a
                    // wild access the vote would have caught.
                    let a = vote(f, &ctx, &mut out, *addr, Ty::I64);
                    out.push(Inst::Load {
                        ty: *ty,
                        dst: *dst,
                        addr: a,
                    });
                    copy_to_shadows(f, &ctx, &mut out, *dst);
                }
                pure => {
                    // Triplicate.
                    out.push(pure.clone());
                    for which in [1u8, 2u8] {
                        let mut clone = pure.clone();
                        clone.map_uses(|op| ctx.shadow_op(op, which));
                        if let Some(d) = clone.dst() {
                            debug_assert!(d.index() < ctx.n_orig);
                            let shadow = if which == 1 {
                                ctx.s1[d.index()]
                            } else {
                                ctx.s2[d.index()]
                            };
                            clone.set_dst(shadow);
                        }
                        out.push(clone);
                    }
                }
            }
        }

        // Synchronization points in the terminator.
        let term = f.blocks[bi].term.clone();
        let new_term = match term {
            Terminator::CondBr(c, t, fl) => {
                let voted = vote(f, &ctx, &mut out, c, Ty::I64);
                Terminator::CondBr(voted, t, fl)
            }
            Terminator::Ret(Some(v)) => {
                let ty = operand_ty(f, v);
                let voted = vote(f, &ctx, &mut out, v, ty);
                Terminator::Ret(Some(voted))
            }
            other => other,
        };
        f.blocks[bi].insts = out;
        f.blocks[bi].term = new_term;
    }
}

fn operand_ty(f: &Function, op: Operand) -> Ty {
    match op {
        Operand::Reg(r) => f.reg_ty(r),
        Operand::ImmI(_) | Operand::Global(_) => Ty::I64,
        Operand::ImmF(_) => Ty::F64,
    }
}

/// Emits the 2-instruction majority vote for `op`; constants vote as
/// themselves.
fn vote(f: &mut Function, ctx: &Ctx, out: &mut Vec<Inst>, op: Operand, ty: Ty) -> Operand {
    let Operand::Reg(r) = op else { return op };
    if r.index() >= ctx.n_orig {
        // Pass-created register (e.g. an earlier vote result): already a
        // majority value.
        return op;
    }
    let t = f.new_reg(Ty::I64);
    out.push(Inst::Cmp {
        ty,
        op: CmpOp::Eq,
        dst: t,
        lhs: op,
        rhs: Operand::Reg(ctx.s1[r.index()]),
    });
    let m = f.new_reg(ty);
    out.push(Inst::Select {
        ty,
        dst: m,
        cond: Operand::Reg(t),
        on_true: op,
        on_false: Operand::Reg(ctx.s2[r.index()]),
    });
    Operand::Reg(m)
}

/// After a non-duplicated definition (call or intrinsic result), seed the
/// shadows so downstream triplicated uses have consistent copies.
fn copy_to_shadows(f: &mut Function, ctx: &Ctx, out: &mut Vec<Inst>, d: Reg) {
    if d.index() >= ctx.n_orig {
        return;
    }
    let ty = f.reg_ty(d);
    out.push(Inst::Mov {
        ty,
        dst: ctx.s1[d.index()],
        src: Operand::Reg(d),
    });
    out.push(Inst::Mov {
        ty,
        dst: ctx.s2[d.index()],
        src: Operand::Reg(d),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rskip_exec::{run_simple, Termination};
    use rskip_ir::{BinOp, CmpOp, ModuleBuilder, Value, Verifier};

    fn sum_loop_module() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global_init(
            "data",
            Ty::F64,
            (1..=8).map(|v| Value::F(v as f64)).collect(),
        );
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
        let c = f.cmp(CmpOp::Lt, Ty::I64, Operand::reg(i), Operand::imm_i(8));
        f.cond_br(Operand::reg(c), body, exit);
        f.switch_to(body);
        let addr = f.bin(BinOp::Add, Ty::I64, Operand::global(g), Operand::reg(i));
        let v = f.load(Ty::F64, Operand::reg(addr));
        f.bin_into(acc, BinOp::Add, Ty::F64, Operand::reg(acc), Operand::reg(v));
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
        let mut m = sum_loop_module();
        let clean = run_simple(&m, "main", &[]);
        apply_swift_r(&mut m);
        Verifier::new(&m).verify().unwrap();
        let protected = run_simple(&m, "main", &[]);
        assert_eq!(clean.termination, protected.termination);
        assert_eq!(
            protected.termination,
            Termination::Returned(Some(Value::F(36.0)))
        );
    }

    #[test]
    fn multiplies_dynamic_instructions_by_about_three() {
        let mut m = sum_loop_module();
        let clean = run_simple(&m, "main", &[]);
        apply_swift_r(&mut m);
        let protected = run_simple(&m, "main", &[]);
        let ratio = protected.counters.retired as f64 / clean.counters.retired as f64;
        assert!(
            (2.2..4.5).contains(&ratio),
            "dynamic instruction ratio = {ratio}"
        );
    }

    #[test]
    fn calls_vote_arguments_and_reseed_shadows() {
        let mut mb = ModuleBuilder::new("m");
        let mut sq = mb.function("square", vec![Ty::F64], Some(Ty::F64));
        let p = sq.param(0);
        let r = sq.bin(BinOp::Mul, Ty::F64, Operand::reg(p), Operand::reg(p));
        sq.ret(Some(Operand::reg(r)));
        sq.finish();
        let mut f = mb.function("main", vec![], Some(Ty::F64));
        let x = f.mov_new(Ty::F64, Operand::imm_f(3.0));
        let y = f
            .call("square", vec![Operand::reg(x)], Some(Ty::F64))
            .unwrap();
        let z = f.bin(BinOp::Add, Ty::F64, Operand::reg(y), Operand::imm_f(1.0));
        f.ret(Some(Operand::reg(z)));
        f.finish();
        let mut m = mb.finish();
        apply_swift_r(&mut m);
        Verifier::new(&m).verify().unwrap();
        let out = run_simple(&m, "main", &[]);
        assert_eq!(out.termination, Termination::Returned(Some(Value::F(10.0))));
    }

    #[test]
    fn unprotected_functions_are_left_alone() {
        let mut m = sum_loop_module();
        m.functions[0].attrs.protect = false;
        let before = m.functions[0].inst_count();
        apply_swift_r(&mut m);
        assert_eq!(m.functions[0].inst_count(), before);
    }

    /// The core recovery property: flip any single bit of any single live
    /// register at any point inside the loop — the output must stay
    /// correct, because every value is triplicated and voted before it
    /// reaches memory or control flow.
    #[test]
    fn recovers_from_every_single_register_fault() {
        use rskip_exec::{ExecConfig, FaultModel, InjectionPlan, Machine, NoopHooks};

        let mut m = sum_loop_module();
        // Mark the loop as a region so injection has scope.
        let f = m.function("main").unwrap();
        let cfg = rskip_analysis::Cfg::new(f);
        let dom = rskip_analysis::DomTree::new(f, &cfg);
        let forest = rskip_analysis::LoopForest::new(f, &cfg, &dom);
        let blocks = forest.loops()[0].blocks.clone();
        let region = m.new_region();
        crate::util::add_region_markers(&mut m, "main", &blocks, rskip_ir::BlockId(1), region);
        apply_swift_r(&mut m);
        Verifier::new(&m).verify().unwrap();

        let config = ExecConfig {
            step_limit: 100_000,
            ..ExecConfig::default()
        };
        let golden = {
            let mut machine = Machine::with_config(&m, NoopHooks, config.clone());
            machine.run("main", &[]);
            machine.read_global("out").to_vec()
        };

        let mut recovered = 0;
        let mut total = 0;
        for trigger in (0..400).step_by(13) {
            for seed in 0..4 {
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
                if out.returned() && machine.read_global("out") == golden.as_slice() {
                    recovered += 1;
                }
            }
        }
        assert!(total > 50, "injections actually fired: {total}");
        let rate = recovered as f64 / total as f64;
        // SWIFT-R is not perfect (window-of-vulnerability faults exist in
        // the paper too: 97.24%), but the vast majority must recover.
        assert!(rate > 0.9, "recovery rate = {rate} ({recovered}/{total})");
    }
}
