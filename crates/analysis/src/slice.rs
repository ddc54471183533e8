//! Backward value slices within a loop.
//!
//! The RSkip transform must isolate "the sequence of computation" producing
//! a stored value (paper Fig. 1) so it can be outlined into a re-executable
//! body function. [`BackwardSlice::compute`] walks def-use chains backwards
//! from the stored value, staying inside the target loop. When a needed
//! definition sits inside a nested loop, the *entire* subloop is pulled
//! into the slice (the reduction-loop pattern of Fig. 4b).

use std::collections::BTreeSet;

use rskip_ir::{BlockId, Function, Inst, Operand, Reg};

use crate::loops::LoopForest;

/// Why a slice could not be formed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SliceError {
    /// The slice would include an instruction with side effects (a store or
    /// an intrinsic call). Calls are allowed — purity is the caller's check.
    Impure {
        /// Block of the offending instruction.
        block: BlockId,
        /// Index of the offending instruction.
        idx: usize,
    },
    /// A register needed by the slice has a definition inside the loop that
    /// could not be attributed to the slice structure (e.g. defined in a
    /// block of the target loop that also feeds non-slice control flow).
    UnstructuredDef(Reg),
    /// An included subloop contains a store, call or intrinsic — it is not
    /// a pure reduction.
    ImpureSubloop(usize),
    /// The stored value is not produced by a register (a constant store is
    /// never a protection candidate).
    ConstantValue,
}

impl std::fmt::Display for SliceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SliceError::Impure { block, idx } => {
                write!(
                    f,
                    "slice includes side-effecting instruction {block}[{idx}]"
                )
            }
            SliceError::UnstructuredDef(r) => {
                write!(f, "register {r} has an unstructured in-loop definition")
            }
            SliceError::ImpureSubloop(i) => write!(f, "included subloop {i} is impure"),
            SliceError::ConstantValue => write!(f, "stored value is a constant"),
        }
    }
}

impl std::error::Error for SliceError {}

/// The backward slice of one stored value within a target loop.
#[derive(Clone, Debug)]
pub struct BackwardSlice {
    /// Slice instructions in the target loop's direct blocks:
    /// `(block, instruction index)`.
    pub insts: BTreeSet<(BlockId, usize)>,
    /// Indices (into the [`LoopForest`]) of complete subloops included in
    /// the slice.
    pub subloops: Vec<usize>,
    /// Registers read by slice instructions, in first-encounter order
    /// (deduplicated). Superset of the true live-ins; the outliner prunes
    /// it with a liveness pass.
    pub read_regs: Vec<Reg>,
    /// Registers defined by slice instructions.
    pub defined_regs: BTreeSet<Reg>,
    /// Callee names of calls inside the slice (the Fig. 4a pattern when the
    /// slice is exactly one call).
    pub calls: Vec<String>,
    /// A load whose address operand is identical to the store's address
    /// operand (the in-place update of Fig. 4b / `lud`). Excluded from the
    /// slice; its destination becomes a body parameter carrying the
    /// original cell value.
    pub aliased_load: Option<(BlockId, usize)>,
    /// Destination register of the aliased load, if any.
    pub aliased_dst: Option<Reg>,
}

impl BackwardSlice {
    /// Computes the backward slice of the value stored by
    /// `f.block(store_block).insts[store_idx]` within loop `loop_idx`.
    ///
    /// # Errors
    ///
    /// See [`SliceError`].
    ///
    /// # Panics
    ///
    /// Panics if the referenced instruction is not a store.
    pub fn compute(
        f: &Function,
        forest: &LoopForest,
        loop_idx: usize,
        store_block: BlockId,
        store_idx: usize,
    ) -> Result<BackwardSlice, SliceError> {
        let lp = &forest.loops()[loop_idx];
        let Inst::Store { addr, value, .. } = &f.block(store_block).insts[store_idx] else {
            panic!("slice target is not a store");
        };
        let value_reg = match value {
            Operand::Reg(r) => *r,
            _ => return Err(SliceError::ConstantValue),
        };
        let iv_reg = lp.induction.as_ref().map(|iv| iv.reg);

        // Blocks of each direct or transitive subloop of the target loop.
        let mut subloop_of_block: std::collections::HashMap<BlockId, usize> =
            std::collections::HashMap::new();
        for (i, l) in forest.loops().iter().enumerate() {
            if i == loop_idx {
                continue;
            }
            if !l.blocks.is_subset(&lp.blocks) {
                continue;
            }
            // Attribute each block to its *outermost* subloop within the
            // target loop, so an inner-inner loop is absorbed by its parent.
            for &b in &l.blocks {
                let entry = subloop_of_block.entry(b).or_insert(i);
                if forest.loops()[*entry].blocks.len() < l.blocks.len() {
                    *entry = i;
                }
            }
        }

        let mut slice = BackwardSlice {
            insts: BTreeSet::new(),
            subloops: Vec::new(),
            read_regs: Vec::new(),
            defined_regs: BTreeSet::new(),
            calls: Vec::new(),
            aliased_load: None,
            aliased_dst: None,
        };
        let mut included_subloops: BTreeSet<usize> = BTreeSet::new();
        let mut visited_regs: BTreeSet<Reg> = BTreeSet::new();
        let mut worklist: Vec<Reg> = vec![value_reg];
        let mut reads_seen: BTreeSet<Reg> = BTreeSet::new();

        let note_read = |slice: &mut BackwardSlice, seen: &mut BTreeSet<Reg>, r: Reg| {
            if seen.insert(r) {
                slice.read_regs.push(r);
            }
        };

        while let Some(reg) = worklist.pop() {
            if !visited_regs.insert(reg) {
                continue;
            }
            // The induction variable is always a live-in parameter; its
            // update stays in the (conventionally protected) loop shell.
            if Some(reg) == iv_reg {
                continue;
            }
            // Find all in-loop definitions of `reg`.
            let mut found_in_loop = false;
            for &b in &lp.blocks {
                for (idx, inst) in f.block(b).insts.iter().enumerate() {
                    if inst.dst() != Some(reg) {
                        continue;
                    }
                    found_in_loop = true;
                    if let Some(&sub) = subloop_of_block.get(&b) {
                        // Defined inside a subloop: include it whole.
                        if included_subloops.insert(sub) {
                            slice.subloops.push(sub);
                            let subl = &forest.loops()[sub];
                            for &sb in &subl.blocks {
                                for (sidx, sinst) in f.block(sb).insts.iter().enumerate() {
                                    match sinst {
                                        Inst::Store { .. } | Inst::IntrinsicCall { .. } => {
                                            return Err(SliceError::ImpureSubloop(sub));
                                        }
                                        Inst::Call { callee, .. } => {
                                            slice.calls.push(callee.clone());
                                        }
                                        _ => {}
                                    }
                                    slice.insts.insert((sb, sidx));
                                    if let Some(d) = sinst.dst() {
                                        slice.defined_regs.insert(d);
                                    }
                                    for r in sinst.used_regs() {
                                        note_read(&mut slice, &mut reads_seen, r);
                                        worklist.push(r);
                                    }
                                }
                                // Subloop branch conditions feed control
                                // flow; their registers are slice reads.
                                if let Some(Operand::Reg(r)) = f.block(sb).term.used_operand() {
                                    note_read(&mut slice, &mut reads_seen, r);
                                    worklist.push(r);
                                }
                            }
                        }
                        continue;
                    }

                    // Direct-block definition.
                    match inst {
                        Inst::Store { .. } | Inst::IntrinsicCall { .. } => {
                            return Err(SliceError::Impure { block: b, idx });
                        }
                        Inst::Load { addr: laddr, .. } if laddr == addr => {
                            // In-place update: the load of the cell the
                            // store overwrites. Becomes a parameter.
                            slice.aliased_load = Some((b, idx));
                            slice.aliased_dst = Some(reg);
                            continue;
                        }
                        Inst::Call { callee, .. } => {
                            slice.calls.push(callee.clone());
                        }
                        _ => {}
                    }
                    slice.insts.insert((b, idx));
                    slice.defined_regs.insert(reg);
                    for r in inst.used_regs() {
                        note_read(&mut slice, &mut reads_seen, r);
                        worklist.push(r);
                    }
                }
            }
            let _ = found_in_loop; // regs with no in-loop def are live-ins
        }
        Ok(slice)
    }

    /// True if the slice is a single direct call and nothing else — the
    /// function-call pattern of paper Fig. 4a.
    pub fn is_single_call(&self) -> bool {
        self.subloops.is_empty() && self.insts.len() == 1 && self.calls.len() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cfg, DomTree};
    use rskip_ir::{BinOp, CmpOp, ModuleBuilder, Operand, Ty, UnOp};

    /// Builds: for i in 0..8 { acc = 0; for k in 0..4 { acc += g[i+k] };
    /// out[i] = acc * 2.0 }
    fn reduction_module() -> rskip_ir::Module {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global_zeroed("g", Ty::F64, 16);
        let out = mb.global_zeroed("out", Ty::F64, 8);
        let mut f = mb.function("f", vec![], None);
        let entry = f.entry_block();
        let oh = f.new_block("oh");
        let pre = f.new_block("pre");
        let ih = f.new_block("ih");
        let ib = f.new_block("ib");
        let fin = f.new_block("fin");
        let exit = f.new_block("exit");
        let i = f.def_reg(Ty::I64, "i");
        let k = f.def_reg(Ty::I64, "k");
        let acc = f.def_reg(Ty::F64, "acc");

        f.switch_to(entry);
        f.mov(i, Operand::imm_i(0));
        f.br(oh);

        f.switch_to(oh);
        let c = f.cmp(CmpOp::Lt, Ty::I64, Operand::reg(i), Operand::imm_i(8));
        f.cond_br(Operand::reg(c), pre, exit);

        f.switch_to(pre);
        f.mov(acc, Operand::imm_f(0.0));
        f.mov(k, Operand::imm_i(0));
        f.br(ih);

        f.switch_to(ih);
        let c2 = f.cmp(CmpOp::Lt, Ty::I64, Operand::reg(k), Operand::imm_i(4));
        f.cond_br(Operand::reg(c2), ib, fin);

        f.switch_to(ib);
        let idx = f.bin(BinOp::Add, Ty::I64, Operand::reg(i), Operand::reg(k));
        let addr = f.bin(BinOp::Add, Ty::I64, Operand::global(g), Operand::reg(idx));
        let v = f.load(Ty::F64, Operand::reg(addr));
        f.bin_into(acc, BinOp::Add, Ty::F64, Operand::reg(acc), Operand::reg(v));
        f.bin_into(k, BinOp::Add, Ty::I64, Operand::reg(k), Operand::imm_i(1));
        f.br(ih);

        f.switch_to(fin);
        let scaled = f.bin(BinOp::Mul, Ty::F64, Operand::reg(acc), Operand::imm_f(2.0));
        let oaddr = f.bin(BinOp::Add, Ty::I64, Operand::global(out), Operand::reg(i));
        f.store(Ty::F64, Operand::reg(oaddr), Operand::reg(scaled));
        f.bin_into(i, BinOp::Add, Ty::I64, Operand::reg(i), Operand::imm_i(1));
        f.br(oh);

        f.switch_to(exit);
        f.ret(None);
        f.finish();
        mb.finish()
    }

    #[test]
    fn reduction_slice_pulls_in_subloop() {
        let m = reduction_module();
        let f = &m.functions[0];
        let cfg = Cfg::new(f);
        let dom = DomTree::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dom);
        let outer_idx = forest.loops().iter().position(|l| l.depth == 0).unwrap();
        // The store is in block "fin" = bb5, instruction index 2.
        let slice = BackwardSlice::compute(f, &forest, outer_idx, rskip_ir::BlockId(5), 2).unwrap();
        assert_eq!(slice.subloops.len(), 1);
        assert!(!slice.is_single_call());
        // Slice contains: acc init + k init (pre), the whole inner body,
        // and the final scale; not the address computation of the store.
        let fin_insts: Vec<usize> = slice
            .insts
            .iter()
            .filter(|(b, _)| *b == rskip_ir::BlockId(5))
            .map(|(_, i)| *i)
            .collect();
        assert_eq!(fin_insts, vec![0]); // only `scaled = acc * 2.0`
                                        // The outer IV is a read (address of load g[i+k]) but never defined
                                        // by the slice. It is the first register allocated (`def_reg` order).
        let i_reg = rskip_ir::Reg(0);
        assert!(slice.read_regs.contains(&i_reg));
        assert!(!slice.defined_regs.contains(&i_reg));
        assert!(slice.aliased_load.is_none());
    }

    #[test]
    fn call_pattern_slice() {
        let mut mb = ModuleBuilder::new("m");
        let out = mb.global_zeroed("out", Ty::F64, 8);
        let mut body = mb.function("price", vec![Ty::F64], Some(Ty::F64));
        let a = body.param(0);
        let e = body.un(UnOp::Exp, Ty::F64, Operand::reg(a));
        body.ret(Some(Operand::reg(e)));
        body.finish();

        let mut f = mb.function("f", vec![], None);
        let entry = f.entry_block();
        let lh = f.new_block("lh");
        let lb = f.new_block("lb");
        let exit = f.new_block("exit");
        let i = f.def_reg(Ty::I64, "i");
        f.switch_to(entry);
        f.mov(i, Operand::imm_i(0));
        f.br(lh);
        f.switch_to(lh);
        let c = f.cmp(CmpOp::Lt, Ty::I64, Operand::reg(i), Operand::imm_i(8));
        f.cond_br(Operand::reg(c), lb, exit);
        f.switch_to(lb);
        let x = f.un(UnOp::IntToFloat, Ty::F64, Operand::reg(i));
        let v = f
            .call("price", vec![Operand::reg(x)], Some(Ty::F64))
            .unwrap();
        let addr = f.bin(BinOp::Add, Ty::I64, Operand::global(out), Operand::reg(i));
        f.store(Ty::F64, Operand::reg(addr), Operand::reg(v));
        f.bin_into(i, BinOp::Add, Ty::I64, Operand::reg(i), Operand::imm_i(1));
        f.br(lh);
        f.switch_to(exit);
        f.ret(None);
        f.finish();
        let m = mb.finish();

        let f = m.function("f").unwrap();
        let cfg = Cfg::new(f);
        let dom = DomTree::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dom);
        let slice = BackwardSlice::compute(f, &forest, 0, rskip_ir::BlockId(2), 3).unwrap();
        // The x = i2f conversion feeds the call, so the minimal slice is
        // call + conversion; `is_single_call` is therefore false here, but
        // the call is recorded.
        assert_eq!(slice.calls, vec!["price".to_string()]);
        assert!(!slice.insts.is_empty());
    }

    #[test]
    fn constant_store_is_rejected() {
        let mut mb = ModuleBuilder::new("m");
        let out = mb.global_zeroed("out", Ty::F64, 8);
        let mut f = mb.function("f", vec![], None);
        let entry = f.entry_block();
        let lb = f.new_block("lb");
        let exit = f.new_block("exit");
        let i = f.def_reg(Ty::I64, "i");
        f.switch_to(entry);
        f.mov(i, Operand::imm_i(0));
        f.br(lb);
        f.switch_to(lb);
        f.store(Ty::F64, Operand::global(out), Operand::imm_f(0.0));
        f.bin_into(i, BinOp::Add, Ty::I64, Operand::reg(i), Operand::imm_i(1));
        let c = f.cmp(CmpOp::Lt, Ty::I64, Operand::reg(i), Operand::imm_i(8));
        f.cond_br(Operand::reg(c), lb, exit);
        f.switch_to(exit);
        f.ret(None);
        f.finish();
        let m = mb.finish();
        let f = m.function("f").unwrap();
        let cfg = Cfg::new(f);
        let dom = DomTree::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dom);
        let err = BackwardSlice::compute(f, &forest, 0, rskip_ir::BlockId(1), 0).unwrap_err();
        assert_eq!(err, SliceError::ConstantValue);
    }
}
