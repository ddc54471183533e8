//! Static cost estimation.
//!
//! The candidate detector filters out loops "with low computation overhead
//! (e.g., initialization)" (paper §4) using this model. Costs approximate
//! dynamic-instruction-weighted latencies; the execution substrate's
//! pipeline model uses consistent per-class latencies.

use rskip_ir::{BinOp, Inst, Ty, UnOp};

/// Coarse instruction classes of the static cost model. The timing model
/// does not use them: `rskip-exec` keeps its own functional-unit classes
/// (`OpClass`, assigned by `class_of`), which group divides and square
/// roots into one unpipelined unit, so the two classifications differ
/// and are kept separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Integer ALU (add/sub/logic/shift/min/max), moves, selects, compares.
    IntAlu,
    /// Integer multiplication.
    IntMul,
    /// Integer division / remainder.
    IntDiv,
    /// Floating-point add/sub/min/max/abs/neg.
    FpAdd,
    /// Floating-point multiplication.
    FpMul,
    /// Floating-point division.
    FpDiv,
    /// Square root.
    FpSqrt,
    /// Transcendentals (`exp`, `log`).
    FpTranscendental,
    /// Conversions between int and float, floor.
    FpConvert,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Direct call (argument setup + control transfer).
    Call,
    /// Runtime intrinsic (cost charged separately by the runtime).
    Intrinsic,
}

impl InstClass {
    /// Classifies an instruction.
    pub fn of(inst: &Inst) -> InstClass {
        match inst {
            Inst::Mov { .. } | Inst::Cmp { .. } | Inst::Select { .. } => InstClass::IntAlu,
            Inst::Bin { ty, op, .. } => match (ty, op) {
                (Ty::I64, BinOp::Mul) => InstClass::IntMul,
                (Ty::I64, BinOp::Div | BinOp::Rem) => InstClass::IntDiv,
                (Ty::I64, _) => InstClass::IntAlu,
                (Ty::F64, BinOp::Mul) => InstClass::FpMul,
                (Ty::F64, BinOp::Div | BinOp::Rem) => InstClass::FpDiv,
                (Ty::F64, _) => InstClass::FpAdd,
            },
            Inst::Un { ty, op, .. } => match op {
                UnOp::Sqrt => InstClass::FpSqrt,
                UnOp::Exp | UnOp::Log => InstClass::FpTranscendental,
                UnOp::IntToFloat | UnOp::FloatToInt | UnOp::Floor => InstClass::FpConvert,
                UnOp::Neg | UnOp::Abs => {
                    if *ty == Ty::F64 {
                        InstClass::FpAdd
                    } else {
                        InstClass::IntAlu
                    }
                }
                UnOp::Not => InstClass::IntAlu,
            },
            Inst::Load { .. } => InstClass::Load,
            Inst::Store { .. } => InstClass::Store,
            Inst::Call { .. } => InstClass::Call,
            Inst::IntrinsicCall { .. } => InstClass::Intrinsic,
        }
    }
}

/// Per-class cost weights for static estimation.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Trip-count estimate used for loops whose trip count is not a
    /// compile-time constant.
    pub default_trip: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { default_trip: 16 }
    }
}

impl CostModel {
    /// Creates the default model.
    pub fn new() -> Self {
        Self::default()
    }

    /// The static cost of one instruction (latency-weighted units).
    pub fn inst_cost(&self, inst: &Inst) -> f64 {
        self.class_cost(InstClass::of(inst))
    }

    /// Cost of an instruction class.
    pub fn class_cost(&self, class: InstClass) -> f64 {
        match class {
            InstClass::IntAlu => 1.0,
            InstClass::IntMul => 3.0,
            InstClass::IntDiv => 12.0,
            InstClass::FpAdd => 3.0,
            InstClass::FpMul => 4.0,
            InstClass::FpDiv => 14.0,
            InstClass::FpSqrt => 14.0,
            InstClass::FpTranscendental => 20.0,
            InstClass::FpConvert => 2.0,
            InstClass::Load => 3.0,
            InstClass::Store => 1.0,
            InstClass::Call => 4.0,
            InstClass::Intrinsic => 0.0, // charged by the runtime model
        }
    }

    /// Cost of a straight-line instruction sequence.
    pub fn seq_cost<'a>(&self, insts: impl IntoIterator<Item = &'a Inst>) -> f64 {
        insts.into_iter().map(|i| self.inst_cost(i)).sum()
    }

    /// One-iteration cost of a function body, counting nested loops at
    /// `trip` iterations each (recursively via the supplied per-loop trip
    /// counts).
    pub fn loop_body_cost(
        &self,
        f: &rskip_ir::Function,
        forest: &crate::LoopForest,
        loop_idx: usize,
    ) -> f64 {
        let lp = &forest.loops()[loop_idx];
        // Blocks directly in this loop (not in any child).
        let child_blocks: std::collections::BTreeSet<_> = forest
            .children(loop_idx)
            .iter()
            .flat_map(|&c| forest.loops()[c].blocks.iter().copied())
            .collect();
        let mut cost = 0.0;
        for &b in &lp.blocks {
            if child_blocks.contains(&b) {
                continue;
            }
            cost += self.seq_cost(&f.block(b).insts);
            cost += 1.0; // terminator
        }
        for &c in forest.children(loop_idx) {
            let trips = forest.loops()[c].trip_count.unwrap_or(self.default_trip) as f64;
            cost += trips * self.loop_body_cost(f, forest, c);
        }
        cost
    }

    /// Whole-function static cost, one pass over all blocks (no loop
    /// weighting). Used for the call-pattern threshold: "the user function
    /// call that has the number of instructions above threshold" (paper §4).
    pub fn function_cost(&self, f: &rskip_ir::Function) -> f64 {
        f.blocks.iter().map(|b| self.seq_cost(&b.insts) + 1.0).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rskip_ir::{ModuleBuilder, Operand, Reg};

    #[test]
    fn classifies_instructions() {
        let mul = Inst::Bin {
            ty: Ty::F64,
            op: BinOp::Mul,
            dst: Reg(0),
            lhs: Operand::imm_f(1.0),
            rhs: Operand::imm_f(2.0),
        };
        assert_eq!(InstClass::of(&mul), InstClass::FpMul);
        let exp = Inst::Un {
            ty: Ty::F64,
            op: UnOp::Exp,
            dst: Reg(0),
            src: Operand::imm_f(1.0),
        };
        assert_eq!(InstClass::of(&exp), InstClass::FpTranscendental);
        let ld = Inst::Load {
            ty: Ty::I64,
            dst: Reg(0),
            addr: Operand::imm_i(0),
        };
        assert_eq!(InstClass::of(&ld), InstClass::Load);
    }

    #[test]
    fn transcendental_costs_dominate_alu() {
        let m = CostModel::new();
        assert!(m.class_cost(InstClass::FpTranscendental) > 10.0 * m.class_cost(InstClass::IntAlu));
    }

    #[test]
    fn nested_loop_cost_multiplies_by_trip() {
        use rskip_ir::{CmpOp, Ty};
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("f", vec![], None);
        let entry = f.entry_block();
        let oh = f.new_block("oh");
        let ob = f.new_block("ob");
        let ih = f.new_block("ih");
        let ib = f.new_block("ib");
        let ol = f.new_block("ol");
        let exit = f.new_block("exit");
        let i = f.def_reg(Ty::I64, "i");
        let k = f.def_reg(Ty::I64, "k");
        let acc = f.def_reg(Ty::F64, "acc");
        f.switch_to(entry);
        f.mov(i, Operand::imm_i(0));
        f.br(oh);
        f.switch_to(oh);
        let c = f.cmp(CmpOp::Lt, Ty::I64, Operand::reg(i), Operand::imm_i(8));
        f.cond_br(Operand::reg(c), ob, exit);
        f.switch_to(ob);
        f.mov(k, Operand::imm_i(0));
        f.mov(acc, Operand::imm_f(0.0));
        f.br(ih);
        f.switch_to(ih);
        let c2 = f.cmp(CmpOp::Lt, Ty::I64, Operand::reg(k), Operand::imm_i(100));
        f.cond_br(Operand::reg(c2), ib, ol);
        f.switch_to(ib);
        f.bin_into(
            acc,
            BinOp::Mul,
            Ty::F64,
            Operand::reg(acc),
            Operand::imm_f(1.01),
        );
        f.bin_into(k, BinOp::Add, Ty::I64, Operand::reg(k), Operand::imm_i(1));
        f.br(ih);
        f.switch_to(ol);
        f.bin_into(i, BinOp::Add, Ty::I64, Operand::reg(i), Operand::imm_i(1));
        f.br(oh);
        f.switch_to(exit);
        f.ret(None);
        f.finish();
        let m = mb.finish();
        let func = &m.functions[0];
        let cfg = crate::Cfg::new(func);
        let dom = crate::DomTree::new(func, &cfg);
        let forest = crate::LoopForest::new(func, &cfg, &dom);
        let model = CostModel::new();
        let outer_idx = forest.loops().iter().position(|l| l.depth == 0).unwrap();
        let cost = model.loop_body_cost(func, &forest, outer_idx);
        // Inner loop runs 100 times with an FpMul (4.0) inside; the outer
        // body alone is a handful of units. The weighted cost must clearly
        // reflect the ×100 factor.
        assert!(cost > 400.0, "cost = {cost}");
        assert!(cost < 2000.0, "cost = {cost}");
    }
}
