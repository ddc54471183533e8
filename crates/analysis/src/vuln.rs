//! Static fault-liveness and masking analysis — the pruning half of
//! `rskip-vuln`.
//!
//! A fault-injection campaign spends most of its runs discovering that a
//! fault was *benign*: the struck value was dead, overwritten before any
//! read, or logically masked before it could reach an observable output.
//! This module proves those outcomes statically, so campaigns and the
//! exhaustive enumerator can skip the runs entirely while still counting
//! them honestly (`CampaignStats::pruned`, `Enumeration::pruned`).
//!
//! The unit of judgement matches the dynamic fault machinery exactly: an
//! instruction *boundary* `(block, ip)` — the innermost frame is about
//! to execute instruction `ip` (`ip == insts.len()` ⇒ the terminator) —
//! plus the fault's static coordinates. Three judgements are offered,
//! one per `rskip_exec::FaultModel` shape:
//!
//! * **Bit flip** (`SingleBitSeu`): benign if the register is not live
//!   at the boundary (no path reads it before it is overwritten — the
//!   flipped value can never be observed), or if the flipped bit is
//!   discarded by every read (see *masking* below).
//! * **Burst** (`MultiBitBurst`): benign iff every bit of the window is
//!   individually benign.
//! * **Instruction skip**: benign if the next instruction is a pure
//!   value producer (`Mov`/`Bin`/`Un`/`Cmp`/`Select`/`Load`) whose
//!   destination is dead *after* the instruction — then neither the
//!   stale value the skip leaves behind nor the computed value it
//!   suppresses is ever read. Stores, calls, intrinsic calls and
//!   terminators are never skip-benign (memory effects, side effects
//!   and control flow respectively).
//!
//! **Masking.** A register is *fully masked above `m`* when its every
//! use in the function is a bitwise `And` with the constant `m` (in
//! either operand position). A flip of a bit outside the union of all
//! such masks produces a value every read maps to the same result, so
//! execution is bit-identical to the clean run. Taking *all* uses in
//! the function — not just uses reachable from the boundary — is a
//! conservative superset, hence sound.
//!
//! Why liveness here is sound for injected faults, not just compiler
//! dead-code reasoning: a register fault strikes one frame's virtual
//! register. The only channels that read a frame register are
//! instruction operands, terminator operands (returns, branch
//! conditions) and intrinsic-call arguments — all of which
//! [`rskip_ir::Inst::for_each_use`] / `Terminator::used_operand` report,
//! and therefore all of which the liveness sets include. The prediction
//! runtime keeps host-side state, but it only observes the frame
//! through those same intrinsic arguments.
//!
//! The cross-validation contract (`crates/exec/tests/vuln_prune.rs`)
//! checks soundness dynamically: every site this module calls benign
//! must classify **Correct** under exhaustive enumeration.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use rskip_ir::{BinOp, BlockId, Function, Inst, Module, Operand, Reg};

use crate::cfg::Cfg;
use crate::liveness::Liveness;

/// Per-function fault-liveness facts.
#[derive(Clone, Debug)]
pub struct FuncVuln {
    /// `live_before[block][ip]` — registers live immediately before the
    /// boundary `(block, ip)`, `ip ∈ 0..=insts.len()` (the last entry is
    /// the before-terminator boundary).
    live_before: Vec<Vec<BTreeSet<Reg>>>,
    /// Per register: bits whose flip is benign *even while the register
    /// is live*, by the masking argument (all-ones for never-read
    /// registers, zero when the masking pattern does not apply).
    benign_mask: Vec<u64>,
    /// `skip_benign[block][ip]` — skipping instruction `ip` of `block`
    /// is statically benign.
    skip_benign: Vec<Vec<bool>>,
}

impl FuncVuln {
    fn analyze(f: &Function) -> FuncVuln {
        let cfg = Cfg::new(f);
        let live = Liveness::new(f, &cfg);

        // Refine block-level liveness to per-boundary sets by a backward
        // walk through each block.
        let mut live_before = Vec::with_capacity(f.blocks.len());
        for (bid, block) in f.iter_blocks() {
            let n = block.insts.len();
            let mut per_ip = vec![BTreeSet::new(); n + 1];
            let mut cur = live.live_out(bid).clone();
            if let Some(Operand::Reg(r)) = block.term.used_operand() {
                cur.insert(r);
            }
            per_ip[n] = cur.clone();
            for ip in (0..n).rev() {
                let inst = &block.insts[ip];
                if let Some(d) = inst.dst() {
                    cur.remove(&d);
                }
                for r in inst.used_regs() {
                    cur.insert(r);
                }
                per_ip[ip] = cur.clone();
            }
            live_before.push(per_ip);
        }

        // Masking: benign_mask[r] = !(union of And masks) if every use
        // of r is a constant-And, else 0. Registers with no uses at all
        // are fully benign (also caught by liveness, but the vacuous
        // masking case keeps the definition uniform).
        let mut all_masked = vec![true; f.regs.len()];
        let mut mask_union = vec![0u64; f.regs.len()];
        let mut note_use = |r: Reg, masked_by: Option<u64>| {
            let i = r.0 as usize;
            match masked_by {
                Some(m) => mask_union[i] |= m,
                None => all_masked[i] = false,
            }
        };
        for (_, block) in f.iter_blocks() {
            for inst in &block.insts {
                let masking = match inst {
                    Inst::Bin {
                        op: BinOp::And,
                        lhs,
                        rhs,
                        ..
                    } => match (lhs, rhs) {
                        (Operand::Reg(r), Operand::ImmI(m))
                        | (Operand::ImmI(m), Operand::Reg(r)) => Some((*r, *m as u64)),
                        _ => None,
                    },
                    _ => None,
                };
                match masking {
                    Some((r, m)) => note_use(r, Some(m)),
                    None => inst.for_each_use(|o| {
                        if let Operand::Reg(r) = o {
                            note_use(r, None);
                        }
                    }),
                }
            }
            if let Some(Operand::Reg(r)) = block.term.used_operand() {
                note_use(r, None);
            }
        }
        let benign_mask: Vec<u64> = all_masked
            .iter()
            .zip(&mask_union)
            .map(|(&ok, &m)| if ok { !m } else { 0 })
            .collect();

        // Skip-benignity: pure value producers with a dead destination.
        let mut skip_benign = Vec::with_capacity(f.blocks.len());
        for (bid, block) in f.iter_blocks() {
            let per_ip: Vec<bool> = block
                .insts
                .iter()
                .enumerate()
                .map(|(ip, inst)| {
                    let pure_producer = matches!(
                        inst,
                        Inst::Mov { .. }
                            | Inst::Bin { .. }
                            | Inst::Un { .. }
                            | Inst::Cmp { .. }
                            | Inst::Select { .. }
                            | Inst::Load { .. }
                    );
                    pure_producer
                        && inst
                            .dst()
                            .is_some_and(|d| !live_before[bid.index()][ip + 1].contains(&d))
                })
                .collect();
            skip_benign.push(per_ip);
        }

        FuncVuln {
            live_before,
            benign_mask,
            skip_benign,
        }
    }

    /// Registers live immediately before boundary `(b, ip)`.
    pub fn live_before(&self, b: BlockId, ip: usize) -> &BTreeSet<Reg> {
        &self.live_before[b.index()][ip]
    }

    /// Bits of `reg` whose flip at boundary `(b, ip)` is statically
    /// benign: all 64 when the register is dead there, the masked bits
    /// when the masking argument applies, none otherwise.
    pub fn benign_bits(&self, b: BlockId, ip: usize, reg: Reg) -> u64 {
        if !self.live_before[b.index()][ip].contains(&reg) {
            u64::MAX
        } else {
            self.benign_mask[reg.0 as usize]
        }
    }

    /// Is flipping `bit` of `reg` at boundary `(b, ip)` benign?
    pub fn benign_flip(&self, b: BlockId, ip: usize, reg: Reg, bit: u32) -> bool {
        self.benign_bits(b, ip, reg) & (1u64 << bit.min(63)) != 0
    }

    /// Is a burst over `reg`'s bits `[start, start + width)` at boundary
    /// `(b, ip)` benign? True iff every window bit is benign.
    pub fn benign_burst(&self, b: BlockId, ip: usize, reg: Reg, start: u32, width: u32) -> bool {
        let w = width.clamp(1, 64);
        let s = start.min(64 - w);
        let window = if w == 64 {
            u64::MAX
        } else {
            ((1u64 << w) - 1) << s
        };
        self.benign_bits(b, ip, reg) & window == window
    }

    /// Is skipping the instruction at boundary `(b, ip)` benign?
    /// Terminator boundaries (`ip == insts.len()`) are never benign.
    pub fn benign_skip(&self, b: BlockId, ip: usize) -> bool {
        self.skip_benign[b.index()]
            .get(ip)
            .copied()
            .unwrap_or(false)
    }
}

/// Module-wide fault-liveness analysis: one [`FuncVuln`] per function.
#[derive(Clone, Debug)]
pub struct VulnAnalysis {
    funcs: Vec<FuncVuln>,
    by_name: BTreeMap<String, usize>,
}

impl VulnAnalysis {
    /// Analyzes every function of `m`.
    pub fn analyze(m: &Module) -> VulnAnalysis {
        VulnAnalysis {
            funcs: m.functions.iter().map(FuncVuln::analyze).collect(),
            by_name: m
                .functions
                .iter()
                .enumerate()
                .map(|(i, f)| (f.name.clone(), i))
                .collect(),
        }
    }

    /// Facts for the function at module index `i`.
    pub fn func_at(&self, i: usize) -> &FuncVuln {
        &self.funcs[i]
    }

    /// Facts for the function named `name`, if present.
    pub fn func(&self, name: &str) -> Option<&FuncVuln> {
        self.by_name.get(name).map(|&i| &self.funcs[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rskip_ir::{BinOp, CmpOp, ModuleBuilder, Ty};

    /// entry: dead = 7; x = p0 + 1; masked = x & 0xFF; ret masked-ish.
    fn build() -> (rskip_ir::Module, Reg, Reg, Reg) {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("f", vec![Ty::I64], Some(Ty::I64));
        let entry = f.entry_block();
        f.switch_to(entry);
        let dead = f.mov_new(Ty::I64, Operand::imm_i(7));
        let x = f.bin(
            BinOp::Add,
            Ty::I64,
            Operand::reg(f.param(0)),
            Operand::imm_i(1),
        );
        let masked = f.bin(BinOp::And, Ty::I64, Operand::reg(x), Operand::imm_i(0xFF));
        f.ret(Some(Operand::reg(masked)));
        f.finish();
        (mb.finish(), dead, x, masked)
    }

    #[test]
    fn dead_register_is_fully_benign() {
        let (m, dead, _, _) = build();
        let v = VulnAnalysis::analyze(&m);
        let fv = v.func("f").unwrap();
        // After its own def (boundary ip=1) `dead` is written but dead.
        assert_eq!(fv.benign_bits(BlockId(0), 1, dead), u64::MAX);
        assert!(fv.benign_flip(BlockId(0), 1, dead, 0));
        assert!(fv.benign_burst(BlockId(0), 1, dead, 60, 8));
    }

    #[test]
    fn masked_register_is_benign_above_the_mask() {
        let (m, _, x, masked) = build();
        let v = VulnAnalysis::analyze(&m);
        let fv = v.func("f").unwrap();
        // x is live at boundary 2 (the And reads it) but only through
        // `& 0xFF`: bits 8..64 are benign, bits 0..8 are not.
        assert!(fv.benign_flip(BlockId(0), 2, x, 40));
        assert!(!fv.benign_flip(BlockId(0), 2, x, 3));
        assert!(fv.benign_burst(BlockId(0), 2, x, 16, 4));
        assert!(!fv.benign_burst(BlockId(0), 2, x, 6, 4)); // straddles bit 7|8
                                                           // masked itself flows to ret un-masked: nothing benign while live.
        assert_eq!(fv.benign_bits(BlockId(0), 3, masked), 0);
    }

    #[test]
    fn skip_of_dead_def_is_benign_others_are_not() {
        let (m, _, _, _) = build();
        let v = VulnAnalysis::analyze(&m);
        let fv = v.func("f").unwrap();
        // ip 0 defines `dead`, which nothing reads: skippable.
        assert!(fv.benign_skip(BlockId(0), 0));
        // ip 1 defines x (read by the And): not skippable.
        assert!(!fv.benign_skip(BlockId(0), 1));
        // Terminator boundary: never skippable.
        assert!(!fv.benign_skip(BlockId(0), 3));
    }

    #[test]
    fn loop_carried_register_stays_live() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("f", vec![], Some(Ty::I64));
        let entry = f.entry_block();
        let header = f.new_block("header");
        let body = f.new_block("body");
        let exit = f.new_block("exit");
        let i = f.def_reg(Ty::I64, "i");
        let acc = f.def_reg(Ty::I64, "acc");
        f.switch_to(entry);
        f.mov(i, Operand::imm_i(0));
        f.mov(acc, Operand::imm_i(0));
        f.br(header);
        f.switch_to(header);
        let c = f.cmp(CmpOp::Lt, Ty::I64, Operand::reg(i), Operand::imm_i(4));
        f.cond_br(Operand::reg(c), body, exit);
        f.switch_to(body);
        f.bin_into(acc, BinOp::Add, Ty::I64, Operand::reg(acc), Operand::reg(i));
        f.bin_into(i, BinOp::Add, Ty::I64, Operand::reg(i), Operand::imm_i(1));
        f.br(header);
        f.switch_to(exit);
        f.ret(Some(Operand::reg(acc)));
        f.finish();
        let m = mb.finish();
        let v = VulnAnalysis::analyze(&m);
        let fv = v.func("f").unwrap();
        // acc is live around the whole loop; no bit of it is benign.
        assert_eq!(fv.benign_bits(header, 0, acc), 0);
        assert_eq!(fv.benign_bits(body, 0, acc), 0);
        // i is dead once the exit block is reached.
        assert_eq!(fv.benign_bits(exit, 0, i), u64::MAX);
        // The cmp's condition register is dead after the cond_br consumed
        // it — i.e. at every boundary of the body block.
        assert_eq!(fv.benign_bits(body, 0, c), u64::MAX);
        // But live (and unmasked) between its def and the branch.
        assert_eq!(fv.benign_bits(header, 1, c), 0);
    }
}
