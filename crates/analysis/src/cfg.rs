//! Control-flow graph utilities.

use rskip_ir::{BlockId, Function};

/// Predecessor/successor maps and traversal orders for one function's CFG.
///
/// # Example
///
/// ```
/// use rskip_ir::{ModuleBuilder, Operand, Ty};
/// use rskip_analysis::Cfg;
///
/// let mut mb = ModuleBuilder::new("m");
/// let mut f = mb.function("f", vec![], None);
/// let entry = f.entry_block();
/// let exit = f.new_block("exit");
/// f.switch_to(entry);
/// f.br(exit);
/// f.switch_to(exit);
/// f.ret(None);
/// f.finish();
/// let m = mb.finish();
/// let cfg = Cfg::new(&m.functions[0]);
/// assert_eq!(cfg.succs(entry), &[exit]);
/// assert_eq!(cfg.preds(exit), &[entry]);
/// ```
#[derive(Clone, Debug)]
pub struct Cfg {
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
    rpo: Vec<BlockId>,
    rpo_index: Vec<Option<usize>>,
}

impl Cfg {
    /// Builds the CFG of `f`.
    pub fn new(f: &Function) -> Self {
        let n = f.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (id, block) in f.iter_blocks() {
            for s in block.term.successors() {
                succs[id.index()].push(s);
                preds[s.index()].push(id);
            }
        }

        // Postorder DFS from the entry.
        let mut visited = vec![false; n];
        let mut postorder = Vec::with_capacity(n);
        let mut stack: Vec<(BlockId, usize)> = vec![(BlockId(0), 0)];
        if n > 0 {
            visited[0] = true;
        }
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if *next < succs[b.index()].len() {
                let s = succs[b.index()][*next];
                *next += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                postorder.push(b);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = postorder.into_iter().rev().collect();
        let mut rpo_index = vec![None; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = Some(i);
        }

        Cfg {
            succs,
            preds,
            rpo,
            rpo_index,
        }
    }

    /// Successor blocks of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.index()]
    }

    /// Predecessor blocks of `b`.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.index()]
    }

    /// Reverse postorder over reachable blocks (entry first).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in reverse postorder, or `None` if unreachable.
    pub fn rpo_index(&self, b: BlockId) -> Option<usize> {
        self.rpo_index[b.index()]
    }

    /// True if `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.index()].is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rskip_ir::{CmpOp, ModuleBuilder, Operand, Ty};

    /// entry -> header; header -> body | exit; body -> header.
    fn loop_fn() -> rskip_ir::Module {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("f", vec![], None);
        let entry = f.entry_block();
        let header = f.new_block("header");
        let body = f.new_block("body");
        let exit = f.new_block("exit");
        let i = f.def_reg(Ty::I64, "i");
        f.switch_to(entry);
        f.mov(i, Operand::imm_i(0));
        f.br(header);
        f.switch_to(header);
        let c = f.cmp(CmpOp::Lt, Ty::I64, Operand::reg(i), Operand::imm_i(4));
        f.cond_br(Operand::reg(c), body, exit);
        f.switch_to(body);
        f.bin_into(
            i,
            rskip_ir::BinOp::Add,
            Ty::I64,
            Operand::reg(i),
            Operand::imm_i(1),
        );
        f.br(header);
        f.switch_to(exit);
        f.ret(None);
        f.finish();
        mb.finish()
    }

    #[test]
    fn loop_cfg_edges() {
        let m = loop_fn();
        let cfg = Cfg::new(&m.functions[0]);
        assert_eq!(cfg.succs(BlockId(0)), &[BlockId(1)]);
        assert_eq!(cfg.succs(BlockId(1)), &[BlockId(2), BlockId(3)]);
        assert_eq!(cfg.succs(BlockId(2)), &[BlockId(1)]);
        assert!(cfg.succs(BlockId(3)).is_empty());
        assert_eq!(cfg.preds(BlockId(1)), &[BlockId(0), BlockId(2)]);
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let m = loop_fn();
        let cfg = Cfg::new(&m.functions[0]);
        assert_eq!(cfg.rpo()[0], BlockId(0));
        assert_eq!(cfg.rpo().len(), 4);
        // Header precedes body and exit in RPO.
        assert!(cfg.rpo_index(BlockId(1)).unwrap() < cfg.rpo_index(BlockId(2)).unwrap());
    }

    #[test]
    fn unreachable_blocks_detected() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("f", vec![], None);
        let dead = f.new_block("dead");
        f.ret(None);
        f.switch_to(dead);
        f.ret(None);
        f.finish();
        let m = mb.finish();
        let cfg = Cfg::new(&m.functions[0]);
        assert!(cfg.is_reachable(BlockId(0)));
        assert!(!cfg.is_reachable(BlockId(1)));
    }
}
