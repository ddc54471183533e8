//! Injection-section partitioning — the structural half of `rskip-vuln`.
//!
//! FastFlip-style compositional injection analysis (PAPERS.md, arXiv
//! 2403.13989) needs the program cut into *sections*: units small enough
//! that per-section error profiles are cheap to re-measure, and aligned
//! with the protection scheme's own boundaries so a section's profile is
//! meaningful in isolation. This module partitions every function's
//! blocks into sections whose leaders are
//!
//! * the function entry,
//! * every block that talks to the protection runtime
//!   (`region_enter` / `region_exit` / `detect` intrinsic calls — the
//!   region and check boundaries the paper's scheme is built around),
//! * every natural-loop header (so loop bodies profile separately from
//!   straight-line prologue/epilogue code), and
//! * every unreachable block (grouped into one trailing section so the
//!   partition still covers the whole function).
//!
//! Each remaining reachable block joins the section of its nearest
//! dominating leader — walking the idom chain guarantees a section is a
//! dominator-connected region, and the entry being a leader guarantees
//! the walk terminates.
//!
//! Every section carries an FNV-1a content hash over its blocks'
//! instructions and terminators. The hash is the incremental-reinjection
//! key: an edit invalidates exactly the sections whose rendered content
//! changed (block *renames* do not change it; inserting or removing
//! whole blocks shifts `BlockId`s and therefore conservatively
//! invalidates every section that branches to a shifted block).

use std::collections::BTreeMap;

use rskip_core::digest::Fnv1a64;
use rskip_ir::{BlockId, Function, Inst, Intrinsic, Module};

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::loops::LoopForest;

/// Why a block leads a section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SectionKind {
    /// The function entry block.
    Entry,
    /// The leader contains a region/check intrinsic
    /// (`region_enter`, `region_exit`, `detect`).
    Region,
    /// The leader is a natural-loop header.
    LoopHeader,
    /// The section collects the function's unreachable blocks.
    Unreachable,
}

impl SectionKind {
    /// Short display label for section tables.
    pub fn label(self) -> &'static str {
        match self {
            SectionKind::Entry => "entry",
            SectionKind::Region => "region",
            SectionKind::LoopHeader => "loop",
            SectionKind::Unreachable => "unreachable",
        }
    }
}

/// One injection section: a dominator-connected group of blocks of one
/// function, led by a region/check/loop boundary.
#[derive(Clone, Debug)]
pub struct Section {
    /// Index of this section in [`SectionMap::sections`] — the stable
    /// per-module section identifier reports and caches use.
    pub id: usize,
    /// Index of the owning function in `Module::functions`.
    pub func: usize,
    /// Name of the owning function (for display and cache keys).
    pub func_name: String,
    /// Why the leader starts a section.
    pub kind: SectionKind,
    /// The leader block.
    pub leader: BlockId,
    /// All member blocks, sorted by block index (leader included).
    pub blocks: Vec<BlockId>,
    /// FNV-1a hash of the member blocks' rendered instructions and
    /// terminators — the incremental-reinjection cache key.
    pub hash: u64,
}

/// The section partition of a whole module.
#[derive(Clone, Debug)]
pub struct SectionMap {
    sections: Vec<Section>,
    /// `func index -> block index -> section id`.
    assignment: Vec<Vec<usize>>,
    by_name: BTreeMap<String, usize>,
}

/// True if `inst` is a region/check boundary a section must break at.
fn is_boundary_inst(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::IntrinsicCall {
            intr: Intrinsic::RegionEnter | Intrinsic::RegionExit | Intrinsic::Detect,
            ..
        }
    )
}

/// Folds one block's content into `h`. The rendered form is the IR
/// `Debug` representation, which covers operands, types, immediates and
/// branch targets but not the block's display name.
fn hash_block(h: &mut Fnv1a64, f: &Function, b: BlockId) {
    h.update(&(b.index() as u64).to_le_bytes());
    let block = &f.blocks[b.index()];
    for inst in &block.insts {
        h.update(format!("{inst:?}").as_bytes());
        h.update(b";");
    }
    h.update(format!("{:?}", block.term).as_bytes());
    h.update(b"|");
}

impl SectionMap {
    /// Partitions every function of `m` into injection sections.
    pub fn build(m: &Module) -> SectionMap {
        let mut sections = Vec::new();
        let mut assignment = Vec::with_capacity(m.functions.len());
        let mut by_name = BTreeMap::new();
        for (fi, f) in m.functions.iter().enumerate() {
            by_name.insert(f.name.clone(), fi);
            assignment.push(partition_function(fi, f, &mut sections));
        }
        SectionMap {
            sections,
            assignment,
            by_name,
        }
    }

    /// All sections, in (function, leader) order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// The section owning block `b` of function index `func`.
    pub fn section_of(&self, func: usize, b: BlockId) -> &Section {
        &self.sections[self.assignment[func][b.index()]]
    }

    /// The section owning block `b` of the function named `func`, if the
    /// function exists.
    pub fn section_of_named(&self, func: &str, b: BlockId) -> Option<&Section> {
        let fi = *self.by_name.get(func)?;
        Some(self.section_of(fi, b))
    }
}

/// Partitions one function; returns the per-block section assignment.
fn partition_function(fi: usize, f: &Function, sections: &mut Vec<Section>) -> Vec<usize> {
    let n = f.blocks.len();
    let cfg = Cfg::new(f);
    let dom = DomTree::new(f, &cfg);
    let loops = LoopForest::new(f, &cfg, &dom);

    // Leader discovery, strongest reason wins: Entry > Region > LoopHeader.
    let mut leader_kind: Vec<Option<SectionKind>> = vec![None; n];
    for l in loops.loops() {
        leader_kind[l.header.index()] = Some(SectionKind::LoopHeader);
    }
    for (id, block) in f.iter_blocks() {
        if cfg.is_reachable(id) && block.insts.iter().any(is_boundary_inst) {
            leader_kind[id.index()] = Some(SectionKind::Region);
        }
    }
    if n > 0 {
        leader_kind[0] = Some(SectionKind::Entry);
    }

    // One section per reachable leader, in block order; one shared
    // trailing section for unreachable blocks, if any exist.
    let mut section_of_leader: Vec<Option<usize>> = vec![None; n];
    let first = sections.len();
    for b in 0..n {
        let id = BlockId(b as u32);
        if !cfg.is_reachable(id) {
            continue;
        }
        if let Some(kind) = leader_kind[b] {
            section_of_leader[b] = Some(sections.len());
            sections.push(Section {
                id: sections.len(),
                func: fi,
                func_name: f.name.clone(),
                kind,
                leader: id,
                blocks: Vec::new(),
                hash: 0,
            });
        }
    }
    let mut unreachable_section: Option<usize> = None;

    // Assign every block: reachable blocks walk the idom chain to the
    // nearest dominating leader (the entry leader terminates the walk);
    // unreachable blocks pool into the trailing section.
    let mut assignment = vec![usize::MAX; n];
    for (b, slot) in assignment.iter_mut().enumerate() {
        let id = BlockId(b as u32);
        if !cfg.is_reachable(id) {
            *slot = *unreachable_section.get_or_insert_with(|| {
                sections.push(Section {
                    id: sections.len(),
                    func: fi,
                    func_name: f.name.clone(),
                    kind: SectionKind::Unreachable,
                    leader: id,
                    blocks: Vec::new(),
                    hash: 0,
                });
                sections.len() - 1
            });
            continue;
        }
        let mut cur = id;
        loop {
            if let Some(s) = section_of_leader[cur.index()] {
                *slot = s;
                break;
            }
            cur = dom
                .idom(cur)
                .expect("reachable non-entry block must have an idom");
        }
    }

    for (b, &s) in assignment.iter().enumerate() {
        sections[s].blocks.push(BlockId(b as u32));
    }
    for s in &mut sections[first..] {
        let mut h = Fnv1a64::new();
        h.update(f.name.as_bytes());
        for &b in &s.blocks {
            hash_block(&mut h, f, b);
        }
        s.hash = h.finish();
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use rskip_ir::{BinOp, CmpOp, ModuleBuilder, Operand, Ty};

    /// entry -> header; header -> body | exit; body -> header.
    fn loop_module() -> rskip_ir::Module {
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
        mb.finish()
    }

    #[test]
    fn loop_header_starts_its_own_section() {
        let m = loop_module();
        let map = SectionMap::build(&m);
        // entry section + loop section (header leads; body joins it via
        // idom; exit's idom chain also reaches the header first).
        assert_eq!(map.sections().len(), 2);
        let entry = map.section_of(0, BlockId(0));
        assert_eq!(entry.kind, SectionKind::Entry);
        assert_eq!(entry.blocks, vec![BlockId(0)]);
        let lp = map.section_of(0, BlockId(2));
        assert_eq!(lp.kind, SectionKind::LoopHeader);
        assert_eq!(lp.leader, BlockId(1));
        assert_eq!(lp.blocks, vec![BlockId(1), BlockId(2), BlockId(3)]);
        assert_eq!(map.section_of_named("f", BlockId(3)).unwrap().id, lp.id);
    }

    #[test]
    fn hash_tracks_content_not_names() {
        let a = loop_module();
        let mut b = loop_module();
        let ha: Vec<u64> = SectionMap::build(&a)
            .sections()
            .iter()
            .map(|s| s.hash)
            .collect();
        // Renaming a block does not change any hash.
        b.functions[0].blocks[2].name = "renamed".into();
        let hb: Vec<u64> = SectionMap::build(&b)
            .sections()
            .iter()
            .map(|s| s.hash)
            .collect();
        assert_eq!(ha, hb);
        // Editing one section's instructions changes that hash only.
        let dup = b.functions[0].blocks[2].insts[0].clone();
        b.functions[0].blocks[2].insts.push(dup);
        let hc: Vec<u64> = SectionMap::build(&b)
            .sections()
            .iter()
            .map(|s| s.hash)
            .collect();
        assert_eq!(ha[0], hc[0]);
        assert_ne!(ha[1], hc[1]);
    }

    #[test]
    fn unreachable_blocks_pool_into_one_section() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("f", vec![], None);
        let dead = f.new_block("dead");
        let dead2 = f.new_block("dead2");
        f.ret(None);
        f.switch_to(dead);
        f.ret(None);
        f.switch_to(dead2);
        f.ret(None);
        f.finish();
        let m = mb.finish();
        let map = SectionMap::build(&m);
        assert_eq!(map.sections().len(), 2);
        let u = map.section_of(0, BlockId(1));
        assert_eq!(u.kind, SectionKind::Unreachable);
        assert_eq!(u.blocks, vec![BlockId(1), BlockId(2)]);
        assert_eq!(map.section_of(0, BlockId(2)).id, u.id);
    }
}
