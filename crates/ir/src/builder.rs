//! Construction API: [`ModuleBuilder`] and [`FunctionBuilder`].

use crate::function::{BlockId, Function, LoopHint};
use crate::inst::{BinOp, CmpOp, Inst, Intrinsic, Terminator, UnOp};
use crate::module::{Global, GlobalId, Module, RegionId};
use crate::types::{Operand, Reg, Ty, Value};

/// Builds a [`Module`] incrementally.
///
/// # Example
///
/// ```
/// use rskip_ir::{ModuleBuilder, Ty, Operand};
///
/// let mut mb = ModuleBuilder::new("m");
/// let g = mb.global_zeroed("buf", Ty::F64, 4);
/// let mut f = mb.function("main", vec![], Some(Ty::I64));
/// let entry = f.entry_block();
/// f.switch_to(entry);
/// f.store(Ty::F64, Operand::global(g), Operand::imm_f(1.5));
/// f.ret(Some(Operand::imm_i(0)));
/// f.finish();
/// let module = mb.finish();
/// assert_eq!(module.globals.len(), 1);
/// ```
#[derive(Debug)]
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    /// Creates a builder for an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        ModuleBuilder {
            module: Module::new(name),
        }
    }

    /// Adds a zero-initialized global array.
    pub fn global_zeroed(&mut self, name: impl Into<String>, ty: Ty, len: usize) -> GlobalId {
        self.module.add_global(Global::zeroed(name, ty, len))
    }

    /// Adds a global array with an explicit initializer.
    ///
    /// # Panics
    ///
    /// Panics if any initializer value has a different type than `ty`.
    pub fn global_init(&mut self, name: impl Into<String>, ty: Ty, init: Vec<Value>) -> GlobalId {
        assert!(
            init.iter().all(|v| v.ty() == ty),
            "global initializer type mismatch"
        );
        let len = init.len();
        self.module.add_global(Global {
            name: name.into(),
            ty,
            len,
            init: Some(init),
        })
    }

    /// Starts building a function. The returned builder borrows this module
    /// builder; call [`FunctionBuilder::finish`] to commit the function.
    pub fn function(
        &mut self,
        name: impl Into<String>,
        params: Vec<Ty>,
        ret: Option<Ty>,
    ) -> FunctionBuilder<'_> {
        FunctionBuilder::new(self, Function::new(name, params, ret))
    }

    /// Allocates a protection-region id (used by tests; the RSkip transform
    /// normally allocates regions itself).
    pub fn new_region(&mut self) -> RegionId {
        self.module.new_region()
    }

    /// Finishes and returns the module.
    pub fn finish(self) -> Module {
        self.module
    }
}

/// Builds one [`Function`] inside a [`ModuleBuilder`].
///
/// The builder keeps a *current block*; instruction-emitting methods append
/// to it. Every block must receive exactly one terminator before
/// [`finish`](Self::finish) is called.
#[derive(Debug)]
pub struct FunctionBuilder<'a> {
    mb: &'a mut ModuleBuilder,
    func: Function,
    cur: BlockId,
    terminated: Vec<bool>,
}

impl<'a> FunctionBuilder<'a> {
    fn new(mb: &'a mut ModuleBuilder, func: Function) -> Self {
        FunctionBuilder {
            mb,
            func,
            cur: BlockId(0),
            terminated: vec![false],
        }
    }

    /// The entry block id.
    pub fn entry_block(&self) -> BlockId {
        self.func.entry()
    }

    /// Appends a new empty block.
    pub fn new_block(&mut self, name: impl Into<String>) -> BlockId {
        self.terminated.push(false);
        self.func.add_block(name)
    }

    /// Makes `block` the current block for subsequent instructions.
    ///
    /// # Panics
    ///
    /// Panics if the block does not exist.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(block.index() < self.func.blocks.len(), "no such block");
        self.cur = block;
    }

    /// The register holding parameter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn param(&self, i: usize) -> Reg {
        assert!(i < self.func.params.len(), "parameter index out of range");
        Reg(i as u32)
    }

    /// Allocates a fresh named register (not yet defined by any
    /// instruction).
    pub fn def_reg(&mut self, ty: Ty, name: impl Into<String>) -> Reg {
        self.func.new_named_reg(ty, name)
    }

    /// The type of a register.
    pub fn reg_ty(&self, r: Reg) -> Ty {
        self.func.reg_ty(r)
    }

    fn push(&mut self, inst: Inst) {
        assert!(
            !self.terminated[self.cur.index()],
            "appending to terminated block {}",
            self.func.block(self.cur).name
        );
        self.func.block_mut(self.cur).insts.push(inst);
    }

    fn set_term(&mut self, term: Terminator) {
        assert!(
            !self.terminated[self.cur.index()],
            "block {} already terminated",
            self.func.block(self.cur).name
        );
        self.func.block_mut(self.cur).term = term;
        self.terminated[self.cur.index()] = true;
    }

    /// `dst = src`.
    pub fn mov(&mut self, dst: Reg, src: Operand) {
        let ty = self.func.reg_ty(dst);
        self.push(Inst::Mov { ty, dst, src });
    }

    /// Materializes `src` into a fresh register of type `ty`.
    pub fn mov_new(&mut self, ty: Ty, src: Operand) -> Reg {
        let dst = self.func.new_reg(ty);
        self.push(Inst::Mov { ty, dst, src });
        dst
    }

    /// `fresh = op(lhs, rhs)`; returns the fresh destination.
    pub fn bin(&mut self, op: BinOp, ty: Ty, lhs: Operand, rhs: Operand) -> Reg {
        let dst = self.func.new_reg(ty);
        self.push(Inst::Bin {
            ty,
            op,
            dst,
            lhs,
            rhs,
        });
        dst
    }

    /// `dst = op(lhs, rhs)` into an existing register (loop updates).
    pub fn bin_into(&mut self, dst: Reg, op: BinOp, ty: Ty, lhs: Operand, rhs: Operand) {
        self.push(Inst::Bin {
            ty,
            op,
            dst,
            lhs,
            rhs,
        });
    }

    /// `fresh = op(src)`.
    pub fn un(&mut self, op: UnOp, ty: Ty, src: Operand) -> Reg {
        let dst = self.func.new_reg(ty);
        self.push(Inst::Un { ty, op, dst, src });
        dst
    }

    /// `dst = op(src)` into an existing register.
    pub fn un_into(&mut self, dst: Reg, op: UnOp, ty: Ty, src: Operand) {
        self.push(Inst::Un { ty, op, dst, src });
    }

    /// `fresh = (lhs op rhs)`; destination is `i64`.
    pub fn cmp(&mut self, op: CmpOp, ty: Ty, lhs: Operand, rhs: Operand) -> Reg {
        let dst = self.func.new_reg(Ty::I64);
        self.push(Inst::Cmp {
            ty,
            op,
            dst,
            lhs,
            rhs,
        });
        dst
    }

    /// `fresh = cond ? on_true : on_false`.
    pub fn select(&mut self, ty: Ty, cond: Operand, on_true: Operand, on_false: Operand) -> Reg {
        let dst = self.func.new_reg(ty);
        self.push(Inst::Select {
            ty,
            dst,
            cond,
            on_true,
            on_false,
        });
        dst
    }

    /// `fresh = memory[addr]`.
    pub fn load(&mut self, ty: Ty, addr: Operand) -> Reg {
        let dst = self.func.new_reg(ty);
        self.push(Inst::Load { ty, dst, addr });
        dst
    }

    /// `dst = memory[addr]` into an existing register.
    pub fn load_into(&mut self, dst: Reg, ty: Ty, addr: Operand) {
        self.push(Inst::Load { ty, dst, addr });
    }

    /// `memory[addr] = value`.
    pub fn store(&mut self, ty: Ty, addr: Operand, value: Operand) {
        self.push(Inst::Store { ty, addr, value });
    }

    /// Calls `callee(args...)`; when `ret_ty` is given a fresh destination
    /// register is allocated and returned. The verifier checks the call
    /// against the callee's actual signature once the module is complete.
    pub fn call(
        &mut self,
        callee: impl Into<String>,
        args: Vec<Operand>,
        ret_ty: Option<Ty>,
    ) -> Option<Reg> {
        let dst = ret_ty.map(|ty| self.func.new_reg(ty));
        self.push(Inst::Call {
            dst,
            callee: callee.into(),
            args,
        });
        dst
    }

    /// Emits an intrinsic call; value-producing intrinsics get a fresh
    /// destination register.
    pub fn intrinsic(&mut self, intr: Intrinsic, args: Vec<Operand>) -> Option<Reg> {
        let dst = intr.result_ty().map(|ty| self.func.new_reg(ty));
        self.push(Inst::IntrinsicCall { dst, intr, args });
        dst
    }

    /// Terminates the current block with an unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.set_term(Terminator::Br(target));
    }

    /// Terminates the current block with a conditional branch.
    pub fn cond_br(&mut self, cond: Operand, on_true: BlockId, on_false: BlockId) {
        self.set_term(Terminator::CondBr(cond, on_true, on_false));
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<Operand>) {
        self.set_term(Terminator::Ret(value));
    }

    /// Attaches a loop hint (the paper's pragma mechanism) to a header
    /// block.
    pub fn hint(&mut self, header: BlockId, no_alias: bool, acceptable_range: Option<f64>) {
        self.func.loop_hints.push(LoopHint {
            header,
            no_alias,
            acceptable_range,
        });
    }

    /// Marks the function as exempt from the protection passes.
    pub fn set_unprotected(&mut self) {
        self.func.attrs.protect = false;
    }

    /// Commits the function to the module.
    ///
    /// # Panics
    ///
    /// Panics if any block was never terminated — that is a builder usage
    /// bug, not a recoverable condition.
    pub fn finish(self) -> usize {
        for (i, done) in self.terminated.iter().enumerate() {
            assert!(
                done,
                "block {} of function {} lacks a terminator",
                self.func.blocks[i].name, self.func.name
            );
        }
        self.mb.module.add_function(self.func)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_simple_counted_loop() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global_zeroed("out", Ty::I64, 10);
        let mut f = mb.function("main", vec![], Some(Ty::I64));
        let entry = f.entry_block();
        let body = f.new_block("body");
        let exit = f.new_block("exit");

        let i = f.def_reg(Ty::I64, "i");
        f.switch_to(entry);
        f.mov(i, Operand::imm_i(0));
        f.br(body);

        f.switch_to(body);
        let addr = f.bin(BinOp::Add, Ty::I64, Operand::global(g), Operand::reg(i));
        f.store(Ty::I64, Operand::reg(addr), Operand::reg(i));
        f.bin_into(i, BinOp::Add, Ty::I64, Operand::reg(i), Operand::imm_i(1));
        let c = f.cmp(CmpOp::Lt, Ty::I64, Operand::reg(i), Operand::imm_i(10));
        f.cond_br(Operand::reg(c), body, exit);

        f.switch_to(exit);
        f.ret(Some(Operand::imm_i(0)));
        f.finish();

        let m = mb.finish();
        assert_eq!(m.functions.len(), 1);
        assert_eq!(m.functions[0].blocks.len(), 3);
        crate::Verifier::new(&m).verify().unwrap();
    }

    #[test]
    #[should_panic(expected = "lacks a terminator")]
    fn unterminated_block_panics_on_finish() {
        let mut mb = ModuleBuilder::new("m");
        let f = mb.function("f", vec![], None);
        f.finish();
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_termination_panics() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("f", vec![], None);
        f.ret(None);
        f.ret(None);
    }

    #[test]
    #[should_panic(expected = "global initializer type mismatch")]
    fn global_init_type_mismatch_panics() {
        let mut mb = ModuleBuilder::new("m");
        mb.global_init("g", Ty::F64, vec![Value::I(1)]);
    }

    #[test]
    fn call_and_intrinsic_results() {
        let mut mb = ModuleBuilder::new("m");
        let mut callee = mb.function("callee", vec![Ty::I64], Some(Ty::I64));
        let p = callee.param(0);
        callee.ret(Some(Operand::reg(p)));
        callee.finish();

        let mut f = mb.function("main", vec![], None);
        let r = f.call("callee", vec![Operand::imm_i(1)], Some(Ty::I64));
        assert!(r.is_some());
        let v = f.intrinsic(Intrinsic::SelectVersion, vec![Operand::imm_i(0)]);
        assert!(v.is_some());
        let none = f.intrinsic(Intrinsic::RegionEnter, vec![Operand::imm_i(0)]);
        assert!(none.is_none());
        f.ret(None);
        f.finish();
    }
}
