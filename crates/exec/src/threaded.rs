//! Direct-threaded execution tier.
//!
//! The reference interpreter ([`crate::machine`]) dispatches twice per
//! instruction: once on "is the instruction pointer inside the block or
//! at its terminator", then on the [`DInst`] enum. This tier flattens
//! each function into one linear stream of [`TStep`]s — instructions and
//! terminators alike — where every step carries a pre-selected handler
//! `fn` pointer, so the hot loop is
//!
//! ```text
//! (code[pc].run)(&mut ctx, &code[pc])
//! ```
//!
//! with no enum match, no block/ip pair, and block transitions reduced
//! to a `pc` assignment.
//!
//! # Exactness
//!
//! The tier runs only untimed, untraced runs — the campaign engine's
//! trials. [`crate::Machine`] routes every timed run
//! ([`crate::ExecConfig::timing`] set) and every traced census run to the
//! reference loop, so the pipeline timing model has one implementation
//! and cycles and mispredicts agree across tiers by routing. For the
//! runs it does take, the tier is observationally identical to the
//! reference interpreter — byte-identical memory, counters and injection
//! records — which the fault model depends on. **Event fuel** makes that
//! cheap: the reference loop re-evaluates fault-injection due-ness and
//! the step limit at *every* instruction boundary. Both are monotone in
//! counters that advance by at most one per boundary — except
//! intrinsics, whose modeled cost advances them in jumps. The threaded
//! loop therefore computes `next_check`, the earliest boundary at which
//! any armed event could fire, checks events only when
//! `boundary >= next_check`, and forces a recomputation after every
//! intrinsic (the only non-unit advance). Firing boundaries are bit-exact
//! with the reference loop, and the register effect itself is the
//! reference tier's: both call the shared injectors in [`crate::fault`].
//! Probe replays with [`crate::ExactFault`] run threaded and fire at the
//! identical boundary.
//!
//! Instruction-skip faults ride the same machinery: a skip is an armed
//! event, so `next_check` stops the loop at its boundary before it can
//! fire. Firing then advances `pc` by one — exactly the reference
//! tier's fall-through to the next instruction or next block in layout
//! order, because flattening emits blocks in index order — and running
//! off the end of the function's code is the same [`Trap::CodeRunoff`].
//!
//! **Checkpoints** ride it too. A run given region-instruction marks
//! saves a [`Checkpoint`] — memory, the running and suspended frames,
//! counters, prints, region depth, boundary and a copy of the hooks'
//! state ([`RuntimeHooks::save_state`]) — at the first boundary whose
//! `region_retired` reaches each mark, at the top of the boundary
//! before events are evaluated. Marks are fuel like a trigger, so a run
//! that records nothing never leaves the dispatch loop for them. Saving
//! stops once an armed fault has taken effect: until then the run's
//! state, the hooks' included, is the clean run's, boundary for
//! boundary, because execution and the hooks are deterministic. A
//! resumed run restores that state — the hooks' through
//! [`RuntimeHooks::restore_state`], which refuses a state that hooks
//! built differently saved, so a run only resumes where its own hooks
//! would have reached the same state — and sets `next_check = 0`, so it
//! evaluates events first, as the recorded run was about to. A random
//! plan fires at the first in-region boundary with
//! `region_retired >= trigger`, and `region_retired` never decreases,
//! so a checkpoint whose `region_retired` is below the trigger lies
//! before the fault: resuming from it reaches the fault
//! boundary in exactly the state, and with exactly the counters, the
//! run from `main` would.

use std::sync::Arc;

use rskip_ir::{Intrinsic, Module, Operand, Reg, Value};

use crate::counters::Counters;
use crate::decoded::{DFunc, DInst, DTerm, Decoded, DecodedUnit};
use crate::fault::{
    inject_exact, inject_random, record, skip_holds_fire, ArmedFault, FaultEffect, FaultFrames,
    InjectionRecord,
};
use crate::hooks::{HookState, RuntimeHooks};
use crate::machine::{un_op, ExecConfig, RunOutcome, Termination, Trap, MAX_CALL_DEPTH};

/// One per-step handler. Executes the step, updates counters/pc, and says
/// how to continue.
type Handler = fn(&mut Ctx<'_>, &TStep) -> Control;

/// Handler verdict.
enum Control {
    /// Keep going; `pc` was updated by the handler.
    Cont,
    /// Stop; `ctx.termination` is set.
    Halt,
}

const F_HAS_DST: u8 = 1;
const F_RET_VALUE: u8 = 2;

/// One flattened step: the handler pointer plus a flat payload wide
/// enough for every instruction shape.
struct TStep {
    run: Handler,
    flags: u8,
    ty: rskip_ir::Ty,
    uop: rskip_ir::UnOp,
    intr: Intrinsic,
    a: Operand,
    b: Operand,
    c: Operand,
    dst: Reg,
    t1: u32,
    t2: u32,
    t3: u32,
}

impl TStep {
    fn blank(run: Handler) -> TStep {
        TStep {
            run,
            flags: 0,
            ty: rskip_ir::Ty::I64,
            uop: rskip_ir::UnOp::Neg,
            intr: Intrinsic::Print,
            a: Operand::ImmI(0),
            b: Operand::ImmI(0),
            c: Operand::ImmI(0),
            dst: Reg(0),
            t1: 0,
            t2: 0,
            t3: 0,
        }
    }
}

/// One function's flattened code plus cold side tables.
pub(crate) struct TFunc {
    code: Box<[TStep]>,
    /// Call/intrinsic argument lists, referenced by `(t1, t3)` ranges.
    args_pool: Box<[Operand]>,
    /// Unresolved callee names (cold trap path).
    names: Box<[Box<str>]>,
    /// Flat pc → `(block, ip)`; terminators carry `ip == insts.len()`.
    /// Used only on the cold fault-injection path.
    loc: Box<[(u32, u32)]>,
}

/// A call frame of the threaded tier: like the reference frame but with
/// a flat pc instead of a (block, ip) pair.
#[derive(Clone, Default)]
pub(crate) struct TFrame {
    pub(crate) func: u32,
    pub(crate) pc: u32,
    pub(crate) ret_dst: Option<Reg>,
    pub(crate) regs: Vec<Value>,
    pub(crate) written: Vec<bool>,
}

/// Shared execution state threaded through every handler call.
///
/// Deliberately non-generic: hooks are a `dyn` reference so handler fn
/// pointers can live in the shared decoded unit; dynamic dispatch
/// is paid only at intrinsic calls, which the reference tier pays too
/// (they funnel into the same [`RuntimeHooks`] object).
struct Ctx<'a> {
    unit: &'a Arc<DecodedUnit>,
    tfuncs: &'a [TFunc],
    /// The running frame's flattened code — cached so the dispatch loop
    /// avoids re-indexing `tfuncs` every step; call/ret handlers
    /// keep it in sync with `frame.func`.
    code: &'a [TStep],
    dfuncs: &'a [DFunc],
    module: &'a Module,
    global_base: &'a [i64],
    hooks: &'a mut dyn RuntimeHooks,
    mem: &'a mut [Value],
    pool: &'a mut Vec<TFrame>,
    /// The running (innermost) frame, kept out of `stack` so handlers
    /// reach it without a bounds-checked `last_mut`.
    frame: TFrame,
    /// Suspended caller frames, outermost first.
    stack: Vec<TFrame>,
    counters: Counters,
    prints: Vec<Value>,
    scratch: Vec<Value>,
    region_depth: u32,
    /// Instruction boundaries crossed so far (see the reference loop).
    boundary: u64,
    /// Earliest boundary at which an armed event (injection due-ness or
    /// the step limit) must be re-evaluated.
    next_check: u64,
    injection: Option<ArmedFault>,
    injected: Option<InjectionRecord>,
    state_injected: Option<String>,
    termination: Option<Termination>,
    step_limit: u64,
    /// Region-instruction marks still to record a checkpoint at,
    /// ascending; emptied once a fault takes effect.
    marks: &'a [u64],
    recorded: Vec<Checkpoint>,
}

/// A saved copy of a threaded run's state at an instruction boundary,
/// taken before the boundary's events are evaluated: memory, the
/// running frame, the suspended frames, counters, prints, region depth,
/// boundary, and the hooks' own state ([`RuntimeHooks::save_state`]).
/// Only runs whose hooks can be resumed record one, and a resumed run
/// restores the saved hook state into its own hooks, which may refuse
/// it ([`RuntimeHooks::restore_state`]). See
/// [`crate::Machine::run_recording`] and [`crate::Machine::resume`].
pub struct Checkpoint {
    /// The decode the state belongs to; resuming on another is refused.
    unit: Arc<DecodedUnit>,
    mem: Box<[Value]>,
    frame: TFrame,
    stack: Vec<TFrame>,
    counters: Counters,
    prints: Vec<Value>,
    region_depth: u32,
    boundary: u64,
    pub(crate) hooks: HookState,
}

impl Checkpoint {
    /// The counters at the saved boundary: `retired` is the steps a
    /// resumed run skips, `region_retired` orders it against triggers.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }
}

/// Where a threaded run starts.
#[derive(Clone, Copy)]
pub(crate) enum Start<'c> {
    /// A fresh call of function `entry` with `args`.
    Entry { entry: usize, args: &'c [Value] },
    /// The state saved in a checkpoint.
    Resume(&'c Checkpoint),
}

/// Advances one instruction boundary (the per-step bookkeeping the
/// reference loop performs at its top).
#[inline(always)]
fn tick(ctx: &mut Ctx<'_>) {
    ctx.boundary += 1;
    ctx.counters.retired += 1;
    if ctx.region_depth > 0 {
        ctx.counters.region_retired += 1;
    }
}

#[inline(always)]
fn ev(gb: &[i64], f: &TFrame, op: Operand) -> Value {
    match op {
        Operand::Reg(r) => f.regs[r.index()],
        Operand::ImmI(v) => Value::I(v),
        Operand::ImmF(v) => Value::F(v),
        Operand::Global(g) => Value::I(gb[g.index()]),
    }
}

#[inline(always)]
fn wr(f: &mut TFrame, dst: Reg, v: Value) {
    let i = dst.index();
    f.regs[i] = v;
    f.written[i] = true;
}

#[cold]
fn halt(ctx: &mut Ctx<'_>, trap: Trap) -> Control {
    ctx.termination = Some(Termination::Trapped(trap));
    Control::Halt
}

// ---------------------------------------------------------------------
// Single-instruction handlers.
// ---------------------------------------------------------------------

fn h_mov(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    tick(ctx);
    let v = ev(ctx.global_base, &ctx.frame, st.a);
    wr(&mut ctx.frame, st.dst, v);
    ctx.frame.pc += 1;
    Control::Cont
}

macro_rules! bin_handler_i {
    ($name:ident, |$x:ident, $y:ident| $body:expr) => {
        fn $name(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
            tick(ctx);
            let $x = ev(ctx.global_base, &ctx.frame, st.a).as_i();
            let $y = ev(ctx.global_base, &ctx.frame, st.b).as_i();
            let v = Value::I($body);
            wr(&mut ctx.frame, st.dst, v);
            ctx.frame.pc += 1;
            Control::Cont
        }
    };
}

macro_rules! bin_handler_f {
    ($name:ident, |$x:ident, $y:ident| $body:expr) => {
        fn $name(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
            tick(ctx);
            let $x = ev(ctx.global_base, &ctx.frame, st.a).as_f();
            let $y = ev(ctx.global_base, &ctx.frame, st.b).as_f();
            let v = Value::F($body);
            wr(&mut ctx.frame, st.dst, v);
            ctx.frame.pc += 1;
            Control::Cont
        }
    };
}

bin_handler_i!(h_add_i, |x, y| x.wrapping_add(y));
bin_handler_i!(h_sub_i, |x, y| x.wrapping_sub(y));
bin_handler_i!(h_mul_i, |x, y| x.wrapping_mul(y));
bin_handler_i!(h_and_i, |x, y| x & y);
bin_handler_i!(h_or_i, |x, y| x | y);
bin_handler_i!(h_xor_i, |x, y| x ^ y);
bin_handler_i!(h_shl_i, |x, y| x.wrapping_shl((y & 63) as u32));
bin_handler_i!(h_shr_i, |x, y| x.wrapping_shr((y & 63) as u32));
bin_handler_i!(h_min_i, |x, y| x.min(y));
bin_handler_i!(h_max_i, |x, y| x.max(y));
bin_handler_f!(h_add_f, |x, y| x + y);
bin_handler_f!(h_sub_f, |x, y| x - y);
bin_handler_f!(h_mul_f, |x, y| x * y);
bin_handler_f!(h_div_f, |x, y| x / y);
bin_handler_f!(h_rem_f, |x, y| x % y);
bin_handler_f!(h_min_f, |x, y| x.min(y));
bin_handler_f!(h_max_f, |x, y| x.max(y));

fn h_div_i(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    tick(ctx);
    let x = ev(ctx.global_base, &ctx.frame, st.a).as_i();
    let y = ev(ctx.global_base, &ctx.frame, st.b).as_i();
    if y == 0 {
        return halt(ctx, Trap::DivByZero);
    }
    wr(&mut ctx.frame, st.dst, Value::I(x.wrapping_div(y)));
    ctx.frame.pc += 1;
    Control::Cont
}

fn h_rem_i(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    tick(ctx);
    let x = ev(ctx.global_base, &ctx.frame, st.a).as_i();
    let y = ev(ctx.global_base, &ctx.frame, st.b).as_i();
    if y == 0 {
        return halt(ctx, Trap::DivByZero);
    }
    wr(&mut ctx.frame, st.dst, Value::I(x.wrapping_rem(y)));
    ctx.frame.pc += 1;
    Control::Cont
}

macro_rules! cmp_handler {
    ($name:ident, $cast:ident, |$x:ident, $y:ident| $body:expr) => {
        fn $name(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
            tick(ctx);
            let $x = ev(ctx.global_base, &ctx.frame, st.a).$cast();
            let $y = ev(ctx.global_base, &ctx.frame, st.b).$cast();
            let v = Value::I(($body) as i64);
            wr(&mut ctx.frame, st.dst, v);
            ctx.frame.pc += 1;
            Control::Cont
        }
    };
}

cmp_handler!(h_eq_i, as_i, |x, y| x == y);
cmp_handler!(h_ne_i, as_i, |x, y| x != y);
cmp_handler!(h_lt_i, as_i, |x, y| x < y);
cmp_handler!(h_le_i, as_i, |x, y| x <= y);
cmp_handler!(h_gt_i, as_i, |x, y| x > y);
cmp_handler!(h_ge_i, as_i, |x, y| x >= y);
cmp_handler!(h_eq_f, as_f, |x, y| x == y);
cmp_handler!(h_ne_f, as_f, |x, y| x != y);
cmp_handler!(h_lt_f, as_f, |x, y| x < y);
cmp_handler!(h_le_f, as_f, |x, y| x <= y);
cmp_handler!(h_gt_f, as_f, |x, y| x > y);
cmp_handler!(h_ge_f, as_f, |x, y| x >= y);

fn h_un(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    tick(ctx);
    let a = ev(ctx.global_base, &ctx.frame, st.a);
    let v = un_op(st.ty, st.uop, a);
    wr(&mut ctx.frame, st.dst, v);
    ctx.frame.pc += 1;
    Control::Cont
}

fn h_select(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    tick(ctx);
    let c = ev(ctx.global_base, &ctx.frame, st.a).as_i();
    let v = if c != 0 {
        ev(ctx.global_base, &ctx.frame, st.b)
    } else {
        ev(ctx.global_base, &ctx.frame, st.c)
    };
    wr(&mut ctx.frame, st.dst, v);
    ctx.frame.pc += 1;
    Control::Cont
}

fn h_load(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    tick(ctx);
    ctx.counters.loads += 1;
    let addr = ev(ctx.global_base, &ctx.frame, st.a).as_i();
    if addr < 0 || addr as usize >= ctx.mem.len() {
        return halt(ctx, Trap::OutOfBounds { addr });
    }
    let v = ctx.mem[addr as usize];
    wr(&mut ctx.frame, st.dst, v);
    ctx.frame.pc += 1;
    Control::Cont
}

fn h_store(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    tick(ctx);
    ctx.counters.stores += 1;
    let addr = ev(ctx.global_base, &ctx.frame, st.a).as_i();
    let v = ev(ctx.global_base, &ctx.frame, st.b);
    if addr < 0 || addr as usize >= ctx.mem.len() {
        return halt(ctx, Trap::OutOfBounds { addr });
    }
    ctx.mem[addr as usize] = v;
    ctx.frame.pc += 1;
    Control::Cont
}

fn h_call(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    tick(ctx);
    ctx.counters.calls += 1;
    // `stack` holds suspended frames only; +1 counts the running frame so
    // the threshold matches the reference interpreter exactly.
    if ctx.stack.len() + 1 >= MAX_CALL_DEPTH {
        return halt(ctx, Trap::StackOverflow);
    }
    let tfuncs = ctx.tfuncs;
    let args_pool = &tfuncs[ctx.frame.func as usize].args_pool;
    let args = &args_pool[st.t1 as usize..(st.t1 + st.t3) as usize];
    let mut new = acquire(ctx.pool, ctx.dfuncs, st.t2 as usize);
    for (i, &a) in args.iter().enumerate() {
        new.regs[i] = ev(ctx.global_base, &ctx.frame, a);
        new.written[i] = true;
    }
    new.ret_dst = (st.flags & F_HAS_DST != 0).then_some(st.dst);
    ctx.frame.pc += 1;
    ctx.stack.push(std::mem::replace(&mut ctx.frame, new));
    ctx.code = &ctx.tfuncs[st.t2 as usize].code;
    Control::Cont
}

fn h_call_unknown(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    tick(ctx);
    ctx.counters.calls += 1;
    if ctx.stack.len() + 1 >= MAX_CALL_DEPTH {
        return halt(ctx, Trap::StackOverflow);
    }
    let name = ctx.tfuncs[ctx.frame.func as usize].names[st.t1 as usize].to_string();
    halt(ctx, Trap::UnknownFunction(name))
}

fn h_intrinsic(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    tick(ctx);
    let tfuncs = ctx.tfuncs;
    let args_pool = &tfuncs[ctx.frame.func as usize].args_pool;
    let args = &args_pool[st.t1 as usize..(st.t1 + st.t3) as usize];
    let mut scratch = std::mem::take(&mut ctx.scratch);
    scratch.clear();
    for &a in args {
        scratch.push(ev(ctx.global_base, &ctx.frame, a));
    }
    match st.intr {
        Intrinsic::RegionEnter => ctx.region_depth += 1,
        Intrinsic::RegionExit => ctx.region_depth = ctx.region_depth.saturating_sub(1),
        Intrinsic::Print => ctx.prints.push(scratch[0]),
        _ => {}
    }
    let action = ctx.hooks.intrinsic(st.intr, &scratch);
    ctx.scratch = scratch;
    ctx.counters.retired += action.cost;
    if ctx.region_depth > 0 {
        ctx.counters.region_retired += action.cost;
    }
    // Intrinsic cost is the only non-unit counter advance, and region
    // markers gate region-scoped due-ness: force an event re-check at the
    // next boundary.
    ctx.next_check = ctx.boundary;
    if action.trap_detected {
        return halt(ctx, Trap::FaultDetected);
    }
    if action.trap_abort {
        return halt(ctx, Trap::RuntimeAbort);
    }
    if st.flags & F_HAS_DST != 0 {
        if let Some(v) = action.value {
            wr(&mut ctx.frame, st.dst, v);
        }
    }
    ctx.frame.pc += 1;
    Control::Cont
}

fn h_br(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    tick(ctx);
    ctx.frame.pc = st.t1;
    Control::Cont
}

fn h_condbr(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    tick(ctx);
    let taken = ev(ctx.global_base, &ctx.frame, st.a).as_i() != 0;
    ctx.counters.branches += 1;
    ctx.frame.pc = if taken { st.t1 } else { st.t2 };
    Control::Cont
}

fn h_ret(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    tick(ctx);
    let value = (st.flags & F_RET_VALUE != 0).then(|| ev(ctx.global_base, &ctx.frame, st.a));
    let ret_dst = ctx.frame.ret_dst;
    match ctx.stack.pop() {
        None => {
            ctx.termination = Some(Termination::Returned(value));
            Control::Halt
        }
        Some(caller) => {
            let done = std::mem::replace(&mut ctx.frame, caller);
            ctx.pool.push(done);
            ctx.code = &ctx.tfuncs[ctx.frame.func as usize].code;
            if let (Some(dst), Some(val)) = (ret_dst, value) {
                wr(&mut ctx.frame, dst, val);
            }
            Control::Cont
        }
    }
}

// ---------------------------------------------------------------------
// Lowering: DFunc → flattened TFunc stream.
// ---------------------------------------------------------------------

/// Builds the direct-threaded form of a decoded module.
pub(crate) fn build(dfuncs: &[DFunc]) -> Box<[TFunc]> {
    dfuncs.iter().map(build_func).collect()
}

fn build_func(df: &DFunc) -> TFunc {
    // Pass 1: block entry pcs.
    let mut block_entry = Vec::with_capacity(df.blocks.len());
    let mut pc = 0u32;
    for b in df.blocks.iter() {
        block_entry.push(pc);
        pc += b.insts.len() as u32 + 1;
    }

    // Pass 2: lower every instruction and terminator.
    let mut code: Vec<TStep> = Vec::with_capacity(pc as usize);
    let mut args_pool: Vec<Operand> = Vec::new();
    let mut names: Vec<Box<str>> = Vec::new();
    let mut loc: Vec<(u32, u32)> = Vec::with_capacity(pc as usize);
    for (bi, b) in df.blocks.iter().enumerate() {
        for (ip, ds) in b.insts.iter().enumerate() {
            code.push(lower_inst(&ds.op, &mut args_pool, &mut names));
            loc.push((bi as u32, ip as u32));
        }
        code.push(lower_term(&b.term, &block_entry));
        loc.push((bi as u32, b.insts.len() as u32));
    }

    TFunc {
        code: code.into_boxed_slice(),
        args_pool: args_pool.into_boxed_slice(),
        names: names.into_boxed_slice(),
        loc: loc.into_boxed_slice(),
    }
}

fn lower_inst(inst: &DInst, args_pool: &mut Vec<Operand>, names: &mut Vec<Box<str>>) -> TStep {
    use rskip_ir::{BinOp, CmpOp, Ty};
    match inst {
        DInst::Mov { dst, src } => {
            let mut st = TStep::blank(h_mov);
            st.dst = *dst;
            st.a = *src;
            st
        }
        DInst::Bin {
            ty,
            op,
            dst,
            lhs,
            rhs,
        } => {
            let run: Handler = match (ty, op) {
                (Ty::I64, BinOp::Add) => h_add_i,
                (Ty::I64, BinOp::Sub) => h_sub_i,
                (Ty::I64, BinOp::Mul) => h_mul_i,
                (Ty::I64, BinOp::Div) => h_div_i,
                (Ty::I64, BinOp::Rem) => h_rem_i,
                (Ty::I64, BinOp::And) => h_and_i,
                (Ty::I64, BinOp::Or) => h_or_i,
                (Ty::I64, BinOp::Xor) => h_xor_i,
                (Ty::I64, BinOp::Shl) => h_shl_i,
                (Ty::I64, BinOp::Shr) => h_shr_i,
                (Ty::I64, BinOp::Min) => h_min_i,
                (Ty::I64, BinOp::Max) => h_max_i,
                (Ty::F64, BinOp::Add) => h_add_f,
                (Ty::F64, BinOp::Sub) => h_sub_f,
                (Ty::F64, BinOp::Mul) => h_mul_f,
                (Ty::F64, BinOp::Div) => h_div_f,
                (Ty::F64, BinOp::Rem) => h_rem_f,
                (Ty::F64, BinOp::Min) => h_min_f,
                (Ty::F64, BinOp::Max) => h_max_f,
                (Ty::F64, _) => unreachable!("verifier rejects bitwise float ops"),
            };
            let mut st = TStep::blank(run);
            st.dst = *dst;
            st.a = *lhs;
            st.b = *rhs;
            st
        }
        DInst::Un { ty, op, dst, src } => {
            let mut st = TStep::blank(h_un);
            st.ty = *ty;
            st.uop = *op;
            st.dst = *dst;
            st.a = *src;
            st
        }
        DInst::Cmp {
            ty,
            op,
            dst,
            lhs,
            rhs,
        } => {
            let run: Handler = match (ty, op) {
                (Ty::I64, CmpOp::Eq) => h_eq_i,
                (Ty::I64, CmpOp::Ne) => h_ne_i,
                (Ty::I64, CmpOp::Lt) => h_lt_i,
                (Ty::I64, CmpOp::Le) => h_le_i,
                (Ty::I64, CmpOp::Gt) => h_gt_i,
                (Ty::I64, CmpOp::Ge) => h_ge_i,
                (Ty::F64, CmpOp::Eq) => h_eq_f,
                (Ty::F64, CmpOp::Ne) => h_ne_f,
                (Ty::F64, CmpOp::Lt) => h_lt_f,
                (Ty::F64, CmpOp::Le) => h_le_f,
                (Ty::F64, CmpOp::Gt) => h_gt_f,
                (Ty::F64, CmpOp::Ge) => h_ge_f,
            };
            let mut st = TStep::blank(run);
            st.dst = *dst;
            st.a = *lhs;
            st.b = *rhs;
            st
        }
        DInst::Select {
            dst,
            cond,
            on_true,
            on_false,
        } => {
            let mut st = TStep::blank(h_select);
            st.dst = *dst;
            st.a = *cond;
            st.b = *on_true;
            st.c = *on_false;
            st
        }
        DInst::Load { dst, addr } => {
            let mut st = TStep::blank(h_load);
            st.dst = *dst;
            st.a = *addr;
            st
        }
        DInst::Store { addr, value } => {
            let mut st = TStep::blank(h_store);
            st.a = *addr;
            st.b = *value;
            st
        }
        DInst::Call { dst, target, args } => {
            let mut st = TStep::blank(h_call);
            st.t1 = args_pool.len() as u32;
            st.t2 = *target;
            st.t3 = args.len() as u32;
            args_pool.extend_from_slice(args);
            if let Some(d) = dst {
                st.flags |= F_HAS_DST;
                st.dst = *d;
            }
            st
        }
        DInst::CallUnknown { name } => {
            let mut st = TStep::blank(h_call_unknown);
            st.t1 = names.len() as u32;
            names.push(name.clone());
            st
        }
        DInst::IntrinsicCall { dst, intr, args } => {
            let mut st = TStep::blank(h_intrinsic);
            st.intr = *intr;
            st.t1 = args_pool.len() as u32;
            st.t3 = args.len() as u32;
            args_pool.extend_from_slice(args);
            if let Some(d) = dst {
                st.flags |= F_HAS_DST;
                st.dst = *d;
            }
            st
        }
    }
}

fn lower_term(term: &DTerm, block_entry: &[u32]) -> TStep {
    match term {
        DTerm::Br(t) => {
            let mut st = TStep::blank(h_br);
            st.t1 = block_entry[*t as usize];
            st
        }
        DTerm::CondBr {
            cond,
            on_true,
            on_false,
        } => {
            let mut st = TStep::blank(h_condbr);
            st.a = *cond;
            st.t1 = block_entry[*on_true as usize];
            st.t2 = block_entry[*on_false as usize];
            st
        }
        DTerm::Ret(v) => {
            let mut st = TStep::blank(h_ret);
            if let Some(op) = v {
                st.flags |= F_RET_VALUE;
                st.a = *op;
            }
            st
        }
    }
}

// ---------------------------------------------------------------------
// The threaded execution loop.
// ---------------------------------------------------------------------

/// Pops a recycled frame (or a fresh one) and initializes it for `func`.
fn acquire(pool: &mut Vec<TFrame>, dfuncs: &[DFunc], func: usize) -> TFrame {
    let init = &dfuncs[func].reg_init;
    let n = init.len();
    let mut fr = pool.pop().unwrap_or_default();
    fr.func = func as u32;
    fr.pc = 0;
    fr.ret_dst = None;
    fr.regs.clear();
    fr.regs.extend_from_slice(init);
    fr.written.clear();
    fr.written.resize(n, false);
    fr
}

/// Runs from `start` to completion, untimed, on the threaded tier,
/// saving a checkpoint at each of `marks` (see the module docs). Semantics
/// are byte-identical to [`crate::machine`]'s reference loop (see the
/// module docs for the exactness argument).
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_threaded(
    prog: &Decoded<'_>,
    hooks: &mut dyn RuntimeHooks,
    config: &ExecConfig,
    mem: &mut [Value],
    pool: &mut Vec<TFrame>,
    injection: Option<ArmedFault>,
    start: Start<'_>,
    marks: &[u64],
) -> (RunOutcome, Vec<Checkpoint>) {
    debug_assert!(
        config.timing.is_none(),
        "timed runs take the reference loop"
    );
    let unit = &*prog.unit;
    let frame = match start {
        Start::Entry { entry, args } => {
            let mut frame = acquire(pool, &unit.funcs, entry);
            for (i, &a) in args.iter().enumerate() {
                frame.regs[i] = a;
                frame.written[i] = true;
            }
            frame
        }
        Start::Resume(cp) => {
            assert!(
                Arc::ptr_eq(&cp.unit, &prog.unit),
                "checkpoint resumed on another program"
            );
            cp.frame.clone()
        }
    };

    let mut ctx = Ctx {
        unit: &prog.unit,
        tfuncs: &unit.threaded,
        code: &unit.threaded[frame.func as usize].code,
        dfuncs: &unit.funcs,
        module: prog.module,
        global_base: &unit.global_base,
        hooks,
        mem,
        pool,
        frame,
        stack: Vec::with_capacity(16),
        counters: Counters::default(),
        prints: Vec::new(),
        scratch: Vec::new(),
        region_depth: 0,
        boundary: 0,
        // Force an event check before the first step, mirroring the
        // reference loop's check-first ordering (and, on resume, the
        // recorded run's position at the top of its boundary).
        next_check: 0,
        injection,
        injected: None,
        state_injected: None,
        termination: None,
        step_limit: config.step_limit,
        marks,
        recorded: Vec::new(),
    };
    if let Start::Resume(cp) = start {
        ctx.mem.copy_from_slice(&cp.mem);
        ctx.stack.extend(cp.stack.iter().cloned());
        ctx.counters = cp.counters;
        ctx.prints.clone_from(&cp.prints);
        ctx.region_depth = cp.region_depth;
        ctx.boundary = cp.boundary;
    }

    let termination = loop {
        if ctx.boundary >= ctx.next_check {
            if let Some(t) = handle_events(&mut ctx) {
                break t;
            }
        }
        let code = ctx.code;
        let step = &code[ctx.frame.pc as usize];
        match (step.run)(&mut ctx, step) {
            Control::Cont => {}
            Control::Halt => break ctx.termination.take().expect("handler set termination"),
        }
    };

    // Recycle every frame (mid-stack trap or normal exit).
    let Ctx {
        pool,
        frame,
        mut stack,
        counters,
        prints,
        injected,
        state_injected,
        recorded,
        ..
    } = ctx;
    pool.push(frame);
    pool.append(&mut stack);
    let outcome = RunOutcome {
        termination,
        counters,
        injection: injected,
        state_injection: state_injected,
        prints,
    };
    (outcome, recorded)
}

/// Saves a checkpoint for every mark the run's `region_retired` has
/// reached, at the top of the boundary.
#[cold]
fn record_marks(ctx: &mut Ctx<'_>) {
    while let Some((&mark, rest)) = ctx.marks.split_first() {
        if ctx.counters.region_retired < mark {
            break;
        }
        ctx.recorded.push(Checkpoint {
            unit: Arc::clone(ctx.unit),
            mem: ctx.mem.into(),
            frame: ctx.frame.clone(),
            stack: ctx.stack.clone(),
            counters: ctx.counters,
            prints: ctx.prints.clone(),
            region_depth: ctx.region_depth,
            boundary: ctx.boundary,
            hooks: ctx
                .hooks
                .save_state()
                .expect("checkpoints need resumable hooks"),
        });
        ctx.marks = rest;
    }
}

/// Evaluates armed events at an instruction boundary and recomputes the
/// fuel until the next one. Returns a termination to stop on.
#[cold]
fn handle_events(ctx: &mut Ctx<'_>) -> Option<Termination> {
    if !ctx.marks.is_empty() {
        record_marks(ctx);
    }
    if let Some(armed) = ctx.injection.take() {
        if armed.due(&ctx.counters, ctx.region_depth, ctx.boundary) {
            let at_retired = ctx.counters.retired;
            match &armed {
                // Over an intrinsic boundary a skip holds fire and retries
                // at the next one (the reference loop's rule); the
                // intrinsic itself forces that re-check.
                _ if armed.is_skip() => {
                    if skip_holds_fire(ctx.module, point(ctx.tfuncs, &ctx.frame)) {
                        ctx.injection = Some(armed);
                    } else {
                        let (record, trap) = fire_skip(ctx);
                        ctx.injected = Some(record);
                        if let Some(trap) = trap {
                            return Some(Termination::Trapped(trap));
                        }
                    }
                }
                ArmedFault::Random(plan) => {
                    ctx.injected = inject_random(ctx.module, plan, &mut frames(ctx), at_retired);
                }
                ArmedFault::Exact(fault) => {
                    ctx.injected = inject_exact(ctx.module, fault, &mut frames(ctx), at_retired);
                }
                ArmedFault::RuntimeState { seed, .. } => {
                    match ctx.hooks.flip_runtime_state(*seed) {
                        Some(site) => ctx.state_injected = Some(site),
                        // No live target at this boundary: stay armed and
                        // retry at the next one, like the reference loop.
                        None => ctx.injection = Some(armed),
                    }
                }
            }
        } else {
            ctx.injection = Some(armed);
        }
    }

    // From the boundary a fault takes effect on, the state is no longer
    // the clean run's.
    if ctx.injected.is_some() || ctx.state_injected.is_some() {
        ctx.marks = &[];
    }

    if ctx.counters.retired >= ctx.step_limit {
        return Some(Termination::Trapped(Trap::StepLimit));
    }

    ctx.next_check = next_check(ctx);
    None
}

/// The earliest boundary at which any armed event or checkpoint mark
/// could fire, assuming every counter advances by at most one per
/// boundary (intrinsics, the only exception, force a re-check
/// themselves).
fn next_check(ctx: &Ctx<'_>) -> u64 {
    let mut fuel = ctx.step_limit - ctx.counters.retired;
    if let Some(&mark) = ctx.marks.first() {
        // `record_marks` ran at this boundary, so the mark lies ahead.
        fuel = fuel.min(mark - ctx.counters.region_retired);
    }
    if let Some(armed) = &ctx.injection {
        let f = match armed {
            ArmedFault::Random(plan) => {
                if ctx.counters.region_retired >= plan.trigger {
                    // Due-ness now only awaits a RegionEnter, which is an
                    // intrinsic and forces its own re-check.
                    u64::MAX
                } else {
                    plan.trigger - ctx.counters.region_retired
                }
            }
            // `.max(1)`: an exact skip held over an intrinsic is already
            // past `at` and retries at the next boundary.
            ArmedFault::Exact(fault) => (fault.at.saturating_sub(ctx.boundary)).max(1),
            ArmedFault::RuntimeState { trigger, .. } => {
                if ctx.counters.region_retired >= *trigger {
                    // Armed and due, but the hooks held no live target:
                    // retry at every boundary.
                    1
                } else {
                    *trigger - ctx.counters.region_retired
                }
            }
        };
        fuel = fuel.min(f);
    }
    ctx.boundary.saturating_add(fuel)
}

/// The program point `(function, block, ip)` a threaded frame executes
/// next.
fn point(tfuncs: &[TFunc], f: &TFrame) -> (u32, u32, u32) {
    let (block, ip) = tfuncs[f.func as usize].loc[f.pc as usize];
    (f.func, block, ip)
}

/// The threaded tier's frames as the shared injectors see them: the
/// suspended callers, then the running frame.
struct TFrames<'c, 'a> {
    tfuncs: &'a [TFunc],
    stack: &'c mut [TFrame],
    frame: &'c mut TFrame,
}

fn frames<'c, 'a>(ctx: &'c mut Ctx<'a>) -> TFrames<'c, 'a> {
    TFrames {
        tfuncs: ctx.tfuncs,
        stack: &mut ctx.stack,
        frame: &mut ctx.frame,
    }
}

impl TFrames<'_, '_> {
    fn get(&self, fi: usize) -> &TFrame {
        self.stack.get(fi).unwrap_or(self.frame)
    }
}

impl FaultFrames for TFrames<'_, '_> {
    fn depth(&self) -> usize {
        self.stack.len() + 1
    }

    fn written(&self, fi: usize) -> &[bool] {
        &self.get(fi).written
    }

    fn reg_mut(&mut self, fi: usize, ri: usize) -> &mut Value {
        let f = if fi < self.stack.len() {
            &mut self.stack[fi]
        } else {
            &mut *self.frame
        };
        &mut f.regs[ri]
    }

    fn point(&self, fi: usize) -> (u32, u32, u32) {
        point(self.tfuncs, self.get(fi))
    }
}

/// Threaded-tier twin of the reference skip path: the step at the
/// current pc retires as a bubble and control falls through to the next
/// flat step, which is the next instruction or the next block in layout
/// order — exactly the reference tier's fall-through. Running past the
/// function's last step is [`Trap::CodeRunoff`].
fn fire_skip(ctx: &mut Ctx<'_>) -> (InjectionRecord, Option<Trap>) {
    let record = record(
        ctx.module,
        point(ctx.tfuncs, &ctx.frame),
        ctx.counters.retired,
        FaultEffect::SkippedInstruction,
    );
    // The bubble still retires.
    tick(ctx);
    ctx.frame.pc += 1;
    let trap = (ctx.frame.pc as usize >= ctx.code.len()).then_some(Trap::CodeRunoff);
    (record, trap)
}

#[cfg(test)]
mod tests {
    use rskip_ir::{BinOp, CmpOp, Intrinsic, Module, ModuleBuilder, Operand, Ty, Value};

    use crate::{
        Checkpoint, ExecConfig, FaultModel, InjectionPlan, Machine, NoopHooks, RunOutcome,
        Termination, Trap,
    };

    /// One region around a loop that calls `scale` on each cell of
    /// `@data`, stores the result back and prints it, so checkpoints
    /// land inside the callee (with `main` suspended) and after prints.
    fn call_loop() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global_init("data", Ty::I64, (1..=6).map(Value::I).collect());
        let mut sc = mb.function("scale", vec![Ty::I64], Some(Ty::I64));
        let p = sc.param(0);
        let t = sc.bin(BinOp::Mul, Ty::I64, Operand::reg(p), Operand::imm_i(3));
        let r = sc.bin(BinOp::Add, Ty::I64, Operand::reg(t), Operand::imm_i(1));
        sc.ret(Some(Operand::reg(r)));
        sc.finish();

        let mut f = mb.function("main", vec![], Some(Ty::I64));
        let (entry, header, body, exit) = (
            f.entry_block(),
            f.new_block("header"),
            f.new_block("body"),
            f.new_block("exit"),
        );
        let i = f.def_reg(Ty::I64, "i");
        let acc = f.def_reg(Ty::I64, "acc");
        f.switch_to(entry);
        f.mov(i, Operand::imm_i(0));
        f.mov(acc, Operand::imm_i(0));
        f.intrinsic(Intrinsic::RegionEnter, vec![Operand::imm_i(0)]);
        f.br(header);
        f.switch_to(header);
        let c = f.cmp(CmpOp::Lt, Ty::I64, Operand::reg(i), Operand::imm_i(6));
        f.cond_br(Operand::reg(c), body, exit);
        f.switch_to(body);
        let addr = f.bin(BinOp::Add, Ty::I64, Operand::global(g), Operand::reg(i));
        let v = f.load(Ty::I64, Operand::reg(addr));
        let w = f
            .call("scale", vec![Operand::reg(v)], Some(Ty::I64))
            .unwrap();
        f.store(Ty::I64, Operand::reg(addr), Operand::reg(w));
        f.intrinsic(Intrinsic::Print, vec![Operand::reg(w)]);
        f.bin_into(acc, BinOp::Add, Ty::I64, Operand::reg(acc), Operand::reg(w));
        f.bin_into(i, BinOp::Add, Ty::I64, Operand::reg(i), Operand::imm_i(1));
        f.br(header);
        f.switch_to(exit);
        f.intrinsic(Intrinsic::RegionExit, vec![Operand::imm_i(0)]);
        f.ret(Some(Operand::reg(acc)));
        f.finish();
        mb.finish()
    }

    fn machine(m: &Module, step_limit: u64) -> Machine<'_, NoopHooks> {
        let config = ExecConfig {
            step_limit,
            ..ExecConfig::default()
        };
        Machine::with_config(m, NoopHooks, config)
    }

    /// A checkpoint at every region instruction of a clean run.
    fn every_mark(m: &Module, step_limit: u64) -> (RunOutcome, Vec<u64>, Vec<Checkpoint>) {
        let mut mm = machine(m, step_limit);
        let clean = mm.run("main", &[]);
        let marks: Vec<u64> = (0..=clean.counters.region_retired).collect();
        mm.reset_memory();
        let (out, cps) = mm.run_recording("main", &[], &marks);
        assert_eq!(out, clean, "recording does not change the run");
        (clean, marks, cps)
    }

    #[test]
    fn resuming_any_checkpoint_reproduces_the_clean_run() {
        let m = call_loop();
        let mut clean_m = machine(&m, u64::MAX);
        let clean = clean_m.run("main", &[]);
        let (_, marks, cps) = every_mark(&m, u64::MAX);
        assert_eq!(cps.len(), marks.len(), "a clean run records every mark");
        assert!(
            cps.iter().any(|cp| !cp.stack.is_empty()),
            "some checkpoint holds a suspended frame"
        );
        assert!(cps.iter().any(|cp| !cp.prints.is_empty()));
        for (cp, &mark) in cps.iter().zip(&marks) {
            // No intrinsic here costs anything, so every mark is reached
            // exactly, and fuel stops the loop right there.
            assert_eq!(cp.counters().region_retired, mark);
            let mut resumed = machine(&m, u64::MAX);
            let (out, more) = resumed.resume(cp, &[]).expect("no-op hooks resume");
            assert!(more.is_empty());
            assert_eq!(out, clean, "resumed at mark {mark}");
            assert_eq!(resumed.memory(), clean_m.memory(), "memory at mark {mark}");
        }
    }

    #[test]
    fn a_resumed_run_records_the_later_marks_of_the_clean_run() {
        let m = call_loop();
        let (_, marks, cps) = every_mark(&m, u64::MAX);
        let mid = marks.len() / 2;
        let (_, later) = machine(&m, u64::MAX)
            .resume(&cps[mid], &marks[mid + 1..])
            .expect("no-op hooks resume");
        assert_eq!(later.len(), marks.len() - mid - 1);
        for (a, b) in later.iter().zip(&cps[mid + 1..]) {
            assert_eq!((a.counters, a.boundary), (b.counters, b.boundary));
            assert_eq!((&a.mem, &a.prints), (&b.mem, &b.prints));
        }
    }

    #[test]
    fn injected_runs_resume_exactly_below_their_trigger() {
        let m = call_loop();
        let (_, _, cps) = every_mark(&m, u64::MAX);
        let budget = cps.last().unwrap().counters().region_retired;
        for model in [
            FaultModel::SingleBitSeu,
            FaultModel::InstructionSkip,
            FaultModel::MultiBitBurst { width: 4 },
        ] {
            for trigger in 0..budget {
                let plan = InjectionPlan {
                    trigger,
                    seed: trigger * 7919 + 3,
                    model,
                };
                let mut direct = machine(&m, 10_000);
                direct.set_injection(plan);
                let want = direct.run("main", &[]);
                // Recording stops once the fault takes effect.
                let mut rec = machine(&m, 10_000);
                rec.set_injection(plan);
                let marks: Vec<u64> = (0..=budget).collect();
                let (out, saved) = rec.run_recording("main", &[], &marks);
                assert_eq!(out, want);
                // (A skip held over the closing `region_exit` never fires.)
                match want.injection {
                    Some(_) => assert!(saved.len() < cps.len(), "recording stops at the fault"),
                    None => assert_eq!(saved.len(), cps.len()),
                }
                for (a, b) in saved.iter().zip(&cps) {
                    assert_eq!((a.counters, a.boundary), (b.counters, b.boundary));
                    assert_eq!((&a.mem, &a.frame.regs), (&b.mem, &b.frame.regs));
                }
                for cp in cps
                    .iter()
                    .filter(|cp| cp.counters().region_retired < trigger)
                {
                    let mut resumed = machine(&m, 10_000);
                    resumed.set_injection(plan);
                    let (out, _) = resumed.resume(cp, &[]).expect("no-op hooks resume");
                    assert_eq!(out, want, "{model:?} trigger {trigger}");
                    assert_eq!(resumed.memory(), direct.memory());
                }
            }
        }
    }

    #[test]
    fn a_resumed_step_limited_run_traps_at_the_same_count() {
        let m = call_loop();
        let full = machine(&m, u64::MAX).run("main", &[]).counters.retired;
        let limit = full * 2 / 3;
        let (clean, _, cps) = every_mark(&m, limit);
        assert_eq!(clean.termination, Termination::Trapped(Trap::StepLimit));
        let below: Vec<&Checkpoint> = cps
            .iter()
            .filter(|cp| cp.counters().retired < limit)
            .collect();
        assert!(below.len() > 1);
        for cp in below {
            let (out, _) = machine(&m, limit)
                .resume(cp, &[])
                .expect("no-op hooks resume");
            assert_eq!(out, clean);
            assert_eq!(out.counters.retired, clean.counters.retired);
        }
    }

    /// Hooks whose state is the number of intrinsic calls they answered.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Counting(u64);

    impl crate::RuntimeHooks for Counting {
        fn intrinsic(&mut self, intr: Intrinsic, args: &[Value]) -> crate::IntrinsicAction {
            self.0 += 1;
            NoopHooks.intrinsic(intr, args)
        }

        fn save_state(&self) -> Option<crate::HookState> {
            Some(Box::new(*self))
        }

        fn restore_state(&mut self, state: &(dyn std::any::Any + Send + Sync)) -> bool {
            state.downcast_ref().map(|&saved| *self = saved).is_some()
        }
    }

    #[test]
    fn resumed_hooks_end_in_the_state_of_the_run_from_main() {
        let m = call_loop();
        let mut from_main = Machine::new(&m, Counting(0));
        let clean = from_main.run("main", &[]);
        let marks: Vec<u64> = (0..=clean.counters.region_retired).collect();
        let (_, cps) = Machine::new(&m, Counting(0)).run_recording("main", &[], &marks);
        assert_eq!(cps.len(), marks.len());
        for cp in &cps {
            let mut resumed = Machine::new(&m, Counting(0));
            let (out, _) = resumed.resume(cp, &[]).expect("counting hooks resume");
            assert_eq!(out, clean);
            assert_eq!(resumed.hooks(), from_main.hooks());
        }
        // Hooks of another type refuse the saved state and run nothing.
        let mut other = machine(&m, u64::MAX);
        assert!(other.resume(&cps[1], &[]).is_none());
    }

    #[test]
    #[should_panic(expected = "resumable hooks")]
    fn stateful_hooks_cannot_record() {
        /// Counts intrinsic calls but cannot save that count.
        struct Unsaved(u64);
        impl crate::RuntimeHooks for Unsaved {
            fn intrinsic(&mut self, intr: Intrinsic, args: &[Value]) -> crate::IntrinsicAction {
                self.0 += 1;
                NoopHooks.intrinsic(intr, args)
            }
        }
        let m = call_loop();
        Machine::new(&m, Unsaved(0)).run_recording("main", &[], &[1]);
    }
}
