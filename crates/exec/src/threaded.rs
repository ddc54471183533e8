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
//! The tier is observationally identical to the reference interpreter —
//! byte-identical memory, counters, injection records and timing — which
//! the fault model depends on. **Event fuel** makes that cheap: the
//! reference loop re-evaluates fault-injection due-ness and the step
//! limit at *every* instruction boundary. Both are monotone in counters
//! that advance by at most one per boundary — except intrinsics, whose
//! modeled cost advances them in jumps. The threaded loop therefore
//! computes `next_check`, the earliest boundary at which any armed event
//! could fire, checks events only when `boundary >= next_check`, and
//! forces a recomputation after every intrinsic (the only non-unit
//! advance). Firing boundaries are bit-exact with the reference loop, and
//! the register effect itself is the reference tier's: both call the
//! shared injectors in [`crate::fault`].
//!
//! Traced runs (the enumeration census) always use the reference loop;
//! probe replays with [`crate::ExactFault`] run threaded and fire at the
//! identical boundary.
//!
//! Instruction-skip faults ride the same machinery: a skip is an armed
//! event, so `next_check` stops the loop at its boundary before it can
//! fire. Firing then advances `pc` by one — exactly the reference
//! tier's fall-through to the next instruction or next block in layout
//! order, because flattening emits blocks in index order — and running
//! off the end of the function's code is the same [`Trap::CodeRunoff`].

use rskip_ir::{Intrinsic, Module, Operand, Reg, Value};

use crate::counters::Counters;
use crate::decoded::{DFunc, DInst, DTerm, Decoded};
use crate::fault::{
    inject_exact, inject_random, record, skip_holds_fire, ArmedFault, FaultEffect, FaultFrames,
    InjectionRecord,
};
use crate::hooks::RuntimeHooks;
use crate::machine::{un_op, ExecConfig, RunOutcome, Termination, Trap};
use crate::pipeline::{OpClass, Pipeline};

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
    class: OpClass,
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
    /// Branch-predictor site of a conditional branch.
    site: u64,
}

impl TStep {
    fn blank(run: Handler, class: OpClass) -> TStep {
        TStep {
            run,
            flags: 0,
            class,
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
            site: 0,
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
#[derive(Default)]
pub(crate) struct TFrame {
    pub(crate) func: u32,
    pub(crate) pc: u32,
    pub(crate) ret_dst: Option<Reg>,
    pub(crate) regs: Vec<Value>,
    pub(crate) written: Vec<bool>,
    pub(crate) ready: Vec<u64>,
}

/// Shared execution state threaded through every handler call.
///
/// Deliberately non-generic: hooks are a `dyn` reference so handler fn
/// pointers can live in the shared decoded unit; dynamic dispatch
/// is paid only at intrinsic calls, which the reference tier pays too
/// (they funnel into the same [`RuntimeHooks`] object).
struct Ctx<'a> {
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
    pipeline: Option<Pipeline>,
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
    max_call_depth: usize,
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
fn ready1(f: &TFrame, op: Operand) -> u64 {
    match op {
        Operand::Reg(r) => f.ready[r.index()],
        _ => 0,
    }
}

/// Untimed register write (the `ready` lane is never read without a
/// pipeline, so it is not maintained).
#[inline(always)]
fn wr(f: &mut TFrame, dst: Reg, v: Value) {
    let i = dst.index();
    f.regs[i] = v;
    f.written[i] = true;
}

#[inline(always)]
fn wr_t(f: &mut TFrame, dst: Reg, v: Value, ready: u64) {
    let i = dst.index();
    f.regs[i] = v;
    f.written[i] = true;
    f.ready[i] = ready;
}

#[cold]
fn halt(ctx: &mut Ctx<'_>, trap: Trap) -> Control {
    ctx.termination = Some(Termination::Trapped(trap));
    Control::Halt
}

/// Issue + write for a one-source instruction.
#[inline(always)]
fn write1(ctx: &mut Ctx<'_>, st: &TStep, v: Value) {
    match ctx.pipeline.as_mut() {
        None => wr(&mut ctx.frame, st.dst, v),
        Some(p) => {
            let done = p.issue(st.class, ready1(&ctx.frame, st.a), None);
            wr_t(&mut ctx.frame, st.dst, v, done);
        }
    }
}

/// Issue + write for a two-source instruction (`a`, `b`).
#[inline(always)]
fn write2(ctx: &mut Ctx<'_>, st: &TStep, v: Value) {
    match ctx.pipeline.as_mut() {
        None => wr(&mut ctx.frame, st.dst, v),
        Some(p) => {
            let ready = ready1(&ctx.frame, st.a).max(ready1(&ctx.frame, st.b));
            let done = p.issue(st.class, ready, None);
            wr_t(&mut ctx.frame, st.dst, v, done);
        }
    }
}

// ---------------------------------------------------------------------
// Single-instruction handlers.
// ---------------------------------------------------------------------

fn h_mov(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    tick(ctx);
    let v = ev(ctx.global_base, &ctx.frame, st.a);
    write1(ctx, st, v);
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
            write2(ctx, st, v);
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
            write2(ctx, st, v);
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
    write2(ctx, st, Value::I(x.wrapping_div(y)));
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
    write2(ctx, st, Value::I(x.wrapping_rem(y)));
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
            write2(ctx, st, v);
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
    write1(ctx, st, v);
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
    match ctx.pipeline.as_mut() {
        None => wr(&mut ctx.frame, st.dst, v),
        Some(p) => {
            let ready = ready1(&ctx.frame, st.a)
                .max(ready1(&ctx.frame, st.b))
                .max(ready1(&ctx.frame, st.c));
            let done = p.issue(st.class, ready, None);
            wr_t(&mut ctx.frame, st.dst, v, done);
        }
    }
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
    match ctx.pipeline.as_mut() {
        None => wr(&mut ctx.frame, st.dst, v),
        Some(p) => {
            let done = p.issue(st.class, ready1(&ctx.frame, st.a), Some(addr));
            wr_t(&mut ctx.frame, st.dst, v, done);
        }
    }
    ctx.frame.pc += 1;
    Control::Cont
}

fn h_store(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    tick(ctx);
    ctx.counters.stores += 1;
    let addr = ev(ctx.global_base, &ctx.frame, st.a).as_i();
    let v = ev(ctx.global_base, &ctx.frame, st.b);
    // The reference loop issues the store into the pipeline before the
    // bounds check; replicate for timing equality on trapping stores.
    if let Some(p) = ctx.pipeline.as_mut() {
        let ready = ready1(&ctx.frame, st.a).max(ready1(&ctx.frame, st.b));
        p.issue(st.class, ready, Some(addr));
    }
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
    if ctx.stack.len() + 1 >= ctx.max_call_depth {
        return halt(ctx, Trap::StackOverflow);
    }
    let tfuncs = ctx.tfuncs;
    let args_pool = &tfuncs[ctx.frame.func as usize].args_pool;
    let args = &args_pool[st.t1 as usize..(st.t1 + st.t3) as usize];
    let mut new = acquire(ctx.pool, ctx.dfuncs, st.t2 as usize);
    let timed = ctx.pipeline.is_some();
    for (i, &a) in args.iter().enumerate() {
        new.regs[i] = ev(ctx.global_base, &ctx.frame, a);
        new.written[i] = true;
        if timed {
            new.ready[i] = ready1(&ctx.frame, a);
        }
    }
    if let Some(p) = ctx.pipeline.as_mut() {
        let mut ready = 0u64;
        for &a in args {
            ready = ready.max(ready1(&ctx.frame, a));
        }
        p.issue(st.class, ready, None);
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
    if ctx.stack.len() + 1 >= ctx.max_call_depth {
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
    let done = match ctx.pipeline.as_mut() {
        None => 0,
        Some(p) => {
            let mut ready = 0u64;
            for &a in args {
                ready = ready.max(ready1(&ctx.frame, a));
            }
            p.issue_bulk(1 + action.cost, ready)
        }
    };
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
            match ctx.pipeline.is_some() {
                false => wr(&mut ctx.frame, st.dst, v),
                true => wr_t(&mut ctx.frame, st.dst, v, done),
            }
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
    if let Some(p) = ctx.pipeline.as_mut() {
        p.branch(st.site, taken, ready1(&ctx.frame, st.a));
    }
    ctx.frame.pc = if taken { st.t1 } else { st.t2 };
    Control::Cont
}

fn h_ret(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    tick(ctx);
    let value = (st.flags & F_RET_VALUE != 0).then(|| ev(ctx.global_base, &ctx.frame, st.a));
    let timed = ctx.pipeline.is_some();
    let ready = if timed && st.flags & F_RET_VALUE != 0 {
        ready1(&ctx.frame, st.a)
    } else {
        0
    };
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
                match timed {
                    false => wr(&mut ctx.frame, dst, val),
                    true => wr_t(&mut ctx.frame, dst, val, ready),
                }
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
    dfuncs
        .iter()
        .enumerate()
        .map(|(fi, df)| build_func(fi as u32, df))
        .collect()
}

fn build_func(func: u32, df: &DFunc) -> TFunc {
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
            code.push(lower_inst(ds, &mut args_pool, &mut names));
            loc.push((bi as u32, ip as u32));
        }
        code.push(lower_term(&b.term, func, bi as u32, &block_entry));
        loc.push((bi as u32, b.insts.len() as u32));
    }

    TFunc {
        code: code.into_boxed_slice(),
        args_pool: args_pool.into_boxed_slice(),
        names: names.into_boxed_slice(),
        loc: loc.into_boxed_slice(),
    }
}

fn lower_inst(
    ds: &crate::decoded::DStep,
    args_pool: &mut Vec<Operand>,
    names: &mut Vec<Box<str>>,
) -> TStep {
    use rskip_ir::{BinOp, CmpOp, Ty};
    match &ds.op {
        DInst::Mov { dst, src } => {
            let mut st = TStep::blank(h_mov, ds.class);
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
            let mut st = TStep::blank(run, ds.class);
            st.dst = *dst;
            st.a = *lhs;
            st.b = *rhs;
            st
        }
        DInst::Un { ty, op, dst, src } => {
            let mut st = TStep::blank(h_un, ds.class);
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
            let mut st = TStep::blank(run, ds.class);
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
            let mut st = TStep::blank(h_select, ds.class);
            st.dst = *dst;
            st.a = *cond;
            st.b = *on_true;
            st.c = *on_false;
            st
        }
        DInst::Load { dst, addr } => {
            let mut st = TStep::blank(h_load, ds.class);
            st.dst = *dst;
            st.a = *addr;
            st
        }
        DInst::Store { addr, value } => {
            let mut st = TStep::blank(h_store, ds.class);
            st.a = *addr;
            st.b = *value;
            st
        }
        DInst::Call { dst, target, args } => {
            let mut st = TStep::blank(h_call, ds.class);
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
            let mut st = TStep::blank(h_call_unknown, ds.class);
            st.t1 = names.len() as u32;
            names.push(name.clone());
            st
        }
        DInst::IntrinsicCall { dst, intr, args } => {
            let mut st = TStep::blank(h_intrinsic, ds.class);
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

fn lower_term(term: &DTerm, func: u32, block: u32, block_entry: &[u32]) -> TStep {
    // Terminators are classified as branches by the timing model, like
    // the reference loop's terminator arm (which issues nothing for Br
    // and Ret, and only `branch()`es for CondBr).
    match term {
        DTerm::Br(t) => {
            let mut st = TStep::blank(h_br, OpClass::Alu);
            st.t1 = block_entry[*t as usize];
            st
        }
        DTerm::CondBr {
            cond,
            on_true,
            on_false,
        } => {
            let mut st = TStep::blank(h_condbr, OpClass::Alu);
            st.a = *cond;
            st.t1 = block_entry[*on_true as usize];
            st.t2 = block_entry[*on_false as usize];
            st.site = (u64::from(func) << 32) | u64::from(block);
            st
        }
        DTerm::Ret(v) => {
            let mut st = TStep::blank(h_ret, OpClass::Alu);
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
    fr.ready.clear();
    fr.ready.resize(n, 0);
    fr
}

/// Runs `entry` to completion on the threaded tier. Semantics are
/// byte-identical to [`crate::machine`]'s reference loop (see the module
/// docs for the exactness argument).
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_threaded(
    prog: &Decoded<'_>,
    hooks: &mut dyn RuntimeHooks,
    config: &ExecConfig,
    mem: &mut [Value],
    pool: &mut Vec<TFrame>,
    injection: Option<ArmedFault>,
    entry: usize,
    args: &[Value],
) -> RunOutcome {
    let unit = &*prog.unit;
    let mut frame = acquire(pool, &unit.funcs, entry);
    for (i, &a) in args.iter().enumerate() {
        frame.regs[i] = a;
        frame.written[i] = true;
    }

    let mut ctx = Ctx {
        tfuncs: &unit.threaded,
        code: &unit.threaded[entry].code,
        dfuncs: &unit.funcs,
        module: prog.module,
        global_base: &unit.global_base,
        hooks,
        mem,
        pool,
        frame,
        stack: Vec::with_capacity(16),
        counters: Counters::default(),
        pipeline: config.timing.map(Pipeline::new),
        prints: Vec::new(),
        scratch: Vec::new(),
        region_depth: 0,
        boundary: 0,
        // Force an event check before the first step, mirroring the
        // reference loop's check-first ordering.
        next_check: 0,
        injection,
        injected: None,
        state_injected: None,
        termination: None,
        step_limit: config.step_limit,
        max_call_depth: config.max_call_depth,
    };

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
        mut counters,
        pipeline,
        prints,
        injected,
        state_injected,
        ..
    } = ctx;
    pool.push(frame);
    pool.append(&mut stack);

    if let Some(p) = &pipeline {
        counters.cycles = p.cycles();
        counters.mispredicts = p.mispredicts();
    }
    RunOutcome {
        termination,
        counters,
        injection: injected,
        state_injection: state_injected,
        prints,
    }
}

/// Evaluates armed events at an instruction boundary and recomputes the
/// fuel until the next one. Returns a termination to stop on.
#[cold]
fn handle_events(ctx: &mut Ctx<'_>) -> Option<Termination> {
    if let Some(armed) = ctx.injection.take() {
        if armed.due(&ctx.counters, ctx.region_depth, ctx.boundary) {
            let at_retired = ctx.counters.retired;
            match &armed {
                // Over an intrinsic boundary a skip holds fire and retries
                // at the next one (the reference loop's rule); the
                // intrinsic itself forces that re-check.
                _ if armed.is_skip() => {
                    if skip_holds_fire(ctx.dfuncs, point(ctx.tfuncs, &ctx.frame)) {
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

    if ctx.counters.retired >= ctx.step_limit {
        return Some(Termination::Trapped(Trap::StepLimit));
    }

    ctx.next_check = next_check(ctx);
    None
}

/// The earliest boundary at which any armed event could fire, assuming
/// every counter advances by at most one per boundary (intrinsics, the
/// only exception, force a re-check themselves).
fn next_check(ctx: &Ctx<'_>) -> u64 {
    let mut fuel = ctx.step_limit - ctx.counters.retired;
    if let Some(armed) = &ctx.injection {
        let f = match armed {
            ArmedFault::Random(plan) => {
                if plan.anywhere {
                    // `.max(1)`: a due skip held over an intrinsic stays
                    // armed past its trigger — retry at the next boundary.
                    (plan.trigger.saturating_sub(ctx.counters.retired)).max(1)
                } else if ctx.counters.region_retired >= plan.trigger {
                    // Due-ness now only awaits a RegionEnter, which is an
                    // intrinsic and forces its own re-check.
                    u64::MAX
                } else {
                    plan.trigger - ctx.counters.region_retired
                }
            }
            // `.max(1)` as above: an exact skip held over an intrinsic is
            // already past `at` and retries at the next boundary.
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
