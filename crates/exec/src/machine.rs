//! The IR interpreter.
//!
//! Executes the pre-decoded form built by [`Decoded`]: call targets and
//! block successors are dense indices, instruction timing classes are
//! pre-resolved, and call frames come from a per-machine pool, so the
//! non-error hot path performs no string hashing and no heap allocation.

use std::fmt;

use rskip_ir::{BinOp, CmpOp, Module, Operand, Reg, Ty, UnOp, Value};

use crate::counters::Counters;
use crate::decoded::{DInst, DStep, DTerm, Decoded};
use crate::enumerate::TraceEntry;
use crate::fault::{
    inject_exact, inject_random, record, skip_holds_fire, ArmedFault, ExactFault, ExactFlip,
    FaultEffect, FaultFrames, InjectionPlan, InjectionRecord,
};
use crate::hooks::RuntimeHooks;
use crate::pipeline::{Pipeline, PipelineConfig};

/// Why a run stopped abnormally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Trap {
    /// Memory access outside the allocated flat memory — the *Segfault*
    /// outcome class.
    OutOfBounds {
        /// The faulting cell index.
        addr: i64,
    },
    /// Integer division or remainder by zero — *Core dump*.
    DivByZero,
    /// Call to a function that does not exist (cannot happen in verified
    /// modules, kept for robustness) — *Core dump*.
    UnknownFunction(String),
    /// Call stack exceeded the configured depth — *Core dump*.
    StackOverflow,
    /// The dynamic instruction budget was exhausted — the *Hang* class.
    StepLimit,
    /// The SWIFT detection handler fired: a fault was detected but the
    /// scheme has no recovery.
    FaultDetected,
    /// Control fell off the end of a function's code — only reachable
    /// when an instruction-skip fault swallows the terminator of a
    /// function's last block — *Core dump*.
    CodeRunoff,
    /// The prediction runtime observed a violation of its calling
    /// protocol (e.g. a pending-field read with no pending element) that
    /// would abort the host process. Only reachable under fault
    /// injection, when a corrupted or skipped branch steers transformed
    /// code into the wrong intrinsic sequence — *Core dump*.
    RuntimeAbort,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::OutOfBounds { addr } => write!(f, "out-of-bounds access at cell {addr}"),
            Trap::DivByZero => write!(f, "integer division by zero"),
            Trap::UnknownFunction(n) => write!(f, "call to unknown function @{n}"),
            Trap::StackOverflow => write!(f, "call stack overflow"),
            Trap::StepLimit => write!(f, "dynamic instruction budget exhausted"),
            Trap::FaultDetected => write!(f, "fault detected (no recovery)"),
            Trap::CodeRunoff => write!(f, "control ran off the end of a function"),
            Trap::RuntimeAbort => write!(f, "runtime protocol violation (host abort)"),
        }
    }
}

impl std::error::Error for Trap {}

/// How a run ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Termination {
    /// The entry function returned.
    Returned(Option<Value>),
    /// Execution trapped.
    Trapped(Trap),
}

/// The result of one [`Machine::run`].
///
/// `PartialEq` compares every observable field — the tier-equivalence
/// suite asserts whole outcomes at once with it.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// How the run ended.
    pub termination: Termination,
    /// Dynamic counters.
    pub counters: Counters,
    /// The fault actually injected, if an [`InjectionPlan`] was armed and
    /// found a target.
    pub injection: Option<InjectionRecord>,
    /// The runtime-state fault actually injected, if one was armed with
    /// [`Machine::set_runtime_state_flip`] and the hooks reported a live
    /// target site.
    pub state_injection: Option<String>,
    /// Values printed through the `print` intrinsic.
    pub prints: Vec<Value>,
}

impl RunOutcome {
    /// True if the run returned normally.
    pub fn returned(&self) -> bool {
        matches!(self.termination, Termination::Returned(_))
    }
}

/// Which execution engine runs the decoded program.
///
/// Every tier is observationally identical — byte-identical memory,
/// counters, timing and injection records ([`crate::threaded`] documents
/// the exactness argument; `tests/tier_equivalence.rs` in the harness
/// crate enforces it). They differ only in speed:
///
/// * [`ExecTier::Match`] — the reference match-dispatch interpreter in
///   this module. Kept as the semantics oracle; traced (census) runs
///   always use it.
/// * [`ExecTier::Threaded`] — direct-threaded dispatch: one pre-selected
///   handler `fn` pointer per flattened instruction. The default.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecTier {
    /// Reference match-dispatch interpreter (semantics oracle).
    Match,
    /// Direct-threaded dispatch (default).
    Threaded,
}

impl ExecTier {
    /// Parses a tier name as used by `--tier` flags and the
    /// `RSKIP_EXEC_TIER` environment override. `threaded-nofuse`, the
    /// name of a since-removed variant of the threaded tier, still parses
    /// as [`ExecTier::Threaded`].
    pub fn parse(s: &str) -> Option<ExecTier> {
        match s {
            "match" => Some(ExecTier::Match),
            "threaded" | "threaded-nofuse" => Some(ExecTier::Threaded),
            _ => None,
        }
    }

    /// Stable display name (inverse of [`ExecTier::parse`]).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ExecTier::Match => "match",
            ExecTier::Threaded => "threaded",
        }
    }

    /// The process-wide default tier: `RSKIP_EXEC_TIER` if set (read
    /// once), otherwise [`ExecTier::Threaded`].
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized `RSKIP_EXEC_TIER` value — silently
    /// falling back would invalidate any benchmark or experiment the
    /// override was meant to steer.
    pub fn from_env() -> ExecTier {
        static TIER: std::sync::OnceLock<ExecTier> = std::sync::OnceLock::new();
        *TIER.get_or_init(|| match std::env::var("RSKIP_EXEC_TIER") {
            Ok(s) => ExecTier::parse(&s).unwrap_or_else(|| {
                panic!(
                    "RSKIP_EXEC_TIER={s:?} is not a tier \
                     (expected: match | threaded)"
                )
            }),
            Err(_) => ExecTier::Threaded,
        })
    }
}

impl fmt::Display for ExecTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Interpreter configuration.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Dynamic instruction budget; exceeding it traps with
    /// [`Trap::StepLimit`] (the *Hang* classifier).
    pub step_limit: u64,
    /// Enable the cycle-accurate-ish pipeline model.
    pub timing: Option<PipelineConfig>,
    /// Maximum call depth.
    pub max_call_depth: usize,
    /// Execution engine (defaults to [`ExecTier::from_env`]).
    pub tier: ExecTier,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            step_limit: 500_000_000,
            timing: None,
            max_call_depth: 1024,
            tier: ExecTier::from_env(),
        }
    }
}

#[derive(Default)]
struct Frame {
    func: u32,
    block: u32,
    ip: u32,
    ret_dst: Option<Reg>,
    regs: Vec<Value>,
    written: Vec<bool>,
    ready: Vec<u64>,
}

/// Either an internally-built decode or one shared by the caller (e.g.
/// one decode per campaign, many machines across threads).
enum Program<'m> {
    Owned(Box<Decoded<'m>>),
    Shared(&'m Decoded<'m>),
}

impl<'m> Program<'m> {
    fn get(&self) -> &Decoded<'m> {
        match self {
            Program::Owned(d) => d,
            Program::Shared(d) => d,
        }
    }
}

/// The interpreter: flat ECC-protected memory, a call stack of register
/// frames, counters, optional timing, optional SEU injection.
///
/// # Example
///
/// ```
/// use rskip_ir::{ModuleBuilder, Operand, Ty, Value};
/// use rskip_exec::{Machine, NoopHooks};
///
/// let mut mb = ModuleBuilder::new("m");
/// let mut f = mb.function("main", vec![], Some(Ty::I64));
/// f.ret(Some(Operand::imm_i(42)));
/// f.finish();
/// let module = mb.finish();
///
/// let mut machine = Machine::new(&module, NoopHooks);
/// let outcome = machine.run("main", &[]);
/// assert!(matches!(
///     outcome.termination,
///     rskip_exec::Termination::Returned(Some(Value::I(42)))
/// ));
/// ```
pub struct Machine<'m, H> {
    program: Program<'m>,
    hooks: H,
    config: ExecConfig,
    mem: Vec<Value>,
    injection: Option<ArmedFault>,
    /// Recycled call frames: register vectors are reused across calls and
    /// across runs instead of reallocated.
    pool: Vec<Frame>,
    /// Recycled frames of the direct-threaded tier (flat-pc layout).
    tpool: Vec<crate::threaded::TFrame>,
}

impl<'m, H: RuntimeHooks> Machine<'m, H> {
    /// Creates a machine with default configuration.
    pub fn new(module: &'m Module, hooks: H) -> Self {
        Self::with_config(module, hooks, ExecConfig::default())
    }

    /// Creates a machine with an explicit configuration, decoding the
    /// module internally.
    pub fn with_config(module: &'m Module, hooks: H, config: ExecConfig) -> Self {
        Self::build(
            Program::Owned(Box::new(Decoded::new(module))),
            hooks,
            config,
        )
    }

    /// Creates a machine over a pre-built [`Decoded`], sharing it instead
    /// of decoding again — campaign drivers decode once and hand the same
    /// reference to every worker thread.
    pub fn from_decoded(decoded: &'m Decoded<'m>, hooks: H, config: ExecConfig) -> Self {
        Self::build(Program::Shared(decoded), hooks, config)
    }

    fn build(program: Program<'m>, hooks: H, config: ExecConfig) -> Self {
        let mut machine = Machine {
            program,
            hooks,
            config,
            mem: Vec::new(),
            injection: None,
            pool: Vec::new(),
            tpool: Vec::new(),
        };
        machine.reset_memory();
        machine
    }

    fn module(&self) -> &'m Module {
        self.program.get().module
    }

    /// Re-initializes memory from the global initializers.
    pub fn reset_memory(&mut self) {
        let module = self.module();
        self.mem.clear();
        self.mem.reserve(module.memory_cells());
        for g in &module.globals {
            match &g.init {
                Some(values) => self.mem.extend(values.iter().copied()),
                None => self
                    .mem
                    .extend(std::iter::repeat_n(Value::zero(g.ty), g.len)),
            }
        }
    }

    /// The cell range of a global, by name.
    pub fn global_range(&self, name: &str) -> Option<std::ops::Range<usize>> {
        let module = self.module();
        let id = module.global_by_name(name)?;
        let base = self.program.get().global_base[id.index()] as usize;
        Some(base..base + module.global(id).len)
    }

    /// Reads a global's cells.
    ///
    /// # Panics
    ///
    /// Panics if the global does not exist.
    pub fn read_global(&self, name: &str) -> &[Value] {
        let r = self
            .global_range(name)
            .unwrap_or_else(|| panic!("no global @{name}"));
        &self.mem[r]
    }

    /// Overwrites a global's cells (input loading).
    ///
    /// # Panics
    ///
    /// Panics if the global does not exist or `values` has the wrong
    /// length.
    pub fn write_global(&mut self, name: &str, values: &[Value]) {
        let r = self
            .global_range(name)
            .unwrap_or_else(|| panic!("no global @{name}"));
        assert_eq!(values.len(), r.len(), "length mismatch for @{name}");
        self.mem[r].copy_from_slice(values);
    }

    /// Full memory snapshot (output comparison).
    pub fn memory(&self) -> &[Value] {
        &self.mem
    }

    /// Access to the hooks (e.g. to read runtime statistics after a run).
    pub fn hooks(&self) -> &H {
        &self.hooks
    }

    /// Mutable access to the hooks.
    pub fn hooks_mut(&mut self) -> &mut H {
        &mut self.hooks
    }

    /// Arms random fault injection for the next run. The plan's
    /// [`FaultModel`](crate::FaultModel) selects the effect sampled at the trigger.
    pub fn set_injection(&mut self, plan: InjectionPlan) {
        self.injection = Some(ArmedFault::Random(plan));
    }

    /// Arms one deterministic single-bit flip for the next run
    /// (exhaustive-enumeration mode, SEU shorthand for
    /// [`Machine::set_exact_fault`]).
    pub fn set_exact_flip(&mut self, flip: ExactFlip) {
        self.set_exact_fault(flip.into());
    }

    /// Arms one deterministic fault of any model for the next run
    /// (exhaustive-enumeration mode).
    pub fn set_exact_fault(&mut self, fault: ExactFault) {
        self.injection = Some(ArmedFault::Exact(fault));
    }

    /// Arms a single-event upset against the prediction runtime's *own*
    /// state for the next run: once `trigger` region instructions have
    /// retired, [`RuntimeHooks::flip_runtime_state`] is asked to flip one
    /// bit of live predictor metadata. If the hooks hold no live state of
    /// the chosen kind at that boundary the fault stays armed and retries
    /// at every later one, inside or outside a region — predictor
    /// metadata (unlike program state) persists across region
    /// activations, and some of it is only resident briefly (a pending
    /// re-computation record lives from rejection to replay).
    pub fn set_runtime_state_flip(&mut self, trigger: u64, seed: u64) {
        self.injection = Some(ArmedFault::RuntimeState { trigger, seed });
    }

    /// Runs `func` with `args` to completion.
    ///
    /// # Panics
    ///
    /// Panics if the entry function does not exist or the argument count
    /// mismatches — entry setup errors are caller bugs, unlike in-run traps
    /// which are reported in the outcome.
    pub fn run(&mut self, func: &str, args: &[Value]) -> RunOutcome {
        self.run_inner(func, args, None)
    }

    /// Runs `func`, recording one [`TraceEntry`] per instruction boundary
    /// (the enumeration census). Traced runs always execute on the
    /// reference [`ExecTier::Match`] loop regardless of the configured
    /// tier — the census speaks in `(block, ip)` program points, which is
    /// what the oracle tier is defined over. Public so the vulnerability
    /// analysis (`rskip-vuln`) can take the same census the exhaustive
    /// enumerator uses and build per-section fault-site universes from it.
    pub fn run_traced(
        &mut self,
        func: &str,
        args: &[Value],
        trace: &mut Vec<TraceEntry>,
    ) -> RunOutcome {
        self.run_inner(func, args, Some(trace))
    }

    fn run_inner(
        &mut self,
        func: &str,
        args: &[Value],
        trace: Option<&mut Vec<TraceEntry>>,
    ) -> RunOutcome {
        let prog = self.program.get();
        let entry = prog
            .function_index(func)
            .unwrap_or_else(|| panic!("no function @{func}"));
        assert_eq!(
            args.len(),
            prog.funcs[entry].n_params,
            "argument count mismatch"
        );

        // Split the borrows: the decoded program is read-only for the whole
        // run while memory, hooks and the frame pool are mutated.
        let Machine {
            program,
            hooks,
            config,
            mem,
            injection,
            pool,
            tpool,
        } = self;
        // Traced (census) runs always go through the reference loop: the
        // trace wants (block, ip) program points, and the oracle tier is
        // what the census is defined against.
        if trace.is_none() && config.tier != ExecTier::Match {
            return crate::threaded::exec_threaded(
                program.get(),
                hooks,
                config,
                mem,
                tpool,
                injection.take(),
                entry,
                args,
            );
        }
        exec_loop(
            program.get(),
            hooks,
            config,
            mem,
            pool,
            injection.take(),
            trace,
            entry,
            args,
        )
    }
}

/// Pops a recycled frame (or a fresh one) and initializes it for `func`.
fn acquire_frame(pool: &mut Vec<Frame>, prog: &Decoded<'_>, func: usize) -> Frame {
    let init = &prog.funcs[func].reg_init;
    let n = init.len();
    let mut fr = pool.pop().unwrap_or_default();
    fr.func = func as u32;
    fr.block = 0;
    fr.ip = 0;
    fr.ret_dst = None;
    fr.regs.clear();
    fr.regs.extend_from_slice(init);
    fr.written.clear();
    fr.written.resize(n, false);
    fr.ready.clear();
    fr.ready.resize(n, 0);
    fr
}

#[inline]
fn eval(global_base: &[i64], frame: &Frame, op: Operand) -> Value {
    match op {
        Operand::Reg(r) => frame.regs[r.index()],
        Operand::ImmI(v) => Value::I(v),
        Operand::ImmF(v) => Value::F(v),
        Operand::Global(g) => Value::I(global_base[g.index()]),
    }
}

#[inline]
fn operand_ready(frame: &Frame, op: Operand) -> u64 {
    match op {
        Operand::Reg(r) => frame.ready[r.index()],
        _ => 0,
    }
}

#[inline]
fn write_reg(frame: &mut Frame, dst: Reg, v: Value, ready: u64) {
    frame.regs[dst.index()] = v;
    frame.written[dst.index()] = true;
    frame.ready[dst.index()] = ready;
}

/// Timing: gather source readiness and issue into the pipeline model.
#[inline]
fn issue(frame: &Frame, pipeline: &mut Option<Pipeline>, step: &DStep, addr: Option<i64>) -> u64 {
    match pipeline {
        None => 0,
        Some(p) => {
            let mut ready = 0u64;
            step.op.for_each_use(|op| {
                if let Operand::Reg(r) = op {
                    ready = ready.max(frame.ready[r.index()]);
                }
            });
            p.issue(step.class, ready, addr)
        }
    }
}

#[inline]
fn load_cell(mem: &[Value], addr: i64) -> Result<Value, Trap> {
    if addr < 0 || addr as usize >= mem.len() {
        return Err(Trap::OutOfBounds { addr });
    }
    Ok(mem[addr as usize])
}

#[inline]
fn store_cell(mem: &mut [Value], addr: i64, v: Value) -> Result<(), Trap> {
    if addr < 0 || addr as usize >= mem.len() {
        return Err(Trap::OutOfBounds { addr });
    }
    mem[addr as usize] = v;
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn exec_loop<H: RuntimeHooks>(
    prog: &Decoded<'_>,
    hooks: &mut H,
    config: &ExecConfig,
    mem: &mut [Value],
    pool: &mut Vec<Frame>,
    mut injection: Option<ArmedFault>,
    mut trace: Option<&mut Vec<TraceEntry>>,
    entry: usize,
    args: &[Value],
) -> RunOutcome {
    let global_base = &prog.global_base;
    let mut counters = Counters::default();
    let mut pipeline = config.timing.map(Pipeline::new);
    let mut prints = Vec::new();
    let mut region_depth: u32 = 0;
    let mut injected: Option<InjectionRecord> = None;
    let mut state_injected: Option<String> = None;
    // Instruction boundaries crossed so far. Differs from
    // `counters.retired` because intrinsic actions charge extra modeled
    // instructions; [`ExactFlip`] and the enumeration census count actual
    // boundaries so they stay in lockstep across runs.
    let mut boundary: u64 = 0;
    // Scratch for intrinsic argument values, reused across calls.
    let mut scratch: Vec<Value> = Vec::new();

    let mut stack: Vec<Frame> = Vec::with_capacity(16);
    let mut first = acquire_frame(pool, prog, entry);
    for (i, &a) in args.iter().enumerate() {
        first.regs[i] = a;
        first.written[i] = true;
    }
    stack.push(first);

    let termination = loop {
        // --- Fault injection at the instruction boundary. ---
        if let Some(armed) = injection
            .as_ref()
            .filter(|f| f.due(&counters, region_depth, boundary))
        {
            match armed {
                // A skip fault swallows the instruction the boundary is
                // about to execute; the effect (counters, position) is
                // applied here and the loop restarts at the next
                // boundary. It strikes architectural instructions only:
                // over an intrinsic boundary it holds fire (fall through,
                // execute the intrinsic) and retries at the next
                // boundary, like a runtime-state fault with no live
                // target.
                _ if armed.is_skip() => {
                    if !skip_holds_fire(&prog.funcs, point(stack.last().expect("frame"))) {
                        let (record, trap) =
                            fire_skip(prog, &mut stack, &mut counters, &mut boundary, region_depth);
                        injected = Some(record);
                        injection = None;
                        if let Some(trap) = trap {
                            break Termination::Trapped(trap);
                        }
                        continue;
                    }
                }
                ArmedFault::Random(plan) => {
                    injected =
                        inject_random(prog.module, plan, stack.as_mut_slice(), counters.retired);
                    injection = None;
                }
                ArmedFault::Exact(fault) => {
                    injected =
                        inject_exact(prog.module, fault, stack.as_mut_slice(), counters.retired);
                    injection = None;
                }
                ArmedFault::RuntimeState { seed, .. } => {
                    // The runtime may hold no live state of the chosen
                    // kind at this boundary; keep the fault armed and
                    // retry at the next one.
                    if let Some(site) = hooks.flip_runtime_state(*seed) {
                        state_injected = Some(site);
                        injection = None;
                    }
                }
            }
        }

        if counters.retired >= config.step_limit {
            break Termination::Trapped(Trap::StepLimit);
        }

        let frame = stack.last_mut().expect("non-empty stack");
        if let Some(trace) = trace.as_deref_mut() {
            trace.push(TraceEntry::capture(
                frame.func,
                frame.block,
                frame.ip,
                &frame.written,
            ));
        }
        boundary += 1;
        let block = &prog.funcs[frame.func as usize].blocks[frame.block as usize];

        if (frame.ip as usize) < block.insts.len() {
            let step = &block.insts[frame.ip as usize];
            frame.ip += 1;
            counters.retired += 1;
            if region_depth > 0 {
                counters.region_retired += 1;
            }

            match &step.op {
                DInst::Mov { dst, src } => {
                    let v = eval(global_base, frame, *src);
                    let done = issue(frame, &mut pipeline, step, None);
                    write_reg(frame, *dst, v, done);
                }
                DInst::Bin {
                    ty,
                    op,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let a = eval(global_base, frame, *lhs);
                    let b = eval(global_base, frame, *rhs);
                    let v = match bin_op(*ty, *op, a, b) {
                        Ok(v) => v,
                        Err(trap) => break Termination::Trapped(trap),
                    };
                    let done = issue(frame, &mut pipeline, step, None);
                    write_reg(frame, *dst, v, done);
                }
                DInst::Un { ty, op, dst, src } => {
                    let a = eval(global_base, frame, *src);
                    let v = un_op(*ty, *op, a);
                    let done = issue(frame, &mut pipeline, step, None);
                    write_reg(frame, *dst, v, done);
                }
                DInst::Cmp {
                    ty,
                    op,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let a = eval(global_base, frame, *lhs);
                    let b = eval(global_base, frame, *rhs);
                    let v = Value::I(cmp_op(*ty, *op, a, b) as i64);
                    let done = issue(frame, &mut pipeline, step, None);
                    write_reg(frame, *dst, v, done);
                }
                DInst::Select {
                    dst,
                    cond,
                    on_true,
                    on_false,
                } => {
                    let c = eval(global_base, frame, *cond).as_i();
                    let v = if c != 0 {
                        eval(global_base, frame, *on_true)
                    } else {
                        eval(global_base, frame, *on_false)
                    };
                    let done = issue(frame, &mut pipeline, step, None);
                    write_reg(frame, *dst, v, done);
                }
                DInst::Load { dst, addr } => {
                    counters.loads += 1;
                    let a = eval(global_base, frame, *addr).as_i();
                    let v = match load_cell(mem, a) {
                        Ok(v) => v,
                        Err(trap) => break Termination::Trapped(trap),
                    };
                    let done = issue(frame, &mut pipeline, step, Some(a));
                    write_reg(frame, *dst, v, done);
                }
                DInst::Store { addr, value } => {
                    counters.stores += 1;
                    let a = eval(global_base, frame, *addr).as_i();
                    let v = eval(global_base, frame, *value);
                    issue(frame, &mut pipeline, step, Some(a));
                    if let Err(trap) = store_cell(mem, a, v) {
                        break Termination::Trapped(trap);
                    }
                }
                DInst::Call { dst, target, args } => {
                    counters.calls += 1;
                    if stack.len() >= config.max_call_depth {
                        break Termination::Trapped(Trap::StackOverflow);
                    }
                    let mut new = acquire_frame(pool, prog, *target as usize);
                    let caller = stack.last_mut().expect("frame");
                    for (i, &a) in args.iter().enumerate() {
                        new.regs[i] = eval(global_base, caller, a);
                        new.written[i] = true;
                        if pipeline.is_some() {
                            new.ready[i] = operand_ready(caller, a);
                        }
                    }
                    issue(caller, &mut pipeline, step, None);
                    new.ret_dst = *dst;
                    stack.push(new);
                }
                DInst::CallUnknown { name } => {
                    counters.calls += 1;
                    if stack.len() >= config.max_call_depth {
                        break Termination::Trapped(Trap::StackOverflow);
                    }
                    break Termination::Trapped(Trap::UnknownFunction(name.to_string()));
                }
                DInst::IntrinsicCall { dst, intr, args } => {
                    scratch.clear();
                    for &a in args.iter() {
                        scratch.push(eval(global_base, frame, a));
                    }
                    match intr {
                        rskip_ir::Intrinsic::RegionEnter => region_depth += 1,
                        rskip_ir::Intrinsic::RegionExit => {
                            region_depth = region_depth.saturating_sub(1);
                        }
                        rskip_ir::Intrinsic::Print => prints.push(scratch[0]),
                        _ => {}
                    }
                    let action = hooks.intrinsic(*intr, &scratch);
                    counters.retired += action.cost;
                    if region_depth > 0 {
                        counters.region_retired += action.cost;
                    }
                    let frame = stack.last_mut().expect("frame");
                    let done = match pipeline.as_mut() {
                        None => 0,
                        Some(p) => {
                            let mut ready = 0u64;
                            for &op in args.iter() {
                                if let Operand::Reg(r) = op {
                                    ready = ready.max(frame.ready[r.index()]);
                                }
                            }
                            p.issue_bulk(1 + action.cost, ready)
                        }
                    };
                    if action.trap_detected {
                        break Termination::Trapped(Trap::FaultDetected);
                    }
                    if action.trap_abort {
                        break Termination::Trapped(Trap::RuntimeAbort);
                    }
                    if let (Some(d), Some(v)) = (dst, action.value) {
                        write_reg(frame, *d, v, done);
                    }
                }
            }
        } else {
            // Terminator.
            counters.retired += 1;
            if region_depth > 0 {
                counters.region_retired += 1;
            }
            match &block.term {
                DTerm::Br(t) => {
                    frame.block = *t;
                    frame.ip = 0;
                }
                DTerm::CondBr {
                    cond,
                    on_true,
                    on_false,
                } => {
                    let c = eval(global_base, frame, *cond);
                    let taken = c.as_i() != 0;
                    counters.branches += 1;
                    if let Some(p) = pipeline.as_mut() {
                        let site = (u64::from(frame.func) << 32) | u64::from(frame.block);
                        let ready = operand_ready(frame, *cond);
                        p.branch(site, taken, ready);
                    }
                    frame.block = if taken { *on_true } else { *on_false };
                    frame.ip = 0;
                }
                DTerm::Ret(v) => {
                    let value = v.map(|op| eval(global_base, frame, op));
                    let ready = v.map(|op| operand_ready(frame, op)).unwrap_or(0);
                    let ret_dst = frame.ret_dst;
                    let done = stack.pop().expect("frame");
                    pool.push(done);
                    match stack.last_mut() {
                        None => break Termination::Returned(value),
                        Some(caller) => {
                            if let (Some(dst), Some(val)) = (ret_dst, value) {
                                caller.regs[dst.index()] = val;
                                caller.written[dst.index()] = true;
                                caller.ready[dst.index()] = ready;
                            }
                        }
                    }
                }
            }
        }
    };

    // Recycle whatever frames remain (mid-stack trap or normal exit).
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

fn bin_op(ty: Ty, op: BinOp, a: Value, b: Value) -> Result<Value, Trap> {
    Ok(match ty {
        Ty::I64 => {
            let (x, y) = (a.as_i(), b.as_i());
            Value::I(match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Div => {
                    if y == 0 {
                        return Err(Trap::DivByZero);
                    }
                    x.wrapping_div(y)
                }
                BinOp::Rem => {
                    if y == 0 {
                        return Err(Trap::DivByZero);
                    }
                    x.wrapping_rem(y)
                }
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                BinOp::Shl => x.wrapping_shl((y & 63) as u32),
                BinOp::Shr => x.wrapping_shr((y & 63) as u32),
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
            })
        }
        Ty::F64 => {
            let (x, y) = (a.as_f(), b.as_f());
            Value::F(match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Rem => x % y,
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => {
                    unreachable!("verifier rejects bitwise float ops")
                }
            })
        }
    })
}

pub(crate) fn un_op(ty: Ty, op: UnOp, a: Value) -> Value {
    match op {
        UnOp::Neg => match ty {
            Ty::I64 => Value::I(a.as_i().wrapping_neg()),
            Ty::F64 => Value::F(-a.as_f()),
        },
        UnOp::Not => Value::I(!a.as_i()),
        UnOp::Sqrt => Value::F(a.as_f().sqrt()),
        UnOp::Exp => Value::F(a.as_f().exp()),
        UnOp::Log => Value::F(a.as_f().ln()),
        UnOp::Abs => match ty {
            Ty::I64 => Value::I(a.as_i().wrapping_abs()),
            Ty::F64 => Value::F(a.as_f().abs()),
        },
        UnOp::Floor => Value::F(a.as_f().floor()),
        UnOp::IntToFloat => Value::F(a.as_i() as f64),
        UnOp::FloatToInt => Value::I(a.as_f() as i64), // saturating in Rust
    }
}

fn cmp_op(ty: Ty, op: CmpOp, a: Value, b: Value) -> bool {
    match ty {
        Ty::I64 => {
            let (x, y) = (a.as_i(), b.as_i());
            match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }
        Ty::F64 => {
            let (x, y) = (a.as_f(), b.as_f());
            match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }
    }
}

/// The program point a reference frame executes next.
fn point(frame: &Frame) -> (u32, u32, u32) {
    (frame.func, frame.block, frame.ip)
}

impl FaultFrames for [Frame] {
    fn depth(&self) -> usize {
        self.len()
    }

    fn written(&self, fi: usize) -> &[bool] {
        &self[fi].written
    }

    fn reg_mut(&mut self, fi: usize, ri: usize) -> &mut Value {
        &mut self[fi].regs[ri]
    }

    fn point(&self, fi: usize) -> (u32, u32, u32) {
        point(&self[fi])
    }
}

/// Fires an instruction-skip fault: the instruction or terminator the
/// innermost frame would execute next retires as a bubble — counters and
/// the boundary census advance exactly as for a real retirement — but
/// nothing executes, and control falls through to the next instruction
/// (for a skipped terminator: the next block in layout order). Skipping
/// the terminator of a function's last block leaves nothing to fall
/// through to: [`Trap::CodeRunoff`].
fn fire_skip(
    prog: &Decoded<'_>,
    stack: &mut [Frame],
    counters: &mut Counters,
    boundary: &mut u64,
    region_depth: u32,
) -> (InjectionRecord, Option<Trap>) {
    let frame = stack.last_mut().expect("non-empty stack");
    let record = record(
        prog.module,
        point(frame),
        counters.retired,
        FaultEffect::SkippedInstruction,
    );
    // The bubble still retires.
    *boundary += 1;
    counters.retired += 1;
    if region_depth > 0 {
        counters.region_retired += 1;
    }
    let func = &prog.funcs[frame.func as usize];
    let block = &func.blocks[frame.block as usize];
    let trap = if (frame.ip as usize) < block.insts.len() {
        frame.ip += 1;
        None
    } else if (frame.block as usize) + 1 < func.blocks.len() {
        frame.block += 1;
        frame.ip = 0;
        None
    } else {
        Some(Trap::CodeRunoff)
    };
    (record, trap)
}

/// Convenience: run a module's entry function on a fresh machine without
/// hooks or timing (used pervasively by tests).
///
/// # Panics
///
/// Panics if `func` does not exist or arguments mismatch.
pub fn run_simple(module: &Module, func: &str, args: &[Value]) -> RunOutcome {
    let mut m = Machine::new(module, crate::NoopHooks);
    m.run(func, args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ExactFaultKind, FaultModel};
    use crate::hooks::NoopHooks;
    use rskip_ir::{Intrinsic, ModuleBuilder};

    fn returned_i(outcome: &RunOutcome) -> i64 {
        match outcome.termination {
            Termination::Returned(Some(Value::I(v))) => v,
            ref other => panic!("expected integer return, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_and_return() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![Ty::I64], Some(Ty::I64));
        let p = f.param(0);
        let x = f.bin(BinOp::Mul, Ty::I64, Operand::reg(p), Operand::imm_i(6));
        let y = f.bin(BinOp::Add, Ty::I64, Operand::reg(x), Operand::imm_i(2));
        f.ret(Some(Operand::reg(y)));
        f.finish();
        let m = mb.finish();
        let out = run_simple(&m, "main", &[Value::I(7)]);
        assert_eq!(returned_i(&out), 44);
        assert_eq!(out.counters.retired, 3); // mul, add, ret
    }

    #[test]
    fn loop_sums_global() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global_init("data", Ty::I64, (1..=10).map(Value::I).collect());
        let mut f = mb.function("main", vec![], Some(Ty::I64));
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
        let c = f.cmp(CmpOp::Lt, Ty::I64, Operand::reg(i), Operand::imm_i(10));
        f.cond_br(Operand::reg(c), body, exit);
        f.switch_to(body);
        let addr = f.bin(BinOp::Add, Ty::I64, Operand::global(g), Operand::reg(i));
        let v = f.load(Ty::I64, Operand::reg(addr));
        f.bin_into(acc, BinOp::Add, Ty::I64, Operand::reg(acc), Operand::reg(v));
        f.bin_into(i, BinOp::Add, Ty::I64, Operand::reg(i), Operand::imm_i(1));
        f.br(header);
        f.switch_to(exit);
        f.ret(Some(Operand::reg(acc)));
        f.finish();
        let m = mb.finish();
        let out = run_simple(&m, "main", &[]);
        assert_eq!(returned_i(&out), 55);
        assert_eq!(out.counters.loads, 10);
        assert_eq!(out.counters.branches, 11);
    }

    #[test]
    fn calls_pass_arguments_and_return() {
        let mut mb = ModuleBuilder::new("m");
        let mut sq = mb.function("square", vec![Ty::I64], Some(Ty::I64));
        let p = sq.param(0);
        let r = sq.bin(BinOp::Mul, Ty::I64, Operand::reg(p), Operand::reg(p));
        sq.ret(Some(Operand::reg(r)));
        sq.finish();
        let mut f = mb.function("main", vec![], Some(Ty::I64));
        let a = f
            .call("square", vec![Operand::imm_i(9)], Some(Ty::I64))
            .unwrap();
        let b = f
            .call("square", vec![Operand::reg(a)], Some(Ty::I64))
            .unwrap();
        f.ret(Some(Operand::reg(b)));
        f.finish();
        let m = mb.finish();
        let out = run_simple(&m, "main", &[]);
        assert_eq!(returned_i(&out), 6561);
        assert_eq!(out.counters.calls, 2);
    }

    #[test]
    fn out_of_bounds_load_traps() {
        let mut mb = ModuleBuilder::new("m");
        mb.global_zeroed("g", Ty::I64, 4);
        let mut f = mb.function("main", vec![], None);
        f.load(Ty::I64, Operand::imm_i(100));
        f.ret(None);
        f.finish();
        let m = mb.finish();
        let out = run_simple(&m, "main", &[]);
        assert_eq!(
            out.termination,
            Termination::Trapped(Trap::OutOfBounds { addr: 100 })
        );
    }

    #[test]
    fn negative_address_traps() {
        let mut mb = ModuleBuilder::new("m");
        mb.global_zeroed("g", Ty::I64, 4);
        let mut f = mb.function("main", vec![], None);
        f.store(Ty::I64, Operand::imm_i(-1), Operand::imm_i(0));
        f.ret(None);
        f.finish();
        let m = mb.finish();
        let out = run_simple(&m, "main", &[]);
        assert!(matches!(
            out.termination,
            Termination::Trapped(Trap::OutOfBounds { .. })
        ));
    }

    #[test]
    fn division_by_zero_traps() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![Ty::I64], Some(Ty::I64));
        let p = f.param(0);
        let d = f.bin(BinOp::Div, Ty::I64, Operand::imm_i(10), Operand::reg(p));
        f.ret(Some(Operand::reg(d)));
        f.finish();
        let m = mb.finish();
        let out = run_simple(&m, "main", &[Value::I(0)]);
        assert_eq!(out.termination, Termination::Trapped(Trap::DivByZero));
    }

    #[test]
    fn float_division_by_zero_is_not_a_trap() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![], Some(Ty::F64));
        let d = f.bin(
            BinOp::Div,
            Ty::F64,
            Operand::imm_f(1.0),
            Operand::imm_f(0.0),
        );
        f.ret(Some(Operand::reg(d)));
        f.finish();
        let m = mb.finish();
        let out = run_simple(&m, "main", &[]);
        match out.termination {
            Termination::Returned(Some(Value::F(v))) => assert_eq!(v, f64::INFINITY),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![], None);
        let spin = f.new_block("spin");
        f.br(spin);
        f.switch_to(spin);
        f.br(spin);
        f.finish();
        let m = mb.finish();
        let mut machine = Machine::with_config(
            &m,
            NoopHooks,
            ExecConfig {
                step_limit: 1000,
                ..ExecConfig::default()
            },
        );
        let out = machine.run("main", &[]);
        assert_eq!(out.termination, Termination::Trapped(Trap::StepLimit));
    }

    #[test]
    fn recursion_overflows_stack() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("rec", vec![], None);
        f.call("rec", vec![], None);
        f.ret(None);
        f.finish();
        let m = mb.finish();
        let out = run_simple(&m, "rec", &[]);
        assert_eq!(out.termination, Termination::Trapped(Trap::StackOverflow));
    }

    #[test]
    fn unknown_callee_traps_when_reached() {
        // The decoder marks the call unresolved; the trap fires only if the
        // call actually executes.
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![Ty::I64], Some(Ty::I64));
        let p = f.param(0);
        let entry = f.entry_block();
        let bad = f.new_block("bad");
        let good = f.new_block("good");
        f.switch_to(entry);
        f.cond_br(Operand::reg(p), bad, good);
        f.switch_to(bad);
        f.call("missing", vec![], None);
        f.ret(Some(Operand::imm_i(0)));
        f.switch_to(good);
        f.ret(Some(Operand::imm_i(7)));
        f.finish();
        let m = mb.finish();

        let ok = run_simple(&m, "main", &[Value::I(0)]);
        assert_eq!(returned_i(&ok), 7);

        let bad = run_simple(&m, "main", &[Value::I(1)]);
        assert_eq!(
            bad.termination,
            Termination::Trapped(Trap::UnknownFunction("missing".into()))
        );
    }

    #[test]
    fn shared_decode_matches_owned_decode() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![Ty::I64], Some(Ty::I64));
        let p = f.param(0);
        let x = f.bin(BinOp::Mul, Ty::I64, Operand::reg(p), Operand::reg(p));
        f.ret(Some(Operand::reg(x)));
        f.finish();
        let m = mb.finish();

        let decoded = Decoded::new(&m);
        let mut shared = Machine::from_decoded(&decoded, NoopHooks, ExecConfig::default());
        let mut owned = Machine::new(&m, NoopHooks);
        for v in [-3i64, 0, 12] {
            let a = shared.run("main", &[Value::I(v)]);
            let b = owned.run("main", &[Value::I(v)]);
            assert_eq!(a.termination, b.termination);
            assert_eq!(a.counters.retired, b.counters.retired);
        }
    }

    #[test]
    fn frame_pool_reuses_allocations_across_runs() {
        let mut mb = ModuleBuilder::new("m");
        let mut sq = mb.function("square", vec![Ty::I64], Some(Ty::I64));
        let p = sq.param(0);
        let r = sq.bin(BinOp::Mul, Ty::I64, Operand::reg(p), Operand::reg(p));
        sq.ret(Some(Operand::reg(r)));
        sq.finish();
        let mut f = mb.function("main", vec![], Some(Ty::I64));
        let a = f
            .call("square", vec![Operand::imm_i(3)], Some(Ty::I64))
            .unwrap();
        f.ret(Some(Operand::reg(a)));
        f.finish();
        let m = mb.finish();

        let mut machine = Machine::with_config(
            &m,
            NoopHooks,
            ExecConfig {
                tier: ExecTier::Match,
                ..ExecConfig::default()
            },
        );
        for _ in 0..3 {
            let out = machine.run("main", &[]);
            assert_eq!(returned_i(&out), 9);
        }
        // Both frames of the deepest run were recycled.
        assert_eq!(machine.pool.len(), 2);

        // Same property for the threaded tier's own pool.
        let mut machine = Machine::with_config(
            &m,
            NoopHooks,
            ExecConfig {
                tier: ExecTier::Threaded,
                ..ExecConfig::default()
            },
        );
        for _ in 0..3 {
            let out = machine.run("main", &[]);
            assert_eq!(returned_i(&out), 9);
        }
        assert_eq!(machine.tpool.len(), 2);
    }

    #[test]
    fn print_intrinsic_collects_values() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![], None);
        f.intrinsic(Intrinsic::Print, vec![Operand::imm_f(2.5)]);
        f.intrinsic(Intrinsic::Print, vec![Operand::imm_i(3)]);
        f.ret(None);
        f.finish();
        let m = mb.finish();
        let out = run_simple(&m, "main", &[]);
        assert_eq!(out.prints, vec![Value::F(2.5), Value::I(3)]);
    }

    #[test]
    fn region_markers_scope_region_counters() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![], None);
        f.bin(BinOp::Add, Ty::I64, Operand::imm_i(1), Operand::imm_i(2));
        f.intrinsic(Intrinsic::RegionEnter, vec![Operand::imm_i(0)]);
        f.bin(BinOp::Add, Ty::I64, Operand::imm_i(1), Operand::imm_i(2));
        f.bin(BinOp::Add, Ty::I64, Operand::imm_i(1), Operand::imm_i(2));
        f.intrinsic(Intrinsic::RegionExit, vec![Operand::imm_i(0)]);
        f.bin(BinOp::Add, Ty::I64, Operand::imm_i(1), Operand::imm_i(2));
        f.ret(None);
        f.finish();
        let m = mb.finish();
        let out = run_simple(&m, "main", &[]);
        // region_retired: the two adds inside + the region_exit intrinsic
        // instruction itself (region_enter increments depth before the
        // count? No: counts occur before execution — region_enter retires
        // while depth is still 0).
        assert_eq!(out.counters.region_retired, 3);
        assert!(out.counters.retired > out.counters.region_retired);
    }

    #[test]
    fn write_and_read_globals() {
        let mut mb = ModuleBuilder::new("m");
        mb.global_zeroed("buf", Ty::F64, 4);
        let mut f = mb.function("main", vec![], None);
        f.ret(None);
        f.finish();
        let m = mb.finish();
        let mut machine = Machine::new(&m, NoopHooks);
        machine.write_global(
            "buf",
            &[Value::F(1.0), Value::F(2.0), Value::F(3.0), Value::F(4.0)],
        );
        assert_eq!(machine.read_global("buf")[2], Value::F(3.0));
        machine.reset_memory();
        assert_eq!(machine.read_global("buf")[2], Value::F(0.0));
    }

    #[test]
    fn timing_produces_cycles_and_ipc() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![], Some(Ty::F64));
        let mut v = f.mov_new(Ty::F64, Operand::imm_f(1.0));
        for _ in 0..20 {
            v = f.bin(BinOp::Mul, Ty::F64, Operand::reg(v), Operand::imm_f(1.01));
        }
        f.ret(Some(Operand::reg(v)));
        f.finish();
        let m = mb.finish();
        let mut machine = Machine::with_config(
            &m,
            NoopHooks,
            ExecConfig {
                timing: Some(PipelineConfig::default()),
                ..ExecConfig::default()
            },
        );
        let out = machine.run("main", &[]);
        // Dependent FpMul chain: ~4 cycles per op, IPC well below 1.
        assert!(
            out.counters.cycles >= 60,
            "cycles = {}",
            out.counters.cycles
        );
        assert!(out.counters.ipc() < 1.0);
    }

    #[test]
    fn independent_ops_get_higher_ipc_than_dependent_chain() {
        let build = |dependent: bool| {
            let mut mb = ModuleBuilder::new("m");
            let mut f = mb.function("main", vec![], Some(Ty::F64));
            let mut v = f.mov_new(Ty::F64, Operand::imm_f(1.0));
            for _ in 0..50 {
                if dependent {
                    v = f.bin(BinOp::Add, Ty::F64, Operand::reg(v), Operand::imm_f(1.0));
                } else {
                    f.bin(
                        BinOp::Add,
                        Ty::F64,
                        Operand::imm_f(1.0),
                        Operand::imm_f(1.0),
                    );
                }
            }
            f.ret(Some(Operand::reg(v)));
            f.finish();
            mb.finish()
        };
        let run = |m: &Module| {
            let mut machine = Machine::with_config(
                m,
                NoopHooks,
                ExecConfig {
                    timing: Some(PipelineConfig::default()),
                    ..ExecConfig::default()
                },
            );
            machine.run("main", &[]).counters.ipc()
        };
        let dep = build(true);
        let indep = build(false);
        assert!(run(&indep) > 2.0 * run(&dep));
    }

    #[test]
    fn injection_flips_exactly_one_live_register() {
        // A long loop; inject mid-way and check the record.
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global_zeroed("out", Ty::I64, 1);
        let mut f = mb.function("main", vec![], None);
        let entry = f.entry_block();
        let body = f.new_block("body");
        let exit = f.new_block("exit");
        let i = f.def_reg(Ty::I64, "i");
        let acc = f.def_reg(Ty::I64, "acc");
        f.switch_to(entry);
        f.intrinsic(Intrinsic::RegionEnter, vec![Operand::imm_i(0)]);
        f.mov(i, Operand::imm_i(0));
        f.mov(acc, Operand::imm_i(0));
        f.br(body);
        f.switch_to(body);
        f.bin_into(acc, BinOp::Add, Ty::I64, Operand::reg(acc), Operand::reg(i));
        f.bin_into(i, BinOp::Add, Ty::I64, Operand::reg(i), Operand::imm_i(1));
        let c = f.cmp(CmpOp::Lt, Ty::I64, Operand::reg(i), Operand::imm_i(1000));
        f.cond_br(Operand::reg(c), body, exit);
        f.switch_to(exit);
        f.store(Ty::I64, Operand::global(g), Operand::reg(acc));
        f.intrinsic(Intrinsic::RegionExit, vec![Operand::imm_i(0)]);
        f.ret(None);
        f.finish();
        let m = mb.finish();

        // Golden run. Corrupting the loop counter can spin the loop toward
        // the step limit (a *Hang* in campaign terms), so keep the budget
        // small here.
        let config = ExecConfig {
            step_limit: 200_000,
            ..ExecConfig::default()
        };
        let golden = {
            let mut machine = Machine::with_config(&m, NoopHooks, config.clone());
            machine.run("main", &[]);
            machine.read_global("out").to_vec()
        };

        let mut corrupted = 0;
        for seed in 0..20 {
            let mut machine = Machine::with_config(&m, NoopHooks, config.clone());
            machine.set_injection(InjectionPlan {
                trigger: 500,
                seed,
                anywhere: false,
                model: FaultModel::SingleBitSeu,
            });
            let out = machine.run("main", &[]);
            let rec = out.injection.expect("target found");
            assert_eq!(rec.effect.flipped_bits().count_ones(), 1);
            if machine.read_global("out") != golden.as_slice() {
                corrupted += 1;
            }
        }
        // Some seeds corrupt the sum (SDC), some are masked (flip in a
        // dead/low-impact position); both must occur across 20 seeds.
        assert!(corrupted > 0, "no injection ever corrupted the output");
        assert!(corrupted < 20, "every injection corrupted the output");
    }

    #[test]
    fn injection_respects_region_scope() {
        // No region markers at all: with anywhere=false the plan never
        // fires.
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![], Some(Ty::I64));
        let x = f.bin(BinOp::Add, Ty::I64, Operand::imm_i(1), Operand::imm_i(2));
        f.ret(Some(Operand::reg(x)));
        f.finish();
        let m = mb.finish();
        let mut machine = Machine::new(&m, NoopHooks);
        machine.set_injection(InjectionPlan {
            trigger: 0,
            seed: 1,
            anywhere: false,
            model: FaultModel::SingleBitSeu,
        });
        let out = machine.run("main", &[]);
        assert!(out.injection.is_none());
        assert_eq!(returned_i(&out), 3);
    }

    /// A three-instruction straight-line function for exact-fault probes:
    /// `x = 1 + 2; y = x * 10; ret y`.
    fn straight_line() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![], Some(Ty::I64));
        let x = f.bin(BinOp::Add, Ty::I64, Operand::imm_i(1), Operand::imm_i(2));
        let y = f.bin(BinOp::Mul, Ty::I64, Operand::reg(x), Operand::imm_i(10));
        f.ret(Some(Operand::reg(y)));
        f.finish();
        mb.finish()
    }

    #[test]
    fn skip_fault_turns_instruction_into_bubble() {
        // Skipping `y = x * 10` leaves y at its frame-init value, so the
        // ret returns stale data instead of 30 — while the retired count
        // still includes the bubble.
        let m = straight_line();
        // Clean run: boundaries are 0:(add) 1:(mul) 2:(ret).
        let clean = run_simple(&m, "main", &[]);
        assert_eq!(returned_i(&clean), 30);
        assert_eq!(clean.counters.retired, 3);

        // Skip the mul at boundary 1: y keeps the frame-default value.
        let mut machine = Machine::new(&m, NoopHooks);
        machine.set_exact_fault(ExactFault {
            at: 1,
            kind: ExactFaultKind::Skip,
        });
        let out = machine.run("main", &[]);
        let rec = out.injection.as_ref().expect("skip fired");
        assert_eq!(rec.effect, FaultEffect::SkippedInstruction);
        assert_eq!(rec.at_retired, 1);
        assert_eq!(rec.ip, 1, "records the skipped instruction's position");
        // The bubble still retires: same dynamic instruction count.
        assert_eq!(out.counters.retired, clean.counters.retired);
        assert_ne!(returned_i(&out), 30, "skipped mul must change the result");
    }

    #[test]
    fn skipping_final_terminator_runs_off_the_code() {
        let m = straight_line();
        let mut machine = Machine::new(&m, NoopHooks);
        machine.set_exact_fault(ExactFault {
            at: 2,
            kind: ExactFaultKind::Skip,
        });
        let out = machine.run("main", &[]);
        assert!(out.injection.is_some(), "skip of the ret fires");
        assert_eq!(
            out.termination,
            Termination::Trapped(Trap::CodeRunoff),
            "skipping the last block's terminator leaves nothing to run"
        );
    }

    #[test]
    fn skip_past_program_end_never_fires() {
        // Dead-target accounting: the boundary census of the program is
        // 0..3, so a skip armed at boundary 1000 must report *no*
        // injection rather than silently pretending it fired.
        let m = straight_line();
        let mut machine = Machine::new(&m, NoopHooks);
        machine.set_exact_fault(ExactFault {
            at: 1000,
            kind: ExactFaultKind::Skip,
        });
        let out = machine.run("main", &[]);
        assert!(out.injection.is_none(), "skip past program end is dead");
        assert_eq!(returned_i(&out), 30);
    }

    #[test]
    fn skip_holds_fire_over_intrinsic_boundary() {
        // Boundaries: 0:(x = 1 + 2) 1:(print x) 2:(y = x * 10) 3:(ret y).
        // A skip armed at the print boundary must not swallow the
        // intrinsic; it holds fire and strikes the mul instead.
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![], Some(Ty::I64));
        let x = f.bin(BinOp::Add, Ty::I64, Operand::imm_i(1), Operand::imm_i(2));
        f.intrinsic(Intrinsic::Print, vec![Operand::reg(x)]);
        let y = f.bin(BinOp::Mul, Ty::I64, Operand::reg(x), Operand::imm_i(10));
        f.ret(Some(Operand::reg(y)));
        f.finish();
        let m = mb.finish();

        let mut machine = Machine::new(&m, NoopHooks);
        machine.set_exact_fault(ExactFault {
            at: 1,
            kind: ExactFaultKind::Skip,
        });
        let out = machine.run("main", &[]);
        let rec = out.injection.as_ref().expect("held skip fires later");
        assert_eq!(rec.effect, FaultEffect::SkippedInstruction);
        assert_eq!(
            rec.ip, 2,
            "strikes the mul after the intrinsic, not the intrinsic"
        );
        assert_eq!(
            out.prints,
            vec![Value::I(3)],
            "the intrinsic still executed"
        );
        assert_ne!(returned_i(&out), 30, "the mul was the instruction skipped");
    }

    #[test]
    fn burst_on_unwritten_register_never_fires() {
        let m = straight_line();
        // Reg 1 (y) is unwritten at boundary 1 (only x has been written).
        let mut machine = Machine::new(&m, NoopHooks);
        machine.set_exact_fault(ExactFault {
            at: 1,
            kind: ExactFaultKind::Burst {
                reg: Reg(1),
                start: 0,
                width: 8,
            },
        });
        let out = machine.run("main", &[]);
        assert!(out.injection.is_none(), "burst on dead register is dead");
        assert_eq!(returned_i(&out), 30);
    }

    #[test]
    fn exact_burst_flips_the_window() {
        let m = straight_line();
        // x = 3 at boundary 1; flip bits 0..4 of it: 3 ^ 0b1111 = 12, so
        // the ret returns 120.
        let mut machine = Machine::new(&m, NoopHooks);
        machine.set_exact_fault(ExactFault {
            at: 1,
            kind: ExactFaultKind::Burst {
                reg: Reg(0),
                start: 0,
                width: 4,
            },
        });
        let out = machine.run("main", &[]);
        let rec = out.injection.as_ref().expect("burst fired");
        match rec.effect {
            FaultEffect::Burst {
                reg,
                start,
                width,
                old_bits,
                new_bits,
            } => {
                assert_eq!((reg, start, width), (Reg(0), 0, 4));
                assert_eq!(old_bits ^ new_bits, 0b1111);
            }
            ref other => panic!("expected burst effect, got {other:?}"),
        }
        assert_eq!(returned_i(&out), 120);
    }

    #[test]
    fn random_burst_flips_a_contiguous_window() {
        let m = straight_line();
        for seed in 0..16 {
            let mut machine = Machine::new(&m, NoopHooks);
            machine.set_injection(InjectionPlan {
                trigger: 1,
                seed,
                anywhere: true,
                model: FaultModel::MultiBitBurst { width: 5 },
            });
            let out = machine.run("main", &[]);
            let rec = out.injection.as_ref().expect("live target exists");
            let mask = rec.effect.flipped_bits();
            assert_eq!(mask.count_ones(), 5, "seed {seed}: window width");
            assert_eq!(
                mask >> mask.trailing_zeros(),
                0b11111,
                "seed {seed}: window contiguity"
            );
        }
    }

    #[test]
    fn random_skip_fires_as_bubble() {
        let m = straight_line();
        let mut machine = Machine::new(&m, NoopHooks);
        machine.set_injection(InjectionPlan {
            trigger: 1,
            seed: 7,
            anywhere: true,
            model: FaultModel::InstructionSkip,
        });
        let out = machine.run("main", &[]);
        let rec = out.injection.as_ref().expect("skip fired");
        assert_eq!(rec.effect, FaultEffect::SkippedInstruction);
        assert_ne!(returned_i(&out), 30);
    }

    #[test]
    fn tier_names_parse_and_the_removed_nofuse_name_aliases_threaded() {
        for tier in [ExecTier::Match, ExecTier::Threaded] {
            assert_eq!(ExecTier::parse(tier.label()), Some(tier));
        }
        assert_eq!(ExecTier::parse("threaded-nofuse"), Some(ExecTier::Threaded));
        assert_eq!(ExecTier::parse("garbage"), None);
    }
}
