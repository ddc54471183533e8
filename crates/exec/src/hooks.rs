//! The runtime-hooks interface between the interpreter and the RSkip
//! prediction runtime.
//!
//! The protocol is deliberately predictor-agnostic: intrinsics speak only
//! in regions, iterations and pending work, never in terms of a specific
//! prediction model: how the runtime cascades its predictors
//! (`rskip-runtime`'s region state) is invisible at this interface.

use std::any::Any;

use rskip_ir::{Intrinsic, Value};

/// A saved copy of hook state, as a [`Checkpoint`](crate::Checkpoint)
/// carries it: type-erased, and shareable across the trials that resume
/// from the checkpoint. Hooks without state save `()`.
pub type HookState = Box<dyn Any + Send + Sync>;

/// What an intrinsic call produced.
///
/// `cost` is the modeled instruction count of the runtime work — the real
/// RSkip runtime executes ordinary instructions, which PAPI would count;
/// we charge them explicitly so dynamic-instruction and cycle comparisons
/// against the unprotected program remain honest.
#[derive(Clone, Debug, PartialEq)]
pub struct IntrinsicAction {
    /// The produced value for value-returning intrinsics.
    pub value: Option<Value>,
    /// Modeled dynamic instructions consumed by the runtime call.
    pub cost: u64,
    /// When true, the machine traps with
    /// [`Trap::FaultDetected`](crate::Trap::FaultDetected) (the SWIFT
    /// detection-only handler).
    pub trap_detected: bool,
    /// When true, the runtime observed a violation of its calling
    /// protocol that would abort the host process (e.g. a pending-field
    /// read with no pending element); the machine traps with
    /// [`Trap::RuntimeAbort`](crate::Trap::RuntimeAbort). Only reachable
    /// under fault injection.
    pub trap_abort: bool,
}

impl IntrinsicAction {
    /// A void action with the given cost.
    pub fn void(cost: u64) -> Self {
        IntrinsicAction {
            value: None,
            cost,
            trap_detected: false,
            trap_abort: false,
        }
    }

    /// A value-producing action with the given cost.
    pub fn value(v: Value, cost: u64) -> Self {
        IntrinsicAction {
            value: Some(v),
            cost,
            trap_detected: false,
            trap_abort: false,
        }
    }

    /// A protocol-violation abort with the given cost.
    pub fn abort(cost: u64) -> Self {
        IntrinsicAction {
            value: None,
            cost,
            trap_detected: false,
            trap_abort: true,
        }
    }
}

/// Implemented by the prediction runtime (`rskip-runtime`); a no-op
/// implementation ([`NoopHooks`]) serves unprotected and conventionally
/// protected runs.
pub trait RuntimeHooks {
    /// Handles one `rskip.*` intrinsic call.
    ///
    /// The machine handles `region_enter`/`region_exit` bookkeeping and the
    /// `print` intrinsic itself but still forwards them here so the runtime
    /// can maintain per-region state.
    fn intrinsic(&mut self, intr: Intrinsic, args: &[Value]) -> IntrinsicAction;

    /// Flips one bit of the runtime's *own* live state (predictor phase
    /// registers, memo-table entries, pending re-computation records,
    /// counters) — the fault model for SEUs striking the protection
    /// machinery itself rather than the protected program's data.
    /// Returns a site label, or `None` when the runtime holds no live
    /// state of the requested kind right now (the machine keeps the
    /// fault armed and retries on the next opportunity). The default —
    /// for hooks without runtime state — has nothing to corrupt.
    fn flip_runtime_state(&mut self, seed: u64) -> Option<String> {
        let _ = seed;
        None
    }

    /// Saves a copy of the hooks' state for a
    /// [`Checkpoint`](crate::Checkpoint), or `None` when the hooks
    /// cannot be resumed (the default). A run that resumes from the
    /// checkpoint hands this copy to [`restore_state`] of its own hooks,
    /// so the copy must hold everything later intrinsic answers depend
    /// on.
    ///
    /// [`restore_state`]: RuntimeHooks::restore_state
    fn save_state(&self) -> Option<HookState> {
        None
    }

    /// Replaces the hooks' state with `state`, which [`save_state`]
    /// returned at a checkpoint of another run, and returns `true`.
    /// Returns `false`, leaving the hooks unchanged, for a state these
    /// hooks would not have saved at that point of their own run: one
    /// of another type, or saved by hooks built differently (another
    /// configuration or model). Hooks that cannot be resumed refuse
    /// every state (the default).
    ///
    /// [`save_state`]: RuntimeHooks::save_state
    fn restore_state(&mut self, state: &(dyn Any + Send + Sync)) -> bool {
        let _ = state;
        false
    }
}

/// Hooks for runs without a prediction runtime: version selection always
/// picks the conventional path, pending queues are empty, costs are zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopHooks;

impl RuntimeHooks for NoopHooks {
    fn intrinsic(&mut self, intr: Intrinsic, _args: &[Value]) -> IntrinsicAction {
        match intr {
            Intrinsic::SelectVersion => IntrinsicAction::value(Value::I(0), 1),
            Intrinsic::NextPending => IntrinsicAction::value(Value::I(-1), 1),
            Intrinsic::PendingAddr | Intrinsic::PendingArgI => {
                IntrinsicAction::value(Value::I(0), 1)
            }
            Intrinsic::PendingArgF => IntrinsicAction::value(Value::F(0.0), 1),
            Intrinsic::Detect => IntrinsicAction {
                value: None,
                cost: 1,
                trap_detected: true,
                trap_abort: false,
            },
            _ => IntrinsicAction::void(0),
        }
    }

    fn save_state(&self) -> Option<HookState> {
        Some(Box::new(()))
    }

    fn restore_state(&mut self, state: &(dyn Any + Send + Sync)) -> bool {
        state.is::<()>()
    }
}

/// `&mut H` forwards, so a machine can borrow hooks owned elsewhere.
impl<H: RuntimeHooks + ?Sized> RuntimeHooks for &mut H {
    fn intrinsic(&mut self, intr: Intrinsic, args: &[Value]) -> IntrinsicAction {
        (**self).intrinsic(intr, args)
    }

    fn flip_runtime_state(&mut self, seed: u64) -> Option<String> {
        (**self).flip_runtime_state(seed)
    }

    fn save_state(&self) -> Option<HookState> {
        (**self).save_state()
    }

    fn restore_state(&mut self, state: &(dyn Any + Send + Sync)) -> bool {
        (**self).restore_state(state)
    }
}

/// `None` behaves exactly like [`NoopHooks`], so one hooks type serves
/// a scheme with a prediction runtime (`Some`) and one without (`None`).
impl<H: RuntimeHooks> RuntimeHooks for Option<H> {
    fn intrinsic(&mut self, intr: Intrinsic, args: &[Value]) -> IntrinsicAction {
        match self {
            Some(h) => h.intrinsic(intr, args),
            None => NoopHooks.intrinsic(intr, args),
        }
    }

    fn flip_runtime_state(&mut self, seed: u64) -> Option<String> {
        self.as_mut().and_then(|h| h.flip_runtime_state(seed))
    }

    fn save_state(&self) -> Option<HookState> {
        match self {
            Some(h) => h.save_state(),
            None => NoopHooks.save_state(),
        }
    }

    fn restore_state(&mut self, state: &(dyn Any + Send + Sync)) -> bool {
        match self {
            Some(h) => h.restore_state(state),
            None => NoopHooks.restore_state(state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_hooks_select_conventional_version() {
        let mut h = NoopHooks;
        let a = h.intrinsic(Intrinsic::SelectVersion, &[Value::I(0)]);
        assert_eq!(a.value, Some(Value::I(0)));
        let a = h.intrinsic(Intrinsic::NextPending, &[Value::I(0)]);
        assert_eq!(a.value, Some(Value::I(-1)));
    }

    #[test]
    fn noop_detect_traps() {
        let mut h = NoopHooks;
        assert!(h.intrinsic(Intrinsic::Detect, &[]).trap_detected);
    }

    #[test]
    fn absent_hooks_act_like_noop_hooks() {
        let mut none: Option<NoopHooks> = None;
        for intr in Intrinsic::ALL {
            let args = [Value::I(0), Value::I(1)];
            assert_eq!(
                none.intrinsic(intr, &args),
                NoopHooks.intrinsic(intr, &args)
            );
        }
        assert_eq!(none.flip_runtime_state(7), None);
        let empty = none.save_state().expect("absent hooks can be resumed");
        assert!(none.restore_state(&*empty));
        assert!(!none.restore_state(&7u32));
    }
}
