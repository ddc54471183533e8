//! The intrinsic handler wiring region state to the execution substrate.

use std::any::Any;

use rskip_core::RegionPlan;
use rskip_exec::{HookState, IntrinsicAction, RuntimeHooks};
use rskip_ir::{Intrinsic, Value};
use rskip_predict::DiConfig;

use crate::costs;
use crate::region::{RegionState, RegionStats};
use crate::supervisor::SupervisorPolicy;
use crate::train::TrainedModel;

/// Which class of live runtime state a state-fault injection targets —
/// the SEU campaign over the protection machinery's *own* metadata
/// rather than the protected program's data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateFaultTarget {
    /// A populated memoization-table entry.
    MemoTable,
    /// A dynamic-interpolation phase register (endpoint values, running
    /// slope).
    DiPhase,
    /// A pending re-computation record (recorded iteration, address, or
    /// arguments) — the one class whose corruption can overwrite correct
    /// memory on replay.
    PendingQueue,
    /// An aggregate statistics counter.
    Counters,
}

impl StateFaultTarget {
    /// Every target class, in campaign order.
    pub const ALL: [StateFaultTarget; 4] = [
        StateFaultTarget::MemoTable,
        StateFaultTarget::DiPhase,
        StateFaultTarget::PendingQueue,
        StateFaultTarget::Counters,
    ];

    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            StateFaultTarget::MemoTable => "memo-table",
            StateFaultTarget::DiPhase => "di-phase",
            StateFaultTarget::PendingQueue => "pending-queue",
            StateFaultTarget::Counters => "counters",
        }
    }
}

/// Observation period of run-time management, in observed elements
/// (Fig. 6's observe/adjust cadence): each region re-evaluates its
/// context signature once per period.
const TICK_PERIOD: u64 = 256;

/// Deployment-time configuration of the prediction runtime.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RuntimeConfig {
    /// Acceptable range for fuzzy validation (the paper evaluates 0.2,
    /// 0.5, 0.8 and 1.0 as AR20..AR100).
    pub acceptable_range: f64,
    /// Starting tuning parameter before any QoS adjustment.
    pub default_tp: f64,
    /// Master switch for the PP versions (false forces CP everywhere —
    /// useful for A/B measurements on the same binary, like the paper's
    /// run-time management does when PP has no expected benefit).
    pub enable_pp: bool,
    /// Enable the second-level predictor where a memoizer is installed.
    pub enable_memo: bool,
    /// Install a per-region runtime supervisor (online health monitor
    /// and circuit breaker). `None` reproduces the historical
    /// always-predict behavior.
    pub supervisor: Option<SupervisorPolicy>,
    /// Harden the runtime's own metadata: shadow-voted DI phase
    /// registers, cross-checked memo lookups, checksummed pending
    /// records, invariant-clamped counters.
    pub harden: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            acceptable_range: 0.2,
            default_tp: 0.5,
            enable_pp: true,
            enable_memo: true,
            supervisor: None,
            harden: false,
        }
    }
}

impl RuntimeConfig {
    /// Convenience constructor for the paper's AR settings (`0.2` = AR20).
    pub fn with_ar(acceptable_range: f64) -> Self {
        RuntimeConfig {
            acceptable_range,
            ..Self::default()
        }
    }
}

/// Region metadata the runtime needs. This is the shared
/// [`RegionPlan`] from `rskip-core` — the pass driver produces it (as
/// part of a [`ProtectionPlan`](rskip_core::ProtectionPlan)) and the
/// runtime consumes it, so the two layers agree on one type instead of
/// mirroring each other's structs.
pub type RegionInit = RegionPlan;

/// The RSkip prediction runtime: implements the `rskip.*` intrinsics over
/// per-region [`RegionState`].
///
/// # Example
///
/// ```
/// use rskip_runtime::{PredictionRuntime, RuntimeConfig};
/// use rskip_runtime::RegionInit;
///
/// let regions = vec![RegionInit {
///     region: 0,
///     has_body: true,
///     memoizable: false,
///     acceptable_range: None,
/// }];
/// let rt = PredictionRuntime::new(&regions, RuntimeConfig::with_ar(0.2));
/// assert_eq!(rt.stats(0).elements, 0);
/// ```
#[derive(Clone, Debug)]
pub struct PredictionRuntime {
    regions: Vec<RegionState>,
    inits: Vec<RegionInit>,
    config: RuntimeConfig,
    /// Target class for [`RuntimeHooks::flip_runtime_state`] injections;
    /// `None` lets the seed pick the class.
    state_fault_target: Option<StateFaultTarget>,
}

impl PredictionRuntime {
    /// Creates an untrained runtime (no QoS table, no memoizer).
    pub fn new(regions: &[RegionInit], config: RuntimeConfig) -> Self {
        let max_id = regions.iter().map(|r| r.region).max().map_or(0, |m| m + 1);
        let mut states = Vec::with_capacity(max_id as usize);
        let mut inits = Vec::with_capacity(max_id as usize);
        for id in 0..max_id {
            let init = regions
                .iter()
                .find(|r| r.region == id)
                .cloned()
                .unwrap_or_else(|| RegionInit::unprotected(id));
            let ar = init.acceptable_range.unwrap_or(config.acceptable_range);
            let mut state = RegionState::new(
                DiConfig {
                    tp: config.default_tp,
                    ar,
                },
                init.has_body,
                TICK_PERIOD,
            );
            if let Some(policy) = config.supervisor {
                state.set_supervisor(policy);
            }
            if config.harden {
                state.set_harden(true);
            }
            states.push(state);
            inits.push(init);
        }
        PredictionRuntime {
            regions: states,
            inits,
            config,
            state_fault_target: None,
        }
    }

    /// Creates a runtime and installs a trained model (QoS tables and
    /// memoizers). The runtime copies what it needs, so one model serves
    /// any number of runtimes (a campaign builds one per trial); memo
    /// tables are shared with the model, copy-on-write, so the copy is
    /// cheap.
    pub fn with_model(regions: &[RegionInit], config: RuntimeConfig, model: &TrainedModel) -> Self {
        let mut rt = Self::new(regions, config);
        rt.install(model);
        rt
    }

    /// Installs a trained model into the region states.
    fn install(&mut self, model: &TrainedModel) {
        for (id, rm) in &model.regions {
            let Some(state) = self.regions.get_mut(*id as usize) else {
                continue;
            };
            state.set_qos(rm.qos.clone(), rm.default_tp);
            if self.config.enable_memo {
                if let Some(memo) = &rm.memo {
                    let memoizable = self
                        .inits
                        .get(*id as usize)
                        .map(|i| i.memoizable)
                        .unwrap_or(false);
                    if memoizable {
                        state.set_memoizer(memo.clone());
                    }
                }
            }
        }
    }

    /// Counters for one region.
    ///
    /// # Panics
    ///
    /// Panics if the region id is out of range.
    pub fn stats(&self, region: u32) -> RegionStats {
        self.regions[region as usize].stats()
    }

    /// Aggregate skip rate over all regions (the paper's per-benchmark
    /// metric; our workloads have one region each).
    pub fn total_skip_rate(&self) -> f64 {
        let (mut skipped, mut total) = (0u64, 0u64);
        for r in &self.regions {
            let s = r.stats();
            skipped += s.total_skipped();
            total += s.elements;
        }
        if total == 0 {
            0.0
        } else {
            skipped as f64 / total as f64
        }
    }

    /// Total faults detected and recovered by re-computation.
    pub fn total_faults_recovered(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| r.stats().faults_recovered)
            .sum()
    }

    /// Total hardening self-checks that fired across all regions.
    pub fn total_metadata_detections(&self) -> u64 {
        self.regions.iter().map(|r| r.metadata_detections()).sum()
    }

    /// Regions that were demoted at least once over their lifetime.
    pub fn demoted_region_count(&self) -> usize {
        self.regions
            .iter()
            .filter(|r| {
                r.supervisor()
                    .is_some_and(|s| s.stats().demotions.total() > 0)
            })
            .count()
    }

    /// Pins the target class for subsequent
    /// [`RuntimeHooks::flip_runtime_state`] injections (`None`: the seed
    /// picks the class).
    pub fn set_state_fault_target(&mut self, target: Option<StateFaultTarget>) {
        self.state_fault_target = target;
    }

    /// Whether `other` was built as this runtime was: the same region
    /// plans, configuration and state-fault target, and per region the
    /// same installed model. Two runtimes built alike and driven by the
    /// same intrinsic calls end in the same state.
    fn same_build(&self, other: &PredictionRuntime) -> bool {
        self.config == other.config
            && self.inits == other.inits
            && self.state_fault_target == other.state_fault_target
            && self.regions.len() == other.regions.len()
            && self
                .regions
                .iter()
                .zip(&other.regions)
                .all(|(a, b)| a.same_model(b))
    }

    fn region_of(&mut self, args: &[Value]) -> &mut RegionState {
        let id = args[0].as_i();
        &mut self.regions[id as usize]
    }
}

impl RuntimeHooks for PredictionRuntime {
    fn intrinsic(&mut self, intr: Intrinsic, args: &[Value]) -> IntrinsicAction {
        match intr {
            Intrinsic::RegionEnter => {
                let cost = self.region_of(args).enter();
                IntrinsicAction::void(cost)
            }
            Intrinsic::RegionExit => {
                let cost = self.region_of(args).exit();
                IntrinsicAction::void(cost)
            }
            Intrinsic::SelectVersion => {
                let enable_pp = self.config.enable_pp;
                let state = self.region_of(args);
                let pp = enable_pp && state.pp_useful();
                IntrinsicAction::value(Value::I(pp as i64), costs::SELECT_VERSION)
            }
            Intrinsic::Observe => {
                let iter = args[1].as_i();
                let addr = args[2].as_i();
                let value = args[3];
                let rest = &args[4..];
                let cost = self.region_of(&args[..1]).observe(iter, addr, value, rest);
                IntrinsicAction::void(cost)
            }
            Intrinsic::NextPending => {
                let (iter, cost) = self.region_of(args).next_pending();
                IntrinsicAction::value(Value::I(iter), cost)
            }
            // Pending-field reads outside a successful `next_pending`
            // are a protocol violation only an injected fault can cause
            // (a corrupted or skipped branch steering transformed code
            // past the gate); the real runtime would assert and abort.
            Intrinsic::PendingAddr => match self.region_of(args).pending_addr() {
                Some((addr, cost)) => IntrinsicAction::value(Value::I(addr), cost),
                None => IntrinsicAction::abort(costs::PENDING_FIELD),
            },
            Intrinsic::PendingArgI | Intrinsic::PendingArgF => {
                let k = args[1].as_i() as usize;
                match self.region_of(args).pending_arg(k) {
                    Some((v, cost)) => IntrinsicAction::value(v, cost),
                    None => IntrinsicAction::abort(costs::PENDING_FIELD),
                }
            }
            Intrinsic::ResolveOk => {
                let cost = self.region_of(args).resolve_ok();
                IntrinsicAction::void(cost)
            }
            Intrinsic::ResolveFault => {
                let cost = self.region_of(args).resolve_fault();
                IntrinsicAction::void(cost)
            }
            Intrinsic::Detect => IntrinsicAction {
                value: None,
                cost: 1,
                trap_detected: true,
                trap_abort: false,
            },
            Intrinsic::Print => IntrinsicAction::void(0),
        }
    }

    fn flip_runtime_state(&mut self, seed: u64) -> Option<String> {
        if self.regions.is_empty() {
            return None;
        }
        let target = self
            .state_fault_target
            .unwrap_or(StateFaultTarget::ALL[(seed % 4) as usize]);
        // Rotate over regions from a seed-chosen start so a region with
        // no live state of the target class does not mask the injection.
        let n = self.regions.len();
        let start = (seed as usize / 4) % n;
        for off in 0..n {
            let id = (start + off) % n;
            if let Some(site) = self.regions[id].flip_state(target, seed) {
                return Some(format!("region {id}: {} {site}", target.label()));
            }
        }
        None
    }

    /// A clone of the whole runtime; memo tables are shared, so this
    /// copies pointers, not tables.
    fn save_state(&self) -> Option<HookState> {
        Some(Box::new(self.clone()))
    }

    /// Takes over a runtime saved by [`save_state`](Self::save_state) if
    /// it was built as this one was — the same region plans,
    /// configuration, state-fault target and installed model — so a
    /// trial never resumes in state its own runtime could not have
    /// reached.
    fn restore_state(&mut self, state: &(dyn Any + Send + Sync)) -> bool {
        match state.downcast_ref::<PredictionRuntime>() {
            Some(saved) if self.same_build(saved) => {
                self.clone_from(saved);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_region() -> Vec<RegionInit> {
        vec![RegionInit {
            region: 0,
            has_body: true,
            memoizable: false,
            acceptable_range: None,
        }]
    }

    #[test]
    fn select_version_honors_master_switch() {
        let mut rt = PredictionRuntime::new(
            &one_region(),
            RuntimeConfig {
                enable_pp: false,
                ..RuntimeConfig::default()
            },
        );
        let a = rt.intrinsic(Intrinsic::SelectVersion, &[Value::I(0)]);
        assert_eq!(a.value, Some(Value::I(0)));

        let mut rt = PredictionRuntime::new(&one_region(), RuntimeConfig::default());
        let a = rt.intrinsic(Intrinsic::SelectVersion, &[Value::I(0)]);
        assert_eq!(a.value, Some(Value::I(1)));
    }

    #[test]
    fn bodyless_region_selects_cp() {
        let regions = vec![RegionInit {
            region: 0,
            has_body: false,
            memoizable: false,
            acceptable_range: None,
        }];
        let mut rt = PredictionRuntime::new(&regions, RuntimeConfig::default());
        let a = rt.intrinsic(Intrinsic::SelectVersion, &[Value::I(0)]);
        assert_eq!(a.value, Some(Value::I(0)));
    }

    #[test]
    fn full_intrinsic_protocol_round_trip() {
        let mut rt = PredictionRuntime::new(&one_region(), RuntimeConfig::with_ar(0.2));
        let r = Value::I(0);
        rt.intrinsic(Intrinsic::RegionEnter, &[r]);
        // A ramp plus one corrupted element.
        for i in 0..50i64 {
            let mut v = 100.0 + i as f64;
            if i == 25 {
                v += 1.0e6; // way outside AR
            }
            rt.intrinsic(
                Intrinsic::Observe,
                &[r, Value::I(i), Value::I(1000 + i), Value::F(v), Value::I(i)],
            );
        }
        rt.intrinsic(Intrinsic::RegionExit, &[r]);

        let mut pending = Vec::new();
        loop {
            let got = rt
                .intrinsic(Intrinsic::NextPending, &[r])
                .value
                .expect("rskip.next_pending must return an iteration index for region 0")
                .as_i();
            if got < 0 {
                break;
            }
            let addr = rt
                .intrinsic(Intrinsic::PendingAddr, &[r])
                .value
                .expect("rskip.pending_addr must return the recorded address for region 0")
                .as_i();
            assert_eq!(addr, 1000 + got);
            let arg = rt
                .intrinsic(Intrinsic::PendingArgI, &[r, Value::I(0)])
                .value
                .expect("rskip.pending_arg_i must return the recorded argument for region 0")
                .as_i();
            assert_eq!(arg, got);
            pending.push(got);
        }
        assert!(pending.contains(&25), "corrupted element must be pending");
        let stats = rt.stats(0);
        assert!(stats.skip_rate() > 0.5, "skip rate {}", stats.skip_rate());
        assert_eq!(stats.total_skipped() + pending.len() as u64, 50);
    }

    #[test]
    fn per_region_ar_override_wins() {
        let regions = vec![RegionInit {
            region: 0,
            has_body: true,
            memoizable: false,
            acceptable_range: Some(0.0), // pragma: exact validation
        }];
        let mut rt = PredictionRuntime::new(&regions, RuntimeConfig::with_ar(1.0));
        let r = Value::I(0);
        rt.intrinsic(Intrinsic::RegionEnter, &[r]);
        // Tiny per-element noise: accepted at AR=1.0, rejected at AR=0.
        for i in 0..50i64 {
            let v = 100.0 + i as f64 + if i % 7 == 3 { 0.01 } else { 0.0 };
            rt.intrinsic(
                Intrinsic::Observe,
                &[r, Value::I(i), Value::I(i), Value::F(v), Value::I(i)],
            );
        }
        rt.intrinsic(Intrinsic::RegionExit, &[r]);
        // With AR = 0 every interior with noise fails validation.
        assert!(rt.stats(0).recomputed > 5);
    }

    /// One memoizable region whose model memoizes `x in {0, 1} -> 5 + 100x`.
    fn memo_model() -> (Vec<RegionInit>, TrainedModel) {
        let mut trainer = rskip_predict::MemoTrainer::new(1);
        for i in 0..1000 {
            let x = (i % 2) as f64;
            trainer.add_sample(&[x], 5.0 + x * 100.0);
        }
        let memo = trainer.build(&rskip_predict::MemoConfig {
            table_bits: 6,
            hist_bins: 32,
        });
        let regions = vec![RegionInit {
            region: 0,
            has_body: true,
            memoizable: true,
            acceptable_range: None,
        }];
        let mut model = TrainedModel::default();
        model.regions.insert(
            0,
            crate::train::RegionModel {
                qos: crate::QosTable::new(),
                default_tp: 0.2,
                memo: Some(memo),
                trained_skip_rate: 0.0,
            },
        );
        (regions, model)
    }

    /// Alternating values DI rejects and the memo predicts; returns the
    /// region's counters.
    fn alternate(rt: &mut PredictionRuntime) -> RegionStats {
        let r = Value::I(0);
        rt.intrinsic(Intrinsic::RegionEnter, &[r]);
        for i in 0..200i64 {
            let x = (i % 2) as f64;
            let v = Value::F(5.0 + x * 100.0);
            let args = [r, Value::I(i), Value::I(i), v, Value::F(x)];
            rt.intrinsic(Intrinsic::Observe, &args);
        }
        rt.intrinsic(Intrinsic::RegionExit, &[r]);
        rt.stats(0)
    }

    #[test]
    fn a_memo_table_flip_stays_in_its_runtime() {
        let (regions, model) = memo_model();
        let json = model.to_json().expect("model serializes");
        let config = RuntimeConfig::with_ar(0.1);
        let hardened_config = RuntimeConfig {
            harden: true,
            ..config
        };
        let mut sibling = PredictionRuntime::with_model(&regions, config, &model);
        let mut struck = PredictionRuntime::with_model(&regions, config, &model);
        let mut hardened = PredictionRuntime::with_model(&regions, hardened_config, &model);
        // Bit 62 of the `x = 0` entry: its prediction leaves the range.
        for rt in [&mut struck, &mut hardened] {
            rt.set_state_fault_target(Some(StateFaultTarget::MemoTable));
            let site = rt.flip_runtime_state(62 << 32).expect("a populated entry");
            assert!(site.contains("memo["), "site {site}");
        }
        assert_eq!(model.to_json().expect("model serializes"), json);

        // The sibling predicts as a runtime over an unshared copy of the
        // model does; the struck runtime does not.
        let copy = TrainedModel::from_json(&json).expect("model round-trips");
        let want = alternate(&mut PredictionRuntime::with_model(&regions, config, &copy));
        assert!(want.skipped_memo > 50, "memo skips {}", want.skipped_memo);
        assert_eq!(alternate(&mut sibling), want);
        assert_ne!(alternate(&mut struck), want);

        // The hardened runtime's shadow still holds the trained table,
        // so its cross-check reports the disagreement.
        alternate(&mut hardened);
        assert!(hardened.total_metadata_detections() > 0);
        assert_eq!(sibling.total_metadata_detections(), 0);
    }

    #[test]
    fn a_runtime_restores_only_state_saved_by_a_runtime_built_alike() {
        let (regions, model) = memo_model();
        let config = RuntimeConfig::with_ar(0.1);
        let mut ran = PredictionRuntime::with_model(&regions, config, &model);
        let stats = alternate(&mut ran);
        let saved = ran.save_state().expect("runtimes can be resumed");

        let mut fresh = PredictionRuntime::with_model(&regions, config, &model);
        assert!(fresh.restore_state(&*saved));
        assert_eq!(fresh.stats(0), stats);

        let di_only = RuntimeConfig {
            enable_memo: false,
            ..config
        };
        let copy = TrainedModel::from_json(&model.to_json().unwrap()).unwrap();
        for mut other in [
            PredictionRuntime::with_model(&regions, di_only, &model),
            PredictionRuntime::with_model(&regions, RuntimeConfig::with_ar(0.2), &model),
            PredictionRuntime::with_model(&regions, config, &copy),
            PredictionRuntime::new(&regions, config),
        ] {
            assert!(!other.restore_state(&*saved));
            assert_eq!(
                other.stats(0).elements,
                0,
                "a refused state changes nothing"
            );
        }
        assert!(!fresh.restore_state(&()));
    }

    #[test]
    fn detect_traps() {
        let mut rt = PredictionRuntime::new(&one_region(), RuntimeConfig::default());
        assert!(rt.intrinsic(Intrinsic::Detect, &[]).trap_detected);
    }
}
