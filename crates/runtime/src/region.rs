//! Per-region prediction state.
//!
//! A region owns the paper's fixed prediction cascade (§4, Fig. 4):
//! dynamic interpolation (DI) first, approximate memoization second when
//! a trained memoizer is installed, exact re-computation last. DI holds
//! each element until a phase cut (or the region exit) classifies it; the
//! cut's rejects are offered to the memoizer in DI's order, and the
//! memoizer's misses join the pending re-computation queue. Around the
//! cascade sit the runtime supervisor's gate, the modeled cost
//! accounting and the run-time management tick.

use std::collections::VecDeque;

use rskip_ir::Value;
use rskip_predict::{relative_difference, CutResult, DiConfig, DynamicInterpolation, Memoizer};

use crate::costs;
use crate::qos::QosTable;
use crate::runtime::StateFaultTarget;
use crate::signature::{signature, DEFAULT_EDGES};
use crate::supervisor::{Supervisor, SupervisorPolicy, SupervisorStats};

/// Aggregate per-region counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Loop outputs observed.
    pub elements: u64,
    /// Elements offered to dynamic interpolation.
    pub di_attempts: u64,
    /// Elements dynamic interpolation accepted (re-computation skipped).
    pub skipped_di: u64,
    /// Elements offered to the memoizer: DI rejects, plus every fed
    /// element while DI is disabled.
    pub memo_attempts: u64,
    /// Elements the memoizer accepted.
    pub skipped_memo: u64,
    /// Elements handed to the recheck loop.
    pub recomputed: u64,
    /// Re-computations that matched (mispredictions — run-time overhead,
    /// not incorrect output).
    pub mispredictions: u64,
    /// Re-computations that mismatched: faults detected and recovered.
    pub faults_recovered: u64,
    /// TP adjustments performed by run-time management.
    pub tp_adjustments: u64,
    /// Region entries.
    pub entries: u64,
    /// Supervisor snapshot, when a supervisor policy is installed.
    pub supervisor: Option<SupervisorStats>,
    /// Supervisor breaker state label (`predict` / `degraded` /
    /// `probing`), or `off` without a supervisor.
    pub supervisor_state: &'static str,
    /// Hardening self-checks that fired: corrupted runtime metadata
    /// detected and contained (DI register votes and memo shadow
    /// cross-checks plus pending-record checksum failures plus counter
    /// clamps).
    pub metadata_detections: u64,
}

impl RegionStats {
    /// Elements accepted by either predictor (re-computation skipped).
    pub fn total_skipped(&self) -> u64 {
        self.skipped_di + self.skipped_memo
    }

    /// The paper's skip rate: skipped / observed.
    pub fn skip_rate(&self) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            self.total_skipped() as f64 / self.elements as f64
        }
    }
}

/// One recorded observation awaiting classification or re-computation.
#[derive(Clone, Debug)]
struct Obs {
    iter: i64,
    addr: i64,
    args: Vec<Value>,
    /// Integrity checksum over the fields above, computed at recording
    /// time. A pending record whose fields were corrupted after recording
    /// (an SEU in the runtime's own metadata) would otherwise replay a
    /// re-computation from wrong inputs and *overwrite correct memory* —
    /// the one path by which predictor-state corruption becomes silent
    /// data corruption. With hardening on, the checksum is re-verified
    /// before replay and a mismatching record is dropped.
    check: u64,
}

/// FNV-1a over an observation's recorded fields, with a type tag per
/// argument so `F(x)` and `I(x)` with equal bit patterns differ.
fn obs_checksum(iter: i64, addr: i64, args: &[Value]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in [iter as u64, addr as u64] {
        h ^= word;
        h = h.wrapping_mul(PRIME);
    }
    for a in args {
        let (tag, bits) = match a {
            Value::F(v) => (1u64, v.to_bits()),
            Value::I(v) => (2u64, *v as u64),
        };
        h ^= tag;
        h = h.wrapping_mul(PRIME);
        h ^= bits;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A recorded value as the predictors see it.
fn as_f64(v: Value) -> f64 {
    match v {
        Value::F(v) => v,
        Value::I(v) => v as f64,
    }
}

/// One cascade level's enable bit and attribution counters.
#[derive(Clone, Copy, Debug)]
struct Level {
    /// A disabled level receives no new elements (DI still classifies
    /// the ones it already holds).
    enabled: bool,
    /// Elements offered to this level.
    attempts: u64,
    /// Elements this level accepted (re-computation skipped).
    accepted: u64,
}

impl Level {
    const ON: Level = Level {
        enabled: true,
        attempts: 0,
        accepted: 0,
    };
}

/// The cascade's second level: approximate memoization (§4.2), a
/// quantized lookup keyed on the recorded inputs.
#[derive(Clone, Debug)]
struct MemoLevel {
    memo: Memoizer,
    /// Hardening: a shadow copy of the table; lookups are cross-checked
    /// and a disagreement (one copy corrupted) degrades to a miss.
    shadow: Option<Memoizer>,
    /// Cross-checks that found the two copies disagreeing.
    detections: u64,
    level: Level,
    /// Reusable lookup key: the recorded inputs as `f64`.
    key: Vec<f64>,
}

impl MemoLevel {
    fn new(memo: Memoizer, harden: bool) -> Self {
        let mut m = MemoLevel {
            memo,
            shadow: None,
            detections: 0,
            level: Level::ON,
            key: Vec::new(),
        };
        m.set_harden(harden);
        m
    }

    fn set_harden(&mut self, on: bool) {
        self.shadow = on.then(|| self.memo.clone());
    }

    /// The memoized value for `args`. A hardened lookup whose two
    /// copies disagree is a miss: we cannot tell which copy is
    /// corrupted, so the element falls through to re-computation.
    fn lookup(&mut self, args: &[Value]) -> Option<f64> {
        self.key.clear();
        self.key.extend(args.iter().map(|&a| as_f64(a)));
        let primary = self.memo.predict(&self.key);
        if let Some(shadow) = &self.shadow {
            let same = match (primary, shadow.predict_quiet(&self.key)) {
                (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
                (None, None) => true,
                _ => false,
            };
            if !same {
                self.detections += 1;
                return None;
            }
        }
        primary
    }
}

/// The runtime state of one protected region.
#[derive(Clone, Debug)]
pub struct RegionState {
    /// First level: the dynamic-interpolation phase machine. Its
    /// acceptable range is the region's, and the memoizer validates
    /// against the same range.
    di: DynamicInterpolation,
    di_level: Level,
    /// Second level, when a trained memoizer is installed.
    memo: Option<MemoLevel>,
    /// Whether the transform built a PP version for this region.
    has_body: bool,
    /// Observations DI holds, with their values: slot `k` is DI's
    /// region-relative element number `held_base + k`. A classified
    /// slot is emptied and leaves once everything before it has.
    held: VecDeque<Option<(f64, Obs)>>,
    held_base: u64,
    pending: VecDeque<Obs>,
    current: Option<Obs>,
    qos: QosTable,
    /// The TP installed with `qos`; DI's own TP moves with the context.
    default_tp: f64,
    tick_period: u64,
    since_tick: u64,
    elements: u64,
    recomputed: u64,
    mispredictions: u64,
    faults_recovered: u64,
    tp_adjustments: u64,
    entries: u64,
    /// Observation threshold after which poor DI accuracy disables it.
    disable_check_at: u64,
    /// The online health monitor / circuit breaker, when a supervisor
    /// policy is installed.
    supervisor: Option<Supervisor>,
    /// Whether metadata hardening (checksums, shadow votes, counter
    /// clamps) is active.
    harden: bool,
    /// Hardening checks that fired outside the predictors
    /// (pending-record checksum failures, counter clamps).
    metadata_detections: u64,
}

impl RegionState {
    /// Creates region state with dynamic interpolation as the only
    /// predictor.
    pub fn new(di_config: DiConfig, has_body: bool, tick_period: u64) -> Self {
        RegionState {
            di: DynamicInterpolation::new(di_config),
            di_level: Level::ON,
            memo: None,
            has_body,
            held: VecDeque::new(),
            held_base: 0,
            pending: VecDeque::new(),
            current: None,
            qos: QosTable::new(),
            default_tp: di_config.tp,
            tick_period,
            since_tick: 0,
            elements: 0,
            recomputed: 0,
            mispredictions: 0,
            faults_recovered: 0,
            tp_adjustments: 0,
            entries: 0,
            disable_check_at: 4096,
            supervisor: None,
            harden: false,
            metadata_detections: 0,
        }
    }

    /// Installs a trained memoizer as the second-level predictor.
    pub fn set_memoizer(&mut self, memo: Memoizer) {
        self.memo = Some(MemoLevel::new(memo, self.harden));
    }

    /// Installs the online health monitor. From here on every observation
    /// is gated by the breaker: Degraded and off-probe elements bypass
    /// the cascade entirely and go straight to re-computation.
    pub fn set_supervisor(&mut self, policy: SupervisorPolicy) {
        self.supervisor = Some(Supervisor::new(policy));
    }

    /// Read access to the installed supervisor, if any.
    pub fn supervisor(&self) -> Option<&Supervisor> {
        self.supervisor.as_ref()
    }

    /// Enables metadata hardening: DI votes its phase registers, memo
    /// lookups are cross-checked against a shadow table, pending
    /// re-computation records are checksum-verified before replay, and
    /// counters are invariant-clamped at every tick.
    pub fn set_harden(&mut self, on: bool) {
        self.harden = on;
        self.di.set_harden(on);
        if let Some(m) = self.memo.as_mut() {
            m.set_harden(on);
        }
    }

    /// Total hardening self-checks that fired (predictors plus region).
    pub fn metadata_detections(&self) -> u64 {
        self.metadata_detections
            + self.di.detections()
            + self.memo.as_ref().map_or(0, |m| m.detections)
    }

    /// DI's current tuning parameter.
    pub fn current_tp(&self) -> f64 {
        self.di.config().tp
    }

    /// Installs a trained QoS table and starting TP.
    pub fn set_qos(&mut self, qos: QosTable, default_tp: f64) {
        self.qos = qos;
        self.default_tp = default_tp;
        self.di.set_tp(default_tp);
    }

    /// Whether `other` had the same trained model installed: the same
    /// QoS table and starting TP, and a memoizer over the very same
    /// table. What else a region is built from — DI configuration,
    /// supervisor, hardening — comes from the runtime's configuration.
    pub(crate) fn same_model(&self, other: &RegionState) -> bool {
        self.qos == other.qos
            && self.default_tp.to_bits() == other.default_tp.to_bits()
            && match (&self.memo, &other.memo) {
                (None, None) => true,
                (Some(a), Some(b)) => a.memo.shares_table(&b.memo),
                _ => false,
            }
    }

    /// Current counters.
    pub fn stats(&self) -> RegionStats {
        let memo = self.memo.as_ref().map_or(Level::ON, |m| m.level);
        RegionStats {
            elements: self.elements,
            di_attempts: self.di_level.attempts,
            skipped_di: self.di_level.accepted,
            memo_attempts: memo.attempts,
            skipped_memo: memo.accepted,
            recomputed: self.recomputed,
            mispredictions: self.mispredictions,
            faults_recovered: self.faults_recovered,
            tp_adjustments: self.tp_adjustments,
            entries: self.entries,
            supervisor: self.supervisor.as_ref().map(|s| s.stats()),
            supervisor_state: self
                .supervisor
                .as_ref()
                .map_or("off", |s| s.state().label()),
            metadata_detections: self.metadata_detections(),
        }
    }

    /// Whether the PP version is worth selecting: some predictor is
    /// still enabled.
    pub fn pp_useful(&self) -> bool {
        self.has_body
            && (self.di_level.enabled || self.memo.as_ref().is_some_and(|m| m.level.enabled))
    }

    /// Region entry: DI restarts its element numbering (the previous
    /// exit classified everything it held).
    pub fn enter(&mut self) -> u64 {
        self.entries += 1;
        self.di.reset();
        debug_assert!(self.held.is_empty(), "unflushed observations");
        self.held.clear();
        self.held_base = 0;
        costs::REGION_ENTER
    }

    /// Region exit: DI closes its last phase — even while disabled, it
    /// classifies what it took before — and the result lands in the
    /// pending queue / skip counters exactly like a live cut.
    pub fn exit(&mut self) -> u64 {
        let mut cost = costs::REGION_EXIT;
        if let Some(cut) = self.di.flush() {
            cost += self.settle(cut);
        }
        // Anything still held (nothing in practice — DI classifies
        // every element it observed) goes pending.
        for (_, obs) in self.held.drain(..).flatten() {
            cost += costs::CUT_PER_ELEMENT;
            self.recomputed += 1;
            self.pending.push_back(obs);
        }
        self.held_base = 0;
        cost
    }

    /// One loop output: returns the modeled cost.
    pub fn observe(&mut self, iter: i64, addr: i64, value: Value, args: &[Value]) -> u64 {
        let v = as_f64(value);
        let mut cost = costs::OBSERVE_BASE + costs::OBSERVE_PER_ARG * args.len() as u64;
        self.elements += 1;
        let obs = || Obs {
            iter,
            addr,
            args: args.to_vec(),
            check: obs_checksum(iter, addr, args),
        };

        // The breaker gates cascade access per element. A bypassed
        // element (Degraded, or an off-probe slot while Probing) never
        // reaches a predictor: it goes straight to the re-compute queue,
        // which is exactly the unprotected-of-predictions CP path. The
        // enable bits are untouched, so `pp_useful` keeps selecting the
        // PP version and observations keep flowing — a supervisor that
        // starved itself of observations could never probe its way back.
        let fed = self.supervisor.as_mut().is_none_or(Supervisor::gate);
        if !fed {
            cost += costs::CUT_PER_ELEMENT;
            self.recomputed += 1;
            self.pending.push_back(obs());
        } else if self.di_level.enabled {
            self.di_level.attempts += 1;
            self.held.push_back(Some((v, obs())));
            if let Some(cut) = self.di.observe(v) {
                cost += self.settle(cut);
            }
        } else {
            let (accepted, attempt) = self.fall_back(v, args);
            cost += costs::CUT_PER_ELEMENT + attempt;
            if let Some(sup) = self.supervisor.as_mut() {
                sup.record(accepted);
            }
            if !accepted {
                self.recomputed += 1;
                self.pending.push_back(obs());
            }
        }

        // Periodic run-time management (§5).
        self.since_tick += 1;
        if self.since_tick >= self.tick_period {
            self.since_tick = 0;
            cost += self.tick();
        }
        cost
    }

    /// Offers one element DI did not accept to the memoizer. Returns
    /// whether it was accepted and the modeled cost of the attempt (0
    /// without an enabled memoizer: the element goes straight to
    /// re-computation).
    fn fall_back(&mut self, value: f64, args: &[Value]) -> (bool, u64) {
        let ar = self.di.config().ar;
        let Some(m) = self.memo.as_mut().filter(|m| m.level.enabled) else {
            return (false, 0);
        };
        m.level.attempts += 1;
        let hit = m
            .lookup(args)
            .is_some_and(|p| relative_difference(value, p) <= ar);
        m.level.accepted += hit as u64;
        (
            hit,
            costs::MEMO_BASE + costs::MEMO_PER_INPUT * args.len() as u64,
        )
    }

    /// Applies a DI phase cut: accepted elements leave the held buffer
    /// as skips, rejects fall back to the memoizer in DI's order, and
    /// its misses become pending re-computations. The supervisor hears
    /// every acceptance of the cut, then every rejection. Returns the
    /// modeled cost: the per-element classification charge plus the
    /// memo attempts.
    fn settle(&mut self, cut: CutResult) -> u64 {
        let mut accepted = 0u64;
        for &k in &cut.accepted {
            accepted += self.take_held(k).is_some() as u64;
        }
        self.di_level.accepted += accepted;
        let (mut rejected, mut attempts) = (0u64, 0u64);
        for &k in &cut.pending {
            let Some((value, obs)) = self.take_held(k) else {
                continue;
            };
            let (hit, attempt) = self.fall_back(value, &obs.args);
            attempts += attempt;
            if hit {
                accepted += 1;
            } else {
                rejected += 1;
                self.recomputed += 1;
                self.pending.push_back(obs);
            }
        }
        while let Some(None) = self.held.front() {
            self.held.pop_front();
            self.held_base += 1;
        }
        if let Some(sup) = self.supervisor.as_mut() {
            (0..accepted).for_each(|_| sup.record(true));
            (0..rejected).for_each(|_| sup.record(false));
        }
        costs::CUT_PER_ELEMENT * (accepted + rejected) + attempts
    }

    /// Empties the held slot of DI element `k`; `None` if DI never
    /// handed it over or already classified it.
    fn take_held(&mut self, k: u64) -> Option<(f64, Obs)> {
        let slot = usize::try_from(k.checked_sub(self.held_base)?).ok()?;
        self.held.get_mut(slot)?.take()
    }

    /// Flips one bit in this region's live runtime state — the SEU
    /// campaign over the protection machinery itself. Returns the site
    /// label, or `None` when the chosen target class holds no live state.
    pub fn flip_state(&mut self, target: StateFaultTarget, seed: u64) -> Option<String> {
        match target {
            StateFaultTarget::MemoTable => self.memo.as_mut()?.memo.corrupt_table_bit(seed),
            StateFaultTarget::DiPhase => self.di.flip_state_bit(seed),
            StateFaultTarget::PendingQueue => self.flip_pending_bit(seed),
            StateFaultTarget::Counters => Some(self.flip_counter_bit(seed)),
        }
    }

    fn flip_pending_bit(&mut self, seed: u64) -> Option<String> {
        // Strike only a queued re-computation record: that is the state
        // this target class names, and the one whose corruption is
        // dangerous (replayed over correct memory). The queue drains at
        // every recheck, so it is often empty; returning `None` keeps the
        // armed fault live until a record actually exists — a strike on
        // transient state has to land while the state is resident.
        let np = self.pending.len();
        if np == 0 {
            return None;
        }
        let pick = (seed as usize) % np;
        let obs = &mut self.pending[pick];
        let bit = ((seed >> 32) % 64) as u32;
        if obs.args.is_empty() {
            // No recorded inputs: corrupt the recorded store address.
            obs.addr ^= 1 << (bit % 63);
            Some(format!("pending[{pick}].addr bit {}", bit % 63))
        } else {
            let a = ((seed >> 40) as usize) % obs.args.len();
            obs.args[a] = match obs.args[a] {
                Value::F(v) => Value::F(f64::from_bits(v.to_bits() ^ (1u64 << bit))),
                Value::I(v) => Value::I(v ^ 1 << (bit % 63)),
            };
            Some(format!("pending[{pick}].args[{a}] bit {bit}"))
        }
    }

    fn flip_counter_bit(&mut self, seed: u64) -> String {
        let bit = (seed >> 32) % 64;
        let (name, counter) = match seed % 4 {
            0 => ("elements", &mut self.elements),
            1 => ("recomputed", &mut self.recomputed),
            2 => ("mispredictions", &mut self.mispredictions),
            _ => ("faults_recovered", &mut self.faults_recovered),
        };
        *counter ^= 1 << bit;
        format!("counter.{name} bit {bit}")
    }

    /// Pops the next pending re-computation; `-1` when drained.
    ///
    /// With hardening on, each record's checksum is re-verified first: a
    /// corrupted record is dropped instead of replayed, because replaying
    /// it would re-compute from wrong inputs and overwrite the (still
    /// correct) originally computed value in memory.
    pub fn next_pending(&mut self) -> (i64, u64) {
        while let Some(obs) = self.pending.pop_front() {
            if self.harden && obs_checksum(obs.iter, obs.addr, &obs.args) != obs.check {
                self.metadata_detections += 1;
                if let Some(sup) = self.supervisor.as_mut() {
                    sup.record_fault();
                }
                continue;
            }
            let iter = obs.iter;
            self.current = Some(obs);
            return (iter, costs::NEXT_PENDING);
        }
        (-1, costs::NEXT_PENDING)
    }

    /// Address of the current pending element, or `None` when there is
    /// no current element. Fault-free transformed code always gates
    /// pending-field reads on a successful
    /// [`next_pending`](Self::next_pending), so `None` means an injected
    /// fault steered control past that gate — the runtime treats it as a
    /// protocol violation that would abort the host process.
    pub fn pending_addr(&self) -> Option<(i64, u64)> {
        Some((self.current.as_ref()?.addr, costs::PENDING_FIELD))
    }

    /// The `k`-th recorded argument of the current pending element;
    /// `None` without a current element or on an out-of-range index
    /// (same protocol-violation contract as
    /// [`pending_addr`](Self::pending_addr)).
    pub fn pending_arg(&self, k: usize) -> Option<(Value, u64)> {
        Some((*self.current.as_ref()?.args.get(k)?, costs::PENDING_FIELD))
    }

    /// Re-computation matched: misprediction only.
    pub fn resolve_ok(&mut self) -> u64 {
        self.mispredictions += 1;
        costs::RESOLVE
    }

    /// Re-computation mismatched: a fault was detected and recovered.
    pub fn resolve_fault(&mut self) -> u64 {
        self.faults_recovered += 1;
        if let Some(sup) = self.supervisor.as_mut() {
            sup.record_fault();
        }
        costs::RESOLVE
    }

    /// Periodic observation/adjustment (Fig. 6): regenerate the context
    /// signature, look the TP up, keep the previous TP on a miss; check
    /// the disable conditions.
    fn tick(&mut self) -> u64 {
        let changes = self.di.take_slope_changes();
        if !changes.is_empty() && !self.qos.is_empty() {
            let sig = signature(&changes, &DEFAULT_EDGES);
            let tp = self.qos.lookup(&sig);
            if let Some(sup) = self.supervisor.as_mut() {
                // Drift detection only makes sense against a trained
                // table (guarded by `!qos.is_empty()` above — an
                // untrained region would read as permanent drift). It
                // uses the coarse dominant-bin test, not the exact
                // lookup: a reordered tail is tuning noise, a moved
                // dominant bin is a new input distribution.
                sup.note_signature(self.qos.known_context(&sig));
            }
            if let Some(tp) = tp {
                if (tp - self.di.config().tp).abs() > f64::EPSILON {
                    self.di.set_tp(tp);
                    self.tp_adjustments += 1;
                }
            }
            // On a miss the previous TP is kept (the paper's behavior) —
            // pinned by `qos_miss_keeps_previous_tp_*` below.
        }
        if self.harden {
            self.validate_counters();
        }
        if self.supervisor.is_some() {
            // The supervisor subsumes the legacy hard-disable heuristics:
            // its Degraded state is reversible (probing), a cleared enable
            // bit is not.
            return costs::SIG_TICK;
        }
        // Disable DI at persistently poor accuracy (§5; the paper never
        // observed this in its benchmarks, and neither do ours in
        // practice).
        if self.di_level.enabled && self.elements >= self.disable_check_at {
            let di_rate = self.di_level.accepted as f64 / self.elements as f64;
            if di_rate < 0.02 {
                self.di_level.enabled = false;
            }
            self.disable_check_at *= 4;
        }
        // Disable the memoizer at poor run-time accuracy.
        if let Some(m) = self.memo.as_mut() {
            let l = &mut m.level;
            if l.enabled && l.attempts >= 512 && (l.accepted as f64 / l.attempts as f64) < 0.05 {
                l.enabled = false;
            }
        }
        costs::SIG_TICK
    }

    /// Counter hardening: the aggregate counters obey simple invariants
    /// (nothing re-computes or resolves more elements than were
    /// observed). A counter knocked out of range by an SEU is clamped
    /// back to the invariant boundary — degrading a statistics glitch
    /// to a detection instead of letting it skew downstream reports
    /// or supervisor decisions.
    fn validate_counters(&mut self) {
        let ceiling = self.elements;
        for c in [
            &mut self.recomputed,
            &mut self.mispredictions,
            &mut self.faults_recovered,
        ] {
            if *c > ceiling {
                *c = ceiling;
                self.metadata_detections += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs_loop(state: &mut RegionState, values: &[f64]) -> u64 {
        let mut cost = state.enter();
        for (i, &v) in values.iter().enumerate() {
            cost += state.observe(i as i64, 100 + i as i64, Value::F(v), &[Value::I(i as i64)]);
        }
        cost += state.exit();
        cost
    }

    #[test]
    fn smooth_ramp_mostly_skips() {
        let mut state = RegionState::new(DiConfig { tp: 0.3, ar: 0.2 }, true, 64);
        let values: Vec<f64> = (0..200).map(|k| 10.0 + k as f64 * 0.5).collect();
        obs_loop(&mut state, &values);
        let stats = state.stats();
        assert_eq!(stats.elements, 200);
        assert!(stats.skip_rate() > 0.9, "skip rate {}", stats.skip_rate());
        // Endpoints pend.
        assert!(stats.recomputed >= 2);
    }

    #[test]
    fn pending_queue_replays_recorded_fields() {
        let mut state = RegionState::new(DiConfig { tp: 0.1, ar: 0.1 }, true, 64);
        state.enter();
        state.observe(7, 42, Value::F(1.0), &[Value::F(3.5), Value::I(9)]);
        state.exit(); // single element: pending
        let (iter, _) = state.next_pending();
        assert_eq!(iter, 7);
        assert_eq!(state.pending_addr().unwrap().0, 42);
        assert_eq!(state.pending_arg(0).unwrap().0, Value::F(3.5));
        assert_eq!(state.pending_arg(1).unwrap().0, Value::I(9));
        assert_eq!(state.next_pending().0, -1);
    }

    #[test]
    fn every_element_is_skipped_or_pending() {
        let mut state = RegionState::new(DiConfig { tp: 0.4, ar: 0.3 }, true, 32);
        let values: Vec<f64> = (0..300)
            .map(|k| (k as f64 * 0.21).sin() * 4.0 + 9.0)
            .collect();
        state.enter();
        for (i, &v) in values.iter().enumerate() {
            state.observe(i as i64, i as i64, Value::F(v), &[]);
        }
        state.exit();
        let mut drained = 0;
        while state.next_pending().0 >= 0 {
            drained += 1;
        }
        let stats = state.stats();
        assert_eq!(stats.total_skipped() + drained, 300);
        assert_eq!(stats.recomputed, drained);
    }

    #[test]
    fn memoizer_second_level_catches_di_rejects() {
        // Alternating values defeat interpolation; a memo keyed on the
        // (single) argument predicts them exactly.
        let mut state = RegionState::new(DiConfig { tp: 0.2, ar: 0.1 }, true, 64);
        state.set_memoizer(alternation_memo());

        state.enter();
        for i in 0..200i64 {
            let x = (i % 2) as f64;
            state.observe(i, i, Value::F(5.0 + x * 100.0), &[Value::F(x)]);
        }
        state.exit();
        let stats = state.stats();
        assert!(
            stats.skipped_memo > 100,
            "memo skips: {} (attempts {})",
            stats.skipped_memo,
            stats.memo_attempts
        );
        assert!(stats.skip_rate() > 0.5);
    }

    #[test]
    fn second_level_skips_are_attributed_per_level() {
        let mut state = RegionState::new(DiConfig { tp: 0.2, ar: 0.1 }, true, 64);
        state.set_memoizer(alternation_memo());
        state.enter();
        for i in 0..200i64 {
            let x = (i % 2) as f64;
            state.observe(i, i, Value::F(5.0 + x * 100.0), &[Value::F(x)]);
        }
        state.exit();
        let mut drained = 0;
        while state.next_pending().0 >= 0 {
            drained += 1;
        }
        let stats = state.stats();
        assert!(
            stats.skipped_memo > 100,
            "memo skips {}",
            stats.skipped_memo
        );
        // Every element resolved exactly once.
        assert_eq!(stats.total_skipped() + drained, 200);
        assert_eq!(stats.recomputed, drained);
        // DI saw every element and handed each reject to the memo once.
        assert_eq!(stats.di_attempts, 200);
        assert_eq!(stats.memo_attempts, 200 - stats.skipped_di);
    }

    #[test]
    fn qos_adjusts_tp_on_signature_match() {
        let mut state = RegionState::new(DiConfig { tp: 0.1, ar: 0.2 }, true, 16);
        let mut qos = QosTable::new();
        // Whatever signature a smooth ramp produces, map it to TP=0.9.
        for sig in ["123", "132", "213", "231", "312", "321", "125", "124"] {
            qos.insert(sig, 0.9);
        }
        state.set_qos(qos, 0.1);
        let values: Vec<f64> = (0..100).map(|k| k as f64).collect();
        obs_loop(&mut state, &values);
        assert!(state.stats().tp_adjustments > 0);
    }

    #[test]
    fn disabled_di_sends_everything_to_pending() {
        let mut state = RegionState::new(DiConfig { tp: 0.5, ar: 0.2 }, true, 64);
        state.di_level.enabled = false;
        state.enter();
        for i in 0..50i64 {
            state.observe(i, i, Value::F(i as f64), &[]);
        }
        state.exit();
        assert_eq!(state.stats().recomputed, 50);
        assert_eq!(state.stats().skip_rate(), 0.0);
        // No enabled predictor left: the PP version is not worth it.
        assert!(!state.pp_useful());
    }

    #[test]
    fn resolve_counters() {
        let mut state = RegionState::new(DiConfig::default(), true, 64);
        state.resolve_ok();
        state.resolve_ok();
        state.resolve_fault();
        assert_eq!(state.stats().mispredictions, 2);
        assert_eq!(state.stats().faults_recovered, 1);
    }

    #[test]
    fn reentry_restarts_numbering() {
        let mut state = RegionState::new(DiConfig { tp: 0.3, ar: 0.2 }, true, 64);
        for _ in 0..3 {
            state.enter();
            for i in 0..20i64 {
                state.observe(i, i, Value::F(i as f64), &[]);
            }
            state.exit();
        }
        while state.next_pending().0 >= 0 {}
        assert_eq!(state.stats().entries, 3);
        assert_eq!(state.stats().elements, 60);
    }

    #[test]
    fn qos_miss_keeps_previous_tp_across_consecutive_unknown_signatures() {
        // Satellite pin: the paper keeps the previous TP when the current
        // signature is unknown to the QoS table. Adjust TP to 0.9 via a
        // trained smooth-ramp signature, then run *many consecutive ticks*
        // of jagged input whose signatures were never trained: the TP must
        // stay 0.9, never silently reset to the default 0.1.
        let mut state = RegionState::new(DiConfig { tp: 0.1, ar: 0.2 }, true, 16);
        let mut qos = QosTable::new();
        // Every ranking a smooth ramp can produce starts with bin 1
        // (tiny slope changes dominate): train all "1xx" permutations.
        for sig in [
            "123", "124", "125", "132", "134", "135", "142", "143", "145", "152", "153", "154",
        ] {
            qos.insert(sig, 0.9);
        }
        state.set_qos(qos, 0.1);
        let ramp: Vec<f64> = (0..100).map(|k| k as f64).collect();
        obs_loop(&mut state, &ramp);
        assert_eq!(state.current_tp(), 0.9, "trained signature adjusts");

        // Jagged alternation: huge slope changes, bin 5 dominates — an
        // unknown signature at every one of ~12 consecutive ticks.
        let jagged: Vec<f64> = (0..200)
            .map(|k| if k % 2 == 0 { 1.0 } else { 100.0 })
            .collect();
        obs_loop(&mut state, &jagged);
        assert_eq!(
            state.current_tp(),
            0.9,
            "a QoS miss must keep the previous TP, not reset to default"
        );
    }

    fn strict_policy() -> SupervisorPolicy {
        SupervisorPolicy {
            window: 16,
            max_reject_rate: 0.5,
            max_fault_rate: 1.0,
            drift_windows: 1_000,
            cooldown: 100_000,
            probe_stride: 4,
            probe_window: 8,
            min_probe_agreement: 0.75,
        }
    }

    #[test]
    fn supervised_region_demotes_on_reject_storm_and_reroutes() {
        let mut state = RegionState::new(DiConfig { tp: 0.05, ar: 0.01 }, true, 64);
        state.set_supervisor(strict_policy());
        state.enter();
        for i in 0..600i64 {
            let v = if i % 2 == 0 { 1.0 } else { 1000.0 };
            state.observe(i, i, Value::F(v), &[]);
        }
        state.exit();
        let stats = state.stats();
        let sup = stats.supervisor.expect("supervisor installed");
        assert!(sup.demotions.total() >= 1, "reject storm must demote");
        assert!(sup.elements_degraded > 0);
        assert_eq!(stats.supervisor_state, "degraded");
        // The accounting survives the rerouting: every element is
        // either skipped or drained from the pending queue exactly once.
        let mut drained = 0;
        while state.next_pending().0 >= 0 {
            drained += 1;
        }
        assert_eq!(stats.total_skipped() + drained, 600);
        assert_eq!(stats.recomputed, drained);
    }

    #[test]
    fn supervised_region_probes_back_to_predicting() {
        let mut state = RegionState::new(DiConfig { tp: 0.3, ar: 0.2 }, true, 64);
        let mut policy = strict_policy();
        policy.cooldown = 64;
        policy.probe_stride = 2;
        policy.min_probe_agreement = 0.6;
        state.set_supervisor(policy);

        // Demote with a jagged region entry. The noise comes from the top
        // bits of a 64-bit mix so it is aperiodic: no probe stride can
        // alias it into a smooth sub-sequence and promote mid-storm.
        state.enter();
        for i in 0..200i64 {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let v = ((h >> 40) % 1000) as f64;
            state.observe(i, i, Value::F(v), &[Value::I(i)]);
        }
        state.exit();
        let after_storm = state.stats();
        assert_ne!(
            after_storm.supervisor_state, "predict",
            "the breaker must be open (degraded or probing) after the storm"
        );
        assert!(
            after_storm
                .supervisor
                .expect("supervisor installed")
                .demotions
                .total()
                >= 1
        );

        // Healthy input again: cooldown burns, probes sample the cascade
        // (a stride-2 sample of a linear ramp is still linear), and the
        // region promotes itself back.
        for entry in 0..10 {
            state.enter();
            for i in 0..100i64 {
                state.observe(i, i, Value::F((entry * 100 + i) as f64), &[Value::I(i)]);
            }
            state.exit();
        }
        while state.next_pending().0 >= 0 {}
        let stats = state.stats();
        let sup = stats.supervisor.expect("supervisor installed");
        assert!(sup.promotions >= 1, "probe agreement must promote back");
        assert_eq!(stats.supervisor_state, "predict");
        assert!(sup.elements_probing > 0);
    }

    #[test]
    fn hardened_region_drops_a_corrupted_pending_record() {
        let mut state = RegionState::new(DiConfig { tp: 0.1, ar: 0.1 }, true, 64);
        state.set_harden(true);
        state.enter();
        state.observe(7, 42, Value::F(1.0), &[Value::F(3.5)]);
        state.exit(); // single element: pending
        let site = state
            .flip_state(StateFaultTarget::PendingQueue, 5 << 32)
            .expect("live pending record");
        assert!(site.contains("pending"), "site = {site}");
        // Replaying the record would re-compute from the corrupted
        // argument and overwrite correct memory; it must be dropped.
        assert_eq!(state.next_pending().0, -1);
        assert!(state.metadata_detections() >= 1);
    }

    #[test]
    fn unhardened_region_replays_a_corrupted_pending_record() {
        // Control for the test above: without hardening the corrupted
        // record is replayed verbatim — the SDC vector the campaign
        // measures.
        let mut state = RegionState::new(DiConfig { tp: 0.1, ar: 0.1 }, true, 64);
        state.enter();
        state.observe(7, 42, Value::F(1.0), &[Value::F(3.5)]);
        state.exit();
        state
            .flip_state(StateFaultTarget::PendingQueue, 5 << 32)
            .expect("live pending record");
        assert_eq!(state.next_pending().0, 7);
        assert_ne!(state.pending_arg(0).unwrap().0, Value::F(3.5));
        assert_eq!(state.metadata_detections(), 0);
    }

    #[test]
    fn counter_flip_is_clamped_at_the_next_tick() {
        let mut state = RegionState::new(DiConfig { tp: 0.3, ar: 0.2 }, true, 16);
        state.set_harden(true);
        state.enter();
        for i in 0..50i64 {
            state.observe(i, i, Value::F(i as f64), &[]);
        }
        // Knock `recomputed` sky-high (seed % 4 == 1, bit 40).
        let site = state.flip_state(StateFaultTarget::Counters, (40 << 32) | 1);
        assert_eq!(site.as_deref(), Some("counter.recomputed bit 40"));
        for i in 50..100i64 {
            state.observe(i, i, Value::F(i as f64), &[]);
        }
        state.exit();
        let stats = state.stats();
        assert!(
            stats.recomputed <= stats.elements,
            "clamp must restore the invariant"
        );
        assert!(stats.metadata_detections >= 1);
    }

    /// A memoizer trained on `x in {0, 1} -> 5 + 100x`.
    fn alternation_memo() -> Memoizer {
        let mut trainer = rskip_predict::MemoTrainer::new(1);
        for i in 0..1000 {
            let x = (i % 2) as f64;
            trainer.add_sample(&[x], 5.0 + x * 100.0);
        }
        trainer.build(&rskip_predict::MemoConfig {
            table_bits: 6,
            hist_bins: 32,
        })
    }

    #[test]
    fn per_link_disable_is_honored() {
        // Alternation with inputs the memo never saw: DI rejects every
        // element and the memo misses each one, so a tick after its
        // 512th attempt disables it.
        let mut state = RegionState::new(DiConfig { tp: 0.2, ar: 0.05 }, true, 16);
        state.set_memoizer(alternation_memo());
        let jagged = |state: &mut RegionState| {
            state.enter();
            for i in 0..700i64 {
                let v = if i % 2 == 0 { 1.0 } else { 1000.0 };
                state.observe(i, i, Value::F(v), &[Value::F(9.0)]);
            }
            state.exit();
        };
        jagged(&mut state);
        let attempts = state.stats().memo_attempts;
        assert!((512..700).contains(&attempts), "attempts {attempts}");
        assert!(!state.memo.as_ref().unwrap().level.enabled);
        // Disabled: DI's rejects now go straight to re-computation.
        jagged(&mut state);
        assert_eq!(state.stats().memo_attempts, attempts);
        assert_eq!(state.stats().recomputed, 1400);
        // Still useful: DI remains enabled.
        assert!(state.pp_useful());
    }

    /// A memoizer trained on `x in {0, 1, 2, 3} -> 10x`.
    fn quarter_memo() -> Memoizer {
        let mut trainer = rskip_predict::MemoTrainer::new(1);
        for i in 0..500 {
            let x = (i % 4) as f64;
            trainer.add_sample(&[x], 10.0 * x);
        }
        trainer.build(&rskip_predict::MemoConfig {
            table_bits: 6,
            hist_bins: 16,
        })
    }

    #[test]
    fn disabled_di_passes_elements_to_the_memo() {
        let mut state = RegionState::new(DiConfig { tp: 0.3, ar: 0.1 }, true, 64);
        state.set_memoizer(quarter_memo());
        state.di_level.enabled = false;
        // A repeating stream DI would accept the interiors of; disabled,
        // it sees none of it and the memo takes every element. Element 0
        // is off the trained curve, so it is the memo's only miss.
        state.enter();
        for i in 0..50i64 {
            let x = (i % 4) as f64;
            let v = if i == 0 { 999.0 } else { 10.0 * x };
            state.observe(i, i, Value::F(v), &[Value::F(x)]);
        }
        state.exit();
        let stats = state.stats();
        assert_eq!(stats.di_attempts, 0);
        assert_eq!(stats.memo_attempts, 50);
        assert_eq!(stats.skipped_memo, 49);
        assert_eq!(state.next_pending().0, 0);
        assert_eq!(state.next_pending().0, -1);
    }

    #[test]
    fn memo_level_resolves_immediately() {
        let mut state = RegionState::new(DiConfig { tp: 0.3, ar: 0.1 }, true, 64);
        state.set_memoizer(quarter_memo());
        state.di_level.enabled = false;
        state.enter();
        // Each element resolves at once: observation, classification and
        // one memo attempt over its single input.
        let expected = costs::OBSERVE_BASE
            + costs::OBSERVE_PER_ARG
            + costs::CUT_PER_ELEMENT
            + costs::MEMO_BASE
            + costs::MEMO_PER_INPUT;
        assert_eq!(
            state.observe(0, 0, Value::F(20.0), &[Value::F(2.0)]),
            expected
        );
        assert_eq!(
            state.observe(1, 1, Value::F(999.0), &[Value::F(2.0)]),
            expected
        );
        assert_eq!(state.exit(), costs::REGION_EXIT);
        let stats = state.stats();
        assert_eq!(
            (stats.di_attempts, stats.memo_attempts, stats.skipped_memo),
            (0, 2, 1)
        );
        // The miss is the only re-computation.
        assert_eq!(state.next_pending().0, 1);
        assert_eq!(state.next_pending().0, -1);
        assert!(state.pp_useful());
    }

    #[test]
    fn hardened_memo_turns_a_corrupted_entry_into_a_miss() {
        // Single trained cell so the injected flip hits the same entry the
        // lookup reads. The shadow cross-check must degrade the corrupted
        // lookup to a miss (fall through to re-computation), not serve it.
        let mut trainer = rskip_predict::MemoTrainer::new(1);
        for _ in 0..50 {
            trainer.add_sample(&[2.0], 20.0);
        }
        let memo = trainer.build(&rskip_predict::MemoConfig {
            table_bits: 4,
            hist_bins: 16,
        });
        let key = [Value::F(2.0)];
        // Hardening on before the memoizer arrives: it is shadowed on
        // installation.
        let mut state = RegionState::new(DiConfig { tp: 0.1, ar: 0.1 }, true, 64);
        state.set_harden(true);
        state.set_memoizer(memo.clone());
        let site = state
            .flip_state(StateFaultTarget::MemoTable, 62 << 32)
            .expect("populated entry");
        assert!(site.starts_with("memo["), "site = {site}");
        let m = state.memo.as_mut().unwrap();
        assert_eq!(m.lookup(&key), None, "cross-check must miss, not serve");
        assert_eq!(state.metadata_detections(), 1);

        // Unhardened control: the corrupted value is served as-is.
        let mut bare = RegionState::new(DiConfig { tp: 0.1, ar: 0.1 }, true, 64);
        bare.set_memoizer(memo);
        bare.flip_state(StateFaultTarget::MemoTable, 62 << 32)
            .expect("populated entry");
        assert!(bare.memo.as_mut().unwrap().lookup(&key).is_some());
        assert_eq!(bare.metadata_detections(), 0);
    }

    #[test]
    fn empty_memo_has_no_state_to_flip() {
        let mut state = RegionState::new(DiConfig::default(), true, 64);
        assert!(state.flip_state(StateFaultTarget::MemoTable, 7).is_none());
        let memo = rskip_predict::MemoTrainer::new(1).build(&rskip_predict::MemoConfig {
            table_bits: 2,
            hist_bins: 4,
        });
        state.set_memoizer(memo);
        assert!(state.flip_state(StateFaultTarget::MemoTable, 7).is_none());
    }

    #[test]
    fn tuning_reaches_di() {
        let mut state = RegionState::new(DiConfig { tp: 0.5, ar: 0.2 }, true, 64);
        assert_eq!(state.current_tp(), 0.5);
        state.set_qos(QosTable::new(), 0.9);
        assert_eq!(state.current_tp(), 0.9);
    }

    /// Drives one region through a stream that mixes every cascade
    /// route and returns the drained pending iters, the summed modeled
    /// cost and the final counters.
    fn pinned_run(supervised: bool) -> (Vec<i64>, u64, RegionStats) {
        let mut state = RegionState::new(DiConfig { tp: 0.2, ar: 0.1 }, true, 16);
        state.set_memoizer(alternation_memo());
        if supervised {
            let mut policy = strict_policy();
            policy.cooldown = 24;
            policy.probe_stride = 2;
            policy.min_probe_agreement = 0.6;
            state.set_supervisor(policy);
        }
        let (mut iters, mut cost, mut iter) = (Vec::new(), 0u64, 0i64);
        // Unsupervised: a first entry of 4100 elements the memo knows
        // but DI cannot follow trips DI's accuracy disable rule at the
        // 4096-element check; the later entries then reach the memo
        // directly.
        let entries: &[(i64, i64)] = if supervised {
            &[(0, 150), (1, 150), (2, 150)]
        } else {
            &[(-1, 4100), (0, 150), (1, 150), (2, 150)]
        };
        for &(entry, len) in entries {
            cost += state.enter();
            for k in 0..len {
                let phase = if entry < 0 {
                    30 + k % 30
                } else {
                    (k + 7 * entry) % 150
                };
                let (v, x) = match phase {
                    // Smooth ramp: DI accepts interiors; endpoints miss
                    // the memo (value far from the x = 0 entry).
                    k @ 0..=29 => (10.0 + 0.5 * k as f64, 0.0),
                    // Alternation the memo knows: DI rejects, memo hits.
                    k @ 30..=59 => (5.0 + 100.0 * (k % 2) as f64, (k % 2) as f64),
                    // Alternation with unknown args: memo misses.
                    k @ 60..=94 => (5.0 + 100.0 * (k % 2) as f64, 9.0),
                    // Smooth again: probes agree, the breaker promotes.
                    k => (200.0 + 2.0 * k as f64, 0.0),
                };
                cost += state.observe(iter, 1000 + iter, Value::F(v), &[Value::F(x)]);
                iter += 1;
            }
            cost += state.exit();
            loop {
                let (it, c) = state.next_pending();
                cost += c;
                if it < 0 {
                    break;
                }
                iters.push(it);
                cost += if it % 7 == 3 {
                    state.resolve_fault()
                } else {
                    state.resolve_ok()
                };
            }
        }
        (iters, cost, state.stats())
    }

    #[test]
    fn cascade_order_is_pinned() {
        // Supervised: smooth DI phases, memo hits and misses, three
        // demotions whose bypassed elements leave gaps in DI's numbering,
        // probes that promote back, and re-entries. Captured before the
        // cascade moved into `RegionState`.
        let (iters, cost, stats) = pinned_run(true);
        #[rustfmt::skip]
        let expected: [i64; 193] = [
            0, 29, 60, 62, 64, 66, 68, 70, 72, 74, 76, 78, 80, 82, 84, 86, 88, 90, 92, 94, 95,
            97, 98, 99, 100, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113,
            114, 115, 116, 117, 118, 119, 120, 121, 96, 123, 122, 125, 127, 129, 131, 133, 135,
            137, 139, 141, 143, 145, 147, 149, 148, 150, 172, 203, 205, 207, 209, 211, 213,
            215, 217, 219, 221, 223, 225, 227, 229, 231, 233, 235, 237, 238, 240, 241, 242,
            243, 244, 245, 246, 247, 248, 249, 250, 251, 252, 253, 254, 255, 256, 257, 258,
            259, 260, 261, 262, 263, 264, 239, 266, 265, 268, 270, 272, 274, 276, 278, 280,
            282, 284, 286, 288, 290, 292, 291, 293, 299, 300, 315, 346, 348, 350, 352, 354,
            356, 358, 360, 362, 364, 366, 368, 370, 372, 374, 376, 378, 380, 381, 383, 384,
            385, 386, 387, 388, 389, 390, 391, 392, 393, 394, 395, 396, 397, 398, 399, 400,
            401, 402, 403, 404, 405, 406, 407, 382, 409, 408, 411, 413, 415, 417, 419, 421,
            423, 425, 427, 429, 431, 433, 435, 434, 436, 449,
        ];
        assert_eq!(iters, expected);
        assert_eq!(cost, 8634);
        assert_eq!(
            stats,
            RegionStats {
                elements: 450,
                di_attempts: 333,
                skipped_di: 116,
                memo_attempts: 217,
                skipped_memo: 141,
                recomputed: 193,
                mispredictions: 166,
                faults_recovered: 27,
                tp_adjustments: 0,
                entries: 3,
                supervisor: Some(SupervisorStats {
                    elements_predicting: 289,
                    elements_degraded: 72,
                    elements_probing: 89,
                    demotions: crate::supervisor::DemotionCauses {
                        reject_rate: 3,
                        fault_rate: 0,
                        drift: 0,
                        failed_probe: 0,
                    },
                    promotions: 3,
                }),
                supervisor_state: "predict",
                metadata_detections: 0,
            }
        );

        // Unsupervised: DI's accuracy rule disables it at the 4096th
        // element; from then on the memo sees every element first.
        let (iters, cost, stats) = pinned_run(false);
        let bytes: Vec<u8> = iters.iter().flat_map(|i| i.to_le_bytes()).collect();
        assert_eq!(iters.len(), 309);
        assert_eq!(rskip_core::digest::fnv1a64(&bytes), 0x19e1_6893_df1a_f066);
        assert_eq!(cost, 103_333);
        assert_eq!(
            stats,
            RegionStats {
                elements: 4550,
                di_attempts: 4096,
                skipped_di: 0,
                memo_attempts: 4550,
                skipped_memo: 4241,
                recomputed: 309,
                mispredictions: 266,
                faults_recovered: 43,
                tp_adjustments: 0,
                entries: 4,
                supervisor: None,
                supervisor_state: "off",
                metadata_detections: 0,
            }
        );
    }
}
