//! Per-region prediction state.
//!
//! A region owns one predictor [`Chain`] (dynamic interpolation first,
//! approximate memoization second when trained, plus any predictors
//! registered through [`RegionState::push_predictor`]) and the machinery
//! around it: the observation buffer, the pending re-computation queue,
//! the modeled cost accounting and the run-time management tick.

use std::collections::{BTreeMap, VecDeque};

use rskip_core::SupervisorPolicy;
use rskip_ir::Value;
use rskip_predict::{
    Chain, DiConfig, DiPredictor, Element, LinkStats, MemoPredictor, Memoizer, Predictor,
};

use crate::costs;
use crate::qos::QosTable;
use crate::runtime::StateFaultTarget;
use crate::signature::{signature, DEFAULT_EDGES};
use crate::supervisor::{Supervisor, SupervisorStats};

/// Aggregate per-region counters.
///
/// Skips are attributed per chain link ([`links`](Self::links)); the
/// historical `skipped_di` / `skipped_memo` counters survive as accessors
/// over link 0 and the fallback links.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Loop outputs observed.
    pub elements: u64,
    /// Per-predictor attribution, in chain order (link 0 is the
    /// first-level predictor).
    pub links: Vec<LinkStats>,
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
    /// detected and contained (chain shadow votes plus pending-record
    /// checksum failures plus counter clamps).
    pub metadata_detections: u64,
}

impl RegionStats {
    /// Elements accepted by any predictor (re-computation skipped).
    pub fn total_skipped(&self) -> u64 {
        self.links.iter().map(|l| l.accepted).sum()
    }

    /// Elements accepted by the first-level predictor (dynamic
    /// interpolation in the paper's configuration).
    pub fn skipped_di(&self) -> u64 {
        self.links.first().map(|l| l.accepted).unwrap_or(0)
    }

    /// Elements accepted by the fallback levels (approximate memoization
    /// in the paper's configuration).
    pub fn skipped_memo(&self) -> u64 {
        self.links.iter().skip(1).map(|l| l.accepted).sum()
    }

    /// Prediction attempts by the fallback levels.
    pub fn memo_attempts(&self) -> u64 {
        self.links.iter().skip(1).map(|l| l.attempts).sum()
    }

    /// Attribution for the link named `name`, if present.
    pub fn link(&self, name: &str) -> Option<&LinkStats> {
        self.links.iter().find(|l| l.name == name)
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

/// The runtime state of one protected region.
#[derive(Clone, Debug)]
pub struct RegionState {
    /// The ordered predictor fallback — the only predictor storage.
    chain: Chain,
    /// Acceptable range handed to newly installed fallback predictors.
    ar: f64,
    /// Whether the transform built a PP version for this region.
    has_body: bool,
    buffer: BTreeMap<u64, Obs>,
    pending: VecDeque<Obs>,
    current: Option<Obs>,
    seq: u64,
    qos: QosTable,
    tick_period: u64,
    since_tick: u64,
    elements: u64,
    recomputed: u64,
    mispredictions: u64,
    faults_recovered: u64,
    tp_adjustments: u64,
    entries: u64,
    /// Observation threshold after which poor first-level performance
    /// disables it.
    disable_check_at: u64,
    /// The online health monitor / circuit breaker, when a supervisor
    /// policy is installed.
    supervisor: Option<Supervisor>,
    /// Whether metadata hardening (checksums, shadow votes, counter
    /// clamps) is active.
    harden: bool,
    /// Hardening checks that fired outside the chain (pending-record
    /// checksum failures, counter clamps).
    metadata_detections: u64,
}

impl RegionState {
    /// Creates region state with the paper's first-level predictor
    /// installed as chain link 0.
    pub fn new(di_config: DiConfig, has_body: bool, tick_period: u64) -> Self {
        let mut chain = Chain::new();
        chain.push(Box::new(DiPredictor::new(di_config)));
        RegionState {
            ar: di_config.ar,
            chain,
            has_body,
            buffer: BTreeMap::new(),
            pending: VecDeque::new(),
            current: None,
            seq: 0,
            qos: QosTable::new(),
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

    /// Installs a trained memoizer as the second-level predictor, with
    /// the modeled per-attempt lookup cost.
    pub fn set_memoizer(&mut self, memo: Memoizer) {
        let k = self.chain.push(Box::new(
            MemoPredictor::new(memo, self.ar).with_costs(costs::MEMO_BASE, costs::MEMO_PER_INPUT),
        ));
        if self.harden {
            self.chain.predictor_mut(k).set_harden(true);
        }
    }

    /// Installs the online health monitor. From here on every observation
    /// is gated by the breaker: Degraded and off-probe elements bypass
    /// the chain entirely and go straight to re-computation.
    pub fn set_supervisor(&mut self, policy: SupervisorPolicy) {
        self.supervisor = Some(Supervisor::new(policy));
    }

    /// Read access to the installed supervisor, if any.
    pub fn supervisor(&self) -> Option<&Supervisor> {
        self.supervisor.as_ref()
    }

    /// Enables metadata hardening: chain predictors duplicate/vote their
    /// state, pending re-computation records are checksum-verified before
    /// replay, and counters are invariant-clamped at every tick.
    pub fn set_harden(&mut self, on: bool) {
        self.harden = on;
        Predictor::set_harden(&mut self.chain, on);
    }

    /// Total hardening self-checks that fired (chain plus region).
    pub fn metadata_detections(&self) -> u64 {
        self.metadata_detections + self.chain.total_detections()
    }

    /// The chain's current tuning parameter, if any link has one.
    pub fn current_tp(&self) -> Option<f64> {
        self.chain.tuning()
    }

    /// Appends an arbitrary predictor to the fallback chain; returns its
    /// link index. This is the extension point for predictors beyond the
    /// paper's two — no runtime changes needed.
    pub fn push_predictor(&mut self, predictor: Box<dyn Predictor>) -> usize {
        self.chain.push(predictor)
    }

    /// Installs a trained QoS table and starting TP.
    pub fn set_qos(&mut self, qos: QosTable, default_tp: f64) {
        self.qos = qos;
        self.chain.set_tuning(default_tp);
    }

    /// Current counters.
    pub fn stats(&self) -> RegionStats {
        RegionStats {
            elements: self.elements,
            links: self.chain.link_stats(),
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

    /// Whether the PP version is worth selecting.
    pub fn pp_useful(&self) -> bool {
        self.has_body && self.chain.any_enabled()
    }

    /// Whether chain link `k` is enabled.
    pub fn link_enabled(&self, k: usize) -> bool {
        self.chain.enabled(k)
    }

    /// Enables or disables chain link `k`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range link index.
    pub fn set_link_enabled(&mut self, k: usize, enabled: bool) {
        self.chain.set_enabled(k, enabled);
    }

    /// Region entry: fresh numbering (the previous exit flushed state).
    pub fn enter(&mut self) -> u64 {
        self.entries += 1;
        self.seq = 0;
        self.chain.begin();
        debug_assert!(self.buffer.is_empty(), "unflushed observations");
        costs::REGION_ENTER
    }

    /// Region exit: flush the chain; its classification lands in the
    /// pending queue / skip counters exactly like a live resolution.
    pub fn exit(&mut self) -> u64 {
        let mut cost = costs::REGION_EXIT;
        let out = self.chain.finish();
        cost += self.absorb(out);
        // Anything still buffered (nothing in practice — the chain
        // resolves every fed element) goes pending.
        let rest: Vec<u64> = self.buffer.keys().copied().collect();
        for seq in rest {
            if let Some(obs) = self.buffer.remove(&seq) {
                cost += costs::CUT_PER_ELEMENT;
                self.recomputed += 1;
                self.pending.push_back(obs);
            }
        }
        cost
    }

    /// One loop output: returns the modeled cost.
    pub fn observe(&mut self, iter: i64, addr: i64, value: Value, args: &[Value]) -> u64 {
        let v = match value {
            Value::F(v) => v,
            Value::I(v) => v as f64,
        };
        let mut cost = costs::OBSERVE_BASE + costs::OBSERVE_PER_ARG * args.len() as u64;
        self.elements += 1;
        let seq = self.seq;
        self.seq += 1;
        let make_obs = || Obs {
            iter,
            addr,
            args: args.to_vec(),
            check: obs_checksum(iter, addr, args),
        };

        // The breaker gates chain access per element. A bypassed element
        // (Degraded, or an off-probe slot while Probing) never reaches a
        // predictor: it goes straight to the re-compute queue, which is
        // exactly the unprotected-of-predictions CP path. The chain's
        // enable bits are untouched, so `pp_useful` keeps selecting the
        // PP version and observations keep flowing — a supervisor that
        // starved itself of observations could never probe its way back.
        let feed = match self.supervisor.as_mut() {
            Some(sup) => sup.gate(),
            None => true,
        };
        if feed {
            let elem = Element {
                seq,
                value: v,
                args: args
                    .iter()
                    .map(|a| match a {
                        Value::F(v) => *v,
                        Value::I(v) => *v as f64,
                    })
                    .collect(),
            };
            let out = self.chain.feed(elem);
            // Fast path: the chain resolved exactly this element right
            // away (the overwhelmingly common case — the first link
            // accepts or rejects synchronously). The observation record
            // never needs to enter the buffer, and on acceptance it
            // never needs to be materialized at all. Identical
            // bookkeeping and modeled cost to the general path below.
            let solo =
                (out.rejected.is_empty() && out.accepted.len() == 1 && out.accepted[0].0 == seq)
                    || (out.accepted.is_empty() && out.rejected == [seq]);
            if solo {
                let accepted = out.rejected.is_empty();
                cost += costs::CUT_PER_ELEMENT + out.cost;
                if let Some(sup) = self.supervisor.as_mut() {
                    sup.record(accepted);
                }
                if !accepted {
                    self.recomputed += 1;
                    self.pending.push_back(make_obs());
                }
            } else {
                self.buffer.insert(seq, make_obs());
                cost += self.absorb(out);
            }
        } else {
            cost += costs::CUT_PER_ELEMENT;
            self.recomputed += 1;
            self.pending.push_back(make_obs());
        }

        // Periodic run-time management (§5).
        self.since_tick += 1;
        if self.since_tick >= self.tick_period {
            self.since_tick = 0;
            cost += self.tick();
        }
        cost
    }

    /// Applies a chain outcome: accepted elements leave the buffer as
    /// skips (the chain attributed them per link), rejected elements
    /// become pending re-computations. Returns the modeled cost: the
    /// per-element classification charge plus the chain's prediction
    /// attempts.
    fn absorb(&mut self, out: rskip_predict::ChainOutcome) -> u64 {
        let cost = costs::CUT_PER_ELEMENT * out.resolved() as u64 + out.cost;
        for (seq, _link) in out.accepted {
            self.buffer.remove(&seq);
            if let Some(sup) = self.supervisor.as_mut() {
                sup.record(true);
            }
        }
        for seq in out.rejected {
            let Some(obs) = self.buffer.remove(&seq) else {
                continue;
            };
            if let Some(sup) = self.supervisor.as_mut() {
                sup.record(false);
            }
            self.recomputed += 1;
            self.pending.push_back(obs);
        }
        cost
    }

    /// Flips one bit in this region's live runtime state — the SEU
    /// campaign over the protection machinery itself. Returns the site
    /// label, or `None` when the chosen target class holds no live state.
    pub fn flip_state(&mut self, target: StateFaultTarget, seed: u64) -> Option<String> {
        match target {
            StateFaultTarget::MemoTable => self.flip_link_state("memo", seed),
            StateFaultTarget::DiPhase => self.flip_link_state("di", seed),
            StateFaultTarget::PendingQueue => self.flip_pending_bit(seed),
            StateFaultTarget::Counters => Some(self.flip_counter_bit(seed)),
        }
    }

    fn flip_link_state(&mut self, name: &str, seed: u64) -> Option<String> {
        for k in 0..self.chain.len() {
            if self.chain.predictor(k).name() == name {
                return self.chain.predictor_mut(k).flip_state_bit(seed);
            }
        }
        None
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
        let changes = self.chain.drain_signal();
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
                let current = self.chain.tuning().unwrap_or(tp);
                if (tp - current).abs() > f64::EPSILON {
                    self.chain.set_tuning(tp);
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
        let links = self.chain.link_stats();
        // Disable the first level at persistently poor accuracy (§5; the
        // paper never observed this in its benchmarks, and neither do
        // ours in practice).
        if self.chain.enabled(0) && self.elements >= self.disable_check_at {
            let di_rate = links[0].accepted as f64 / self.elements as f64;
            if di_rate < 0.02 {
                self.chain.set_enabled(0, false);
            }
            self.disable_check_at *= 4;
        }
        // Disable fallback levels at poor run-time accuracy.
        for (k, l) in links.iter().enumerate().skip(1) {
            if l.enabled && l.attempts >= 512 {
                let hit_rate = l.accepted as f64 / l.attempts as f64;
                if hit_rate < 0.05 {
                    self.chain.set_enabled(k, false);
                }
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
        let mut trainer = rskip_predict::MemoTrainer::new(1);
        for i in 0..1000 {
            let x = (i % 2) as f64;
            trainer.add_sample(&[x], 5.0 + x * 100.0);
        }
        let memo = trainer.build(&rskip_predict::MemoConfig {
            table_bits: 6,
            hist_bins: 32,
        });
        let mut state = RegionState::new(DiConfig { tp: 0.2, ar: 0.1 }, true, 64);
        state.set_memoizer(memo);

        state.enter();
        for i in 0..200i64 {
            let x = (i % 2) as f64;
            state.observe(i, i, Value::F(5.0 + x * 100.0), &[Value::F(x)]);
        }
        state.exit();
        let stats = state.stats();
        assert!(
            stats.skipped_memo() > 100,
            "memo skips: {} (attempts {})",
            stats.skipped_memo(),
            stats.memo_attempts()
        );
        assert!(stats.skip_rate() > 0.5);
        // The same numbers are visible by link name.
        assert_eq!(stats.link("memo").unwrap().accepted, stats.skipped_memo());
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
        state.set_link_enabled(0, false);
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
    fn third_predictor_registers_through_the_trait() {
        // A last-value predictor rides as link 2 with its own
        // attribution — no runtime code knows it exists.
        let mut state = RegionState::new(DiConfig { tp: 0.2, ar: 0.05 }, true, 64);
        let k = state.push_predictor(Box::new(rskip_predict::LastValue::new(0.05)));
        assert_eq!(k, 1);
        state.enter();
        // Alternating plateau: DI cuts constantly; last-value accepts
        // every second element (the repeat of the previous value).
        for i in 0..100i64 {
            let v = if i % 4 < 2 { 5.0 } else { 80.0 };
            state.observe(i, i, Value::F(v), &[]);
        }
        state.exit();
        let stats = state.stats();
        let lv = stats.link("last-value").expect("third link present");
        assert!(lv.attempts > 0);
        assert_eq!(
            stats.total_skipped(),
            stats.skipped_di() + lv.accepted,
            "attribution is per link"
        );
        assert_eq!(
            stats.total_skipped() + stats.recomputed,
            stats.elements,
            "every element resolved exactly once"
        );
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
        assert_eq!(state.current_tp(), Some(0.9), "trained signature adjusts");

        // Jagged alternation: huge slope changes, bin 5 dominates — an
        // unknown signature at every one of ~12 consecutive ticks.
        let jagged: Vec<f64> = (0..200)
            .map(|k| if k % 2 == 0 { 1.0 } else { 100.0 })
            .collect();
        obs_loop(&mut state, &jagged);
        assert_eq!(
            state.current_tp(),
            Some(0.9),
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
        // Element accounting survives the rerouting: every element is
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

        // Healthy input again: cooldown burns, probes sample the chain
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

    #[test]
    fn per_link_disable_is_honored() {
        let mut state = RegionState::new(DiConfig { tp: 0.2, ar: 0.05 }, true, 64);
        let k = state.push_predictor(Box::new(rskip_predict::LastValue::new(0.05)));
        state.set_link_enabled(k, false);
        assert!(!state.link_enabled(k));
        state.enter();
        for i in 0..40i64 {
            state.observe(i, i, Value::F(7.0), &[]);
        }
        state.exit();
        assert_eq!(state.stats().links[k].attempts, 0);
        // Still useful: link 0 remains enabled.
        assert!(state.pp_useful());
    }
}
