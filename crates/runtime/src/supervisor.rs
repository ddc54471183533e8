//! The per-region runtime supervisor — the *online* half of the paper's
//! run-time management layer (§5–§6, Fig. 6).
//!
//! Training gives each region a QoS table keyed by context signature;
//! deployment until now trusted that table unconditionally. The
//! [`Supervisor`] closes the loop: it watches the health signals the
//! region already produces — cascade reject rate, detected-fault rate, and
//! whether the current context signature is one the QoS table was
//! trained on — and drives a three-state circuit breaker:
//!
//! ```text
//!             window reject/fault rate too high,
//!             or signature drift
//!   Predicting ────────────────────────────────▶ Degraded
//!       ▲                                           │
//!       │ probe agreement ≥ threshold               │ cooldown
//!       │                                           ▼
//!       └──────────────────────────────────────  Probing
//!                 probe agreement < threshold ──▶ (back to Degraded)
//! ```
//!
//! * **Predicting** — the cascade is live. Resolved elements accumulate
//!   into fixed-size health windows; a bad window or a drift streak
//!   demotes the region.
//! * **Degraded** — every element bypasses the cascade and is re-computed
//!   (the CP/SWIFT-R fallback). Protection is maximal, skip rate is
//!   zero. After `cooldown` elements the region starts probing.
//! * **Probing** — every `probe_stride`-th element is fed to the cascade;
//!   the rest stay on the re-compute path. Once `probe_window` probes
//!   resolve, agreement ≥ `min_probe_agreement` promotes the region
//!   back; anything less re-demotes it for a fresh cooldown.
//!
//! The machine is **pure bookkeeping** — no clocks, no I/O, no knowledge
//! of the cascade — which is what makes its hysteresis property testable:
//! from the moment a region enters Degraded, Predicting is unreachable
//! for at least `cooldown + probe_window` elements, for *any* input
//! sequence (see the property tests in `tests/proptest_supervisor.rs`).
//!
//! [`RegionState`](crate::region::RegionState) owns one supervisor per
//! region and consults [`Supervisor::gate`] on every observation to
//! decide element routing.

/// The knobs of one region's [`Supervisor`]: window sizes, demotion
/// thresholds, cooldown and probing. Supervision is a deployment choice,
/// so the policy travels in
/// [`RuntimeConfig::supervisor`](crate::RuntimeConfig::supervisor), not in
/// the compile-time plan. The module docs describe the state machine it
/// drives.
///
/// The cooldown plus the probe window form the breaker's hysteresis: a
/// region can never bounce Predicting → Degraded → Predicting in fewer
/// than `cooldown + probe_window * probe_stride` elements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SupervisorPolicy {
    /// Resolved elements per health window.
    pub window: u32,
    /// Demote when a window's rejected/resolved ratio exceeds this.
    pub max_reject_rate: f64,
    /// Demote when a window's detected-fault/resolved ratio exceeds this.
    pub max_fault_rate: f64,
    /// Demote after this many consecutive unknown-signature ticks.
    pub drift_windows: u32,
    /// Elements to hold the region in Degraded before probing.
    pub cooldown: u32,
    /// In Probing, feed every `probe_stride`-th element to the cascade.
    pub probe_stride: u32,
    /// Probed elements that must resolve before a promotion decision.
    pub probe_window: u32,
    /// Minimum probe agreement (accepted/probed) to promote.
    pub min_probe_agreement: f64,
}

/// The circuit-breaker state of one region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SupervisorState {
    /// Cascade live, health windows scored.
    Predicting,
    /// Cascade bypassed; everything re-computed.
    Degraded,
    /// Cascade sampled on a fraction of elements.
    Probing,
}

impl SupervisorState {
    /// Short label for reports (`predict` / `degraded` / `probing`).
    pub fn label(self) -> &'static str {
        match self {
            SupervisorState::Predicting => "predict",
            SupervisorState::Degraded => "degraded",
            SupervisorState::Probing => "probing",
        }
    }
}

/// Why a region was demoted (aggregate counters, for reports).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DemotionCauses {
    /// Window reject rate exceeded the policy threshold.
    pub reject_rate: u64,
    /// Window detected-fault rate exceeded the policy threshold.
    pub fault_rate: u64,
    /// Consecutive unknown-signature ticks reached the drift threshold.
    pub drift: u64,
    /// A probe window failed to clear the promotion threshold.
    pub failed_probe: u64,
}

impl DemotionCauses {
    /// Total demotions.
    pub fn total(&self) -> u64 {
        self.reject_rate + self.fault_rate + self.drift + self.failed_probe
    }
}

/// Aggregate supervisor statistics for one region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Elements gated while Predicting.
    pub elements_predicting: u64,
    /// Elements gated while Degraded.
    pub elements_degraded: u64,
    /// Elements gated while Probing.
    pub elements_probing: u64,
    /// Demotions by cause.
    pub demotions: DemotionCauses,
    /// Promotions back to Predicting.
    pub promotions: u64,
}

impl SupervisorStats {
    /// Total gated elements (the supervisor's element clock).
    pub fn total_elements(&self) -> u64 {
        self.elements_predicting + self.elements_degraded + self.elements_probing
    }
}

/// The per-region three-state circuit breaker. See the module docs for
/// the state machine.
#[derive(Clone, Debug)]
pub struct Supervisor {
    policy: SupervisorPolicy,
    state: SupervisorState,
    /// The element clock: one tick per [`gate`](Self::gate) call.
    clock: u64,
    // --- Predicting: health-window accumulation ---
    win_resolved: u32,
    win_rejected: u32,
    win_faults: u32,
    unknown_streak: u32,
    // --- Degraded ---
    cooldown_left: u32,
    // --- Probing ---
    probe_phase: u32,
    probe_resolved: u32,
    probe_accepted: u32,
    // --- aggregate stats ---
    stats: SupervisorStats,
}

impl Supervisor {
    /// A supervisor in the Predicting state under `policy`.
    pub fn new(policy: SupervisorPolicy) -> Self {
        Supervisor {
            policy: sanitize(policy),
            state: SupervisorState::Predicting,
            clock: 0,
            win_resolved: 0,
            win_rejected: 0,
            win_faults: 0,
            unknown_streak: 0,
            cooldown_left: 0,
            probe_phase: 0,
            probe_resolved: 0,
            probe_accepted: 0,
            stats: SupervisorStats::default(),
        }
    }

    /// Current breaker state.
    pub fn state(&self) -> SupervisorState {
        self.state
    }

    /// The policy in force.
    pub fn policy(&self) -> &SupervisorPolicy {
        &self.policy
    }

    /// The element clock — total [`gate`](Self::gate) calls so far.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> SupervisorStats {
        self.stats
    }

    /// Gates one observed element: returns `true` if it should be fed to
    /// the prediction cascade, `false` if it must take the re-compute path.
    /// Also advances the element clock — in Degraded, each gated element
    /// burns cooldown, and the transition to Probing happens here.
    pub fn gate(&mut self) -> bool {
        self.clock += 1;
        match self.state {
            SupervisorState::Predicting => {
                self.stats.elements_predicting += 1;
                true
            }
            SupervisorState::Degraded => {
                self.stats.elements_degraded += 1;
                self.cooldown_left = self.cooldown_left.saturating_sub(1);
                if self.cooldown_left == 0 {
                    self.enter_probing();
                }
                // The element that finished the cooldown still takes the
                // safe path; probing starts with the next one.
                false
            }
            SupervisorState::Probing => {
                self.stats.elements_probing += 1;
                self.probe_phase += 1;
                if self.probe_phase >= self.policy.probe_stride {
                    self.probe_phase = 0;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records one cascade-resolved element (`accepted` = a predictor
    /// skipped it; `!accepted` = it was rejected to the pending queue).
    /// In Predicting this feeds the health window; in Probing it feeds
    /// the promotion decision. Late resolutions arriving in Degraded
    /// (held elements classified after a demotion) are ignored.
    pub fn record(&mut self, accepted: bool) {
        match self.state {
            SupervisorState::Predicting => {
                self.win_resolved += 1;
                if !accepted {
                    self.win_rejected += 1;
                }
                self.maybe_close_window();
            }
            SupervisorState::Probing => {
                self.probe_resolved += 1;
                if accepted {
                    self.probe_accepted += 1;
                }
                if self.probe_resolved >= self.policy.probe_window {
                    self.finish_probe();
                }
            }
            SupervisorState::Degraded => {}
        }
    }

    /// Records a detected fault (a pending element whose re-computation
    /// disagreed with memory, or a hardening check that fired). Counts
    /// against the current health window in Predicting.
    pub fn record_fault(&mut self) {
        if self.state == SupervisorState::Predicting {
            self.win_faults += 1;
            self.maybe_close_window();
        }
    }

    /// Records one signature tick: `known` = the current context
    /// signature exists in the trained QoS table. A streak of unknown
    /// signatures is the drift demotion trigger — and it fires from
    /// *Probing* too: fuzzy validation is blind to drift (a plausible
    /// value from an untrained context still validates), so probe
    /// agreement alone must not promote a region whose context the QoS
    /// table has never scored.
    pub fn note_signature(&mut self, known: bool) {
        if known {
            self.unknown_streak = 0;
            return;
        }
        self.unknown_streak += 1;
        if self.state != SupervisorState::Degraded
            && self.unknown_streak >= self.policy.drift_windows
        {
            self.stats.demotions.drift += 1;
            self.enter_degraded();
        }
    }

    fn maybe_close_window(&mut self) {
        if self.win_resolved < self.policy.window {
            return;
        }
        let resolved = f64::from(self.win_resolved);
        let reject_rate = f64::from(self.win_rejected) / resolved;
        let fault_rate = f64::from(self.win_faults) / resolved;
        if fault_rate > self.policy.max_fault_rate {
            self.stats.demotions.fault_rate += 1;
            self.enter_degraded();
        } else if reject_rate > self.policy.max_reject_rate {
            self.stats.demotions.reject_rate += 1;
            self.enter_degraded();
        } else {
            self.win_resolved = 0;
            self.win_rejected = 0;
            self.win_faults = 0;
        }
    }

    fn finish_probe(&mut self) {
        let agreement = f64::from(self.probe_accepted) / f64::from(self.probe_resolved.max(1));
        if agreement >= self.policy.min_probe_agreement {
            self.stats.promotions += 1;
            self.state = SupervisorState::Predicting;
            self.win_resolved = 0;
            self.win_rejected = 0;
            self.win_faults = 0;
            self.unknown_streak = 0;
        } else {
            self.stats.demotions.failed_probe += 1;
            self.enter_degraded();
        }
    }

    fn enter_degraded(&mut self) {
        self.state = SupervisorState::Degraded;
        self.cooldown_left = self.policy.cooldown;
        self.win_resolved = 0;
        self.win_rejected = 0;
        self.win_faults = 0;
    }

    fn enter_probing(&mut self) {
        self.state = SupervisorState::Probing;
        self.probe_phase = 0;
        self.probe_resolved = 0;
        self.probe_accepted = 0;
    }
}

/// Clamps degenerate policy values that would make the breaker vacuous
/// (zero-length windows or strides) up to 1 — the state machine's
/// invariants assume every window eventually closes.
fn sanitize(mut p: SupervisorPolicy) -> SupervisorPolicy {
    p.window = p.window.max(1);
    p.drift_windows = p.drift_windows.max(1);
    p.cooldown = p.cooldown.max(1);
    p.probe_stride = p.probe_stride.max(1);
    p.probe_window = p.probe_window.max(1);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> SupervisorPolicy {
        SupervisorPolicy {
            window: 8,
            max_reject_rate: 0.5,
            max_fault_rate: 0.2,
            drift_windows: 2,
            cooldown: 16,
            probe_stride: 2,
            probe_window: 4,
            min_probe_agreement: 0.75,
        }
    }

    /// Feeds `n` elements, recording each cascade-gated one as `accepted`.
    fn drive(sup: &mut Supervisor, n: u32, accepted: bool) {
        for _ in 0..n {
            if sup.gate() {
                sup.record(accepted);
            }
        }
    }

    #[test]
    fn healthy_stream_stays_predicting() {
        let mut sup = Supervisor::new(policy());
        drive(&mut sup, 1000, true);
        assert_eq!(sup.state(), SupervisorState::Predicting);
        assert_eq!(sup.stats().demotions.total(), 0);
        assert_eq!(sup.stats().elements_predicting, 1000);
    }

    #[test]
    fn reject_storm_demotes_within_one_window() {
        let mut sup = Supervisor::new(policy());
        drive(&mut sup, 8, false);
        assert_eq!(sup.state(), SupervisorState::Degraded);
        assert_eq!(sup.stats().demotions.reject_rate, 1);
    }

    #[test]
    fn fault_rate_demotes() {
        let mut sup = Supervisor::new(policy());
        for _ in 0..6 {
            assert!(sup.gate());
            sup.record(true);
        }
        sup.record_fault();
        sup.record_fault(); // 2 faults over an 8-resolution window
        assert!(sup.gate());
        sup.record(true);
        assert!(sup.gate());
        sup.record(true);
        assert_eq!(sup.state(), SupervisorState::Degraded);
        assert_eq!(sup.stats().demotions.fault_rate, 1);
    }

    #[test]
    fn signature_drift_demotes_after_a_streak() {
        let mut sup = Supervisor::new(policy());
        sup.note_signature(false);
        assert_eq!(sup.state(), SupervisorState::Predicting);
        sup.note_signature(true); // streak broken
        sup.note_signature(false);
        assert_eq!(sup.state(), SupervisorState::Predicting);
        sup.note_signature(false);
        assert_eq!(sup.state(), SupervisorState::Degraded);
        assert_eq!(sup.stats().demotions.drift, 1);
    }

    #[test]
    fn cooldown_then_probing_then_promotion() {
        let mut sup = Supervisor::new(policy());
        drive(&mut sup, 8, false); // demote
        assert_eq!(sup.state(), SupervisorState::Degraded);
        // Every element during cooldown takes the safe path.
        for _ in 0..16 {
            assert!(!sup.gate());
        }
        assert_eq!(sup.state(), SupervisorState::Probing);
        // Probing: every 2nd element reaches the cascade. Feed good probes.
        let mut probed = 0;
        while sup.state() == SupervisorState::Probing {
            if sup.gate() {
                probed += 1;
                sup.record(true);
            }
        }
        assert_eq!(probed, 4); // probe_window
        assert_eq!(sup.state(), SupervisorState::Predicting);
        assert_eq!(sup.stats().promotions, 1);
    }

    #[test]
    fn failed_probe_re_demotes_with_fresh_cooldown() {
        let mut sup = Supervisor::new(policy());
        drive(&mut sup, 8, false);
        for _ in 0..16 {
            sup.gate();
        }
        assert_eq!(sup.state(), SupervisorState::Probing);
        while sup.state() == SupervisorState::Probing {
            if sup.gate() {
                sup.record(false); // probes keep disagreeing
            }
        }
        assert_eq!(sup.state(), SupervisorState::Degraded);
        assert_eq!(sup.stats().demotions.failed_probe, 1);
        // The fresh cooldown holds for another full period.
        for _ in 0..15 {
            assert!(!sup.gate());
            assert_eq!(sup.state(), SupervisorState::Degraded);
        }
    }

    #[test]
    fn drift_streak_re_demotes_a_probing_region() {
        let mut sup = Supervisor::new(policy());
        drive(&mut sup, 8, false); // demote
        for _ in 0..16 {
            sup.gate(); // burn cooldown
        }
        assert_eq!(sup.state(), SupervisorState::Probing);
        // Probes agree (fuzzy validation is happy), but the context
        // signatures are still unknown: the drift streak must win.
        sup.gate();
        sup.record(true);
        sup.note_signature(false);
        sup.note_signature(false);
        assert_eq!(sup.state(), SupervisorState::Degraded);
        assert_eq!(sup.stats().demotions.drift, 1);
    }

    #[test]
    fn late_resolutions_in_degraded_are_ignored() {
        let mut sup = Supervisor::new(policy());
        drive(&mut sup, 8, false);
        assert_eq!(sup.state(), SupervisorState::Degraded);
        // A DI flush after demotion delivers stragglers; they must not
        // perturb cooldown or probe accounting.
        sup.record(true);
        sup.record(false);
        assert_eq!(sup.state(), SupervisorState::Degraded);
        assert_eq!(sup.stats().elements_degraded, 0);
    }

    #[test]
    fn time_in_state_sums_to_the_clock() {
        let mut sup = Supervisor::new(policy());
        drive(&mut sup, 8, false); // demote
        for _ in 0..40 {
            if sup.gate() {
                sup.record(true);
            }
        }
        let s = sup.stats();
        assert_eq!(s.total_elements(), sup.clock());
        assert!(s.elements_degraded >= 16);
        assert!(s.elements_probing > 0);
    }

    #[test]
    fn degenerate_policy_is_sanitized() {
        let mut p = policy();
        p.window = 0;
        p.probe_stride = 0;
        p.cooldown = 0;
        let sup = Supervisor::new(p);
        assert_eq!(sup.policy().window, 1);
        assert_eq!(sup.policy().probe_stride, 1);
        assert_eq!(sup.policy().cooldown, 1);
    }
}
