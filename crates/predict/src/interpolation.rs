//! Dynamic interpolation — the trend predictor of paper §4.1 / Fig. 5.

use serde::{Deserialize, Serialize};

use crate::relative_difference;

/// Configuration of one dynamic-interpolation instance.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DiConfig {
    /// Tuning parameter (TP): maximum relative slope change tolerated when
    /// extending a phase. Higher TP extends strides more aggressively by
    /// ignoring outliers (§4.1.2); run-time management adjusts it.
    pub tp: f64,
    /// Acceptable range (AR): maximum relative difference between an
    /// original value and its linear prediction for the element to be
    /// considered fault-free (fuzzy validation, §2). The paper evaluates
    /// 0.2, 0.5, 0.8 and 1.0.
    pub ar: f64,
}

impl Default for DiConfig {
    fn default() -> Self {
        DiConfig { tp: 0.5, ar: 0.2 }
    }
}

/// Aggregate counters, the source of the paper's *skip rate* metric
/// ("the ratio of iterations skipping re-computation in the loop", §4.1.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DiStats {
    /// Elements observed.
    pub observed: u64,
    /// Elements accepted by fuzzy validation (re-computation skipped).
    pub accepted: u64,
    /// Elements handed back for re-computation because they are phase
    /// endpoints (interpolation "cannot estimate values for endpoints").
    pub endpoints: u64,
    /// Interior elements rejected by fuzzy validation (possible faults or
    /// mispredictions).
    pub rejected: u64,
    /// Phases cut so far.
    pub phases: u64,
}

impl DiStats {
    /// Skip rate in `[0, 1]`: accepted / observed.
    pub fn skip_rate(&self) -> f64 {
        if self.observed == 0 {
            0.0
        } else {
            self.accepted as f64 / self.observed as f64
        }
    }
}

/// The outcome of cutting a phase: which element sequence numbers were
/// validated (skip re-computation) and which need re-computation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CutResult {
    /// Sequence numbers accepted by fuzzy validation.
    pub accepted: Vec<u64>,
    /// Sequence numbers requiring re-computation: phase endpoints plus
    /// interior elements outside the acceptable range.
    pub pending: Vec<u64>,
}

impl CutResult {
    fn merge(&mut self, other: CutResult) {
        self.accepted.extend(other.accepted);
        self.pending.extend(other.pending);
    }

    /// True if nothing was produced.
    pub fn is_empty(&self) -> bool {
        self.accepted.is_empty() && self.pending.is_empty()
    }
}

/// The dynamic-interpolation phase machine.
///
/// Feed loop outputs in iteration order with [`observe`](Self::observe);
/// each call may return a [`CutResult`] when a phase closes. Call
/// [`flush`](Self::flush) at region exit to close the final phase.
///
/// Elements are numbered by a monotonically increasing *sequence number*
/// (0-based, returned results refer to these numbers); the caller maps them
/// back to loop iterations.
///
/// # Example
///
/// ```
/// use rskip_predict::{DiConfig, DynamicInterpolation};
///
/// let mut di = DynamicInterpolation::new(DiConfig { tp: 0.3, ar: 0.2 });
/// // A clean linear ramp: one long phase, all interior points skip.
/// let mut out = Vec::new();
/// for k in 0..100 {
///     if let Some(cut) = di.observe(k as f64 * 2.0) {
///         out.push(cut);
///     }
/// }
/// let fin = di.flush().unwrap();
/// assert_eq!(fin.accepted.len(), 98); // all but the two endpoints
/// ```
#[derive(Clone, Debug)]
pub struct DynamicInterpolation {
    config: DiConfig,
    /// Current phase: (sequence number, value).
    buf: Vec<(u64, f64)>,
    /// Previous slope (valid when `buf.len() >= 2`).
    last_slope: f64,
    seq: u64,
    /// Phases cut since the current region entry — the first phase of a
    /// region must pending-validate *both* endpoints; later phases share
    /// their first endpoint with the previous phase.
    region_phases: u64,
    stats: DiStats,
    /// Recent relative slope changes (bounded window) — the raw material
    /// for context signatures (§5).
    slope_changes: Vec<f64>,
    slope_window: usize,
    /// Self-protection: when set, the phase registers (first/last endpoint
    /// values and the running slope) are held in triplicate and
    /// majority-voted before every use.
    harden: bool,
    /// Two redundant copies of `[first value, last value, last slope]`.
    shadow: [[f64; 3]; 2],
    /// Voting rounds that found a corrupted register.
    detections: u64,
}

impl DynamicInterpolation {
    /// Creates a phase machine with the given configuration.
    pub fn new(config: DiConfig) -> Self {
        DynamicInterpolation {
            config,
            buf: Vec::new(),
            last_slope: 0.0,
            seq: 0,
            region_phases: 0,
            stats: DiStats::default(),
            slope_changes: Vec::new(),
            slope_window: 256,
            harden: false,
            shadow: [[0.0; 3]; 2],
            detections: 0,
        }
    }

    /// Current configuration.
    pub fn config(&self) -> DiConfig {
        self.config
    }

    /// Adjusts the tuning parameter (run-time management, §5). Takes effect
    /// from the next extension decision.
    pub fn set_tp(&mut self, tp: f64) {
        self.config.tp = tp;
    }

    /// Aggregate counters.
    pub fn stats(&self) -> DiStats {
        self.stats
    }

    /// Relative slope changes observed since the last
    /// [`take_slope_changes`](Self::take_slope_changes) (bounded window).
    pub fn slope_changes(&self) -> &[f64] {
        &self.slope_changes
    }

    /// Drains the slope-change window (called by run-time management after
    /// generating a signature).
    pub fn take_slope_changes(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.slope_changes)
    }

    /// Enables or disables phase-register hardening: with hardening on,
    /// the first/last endpoint values and the running slope are duplicated
    /// into two shadow copies and majority-voted before each use, so a
    /// bit flip in one copy repairs instead of steering phase decisions.
    pub fn set_harden(&mut self, on: bool) {
        self.harden = on;
        self.sync_shadows();
    }

    /// Voting rounds that found (and voted out) a corrupted phase register.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Flips one bit in a live phase register — an SEU aimed at the
    /// protection machinery itself. Returns the site label, or `None` when
    /// the phase buffer is empty (nothing live to corrupt).
    pub fn flip_state_bit(&mut self, seed: u64) -> Option<String> {
        if self.buf.is_empty() {
            return None;
        }
        let mut sites = vec!["first"];
        if self.buf.len() >= 2 {
            sites.push("last");
            sites.push("slope");
        }
        let site = sites[(seed as usize) % sites.len()];
        let bit = ((seed >> 32) % 64) as u32;
        let flip = |v: f64| f64::from_bits(v.to_bits() ^ (1u64 << bit));
        match site {
            "first" => self.buf[0].1 = flip(self.buf[0].1),
            "last" => {
                let n = self.buf.len() - 1;
                self.buf[n].1 = flip(self.buf[n].1);
            }
            _ => self.last_slope = flip(self.last_slope),
        }
        Some(format!("di.{site} bit {bit}"))
    }

    /// Refreshes both shadow copies from the primary registers. Called
    /// after every legitimate mutation; an injected flip (which touches
    /// only the primary) is then outvoted at the next use.
    fn sync_shadows(&mut self) {
        if !self.harden {
            return;
        }
        let first = self.buf.first().map_or(0.0, |&(_, v)| v);
        let last = self.buf.last().map_or(0.0, |&(_, v)| v);
        let regs = [first, last, self.last_slope];
        self.shadow = [regs, regs];
    }

    /// Majority-votes each live register against its two shadow copies,
    /// repairing the primary when it is outvoted.
    fn verify_repair(&mut self) {
        if !self.harden || self.buf.is_empty() {
            return;
        }
        let vote = |p: f64, a: f64, b: f64| -> (f64, bool) {
            let (pb, ab, bb) = (p.to_bits(), a.to_bits(), b.to_bits());
            if pb == ab && pb == bb {
                (p, false)
            } else if ab == bb {
                // Primary outvoted by the two agreeing copies.
                (a, true)
            } else {
                // Three-way disagreement (or a corrupted copy): trust the
                // primary, but record that the check fired.
                (p, true)
            }
        };
        let (first, hit0) = vote(self.buf[0].1, self.shadow[0][0], self.shadow[1][0]);
        self.buf[0].1 = first;
        let mut hits = hit0 as u64;
        if self.buf.len() >= 2 {
            let n = self.buf.len() - 1;
            let (last, hit1) = vote(self.buf[n].1, self.shadow[0][1], self.shadow[1][1]);
            self.buf[n].1 = last;
            let (slope, hit2) = vote(self.last_slope, self.shadow[0][2], self.shadow[1][2]);
            self.last_slope = slope;
            hits += hit1 as u64 + hit2 as u64;
        }
        self.detections += hits;
        if hits > 0 {
            self.sync_shadows();
        }
    }

    /// Observes the next loop output. Returns a [`CutResult`] when this
    /// observation closed a phase.
    pub fn observe(&mut self, value: f64) -> Option<CutResult> {
        self.verify_repair();
        let seq = self.seq;
        self.seq += 1;
        self.stats.observed += 1;

        let result = match self.buf.len() {
            0 => {
                // Setup stage (Fig. 5a).
                self.buf.push((seq, value));
                None
            }
            1 => {
                // Second point defines the first slope; always extends.
                self.last_slope = value - self.buf[0].1;
                self.buf.push((seq, value));
                None
            }
            _ => {
                let prev = self.buf[self.buf.len() - 1].1;
                let slope = value - prev;
                // Relative change of the latest two slopes (Fig. 5b):
                // r = |slope2 - slope1| / |slope1|.
                let r = relative_difference(slope, self.last_slope);
                if self.slope_changes.len() < self.slope_window {
                    self.slope_changes.push(r);
                }
                if r <= self.config.tp {
                    // Extend the current phase (Fig. 5b).
                    self.last_slope = slope;
                    self.buf.push((seq, value));
                    None
                } else {
                    // Cut at the previous iteration (Fig. 5c); the previous
                    // endpoint and this outlier seed the next phase
                    // (Fig. 5d: "the setup stage is no longer necessary").
                    let result = self.cut_phase();
                    let last = *self.buf.last().expect("phase endpoint");
                    self.buf.clear();
                    self.buf.push(last);
                    self.last_slope = value - last.1;
                    self.buf.push((seq, value));
                    Some(result)
                }
            }
        };
        self.sync_shadows();
        result
    }

    /// Closes the final phase (region exit). Every remaining element is
    /// classified: interiors validated against the endpoint line, endpoints
    /// pending.
    pub fn flush(&mut self) -> Option<CutResult> {
        self.verify_repair();
        if self.buf.is_empty() {
            return None;
        }
        let mut result = CutResult::default();
        if self.buf.len() == 1 {
            // A lone point cannot be interpolated.
            result.pending.push(self.buf[0].0);
            self.note_endpoints(1);
        } else {
            result.merge(self.cut_phase());
        }
        self.buf.clear();
        self.seq = 0; // next region entry starts fresh numbering
        self.region_phases = 0;
        self.sync_shadows();
        Some(result)
    }

    /// Resets per-run state, keeping configuration and statistics.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.seq = 0;
        self.last_slope = 0.0;
        self.region_phases = 0;
        self.sync_shadows();
    }

    fn note_endpoints(&mut self, n: u64) {
        self.stats.endpoints += n;
    }

    /// Validates the current buffer as one phase where the *first* endpoint
    /// was already pending-validated by a previous cut (shared endpoint),
    /// except for the very first phase of a region.
    fn cut_phase(&mut self) -> CutResult {
        // When a phase is seeded by the previous phase's endpoint, that
        // element was already counted pending once; do not double-count.
        let first_is_shared = self.region_phases > 0;
        self.region_phases += 1;
        self.stats.phases += 1;
        self.validate_buffer(first_is_shared)
    }

    fn validate_buffer(&mut self, first_is_shared: bool) -> CutResult {
        let mut result = CutResult::default();
        let n = self.buf.len();
        debug_assert!(n >= 2);
        let (s0, v0) = self.buf[0];
        let (s1, v1) = self.buf[n - 1];
        // Endpoints: re-computation (unless the first endpoint was already
        // resolved as the previous phase's last endpoint).
        if !first_is_shared {
            result.pending.push(s0);
            self.note_endpoints(1);
        }
        result.pending.push(s1);
        self.note_endpoints(1);
        let span = (s1 - s0) as f64;
        for &(s, v) in &self.buf[1..n - 1] {
            let t = (s - s0) as f64 / span;
            let pred = v0 + (v1 - v0) * t;
            if relative_difference(v, pred) <= self.config.ar {
                result.accepted.push(s);
                self.stats.accepted += 1;
            } else {
                result.pending.push(s);
                self.stats.rejected += 1;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(di: &mut DynamicInterpolation, values: &[f64]) -> CutResult {
        let mut total = CutResult::default();
        for &v in values {
            if let Some(cut) = di.observe(v) {
                total.merge(cut);
            }
        }
        if let Some(fin) = di.flush() {
            total.merge(fin);
        }
        total
    }

    #[test]
    fn linear_ramp_forms_single_phase() {
        let mut di = DynamicInterpolation::new(DiConfig { tp: 0.1, ar: 0.1 });
        let values: Vec<f64> = (0..50).map(|k| 3.0 + 0.5 * k as f64).collect();
        let r = drive(&mut di, &values);
        assert_eq!(r.accepted.len(), 48);
        assert_eq!(r.pending.len(), 2); // two endpoints
        assert_eq!(di.stats().phases, 1);
        assert!((di.stats().skip_rate() - 0.96).abs() < 1e-9);
    }

    #[test]
    fn constant_values_form_single_phase() {
        let mut di = DynamicInterpolation::new(DiConfig { tp: 0.1, ar: 0.01 });
        let r = drive(&mut di, &[7.0; 20]);
        assert_eq!(r.accepted.len(), 18);
        assert_eq!(r.pending.len(), 2);
    }

    #[test]
    fn slope_break_cuts_phase() {
        // Ramp up then ramp down: exactly one cut at the kink.
        let mut values: Vec<f64> = (0..10).map(|k| k as f64).collect();
        values.extend((0..10).map(|k| 9.0 - k as f64));
        let mut di = DynamicInterpolation::new(DiConfig { tp: 0.5, ar: 0.1 });
        let r = drive(&mut di, &values);
        // Three phases: the ascent, a two-element bridge at the kink
        // (slope 0 between the repeated peak values), and the descent.
        assert_eq!(di.stats().phases, 3);
        // Pending: first endpoint, kink endpoint (shared), final endpoint,
        // and the first point of the descending slope (it broke the trend
        // and seeded phase 2 as its second element — an interior of no
        // phase). Check the accounting is consistent instead of exact ids:
        assert_eq!(
            r.accepted.len() + r.pending.len(),
            values.len(),
            "every element classified exactly once"
        );
        assert!(r.accepted.len() >= 15);
    }

    #[test]
    fn every_element_classified_exactly_once_under_noise() {
        // Deterministic pseudo-noise; moderate TP so several phases form.
        let values: Vec<f64> = (0..200)
            .map(|k| {
                let k = k as f64;
                (k * 0.37).sin() * 10.0 + k * 0.1
            })
            .collect();
        let mut di = DynamicInterpolation::new(DiConfig { tp: 0.4, ar: 0.3 });
        let r = drive(&mut di, &values);
        let mut all: Vec<u64> = r.accepted.iter().chain(r.pending.iter()).copied().collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..200).collect();
        assert_eq!(all, expect);
        assert!(di.stats().phases > 1);
    }

    #[test]
    fn fuzzy_validation_rejects_out_of_range_interior() {
        // One corrupted interior sample on an otherwise perfect line.
        let mut values: Vec<f64> = (0..20).map(|k| 100.0 + k as f64).collect();
        values[10] = 160.0; // way outside AR=0.2 of ~110
                            // TP huge so the corruption does not cut the phase; it must be
                            // caught by validation instead.
        let mut di = DynamicInterpolation::new(DiConfig { tp: 1e9, ar: 0.2 });
        let r = drive(&mut di, &values);
        assert!(r.pending.contains(&10), "corrupted element must be pending");
        assert!(!r.accepted.contains(&10));
    }

    #[test]
    fn small_in_range_error_is_a_false_negative() {
        // The trade-off the paper embraces: within-AR corruption skips.
        let mut values: Vec<f64> = (0..20).map(|k| 100.0 + k as f64).collect();
        values[10] += 5.0; // ~4.5% of 110 < AR=0.2
        let mut di = DynamicInterpolation::new(DiConfig { tp: 1e9, ar: 0.2 });
        let r = drive(&mut di, &values);
        assert!(r.accepted.contains(&10));
    }

    #[test]
    fn higher_tp_yields_fewer_phases() {
        let values: Vec<f64> = (0..300).map(|k| (k as f64 * 0.2).sin() * 5.0).collect();
        let run = |tp: f64| {
            let mut di = DynamicInterpolation::new(DiConfig { tp, ar: 0.5 });
            drive(&mut di, &values);
            di.stats().phases
        };
        let low = run(0.05);
        let high = run(2.0);
        assert!(high < low, "tp=2.0 gave {high} phases, tp=0.05 gave {low}");
    }

    #[test]
    fn higher_ar_accepts_more() {
        let values: Vec<f64> = (0..300)
            .map(|k| (k as f64 * 0.45).sin() * 8.0 + 20.0)
            .collect();
        let run = |ar: f64| {
            let mut di = DynamicInterpolation::new(DiConfig { tp: 0.8, ar });
            drive(&mut di, &values).accepted.len()
        };
        assert!(run(1.0) >= run(0.2));
    }

    #[test]
    fn flush_resets_sequence_numbers() {
        let mut di = DynamicInterpolation::new(DiConfig::default());
        di.observe(1.0);
        di.observe(2.0);
        di.observe(3.0);
        di.flush();
        // New region: numbering restarts at 0.
        di.observe(5.0);
        di.observe(6.0);
        let r = di.flush().unwrap();
        assert!(r.pending.iter().all(|&s| s < 2));
    }

    #[test]
    fn slope_change_window_collects_and_drains() {
        let mut di = DynamicInterpolation::new(DiConfig { tp: 0.5, ar: 0.2 });
        for k in 0..50 {
            di.observe((k as f64 * 0.3).cos());
        }
        assert!(!di.slope_changes().is_empty());
        let taken = di.take_slope_changes();
        assert!(!taken.is_empty());
        assert!(di.slope_changes().is_empty());
    }

    #[test]
    fn two_point_region_is_all_pending() {
        let mut di = DynamicInterpolation::new(DiConfig::default());
        di.observe(1.0);
        di.observe(9.0);
        let r = di.flush().unwrap();
        assert!(r.accepted.is_empty());
        assert_eq!(r.pending.len(), 2);
    }

    #[test]
    fn single_point_region_is_pending() {
        let mut di = DynamicInterpolation::new(DiConfig::default());
        di.observe(1.0);
        let r = di.flush().unwrap();
        assert_eq!(r.pending, vec![0]);
    }

    #[test]
    fn empty_flush_returns_none() {
        let mut di = DynamicInterpolation::new(DiConfig::default());
        assert!(di.flush().is_none());
    }

    #[test]
    fn hardened_di_votes_out_a_flipped_endpoint() {
        // Same ramp through a hardened and a pristine machine; flip a
        // phase register mid-stream in the hardened one. The vote must
        // repair it: classifications stay identical, detection recorded.
        let values: Vec<f64> = (0..60).map(|k| 3.0 + 0.5 * k as f64).collect();
        let cfg = DiConfig { tp: 0.1, ar: 0.1 };
        let mut clean = DynamicInterpolation::new(cfg);
        let mut hard = DynamicInterpolation::new(cfg);
        hard.set_harden(true);
        for (k, &v) in values.iter().enumerate() {
            if k == 30 {
                let site = hard.flip_state_bit(0x0017_0000_0001).expect("live target");
                assert!(site.starts_with("di."));
            }
            assert_eq!(clean.observe(v).is_some(), hard.observe(v).is_some());
        }
        let a = clean.flush().unwrap();
        let b = hard.flush().unwrap();
        assert_eq!(a, b, "vote must fully mask the flip");
        assert!(hard.detections() >= 1);
    }

    #[test]
    fn unhardened_flip_goes_undetected() {
        let mut di = DynamicInterpolation::new(DiConfig { tp: 0.1, ar: 0.1 });
        for k in 0..10 {
            di.observe(k as f64);
        }
        assert!(di.flip_state_bit(0x003f_0000_0002).is_some());
        for k in 10..20 {
            di.observe(k as f64);
        }
        di.flush();
        assert_eq!(di.detections(), 0);
    }

    #[test]
    fn flip_with_no_live_state_returns_none() {
        let mut di = DynamicInterpolation::new(DiConfig::default());
        assert!(di.flip_state_bit(42).is_none());
    }
}
