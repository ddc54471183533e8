//! The pluggable predictor contract.
//!
//! The paper's protection mechanism is an *ordered fallback chain* (§4,
//! Fig. 4): dynamic interpolation predicts first, approximate memoization
//! catches what interpolation can't, and exact re-computation catches the
//! rest. [`Predictor`] is one link of that chain; the
//! [`Chain`](crate::chain::Chain) combinator composes any number of links
//! with per-link attribution, and the runtime layer stays agnostic of
//! which (and how many) predictors are installed.
//!
//! Two kinds of predictor fit the same trait:
//!
//! * **point predictors** ([`MemoPredictor`], [`LastValue`]) implement
//!   [`predict`](Predictor::predict) and resolve every element
//!   immediately through the provided `observe` default (predict →
//!   fuzzy-validate → accept/reject);
//! * **deferring predictors** ([`DiPredictor`]) override
//!   [`observe`](Predictor::observe) and buffer elements, resolving them
//!   in batches (the phase cut) and on [`flush`](Predictor::flush).

use crate::{relative_difference, CutResult, DiConfig, DynamicInterpolation, Memoizer};

/// One observed loop output offered to a predictor.
#[derive(Clone, Debug, PartialEq)]
pub struct Element {
    /// Caller-assigned sequence number; resolutions refer to it.
    pub seq: u64,
    /// The observed output value.
    pub value: f64,
    /// Recorded loop-body inputs (memoization keys). Empty when the
    /// region records none — an empty `Vec` does not allocate.
    pub args: Vec<f64>,
}

/// What a predictor decided about previously offered elements.
///
/// Every element must eventually appear in exactly one resolution
/// (possibly the one from [`Predictor::flush`]); until then the predictor
/// is holding it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Resolution {
    /// Sequence numbers whose values validated — re-computation skipped.
    pub accepted: Vec<u64>,
    /// Sequence numbers this predictor gives up on — the next chain link
    /// (or re-computation) takes them.
    pub rejected: Vec<u64>,
}

impl Resolution {
    /// Accepts a single element.
    pub fn accept_one(seq: u64) -> Self {
        Resolution {
            accepted: vec![seq],
            rejected: Vec::new(),
        }
    }

    /// Rejects a single element.
    pub fn reject_one(seq: u64) -> Self {
        Resolution {
            accepted: Vec::new(),
            rejected: vec![seq],
        }
    }

    /// True when nothing was resolved.
    pub fn is_empty(&self) -> bool {
        self.accepted.is_empty() && self.rejected.is_empty()
    }
}

/// One link of the prediction chain.
///
/// Implementors need [`name`](Self::name),
/// [`acceptable_range`](Self::acceptable_range) and
/// [`clone_box`](Self::clone_box); a point predictor adds
/// [`predict`](Self::predict) and inherits observe-validate-resolve,
/// while a deferring predictor overrides [`observe`](Self::observe) /
/// [`flush`](Self::flush) wholesale. Everything else has no-op defaults.
pub trait Predictor: std::fmt::Debug + Send + Sync {
    /// Short stable label used for per-link stat attribution.
    fn name(&self) -> &'static str;

    /// Acceptable range (AR) for this link's fuzzy validation.
    fn acceptable_range(&self) -> f64;

    /// Predicted value for `elem`, if this predictor has one. Point
    /// predictors implement only this; the default
    /// [`observe`](Self::observe) does the validation.
    fn predict(&mut self, elem: &Element) -> Option<f64> {
        let _ = elem;
        None
    }

    /// Fuzzy validation: is `value` within the acceptable range of
    /// `prediction`?
    fn validate(&self, value: f64, prediction: f64) -> bool {
        relative_difference(value, prediction) <= self.acceptable_range()
    }

    /// Offers one element. The default resolves it immediately via
    /// [`predict`](Self::predict) + [`validate`](Self::validate);
    /// deferring predictors override this and may resolve any number of
    /// previously offered elements instead.
    fn observe(&mut self, elem: &Element) -> Resolution {
        match self.predict(elem) {
            Some(p) if self.validate(elem.value, p) => Resolution::accept_one(elem.seq),
            _ => Resolution::reject_one(elem.seq),
        }
    }

    /// Region exit: resolve everything still held. The default holds
    /// nothing.
    fn flush(&mut self) -> Resolution {
        Resolution::default()
    }

    /// Region entry: drop per-run state, keep configuration and lifetime
    /// statistics.
    fn reset(&mut self) {}

    /// Modeled cost of offering one element with `n_args` recorded
    /// inputs (charged by the runtime's cost model; 0 when the caller
    /// already accounts for the observation itself).
    fn attempt_cost(&self, n_args: usize) -> u64 {
        let _ = n_args;
        0
    }

    /// Run-time management: adjust the tuning parameter. No-op for
    /// predictors without one.
    fn set_tuning(&mut self, tp: f64) {
        let _ = tp;
    }

    /// Current tuning parameter, if this predictor has one.
    fn tuning(&self) -> Option<f64> {
        None
    }

    /// Drains the raw material for context signatures (§5) accumulated
    /// since the last call. Empty for predictors that produce none.
    fn drain_signal(&mut self) -> Vec<f64> {
        Vec::new()
    }

    /// One-line human-readable statistics summary.
    fn report(&self) -> String {
        String::new()
    }

    /// Flips one bit of this predictor's live state — a fault aimed at
    /// the protection machinery itself (SEU campaigns over runtime
    /// metadata). Returns a site label, or `None` when the predictor
    /// holds no corruptible state right now. Default: stateless.
    fn flip_state_bit(&mut self, seed: u64) -> Option<String> {
        let _ = seed;
        None
    }

    /// Self-check firings: how often hardening detected (and contained)
    /// corrupted internal state. Zero for predictors without
    /// self-checking state.
    fn detections(&self) -> u64 {
        0
    }

    /// Enables or disables state hardening (shadow copies, voting,
    /// checksums). Default: nothing to harden.
    fn set_harden(&mut self, on: bool) {
        let _ = on;
    }

    /// Clones this predictor behind the trait object (campaigns clone a
    /// trained runtime per trial).
    fn clone_box(&self) -> Box<dyn Predictor>;
}

impl Clone for Box<dyn Predictor> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// First-level predictor: the paper's dynamic interpolation (§4.1)
/// adapted to the chain protocol.
///
/// The phase machine numbers elements region-relatively; this adapter
/// keeps the translation table back to the chain's sequence numbers.
#[derive(Clone, Debug)]
pub struct DiPredictor {
    di: DynamicInterpolation,
    /// Chain sequence number of the phase machine's `i`-th observation
    /// since the last flush/reset.
    seq_map: Vec<u64>,
}

impl DiPredictor {
    /// Wraps a fresh phase machine.
    pub fn new(config: DiConfig) -> Self {
        DiPredictor {
            di: DynamicInterpolation::new(config),
            seq_map: Vec::new(),
        }
    }

    fn translate(&self, cut: CutResult) -> Resolution {
        Resolution {
            accepted: cut
                .accepted
                .iter()
                .map(|&s| self.seq_map[s as usize])
                .collect(),
            rejected: cut
                .pending
                .iter()
                .map(|&s| self.seq_map[s as usize])
                .collect(),
        }
    }
}

impl Predictor for DiPredictor {
    fn name(&self) -> &'static str {
        "di"
    }

    fn acceptable_range(&self) -> f64 {
        self.di.config().ar
    }

    fn observe(&mut self, elem: &Element) -> Resolution {
        self.seq_map.push(elem.seq);
        match self.di.observe(elem.value) {
            Some(cut) => self.translate(cut),
            None => Resolution::default(),
        }
    }

    fn flush(&mut self) -> Resolution {
        let res = match self.di.flush() {
            Some(cut) => self.translate(cut),
            None => Resolution::default(),
        };
        self.seq_map.clear();
        res
    }

    fn reset(&mut self) {
        self.di.reset();
        self.seq_map.clear();
    }

    fn set_tuning(&mut self, tp: f64) {
        self.di.set_tp(tp);
    }

    fn tuning(&self) -> Option<f64> {
        Some(self.di.config().tp)
    }

    fn drain_signal(&mut self) -> Vec<f64> {
        self.di.take_slope_changes()
    }

    fn report(&self) -> String {
        format!("{:?} detections={}", self.di.stats(), self.di.detections())
    }

    fn flip_state_bit(&mut self, seed: u64) -> Option<String> {
        self.di.flip_state_bit(seed)
    }

    fn detections(&self) -> u64 {
        self.di.detections()
    }

    fn set_harden(&mut self, on: bool) {
        self.di.set_harden(on);
    }

    fn clone_box(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }
}

/// Second-level predictor: approximate memoization (§4.2) as a point
/// predictor — a quantized lookup keyed on the recorded inputs.
#[derive(Clone, Debug)]
pub struct MemoPredictor {
    memo: Memoizer,
    ar: f64,
    base_cost: u64,
    per_input_cost: u64,
    /// Hardening: a shadow copy of the table; lookups are cross-checked
    /// and a disagreement (one copy corrupted) degrades to a miss.
    shadow: Option<Box<Memoizer>>,
    detections: u64,
}

impl MemoPredictor {
    /// Wraps a trained memoizer validating at acceptable range `ar`.
    pub fn new(memo: Memoizer, ar: f64) -> Self {
        MemoPredictor {
            memo,
            ar,
            base_cost: 0,
            per_input_cost: 0,
            shadow: None,
            detections: 0,
        }
    }

    /// Sets the modeled per-attempt cost (the runtime layer owns the
    /// cost constants).
    #[must_use]
    pub fn with_costs(mut self, base: u64, per_input: u64) -> Self {
        self.base_cost = base;
        self.per_input_cost = per_input;
        self
    }

    /// The wrapped memoizer.
    pub fn memoizer(&self) -> &Memoizer {
        &self.memo
    }
}

impl Predictor for MemoPredictor {
    fn name(&self) -> &'static str {
        "memo"
    }

    fn acceptable_range(&self) -> f64 {
        self.ar
    }

    fn predict(&mut self, elem: &Element) -> Option<f64> {
        let primary = self.memo.predict(&elem.args);
        if let Some(shadow) = &self.shadow {
            let check = shadow.predict_quiet(&elem.args);
            let same = match (primary, check) {
                (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
                (None, None) => true,
                _ => false,
            };
            if !same {
                // One copy is corrupted; we cannot tell which, so degrade
                // the lookup to a miss — the chain falls through to the
                // next link or to exact re-computation.
                self.detections += 1;
                return None;
            }
        }
        primary
    }

    fn attempt_cost(&self, n_args: usize) -> u64 {
        self.base_cost + self.per_input_cost * n_args as u64
    }

    fn report(&self) -> String {
        format!("{:?} detections={}", self.memo.stats(), self.detections)
    }

    fn flip_state_bit(&mut self, seed: u64) -> Option<String> {
        self.memo.corrupt_table_bit(seed)
    }

    fn detections(&self) -> u64 {
        self.detections
    }

    fn set_harden(&mut self, on: bool) {
        self.shadow = on.then(|| Box::new(self.memo.clone()));
    }

    fn clone_box(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }
}

/// A minimal reference predictor: predicts each value as the previous
/// one. Useful as a chain-extension example and in tests; not part of
/// the paper's design.
#[derive(Clone, Debug)]
pub struct LastValue {
    ar: f64,
    last: Option<f64>,
}

impl LastValue {
    /// A last-value predictor validating at acceptable range `ar`.
    pub fn new(ar: f64) -> Self {
        LastValue { ar, last: None }
    }
}

impl Predictor for LastValue {
    fn name(&self) -> &'static str {
        "last-value"
    }

    fn acceptable_range(&self) -> f64 {
        self.ar
    }

    fn predict(&mut self, elem: &Element) -> Option<f64> {
        self.last.replace(elem.value)
    }

    fn reset(&mut self) {
        self.last = None;
    }

    fn clone_box(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elem(seq: u64, value: f64) -> Element {
        Element {
            seq,
            value,
            args: Vec::new(),
        }
    }

    #[test]
    fn di_predictor_translates_sequence_numbers() {
        // Offer non-contiguous chain seqs; the phase machine numbers them
        // 0..n internally, and the adapter must translate back.
        let mut p = DiPredictor::new(DiConfig { tp: 0.3, ar: 0.2 });
        let mut resolved = Resolution::default();
        for k in 0..10u64 {
            let r = p.observe(&elem(100 + 7 * k, k as f64 * 2.0));
            resolved.accepted.extend(r.accepted);
            resolved.rejected.extend(r.rejected);
        }
        let fin = p.flush();
        resolved.accepted.extend(fin.accepted);
        resolved.rejected.extend(fin.rejected);
        let mut all: Vec<u64> = resolved
            .accepted
            .iter()
            .chain(&resolved.rejected)
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..10u64).map(|k| 100 + 7 * k).collect::<Vec<_>>());
        // A linear ramp accepts all interiors.
        assert_eq!(resolved.accepted.len(), 8);
    }

    #[test]
    fn memo_predictor_resolves_immediately() {
        let mut trainer = crate::MemoTrainer::new(1);
        for i in 0..500 {
            let x = (i % 4) as f64;
            trainer.add_sample(&[x], 10.0 * x);
        }
        let memo = trainer.build(&crate::MemoConfig {
            table_bits: 6,
            hist_bins: 16,
        });
        let mut p = MemoPredictor::new(memo, 0.1).with_costs(6, 3);
        assert_eq!(p.attempt_cost(2), 12);
        let hit = p.observe(&Element {
            seq: 3,
            value: 20.0,
            args: vec![2.0],
        });
        assert_eq!(hit, Resolution::accept_one(3));
        let miss = p.observe(&Element {
            seq: 4,
            value: 999.0,
            args: vec![2.0],
        });
        assert_eq!(miss, Resolution::reject_one(4));
    }

    #[test]
    fn hardened_memo_turns_a_corrupted_entry_into_a_miss() {
        // Single trained cell so the injected flip hits the same entry the
        // lookup reads. The shadow cross-check must degrade the corrupted
        // lookup to a miss (fall through to re-computation), not serve it.
        let mut trainer = crate::MemoTrainer::new(1);
        for _ in 0..50 {
            trainer.add_sample(&[2.0], 20.0);
        }
        let memo = trainer.build(&crate::MemoConfig {
            table_bits: 4,
            hist_bins: 16,
        });
        let mut p = MemoPredictor::new(memo.clone(), 0.1);
        p.set_harden(true);
        let site = p.flip_state_bit(62 << 32).expect("populated entry");
        assert!(site.starts_with("memo["), "site = {site}");
        let e = Element {
            seq: 0,
            value: 20.0,
            args: vec![2.0],
        };
        assert_eq!(p.predict(&e), None, "cross-check must miss, not serve");
        assert_eq!(p.detections(), 1);

        // Unhardened control: the corrupted value is served as-is.
        let mut bare = MemoPredictor::new(memo, 0.1);
        bare.flip_state_bit(62 << 32).expect("populated entry");
        assert!(bare.predict(&e).is_some());
        assert_eq!(bare.detections(), 0);
    }

    #[test]
    fn empty_memo_has_no_state_to_flip() {
        let trainer = crate::MemoTrainer::new(1);
        let memo = trainer.build(&crate::MemoConfig {
            table_bits: 2,
            hist_bins: 4,
        });
        let mut p = MemoPredictor::new(memo, 0.1);
        assert!(p.flip_state_bit(7).is_none());
    }

    #[test]
    fn last_value_accepts_repeats_and_resets() {
        let mut p = LastValue::new(0.1);
        assert_eq!(p.observe(&elem(0, 5.0)), Resolution::reject_one(0));
        assert_eq!(p.observe(&elem(1, 5.0)), Resolution::accept_one(1));
        assert_eq!(p.observe(&elem(2, 50.0)), Resolution::reject_one(2));
        p.reset();
        assert_eq!(p.observe(&elem(3, 50.0)), Resolution::reject_one(3));
    }
}
