//! # rskip-predict — the prediction models of RSkip
//!
//! Pure implementations of the two approximation techniques the paper uses
//! as predictors (§4):
//!
//! * [`DynamicInterpolation`] — the paper's novel trend predictor (Fig. 5):
//!   loop outputs are sliced into *phases* (consecutive elements covered by
//!   a single linear equation). A phase extends while the relative slope
//!   change stays within the tuning parameter (TP) and is cut otherwise;
//!   at the cut, interior elements are fuzzy-validated against the line
//!   through the phase endpoints with the acceptable range (AR).
//! * [`Memoizer`] / [`MemoTrainer`] — approximate memoization (§4.2),
//!   improving on Paraprox with profile-histogram-driven quantization
//!   levels and a bit-tuning pass that distributes address bits across
//!   inputs by output impact.
//!
//! The crate is dependency-light and independent of the IR. It holds the
//! models only: which predictors run, in what order, and what happens to
//! their rejects (the paper's DI → memoization → re-computation cascade)
//! is decided in one place, the runtime layer's region state
//! (`rskip-runtime`).
//!
//! The [`trend`] module hosts the motivational analyzers behind the paper's
//! Figure 2 (trend coverage and top-K frequent-value coverage).

#![deny(missing_docs)]

mod interpolation;
mod memo;
pub mod trend;

pub use interpolation::{CutResult, DiConfig, DiStats, DynamicInterpolation};
pub use memo::{MemoConfig, MemoStats, MemoTrainer, Memoizer, Quantizer};

/// Relative difference `|a - b| / max(|b|, eps)` — the fuzzy-validation
/// metric ("relative difference is used to define acceptable range", §2).
///
/// `b` is the reference (the prediction); `eps` guards tiny denominators.
///
/// The result is always comparable: a NaN operand (or an ∞ − ∞ / ∞ ÷ ∞
/// indeterminate) yields [`f64::INFINITY`], never NaN, so
/// `relative_difference(a, b) <= ar` is `false` — a non-finite prediction
/// never validates — rather than silently false through NaN ordering.
///
/// # Example
///
/// ```
/// let d = rskip_predict::relative_difference(11.0, 10.0);
/// assert!((d - 0.1).abs() < 1e-12);
/// assert_eq!(rskip_predict::relative_difference(1.0, f64::NAN), f64::INFINITY);
/// ```
pub fn relative_difference(a: f64, b: f64) -> f64 {
    const EPS: f64 = 1e-12;
    let denom = b.abs().max(EPS);
    let d = (a - b).abs() / denom;
    if d.is_nan() {
        f64::INFINITY
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_difference_basics() {
        assert_eq!(relative_difference(10.0, 10.0), 0.0);
        assert!((relative_difference(12.0, 10.0) - 0.2).abs() < 1e-12);
        assert!((relative_difference(8.0, 10.0) - 0.2).abs() < 1e-12);
        assert!(relative_difference(0.0, 10.0) > 0.99);
    }

    #[test]
    fn relative_difference_near_zero_reference() {
        // Guarded denominator: no division by zero, huge distance reported.
        let d = relative_difference(1.0, 0.0);
        assert!(d.is_finite());
        assert!(d > 1e6);
    }

    #[test]
    // The negated `<= ar` form below is literally the expression every
    // validator writes; the test asserts that exact shape.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn relative_difference_never_returns_nan() {
        // NaN on either side: infinite distance, never validates.
        assert_eq!(relative_difference(f64::NAN, 10.0), f64::INFINITY);
        assert_eq!(relative_difference(10.0, f64::NAN), f64::INFINITY);
        assert_eq!(relative_difference(f64::NAN, f64::NAN), f64::INFINITY);
        // Indeterminate forms from infinite operands collapse the same way.
        assert_eq!(
            relative_difference(f64::INFINITY, f64::INFINITY),
            f64::INFINITY
        );
        assert_eq!(relative_difference(3.0, f64::INFINITY), f64::INFINITY);
        assert_eq!(relative_difference(f64::INFINITY, 3.0), f64::INFINITY);
        // And the contract is what validation relies on: `<= ar` is false.
        assert!(!(relative_difference(f64::NAN, 1.0) <= 1.0));
    }
}
