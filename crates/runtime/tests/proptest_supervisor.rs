//! Property tests over the [`Supervisor`] circuit breaker.
//!
//! The supervisor is pure bookkeeping, so its hysteresis guarantee can be
//! checked against *arbitrary* workload behavior: any interleaving of
//! accepted/rejected elements, detected faults and signature ticks, under
//! any (possibly degenerate) policy. Elements are driven through the
//! region contract — `record` is only called for elements `gate` routed
//! to the cascade, which is how `RegionState` uses the machine.

use proptest::prelude::*;
use rskip_runtime::{Supervisor, SupervisorPolicy, SupervisorState};

/// One unit of workload behavior, as the supervisor sees it.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// An observed element; the payload is whether the cascade would
    /// accept it if it gets fed.
    Observed(bool),
    /// A detected fault (pending-replay mismatch or hardening check).
    Fault,
    /// A periodic signature tick; the payload is whether the context is
    /// one the QoS table knows.
    Signature(bool),
}

fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        any::<bool>().prop_map(Event::Observed),
        any::<bool>().prop_map(Event::Observed),
        any::<bool>().prop_map(Event::Observed),
        Just(Event::Fault),
        any::<bool>().prop_map(Event::Signature),
    ]
}

fn policy() -> impl Strategy<Value = SupervisorPolicy> {
    (
        (0u32..20, 0.0f64..1.0, 0.0f64..1.0, 0u32..5),
        (0u32..40, 0u32..6, 0u32..20, 0.0f64..1.0),
    )
        .prop_map(
            |(
                (window, max_reject_rate, max_fault_rate, drift_windows),
                (cooldown, probe_stride, probe_window, min_probe_agreement),
            )| SupervisorPolicy {
                window,
                max_reject_rate,
                max_fault_rate,
                drift_windows,
                cooldown,
                probe_stride,
                probe_window,
                min_probe_agreement,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hysteresis: from the moment a region enters Degraded, Predicting
    /// is unreachable for at least `cooldown + probe_window` elements —
    /// no Predicting → Degraded → Predicting flap inside one cooldown,
    /// whatever the workload does. The bound is in element-clock ticks:
    /// the full cooldown burns on the safe path, and a promotion then
    /// needs `probe_window` probe resolutions, each of which costs at
    /// least one gated element.
    #[test]
    fn no_flap_inside_cooldown(events in prop::collection::vec(event(), 1..600), p in policy()) {
        let mut sup = Supervisor::new(p);
        // The sanitized policy is the one in force.
        let floor = u64::from(sup.policy().cooldown) + u64::from(sup.policy().probe_window);
        let mut prev = sup.state();
        let mut degraded_at: Option<u64> = None;
        for ev in events {
            match ev {
                Event::Observed(accepted) => {
                    if sup.gate() {
                        sup.record(accepted);
                    }
                }
                Event::Fault => sup.record_fault(),
                Event::Signature(known) => sup.note_signature(known),
            }
            let now = sup.state();
            if now != prev {
                match now {
                    SupervisorState::Degraded => degraded_at = Some(sup.clock()),
                    SupervisorState::Predicting => {
                        let entered = degraded_at.expect("promotion without a prior demotion");
                        prop_assert!(
                            sup.clock() - entered >= floor,
                            "promoted {} elements after demotion (cooldown {} + probe window {})",
                            sup.clock() - entered,
                            sup.policy().cooldown,
                            sup.policy().probe_window,
                        );
                    }
                    SupervisorState::Probing => {}
                }
                prev = now;
            }
        }
    }

    /// Bookkeeping invariants under arbitrary drive: the per-state
    /// element counts partition the clock, and every promotion was
    /// preceded by its own demotion.
    #[test]
    fn accounting_is_conserved(events in prop::collection::vec(event(), 1..600), p in policy()) {
        let mut sup = Supervisor::new(p);
        for ev in events {
            match ev {
                Event::Observed(accepted) => {
                    if sup.gate() {
                        sup.record(accepted);
                    }
                }
                Event::Fault => sup.record_fault(),
                Event::Signature(known) => sup.note_signature(known),
            }
        }
        let s = sup.stats();
        prop_assert_eq!(s.total_elements(), sup.clock());
        prop_assert!(s.promotions <= s.demotions.total());
    }
}
