//! Edge-case tests for the trust mathematics: the exact boundary
//! behaviours that the property suite samples around but never pins.
//!
//! Covered here: [`TrustValue`] clamping at ±1, the formula (9) confidence
//! interval on empty and single-evidence samples, and rule (10) verdicts
//! exactly on the γ boundaries.

use trustlink_trust::confidence::{margin_of_error, sample_std_dev};
use trustlink_trust::prelude::*;

// ---- TrustValue clamping at the ±1 domain edges ------------------------

#[test]
fn trust_clamps_above_plus_one() {
    assert_eq!(TrustValue::new(1.0 + f64::EPSILON).get(), 1.0);
    assert_eq!(TrustValue::new(17.5).get(), 1.0);
    assert_eq!(TrustValue::new(f64::INFINITY).get(), 1.0);
}

#[test]
fn trust_clamps_below_minus_one() {
    assert_eq!(TrustValue::new(-1.0 - f64::EPSILON).get(), -1.0);
    assert_eq!(TrustValue::new(-1e9).get(), -1.0);
    assert_eq!(TrustValue::new(f64::NEG_INFINITY).get(), -1.0);
}

#[test]
fn trust_boundaries_are_exactly_representable() {
    assert_eq!(TrustValue::new(1.0), TrustValue::MAX);
    assert_eq!(TrustValue::new(-1.0), TrustValue::MIN);
    assert_eq!(TrustValue::new(0.0), TrustValue::ZERO);
    // The extremes survive a round-trip untouched.
    assert_eq!(TrustValue::new(TrustValue::MAX.get()), TrustValue::MAX);
    assert_eq!(TrustValue::new(TrustValue::MIN.get()), TrustValue::MIN);
}

#[test]
#[should_panic(expected = "NaN")]
fn trust_rejects_nan() {
    let _ = TrustValue::new(f64::NAN);
}

#[test]
fn weight_at_the_edges() {
    // Weight floors negative trust at zero and passes the positive edge.
    assert_eq!(TrustValue::MIN.weight(), 0.0);
    assert_eq!(TrustValue::ZERO.weight(), 0.0);
    assert_eq!(TrustValue::MAX.weight(), 1.0);
    assert!(!TrustValue::ZERO.is_trusted(), "zero is the uncertainty point, not trust");
}

// ---- Formula (9) with 0 and 1 samples ----------------------------------

#[test]
fn margin_of_error_with_no_samples_is_unbounded() {
    assert_eq!(margin_of_error(&[], 0.95), f64::INFINITY);
}

#[test]
fn margin_of_error_with_one_sample_is_unbounded() {
    // One evidence gives no spread estimate: σ is undefined (n-1 = 0), so
    // the interval must stay unbounded rather than collapsing to zero.
    assert_eq!(margin_of_error(&[0.8], 0.95), f64::INFINITY);
    assert_eq!(margin_of_error(&[-1.0], 0.99), f64::INFINITY);
}

#[test]
fn margin_of_error_becomes_finite_at_two_samples() {
    let m = margin_of_error(&[-1.0, 1.0], 0.95);
    assert!(m.is_finite() && m > 0.0, "two samples give a finite margin, got {m}");
    // Two identical samples: zero spread, zero margin.
    assert_eq!(margin_of_error(&[0.5, 0.5], 0.95), 0.0);
}

#[test]
fn std_dev_degenerate_sample_sizes() {
    assert_eq!(sample_std_dev(&[]), 0.0);
    assert_eq!(sample_std_dev(&[42.0]), 0.0);
}

#[test]
fn interval_from_degenerate_samples_never_decides() {
    // An unbounded formula (9) interval must force rule (10) to withhold
    // judgement, whatever the point estimate says.
    let rule = DecisionRule::default();
    for samples in [&[][..], &[-1.0][..]] {
        let margin = margin_of_error(samples, 0.95);
        assert_eq!(margin, f64::INFINITY);
        for detect in [-1.0, 0.0, 1.0] {
            assert_eq!(rule.decide(detect, margin), Verdict::Unrecognized);
        }
    }
}

// ---- Rule (10) on the γ boundaries -------------------------------------

#[test]
fn verdict_exactly_on_gamma_convicts_and_acquits() {
    // Rule (10) uses closed intervals: detect ∓ margin landing exactly on
    // ±γ is still a judgement.
    let rule = DecisionRule::new(0.6);
    assert_eq!(rule.decide(0.6, 0.0), Verdict::WellBehaving);
    assert_eq!(rule.decide(-0.6, 0.0), Verdict::Intruder);
    assert_eq!(rule.decide(0.7, 0.1), Verdict::WellBehaving); // 0.7 - 0.1 = 0.6
    assert_eq!(rule.decide(-0.7, 0.1), Verdict::Intruder); // -0.7 + 0.1 = -0.6
}

#[test]
fn verdict_just_inside_gamma_withholds() {
    let rule = DecisionRule::new(0.6);
    let eps = 1e-12;
    assert_eq!(rule.decide(0.6 - eps, 0.0), Verdict::Unrecognized);
    assert_eq!(rule.decide(-0.6 + eps, 0.0), Verdict::Unrecognized);
}

#[test]
fn verdict_at_the_domain_extremes() {
    // γ = 1 demands certainty: only exact ±1 with zero margin decides.
    let rule = DecisionRule::new(1.0);
    assert_eq!(rule.decide(1.0, 0.0), Verdict::WellBehaving);
    assert_eq!(rule.decide(-1.0, 0.0), Verdict::Intruder);
    assert_eq!(rule.decide(1.0, 1e-9), Verdict::Unrecognized);
    assert_eq!(rule.decide(-1.0, 1e-9), Verdict::Unrecognized);
}

#[test]
fn gamma_bounds_are_enforced() {
    // γ must sit in (0, 1]: 1.0 is legal, 0.0 and anything above 1 are not.
    let _ = DecisionRule::new(1.0);
    assert!(std::panic::catch_unwind(|| DecisionRule::new(0.0)).is_err());
    assert!(std::panic::catch_unwind(|| DecisionRule::new(1.0 + 1e-9)).is_err());
}
