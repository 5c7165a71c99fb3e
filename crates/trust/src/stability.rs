//! Link-stability weighting of investigation evidence.
//!
//! The paper evaluates on stationary meshes, where a witness's answer is as
//! reliable as the witness itself — trust alone weights evidence. Under
//! mobility that breaks down: a perfectly honest witness answering over a
//! link that formed two seconds ago (or that keeps flapping) reports a view
//! that may already be stale, and the pinned brisk-churn scenario shows the
//! consequence — honest nodes get convicted when a true link dissolves while
//! its advertisement is still in flight.
//!
//! This module scores the *channel* the evidence rode over, not the witness:
//! a weight in `[0, 1]` derived from the symmetric-link age and flap history
//! that the IDS extracts from the typed audit log. Formula (8),
//! [`crate::aggregate::detection_value`], scales each evidence row's answer
//! by the row's stability while keeping the witness's full trust in the
//! normalizer, so unstable evidence *dilutes* the
//! detection value toward zero exactly like a missing answer does. Churn
//! noise therefore degrades detection gracefully — it can delay a verdict,
//! never manufacture one — while mature stable links carry weight `1.0`
//! and reproduce the stationary results bit for bit.
//!
//! The packet-level detector (`trustlink_core::DetectorNode`) weighs every
//! evidence row this way; it has no unweighted recipe. With the same flap
//! memory, its witnesses abstain rather than deny a link they watched die.
//! The abstract round engine models no links and gives every row
//! stability `1.0`.

/// Tunable knobs of the stability weighting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityParams {
    /// A link must have been continuously up for this long to carry full
    /// weight; younger links ramp up linearly from zero.
    pub mature_age_secs: f64,
    /// A flap within this window still taints the link: the weight also
    /// ramps linearly with the time since the last flap.
    pub flap_memory_secs: f64,
    /// Hard cap on the weight of evidence from a link that is currently
    /// *down* (the adjacency dissolved and has not re-formed) — precisely
    /// the situation that produces churn false positives.
    pub down_cap: f64,
}

impl Default for StabilityParams {
    /// Full weight after 8 s of uninterrupted adjacency, a 25 s flap
    /// memory, and a 0.25 cap on currently-down links. The maturity age is
    /// deliberately shorter than any investigation warmup in the workspace
    /// so stationary scenarios reach weight `1.0` before their first
    /// verdict.
    fn default() -> Self {
        StabilityParams { mature_age_secs: 8.0, flap_memory_secs: 25.0, down_cap: 0.25 }
    }
}

fn ramp(x: f64, full_at: f64) -> f64 {
    if full_at <= 0.0 {
        1.0
    } else {
        (x / full_at).clamp(0.0, 1.0)
    }
}

/// The stability weight of one observed link.
///
/// Argument convention (both observations are "as of now"):
///
/// - `age_secs`: seconds the symmetric adjacency has been continuously up,
///   or `None` if it is currently down.
/// - `secs_since_flap`: seconds since the adjacency was last lost, or
///   `None` if it never flapped.
///
/// A link that was **never observed** (`None`, `None`) carries weight
/// `1.0`: no history is not evidence of instability — testimony from
/// witnesses we only reach over multi-hop routes is weighted by trust
/// alone, exactly as before stability weighting existed.
///
/// A link that is **up** weighs `min(ramp(age), ramp(since_flap))`, both
/// ramps linear and saturating at 1. A stationary link never flaps and only
/// ages, so after `mature_age_secs` its weight is exactly `1.0`.
///
/// A link that is **down after flapping** (`None`, `Some`) is capped at
/// [`StabilityParams::down_cap`] and further reduced the more recent the
/// flap.
pub fn stability_weight(
    params: &StabilityParams,
    age_secs: Option<f64>,
    secs_since_flap: Option<f64>,
) -> f64 {
    match (age_secs, secs_since_flap) {
        (None, None) => 1.0,
        (Some(age), since) => {
            let age_w = ramp(age, params.mature_age_secs);
            let flap_w = since.map_or(1.0, |s| ramp(s, params.flap_memory_secs));
            age_w.min(flap_w)
        }
        (None, Some(since)) => params.down_cap.min(ramp(since, params.flap_memory_secs)).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> StabilityParams {
        StabilityParams::default()
    }

    #[test]
    fn unobserved_links_are_neutral() {
        assert_eq!(stability_weight(&p(), None, None), 1.0);
    }

    #[test]
    fn mature_stable_links_weigh_exactly_one() {
        // Bit-exactness matters: this is what keeps stationary conviction
        // sets identical with stability weighting enabled.
        assert_eq!(stability_weight(&p(), Some(8.0), None), 1.0);
        assert_eq!(stability_weight(&p(), Some(500.0), None), 1.0);
        assert_eq!(stability_weight(&p(), Some(100.0), Some(1000.0)), 1.0);
    }

    #[test]
    fn young_links_ramp_up() {
        let w = stability_weight(&p(), Some(2.0), None);
        assert!((w - 0.25).abs() < 1e-12, "w={w}");
        assert_eq!(stability_weight(&p(), Some(0.0), None), 0.0);
    }

    #[test]
    fn recent_flaps_taint_even_mature_links() {
        // Up for 10 s (past maturity) but flapped 10 s ago: the flap ramp
        // dominates.
        let w = stability_weight(&p(), Some(10.0), Some(10.0));
        assert!((w - 10.0 / 25.0).abs() < 1e-12, "w={w}");
    }

    #[test]
    fn down_links_are_capped() {
        let w = stability_weight(&p(), None, Some(1000.0));
        assert_eq!(w, 0.25);
        // ... and a just-flapped down link is worth almost nothing.
        let w = stability_weight(&p(), None, Some(1.0));
        assert!((w - 1.0 / 25.0).abs() < 1e-12, "w={w}");
    }

    #[test]
    fn degenerate_params_never_divide_by_zero() {
        let z = StabilityParams { mature_age_secs: 0.0, flap_memory_secs: 0.0, down_cap: 0.5 };
        assert_eq!(stability_weight(&z, Some(0.0), None), 1.0);
        assert_eq!(stability_weight(&z, None, Some(0.0)), 0.5);
    }

    #[test]
    fn weights_stay_in_unit_interval() {
        for age in [None, Some(0.0), Some(3.0), Some(50.0)] {
            for flap in [None, Some(0.0), Some(3.0), Some(50.0)] {
                let w = stability_weight(&p(), age, flap);
                assert!((0.0..=1.0).contains(&w), "w={w} for {age:?}/{flap:?}");
            }
        }
    }
}
