//! Formula (5): the per-time-slot trust update.
//!
//! > `T(A,I)_Δt = Σ_j α_j · e_j + β · T(A,I)_Δ(t-1)`
//!
//! The forgetting factor `β ∈ [0, 1)` privileges fresh evidence (Property 4);
//! the gravity weights `α_j` come from [`GravityCatalogue`]. The result is
//! clamped into the trust domain `[-1, 1]`.

use crate::value::{EvidenceKind, GravityCatalogue, TrustValue};

/// The trust-update operator of formula (5).
///
/// ```
/// use trustlink_trust::{TrustUpdate, TrustValue, EvidenceKind};
///
/// let up = TrustUpdate::default(); // β = 0.9, default gravity catalogue
/// let before = TrustValue::DEFAULT;
/// // One slot in which the node lied to an investigation:
/// let after = up.step(before, &[EvidenceKind::FalseTestimony]);
/// assert!(after < before);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrustUpdate {
    beta: f64,
    catalogue: GravityCatalogue,
}

impl TrustUpdate {
    /// Builds an update operator with forgetting factor `beta` and the
    /// default gravity catalogue.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ beta < 1` (at `beta = 1` nothing is ever
    /// forgotten and trust can pin at the clamp bounds forever).
    pub fn new(beta: f64) -> Self {
        TrustUpdate::with_catalogue(beta, GravityCatalogue::default())
    }

    /// Builds an update operator with an explicit gravity catalogue.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ beta < 1`.
    pub fn with_catalogue(beta: f64, catalogue: GravityCatalogue) -> Self {
        assert!((0.0..1.0).contains(&beta), "forgetting factor must be in [0, 1)");
        TrustUpdate { beta, catalogue }
    }

    /// The forgetting factor β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The gravity catalogue in force.
    pub fn catalogue(&self) -> &GravityCatalogue {
        &self.catalogue
    }

    /// Applies formula (5) for one time slot: combines the previous trust
    /// with the evidence collected during the slot.
    pub fn step(&self, previous: TrustValue, evidences: &[EvidenceKind]) -> TrustValue {
        let fresh: f64 = evidences.iter().map(|&k| self.catalogue.contribution(k)).sum();
        TrustValue::new(self.beta * previous.get() + fresh)
    }

    /// The trust value a node converges to if it produces exactly
    /// `evidences` every slot, ignoring clamping:
    /// `Σ α e / (1 - β)` (the fixed point of the affine map).
    pub fn fixed_point(&self, evidences: &[EvidenceKind]) -> TrustValue {
        let fresh: f64 = evidences.iter().map(|&k| self.catalogue.contribution(k)).sum();
        TrustValue::new(fresh / (1.0 - self.beta))
    }
}

impl Default for TrustUpdate {
    /// `β = 0.9` with the default catalogue, so steady-state benign
    /// behaviour sits at the paper's default trust `0.4`.
    fn default() -> Self {
        TrustUpdate::new(0.9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_behaviour_converges_to_default_trust() {
        let up = TrustUpdate::default();
        let mut t = TrustValue::new(0.0);
        for _ in 0..200 {
            t = up.step(t, &[EvidenceKind::NormalRelaying]);
        }
        assert!((t.get() - TrustValue::DEFAULT.get()).abs() < 1e-6, "t = {t}");
        assert!((up.fixed_point(&[EvidenceKind::NormalRelaying]).get() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn lying_decreases_monotonically() {
        // Figure 1: "the (monotonous) descending rate of the trust assigned
        // to [misbehaving] nodes".
        let up = TrustUpdate::default();
        let mut t = TrustValue::new(0.8);
        let mut prev = t;
        for _ in 0..50 {
            t = up.step(t, &[EvidenceKind::FalseTestimony, EvidenceKind::NormalRelaying]);
            assert!(t <= prev, "not monotone: {t} > {prev}");
            prev = t;
        }
        assert!(t.get() < 0.0, "a persistent liar must end distrusted, got {t}");
    }

    #[test]
    fn forged_routing_outweighs_everything() {
        // Property 3: intrusion evidence collapses trust fast.
        let up = TrustUpdate::default();
        let after = up.step(TrustValue::new(0.9), &[EvidenceKind::ForgedRouting]);
        assert!(after.get() < 0.4, "0.9·0.9 - 0.5 = 0.31");
    }

    #[test]
    fn no_evidence_is_pure_decay() {
        let up = TrustUpdate::default();
        let t = up.step(TrustValue::new(0.5), &[]);
        assert!((t.get() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn clamping_applies() {
        let up = TrustUpdate::default();
        let t =
            up.step(TrustValue::MIN, &[EvidenceKind::ForgedRouting, EvidenceKind::FalseTestimony]);
        assert_eq!(t, TrustValue::MIN);
        let t = up.step(TrustValue::MAX, &[EvidenceKind::TruthfulTestimony; 20]);
        assert_eq!(t, TrustValue::MAX);
    }

    #[test]
    fn beta_zero_forgets_everything() {
        let up = TrustUpdate::new(0.0);
        let t = up.step(TrustValue::new(0.9), &[EvidenceKind::TruthfulTestimony]);
        // Only the fresh evidence remains.
        assert!((t.get() - 0.08).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "forgetting factor")]
    fn beta_one_rejected() {
        let _ = TrustUpdate::new(1.0);
    }

    #[test]
    #[should_panic(expected = "forgetting factor")]
    fn negative_beta_rejected() {
        let _ = TrustUpdate::new(-0.1);
    }

    #[test]
    fn recovery_from_negative_is_slow() {
        // The "defensive nature" of §V: a former liar at -1 takes many
        // benign rounds to climb back to the default 0.4.
        let up = TrustUpdate::default();
        let mut t = TrustValue::MIN;
        let mut rounds_to_default = None;
        for round in 1..=200 {
            t = up.step(t, &[EvidenceKind::NormalRelaying]);
            if rounds_to_default.is_none() && t.get() >= 0.35 {
                rounds_to_default = Some(round);
            }
        }
        let r = rounds_to_default.expect("never recovered");
        assert!(r > 25, "recovery should outlast the 25-round horizon, took {r}");

        // ... while decay from above reaches the default quickly.
        let mut t = TrustValue::new(0.9);
        let mut rounds_down = 0;
        while t.get() > 0.45 {
            t = up.step(t, &[EvidenceKind::NormalRelaying]);
            rounds_down += 1;
        }
        assert!(rounds_down < 25, "decay took {rounds_down} rounds");
    }
}
