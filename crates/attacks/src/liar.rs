//! Investigation liars (§V): "colluding misbehaving nodes … that do not
//! perform link spoofing but that foil the detection by providing incorrect
//! answers".
//!
//! The liar policy is consulted by the detector agent (in `trustlink-core`)
//! whenever a node answers a link-verification request: a liar inverts the
//! truthful answer, either always, only for a set of accomplices, or with
//! some probability.

use rand::rngs::StdRng;
use rand::RngExt;
use trustlink_sim::NodeId;

/// How a node answers link-verification requests.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum LiarPolicy {
    /// Always answer truthfully (the default).
    #[default]
    Honest,
    /// Invert every answer.
    AlwaysLie,
    /// Lie only when the suspect is one of these accomplices (cover for
    /// them); otherwise answer truthfully. This is the paper's colluding
    /// liar.
    CoverFor {
        /// The accomplices to protect.
        accomplices: Vec<NodeId>,
    },
    /// Lie with the given probability, independently per answer.
    Probabilistic {
        /// Probability of lying in `[0, 1]`.
        probability: f64,
    },
}

impl LiarPolicy {
    /// Produces the answer actually sent, given the `truthful` one, the
    /// `suspect` under investigation and a deterministic RNG.
    ///
    /// # Panics
    ///
    /// Panics if a probabilistic policy carries a probability outside
    /// `[0, 1]`.
    pub fn answer(&self, truthful: bool, suspect: NodeId, rng: &mut StdRng) -> bool {
        match self {
            LiarPolicy::Honest => truthful,
            LiarPolicy::AlwaysLie => !truthful,
            LiarPolicy::CoverFor { accomplices } => {
                if accomplices.contains(&suspect) {
                    // Protect the accomplice: claim its links are fine.
                    true
                } else {
                    truthful
                }
            }
            LiarPolicy::Probabilistic { probability } => {
                assert!((0.0..=1.0).contains(probability), "lie probability must be in [0,1]");
                if rng.random_bool(*probability) {
                    !truthful
                } else {
                    truthful
                }
            }
        }
    }

    /// Three-valued variant for witnesses that may honestly *abstain*
    /// (`truthful = None` — no knowledge of the contested link). Honest
    /// nodes forward the abstention; liars convert it into whatever serves
    /// them: a cover-up answers `true`, an inverter asserts the opposite of
    /// the most likely truth (`false` knowledge ⇒ claim `true`).
    ///
    /// Only a probabilistic policy draws from `rng`; every other policy
    /// leaves it untouched.
    ///
    /// # Panics
    ///
    /// Panics if a probabilistic policy carries a probability outside
    /// `[0, 1]`.
    pub fn answer_opt(
        &self,
        truthful: Option<bool>,
        suspect: NodeId,
        rng: &mut StdRng,
    ) -> Option<bool> {
        match self {
            LiarPolicy::Honest => truthful,
            LiarPolicy::AlwaysLie => Some(!truthful.unwrap_or(false)),
            LiarPolicy::CoverFor { accomplices } => {
                if accomplices.contains(&suspect) {
                    Some(true)
                } else {
                    truthful
                }
            }
            LiarPolicy::Probabilistic { probability } => {
                assert!((0.0..=1.0).contains(probability), "lie probability must be in [0,1]");
                if rng.random_bool(*probability) {
                    Some(!truthful.unwrap_or(false))
                } else {
                    truthful
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    #[test]
    fn honest_tells_the_truth() {
        let mut r = rng();
        assert!(LiarPolicy::Honest.answer(true, NodeId(1), &mut r));
        assert!(!LiarPolicy::Honest.answer(false, NodeId(1), &mut r));
    }

    #[test]
    fn always_lie_inverts() {
        let mut r = rng();
        assert!(!LiarPolicy::AlwaysLie.answer(true, NodeId(1), &mut r));
        assert!(LiarPolicy::AlwaysLie.answer(false, NodeId(1), &mut r));
    }

    #[test]
    fn cover_for_protects_only_accomplices() {
        let policy = LiarPolicy::CoverFor { accomplices: vec![NodeId(7)] };
        let mut r = rng();
        // Covers the accomplice: false link reported as fine.
        assert!(policy.answer(false, NodeId(7), &mut r));
        // Honest about everyone else.
        assert!(!policy.answer(false, NodeId(8), &mut r));
        assert!(policy.answer(true, NodeId(8), &mut r));
    }

    #[test]
    fn probabilistic_lies_at_rate() {
        let policy = LiarPolicy::Probabilistic { probability: 0.25 };
        let mut r = rng();
        let lies = (0..10_000).filter(|_| !policy.answer(true, NodeId(1), &mut r)).count();
        assert!((2200..=2800).contains(&lies), "lies={lies}");
    }

    #[test]
    fn zero_probability_is_honest() {
        let policy = LiarPolicy::Probabilistic { probability: 0.0 };
        let mut r = rng();
        assert!(policy.answer(true, NodeId(1), &mut r));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bogus_probability_panics() {
        let mut r = rng();
        let _ = LiarPolicy::Probabilistic { probability: 2.0 }.answer(true, NodeId(1), &mut r);
    }

    #[test]
    fn answer_opt_honest_preserves_abstention() {
        let mut r = rng();
        assert_eq!(LiarPolicy::Honest.answer_opt(None, NodeId(1), &mut r), None);
        assert_eq!(LiarPolicy::Honest.answer_opt(Some(false), NodeId(1), &mut r), Some(false));
    }

    #[test]
    fn answer_opt_cover_overrides_abstention_for_accomplice() {
        let policy = LiarPolicy::CoverFor { accomplices: vec![NodeId(7)] };
        let mut r = rng();
        assert_eq!(policy.answer_opt(None, NodeId(7), &mut r), Some(true));
        assert_eq!(policy.answer_opt(Some(false), NodeId(7), &mut r), Some(true));
        // Still honest about strangers, including their abstentions.
        assert_eq!(policy.answer_opt(None, NodeId(8), &mut r), None);
    }

    #[test]
    fn answer_opt_always_lie_asserts() {
        let mut r = rng();
        assert_eq!(LiarPolicy::AlwaysLie.answer_opt(None, NodeId(1), &mut r), Some(true));
        assert_eq!(LiarPolicy::AlwaysLie.answer_opt(Some(true), NodeId(1), &mut r), Some(false));
    }

    #[test]
    fn answer_opt_draws_only_for_probabilistic_policies() {
        let silent = [
            LiarPolicy::Honest,
            LiarPolicy::AlwaysLie,
            LiarPolicy::CoverFor { accomplices: vec![NodeId(7)] },
        ];
        for policy in &silent {
            let mut r = rng();
            for truthful in [None, Some(false), Some(true)] {
                for suspect in [NodeId(7), NodeId(8)] {
                    let _ = policy.answer_opt(truthful, suspect, &mut r);
                }
            }
            assert_eq!(r, rng(), "{policy:?} drew from the stream");
        }
        let mut r = rng();
        let _ = LiarPolicy::Probabilistic { probability: 0.5 }.answer_opt(None, NodeId(1), &mut r);
        assert_ne!(r, rng(), "a probabilistic liar must draw");
    }
}
