//! The abstract *investigation round* engine — the paper's §V evaluation
//! protocol, reproduced exactly.
//!
//! §V: "We consider 16 nodes including 1 attacker which performs a link
//! spoofing attack and 4 colluding misbehaving nodes (liars) … Initially,
//! we randomly set the trust that is assigned to each node." Each round,
//! the attacked node interrogates the witnesses about the spoofed link;
//! honest nodes deny it, liars confirm it, some answers go missing; the
//! trust-weighted `Detect` value (formula 8) is computed and every
//! participant's trust is updated (formula 5).
//!
//! The investigation is *cumulative*: every answer ever collected stays in
//! the evidence set, and each round formula (8) re-aggregates the whole set
//! under the witnesses' **current** trust. As liars lose trust their past
//! confirmations lose weight retroactively, the detection value settles
//! near −(answer rate) ≈ −0.8, and the formula (9) sample grows round by
//! round so the confidence interval narrows until rule (10) can convict —
//! exactly the convergence the paper's Figure 3 shows.
//!
//! This module runs that loop without the packet simulator, which is what
//! Figures 1–3 plot; the packet-level path (see [`crate::scenario`])
//! validates that the same dynamics emerge end-to-end.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use trustlink_trust::aggregate::{detection_value, evidence_samples, Answer, Evidence};
use trustlink_trust::confidence::{margin_of_error, CONFIDENCE_LEVEL};
use trustlink_trust::decision::{DecisionRule, Verdict};
use trustlink_trust::store::TrustStore;
use trustlink_trust::update::TrustUpdate;
use trustlink_trust::value::{EvidenceKind, GravityCatalogue, TrustValue};

/// How witnesses' initial trust is seeded.
#[derive(Debug, Clone, PartialEq)]
pub enum InitialTrust {
    /// Uniformly random in `[lo, hi]` (the paper's "randomly set").
    Random {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// The same fixed value for everyone.
    Fixed(f64),
    /// Explicit per-witness values (cycled if shorter than the roster).
    PerNode(Vec<f64>),
}

impl Default for InitialTrust {
    fn default() -> Self {
        InitialTrust::Random { lo: 0.1, hi: 0.9 }
    }
}

/// Configuration of a round-based experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundConfig {
    /// Total nodes including the investigator and the attacker (paper: 16).
    pub n_nodes: usize,
    /// Number of colluding liars among the witnesses (paper: 4).
    pub n_liars: usize,
    /// RNG seed.
    pub seed: u64,
    /// Initial witness trust.
    pub initial_trust: InitialTrust,
    /// Forgetting factor β.
    pub beta: f64,
    /// Gravity catalogue.
    pub gravity: GravityCatalogue,
    /// Probability an honest witness's answer arrives (the unreliable
    /// environment; liars are assumed reliable — they want to be heard).
    pub answer_probability: f64,
    /// Rounds during which the attack is active (liars cover, honest deny).
    /// Outside this range all nodes simply behave well.
    pub attack_rounds: std::ops::Range<u32>,
    /// Ablation: `false` disables trust weighting in formula (8).
    pub trust_weighting: bool,
}

impl Default for RoundConfig {
    /// The paper's headline setting: 16 nodes, 1 attacker, 4 liars,
    /// random initial trust, mildly unreliable answers.
    fn default() -> Self {
        RoundConfig {
            n_nodes: 16,
            n_liars: 4,
            seed: 42,
            initial_trust: InitialTrust::default(),
            beta: 0.9,
            gravity: GravityCatalogue::default(),
            answer_probability: 0.85,
            attack_rounds: 0..u32::MAX,
            trust_weighting: true,
        }
    }
}

/// The role a witness plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoleKind {
    /// Answers truthfully.
    Honest,
    /// Colludes with the attacker: answers falsely while the attack runs.
    Liar,
}

/// One witness's full trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct WitnessTrace {
    /// Index within the witness roster.
    pub index: usize,
    /// Role.
    pub role: RoleKind,
    /// Trust seeded at round 0.
    pub initial_trust: f64,
    /// Trust after each round (`trust[r]` = after round `r`).
    pub trust: Vec<f64>,
}

/// The result of a round-based experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTrace {
    /// Per-witness trust trajectories.
    pub witnesses: Vec<WitnessTrace>,
    /// The `Detect(A, I)` value of each round (0.0 when no investigation
    /// ran because the attack was inactive).
    pub detect: Vec<f64>,
    /// The rule (10) verdict of each round.
    pub verdicts: Vec<Verdict>,
    /// The margin of error of each round.
    pub margins: Vec<f64>,
}

impl RoundTrace {
    /// The first round (0-based) whose verdict condemned the attacker.
    pub fn first_conviction(&self) -> Option<usize> {
        self.verdicts.iter().position(|v| *v == Verdict::Intruder)
    }

    /// Trust trajectory of the witness at `index`.
    pub fn trust_of(&self, index: usize) -> &[f64] {
        &self.witnesses[index].trust
    }

    /// Indices of liars.
    pub fn liars(&self) -> Vec<usize> {
        self.witnesses.iter().filter(|w| w.role == RoleKind::Liar).map(|w| w.index).collect()
    }

    /// Indices of honest witnesses.
    pub fn honest(&self) -> Vec<usize> {
        self.witnesses.iter().filter(|w| w.role == RoleKind::Honest).map(|w| w.index).collect()
    }
}

/// The round engine: the attacked node `A`, the suspect `I` and the
/// witness roster (everyone else).
#[derive(Debug)]
pub struct RoundEngine {
    cfg: RoundConfig,
    rng: StdRng,
    trust: TrustStore<usize>,
    roles: Vec<RoleKind>,
    round: u32,
    /// Every `(witness, answer)` collected since the investigation opened;
    /// cleared when the attack window closes (the investigation ends).
    history: Vec<(usize, Answer)>,
}

impl RoundEngine {
    /// Builds the engine: `n_nodes - 2` witnesses (investigator and
    /// attacker excluded), the first `n_liars` of which are liars.
    ///
    /// # Panics
    ///
    /// Panics unless `n_nodes ≥ 3` and `n_liars ≤ n_nodes - 2`.
    pub fn new(cfg: RoundConfig) -> Self {
        assert!(cfg.n_nodes >= 3, "need at least investigator, attacker and one witness");
        let n_witnesses = cfg.n_nodes - 2;
        assert!(cfg.n_liars <= n_witnesses, "more liars than witnesses");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let update = TrustUpdate::with_catalogue(cfg.beta, cfg.gravity.clone());
        let mut trust = TrustStore::with_update(TrustValue::DEFAULT, update);
        let mut roles = Vec::with_capacity(n_witnesses);
        for i in 0..n_witnesses {
            let value = match &cfg.initial_trust {
                InitialTrust::Random { lo, hi } => rng.random_range(*lo..=*hi),
                InitialTrust::Fixed(v) => *v,
                InitialTrust::PerNode(values) => values[i % values.len()],
            };
            trust.set_trust(i, TrustValue::new(value));
            roles.push(if i < cfg.n_liars { RoleKind::Liar } else { RoleKind::Honest });
        }
        RoundEngine { cfg, rng, trust, roles, round: 0, history: Vec::new() }
    }

    /// Number of witnesses.
    pub fn witness_count(&self) -> usize {
        self.roles.len()
    }

    /// Current trust of witness `i`.
    pub fn trust_of(&self, i: usize) -> f64 {
        self.trust.trust_of(&i).get()
    }

    /// Runs one investigation round; returns `(detect, margin, verdict)`.
    ///
    /// While the attack is active: the contested link is spoofed, so the
    /// truthful answer is *deny*; honest witnesses deny (when their answer
    /// arrives), liars confirm. Outside the attack window no investigation
    /// happens and every witness merely behaves well.
    pub fn step(&mut self) -> (f64, f64, Verdict) {
        let active = self.cfg.attack_rounds.contains(&self.round);
        self.round += 1;
        if !active {
            // Peace: background good behaviour only (Figure 2's regime).
            // Any open investigation is over; its evidence set is dropped.
            self.history.clear();
            for i in 0..self.roles.len() {
                self.trust.record(i, EvidenceKind::NormalRelaying);
            }
            self.trust.end_slot();
            return (0.0, f64::INFINITY, Verdict::Unrecognized);
        }

        // Collect answers.
        let mut pairs: Vec<(usize, Answer)> = Vec::with_capacity(self.roles.len());
        for (i, role) in self.roles.iter().enumerate() {
            let answer = match role {
                RoleKind::Liar => Answer::Confirm, // cover the attacker
                RoleKind::Honest => {
                    if self.rng.random_bool(self.cfg.answer_probability) {
                        Answer::Deny
                    } else {
                        Answer::NoAnswer
                    }
                }
            };
            pairs.push((i, answer));
        }

        // Formula (8) (or the unweighted ablation) over the whole
        // investigation so far, re-weighted by the witnesses' current trust:
        // once a liar is distrusted, its earlier confirmations stop counting.
        self.history.extend(pairs.iter().copied());
        let pool: Vec<Evidence> = self
            .history
            .iter()
            .map(|&(i, answer)| Evidence {
                weight: if self.cfg.trust_weighting {
                    self.trust.trust_of(&i).weight()
                } else {
                    1.0
                },
                stability: 1.0,
                answer,
            })
            .collect();
        let detect = detection_value(&pool);
        let margin = margin_of_error(&evidence_samples(&pool), CONFIDENCE_LEVEL);
        let verdict = DecisionRule::default().decide(detect, margin);

        // Formula (5) evidence assignment. The investigator is the attacked
        // node and the contested link is its own, so it knows the ground
        // truth: denying the spoofed link is truthful, confirming it covers
        // the attacker. (Keying this to the aggregate's sign instead is
        // unstable: with ~43% well-trusted liars a slightly positive first
        // round rewards the liars, and the feedback loop convicts the honest
        // majority — the opposite of the paper's Figure 3. The packet-level
        // detector deliberately keeps threshold-gated sign keying: it
        // investigates *third-party* links, where no local ground truth
        // exists.)
        for (i, a) in &pairs {
            let kind = match a {
                Answer::NoAnswer => EvidenceKind::Unresponsive,
                Answer::Deny => EvidenceKind::TruthfulTestimony,
                Answer::Confirm => EvidenceKind::FalseTestimony,
            };
            self.trust.record(*i, kind);
            self.trust.record(*i, EvidenceKind::NormalRelaying);
        }
        self.trust.end_slot();
        (detect, margin, verdict)
    }

    /// Runs `rounds` rounds and returns the full trace.
    pub fn run(mut self, rounds: u32) -> RoundTrace {
        let initial: Vec<f64> = (0..self.roles.len()).map(|i| self.trust_of(i)).collect();
        let mut witnesses: Vec<WitnessTrace> = self
            .roles
            .iter()
            .enumerate()
            .map(|(i, role)| WitnessTrace {
                index: i,
                role: *role,
                initial_trust: initial[i],
                trust: Vec::with_capacity(rounds as usize),
            })
            .collect();
        let mut detect = Vec::with_capacity(rounds as usize);
        let mut verdicts = Vec::with_capacity(rounds as usize);
        let mut margins = Vec::with_capacity(rounds as usize);
        for _ in 0..rounds {
            let (d, m, v) = self.step();
            detect.push(d);
            margins.push(m);
            verdicts.push(v);
            for w in witnesses.iter_mut() {
                let t = self.trust_of(w.index);
                w.trust.push(t);
            }
        }
        RoundTrace { witnesses, detect, verdicts, margins }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg: RoundConfig, rounds: u32) -> RoundTrace {
        RoundEngine::new(cfg).run(rounds)
    }

    #[test]
    fn liars_trust_descends_honest_ascends() {
        // The core of Figure 1.
        let trace = quick(RoundConfig::default(), 25);
        for w in &trace.witnesses {
            let last = *w.trust.last().unwrap();
            match w.role {
                RoleKind::Liar => assert!(
                    last < w.initial_trust && last < 0.0,
                    "liar {} ended at {last} from {}",
                    w.index,
                    w.initial_trust
                ),
                RoleKind::Honest => assert!(
                    last >= w.initial_trust - 1e-9,
                    "honest {} fell from {} to {last}",
                    w.index,
                    w.initial_trust
                ),
            }
        }
    }

    #[test]
    fn liar_descent_is_monotone() {
        let trace = quick(RoundConfig::default(), 25);
        for idx in trace.liars() {
            let t = trace.trust_of(idx);
            for w in t.windows(2) {
                assert!(w[1] <= w[0] + 1e-12, "liar trust rose: {w:?}");
            }
        }
    }

    #[test]
    fn detect_converges_negative() {
        // Figure 3's end state: Detect ≈ -(answer rate) regardless of liars.
        let trace = quick(RoundConfig::default(), 25);
        let last = *trace.detect.last().unwrap();
        assert!(last < -0.7, "Detect did not converge: {last}");
    }

    #[test]
    fn more_liars_slow_the_descent() {
        // Figure 3's ordering.
        let mut few = RoundConfig { n_liars: 2, answer_probability: 1.0, ..RoundConfig::default() };
        few.initial_trust = InitialTrust::Fixed(0.5);
        let mut many = few.clone();
        many.n_liars = 6;
        let d_few = quick(few, 10).detect;
        let d_many = quick(many, 10).detect;
        for r in 0..5 {
            assert!(
                d_few[r] <= d_many[r] + 1e-9,
                "round {r}: few-liars {} vs many-liars {}",
                d_few[r],
                d_many[r]
            );
        }
    }

    #[test]
    fn attacker_eventually_convicted() {
        let trace = quick(RoundConfig::default(), 25);
        let conviction = trace.first_conviction().expect("never convicted");
        assert!(conviction < 25);
        // After conviction the verdict stays intruder (trust only falls).
        for v in &trace.verdicts[conviction..] {
            assert_eq!(*v, Verdict::Intruder);
        }
    }

    #[test]
    fn peace_regime_relaxes_toward_default() {
        // Figure 2: attack ceased from round 0; high initial trust decays
        // toward the default 0.4.
        let cfg = RoundConfig {
            attack_rounds: 0..0, // never active
            initial_trust: InitialTrust::PerNode(vec![0.9, 0.6, 0.2, -0.5]),
            n_nodes: 6,
            n_liars: 0,
            ..RoundConfig::default()
        };
        let trace = quick(cfg, 60);
        for w in &trace.witnesses {
            let last = *w.trust.last().unwrap();
            assert!(
                (last - 0.4).abs() < 0.05,
                "witness {} ended at {last}, expected ≈0.4 (from {})",
                w.index,
                w.initial_trust
            );
        }
        // And the recovery from below is slower than the decay from above.
        let from_above = trace.trust_of(0); // 0.9
        let from_below = trace.trust_of(3); // -0.5
        let rounds_above = from_above.iter().position(|t| (t - 0.4).abs() < 0.05).unwrap();
        let rounds_below = from_below.iter().position(|t| (t - 0.4).abs() < 0.05).unwrap();
        assert!(
            rounds_below > rounds_above,
            "recovery ({rounds_below}) should be slower than decay ({rounds_above})"
        );
    }

    #[test]
    fn unweighted_ablation_stalls_with_many_liars() {
        // Without trust weighting, liars keep full influence forever.
        let cfg = RoundConfig {
            n_liars: 6,
            answer_probability: 1.0,
            trust_weighting: false,
            initial_trust: InitialTrust::Fixed(0.5),
            ..RoundConfig::default()
        };
        let ablated = quick(cfg.clone(), 25);
        let weighted = quick(RoundConfig { trust_weighting: true, ..cfg }, 25);
        let d_ablated = *ablated.detect.last().unwrap();
        let d_weighted = *weighted.detect.last().unwrap();
        // 6 liars vs 8 honest, unweighted: detect = (6-8)/14 ≈ -0.14 forever.
        assert!(d_ablated > -0.2, "ablated detect {d_ablated}");
        assert!(d_weighted < -0.9, "weighted detect {d_weighted}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = quick(RoundConfig::default(), 10);
        let b = quick(RoundConfig::default(), 10);
        assert_eq!(a, b);
        let c = quick(RoundConfig { seed: 43, ..RoundConfig::default() }, 10);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "witnesses")]
    fn too_many_liars_rejected() {
        let _ = RoundEngine::new(RoundConfig { n_nodes: 4, n_liars: 3, ..RoundConfig::default() });
    }

    #[test]
    fn roster_accessors() {
        let trace = quick(RoundConfig::default(), 5);
        assert_eq!(trace.witnesses.len(), 14);
        assert_eq!(trace.liars().len(), 4);
        assert_eq!(trace.honest().len(), 10);
        assert_eq!(trace.detect.len(), 5);
        assert_eq!(trace.margins.len(), 5);
    }
}
