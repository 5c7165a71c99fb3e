//! One dispute about one advertised link: formulas (8)–(10) and the
//! formula (5) testimony they produce.
//!
//! A [`Dispute`] holds the interrogated witnesses in roster order, one row
//! each: `(witness, answer, stability)`. A row whose answer has not
//! arrived holds [`Answer::NoAnswer`]. Rows are added one round at a time;
//! [`Dispute::judge`] reads every row of every round, while
//! [`Dispute::testimony`] scores the current round only.
//!
//! Both investigation engines judge through this type: the §V round model
//! behind Figures 1–3 keeps one dispute across rounds, and the packet
//! detector opens a fresh one per case. The figures therefore exercise
//! the code that convicts.

use crate::aggregate::{detection_value, evidence_samples, Answer, Evidence};
use crate::confidence::{margin_of_error, CONFIDENCE_LEVEL};
use crate::decision::{DecisionRule, Verdict};
use crate::value::EvidenceKind;

/// The outcome of [`Dispute::judge`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    /// The formula (8) detection value.
    pub detect: f64,
    /// The formula (9) margin of error.
    pub margin: f64,
    /// The rule (10) verdict.
    pub verdict: Verdict,
    /// Witness rows that hold an answer (the extra row not counted).
    pub answered: usize,
}

/// The witnesses interrogated about one advertised link, round by round.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dispute<W> {
    /// `(witness, answer, stability)` rows in roster order, round after
    /// round.
    rows: Vec<(W, Answer, f64)>,
    /// Index of the first row of the current round.
    round_start: usize,
}

impl<W: Copy + PartialEq> Dispute<W> {
    /// Starts a new round interrogating `witnesses`, each with the
    /// stability weight of the link its answer travels over. Every new row
    /// is pending until [`record_answer`](Self::record_answer) fills it.
    pub fn open_round(&mut self, witnesses: impl IntoIterator<Item = (W, f64)>) {
        self.round_start = self.rows.len();
        self.rows.extend(witnesses.into_iter().map(|(w, s)| (w, Answer::NoAnswer, s)));
    }

    /// Records `witness`'s answer in the current round. Returns `false`
    /// for witnesses not interrogated this round and for duplicate answers
    /// (first answer wins — later ones may be forged).
    pub fn record_answer(&mut self, witness: W, link_exists: bool) -> bool {
        self.rows[self.round_start..]
            .iter_mut()
            .find(|(w, a, _)| *w == witness && *a == Answer::NoAnswer)
            .map(|row| row.1 = Answer::from_verification(link_exists))
            .is_some()
    }

    /// The current round's `(witness, answer)` pairs in roster order.
    pub fn answers(&self) -> impl ExactSizeIterator<Item = (W, Answer)> + '_ {
        self.rows[self.round_start..].iter().map(|&(w, a, _)| (w, a))
    }

    /// Lowers every row's stability to `current(witness)` where that is
    /// smaller: a link that dissolved while the case ran counts for less.
    pub fn cap_stability(&mut self, mut current: impl FnMut(W) -> f64) {
        for (w, _, s) in &mut self.rows {
            *s = s.min(current(*w));
        }
    }

    /// Formulas (8)–(10) over every row, each weighted by `weight(witness)`
    /// and scaled by its stability, followed by `extra` when given (the
    /// detector's own first-hand observation).
    pub fn judge(&self, mut weight: impl FnMut(W) -> f64, extra: Option<Evidence>) -> Judgement {
        let pool: Vec<Evidence> = self
            .rows
            .iter()
            .map(|&(w, answer, stability)| Evidence { weight: weight(w), stability, answer })
            .chain(extra)
            .collect();
        let detect = detection_value(&pool);
        let margin = margin_of_error(&evidence_samples(&pool), CONFIDENCE_LEVEL);
        Judgement {
            detect,
            margin,
            verdict: DecisionRule::default().decide(detect, margin),
            answered: self.rows.iter().filter(|(_, a, _)| *a != Answer::NoAnswer).count(),
        }
    }

    /// The formula (5) testimony evidence of the current round, given the
    /// answer the caller holds to be `truthful`: silence is
    /// [`Unresponsive`](EvidenceKind::Unresponsive), a match is
    /// [`TruthfulTestimony`](EvidenceKind::TruthfulTestimony), anything
    /// else [`FalseTestimony`](EvidenceKind::FalseTestimony).
    ///
    /// Which answer is truthful is the caller's policy. In the round
    /// model the investigator is the attacked node and the contested link
    /// is its own, so it knows the ground truth: denying the spoofed link
    /// is truthful. Keying it to the aggregate's sign there is unstable:
    /// with ~43 % well-trusted liars a slightly positive first round
    /// rewards the liars, and the feedback loop convicts the honest
    /// majority — the opposite of the paper's Figure 3. The packet
    /// detector investigates *third-party* links, where no local ground
    /// truth exists, so it keys testimony to the sign of `Detect` once it
    /// clears a small threshold.
    pub fn testimony(&self, truthful: Answer) -> impl Iterator<Item = (W, EvidenceKind)> + '_ {
        self.answers().map(move |(w, a)| {
            let kind = if a == Answer::NoAnswer {
                EvidenceKind::Unresponsive
            } else if a == truthful {
                EvidenceKind::TruthfulTestimony
            } else {
                EvidenceKind::FalseTestimony
            };
            (w, kind)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(witnesses: &[(u32, f64)]) -> Dispute<u32> {
        let mut d = Dispute::default();
        d.open_round(witnesses.iter().copied());
        d
    }

    #[test]
    fn first_answer_wins_and_unknown_witnesses_are_refused() {
        let mut d = open(&[(5, 1.0), (6, 0.5), (7, 0.0)]);
        assert!(d.record_answer(5, false));
        assert!(d.record_answer(6, true));
        assert!(!d.record_answer(99, true), "unknown witness");
        assert!(!d.record_answer(5, true), "duplicate answer");
        assert_eq!(
            d.answers().collect::<Vec<_>>(),
            [(5, Answer::Deny), (6, Answer::Confirm), (7, Answer::NoAnswer)]
        );
    }

    #[test]
    fn answers_land_in_the_current_round_only() {
        let mut d = open(&[(1, 1.0), (2, 1.0)]);
        assert!(d.record_answer(1, false));
        d.open_round([(2, 1.0)]);
        assert!(!d.record_answer(1, false), "witness 1 was not asked this round");
        assert!(d.record_answer(2, true));
        assert_eq!(d.answers().collect::<Vec<_>>(), [(2, Answer::Confirm)]);
        // The judgement still reads both rounds.
        assert_eq!(d.judge(|_| 1.0, None).answered, 2);
    }

    #[test]
    fn testimony_scores_the_current_round_against_the_truth() {
        let mut d = open(&[(1, 1.0)]);
        d.record_answer(1, true);
        d.open_round([(1, 1.0), (2, 1.0), (3, 1.0)]);
        d.record_answer(1, false);
        d.record_answer(2, true);
        let kinds: Vec<_> = d.testimony(Answer::Deny).collect();
        assert_eq!(
            kinds,
            [
                (1, EvidenceKind::TruthfulTestimony),
                (2, EvidenceKind::FalseTestimony),
                (3, EvidenceKind::Unresponsive),
            ]
        );
    }

    #[test]
    fn judge_appends_the_extra_row_last_and_skips_it_in_answered() {
        let mut d = open(&[(1, 1.0), (2, 1.0)]);
        d.record_answer(1, false);
        d.record_answer(2, false);
        let alone = d.judge(|_| 0.5, None);
        assert_eq!((alone.detect, alone.margin, alone.verdict), (-1.0, 0.0, Verdict::Intruder));
        let own = Evidence { weight: 0.5, stability: 1.0, answer: Answer::Confirm };
        let with_own = d.judge(|_| 0.5, Some(own));
        assert!((with_own.detect - (-1.0 / 3.0)).abs() < 1e-12);
        assert_eq!(with_own.answered, 2);
    }

    #[test]
    fn cap_stability_only_lowers() {
        let mut d = open(&[(1, 0.8), (2, 0.2)]);
        d.record_answer(1, false);
        d.record_answer(2, false);
        d.cap_stability(|_| 0.5);
        // Rows at 0.5 and 0.2, both denying at weight 1: (-0.5 - 0.2) / 2.
        assert!((d.judge(|_| 1.0, None).detect - (-0.35)).abs() < 1e-12);
    }

    #[test]
    fn an_empty_dispute_is_unrecognized() {
        let empty = Dispute::<u32>::default().judge(|_| 1.0, None);
        assert_eq!((empty.detect, empty.answered), (0.0, 0));
        assert_eq!(empty.verdict, Verdict::Unrecognized);
    }
}
