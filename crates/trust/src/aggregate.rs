//! Formula (8): trust-weighted aggregation of investigation answers.
//!
//! During a cooperative investigation about a suspicious node `I`, each
//! interrogated neighbor `S_i` returns an answer about the contested link:
//! `+1` (the advertised link is correct), `-1` (the link is wrong — `I` is
//! spoofing) or `0` (no answer before the timeout). The investigator `A`
//! merges them:
//!
//! > `Detect(A,I) = Σ_i w_i · T(A,S_i) · e_i` with `w_i = 1 / Σ_j T(A,S_j)`
//!
//! so that an answer counts in proportion to the answerer's trust. A result
//! near `-1` means "the advertised link is almost certainly spoofed".
//!
//! Every variant in the workspace is this one formula over one pool of
//! [`Evidence`] rows. The packet-level detector weights each row by trust
//! and by link stability. The abstract round engine gives every row
//! stability `1.0`, and its unweighted ablation also gives every row
//! weight `1.0`. Both are exact in IEEE arithmetic (`1.0 · x == x`,
//! `Σ 1.0 == n`), so each variant computes bit for bit what a dedicated
//! formula would.

/// A witness's answer to "is the link advertised by the suspect real?".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Answer {
    /// `e = +1`: the advertised link is correct; no spoofing observed.
    Confirm,
    /// `e = -1`: the advertised link is wrong.
    Deny,
    /// `e = 0`: the witness did not answer before the timeout.
    NoAnswer,
}

impl Answer {
    /// The numeric evidence value `e_i` of the paper.
    pub fn as_f64(self) -> f64 {
        match self {
            Answer::Confirm => 1.0,
            Answer::Deny => -1.0,
            Answer::NoAnswer => 0.0,
        }
    }

    /// Builds an answer from a boolean verification result.
    pub fn from_verification(link_ok: bool) -> Self {
        if link_ok {
            Answer::Confirm
        } else {
            Answer::Deny
        }
    }
}

/// One witness's row in the evidence pool of formulas (8) and (9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evidence {
    /// The witness's non-negative weight: its trust floored at zero
    /// ([`TrustValue::weight`](crate::value::TrustValue::weight)), or
    /// `1.0` for every row when trust weighting is off.
    pub weight: f64,
    /// The stability `s_i ∈ [0, 1]` of the link the evidence was sourced
    /// over (see [`crate::stability`]), or `1.0` when stability is not
    /// weighed.
    pub stability: f64,
    /// The witness's answer `e_i`.
    pub answer: Answer,
}

impl Evidence {
    /// The row's stability-scaled weighted evidence `w_i · (s_i · e_i)`.
    fn weighted_answer(self) -> f64 {
        self.weight * (self.stability * self.answer.as_f64())
    }
}

/// Formula (8): merges an evidence pool into a detection value in
/// `[-1, 1]`.
///
/// Implementation notes:
///
/// * A distrusted witness carries weight **zero** (via
///   [`TrustValue::weight`](crate::value::TrustValue::weight)): it is
///   ignored rather than having its vote inverted.
/// * The normalizer sums the weight of *all* witnesses, including those
///   that did not answer (`e = 0`). Missing answers therefore dilute the
///   result toward zero — this is what makes the paper's Figure 3 converge
///   near `-0.8` rather than `-1` in an unreliable network.
/// * Stability scales the evidence but not the normalizer, so unstable
///   evidence behaves like a partial non-answer: it pulls `Detect` toward
///   zero instead of merely rebalancing the votes. Under heavy churn no
///   coalition of young-link witnesses can push `|Detect|` past the average
///   stability of their links, so rule (10) withholds judgement — churn
///   delays verdicts, it cannot manufacture them.
/// * If no witness carries positive weight the result is `0.0` (complete
///   uncertainty).
///
/// ```
/// use trustlink_trust::{detection_value, Answer, Evidence, TrustValue};
/// let row = |trust: f64, answer| Evidence {
///     weight: TrustValue::new(trust).weight(),
///     stability: 1.0,
///     answer,
/// };
/// let detect = detection_value(&[
///     row(0.8, Answer::Deny),
///     row(0.8, Answer::Deny),
///     row(0.1, Answer::Confirm), // a barely-trusted liar
/// ]);
/// assert!(detect < -0.8);
/// ```
pub fn detection_value(pool: &[Evidence]) -> f64 {
    let mut num = 0.0;
    let mut denom = 0.0;
    for row in pool {
        num += row.weighted_answer();
        denom += row.weight;
    }
    if denom <= 0.0 {
        0.0
    } else {
        num / denom
    }
}

/// The evidence *sample* used for the formula (9) confidence interval:
/// the weighted evidences `w_i · (s_i · e_i)` of the witnesses that
/// actually answered and carry positive weight.
///
/// §IV-C estimates the spread of "the partial set of evidences e_1..e_n
/// (namely the sample)"; witnesses that never answered contributed no
/// evidence, and distrusted witnesses contribute none to the aggregate, so
/// neither belongs in the sample. As liars lose trust their (weighted)
/// evidences vanish from the sample, the spread collapses, and the interval
/// narrows — which is how the paper's investigations become decisive "at
/// any round" once the trust system has done its work.
pub fn evidence_samples(pool: &[Evidence]) -> Vec<f64> {
    pool.iter()
        .filter(|row| row.answer != Answer::NoAnswer && row.weight > 0.0)
        .map(|row| row.weighted_answer())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::TrustValue;

    /// A stable row weighted by `trust`.
    fn trusted(trust: f64, answer: Answer) -> Evidence {
        Evidence { weight: TrustValue::new(trust).weight(), stability: 1.0, answer }
    }

    /// A row of the unweighted ablation.
    fn unit(answer: Answer) -> Evidence {
        Evidence { weight: 1.0, stability: 1.0, answer }
    }

    #[test]
    fn answer_values() {
        assert_eq!(Answer::Confirm.as_f64(), 1.0);
        assert_eq!(Answer::Deny.as_f64(), -1.0);
        assert_eq!(Answer::NoAnswer.as_f64(), 0.0);
        assert_eq!(Answer::from_verification(true), Answer::Confirm);
        assert_eq!(Answer::from_verification(false), Answer::Deny);
    }

    #[test]
    fn unanimous_denial_is_minus_one() {
        let d = detection_value(&[trusted(0.5, Answer::Deny), trusted(0.9, Answer::Deny)]);
        assert_eq!(d, -1.0);
    }

    #[test]
    fn unanimous_confirmation_is_plus_one() {
        let d = detection_value(&[trusted(0.5, Answer::Confirm), trusted(0.9, Answer::Confirm)]);
        assert_eq!(d, 1.0);
    }

    #[test]
    fn missing_answers_dilute() {
        // Two trusted deniers plus one trusted silent witness: |Detect| < 1.
        let d = detection_value(&[
            trusted(0.6, Answer::Deny),
            trusted(0.6, Answer::Deny),
            trusted(0.6, Answer::NoAnswer),
        ]);
        assert!((d - (-2.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn distrusted_witness_is_ignored() {
        let d = detection_value(&[
            trusted(0.8, Answer::Deny),
            trusted(-0.9, Answer::Confirm), // loud, but distrusted
        ]);
        assert_eq!(d, -1.0);
    }

    #[test]
    fn zero_total_trust_gives_zero() {
        let d = detection_value(&[trusted(-0.5, Answer::Deny), trusted(0.0, Answer::Confirm)]);
        assert_eq!(d, 0.0);
        assert_eq!(detection_value(&[]), 0.0);
    }

    #[test]
    fn trusted_liars_can_sway_early_rounds() {
        // The phenomenon behind Figure 3: while liars still hold trust,
        // they pull Detect toward zero.
        let honest = trusted(0.5, Answer::Deny);
        let liar = trusted(0.5, Answer::Confirm);
        let d_few_liars = detection_value(&[honest, honest, honest, liar]);
        let d_more_liars = detection_value(&[honest, honest, liar, liar]);
        assert!(d_few_liars < d_more_liars, "{d_few_liars} vs {d_more_liars}");
        assert_eq!(d_more_liars, 0.0);
    }

    #[test]
    fn result_always_within_bounds() {
        for i in 0..50 {
            let t = -1.0 + (i as f64) / 25.0;
            for a in [Answer::Confirm, Answer::Deny, Answer::NoAnswer] {
                let d = detection_value(&[trusted(t, a), trusted(0.3, Answer::Deny)]);
                assert!((-1.0..=1.0).contains(&d), "out of bounds: {d}");
            }
        }
    }

    #[test]
    fn unweighted_baseline_counts_everyone() {
        let d = detection_value(&[unit(Answer::Deny), unit(Answer::Deny), unit(Answer::Confirm)]);
        assert!((d - (-1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn weighted_samples_drop_silent_and_distrusted() {
        let samples = evidence_samples(&[
            trusted(0.8, Answer::Deny),     // in: -0.8
            trusted(0.5, Answer::NoAnswer), // out: silent
            trusted(-0.3, Answer::Confirm), // out: distrusted
            trusted(0.0, Answer::Confirm),  // out: zero weight
            trusted(0.2, Answer::Confirm),  // in: +0.2
        ]);
        assert_eq!(samples, vec![-0.8, 0.2]);
    }

    #[test]
    fn weighted_samples_collapse_when_liars_lose_trust() {
        // The interval-narrowing mechanism: identical trusted deniers give
        // zero spread.
        let samples = evidence_samples(&[
            trusted(0.9, Answer::Deny),
            trusted(0.9, Answer::Deny),
            trusted(-0.8, Answer::Confirm),
        ]);
        assert_eq!(samples, vec![-0.9, -0.9]);
        assert_eq!(crate::confidence::sample_std_dev(&samples), 0.0);
    }

    #[test]
    fn unit_row_samples_keep_raw_answers() {
        let samples = evidence_samples(&[
            unit(Answer::Deny),
            unit(Answer::NoAnswer),
            unit(Answer::Confirm),
            unit(Answer::Deny),
        ]);
        assert_eq!(samples, vec![-1.0, 1.0, -1.0]);
    }

    #[test]
    fn unstable_evidence_dilutes_toward_zero() {
        // Unanimous denial, but every link is half-stable: |Detect| is
        // capped by the average stability, not pushed back to -1.
        let half = |answer| Evidence { stability: 0.5, ..trusted(0.6, answer) };
        let d = detection_value(&[half(Answer::Deny), half(Answer::Deny)]);
        assert!((d - (-0.5)).abs() < 1e-12, "d={d}");
        // Mixed stability rebalances toward the stable witness.
        let d = detection_value(&[
            trusted(0.6, Answer::Deny),
            Evidence { stability: 0.0, ..trusted(0.6, Answer::Confirm) },
        ]);
        assert!((d - (-0.5)).abs() < 1e-12, "d={d}");
    }

    #[test]
    fn stability_dilution_cannot_flip_a_sign() {
        let stable = detection_value(&[
            trusted(0.5, Answer::Deny),
            Evidence { stability: 0.2, ..trusted(0.5, Answer::Deny) },
        ]);
        assert!(stable < 0.0);
        assert!(stable >= -1.0);
    }
}
