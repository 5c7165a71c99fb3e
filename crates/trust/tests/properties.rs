//! Property-based tests for the trust mathematics.
//!
//! These pin down the invariants the paper's formulas must satisfy for the
//! detection system to be sound, independent of any particular scenario.

use proptest::prelude::*;

use trustlink_trust::confidence::{sample_std_dev, z_for_confidence_level, CONFIDENCE_LEVEL};
use trustlink_trust::entropy::{binary_entropy, probability_from_trust, trust_from_probability};
use trustlink_trust::prelude::*;

fn trust_value() -> impl Strategy<Value = TrustValue> {
    (-1.0f64..=1.0).prop_map(TrustValue::new)
}

fn answer() -> impl Strategy<Value = Answer> {
    prop_oneof![Just(Answer::Confirm), Just(Answer::Deny), Just(Answer::NoAnswer)]
}

/// A stable evidence row weighted by raw trust `t`.
fn trusted(t: f64, answer: Answer) -> Evidence {
    Evidence { weight: TrustValue::new(t).weight(), stability: 1.0, answer }
}

/// A row of the unweighted ablation.
fn unit(answer: Answer) -> Evidence {
    Evidence { weight: 1.0, stability: 1.0, answer }
}

/// Dispute rounds: per round, each witness's `(answer, stability)`. The
/// witness id is its index in the round, so ids recur across rounds as in
/// the round model.
fn dispute_rounds() -> impl Strategy<Value = Vec<Vec<(Answer, f64)>>> {
    proptest::collection::vec(proptest::collection::vec((answer(), 0.0f64..=1.0), 0..8), 1..4)
}

/// The dispute holding `rounds`, answered through `record_answer`.
fn dispute_of(rounds: &[Vec<(Answer, f64)>]) -> Dispute<usize> {
    let mut dispute = Dispute::default();
    for round in rounds {
        dispute.open_round(round.iter().enumerate().map(|(w, &(_, s))| (w, s)));
        for (w, &(a, _)) in round.iter().enumerate() {
            if a != Answer::NoAnswer {
                assert!(dispute.record_answer(w, a == Answer::Confirm));
            }
        }
    }
    dispute
}

fn evidence_kind() -> impl Strategy<Value = EvidenceKind> {
    prop_oneof![
        Just(EvidenceKind::NormalRelaying),
        Just(EvidenceKind::TruthfulTestimony),
        Just(EvidenceKind::FalseTestimony),
        Just(EvidenceKind::DroppedTraffic),
        Just(EvidenceKind::ForgedRouting),
        Just(EvidenceKind::MisrelayedRouting),
        Just(EvidenceKind::Unresponsive),
    ]
}

proptest! {
    // ---- trust domain -------------------------------------------------

    #[test]
    fn trust_new_always_in_domain(v in -1e6f64..1e6) {
        let t = TrustValue::new(v);
        prop_assert!((-1.0..=1.0).contains(&t.get()));
    }

    #[test]
    fn trust_weight_nonnegative(t in trust_value()) {
        prop_assert!(t.weight() >= 0.0);
        prop_assert!(t.weight() <= 1.0);
    }

    // ---- formula (5) ---------------------------------------------------

    #[test]
    fn update_stays_in_domain(
        beta in 0.0f64..0.999,
        start in trust_value(),
        evidences in proptest::collection::vec(evidence_kind(), 0..20),
    ) {
        let up = TrustUpdate::new(beta);
        let t = up.step(start, &evidences);
        prop_assert!((-1.0..=1.0).contains(&t.get()));
    }

    #[test]
    fn harmful_evidence_never_raises_trust(
        start in trust_value(),
        n in 1usize..10,
    ) {
        let up = TrustUpdate::default();
        let evidences = vec![EvidenceKind::FalseTestimony; n];
        let t = up.step(start, &evidences);
        // β < 1 shrinks positive trust; harmful evidence subtracts more.
        prop_assert!(t.get() <= start.get().max(0.0));
    }

    #[test]
    fn beneficial_evidence_never_lowers_trust_below_decay(
        start in trust_value(),
        n in 1usize..10,
    ) {
        let up = TrustUpdate::default();
        let evidences = vec![EvidenceKind::TruthfulTestimony; n];
        let with = up.step(start, &evidences).get();
        let without = up.step(start, &[]).get();
        prop_assert!(with >= without);
    }

    #[test]
    fn more_lies_hurt_more(start in trust_value(), n in 1usize..8) {
        let up = TrustUpdate::default();
        let few = up.step(start, &vec![EvidenceKind::FalseTestimony; n]);
        let more = up.step(start, &vec![EvidenceKind::FalseTestimony; n + 1]);
        prop_assert!(more <= few);
    }

    // ---- entropy mapping ----------------------------------------------

    #[test]
    fn entropy_bounded(p in 0.0f64..=1.0) {
        let h = binary_entropy(p);
        prop_assert!((0.0..=1.0).contains(&h));
    }

    #[test]
    fn entropy_trust_roundtrip(p in 0.0f64..=1.0) {
        let t = trust_from_probability(p);
        prop_assert!((-1.0..=1.0).contains(&t.get()));
        let q = probability_from_trust(t);
        prop_assert!((p - q).abs() < 1e-8, "p={} roundtripped to {}", p, q);
    }

    #[test]
    fn entropy_trust_monotone(p1 in 0.0f64..=1.0, p2 in 0.0f64..=1.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(trust_from_probability(lo) <= trust_from_probability(hi));
    }

    // ---- aggregation (8) ------------------------------------------------

    #[test]
    fn detection_value_bounded(
        rows in proptest::collection::vec((-1.0f64..=1.0, 0.0f64..=1.0, answer()), 0..16),
    ) {
        let pool: Vec<Evidence> = rows
            .iter()
            .map(|&(t, stability, a)| Evidence { stability, ..trusted(t, a) })
            .collect();
        let d = detection_value(&pool);
        prop_assert!((-1.0..=1.0).contains(&d));
    }

    #[test]
    fn detection_ignores_distrusted(
        base in proptest::collection::vec((0.1f64..=1.0, answer()), 1..8),
        noise in proptest::collection::vec((-1.0f64..=-0.01, answer()), 0..8),
    ) {
        let without: Vec<Evidence> = base.iter().map(|&(t, a)| trusted(t, a)).collect();
        let with_noise: Vec<Evidence> = without
            .iter()
            .copied()
            .chain(noise.iter().map(|&(t, a)| trusted(t, a)))
            .collect();
        let d1 = detection_value(&with_noise);
        let d2 = detection_value(&without);
        prop_assert!((d1 - d2).abs() < 1e-12);
        prop_assert_eq!(evidence_samples(&with_noise), evidence_samples(&without));
    }

    #[test]
    fn unweighted_matches_weighted_at_equal_trust(
        answers in proptest::collection::vec(answer(), 1..16),
        t in 0.1f64..=1.0,
    ) {
        let weighted: Vec<Evidence> = answers.iter().map(|&a| trusted(t, a)).collect();
        let unweighted: Vec<Evidence> = answers.iter().copied().map(unit).collect();
        prop_assert!((detection_value(&weighted) - detection_value(&unweighted)).abs() < 1e-9);
    }

    /// Rows of weight and stability `1.0` are the unweighted ablation:
    /// the plain mean `Σe/n` of every answer, and the raw answers of the
    /// witnesses that replied as the sample.
    #[test]
    fn unit_rows_are_the_plain_mean(answers in proptest::collection::vec(answer(), 0..16)) {
        let pool: Vec<Evidence> = answers.iter().copied().map(unit).collect();
        let sum = answers.iter().fold(0.0, |acc, a| acc + a.as_f64());
        let mean = if answers.is_empty() { 0.0 } else { sum / answers.len() as f64 };
        prop_assert_eq!(detection_value(&pool).to_bits(), mean.to_bits());
        let raw: Vec<f64> =
            answers.iter().filter(|&&a| a != Answer::NoAnswer).map(|a| a.as_f64()).collect();
        prop_assert_eq!(evidence_samples(&pool), raw);
    }

    /// Rows of stability `1.0` are formula (8) itself: `Σ w⁺e / Σ w⁺`
    /// over every witness, and `w⁺e` of each answering, positively
    /// weighted witness as the sample.
    #[test]
    fn full_stability_rows_are_the_trust_weighted_mean(
        rows in proptest::collection::vec((-1.0f64..=1.0, answer()), 0..16),
    ) {
        let pool: Vec<Evidence> = rows.iter().map(|&(t, a)| trusted(t, a)).collect();
        let (num, denom) = rows.iter().fold((0.0, 0.0), |(num, denom), &(t, a)| {
            let w = TrustValue::new(t).weight();
            (num + w * a.as_f64(), denom + w)
        });
        let mean = if denom <= 0.0 { 0.0 } else { num / denom };
        prop_assert_eq!(detection_value(&pool).to_bits(), mean.to_bits());
        let weighted: Vec<f64> = rows
            .iter()
            .map(|&(t, a)| (TrustValue::new(t).weight(), a))
            .filter(|&(w, a)| a != Answer::NoAnswer && w > 0.0)
            .map(|(w, a)| w * a.as_f64())
            .collect();
        prop_assert_eq!(evidence_samples(&pool), weighted);
    }

    /// The detector's rows — trust weight times link stability — are
    /// formula (8) over stability-scaled evidence: `Σ w⁺·s·e / Σ w⁺`, with
    /// the stability left out of the normalizer. Dilution never pushes
    /// `|Detect|` past the weighted mean stability, and never past the
    /// same rows at stability `1.0` while every answer shares one sign.
    #[test]
    fn stability_rows_are_the_diluted_trust_weighted_mean(
        rows in proptest::collection::vec((-1.0f64..=1.0, 0.0f64..=1.0, answer()), 0..16),
        deny_only in any::<bool>(),
    ) {
        let rows: Vec<(f64, f64, Answer)> = rows
            .into_iter()
            .map(|(t, s, a)| (t, s, if deny_only && a == Answer::Confirm { Answer::Deny } else { a }))
            .collect();
        let pool: Vec<Evidence> = rows
            .iter()
            .map(|&(t, s, a)| Evidence { stability: s, ..trusted(t, a) })
            .collect();
        let (num, denom, stable) = rows.iter().fold((0.0, 0.0, 0.0), |(num, denom, stable), &(t, s, a)| {
            let w = TrustValue::new(t).weight();
            (num + w * (s * a.as_f64()), denom + w, stable + w * s)
        });
        let mean = if denom <= 0.0 { 0.0 } else { num / denom };
        let detect = detection_value(&pool);
        prop_assert_eq!(detect.to_bits(), mean.to_bits());
        let weighted: Vec<f64> = rows
            .iter()
            .map(|&(t, s, a)| (TrustValue::new(t).weight(), s, a))
            .filter(|&(w, _, a)| a != Answer::NoAnswer && w > 0.0)
            .map(|(w, s, a)| w * (s * a.as_f64()))
            .collect();
        prop_assert_eq!(evidence_samples(&pool), weighted);
        if denom > 0.0 {
            prop_assert!(detect.abs() <= stable / denom + 1e-12);
        }
        if deny_only {
            let full: Vec<Evidence> = rows.iter().map(|&(t, _, a)| trusted(t, a)).collect();
            prop_assert!(detect.abs() <= detection_value(&full).abs() + 1e-12);
        }
    }

    // ---- confidence (9) -------------------------------------------------

    #[test]
    fn margin_nonnegative(
        samples in proptest::collection::vec(-1.0f64..=1.0, 0..32),
        cl in 0.5f64..0.999,
    ) {
        let m = margin_of_error(&samples, cl);
        prop_assert!(m >= 0.0);
    }

    #[test]
    fn margin_monotone_in_confidence_level(
        samples in proptest::collection::vec(-1.0f64..=1.0, 3..32),
        cl1 in 0.5f64..0.99,
        delta in 0.001f64..0.009,
    ) {
        let m1 = margin_of_error(&samples, cl1);
        let m2 = margin_of_error(&samples, cl1 + delta);
        prop_assert!(m2 >= m1 - 1e-12);
    }

    #[test]
    fn margin_shrinks_as_identical_data_grows(
        block in proptest::collection::vec(-1.0f64..=1.0, 2..8),
        reps in 2usize..6,
    ) {
        let small: Vec<f64> = block.clone();
        let large: Vec<f64> = block
            .iter()
            .cycle()
            .take(block.len() * reps)
            .copied()
            .collect();
        // Repeating the same data leaves σ (nearly) unchanged but grows n.
        let m_small = margin_of_error(&small, 0.95);
        let m_large = margin_of_error(&large, 0.95);
        prop_assert!(m_large <= m_small + 1e-9);
    }

    #[test]
    fn std_dev_nonnegative(samples in proptest::collection::vec(-10.0f64..=10.0, 0..64)) {
        prop_assert!(sample_std_dev(&samples) >= 0.0);
    }

    #[test]
    fn z_positive_above_half(cl in 0.01f64..0.999) {
        prop_assert!(z_for_confidence_level(cl) > 0.0 || cl < 0.02);
    }

    // ---- decision (10) ---------------------------------------------------

    #[test]
    fn decision_total_and_exclusive(
        detect in -1.0f64..=1.0,
        margin in 0.0f64..=2.0,
        gamma in 0.01f64..=1.0,
    ) {
        let rule = DecisionRule::new(gamma);
        match rule.decide(detect, margin) {
            Verdict::WellBehaving => prop_assert!(detect - margin >= gamma - 1e-12),
            Verdict::Intruder => prop_assert!(detect + margin <= -gamma + 1e-12),
            Verdict::Unrecognized => {
                prop_assert!(detect - margin < gamma || detect + margin > -gamma);
            }
        }
    }

    #[test]
    fn widening_the_interval_never_creates_judgement(
        detect in -1.0f64..=1.0,
        margin in 0.0f64..=1.0,
        extra in 0.0f64..=1.0,
    ) {
        let rule = DecisionRule::default();
        let narrow = rule.decide(detect, margin);
        let wide = rule.decide(detect, margin + extra);
        // A wider interval can only move toward Unrecognized.
        if narrow == Verdict::Unrecognized {
            prop_assert_eq!(wide, Verdict::Unrecognized);
        }
    }

    // ---- store ----------------------------------------------------------

    #[test]
    fn store_trust_always_in_domain(
        seed_trust in proptest::collection::vec((0u32..8, -1.0f64..=1.0), 0..8),
        events in proptest::collection::vec((0u32..8, evidence_kind()), 0..64),
    ) {
        let mut store: TrustStore<u32> = TrustStore::new(TrustValue::DEFAULT);
        for (k, t) in seed_trust {
            store.set_trust(k, TrustValue::new(t));
        }
        for (i, (k, e)) in events.iter().enumerate() {
            store.record(*k, *e);
            if i % 5 == 4 {
                store.end_slot();
            }
        }
        store.end_slot();
        for (_, t) in store.peers() {
            prop_assert!((-1.0..=1.0).contains(&t.get()));
        }
    }

    // ---- one dispute: (8)–(10) and the formula (5) testimony -------------

    #[test]
    fn dispute_judges_like_the_formulas_composed(
        rounds in dispute_rounds(),
        trust in proptest::collection::vec(-1.0f64..=1.0, 8),
        unweighted in any::<bool>(),
        extra in (any::<bool>(), -1.0f64..=1.0, 0.0f64..=1.0, answer()),
    ) {
        let weight = |w: usize| if unweighted { 1.0 } else { TrustValue::new(trust[w]).weight() };
        let (has_extra, t, stability, a) = extra;
        let extra = has_extra.then(|| Evidence { stability, ..trusted(t, a) });
        // Every row of every round in roster order, then the extra row.
        let mut pool: Vec<Evidence> = rounds
            .iter()
            .flat_map(|round| round.iter().enumerate())
            .map(|(w, &(answer, stability))| Evidence { weight: weight(w), stability, answer })
            .collect();
        let answered = pool.iter().filter(|row| row.answer != Answer::NoAnswer).count();
        pool.extend(extra);
        let detect = detection_value(&pool);
        let margin = margin_of_error(&evidence_samples(&pool), CONFIDENCE_LEVEL);
        let verdict = DecisionRule::default().decide(detect, margin);

        let got = dispute_of(&rounds).judge(weight, extra);
        prop_assert_eq!(got.detect.to_bits(), detect.to_bits());
        prop_assert_eq!(got.margin.to_bits(), margin.to_bits());
        prop_assert_eq!(got.verdict, verdict);
        prop_assert_eq!(got.answered, answered);
    }

    #[test]
    fn dispute_testimony_scores_the_current_round_only(
        rounds in dispute_rounds(),
        truthful in answer(),
    ) {
        // Rows of earlier rounds yield nothing.
        let last = rounds.last().expect("at least one round");
        let expected: Vec<(usize, EvidenceKind)> = last
            .iter()
            .enumerate()
            .map(|(w, &(a, _))| {
                let kind = match a {
                    Answer::NoAnswer => EvidenceKind::Unresponsive,
                    a if a == truthful => EvidenceKind::TruthfulTestimony,
                    _ => EvidenceKind::FalseTestimony,
                };
                (w, kind)
            })
            .collect();
        let got: Vec<_> = dispute_of(&rounds).testimony(truthful).collect();
        prop_assert_eq!(got, expected);
    }
}
