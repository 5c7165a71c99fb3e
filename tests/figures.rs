//! Shape gates for the paper's figures: these are the assertions that
//! define "reproduced" for this repository (see the README's "Reproducing
//! the paper's figures"). Absolute values depend on constants the paper
//! does not publish; the *shape* — who rises, who falls, the ordering of
//! curves, where thresholds are crossed — must hold.

use trustlink_core::prelude::*;

// ---------------------------------------------------------------- Figure 1

#[test]
fn fig1_liars_descend_monotonically_regardless_of_initial_trust() {
    for seed in [42, 43, 44] {
        let cfg = RoundConfig { seed, ..RoundConfig::default() };
        let fig = fig1_trustworthiness(cfg, 25);
        for s in fig.series.iter().filter(|s| s.label.starts_with("liar")) {
            let mut prev = f64::INFINITY;
            for &(_, y) in &s.points {
                assert!(y <= prev + 1e-12, "seed {seed}: {} rose ({prev} -> {y})", s.label);
                prev = y;
            }
            // "the trust value assigned to a liar decreases largely
            // regardless of its initial trust value"
            let drop = s.points[0].1 - s.last_y().unwrap();
            assert!(drop > 0.3, "seed {seed}: {} fell only {drop}", s.label);
        }
    }
}

#[test]
fn fig1_honest_nodes_gain_trust() {
    let fig = fig1_trustworthiness(RoundConfig::default(), 25);
    for s in fig.series.iter().filter(|s| s.label.starts_with("honest")) {
        let first = s.points[0].1;
        let last = s.last_y().unwrap();
        assert!(last >= first - 1e-9, "{} lost trust: {first} -> {last}", s.label);
    }
}

#[test]
fn fig1_liars_end_distrusted_honest_end_trusted() {
    let fig = fig1_trustworthiness(RoundConfig::default(), 25);
    let min_honest = fig
        .series
        .iter()
        .filter(|s| s.label.starts_with("honest"))
        .map(|s| s.last_y().unwrap())
        .fold(f64::INFINITY, f64::min);
    let max_liar = fig
        .series
        .iter()
        .filter(|s| s.label.starts_with("liar"))
        .map(|s| s.last_y().unwrap())
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        max_liar < 0.0 && min_honest > 0.0 && min_honest - max_liar > 0.5,
        "separation too weak: honest >= {min_honest}, liars <= {max_liar}"
    );
}

// ---------------------------------------------------------------- Figure 2

#[test]
fn fig2_high_and_medium_initial_trust_reach_default() {
    // "nodes with high or medium initial trust values reach the default
    // (initial) trust value (herein 0.4) in the last rounds"
    let cfg = RoundConfig {
        n_liars: 0,
        initial_trust: InitialTrust::PerNode(vec![0.9, 0.6, 0.45]),
        ..RoundConfig::default()
    };
    let fig = fig2_forgetting(cfg, 30);
    for s in &fig.series {
        let last = s.last_y().unwrap();
        assert!((last - 0.4).abs() < 0.06, "{} ended at {last}, want ≈0.4", s.label);
    }
}

#[test]
fn fig2_recovery_from_negative_is_slow() {
    // "recovering from a negative trustworthiness requires that the node
    // well-behave for long time" — a deeply punished liar does not reach
    // the default within the 25-round horizon.
    let cfg = RoundConfig {
        n_liars: 1,
        initial_trust: InitialTrust::PerNode(vec![-0.9, 0.9]),
        ..RoundConfig::default()
    };
    let fig = fig2_forgetting(cfg, 25);
    let former_liar = &fig.series[0];
    let well_behaved = &fig.series[1];
    assert!(former_liar.label.starts_with("former liar"));
    let liar_last = former_liar.last_y().unwrap();
    assert!(liar_last < 0.35, "former liar recovered too fast: {liar_last} within 25 rounds");
    // ... but it is recovering (monotone increase).
    assert!(liar_last > -0.9);
    // While the high-trust node has already converged to the default.
    assert!((well_behaved.last_y().unwrap() - 0.4).abs() < 0.06);
}

#[test]
fn fig2_recovery_is_monotone_toward_default() {
    let cfg = RoundConfig {
        n_liars: 0,
        initial_trust: InitialTrust::PerNode(vec![-0.5, 0.1, 0.9]),
        ..RoundConfig::default()
    };
    let fig = fig2_forgetting(cfg, 50);
    for s in &fig.series {
        let mut prev_gap = f64::INFINITY;
        for &(_, y) in &s.points {
            let gap = (y - 0.4).abs();
            assert!(gap <= prev_gap + 1e-9, "{}: gap to default grew", s.label);
            prev_gap = gap;
        }
    }
}

// ---------------------------------------------------------------- Figure 3

#[test]
fn fig3_more_liars_slower_descent() {
    let cfg = RoundConfig {
        initial_trust: InitialTrust::Fixed(0.5),
        answer_probability: 1.0, // noise-free for a deterministic ordering
        ..RoundConfig::default()
    };
    let fig = fig3_liar_impact(cfg, &paper_liar_counts(), 25);
    for round in 2..=4 {
        let values: Vec<f64> = fig.series.iter().map(|s| s.y_at_round(round).unwrap()).collect();
        for w in values.windows(2) {
            assert!(
                w[0] <= w[1] + 1e-9,
                "round {round}: fewer liars should be more negative: {values:?}"
            );
        }
    }
}

#[test]
fn fig3_below_threshold_by_round_ten() {
    // "after 10 rounds, the result of the investigation falls down to −0.4
    // even when liars represent 43.2% of the nodes"
    let fig = fig3_liar_impact(RoundConfig::default(), &paper_liar_counts(), 25);
    for s in &fig.series {
        let y10 = s.y_at_round(10).unwrap();
        assert!(y10 < -0.4, "{} at round 10: {y10}", s.label);
    }
}

#[test]
fn fig3_converges_near_minus_point_eight() {
    // "in the last rounds, the investigation converges and reaches −0.8
    // regardless of the percentage of liars"
    let fig = fig3_liar_impact(RoundConfig::default(), &paper_liar_counts(), 25);
    for s in &fig.series {
        let last = s.last_y().unwrap();
        assert!((-1.0..=-0.7).contains(&last), "{} converged to {last}, want ≈ -0.8", s.label);
    }
}

#[test]
fn fig3_series_converge_together() {
    // All liar fractions end within a narrow band of one another.
    let fig = fig3_liar_impact(RoundConfig::default(), &paper_liar_counts(), 25);
    let finals: Vec<f64> = fig.series.iter().map(|s| s.last_y().unwrap()).collect();
    let spread = finals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - finals.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 0.15, "final spread {spread}: {finals:?}");
}

// ------------------------------------------------------------- Confidence

#[test]
fn confidence_margin_shrinks_with_evidence_and_grows_with_level() {
    let fig = confidence_sweep(&[0.90, 0.95, 0.99], 40);
    for s in &fig.series {
        let early = s.points[1].1;
        let late = s.points[s.points.len() - 1].1;
        assert!(late < early, "{}: margin did not shrink", s.label);
    }
    for i in 0..fig.series[0].points.len() {
        let m90 = fig.series[0].points[i].1;
        let m95 = fig.series[1].points[i].1;
        let m99 = fig.series[2].points[i].1;
        assert!(m90 < m95 && m95 < m99, "level ordering broken at index {i}");
    }
}

// -------------------------------------------------------------- Ablations

#[test]
fn ablation_trust_weighting_is_essential_at_high_liar_fractions() {
    let base = RoundConfig {
        n_liars: 6,
        initial_trust: InitialTrust::Fixed(0.5),
        answer_probability: 1.0,
        ..RoundConfig::default()
    };
    let fig = ablations(base, 25);
    let full = fig.series_named("full system").unwrap().last_y().unwrap();
    let none = fig.series_named("no trust weighting").unwrap().last_y().unwrap();
    assert!(full < -0.9, "full system: {full}");
    assert!(none > -0.3, "unweighted should stall near -(h-l)/n: {none}");
}

#[test]
fn ablation_beta_extremes_still_detect() {
    let fig = ablations(RoundConfig::default(), 25);
    for label in ["beta=0.5", "beta=0.99"] {
        let last = fig.series_named(label).unwrap().last_y().unwrap();
        assert!(last < -0.5, "{label} ended at {last}");
    }
}

#[test]
fn ablation_answer_loss_shifts_asymptote() {
    let fig = ablations(RoundConfig::default(), 25);
    let perfect = fig.series_named("answer_prob=1").unwrap().last_y().unwrap();
    let lossy = fig.series_named("answer_prob=0.6").unwrap().last_y().unwrap();
    // With perfect answers the asymptote approaches -1; with 40% missing
    // answers it is noticeably shallower (the paper's -0.8 phenomenon).
    assert!(perfect < lossy, "perfect {perfect} !< lossy {lossy}");
    assert!(perfect < -0.95);
    assert!(lossy > -0.85);
}
