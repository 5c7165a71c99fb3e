//! The paper's experiments, one function per figure, plus the ablations.
//!
//! Every function returns a [`Figure`] — labelled series ready for the
//! ASCII chart renderer, the CSV writer and the benchmark harness. The
//! mapping to the paper:
//!
//! | Function | Paper | Shape being reproduced |
//! |----------|-------|------------------------|
//! | [`fig1_trustworthiness`] | Figure 1 | liars' trust decreases monotonically regardless of initial value; honest nodes drift up |
//! | [`fig2_forgetting`] | Figure 2 | after the attack ceases, trust relaxes to the default 0.4; recovery from below is slow |
//! | [`fig3_liar_impact`] | Figure 3 | more liars ⇒ slower descent of `Detect`; ≤ −0.4 by round 10 even at ≈43% liars; ≈ −0.8 for all by round 25 |
//! | [`confidence_sweep`] | §IV-C | margin shrinks with √n, grows with confidence level |
//! | [`ablations`] | §V discussion | what breaks without each mechanism |

use trustlink_trust::confidence::margin_of_error;
use trustlink_trust::Verdict;

use crate::rounds::{RoleKind, RoundConfig, RoundEngine, RoundTrace};

/// Runs each configuration for `rounds` rounds and returns the traces in
/// input order. Each run is a pure function of its configuration, seed
/// included.
fn run_rounds(cfgs: Vec<RoundConfig>, rounds: u32) -> Vec<RoundTrace> {
    cfgs.into_iter().map(|cfg| RoundEngine::new(cfg).run(rounds)).collect()
}

/// One labelled line of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Builds a series from y-values indexed by round (x = 1-based round).
    pub fn from_rounds(label: impl Into<String>, ys: &[f64]) -> Self {
        Series {
            label: label.into(),
            points: ys.iter().enumerate().map(|(i, &y)| ((i + 1) as f64, y)).collect(),
        }
    }

    /// The final y value.
    pub fn last_y(&self) -> Option<f64> {
        self.points.last().map(|&(_, y)| y)
    }

    /// The y value at 1-based round `r`.
    pub fn y_at_round(&self, r: usize) -> Option<f64> {
        self.points.get(r - 1).map(|&(_, y)| y)
    }
}

/// A complete figure: titled, labelled series.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Title (includes the paper figure number).
    pub title: String,
    /// X axis label.
    pub x_label: String,
    /// Y axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Looks a series up by label.
    pub fn series_named(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

/// **Figure 1 — Trustworthiness.** Trust values, as seen by the attacked
/// node, for every witness over `rounds` investigation rounds (16 nodes,
/// 1 attacker, 4 liars, random initial trust).
pub fn fig1_trustworthiness(cfg: RoundConfig, rounds: u32) -> Figure {
    let trace = RoundEngine::new(cfg).run(rounds);
    let mut series = Vec::new();
    for w in &trace.witnesses {
        let role = match w.role {
            RoleKind::Liar => "liar",
            RoleKind::Honest => "honest",
        };
        series.push(Series::from_rounds(
            format!("{role} S{} (t0={:.2})", w.index, w.initial_trust),
            &w.trust,
        ));
    }
    Figure {
        title: "Figure 1: Trustworthiness".to_string(),
        x_label: "investigation round".to_string(),
        y_label: "trust value".to_string(),
        series,
    }
}

/// **Figure 2 — Impact of the forgetting factor.** The attack ceases at
/// round 0; trust of nodes with varied initial values relaxes toward the
/// default 0.4 under the forgetting factor.
pub fn fig2_forgetting(cfg: RoundConfig, rounds: u32) -> Figure {
    let cfg = RoundConfig {
        attack_rounds: 0..0, // the attack has ceased
        ..cfg
    };
    let trace = RoundEngine::new(cfg).run(rounds);
    let mut series = Vec::new();
    for w in &trace.witnesses {
        let role = match w.role {
            RoleKind::Liar => "former liar",
            RoleKind::Honest => "well-behaving",
        };
        series.push(Series::from_rounds(
            format!("{role} S{} (t0={:.2})", w.index, w.initial_trust),
            &w.trust,
        ));
    }
    Figure {
        title: "Figure 2: Impact of the Forgetting Factor on the Trustworthiness".to_string(),
        x_label: "round".to_string(),
        y_label: "trust value".to_string(),
        series,
    }
}

/// **Figure 3 — Impact of liars on the detection.** The investigation
/// result `Detect(A, I)` per round for several liar counts; labels carry
/// the liar percentage among the witnesses.
pub fn fig3_liar_impact(base: RoundConfig, liar_counts: &[usize], rounds: u32) -> Figure {
    let witnesses = base.n_nodes - 2;
    let cfgs: Vec<RoundConfig> =
        liar_counts.iter().map(|&n_liars| RoundConfig { n_liars, ..base.clone() }).collect();
    let traces = run_rounds(cfgs, rounds);
    let series = liar_counts
        .iter()
        .zip(&traces)
        .map(|(&n_liars, trace)| {
            let pct = 100.0 * n_liars as f64 / witnesses as f64;
            Series::from_rounds(format!("{pct:.1}% liars"), &trace.detect)
        })
        .collect();
    Figure {
        title: "Figure 3: Impact of liars on the detection".to_string(),
        x_label: "investigation round".to_string(),
        y_label: "Detect(A,I)".to_string(),
        series,
    }
}

/// **Figure 3 with confidence bands**: the liar-impact sweep repeated over
/// `seeds` (≥ 5 recommended) instead of a single RNG draw, one run per
/// `(liar count, seed)`. Per liar count, three series are emitted —
/// `… (mean)`, `… (min)` and `… (max)` of `Detect(A, I)` per round — so
/// the paper's Figure 3 shape claims can be read against run-to-run spread
/// rather than one trajectory.
pub fn fig3_liar_impact_banded(
    base: RoundConfig,
    liar_counts: &[usize],
    rounds: u32,
    seeds: &[u64],
) -> Figure {
    assert!(!seeds.is_empty(), "banded sweep needs at least one seed");
    let witnesses = base.n_nodes - 2;
    // One run per (liar count, seed), flattened in deterministic order.
    let cfgs: Vec<RoundConfig> = liar_counts
        .iter()
        .flat_map(|&n_liars| seeds.iter().map(move |&seed| (n_liars, seed)).collect::<Vec<_>>())
        .map(|(n_liars, seed)| RoundConfig { n_liars, seed, ..base.clone() })
        .collect();
    let traces = run_rounds(cfgs, rounds);
    let mut series = Vec::new();
    for (li, &n_liars) in liar_counts.iter().enumerate() {
        let pct = 100.0 * n_liars as f64 / witnesses as f64;
        let group = &traces[li * seeds.len()..(li + 1) * seeds.len()];
        let n_rounds = group[0].detect.len();
        let mut mean = vec![0.0; n_rounds];
        let mut min = vec![f64::INFINITY; n_rounds];
        let mut max = vec![f64::NEG_INFINITY; n_rounds];
        for trace in group {
            for (r, &d) in trace.detect.iter().enumerate() {
                mean[r] += d / seeds.len() as f64;
                min[r] = min[r].min(d);
                max[r] = max[r].max(d);
            }
        }
        series.push(Series::from_rounds(format!("{pct:.1}% liars (mean)"), &mean));
        series.push(Series::from_rounds(format!("{pct:.1}% liars (min)"), &min));
        series.push(Series::from_rounds(format!("{pct:.1}% liars (max)"), &max));
    }
    Figure {
        title: format!(
            "Figure 3: Impact of liars on the detection (bands over {} seeds)",
            seeds.len()
        ),
        x_label: "investigation round".to_string(),
        y_label: "Detect(A,I)".to_string(),
        series,
    }
}

/// **Liar-coalition sweep** — how large must a colluding coalition grow
/// before it defeats detection? Every coalition size `0..=max_coalition`
/// is run over all `seeds` (fig3's banding idiom applied to the *outcome*
/// rather than the trajectory); x is the coalition size. Four series:
///
/// * `conviction rate` — fraction of seeds whose run reaches an
///   `Intruder` verdict at any round;
/// * `mean rounds to conviction` — first convicting round averaged over
///   seeds, never-convicting seeds counted at the `rounds` horizon;
/// * `final Detect (mean)` / `(min)` / `(max)` — the last round's
///   `Detect(A, I)` banded over seeds.
pub fn liar_coalition_sweep(
    base: RoundConfig,
    max_coalition: usize,
    rounds: u32,
    seeds: &[u64],
) -> Figure {
    assert!(!seeds.is_empty(), "coalition sweep needs at least one seed");
    assert!(
        max_coalition <= base.n_nodes.saturating_sub(2),
        "coalition of {max_coalition} liars cannot fit among {} witnesses",
        base.n_nodes.saturating_sub(2)
    );
    let cfgs: Vec<RoundConfig> = (0..=max_coalition)
        .flat_map(|n_liars| seeds.iter().map(move |&seed| (n_liars, seed)).collect::<Vec<_>>())
        .map(|(n_liars, seed)| RoundConfig { n_liars, seed, ..base.clone() })
        .collect();
    let traces = run_rounds(cfgs, rounds);
    let sizes = max_coalition + 1;
    let mut rate = Vec::with_capacity(sizes);
    let mut latency = Vec::with_capacity(sizes);
    let (mut mean, mut min, mut max) =
        (Vec::with_capacity(sizes), Vec::with_capacity(sizes), Vec::with_capacity(sizes));
    for group in traces.chunks(seeds.len()) {
        let mut convicted = 0usize;
        let mut rounds_sum = 0.0;
        let (mut m, mut lo, mut hi) = (0.0, f64::INFINITY, f64::NEG_INFINITY);
        for trace in group {
            match trace.verdicts.iter().position(|v| *v == Verdict::Intruder) {
                Some(r) => {
                    convicted += 1;
                    rounds_sum += (r + 1) as f64;
                }
                None => rounds_sum += f64::from(rounds),
            }
            let last = trace.detect.last().copied().unwrap_or(0.0);
            m += last / seeds.len() as f64;
            lo = lo.min(last);
            hi = hi.max(last);
        }
        rate.push(convicted as f64 / seeds.len() as f64);
        latency.push(rounds_sum / seeds.len() as f64);
        mean.push(m);
        min.push(lo);
        max.push(hi);
    }
    // x = coalition size (0-based, so shift from `from_rounds`' 1-based x).
    let sized = |label: &str, ys: &[f64]| {
        let mut s = Series::from_rounds(label, ys);
        for (x, _) in &mut s.points {
            *x -= 1.0;
        }
        s
    };
    Figure {
        title: format!(
            "Liar-coalition sweep: outcome vs coalition size (bands over {} seeds)",
            seeds.len()
        ),
        x_label: "coalition size (colluding liars)".to_string(),
        y_label: "outcome".to_string(),
        series: vec![
            sized("conviction rate", &rate),
            sized("mean rounds to conviction", &latency),
            sized("final Detect (mean)", &mean),
            sized("final Detect (min)", &min),
            sized("final Detect (max)", &max),
        ],
    }
}

/// **§IV-C — Confidence interval behaviour.** Margin of error as a
/// function of sample size, one series per confidence level, over a
/// worst-case-spread evidence sample (alternating ±1).
pub fn confidence_sweep(confidence_levels: &[f64], max_n: usize) -> Figure {
    let mut series = Vec::new();
    for &cl in confidence_levels {
        let mut points = Vec::new();
        for n in 2..=max_n {
            let samples: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
            points.push((n as f64, margin_of_error(&samples, cl)));
        }
        series.push(Series { label: format!("cl={cl:.2}"), points });
    }
    Figure {
        title: "Confidence interval: margin of error vs evidence count".to_string(),
        x_label: "number of evidences n".to_string(),
        y_label: "margin of error ε".to_string(),
        series,
    }
}

/// The ablation suite: each series is the `Detect` trajectory of the
/// default configuration with one mechanism changed.
pub fn ablations(base: RoundConfig, rounds: u32) -> Figure {
    let mut labelled: Vec<(String, RoundConfig)> = vec![
        ("full system".to_string(), base.clone()),
        ("no trust weighting".to_string(), RoundConfig { trust_weighting: false, ..base.clone() }),
    ];
    for beta in [0.5, 0.99] {
        labelled.push((format!("beta={beta}"), RoundConfig { beta, ..base.clone() }));
    }
    for p in [1.0, 0.6] {
        labelled.push((
            format!("answer_prob={p}"),
            RoundConfig { answer_probability: p, ..base.clone() },
        ));
    }
    labelled.push((
        "flat gravity".to_string(),
        RoundConfig { gravity: trustlink_trust::value::GravityCatalogue::flat(0.1), ..base },
    ));

    let (labels, cfgs): (Vec<String>, Vec<RoundConfig>) = labelled.into_iter().unzip();
    let traces = run_rounds(cfgs, rounds);
    let series = labels
        .into_iter()
        .zip(&traces)
        .map(|(label, trace)| Series::from_rounds(label, &trace.detect))
        .collect();

    Figure {
        title: "Ablations: Detect(A,I) trajectories".to_string(),
        x_label: "investigation round".to_string(),
        y_label: "Detect(A,I)".to_string(),
        series,
    }
}

/// The liar fractions the paper quotes (≈26.3% and ≈43.2%) mapped onto our
/// 14-witness roster, bracketed by a low fraction.
pub fn paper_liar_counts() -> Vec<usize> {
    // 14 witnesses: 2/14 ≈ 14.3%, 4/14 ≈ 28.6% (paper: 26.3%),
    // 6/14 ≈ 42.9% (paper: 43.2%).
    vec![2, 4, 6]
}

/// **Detection latency vs. liar fraction** (our addition): the first round
/// at which rule (10) convicts the attacker, per liar count. Quantifies
/// the paper's "the greatest is the number of liars the slowest gets the
/// detection" as a single curve. Unconvicted runs are reported as
/// `rounds + 1`.
pub fn conviction_latency(base: RoundConfig, liar_counts: &[usize], rounds: u32) -> Figure {
    let mut points = Vec::new();
    for &n_liars in liar_counts {
        let cfg = RoundConfig { n_liars, ..base.clone() };
        let witnesses = cfg.n_nodes - 2;
        let pct = 100.0 * n_liars as f64 / witnesses as f64;
        let trace = RoundEngine::new(cfg).run(rounds);
        let latency =
            trace.first_conviction().map(|r| r as f64 + 1.0).unwrap_or(f64::from(rounds) + 1.0);
        points.push((pct, latency));
    }
    Figure {
        title: "Detection latency vs liar fraction".to_string(),
        x_label: "liars among witnesses (%)".to_string(),
        y_label: "first conviction (round)".to_string(),
        series: vec![Series { label: "conviction round".to_string(), points }],
    }
}

/// **Message overhead of the detection system** (the paper's future-work
/// item on resource consumption): frames transmitted per node per second
/// in a 3×3 grid, for (0) plain OLSR with no detector, (1) detectors on a
/// benign network and (2) detectors with a link-spoofing attacker. The
/// deltas are the standing cost of the IDS and the marginal cost of
/// investigations.
pub fn overhead_comparison(seed: u64, duration_secs: u64) -> Figure {
    use crate::detector::DetectorConfig;
    use crate::scenario::{ScenarioBuilder, Topology};
    use trustlink_attacks::spoof::{LinkSpoofing, SpoofVariant};
    use trustlink_olsr::{OlsrConfig, OlsrNode};
    use trustlink_sim::{NodeId, RadioConfig, SimDuration, SimulatorBuilder};

    let detector = DetectorConfig {
        analysis_interval: SimDuration::from_millis(500),
        warmup: SimDuration::from_secs(10),
        trust_slot_interval: SimDuration::from_secs(3),
        investigation: trustlink_ids::investigation::InvestigationConfig {
            timeout: SimDuration::from_secs(3),
            max_witnesses: 16,
        },
        ..DetectorConfig::default()
    };

    // (0) plain OLSR, no detection at all.
    let plain = {
        let mut sim = SimulatorBuilder::new(seed)
            .arena(trustlink_sim::Arena::new(100_000.0, 100_000.0))
            .radio(RadioConfig::unit_disk(150.0))
            .build();
        for p in trustlink_sim::topologies::grid(9, 3, 100.0) {
            sim.add_node(Box::new(OlsrNode::new(OlsrConfig::fast())), p);
        }
        sim.run_for(SimDuration::from_secs(duration_secs));
        sim.stats().total_sent() as f64 / (9.0 * duration_secs as f64)
    };

    let run = |attack: bool| {
        let mut b = ScenarioBuilder::new(seed, 9)
            .topology(Topology::Grid { cols: 3, spacing: 100.0 })
            .detector(detector.clone())
            .duration(SimDuration::from_secs(duration_secs));
        if attack {
            b = b.attacker(
                4,
                LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent {
                    fake: vec![NodeId(55)],
                }),
            );
        }
        let report = b.run();
        report.total_sent() as f64 / (9.0 * duration_secs as f64)
    };
    let benign = run(false);
    let attacked = run(true);
    Figure {
        title: "Message overhead: frames per node per second".to_string(),
        x_label: "0 = plain OLSR, 1 = detectors benign, 2 = detectors + attacker".to_string(),
        y_label: "frames / node / s".to_string(),
        series: vec![Series {
            label: "frames per node-second".to_string(),
            points: vec![(0.0, plain), (1.0, benign), (2.0, attacked)],
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rounds::InitialTrust;

    fn base() -> RoundConfig {
        RoundConfig::default()
    }

    #[test]
    fn fig1_shape_holds() {
        let fig = fig1_trustworthiness(base(), 25);
        assert_eq!(fig.series.len(), 14);
        for s in &fig.series {
            assert_eq!(s.points.len(), 25);
            let first = s.points[0].1;
            let last = s.last_y().unwrap();
            if s.label.starts_with("liar") {
                assert!(last < first, "liar trust did not fall: {}", s.label);
            } else {
                assert!(last >= first - 1e-9, "honest trust fell: {}", s.label);
            }
        }
    }

    #[test]
    fn fig2_converges_to_default() {
        let cfg =
            RoundConfig { initial_trust: InitialTrust::PerNode(vec![0.9, 0.5, 0.15]), ..base() };
        let fig = fig2_forgetting(cfg, 80);
        for s in &fig.series {
            let last = s.last_y().unwrap();
            assert!((last - 0.4).abs() < 0.05, "{} ended at {last}", s.label);
        }
    }

    #[test]
    fn fig3_ordering_and_convergence() {
        // Noise-free answers make the liar-count ordering deterministic.
        let cfg = RoundConfig {
            initial_trust: InitialTrust::Fixed(0.5),
            answer_probability: 1.0,
            ..base()
        };
        let fig = fig3_liar_impact(cfg, &paper_liar_counts(), 25);
        assert_eq!(fig.series.len(), 3);
        // Early rounds: more liars ⇒ higher (less negative) Detect.
        let r3: Vec<f64> = fig.series.iter().map(|s| s.y_at_round(3).unwrap()).collect();
        assert!(r3[0] <= r3[1] + 1e-9 && r3[1] <= r3[2] + 1e-9, "round-3 ordering: {r3:?}");
        // Paper: below -0.4 by round 10 even for the worst case.
        for s in &fig.series {
            assert!(
                s.y_at_round(10).unwrap() < -0.4,
                "{} at round 10: {}",
                s.label,
                s.y_at_round(10).unwrap()
            );
            // And near -0.8 at the end.
            assert!(s.last_y().unwrap() < -0.7, "{} ended at {}", s.label, s.last_y().unwrap());
        }
    }

    #[test]
    fn fig3_banded_bands_bracket_the_mean() {
        let cfg = RoundConfig {
            initial_trust: InitialTrust::Fixed(0.5),
            answer_probability: 1.0,
            ..base()
        };
        let fig = fig3_liar_impact_banded(cfg.clone(), &[2, 6], 15, &[1, 2, 3, 4, 5]);
        assert_eq!(fig.series.len(), 6); // (mean, min, max) per liar count
        for triple in fig.series.chunks(3) {
            let (mean, min, max) = (&triple[0], &triple[1], &triple[2]);
            assert!(mean.label.ends_with("(mean)") && min.label.ends_with("(min)"));
            for r in 1..=15 {
                let (m, lo, hi) = (
                    mean.y_at_round(r).unwrap(),
                    min.y_at_round(r).unwrap(),
                    max.y_at_round(r).unwrap(),
                );
                assert!(lo <= m + 1e-12 && m <= hi + 1e-12, "round {r}: {lo} {m} {hi}");
            }
            // The paper's shape must hold for the *worst* draw too.
            assert!(max.y_at_round(10).unwrap() < -0.4, "{}", max.label);
        }
        // The single-seed sweep must agree with the band run for its seed.
        let single = fig3_liar_impact(RoundConfig { seed: 1, ..cfg.clone() }, &[2], 15);
        let banded = fig3_liar_impact_banded(RoundConfig { seed: 9, ..cfg }, &[2], 15, &[1]);
        assert_eq!(single.series[0].points, banded.series[0].points, "mean of one seed == run");
    }

    #[test]
    fn coalition_sweep_maps_outcome_to_coalition_size() {
        let cfg = RoundConfig {
            initial_trust: InitialTrust::Fixed(0.5),
            answer_probability: 1.0,
            ..base()
        };
        let fig = liar_coalition_sweep(cfg, 6, 25, &[1, 2, 3]);
        let rate = fig.series_named("conviction rate").expect("rate series");
        let latency = fig.series_named("mean rounds to conviction").expect("latency series");
        let mean = fig.series_named("final Detect (mean)").expect("mean series");
        let min = fig.series_named("final Detect (min)").expect("min series");
        let max = fig.series_named("final Detect (max)").expect("max series");
        for s in [rate, latency, mean, min, max] {
            assert_eq!(s.points.len(), 7, "{}: one point per coalition size 0..=6", s.label);
            assert_eq!(s.points[0].0, 0.0, "{}: x starts at coalition size 0", s.label);
        }
        // Paper claim: detection holds through ≈43% liars (6 of 14
        // witnesses) — every coalition size in the sweep still convicts on
        // every seed, just later.
        for (x, r) in &rate.points {
            assert_eq!(*r, 1.0, "coalition of {x} escaped conviction on some seed");
        }
        for i in 0..7 {
            let (m, lo, hi) = (mean.points[i].1, min.points[i].1, max.points[i].1);
            assert!(lo <= m + 1e-12 && m <= hi + 1e-12, "size {i}: {lo} {m} {hi}");
            assert!(m < -0.7, "size {i}: final Detect {m} should sit near -0.8");
        }
        // A larger coalition never speeds conviction up: rounds-to-convict
        // is non-decreasing in coalition size for the liar-free prefix.
        assert!(
            latency.points[0].1 <= latency.points[6].1,
            "a 6-liar coalition convicted faster than no liars at all: {} vs {}",
            latency.points[0].1,
            latency.points[6].1
        );
    }

    #[test]
    fn parallel_sweeps_match_serial_results() {
        // Each run of `ablations`/`fig3_liar_impact` is a pure function
        // of its config, so repeating a sweep must be bit-identical.
        let cfg = RoundConfig {
            n_liars: 4,
            initial_trust: InitialTrust::Fixed(0.5),
            answer_probability: 1.0,
            ..base()
        };
        let a = fig3_liar_impact(cfg.clone(), &paper_liar_counts(), 10);
        let b = fig3_liar_impact(cfg.clone(), &paper_liar_counts(), 10);
        assert_eq!(a, b);
        let x = ablations(cfg.clone(), 10);
        let y = ablations(cfg, 10);
        assert_eq!(x, y);
    }

    #[test]
    fn confidence_margin_monotone() {
        let fig = confidence_sweep(&[0.90, 0.95, 0.99], 30);
        assert_eq!(fig.series.len(), 3);
        // Higher cl ⇒ wider margin at equal n.
        for n_idx in 0..5 {
            let m90 = fig.series[0].points[n_idx].1;
            let m99 = fig.series[2].points[n_idx].1;
            assert!(m99 > m90);
        }
        // Margin shrinks in n along each series (for this alternating
        // sample, up to the odd/even parity wiggle — compare same-parity).
        for s in &fig.series {
            let early = s.points[2].1;
            let late = s.points[s.points.len() - 2].1;
            assert!(late < early, "{}: {early} -> {late}", s.label);
        }
    }

    #[test]
    fn ablations_have_expected_relationships() {
        let fig = ablations(
            RoundConfig {
                n_liars: 6,
                initial_trust: InitialTrust::Fixed(0.5),
                answer_probability: 1.0,
                ..base()
            },
            25,
        );
        let full = fig.series_named("full system").unwrap().last_y().unwrap();
        let unweighted = fig.series_named("no trust weighting").unwrap().last_y().unwrap();
        assert!(
            full < unweighted - 0.3,
            "trust weighting should dominate: full={full} unweighted={unweighted}"
        );
    }

    #[test]
    fn conviction_latency_monotone_in_liars() {
        let base = RoundConfig {
            initial_trust: InitialTrust::Fixed(0.5),
            answer_probability: 1.0,
            ..base()
        };
        let fig = conviction_latency(base, &[0, 2, 4, 6], 25);
        let latencies: Vec<f64> = fig.series[0].points.iter().map(|&(_, y)| y).collect();
        // Every configuration converges within the horizon...
        for l in &latencies {
            assert!(*l <= 25.0, "no conviction: {latencies:?}");
        }
        // ... and more liars never convict *faster*.
        for w in latencies.windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "latency not monotone: {latencies:?}");
        }
    }

    #[test]
    fn overhead_detection_costs_more_than_plain_olsr() {
        let fig = overhead_comparison(77, 40);
        let plain = fig.series[0].points[0].1;
        let benign = fig.series[0].points[1].1;
        let attacked = fig.series[0].points[2].1;
        assert!(plain > 0.0);
        assert!(
            benign > plain && attacked > plain,
            "the IDS must cost traffic: plain {plain}, benign {benign}, attacked {attacked}"
        );
    }

    #[test]
    fn series_accessors() {
        let s = Series::from_rounds("x", &[1.0, 2.0, 3.0]);
        assert_eq!(s.points[0], (1.0, 1.0));
        assert_eq!(s.y_at_round(2), Some(2.0));
        assert_eq!(s.last_y(), Some(3.0));
        let fig =
            Figure { title: "t".into(), x_label: "x".into(), y_label: "y".into(), series: vec![s] };
        assert!(fig.series_named("x").is_some());
        assert!(fig.series_named("nope").is_none());
    }
}
