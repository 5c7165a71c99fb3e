//! Fisheye-vs-classic TC flooding equivalence suite.
//!
//! `FloodScope::Fisheye` and `FloodScope::Classic` form an oracle pair
//! like `RecomputeMode::{Incremental, Eager}`, with one essential
//! difference: the optimized mode is **not** byte-identical to the
//! oracle. Scoped flooding deliberately changes what is on the air, so
//! the pinned contract has two tiers:
//!
//! 1. **Anchor: single-ring fisheye ≡ classic.** A `Fisheye` whose table
//!    is one unbounded every-interval ring schedules exactly like
//!    `Classic`, and must replay byte-identically — logs, statistics and
//!    full verdict streams. This anchors the scoped machinery to the
//!    oracle: every divergence a scoped run shows is attributable to the
//!    ring table, not to the plumbing.
//! 2. **Quantitative: scoped fisheye preserves detection.** With the
//!    default graded table, every scenario of the e2e detection matrix
//!    (stationary and mobile) must reach the *same convictions* — the
//!    same (observer, suspect) intruder verdicts, no false positives
//!    where classic has none — while forwarding a fraction of the TC
//!    frames. Byte-level timing is allowed to differ: fewer frames on
//!    the air shift the shared RNG stream, so delivery jitter (and with
//!    it verdict timestamps) legitimately diverges.

use std::collections::BTreeSet;

use trustlink_core::prelude::*;
use trustlink_core::DetectorConfig;
use trustlink_ids::investigation::InvestigationConfig;
use trustlink_olsr::{FisheyeRings, FloodScope, OlsrConfig, OlsrNode};
use trustlink_tests::{assert_recordings_identical, text_fingerprint};

/// The single unbounded every-interval ring: schedules like classic.
fn anchor_scope() -> FloodScope {
    FloodScope::Fisheye(FisheyeRings::single_unbounded(255))
}

fn fast_detector() -> DetectorConfig {
    DetectorConfig {
        analysis_interval: SimDuration::from_millis(500),
        investigation: InvestigationConfig {
            timeout: SimDuration::from_secs(3),
            max_witnesses: 16,
        },
        warmup: SimDuration::from_secs(10),
        trust_slot_interval: SimDuration::from_secs(3),
        ..DetectorConfig::default()
    }
}

fn spoof_phantom(fake: u32) -> LinkSpoofing {
    LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent { fake: vec![NodeId(fake)] })
}

/// The intruder convictions of a report as comparable (observer, suspect)
/// pairs.
fn conviction_pairs(report: &ScenarioReport) -> BTreeSet<(NodeId, NodeId)> {
    report
        .verdicts
        .iter()
        .filter(|(_, r)| r.verdict == Verdict::Intruder)
        .map(|(observer, r)| (*observer, r.suspect))
        .collect()
}

#[test]
fn single_unbounded_ring_is_byte_identical_on_olsr_mesh() {
    for seed in [1, 7] {
        let run = |scope: FloodScope| {
            let cfg = OlsrConfig::fast().with_flood_scope(scope);
            let mut sim = SimulatorBuilder::new(seed)
                .arena(Arena::new(900.0, 900.0))
                .radio(RadioConfig::unit_disk(160.0).with_loss(0.1))
                .expected_nodes(25)
                .build();
            for p in trustlink_sim::topologies::grid(25, 5, 110.0) {
                sim.add_node(Box::new(OlsrNode::new(cfg.clone())), p);
            }
            sim.run_for(SimDuration::from_secs(12));
            sim
        };
        let classic = run(FloodScope::Classic);
        let anchored = run(anchor_scope());
        assert_recordings_identical(
            "single-ring anchor (mesh)",
            &classic.flight_recorder(),
            &anchored.flight_recorder(),
        );
        assert_eq!(
            text_fingerprint(&classic),
            text_fingerprint(&anchored),
            "single-ring fisheye diverged from classic for seed {seed}"
        );
    }
}

#[test]
fn single_unbounded_ring_detection_scenario_is_byte_identical() {
    for seed in [201, 204] {
        let run = |scope: FloodScope| {
            ScenarioBuilder::new(seed, 9)
                .topology(Topology::Grid { cols: 3, spacing: 100.0 })
                .detector(fast_detector())
                .attacker(8, spoof_phantom(99))
                .liar(1, LiarPolicy::CoverFor { accomplices: vec![NodeId(8)] })
                .olsr(OlsrConfig::fast().with_flood_scope(scope))
                .duration(SimDuration::from_secs(60))
                .run()
        };
        let classic = run(FloodScope::Classic);
        let anchored = run(anchor_scope());
        // The full verdict stream — timestamps, Detect values, witness
        // counts — must match, not just the conviction outcomes.
        assert_eq!(classic.verdicts, anchored.verdicts, "verdict streams diverged, seed {seed}");
        assert_eq!(classic.total_sent(), anchored.total_sent());
        assert_eq!(classic.total_bytes(), anchored.total_bytes());
        assert_recordings_identical(
            "single-ring anchor (detection)",
            &classic.sim.flight_recorder(),
            &anchored.sim.flight_recorder(),
        );
        assert_eq!(
            text_fingerprint(&classic.sim),
            text_fingerprint(&anchored.sim),
            "single-ring fisheye detection run diverged from classic for seed {seed}"
        );
    }
}

/// The e2e detection matrix of `e2e_detection.rs`, re-run under the
/// default graded ring table: every scenario must reach exactly the
/// convictions the classic flood reaches.
#[test]
fn scoped_fisheye_reaches_identical_convictions_on_e2e_matrix() {
    struct Case {
        label: &'static str,
        seed: u64,
        attacker: Option<usize>,
        liars: &'static [usize],
        secs: u64,
    }
    let matrix = [
        Case { label: "corner spoofer", seed: 201, attacker: Some(8), liars: &[], secs: 90 },
        Case { label: "centre spoofer", seed: 202, attacker: Some(4), liars: &[], secs: 90 },
        Case { label: "colluding liars", seed: 204, attacker: Some(4), liars: &[1, 3], secs: 150 },
        Case { label: "benign grid", seed: 206, attacker: None, liars: &[], secs: 90 },
        Case { label: "benign grid 2", seed: 207, attacker: None, liars: &[], secs: 90 },
    ];
    for case in &matrix {
        let run = |scope: FloodScope| {
            let mut b =
                ScenarioBuilder::new(case.seed, if case.attacker.is_some() { 9 } else { 12 })
                    .topology(Topology::Grid {
                        cols: if case.attacker.is_some() { 3 } else { 4 },
                        spacing: 100.0,
                    })
                    .detector(fast_detector())
                    .olsr(OlsrConfig::fast().with_flood_scope(scope))
                    .duration(SimDuration::from_secs(case.secs));
            if let Some(a) = case.attacker {
                b = b.attacker(a, spoof_phantom(55));
            }
            for &l in case.liars {
                b = b.liar(l, LiarPolicy::CoverFor { accomplices: vec![NodeId(4)] });
            }
            b.run()
        };
        let classic = run(FloodScope::Classic);
        let scoped = run(FloodScope::Fisheye(FisheyeRings::default()));
        assert_eq!(
            conviction_pairs(&classic),
            conviction_pairs(&scoped),
            "{}: scoped fisheye changed the conviction outcome",
            case.label
        );
        assert_eq!(
            classic.false_positives().len(),
            scoped.false_positives().len(),
            "{}: scoped fisheye changed the false-positive count",
            case.label
        );
        if let Some(a) = case.attacker {
            assert!(scoped.detected(NodeId(a as u32)), "{}: attacker escaped", case.label);
        }
    }
}

#[test]
fn scoped_fisheye_preserves_mobile_detection() {
    // The mobile e2e suite under the graded table: random-waypoint churn
    // with a walking spoofer. Same conviction outcome as classic per seed.
    for seed in [301, 302] {
        let run = |scope: FloodScope| {
            ScenarioBuilder::new(seed, 9)
                .topology(Topology::Grid { cols: 3, spacing: 100.0 })
                .arena_size(320.0, 320.0)
                .radio(RadioConfig::unit_disk(170.0))
                .detector(fast_detector())
                .attacker(4, spoof_phantom(55))
                .mobility(MobilityModel::RandomWaypoint {
                    speed_min: 2.0,
                    speed_max: 8.0,
                    pause: SimDuration::from_secs(2),
                })
                .mobility_tick(SimDuration::from_millis(250))
                .olsr(OlsrConfig::fast().with_flood_scope(scope))
                .duration(SimDuration::from_secs(150))
                .run()
        };
        let classic = run(FloodScope::Classic);
        let scoped = run(FloodScope::Fisheye(FisheyeRings::default()));
        // Under churn the suite's documented limitation — honest links
        // dissolving mid-advertisement occasionally earn wrongful
        // convictions — is timing-sensitive, and fewer frames on the air
        // shift when each flap lands. The *attacker* verdicts are the
        // stable signal: exactly the same observers must convict N4, and
        // the wrongful-conviction noise must stay bounded, not cascade.
        let against_attacker = |r: &ScenarioReport| -> BTreeSet<(NodeId, NodeId)> {
            conviction_pairs(r).into_iter().filter(|(_, s)| *s == NodeId(4)).collect()
        };
        assert_eq!(
            against_attacker(&classic),
            against_attacker(&scoped),
            "seed {seed}: scoped fisheye changed who convicts the walking attacker"
        );
        assert!(scoped.detected(NodeId(4)), "seed {seed}: walking attacker escaped under fisheye");
        assert!(
            scoped.false_positives().len() <= classic.false_positives().len() + 2,
            "seed {seed}: scoped fisheye inflated mobile false positives ({} vs classic {})",
            scoped.false_positives().len(),
            classic.false_positives().len()
        );
    }
}

#[test]
fn scoped_fisheye_cuts_forwarded_tc_frames() {
    // A 256-node random-geometric network (≈13 hops across) over a full
    // ring cycle: the graded schedule must cut forwarded TC frames by a
    // wide margin while every ring actually fires. RFC timing; the 26 s
    // window covers one full stride-4 cycle for every node.
    let run = |scope: FloodScope| {
        let arena = trustlink_sim::topologies::arena_for_mean_degree(256, 150.0, 10.0);
        let mut placement = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0xF15);
        let positions = trustlink_sim::topologies::random_geometric(256, &arena, &mut placement);
        let cfg = OlsrConfig::rfc_default().with_flood_scope(scope);
        let mut sim = SimulatorBuilder::new(61)
            .arena(arena)
            .radio(RadioConfig::unit_disk(150.0))
            .expected_nodes(256)
            .build();
        for p in positions {
            sim.add_node(Box::new(OlsrNode::new(cfg.clone())), p);
        }
        sim.run_for(SimDuration::from_secs(26));
        let mut flood = trustlink_sim::FloodStats::default();
        for id in sim.node_ids().collect::<Vec<_>>() {
            flood.merge(sim.app_as::<OlsrNode>(id).expect("olsr node").flood_stats());
        }
        (flood, sim.stats().total_sent())
    };
    let (classic, classic_frames) = run(FloodScope::Classic);
    let (scoped, scoped_frames) = run(FloodScope::Fisheye(FisheyeRings::default()));
    assert!(
        classic.forwarded > 0 && scoped.forwarded > 0,
        "both modes must actually flood (classic {}, scoped {})",
        classic.forwarded,
        scoped.forwarded
    );
    let reduction = classic.forwarded as f64 / scoped.forwarded as f64;
    assert!(
        reduction >= 2.0,
        "scoped fisheye must cut forwarded TC frames ≥2× over a ring cycle \
         (classic {} vs scoped {}: {reduction:.2}×)",
        classic.forwarded,
        scoped.forwarded
    );
    assert!(
        scoped_frames < classic_frames,
        "total traffic must drop too ({classic_frames} -> {scoped_frames})"
    );
    // Every ring of the default table fired, and the innermost carries
    // the bulk of the emissions (strides 1/2/4).
    assert_eq!(scoped.originated_per_ring.len(), 3, "{:?}", scoped.originated_per_ring);
    assert!(
        scoped.originated_per_ring.iter().all(|&c| c > 0),
        "every ring must fire over a full cycle: {:?}",
        scoped.originated_per_ring
    );
    assert!(
        scoped.originated_per_ring[0] > scoped.originated_per_ring[2],
        "the innermost ring must fire most often: {:?}",
        scoped.originated_per_ring
    );
    // Classic books everything into ring 0.
    assert_eq!(classic.originated_per_ring.len(), 1);
}

#[test]
fn scoped_fisheye_keeps_routes_with_bounded_stretch() {
    // The cost side of the contract: after a full ring cycle plus slack,
    // fisheye routing tables must still reach almost everything classic
    // reaches, and the paths must not balloon — distant topology is
    // stale-but-held, not absent.
    let run = |scope: FloodScope| {
        let arena = trustlink_sim::topologies::arena_for_mean_degree(128, 150.0, 10.0);
        let mut placement = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0xF00D);
        let positions = trustlink_sim::topologies::random_geometric(128, &arena, &mut placement);
        let cfg = OlsrConfig::rfc_default().with_flood_scope(scope);
        let mut sim = SimulatorBuilder::new(67)
            .arena(arena)
            .radio(RadioConfig::unit_disk(150.0))
            .expected_nodes(128)
            .build();
        for p in positions {
            sim.add_node(Box::new(OlsrNode::new(cfg.clone())), p);
        }
        sim.run_for(SimDuration::from_secs(30));
        sim
    };
    let classic = run(FloodScope::Classic);
    let scoped = run(FloodScope::Fisheye(FisheyeRings::default()));
    let mut ratios: Vec<f64> = Vec::new();
    let mut unreached = 0u32;
    for id in classic.node_ids().collect::<Vec<_>>() {
        let c = classic.app_as::<OlsrNode>(id).expect("olsr node").routing_table();
        let f = scoped.app_as::<OlsrNode>(id).expect("olsr node").routing_table();
        for route in c.iter() {
            match f.route_to(route.dest) {
                Some(fr) => ratios.push(f64::from(fr.hops) / f64::from(route.hops)),
                None => unreached += 1,
            }
        }
    }
    assert!(!ratios.is_empty(), "classic found no routes at all");
    let reached = ratios.len() as f64 / (ratios.len() as f64 + f64::from(unreached));
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        reached >= 0.95,
        "fisheye lost too many destinations: reached {:.1}% of classic's routes",
        reached * 100.0
    );
    assert!(mean <= 1.10, "mean route stretch {mean:.3} exceeds the 1.10 bound");
}
