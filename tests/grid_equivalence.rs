//! Golden digests for the radio's receiver lists.
//!
//! A broadcast reaches every other alive node within range, judged in
//! ascending node order; each sender caches that list until a node joins,
//! moves, dies or revives. Until the cached list became the only path, a
//! spatial-grid index and a linear scan of every slot both found the
//! receivers, and this suite diffed the two against each other. The
//! digests below were derived on the last commit that still had both
//! scans: for every scenario and seed, `fnv1a(text_fingerprint(..))` of
//! the grid run and of the linear run were computed and agreed, and so
//! did the detection scenario's verdict counts. The one path must
//! reproduce them byte for byte, across stationary and mobile OLSR
//! networks, node churn, teleports, a late join and full detector
//! scenarios.

use trustlink_core::prelude::*;
use trustlink_olsr::{OlsrConfig, OlsrNode};
use trustlink_tests::{fnv1a, text_fingerprint};

/// Asserts that the rendered logs and statistics of `sim` hash to `golden`.
fn assert_golden(label: &str, seed: u64, sim: &Simulator, golden: u64) {
    let got = fnv1a(&text_fingerprint(sim));
    assert_eq!(got, golden, "{label}: rendered digest {got:#018x} for seed {seed} moved");
}

fn olsr_boxed() -> Box<OlsrNode> {
    Box::new(OlsrNode::new(OlsrConfig::fast()))
}

#[test]
fn stationary_olsr_mesh_is_byte_identical() {
    for (seed, golden) in
        [(1, 0xe6a9_4924_d6e6_f3ea), (7, 0x2893_a58b_87c1_b4b1), (42, 0xc1eb_8126_3f90_70da)]
    {
        let mut sim = SimulatorBuilder::new(seed)
            .arena(Arena::new(700.0, 700.0))
            .radio(RadioConfig::unit_disk(160.0).with_loss(0.1))
            .build();
        for p in trustlink_sim::topologies::grid(36, 6, 110.0) {
            sim.add_node(olsr_boxed(), p);
        }
        sim.run_for(SimDuration::from_secs(8));
        assert_golden("stationary mesh", seed, &sim, golden);
    }
}

#[test]
fn random_geometric_mesh_is_byte_identical() {
    for (seed, golden) in [(3, 0xb12a_5819_3bea_5a3e), (11, 0xd717_2a9e_0fac_f35d)] {
        let arena = trustlink_sim::topologies::arena_for_mean_degree(48, 150.0, 10.0);
        let mut placement = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 0xBEEF);
        let positions = trustlink_sim::topologies::random_geometric(48, &arena, &mut placement);
        let mut sim = SimulatorBuilder::new(seed)
            .arena(arena)
            .radio(RadioConfig::unit_disk(150.0).with_loss(0.05))
            .build();
        for p in positions {
            sim.add_node(olsr_boxed(), p);
        }
        sim.run_for(SimDuration::from_secs(6));
        assert_golden("random geometric mesh", seed, &sim, golden);
    }
}

#[test]
fn random_waypoint_mobility_is_byte_identical() {
    for (seed, golden) in
        [(5, 0xf48a_0d28_d156_14e1), (23, 0x7f11_2104_01f3_ddc6), (99, 0xe11a_3fd1_f89d_8784)]
    {
        let mut sim = SimulatorBuilder::new(seed)
            .arena(Arena::new(500.0, 500.0))
            .radio(RadioConfig::unit_disk(170.0).with_loss(0.1))
            .mobility_tick(SimDuration::from_millis(250))
            .build();
        for i in 0..20u32 {
            sim.add_mobile_node(
                olsr_boxed(),
                Position::new(f64::from(i % 5) * 110.0, f64::from(i / 5) * 110.0),
                MobilityModel::RandomWaypoint {
                    speed_min: 5.0,
                    speed_max: 25.0,
                    pause: SimDuration::from_secs(1),
                },
            );
        }
        sim.run_for(SimDuration::from_secs(8));
        assert_golden("random waypoint", seed, &sim, golden);
    }
}

#[test]
fn churn_kill_revive_is_byte_identical() {
    let mut sim = SimulatorBuilder::new(13)
        .arena(Arena::new(600.0, 600.0))
        .radio(RadioConfig::unit_disk(160.0))
        .build();
    for p in trustlink_sim::topologies::grid(25, 5, 100.0) {
        sim.add_node(olsr_boxed(), p);
    }
    sim.run_for(SimDuration::from_secs(3));
    sim.kill(NodeId(12)); // the center of the mesh goes dark
    sim.kill(NodeId(0));
    sim.run_for(SimDuration::from_secs(3));
    sim.revive(NodeId(12));
    sim.run_for(SimDuration::from_secs(3));
    assert_golden("kill/revive churn", 13, &sim, 0x0a55_ea64_b81d_19c1);
}

#[test]
fn full_detection_scenario_is_byte_identical() {
    // The whole stack — OLSR + detectors + attacker + liar + loss —
    // through the ScenarioBuilder.
    let detector = DetectorConfig {
        analysis_interval: SimDuration::from_millis(500),
        investigation: trustlink_ids::investigation::InvestigationConfig {
            timeout: SimDuration::from_secs(3),
            max_witnesses: 16,
        },
        warmup: SimDuration::from_secs(10),
        trust_slot_interval: SimDuration::from_secs(3),
        ..DetectorConfig::default()
    };
    for (seed, golden, verdicts) in
        [(7, 0xd3b4_bbf2_6232_76c3, 96), (19, 0x6a68_be41_36f6_5a4e, 84)]
    {
        let report = ScenarioBuilder::new(seed, 9)
            .topology(Topology::Grid { cols: 3, spacing: 100.0 })
            .radio(RadioConfig::unit_disk(170.0).with_loss(0.05))
            .detector(detector.clone())
            .attacker(
                8,
                LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent {
                    fake: vec![NodeId(99)],
                }),
            )
            .liar(5, LiarPolicy::CoverFor { accomplices: vec![NodeId(8)] })
            .duration(SimDuration::from_secs(45))
            .run();
        assert_golden("detection scenario", seed, &report.sim, golden);
        assert_eq!(report.verdicts.len(), verdicts, "verdict count moved for seed {seed}");
    }
}

#[test]
fn stationary_mesh_matches_pre_typed_golden_digest() {
    // The original digest (0xa8ae_275a_a425_6586) was captured from this
    // exact 36-node mesh run while the log buffers still stored formatted
    // strings. Suppressed flood copies are now counted, not logged; the
    // digest below was derived on the last commit that still logged them,
    // by rendering this run with the `FWD_SUPPRESS` lines dropped (its
    // unfiltered render still matched the original). Every remaining line
    // must stay byte-for-byte what the pre-typed logs produced.
    let mut sim = SimulatorBuilder::new(1)
        .arena(Arena::new(700.0, 700.0))
        .radio(RadioConfig::unit_disk(160.0).with_loss(0.1))
        .build();
    for p in trustlink_sim::topologies::grid(36, 6, 110.0) {
        sim.add_node(olsr_boxed(), p);
    }
    sim.run_for(SimDuration::from_secs(8));
    assert_eq!(
        fnv1a(&text_fingerprint(&sim)),
        0xe6a9_4924_d6e6_f3ea,
        "rendered mesh log digest no longer matches the pre-typed capture"
    );
}

#[test]
fn teleportation_is_byte_identical() {
    // A node teleported across the arena leaves every receiver list it
    // was on and rejoins them when it comes back.
    let mut sim = SimulatorBuilder::new(31)
        .arena(Arena::new(900.0, 900.0))
        .radio(RadioConfig::unit_disk(150.0))
        .build();
    for p in trustlink_sim::topologies::line(8, 100.0) {
        sim.add_node(olsr_boxed(), p);
    }
    sim.run_for(SimDuration::from_secs(3));
    sim.set_position(NodeId(0), Position::new(850.0, 850.0)); // leaves the line
    sim.run_for(SimDuration::from_secs(3));
    sim.set_position(NodeId(0), Position::new(0.0, 0.0)); // rejoins
    sim.run_for(SimDuration::from_secs(3));
    assert_golden("teleport", 31, &sim, 0x30ff_96d7_c654_0465);
}

#[test]
fn late_join_is_byte_identical() {
    // A node added mid-run, beside nodes whose receiver lists are already
    // built, must be heard by them from its first broadcast and hear their
    // next ones: adding a node changes every neighborhood it lands in.
    for (seed, golden) in [(17, 0x3942_b229_0d27_043b), (29, 0x4957_0229_af99_50f2)] {
        let mut sim = SimulatorBuilder::new(seed)
            .arena(Arena::new(600.0, 600.0))
            .radio(RadioConfig::unit_disk(160.0).with_loss(0.05))
            .build();
        for p in trustlink_sim::topologies::grid(16, 4, 120.0) {
            sim.add_node(olsr_boxed(), p);
        }
        sim.run_for(SimDuration::from_secs(4));
        // Between nodes 5, 6, 9 and 10, in range of all four.
        sim.add_node(olsr_boxed(), Position::new(180.0, 180.0));
        sim.run_for(SimDuration::from_secs(4));
        assert_golden("late join", seed, &sim, golden);
    }
}
