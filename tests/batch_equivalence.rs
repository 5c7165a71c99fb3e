//! Golden digests for the per-frame delivery path.
//!
//! The engine delivers every frame as its own event through
//! `Application::on_receive`. Until that became the only path, a batched
//! path coalesced consecutive same-instant frames for one receiver into a
//! single callback, and this suite diffed the two against each other.
//! The digests below were derived on the last commit that still had both
//! paths: for every scenario and seed, `fnv1a(text_fingerprint(..))` of
//! the batched run and of the per-frame run were computed and agreed, and
//! so did the detection scenario's verdict counts. The single path must
//! reproduce them byte for byte, across stationary meshes, lossy radios,
//! node churn, a collision window, fisheye flood scoping and full
//! detector scenarios.

use trustlink_core::prelude::*;
use trustlink_olsr::{FisheyeRings, FloodScope, OlsrConfig, OlsrNode};
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
        [(1, 0x56c0_0cf7_abc6_7e78), (7, 0xbeb7_db45_e27d_8cdc), (42, 0x2053_a126_ae51_1860)]
    {
        let mut sim = SimulatorBuilder::new(seed)
            .arena(Arena::new(700.0, 700.0))
            .radio(RadioConfig::unit_disk(160.0))
            .build();
        for p in trustlink_sim::topologies::grid(36, 6, 110.0) {
            sim.add_node(olsr_boxed(), p);
        }
        sim.run_for(SimDuration::from_secs(8));
        assert_golden("stationary mesh", seed, &sim, golden);
    }
}

#[test]
fn lossy_mesh_is_byte_identical() {
    for (seed, golden) in [(3, 0xb460_bcf8_07db_338d), (11, 0xf466_585f_7620_e783)] {
        let arena = trustlink_sim::topologies::arena_for_mean_degree(48, 150.0, 10.0);
        let mut placement = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 0xBEEF);
        let positions = trustlink_sim::topologies::random_geometric(48, &arena, &mut placement);
        let mut sim = SimulatorBuilder::new(seed)
            .arena(arena)
            .radio(RadioConfig::unit_disk(150.0).with_loss(0.1))
            .build();
        for p in positions {
            sim.add_node(olsr_boxed(), p);
        }
        sim.run_for(SimDuration::from_secs(6));
        assert_golden("lossy mesh", seed, &sim, golden);
    }
}

#[test]
fn churn_kill_revive_is_byte_identical() {
    // Mid-run liveness changes: frames in flight to a node that dies
    // before their arrival instant are discarded at dispatch.
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
fn collision_window_is_byte_identical() {
    // Under a collision window the first admitted frame of an instant
    // makes every later same-instant frame collide.
    let mut sim = SimulatorBuilder::new(17)
        .arena(Arena::new(600.0, 600.0))
        .radio(RadioConfig::unit_disk(160.0).with_collisions(SimDuration::from_micros(300)))
        .build();
    for p in trustlink_sim::topologies::grid(25, 5, 100.0) {
        sim.add_node(olsr_boxed(), p);
    }
    sim.run_for(SimDuration::from_secs(8));
    assert_golden("collision window", 17, &sim, 0x5141_c37d_a844_f890);
}

#[test]
fn fisheye_scoped_flooding_is_byte_identical() {
    // Scoped fisheye flooding changes *what* is transmitted, not how it is
    // delivered: each scope keeps its own digest.
    for (scope, golden) in [
        (FloodScope::Classic, 0xf77b_a9a0_4e9a_c1a3),
        (FloodScope::Fisheye(FisheyeRings::default()), 0x8cf1_f96a_9302_36be),
    ] {
        let cfg = OlsrConfig::fast().with_flood_scope(scope);
        let mut sim = SimulatorBuilder::new(21)
            .arena(Arena::new(700.0, 700.0))
            .radio(RadioConfig::unit_disk(160.0).with_loss(0.05))
            .build();
        for p in trustlink_sim::topologies::grid(36, 6, 110.0) {
            sim.add_node(Box::new(OlsrNode::new(cfg.clone())), p);
        }
        sim.run_for(SimDuration::from_secs(8));
        assert_golden("fisheye scope", 21, &sim, golden);
    }
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
