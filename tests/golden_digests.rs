//! Golden digests of the rendered logs and traffic statistics.
//!
//! Each test runs one scenario and asserts that
//! `fnv1a(text_fingerprint(..))` still hashes to a pinned value, so any
//! change to what is transmitted, delivered, judged or logged shows up
//! here. The digests descend from two retired differential suites:
//!
//! * **Delivery.** The engine delivers every frame as its own event
//!   through `Application::on_receive`. A batched path once coalesced
//!   consecutive same-instant frames for one receiver into one callback;
//!   its suite diffed the two paths on stationary meshes, lossy radios,
//!   node churn, a collision window, fisheye flood scoping and full
//!   detector scenarios, and the digests were derived where both agreed.
//! * **Receiver lists.** A broadcast reaches every other alive node within
//!   range, judged in ascending node order; each sender caches that list
//!   until a node joins, moves, dies or revives. A spatial-grid index and
//!   a linear scan once both found the receivers; their suite diffed the
//!   two on stationary and mobile networks, churn, teleports and a late
//!   join, and the digests were derived where both agreed.
//!
//! The audit log has since dropped every record kind the IDS does not
//! read, and then every `HELLO_RX`/`TC_RX` that repeats what the log
//! already holds, adding `TC_HEARD` clocks. The first step was re-derived
//! on the last commit that still logged those kinds, by rendering each
//! scenario with their lines dropped. For the second, each scenario was
//! rendered on both sides of the change: every line other than
//! `HELLO_RX`, `TC_RX` and `TC_HEARD` (statistics included) was
//! identical, the kept receptions were an in-order subset of the old ones,
//! each dropped one repeated the claims last logged for its sender or
//! originator, and each `TC_HEARD` carried the time of the latest old
//! `TC_RX` from its originator.

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

/// A 36-node grid mesh under `radio`, run for 8 s.
fn stationary_mesh(seed: u64, radio: RadioConfig) -> Simulator {
    let mut sim = SimulatorBuilder::new(seed).arena(Arena::new(700.0, 700.0)).radio(radio).build();
    for p in trustlink_sim::topologies::grid(36, 6, 110.0) {
        sim.add_node(olsr_boxed(), p);
    }
    sim.run_for(SimDuration::from_secs(8));
    sim
}

#[test]
fn stationary_olsr_mesh_is_byte_identical() {
    for (seed, golden) in
        [(1, 0x60b8_c8e2_1c4e_2ee9), (7, 0x2a4e_f29f_1619_4f29), (42, 0x8c4f_e6e3_d9df_8b1f)]
    {
        let sim = stationary_mesh(seed, RadioConfig::unit_disk(160.0));
        assert_golden("stationary mesh", seed, &sim, golden);
    }
}

#[test]
fn lossy_stationary_olsr_mesh_is_byte_identical() {
    // Seed 1 is also the mesh whose digest was first captured while the
    // log buffers still stored formatted strings (0xa8ae_275a_a425_6586),
    // and which every later change to the log vocabulary re-derived.
    for (seed, golden) in
        [(1, 0xc6a6_1a18_1da2_bd0d), (7, 0x2dd8_167d_b0a6_24b8), (42, 0x5b0d_58f6_63ff_4cdf)]
    {
        let sim = stationary_mesh(seed, RadioConfig::unit_disk(160.0).with_loss(0.1));
        assert_golden("lossy stationary mesh", seed, &sim, golden);
    }
}

/// A 48-node random geometric mesh (mean degree 10) run for 6 s.
fn random_geometric_mesh(seed: u64, loss: f64) -> Simulator {
    let arena = trustlink_sim::topologies::arena_for_mean_degree(48, 150.0, 10.0);
    let mut placement = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 0xBEEF);
    let positions = trustlink_sim::topologies::random_geometric(48, &arena, &mut placement);
    let mut sim = SimulatorBuilder::new(seed)
        .arena(arena)
        .radio(RadioConfig::unit_disk(150.0).with_loss(loss))
        .build();
    for p in positions {
        sim.add_node(olsr_boxed(), p);
    }
    sim.run_for(SimDuration::from_secs(6));
    sim
}

#[test]
fn lossy_mesh_is_byte_identical() {
    for (seed, golden) in [(3, 0xc354_28b1_f36f_1d6e), (11, 0x4826_61b8_e43f_de70)] {
        assert_golden("lossy mesh", seed, &random_geometric_mesh(seed, 0.1), golden);
    }
}

#[test]
fn random_geometric_mesh_is_byte_identical() {
    for (seed, golden) in [(3, 0x40ff_cd91_abfd_041a), (11, 0x7837_66d7_4b13_e7a0)] {
        assert_golden("random geometric mesh", seed, &random_geometric_mesh(seed, 0.05), golden);
    }
}

#[test]
fn random_waypoint_mobility_is_byte_identical() {
    for (seed, golden) in
        [(5, 0xa917_9973_0d71_e578), (23, 0x34c1_ba12_e90f_c2dd), (99, 0xe5bc_fa93_a5ce_d172)]
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
    assert_golden("kill/revive churn", 13, &sim, 0x3545_ed1f_c7d8_2c83);
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
    assert_golden("teleport", 31, &sim, 0xe703_46d3_7627_56de);
}

#[test]
fn late_join_is_byte_identical() {
    // A node added mid-run, beside nodes whose receiver lists are already
    // built, must be heard by them from its first broadcast and hear their
    // next ones: adding a node changes every neighborhood it lands in.
    for (seed, golden) in [(17, 0xe1ad_b778_9948_b113), (29, 0x8735_d99a_cf58_079c)] {
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
    assert_golden("collision window", 17, &sim, 0xa589_9747_4f4b_2179);
}

#[test]
fn fisheye_scoped_flooding_is_byte_identical() {
    // Scoped fisheye flooding changes *what* is transmitted, not how it is
    // delivered: each scope keeps its own digest.
    for (scope, golden) in [
        (FloodScope::Classic, 0x74cd_22aa_4e12_7f5e),
        (FloodScope::Fisheye(FisheyeRings::default()), 0x3d51_1584_89cc_80ad),
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
    // through the ScenarioBuilder. Flight recording keeps the detectors'
    // whole logs for the digest; it changes nothing in the run.
    let detector = DetectorConfig {
        analysis_interval: SimDuration::from_millis(500),
        investigation: trustlink_ids::investigation::InvestigationConfig {
            timeout: SimDuration::from_secs(3),
            max_witnesses: 16,
        },
        warmup: SimDuration::from_secs(10),
        trust_slot_interval: SimDuration::from_secs(3),
        flight_recording: true,
        ..DetectorConfig::default()
    };
    for (seed, golden, verdicts) in
        [(7, 0x279f_5e9e_4efd_2566, 96), (19, 0xd8ca_05f1_63f9_14cb, 84)]
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
