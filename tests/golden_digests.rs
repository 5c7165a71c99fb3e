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
//! read. The digests below were re-derived on the last commit that still
//! logged those kinds, by rendering each scenario with their lines
//! dropped; the unfiltered render of that commit still matched the digest
//! derived where the retired paths agreed.

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
        [(1, 0xc762_8f09_ded6_7939), (7, 0x4f57_2e01_e988_85e8), (42, 0x3431_9bfe_8f28_6662)]
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
        [(1, 0x5a90_5a0c_9bbf_ddcf), (7, 0xed33_d5ec_e395_eb1c), (42, 0x6714_f50c_4f63_cf95)]
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
    for (seed, golden) in [(3, 0x3217_aaf3_2807_2b6f), (11, 0x10b1_49b7_c137_03f9)] {
        assert_golden("lossy mesh", seed, &random_geometric_mesh(seed, 0.1), golden);
    }
}

#[test]
fn random_geometric_mesh_is_byte_identical() {
    for (seed, golden) in [(3, 0x45a2_6268_8eae_ba43), (11, 0x8b47_63f9_407a_2942)] {
        assert_golden("random geometric mesh", seed, &random_geometric_mesh(seed, 0.05), golden);
    }
}

#[test]
fn random_waypoint_mobility_is_byte_identical() {
    for (seed, golden) in
        [(5, 0x972d_1a57_72ba_af8b), (23, 0x7a96_0916_bdce_5ee7), (99, 0x8c2a_5737_a707_5431)]
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
    assert_golden("kill/revive churn", 13, &sim, 0xd4a0_ee43_3607_9a6d);
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
    assert_golden("teleport", 31, &sim, 0x1da5_d8e8_d860_2acb);
}

#[test]
fn late_join_is_byte_identical() {
    // A node added mid-run, beside nodes whose receiver lists are already
    // built, must be heard by them from its first broadcast and hear their
    // next ones: adding a node changes every neighborhood it lands in.
    for (seed, golden) in [(17, 0x9256_980b_5f6c_13d3), (29, 0x9a26_f731_cff7_cb43)] {
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
    assert_golden("collision window", 17, &sim, 0x40be_5f44_f363_a8aa);
}

#[test]
fn fisheye_scoped_flooding_is_byte_identical() {
    // Scoped fisheye flooding changes *what* is transmitted, not how it is
    // delivered: each scope keeps its own digest.
    for (scope, golden) in [
        (FloodScope::Classic, 0x5dbc_7e5d_1ec6_c0e4),
        (FloodScope::Fisheye(FisheyeRings::default()), 0x28d5_3221_9028_82da),
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
        [(7, 0xf4b6_3822_47cf_1c7f, 96), (19, 0x68c1_ae2b_b93a_fd6f, 84)]
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
