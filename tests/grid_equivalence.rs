//! Grid-vs-linear radio scan equivalence suite.
//!
//! The spatial grid index (`trustlink_sim::grid`) must be a pure
//! optimization: for any `(seed, configuration)`, a grid-indexed run and a
//! linear-scan run produce **byte-identical** audit logs and traffic
//! statistics. The grid only changes which node slots are inspected per
//! broadcast; candidates are visited in ascending node index and the radio
//! draws randomness only for in-range candidates, so the RNG stream cannot
//! diverge. These tests pin that contract across stationary and mobile
//! OLSR networks, full detector scenarios and node churn. The primary diff
//! is the typed event stream (record by record, first divergence named);
//! the rendered-text fingerprint rides along as the string secondary.

use trustlink_core::prelude::*;
use trustlink_olsr::{OlsrConfig, OlsrNode};
use trustlink_tests::{assert_recordings_identical, fnv1a, text_fingerprint};

/// Builds, scripts and compares one simulator per scan mode: typed event
/// streams first, rendered text fingerprints second.
fn assert_modes_identical(
    label: &str,
    seed: u64,
    build_and_run: impl Fn(SimulatorBuilder) -> Simulator,
) {
    let run = |mode: ScanMode| {
        let builder = SimulatorBuilder::new(seed).scan_mode(mode);
        build_and_run(builder)
    };
    let grid = run(ScanMode::Grid);
    let linear = run(ScanMode::Linear);
    assert_recordings_identical(label, &grid.flight_recorder(), &linear.flight_recorder());
    assert_eq!(
        text_fingerprint(&grid),
        text_fingerprint(&linear),
        "{label}: grid and linear scans diverged for seed {seed}"
    );
}

fn olsr_boxed() -> Box<OlsrNode> {
    Box::new(OlsrNode::new(OlsrConfig::fast()))
}

#[test]
fn stationary_olsr_mesh_is_byte_identical() {
    for seed in [1, 7, 42] {
        assert_modes_identical("stationary mesh", seed, |builder| {
            let mut sim = builder
                .arena(Arena::new(700.0, 700.0))
                .radio(RadioConfig::unit_disk(160.0).with_loss(0.1))
                .build();
            for p in trustlink_sim::topologies::grid(36, 6, 110.0) {
                sim.add_node(olsr_boxed(), p);
            }
            sim.run_for(SimDuration::from_secs(8));
            sim
        });
    }
}

#[test]
fn random_geometric_mesh_is_byte_identical() {
    for seed in [3, 11] {
        assert_modes_identical("random geometric mesh", seed, |builder| {
            let arena = trustlink_sim::topologies::arena_for_mean_degree(48, 150.0, 10.0);
            let mut placement =
                <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 0xBEEF);
            let positions = trustlink_sim::topologies::random_geometric(48, &arena, &mut placement);
            let mut sim =
                builder.arena(arena).radio(RadioConfig::unit_disk(150.0).with_loss(0.05)).build();
            for p in positions {
                sim.add_node(olsr_boxed(), p);
            }
            sim.run_for(SimDuration::from_secs(6));
            sim
        });
    }
}

#[test]
fn random_waypoint_mobility_is_byte_identical() {
    for seed in [5, 23, 99] {
        assert_modes_identical("random waypoint", seed, |builder| {
            let mut sim = builder
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
            sim
        });
    }
}

#[test]
fn churn_kill_revive_is_byte_identical() {
    assert_modes_identical("kill/revive churn", 13, |builder| {
        let mut sim =
            builder.arena(Arena::new(600.0, 600.0)).radio(RadioConfig::unit_disk(160.0)).build();
        for p in trustlink_sim::topologies::grid(25, 5, 100.0) {
            sim.add_node(olsr_boxed(), p);
        }
        sim.run_for(SimDuration::from_secs(3));
        sim.kill(NodeId(12)); // the center of the mesh goes dark
        sim.kill(NodeId(0));
        sim.run_for(SimDuration::from_secs(3));
        sim.revive(NodeId(12));
        sim.run_for(SimDuration::from_secs(3));
        sim
    });
}

#[test]
fn full_detection_scenario_is_byte_identical() {
    // The whole stack — OLSR + detectors + attacker + liar + collisions —
    // through the ScenarioBuilder's scan-mode knob.
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
    for seed in [7, 19] {
        let run = |mode: ScanMode| {
            ScenarioBuilder::new(seed, 9)
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
                .scan_mode(mode)
                .duration(SimDuration::from_secs(45))
                .run()
        };
        let grid = run(ScanMode::Grid);
        let linear = run(ScanMode::Linear);
        assert_recordings_identical(
            "detection scenario",
            &grid.sim.flight_recorder(),
            &linear.sim.flight_recorder(),
        );
        assert_eq!(
            text_fingerprint(&grid.sim),
            text_fingerprint(&linear.sim),
            "detection scenario diverged for seed {seed}"
        );
        assert_eq!(grid.verdicts, linear.verdicts, "verdict streams diverged for seed {seed}");
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
    // set_position must reindex: a node teleported across the arena keeps
    // both runs in lockstep.
    assert_modes_identical("teleport", 31, |builder| {
        let mut sim =
            builder.arena(Arena::new(900.0, 900.0)).radio(RadioConfig::unit_disk(150.0)).build();
        for p in trustlink_sim::topologies::line(8, 100.0) {
            sim.add_node(olsr_boxed(), p);
        }
        sim.run_for(SimDuration::from_secs(3));
        sim.set_position(NodeId(0), Position::new(850.0, 850.0)); // leaves the line
        sim.run_for(SimDuration::from_secs(3));
        sim.set_position(NodeId(0), Position::new(0.0, 0.0)); // rejoins
        sim.run_for(SimDuration::from_secs(3));
        sim
    });
}
