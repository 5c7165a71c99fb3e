//! Mobile-topology detection-latency e2e suite: the paper evaluates a
//! stationary network; these scenarios put the whole stack — OLSR link
//! churn, log analysis, cooperative investigations routed around the
//! suspect, rule (10) — under random-waypoint mobility and characterize
//! how long conviction takes when the neighborhood keeps changing.

use trustlink_core::prelude::*;
use trustlink_core::DetectorConfig;
use trustlink_ids::investigation::InvestigationConfig;

fn mobile_detector() -> DetectorConfig {
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

fn walkers(speed_min: f64, speed_max: f64) -> MobilityModel {
    MobilityModel::RandomWaypoint { speed_min, speed_max, pause: SimDuration::from_secs(2) }
}

fn spoof_phantom(fake: u32) -> LinkSpoofing {
    LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent { fake: vec![NodeId(fake)] })
}

/// A 3×3 mesh of slow walkers in a tight arena (everyone stays within a
/// couple of hops); the center node spoofs a phantom link.
fn mobile_scenario(seed: u64, speed: (f64, f64), secs: u64) -> ScenarioReport {
    ScenarioBuilder::new(seed, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .arena_size(320.0, 320.0)
        .radio(RadioConfig::unit_disk(170.0))
        .detector(mobile_detector())
        .attacker(4, spoof_phantom(55))
        .mobility(walkers(speed.0, speed.1))
        .mobility_tick(SimDuration::from_millis(250))
        .duration(SimDuration::from_secs(secs))
        .run()
}

#[test]
fn walking_spoofer_is_convicted() {
    for seed in [301, 302, 303] {
        let report = mobile_scenario(seed, (2.0, 8.0), 150);
        assert!(
            report.detected(NodeId(4)),
            "seed {seed}: walking attacker escaped detection; verdicts: {:?}",
            report.verdicts
        );
        let latency = report.first_detection(NodeId(4)).expect("detected");
        assert!(
            latency >= SimTime::from_secs(10),
            "seed {seed}: conviction before warmup ended ({latency})"
        );
    }
}

#[test]
fn mobile_detection_survives_a_liar() {
    let report = ScenarioBuilder::new(310, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .arena_size(320.0, 320.0)
        .radio(RadioConfig::unit_disk(170.0))
        .detector(mobile_detector())
        .attacker(4, spoof_phantom(55))
        .liar(1, LiarPolicy::CoverFor { accomplices: vec![NodeId(4)] })
        .mobility(walkers(2.0, 8.0))
        .mobility_tick(SimDuration::from_millis(250))
        .duration(SimDuration::from_secs(180))
        .run();
    assert!(
        report.detected(NodeId(4)),
        "liar under churn defeated detection; verdicts: {:?}",
        report.verdicts
    );
}

#[test]
fn churn_slows_but_does_not_stop_detection() {
    // Rounds-to-conviction characterization: the same scenario stationary
    // vs slow vs brisk walkers. Churn may add investigation rounds (links
    // genuinely flap, witnesses move out of reach), but conviction must
    // still land within the horizon at every speed.
    let latency = |speed: Option<(f64, f64)>| {
        let mut b = ScenarioBuilder::new(320, 9)
            .topology(Topology::Grid { cols: 3, spacing: 100.0 })
            .arena_size(320.0, 320.0)
            .radio(RadioConfig::unit_disk(170.0))
            .detector(mobile_detector())
            .attacker(4, spoof_phantom(55))
            .duration(SimDuration::from_secs(240));
        if let Some((lo, hi)) = speed {
            b = b.mobility(walkers(lo, hi)).mobility_tick(SimDuration::from_millis(250));
        }
        let report = b.run();
        assert!(report.detected(NodeId(4)), "speed {speed:?}: no conviction");
        report.first_detection(NodeId(4)).expect("detected")
    };
    let stationary = latency(None);
    let slow = latency(Some((1.0, 4.0)));
    let brisk = latency(Some((4.0, 12.0)));
    // All three must convict inside the horizon (asserted above); report
    // the characterization so the numbers land in test output.
    println!("rounds-to-conviction: stationary {stationary}, slow {slow}, brisk {brisk}");
}

#[test]
fn benign_slow_churn_false_positives_stay_rare() {
    // Gentle pedestrian churn — links occasionally flapping, MPR sets
    // rotating slowly. Even here the stationary-tuned detector is not
    // perfectly clean: a link can genuinely dissolve while its last
    // advertisement is still circulating, and every witness then
    // truthfully denies it (seed 332 produces exactly one such wrongful
    // conviction; seed 331 none). Pin the rate at ≤ 1 per 120 s run so
    // mobility-handling changes surface here.
    for (seed, max_fp) in [(331u64, 0usize), (332, 1)] {
        let report = ScenarioBuilder::new(seed, 9)
            .topology(Topology::Grid { cols: 3, spacing: 100.0 })
            .arena_size(320.0, 320.0)
            .radio(RadioConfig::unit_disk(170.0))
            .detector(mobile_detector())
            .mobility(walkers(0.5, 2.0))
            .mobility_tick(SimDuration::from_millis(250))
            .duration(SimDuration::from_secs(120))
            .run();
        let fps = report.false_positives().len();
        assert!(
            fps <= max_fp,
            "seed {seed}: honest slow churn convicted {fps} nodes (expected ≤ {max_fp}): {:?}",
            report.false_positives()
        );
    }
}

/// The brisk all-honest scenario behind the stability-weighting work: nine
/// honest walkers at 2–8 m/s for 120 s, nobody spoofing anything.
fn brisk_honest_scenario() -> ScenarioReport {
    ScenarioBuilder::new(331, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .arena_size(320.0, 320.0)
        .radio(RadioConfig::unit_disk(170.0))
        .detector(mobile_detector())
        .mobility(walkers(2.0, 8.0))
        .mobility_tick(SimDuration::from_millis(250))
        .duration(SimDuration::from_secs(120))
        .run()
}

#[test]
fn benign_brisk_churn_is_bounded_with_stability_weighting() {
    // At brisk speeds the paper's stationary-tuned scheme wrongly convicts
    // honest nodes: a true link dissolves while its advertisement is still
    // in flight, every witness truthfully denies it, and rule (10) fires.
    // Stability weighting exists to close exactly this hole — the evidence
    // of those denials rides over links that just flapped, so it is diluted
    // below the conviction threshold. Hard bound, not characterization.
    let report = brisk_honest_scenario();
    let fps = report.false_positives().len();
    println!(
        "brisk-churn false convictions with stability weighting (9 honest walkers, 120 s): {fps}"
    );
    assert!(
        fps <= 1,
        "stability weighting failed to bound brisk churn ({fps} false positives): {:?}",
        report.false_positives()
    );
}

#[test]
fn stability_weighting_does_not_blind_detection_under_churn() {
    // The flip side of the brisk-churn bound: diluting flap-tainted
    // evidence must not let a *real* spoofer hide behind mobility. Same
    // walker profile as `walking_spoofer_is_convicted`.
    for seed in [301, 302] {
        let report = ScenarioBuilder::new(seed, 9)
            .topology(Topology::Grid { cols: 3, spacing: 100.0 })
            .arena_size(320.0, 320.0)
            .radio(RadioConfig::unit_disk(170.0))
            .detector(mobile_detector())
            .attacker(4, spoof_phantom(55))
            .mobility(walkers(2.0, 8.0))
            .mobility_tick(SimDuration::from_millis(250))
            .duration(SimDuration::from_secs(150))
            .run();
        assert!(
            report.detected(NodeId(4)),
            "seed {seed}: stability weighting blinded detection; verdicts: {:?}",
            report.verdicts
        );
    }
}
