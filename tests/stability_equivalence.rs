//! Stability-weighted evidence suite.
//!
//! The detector scales every formula (8) evidence row by the *stability*
//! of the link it was sourced over, so evidence carried over young or
//! flapping links is diluted and mobility churn degrades detection
//! gracefully. On a **flap-free** network the weighting is a no-op: every
//! link matures past `mature_age_secs` before the warmup ends, every
//! stability weight is exactly `1.0`, and `w * (1.0 * e) == w * e`
//! bit-for-bit in IEEE arithmetic. These tests pin that contract — a
//! stationary loss-free run still hashes to the digests of the unweighted
//! recipe — plus the weaker guarantee that still holds once loss-induced
//! flaps appear: the *conviction set* of a stationary run does not change.
//!
//! The goldens of the first two tests were derived on the last commit that
//! could switch the weighting off, with it off; the same runs with it on
//! matched them.
//!
//! The suite also pins the full verdict stream — every `detect` and
//! `margin` bit — of lossy and mobile runs against golden digests, so a
//! refactor of formula (8) or (9) cannot move a single verdict unnoticed.

use trustlink_core::detector::VerdictRecord;
use trustlink_core::prelude::*;
use trustlink_core::DetectorConfig;
use trustlink_ids::investigation::InvestigationConfig;
use trustlink_tests::{fnv1a, text_fingerprint};

/// A stationary 3×3 mesh with a phantom-link spoofer and no frame loss:
/// links come up once, never flap, and stay up for the whole run. Flight
/// recording keeps the detectors' whole logs for the digests.
fn flap_free_scenario(seed: u64) -> ScenarioReport {
    ScenarioBuilder::new(seed, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .radio(RadioConfig::unit_disk(170.0))
        .detector(DetectorConfig { flight_recording: true, ..DetectorConfig::default() })
        .attacker(
            8,
            LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent { fake: vec![NodeId(99)] }),
        )
        .duration(SimDuration::from_secs(60))
        .run()
}

#[test]
fn flap_free_run_is_byte_identical_with_weighting_on() {
    // (seed, flight-recorder rlog digest, rendered text digest)
    for (seed, rlog, text) in [
        (7, 0x5332_1923_5f56_2c4b, 0xc16c_728c_54a0_c2f3),
        (21, 0x2581_5247_9a22_f70b, 0xa234_bceb_87e3_9879),
    ] {
        let report = flap_free_scenario(seed);
        assert_eq!(
            fnv1a(report.sim.flight_recorder().to_rlog().as_bytes()),
            rlog,
            "seed {seed}: stability weighting perturbed a flap-free recording"
        );
        assert_eq!(
            fnv1a(&text_fingerprint(&report.sim)),
            text,
            "seed {seed}: stability weighting perturbed a flap-free run"
        );
    }
}

/// The lossy-stationary variant of the same mesh: 5% frame loss produces
/// occasional HELLO droughts, so links *do* flap and the runs are no longer
/// byte-identical to the unweighted recipe. The weighting may dilute
/// individual detect values, but the set of `(observer, suspect)`
/// convictions is the unweighted one — the spoofer is advertised
/// persistently and denied via the never-seen path, which stability
/// weighting leaves untouched.
#[test]
fn lossy_stationary_conviction_sets_are_exact() {
    let expected = [(NodeId(4), NodeId(8)), (NodeId(5), NodeId(8)), (NodeId(7), NodeId(8))];
    for seed in [7, 8, 42] {
        let report = ScenarioBuilder::new(seed, 9)
            .topology(Topology::Grid { cols: 3, spacing: 100.0 })
            .radio(RadioConfig::unit_disk(170.0).with_loss(0.05))
            .attacker(
                8,
                LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent {
                    fake: vec![NodeId(99)],
                }),
            )
            .duration(SimDuration::from_secs(60))
            .run();
        let mut convictions: Vec<(NodeId, NodeId)> = report
            .verdicts
            .iter()
            .filter(|(_, v)| v.verdict == Verdict::Intruder)
            .map(|(observer, v)| (*observer, v.suspect))
            .collect();
        convictions.sort_unstable();
        convictions.dedup();
        assert_eq!(
            convictions, expected,
            "seed {seed}: stability weighting changed a stationary conviction set"
        );
    }
}

/// FNV-1a over every verdict's `(observer, case, suspect, verdict,
/// detect bits, margin bits, witnesses, answered, at)`, in report order.
fn verdict_stream_digest(verdicts: &[(NodeId, VerdictRecord)]) -> u64 {
    let mut bytes = Vec::new();
    for (observer, v) in verdicts {
        let kind: u8 = match v.verdict {
            Verdict::WellBehaving => 0,
            Verdict::Intruder => 1,
            Verdict::Unrecognized => 2,
        };
        bytes.extend_from_slice(&observer.0.to_le_bytes());
        bytes.extend_from_slice(&v.case.to_le_bytes());
        bytes.extend_from_slice(&v.suspect.0.to_le_bytes());
        bytes.push(kind);
        bytes.extend_from_slice(&v.detect.to_bits().to_le_bytes());
        bytes.extend_from_slice(&v.margin.to_bits().to_le_bytes());
        bytes.extend_from_slice(&(v.witnesses as u64).to_le_bytes());
        bytes.extend_from_slice(&(v.answered as u64).to_le_bytes());
        bytes.extend_from_slice(&v.at.as_micros().to_le_bytes());
    }
    fnv1a(&bytes)
}

fn assert_verdict_stream(label: &str, seed: u64, report: &ScenarioReport, golden: (u64, usize)) {
    let got = (verdict_stream_digest(&report.verdicts), report.verdicts.len());
    assert_eq!(got, golden, "{label}: verdict stream (digest, count) moved for seed {seed}");
}

/// The detector settings of the mobile e2e suite: quick analysis, a
/// short investigation timeout and a 10 s warmup.
fn brisk_detector() -> DetectorConfig {
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

/// A lossy stationary 3×3 mesh: node 8 spoofs a phantom link, node 5
/// lies for it.
fn lossy_liar_scenario(seed: u64) -> ScenarioReport {
    ScenarioBuilder::new(seed, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .radio(RadioConfig::unit_disk(170.0).with_loss(0.05))
        .attacker(
            8,
            LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent { fake: vec![NodeId(99)] }),
        )
        .liar(5, LiarPolicy::CoverFor { accomplices: vec![NodeId(8)] })
        .duration(SimDuration::from_secs(60))
        .run()
}

/// A 3×3 mesh of random-waypoint walkers: the center node spoofs a
/// phantom link while links come and go.
fn mobile_scenario(seed: u64) -> ScenarioReport {
    ScenarioBuilder::new(seed, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .arena_size(320.0, 320.0)
        .radio(RadioConfig::unit_disk(170.0))
        .detector(brisk_detector())
        .attacker(
            4,
            LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent { fake: vec![NodeId(55)] }),
        )
        .mobility(MobilityModel::RandomWaypoint {
            speed_min: 2.0,
            speed_max: 8.0,
            pause: SimDuration::from_secs(2),
        })
        .mobility_tick(SimDuration::from_millis(250))
        .duration(SimDuration::from_secs(90))
        .run()
}

// The goldens below were derived on the commit before the aggregation
// functions were folded into one row form, and must not move.

#[test]
fn trust_weighted_lossy_verdict_stream_is_pinned() {
    for (seed, golden) in [(7, (0x8330_de2e_7454_afda, 44)), (19, (0xabc3_ce79_deca_be5a, 55))] {
        let report = lossy_liar_scenario(seed);
        assert_verdict_stream("trust-weighted lossy", seed, &report, golden);
    }
}

#[test]
fn stability_diluted_mobile_verdict_stream_is_pinned() {
    for (seed, golden) in [(301, (0xf406_00f7_2167_d19f, 127)), (302, (0x66b2_7cc8_8801_95cf, 164))]
    {
        let report = mobile_scenario(seed);
        assert_verdict_stream("stability-weighted mobile", seed, &report, golden);
    }
}
