//! Stability-weighting equivalence suite.
//!
//! `DetectorConfig::stability_weighting` dilutes evidence carried over
//! young or flapping links so mobility churn degrades detection gracefully.
//! On a **flap-free** network the weighting must be a no-op: every link
//! matures past `mature_age_secs` before the warmup ends, every stability
//! weight is exactly `1.0`, and `w * (1.0 * e) == w * e` bit-for-bit in
//! IEEE arithmetic. These tests pin that contract — a stationary loss-free
//! run is **byte-identical** with the weighting on and off — plus the
//! weaker guarantee that still holds once loss-induced flaps appear: the
//! *conviction set* of a stationary run does not change.
//!
//! The suite also pins the full verdict stream — every `detect` and
//! `margin` bit — of the trust-weighted, stability-weighted and unweighted
//! aggregation paths against golden digests, so a refactor of formula (8)
//! or (9) cannot move a single verdict unnoticed.

use trustlink_core::detector::VerdictRecord;
use trustlink_core::prelude::*;
use trustlink_core::DetectorConfig;
use trustlink_ids::investigation::InvestigationConfig;
use trustlink_tests::{assert_recordings_identical, fnv1a, text_fingerprint};

fn weighted(on: bool) -> DetectorConfig {
    DetectorConfig { stability_weighting: on, ..DetectorConfig::default() }
}

/// A stationary 3×3 mesh with a phantom-link spoofer and no frame loss:
/// links come up once, never flap, and stay up for the whole run.
fn flap_free_scenario(seed: u64, on: bool) -> ScenarioReport {
    ScenarioBuilder::new(seed, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .radio(RadioConfig::unit_disk(170.0))
        .detector(weighted(on))
        .attacker(
            8,
            LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent { fake: vec![NodeId(99)] }),
        )
        .duration(SimDuration::from_secs(60))
        .run()
}

#[test]
fn flap_free_run_is_byte_identical_with_weighting_on() {
    for seed in [7, 21] {
        let on = flap_free_scenario(seed, true);
        let off = flap_free_scenario(seed, false);
        assert_recordings_identical(
            "flap-free stability weighting",
            &on.sim.flight_recorder(),
            &off.sim.flight_recorder(),
        );
        assert_eq!(
            text_fingerprint(&on.sim),
            text_fingerprint(&off.sim),
            "seed {seed}: stability weighting perturbed a flap-free run"
        );
    }
}

/// The lossy-stationary variant of the same mesh: 5% frame loss produces
/// occasional HELLO droughts, so links *do* flap and the runs are no longer
/// byte-identical. The weighting may dilute individual detect values, but
/// the set of `(observer, suspect)` convictions must not change — the
/// spoofer is advertised persistently and denied via the never-seen path,
/// which stability weighting leaves untouched.
#[test]
fn lossy_stationary_conviction_sets_are_exact() {
    for seed in [7, 8, 42] {
        let run = |on: bool| {
            ScenarioBuilder::new(seed, 9)
                .topology(Topology::Grid { cols: 3, spacing: 100.0 })
                .radio(RadioConfig::unit_disk(170.0).with_loss(0.05))
                .detector(weighted(on))
                .attacker(
                    8,
                    LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent {
                        fake: vec![NodeId(99)],
                    }),
                )
                .duration(SimDuration::from_secs(60))
                .run()
        };
        let convictions = |r: &ScenarioReport| {
            let mut set: Vec<(NodeId, NodeId)> = r
                .verdicts
                .iter()
                .filter(|(_, v)| v.verdict == Verdict::Intruder)
                .map(|(observer, v)| (*observer, v.suspect))
                .collect();
            set.sort_unstable();
            set.dedup();
            set
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(
            convictions(&on),
            convictions(&off),
            "seed {seed}: stability weighting changed a stationary conviction set"
        );
        assert!(
            off.detected(NodeId(8)),
            "seed {seed}: baseline failed to convict the spoofer at all"
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

/// The detector settings of the mobile and lossy e2e suites: quick
/// analysis, a short investigation timeout and a 10 s warmup.
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
fn lossy_liar_scenario(seed: u64, detector: DetectorConfig) -> ScenarioReport {
    ScenarioBuilder::new(seed, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .radio(RadioConfig::unit_disk(170.0).with_loss(0.05))
        .detector(detector)
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
fn mobile_scenario(seed: u64, detector: DetectorConfig) -> ScenarioReport {
    ScenarioBuilder::new(seed, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .arena_size(320.0, 320.0)
        .radio(RadioConfig::unit_disk(170.0))
        .detector(detector)
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
        let report = lossy_liar_scenario(seed, DetectorConfig::default());
        assert_verdict_stream("trust-weighted lossy", seed, &report, golden);
    }
}

#[test]
fn stability_diluted_mobile_verdict_stream_is_pinned() {
    for (seed, golden) in [(301, (0xf406_00f7_2167_d19f, 127)), (302, (0x66b2_7cc8_8801_95cf, 164))]
    {
        let detector = DetectorConfig { stability_weighting: true, ..brisk_detector() };
        let report = mobile_scenario(seed, detector);
        assert_verdict_stream("stability-weighted mobile", seed, &report, golden);
    }
}

#[test]
fn unweighted_verdict_stream_is_pinned() {
    for (seed, golden) in [(7, (0x6763_517c_0020_ad25, 131)), (19, (0xa723_3b6f_d732_63aa, 108))] {
        let detector = DetectorConfig { trust_weighting: false, ..brisk_detector() };
        let report = lossy_liar_scenario(seed, detector);
        assert_verdict_stream("unweighted lossy", seed, &report, golden);
    }
    // Without trust weighting, stability weighting must not reach the
    // aggregate: the mobile stream is pinned with it on.
    let detector =
        DetectorConfig { trust_weighting: false, stability_weighting: true, ..brisk_detector() };
    let report = mobile_scenario(301, detector);
    assert_verdict_stream("unweighted mobile", 301, &report, (0xa2bf_3201_bdb6_9bce, 15));
}
