//! Deterministic-replay regression suite.
//!
//! Design goal #1 of `trustlink-sim` (see `crates/sim/src/lib.rs`): a
//! simulation is a *pure function of its seed and configuration*. These
//! tests pin that down end-to-end — two runs with the same seed must
//! produce identical typed event streams (the primary diff, record by
//! record) and byte-identical rendered logs plus traffic statistics (the
//! string secondary), and a different seed must actually change the run.
//!
//! The suite also pins the `render_lines()` adapter itself: FNV-1a digests
//! of the rendered fingerprints were captured *before* the log buffers
//! became typed, so byte-for-byte compatibility with the historical text
//! logs is a hard assertion, not a convention. And it pins what the
//! detectors extract from those logs: a digest of every node's
//! `DetectionEvent` stream, which no change to the log's form may move.

use trustlink_attacks::prelude::*;
use trustlink_core::prelude::*;
use trustlink_core::replay::extracted_events_of;
use trustlink_tests::{assert_recordings_identical, fnv1a, text_fingerprint};

/// A full packet-level scenario — OLSR + detectors + one attacker + one
/// liar — exercising the radio (loss, jitter), timers and every RNG
/// consumer in the stack. Flight recording keeps every node's whole audit
/// log for the post-hoc reads below (and the extracted events); it changes
/// nothing in the run.
fn spoofing_scenario(seed: u64) -> ScenarioReport {
    spoofing_builder(seed).run()
}

fn spoofing_builder(seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::new(seed, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .radio(RadioConfig::unit_disk(170.0).with_loss(0.05))
        .attacker(
            8,
            LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent { fake: vec![NodeId(99)] }),
        )
        .liar(5, LiarPolicy::CoverFor { accomplices: vec![NodeId(8)] })
        .detector(DetectorConfig { flight_recording: true, ..DetectorConfig::default() })
        .duration(SimDuration::from_secs(60))
}

#[test]
fn same_seed_same_event_log_and_stats() {
    let a = spoofing_scenario(7);
    let b = spoofing_scenario(7);
    // Primary: the typed event streams are identical record by record.
    assert_recordings_identical(
        "same-seed replay",
        &a.sim.flight_recorder(),
        &b.sim.flight_recorder(),
    );
    // Secondary: the rendered text logs are byte-identical too.
    let fa = text_fingerprint(&a.sim);
    let fb = text_fingerprint(&b.sim);
    assert!(!fa.is_empty());
    assert_eq!(fa, fb, "same seed must replay byte-identically");
    assert_eq!(a.verdicts, b.verdicts, "verdict streams must replay identically");
}

#[test]
fn different_seed_different_run() {
    let a = spoofing_scenario(7);
    let b = spoofing_scenario(8);
    assert_ne!(
        a.sim.flight_recorder(),
        b.sim.flight_recorder(),
        "changing the seed should change the typed event stream"
    );
    assert_ne!(
        text_fingerprint(&a.sim),
        text_fingerprint(&b.sim),
        "changing the seed should change radio losses, jitter and timing"
    );
}

#[test]
fn render_lines_matches_pre_typed_golden_digests() {
    // The original digests (0x228f_0fd4_3f1d_475c for seed 7,
    // 0x96a4_26c3_5134_7a1c for seed 8) were captured from these exact
    // scenarios while the log buffers still stored formatted strings.
    // Suppressed flood copies then moved from log lines to `FloodStats`
    // counters (digests 0xf5d1_8f47_362e_42b1 and 0xf165_ac55_8908_ffaf),
    // and later every record kind the IDS does not read left the log. Each
    // step re-derived the digests on the last commit that still logged the
    // removed lines, by rendering the same scenarios with those lines
    // dropped (the unfiltered renders of that commit still matched the
    // previous digests). Then repeated `HELLO_RX`/`TC_RX` records gave way
    // to `TC_HEARD` clocks (0x6bbb_8157_a809_e27e and 0x6367_110b_8ff0_bed9
    // before): every other line stayed byte-identical, and the kept
    // receptions are an in-order subset of the old ones (see
    // `golden_digests.rs`). Last, stability-weighted evidence became the
    // detector's only recipe. Seed 7 kept its digest; under seed 8 the 5 %
    // loss flaps links the weighting reads, and its rendered log and
    // traffic moved (0x8b8e_bafd_badd_3cc7 before) while its
    // detection-event stream did not. The new digest was re-derived on the
    // last commit that had the weighting switch, run with the switch on.
    // `render_lines()` must reproduce every line byte for byte.
    for (seed, golden) in [(7u64, 0x95a0_3d01_fb80_3a9a_u64), (8, 0x4a48_71cf_480f_12a0)] {
        let report = spoofing_scenario(seed);
        assert_eq!(
            fnv1a(&text_fingerprint(&report.sim)),
            golden,
            "rendered log digest for seed {seed} no longer matches the pre-typed capture"
        );
    }
}

#[test]
fn detection_event_streams_match_golden_digests() {
    // Derived before the log dropped the record kinds the IDS does not
    // read, and unchanged by that: what the detectors extract from the
    // log must not depend on what else the log holds.
    for (seed, golden, count) in
        [(7u64, 0x56da_a699_ad50_ed6e_u64, 431), (8, 0x9da8_35c7_d179_3207, 447)]
    {
        let report = spoofing_scenario(seed);
        let mut stream = String::new();
        let mut events = 0;
        for id in report.sim.node_ids().collect::<Vec<_>>() {
            for event in extracted_events_of(&report.sim, id) {
                stream.push_str(&format!("{id} {event:?}\n"));
                events += 1;
            }
        }
        assert_eq!(
            (fnv1a(stream.as_bytes()), events),
            (golden, count),
            "detection-event stream (digest, count) moved for seed {seed}"
        );
    }
}

#[test]
fn round_engine_replays_identically() {
    let run = |seed| RoundEngine::new(RoundConfig { seed, ..RoundConfig::default() }).run(25);
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "the abstract round engine must be a pure function of its seed");
    assert_ne!(run(42).detect, run(43).detect);
}

/// FNV-1a over every float of a round trace, bit for bit: each round's
/// `detect`, margin and verdict, then every witness's trust trajectory.
fn round_trace_digest(trace: &RoundTrace) -> u64 {
    let mut bytes = Vec::new();
    for ((d, m), v) in trace.detect.iter().zip(&trace.margins).zip(&trace.verdicts) {
        bytes.extend_from_slice(&d.to_bits().to_le_bytes());
        bytes.extend_from_slice(&m.to_bits().to_le_bytes());
        bytes.push(match v {
            Verdict::WellBehaving => 0,
            Verdict::Intruder => 1,
            Verdict::Unrecognized => 2,
        });
    }
    for w in &trace.witnesses {
        bytes.extend_from_slice(&w.initial_trust.to_bits().to_le_bytes());
        for t in &w.trust {
            bytes.extend_from_slice(&t.to_bits().to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

#[test]
fn round_engine_matches_golden_digests() {
    // The §V round model behind Figures 1–3, pinned bit for bit so that a
    // reordered float sum in formulas (5) or (8)–(10) cannot pass unseen.
    // The configurations cover the headline run, the unweighted ablation,
    // an attack window that closes mid-run (the evidence set is dropped
    // in peace) and a lossy answer channel. Derived before the round
    // engine and the packet detector shared one dispute core.
    let cases = [
        ("default", RoundConfig::default(), 0x19af_bdfc_d8d0_4ad1_u64),
        (
            "unweighted, 6 liars",
            RoundConfig { trust_weighting: false, n_liars: 6, ..RoundConfig::default() },
            0x56c4_8c83_edb6_9be7,
        ),
        (
            "attack ends at round 10",
            RoundConfig { attack_rounds: 0..10, ..RoundConfig::default() },
            0x9bb5_bcde_fe07_8be9,
        ),
        (
            "answer probability 0.5",
            RoundConfig { answer_probability: 0.5, ..RoundConfig::default() },
            0xc942_4168_fbb5_1ec5,
        ),
    ];
    for (name, cfg, golden) in cases {
        let digest = round_trace_digest(&RoundEngine::new(cfg).run(25));
        assert_eq!(digest, golden, "round trace digest moved for {name}");
    }
}

/// The layered benchmark's `hostile-id-64` recipe, shortened: 64 detectors
/// placed by the recipe's scenario seed 11 on a random-geometric arena
/// sized for mean degree 10 under a 150 m unit-disk radio, fisheye
/// flooding on `OlsrConfig::fast`, and node 32 spoofing a link to phantom
/// 999999. Returns the verdict stream's FNV-1a (the benchmark's
/// `verdict_digest`, same field order), the frames put on the air, the
/// audit-log record count and the verdict count.
fn benchmark_recipe(seed: u64, span: SimDuration) -> (u64, u64, u64, usize) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trustlink_ids::investigation::InvestigationConfig;
    use trustlink_sim::topologies;

    const NODES: usize = 64;
    const RANGE_M: f64 = 150.0;
    let mut rng = StdRng::seed_from_u64(11u64.wrapping_add(0x9E37));
    let arena = topologies::arena_for_mean_degree(NODES, RANGE_M, 10.0);
    let positions = topologies::random_geometric(NODES, &arena, &mut rng);
    let mut sim = SimulatorBuilder::new(seed)
        .radio(RadioConfig::unit_disk(RANGE_M))
        .arena(arena)
        .expected_nodes(NODES)
        .build();
    let olsr = || OlsrConfig::fast().with_flood_scope(FloodScope::Fisheye(FisheyeRings::default()));
    let detector = DetectorConfig {
        analysis_interval: SimDuration::from_millis(500),
        investigation: InvestigationConfig {
            timeout: SimDuration::from_secs(3),
            max_witnesses: 16,
        },
        warmup: SimDuration::from_secs(10),
        trust_slot_interval: SimDuration::from_secs(3),
        ..DetectorConfig::default()
    };
    for (i, pos) in positions.into_iter().enumerate() {
        let app: Box<dyn Application> = if i == NODES / 2 {
            let spoof = LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent {
                fake: vec![NodeId(999_999)],
            });
            Box::new(DetectorNode::with_hooks(olsr(), detector.clone(), spoof))
        } else {
            Box::new(DetectorNode::new(olsr(), detector.clone()))
        };
        sim.add_node(app, pos);
    }
    sim.run_for(span);

    let mut bytes = Vec::new();
    let mut verdicts = 0;
    for id in sim.node_ids().collect::<Vec<_>>() {
        let records = match sim.app_as::<DetectorNode>(id) {
            Some(d) => d.verdicts(),
            None => sim.app_as::<DetectorNode<LinkSpoofing>>(id).expect("a detector").verdicts(),
        };
        for v in records {
            let verdict = match v.verdict {
                Verdict::WellBehaving => 0u64,
                Verdict::Intruder => 1,
                Verdict::Unrecognized => 2,
            };
            for x in [
                u64::from(id.0),
                v.case,
                u64::from(v.suspect.0),
                verdict,
                v.detect.to_bits(),
                v.margin.to_bits(),
                v.witnesses as u64,
                v.answered as u64,
                v.at.as_micros(),
            ] {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
            verdicts += 1;
        }
    }
    let records = sim.node_ids().map(|id| sim.log(id).len() as u64).sum();
    (fnv1a(&bytes), sim.stats().total_sent(), records, verdicts)
}

#[test]
fn benchmark_recipe_matches_golden() {
    // Pins the per-frame path the layered benchmark times, so that a
    // change meant to be byte-identical there (inlining, a cheaper
    // lookup) is checked by `cargo test` and not only by the benchmark.
    // The full 30 s span at simulator seed 1 is exactly the benchmark's
    // `hostile-id-64 --seed 1` run, whose output reports the same verdict
    // digest, air frames and log records. Derived on the last commit
    // before the per-frame helpers were marked `#[inline]`.
    assert_eq!(
        benchmark_recipe(1, SimDuration::from_secs(30)),
        (0xfacd_de68_4c0b_7021, 47_349, 19_100, 1_087),
        "benchmark recipe (verdict digest, air frames, log records, verdicts) moved"
    );
}
