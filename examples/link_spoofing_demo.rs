//! End-to-end packet-level demo: a 3×3 OLSR grid where the centre node
//! spoofs a link to a phantom neighbor (Expression (1) of the paper), two
//! of its neighbors lie to cover for it, and the remaining detectors
//! convict it anyway — using nothing but their own audit logs and the
//! cooperative investigation.
//!
//! Run with: `cargo run --example link_spoofing_demo`

use trustlink_core::prelude::*;
use trustlink_core::DetectorConfig;
use trustlink_ids::investigation::InvestigationConfig;

fn main() {
    let attacker = 4usize; // grid centre: the natural MPR
    let phantom = NodeId(99);

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

    println!("Topology: 3x3 grid, 100 m spacing, 150 m radio range");
    println!("Attacker: N{attacker} (centre), advertising phantom neighbor {phantom}");
    println!("Liars:    N1, N3 (cover for the attacker)\n");

    let report = ScenarioBuilder::new(2026, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .detector(detector)
        .attacker(
            attacker,
            LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent { fake: vec![phantom] }),
        )
        .liar(1, LiarPolicy::CoverFor { accomplices: vec![NodeId(attacker as u32)] })
        .liar(3, LiarPolicy::CoverFor { accomplices: vec![NodeId(attacker as u32)] })
        .duration(SimDuration::from_secs(120))
        .run();

    // Show what one honest detector saw in its own log.
    let observer = NodeId(0);
    println!("--- excerpts from {observer}'s audit log ---");
    let mut shown = 0;
    for line in report.sim.log(observer).lines() {
        let interesting = line.contains("N99") || line.starts_with("MPR_SET");
        if interesting && shown < 12 {
            println!("  {line}");
            shown += 1;
        }
    }

    println!("\n--- verdicts against the attacker ---");
    for (observer, record) in report.convictions_of(NodeId(attacker as u32)) {
        println!(
            "  {observer} condemned N{attacker}: Detect={:+.2} ± {:.2} after {} witnesses ({} answered) at {}",
            record.detect, record.margin, record.witnesses, record.answered, record.at
        );
    }

    let detected = report.detected(NodeId(attacker as u32));
    let fps = report.false_positives().len();
    println!("\nDetected: {detected}   False positives: {fps}");
    println!(
        "Traffic: {} frames, {} bytes over {}",
        report.total_sent(),
        report.total_bytes(),
        report.duration
    );
    assert!(detected, "the attacker should have been detected");
    assert_eq!(fps, 0, "no honest node should be condemned");
}
