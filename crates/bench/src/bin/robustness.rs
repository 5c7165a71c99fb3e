//! The churn×loss×burstiness fault-injection harness: how the full
//! detection stack degrades as the environment turns hostile, recorded as
//! `BENCH_robustness.json` at the repository root.
//!
//! The sweep crosses three axes:
//!
//! * **churn** — stationary, slow pedestrians (0.5–2 m/s) and brisk
//!   walkers (2–8 m/s) under random-waypoint mobility;
//! * **loss** — uniform per-frame loss of 0%, 5% and 10%;
//! * **burstiness** — the uniform channel vs a per-link Gilbert–Elliott
//!   fading overlay (correlated loss bursts, deterministically seeded per
//!   link).
//!
//! Every cell runs the 9-node phantom-link scenario over several seeds
//! with the stability-weighted detector (the mobility-robust
//! configuration) and reports **detection rate**, **mean detection
//! latency**, **conviction accuracy** (convictions naming the attacker /
//! all convictions) and the **false-positive count** of a matching
//! all-honest run — the four numbers that tell you whether the detector
//! still works, how fast, and at what collateral cost.
//!
//! Usage:
//!   `cargo run --release -p trustlink-bench --bin robustness`             — full sweep, writes BENCH_robustness.json
//!   `cargo run --release -p trustlink-bench --bin robustness -- --smoke`  — reduced grid, stdout only (CI)
//!   `... -- --out <path>`                                                 — alternative output path

use trustlink_attacks::prelude::*;
use trustlink_core::prelude::*;
use trustlink_core::DetectorConfig;
use trustlink_ids::investigation::InvestigationConfig;
use trustlink_sim::{ChannelModel, FadingConfig};

/// One churn level of the sweep.
#[derive(Clone, Copy)]
struct Churn {
    name: &'static str,
    speed: Option<(f64, f64)>,
}

/// One burstiness level: `None` is the uniform channel, `Some` overlays
/// per-link Gilbert–Elliott fading on top of the uniform loss.
#[derive(Clone, Copy)]
struct Burst {
    name: &'static str,
    fading: Option<FadingConfig>,
}

/// One measured cell of the sweep.
struct Cell {
    churn: &'static str,
    loss: f64,
    burst: &'static str,
    seeds: usize,
    detected: usize,
    mean_latency_secs: Option<f64>,
    true_convictions: usize,
    false_convictions: usize,
    honest_false_positives: usize,
}

/// The mobility-tuned detector this harness characterizes: half-second
/// analysis passes, a 3 s investigation timeout and a 10 s warmup, with
/// the detector's stability-weighted evidence.
fn robust_detector() -> DetectorConfig {
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

fn build(seed: u64, churn: Churn, loss: f64, burst: Burst, secs: u64) -> ScenarioBuilder {
    let mut radio = RadioConfig::unit_disk(170.0);
    if loss > 0.0 {
        radio = radio.with_loss(loss);
    }
    let mut b = ScenarioBuilder::new(seed, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .arena_size(320.0, 320.0)
        .radio(radio)
        .detector(robust_detector())
        .duration(SimDuration::from_secs(secs));
    if let Some((lo, hi)) = churn.speed {
        b = b
            .mobility(MobilityModel::RandomWaypoint {
                speed_min: lo,
                speed_max: hi,
                pause: SimDuration::from_secs(2),
            })
            .mobility_tick(SimDuration::from_millis(250));
    }
    if let Some(f) = burst.fading {
        b = b.channel(ChannelModel::new().with_fading(f));
    }
    b
}

fn measure(churn: Churn, loss: f64, burst: Burst, seeds: &[u64], secs: u64) -> Cell {
    let attacker = NodeId(4);
    let mut detected = 0;
    let mut latency_sum = 0.0;
    let mut true_convictions = 0;
    let mut false_convictions = 0;
    for &seed in seeds {
        let report = build(seed, churn, loss, burst, secs)
            .attacker(
                4,
                LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent {
                    fake: vec![NodeId(55)],
                }),
            )
            .run();
        if let Some(at) = report.first_detection(attacker) {
            detected += 1;
            latency_sum += at.as_secs_f64();
        }
        for (_, v) in &report.verdicts {
            if v.verdict == Verdict::Intruder {
                if v.suspect == attacker {
                    true_convictions += 1;
                } else {
                    false_convictions += 1;
                }
            }
        }
    }
    // One matching all-honest run prices the false-positive cost of the
    // cell without an attacker to blame.
    let honest = build(seeds[0] ^ 0xbeef, churn, loss, burst, secs).run();
    Cell {
        churn: churn.name,
        loss,
        burst: burst.name,
        seeds: seeds.len(),
        detected,
        mean_latency_secs: (detected > 0).then(|| latency_sum / detected as f64),
        true_convictions,
        false_convictions,
        honest_false_positives: honest.false_positives().len(),
    }
}

fn render_json(cells: &[Cell], seeds: &[u64], secs: u64) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(
        "  \"benchmark\": \"detection robustness under churn x loss x burstiness fault injection\",\n",
    );
    s.push_str("  \"command\": \"cargo run --release -p trustlink-bench --bin robustness\",\n");
    s.push_str(&format!(
        "  \"config\": {{ \"nodes\": 9, \"radio_range_m\": 170.0, \"sim_secs\": {secs}, \"seeds\": {}, \"detector\": \"trust x stability evidence, 500ms analysis, 10s warmup\", \"fading\": \"gilbert-elliott p_enter=0.02 p_exit=0.2 loss_bad=0.9\" }},\n",
        seeds.len()
    ));
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        let latency = match c.mean_latency_secs {
            Some(l) => format!("{l:.1}"),
            None => "null".to_string(),
        };
        let accuracy = match c.true_convictions + c.false_convictions {
            0 => "null".to_string(),
            total => format!("{:.3}", c.true_convictions as f64 / total as f64),
        };
        s.push_str(&format!(
            "    {{ \"churn\": \"{churn}\", \"loss\": {loss:.2}, \"burstiness\": \"{burst}\", \"detection_rate\": {rate:.2}, \"mean_detection_latency_secs\": {latency}, \"conviction_accuracy\": {accuracy}, \"true_convictions\": {tc}, \"false_convictions\": {fc}, \"honest_run_false_positives\": {hfp} }}{sep}\n",
            churn = c.churn,
            loss = c.loss,
            burst = c.burst,
            rate = c.detected as f64 / c.seeds as f64,
            tc = c.true_convictions,
            fc = c.false_convictions,
            hfp = c.honest_false_positives,
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| format!("{}/../../BENCH_robustness.json", env!("CARGO_MANIFEST_DIR")));

    let stationary = Churn { name: "stationary", speed: None };
    let slow = Churn { name: "slow", speed: Some((0.5, 2.0)) };
    let brisk = Churn { name: "brisk", speed: Some((2.0, 8.0)) };
    let uniform = Burst { name: "uniform", fading: None };
    let bursty = Burst { name: "bursty", fading: Some(FadingConfig::bursty(0.02, 0.2, 0.9)) };

    // The smoke slice keeps the corners that guard the headline claims:
    // the clean baseline, the lossy-bursty stationary cell and the brisk
    // mobile cell.
    let (churns, losses, bursts, seeds, secs): (&[Churn], &[f64], &[Burst], &[u64], u64) = if smoke
    {
        (&[stationary, brisk], &[0.0, 0.05], &[uniform, bursty], &[401], 120)
    } else {
        (&[stationary, slow, brisk], &[0.0, 0.05, 0.10], &[uniform, bursty], &[401, 402, 403], 150)
    };

    let mut cells = Vec::new();
    for &churn in churns {
        for &loss in losses {
            for &burst in bursts {
                let cell = measure(churn, loss, burst, seeds, secs);
                eprintln!(
                    "{:>10} loss={:.2} {:>7}: detect {}/{} latency {} acc {}/{} honest-fp {}",
                    cell.churn,
                    cell.loss,
                    cell.burst,
                    cell.detected,
                    cell.seeds,
                    cell.mean_latency_secs.map_or("-".into(), |l| format!("{l:.1}s")),
                    cell.true_convictions,
                    cell.true_convictions + cell.false_convictions,
                    cell.honest_false_positives,
                );
                cells.push(cell);
            }
        }
    }

    let json = render_json(&cells, seeds, secs);
    if smoke {
        println!("{json}");
        eprintln!("smoke mode: not writing {out_path}");
    } else {
        std::fs::write(&out_path, &json).expect("write BENCH_robustness.json");
        eprintln!("wrote {out_path}");
    }

    // Guard the robustness claims in every mode.
    let baseline = cells
        .iter()
        .find(|c| c.churn == "stationary" && c.loss == 0.0 && c.burst == "uniform")
        .expect("baseline cell");
    assert_eq!(
        baseline.detected, baseline.seeds,
        "the clean stationary cell must detect the spoofer on every seed"
    );
    assert_eq!(
        baseline.false_convictions + baseline.honest_false_positives,
        0,
        "the clean stationary cell must convict nobody but the attacker"
    );
    // Stability weighting keeps honest runs clean up to pedestrian churn;
    // brisk churn leaves a residual false-positive tail (the acceptance
    // scenario pins ≤1 on its own seed; across arbitrary bench seeds the
    // honest-run count stays below half the network but is noisy).
    for c in &cells {
        let bound = if c.churn == "brisk" { 4 } else { 0 };
        assert!(
            c.honest_false_positives <= bound,
            "{} loss={:.2} {}: honest run convicted {} nodes (> {bound})",
            c.churn,
            c.loss,
            c.burst,
            c.honest_false_positives
        );
    }
    let detected_cells = cells.iter().filter(|c| c.detected == c.seeds).count();
    assert!(
        detected_cells * 2 >= cells.len(),
        "the spoofer escaped in over half the sweep ({detected_cells}/{} full-detection cells)",
        cells.len()
    );
}
