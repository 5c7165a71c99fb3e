//! Packet-level scenario benches: the cost of simulating whole networks —
//! plain OLSR convergence, and the full detection stack under attack.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;
use trustlink_attacks::prelude::*;
use trustlink_core::prelude::*;
use trustlink_core::DetectorConfig;
use trustlink_ids::investigation::InvestigationConfig;
use trustlink_olsr::{OlsrConfig, OlsrNode};
use trustlink_sim::topologies;

fn bench_olsr_convergence(c: &mut Criterion) {
    c.bench_function("olsr_grid9_converge_15s", |b| {
        b.iter(|| {
            let mut sim = SimulatorBuilder::new(1)
                .arena(Arena::new(100_000.0, 100_000.0))
                .radio(RadioConfig::unit_disk(150.0))
                .build();
            for p in trustlink_sim::topologies::grid(9, 3, 100.0) {
                sim.add_node(Box::new(OlsrNode::new(OlsrConfig::fast())), p);
            }
            sim.run_for(SimDuration::from_secs(15));
            black_box(sim.stats().total_sent())
        })
    });
}

fn bench_detection_scenario(c: &mut Criterion) {
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
    c.bench_function("detection_grid9_spoofer_60s", |b| {
        b.iter(|| {
            let report = ScenarioBuilder::new(11, 9)
                .topology(Topology::Grid { cols: 3, spacing: 100.0 })
                .detector(detector.clone())
                .attacker(
                    4,
                    LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent {
                        fake: vec![NodeId(55)],
                    }),
                )
                .duration(SimDuration::from_secs(60))
                .run();
            black_box(report.total_sent())
        })
    });
}

/// Large-network OLSR convergence: random
/// geometric placements at mean degree 10, HELLO-driven neighborhood
/// convergence (TCs mostly silenced — full TC flooding is O(n²) messages
/// by design and would measure the protocol, not the simulator).
fn bench_olsr_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("olsr_scale");
    group.sample_size(2);
    for n in [256usize, 1024, 4096] {
        let range = 150.0;
        let arena = topologies::arena_for_mean_degree(n, range, 10.0);
        let mut rng = StdRng::seed_from_u64(7);
        let positions = topologies::random_geometric(n, &arena, &mut rng);
        let cfg = OlsrConfig {
            // TC timers start at a random offset inside the interval, so
            // the interval must dwarf the measured window to keep the
            // O(n²) flood out of it.
            tc_interval: SimDuration::from_secs(600),
            refresh_interval: SimDuration::from_secs(1),
            ..OlsrConfig::fast()
        };
        group.bench_function(format!("{n}_nodes_converge_2s"), |b| {
            b.iter(|| {
                let mut sim = SimulatorBuilder::new(7)
                    .arena(arena)
                    .radio(RadioConfig::unit_disk(range))
                    .build();
                for &p in &positions {
                    sim.add_node(Box::new(OlsrNode::new(cfg.clone())), p);
                }
                sim.run_for(SimDuration::from_secs(2));
                black_box(sim.stats().total_sent())
            })
        });
    }
    group.finish();
}

fn bench_round_engine_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_engine_scaling");
    for n in [16usize, 32, 64] {
        group.bench_function(format!("{n}_nodes_25_rounds"), |b| {
            b.iter(|| {
                let cfg = RoundConfig { n_nodes: n, n_liars: n / 4, ..RoundConfig::default() };
                black_box(RoundEngine::new(cfg).run(25))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = scenario;
    config = Criterion::default().sample_size(10);
    targets = bench_olsr_convergence, bench_detection_scenario, bench_olsr_scale,
              bench_round_engine_scaling
}
criterion_main!(scenario);
