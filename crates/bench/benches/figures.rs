//! Criterion benches: one group per paper figure, timing the full
//! regeneration of each experiment (indexed in the README's "Reproducing
//! the paper's figures").

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use trustlink_core::prelude::*;

fn paper_config() -> RoundConfig {
    RoundConfig::default()
}

fn bench_fig1(c: &mut Criterion) {
    c.bench_function("fig1_trustworthiness_25_rounds", |b| {
        b.iter(|| black_box(fig1_trustworthiness(black_box(paper_config()), 25)))
    });
}

fn bench_fig2(c: &mut Criterion) {
    c.bench_function("fig2_forgetting_40_rounds", |b| {
        b.iter(|| black_box(fig2_forgetting(black_box(paper_config()), 40)))
    });
}

fn bench_fig3(c: &mut Criterion) {
    c.bench_function("fig3_liar_impact_3_fractions", |b| {
        b.iter(|| black_box(fig3_liar_impact(black_box(paper_config()), &paper_liar_counts(), 25)))
    });
}

fn bench_confidence(c: &mut Criterion) {
    c.bench_function("confidence_sweep_3_levels_40n", |b| {
        b.iter(|| black_box(confidence_sweep(&[0.90, 0.95, 0.99], 40)))
    });
}

fn bench_ablations(c: &mut Criterion) {
    c.bench_function("ablation_suite_25_rounds", |b| {
        b.iter(|| black_box(ablations(black_box(paper_config()), 25)))
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(20);
    targets = bench_fig1, bench_fig2, bench_fig3, bench_confidence, bench_ablations
}
criterion_main!(figures);
