//! Regenerates **Figure 3 — Impact of liars on the detection**: the
//! trust-weighted investigation result `Detect(A, I)` per round, one curve
//! per liar fraction (≈14 %, ≈29 % and ≈43 % of the witnesses — the paper
//! quotes 26.3 % and 43.2 %), with mean ± min/max bands over several seeds.
//!
//! Usage: `cargo run -p trustlink-bench --bin fig3 [-- --csv] [-- --single]`
//! (`--single` reproduces the historical one-seed figure.)

use trustlink_bench::{assert_fig3_shape, emit, paper_config};
use trustlink_core::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--single") {
        let fig = fig3_liar_impact(paper_config(), &paper_liar_counts(), 25);
        emit(&fig, &args);
        assert_fig3_shape(&fig);
        return;
    }
    let seeds: Vec<u64> = (1..=7).collect();
    let fig = fig3_liar_impact_banded(paper_config(), &paper_liar_counts(), 25, &seeds);
    emit(&fig, &args);

    eprintln!("round-10 and final Detect per liar fraction (mean [min, max] over 7 seeds):");
    for triple in fig.series.chunks(3) {
        let (mean, min, max) = (&triple[0], &triple[1], &triple[2]);
        eprintln!(
            "  {:>20}: round 10 = {:+.3} [{:+.3}, {:+.3}], round 25 = {:+.3} [{:+.3}, {:+.3}]",
            mean.label,
            mean.y_at_round(10).unwrap(),
            min.y_at_round(10).unwrap(),
            max.y_at_round(10).unwrap(),
            mean.last_y().unwrap(),
            min.last_y().unwrap(),
            max.last_y().unwrap(),
        );
    }
    eprintln!("paper claims: < -0.4 by round 10 at every fraction; ≈ -0.8 at round 25");
    // The paper's shape must hold for every band — including the max
    // (worst-seed) series, which is the strongest form of the claim.
    assert_fig3_shape(&fig);
}
