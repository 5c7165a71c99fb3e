//! # trustlink-bench
//!
//! The benchmark harness of the `trustlink` reproduction. Two kinds of
//! targets live here:
//!
//! * **Figure binaries** (`cargo run -p trustlink-bench --bin fig1|fig2|
//!   fig3|sweep [-- --csv]`) — regenerate every figure of the paper's
//!   evaluation section as an ASCII chart and, with `--csv`, as CSV on
//!   stdout. See the README's "Reproducing the paper's figures" for the
//!   paper-vs-measured record.
//! * **Criterion benches** (`cargo bench -p trustlink-bench`) — timing of
//!   each experiment (`benches/figures.rs`), of the hot protocol and trust
//!   primitives (`benches/micro.rs`), and of full packet-level scenarios
//!   (`benches/scenario.rs`).
//!
//! This library crate holds the handful of helpers both share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use trustlink_core::prelude::*;

/// The paper's evaluation configuration (§V): 16 nodes, 1 attacker, 4
/// liars, random initial trust, mildly unreliable answers.
pub fn paper_config() -> RoundConfig {
    RoundConfig::default()
}

/// Render a figure to stdout — ASCII chart by default, CSV when the
/// `--csv` flag was passed to the binary.
pub fn emit(figure: &Figure, args: &[String]) {
    if args.iter().any(|a| a == "--csv") {
        print!("{}", trustlink_core::csv::to_csv(figure));
    } else {
        println!("{}", trustlink_core::chart::render(figure, 72, 20));
    }
}

/// Shape-checks shared by the figure binaries: panic loudly if a binary is
/// about to print something that contradicts the paper (used as a last
/// defence so regressions cannot slip out unnoticed through the harness).
pub fn assert_fig3_shape(figure: &Figure) {
    for s in &figure.series {
        let r10 = s.y_at_round(10).expect("10 rounds");
        assert!(r10 < -0.4, "{} at round 10 is {r10}, paper expects < -0.4", s.label);
        let last = s.last_y().expect("non-empty");
        assert!(last < -0.7, "{} converged to {last}, paper expects ≈ -0.8", s.label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_evaluation_section() {
        let cfg = paper_config();
        assert_eq!(cfg.n_nodes, 16);
        assert_eq!(cfg.n_liars, 4);
    }

    #[test]
    fn fig3_shape_gate_accepts_reference_run() {
        let fig = fig3_liar_impact(paper_config(), &paper_liar_counts(), 25);
        assert_fig3_shape(&fig);
    }
}
