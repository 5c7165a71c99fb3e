//! # trustlink-core
//!
//! The complete system of *"Trust-enabled Link Spoofing Detection in
//! MANET"* (Alattar, Sailhan, Bourgeois — ICDCS WWASN 2012): a distributed,
//! log- and signature-based intrusion detector for OLSR ad hoc networks,
//! secured by an entropy-based trust system and a confidence-interval
//! indicator.
//!
//! This crate composes the substrates into the paper's agent and its
//! evaluation:
//!
//! * [`detector`] — [`detector::DetectorNode`], one node running OLSR +
//!   log analysis + signatures + cooperative investigation + trust;
//! * [`scenario`] — packet-level networks of detectors with attackers and
//!   liars, and the measurements taken from them;
//! * [`rounds`] — the paper's §V evaluation protocol (abstract
//!   investigation rounds over 16 nodes / 1 attacker / 4 liars);
//! * [`experiments`] — one function per paper figure (1, 2, 3) plus the
//!   confidence-interval sweep and ablations;
//! * [`chart`] / [`csv`] — terminal rendering and CSV export of figures.
//!
//! ## Quickstart
//!
//! ```
//! use trustlink_core::prelude::*;
//!
//! // Reproduce Figure 3 at the paper's scale (16 nodes, liars sweeping).
//! let fig = fig3_liar_impact(RoundConfig::default(), &paper_liar_counts(), 25);
//! for series in &fig.series {
//!     let last = series.last_y().unwrap();
//!     assert!(last < -0.7, "{} should converge below -0.7", series.label);
//! }
//! println!("{}", trustlink_core::chart::render(&fig, 64, 16));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod csv;
pub mod detector;
pub mod experiments;
pub mod replay;
pub mod rounds;
pub mod scenario;

/// Glob-import of the system's main types and experiment entry points.
pub mod prelude {
    pub use crate::detector::{DetectorConfig, DetectorNode, VerdictRecord, TIMER_ANALYSIS};
    pub use crate::experiments::{
        ablations, confidence_sweep, fig1_trustworthiness, fig2_forgetting, fig3_liar_impact,
        fig3_liar_impact_banded, liar_coalition_sweep, paper_liar_counts, Figure, Series,
    };
    pub use crate::replay::{record_scenario, replay_recording, ReplayReport};
    pub use crate::rounds::{
        InitialTrust, RoleKind, RoundConfig, RoundEngine, RoundTrace, WitnessTrace,
    };
    pub use crate::scenario::{ScenarioBuilder, ScenarioReport, Topology};
    pub use trustlink_attacks::prelude::*;
    pub use trustlink_olsr::prelude::*;
    pub use trustlink_sim::prelude::*;
    pub use trustlink_trust::prelude::*;
}

pub use detector::{DetectorConfig, DetectorNode, VerdictRecord};
pub use experiments::{Figure, Series};
pub use replay::{record_scenario, replay_recording, ReplayReport};
pub use rounds::{RoundConfig, RoundEngine, RoundTrace};
pub use scenario::{ScenarioBuilder, ScenarioReport, Topology};
