//! # trustlink-trust
//!
//! The entropy-based trust system of *"Trust-enabled Link Spoofing Detection
//! in MANET"* (Alattar, Sailhan, Bourgeois — ICDCS WWASN 2012), as a pure,
//! simulator-independent library.
//!
//! The paper secures a distributed intrusion detector with trust
//! mathematics; the pieces the detector uses are implemented here:
//!
//! | Paper | Module | What it does |
//! |-------|--------|--------------|
//! | Formula (5) | [`update`] | evidence-weighted trust update with gravity factors `α` and forgetting factor `β` |
//! | §IV entropy | [`entropy`] | the information-theoretic trust ↔ probability mapping of Sun et al. |
//! | Formula (8) | [`aggregate`] | trust-weighted aggregation of investigation answers into a detection value |
//! | Formula (9) | [`confidence`] | confidence interval over partial evidence (probit, margin of error) |
//! | Rule (10) | [`decision`] | the three-way verdict: well-behaving / intruder / unrecognized |
//! | (8)–(10), (5) | [`dispute`] | one dispute's witness rows judged by (8)–(10), and the testimony evidence (5) they earn; both investigation engines judge through it |
//!
//! [`store`] ties (5) into a per-neighbor bookkeeping structure with
//! time-slot semantics, and [`value`] defines the bounded [`TrustValue`]
//! domain and the evidence catalogue (Properties 1–5 of §IV-A).
//!
//! The paper's formulas (6) and (7), trust propagated through
//! recommendations, are not implemented. Every decision here reads
//! first-hand trust only: a prototype that gave witnesses without it
//! their formula (7) trust from gossip moved no conviction and under 1 %
//! of decisive verdicts, while the gossip traffic added 1–5 % air frames
//! and an air-reachable map of recommendations in every node.
//!
//! ## Example: one investigation round
//!
//! ```
//! use trustlink_trust::prelude::*;
//!
//! // Three witnesses answer "is the link advertised by the suspect real?".
//! // Two honest nodes deny it (-1); a liar confirms it (+1). Each answer
//! // becomes one evidence row weighted by the answerer's trust, over a
//! // fully stable link.
//! let row = |trust: f64, answer| Evidence {
//!     weight: TrustValue::new(trust).weight(),
//!     stability: 1.0,
//!     answer,
//! };
//! let pool = [row(0.7, Answer::Deny), row(0.6, Answer::Deny), row(0.2, Answer::Confirm)];
//! let detect = detection_value(&pool);
//! assert!(detect < 0.0, "the spoofed link should look suspicious");
//!
//! // Margin of error over the answering witnesses' weighted evidence at
//! // 95% confidence:
//! let margin = margin_of_error(&evidence_samples(&pool), 0.95);
//! let verdict = DecisionRule::default().decide(detect, margin);
//! println!("detect={detect:.2} ± {margin:.2} → {verdict:?}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod confidence;
pub mod decision;
pub mod dispute;
pub mod entropy;
pub mod stability;
pub mod store;
pub mod update;
pub mod value;

/// Glob-import of the commonly used types and functions.
pub mod prelude {
    pub use crate::aggregate::{detection_value, evidence_samples, Answer, Evidence};
    pub use crate::confidence::{margin_of_error, probit};
    pub use crate::decision::{DecisionRule, Verdict};
    pub use crate::dispute::{Dispute, Judgement};
    pub use crate::entropy::{binary_entropy, probability_from_trust, trust_from_probability};
    pub use crate::stability::{stability_weight, StabilityParams};
    pub use crate::store::TrustStore;
    pub use crate::update::TrustUpdate;
    pub use crate::value::{EvidenceKind, GravityCatalogue, TrustValue};
}

pub use aggregate::{detection_value, evidence_samples, Answer, Evidence};
pub use confidence::{margin_of_error, probit};
pub use decision::{DecisionRule, Verdict};
pub use dispute::{Dispute, Judgement};
pub use stability::{stability_weight, StabilityParams};
pub use store::TrustStore;
pub use update::TrustUpdate;
pub use value::{EvidenceKind, GravityCatalogue, TrustValue};
