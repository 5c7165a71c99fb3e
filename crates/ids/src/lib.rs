//! # trustlink-ids
//!
//! The log-based intrusion detection layer of *"Trust-enabled Link Spoofing
//! Detection in MANET"* (Alattar, Sailhan, Bourgeois — ICDCS WWASN 2012).
//!
//! The detection pipeline, as the paper structures it:
//!
//! 1. **Logs** — the OLSR daemon writes typed audit records
//!    ([`trustlink_sim::record::LogRecord`], rendered as text lines only at
//!    the edges); nothing else is observed, so "no change is requested in
//!    the implementation of the node".
//! 2. **Events** — [`events::EventExtractor`] ingests the records and emits
//!    the paper's local detection events, E1 (MPR replaced) and E2 (MPR
//!    misbehaving). Each is the partial match of the paper's signature,
//!    so each opens a cooperative investigation on every suspect it names.
//!    E3 (an MPR is the sole provider of connectivity) is not extracted:
//!    the paper calls it suspicious but never sufficient on its own, so no
//!    decision reads it.
//! 3. **Investigation** — [`investigation`] implements Algorithm 1:
//!    selecting witnesses from the suspect's claimed neighborhood,
//!    request/answer messages routed around the suspect, timeouts, and the
//!    answers, held in a `trustlink_trust::Dispute`: the same judge of
//!    formulas (8)–(10) that the round model behind the paper's figures
//!    uses. E4 (the suspect does not cover a neighbor) and E5 (it covers a
//!    non-neighbor) are the dispute's Deny and NoAnswer answers.
//! 4. **Decision** — the paper's rule (4), (E1 ∨ E2) then (E4 ∨ E5), is
//!    what an Intruder verdict is: a case opens only on an E1 or E2, and
//!    rule (10) decides it from its witnesses' answers. No second matcher
//!    relabels the convictions.
//!
//! ```
//! use trustlink_ids::prelude::*;
//! use trustlink_sim::record::LogRecord;
//! use trustlink_sim::{NodeId, SimTime, SimDuration};
//!
//! let mut extractor = EventExtractor::new();
//! let mpr_set = |id| LogRecord::MprSet { mprs: Box::from([NodeId(id)]) };
//!
//! // The detector tails its own audit log, then closes the analysis slot
//! // (E1 replacement is judged per slot, so transient MPR flaps — and the
//! // router's recompute scheduling — cannot influence detection):
//! let t0 = SimTime::from_secs(1);
//! extractor.ingest_record(t0, &mpr_set(2));
//! extractor.tick(t0, SimDuration::from_secs(600));
//! extractor.ingest_record(SimTime::from_secs(2), &mpr_set(3));
//! let events = extractor.tick(SimTime::from_secs(2), SimDuration::from_secs(600));
//! // The replacement names N3: it opens N3's case.
//! assert!(matches!(events[..], [DetectionEvent::MprReplaced { .. }]));
//! assert_eq!(events[0].suspects(), [NodeId(3)]);
//! // N3 is now the only via to N9 (E3): the next pass extracts nothing.
//! let t3 = SimTime::from_secs(3);
//! extractor.ingest_record(t3, &LogRecord::TwoHopAdded { via: NodeId(3), addr: NodeId(9) });
//! assert!(extractor.tick(t3, SimDuration::from_secs(600)).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod investigation;

/// Glob-import of the detection pipeline types.
pub mod prelude {
    pub use crate::events::{DetectionEvent, EventExtractor, LinkStability, MisbehaviourReason};
    pub use crate::investigation::{
        plan_witnesses, Investigation, InvestigationConfig, InvestigationMessage,
    };
}

pub use events::{DetectionEvent, EventExtractor, LinkStability, MisbehaviourReason};
pub use investigation::{plan_witnesses, Investigation, InvestigationConfig, InvestigationMessage};
