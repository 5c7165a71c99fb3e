//! # trustlink-ids
//!
//! The log- and signature-based intrusion detection layer of
//! *"Trust-enabled Link Spoofing Detection in MANET"* (Alattar, Sailhan,
//! Bourgeois — ICDCS WWASN 2012).
//!
//! The detection pipeline, exactly as the paper structures it:
//!
//! 1. **Logs** — the OLSR daemon writes typed audit records
//!    ([`trustlink_sim::record::LogRecord`], rendered as text lines only at
//!    the edges); nothing else is observed, so "no change is requested in
//!    the implementation of the node".
//! 2. **Events** — [`events::EventExtractor`] ingests the records and emits
//!    the paper's detection events: E1 (MPR replaced), E2 (MPR
//!    misbehaving), E3 (sole connectivity) locally; E4/E5 arrive later from
//!    investigations.
//! 3. **Signatures** — [`signature::Progress`] tracks one suspect through
//!    the fixed, partially ordered built-in signatures. An event that
//!    satisfies a signature's first stage (a fresh E1/E2,
//!    [`signature::opens_case`]) is the partial match that opens a
//!    cooperative investigation, and a *complete* match ((E1∨E2) then
//!    (E4∨E5)) is the detection itself (the paper's rule (4)).
//! 4. **Investigation** — [`investigation`] implements Algorithm 1:
//!    selecting witnesses from the suspect's claimed neighborhood,
//!    request/answer messages routed around the suspect, timeouts, and the
//!    answers, held in a `trustlink_trust::Dispute`: the same judge of
//!    formulas (8)–(10) that the round model behind the paper's figures
//!    uses.
//!
//! ```
//! use trustlink_ids::prelude::*;
//! use trustlink_sim::record::LogRecord;
//! use trustlink_sim::{NodeId, SimTime, SimDuration};
//!
//! let mut extractor = EventExtractor::new();
//! let mut progress = Progress::default();
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
//! // The replacement names N3: it opens N3's case and leaves N3 a partial
//! // link-spoofing suspect.
//! assert_eq!(events[0].suspects(), [NodeId(3)]);
//! assert!(opens_case(&events[0]));
//! assert!(progress.observe(NodeId(3), &events[0]).is_empty());
//! // An E4 from its investigation (witness N7 denies N3's link) completes
//! // the match:
//! let t3 = SimTime::from_secs(3);
//! let e4 = DetectionEvent::NotCovering { mpr: NodeId(3), neighbor: NodeId(7), at: t3 };
//! let matches = progress.observe(NodeId(3), &e4);
//! assert_eq!(matches.len(), 1);
//! assert_eq!((matches[0].signature, matches[0].suspect), ("link-spoofing", NodeId(3)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod investigation;
pub mod signature;

/// Glob-import of the detection pipeline types.
pub mod prelude {
    pub use crate::events::{DetectionEvent, EventExtractor, LinkStability, MisbehaviourReason};
    pub use crate::investigation::{
        plan_witnesses, Investigation, InvestigationConfig, InvestigationMessage,
    };
    pub use crate::signature::{opens_case, EventPattern, Progress, Signature, SignatureMatch};
}

pub use events::{DetectionEvent, EventExtractor, LinkStability, MisbehaviourReason};
pub use investigation::{plan_witnesses, Investigation, InvestigationConfig, InvestigationMessage};
pub use signature::{opens_case, EventPattern, Progress, Signature, SignatureMatch};
