//! The cooperative investigation of Algorithm 1.
//!
//! When a trigger event (E1/E2) incriminates a suspicious MPR `I`, the
//! investigator interrogates witnesses — the nodes `I` *claims* as
//! symmetric neighbors — asking each: *"is the link between you and `I`
//! real?"*. Requests and answers travel as unicast data that must route
//! **around** `I`. When that fails, the paper falls back to other
//! covering MPRs and finally to any multi-hop path. This implementation
//! has no such fallback: with no route that avoids `I`,
//! `OlsrNode::send_data` returns `false`, the request is never sent, and
//! the witness is tallied as silent (`e = 0`) at the deadline. A real leaf
//! behind `I` therefore cannot answer; the ROADMAP item "Stop convicting
//! honest leaves" tracks the fallback.
//!
//! This module provides the pieces the detector composes:
//!
//! * [`InvestigationMessage`] — the request/answer wire format;
//! * [`Investigation`] — one open case: its [`Dispute`] (witnesses and
//!   answers, judged by the same formulas (8)–(10) as the §V round model
//!   behind the figures) and its deadline;
//! * [`plan_witnesses`] — Algorithm 1 lines 2–4 (who to interrogate).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use trustlink_sim::{NodeId, SimDuration, SimTime};
use trustlink_trust::aggregate::Answer;
use trustlink_trust::dispute::Dispute;

use crate::events::EventExtractor;

/// Tunables for the investigation protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct InvestigationConfig {
    /// How long to wait for answers before tallying with `e = 0` for the
    /// silent witnesses.
    pub timeout: SimDuration,
    /// Upper bound on interrogated witnesses per case.
    pub max_witnesses: usize,
}

impl Default for InvestigationConfig {
    fn default() -> Self {
        InvestigationConfig { timeout: SimDuration::from_secs(10), max_witnesses: 16 }
    }
}

/// The investigation protocol messages, carried as data-plane payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvestigationMessage {
    /// "Witness, is the link `suspect`–`contested` real, as far as you can
    /// tell?" — the paper's contestation about one advertised link.
    VerifyLinkRequest {
        /// Case identifier (investigator-scoped).
        case: u64,
        /// The suspicious MPR.
        suspect: NodeId,
        /// The advertised link peer under dispute.
        contested: NodeId,
    },
    /// The witness's answer.
    VerifyLinkResponse {
        /// Case identifier copied from the request.
        case: u64,
        /// The suspicious MPR.
        suspect: NodeId,
        /// The answering node.
        witness: NodeId,
        /// `true` if the witness confirms the link exists.
        link_exists: bool,
    },
}

/// Decoding errors for [`InvestigationMessage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadInvestigationMessage;

impl std::fmt::Display for BadInvestigationMessage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("malformed investigation message")
    }
}

impl std::error::Error for BadInvestigationMessage {}

impl InvestigationMessage {
    /// Serializes to bytes (tag, case, suspect, witness[, answer]).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(16);
        match *self {
            InvestigationMessage::VerifyLinkRequest { case, suspect, contested } => {
                buf.put_u8(1);
                buf.put_u64(case);
                suspect.put(&mut buf);
                contested.put(&mut buf);
            }
            InvestigationMessage::VerifyLinkResponse { case, suspect, witness, link_exists } => {
                buf.put_u8(2);
                buf.put_u64(case);
                suspect.put(&mut buf);
                witness.put(&mut buf);
                buf.put_u8(u8::from(link_exists));
            }
        }
        buf.freeze()
    }

    /// Deserializes from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`BadInvestigationMessage`] on truncation, unknown tags or
    /// trailing garbage.
    pub fn decode(mut bytes: Bytes) -> Result<Self, BadInvestigationMessage> {
        if bytes.len() < 13 {
            return Err(BadInvestigationMessage);
        }
        let tag = bytes.get_u8();
        let case = bytes.get_u64();
        let suspect = NodeId::get(&mut bytes).ok_or(BadInvestigationMessage)?;
        let third = NodeId::get(&mut bytes).ok_or(BadInvestigationMessage)?;
        match tag {
            1 => {
                if bytes.has_remaining() {
                    return Err(BadInvestigationMessage);
                }
                Ok(InvestigationMessage::VerifyLinkRequest { case, suspect, contested: third })
            }
            2 => {
                if bytes.remaining() != 1 {
                    return Err(BadInvestigationMessage);
                }
                let link_exists = bytes.get_u8() != 0;
                Ok(InvestigationMessage::VerifyLinkResponse {
                    case,
                    suspect,
                    witness: third,
                    link_exists,
                })
            }
            _ => Err(BadInvestigationMessage),
        }
    }
}

/// One open investigation case: the link `suspect`–`contested` is disputed
/// and the witnesses are being polled about it.
///
/// Each witness row carries the stability weight of the link its evidence
/// rides over, captured when the case opened. Churn false positives are
/// triggered by a link dissolving, so the snapshot preserves how unstable
/// the neighborhood looked at trigger time even if links settle before the
/// deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct Investigation {
    /// Case identifier.
    pub case: u64,
    /// The suspicious MPR under investigation.
    pub suspect: NodeId,
    /// The advertised link peer under dispute.
    pub contested: NodeId,
    /// The witnesses polled, with their answers and case-open stability
    /// weights; judged at the deadline.
    pub dispute: Dispute<NodeId>,
    /// When pending answers are written off as `e = 0`.
    pub deadline: SimTime,
}

impl Investigation {
    /// Opens a case at `now` interrogating `witnesses` about the link
    /// `suspect`–`contested`. Each witness comes with the stability weight
    /// of the link toward it at the moment the case opens.
    pub fn open(
        case: u64,
        suspect: NodeId,
        contested: NodeId,
        witnesses: impl IntoIterator<Item = (NodeId, f64)>,
        now: SimTime,
        timeout: SimDuration,
    ) -> Self {
        let mut dispute = Dispute::default();
        dispute.open_round(witnesses);
        Investigation { case, suspect, contested, dispute, deadline: now + timeout }
    }

    /// `true` once every witness answered or the deadline passed.
    pub fn is_complete(&self, now: SimTime) -> bool {
        now >= self.deadline || self.dispute.answers().all(|(_, a)| a != Answer::NoAnswer)
    }
}

/// Algorithm 1 lines 2–4: choose the witnesses for a suspect.
///
/// The interrogation set is the suspect's *claimed* symmetric neighborhood
/// (`NS'_I` — exactly what a spoofed HELLO advertises), excluding the
/// investigator itself. When `old_mprs` is non-empty (an E1 trigger), the
/// witnesses are narrowed to the 2-hop neighbors the investigator shares
/// with the suspect via those replaced MPRs, when that intersection is
/// non-empty — "the 2-hops neighbours that have shown their MPR(s)
/// changed".
pub fn plan_witnesses(
    view: &EventExtractor,
    me: NodeId,
    suspect: NodeId,
    old_mprs: &[NodeId],
    max_witnesses: usize,
) -> Vec<NodeId> {
    let claimed: Vec<NodeId> = view
        .claimed_neighbors_of(suspect)
        .unwrap_or(&[])
        .iter()
        .copied()
        .filter(|&w| w != me && w != suspect)
        .collect();

    let mut witnesses = claimed.clone();
    if !old_mprs.is_empty() {
        // Narrow to common 2-hop neighbors: targets reachable via a
        // replaced MPR too.
        let common: Vec<NodeId> = claimed
            .iter()
            .copied()
            .filter(|&w| view.vias_for(w).any(|v| old_mprs.contains(&v)))
            .collect();
        if !common.is_empty() {
            witnesses = common;
        }
    }
    witnesses.truncate(max_witnesses);
    witnesses
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustlink_sim::record::LogRecord;
    use trustlink_sim::record::Willingness;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn message_roundtrip() {
        let msgs = [
            InvestigationMessage::VerifyLinkRequest {
                case: 42,
                suspect: NodeId(3),
                contested: NodeId(7),
            },
            InvestigationMessage::VerifyLinkResponse {
                case: 42,
                suspect: NodeId(3),
                witness: NodeId(7),
                link_exists: true,
            },
            InvestigationMessage::VerifyLinkResponse {
                case: u64::MAX,
                suspect: NodeId(0),
                witness: NodeId(65_000),
                link_exists: false,
            },
        ];
        for m in msgs {
            assert_eq!(InvestigationMessage::decode(m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn message_decode_rejects_garbage() {
        assert!(InvestigationMessage::decode(Bytes::from_static(b"")).is_err());
        assert!(InvestigationMessage::decode(Bytes::from_static(b"\x09123456789012")).is_err());
        // A request with trailing garbage:
        let mut bad = BytesMut::new();
        bad.put_u8(1);
        bad.put_u64(1);
        bad.put_u16(1);
        bad.put_u16(2);
        bad.put_u8(9);
        assert!(InvestigationMessage::decode(bad.freeze()).is_err());
    }

    #[test]
    fn case_lifecycle() {
        let mut inv = Investigation::open(
            1,
            NodeId(3),
            NodeId(99),
            [(NodeId(5), 1.0), (NodeId(6), 0.5), (NodeId(7), 0.0)],
            t(10),
            SimDuration::from_secs(5),
        );
        assert_eq!(inv.contested, NodeId(99));
        assert_eq!(inv.dispute.answers().len(), 3);
        assert!(!inv.is_complete(t(10)));
        assert!(inv.dispute.record_answer(NodeId(5), false));
        assert!(inv.dispute.record_answer(NodeId(6), true));
        assert!(!inv.is_complete(t(12)));
        // Deadline forces completion with a pending witness.
        assert!(inv.is_complete(t(15)));
        // All-answered also completes, before the deadline.
        assert!(inv.dispute.record_answer(NodeId(7), false));
        assert!(inv.is_complete(t(12)));
    }

    fn view_with_claims() -> EventExtractor {
        let mut view = EventExtractor::new();
        // Suspect N3 claims N5, N6, N7, N0(me).
        view.ingest_record(
            t(0),
            &LogRecord::HelloRx {
                from: NodeId(3),
                willingness: Willingness::Default,
                sym: Box::from([NodeId(0), NodeId(5), NodeId(6), NodeId(7)]),
                asym: Box::from([]),
            },
        );
        // 2-hop: N5 and N6 reachable via old MPR N2; N7 only via N3.
        view.ingest_record(t(0), &LogRecord::TwoHopAdded { via: NodeId(2), addr: NodeId(5) });
        view.ingest_record(t(0), &LogRecord::TwoHopAdded { via: NodeId(2), addr: NodeId(6) });
        view.ingest_record(t(0), &LogRecord::TwoHopAdded { via: NodeId(3), addr: NodeId(7) });
        view
    }

    #[test]
    fn witness_planning_uses_claimed_neighbors() {
        let view = view_with_claims();
        let w = plan_witnesses(&view, NodeId(0), NodeId(3), &[], 16);
        assert_eq!(w, vec![NodeId(5), NodeId(6), NodeId(7)]);
    }

    #[test]
    fn witness_planning_narrows_to_common_two_hop() {
        let view = view_with_claims();
        let w = plan_witnesses(&view, NodeId(0), NodeId(3), &[NodeId(2)], 16);
        assert_eq!(w, vec![NodeId(5), NodeId(6)]);
    }

    #[test]
    fn witness_planning_falls_back_when_no_common() {
        let view = view_with_claims();
        // Old MPR N9 covers nothing the suspect claims: fall back to all.
        let w = plan_witnesses(&view, NodeId(0), NodeId(3), &[NodeId(9)], 16);
        assert_eq!(w, vec![NodeId(5), NodeId(6), NodeId(7)]);
    }

    #[test]
    fn witness_planning_respects_cap_and_unknown_suspect() {
        let view = view_with_claims();
        let w = plan_witnesses(&view, NodeId(0), NodeId(3), &[], 2);
        assert_eq!(w.len(), 2);
        let none = plan_witnesses(&view, NodeId(0), NodeId(55), &[], 16);
        assert!(none.is_empty());
    }
}
