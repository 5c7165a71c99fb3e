//! The signature engine.
//!
//! The paper defines a signature as "a partially ordered sequence of events
//! that characterizes a misbehaving activity" and matches log-derived
//! events against it, "possibly partially" — a partial match is what
//! triggers the cooperative investigation.
//!
//! A [`Signature`] here is a sequence of *stages*; each stage is a
//! disjunction of [`EventPattern`]s. A suspect advances through the stages
//! in order (events for other stages are ignored, which gives the partial
//! order), within a time window. Completing the final stage yields a
//! [`SignatureMatch`]; an incomplete suspect state can be queried to drive
//! investigations.

use std::collections::BTreeMap;

use trustlink_sim::{NodeId, SimDuration, SimTime};

use crate::events::{DetectionEvent, MisbehaviourReason};

/// A predicate over [`DetectionEvent`]s, the alphabet of signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventPattern {
    /// Matches E1 (MPR replaced; suspect = a replacing MPR).
    MprReplaced,
    /// Matches any E2 misbehaviour.
    MprMisbehaving,
    /// Matches E2 with a specific reason.
    MprMisbehavingBecause(MisbehaviourKind),
    /// Matches E3.
    SoleConnectivity,
    /// Matches E4 (investigation: witness denies coverage).
    NotCovering,
    /// Matches E5 (investigation: claimed neighbor is false).
    CoveringNonNeighbor,
}

/// A reason-class filter for [`EventPattern::MprMisbehavingBecause`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MisbehaviourKind {
    /// Unknown claimed neighbor.
    UnknownClaim,
    /// TC silence.
    TcSilence,
    /// Malformed traffic.
    Malformed,
}

impl EventPattern {
    /// Does `event` satisfy this pattern?
    pub fn matches(&self, event: &DetectionEvent) -> bool {
        match (self, event) {
            (EventPattern::MprReplaced, DetectionEvent::MprReplaced { .. }) => true,
            (EventPattern::MprMisbehaving, DetectionEvent::MprMisbehaving { .. }) => true,
            (
                EventPattern::MprMisbehavingBecause(kind),
                DetectionEvent::MprMisbehaving { reason, .. },
            ) => {
                matches!(
                    (kind, reason),
                    (MisbehaviourKind::UnknownClaim, MisbehaviourReason::UnknownClaimedNeighbor(_))
                        | (MisbehaviourKind::TcSilence, MisbehaviourReason::TcSilence)
                        | (MisbehaviourKind::Malformed, MisbehaviourReason::MalformedTraffic)
                )
            }
            (EventPattern::SoleConnectivity, DetectionEvent::SoleConnectivity { .. }) => true,
            (EventPattern::NotCovering, DetectionEvent::NotCovering { .. }) => true,
            (EventPattern::CoveringNonNeighbor, DetectionEvent::CoveringNonNeighbor { .. }) => true,
            _ => false,
        }
    }
}

/// One stage of a signature: a disjunction of patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Any one of these patterns satisfies the stage.
    pub any_of: Vec<EventPattern>,
}

impl Stage {
    /// Builds a stage from patterns.
    pub fn any(patterns: impl IntoIterator<Item = EventPattern>) -> Self {
        Stage { any_of: patterns.into_iter().collect() }
    }

    fn matches(&self, event: &DetectionEvent) -> bool {
        self.any_of.iter().any(|p| p.matches(event))
    }
}

/// A partially ordered attack signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Human-readable name (appears in matches and reports).
    pub name: String,
    /// The ordered stages a suspect must traverse.
    pub stages: Vec<Stage>,
    /// Maximum age of the oldest contributing event when the match
    /// completes.
    pub window: SimDuration,
}

impl Signature {
    /// The link-spoofing signature of §III: (E1 ∨ E2) then (E4 ∨ E5),
    /// i.e. a suspicious trigger confirmed by investigation evidence
    /// (decision rule (4) of the paper).
    pub fn link_spoofing(window: SimDuration) -> Self {
        Signature {
            name: "link-spoofing".to_string(),
            stages: vec![
                Stage::any([EventPattern::MprReplaced, EventPattern::MprMisbehaving]),
                Stage::any([EventPattern::NotCovering, EventPattern::CoveringNonNeighbor]),
            ],
            window,
        }
    }

    /// A drop-attack signature: an MPR going TC-silent, confirmed by
    /// witnesses denying coverage.
    pub fn drop_attack(window: SimDuration) -> Self {
        Signature {
            name: "drop-attack".to_string(),
            stages: vec![
                Stage::any([EventPattern::MprMisbehavingBecause(MisbehaviourKind::TcSilence)]),
                Stage::any([EventPattern::NotCovering]),
            ],
            window,
        }
    }

    /// A forgery signature: malformed or impossible routing claims alone
    /// (single-stage — the evidence is direct).
    pub fn forged_traffic() -> Self {
        Signature {
            name: "forged-traffic".to_string(),
            stages: vec![Stage::any([EventPattern::MprMisbehavingBecause(
                MisbehaviourKind::Malformed,
            )])],
            window: SimDuration::from_secs(1),
        }
    }
}

/// A completed signature match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureMatch {
    /// Name of the matched signature.
    pub signature: String,
    /// The incriminated node.
    pub suspect: NodeId,
    /// When each stage was satisfied.
    pub stage_times: Vec<SimTime>,
}

impl SignatureMatch {
    /// When the final stage completed.
    pub fn completed_at(&self) -> SimTime {
        *self.stage_times.last().expect("a match has at least one stage")
    }
}

#[derive(Debug, Clone, Default)]
struct PartialMatch {
    stage: usize,
    stage_times: Vec<SimTime>,
}

/// The incremental matcher: feed it every [`DetectionEvent`]; it tracks
/// per-`(signature, suspect)` progress and reports completed matches.
#[derive(Debug, Clone)]
pub struct SignatureEngine {
    signatures: Vec<Signature>,
    /// Progress per `(signature, suspect)`; only entries past stage 0 are
    /// kept, so events that advance nothing leave the table unchanged.
    partial: BTreeMap<(usize, NodeId), PartialMatch>,
}

impl SignatureEngine {
    /// An engine with the given signature set.
    pub fn new(signatures: Vec<Signature>) -> Self {
        SignatureEngine { signatures, partial: BTreeMap::new() }
    }

    /// An engine loaded with the paper's built-in signatures (link
    /// spoofing, drop, forged traffic) using a common window.
    pub fn with_builtin(window: SimDuration) -> Self {
        SignatureEngine::new(vec![
            Signature::link_spoofing(window),
            Signature::drop_attack(window),
            Signature::forged_traffic(),
        ])
    }

    /// The signatures loaded in this engine.
    pub fn signatures(&self) -> &[Signature] {
        &self.signatures
    }

    /// Feeds one event; returns all matches completed by it.
    pub fn observe(&mut self, event: &DetectionEvent) -> Vec<SignatureMatch> {
        let mut matches = Vec::new();
        let at = event.at();
        for suspect in event.suspects() {
            for (sig_idx, sig) in self.signatures.iter().enumerate() {
                let key = (sig_idx, suspect);
                // Window expiry: progress that has gone stale counts as none.
                let mut progress = self
                    .partial
                    .remove(&key)
                    .filter(|p| at.saturating_since(p.stage_times[0]) <= sig.window)
                    .unwrap_or_default();
                if sig.stages[progress.stage].matches(event) {
                    progress.stage += 1;
                    progress.stage_times.push(at);
                    if progress.stage == sig.stages.len() {
                        matches.push(SignatureMatch {
                            signature: sig.name.clone(),
                            suspect,
                            stage_times: progress.stage_times,
                        });
                        continue;
                    }
                }
                if progress.stage > 0 {
                    self.partial.insert(key, progress);
                }
            }
        }
        matches
    }

    /// Suspects currently holding a partial match of `signature_name` (the
    /// paper's "preliminary sign of suspicious activity" — these are the
    /// nodes worth investigating).
    pub fn partial_suspects(&self, signature_name: &str) -> Vec<NodeId> {
        self.signatures
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == signature_name)
            .flat_map(|(idx, _)| {
                self.partial.keys().filter(move |(sig, _)| *sig == idx).map(|(_, suspect)| *suspect)
            })
            .collect()
    }

    /// Clears the partial progress of `suspect` on every signature (after
    /// an investigation exonerates it).
    pub fn clear_suspect(&mut self, suspect: NodeId) {
        self.partial.retain(|(_, s), _| *s != suspect);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn e1(suspect: u32, at: u64) -> DetectionEvent {
        DetectionEvent::MprReplaced {
            replaced: vec![NodeId(99)],
            replacing: vec![NodeId(suspect)],
            at: t(at),
        }
    }

    fn e4(suspect: u32, at: u64) -> DetectionEvent {
        DetectionEvent::NotCovering { mpr: NodeId(suspect), neighbor: NodeId(7), at: t(at) }
    }

    fn e5(suspect: u32, at: u64) -> DetectionEvent {
        DetectionEvent::CoveringNonNeighbor { mpr: NodeId(suspect), claimed: NodeId(42), at: t(at) }
    }

    fn engine() -> SignatureEngine {
        SignatureEngine::new(vec![Signature::link_spoofing(SimDuration::from_secs(60))])
    }

    #[test]
    fn two_stage_match_completes() {
        let mut eng = engine();
        assert!(eng.observe(&e1(3, 1)).is_empty());
        assert_eq!(eng.partial_suspects("link-spoofing"), vec![NodeId(3)]);
        let matches = eng.observe(&e4(3, 2));
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].suspect, NodeId(3));
        assert_eq!(matches[0].signature, "link-spoofing");
        assert_eq!(matches[0].stage_times, vec![t(1), t(2)]);
        assert_eq!(matches[0].completed_at(), t(2));
        // Progress consumed.
        assert!(eng.partial_suspects("link-spoofing").is_empty());
    }

    #[test]
    fn e5_also_confirms() {
        let mut eng = engine();
        eng.observe(&e1(3, 1));
        assert_eq!(eng.observe(&e5(3, 2)).len(), 1);
    }

    #[test]
    fn confirmation_without_trigger_is_ignored() {
        let mut eng = engine();
        assert!(eng.observe(&e4(3, 1)).is_empty());
        assert!(eng.partial_suspects("link-spoofing").is_empty());
    }

    #[test]
    fn suspects_are_tracked_independently() {
        let mut eng = engine();
        eng.observe(&e1(3, 1));
        eng.observe(&e1(4, 1));
        // Confirming 4 must not complete 3.
        let matches = eng.observe(&e4(4, 2));
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].suspect, NodeId(4));
        assert_eq!(eng.partial_suspects("link-spoofing"), vec![NodeId(3)]);
    }

    #[test]
    fn window_expiry_resets_progress() {
        let mut eng = engine();
        eng.observe(&e1(3, 1));
        // 120 s later the trigger has gone stale: E4 alone cannot complete,
        // and the stale progress is cleared.
        assert!(eng.observe(&e4(3, 121)).is_empty());
        assert!(eng.partial_suspects("link-spoofing").is_empty());
    }

    #[test]
    fn retrigger_within_window_works_after_expiry() {
        let mut eng = engine();
        eng.observe(&e1(3, 1));
        assert!(eng.observe(&e4(3, 200)).is_empty()); // expired
        eng.observe(&e1(3, 201));
        assert_eq!(eng.observe(&e4(3, 202)).len(), 1);
    }

    #[test]
    fn clear_suspect_erases_progress() {
        let mut eng = engine();
        eng.observe(&e1(3, 1));
        eng.clear_suspect(NodeId(3));
        assert!(eng.observe(&e4(3, 2)).is_empty());
    }

    #[test]
    fn single_stage_signature_fires_immediately() {
        let mut eng = SignatureEngine::new(vec![Signature::forged_traffic()]);
        let ev = DetectionEvent::MprMisbehaving {
            mpr: NodeId(2),
            reason: MisbehaviourReason::MalformedTraffic,
            at: t(1),
        };
        assert_eq!(eng.observe(&ev).len(), 1);
    }

    #[test]
    fn drop_signature_requires_tc_silence_kind() {
        let mut eng =
            SignatureEngine::new(vec![Signature::drop_attack(SimDuration::from_secs(60))]);
        // Malformed traffic is E2 but not TC-silence: stage 0 not satisfied.
        let ev = DetectionEvent::MprMisbehaving {
            mpr: NodeId(2),
            reason: MisbehaviourReason::MalformedTraffic,
            at: t(1),
        };
        eng.observe(&ev);
        assert!(eng.partial_suspects("drop-attack").is_empty());
        let silent = DetectionEvent::MprMisbehaving {
            mpr: NodeId(2),
            reason: MisbehaviourReason::TcSilence,
            at: t(2),
        };
        eng.observe(&silent);
        assert_eq!(eng.partial_suspects("drop-attack"), vec![NodeId(2)]);
        assert_eq!(eng.observe(&e4(2, 3)).len(), 1);
    }

    #[test]
    fn builtin_engine_has_three_signatures() {
        let eng = SignatureEngine::with_builtin(SimDuration::from_secs(30));
        let names: Vec<&str> = eng.signatures().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["link-spoofing", "drop-attack", "forged-traffic"]);
    }

    #[test]
    fn events_that_advance_nothing_leave_no_progress() {
        // E3 starts no built-in signature: a stream of them naming distinct
        // MPRs (or phantom ids) must not grow the progress table.
        let mut eng = SignatureEngine::with_builtin(SimDuration::from_secs(120));
        for i in 0..1_000u32 {
            let ev = DetectionEvent::SoleConnectivity {
                mpr: NodeId(i),
                only_via: vec![NodeId(i + 1)],
                at: t(1),
            };
            assert!(eng.observe(&ev).is_empty());
        }
        assert!(eng.partial.is_empty(), "{} empty progress entries", eng.partial.len());
    }

    #[test]
    fn multi_suspect_e1_tracks_every_replacing_mpr() {
        let mut eng = engine();
        let ev = DetectionEvent::MprReplaced {
            replaced: vec![NodeId(9)],
            replacing: vec![NodeId(3), NodeId(4)],
            at: t(1),
        };
        eng.observe(&ev);
        let mut suspects = eng.partial_suspects("link-spoofing");
        suspects.sort_unstable();
        assert_eq!(suspects, vec![NodeId(3), NodeId(4)]);
    }
}
