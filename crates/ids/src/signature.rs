//! The signature matcher.
//!
//! The paper defines a signature as "a partially ordered sequence of events
//! that characterizes a misbehaving activity" and matches log-derived
//! events against it, "possibly partially" — a partial match is what
//! triggers the cooperative investigation.
//!
//! A [`Signature`] here is two *stages*, a trigger and a confirmation;
//! each stage is a disjunction of [`EventPattern`]s. The signatures are the
//! fixed table [`BUILTIN`] (link spoofing, then drop attack), sharing one
//! [`WINDOW`]. A suspect passes the stages in order (a confirmation before
//! the trigger is ignored, which gives the partial order), within the
//! window. [`Progress`] is one suspect's progress through every built-in
//! signature; the detector keeps one in each suspect's file.
//!
//! An event that satisfies the first stage of a built-in signature
//! ([`opens_case`]) is the partial match that opens the suspect's case.
//! Completing the second stage yields a [`SignatureMatch`].

use trustlink_sim::{NodeId, SimDuration, SimTime};

use crate::events::{DetectionEvent, MisbehaviourReason};

/// A predicate over [`DetectionEvent`]s, the alphabet of signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventPattern {
    /// Matches E1 (MPR replaced; suspect = a replacing MPR).
    MprReplaced,
    /// Matches any E2 misbehaviour.
    MprMisbehaving,
    /// Matches E2 TC silence.
    TcSilence,
    /// Matches E4 (investigation: witness denies coverage).
    NotCovering,
    /// Matches E5 (investigation: claimed neighbor is false).
    CoveringNonNeighbor,
}

impl EventPattern {
    /// Does `event` satisfy this pattern?
    pub fn matches(self, event: &DetectionEvent) -> bool {
        matches!(
            (self, event),
            (EventPattern::MprReplaced, DetectionEvent::MprReplaced { .. })
                | (EventPattern::MprMisbehaving, DetectionEvent::MprMisbehaving { .. })
                | (
                    EventPattern::TcSilence,
                    DetectionEvent::MprMisbehaving { reason: MisbehaviourReason::TcSilence, .. }
                )
                | (EventPattern::NotCovering, DetectionEvent::NotCovering { .. })
                | (EventPattern::CoveringNonNeighbor, DetectionEvent::CoveringNonNeighbor { .. })
        )
    }
}

/// A partially ordered attack signature: a trigger, then a confirmation.
/// Any one pattern of a stage satisfies it.
#[derive(Debug, PartialEq, Eq)]
pub struct Signature {
    /// Human-readable name (appears in matches and reports).
    pub name: &'static str,
    /// The first stage, whose partial match opens the suspect's case.
    pub trigger: &'static [EventPattern],
    /// The second stage, which completes the match.
    pub confirm: &'static [EventPattern],
}

/// Maximum age of the trigger when a match completes.
pub const WINDOW: SimDuration = SimDuration::from_secs(120);

/// The built-in signatures, in matching order.
pub static BUILTIN: [Signature; 2] = [
    // §III: (E1 ∨ E2) then (E4 ∨ E5), i.e. a suspicious trigger confirmed
    // by investigation evidence (decision rule (4) of the paper).
    Signature {
        name: "link-spoofing",
        trigger: &[EventPattern::MprReplaced, EventPattern::MprMisbehaving],
        confirm: &[EventPattern::NotCovering, EventPattern::CoveringNonNeighbor],
    },
    // An MPR going TC-silent, confirmed by witnesses denying coverage.
    Signature {
        name: "drop-attack",
        trigger: &[EventPattern::TcSilence],
        confirm: &[EventPattern::NotCovering],
    },
];

fn stage_matches(stage: &[EventPattern], event: &DetectionEvent) -> bool {
    stage.iter().any(|p| p.matches(event))
}

/// Does `event` satisfy the first stage of a built-in signature? Such a
/// partial match is the trigger that opens a case on every suspect the
/// event names.
pub fn opens_case(event: &DetectionEvent) -> bool {
    BUILTIN.iter().any(|sig| stage_matches(sig.trigger, event))
}

/// A completed signature match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureMatch {
    /// Name of the matched signature.
    pub signature: &'static str,
    /// The incriminated node.
    pub suspect: NodeId,
    /// When each stage was satisfied.
    pub stage_times: Vec<SimTime>,
}

/// One suspect's progress through every built-in signature: when each
/// one's trigger was satisfied, if it is pending. Feed it every event that
/// names the suspect; it reports completed matches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Progress([Option<SimTime>; BUILTIN.len()]);

impl Progress {
    /// Feeds one event naming `suspect`; returns the matches it completes.
    pub fn observe(&mut self, suspect: NodeId, event: &DetectionEvent) -> Vec<SignatureMatch> {
        let mut matches = Vec::new();
        let at = event.at();
        for (sig, triggered) in BUILTIN.iter().zip(&mut self.0) {
            // Window expiry: progress that has gone stale counts as none.
            if triggered.is_some_and(|t| at.saturating_since(t) > WINDOW) {
                *triggered = None;
            }
            match *triggered {
                None if stage_matches(sig.trigger, event) => *triggered = Some(at),
                Some(t) if stage_matches(sig.confirm, event) => {
                    let stage_times = vec![t, at];
                    matches.push(SignatureMatch { signature: sig.name, suspect, stage_times });
                    *triggered = None;
                }
                _ => {}
            }
        }
        matches
    }

    /// The stage each built-in signature has reached, in [`BUILTIN`]
    /// order: 1 while its trigger is pending, else 0.
    pub fn stages(&self) -> [usize; BUILTIN.len()] {
        self.0.map(|t| usize::from(t.is_some()))
    }

    /// Clears the progress on every signature (after an investigation
    /// exonerates the suspect).
    pub fn clear(&mut self) {
        *self = Progress::default();
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

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

    fn misbehaving(suspect: u32, reason: MisbehaviourReason, at: u64) -> DetectionEvent {
        DetectionEvent::MprMisbehaving { mpr: NodeId(suspect), reason, at: t(at) }
    }

    /// Suspects' progress kept the way the detector keeps its files: an
    /// event that opens a case creates the suspect's entry, any other event
    /// only touches an existing one.
    #[derive(Default)]
    struct Files(BTreeMap<NodeId, Progress>);

    impl Files {
        fn observe(&mut self, ev: &DetectionEvent) -> Vec<SignatureMatch> {
            let mut matches = Vec::new();
            for &s in ev.suspects() {
                let progress = if opens_case(ev) {
                    Some(self.0.entry(s).or_default())
                } else {
                    self.0.get_mut(&s)
                };
                if let Some(progress) = progress {
                    matches.extend(progress.observe(s, ev));
                }
            }
            matches
        }

        /// Names of the signatures `suspect` has progress on.
        fn partial(&self, suspect: u32) -> Vec<&'static str> {
            let stages = self.0.get(&NodeId(suspect)).map(Progress::stages).unwrap_or_default();
            BUILTIN.iter().zip(stages).filter(|&(_, s)| s > 0).map(|(sig, _)| sig.name).collect()
        }

        /// Suspects holding link-spoofing progress.
        fn suspects(&self) -> Vec<NodeId> {
            self.0.iter().filter(|(_, p)| p.stages()[0] > 0).map(|(s, _)| *s).collect()
        }
    }

    #[test]
    fn two_stage_match_completes() {
        let mut files = Files::default();
        assert!(files.observe(&e1(3, 1)).is_empty());
        assert_eq!(files.suspects(), vec![NodeId(3)]);
        let matches = files.observe(&e4(3, 2));
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].suspect, NodeId(3));
        assert_eq!(matches[0].signature, "link-spoofing");
        assert_eq!(matches[0].stage_times, vec![t(1), t(2)]);
        // Progress consumed.
        assert!(files.suspects().is_empty());
    }

    #[test]
    fn e5_also_confirms() {
        let mut files = Files::default();
        files.observe(&e1(3, 1));
        assert_eq!(files.observe(&e5(3, 2)).len(), 1);
    }

    #[test]
    fn confirmation_without_trigger_is_ignored() {
        let mut files = Files::default();
        assert!(files.observe(&e4(3, 1)).is_empty());
        assert!(files.suspects().is_empty());
        // Even on a suspect the detector keeps a file for.
        let mut progress = Progress::default();
        assert!(progress.observe(NodeId(3), &e4(3, 1)).is_empty());
        assert_eq!(progress, Progress::default());
    }

    #[test]
    fn suspects_are_tracked_independently() {
        let mut files = Files::default();
        files.observe(&e1(3, 1));
        files.observe(&e1(4, 1));
        // Confirming 4 must not complete 3.
        let matches = files.observe(&e4(4, 2));
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].suspect, NodeId(4));
        assert_eq!(files.suspects(), vec![NodeId(3)]);
    }

    #[test]
    fn window_expiry_resets_progress() {
        let mut files = Files::default();
        files.observe(&e1(3, 1));
        // 121 s later the trigger has gone stale: E4 alone cannot complete,
        // and the stale progress is cleared.
        assert!(files.observe(&e4(3, 122)).is_empty());
        assert!(files.suspects().is_empty());
        // Exactly one window after the trigger it still counts.
        files.observe(&e1(3, 200));
        assert_eq!(files.observe(&e4(3, 320)).len(), 1);
    }

    #[test]
    fn retrigger_within_window_works_after_expiry() {
        let mut files = Files::default();
        files.observe(&e1(3, 1));
        assert!(files.observe(&e4(3, 200)).is_empty()); // expired
        files.observe(&e1(3, 201));
        assert_eq!(files.observe(&e4(3, 202)).len(), 1);
    }

    #[test]
    fn clear_suspect_erases_progress() {
        let mut files = Files::default();
        files.observe(&e1(3, 1));
        files.0.get_mut(&NodeId(3)).expect("file").clear();
        assert!(files.observe(&e4(3, 2)).is_empty());
    }

    #[test]
    fn drop_signature_requires_tc_silence_kind() {
        let mut files = Files::default();
        // Malformed traffic is E2 but not TC-silence: the drop signature's
        // first stage is not satisfied.
        files.observe(&misbehaving(2, MisbehaviourReason::MalformedTraffic, 1));
        assert_eq!(files.partial(2), vec!["link-spoofing"]);
        files.observe(&misbehaving(2, MisbehaviourReason::TcSilence, 2));
        assert_eq!(files.partial(2), vec!["link-spoofing", "drop-attack"]);
        let names: Vec<_> = files.observe(&e4(2, 3)).iter().map(|m| m.signature).collect();
        assert_eq!(names, vec!["link-spoofing", "drop-attack"]);
    }

    #[test]
    fn builtin_engine_has_two_signatures() {
        // TC silence and a denied coverage from one MPR complete each
        // built-in signature exactly once.
        let mut files = Files::default();
        let mut names: Vec<&str> = [misbehaving(3, MisbehaviourReason::TcSilence, 2), e4(3, 3)]
            .iter()
            .flat_map(|ev| files.observe(ev))
            .map(|m| m.signature)
            .collect();
        names.sort_unstable();
        assert_eq!(names, vec!["drop-attack", "link-spoofing"]);
    }

    #[test]
    fn first_stages_open_cases_on_e1_and_e2_only() {
        use MisbehaviourReason::{MalformedTraffic, TcSilence, UnknownClaimedNeighbor};
        for reason in [UnknownClaimedNeighbor(NodeId(9)), TcSilence, MalformedTraffic] {
            assert!(opens_case(&misbehaving(3, reason, 1)));
        }
        assert!(opens_case(&e1(3, 1)));
        let e3 = DetectionEvent::SoleConnectivity {
            mpr: NodeId(3),
            only_via: vec![NodeId(4)],
            at: t(1),
        };
        for ev in [e3, e4(3, 1), e5(3, 1)] {
            assert!(!opens_case(&ev), "{ev:?}");
        }
    }

    #[test]
    fn events_that_advance_nothing_leave_no_progress() {
        // E3 starts no built-in signature: a stream of them naming distinct
        // MPRs (or phantom ids) must not grow the progress table.
        let mut files = Files::default();
        for i in 0..1_000u32 {
            let ev = DetectionEvent::SoleConnectivity {
                mpr: NodeId(i),
                only_via: vec![NodeId(i + 1)],
                at: t(1),
            };
            assert!(files.observe(&ev).is_empty());
        }
        assert!(files.0.is_empty(), "{} empty progress entries", files.0.len());
    }

    #[test]
    fn multi_suspect_e1_tracks_every_replacing_mpr() {
        let mut files = Files::default();
        let ev = DetectionEvent::MprReplaced {
            replaced: vec![NodeId(9)],
            replacing: vec![NodeId(3), NodeId(4)],
            at: t(1),
        };
        files.observe(&ev);
        assert_eq!(files.suspects(), vec![NodeId(3), NodeId(4)]);
    }
}
