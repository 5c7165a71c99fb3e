//! Detection events and their extraction from audit logs.
//!
//! §III-B of the paper enumerates the observations relevant to a link
//! spoofing attack:
//!
//! * **E1** — an MPR is replaced;
//! * **E2** — a previously-selected MPR is detected misbehaving (drops,
//!   forges or misrelays messages);
//! * **E3** — an MPR is the only provider of connectivity to some node
//!   (suspicious but never sufficient on its own);
//! * **E4** — an MPR does not cover its adjacent neighbors (established by
//!   interrogating them);
//! * **E5** — an MPR provides connectivity to a non-neighbor (same).
//!
//! E1–E3 are extracted *locally* from the node's own log lines by
//! [`EventExtractor`]; E4/E5 arrive as answers during the cooperative
//! investigation and are produced by
//! [`crate::investigation::Investigation`].

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use trustlink_olsr::idhash::IdHashMap;
use trustlink_sim::record::LogRecord;
use trustlink_sim::{NodeId, SimTime};

/// A detection-relevant observation about one suspect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectionEvent {
    /// E1: the MPR set changed such that `replaced` lost MPR status while
    /// `replacing` gained it. The *replacing* MPR is the prime suspect
    /// (Expression (1): inserting a fake neighbor guarantees selection).
    MprReplaced {
        /// MPRs that lost their status.
        replaced: Vec<NodeId>,
        /// MPRs that gained status — the suspects.
        replacing: Vec<NodeId>,
        /// When the replacement was observed.
        at: SimTime,
    },
    /// E2: a currently- or previously-selected MPR shows misbehaviour.
    MprMisbehaving {
        /// The suspect MPR.
        mpr: NodeId,
        /// What was observed.
        reason: MisbehaviourReason,
        /// When.
        at: SimTime,
    },
    /// E3: `mpr` is the sole provider of connectivity to `only_via` —
    /// suspicious but not actionable alone (sparse networks look the same).
    SoleConnectivity {
        /// The MPR in question.
        mpr: NodeId,
        /// Nodes reachable only through it.
        only_via: Vec<NodeId>,
        /// When.
        at: SimTime,
    },
    /// E4: a witness denied being covered by the suspect (investigation
    /// answer).
    NotCovering {
        /// The suspect MPR.
        mpr: NodeId,
        /// The adjacent neighbor it fails to cover.
        neighbor: NodeId,
        /// When the answer arrived.
        at: SimTime,
    },
    /// E5: the suspect advertises connectivity to a node that is not its
    /// neighbor (or does not exist).
    CoveringNonNeighbor {
        /// The suspect MPR.
        mpr: NodeId,
        /// The claimed-but-false neighbor.
        claimed: NodeId,
        /// When established.
        at: SimTime,
    },
}

/// The concrete misbehaviour behind an E2 event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MisbehaviourReason {
    /// The MPR's HELLO claims a symmetric neighbor entirely unknown to the
    /// local view of the network (candidate non-existent node,
    /// Expression (1)).
    UnknownClaimedNeighbor(NodeId),
    /// The MPR stopped originating TCs while still holding selectors.
    TcSilence,
    /// A frame from the MPR failed to decode (forged/corrupt).
    MalformedTraffic,
}

impl DetectionEvent {
    /// The node this event incriminates (the first suspect for compound
    /// events).
    pub fn suspect(&self) -> Option<NodeId> {
        match self {
            DetectionEvent::MprReplaced { replacing, .. } => replacing.first().copied(),
            DetectionEvent::MprMisbehaving { mpr, .. }
            | DetectionEvent::SoleConnectivity { mpr, .. }
            | DetectionEvent::NotCovering { mpr, .. }
            | DetectionEvent::CoveringNonNeighbor { mpr, .. } => Some(*mpr),
        }
    }

    /// All suspects named by the event, borrowed from it: the replacing
    /// MPRs of an E1, the one MPR of any other kind.
    pub fn suspects(&self) -> &[NodeId] {
        match self {
            DetectionEvent::MprReplaced { replacing, .. } => replacing,
            DetectionEvent::MprMisbehaving { mpr, .. }
            | DetectionEvent::SoleConnectivity { mpr, .. }
            | DetectionEvent::NotCovering { mpr, .. }
            | DetectionEvent::CoveringNonNeighbor { mpr, .. } => std::slice::from_ref(mpr),
        }
    }

    /// When the event was observed.
    pub fn at(&self) -> SimTime {
        match self {
            DetectionEvent::MprReplaced { at, .. }
            | DetectionEvent::MprMisbehaving { at, .. }
            | DetectionEvent::SoleConnectivity { at, .. }
            | DetectionEvent::NotCovering { at, .. }
            | DetectionEvent::CoveringNonNeighbor { at, .. } => *at,
        }
    }
}

/// Incrementally rebuilds a routing view from audit-log lines and emits
/// E1–E3 (plus E2 heuristics) as they become visible.
///
/// The extractor sees **only what the log says** — it deliberately has no
/// access to protocol internals, mirroring the paper's architecture.
#[derive(Debug, Clone, Default)]
pub struct EventExtractor {
    /// Current MPR set as last logged.
    mprs: Vec<NodeId>,
    /// The MPR set at the end of the previous analysis slot — the
    /// baseline E1 replacement is judged against (see [`tick`]).
    ///
    /// [`tick`]: EventExtractor::tick
    slot_mprs: Vec<NodeId>,
    /// Per-neighbor claimed symmetric neighbor sets from their HELLOs.
    claims: BTreeMap<NodeId, Vec<NodeId>>,
    /// Every address ever seen in any log line — the local estimate of
    /// the network's node population `N` — with the last time a TC from
    /// it was logged, if one ever was. Probed once per id a record names
    /// and never iterated, so a hash map keyed against chosen ids
    /// ([`IdHashMap`]) serves it.
    known: IdHashMap<NodeId, Option<SimTime>>,
    /// 2-hop reachability as logged: target -> vias.
    vias: BTreeMap<NodeId, BTreeSet<NodeId>>,
    /// Symmetric 1-hop neighborhood as logged.
    neighbors: BTreeSet<NodeId>,
    /// Per-neighbor link history: when the current symmetric adjacency was
    /// established and how often it has flapped. Fed from the same
    /// `NeighborAdded` / `NeighborLost` records as `neighbors`, never from
    /// protocol internals.
    stability: BTreeMap<NodeId, LinkStability>,
    /// When each `(via, two_hop)` pair was last logged as lost. A denial
    /// of a link the witness saw alive moments ago is indistinguishable
    /// from benign churn, so witnesses consult this before testifying.
    two_hop_losses: BTreeMap<(NodeId, NodeId), SimTime>,
}

/// The stability history of one symmetric link, as visible in the typed
/// audit log: the age of the current adjacency plus its flap count.
///
/// The trust layer turns this into an evidence weight (see
/// `trustlink_trust::stability_weight`): testimony carried over a young or
/// recently flapping link counts for less, so mobility churn degrades
/// detection gracefully instead of producing false convictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStability {
    /// When the current symmetric adjacency was established; `None` while
    /// the link is down (or was never seen).
    pub up_since: Option<SimTime>,
    /// How many times the link has been lost (`NeighborLost`) in total.
    pub flaps: u32,
    /// When the link last flapped, if ever.
    pub last_flap: Option<SimTime>,
}

impl LinkStability {
    /// Age of the current adjacency in seconds, `None` while down.
    pub fn age_secs(&self, now: SimTime) -> Option<f64> {
        self.up_since.map(|since| now.saturating_since(since).as_secs_f64())
    }

    /// Seconds since the last flap, `None` if the link never flapped.
    pub fn secs_since_flap(&self, now: SimTime) -> Option<f64> {
        self.last_flap.map(|at| now.saturating_since(at).as_secs_f64())
    }
}

impl EventExtractor {
    /// A fresh extractor with an empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one typed log record; returns any detection events it
    /// triggers. This is the primary ingest path — the detector tails its
    /// node's typed audit log directly, with no text round-trip.
    pub fn ingest_record(&mut self, at: SimTime, record: &LogRecord) -> Vec<DetectionEvent> {
        let mut events = Vec::new();
        // Every address mentioned anywhere enters the known-population set.
        self.absorb_addresses(record);
        match record {
            LogRecord::MprSet { mprs } => {
                // Only the view updates here. E1 (MPR replacement) is
                // judged per analysis slot in [`EventExtractor::tick`]:
                // the detector samples its log every Δt, and sub-slot MPR
                // flaps are churn noise — chasing each intermediate set
                // would also make detection depend on how eagerly the
                // router schedules its recomputations, which is exactly
                // what the recompute-mode equivalence contract forbids.
                self.mprs = mprs.to_vec();
            }
            LogRecord::HelloRx { from, sym, .. } => {
                // E2 heuristic: claiming a node nobody has ever heard of.
                for claimed in sym {
                    if *claimed != *from && !self.known.contains_key(claimed) {
                        events.push(DetectionEvent::MprMisbehaving {
                            mpr: *from,
                            reason: MisbehaviourReason::UnknownClaimedNeighbor(*claimed),
                            at,
                        });
                        self.known.insert(*claimed, None);
                    }
                }
                // The stored list is rewritten in place, and only when the
                // claims changed.
                match self.claims.entry(*from) {
                    Entry::Vacant(e) => {
                        e.insert(sym.to_vec());
                    }
                    Entry::Occupied(mut e) if e.get()[..] != sym[..] => {
                        let prev = e.get_mut();
                        prev.clear();
                        prev.extend_from_slice(sym);
                    }
                    Entry::Occupied(_) => {}
                }
            }
            LogRecord::TcRx { originator, advertised, .. } => {
                // TC-spoofing heuristic (§III-A: "detection strategy [is]
                // quite identical" for TC tampering): advertising a
                // selector nobody has ever been heard of.
                for sel in advertised {
                    if *sel != *originator && !self.known.contains_key(sel) {
                        events.push(DetectionEvent::MprMisbehaving {
                            mpr: *originator,
                            reason: MisbehaviourReason::UnknownClaimedNeighbor(*sel),
                            at,
                        });
                        self.known.insert(*sel, None);
                    }
                }
                self.known.insert(*originator, Some(at));
            }
            // The TC clock of an originator whose repeated TCs were not
            // logged in full: only the time moves.
            LogRecord::TcHeard { originator, heard_at } => {
                self.known.insert(*originator, Some(*heard_at));
            }
            LogRecord::NeighborAdded { addr } => {
                self.neighbors.insert(*addr);
                let hist = self.stability.entry(*addr).or_default();
                if hist.up_since.is_none() {
                    hist.up_since = Some(at);
                }
            }
            LogRecord::NeighborLost { addr } => {
                self.neighbors.remove(addr);
                let hist = self.stability.entry(*addr).or_default();
                hist.up_since = None;
                hist.flaps += 1;
                hist.last_flap = Some(at);
            }
            LogRecord::TwoHopAdded { via, addr } => {
                self.vias.entry(*addr).or_default().insert(*via);
            }
            LogRecord::TwoHopLost { via, addr } => {
                if let Some(set) = self.vias.get_mut(addr) {
                    set.remove(via);
                    if set.is_empty() {
                        self.vias.remove(addr);
                    }
                }
                self.two_hop_losses.insert((*via, *addr), at);
            }
            LogRecord::DecodeError { from } => {
                events.push(DetectionEvent::MprMisbehaving {
                    mpr: *from,
                    reason: MisbehaviourReason::MalformedTraffic,
                    at,
                });
            }
            // Addresses only: absorbed above into the known population.
            LogRecord::RouteAdded { .. } | LogRecord::RouteChanged { .. } => {}
            // Replay markers, never in a node's own log.
            LogRecord::AnalysisTick | LogRecord::Verdict { .. } => {}
        }
        events
    }

    /// Periodic sweep for non-event-driven checks (the paper's
    /// "periodical/random checks"): E3 sole-connectivity and E2 TC-silence.
    ///
    /// `tc_silence_after`: how long an MPR may go without originating TCs
    /// before being flagged. Pass a few multiples of the *worst-case
    /// emission period as heard at 1 hop* — with classic flooding that is
    /// the TC interval, but under scoped (fisheye) dissemination a sparse
    /// ring table may legitimately skip emission slots, so the caller
    /// must stretch the allowance by the schedule's near stride
    /// (`trustlink_olsr::FloodScope::near_stride`; the detector passes
    /// `tc_interval × 4 × near_stride`).
    pub fn tick(
        &mut self,
        now: SimTime,
        tc_silence_after: trustlink_sim::SimDuration,
    ) -> Vec<DetectionEvent> {
        let mut events = Vec::new();

        // E1: MPR replacement, judged against the previous slot's set so
        // transient intra-slot churn is invisible (see the `MprSet` arm of
        // [`EventExtractor::ingest`]).
        if self.mprs != self.slot_mprs {
            let replaced: Vec<NodeId> =
                self.slot_mprs.iter().copied().filter(|m| !self.mprs.contains(m)).collect();
            let replacing: Vec<NodeId> =
                self.mprs.iter().copied().filter(|m| !self.slot_mprs.contains(m)).collect();
            if !replaced.is_empty() && !replacing.is_empty() {
                events.push(DetectionEvent::MprReplaced { replaced, replacing, at: now });
            }
            self.slot_mprs = self.mprs.clone();
        }

        // E3: MPRs that are the only via for some 2-hop target.
        for &mpr in &self.mprs {
            let only_via: Vec<NodeId> = self
                .vias
                .iter()
                .filter(|(_, vias)| vias.len() == 1 && vias.contains(&mpr))
                .map(|(&target, _)| target)
                .collect();
            if !only_via.is_empty() {
                events.push(DetectionEvent::SoleConnectivity { mpr, only_via, at: now });
            }
        }

        // E2: an MPR of ours that has stopped originating TCs entirely.
        for &mpr in &self.mprs {
            if let Some(&Some(last)) = self.known.get(&mpr) {
                if now.saturating_since(last) > tc_silence_after {
                    events.push(DetectionEvent::MprMisbehaving {
                        mpr,
                        reason: MisbehaviourReason::TcSilence,
                        at: now,
                    });
                }
            }
        }
        events
    }

    fn absorb_addresses(&mut self, record: &LogRecord) {
        let mut add = |n: NodeId| {
            self.known.entry(n).or_insert(None);
        };
        match record {
            LogRecord::HelloRx { from, sym, asym, .. } => {
                add(*from);
                // Claimed addresses are absorbed *after* the unknown-claim
                // check in `ingest`; only the sender is absorbed here.
                let _ = (sym, asym);
            }
            LogRecord::TcRx { originator, sender, .. } => {
                add(*originator);
                add(*sender);
                // Advertised selectors are absorbed *after* the
                // unknown-selector check in `ingest`.
            }
            LogRecord::NeighborAdded { addr } | LogRecord::NeighborLost { addr } => add(*addr),
            LogRecord::TwoHopAdded { via, addr } | LogRecord::TwoHopLost { via, addr } => {
                add(*via);
                add(*addr);
            }
            LogRecord::RouteAdded { dest, next_hop, .. }
            | LogRecord::RouteChanged { dest, next_hop, .. } => {
                add(*dest);
                add(*next_hop);
            }
            LogRecord::MprSet { mprs } => {
                for m in mprs {
                    add(*m);
                }
            }
            // A decode error is evidence against its sender, not of a
            // node's existence.
            LogRecord::DecodeError { .. } => {}
            // A TC clock enters its originator, with its time, in `ingest`.
            LogRecord::TcHeard { .. } => {}
            // Replay markers, never in a node's own log.
            LogRecord::AnalysisTick | LogRecord::Verdict { .. } => {}
        }
    }

    // ---- views used by the investigation planner -------------------------

    /// What `neighbor` last claimed as its symmetric neighbors.
    pub fn claimed_neighbors_of(&self, neighbor: NodeId) -> Option<&[NodeId]> {
        self.claims.get(&neighbor).map(Vec::as_slice)
    }

    /// `true` when this node has ever seen `id` mentioned.
    pub fn is_known(&self, id: NodeId) -> bool {
        self.known.contains_key(&id)
    }

    /// The 1-hop vias through which `target` is reachable.
    pub fn vias_for(&self, target: NodeId) -> Vec<NodeId> {
        self.vias.get(&target).map(|s| s.iter().copied().collect()).unwrap_or_default()
    }

    /// The current symmetric neighborhood as logged.
    pub fn neighbors(&self) -> &BTreeSet<NodeId> {
        &self.neighbors
    }

    /// The stability history of the symmetric link toward `neighbor`.
    /// Nodes never seen as neighbors report a default (down, zero-flap)
    /// history.
    pub fn link_stability(&self, neighbor: NodeId) -> LinkStability {
        self.stability.get(&neighbor).copied().unwrap_or_default()
    }

    /// When the 2-hop pair `addr`-via-`via` was last logged lost, if ever.
    /// `None` means the pair was never seen to dissolve — either it never
    /// existed (a phantom link can be denied with confidence) or it is
    /// still alive.
    pub fn last_two_hop_loss(&self, via: NodeId, addr: NodeId) -> Option<SimTime> {
        self.two_hop_losses.get(&(via, addr)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustlink_sim::record::Willingness;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn hello(from: u32, sym: &[u32]) -> LogRecord {
        LogRecord::HelloRx {
            from: NodeId(from),
            willingness: Willingness::Default,
            sym: sym.iter().map(|&n| NodeId(n)).collect(),
            asym: Box::from([]),
        }
    }

    #[test]
    fn mpr_replacement_detected_per_slot() {
        let silence = trustlink_sim::SimDuration::from_secs(1_000);
        let mut ex = EventExtractor::new();
        assert!(ex
            .ingest_record(t(1), &LogRecord::MprSet { mprs: vec![NodeId(1)].into() })
            .is_empty());
        assert!(ex.tick(t(1), silence).is_empty()); // pure addition: no E1
                                                    // Pure addition is not a replacement.
        ex.ingest_record(t(2), &LogRecord::MprSet { mprs: vec![NodeId(1), NodeId(2)].into() });
        assert!(ex.tick(t(2), silence).is_empty());
        // 1 replaced by 3: E1 at the next slot boundary.
        ex.ingest_record(t(3), &LogRecord::MprSet { mprs: vec![NodeId(2), NodeId(3)].into() });
        let events = ex.tick(t(3), silence);
        assert_eq!(events.len(), 1);
        match &events[0] {
            DetectionEvent::MprReplaced { replaced, replacing, at } => {
                assert_eq!(replaced, &vec![NodeId(1)]);
                assert_eq!(replacing, &vec![NodeId(3)]);
                assert_eq!(*at, t(3));
            }
            other => panic!("wrong event {other:?}"),
        }
        assert!(crate::signature::opens_case(&events[0]));
        assert_eq!(events[0].suspect(), Some(NodeId(3)));
    }

    #[test]
    fn transient_intra_slot_mpr_flap_is_invisible() {
        // N1 momentarily swapped for N3 and back within one slot: the
        // slot-granular E1 judgement sees no net replacement — detection
        // must not depend on how many intermediate MPR sets the router
        // happened to materialize (the recompute-mode contract).
        let silence = trustlink_sim::SimDuration::from_secs(1_000);
        let mut ex = EventExtractor::new();
        ex.ingest_record(t(1), &LogRecord::MprSet { mprs: vec![NodeId(1)].into() });
        assert!(ex.tick(t(1), silence).is_empty());
        ex.ingest_record(t(2), &LogRecord::MprSet { mprs: vec![NodeId(3)].into() });
        ex.ingest_record(t(2), &LogRecord::MprSet { mprs: vec![NodeId(1)].into() });
        assert!(ex.tick(t(2), silence).is_empty());
    }

    #[test]
    fn unknown_claimed_neighbor_flagged_once() {
        let mut ex = EventExtractor::new();
        // Teach the extractor about nodes 1, 2 via normal traffic.
        ex.ingest_record(t(0), &LogRecord::NeighborAdded { addr: NodeId(1) });
        ex.ingest_record(t(0), &LogRecord::NeighborAdded { addr: NodeId(2) });
        // N1 claims the never-seen N99.
        let events = ex.ingest_record(t(1), &hello(1, &[2, 99]));
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0],
            DetectionEvent::MprMisbehaving {
                mpr: NodeId(1),
                reason: MisbehaviourReason::UnknownClaimedNeighbor(NodeId(99)),
                ..
            }
        ));
        // Second identical claim: N99 is now "known", no re-flag.
        assert!(ex.ingest_record(t(2), &hello(1, &[2, 99])).is_empty());
    }

    #[test]
    fn sole_connectivity_on_tick() {
        let mut ex = EventExtractor::new();
        ex.ingest_record(t(0), &LogRecord::MprSet { mprs: vec![NodeId(1)].into() });
        ex.ingest_record(t(0), &LogRecord::TwoHopAdded { via: NodeId(1), addr: NodeId(10) });
        ex.ingest_record(t(0), &LogRecord::TwoHopAdded { via: NodeId(1), addr: NodeId(11) });
        ex.ingest_record(t(0), &LogRecord::TwoHopAdded { via: NodeId(2), addr: NodeId(11) });
        let events = ex.tick(t(5), trustlink_sim::SimDuration::from_secs(100));
        let e3: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                DetectionEvent::SoleConnectivity { mpr, only_via, .. } => {
                    Some((*mpr, only_via.clone()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(e3, vec![(NodeId(1), vec![NodeId(10)])]);
        assert!(!crate::signature::opens_case(&events[0]));
    }

    #[test]
    fn tc_silence_flagged() {
        let mut ex = EventExtractor::new();
        ex.ingest_record(t(0), &LogRecord::MprSet { mprs: vec![NodeId(1)].into() });
        ex.ingest_record(
            t(1),
            &LogRecord::TcRx {
                originator: NodeId(1),
                sender: NodeId(1),
                ansn: 1,
                advertised: Box::from([NodeId(0)]),
            },
        );
        // Within the allowance: quiet.
        assert!(ex.tick(t(5), trustlink_sim::SimDuration::from_secs(10)).iter().all(
            |e| !matches!(
                e,
                DetectionEvent::MprMisbehaving { reason: MisbehaviourReason::TcSilence, .. }
            )
        ));
        // Long after: flagged.
        let events = ex.tick(t(30), trustlink_sim::SimDuration::from_secs(10));
        assert!(events.iter().any(|e| matches!(
            e,
            DetectionEvent::MprMisbehaving {
                mpr: NodeId(1),
                reason: MisbehaviourReason::TcSilence,
                ..
            }
        )));
    }

    #[test]
    fn tc_heard_advances_the_silence_clock() {
        let silence = trustlink_sim::SimDuration::from_secs(10);
        let is_silence = |e: &DetectionEvent| {
            matches!(
                e,
                DetectionEvent::MprMisbehaving { reason: MisbehaviourReason::TcSilence, .. }
            )
        };
        let mut ex = EventExtractor::new();
        ex.ingest_record(t(0), &LogRecord::MprSet { mprs: vec![NodeId(1)].into() });
        ex.ingest_record(
            t(1),
            &LogRecord::TcRx {
                originator: NodeId(1),
                sender: NodeId(1),
                ansn: 1,
                advertised: Box::from([NodeId(0)]),
            },
        );
        // Logged at t(20), the clock reads the reception at t(15): quiet
        // at t(20), silent once t(15) is more than 10 s behind.
        let events =
            ex.ingest_record(t(20), &LogRecord::TcHeard { originator: NodeId(1), heard_at: t(15) });
        assert!(events.is_empty());
        assert!(!ex.tick(t(20), silence).iter().any(is_silence));
        assert!(ex.tick(t(26), silence).iter().any(is_silence));
    }

    #[test]
    fn tc_advertising_unknown_selector_flagged() {
        let mut ex = EventExtractor::new();
        ex.ingest_record(t(0), &LogRecord::NeighborAdded { addr: NodeId(1) });
        let events = ex.ingest_record(
            t(1),
            &LogRecord::TcRx {
                originator: NodeId(5),
                sender: NodeId(1),
                ansn: 1,
                advertised: Box::from([NodeId(1), NodeId(99)]), // N99 never seen
            },
        );
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0],
            DetectionEvent::MprMisbehaving {
                mpr: NodeId(5),
                reason: MisbehaviourReason::UnknownClaimedNeighbor(NodeId(99)),
                ..
            }
        ));
        // Re-advertising the now-known selector does not re-flag.
        let again = ex.ingest_record(
            t(2),
            &LogRecord::TcRx {
                originator: NodeId(5),
                sender: NodeId(1),
                ansn: 2,
                advertised: Box::from([NodeId(99)]),
            },
        );
        assert!(again.is_empty());
    }

    #[test]
    fn decode_error_is_misbehaviour() {
        let mut ex = EventExtractor::new();
        let events = ex.ingest_record(t(2), &LogRecord::DecodeError { from: NodeId(4) });
        assert!(matches!(
            events[0],
            DetectionEvent::MprMisbehaving {
                mpr: NodeId(4),
                reason: MisbehaviourReason::MalformedTraffic,
                ..
            }
        ));
    }

    #[test]
    fn views_track_log_content() {
        let mut ex = EventExtractor::new();
        ex.ingest_record(t(0), &hello(1, &[2, 3]));
        ex.ingest_record(t(0), &LogRecord::TwoHopAdded { via: NodeId(1), addr: NodeId(3) });
        ex.ingest_record(t(0), &LogRecord::NeighborAdded { addr: NodeId(1) });
        assert_eq!(ex.claimed_neighbors_of(NodeId(1)), Some(&[NodeId(2), NodeId(3)][..]));
        assert_eq!(ex.vias_for(NodeId(3)), vec![NodeId(1)]);
        assert!(ex.neighbors().contains(&NodeId(1)));
        assert!(ex.is_known(NodeId(3)));
        assert!(!ex.is_known(NodeId(4)));
        // A changed HELLO rewrites the stored claims.
        ex.ingest_record(t(6), &hello(1, &[2]));
        assert_eq!(ex.claimed_neighbors_of(NodeId(1)), Some(&[NodeId(2)][..]));
    }
}
