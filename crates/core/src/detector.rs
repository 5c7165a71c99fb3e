//! The trust-enabled detector node — the paper's complete agent.
//!
//! A [`DetectorNode`] runs, in one simulated node:
//!
//! 1. the OLSR routing daemon (`trustlink-olsr`), untouched;
//! 2. a periodic **log analysis** pass that tails the node's own audit log
//!    (nothing else — the paper's architectural constraint), extracts
//!    detection events and feeds each to the signature progress of the
//!    suspects it names. The log is only read forward, so the pass releases
//!    what it has read unless flight recording keeps the whole log;
//! 3. the **cooperative investigation** of Algorithm 1, opened by the
//!    partial signature match: an event that satisfies the first stage of
//!    a built-in signature (E1, or E2 of any kind) opens a case on each
//!    MPR it incriminates. Witnesses are interrogated over the data plane,
//!    routing around the suspect;
//! 4. the **trust system** of §IV: answers are aggregated with formula (8),
//!    each weighted by the witness's trust and by the stability of the link
//!    it answers over, bounded by the confidence interval of formula (9),
//!    decided with rule (10), and every outcome feeds the formula (5) trust
//!    update — all through the case's
//!    [`Dispute`](trustlink_trust::dispute::Dispute), the judge the §V
//!    round model ([`crate::rounds`]) uses too;
//! 5. the **answering side**: every node (honest or lying, per
//!    [`LiarPolicy`]) answers link-verification requests about its own
//!    links.
//!
//! Everything the detector holds about one suspect sits in that suspect's
//! file, one entry of one map: its signature progress, a trigger held back
//! during warm-up, the open case, the round count, the MPRs it replaced and
//! whether it stands condemned. Only an event that opens a case creates a
//! file. An index of the open cases, by case id, names the files that hold
//! one, so a pass and an arriving answer visit only those.

use std::collections::BTreeMap;

use bytes::Bytes;
use rand::RngExt;
use trustlink_attacks::liar::LiarPolicy;
use trustlink_ids::events::{DetectionEvent, EventExtractor, MisbehaviourReason};
use trustlink_ids::investigation::{
    plan_witnesses, Investigation, InvestigationConfig, InvestigationMessage,
};
use trustlink_ids::signature::{opens_case, Progress, SignatureMatch};
use trustlink_olsr::hooks::{NoHooks, OlsrHooks};
use trustlink_olsr::node::OlsrNode;
use trustlink_olsr::types::OlsrConfig;
use trustlink_sim::{Application, Context, NodeId, SimDuration, SimTime, TimerToken};
use trustlink_trust::aggregate::{Answer, Evidence};
use trustlink_trust::decision::Verdict;
use trustlink_trust::dispute::Judgement;
use trustlink_trust::stability::{stability_weight, StabilityParams};
use trustlink_trust::store::TrustStore;
use trustlink_trust::value::{EvidenceKind, TrustValue};

/// Timer token for the periodic log-analysis pass.
pub const TIMER_ANALYSIS: TimerToken = TimerToken(2000);

/// Maximum investigation rounds per suspect before giving up.
const MAX_ROUNDS_PER_SUSPECT: u32 = 25;
/// |Detect| needed before testimony evidence is assigned to witnesses
/// (below it the round is too ambiguous to blame anyone). Kept small: with
/// ~43 % liars among the answerers the first rounds sit near `-(h-l)/n`,
/// and evidence must still flow for the trust system to bootstrap
/// (Figure 3's worst case).
const TESTIMONY_THRESHOLD: f64 = 0.05;

/// Tunables of the detector agent.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Period of the log-analysis pass (one *time slot* `Δt` of the trust
    /// system).
    pub analysis_interval: SimDuration,
    /// Investigation protocol parameters.
    pub investigation: InvestigationConfig,
    /// How this node answers link-verification requests.
    pub liar_policy: LiarPolicy,
    /// Probability an answer is actually produced (models application-level
    /// unreliability on top of radio loss; the paper's missing evidence).
    pub answer_probability: f64,
    /// Grace period after start-up during which no investigation is opened
    /// and no "never heard of it" denial is issued: the routing protocol
    /// needs time to converge before absence of knowledge means anything.
    pub warmup: SimDuration,
    /// Fallback cadence of the formula (5) time slot when no investigation
    /// is concluding. While cases finalize, slots align with investigation
    /// rounds (the paper's Δt *is* the round); this interval only paces
    /// background relaying evidence in quiet periods.
    pub trust_slot_interval: SimDuration,
    /// Keep flight-recorder side history: when each analysis pass sampled
    /// the log ([`DetectorNode::analysis_ticks`]) and every detection event
    /// it extracted ([`DetectorNode::extracted_events`]), and keep the
    /// node's whole audit log. Off by default — long large-network runs
    /// would hold the whole event history in memory; replay/audit scenarios
    /// switch it on. With it off, each analysis pass releases the records it
    /// has read ([`Context::release_log`]), so the node's log holds only the
    /// records no pass has analysed yet, and a post-hoc reader of the log
    /// (the flight recorder, rendered lines) sees only those.
    pub flight_recording: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            analysis_interval: SimDuration::from_secs(1),
            investigation: InvestigationConfig::default(),
            liar_policy: LiarPolicy::Honest,
            answer_probability: 1.0,
            warmup: SimDuration::from_secs(15),
            trust_slot_interval: SimDuration::from_secs(10),
            flight_recording: false,
        }
    }
}

/// One recorded decision about a suspect.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictRecord {
    /// Case identifier.
    pub case: u64,
    /// The judged node.
    pub suspect: NodeId,
    /// The rule (10) verdict.
    pub verdict: Verdict,
    /// The formula (8) detection value.
    pub detect: f64,
    /// The formula (9) margin of error.
    pub margin: f64,
    /// Witnesses interrogated.
    pub witnesses: usize,
    /// Witnesses that answered before the deadline.
    pub answered: usize,
    /// When the verdict was reached.
    pub at: SimTime,
}

/// Everything a detector holds about one suspect.
#[derive(Debug, Default)]
struct SuspectFile {
    /// Progress through the built-in signatures.
    progress: Progress,
    /// A trigger seen during warm-up, held until the routing view has
    /// converged, with the first contested-link hint such a trigger gave.
    held: Option<Option<NodeId>>,
    /// The open investigation, if any. Boxed, like `replaced`, because a
    /// file stays for good and most never see a case or an E1: every
    /// suspect named by a trigger gets one.
    case: Option<Box<Investigation>>,
    /// Investigation rounds opened so far.
    rounds: u32,
    /// The MPRs the suspect replaced in the latest E1 naming it (narrows
    /// witness selection).
    replaced: Box<[NodeId]>,
    /// Rule (10) convicted the suspect.
    condemned: bool,
}

/// The trust-enabled intrusion-detecting OLSR node.
///
/// Generic over [`OlsrHooks`] so an *attacker* can also run a detector
/// (defaults to the faithful [`NoHooks`]).
pub struct DetectorNode<H: OlsrHooks = NoHooks> {
    olsr: OlsrNode<H>,
    cfg: DetectorConfig,
    extractor: EventExtractor,
    trust: TrustStore<NodeId>,
    /// Absolute position in the node's audit log of the next record to
    /// analyse.
    cursor: usize,
    files: BTreeMap<NodeId, SuspectFile>,
    /// The open cases, by case id: the suspect whose file holds each one.
    open: BTreeMap<u64, NodeId>,
    /// A warm-up trigger is held in some file.
    held_any: bool,
    verdicts: Vec<VerdictRecord>,
    matches: Vec<SignatureMatch>,
    next_case: u64,
    started_at: SimTime,
    last_slot: SimTime,
    /// Side history, boxed so a node that does not record stays small;
    /// present only when [`DetectorConfig::flight_recording`] is on.
    recording: Option<Box<Recording>>,
}

/// A detector's flight-recorder side history.
#[derive(Debug, Default)]
struct Recording {
    /// `(when, log cursor after the pass)` per analysis pass.
    analysis_ticks: Vec<(SimTime, usize)>,
    /// Every detection event extracted, in extraction order.
    extracted_events: Vec<DetectionEvent>,
}

impl DetectorNode<NoHooks> {
    /// A faithful detector with the given OLSR and detector configs.
    pub fn new(olsr: OlsrConfig, cfg: DetectorConfig) -> Self {
        DetectorNode::with_hooks(olsr, cfg, NoHooks)
    }

    /// A faithful detector with default configs.
    pub fn with_defaults() -> Self {
        DetectorNode::new(OlsrConfig::default(), DetectorConfig::default())
    }
}

impl<H: OlsrHooks> DetectorNode<H> {
    /// A detector whose OLSR substrate misbehaves per `hooks` (an attacker
    /// that also runs the detection software, as in the paper's setting
    /// where every node hosts the IDS).
    pub fn with_hooks(olsr: OlsrConfig, cfg: DetectorConfig, hooks: H) -> Self {
        DetectorNode {
            olsr: OlsrNode::with_hooks(olsr, hooks),
            trust: TrustStore::new(TrustValue::DEFAULT),
            recording: cfg.flight_recording.then(Box::default),
            cfg,
            extractor: EventExtractor::new(),
            cursor: 0,
            files: BTreeMap::new(),
            open: BTreeMap::new(),
            held_any: false,
            verdicts: Vec::new(),
            matches: Vec::new(),
            next_case: 0,
            started_at: SimTime::ZERO,
            last_slot: SimTime::ZERO,
        }
    }

    // ---- inspection -------------------------------------------------------

    /// The underlying OLSR node.
    pub fn olsr(&self) -> &OlsrNode<H> {
        &self.olsr
    }

    /// The detector configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// All verdicts reached so far.
    pub fn verdicts(&self) -> &[VerdictRecord] {
        &self.verdicts
    }

    /// All completed signature matches (the paper's rule (4) detections).
    pub fn signature_matches(&self) -> &[SignatureMatch] {
        &self.matches
    }

    /// Current trust in `node`.
    pub fn trust_of(&self, node: NodeId) -> TrustValue {
        self.trust.trust_of(&node)
    }

    /// Snapshot of every tracked peer's trust, ascending by node.
    pub fn trust_snapshot(&self) -> Vec<(NodeId, f64)> {
        let mut v: Vec<(NodeId, f64)> = self.trust.peers().map(|(n, t)| (*n, t.get())).collect();
        v.sort_by_key(|(n, _)| *n);
        v
    }

    /// Nodes this detector has condemned as intruders, ascending.
    pub fn condemned(&self) -> Vec<NodeId> {
        self.files.iter().filter(|(_, f)| f.condemned).map(|(&s, _)| s).collect()
    }

    fn is_condemned(&self, node: NodeId) -> bool {
        self.files.get(&node).is_some_and(|f| f.condemned)
    }

    /// The log-derived view (for tests and tooling).
    pub fn extractor(&self) -> &EventExtractor {
        &self.extractor
    }

    /// Number of investigations still waiting for answers.
    pub fn open_cases(&self) -> usize {
        self.open.len()
    }

    /// When each analysis pass sampled the log, with the log cursor after
    /// the pass. Empty unless [`DetectorConfig::flight_recording`] is on.
    pub fn analysis_ticks(&self) -> &[(SimTime, usize)] {
        self.recording.as_ref().map_or(&[], |r| &r.analysis_ticks)
    }

    /// Every detection event extracted from the audit log, in extraction
    /// order. Empty unless [`DetectorConfig::flight_recording`] is on.
    pub fn extracted_events(&self) -> &[DetectionEvent] {
        self.recording.as_ref().map_or(&[], |r| &r.extracted_events)
    }

    // ---- analysis pass ----------------------------------------------------

    fn run_analysis(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        // 0. Bring the routing substrate's derived state (and therefore its
        // audit log) up to date before tailing it. With the incremental
        // recompute mode this is what guarantees every state transition is
        // logged within the analysis batch containing its moment — the
        // eager oracle and the incremental mode then feed this detector
        // identical per-batch evidence.
        self.olsr.refresh(ctx);
        // 1. Tail our own audit log — borrowed typed records straight into
        // the extractor, no text round-trip.
        let mut events: Vec<DetectionEvent> = Vec::new();
        let (records, next) = ctx.log_buffer().read_from(self.cursor);
        for (at, record) in records {
            events.extend(self.extractor.ingest_record(*at, record));
        }
        self.cursor = next;
        // The log is only read forward: drop what this pass analysed,
        // unless a recording needs the whole log afterwards.
        if !self.cfg.flight_recording {
            ctx.release_log(next);
        }
        // 2. Periodic checks (E3, TC silence). The silence allowance keys
        // off the scoped emission schedule: under fisheye flooding an MPR
        // legitimately skips 1-hop-audible TC slots when no ring is due
        // (sparse tables), so the allowance stretches by the worst-case
        // gap between emissions a 1-hop neighbor hears. Every MPR of ours
        // is 1 hop away, so `near_stride` is the right bound — with the
        // default ring table it is 1 and detection behaves exactly as in
        // classic flooding.
        let olsr_cfg = self.olsr.config();
        let silence = olsr_cfg.tc_interval * (4 * u64::from(olsr_cfg.flood_scope.near_stride()));
        events.extend(self.extractor.tick(now, silence));

        // Flight-recorder side history: where this pass sampled the log and
        // what it extracted, so a saved recording replays with the exact
        // live batching.
        if let Some(rec) = &mut self.recording {
            rec.analysis_ticks.push((now, self.cursor));
            rec.extracted_events.extend(events.iter().cloned());
        }

        // 3. Feed each event to the files of the suspects it names. An
        // event that satisfies the first stage of a built-in signature (the
        // partial match) opens a case on each of them, creating the file;
        // any other event only advances files that exist.
        let me = ctx.id();
        let warm = self.warmed_up(now);
        for ev in &events {
            let opens = opens_case(ev);
            // An unknown-claim event names the disputed link directly.
            let hint = match ev {
                DetectionEvent::MprMisbehaving {
                    reason: MisbehaviourReason::UnknownClaimedNeighbor(x),
                    ..
                } => Some(*x),
                _ => None,
            };
            for &suspect in ev.suspects() {
                let file = match self.files.get_mut(&suspect) {
                    Some(file) => file,
                    None if opens => self.files.entry(suspect).or_default(),
                    None => continue,
                };
                self.matches.extend(file.progress.observe(suspect, ev));
                if !opens {
                    continue;
                }
                if let DetectionEvent::MprReplaced { replaced, .. } = ev {
                    file.replaced = replaced.as_slice().into();
                }
                if suspect == me {
                    continue;
                }
                if warm {
                    self.maybe_open_case(ctx, suspect, hint);
                } else {
                    // Remember the trigger; investigate after warmup.
                    file.held = Some(file.held.flatten().or(hint));
                    self.held_any = true;
                }
            }
        }
        // Triggers held back during warmup become cases now.
        if warm && self.held_any {
            self.held_any = false;
            let held: Vec<(NodeId, Option<NodeId>)> =
                self.files.iter_mut().filter_map(|(&s, f)| Some((s, f.held.take()?))).collect();
            for (suspect, hint) in held {
                self.maybe_open_case(ctx, suspect, hint);
            }
        }

        // 4. Finalize due cases in the order they opened. A case reopened
        // here waits for the next pass.
        debug_assert!(self.open_index_agrees(), "open-case index out of step with the files");
        let due: Vec<(u64, NodeId)> = self
            .open
            .iter()
            .filter(|(_, s)| self.files[s].case.as_ref().is_some_and(|c| c.is_complete(now)))
            .map(|(&case, &s)| (case, s))
            .collect();
        let finalized_any = !due.is_empty();
        for (id, suspect) in due {
            self.open.remove(&id);
            if let Some(case) = self.files.get_mut(&suspect).and_then(|f| f.case.take()) {
                self.finalize_case(ctx, *case);
            }
        }

        // 5. Close the trust slot. The slot is the investigation round when
        // rounds are concluding (the paper's Δt); otherwise a slow periodic
        // tick paces background relaying evidence.
        let slot_due = now.saturating_since(self.last_slot) >= self.cfg.trust_slot_interval;
        if finalized_any || slot_due {
            // Background relaying evidence for current symmetric neighbors
            // (Property 1's beneficial activity).
            for n in self.olsr.symmetric_neighbors(now) {
                if !self.is_condemned(n) {
                    self.trust.record(n, EvidenceKind::NormalRelaying);
                }
            }
            self.trust.end_slot();
            self.last_slot = now;
        }
    }

    /// Whether `open` names exactly the cases the files hold.
    fn open_index_agrees(&self) -> bool {
        let mut held: Vec<(u64, NodeId)> =
            self.files.iter().filter_map(|(&s, f)| f.case.as_ref().map(|c| (c.case, s))).collect();
        held.sort_unstable();
        held.into_iter().eq(self.open.iter().map(|(&c, &s)| (c, s)))
    }

    /// Picks the advertised link of `suspect` worth disputing: a claimed
    /// neighbor that no independent source corroborates (reachable only via
    /// the suspect, not our own neighbor). A benign MPR change has none,
    /// which is what keeps honest churn from triggering investigations.
    fn pick_contested(&self, me: NodeId, suspect: NodeId) -> Option<NodeId> {
        let claimed = self.extractor.claimed_neighbors_of(suspect)?;
        claimed.iter().copied().filter(|&x| x != me && x != suspect).find(|&x| {
            let vias = self.extractor.vias_for(x);
            vias.iter().all(|v| *v == suspect) && !self.extractor.neighbors().contains(&x)
        })
    }

    fn warmed_up(&self, now: SimTime) -> bool {
        now.saturating_since(self.started_at) >= self.cfg.warmup
    }

    /// The stability weight of the evidence channel toward `peer` as of
    /// `now`, from the extractor's symmetric-link history.
    fn stability_of(&self, peer: NodeId, now: SimTime) -> f64 {
        let ls = self.extractor.link_stability(peer);
        stability_weight(&StabilityParams::default(), ls.age_secs(now), ls.secs_since_flap(now))
    }

    /// Whether this node's own adjacency to `peer` flapped within the
    /// flap memory.
    fn recently_flapped(&self, peer: NodeId, now: SimTime) -> bool {
        self.extractor
            .link_stability(peer)
            .secs_since_flap(now)
            .is_some_and(|s| s < StabilityParams::default().flap_memory_secs)
    }

    /// Whether this node logged the 2-hop pair `addr`-via-`via` as lost
    /// within the flap memory.
    fn recently_lost_two_hop(&self, via: NodeId, addr: NodeId, now: SimTime) -> bool {
        self.extractor.last_two_hop_loss(via, addr).is_some_and(|at| {
            now.saturating_since(at).as_secs_f64() < StabilityParams::default().flap_memory_secs
        })
    }

    fn maybe_open_case(&mut self, ctx: &mut Context<'_>, suspect: NodeId, hint: Option<NodeId>) {
        if !self.warmed_up(ctx.now()) {
            return; // the routing view is still converging
        }
        let Some(file) = self.files.get(&suspect) else {
            return;
        };
        if file.condemned || file.case.is_some() || file.rounds >= MAX_ROUNDS_PER_SUSPECT {
            return;
        }
        let me = ctx.id();
        // A hint names the link that looked wrong when the trigger fired
        // (an uncorroborated claim, or the contested link of a reopened
        // dispute) and is honoured as-is: even if the *node* has since been
        // corroborated, the *claim* was the anomaly, and a baseless dispute
        // resolves harmlessly as well-behaving. Without a hint, pick the
        // least-corroborated advertised link now.
        let hint = hint.filter(|&x| x != me && x != suspect);
        let Some(contested) = hint.or_else(|| self.pick_contested(me, suspect)) else {
            return; // every advertised link is corroborated: nothing to dispute
        };
        let witnesses = plan_witnesses(
            &self.extractor,
            me,
            suspect,
            &file.replaced,
            self.cfg.investigation.max_witnesses,
        );
        if witnesses.len() < 2 {
            return; // a single witness can never clear the margin of error
        }
        self.next_case += 1;
        // Snapshot how stable each witness link looks *now*: churn false
        // positives are triggered by a link dissolving, and the instability
        // is most visible at trigger time.
        let case = Investigation::open(
            self.next_case,
            suspect,
            contested,
            witnesses.iter().map(|&w| (w, self.stability_of(w, ctx.now()))),
            ctx.now(),
            self.cfg.investigation.timeout,
        );
        let req = InvestigationMessage::VerifyLinkRequest { case: case.case, suspect, contested };
        for &w in &witnesses {
            // Route around the suspect, per Algorithm 1.
            self.olsr.send_data(ctx, w, req.encode(), Some(suspect));
        }
        if let Some(file) = self.files.get_mut(&suspect) {
            file.rounds += 1;
            self.open.insert(case.case, suspect);
            file.case = Some(Box::new(case));
        }
    }

    fn finalize_case(&mut self, ctx: &mut Context<'_>, mut case: Investigation) {
        let now = ctx.now();
        let suspect = case.suspect;
        // Each witness row is scaled by the *least* stable view of its link
        // — the case-open snapshot or the current one. A link that flapped
        // right before the trigger, or that dissolved while the case ran,
        // counts for less either way.
        case.dispute.cap_stability(|w| self.stability_of(w, now));
        // Property 5: the investigator's own first-hand observation of the
        // contested link joins the evidence pool. It carries the weight of
        // one default-trust witness — privileged in that it cannot lie to
        // us, but not strong enough to overrule several trusted witnesses
        // (a full-weight self-vote can start a false-positive spiral when
        // the investigator simply lacks corroborating state).
        let own = self.verify_link(suspect, case.contested, now).map(|link_ok| Evidence {
            weight: TrustValue::DEFAULT.weight(),
            // First-hand observation of the contested link is only as
            // fresh as our links to the two nodes it connects.
            stability: self.stability_of(suspect, now).min(self.stability_of(case.contested, now)),
            answer: Answer::from_verification(link_ok),
        });
        let Judgement { detect, margin, verdict, answered } =
            case.dispute.judge(|w| self.trust.trust_of(&w).weight(), own);

        // Testimony evidence, keyed to the sign of the aggregate (§IV-B:
        // "this result is used to update the trust related to I and S_i").
        // Condemned nodes can no longer earn beneficial evidence.
        let truthful = if detect <= -TESTIMONY_THRESHOLD {
            Some(Answer::Deny)
        } else if detect >= TESTIMONY_THRESHOLD {
            Some(Answer::Confirm)
        } else {
            None
        };
        if let Some(truthful) = truthful {
            for (w, kind) in case.dispute.testimony(truthful) {
                if !self.is_condemned(w) {
                    self.trust.record(w, kind);
                }
            }
        }

        let file = self.files.entry(suspect).or_default();
        match verdict {
            Verdict::Intruder => {
                file.condemned = true;
                // Property 3: a confirmed intrusion collapses trust outright.
                self.trust.record(suspect, EvidenceKind::ForgedRouting);
                self.trust.set_trust(suspect, TrustValue::MIN);
                // Response: never select a convicted intruder as MPR again
                // (the CAP-OLSR-style exclusion of the paper's related work).
                self.olsr.exclude_from_mprs(suspect);
                // E4/E5 evidence completes the link-spoofing signature.
                for (w, a) in case.dispute.answers() {
                    let ev = match a {
                        Answer::Deny => {
                            DetectionEvent::NotCovering { mpr: suspect, neighbor: w, at: now }
                        }
                        Answer::NoAnswer => DetectionEvent::CoveringNonNeighbor {
                            mpr: suspect,
                            claimed: w,
                            at: now,
                        },
                        Answer::Confirm => continue,
                    };
                    self.matches.extend(file.progress.observe(suspect, &ev));
                }
            }
            Verdict::WellBehaving => file.progress.clear(),
            Verdict::Unrecognized => {
                // "more evidences should be collected": reopen immediately,
                // bounded by MAX_ROUNDS_PER_SUSPECT. The contested link is
                // an open dispute and carries over verbatim.
                let contested = case.contested;
                self.maybe_open_case(ctx, suspect, Some(contested));
            }
        }
        self.verdicts.push(VerdictRecord {
            case: case.case,
            suspect,
            verdict,
            detect,
            margin,
            witnesses: case.dispute.answers().len(),
            answered,
            at: now,
        });
    }

    fn handle_data(&mut self, ctx: &mut Context<'_>, src: NodeId, payload: Bytes) {
        let Ok(msg) = InvestigationMessage::decode(payload) else {
            return; // not investigation traffic
        };
        let now = ctx.now();
        match msg {
            InvestigationMessage::VerifyLinkRequest { case, suspect, contested } => {
                let truthful = self.verify_link(suspect, contested, now);
                let answer = self.cfg.liar_policy.answer_opt(truthful, suspect, ctx.rng());
                let Some(answer) = answer else {
                    return; // honest abstention: no knowledge of the link
                };
                if self.cfg.answer_probability < 1.0
                    && !ctx.rng().random_bool(self.cfg.answer_probability)
                {
                    return; // answer withheld (unreliable environment)
                }
                let resp = InvestigationMessage::VerifyLinkResponse {
                    case,
                    suspect,
                    witness: ctx.id(),
                    link_exists: answer,
                };
                self.olsr.send_data(ctx, src, resp.encode(), Some(suspect));
            }
            InvestigationMessage::VerifyLinkResponse { case, witness, link_exists, .. } => {
                let open = self.open.get(&case).and_then(|s| self.files.get_mut(s));
                if let Some(c) = open.and_then(|f| f.case.as_mut()) {
                    c.dispute.record_answer(witness, link_exists);
                }
            }
        }
    }

    /// What this node truthfully knows about the link `suspect`–`contested`
    /// (the E4/E5 checks a witness performs on its own state):
    ///
    /// * `Some(true)` — I corroborate the link (I *am* the contested peer
    ///   and hold the link, or I hear the contested peer claim it);
    /// * `Some(false)` — I affirmatively contradict it (I am the contested
    ///   peer and hold no such link — E4 — or nobody but the suspect has
    ///   ever mentioned the contested node — E5's non-existent neighbor);
    /// * `None` — I know the contested node exists but cannot see the link:
    ///   abstain rather than guess.
    ///
    /// A *denial* from either direct-knowledge branch additionally requires
    /// the denied link not to have been seen alive within the flap memory: a
    /// link the witness watched dissolve moments ago is indistinguishable
    /// from benign churn, so it abstains rather than feeding rule (10) a
    /// truthful-but-misleading `Deny`. A phantom link was never seen alive,
    /// so spoof denials stay crisp.
    fn verify_link(&self, suspect: NodeId, contested: NodeId, now: SimTime) -> Option<bool> {
        let me = self.olsr.id();
        if contested == me {
            let holds = self.olsr.is_symmetric_neighbor(suspect, now);
            if !holds && self.recently_flapped(suspect, now) {
                return None; // I just lost that link myself: churn, not spoofing
            }
            return Some(holds);
        }
        if self.olsr.is_symmetric_neighbor(contested, now) {
            // I hear the contested node's own HELLOs: does *it* claim the
            // suspect as a symmetric neighbor?
            let claims = self.olsr.two_hop_set().contains(contested, suspect, now);
            if !claims
                && (self.recently_lost_two_hop(contested, suspect, now)
                    || self.recently_flapped(contested, now))
            {
                return None; // I saw that link (or my view of it) die moments ago
            }
            return Some(claims);
        }
        // Corroboration through anyone other than the suspect?
        let via_other = self.olsr.two_hop_set().iter_vias_for(contested, now).any(|v| v != suspect);
        if !via_other && !self.olsr.topology_set().mentions(contested, suspect, now) {
            if self.warmed_up(now) {
                Some(false) // nobody but the suspect has ever heard of it
            } else {
                None // my own view is too young to testify to absence
            }
        } else {
            None // it exists somewhere, but I cannot see this link
        }
    }
}

impl<H: OlsrHooks> Application for DetectorNode<H> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.started_at = ctx.now();
        self.olsr.on_start(ctx);
        let stagger = trustlink_sim::SimDuration::from_micros(
            ctx.rng().random_range(0..self.cfg.analysis_interval.as_micros().max(1)),
        );
        ctx.set_timer(self.cfg.analysis_interval + stagger, TIMER_ANALYSIS);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        if timer == TIMER_ANALYSIS {
            self.run_analysis(ctx);
            ctx.set_timer(self.cfg.analysis_interval, TIMER_ANALYSIS);
        } else {
            self.olsr.on_timer(ctx, timer);
        }
    }

    fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        self.olsr.on_receive(ctx, from, payload);
        // A payload `handle_data` sends to this node lands in the node's
        // fresh inbox and waits for the next reception.
        let mut inbox = self.olsr.take_inbox();
        for data in inbox.drain(..) {
            self.handle_data(ctx, data.src, data.payload);
        }
        self.olsr.recycle_inbox(inbox);
    }
}

impl<H: OlsrHooks> std::fmt::Debug for DetectorNode<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectorNode")
            .field("olsr", &self.olsr)
            .field("open_cases", &self.open_cases())
            .field("verdicts", &self.verdicts.len())
            .field("condemned", &self.condemned())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustlink_sim::record::LogRecord;
    use trustlink_sim::record::Willingness;
    use trustlink_trust::decision::DecisionRule;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn detector() -> DetectorNode {
        DetectorNode::with_defaults()
    }

    fn hello(d: &mut DetectorNode, from: u32, sym: &[u32], at: SimTime) {
        d.extractor.ingest_record(
            at,
            &LogRecord::HelloRx {
                from: NodeId(from),
                willingness: Willingness::Default,
                sym: sym.iter().map(|&n| NodeId(n)).collect(),
                asym: Box::from([]),
            },
        );
    }

    #[test]
    fn pick_contested_selects_uncorroborated_claim() {
        let mut d = detector();
        // Suspect N4 claims N1 (corroborated) and N8 (only via N4).
        hello(&mut d, 4, &[1, 8], t(1));
        d.extractor
            .ingest_record(t(1), &LogRecord::TwoHopAdded { via: NodeId(4), addr: NodeId(8) });
        d.extractor
            .ingest_record(t(1), &LogRecord::TwoHopAdded { via: NodeId(4), addr: NodeId(1) });
        d.extractor
            .ingest_record(t(1), &LogRecord::TwoHopAdded { via: NodeId(2), addr: NodeId(1) });
        assert_eq!(d.pick_contested(NodeId(0), NodeId(4)), Some(NodeId(8)));
    }

    #[test]
    fn pick_contested_none_when_all_claims_corroborated() {
        let mut d = detector();
        hello(&mut d, 4, &[1, 8], t(1));
        for via in [2u32, 4] {
            d.extractor
                .ingest_record(t(1), &LogRecord::TwoHopAdded { via: NodeId(via), addr: NodeId(8) });
            d.extractor
                .ingest_record(t(1), &LogRecord::TwoHopAdded { via: NodeId(via), addr: NodeId(1) });
        }
        assert_eq!(d.pick_contested(NodeId(0), NodeId(4)), None);
    }

    #[test]
    fn pick_contested_skips_own_neighbors_and_self() {
        let mut d = detector();
        // Suspect claims me (N0) and my direct neighbor N1: neither is a
        // plausible phantom.
        hello(&mut d, 4, &[0, 1], t(1));
        d.extractor.ingest_record(t(1), &LogRecord::NeighborAdded { addr: NodeId(1) });
        assert_eq!(d.pick_contested(NodeId(0), NodeId(4)), None);
    }

    #[test]
    fn warmup_gate_follows_config() {
        let d = detector(); // default warmup 15 s
        assert!(!d.warmed_up(t(1)));
        assert!(!d.warmed_up(t(14)));
        assert!(d.warmed_up(t(15)));
    }

    /// A triangle of detectors: N1 and N2 100 m from N0 along either axis,
    /// all within range, run until warmed up.
    fn triangle() -> trustlink_sim::Simulator {
        use trustlink_sim::{Arena, Position, RadioConfig, SimulatorBuilder};
        let mut sim = SimulatorBuilder::new(5)
            .arena(Arena::new(1000.0, 1000.0))
            .radio(RadioConfig::unit_disk(170.0))
            .build();
        for (x, y) in [(200.0, 200.0), (300.0, 200.0), (200.0, 300.0)] {
            let d = DetectorNode::new(OlsrConfig::fast(), DetectorConfig::default());
            sim.add_node(Box::new(d), Position::new(x, y));
        }
        sim.run_for(SimDuration::from_secs(20));
        sim
    }

    /// N0's answer about the link `suspect`–`contested`, as of now.
    fn verify_at_n0(sim: &trustlink_sim::Simulator, suspect: u32, contested: u32) -> Option<bool> {
        let d = sim.app_as::<DetectorNode>(NodeId(0)).expect("detector");
        d.verify_link(NodeId(suspect), NodeId(contested), sim.now())
    }

    #[test]
    fn verify_link_abstains_on_a_recent_two_hop_loss() {
        let mut sim = triangle();
        assert_eq!(verify_at_n0(&sim, 1, 2), Some(true), "N2 claims N1");
        // N1 steps out of N2's range but stays in N0's: N2 stops claiming
        // N1, and N0 logs the 2-hop pair as lost.
        sim.set_position(NodeId(1), trustlink_sim::Position::new(300.0, 100.0));
        sim.run_for(SimDuration::from_secs(5));
        let d = sim.app_as::<DetectorNode>(NodeId(0)).expect("detector");
        assert!(d.extractor().last_two_hop_loss(NodeId(2), NodeId(1)).is_some());
        assert!(d.olsr().is_symmetric_neighbor(NodeId(1), sim.now()));
        assert_eq!(verify_at_n0(&sim, 1, 2), None, "a link seen dying is churn");
        assert_eq!(verify_at_n0(&sim, 1, 99), Some(false), "a phantom is still denied");
        // Past the flap memory the loss is old news: deny.
        sim.run_for(SimDuration::from_secs(30));
        assert_eq!(verify_at_n0(&sim, 1, 2), Some(false));
    }

    #[test]
    fn verify_link_abstains_on_a_recent_neighbor_loss() {
        let mut sim = triangle();
        assert_eq!(verify_at_n0(&sim, 1, 0), Some(true), "N0 holds the link to N1");
        // N1 leaves everyone's range: N0 logs NBR_LOST for it.
        sim.set_position(NodeId(1), trustlink_sim::Position::new(900.0, 900.0));
        sim.run_for(SimDuration::from_secs(5));
        let d = sim.app_as::<DetectorNode>(NodeId(0)).expect("detector");
        assert!(!d.olsr().is_symmetric_neighbor(NodeId(1), sim.now()));
        assert_eq!(verify_at_n0(&sim, 1, 0), None, "my own link just died: churn");
        assert_eq!(verify_at_n0(&sim, 1, 99), Some(false), "a phantom is still denied");
        sim.run_for(SimDuration::from_secs(30));
        assert_eq!(verify_at_n0(&sim, 1, 0), Some(false));
    }

    /// A detector whose audit log also receives scripted records, each at
    /// the first analysis pass at or after its time.
    struct Scripted {
        det: DetectorNode,
        script: Vec<(SimTime, LogRecord)>,
    }

    impl Application for Scripted {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.det.on_start(ctx);
        }

        fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
            if timer == TIMER_ANALYSIS {
                let due = self.script.iter().take_while(|(at, _)| *at <= ctx.now()).count();
                for (_, record) in self.script.drain(..due) {
                    ctx.log(record);
                }
            }
            self.det.on_timer(ctx, timer);
        }

        fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
            self.det.on_receive(ctx, from, payload);
        }
    }

    /// A lone detector N0 fed `script`, with the given warm-up.
    fn scripted(warmup: u64, script: Vec<(SimTime, LogRecord)>) -> trustlink_sim::Simulator {
        use trustlink_sim::{Position, SimulatorBuilder};
        let cfg = DetectorConfig {
            warmup: SimDuration::from_secs(warmup),
            flight_recording: true,
            ..DetectorConfig::default()
        };
        let det = DetectorNode::new(OlsrConfig::fast(), cfg);
        let mut sim = SimulatorBuilder::new(7).build();
        sim.add_node(Box::new(Scripted { det, script }), Position::new(0.0, 0.0));
        sim
    }

    fn files(sim: &trustlink_sim::Simulator) -> &BTreeMap<NodeId, SuspectFile> {
        &sim.app_as::<Scripted>(NodeId(0)).expect("scripted detector").det.files
    }

    fn hello_rx(from: u32, sym: &[u32]) -> LogRecord {
        LogRecord::HelloRx {
            from: NodeId(from),
            willingness: Willingness::Default,
            sym: sym.iter().map(|&n| NodeId(n)).collect(),
            asym: Box::from([]),
        }
    }

    #[test]
    fn a_repeat_trigger_at_stage_one_still_opens_a_case() {
        // N4 first claims only the unknown N99: one witness, so the case is
        // refused. Its next unknown claim finds the file at stage 1 already,
        // and now with enough witnesses it must open the case.
        let sim = &mut scripted(
            0,
            vec![
                (t(1), hello_rx(1, &[])),
                (t(1), hello_rx(2, &[])),
                (t(1), hello_rx(4, &[99])),
                (t(5), hello_rx(4, &[1, 2, 99, 98])),
            ],
        );
        sim.run_until(t(3));
        let file = &files(sim)[&NodeId(4)];
        assert_eq!(file.progress.stages(), [1, 0]);
        assert!(file.case.is_none());
        assert_eq!(file.rounds, 0);
        sim.run_until(t(7));
        let file = &files(sim)[&NodeId(4)];
        assert_eq!(file.progress.stages(), [1, 0], "the repeat trigger advanced nothing");
        let case = file.case.as_ref().expect("the repeat trigger opened a case");
        assert_eq!((case.case, case.contested, file.rounds), (1, NodeId(98), 1));
    }

    #[test]
    fn warmup_triggers_open_in_ascending_suspect_order_with_the_first_hint() {
        // During warm-up N7 triggers first, then N5 three times: without a
        // hint, then with N50, then with N51.
        let sim = &mut scripted(
            10,
            vec![
                (t(1), hello_rx(1, &[])),
                (t(1), hello_rx(2, &[])),
                (t(2), hello_rx(7, &[1, 2, 70])),
                (t(3), hello_rx(5, &[1, 2])),
                (t(3), LogRecord::DecodeError { from: NodeId(5) }),
                (t(4), hello_rx(5, &[1, 2, 50])),
                (t(5), hello_rx(5, &[1, 2, 50, 51])),
            ],
        );
        sim.run_until(t(9));
        let held: Vec<_> = files(sim).iter().map(|(&s, f)| (s, f.held, f.case.is_some())).collect();
        assert_eq!(
            held,
            vec![
                (NodeId(5), Some(Some(NodeId(50))), false),
                (NodeId(7), Some(Some(NodeId(70))), false)
            ]
        );
        sim.run_until(t(12));
        let opened: Vec<_> = files(sim)
            .iter()
            .map(|(&s, f)| {
                let case = f.case.as_ref().expect("held trigger opened a case");
                (s, case.case, case.contested, f.held)
            })
            .collect();
        assert_eq!(
            opened,
            vec![(NodeId(5), 1, NodeId(50), None), (NodeId(7), 2, NodeId(70), None)]
        );
    }

    #[test]
    fn events_that_open_no_case_create_no_file() {
        // 1 000 MPRs, each the only via to its own 2-hop node: every pass
        // extracts 1 000 E3 events naming distinct ids.
        let mut script =
            vec![(t(1), LogRecord::MprSet { mprs: (1_000..2_000).map(NodeId).collect() })];
        script.extend((0..1_000).map(|i| {
            (t(1), LogRecord::TwoHopAdded { via: NodeId(1_000 + i), addr: NodeId(5_000 + i) })
        }));
        let sim = &mut scripted(0, script);
        sim.run_until(t(4));
        let det = &sim.app_as::<Scripted>(NodeId(0)).expect("scripted detector").det;
        let e3 = det
            .extracted_events()
            .iter()
            .filter(|ev| matches!(ev, DetectionEvent::SoleConnectivity { .. }))
            .count();
        assert!(e3 >= 1_000, "{e3} E3 events");
        assert!(det.files.is_empty(), "{} files", det.files.len());
    }

    #[test]
    fn default_config_is_coherent() {
        let cfg = DetectorConfig::default();
        let gamma = DecisionRule::default().gamma();
        assert!(gamma > 0.0 && gamma <= 1.0);
        assert!((0.0..=1.0).contains(&cfg.answer_probability));
        assert!(TESTIMONY_THRESHOLD < gamma);
        assert!(cfg.warmup > cfg.analysis_interval);
    }
}
