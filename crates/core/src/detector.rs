//! The trust-enabled detector node — the paper's complete agent.
//!
//! A [`DetectorNode`] runs, in one simulated node:
//!
//! 1. the OLSR routing daemon (`trustlink-olsr`), untouched;
//! 2. a periodic **log analysis** pass that tails the node's own audit log
//!    (nothing else — the paper's architectural constraint), extracts
//!    detection events and feeds the signature engine;
//! 3. the **cooperative investigation** of Algorithm 1 when a suspicious
//!    event (E1/E2) incriminates an MPR: witnesses are interrogated over
//!    the data plane, routing around the suspect;
//! 4. the **trust system** of §IV: answers are aggregated with formula (8),
//!    bounded by the confidence interval of formula (9), decided with rule
//!    (10), and every outcome feeds the formula (5) trust update;
//! 5. the **answering side**: every node (honest or lying, per
//!    [`LiarPolicy`]) answers link-verification requests about its own
//!    links.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use rand::RngExt;
use trustlink_attacks::liar::LiarPolicy;
use trustlink_ids::events::{DetectionEvent, EventExtractor, MisbehaviourReason};
use trustlink_ids::investigation::{
    plan_witnesses, Investigation, InvestigationConfig, InvestigationMessage, WitnessAnswer,
};
use trustlink_ids::signature::{SignatureEngine, SignatureMatch};
use trustlink_olsr::hooks::{NoHooks, OlsrHooks};
use trustlink_olsr::node::OlsrNode;
use trustlink_olsr::types::OlsrConfig;
use trustlink_sim::{Application, Context, NodeId, SimDuration, SimTime, TimerToken};
use trustlink_trust::aggregate::{detection_value, evidence_samples, Answer, Evidence};
use trustlink_trust::confidence::{margin_of_error, CONFIDENCE_LEVEL};
use trustlink_trust::decision::{DecisionRule, Verdict};
use trustlink_trust::propagation::{multipath, Recommendation};
use trustlink_trust::stability::{stability_weight, StabilityParams};
use trustlink_trust::store::TrustStore;
use trustlink_trust::value::{EvidenceKind, TrustValue};

/// Timer token for the periodic log-analysis pass.
pub const TIMER_ANALYSIS: TimerToken = TimerToken(2000);
/// Timer token for the periodic trust-recommendation exchange.
pub const TIMER_GOSSIP: TimerToken = TimerToken(2001);

/// Window of the partially-ordered signature matcher.
const SIGNATURE_WINDOW: SimDuration = SimDuration::from_secs(120);
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
    /// Ablation: when `false`, formula (8) is replaced by an unweighted
    /// average (the "no trust system" baseline).
    pub trust_weighting: bool,
    /// When `true`, every piece of evidence is additionally scaled by the
    /// *stability* of the link it was sourced over — the symmetric-link age
    /// and flap history the extractor reads from the typed audit log.
    /// Young or flapping links dilute their evidence toward zero (like
    /// partial non-answers), so mobility churn degrades detection
    /// gracefully instead of convicting honest nodes whose links dissolved
    /// mid-advertisement. Mature stable links weigh exactly `1.0`: a
    /// flap-free run is bit-identical with the knob on or off (pinned by
    /// `tests/stability_equivalence.rs`), which is why the mobile suites
    /// can enable it while the stationary golden digests stay untouched.
    /// Off by default, like the other behaviour-changing knob
    /// (`FloodScope::Fisheye`); only meaningful while `trust_weighting` is
    /// on — the unweighted ablation baseline ignores it.
    pub stability_weighting: bool,
    /// Grace period after start-up during which no investigation is opened
    /// and no "never heard of it" denial is issued: the routing protocol
    /// needs time to converge before absence of knowledge means anything.
    pub warmup: SimDuration,
    /// Fallback cadence of the formula (5) time slot when no investigation
    /// is concluding. While cases finalize, slots align with investigation
    /// rounds (the paper's Δt *is* the round); this interval only paces
    /// background relaying evidence in quiet periods.
    pub trust_slot_interval: SimDuration,
    /// When set, this node periodically sends its trust ledger to its
    /// symmetric neighbors and merges theirs as *recommendations*
    /// (formulas 6/7; see [`DetectorNode::indirect_trust_of`]). `None`
    /// disables the exchange.
    pub gossip_interval: Option<SimDuration>,
    /// Keep flight-recorder side history: when each analysis pass sampled
    /// the log ([`DetectorNode::analysis_ticks`]) and every detection event
    /// it extracted ([`DetectorNode::extracted_events`]). Off by default —
    /// long large-network runs would hold the whole event history in
    /// memory; replay/audit scenarios switch it on.
    pub flight_recording: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            analysis_interval: SimDuration::from_secs(1),
            investigation: InvestigationConfig::default(),
            liar_policy: LiarPolicy::Honest,
            answer_probability: 1.0,
            trust_weighting: true,
            stability_weighting: false,
            warmup: SimDuration::from_secs(15),
            trust_slot_interval: SimDuration::from_secs(10),
            gossip_interval: None,
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

/// The trust-enabled intrusion-detecting OLSR node.
///
/// Generic over [`OlsrHooks`] so an *attacker* can also run a detector
/// (defaults to the faithful [`NoHooks`]).
pub struct DetectorNode<H: OlsrHooks = NoHooks> {
    olsr: OlsrNode<H>,
    cfg: DetectorConfig,
    extractor: EventExtractor,
    engine: SignatureEngine,
    trust: TrustStore<NodeId>,
    cursor: usize,
    cases: Vec<Investigation>,
    /// Replaced MPRs remembered per suspect (narrows witness selection).
    old_mprs: BTreeMap<NodeId, Vec<NodeId>>,
    rounds: BTreeMap<NodeId, u32>,
    condemned: BTreeSet<NodeId>,
    verdicts: Vec<VerdictRecord>,
    matches: Vec<SignatureMatch>,
    next_case: u64,
    started_at: SimTime,
    last_slot: SimTime,
    /// Latest trust digest received from each recommender.
    recommendations: BTreeMap<NodeId, Vec<(NodeId, TrustValue)>>,
    /// Suspicious triggers observed during warmup, investigated once the
    /// routing view has converged. Maps suspect to the contested-link hint.
    pending_suspects: BTreeMap<NodeId, Option<NodeId>>,
    /// `(when, log cursor after the pass)` per analysis pass; only kept
    /// when [`DetectorConfig::flight_recording`] is on.
    analysis_ticks: Vec<(SimTime, usize)>,
    /// Every detection event extracted, in extraction order; only kept
    /// when [`DetectorConfig::flight_recording`] is on.
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
            engine: SignatureEngine::with_builtin(SIGNATURE_WINDOW),
            trust: TrustStore::new(TrustValue::DEFAULT),
            cfg,
            extractor: EventExtractor::new(),
            cursor: 0,
            cases: Vec::new(),
            old_mprs: BTreeMap::new(),
            rounds: BTreeMap::new(),
            condemned: BTreeSet::new(),
            verdicts: Vec::new(),
            matches: Vec::new(),
            next_case: 0,
            started_at: SimTime::ZERO,
            last_slot: SimTime::ZERO,
            recommendations: BTreeMap::new(),
            pending_suspects: BTreeMap::new(),
            analysis_ticks: Vec::new(),
            extracted_events: Vec::new(),
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

    /// Nodes this detector has condemned as intruders.
    pub fn condemned(&self) -> Vec<NodeId> {
        self.condemned.iter().copied().collect()
    }

    /// The log-derived view (for tests and tooling).
    pub fn extractor(&self) -> &EventExtractor {
        &self.extractor
    }

    /// Number of investigations still waiting for answers.
    pub fn open_cases(&self) -> usize {
        self.cases.len()
    }

    /// When each analysis pass sampled the log, with the log cursor after
    /// the pass. Empty unless [`DetectorConfig::flight_recording`] is on.
    pub fn analysis_ticks(&self) -> &[(SimTime, usize)] {
        &self.analysis_ticks
    }

    /// Every detection event extracted from the audit log, in extraction
    /// order. Empty unless [`DetectorConfig::flight_recording`] is on.
    pub fn extracted_events(&self) -> &[DetectionEvent] {
        &self.extracted_events
    }

    /// Trust in `target` propagated from the neighbors' recommendations:
    /// formula (7) multipath merge, each recommendation discounted by the
    /// recommender's own trustworthiness (formula 6 via
    /// [`Recommendation::from_trust`]). Returns [`TrustValue::ZERO`]
    /// (maximal uncertainty) when no usable recommendation exists.
    ///
    /// Requires [`DetectorConfig::gossip_interval`] to be set on the
    /// recommending neighbors.
    pub fn indirect_trust_of(&self, target: NodeId) -> TrustValue {
        let pairs = self.recommendations.iter().filter_map(|(source, entries)| {
            let t_source_target = entries.iter().find(|(n, _)| *n == target).map(|(_, t)| *t)?;
            Some((Recommendation::from_trust(self.trust.trust_of(source)), t_source_target))
        });
        multipath(pairs)
    }

    /// Number of neighbors whose recommendations are currently held.
    pub fn recommender_count(&self) -> usize {
        self.recommendations.len()
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
        if self.cfg.flight_recording {
            self.analysis_ticks.push((now, self.cursor));
            self.extracted_events.extend(events.iter().cloned());
        }

        // 3. Feed the signature engine; open investigations on suspicion.
        let me = ctx.id();
        for ev in &events {
            for m in self.engine.observe(ev) {
                self.matches.push(m);
            }
            if ev.criticality() == trustlink_ids::events::Criticality::Suspicious {
                if let DetectionEvent::MprReplaced { replaced, replacing, .. } = ev {
                    for s in replacing {
                        self.old_mprs.insert(*s, replaced.clone());
                    }
                }
                // An unknown-claim event names the disputed link directly.
                let hint = match ev {
                    DetectionEvent::MprMisbehaving {
                        reason: MisbehaviourReason::UnknownClaimedNeighbor(x),
                        ..
                    } => Some(*x),
                    _ => None,
                };
                for suspect in ev.suspects() {
                    if suspect == me {
                        continue;
                    }
                    if self.warmed_up(ctx.now()) {
                        self.maybe_open_case(ctx, suspect, hint);
                    } else {
                        // Remember the trigger; investigate after warmup.
                        let entry = self.pending_suspects.entry(suspect).or_insert(hint);
                        if entry.is_none() {
                            *entry = hint;
                        }
                    }
                }
            }
        }
        // Triggers held back during warmup become cases now.
        if self.warmed_up(ctx.now()) && !self.pending_suspects.is_empty() {
            let pending = std::mem::take(&mut self.pending_suspects);
            for (suspect, hint) in pending {
                self.maybe_open_case(ctx, suspect, hint);
            }
        }

        // 4. Finalize due cases.
        let now = ctx.now();
        let due: Vec<Investigation> = {
            let (done, open): (Vec<_>, Vec<_>) =
                std::mem::take(&mut self.cases).into_iter().partition(|c| c.is_complete(now));
            self.cases = open;
            done
        };
        let finalized_any = !due.is_empty();
        for case in due {
            self.finalize_case(ctx, case);
        }

        // 5. Close the trust slot. The slot is the investigation round when
        // rounds are concluding (the paper's Δt); otherwise a slow periodic
        // tick paces background relaying evidence.
        let slot_due = now.saturating_since(self.last_slot) >= self.cfg.trust_slot_interval;
        if finalized_any || slot_due {
            // Background relaying evidence for current symmetric neighbors
            // (Property 1's beneficial activity).
            for n in self.olsr.symmetric_neighbors(now) {
                if !self.condemned.contains(&n) {
                    self.trust.record(n, EvidenceKind::NormalRelaying);
                }
            }
            self.trust.end_slot();
            self.last_slot = now;
        }
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
    /// configured flap memory. Only meaningful with stability weighting on;
    /// always `false` otherwise so the legacy answer path is untouched.
    fn recently_flapped(&self, peer: NodeId, now: SimTime) -> bool {
        self.cfg.stability_weighting
            && self
                .extractor
                .link_stability(peer)
                .secs_since_flap(now)
                .is_some_and(|s| s < StabilityParams::default().flap_memory_secs)
    }

    /// Whether this node logged the 2-hop pair `addr`-via-`via` as lost
    /// within the flap memory. Gated like [`Self::recently_flapped`].
    fn recently_lost_two_hop(&self, via: NodeId, addr: NodeId, now: SimTime) -> bool {
        self.cfg.stability_weighting
            && self.extractor.last_two_hop_loss(via, addr).is_some_and(|at| {
                now.saturating_since(at).as_secs_f64() < StabilityParams::default().flap_memory_secs
            })
    }

    fn maybe_open_case(&mut self, ctx: &mut Context<'_>, suspect: NodeId, hint: Option<NodeId>) {
        if !self.warmed_up(ctx.now()) {
            return; // the routing view is still converging
        }
        if self.condemned.contains(&suspect) {
            return;
        }
        if self.cases.iter().any(|c| c.suspect == suspect) {
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
        let rounds = self.rounds.entry(suspect).or_insert(0);
        if *rounds >= MAX_ROUNDS_PER_SUSPECT {
            return;
        }
        let old = self.old_mprs.get(&suspect).cloned().unwrap_or_default();
        let witnesses = plan_witnesses(
            &self.extractor,
            me,
            suspect,
            &old,
            self.cfg.investigation.max_witnesses,
        );
        if witnesses.len() < 2 {
            return; // a single witness can never clear the margin of error
        }
        *rounds += 1;
        self.next_case += 1;
        let mut case = Investigation::open(
            self.next_case,
            suspect,
            contested,
            witnesses.iter().copied(),
            ctx.now(),
            self.cfg.investigation.timeout,
        );
        if self.cfg.stability_weighting {
            // Snapshot how stable each witness link looks *now*: churn
            // false positives are triggered by a link dissolving, and the
            // instability is most visible at trigger time.
            let snapshot =
                witnesses.iter().map(|&w| self.stability_of(w, ctx.now())).collect::<Vec<_>>();
            case = case.with_witness_stability(snapshot);
        }
        let req = InvestigationMessage::VerifyLinkRequest { case: case.case, suspect, contested };
        for &w in &witnesses {
            // Route around the suspect, per Algorithm 1.
            self.olsr.send_data(ctx, w, req.encode(), Some(suspect));
        }
        self.cases.push(case);
    }

    fn finalize_case(&mut self, ctx: &mut Context<'_>, case: Investigation) {
        let now = ctx.now();
        let suspect = case.suspect;
        let mut pairs: Vec<(NodeId, Answer)> = Vec::new();
        for (w, a) in case.answers() {
            let answer = match a {
                WitnessAnswer::Pending => Answer::NoAnswer,
                WitnessAnswer::Confirmed => Answer::Confirm,
                WitnessAnswer::Denied => Answer::Deny,
            };
            pairs.push((*w, answer));
        }
        // One evidence row per witness. Without trust weighting every row
        // weighs 1.0; stability is weighed only on top of trust weighting
        // (the unweighted ablation ignores it) and is otherwise 1.0.
        let weigh_stability = self.cfg.trust_weighting && self.cfg.stability_weighting;
        let weight =
            |trust: TrustValue| if self.cfg.trust_weighting { trust.weight() } else { 1.0 };
        let mut pool: Vec<Evidence> = pairs
            .iter()
            .map(|&(w, answer)| Evidence {
                weight: weight(self.trust.trust_of(&w)),
                // The *least* stable view of the witness's link — the
                // case-open snapshot or the current one. A link that flapped
                // right before the trigger, or that dissolved while the case
                // ran, counts for less either way.
                stability: if weigh_stability {
                    case.witness_stability(w).min(self.stability_of(w, now))
                } else {
                    1.0
                },
                answer,
            })
            .collect();
        // Property 5: the investigator's own first-hand observation of the
        // contested link joins the evidence pool. It carries the weight of
        // one default-trust witness — privileged in that it cannot lie to
        // us, but not strong enough to overrule several trusted witnesses
        // (a full-weight self-vote can start a false-positive spiral when
        // the investigator simply lacks corroborating state).
        if let Some(link_ok) = self.verify_link(suspect, case.contested, now) {
            pool.push(Evidence {
                weight: weight(TrustValue::DEFAULT),
                // First-hand observation of the contested link is only as
                // fresh as our links to the two nodes it connects.
                stability: if weigh_stability {
                    self.stability_of(suspect, now).min(self.stability_of(case.contested, now))
                } else {
                    1.0
                },
                answer: Answer::from_verification(link_ok),
            });
        }
        let detect = detection_value(&pool);
        let margin = margin_of_error(&evidence_samples(&pool), CONFIDENCE_LEVEL);
        let verdict = DecisionRule::default().decide(detect, margin);

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
            for &(w, a) in &pairs {
                if self.condemned.contains(&w) {
                    continue;
                }
                let kind = if a == Answer::NoAnswer {
                    EvidenceKind::Unresponsive
                } else if a == truthful {
                    EvidenceKind::TruthfulTestimony
                } else {
                    EvidenceKind::FalseTestimony
                };
                self.trust.record(w, kind);
            }
        }

        let answered = pairs.iter().filter(|(_, a)| *a != Answer::NoAnswer).count();
        match verdict {
            Verdict::Intruder => {
                self.condemned.insert(suspect);
                // Property 3: a confirmed intrusion collapses trust outright.
                self.trust.record(suspect, EvidenceKind::ForgedRouting);
                self.trust.set_trust(suspect, TrustValue::MIN);
                // Response: never select a convicted intruder as MPR again
                // (the CAP-OLSR-style exclusion of the paper's related work).
                self.olsr.exclude_from_mprs(suspect);
                // E4/E5 evidence completes the link-spoofing signature.
                for (w, a) in &pairs {
                    let ev = match a {
                        Answer::Deny => {
                            DetectionEvent::NotCovering { mpr: suspect, neighbor: *w, at: now }
                        }
                        Answer::NoAnswer => DetectionEvent::CoveringNonNeighbor {
                            mpr: suspect,
                            claimed: *w,
                            at: now,
                        },
                        Answer::Confirm => continue,
                    };
                    for m in self.engine.observe(&ev) {
                        self.matches.push(m);
                    }
                }
            }
            Verdict::WellBehaving => {
                self.engine.clear_suspect(suspect);
            }
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
            witnesses: case.witness_count(),
            answered,
            at: now,
        });
    }

    fn send_gossip(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let entries: Vec<(NodeId, TrustValue)> = self.trust.peers().map(|(n, t)| (*n, t)).collect();
        if entries.is_empty() {
            return;
        }
        let payload = crate::gossip::TrustGossip { entries }.encode();
        for n in self.olsr.symmetric_neighbors(now) {
            self.olsr.send_data(ctx, n, payload.clone(), None);
        }
    }

    fn handle_data(&mut self, ctx: &mut Context<'_>, src: NodeId, payload: Bytes) {
        if let Ok(gossip) = crate::gossip::TrustGossip::decode(payload.clone()) {
            // Recommendations about the recommender itself are ignored.
            let me = ctx.id();
            let entries: Vec<(NodeId, TrustValue)> =
                gossip.entries.into_iter().filter(|(n, _)| *n != src && *n != me).collect();
            self.recommendations.insert(src, entries);
            return;
        }
        let Ok(msg) = InvestigationMessage::decode(payload) else {
            return; // neither investigation traffic nor gossip
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
                if let Some(c) = self.cases.iter_mut().find(|c| c.case == case) {
                    c.record_answer(witness, link_exists);
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
    /// With stability weighting on, a *denial* from either direct-knowledge
    /// branch additionally requires the denied link not to have been seen
    /// alive within the flap memory: a link the witness watched dissolve
    /// moments ago is indistinguishable from benign churn, so it abstains
    /// rather than feeding rule (10) a truthful-but-misleading `Deny`. A
    /// phantom link was never seen alive, so spoof denials stay crisp.
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
        let in_topology = || {
            self.olsr
                .topology_set()
                .iter(now)
                .any(|t| (t.dest == contested && t.last_hop != suspect) || t.last_hop == contested)
        };
        if !via_other && !in_topology() {
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
        if let Some(interval) = self.cfg.gossip_interval {
            ctx.set_timer(interval + stagger, TIMER_GOSSIP);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        if timer == TIMER_ANALYSIS {
            self.run_analysis(ctx);
            ctx.set_timer(self.cfg.analysis_interval, TIMER_ANALYSIS);
        } else if timer == TIMER_GOSSIP {
            self.send_gossip(ctx);
            if let Some(interval) = self.cfg.gossip_interval {
                ctx.set_timer(interval, TIMER_GOSSIP);
            }
        } else {
            self.olsr.on_timer(ctx, timer);
        }
    }

    fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        self.olsr.on_receive(ctx, from, payload);
        for data in self.olsr.take_inbox() {
            self.handle_data(ctx, data.src, data.payload);
        }
    }
}

impl<H: OlsrHooks> std::fmt::Debug for DetectorNode<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectorNode")
            .field("olsr", &self.olsr)
            .field("open_cases", &self.cases.len())
            .field("verdicts", &self.verdicts.len())
            .field("condemned", &self.condemned)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustlink_sim::record::LogRecord;
    use trustlink_sim::record::Willingness;

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

    #[test]
    fn indirect_trust_merges_recommendations() {
        let mut d = detector();
        // Two neighbors recommend about N9: one trusted, one distrusted.
        d.trust.set_trust(NodeId(1), TrustValue::new(0.8));
        d.trust.set_trust(NodeId(2), TrustValue::new(-0.5)); // ignored: weight 0
        d.recommendations.insert(NodeId(1), vec![(NodeId(9), TrustValue::new(-0.9))]);
        d.recommendations.insert(NodeId(2), vec![(NodeId(9), TrustValue::new(1.0))]);
        let indirect = d.indirect_trust_of(NodeId(9));
        assert!(
            (indirect.get() - (-0.9)).abs() < 1e-9,
            "distrusted recommender must not count: {indirect}"
        );
        // Unknown target: maximal uncertainty.
        assert_eq!(d.indirect_trust_of(NodeId(42)), TrustValue::ZERO);
        assert_eq!(d.recommender_count(), 2);
    }

    #[test]
    fn default_config_is_coherent() {
        let cfg = DetectorConfig::default();
        let gamma = DecisionRule::default().gamma();
        assert!(gamma > 0.0 && gamma <= 1.0);
        assert!((0.0..=1.0).contains(&cfg.answer_probability));
        assert!(TESTIMONY_THRESHOLD < gamma);
        assert!(cfg.warmup > cfg.analysis_interval);
        assert!(cfg.gossip_interval.is_none());
    }
}
