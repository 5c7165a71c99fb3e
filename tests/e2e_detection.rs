//! End-to-end detection tests: full packet-level networks where the only
//! inputs to detection are audit logs and investigation answers.

use trustlink_attacks::prelude::*;
use trustlink_core::prelude::*;
use trustlink_core::DetectorConfig;
use trustlink_ids::events::{DetectionEvent, MisbehaviourReason};
use trustlink_ids::investigation::InvestigationConfig;

fn fast_detector() -> DetectorConfig {
    DetectorConfig {
        analysis_interval: SimDuration::from_millis(500),
        investigation: InvestigationConfig {
            timeout: SimDuration::from_secs(3),
            max_witnesses: 16,
        },
        warmup: SimDuration::from_secs(10),
        trust_slot_interval: SimDuration::from_secs(3),
        ..DetectorConfig::default()
    }
}

fn spoof_phantom(fake: u32) -> LinkSpoofing {
    LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent { fake: vec![NodeId(fake)] })
}

#[test]
fn phantom_spoofer_detected_from_corner() {
    let report = ScenarioBuilder::new(201, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .detector(fast_detector())
        .attacker(8, spoof_phantom(99))
        .duration(SimDuration::from_secs(90))
        .run();
    assert!(report.detected(NodeId(8)));
    assert!(report.false_positives().is_empty());
}

#[test]
fn phantom_spoofer_detected_from_centre() {
    let report = ScenarioBuilder::new(202, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .detector(fast_detector())
        .attacker(4, spoof_phantom(77))
        .duration(SimDuration::from_secs(90))
        .run();
    assert!(report.detected(NodeId(4)));
    assert!(report.false_positives().is_empty());
    // Multiple independent observers should reach the same verdict.
    assert!(
        report.convictions_of(NodeId(4)).len() >= 2,
        "only {} observers convicted",
        report.convictions_of(NodeId(4)).len()
    );
}

#[test]
fn existing_non_neighbor_claim_detected() {
    // Attacker in one corner of a 3x3 grid claims adjacency with the node
    // in the opposite corner (Expression (2): an existing non-neighbor).
    // The victim and the victim's neighbors can all refute the link.
    let report = ScenarioBuilder::new(203, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .detector(fast_detector())
        .attacker(
            0,
            LinkSpoofing::permanent(SpoofVariant::AdvertiseExisting { victims: vec![NodeId(8)] }),
        )
        .duration(SimDuration::from_secs(240))
        .run();
    assert!(report.detected(NodeId(0)), "verdicts: {:?}", report.verdicts);
}

#[test]
fn detection_survives_colluding_liars() {
    let report = ScenarioBuilder::new(204, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .detector(fast_detector())
        .attacker(4, spoof_phantom(55))
        .liar(1, LiarPolicy::CoverFor { accomplices: vec![NodeId(4)] })
        .liar(3, LiarPolicy::CoverFor { accomplices: vec![NodeId(4)] })
        .duration(SimDuration::from_secs(150))
        .run();
    assert!(report.detected(NodeId(4)));
    assert!(report.false_positives().is_empty());
}

#[test]
fn liars_delay_but_do_not_prevent_detection() {
    let first_with = |liars: &[usize]| {
        let mut b = ScenarioBuilder::new(205, 9)
            .topology(Topology::Grid { cols: 3, spacing: 100.0 })
            .detector(fast_detector())
            .attacker(4, spoof_phantom(55))
            .duration(SimDuration::from_secs(180));
        for &l in liars {
            b = b.liar(l, LiarPolicy::CoverFor { accomplices: vec![NodeId(4)] });
        }
        let report = b.run();
        assert!(report.detected(NodeId(4)), "liars {liars:?} defeated detection");
        report.first_detection(NodeId(4)).unwrap()
    };
    let clean = first_with(&[]);
    let with_liars = first_with(&[1, 3, 5]);
    assert!(with_liars >= clean, "liars should not accelerate detection: {clean} -> {with_liars}");
}

#[test]
fn benign_network_generates_no_convictions() {
    for seed in [206, 207] {
        let report = ScenarioBuilder::new(seed, 12)
            .topology(Topology::Grid { cols: 4, spacing: 100.0 })
            .detector(fast_detector())
            .duration(SimDuration::from_secs(90))
            .run();
        assert!(report.false_positives().is_empty(), "seed {seed}: {:?}", report.false_positives());
    }
}

#[test]
fn benign_random_topology_no_convictions_under_loss() {
    let report = ScenarioBuilder::new(208, 10)
        .topology(Topology::RandomConnected { arena: (400.0, 400.0) })
        .radio(RadioConfig::unit_disk(170.0).with_loss(0.05))
        .detector(fast_detector())
        .duration(SimDuration::from_secs(90))
        .run();
    assert!(report.false_positives().is_empty(), "{:?}", report.false_positives());
}

#[test]
fn attacker_trust_collapses_at_observers() {
    let report = ScenarioBuilder::new(209, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .detector(fast_detector())
        .attacker(4, spoof_phantom(55))
        .duration(SimDuration::from_secs(120))
        .run();
    assert!(report.detected(NodeId(4)));
    // Every convicting observer should hold deeply negative trust in the
    // attacker afterwards (ForgedRouting evidence).
    let mut checked = 0;
    for (observer, _) in report.convictions_of(NodeId(4)) {
        let d =
            report.sim.app_as::<trustlink_core::DetectorNode>(*observer).expect("honest observer");
        assert!(
            d.trust_of(NodeId(4)).get() < 0.0,
            "{observer} trusts the convicted attacker at {}",
            d.trust_of(NodeId(4))
        );
        assert!(d.condemned().contains(&NodeId(4)));
        checked += 1;
    }
    assert!(checked > 0);
}

#[test]
fn detection_emits_signature_matches() {
    let report = ScenarioBuilder::new(210, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .detector(DetectorConfig { flight_recording: true, ..fast_detector() })
        .attacker(4, spoof_phantom(55))
        .duration(SimDuration::from_secs(120))
        .run();
    assert!(report.detected(NodeId(4)));
    // Rule (4), (E1 ∨ E2) then (E4 ∨ E5): at every observer that convicts
    // N4, an extracted E1/E2 naming N4 comes before the Intruder verdict,
    // and the verdict's case heard its witnesses' answers.
    for (observer, verdict) in report.convictions_of(NodeId(4)) {
        let trigger = trustlink_core::replay::extracted_events_of(&report.sim, *observer)
            .iter()
            .filter(|ev| ev.suspects().contains(&NodeId(4)))
            .map(DetectionEvent::at)
            .min();
        assert!(
            trigger.is_some_and(|at| at < verdict.at),
            "{observer} convicted N4 at {:?} with no earlier E1/E2 naming it (first {trigger:?})",
            verdict.at
        );
        assert!(verdict.witnesses >= 2, "{observer}: {verdict:?}");
    }
}

#[test]
fn convicted_attacker_is_expelled_from_mpr_sets() {
    // The response side: once condemned, the attacker is treated as
    // WILL_NEVER by its victims' MPR selection and loses its relay role.
    let report = ScenarioBuilder::new(213, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .detector(fast_detector())
        .attacker(4, spoof_phantom(55)) // centre: the natural MPR
        .duration(SimDuration::from_secs(150))
        .run();
    assert!(report.detected(NodeId(4)));
    let now = report.sim.now();
    let mut expelled = 0;
    for id in report.sim.node_ids().collect::<Vec<_>>() {
        let Some(d) = report.sim.app_as::<trustlink_core::DetectorNode>(id) else {
            continue;
        };
        if d.condemned().contains(&NodeId(4)) {
            assert!(
                !d.olsr().mpr_set().contains(&NodeId(4)),
                "{id} still uses the convicted attacker as MPR: {:?}",
                d.olsr().mpr_set()
            );
            assert!(d.olsr().excluded_mprs().contains(&NodeId(4)));
            expelled += 1;
        }
    }
    assert!(expelled >= 2, "only {expelled} observers expelled the attacker");
    let _ = now;
}

#[test]
fn ceasing_attack_lets_trust_recover_directionally() {
    // Attack only during the first 30 s; by the end, the attacker's trust
    // at observers that never convicted it should drift back toward the
    // default (those that convicted keep it condemned — the paper's
    // defensive stance).
    let spoofing = LinkSpoofing {
        variant: SpoofVariant::AdvertiseNonExistent { fake: vec![NodeId(55)] },
        active_from: SimTime::ZERO,
        active_until: Some(SimTime::from_secs(30)),
    };
    let report = ScenarioBuilder::new(211, 9)
        .topology(Topology::Grid { cols: 3, spacing: 100.0 })
        .detector(fast_detector())
        .attacker(4, spoofing)
        .duration(SimDuration::from_secs(150))
        .run();
    // No hard detection requirement here (the window is short); what must
    // hold is that nobody condemned an *honest* node.
    assert!(report.false_positives().is_empty());
}

#[test]
fn investigation_routes_are_memoised_per_route_generation() {
    // Witness requests and answers route around the suspect at every hop.
    // The main BFS tree answers every destination not behind the suspect,
    // and each node memoises its avoid-route tables for the rest until its
    // next route run, so on the 64-node scenario few lookups run a BFS.
    let report = ScenarioBuilder::new(501, 64)
        .topology(Topology::Grid { cols: 8, spacing: 100.0 })
        .radio(RadioConfig::unit_disk(150.0))
        .detector(fast_detector())
        .attacker(27, spoof_phantom(99))
        .duration(SimDuration::from_secs(40))
        .run();
    assert!(report.detected(NodeId(27)));
    let (mut lookups, mut tree_hits, mut runs) = (0, 0, 0);
    for id in report.sim.node_ids() {
        if let Some(node) = report.sim.app_as::<DetectorNode>(id) {
            let stats = node.olsr().recompute_stats();
            lookups += stats.avoid_lookups;
            tree_hits += stats.avoid_tree_hits;
            runs += stats.avoid_runs;
        }
    }
    assert!(lookups > 1_000, "too little investigation traffic: {lookups} avoid lookups");
    assert!(tree_hits >= lookups / 2, "{tree_hits} tree answers for {lookups} lookups");
    assert!(runs <= lookups / 10, "{runs} avoid BFS runs for {lookups} lookups");
}

/// A black-hole drop attacker that also stops originating TCs at
/// `silent_from` while it keeps sending HELLOs: it stays its neighbors'
/// MPR, so their detectors must flag TC silence.
struct SilentMpr {
    inner: DropAttackNode,
    silent_from: SimTime,
}

impl Application for SilentMpr {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        // Swallowing the TC timer also drops its re-arm: silent for good.
        if timer == trustlink_olsr::node::TIMER_TC && ctx.now() >= self.silent_from {
            return;
        }
        self.inner.on_timer(ctx, timer);
    }

    fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: bytes::Bytes) {
        self.inner.on_receive(ctx, from, payload);
    }
}

#[test]
fn detectors_release_the_audit_records_they_have_analysed() {
    // The 3×3 spoofer grid for 120 s, once with flight recording (every
    // log kept whole) and once releasing what each analysis pass has read.
    let run = |flight_recording: bool| {
        ScenarioBuilder::new(203, 9)
            .topology(Topology::Grid { cols: 3, spacing: 100.0 })
            .detector(DetectorConfig { flight_recording, ..fast_detector() })
            .attacker(8, spoof_phantom(99))
            .duration(SimDuration::from_secs(120))
            .run()
    };
    let kept = run(true);
    let released = run(false);
    assert!(kept.detected(NodeId(8)));
    assert_eq!(released.verdicts, kept.verdicts, "releasing the log moved a verdict");
    for id in kept.sim.node_ids().collect::<Vec<_>>() {
        let (whole, window) = (kept.sim.log(id), released.sim.log(id));
        assert_eq!(whole.entries().len(), whole.len(), "{id}: the recording dropped records");
        assert_eq!(window.len(), whole.len(), "{id}: the record count moved");
        // The recording's last pass says how far the live pass had read:
        // exactly the records logged since then are held.
        let ticks = trustlink_core::replay::analysis_ticks_of(&kept.sim, id);
        let &(last_pass, cursor) = ticks.last().expect("analysis passes ran");
        assert_eq!(window.base(), cursor, "{id}: released up to another cursor");
        assert_eq!(window.entries(), &whole.entries()[cursor..], "{id}: held the wrong tail");
        assert!(window.entries().iter().all(|(at, _)| *at >= last_pass));
        assert!(window.entries().len() * 100 < whole.len(), "{id}: most records still held");
    }
}

#[test]
fn silent_mpr_is_flagged_at_pinned_instants() {
    // A five-node line whose middle node falls silent at 15 s. Nodes 1 and
    // 3 keep it as their only MPR; once its last TC is more than
    // 4 × tc_interval old, every analysis pass flags it. The instants were
    // derived while every received TC was still logged in full, so they
    // pin that the TC clock reaches the detector unchanged.
    let mut sim = SimulatorBuilder::new(61).radio(RadioConfig::unit_disk(150.0)).build();
    let detector = DetectorConfig { flight_recording: true, ..fast_detector() };
    for i in 0..5u32 {
        let at = Position::new(f64::from(i) * 100.0, 0.0);
        if i == 2 {
            let attack = DropAttack::new(DropMode::BlackHole, DropScope::All, 5);
            sim.add_node(
                Box::new(SilentMpr {
                    inner: drop_attack_node(OlsrConfig::fast(), attack),
                    silent_from: SimTime::from_secs(15),
                }),
                at,
            );
        } else {
            sim.add_node(Box::new(DetectorNode::new(OlsrConfig::fast(), detector.clone())), at);
        }
    }
    sim.run_for(SimDuration::from_secs(30));
    // Per observer: the first flag, and how many analysis passes (every
    // 500 ms from the first on) flagged it.
    let mut flagged: Vec<(u32, u32, u64, usize)> = Vec::new();
    for id in sim.node_ids().collect::<Vec<_>>() {
        let instants: Vec<(u32, u64)> = trustlink_core::replay::extracted_events_of(&sim, id)
            .into_iter()
            .filter_map(|event| match event {
                DetectionEvent::MprMisbehaving {
                    mpr,
                    reason: MisbehaviourReason::TcSilence,
                    at,
                } => Some((mpr.0, at.as_micros())),
                _ => None,
            })
            .collect();
        let Some(&(mpr, first)) = instants.first() else {
            continue;
        };
        for (k, &(m, at)) in instants.iter().enumerate() {
            assert_eq!((m, at), (mpr, first + 500_000 * k as u64), "{id}: flag {k} off the beat");
        }
        flagged.push((id.0, mpr, first, instants.len()));
    }
    assert_eq!(
        flagged,
        vec![(1, 2, 20_060_275, 20), (3, 2, 19_994_527, 21)],
        "TC-silence flags (observer, mpr, first µs, count) moved"
    );
}
