//! End-to-end wormhole tests: two colluding endpoints tunnel control
//! traffic between distant clusters (§II of the paper), so each side
//! hears the other's HELLOs as if they were local and fabricates
//! symmetric links that do not exist on any radio.
//!
//! The suites are built on the typed flight recorder: the fabricated
//! links are asserted from `NeighborAdded`/`HelloRx` records, and the
//! detection outcome is pinned as exact (observer, suspect) conviction
//! sets plus false-positive counts.

use std::collections::BTreeSet;

use trustlink_attacks::wormhole::{wormhole_pair, WormholeEndpoint};
use trustlink_core::prelude::*;
use trustlink_core::{DetectorConfig, DetectorNode};
use trustlink_ids::investigation::InvestigationConfig;
use trustlink_olsr::OlsrConfig;

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

/// Two three-node chains, 4.7 km apart, with one wormhole endpoint glued
/// to the end of each chain:
///
/// ```text
///   N0 — N1 — N2 — [N3]  ~~~~ tunnel ~~~~  [N4] — N5 — N6 — N7
///   x=0  100  200  300                     5000  5100 5200 5300
/// ```
///
/// The radio range is 150 m, so nothing crosses the gap except the
/// out-of-band queue pair.
fn two_cluster_sim(seed: u64) -> Simulator {
    let mut sim = SimulatorBuilder::new(seed)
        .arena(Arena::new(6_000.0, 400.0))
        .radio(RadioConfig::unit_disk(150.0))
        .expected_nodes(8)
        .build();
    for x in [0.0, 100.0, 200.0] {
        sim.add_node(
            Box::new(DetectorNode::new(OlsrConfig::fast(), fast_detector())),
            Position::new(x, 0.0),
        );
    }
    let (wa, wb) =
        wormhole_pair(OlsrConfig::fast(), OlsrConfig::fast(), SimDuration::from_millis(50));
    sim.add_node(Box::new(wa), Position::new(300.0, 0.0));
    sim.add_node(Box::new(wb), Position::new(5_000.0, 0.0));
    for x in [5_100.0, 5_200.0, 5_300.0] {
        sim.add_node(
            Box::new(DetectorNode::new(OlsrConfig::fast(), fast_detector())),
            Position::new(x, 0.0),
        );
    }
    sim
}

const END_A: NodeId = NodeId(3);

/// All intruder convictions across every detector, as (observer, suspect)
/// pairs.
fn convictions(sim: &Simulator) -> BTreeSet<(NodeId, NodeId)> {
    let mut out = BTreeSet::new();
    for id in sim.node_ids().collect::<Vec<_>>() {
        if let Some(d) = sim.app_as::<DetectorNode>(id) {
            for r in d.verdicts() {
                if r.verdict == Verdict::Intruder {
                    out.insert((id, r.suspect));
                }
            }
        }
    }
    out
}

#[test]
fn tunnel_fabricates_cross_cluster_symmetric_links() {
    let mut sim = two_cluster_sim(41);
    sim.run_for(SimDuration::from_secs(30));
    let recorder = sim.flight_recorder();
    // N5 (cluster B) hears a HELLO originated by N2 (cluster A), 4.9 km
    // away — typed evidence that the tunnel is on the air.
    let heard_across = recorder
        .records_of(NodeId(5))
        .any(|r| matches!(r.record, LogRecord::HelloRx { from, .. } if from == NodeId(2)));
    assert!(heard_across, "no tunnelled HELLO from N2 reached N5");
    // And the fabricated link completes the handshake: some cluster-B
    // node promotes a cluster-A node to a *symmetric* neighbor.
    let cross_sym: BTreeSet<(NodeId, NodeId)> = recorder
        .records()
        .iter()
        .filter_map(|r| match r.record {
            LogRecord::NeighborAdded { addr }
                if r.node.0 >= 5 && addr.0 <= 2 || r.node.0 <= 2 && addr.0 >= 5 =>
            {
                Some((r.node, addr))
            }
            _ => None,
        })
        .collect();
    assert!(
        !cross_sym.is_empty(),
        "the wormhole fabricated no cross-cluster symmetric link at all"
    );
    // The endpoints themselves stay radio-local: they re-broadcast
    // tunnelled frames without processing them, so their own OLSR state
    // never shows the far side — the "invisible" variant of §II.
    let end_a = sim.app_as::<WormholeEndpoint>(END_A).expect("endpoint A");
    assert_eq!(
        end_a.olsr().symmetric_neighbors(sim.now()),
        vec![NodeId(2)],
        "endpoint A's own link state should stay radio-local"
    );
    assert!(end_a.tunneled_out() > 0 && end_a.tunneled_in() > 0);
}

#[test]
fn wormhole_shortcut_hijacks_routing() {
    let mut sim = two_cluster_sim(42);
    sim.run_for(SimDuration::from_secs(30));
    // Without the tunnel the clusters are disconnected; with it, N0
    // routes all the way across the arena, and the path is impossibly
    // short for a 5.3 km span (the fabricated links collapse it).
    let n0 = sim.app_as::<DetectorNode>(NodeId(0)).expect("detector");
    let route = n0.olsr().routing_table().route_to(NodeId(7));
    let route = route.expect("wormhole should have stitched the clusters together");
    assert!(
        route.hops <= 6,
        "the tunnel shortcut should keep the fake path short, got {} hops",
        route.hops
    );
}

#[test]
fn wormhole_convictions_and_false_positives_are_pinned() {
    // The detection outcome of the canonical two-cluster scenario, pinned
    // exactly. The invisible wormhole re-broadcasts frames *unchanged*:
    // both ends of every fabricated link confirm it over the tunnel, so
    // the paper's link-spoofing checks (which cross-examine the claimed
    // neighbor and its witnesses) find a consistent story. Rule (10)
    // convicts nobody — the endpoints evade it, and crucially no honest
    // node is wrongfully convicted for the links the tunnel fabricated
    // in its name. Zero convictions, zero false positives.
    let mut sim = two_cluster_sim(43);
    sim.run_for(SimDuration::from_secs(120));
    let got = convictions(&sim);
    assert_eq!(got, BTreeSet::new(), "the invisible wormhole scenario's verdict set changed");
    // The evasion is not for lack of evidence reaching the detectors:
    // investigations did run against cross-cluster suspects during the
    // run (the fabricated links were examined and survived).
    let verdict_total: usize = sim
        .node_ids()
        .collect::<Vec<_>>()
        .into_iter()
        .filter_map(|id| sim.app_as::<DetectorNode>(id).map(|d| d.verdicts().len()))
        .sum();
    assert!(
        verdict_total >= 50,
        "expected a steady stream of (non-intruder) rule (10) verdicts, got {verdict_total}"
    );
}
