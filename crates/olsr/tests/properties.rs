//! Property-based tests for the OLSR substrate: the MPR coverage
//! invariant, routing loop-freedom, sequence-number arithmetic and the
//! vtime codec.

use proptest::prelude::*;

use trustlink_olsr::message::{decode_vtime, encode_vtime};
use trustlink_olsr::mpr::{select_mprs, uncovered_targets, MprCandidate};
use trustlink_olsr::routing::RoutingTable;
use trustlink_olsr::state::{DuplicateSet, TopologySet, TwoHopSet};
use trustlink_olsr::types::{SequenceNumber, Willingness};
use trustlink_sim::{NodeId, SimDuration, SimTime};

fn willingness() -> impl Strategy<Value = Willingness> {
    prop_oneof![
        Just(Willingness::Never),
        Just(Willingness::Low),
        Just(Willingness::Default),
        Just(Willingness::High),
        Just(Willingness::Always),
    ]
}

fn candidates() -> impl Strategy<Value = Vec<MprCandidate>> {
    proptest::collection::vec((willingness(), proptest::collection::vec(100u32..140, 0..8)), 1..12)
        .prop_map(|raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (willingness, covers))| MprCandidate {
                    addr: NodeId(i as u32), // unique, like a real neighbor set
                    willingness,
                    degree: covers.len(),
                    covers: covers.into_iter().map(NodeId).collect(),
                })
                .collect()
        })
}

/// Like [`candidates`] but allowing duplicate addresses — a malformed
/// input `select_mprs` must survive (coverage merges).
fn candidates_with_duplicates() -> impl Strategy<Value = Vec<MprCandidate>> {
    proptest::collection::vec(
        (0u32..6, willingness(), proptest::collection::vec(100u32..140, 0..8)),
        1..12,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(addr, willingness, covers)| MprCandidate {
                addr: NodeId(addr),
                willingness,
                degree: covers.len(),
                covers: covers.into_iter().map(NodeId).collect(),
            })
            .collect()
    })
}

proptest! {
    // ---- MPR selection ---------------------------------------------------

    #[test]
    fn mpr_selection_always_covers_coverable_targets(cands in candidates()) {
        // Targets: the union of everything any willing candidate covers.
        let targets: Vec<NodeId> = {
            let mut t: Vec<NodeId> = cands
                .iter()
                .filter(|c| c.willingness != Willingness::Never)
                .flat_map(|c| c.covers.iter().copied())
                .collect();
            t.sort_unstable();
            t.dedup();
            t
        };
        let mprs = select_mprs(&cands, &targets);
        let uncovered = uncovered_targets(&cands, &targets, &mprs);
        prop_assert!(uncovered.is_empty(), "uncovered: {uncovered:?}");
    }

    #[test]
    fn mpr_selection_survives_duplicate_addresses(cands in candidates_with_duplicates()) {
        // Coverage must merge across duplicate entries: every target
        // covered by a willing entry stays covered.
        let targets: Vec<NodeId> = {
            let mut t: Vec<NodeId> = cands
                .iter()
                .filter(|c| c.willingness != Willingness::Never)
                .flat_map(|c| c.covers.iter().copied())
                .collect();
            t.sort_unstable();
            t.dedup();
            t
        };
        // Skip inputs where one address carries both Never and non-Never
        // willingness: the merged semantics are undefined there.
        let mut by_addr: std::collections::BTreeMap<NodeId, Vec<Willingness>> =
            std::collections::BTreeMap::new();
        for c in &cands {
            by_addr.entry(c.addr).or_default().push(c.willingness);
        }
        prop_assume!(by_addr.values().all(|ws| {
            ws.iter().all(|w| *w == Willingness::Never)
                || ws.iter().all(|w| *w != Willingness::Never)
        }));
        let mprs = select_mprs(&cands, &targets);
        let uncovered = uncovered_targets(&cands, &targets, &mprs);
        prop_assert!(uncovered.is_empty(), "uncovered: {uncovered:?}");
    }

    #[test]
    fn mpr_selection_is_deterministic(cands in candidates()) {
        let targets: Vec<NodeId> =
            cands.iter().flat_map(|c| c.covers.iter().copied()).collect();
        prop_assert_eq!(select_mprs(&cands, &targets), select_mprs(&cands, &targets));
    }

    #[test]
    fn will_never_nodes_are_never_selected(cands in candidates()) {
        let targets: Vec<NodeId> =
            cands.iter().flat_map(|c| c.covers.iter().copied()).collect();
        let mprs = select_mprs(&cands, &targets);
        for c in &cands {
            if c.willingness == Willingness::Never {
                prop_assert!(!mprs.contains(&c.addr));
            }
        }
    }

    #[test]
    fn will_always_nodes_are_always_selected(cands in candidates()) {
        let targets: Vec<NodeId> =
            cands.iter().flat_map(|c| c.covers.iter().copied()).collect();
        let mprs = select_mprs(&cands, &targets);
        for c in &cands {
            if c.willingness == Willingness::Always {
                prop_assert!(mprs.contains(&c.addr));
            }
        }
    }

    // ---- routing ----------------------------------------------------------

    #[test]
    fn routes_are_loop_free_and_first_hop_is_neighbor(
        edges in proptest::collection::vec((0u32..12, 0u32..12), 0..40),
        sym in proptest::collection::vec(1u32..12, 1..5),
    ) {
        // Build an arbitrary advertised topology plus symmetric neighbors.
        let mut topo = TopologySet::default();
        let until = SimTime::from_secs(1_000);
        for (i, &(a, b)) in edges.iter().enumerate() {
            if a != b {
                topo.apply_tc(NodeId(a), i as u16, &[NodeId(b)], until, SimTime::ZERO);
            }
        }
        let me = NodeId(0);
        let sym: Vec<NodeId> = {
            let mut s: Vec<NodeId> = sym.into_iter().map(NodeId).collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        let table = RoutingTable::compute(me, &sym, &TwoHopSet::default(), &topo, SimTime::ZERO);
        for route in table.iter() {
            // First hop must be one of my symmetric neighbors.
            prop_assert!(
                sym.contains(&route.next_hop),
                "route to {} via non-neighbor {}",
                route.dest,
                route.next_hop
            );
            prop_assert!(route.hops >= 1);
            prop_assert!(route.dest != me);
        }
        // BFS yields minimal hop counts: a 1-hop route exists exactly for
        // symmetric neighbors.
        for &n in &sym {
            prop_assert_eq!(table.route_to(n).map(|r| r.hops), Some(1));
        }
    }

    #[test]
    fn avoidance_never_routes_via_avoided(
        edges in proptest::collection::vec((0u32..10, 0u32..10), 0..30),
        avoid in 1u32..10,
    ) {
        let mut topo = TopologySet::default();
        let until = SimTime::from_secs(1_000);
        for (i, &(a, b)) in edges.iter().enumerate() {
            if a != b {
                topo.apply_tc(NodeId(a), i as u16, &[NodeId(b)], until, SimTime::ZERO);
            }
        }
        let sym = vec![NodeId(1), NodeId(2)];
        let avoided = NodeId(avoid);
        let table = RoutingTable::compute_avoiding(
            NodeId(0),
            &sym,
            &TwoHopSet::default(),
            &topo,
            SimTime::ZERO,
            Some(avoided),
        );
        for route in table.iter() {
            prop_assert!(route.next_hop != avoided);
            prop_assert!(route.dest != avoided);
        }
    }

    #[test]
    fn routes_survive_monotone_relabelling_into_sparse_ids(
        edges in proptest::collection::vec((0u32..48, 0u32..48), 0..120),
        pairs in proptest::collection::vec((1u32..8, 0u32..48), 0..30),
        sym in proptest::collection::vec(1u32..8, 1..6),
        gaps in proptest::collection::vec(1u32..(1 << 26), 48),
        avoid in 0u32..60,
    ) {
        // Relabel ids 0..48 through a strictly increasing map whose top
        // lands on u32::MAX - 1. Tie-breaks follow edge insertion order,
        // which a monotone map preserves, so the table must come back
        // identical: same destinations, next hops and hop counts, in the
        // same order.
        let mut label = [u32::MAX - 1; 48];
        for i in (0..47).rev() {
            label[i] = label[i + 1] - gaps[i];
        }
        let back = |id: NodeId| NodeId(label.binary_search(&id.0).expect("relabelled id") as u32);
        let until = SimTime::from_secs(1_000);
        let build = |map: &dyn Fn(u32) -> NodeId| {
            let mut topo = TopologySet::default();
            for (i, &(a, b)) in edges.iter().enumerate() {
                if a != b {
                    topo.apply_tc(map(a), i as u16, &[map(b)], until, SimTime::ZERO);
                }
            }
            let mut two_hop = TwoHopSet::default();
            for &(via, th) in &pairs {
                two_hop.upsert(map(via), map(th), until, SimTime::ZERO);
            }
            let mut s: Vec<NodeId> = sym.iter().map(|&n| map(n)).collect();
            s.sort_unstable();
            s.dedup();
            // Ids past 47 mean "no avoidance".
            let avoid = (avoid < 48).then(|| map(avoid));
            RoutingTable::compute_avoiding(map(0), &s, &two_hop, &topo, SimTime::ZERO, avoid)
        };
        let dense = build(&NodeId);
        let sparse = build(&|i| NodeId(label[i as usize]));
        let dense: Vec<(NodeId, NodeId, u32)> =
            dense.iter().map(|r| (r.dest, r.next_hop, r.hops)).collect();
        let mapped_back: Vec<(NodeId, NodeId, u32)> =
            sparse.iter().map(|r| (back(r.dest), back(r.next_hop), r.hops)).collect();
        prop_assert_eq!(dense, mapped_back);
    }

    // ---- sequence numbers ---------------------------------------------------

    #[test]
    fn seqnum_newer_is_antisymmetric_off_antipode(a in any::<u16>(), b in any::<u16>()) {
        let sa = SequenceNumber(a);
        let sb = SequenceNumber(b);
        let ab = sa.is_newer_than(sb);
        let ba = sb.is_newer_than(sa);
        if a == b {
            prop_assert!(!ab && !ba);
        } else if a.wrapping_sub(b) != u16::MAX / 2 + 1 {
            // Exactly one direction wins except at the antipode.
            prop_assert!(ab ^ ba, "a={a} b={b} ab={ab} ba={ba}");
        }
    }

    #[test]
    fn seqnum_next_is_always_newer(a in any::<u16>()) {
        let s = SequenceNumber(a);
        prop_assert!(s.next().is_newer_than(s));
        prop_assert!(!s.is_newer_than(s.next()));
    }

    // ---- vtime codec -------------------------------------------------------

    #[test]
    fn vtime_roundtrip_relative_error_bounded(secs in 0.0625f64..1000.0) {
        let d = SimDuration::from_secs_f64(secs);
        let decoded = decode_vtime(encode_vtime(d)).as_secs_f64();
        let rel = (decoded - secs).abs() / secs;
        prop_assert!(rel < 0.07, "vtime {secs} decoded {decoded} (rel {rel})");
    }

    #[test]
    fn vtime_encoding_is_monotone(a in 0.0625f64..500.0, factor in 1.5f64..4.0) {
        let small = decode_vtime(encode_vtime(SimDuration::from_secs_f64(a)));
        let large = decode_vtime(encode_vtime(SimDuration::from_secs_f64(a * factor)));
        prop_assert!(large >= small);
    }

    // ---- duplicate set -------------------------------------------------------

    #[test]
    fn duplicate_set_seen_iff_recorded_and_unexpired(
        records in proptest::collection::vec((0u32..8, 0u16..16, any::<bool>()), 0..32),
        probe_orig in 0u32..8,
        probe_seq in 0u16..16,
    ) {
        let mut set = DuplicateSet::default();
        let until = SimTime::from_secs(30);
        for &(orig, seq, retx) in &records {
            set.record(NodeId(orig), SequenceNumber(seq), retx, until, SimTime::ZERO);
        }
        let recorded = records.iter().any(|&(o, s, _)| o == probe_orig && s == probe_seq);
        prop_assert_eq!(
            set.seen(NodeId(probe_orig), SequenceNumber(probe_seq), SimTime::from_secs(1)),
            recorded
        );
        // Everything expires.
        prop_assert!(!set.seen(
            NodeId(probe_orig),
            SequenceNumber(probe_seq),
            SimTime::from_secs(30)
        ));
        // Retransmission flags are sticky.
        let any_retx = records
            .iter()
            .any(|&(o, s, r)| o == probe_orig && s == probe_seq && r);
        prop_assert_eq!(
            set.retransmitted(
                NodeId(probe_orig),
                SequenceNumber(probe_seq),
                SimTime::from_secs(1)
            ),
            any_retx
        );
    }

    // ---- two-hop set -----------------------------------------------------------

    #[test]
    fn two_hop_vias_and_reachability_agree(
        pairs in proptest::collection::vec((0u32..6, 10u32..20), 0..24),
    ) {
        let mut set = TwoHopSet::default();
        let until = SimTime::from_secs(10);
        for &(via, th) in &pairs {
            set.upsert(NodeId(via), NodeId(th), until, SimTime::ZERO);
        }
        let now = SimTime::from_secs(1);
        for &(via, th) in &pairs {
            prop_assert!(set.reachable_via(NodeId(via), now).contains(&NodeId(th)));
            prop_assert!(set.vias_for(NodeId(th), now).contains(&NodeId(via)));
        }
        // Purge at expiry removes everything.
        let mut set2 = set.clone();
        set2.purge(until);
        prop_assert!(set2.two_hop_addrs(until, NodeId(99), &[]).is_empty());
    }
}
