//! Property-based tests for the OLSR substrate: the MPR coverage
//! invariant, routing loop-freedom, sequence-number arithmetic and the
//! vtime codec, plus model oracles for the fast bookkeeping paths (masked
//! avoid-route BFS, avoid routes answered from the main BFS tree, lazy
//! duplicate reclaim, per-originator TC replacement, the merged
//! per-originator TC record that decides a TC's log line and topology
//! change in one lookup, per-via 2-hop runs and their batch refresh, the
//! routing graph a node keeps in step with its 2-hop and topology sets, and
//! the in-place relay of a received message).

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use trustlink_olsr::hooks::Relay;
use trustlink_olsr::message::{
    decode_vtime, encode_vtime, DataMessage, Message, MessageBody, Packet, TcMessage,
};
use trustlink_olsr::mpr::{select_mprs, uncovered_targets, MprCandidate};
use trustlink_olsr::routing::{RoutingGraph, RoutingTable, TreeRoute};
use trustlink_olsr::state::{DupProbe, DuplicateSet, TopologySet, TwoHopSet};
use trustlink_olsr::types::SequenceNumber;
use trustlink_olsr::wire::{
    encode_messages_into, encode_packet, materialize_message, relay_message_into, PacketView,
};
use trustlink_sim::record::Willingness;
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

/// A main address in either wire form: below the escape marker (two
/// bytes) or at or above it (six).
fn wire_id() -> impl Strategy<Value = NodeId> {
    prop_oneof![0u32..0xFFFF, 0xFFFFu32..=u32::MAX].prop_map(NodeId)
}

/// A TC or data message with a header a relay accepts (TTL of at least 2),
/// any vtime byte and any hop count.
fn relayable_message() -> impl Strategy<Value = Message> {
    let header = (any::<u8>(), wire_id(), 2u8..=u8::MAX, any::<u8>(), any::<u16>());
    let tc = (any::<u16>(), proptest::collection::vec(wire_id(), 0..10))
        .prop_map(|(ansn, advertised)| MessageBody::Tc(TcMessage { ansn, advertised }));
    let avoid = prop_oneof![Just(None), wire_id().prop_map(Some)];
    let data = (wire_id(), wire_id(), avoid, proptest::collection::vec(any::<u8>(), 0..24))
        .prop_map(|(src, dst, avoid, payload)| {
            MessageBody::Data(DataMessage { src, dst, avoid, payload: payload.into() })
        });
    (header, prop_oneof![tc, data]).prop_map(|((vtime, originator, ttl, hop_count, seq), body)| {
        Message {
            vtime: decode_vtime(vtime),
            originator,
            ttl,
            hop_count,
            seq: SequenceNumber(seq),
            body,
        }
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

    // ---- in-place relay ----------------------------------------------------

    #[test]
    fn relaying_in_place_equals_reencoding_the_advanced_message(
        messages in proptest::collection::vec(relayable_message(), 1..4),
        seq in any::<u16>(),
        relay_seq in any::<u16>(),
    ) {
        // Every message of an encoder-produced packet, wherever it sits,
        // relays as the encoding of its materialized self with TTL - 1 and
        // hop count + 1; `Relay` decodes it so advanced.
        let frame = encode_packet(&Packet { seq: SequenceNumber(seq), messages });
        let view = PacketView::parse(&frame).expect("encoder output parses");
        let relay_seq = SequenceNumber(relay_seq);
        for mv in view.messages() {
            let mut advanced = materialize_message(&frame, &mv);
            advanced.ttl -= 1;
            advanced.hop_count = advanced.hop_count.wrapping_add(1);
            let want = encode_messages_into(relay_seq, std::slice::from_ref(&advanced), &mut Vec::new());
            let got = relay_message_into(relay_seq, &frame, &mv, &mut Vec::new());
            prop_assert_eq!(&got, &want);
            let mut relay = Relay::new(&frame, &mv);
            prop_assert_eq!(relay.message_mut(), &advanced);
            prop_assert_eq!((relay.header().ttl, relay.header().hop_count), (advanced.ttl, advanced.hop_count));
        }
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

    #[test]
    fn two_hop_point_queries_match_scans(
        pairs in proptest::collection::vec((0u32..6, 0u32..12, 1u64..10), 0..30),
        now in 0u64..10,
    ) {
        // The skip-scan `iter_vias_for` and the point `contains` must agree
        // with a filter over every live tuple, expired pairs included.
        let mut set = TwoHopSet::default();
        for &(via, th, until) in &pairs {
            set.upsert(NodeId(via), NodeId(th), SimTime::from_secs(until), SimTime::ZERO);
        }
        let now = SimTime::from_secs(now);
        let live: Vec<(NodeId, NodeId)> = set.iter(now).map(|t| (t.via, t.two_hop)).collect();
        for th in (0..13).map(NodeId) {
            let want: Vec<NodeId> =
                live.iter().filter(|&&(_, t)| t == th).map(|&(v, _)| v).collect();
            prop_assert_eq!(set.iter_vias_for(th, now).collect::<Vec<_>>(), want);
            for via in (0..7).map(NodeId) {
                prop_assert_eq!(set.contains(via, th, now), live.contains(&(via, th)));
            }
        }
    }
}

// ---- model oracles for the fast bookkeeping paths ---------------------------

/// One mutating operation on a duplicate set.
#[derive(Debug, Clone, Copy)]
enum DupOp {
    Record { orig: u32, seq: u16, retx: bool, hold_ms: u64 },
    Probe { orig: u32, seq: u16, hold_ms: u64 },
}

/// Originators the duplicate-set ops draw from: a dense run of small ids
/// plus sparse ids a forger might pick, up to the edges of the id space.
const DUP_ORIGINATORS: [u32; 16] = [
    0,
    1,
    2,
    3,
    4,
    5,
    6,
    7,
    255,
    65_535,
    65_536,
    999_999,
    0x7FFF_FFFF,
    0x8000_0000,
    u32::MAX - 1,
    u32::MAX,
];

fn dup_originator() -> impl Strategy<Value = u32> {
    (0..DUP_ORIGINATORS.len()).prop_map(|i| DUP_ORIGINATORS[i])
}

fn dup_ops() -> impl Strategy<Value = Vec<(u64, bool, DupOp)>> {
    let op =
        prop_oneof![
            (dup_originator(), 0u16..8, any::<bool>(), 1u64..6_000)
                .prop_map(|(orig, seq, retx, hold_ms)| DupOp::Record { orig, seq, retx, hold_ms }),
            (dup_originator(), 0u16..8, 1u64..6_000)
                .prop_map(|(orig, seq, hold_ms)| DupOp::Probe { orig, seq, hold_ms }),
        ];
    // (clock advance in ms, purge the second set first, operation)
    proptest::collection::vec((0u64..200, any::<bool>(), op), 0..300)
}

/// The duplicate-set semantics as a plain map: `(until, retransmitted)`
/// per key, expired entries answered as absent and never removed.
#[derive(Default)]
struct DupModel(BTreeMap<(u32, u16), (SimTime, bool)>);

impl DupModel {
    fn live(&self, key: (u32, u16), now: SimTime) -> Option<(SimTime, bool)> {
        self.0.get(&key).copied().filter(|&(until, _)| until > now)
    }

    fn record(&mut self, key: (u32, u16), retx: bool, until: SimTime, now: SimTime) {
        let next = match self.live(key, now) {
            Some((old, old_retx)) => (old.max(until), old_retx | retx),
            None => (until, retx),
        };
        self.0.insert(key, next);
    }

    /// The verdict, then the `forwarded = false` record every probed copy
    /// gets.
    fn probe(&mut self, key: (u32, u16), until: SimTime, now: SimTime) -> DupProbe {
        let probe = match self.live(key, now) {
            Some((_, true)) => DupProbe::Retransmitted,
            Some((_, false)) => DupProbe::SeenFresh,
            None => DupProbe::New,
        };
        self.record(key, false, until, now);
        probe
    }
}

/// The topology set as a plain map with the whole-map `retain` that
/// replaced a newer-ANSN originator's tuples before the range walk.
#[derive(Default)]
struct TopoModel(BTreeMap<(NodeId, NodeId), (u16, SimTime)>);

impl TopoModel {
    fn apply_tc(
        &mut self,
        last_hop: NodeId,
        ansn: u16,
        dests: &[NodeId],
        until: SimTime,
        now: SimTime,
    ) -> bool {
        let mut changed = false;
        let existing = self
            .0
            .iter()
            .filter(|(&(lh, _), &(_, u))| lh == last_hop && u > now)
            .map(|(_, &(a, _))| a)
            .next();
        if let Some(existing) = existing {
            let newer = SequenceNumber(ansn).is_newer_than(SequenceNumber(existing));
            if existing != ansn && !newer {
                return false;
            }
            if newer {
                self.0.retain(|&(lh, _), &mut (_, u)| {
                    if lh != last_hop {
                        return true;
                    }
                    changed |= u > now;
                    false
                });
            }
        }
        for &d in dests {
            match self.0.insert((last_hop, d), (ansn, until)) {
                Some((a, u)) if a == ansn && u > now => {}
                _ => changed = true,
            }
        }
        changed
    }

    fn live(&self, now: SimTime) -> Vec<(NodeId, NodeId, u16, SimTime)> {
        self.0
            .iter()
            .filter(|(_, &(_, u))| u > now)
            .map(|(&(lh, d), &(a, u))| (lh, d, a, u))
            .collect()
    }
}

fn topo_live(set: &TopologySet, now: SimTime) -> Vec<(NodeId, NodeId, u16, SimTime)> {
    set.iter(now).map(|t| (t.last_hop, t.dest, t.ansn, t.until)).collect()
}

/// The ids the topology oracles draw originators and destinations from:
/// both sides of the wire's 0xFFFF escape, and the largest id.
const TOPO_IDS: [u32; 8] = [0, 1, 2, 0xFFFE, 0xFFFF, 0x1_0000, 0x1234_5678, u32::MAX];

fn topo_id(i: u32) -> NodeId {
    NodeId(TOPO_IDS[i as usize])
}

/// Checks [`TopologySet::mentions`] for every pair of oracle ids against
/// the scan over the live tuples it replaced.
fn check_mentions(
    set: &TopologySet,
    live: &[(NodeId, NodeId, u16, SimTime)],
    now: SimTime,
) -> Result<(), TestCaseError> {
    for node in TOPO_IDS.map(NodeId) {
        for except in TOPO_IDS.map(NodeId) {
            let want = live.iter().any(|&(lh, d, ..)| (d == node && lh != except) || lh == node);
            prop_assert_eq!(set.mentions(node, except, now), want, "{} except {}", node, except);
        }
    }
    Ok(())
}

/// A TC-related audit-log line: `TC_RX` (originator, ANSN, advertised set
/// in wire order) or `TC_HEARD` (originator, reception time).
#[derive(Debug, Clone, PartialEq, Eq)]
enum TcLine {
    Rx(NodeId, u16, Vec<NodeId>),
    Heard(NodeId, SimTime),
}

/// What a node's log memo kept per TC originator beside its topology
/// tuples, before the two merged into one record.
struct TcMemoModel {
    advertised: Vec<NodeId>,
    until: SimTime,
    heard: SimTime,
    logged: SimTime,
}

/// A receiver's two former per-originator structures: the topology as a
/// plain pair-keyed map and the log memo beside it, swept on every flush.
#[derive(Default)]
struct TcReceiverModel {
    topo: TopoModel,
    memo: BTreeMap<NodeId, TcMemoModel>,
}

impl TcReceiverModel {
    /// A new TC: logged unless it repeats the memo's set over a live
    /// link while the memo is live; then applied to the topology.
    #[allow(clippy::too_many_arguments)]
    fn receive(
        &mut self,
        orig: NodeId,
        ansn: u16,
        advertised: &[NodeId],
        sender_live: bool,
        until: SimTime,
        now: SimTime,
        log: &mut Vec<TcLine>,
    ) -> bool {
        let e = self.memo.entry(orig).or_insert_with(|| TcMemoModel {
            advertised: Vec::new(),
            until: SimTime::ZERO,
            heard: now,
            logged: now,
        });
        let repeat = e.until > now && sender_live && e.advertised == advertised;
        e.until = until;
        e.heard = now;
        if !repeat {
            e.advertised = advertised.to_vec();
            e.logged = now;
            log.push(TcLine::Rx(orig, ansn, advertised.to_vec()));
        }
        self.topo.apply_tc(orig, ansn, advertised, until, now)
    }

    /// A recompute flush: the topology purge, the memo sweep reporting
    /// unlogged clocks of lapsed entries by id, then the clocks of the
    /// current MPRs. Returns whether a tuple was dropped.
    fn flush(&mut self, mprs: &[NodeId], now: SimTime, log: &mut Vec<TcLine>) -> bool {
        let stored = self.topo.0.len();
        self.topo.0.retain(|_, &mut (_, u)| u > now);
        self.memo.retain(|&orig, e| {
            if e.until > now {
                return true;
            }
            if e.heard > e.logged {
                log.push(TcLine::Heard(orig, e.heard));
            }
            false
        });
        for &mpr in mprs {
            if let Some(e) = self.memo.get_mut(&mpr) {
                if e.heard > e.logged {
                    e.logged = e.heard;
                    log.push(TcLine::Heard(mpr, e.heard));
                }
            }
        }
        self.topo.0.len() != stored
    }
}

/// The same flush through the merged records.
fn flush_records(
    set: &mut TopologySet,
    mprs: &[NodeId],
    now: SimTime,
    log: &mut Vec<TcLine>,
) -> bool {
    let dropped = set.purge_reporting(now, |orig, heard| log.push(TcLine::Heard(orig, heard)));
    for &mpr in mprs {
        if let Some(heard) = set.take_heard(mpr) {
            log.push(TcLine::Heard(mpr, heard));
        }
    }
    dropped
}

/// One step of a TC stream at one receiver: `kind` picks a fresh TC
/// (0..3), a repeat of the originator's last one (3..6), that one
/// reversed (6), with its first id doubled (7) or one ANSN older (8..10),
/// or a flush (10..13) with the MPR set `mprs` (a bit mask over
/// [`TOPO_IDS`]). Originators and advertised ids index [`TOPO_IDS`]; six
/// originators heard a few seconds apart lapse and return, so the set
/// frees record slots and reuses them. Senders are live three times in
/// four.
#[derive(Debug, Clone)]
struct TcStep {
    dt_ms: u64,
    kind: u8,
    orig: u32,
    ansn: u16,
    wrap: bool,
    advertised: Vec<u32>,
    sender_live: bool,
    vtime_s: u64,
    mprs: u8,
}

fn tc_steps() -> impl Strategy<Value = Vec<TcStep>> {
    let step = (
        0u64..2_500,
        0u8..13,
        0u32..6,
        (0u16..4, any::<bool>()),
        proptest::collection::vec(0u32..8, 0..5),
        0u8..4,
        1u64..8,
        any::<u8>(),
    )
        .prop_map(|(dt_ms, kind, orig, (ansn, wrap), advertised, live, vtime_s, mprs)| TcStep {
            dt_ms,
            kind,
            orig,
            ansn,
            wrap,
            advertised,
            sender_live: live != 0,
            vtime_s,
            mprs,
        });
    proptest::collection::vec(step, 0..150)
}

/// One mutating operation on a 2-hop set.
#[derive(Debug, Clone)]
enum TwoHopOp {
    Upsert {
        via: u32,
        th: u32,
        hold: u64,
    },
    /// A HELLO's claimed set through one call, repeats included.
    UpsertVia {
        via: u32,
        ths: Vec<u32>,
        hold: u64,
    },
    Remove {
        via: u32,
        th: u32,
    },
    RemoveVia {
        via: u32,
    },
    Purge,
}

fn two_hop_ops() -> impl Strategy<Value = Vec<(u64, TwoHopOp)>> {
    // Single upserts four times and batches twice as often as each other
    // operation.
    let op = (0u8..9, 0u32..6, 0u32..10, 1u64..8, proptest::collection::vec(0u32..10, 0..6))
        .prop_map(|(k, via, th, hold, ths)| match k {
            0 => TwoHopOp::Remove { via, th },
            1 => TwoHopOp::RemoveVia { via },
            2 => TwoHopOp::Purge,
            3 | 4 => TwoHopOp::UpsertVia { via, ths, hold },
            _ => TwoHopOp::Upsert { via, th, hold },
        });
    // (clock advance in s, operation)
    proptest::collection::vec((0u64..3, op), 0..120)
}

/// The 2-hop set as one plain map keyed by `(via, two_hop)`: expired pairs
/// answered as absent, removed only by `remove`, `remove_via` and `purge`.
#[derive(Default)]
struct TwoHopModel(BTreeMap<(NodeId, NodeId), SimTime>);

impl TwoHopModel {
    fn upsert(&mut self, via: NodeId, th: NodeId, until: SimTime, now: SimTime) -> bool {
        let old = self.0.get(&(via, th)).copied();
        self.0.insert((via, th), old.map_or(until, |o| o.max(until)));
        old.is_none_or(|o| o <= now)
    }

    fn remove_via(&mut self, via: NodeId, now: SimTime) -> usize {
        let mut live = 0;
        self.0.retain(|&(v, _), &mut u| {
            live += usize::from(v == via && u > now);
            v != via
        });
        live
    }

    fn purge(&mut self, now: SimTime) -> Vec<(NodeId, NodeId)> {
        let dead: Vec<_> = self.0.iter().filter(|(_, &u)| u <= now).map(|(&k, _)| k).collect();
        self.0.retain(|_, &mut u| u > now);
        dead
    }

    fn live(&self, now: SimTime) -> Vec<(NodeId, NodeId, SimTime)> {
        self.0.iter().filter(|(_, &u)| u > now).map(|(&(v, t), &u)| (v, t, u)).collect()
    }
}

/// The graph both avoid-route oracles search. `me` is 0; ids 1..8 may be
/// sym neighbors, 2-hop entries reach into 0..24, TC tuples into 0..32
/// (24..32 only ever appear in TCs), and `wide` relabels 31 to the largest
/// id. Half the tuples are expired at [`AVOID_NOW`].
struct AvoidGraph {
    wide: bool,
    sym: Vec<NodeId>,
    two_hop: TwoHopSet,
    topo: TopologySet,
}

const AVOID_ME: NodeId = NodeId(0);
const AVOID_NOW: SimTime = SimTime::from_secs(10);

impl AvoidGraph {
    fn new(
        sym: Vec<u32>,
        pairs: &[(u32, u32, bool)],
        edges: &[(u32, u32, bool)],
        wide: bool,
    ) -> Self {
        let id = |i: u32| Self::relabel(wide, i);
        let until = |live: bool| SimTime::from_secs(if live { 1_000 } else { 5 });
        let mut sym: Vec<NodeId> = sym.into_iter().map(NodeId).collect();
        sym.sort_unstable();
        sym.dedup();
        let mut two_hop = TwoHopSet::default();
        for &(via, th, live) in pairs {
            two_hop.upsert(NodeId(via), id(th), until(live), SimTime::ZERO);
        }
        let mut by_origin: BTreeMap<(u32, bool), Vec<NodeId>> = BTreeMap::new();
        for &(a, b, live) in edges {
            by_origin.entry((a, live)).or_default().push(id(b));
        }
        let mut topo = TopologySet::default();
        for (&(a, live), dests) in &by_origin {
            topo.apply_tc(id(a), u16::from(live), dests, until(live), SimTime::ZERO);
        }
        AvoidGraph { wide, sym, two_hop, topo }
    }

    fn relabel(wide: bool, i: u32) -> NodeId {
        if wide && i == 31 {
            NodeId(u32::MAX)
        } else {
            NodeId(i)
        }
    }

    /// Every sym neighbor, 2-hop-only and TC-only id, `me`, and absent ids.
    fn probes(&self) -> Vec<NodeId> {
        let wide = self.wide;
        (0..34)
            .map(|i| Self::relabel(wide, i))
            .chain([NodeId(u32::MAX), NodeId(u32::MAX - 1)])
            .collect()
    }

    /// The main route run of `graph`, given `generation`, after purging
    /// the expired tuples: the graph routes over the stored ones.
    fn main_into(&mut self, graph: &mut RoutingGraph, out: &mut RoutingTable, generation: u64) {
        let AvoidGraph { sym, two_hop, topo, .. } = self;
        two_hop.purge(AVOID_NOW);
        topo.purge(AVOID_NOW);
        graph.run(out, generation, sym, two_hop, topo);
    }

    fn around(&self, x: NodeId) -> RoutingTable {
        RoutingTable::compute_avoiding(
            AVOID_ME,
            &self.sym,
            &self.two_hop,
            &self.topo,
            AVOID_NOW,
            Some(x),
        )
    }
}

proptest! {
    #[test]
    fn reroute_avoiding_matches_compute_avoiding(
        sym in proptest::collection::vec(1u32..8, 0..6),
        pairs in proptest::collection::vec((1u32..8, 0u32..24, any::<bool>()), 0..30),
        edges in proptest::collection::vec((0u32..32, 0u32..32, any::<bool>()), 0..60),
        wide in any::<bool>(),
    ) {
        let mut graph = AvoidGraph::new(sym, &pairs, &edges, wide);
        let mut routing = RoutingGraph::new(AVOID_ME);
        let mut main = RoutingTable::default();
        graph.main_into(&mut routing, &mut main, 7);
        prop_assert_eq!(&main, &graph.around(AVOID_ME));
        let mut out = RoutingTable::default();
        for x in graph.probes() {
            routing.reroute(&mut out, x);
            prop_assert_eq!(&out, &graph.around(x), "avoiding {}", x);
        }
        // The reroutes left the main graph intact.
        graph.main_into(&mut routing, &mut out, 8);
        prop_assert_eq!(&out, &main);
    }

    #[test]
    fn tree_answers_match_compute_avoiding(
        sym in proptest::collection::vec(1u32..8, 0..6),
        pairs in proptest::collection::vec((1u32..8, 0u32..24, any::<bool>()), 0..30),
        edges in proptest::collection::vec((0u32..32, 0u32..32, any::<bool>()), 0..60),
        wide in any::<bool>(),
    ) {
        let mut graph = AvoidGraph::new(sym, &pairs, &edges, wide);
        // Where the main BFS tree says a route avoids a node, the main
        // route (next hop and hops, or absence) is the route around it.
        // The first pass reads the tree the first query records, the
        // second the one a later run records itself.
        let mut routing = RoutingGraph::new(AVOID_ME);
        let mut main = RoutingTable::default();
        prop_assert_eq!(routing.tree_route(7, AVOID_ME, AVOID_ME), TreeRoute::Unknown, "no run");
        graph.main_into(&mut routing, &mut main, 7);
        let probes = graph.probes();
        let around: Vec<RoutingTable> = probes.iter().map(|&x| graph.around(x)).collect();
        for generation in [7, 9] {
            if generation == 9 {
                graph.main_into(&mut routing, &mut main, 9);
            }
            let stale = routing.tree_route(generation + 1, AVOID_ME, AVOID_ME);
            prop_assert_eq!(stale, TreeRoute::Unknown, "another generation");
            let mut avoids = 0;
            for (&x, around) in probes.iter().zip(&around) {
                for &dst in &probes {
                    let answer = routing.tree_route(generation, dst, x);
                    let route = main.route_to(dst);
                    match answer {
                        TreeRoute::Avoids => {
                            avoids += 1;
                            prop_assert_eq!(route, around.route_to(dst), "{} avoiding {}", dst, x);
                        }
                        TreeRoute::Passes => {
                            // `x` lies on the route to `dst`: it is routed,
                            // shares the first hop and is no farther.
                            let (r, via) = (route, main.route_to(x));
                            prop_assert!(r.is_some() && via.is_some(), "{} via {}", dst, x);
                            let (r, via) = (r.unwrap(), via.unwrap());
                            prop_assert_eq!(r.next_hop, via.next_hop, "{} via {}", dst, x);
                            prop_assert!(r.hops > via.hops || dst == x, "{} via {}", dst, x);
                        }
                        TreeRoute::Unknown => prop_assert!(false, "{} avoiding {} unknown", dst, x),
                    }
                    if route.is_some_and(|r| r.next_hop == x) {
                        prop_assert_eq!(answer, TreeRoute::Passes, "{} through next hop {}", dst, x);
                    }
                }
            }
            prop_assert!(avoids > 0);
        }
    }

    #[test]
    fn duplicate_answers_do_not_depend_on_purges(ops in dup_ops()) {
        // `lazy` is never purged explicitly, `eager` is purged before the
        // operations flagged so; both must answer like the plain model.
        let mut lazy = DuplicateSet::default();
        let mut eager = DuplicateSet::default();
        let mut model = DupModel::default();
        let mut now = SimTime::ZERO;
        for (step, &(dt_ms, purge, op)) in ops.iter().enumerate() {
            now += SimDuration::from_millis(dt_ms);
            if purge {
                eager.purge(now);
            }
            match op {
                DupOp::Record { orig, seq, retx, hold_ms } => {
                    let until = now + SimDuration::from_millis(hold_ms);
                    lazy.record(NodeId(orig), SequenceNumber(seq), retx, until, now);
                    eager.record(NodeId(orig), SequenceNumber(seq), retx, until, now);
                    model.record((orig, seq), retx, until, now);
                }
                DupOp::Probe { orig, seq, hold_ms } => {
                    let until = now + SimDuration::from_millis(hold_ms);
                    let want = model.probe((orig, seq), until, now);
                    let (o, s) = (NodeId(orig), SequenceNumber(seq));
                    prop_assert_eq!(lazy.probe_flood(o, s, until, now), want, "step {}", step);
                    prop_assert_eq!(eager.probe_flood(o, s, until, now), want, "step {}", step);
                }
            }
            // `seen`/`retransmitted` for every key, after every operation.
            for orig in DUP_ORIGINATORS {
                for seq in 0..8u16 {
                    let live = model.live((orig, seq), now);
                    let (o, s) = (NodeId(orig), SequenceNumber(seq));
                    for set in [&lazy, &eager] {
                        prop_assert_eq!(set.seen(o, s, now), live.is_some(), "step {}", step);
                        prop_assert_eq!(
                            set.retransmitted(o, s, now),
                            live.is_some_and(|(_, r)| r),
                            "step {}", step
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn apply_tc_matches_whole_map_retain(
        tcs in proptest::collection::vec(
            (0u32..6, 0u16..6, any::<bool>(), proptest::collection::vec(0u32..8, 0..5), 1u64..8, 0u64..3, any::<bool>()),
            0..60,
        ),
    ) {
        // ANSNs near 0, or near the wrap when the flag is set; `dt` advances
        // the clock so tuples expire between TCs; a purge now and then
        // frees the records of originators whose tuples all expired, and
        // later originators reuse their slots. Ids index `TOPO_IDS`.
        let mut set = TopologySet::default();
        let mut model = TopoModel::default();
        let mut now = SimTime::ZERO;
        for (step, (lh, ansn, wrap, dests, hold, dt, purge)) in tcs.into_iter().enumerate() {
            now += SimDuration::from_secs(dt);
            let ansn = if wrap { ansn.wrapping_sub(3) } else { ansn };
            let dests: Vec<NodeId> = dests.into_iter().map(topo_id).collect();
            let until = now + SimDuration::from_secs(hold);
            let got = set.apply_tc(topo_id(lh), ansn, &dests, until, now);
            let want = model.apply_tc(topo_id(lh), ansn, &dests, until, now);
            prop_assert_eq!(got, want, "changed flag at step {}", step);
            prop_assert_eq!(set.len(), model.0.len(), "stored tuples at step {}", step);
            let live = model.live(now);
            prop_assert_eq!(topo_live(&set, now), live.clone(), "step {}", step);
            for o in TOPO_IDS.map(NodeId) {
                let want = live.iter().find(|t| t.0 == o).map(|t| t.2);
                prop_assert_eq!(set.ansn_of(o, now), want);
            }
            check_mentions(&set, &live, now)?;
            if purge {
                let stored = model.0.len();
                model.0.retain(|_, &mut (_, u)| u > now);
                prop_assert_eq!(set.purge(now), model.0.len() != stored, "purge at step {}", step);
                prop_assert_eq!(set.len(), model.0.len());
            }
        }
    }

    #[test]
    fn tc_records_match_memo_beside_pair_keyed_map(steps in tc_steps()) {
        // ANSNs near 0 or near the wrap, stale ANSNs, permuted and
        // doubled lists, live and lapsed senders, and clock steps past
        // `vtime`: the merged records must write the same `TC_RX` and
        // `TC_HEARD` lines, report the same topology changes and hold the
        // same tuples as the memo and the map they replaced.
        let mut set = TopologySet::default();
        let mut model = TcReceiverModel::default();
        let (mut got_log, mut want_log) = (Vec::new(), Vec::new());
        let mut last: BTreeMap<u32, (u16, Vec<NodeId>)> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        for (i, step) in steps.into_iter().enumerate() {
            now += SimDuration::from_millis(step.dt_ms);
            if step.kind >= 10 {
                let mprs: Vec<NodeId> =
                    (0..8).filter(|b| step.mprs & (1 << b) != 0).map(topo_id).collect();
                let got = flush_records(&mut set, &mprs, now, &mut got_log);
                let want = model.flush(&mprs, now, &mut want_log);
                prop_assert_eq!(got, want, "purge result at step {}", i);
            } else {
                let fresh = || {
                    let ansn = if step.wrap { step.ansn.wrapping_sub(2) } else { step.ansn };
                    (ansn, step.advertised.iter().copied().map(topo_id).collect::<Vec<_>>())
                };
                let (ansn, advertised) = match (step.kind, last.get(&step.orig)) {
                    (3..=5, Some(prev)) => prev.clone(),
                    (6, Some((a, list))) => (*a, list.iter().rev().copied().collect()),
                    (7, Some((a, list))) => {
                        (*a, list.first().into_iter().chain(list).copied().collect())
                    }
                    (8 | 9, Some((a, list))) => (a.wrapping_sub(1), list.clone()),
                    _ => fresh(),
                };
                last.insert(step.orig, (ansn, advertised.clone()));
                let orig = topo_id(step.orig);
                let until = now + SimDuration::from_secs(step.vtime_s);
                let receipt = set.receive_tc(
                    orig,
                    ansn,
                    advertised.iter().copied(),
                    step.sender_live,
                    until,
                    now,
                );
                if receipt.log {
                    got_log.push(TcLine::Rx(orig, ansn, advertised.clone()));
                }
                let want = model.receive(
                    orig,
                    ansn,
                    &advertised,
                    step.sender_live,
                    until,
                    now,
                    &mut want_log,
                );
                prop_assert_eq!(receipt.changed, want, "changed flag at step {}", i);
            }
            // The log holds the `TC_HEARD` lines of lapsing states in the
            // order the purge reported them: ascending by originator.
            prop_assert_eq!(&got_log, &want_log, "log lines after step {}", i);
            let live = model.topo.live(now);
            prop_assert_eq!(topo_live(&set, now), live.clone(), "step {}", i);
            prop_assert_eq!(set.len(), model.topo.0.len(), "stored tuples at step {}", i);
            for o in TOPO_IDS.map(NodeId) {
                let want = live.iter().find(|t| t.0 == o).map(|t| t.2);
                prop_assert_eq!(set.ansn_of(o, now), want, "step {}", i);
            }
            check_mentions(&set, &live, now)?;
        }
    }

    #[test]
    fn two_hop_set_matches_pair_keyed_map(ops in two_hop_ops()) {
        let mut set = TwoHopSet::default();
        let mut model = TwoHopModel::default();
        let mut now = SimTime::ZERO;
        for (step, (dt, op)) in ops.into_iter().enumerate() {
            now += SimDuration::from_secs(dt);
            match op {
                TwoHopOp::Upsert { via, th, hold } => {
                    let (via, th) = (NodeId(via), NodeId(th));
                    let until = now + SimDuration::from_secs(hold);
                    let want = model.upsert(via, th, until, now);
                    prop_assert_eq!(set.upsert(via, th, until, now), want, "step {}", step);
                }
                TwoHopOp::UpsertVia { via, ths, hold } => {
                    let via = NodeId(via);
                    let until = now + SimDuration::from_secs(hold);
                    let ths: Vec<NodeId> = ths.into_iter().map(NodeId).collect();
                    let want: Vec<NodeId> =
                        ths.iter().copied().filter(|&th| model.upsert(via, th, until, now)).collect();
                    let mut got = Vec::new();
                    set.upsert_via(via, ths, until, now, |th| got.push(th));
                    prop_assert_eq!(got, want, "step {}", step);
                }
                TwoHopOp::Remove { via, th } => {
                    let (via, th) = (NodeId(via), NodeId(th));
                    let want = model.0.remove(&(via, th)).is_some();
                    prop_assert_eq!(set.remove(via, th), want, "step {}", step);
                }
                TwoHopOp::RemoveVia { via } => {
                    let want = model.remove_via(NodeId(via), now);
                    prop_assert_eq!(set.remove_via(NodeId(via), now), want, "step {}", step);
                }
                TwoHopOp::Purge => {
                    prop_assert_eq!(set.purge(now), model.purge(now), "step {}", step);
                }
            }
            prop_assert_eq!(set.len(), model.0.len(), "stored pairs at step {}", step);
            prop_assert_eq!(set.is_empty(), model.0.is_empty());
            let live: Vec<_> = set.iter(now).map(|t| (t.via, t.two_hop, t.until)).collect();
            prop_assert_eq!(&live, &model.live(now), "step {}", step);
            for th in (0..11).map(NodeId) {
                let want: Vec<NodeId> =
                    live.iter().filter(|&&(_, t, _)| t == th).map(|&(v, _, _)| v).collect();
                prop_assert_eq!(set.iter_vias_for(th, now).collect::<Vec<_>>(), want);
                for via in (0..7).map(NodeId) {
                    let want = model.0.get(&(via, th)).is_some_and(|&u| u > now);
                    prop_assert_eq!(set.contains(via, th, now), want, "step {}", step);
                }
            }
        }
    }

    #[test]
    fn kept_graph_routes_like_a_rebuild(ops in graph_ops()) {
        let mut node = GraphNode::default();
        // The sets, neighbors and instant of the last route run.
        let mut last: Option<(TwoHopSet, TopologySet, Vec<NodeId>, SimTime)> = None;
        // The routes of the last run that searched, and a reroute's.
        let (mut main, mut out) = (RoutingTable::default(), RoutingTable::default());
        for (step, (dt, op)) in ops.into_iter().enumerate() {
            node.now += SimDuration::from_secs(dt);
            let now = node.now;
            match op {
                GraphOp::Hello { via, claims, hold } => {
                    let until = now + SimDuration::from_secs(hold);
                    let claims = claims.into_iter().map(graph_id);
                    node.two_hop.upsert_via(graph_id(via), claims, until, now, |_| {});
                }
                GraphOp::Lost { via } => {
                    node.two_hop.remove_via(graph_id(via), now);
                }
                GraphOp::Tc { origin, ansn, dests, hold } => {
                    let dests: Vec<NodeId> = dests.into_iter().map(graph_id).collect();
                    node.tc(graph_id(origin), ansn, &dests, hold);
                }
                GraphOp::Leaf { origin, leaf } => {
                    node.tc(graph_id(origin), 1, &[NodeId(GRAPH_LEAF + leaf)], 8);
                }
                GraphOp::Sym { ids } => {
                    let mut sym: Vec<NodeId> = ids.into_iter().map(graph_id).collect();
                    sym.sort_unstable();
                    sym.dedup();
                    // A neighbor that leaves takes its 2-hop pairs along.
                    for &n in node.sym.iter().filter(|n| !sym.contains(n)) {
                        node.two_hop.remove_via(n, now);
                    }
                    node.sym = sym;
                }
                GraphOp::Purge => {
                    node.two_hop.purge(now);
                    node.topo.purge(now);
                }
                GraphOp::Run => {
                    node.two_hop.purge(now);
                    node.topo.purge(now);
                    node.generation += 1;
                    let GraphNode { graph, two_hop, topo, sym, generation, .. } = &mut node;
                    let searched = graph.run(&mut main, *generation, sym, two_hop, topo);
                    let want = RoutingTable::compute(GRAPH_ME, sym, two_hop, topo, now);
                    prop_assert_eq!(&main, &want, "route run at step {} (searched {})", step, searched);
                    last = Some((two_hop.clone(), topo.clone(), sym.clone(), now));
                }
                GraphOp::Reroute { avoided } | GraphOp::Tree { avoided } => {
                    let avoided = graph_id(avoided);
                    let rerouted = matches!(op, GraphOp::Reroute { .. });
                    if rerouted {
                        node.graph.reroute(&mut out, avoided);
                    }
                    let Some((two_hop, topo, sym, at)) = &last else {
                        prop_assert!(out.is_empty(), "no run yet, step {}", step);
                        continue;
                    };
                    let want = RoutingTable::compute_avoiding(
                        GRAPH_ME, sym, two_hop, topo, *at, Some(avoided),
                    );
                    if rerouted {
                        prop_assert_eq!(&out, &want, "avoiding {} at step {}", avoided, step);
                    }
                    for dst in (0..GRAPH_IDS).map(graph_id) {
                        if node.graph.tree_route(node.generation, dst, avoided) == TreeRoute::Avoids {
                            prop_assert_eq!(main.route_to(dst), want.route_to(dst), "step {}", step);
                        }
                    }
                }
            }
        }
    }
}

/// `me` of [`GraphNode`].
const GRAPH_ME: NodeId = NodeId(0);

/// Ids `0..GRAPH_IDS` appear in the graph oracle's operations; the last
/// one stands for the largest id.
const GRAPH_IDS: u32 = 14;

/// The first of the leaf ids, which only [`GraphOp::Leaf`] advertises.
const GRAPH_LEAF: u32 = 100;

fn graph_id(i: u32) -> NodeId {
    if i == GRAPH_IDS - 1 {
        NodeId(u32::MAX)
    } else {
        NodeId(i)
    }
}

/// What a node does to the inputs of its route runs, as the graph oracle
/// drives it.
#[derive(Debug, Clone)]
enum GraphOp {
    /// A HELLO from `via` claiming `claims` as its symmetric neighbors.
    Hello { via: u32, claims: Vec<u32>, hold: u64 },
    /// A HELLO from `via` listing this node LOST: every pair through `via`
    /// goes, possibly only expired ones.
    Lost { via: u32 },
    /// A TC from `origin` whose ANSN moves by `ansn` (0: the same ANSN, a
    /// merge or a refresh; 65 535: a stale one).
    Tc { origin: u32, ansn: u16, dests: Vec<u32>, hold: u64 },
    /// The symmetric neighbors become `ids`.
    Sym { ids: Vec<u32> },
    /// Both sets purged at a random instant.
    Purge,
    /// A route run, after the purges the node makes before it.
    Run,
    /// A masked reroute over the last run's graph.
    Reroute { avoided: u32 },
    /// The main tree's answers around `avoided`, without a reroute.
    Tree { avoided: u32 },
    /// A TC from `origin` with the next ANSN advertising one of four leaf
    /// ids alone: the leaf it advertised before loses its last edge when
    /// no other TC names it, and its slot goes to the new leaf within the
    /// same replay.
    Leaf { origin: u32, leaf: u32 },
}

fn graph_ops() -> impl Strategy<Value = Vec<(u64, GraphOp)>> {
    let ids = || proptest::collection::vec(0u32..GRAPH_IDS, 0..6);
    let op = (
        0u8..16,
        0u32..GRAPH_IDS,
        1u64..8,
        ids(),
        prop_oneof![Just(0u16), Just(1), Just(u16::MAX)],
    )
        .prop_map(|(k, id, hold, list, ansn)| match k {
            0..=2 => GraphOp::Hello { via: 1 + id % 6, claims: list, hold },
            3 => GraphOp::Lost { via: 1 + id % 6 },
            4..=6 => GraphOp::Tc { origin: id, ansn, dests: list, hold },
            7 => GraphOp::Sym { ids: list.into_iter().filter(|&i| i != 0).collect() },
            8 => GraphOp::Purge,
            9 | 10 => GraphOp::Run,
            11 => GraphOp::Reroute { avoided: id },
            12 => GraphOp::Tree { avoided: id },
            _ => GraphOp::Leaf { origin: id, leaf: hold as u32 % 4 },
        });
    // (clock advance in s, operation)
    proptest::collection::vec((0u64..3, op), 0..120)
}

/// The route-run inputs of one node and the graph it keeps.
struct GraphNode {
    graph: RoutingGraph,
    two_hop: TwoHopSet,
    topo: TopologySet,
    sym: Vec<NodeId>,
    ansns: BTreeMap<NodeId, u16>,
    generation: u64,
    now: SimTime,
}

impl GraphNode {
    /// A TC from `origin` whose ANSN moves by `ansn`, held `hold` seconds.
    fn tc(&mut self, origin: NodeId, ansn: u16, dests: &[NodeId], hold: u64) {
        let current = self.ansns.entry(origin).or_insert(0);
        *current = current.wrapping_add(ansn);
        let until = self.now + SimDuration::from_secs(hold);
        self.topo.receive_tc(origin, *current, dests.iter().copied(), true, until, self.now);
    }
}

impl Default for GraphNode {
    fn default() -> Self {
        GraphNode {
            graph: RoutingGraph::new(GRAPH_ME),
            two_hop: TwoHopSet::default(),
            topo: TopologySet::default(),
            sym: Vec::new(),
            ansns: BTreeMap::new(),
            generation: 0,
            now: SimTime::ZERO,
        }
    }
}
