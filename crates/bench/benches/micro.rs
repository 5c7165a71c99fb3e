//! Micro-benchmarks of the hot primitives: the engine's frame fan-out and
//! delivery, MPR selection, route calculation, the topology set's TC
//! reception and purge, wire codec, the reception of
//! a repeated TC, of an already retransmitted TC copy and of a TC copy the
//! node relays, log parsing, signature matching, trust update, detection
//! aggregation and the probit.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use trustlink_olsr::hooks::{OlsrHooks, Relay};
use trustlink_olsr::message::{
    HelloMessage, LinkCode, LinkGroup, LinkType, Message, MessageBody, NeighborType, Packet,
    TcMessage,
};
use trustlink_olsr::mpr::{select_mprs, MprCandidate};
use trustlink_olsr::routing::{RoutingGraph, RoutingTable, TreeRoute};
use trustlink_olsr::state::{TopologySet, TwoHopSet};
use trustlink_olsr::types::SequenceNumber;
use trustlink_olsr::wire::{decode_packet, encode_messages_into, encode_packet, PacketView};
use trustlink_olsr::{FisheyeRings, FloodScope, OlsrConfig, OlsrNode};
use trustlink_sim::record::Willingness;
use trustlink_sim::record::{from_rlog_line, parse_line, LogRecord};
use trustlink_sim::{
    topologies, Application, Arena, Context, NodeId, Position, RadioConfig, SimDuration, SimTime,
    SimulatorBuilder, SuppressReason, TimerToken,
};
use trustlink_trust::prelude::*;

/// Broadcasts one shared frame every 100 ms, starts staggered by id, and
/// receives through the default `on_receive`: an application that costs
/// next to nothing, so a run times the engine.
struct Beacon {
    payload: Bytes,
}

impl Application for Beacon {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_micros(u64::from(ctx.id().0) * 397), TimerToken(0));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        ctx.broadcast(self.payload.clone());
        ctx.set_timer(SimDuration::from_millis(100), token);
    }
}

fn bench_engine(c: &mut Criterion) {
    // 256 beacons on a mean-degree-10 random geometric graph, default
    // radio delays. One iteration is 100 ms of simulated time: every node
    // broadcasts once, and the engine fans each frame out to its
    // receivers and delivers it through the in-flight ring.
    let n = 256;
    let arena = topologies::arena_for_mean_degree(n, 150.0, 10.0);
    let positions = topologies::random_geometric(n, &arena, &mut StdRng::seed_from_u64(7));
    let mut sim = SimulatorBuilder::new(1)
        .arena(arena)
        .radio(RadioConfig::unit_disk(150.0))
        .expected_nodes(n)
        .build();
    let payload = Bytes::from_static(&[0u8; 64]);
    for p in positions {
        sim.add_node(Box::new(Beacon { payload: payload.clone() }), p);
    }
    sim.run_for(SimDuration::from_secs(1));
    c.bench_function("engine_flood_256", |b| {
        b.iter(|| sim.run_for(SimDuration::from_millis(100)));
    });
    let delivered: u64 = sim.node_ids().map(|id| sim.stats().node(id).received).sum();
    assert!(delivered > 10_000, "the flood delivered only {delivered} frames");
}

fn bench_mpr_selection(c: &mut Criterion) {
    // 20 candidates covering 60 two-hop targets with overlap.
    let candidates: Vec<MprCandidate> = (0..20u32)
        .map(|i| MprCandidate {
            addr: NodeId(i),
            willingness: Willingness::Default,
            covers: (0..6).map(|k| NodeId(100 + (i * 3 + k) % 60)).collect(),
            degree: 6,
        })
        .collect();
    let targets: Vec<NodeId> = (0..60u32).map(|i| NodeId(100 + i)).collect();
    c.bench_function("mpr_selection_20c_60t", |b| {
        b.iter(|| black_box(select_mprs(black_box(&candidates), black_box(&targets))))
    });
}

fn bench_routing(c: &mut Criterion) {
    // A 50-node topology ring with chords, routed by a kept graph. No pair
    // changes between runs, but each run lists `me`'s neighbors in the
    // other of two orders, so it searches the whole graph afresh: a run is
    // the full BFS and the emit step.
    let mut topo = TopologySet::default();
    let until = SimTime::from_secs(1_000);
    for i in 0..50u32 {
        let dests = vec![NodeId((i + 1) % 50), NodeId((i + 7) % 50)];
        topo.apply_tc(NodeId(i), 1, &dests, until, SimTime::ZERO);
    }
    let sym = vec![NodeId(1), NodeId(49), NodeId(7)];
    let orders = [sym.clone(), vec![NodeId(7), NodeId(1), NodeId(49)]];
    let mut two_hop = TwoHopSet::default();
    let mut graph = RoutingGraph::new(NodeId(0));
    let mut main = RoutingTable::default();
    graph.run(&mut main, 1, &sym, &mut two_hop, &mut topo);
    let mut table = RoutingTable::default();
    let mut turn = 0;
    c.bench_function("routing_table_50_nodes", |b| {
        b.iter(|| {
            turn += 1;
            let sym = black_box(&orders[turn % 2]);
            assert!(graph.run(&mut table, 1, sym, &mut two_hop, &mut topo));
            black_box(table.len())
        })
    });
    // Back to `sym`: a run, or none if the last iteration used it.
    graph.run(&mut table, 1, &sym, &mut two_hop, &mut topo);
    assert_eq!(table, main);
    // The whole table around 7: the masked BFS over the same graph.
    c.bench_function("routing_table_50_nodes_avoiding", |b| {
        b.iter(|| {
            graph.reroute(&mut table, black_box(NodeId(7)));
            black_box(table.len())
        })
    });
    let want = RoutingTable::compute_avoiding(
        NodeId(0),
        &sym,
        &two_hop,
        &topo,
        SimTime::ZERO,
        Some(NodeId(7)),
    );
    assert_eq!(table, want);
    // One avoid-routed lookup each way on the same ring: the main tree
    // reaches 2 without 7, so it answers; 14 lies behind 7, so the masked
    // BFS runs.
    assert_eq!(graph.tree_route(1, NodeId(2), NodeId(7)), TreeRoute::Avoids);
    assert_eq!(graph.tree_route(1, NodeId(14), NodeId(7)), TreeRoute::Passes);
    c.bench_function("avoid_lookup_50_nodes_tree", |b| {
        b.iter(|| {
            let dst = black_box(NodeId(2));
            match graph.tree_route(1, dst, black_box(NodeId(7))) {
                TreeRoute::Avoids => black_box(main.next_hop(dst)),
                _ => unreachable!("the tree answers"),
            }
        })
    });
    let mut around = RoutingTable::default();
    c.bench_function("avoid_lookup_50_nodes_masked_bfs", |b| {
        b.iter(|| {
            let dst = black_box(NodeId(14));
            match graph.tree_route(1, dst, black_box(NodeId(7))) {
                TreeRoute::Passes => {}
                _ => unreachable!("the tree cannot answer"),
            }
            graph.reroute(&mut around, NodeId(7));
            black_box(around.next_hop(dst))
        })
    });
    // The same ring plus one phantom 2-hop neighbor at id 999 999: route
    // cost follows the ids heard, not the largest one.
    let mut hostile = TwoHopSet::default();
    hostile.upsert(NodeId(1), NodeId(999_999), until, SimTime::ZERO);
    let mut graph = RoutingGraph::new(NodeId(0));
    c.bench_function("routing_table_50_nodes_hostile_id", |b| {
        b.iter(|| {
            turn += 1;
            let sym = black_box(&orders[turn % 2]);
            assert!(graph.run(&mut table, 1, sym, &mut hostile, &mut topo));
            black_box(table.len())
        })
    });
    assert_eq!(table.route_to(NodeId(999_999)).map(|r| r.hops), Some(2));
}

fn bench_route_run(c: &mut Criterion) {
    // The perfbench recipe's 256-node network (placement seed 11, mean
    // degree 10, fisheye TCs), converged for 12 simulated seconds. One
    // node's 2-hop and topology sets are copied out and followed by a kept
    // graph, which resumes each BFS at the first dequeue a change can
    // alter. `route_run_256` applies one changed TC per iteration, a newer
    // ANSN that drops or restores one of its originator's advertised
    // links, then runs the routes: the kept graph replays the two or three
    // pair changes, none of which moves the search, so it searches nothing,
    // where the one-shot calculation (`route_rebuild_256`) rebuilds from
    // every live pair. `route_run_256_near` instead adds or drops a 2-hop
    // pair from `me`'s first neighbor to a phantom id, which moves dequeue
    // 1: the search reruns almost whole. The two span the resume range.
    let n = 256;
    let arena = topologies::arena_for_mean_degree(n, 150.0, 10.0);
    let positions = topologies::random_geometric(
        n,
        &arena,
        &mut StdRng::seed_from_u64(11u64.wrapping_add(0x9E37)),
    );
    let mut sim = SimulatorBuilder::new(1)
        .arena(arena)
        .radio(RadioConfig::unit_disk(150.0))
        .expected_nodes(n)
        .build();
    let config = OlsrConfig::fast().with_flood_scope(FloodScope::Fisheye(FisheyeRings::default()));
    for p in positions {
        sim.add_node(Box::new(OlsrNode::new(config.clone())), p);
    }
    sim.run_for(SimDuration::from_secs(12));
    let now = sim.now();
    let me = NodeId(0);
    let node = sim.app_as::<OlsrNode>(me).expect("an OLSR node");
    let sym = node.symmetric_neighbors(now);
    let mut two_hop = node.two_hop_set().clone();
    let mut topo = node.topology_set().clone();
    two_hop.purge(now);
    topo.purge(now);
    // The originator advertising the most links, and its advertisement.
    let mut by_origin: std::collections::BTreeMap<NodeId, Vec<NodeId>> = Default::default();
    for t in topo.iter(now) {
        by_origin.entry(t.last_hop).or_default().push(t.dest);
    }
    let (&origin, full) = by_origin.iter().max_by_key(|(_, d)| d.len()).expect("a converged node");
    let full = full.clone();
    let short = &full[..full.len() - 1];
    let mut ansn = topo.ansn_of(origin, now).expect("a live originator");
    let until = now + SimDuration::from_secs(1_000);
    let mut graph = RoutingGraph::new(me);
    let mut table = RoutingTable::default();
    graph.run(&mut table, 0, &sym, &mut two_hop, &mut topo);
    assert!(table.len() > n / 2, "a converged node routes to most of the network");
    let whole = graph.stats().scanned;
    let mut generation = 0;
    // Adjacency entries scanned per run of the bench named.
    let scanned_per_run = |graph: &RoutingGraph, name: &str, runs: u64, before: u64| {
        let per_run = (graph.stats().scanned - before) / runs.max(1);
        eprintln!("{name}: {per_run} of {whole} adjacency entries scanned per run");
        per_run
    };
    let (before, mut runs) = (graph.stats().scanned, 0);
    c.bench_function("route_run_256", |b| {
        b.iter(|| {
            ansn = ansn.wrapping_add(1);
            generation += 1;
            runs += 1;
            let dests = if generation % 2 == 1 { short } else { &full[..] };
            topo.apply_tc(origin, ansn, dests, until, now);
            graph.run(&mut table, generation, black_box(&sym), &mut two_hop, &mut topo);
            black_box(table.len())
        })
    });
    assert_eq!(table, RoutingTable::compute(me, &sym, &two_hop, &topo, now));
    let far = scanned_per_run(&graph, "route_run_256", runs, before);
    let phantom = NodeId(999_999);
    let (before, mut runs, mut held) = (graph.stats().scanned, 0, false);
    c.bench_function("route_run_256_near", |b| {
        b.iter(|| {
            generation += 1;
            runs += 1;
            held = !held;
            if held {
                two_hop.upsert(sym[0], phantom, until, now);
            } else {
                two_hop.remove(sym[0], phantom);
            }
            graph.run(&mut table, generation, black_box(&sym), &mut two_hop, &mut topo);
            black_box(table.len())
        })
    });
    assert_eq!(table, RoutingTable::compute(me, &sym, &two_hop, &topo, now));
    let near = scanned_per_run(&graph, "route_run_256_near", runs, before);
    assert!(near + sym.len() as u64 + 2 >= whole, "the near change reruns the whole search");
    assert!(far < near, "the far change resumes later than the near one");
    c.bench_function("route_rebuild_256", |b| {
        b.iter(|| {
            ansn = ansn.wrapping_add(1);
            generation += 1;
            let dests = if generation % 2 == 1 { short } else { &full[..] };
            topo.apply_tc(origin, ansn, dests, until, now);
            black_box(RoutingTable::compute(me, black_box(&sym), &two_hop, &topo, now).len())
        })
    });
}

fn bench_topology_receive(c: &mut Criterion) {
    // A topology set holding 256 originators with ids up to about 10^7,
    // each advertising four destinations for its own validity of 3 to 6 s,
    // staggered by originator. Each iteration receives the next
    // originator's TC, 10 ms after the last, and purges. Every originator
    // moves to a newer ANSN and set every second lap of 256 TCs, and one
    // in 16 falls silent for four laps of eight: its record lapses, the
    // purge frees the slot, and its return takes a free slot again. The
    // set's live tuples must then equal a `BTreeMap` of each originator's
    // last TC.
    const ORIGINATORS: u64 = 256;
    let id = |o: u64| NodeId(o as u32 * 40_009);
    let advertised = |o: u64, ansn: u16| {
        let base = o as u32 * 16 + u32::from(ansn % 4);
        [base, base + 4, base + 8, base + 12].map(NodeId)
    };
    let mut set = TopologySet::default();
    let mut model: std::collections::BTreeMap<NodeId, (u16, [NodeId; 4], SimTime)> =
        Default::default();
    let mut turn = 0u64;
    let mut step = move |set: &mut TopologySet, model: &mut std::collections::BTreeMap<_, _>| {
        let now = SimTime::from_millis(turn * 10);
        let (o, lap) = (turn % ORIGINATORS, turn / ORIGINATORS);
        turn += 1;
        if o % 16 != 0 || lap % 8 < 4 {
            let ansn = (lap / 2) as u16;
            let dests = advertised(o, ansn);
            let until = now + SimDuration::from_secs(3 + o % 4);
            set.receive_tc(id(o), ansn, dests.iter().copied(), true, until, now);
            model.insert(id(o), (ansn, dests, until));
        }
        set.purge(now);
        now
    };
    for _ in 0..ORIGINATORS * 16 {
        step(&mut set, &mut model);
    }
    let mut now = SimTime::ZERO;
    c.bench_function("topology_receive_256", |b| {
        b.iter(|| {
            now = step(&mut set, &mut model);
            black_box(set.len())
        })
    });
    let got: Vec<_> = set.iter(now).map(|t| (t.last_hop, t.dest, t.ansn, t.until)).collect();
    let want: Vec<_> = model
        .iter()
        .filter(|(_, &(_, _, until))| until > now)
        .flat_map(|(&o, &(ansn, dests, until))| dests.map(|d| (o, d, ansn, until)))
        .collect();
    assert_eq!(got, want, "the set's live tuples at {now}");
    assert!(want.len() > 900, "{} live tuples", want.len());
}

fn bench_wire(c: &mut Criterion) {
    let packet = Packet {
        seq: SequenceNumber(42),
        messages: vec![
            Message {
                vtime: SimDuration::from_secs(6),
                originator: NodeId(3),
                ttl: 1,
                hop_count: 0,
                seq: SequenceNumber(7),
                body: MessageBody::Hello(HelloMessage {
                    willingness: Willingness::Default,
                    groups: vec![LinkGroup {
                        code: LinkCode::new(LinkType::Sym, NeighborType::Sym),
                        addrs: (0..8).map(NodeId).collect(),
                    }],
                }),
            },
            Message {
                vtime: SimDuration::from_secs(15),
                originator: NodeId(3),
                ttl: 255,
                hop_count: 2,
                seq: SequenceNumber(8),
                body: MessageBody::Tc(TcMessage {
                    ansn: 100,
                    advertised: (0..8).map(NodeId).collect(),
                }),
            },
        ],
    };
    c.bench_function("wire_encode_hello_tc", |b| {
        b.iter(|| black_box(encode_packet(black_box(&packet))))
    });
    let bytes = encode_packet(&packet);
    c.bench_function("wire_decode_hello_tc", |b| {
        b.iter(|| black_box(decode_packet(black_box(bytes.clone()))).unwrap())
    });
}

fn bench_olsr_receive(c: &mut Criterion) {
    // A warm node N1 of a converged 2-node line hears TCs from the phantom
    // originator N7, relayed by N0: eight advertised ids, the same ANSN
    // every time, a fresh sequence number per frame. After the first, each
    // is a repeat N1 does not forward. One iteration delivers one frame
    // (1 ms radio delay): the time includes the engine's delivery and,
    // once every ~15 iterations, a HELLO, TC or refresh timer.
    let mut sim = SimulatorBuilder::new(5)
        .radio(RadioConfig::unit_disk(150.0))
        .arena(Arena::new(1_000.0, 1_000.0))
        .build();
    for x in [0.0, 100.0] {
        sim.add_node(Box::new(OlsrNode::new(OlsrConfig::fast())), Position::new(x, 0.0));
    }
    sim.run_for(SimDuration::from_secs(5));
    // 10 000 frames at 5 ms each span 50 s, beyond the 8 s the duplicate
    // set holds a sequence number: a frame comes back as a new TC.
    let frames: Vec<_> = (0..10_000u16)
        .map(|k| {
            let msg = Message {
                vtime: SimDuration::from_secs(60),
                originator: NodeId(7),
                ttl: 8,
                hop_count: 1,
                seq: SequenceNumber(k),
                body: MessageBody::Tc(TcMessage {
                    ansn: 1,
                    advertised: (10..18).map(NodeId).collect(),
                }),
            };
            encode_packet(&Packet { seq: SequenceNumber(k), messages: vec![msg] })
        })
        .collect();
    let mut next = frames.iter().cycle();
    c.bench_function("olsr_repeat_tc_receive", |b| {
        b.iter(|| {
            let frame = next.next().expect("cycled");
            sim.inject_broadcast(NodeId(0), black_box(frame.clone()));
            sim.run_for(SimDuration::from_millis(5));
        })
    });
    let logged = sim.log(NodeId(1)).lines().filter(|l| l.starts_with("TC_RX orig=N7")).count();
    assert_eq!(logged, 1, "only the first TC from N7 is news: the rest must be repeats");
}

/// Faithful forwarding that counts the retransmissions of one
/// originator's messages. It reads the relay's header only, so every relay
/// is sent as received.
struct ForwardCount {
    originator: NodeId,
    forwards: u64,
}

impl OlsrHooks for ForwardCount {
    fn on_forward(&mut self, relay: &mut Relay<'_>, _from: NodeId) {
        if relay.header().originator == self.originator {
            self.forwards += 1;
        }
    }
}

fn bench_olsr_retransmitted_receive(c: &mut Criterion) {
    // The most common reception at scale: a TC copy the node already
    // retransmitted, suppressed on its header alone (about half of all TC
    // receptions in a 256-node fisheye network). N1, the middle of a
    // converged 3-node line, is N0's MPR; N0 relays one TC from the phantom
    // originator N7 over and over. N1 retransmits the first copy, and
    // every later one is a duplicate. One iteration delivers one frame, as
    // in `olsr_repeat_tc_receive`.
    let mut sim = SimulatorBuilder::new(5)
        .radio(RadioConfig::unit_disk(150.0))
        .arena(Arena::new(1_000.0, 1_000.0))
        .build();
    for x in [0.0, 100.0, 200.0] {
        let hooks = ForwardCount { originator: NodeId(7), forwards: 0 };
        let node = OlsrNode::with_hooks(OlsrConfig::fast(), hooks);
        sim.add_node(Box::new(node), Position::new(x, 0.0));
    }
    sim.run_for(SimDuration::from_secs(10));
    let msg = Message {
        vtime: SimDuration::from_secs(60),
        originator: NodeId(7),
        ttl: 8,
        hop_count: 1,
        seq: SequenceNumber(1),
        body: MessageBody::Tc(TcMessage { ansn: 1, advertised: (10..18).map(NodeId).collect() }),
    };
    let frame = encode_packet(&Packet { seq: SequenceNumber(1), messages: vec![msg] });
    let relay = |sim: &trustlink_sim::Simulator| {
        let node = sim.app_as::<OlsrNode<ForwardCount>>(NodeId(1)).expect("N1 is an OLSR node");
        (node.hooks().forwards, node.flood_stats().suppressed(SuppressReason::Duplicate))
    };
    sim.inject_broadcast(NodeId(0), frame.clone());
    sim.run_for(SimDuration::from_millis(5));
    let (forwards, duplicates) = relay(&sim);
    assert_eq!(forwards, 1, "N1 retransmits the first copy: it is N0's MPR");
    let mut copies = 0;
    c.bench_function("olsr_retransmitted_tc_receive", |b| {
        b.iter(|| {
            copies += 1;
            sim.inject_broadcast(NodeId(0), black_box(frame.clone()));
            sim.run_for(SimDuration::from_millis(5));
        })
    });
    let (forwards_after, duplicates_after) = relay(&sim);
    assert_eq!(forwards_after, 1, "a copy N1 already retransmitted was forwarded again");
    assert_eq!(
        duplicates_after - duplicates,
        copies,
        "every later copy is suppressed as a duplicate of a retransmitted TC"
    );
}

fn bench_olsr_unselected_copy_receive(c: &mut Criterion) {
    // A TC copy from a symmetric neighbor that did not select the receiver
    // as MPR: the gate reads the sender's link status and its selection
    // from one neighbor-table row, and suppresses the copy. N1, the middle
    // of a converged 3-node line, selects no MPR (both ends are its 1-hop
    // neighbors) and re-sends one TC from the phantom originator N7 over
    // and over. N0 and N2 each take the first copy as new and every later
    // one as seen, not retransmitted: each copy is one duplicate probe,
    // one row lookup and one suppression at each end.
    let mut sim = SimulatorBuilder::new(5)
        .radio(RadioConfig::unit_disk(150.0))
        .arena(Arena::new(1_000.0, 1_000.0))
        .build();
    for x in [0.0, 100.0, 200.0] {
        sim.add_node(Box::new(OlsrNode::new(OlsrConfig::fast())), Position::new(x, 0.0));
    }
    sim.run_for(SimDuration::from_secs(10));
    let now = sim.now();
    let mid = sim.app_as::<OlsrNode>(NodeId(1)).expect("N1 is an OLSR node");
    assert!(mid.mpr_set().is_empty(), "N1 needs no MPR");
    assert_eq!(mid.mpr_selectors(now), [NodeId(0), NodeId(2)], "both ends select N1");
    let msg = Message {
        vtime: SimDuration::from_secs(60),
        originator: NodeId(7),
        ttl: 8,
        hop_count: 1,
        seq: SequenceNumber(1),
        body: MessageBody::Tc(TcMessage { ansn: 1, advertised: (10..18).map(NodeId).collect() }),
    };
    let frame = encode_packet(&Packet { seq: SequenceNumber(1), messages: vec![msg] });
    // Unselected suppressions at N0 and N2, and the TCs N1 originated:
    // each of those reaches both ends and is suppressed there as well.
    let counts = |sim: &trustlink_sim::Simulator| {
        let ends = [0, 2].map(|i| {
            let node = sim.app_as::<OlsrNode>(NodeId(i)).expect("an OLSR node");
            node.flood_stats().suppressed(SuppressReason::NotMprSelector)
        });
        let mid = sim.app_as::<OlsrNode>(NodeId(1)).expect("N1 is an OLSR node");
        (ends, mid.flood_stats().originated_total())
    };
    sim.inject_broadcast(NodeId(1), frame.clone());
    sim.run_for(SimDuration::from_millis(5));
    let (ends, originated) = counts(&sim);
    let mut copies = 0;
    c.bench_function("olsr_unselected_copy_receive", |b| {
        b.iter(|| {
            copies += 1;
            sim.inject_broadcast(NodeId(1), black_box(frame.clone()));
            sim.run_for(SimDuration::from_millis(5));
        })
    });
    let (ends_after, originated_after) = counts(&sim);
    for k in 0..2 {
        assert_eq!(
            ends_after[k] - ends[k],
            copies + (originated_after - originated),
            "N{}: every copy is suppressed once as not from an MPR selector",
            2 * k
        );
    }
}

/// An [`OlsrNode`] that keeps the last frame it heard carrying a message
/// of `originator`.
struct Tap {
    node: OlsrNode,
    originator: NodeId,
    last: Option<Bytes>,
}

impl Application for Tap {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.node.on_start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        self.node.on_timer(ctx, timer);
    }

    fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        let carries = |v: PacketView<'_>| v.messages().any(|m| m.originator == self.originator);
        if PacketView::parse(&payload).is_ok_and(carries) {
            self.last = Some(payload.clone());
        }
        self.node.on_receive(ctx, from, payload);
    }
}

fn bench_olsr_tc_relay(c: &mut Criterion) {
    // A TC copy the node retransmits: the same converged 3-node line as
    // `olsr_retransmitted_tc_receive`, N1 N0's MPR, and N0 relays TCs from
    // the phantom N7, each with a fresh sequence number and the same ANSN
    // and set. N1 processes each as a repeat and relays it; N2 keeps the
    // last relayed frame (its parse of each relay is in the time too). 10 000 frames at 5 ms each span 50 s, beyond the
    // 8 s the duplicate set holds a sequence number, so a cycled frame is
    // new again. One iteration delivers one frame, as in the other two.
    let mut sim = SimulatorBuilder::new(5)
        .radio(RadioConfig::unit_disk(150.0))
        .arena(Arena::new(1_000.0, 1_000.0))
        .build();
    sim.add_node(Box::new(OlsrNode::new(OlsrConfig::fast())), Position::new(0.0, 0.0));
    let hooks = ForwardCount { originator: NodeId(7), forwards: 0 };
    let mid = OlsrNode::with_hooks(OlsrConfig::fast(), hooks);
    sim.add_node(Box::new(mid), Position::new(100.0, 0.0));
    let tap = Tap { node: OlsrNode::new(OlsrConfig::fast()), originator: NodeId(7), last: None };
    sim.add_node(Box::new(tap), Position::new(200.0, 0.0));
    sim.run_for(SimDuration::from_secs(10));
    let message = |k: u16| Message {
        vtime: SimDuration::from_secs(60),
        originator: NodeId(7),
        ttl: 8,
        hop_count: 1,
        seq: SequenceNumber(k),
        body: MessageBody::Tc(TcMessage { ansn: 1, advertised: (10..18).map(NodeId).collect() }),
    };
    let frames: Vec<_> = (0..10_000u16)
        .map(|k| encode_packet(&Packet { seq: SequenceNumber(k), messages: vec![message(k)] }))
        .collect();
    let forwards = |sim: &trustlink_sim::Simulator| {
        sim.app_as::<OlsrNode<ForwardCount>>(NodeId(1)).expect("N1").hooks().forwards
    };
    let mut next = frames.iter().enumerate().cycle();
    let mut last = 0;
    let mut copies = 0;
    c.bench_function("olsr_tc_relay", |b| {
        b.iter(|| {
            let (k, frame) = next.next().expect("cycled");
            last = k;
            copies += 1;
            sim.inject_broadcast(NodeId(0), black_box(frame.clone()));
            sim.run_for(SimDuration::from_millis(5));
        })
    });
    // The relay of the last copy takes two radio hops of up to 1 ms delay
    // and 2 ms jitter each, more than an iteration's 5 ms: let it land.
    sim.run_for(SimDuration::from_millis(10));
    assert_eq!(forwards(&sim), copies, "N1 relays every copy exactly once: it is N0's MPR");
    // N1 relayed the last copy as received, TTL and hop count advanced:
    // the bytes of re-encoding the message so advanced.
    let relayed = sim.app_as::<Tap>(NodeId(2)).expect("N2 taps").last.clone().expect("a relay");
    let seq = PacketView::parse(&relayed).expect("a valid relay").seq();
    let advanced = Message { ttl: 7, hop_count: 2, ..message(last as u16) };
    let reencoded = encode_messages_into(seq, &[advanced], &mut Vec::new());
    assert_eq!(relayed, reencoded, "the relay differs from the re-encoded message");
}

fn bench_log_pipeline(c: &mut Criterion) {
    let record = LogRecord::HelloRx {
        from: NodeId(3),
        willingness: Willingness::Default,
        sym: (0..8).map(NodeId).collect(),
        asym: Box::from([NodeId(9)]),
    };
    c.bench_function("log_render", |b| b.iter(|| black_box(record.to_line())));
    let line = record.to_line();
    c.bench_function("log_parse", |b| b.iter(|| black_box(parse_line(black_box(&line))).unwrap()));
    // The framed flight-recorder form: `<micros> <node> <line>`.
    let at = SimTime::from_secs(17);
    c.bench_function("rlog_render", |b| {
        b.iter(|| black_box(record.to_rlog(black_box(at), black_box(NodeId(3)))))
    });
    let rlog = record.to_rlog(at, NodeId(3));
    c.bench_function("rlog_parse", |b| {
        b.iter(|| black_box(from_rlog_line(black_box(&rlog))).unwrap())
    });
}

fn bench_signature_engine(c: &mut Criterion) {
    use trustlink_ids::events::DetectionEvent;
    use trustlink_ids::Progress;
    c.bench_function("signature_trigger_confirm_pair", |b| {
        b.iter(|| {
            let mut progress = Progress::default();
            let e1 = DetectionEvent::MprReplaced {
                replaced: vec![NodeId(9)],
                replacing: vec![NodeId(3)],
                at: SimTime::from_secs(1),
            };
            let e4 = DetectionEvent::NotCovering {
                mpr: NodeId(3),
                neighbor: NodeId(7),
                at: SimTime::from_secs(2),
            };
            progress.observe(NodeId(3), &e1);
            black_box(progress.observe(NodeId(3), &e4))
        })
    });
}

fn bench_trust_primitives(c: &mut Criterion) {
    let update = TrustUpdate::default();
    let evidences = [
        EvidenceKind::TruthfulTestimony,
        EvidenceKind::NormalRelaying,
        EvidenceKind::FalseTestimony,
    ];
    c.bench_function("trust_update_step", |b| {
        b.iter(|| black_box(update.step(black_box(TrustValue::DEFAULT), black_box(&evidences))))
    });

    let pool: Vec<Evidence> = (0..14)
        .map(|i| Evidence {
            weight: TrustValue::new(0.1 + (i as f64) * 0.05).weight(),
            stability: 1.0,
            answer: if i < 4 { Answer::Confirm } else { Answer::Deny },
        })
        .collect();
    c.bench_function("detection_value_14_witnesses", |b| {
        b.iter(|| black_box(detection_value(black_box(&pool))))
    });

    let samples: Vec<f64> = (0..14).map(|i| if i % 3 == 0 { 1.0 } else { -1.0 }).collect();
    c.bench_function("margin_of_error_14", |b| {
        b.iter(|| black_box(margin_of_error(black_box(&samples), 0.95)))
    });

    c.bench_function("probit", |b| b.iter(|| black_box(probit(black_box(0.975)))));

    c.bench_function("entropy_trust_roundtrip", |b| {
        b.iter(|| {
            let t = trustlink_trust::entropy::trust_from_probability(black_box(0.8));
            black_box(trustlink_trust::entropy::probability_from_trust(t))
        })
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(50);
    targets = bench_engine, bench_mpr_selection, bench_routing, bench_route_run,
              bench_topology_receive, bench_wire,
              bench_olsr_receive, bench_olsr_retransmitted_receive,
              bench_olsr_unselected_copy_receive, bench_olsr_tc_relay,
              bench_log_pipeline, bench_signature_engine, bench_trust_primitives
}
criterion_main!(micro);
