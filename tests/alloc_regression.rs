//! Allocation-regression guard for the frame delivery path.
//!
//! Every delivered frame is one entry in the engine's in-flight calendar
//! ring, and delivery is built entirely from recycled storage: the ring's
//! buckets and its entry slab (whose freed slots are reused), the control
//! heap, the per-callback command buffer and each sender's cached receiver
//! list all reach a fixed point during warm-up. After that,
//! delivering a frame must allocate NOTHING — zero calls into the global
//! allocator per delivered frame, not "few". A counting
//! `#[global_allocator]` pins that: if a
//! future change sneaks a per-delivery `Vec`, `Box` or hash-map growth
//! into the hot path, this test fails with the exact count.
//!
//! The application under test is a deliberately allocation-free beacon
//! (payload cloned from a shared `Bytes`, default `on_receive`, no logs):
//! the guard measures the *engine's* steady state, not the protocol's.
//! A second guard pins the `neighbors_in_range_into` query: range queries
//! into a caller-owned buffer must not allocate either.
//!
//! A third guard pins what one routing node costs before it runs: its size
//! and the allocations `OlsrNode::new` makes, both of which set-up time of
//! a large network follows.
//!
//! A fourth guard pins the protocol's commonest reception: a TC that
//! repeats its originator's last one, at a node that does not forward it.
//! Deciding it reads the frame in place and refreshes the originator's
//! record, so its delivery must not allocate either.
//!
//! A fifth guard pins the route run after a TC that changed the topology:
//! the node's routing graph replays the pairs the TC inserted and removed,
//! frees and reuses slots and runs the BFS in storage it already holds.
//!
//! Another pins HELLO emission: a node's HELLO reuses the vectors of the
//! last one, so once its neighborhood settles, the frame is all it
//! allocates.
//!
//! Another pins the topology set on its own: repeated TCs refresh their
//! originators' records in place, and a purge that drops a silent
//! originator frees its slot for the next one, so neither allocates.
//!
//! Two more pin the rest of a reception read in place. A HELLO that claims
//! what its sender claimed before is read off the wire into storage the
//! node holds, so it allocates nothing. A TC the node relays is sent as
//! the received bytes with TTL and hop count advanced, so the relayed
//! frame is its one allocation.
//!
//! The counter is per thread: each guard measures only the allocations
//! its own thread makes, so neither the other guard nor the test
//! harness's threads can leak into a measurement window.
#![allow(unsafe_code)] // the counting global allocator is the whole point

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use trustlink_olsr::message::{Message, MessageBody, Packet, TcMessage};
use trustlink_olsr::node::{TIMER_HELLO, TIMER_RECOMPUTE, TIMER_REFRESH};
use trustlink_olsr::state::TopologySet;
use trustlink_olsr::types::SequenceNumber;
use trustlink_olsr::wire::{encode_packet, MessageType, PacketView};
use trustlink_olsr::{OlsrConfig, OlsrNode};
use trustlink_sim::prelude::*;
use trustlink_sim::record::LogRecord;
use trustlink_sim::{topologies, Application, TimerToken};

struct Counting;

thread_local! {
    /// Allocator calls made by this thread. `const`-initialised with no
    /// destructor, so bumping it from inside the allocator never
    /// allocates or registers anything itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocator call on the current thread. `try_with` skips
/// calls made while the thread is being torn down.
fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocator calls made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: pure pass-through to `System` plus a thread-local counter bump;
// every allocator contract obligation is `System`'s own.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: caller upholds `alloc`'s contract; forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds `dealloc`'s contract; forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: caller upholds `realloc`'s contract; forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

const TICK: TimerToken = TimerToken(1);

/// Broadcasts a fixed frame every 100 ms; receives through the default
/// `on_receive`. Steady state touches no heap: `Bytes::clone` is a
/// refcount bump and the timer re-arm reuses the warmed control heap.
struct Beacon {
    payload: Bytes,
}

impl Application for Beacon {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Stagger starts so deliveries spread across distinct instants and
        // the in-flight ring's slab warms to its true working-set size.
        let off = SimDuration::from_micros(u64::from(ctx.id().0) * 397);
        ctx.set_timer(off, TICK);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        if timer == TICK {
            ctx.broadcast(self.payload.clone());
            ctx.set_timer(SimDuration::from_millis(100), TICK);
        }
    }
}

#[test]
fn steady_state_per_frame_delivery_allocates_nothing() {
    let n = 256;
    let arena = topologies::arena_for_mean_degree(n, 150.0, 10.0);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let positions = topologies::random_geometric(n, &arena, &mut rng);
    let payload = Bytes::from_static(&[0u8; 64]);
    let mut sim = SimulatorBuilder::new(1)
        .arena(arena)
        .radio(RadioConfig::unit_disk(150.0))
        .expected_nodes(n)
        .build();
    for &p in &positions {
        sim.add_node(Box::new(Beacon { payload: payload.clone() }), p);
    }

    // Warm-up: grow the control heap, the in-flight ring, every receiver
    // list and the command buffer to their working sets.
    sim.run_for(SimDuration::from_secs(5));
    let delivered_before: u64 = (0..n).map(|i| sim.stats().node(NodeId(i as u32)).received).sum();

    let before = allocs();
    sim.run_for(SimDuration::from_secs(5));
    let during = allocs() - before;

    let delivered: u64 =
        (0..n).map(|i| sim.stats().node(NodeId(i as u32)).received).sum::<u64>() - delivered_before;
    assert!(
        delivered > 100_000,
        "measurement window too quiet to be meaningful: {delivered} deliveries"
    );
    assert_eq!(
        during, 0,
        "per-frame delivery allocated {during} times across {delivered} deliveries; \
         the steady-state pipeline must not touch the allocator at all"
    );
}

#[test]
fn neighbor_queries_into_a_buffer_allocate_nothing() {
    let n = 256;
    let arena = topologies::arena_for_mean_degree(n, 150.0, 10.0);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
    let positions = topologies::random_geometric(n, &arena, &mut rng);
    let mut sim = SimulatorBuilder::new(2)
        .arena(arena)
        .radio(RadioConfig::unit_disk(150.0))
        .expected_nodes(n)
        .build();
    for &p in &positions {
        sim.add_node(Box::new(Beacon { payload: Bytes::from_static(b"x") }), p);
    }
    sim.run_for(SimDuration::from_millis(10));

    // Warm-up: grow the buffer to its working set once.
    let mut buf = Vec::new();
    for i in 0..n {
        sim.neighbors_in_range_into(NodeId(i as u32), &mut buf);
    }

    let before = allocs();
    let mut total = 0usize;
    for _ in 0..16 {
        for i in 0..n {
            sim.neighbors_in_range_into(NodeId(i as u32), &mut buf);
            total += buf.len();
        }
    }
    let during = allocs() - before;

    assert!(total > 10_000, "mesh too sparse to be meaningful: {total} neighbor hits");
    assert_eq!(
        during, 0,
        "neighbors_in_range_into allocated {during} times across {total} neighbor hits; \
         the into-buffer query must reuse the caller's storage"
    );
}

#[test]
fn olsr_node_set_up_stays_small_and_allocation_light() {
    // 1032 bytes is glibc's largest tcache size class. A node grown past
    // it (two hash maps held inline took it from 944 to 1040 bytes) more
    // than doubled perfbench olsr-256 `setup_s`, so state a node gains
    // later lives behind a pointer that stays null until first use.
    let size = std::mem::size_of::<OlsrNode>();
    assert!(size <= 1032, "OlsrNode is {size} bytes, above glibc's largest tcache class");
    // One node first, so process-wide one-time set-up (the id-hash key
    // draw) stays out of the count.
    drop(OlsrNode::new(OlsrConfig::fast()));
    let before = allocs();
    let node = OlsrNode::new(OlsrConfig::fast());
    let during = allocs() - before;
    drop(node);
    assert_eq!(during, 0, "OlsrNode::new(OlsrConfig::fast()) allocated {during} times");
}

/// An [`OlsrNode`] that counts the allocator calls made while it receives
/// a frame `watched` picks.
struct WatchedReceiver {
    node: OlsrNode,
    watched: Box<dyn Fn(&Bytes) -> bool + Send>,
    deliveries: u64,
    allocs: u64,
}

impl WatchedReceiver {
    fn new(node: OlsrNode) -> Self {
        WatchedReceiver { node, watched: Box::new(|_| false), deliveries: 0, allocs: 0 }
    }
}

/// A received frame's first message kind and originator.
fn first_message(frame: &[u8]) -> (MessageType, NodeId) {
    let mv = PacketView::parse(frame).unwrap().messages().next().unwrap();
    (mv.kind, mv.originator)
}

impl Application for WatchedReceiver {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.node.on_start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        self.node.on_timer(ctx, timer);
    }

    fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        let watched = (self.watched)(&payload);
        let before = allocs();
        self.node.on_receive(ctx, from, payload);
        if watched {
            self.allocs += allocs() - before;
            self.deliveries += 1;
        }
    }
}

#[test]
fn repeated_tc_at_a_non_forwarding_node_allocates_nothing() {
    // A converged 3-node line: both ends select the middle N1 as MPR and
    // hear its TCs; N1 selects nobody, so neither end forwards them.
    let mut sim = SimulatorBuilder::new(3)
        .radio(RadioConfig::unit_disk(150.0))
        .arena(Arena::new(1_000.0, 1_000.0))
        .build();
    for i in 0..3 {
        let node = OlsrNode::new(OlsrConfig::fast());
        let app: Box<dyn Application> =
            if i == 2 { Box::new(WatchedReceiver::new(node)) } else { Box::new(node) };
        sim.add_node(app, Position::new(f64::from(i) * 100.0, 0.0));
    }
    sim.run_for(SimDuration::from_secs(10));

    // Repeats of N1's own TC as N2 holds it: same ANSN and set, each with
    // a fresh message sequence number, so each is new to the duplicate set.
    let now = sim.now();
    let end = sim.app_as::<WatchedReceiver>(NodeId(2)).unwrap();
    let run: Vec<_> =
        end.node.topology_set().iter(now).filter(|t| t.last_hop == NodeId(1)).collect();
    assert_eq!(run.iter().map(|t| t.dest).collect::<Vec<_>>(), [NodeId(0), NodeId(2)]);
    let ansn = run[0].ansn;
    let frames: Vec<Bytes> = (0..20u16)
        .map(|k| {
            let seq = SequenceNumber(30_000 + k);
            let tc = TcMessage { ansn, advertised: vec![NodeId(0), NodeId(2)] };
            let msg = Message {
                vtime: OlsrConfig::fast().topology_hold_time,
                originator: NodeId(1),
                ttl: 255,
                hop_count: 0,
                seq,
                body: MessageBody::Tc(tc),
            };
            encode_packet(&Packet { seq, messages: vec![msg] })
        })
        .collect();
    let watched = frames.clone();
    sim.app_as_mut::<WatchedReceiver>(NodeId(2)).unwrap().watched =
        Box::new(move |f| watched.contains(f));
    let cursor = sim.log(NodeId(2)).len();
    for frame in frames {
        sim.inject_broadcast(NodeId(1), frame);
        sim.run_for(SimDuration::from_millis(20));
    }

    let end = sim.app_as::<WatchedReceiver>(NodeId(2)).unwrap();
    assert_eq!(end.deliveries, 20, "every injected repeat must reach N2");
    let (window, _) = sim.log(NodeId(2)).read_from(cursor);
    assert!(
        !window.iter().any(|(_, r)| matches!(r, LogRecord::TcRx { .. })),
        "an injected TC was not a repeat: {window:?}"
    );
    assert_eq!(
        end.allocs, 0,
        "receiving 20 repeated, unforwarded TCs allocated {} times",
        end.allocs
    );
}

#[test]
fn hello_repeating_its_claim_allocates_nothing() {
    // A converged 3-node line: every HELLO N1 sends claims the same
    // symmetric set, so N2 reads it, refreshes the link and its 2-hop
    // tuples, and logs nothing.
    let mut sim = SimulatorBuilder::new(3)
        .radio(RadioConfig::unit_disk(150.0))
        .arena(Arena::new(1_000.0, 1_000.0))
        .build();
    for i in 0..3 {
        let node = OlsrNode::new(OlsrConfig::fast());
        let app: Box<dyn Application> =
            if i == 2 { Box::new(WatchedReceiver::new(node)) } else { Box::new(node) };
        sim.add_node(app, Position::new(f64::from(i) * 100.0, 0.0));
    }
    sim.run_for(SimDuration::from_secs(10));
    sim.app_as_mut::<WatchedReceiver>(NodeId(2)).unwrap().watched =
        Box::new(|f| first_message(f) == (MessageType::Hello, NodeId(1)));
    let cursor = sim.log(NodeId(2)).len();
    sim.run_for(SimDuration::from_secs(10));

    let end = sim.app_as::<WatchedReceiver>(NodeId(2)).unwrap();
    assert!(end.deliveries >= 10, "only {} HELLOs from N1 in 10 s", end.deliveries);
    let (window, _) = sim.log(NodeId(2)).read_from(cursor);
    assert!(
        !window.iter().any(|(_, r)| matches!(r, LogRecord::HelloRx { .. })),
        "N1 changed its claim: {window:?}"
    );
    assert_eq!(
        end.allocs, 0,
        "receiving {} HELLOs repeating their claim allocated {} times",
        end.deliveries, end.allocs
    );
}

#[test]
fn relaying_a_repeated_tc_allocates_only_the_frame() {
    // A converged 3-node line whose middle N1 is N0's MPR. N0 relays TCs
    // from the phantom N7 with the same ANSN and set and a fresh sequence
    // number each: after the first, each is a repeat N1 does not log, and
    // N1 relays every one.
    let mut sim = SimulatorBuilder::new(5)
        .radio(RadioConfig::unit_disk(150.0))
        .arena(Arena::new(1_000.0, 1_000.0))
        .build();
    for i in 0..3 {
        let node = OlsrNode::new(OlsrConfig::fast());
        let app: Box<dyn Application> =
            if i == 1 { Box::new(WatchedReceiver::new(node)) } else { Box::new(node) };
        sim.add_node(app, Position::new(f64::from(i) * 100.0, 0.0));
    }
    sim.run_for(SimDuration::from_secs(10));
    let mid = &sim.app_as::<WatchedReceiver>(NodeId(1)).unwrap().node;
    assert!(mid.mpr_selectors(sim.now()).contains(&NodeId(0)), "N1 must be N0's MPR");

    let frame = |k: u16| {
        let seq = SequenceNumber(50_000 + k);
        let tc = TcMessage { ansn: 1, advertised: (10..18).map(NodeId).collect() };
        let msg = Message {
            vtime: SimDuration::from_secs(60),
            originator: NodeId(7),
            ttl: 8,
            hop_count: 1,
            seq,
            body: MessageBody::Tc(tc),
        };
        encode_packet(&Packet { seq, messages: vec![msg] })
    };
    // Warm-up: the first TC is news, the next few grow what a relay
    // reuses.
    for k in 0..5 {
        sim.inject_broadcast(NodeId(0), frame(k));
        sim.run_for(SimDuration::from_millis(20));
    }
    let forwarded_before =
        sim.app_as::<WatchedReceiver>(NodeId(1)).unwrap().node.flood_stats().forwarded;
    sim.app_as_mut::<WatchedReceiver>(NodeId(1)).unwrap().watched =
        Box::new(|f| first_message(f) == (MessageType::Tc, NodeId(7)));
    let cursor = sim.log(NodeId(1)).len();
    for k in 5..25 {
        sim.inject_broadcast(NodeId(0), frame(k));
        sim.run_for(SimDuration::from_millis(20));
    }

    let mid = sim.app_as::<WatchedReceiver>(NodeId(1)).unwrap();
    assert_eq!(mid.deliveries, 20, "every injected TC must reach N1");
    assert_eq!(mid.node.flood_stats().forwarded - forwarded_before, 20, "N1 relays every TC");
    let (window, _) = sim.log(NodeId(1)).read_from(cursor);
    assert!(
        !window.iter().any(|(_, r)| matches!(r, LogRecord::TcRx { .. })),
        "an injected TC was not a repeat: {window:?}"
    );
    assert_eq!(
        mid.allocs, mid.deliveries,
        "relaying {} repeated TCs allocated {} times, not once each for the frame",
        mid.deliveries, mid.allocs
    );
}

/// An [`OlsrNode`] that counts the allocator calls made by the route runs
/// its debounced recompute and refresh timers trigger while `watching`:
/// the two timers that only bring the node up to date.
struct RouteRunWatch {
    node: OlsrNode,
    watching: bool,
    runs: u64,
    allocs: u64,
}

impl Application for RouteRunWatch {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.node.on_start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        let runs = self.node.recompute_stats().route_runs;
        let before = allocs();
        self.node.on_timer(ctx, timer);
        let ran = self.node.recompute_stats().route_runs > runs;
        if self.watching && matches!(timer, TIMER_RECOMPUTE | TIMER_REFRESH) && ran {
            self.allocs += allocs() - before;
            self.runs += 1;
        }
    }

    fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        self.node.on_receive(ctx, from, payload);
    }
}

#[test]
fn route_run_after_a_changed_tc_allocates_nothing() {
    // A converged 2-node line. N1 hears TCs from a phantom originator N7,
    // relayed by N0, each with a newer ANSN and the set {10, 11} or
    // {10, 12} in turn: every one removes one topology tuple and inserts
    // another, and the id it drops loses its graph slot to the id it adds.
    // N7 links to nothing N1 reaches, so the routes, and the log, stay as
    // they are: the count is the route run's own work.
    let mut sim = SimulatorBuilder::new(9)
        .radio(RadioConfig::unit_disk(150.0))
        .arena(Arena::new(1_000.0, 1_000.0))
        .build();
    sim.add_node(Box::new(OlsrNode::new(OlsrConfig::fast())), Position::new(0.0, 0.0));
    let node = OlsrNode::new(OlsrConfig::fast());
    let watch = RouteRunWatch { node, watching: false, runs: 0, allocs: 0 };
    sim.add_node(Box::new(watch), Position::new(100.0, 0.0));
    sim.run_for(SimDuration::from_secs(10));

    let frame = |k: u16| {
        let seq = SequenceNumber(40_000 + k);
        let last = if k.is_multiple_of(2) { 11 } else { 12 };
        let tc = TcMessage { ansn: k, advertised: vec![NodeId(10), NodeId(last)] };
        let msg = Message {
            vtime: SimDuration::from_secs(60),
            originator: NodeId(7),
            ttl: 8,
            hop_count: 1,
            seq,
            body: MessageBody::Tc(tc),
        };
        encode_packet(&Packet { seq, messages: vec![msg] })
    };
    // Warm-up, then the watched changes, each given time for its run.
    for k in 0..40u16 {
        if k == 10 {
            sim.app_as_mut::<RouteRunWatch>(NodeId(1)).unwrap().watching = true;
        }
        sim.inject_broadcast(NodeId(0), frame(k));
        sim.run_for(SimDuration::from_millis(150));
    }

    let now = sim.now();
    let end = sim.app_as::<RouteRunWatch>(NodeId(1)).unwrap();
    let heard: Vec<NodeId> = end
        .node
        .topology_set()
        .iter(now)
        .filter(|t| t.last_hop == NodeId(7))
        .map(|t| t.dest)
        .collect();
    assert_eq!(heard, [NodeId(10), NodeId(12)], "the last TC was applied");
    assert!(end.runs >= 20, "only {} of 30 changes ran routes on a watched timer", end.runs);
    assert_eq!(end.allocs, 0, "{} route runs allocated {} times", end.runs, end.allocs);
}

/// An [`OlsrNode`] that counts the allocator calls its HELLO timer makes
/// while `watching`.
struct HelloWatch {
    node: OlsrNode,
    watching: bool,
    hellos: u64,
    allocs: u64,
}

impl Application for HelloWatch {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.node.on_start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        let before = allocs();
        self.node.on_timer(ctx, timer);
        if self.watching && timer == TIMER_HELLO {
            self.allocs += allocs() - before;
            self.hellos += 1;
        }
    }

    fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        self.node.on_receive(ctx, from, payload);
    }
}

#[test]
fn hello_emission_allocates_only_its_frame() {
    // A converged 3-node line: the middle N1 advertises both ends, one of
    // them its MPR, in every HELLO. Each HELLO fills the groups of the
    // last one and encodes them into the frame.
    let mut sim = SimulatorBuilder::new(3)
        .radio(RadioConfig::unit_disk(150.0))
        .arena(Arena::new(1_000.0, 1_000.0))
        .build();
    for i in 0..3 {
        let node = OlsrNode::new(OlsrConfig::fast());
        let app: Box<dyn Application> = if i == 1 {
            Box::new(HelloWatch { node, watching: false, hellos: 0, allocs: 0 })
        } else {
            Box::new(node)
        };
        sim.add_node(app, Position::new(f64::from(i) * 100.0, 0.0));
    }
    sim.run_for(SimDuration::from_secs(10));
    sim.app_as_mut::<HelloWatch>(NodeId(1)).unwrap().watching = true;
    let cursor = sim.log(NodeId(1)).len();
    sim.run_for(SimDuration::from_secs(10));

    let mid = sim.app_as::<HelloWatch>(NodeId(1)).unwrap();
    assert!(mid.hellos >= 10, "only {} HELLOs from N1 in 10 s", mid.hellos);
    let (window, _) = sim.log(NodeId(1)).read_from(cursor);
    assert!(
        !window.iter().any(|(_, r)| matches!(r, LogRecord::MprSet { .. })),
        "N1's neighborhood changed: {window:?}"
    );
    assert_eq!(
        mid.allocs, mid.hellos,
        "{} HELLOs allocated {} times, not once each for the frame",
        mid.hellos, mid.allocs
    );
}

#[test]
fn topology_receptions_and_a_purge_allocate_nothing_once_warm() {
    // 64 originators, each advertising four destinations. Once every
    // record exists, a repeated TC refreshes its originator's tuples in
    // place. N0 falls silent: the purge that drops its lapsed record frees
    // the slot, and the new originator N1000 takes it, with its kept
    // tuple buffer, its index entry and its place in the order.
    let hold = SimDuration::from_secs(3);
    let advertised = |o: u32| (1..=4).map(move |k| NodeId(o * 8 + k));
    let mut set = TopologySet::default();
    for o in 0..64 {
        set.receive_tc(NodeId(o), 1, advertised(o), true, SimTime::ZERO + hold, SimTime::ZERO);
    }
    let mut dropped = Vec::with_capacity(10);
    let before = allocs();
    for round in 1..=10u64 {
        let now = SimTime::from_secs(round);
        for o in 1..64 {
            let receipt = set.receive_tc(NodeId(o), 1, advertised(o), true, now + hold, now);
            assert!(!receipt.log && !receipt.changed, "a repeat of N{o}'s TC");
        }
        if round >= 5 {
            set.receive_tc(NodeId(1000), 1, advertised(1000), true, now + hold, now);
        }
        if set.purge(now) {
            dropped.push(round);
        }
    }
    let during = allocs() - before;
    assert_eq!(dropped, [3], "N0's tuples expire at 3 s");
    assert_eq!(set.len(), 64 * 4);
    assert!(set.iter(SimTime::from_secs(10)).all(|t| t.last_hop != NodeId(0)));
    assert_eq!(
        during, 0,
        "630 repeated TCs, a purge and a new originator allocated {during} times"
    );
}
