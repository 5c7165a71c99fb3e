//! The OLSR protocol state machine, runnable as a
//! [`trustlink_sim::Application`].
//!
//! One [`OlsrNode`] implements, per RFC 3626: link sensing and neighbor
//! detection from HELLOs, 2-hop population, MPR selection, MPR-selector
//! tracking, TC origination and flooding via the default forwarding
//! algorithm, topology-set maintenance and routing-table calculation —
//! plus the minimal unicast data plane the detector's investigations ride
//! on, and the audit log every action leaves behind.

use bytes::Bytes;
use rand::RngExt;
use trustlink_sim::record::{LogRecord, SuppressReason, Willingness};
use trustlink_sim::{Application, Context, FloodStats, NodeId, SimDuration, SimTime, TimerToken};

use crate::hooks::{NoHooks, OlsrHooks, Relay};
use crate::idhash::IdHashMap;
use crate::message::{
    DataMessage, HelloMessage, LinkCode, LinkGroup, LinkType, Message, MessageBody, NeighborType,
    TcMessage,
};
use crate::mpr::MprCandidate;
use crate::routing::{RoutingGraph, RoutingTable, SearchStats, TreeRoute};
use crate::state::{
    boxed_ids, DupProbe, DuplicateSet, LinkSet, LinkStatus, LinkTuple, MprSelectorSet, NeighborSet,
    TopologySet, TwoHopSet,
};
use crate::types::{FloodScope, OlsrConfig, RecomputeMode, SequenceNumber};
use crate::wire::{
    relay_message_into, try_encode_messages_into, HelloView, MessageType, MessageView, Oversize,
    PacketView, TcView,
};

/// Timer tokens used by the OLSR state machine. Wrappers layering their own
/// timers on top must use tokens ≥ [`TIMER_USER_BASE`].
pub const TIMER_HELLO: TimerToken = TimerToken(1);
/// TC emission timer.
pub const TIMER_TC: TimerToken = TimerToken(2);
/// Periodic purge/recompute timer.
pub const TIMER_REFRESH: TimerToken = TimerToken(3);
/// Debounced-recompute timer ([`RecomputeMode::Incremental`] only): armed
/// when a reception invalidates state, so a burst of receptions inside one
/// debounce window coalesces into a single recomputation.
pub const TIMER_RECOMPUTE: TimerToken = TimerToken(4);
/// First token value free for applications wrapping an [`OlsrNode`].
pub const TIMER_USER_BASE: u64 = 1000;

/// TTL of flooded control messages (classic scope).
const DEFAULT_TTL: u8 = 255;
/// TTL of unicast data.
const DATA_TTL: u8 = 32;
/// Coalescing window of the incremental mode's recompute timer: a burst of
/// state-changing receptions inside one window triggers a single deferred
/// recomputation.
const RECOMPUTE_DEBOUNCE: SimDuration = SimDuration::from_millis(100);

/// Which recompute inputs a burst of receptions has invalidated since the
/// last [`OlsrNode::ensure_fresh`], tracked per domain so MPR selection
/// reruns only when the 1/2-hop neighborhood actually changed and the
/// routing BFS only when the neighborhood or the TC-learned topology did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ChangeFlags {
    /// The 1-hop/2-hop neighborhood changed: link status, two-hop
    /// coverage, a neighbor's willingness, or the MPR exclusion list.
    nbr: bool,
    /// The TC-learned topology changed.
    topo: bool,
}

impl ChangeFlags {
    fn any(self) -> bool {
        self.nbr || self.topo
    }
}

/// Counters for the recompute pipeline, exposed for tests and tooling:
/// the incremental mode's whole point is that `mpr_runs`/`route_runs`
/// grow much slower than received packets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecomputeStats {
    /// Times the gated freshness check (`ensure_fresh`) ran.
    pub flushes: u64,
    /// Times MPR selection actually executed.
    pub mpr_runs: u64,
    /// Route runs: times the routing graph took the changed pairs, whether
    /// its BFS then searched all, part or none of the graph (see
    /// [`OlsrNode::route_search_stats`]). Doubles as the route generation
    /// that stamps memoised avoid-route tables.
    pub route_runs: u64,
    /// Avoid-routed next-hop lookups (investigation traffic sent or
    /// forwarded around a suspect), however they were answered.
    pub avoid_lookups: u64,
    /// Avoid-routed lookups answered from the main routing table, because
    /// the main BFS tree reaches the destination without the suspect.
    pub avoid_tree_hits: u64,
    /// Masked avoid-route BFS runs: lookups the tree could not answer that
    /// also missed the memo. The remaining lookups were memo hits.
    pub avoid_runs: u64,
}

/// How many avoid-route tables a node memoises at once.
const AVOID_MEMO_SLOTS: usize = 4;

/// A memoised routing table computed around `avoided`. It is exact while
/// `generation` equals the node's `route_runs`: the avoid BFS reads the
/// same inputs as the main BFS, and every change to those inputs reaches
/// a route run before any data-plane lookup (both lookup sites call
/// [`OlsrNode::ensure_fresh`] first). Only destinations behind `avoided`
/// in the main BFS tree are looked up here; the main table answers the
/// rest.
#[derive(Debug, Clone)]
struct AvoidRoutes {
    avoided: NodeId,
    generation: u64,
    table: RoutingTable,
}

/// What this node last wrote to its audit log about each HELLO sender:
/// the state that keeps a HELLO which would tell the IDS nothing new out
/// of the log. Its TC counterpart lives in each originator's
/// [`TopologySet`] record, beside the tuples it mirrors.
///
/// Every decision made from it reads validity times only (`until > now`),
/// never whether a purge has run, so both [`RecomputeMode`]s log the same
/// reception-timed records.
#[derive(Debug, Default)]
struct LogMemo {
    /// HELLO sender → the symmetric set its last logged `HELLO_RX` claimed.
    /// Consulted only while the sender's link tuple is live; dropped with
    /// the tuple.
    hellos: IdHashMap<NodeId, Vec<NodeId>>,
}

/// A unicast data payload delivered to this node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceivedData {
    /// Source main address.
    pub src: NodeId,
    /// Arrival time.
    pub at: SimTime,
    /// The payload.
    pub payload: Bytes,
}

/// The OLSR routing daemon for one node, parameterized by behaviour
/// [`OlsrHooks`] (faithful by default).
///
/// ```
/// use trustlink_olsr::prelude::*;
/// use trustlink_sim::prelude::*;
///
/// let mut sim = SimulatorBuilder::new(1).radio(RadioConfig::unit_disk(150.0)).build();
/// let a = sim.add_node(Box::new(OlsrNode::with_defaults()), Position::new(0.0, 0.0));
/// let b = sim.add_node(Box::new(OlsrNode::with_defaults()), Position::new(100.0, 0.0));
/// sim.run_for(SimDuration::from_secs(10));
/// let node_a = sim.app_as::<OlsrNode>(a).unwrap();
/// assert!(node_a.symmetric_neighbors(sim.now()).contains(&b));
/// ```
pub struct OlsrNode<H: OlsrHooks = NoHooks> {
    id: NodeId,
    config: OlsrConfig,
    hooks: H,
    links: LinkSet,
    neighbors: NeighborSet,
    two_hop: TwoHopSet,
    mprs: Vec<NodeId>,
    selectors: MprSelectorSet,
    topology: TopologySet,
    duplicates: DuplicateSet,
    routes: RoutingTable,
    prev_sym: Vec<NodeId>,
    ansn: u16,
    last_advertised: Vec<NodeId>,
    msg_seq: SequenceNumber,
    pkt_seq: SequenceNumber,
    /// Messages dropped because the wire cannot carry them.
    oversize_drops: u64,
    inbox: Vec<ReceivedData>,
    /// TC emission opportunities consumed while holding TC duty; drives
    /// the fisheye ring schedule ([`FloodScope::Fisheye`]).
    tc_emissions: u64,
    /// Flood-frame accounting: TCs originated per ring, TCs re-flooded,
    /// flood copies suppressed per reason.
    flood: FloodStats,
    flags: ChangeFlags,
    /// `true` while a [`TIMER_RECOMPUTE`] is pending (incremental mode).
    debounce_armed: bool,
    /// A TC from a current MPR arrived since the last flush scanned the
    /// MPRs' TC clocks (see [`ensure_fresh`](Self::ensure_fresh)).
    mpr_tc_heard: bool,
    stats: RecomputeStats,
    /// Neighbors barred from MPR selection (treated as `WILL_NEVER`),
    /// regardless of their advertised willingness. The trust-enabled
    /// detector populates this with condemned intruders — the CAP-OLSR
    /// style response the paper's related work describes ("if the
    /// resulting trust is lower than a given threshold, then I is excluded
    /// from MPRs").
    excluded_mprs: std::collections::BTreeSet<NodeId>,
    /// Reused wire-encode scratch: transmissions allocate only the frame.
    wire_scratch: Vec<u8>,
    /// Reused 2-hop target buffer for MPR selection.
    targets_scratch: Vec<NodeId>,
    /// Reused symmetric-neighbor buffer: swapped with `prev_sym` on flush,
    /// and holds a received HELLO's claimed symmetric set meanwhile.
    sym_scratch: Vec<NodeId>,
    /// The routing graph, kept in step with the 2-hop and topology sets
    /// from route run to route run (see [`RoutingGraph`]). Boxed and
    /// created by the first route run, so set-up allocates nothing for it
    /// and the node grows by one pointer.
    graph: Option<Box<RoutingGraph>>,
    /// Reused routing-table double buffer, swapped with `routes` on change.
    routes_scratch: RoutingTable,
    /// Memoised avoid-route tables, at most [`AVOID_MEMO_SLOTS`].
    avoid_memo: Vec<AvoidRoutes>,
    /// What the audit log last said per HELLO sender. Boxed and created on
    /// the first HELLO, so set-up allocates nothing for it and the node
    /// grows by one pointer.
    log_memo: Option<Box<LogMemo>>,
    /// The last HELLO sent, whose vectors the next one reuses. Boxed and
    /// created by the first HELLO, so set-up allocates nothing for it and
    /// the node grows by one pointer.
    hello: Option<Box<HelloMessage>>,
}

impl OlsrNode<NoHooks> {
    /// A faithful node with RFC default timing.
    pub fn with_defaults() -> Self {
        OlsrNode::new(OlsrConfig::default())
    }

    /// A faithful node with the given configuration.
    pub fn new(config: OlsrConfig) -> Self {
        OlsrNode::with_hooks(config, NoHooks)
    }
}

impl<H: OlsrHooks> OlsrNode<H> {
    /// A node with explicit behaviour hooks (used by the attack crate).
    pub fn with_hooks(config: OlsrConfig, hooks: H) -> Self {
        OlsrNode {
            id: NodeId(0),
            config,
            hooks,
            links: LinkSet::default(),
            neighbors: NeighborSet::default(),
            two_hop: TwoHopSet::default(),
            mprs: Vec::new(),
            selectors: MprSelectorSet::default(),
            topology: TopologySet::default(),
            duplicates: DuplicateSet::default(),
            routes: RoutingTable::default(),
            prev_sym: Vec::new(),
            ansn: 0,
            last_advertised: Vec::new(),
            msg_seq: SequenceNumber(0),
            pkt_seq: SequenceNumber(0),
            oversize_drops: 0,
            inbox: Vec::new(),
            tc_emissions: 0,
            flood: FloodStats::default(),
            flags: ChangeFlags::default(),
            debounce_armed: false,
            mpr_tc_heard: false,
            stats: RecomputeStats::default(),
            excluded_mprs: std::collections::BTreeSet::new(),
            wire_scratch: Vec::new(),
            targets_scratch: Vec::new(),
            sym_scratch: Vec::new(),
            graph: None,
            routes_scratch: RoutingTable::default(),
            avoid_memo: Vec::new(),
            log_memo: None,
            hello: None,
        }
    }

    // ---- inspection API -------------------------------------------------

    /// This node's main address (valid after the simulation started it).
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The configuration in force.
    pub fn config(&self) -> &OlsrConfig {
        &self.config
    }

    /// Immutable access to the behaviour hooks.
    pub fn hooks(&self) -> &H {
        &self.hooks
    }

    /// Symmetric 1-hop neighbors at `now`, ascending.
    pub fn symmetric_neighbors(&self, now: SimTime) -> Vec<NodeId> {
        self.links.symmetric_neighbors(now)
    }

    /// `true` when `neighbor` is a symmetric neighbor at `now`: the point
    /// form of [`symmetric_neighbors`](Self::symmetric_neighbors)`.contains(…)`.
    pub fn is_symmetric_neighbor(&self, neighbor: NodeId, now: SimTime) -> bool {
        self.links.is_symmetric(neighbor, now)
    }

    /// The current MPR set (ascending).
    pub fn mpr_set(&self) -> &[NodeId] {
        &self.mprs
    }

    /// The neighbors currently selecting this node as MPR.
    pub fn mpr_selectors(&self, now: SimTime) -> Vec<NodeId> {
        self.selectors.addrs(now)
    }

    /// The current routing table.
    pub fn routing_table(&self) -> &RoutingTable {
        &self.routes
    }

    /// The topology set learned from TCs.
    pub fn topology_set(&self) -> &TopologySet {
        &self.topology
    }

    /// The 2-hop neighbor set.
    pub fn two_hop_set(&self) -> &TwoHopSet {
        &self.two_hop
    }

    /// Drains data payloads addressed to this node.
    pub fn take_inbox(&mut self) -> Vec<ReceivedData> {
        std::mem::take(&mut self.inbox)
    }

    /// Hands back a buffer [`take_inbox`](Self::take_inbox) returned, so
    /// the next payload delivered here reuses its allocation. It is
    /// emptied first, and dropped instead if a payload arrived since the
    /// take: that one stays queued.
    pub fn recycle_inbox(&mut self, mut spent: Vec<ReceivedData>) {
        if self.inbox.is_empty() {
            spent.clear();
            self.inbox = spent;
        }
    }

    /// Bars `addr` from this node's MPR selection (it is treated as
    /// `WILL_NEVER` from now on). Takes effect at the next recomputation.
    pub fn exclude_from_mprs(&mut self, addr: NodeId) {
        if self.excluded_mprs.insert(addr) {
            self.flags.nbr = true;
        }
    }

    /// The neighbors currently barred from MPR selection.
    pub fn excluded_mprs(&self) -> Vec<NodeId> {
        self.excluded_mprs.iter().copied().collect()
    }

    /// Recompute-pipeline counters (flushes vs actual MPR/BFS executions).
    pub fn recompute_stats(&self) -> RecomputeStats {
        self.stats
    }

    /// What the main route searches did: dequeues, adjacency entries
    /// scanned and route runs that searched nothing. Zero before the first
    /// route run.
    pub fn route_search_stats(&self) -> SearchStats {
        self.graph.as_ref().map_or_else(SearchStats::default, |g| g.stats())
    }

    /// Flood-frame accounting: TCs originated per [`FloodScope`] ring and
    /// TCs this node re-flooded for others — the quantity fisheye scoping
    /// attacks (classic flooding books everything into ring 0) — and the
    /// flood copies of any kind it declined to retransmit, per reason.
    pub fn flood_stats(&self) -> &FloodStats {
        &self.flood
    }

    /// Messages this node originated, or a hook rewrote, that it dropped
    /// because the wire cannot carry them: a hook grew a HELLO link group,
    /// a message or its packet past a 16-bit length field.
    pub fn oversize_drops(&self) -> u64 {
        self.oversize_drops
    }

    /// The MPR set this node would materialize at `now`, computed from the
    /// live repositories without touching cached state. Independent of
    /// recompute scheduling: both [`RecomputeMode`]s yield the same value
    /// for the same reception history — the property
    /// `tests/recompute_equivalence.rs` pins. Allocates; meant for tests
    /// and tooling, not the hot path.
    pub fn effective_mprs(&self, now: SimTime) -> Vec<NodeId> {
        let sym = self.links.symmetric_neighbors(now);
        let mut targets = Vec::new();
        self.two_hop.two_hop_addrs_into(now, self.id, &sym, &mut targets);
        let candidates =
            mpr_candidates(&self.two_hop, &self.neighbors, &self.excluded_mprs, self.id, &sym, now);
        crate::mpr::select_mprs(&candidates, &targets)
    }

    /// The routing table this node would materialize at `now`, computed
    /// from the live repositories. Same contract as
    /// [`OlsrNode::effective_mprs`].
    pub fn effective_routes(&self, now: SimTime) -> RoutingTable {
        let sym = self.links.symmetric_neighbors(now);
        RoutingTable::compute(self.id, &sym, &self.two_hop, &self.topology, now)
    }

    // ---- transmission helpers -------------------------------------------

    fn next_msg_seq(&mut self) -> SequenceNumber {
        self.msg_seq = self.msg_seq.next();
        self.msg_seq
    }

    /// `msg`, which this node originates or a hook rewrote, as a packet of
    /// its own under the next packet sequence number. A message the wire
    /// cannot carry is dropped and counted instead, and the number stays
    /// unused.
    fn encode(&mut self, msg: &Message) -> Option<Bytes> {
        let seq = self.pkt_seq.next();
        let msgs = std::slice::from_ref(msg);
        match try_encode_messages_into(seq, msgs, &mut self.wire_scratch) {
            Ok(frame) => {
                self.pkt_seq = seq;
                Some(frame)
            }
            Err(Oversize) => {
                self.oversize_drops += 1;
                None
            }
        }
    }

    /// Broadcasts `msg`, which this node originates or a hook rewrote, as
    /// a packet of its own.
    fn transmit(&mut self, ctx: &mut Context<'_>, msg: &Message) {
        if let Some(frame) = self.encode(msg) {
            ctx.broadcast(frame);
        }
    }

    /// Sends `msg` to the neighbor `to` as a packet of its own; `false`
    /// when the wire cannot carry it.
    fn unicast(&mut self, ctx: &mut Context<'_>, to: NodeId, msg: &Message) -> bool {
        let Some(frame) = self.encode(msg) else {
            return false;
        };
        ctx.send(to, frame);
        true
    }

    /// The received message behind `mv` as a packet of its own, ready to
    /// relay: its bytes as received, TTL and hop count advanced.
    fn relay_frame(&mut self, frame: &[u8], mv: &MessageView) -> Bytes {
        self.pkt_seq = self.pkt_seq.next();
        relay_message_into(self.pkt_seq, frame, mv, &mut self.wire_scratch)
    }

    /// Writes the HELLO this node would send at `now` (before hooks) into
    /// `hello`, reusing its storage: each link code's group keeps the
    /// address vector it had, so a HELLO like the last allocates nothing.
    pub fn build_hello_into(&self, now: SimTime, hello: &mut HelloMessage) {
        const CODES: [LinkCode; 4] = [
            LinkCode::new(LinkType::Sym, NeighborType::Sym),
            LinkCode::new(LinkType::Sym, NeighborType::Mpr),
            LinkCode::new(LinkType::Asym, NeighborType::Not),
            LinkCode::new(LinkType::Lost, NeighborType::Not),
        ];
        hello.willingness = Willingness::Default;
        let groups = &mut hello.groups;
        for (i, code) in CODES.into_iter().enumerate() {
            match groups[i..].iter().position(|g| g.code == code) {
                Some(j) => groups.swap(i, i + j),
                None => groups.insert(i, LinkGroup { code, addrs: Vec::new() }),
            }
            groups[i].addrs.clear();
        }
        groups.truncate(CODES.len());
        for tuple in self.links.iter() {
            if tuple.until <= now {
                // A wholly expired tuple is semantically purged, whether or
                // not the sweep has physically removed it yet: advertising
                // it would make HELLO content depend on purge timing.
                continue;
            }
            let group = match tuple.status(now) {
                LinkStatus::Symmetric if self.mprs.contains(&tuple.neighbor) => 1,
                LinkStatus::Symmetric => 0,
                LinkStatus::Asymmetric => 2,
                LinkStatus::Lost => 3,
            };
            groups[group].addrs.push(tuple.neighbor);
        }
        groups.retain(|g| !g.addrs.is_empty());
    }

    fn emit_hello(&mut self, ctx: &mut Context<'_>) {
        // The HELLO groups SYM vs SYM_MPR by the materialized MPR set:
        // refresh it first so emission content never depends on recompute
        // scheduling (both modes materialize here, at the same instant).
        self.ensure_fresh(ctx);
        let now = ctx.now();
        let mut kept = self.hello.take().unwrap_or_default();
        let mut hello = std::mem::take(&mut *kept);
        self.build_hello_into(now, &mut hello);
        if let Some(w) = self.hooks.willingness_override() {
            hello.willingness = w;
        }
        self.hooks.on_hello_tx(&mut hello, now);
        let msg = Message {
            vtime: self.config.neighbor_hold_time,
            originator: self.id,
            ttl: 1,
            hop_count: 0,
            seq: self.next_msg_seq(),
            body: MessageBody::Hello(hello),
        };
        self.transmit(ctx, &msg);
        if let MessageBody::Hello(hello) = msg.body {
            *kept = hello;
        }
        self.hello = Some(kept);
    }

    fn emit_tc(&mut self, ctx: &mut Context<'_>) {
        // TC content reads the selector sweep state: refresh first.
        self.ensure_fresh(ctx);
        let now = ctx.now();
        // TCs advertise the selector set only (RFC 3626 TC_REDUNDANCY 0).
        let advertised = self.selectors.addrs(now);
        if advertised.is_empty() && self.last_advertised.is_empty() {
            return; // not an MPR: no TC duty
        }
        // An emission opportunity with TC duty: consume one schedule slot.
        // The counter starts at emission 1, so a fresh MPR's first TC
        // covers the innermost ring and the network-wide advertisement
        // follows within one ring cycle.
        self.tc_emissions += 1;
        let (ring, ttl, vtime) = match &self.config.flood_scope {
            FloodScope::Classic => (0, DEFAULT_TTL, self.config.topology_hold_time),
            FloodScope::Fisheye(rings) => {
                match rings.ring_for_emission(self.tc_emissions) {
                    // The advertised validity stretches with the ring
                    // stride: a node that only this ring reaches must hold
                    // the tuples until the next emission that reaches it.
                    Some((idx, r)) => {
                        (idx, r.ttl, self.config.topology_hold_time * u64::from(r.every))
                    }
                    None => return, // sparse table: no ring due this slot
                }
            }
        };
        if advertised != self.last_advertised {
            self.ansn = self.ansn.wrapping_add(1);
            self.last_advertised = advertised.clone();
        }
        let mut tc = TcMessage { ansn: self.ansn, advertised };
        self.hooks.on_tc_tx(&mut tc, now);
        self.flood.record_originated(ring);
        let msg = Message {
            vtime,
            originator: self.id,
            ttl,
            hop_count: 0,
            seq: self.next_msg_seq(),
            body: MessageBody::Tc(tc),
        };
        // Record own message so an echoed copy is not reprocessed.
        self.duplicates.record(
            self.id,
            self.msg_seq,
            true,
            now + self.config.duplicate_hold_time,
            now,
        );
        self.transmit(ctx, &msg);
    }

    /// Sends `payload` to `dst` over the data plane. When `avoid` is set the
    /// first hop (and each forwarding hop) routes around that node — the
    /// investigation primitive of the paper's Algorithm 1.
    ///
    /// Returns `false` when no admissible route exists, or when the wire
    /// cannot carry the payload.
    pub fn send_data(
        &mut self,
        ctx: &mut Context<'_>,
        dst: NodeId,
        payload: Bytes,
        avoid: Option<NodeId>,
    ) -> bool {
        let now = ctx.now();
        if dst == self.id {
            self.inbox.push(ReceivedData { src: self.id, at: now, payload });
            return true;
        }
        // The next hop reads the materialized routing table: refresh it so
        // data-plane decisions never depend on recompute scheduling.
        self.ensure_fresh(ctx);
        let Some(next) = self.next_hop_for(dst, avoid) else {
            return false;
        };
        let msg = Message {
            vtime: self.config.neighbor_hold_time,
            originator: self.id,
            ttl: DATA_TTL,
            hop_count: 0,
            seq: self.next_msg_seq(),
            body: MessageBody::Data(DataMessage { src: self.id, dst, avoid, payload }),
        };
        self.unicast(ctx, next, &msg)
    }

    /// The next hop toward `dst`, routing around `avoid` when set. Callers
    /// must [`ensure_fresh`](Self::ensure_fresh) first: the BFS tree and
    /// the avoid memo are keyed on the route generation that call settles.
    ///
    /// When the main BFS tree reaches `dst` without passing `avoid`, the
    /// main route is also the route around it
    /// ([`RoutingGraph::tree_route`]); only destinations behind the
    /// avoided node take the memoised masked BFS.
    fn next_hop_for(&mut self, dst: NodeId, avoid: Option<NodeId>) -> Option<NodeId> {
        let Some(avoided) = avoid else {
            return self.routes.next_hop(dst);
        };
        if dst == avoided {
            return None;
        }
        self.stats.avoid_lookups += 1;
        let generation = self.stats.route_runs;
        let tree = self.graph.as_ref().map(|g| g.tree_route(generation, dst, avoided));
        if tree == Some(TreeRoute::Avoids) {
            self.stats.avoid_tree_hits += 1;
            return self.routes.next_hop(dst);
        }
        self.avoid_routes(avoided).next_hop(dst)
    }

    /// The routing table around `avoided` for the current route
    /// generation, from the memo or freshly computed into a stale entry's
    /// allocation. A miss re-runs only the BFS, masked, over the graph the
    /// generation's route run searched.
    fn avoid_routes(&mut self, avoided: NodeId) -> &RoutingTable {
        let generation = self.stats.route_runs;
        let memo = &mut self.avoid_memo;
        if let Some(i) =
            memo.iter().position(|e| e.avoided == avoided && e.generation == generation)
        {
            return &memo[i].table;
        }
        self.stats.avoid_runs += 1;
        let i = match memo.iter().position(|e| e.generation != generation) {
            Some(stale) => stale,
            None if memo.len() < AVOID_MEMO_SLOTS => {
                memo.push(AvoidRoutes { avoided, generation, table: RoutingTable::default() });
                memo.len() - 1
            }
            // All current: evict round-robin by miss count.
            None => (self.stats.avoid_runs % AVOID_MEMO_SLOTS as u64) as usize,
        };
        let entry = &mut memo[i];
        entry.avoided = avoided;
        entry.generation = generation;
        let id = self.id;
        let graph = self.graph.get_or_insert_with(|| Box::new(RoutingGraph::new(id)));
        graph.reroute(&mut entry.table, avoided);
        &entry.table
    }

    // ---- reception ------------------------------------------------------

    /// Processes a HELLO straight off the wire: only a logged reception
    /// reads its ASYM set, and nothing is decoded into owned groups.
    fn process_hello(&mut self, ctx: &mut Context<'_>, originator: NodeId, hello: &HelloView<'_>) {
        let now = ctx.now();
        let hold = now + self.config.neighbor_hold_time;
        let mut claimed_sym = std::mem::take(&mut self.sym_scratch);
        hello.symmetric_neighbors_into(&mut claimed_sym);
        // How the sender lists us, in one pass: heard (any symmetric or
        // ASYM code), declared LOST, and selected as its MPR.
        let (mut heard_us, mut lost_us, mut selected_us) = (false, false, false);
        let me = self.id;
        for (code, mut addrs) in hello.groups() {
            if addrs.any(|a| a == me) {
                heard_us |= code.is_symmetric() || code.link == LinkType::Asym;
                lost_us |= code.link == LinkType::Lost;
                selected_us |= code.neighbor == NeighborType::Mpr;
            }
        }
        // A tuple whose expiry already passed is semantically purged — its
        // previous status is `None`, whichever mode got to the sweep first.
        let before = self.links.get(originator).filter(|t| t.until > now).map(|t| t.status(now));

        // The IDS reads a HELLO's sender and claimed symmetric set. A claim
        // repeated over a live link changes nothing it knows, so only a new
        // claim, or any claim after the link lapsed, is logged.
        let hellos = &mut self.log_memo.get_or_insert_with(Box::default).hellos;
        let last = hellos.entry(originator).or_default();
        if before.is_none() || *last != claimed_sym {
            last.clone_from(&claimed_sym);
            ctx.log(LogRecord::HelloRx {
                from: originator,
                willingness: hello.willingness,
                sym: Box::from(&claimed_sym[..]),
                asym: hello.asymmetric_neighbors().into_boxed_slice(),
            });
        }

        // Link sensing: hearing them refreshes the asym validity; being
        // listed by them (heard in both directions) makes it symmetric.
        self.links.upsert(LinkTuple {
            neighbor: originator,
            sym_until: if heard_us { hold } else { SimTime::ZERO },
            asym_until: hold,
            until: hold,
        });
        // An explicit LOST listing tears the symmetry down immediately.
        if lost_us {
            self.links.declare_lost(originator, now);
            // Losing the link voids the sender's 2-hop contributions and
            // its selector status right here, at reception time: they are
            // predicated on a symmetric link that no longer exists.
            if self.two_hop.remove_via(originator, now) > 0 {
                self.flags.nbr = true;
            }
        }
        let after = self.links.get(originator).map(|t| t.status(now));
        if before != after {
            self.flags.nbr = true;
        }

        // Neighbor set (symmetric only) + willingness bookkeeping.
        if after == Some(LinkStatus::Symmetric)
            && self.neighbors.upsert(originator, hello.willingness)
        {
            self.flags.nbr = true;
        }

        // 2-hop set: the sender's claimed symmetric neighbors, minus us —
        // recorded only while the HELLO itself proves a live symmetric
        // link (it lists us, and does not declare us lost). This keeps
        // every 2-hop tuple's validity bounded by its `via`'s symmetric
        // validity, which is what makes the expiry sweeps pure GC.
        if heard_us && !lost_us {
            let me = self.id;
            let flags = &mut self.flags;
            let claimed = claimed_sym.iter().copied().filter(|&th| th != me);
            self.two_hop.upsert_via(originator, claimed, hold, now, |th| {
                flags.nbr = true;
                ctx.log(LogRecord::TwoHopAdded { via: originator, addr: th });
            });
        }

        // MPR selector set: did they pick us? Only a HELLO that sustains a
        // live symmetric link can (re)assert selection.
        if selected_us && heard_us && !lost_us {
            self.selectors.upsert(originator, hold);
        } else {
            self.selectors.remove(originator);
        }
        self.sym_scratch = claimed_sym; // recycle the allocation
    }

    /// Processes a new TC straight off the wire. The IDS reads a TC's
    /// originator, sender and advertised set, and keeps the originator's
    /// reception clock. A TC repeating the set last logged for its
    /// originator, relayed by a live link (whose sender a logged HELLO
    /// already named), only moves the clock: the originator's topology
    /// record notes it, and the flush logs it as `TC_HEARD` when the clock
    /// is read.
    fn process_tc(
        &mut self,
        ctx: &mut Context<'_>,
        mv: &MessageView,
        tc: &TcView<'_>,
        from: NodeId,
        sender_live: bool,
    ) {
        let now = ctx.now();
        let until = now + mv.vtime;
        let receipt = self.topology.receive_tc(
            mv.originator,
            tc.ansn,
            tc.advertised(),
            sender_live,
            until,
            now,
        );
        if receipt.log {
            ctx.log(LogRecord::TcRx {
                originator: mv.originator,
                sender: from,
                ansn: tc.ansn,
                advertised: boxed_ids(tc.advertised()),
            });
        }
        if receipt.changed {
            self.flags.topo = true;
        }
        if self.mprs.contains(&mv.originator) {
            self.mpr_tc_heard = true;
        }
    }

    /// The header-only forwarding gates of the default forwarding
    /// algorithm (§3.4), after the duplicate check. `link` is the
    /// sender's link tuple, if any.
    fn flood_gate(
        &self,
        from: NodeId,
        link: Option<&LinkTuple>,
        ttl: u8,
        now: SimTime,
    ) -> Result<(), SuppressReason> {
        if ttl <= 1 {
            return Err(SuppressReason::TtlExpired);
        }
        if !link.is_some_and(|t| t.status(now) == LinkStatus::Symmetric) {
            return Err(SuppressReason::UnknownSender);
        }
        // Default forwarding algorithm: retransmit only if the sender
        // selected us as its MPR.
        if !self.selectors.contains(from, now) {
            return Err(SuppressReason::NotMprSelector);
        }
        Ok(())
    }

    /// Counts a flood copy this node declines to retransmit. Suppressed
    /// copies are counted, not logged: there is one per received copy, and
    /// no IDS rule reads them.
    fn suppress_forward(&mut self, reason: SuppressReason) {
        self.flood.record_suppressed(reason);
    }

    /// Retransmits the TC behind `mv`, which passed every gate, as
    /// received with TTL and hop count advanced — or lets a drop attacker
    /// swallow it. The message is decoded and re-encoded only when a hook
    /// asked for it.
    fn forward_approved(
        &mut self,
        ctx: &mut Context<'_>,
        frame: &Bytes,
        mv: &MessageView,
        from: NodeId,
        dup_until: SimTime,
        now: SimTime,
    ) {
        // The duplicate set keys the copy as received, whatever a hook
        // rewrites below.
        self.duplicates.record(mv.originator, mv.seq, true, dup_until, now);
        if !self.hooks.should_forward(mv, from) {
            // A drop attacker stays silent. Forwarding is never logged, so
            // its own log shows nothing either way; the *absence* of the
            // retransmission is what neighbors can observe (paper evidence
            // E2).
            return;
        }
        let mut relay = Relay::new(frame, mv);
        self.hooks.on_forward(&mut relay, from);
        self.flood.forwarded += 1;
        match relay.into_message() {
            Some(rewritten) => self.transmit(ctx, &rewritten),
            None => {
                let out = self.relay_frame(frame, mv);
                ctx.broadcast(out);
            }
        }
    }

    /// Delivers or forwards the data message behind `mv`, read in place. A
    /// delivered payload shares the frame's storage; a forward relays the
    /// received bytes, TTL and hop count advanced.
    fn process_data(
        &mut self,
        ctx: &mut Context<'_>,
        frame: &Bytes,
        mv: &MessageView,
        from: NodeId,
    ) {
        let data = mv.data(frame).expect("a data view has a data body");
        let now = ctx.now();
        if data.dst == self.id {
            let payload = mv.data_payload(frame, &data);
            self.inbox.push(ReceivedData { src: data.src, at: now, payload });
            return;
        }
        if mv.ttl <= 1 {
            return; // silently dies, like an expired IP packet
        }
        if !self.hooks.should_forward_data(&data, from) {
            return; // black hole: swallowed without trace
        }
        let (dst, avoid) = (data.dst, data.avoid);
        // Same contract as `send_data`: route from fresh state.
        self.ensure_fresh(ctx);
        let Some(next) = self.next_hop_for(dst, avoid) else {
            return;
        };
        let out = self.relay_frame(frame, mv);
        ctx.send(next, out);
    }

    /// The decision-point trailer every received frame pays.
    fn after_packet_recompute(&mut self, ctx: &mut Context<'_>) {
        if self.flags.any() {
            match self.config.recompute {
                // The pre-incremental cadence: every state-changing packet
                // pays a full recomputation immediately.
                RecomputeMode::Eager => self.ensure_fresh(ctx),
                // Change-aware: coalesce this burst behind the debounce
                // timer (the next emission, data-plane use or analysis
                // pass refreshes earlier if it comes first).
                RecomputeMode::Incremental => {
                    if !self.debounce_armed {
                        self.debounce_armed = true;
                        ctx.set_timer(RECOMPUTE_DEBOUNCE, TIMER_RECOMPUTE);
                    }
                }
            }
        }
    }

    /// The one receive path: validates `frame` through a [`PacketView`]
    /// (validation without materialization) and acts on each message in
    /// place. A malformed frame is rejected whole, before any of its
    /// messages is acted on. Duplicate flood copies are suppressed from
    /// the message header alone. HELLOs and new TCs are processed straight
    /// off the wire, and a relay retransmits the received bytes: a HELLO or
    /// TC body is decoded into an owned message only when a forwarding
    /// hook asks for one.
    fn handle_frame_view(&mut self, ctx: &mut Context<'_>, from: NodeId, frame: &Bytes) {
        let view = match PacketView::parse(frame) {
            Ok(v) => v,
            Err(_) => {
                ctx.log(LogRecord::DecodeError { from });
                return;
            }
        };
        let now = ctx.now();
        for mv in view.messages() {
            if mv.originator == self.id {
                continue; // our own flood echoed back
            }
            match mv.kind {
                MessageType::Hello => {
                    let hello = mv.hello(frame).expect("a HELLO view has a HELLO body");
                    self.process_hello(ctx, mv.originator, &hello);
                    continue;
                }
                MessageType::Data => {
                    self.process_data(ctx, frame, &mv, from);
                    continue;
                }
                MessageType::Tc => {}
            }
            // Flooded control traffic. One duplicate-set probe answers both
            // "seen before?" and "already retransmitted?", and already
            // records the copy as not retransmitted: only a forward records
            // it again.
            let dup_until = now + self.config.duplicate_hold_time;
            let probe = self.duplicates.probe_flood(mv.originator, mv.seq, dup_until, now);
            if probe == DupProbe::Retransmitted {
                // Already retransmitted once: suppressed on the header
                // alone, body never materialized.
                self.suppress_forward(SuppressReason::Duplicate);
                continue;
            }
            // One lookup of the sender's link serves the log decision and
            // the forwarding gates; processing a TC does not touch it.
            let link = self.links.get(from).copied();
            if probe == DupProbe::New {
                let tc = mv.tc(frame).expect("a TC view has a TC body");
                let sender_live = link.is_some_and(|t| t.until > now);
                self.process_tc(ctx, &mv, &tc, from, sender_live);
            }
            // A new TC, or a copy seen but not yet forwarded (processing
            // skipped): the forwarding decision is live.
            match self.flood_gate(from, link.as_ref(), mv.ttl, now) {
                Err(reason) => self.suppress_forward(reason),
                Ok(()) => self.forward_approved(ctx, frame, &mv, from, dup_until, now),
            }
        }
        self.after_packet_recompute(ctx);
    }

    // ---- state maintenance ----------------------------------------------

    /// Brings every derived artifact up to date with the repositories *at
    /// this instant*: expiry sweeps (min-expiry gated), the symmetric-
    /// neighborhood delta, then — only for domains whose inputs actually
    /// changed — MPR selection and the routing BFS, logging every
    /// observable change.
    ///
    /// Every externally observable decision point calls this first
    /// (HELLO/TC emission, data-plane sends and forwards, the detector's
    /// analysis pass), which is what keeps [`RecomputeMode::Incremental`]
    /// and [`RecomputeMode::Eager`] byte-identical on the air: both modes
    /// materialize from identical repositories at identical instants.
    fn ensure_fresh(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        self.stats.flushes += 1;
        let mut nbr_changed = self.flags.nbr;
        let mut topo_changed = self.flags.topo;
        self.flags = ChangeFlags::default();

        // Expired-tuple sweeps. Link-tuple removals cannot change the
        // symmetric set (an expired tuple was already non-symmetric); two-hop
        // and topology removals invalidate MPR/route inputs.
        let links_before = self.links.len();
        self.links.purge(now);
        let dead_pairs = self.two_hop.purge(now);
        if !dead_pairs.is_empty() {
            nbr_changed = true;
            for (via, addr) in dead_pairs {
                ctx.log(LogRecord::TwoHopLost { via, addr });
            }
        }
        self.selectors.purge(now);
        // A TC originator's reception state lapses with its latest TC,
        // after reporting a clock the log has not seen yet.
        let lapsed = |originator, heard_at| ctx.log(LogRecord::TcHeard { originator, heard_at });
        if self.topology.purge_reporting(now, lapsed) {
            topo_changed = true;
        }
        // The HELLO memo lives no longer than the link tuples it mirrors.
        if let Some(memo) = self.log_memo.as_deref_mut() {
            if self.links.len() != links_before {
                let links = &self.links;
                memo.hellos.retain(|n, _| links.get(*n).is_some());
            }
        }

        // Symmetric-neighborhood delta (cheap: O(degree) every flush; this
        // is also what catches pure-time symmetry transitions that no
        // reception announced).
        let mut sym = std::mem::take(&mut self.sym_scratch);
        self.links.symmetric_neighbors_into(now, &mut sym);
        let prev = std::mem::take(&mut self.prev_sym);
        if sym != prev {
            nbr_changed = true;
            for n in &sym {
                if !prev.contains(n) {
                    ctx.log(LogRecord::NeighborAdded { addr: *n });
                }
            }
            for n in &prev {
                if !sym.contains(n) {
                    ctx.log(LogRecord::NeighborLost { addr: *n });
                    self.neighbors.remove(*n);
                    self.two_hop.remove_via(*n, now);
                    self.selectors.remove(*n);
                }
            }
        }
        self.prev_sym = sym;
        self.sym_scratch = prev; // recycle the allocation

        // MPR selection: only when the 1/2-hop neighborhood changed. The
        // selection is a pure function of its inputs, so skipping it on
        // unchanged inputs is exact, not an approximation.
        let mut mprs_changed = false;
        if nbr_changed {
            self.stats.mpr_runs += 1;
            self.two_hop.two_hop_addrs_into(
                now,
                self.id,
                &self.prev_sym,
                &mut self.targets_scratch,
            );
            let candidates = mpr_candidates(
                &self.two_hop,
                &self.neighbors,
                &self.excluded_mprs,
                self.id,
                &self.prev_sym,
                now,
            );
            let mprs = crate::mpr::select_mprs(&candidates, &self.targets_scratch);
            if mprs != self.mprs {
                ctx.log(LogRecord::MprSet { mprs: Box::from(&mprs[..]) });
                self.mprs = mprs;
                mprs_changed = true;
            }
        }

        // TC clocks: the IDS's TC-silence check reads those of the current
        // MPRs, so each flush brings them up to the latest reception. A scan
        // leaves every current MPR's clock reported (`heard <= logged`).
        // Only a TC from the originator moves `heard`, and a purge only
        // reports a clock or drops it. So while no TC from a current MPR
        // arrived since the last scan and the MPR set stands, every MPR
        // still has `heard <= logged`, and the scan would log nothing.
        let mpr_tc_heard = std::mem::take(&mut self.mpr_tc_heard);
        if mprs_changed || mpr_tc_heard {
            for &mpr in &self.mprs {
                if let Some(heard_at) = self.topology.take_heard(mpr) {
                    ctx.log(LogRecord::TcHeard { originator: mpr, heard_at });
                }
            }
        }

        // Routing table: only when the neighborhood or the topology
        // changed (same exactness argument). The sweeps above leave only
        // live pairs stored, which is what the graph routes over; it takes
        // the pairs inserted and removed since its last run, and when none
        // of them can move its search, the routes stand as they are.
        if nbr_changed || topo_changed {
            self.stats.route_runs += 1;
            let id = self.id;
            let searched = self.graph.get_or_insert_with(|| Box::new(RoutingGraph::new(id))).run(
                &mut self.routes_scratch,
                self.stats.route_runs,
                &self.prev_sym,
                &mut self.two_hop,
                &mut self.topology,
            );
            if !searched {
                return;
            }
            for r in self.routes.added(&self.routes_scratch) {
                ctx.log(LogRecord::RouteAdded { dest: r.dest, next_hop: r.next_hop, hops: r.hops });
            }
            for r in self.routes.changed(&self.routes_scratch) {
                ctx.log(LogRecord::RouteChanged {
                    dest: r.dest,
                    next_hop: r.next_hop,
                    hops: r.hops,
                });
            }
            std::mem::swap(&mut self.routes, &mut self.routes_scratch);
        }
    }

    /// Public freshness hook for wrappers ([`refresh`](Self::refresh) is
    /// what the detector calls before tailing the audit log, so the
    /// recompute-emitted lines land in the same analysis batch in both
    /// recompute modes).
    pub fn refresh(&mut self, ctx: &mut Context<'_>) {
        self.ensure_fresh(ctx);
    }
}

impl<H: OlsrHooks> Application for OlsrNode<H> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.id = ctx.id();
        // Stagger the periodic timers so co-located nodes do not fire in
        // lock-step (the usual OLSR jitter).
        let hello_us = self.config.hello_interval.as_micros();
        let tc_us = self.config.tc_interval.as_micros();
        let hello_off =
            trustlink_sim::SimDuration::from_micros(ctx.rng().random_range(0..hello_us));
        let tc_off = trustlink_sim::SimDuration::from_micros(ctx.rng().random_range(0..tc_us));
        ctx.set_timer(hello_off, TIMER_HELLO);
        ctx.set_timer(tc_off, TIMER_TC);
        ctx.set_timer(self.config.refresh_interval, TIMER_REFRESH);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        match timer {
            TIMER_HELLO => {
                self.emit_hello(ctx);
                ctx.set_timer(self.config.hello_interval, TIMER_HELLO);
            }
            TIMER_TC => {
                self.emit_tc(ctx);
                ctx.set_timer(self.config.tc_interval, TIMER_TC);
            }
            TIMER_REFRESH => {
                self.ensure_fresh(ctx);
                ctx.set_timer(self.config.refresh_interval, TIMER_REFRESH);
            }
            TIMER_RECOMPUTE => {
                self.debounce_armed = false;
                self.ensure_fresh(ctx);
            }
            _ => {}
        }
    }

    fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        self.handle_frame_view(ctx, from, &payload);
    }
}

impl<H: OlsrHooks> std::fmt::Debug for OlsrNode<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OlsrNode")
            .field("id", &self.id)
            .field("neighbors", &self.neighbors.len())
            .field("mprs", &self.mprs)
            .field("routes", &self.routes.len())
            .finish()
    }
}

/// Builds the MPR candidate set for `me`: one candidate per symmetric
/// neighbor, covering the strict 2-hop targets reachable through it, with
/// `WILL_NEVER` forced for excluded intruders. The single definition both the hot path ([`OlsrNode::ensure_fresh`])
/// and the pure query ([`OlsrNode::effective_mprs`]) share — the
/// equivalence suite compares materialized against effective state, so
/// the two must be the same computation by construction. `sym` must be
/// sorted ascending.
fn mpr_candidates(
    two_hop: &TwoHopSet,
    neighbors: &NeighborSet,
    excluded: &std::collections::BTreeSet<NodeId>,
    me: NodeId,
    sym: &[NodeId],
    now: SimTime,
) -> Vec<MprCandidate> {
    sym.iter()
        .map(|&n| {
            let willingness = if excluded.contains(&n) {
                Willingness::Never
            } else {
                neighbors.get(n).map_or(Willingness::Default, |t| t.willingness)
            };
            let covers: Vec<NodeId> = two_hop
                .iter_via(n, now)
                .filter(|t| *t != me && sym.binary_search(t).is_err())
                .collect();
            MprCandidate { addr: n, willingness, degree: covers.len(), covers }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Packet;
    use crate::wire::{encode_messages_into, encode_packet, materialize_message};
    use trustlink_sim::{Position, RadioConfig, SimDuration, SimulatorBuilder};

    fn line_sim(n: usize, spacing: f64, range: f64, seed: u64) -> trustlink_sim::Simulator {
        let mut sim = SimulatorBuilder::new(seed)
            .radio(RadioConfig::unit_disk(range))
            .arena(trustlink_sim::Arena::new(10_000.0, 10_000.0))
            .build();
        for i in 0..n {
            sim.add_node(
                Box::new(OlsrNode::new(OlsrConfig::fast())),
                Position::new(i as f64 * spacing, 0.0),
            );
        }
        sim
    }

    #[test]
    fn two_nodes_become_symmetric_neighbors() {
        let mut sim = line_sim(2, 100.0, 150.0, 7);
        sim.run_for(SimDuration::from_secs(5));
        let now = sim.now();
        let a = sim.app_as::<OlsrNode>(NodeId(0)).unwrap();
        let b = sim.app_as::<OlsrNode>(NodeId(1)).unwrap();
        assert_eq!(a.symmetric_neighbors(now), vec![NodeId(1)]);
        assert_eq!(b.symmetric_neighbors(now), vec![NodeId(0)]);
        // 1-hop routes appear.
        assert_eq!(a.routing_table().next_hop(NodeId(1)), Some(NodeId(1)));
    }

    #[test]
    fn line_of_four_converges_multi_hop_routes() {
        let mut sim = line_sim(4, 100.0, 150.0, 11);
        sim.run_for(SimDuration::from_secs(20));
        let a = sim.app_as::<OlsrNode>(NodeId(0)).unwrap();
        let r = a.routing_table().route_to(NodeId(3)).expect("route to far end");
        assert_eq!(r.hops, 3);
        assert_eq!(r.next_hop, NodeId(1));
        // Middle nodes are MPRs of their neighbors.
        let b = sim.app_as::<OlsrNode>(NodeId(1)).unwrap();
        assert!(!b.mpr_selectors(sim.now()).is_empty(), "N1 must be selected as MPR");
    }

    #[test]
    fn mpr_covers_all_two_hop_neighbors() {
        let mut sim = line_sim(5, 100.0, 150.0, 13);
        sim.run_for(SimDuration::from_secs(20));
        let now = sim.now();
        for i in 0..5 {
            let node = sim.app_as::<OlsrNode>(NodeId(i)).unwrap();
            let sym = node.symmetric_neighbors(now);
            let targets = node.two_hop_set().two_hop_addrs(now, NodeId(i), &sym);
            for t in &targets {
                let vias = node.two_hop_set().vias_for(*t, now);
                assert!(
                    vias.iter().any(|v| node.mpr_set().contains(v)),
                    "N{i}: 2-hop {t} not covered by MPRs {:?}",
                    node.mpr_set()
                );
            }
        }
    }

    #[test]
    fn data_plane_delivers_multi_hop() {
        let mut sim = line_sim(4, 100.0, 150.0, 17);
        sim.run_for(SimDuration::from_secs(20));
        let a = sim.app_as::<OlsrNode>(NodeId(0)).unwrap();
        let next = a.routing_table().next_hop(NodeId(3)).unwrap();
        assert_eq!(next, NodeId(1));
        // Encode a data packet as N0 would and inject it.
        let msg = Message {
            vtime: SimDuration::from_secs(6),
            originator: NodeId(0),
            ttl: 32,
            hop_count: 0,
            seq: SequenceNumber(999),
            body: MessageBody::Data(DataMessage {
                src: NodeId(0),
                dst: NodeId(3),
                avoid: None,
                payload: Bytes::from_static(b"ping"),
            }),
        };
        let packet = Packet { seq: SequenceNumber(999), messages: vec![msg] };
        sim.inject_broadcast(NodeId(0), encode_packet(&packet));
        sim.run_for(SimDuration::from_secs(5));
        let d = sim.app_as_mut::<OlsrNode>(NodeId(3)).unwrap();
        let inbox = d.take_inbox();
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].src, NodeId(0));
        assert_eq!(inbox[0].payload.as_ref(), b"ping");
    }

    #[test]
    fn recycled_inbox_keeps_its_allocation_and_every_payload() {
        let mut node = OlsrNode::new(OlsrConfig::fast());
        let data = |payload: &'static [u8]| ReceivedData {
            src: NodeId(1),
            at: SimTime::ZERO,
            payload: Bytes::from_static(payload),
        };
        node.inbox.push(data(b"a"));
        let spent = node.take_inbox();
        let buffer = spent.as_ptr();
        node.recycle_inbox(spent);
        assert!(node.inbox.is_empty());
        assert_eq!(node.inbox.as_ptr(), buffer, "the allocation came back");
        // A payload delivered between the take and the recycle stays.
        let spent = node.take_inbox();
        node.inbox.push(data(b"b"));
        node.recycle_inbox(spent);
        assert_eq!(node.take_inbox(), vec![data(b"b")]);
    }

    #[test]
    fn audit_log_records_neighborhood_events() {
        let mut sim = line_sim(3, 100.0, 150.0, 23);
        sim.run_for(SimDuration::from_secs(10));
        let log = sim.log(NodeId(1));
        let mut saw_hello_rx = false;
        let mut saw_nbr_add = false;
        for line in log.lines() {
            if line.starts_with("HELLO_RX") {
                saw_hello_rx = true;
            }
            if line.starts_with("NBR_ADD") {
                saw_nbr_add = true;
            }
            // Every rendered line must be parseable (external log consumers
            // depend on it).
            trustlink_sim::record::parse_line(&line)
                .unwrap_or_else(|e| panic!("unparseable log line `{line}`: {e}"));
        }
        assert!(saw_hello_rx && saw_nbr_add);
        // The middle node of a 3-line is everyone's MPR.
        let mid = sim.app_as::<OlsrNode>(NodeId(1)).unwrap();
        assert_eq!(mid.mpr_selectors(sim.now()), vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn converged_mesh_logs_only_tc_clocks() {
        // A lossless stationary 3×3 grid: once converged, every HELLO and TC
        // repeats what its receiver last logged, so a steady window logs no
        // reception at all. What still moves is each MPR's TC clock, which
        // every flush brings up to the latest reception via `TC_HEARD`.
        let mut sim = SimulatorBuilder::new(5)
            .radio(RadioConfig::unit_disk(150.0))
            .arena(trustlink_sim::Arena::new(1_000.0, 1_000.0))
            .build();
        for p in trustlink_sim::topologies::grid(9, 3, 100.0) {
            sim.add_node(Box::new(OlsrNode::new(OlsrConfig::fast())), p);
        }
        sim.run_for(SimDuration::from_secs(10));
        let ids: Vec<NodeId> = sim.node_ids().collect();
        let cursors: Vec<usize> = ids.iter().map(|&id| sim.log(id).len()).collect();
        let mprs_before: Vec<Vec<NodeId>> =
            ids.iter().map(|&id| sim.app_as::<OlsrNode>(id).unwrap().mpr_set().to_vec()).collect();
        sim.run_for(SimDuration::from_secs(10));
        let now = sim.now();
        let tc_interval = OlsrConfig::fast().tc_interval;
        let mut clocks_seen = 0;
        for (i, &id) in ids.iter().enumerate() {
            let node = sim.app_as::<OlsrNode>(id).unwrap();
            assert_eq!(node.mpr_set(), &mprs_before[i][..], "{id}: MPR set moved");
            let (window, _) = sim.log(id).read_from(cursors[i]);
            for (at, record) in window {
                assert!(
                    !matches!(record, LogRecord::HelloRx { .. } | LogRecord::TcRx { .. }),
                    "{id} logged `{record}` at {at} in a steady mesh"
                );
            }
            for &mpr in node.mpr_set() {
                let heard: Vec<SimTime> = window
                    .iter()
                    .filter_map(|(_, r)| match r {
                        LogRecord::TcHeard { originator, heard_at } if *originator == mpr => {
                            Some(*heard_at)
                        }
                        _ => None,
                    })
                    .collect();
                // One TC per 1.25 s: about eight over the window.
                assert!(heard.len() >= 6, "{id}: MPR {mpr} clock moved only {heard:?}");
                assert!(heard.windows(2).all(|w| w[0] < w[1]), "{id}: {mpr} clock {heard:?}");
                let last = *heard.last().unwrap();
                assert!(now.saturating_since(last) <= tc_interval * 2, "{id}: {mpr} at {last}");
                clocks_seen += 1;
            }
        }
        assert!(clocks_seen >= 8, "only {clocks_seen} MPR clocks: the grid selected no MPRs");
    }

    /// A converged 2-node line whose N1 hears TCs from the phantom
    /// originator N7, relayed by N0 over a live symmetric link. N0 selects
    /// no MPR, so N1 never forwards them.
    fn phantom_tc_listener(seed: u64) -> trustlink_sim::Simulator {
        let mut sim = line_sim(2, 100.0, 150.0, seed);
        sim.run_for(SimDuration::from_secs(5));
        assert!(sim
            .app_as::<OlsrNode>(NodeId(1))
            .unwrap()
            .is_symmetric_neighbor(NodeId(0), sim.now()));
        sim
    }

    /// Relays a TC from N7 carrying `ansn` and `advertised` (wire order),
    /// valid `vtime_s`, through N0; returns the advertised sets of the
    /// `TC_RX` lines N1 wrote for it.
    fn relay_phantom_tc(
        sim: &mut trustlink_sim::Simulator,
        seq: u16,
        ansn: u16,
        advertised: &[u32],
        vtime_s: u64,
    ) -> Vec<Vec<NodeId>> {
        let cursor = sim.log(NodeId(1)).len();
        let msg = Message {
            vtime: SimDuration::from_secs(vtime_s),
            originator: NodeId(7),
            ttl: 8,
            hop_count: 1,
            seq: SequenceNumber(seq),
            body: MessageBody::Tc(TcMessage {
                ansn,
                advertised: advertised.iter().copied().map(NodeId).collect(),
            }),
        };
        let packet = Packet { seq: SequenceNumber(seq), messages: vec![msg] };
        sim.inject_broadcast(NodeId(0), encode_packet(&packet));
        sim.run_for(SimDuration::from_millis(100));
        let (window, _) = sim.log(NodeId(1)).read_from(cursor);
        window
            .iter()
            .filter_map(|(_, r)| match r {
                LogRecord::TcRx { originator: NodeId(7), advertised, .. } => {
                    Some(advertised.to_vec())
                }
                _ => None,
            })
            .collect()
    }

    /// N1's live tuples from N7 as `(dest, ansn)`, ascending.
    fn phantom_run(sim: &trustlink_sim::Simulator) -> Vec<(u32, u16)> {
        let node = sim.app_as::<OlsrNode>(NodeId(1)).unwrap();
        let now = sim.now();
        node.topology_set()
            .iter(now)
            .filter(|t| t.last_hop == NodeId(7))
            .map(|t| (t.dest.0, t.ansn))
            .collect()
    }

    fn ids(raw: &[u32]) -> Vec<NodeId> {
        raw.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn stale_ansn_tc_is_logged_but_not_applied() {
        let mut sim = phantom_tc_listener(71);
        assert_eq!(relay_phantom_tc(&mut sim, 100, 10, &[2], 6), vec![ids(&[2])]);
        // A stale ANSN with a new set: the IDS hears it, the topology not.
        assert_eq!(relay_phantom_tc(&mut sim, 101, 9, &[3], 6), vec![ids(&[3])]);
        assert_eq!(phantom_run(&sim), vec![(2, 10)]);
        // The last logged set is now the stale one, so the run's own set
        // is news again, although the topology does not move.
        assert_eq!(relay_phantom_tc(&mut sim, 102, 10, &[2], 6), vec![ids(&[2])]);
        // A stale ANSN repeating the logged set is a repeat all the same.
        assert!(relay_phantom_tc(&mut sim, 103, 9, &[2], 6).is_empty());
        assert_eq!(phantom_run(&sim), vec![(2, 10)]);
    }

    #[test]
    fn same_ansn_tc_with_another_set_merges_into_the_run() {
        let mut sim = phantom_tc_listener(73);
        assert_eq!(relay_phantom_tc(&mut sim, 100, 10, &[2], 6), vec![ids(&[2])]);
        assert_eq!(relay_phantom_tc(&mut sim, 101, 10, &[3], 6), vec![ids(&[3])]);
        assert_eq!(phantom_run(&sim), vec![(2, 10), (3, 10)]);
        // Repeating the logged set is a repeat, though the run holds more.
        assert!(relay_phantom_tc(&mut sim, 102, 10, &[3], 6).is_empty());
        // The run's whole set differs from the logged one.
        assert_eq!(relay_phantom_tc(&mut sim, 103, 10, &[2, 3], 6), vec![ids(&[2, 3])]);
        assert!(relay_phantom_tc(&mut sim, 104, 10, &[2, 3], 6).is_empty());
        assert_eq!(phantom_run(&sim), vec![(2, 10), (3, 10)]);
    }

    #[test]
    fn wire_order_and_repeated_ids_belong_to_the_logged_set() {
        let mut sim = phantom_tc_listener(79);
        assert_eq!(relay_phantom_tc(&mut sim, 100, 10, &[3, 2], 6), vec![ids(&[3, 2])]);
        assert_eq!(phantom_run(&sim), vec![(2, 10), (3, 10)]);
        assert!(relay_phantom_tc(&mut sim, 101, 10, &[3, 2], 6).is_empty());
        // The same run in another wire order, or with an id twice, is a
        // different claim on the air: logged as such.
        assert_eq!(relay_phantom_tc(&mut sim, 102, 10, &[2, 3], 6), vec![ids(&[2, 3])]);
        assert_eq!(relay_phantom_tc(&mut sim, 103, 10, &[2, 2, 3], 6), vec![ids(&[2, 2, 3])]);
        assert!(relay_phantom_tc(&mut sim, 104, 10, &[2, 2, 3], 6).is_empty());
        assert_eq!(relay_phantom_tc(&mut sim, 105, 10, &[2, 3], 6), vec![ids(&[2, 3])]);
        assert_eq!(phantom_run(&sim), vec![(2, 10), (3, 10)]);
    }

    #[test]
    fn reception_state_and_tuples_expire_independently() {
        // The reception state outlives the tuples: a stale repeat extends
        // the state, not the tuples, which expire and are purged while
        // the logged set stays live.
        let mut sim = phantom_tc_listener(83);
        assert_eq!(relay_phantom_tc(&mut sim, 100, 10, &[2], 2), vec![ids(&[2])]);
        sim.run_for(SimDuration::from_millis(900));
        assert!(relay_phantom_tc(&mut sim, 101, 9, &[2], 6).is_empty());
        sim.run_for(SimDuration::from_millis(1_500));
        assert!(phantom_run(&sim).is_empty(), "N7's tuple outlived its 2 s validity");
        // With no live tuple ANSN 9 applies; the set repeats the live
        // logged one, so the log stays quiet.
        assert!(relay_phantom_tc(&mut sim, 102, 9, &[2], 6).is_empty());
        assert_eq!(phantom_run(&sim), vec![(2, 9)]);

        // The tuples outlive the reception state: a short-lived same-ANSN
        // TC merges into a longer-lived run, and once the state lapses the
        // same set is logged again while one tuple is still live.
        assert_eq!(relay_phantom_tc(&mut sim, 103, 11, &[2, 3], 6), vec![ids(&[2, 3])]);
        assert_eq!(relay_phantom_tc(&mut sim, 104, 11, &[2], 1), vec![ids(&[2])]);
        sim.run_for(SimDuration::from_millis(1_500));
        assert_eq!(phantom_run(&sim), vec![(3, 11)]);
        assert_eq!(relay_phantom_tc(&mut sim, 105, 11, &[2], 6), vec![ids(&[2])]);
        assert_eq!(phantom_run(&sim), vec![(2, 11), (3, 11)]);
    }

    #[test]
    fn neighbor_loss_detected_after_silence() {
        let mut sim = line_sim(2, 100.0, 150.0, 29);
        sim.run_for(SimDuration::from_secs(5));
        sim.kill(NodeId(1));
        sim.run_for(SimDuration::from_secs(10));
        let now = sim.now();
        let a = sim.app_as::<OlsrNode>(NodeId(0)).unwrap();
        assert!(a.symmetric_neighbors(now).is_empty());
        assert!(sim.log(NodeId(0)).lines().any(|l| l.starts_with("NBR_LOST addr=N1")));
    }

    #[test]
    fn tc_messages_propagate_topology() {
        let mut sim = line_sim(4, 100.0, 150.0, 31);
        sim.run_for(SimDuration::from_secs(20));
        // N0 must have learned, via TCs, links it cannot hear directly.
        let a = sim.app_as::<OlsrNode>(NodeId(0)).unwrap();
        let topo_edges: Vec<(NodeId, NodeId)> =
            a.topology_set().iter(sim.now()).map(|t| (t.last_hop, t.dest)).collect();
        assert!(
            topo_edges.iter().any(|(lh, d)| lh.0 >= 2 || d.0 >= 2),
            "no remote topology learned: {topo_edges:?}"
        );
    }

    /// Records `(ttl, hop_count)` of every message this node re-floods,
    /// as advanced just before retransmission.
    #[derive(Default)]
    struct RecordForwards {
        seen: Vec<(u8, u8)>,
    }

    impl crate::hooks::OlsrHooks for RecordForwards {
        fn on_forward(&mut self, relay: &mut Relay<'_>, _from: NodeId) {
            self.seen.push((relay.header().ttl, relay.header().hop_count));
        }
    }

    /// A 3-node line whose middle node records its re-floods: both ends
    /// select the middle as MPR, so a flood injected at N0 exercises the
    /// default forwarding algorithm at N1.
    fn converged_line_with_recorder(seed: u64) -> trustlink_sim::Simulator {
        let mut sim = SimulatorBuilder::new(seed)
            .radio(RadioConfig::unit_disk(150.0))
            .arena(trustlink_sim::Arena::new(10_000.0, 10_000.0))
            .build();
        for i in 0..3 {
            let app: Box<dyn trustlink_sim::Application> = if i == 1 {
                Box::new(OlsrNode::with_hooks(OlsrConfig::fast(), RecordForwards::default()))
            } else {
                Box::new(OlsrNode::new(OlsrConfig::fast()))
            };
            sim.add_node(app, Position::new(f64::from(i) * 100.0, 0.0));
        }
        sim.run_for(SimDuration::from_secs(10));
        let mid = sim.app_as::<OlsrNode<RecordForwards>>(NodeId(1)).unwrap();
        assert!(
            mid.mpr_selectors(sim.now()).contains(&NodeId(0)),
            "N0 must select N1 as MPR for the forwarding tests to bite"
        );
        sim
    }

    /// Injects a crafted TC flood as if broadcast by N0.
    fn inject_tc(sim: &mut trustlink_sim::Simulator, seq: u16, ttl: u8, hop_count: u8) {
        let msg = Message {
            vtime: SimDuration::from_secs(6),
            originator: NodeId(0),
            ttl,
            hop_count,
            seq: SequenceNumber(seq),
            body: MessageBody::Tc(TcMessage { ansn: seq, advertised: vec![NodeId(1)] }),
        };
        let packet = Packet { seq: SequenceNumber(seq), messages: vec![msg] };
        sim.inject_broadcast(NodeId(0), encode_packet(&packet));
        sim.run_for(SimDuration::from_millis(200));
    }

    /// Suppressions per reason since `before`, in the order duplicate,
    /// not-MPR-selector, TTL-expired, unknown-sender.
    fn suppressed_since(before: &FloodStats, after: &FloodStats) -> [u64; 4] {
        [
            SuppressReason::Duplicate,
            SuppressReason::NotMprSelector,
            SuppressReason::TtlExpired,
            SuppressReason::UnknownSender,
        ]
        .map(|r| after.suppressed(r) - before.suppressed(r))
    }

    #[test]
    fn forward_flooded_drops_exhausted_ttl() {
        let mut sim = converged_line_with_recorder(41);
        let before = sim.app_as::<OlsrNode<RecordForwards>>(NodeId(1)).unwrap().flood.clone();
        let fwd_before = before.forwarded;
        inject_tc(&mut sim, 900, 1, 0);
        let mid = sim.app_as::<OlsrNode<RecordForwards>>(NodeId(1)).unwrap();
        assert!(mid.hooks().seen.is_empty(), "a ttl=1 flood must never reach on_forward");
        assert_eq!(mid.flood.forwarded, fwd_before, "ttl=1 flood counted as forwarded");
        assert_eq!(
            suppressed_since(&before, &mid.flood),
            [0, 0, 1, 0],
            "exactly one suppression, citing the exhausted TTL"
        );
    }

    #[test]
    fn forward_flooded_decrements_ttl_and_increments_hop_count() {
        let mut sim = converged_line_with_recorder(43);
        let fwd_before = sim.app_as::<OlsrNode<RecordForwards>>(NodeId(1)).unwrap().flood.forwarded;
        inject_tc(&mut sim, 901, 5, 2);
        let mid = sim.app_as::<OlsrNode<RecordForwards>>(NodeId(1)).unwrap();
        assert_eq!(mid.hooks().seen, vec![(4, 3)], "re-flood must carry ttl-1, hop_count+1");
        assert_eq!(mid.flood.forwarded - fwd_before, 1, "the re-flood must be counted once");
        // The re-flood reaches the far end of the line (out of N0's range).
        assert!(
            sim.log(NodeId(2))
                .lines()
                .any(|l| l.starts_with("TC_RX orig=N0") && l.contains("ansn=901")),
            "forwarded TC never reached the 2-hop node"
        );
    }

    #[test]
    fn forward_flooded_suppresses_duplicate_refloods() {
        let mut sim = converged_line_with_recorder(47);
        let fwd_before = sim.app_as::<OlsrNode<RecordForwards>>(NodeId(1)).unwrap().flood.forwarded;
        inject_tc(&mut sim, 902, 8, 0);
        let before = sim.app_as::<OlsrNode<RecordForwards>>(NodeId(1)).unwrap().flood.clone();
        inject_tc(&mut sim, 902, 8, 0); // the same (originator, seq) again
        let mid = sim.app_as::<OlsrNode<RecordForwards>>(NodeId(1)).unwrap();
        assert_eq!(mid.hooks().seen.len(), 1, "duplicate flood was retransmitted");
        assert_eq!(mid.flood.forwarded - fwd_before, 1, "both copies together forward once");
        assert_eq!(
            suppressed_since(&before, &mid.flood),
            [1, 0, 0, 0],
            "second copy must be suppressed, once, as a duplicate"
        );
    }

    /// An [`OlsrNode`] that keeps every frame it receives.
    struct Sniffer {
        node: OlsrNode,
        heard: Vec<Bytes>,
    }

    impl Application for Sniffer {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.node.on_start(ctx);
        }

        fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
            self.node.on_timer(ctx, timer);
        }

        fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
            self.heard.push(payload.clone());
            self.node.on_receive(ctx, from, payload);
        }
    }

    #[test]
    fn crafted_tc_is_relayed_byte_for_byte() {
        // RFC 3626 §3.4.1: a relayed message is retransmitted as received,
        // except that TTL is decremented and hop count incremented. The
        // parser accepts TCs the encoder never writes: here a non-zero
        // reserved field and the narrow id N2 in the escaped six-byte form.
        // N1, N0's MPR on a converged 3-node line, relays those bytes, not
        // a re-encoding of what they decode to.
        let mut sim = SimulatorBuilder::new(67)
            .radio(RadioConfig::unit_disk(150.0))
            .arena(trustlink_sim::Arena::new(10_000.0, 10_000.0))
            .build();
        sim.add_node(Box::new(OlsrNode::new(OlsrConfig::fast())), Position::new(0.0, 0.0));
        sim.add_node(Box::new(OlsrNode::new(OlsrConfig::fast())), Position::new(100.0, 0.0));
        let sniffer = Sniffer { node: OlsrNode::new(OlsrConfig::fast()), heard: Vec::new() };
        sim.add_node(Box::new(sniffer), Position::new(200.0, 0.0));
        sim.run_for(SimDuration::from_secs(10));
        let mid = sim.app_as::<OlsrNode>(NodeId(1)).unwrap();
        assert!(mid.mpr_selectors(sim.now()).contains(&NodeId(0)), "N1 must be N0's MPR");

        #[rustfmt::skip]
        let message: Vec<u8> = vec![
            2, crate::message::encode_vtime(SimDuration::from_secs(6)), 0, 22, // TC, size 22
            0, 0, 5, 2, 0x03, 0x98,       // originator N0, TTL 5, hop count 2, seq 920
            0, 9, 0xBE, 0xEF,             // ANSN 9, reserved 0xBEEF
            0xFF, 0xFF, 0, 0, 0, 2,       // N2, escaped
            0, 1,                         // N1
        ];
        let mut frame = vec![0, 26, 0, 1];
        frame.extend_from_slice(&message);
        let frame = Bytes::from(frame);
        let view = PacketView::parse(&frame).expect("the parser accepts the crafted TC");
        let mv = view.messages().next().unwrap();
        let tc = mv.tc(&frame).unwrap();
        assert_eq!((tc.ansn, tc.advertised().collect::<Vec<_>>()), (9, ids(&[2, 1])));

        let heard_before = sim.app_as::<Sniffer>(NodeId(2)).unwrap().heard.len();
        sim.inject_broadcast(NodeId(0), frame.clone());
        sim.run_for(SimDuration::from_millis(200));
        let sniffer = sim.app_as::<Sniffer>(NodeId(2)).unwrap();
        let relays: Vec<&Bytes> = sniffer.heard[heard_before..]
            .iter()
            .filter(|f| {
                let view = PacketView::parse(f).unwrap();
                view.messages().any(|m| m.originator == NodeId(0) && m.seq == SequenceNumber(920))
            })
            .collect();
        assert_eq!(relays.len(), 1, "N1 relays the crafted TC once");
        let relayed = relays[0];
        let mut want = message.clone();
        want[6] = 4; // TTL - 1
        want[7] = 3; // hop count + 1
        assert_eq!(&relayed[..2], &[0, 26], "packet length");
        assert_eq!(&relayed[4..], &want[..], "the relay must be the received message");
        // Re-encoding would have dropped the reserved bits and narrowed N2.
        let mut advanced = materialize_message(&frame, &mv);
        (advanced.ttl, advanced.hop_count) = (4, 3);
        let seq = PacketView::parse(relayed).unwrap().seq();
        let reencoded = encode_messages_into(seq, &[advanced], &mut Vec::new());
        assert_ne!(&reencoded, relayed);
        assert_eq!(reencoded.len(), relayed.len() - 4);
    }

    #[test]
    fn unspoken_message_types_are_rejected_whole_and_never_relayed() {
        // RFC 3626 MID (3) and HNA (4) are not part of this implementation:
        // a frame carrying either takes the unknown-type path. A TC that N1
        // would re-flood, with only its type byte patched, must be logged
        // once as undecodable and go no further.
        let mut sim = converged_line_with_recorder(61);
        for (seq, msg_type) in [(910u16, 3u8), (911, 4)] {
            let msg = Message {
                vtime: SimDuration::from_secs(6),
                originator: NodeId(0),
                ttl: 8,
                hop_count: 0,
                seq: SequenceNumber(seq),
                body: MessageBody::Tc(TcMessage { ansn: seq, advertised: vec![NodeId(1)] }),
            };
            let mut frame =
                encode_packet(&Packet { seq: SequenceNumber(seq), messages: vec![msg] }).to_vec();
            frame[4] = msg_type; // the first message's type byte
            let decode_errors = |sim: &trustlink_sim::Simulator| {
                sim.log(NodeId(1)).lines().filter(|l| *l == "DECODE_ERR from=N0").count()
            };
            let errors_before = decode_errors(&sim);
            let before = sim.app_as::<OlsrNode<RecordForwards>>(NodeId(1)).unwrap().flood.clone();
            sim.inject_broadcast(NodeId(0), Bytes::from(frame));
            sim.run_for(SimDuration::from_millis(200));
            let mid = sim.app_as::<OlsrNode<RecordForwards>>(NodeId(1)).unwrap();
            assert_eq!(decode_errors(&sim) - errors_before, 1, "type {msg_type}");
            assert!(mid.hooks().seen.is_empty(), "type {msg_type} frame was relayed");
            assert_eq!(mid.flood, before, "type {msg_type} frame moved a flood counter");
            assert!(
                !sim.log(NodeId(2)).lines().any(|l| l.contains(&format!("ansn={seq}"))),
                "type {msg_type} frame reached the 2-hop node"
            );
        }
    }

    #[test]
    fn fisheye_ttl_scopes_flood_reach() {
        // A 5-node line under a single TTL-2 ring: N1's TCs (selected by
        // N0) reach N3 (2 hops) but die before N4; classic floods reach
        // the whole line. This is the TTL mechanics the ring schedule
        // leans on, observed end-to-end.
        let run = |scope: crate::types::FloodScope| {
            let cfg = OlsrConfig::fast().with_flood_scope(scope);
            let mut sim = SimulatorBuilder::new(53)
                .radio(RadioConfig::unit_disk(150.0))
                .arena(trustlink_sim::Arena::new(10_000.0, 10_000.0))
                .build();
            for i in 0..5 {
                sim.add_node(
                    Box::new(OlsrNode::new(cfg.clone())),
                    Position::new(f64::from(i) * 100.0, 0.0),
                );
            }
            sim.run_for(SimDuration::from_secs(20));
            sim
        };
        let heard_n1 = |sim: &trustlink_sim::Simulator, id: u32| {
            sim.log(NodeId(id)).lines().any(|l| l.starts_with("TC_RX orig=N1"))
        };
        let classic = run(crate::types::FloodScope::Classic);
        assert!(heard_n1(&classic, 3) && heard_n1(&classic, 4), "classic floods reach everyone");
        let scoped =
            run(crate::types::FloodScope::Fisheye(crate::types::FisheyeRings::new([(2, 1)])));
        assert!(heard_n1(&scoped, 3), "a TTL-2 flood must still cover 2 hops");
        assert!(!heard_n1(&scoped, 4), "a TTL-2 flood must die beyond 2 hops");
    }

    #[test]
    fn fisheye_stretches_vtime_per_ring() {
        // The outermost ring's TCs must advertise a validity stretched by
        // its stride, so topology learned only from rare network-wide
        // floods is held across the gap instead of flapping. Observable
        // only at a listener the inner ring never reaches: a nearer node
        // keeps hearing short-validity inner-ring TCs, and the latest
        // message's vtime legitimately replaces the old one (RFC 3626
        // §9.5). N4 on a 5-node line is 3 hops from the originator N1,
        // beyond the TTL-2 inner ring.
        let rings = crate::types::FisheyeRings::new([(2, 1), (255, 4)]);
        let cfg = OlsrConfig::fast().with_flood_scope(crate::types::FloodScope::Fisheye(rings));
        let mut sim = SimulatorBuilder::new(59)
            .radio(RadioConfig::unit_disk(150.0))
            .arena(trustlink_sim::Arena::new(10_000.0, 10_000.0))
            .build();
        for i in 0..5 {
            sim.add_node(
                Box::new(OlsrNode::new(cfg.clone())),
                Position::new(f64::from(i) * 100.0, 0.0),
            );
        }
        sim.run_for(SimDuration::from_secs(30));
        let now = sim.now();
        let far = sim.app_as::<OlsrNode>(NodeId(4)).unwrap();
        let hold = far.config().topology_hold_time;
        let from_n1 = far
            .topology_set()
            .iter(now)
            .filter(|t| t.last_hop == NodeId(1))
            .map(|t| t.until.saturating_since(now))
            .max()
            .expect("N4 must have learned N1's advertisement from the unbounded ring");
        assert!(
            from_n1 > hold * 2,
            "outermost-ring TCs must stretch validity beyond the base hold time \
             (saw {from_n1:?}, base {hold:?})"
        );
    }

    #[test]
    fn avoid_routing_in_diamond() {
        // Diamond: 0 - {1, 2} - 3. Avoiding 1 must route via 2.
        let mut sim = SimulatorBuilder::new(37)
            .radio(RadioConfig::unit_disk(110.0))
            .arena(trustlink_sim::Arena::new(1_000.0, 1_000.0))
            .build();
        // Edge length 100 (< 110 range); diagonals 120 and 160 (out of range).
        let positions = [
            Position::new(0.0, 100.0),   // 0
            Position::new(80.0, 160.0),  // 1
            Position::new(80.0, 40.0),   // 2
            Position::new(160.0, 100.0), // 3
        ];
        for p in positions {
            sim.add_node(Box::new(OlsrNode::new(OlsrConfig::fast())), p);
        }
        sim.run_for(SimDuration::from_secs(20));
        let now = sim.now();
        let a = sim.app_as_mut::<OlsrNode>(NodeId(0)).unwrap();
        let sym = a.symmetric_neighbors(now);
        assert_eq!(sym, vec![NodeId(1), NodeId(2)]);
        let next = a.next_hop_for(NodeId(3), Some(NodeId(1)));
        assert_eq!(next, Some(NodeId(2)));
        let next_none = a.next_hop_for(NodeId(1), Some(NodeId(1)));
        assert_eq!(next_none, None, "cannot route to the avoided node");
    }

    /// Wraps an [`OlsrNode`] and, on a timer of its own, checks every
    /// avoid-routed next hop the node answers against a from-scratch
    /// computation over its live repositories.
    struct AvoidOracle {
        node: OlsrNode,
        ids: Vec<NodeId>,
        probes: u64,
        checks: u64,
        saw_injected: bool,
        mismatches: Vec<String>,
    }

    const TIMER_PROBE: TimerToken = TimerToken(TIMER_USER_BASE);

    impl AvoidOracle {
        fn probe(&mut self, ctx: &mut Context<'_>) {
            // What the data plane does before every lookup.
            self.node.ensure_fresh(ctx);
            let now = ctx.now();
            let node = &self.node;
            self.saw_injected |= node.topology.iter(now).any(|t| t.last_hop == NodeId(30));
            let sym = node.links.symmetric_neighbors(now);
            let oracles: Vec<RoutingTable> = self
                .ids
                .iter()
                .map(|&x| {
                    RoutingTable::compute_avoiding(
                        node.id,
                        &sym,
                        &node.two_hop,
                        &node.topology,
                        now,
                        Some(x),
                    )
                })
                .collect();
            // Every probe looks up around the first three ids, which fit
            // in the memo and so stay there across probes (and route
            // runs). Every fourth probe first sweeps all pairs in
            // avoided-major order, then in destination-major order, which
            // cycles more avoided ids than the memo holds.
            let n = self.ids.len();
            let sweep = if self.probes.is_multiple_of(4) { n * n } else { 0 };
            self.probes += 1;
            let pairs = (0..sweep)
                .map(|k| (k / n, k % n))
                .chain((0..sweep).map(|k| (k % n, k / n)))
                .chain((0..3 * n).map(|k| (k / n, k % n)));
            for (xi, di) in pairs {
                let (x, dst) = (self.ids[xi], self.ids[di]);
                let want = if dst == x { None } else { oracles[xi].next_hop(dst) };
                let got = self.node.next_hop_for(dst, Some(x));
                self.checks += 1;
                if got != want {
                    self.mismatches.push(format!(
                        "{} at {now}: dst {dst} avoiding {x}: memo {got:?}, oracle {want:?}",
                        self.node.id
                    ));
                }
            }
        }
    }

    impl Application for AvoidOracle {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.node.on_start(ctx);
            ctx.set_timer(SimDuration::from_millis(170), TIMER_PROBE);
        }

        fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
            if timer == TIMER_PROBE {
                self.probe(ctx);
                ctx.set_timer(SimDuration::from_millis(170), TIMER_PROBE);
            } else {
                self.node.on_timer(ctx, timer);
            }
        }

        fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
            self.node.on_receive(ctx, from, payload);
        }
    }

    #[test]
    fn avoid_memo_matches_fresh_computation() {
        // A 3x3 grid (orthogonal links only) probed every 170 ms while a
        // forged TC arrives and expires, and the centre node dies and
        // returns: every memoised answer must equal the from-scratch one.
        let mut sim = SimulatorBuilder::new(61)
            .radio(RadioConfig::unit_disk(110.0))
            .arena(trustlink_sim::Arena::new(1_000.0, 1_000.0))
            .build();
        let ids: Vec<NodeId> = (0..9).map(NodeId).chain([NodeId(30)]).collect();
        for i in 0..9 {
            let app = AvoidOracle {
                node: OlsrNode::new(OlsrConfig::fast()),
                ids: ids.clone(),
                probes: 0,
                checks: 0,
                saw_injected: false,
                mismatches: Vec::new(),
            };
            let p = Position::new(f64::from(i % 3) * 100.0, f64::from(i / 3) * 100.0);
            sim.add_node(Box::new(app), p);
        }
        sim.run_for(SimDuration::from_secs(8));
        // TC receipt: a forged advertisement from phantom N30, valid 2 s.
        let msg = Message {
            vtime: SimDuration::from_secs(2),
            originator: NodeId(30),
            ttl: 8,
            hop_count: 0,
            seq: SequenceNumber(5),
            body: MessageBody::Tc(TcMessage { ansn: 1, advertised: vec![NodeId(0)] }),
        };
        let packet = Packet { seq: SequenceNumber(5), messages: vec![msg] };
        sim.inject_broadcast(NodeId(0), encode_packet(&packet));
        // Tuple expiry, then neighbour loss and recovery at the centre.
        sim.run_for(SimDuration::from_secs(4));
        sim.kill(NodeId(4));
        sim.run_for(SimDuration::from_secs(8));
        sim.revive(NodeId(4));
        sim.run_for(SimDuration::from_secs(8));

        let mut stats = RecomputeStats::default();
        let mut checks = 0;
        let mut saw_injected = false;
        for i in (0..9).filter(|&i| i != 4) {
            let probe = sim.app_as::<AvoidOracle>(NodeId(i)).unwrap();
            assert!(probe.mismatches.is_empty(), "{:#?}", probe.mismatches);
            checks += probe.checks;
            saw_injected |= probe.saw_injected;
            let s = probe.node.recompute_stats();
            stats.route_runs += s.route_runs;
            stats.avoid_lookups += s.avoid_lookups;
            stats.avoid_tree_hits += s.avoid_tree_hits;
            stats.avoid_runs += s.avoid_runs;
        }
        assert!(saw_injected, "the forged TC never reached a topology set");
        assert!(checks > 50_000, "only {checks} checks");
        // Both memo paths ran: hits within a generation, recomputation
        // after every route run.
        assert!(stats.avoid_runs > stats.route_runs, "{stats:?}");
        assert!(stats.avoid_runs < stats.avoid_lookups, "{stats:?}");
        // So did the tree answers, and memo hits remain among the rest.
        let memo_hits = stats.avoid_lookups - stats.avoid_tree_hits - stats.avoid_runs;
        assert!(stats.avoid_tree_hits > 0, "{stats:?}");
        assert!(memo_hits > 0, "{stats:?}");
    }

    /// Appends 16 000 phantom ids above 0xFFFF, six bytes each on the
    /// wire, to every HELLO: one link group of 96 000 bytes, past its
    /// 16-bit size field.
    struct WidePhantoms;

    impl OlsrHooks for WidePhantoms {
        fn on_hello_tx(&mut self, hello: &mut HelloMessage, _now: SimTime) {
            let addrs = (0..16_000u32).map(|k| NodeId(0x1_0000 + k)).collect();
            let code = LinkCode::new(LinkType::Sym, NeighborType::Sym);
            hello.groups.push(LinkGroup { code, addrs });
        }
    }

    #[test]
    fn a_hello_the_wire_cannot_carry_is_dropped_not_fatal() {
        // The centre of a 3×3 grid forges HELLOs too large to encode. It
        // drops each one and counts it; the simulation runs on, and the
        // other nodes converge around the silent centre.
        let mut sim = SimulatorBuilder::new(5)
            .radio(RadioConfig::unit_disk(150.0))
            .arena(trustlink_sim::Arena::new(1_000.0, 1_000.0))
            .build();
        for (i, p) in trustlink_sim::topologies::grid(9, 3, 100.0).into_iter().enumerate() {
            let app: Box<dyn Application> = if i == 4 {
                Box::new(OlsrNode::with_hooks(OlsrConfig::fast(), WidePhantoms))
            } else {
                Box::new(OlsrNode::new(OlsrConfig::fast()))
            };
            sim.add_node(app, p);
        }
        sim.run_for(SimDuration::from_secs(10));
        let now = sim.now();
        let centre = sim.app_as::<OlsrNode<WidePhantoms>>(NodeId(4)).unwrap();
        assert!(centre.oversize_drops() > 10, "{} HELLOs dropped", centre.oversize_drops());
        for i in (0..9).filter(|&i| i != 4) {
            let node = sim.app_as::<OlsrNode>(NodeId(i)).unwrap();
            assert_eq!(node.oversize_drops(), 0);
            assert!(!node.symmetric_neighbors(now).contains(&NodeId(4)), "N{i} heard the centre");
            assert!(!node.symmetric_neighbors(now).is_empty(), "N{i} has no neighbor");
        }
    }
}
