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
use trustlink_sim::record::{LogRecord, MessageKind, SuppressReason, Willingness};
use trustlink_sim::{Application, Context, FloodStats, NodeId, SimDuration, SimTime, TimerToken};

use crate::hooks::{NoHooks, OlsrHooks};
use crate::message::{
    DataMessage, HelloMessage, LinkCode, LinkGroup, LinkType, Message, MessageBody, MidMessage,
    NeighborType, Packet, TcMessage,
};
use crate::mpr::{CandidatePool, MprWorkspace};
use crate::routing::{RoutingTable, RoutingWorkspace};
use crate::state::{
    DupProbe, DuplicateSet, InterfaceAssociationSet, LinkSet, LinkStatus, LinkTuple,
    MprSelectorSet, NeighborSet, TopologySet, TwoHopSet,
};
use crate::types::{FloodScope, OlsrConfig, RecomputeMode, SequenceNumber};
use crate::wire::{encode_packet_into, materialize_message, DecodeArena, MessageType, PacketView};

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
    /// Times the routing BFS actually executed. Doubles as the route
    /// generation that stamps memoised avoid-route tables.
    pub route_runs: u64,
    /// Avoid-routed next-hop lookups (investigation traffic sent or
    /// forwarded around a suspect).
    pub avoid_lookups: u64,
    /// Avoid-route BFS runs: lookups that missed the memo.
    pub avoid_runs: u64,
}

/// How many avoid-route tables a node memoises at once.
const AVOID_MEMO_SLOTS: usize = 4;

/// A memoised routing table computed around `avoided`. It is exact while
/// `generation` equals the node's `route_runs`: the avoid BFS reads the
/// same inputs as the main BFS, and every change to those inputs reaches
/// a route run before any data-plane lookup (both lookup sites call
/// [`OlsrNode::ensure_fresh`] first).
#[derive(Debug, Clone)]
struct AvoidRoutes {
    avoided: NodeId,
    generation: u64,
    table: RoutingTable,
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
    ifaces: InterfaceAssociationSet,
    routes: RoutingTable,
    prev_sym: Vec<NodeId>,
    ansn: u16,
    last_advertised: Vec<NodeId>,
    msg_seq: SequenceNumber,
    pkt_seq: SequenceNumber,
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
    stats: RecomputeStats,
    started: bool,
    /// Alias addresses this node advertises in MIDs (usually empty).
    pub mid_aliases: Vec<NodeId>,
    /// Neighbors barred from MPR selection (treated as `WILL_NEVER`),
    /// regardless of their advertised willingness. The trust-enabled
    /// detector populates this with condemned intruders — the CAP-OLSR
    /// style response the paper's related work describes ("if the
    /// resulting trust is lower than a given threshold, then I is excluded
    /// from MPRs").
    excluded_mprs: std::collections::BTreeSet<NodeId>,
    /// Reused wire-encode scratch: transmissions allocate only the frame.
    wire_scratch: Vec<u8>,
    /// Reused wire-decode buffers (see [`DecodeArena`]): per-reception
    /// decoding allocates nothing once warm.
    decode_arena: DecodeArena,
    /// Reused MPR-selection scratch (see [`MprWorkspace`]).
    mpr_ws: MprWorkspace,
    /// Reused MPR candidate buffers (see [`CandidatePool`]).
    cand_pool: CandidatePool,
    /// Reused MPR output buffer, swapped with `mprs` on change.
    mpr_scratch: Vec<NodeId>,
    /// Reused 2-hop target buffer for MPR selection.
    targets_scratch: Vec<NodeId>,
    /// Reused symmetric-neighbor buffer, swapped with `prev_sym` on flush.
    sym_scratch: Vec<NodeId>,
    /// Reused route-calculation scratch (see [`RoutingWorkspace`]).
    route_ws: RoutingWorkspace,
    /// Reused routing-table double buffer, swapped with `routes` on change.
    routes_scratch: RoutingTable,
    /// Memoised avoid-route tables, at most [`AVOID_MEMO_SLOTS`].
    avoid_memo: Vec<AvoidRoutes>,
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
            ifaces: InterfaceAssociationSet::default(),
            routes: RoutingTable::default(),
            prev_sym: Vec::new(),
            ansn: 0,
            last_advertised: Vec::new(),
            msg_seq: SequenceNumber(0),
            pkt_seq: SequenceNumber(0),
            inbox: Vec::new(),
            tc_emissions: 0,
            flood: FloodStats::default(),
            flags: ChangeFlags::default(),
            debounce_armed: false,
            stats: RecomputeStats::default(),
            started: false,
            mid_aliases: Vec::new(),
            excluded_mprs: std::collections::BTreeSet::new(),
            wire_scratch: Vec::new(),
            decode_arena: DecodeArena::default(),
            mpr_ws: MprWorkspace::default(),
            cand_pool: CandidatePool::default(),
            mpr_scratch: Vec::new(),
            targets_scratch: Vec::new(),
            sym_scratch: Vec::new(),
            route_ws: RoutingWorkspace::default(),
            routes_scratch: RoutingTable::default(),
            avoid_memo: Vec::new(),
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

    /// Mutable access to the behaviour hooks.
    pub fn hooks_mut(&mut self) -> &mut H {
        &mut self.hooks
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

    /// The 1-hop neighbor set (with willingness).
    pub fn neighbor_set(&self) -> &NeighborSet {
        &self.neighbors
    }

    /// Drains data payloads addressed to this node.
    pub fn take_inbox(&mut self) -> Vec<ReceivedData> {
        std::mem::take(&mut self.inbox)
    }

    /// Bars `addr` from this node's MPR selection (it is treated as
    /// `WILL_NEVER` from now on). Takes effect at the next recomputation.
    pub fn exclude_from_mprs(&mut self, addr: NodeId) {
        if self.excluded_mprs.insert(addr) {
            self.flags.nbr = true;
        }
    }

    /// Lifts an MPR exclusion.
    pub fn readmit_to_mprs(&mut self, addr: NodeId) {
        if self.excluded_mprs.remove(&addr) {
            self.flags.nbr = true;
        }
    }

    /// The neighbors currently barred from MPR selection.
    pub fn excluded_mprs(&self) -> Vec<NodeId> {
        self.excluded_mprs.iter().copied().collect()
    }

    /// `true` once `on_start` ran.
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// Recompute-pipeline counters (flushes vs actual MPR/BFS executions).
    pub fn recompute_stats(&self) -> RecomputeStats {
        self.stats
    }

    /// Flood-frame accounting: TCs originated per [`FloodScope`] ring and
    /// TCs this node re-flooded for others — the quantity fisheye scoping
    /// attacks (classic flooding books everything into ring 0) — and the
    /// flood copies of any kind it declined to retransmit, per reason.
    pub fn flood_stats(&self) -> &FloodStats {
        &self.flood
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
        let mut pool = CandidatePool::default();
        fill_mpr_candidates(
            &mut pool,
            &self.two_hop,
            &self.neighbors,
            &self.excluded_mprs,
            self.id,
            &sym,
            now,
        );
        crate::mpr::select_mprs(pool.candidates(), &targets)
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

    fn transmit(&mut self, ctx: &mut Context<'_>, messages: Vec<Message>) {
        self.pkt_seq = self.pkt_seq.next();
        let packet = Packet { seq: self.pkt_seq, messages };
        ctx.broadcast(encode_packet_into(&packet, &mut self.wire_scratch));
    }

    fn unicast(&mut self, ctx: &mut Context<'_>, to: NodeId, messages: Vec<Message>) {
        self.pkt_seq = self.pkt_seq.next();
        let packet = Packet { seq: self.pkt_seq, messages };
        ctx.send(to, encode_packet_into(&packet, &mut self.wire_scratch));
    }

    /// Builds the HELLO this node would send at `now` (before hooks).
    pub fn build_hello(&self, now: SimTime) -> HelloMessage {
        let mut sym = Vec::new();
        let mut sym_mpr = Vec::new();
        let mut asym = Vec::new();
        let mut lost = Vec::new();
        for tuple in self.links.iter() {
            if tuple.until <= now {
                // A wholly expired tuple is semantically purged, whether or
                // not the sweep has physically removed it yet: advertising
                // it would make HELLO content depend on purge timing.
                continue;
            }
            match tuple.status(now) {
                LinkStatus::Symmetric => {
                    if self.mprs.contains(&tuple.neighbor) {
                        sym_mpr.push(tuple.neighbor);
                    } else {
                        sym.push(tuple.neighbor);
                    }
                }
                LinkStatus::Asymmetric => asym.push(tuple.neighbor),
                LinkStatus::Lost => lost.push(tuple.neighbor),
            }
        }
        let mut groups = Vec::new();
        if !sym.is_empty() {
            groups.push(LinkGroup {
                code: LinkCode::new(LinkType::Sym, NeighborType::Sym),
                addrs: sym,
            });
        }
        if !sym_mpr.is_empty() {
            groups.push(LinkGroup {
                code: LinkCode::new(LinkType::Sym, NeighborType::Mpr),
                addrs: sym_mpr,
            });
        }
        if !asym.is_empty() {
            groups.push(LinkGroup {
                code: LinkCode::new(LinkType::Asym, NeighborType::Not),
                addrs: asym,
            });
        }
        if !lost.is_empty() {
            groups.push(LinkGroup {
                code: LinkCode::new(LinkType::Lost, NeighborType::Not),
                addrs: lost,
            });
        }
        HelloMessage { willingness: Willingness::Default, groups }
    }

    fn emit_hello(&mut self, ctx: &mut Context<'_>) {
        // The HELLO groups SYM vs SYM_MPR by the materialized MPR set:
        // refresh it first so emission content never depends on recompute
        // scheduling (both modes materialize here, at the same instant).
        self.ensure_fresh(ctx);
        let now = ctx.now();
        let mut hello = self.build_hello(now);
        if let Some(w) = self.hooks.willingness_override() {
            hello.willingness = w;
        }
        self.hooks.on_hello_tx(&mut hello, now);
        ctx.log(LogRecord::HelloTx {
            sym: hello.symmetric_neighbors(),
            asym: hello.asymmetric_neighbors(),
        });
        let msg = Message {
            vtime: self.config.neighbor_hold_time,
            originator: self.id,
            ttl: 1,
            hop_count: 0,
            seq: self.next_msg_seq(),
            body: MessageBody::Hello(hello),
        };
        self.transmit(ctx, vec![msg]);
    }

    fn emit_tc(&mut self, ctx: &mut Context<'_>) {
        // TC content reads the selector sweep state and (for the richer
        // redundancy levels) the materialized MPR set: refresh first.
        self.ensure_fresh(ctx);
        let now = ctx.now();
        let selectors = self.selectors.addrs(now);
        if selectors.is_empty() && self.last_advertised.is_empty() {
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
        let mut advertised = selectors;
        match self.config.tc_redundancy {
            crate::types::TcRedundancy::MprSelectors => {}
            crate::types::TcRedundancy::SelectorsAndMprs => {
                advertised.extend(self.mprs.iter().copied());
            }
            crate::types::TcRedundancy::FullNeighborSet => {
                advertised.extend(self.links.symmetric_neighbors(now));
            }
        }
        advertised.sort_unstable();
        advertised.dedup();
        if advertised != self.last_advertised {
            self.ansn = self.ansn.wrapping_add(1);
            self.last_advertised = advertised.clone();
        }
        let mut tc = TcMessage { ansn: self.ansn, advertised };
        self.hooks.on_tc_tx(&mut tc, now);
        ctx.log(LogRecord::TcTx { ansn: tc.ansn, advertised: tc.advertised.clone() });
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
        self.transmit(ctx, vec![msg]);
    }

    fn emit_mid(&mut self, ctx: &mut Context<'_>) {
        if self.mid_aliases.is_empty() {
            return;
        }
        let msg = Message {
            vtime: self.config.topology_hold_time,
            originator: self.id,
            ttl: DEFAULT_TTL,
            hop_count: 0,
            seq: self.next_msg_seq(),
            body: MessageBody::Mid(MidMessage { aliases: self.mid_aliases.clone() }),
        };
        self.duplicates.record(
            self.id,
            self.msg_seq,
            true,
            ctx.now() + self.config.duplicate_hold_time,
            ctx.now(),
        );
        self.transmit(ctx, vec![msg]);
    }

    /// Sends `payload` to `dst` over the data plane. When `avoid` is set the
    /// first hop (and each forwarding hop) routes around that node — the
    /// investigation primitive of the paper's Algorithm 1.
    ///
    /// Returns `false` (and logs `DATA_NO_ROUTE`) when no admissible route
    /// exists.
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
        let next = self.next_hop_for(dst, avoid, now);
        let Some(next) = next else {
            ctx.log(LogRecord::DataNoRoute { dst });
            return false;
        };
        ctx.log(LogRecord::DataTx { dst, next_hop: next });
        let msg = Message {
            vtime: self.config.neighbor_hold_time,
            originator: self.id,
            ttl: DATA_TTL,
            hop_count: 0,
            seq: self.next_msg_seq(),
            body: MessageBody::Data(DataMessage { src: self.id, dst, avoid, payload }),
        };
        self.unicast(ctx, next, vec![msg]);
        true
    }

    /// The next hop toward `dst`, routing around `avoid` when set. Callers
    /// must [`ensure_fresh`](Self::ensure_fresh) first: the avoid memo is
    /// keyed on the route generation that call settles.
    fn next_hop_for(&mut self, dst: NodeId, avoid: Option<NodeId>, now: SimTime) -> Option<NodeId> {
        match avoid {
            None => self.routes.next_hop(dst),
            Some(avoided) if dst == avoided => None,
            Some(avoided) => self.avoid_routes(avoided, now).next_hop(dst),
        }
    }

    /// The routing table around `avoided` for the current route
    /// generation, from the memo or freshly computed into a stale entry's
    /// allocation. A miss re-runs only the BFS over the adjacency the
    /// generation's main route run left in `route_ws`.
    fn avoid_routes(&mut self, avoided: NodeId, now: SimTime) -> &RoutingTable {
        self.stats.avoid_lookups += 1;
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
        RoutingTable::reroute_avoiding_into(
            &mut self.route_ws,
            &mut entry.table,
            generation,
            self.id,
            &self.prev_sym,
            &self.two_hop,
            &self.topology,
            now,
            avoided,
        );
        &entry.table
    }

    // ---- reception ------------------------------------------------------

    fn process_hello(&mut self, ctx: &mut Context<'_>, originator: NodeId, hello: &HelloMessage) {
        let now = ctx.now();
        let hold = now + self.config.neighbor_hold_time;
        let claimed_sym = hello.symmetric_neighbors();
        let claimed_asym = hello.asymmetric_neighbors();
        ctx.log(LogRecord::HelloRx {
            from: originator,
            willingness: hello.willingness,
            sym: Box::from(&claimed_sym[..]),
            asym: Box::from(&claimed_asym[..]),
        });

        // Link sensing: hearing them refreshes the asym validity; being
        // listed by them (heard in both directions) makes it symmetric.
        // A tuple whose expiry already passed is semantically purged — its
        // previous status is `None`, whichever mode got to the sweep first.
        let heard_us = claimed_sym.contains(&self.id) || claimed_asym.contains(&self.id);
        let before = self.links.get(originator).filter(|t| t.until > now).map(|t| t.status(now));
        self.links.upsert(LinkTuple {
            neighbor: originator,
            sym_until: if heard_us { hold } else { SimTime::ZERO },
            asym_until: hold,
            until: hold,
        });
        // An explicit LOST listing tears the symmetry down immediately.
        let lost_us = hello
            .groups
            .iter()
            .any(|g| g.code.link == LinkType::Lost && g.addrs.contains(&self.id));
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
            match after {
                Some(LinkStatus::Symmetric) => {
                    ctx.log(LogRecord::LinkSymmetric { neighbor: originator })
                }
                Some(LinkStatus::Asymmetric) => {
                    ctx.log(LogRecord::LinkAsymmetric { neighbor: originator })
                }
                _ => {}
            }
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
            for &th in &claimed_sym {
                if th != self.id && self.two_hop.upsert(originator, th, hold, now) {
                    self.flags.nbr = true;
                    ctx.log(LogRecord::TwoHopAdded { via: originator, addr: th });
                }
            }
        }

        // MPR selector set: did they pick us? Only a HELLO that sustains a
        // live symmetric link can (re)assert selection.
        if hello.mpr_neighbors().contains(&self.id) && heard_us && !lost_us {
            if self.selectors.upsert(originator, hold, now) {
                ctx.log(LogRecord::MprSelectorAdded { addr: originator });
            }
        } else if self.selectors.remove(originator, now) {
            ctx.log(LogRecord::MprSelectorLost { addr: originator });
        }
    }

    fn process_tc(&mut self, ctx: &mut Context<'_>, msg: &Message, tc: &TcMessage, from: NodeId) {
        let now = ctx.now();
        ctx.log(LogRecord::TcRx {
            originator: msg.originator,
            sender: from,
            ansn: tc.ansn,
            advertised: Box::from(&tc.advertised[..]),
        });
        let until = now + msg.vtime;
        if self.topology.apply_tc(msg.originator, tc.ansn, &tc.advertised, until, now) {
            self.flags.topo = true;
        }
    }

    /// The header-only forwarding gates of the default forwarding
    /// algorithm (§3.4), after the duplicate check.
    fn flood_gate(&mut self, from: NodeId, ttl: u8, now: SimTime) -> Result<(), SuppressReason> {
        if ttl <= 1 {
            return Err(SuppressReason::TtlExpired);
        }
        let sender_main = self.ifaces.main_of(from, now);
        if !self.links.is_symmetric(sender_main, now) {
            return Err(SuppressReason::UnknownSender);
        }
        // Default forwarding algorithm: retransmit only if the sender
        // selected us as its MPR.
        if !self.selectors.contains(sender_main, now) {
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

    /// Retransmits a message that passed every gate — or lets a drop
    /// attacker swallow it.
    fn forward_approved(
        &mut self,
        ctx: &mut Context<'_>,
        msg: &Message,
        from: NodeId,
        kind: MessageKind,
        dup_until: SimTime,
        now: SimTime,
    ) {
        if !self.hooks.should_forward(msg, from) {
            // A drop attacker stays silent: no log line either — its own
            // logs would incriminate it. The *absence* of forwarding is what
            // neighbors can observe (paper evidence E2).
            self.duplicates.record(msg.originator, msg.seq, true, dup_until, now);
            return;
        }
        let mut fwd = msg.clone();
        fwd.ttl -= 1;
        fwd.hop_count += 1;
        self.hooks.on_forward(&mut fwd, from);
        self.duplicates.record(msg.originator, msg.seq, true, dup_until, now);
        if kind == MessageKind::Tc {
            self.flood.forwarded += 1;
        }
        ctx.log(LogRecord::Forwarded { originator: msg.originator, kind, seq: msg.seq.0, from });
        self.transmit(ctx, vec![fwd]);
    }

    fn process_data(
        &mut self,
        ctx: &mut Context<'_>,
        msg: &Message,
        data: &DataMessage,
        from: NodeId,
    ) {
        let now = ctx.now();
        if data.dst == self.id {
            ctx.log(LogRecord::DataRx { src: data.src });
            self.inbox.push(ReceivedData { src: data.src, at: now, payload: data.payload.clone() });
            return;
        }
        if msg.ttl <= 1 {
            return; // silently dies, like an expired IP packet
        }
        if !self.hooks.should_forward_data(data, from) {
            return; // black hole: swallowed without trace
        }
        // Same contract as `send_data`: route from fresh state.
        self.ensure_fresh(ctx);
        let next = self.next_hop_for(data.dst, data.avoid, now);
        let Some(next) = next else {
            ctx.log(LogRecord::DataNoRoute { dst: data.dst });
            return;
        };
        ctx.log(LogRecord::DataForwarded { src: data.src, dst: data.dst, next_hop: next });
        let mut fwd = msg.clone();
        fwd.ttl -= 1;
        fwd.hop_count += 1;
        self.unicast(ctx, next, vec![fwd]);
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
    /// (validation without materialization) and materializes message
    /// bodies only when they will actually be processed or retransmitted.
    /// A malformed frame is rejected whole, before any of its messages is
    /// acted on. Duplicate flood copies are suppressed from the message
    /// header alone; their bodies are never decoded.
    fn handle_frame_view(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        frame: &Bytes,
        arena: &mut DecodeArena,
    ) {
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
            let kind = match mv.kind {
                MessageType::Hello => {
                    let msg = materialize_message(arena, frame, &mv);
                    if let MessageBody::Hello(h) = &msg.body {
                        self.process_hello(ctx, msg.originator, h);
                    }
                    arena.recycle_message(msg);
                    continue;
                }
                MessageType::Data => {
                    let msg = materialize_message(arena, frame, &mv);
                    if let MessageBody::Data(d) = &msg.body {
                        self.process_data(ctx, &msg, d, from);
                    }
                    arena.recycle_message(msg);
                    continue;
                }
                MessageType::Tc => MessageKind::Tc,
                MessageType::Mid => MessageKind::Mid,
                MessageType::Hna => MessageKind::Hna,
            };
            // Flooded control traffic. One duplicate-set probe answers both
            // "seen before?" and "already retransmitted?", and already
            // applies the `forwarded = false` record for suppressed copies.
            let dup_until = now + self.config.duplicate_hold_time;
            match self.duplicates.probe_flood(mv.originator, mv.seq, dup_until, now) {
                DupProbe::Retransmitted => {
                    // Already retransmitted once: suppressed on the header
                    // alone, body never materialized.
                    self.suppress_forward(SuppressReason::Duplicate);
                }
                DupProbe::SeenFresh => {
                    // Seen but not yet forwarded: processing is skipped, but
                    // the forwarding decision is still live. Materialize only
                    // if the gates approve.
                    match self.flood_gate(from, mv.ttl, now) {
                        Err(reason) => {
                            self.suppress_forward(reason);
                            self.duplicates.record(mv.originator, mv.seq, false, dup_until, now);
                        }
                        Ok(()) => {
                            let msg = materialize_message(arena, frame, &mv);
                            self.forward_approved(ctx, &msg, from, kind, dup_until, now);
                            arena.recycle_message(msg);
                        }
                    }
                }
                DupProbe::New => {
                    let msg = materialize_message(arena, frame, &mv);
                    match &msg.body {
                        MessageBody::Tc(t) => self.process_tc(ctx, &msg, t, from),
                        MessageBody::Mid(m) => {
                            ctx.log(LogRecord::MidRx {
                                originator: msg.originator,
                                aliases: Box::from(&m.aliases[..]),
                            });
                            let until = now + msg.vtime;
                            for &alias in &m.aliases {
                                self.ifaces.upsert(alias, msg.originator, until);
                            }
                        }
                        MessageBody::Hna(h) => {
                            ctx.log(LogRecord::HnaRx {
                                originator: msg.originator,
                                networks: Box::from(&h.networks[..]),
                            });
                        }
                        _ => unreachable!("flooded kinds are Tc/Mid/Hna"),
                    }
                    match self.flood_gate(from, mv.ttl, now) {
                        Err(reason) => {
                            self.suppress_forward(reason);
                            self.duplicates.record(mv.originator, mv.seq, false, dup_until, now);
                        }
                        Ok(()) => self.forward_approved(ctx, &msg, from, kind, dup_until, now),
                    }
                    arena.recycle_message(msg);
                }
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

        // Expiry sweeps. Link-tuple removals cannot change the symmetric
        // set (an expired tuple was already non-symmetric); two-hop and
        // topology removals invalidate MPR/route inputs.
        for dead in self.links.purge(now) {
            ctx.log(LogRecord::LinkLost { neighbor: dead });
        }
        let dead_pairs = self.two_hop.purge(now);
        if !dead_pairs.is_empty() {
            nbr_changed = true;
            for (via, addr) in dead_pairs {
                ctx.log(LogRecord::TwoHopLost { via, addr });
            }
        }
        for addr in self.selectors.purge(now) {
            ctx.log(LogRecord::MprSelectorLost { addr });
        }
        if !self.topology.purge(now).is_empty() {
            topo_changed = true;
        }
        self.ifaces.purge(now);

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
                    if self.selectors.remove(*n, now) {
                        ctx.log(LogRecord::MprSelectorLost { addr: *n });
                    }
                }
            }
        }
        self.prev_sym = sym;
        self.sym_scratch = prev; // recycle the allocation

        // MPR selection: only when the 1/2-hop neighborhood changed. The
        // selection is a pure function of its inputs, so skipping it on
        // unchanged inputs is exact, not an approximation.
        if nbr_changed {
            self.stats.mpr_runs += 1;
            self.two_hop.two_hop_addrs_into(
                now,
                self.id,
                &self.prev_sym,
                &mut self.targets_scratch,
            );
            fill_mpr_candidates(
                &mut self.cand_pool,
                &self.two_hop,
                &self.neighbors,
                &self.excluded_mprs,
                self.id,
                &self.prev_sym,
                now,
            );
            crate::mpr::select_mprs_with(
                &mut self.mpr_ws,
                self.cand_pool.candidates(),
                &self.targets_scratch,
                &mut self.mpr_scratch,
            );
            if self.mpr_scratch != self.mprs {
                ctx.log(LogRecord::MprSet { mprs: Box::from(&self.mpr_scratch[..]) });
                std::mem::swap(&mut self.mprs, &mut self.mpr_scratch);
            }
        }

        // Routing table: only when the neighborhood or the topology
        // changed (same exactness argument).
        if nbr_changed || topo_changed {
            self.stats.route_runs += 1;
            RoutingTable::compute_avoiding_into(
                &mut self.route_ws,
                &mut self.routes_scratch,
                self.id,
                &self.prev_sym,
                &self.two_hop,
                &self.topology,
                now,
                None,
            );
            self.route_ws.stamp(self.stats.route_runs);
            let diff = self.routes.diff(&self.routes_scratch);
            for r in &diff.added {
                ctx.log(LogRecord::RouteAdded { dest: r.dest, next_hop: r.next_hop, hops: r.hops });
            }
            for r in &diff.changed {
                ctx.log(LogRecord::RouteChanged {
                    dest: r.dest,
                    next_hop: r.next_hop,
                    hops: r.hops,
                });
            }
            for d in &diff.removed {
                ctx.log(LogRecord::RouteLost { dest: *d });
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
        self.started = true;
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
                self.emit_mid(ctx);
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
        let mut arena = std::mem::take(&mut self.decode_arena);
        self.handle_frame_view(ctx, from, &payload, &mut arena);
        self.decode_arena = arena;
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

/// Builds the MPR candidate set for `me` into `pool` (cleared first): one
/// candidate per symmetric neighbor, covering the strict 2-hop targets
/// reachable through it, with `WILL_NEVER` forced for excluded intruders.
/// The single definition both the hot path ([`OlsrNode::ensure_fresh`])
/// and the pure query ([`OlsrNode::effective_mprs`]) share — the
/// equivalence suite compares materialized against effective state, so
/// the two must be the same computation by construction. `sym` must be
/// sorted ascending.
fn fill_mpr_candidates(
    pool: &mut CandidatePool,
    two_hop: &TwoHopSet,
    neighbors: &NeighborSet,
    excluded: &std::collections::BTreeSet<NodeId>,
    me: NodeId,
    sym: &[NodeId],
    now: SimTime,
) {
    pool.clear();
    for &n in sym {
        let willingness = if excluded.contains(&n) {
            Willingness::Never
        } else {
            neighbors.get(n).map_or(Willingness::Default, |t| t.willingness)
        };
        let covers = pool.push(n, willingness);
        covers
            .extend(two_hop.iter_via(n, now).filter(|t| *t != me && sym.binary_search(t).is_err()));
        pool.seal_last();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_packet;
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
    fn audit_log_records_neighborhood_events() {
        let mut sim = line_sim(3, 100.0, 150.0, 23);
        sim.run_for(SimDuration::from_secs(10));
        let log = sim.log(NodeId(1));
        let mut saw_hello_rx = false;
        let mut saw_nbr_add = false;
        let mut saw_mpr_selector = false;
        for line in log.lines() {
            if line.starts_with("HELLO_RX") {
                saw_hello_rx = true;
            }
            if line.starts_with("NBR_ADD") {
                saw_nbr_add = true;
            }
            if line.starts_with("MPR_SELECTOR_ADD") {
                saw_mpr_selector = true;
            }
            // Every rendered line must be parseable (external log consumers
            // depend on it).
            trustlink_sim::record::parse_line(&line)
                .unwrap_or_else(|e| panic!("unparseable log line `{line}`: {e}"));
        }
        assert!(saw_hello_rx && saw_nbr_add);
        // The middle node of a 3-line is everyone's MPR.
        assert!(saw_mpr_selector);
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
    /// as mutated just before retransmission.
    #[derive(Default)]
    struct RecordForwards {
        seen: Vec<(u8, u8)>,
    }

    impl crate::hooks::OlsrHooks for RecordForwards {
        fn on_forward(&mut self, msg: &mut Message, _from: NodeId) {
            self.seen.push((msg.ttl, msg.hop_count));
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

    fn mid_lines(sim: &trustlink_sim::Simulator, prefix: &str, seq: u16) -> usize {
        let needle = format!("seq={seq}");
        sim.log(NodeId(1)).lines().filter(|l| l.starts_with(prefix) && l.contains(&needle)).count()
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
        assert_eq!(mid_lines(&sim, "FWD ", 900), 0);
    }

    #[test]
    fn forward_flooded_decrements_ttl_and_increments_hop_count() {
        let mut sim = converged_line_with_recorder(43);
        inject_tc(&mut sim, 901, 5, 2);
        let mid = sim.app_as::<OlsrNode<RecordForwards>>(NodeId(1)).unwrap();
        assert_eq!(mid.hooks().seen, vec![(4, 3)], "re-flood must carry ttl-1, hop_count+1");
        assert_eq!(mid_lines(&sim, "FWD ", 901), 1);
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
        inject_tc(&mut sim, 902, 8, 0);
        let before = sim.app_as::<OlsrNode<RecordForwards>>(NodeId(1)).unwrap().flood.clone();
        inject_tc(&mut sim, 902, 8, 0); // the same (originator, seq) again
        let mid = sim.app_as::<OlsrNode<RecordForwards>>(NodeId(1)).unwrap();
        assert_eq!(mid.hooks().seen.len(), 1, "duplicate flood was retransmitted");
        assert_eq!(mid_lines(&sim, "FWD ", 902), 1);
        assert_eq!(
            suppressed_since(&before, &mid.flood),
            [1, 0, 0, 0],
            "second copy must be suppressed, once, as a duplicate"
        );
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
        let next = a.next_hop_for(NodeId(3), Some(NodeId(1)), now);
        assert_eq!(next, Some(NodeId(2)));
        let next_none = a.next_hop_for(NodeId(1), Some(NodeId(1)), now);
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
                let got = self.node.next_hop_for(dst, Some(x), now);
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
            stats.avoid_runs += s.avoid_runs;
        }
        assert!(saw_injected, "the forged TC never reached a topology set");
        assert!(checks > 50_000, "only {checks} checks");
        // Both memo paths ran: hits within a generation, recomputation
        // after every route run.
        assert!(stats.avoid_runs > stats.route_runs, "{stats:?}");
        assert!(stats.avoid_runs < stats.avoid_lookups, "{stats:?}");
    }
}
