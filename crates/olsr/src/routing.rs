//! Routing table calculation (RFC 3626 §10).
//!
//! Routes are shortest paths (hop count) over the union of:
//! * this node's symmetric 1-hop links, and
//! * the topology tuples learned from TCs (`last_hop → dest` edges).
//!
//! [`RoutingTable::compute_avoiding`] additionally excludes one node from
//! the graph — the primitive the paper's investigation uses so that
//! requests/answers "should not go through … the suspicious MPR".
//! [`RoutingWorkspace::tree_route`] tells when the main route already
//! avoids that node, so the avoid computation runs only for destinations
//! behind it.

use trustlink_sim::{NodeId, SimTime};

use crate::idhash::IdHash;
use crate::state::{TopologySet, TwoHopSet};

/// Unvisited marker in the BFS distance array.
const UNVISITED: u32 = u32::MAX;

/// Free-entry marker in the slot half of an id→slot table entry: ids span
/// all of `u32`, slot numbers never reach `u32::MAX`.
const FREE: u32 = u32::MAX;

/// Smallest id→slot table, in entries (a power of two).
const MIN_TABLE: usize = 64;

/// Reusable scratch state for [`RoutingTable::compute_avoiding_into`].
///
/// The workspace interns the node ids it meets into compact slots through
/// an open-addressing id→slot table, keeps one adjacency list per slot
/// and runs the BFS over slots. Time and memory therefore scale with the
/// edges the node has heard, never with the numeric size of an id: a
/// forged `NodeId(u32::MAX)` costs one slot like any other.
///
/// The interner persists across computations, so a steady neighborhood
/// re-uses its slots and its id-sorted slot order (the routes come out
/// sorted by destination without a per-run sort). Once the ids interned
/// outnumber about twice those the last computation still met, it starts
/// over, so ids that are no longer heard do not pile up. Every buffer
/// keeps its capacity, so the steady-state path allocates nothing.
///
/// After a main (`avoid = None`) computation the adjacency stays in place.
/// Once [`stamp`](Self::stamp)ed with a route generation, it serves
/// [`RoutingTable::reroute_avoiding_into`] for that generation without
/// being rebuilt, and [`tree_route`](Self::tree_route) tells from its BFS
/// tree which routes around a node are the main routes themselves. The
/// tree costs one parent slot per interned id, recorded only from the
/// first such query on.
#[derive(Debug, Clone, Default)]
pub struct RoutingWorkspace {
    /// Open-addressing id→slot table of `(id, slot)` entries, [`FREE`]
    /// slot when unused; a power of two at most half full.
    table: Vec<(u32, u32)>,
    /// The table's hash function, drawn at random when the workspace
    /// first builds its table: ids arrive off the air, and a fixed
    /// function would let a sender pick ids that all share one probe run.
    hash: IdHash,
    /// Slot → id.
    ids: Vec<NodeId>,
    /// Every slot, ascending by id; rebuilt when new ids were interned.
    by_id: Vec<u32>,
    /// Out-edges per slot in insertion order, which is what fixes the BFS
    /// tie-breaks independently of id values. Emptied (capacity kept) at
    /// the start of each computation.
    adj: Vec<Vec<u32>>,
    /// Per slot, the BFS hop count ([`UNVISITED`] when unreached) and the
    /// first-hop slot toward it.
    reach: Vec<(u32, u32)>,
    /// BFS visit order; the frontier is `queue[head..]`.
    queue: Vec<u32>,
    /// The main computation's BFS parent of each slot, [`UNVISITED`] for
    /// `me` and unreached slots; empty unless that computation recorded it.
    /// Masked searches leave it alone.
    parent: Vec<u32>,
    /// Whether main computations record `parent`: set by the first
    /// [`tree_route`](Self::tree_route) query.
    record_parents: bool,
    /// `(me, me's slot)` while `adj` holds the graph of a main computation.
    main: Option<(NodeId, u32)>,
    /// The route generation [`stamp`](Self::stamp) gave that graph.
    generation: Option<u64>,
}

/// How the main BFS tree's route to a destination stands toward a node to
/// be avoided: the answer of [`RoutingWorkspace::tree_route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeRoute {
    /// The main route to the destination does not pass the avoided node,
    /// or there is none: the route around that node is the main route, or
    /// equally absent.
    Avoids,
    /// The main route to the destination passes the avoided node, or ends
    /// at it.
    Passes,
    /// The workspace holds no main graph stamped with the asked
    /// generation.
    Unknown,
}

impl RoutingWorkspace {
    /// Empties the adjacency lists for a new computation. The interner
    /// starts over when it holds more than about twice the ids the
    /// previous computation met (slots with out-edges, plus the sym
    /// neighbors and `me`, which may have none).
    fn begin(&mut self, sym: usize) {
        let mut live = sym + 1;
        for list in &mut self.adj {
            live += usize::from(!list.is_empty());
            list.clear();
        }
        if self.table.is_empty() || self.ids.len() > 2 * live + MIN_TABLE {
            let len = (live * 2).next_power_of_two().max(MIN_TABLE);
            self.table.clear();
            self.table.resize(len, (0, FREE));
            self.hash = IdHash::random();
            self.ids.clear();
            self.by_id.clear();
            self.adj.truncate(live);
        }
    }

    /// Stamps the adjacency the last computation built with the route
    /// generation `generation`, when that computation was a main
    /// (`avoid = None`) one; otherwise the workspace stays unstamped.
    pub fn stamp(&mut self, generation: u64) {
        self.generation = self.main.map(|_| generation);
    }

    /// Whether the main route to `dst` in the BFS tree of the main graph
    /// stamped with `generation` passes `avoided`, found by walking BFS
    /// parents from `dst` toward `me` (at most the route's hop count).
    ///
    /// Main computations record no tree until the first query: it reruns
    /// the stamped graph's BFS to record one, and every later main
    /// computation records its own. A workspace never asked pays nothing.
    ///
    /// [`TreeRoute::Avoids`] is exact: masking a vertex only delays its
    /// descendants in the BFS queue, since adjacency order is fixed, so
    /// every vertex outside its subtree keeps its distance, its first
    /// discoverer and its first hop, and an unreached one stays unreached.
    /// The route [`RoutingTable::compute_avoiding`] gives around `avoided`
    /// is then the main route to `dst`, or equally absent. Avoiding `me`
    /// removes nothing, and a reached `dst` equal to `avoided` passes.
    ///
    /// [`TreeRoute::Unknown`] when the workspace is unstamped or stamped
    /// with another generation.
    pub fn tree_route(&mut self, generation: u64, dst: NodeId, avoided: NodeId) -> TreeRoute {
        let Some((_, me_slot)) = self.main else {
            return TreeRoute::Unknown;
        };
        if self.generation != Some(generation) {
            return TreeRoute::Unknown;
        }
        if self.parent.is_empty() {
            self.record_parents = true;
            self.parent.resize(self.ids.len(), UNVISITED);
            self.search(me_slot, None, true);
        }
        let (Some(mut v), Some(avoided)) = (self.find(dst), self.find(avoided)) else {
            return TreeRoute::Avoids;
        };
        loop {
            let up = self.parent[v as usize];
            // Reached `me`, or `dst` is unreached.
            if v == me_slot || up == UNVISITED {
                return TreeRoute::Avoids;
            }
            if v == avoided {
                return TreeRoute::Passes;
            }
            v = up;
        }
    }

    /// BFS from `me_slot` over `adj`, never entering `masked`. With
    /// `record`, each reached slot's parent goes into `parent`, sized by
    /// the caller.
    fn search(&mut self, me_slot: u32, masked: Option<u32>, record: bool) {
        let RoutingWorkspace { ids, adj, reach, queue, parent, .. } = self;
        reach.clear();
        reach.resize(ids.len(), (UNVISITED, me_slot));
        queue.clear();
        // A masked slot looks visited, so no edge leads into it.
        if let Some(m) = masked {
            reach[m as usize].0 = 0;
        }
        reach[me_slot as usize].0 = 0;
        queue.push(me_slot);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let (du, hop) = reach[u as usize];
            for &v in &adj[u as usize] {
                let r = &mut reach[v as usize];
                if r.0 != UNVISITED {
                    continue;
                }
                *r = (du + 1, if u == me_slot { v } else { hop });
                if record {
                    parent[v as usize] = u;
                }
                queue.push(v);
            }
        }
        if let Some(m) = masked {
            reach[m as usize].0 = UNVISITED;
        }
    }

    /// The slots the last search reached, `me_slot` aside, written into
    /// `out` in id order.
    fn emit(&mut self, out: &mut RoutingTable, me_slot: u32) {
        let RoutingWorkspace { ids, by_id, reach, .. } = self;
        let n = ids.len();
        if by_id.len() != n {
            by_id.clear();
            by_id.extend(0..n as u32);
            by_id.sort_unstable_by_key(|&s| ids[s as usize]);
        }
        out.routes.clear();
        for &s in by_id.iter() {
            let (hops, hop) = reach[s as usize];
            if hops != UNVISITED && s != me_slot {
                let next_hop = ids[hop as usize];
                out.routes.push(Route { dest: ids[s as usize], next_hop, hops });
            }
        }
    }

    /// The slot of `id` if it is interned.
    fn find(&self, id: NodeId) -> Option<u32> {
        let mask = self.table.len().checked_sub(1)?;
        let mut i = self.hash.bucket(u64::from(id.0), self.table.len());
        loop {
            let (key, slot) = self.table[i];
            if slot == FREE {
                return None;
            }
            if key == id.0 {
                return Some(slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot of `id`, interning it on first sight.
    fn slot(&mut self, id: NodeId) -> u32 {
        let mask = self.table.len() - 1;
        let mut i = self.hash.bucket(u64::from(id.0), self.table.len());
        loop {
            let (key, slot) = self.table[i];
            if slot == FREE {
                return self.intern(i, id);
            }
            if key == id.0 {
                return slot;
            }
            i = (i + 1) & mask;
        }
    }

    /// Interns `id` into the free table entry `i`, doubling the table when
    /// it passes half full.
    #[cold]
    fn intern(&mut self, i: usize, id: NodeId) -> u32 {
        let slot = self.ids.len() as u32;
        self.table[i] = (id.0, slot);
        self.ids.push(id);
        if self.adj.len() < self.ids.len() {
            self.adj.push(Vec::new());
        }
        if self.ids.len() * 2 > self.table.len() {
            let len = self.table.len() * 2;
            self.table.clear();
            self.table.resize(len, (0, FREE));
            for (slot, &id) in self.ids.iter().enumerate() {
                let mut i = self.hash.bucket(u64::from(id.0), len);
                while self.table[i].1 != FREE {
                    i = (i + 1) & (len - 1);
                }
                self.table[i] = (id.0, slot as u32);
            }
        }
        slot
    }

    /// Adds the learned (non-link-sensed) link `a – b` as the edges
    /// `a → b` then `b → a`, filtering anything touching `me` and
    /// self-loops. `last` caches the previous `a`'s slot: both sets
    /// iterate grouped by their first id.
    fn push_relayed(&mut self, me: NodeId, last: &mut (NodeId, u32), a: NodeId, b: NodeId) {
        if a == me || b == me || a == b {
            return;
        }
        if last.0 != a {
            *last = (a, self.slot(a));
        }
        let (a, b) = (last.1, self.slot(b));
        self.adj[a as usize].push(b);
        self.adj[b as usize].push(a);
    }
}

/// One route entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Final destination.
    pub dest: NodeId,
    /// The symmetric 1-hop neighbor to hand the packet to.
    pub next_hop: NodeId,
    /// Total hop count.
    pub hops: u32,
}

/// A freshly computed routing table.
///
/// Backed by a `Vec<Route>` sorted by destination: lookups are binary
/// searches, iteration is a slice walk, and a table can be recomputed
/// *into* an existing allocation ([`RoutingTable::compute_avoiding_into`])
/// so the steady-state recompute path allocates nothing once warm.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingTable {
    routes: Vec<Route>, // sorted ascending by dest
}

impl RoutingTable {
    /// Computes the table for `me` from its symmetric neighbors, its 2-hop
    /// neighbor set and the topology set (breadth-first search — all edges
    /// cost one hop). Using the 2-hop set alongside TC-learned topology is
    /// RFC 3626 §10 steps 2–3.
    pub fn compute(
        me: NodeId,
        symmetric_neighbors: &[NodeId],
        two_hop: &TwoHopSet,
        topology: &TopologySet,
        now: SimTime,
    ) -> Self {
        Self::compute_avoiding(me, symmetric_neighbors, two_hop, topology, now, None)
    }

    /// Like [`RoutingTable::compute`] but treats `avoid` as nonexistent:
    /// no route will traverse or terminate at it.
    pub fn compute_avoiding(
        me: NodeId,
        symmetric_neighbors: &[NodeId],
        two_hop: &TwoHopSet,
        topology: &TopologySet,
        now: SimTime,
        avoid: Option<NodeId>,
    ) -> Self {
        let mut out = RoutingTable::default();
        Self::compute_avoiding_into(
            &mut RoutingWorkspace::default(),
            &mut out,
            me,
            symmetric_neighbors,
            two_hop,
            topology,
            now,
            avoid,
        );
        out
    }

    /// Fully allocation-free form: the scratch state lives in `ws` and the
    /// result is written into `out` (cleared first, capacity kept).
    /// Results are identical to [`RoutingTable::compute_avoiding`] for
    /// every input.
    #[allow(clippy::too_many_arguments)]
    pub fn compute_avoiding_into(
        ws: &mut RoutingWorkspace,
        out: &mut RoutingTable,
        me: NodeId,
        symmetric_neighbors: &[NodeId],
        two_hop: &TwoHopSet,
        topology: &TopologySet,
        now: SimTime,
        avoid: Option<NodeId>,
    ) {
        // Build adjacency: me -> neighbors, neighbor -> claimed 2-hop,
        // plus TC-learned topology edges. Edges *out of* `me` come only
        // from link sensing: a forged TC or HELLO mentioning this node must
        // never add a first hop that is not a verified symmetric neighbor
        // (the RFC's iterative calculation has the same property).
        ws.begin(symmetric_neighbors.len());
        let me_slot = ws.slot(me);
        for &n in symmetric_neighbors {
            if Some(n) != avoid && n != me {
                let n = ws.slot(n);
                ws.adj[me_slot as usize].push(n);
            }
        }
        let mut last = (me, me_slot);
        for pair in two_hop.iter(now) {
            if Some(pair.via) == avoid || Some(pair.two_hop) == avoid {
                continue;
            }
            ws.push_relayed(me, &mut last, pair.via, pair.two_hop);
        }
        for t in topology.iter(now) {
            if Some(t.last_hop) == avoid || Some(t.dest) == avoid {
                continue;
            }
            // TC edges are advertised by the MPR (last_hop); the RFC treats
            // them as usable in both directions for route calculation
            // because MPR selection requires a symmetric link.
            ws.push_relayed(me, &mut last, t.last_hop, t.dest);
        }

        ws.main = avoid.is_none().then_some((me, me_slot));
        ws.generation = None;
        ws.parent.clear();
        let record = ws.main.is_some() && ws.record_parents;
        if record {
            ws.parent.resize(ws.ids.len(), UNVISITED);
        }
        ws.search(me_slot, None, record);
        ws.emit(out, me_slot);
    }

    /// The table around `avoided` for route generation `generation`, written
    /// into `out`. When `ws` holds the main graph of `me` stamped with
    /// `generation`, only the BFS and the emit step run, over that graph
    /// with `avoided` masked out; otherwise this is
    /// [`compute_avoiding_into`](Self::compute_avoiding_into) with
    /// `Some(avoided)`. The caller must pass the inputs the stamped main
    /// computation read. Either way the result equals
    /// [`compute_avoiding`](Self::compute_avoiding): the avoid graph is the
    /// main graph minus one vertex, every vertex keeps its remaining
    /// out-edges in the same order, so the BFS breaks every tie the same
    /// way.
    #[allow(clippy::too_many_arguments)]
    pub fn reroute_avoiding_into(
        ws: &mut RoutingWorkspace,
        out: &mut RoutingTable,
        generation: u64,
        me: NodeId,
        symmetric_neighbors: &[NodeId],
        two_hop: &TwoHopSet,
        topology: &TopologySet,
        now: SimTime,
        avoided: NodeId,
    ) {
        match ws.main {
            Some((main_me, me_slot)) if main_me == me && ws.generation == Some(generation) => {
                // Avoiding `me` removes no edge: `me` has no in-edges.
                let masked = if avoided == me { None } else { ws.find(avoided) };
                ws.search(me_slot, masked, false);
                ws.emit(out, me_slot);
            }
            _ => Self::compute_avoiding_into(
                ws,
                out,
                me,
                symmetric_neighbors,
                two_hop,
                topology,
                now,
                Some(avoided),
            ),
        }
    }

    /// The route to `dest`, if any.
    pub fn route_to(&self, dest: NodeId) -> Option<&Route> {
        self.routes.binary_search_by_key(&dest, |r| r.dest).ok().map(|i| &self.routes[i])
    }

    /// The next hop toward `dest`, if any.
    pub fn next_hop(&self, dest: NodeId) -> Option<NodeId> {
        self.route_to(dest).map(|r| r.next_hop)
    }

    /// All routes, ascending by destination.
    pub fn iter(&self) -> impl Iterator<Item = &Route> {
        self.routes.iter()
    }

    /// Number of reachable destinations.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// `true` when nothing is reachable.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Routes that appeared or changed between `self` and `next` — used by
    /// the node to emit `ROUTE_*` audit-log lines. A single merge walk over
    /// the two destination-sorted tables; vanished destinations are
    /// skipped, since no record reports them.
    pub fn diff<'a>(&'a self, next: &'a RoutingTable) -> RoutingDiff {
        let mut added = Vec::new();
        let mut changed = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.routes.len() || j < next.routes.len() {
            match (self.routes.get(i), next.routes.get(j)) {
                (Some(old), Some(new)) if old.dest == new.dest => {
                    if old != new {
                        changed.push(*new);
                    }
                    i += 1;
                    j += 1;
                }
                (Some(old), Some(new)) if old.dest < new.dest => i += 1,
                (Some(_), Some(new)) => {
                    added.push(*new);
                    j += 1;
                }
                (Some(_), None) => i += 1,
                (None, Some(new)) => {
                    added.push(*new);
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        RoutingDiff { added, changed }
    }
}

/// The routes that appeared or changed between two routing tables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingDiff {
    /// Routes present only in the newer table.
    pub added: Vec<Route>,
    /// Routes whose next hop or hop count changed.
    pub changed: Vec<Route>,
}

impl RoutingDiff {
    /// `true` when no route appeared or changed.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.changed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(entries: &[(u32, u32)]) -> TopologySet {
        let mut set = TopologySet::default();
        for (i, &(last_hop, dest)) in entries.iter().enumerate() {
            // Distinct originators may repeat; use one ANSN per last_hop.
            let _ = i;
            set.apply_tc(NodeId(last_hop), 1, &[NodeId(dest)], SimTime::from_secs(1_000), now());
        }
        set
    }

    fn topo_multi(entries: &[(u32, &[u32])]) -> TopologySet {
        let mut set = TopologySet::default();
        for &(last_hop, dests) in entries {
            let dests: Vec<NodeId> = dests.iter().map(|&d| NodeId(d)).collect();
            set.apply_tc(NodeId(last_hop), 1, &dests, SimTime::from_secs(1_000), now());
        }
        set
    }

    fn now() -> SimTime {
        SimTime::from_secs(0)
    }

    fn no2h() -> TwoHopSet {
        TwoHopSet::default()
    }

    #[test]
    fn direct_neighbors_are_one_hop() {
        let table = RoutingTable::compute(
            NodeId(0),
            &[NodeId(1), NodeId(2)],
            &no2h(),
            &TopologySet::default(),
            now(),
        );
        assert_eq!(table.len(), 2);
        assert_eq!(table.route_to(NodeId(1)).unwrap().hops, 1);
        assert_eq!(table.next_hop(NodeId(2)), Some(NodeId(2)));
    }

    #[test]
    fn multi_hop_chain() {
        // 0 - 1 - 2 - 3 (line); TCs: 1 advertises 2, 2 advertises 3.
        let table = RoutingTable::compute(
            NodeId(0),
            &[NodeId(1)],
            &no2h(),
            &topo_multi(&[(1, &[2]), (2, &[3, 1])]),
            now(),
        );
        assert_eq!(table.route_to(NodeId(3)).unwrap().hops, 3);
        assert_eq!(table.next_hop(NodeId(3)), Some(NodeId(1)));
        assert_eq!(table.next_hop(NodeId(2)), Some(NodeId(1)));
    }

    #[test]
    fn shortest_path_wins() {
        // Two routes to 3: 0-1-3 and 0-2-4-3. BFS must give hops=2 via 1.
        let table = RoutingTable::compute(
            NodeId(0),
            &[NodeId(1), NodeId(2)],
            &no2h(),
            &topo_multi(&[(1, &[3]), (2, &[4]), (4, &[3])]),
            now(),
        );
        let r = table.route_to(NodeId(3)).unwrap();
        assert_eq!(r.hops, 2);
        assert_eq!(r.next_hop, NodeId(1));
    }

    #[test]
    fn avoidance_reroutes() {
        // Same two-path topology; avoiding node 1 forces the long way.
        let topo = topo_multi(&[(1, &[3]), (2, &[4]), (4, &[3])]);
        let table = RoutingTable::compute_avoiding(
            NodeId(0),
            &[NodeId(1), NodeId(2)],
            &no2h(),
            &topo,
            now(),
            Some(NodeId(1)),
        );
        let r = table.route_to(NodeId(3)).unwrap();
        assert_eq!(r.hops, 3);
        assert_eq!(r.next_hop, NodeId(2));
        // And node 1 itself is unroutable.
        assert!(table.route_to(NodeId(1)).is_none());
    }

    #[test]
    fn avoidance_can_disconnect() {
        // 0 - 1 - 2: avoiding 1 leaves 2 unreachable.
        let table = RoutingTable::compute_avoiding(
            NodeId(0),
            &[NodeId(1)],
            &no2h(),
            &topo(&[(1, 2)]),
            now(),
            Some(NodeId(1)),
        );
        assert!(table.is_empty());
    }

    #[test]
    fn unreachable_nodes_absent() {
        let table = RoutingTable::compute(
            NodeId(0),
            &[NodeId(1)],
            &no2h(),
            &topo_multi(&[(5, &[6])]), // disconnected island
            now(),
        );
        assert!(table.route_to(NodeId(6)).is_none());
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn expired_topology_ignored() {
        let mut set = TopologySet::default();
        set.apply_tc(NodeId(1), 1, &[NodeId(2)], SimTime::from_secs(5), now());
        let table =
            RoutingTable::compute(NodeId(0), &[NodeId(1)], &no2h(), &set, SimTime::from_secs(10));
        assert!(table.route_to(NodeId(2)).is_none());
    }

    #[test]
    fn diff_reports_changes() {
        let t1 = RoutingTable::compute(NodeId(0), &[NodeId(1)], &no2h(), &topo(&[(1, 2)]), now());
        let t2 = RoutingTable::compute(
            NodeId(0),
            &[NodeId(1), NodeId(3)],
            &no2h(),
            &TopologySet::default(),
            now(),
        );
        let diff = t1.diff(&t2);
        assert_eq!(diff.added.iter().map(|r| r.dest).collect::<Vec<_>>(), vec![NodeId(3)]);
        assert!(diff.changed.is_empty());
        // N2 became unreachable: the diff does not report it, the table
        // itself shows it gone.
        assert!(t1.route_to(NodeId(2)).is_some() && t2.route_to(NodeId(2)).is_none());
        assert!(t1.diff(&t1.clone()).is_empty());
        // A table that only lost destinations has nothing to report.
        assert!(t1.diff(&RoutingTable::default()).is_empty());
    }

    #[test]
    fn workspace_reuse_matches_fresh_computation() {
        // One workspace driven across different graphs (shrinking and
        // growing, with and without avoidance) must match the one-shot
        // API every time.
        let mut ws = RoutingWorkspace::default();
        let mut reused = RoutingTable::default();
        let big = topo_multi(&[(1, &[2, 3]), (2, &[4]), (4, &[3, 5]), (5, &[6])]);
        let small = topo(&[(1, 2)]);
        let sym_big = vec![NodeId(1), NodeId(2)];
        let sym_small = vec![NodeId(1)];
        let runs: Vec<(&[NodeId], &TopologySet, Option<NodeId>)> = vec![
            (&sym_big, &big, None),
            (&sym_small, &small, None),
            (&sym_big, &big, Some(NodeId(2))),
            (&sym_big, &big, None),
            (&sym_small, &small, Some(NodeId(1))),
        ];
        for (sym, topo, avoid) in runs {
            RoutingTable::compute_avoiding_into(
                &mut ws,
                &mut reused,
                NodeId(0),
                sym,
                &no2h(),
                topo,
                now(),
                avoid,
            );
            let fresh = RoutingTable::compute_avoiding(NodeId(0), sym, &no2h(), topo, now(), avoid);
            assert_eq!(reused, fresh, "avoid={avoid:?}");
        }
    }

    #[test]
    fn reroute_reuses_only_a_stamped_main_graph() {
        let topo = topo_multi(&[(1, &[3]), (2, &[4]), (4, &[3])]);
        let sym = [NodeId(1), NodeId(2)];
        let want =
            RoutingTable::compute_avoiding(NodeId(0), &sym, &no2h(), &topo, now(), Some(NodeId(1)));
        let mut ws = RoutingWorkspace::default();
        let mut main = RoutingTable::default();
        let mut out = RoutingTable::default();
        let mut compute = |ws: &mut RoutingWorkspace, avoid| {
            RoutingTable::compute_avoiding_into(
                ws,
                &mut main,
                NodeId(0),
                &sym,
                &no2h(),
                &topo,
                now(),
                avoid,
            );
        };
        let mut reroute = |ws: &mut RoutingWorkspace, generation| {
            RoutingTable::reroute_avoiding_into(
                ws,
                &mut out,
                generation,
                NodeId(0),
                &sym,
                &no2h(),
                &topo,
                now(),
                NodeId(1),
            );
            assert_eq!(out, want);
        };
        // A main graph nobody stamped: full computation, which replaces it.
        compute(&mut ws, None);
        reroute(&mut ws, 1);
        assert_eq!((ws.main, ws.generation), (None, None));
        // Stamped: the BFS alone runs and the main graph stays.
        compute(&mut ws, None);
        ws.stamp(1);
        reroute(&mut ws, 1);
        assert_eq!((ws.main, ws.generation), (Some((NodeId(0), 0)), Some(1)));
        // Another generation falls back.
        reroute(&mut ws, 2);
        assert_eq!((ws.main, ws.generation), (None, None));
        // An avoid computation cannot be stamped.
        compute(&mut ws, Some(NodeId(2)));
        ws.stamp(3);
        assert_eq!(ws.generation, None);
    }

    #[test]
    fn tree_is_recorded_only_once_asked() {
        // 0 - 1 - 3 and 0 - 2 - 4 (with 4 - 3): 3 is behind 1, 4 behind 2.
        let topo = topo_multi(&[(1, &[3]), (2, &[4]), (4, &[3])]);
        let sym = [NodeId(1), NodeId(2)];
        let mut ws = RoutingWorkspace::default();
        let mut main = RoutingTable::default();
        let mut compute = |ws: &mut RoutingWorkspace| {
            RoutingTable::compute_avoiding_into(
                ws,
                &mut main,
                NodeId(0),
                &sym,
                &no2h(),
                &topo,
                now(),
                None,
            );
        };
        compute(&mut ws);
        ws.stamp(1);
        assert!(ws.parent.is_empty(), "nobody asked yet");
        let tree = |ws: &mut RoutingWorkspace, generation, dst, avoided| {
            ws.tree_route(generation, NodeId(dst), NodeId(avoided))
        };
        assert_eq!(tree(&mut ws, 1, 3, 1), TreeRoute::Passes);
        assert_eq!(tree(&mut ws, 1, 3, 2), TreeRoute::Avoids);
        assert_eq!(tree(&mut ws, 1, 4, 2), TreeRoute::Passes);
        assert_eq!(tree(&mut ws, 1, 2, 2), TreeRoute::Passes, "the destination itself");
        assert_eq!(tree(&mut ws, 1, 4, 0), TreeRoute::Avoids, "me");
        assert_eq!(tree(&mut ws, 1, 9, 1), TreeRoute::Avoids, "absent destination");
        assert_eq!(tree(&mut ws, 1, 3, 9), TreeRoute::Avoids, "absent avoided node");
        assert_eq!(tree(&mut ws, 2, 3, 2), TreeRoute::Unknown, "another generation");
        // Asked once, every later main computation records its tree.
        compute(&mut ws);
        assert_eq!(ws.parent.len(), ws.ids.len());
        assert_eq!(tree(&mut ws, 1, 3, 2), TreeRoute::Unknown, "unstamped");
    }

    #[test]
    fn max_id_tuples_cost_one_slot() {
        // A 2-hop tuple and a TC tuple naming the largest id: the old dense
        // buffers were sized `id + 1` and would abort on it.
        let far = NodeId(u32::MAX);
        let mut two_hop = TwoHopSet::default();
        two_hop.upsert(NodeId(1), far, SimTime::from_secs(1_000), now());
        let topo = topo_multi(&[(2, &[u32::MAX, 3])]);
        let mut ws = RoutingWorkspace::default();
        let mut table = RoutingTable::default();
        RoutingTable::compute_avoiding_into(
            &mut ws,
            &mut table,
            NodeId(0),
            &[NodeId(1), NodeId(2)],
            &two_hop,
            &topo,
            now(),
            None,
        );
        let dests: Vec<NodeId> = table.iter().map(|r| r.dest).collect();
        assert_eq!(dests, vec![NodeId(1), NodeId(2), NodeId(3), far]);
        let r = table.route_to(far).unwrap();
        assert_eq!((r.next_hop, r.hops), (NodeId(1), 2));
        // Scratch holds the five ids met, not the largest id's worth.
        assert_eq!(ws.ids.len(), 5);
        assert_eq!(ws.reach.len(), 5);
        assert_eq!(ws.table.len(), MIN_TABLE);
    }

    #[test]
    fn interner_forgets_ids_no_longer_heard() {
        // 300 sparse ids force several table doublings. The interner keeps
        // them while they are heard; once a computation meets only a few,
        // the next one starts over at the minimum size. Routes match the
        // one-shot computation throughout.
        let dests: Vec<u32> = (1..=300u32).map(|i| i * 14_000_000).collect();
        let wide = topo_multi(&[(1, &dests)]);
        let small = topo(&[(1, 2)]);
        let mut ws = RoutingWorkspace::default();
        let mut table = RoutingTable::default();
        let sym = [NodeId(1)];
        let mut run = |ws: &mut RoutingWorkspace, topo: &TopologySet| {
            RoutingTable::compute_avoiding_into(
                ws,
                &mut table,
                NodeId(0),
                &sym,
                &no2h(),
                topo,
                now(),
                None,
            );
            assert_eq!(table, RoutingTable::compute(NodeId(0), &sym, &no2h(), topo, now()));
            table.len()
        };
        assert_eq!(run(&mut ws, &wide), 301);
        assert_eq!(run(&mut ws, &wide), 301);
        assert_eq!(ws.ids.len(), 302);
        assert!(ws.table.len() >= 2 * ws.ids.len());
        assert_eq!(run(&mut ws, &small), 2);
        assert_eq!(ws.ids.len(), 303, "kept: the previous run met every id");
        assert_eq!(run(&mut ws, &small), 2);
        assert_eq!((ws.ids.len(), ws.table.len()), (3, MIN_TABLE));
        assert!(ws.adj.len() < 8, "{} adjacency lists kept", ws.adj.len());
        assert_eq!(run(&mut ws, &wide), 301);
    }

    #[test]
    fn crafted_ids_do_not_share_one_probe_run() {
        // 2000 ids that all land in bucket 0 under the fixed Fibonacci
        // multiplier (id * 0x9E3779B9 < 2^16 for every table of at most
        // 2^16 entries). The keyed hash spreads them like any others.
        const FIB: u32 = 0x9E37_79B9;
        let mut inv = FIB;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u32.wrapping_sub(FIB.wrapping_mul(inv)));
        }
        assert_eq!(FIB.wrapping_mul(inv), 1);
        let crafted: Vec<u32> = (1..=2000u32).map(|j| j.wrapping_mul(inv)).collect();
        let mut ws = RoutingWorkspace::default();
        let mut table = RoutingTable::default();
        RoutingTable::compute_avoiding_into(
            &mut ws,
            &mut table,
            NodeId(0),
            &[NodeId(1)],
            &no2h(),
            &topo_multi(&[(1, &crafted)]),
            now(),
            None,
        );
        assert_eq!(table.len(), 2001);
        let mut longest = 0;
        let mut run = 0;
        for &(_, slot) in ws.table.iter().chain(ws.table.iter()) {
            run = if slot == FREE { 0 } else { run + 1 };
            longest = longest.max(run);
        }
        assert!(longest < 200, "a probe run of {longest} entries");
    }

    #[test]
    fn routes_never_point_to_self() {
        let table = RoutingTable::compute(
            NodeId(0),
            &[NodeId(1)],
            &no2h(),
            &topo_multi(&[(1, &[0, 2])]), // topology mentioning me
            now(),
        );
        assert!(table.route_to(NodeId(0)).is_none());
        assert_eq!(table.route_to(NodeId(2)).unwrap().hops, 2);
    }
}
