//! Routing table calculation (RFC 3626 §10).
//!
//! Routes are shortest paths (hop count) over the union of:
//! * this node's symmetric 1-hop links, and
//! * the learned links: the 2-hop pairs heard in HELLOs and the topology
//!   tuples learned from TCs (`last_hop → dest` edges), each usable both
//!   ways.
//!
//! A node keeps its [`RoutingGraph`] for good and changes only the edges
//! whose pairs changed since its last route run, so a run is the BFS, not a
//! rebuild, and the BFS itself resumes where those changes can first move
//! it. [`RoutingTable::compute_avoiding`] is the one-shot calculation
//! from the sets, which additionally excludes one node from the graph —
//! the primitive the paper's investigation uses so that requests/answers
//! "should not go through … the suspicious MPR". The graph answers it for
//! its last run with a masked BFS ([`RoutingGraph::reroute`]), and
//! [`RoutingGraph::tree_route`] tells when the main route already avoids
//! that node, so the masked BFS runs only for destinations behind it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use trustlink_sim::{NodeId, SimTime};

use crate::idhash::IdSlots;
use crate::state::{PairLog, TopologySet, TwoHopSet};

/// Unvisited marker in the BFS distance, position and parent arrays; as a
/// resume point, no dequeue to resume at.
const UNVISITED: u32 = u32::MAX;

/// Smallest id→slot table, in entries (a power of two).
const MIN_TABLE: usize = 64;

/// Adjacency-entry flag: the entry comes from a topology tuple, not from a
/// 2-hop pair.
const TOPO: u32 = 1 << 30;

/// Adjacency-entry flag: the vertex holding the entry is the second id of
/// the pair that produced it.
const SECOND: u32 = 1 << 31;

/// The slot bits of an adjacency entry.
const SLOT: u32 = TOPO - 1;

/// One node's routing graph, kept from route run to route run.
///
/// The graph interns the node ids it meets into compact slots through an
/// open-addressing id→slot table, keeps one adjacency list per slot and
/// runs the BFS over slots. Time and memory therefore scale with the edges
/// the node has heard, never with the numeric size of an id: a forged
/// `NodeId(u32::MAX)` costs one slot like any other.
///
/// Each [`run`](Self::run) first applies the stored-pair insertions and
/// removals the 2-hop and topology sets recorded since the last run, then
/// rebuilds `me`'s out-edges from its symmetric neighbors. Every list then
/// equals what a rebuild from the stored pairs would push, in the same
/// order, duplicates included: `me`'s list is the symmetric neighbors in
/// the order given; any other vertex's list is its 2-hop entries, then its
/// topology entries, each group ascending by the `(a, b)` pair that
/// produced the entry. BFS tie-breaks depend only on that order, so the
/// routes equal [`RoutingTable::compute`] on the sets, whatever slot each
/// id holds. Pairs that touch `me`, and self-loops, add no edge.
///
/// The graph also keeps its last main search: the visit order, each slot's
/// position in it, hop count, first hop and BFS parent. A run resumes that
/// search at the first dequeue a replayed change can alter, rather than at
/// `me`. Before a run applies a pair `(a, b)`, it judges the pair against
/// the kept search, `l` being the endpoint visited first and `u` the
/// other. The pair leaves every dequeue alone when neither endpoint was
/// reached (no scanned list holds either), when both share a level, or
/// when `u` is one level deeper and its BFS parent came before `l`. In
/// each of those cases the other end is already visited when either list
/// is scanned, so the entry appends nothing, whether it comes or goes. The
/// pair can alter dequeue `pos(l)` and later ones when one endpoint alone
/// was reached, when the levels are two or more apart, or when a vertex
/// after `l` discovered `u`. An edge from `l` to its own BFS child moves
/// something only when it becomes or stops being the child's first entry
/// in `l`'s list, so such a pair marks `l` for a rescan instead: before the
/// search resumes, the run walks `l`'s list as it now stands and resumes
/// at dequeue `pos(l)` only if that list would append other children, or
/// the same ones in another order. Freeing a reached slot is judged at its
/// parent's position, and the slot forgets its position, so a reuse
/// within the same replay counts as unreached.
///
/// Once `k` is the earliest dequeue so judged, each of the first `k`
/// dequeues appends exactly what it appended before. The run keeps the
/// order up to the vertices they found (those whose parent comes before
/// `k`), resets the rest and continues the BFS at dequeue `k`, so the
/// routes and the tree are what a full search builds. When no pair can
/// alter any dequeue, no search runs at all and the last routes stand. A
/// change to `me`'s own list, the reload of a set whose log overflowed,
/// the first run and any masked search force a full search.
///
/// [`reroute`](Self::reroute) masks one vertex out of the graph the last
/// run searched (the sets hold later changes until the next run takes
/// them), and [`tree_route`](Self::tree_route) tells from the kept BFS
/// tree, for the route generation the last run was given, which routes
/// around a node are the main routes themselves.
///
/// A slot whose last edge goes is freed and reused, smallest first, so ids
/// that are no longer heard do not pile up. Every buffer keeps its
/// capacity, so a run in steady state allocates nothing.
#[derive(Debug, Clone)]
pub struct RoutingGraph {
    /// The node whose routes the graph computes; its slot is [`ME`].
    me: NodeId,
    /// Id → slot, hashed with a key drawn at random with the graph: ids
    /// arrive off the air, and a fixed function would let a sender pick ids
    /// that all share one probe run.
    index: IdSlots,
    /// Slot → id; stale for a free slot.
    ids: Vec<NodeId>,
    /// Every interned slot, ascending by id.
    by_id: Vec<u32>,
    /// Out-edges per slot: for [`ME`], the slots of its symmetric
    /// neighbors; for any other slot, entries of [`SLOT`] bits plus the
    /// [`TOPO`] and [`SECOND`] flags, in the order described above.
    adj: Vec<Vec<u32>>,
    /// Free slots below `ids.len()`, smallest first.
    free: BinaryHeap<Reverse<u32>>,
    /// Per slot, the BFS hop count ([`UNVISITED`] when unreached) and the
    /// first-hop slot toward it, as the last search, main or masked, left
    /// them.
    reach: Vec<(u32, u32)>,
    /// The last search's visit order; the frontier is `queue[head..]`.
    queue: Vec<u32>,
    /// Per slot, its position in the last main search's visit order,
    /// [`UNVISITED`] when unreached or freed since. Masked searches leave
    /// it alone.
    pos: Vec<u32>,
    /// The last main search's BFS parent of each slot, [`UNVISITED`] for
    /// `me` and unreached slots. Masked searches leave it alone.
    parent: Vec<u32>,
    /// The first dequeue of the kept main search that a change since can
    /// alter: `0` searches afresh, [`UNVISITED`] searches nothing.
    resume: u32,
    /// Slots whose list gained or lost an entry toward one of their BFS
    /// children since the kept search: each may or may not move it, so
    /// the next run rescans the list before it resumes.
    recheck: Vec<u32>,
    /// The route generation the last run was given; `None` before the
    /// first run.
    generation: Option<u64>,
    /// What the main searches did.
    stats: SearchStats,
}

/// What the main searches of a [`RoutingGraph`] did, over its lifetime:
/// deterministic counts that show what resuming saves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Vertices the main searches dequeued.
    pub dequeues: u64,
    /// Adjacency entries the main searches scanned.
    pub scanned: u64,
    /// Runs that searched nothing: no change since the last search could
    /// alter it.
    pub skipped: u64,
}

/// `me`'s slot: interned first, and never freed.
const ME: u32 = 0;

/// How the main BFS tree's route to a destination stands toward a node to
/// be avoided: the answer of [`RoutingGraph::tree_route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeRoute {
    /// The main route to the destination does not pass the avoided node,
    /// or there is none: the route around that node is the main route, or
    /// equally absent.
    Avoids,
    /// The main route to the destination passes the avoided node, or ends
    /// at it.
    Passes,
    /// The graph's last run was not given the asked generation.
    Unknown,
}

impl RoutingGraph {
    /// An empty graph for the node `me`.
    pub fn new(me: NodeId) -> Self {
        let mut graph = RoutingGraph {
            me,
            index: IdSlots::default(),
            ids: Vec::new(),
            by_id: Vec::new(),
            adj: Vec::new(),
            free: BinaryHeap::new(),
            reach: Vec::new(),
            queue: Vec::new(),
            pos: Vec::new(),
            parent: Vec::new(),
            resume: 0,
            recheck: Vec::new(),
            generation: None,
            stats: SearchStats::default(),
        };
        graph.index.resize(MIN_TABLE);
        let me_slot = graph.slot(me);
        debug_assert_eq!(me_slot, ME);
        graph
    }

    /// The main route run: brings the graph in step with the stored pairs
    /// of `two_hop` and `topology`, links `me` to `sym`, and writes the
    /// routes into `out` (cleared first, capacity kept). The graph is then
    /// the one of route generation `generation`.
    ///
    /// Returns `false`, leaving `out` as it was, when no change since the
    /// last main search can alter it: the routes are then that search's,
    /// the ones the last run that returned `true` wrote.
    ///
    /// The graph routes over the *stored* pairs, so the caller purges both
    /// sets at the current instant first; the routes then equal
    /// [`RoutingTable::compute`] on the sets. A graph follows one pair of
    /// sets: the first run loads them whole, and later runs apply only the
    /// changes they recorded since.
    pub fn run(
        &mut self,
        out: &mut RoutingTable,
        generation: u64,
        sym: &[NodeId],
        two_hop: &mut TwoHopSet,
        topology: &mut TopologySet,
    ) -> bool {
        if self.generation.is_none() {
            two_hop.pairs.unfollow();
            topology.pairs.unfollow();
        }
        if two_hop.pairs.followed() {
            self.replay(0, &mut two_hop.pairs);
        } else {
            self.load(0, two_hop.stored_pairs());
            two_hop.pairs.follow();
        }
        if topology.pairs.followed() {
            self.replay(TOPO, &mut topology.pairs);
        } else {
            self.load(TOPO, topology.stored_pairs());
            topology.pairs.follow();
        }
        self.link_first_hops(sym);
        self.trim();
        self.generation = Some(generation);
        let searched = self.search_main();
        if searched {
            self.emit(out);
        }
        searched
    }

    /// The routes around `avoided` in the graph the last run searched,
    /// written into `out`: the BFS over that graph with `avoided` masked
    /// out. They equal [`RoutingTable::compute_avoiding`] on the sets that
    /// run read: the avoid graph is the main graph minus one vertex, every
    /// vertex keeps its remaining out-edges in the same order, so the BFS
    /// breaks every tie the same way. Before the first run the graph holds
    /// `me` alone, and `out` ends empty.
    ///
    /// The masked BFS shares the main search's hop counts and visit order,
    /// so the next run searches afresh; the kept tree stays.
    pub fn reroute(&mut self, out: &mut RoutingTable, avoided: NodeId) {
        // Avoiding `me` removes no edge: `me` has no in-edges.
        let masked = if avoided == self.me { None } else { self.find(avoided) };
        self.resume = 0;
        let RoutingGraph { ids, reach, queue, .. } = self;
        reach.clear();
        reach.resize(ids.len(), (UNVISITED, ME));
        queue.clear();
        queue.push(ME);
        // A masked slot looks visited, so no edge leads into it.
        if let Some(m) = masked {
            reach[m as usize].0 = 0;
        }
        reach[ME as usize].0 = 0;
        self.bfs::<false>(0);
        if let Some(m) = masked {
            self.reach[m as usize].0 = UNVISITED;
        }
        self.emit(out);
    }

    /// What the main searches did so far.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Whether the main route to `dst` in the BFS tree of the last run,
    /// given route generation `generation`, passes `avoided`, found by
    /// walking BFS parents from `dst` toward `me` (at most the route's hop
    /// count).
    ///
    /// [`TreeRoute::Avoids`] is exact: masking a vertex only delays its
    /// descendants in the BFS queue, since adjacency order is fixed, so
    /// every vertex outside its subtree keeps its distance, its first
    /// discoverer and its first hop, and an unreached one stays unreached.
    /// The route [`reroute`](Self::reroute) gives around `avoided` is then
    /// the main route to `dst`, or equally absent. Avoiding `me` removes
    /// nothing, and a reached `dst` equal to `avoided` passes.
    ///
    /// [`TreeRoute::Unknown`] when the last run was given another
    /// generation, or no run happened yet.
    pub fn tree_route(&self, generation: u64, dst: NodeId, avoided: NodeId) -> TreeRoute {
        if self.generation != Some(generation) {
            return TreeRoute::Unknown;
        }
        let (Some(mut v), Some(avoided)) = (self.find(dst), self.find(avoided)) else {
            return TreeRoute::Avoids;
        };
        loop {
            let up = self.parent[v as usize];
            // Reached `me`, or `dst` is unreached.
            if v == ME || up == UNVISITED {
                return TreeRoute::Avoids;
            }
            if v == avoided {
                return TreeRoute::Passes;
            }
            v = up;
        }
    }

    /// Applies the pairs `log` recorded since the last run to the edges of
    /// one kind: `0` for 2-hop pairs, [`TOPO`] for topology tuples.
    fn replay(&mut self, kind: u32, log: &mut PairLog) {
        log.drain(|a, b| self.toggle(kind, a, b));
    }

    /// Replaces every edge of one kind with those of the `stored` pairs:
    /// how a run takes a set that recorded no changes for it.
    #[cold]
    fn load(&mut self, kind: u32, stored: impl Iterator<Item = (NodeId, NodeId)>) {
        self.resume = 0;
        for s in 0..self.adj.len() as u32 {
            if s != ME && !self.adj[s as usize].is_empty() {
                self.adj[s as usize].retain(|&e| e & TOPO != kind);
                self.release_if_unused(s);
            }
        }
        for (a, b) in stored {
            self.toggle(kind, a, b);
        }
    }

    /// Inserts the edges `a → b` and `b → a` of the stored pair `(a, b)` of
    /// `kind`, or removes them when the graph holds them, after judging
    /// the change against the kept search. Pairs touching `me`, and
    /// self-loops, have none.
    fn toggle(&mut self, kind: u32, a: NodeId, b: NodeId) {
        if a == self.me || b == self.me || a == b {
            return;
        }
        let key = (kind, a, b);
        let (sa, sb) = (self.slot(a), self.slot(b));
        self.judge(sa, sb);
        let (i, held) = self.position(sa, key);
        let (j, _) = self.position(sb, key);
        if held {
            self.adj[sa as usize].remove(i);
            self.adj[sb as usize].remove(j);
            self.release_if_unused(sa);
            self.release_if_unused(sb);
        } else {
            self.adj[sa as usize].insert(i, sb | kind);
            self.adj[sb as usize].insert(j, sa | kind | SECOND);
        }
    }

    /// Lowers the resume point to the first dequeue of the kept search
    /// that inserting or removing an edge between `a` and `b` can alter
    /// (see the type docs for the rule).
    fn judge(&mut self, a: u32, b: u32) {
        let (pa, pb) = (self.pos_of(a), self.pos_of(b));
        let first = pa.min(pb);
        // Neither endpoint reached, or an earlier dequeue is already due.
        // A resume point of 0 also covers a masked search's hop counts.
        if first >= self.resume {
            return;
        }
        if pa != UNVISITED && pb != UNVISITED {
            let (l, u) = if pa < pb { (a, b) } else { (b, a) };
            let (dl, du) = (self.reach[l as usize].0, self.reach[u as usize].0);
            if du == dl || (du == dl + 1 && self.pos_of(self.parent[u as usize]) < first) {
                return;
            }
            // An entry of `l` toward its own child moves the child only if
            // it becomes or stops being the child's first entry there.
            if du == dl + 1 && self.parent[u as usize] == l {
                self.recheck.push(l);
                return;
            }
        }
        self.resume = first;
    }

    /// The resume point once every slot in `recheck` before it has been
    /// rescanned: the first one whose dequeue would append other children
    /// than before, if any comes before the point the judged pairs set.
    fn settle_resume(&mut self) -> u32 {
        let mut k = std::mem::replace(&mut self.resume, UNVISITED);
        let mut recheck = std::mem::take(&mut self.recheck);
        if k != 0 {
            recheck.sort_unstable_by_key(|&l| self.pos_of(l));
            recheck.dedup();
            for &l in &recheck {
                let at = self.pos_of(l);
                if at >= k {
                    break;
                }
                if !self.appends_as_before(l, at) {
                    k = at;
                }
            }
        }
        recheck.clear();
        self.recheck = recheck;
        k
    }

    /// Whether dequeue `at` of the kept search, that of slot `l`, appends
    /// the children it appended before when it scans `l`'s list as it is
    /// now, all dequeues before it unchanged: an entry appends when no
    /// earlier dequeue found its vertex and no earlier entry of the list
    /// appended it.
    fn appends_as_before(&self, l: u32, at: u32) -> bool {
        let RoutingGraph { adj, queue, parent, .. } = self;
        let found_by = |v: u32| self.pos_of(parent[v as usize]);
        // `l`'s children, contiguous in the order.
        let children = 1 + queue[1..].partition_point(|&v| found_by(v) < at);
        let mut next = children;
        for &e in &adj[l as usize] {
            let v = e & SLOT;
            let p = self.pos_of(v);
            if p != UNVISITED && (found_by(v) < at || (children..next).contains(&(p as usize))) {
                continue;
            }
            if queue.get(next) != Some(&v) {
                return false;
            }
            next += 1;
        }
        queue.get(next).is_none_or(|&v| found_by(v) != at)
    }

    /// Slot `s`'s position in the kept search, [`UNVISITED`] when it was
    /// not reached there (or did not exist yet).
    fn pos_of(&self, s: u32) -> u32 {
        self.pos.get(s as usize).copied().unwrap_or(UNVISITED)
    }

    /// Where `key` stands among `v`'s entries, and whether the entry there
    /// is its own.
    fn position(&self, v: u32, key: (u32, NodeId, NodeId)) -> (usize, bool) {
        let (ids, list) = (&self.ids, &self.adj[v as usize]);
        let own = ids[v as usize];
        let key_of = |e: u32| {
            let other = ids[(e & SLOT) as usize];
            let (a, b) = if e & SECOND != 0 { (other, own) } else { (own, other) };
            (e & TOPO, a, b)
        };
        let i = list.partition_point(|&e| key_of(e) < key);
        (i, list.get(i).is_some_and(|&e| key_of(e) == key))
    }

    /// Rebuilds `me`'s out-edges from `sym`, in its order, and frees the
    /// slots of former neighbors left with no edge. A change searches
    /// afresh, so the old edges wait in the BFS queue's storage meanwhile.
    fn link_first_hops(&mut self, sym: &[NodeId]) {
        let (me, ids) = (self.me, &self.ids);
        let now = sym.iter().filter(|&&n| n != me);
        if self.adj[ME as usize].iter().map(|&s| ids[s as usize]).eq(now.copied()) {
            return;
        }
        self.resume = 0;
        let mut old = std::mem::take(&mut self.queue);
        old.clear();
        std::mem::swap(&mut old, &mut self.adj[ME as usize]);
        for &n in sym {
            if n != self.me {
                let s = self.slot(n);
                self.adj[ME as usize].push(s);
            }
        }
        for &s in &old {
            self.release_if_unused(s);
        }
        self.queue = old;
    }

    /// Frees slot `s` when it holds no edge, is not `me` and is not one of
    /// `me`'s neighbors: its id and its place in the kept search are
    /// forgotten, and the slot is reused.
    fn release_if_unused(&mut self, s: u32) {
        if s == ME || !self.adj[s as usize].is_empty() {
            return;
        }
        let id = self.ids[s as usize];
        // Already freed (a slot can appear twice among `me`'s old edges),
        // or still one of `me`'s neighbors.
        if self.find(id) != Some(s) || self.adj[ME as usize].contains(&s) {
            return;
        }
        self.index.remove(id);
        let i = self.by_id.partition_point(|&t| self.ids[t as usize] < id);
        self.by_id.remove(i);
        self.free.push(Reverse(s));
        // The dequeue that found a reached slot is the first to change.
        if self.pos.get(s as usize).is_some_and(|&p| p != UNVISITED) {
            self.pos[s as usize] = UNVISITED;
            let found_at = self.pos[self.parent[s as usize] as usize];
            self.resume = self.resume.min(found_at);
        }
    }

    /// Drops the free slots at the top of the slot range, and halves the
    /// id table while it is less than an eighth full.
    fn trim(&mut self) {
        let live = self.by_id.len();
        let slots = self.ids.len();
        while self.ids.len() > live {
            let top = self.ids.len() - 1;
            if self.find(self.ids[top]) == Some(top as u32) {
                break;
            }
            self.ids.pop();
            self.adj.pop();
        }
        if self.ids.len() < slots {
            let n = self.ids.len() as u32;
            self.free.retain(|&Reverse(s)| s < n);
        }
        if self.index.capacity() > MIN_TABLE && live * 8 < self.index.capacity() {
            self.index.resize((live * 2).next_power_of_two().max(MIN_TABLE));
        }
    }

    /// The main search: the BFS from `me`, resumed at dequeue `resume` of
    /// the kept one. Returns `false`, searching nothing, when no change
    /// since can alter the kept search.
    fn search_main(&mut self) -> bool {
        let k = self.settle_resume();
        let n = self.ids.len();
        let RoutingGraph { reach, queue, pos, parent, .. } = self;
        if k == 0 {
            reach.clear();
            pos.clear();
            parent.clear();
            queue.clear();
            queue.push(ME);
        } else if k != UNVISITED {
            // The first `k` dequeues find what they found before: the
            // vertices whose parent comes before dequeue `k`, a prefix of
            // the order. Every freed slot lies past it.
            let cut = 1 + queue[1..].partition_point(|&v| pos[parent[v as usize] as usize] < k);
            for &v in &queue[cut..] {
                reach[v as usize] = (UNVISITED, ME);
                pos[v as usize] = UNVISITED;
                parent[v as usize] = UNVISITED;
            }
            queue.truncate(cut);
        }
        // Slots interned since are unreached; the slots trimmed were free.
        reach.resize(n, (UNVISITED, ME));
        pos.resize(n, UNVISITED);
        parent.resize(n, UNVISITED);
        if k == UNVISITED {
            self.stats.skipped += 1;
            return false;
        }
        if k == 0 {
            reach[ME as usize] = (0, ME);
            pos[ME as usize] = 0;
        }
        self.bfs::<true>(k as usize);
        self.stats.dequeues += (self.queue.len() - k as usize) as u64;
        true
    }

    /// Runs the BFS over `adj` from dequeue `head` of the queue on. A
    /// `MAIN` search records each reached slot's position and parent and
    /// counts the entries it scans.
    fn bfs<const MAIN: bool>(&mut self, mut head: usize) {
        let RoutingGraph { adj, reach, queue, pos, parent, stats, .. } = self;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let (du, hop) = reach[u as usize];
            let list = &adj[u as usize];
            if MAIN {
                stats.scanned += list.len() as u64;
            }
            for &e in list {
                let v = e & SLOT;
                let r = &mut reach[v as usize];
                if r.0 != UNVISITED {
                    continue;
                }
                *r = (du + 1, if u == ME { v } else { hop });
                if MAIN {
                    pos[v as usize] = queue.len() as u32;
                    parent[v as usize] = u;
                }
                queue.push(v);
            }
        }
    }

    /// The slots the last search reached, `me` aside, written into `out`
    /// in id order.
    fn emit(&self, out: &mut RoutingTable) {
        let RoutingGraph { ids, by_id, reach, .. } = self;
        out.routes.clear();
        for &s in by_id {
            let (hops, hop) = reach[s as usize];
            if hops != UNVISITED && s != ME {
                let next_hop = ids[hop as usize];
                out.routes.push(Route { dest: ids[s as usize], next_hop, hops });
            }
        }
    }

    /// The slot of `id` if it is interned.
    #[inline]
    fn find(&self, id: NodeId) -> Option<u32> {
        self.index.get(id)
    }

    /// The slot of `id`, interning it on first sight.
    #[inline]
    fn slot(&mut self, id: NodeId) -> u32 {
        match self.index.get(id) {
            Some(slot) => slot,
            None => self.intern(id),
        }
    }

    /// Interns `id` in the smallest free slot.
    #[cold]
    fn intern(&mut self, id: NodeId) -> u32 {
        let slot = match self.free.pop() {
            Some(Reverse(s)) => {
                self.ids[s as usize] = id;
                s
            }
            None => {
                self.ids.push(id);
                self.adj.push(Vec::new());
                self.ids.len() as u32 - 1
            }
        };
        assert!(slot < SLOT, "slot numbers are below 2^30");
        let at = self.by_id.partition_point(|&t| self.ids[t as usize] < id);
        self.by_id.insert(at, slot);
        self.index.insert(id, slot, self.by_id.len());
        slot
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
/// searches, iteration is a slice walk, and a [`RoutingGraph`] run writes
/// a table *into* an existing allocation, so the node's route runs
/// allocate nothing once warm.
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
    ///
    /// The one-shot calculation from the live pairs at `now`, kept plain:
    /// it is the reference every [`RoutingGraph`] answer must equal. Each
    /// vertex's out-edges go in the order the BFS breaks ties by: `me`'s
    /// are `symmetric_neighbors` in order, the others' follow the live
    /// 2-hop pairs, then the live topology tuples, each ascending, each
    /// pair linking its ids both ways.
    pub fn compute_avoiding(
        me: NodeId,
        symmetric_neighbors: &[NodeId],
        two_hop: &TwoHopSet,
        topology: &TopologySet,
        now: SimTime,
        avoid: Option<NodeId>,
    ) -> Self {
        let usable = |n: NodeId| n != me && Some(n) != avoid;
        // Edges *out of* `me` come only from link sensing: a forged TC or
        // HELLO mentioning this node must never add a first hop that is not
        // a verified symmetric neighbor (the RFC's iterative calculation
        // has the same property).
        let mut adj: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        adj.insert(me, symmetric_neighbors.iter().copied().filter(|&n| usable(n)).collect());
        // TC edges are advertised by the MPR (last_hop); the RFC treats
        // them as usable in both directions for route calculation because
        // MPR selection requires a symmetric link.
        let learned = two_hop
            .iter(now)
            .map(|p| (p.via, p.two_hop))
            .chain(topology.iter(now).map(|t| (t.last_hop, t.dest)));
        for (a, b) in learned {
            if usable(a) && usable(b) && a != b {
                adj.entry(a).or_default().push(b);
                adj.entry(b).or_default().push(a);
            }
        }
        // dest -> (hops, next hop)
        let mut reach: BTreeMap<NodeId, (u32, NodeId)> = BTreeMap::new();
        let mut queue = VecDeque::from([(me, 0, me)]);
        while let Some((u, hops, hop)) = queue.pop_front() {
            for &v in adj.get(&u).into_iter().flatten() {
                if v != me && !reach.contains_key(&v) {
                    let next_hop = if u == me { v } else { hop };
                    reach.insert(v, (hops + 1, next_hop));
                    queue.push_back((v, hops + 1, next_hop));
                }
            }
        }
        let routes =
            reach.into_iter().map(|(dest, (hops, next_hop))| Route { dest, next_hop, hops });
        RoutingTable { routes: routes.collect() }
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

    /// The routes of `next` whose destination `self` has no route to,
    /// ascending by destination — what the node logs as `ROUTE_ADD`.
    pub fn added<'a>(&'a self, next: &'a RoutingTable) -> impl Iterator<Item = &'a Route> + 'a {
        self.against(next).filter_map(|(old, new)| old.is_none().then_some(new))
    }

    /// The routes of `next` whose next hop or hop count differs from
    /// `self`'s route to the same destination, ascending by destination —
    /// what the node logs as `ROUTE_CHG`. Destinations only `self` routes
    /// to are in neither list, since no record reports them.
    pub fn changed<'a>(&'a self, next: &'a RoutingTable) -> impl Iterator<Item = &'a Route> + 'a {
        self.against(next).filter_map(|(old, new)| old.is_some_and(|o| o != new).then_some(new))
    }

    /// Each route of `next` beside `self`'s route to the same destination:
    /// one merge walk over the two destination-sorted tables.
    fn against<'a>(
        &'a self,
        next: &'a RoutingTable,
    ) -> impl Iterator<Item = (Option<&'a Route>, &'a Route)> + 'a {
        let mut old = self.routes.iter().peekable();
        next.routes.iter().map(move |new| {
            while old.next_if(|o| o.dest < new.dest).is_some() {}
            (old.next_if(|o| o.dest == new.dest), new)
        })
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
        let dests = |it: &mut dyn Iterator<Item = &Route>| it.map(|r| r.dest).collect::<Vec<_>>();
        assert_eq!(dests(&mut t1.added(&t2)), vec![NodeId(3)]);
        assert_eq!(t1.changed(&t2).count(), 0);
        // N2 became unreachable: neither list reports it, the table itself
        // shows it gone.
        assert!(t1.route_to(NodeId(2)).is_some() && t2.route_to(NodeId(2)).is_none());
        assert_eq!(t1.added(&t1).count() + t1.changed(&t1).count(), 0);
        // A table that only lost destinations has nothing to report.
        let empty = RoutingTable::default();
        assert_eq!(t1.added(&empty).count() + t1.changed(&empty).count(), 0);
        // A new next hop is a change, not an addition.
        let t3 =
            RoutingTable::compute(NodeId(0), &[NodeId(1), NodeId(2)], &no2h(), &topo(&[]), now());
        assert_eq!(dests(&mut t1.changed(&t3)), vec![NodeId(2)]);
        assert_eq!(t1.added(&t3).count(), 0);
    }

    /// One main run of `graph` over the sets, checked against the one-shot
    /// calculation, its kept search against a full one.
    fn run(
        graph: &mut RoutingGraph,
        generation: u64,
        sym: &[NodeId],
        two_hop: &mut TwoHopSet,
        topo: &mut TopologySet,
    ) -> RoutingTable {
        let mut out = RoutingTable::default();
        if !graph.run(&mut out, generation, sym, two_hop, topo) {
            // Nothing searched: the kept search holds the last routes.
            graph.emit(&mut out);
        }
        assert_kept_search_is_fresh(graph);
        assert_eq!(out, RoutingTable::compute(NodeId(0), sym, two_hop, topo, now()));
        out
    }

    /// The kept search of `graph` (order, positions, hop counts, first
    /// hops and parents) equals the one a full search builds.
    fn assert_kept_search_is_fresh(graph: &RoutingGraph) {
        let mut fresh = graph.clone();
        fresh.resume = 0;
        assert!(fresh.search_main());
        let kept = |g: &RoutingGraph| (g.queue.clone(), g.pos.clone(), g.reach.clone());
        assert_eq!(kept(graph), kept(&fresh), "order, positions, reach");
        assert_eq!(graph.parent, fresh.parent, "parents");
    }

    #[test]
    fn workspace_reuse_matches_fresh_computation() {
        // One graph following one pair of sets as they grow, shrink and
        // swap edges between the two kinds must match the one-shot
        // calculation at every run, main and masked.
        let until = SimTime::from_secs(1_000);
        let mut graph = RoutingGraph::new(NodeId(0));
        let mut two_hop = TwoHopSet::default();
        let mut topo = TopologySet::default();
        let big = [NodeId(1), NodeId(2)];
        let small = [NodeId(1)];
        fn check(
            graph: &mut RoutingGraph,
            sym: &[NodeId],
            two_hop: &TwoHopSet,
            topo: &TopologySet,
        ) {
            let mut around = RoutingTable::default();
            for x in 0..8 {
                graph.reroute(&mut around, NodeId(x));
                let want = RoutingTable::compute_avoiding(
                    NodeId(0),
                    sym,
                    two_hop,
                    topo,
                    now(),
                    Some(NodeId(x)),
                );
                assert_eq!(around, want, "avoiding {x}");
            }
        }
        let tc = |topo: &mut TopologySet, from: u32, ansn: u16, dests: &[u32]| {
            let dests: Vec<NodeId> = dests.iter().map(|&d| NodeId(d)).collect();
            topo.apply_tc(NodeId(from), ansn, &dests, until, now());
        };
        tc(&mut topo, 1, 1, &[2, 3]);
        tc(&mut topo, 2, 1, &[4]);
        tc(&mut topo, 4, 1, &[3, 5]);
        tc(&mut topo, 5, 1, &[6]);
        run(&mut graph, 1, &big, &mut two_hop, &mut topo);
        check(&mut graph, &big, &two_hop, &topo);
        // Shrink: 4 withdraws its links, 5 goes silent, 2 leaves.
        tc(&mut topo, 4, 2, &[]);
        tc(&mut topo, 5, 2, &[]);
        run(&mut graph, 2, &small, &mut two_hop, &mut topo);
        check(&mut graph, &small, &two_hop, &topo);
        // Grow again, the 2-hop set now carrying what TCs carried.
        two_hop.upsert(NodeId(1), NodeId(4), until, now());
        two_hop.upsert(NodeId(2), NodeId(4), until, now());
        tc(&mut topo, 4, 3, &[1, 5, 7]);
        run(&mut graph, 3, &big, &mut two_hop, &mut topo);
        check(&mut graph, &big, &two_hop, &topo);
        two_hop.remove_via(NodeId(1), now());
        run(&mut graph, 4, &big, &mut two_hop, &mut topo);
        check(&mut graph, &big, &two_hop, &topo);
    }

    #[test]
    fn reroute_reuses_only_a_stamped_main_graph() {
        // The masked BFS reads the graph of the last run, which stays as it
        // was until the next run takes the sets' changes.
        let until = SimTime::from_secs(1_000);
        let mut topo = topo_multi(&[(1, &[3]), (2, &[4]), (4, &[3])]);
        let mut two_hop = no2h();
        let sym = [NodeId(1), NodeId(2)];
        let mut graph = RoutingGraph::new(NodeId(0));
        let mut out = RoutingTable::default();
        graph.reroute(&mut out, NodeId(1));
        assert!(out.is_empty(), "no run yet: an empty graph");
        assert_eq!(graph.tree_route(0, NodeId(3), NodeId(1)), TreeRoute::Unknown);
        run(&mut graph, 1, &sym, &mut two_hop, &mut topo);
        let want = RoutingTable::compute_avoiding(
            NodeId(0),
            &sym,
            &two_hop,
            &topo,
            now(),
            Some(NodeId(1)),
        );
        // A change after the run: 4 withdraws its link to 3.
        let before = topo.clone();
        topo.apply_tc(NodeId(4), 2, &[], until, now());
        graph.reroute(&mut out, NodeId(1));
        assert_eq!(out, want, "the run's graph, not the changed sets");
        assert_eq!(graph.tree_route(1, NodeId(3), NodeId(1)), TreeRoute::Passes);
        assert_eq!(graph.tree_route(2, NodeId(3), NodeId(1)), TreeRoute::Unknown);
        // The next run takes the change.
        run(&mut graph, 2, &sym, &mut two_hop, &mut topo);
        graph.reroute(&mut out, NodeId(1));
        let after = RoutingTable::compute_avoiding(
            NodeId(0),
            &sym,
            &two_hop,
            &topo,
            now(),
            Some(NodeId(1)),
        );
        assert_eq!(out, after);
        assert_ne!(
            after,
            RoutingTable::compute_avoiding(
                NodeId(0),
                &sym,
                &two_hop,
                &before,
                now(),
                Some(NodeId(1))
            )
        );
        assert_eq!(graph.tree_route(1, NodeId(3), NodeId(1)), TreeRoute::Unknown);
    }

    #[test]
    fn tree_is_kept_by_every_run() {
        // 0 - 1 - 3 and 0 - 2 - 4 (with 4 - 3): 3 is behind 1, 4 behind 2.
        let until = SimTime::from_secs(1_000);
        let mut topo = topo_multi(&[(1, &[3]), (2, &[4]), (4, &[3])]);
        let mut two_hop = no2h();
        let sym = [NodeId(1), NodeId(2)];
        let mut graph = RoutingGraph::new(NodeId(0));
        run(&mut graph, 1, &sym, &mut two_hop, &mut topo);
        assert_eq!(graph.parent.len(), graph.ids.len(), "the first run keeps its tree");
        let tree = |graph: &RoutingGraph, generation, dst, avoided| {
            graph.tree_route(generation, NodeId(dst), NodeId(avoided))
        };
        assert_eq!(tree(&graph, 1, 3, 1), TreeRoute::Passes);
        assert_eq!(tree(&graph, 1, 3, 2), TreeRoute::Avoids);
        assert_eq!(tree(&graph, 1, 4, 2), TreeRoute::Passes);
        assert_eq!(tree(&graph, 1, 2, 2), TreeRoute::Passes, "the destination itself");
        assert_eq!(tree(&graph, 1, 4, 0), TreeRoute::Avoids, "me");
        assert_eq!(tree(&graph, 1, 9, 1), TreeRoute::Avoids, "absent destination");
        assert_eq!(tree(&graph, 1, 3, 9), TreeRoute::Avoids, "absent avoided node");
        assert_eq!(tree(&graph, 2, 3, 2), TreeRoute::Unknown, "another generation");
        // A masked search leaves the tree, and a run that searches nothing
        // keeps it for its own generation.
        graph.reroute(&mut RoutingTable::default(), NodeId(1));
        assert_eq!(tree(&graph, 1, 3, 1), TreeRoute::Passes);
        run(&mut graph, 2, &sym, &mut two_hop, &mut topo);
        assert_eq!(tree(&graph, 1, 3, 2), TreeRoute::Unknown, "an older generation");
        assert_eq!(tree(&graph, 2, 3, 2), TreeRoute::Avoids);
        assert_eq!(graph.stats().skipped, 0, "the reroute forced a full search");
        run(&mut graph, 3, &sym, &mut two_hop, &mut topo);
        assert_eq!(graph.stats().skipped, 1, "nothing changed");
        assert_eq!(tree(&graph, 3, 3, 1), TreeRoute::Passes);
        // 2 now reaches 3 directly: an edge between levels 1 and 2 that
        // follows 3's parent 1 moves nothing either.
        topo.apply_tc(NodeId(2), 2, &[NodeId(4), NodeId(3)], until, now());
        run(&mut graph, 4, &sym, &mut two_hop, &mut topo);
        assert_eq!(graph.stats().skipped, 2);
        // Once 1 drops 3, the tree edge goes and 3 hangs off 2.
        topo.apply_tc(NodeId(1), 2, &[], until, now());
        run(&mut graph, 5, &sym, &mut two_hop, &mut topo);
        assert_eq!(graph.stats().skipped, 2);
        assert_eq!(tree(&graph, 5, 3, 1), TreeRoute::Avoids);
        assert_eq!(tree(&graph, 5, 3, 2), TreeRoute::Passes);
    }

    #[test]
    fn runs_resume_at_the_first_dequeue_a_change_can_alter() {
        // A line 0 - 1 - 2 - … - 9 of TC links: dequeue i scans vertex i.
        let until = SimTime::from_secs(1_000);
        let mut topo = TopologySet::default();
        for i in 1..9u32 {
            topo.apply_tc(NodeId(i), 1, &[NodeId(i + 1)], until, now());
        }
        let mut two_hop = no2h();
        let sym = [NodeId(1)];
        let mut graph = RoutingGraph::new(NodeId(0));
        run(&mut graph, 1, &sym, &mut two_hop, &mut topo);
        let scanned = |graph: &RoutingGraph| graph.stats().scanned;
        assert_eq!(scanned(&graph), 1 + 1 + 2 * 7 + 1, "a full search scans every entry");
        // A new vertex hung off 8: only dequeue 8 and later ones rerun.
        let before = scanned(&graph);
        topo.apply_tc(NodeId(8), 2, &[NodeId(9), NodeId(20)], until, now());
        run(&mut graph, 2, &sym, &mut two_hop, &mut topo);
        assert_eq!(scanned(&graph) - before, 3 + 1 + 1, "vertices 8, 9 and 20");
        // A shortcut from 2 to 7 moves 7 and everything after it: the
        // search resumes at dequeue 2, which scans the shortcut's entry too.
        let before = scanned(&graph);
        two_hop.upsert(NodeId(2), NodeId(7), until, now());
        run(&mut graph, 3, &sym, &mut two_hop, &mut topo);
        assert_eq!(scanned(&graph) - before, 21 - 2, "all but the lists of 0 and 1");
        // Withdrawn again, the shortcut was a tree edge: dequeue 2 reruns.
        let before = scanned(&graph);
        two_hop.remove(NodeId(2), NodeId(7));
        run(&mut graph, 4, &sym, &mut two_hop, &mut topo);
        assert_eq!(scanned(&graph) - before, 19 - 2);
        // A 2-hop pair between two ids nobody reaches, and a link between
        // 9 and 20, both on level 9: nothing to search.
        let skipped = graph.stats().skipped;
        two_hop.upsert(NodeId(30), NodeId(31), until, now());
        topo.apply_tc(NodeId(9), 1, &[NodeId(20)], until, now());
        run(&mut graph, 5, &sym, &mut two_hop, &mut topo);
        assert_eq!(graph.stats().skipped, skipped + 1);
        // `me`'s neighbors change: a full search.
        let before = scanned(&graph);
        run(&mut graph, 6, &[NodeId(1), NodeId(9)], &mut two_hop, &mut topo);
        assert_eq!(scanned(&graph) - before, 2 + 1 + 2 * 6 + 3 + 2 + 2);
    }

    /// A change to the inputs of a route run, as the white-box oracle
    /// below drives them.
    #[derive(Debug, Clone)]
    enum Change {
        /// A TC from `origin` advertising `dests`, replacing its last set.
        Tc { origin: u32, dests: Vec<u32> },
        /// The 2-hop pair `(via, two_hop)` heard, or gone.
        TwoHop { via: u32, two_hop: u32, heard: bool },
        /// The symmetric neighbors become `ids`, in that order.
        Sym { ids: Vec<u32> },
        /// A masked search around `avoided`.
        Reroute { avoided: u32 },
        /// A route run.
        Run,
    }

    fn changes() -> impl proptest::strategy::Strategy<Value = Vec<Change>> {
        use proptest::prelude::*;
        let ids = || proptest::collection::vec(1u32..12, 0..5);
        let change = (0u8..10, 1u32..12, 1u32..12, ids(), any::<bool>()).prop_map(
            |(k, a, b, list, heard)| match k {
                0..=2 => Change::Tc { origin: a, dests: list },
                3..=5 => Change::TwoHop { via: a, two_hop: b, heard },
                6 => Change::Sym { ids: list },
                7 => Change::Reroute { avoided: a },
                _ => Change::Run,
            },
        );
        proptest::collection::vec(change, 0..80)
    }

    proptest::proptest! {
        #[test]
        fn kept_search_equals_a_full_one_after_every_run(changes in changes()) {
            // `run` checks the routes against the one-shot calculation and
            // the kept order, positions, reach and parents against a full
            // search, whether the run resumed, started over or searched
            // nothing.
            let until = SimTime::from_secs(1_000);
            let mut graph = RoutingGraph::new(NodeId(0));
            let (mut two_hop, mut topo) = (no2h(), TopologySet::default());
            let mut sym = vec![NodeId(1), NodeId(2)];
            let mut ansn = 0u16;
            let mut generation = 0;
            for change in changes {
                match change {
                    Change::Tc { origin, dests } => {
                        ansn += 1;
                        let dests: Vec<NodeId> = dests.into_iter().map(NodeId).collect();
                        topo.apply_tc(NodeId(origin), ansn, &dests, until, now());
                    }
                    Change::TwoHop { via, two_hop: th, heard: true } => {
                        two_hop.upsert(NodeId(via), NodeId(th), until, now());
                    }
                    Change::TwoHop { via, two_hop: th, heard: false } => {
                        two_hop.remove(NodeId(via), NodeId(th));
                    }
                    Change::Sym { ids } => sym = ids.into_iter().map(NodeId).collect(),
                    Change::Reroute { avoided } => {
                        graph.reroute(&mut RoutingTable::default(), NodeId(avoided));
                    }
                    Change::Run => {
                        generation += 1;
                        run(&mut graph, generation, &sym, &mut two_hop, &mut topo);
                    }
                }
            }
        }
    }

    #[test]
    fn max_id_tuples_cost_one_slot() {
        // A 2-hop tuple and a TC tuple naming the largest id: the old dense
        // buffers were sized `id + 1` and would abort on it.
        let far = NodeId(u32::MAX);
        let mut two_hop = TwoHopSet::default();
        two_hop.upsert(NodeId(1), far, SimTime::from_secs(1_000), now());
        let mut topo = topo_multi(&[(2, &[u32::MAX, 3])]);
        let mut graph = RoutingGraph::new(NodeId(0));
        let table = run(&mut graph, 1, &[NodeId(1), NodeId(2)], &mut two_hop, &mut topo);
        let dests: Vec<NodeId> = table.iter().map(|r| r.dest).collect();
        assert_eq!(dests, vec![NodeId(1), NodeId(2), NodeId(3), far]);
        let r = table.route_to(far).unwrap();
        assert_eq!((r.next_hop, r.hops), (NodeId(1), 2));
        // Scratch holds the five ids met, not the largest id's worth.
        assert_eq!(graph.ids.len(), 5);
        assert_eq!(graph.reach.len(), 5);
        assert_eq!(graph.index.capacity(), MIN_TABLE);
    }

    #[test]
    fn interner_forgets_ids_no_longer_heard() {
        // 300 sparse ids force several table doublings. Once a newer TC
        // withdraws them, their slots are freed, the graph shrinks back to
        // the few ids still heard, and a later wide TC reuses the slots.
        // Routes match the one-shot computation throughout.
        let until = SimTime::from_secs(1_000);
        let wide: Vec<NodeId> = (1..=300u32).map(|i| NodeId(i * 14_000_000)).collect();
        let mut topo = TopologySet::default();
        let mut two_hop = no2h();
        let mut graph = RoutingGraph::new(NodeId(0));
        let sym = [NodeId(1)];
        topo.apply_tc(NodeId(1), 1, &wide, until, now());
        assert_eq!(run(&mut graph, 1, &sym, &mut two_hop, &mut topo).len(), 301);
        assert_eq!(graph.ids.len(), 302);
        assert!(graph.index.capacity() >= 2 * graph.ids.len());
        topo.apply_tc(NodeId(1), 2, &[NodeId(2)], until, now());
        assert_eq!(run(&mut graph, 2, &sym, &mut two_hop, &mut topo).len(), 2);
        assert_eq!((graph.ids.len(), graph.by_id.len()), (3, 3), "slots of me, 1 and 2");
        assert_eq!(graph.index.capacity(), MIN_TABLE);
        assert!(graph.adj.len() < 8, "{} adjacency lists kept", graph.adj.len());
        topo.apply_tc(NodeId(1), 3, &wide, until, now());
        assert_eq!(run(&mut graph, 3, &sym, &mut two_hop, &mut topo).len(), 301);
        assert_eq!(graph.ids.len(), 302, "freed slots reused, none added past the live ids");
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
        let mut graph = RoutingGraph::new(NodeId(0));
        let mut table = RoutingTable::default();
        graph.run(&mut table, 1, &[NodeId(1)], &mut no2h(), &mut topo_multi(&[(1, &crafted)]));
        assert_eq!(table.len(), 2001);
        let longest = graph.index.longest_run();
        assert!(longest < 200, "a probe run of {longest} entries");
    }

    #[test]
    fn lists_keep_rebuild_order_through_changes() {
        // Both kinds name the same links, both ways round, so vertices
        // hold duplicate entries whose order is the whole point; removals
        // and re-insertions land each entry where a rebuild would push it.
        let until = SimTime::from_secs(1_000);
        let mut graph = RoutingGraph::new(NodeId(0));
        let mut two_hop = no2h();
        let mut topo = TopologySet::default();
        let sym = [NodeId(5), NodeId(1), NodeId(3)];
        for (i, &(a, b)) in [(1, 7), (3, 7), (5, 7), (7, 9), (9, 3)].iter().enumerate() {
            topo.apply_tc(NodeId(a), i as u16, &[NodeId(b)], until, now());
            two_hop.upsert(NodeId(b), NodeId(a), until, now());
        }
        let rebuilt =
            |graph: &RoutingGraph, sym: &[NodeId], two_hop: &TwoHopSet, topo: &TopologySet| {
                let mut fresh = RoutingGraph::new(NodeId(0));
                fresh.run(
                    &mut RoutingTable::default(),
                    0,
                    sym,
                    &mut two_hop.clone(),
                    &mut topo.clone(),
                );
                let lists = |g: &RoutingGraph| -> BTreeMap<NodeId, Vec<(NodeId, u32)>> {
                    g.by_id
                        .iter()
                        .map(|&s| {
                            let list = g.adj[s as usize].iter();
                            let list =
                                list.map(|&e| (g.ids[(e & SLOT) as usize], e & !SLOT)).collect();
                            (g.ids[s as usize], list)
                        })
                        .collect()
                };
                assert_eq!(lists(graph), lists(&fresh));
            };
        run(&mut graph, 1, &sym, &mut two_hop, &mut topo);
        rebuilt(&graph, &sym, &two_hop, &topo);
        two_hop.remove(NodeId(7), NodeId(3));
        topo.apply_tc(NodeId(7), 9, &[NodeId(9), NodeId(1)], until, now());
        topo.apply_tc(NodeId(3), 9, &[], until, now());
        run(&mut graph, 2, &sym, &mut two_hop, &mut topo);
        rebuilt(&graph, &sym, &two_hop, &topo);
        two_hop.upsert(NodeId(7), NodeId(3), until, now());
        topo.apply_tc(NodeId(3), 10, &[NodeId(7)], until, now());
        run(&mut graph, 3, &sym[1..], &mut two_hop, &mut topo);
        rebuilt(&graph, &sym[1..], &two_hop, &topo);
    }

    #[test]
    fn a_log_that_overflowed_reloads_its_set() {
        // More changes between two runs than replaying them is worth: the
        // set stops recording, and the next run loads it whole. A new graph
        // meeting copies of followed sets loads them too. The routes stay
        // exact throughout.
        let until = SimTime::from_secs(1_000);
        let mut graph = RoutingGraph::new(NodeId(0));
        let mut two_hop = no2h();
        let mut topo = topo_multi(&[(1, &[2]), (2, &[3])]);
        let sym = [NodeId(1)];
        run(&mut graph, 1, &sym, &mut two_hop, &mut topo);
        assert!(topo.pairs.followed());
        for ansn in 2..200u16 {
            let dests: Vec<NodeId> =
                (0..u32::from(ansn % 5)).map(|d| NodeId(10 + u32::from(ansn) + d)).collect();
            topo.apply_tc(NodeId(2), ansn, &dests, until, now());
        }
        assert!(!topo.pairs.followed(), "the log gave up");
        run(&mut graph, 2, &sym, &mut two_hop, &mut topo);
        assert!(topo.pairs.followed());
        topo.apply_tc(NodeId(2), 300, &[NodeId(3)], until, now());
        // Copies carry the log the first graph follows; a new graph loads
        // them whole.
        let (mut two_hop_copy, mut topo_copy) = (two_hop.clone(), topo.clone());
        run(&mut RoutingGraph::new(NodeId(0)), 1, &sym, &mut two_hop_copy, &mut topo_copy);
        topo.apply_tc(NodeId(2), 301, &[NodeId(4)], until, now());
        run(&mut graph, 3, &sym, &mut two_hop, &mut topo);
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
