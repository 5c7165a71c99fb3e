//! The OLSR information repositories (RFC 3626 §4.2–§4.4): the neighbor
//! table (link set and MPR selector set, one row per neighbor), neighbor
//! set, 2-hop neighbor set, topology set and duplicate set.
//!
//! Every repository is a collection of *tuples valid until a time*. Two
//! invariants make the incremental recompute pipeline possible:
//!
//! 1. **Every read is time-aware.** A tuple whose expiry has passed is
//!    semantically absent from every query, whether or not it has been
//!    physically removed. Purging is therefore pure garbage collection:
//!    *when* a purge runs can never change protocol behaviour, only
//!    memory usage and the timing of the corresponding audit-log lines.
//! 2. **Purges are min-expiry gated.** Each repository tracks a lower
//!    bound on the earliest expiry it contains; [`purge`](NeighborTable::purge)
//!    returns immediately while `now` has not reached it. A sweep only
//!    ever touches tuples when something may actually have expired,
//!    instead of scanning the whole set after every received packet.
//!
//! The `purge` family removes expired entries and reports only what a
//! caller reads: the 2-hop pairs dropped (each becomes a `2HOP_LOST`
//! audit-log line), whether the topology lost any tuple (which
//! invalidates the routing table), and the TC reception clocks that lapse
//! before the log reported them (each becomes a `TC_HEARD` line).

use std::collections::BTreeMap;

use trustlink_sim::record::Willingness;
use trustlink_sim::{NodeId, SimTime};

use crate::idhash::{IdHash, IdSlots};
use crate::types::SequenceNumber;

/// The sensed status of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkStatus {
    /// Verified bidirectional.
    Symmetric,
    /// Heard one-way only.
    Asymmetric,
    /// Expired or declared lost.
    Lost,
}

/// The smallest expiry in a set of candidate times, tracked as a *lower
/// bound*: extending a tuple's validity does not raise the bound, so a
/// purge may occasionally scan and find nothing — but a purge can never be
/// missed. Purge passes recompute the exact minimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MinExpiry(SimTime);

impl Default for MinExpiry {
    fn default() -> Self {
        MinExpiry(SimTime::MAX)
    }
}

impl MinExpiry {
    /// Lowers the bound to cover a tuple expiring at `until`.
    #[inline]
    pub(crate) fn cover(&mut self, until: SimTime) {
        self.0 = self.0.min(until);
    }

    /// `true` when nothing can have expired yet: the purge may skip.
    #[inline]
    pub(crate) fn nothing_due(&self, now: SimTime) -> bool {
        self.0 > now
    }

    #[inline]
    pub(crate) fn reset(&mut self) {
        self.0 = SimTime::MAX;
    }
}

/// The stored pairs of a 2-hop or topology set as a routing graph follows
/// them: how many there are, and the pairs inserted or removed since the
/// graph last took them, in order.
///
/// A change is recorded as its pair alone: the pairs stored at the graph's
/// last run are in the graph, so each recorded pair toggles it, in turn,
/// from its state there. A set records changes only while a graph follows
/// it: from the graph's first run, which loads every stored pair, until
/// more changes pile up than replaying them is worth. The log then drops
/// them, and the graph's next run loads the set again. A set no graph
/// follows records nothing, so the log never grows without bound.
#[derive(Debug, Clone, Default)]
pub(crate) struct PairLog {
    /// Stored pairs, live or not.
    len: usize,
    /// `(a, b)` of each pair inserted or removed: a 2-hop pair's
    /// `(via, two_hop)`, a topology tuple's `(last_hop, dest)`.
    changes: Vec<(NodeId, NodeId)>,
    followed: bool,
}

impl PairLog {
    /// A log drained with more room than this gives it back: a burst of
    /// changes while the network converges does not stay resident.
    const KEPT: usize = 16;

    #[inline]
    fn record(&mut self, a: NodeId, b: NodeId, inserted: bool) {
        if inserted {
            self.len += 1;
        } else {
            self.len -= 1;
        }
        if !self.followed {
            return;
        }
        // Past this many, loading the set costs about what replaying the
        // changes does.
        if self.changes.len() > 2 * self.len + 64 {
            self.unfollow();
        } else {
            self.changes.push((a, b));
        }
    }

    /// Whether a graph follows the set: the changes since its last run are
    /// all here.
    pub(crate) fn followed(&self) -> bool {
        self.followed
    }

    /// Hands each recorded pair to `toggle`, oldest first, and empties the
    /// log.
    pub(crate) fn drain(&mut self, mut toggle: impl FnMut(NodeId, NodeId)) {
        for &(a, b) in &self.changes {
            toggle(a, b);
        }
        self.changes.clear();
        if self.changes.capacity() > Self::KEPT {
            self.changes.shrink_to(Self::KEPT);
        }
    }

    /// Starts recording afresh: a graph just loaded every stored pair.
    pub(crate) fn follow(&mut self) {
        self.followed = true;
        self.changes.clear();
    }

    /// Stops recording: the next graph run loads every stored pair.
    pub(crate) fn unfollow(&mut self) {
        self.followed = false;
        self.changes = Vec::new();
    }
}

/// One neighbor's row of the [`NeighborTable`]: the link this node sensed
/// to it (RFC 3626 §4.2.1) and its selection of this node as MPR (§4.3.4).
/// A flood copy's forwarding gates read both, from these 32 bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NeighborRow {
    /// Until when the link counts as symmetric.
    pub sym_until: SimTime,
    /// Until when the link counts as heard (asymmetric).
    pub asym_until: SimTime,
    /// When the link tuple expires, and the row with it.
    pub until: SimTime,
    /// Until when the neighbor selects this node as its MPR; zero when it
    /// does not. Never past `until`: a HELLO sets both from its hold time,
    /// and `until` only extends.
    pub selected_until: SimTime,
}

impl NeighborRow {
    /// Link status at `now`: symmetric beats asymmetric beats lost.
    #[inline]
    pub fn status(&self, now: SimTime) -> LinkStatus {
        if self.sym_until > now {
            LinkStatus::Symmetric
        } else if self.asym_until > now {
            LinkStatus::Asymmetric
        } else {
            LinkStatus::Lost
        }
    }

    /// `true` when the neighbor selects this node as MPR at `now`.
    #[inline]
    pub fn selects_us(&self, now: SimTime) -> bool {
        self.selected_until > now
    }
}

/// The neighbor table: one row per neighbor this node sensed a link to,
/// holding the link tuple (the RFC's link set), the neighbor's selection of
/// this node as MPR (the MPR selector set) and the symmetric set its last
/// logged `HELLO_RX` claimed, which keeps a HELLO repeating it out of the
/// audit log.
///
/// The three share one lifetime. A selection never outlives the link
/// tuple, and the claim is consulted only while the tuple is live. So a
/// row holds all three and goes when its link tuple expires: a HELLO finds
/// or makes its sender's row once, and a flood copy's gates read one row.
///
/// The rows live in a slot arena, each column indexed by slot: the rows
/// the gates read, and the claims only a HELLO reads. Beside them a dense
/// index lists every neighbor and its slot, ascending by neighbor: a
/// lookup binary-searches it, and iteration follows it. A new neighbor
/// shifts only the 8-byte index entries above it, so forged HELLOs from
/// thousands of senders, in any id order, move little memory. The table
/// is sized by the neighbors held, never by id value, and allocates
/// nothing before the first HELLO.
///
/// Every read is time-aware, so a row made and not yet given a link, or
/// one expired and not yet purged, is absent from every query that takes
/// `now`.
#[derive(Debug, Clone, Default)]
pub struct NeighborTable {
    /// Every neighbor with a row, and the row's slot, ascending by
    /// neighbor.
    index: Vec<(NodeId, u32)>,
    /// Per slot, the link and selection; a free slot's is all zero.
    rows: Vec<NeighborRow>,
    /// Per slot, the symmetric set the last logged HELLO claimed.
    claims: Vec<Vec<NodeId>>,
    /// Free slots, the last freed on top; room for every slot.
    free: Vec<u32>,
    /// Lower bound on the earliest link expiry.
    min_expiry: MinExpiry,
}

/// One row of a [`NeighborTable`] open for update, found or made by
/// [`NeighborTable::entry`].
#[derive(Debug)]
pub struct NeighborEntry<'a> {
    row: &'a mut NeighborRow,
    claim: &'a mut Vec<NodeId>,
    min_expiry: &'a mut MinExpiry,
}

impl NeighborEntry<'_> {
    /// The row as it stands: all zero times when just made.
    #[inline]
    pub fn row(&self) -> &NeighborRow {
        self.row
    }

    /// Merges a sensed link into the row. Times only ever extend; purging
    /// is how they shrink.
    #[inline]
    pub fn sense(&mut self, sym_until: SimTime, asym_until: SimTime, until: SimTime) {
        self.min_expiry.cover(until);
        let row = &mut *self.row;
        row.sym_until = row.sym_until.max(sym_until);
        row.asym_until = row.asym_until.max(asym_until);
        row.until = row.until.max(until);
    }

    /// Forces the symmetric validity to expire at `now`: a HELLO declared
    /// the link `LOST`.
    #[inline]
    pub fn declare_lost(&mut self, now: SimTime) {
        self.row.sym_until = now;
    }

    /// Records that the neighbor selects this node as MPR until `until`,
    /// which must not pass the link tuple's expiry. A stored selection
    /// only extends; an expired one is revived.
    #[inline]
    pub fn select(&mut self, until: SimTime) {
        debug_assert!(until <= self.row.until, "a selection outliving its link");
        self.row.selected_until = self.row.selected_until.max(until);
    }

    /// Drops the neighbor's selection of this node.
    #[inline]
    pub fn unselect(&mut self) {
        self.row.selected_until = SimTime::ZERO;
    }

    /// The symmetric set the last logged HELLO from the neighbor claimed,
    /// to compare and overwrite; empty in a row just made.
    #[inline]
    pub fn claim_mut(&mut self) -> &mut Vec<NodeId> {
        self.claim
    }
}

impl NeighborTable {
    /// The rows the first HELLO makes room for.
    const FIRST: usize = 16;

    /// The slot of `neighbor`'s row, or where its index entry goes.
    #[inline]
    fn search(&self, neighbor: NodeId) -> Result<usize, usize> {
        match self.index.binary_search_by_key(&neighbor, |&(n, _)| n) {
            Ok(i) => Ok(self.index[i].1 as usize),
            Err(i) => Err(i),
        }
    }

    /// The row of `neighbor`, live or not.
    #[inline]
    pub fn get(&self, neighbor: NodeId) -> Option<&NeighborRow> {
        self.search(neighbor).ok().map(|slot| &self.rows[slot])
    }

    /// The row of `neighbor`, made empty on first sight: one search for
    /// everything a HELLO updates.
    #[inline]
    pub fn entry(&mut self, neighbor: NodeId) -> NeighborEntry<'_> {
        let slot = match self.search(neighbor) {
            Ok(slot) => slot,
            Err(at) => self.insert(at, neighbor),
        };
        NeighborEntry {
            row: &mut self.rows[slot],
            claim: &mut self.claims[slot],
            min_expiry: &mut self.min_expiry,
        }
    }

    /// Gives `neighbor`, which has no row, an empty one, in the last freed
    /// slot or a new one, and its index entry at `at`.
    #[cold]
    fn insert(&mut self, at: usize, neighbor: NodeId) -> usize {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                if self.rows.capacity() == 0 {
                    // Room for a typical neighborhood at once, instead of
                    // doubling up to it from one row.
                    self.index.reserve_exact(Self::FIRST);
                    self.rows.reserve_exact(Self::FIRST);
                    self.claims.reserve_exact(Self::FIRST);
                }
                self.rows.push(NeighborRow::default());
                self.claims.push(Vec::new());
                // Room for every slot, so a purge never allocates.
                let room = self.rows.capacity();
                if self.free.capacity() < room {
                    self.free.reserve_exact(room - self.free.len());
                }
                u32::try_from(self.rows.len() - 1).expect("fewer than 2^32 neighbors")
            }
        };
        self.index.insert(at, (neighbor, slot));
        slot as usize
    }

    /// Drops `neighbor`'s selection of this node, if it has a row.
    #[inline]
    pub fn unselect(&mut self, neighbor: NodeId) {
        if let Ok(slot) = self.search(neighbor) {
            self.rows[slot].selected_until = SimTime::ZERO;
        }
    }

    /// `true` when the link to `neighbor` is symmetric at `now`.
    #[inline]
    pub fn is_symmetric(&self, neighbor: NodeId, now: SimTime) -> bool {
        self.get(neighbor).is_some_and(|r| r.status(now) == LinkStatus::Symmetric)
    }

    /// Neighbors with a symmetric link at `now`, ascending.
    pub fn symmetric_neighbors(&self, now: SimTime) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.symmetric_neighbors_into(now, &mut out);
        out
    }

    /// Allocation-free form of [`NeighborTable::symmetric_neighbors`]:
    /// `out` is cleared and refilled (ascending).
    #[inline]
    pub fn symmetric_neighbors_into(&self, now: SimTime, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(
            self.iter().filter(|(_, r)| r.status(now) == LinkStatus::Symmetric).map(|(n, _)| n),
        );
    }

    /// Neighbors selecting this node as MPR at `now`, ascending.
    pub fn selector_addrs(&self, now: SimTime) -> Vec<NodeId> {
        self.iter().filter(|(_, r)| r.selects_us(now)).map(|(n, _)| n).collect()
    }

    /// The symmetric set the last logged HELLO from `neighbor` claimed,
    /// while it has a row.
    pub fn claim(&self, neighbor: NodeId) -> Option<&[NodeId]> {
        self.search(neighbor).ok().map(|slot| &self.claims[slot][..])
    }

    /// Removes the rows whose link tuple expired at `now`, claims and
    /// selections with them, and frees their slots. Min-expiry gated:
    /// free while nothing can have expired.
    #[inline]
    pub fn purge(&mut self, now: SimTime) {
        if self.min_expiry.nothing_due(now) {
            return;
        }
        self.min_expiry.reset();
        let NeighborTable { index, rows, claims, free, min_expiry } = self;
        index.retain(|&(_, slot)| {
            let s = slot as usize;
            let until = rows[s].until;
            if until > now {
                min_expiry.cover(until);
                return true;
            }
            rows[s] = NeighborRow::default();
            claims[s] = Vec::new();
            free.push(slot);
            false
        });
    }

    /// Number of rows (including expired-but-unpurged ones).
    #[inline]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no link has been sensed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Iterates over every row, live or not, ascending by neighbor.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NeighborRow)> {
        self.index.iter().map(|&(n, slot)| (n, &self.rows[slot as usize]))
    }
}

/// A 1-hop neighbor entry (RFC 3626 §4.3.1): status + willingness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeighborTuple {
    /// The neighbor's main address.
    pub addr: NodeId,
    /// Its last advertised willingness.
    pub willingness: Willingness,
}

/// The neighbor set, derived from the link set but carrying willingness.
#[derive(Debug, Clone, Default)]
pub struct NeighborSet {
    tuples: BTreeMap<NodeId, NeighborTuple>,
}

impl NeighborSet {
    /// Inserts or updates a neighbor. Returns `true` when the entry is new
    /// or its willingness actually changed — the only neighbor-set updates
    /// that can alter MPR selection.
    #[inline]
    pub fn upsert(&mut self, addr: NodeId, willingness: Willingness) -> bool {
        match self.tuples.entry(addr) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let changed = e.get().willingness != willingness;
                e.get_mut().willingness = willingness;
                changed
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(NeighborTuple { addr, willingness });
                true
            }
        }
    }

    /// Removes a neighbor, returning whether it existed.
    #[inline]
    pub fn remove(&mut self, addr: NodeId) -> bool {
        self.tuples.remove(&addr).is_some()
    }

    /// Looks up a neighbor.
    pub fn get(&self, addr: NodeId) -> Option<&NeighborTuple> {
        self.tuples.get(&addr)
    }

    /// `true` when `addr` is currently a neighbor.
    #[inline]
    pub fn contains(&self, addr: NodeId) -> bool {
        self.tuples.contains_key(&addr)
    }

    /// All neighbors ascending by address.
    pub fn iter(&self) -> impl Iterator<Item = &NeighborTuple> {
        self.tuples.values()
    }

    /// Addresses of all neighbors, ascending.
    pub fn addrs(&self) -> Vec<NodeId> {
        self.tuples.keys().copied().collect()
    }

    /// Number of neighbors.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` when there are no neighbors.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// A 2-hop neighbor entry (RFC 3626 §4.3.2): reachable `two_hop` via the
/// symmetric 1-hop neighbor `via`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TwoHopTuple {
    /// The 1-hop neighbor providing reachability.
    pub via: NodeId,
    /// The 2-hop neighbor reached.
    pub two_hop: NodeId,
    /// Valid until this instant.
    pub until: SimTime,
}

/// The 2-hop neighbor set, kept as one run per `via`, each sorted by the
/// 2-hop address. A HELLO refreshes its sender's pairs through one map
/// lookup plus a binary search per pair in a contiguous run, and dropping
/// every pair of one `via` empties one run, where a map keyed by the pair
/// descends once per pair. Iteration and purge output follow ascending
/// `(via, two_hop)` order, exactly as a pair-keyed map would.
#[derive(Debug, Clone, Default)]
pub struct TwoHopSet {
    runs: BTreeMap<NodeId, Vec<TwoHopTuple>>,
    /// Stored pairs over all runs, and their changes for a routing graph.
    pub(crate) pairs: PairLog,
    min_expiry: MinExpiry,
}

impl TwoHopSet {
    /// The run of `via`, ascending by 2-hop address (empty if none).
    #[inline]
    fn run(&self, via: NodeId) -> &[TwoHopTuple] {
        self.runs.get(&via).map_or(&[], Vec::as_slice)
    }

    /// Inserts or refreshes the pair `(via, two_hop)` as of `now`. Returns
    /// `true` when the live content changed: the pair is new, or it existed
    /// only as an expired leftover. A pure refresh of a live pair returns
    /// `false` — it cannot alter MPR selection or routing.
    pub fn upsert(&mut self, via: NodeId, two_hop: NodeId, until: SimTime, now: SimTime) -> bool {
        let mut changed = false;
        self.upsert_via(via, [two_hop], until, now, |_| changed = true);
        changed
    }

    /// [`upsert`](Self::upsert)s `(via, t)` for each `t` of `two_hops`, in
    /// order, through one lookup of `via`'s run: a HELLO's claimed
    /// symmetric set in one call. `on_live(t)` is called for each pair
    /// whose `upsert` would return `true`, in the same order.
    pub fn upsert_via(
        &mut self,
        via: NodeId,
        two_hops: impl IntoIterator<Item = NodeId>,
        until: SimTime,
        now: SimTime,
        mut on_live: impl FnMut(NodeId),
    ) {
        let mut two_hops = two_hops.into_iter().peekable();
        if two_hops.peek().is_none() {
            return;
        }
        self.min_expiry.cover(until);
        let run = self.runs.entry(via).or_default();
        for two_hop in two_hops {
            match run.binary_search_by_key(&two_hop, |t| t.two_hop) {
                Ok(i) => {
                    let t = &mut run[i];
                    let was_live = t.until > now;
                    t.until = t.until.max(until);
                    if !was_live {
                        on_live(two_hop);
                    }
                }
                Err(i) => {
                    run.insert(i, TwoHopTuple { via, two_hop, until });
                    self.pairs.record(via, two_hop, true);
                    on_live(two_hop);
                }
            }
        }
    }

    /// Removes every pair advertised through `via` (when a HELLO from `via`
    /// declares the link lost, or the neighbor drops out of the symmetric
    /// set). Returns how many removed pairs were still live at `now` — with
    /// the `via`-bounded validity invariant the reception path maintains,
    /// sweep-time calls always find 0 live pairs (pure GC). The run keeps
    /// its storage for the next upsert through `via`; a purge drops runs
    /// that stay empty.
    #[inline]
    pub fn remove_via(&mut self, via: NodeId, now: SimTime) -> usize {
        let Some(run) = self.runs.get_mut(&via) else {
            return 0;
        };
        let live = run.iter().filter(|t| t.until > now).count();
        for t in run.drain(..) {
            self.pairs.record(via, t.two_hop, false);
        }
        live
    }

    /// Removes one specific pair.
    pub fn remove(&mut self, via: NodeId, two_hop: NodeId) -> bool {
        let Some(run) = self.runs.get_mut(&via) else {
            return false;
        };
        let Ok(i) = run.binary_search_by_key(&two_hop, |t| t.two_hop) else {
            return false;
        };
        run.remove(i);
        self.pairs.record(via, two_hop, false);
        true
    }

    /// All distinct 2-hop addresses at `now`, ascending, excluding `me` and
    /// excluding addresses in `exclude` (RFC: a 2-hop neighbor that is also
    /// a 1-hop neighbor does not need covering).
    pub fn two_hop_addrs(&self, now: SimTime, me: NodeId, exclude: &[NodeId]) -> Vec<NodeId> {
        let mut ex: Vec<NodeId> = exclude.to_vec();
        ex.sort_unstable();
        let mut out = Vec::new();
        self.two_hop_addrs_into(now, me, &ex, &mut out);
        out
    }

    /// Allocation-free form of [`TwoHopSet::two_hop_addrs`]: `exclude`
    /// must be sorted ascending, `out` is cleared and refilled.
    pub fn two_hop_addrs_into(
        &self,
        now: SimTime,
        me: NodeId,
        exclude: &[NodeId],
        out: &mut Vec<NodeId>,
    ) {
        debug_assert!(exclude.windows(2).all(|w| w[0] <= w[1]), "exclude must be sorted");
        out.clear();
        out.extend(
            self.iter(now)
                .map(|t| t.two_hop)
                .filter(|th| *th != me && exclude.binary_search(th).is_err()),
        );
        out.sort_unstable();
        out.dedup();
    }

    /// The 2-hop addresses reachable via `via` at `now`.
    pub fn reachable_via(&self, via: NodeId, now: SimTime) -> Vec<NodeId> {
        self.iter_via(via, now).collect()
    }

    /// Iterates the 2-hop addresses reachable via `via` at `now` without
    /// allocating (ascending: `via`'s run in order).
    pub fn iter_via(&self, via: NodeId, now: SimTime) -> impl Iterator<Item = NodeId> + '_ {
        self.run(via).iter().filter(move |t| t.until > now).map(|t| t.two_hop)
    }

    /// `true` when the pair `(via, two_hop)` is live at `now`: the point
    /// form of [`TwoHopSet::reachable_via`]`.contains(…)`.
    #[inline]
    pub fn contains(&self, via: NodeId, two_hop: NodeId, now: SimTime) -> bool {
        let run = self.run(via);
        run.binary_search_by_key(&two_hop, |t| t.two_hop).is_ok_and(|i| run[i].until > now)
    }

    /// The 1-hop neighbors through which `two_hop` is reachable at `now`.
    pub fn vias_for(&self, two_hop: NodeId, now: SimTime) -> Vec<NodeId> {
        self.iter_vias_for(two_hop, now).collect()
    }

    /// Iterates [`TwoHopSet::vias_for`] without allocating (ascending): one
    /// binary search per via's run, so the cost follows the number of vias,
    /// not the set size.
    pub fn iter_vias_for(
        &self,
        two_hop: NodeId,
        now: SimTime,
    ) -> impl Iterator<Item = NodeId> + '_ {
        self.runs.iter().filter_map(move |(&via, run)| {
            let i = run.binary_search_by_key(&two_hop, |t| t.two_hop).ok()?;
            (run[i].until > now).then_some(via)
        })
    }

    /// Drops expired pairs and runs left empty; returns the removed
    /// `(via, two_hop)` pairs, ascending. Min-expiry gated: free while
    /// nothing can have expired.
    #[inline]
    pub fn purge(&mut self, now: SimTime) -> Vec<(NodeId, NodeId)> {
        let mut dead = Vec::new();
        if self.min_expiry.nothing_due(now) {
            return dead;
        }
        self.min_expiry.reset();
        let (min_expiry, pairs) = (&mut self.min_expiry, &mut self.pairs);
        self.runs.retain(|&via, run| {
            run.retain(|t| {
                if t.until <= now {
                    dead.push((via, t.two_hop));
                    pairs.record(via, t.two_hop, false);
                    false
                } else {
                    min_expiry.cover(t.until);
                    true
                }
            });
            !run.is_empty()
        });
        dead
    }

    /// Iterates all live tuples at `now`, ascending by `(via, two_hop)`.
    pub fn iter(&self, now: SimTime) -> impl Iterator<Item = TwoHopTuple> + '_ {
        self.runs.values().flatten().filter(move |t| t.until > now).copied()
    }

    /// Every stored pair `(via, two_hop)`, live or not, ascending.
    pub(crate) fn stored_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.runs.values().flatten().map(|t| (t.via, t.two_hop))
    }

    /// Number of stored pairs (live or not).
    pub fn len(&self) -> usize {
        self.pairs.len
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.len == 0
    }
}

/// A topology tuple (RFC 3626 §4.4): `dest` is reachable in the last hop
/// through `last_hop` (an MPR of `dest`), per a TC with sequence `ansn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyTuple {
    /// The advertised destination (an MPR selector of `last_hop`).
    pub dest: NodeId,
    /// The TC originator (the MPR).
    pub last_hop: NodeId,
    /// ANSN carried by the TC that created this tuple.
    pub ansn: u16,
    /// Valid until this instant.
    pub until: SimTime,
}

/// A topology tuple as its originator's record stores it, the originator
/// left out: 16 bytes, so a TC's pass over its originator's tuples reads
/// four to a cache line.
#[derive(Debug, Clone, Copy)]
struct StoredTuple {
    dest: NodeId,
    ansn: u16,
    until: SimTime,
}

/// Everything a node holds about one TC originator: the topology tuples
/// its advertisements created, and the reception state of its TCs that
/// the audit log mirrors. The two expire independently: the tuples with
/// the TC that last refreshed each, the reception state with the latest TC
/// heard, applied or not.
#[derive(Debug, Clone, Default)]
struct TcRecord {
    /// The originator's tuples, live or not, ascending by destination.
    /// Every live one carries the ANSN of the last TC applied.
    tuples: Vec<StoredTuple>,
    /// The advertised set of the last `TC_RX` logged in full, in wire
    /// order, stored only when it differs from the destinations of
    /// `tuples` (expired ones included): `None` means it equals them. It
    /// differs after a stale ANSN (logged, not applied), a same-ANSN
    /// merge, a wire order other than ascending or a repeated address,
    /// and once a purge drops tuples the reception state outlives (the
    /// purge stores it first). Meaningless once the reception state
    /// lapsed.
    logged_set: Option<Box<[NodeId]>>,
    /// Validity of the latest TC heard: the reception state counts only
    /// while `until > now`. Zero once a purge processed its lapse, or
    /// before any TC was received.
    until: SimTime,
    /// When the latest TC arrived.
    heard: SimTime,
    /// The latest reception time the log has reported, by `TC_RX` or
    /// `TC_HEARD`.
    logged: SimTime,
}

impl TcRecord {
    /// The tuples a record keeps room for once its slot is freed: a larger
    /// buffer, left by an originator that advertised many, goes with it.
    const KEPT: usize = 16;

    fn dests(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.tuples.iter().map(|t| t.dest)
    }

    /// ANSN of the first live tuple: every live tuple carries the same.
    #[inline]
    fn live_ansn(&self, now: SimTime) -> Option<u16> {
        self.tuples.iter().find(|t| t.until > now).map(|t| t.ansn)
    }

    /// `true` when the last logged set is `advertised`, in wire order.
    fn logged_set_is(&self, advertised: impl Iterator<Item = NodeId>) -> bool {
        match &self.logged_set {
            Some(set) => set.iter().copied().eq(advertised),
            None => self.dests().eq(advertised),
        }
    }

    /// `true` when a TC carrying `ansn` and `advertised` only refreshes
    /// this record's tuples: every stored tuple is live under `ansn`, and
    /// their destinations are `advertised` in wire order.
    fn is_pure_refresh(
        &self,
        ansn: u16,
        advertised: impl Iterator<Item = NodeId>,
        now: SimTime,
    ) -> bool {
        let mut tuples = self.tuples.iter();
        for dest in advertised {
            match tuples.next() {
                Some(t) if t.dest == dest && t.ansn == ansn && t.until > now => {}
                _ => return false,
            }
        }
        tuples.next().is_none()
    }

    /// Applies a TC from `last_hop` to the tuples (RFC 3626 §9.5), recording
    /// every stored tuple it inserts or removes in `pairs`: a stale ANSN is
    /// ignored, a newer one replaces every tuple. Returns `true` if the
    /// *live* content changed.
    fn apply(
        &mut self,
        last_hop: NodeId,
        ansn: u16,
        dests: impl Iterator<Item = NodeId> + Clone,
        until: SimTime,
        now: SimTime,
        pairs: &mut PairLog,
    ) -> bool {
        let mut changed = false;
        if let Some(existing) = self.live_ansn(now) {
            let newer = SequenceNumber(ansn).is_newer_than(SequenceNumber(existing));
            if existing != ansn && !newer {
                return false; // stale information
            }
            if newer {
                // Dropping a *live* tuple is a topology change in itself —
                // a TC that withdraws links (down to an empty advertised
                // set) must re-trigger route calculation even when it
                // inserts nothing.
                changed = true;
                // Only the tuples the TC does not advertise again go: the
                // others are overwritten below, so the stored pairs change
                // only where the links do, and withdrawn links leave before
                // new ones arrive. A zero expiry (a received tuple's is
                // positive) marks the withdrawn ones meanwhile.
                for t in &mut self.tuples {
                    t.until = SimTime::ZERO;
                }
                for dest in dests.clone() {
                    if let Ok(i) = self.tuples.binary_search_by_key(&dest, |t| t.dest) {
                        self.tuples[i].until = until;
                    }
                }
                self.tuples.retain(|t| {
                    let withdrawn = t.until == SimTime::ZERO;
                    if withdrawn {
                        pairs.record(last_hop, t.dest, false);
                    }
                    !withdrawn
                });
            }
        }
        for dest in dests {
            let fresh = StoredTuple { dest, ansn, until };
            match self.tuples.binary_search_by_key(&dest, |t| t.dest) {
                Ok(i) => {
                    // A same-ANSN copy of a live tuple is a pure refresh,
                    // not a topology change.
                    let old = &mut self.tuples[i];
                    changed |= !(old.ansn == ansn && old.until > now);
                    *old = fresh;
                }
                Err(i) => {
                    self.tuples.insert(i, fresh);
                    pairs.record(last_hop, dest, true);
                    changed = true;
                }
            }
        }
        changed
    }

    /// The earliest instant a purge has work on this record: a stored
    /// tuple's expiry, or the reception state's until a purge processed
    /// its lapse. A record holding neither is due at once, to be freed.
    fn next_expiry(&self) -> SimTime {
        let state = match self.until {
            SimTime::ZERO if self.tuples.is_empty() => SimTime::ZERO,
            SimTime::ZERO => SimTime::MAX,
            until => until,
        };
        self.tuples.iter().fold(state, |next, t| next.min(t.until))
    }

    /// Drops the tuples expired at `now`, recording each in `pairs`, and
    /// processes a lapsed reception state: its clock goes to `on_lapse`
    /// unless the log reported it, and its logged set is forgotten.
    /// Returns `true` when a tuple was dropped.
    fn purge(
        &mut self,
        originator: NodeId,
        now: SimTime,
        on_lapse: &mut impl FnMut(NodeId, SimTime),
        pairs: &mut PairLog,
    ) -> bool {
        let state_live = self.until > now;
        let mut dropped = false;
        if self.tuples.iter().any(|t| t.until <= now) {
            if state_live && self.logged_set.is_none() {
                self.logged_set = Some(self.dests().collect());
            }
            self.tuples.retain(|t| {
                let live = t.until > now;
                if !live {
                    pairs.record(originator, t.dest, false);
                }
                live
            });
            dropped = true;
        }
        if !state_live {
            if self.heard > self.logged {
                on_lapse(originator, self.heard);
                self.logged = self.heard;
            }
            self.logged_set = None;
            self.until = SimTime::ZERO;
        }
        dropped
    }

    /// Empties a record whose slot is freed, keeping a small tuple buffer
    /// for the next originator the slot takes.
    fn clear(&mut self) {
        let mut tuples = std::mem::take(&mut self.tuples);
        tuples.clear();
        if tuples.capacity() > Self::KEPT {
            tuples = Vec::new();
        }
        *self = TcRecord { tuples, ..TcRecord::default() };
    }
}

/// `ids` as an exactly sized boxed slice, in one allocation (collecting
/// an iterator without an exact length may allocate twice).
pub(crate) fn boxed_ids(ids: impl Iterator<Item = NodeId> + Clone) -> Box<[NodeId]> {
    let mut out = Vec::with_capacity(ids.clone().count());
    out.extend(ids);
    out.into_boxed_slice()
}

/// The ids of `a` that `b` lacks, in `a`'s order, for `a` and `b` both
/// ascending: one merge walk, linear in their lengths. A flush diffs the
/// symmetric neighborhood with it, which a node hearing forged HELLOs from
/// thousands of senders holds by the thousand.
pub fn ascending_difference<'a>(
    a: &'a [NodeId],
    b: &'a [NodeId],
) -> impl Iterator<Item = NodeId> + 'a {
    debug_assert!(b.windows(2).all(|w| w[0] <= w[1]), "b must be ascending");
    let mut rest = b.iter().copied().peekable();
    a.iter().copied().filter(move |&x| {
        while rest.next_if(|&y| y < x).is_some() {}
        rest.peek() != Some(&x)
    })
}

/// What [`TopologySet::receive_tc`] decided about one TC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcReceipt {
    /// The TC tells the audit log something new: log it as `TC_RX`.
    pub log: bool,
    /// The live topology changed, as [`TopologySet::apply_tc`] reports.
    pub changed: bool,
}

/// The topology set built from received TCs: one record per originator
/// (`last_hop`) holding its tuples, sorted by destination, and the
/// reception state of its TCs that keeps a repeated TC out of the audit
/// log.
///
/// The records live in a slot arena sized by the originators held, never
/// by id value. A slot is freed once its record holds neither tuples nor
/// a reception state, and the next new originator reuses it. Beside the
/// records the set keeps
///
/// - an id→slot index hashed with a random key ([`IdHash`]): a TC
///   ([`receive_tc`](Self::receive_tc)), an ANSN check or a clock read
///   makes one probe;
/// - every occupied slot with its originator, ascending by originator:
///   iteration and purges follow ascending `(last_hop, dest)` order,
///   exactly as a pair-keyed map would;
/// - a dense column of each slot's next expiry: a purge reads it and
///   touches only the records that are due.
#[derive(Debug, Clone, Default)]
pub struct TopologySet {
    /// Originator → slot.
    index: IdSlots,
    /// Records by slot; a free slot's is empty.
    records: Vec<TcRecord>,
    /// Per slot, the earliest instant a purge has work on its record
    /// ([`TcRecord::next_expiry`]); [`SimTime::MAX`] for a free slot.
    expires: Vec<SimTime>,
    /// Every occupied slot and its originator, ascending by originator.
    order: Vec<(NodeId, u32)>,
    /// Free slots, the last freed on top; room for every slot.
    free: Vec<u32>,
    /// Stored tuples over all records, and their changes for a routing
    /// graph.
    pub(crate) pairs: PairLog,
    /// Lower bound on the earliest slot expiry.
    min_expiry: MinExpiry,
}

impl TopologySet {
    /// The slot of `originator`'s record, if it has one.
    #[inline]
    fn find(&self, originator: NodeId) -> Option<usize> {
        self.index.get(originator).map(|slot| slot as usize)
    }

    /// The slot of `originator`'s record, made on first sight.
    #[inline]
    fn slot(&mut self, originator: NodeId) -> usize {
        match self.find(originator) {
            Some(slot) => slot,
            None => self.add(originator),
        }
    }

    /// Gives `originator`, which has no record, an empty one: in the last
    /// freed slot, or in a new one.
    #[cold]
    fn add(&mut self, originator: NodeId) -> usize {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.records.push(TcRecord::default());
                self.expires.push(SimTime::MAX);
                // Room for every slot, so a purge never allocates.
                let room = self.records.capacity();
                if self.free.capacity() < room {
                    self.free.reserve_exact(room - self.free.len());
                }
                u32::try_from(self.records.len() - 1).expect("fewer than 2^32 originators")
            }
        };
        self.index.insert(originator, slot, self.order.len() + 1);
        let at = self.order.partition_point(|&(id, _)| id < originator);
        self.order.insert(at, (originator, slot));
        slot as usize
    }

    /// Sets slot `slot`'s next expiry from its record.
    #[inline]
    fn reschedule(&mut self, slot: usize) {
        let next = self.records[slot].next_expiry();
        self.expires[slot] = next;
        self.min_expiry.cover(next);
    }

    /// Latest ANSN recorded for `last_hop` among tuples still live at
    /// `now`. Expired leftovers carry no authority: an originator whose
    /// entire advertisement has timed out is treated as never heard from,
    /// exactly as if the leftovers had already been garbage-collected —
    /// this keeps the ANSN staleness check independent of purge timing.
    pub fn ansn_of(&self, last_hop: NodeId, now: SimTime) -> Option<u16> {
        self.records[self.find(last_hop)?].live_ansn(now)
    }

    /// Applies a TC from `last_hop` carrying `ansn` and `dests`
    /// (RFC 3626 §9.5): stale-ANSN TCs are ignored; newer ANSNs replace all
    /// tuples of that originator. Returns `true` if the *live* content
    /// changed (a pure refresh of live tuples returns `false`). The
    /// originator's reception state does not move: a node receives TCs
    /// through [`receive_tc`](Self::receive_tc).
    pub fn apply_tc(
        &mut self,
        last_hop: NodeId,
        ansn: u16,
        dests: &[NodeId],
        until: SimTime,
        now: SimTime,
    ) -> bool {
        let slot = self.slot(last_hop);
        let record = &mut self.records[slot];
        if record.logged_set.is_none() && record.until > now {
            // The tuples are about to move: store the logged set they
            // stand for.
            record.logged_set = Some(record.dests().collect());
        }
        let changed =
            record.apply(last_hop, ansn, dests.iter().copied(), until, now, &mut self.pairs);
        self.reschedule(slot);
        changed
    }

    /// Receives a TC (one not already in the duplicate set) from
    /// `originator` carrying `ansn` and `advertised` in wire order, valid
    /// until `until`, relayed by a sender whose link is live at `now` or
    /// not (`sender_live`). One probe for the originator's record decides
    /// both what the TC tells the audit log and what it does to the
    /// topology:
    ///
    /// - [`TcReceipt::log`] unless the TC repeats the set last logged for
    ///   the originator, in wire order, while the originator's reception
    ///   state is live and the sender's link is too. A repeat only moves
    ///   the reception clock, which [`take_heard`](Self::take_heard) and
    ///   [`purge_reporting`](Self::purge_reporting) report later.
    /// - [`TcReceipt::changed`] exactly as [`apply_tc`](Self::apply_tc)
    ///   would return it.
    ///
    /// A TC that refreshes its originator's live tuples and nothing else,
    /// the common case in a converged network, rewrites their expiries in
    /// one pass: no per-destination search and no copy of its set.
    pub fn receive_tc<I>(
        &mut self,
        originator: NodeId,
        ansn: u16,
        advertised: I,
        sender_live: bool,
        until: SimTime,
        now: SimTime,
    ) -> TcReceipt
    where
        I: Iterator<Item = NodeId> + Clone,
    {
        // A new record's reception state starts lapsed, so its first TC
        // is logged in full.
        let slot = self.slot(originator);
        let record = &mut self.records[slot];
        let state_live = record.until > now && sender_live;
        let (repeat, changed) = if record.is_pure_refresh(ansn, advertised.clone(), now) {
            let repeat = state_live
                && record
                    .logged_set
                    .as_deref()
                    .is_none_or(|set| set.iter().copied().eq(advertised.clone()));
            for t in &mut record.tuples {
                t.until = until;
            }
            record.logged_set = None;
            (repeat, false)
        } else {
            let repeat = state_live && record.logged_set_is(advertised.clone());
            let changed =
                record.apply(originator, ansn, advertised.clone(), until, now, &mut self.pairs);
            // Repeated or logged now, the last logged set is `advertised`.
            if record.dests().eq(advertised.clone()) {
                record.logged_set = None;
            } else if !(repeat && record.logged_set.is_some()) {
                record.logged_set = Some(boxed_ids(advertised));
            }
            (repeat, changed)
        };
        record.until = until;
        record.heard = now;
        if !repeat {
            record.logged = now;
        }
        self.reschedule(slot);
        TcReceipt { log: !repeat, changed }
    }

    /// The latest reception time of a TC from `originator` when the log
    /// has not reported it yet, which it then counts as reported. The
    /// IDS's TC-silence check reads the clocks of a node's current MPRs.
    #[inline]
    pub fn take_heard(&mut self, originator: NodeId) -> Option<SimTime> {
        let slot = self.find(originator)?;
        let record = &mut self.records[slot];
        (record.heard > record.logged).then(|| {
            record.logged = record.heard;
            record.heard
        })
    }

    /// All live tuples at `now`, ascending by `(last_hop, dest)`.
    pub fn iter(&self, now: SimTime) -> impl Iterator<Item = TopologyTuple> + '_ {
        self.stored().filter(move |t| t.until > now)
    }

    /// Every stored tuple, live or not, ascending by `(last_hop, dest)`.
    fn stored(&self) -> impl Iterator<Item = TopologyTuple> + '_ {
        self.order.iter().flat_map(|&(last_hop, slot)| {
            self.records[slot as usize].tuples.iter().map(move |t| TopologyTuple {
                dest: t.dest,
                last_hop,
                ansn: t.ansn,
                until: t.until,
            })
        })
    }

    /// `true` when a tuple live at `now` names `node`: as its originator,
    /// or as a destination some originator other than `except` advertises.
    /// An order-free query: one probe for `node`'s own record, then one
    /// search per record, in slot order.
    pub fn mentions(&self, node: NodeId, except: NodeId, now: SimTime) -> bool {
        if self.find(node).is_some_and(|slot| self.records[slot].live_ansn(now).is_some()) {
            return true;
        }
        let skipped = self.find(except);
        self.records.iter().enumerate().any(|(slot, record)| {
            Some(slot) != skipped
                && record
                    .tuples
                    .binary_search_by_key(&node, |t| t.dest)
                    .is_ok_and(|i| record.tuples[i].until > now)
        })
    }

    /// Drops expired tuples, lapsed reception states and records left with
    /// neither; returns `true` when any tuple was dropped. A lapsing
    /// reception state whose clock the log has not reported yet goes to
    /// `on_lapse(originator, heard)` first, ascending by originator.
    /// Min-expiry gated: free while nothing can have expired — the gate
    /// that turns the former per-reception O(topology) sweep into an
    /// occasional one. A purge past the gate walks the slots in originator
    /// order but reads only their expiries, touching only the records
    /// that are due.
    pub fn purge_reporting(
        &mut self,
        now: SimTime,
        mut on_lapse: impl FnMut(NodeId, SimTime),
    ) -> bool {
        if self.min_expiry.nothing_due(now) {
            return false;
        }
        self.min_expiry.reset();
        let TopologySet { index, records, expires, order, free, pairs, min_expiry } = self;
        let mut dropped = false;
        order.retain(|&(originator, slot)| {
            let s = slot as usize;
            if expires[s] > now {
                min_expiry.cover(expires[s]);
                return true;
            }
            let record = &mut records[s];
            dropped |= record.purge(originator, now, &mut on_lapse, pairs);
            if record.until == SimTime::ZERO && record.tuples.is_empty() {
                record.clear();
                expires[s] = SimTime::MAX;
                index.remove(originator);
                free.push(slot);
                return false;
            }
            expires[s] = record.next_expiry();
            min_expiry.cover(expires[s]);
            true
        });
        dropped
    }

    /// [`purge_reporting`](Self::purge_reporting) with the unreported
    /// clocks of lapsing reception states dropped silently.
    pub fn purge(&mut self, now: SimTime) -> bool {
        self.purge_reporting(now, |_, _| {})
    }

    /// Every stored tuple as `(last_hop, dest)`, live or not, ascending.
    pub(crate) fn stored_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.stored().map(|t| (t.last_hop, t.dest))
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.pairs.len
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.len == 0
    }
}

/// The duplicate set (RFC 3626 §3.4): remembers processed/forwarded
/// messages so floods terminate.
///
/// This is the hottest repository in the whole stack — every flooded
/// reception probes it, and at 10³–10⁴ nodes each node holds thousands of
/// live tuples — so it is a flat open-addressed table rather than an
/// ordered map: one multiply-add-shift hash and (usually) one cache line
/// per probe, instead of a B-tree descent. Originators and sequence
/// numbers come off the air, so the hash is keyed at random when the table
/// is first allocated ([`IdHash`]): a fixed function would let a node that
/// forges TCs pick keys that all share one probe run in every receiver's
/// table. A slot is free iff its `until` is zero: live entries always
/// expire strictly after the epoch, because [`record`](Self::record)
/// stores `now + hold` and hold times are positive.
///
/// Every probe already treats an entry with `until <= now` as absent, so
/// reclaiming expired slots is invisible to callers. Deletion therefore
/// happens lazily: only when an insert would push occupancy past its
/// bound (or on an explicit [`purge`](Self::purge)) are expired slots
/// reclaimed, in place by backward-shift deletion, so no tombstones are
/// needed and reclaiming allocates nothing. The table grows only when live
/// entries still fill most of it after a reclaim.
#[derive(Debug, Clone, Default)]
pub struct DuplicateSet {
    /// Power-of-two slot array; empty until the first record.
    slots: Vec<DupSlot>,
    /// Occupied slot count (live and expired-but-not-yet-reclaimed alike).
    live: usize,
    min_expiry: MinExpiry,
    /// The table's hash function, drawn when the slot array is first
    /// allocated.
    hash: IdHash,
}

/// One open-addressing slot: 16 bytes, four to a 64-byte cache line.
#[derive(Debug, Clone, Copy)]
struct DupSlot {
    /// Valid until this instant; zero marks the slot free.
    until: SimTime,
    /// The key, `(originator << 16) | seq` in the low 48 bits (the full
    /// key, no ambiguity: the 32-bit originator id needs more than 32 bits
    /// now that ids reach past 2¹⁶), and the retransmitted flag in bit 63.
    word: u64,
}

/// The bit of a slot's `word` that flags a retransmitted message: above
/// every key bit.
const DUP_RETRANSMITTED: u64 = 1 << 63;

const DUP_EMPTY: DupSlot = DupSlot { until: SimTime::ZERO, word: 0 };

impl DupSlot {
    #[inline]
    fn new(until: SimTime, key: u64, retransmitted: bool) -> Self {
        DupSlot { until, word: key | if retransmitted { DUP_RETRANSMITTED } else { 0 } }
    }

    /// The key, flag cleared: what the hash and key equality read.
    #[inline]
    fn key(self) -> u64 {
        self.word & !DUP_RETRANSMITTED
    }

    #[inline]
    fn retransmitted(self) -> bool {
        self.word & DUP_RETRANSMITTED != 0
    }
}

#[inline]
fn dup_key(originator: NodeId, seq: SequenceNumber) -> u64 {
    (u64::from(originator.0) << 16) | u64::from(seq.0)
}

/// Verdict of [`DuplicateSet::probe_flood`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DupProbe {
    /// Never seen (or only an expired leftover): process and run the
    /// forwarding gates.
    New,
    /// Seen and fresh, but not yet retransmitted: skip processing, run
    /// the forwarding gates on this copy.
    SeenFresh,
    /// Seen, fresh and already retransmitted: suppress outright.
    Retransmitted,
}

impl DuplicateSet {
    /// First table size: small enough to live in L1, large enough that a
    /// node only rehashes a handful of times on its way to steady state.
    const INITIAL_SLOTS: usize = 64;

    /// Index of the slot holding `key`, if present (live or expired).
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.hash.bucket(key, self.slots.len());
        loop {
            let s = &self.slots[i];
            if s.until == SimTime::ZERO {
                return None;
            }
            if s.key() == key {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Places `slot` (whose key must be absent) into its probe position.
    /// Capacity must already be ensured — the load factor keeps at least
    /// one slot free, so the probe always terminates.
    fn insert_new(&mut self, slot: DupSlot) {
        let mask = self.slots.len() - 1;
        let mut i = self.hash.bucket(slot.key(), self.slots.len());
        while self.slots[i].until != SimTime::ZERO {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
        self.live += 1;
    }

    /// Stores `slot` as a message never seen as of `now`: over the expired
    /// leftover `found` holding its key (a wrapped-around sequence number,
    /// semantically a different message), or as a new entry. A new entry
    /// just goes in while occupancy stays within 70%; past that,
    /// [`make_room`](Self::make_room) runs first. Not inlined: a new
    /// message is the minority of flood copies, so
    /// [`probe_flood`](Self::probe_flood) and [`record`](Self::record)
    /// keep only the lookup of a known copy inline.
    fn store_new(&mut self, found: Option<usize>, slot: DupSlot, now: SimTime) {
        if let Some(i) = found {
            self.slots[i] = slot;
        } else {
            let cap = self.slots.len();
            if cap == 0 || (self.live + 1) * 10 > cap * 7 {
                self.make_room(now);
            }
            self.insert_new(slot);
        }
        // After `make_room`, whose reclaim recomputes the bound.
        self.min_expiry.cover(slot.until);
    }

    /// Makes room for one more entry as of `now`, once occupancy passed
    /// 70%: expired slots are reclaimed first; the table doubles (or is
    /// first allocated) only when more than 65% of it is still occupied
    /// afterwards, so each reclaim is followed by at least a twentieth of
    /// the table's worth of inserts before the next. Cold for that reason.
    #[cold]
    fn make_room(&mut self, now: SimTime) {
        let cap = self.slots.len();
        self.purge(now);
        if cap > 0 && (self.live + 1) * 20 <= cap * 13 {
            return;
        }
        if cap == 0 {
            self.hash = IdHash::random();
        }
        let new_cap = (cap * 2).max(Self::INITIAL_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![DUP_EMPTY; new_cap]);
        self.live = 0;
        for s in old {
            if s.until != SimTime::ZERO {
                self.insert_new(s);
            }
        }
    }

    /// Frees slot `hole` by backward-shift deletion (Knuth's Algorithm R
    /// for linear probing): every later entry of the probe run whose home
    /// bucket does not lie cyclically in `(hole, j]` moves back into the
    /// hole, so each remaining entry stays reachable from its home.
    fn remove_at(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s.until == SimTime::ZERO {
                break;
            }
            let home = self.hash.bucket(s.key(), self.slots.len());
            let stays = if hole <= j { hole < home && home <= j } else { hole < home || home <= j };
            if !stays {
                self.slots[hole] = s;
                hole = j;
            }
        }
        self.slots[hole] = DUP_EMPTY;
        self.live -= 1;
    }

    /// `true` when `(originator, seq)` was already processed.
    pub fn seen(&self, originator: NodeId, seq: SequenceNumber, now: SimTime) -> bool {
        self.find(dup_key(originator, seq)).is_some_and(|i| self.slots[i].until > now)
    }

    /// `true` when `(originator, seq)` was already retransmitted.
    pub fn retransmitted(&self, originator: NodeId, seq: SequenceNumber, now: SimTime) -> bool {
        self.find(dup_key(originator, seq)).is_some_and(|i| {
            let s = self.slots[i];
            s.until > now && s.retransmitted()
        })
    }

    /// Records a processed message as of `now`. An expired leftover for the
    /// same `(originator, seq)` (a wrapped-around sequence number) is
    /// overwritten outright rather than merged: it is semantically a
    /// different message, and overwriting keeps the set's behaviour
    /// independent of when the leftover is garbage-collected.
    #[inline]
    pub fn record(
        &mut self,
        originator: NodeId,
        seq: SequenceNumber,
        retransmitted: bool,
        until: SimTime,
        now: SimTime,
    ) {
        let key = dup_key(originator, seq);
        let found = self.find(key);
        if let Some(i) = found {
            let s = &mut self.slots[i];
            if s.until > now {
                if retransmitted {
                    s.word |= DUP_RETRANSMITTED;
                }
                s.until = s.until.max(until);
                self.min_expiry.cover(until);
                return;
            }
        }
        self.store_new(found, DupSlot::new(until, key, retransmitted), now);
    }

    /// One-probe flood triage for the receive path: a single map access
    /// answers what [`seen`](Self::seen) and
    /// [`retransmitted`](Self::retransmitted) would answer separately, and
    /// leaves exactly the state [`record`](Self::record)`(…, false,
    /// dup_until, now)` would. That record is what every copy gets, unless
    /// the caller retransmits it and records it again as retransmitted.
    #[inline]
    pub fn probe_flood(
        &mut self,
        originator: NodeId,
        seq: SequenceNumber,
        dup_until: SimTime,
        now: SimTime,
    ) -> DupProbe {
        let key = dup_key(originator, seq);
        let found = self.find(key);
        if let Some(i) = found {
            let s = &mut self.slots[i];
            if s.until > now {
                s.until = s.until.max(dup_until);
                self.min_expiry.cover(dup_until);
                return if s.retransmitted() {
                    DupProbe::Retransmitted
                } else {
                    DupProbe::SeenFresh
                };
            }
        }
        self.store_new(found, DupSlot::new(dup_until, key, false), now);
        DupProbe::New
    }

    /// Reclaims every expired slot in place. Never needed for correctness
    /// (probes ignore expired entries, and [`record`](Self::record)
    /// reclaims before it would grow the table); min-expiry gated: free
    /// while nothing can have expired.
    pub fn purge(&mut self, now: SimTime) {
        if self.min_expiry.nothing_due(now) {
            return;
        }
        self.min_expiry.reset();
        let mut i = 0;
        while i < self.slots.len() {
            let until = self.slots[i].until;
            if until == SimTime::ZERO {
                i += 1;
            } else if until <= now {
                // A later entry may shift into `i`: look at it again.
                self.remove_at(i);
            } else {
                self.min_expiry.cover(until);
                i += 1;
            }
        }
    }

    /// Number of occupied slots: remembered messages, including expired
    /// ones not yet reclaimed (which every probe already treats as absent).
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustlink_sim::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A row whose link has the given validity times.
    fn link(sym_until: SimTime, asym_until: SimTime, until: SimTime) -> NeighborRow {
        NeighborRow { sym_until, asym_until, until, selected_until: SimTime::ZERO }
    }

    #[test]
    fn link_status_transitions() {
        let row = link(t(5), t(10), t(12));
        assert_eq!(row.status(t(0)), LinkStatus::Symmetric);
        assert_eq!(row.status(t(5)), LinkStatus::Asymmetric);
        assert_eq!(row.status(t(10)), LinkStatus::Lost);
    }

    #[test]
    fn link_set_upsert_extends_only() {
        let mut set = NeighborTable::default();
        set.entry(NodeId(1)).sense(t(5), t(5), t(6));
        set.entry(NodeId(1)).sense(t(3), t(8), t(9));
        assert_eq!(set.get(NodeId(1)), Some(&link(t(5), t(8), t(9)))); // sym not shrunk
    }

    #[test]
    fn link_set_symmetric_and_purge() {
        let mut set = NeighborTable::default();
        set.entry(NodeId(2)).sense(t(0), t(5), t(6));
        set.entry(NodeId(1)).sense(t(5), t(5), t(6));
        assert_eq!(set.symmetric_neighbors(t(1)), vec![NodeId(1)]);
        assert_eq!(set.iter().map(|(n, _)| n).collect::<Vec<_>>(), [NodeId(1), NodeId(2)]);
        set.purge(t(5));
        assert_eq!(set.len(), 2, "nothing has expired before t(6)");
        set.purge(t(6));
        assert!(set.is_empty());
    }

    #[test]
    fn link_declared_lost() {
        let mut set = NeighborTable::default();
        set.entry(NodeId(1)).sense(t(50), t(50), t(60));
        set.entry(NodeId(1)).declare_lost(t(10));
        assert_eq!(set.get(NodeId(1)).unwrap().status(t(10)), LinkStatus::Asymmetric);
    }

    #[test]
    fn neighbor_rows_reuse_the_slots_of_expired_links() {
        // Ten rounds of 50 neighbors with ids far apart, in descending id
        // order, each round's links expired before the next: the arena
        // holds one round's worth of slots, whatever the ids.
        let mut set = NeighborTable::default();
        for round in 0..10u32 {
            let now = t(u64::from(round) * 10);
            set.purge(now);
            for k in (0..50u32).rev() {
                let id = NodeId(round * 100_000_000 + k * 7);
                let mut row = set.entry(id);
                row.sense(now + SimDuration::from_secs(5), now, now + SimDuration::from_secs(5));
                row.claim_mut().push(id);
            }
            assert_eq!(set.len(), 50);
            assert_eq!((set.rows.len(), set.claims.len()), (50, 50), "round {round}");
            let ids: Vec<NodeId> = set.iter().map(|(n, _)| n).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "round {round}: {ids:?}");
            assert!(ids.iter().all(|&n| set.claim(n) == Some(&[n][..])));
        }
        set.purge(t(100));
        assert!(set.is_empty());
        assert_eq!(set.free.len(), 50);
        assert!(set.claims.iter().all(|c| c.capacity() == 0), "claims go with their rows");
    }

    #[test]
    fn neighbor_set_basics() {
        let mut set = NeighborSet::default();
        assert!(set.upsert(NodeId(3), Willingness::High)); // new
        assert!(set.upsert(NodeId(1), Willingness::Default));
        assert!(set.upsert(NodeId(3), Willingness::Low)); // changed
        assert!(!set.upsert(NodeId(3), Willingness::Low)); // no-op refresh
        assert_eq!(set.len(), 2);
        assert_eq!(set.get(NodeId(3)).unwrap().willingness, Willingness::Low);
        assert_eq!(set.addrs(), vec![NodeId(1), NodeId(3)]);
        assert!(set.remove(NodeId(1)));
        assert!(!set.remove(NodeId(1)));
    }

    #[test]
    fn two_hop_set_queries() {
        let mut set = TwoHopSet::default();
        set.upsert(NodeId(1), NodeId(10), t(5), t(0));
        set.upsert(NodeId(1), NodeId(11), t(5), t(0));
        set.upsert(NodeId(2), NodeId(10), t(5), t(0));
        assert_eq!(set.two_hop_addrs(t(0), NodeId(0), &[]), vec![NodeId(10), NodeId(11)]);
        // Excluding 1-hop neighbors and self:
        assert_eq!(set.two_hop_addrs(t(0), NodeId(0), &[NodeId(11)]), vec![NodeId(10)]);
        assert!(set.two_hop_addrs(t(0), NodeId(10), &[NodeId(11)]).is_empty());
        let mut vias = set.vias_for(NodeId(10), t(0));
        vias.sort_unstable();
        assert_eq!(vias, vec![NodeId(1), NodeId(2)]);
        assert_eq!(set.reachable_via(NodeId(1), t(0)), vec![NodeId(10), NodeId(11)]);
    }

    #[test]
    fn two_hop_expiry_and_removal() {
        let mut set = TwoHopSet::default();
        set.upsert(NodeId(1), NodeId(10), t(5), t(0));
        set.upsert(NodeId(2), NodeId(20), t(50), t(0));
        assert!(set.two_hop_addrs(t(10), NodeId(0), &[]).contains(&NodeId(20)));
        assert!(!set.two_hop_addrs(t(10), NodeId(0), &[]).contains(&NodeId(10)));
        let dead = set.purge(t(10));
        assert_eq!(dead, vec![(NodeId(1), NodeId(10))]);
        set.remove_via(NodeId(2), t(10));
        assert!(set.is_empty());
    }

    #[test]
    fn two_hop_upsert_reports_live_changes_only() {
        let mut set = TwoHopSet::default();
        assert!(set.upsert(NodeId(1), NodeId(10), t(5), t(0))); // new
        assert!(!set.upsert(NodeId(1), NodeId(10), t(8), t(1))); // refresh
                                                                 // Reviving the pair after it expired is an observable change again,
                                                                 // whether or not the leftover was purged in between.
        assert!(set.upsert(NodeId(1), NodeId(10), t(20), t(9)));
    }

    /// Live selectors at `now` and every row's id, live or not.
    fn selectors_and_rows(set: &NeighborTable, now: SimTime) -> (Vec<NodeId>, Vec<NodeId>) {
        (set.selector_addrs(now), set.iter().map(|(n, _)| n).collect())
    }

    #[test]
    fn mpr_selector_set() {
        // Each selection rides on a link valid exactly as long.
        let mut set = NeighborTable::default();
        let mut select = |n: u32, until: SimTime| {
            let mut row = set.entry(NodeId(n));
            row.sense(until, until, until);
            row.select(until);
        };
        select(1, t(5));
        select(1, t(8)); // refresh extends
        select(2, t(3));
        select(2, t(2)); // never shrinks
        assert!(set.selector_addrs(t(7)).contains(&NodeId(1)));
        assert!(!set.selector_addrs(t(9)).contains(&NodeId(1)));
        assert_eq!(set.selector_addrs(t(2)), vec![NodeId(1), NodeId(2)]);
        assert!(set.selector_addrs(t(9)).is_empty());
        set.purge(t(3));
        assert_eq!(selectors_and_rows(&set, t(3)), (vec![NodeId(1)], vec![NodeId(1)]));
        set.purge(t(9));
        assert!(set.is_empty());
    }

    #[test]
    fn mpr_selector_expired_leftover_counts_as_fresh() {
        let mut set = NeighborTable::default();
        set.entry(NodeId(1)).sense(t(20), t(20), t(20));
        set.entry(NodeId(1)).select(t(5));
        // Leftover expired at t(5) but never purged: re-adding at t(6)
        // makes it live again, and removing it removes it whatever its
        // validity.
        set.entry(NodeId(1)).select(t(9));
        assert!(set.selector_addrs(t(6)).contains(&NodeId(1)));
        set.unselect(NodeId(1));
        assert!(!set.selector_addrs(t(7)).contains(&NodeId(1)));
        assert_eq!(set.get(NodeId(1)).unwrap().selected_until, SimTime::ZERO);
        set.entry(NodeId(1)).select(t(12));
        set.unselect(NodeId(1));
        set.unselect(NodeId(1));
        set.unselect(NodeId(2)); // absent: a no-op
        assert_eq!(selectors_and_rows(&set, SimTime::ZERO), (vec![], vec![NodeId(1)]));
    }

    #[test]
    fn hello_claim_lives_and_dies_with_its_row() {
        let mut set = NeighborTable::default();
        assert_eq!(set.claim(NodeId(4)), None);
        let mut row = set.entry(NodeId(4));
        assert!(row.claim_mut().is_empty(), "a new row claims nothing");
        row.claim_mut().extend([NodeId(1), NodeId(9)]);
        row.sense(t(2), t(2), t(2));
        set.entry(NodeId(3)).sense(t(5), t(5), t(5));
        assert_eq!(set.claim(NodeId(4)), Some(&[NodeId(1), NodeId(9)][..]));
        assert_eq!(set.claim(NodeId(3)), Some(&[][..]));
        set.purge(t(2));
        assert_eq!((set.claim(NodeId(4)), set.len()), (None, 1));
        assert!(set.entry(NodeId(4)).claim_mut().is_empty(), "the claim went with the row");
    }

    #[test]
    fn topology_ansn_rules() {
        let mut set = TopologySet::default();
        assert!(set.apply_tc(NodeId(5), 10, &[NodeId(1), NodeId(2)], t(15), t(0)));
        assert_eq!(set.iter(t(0)).count(), 2);
        // Same ANSN again: pure refresh, no change signal.
        assert!(!set.apply_tc(NodeId(5), 10, &[NodeId(1), NodeId(2)], t(20), t(1)));
        // Stale ANSN ignored.
        assert!(!set.apply_tc(NodeId(5), 9, &[NodeId(9)], t(20), t(1)));
        assert_eq!(set.iter(t(0)).count(), 2);
        // Newer ANSN replaces the originator's tuples wholesale.
        assert!(set.apply_tc(NodeId(5), 11, &[NodeId(3)], t(25), t(2)));
        let dests: Vec<NodeId> = set.iter(t(2)).map(|t| t.dest).collect();
        assert_eq!(dests, vec![NodeId(3)]);
    }

    #[test]
    fn topology_empty_tc_withdrawal_is_a_change() {
        // An MPR that lost its last selector emits a newer-ANSN TC with an
        // empty advertised set: the withdrawal of its live tuples must
        // signal a topology change (the routing BFS re-runs), even though
        // nothing is inserted.
        let mut set = TopologySet::default();
        assert!(set.apply_tc(NodeId(5), 10, &[NodeId(1), NodeId(2)], t(15), t(0)));
        assert!(set.apply_tc(NodeId(5), 11, &[], t(20), t(1)));
        assert_eq!(set.iter(t(1)).count(), 0);
        // Withdrawing only already-expired tuples is not a change.
        let mut set = TopologySet::default();
        assert!(set.apply_tc(NodeId(6), 1, &[NodeId(1)], t(5), t(0)));
        assert!(!set.apply_tc(NodeId(6), 2, &[], t(30), t(10)));
    }

    #[test]
    fn topology_expired_ansn_carries_no_authority() {
        let mut set = TopologySet::default();
        assert!(set.apply_tc(NodeId(5), 10, &[NodeId(1)], t(15), t(0)));
        // All of N5's tuples have expired by t(20): an ANSN that would have
        // been stale is accepted as if the leftovers were already purged.
        assert!(set.apply_tc(NodeId(5), 3, &[NodeId(2)], t(40), t(20)));
        let dests: Vec<NodeId> = set.iter(t(20)).map(|t| t.dest).collect();
        assert_eq!(dests, vec![NodeId(2)]);
    }

    #[test]
    fn topology_ansn_wraparound() {
        let mut set = TopologySet::default();
        assert!(set.apply_tc(NodeId(5), u16::MAX, &[NodeId(1)], t(15), t(0)));
        // 0 is "newer" than 65535 under RFC §19 arithmetic.
        assert!(set.apply_tc(NodeId(5), 0, &[NodeId(2)], t(20), t(1)));
        let dests: Vec<NodeId> = set.iter(t(1)).map(|t| t.dest).collect();
        assert_eq!(dests, vec![NodeId(2)]);
    }

    #[test]
    fn topology_purge() {
        let mut set = TopologySet::default();
        set.apply_tc(NodeId(5), 1, &[NodeId(1)], t(5), t(0));
        set.apply_tc(NodeId(6), 1, &[NodeId(2)], t(50), t(0));
        assert!(set.purge(t(10)));
        assert_eq!(set.len(), 1);
        let left: Vec<(NodeId, NodeId)> = set.stored_pairs().collect();
        assert_eq!(left, vec![(NodeId(6), NodeId(2))]);
        assert!(!set.purge(t(10)), "nothing left to drop");
    }

    #[test]
    fn topology_arena_reuses_the_slots_of_lapsed_originators() {
        // Ten rounds of 50 originators with ids far apart, each round
        // heard once and lapsed before the next: the arena holds one
        // round's worth of slots, whatever the ids.
        let mut set = TopologySet::default();
        let hold = SimDuration::from_secs(5);
        for round in 0..10u32 {
            let now = t(u64::from(round) * 10);
            set.purge(now);
            for k in 0..50u32 {
                let id = NodeId(round * 100_000_000 + k * 7);
                set.receive_tc(id, 1, [NodeId(1), id].into_iter(), true, now + hold, now);
            }
            assert_eq!((set.order.len(), set.len()), (50, 100));
            assert_eq!((set.records.len(), set.expires.len()), (50, 50), "round {round}");
        }
        assert!(set.purge(t(100)));
        assert!(set.is_empty());
        assert_eq!((set.order.len(), set.free.len()), (0, 50));
        assert!((0..50).all(|k| set.index.get(NodeId(900_000_000 + k * 7)).is_none()));
        assert!(set.expires.iter().all(|&e| e == SimTime::MAX));
    }

    #[test]
    fn topology_purge_reports_lapses_by_originator_not_by_slot() {
        // Originators heard in descending id order take ascending slots;
        // their clocks lapse together and are reported ascending by id.
        let mut set = TopologySet::default();
        for (k, id) in [9u32, 0x1_0000, 3, u32::MAX, 0xFFFF].into_iter().enumerate() {
            let now = SimTime::from_millis(k as u64);
            set.receive_tc(NodeId(id), 1, [NodeId(1)].into_iter(), true, t(5), now);
            set.receive_tc(
                NodeId(id),
                1,
                [NodeId(1)].into_iter(),
                true,
                t(6),
                now + SimDuration::from_millis(1),
            );
        }
        let mut lapsed = Vec::new();
        assert!(!set.purge_reporting(t(5), |o, _| lapsed.push(o.0)), "no tuple expired yet");
        assert!(lapsed.is_empty());
        assert!(set.purge_reporting(t(6), |o, _| lapsed.push(o.0)));
        assert_eq!(lapsed, [3, 9, 0xFFFF, 0x1_0000, u32::MAX]);
        assert!(set.is_empty());
    }

    #[test]
    fn max_id_originator_costs_one_slot() {
        // A TC from the largest id, naming it: a set sized by id value
        // would abort on it.
        let far = NodeId(u32::MAX);
        let mut set = TopologySet::default();
        assert!(set.apply_tc(far, 1, &[NodeId(3), far], t(30), t(0)));
        assert!(set.apply_tc(NodeId(2), 1, &[far], t(30), t(0)));
        assert_eq!((set.records.len(), set.expires.len(), set.order.len()), (2, 2, 2));
        assert_eq!(set.index.capacity(), 8, "the smallest index");
        assert_eq!(set.ansn_of(far, t(0)), Some(1));
        assert!(set.mentions(far, NodeId(2), t(0)), "far originates tuples");
        assert!(set.mentions(NodeId(3), NodeId(2), t(0)));
        assert!(!set.mentions(NodeId(3), far, t(0)), "only far advertises N3");
        let pairs: Vec<_> = set.stored_pairs().collect();
        assert_eq!(pairs, [(NodeId(2), far), (far, NodeId(3)), (far, far)]);
    }

    #[test]
    fn crafted_originators_do_not_share_one_probe_run() {
        // 2000 originators whose ids all land in bucket 0 under the fixed
        // Fibonacci multiplier (id * 0x9E3779B9 < 2^16 for every table of
        // at most 2^16 entries). The keyed hash spreads them like any
        // others.
        const FIB: u32 = 0x9E37_79B9;
        let mut inv = FIB;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u32.wrapping_sub(FIB.wrapping_mul(inv)));
        }
        assert_eq!(FIB.wrapping_mul(inv), 1);
        let mut set = TopologySet::default();
        for j in 1..=2000u32 {
            set.apply_tc(NodeId(j.wrapping_mul(inv)), 1, &[NodeId(0)], t(30), t(0));
        }
        assert_eq!((set.len(), set.order.len()), (2000, 2000));
        let longest = set.index.longest_run();
        assert!(longest < 200, "a probe run of {longest} entries");
    }

    #[test]
    fn duplicate_set_semantics() {
        let mut set = DuplicateSet::default();
        let seq = SequenceNumber(7);
        assert!(!set.seen(NodeId(1), seq, t(0)));
        set.record(NodeId(1), seq, false, t(30), t(0));
        assert!(set.seen(NodeId(1), seq, t(0)));
        assert!(!set.retransmitted(NodeId(1), seq, t(0)));
        set.record(NodeId(1), seq, true, t(30), t(1));
        assert!(set.retransmitted(NodeId(1), seq, t(0)));
        // Retransmission flag is sticky.
        set.record(NodeId(1), seq, false, t(30), t(2));
        assert!(set.retransmitted(NodeId(1), seq, t(0)));
        set.purge(t(30));
        assert!(set.is_empty());
    }

    #[test]
    fn duplicate_record_overwrites_expired_leftovers() {
        let mut set = DuplicateSet::default();
        let seq = SequenceNumber(7);
        set.record(NodeId(1), seq, true, t(10), t(0));
        // The same (originator, seq) reappears after expiry (sequence
        // wraparound): it is a different message, so the stale
        // retransmitted flag must not stick.
        set.record(NodeId(1), seq, false, t(40), t(20));
        assert!(set.seen(NodeId(1), seq, t(20)));
        assert!(!set.retransmitted(NodeId(1), seq, t(20)));
    }

    #[test]
    fn duplicate_slots_stay_bounded_under_a_steady_flood_stream() {
        // 100 distinct floods per simulated second, each held 30 s: about
        // 3 000 live entries at any time, 100 000 recorded in total, and no
        // explicit purge. Reclaiming before growth keeps the slot array at
        // one size from the first hold period on.
        let mut set = DuplicateSet::default();
        let hold = SimDuration::from_secs(30);
        let mut settled = None;
        for step in 0..10_000u64 {
            let now = SimTime::from_micros(step * 100_000);
            for k in 0..10u32 {
                let originator = NodeId(k * 10 + (step % 10) as u32);
                let seq = SequenceNumber((step / 10) as u16);
                assert!(!set.seen(originator, seq, now));
                set.record(originator, seq, false, now + hold, now);
            }
            if now >= t(60) {
                assert_eq!(*settled.get_or_insert(set.slots.len()), set.slots.len(), "at {now}");
            }
        }
        assert_eq!(settled, Some(8_192));
        assert!(set.len() <= 8_192 * 7 / 10);
    }

    #[test]
    fn crafted_flood_keys_do_not_share_one_probe_run() {
        // 4096 `(originator, seq)` keys that all land in bucket 0 of every
        // table of up to 2^16 slots under the fixed Fibonacci multiplier
        // the set once used: key * FIB has bits 32..48 all zero. A forger
        // choosing TC originators and sequence numbers could send exactly
        // these. The keyed hash spreads them like any others.
        const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
        const KEY_BITS: u64 = (1 << 48) - 1;
        let mut inv = FIB;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(FIB.wrapping_mul(inv)));
        }
        assert_eq!(FIB.wrapping_mul(inv), 1);
        let crafted: Vec<u64> = (1..=4096u64).map(|r| r.wrapping_mul(inv) & KEY_BITS).collect();
        assert!(crafted.iter().all(|k| (k.wrapping_mul(FIB) >> 32) & 0xFFFF == 0));
        let mut set = DuplicateSet::default();
        for &key in &crafted {
            let (originator, seq) = (NodeId((key >> 16) as u32), SequenceNumber(key as u16));
            set.record(originator, seq, false, t(30), t(0));
        }
        assert_eq!(set.len(), crafted.len());
        let mut longest = 0;
        let mut run = 0;
        for s in set.slots.iter().chain(set.slots.iter()) {
            run = if s.until == SimTime::ZERO { 0 } else { run + 1 };
            longest = longest.max(run);
        }
        assert!(longest < 256, "a probe run of {longest} entries");
    }

    #[test]
    fn a_clustering_multiply_add_key_leaves_no_long_probe_run() {
        // The crafted flood keys are an arithmetic progression. Under this
        // multiplier and addend the bare multiply-add maps them to a
        // progression whose top bits cluster: a probe run of 1 613 entries
        // in the 8 192-slot table. The finalizer must scatter them.
        const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
        const KEY_BITS: u64 = (1 << 48) - 1;
        let mut inv = FIB;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(FIB.wrapping_mul(inv)));
        }
        let hash = IdHash::with_keys(0x8BE2_1A46_552E_CEE3, 0x0270_6427_41C1_E534);
        // A table already allocated keeps its function through every growth.
        let mut set = DuplicateSet { slots: vec![DUP_EMPTY; 64], hash, ..DuplicateSet::default() };
        for r in 1..=4096u64 {
            let key = r.wrapping_mul(inv) & KEY_BITS;
            set.record(NodeId((key >> 16) as u32), SequenceNumber(key as u16), false, t(30), t(0));
        }
        assert_eq!((set.len(), set.slots.len()), (4096, 8192));
        let mut longest = 0;
        let mut run = 0;
        for s in set.slots.iter().chain(set.slots.iter()) {
            run = if s.until == SimTime::ZERO { 0 } else { run + 1 };
            longest = longest.max(run);
        }
        assert!(longest < 256, "a probe run of {longest} entries");
    }

    #[test]
    fn purges_are_min_expiry_gated() {
        // A purge before the earliest expiry must remove nothing; at the
        // expiry it removes exactly the due tuples and re-tracks the rest.
        let mut links = NeighborTable::default();
        links.entry(NodeId(1)).sense(t(5), t(5), t(5));
        links.entry(NodeId(2)).sense(t(9), t(9), t(9));
        let neighbors = |links: &NeighborTable| links.iter().map(|(n, _)| n).collect::<Vec<_>>();
        links.purge(t(4));
        assert_eq!(neighbors(&links), vec![NodeId(1), NodeId(2)]);
        assert_eq!(links.min_expiry, MinExpiry(t(5)));
        links.purge(t(5));
        assert_eq!(neighbors(&links), vec![NodeId(2)]);
        assert_eq!(links.min_expiry, MinExpiry(t(9))); // bound re-tracked
        links.purge(t(8));
        assert_eq!(neighbors(&links), vec![NodeId(2)]);
        links.purge(t(9));
        assert!(links.is_empty());
        assert_eq!(links.min_expiry, MinExpiry::default());

        let mut topo = TopologySet::default();
        topo.apply_tc(NodeId(5), 1, &[NodeId(1)], t(5), t(0));
        assert!(!topo.purge(t(4)));
        assert_eq!(topo.len(), 1);
        assert!(topo.purge(t(5)));
        assert!(topo.is_empty());
        assert!(!topo.purge(t(100))); // empty set: bound is +inf
    }
}
