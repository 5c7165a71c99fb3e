//! Traffic accounting.
//!
//! The paper lists "the resource consumption that is related to the trust
//! system" as future work; these counters are what the ablation experiments
//! report for it (frames transmitted/delivered/lost per node and in total).

use crate::node::NodeId;
use crate::record::SuppressReason;

/// Per-node traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Broadcast frames transmitted by this node.
    pub broadcasts_sent: u64,
    /// Unicast frames transmitted by this node.
    pub unicasts_sent: u64,
    /// Frames received (after range/loss/collision filtering).
    pub received: u64,
    /// Payload bytes transmitted (broadcast + unicast).
    pub bytes_sent: u64,
}

/// Simulation-wide traffic counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    per_node: Vec<NodeStats>,
    /// Frames lost because the receiver was out of range (counted once per
    /// potential receiver).
    pub lost_range: u64,
    /// Frames lost to Bernoulli/fading loss.
    pub lost_random: u64,
    /// Frames lost to receiver-side collisions.
    pub lost_collision: u64,
}

impl TrafficStats {
    #[inline]
    pub(crate) fn ensure_node(&mut self, id: NodeId) {
        if self.per_node.len() <= id.index() {
            self.per_node.resize(id.index() + 1, NodeStats::default());
        }
    }

    /// Reserves capacity for `n` node entries without materializing them
    /// (capacity only: observable state, including `Debug` output, is
    /// untouched).
    pub(crate) fn reserve_nodes(&mut self, n: usize) {
        self.per_node.reserve(n.saturating_sub(self.per_node.len()));
    }

    #[inline]
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut NodeStats {
        self.ensure_node(id);
        &mut self.per_node[id.index()]
    }

    /// Counters for one node (zeros if the node never appeared).
    pub fn node(&self, id: NodeId) -> NodeStats {
        self.per_node.get(id.index()).copied().unwrap_or_default()
    }

    /// Total frames transmitted (broadcast + unicast) across all nodes.
    pub fn total_sent(&self) -> u64 {
        self.per_node.iter().map(|s| s.broadcasts_sent + s.unicasts_sent).sum()
    }

    /// Total frames received across all nodes.
    pub fn total_received(&self) -> u64 {
        self.per_node.iter().map(|s| s.received).sum()
    }

    /// Total payload bytes transmitted across all nodes.
    pub fn total_bytes_sent(&self) -> u64 {
        self.per_node.iter().map(|s| s.bytes_sent).sum()
    }

    /// Total frames lost for any reason.
    pub fn total_lost(&self) -> u64 {
        self.lost_range + self.lost_random + self.lost_collision
    }
}

/// Per-ring control-flood accounting for scoped dissemination schemes
/// (fisheye TC scoping), maintained by the application that owns the ring
/// schedule — the engine sees only opaque frames and cannot classify
/// them. Ring indexes are scheme-defined (classic flooding uses a single
/// ring 0); the vector grows on demand so one type serves any table size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FloodStats {
    /// Flood frames originated by this node, indexed by ring.
    pub originated_per_ring: Vec<u64>,
    /// Flood frames this node retransmitted on behalf of others.
    pub forwarded: u64,
    /// Flood copies this node declined to retransmit, indexed by
    /// [`SuppressReason`] (read through [`FloodStats::suppressed`]). They
    /// are counted rather than logged: one per received copy, and no IDS
    /// rule reads them.
    suppressed: [u64; 4],
}

impl FloodStats {
    /// Counts one originated flood frame in `ring`.
    #[inline]
    pub fn record_originated(&mut self, ring: usize) {
        if self.originated_per_ring.len() <= ring {
            self.originated_per_ring.resize(ring + 1, 0);
        }
        self.originated_per_ring[ring] += 1;
    }

    /// Total originated flood frames across all rings.
    pub fn originated_total(&self) -> u64 {
        self.originated_per_ring.iter().sum()
    }

    /// Counts one flood copy suppressed for `reason`, of any message kind.
    #[inline]
    pub fn record_suppressed(&mut self, reason: SuppressReason) {
        self.suppressed[reason as usize] += 1;
    }

    /// Flood copies suppressed for `reason`.
    pub fn suppressed(&self, reason: SuppressReason) -> u64 {
        self.suppressed[reason as usize]
    }

    /// Folds another node's counters into this one (benchmark aggregation).
    pub fn merge(&mut self, other: &FloodStats) {
        if self.originated_per_ring.len() < other.originated_per_ring.len() {
            self.originated_per_ring.resize(other.originated_per_ring.len(), 0);
        }
        for (mine, theirs) in self.originated_per_ring.iter_mut().zip(&other.originated_per_ring) {
            *mine += theirs;
        }
        self.forwarded += other.forwarded;
        for (mine, theirs) in self.suppressed.iter_mut().zip(other.suppressed) {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut stats = TrafficStats::default();
        stats.node_mut(NodeId(2)).broadcasts_sent += 3;
        stats.node_mut(NodeId(2)).bytes_sent += 30;
        stats.node_mut(NodeId(0)).unicasts_sent += 1;
        stats.node_mut(NodeId(1)).received += 5;
        stats.lost_range += 2;
        stats.lost_random += 1;

        assert_eq!(stats.node(NodeId(2)).broadcasts_sent, 3);
        assert_eq!(stats.total_sent(), 4);
        assert_eq!(stats.total_received(), 5);
        assert_eq!(stats.total_bytes_sent(), 30);
        assert_eq!(stats.total_lost(), 3);
    }

    #[test]
    fn unknown_node_reads_as_zero() {
        let stats = TrafficStats::default();
        assert_eq!(stats.node(NodeId(9)), NodeStats::default());
        assert_eq!(stats.total_sent(), 0);
    }

    #[test]
    fn flood_stats_record_and_merge() {
        let mut a = FloodStats::default();
        a.record_originated(0);
        a.record_originated(2); // grows through the gap
        a.record_originated(2);
        a.forwarded += 5;
        a.record_suppressed(SuppressReason::Duplicate);
        a.record_suppressed(SuppressReason::Duplicate);
        a.record_suppressed(SuppressReason::TtlExpired);
        assert_eq!(a.originated_per_ring, vec![1, 0, 2]);
        assert_eq!(a.originated_total(), 3);

        let mut b = FloodStats::default();
        b.record_originated(1);
        b.forwarded = 7;
        b.record_suppressed(SuppressReason::Duplicate);
        b.record_suppressed(SuppressReason::UnknownSender);
        b.merge(&a);
        assert_eq!(b.originated_per_ring, vec![1, 1, 2]);
        assert_eq!(b.originated_total(), 4);
        assert_eq!(b.forwarded, 12);
        assert_eq!(b.suppressed(SuppressReason::Duplicate), 3);
        assert_eq!(b.suppressed(SuppressReason::TtlExpired), 1);
        assert_eq!(b.suppressed(SuppressReason::UnknownSender), 1);
        assert_eq!(b.suppressed(SuppressReason::NotMprSelector), 0);
    }
}
