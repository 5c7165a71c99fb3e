//! Core protocol types: sequence numbers, willingness, configuration.

use std::fmt;

use trustlink_sim::SimDuration;

/// A 16-bit wrapping message/packet sequence number with the comparison
/// rule of RFC 3626 §19:
///
/// > S1 > S2 iff (S1 > S2 AND S1 - S2 ≤ MAXVALUE/2)
/// >          or (S2 > S1 AND S2 - S1 > MAXVALUE/2)
///
/// ```
/// use trustlink_olsr::types::SequenceNumber;
/// let s = SequenceNumber(65535);
/// assert!(s.next().is_newer_than(s)); // wraps around and stays "newer"
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SequenceNumber(pub u16);

impl SequenceNumber {
    /// The successor, wrapping at 2^16.
    #[must_use]
    #[inline]
    pub fn next(self) -> SequenceNumber {
        SequenceNumber(self.0.wrapping_add(1))
    }

    /// RFC 3626 §19 "newer than" comparison (a strict partial order on the
    /// circle; antisymmetric except at the antipode).
    #[inline]
    pub fn is_newer_than(self, other: SequenceNumber) -> bool {
        let (s1, s2) = (self.0, other.0);
        const HALF: u16 = u16::MAX / 2;
        (s1 > s2 && s1 - s2 <= HALF) || (s2 > s1 && s2 - s1 > HALF)
    }
}

impl fmt::Display for SequenceNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// How a node schedules the expensive parts of state maintenance (expiry
/// sweeps, MPR selection, routing calculation) relative to the packets
/// that invalidate them.
///
/// Both modes take every externally observable decision — HELLO/TC
/// content, data-plane next hops, flood forwarding — from state refreshed
/// *at the moment of the decision*, so for a given `(seed, configuration)`
/// the two modes transmit byte-identical frames and reach identical
/// routing tables, MPR sets and detection verdicts. They differ only in
/// when the *bookkeeping* runs, which shifts the timestamps of the
/// recompute-emitted audit-log lines (`NBR_ADD`/`NBR_LOST`, `2HOP_LOST`,
/// `MPR_SET`, `ROUTE_ADD`/`ROUTE_CHG`, `TC_HEARD`) — never their
/// per-analysis-batch content. `tests/recompute_equivalence.rs` pins this contract, with
/// [`RecomputeMode::Eager`] as its oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecomputeMode {
    /// Change-aware and debounced (the default): receptions only mark
    /// per-domain change flags; a short coalescing timer — plus the next
    /// emission, data-plane use or analysis pass, whichever comes first —
    /// folds any burst of invalidations into one recomputation.
    #[default]
    Incremental,
    /// Recompute after every state-changing packet — the pre-incremental
    /// *cadence*, kept as the reference oracle for equivalence testing
    /// and the baseline for scaling benchmarks. Note this is scheduling
    /// only: the eager path shares the pipeline's change-gated internals
    /// and allocation-free scratch, so it is somewhat faster than the
    /// original per-packet code it stands in for, and benchmarks against
    /// it isolate the scheduling difference (conservatively).
    Eager,
}

/// One ring of a fisheye TC schedule: emissions landing in this ring are
/// scoped to `ttl` hops and happen every `every`-th TC opportunity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FisheyeRing {
    /// Emission TTL: the flood dies `ttl` hops from the originator.
    pub ttl: u8,
    /// Emit into this ring every `every`-th TC emission (1 = every time).
    pub every: u32,
}

/// A validated fisheye ring table, innermost ring first.
///
/// The schedule works on a per-node emission counter `k` (1, 2, 3, …):
/// at emission `k` the node floods with the TTL of the *outermost* ring
/// whose `every` divides `k`. With the default table
/// `[(ttl 2, every 1), (ttl 8, every 2), (ttl 255, every 4)]` the
/// sequence of scopes is `2, 8, 2, 255, 2, 8, 2, 255, …`: the 2-hop
/// neighborhood hears every TC, the 8-hop ring every other one, and the
/// whole network every fourth. Each emission advertises a validity of
/// `topology_hold_time × every`, so a node that only ever hears ring-`r`
/// TCs holds the tuples long enough to bridge the gap to the next
/// emission that reaches it — distant topology refreshes slowly and ages
/// slowly instead of flapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FisheyeRings {
    rings: Vec<FisheyeRing>,
}

impl FisheyeRings {
    /// Builds a ring table from `(ttl, every)` pairs.
    ///
    /// # Panics
    ///
    /// Panics when the table is empty, a TTL is zero, a stride is zero, or
    /// TTLs are not strictly ascending (inner rings must be tighter).
    pub fn new(rings: impl IntoIterator<Item = (u8, u32)>) -> Self {
        let rings: Vec<FisheyeRing> =
            rings.into_iter().map(|(ttl, every)| FisheyeRing { ttl, every }).collect();
        assert!(!rings.is_empty(), "fisheye ring table must not be empty");
        for r in &rings {
            assert!(r.ttl >= 1, "fisheye ring TTL must be at least 1");
            assert!(r.every >= 1, "fisheye ring stride must be at least 1");
        }
        assert!(
            rings.windows(2).all(|w| w[0].ttl < w[1].ttl),
            "fisheye ring TTLs must be strictly ascending"
        );
        FisheyeRings { rings }
    }

    /// A single unbounded ring emitted every interval: schedules exactly
    /// like [`FloodScope::Classic`] (the byte-identity configuration the
    /// equivalence suite pins).
    pub fn single_unbounded(ttl: u8) -> Self {
        FisheyeRings::new([(ttl, 1)])
    }

    /// The rings, innermost first.
    pub fn rings(&self) -> &[FisheyeRing] {
        &self.rings
    }

    /// The ring used for emission number `k` (1-based): the outermost ring
    /// whose stride divides `k`, or `None` when no ring is due (possible
    /// only when no ring has stride 1).
    pub fn ring_for_emission(&self, k: u64) -> Option<(usize, FisheyeRing)> {
        self.rings
            .iter()
            .enumerate()
            .rfind(|(_, r)| k.is_multiple_of(u64::from(r.every)))
            .map(|(i, r)| (i, *r))
    }

    /// Worst-case number of TC opportunities between emissions that reach
    /// a 1-hop neighbor. Every ring reaches 1 hop (TTL ≥ 1), and among
    /// the slots where *some* ring fires, consecutive multiples of the
    /// smallest stride are never further apart than that stride.
    pub fn near_stride(&self) -> u32 {
        self.rings.iter().map(|r| r.every).min().expect("ring table is never empty")
    }
}

impl Default for FisheyeRings {
    /// `[(ttl 2, every 1), (ttl 8, every 2), (ttl 255, every 4)]`.
    fn default() -> Self {
        FisheyeRings::new([(2, 1), (8, 2), (255, 4)])
    }
}

/// How far a node's TCs travel (the flooding scope), the only flooded
/// message kind.
///
/// An oracle pair like [`RecomputeMode`], with one essential
/// difference: `Fisheye` is *not* byte-identical to `Classic`. It deliberately changes what is on
/// the air (fewer, scoped floods), so the pinned contract is quantitative
/// instead: detection scenarios reach the same convictions, route stretch
/// stays bounded, and forwarded TC frames drop by an asymptotic factor of
/// the outermost stride (`tests/fisheye_equivalence.rs`,
/// `BENCH_scale.json`). A `Fisheye` with a single unbounded every-interval
/// ring *is* byte-identical to `Classic`, which anchors the scoped mode to
/// the oracle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum FloodScope {
    /// Every TC floods network-wide (TTL 255) — RFC 3626 behaviour,
    /// the equivalence oracle and benchmark baseline. O(n²) forwarded
    /// frames per TC interval.
    #[default]
    Classic,
    /// Graded per-ring TC scoping: nearby topology stays fresh while far
    /// topology refreshes (and expires) slowly. O(n·√n)-ish forwarded
    /// frames per interval with the default table.
    Fisheye(FisheyeRings),
}

impl FloodScope {
    /// Worst-case number of TC opportunities between emissions a 1-hop
    /// neighbor hears: 1 for [`FloodScope::Classic`], the smallest ring
    /// stride for [`FloodScope::Fisheye`]. The E2 TC-silence rule keys
    /// its allowance off this so scoped emission is never mistaken for
    /// misbehaviour.
    pub fn near_stride(&self) -> u32 {
        match self {
            FloodScope::Classic => 1,
            FloodScope::Fisheye(rings) => rings.near_stride(),
        }
    }
}

/// Protocol timing and behaviour parameters (RFC 3626 §18 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct OlsrConfig {
    /// HELLO emission interval (default 2 s).
    pub hello_interval: SimDuration,
    /// TC emission interval (default 5 s).
    pub tc_interval: SimDuration,
    /// Validity advertised in HELLOs: NEIGHB_HOLD_TIME = 3 × hello interval.
    pub neighbor_hold_time: SimDuration,
    /// Validity advertised in TCs: TOP_HOLD_TIME = 3 × TC interval.
    pub topology_hold_time: SimDuration,
    /// How long duplicate-set entries are kept (default 30 s).
    pub duplicate_hold_time: SimDuration,
    /// Interval between expiry sweeps / state refreshes (default 1 s).
    pub refresh_interval: SimDuration,
    /// How recomputation is scheduled (see [`RecomputeMode`]).
    pub recompute: RecomputeMode,
    /// How far TCs flood (see [`FloodScope`]).
    pub flood_scope: FloodScope,
}

impl OlsrConfig {
    /// RFC 3626 §18 default timing.
    pub fn rfc_default() -> Self {
        let hello = SimDuration::from_secs(2);
        let tc = SimDuration::from_secs(5);
        OlsrConfig {
            hello_interval: hello,
            tc_interval: tc,
            neighbor_hold_time: hello * 3,
            topology_hold_time: tc * 3,
            duplicate_hold_time: SimDuration::from_secs(30),
            refresh_interval: SimDuration::from_secs(1),
            recompute: RecomputeMode::default(),
            flood_scope: FloodScope::default(),
        }
    }

    /// A faster variant for simulations that need quick convergence
    /// (hello 0.5 s, TC 1.25 s, proportional hold times).
    pub fn fast() -> Self {
        let hello = SimDuration::from_millis(500);
        let tc = SimDuration::from_millis(1250);
        OlsrConfig {
            hello_interval: hello,
            tc_interval: tc,
            neighbor_hold_time: hello * 3,
            topology_hold_time: tc * 3,
            duplicate_hold_time: SimDuration::from_secs(8),
            refresh_interval: SimDuration::from_millis(250),
            recompute: RecomputeMode::default(),
            flood_scope: FloodScope::default(),
        }
    }

    /// Replaces the recompute scheduling mode.
    pub fn with_recompute(mut self, mode: RecomputeMode) -> Self {
        self.recompute = mode;
        self
    }

    /// Replaces the TC flooding scope.
    pub fn with_flood_scope(mut self, scope: FloodScope) -> Self {
        self.flood_scope = scope;
        self
    }
}

impl Default for OlsrConfig {
    fn default() -> Self {
        OlsrConfig::rfc_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustlink_sim::record::Willingness;

    #[test]
    fn seqnum_wraps() {
        assert_eq!(SequenceNumber(u16::MAX).next(), SequenceNumber(0));
        assert_eq!(SequenceNumber(7).next(), SequenceNumber(8));
    }

    #[test]
    fn seqnum_comparison_plain() {
        assert!(SequenceNumber(5).is_newer_than(SequenceNumber(3)));
        assert!(!SequenceNumber(3).is_newer_than(SequenceNumber(5)));
        assert!(!SequenceNumber(5).is_newer_than(SequenceNumber(5)));
    }

    #[test]
    fn seqnum_comparison_across_wrap() {
        // 2 is newer than 65534 (it wrapped).
        assert!(SequenceNumber(2).is_newer_than(SequenceNumber(65534)));
        assert!(!SequenceNumber(65534).is_newer_than(SequenceNumber(2)));
    }

    #[test]
    fn seqnum_antisymmetric_near_everywhere() {
        for &(a, b) in &[(0u16, 1), (100, 40000), (65000, 100), (32767, 0)] {
            let ab = SequenceNumber(a).is_newer_than(SequenceNumber(b));
            let ba = SequenceNumber(b).is_newer_than(SequenceNumber(a));
            assert!(!(ab && ba), "both newer: {a} {b}");
        }
    }

    #[test]
    fn willingness_roundtrip_and_rounding() {
        for w in [
            Willingness::Never,
            Willingness::Low,
            Willingness::Default,
            Willingness::High,
            Willingness::Always,
        ] {
            assert_eq!(Willingness::from_wire(w.to_wire()), w);
        }
        assert_eq!(Willingness::from_wire(2), Willingness::Low);
        assert_eq!(Willingness::from_wire(4), Willingness::Default);
        assert_eq!(Willingness::from_wire(200), Willingness::Always);
    }

    #[test]
    fn willingness_orders_by_eagerness() {
        assert!(Willingness::Always > Willingness::High);
        assert!(Willingness::High > Willingness::Default);
        assert!(Willingness::Default > Willingness::Low);
        assert!(Willingness::Low > Willingness::Never);
    }

    #[test]
    fn config_defaults_follow_rfc() {
        let c = OlsrConfig::rfc_default();
        assert_eq!(c.hello_interval, SimDuration::from_secs(2));
        assert_eq!(c.tc_interval, SimDuration::from_secs(5));
        assert_eq!(c.neighbor_hold_time, SimDuration::from_secs(6));
        assert_eq!(c.topology_hold_time, SimDuration::from_secs(15));
    }

    #[test]
    fn fast_config_is_proportional() {
        let c = OlsrConfig::fast();
        assert_eq!(c.neighbor_hold_time, c.hello_interval * 3);
        assert_eq!(c.topology_hold_time, c.tc_interval * 3);
    }

    #[test]
    fn fisheye_ring_selection_follows_strides() {
        let rings = FisheyeRings::default();
        // k = 1..=8: 2, 8, 2, 255, 2, 8, 2, 255.
        let scopes: Vec<u8> =
            (1..=8).map(|k| rings.ring_for_emission(k).expect("ring due").1.ttl).collect();
        assert_eq!(scopes, vec![2, 8, 2, 255, 2, 8, 2, 255]);
        // Ring indexes follow the table order.
        assert_eq!(rings.ring_for_emission(4).unwrap().0, 2);
        assert_eq!(rings.ring_for_emission(2).unwrap().0, 1);
        assert_eq!(rings.ring_for_emission(1).unwrap().0, 0);
    }

    #[test]
    fn fisheye_sparse_table_can_skip_emissions() {
        // No stride-1 ring: odd emissions are skipped entirely.
        let rings = FisheyeRings::new([(4, 2), (255, 4)]);
        assert!(rings.ring_for_emission(1).is_none());
        assert_eq!(rings.ring_for_emission(2).unwrap().1.ttl, 4);
        assert_eq!(rings.ring_for_emission(4).unwrap().1.ttl, 255);
        assert_eq!(rings.near_stride(), 2);
    }

    #[test]
    fn flood_scope_near_stride() {
        assert_eq!(FloodScope::Classic.near_stride(), 1);
        assert_eq!(FloodScope::Fisheye(FisheyeRings::default()).near_stride(), 1);
        assert_eq!(FloodScope::Fisheye(FisheyeRings::new([(4, 2), (255, 4)])).near_stride(), 2);
    }

    #[test]
    fn single_unbounded_ring_schedules_like_classic() {
        let rings = FisheyeRings::single_unbounded(255);
        for k in 1..=16 {
            let (idx, ring) = rings.ring_for_emission(k).expect("always due");
            assert_eq!((idx, ring.ttl, ring.every), (0, 255, 1));
        }
        assert_eq!(rings.near_stride(), 1);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn fisheye_rejects_non_ascending_ttls() {
        let _ = FisheyeRings::new([(8, 1), (8, 2)]);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn fisheye_rejects_empty_table() {
        let _ = FisheyeRings::new([]);
    }

    #[test]
    #[should_panic(expected = "stride must be at least 1")]
    fn fisheye_rejects_zero_stride() {
        let _ = FisheyeRings::new([(2, 0)]);
    }
}
