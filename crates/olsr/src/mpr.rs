//! MPR selection (RFC 3626 §8.3.1).
//!
//! Each node selects, among its symmetric 1-hop neighbors, a minimal-ish set
//! of *multipoint relays* covering every strict 2-hop neighbor. Only MPRs
//! retransmit flooded control traffic — which is exactly why the paper's
//! link-spoofing attacker wants to be selected: Expression (1) shows that
//! advertising a non-existent neighbor guarantees selection.
//!
//! The heuristic implemented is the RFC's:
//!
//! 1. start with all neighbors of willingness `WILL_ALWAYS`;
//! 2. add every neighbor that is the *only* path to some 2-hop neighbor;
//! 3. while some 2-hop neighbor is uncovered, add the neighbor with the
//!    highest willingness, breaking ties by reachability (number of still
//!    uncovered 2-hop neighbors it covers) and then by degree.

use std::collections::BTreeSet;

use trustlink_sim::NodeId;

use trustlink_sim::record::Willingness;

/// A candidate 1-hop neighbor for MPR selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MprCandidate {
    /// The neighbor's address.
    pub addr: NodeId,
    /// Its advertised willingness.
    pub willingness: Willingness,
    /// The strict 2-hop neighbors reachable through it.
    pub covers: Vec<NodeId>,
    /// Its degree `D(y)`: number of symmetric neighbors of the candidate,
    /// excluding this node and its 1-hop neighborhood. We approximate with
    /// the size of `covers` plus any extra links the candidate advertised;
    /// callers may supply the exact RFC value when available.
    pub degree: usize,
}

/// Coverage of the deduplicated 2-hop targets by willing candidates.
struct Coverage {
    /// Deduplicated targets, ascending.
    targets: Vec<NodeId>,
    /// Parallel to `targets`: already covered by a selected MPR?
    covered: Vec<bool>,
    /// `(candidate, target)` coverage pairs, sorted and deduplicated —
    /// duplicate candidate addresses merge.
    pairs: Vec<(NodeId, NodeId)>,
}

/// Inserts `addr` into the sorted set `out`; `true` if newly added.
fn insert_sorted(out: &mut Vec<NodeId>, addr: NodeId) -> bool {
    match out.binary_search(&addr) {
        Ok(_) => false,
        Err(at) => {
            out.insert(at, addr);
            true
        }
    }
}

impl Coverage {
    /// The coverage pairs of `addr`, as a sorted slice of the pair buffer.
    fn pairs_of(&self, addr: NodeId) -> &[(NodeId, NodeId)] {
        let lo = self.pairs.partition_point(|p| p.0 < addr);
        let hi = self.pairs.partition_point(|p| p.0 <= addr);
        &self.pairs[lo..hi]
    }

    /// Marks everything `addr` covers; returns how many targets became
    /// newly covered.
    fn mark_covered(&mut self, addr: NodeId) -> usize {
        let lo = self.pairs.partition_point(|p| p.0 < addr);
        let hi = self.pairs.partition_point(|p| p.0 <= addr);
        let mut newly = 0;
        for i in lo..hi {
            let t = self.pairs[i].1;
            let ti = self.targets.binary_search(&t).expect("pair target not in target set");
            if !self.covered[ti] {
                self.covered[ti] = true;
                newly += 1;
            }
        }
        newly
    }
}

/// Computes the MPR set covering `two_hop_targets` using `candidates`
/// (RFC 3626 §8.3.1 heuristic).
///
/// `two_hop_targets` should already exclude the selecting node itself and
/// its symmetric 1-hop neighbors. Candidates with willingness
/// [`Willingness::Never`] are never selected; 2-hop targets only reachable
/// through such neighbors end up uncovered (as in the RFC).
///
/// The result is sorted ascending.
pub fn select_mprs(candidates: &[MprCandidate], two_hop_targets: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut targets = two_hop_targets.to_vec();
    targets.sort_unstable();
    targets.dedup();
    if targets.is_empty() {
        // Still honour WILL_ALWAYS neighbors (RFC step 1).
        for c in candidates {
            if c.willingness == Willingness::Always {
                insert_sorted(&mut out, c.addr);
            }
        }
        return out;
    }

    // Coverage restricted to real targets and willing candidates.
    let mut pairs = Vec::new();
    for c in candidates {
        if c.willingness == Willingness::Never {
            continue;
        }
        for &t in &c.covers {
            if targets.binary_search(&t).is_ok() {
                pairs.push((c.addr, t));
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();

    let covered = vec![false; targets.len()];
    let mut cov = Coverage { targets, covered, pairs };
    let mut uncovered = cov.targets.len();

    // Step 1: WILL_ALWAYS neighbors are always MPRs.
    for c in candidates {
        if c.willingness == Willingness::Always {
            insert_sorted(&mut out, c.addr);
            uncovered -= cov.mark_covered(c.addr);
        }
    }

    // Step 2: neighbors that are the sole cover of some target.
    let mut cover_count = vec![0u32; cov.targets.len()];
    let mut sole_cover = vec![NodeId(0); cov.targets.len()];
    for &(cand, t) in &cov.pairs {
        let ti = cov.targets.binary_search(&t).expect("pair target not in target set");
        cover_count[ti] += 1;
        sole_cover[ti] = cand;
    }
    for ti in 0..cov.targets.len() {
        if !cov.covered[ti] && cover_count[ti] == 1 {
            insert_sorted(&mut out, sole_cover[ti]);
        }
    }
    for &m in out.iter() {
        uncovered -= cov.mark_covered(m);
    }

    // Step 3: greedy by (willingness, reachability, degree, addr-for-determinism).
    while uncovered > 0 {
        let mut best: Option<(Willingness, usize, usize, NodeId)> = None;
        for c in candidates {
            if c.willingness == Willingness::Never || out.binary_search(&c.addr).is_ok() {
                continue;
            }
            let reach = cov
                .pairs_of(c.addr)
                .iter()
                .filter(|(_, t)| {
                    let ti = cov.targets.binary_search(t).expect("pair target not in target set");
                    !cov.covered[ti]
                })
                .count();
            if reach == 0 {
                continue;
            }
            let key = (c.willingness, reach, c.degree, c.addr);
            let better = match &best {
                None => true,
                Some((w, r, d, a)) => {
                    (key.0, key.1, key.2) > (*w, *r, *d)
                        || ((key.0, key.1, key.2) == (*w, *r, *d) && key.3 < *a)
                }
            };
            if better {
                best = Some(key);
            }
        }
        match best {
            Some((_, _, _, addr)) => {
                insert_sorted(&mut out, addr);
                uncovered -= cov.mark_covered(addr);
            }
            None => break, // some targets are unreachable through willing neighbors
        }
    }
    out
}

/// Checks the MPR coverage invariant: every target reachable through some
/// willing candidate is covered by at least one selected MPR. Returns the
/// uncovered-but-coverable targets (empty = invariant holds).
pub fn uncovered_targets(
    candidates: &[MprCandidate],
    two_hop_targets: &[NodeId],
    mprs: &[NodeId],
) -> Vec<NodeId> {
    let mpr_set: BTreeSet<NodeId> = mprs.iter().copied().collect();
    let mut covered: BTreeSet<NodeId> = BTreeSet::new();
    let mut coverable: BTreeSet<NodeId> = BTreeSet::new();
    for c in candidates {
        if c.willingness == Willingness::Never {
            continue;
        }
        for &t in &c.covers {
            coverable.insert(t);
            if mpr_set.contains(&c.addr) {
                covered.insert(t);
            }
        }
    }
    two_hop_targets
        .iter()
        .copied()
        .filter(|t| coverable.contains(t) && !covered.contains(t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(addr: u32, will: Willingness, covers: &[u32]) -> MprCandidate {
        MprCandidate {
            addr: NodeId(addr),
            willingness: will,
            covers: covers.iter().map(|&c| NodeId(c)).collect(),
            degree: covers.len(),
        }
    }

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&x| NodeId(x)).collect()
    }

    #[test]
    fn empty_inputs() {
        assert!(select_mprs(&[], &[]).is_empty());
        assert!(select_mprs(&[], &ids(&[10])).is_empty());
        assert!(select_mprs(&[cand(1, Willingness::Default, &[])], &[]).is_empty());
    }

    #[test]
    fn single_candidate_covers_all() {
        let c = [cand(1, Willingness::Default, &[10, 11])];
        assert_eq!(select_mprs(&c, &ids(&[10, 11])), ids(&[1]));
    }

    #[test]
    fn sole_cover_is_forced() {
        // 1 covers {10}, 2 covers {10, 11}: 2 is the sole cover of 11.
        let c = [cand(1, Willingness::Default, &[10]), cand(2, Willingness::Default, &[10, 11])];
        let mprs = select_mprs(&c, &ids(&[10, 11]));
        assert_eq!(mprs, ids(&[2])); // 2 alone suffices
    }

    #[test]
    fn greedy_picks_max_reachability() {
        // 3 covers three targets, 1 and 2 cover one each; greedy should
        // take 3 first and be done.
        let c = [
            cand(1, Willingness::Default, &[10]),
            cand(2, Willingness::Default, &[11]),
            cand(3, Willingness::Default, &[10, 11, 12]),
        ];
        assert_eq!(select_mprs(&c, &ids(&[10, 11, 12])), ids(&[3]));
    }

    #[test]
    fn willingness_beats_reachability() {
        // No target has a sole cover, so the greedy step runs: the
        // high-willingness candidate is picked first even though another
        // candidate covers more targets (RFC orders by willingness first).
        let c = [
            cand(1, Willingness::High, &[10]),
            cand(2, Willingness::Default, &[10, 11]),
            cand(3, Willingness::Default, &[11]),
        ];
        let mprs = select_mprs(&c, &ids(&[10, 11]));
        // 1 picked first (higher willingness), then 2 (degree beats 3) for 11.
        assert_eq!(mprs, ids(&[1, 2]));
    }

    #[test]
    fn will_never_is_excluded() {
        let c = [cand(1, Willingness::Never, &[10, 11]), cand(2, Willingness::Default, &[10])];
        let mprs = select_mprs(&c, &ids(&[10, 11]));
        assert_eq!(mprs, ids(&[2]));
        // 11 is only coverable via the unwilling node: stays uncovered but
        // does not loop forever.
        assert!(uncovered_targets(&c, &ids(&[10, 11]), &mprs).is_empty()); // 11 isn't "coverable"
    }

    #[test]
    fn will_always_is_always_selected() {
        let c = [cand(1, Willingness::Always, &[]), cand(2, Willingness::Default, &[10])];
        let mprs = select_mprs(&c, &ids(&[10]));
        assert_eq!(mprs, ids(&[1, 2]));
        // Even with no 2-hop targets at all:
        assert_eq!(select_mprs(&c, &[]), ids(&[1]));
    }

    #[test]
    fn tie_break_by_degree_then_addr() {
        // Equal willingness and reachability; higher degree wins.
        let mut c1 = cand(1, Willingness::Default, &[10]);
        c1.degree = 5;
        let mut c2 = cand(2, Willingness::Default, &[10]);
        c2.degree = 2;
        assert_eq!(select_mprs(&[c1.clone(), c2.clone()], &ids(&[10])), ids(&[1]));
        // Exactly equal: deterministic lowest address.
        c1.degree = 2;
        assert_eq!(select_mprs(&[c1, c2], &ids(&[10])), ids(&[1]));
    }

    #[test]
    fn coverage_invariant_random_like_cases() {
        // A handful of structured cases; the proptest suite drives more.
        let cases: Vec<(Vec<MprCandidate>, Vec<NodeId>)> = vec![
            (
                vec![
                    cand(1, Willingness::Default, &[10, 11]),
                    cand(2, Willingness::Low, &[11, 12]),
                    cand(3, Willingness::High, &[12, 13]),
                    cand(4, Willingness::Default, &[13, 10]),
                ],
                ids(&[10, 11, 12, 13]),
            ),
            (
                vec![
                    cand(1, Willingness::Default, &[20]),
                    cand(2, Willingness::Default, &[20]),
                    cand(3, Willingness::Default, &[20]),
                ],
                ids(&[20]),
            ),
        ];
        for (cands, targets) in cases {
            let mprs = select_mprs(&cands, &targets);
            assert!(
                uncovered_targets(&cands, &targets, &mprs).is_empty(),
                "uncovered targets with candidates {cands:?}"
            );
        }
    }

    #[test]
    fn targets_not_coverable_do_not_hang() {
        let c = [cand(1, Willingness::Default, &[10])];
        // 99 is not coverable at all.
        let mprs = select_mprs(&c, &ids(&[10, 99]));
        assert_eq!(mprs, ids(&[1]));
    }
}
