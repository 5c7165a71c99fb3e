//! Per-neighbor trust bookkeeping with time-slot semantics.
//!
//! A [`TrustStore`] is what one node `A` carries: the current trust value
//! for every peer it has formed an opinion about, plus the evidence
//! collected during the *current* time slot `Δt`. Calling
//! [`TrustStore::end_slot`] closes the slot and applies formula (5) to every
//! peer with pending evidence.
//!
//! The store is generic over the peer key so the trust crate stays
//! independent of the simulator's node type.

use std::collections::HashMap;
use std::hash::Hash;

use crate::update::TrustUpdate;
use crate::value::{EvidenceKind, TrustValue};

/// The trust ledger one node keeps about its peers.
///
/// ```
/// use trustlink_trust::{TrustStore, TrustValue, EvidenceKind};
///
/// let mut store: TrustStore<&str> = TrustStore::new(TrustValue::DEFAULT);
/// store.record("mallory", EvidenceKind::FalseTestimony);
/// store.record("alice", EvidenceKind::TruthfulTestimony);
/// store.end_slot();
/// assert!(store.trust_of(&"mallory") < store.trust_of(&"alice"));
/// ```
#[derive(Debug, Clone)]
pub struct TrustStore<K> {
    update: TrustUpdate,
    initial: TrustValue,
    trust: HashMap<K, TrustValue>,
    pending: HashMap<K, Vec<EvidenceKind>>,
    slots_elapsed: u64,
}

impl<K: Eq + Hash + Clone> TrustStore<K> {
    /// Builds a store where unknown peers start at `initial` trust, using
    /// the default update operator (β = 0.9, default gravities).
    pub fn new(initial: TrustValue) -> Self {
        TrustStore::with_update(initial, TrustUpdate::default())
    }

    /// Builds a store with an explicit update operator.
    pub fn with_update(initial: TrustValue, update: TrustUpdate) -> Self {
        TrustStore {
            update,
            initial,
            trust: HashMap::new(),
            pending: HashMap::new(),
            slots_elapsed: 0,
        }
    }

    /// The update operator in force.
    pub fn update_rule(&self) -> &TrustUpdate {
        &self.update
    }

    /// Current trust in `peer` (the initial value if never observed).
    pub fn trust_of(&self, peer: &K) -> TrustValue {
        self.trust.get(peer).copied().unwrap_or(self.initial)
    }

    /// Overrides the trust of `peer` — used to seed the random initial
    /// trust of the paper's experiments.
    pub fn set_trust(&mut self, peer: K, value: TrustValue) {
        self.trust.insert(peer, value);
    }

    /// Records one piece of evidence about `peer` in the current slot.
    pub fn record(&mut self, peer: K, evidence: EvidenceKind) {
        self.trust.entry(peer.clone()).or_insert(self.initial);
        self.pending.entry(peer).or_default().push(evidence);
    }

    /// Evidence recorded for `peer` in the still-open slot.
    pub fn pending_for(&self, peer: &K) -> &[EvidenceKind] {
        self.pending.get(peer).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Closes the current time slot: applies formula (5) to every peer
    /// with pending evidence.
    ///
    /// Peers without pending evidence are left untouched, which matches the
    /// paper's evaluation where trust only moves when evidence arrives.
    pub fn end_slot(&mut self) {
        for (k, ev) in std::mem::take(&mut self.pending) {
            let prev = self.trust_of(&k);
            self.trust.insert(k, self.update.step(prev, &ev));
        }
        self.slots_elapsed += 1;
    }

    /// Number of closed slots so far.
    pub fn slots_elapsed(&self) -> u64 {
        self.slots_elapsed
    }

    /// All peers with an explicit trust value, in unspecified order.
    pub fn peers(&self) -> impl Iterator<Item = (&K, TrustValue)> {
        self.trust.iter().map(|(k, v)| (k, *v))
    }

    /// Number of peers tracked.
    pub fn len(&self) -> usize {
        self.trust.len()
    }

    /// `true` when no peer has ever been observed or seeded.
    pub fn is_empty(&self) -> bool {
        self.trust.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_peer_reads_initial() {
        let store: TrustStore<u32> = TrustStore::new(TrustValue::DEFAULT);
        assert_eq!(store.trust_of(&7), TrustValue::DEFAULT);
        assert!(store.is_empty());
    }

    #[test]
    fn evidence_moves_trust_at_slot_end_only() {
        let mut store: TrustStore<u32> = TrustStore::new(TrustValue::DEFAULT);
        store.record(1, EvidenceKind::FalseTestimony);
        // Nothing applied yet:
        assert_eq!(store.trust_of(&1), TrustValue::DEFAULT);
        assert_eq!(store.pending_for(&1).len(), 1);
        store.end_slot();
        assert!(store.trust_of(&1) < TrustValue::DEFAULT);
        assert!(store.pending_for(&1).is_empty());
        assert_eq!(store.slots_elapsed(), 1);
    }

    #[test]
    fn unobserved_peers_frozen_by_default() {
        let mut store: TrustStore<u32> = TrustStore::new(TrustValue::DEFAULT);
        store.set_trust(1, TrustValue::new(0.8));
        store.end_slot();
        assert_eq!(store.trust_of(&1), TrustValue::new(0.8));
    }

    #[test]
    fn multiple_evidences_accumulate_within_slot() {
        let mut a: TrustStore<u32> = TrustStore::new(TrustValue::ZERO);
        let mut b: TrustStore<u32> = TrustStore::new(TrustValue::ZERO);
        a.record(1, EvidenceKind::TruthfulTestimony);
        a.record(1, EvidenceKind::TruthfulTestimony);
        b.record(1, EvidenceKind::TruthfulTestimony);
        a.end_slot();
        b.end_slot();
        assert!(a.trust_of(&1) > b.trust_of(&1));
    }

    #[test]
    fn seeded_trust_then_updates() {
        let mut store: TrustStore<&str> = TrustStore::new(TrustValue::DEFAULT);
        store.set_trust("liar", TrustValue::new(0.9));
        for _ in 0..25 {
            store.record("liar", EvidenceKind::FalseTestimony);
            store.end_slot();
        }
        // 25 rounds of lying overwhelm even a high initial trust.
        assert!(store.trust_of(&"liar").get() < -0.5);
    }

    #[test]
    fn peers_iteration() {
        let mut store: TrustStore<u32> = TrustStore::new(TrustValue::DEFAULT);
        store.set_trust(1, TrustValue::new(0.1));
        store.set_trust(2, TrustValue::new(0.2));
        assert_eq!(store.len(), 2);
        let mut ids: Vec<u32> = store.peers().map(|(k, _)| *k).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn recording_registers_peer() {
        let mut store: TrustStore<u32> = TrustStore::new(TrustValue::DEFAULT);
        store.record(5, EvidenceKind::NormalRelaying);
        assert_eq!(store.len(), 1);
    }
}
