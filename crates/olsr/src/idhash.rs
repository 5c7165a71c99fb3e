//! Random-keyed hashing for tables whose keys arrive off the air.
//!
//! Node ids, TC originators and sequence numbers are chosen by whoever
//! transmits the frame. A table hashed by a fixed public function lets a
//! hostile sender pick keys that all share one home bucket, so every later
//! probe walks one long run: resource use controlled from the air. Every
//! such table in the stack hashes with [`IdHash`]: a multiply-add whose
//! multiplier and addend are secret and random, passed through a fixed
//! finalizer, so no sender can predict which keys collide.
//!
//! Key material is drawn from [`RandomState`] once per process; each table
//! derives its own function from that draw and a per-table counter, so
//! building a table costs a few multiplies, not an operating-system draw.
//! Only speed depends on the draw: nothing a table that uses it yields in
//! hash order reaches an output unsorted, so every output is identical
//! whichever function was drawn.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use trustlink_sim::NodeId;

/// A keyed hash of integer keys: `mix(mul · key + add)`, with the
/// multiply-add modulo 2⁶⁴ for a random odd `mul` and a random `add`, and
/// `mix` the splitmix64 finalizer.
///
/// The multiply-add alone is only 2-independent (Dietzfelbinger's
/// multiply-add-shift): two chosen keys share a bucket with probability
/// about `2⁻ˡ`, but linear probing needs more than pairwise independence.
/// It maps an arithmetic progression of keys to a progression of hashes,
/// whose top bits cluster into one long probe run whenever the random step
/// lands near a multiple of the bucket width (Pătraşcu and Thorup, ICALP
/// 2010). The finalizer scatters such progressions. It is a fixed
/// bijection, so no bound is proven for the result; the tests pin crafted
/// progressions, including a key of the bare multiply-add that clusters
/// them.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHash {
    mul: u64,
    add: u64,
}

/// The splitmix64 finalizer: turns a counter into well-spread key bits.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl IdHash {
    /// A fresh function, derived from this process's key draw and a
    /// per-table counter.
    pub fn random() -> Self {
        static DRAW: OnceLock<(u64, u64)> = OnceLock::new();
        static TABLES: AtomicU64 = AtomicU64::new(0);
        let &(k0, k1) = DRAW.get_or_init(|| {
            let state = RandomState::new();
            (state.hash_one(0u8), state.hash_one(1u8))
        });
        // The counter only has to hand out distinct values; it publishes
        // nothing else, so `Relaxed` suffices.
        let n = TABLES.fetch_add(1, Ordering::Relaxed);
        IdHash { mul: mix(k0 ^ n) | 1, add: mix(k1.wrapping_add(n)) }
    }

    /// The full 64-bit hash of `key`.
    #[inline]
    fn hash(self, key: u64) -> u64 {
        mix(self.mul.wrapping_mul(key).wrapping_add(self.add))
    }

    /// The home bucket of `key` in a table of `len` buckets, a power of two
    /// of at least 2: the top `log2(len)` bits of the hash.
    #[inline]
    pub fn bucket(self, key: u64, len: usize) -> usize {
        debug_assert!(len >= 2 && len.is_power_of_two(), "table length {len}");
        (self.hash(key) >> (64 - len.trailing_zeros())) as usize
    }
}

/// A [`BuildHasher`] that gives each std map or set its own [`IdHash`].
#[derive(Debug, Clone, Copy)]
pub struct IdBuildHasher(IdHash);

impl Default for IdBuildHasher {
    fn default() -> Self {
        IdBuildHasher(IdHash::random())
    }
}

impl BuildHasher for IdBuildHasher {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher { key: self.0, state: 0 }
    }
}

/// The [`Hasher`] of an [`IdBuildHasher`]. Built for keys that hash as one
/// integer (a `NodeId` is one `u32`); other keys are folded in one integer
/// at a time, which stays correct.
#[derive(Debug, Clone, Copy)]
pub struct IdHasher {
    key: IdHash,
    state: u64,
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = self.key.hash(self.state ^ n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// A std hash map keyed by ids heard off the air.
pub type IdHashMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// An open-addressing index from ids heard off the air to the slots a
/// table of them holds: `(id, slot)` entries in a power-of-two table, found
/// by linear probing from the home bucket an [`IdHash`] drawn with the
/// table gives, and removed by backward-shift deletion, so it needs no
/// tombstones. It stays at most half full, and empty until the first id.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdSlots {
    table: Vec<(u32, u32)>,
    hash: IdHash,
}

impl IdSlots {
    /// The slot of an unused entry: slot numbers never reach it.
    const FREE: u32 = u32::MAX;

    /// First table size.
    const MIN_LEN: usize = 8;

    /// Entries in the table, used or not.
    pub(crate) fn capacity(&self) -> usize {
        self.table.len()
    }

    /// The entry holding `id`, or the unused entry ending its probe run.
    /// The table must be allocated.
    #[inline]
    fn probe(&self, id: NodeId) -> usize {
        let mask = self.table.len() - 1;
        let mut i = self.hash.bucket(u64::from(id.0), self.table.len());
        loop {
            let (key, slot) = self.table[i];
            if slot == Self::FREE || key == id.0 {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot of `id`, if indexed.
    #[inline]
    pub(crate) fn get(&self, id: NodeId) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        let slot = self.table[self.probe(id)].1;
        (slot != Self::FREE).then_some(slot)
    }

    /// Indexes `id`, which is absent, at `slot`, with `held` ids indexed
    /// in all: the table is first allocated, or doubles once more than
    /// half full.
    pub(crate) fn insert(&mut self, id: NodeId, slot: u32, held: usize) {
        debug_assert!(slot != Self::FREE);
        if self.table.is_empty() {
            self.resize(Self::MIN_LEN);
        }
        let i = self.probe(id);
        self.table[i] = (id.0, slot);
        if held * 2 > self.table.len() {
            self.resize(self.table.len() * 2);
        }
    }

    /// Rebuilds the table at `len` entries, a power of two above twice the
    /// ids held, drawing its hash function on the first allocation.
    pub(crate) fn resize(&mut self, len: usize) {
        if self.table.is_empty() {
            self.hash = IdHash::random();
        }
        let old = std::mem::replace(&mut self.table, vec![(0, Self::FREE); len]);
        for (key, slot) in old {
            if slot != Self::FREE {
                let i = self.probe(NodeId(key));
                self.table[i] = (key, slot);
            }
        }
    }

    /// Removes indexed `id` by backward-shift deletion (Knuth's Algorithm
    /// R for linear probing): every later entry of the probe run whose home
    /// bucket does not lie cyclically in `(hole, j]` moves back into the
    /// hole, so each stays reachable from its home.
    pub(crate) fn remove(&mut self, id: NodeId) {
        let len = self.table.len();
        let mut hole = self.probe(id);
        let mut j = hole;
        loop {
            j = (j + 1) & (len - 1);
            let (key, slot) = self.table[j];
            if slot == Self::FREE {
                break;
            }
            let home = self.hash.bucket(u64::from(key), len);
            let stays = if hole <= j { hole < home && home <= j } else { hole < home || home <= j };
            if !stays {
                self.table[hole] = self.table[j];
                hole = j;
            }
        }
        self.table[hole] = (0, Self::FREE);
    }

    /// The longest run of used entries, cyclically: what a probe can walk.
    #[cfg(test)]
    pub(crate) fn longest_run(&self) -> usize {
        let mut longest = 0;
        let mut run = 0;
        for &(_, slot) in self.table.iter().chain(&self.table) {
            run = if slot == Self::FREE { 0 } else { run + 1 };
            longest = longest.max(run);
        }
        longest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    impl IdHash {
        /// The function with the given multiplier (made odd) and addend.
        pub(crate) fn with_keys(mul: u64, add: u64) -> Self {
            IdHash { mul: mul | 1, add }
        }
    }

    #[test]
    fn each_table_gets_its_own_odd_multiplier() {
        let a = IdHash::random();
        let b = IdHash::random();
        assert_eq!(a.mul & 1, 1);
        assert_eq!(b.mul & 1, 1);
        assert_ne!((a.mul, a.add), (b.mul, b.add));
    }

    #[test]
    fn buckets_stay_in_range() {
        let h = IdHash::random();
        for len in [2usize, 64, 1 << 20] {
            for key in [0u64, 1, 999_999, u64::from(u32::MAX), u64::MAX] {
                assert!(h.bucket(key, len) < len);
            }
        }
    }

    #[test]
    fn ids_that_share_low_bits_spread_in_a_std_map() {
        // Ids that agree on their low 20 bits: a hash whose low bits are
        // the key's own (an identity or plain-multiply hash) piles them
        // into one bucket. Their hashes must differ in the low bits a
        // std table indexes by.
        let h = IdBuildHasher::default();
        let low: HashSet<u64> = (0..64u32).map(|i| h.hash_one(NodeId(i << 20)) & 0xFFF).collect();
        assert!(low.len() > 32, "only {} distinct low-bit buckets", low.len());
        let mut map = IdHashMap::default();
        for i in 0..64u32 {
            map.insert(NodeId(i << 20), i);
        }
        assert!((0..64u32).all(|i| map.get(&NodeId(i << 20)) == Some(&i)));
        assert!(!map.contains_key(&NodeId(1)));
    }
}
