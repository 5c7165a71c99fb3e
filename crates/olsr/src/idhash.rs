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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use trustlink_sim::NodeId;

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
