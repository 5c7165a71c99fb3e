//! The in-flight queue: frames waiting out their radio delay, kept in a
//! calendar ring of buckets rather than a heap.
//!
//! Every frame is due `delay` after the instant it was sent, with `delay`
//! at most a maximum fixed when the simulator is built (the radio's
//! `base_delay + jitter`). So every pending frame is due inside a window of
//! `max_delay + 1` µs starting at the current instant. The ring cuts the
//! timeline into buckets of `2^shift` µs and keeps enough of them that no
//! two instants of one window share a bucket. A frame goes to its due
//! instant's bucket; the next frame due is the front of the first
//! occupied bucket at or after the cursor, found through a bitmap of
//! occupied buckets a word at a time.
//!
//! Stamps are pushed in increasing `seq`. With 1 µs buckets every frame in
//! a bucket is due at one instant, so appending keeps each bucket in
//! `(time, seq)` order and popping its front gives exactly the order a
//! `(time, seq)` heap gives, with no comparisons. A wider window widens the
//! buckets instead of adding more; a bucket then spans several instants and
//! a push inserts in `(time, seq)` order.
//!
//! Entries live in a slab whose slots are recycled through a free list, so
//! once the ring has held its working set, pushing and popping allocate
//! nothing. No storage is allocated before the first push.

use crate::time::{SimDuration, SimTime};

/// The most buckets a ring holds. The default radio's 3 001 µs window
/// fits 1 µs buckets; a wider window widens the buckets instead.
const MAX_BUCKETS: u64 = 4096;

/// The null link of the slab's lists.
const NIL: u32 = u32::MAX;

/// One pending stamp and its item, linked into its bucket or the free list.
struct Entry<T> {
    time: SimTime,
    seq: u64,
    next: u32,
    /// `None` only while the slot is on the free list.
    item: Option<T>,
}

/// A bucket's list of entries, in `(time, seq)` order.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY: Bucket = Bucket { head: NIL, tail: NIL };

/// Buckets of `2^shift` µs needed so that no two instants of a
/// `max_delay + 1` µs window share a bucket: the window touches at most
/// `ceil(max_delay / 2^shift) + 1` of them.
fn buckets_needed(max_delay: u64, shift: u32) -> u64 {
    max_delay.div_ceil(1 << shift).saturating_add(1)
}

/// A queue of items due within a bounded delay, popped in `(time, seq)`
/// order.
///
/// Its contract, which the simulator keeps: stamps are pushed in increasing
/// `seq`, every push is due at most `max_delay` after `now`, and `now` never
/// passes the earliest pending stamp.
pub(crate) struct CalendarRing<T> {
    max_delay: SimDuration,
    /// Buckets are `2^shift` µs wide.
    shift: u32,
    /// The bucket count minus one; the count is a power of two.
    mask: u64,
    /// An absolute bucket number (`time >> shift`) that no pending entry
    /// precedes.
    cursor: u64,
    len: usize,
    buckets: Vec<Bucket>,
    /// One bit per bucket, set while the bucket holds entries.
    occupied: Vec<u64>,
    slab: Vec<Entry<T>>,
    /// Head of the list of free slab slots.
    free: u32,
}

impl<T> CalendarRing<T> {
    /// An empty ring for delays of at most `max_delay`. Allocates nothing.
    pub(crate) fn new(max_delay: SimDuration) -> Self {
        let d = max_delay.as_micros();
        let shift = (0..64)
            .find(|&s| buckets_needed(d, s) <= MAX_BUCKETS)
            .expect("2^63 µs buckets fit any delay");
        CalendarRing {
            max_delay,
            shift,
            mask: buckets_needed(d, shift).next_power_of_two() - 1,
            cursor: 0,
            len: 0,
            buckets: Vec::new(),
            occupied: Vec::new(),
            slab: Vec::new(),
            free: NIL,
        }
    }

    /// Number of pending items.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Queues `item`, stamped `seq`, to fall due `delay` after `now`.
    ///
    /// # Panics
    ///
    /// Panics if `delay` exceeds the ring's maximum delay.
    #[inline]
    pub(crate) fn push(&mut self, now: SimTime, delay: SimDuration, seq: u64, item: T) {
        assert!(delay <= self.max_delay, "delay {delay:?} beyond the ring's {:?}", self.max_delay);
        if self.buckets.is_empty() {
            let count = self.mask as usize + 1;
            self.buckets = vec![EMPTY; count];
            self.occupied = vec![0; count.div_ceil(64)];
        }
        let time = now + delay;
        let abs = time.as_micros() >> self.shift;
        // Nothing pending precedes `now`, and everything pending is due
        // within `max_delay` of it: a cursor kept at or past `now`'s bucket
        // stays less than a lap behind every entry. A cursor left behind by
        // the last pop would not, once control events moved `now` on.
        self.cursor = self.cursor.max(now.as_micros() >> self.shift).min(abs);
        let idx = self.alloc(Entry { time, seq, next: NIL, item: Some(item) });
        let b = (abs & self.mask) as usize;
        let Bucket { head, tail } = self.buckets[b];
        if head == NIL {
            self.buckets[b] = Bucket { head: idx, tail: idx };
            self.occupied[b / 64] |= 1u64 << (b % 64);
        } else if self.slab[tail as usize].time <= time {
            // Always taken with 1 µs buckets: a later push has a larger seq.
            self.slab[tail as usize].next = idx;
            self.buckets[b].tail = idx;
        } else {
            // A wide bucket already holds a later instant: insert before
            // the first entry due after `time`. The tail is one, so the
            // walk stops inside the list.
            let (mut prev, mut cur) = (NIL, head);
            while self.slab[cur as usize].time <= time {
                prev = cur;
                cur = self.slab[cur as usize].next;
            }
            self.slab[idx as usize].next = cur;
            if prev == NIL {
                self.buckets[b].head = idx;
            } else {
                self.slab[prev as usize].next = idx;
            }
        }
        self.len += 1;
    }

    /// The `(time, seq)` stamp of the next item due.
    #[inline]
    pub(crate) fn peek(&mut self) -> Option<(SimTime, u64)> {
        if self.len == 0 {
            return None;
        }
        let b = self.seek();
        let front = &self.slab[self.buckets[b].head as usize];
        Some((front.time, front.seq))
    }

    /// Removes the next item due.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let b = self.seek();
        let idx = self.buckets[b].head;
        let entry = &mut self.slab[idx as usize];
        let next = entry.next;
        let item = entry.item.take().expect("a linked entry holds its item");
        entry.next = self.free;
        self.free = idx;
        self.buckets[b].head = next;
        if next == NIL {
            self.buckets[b].tail = NIL;
            self.occupied[b / 64] &= !(1u64 << (b % 64));
        }
        self.len -= 1;
        Some(item)
    }

    /// Moves the cursor to the first occupied bucket and returns its index.
    /// The ring must not be empty. Every pending entry lies less than one
    /// lap past the cursor, so the first occupied bucket found scanning one
    /// lap forward holds the earliest entries.
    #[inline]
    fn seek(&mut self) -> usize {
        let start = (self.cursor & self.mask) as usize;
        let (w0, bit) = (start / 64, start % 64);
        let words = self.occupied.len();
        let ahead = self.occupied[w0] & (u64::MAX << bit);
        let b = if ahead != 0 {
            w0 * 64 + ahead.trailing_zeros() as usize
        } else {
            // The last step revisits `w0`, whose bits at or past `bit` are
            // known clear: what is left of it lies one lap ahead.
            (1..=words)
                .map(|k| (w0 + k) % words)
                .find(|&w| self.occupied[w] != 0)
                .map(|w| w * 64 + self.occupied[w].trailing_zeros() as usize)
                .expect("a non-empty ring has an occupied bucket")
        };
        self.cursor += (b.wrapping_sub(start) as u64) & self.mask;
        b
    }

    /// Stores `entry` in a free slab slot, growing the slab only when none
    /// is free.
    #[inline]
    fn alloc(&mut self, entry: Entry<T>) -> u32 {
        if self.free == NIL {
            let idx = u32::try_from(self.slab.len()).ok().filter(|&i| i != NIL);
            self.slab.push(entry);
            idx.expect("too many frames in flight")
        } else {
            let idx = self.free;
            self.free = self.slab[idx as usize].next;
            self.slab[idx as usize] = entry;
            idx
        }
    }

    /// Whether any ring storage has been allocated.
    #[cfg(test)]
    pub(crate) fn holds_storage(&self) -> bool {
        self.buckets.capacity() + self.occupied.capacity() + self.slab.capacity() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The three radio shapes: zero delay and jitter (one bucket), the
    /// default radio's 1 ms + 2 ms (1 µs buckets), and a maximum delay past
    /// the bucket cap (8 µs buckets).
    const MAX_DELAYS: [u64; 3] = [0, 3_000, 25_000];

    #[test]
    fn geometry_fits_the_window() {
        let geometry = |d: u64| {
            let ring = CalendarRing::<()>::new(SimDuration::from_micros(d));
            (ring.shift, ring.mask + 1)
        };
        assert_eq!(geometry(0), (0, 1));
        assert_eq!(geometry(1), (0, 2));
        assert_eq!(geometry(3_000), (0, 4096));
        assert_eq!(geometry(4_095), (0, 4096));
        assert_eq!(geometry(4_096), (1, 4096));
        assert_eq!(geometry(25_000), (3, 4096));
        assert_eq!(geometry(u64::MAX), (53, 4096));
    }

    #[test]
    fn steady_traffic_recycles_slots_over_many_laps() {
        // One frame sent per µs at the maximum delay, for 10 000 laps of a
        // one-bucket ring and 3 laps of the default ring: the slab stays at
        // the window's size.
        for (max_delay, steps) in [(0u64, 10_000u64), (3_000, 12_288)] {
            let mut ring = CalendarRing::new(SimDuration::from_micros(max_delay));
            let mut popped = 0;
            for seq in 0..steps {
                let now = SimTime::from_micros(seq);
                while let Some((t, s)) = ring.peek().filter(|&(t, _)| t <= now) {
                    assert_eq!((t.as_micros(), s), (popped + max_delay, popped));
                    assert_eq!(ring.pop(), Some(popped));
                    popped += 1;
                }
                ring.push(now, SimDuration::from_micros(max_delay), seq, seq);
            }
            assert!(ring.slab.len() as u64 <= max_delay + 1, "slab grew to {}", ring.slab.len());
        }
    }

    /// One scripted step: push a burst, pop one, or let a control event
    /// move the clock without passing the earliest pending stamp.
    #[derive(Debug, Clone)]
    enum Op {
        /// Push stamps due `delays` after now, in order.
        Push(Vec<u64>),
        Pop,
        /// Move the clock by a folded delay, stopping at the earliest
        /// pending stamp; a draw of the window's edge jumps right to it,
        /// leaving the last popped bucket behind.
        Advance(u64),
        /// Pop everything pending.
        Drain,
    }

    /// A raw delay draw, folded into `0..=max_delay` by [`fold`]: uniform,
    /// or one of the window's edges, or one fixed mid-window delay so
    /// stamps pushed at one instant pile up in one bucket, or a few µs so
    /// a wide bucket receives instants out of order.
    fn delay() -> impl Strategy<Value = u64> {
        prop_oneof![any::<u64>(), Just(0), Just(u64::MAX), Just(u64::MAX / 2), 0u64..16]
    }

    fn fold(raw: u64, max_delay: u64) -> SimDuration {
        SimDuration::from_micros(if raw == u64::MAX { max_delay } else { raw % (max_delay + 1) })
    }

    type Model = BinaryHeap<Reverse<(SimTime, u64)>>;

    /// Pops the ring and the model once; both must agree, and the clock
    /// moves to the popped stamp as the simulator's would.
    fn pop_both(
        ring: &mut CalendarRing<u64>,
        model: &mut Model,
        now: &mut SimTime,
    ) -> Result<(), TestCaseError> {
        let want = model.pop().map(|Reverse(stamp)| stamp);
        prop_assert_eq!(ring.peek(), want);
        // Each item is its own seq, so it must leave with its stamp.
        prop_assert_eq!(ring.pop(), want.map(|(_, seq)| seq));
        if let Some((t, _)) = want {
            *now = t;
        }
        Ok(())
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            proptest::collection::vec(delay(), 1..8).prop_map(Op::Push),
            proptest::collection::vec(delay(), 1..8).prop_map(Op::Push),
            Just(Op::Pop),
            Just(Op::Pop),
            delay().prop_map(Op::Advance),
            Just(Op::Drain),
        ]
    }

    proptest! {
        #[test]
        fn ring_pops_in_the_order_of_a_reference_heap(
            shape in 0usize..3,
            ops in proptest::collection::vec(op(), 1..200),
        ) {
            let max_delay = MAX_DELAYS[shape];
            let mut ring = CalendarRing::new(SimDuration::from_micros(max_delay));
            let mut model = Model::new();
            let (mut now, mut seq, mut peak) = (SimTime::ZERO, 0u64, 0usize);
            for op in ops {
                match op {
                    Op::Push(delays) => {
                        for raw in delays {
                            let delay = fold(raw, max_delay);
                            ring.push(now, delay, seq, seq);
                            model.push(Reverse((now + delay, seq)));
                            seq += 1;
                        }
                        peak = peak.max(model.len());
                    }
                    Op::Pop => pop_both(&mut ring, &mut model, &mut now)?,
                    Op::Advance(raw) => {
                        let by = fold(raw, max_delay);
                        let head = model.peek().map_or(SimTime::MAX, |Reverse((t, _))| *t);
                        now = (now + by).min(head);
                    }
                    Op::Drain => {
                        while !model.is_empty() {
                            pop_both(&mut ring, &mut model, &mut now)?;
                        }
                    }
                }
                prop_assert_eq!(ring.len(), model.len());
            }
            while !model.is_empty() {
                pop_both(&mut ring, &mut model, &mut now)?;
            }
            prop_assert_eq!(ring.pop(), None);
            prop_assert!(ring.slab.len() <= peak, "slab {} past peak {}", ring.slab.len(), peak);
        }
    }
}
