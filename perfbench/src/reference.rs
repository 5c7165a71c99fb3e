//! A fixed host-speed reference, sampled between the slices of a run.
//!
//! The benchmark shares a core with other tenants, and how fast that core
//! runs the simulator drifts by up to 1.5x within a run and across runs
//! (user time, not steal). The reference is timed between the slices of a
//! run, in the same process on the same core, and `run_s` is the run's wall
//! time rescaled by the median reference time.
//!
//! The kernel is benchmark code that no change to the program can touch. It
//! imitates the simulator's own mix, which is what makes it drift with the
//! simulator: a small event loop (binary heap, hashed per-node state, short
//! payload allocations), a hash table probed at random, a pointer chase over
//! a buffer that fits the core's private cache, and a streaming pass over a
//! buffer that does not, like the routing scratch that a large node id
//! sizes. A chase that misses every cache, or one long arithmetic
//! dependency chain, drifts much less than the simulator does; neither was
//! kept.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Reference time, in seconds, of the host `run_s` is expressed on: about
/// what one sample takes on an idle 2-vCPU Xeon guest.
pub const NOMINAL_S: f64 = 0.0083;

/// Slots of the pointer chase (256 KiB of `u32`).
const CHASE_SLOTS: usize = 1 << 16;
const CHASE_STEPS: usize = 40_000;
const TABLE_CAPACITY: usize = 16_384;
const TABLE_OPS: u64 = 40_000;
const EVENT_STEPS: usize = 30_000;
const EVENT_NODES: u32 = 2_048;
/// Distinct keys of the event loop's per-node state.
const STATE_KEYS: usize = 8_192;
const PAYLOADS_LIVE: usize = 1_024;
/// Words of the streamed buffer (8 MiB, four times the private cache).
const STREAM_WORDS: usize = 1 << 20;
const STREAM_PASSES: usize = 2;

/// The kernel's buffers live as long as the reference and are cleared, not
/// freed, between samples: freeing a table this large would move glibc's
/// mmap threshold and change how the simulator's own buffers are placed.
/// Only the short payloads come and go.
pub struct Reference {
    chase: Vec<u32>,
    at: u32,
    rng: u64,
    table: HashMap<u64, u64>,
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    state: HashMap<u32, u64>,
    payloads: Vec<Vec<u8>>,
    stream: Vec<u64>,
}

impl Reference {
    pub fn new() -> Self {
        let mut r = Reference {
            chase: (0..CHASE_SLOTS as u32).collect(),
            at: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            table: HashMap::with_capacity(TABLE_CAPACITY),
            queue: BinaryHeap::with_capacity(EVENT_NODES as usize),
            state: HashMap::with_capacity(STATE_KEYS),
            payloads: Vec::with_capacity(PAYLOADS_LIVE),
            stream: vec![1; STREAM_WORDS],
        };
        // Sattolo's shuffle: one cycle through every slot.
        for i in (1..CHASE_SLOTS).rev() {
            let j = (r.next() % i as u64) as usize;
            r.chase.swap(i, j);
        }
        r
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Runs the kernel once and returns its wall time in seconds.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();

        let mut p = self.at;
        for _ in 0..CHASE_STEPS {
            p = self.chase[p as usize];
        }
        self.at = std::hint::black_box(p);

        let table = &mut self.table;
        table.clear();
        for i in 0..TABLE_OPS {
            table.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 50, i);
            if i % 2 == 0 {
                table.remove(&((i / 2).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 50));
            }
        }

        self.queue.clear();
        self.queue.extend((0..EVENT_NODES).map(|n| Reverse((u64::from(n), n))));
        self.state.clear();
        self.payloads.clear();
        for i in 0..EVENT_STEPS {
            let Reverse((at, node)) = self.queue.pop().expect("the queue never empties");
            let x = self.next();
            *self.state.entry(node ^ (x as usize % STATE_KEYS) as u32).or_insert(0) += at;
            let payload = vec![node as u8; (x % 200) as usize + 16];
            if self.payloads.len() < PAYLOADS_LIVE {
                self.payloads.push(payload);
            } else {
                self.payloads[i % PAYLOADS_LIVE] = payload;
            }
            self.queue.push(Reverse((at + 1 + (x >> 54), node)));
        }
        std::hint::black_box((self.table.len(), self.state.len(), self.payloads.len()));

        for _ in 0..STREAM_PASSES {
            for (i, x) in self.stream.iter_mut().enumerate() {
                *x = x.wrapping_mul(3).wrapping_add(i as u64);
            }
            std::hint::black_box(self.stream.iter().fold(0, |a, &b| a ^ b));
        }

        t.elapsed().as_secs_f64()
    }
}
