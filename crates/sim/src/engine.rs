//! The discrete-event engine.
//!
//! Events are processed in strict `(time, sequence)` order; the sequence
//! number breaks ties deterministically in scheduling order. All randomness
//! is drawn from a single seeded RNG, so a run is a pure function of
//! `(seed, configuration, applications)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::mobility::{Arena, MobilityModel, MobilityState, Position};
use crate::node::{Application, Command, Context, LogBuffer, NodeId, TimerToken};
use crate::radio::{ChannelModel, ChannelState, DeliveryOutcome, RadioConfig};
use crate::record::{FlightRecord, FlightRecorder};
use crate::ring::CalendarRing;
use crate::stats::TrafficStats;
use crate::time::{SimDuration, SimTime};

/// What a scheduled control event does when it fires. Frames in flight
/// are not control events: they wait as [`Delivery`]s in a calendar ring,
/// because the radio bounds their delay. Popping them from a `(time, seq)`
/// heap cost about 13 % of a 256-node OLSR run, nearly all of it in
/// compares whose branches cannot be predicted; the ring pops in the same
/// order with none.
#[derive(Debug)]
enum EventKind {
    /// Fire an application timer on `node`.
    Timer { node: NodeId, token: TimerToken },
    /// Invoke `on_start` for a node.
    Start { node: NodeId },
    /// Advance all mobile nodes and reschedule.
    MobilityTick,
}

/// A frame in flight: `payload`, sent by `from`, arrives at `to`.
#[derive(Debug)]
struct Delivery {
    to: NodeId,
    from: NodeId,
    payload: Bytes,
}

/// An entry of the control heap, ordered by `(time, seq)` alone.
struct Scheduled {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Scheduled {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// One sender's broadcast receivers, cached between changes of geometry
/// or liveness.
#[derive(Debug, Default)]
struct ReceiverList {
    /// The geometry epoch the list was built at; stale once the
    /// simulator's epoch moves on.
    epoch: u64,
    /// Ascending indices of the alive nodes within range, sender excluded.
    ids: Vec<u32>,
}

struct NodeSlot {
    app: Box<dyn Application>,
    position: Position,
    mobility: MobilityState,
    log: LogBuffer,
    alive: bool,
    /// Arrival time of the last accepted frame, for the collision window.
    last_rx: Option<SimTime>,
}

/// Builder for a [`Simulator`].
///
/// ```
/// use trustlink_sim::prelude::*;
/// let sim = SimulatorBuilder::new(7)
///     .arena(Arena::new(500.0, 500.0))
///     .radio(RadioConfig::unit_disk(150.0))
///     .mobility_tick(SimDuration::from_millis(250))
///     .build();
/// assert_eq!(sim.now(), SimTime::ZERO);
/// ```
#[derive(Debug)]
pub struct SimulatorBuilder {
    seed: u64,
    arena: Arena,
    radio: RadioConfig,
    mobility_tick: SimDuration,
    expected_nodes: usize,
    channel: Option<ChannelModel>,
}

/// Control-heap capacity reserved per expected node: its protocol timers
/// and the one-shot start event. Purely a pre-allocation hint. Frames in
/// flight are not in the control heap: the radio bounds their delay, so
/// they wait in a calendar ring, which pops them without the compares that
/// cost about 13 % of a 256-node run while they were popped from a heap.
/// The ring is not presized either: it allocates its buckets on the first
/// frame, and its slab reaches the working set (5–6 frames per node on
/// 256-node OLSR and detection runs) within the first flood.
const CONTROL_EVENTS_PER_NODE_HINT: usize = 4;

/// Receiver-list capacity reserved when a node is added. A mean-degree-10
/// neighbourhood fits without regrowth when the sender's first broadcast
/// fills it. Purely a pre-allocation hint, with one measured side effect:
/// the small lists, interleaved with the applications' allocations, stop
/// the allocator from handing the freed tail of the heap back to the
/// system when a simulator is dropped. Without them, glibc returned about
/// 115 pages on every drop of a 256-node detection simulator, and building
/// the next one faulted them back in (set-up 40–80 % slower).
const RECEIVERS_PER_NODE_HINT: usize = 16;

impl SimulatorBuilder {
    /// Starts a builder with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        SimulatorBuilder {
            seed,
            arena: Arena::default(),
            radio: RadioConfig::default(),
            mobility_tick: SimDuration::from_millis(500),
            expected_nodes: 0,
            channel: None,
        }
    }

    /// Sets the arena dimensions.
    pub fn arena(mut self, arena: Arena) -> Self {
        self.arena = arena;
        self
    }

    /// Sets the radio configuration.
    pub fn radio(mut self, radio: RadioConfig) -> Self {
        self.radio = radio;
        self
    }

    /// Sets the granularity at which mobile nodes are advanced.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero.
    pub fn mobility_tick(mut self, tick: SimDuration) -> Self {
        assert!(!tick.is_zero(), "mobility tick must be positive");
        self.mobility_tick = tick;
        self
    }

    /// Attaches a per-link [`ChannelModel`] (Gilbert–Elliott fading).
    /// Without one — the default — the uniform [`RadioConfig`] is the whole
    /// medium, and runs are byte-identical to builds that predate the
    /// channel layer: the model's per-link RNG streams are the only new
    /// randomness, and they are derived from `(link, seed)`, never drawn
    /// from the simulator's global stream.
    pub fn channel_model(mut self, model: ChannelModel) -> Self {
        self.channel = Some(model);
        self
    }

    /// Declares how many nodes the scenario is about to add, so the
    /// control-event heap, node slots, the table of receiver lists (one
    /// per node), traffic counters and the per-callback command buffer
    /// are sized once up front. Each receiver list reserves its own
    /// capacity when its node is added, hint or not. Purely a capacity
    /// hint: it changes no behaviour, and adding more (or fewer) nodes
    /// than declared stays correct.
    pub fn expected_nodes(mut self, n: usize) -> Self {
        self.expected_nodes = n.min(u32::MAX as usize);
        self
    }

    /// Finalizes the configuration into an empty simulator.
    pub fn build(self) -> Simulator {
        let channel = self.channel.map(|m| ChannelState::new(m, self.seed));
        let n = self.expected_nodes;
        let mut stats = TrafficStats::default();
        stats.reserve_nodes(n);
        Simulator {
            time: SimTime::ZERO,
            queue: BinaryHeap::with_capacity(n.saturating_mul(CONTROL_EVENTS_PER_NODE_HINT)),
            in_flight: CalendarRing::new(self.radio.base_delay + self.radio.jitter),
            seq: 0,
            slots: Vec::with_capacity(n),
            radio: self.radio,
            channel,
            arena: self.arena,
            rng: StdRng::seed_from_u64(self.seed),
            stats,
            mobility_tick: self.mobility_tick,
            mobility_scheduled: false,
            alive_count: 0,
            scratch_commands: Vec::with_capacity(if n > 0 { 64 } else { 0 }),
            receivers: Vec::with_capacity(n),
            geometry_epoch: 1,
        }
    }
}

/// The deterministic discrete-event simulator.
///
/// See the [crate-level documentation](crate) for a full example.
pub struct Simulator {
    time: SimTime,
    /// Timers, start events and mobility ticks.
    queue: BinaryHeap<Reverse<Scheduled>>,
    /// Frames in flight. They outnumber control events many times over, and
    /// each is due at most `base_delay + jitter` after it was sent, with the
    /// radio fixed at build time. So they wait in a calendar ring with one
    /// bucket per instant of that window: popping them from a heap spent
    /// about 13 % of a 256-node run in compares, and the ring pops in the
    /// same `(time, seq)` order without any.
    in_flight: CalendarRing<Delivery>,
    /// One counter across the heap and the ring: events due at one instant
    /// run in scheduling order whichever queue holds them.
    seq: u64,
    slots: Vec<NodeSlot>,
    radio: RadioConfig,
    channel: Option<ChannelState>,
    arena: Arena,
    rng: StdRng,
    stats: TrafficStats,
    mobility_tick: SimDuration,
    mobility_scheduled: bool,
    /// Number of alive slots, kept current so a broadcast can book every
    /// alive node outside its sender's receiver list as out of range
    /// without visiting it.
    alive_count: u64,
    /// Reused per-callback command buffer: the event hot path allocates
    /// nothing.
    scratch_commands: Vec<Command>,
    /// Each sender's cached broadcast receivers, indexed by node.
    receivers: Vec<ReceiverList>,
    /// Bumped by every change that can move a node into or out of another
    /// node's range: a node added, teleported, killed or revived, and
    /// every mobility tick. A receiver list stamped with an older epoch is
    /// rebuilt on its sender's next broadcast.
    geometry_epoch: u64,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("time", &self.time)
            .field("nodes", &self.slots.len())
            .field("pending_events", &(self.queue.len() + self.in_flight.len()))
            .finish()
    }
}

impl Simulator {
    /// Adds a stationary node at `position`; returns its identity.
    pub fn add_node(&mut self, app: Box<dyn Application>, position: Position) -> NodeId {
        self.add_mobile_node(app, position, MobilityModel::Stationary)
    }

    /// Adds a node with an explicit mobility model.
    pub fn add_mobile_node(
        &mut self,
        app: Box<dyn Application>,
        position: Position,
        mobility: MobilityModel,
    ) -> NodeId {
        let id = NodeId(u32::try_from(self.slots.len()).expect("too many nodes"));
        self.stats.ensure_node(id);
        let position = self.arena.clamp(position);
        self.slots.push(NodeSlot {
            app,
            position,
            mobility: MobilityState::new(mobility),
            log: LogBuffer::default(),
            alive: true,
            last_rx: None,
        });
        self.receivers.push(ReceiverList {
            ids: Vec::with_capacity(RECEIVERS_PER_NODE_HINT),
            ..ReceiverList::default()
        });
        self.alive_count += 1;
        self.geometry_epoch += 1;
        self.schedule(SimDuration::ZERO, EventKind::Start { node: id });
        id
    }

    /// The current simulation instant.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Number of nodes ever added.
    pub fn node_count(&self) -> usize {
        self.slots.len()
    }

    /// Identities of all nodes, in creation order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.slots.len()).map(|i| NodeId(i as u32))
    }

    /// The audit log of `id`: the records it still holds, and the count of
    /// every record it ever logged ([`LogBuffer::len`]). A consumer on the
    /// node may release what it has read ([`Context::release_log`]); a
    /// trust-enabled detector does so after each analysis pass unless its
    /// flight recording is on, so its log holds only the records not yet
    /// analysed.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn log(&self, id: NodeId) -> &LogBuffer {
        &self.slots[id.index()].log
    }

    /// Captures every node's audit log into one [`FlightRecorder`]: the
    /// whole run as a single attributed record stream in canonical
    /// `(time, node)` order, ready for rlog serialization or replay. Only
    /// the records the logs still hold are captured: a detector keeps its
    /// whole log only with flight recording on, and otherwise holds just
    /// the records its analysis has not read yet.
    pub fn flight_recorder(&self) -> FlightRecorder {
        let mut records = Vec::new();
        for id in self.node_ids().collect::<Vec<_>>() {
            for (at, record) in self.log(id).entries() {
                records.push(FlightRecord { at: *at, node: id, record: record.clone() });
            }
        }
        FlightRecorder::from_records(records)
    }

    /// Current position of `id`.
    pub fn position(&self, id: NodeId) -> Position {
        self.slots[id.index()].position
    }

    /// Teleports `id` to `position` (clamped to the arena). Useful for
    /// scripted topology changes in tests and scenarios.
    pub fn set_position(&mut self, id: NodeId, position: Position) {
        let position = self.arena.clamp(position);
        self.slots[id.index()].position = position;
        self.geometry_epoch += 1;
    }

    /// Immutable access to the application installed on `id`.
    pub fn app(&self, id: NodeId) -> &dyn Application {
        self.slots[id.index()].app.as_ref()
    }

    /// Downcasts the application on `id` to its concrete type.
    pub fn app_as<T: Application>(&self, id: NodeId) -> Option<&T> {
        let any: &dyn std::any::Any = self.slots[id.index()].app.as_ref();
        any.downcast_ref::<T>()
    }

    /// Mutable downcast of the application on `id`.
    pub fn app_as_mut<T: Application>(&mut self, id: NodeId) -> Option<&mut T> {
        let any: &mut dyn std::any::Any = self.slots[id.index()].app.as_mut();
        any.downcast_mut::<T>()
    }

    /// Aggregated traffic counters.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// The radio configuration in force.
    pub fn radio(&self) -> &RadioConfig {
        &self.radio
    }

    /// The per-link channel state in force, if a model was attached.
    pub fn channel(&self) -> Option<&ChannelState> {
        self.channel.as_ref()
    }

    /// Ground-truth neighbors of `id`: alive nodes within the radio range.
    /// (What an omniscient observer would call the 1-hop neighborhood;
    /// protocols must *discover* this.)
    pub fn neighbors_in_range(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.neighbors_in_range_into(id, &mut out);
        out.into_iter().map(NodeId).collect()
    }

    /// Buffer-reusing variant of [`Simulator::neighbors_in_range`]: clears
    /// `out` and fills it with the ascending raw indices of the alive
    /// in-range nodes. Ground-truth sweeps (scenario health checks,
    /// benches) call this once per node per round; with a caller-kept
    /// buffer the sweep stops allocating once warm
    /// (`tests/alloc_regression.rs` pins this). It scans every slot, and
    /// it is also the one definition of a broadcast's receivers: each
    /// sender's cached list is rebuilt through it.
    pub fn neighbors_in_range_into(&self, id: NodeId, out: &mut Vec<u32>) {
        out.clear();
        let me_pos = self.slots[id.index()].position;
        let range = self.radio.range;
        out.extend(
            self.slots
                .iter()
                .enumerate()
                .filter(|(i, s)| {
                    *i != id.index() && s.alive && me_pos.distance(&s.position) <= range
                })
                .map(|(i, _)| i as u32),
        );
    }

    /// Marks `id` dead: it stops transmitting and receiving (crash / power
    /// off). Timers still fire but commands from dead nodes are discarded.
    pub fn kill(&mut self, id: NodeId) {
        let slot = &mut self.slots[id.index()];
        if slot.alive {
            slot.alive = false;
            self.alive_count -= 1;
            self.geometry_epoch += 1;
        }
    }

    /// Brings a dead node back.
    pub fn revive(&mut self, id: NodeId) {
        let slot = &mut self.slots[id.index()];
        if !slot.alive {
            slot.alive = true;
            self.alive_count += 1;
            self.geometry_epoch += 1;
        }
    }

    /// Injects a broadcast frame as if transmitted by `from` right now.
    /// Intended for tests and scripted scenarios.
    pub fn inject_broadcast(&mut self, from: NodeId, payload: Bytes) {
        self.fan_out_broadcast(from, payload);
    }

    /// The next sequence number, drawn for the heap and the ring alike.
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    fn schedule(&mut self, delay: SimDuration, kind: EventKind) {
        let seq = self.next_seq();
        self.queue.push(Reverse(Scheduled { time: self.time + delay, seq, kind }));
    }

    fn schedule_delivery(&mut self, delay: SimDuration, delivery: Delivery) {
        let seq = self.next_seq();
        self.in_flight.push(self.time, delay, seq, delivery);
    }

    /// Runs until the control heap and the in-flight ring are exhausted or
    /// `deadline` is reached. The clock always ends at `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_mobility_tick();
        loop {
            // The earlier of the two heads runs next. Stamps are unique, so
            // this is the order a single heap of every event would pop.
            let control = self.queue.peek().map(|Reverse(e)| e.key());
            let flight = self.in_flight.peek();
            let (time, is_delivery) = match (control, flight) {
                (Some(c), Some(f)) if f < c => (f.0, true),
                (Some(c), _) => (c.0, false),
                (None, Some(f)) => (f.0, true),
                (None, None) => break,
            };
            if time > deadline {
                break;
            }
            debug_assert!(time >= self.time, "time went backwards");
            self.time = time;
            if is_delivery {
                let delivery = self.in_flight.pop().expect("peeked delivery vanished");
                self.deliver(delivery);
            } else {
                let Reverse(ev) = self.queue.pop().expect("peeked event vanished");
                self.dispatch(ev.kind);
            }
        }
        if self.time < deadline {
            self.time = deadline;
        }
    }

    /// Runs for `span` of simulated time from the current instant.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.time + span;
        self.run_until(deadline);
    }

    fn ensure_mobility_tick(&mut self) {
        if self.mobility_scheduled {
            return;
        }
        let any_mobile =
            self.slots.iter().any(|s| !matches!(s.mobility.model, MobilityModel::Stationary));
        if any_mobile {
            self.mobility_scheduled = true;
            self.schedule(self.mobility_tick, EventKind::MobilityTick);
        }
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Start { node } => self.run_callback(node, |app, ctx| app.on_start(ctx)),
            EventKind::Timer { node, token } => {
                self.run_callback(node, |app, ctx| app.on_timer(ctx, token))
            }
            EventKind::MobilityTick => {
                for slot in &mut self.slots {
                    slot.position = slot.mobility.step(
                        slot.position,
                        self.mobility_tick,
                        &self.arena,
                        &mut self.rng,
                    );
                }
                self.geometry_epoch += 1;
                self.schedule(self.mobility_tick, EventKind::MobilityTick);
            }
        }
    }

    fn deliver(&mut self, Delivery { to, from, payload }: Delivery) {
        let slot = &mut self.slots[to.index()];
        if !slot.alive {
            return;
        }
        if let Some(window) = self.radio.collision_window {
            if let Some(last) = slot.last_rx {
                if self.time.saturating_since(last) < window {
                    self.stats.lost_collision += 1;
                    return;
                }
            }
        }
        slot.last_rx = Some(self.time);
        self.stats.node_mut(to).received += 1;
        self.run_callback(to, move |app, ctx| app.on_receive(ctx, from, payload));
    }

    fn run_callback(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut Box<dyn Application>, &mut Context<'_>),
    ) {
        // Reuse the simulator-owned command buffer: steady-state event
        // dispatch performs no allocation. `mem::take` (rather than a
        // direct borrow) keeps `self` free for `execute`.
        let mut commands = std::mem::take(&mut self.scratch_commands);
        commands.clear();
        {
            let slot = &mut self.slots[node.index()];
            if !slot.alive {
                self.scratch_commands = commands;
                return;
            }
            let mut ctx =
                Context::new(node, self.time, &mut self.rng, &mut slot.log, &mut commands);
            f(&mut slot.app, &mut ctx);
        }
        self.execute(node, &mut commands);
        self.scratch_commands = commands;
    }

    fn execute(&mut self, node: NodeId, commands: &mut Vec<Command>) {
        for cmd in commands.drain(..) {
            if !self.slots[node.index()].alive {
                // A node killed mid-callback transmits nothing further.
                break;
            }
            match cmd {
                Command::Broadcast { payload } => self.fan_out_broadcast(node, payload),
                Command::Unicast { to, payload } => self.fan_out_unicast(node, to, payload),
                Command::SetTimer { delay, token } => {
                    self.schedule(delay, EventKind::Timer { node, token })
                }
            }
        }
    }

    fn fan_out_broadcast(&mut self, from: NodeId, payload: Bytes) {
        let tx_pos = self.slots[from.index()].position;
        {
            let s = self.stats.node_mut(from);
            s.broadcasts_sent += 1;
            s.bytes_sent += payload.len() as u64;
        }
        // Receivers are every other alive node within the radio range, in
        // ascending order: the RNG draw order (the radio draws only for
        // positive-probability receivers) is that of judging every alive
        // node in slot order. The list is the ground-truth neighborhood,
        // rebuilt only when the geometry changed since the sender last
        // used it.
        let mut list = std::mem::take(&mut self.receivers[from.index()]);
        if list.epoch != self.geometry_epoch {
            self.neighbors_in_range_into(from, &mut list.ids);
            list.epoch = self.geometry_epoch;
        }
        for &i in &list.ids {
            self.judge_one(from, NodeId(i), tx_pos, &payload);
        }
        let visited = list.ids.len() as u64;
        self.receivers[from.index()] = list;
        // Every alive node left off the list is beyond the radio range:
        // judging it would have drawn no randomness and booked it as out
        // of range, so it is booked in bulk instead.
        let alive_others = self.alive_count - u64::from(self.slots[from.index()].alive);
        debug_assert!(visited <= alive_others, "receiver list holds more nodes than are alive");
        self.stats.lost_range += alive_others - visited;
    }

    /// Judges one receiver of a broadcast or unicast: schedules the
    /// delivery or books the loss.
    fn judge_one(&mut self, from: NodeId, to: NodeId, tx_pos: Position, payload: &Bytes) {
        let rx_pos = self.slots[to.index()].position;
        let outcome = match self.channel.as_mut() {
            // Channel-model-off: the uniform radio judges alone, drawing
            // from the global stream exactly as it always has.
            None => self.radio.judge(tx_pos, rx_pos, &mut self.rng),
            Some(ch) => ch.judge(&self.radio, from, to, tx_pos, rx_pos, &mut self.rng),
        };
        match outcome {
            DeliveryOutcome::Deliver(delay) => {
                self.schedule_delivery(delay, Delivery { to, from, payload: payload.clone() })
            }
            DeliveryOutcome::OutOfRange => self.stats.lost_range += 1,
            DeliveryOutcome::Lost => self.stats.lost_random += 1,
        }
    }

    fn fan_out_unicast(&mut self, from: NodeId, to: NodeId, payload: Bytes) {
        if to.index() >= self.slots.len() || to == from {
            return; // addressed to nobody; silently dropped like a real NIC would
        }
        let tx_pos = self.slots[from.index()].position;
        {
            let s = self.stats.node_mut(from);
            s.unicasts_sent += 1;
            s.bytes_sent += payload.len() as u64;
        }
        if !self.slots[to.index()].alive {
            self.stats.lost_range += 1;
            return;
        }
        self.judge_one(from, to, tx_pos, &payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::FrameBatch;
    use crate::record::LogRecord;

    /// Counts receptions; broadcasts `n` times on start with 10 ms spacing.
    struct Chatter {
        to_send: u32,
        received: Vec<(SimTime, NodeId, Bytes)>,
    }

    impl Chatter {
        fn new(to_send: u32) -> Self {
            Chatter { to_send, received: Vec::new() }
        }
    }

    impl Application for Chatter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for i in 0..self.to_send {
                ctx.set_timer(SimDuration::from_millis(10 * (i as u64 + 1)), TimerToken(i as u64));
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, t: TimerToken) {
            ctx.broadcast(Bytes::from(format!("msg-{}", t.0)));
            // Filler that puts each broadcast's token in the golden digests.
            ctx.log(LogRecord::TcRx {
                originator: ctx.id(),
                sender: ctx.id(),
                ansn: t.0 as u16,
                advertised: Box::from([]),
            });
        }
        fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
            self.received.push((ctx.now(), from, payload));
        }
    }

    fn two_node_sim(distance: f64, range: f64) -> (Simulator, NodeId, NodeId) {
        let mut sim = SimulatorBuilder::new(1)
            .radio(RadioConfig::unit_disk(range))
            .arena(Arena::new(10_000.0, 10_000.0))
            .build();
        let a = sim.add_node(Box::new(Chatter::new(3)), Position::new(0.0, 0.0));
        let b = sim.add_node(Box::new(Chatter::new(0)), Position::new(distance, 0.0));
        (sim, a, b)
    }

    #[test]
    fn broadcast_reaches_in_range_node() {
        let (mut sim, a, b) = two_node_sim(100.0, 250.0);
        sim.run_for(SimDuration::from_secs(1));
        let rx = &sim.app_as::<Chatter>(b).unwrap().received;
        assert_eq!(rx.len(), 3);
        assert!(rx.iter().all(|(_, from, _)| *from == a));
        // Delivery is delayed by at least base_delay.
        assert!(rx[0].0 >= SimTime::from_millis(11));
    }

    #[test]
    fn broadcast_misses_out_of_range_node() {
        let (mut sim, _a, b) = two_node_sim(300.0, 250.0);
        sim.run_for(SimDuration::from_secs(1));
        assert!(sim.app_as::<Chatter>(b).unwrap().received.is_empty());
        assert_eq!(sim.stats().lost_range, 3);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| {
            let mut sim = SimulatorBuilder::new(seed)
                .radio(RadioConfig::unit_disk(250.0).with_loss(0.3))
                .build();
            let _a = sim.add_node(Box::new(Chatter::new(20)), Position::new(0.0, 0.0));
            let b = sim.add_node(Box::new(Chatter::new(0)), Position::new(10.0, 0.0));
            sim.run_for(SimDuration::from_secs(2));
            sim.app_as::<Chatter>(b)
                .unwrap()
                .received
                .iter()
                .map(|(t, f, p)| (t.as_micros(), f.0, p.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        // And a different seed should (with 20 frames at 30% loss) differ.
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn unicast_only_reaches_target() {
        struct Uni;
        impl Application for Uni {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(1), TimerToken(0));
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
                ctx.send(NodeId(1), Bytes::from_static(b"direct"));
            }
        }
        let mut sim = SimulatorBuilder::new(5).radio(RadioConfig::unit_disk(500.0)).build();
        let _a = sim.add_node(Box::new(Uni), Position::new(0.0, 0.0));
        let b = sim.add_node(Box::new(Chatter::new(0)), Position::new(10.0, 0.0));
        let c = sim.add_node(Box::new(Chatter::new(0)), Position::new(20.0, 0.0));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.app_as::<Chatter>(b).unwrap().received.len(), 1);
        assert!(sim.app_as::<Chatter>(c).unwrap().received.is_empty());
        assert_eq!(sim.stats().node(NodeId(0)).unicasts_sent, 1);
    }

    #[test]
    fn dead_nodes_neither_send_nor_receive() {
        let (mut sim, a, b) = two_node_sim(50.0, 250.0);
        sim.kill(a);
        sim.run_for(SimDuration::from_secs(1));
        assert!(sim.app_as::<Chatter>(b).unwrap().received.is_empty());
        // on_timer of a dead node is suppressed entirely.
        assert_eq!(sim.log(a).len(), 0);
        sim.revive(a);
        assert_eq!(sim.neighbors_in_range(b), vec![a]);
    }

    #[test]
    fn collision_window_drops_second_frame() {
        // Two senders firing at the same instant toward one receiver with
        // zero jitter: the second arrival collides.
        struct Once;
        impl Application for Once {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(5), TimerToken(0));
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
                ctx.broadcast(Bytes::from_static(b"x"));
            }
        }
        let mut radio = RadioConfig::unit_disk(500.0);
        radio.jitter = SimDuration::ZERO;
        let mut sim = SimulatorBuilder::new(3)
            .radio(radio.with_collisions(SimDuration::from_millis(1)))
            .build();
        let _s1 = sim.add_node(Box::new(Once), Position::new(0.0, 0.0));
        let _s2 = sim.add_node(Box::new(Once), Position::new(100.0, 0.0));
        let r = sim.add_node(Box::new(Chatter::new(0)), Position::new(50.0, 0.0));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.app_as::<Chatter>(r).unwrap().received.len(), 1);
        assert_eq!(sim.stats().lost_collision, 1);
    }

    #[test]
    fn neighbors_in_range_ground_truth() {
        let mut sim = SimulatorBuilder::new(1).radio(RadioConfig::unit_disk(100.0)).build();
        let a = sim.add_node(Box::new(Chatter::new(0)), Position::new(0.0, 0.0));
        let b = sim.add_node(Box::new(Chatter::new(0)), Position::new(60.0, 0.0));
        let c = sim.add_node(Box::new(Chatter::new(0)), Position::new(130.0, 0.0));
        assert_eq!(sim.neighbors_in_range(a), vec![b]);
        assert_eq!(sim.neighbors_in_range(b), vec![a, c]);
        sim.kill(c);
        assert_eq!(sim.neighbors_in_range(b), vec![a]);
    }

    #[test]
    fn clock_advances_to_deadline_without_events() {
        let mut sim = SimulatorBuilder::new(1).build();
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn mobile_node_positions_update_over_time() {
        let mut sim = SimulatorBuilder::new(11)
            .arena(Arena::new(200.0, 200.0))
            .mobility_tick(SimDuration::from_millis(100))
            .build();
        let m = sim.add_mobile_node(
            Box::new(Chatter::new(0)),
            Position::new(100.0, 100.0),
            MobilityModel::RandomWalk { speed: 20.0 },
        );
        let p0 = sim.position(m);
        sim.run_for(SimDuration::from_secs(5));
        let p1 = sim.position(m);
        assert!(p0.distance(&p1) > 0.0, "mobile node never moved");
    }

    #[test]
    fn injected_broadcast_delivered() {
        let (mut sim, a, b) = two_node_sim(50.0, 250.0);
        sim.run_for(SimDuration::from_millis(1)); // consume Start events
        sim.inject_broadcast(a, Bytes::from_static(b"ghost"));
        sim.run_for(SimDuration::from_secs(1));
        let rx = &sim.app_as::<Chatter>(b).unwrap().received;
        assert!(rx.iter().any(|(_, _, p)| p.as_ref() == b"ghost"));
    }

    /// FNV-1a over `bytes`: a stable digest for golden comparisons.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Runs `script` on a lossy 600 m arena and asserts that its stats,
    /// logs and per-node reception counts hash to `golden`.
    fn assert_golden(seed: u64, golden: u64, script: impl Fn(&mut Simulator)) {
        let mut sim = SimulatorBuilder::new(seed)
            .arena(Arena::new(600.0, 600.0))
            .radio(RadioConfig::unit_disk(150.0).with_loss(0.2))
            .mobility_tick(SimDuration::from_millis(100))
            .build();
        script(&mut sim);
        let mut out = format!("{:?}\n", sim.stats());
        for id in sim.node_ids().collect::<Vec<_>>() {
            for (at, line) in sim.log(id).entries() {
                out.push_str(&format!("{id} {at:?} {line}\n"));
            }
            out.push_str(&format!(
                "{id} rx={:?}\n",
                sim.app_as::<Chatter>(id).map(|c| c.received.len())
            ));
        }
        let got = fnv1a(out.as_bytes());
        assert_eq!(got, golden, "digest {got:#018x} for seed {seed} moved");
    }

    // The original digests of these two tests were derived on the last
    // commit that still had a spatial-grid scan beside the linear one: for
    // every seed, both scans produced the same digest. Chatter then logged
    // a since-deleted record kind as its filler; the digests below were
    // re-derived on the last commit that still had that kind, with the
    // filler switched to `TcRx` there.

    #[test]
    fn stationary_chatter_mesh_matches_golden_digests() {
        for (seed, golden) in
            [(1, 0xcca2_e196_f09d_dcac), (2, 0xc424_e3dd_3849_cfc6), (3, 0xa832_0ebb_a97b_95ac)]
        {
            assert_golden(seed, golden, |sim| {
                for i in 0..24 {
                    let x = f64::from(i % 6) * 90.0;
                    let y = f64::from(i / 6) * 90.0;
                    sim.add_node(Box::new(Chatter::new(4)), Position::new(x, y));
                }
                sim.run_for(SimDuration::from_secs(2));
            });
        }
    }

    #[test]
    fn mobile_chatter_churn_matches_golden_digests() {
        for (seed, golden) in [(7, 0x152d_e026_059b_b986), (8, 0xb9d7_5bcd_300e_b163)] {
            assert_golden(seed, golden, |sim| {
                for i in 0..16u32 {
                    sim.add_mobile_node(
                        Box::new(Chatter::new(6)),
                        Position::new(f64::from(i) * 35.0, f64::from(i % 4) * 120.0),
                        MobilityModel::RandomWaypoint {
                            speed_min: 20.0,
                            speed_max: 60.0,
                            pause: SimDuration::from_millis(200),
                        },
                    );
                }
                sim.run_for(SimDuration::from_millis(400));
                sim.kill(NodeId(3));
                sim.kill(NodeId(3)); // double-kill must be a no-op
                sim.run_for(SimDuration::from_millis(400));
                sim.revive(NodeId(3));
                sim.inject_broadcast(NodeId(3), Bytes::from_static(b"back"));
                sim.run_for(SimDuration::from_secs(2));
            });
        }
    }

    #[test]
    fn cached_receiver_lists_match_a_brute_force_filter() {
        // Seeded random scripts of joins, teleports, kills, revivals and
        // mobility ticks, with broadcasts injected from alive and dead
        // senders alike. After each broadcast the sender's cached list must
        // be what a scan of every slot gives, and every alive node left off
        // it must be booked as out of range.
        use rand::RngExt;
        for seed in 0..40u64 {
            let mut script = StdRng::seed_from_u64(seed);
            let mut sim = SimulatorBuilder::new(seed)
                .arena(Arena::new(400.0, 400.0))
                .radio(RadioConfig::unit_disk(120.0).with_loss(0.2))
                .mobility_tick(SimDuration::from_millis(50))
                .build();
            let mut broadcasts = 0;
            for _ in 0..300 {
                let n = sim.node_count() as u32;
                let pick = |rng: &mut StdRng| NodeId(rng.random_range(0..n));
                let spot = |rng: &mut StdRng| {
                    Position::new(rng.random_range(0.0..400.0), rng.random_range(0.0..400.0))
                };
                match script.random_range(0..10u32) {
                    0 if n < 40 => {
                        let at = spot(&mut script);
                        sim.add_node(Box::new(Chatter::new(2)), at);
                    }
                    1 if n < 40 => {
                        let at = spot(&mut script);
                        sim.add_mobile_node(
                            Box::new(Chatter::new(2)),
                            at,
                            MobilityModel::RandomWaypoint {
                                speed_min: 40.0,
                                speed_max: 120.0,
                                pause: SimDuration::from_millis(100),
                            },
                        );
                    }
                    2 if n > 0 => {
                        let (id, at) = (pick(&mut script), spot(&mut script));
                        sim.set_position(id, at);
                    }
                    3 if n > 0 => {
                        let id = pick(&mut script);
                        sim.kill(id);
                        if script.random_bool(0.3) {
                            sim.kill(id);
                        }
                    }
                    4 if n > 0 => sim.revive(pick(&mut script)),
                    5 => sim.run_for(SimDuration::from_millis(script.random_range(0..300))),
                    _ if n > 0 => {
                        let from = pick(&mut script);
                        let lost_before = sim.stats().lost_range;
                        sim.inject_broadcast(from, Bytes::from_static(b"probe"));
                        broadcasts += 1;
                        let me = sim.slots[from.index()].position;
                        let truth: Vec<u32> = (0..n)
                            .filter(|&i| {
                                let s = &sim.slots[i as usize];
                                i != from.0
                                    && s.alive
                                    && me.distance(&s.position) <= sim.radio.range
                            })
                            .collect();
                        let list = &sim.receivers[from.index()];
                        assert_eq!(list.ids, truth, "seed {seed}: stale list of {from}");
                        let alive_others = sim
                            .slots
                            .iter()
                            .enumerate()
                            .filter(|&(i, s)| i != from.index() && s.alive)
                            .count();
                        assert_eq!(
                            sim.stats().lost_range - lost_before,
                            (alive_others - truth.len()) as u64,
                            "seed {seed}: out-of-range receivers of {from} miscounted"
                        );
                    }
                    _ => {}
                }
            }
            assert!(broadcasts > 50, "seed {seed}: script injected only {broadcasts} broadcasts");
        }
    }

    #[test]
    fn grid_tracks_mobile_nodes_across_cells() {
        // A walker that roams the whole arena must keep appearing in
        // ground-truth neighborhoods.
        let mut sim = SimulatorBuilder::new(5)
            .arena(Arena::new(400.0, 400.0))
            .radio(RadioConfig::unit_disk(600.0)) // everyone always in range
            .mobility_tick(SimDuration::from_millis(50))
            .build();
        let w = sim.add_mobile_node(
            Box::new(Chatter::new(0)),
            Position::new(200.0, 200.0),
            MobilityModel::RandomWalk { speed: 80.0 },
        );
        let obs = sim.add_node(Box::new(Chatter::new(0)), Position::new(10.0, 10.0));
        for _ in 0..40 {
            sim.run_for(SimDuration::from_millis(100));
            assert_eq!(sim.neighbors_in_range(obs), vec![w]);
            assert_eq!(sim.neighbors_in_range(w), vec![obs]);
        }
    }

    #[test]
    fn set_position_reindexes_the_node() {
        let mut sim = SimulatorBuilder::new(1)
            .arena(Arena::new(1_000.0, 1_000.0))
            .radio(RadioConfig::unit_disk(100.0))
            .build();
        let a = sim.add_node(Box::new(Chatter::new(0)), Position::new(0.0, 0.0));
        let b = sim.add_node(Box::new(Chatter::new(0)), Position::new(900.0, 900.0));
        assert!(sim.neighbors_in_range(a).is_empty());
        sim.set_position(b, Position::new(50.0, 0.0));
        assert_eq!(sim.neighbors_in_range(a), vec![b]);
        assert_eq!(sim.neighbors_in_range(b), vec![a]);
    }

    #[test]
    fn killed_nodes_leave_the_index_until_revived() {
        let (mut sim, a, b) = two_node_sim(50.0, 250.0);
        sim.kill(b);
        assert!(sim.neighbors_in_range(a).is_empty());
        sim.revive(b);
        assert_eq!(sim.neighbors_in_range(a), vec![b]);
    }

    #[test]
    fn expected_nodes_hint_changes_nothing_but_capacity() {
        let run = |hint: usize| {
            let mut builder = SimulatorBuilder::new(9)
                .arena(Arena::new(600.0, 600.0))
                .radio(RadioConfig::unit_disk(150.0).with_loss(0.2));
            if hint > 0 {
                builder = builder.expected_nodes(hint);
            }
            let mut sim = builder.build();
            for i in 0..12u32 {
                sim.add_node(
                    Box::new(Chatter::new(3)),
                    Position::new(f64::from(i % 4) * 90.0, f64::from(i / 4) * 90.0),
                );
            }
            sim.run_for(SimDuration::from_secs(2));
            let mut out = format!("{:?}\n", sim.stats());
            for id in sim.node_ids().collect::<Vec<_>>() {
                for (at, line) in sim.log(id).entries() {
                    out.push_str(&format!("{id} {at:?} {line}\n"));
                }
            }
            out
        };
        // Hinted exactly, over-hinted, under-hinted and unhinted runs are
        // byte-identical: the hint is capacity only.
        let baseline = run(0);
        assert_eq!(run(12), baseline);
        assert_eq!(run(500), baseline);
        assert_eq!(run(4), baseline);
    }

    #[test]
    fn expected_nodes_presizes_the_event_queue() {
        // The control heap is presized for the control events alone:
        // frames in flight wait in the calendar ring, which sizes itself on
        // the first frame.
        let sim = SimulatorBuilder::new(1).expected_nodes(100).build();
        assert!(sim.queue.capacity() >= 100 * CONTROL_EVENTS_PER_NODE_HINT);
        assert!(sim.queue.capacity() < 100 * 16, "presize must stay at the control-event hint");
        assert!(sim.slots.capacity() >= 100);
        assert!(sim.receivers.capacity() >= 100);
    }

    #[test]
    fn ring_storage_waits_for_the_first_frame() {
        // Building and populating a simulator allocates no ring storage, so
        // set-up pays nothing for the in-flight queue; the first frame does.
        let (mut sim, a, _b) = two_node_sim(50.0, 250.0);
        assert!(!sim.in_flight.holds_storage());
        sim.run_for(SimDuration::from_millis(1)); // start events, no frames
        assert!(!sim.in_flight.holds_storage());
        sim.inject_broadcast(a, Bytes::from_static(b"first"));
        assert!(sim.in_flight.holds_storage());
    }

    #[test]
    fn timers_and_deliveries_due_together_run_in_scheduling_order() {
        // A timer and a delivery due at one instant sit in different heaps;
        // they must still run in the order they were scheduled, whichever
        // came first.
        struct Sender;
        impl Application for Sender {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(10), TimerToken(0));
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
                ctx.broadcast(Bytes::from_static(b"x"));
            }
        }
        /// Arms, at `arm_at`, a timer due `fire_after` later; records
        /// when that timer and every reception run.
        struct Probe {
            arm_at: SimDuration,
            fire_after: SimDuration,
            seen: Vec<(SimTime, &'static str)>,
        }
        impl Application for Probe {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(self.arm_at, TimerToken(0));
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, t: TimerToken) {
                if t == TimerToken(0) {
                    ctx.set_timer(self.fire_after, TimerToken(1));
                } else {
                    self.seen.push((ctx.now(), "timer"));
                }
            }
            fn on_receive(&mut self, ctx: &mut Context<'_>, _from: NodeId, _payload: Bytes) {
                self.seen.push((ctx.now(), "rx"));
            }
        }
        let run = |arm_at: u64, fire_after: u64| {
            let mut radio = RadioConfig::unit_disk(500.0);
            radio.jitter = SimDuration::ZERO;
            let mut sim = SimulatorBuilder::new(3).radio(radio).build();
            sim.add_node(Box::new(Sender), Position::new(0.0, 0.0));
            let probe = sim.add_node(
                Box::new(Probe {
                    arm_at: SimDuration::from_millis(arm_at),
                    fire_after: SimDuration::from_millis(fire_after),
                    seen: Vec::new(),
                }),
                Position::new(10.0, 0.0),
            );
            sim.run_for(SimDuration::from_secs(1));
            sim.app_as::<Probe>(probe).unwrap().seen.clone()
        };
        // The frame leaves at 10 ms and lands 1 ms later.
        let at = SimTime::from_millis(11);
        // Timer armed at 1 ms, before the frame was sent: it runs first.
        assert_eq!(run(1, 10), vec![(at, "timer"), (at, "rx")]);
        // Timer armed at 10 ms, just after the sender's own 10 ms timer
        // sent the frame: the delivery runs first.
        assert_eq!(run(10, 1), vec![(at, "rx"), (at, "timer")]);
    }

    #[test]
    fn debug_pending_events_counts_queued_deliveries() {
        let (mut sim, a, _b) = two_node_sim(50.0, 250.0);
        sim.run_for(SimDuration::from_millis(1)); // consume Start events
                                                  // Three armed broadcast timers on `a`.
        assert!(format!("{sim:?}").contains("pending_events: 3 }"), "{sim:?}");
        sim.inject_broadcast(a, Bytes::from_static(b"ghost"));
        // The injected frame is one queued delivery to `b`.
        assert!(format!("{sim:?}").contains("pending_events: 4 }"), "{sim:?}");
    }

    #[test]
    fn every_frame_reaches_on_receive_never_on_receive_batch() {
        /// Receives per frame; any batched callback is a failure.
        struct PerFrameOnly {
            received: u32,
        }
        impl Application for PerFrameOnly {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                // Both frames land on the peer at one instant, back to
                // back: the case batched delivery coalesced.
                ctx.broadcast(Bytes::from_static(b"a"));
                ctx.broadcast(Bytes::from_static(b"b"));
            }
            fn on_receive(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _payload: Bytes) {
                self.received += 1;
            }
            fn on_receive_batch(&mut self, _ctx: &mut Context<'_>, _batch: &mut FrameBatch) {
                panic!("the engine delivers frames one by one through on_receive");
            }
        }
        let mut radio = RadioConfig::unit_disk(500.0);
        radio.jitter = SimDuration::ZERO;
        let mut sim = SimulatorBuilder::new(3).radio(radio).build();
        let a = sim.add_node(Box::new(PerFrameOnly { received: 0 }), Position::new(0.0, 0.0));
        let b = sim.add_node(Box::new(PerFrameOnly { received: 0 }), Position::new(10.0, 0.0));
        sim.run_for(SimDuration::from_secs(1));
        for id in [a, b] {
            assert_eq!(sim.app_as::<PerFrameOnly>(id).unwrap().received, 2);
        }
    }

    #[test]
    fn stats_track_bytes() {
        let (mut sim, a, _b) = two_node_sim(50.0, 250.0);
        sim.run_for(SimDuration::from_secs(1));
        // 3 broadcasts of "msg-N" (5 bytes each).
        assert_eq!(sim.stats().node(a).broadcasts_sent, 3);
        assert_eq!(sim.stats().node(a).bytes_sent, 15);
    }
}
