//! Node identity, the application trait and the per-callback context.
//!
//! A *node* in the simulator is an [`Application`] (the protocol stack under
//! test) plus engine-owned state: a position, a mobility state, an audit
//! [`LogBuffer`] and traffic counters. Applications never touch the engine
//! directly; every side effect goes through the [`Context`] handed to each
//! callback, which keeps the simulation deterministic and replayable.

use std::any::Any;
use std::fmt;

use bytes::Bytes;
use rand::rngs::StdRng;

use crate::record::LogRecord;
use crate::time::{SimDuration, SimTime};

/// The identity of a node: its OLSR *main address* in the reproduced system.
///
/// Identities are 32-bit so production-scale scenarios (10⁵ nodes and
/// beyond) fit; the wire stays compact through the escape encoding of
/// [`NodeId::put`], which keeps every address below
/// [`NodeId::WIRE_ESCAPE`] at the historical two bytes.
///
/// ```
/// use trustlink_sim::NodeId;
/// assert_eq!(NodeId(7).to_string(), "N7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The numeric index of the node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The 16-bit escape marker for wide addresses on the wire. Addresses
    /// below this value encode as the bare two-byte big-endian integer —
    /// byte-for-byte what the 16-bit format produced — while wider
    /// addresses encode as the marker followed by the full 32-bit value.
    pub const WIRE_ESCAPE: u16 = u16::MAX;

    /// Number of bytes [`NodeId::put`] writes for this address.
    #[inline]
    pub const fn wire_len(self) -> usize {
        if self.0 < Self::WIRE_ESCAPE as u32 {
            2
        } else {
            6
        }
    }

    /// Appends the escape-encoded address to `buf`.
    #[inline]
    pub fn put(self, buf: &mut impl bytes::BufMut) {
        if self.0 < u32::from(Self::WIRE_ESCAPE) {
            buf.put_u16(self.0 as u16);
        } else {
            buf.put_u16(Self::WIRE_ESCAPE);
            buf.put_u32(self.0);
        }
    }

    /// Reads one escape-encoded address from `buf`, or `None` when the
    /// buffer is too short.
    #[inline]
    pub fn get(buf: &mut impl bytes::Buf) -> Option<NodeId> {
        if buf.remaining() < 2 {
            return None;
        }
        let v = buf.get_u16();
        if v < Self::WIRE_ESCAPE {
            Some(NodeId(u32::from(v)))
        } else if buf.remaining() >= 4 {
            Some(NodeId(buf.get_u32()))
        } else {
            None
        }
    }

    /// Reads one escape-encoded address from `buf` at `off`, returning the
    /// address and the number of bytes it occupied. `None` when the slice
    /// is too short. Slice-based twin of [`NodeId::get`] for validated
    /// zero-copy views.
    #[inline]
    pub fn read_at(buf: &[u8], off: usize) -> Option<(NodeId, usize)> {
        let hi = *buf.get(off)?;
        let lo = *buf.get(off + 1)?;
        let v = u16::from_be_bytes([hi, lo]);
        if v < Self::WIRE_ESCAPE {
            Some((NodeId(u32::from(v)), 2))
        } else {
            let raw: [u8; 4] = buf.get(off + 2..off + 6)?.try_into().ok()?;
            Some((NodeId(u32::from_be_bytes(raw)), 6))
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// An opaque timer identifier chosen by the application.
///
/// The engine never interprets the token; protocols use it to multiplex
/// several logical timers over the single engine timer facility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimerToken(pub u64);

impl fmt::Display for TimerToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// The class of an application callback, the argument of
/// [`Application::rng_free`]. No engine path uses it; it is kept only for
/// the benchmark's tracing wrapper and is deleted in the next change that
/// may edit that benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallbackClass {
    /// [`Application::on_start`].
    Start,
    /// [`Application::on_receive`].
    Receive,
    /// [`Application::on_timer`].
    Timer,
}

/// The behaviour installed on a node.
///
/// All callbacks receive a [`Context`] used to emit frames, arm timers and
/// append audit-log lines. Implementations must be `'static` (they are boxed
/// into the engine) and should be deterministic given the context RNG.
/// Applications must be `Send`; they hold plain owned data, so this is
/// free.
///
/// The engine makes exactly one callback per event: every frame a node
/// hears arrives on its own through [`Application::on_receive`], in global
/// `(time, sequence)` order with every other event.
///
/// The supertrait [`Any`] enables downcasting a `dyn Application` back to its
/// concrete type for post-run inspection, e.g.
/// `sim.app(id).downcast_ref::<MyApp>()` via trait upcasting.
pub trait Application: Any + Send {
    /// Declares that a class of callbacks never calls [`Context::rng`].
    /// No engine path calls it: every callback runs on the one serial
    /// event loop with full RNG access. It is kept, default-only, for the
    /// benchmark's tracing wrapper and is deleted in the next change that
    /// may edit that benchmark.
    fn rng_free(&self, _class: CallbackClass) -> bool {
        false
    }

    /// Called once when the simulation starts (or the node is added to a
    /// running simulation).
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// Called when a radio frame transmitted by `from` reaches this node.
    fn on_receive(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _payload: Bytes) {}

    /// Replays `batch` frame by frame through [`Application::on_receive`].
    /// No engine path calls it: the engine delivers every frame on its own.
    /// It is kept, default-only, for the benchmark's tracing wrapper and is
    /// deleted in the next change that may edit that benchmark.
    fn on_receive_batch(&mut self, ctx: &mut Context<'_>, batch: &mut FrameBatch) {
        for (from, payload) in batch.drain() {
            self.on_receive(ctx, from, payload);
        }
    }

    /// Called when a timer armed with [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: TimerToken) {}
}

/// A group of received frames, the argument of
/// [`Application::on_receive_batch`]. No engine path builds one; it is
/// kept for the benchmark's tracing wrapper and is deleted in the next
/// change that may edit that benchmark.
#[derive(Debug, Default)]
pub struct FrameBatch {
    frames: Vec<(NodeId, Bytes)>,
}

impl FrameBatch {
    /// Number of frames in the batch.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` if the batch holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Drains the frames in order.
    pub fn drain(&mut self) -> impl Iterator<Item = (NodeId, Bytes)> + '_ {
        self.frames.drain(..)
    }
}

/// A side effect requested by an application; executed by the engine after
/// the callback returns, in request order.
#[derive(Debug, Clone)]
pub(crate) enum Command {
    /// Transmit a broadcast frame on the shared medium.
    Broadcast { payload: Bytes },
    /// Transmit a frame addressed to a (supposed) radio neighbor. Subject to
    /// exactly the same propagation/loss rules as a broadcast, but only `to`
    /// may receive it.
    Unicast { to: NodeId, payload: Bytes },
    /// Arm a one-shot timer.
    SetTimer { delay: SimDuration, token: TimerToken },
}

/// The per-callback handle through which an application interacts with the
/// simulated world.
///
/// Everything an application can do — learn the time, draw randomness, send
/// frames, arm timers, write logs — is funnelled through this type.
pub struct Context<'a> {
    node: NodeId,
    now: SimTime,
    rng: &'a mut StdRng,
    log: &'a mut LogBuffer,
    commands: &'a mut Vec<Command>,
}

impl<'a> Context<'a> {
    pub(crate) fn new(
        node: NodeId,
        now: SimTime,
        rng: &'a mut StdRng,
        log: &'a mut LogBuffer,
        commands: &'a mut Vec<Command>,
    ) -> Self {
        Context { node, now, rng, log, commands }
    }

    /// The identity of the node this callback runs on.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// The current simulation instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The simulation-wide deterministic random number generator.
    #[inline]
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Queues a broadcast frame for transmission on the shared medium.
    #[inline]
    pub fn broadcast(&mut self, payload: Bytes) {
        self.commands.push(Command::Broadcast { payload });
    }

    /// Queues a link-local unicast frame addressed to `to`.
    ///
    /// Delivery is subject to the same range and loss rules as a broadcast;
    /// the frame is simply ignored by every other node.
    #[inline]
    pub fn send(&mut self, to: NodeId, payload: Bytes) {
        self.commands.push(Command::Unicast { to, payload });
    }

    /// Arms a one-shot timer that will fire `delay` from now with `token`.
    #[inline]
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        self.commands.push(Command::SetTimer { delay, token });
    }

    /// Appends a typed record to this node's audit log, stamped with the
    /// current simulation time. Rendering to text happens at the edges
    /// ([`LogBuffer::render_lines`]), never on this hot path.
    #[inline]
    pub fn log(&mut self, record: LogRecord) {
        self.log.push(self.now, record);
    }

    /// Read access to this node's own audit log — how a log-based intrusion
    /// detector co-located with the router tails "its" log file.
    #[inline]
    pub fn log_buffer(&self) -> &LogBuffer {
        self.log
    }
}

/// An append-only, time-stamped log of typed records owned by one node.
///
/// The trust-enabled detector of the paper is *log based*: it reads these
/// records — and nothing else — to find signs of intrusion. The buffer
/// supports cursor-style incremental reads so a detector can periodically
/// consume "what happened since I last looked".
///
/// ```
/// use trustlink_sim::node::LogBuffer;
/// use trustlink_sim::record::LogRecord;
/// use trustlink_sim::time::SimTime;
/// use trustlink_sim::NodeId;
///
/// let mut log = LogBuffer::default();
/// log.push(SimTime::from_secs(1), LogRecord::NeighborAdded { addr: NodeId(2) });
/// let (records, cursor) = log.read_from(0);
/// assert_eq!(records.len(), 1);
/// let (rest, _) = log.read_from(cursor);
/// assert!(rest.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogBuffer {
    entries: Vec<(SimTime, LogRecord)>,
}

impl LogBuffer {
    /// Appends one record stamped `at`.
    #[inline]
    pub fn push(&mut self, at: SimTime, record: LogRecord) {
        self.entries.push((at, record));
    }

    /// Number of records logged so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All `(timestamp, record)` entries, oldest first.
    pub fn entries(&self) -> &[(SimTime, LogRecord)] {
        &self.entries
    }

    /// Iterator over the canonical text rendering of each record, oldest
    /// first. Rendering happens here, at the edge — not when logging.
    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        self.entries.iter().map(|(_, r)| r.to_line())
    }

    /// Renders the whole buffer to `(timestamp, line)` pairs — byte-for-byte
    /// the strings the buffer stored before records were typed. This is the
    /// adapter external consumers of the old text logs use.
    pub fn render_lines(&self) -> Vec<(SimTime, String)> {
        self.entries.iter().map(|(at, r)| (*at, r.to_line())).collect()
    }

    /// Returns the entries appended at or after position `cursor`, plus the
    /// next cursor value. Feeding the returned cursor back yields only new
    /// entries — the idiom for periodic log analysis.
    #[inline]
    pub fn read_from(&self, cursor: usize) -> (&[(SimTime, LogRecord)], usize) {
        let start = cursor.min(self.entries.len());
        (&self.entries[start..], self.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(3).to_string(), "N3");
        assert_eq!(NodeId(3).index(), 3);
    }

    #[test]
    fn context_queues_commands_in_order() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut log = LogBuffer::default();
        let mut commands = Vec::new();
        let mut ctx =
            Context::new(NodeId(0), SimTime::from_secs(5), &mut rng, &mut log, &mut commands);
        assert_eq!(ctx.id(), NodeId(0));
        assert_eq!(ctx.now(), SimTime::from_secs(5));
        ctx.broadcast(Bytes::from_static(b"a"));
        ctx.send(NodeId(1), Bytes::from_static(b"b"));
        ctx.set_timer(SimDuration::from_secs(1), TimerToken(9));
        ctx.log(LogRecord::NeighborAdded { addr: NodeId(2) });
        assert_eq!(commands.len(), 3);
        assert!(matches!(commands[0], Command::Broadcast { .. }));
        assert!(matches!(commands[1], Command::Unicast { to: NodeId(1), .. }));
        assert!(matches!(commands[2], Command::SetTimer { token: TimerToken(9), .. }));
        assert_eq!(log.len(), 1);
        assert_eq!(log.entries()[0].0, SimTime::from_secs(5));
    }

    #[test]
    fn log_buffer_cursor_semantics() {
        let mut log = LogBuffer::default();
        assert!(log.is_empty());
        log.push(SimTime::ZERO, LogRecord::NeighborAdded { addr: NodeId(1) });
        log.push(SimTime::from_secs(1), LogRecord::NeighborAdded { addr: NodeId(2) });
        let (all, c) = log.read_from(0);
        assert_eq!(all.len(), 2);
        log.push(SimTime::from_secs(2), LogRecord::NeighborLost { addr: NodeId(1) });
        let (new, c2) = log.read_from(c);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].1, LogRecord::NeighborLost { addr: NodeId(1) });
        // A cursor beyond the end is clamped rather than panicking.
        let (none, _) = log.read_from(c2 + 100);
        assert!(none.is_empty());
    }

    #[test]
    fn log_lines_renders_records_at_the_edge() {
        let mut log = LogBuffer::default();
        log.push(SimTime::ZERO, LogRecord::NeighborAdded { addr: NodeId(4) });
        log.push(SimTime::ZERO, LogRecord::TwoHopLost { via: NodeId(4), addr: NodeId(9) });
        let collected: Vec<String> = log.lines().collect();
        assert_eq!(collected, vec!["NBR_ADD addr=N4", "2HOP_LOST via=N4 addr=N9"]);
        let rendered = log.render_lines();
        assert_eq!(rendered.len(), 2);
        assert_eq!(rendered[0], (SimTime::ZERO, "NBR_ADD addr=N4".to_string()));
    }
}
