//! # trustlink-sim
//!
//! A deterministic discrete-event simulator for mobile ad hoc networks
//! (MANETs). This crate is the substrate on which the `trustlink` OLSR
//! implementation, the attacks and the trust-enabled intrusion detector run.
//!
//! The design goals, in order:
//!
//! 1. **Determinism** — a simulation is a pure function of its seed and
//!    configuration. Events are totally ordered by `(time, sequence)`; all
//!    randomness flows from one seeded [`rand::rngs::StdRng`].
//! 2. **Radio realism where it matters** — a broadcast wireless medium with
//!    a unit-disk range ([`radio::RadioConfig`]), Bernoulli frame loss,
//!    propagation delay with jitter, an optional receiver-side collision
//!    window and per-link fading ([`radio::ChannelModel`]). The paper's
//!    evaluation depends on *who hears whom* and *which answers get lost*,
//!    which this models faithfully.
//! 3. **Log-based observability** — every node owns an append-only
//!    [`node::LogBuffer`] of typed [`record::LogRecord`] values. Protocols
//!    log records, not strings; the intrusion detector of the paper consumes
//!    *only* this audit log, never the protocol internals, and rendering to
//!    text happens at the edges ([`node::LogBuffer::render_lines`]). A
//!    consumer that reads the log only forward may release what it has read
//!    ([`Context::release_log`]), so memory stays bounded in simulated time.
//!    A whole run can be captured into a [`record::FlightRecorder`] and
//!    replayed from its rlog serialization.
//!
//! ## Inlining
//!
//! Applications are generic over their behaviour, so their callbacks are
//! compiled in the crate that builds them, and without link-time
//! optimization a non-generic function of this crate stays an out-of-line
//! call from there. The rule: what a callback calls once per frame or per
//! message ([`Context`]'s methods, [`NodeId`]'s wire reads,
//! [`node::LogBuffer::push`], the [`time`] arithmetic, the flood counters
//! in [`stats`]) and what the engine calls per delivery (the radio's
//! judgement, the in-flight ring) carries `#[inline]`.
//!
//! ## Quick example
//!
//! ```
//! use trustlink_sim::prelude::*;
//! use bytes::Bytes;
//!
//! /// An application that says hello once and logs every neighbor it hears.
//! struct Echo;
//! impl Application for Echo {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         ctx.set_timer(SimDuration::from_millis(10), TimerToken(1));
//!     }
//!     fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
//!         ctx.broadcast(Bytes::from_static(b"hello"));
//!     }
//!     fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, _p: Bytes) {
//!         ctx.log(LogRecord::NeighborAdded { addr: from });
//!     }
//! }
//!
//! let mut sim = SimulatorBuilder::new(42)
//!     .radio(RadioConfig::unit_disk(120.0))
//!     .build();
//! let a = sim.add_node(Box::new(Echo), Position::new(0.0, 0.0));
//! let b = sim.add_node(Box::new(Echo), Position::new(50.0, 0.0));
//! sim.run_for(SimDuration::from_secs(1));
//! assert!(sim.log(b).lines().any(|l| l.starts_with("NBR_ADD")));
//! # let _ = a;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod mobility;
pub mod node;
pub mod radio;
pub mod record;
mod ring;
pub mod stats;
pub mod time;
pub mod topologies;

/// Convenient glob-import of the types needed to write and run applications.
pub mod prelude {
    pub use crate::engine::{Simulator, SimulatorBuilder};
    pub use crate::mobility::{Arena, MobilityModel, Position};
    pub use crate::node::{Application, Context, LogBuffer, NodeId, TimerToken};
    pub use crate::radio::{ChannelModel, ChannelState, FadingConfig, RadioConfig};
    pub use crate::record::{
        FlightRecord, FlightRecorder, LogRecord, SuppressReason, VerdictKind, Willingness,
    };
    pub use crate::stats::{FloodStats, TrafficStats};
    pub use crate::time::{SimDuration, SimTime};
}

pub use engine::{Simulator, SimulatorBuilder};
pub use mobility::{Arena, MobilityModel, Position};
pub use node::{Application, CallbackClass, Context, FrameBatch, LogBuffer, NodeId, TimerToken};
pub use radio::{ChannelModel, ChannelState, FadingConfig, RadioConfig};
pub use record::{
    parse_line, FlightRecord, FlightRecorder, LogRecord, ParseLogError, SuppressReason,
    VerdictKind, Willingness,
};
pub use stats::{FloodStats, TrafficStats};
pub use time::{SimDuration, SimTime};
