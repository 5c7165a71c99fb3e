//! # trustlink-olsr
//!
//! An implementation of the Optimized Link State Routing protocol
//! (RFC 3626) for the `trustlink` MANET simulator — the routing substrate
//! of *"Trust-enabled Link Spoofing Detection in MANET"* (Alattar, Sailhan,
//! Bourgeois — ICDCS WWASN 2012).
//!
//! Implemented, per the RFC:
//!
//! * HELLO-based link sensing, neighbor detection and 2-hop population
//!   (§6–§8), with the mantissa/exponent vtime encoding (§18.3) and the
//!   wrap-aware sequence-number arithmetic (§19);
//! * MPR selection (§8.3.1) and MPR-selector tracking;
//! * TC origination with ANSN handling and the default forwarding
//!   algorithm (§3.4) that floods through MPRs only;
//! * routing-table calculation (§10), plus route computation that *avoids*
//!   a chosen node — the primitive behind the paper's investigation rule
//!   that requests "should not go through … the suspicious MPR";
//! * a binary wire format over [`bytes`] (escape-encoded node ids instead
//!   of IPv4, see [`wire`]), with a decoder that never panics on forged
//!   input.
//!
//! Beyond the RFC, and central to the paper:
//!
//! * every routing-relevant action writes a line to the node's audit log
//!   ([`trustlink_sim::record::LogRecord`]); the intrusion detector reads
//!   **only** those records, so no change to the routing implementation is
//!   ever needed;
//! * the [`hooks::OlsrHooks`] trait exposes exactly the tamper points of
//!   the paper's attack taxonomy (forge / drop / modify-and-forward), used
//!   by the `trustlink-attacks` crate;
//! * a minimal unicast data plane ([`node::OlsrNode::send_data`]) carries
//!   investigation traffic with optional node avoidance.
//!
//! ## Inlining
//!
//! [`OlsrNode<H>`](node::OlsrNode) is generic, so its receive path is
//! compiled in the crate that names `H`, and without link-time
//! optimization a non-generic function of this crate stays an out-of-line
//! call from there. The rule: a non-generic helper that generic node code
//! calls once per frame, per message or per flush (the repository lookups
//! in [`state`], the header walk in [`wire`], the sequence-number and
//! link-code arithmetic, [`idhash`]) carries `#[inline]`. A rare path
//! (the duplicate set's reclaim and growth) sits in a `#[cold]` helper, so
//! the common path stays small.
//!
//! ## Quick example
//!
//! ```
//! use trustlink_olsr::prelude::*;
//! use trustlink_sim::prelude::*;
//!
//! let mut sim = SimulatorBuilder::new(42).radio(RadioConfig::unit_disk(150.0)).build();
//! for i in 0..3 {
//!     sim.add_node(
//!         Box::new(OlsrNode::new(OlsrConfig::fast())),
//!         Position::new(i as f64 * 100.0, 0.0),
//!     );
//! }
//! sim.run_for(SimDuration::from_secs(15));
//! // The end of a 3-node line routes to the other end through the middle.
//! let a = sim.app_as::<OlsrNode>(NodeId(0)).unwrap();
//! assert_eq!(a.routing_table().next_hop(NodeId(2)), Some(NodeId(1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hooks;
pub mod idhash;
pub mod message;
pub mod mpr;
pub mod node;
pub mod routing;
pub mod state;
pub mod types;
pub mod wire;

/// Glob-import of the types needed to run OLSR nodes.
pub mod prelude {
    pub use crate::hooks::{NoHooks, OlsrHooks};
    pub use crate::message::{HelloMessage, MessageBody, Packet, TcMessage};
    pub use crate::node::{OlsrNode, ReceivedData, RecomputeStats};
    pub use crate::routing::{Route, RoutingTable};
    pub use crate::types::{
        FisheyeRing, FisheyeRings, FloodScope, OlsrConfig, RecomputeMode, SequenceNumber,
    };
    pub use trustlink_sim::record::Willingness;
}

pub use hooks::{NoHooks, OlsrHooks};
pub use node::{OlsrNode, ReceivedData, RecomputeStats};
pub use routing::RoutingTable;
pub use trustlink_sim::record::Willingness;
pub use types::{FisheyeRing, FisheyeRings, FloodScope, OlsrConfig, RecomputeMode};
