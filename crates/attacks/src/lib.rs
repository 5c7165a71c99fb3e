//! # trustlink-attacks
//!
//! Adversarial node behaviours for the `trustlink` reproduction of
//! *"Trust-enabled Link Spoofing Detection in MANET"* — every attack class
//! the paper's §II taxonomy describes, implemented against the
//! `trustlink-olsr` substrate:
//!
//! | Paper class | Attack | Module |
//! |-------------|--------|--------|
//! | Active forge | **link spoofing** (the paper's focus; Expressions 1–3) | [`spoof`] |
//! | Active forge | broadcast storm (with masquerade) | [`storm`] |
//! | Active forge | identity spoofing | [`identity`] |
//! | Active forge | willingness manipulation | [`modify`] |
//! | Drop | black hole / gray hole | [`drop`](mod@drop) |
//! | Modify & forward | sequence-number inflation, TC tampering | [`modify`] |
//! | Modify & forward | replay | [`replay`] |
//! | Modify & forward | wormhole (colluding pair) | [`wormhole`] |
//! | Evaluation adversary | investigation liars (§V) | [`liar`] |
//!
//! Attacks come in two shapes:
//!
//! * **hook sets** ([`trustlink_olsr::hooks::OlsrHooks`] implementations)
//!   that parasitize an otherwise faithful [`trustlink_olsr::OlsrNode`] —
//!   link spoofing, dropping, tampering, willingness lies;
//! * **wrapper applications** that own a faithful node and add forged
//!   traffic around it — storm, identity spoofing, replay, wormhole.
//!
//! ```
//! use trustlink_attacks::prelude::*;
//! use trustlink_olsr::OlsrConfig;
//! use trustlink_sim::NodeId;
//!
//! // The paper's canonical attacker: advertise a phantom neighbor so the
//! // attacker is guaranteed MPR selection (Expression 1).
//! let attacker = link_spoofing_node(
//!     OlsrConfig::fast(),
//!     LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent {
//!         fake: vec![NodeId(99)],
//!     }),
//! );
//! # let _ = attacker;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drop;
pub mod identity;
pub mod liar;
pub mod modify;
pub mod replay;
pub mod spoof;
pub mod storm;
pub mod wormhole;

/// Glob-import of every attack type.
pub mod prelude {
    pub use crate::drop::{drop_attack_node, DropAttack, DropAttackNode, DropMode, DropScope};
    pub use crate::identity::IdentitySpoofer;
    pub use crate::liar::LiarPolicy;
    pub use crate::modify::{
        sequence_inflation_node, tc_tamper_node, willingness_node, SequenceInflation, TcTamper,
        WillingnessManipulation,
    };
    pub use crate::replay::ReplayAttacker;
    pub use crate::spoof::{link_spoofing_node, LinkSpoofing, LinkSpoofingNode, SpoofVariant};
    pub use crate::storm::BroadcastStorm;
    pub use crate::wormhole::{wormhole_pair, WormholeEndpoint};
}

pub use drop::{drop_attack_node, DropAttack, DropMode, DropScope};
pub use liar::LiarPolicy;
pub use spoof::{link_spoofing_node, LinkSpoofing, LinkSpoofingNode, SpoofVariant};
