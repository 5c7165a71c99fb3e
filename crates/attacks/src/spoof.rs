//! The link spoofing attack (§III-A of the paper).
//!
//! An attacker `I` forges its HELLOs so that the advertised symmetric
//! neighborhood `NS'_I` differs from the real one `NS_I`. The paper's three
//! options are implemented verbatim:
//!
//! * **Expression (1)** — advertise a *non-existent* node: guarantees `I`
//!   (or an accomplice) is selected as MPR, since nobody else can cover the
//!   phantom;
//! * **Expression (2)** — advertise an *existing non-neighbor*: inflates
//!   `I`'s apparent connectivity and provisions a black hole;
//! * **Expression (3)** — *omit* a real neighbor: artificially deflates
//!   connectivity on both sides.

use trustlink_olsr::hooks::OlsrHooks;
use trustlink_olsr::message::{HelloMessage, LinkCode, LinkGroup, LinkType, NeighborType};
use trustlink_olsr::node::OlsrNode;
use trustlink_olsr::types::OlsrConfig;
use trustlink_sim::{NodeId, SimTime};

/// Which of the paper's three falsification options to apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpoofVariant {
    /// Expression (1): declare non-existing nodes as symmetric neighbors.
    AdvertiseNonExistent {
        /// The phantom addresses to advertise.
        fake: Vec<NodeId>,
    },
    /// Expression (2): declare existing nodes that are *not* neighbors.
    AdvertiseExisting {
        /// The victims to claim adjacency with.
        victims: Vec<NodeId>,
    },
    /// Expression (3): hide real neighbors from the HELLO.
    OmitNeighbors {
        /// The neighbors to erase.
        omitted: Vec<NodeId>,
    },
}

/// Hook set implementing link spoofing, with an activity window so
/// experiments can start and *cease* the attack (Figure 2 requires the
/// latter).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpoofing {
    /// The falsification applied.
    pub variant: SpoofVariant,
    /// Attack begins at this instant.
    pub active_from: SimTime,
    /// Attack ceases at this instant (`None` = runs forever).
    pub active_until: Option<SimTime>,
}

impl LinkSpoofing {
    /// An always-on spoofing behaviour.
    pub fn permanent(variant: SpoofVariant) -> Self {
        LinkSpoofing { variant, active_from: SimTime::ZERO, active_until: None }
    }

    /// `true` when the attack is in its active window at `now`.
    pub fn is_active(&self, now: SimTime) -> bool {
        now >= self.active_from && self.active_until.is_none_or(|end| now < end)
    }
}

impl OlsrHooks for LinkSpoofing {
    fn on_hello_tx(&mut self, hello: &mut HelloMessage, now: SimTime) {
        if !self.is_active(now) {
            return;
        }
        match &self.variant {
            SpoofVariant::AdvertiseNonExistent { fake }
            | SpoofVariant::AdvertiseExisting { victims: fake } => {
                let already: Vec<NodeId> = hello.symmetric_neighbors();
                let extra: Vec<NodeId> =
                    fake.iter().copied().filter(|f| !already.contains(f)).collect();
                if !extra.is_empty() {
                    hello.groups.push(LinkGroup {
                        code: LinkCode::new(LinkType::Sym, NeighborType::Sym),
                        addrs: extra,
                    });
                }
            }
            SpoofVariant::OmitNeighbors { omitted } => {
                for group in &mut hello.groups {
                    group.addrs.retain(|a| !omitted.contains(a));
                }
                hello.groups.retain(|g| !g.addrs.is_empty());
            }
        }
    }
}

/// An OLSR node that performs link spoofing.
pub type LinkSpoofingNode = OlsrNode<LinkSpoofing>;

/// Builds a link-spoofing node.
pub fn link_spoofing_node(config: OlsrConfig, spoofing: LinkSpoofing) -> LinkSpoofingNode {
    OlsrNode::with_hooks(config, spoofing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustlink_sim::record::Willingness;

    fn hello_with(sym: &[u32]) -> HelloMessage {
        HelloMessage {
            willingness: Willingness::Default,
            groups: vec![LinkGroup {
                code: LinkCode::new(LinkType::Sym, NeighborType::Sym),
                addrs: sym.iter().map(|&n| NodeId(n)).collect(),
            }],
        }
    }

    #[test]
    fn advertise_non_existent_adds_phantom() {
        let mut hooks =
            LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent { fake: vec![NodeId(99)] });
        let mut hello = hello_with(&[1, 2]);
        hooks.on_hello_tx(&mut hello, SimTime::from_secs(1));
        assert_eq!(hello.symmetric_neighbors(), vec![NodeId(1), NodeId(2), NodeId(99)]);
    }

    #[test]
    fn advertise_existing_skips_real_neighbors() {
        let mut hooks = LinkSpoofing::permanent(SpoofVariant::AdvertiseExisting {
            victims: vec![NodeId(1), NodeId(5)],
        });
        let mut hello = hello_with(&[1, 2]);
        hooks.on_hello_tx(&mut hello, SimTime::from_secs(1));
        // N1 was already real; only N5 gets forged in.
        assert_eq!(hello.symmetric_neighbors(), vec![NodeId(1), NodeId(2), NodeId(5)]);
        assert_eq!(hello.groups.len(), 2);
        assert_eq!(hello.groups[1].addrs, vec![NodeId(5)]);
    }

    #[test]
    fn omit_erases_neighbor_everywhere() {
        let mut hooks =
            LinkSpoofing::permanent(SpoofVariant::OmitNeighbors { omitted: vec![NodeId(2)] });
        let mut hello = hello_with(&[1, 2]);
        hooks.on_hello_tx(&mut hello, SimTime::from_secs(1));
        assert_eq!(hello.symmetric_neighbors(), vec![NodeId(1)]);
        // Groups emptied entirely disappear.
        let mut hooks2 = LinkSpoofing::permanent(SpoofVariant::OmitNeighbors {
            omitted: vec![NodeId(1), NodeId(2)],
        });
        let mut hello2 = hello_with(&[1, 2]);
        hooks2.on_hello_tx(&mut hello2, SimTime::from_secs(1));
        assert!(hello2.groups.is_empty());
    }

    #[test]
    fn activity_window_respected() {
        let mut hooks = LinkSpoofing {
            variant: SpoofVariant::AdvertiseNonExistent { fake: vec![NodeId(99)] },
            active_from: SimTime::from_secs(10),
            active_until: Some(SimTime::from_secs(20)),
        };
        assert!(!hooks.is_active(SimTime::from_secs(5)));
        assert!(hooks.is_active(SimTime::from_secs(15)));
        assert!(!hooks.is_active(SimTime::from_secs(20)));

        let mut hello = hello_with(&[1]);
        hooks.on_hello_tx(&mut hello, SimTime::from_secs(5));
        assert_eq!(hello.symmetric_neighbors(), vec![NodeId(1)]); // untouched
        hooks.on_hello_tx(&mut hello, SimTime::from_secs(15));
        assert!(hello.symmetric_neighbors().contains(&NodeId(99)));
    }

    #[test]
    fn spoofed_hello_end_to_end() {
        // The attacker's forged neighbor propagates into a victim's 2-hop set.
        use trustlink_sim::prelude::*;
        let mut sim = SimulatorBuilder::new(3).radio(RadioConfig::unit_disk(150.0)).build();
        let _victim =
            sim.add_node(Box::new(OlsrNode::new(OlsrConfig::fast())), Position::new(0.0, 0.0));
        let attacker = sim.add_node(
            Box::new(link_spoofing_node(
                OlsrConfig::fast(),
                LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent {
                    fake: vec![NodeId(77)],
                }),
            )),
            Position::new(100.0, 0.0),
        );
        sim.run_for(SimDuration::from_secs(10));
        let victim_node = sim.app_as::<OlsrNode>(NodeId(0)).unwrap();
        let two_hop = victim_node.two_hop_set().two_hop_addrs(
            sim.now(),
            NodeId(0),
            &victim_node.symmetric_neighbors(sim.now()),
        );
        assert!(
            two_hop.contains(&NodeId(77)),
            "phantom N77 should appear as a 2-hop neighbor via the attacker, got {two_hop:?}"
        );
        // And the attacker becomes the victim's MPR (Expression (1)).
        assert!(victim_node.mpr_set().contains(&attacker));
    }
}
