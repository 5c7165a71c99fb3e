//! Drop attacks: black hole and gray hole (§II "Drop attack").
//!
//! A drop attacker accepts its MPR duties but silently discards traffic it
//! should relay — every message (black hole) or a random fraction
//! (gray hole, "selective dropping").

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use trustlink_olsr::hooks::OlsrHooks;
use trustlink_olsr::node::OlsrNode;
use trustlink_olsr::types::OlsrConfig;
use trustlink_olsr::wire::{DataView, MessageView};
use trustlink_sim::NodeId;

/// How aggressively traffic is dropped.
#[derive(Debug, Clone, PartialEq)]
pub enum DropMode {
    /// Drop everything.
    BlackHole,
    /// Drop each relayable message independently with this probability.
    GrayHole {
        /// Drop probability in `[0, 1]`.
        probability: f64,
    },
}

/// Which plane the dropping applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropScope {
    /// Flooded control messages only (TC).
    ControlOnly,
    /// Unicast data only.
    DataOnly,
    /// Both planes.
    All,
}

/// Hook set implementing the drop attack.
#[derive(Debug)]
pub struct DropAttack {
    /// Aggressiveness.
    pub mode: DropMode,
    /// Targeted plane.
    pub scope: DropScope,
    rng: StdRng,
    /// Messages swallowed so far (for assertions and reports).
    pub dropped: u64,
}

impl DropAttack {
    /// Builds a drop attack; `seed` makes gray-hole decisions reproducible.
    pub fn new(mode: DropMode, scope: DropScope, seed: u64) -> Self {
        if let DropMode::GrayHole { probability } = &mode {
            assert!((0.0..=1.0).contains(probability), "drop probability must be in [0,1]");
        }
        DropAttack { mode, scope, rng: StdRng::seed_from_u64(seed), dropped: 0 }
    }

    fn should_drop(&mut self) -> bool {
        let drop = match &self.mode {
            DropMode::BlackHole => true,
            DropMode::GrayHole { probability } => self.rng.random_bool(*probability),
        };
        if drop {
            self.dropped += 1;
        }
        drop
    }
}

impl OlsrHooks for DropAttack {
    /// Reads nothing of the message: the decision is the attack's own.
    fn should_forward(&mut self, _header: &MessageView, _from: NodeId) -> bool {
        match self.scope {
            DropScope::ControlOnly | DropScope::All => !self.should_drop(),
            DropScope::DataOnly => true,
        }
    }

    fn should_forward_data(&mut self, _data: &DataView<'_>, _from: NodeId) -> bool {
        match self.scope {
            DropScope::DataOnly | DropScope::All => !self.should_drop(),
            DropScope::ControlOnly => true,
        }
    }
}

/// An OLSR node that performs a drop attack.
pub type DropAttackNode = OlsrNode<DropAttack>;

/// Builds a dropping node.
pub fn drop_attack_node(config: OlsrConfig, attack: DropAttack) -> DropAttackNode {
    OlsrNode::with_hooks(config, attack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustlink_olsr::message::{Message, MessageBody, Packet};
    use trustlink_olsr::types::SequenceNumber;
    use trustlink_olsr::wire::{encode_packet, PacketView};
    use trustlink_sim::SimDuration;

    fn dummy_header() -> MessageView {
        let msg = Message {
            vtime: SimDuration::from_secs(1),
            originator: NodeId(1),
            ttl: 10,
            hop_count: 0,
            seq: SequenceNumber(1),
            body: MessageBody::Tc(trustlink_olsr::message::TcMessage {
                ansn: 0,
                advertised: vec![],
            }),
        };
        let frame = encode_packet(&Packet { seq: SequenceNumber(1), messages: vec![msg] });
        PacketView::parse(&frame).unwrap().messages().next().unwrap()
    }

    fn dummy_data() -> DataView<'static> {
        DataView { src: NodeId(1), dst: NodeId(2), avoid: None, payload: &[] }
    }

    #[test]
    fn black_hole_drops_everything() {
        let mut attack = DropAttack::new(DropMode::BlackHole, DropScope::All, 1);
        for _ in 0..10 {
            assert!(!attack.should_forward(&dummy_header(), NodeId(0)));
            assert!(!attack.should_forward_data(&dummy_data(), NodeId(0)));
        }
        assert_eq!(attack.dropped, 20);
    }

    #[test]
    fn scope_restricts_plane() {
        let mut control = DropAttack::new(DropMode::BlackHole, DropScope::ControlOnly, 1);
        assert!(!control.should_forward(&dummy_header(), NodeId(0)));
        assert!(control.should_forward_data(&dummy_data(), NodeId(0)));

        let mut data = DropAttack::new(DropMode::BlackHole, DropScope::DataOnly, 1);
        assert!(data.should_forward(&dummy_header(), NodeId(0)));
        assert!(!data.should_forward_data(&dummy_data(), NodeId(0)));
    }

    #[test]
    fn gray_hole_drops_fractionally() {
        let mut attack =
            DropAttack::new(DropMode::GrayHole { probability: 0.5 }, DropScope::All, 42);
        let forwarded =
            (0..10_000).filter(|_| attack.should_forward(&dummy_header(), NodeId(0))).count();
        assert!((4300..=5700).contains(&forwarded), "forwarded={forwarded}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bogus_probability_rejected() {
        let _ = DropAttack::new(DropMode::GrayHole { probability: 1.5 }, DropScope::All, 1);
    }

    #[test]
    fn gray_hole_deterministic_per_seed() {
        let run = |seed| {
            let mut a =
                DropAttack::new(DropMode::GrayHole { probability: 0.3 }, DropScope::All, seed);
            (0..100).map(|_| a.should_forward(&dummy_header(), NodeId(0))).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
