//! Modify-and-forward attacks and willingness manipulation (§II).
//!
//! * [`SequenceInflation`] — an intermediate bumps the sequence number of
//!   relayed messages so receivers believe it provides the freshest route
//!   (the paper's example of hijacked sequence numbers);
//! * [`TcTamper`] — a relay rewrites the advertised selector set of TCs in
//!   transit;
//! * [`WillingnessManipulation`] — a node lies about its own willingness
//!   (`WILL_ALWAYS` forces MPR selection; `WILL_NEVER` evades relay duty).
//!
//! The two relay attacks ask for the decoded message
//! ([`Relay::message_mut`]); the node then re-encodes what they leave.

use trustlink_olsr::hooks::{OlsrHooks, Relay};
use trustlink_olsr::message::MessageBody;
use trustlink_olsr::node::OlsrNode;
use trustlink_olsr::types::{OlsrConfig, SequenceNumber};
use trustlink_olsr::wire::MessageType;
use trustlink_sim::record::Willingness;
use trustlink_sim::NodeId;

/// Inflates sequence numbers of relayed control messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceInflation {
    /// How much to add to each relayed message's sequence number.
    pub offset: u16,
    /// Messages tampered so far.
    pub tampered: u64,
}

impl SequenceInflation {
    /// Builds an inflator adding `offset` to relayed sequence numbers.
    pub fn new(offset: u16) -> Self {
        SequenceInflation { offset, tampered: 0 }
    }
}

impl OlsrHooks for SequenceInflation {
    fn on_forward(&mut self, relay: &mut Relay<'_>, _from: NodeId) {
        let msg = relay.message_mut();
        msg.seq = SequenceNumber(msg.seq.0.wrapping_add(self.offset));
        if let MessageBody::Tc(tc) = &mut msg.body {
            tc.ansn = tc.ansn.wrapping_add(self.offset);
        }
        self.tampered += 1;
    }
}

/// Rewrites the selector set of TCs in transit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcTamper {
    /// Addresses injected into every relayed TC.
    pub inject: Vec<NodeId>,
    /// Addresses removed from every relayed TC.
    pub erase: Vec<NodeId>,
    /// Messages tampered so far.
    pub tampered: u64,
}

impl TcTamper {
    /// Builds a TC tamperer.
    pub fn new(inject: Vec<NodeId>, erase: Vec<NodeId>) -> Self {
        TcTamper { inject, erase, tampered: 0 }
    }
}

impl OlsrHooks for TcTamper {
    fn on_forward(&mut self, relay: &mut Relay<'_>, _from: NodeId) {
        if relay.header().kind != MessageType::Tc {
            return; // nothing to tamper with: relayed as received
        }
        if let MessageBody::Tc(tc) = &mut relay.message_mut().body {
            tc.advertised.retain(|a| !self.erase.contains(a));
            for &a in &self.inject {
                if !tc.advertised.contains(&a) {
                    tc.advertised.push(a);
                }
            }
            // Freshen the ANSN so the forgery supersedes the original.
            tc.ansn = tc.ansn.wrapping_add(1);
            self.tampered += 1;
        }
    }
}

/// Advertises a forged willingness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WillingnessManipulation {
    /// The willingness to claim regardless of configuration.
    pub claimed: Willingness,
}

impl OlsrHooks for WillingnessManipulation {
    fn willingness_override(&mut self) -> Option<Willingness> {
        Some(self.claimed)
    }
}

/// An OLSR node inflating relayed sequence numbers.
pub type SequenceInflationNode = OlsrNode<SequenceInflation>;
/// An OLSR node rewriting relayed TCs.
pub type TcTamperNode = OlsrNode<TcTamper>;
/// An OLSR node lying about its willingness.
pub type WillingnessNode = OlsrNode<WillingnessManipulation>;

/// Builds a sequence-inflating node.
pub fn sequence_inflation_node(config: OlsrConfig, offset: u16) -> SequenceInflationNode {
    OlsrNode::with_hooks(config, SequenceInflation::new(offset))
}

/// Builds a TC-tampering node.
pub fn tc_tamper_node(config: OlsrConfig, tamper: TcTamper) -> TcTamperNode {
    OlsrNode::with_hooks(config, tamper)
}

/// Builds a willingness-manipulating node.
pub fn willingness_node(config: OlsrConfig, claimed: Willingness) -> WillingnessNode {
    OlsrNode::with_hooks(config, WillingnessManipulation { claimed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustlink_olsr::message::{Message, Packet, TcMessage};
    use trustlink_olsr::wire::{encode_packet, PacketView};
    use trustlink_sim::SimDuration;

    /// Relays `msg` through `hooks`: the message the node would encode, if
    /// the hook asked for it.
    fn forward(hooks: &mut impl OlsrHooks, msg: &Message) -> Option<Message> {
        let frame = encode_packet(&Packet { seq: SequenceNumber(0), messages: vec![msg.clone()] });
        let header = PacketView::parse(&frame).unwrap().messages().next().unwrap();
        let mut relay = Relay::new(&frame, &header);
        hooks.on_forward(&mut relay, NodeId(0));
        relay.into_message()
    }

    fn tc_msg(seq: u16, ansn: u16, advertised: &[u32]) -> Message {
        Message {
            vtime: SimDuration::from_secs(15),
            originator: NodeId(5),
            ttl: 10,
            hop_count: 1,
            seq: SequenceNumber(seq),
            body: MessageBody::Tc(TcMessage {
                ansn,
                advertised: advertised.iter().map(|&a| NodeId(a)).collect(),
            }),
        }
    }

    #[test]
    fn sequence_inflation_bumps_seq_and_ansn() {
        let mut hooks = SequenceInflation::new(100);
        let msg = forward(&mut hooks, &tc_msg(7, 3, &[1])).expect("the hook decodes");
        assert_eq!(msg.seq, SequenceNumber(107));
        // The decoded relay already has TTL and hop count advanced.
        assert_eq!((msg.ttl, msg.hop_count), (9, 2));
        match &msg.body {
            MessageBody::Tc(tc) => assert_eq!(tc.ansn, 103),
            _ => unreachable!(),
        }
        assert_eq!(hooks.tampered, 1);
    }

    #[test]
    fn sequence_inflation_wraps() {
        let mut hooks = SequenceInflation::new(10);
        let msg = forward(&mut hooks, &tc_msg(u16::MAX, 0, &[])).expect("the hook decodes");
        assert_eq!(msg.seq, SequenceNumber(9));
    }

    #[test]
    fn tc_tamper_injects_and_erases() {
        let mut hooks = TcTamper::new(vec![NodeId(9)], vec![NodeId(1)]);
        let msg = forward(&mut hooks, &tc_msg(1, 5, &[1, 2])).expect("the hook decodes");
        match &msg.body {
            MessageBody::Tc(tc) => {
                assert_eq!(tc.advertised, vec![NodeId(2), NodeId(9)]);
                assert_eq!(tc.ansn, 6);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn tc_tamper_ignores_non_tc() {
        let mut hooks = TcTamper::new(vec![NodeId(9)], vec![]);
        let msg = Message {
            body: MessageBody::Hello(trustlink_olsr::message::HelloMessage {
                willingness: Willingness::Default,
                groups: vec![],
            }),
            ..tc_msg(1, 1, &[])
        };
        assert_eq!(forward(&mut hooks, &msg), None, "a non-TC is relayed as received");
        assert_eq!(hooks.tampered, 0);
    }

    #[test]
    fn willingness_override_applies() {
        let mut hooks = WillingnessManipulation { claimed: Willingness::Always };
        assert_eq!(hooks.willingness_override(), Some(Willingness::Always));
    }

    #[test]
    fn will_always_attacker_gets_selected_as_mpr() {
        use trustlink_sim::prelude::*;
        // A 5-node line; N2 center claims WILL_ALWAYS.
        let mut sim = SimulatorBuilder::new(5)
            .radio(RadioConfig::unit_disk(150.0))
            .arena(trustlink_sim::Arena::new(10_000.0, 1_000.0))
            .build();
        for i in 0..5u32 {
            if i == 2 {
                sim.add_node(
                    Box::new(willingness_node(OlsrConfig::fast(), Willingness::Always)),
                    Position::new(f64::from(i) * 100.0, 0.0),
                );
            } else {
                sim.add_node(
                    Box::new(OlsrNode::new(OlsrConfig::fast())),
                    Position::new(f64::from(i) * 100.0, 0.0),
                );
            }
        }
        sim.run_for(SimDuration::from_secs(15));
        // Both neighbors of N2 must have selected it (WILL_ALWAYS forces it).
        for neighbor in [NodeId(1), NodeId(3)] {
            let node = sim.app_as::<OlsrNode>(neighbor).unwrap();
            assert!(
                node.mpr_set().contains(&NodeId(2)),
                "{neighbor} did not select the WILL_ALWAYS attacker: {:?}",
                node.mpr_set()
            );
        }
    }
}
