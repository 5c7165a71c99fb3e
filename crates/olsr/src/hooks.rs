//! Behaviour hooks: the extension point through which the attack crate
//! turns a well-behaved OLSR node into a misbehaving one.
//!
//! The hooks deliberately mirror the paper's §II attack taxonomy:
//!
//! * *active forge* — [`OlsrHooks::on_hello_tx`] / [`OlsrHooks::on_tc_tx`]
//!   tamper with self-originated routing messages (link spoofing lives
//!   here);
//! * *drop* — [`OlsrHooks::should_forward`] /
//!   [`OlsrHooks::should_forward_data`] veto retransmissions (black/gray
//!   hole);
//! * *modify and forward* — [`OlsrHooks::on_forward`] tampers with relayed
//!   messages.
//!
//! A default no-op implementation ([`NoHooks`]) produces a faithful node.

use trustlink_sim::{NodeId, SimTime};

use crate::message::{DataMessage, HelloMessage, Message, TcMessage};
use trustlink_sim::record::Willingness;

/// Extension points applied by [`crate::node::OlsrNode`] at well-defined
/// places in the protocol state machine. All methods default to faithful
/// behaviour.
pub trait OlsrHooks: Send + 'static {
    /// Called just before a self-originated HELLO is serialized; mutate it
    /// to forge link-state information (the paper's link spoofing attack).
    fn on_hello_tx(&mut self, _hello: &mut HelloMessage, _now: SimTime) {}

    /// Called just before a self-originated TC is serialized.
    fn on_tc_tx(&mut self, _tc: &mut TcMessage, _now: SimTime) {}

    /// Overrides the advertised willingness (the willingness-manipulation
    /// attack); `None` keeps the configured value.
    fn willingness_override(&mut self) -> Option<Willingness> {
        None
    }

    /// Decides whether a flooded control message that the default
    /// forwarding algorithm *would* retransmit is actually sent. Returning
    /// `false` implements control-plane dropping.
    fn should_forward(&mut self, _msg: &Message, _from: NodeId) -> bool {
        true
    }

    /// Mutates a flooded message just before retransmission (the
    /// modify-and-forward attack class, e.g. sequence-number inflation).
    fn on_forward(&mut self, _msg: &mut Message, _from: NodeId) {}

    /// Decides whether a unicast data message is forwarded. Returning
    /// `false` implements the black-hole / gray-hole data drop.
    fn should_forward_data(&mut self, _data: &DataMessage, _from: NodeId) -> bool {
        true
    }
}

/// The faithful, no-op hook set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoHooks;

impl OlsrHooks for NoHooks {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{HelloMessage, TcMessage};

    #[test]
    fn no_hooks_is_faithful() {
        let mut hooks = NoHooks;
        let mut hello = HelloMessage { willingness: Willingness::Default, groups: vec![] };
        let before = hello.clone();
        hooks.on_hello_tx(&mut hello, SimTime::ZERO);
        assert_eq!(hello, before);

        let mut tc = TcMessage { ansn: 1, advertised: vec![NodeId(1)] };
        let tc_before = tc.clone();
        hooks.on_tc_tx(&mut tc, SimTime::ZERO);
        assert_eq!(tc, tc_before);

        assert_eq!(hooks.willingness_override(), None);
        let data = DataMessage {
            src: NodeId(0),
            dst: NodeId(1),
            avoid: None,
            payload: bytes::Bytes::new(),
        };
        assert!(hooks.should_forward_data(&data, NodeId(2)));
    }
}
