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
//!
//! A node relays a flooded message as it received it, with only TTL and
//! hop count advanced ([`relay_message_into`](crate::wire::relay_message_into)).
//! The forwarding hooks therefore see the header first: a drop decision
//! reads a [`MessageView`], and [`OlsrHooks::on_forward`] gets a [`Relay`]
//! that decodes the message only when the hook asks for it with
//! [`Relay::message_mut`]. A relay a hook asked for is re-encoded from the
//! message the hook left behind.

use bytes::Bytes;
use trustlink_sim::{NodeId, SimTime};

use crate::message::{HelloMessage, Message, TcMessage};
use crate::wire::{materialize_message, DataView, MessageView};
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
    /// forwarding algorithm *would* retransmit is actually sent, from its
    /// header as received. Returning `false` implements control-plane
    /// dropping.
    fn should_forward(&mut self, _header: &MessageView, _from: NodeId) -> bool {
        true
    }

    /// Sees a flooded message just before retransmission, and may mutate
    /// it through [`Relay::message_mut`] (the modify-and-forward attack
    /// class, e.g. sequence-number inflation). A hook that only reads
    /// [`Relay::header`] leaves the received bytes to be relayed.
    fn on_forward(&mut self, _relay: &mut Relay<'_>, _from: NodeId) {}

    /// Decides whether a unicast data message is forwarded, from its body
    /// read in place. Returning `false` implements the black-hole /
    /// gray-hole data drop.
    fn should_forward_data(&mut self, _data: &DataView<'_>, _from: NodeId) -> bool {
        true
    }
}

/// A flooded message a node is about to retransmit, as
/// [`OlsrHooks::on_forward`] sees it.
///
/// The message stays encoded in the frame it arrived in until a hook calls
/// [`message_mut`](Self::message_mut); a relay no hook asked for is sent
/// as the received bytes with TTL and hop count advanced.
#[derive(Debug)]
pub struct Relay<'a> {
    frame: &'a Bytes,
    header: MessageView,
    message: Option<Message>,
}

impl<'a> Relay<'a> {
    /// The relay of the message behind `received`, a view parsed from
    /// `frame`. Its TTL must be at least 1, as that of every message the
    /// forwarding gates pass is.
    #[inline]
    pub fn new(frame: &'a Bytes, received: &MessageView) -> Self {
        let mut header = *received;
        header.ttl -= 1;
        header.hop_count = header.hop_count.wrapping_add(1);
        Relay { frame, header, message: None }
    }

    /// The relayed message's header: as received, with TTL decremented and
    /// hop count incremented. It does not show a hook's rewrite.
    #[inline]
    pub fn header(&self) -> &MessageView {
        &self.header
    }

    /// The relayed message, decoded on the first call, with TTL and hop
    /// count already advanced. Whatever it holds when the hooks return is
    /// what the node encodes and sends.
    pub fn message_mut(&mut self) -> &mut Message {
        let (frame, header) = (self.frame, &self.header);
        self.message.get_or_insert_with(|| materialize_message(frame, header))
    }

    /// The message a hook asked for, as the hook left it; `None` when no
    /// hook called [`message_mut`](Self::message_mut).
    #[inline]
    pub fn into_message(self) -> Option<Message> {
        self.message
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
        let data = DataView { src: NodeId(0), dst: NodeId(1), avoid: None, payload: &[] };
        assert!(hooks.should_forward_data(&data, NodeId(2)));
    }
}
