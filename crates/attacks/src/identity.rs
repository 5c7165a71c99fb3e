//! Identity spoofing (§II): forging control messages under another node's
//! main address, "intended to create conflicting route(s) and loop(s)".

use bytes::Bytes;
use rand::RngExt;
use trustlink_olsr::message::{
    HelloMessage, LinkCode, LinkGroup, LinkType, Message, MessageBody, NeighborType, Packet,
};
use trustlink_olsr::node::{OlsrNode, TIMER_USER_BASE};
use trustlink_olsr::types::{OlsrConfig, SequenceNumber};
use trustlink_olsr::wire::encode_packet;
use trustlink_sim::record::Willingness;
use trustlink_sim::{Application, Context, NodeId, SimDuration, TimerToken};

const TIMER_SPOOF: TimerToken = TimerToken(TIMER_USER_BASE + 200);

/// A node that periodically emits HELLOs forged in a victim's name,
/// claiming an arbitrary symmetric neighborhood.
pub struct IdentitySpoofer {
    inner: OlsrNode,
    /// The impersonated node.
    pub victim: NodeId,
    /// The neighborhood claimed on the victim's behalf.
    pub claimed_neighbors: Vec<NodeId>,
    /// Emission period for forged HELLOs.
    pub interval: SimDuration,
    seq: u16,
    forged_total: u64,
}

impl IdentitySpoofer {
    /// Builds an identity spoofer.
    pub fn new(
        config: OlsrConfig,
        victim: NodeId,
        claimed_neighbors: Vec<NodeId>,
        interval: SimDuration,
    ) -> Self {
        IdentitySpoofer {
            inner: OlsrNode::new(config),
            victim,
            claimed_neighbors,
            interval,
            seq: 30_000,
            forged_total: 0,
        }
    }

    /// The inner faithful OLSR node.
    pub fn olsr(&self) -> &OlsrNode {
        &self.inner
    }

    /// Forged HELLOs emitted so far.
    pub fn forged_total(&self) -> u64 {
        self.forged_total
    }

    fn emit_forged_hello(&mut self, ctx: &mut Context<'_>) {
        self.seq = self.seq.wrapping_add(ctx.rng().random_range(1..4u16));
        let hello = HelloMessage {
            willingness: Willingness::High,
            groups: vec![LinkGroup {
                code: LinkCode::new(LinkType::Sym, NeighborType::Sym),
                addrs: self.claimed_neighbors.clone(),
            }],
        };
        let msg = Message {
            vtime: SimDuration::from_secs(6),
            originator: self.victim,
            ttl: 1,
            hop_count: 0,
            seq: SequenceNumber(self.seq),
            body: MessageBody::Hello(hello),
        };
        let packet = Packet { seq: SequenceNumber(self.seq), messages: vec![msg] };
        let bytes: Bytes = encode_packet(&packet);
        ctx.broadcast(bytes);
        self.forged_total += 1;
    }
}

impl Application for IdentitySpoofer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
        ctx.set_timer(self.interval, TIMER_SPOOF);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        if timer == TIMER_SPOOF {
            self.emit_forged_hello(ctx);
            ctx.set_timer(self.interval, TIMER_SPOOF);
        } else {
            self.inner.on_timer(ctx, timer);
        }
    }

    fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        self.inner.on_receive(ctx, from, payload);
    }
}

impl std::fmt::Debug for IdentitySpoofer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IdentitySpoofer")
            .field("victim", &self.victim)
            .field("forged_total", &self.forged_total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustlink_sim::prelude::*;

    #[test]
    fn observer_attributes_forged_hellos_to_victim() {
        let mut sim = SimulatorBuilder::new(41).radio(RadioConfig::unit_disk(200.0)).build();
        let observer =
            sim.add_node(Box::new(OlsrNode::new(OlsrConfig::fast())), Position::new(0.0, 0.0));
        // The forged neighborhood must claim the observer itself: receivers
        // only record 2-hop state from HELLOs that prove a live symmetric
        // link (RFC 3626 §8.2.1), so a credible forgery lists its audience.
        let _spoofer = sim.add_node(
            Box::new(IdentitySpoofer::new(
                OlsrConfig::fast(),
                NodeId(42),
                vec![NodeId(0), NodeId(7), NodeId(8)],
                SimDuration::from_millis(500),
            )),
            Position::new(100.0, 0.0),
        );
        // Sample the observer every 100 ms for 5 s. From the first forged
        // HELLO on, its link set must hold N42 as a symmetric neighbor and
        // its 2-hop set must hold exactly N42's claims, at every sample.
        // Each reception re-stamps the 2-hop validity, so counting the
        // distinct validities counts the forged HELLOs received.
        let mut first_seen = None;
        let mut receptions = std::collections::BTreeSet::new();
        for _ in 0..50 {
            sim.run_for(SimDuration::from_millis(100));
            let now = sim.now();
            let obs = sim.app_as::<OlsrNode>(observer).unwrap();
            let via_victim: Vec<_> =
                obs.two_hop_set().iter(now).filter(|t| t.via == NodeId(42)).collect();
            if via_victim.is_empty() && first_seen.is_none() {
                continue;
            }
            first_seen.get_or_insert(now);
            assert!(obs.is_symmetric_neighbor(NodeId(42), now), "N42 lapsed at {now}");
            let claims: Vec<NodeId> = via_victim.iter().map(|t| t.two_hop).collect();
            assert_eq!(claims, vec![NodeId(7), NodeId(8)], "2-hop via N42 at {now}");
            receptions.insert(via_victim[0].until);
        }
        let first_seen = first_seen.expect("no forged HELLO reached the observer");
        assert!(first_seen <= SimTime::from_secs(1), "first forged HELLO only at {first_seen}");
        assert!(receptions.len() >= 5, "observer saw only {} forged HELLOs", receptions.len());
        // The log attributes the forged claim to the victim: a constant
        // claim set is logged once, on first reception.
        assert!(
            sim.log(observer)
                .lines()
                .any(|l| l.starts_with("HELLO_RX from=N42 will=6 sym=[N0,N7,N8]")),
            "forged HELLO missing from the observer's log"
        );
    }
}
