//! The wormhole attack (§II): two colluding nodes tunnel frames between
//! distant regions over an out-of-band channel, so each region hears the
//! other's control traffic as if it were local — "one recording the message
//! from one region so as to replay it in another region".
//!
//! The out-of-band channel is modelled as a pair of shared queues
//! (`Arc<Mutex<…>>`, because applications must be `Send`); each endpoint
//! drains its inbound queue on a fast timer and re-broadcasts the
//! tunnelled frames unchanged, keeping the original originators — exactly
//! the "invisible" variant the paper describes.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use trustlink_olsr::node::{OlsrNode, TIMER_USER_BASE};
use trustlink_olsr::types::OlsrConfig;
use trustlink_sim::{Application, Context, NodeId, SimDuration, TimerToken};

const TIMER_TUNNEL_POLL: TimerToken = TimerToken(TIMER_USER_BASE + 500);

type Tunnel = Arc<Mutex<VecDeque<Bytes>>>;

/// One end of a wormhole. Create both ends with [`wormhole_pair`].
pub struct WormholeEndpoint {
    inner: OlsrNode,
    to_peer: Tunnel,
    from_peer: Tunnel,
    /// How often the inbound tunnel is drained.
    pub poll_interval: SimDuration,
    tunneled_in: u64,
    tunneled_out: u64,
}

/// Builds the two colluding endpoints of a wormhole. Add each to the
/// simulator at its (distant) position.
pub fn wormhole_pair(
    config_a: OlsrConfig,
    config_b: OlsrConfig,
    poll_interval: SimDuration,
) -> (WormholeEndpoint, WormholeEndpoint) {
    let ab: Tunnel = Arc::new(Mutex::new(VecDeque::new()));
    let ba: Tunnel = Arc::new(Mutex::new(VecDeque::new()));
    let a = WormholeEndpoint {
        inner: OlsrNode::new(config_a),
        to_peer: Arc::clone(&ab),
        from_peer: Arc::clone(&ba),
        poll_interval,
        tunneled_in: 0,
        tunneled_out: 0,
    };
    let b = WormholeEndpoint {
        inner: OlsrNode::new(config_b),
        to_peer: ba,
        from_peer: ab,
        poll_interval,
        tunneled_in: 0,
        tunneled_out: 0,
    };
    (a, b)
}

impl WormholeEndpoint {
    /// The inner faithful OLSR node.
    pub fn olsr(&self) -> &OlsrNode {
        &self.inner
    }

    /// Frames re-broadcast from the peer's region.
    pub fn tunneled_in(&self) -> u64 {
        self.tunneled_in
    }

    /// Frames captured and shipped to the peer.
    pub fn tunneled_out(&self) -> u64 {
        self.tunneled_out
    }
}

impl Application for WormholeEndpoint {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
        ctx.set_timer(self.poll_interval, TIMER_TUNNEL_POLL);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        if timer == TIMER_TUNNEL_POLL {
            loop {
                let frame = self.from_peer.lock().unwrap().pop_front();
                match frame {
                    Some(payload) => {
                        ctx.broadcast(payload);
                        self.tunneled_in += 1;
                    }
                    None => break,
                }
            }
            ctx.set_timer(self.poll_interval, TIMER_TUNNEL_POLL);
        } else {
            self.inner.on_timer(ctx, timer);
        }
    }

    fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        self.to_peer.lock().unwrap().push_back(payload.clone());
        self.tunneled_out += 1;
        self.inner.on_receive(ctx, from, payload);
    }
}

impl std::fmt::Debug for WormholeEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WormholeEndpoint")
            .field("tunneled_in", &self.tunneled_in)
            .field("tunneled_out", &self.tunneled_out)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustlink_sim::prelude::*;

    #[test]
    fn wormhole_makes_distant_nodes_appear_adjacent() {
        // Two clusters far apart; a wormhole endpoint sits in each.
        let mut sim = SimulatorBuilder::new(31)
            .radio(RadioConfig::unit_disk(150.0))
            .arena(Arena::new(10_000.0, 1_000.0))
            .build();
        let alice =
            sim.add_node(Box::new(OlsrNode::new(OlsrConfig::fast())), Position::new(0.0, 0.0));
        let (wa, wb) =
            wormhole_pair(OlsrConfig::fast(), OlsrConfig::fast(), SimDuration::from_millis(50));
        let _end_a = sim.add_node(Box::new(wa), Position::new(100.0, 0.0));
        let _end_b = sim.add_node(Box::new(wb), Position::new(5_000.0, 0.0));
        let bob =
            sim.add_node(Box::new(OlsrNode::new(OlsrConfig::fast())), Position::new(5_100.0, 0.0));
        sim.run_for(SimDuration::from_secs(15));
        // Bob hears Alice's HELLOs through the tunnel: from his point of
        // view Alice looks like a (one-way) radio neighbor thousands of
        // metres away.
        let bob_heard_alice =
            sim.log(bob).lines().any(|l| l.starts_with(&format!("HELLO_RX from={alice}")));
        assert!(bob_heard_alice, "wormhole did not tunnel Alice's HELLOs to Bob");
        let end_a = sim.app_as::<WormholeEndpoint>(NodeId(1)).unwrap();
        assert!(end_a.tunneled_out() > 0);
        let end_b = sim.app_as::<WormholeEndpoint>(NodeId(2)).unwrap();
        assert!(end_b.tunneled_in() > 0);
    }

    #[test]
    fn tunnel_queues_are_symmetric() {
        let (a, b) =
            wormhole_pair(OlsrConfig::fast(), OlsrConfig::fast(), SimDuration::from_millis(50));
        // a.to_peer is b.from_peer and vice versa.
        a.to_peer.lock().unwrap().push_back(Bytes::from_static(b"x"));
        assert_eq!(b.from_peer.lock().unwrap().len(), 1);
        b.to_peer.lock().unwrap().push_back(Bytes::from_static(b"y"));
        assert_eq!(a.from_peer.lock().unwrap().len(), 1);
    }
}
