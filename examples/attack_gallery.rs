//! A tour of the §II attack taxonomy: run each implemented attack on a
//! small network and show its observable effect.
//!
//! Run with: `cargo run --example attack_gallery`

use trustlink_attacks::drop::DropMode;
use trustlink_attacks::prelude::*;
use trustlink_olsr::prelude::*;
use trustlink_sim::prelude::*;

fn line_network(seed: u64) -> Simulator {
    let mut sim = SimulatorBuilder::new(seed)
        .radio(RadioConfig::unit_disk(150.0))
        .arena(Arena::new(10_000.0, 1_000.0))
        .build();
    for i in 0..5u16 {
        sim.add_node(
            Box::new(OlsrNode::new(OlsrConfig::fast())),
            Position::new(f64::from(i) * 100.0, 0.0),
        );
    }
    sim
}

fn main() {
    println!("=== 1. Link spoofing (the paper's focus) ===");
    {
        let mut sim = SimulatorBuilder::new(1).radio(RadioConfig::unit_disk(150.0)).build();
        sim.add_node(Box::new(OlsrNode::new(OlsrConfig::fast())), Position::new(0.0, 0.0));
        sim.add_node(
            Box::new(link_spoofing_node(
                OlsrConfig::fast(),
                LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent {
                    fake: vec![NodeId(77)],
                }),
            )),
            Position::new(100.0, 0.0),
        );
        sim.run_for(SimDuration::from_secs(10));
        let victim = sim.app_as::<OlsrNode>(NodeId(0)).unwrap();
        println!("victim's MPR set after the phantom claim: {:?}", victim.mpr_set());
        println!(
            "victim routes to the phantom: {:?}\n",
            victim.routing_table().route_to(NodeId(77))
        );
    }

    println!("=== 2. Black hole (drop attack) ===");
    {
        let mut sim = SimulatorBuilder::new(2)
            .radio(RadioConfig::unit_disk(150.0))
            .arena(Arena::new(10_000.0, 1_000.0))
            .build();
        for i in 0..5u16 {
            if i == 2 {
                sim.add_node(
                    Box::new(drop_attack_node(
                        OlsrConfig::fast(),
                        DropAttack::new(DropMode::BlackHole, DropScope::All, 2),
                    )),
                    Position::new(f64::from(i) * 100.0, 0.0),
                );
            } else {
                sim.add_node(
                    Box::new(OlsrNode::new(OlsrConfig::fast())),
                    Position::new(f64::from(i) * 100.0, 0.0),
                );
            }
        }
        sim.run_for(SimDuration::from_secs(20));
        let end = sim.app_as::<OlsrNode>(NodeId(0)).unwrap();
        println!(
            "node N0's route to the far end through the black hole: {:?}",
            end.routing_table().route_to(NodeId(4))
        );
        let dropper = sim.app_as::<trustlink_attacks::drop::DropAttackNode>(NodeId(2)).unwrap();
        println!("frames swallowed by the black hole: {}\n", dropper.hooks().dropped);
    }

    println!("=== 3. Broadcast storm with masquerade ===");
    {
        let mut sim = line_network(3);
        let storm = BroadcastStorm::new(
            OlsrConfig::fast(),
            SimDuration::from_millis(100),
            4,
            Some(NodeId(42)),
        );
        sim.add_node(Box::new(storm), Position::new(200.0, 50.0));
        sim.run_for(SimDuration::from_secs(10));
        let victim_rx = sim.stats().node(NodeId(2)).received;
        println!("frames received by one victim in 10 s: {victim_rx}");
        let spoofed =
            sim.log(NodeId(2)).lines().filter(|l| l.starts_with("TC_RX orig=N42")).count();
        println!("logged TCs attributing forged claims to the masqueraded N42: {spoofed}\n");
    }

    println!("=== 4. Replay attack ===");
    {
        let mut sim = line_network(4);
        sim.add_node(
            Box::new(ReplayAttacker::new(OlsrConfig::fast(), SimDuration::from_secs(3), 128)),
            Position::new(200.0, 50.0),
        );
        sim.run_for(SimDuration::from_secs(15));
        let replayer = sim.app_as::<ReplayAttacker>(NodeId(5)).unwrap();
        println!("frames captured and replayed 3 s late: {}\n", replayer.replayed_total());
    }

    println!("=== 5. Wormhole ===");
    {
        let mut sim = SimulatorBuilder::new(5)
            .radio(RadioConfig::unit_disk(150.0))
            .arena(Arena::new(10_000.0, 1_000.0))
            .build();
        sim.add_node(Box::new(OlsrNode::new(OlsrConfig::fast())), Position::new(0.0, 0.0));
        let (wa, wb) =
            wormhole_pair(OlsrConfig::fast(), OlsrConfig::fast(), SimDuration::from_millis(50));
        sim.add_node(Box::new(wa), Position::new(100.0, 0.0));
        sim.add_node(Box::new(wb), Position::new(5_000.0, 0.0));
        sim.add_node(Box::new(OlsrNode::new(OlsrConfig::fast())), Position::new(5_100.0, 0.0));
        sim.run_for(SimDuration::from_secs(15));
        let far = sim.app_as::<OlsrNode>(NodeId(3)).unwrap();
        println!(
            "node 5 km away believes N0 is nearby: 2-hop view contains N0 = {}",
            far.two_hop_set().two_hop_addrs(sim.now(), NodeId(3), &[]).contains(&NodeId(0))
        );
        let endpoint = sim.app_as::<WormholeEndpoint>(NodeId(1)).unwrap();
        println!("frames tunnelled out of region A: {}\n", endpoint.tunneled_out());
    }

    println!("=== 6. Willingness manipulation ===");
    {
        let mut sim = SimulatorBuilder::new(6)
            .radio(RadioConfig::unit_disk(150.0))
            .arena(Arena::new(10_000.0, 1_000.0))
            .build();
        for i in 0..5u16 {
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
        for observer in [NodeId(1), NodeId(3)] {
            let node = sim.app_as::<OlsrNode>(observer).unwrap();
            println!(
                "{observer} selected the WILL_ALWAYS attacker as MPR: {}",
                node.mpr_set().contains(&NodeId(2))
            );
        }
    }
}
