//! Integration tests: the OLSR substrate converges to correct routing on
//! assorted topologies, verified against ground-truth shortest paths
//! computed directly from node positions.

use trustlink_olsr::prelude::*;
use trustlink_sim::prelude::*;
use trustlink_sim::record::parse_line;
use trustlink_sim::topologies;

/// Ground-truth hop distances by BFS over the unit-disk graph.
fn bfs_distances(positions: &[Position], range: f64, from: usize) -> Vec<Option<u32>> {
    let adj = topologies::adjacency(positions, range);
    let mut dist = vec![None; positions.len()];
    let mut queue = std::collections::VecDeque::new();
    dist[from] = Some(0);
    queue.push_back(from);
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if dist[v].is_none() {
                dist[v] = Some(dist[u].unwrap() + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

fn build_sim(positions: &[Position], range: f64, seed: u64, loss: f64) -> Simulator {
    let mut sim = SimulatorBuilder::new(seed)
        .arena(Arena::new(100_000.0, 100_000.0))
        .radio(RadioConfig::unit_disk(range).with_loss(loss))
        .build();
    for p in positions {
        sim.add_node(Box::new(OlsrNode::new(OlsrConfig::fast())), *p);
    }
    sim
}

fn assert_routes_match_ground_truth(sim: &Simulator, positions: &[Position], range: f64) {
    for (i, _) in positions.iter().enumerate() {
        let truth = bfs_distances(positions, range, i);
        let node = sim.app_as::<OlsrNode>(NodeId(i as u32)).unwrap();
        for (j, expected) in truth.iter().enumerate() {
            if i == j {
                continue;
            }
            let route = node.routing_table().route_to(NodeId(j as u32));
            match expected {
                Some(hops) => {
                    let r = route.unwrap_or_else(|| {
                        panic!("N{i} has no route to N{j}, expected {hops} hops")
                    });
                    assert_eq!(
                        r.hops, *hops,
                        "N{i}->N{j}: route says {} hops, BFS says {hops}",
                        r.hops
                    );
                }
                None => assert!(route.is_none(), "N{i} routes to unreachable N{j}"),
            }
        }
    }
}

#[test]
fn line_topology_converges_to_shortest_paths() {
    let positions = topologies::line(6, 100.0);
    let mut sim = build_sim(&positions, 150.0, 100, 0.0);
    sim.run_for(SimDuration::from_secs(30));
    assert_routes_match_ground_truth(&sim, &positions, 150.0);
}

#[test]
fn grid_topology_converges_to_shortest_paths() {
    let positions = topologies::grid(9, 3, 100.0);
    let mut sim = build_sim(&positions, 120.0, 101, 0.0);
    sim.run_for(SimDuration::from_secs(30));
    assert_routes_match_ground_truth(&sim, &positions, 120.0);
}

#[test]
fn ring_topology_converges_to_shortest_paths() {
    let positions = topologies::ring(8, 150.0);
    // Ring circumference step ≈ 2·150·sin(π/8) ≈ 115 m: neighbors only.
    let mut sim = build_sim(&positions, 120.0, 102, 0.0);
    sim.run_for(SimDuration::from_secs(40));
    assert_routes_match_ground_truth(&sim, &positions, 120.0);
}

#[test]
fn random_topology_with_loss_still_converges() {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(55);
    let arena = Arena::new(400.0, 400.0);
    let positions = topologies::random_connected(10, &arena, 170.0, &mut rng, 10_000);
    let mut sim = build_sim(&positions, 170.0, 103, 0.05);
    sim.run_for(SimDuration::from_secs(60));
    // With 5% loss hop counts can transiently exceed the optimum; assert
    // reachability plus sane bounds instead of exact equality.
    for i in 0..positions.len() {
        let truth = bfs_distances(&positions, 170.0, i);
        let node = sim.app_as::<OlsrNode>(NodeId(i as u32)).unwrap();
        for (j, expected) in truth.iter().enumerate() {
            if i == j {
                continue;
            }
            let hops = expected.expect("random_connected graph must be connected");
            let route = node
                .routing_table()
                .route_to(NodeId(j as u32))
                .unwrap_or_else(|| panic!("N{i} lost route to N{j}"));
            assert!(
                route.hops >= hops && route.hops <= hops + 2,
                "N{i}->N{j}: {} hops vs optimal {hops}",
                route.hops
            );
        }
    }
}

#[test]
fn mpr_sets_cover_two_hop_neighborhood_network_wide() {
    let positions = topologies::grid(12, 4, 100.0);
    let mut sim = build_sim(&positions, 150.0, 104, 0.0);
    sim.run_for(SimDuration::from_secs(30));
    let now = sim.now();
    for i in 0..positions.len() {
        let node = sim.app_as::<OlsrNode>(NodeId(i as u32)).unwrap();
        let sym = node.symmetric_neighbors(now);
        let targets = node.two_hop_set().two_hop_addrs(now, NodeId(i as u32), &sym);
        for t in targets {
            let vias = node.two_hop_set().vias_for(t, now);
            assert!(
                vias.iter().any(|v| node.mpr_set().contains(v)),
                "N{i}: 2-hop {t} uncovered by MPRs {:?} (vias {vias:?})",
                node.mpr_set()
            );
        }
    }
}

#[test]
fn node_departure_heals_routes() {
    // 0-1-2-3-4 line with a redundant node 5 above node 2.
    let mut positions = topologies::line(5, 100.0);
    positions.push(Position::new(200.0, 80.0)); // N5 near N2
    let mut sim = build_sim(&positions, 150.0, 105, 0.0);
    sim.run_for(SimDuration::from_secs(20));
    // Kill the middle relay; routes must heal through N5.
    sim.kill(NodeId(2));
    sim.run_for(SimDuration::from_secs(20));
    let a = sim.app_as::<OlsrNode>(NodeId(0)).unwrap();
    let route = a.routing_table().route_to(NodeId(4)).expect("route must heal via N5");
    assert!(route.hops >= 3);
    // And the dead node is no longer anyone's neighbor.
    assert!(!a.symmetric_neighbors(sim.now()).contains(&NodeId(2)));
}

#[test]
fn every_log_line_from_every_node_parses() {
    let positions = topologies::grid(9, 3, 100.0);
    let mut sim = build_sim(&positions, 150.0, 106, 0.02);
    sim.run_for(SimDuration::from_secs(20));
    // A reception repeating what the log already holds is not logged, so
    // the log's length says little; the frames received say how busy the
    // run was.
    let mut received = 0;
    let mut tags = std::collections::BTreeSet::new();
    for id in sim.node_ids().collect::<Vec<_>>() {
        received += sim.stats().node(id).received;
        for line in sim.log(id).lines() {
            parse_line(&line).unwrap_or_else(|e| panic!("{id}: unparseable `{line}`: {e}"));
            tags.insert(line.split(' ').next().unwrap_or_default().to_string());
        }
    }
    assert!(received > 500, "suspiciously few receptions: {received}");
    for tag in ["HELLO_RX", "TC_RX", "TC_HEARD", "MPR_SET"] {
        assert!(tags.contains(tag), "no {tag} line in any log: {tags:?}");
    }
}
