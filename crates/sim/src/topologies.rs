//! Position generators for standard test topologies.
//!
//! These return only positions; feed them to [`crate::Simulator::add_node`].
//! The connectivity helpers use the unit-disk assumption (nodes closer than
//! `range` are neighbors), matching [`crate::radio::RadioConfig::range`].

use rand::rngs::StdRng;

use crate::mobility::{Arena, Position};

/// Positions on a line, `spacing` metres apart, starting at the origin.
pub fn line(n: usize, spacing: f64) -> Vec<Position> {
    (0..n).map(|i| Position::new(i as f64 * spacing, 0.0)).collect()
}

/// Positions on a `cols`-wide grid, `spacing` metres apart.
pub fn grid(n: usize, cols: usize, spacing: f64) -> Vec<Position> {
    assert!(cols > 0, "grid needs at least one column");
    (0..n)
        .map(|i| Position::new((i % cols) as f64 * spacing, (i / cols) as f64 * spacing))
        .collect()
}

/// Positions evenly spaced on a circle of the given radius centred at
/// `(radius, radius)`.
pub fn ring(n: usize, radius: f64) -> Vec<Position> {
    (0..n)
        .map(|i| {
            let theta = std::f64::consts::TAU * i as f64 / n as f64;
            Position::new(radius + radius * theta.cos(), radius + radius * theta.sin())
        })
        .collect()
}

/// Uniformly random positions in `arena` — the classic random geometric
/// graph placement, with no connectivity guarantee.
///
/// This is the generator for *large* topologies (10³–10⁴ nodes), where
/// the O(n²) connectivity check of [`random_connected`] is unaffordable
/// and statistically unnecessary: pair it with [`arena_for_mean_degree`]
/// to size the arena so the network is dense enough to be connected with
/// overwhelming probability.
pub fn random_geometric(n: usize, arena: &Arena, rng: &mut StdRng) -> Vec<Position> {
    (0..n).map(|_| arena.random_position(rng)).collect()
}

/// A square arena sized so `n` nodes at radio range `range` have the
/// given mean 1-hop degree: area = `n · π · range² / mean_degree`.
///
/// # Panics
///
/// Panics if any argument is non-positive.
pub fn arena_for_mean_degree(n: usize, range: f64, mean_degree: f64) -> Arena {
    assert!(n > 0 && range > 0.0 && mean_degree > 0.0, "all arguments must be positive");
    let area = n as f64 * std::f64::consts::PI * range * range / mean_degree;
    let side = area.sqrt();
    Arena::new(side, side)
}

/// Uniformly random positions in `arena` re-sampled until the unit-disk
/// graph at `range` is connected.
///
/// # Panics
///
/// Panics if no connected placement is found within `max_tries` attempts —
/// raise the range or shrink the arena if that happens.
pub fn random_connected(
    n: usize,
    arena: &Arena,
    range: f64,
    rng: &mut StdRng,
    max_tries: usize,
) -> Vec<Position> {
    for _ in 0..max_tries {
        let positions: Vec<Position> = (0..n).map(|_| arena.random_position(rng)).collect();
        if is_connected(&positions, range) {
            return positions;
        }
    }
    panic!("no connected placement of {n} nodes at range {range} found in {max_tries} tries");
}

/// `true` when the unit-disk graph over `positions` at `range` is connected.
pub fn is_connected(positions: &[Position], range: f64) -> bool {
    if positions.is_empty() {
        return true;
    }
    let n = positions.len();
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut count = 1;
    while let Some(i) = stack.pop() {
        for j in 0..n {
            if !seen[j] && positions[i].distance(&positions[j]) <= range {
                seen[j] = true;
                count += 1;
                stack.push(j);
            }
        }
    }
    count == n
}

/// Adjacency list of the unit-disk graph over `positions` at `range`.
pub fn adjacency(positions: &[Position], range: f64) -> Vec<Vec<usize>> {
    let n = positions.len();
    let mut adj = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if positions[i].distance(&positions[j]) <= range {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn line_spacing() {
        let p = line(4, 10.0);
        assert_eq!(p.len(), 4);
        assert_eq!(p[3], Position::new(30.0, 0.0));
        // Consecutive nodes adjacent at range 10, skip-one not.
        assert!(is_connected(&p, 10.0));
        assert!(!is_connected(&p, 9.0));
    }

    #[test]
    fn grid_shape() {
        let p = grid(6, 3, 5.0);
        assert_eq!(p[0], Position::new(0.0, 0.0));
        assert_eq!(p[2], Position::new(10.0, 0.0));
        assert_eq!(p[3], Position::new(0.0, 5.0));
        assert_eq!(p[5], Position::new(10.0, 5.0));
    }

    #[test]
    #[should_panic(expected = "column")]
    fn grid_zero_cols_rejected() {
        let _ = grid(4, 0, 5.0);
    }

    #[test]
    fn ring_is_equidistant_from_centre() {
        let p = ring(8, 100.0);
        for q in &p {
            let d = q.distance(&Position::new(100.0, 100.0));
            assert!((d - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn random_geometric_fills_the_arena() {
        let mut rng = StdRng::seed_from_u64(9);
        let arena = Arena::new(1_000.0, 500.0);
        let p = random_geometric(2_000, &arena, &mut rng);
        assert_eq!(p.len(), 2_000);
        assert!(p.iter().all(|q| arena.contains(*q)));
        // Uniform placement should hit all four quadrants.
        let quadrant = |q: &Position| (q.x > 500.0) as usize * 2 + (q.y > 250.0) as usize;
        let mut seen = [false; 4];
        for q in &p {
            seen[quadrant(q)] = true;
        }
        assert!(seen.iter().all(|s| *s), "quadrants covered: {seen:?}");
    }

    #[test]
    fn arena_for_mean_degree_hits_the_target_density() {
        let n = 1_000;
        let range = 150.0;
        let arena = arena_for_mean_degree(n, range, 12.0);
        // Empirical mean degree over a random placement should be close
        // to the target (border effects push it slightly low).
        let mut rng = StdRng::seed_from_u64(3);
        let p = random_geometric(n, &arena, &mut rng);
        let adj = adjacency(&p, range);
        let mean = adj.iter().map(Vec::len).sum::<usize>() as f64 / n as f64;
        assert!((8.0..=13.0).contains(&mean), "mean degree {mean}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn arena_for_mean_degree_rejects_zero_range() {
        let _ = arena_for_mean_degree(10, 0.0, 8.0);
    }

    #[test]
    fn random_connected_is_connected() {
        let mut rng = StdRng::seed_from_u64(4);
        let arena = Arena::new(300.0, 300.0);
        let p = random_connected(16, &arena, 120.0, &mut rng, 1000);
        assert_eq!(p.len(), 16);
        assert!(is_connected(&p, 120.0));
        assert!(p.iter().all(|q| arena.contains(*q)));
    }

    #[test]
    #[should_panic(expected = "no connected placement")]
    fn random_connected_gives_up() {
        let mut rng = StdRng::seed_from_u64(4);
        // 16 nodes at laughably short range in a huge arena: impossible.
        let arena = Arena::new(100_000.0, 100_000.0);
        let _ = random_connected(16, &arena, 1.0, &mut rng, 5);
    }

    #[test]
    fn adjacency_symmetric() {
        let p = line(5, 10.0);
        let adj = adjacency(&p, 10.0);
        for (i, nbrs) in adj.iter().enumerate() {
            for &j in nbrs {
                assert!(adj[j].contains(&i), "asymmetric edge {i}-{j}");
            }
        }
        assert_eq!(adj[0], vec![1]);
        assert_eq!(adj[2], vec![1, 3]);
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(is_connected(&[], 10.0));
        assert!(is_connected(&[Position::new(0.0, 0.0)], 10.0));
    }
}
