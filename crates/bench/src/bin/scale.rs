//! The scaling benchmark: eager vs incremental OLSR recompute and classic
//! vs fisheye TC flooding, at 10²–10⁴ nodes, recorded as
//! `BENCH_scale.json` at the repository root.
//!
//! Two measurements per network size:
//!
//! * **full-stack recompute** — wall time of a HELLO + TC convergence
//!   window with `RecomputeMode::Eager` (the pre-incremental *cadence*:
//!   recompute after every state-changing packet) vs
//!   `RecomputeMode::Incremental` (change-aware, debounced). The 10k eager
//!   oracle is skipped on wall-time grounds and says so in the JSON.
//! * **fisheye flood** — wall time, total frames and *forwarded TC frames*
//!   of the same full-stack window under `FloodScope::Classic` (every TC
//!   floods network-wide: the O(n²) wall PR 3 exposed) vs
//!   `FloodScope::Fisheye` (graded per-ring scoping). At 256–4096 nodes
//!   the window covers a full ring cycle and the rows include the cost
//!   side: mean/max route stretch and the fraction of classic's
//!   destinations fisheye still reaches. The 10k row keeps the 6 s window
//!   (one classic interval — a full classic cycle there is an hour-class
//!   measurement), so its stretch columns are skipped and its reduction
//!   reflects the scoped bootstrap.
//!
//! Usage:
//!   `cargo run --release -p trustlink-bench --bin scale`                  — full sweep, writes BENCH_scale.json
//!   `cargo run --release -p trustlink-bench --bin scale -- --smoke`       — small sizes, stdout only (CI)
//!   `... -- --out <path>`                                                 — alternative output path

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use trustlink_olsr::{FisheyeRings, FloodScope, OlsrConfig, OlsrNode, RecomputeMode};
use trustlink_sim::prelude::*;
use trustlink_sim::topologies;
use trustlink_sim::FloodStats;

/// Radio range shared by every measurement, metres.
const RANGE: f64 = 150.0;
/// Target mean 1-hop degree of the random geometric placements.
const MEAN_DEGREE: f64 = 10.0;
/// Observers sampled for the route-stretch comparison.
const STRETCH_SAMPLE: usize = 64;

fn placed_sim(n: usize, seed: u64, app: impl Fn() -> Box<dyn Application>) -> Simulator {
    let arena = topologies::arena_for_mean_degree(n, RANGE, MEAN_DEGREE);
    let mut rng = StdRng::seed_from_u64(seed);
    let positions = topologies::random_geometric(n, &arena, &mut rng);
    let mut sim = SimulatorBuilder::new(seed)
        .arena(arena)
        .radio(RadioConfig::unit_disk(RANGE))
        .expected_nodes(n)
        .build();
    for &p in &positions {
        sim.add_node(app(), p);
    }
    sim
}

/// Per-observer `(dest, hops)` routing snapshots sampled over ≤
/// [`STRETCH_SAMPLE`] evenly spaced nodes.
type RouteSnapshot = Vec<(u32, Vec<(u32, u32)>)>;

/// Everything one full-stack run yields.
struct FullStackRun {
    wall_ms: f64,
    frames: u64,
    route_runs: u64,
    flood: FloodStats,
    routes: RouteSnapshot,
}

/// Wall milliseconds to simulate a `sim_secs`-second *full-stack*
/// convergence window — HELLOs and TCs both flowing — under the given
/// recompute mode and flood scope, plus the
/// frame/recompute/flood accounting and a sampled routing snapshot.
fn full_stack(n: usize, mode: RecomputeMode, scope: FloodScope, sim_secs: u64) -> FullStackRun {
    // RFC 3626 §18 default timing (hello 2 s, TC 5 s): the representative
    // deployment cadence. The `fast()` timing used by quick tests drives
    // 16× the TC traffic and makes the eager oracle a multi-hour
    // measurement at 4096 nodes without changing the speedup story.
    let cfg = OlsrConfig { recompute: mode, flood_scope: scope, ..OlsrConfig::rfc_default() };
    let t0 = Instant::now();
    let mut sim = placed_sim(n, 1, || Box::new(OlsrNode::new(cfg.clone())));
    sim.run_for(SimDuration::from_secs(sim_secs));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let frames = sim.stats().total_sent();
    let mut route_runs = 0u64;
    let mut flood = FloodStats::default();
    for id in sim.node_ids().collect::<Vec<_>>() {
        let node = sim.app_as::<OlsrNode>(id).expect("olsr node");
        route_runs += node.recompute_stats().route_runs;
        flood.merge(node.flood_stats());
    }
    let step = (n / STRETCH_SAMPLE).max(1);
    let routes: RouteSnapshot = (0..n)
        .step_by(step)
        .map(|i| {
            let id = NodeId(i as u32);
            let table = sim.app_as::<OlsrNode>(id).expect("olsr node").routing_table();
            (id.0, table.iter().map(|r| (r.dest.0, r.hops)).collect())
        })
        .collect();
    FullStackRun { wall_ms, frames, route_runs, flood, routes }
}

/// Route stretch of `scoped` relative to `classic`: mean and max
/// `hops_scoped / hops_classic` over the destinations both reach, plus
/// the fraction of classic's destinations scoped still reaches.
fn route_stretch(classic: &RouteSnapshot, scoped: &RouteSnapshot) -> (f64, f64, f64) {
    let (mut sum, mut max, mut count, mut unreached) = (0.0f64, 0.0f64, 0u64, 0u64);
    for ((obs_c, routes_c), (obs_s, routes_s)) in classic.iter().zip(scoped) {
        assert_eq!(obs_c, obs_s, "snapshots sampled different observers");
        // Snapshots come from `RoutingTable::iter`, ascending by dest.
        for &(dest, hops_c) in routes_c {
            match routes_s.binary_search_by_key(&dest, |&(d, _)| d) {
                Ok(i) => {
                    let ratio = f64::from(routes_s[i].1) / f64::from(hops_c);
                    sum += ratio;
                    max = max.max(ratio);
                    count += 1;
                }
                Err(_) => unreached += 1,
            }
        }
    }
    if count == 0 {
        return (f64::NAN, f64::NAN, 0.0);
    }
    let reached = count as f64 / (count + unreached) as f64;
    (sum / count as f64, max, reached)
}

struct RecomputeRow {
    nodes: usize,
    sim_secs: u64,
    /// `None` for sizes where the eager oracle is unaffordable (10k).
    eager_ms: Option<f64>,
    incremental_ms: f64,
    frames: u64,
    tc_frames_forwarded: u64,
    eager_bfs: Option<u64>,
    incremental_bfs: u64,
}

struct FloodRow {
    nodes: usize,
    sim_secs: u64,
    classic_ms: f64,
    fisheye_ms: f64,
    classic_frames: u64,
    fisheye_frames: u64,
    classic_tc_forwarded: u64,
    fisheye_tc_forwarded: u64,
    fisheye_originated_per_ring: Vec<u64>,
    /// `None` when the window is below one ring cycle (10k): distant
    /// topology has not completed a scoped refresh, so stretch would
    /// measure the bootstrap, not the steady state.
    stretch: Option<(f64, f64, f64)>,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| format!("{}/../../BENCH_scale.json", env!("CARGO_MANIFEST_DIR")));

    // (nodes, sim window, run the eager oracle too?). The 10k row is
    // incremental-only: the point of this pipeline is that the full stack
    // *completes* there, where per-packet recompute was unaffordable.
    let recompute_plan: &[(usize, u64, bool)] = if smoke {
        &[(64, 6, true), (256, 6, true)]
    } else {
        &[(256, 6, true), (1024, 6, true), (4096, 6, true), (10_000, 6, false)]
    };
    // (nodes, sim window, window covers a full ring cycle?). 26 s covers
    // the stride-4 outer ring of the default table (worst-case first
    // network-wide emission at ~25 s) so the classic-vs-fisheye rows at
    // 256–4096 measure the graded steady state and can price route
    // stretch. The 10k row reuses the 6 s recompute window: a full
    // classic cycle there is an hour-class run, so it measures the
    // scoped bootstrap instead and skips the stretch columns.
    let flood_plan: &[(usize, u64, bool)] = if smoke {
        &[(64, 26, true), (256, 26, true)]
    } else {
        &[(256, 26, true), (1024, 26, true), (4096, 26, true), (10_000, 6, false)]
    };
    let mut rec_rows = Vec::new();
    // Incremental+classic runs, kept for reuse as the flood section's
    // classic baseline where the plans share (nodes, window).
    let mut classic_runs: Vec<(usize, u64, FullStackRun)> = Vec::new();
    for &(n, secs, with_eager) in recompute_plan {
        let incr = full_stack(n, RecomputeMode::Incremental, FloodScope::Classic, secs);
        let (eager_ms, eager_bfs) = if with_eager {
            let eager = full_stack(n, RecomputeMode::Eager, FloodScope::Classic, secs);
            assert_eq!(
                eager.frames, incr.frames,
                "recompute modes transmitted different frame counts at n={n}"
            );
            (Some(eager.wall_ms), Some(eager.route_runs))
        } else {
            (None, None)
        };
        match eager_ms {
            Some(e) => eprintln!(
                "recompute n={n:>6}: eager {e:>9.0} ms   incremental {:>9.0} ms   {:>5.2}×  ({} frames, {} TC fwd, BFS {} -> {})",
                incr.wall_ms,
                e / incr.wall_ms,
                incr.frames,
                incr.flood.forwarded,
                eager_bfs.unwrap_or(0),
                incr.route_runs,
            ),
            None => eprintln!(
                "recompute n={n:>6}: eager   (skipped: wall time)   incremental {:>9.0} ms          ({} frames, {} TC fwd, BFS {})",
                incr.wall_ms, incr.frames, incr.flood.forwarded, incr.route_runs
            ),
        }
        rec_rows.push(RecomputeRow {
            nodes: n,
            sim_secs: secs,
            eager_ms,
            incremental_ms: incr.wall_ms,
            frames: incr.frames,
            tc_frames_forwarded: incr.flood.forwarded,
            eager_bfs,
            incremental_bfs: incr.route_runs,
        });
        classic_runs.push((n, secs, incr));
    }

    let mut flood_rows = Vec::new();
    for &(n, secs, full_cycle) in flood_plan {
        let classic = match classic_runs.iter().position(|&(rn, rs, _)| rn == n && rs == secs) {
            Some(i) => classic_runs.swap_remove(i).2,
            None => full_stack(n, RecomputeMode::Incremental, FloodScope::Classic, secs),
        };
        let fisheye = full_stack(
            n,
            RecomputeMode::Incremental,
            FloodScope::Fisheye(FisheyeRings::default()),
            secs,
        );
        let stretch = full_cycle.then(|| route_stretch(&classic.routes, &fisheye.routes));
        let stretch_note = match stretch {
            Some((mean, max, reached)) => {
                format!("stretch mean {mean:.3} max {max:.2} reached {:.1}%", reached * 100.0)
            }
            None => "stretch skipped (window < ring cycle)".to_string(),
        };
        eprintln!(
            "flood    n={n:>6}: classic {:>9.0} ms   fisheye {:>9.0} ms   {:>5.2}×  (TC fwd {} -> {}, {:.2}× fewer; {stretch_note})",
            classic.wall_ms,
            fisheye.wall_ms,
            classic.wall_ms / fisheye.wall_ms,
            classic.flood.forwarded,
            fisheye.flood.forwarded,
            classic.flood.forwarded as f64 / fisheye.flood.forwarded.max(1) as f64,
        );
        flood_rows.push(FloodRow {
            nodes: n,
            sim_secs: secs,
            classic_ms: classic.wall_ms,
            fisheye_ms: fisheye.wall_ms,
            classic_frames: classic.frames,
            fisheye_frames: fisheye.frames,
            classic_tc_forwarded: classic.flood.forwarded,
            fisheye_tc_forwarded: fisheye.flood.forwarded,
            fisheye_originated_per_ring: fisheye.flood.originated_per_ring.clone(),
            stretch,
        });
    }

    let json = render_json(&rec_rows, &flood_rows);
    if smoke {
        println!("{json}");
        eprintln!("smoke mode: not writing {out_path}");
    } else {
        std::fs::write(&out_path, &json).expect("write BENCH_scale.json");
        eprintln!("wrote {out_path}");
    }

    // Guard the headline claims. Smoke sizes are small (the 64-node mesh
    // is barely wider than the inner rings), so only the largest smoke
    // row carries the flood assert.
    let flood_assert_at = if smoke { 256 } else { 4096 };
    let row = flood_rows.iter().find(|r| r.nodes == flood_assert_at).expect("flood assert row");
    let reduction = row.classic_tc_forwarded as f64 / row.fisheye_tc_forwarded.max(1) as f64;
    let min_reduction = if smoke { 2.0 } else { 3.0 };
    assert!(
        reduction >= min_reduction,
        "fisheye TC-forward reduction at {flood_assert_at} nodes regressed to {reduction:.2}× (< {min_reduction}×)"
    );
    if !smoke {
        let at_4k = rec_rows.iter().find(|r| r.nodes == 4096).expect("4k recompute row");
        let speedup = at_4k.eager_ms.expect("eager measured at 4k") / at_4k.incremental_ms;
        assert!(
            speedup >= 5.0,
            "incremental recompute speedup at 4096 nodes regressed to {speedup:.1}× (< 5×)"
        );
        let at_10k = rec_rows.iter().find(|r| r.nodes == 10_000).expect("10k recompute row");
        assert!(at_10k.frames > 0, "the 10k-node full-stack convergence run transmitted nothing");
        let wall = row.classic_ms / row.fisheye_ms;
        assert!(
            wall >= 2.0,
            "fisheye wall-clock speedup at 4096 nodes regressed to {wall:.2}× (< 2×)"
        );
        let (mean, _, reached) = row.stretch.expect("stretch measured at 4096");
        assert!(
            mean <= 1.25 && reached >= 0.90,
            "fisheye route quality at 4096 nodes regressed (stretch {mean:.3}, reached {:.1}%)",
            reached * 100.0
        );
        let flood_10k = flood_rows.iter().find(|r| r.nodes == 10_000).expect("10k flood row");
        assert!(
            flood_10k.fisheye_ms < flood_10k.classic_ms,
            "the 10k fisheye run must beat the classic flood wall"
        );
    }
}

fn render_json(rec: &[RecomputeRow], flood: &[FloodRow]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(
        "  \"benchmark\": \"incremental vs eager OLSR recompute; fisheye vs classic TC flooding\",\n",
    );
    s.push_str("  \"command\": \"cargo run --release -p trustlink-bench --bin scale\",\n");
    s.push_str(&format!(
        "  \"config\": {{ \"radio_range_m\": {RANGE}, \"mean_degree\": {MEAN_DEGREE}, \"placement\": \"random_geometric\", \"fisheye_rings\": [[2, 1], [8, 2], [255, 4]] }},\n"
    ));
    s.push_str("  \"full_stack_recompute\": [\n");
    for (i, r) in rec.iter().enumerate() {
        let sep = if i + 1 == rec.len() { "" } else { "," };
        let (eager, speedup, eager_bfs, skipped) = match (r.eager_ms, r.eager_bfs) {
            (Some(e), Some(b)) => {
                (format!("{e:.0}"), format!("{:.2}", e / r.incremental_ms), b.to_string(), "")
            }
            _ => (
                "null".to_string(),
                "null".to_string(),
                "null".to_string(),
                ", \"skipped_reason\": \"wall_time\"",
            ),
        };
        s.push_str(&format!(
            "    {{ \"nodes\": {nodes}, \"sim_secs\": {secs}, \"frames\": {frames}, \"tc_frames_forwarded\": {tc_fwd}, \"eager_wall_ms\": {eager}, \"incremental_wall_ms\": {incr:.0}, \"speedup\": {speedup}, \"eager_bfs_runs\": {eager_bfs}, \"incremental_bfs_runs\": {incr_bfs}{skipped} }}{sep}\n",
            nodes = r.nodes,
            secs = r.sim_secs,
            frames = r.frames,
            tc_fwd = r.tc_frames_forwarded,
            incr = r.incremental_ms,
            incr_bfs = r.incremental_bfs,
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"fisheye_flood\": [\n");
    for (i, r) in flood.iter().enumerate() {
        let sep = if i + 1 == flood.len() { "" } else { "," };
        let rings =
            r.fisheye_originated_per_ring.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
        let stretch = match r.stretch {
            Some((mean, max, reached)) => format!(
                "\"route_stretch_mean\": {mean:.3}, \"route_stretch_max\": {max:.2}, \"route_reached_fraction\": {reached:.3}"
            ),
            None => "\"route_stretch_mean\": null, \"route_stretch_max\": null, \"route_reached_fraction\": null, \"stretch_skipped_reason\": \"window_below_ring_cycle\"".to_string(),
        };
        s.push_str(&format!(
            "    {{ \"nodes\": {nodes}, \"sim_secs\": {secs}, \"classic_wall_ms\": {c_ms:.0}, \"fisheye_wall_ms\": {f_ms:.0}, \"wall_speedup\": {wall:.2}, \"classic_frames\": {c_fr}, \"fisheye_frames\": {f_fr}, \"classic_tc_forwarded\": {c_fwd}, \"fisheye_tc_forwarded\": {f_fwd}, \"tc_forward_reduction\": {red:.2}, \"fisheye_originated_per_ring\": [{rings}], {stretch} }}{sep}\n",
            nodes = r.nodes,
            secs = r.sim_secs,
            c_ms = r.classic_ms,
            f_ms = r.fisheye_ms,
            wall = r.classic_ms / r.fisheye_ms,
            c_fr = r.classic_frames,
            f_fr = r.fisheye_frames,
            c_fwd = r.classic_tc_forwarded,
            f_fwd = r.fisheye_tc_forwarded,
            red = r.classic_tc_forwarded as f64 / r.fisheye_tc_forwarded.max(1) as f64,
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
