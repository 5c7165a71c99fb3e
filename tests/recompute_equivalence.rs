//! Incremental-vs-eager recompute equivalence suite.
//!
//! The change-aware, debounced recompute pipeline
//! (`RecomputeMode::Incremental`, the default) must be a pure scheduling
//! optimization over the per-packet oracle (`RecomputeMode::Eager`). The
//! pinned contract, for any `(seed, configuration)`:
//!
//! 1. **Frames are byte-identical.** Every transmitted HELLO/TC/MID/data
//!    frame has the same bytes at the same instant, so traffic statistics
//!    and every reception-timed audit-log line (`HELLO_RX`, `TC_RX`,
//!    `LINK_SYM`/`LINK_ASYM`, `2HOP_ADD`, `MPR_SELECTOR_ADD`, forwarding
//!    and data-plane lines, `HELLO_TX`/`TC_TX`, …) match byte for byte,
//!    timestamps included.
//! 2. **Derived state is identical at every query point.** Effective MPR
//!    sets and routing tables agree at every pause point of a lockstep
//!    run.
//! 3. **Detection is identical.** Full detector scenarios produce the
//!    same verdict stream (times, Detect values, witnesses) and the same
//!    convictions.
//!
//! The *only* thing allowed to differ is the timing of the bookkeeping
//! log lines emitted by the recompute sweep itself — `LINK_LOST`,
//! `NBR_ADD`/`NBR_LOST`, `2HOP_LOST`, `MPR_SELECTOR_LOST`, `MPR_SET` and
//! `ROUTE_*` — which the incremental mode may emit at a later flush point
//! (but always within the same detector-analysis batch; that is what
//! keeps property 3 true). Note `MPR_SELECTOR_LOST` is excluded from the
//! byte-identical fingerprint wholesale: the line renders identically
//! from its reception-timed site (which *is* mode-identical) and its
//! sweep-timed site (which may not be), and the prefix filter cannot
//! tell them apart.

use trustlink_core::prelude::*;
use trustlink_olsr::{OlsrConfig, OlsrNode, RecomputeMode};
use trustlink_tests::assert_recordings_identical;

/// Log-line prefixes the recompute sweep emits: the one class whose
/// *timing* may legitimately differ between the modes.
const FLUSH_TIMED_PREFIXES: &[&str] = &[
    "LINK_LOST",
    "NBR_ADD",
    "NBR_LOST",
    "2HOP_LOST",
    "MPR_SELECTOR_LOST",
    "MPR_SET",
    "ROUTE_ADD",
    "ROUTE_CHG",
    "ROUTE_LOST",
];

fn is_flush_timed(line: &str) -> bool {
    FLUSH_TIMED_PREFIXES.iter().any(|p| line.starts_with(p))
}

/// Typed counterpart of [`is_flush_timed`]: the event variants the
/// recompute sweep emits.
fn is_flush_timed_record(record: &LogRecord) -> bool {
    matches!(
        record,
        LogRecord::LinkLost { .. }
            | LogRecord::NeighborAdded { .. }
            | LogRecord::NeighborLost { .. }
            | LogRecord::TwoHopLost { .. }
            | LogRecord::MprSelectorLost { .. }
            | LogRecord::MprSet { .. }
            | LogRecord::RouteAdded { .. }
            | LogRecord::RouteChanged { .. }
            | LogRecord::RouteLost { .. }
    )
}

/// The merged typed event stream restricted to reception/emission-timed
/// records: the mode-identical portion of the contract, diffed record by
/// record as the primary check.
fn decision_recorder(sim: &Simulator) -> FlightRecorder {
    FlightRecorder::from_records(
        sim.flight_recorder()
            .records()
            .iter()
            .filter(|r| !is_flush_timed_record(&r.record))
            .cloned()
            .collect(),
    )
}

/// Every node's audit log restricted to the reception/emission-timed
/// lines (timestamps included), plus the full traffic statistics: the
/// byte-identical string secondary.
fn decision_fingerprint(sim: &Simulator) -> String {
    let mut out = String::new();
    for id in sim.node_ids().collect::<Vec<_>>() {
        out.push_str(&format!("=== node {id}\n"));
        for (at, line) in sim.log(id).render_lines() {
            if !is_flush_timed(&line) {
                out.push_str(&format!("{at:?} {line}\n"));
            }
        }
    }
    out.push_str(&format!("=== stats\n{:?}\n", sim.stats()));
    out
}

fn olsr_cfg(mode: RecomputeMode) -> OlsrConfig {
    let mut cfg = OlsrConfig::fast();
    cfg.recompute = mode;
    cfg
}

/// Builds one simulator per recompute mode, runs both in lockstep chunks,
/// and asserts: effective MPR sets and routing tables equal at every
/// pause point, decision fingerprints byte-equal at the end, and the
/// incremental mode having done strictly less recompute work.
fn assert_modes_equivalent(
    label: &str,
    seed: u64,
    chunks: u32,
    chunk: SimDuration,
    build: impl Fn(u64, OlsrConfig) -> Simulator,
    script: impl Fn(&mut Simulator, u32),
) {
    let mut eager = build(seed, olsr_cfg(RecomputeMode::Eager));
    let mut incr = build(seed, olsr_cfg(RecomputeMode::Incremental));
    for step in 0..chunks {
        eager.run_for(chunk);
        incr.run_for(chunk);
        script(&mut eager, step);
        script(&mut incr, step);
        let now = eager.now();
        assert_eq!(now, incr.now(), "{label}: clocks diverged");
        for id in eager.node_ids().collect::<Vec<_>>() {
            let e = eager.app_as::<OlsrNode>(id).expect("eager olsr node");
            let i = incr.app_as::<OlsrNode>(id).expect("incremental olsr node");
            assert_eq!(
                e.effective_mprs(now),
                i.effective_mprs(now),
                "{label}: MPR sets diverged at {id}, step {step}, seed {seed}"
            );
            assert_eq!(
                e.effective_routes(now),
                i.effective_routes(now),
                "{label}: routing tables diverged at {id}, step {step}, seed {seed}"
            );
        }
    }
    assert_recordings_identical(label, &decision_recorder(&eager), &decision_recorder(&incr));
    assert_eq!(
        decision_fingerprint(&eager),
        decision_fingerprint(&incr),
        "{label}: decision fingerprints diverged for seed {seed}"
    );
    // The optimization must actually optimize: strictly fewer MPR and BFS
    // executions than the per-packet oracle.
    let sum = |sim: &Simulator| {
        let mut mpr = 0u64;
        let mut routes = 0u64;
        for id in sim.node_ids().collect::<Vec<_>>() {
            let s = sim.app_as::<OlsrNode>(id).expect("olsr node").recompute_stats();
            mpr += s.mpr_runs;
            routes += s.route_runs;
        }
        (mpr, routes)
    };
    let (e_mpr, e_routes) = sum(&eager);
    let (i_mpr, i_routes) = sum(&incr);
    assert!(
        i_mpr < e_mpr && i_routes < e_routes,
        "{label}: incremental did not reduce recompute work \
         (mpr {i_mpr} vs {e_mpr}, routes {i_routes} vs {e_routes})"
    );
}

fn mesh(seed: u64, cfg: OlsrConfig, n: usize, cols: usize, spacing: f64) -> Simulator {
    let mut sim = SimulatorBuilder::new(seed)
        .arena(Arena::new(900.0, 900.0))
        .radio(RadioConfig::unit_disk(160.0).with_loss(0.1))
        .build();
    for p in trustlink_sim::topologies::grid(n, cols, spacing) {
        sim.add_node(Box::new(OlsrNode::new(cfg.clone())), p);
    }
    sim
}

#[test]
fn stationary_mesh_is_equivalent_at_every_checkpoint() {
    for seed in [1, 7, 42] {
        assert_modes_equivalent(
            "stationary mesh",
            seed,
            8,
            SimDuration::from_millis(1500),
            |seed, cfg| mesh(seed, cfg, 25, 5, 110.0),
            |_, _| {},
        );
    }
}

#[test]
fn random_geometric_mesh_is_equivalent() {
    for seed in [3, 11] {
        assert_modes_equivalent(
            "random geometric mesh",
            seed,
            5,
            SimDuration::from_millis(1500),
            |seed, cfg| {
                let arena = trustlink_sim::topologies::arena_for_mean_degree(40, 150.0, 10.0);
                let mut placement =
                    <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 0xBEEF);
                let positions =
                    trustlink_sim::topologies::random_geometric(40, &arena, &mut placement);
                let mut sim = SimulatorBuilder::new(seed)
                    .arena(arena)
                    .radio(RadioConfig::unit_disk(150.0).with_loss(0.05))
                    .build();
                for p in positions {
                    sim.add_node(Box::new(OlsrNode::new(cfg.clone())), p);
                }
                sim
            },
            |_, _| {},
        );
    }
}

#[test]
fn random_waypoint_mobility_is_equivalent() {
    for seed in [5, 23] {
        assert_modes_equivalent(
            "random waypoint",
            seed,
            8,
            SimDuration::from_millis(1000),
            |seed, cfg| {
                let mut sim = SimulatorBuilder::new(seed)
                    .arena(Arena::new(500.0, 500.0))
                    .radio(RadioConfig::unit_disk(170.0).with_loss(0.1))
                    .mobility_tick(SimDuration::from_millis(250))
                    .build();
                for i in 0..20u32 {
                    sim.add_mobile_node(
                        Box::new(OlsrNode::new(cfg.clone())),
                        Position::new(f64::from(i % 5) * 110.0, f64::from(i / 5) * 110.0),
                        MobilityModel::RandomWaypoint {
                            speed_min: 5.0,
                            speed_max: 25.0,
                            pause: SimDuration::from_secs(1),
                        },
                    );
                }
                sim
            },
            |_, _| {},
        );
    }
}

#[test]
fn churn_kill_revive_is_equivalent() {
    assert_modes_equivalent(
        "kill/revive churn",
        13,
        6,
        SimDuration::from_millis(1500),
        |seed, cfg| mesh(seed, cfg, 25, 5, 100.0),
        |sim, step| {
            // The same churn script drives both modes: the mesh center
            // goes dark mid-run and comes back two checkpoints later.
            if step == 1 {
                sim.kill(NodeId(12));
                sim.kill(NodeId(0));
            }
            if step == 3 {
                sim.revive(NodeId(12));
            }
        },
    );
}

#[test]
fn full_detection_scenario_verdicts_are_identical() {
    let detector = DetectorConfig {
        analysis_interval: SimDuration::from_millis(500),
        investigation: trustlink_ids::investigation::InvestigationConfig {
            timeout: SimDuration::from_secs(3),
            max_witnesses: 16,
        },
        warmup: SimDuration::from_secs(10),
        trust_slot_interval: SimDuration::from_secs(3),
        ..DetectorConfig::default()
    };
    for seed in [7, 19, 31] {
        let run = |mode: RecomputeMode| {
            ScenarioBuilder::new(seed, 9)
                .topology(Topology::Grid { cols: 3, spacing: 100.0 })
                .radio(RadioConfig::unit_disk(170.0).with_loss(0.05))
                .detector(detector.clone())
                .attacker(
                    8,
                    LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent {
                        fake: vec![NodeId(99)],
                    }),
                )
                .liar(5, LiarPolicy::CoverFor { accomplices: vec![NodeId(8)] })
                .olsr(OlsrConfig::fast().with_recompute(mode))
                .duration(SimDuration::from_secs(60))
                .run()
        };
        let eager = run(RecomputeMode::Eager);
        let incr = run(RecomputeMode::Incremental);
        assert_eq!(eager.verdicts, incr.verdicts, "verdict streams diverged for seed {seed}");
        assert_eq!(
            eager.convictions_of(NodeId(8)).len(),
            incr.convictions_of(NodeId(8)).len(),
            "conviction counts diverged for seed {seed}"
        );
        assert_eq!(eager.false_positives().len(), incr.false_positives().len());
        assert_eq!(eager.total_sent(), incr.total_sent(), "frame counts diverged, seed {seed}");
        assert_eq!(eager.total_bytes(), incr.total_bytes(), "byte counts diverged, seed {seed}");
        assert_recordings_identical(
            "detection decisions",
            &decision_recorder(&eager.sim),
            &decision_recorder(&incr.sim),
        );
        assert_eq!(
            decision_fingerprint(&eager.sim),
            decision_fingerprint(&incr.sim),
            "decision fingerprints diverged for seed {seed}"
        );
    }
}

#[test]
fn incremental_differs_only_in_flush_timed_lines() {
    // Pin the *shape* of the allowed divergence: run both modes, strip
    // nothing, and check that every line present in one log but not the
    // other belongs to the flush-timed class.
    let build = |seed: u64, cfg: OlsrConfig| mesh(seed, cfg, 16, 4, 110.0);
    let mut eager = build(51, olsr_cfg(RecomputeMode::Eager));
    let mut incr = build(51, olsr_cfg(RecomputeMode::Incremental));
    eager.run_for(SimDuration::from_secs(8));
    incr.run_for(SimDuration::from_secs(8));
    // The typed and string flush-timed classifiers must agree on every
    // record either mode produced — they fence off the same class.
    for sim in [&eager, &incr] {
        for r in sim.flight_recorder().records() {
            assert_eq!(
                is_flush_timed_record(&r.record),
                is_flush_timed(&r.record.to_line()),
                "classifier mismatch on `{}`",
                r.record.to_line()
            );
        }
    }
    for id in eager.node_ids().collect::<Vec<_>>() {
        let mut e_sorted: Vec<String> = eager.log(id).lines().collect();
        let mut i_sorted: Vec<String> = incr.log(id).lines().collect();
        // The multiset of lines may differ (coalescing can skip transient
        // MPR/route states entirely); every *differing* line must be
        // flush-timed. Compare via sorted difference.
        e_sorted.sort_unstable();
        i_sorted.sort_unstable();
        let (mut x, mut y) = (0usize, 0usize);
        while x < e_sorted.len() || y < i_sorted.len() {
            match (e_sorted.get(x), i_sorted.get(y)) {
                (Some(e), Some(i)) if e == i => {
                    x += 1;
                    y += 1;
                }
                (Some(e), Some(i)) => {
                    let odd = if e < i {
                        x += 1;
                        e
                    } else {
                        y += 1;
                        i
                    };
                    assert!(
                        is_flush_timed(odd),
                        "{id}: non-recompute line differs between modes: `{odd}`"
                    );
                }
                (Some(e), None) => {
                    assert!(is_flush_timed(e), "{id}: extra eager line `{e}`");
                    x += 1;
                }
                (None, Some(i)) => {
                    assert!(is_flush_timed(i), "{id}: extra incremental line `{i}`");
                    y += 1;
                }
                (None, None) => unreachable!(),
            }
        }
    }
}
