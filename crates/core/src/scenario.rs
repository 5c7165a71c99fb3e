//! Packet-level scenarios: full networks of detector nodes with attackers
//! and liars, on the `trustlink-sim` radio.
//!
//! Where [`crate::rounds`] reproduces the paper's abstract evaluation
//! protocol, a [`ScenarioBuilder`] run validates the whole stack
//! end-to-end: OLSR converges, the attacker's forged HELLOs really trigger
//! E1/E2 in other nodes' *logs*, investigations really ride the data plane
//! around the suspect, and verdicts come out of rule (10).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use trustlink_attacks::liar::LiarPolicy;
use trustlink_attacks::spoof::LinkSpoofing;
use trustlink_olsr::types::OlsrConfig;
use trustlink_sim::{
    topologies, Arena, ChannelModel, MobilityModel, NodeId, Position, RadioConfig, ScanMode,
    SimDuration, Simulator, SimulatorBuilder,
};

use crate::detector::{DetectorConfig, DetectorNode, VerdictRecord};
use trustlink_trust::decision::Verdict;

/// Node placement for a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// A line with the given spacing in metres.
    Line {
        /// Distance between consecutive nodes.
        spacing: f64,
    },
    /// A grid with `cols` columns and the given spacing.
    Grid {
        /// Number of columns.
        cols: usize,
        /// Spacing in metres.
        spacing: f64,
    },
    /// A circle of the given radius.
    Ring {
        /// Circle radius in metres.
        radius: f64,
    },
    /// Random positions in an arena, re-sampled until connected at the
    /// radio's maximum range.
    RandomConnected {
        /// Arena width and height in metres.
        arena: (f64, f64),
    },
    /// Uniformly random positions with no connectivity re-sampling — the
    /// placement for large (10³–10⁴ node) scenarios, where the O(n²)
    /// connectivity check is unaffordable. The arena is sized for the
    /// requested mean 1-hop degree at the radio's maximum range (see
    /// [`topologies::arena_for_mean_degree`]), which makes connectivity
    /// overwhelmingly likely without ever checking it.
    RandomGeometric {
        /// Target mean number of 1-hop neighbors per node.
        mean_degree: f64,
    },
}

/// Builder for a packet-level scenario.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    seed: u64,
    n: usize,
    topology: Topology,
    radio: RadioConfig,
    olsr: OlsrConfig,
    detector: DetectorConfig,
    attackers: BTreeMap<usize, LinkSpoofing>,
    liars: BTreeMap<usize, LiarPolicy>,
    duration: SimDuration,
    scan_mode: ScanMode,
    arena_override: Option<(f64, f64)>,
    mobility: MobilityModel,
    mobility_tick: Option<SimDuration>,
    channel: Option<ChannelModel>,
}

impl ScenarioBuilder {
    /// Starts a scenario of `n` nodes with the given seed.
    pub fn new(seed: u64, n: usize) -> Self {
        ScenarioBuilder {
            seed,
            n,
            topology: Topology::Grid { cols: 4, spacing: 100.0 },
            radio: RadioConfig::unit_disk(150.0),
            olsr: OlsrConfig::fast(),
            detector: DetectorConfig::default(),
            attackers: BTreeMap::new(),
            liars: BTreeMap::new(),
            duration: SimDuration::from_secs(60),
            scan_mode: ScanMode::default(),
            arena_override: None,
            mobility: MobilityModel::Stationary,
            mobility_tick: None,
            channel: None,
        }
    }

    /// Sets the placement.
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Sets the radio.
    pub fn radio(mut self, r: RadioConfig) -> Self {
        self.radio = r;
        self
    }

    /// Sets the OLSR configuration used by every node.
    pub fn olsr(mut self, c: OlsrConfig) -> Self {
        self.olsr = c;
        self
    }

    /// Sets the detector configuration used by every node.
    pub fn detector(mut self, c: DetectorConfig) -> Self {
        self.detector = c;
        self
    }

    /// Makes node `index` a link-spoofing attacker.
    pub fn attacker(mut self, index: usize, spoofing: LinkSpoofing) -> Self {
        self.attackers.insert(index, spoofing);
        self
    }

    /// Makes node `index` answer investigations per `policy`.
    pub fn liar(mut self, index: usize, policy: LiarPolicy) -> Self {
        self.liars.insert(index, policy);
        self
    }

    /// Sets the simulated duration.
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Selects the radio's receiver-scan mode ([`ScanMode::Grid`] by
    /// default). [`ScanMode::Linear`] is the O(n) reference path kept for
    /// equivalence testing and baseline benchmarking; both replay
    /// byte-identically per seed.
    pub fn scan_mode(mut self, mode: ScanMode) -> Self {
        self.scan_mode = mode;
        self
    }

    /// Attaches a per-link [`ChannelModel`] (edge latency/loss overrides,
    /// Gilbert–Elliott burst fading). Off by default; channel-model-off
    /// runs stay byte-identical to builds without the channel layer.
    pub fn channel(mut self, model: ChannelModel) -> Self {
        self.channel = Some(model);
        self
    }

    /// Applies a mobility model to every node (topologies give the initial
    /// placement). Opens the churn scenarios the paper leaves out: the
    /// mobile detection-latency suite rides on this knob.
    pub fn mobility(mut self, model: MobilityModel) -> Self {
        self.mobility = model;
        self
    }

    /// Overrides the mobility tick granularity (default 500 ms).
    pub fn mobility_tick(mut self, tick: SimDuration) -> Self {
        self.mobility_tick = Some(tick);
        self
    }

    /// Overrides the simulation arena dimensions.
    ///
    /// By default the arena is derived from the topology (random
    /// placements use their own sampling arena; fixed placements get a
    /// generous fixed arena). Large topologies should size the arena —
    /// it bounds the spatial index — to the region the nodes actually
    /// occupy.
    pub fn arena_size(mut self, width: f64, height: f64) -> Self {
        self.arena_override = Some((width, height));
        self
    }

    fn sampling_arena(&self) -> Option<Arena> {
        match &self.topology {
            Topology::RandomConnected { arena } => Some(Arena::new(arena.0, arena.1)),
            Topology::RandomGeometric { mean_degree } => {
                Some(topologies::arena_for_mean_degree(self.n, self.radio.range, *mean_degree))
            }
            _ => None,
        }
    }

    fn positions(&self, rng: &mut StdRng) -> Vec<Position> {
        match &self.topology {
            Topology::Line { spacing } => topologies::line(self.n, *spacing),
            Topology::Grid { cols, spacing } => topologies::grid(self.n, *cols, *spacing),
            Topology::Ring { radius } => topologies::ring(self.n, *radius),
            Topology::RandomConnected { .. } => {
                let arena = self.sampling_arena().expect("random topology has an arena");
                let range = self.radio.range;
                topologies::random_connected(self.n, &arena, range, rng, 10_000)
            }
            Topology::RandomGeometric { .. } => {
                let arena = self.sampling_arena().expect("random topology has an arena");
                topologies::random_geometric(self.n, &arena, rng)
            }
        }
    }

    /// Builds and runs the scenario to completion.
    pub fn run(self) -> ScenarioReport {
        let mut placement_rng = StdRng::seed_from_u64(self.seed.wrapping_add(0x9E37));
        let positions = self.positions(&mut placement_rng);
        let arena = match self.arena_override {
            Some((w, h)) => Arena::new(w, h),
            None => self.sampling_arena().unwrap_or_else(|| Arena::new(100_000.0, 100_000.0)),
        };
        let mut builder = SimulatorBuilder::new(self.seed)
            .radio(self.radio.clone())
            .arena(arena)
            .scan_mode(self.scan_mode)
            .expected_nodes(self.n);
        if let Some(tick) = self.mobility_tick {
            builder = builder.mobility_tick(tick);
        }
        if let Some(model) = self.channel.clone() {
            builder = builder.channel_model(model);
        }
        let mut sim = builder.build();
        for (i, pos) in positions.iter().enumerate() {
            if let Some(spoofing) = self.attackers.get(&i) {
                // Attackers run the detector stack too (every node hosts the
                // IDS), but their OLSR substrate misbehaves.
                let node = DetectorNode::with_hooks(
                    self.olsr.clone(),
                    self.detector.clone(),
                    spoofing.clone(),
                );
                sim.add_mobile_node(Box::new(node), *pos, self.mobility.clone());
            } else {
                let mut cfg = self.detector.clone();
                if let Some(policy) = self.liars.get(&i) {
                    cfg.liar_policy = policy.clone();
                }
                let node = DetectorNode::new(self.olsr.clone(), cfg);
                sim.add_mobile_node(Box::new(node), *pos, self.mobility.clone());
            }
        }
        sim.run_for(self.duration);
        ScenarioReport::collect(
            sim,
            self.attackers.keys().map(|&i| NodeId(i as u32)).collect(),
            self.liars.keys().map(|&i| NodeId(i as u32)).collect(),
            self.duration,
        )
    }
}

/// Everything measured in one scenario run.
#[derive(Debug)]
pub struct ScenarioReport {
    /// The simulator in its final state (for custom inspection).
    pub sim: Simulator,
    /// The configured attackers.
    pub attackers: Vec<NodeId>,
    /// The configured liars.
    pub liars: Vec<NodeId>,
    /// `(observer, verdict)` pairs from every detector.
    pub verdicts: Vec<(NodeId, VerdictRecord)>,
    /// Simulated duration.
    pub duration: SimDuration,
}

impl ScenarioReport {
    fn collect(
        sim: Simulator,
        attackers: Vec<NodeId>,
        liars: Vec<NodeId>,
        duration: SimDuration,
    ) -> Self {
        let mut verdicts = Vec::new();
        for id in sim.node_ids().collect::<Vec<_>>() {
            let records: Option<Vec<VerdictRecord>> =
                if let Some(d) = sim.app_as::<DetectorNode>(id) {
                    Some(d.verdicts().to_vec())
                } else {
                    sim.app_as::<DetectorNode<LinkSpoofing>>(id).map(|d| d.verdicts().to_vec())
                };
            if let Some(records) = records {
                for r in records {
                    verdicts.push((id, r));
                }
            }
        }
        ScenarioReport { sim, attackers, liars, verdicts, duration }
    }

    /// Intruder verdicts against `suspect`, as `(observer, record)` pairs.
    pub fn convictions_of(&self, suspect: NodeId) -> Vec<&(NodeId, VerdictRecord)> {
        self.verdicts
            .iter()
            .filter(|(_, r)| r.suspect == suspect && r.verdict == Verdict::Intruder)
            .collect()
    }

    /// `true` when at least one node condemned `attacker`.
    pub fn detected(&self, attacker: NodeId) -> bool {
        !self.convictions_of(attacker).is_empty()
    }

    /// Earliest conviction time of `attacker`, if any.
    pub fn first_detection(&self, attacker: NodeId) -> Option<trustlink_sim::SimTime> {
        self.convictions_of(attacker).iter().map(|(_, r)| r.at).min()
    }

    /// Intruder verdicts against nodes that are *not* configured attackers
    /// (false positives).
    pub fn false_positives(&self) -> Vec<&(NodeId, VerdictRecord)> {
        self.verdicts
            .iter()
            .filter(|(_, r)| r.verdict == Verdict::Intruder && !self.attackers.contains(&r.suspect))
            .collect()
    }

    /// Total frames transmitted during the run (control + data + attack).
    pub fn total_sent(&self) -> u64 {
        self.sim.stats().total_sent()
    }

    /// Total payload bytes transmitted.
    pub fn total_bytes(&self) -> u64 {
        self.sim.stats().total_bytes_sent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustlink_attacks::spoof::SpoofVariant;

    fn test_detector() -> DetectorConfig {
        DetectorConfig {
            analysis_interval: SimDuration::from_millis(500),
            investigation: trustlink_ids::investigation::InvestigationConfig {
                timeout: SimDuration::from_secs(3),
                max_witnesses: 16,
            },
            warmup: SimDuration::from_secs(10),
            trust_slot_interval: SimDuration::from_secs(3),
            ..DetectorConfig::default()
        }
    }

    #[test]
    fn benign_grid_produces_no_convictions() {
        let report = ScenarioBuilder::new(7, 9)
            .topology(Topology::Grid { cols: 3, spacing: 100.0 })
            .detector(test_detector())
            .duration(SimDuration::from_secs(40))
            .run();
        assert!(report.false_positives().is_empty(), "{:?}", report.false_positives());
        assert!(report.verdicts.iter().all(|(_, r)| r.verdict != Verdict::Intruder));
    }

    #[test]
    fn random_geometric_scenario_runs_at_scale() {
        let report = ScenarioBuilder::new(21, 64)
            .topology(Topology::RandomGeometric { mean_degree: 10.0 })
            .detector(test_detector())
            .duration(SimDuration::from_secs(12))
            .run();
        assert_eq!(report.sim.node_count(), 64);
        assert!(report.total_sent() > 0, "a 64-node network must produce traffic");
        // The derived arena must actually contain every node.
        let ids: Vec<NodeId> = report.sim.node_ids().collect();
        assert!(ids.iter().all(|&id| {
            let p = report.sim.position(id);
            p.x.is_finite() && p.y.is_finite()
        }));
    }

    #[test]
    fn scan_modes_share_one_determinism_contract() {
        let run = |mode: ScanMode| {
            ScenarioBuilder::new(33, 9)
                .topology(Topology::Grid { cols: 3, spacing: 100.0 })
                .detector(test_detector())
                .scan_mode(mode)
                .duration(SimDuration::from_secs(20))
                .run()
        };
        let grid = run(ScanMode::Grid);
        let linear = run(ScanMode::Linear);
        assert_eq!(grid.verdicts, linear.verdicts);
        assert_eq!(grid.total_sent(), linear.total_sent());
        assert_eq!(grid.total_bytes(), linear.total_bytes());
    }

    #[test]
    fn spoofing_attacker_is_detected_in_packets() {
        // 3x3 grid, attacker in a corner advertising a phantom node.
        let report = ScenarioBuilder::new(11, 9)
            .topology(Topology::Grid { cols: 3, spacing: 100.0 })
            .detector(test_detector())
            .attacker(
                8,
                LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent {
                    fake: vec![NodeId(99)],
                }),
            )
            .duration(SimDuration::from_secs(90))
            .run();
        assert!(
            report.detected(NodeId(8)),
            "attacker escaped detection; verdicts: {:?}",
            report.verdicts
        );
        assert!(report.false_positives().is_empty());
    }

    #[test]
    fn zero_answer_probability_silences_every_witness() {
        let run = |answer_probability: f64| {
            ScenarioBuilder::new(11, 9)
                .topology(Topology::Grid { cols: 3, spacing: 100.0 })
                .detector(DetectorConfig { answer_probability, ..test_detector() })
                .attacker(
                    8,
                    LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent {
                        fake: vec![NodeId(99)],
                    }),
                )
                .duration(SimDuration::from_secs(30))
                .run()
        };
        let answered =
            |r: &ScenarioReport| r.verdicts.iter().map(|(_, v)| v.answered).sum::<usize>();
        let silent = run(0.0);
        assert!(!silent.verdicts.is_empty(), "no investigation concluded");
        assert_eq!(answered(&silent), 0);
        assert!(answered(&run(1.0)) > 0);
    }

    #[test]
    fn detection_survives_liars() {
        let report = ScenarioBuilder::new(13, 9)
            .topology(Topology::Grid { cols: 3, spacing: 100.0 })
            .detector(test_detector())
            .attacker(
                4, // center node: everyone's MPR candidate
                LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent {
                    fake: vec![NodeId(55)],
                }),
            )
            .liar(1, LiarPolicy::CoverFor { accomplices: vec![NodeId(4)] })
            .liar(3, LiarPolicy::CoverFor { accomplices: vec![NodeId(4)] })
            .duration(SimDuration::from_secs(120))
            .run();
        assert!(report.detected(NodeId(4)), "verdicts: {:?}", report.verdicts);
    }
}
