//! The wireless medium: propagation, loss, delay and collisions.
//!
//! The paper's trust system exists precisely because the medium is
//! unreliable — "the high level of collisions" makes even honest evidence
//! uncertain. The radio model is therefore configurable along all the axes
//! that matter to the evaluation: range, independent frame loss, delay
//! jitter and a receiver-side collision window.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::mobility::Position;
use crate::node::NodeId;
use crate::time::SimDuration;

/// Full configuration of the shared medium.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioConfig {
    /// Unit-disk range in metres: every receiver at a distance `<= range`
    /// hears the frame (the boundary itself still delivers), nothing
    /// beyond does. A range of `0.0` still reaches co-located receivers.
    pub range: f64,
    /// Independent probability that an otherwise-deliverable frame is lost
    /// (interference, checksum failure, ...). `0.0` disables.
    pub loss_probability: f64,
    /// Fixed propagation + processing delay applied to every frame.
    pub base_delay: SimDuration,
    /// Uniform extra delay in `[0, jitter]` added per receiver. Jitter keeps
    /// simultaneous receptions apart and is the standard OLSR trick to avoid
    /// synchronized floods.
    pub jitter: SimDuration,
    /// When set, two frames arriving at the same receiver closer together
    /// than this window collide: the later frame is lost. `None` disables
    /// collision modelling.
    pub collision_window: Option<SimDuration>,
}

impl RadioConfig {
    /// A loss-free unit-disk radio with 1 ms delay and 2 ms jitter.
    pub fn unit_disk(range: f64) -> Self {
        RadioConfig {
            range,
            loss_probability: 0.0,
            base_delay: SimDuration::from_millis(1),
            jitter: SimDuration::from_millis(2),
            collision_window: None,
        }
    }

    /// Sets the independent frame-loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability must be in [0,1], got {p}");
        self.loss_probability = p;
        self
    }

    /// Enables the receiver-side collision window.
    pub fn with_collisions(mut self, window: SimDuration) -> Self {
        self.collision_window = Some(window);
        self
    }

    /// Decides the fate of a frame sent from `tx` toward a receiver at `rx`.
    pub fn judge(&self, tx: Position, rx: Position, rng: &mut StdRng) -> DeliveryOutcome {
        if tx.distance(&rx) > self.range {
            return DeliveryOutcome::OutOfRange;
        }
        if self.loss_probability > 0.0 && rng.random_bool(self.loss_probability) {
            return DeliveryOutcome::Lost;
        }
        let jitter = if self.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(rng.random_range(0..=self.jitter.as_micros()))
        };
        DeliveryOutcome::Deliver(self.base_delay + jitter)
    }

    /// Decides whether a frame sent from `tx` reaches a receiver at `rx`,
    /// and with what delay. `None` means the frame is lost.
    pub fn sample_delivery(
        &self,
        tx: Position,
        rx: Position,
        rng: &mut StdRng,
    ) -> Option<SimDuration> {
        match self.judge(tx, rx, rng) {
            DeliveryOutcome::Deliver(d) => Some(d),
            DeliveryOutcome::OutOfRange | DeliveryOutcome::Lost => None,
        }
    }
}

/// The fate of one frame at one potential receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The frame arrives after the given delay.
    Deliver(SimDuration),
    /// The receiver is beyond the radio range.
    OutOfRange,
    /// The frame was dropped by fading or Bernoulli loss.
    Lost,
}

impl Default for RadioConfig {
    /// `RadioConfig::unit_disk(250.0)` — the conventional 250 m 802.11 range.
    fn default() -> Self {
        RadioConfig::unit_disk(250.0)
    }
}

/// Gilbert–Elliott two-state burst-loss parameters.
///
/// Every link runs an independent two-state Markov chain: in the *good*
/// state frames are lost with probability `loss_good`, in the *bad* (deep
/// fade) state with `loss_bad`. The chain is **frame-clocked**: it advances
/// one transition step per frame judged on the link, which is the standard
/// packet-level reading of the model. Correlated bursts emerge because a
/// link that has entered the bad state stays there for a geometrically
/// distributed number of frames (mean `1 / p_exit_bad`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FadingConfig {
    /// Probability of a good→bad transition per judged frame.
    pub p_enter_bad: f64,
    /// Probability of a bad→good transition per judged frame.
    pub p_exit_bad: f64,
    /// Frame-loss probability while the link is in the good state.
    pub loss_good: f64,
    /// Frame-loss probability while the link is in the bad state.
    pub loss_bad: f64,
}

impl FadingConfig {
    /// A classic bursty profile: lossless good state, `loss_bad` inside
    /// fades entered with probability `p_enter_bad` and left with
    /// probability `p_exit_bad` per frame.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is outside `[0, 1]`.
    pub fn bursty(p_enter_bad: f64, p_exit_bad: f64, loss_bad: f64) -> Self {
        FadingConfig { p_enter_bad, p_exit_bad, loss_good: 0.0, loss_bad }.validated()
    }

    fn validated(self) -> Self {
        for (name, v) in [
            ("p_enter_bad", self.p_enter_bad),
            ("p_exit_bad", self.p_exit_bad),
            ("loss_good", self.loss_good),
            ("loss_bad", self.loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} must be in [0,1], got {v}");
        }
        self
    }
}

/// Per-edge channel override: extra latency and extra Bernoulli loss on one
/// specific link, on top of whatever the uniform [`RadioConfig`] decides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkOverride {
    /// Extra independent loss probability on this edge.
    pub loss: f64,
    /// Extra delay added to every frame delivered over this edge.
    pub extra_delay: SimDuration,
    /// Upper bound of extra uniform per-frame delay in `[0, jitter]` on this
    /// edge, drawn from the link's private RNG stream (after the loss draw,
    /// so enabling jitter never changes which frames are lost). Zero draws
    /// nothing: a zero-jitter override is byte-identical to one built before
    /// this field existed.
    pub jitter: SimDuration,
}

impl Default for LinkOverride {
    fn default() -> Self {
        LinkOverride { loss: 0.0, extra_delay: SimDuration::ZERO, jitter: SimDuration::ZERO }
    }
}

/// Per-link channel model layered on top of the uniform [`RadioConfig`].
///
/// The uniform radio stays the byte-identical default: a simulator built
/// *without* a channel model draws exactly the same random numbers in
/// exactly the same order as before this type existed. When a model is
/// attached, the base radio still judges every frame first (range, uniform
/// loss, jitter — all from the single global RNG), and the channel then
/// applies its per-link effects using **per-link RNG streams** seeded
/// deterministically from `(link, seed)`. Link-local draws therefore never
/// perturb the global stream: a fading process on link A–B cannot change
/// what happens on link C–D.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChannelModel {
    fading: Option<FadingConfig>,
    overrides: BTreeMap<(u32, u32), LinkOverride>,
}

impl ChannelModel {
    /// An empty (neutral) model: no fading, no per-edge overrides.
    pub fn new() -> Self {
        ChannelModel::default()
    }

    /// Enables Gilbert–Elliott burst-loss fading on every link.
    ///
    /// # Panics
    ///
    /// Panics if any fading parameter is outside `[0, 1]`.
    pub fn with_fading(mut self, f: FadingConfig) -> Self {
        self.fading = Some(f.validated());
        self
    }

    /// Sets a per-edge override for the undirected link `a`–`b`.
    ///
    /// # Panics
    ///
    /// Panics if `o.loss` is outside `[0, 1]`.
    pub fn with_link(mut self, a: NodeId, b: NodeId, o: LinkOverride) -> Self {
        assert!(
            (0.0..=1.0).contains(&o.loss),
            "link override loss probability must be in [0,1], got {}",
            o.loss
        );
        self.overrides.insert(link_key(a, b), o);
        self
    }

    /// The fading profile, if enabled.
    pub fn fading(&self) -> Option<&FadingConfig> {
        self.fading.as_ref()
    }

    /// The override configured for the undirected link `a`–`b`, if any.
    pub fn link(&self, a: NodeId, b: NodeId) -> Option<&LinkOverride> {
        self.overrides.get(&link_key(a, b))
    }

    /// Whether the model changes nothing (no fading, no overrides).
    pub fn is_neutral(&self) -> bool {
        self.fading.is_none() && self.overrides.is_empty()
    }
}

/// Undirected link key: fading and overrides apply to the edge, not to a
/// direction, so both directions share one chain and one RNG stream.
fn link_key(a: NodeId, b: NodeId) -> (u32, u32) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

/// splitmix64-style mix of the simulation seed and a link key into the
/// seed of that link's private RNG stream.
///
/// Links whose endpoints both fit 16 bits pack exactly as the original
/// 16-bit formula did, so per-link streams (and everything pinned on
/// them) are unchanged for every historical scenario; wider identities
/// pack into the upper word instead.
fn link_seed(seed: u64, key: (u32, u32)) -> u64 {
    let packed = if key.0 < 1 << 16 && key.1 < 1 << 16 {
        (u64::from(key.0) << 16) | u64::from(key.1)
    } else {
        (u64::from(key.0) << 32) | u64::from(key.1)
    };
    let mut z = seed ^ packed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One link's live fading state: its private RNG stream plus the current
/// Gilbert–Elliott chain state.
#[derive(Debug, Clone, PartialEq)]
struct LinkFade {
    rng: StdRng,
    bad: bool,
}

impl LinkFade {
    fn new(seed: u64, key: (u32, u32)) -> Self {
        LinkFade { rng: StdRng::seed_from_u64(link_seed(seed, key)), bad: false }
    }
}

/// Runtime state of a [`ChannelModel`]: the per-link chains, materialized
/// lazily the first time a frame is judged on a link. Owned by the
/// simulator and maintained alongside the spatial grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelState {
    model: ChannelModel,
    seed: u64,
    links: BTreeMap<(u32, u32), LinkFade>,
}

impl ChannelState {
    /// Wraps a model with the simulation seed its link streams derive from.
    pub fn new(model: ChannelModel, seed: u64) -> Self {
        ChannelState { model, seed, links: BTreeMap::new() }
    }

    /// The configuration this state runs.
    pub fn model(&self) -> &ChannelModel {
        &self.model
    }

    /// Whether the fading chain of the undirected link `a`–`b` is currently
    /// in the bad (deep fade) state.
    pub fn in_fade(&self, a: NodeId, b: NodeId) -> bool {
        self.links.get(&link_key(a, b)).is_some_and(|l| l.bad)
    }

    /// Judges one frame: the uniform radio first (drawing from the global
    /// RNG exactly as it would without a channel model), then the per-link
    /// fading chain and edge overrides from the link's private stream.
    pub fn judge(
        &mut self,
        radio: &RadioConfig,
        from: NodeId,
        to: NodeId,
        tx: Position,
        rx: Position,
        global: &mut StdRng,
    ) -> DeliveryOutcome {
        let base = radio.judge(tx, rx, global);
        let DeliveryOutcome::Deliver(base_delay) = base else {
            return base;
        };
        let key = link_key(from, to);
        let overrides = self.model.overrides.get(&key).copied();
        let needs_state = self.model.fading.is_some()
            || overrides.is_some_and(|o| o.loss > 0.0 || !o.jitter.is_zero());
        let mut link_jitter = SimDuration::ZERO;
        if needs_state {
            let seed = self.seed;
            let link = self.links.entry(key).or_insert_with(|| LinkFade::new(seed, key));
            if let Some(f) = self.model.fading {
                let flip = if link.bad { f.p_exit_bad } else { f.p_enter_bad };
                if flip > 0.0 && link.rng.random_bool(flip) {
                    link.bad = !link.bad;
                }
                let loss = if link.bad { f.loss_bad } else { f.loss_good };
                if loss > 0.0 && link.rng.random_bool(loss) {
                    return DeliveryOutcome::Lost;
                }
            }
            if let Some(o) = overrides {
                if o.loss > 0.0 && link.rng.random_bool(o.loss) {
                    return DeliveryOutcome::Lost;
                }
                if !o.jitter.is_zero() {
                    link_jitter =
                        SimDuration::from_micros(link.rng.random_range(0..=o.jitter.as_micros()));
                }
            }
        }
        match overrides {
            Some(o) if !o.extra_delay.is_zero() || !link_jitter.is_zero() => {
                DeliveryOutcome::Deliver(base_delay + o.extra_delay + link_jitter)
            }
            _ => base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    /// Whether a frame from the origin reaches a receiver `distance`
    /// metres away along the x axis (the radio is lossless).
    fn reaches(cfg: &RadioConfig, distance: f64) -> bool {
        let origin = Position::new(0.0, 0.0);
        cfg.judge(origin, Position::new(distance, 0.0), &mut rng()) != DeliveryOutcome::OutOfRange
    }

    #[test]
    fn unit_disk_is_sharp() {
        let cfg = RadioConfig::unit_disk(100.0);
        assert!(reaches(&cfg, 0.0));
        assert!(reaches(&cfg, 100.0));
        assert!(!reaches(&cfg, 100.01));
        assert_eq!(cfg.range, 100.0);
    }

    #[test]
    fn in_range_lossless_always_delivers() {
        let cfg = RadioConfig::unit_disk(100.0);
        let mut r = rng();
        for _ in 0..100 {
            let d = cfg
                .sample_delivery(Position::new(0.0, 0.0), Position::new(50.0, 0.0), &mut r)
                .expect("in-range lossless frame must be delivered");
            assert!(d >= cfg.base_delay);
            assert!(d <= cfg.base_delay + cfg.jitter);
        }
    }

    #[test]
    fn out_of_range_never_delivers() {
        let cfg = RadioConfig::unit_disk(100.0);
        let mut r = rng();
        for _ in 0..100 {
            assert!(cfg
                .sample_delivery(Position::new(0.0, 0.0), Position::new(101.0, 0.0), &mut r)
                .is_none());
        }
    }

    #[test]
    fn loss_probability_thins_deliveries() {
        let cfg = RadioConfig::unit_disk(100.0).with_loss(0.5);
        let mut r = rng();
        let delivered = (0..10_000)
            .filter(|_| {
                cfg.sample_delivery(Position::new(0.0, 0.0), Position::new(10.0, 0.0), &mut r)
                    .is_some()
            })
            .count();
        // Binomial(10_000, 0.5): ±4σ ≈ ±200.
        assert!((4800..=5200).contains(&delivered), "delivered={delivered}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bogus_loss_rejected() {
        let _ = RadioConfig::default().with_loss(1.5);
    }

    #[test]
    fn zero_jitter_gives_fixed_delay() {
        let mut cfg = RadioConfig::unit_disk(100.0);
        cfg.jitter = SimDuration::ZERO;
        let mut r = rng();
        let d =
            cfg.sample_delivery(Position::new(0.0, 0.0), Position::new(1.0, 0.0), &mut r).unwrap();
        assert_eq!(d, cfg.base_delay);
    }

    #[test]
    fn base_delay_sets_the_delivery_floor() {
        let mut cfg = RadioConfig::unit_disk(100.0);
        cfg.base_delay = SimDuration::from_millis(7);
        cfg.jitter = SimDuration::ZERO;
        let (tx, rx) = near();
        let delay = cfg.judge(tx, rx, &mut rng());
        assert_eq!(delay, DeliveryOutcome::Deliver(SimDuration::from_millis(7)));
    }

    #[test]
    fn bogus_loss_panic_names_the_value() {
        let caught = std::panic::catch_unwind(|| RadioConfig::default().with_loss(1.5))
            .expect_err("with_loss(1.5) must panic");
        let msg = caught.downcast_ref::<String>().expect("panic carries a formatted message");
        assert!(msg.contains("1.5"), "panic message must name the offending value: {msg}");
    }

    #[test]
    fn zero_range_disk_still_reaches_colocated_receivers() {
        let cfg = RadioConfig::unit_disk(0.0);
        assert!(reaches(&cfg, 0.0));
        assert!(!reaches(&cfg, f64::EPSILON));
    }

    fn near() -> (Position, Position) {
        (Position::new(0.0, 0.0), Position::new(10.0, 0.0))
    }

    #[test]
    fn neutral_channel_changes_nothing_and_skips_link_state() {
        let cfg = RadioConfig::unit_disk(100.0);
        let (tx, rx) = near();
        let mut plain = rng();
        let mut wrapped = rng();
        let mut ch = ChannelState::new(ChannelModel::new(), 7);
        assert!(ch.model().is_neutral());
        for _ in 0..200 {
            let a = cfg.judge(tx, rx, &mut plain);
            let b = ch.judge(&cfg, NodeId(0), NodeId(1), tx, rx, &mut wrapped);
            assert_eq!(a, b);
        }
        // Neutral models never materialize per-link state.
        assert!(ch.links.is_empty());
        // And the global streams stayed in lockstep.
        assert_eq!(plain, wrapped);
    }

    #[test]
    fn quiet_fading_leaves_the_global_stream_untouched() {
        // A fading chain that can never enter the bad state and never loses
        // in the good state draws only from the per-link stream, so the
        // global RNG sequence is identical to a channel-off run.
        let cfg = RadioConfig::unit_disk(100.0);
        let (tx, rx) = near();
        let mut plain = rng();
        let mut wrapped = rng();
        let model = ChannelModel::new().with_fading(FadingConfig::bursty(0.0, 1.0, 0.9));
        let mut ch = ChannelState::new(model, 7);
        for _ in 0..200 {
            let a = cfg.judge(tx, rx, &mut plain);
            let b = ch.judge(&cfg, NodeId(0), NodeId(1), tx, rx, &mut wrapped);
            assert_eq!(a, b);
        }
        assert_eq!(plain, wrapped);
        assert!(!ch.in_fade(NodeId(0), NodeId(1)));
    }

    #[test]
    fn fading_loses_frames_in_bursts() {
        let mut cfg = RadioConfig::unit_disk(100.0);
        cfg.jitter = SimDuration::ZERO; // keep the delivery pattern pure
        let (tx, rx) = near();
        let mut g = rng();
        let model = ChannelModel::new().with_fading(FadingConfig::bursty(0.1, 0.2, 1.0));
        let mut ch = ChannelState::new(model, 7);
        let outcomes: Vec<bool> = (0..5_000)
            .map(|_| {
                matches!(
                    ch.judge(&cfg, NodeId(0), NodeId(1), tx, rx, &mut g),
                    DeliveryOutcome::Deliver(_)
                )
            })
            .collect();
        let lost = outcomes.iter().filter(|d| !**d).count();
        // Stationary bad-state share is p_enter/(p_enter+p_exit) = 1/3.
        assert!((1_000..=2_400).contains(&lost), "lost={lost}");
        // Burstiness: losses must be correlated, i.e. the number of
        // loss-runs is far below what independent losses would produce.
        let runs = outcomes.windows(2).filter(|w| w[0] && !w[1]).count();
        assert!(runs * 3 < lost, "losses are not bursty: {lost} losses in {runs} runs");
    }

    #[test]
    fn fading_chains_are_deterministic_per_link_and_seed() {
        let cfg = RadioConfig::unit_disk(100.0);
        let (tx, rx) = near();
        let model = ChannelModel::new().with_fading(FadingConfig::bursty(0.2, 0.2, 1.0));
        let run = |seed: u64| -> Vec<DeliveryOutcome> {
            let mut g = rng();
            let mut ch = ChannelState::new(model.clone(), seed);
            (0..500).map(|_| ch.judge(&cfg, NodeId(3), NodeId(8), tx, rx, &mut g)).collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn link_key_is_undirected() {
        let cfg = RadioConfig::unit_disk(100.0);
        let (tx, rx) = near();
        let model = ChannelModel::new().with_fading(FadingConfig::bursty(0.2, 0.2, 1.0));
        let mut g = rng();
        let mut ch = ChannelState::new(model, 7);
        let _ = ch.judge(&cfg, NodeId(4), NodeId(2), tx, rx, &mut g);
        // Both directions share the one chain keyed (2, 4).
        assert_eq!(ch.links.len(), 1);
        assert!(ch.links.contains_key(&(2, 4)));
        let _ = ch.judge(&cfg, NodeId(2), NodeId(4), tx, rx, &mut g);
        assert_eq!(ch.links.len(), 1);
    }

    #[test]
    fn link_override_adds_delay_and_loss() {
        let mut cfg = RadioConfig::unit_disk(100.0);
        cfg.jitter = SimDuration::ZERO;
        let (tx, rx) = near();
        let mut g = rng();
        let slow =
            LinkOverride { extra_delay: SimDuration::from_millis(40), ..LinkOverride::default() };
        let model = ChannelModel::new().with_link(NodeId(0), NodeId(1), slow);
        let mut ch = ChannelState::new(model, 7);
        match ch.judge(&cfg, NodeId(0), NodeId(1), tx, rx, &mut g) {
            DeliveryOutcome::Deliver(d) => {
                assert_eq!(d, cfg.base_delay + SimDuration::from_millis(40))
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        // A different edge is untouched.
        match ch.judge(&cfg, NodeId(0), NodeId(2), tx, rx, &mut g) {
            DeliveryOutcome::Deliver(d) => assert_eq!(d, cfg.base_delay),
            other => panic!("expected delivery, got {other:?}"),
        }
        // A lossy override thins deliveries on its edge only.
        let bad = LinkOverride { loss: 0.5, ..LinkOverride::default() };
        let model = ChannelModel::new().with_link(NodeId(0), NodeId(1), bad);
        let mut ch = ChannelState::new(model, 7);
        let delivered = (0..2_000)
            .filter(|_| {
                matches!(
                    ch.judge(&cfg, NodeId(0), NodeId(1), tx, rx, &mut g),
                    DeliveryOutcome::Deliver(_)
                )
            })
            .count();
        assert!((800..=1_200).contains(&delivered), "delivered={delivered}");
    }

    #[test]
    #[should_panic(expected = "got 1.2")]
    fn bogus_fading_parameter_rejected_with_value() {
        let _ = FadingConfig::bursty(1.2, 0.5, 0.5);
    }

    #[test]
    #[should_panic(expected = "got -0.1")]
    fn bogus_link_override_rejected_with_value() {
        let _ = ChannelModel::new().with_link(
            NodeId(0),
            NodeId(1),
            LinkOverride { loss: -0.1, ..LinkOverride::default() },
        );
    }
}
