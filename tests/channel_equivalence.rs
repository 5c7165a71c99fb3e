//! Channel-model equivalence suite.
//!
//! The per-link [`ChannelModel`] (Gilbert–Elliott fading) must honor a strict oracle contract: a simulator built
//! **without** a channel model and one built with a **neutral** model are
//! byte-identical, because link-local randomness is drawn from dedicated
//! per-link RNG streams and the base radio consumes the global stream
//! first, identically, in both configurations. Fading that can never drop
//! a frame is equally inert. Only a channel that actually perturbs
//! delivery may change the recording — and then it *must*.

use trustlink_core::prelude::*;
use trustlink_olsr::{OlsrConfig, OlsrNode};
use trustlink_sim::{ChannelModel, FadingConfig};
use trustlink_tests::{assert_recordings_identical, text_fingerprint};

fn olsr_boxed() -> Box<OlsrNode> {
    Box::new(OlsrNode::new(OlsrConfig::fast()))
}

/// Runs the same lossy OLSR mesh with and without the given channel model
/// and returns both simulators.
fn mesh_pair(seed: u64, model: ChannelModel) -> (Simulator, Simulator) {
    let run = |channel: Option<ChannelModel>| {
        let mut builder = SimulatorBuilder::new(seed)
            .arena(Arena::new(700.0, 700.0))
            .radio(RadioConfig::unit_disk(160.0).with_loss(0.1));
        if let Some(m) = channel {
            builder = builder.channel_model(m);
        }
        let mut sim = builder.build();
        for p in trustlink_sim::topologies::grid(16, 4, 110.0) {
            sim.add_node(olsr_boxed(), p);
        }
        sim.run_for(SimDuration::from_secs(8));
        sim
    };
    (run(None), run(Some(model)))
}

#[test]
fn neutral_channel_model_is_byte_identical_to_none() {
    for seed in [3, 11] {
        let (plain, wrapped) = mesh_pair(seed, ChannelModel::new());
        assert_recordings_identical(
            "neutral channel",
            &plain.flight_recorder(),
            &wrapped.flight_recorder(),
        );
        assert_eq!(
            text_fingerprint(&plain),
            text_fingerprint(&wrapped),
            "seed {seed}: a neutral channel model perturbed the run"
        );
    }
}

#[test]
fn lossless_fading_is_byte_identical_to_none() {
    // The GE chain churns through its per-link RNG streams, but with both
    // state loss rates at zero it can never drop a frame — and per-link
    // streams never touch the global RNG, so the run cannot diverge.
    let quiet = ChannelModel::new().with_fading(FadingConfig {
        p_enter_bad: 0.3,
        p_exit_bad: 0.4,
        loss_good: 0.0,
        loss_bad: 0.0,
    });
    for seed in [3, 11] {
        let (plain, wrapped) = mesh_pair(seed, quiet.clone());
        assert_recordings_identical(
            "lossless fading",
            &plain.flight_recorder(),
            &wrapped.flight_recorder(),
        );
        assert_eq!(
            text_fingerprint(&plain),
            text_fingerprint(&wrapped),
            "seed {seed}: lossless fading perturbed the run"
        );
    }
}

#[test]
fn bursty_fading_actually_perturbs_the_run() {
    let bursty = ChannelModel::new().with_fading(FadingConfig::bursty(0.05, 0.25, 0.8));
    let (plain, faded) = mesh_pair(5, bursty);
    assert_ne!(
        text_fingerprint(&plain),
        text_fingerprint(&faded),
        "bursty fading should change delivery, but the run was identical"
    );
    assert!(
        faded.stats().lost_random > plain.stats().lost_random,
        "bursty fading should add losses: {} vs {}",
        faded.stats().lost_random,
        plain.stats().lost_random
    );
}

#[test]
fn full_detection_scenario_is_identical_under_neutral_channel() {
    // End-to-end: the whole detector stack, spoofer included, with the
    // channel plumbing engaged but neutral.
    let run = |with_channel: bool| {
        let mut b = ScenarioBuilder::new(17, 9)
            .topology(Topology::Grid { cols: 3, spacing: 100.0 })
            .radio(RadioConfig::unit_disk(170.0).with_loss(0.05))
            .attacker(
                8,
                LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent {
                    fake: vec![NodeId(99)],
                }),
            )
            .duration(SimDuration::from_secs(45));
        if with_channel {
            b = b.channel(ChannelModel::new());
        }
        b.run()
    };
    let plain = run(false);
    let wrapped = run(true);
    assert_eq!(
        text_fingerprint(&plain.sim),
        text_fingerprint(&wrapped.sim),
        "neutral channel perturbed a full detection scenario"
    );
    assert_eq!(plain.detected(NodeId(8)), wrapped.detected(NodeId(8)));
}
