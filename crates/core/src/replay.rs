//! Flight-recorder capture and replay of whole scenario runs.
//!
//! [`record_scenario`] turns a finished [`ScenarioReport`] into one
//! [`FlightRecorder`]: every node's typed audit log, each detector's
//! analysis-slot boundaries (as [`LogRecord::AnalysisTick`] markers placed
//! exactly where the live pass sampled the log) and every rule (10) verdict
//! (as [`LogRecord::Verdict`] records). The recording serializes to rlog
//! text and is self-contained: [`replay_recording`] re-ingests it through
//! *fresh* [`EventExtractor`]s — no simulator, no network — and reproduces
//! the live run's detection-event stream and verdict stream exactly.
//!
//! That exactness rests on two facts the tests pin:
//!
//! * the extractor's record ingest is a pure function of the record
//!   sequence, and its periodic sweep runs at the recorded tick times, so
//!   replay batching equals live batching by construction;
//! * the detector-plane records are added only here, at capture time —
//!   routing nodes never write them to their own buffers, which keeps
//!   [`trustlink_sim::LogBuffer::render_lines`] byte-identical to the
//!   pre-typed text logs.
//!
//! Capture requires [`DetectorConfig::flight_recording`] to have been on
//! during the run (otherwise the tick/verdict side history is empty and the
//! recording degrades to the bare routing log).
//!
//! [`DetectorConfig::flight_recording`]: crate::detector::DetectorConfig::flight_recording

use trustlink_attacks::spoof::LinkSpoofing;
use trustlink_ids::events::{DetectionEvent, EventExtractor};
use trustlink_sim::record::{FlightRecord, FlightRecorder, LogRecord, VerdictKind};
use trustlink_sim::{NodeId, SimDuration, SimTime, Simulator};
use trustlink_trust::decision::Verdict;

use crate::detector::{DetectorNode, VerdictRecord};
use crate::scenario::ScenarioReport;

fn kind_of(v: Verdict) -> VerdictKind {
    match v {
        Verdict::WellBehaving => VerdictKind::WellBehaving,
        Verdict::Intruder => VerdictKind::Intruder,
        Verdict::Unrecognized => VerdictKind::Unrecognized,
    }
}

fn verdict_of(k: VerdictKind) -> Verdict {
    match k {
        VerdictKind::WellBehaving => Verdict::WellBehaving,
        VerdictKind::Intruder => Verdict::Intruder,
        VerdictKind::Unrecognized => Verdict::Unrecognized,
    }
}

/// The `(when, cursor)` analysis-slot history of the detector on `id`, for
/// either the faithful or the attacker-hooked variant (empty unless flight
/// recording was on).
pub fn analysis_ticks_of(sim: &Simulator, id: NodeId) -> Vec<(SimTime, usize)> {
    if let Some(d) = sim.app_as::<DetectorNode>(id) {
        d.analysis_ticks().to_vec()
    } else if let Some(d) = sim.app_as::<DetectorNode<LinkSpoofing>>(id) {
        d.analysis_ticks().to_vec()
    } else {
        Vec::new()
    }
}

/// The live extracted-event history of the detector on `id` (empty unless
/// flight recording was on).
pub fn extracted_events_of(sim: &Simulator, id: NodeId) -> Vec<DetectionEvent> {
    if let Some(d) = sim.app_as::<DetectorNode>(id) {
        d.extracted_events().to_vec()
    } else if let Some(d) = sim.app_as::<DetectorNode<LinkSpoofing>>(id) {
        d.extracted_events().to_vec()
    } else {
        Vec::new()
    }
}

/// Captures a finished scenario into one replayable [`FlightRecorder`].
///
/// Per node, the stream is its audit log in log order with an
/// [`LogRecord::AnalysisTick`] inserted at every recorded cursor boundary
/// (so a replayer samples the log exactly where the live detector did),
/// followed by the node's own [`LogRecord::Verdict`] records.
pub fn record_scenario(report: &ScenarioReport) -> FlightRecorder {
    let sim = &report.sim;
    let mut records = Vec::new();
    for id in sim.node_ids().collect::<Vec<_>>() {
        let entries = sim.log(id).entries();
        let mut ticks = analysis_ticks_of(sim, id).into_iter().peekable();
        for (pos, (at, record)) in entries.iter().enumerate() {
            while ticks.peek().is_some_and(|(_, cursor)| *cursor <= pos) {
                let (tick_at, _) = ticks.next().expect("peeked");
                records.push(FlightRecord {
                    at: tick_at,
                    node: id,
                    record: LogRecord::AnalysisTick,
                });
            }
            records.push(FlightRecord { at: *at, node: id, record: record.clone() });
        }
        for (tick_at, _) in ticks {
            records.push(FlightRecord { at: tick_at, node: id, record: LogRecord::AnalysisTick });
        }
        for (observer, v) in &report.verdicts {
            if *observer != id {
                continue;
            }
            records.push(FlightRecord {
                at: v.at,
                node: id,
                record: LogRecord::Verdict {
                    case: v.case,
                    suspect: v.suspect,
                    verdict: kind_of(v.verdict),
                    detect: v.detect,
                    margin: v.margin,
                    witnesses: v.witnesses as u32,
                    answered: v.answered as u32,
                },
            });
        }
    }
    FlightRecorder::from_records(records)
}

/// What [`replay_recording`] reconstructs from a recording.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayReport {
    /// Per replayed node: every detection event a fresh extractor produces
    /// from that node's recorded stream, in extraction order. Nodes that
    /// produced no events are omitted.
    pub node_events: Vec<(NodeId, Vec<DetectionEvent>)>,
    /// The recorded verdict stream, as `(observer, record)` pairs in
    /// recording order.
    pub verdicts: Vec<(NodeId, VerdictRecord)>,
}

/// Replays a recording through fresh [`EventExtractor`]s.
///
/// For each node, records are fed in stream order: routing records via
/// [`EventExtractor::ingest_record`], each [`LogRecord::AnalysisTick`]
/// triggering the periodic sweep with `tc_silence_after` (pass the same
/// allowance the live detector used: `tc_interval × 4 × near_stride`).
/// Ingest stops at the node's last tick — trailing records were never seen
/// by the live analysis either. [`LogRecord::Verdict`] records are
/// collected, not ingested.
pub fn replay_recording(recorder: &FlightRecorder, tc_silence_after: SimDuration) -> ReplayReport {
    let mut nodes: Vec<NodeId> = recorder.records().iter().map(|r| r.node).collect();
    nodes.sort_unstable();
    nodes.dedup();

    let mut report = ReplayReport::default();
    for node in nodes {
        let stream: Vec<&FlightRecord> = recorder.records_of(node).collect();
        let last_tick = stream
            .iter()
            .rposition(|r| matches!(r.record, LogRecord::AnalysisTick))
            .map_or(0, |i| i + 1);
        let mut extractor = EventExtractor::new();
        let mut events = Vec::new();
        for r in &stream[..last_tick] {
            match &r.record {
                LogRecord::AnalysisTick => {
                    events.extend(extractor.tick(r.at, tc_silence_after));
                }
                LogRecord::Verdict { .. } => {}
                record => events.extend(extractor.ingest_record(r.at, record)),
            }
        }
        if !events.is_empty() {
            report.node_events.push((node, events));
        }
        for r in &stream {
            if let LogRecord::Verdict {
                case,
                suspect,
                verdict,
                detect,
                margin,
                witnesses,
                answered,
            } = r.record
            {
                report.verdicts.push((
                    node,
                    VerdictRecord {
                        case,
                        suspect,
                        verdict: verdict_of(verdict),
                        detect,
                        margin,
                        witnesses: witnesses as usize,
                        answered: answered as usize,
                        at: r.at,
                    },
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustlink_sim::record::Willingness;

    #[test]
    fn verdict_kind_conversion_is_a_bijection() {
        for v in [Verdict::WellBehaving, Verdict::Intruder, Verdict::Unrecognized] {
            assert_eq!(verdict_of(kind_of(v)), v);
        }
    }

    #[test]
    fn replay_batches_at_tick_markers_and_skips_trailing_records() {
        let mut rec = FlightRecorder::new();
        let n = NodeId(0);
        // An unknown-neighbor claim before the first tick must be extracted;
        // one after the last tick must not (live analysis never saw it).
        rec.push(
            SimTime::from_secs(1),
            n,
            LogRecord::HelloRx {
                from: NodeId(1),
                willingness: Willingness::Default,
                sym: Box::from([NodeId(99)]),
                asym: Box::from([]),
            },
        );
        rec.push(SimTime::from_secs(2), n, LogRecord::AnalysisTick);
        rec.push(
            SimTime::from_secs(3),
            n,
            LogRecord::HelloRx {
                from: NodeId(1),
                willingness: Willingness::Default,
                sym: Box::from([NodeId(98)]),
                asym: Box::from([]),
            },
        );
        let replay = replay_recording(&rec, SimDuration::from_secs(1000));
        assert_eq!(replay.node_events.len(), 1);
        let (node, events) = &replay.node_events[0];
        assert_eq!(*node, n);
        assert_eq!(events.len(), 1, "only the pre-tick claim is extracted: {events:?}");
        assert!(replay.verdicts.is_empty());
    }

    #[test]
    fn replay_collects_verdicts_verbatim() {
        let mut rec = FlightRecorder::new();
        rec.push(SimTime::from_secs(5), NodeId(2), LogRecord::AnalysisTick);
        rec.push(
            SimTime::from_secs(5),
            NodeId(2),
            LogRecord::Verdict {
                case: 7,
                suspect: NodeId(8),
                verdict: VerdictKind::Intruder,
                detect: -0.8125,
                margin: 0.25,
                witnesses: 3,
                answered: 2,
            },
        );
        let replay = replay_recording(&rec, SimDuration::from_secs(1000));
        assert_eq!(
            replay.verdicts,
            vec![(
                NodeId(2),
                VerdictRecord {
                    case: 7,
                    suspect: NodeId(8),
                    verdict: Verdict::Intruder,
                    detect: -0.8125,
                    margin: 0.25,
                    witnesses: 3,
                    answered: 2,
                    at: SimTime::from_secs(5),
                }
            )]
        );
    }
}
