//! Cross-crate property tests: the log pipeline (render → parse → extract)
//! and the wire pipeline (encode → decode) under adversarial inputs.

use proptest::prelude::*;

use trustlink_olsr::message::{
    DataMessage, HelloMessage, HnaMessage, LinkCode, LinkGroup, LinkType, Message, MessageBody,
    MidMessage, NeighborType, Packet, TcMessage,
};
use trustlink_olsr::types::{SequenceNumber, Willingness};
use trustlink_olsr::wire::{decode_packet, encode_packet};
use trustlink_sim::record::{
    from_rlog_line, parse_line, LogRecord, MessageKind, SuppressReason, VerdictKind,
};
use trustlink_sim::{NodeId, SimDuration, SimTime};

fn node_id() -> impl Strategy<Value = NodeId> {
    (0u32..1000).prop_map(NodeId)
}

fn node_list() -> impl Strategy<Value = Vec<NodeId>> {
    proptest::collection::vec(node_id(), 0..8)
}

fn willingness() -> impl Strategy<Value = Willingness> {
    prop_oneof![
        Just(Willingness::Never),
        Just(Willingness::Low),
        Just(Willingness::Default),
        Just(Willingness::High),
        Just(Willingness::Always),
    ]
}

fn message_kind() -> impl Strategy<Value = MessageKind> {
    prop_oneof![
        Just(MessageKind::Hello),
        Just(MessageKind::Tc),
        Just(MessageKind::Mid),
        Just(MessageKind::Hna),
        Just(MessageKind::Data),
    ]
}

fn suppress_reason() -> impl Strategy<Value = SuppressReason> {
    prop_oneof![
        Just(SuppressReason::Duplicate),
        Just(SuppressReason::NotMprSelector),
        Just(SuppressReason::TtlExpired),
        Just(SuppressReason::UnknownSender),
    ]
}

fn networks() -> impl Strategy<Value = Vec<(NodeId, u8)>> {
    proptest::collection::vec((node_id(), 0u8..33), 0..5)
}

fn verdict_kind() -> impl Strategy<Value = VerdictKind> {
    prop_oneof![
        Just(VerdictKind::WellBehaving),
        Just(VerdictKind::Intruder),
        Just(VerdictKind::Unrecognized),
    ]
}

/// Finite, never-NaN `f64`s whose `{:?}` rendering round-trips exactly
/// (shortest-roundtrip formatting guarantees that for *any* finite value;
/// the rational construction just keeps the magnitudes varied).
fn finite_f64() -> impl Strategy<Value = f64> {
    (any::<i32>(), 1u32..10_000).prop_map(|(n, d)| f64::from(n) / f64::from(d))
}

/// Every [`LogRecord`] variant — all 28 arms, with possibly-empty lists
/// and sparse sets — so the round-trip properties cover the whole
/// vocabulary, detector-plane records included.
fn log_record() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        (node_id(), willingness(), node_list(), node_list()).prop_map(
            |(from, willingness, sym, asym)| LogRecord::HelloRx {
                from,
                willingness,
                sym: sym.into(),
                asym: asym.into()
            }
        ),
        (node_id(), node_id(), any::<u16>(), node_list()).prop_map(
            |(originator, sender, ansn, advertised)| LogRecord::TcRx {
                originator,
                sender,
                ansn,
                advertised: advertised.into()
            }
        ),
        (node_id(), node_list()).prop_map(|(originator, aliases)| LogRecord::MidRx {
            originator,
            aliases: aliases.into()
        }),
        (node_id(), networks()).prop_map(|(originator, networks)| LogRecord::HnaRx {
            originator,
            networks: networks.into()
        }),
        node_id().prop_map(|neighbor| LogRecord::LinkSymmetric { neighbor }),
        node_id().prop_map(|neighbor| LogRecord::LinkAsymmetric { neighbor }),
        node_id().prop_map(|neighbor| LogRecord::LinkLost { neighbor }),
        node_id().prop_map(|addr| LogRecord::NeighborAdded { addr }),
        node_id().prop_map(|addr| LogRecord::NeighborLost { addr }),
        (node_id(), node_id()).prop_map(|(via, addr)| LogRecord::TwoHopAdded { via, addr }),
        (node_id(), node_id()).prop_map(|(via, addr)| LogRecord::TwoHopLost { via, addr }),
        node_list().prop_map(|mprs| LogRecord::MprSet { mprs: mprs.into() }),
        node_id().prop_map(|addr| LogRecord::MprSelectorAdded { addr }),
        node_id().prop_map(|addr| LogRecord::MprSelectorLost { addr }),
        (node_id(), node_id(), any::<u32>())
            .prop_map(|(dest, next_hop, hops)| { LogRecord::RouteAdded { dest, next_hop, hops } }),
        (node_id(), node_id(), any::<u32>()).prop_map(|(dest, next_hop, hops)| {
            LogRecord::RouteChanged { dest, next_hop, hops }
        }),
        node_id().prop_map(|dest| LogRecord::RouteLost { dest }),
        (node_list(), node_list()).prop_map(|(sym, asym)| LogRecord::HelloTx { sym, asym }),
        (any::<u16>(), node_list())
            .prop_map(|(ansn, advertised)| LogRecord::TcTx { ansn, advertised }),
        (node_id(), message_kind(), any::<u16>(), node_id()).prop_map(
            |(originator, kind, seq, from)| LogRecord::Forwarded { originator, kind, seq, from }
        ),
        (node_id(), message_kind(), any::<u16>(), suppress_reason()).prop_map(
            |(originator, kind, seq, reason)| LogRecord::ForwardSuppressed {
                originator,
                kind,
                seq,
                reason
            }
        ),
        node_id().prop_map(|src| LogRecord::DataRx { src }),
        (node_id(), node_id()).prop_map(|(dst, next_hop)| LogRecord::DataTx { dst, next_hop }),
        (node_id(), node_id(), node_id())
            .prop_map(|(src, dst, next_hop)| { LogRecord::DataForwarded { src, dst, next_hop } }),
        node_id().prop_map(|dst| LogRecord::DataNoRoute { dst }),
        node_id().prop_map(|from| LogRecord::DecodeError { from }),
        Just(LogRecord::AnalysisTick),
        (node_id(), verdict_kind(), any::<u64>(), finite_f64(), finite_f64(), 0u32..64, 0u32..64)
            .prop_map(|(suspect, verdict, case, detect, margin, witnesses, answered)| {
                LogRecord::Verdict { case, suspect, verdict, detect, margin, witnesses, answered }
            }),
    ]
}

fn hello_body() -> impl Strategy<Value = HelloMessage> {
    (
        willingness(),
        proptest::collection::vec(
            ((0u8..4), (0u8..3), proptest::collection::vec(node_id(), 0..5)),
            0..4,
        ),
    )
        .prop_map(|(willingness, raw_groups)| HelloMessage {
            willingness,
            groups: raw_groups
                .into_iter()
                .map(|(lt, nt, addrs)| LinkGroup {
                    code: LinkCode::new(LinkType::from_bits(lt), NeighborType::from_bits(nt)),
                    addrs,
                })
                .collect(),
        })
}

fn message() -> impl Strategy<Value = Message> {
    (
        node_id(),
        any::<u8>(),
        any::<u8>(),
        any::<u16>(),
        prop_oneof![
            hello_body().prop_map(MessageBody::Hello),
            (any::<u16>(), node_list())
                .prop_map(|(ansn, advertised)| MessageBody::Tc(TcMessage { ansn, advertised })),
        ],
    )
        .prop_map(|(originator, ttl, hop_count, seq, body)| Message {
            vtime: SimDuration::from_secs(6),
            originator,
            ttl,
            hop_count,
            seq: SequenceNumber(seq),
            body,
        })
}

/// Wraps one message body into a single-message packet.
fn packet_of(originator: u32, body: MessageBody) -> Packet {
    Packet {
        seq: SequenceNumber(7),
        messages: vec![Message {
            vtime: SimDuration::from_secs(6),
            originator: NodeId(originator),
            ttl: 255,
            hop_count: 1,
            seq: SequenceNumber(40),
            body,
        }],
    }
}

/// Real encoded frames of every message type, the starting points of the
/// byte-mutation properties: wide (escaped) ids such as 999 999 in every
/// address position, a Data `avoid` escape, and one frame carrying
/// several messages.
fn seed_frames() -> Vec<bytes::Bytes> {
    let wide = NodeId(999_999);
    let hello = MessageBody::Hello(HelloMessage {
        willingness: Willingness::High,
        groups: vec![
            LinkGroup {
                code: LinkCode::new(LinkType::Sym, NeighborType::Mpr),
                addrs: vec![NodeId(1), wide],
            },
            LinkGroup {
                code: LinkCode::new(LinkType::Asym, NeighborType::Not),
                addrs: vec![NodeId(9)],
            },
        ],
    });
    let tc = MessageBody::Tc(TcMessage { ansn: 300, advertised: vec![NodeId(2), wide, NodeId(4)] });
    let mid = MessageBody::Mid(MidMessage { aliases: vec![wide, NodeId(51)] });
    let hna = MessageBody::Hna(HnaMessage { networks: vec![(NodeId(100), 24), (wide, 16)] });
    let data = |avoid| {
        MessageBody::Data(DataMessage {
            src: NodeId(3),
            dst: wide,
            avoid,
            payload: bytes::Bytes::from_static(b"VERIFY_LINK N3-N9"),
        })
    };
    let mut frames: Vec<_> = [
        packet_of(3, hello.clone()),
        packet_of(999_999, tc.clone()),
        packet_of(5, mid),
        packet_of(6, hna),
        packet_of(0, data(Some(NodeId(0xFFFE)))),
        packet_of(0, data(Some(wide))),
        packet_of(0, data(None)),
    ]
    .iter()
    .map(encode_packet)
    .collect();
    let mut mixed = packet_of(3, hello);
    mixed.messages.extend(packet_of(12, tc).messages);
    frames.push(encode_packet(&mixed));
    frames
}

/// One byte-level edit of a frame, with positions taken modulo the
/// current length.
fn mutate(buf: &mut Vec<u8>, op: u8, pos: u16, byte: u8) {
    let pos = usize::from(pos);
    match op {
        0 if !buf.is_empty() => {
            let at = pos % buf.len();
            buf[at] ^= byte | 1; // a flip always changes the byte
        }
        1 => buf.insert(pos % (buf.len() + 1), byte),
        2 if !buf.is_empty() => {
            buf.remove(pos % buf.len());
        }
        3 => buf.truncate(pos % (buf.len() + 1)),
        _ => {}
    }
}

/// Rewrites the packet length and the first message's size field to match
/// the buffer, so an edit inside a body is not rejected by the header
/// length checks alone and reaches the body validators.
fn reseal(mut buf: Vec<u8>) -> Vec<u8> {
    if buf.len() >= 8 {
        let len = buf.len() as u16;
        buf[0..2].copy_from_slice(&len.to_be_bytes());
        buf[6..8].copy_from_slice(&(len - 4).to_be_bytes());
    }
    buf
}

/// The decoder's contract on hostile bytes, checked on the mutant as is
/// and resealed: it returns instead of panicking, and whatever it accepts
/// re-encodes to a frame that decodes back to the same packet. Returns how
/// many of the two variants were accepted.
fn check_decoder_on(buf: Vec<u8>) -> Result<u32, String> {
    let mut accepted = 0;
    for candidate in [reseal(buf.clone()), buf] {
        let Ok(packet) = decode_packet(bytes::Bytes::from(candidate)) else { continue };
        match decode_packet(encode_packet(&packet)) {
            Ok(again) if again == packet => accepted += 1,
            other => {
                return Err(format!("accepted {packet:?} but its re-encoding decodes to {other:?}"))
            }
        }
    }
    Ok(accepted)
}

#[test]
fn every_single_byte_mutation_of_real_frames_is_handled() {
    // Deterministic sweep: every position of every seed frame, flipped
    // three ways, with a byte inserted, deleted and truncated there.
    // Unlike uniform noise these mutants keep a plausible header, so many
    // reach the body parsers.
    let (mut accepted, mut rejected) = (0u32, 0u32);
    for frame in seed_frames() {
        for pos in 0..=frame.len() as u16 {
            for (op, byte) in [(0, 0x01), (0, 0x80), (0, 0xFF), (1, 0xFF), (2, 0), (3, 0)] {
                let mut buf = frame.to_vec();
                mutate(&mut buf, op, pos, byte);
                match check_decoder_on(buf) {
                    Ok(n) => {
                        accepted += n;
                        rejected += 2 - n;
                    }
                    Err(e) => panic!("op {op} at {pos}: {e}"),
                }
            }
        }
    }
    assert!(accepted > 100, "only {accepted} mutants got past validation");
    assert!(rejected > 100, "only {rejected} mutants were rejected");
}

proptest! {
    #[test]
    fn mutated_real_frames_never_panic_and_accepted_ones_roundtrip(
        frame in 0usize..8,
        edits in proptest::collection::vec((0u8..4, any::<u16>(), any::<u8>()), 1..6),
    ) {
        let mut buf = seed_frames()[frame].to_vec();
        for &(op, pos, byte) in &edits {
            mutate(&mut buf, op, pos, byte);
        }
        if let Err(e) = check_decoder_on(buf) {
            panic!("frame {frame} after {edits:?}: {e}");
        }
    }

    #[test]
    fn log_render_parse_roundtrip(record in log_record()) {
        let line = record.to_line();
        let parsed = parse_line(&line)
            .unwrap_or_else(|e| panic!("unparseable `{line}`: {e}"));
        prop_assert_eq!(parsed, record);
    }

    #[test]
    fn rlog_line_roundtrip(
        record in log_record(),
        at_micros in any::<u64>(),
        node in node_id(),
    ) {
        let at = SimTime::from_micros(at_micros);
        let line = record.to_rlog(at, node);
        let (parsed_at, parsed_node, parsed) = from_rlog_line(&line)
            .unwrap_or_else(|e| panic!("unparseable rlog `{line}`: {e}"));
        prop_assert_eq!(parsed_at, at);
        prop_assert_eq!(parsed_node, node);
        prop_assert_eq!(parsed, record);
    }

    #[test]
    fn parser_is_total_on_noise(chars in proptest::collection::vec(any::<char>(), 0..120)) {
        // Arbitrary garbage: the parsers must return `Err` (or a benign
        // `Ok`), never panic — one corrupted line in a saved rlog must not
        // take the replayer down with it.
        let line: String = chars.into_iter().collect();
        let _ = parse_line(&line);
        let _ = from_rlog_line(&line);
    }

    #[test]
    fn parser_is_total_on_truncated_lines(
        record in log_record(),
        at_micros in any::<u64>(),
        node in node_id(),
        cut in any::<u16>(),
    ) {
        // Rlog lines are pure ASCII, so any byte prefix is a valid slice.
        let line = record.to_rlog(SimTime::from_micros(at_micros), node);
        prop_assert!(line.is_ascii());
        let truncated = &line[..usize::from(cut) % line.len().max(1)];
        if let Ok((at, n, parsed)) = from_rlog_line(truncated) {
            // A truncation can still parse (a trailing list element cut
            // cleanly, say) — whatever it parses to must round-trip.
            let reparsed = from_rlog_line(&parsed.to_rlog(at, n)).unwrap();
            prop_assert_eq!(reparsed, (at, n, parsed));
        }
    }

    #[test]
    fn garbled_node_ids_are_rejected(
        at_micros in any::<u64>(),
        kind in 0u8..4,
        fill in any::<u32>(),
    ) {
        // Node fields outside `N0..N4294967295` (overflow, missing prefix,
        // negatives, empty) must come back as `Err`, never panic and never
        // a silently-wrapped id.
        let bogus = match kind {
            0 => format!("N{}", 4_294_967_296u64 + u64::from(fill)), // overflow
            1 => format!("x{fill}"),                                 // missing N prefix
            2 => format!("N-{}", fill % 10_000),                     // negative
            _ => String::new(),                                      // empty
        };
        let line = format!("{at_micros} {bogus} NBR_ADD addr=N1");
        prop_assert!(from_rlog_line(&line).is_err(), "accepted bogus node `{}`", bogus);
        let rec = format!("NBR_ADD addr={bogus}");
        prop_assert!(parse_line(&rec).is_err(), "accepted bogus addr `{}`", bogus);
    }

    #[test]
    fn extractor_never_panics_on_valid_records(
        records in proptest::collection::vec(log_record(), 0..64),
    ) {
        let mut extractor = trustlink_ids::EventExtractor::new();
        for (i, r) in records.iter().enumerate() {
            let _ = extractor.ingest_record(SimTime::from_secs(i as u64), r);
        }
        let _ = extractor.tick(SimTime::from_secs(1000), SimDuration::from_secs(10));
    }

    #[test]
    fn wire_roundtrip(messages in proptest::collection::vec(message(), 0..5), seq in any::<u16>()) {
        let packet = Packet { seq: SequenceNumber(seq), messages };
        let decoded = decode_packet(encode_packet(&packet)).expect("decode own encoding");
        // vtime is lossy; compare everything else.
        prop_assert_eq!(decoded.seq, packet.seq);
        prop_assert_eq!(decoded.messages.len(), packet.messages.len());
        for (d, o) in decoded.messages.iter().zip(&packet.messages) {
            prop_assert_eq!(d.originator, o.originator);
            prop_assert_eq!(d.ttl, o.ttl);
            prop_assert_eq!(d.hop_count, o.hop_count);
            prop_assert_eq!(d.seq, o.seq);
            prop_assert_eq!(&d.body, &o.body);
        }
    }

    #[test]
    fn wire_decoder_total_on_noise(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Must never panic, whatever the input.
        let _ = decode_packet(bytes::Bytes::from(bytes));
    }

    #[test]
    fn signature_engine_never_panics(
        suspects in proptest::collection::vec(0u32..8, 0..64),
        kinds in proptest::collection::vec(0u8..4, 0..64),
    ) {
        use trustlink_ids::events::{DetectionEvent, MisbehaviourReason};
        use trustlink_ids::SignatureEngine;
        let mut engine = SignatureEngine::with_builtin(SimDuration::from_secs(30));
        for (i, (&s, &k)) in suspects.iter().zip(kinds.iter()).enumerate() {
            let at = SimTime::from_secs(i as u64);
            let suspect = NodeId(s);
            let ev = match k {
                0 => DetectionEvent::MprReplaced {
                    replaced: vec![NodeId(99)],
                    replacing: vec![suspect],
                    at,
                },
                1 => DetectionEvent::MprMisbehaving {
                    mpr: suspect,
                    reason: MisbehaviourReason::TcSilence,
                    at,
                },
                2 => DetectionEvent::NotCovering { mpr: suspect, neighbor: NodeId(7), at },
                _ => DetectionEvent::CoveringNonNeighbor {
                    mpr: suspect,
                    claimed: NodeId(9),
                    at,
                },
            };
            for m in engine.observe(&ev) {
                prop_assert_eq!(m.suspect, suspect);
            }
        }
    }
}
