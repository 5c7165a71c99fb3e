//! Cross-crate property tests: the log pipeline (render → parse → extract)
//! and the wire pipelines (encode → decode) — OLSR frames and
//! investigation messages — under adversarial inputs.
//!
//! A pass-through global allocator remembers the largest single request
//! made on each thread, so a decoder's reservation on a hostile length
//! field can be bounded.
#![allow(unsafe_code)] // the request-size tracking allocator

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use trustlink_ids::investigation::InvestigationMessage;
use trustlink_olsr::message::{
    DataMessage, HelloMessage, LinkCode, LinkGroup, LinkType, Message, MessageBody, NeighborType,
    Packet, TcMessage,
};
use trustlink_olsr::types::SequenceNumber;
use trustlink_olsr::wire::{
    decode_packet, encode_packet, materialize_message, PacketView, WireError,
};
use trustlink_sim::record::{from_rlog_line, parse_line, LogRecord, VerdictKind, Willingness};
use trustlink_sim::{NodeId, SimDuration, SimTime};
use trustlink_trust::value::TrustValue;

thread_local! {
    /// Largest single allocation request (bytes) made by this thread since
    /// the last [`reset_largest_request`]. `const`-initialised with no
    /// destructor, so updating it from inside the allocator never
    /// allocates.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_request(size: usize) {
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

fn reset_largest_request() {
    LARGEST.with(|c| c.set(0));
}

fn largest_request() -> usize {
    LARGEST.with(Cell::get)
}

struct TrackLargest;

// SAFETY: pure pass-through to `System` plus a thread-local maximum; every
// allocator contract obligation is `System`'s own.
unsafe impl GlobalAlloc for TrackLargest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        // SAFETY: caller upholds `alloc`'s contract; forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds `dealloc`'s contract; forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        // SAFETY: caller upholds `realloc`'s contract; forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: TrackLargest = TrackLargest;

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

/// Every [`LogRecord`] variant — all 13 arms, with possibly-empty lists
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
        (node_id(), any::<u64>()).prop_map(|(originator, at)| LogRecord::TcHeard {
            originator,
            heard_at: SimTime::from_micros(at)
        }),
        node_id().prop_map(|addr| LogRecord::NeighborAdded { addr }),
        node_id().prop_map(|addr| LogRecord::NeighborLost { addr }),
        (node_id(), node_id()).prop_map(|(via, addr)| LogRecord::TwoHopAdded { via, addr }),
        (node_id(), node_id()).prop_map(|(via, addr)| LogRecord::TwoHopLost { via, addr }),
        node_list().prop_map(|mprs| LogRecord::MprSet { mprs: mprs.into() }),
        (node_id(), node_id(), any::<u32>())
            .prop_map(|(dest, next_hop, hops)| { LogRecord::RouteAdded { dest, next_hop, hops } }),
        (node_id(), node_id(), any::<u32>()).prop_map(|(dest, next_hop, hops)| {
            LogRecord::RouteChanged { dest, next_hop, hops }
        }),
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
/// address position, a Data `avoid` escape, one frame carrying several
/// messages, and the two [`unspoken_type_frames`].
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
    frames.extend(unspoken_type_frames().map(|(_, frame)| frame));
    frames
}

/// Raw frames carrying RFC 3626 message types 3 (MID) and 4 (HNA), which
/// this implementation does not speak: a real TC and a real HELLO frame
/// with the first message's type byte patched. Paired with that type.
fn unspoken_type_frames() -> [(u8, bytes::Bytes); 2] {
    let tc = MessageBody::Tc(TcMessage { ansn: 7, advertised: vec![NodeId(50), NodeId(999_999)] });
    let hello = MessageBody::Hello(HelloMessage {
        willingness: Willingness::Default,
        groups: vec![LinkGroup {
            code: LinkCode::new(LinkType::Sym, NeighborType::Sym),
            addrs: vec![NodeId(100), NodeId(999_999)],
        }],
    });
    [(3, packet_of(5, tc)), (4, packet_of(6, hello))].map(|(msg_type, packet)| {
        let mut buf = encode_packet(&packet).to_vec();
        buf[4] = msg_type; // the first message's type byte
        (msg_type, bytes::Bytes::from(buf))
    })
}

#[test]
fn unspoken_message_types_fail_validation() {
    for (msg_type, frame) in unspoken_type_frames() {
        assert_eq!(
            PacketView::parse(&frame).err(),
            Some(WireError::UnknownMessageType(msg_type)),
            "type {msg_type}"
        );
        assert_eq!(decode_packet(frame).err(), Some(WireError::UnknownMessageType(msg_type)));
    }
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

#[test]
fn tc_views_read_what_materialization_decodes() {
    // The receive path decides a new TC from its in-place view and
    // materializes it only to forward it: on every mutant that validates,
    // the view must read the ANSN and advertised ids the decoder yields,
    // and exist for TCs only.
    let mut tcs = 0u32;
    for frame in seed_frames() {
        for pos in 0..=frame.len() as u16 {
            for (op, byte) in [(0, 0x01), (0, 0x80), (0, 0xFF), (1, 0xFF), (2, 0), (3, 0)] {
                let mut buf = frame.to_vec();
                mutate(&mut buf, op, pos, byte);
                for candidate in [reseal(buf.clone()), buf] {
                    let bytes = bytes::Bytes::from(candidate);
                    let Ok(view) = PacketView::parse(&bytes) else { continue };
                    for mv in view.messages() {
                        match (mv.tc(&bytes), materialize_message(&bytes, &mv).body) {
                            (Some(v), MessageBody::Tc(tc)) => {
                                assert_eq!(v.ansn, tc.ansn, "op {op} at {pos}");
                                let read: Vec<NodeId> = v.advertised().collect();
                                assert_eq!(read, tc.advertised, "op {op} at {pos}");
                                tcs += 1;
                            }
                            (None, MessageBody::Tc(_)) => panic!("op {op} at {pos}: no TC view"),
                            (Some(_), body) => panic!("op {op} at {pos}: TC view of {body:?}"),
                            (None, _) => {}
                        }
                    }
                }
            }
        }
    }
    assert!(tcs > 100, "only {tcs} mutated TCs got past validation");
}

/// The largest single allocation `PacketView::parse` plus
/// `materialize_message` may request for a frame of
/// `len` bytes. The parse allocates nothing; each vector the decoders
/// fill is sized from the bytes actually present, never from a declared
/// count:
///
/// * TC advertised and HELLO link-group addresses:
///   `with_capacity(remaining / 2)` ids — one 4-byte `NodeId` per 2 wire bytes,
///   2 heap bytes per frame byte;
/// * HELLO link groups: not reserved, but each group takes at least 4
///   wire bytes, so doubling growth stops below `2 * len / 4` entries —
///   `size_of::<LinkGroup>() / 2` heap bytes per frame byte (16 with a
///   32-byte `LinkGroup`), the dominant factor.
///
/// A vector's first growth allocates at least 4 entries, hence the floor.
fn decode_allocation_bound(len: usize) -> usize {
    let ids = (len / 2).max(4) * std::mem::size_of::<NodeId>();
    let groups = (len / 2).max(4) * std::mem::size_of::<LinkGroup>();
    ids.max(groups)
}

#[test]
fn decoding_mutated_real_frames_allocates_linearly_in_their_length() {
    // The mutants of the sweep above, as is and resealed. Whatever a
    // mutant declares in its length or count fields, the largest
    // allocation its decode requests stays within a bound linear in the
    // bytes actually received.
    let mut materialized = 0u32;
    for frame in seed_frames() {
        for pos in 0..=frame.len() as u16 {
            for (op, byte) in [(0, 0x01), (0, 0x80), (0, 0xFF), (1, 0xFF), (2, 0), (3, 0)] {
                let mut buf = frame.to_vec();
                mutate(&mut buf, op, pos, byte);
                for candidate in [reseal(buf.clone()), buf] {
                    let len = candidate.len();
                    let bytes = bytes::Bytes::from(candidate);
                    reset_largest_request();
                    let mut messages = 0u32;
                    if let Ok(view) = PacketView::parse(&bytes) {
                        for mv in view.messages() {
                            drop(materialize_message(&bytes, &mv));
                            messages += 1;
                        }
                    }
                    let largest = largest_request();
                    let bound = decode_allocation_bound(len);
                    assert!(
                        largest <= bound,
                        "op {op} at {pos}: a {len}-byte frame requested {largest} bytes at once \
                         (bound {bound})"
                    );
                    materialized += messages;
                }
            }
        }
    }
    assert!(materialized > 100, "only {materialized} messages reached the decoders");
}

/// Real encoded investigation messages, the starting points of the
/// payload mutation properties: both message kinds, extreme case numbers,
/// narrow, boundary and escaped (wide) ids, and both answers.
fn seed_payloads() -> Vec<InvestigationMessage> {
    let wide = NodeId(999_999);
    let edge = NodeId(0xFFFE); // the largest id that still fits two bytes
    vec![
        InvestigationMessage::VerifyLinkRequest { case: 7, suspect: NodeId(4), contested: wide },
        InvestigationMessage::VerifyLinkRequest {
            case: u64::MAX,
            suspect: wide,
            contested: NodeId(0),
        },
        InvestigationMessage::VerifyLinkResponse {
            case: 0,
            suspect: edge,
            witness: NodeId(9),
            link_exists: true,
        },
        InvestigationMessage::VerifyLinkResponse {
            case: 1 << 40,
            suspect: NodeId(4),
            witness: wide,
            link_exists: false,
        },
    ]
}

/// The payload decoder's contract on a mutant: it returns instead of
/// panicking, and whatever it accepts re-encodes to bytes that decode
/// back to the same message. Returns whether the mutant was accepted.
fn check_payload_decoder_on(buf: Vec<u8>) -> Result<bool, String> {
    let Ok(msg) = InvestigationMessage::decode(bytes::Bytes::from(buf)) else { return Ok(false) };
    match InvestigationMessage::decode(msg.encode()) {
        Ok(again) if again == msg => Ok(true),
        other => Err(format!("accepted {msg:?} but its re-encoding decodes to {other:?}")),
    }
}

#[test]
fn every_single_byte_mutation_of_real_payloads_is_handled() {
    // The frame sweep's edits, applied to every position of every seed
    // investigation message.
    let (mut accepted, mut rejected) = (0u32, 0u32);
    for seed in seed_payloads() {
        let encoded = seed.encode();
        assert_eq!(
            InvestigationMessage::decode(encoded.clone()).ok(),
            Some(seed),
            "seed must decode"
        );
        for pos in 0..=encoded.len() as u16 {
            for (op, byte) in [(0, 0x01), (0, 0x80), (0, 0xFF), (1, 0xFF), (2, 0), (3, 0)] {
                let mut buf = encoded.to_vec();
                mutate(&mut buf, op, pos, byte);
                match check_payload_decoder_on(buf) {
                    Ok(true) => accepted += 1,
                    Ok(false) => rejected += 1,
                    Err(e) => panic!("{seed:?}, op {op} at {pos}: {e}"),
                }
            }
        }
    }
    assert!(accepted > 50, "only {accepted} mutants got past validation");
    assert!(rejected > 100, "only {rejected} mutants were rejected");
}

#[test]
fn former_gossip_frames_are_rejected_within_the_reservation_cap() {
    // The retired trust-gossip format (tag 3, a 65 535-entry count over a
    // body of zero, one or a few entries) is no investigation message: the
    // decoder must reject it, reserving no more than the 1 024 entries the
    // gossip decoder capped a declared count at.
    let cap = 1024 * std::mem::size_of::<(NodeId, TrustValue)>();
    for body_entries in [0usize, 1, 3] {
        let mut buf = vec![3u8, 0xFF, 0xFF];
        for i in 0..body_entries {
            buf.extend_from_slice(&(i as u16).to_be_bytes());
            buf.extend_from_slice(&5000i16.to_be_bytes());
        }
        let bytes = bytes::Bytes::from(buf);
        reset_largest_request();
        let got = InvestigationMessage::decode(bytes);
        let largest = largest_request();
        assert!(got.is_err(), "{body_entries} entries under a 65 535 count were accepted");
        assert!(largest <= cap, "decoding reserved {largest} bytes at once; the cap allows {cap}");
    }
}

proptest! {
    #[test]
    fn mutated_real_payloads_never_panic_and_accepted_ones_roundtrip(
        seed in 0..seed_payloads().len(),
        edits in proptest::collection::vec((0u8..4, any::<u16>(), any::<u8>()), 1..6),
    ) {
        let seed = &seed_payloads()[seed];
        let mut buf = seed.encode().to_vec();
        for &(op, pos, byte) in &edits {
            mutate(&mut buf, op, pos, byte);
        }
        if let Err(e) = check_payload_decoder_on(buf) {
            panic!("{seed:?} after {edits:?}: {e}");
        }
    }

    #[test]
    fn mutated_real_frames_never_panic_and_accepted_ones_roundtrip(
        frame in 0..seed_frames().len(),
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
}
