//! Binary wire format: a faithful shrinking of RFC 3626 §3 packet/message
//! framing. Addresses are escape-encoded main addresses ([`NodeId`])
//! instead of 32-bit IPv4: a simulated node has no IP stack, only its
//! identity, and nothing in the protocol logic depends on the address
//! width. Addresses below
//! [`NodeId::WIRE_ESCAPE`] occupy the two bytes the original 16-bit
//! format used (so every historical scenario encodes byte-for-byte
//! identically); wider addresses encode as the escape marker plus the
//! full 32-bit value, which is what lets 10⁵-node scenarios exist at
//! all.
//!
//! Decoding is total: malformed input yields a [`WireError`], never a panic,
//! so forged packets from attack nodes can be thrown at the parser safely.
//!
//! Receivers read messages in place: [`PacketView::parse`] validates a
//! frame once, and [`HelloView`], [`TcView`] and [`DataView`] read a body
//! straight off the validated bytes. Each body kind has that one reader;
//! the owned [`Message`] types are built from it ([`materialize_message`])
//! only where something needs to own or change a message. A relay keeps the
//! received bytes: [`relay_message_into`] copies the message behind a new
//! packet header and changes only TTL and hop count, as RFC 3626 §3.4.1
//! retransmits it. A modify-and-forward hook decodes the message on
//! demand ([`Relay::message_mut`](crate::hooks::Relay::message_mut)), and
//! only then is the relay re-encoded.

use bytes::{BufMut, Bytes};
use trustlink_sim::record::Willingness;
use trustlink_sim::NodeId;

use crate::message::{
    decode_vtime, encode_vtime, sorted_ids_into, DataMessage, HelloMessage, LinkCode, LinkGroup,
    Message, MessageBody, Packet, TcMessage,
};
use crate::types::SequenceNumber;

/// Errors produced while decoding a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the announced structure was complete.
    Truncated,
    /// A length field is inconsistent (zero, overlapping, or past the end).
    BadLength,
    /// A message carries a type byte this implementation does not know.
    UnknownMessageType(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated packet"),
            WireError::BadLength => write!(f, "inconsistent length field"),
            WireError::UnknownMessageType(t) => write!(f, "unknown message type {t}"),
        }
    }
}

impl std::error::Error for WireError {}

const PACKET_HEADER_LEN: usize = 4;
/// Header length with a narrow (two-byte) originator; a wide originator
/// adds four bytes, discovered while parsing.
const MESSAGE_HEADER_LEN: usize = 10;
/// Bare sentinel for "no avoid constraint" in data messages, kept at the
/// historical two-byte `0xFFFF`. Because that value collides with the
/// address escape marker, the avoid field uses `0xFFFE` as *its* escape:
/// real addresses below `0xFFFE` encode bare, anything wider (including
/// `0xFFFE` itself) escapes to the 32-bit form.
const NO_AVOID: u16 = u16::MAX;
const AVOID_ESCAPE: u16 = u16::MAX - 1;

fn put_avoid(buf: &mut Vec<u8>, avoid: Option<NodeId>) {
    match avoid {
        None => buf.put_u16(NO_AVOID),
        Some(n) if n.0 < u32::from(AVOID_ESCAPE) => buf.put_u16(n.0 as u16),
        Some(n) => {
            buf.put_u16(AVOID_ESCAPE);
            buf.put_u32(n.0);
        }
    }
}

/// Walks one escape-encoded address in a raw slice during structural
/// validation; `None` when the slice ends inside the address.
#[inline]
fn skip_addr(buf: &[u8], off: usize) -> Option<usize> {
    NodeId::read_at(buf, off).map(|(_, n)| off + n)
}

/// A message the wire format cannot carry: one of its 16-bit length
/// fields (a HELLO link group's, the message's, the packet's or a data
/// payload's) would overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Oversize;

impl std::fmt::Display for Oversize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a length field overflows its 16 bits")
    }
}

impl std::error::Error for Oversize {}

/// `len` as a 16-bit length field.
#[inline]
fn len16(len: usize) -> Result<u16, Oversize> {
    u16::try_from(len).map_err(|_| Oversize)
}

const MSG_HELLO: u8 = 1;
const MSG_TC: u8 = 2;
const MSG_DATA: u8 = 200;

/// Encodes a packet to bytes.
///
/// # Panics
///
/// Panics when the packet is [`Oversize`]: a data payload, a HELLO link
/// group, a message or the packet passes `u16::MAX` bytes (none does with
/// protocol-generated traffic). A node sends through
/// [`try_encode_messages_into`], which reports it instead.
pub fn encode_packet(packet: &Packet) -> Bytes {
    let mut scratch = Vec::with_capacity(64);
    encode_packet_into(packet, &mut scratch)
}

/// Encodes a packet through a caller-owned scratch buffer.
///
/// `scratch` is cleared and refilled; reusing one buffer across packets
/// makes the encode path allocation-stable — after warm-up, the only
/// allocation per frame is the exact-size [`Bytes`] the radio needs to
/// own anyway. [`OlsrNode`](crate::node::OlsrNode) holds such a buffer
/// for every transmission.
///
/// # Panics
///
/// Same contract as [`encode_packet`].
pub fn encode_packet_into(packet: &Packet, scratch: &mut Vec<u8>) -> Bytes {
    encode_messages_into(packet.seq, &packet.messages, scratch)
}

/// Encodes a packet numbered `seq` that carries `messages`, through a
/// caller-owned scratch buffer: [`encode_packet_into`] for messages the
/// caller holds outside a [`Packet`], such as the single message of every
/// transmission an [`OlsrNode`](crate::node::OlsrNode) originates. A
/// node relays a received message with [`relay_message_into`] instead,
/// unless a hook rewrote it.
///
/// # Panics
///
/// Same contract as [`encode_packet`].
pub fn encode_messages_into(
    seq: SequenceNumber,
    messages: &[Message],
    scratch: &mut Vec<u8>,
) -> Bytes {
    try_encode_messages_into(seq, messages, scratch).expect("an encodable packet")
}

/// [`encode_messages_into`] for messages the wire may not carry: an
/// [`Oversize`] packet is an error, not a panic. A hook can grow a
/// message a node originates past what the length fields hold, and the
/// node then drops the message instead of aborting the simulation.
///
/// # Errors
///
/// [`Oversize`] when a data payload, a HELLO link group, a message or the
/// packet passes `u16::MAX` bytes; `scratch` then holds a partial
/// encoding.
pub fn try_encode_messages_into(
    seq: SequenceNumber,
    messages: &[Message],
    scratch: &mut Vec<u8>,
) -> Result<Bytes, Oversize> {
    scratch.clear();
    scratch.put_u16(0); // length placeholder
    scratch.put_u16(seq.0);
    for msg in messages {
        encode_message(scratch, msg)?;
    }
    let len = len16(scratch.len())?;
    scratch[0..2].copy_from_slice(&len.to_be_bytes());
    Ok(Bytes::copy_from_slice(scratch))
}

fn encode_message(buf: &mut Vec<u8>, msg: &Message) -> Result<(), Oversize> {
    let start = buf.len();
    buf.put_u8(msg.body.type_byte());
    buf.put_u8(encode_vtime(msg.vtime));
    buf.put_u16(0); // size placeholder
    msg.originator.put(buf);
    buf.put_u8(msg.ttl);
    buf.put_u8(msg.hop_count);
    buf.put_u16(msg.seq.0);
    match &msg.body {
        MessageBody::Hello(h) => encode_hello(buf, h)?,
        MessageBody::Tc(t) => encode_tc(buf, t),
        MessageBody::Data(d) => {
            d.src.put(buf);
            d.dst.put(buf);
            put_avoid(buf, d.avoid);
            buf.put_u16(len16(d.payload.len())?);
            buf.put_slice(&d.payload);
        }
    }
    let size = len16(buf.len() - start)?;
    buf[start + 2..start + 4].copy_from_slice(&size.to_be_bytes());
    Ok(())
}

fn encode_hello(buf: &mut Vec<u8>, h: &HelloMessage) -> Result<(), Oversize> {
    buf.put_u16(0); // reserved
    buf.put_u8(0); // htime (unused by receivers here)
    buf.put_u8(h.willingness.to_wire());
    for group in &h.groups {
        buf.put_u8(group.code.to_wire());
        buf.put_u8(0); // reserved
        let addr_bytes: usize = group.addrs.iter().map(|a| a.wire_len()).sum();
        buf.put_u16(len16(4 + addr_bytes)?);
        for a in &group.addrs {
            a.put(buf);
        }
    }
    Ok(())
}

fn encode_tc(buf: &mut Vec<u8>, t: &TcMessage) {
    buf.put_u16(t.ansn);
    buf.put_u16(0); // reserved
    for a in &t.advertised {
        a.put(buf);
    }
}

/// Decodes a packet from bytes into owned messages: [`PacketView::parse`]
/// followed by [`materialize_message`] for each message. Receive paths
/// materialize only the messages they need instead.
///
/// # Errors
///
/// Returns a [`WireError`] when the buffer is truncated, a length field is
/// inconsistent, or a message type is unknown.
pub fn decode_packet(bytes: Bytes) -> Result<Packet, WireError> {
    let view = PacketView::parse(&bytes)?;
    let messages = view.messages().map(|mv| materialize_message(&bytes, &mv)).collect();
    Ok(Packet { seq: view.seq(), messages })
}

fn decode_hello(hello: &HelloView<'_>) -> HelloMessage {
    let groups = hello.groups().map(|(code, addrs)| LinkGroup { code, addrs: addrs.to_vec() });
    HelloMessage { willingness: hello.willingness, groups: groups.collect() }
}

#[inline]
fn decode_tc(tc: &TcView<'_>) -> TcMessage {
    TcMessage { ansn: tc.ansn, advertised: tc.advertised.to_vec() }
}

/// The data message behind `view`, its payload sharing `frame`'s storage.
fn decode_data(frame: &Bytes, view: &MessageView) -> DataMessage {
    let data = view.data(frame).expect("a data view");
    let payload = view.data_payload(frame, &data);
    DataMessage { src: data.src, dst: data.dst, avoid: data.avoid, payload }
}

/// The message discriminant of a [`MessageView`], known from one header
/// byte without touching the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageType {
    /// HELLO (link sensing, §6).
    Hello,
    /// TC (topology control, §9).
    Tc,
    /// Unicast data-plane message (this reproduction's addition).
    Data,
}

/// One message's header fields plus the location of its still-encoded
/// bytes, yielded by [`PacketView::messages`].
#[derive(Debug, Clone, Copy)]
pub struct MessageView {
    /// Message discriminant.
    pub kind: MessageType,
    /// Validity time of the carried information.
    pub vtime: trustlink_sim::SimDuration,
    /// Main address of the originating node.
    pub originator: NodeId,
    /// Remaining hop budget.
    pub ttl: u8,
    /// Hops travelled so far.
    pub hop_count: u8,
    /// Message sequence number.
    pub seq: SequenceNumber,
    /// Offset of the message's first byte within the frame the view was
    /// parsed from.
    start: usize,
    /// Body byte range within that frame; the message ends with its body.
    body: (usize, usize),
}

impl MessageView {
    /// The TC body behind this view, read in place from `frame`: its ANSN
    /// and its advertised addresses, without materializing the message.
    /// `None` when the message is not a TC.
    ///
    /// # Panics
    ///
    /// `frame` must be the buffer this view was parsed from (the same
    /// contract as [`materialize_message`]); a shorter one panics.
    #[inline]
    pub fn tc<'a>(&self, frame: &'a [u8]) -> Option<TcView<'a>> {
        if self.kind != MessageType::Tc {
            return None;
        }
        let body = &frame[self.body.0..self.body.1];
        Some(TcView { ansn: be16(body, 0), advertised: AddrRun { buf: &body[4..] } })
    }

    /// The HELLO body behind this view, read in place from `frame`: its
    /// willingness and its link groups, without materializing the message.
    /// `None` when the message is not a HELLO.
    ///
    /// # Panics
    ///
    /// Same contract as [`MessageView::tc`].
    #[inline]
    pub fn hello<'a>(&self, frame: &'a [u8]) -> Option<HelloView<'a>> {
        if self.kind != MessageType::Hello {
            return None;
        }
        let body = &frame[self.body.0..self.body.1];
        // Reserved (2 bytes) and htime (1) are unused by receivers here.
        Some(HelloView { willingness: Willingness::from_wire(body[3]), groups: &body[4..] })
    }

    /// The data body behind this view, read in place from `frame`: its
    /// source, destination, avoided node and payload, without
    /// materializing the message. `None` when the message is not data.
    ///
    /// # Panics
    ///
    /// Same contract as [`MessageView::tc`].
    #[inline]
    pub fn data<'a>(&self, frame: &'a [u8]) -> Option<DataView<'a>> {
        if self.kind != MessageType::Data {
            return None;
        }
        Some(
            read_data(&frame[self.body.0..self.body.1]).expect("data body validated by PacketView"),
        )
    }

    /// The payload of `data`, the data body behind this view, as a slice
    /// of `frame` sharing its storage.
    #[inline]
    pub(crate) fn data_payload(&self, frame: &Bytes, data: &DataView<'_>) -> Bytes {
        frame.slice(self.body.1 - data.payload.len()..self.body.1)
    }
}

/// A data body read in place from a validated frame ([`MessageView::data`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataView<'a> {
    /// The node that sent the data.
    pub src: NodeId,
    /// The final destination.
    pub dst: NodeId,
    /// The node every hop routes around, if any.
    pub avoid: Option<NodeId>,
    /// The payload.
    pub payload: &'a [u8],
}

/// A HELLO body read in place from a validated frame ([`MessageView::hello`]).
#[derive(Debug, Clone)]
pub struct HelloView<'a> {
    /// Advertised willingness to carry traffic.
    pub willingness: Willingness,
    groups: &'a [u8],
}

impl<'a> HelloView<'a> {
    /// The link groups in wire order: each group's link code and its
    /// addresses, decoded as they are read.
    #[inline]
    pub fn groups(&self) -> HelloGroups<'a> {
        HelloGroups { buf: self.groups }
    }

    /// The addresses advertised with a symmetric code, ascending and
    /// without repeats, into `out` (cleared first): the owned form is
    /// [`HelloMessage::symmetric_neighbors`].
    #[inline]
    pub(crate) fn symmetric_neighbors_into(&self, out: &mut Vec<NodeId>) {
        let groups = self.groups().filter(|(code, _)| code.is_symmetric());
        sorted_ids_into(groups.flat_map(|(_, addrs)| addrs), out);
    }

    /// The addresses advertised with the ASYM link type, ascending and
    /// without repeats: [`HelloMessage::asymmetric_neighbors`] read in
    /// place.
    pub(crate) fn asymmetric_neighbors(&self) -> Vec<NodeId> {
        let mut v = Vec::new();
        let groups = self.groups().filter(|(code, _)| code.is_asymmetric());
        sorted_ids_into(groups.flat_map(|(_, addrs)| addrs), &mut v);
        v
    }
}

/// Iterator over a validated HELLO's link groups ([`HelloView::groups`]).
#[derive(Debug, Clone)]
pub struct HelloGroups<'a> {
    buf: &'a [u8],
}

impl<'a> Iterator for HelloGroups<'a> {
    type Item = (LinkCode, AddrRun<'a>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.buf.is_empty() {
            return None;
        }
        // Link code, reserved byte, then the group size, its own four
        // bytes included.
        let size = be16(self.buf, 2) as usize;
        let addrs = AddrRun { buf: &self.buf[4..size] };
        let code = LinkCode::from_wire(self.buf[0]);
        self.buf = &self.buf[size..];
        Some((code, addrs))
    }
}

/// A TC body read in place from a validated frame ([`MessageView::tc`]).
#[derive(Debug, Clone)]
pub struct TcView<'a> {
    /// Advertised neighbor sequence number.
    pub ansn: u16,
    advertised: AddrRun<'a>,
}

impl<'a> TcView<'a> {
    /// The advertised addresses in wire order, decoded as they are read.
    #[inline]
    pub fn advertised(&self) -> AddrRun<'a> {
        self.advertised.clone()
    }
}

/// Iterator over a validated run of escape-encoded addresses, decoding
/// each as it is read. A clone walks the remaining addresses on its own.
#[derive(Debug, Clone)]
pub struct AddrRun<'a> {
    buf: &'a [u8],
}

impl AddrRun<'_> {
    /// The remaining addresses, owned; allocated once, for the most the
    /// run can hold (every address in the narrow two-byte form).
    fn to_vec(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.buf.len() / 2);
        out.extend(self.clone());
        out
    }
}

impl Iterator for AddrRun<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.buf.is_empty() {
            return None;
        }
        let (id, n) = NodeId::read_at(self.buf, 0).expect("address run validated by PacketView");
        self.buf = &self.buf[n..];
        Some(id)
    }
}

#[inline]
fn be16(buf: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([buf[off], buf[off + 1]])
}

/// A fully validated, zero-materialization view over an encoded packet.
///
/// [`PacketView::parse`] is the wire format's only structural validator:
/// every byte string any decoder accepts has passed it. It allocates
/// nothing. [`PacketView::messages`] then yields header views, and only
/// the messages a receiver actually needs are decoded, individually,
/// through [`materialize_message`]. Every OLSR reception goes through
/// it: the dominant reception at scale is a flood copy that has already
/// been forwarded or suppressed, and its fate is decided entirely from
/// `(originator, seq, ttl)` — header bytes — without ever decoding the
/// body it would have thrown away. An [`OlsrNode`](crate::node::OlsrNode)
/// materializes no HELLO or TC it receives: it reads them through
/// [`MessageView::hello`] and [`MessageView::tc`], and relays with
/// [`relay_message_into`].
#[derive(Debug, Clone, Copy)]
pub struct PacketView<'a> {
    buf: &'a [u8],
}

impl<'a> PacketView<'a> {
    /// Validates `buf` as a complete packet.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when the buffer ends inside a header, an
    /// address or a declared length; [`WireError::BadLength`] when a
    /// length field is inconsistent with its content;
    /// [`WireError::UnknownMessageType`] for an unknown message type.
    #[inline]
    pub fn parse(buf: &'a [u8]) -> Result<Self, WireError> {
        if buf.len() < PACKET_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let declared = be16(buf, 0) as usize;
        if declared < PACKET_HEADER_LEN {
            return Err(WireError::BadLength);
        }
        match declared.cmp(&buf.len()) {
            std::cmp::Ordering::Greater => return Err(WireError::Truncated),
            std::cmp::Ordering::Less => return Err(WireError::BadLength),
            std::cmp::Ordering::Equal => {}
        }
        let mut off = PACKET_HEADER_LEN;
        while off < buf.len() {
            if buf.len() - off < MESSAGE_HEADER_LEN {
                return Err(WireError::Truncated);
            }
            let msg_type = buf[off];
            let size = be16(buf, off + 2) as usize;
            // Walk the escape-encoded originator to find the true header
            // length.
            let Some((_, alen)) = NodeId::read_at(buf, off + 4) else {
                return Err(WireError::Truncated);
            };
            let header_len = 4 + alen + 4;
            if buf.len() - off < header_len {
                return Err(WireError::Truncated);
            }
            if size < header_len {
                return Err(WireError::BadLength);
            }
            if size > buf.len() - off {
                return Err(WireError::Truncated);
            }
            let body = &buf[off + header_len..off + size];
            match msg_type {
                MSG_HELLO => validate_hello(body)?,
                MSG_TC => {
                    if body.len() < 4 {
                        return Err(WireError::Truncated);
                    }
                    validate_addr_run(body, 4, body.len())?;
                }
                MSG_DATA => {
                    read_data(body)?;
                }
                other => return Err(WireError::UnknownMessageType(other)),
            }
            off += size;
        }
        Ok(PacketView { buf })
    }

    /// The packet sequence number.
    #[inline]
    pub fn seq(&self) -> SequenceNumber {
        SequenceNumber(be16(self.buf, 2))
    }

    /// Header views of the packet's messages, in wire order.
    #[inline]
    pub fn messages(&self) -> MessageViewIter<'a> {
        MessageViewIter { buf: self.buf, off: PACKET_HEADER_LEN }
    }
}

fn validate_hello(body: &[u8]) -> Result<(), WireError> {
    if body.len() < 4 {
        return Err(WireError::Truncated);
    }
    let mut off = 4;
    while off < body.len() {
        if body.len() - off < 4 {
            return Err(WireError::Truncated);
        }
        let size = be16(body, off + 2) as usize;
        if size < 4 {
            return Err(WireError::BadLength);
        }
        if size > body.len() - off {
            return Err(WireError::Truncated);
        }
        validate_addr_run(body, off + 4, off + size)?;
        off += size;
    }
    Ok(())
}

/// Validates that `body[from..to]` is exactly a run of escape-encoded
/// addresses, mirroring the decoders' bounded reads.
#[inline]
fn validate_addr_run(body: &[u8], from: usize, to: usize) -> Result<(), WireError> {
    let mut off = from;
    while off < to {
        match skip_addr(&body[..to], off) {
            Some(next) => off = next,
            None => return Err(WireError::Truncated),
        }
    }
    Ok(())
}

/// Reads a data-message body: source, destination, the avoid field (a
/// two-byte id, `NO_AVOID`, or `AVOID_ESCAPE` and a four-byte id), the
/// payload length and the payload. The data layout's only reader:
/// [`PacketView::parse`] validates with it and [`MessageView::data`] reads
/// with it.
#[inline]
fn read_data(body: &[u8]) -> Result<DataView<'_>, WireError> {
    if body.len() < 8 {
        return Err(WireError::Truncated);
    }
    let (src, n) = NodeId::read_at(body, 0).ok_or(WireError::Truncated)?;
    let (dst, m) = NodeId::read_at(body, n).ok_or(WireError::Truncated)?;
    let mut off = n + m;
    if body.len() - off < 2 {
        return Err(WireError::Truncated);
    }
    let avoid = match be16(body, off) {
        NO_AVOID => None,
        AVOID_ESCAPE => {
            if body.len() - off < 6 {
                return Err(WireError::Truncated);
            }
            off += 4;
            Some(NodeId((u32::from(be16(body, off - 2)) << 16) | u32::from(be16(body, off))))
        }
        v => Some(NodeId(u32::from(v))),
    };
    off += 2;
    if body.len() - off < 2 {
        return Err(WireError::Truncated);
    }
    let plen = be16(body, off) as usize;
    off += 2;
    match plen.cmp(&(body.len() - off)) {
        std::cmp::Ordering::Greater => Err(WireError::Truncated),
        std::cmp::Ordering::Less => Err(WireError::BadLength),
        std::cmp::Ordering::Equal => Ok(DataView { src, dst, avoid, payload: &body[off..] }),
    }
}

/// Iterator over a validated packet's message headers.
#[derive(Debug)]
pub struct MessageViewIter<'a> {
    buf: &'a [u8],
    off: usize,
}

impl Iterator for MessageViewIter<'_> {
    type Item = MessageView;

    #[inline]
    fn next(&mut self) -> Option<MessageView> {
        if self.off >= self.buf.len() {
            return None;
        }
        let o = self.off;
        let buf = self.buf;
        let kind = match buf[o] {
            MSG_HELLO => MessageType::Hello,
            MSG_TC => MessageType::Tc,
            MSG_DATA => MessageType::Data,
            other => unreachable!("type {other} survived PacketView::parse"),
        };
        let size = be16(buf, o + 2) as usize;
        self.off = o + size;
        let (originator, alen) =
            NodeId::read_at(buf, o + 4).expect("originator survived PacketView::parse");
        Some(MessageView {
            start: o,
            kind,
            vtime: decode_vtime(buf[o + 1]),
            originator,
            ttl: buf[o + 4 + alen],
            hop_count: buf[o + 5 + alen],
            seq: SequenceNumber(be16(buf, o + 6 + alen)),
            body: (o + 8 + alen, o + size),
        })
    }
}

/// Decodes the single message behind `view` into an owned [`Message`],
/// sharing the frame's storage for data payloads.
///
/// # Panics
///
/// `view` must come from a successful [`PacketView::parse`] of this same
/// `frame`; the body was then already validated, so decoding cannot fail.
/// Panics if the contract is violated.
#[inline]
pub fn materialize_message(frame: &Bytes, view: &MessageView) -> Message {
    let body = match view.kind {
        MessageType::Hello => {
            MessageBody::Hello(decode_hello(&view.hello(frame).expect("a HELLO view")))
        }
        MessageType::Tc => MessageBody::Tc(decode_tc(&view.tc(frame).expect("a TC view"))),
        MessageType::Data => MessageBody::Data(decode_data(frame, view)),
    };
    Message {
        vtime: view.vtime,
        originator: view.originator,
        ttl: view.ttl,
        hop_count: view.hop_count,
        seq: view.seq,
        body,
    }
}

/// Relays the message behind `view` as the only message of a packet
/// numbered `seq`, through a caller-owned scratch buffer: the message's
/// bytes as received, behind a new packet header, with TTL decremented and
/// hop count incremented in place (RFC 3626 §3.4.1). The frame is the only
/// allocation.
///
/// For every message [`encode_messages_into`] produces, the result equals
/// re-encoding the materialized message with the two fields advanced. A
/// crafted frame the parser accepts but the encoder would not write (a
/// narrow address in the wide escaped form, a non-zero reserved field) is
/// relayed as received.
///
/// # Panics
///
/// `view` must come from a successful [`PacketView::parse`] of this same
/// `frame`, and its TTL must be at least 1.
#[inline]
pub fn relay_message_into(
    seq: SequenceNumber,
    frame: &[u8],
    view: &MessageView,
    scratch: &mut Vec<u8>,
) -> Bytes {
    let message = &frame[view.start..view.body.1];
    let len = u16::try_from(PACKET_HEADER_LEN + message.len()).expect("a frame's message fits");
    scratch.clear();
    scratch.put_u16(len);
    scratch.put_u16(seq.0);
    scratch.put_slice(message);
    // TTL and hop count sit just before the two-byte message sequence
    // number that ends the header.
    let ttl = PACKET_HEADER_LEN + (view.body.0 - view.start) - 4;
    scratch[ttl] -= 1;
    scratch[ttl + 1] = scratch[ttl + 1].wrapping_add(1);
    Bytes::copy_from_slice(scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{LinkType, NeighborType};
    use bytes::BytesMut;
    use trustlink_sim::SimDuration;

    fn sample_packet() -> Packet {
        Packet {
            seq: SequenceNumber(42),
            messages: vec![
                Message {
                    vtime: SimDuration::from_secs(6),
                    originator: NodeId(3),
                    ttl: 1,
                    hop_count: 0,
                    seq: SequenceNumber(7),
                    body: MessageBody::Hello(HelloMessage {
                        willingness: Willingness::High,
                        groups: vec![
                            LinkGroup {
                                code: LinkCode::new(LinkType::Sym, NeighborType::Sym),
                                addrs: vec![NodeId(1), NodeId(2)],
                            },
                            LinkGroup {
                                code: LinkCode::new(LinkType::Asym, NeighborType::Not),
                                addrs: vec![NodeId(9)],
                            },
                        ],
                    }),
                },
                Message {
                    vtime: SimDuration::from_secs(15),
                    originator: NodeId(3),
                    ttl: 255,
                    hop_count: 2,
                    seq: SequenceNumber(8),
                    body: MessageBody::Tc(TcMessage {
                        ansn: 100,
                        advertised: vec![NodeId(1), NodeId(4)],
                    }),
                },
                Message {
                    vtime: SimDuration::from_secs(1),
                    originator: NodeId(0),
                    ttl: 32,
                    hop_count: 1,
                    seq: SequenceNumber(11),
                    body: MessageBody::Data(DataMessage {
                        src: NodeId(0),
                        dst: NodeId(6),
                        avoid: Some(NodeId(3)),
                        payload: Bytes::from_static(b"VERIFY_LINK N3-N9"),
                    }),
                },
            ],
        }
    }

    #[test]
    fn roundtrip_full_packet() {
        let packet = sample_packet();
        let bytes = encode_packet(&packet);
        let mut decoded = decode_packet(bytes).expect("decode");
        // vtime is lossy per the RFC encoding; normalize before comparing.
        for (d, o) in decoded.messages.iter_mut().zip(&packet.messages) {
            assert!(
                (d.vtime.as_secs_f64() - o.vtime.as_secs_f64()).abs()
                    / o.vtime.as_secs_f64().max(0.0625)
                    < 0.07
            );
            d.vtime = o.vtime;
        }
        assert_eq!(decoded, packet);
    }

    #[test]
    fn encode_into_reused_scratch_matches_encode() {
        let packet = sample_packet();
        let reference = encode_packet(&packet);
        let mut scratch = Vec::new();
        // Dirty the scratch first: encode_packet_into must clear it.
        scratch.extend_from_slice(b"garbage from a previous frame");
        for _ in 0..3 {
            let frame = encode_packet_into(&packet, &mut scratch);
            assert_eq!(frame, reference);
        }
    }

    #[test]
    fn data_without_avoid_roundtrips() {
        let packet = Packet {
            seq: SequenceNumber(0),
            messages: vec![Message {
                vtime: SimDuration::from_secs(1),
                originator: NodeId(1),
                ttl: 32,
                hop_count: 0,
                seq: SequenceNumber(1),
                body: MessageBody::Data(DataMessage {
                    src: NodeId(1),
                    dst: NodeId(2),
                    avoid: None,
                    payload: Bytes::new(),
                }),
            }],
        };
        let decoded = decode_packet(encode_packet(&packet)).unwrap();
        match &decoded.messages[0].body {
            MessageBody::Data(d) => {
                assert_eq!(d.avoid, None);
                assert!(d.payload.is_empty());
            }
            other => panic!("wrong body: {other:?}"),
        }
    }

    #[test]
    fn empty_packet_roundtrips() {
        let p = Packet { seq: SequenceNumber(9), messages: vec![] };
        let decoded = decode_packet(encode_packet(&p)).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn truncated_inputs_error() {
        assert_eq!(decode_packet(Bytes::from_static(b"")), Err(WireError::Truncated));
        assert_eq!(decode_packet(Bytes::from_static(b"\x00\x08\x00")), Err(WireError::Truncated));
        // Valid header but message header cut short.
        let mut bytes = BytesMut::new();
        bytes.put_u16(9);
        bytes.put_u16(0);
        bytes.put_u8(1); // msg type, then nothing
        assert_eq!(decode_packet(bytes.freeze()), Err(WireError::Truncated));
    }

    #[test]
    fn unknown_message_type_errors() {
        let mut bytes = BytesMut::new();
        bytes.put_u16(14);
        bytes.put_u16(0);
        bytes.put_u8(99); // unknown type
        bytes.put_u8(0);
        bytes.put_u16(10);
        bytes.put_u16(0);
        bytes.put_u8(1);
        bytes.put_u8(0);
        bytes.put_u16(0);
        assert_eq!(decode_packet(bytes.freeze()), Err(WireError::UnknownMessageType(99)));
    }

    #[test]
    fn bad_message_size_errors() {
        let mut bytes = BytesMut::new();
        bytes.put_u16(14);
        bytes.put_u16(0);
        bytes.put_u8(1);
        bytes.put_u8(0);
        bytes.put_u16(5); // size < header length
        bytes.put_u16(0);
        bytes.put_u8(1);
        bytes.put_u8(0);
        bytes.put_u16(0);
        assert_eq!(decode_packet(bytes.freeze()), Err(WireError::BadLength));
    }

    #[test]
    fn hello_with_dangling_half_address_errors() {
        let mut bytes = BytesMut::new();
        bytes.put_u16(0);
        bytes.put_u16(0);
        bytes.put_u8(1); // hello
        bytes.put_u8(0);
        bytes.put_u16(MESSAGE_HEADER_LEN as u16 + 4 + 5); // body: 4 fixed + 5 group
        bytes.put_u16(0);
        bytes.put_u8(1);
        bytes.put_u8(0);
        bytes.put_u16(0);
        // hello fixed part
        bytes.put_u16(0);
        bytes.put_u8(0);
        bytes.put_u8(3);
        // group with size 5: one full address then a dangling half-address
        // byte — with escape-encoded (variable length) addresses this is a
        // truncation, not a length-arithmetic error.
        bytes.put_u8(6);
        bytes.put_u8(0);
        bytes.put_u16(5);
        bytes.put_u8(0);
        let len = bytes.len() as u16;
        bytes[0..2].copy_from_slice(&len.to_be_bytes());
        assert_eq!(decode_packet(bytes.freeze()), Err(WireError::Truncated));
    }

    #[test]
    fn decode_never_panics_on_noise() {
        // Cheap deterministic fuzz: xorshift noise buffers of many lengths.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state & 0xFF) as u8
        };
        for len in 0..200 {
            let buf: Vec<u8> = (0..len).map(|_| next()).collect();
            let _ = decode_packet(Bytes::from(buf)); // must not panic
        }
    }

    #[test]
    fn wire_error_display() {
        assert_eq!(WireError::Truncated.to_string(), "truncated packet");
        assert_eq!(WireError::UnknownMessageType(7).to_string(), "unknown message type 7");
        assert_eq!(WireError::BadLength.to_string(), "inconsistent length field");
    }
}
