//! OLSR message types (RFC 3626 §3 framing, §6 HELLO, §9 TC) plus
//! the non-RFC `Data` message that carries the detector's investigation
//! traffic (documented substitution: the paper runs its investigation
//! request/answer exchange over whatever transport the MANET offers; we
//! give it a minimal unicast data plane inside the OLSR packet format).

use trustlink_sim::record::Willingness;
use trustlink_sim::{NodeId, SimDuration};

use crate::types::SequenceNumber;

/// Link type of a HELLO link code (RFC 3626 §6.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LinkType {
    /// No specific information about the link.
    Unspec = 0,
    /// The link is asymmetric: we hear them, handshake incomplete.
    Asym = 1,
    /// The link is symmetric: verified bidirectional.
    Sym = 2,
    /// The link has been lost.
    Lost = 3,
}

impl LinkType {
    /// Decodes the two low bits of a link code.
    #[inline]
    pub fn from_bits(b: u8) -> LinkType {
        match b & 0b11 {
            0 => LinkType::Unspec,
            1 => LinkType::Asym,
            2 => LinkType::Sym,
            _ => LinkType::Lost,
        }
    }
}

/// Neighbor type of a HELLO link code (RFC 3626 §6.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum NeighborType {
    /// Not a symmetric neighbor.
    Not = 0,
    /// A symmetric neighbor.
    Sym = 1,
    /// A symmetric neighbor that has been selected as MPR.
    Mpr = 2,
}

impl NeighborType {
    /// Decodes bits 2-3 of a link code.
    #[inline]
    pub fn from_bits(b: u8) -> NeighborType {
        match b & 0b11 {
            0 => NeighborType::Not,
            1 => NeighborType::Sym,
            _ => NeighborType::Mpr,
        }
    }
}

/// A HELLO link code: `(neighbor type << 2) | link type`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkCode {
    /// The link-sensing half of the code.
    pub link: LinkType,
    /// The neighbor-relationship half of the code.
    pub neighbor: NeighborType,
}

impl LinkCode {
    /// Builds a code from its halves.
    pub const fn new(link: LinkType, neighbor: NeighborType) -> Self {
        LinkCode { link, neighbor }
    }

    /// Wire encoding.
    pub fn to_wire(self) -> u8 {
        ((self.neighbor as u8) << 2) | (self.link as u8)
    }

    /// Wire decoding (never fails: unknown bits collapse to the nearest
    /// defined value).
    #[inline]
    pub fn from_wire(b: u8) -> Self {
        LinkCode { link: LinkType::from_bits(b), neighbor: NeighborType::from_bits(b >> 2) }
    }

    /// `true` when the code advertises a symmetric relationship — the part
    /// of a HELLO a link-spoofing attacker falsifies.
    #[inline]
    pub fn is_symmetric(self) -> bool {
        self.link == LinkType::Sym || self.neighbor != NeighborType::Not
    }

    /// `true` when the code lists a neighbor heard but not yet verified
    /// bidirectional: the ASYM link type without a symmetric neighbor type.
    ///
    /// With [`is_symmetric`](Self::is_symmetric), the one definition of
    /// both sets that [`HelloMessage`] and
    /// [`HelloView`](crate::wire::HelloView) read.
    #[inline]
    pub fn is_asymmetric(self) -> bool {
        !self.is_symmetric() && self.link == LinkType::Asym
    }
}

/// Collects `ids` into `out` (cleared first), ascending and without
/// repeats: the form of a HELLO's symmetric and asymmetric sets.
#[inline]
pub(crate) fn sorted_ids_into(ids: impl Iterator<Item = NodeId>, out: &mut Vec<NodeId>) {
    out.clear();
    out.extend(ids);
    out.sort_unstable();
    out.dedup();
}

/// One link group inside a HELLO: a link code and the neighbor addresses it
/// applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkGroup {
    /// The code describing every address in the group.
    pub code: LinkCode,
    /// The advertised neighbor interfaces.
    pub addrs: Vec<NodeId>,
}

/// A HELLO message (RFC 3626 §6.1): the local link/neighbor view a node
/// advertises to its 1-hop neighborhood. This is the message the paper's
/// link-spoofing attacker tampers with.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HelloMessage {
    /// Advertised willingness to carry traffic.
    pub willingness: Willingness,
    /// Link groups (addresses grouped by link code).
    pub groups: Vec<LinkGroup>,
}

impl HelloMessage {
    /// All addresses advertised with a symmetric code (`SYM`/`MPR` neighbor
    /// type or `SYM` link type) — the `NS'` set of the paper's Expressions
    /// (1)–(3).
    pub fn symmetric_neighbors(&self) -> Vec<NodeId> {
        self.neighbors_where(LinkCode::is_symmetric)
    }

    /// Addresses advertised with the ASYM link type (heard but not yet
    /// verified bidirectional).
    pub fn asymmetric_neighbors(&self) -> Vec<NodeId> {
        self.neighbors_where(LinkCode::is_asymmetric)
    }

    fn neighbors_where(&self, code: fn(LinkCode) -> bool) -> Vec<NodeId> {
        let mut v = Vec::new();
        let groups = self.groups.iter().filter(|g| code(g.code));
        sorted_ids_into(groups.flat_map(|g| g.addrs.iter().copied()), &mut v);
        v
    }
}

/// A Topology Control message (RFC 3626 §9.1): an MPR advertises the set of
/// nodes that selected it (its *advertised neighbor set*), stamped with an
/// Advertised Neighbor Sequence Number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcMessage {
    /// Advertised Neighbor Sequence Number.
    pub ansn: u16,
    /// The MPR-selector addresses being advertised.
    pub advertised: Vec<NodeId>,
}

/// The unicast data-plane message (non-RFC, see module docs): investigation
/// requests/answers and any application traffic ride in these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataMessage {
    /// Source main address.
    pub src: NodeId,
    /// Destination main address.
    pub dst: NodeId,
    /// A node every forwarder must route around, if possible — the paper's
    /// requirement that investigation traffic avoid the suspicious MPR.
    pub avoid: Option<NodeId>,
    /// Application payload.
    pub payload: bytes::Bytes,
}

/// The body of an OLSR message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessageBody {
    /// HELLO (type 1).
    Hello(HelloMessage),
    /// TC (type 2).
    Tc(TcMessage),
    /// Unicast data (type 200, outside the RFC-reserved range).
    Data(DataMessage),
}

impl MessageBody {
    /// The wire message-type byte.
    pub fn type_byte(&self) -> u8 {
        match self {
            MessageBody::Hello(_) => 1,
            MessageBody::Tc(_) => 2,
            MessageBody::Data(_) => 200,
        }
    }
}

/// The common message header (RFC 3626 §3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Validity time of the carried information.
    pub vtime: SimDuration,
    /// Main address of the message's creator.
    pub originator: NodeId,
    /// Remaining hops the message may travel.
    pub ttl: u8,
    /// Hops travelled so far.
    pub hop_count: u8,
    /// Originator-scoped message sequence number.
    pub seq: SequenceNumber,
    /// The typed body.
    pub body: MessageBody,
}

/// An OLSR packet: one transmission, carrying one or more messages
/// (RFC 3626 §3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Per-interface packet sequence number.
    pub seq: SequenceNumber,
    /// The carried messages.
    pub messages: Vec<Message>,
}

/// Encodes a validity time into the RFC 3626 §18.3 mantissa/exponent byte:
/// `C·(1 + a/16)·2^b` with `C = 1/16` s, four bits each.
///
/// The encoding is lossy (≈ 6 % worst-case relative error) — exactly like
/// the real protocol.
pub fn encode_vtime(d: SimDuration) -> u8 {
    const C: f64 = 0.0625; // 1/16 s
    let t = d.as_secs_f64().max(C);
    // Find the largest b with C·2^b <= t, then the mantissa.
    let mut b = (t / C).log2().floor() as i32;
    b = b.clamp(0, 15);
    let mut a = ((t / (C * 2f64.powi(b)) - 1.0) * 16.0).round() as i32;
    if a > 15 {
        // Mantissa overflow rolls into the next exponent.
        a = 0;
        b = (b + 1).min(15);
    }
    a = a.clamp(0, 15);
    ((a as u8) << 4) | (b as u8)
}

/// Every vtime byte's value in microseconds: `C·(1 + a/16)·2^b` s is
/// `(16 + a)·2^b / 256` s, rounded to the nearest microsecond (halves up).
const VTIME_MICROS: [u64; 256] = {
    let mut table = [0; 256];
    let mut byte = 0;
    while byte < 256 {
        let (a, b) = (byte as u64 >> 4, byte as u64 & 0x0F);
        table[byte] = ((((16 + a) * 1_000_000) << b) + 128) >> 8;
        byte += 1;
    }
    table
};

/// Decodes an RFC 3626 §18.3 vtime byte: a lookup, since a byte has only
/// 256 values and every message header carries one.
#[inline]
pub fn decode_vtime(byte: u8) -> SimDuration {
    SimDuration::from_micros(VTIME_MICROS[usize::from(byte)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_code_roundtrip() {
        for link in [LinkType::Unspec, LinkType::Asym, LinkType::Sym, LinkType::Lost] {
            for neighbor in [NeighborType::Not, NeighborType::Sym, NeighborType::Mpr] {
                let code = LinkCode::new(link, neighbor);
                assert_eq!(LinkCode::from_wire(code.to_wire()), code);
            }
        }
    }

    #[test]
    fn symmetric_codes() {
        assert!(LinkCode::new(LinkType::Sym, NeighborType::Not).is_symmetric());
        assert!(LinkCode::new(LinkType::Asym, NeighborType::Sym).is_symmetric());
        assert!(LinkCode::new(LinkType::Unspec, NeighborType::Mpr).is_symmetric());
        assert!(!LinkCode::new(LinkType::Asym, NeighborType::Not).is_symmetric());
        assert!(!LinkCode::new(LinkType::Lost, NeighborType::Not).is_symmetric());
    }

    fn hello_fixture() -> HelloMessage {
        HelloMessage {
            willingness: Willingness::Default,
            groups: vec![
                LinkGroup {
                    code: LinkCode::new(LinkType::Sym, NeighborType::Sym),
                    addrs: vec![NodeId(2), NodeId(1)],
                },
                LinkGroup {
                    code: LinkCode::new(LinkType::Sym, NeighborType::Mpr),
                    addrs: vec![NodeId(3)],
                },
                LinkGroup {
                    code: LinkCode::new(LinkType::Asym, NeighborType::Not),
                    addrs: vec![NodeId(4)],
                },
            ],
        }
    }

    #[test]
    fn hello_views() {
        let h = hello_fixture();
        assert_eq!(h.symmetric_neighbors(), vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(h.asymmetric_neighbors(), vec![NodeId(4)]);
    }

    #[test]
    fn hello_views_dedup() {
        let h = HelloMessage {
            willingness: Willingness::Default,
            groups: vec![
                LinkGroup {
                    code: LinkCode::new(LinkType::Sym, NeighborType::Sym),
                    addrs: vec![NodeId(1), NodeId(1)],
                },
                LinkGroup {
                    code: LinkCode::new(LinkType::Unspec, NeighborType::Sym),
                    addrs: vec![NodeId(1)],
                },
            ],
        };
        assert_eq!(h.symmetric_neighbors(), vec![NodeId(1)]);
    }

    #[test]
    fn body_type_bytes_distinct() {
        let bodies = [
            MessageBody::Hello(hello_fixture()),
            MessageBody::Tc(TcMessage { ansn: 0, advertised: vec![] }),
            MessageBody::Data(DataMessage {
                src: NodeId(0),
                dst: NodeId(1),
                avoid: None,
                payload: bytes::Bytes::new(),
            }),
        ];
        let mut seen = std::collections::HashSet::new();
        for b in &bodies {
            assert!(seen.insert(b.type_byte()), "duplicate type byte");
        }
    }

    #[test]
    fn vtime_roundtrip_within_rfc_error() {
        for secs in [0.0625, 0.5, 1.0, 2.0, 6.0, 15.0, 30.0, 128.0, 1000.0] {
            let d = SimDuration::from_secs_f64(secs);
            let decoded = decode_vtime(encode_vtime(d)).as_secs_f64();
            let rel = (decoded - secs).abs() / secs;
            assert!(rel < 0.07, "vtime {secs}s decoded as {decoded}s (rel err {rel})");
        }
    }

    #[test]
    fn vtime_table_matches_the_formula() {
        for byte in 0..=u8::MAX {
            let (a, b) = (f64::from(byte >> 4), i32::from(byte & 0x0F));
            let want = SimDuration::from_secs_f64(0.0625 * (1.0 + a / 16.0) * 2f64.powi(b));
            assert_eq!(decode_vtime(byte), want, "vtime byte {byte:#04x}");
        }
    }

    #[test]
    fn every_vtime_byte_reencodes_to_itself() {
        // A relay copies the vtime byte it received instead of re-encoding
        // the decoded duration; for the two to agree on every frame the
        // encoder produces, each byte must survive the round trip.
        for byte in 0..=u8::MAX {
            assert_eq!(encode_vtime(decode_vtime(byte)), byte, "vtime byte {byte:#04x}");
        }
    }

    #[test]
    fn vtime_classic_values() {
        // 6 s (NEIGHB_HOLD_TIME with 2 s hellos) has an exact encoding:
        // 6 = 1/16 · (1 + 8/16) · 2^6.
        let b = encode_vtime(SimDuration::from_secs(6));
        assert_eq!(decode_vtime(b), SimDuration::from_secs(6));
    }

    #[test]
    fn vtime_tiny_values_clamp_to_c() {
        let b = encode_vtime(SimDuration::from_micros(1));
        assert_eq!(decode_vtime(b), SimDuration::from_secs_f64(0.0625));
    }

    #[test]
    fn vtime_mantissa_overflow_rolls_over() {
        // A value just below a power-of-two boundary must not produce a=16.
        let d = SimDuration::from_secs_f64(0.0625 * 1.999);
        let decoded = decode_vtime(encode_vtime(d)).as_secs_f64();
        assert!(decoded > 0.11 && decoded < 0.14, "decoded {decoded}");
    }
}
