//! Trust-recommendation exchange: the live use of formulas (6) and (7).
//!
//! §IV-A: "When the observations of A are not sufficient, additional
//! evidences provided by other nodes are gleaned." Detectors periodically
//! send their neighbors a digest of their own trust ledger; the receiver
//! stores it as *recommendations* and can evaluate nodes it has never
//! interacted with by multipath propagation (formula 7), discounting each
//! recommender by its own trustworthiness (formula 6).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use trustlink_sim::NodeId;
use trustlink_trust::store::TrustStore;
use trustlink_trust::value::TrustValue;

/// The gossip payload: a digest of the sender's trust ledger.
///
/// Serialized trust values are quantized to 1/10000 — far below any
/// behavioural threshold in the system.
#[derive(Debug, Clone, PartialEq)]
pub struct TrustGossip {
    /// `(peer, trust)` entries from the sender's ledger.
    pub entries: Vec<(NodeId, TrustValue)>,
}

/// Wire tag distinguishing gossip from investigation messages (tags 1, 2).
const TAG: u8 = 3;

/// Largest payload one OLSR data frame carries: the 16-bit packet length,
/// less the 4-byte packet header, a message header of at most 14 bytes
/// (wide originator) and a data header of at most 20 bytes (wide source,
/// destination and avoid, plus the 2-byte payload length).
const MAX_PAYLOAD: usize = u16::MAX as usize - 4 - 14 - 20;

/// Most entries a digest carries: a tag and a count (3 bytes), then at most
/// 8 bytes per entry (a wide node id and a 2-byte trust value). A digest of
/// this many entries always fits one data frame.
pub const MAX_ENTRIES: usize = (MAX_PAYLOAD - 3) / 8;

/// Decoding error for [`TrustGossip`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadGossip;

impl std::fmt::Display for BadGossip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("malformed trust gossip")
    }
}

impl std::error::Error for BadGossip {}

impl TrustGossip {
    /// The digest of `store` a detector sends: its peers in ascending id
    /// order, the lowest [`MAX_ENTRIES`] of them. The bytes therefore do
    /// not depend on the store's hash order, and the payload always fits
    /// one data frame however many peers the store has.
    pub fn digest(store: &TrustStore<NodeId>) -> Self {
        let mut entries: Vec<(NodeId, TrustValue)> = store.peers().map(|(n, t)| (*n, t)).collect();
        entries.sort_unstable_by_key(|&(n, _)| n);
        entries.truncate(MAX_ENTRIES);
        TrustGossip { entries }
    }

    /// Serializes to bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(3 + self.entries.len() * 4);
        buf.put_u8(TAG);
        buf.put_u16(u16::try_from(self.entries.len()).expect("gossip too large"));
        for (node, trust) in &self.entries {
            node.put(&mut buf);
            buf.put_i16((trust.get() * 10_000.0).round() as i16);
        }
        buf.freeze()
    }

    /// Deserializes from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`BadGossip`] on a wrong tag, truncation or trailing bytes.
    pub fn decode(mut bytes: Bytes) -> Result<Self, BadGossip> {
        if bytes.len() < 3 || bytes[0] != TAG {
            return Err(BadGossip);
        }
        bytes.advance(1);
        let count = bytes.get_u16() as usize;
        let mut entries = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let node = NodeId::get(&mut bytes).ok_or(BadGossip)?;
            if bytes.remaining() < 2 {
                return Err(BadGossip);
            }
            let trust = TrustValue::new(f64::from(bytes.get_i16()) / 10_000.0);
            entries.push((node, trust));
        }
        if bytes.has_remaining() {
            return Err(BadGossip);
        }
        Ok(TrustGossip { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let g = TrustGossip {
            entries: vec![
                (NodeId(1), TrustValue::new(0.4)),
                (NodeId(2), TrustValue::new(-1.0)),
                (NodeId(65_000), TrustValue::new(1.0)),
            ],
        };
        let decoded = TrustGossip::decode(g.encode()).unwrap();
        assert_eq!(decoded.entries.len(), 3);
        for ((n1, t1), (n2, t2)) in g.entries.iter().zip(&decoded.entries) {
            assert_eq!(n1, n2);
            assert!((t1.get() - t2.get()).abs() < 1e-3, "{t1} vs {t2}");
        }
    }

    #[test]
    fn empty_roundtrip() {
        let g = TrustGossip { entries: vec![] };
        assert_eq!(TrustGossip::decode(g.encode()).unwrap(), g);
    }

    #[test]
    fn rejects_garbage() {
        assert!(TrustGossip::decode(Bytes::from_static(b"")).is_err());
        assert!(TrustGossip::decode(Bytes::from_static(b"\x01\x00\x00")).is_err());
        // Wrong length for the declared count:
        assert!(TrustGossip::decode(Bytes::from_static(b"\x03\x00\x02\x00\x01\x10\x00")).is_err());
        // Trailing garbage:
        let mut buf = BytesMut::new();
        buf.put_u8(TAG);
        buf.put_u16(0);
        buf.put_u8(9);
        assert!(TrustGossip::decode(buf.freeze()).is_err());
    }

    fn store_with(ids: impl Iterator<Item = u32>) -> TrustStore<NodeId> {
        let mut store = TrustStore::new(TrustValue::DEFAULT);
        for id in ids {
            store.set_trust(NodeId(id), TrustValue::new(f64::from(id % 21) / 10.0 - 1.0));
        }
        store
    }

    #[test]
    fn digest_of_a_huge_store_fits_one_data_frame() {
        use trustlink_olsr::message::{DataMessage, Message, MessageBody, Packet};
        use trustlink_olsr::types::SequenceNumber;
        use trustlink_olsr::wire::encode_packet;
        use trustlink_sim::SimDuration;

        let wide = |i: u32| NodeId(u32::from(NodeId::WIRE_ESCAPE) + i);
        let store = store_with((0..20_000).map(|i| wide(i).0));
        let payload = TrustGossip::digest(&store).encode();
        // The widest frame that can carry it: every address escaped.
        let packet = Packet {
            seq: SequenceNumber(0),
            messages: vec![Message {
                vtime: SimDuration::from_secs(6),
                originator: wide(1),
                ttl: 255,
                hop_count: 0,
                seq: SequenceNumber(0),
                body: MessageBody::Data(DataMessage {
                    src: wide(1),
                    dst: wide(2),
                    avoid: Some(wide(3)),
                    payload: payload.clone(),
                }),
            }],
        };
        // `encode_packet` panics on a frame past the 16-bit length field.
        let _ = encode_packet(&packet);
        let decoded = TrustGossip::decode(payload).unwrap();
        assert_eq!(decoded.entries.len(), MAX_ENTRIES);
        assert!(decoded.entries.windows(2).all(|w| w[0].0 < w[1].0), "entries not ascending");
        assert_eq!(decoded.entries[0].0, wide(0));
    }

    #[test]
    fn digest_bytes_do_not_depend_on_insertion_order() {
        let forward = store_with(0..3_000);
        let backward = store_with((0..3_000).rev());
        assert_eq!(TrustGossip::digest(&forward).encode(), TrustGossip::digest(&backward).encode());
    }

    #[test]
    fn quantization_error_bounded() {
        for i in -10..=10 {
            let t = TrustValue::new(f64::from(i) / 10.0 + 0.00007);
            let g = TrustGossip { entries: vec![(NodeId(0), t)] };
            let d = TrustGossip::decode(g.encode()).unwrap();
            assert!((d.entries[0].1.get() - t.get()).abs() < 1e-4);
        }
    }
}
