//! The typed audit-record vocabulary and the flight recorder.
//!
//! The reproduced paper's detector is **log-based**: it "takes advantage of
//! the audit logs that are generated by the routing protocol" so that "no
//! change is requested in the implementation of the node". Historically the
//! node rendered every record to text on the hot path and the IDS re-parsed
//! it; now the vocabulary is *typed end-to-end*:
//!
//! * [`LogRecord`] — everything a node records about its activity. Protocols
//!   push these values into their [`crate::node::LogBuffer`] via
//!   [`crate::node::Context::log`]; the IDS ingests them directly.
//! * [`LogRecord::to_line`] / [`parse_line`] — the canonical one-line text
//!   rendering and its inverse, now used only at the *edges* (human dumps,
//!   fingerprints, externally captured logs). The pair round-trips exactly
//!   (property-tested).
//! * [`FlightRecorder`] — a whole-run recording of `(time, node, record)`
//!   triples with a compact line-oriented serialization
//!   ([`FlightRecorder::to_rlog`] / [`FlightRecorder::from_rlog`]): one
//!   self-contained, attributable record per line, replayable through the
//!   IDS after the fact.
//!
//! The vocabulary lives in `trustlink-sim` (not the OLSR crate) because the
//! engine owns the buffers: every node's log stores typed records, and the
//! routing/detector crates above only add meaning to them.

use std::fmt;

use crate::node::NodeId;
use crate::time::SimTime;

/// A node's declared willingness to carry traffic for others (RFC 3626
/// §18.8). MPR selection prefers higher willingness; `Never` is never
/// selected, `Always` is always selected.
///
/// Defined here (rather than in the OLSR crate) because HELLO reception
/// records carry it: the log vocabulary needs the type below the routing
/// layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(u8)]
pub enum Willingness {
    /// WILL_NEVER (0): must never be selected as MPR.
    Never = 0,
    /// WILL_LOW (1).
    Low = 1,
    /// WILL_DEFAULT (3).
    #[default]
    Default = 3,
    /// WILL_HIGH (6).
    High = 6,
    /// WILL_ALWAYS (7): must always be selected as MPR.
    Always = 7,
}

impl Willingness {
    /// Decodes a wire byte, mapping unknown values to the nearest defined
    /// level (RFC treats willingness as a 0..=7 scalar; we keep the named
    /// levels and round intermediate values down).
    pub fn from_wire(b: u8) -> Willingness {
        match b {
            0 => Willingness::Never,
            1 | 2 => Willingness::Low,
            3..=5 => Willingness::Default,
            6 => Willingness::High,
            _ => Willingness::Always,
        }
    }

    /// The wire encoding.
    pub fn to_wire(self) -> u8 {
        self as u8
    }
}

impl fmt::Display for Willingness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_wire())
    }
}

/// Why a flooded message was not retransmitted: the key of the per-node
/// suppression counters in [`FloodStats`](crate::stats::FloodStats).
/// Suppressed copies are counted, not logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuppressReason {
    /// Already retransmitted (duplicate set).
    Duplicate,
    /// The sender did not select us as MPR.
    NotMprSelector,
    /// TTL exhausted.
    TtlExpired,
    /// The sender is not a known symmetric neighbor.
    UnknownSender,
}

/// The rule (10) outcome carried in a recorded [`LogRecord::Verdict`].
///
/// The semantic type lives in the trust crate; this is its wire-level
/// mirror in the record vocabulary, so recordings stay self-contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerdictKind {
    /// The suspicious node's advertised links check out.
    WellBehaving,
    /// The suspicious node is judged to be spoofing.
    Intruder,
    /// Evidence is insufficient; keep investigating.
    Unrecognized,
}

impl VerdictKind {
    fn as_str(self) -> &'static str {
        match self {
            VerdictKind::WellBehaving => "well-behaving",
            VerdictKind::Intruder => "intruder",
            VerdictKind::Unrecognized => "unrecognized",
        }
    }

    fn from_str_opt(s: &str) -> Option<Self> {
        Some(match s {
            "well-behaving" => VerdictKind::WellBehaving,
            "intruder" => VerdictKind::Intruder,
            "unrecognized" => VerdictKind::Unrecognized,
            _ => return None,
        })
    }
}

impl fmt::Display for VerdictKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Every event a node records: exactly what its co-located IDS reads.
///
/// The log is the detector's only input, so it holds only the kinds the
/// extractor (`trustlink_ids::events::EventExtractor`) consumes: the
/// received control messages (`HelloRx`, `TcRx`), the TC clock of
/// an originator (`TcHeard`), neighborhood and 2-hop changes, MPR-set
/// changes, route additions and changes (which feed the known-population
/// estimate) and undecodable frames. The extractor names every variant in
/// its matches, so a kind added here without a reader there fails to
/// compile.
///
/// A record is logged when it changes what the extractor knows, not once
/// per event. A `HelloRx` is logged only when the sender's claimed
/// symmetric set differs from the one last logged for it (or its link had
/// lapsed); a `TcRx` only when the advertised set differs from the one last
/// logged for its originator (or that state had lapsed, or the frame's
/// sender has no live link). A repeat of either would trigger nothing: the
/// extractor's known population only grows. What a repeated TC does
/// carry, its reception time, reaches the log as a `TcHeard` when the
/// routing node flushes, for every current MPR and for any originator
/// whose state is about to lapse.
///
/// Field naming follows what the information *is* to the logging node:
/// e.g. in [`LogRecord::HelloRx`], `sym` is the set of symmetric neighbors
/// the *sender claimed* — the `NS'_I` of the paper's signatures.
///
/// Routing nodes emit the routing variants; the two detector-plane
/// variants ([`LogRecord::AnalysisTick`], [`LogRecord::Verdict`]) appear
/// only in [`FlightRecorder`] captures, never in a node's own
/// [`crate::node::LogBuffer`] — they mark where the co-located IDS sampled
/// the log and what it concluded, which is what makes a recording
/// replayable through a fresh extractor.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A HELLO was received. `sym`/`asym` are the sender's claimed links.
    HelloRx {
        /// Transmitting neighbor.
        from: NodeId,
        /// Sender's advertised willingness.
        willingness: Willingness,
        /// Sender's claimed symmetric neighbors.
        sym: Box<[NodeId]>,
        /// Sender's claimed heard-only neighbors.
        asym: Box<[NodeId]>,
    },
    /// A TC was received (possibly relayed).
    TcRx {
        /// TC originator (the MPR advertising its selectors).
        originator: NodeId,
        /// The 1-hop neighbor we heard it from.
        sender: NodeId,
        /// Advertised neighbor sequence number.
        ansn: u16,
        /// Advertised selector set.
        advertised: Box<[NodeId]>,
    },
    /// The latest TC from `originator` arrived at `heard_at`, after the last
    /// one the log reported. Written by the recompute flush for current
    /// MPRs (and for originators whose TC state lapses), so the TC-silence
    /// check reads each MPR's clock without a `TcRx` per repeated TC.
    TcHeard {
        /// TC originator.
        originator: NodeId,
        /// When its latest TC was received.
        heard_at: SimTime,
    },
    /// A node entered the symmetric 1-hop neighborhood.
    NeighborAdded {
        /// The neighbor.
        addr: NodeId,
    },
    /// A node left the symmetric 1-hop neighborhood.
    NeighborLost {
        /// The neighbor.
        addr: NodeId,
    },
    /// A 2-hop neighbor became reachable via a 1-hop neighbor.
    TwoHopAdded {
        /// The providing 1-hop neighbor.
        via: NodeId,
        /// The 2-hop neighbor.
        addr: NodeId,
    },
    /// A 2-hop reachability pair disappeared.
    TwoHopLost {
        /// The providing 1-hop neighbor.
        via: NodeId,
        /// The 2-hop neighbor.
        addr: NodeId,
    },
    /// The MPR set was recomputed to a new value (full set logged).
    MprSet {
        /// The new MPR set, ascending.
        mprs: Box<[NodeId]>,
    },
    /// A route appeared.
    RouteAdded {
        /// Destination.
        dest: NodeId,
        /// Next hop.
        next_hop: NodeId,
        /// Hop count.
        hops: u32,
    },
    /// A route's next hop or length changed.
    RouteChanged {
        /// Destination.
        dest: NodeId,
        /// New next hop.
        next_hop: NodeId,
        /// New hop count.
        hops: u32,
    },
    /// A received frame failed to decode (malformed or forged).
    DecodeError {
        /// Transmitting neighbor.
        from: NodeId,
    },
    /// The co-located detector sampled the audit log (one analysis-slot
    /// boundary). Replay calls the extractor's periodic sweep here.
    AnalysisTick,
    /// The co-located detector reached a rule (10) verdict.
    Verdict {
        /// Case identifier at the judging node.
        case: u64,
        /// The judged node.
        suspect: NodeId,
        /// The rule (10) outcome.
        verdict: VerdictKind,
        /// The formula (8) detection value.
        detect: f64,
        /// The formula (9) margin of error.
        margin: f64,
        /// Witnesses interrogated.
        witnesses: u32,
        /// Witnesses that answered before the deadline.
        answered: u32,
    },
}

fn fmt_list(ids: &[NodeId]) -> String {
    let inner: Vec<String> = ids.iter().map(|n| n.to_string()).collect();
    format!("[{}]", inner.join(","))
}

impl LogRecord {
    /// Renders the canonical one-line text form, e.g.
    /// `HELLO_RX from=N3 will=3 sym=[N1,N2] asym=[]`.
    pub fn to_line(&self) -> String {
        match self {
            LogRecord::HelloRx { from, willingness, sym, asym } => format!(
                "HELLO_RX from={from} will={willingness} sym={} asym={}",
                fmt_list(sym),
                fmt_list(asym)
            ),
            LogRecord::TcRx { originator, sender, ansn, advertised } => format!(
                "TC_RX orig={originator} sender={sender} ansn={ansn} adv={}",
                fmt_list(advertised)
            ),
            LogRecord::TcHeard { originator, heard_at } => {
                format!("TC_HEARD orig={originator} heard={}", heard_at.as_micros())
            }
            LogRecord::NeighborAdded { addr } => format!("NBR_ADD addr={addr}"),
            LogRecord::NeighborLost { addr } => format!("NBR_LOST addr={addr}"),
            LogRecord::TwoHopAdded { via, addr } => format!("2HOP_ADD via={via} addr={addr}"),
            LogRecord::TwoHopLost { via, addr } => format!("2HOP_LOST via={via} addr={addr}"),
            LogRecord::MprSet { mprs } => format!("MPR_SET mprs={}", fmt_list(mprs)),
            LogRecord::RouteAdded { dest, next_hop, hops } => {
                format!("ROUTE_ADD dest={dest} next={next_hop} hops={hops}")
            }
            LogRecord::RouteChanged { dest, next_hop, hops } => {
                format!("ROUTE_CHG dest={dest} next={next_hop} hops={hops}")
            }
            LogRecord::DecodeError { from } => format!("DECODE_ERR from={from}"),
            LogRecord::AnalysisTick => "ANALYSIS_TICK".to_string(),
            LogRecord::Verdict { case, suspect, verdict, detect, margin, witnesses, answered } => {
                // `{:?}` on f64 prints the shortest representation that
                // parses back to the same bits, so verdicts round-trip
                // exactly through the text form.
                format!(
                    "VERDICT case={case} suspect={suspect} verdict={verdict} \
                     detect={detect:?} margin={margin:?} witnesses={witnesses} \
                     answered={answered}"
                )
            }
        }
    }

    /// Renders one self-contained rlog line: `<micros> <node> <record>`.
    ///
    /// The inverse is [`from_rlog_line`].
    pub fn to_rlog(&self, at: SimTime, node: NodeId) -> String {
        format!("{} {} {}", at.as_micros(), node, self.to_line())
    }
}

impl fmt::Display for LogRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_line())
    }
}

/// Errors from [`parse_line`] and [`from_rlog_line`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseLogError {
    /// The line's leading tag is not a known record type.
    UnknownTag(String),
    /// A required `key=value` field is missing.
    MissingField(&'static str),
    /// A field value failed to parse.
    BadValue(&'static str),
}

impl fmt::Display for ParseLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseLogError::UnknownTag(t) => write!(f, "unknown log tag `{t}`"),
            ParseLogError::MissingField(k) => write!(f, "missing field `{k}`"),
            ParseLogError::BadValue(k) => write!(f, "bad value for field `{k}`"),
        }
    }
}

impl std::error::Error for ParseLogError {}

struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    fn parse(rest: &'a str) -> Self {
        let pairs = rest.split_whitespace().filter_map(|tok| tok.split_once('=')).collect();
        Fields { pairs }
    }

    fn raw(&self, key: &'static str) -> Result<&'a str, ParseLogError> {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or(ParseLogError::MissingField(key))
    }

    fn node(&self, key: &'static str) -> Result<NodeId, ParseLogError> {
        parse_node(self.raw(key)?).ok_or(ParseLogError::BadValue(key))
    }

    fn u16_field(&self, key: &'static str) -> Result<u16, ParseLogError> {
        self.raw(key)?.parse().map_err(|_| ParseLogError::BadValue(key))
    }

    fn u32_field(&self, key: &'static str) -> Result<u32, ParseLogError> {
        self.raw(key)?.parse().map_err(|_| ParseLogError::BadValue(key))
    }

    fn u64_field(&self, key: &'static str) -> Result<u64, ParseLogError> {
        self.raw(key)?.parse().map_err(|_| ParseLogError::BadValue(key))
    }

    fn f64_field(&self, key: &'static str) -> Result<f64, ParseLogError> {
        self.raw(key)?.parse().map_err(|_| ParseLogError::BadValue(key))
    }

    fn list(&self, key: &'static str) -> Result<Vec<NodeId>, ParseLogError> {
        let raw = self.raw(key)?;
        parse_list(raw).ok_or(ParseLogError::BadValue(key))
    }
}

fn parse_node(s: &str) -> Option<NodeId> {
    s.strip_prefix('N')?.parse().ok().map(NodeId)
}

fn parse_list(s: &str) -> Option<Vec<NodeId>> {
    let inner = s.strip_prefix('[')?.strip_suffix(']')?;
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner.split(',').map(parse_node).collect()
}

/// Parses a line produced by [`LogRecord::to_line`].
///
/// # Errors
///
/// Returns a [`ParseLogError`] when the tag is unknown, a field is missing,
/// or a value is malformed. The parser is tolerant of extra fields (forward
/// compatibility) but strict about the ones it needs.
pub fn parse_line(line: &str) -> Result<LogRecord, ParseLogError> {
    let line = line.trim();
    let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
    let f = Fields::parse(rest);
    let record = match tag {
        "HELLO_RX" => LogRecord::HelloRx {
            from: f.node("from")?,
            willingness: Willingness::from_wire(
                f.raw("will")?.parse().map_err(|_| ParseLogError::BadValue("will"))?,
            ),
            sym: f.list("sym")?.into(),
            asym: f.list("asym")?.into(),
        },
        "TC_RX" => LogRecord::TcRx {
            originator: f.node("orig")?,
            sender: f.node("sender")?,
            ansn: f.u16_field("ansn")?,
            advertised: f.list("adv")?.into(),
        },
        "TC_HEARD" => LogRecord::TcHeard {
            originator: f.node("orig")?,
            heard_at: SimTime::from_micros(f.u64_field("heard")?),
        },
        "NBR_ADD" => LogRecord::NeighborAdded { addr: f.node("addr")? },
        "NBR_LOST" => LogRecord::NeighborLost { addr: f.node("addr")? },
        "2HOP_ADD" => LogRecord::TwoHopAdded { via: f.node("via")?, addr: f.node("addr")? },
        "2HOP_LOST" => LogRecord::TwoHopLost { via: f.node("via")?, addr: f.node("addr")? },
        "MPR_SET" => LogRecord::MprSet { mprs: f.list("mprs")?.into() },
        "ROUTE_ADD" => LogRecord::RouteAdded {
            dest: f.node("dest")?,
            next_hop: f.node("next")?,
            hops: f.u32_field("hops")?,
        },
        "ROUTE_CHG" => LogRecord::RouteChanged {
            dest: f.node("dest")?,
            next_hop: f.node("next")?,
            hops: f.u32_field("hops")?,
        },
        "DECODE_ERR" => LogRecord::DecodeError { from: f.node("from")? },
        "ANALYSIS_TICK" => LogRecord::AnalysisTick,
        "VERDICT" => LogRecord::Verdict {
            case: f.u64_field("case")?,
            suspect: f.node("suspect")?,
            verdict: VerdictKind::from_str_opt(f.raw("verdict")?)
                .ok_or(ParseLogError::BadValue("verdict"))?,
            detect: f.f64_field("detect")?,
            margin: f.f64_field("margin")?,
            witnesses: f.u32_field("witnesses")?,
            answered: f.u32_field("answered")?,
        },
        other => return Err(ParseLogError::UnknownTag(other.to_string())),
    };
    Ok(record)
}

/// Parses one rlog line produced by [`LogRecord::to_rlog`]:
/// `<micros> <node> <record>`.
///
/// # Errors
///
/// Returns [`ParseLogError::BadValue`] for a malformed time or node field,
/// [`ParseLogError::MissingField`] when the record part is absent, and
/// propagates [`parse_line`] errors for the record itself.
pub fn from_rlog_line(line: &str) -> Result<(SimTime, NodeId, LogRecord), ParseLogError> {
    let line = line.trim();
    let (time, rest) = line.split_once(' ').ok_or(ParseLogError::MissingField("node"))?;
    let at = time
        .parse::<u64>()
        .map(SimTime::from_micros)
        .map_err(|_| ParseLogError::BadValue("time"))?;
    let (node, record) = rest.split_once(' ').ok_or(ParseLogError::MissingField("record"))?;
    let node = parse_node(node).ok_or(ParseLogError::BadValue("node"))?;
    Ok((at, node, parse_line(record)?))
}

/// One attributed entry of a [`FlightRecorder`]: who recorded what, when.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// When the record was written.
    pub at: SimTime,
    /// The node that wrote it.
    pub node: NodeId,
    /// The record itself.
    pub record: LogRecord,
}

/// A whole-run recording: every node's typed audit records merged into one
/// stream, ordered by `(time, node)` with each node's own order preserved.
///
/// The recorder is the replay/audit artifact of a run. Its line-oriented
/// serialization ([`FlightRecorder::to_rlog`]) is self-contained — one
/// `<micros> <node> <record>` line per entry — so a saved recording can be
/// re-ingested through a fresh IDS extractor long after the simulator is
/// gone.
///
/// ```
/// use trustlink_sim::record::{FlightRecorder, LogRecord};
/// use trustlink_sim::{NodeId, SimTime};
///
/// let mut rec = FlightRecorder::new();
/// rec.push(SimTime::from_millis(1500), NodeId(3), LogRecord::NeighborAdded {
///     addr: NodeId(7),
/// });
/// let rlog = rec.to_rlog();
/// assert_eq!(rlog, "1500000 N3 NBR_ADD addr=N7\n");
/// assert_eq!(FlightRecorder::from_rlog(&rlog).unwrap(), rec);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlightRecorder {
    records: Vec<FlightRecord>,
}

impl FlightRecorder {
    /// An empty recording.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a recording from per-node-ordered records, merging them into
    /// the canonical global order: stable-sorted by `(time, node)`, so each
    /// node's own record order is preserved exactly.
    pub fn from_records(mut records: Vec<FlightRecord>) -> Self {
        records.sort_by_key(|r| (r.at, r.node));
        FlightRecorder { records }
    }

    /// Appends one record (kept in insertion order; callers append in
    /// canonical order or build via [`FlightRecorder::from_records`]).
    pub fn push(&mut self, at: SimTime, node: NodeId, record: LogRecord) {
        self.records.push(FlightRecord { at, node, record });
    }

    /// All records in canonical order.
    pub fn records(&self) -> &[FlightRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records written by one node, in that node's own order.
    pub fn records_of(&self, node: NodeId) -> impl Iterator<Item = &FlightRecord> {
        self.records.iter().filter(move |r| r.node == node)
    }

    /// Serializes the whole recording: one rlog line per record, each
    /// terminated by `\n`.
    pub fn to_rlog(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.record.to_rlog(r.at, r.node));
            out.push('\n');
        }
        out
    }

    /// Parses a recording serialized by [`FlightRecorder::to_rlog`]. Blank
    /// lines and `#` comment lines are skipped.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ParseLogError`] encountered.
    pub fn from_rlog(s: &str) -> Result<Self, ParseLogError> {
        let mut records = Vec::new();
        for line in s.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (at, node, record) = from_rlog_line(line)?;
            records.push(FlightRecord { at, node, record });
        }
        Ok(FlightRecorder { records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_records() -> Vec<LogRecord> {
        vec![
            LogRecord::HelloRx {
                from: NodeId(3),
                willingness: Willingness::High,
                sym: Box::from([NodeId(1), NodeId(2)]),
                asym: Box::from([]),
            },
            LogRecord::TcRx {
                originator: NodeId(5),
                sender: NodeId(2),
                ansn: 17,
                advertised: Box::from([NodeId(1), NodeId(4)]),
            },
            LogRecord::TcHeard { originator: NodeId(8), heard_at: SimTime::from_micros(2_500_017) },
            LogRecord::NeighborAdded { addr: NodeId(4) },
            LogRecord::NeighborLost { addr: NodeId(5) },
            LogRecord::TwoHopAdded { via: NodeId(1), addr: NodeId(10) },
            LogRecord::TwoHopLost { via: NodeId(1), addr: NodeId(10) },
            LogRecord::MprSet { mprs: Box::from([NodeId(2), NodeId(7)]) },
            LogRecord::RouteAdded { dest: NodeId(9), next_hop: NodeId(2), hops: 3 },
            LogRecord::RouteChanged { dest: NodeId(9), next_hop: NodeId(7), hops: 2 },
            LogRecord::DecodeError { from: NodeId(11) },
            LogRecord::AnalysisTick,
            LogRecord::Verdict {
                case: 3,
                suspect: NodeId(4),
                verdict: VerdictKind::Intruder,
                detect: -0.8125,
                margin: 0.25,
                witnesses: 3,
                answered: 2,
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for record in all_records() {
            let line = record.to_line();
            let parsed =
                parse_line(&line).unwrap_or_else(|e| panic!("failed to parse `{line}`: {e}"));
            assert_eq!(parsed, record, "roundtrip mismatch for `{line}`");
        }
    }

    #[test]
    fn every_variant_roundtrips_through_rlog() {
        for (i, record) in all_records().into_iter().enumerate() {
            let at = SimTime::from_micros(1_000_000 + i as u64);
            let node = NodeId(i as u32);
            let line = record.to_rlog(at, node);
            let parsed = from_rlog_line(&line)
                .unwrap_or_else(|e| panic!("failed to parse rlog `{line}`: {e}"));
            assert_eq!(parsed, (at, node, record), "rlog roundtrip mismatch for `{line}`");
        }
    }

    #[test]
    fn canonical_examples() {
        assert_eq!(
            LogRecord::HelloRx {
                from: NodeId(3),
                willingness: Willingness::Default,
                sym: Box::from([NodeId(1), NodeId(2)]),
                asym: Box::from([])
            }
            .to_line(),
            "HELLO_RX from=N3 will=3 sym=[N1,N2] asym=[]"
        );
        assert_eq!(LogRecord::MprSet { mprs: Box::from([]) }.to_line(), "MPR_SET mprs=[]");
        assert_eq!(
            LogRecord::TcHeard { originator: NodeId(8), heard_at: SimTime::from_micros(2_500_017) }
                .to_line(),
            "TC_HEARD orig=N8 heard=2500017"
        );
        assert_eq!(LogRecord::AnalysisTick.to_line(), "ANALYSIS_TICK");
        assert_eq!(
            LogRecord::Verdict {
                case: 1,
                suspect: NodeId(8),
                verdict: VerdictKind::Intruder,
                detect: -0.5,
                margin: 0.125,
                witnesses: 4,
                answered: 4,
            }
            .to_line(),
            "VERDICT case=1 suspect=N8 verdict=intruder detect=-0.5 margin=0.125 \
             witnesses=4 answered=4"
        );
    }

    #[test]
    fn parse_rejects_unknown_tag() {
        assert!(matches!(parse_line("WAT x=1"), Err(ParseLogError::UnknownTag(_))));
    }

    #[test]
    fn parse_rejects_missing_field() {
        assert_eq!(parse_line("NBR_ADD"), Err(ParseLogError::MissingField("addr")));
        assert_eq!(
            parse_line("ROUTE_ADD dest=N1 hops=2"),
            Err(ParseLogError::MissingField("next"))
        );
    }

    #[test]
    fn parse_rejects_bad_values() {
        assert_eq!(parse_line("NBR_ADD addr=42"), Err(ParseLogError::BadValue("addr")));
        assert_eq!(parse_line("MPR_SET mprs=N1,N2"), Err(ParseLogError::BadValue("mprs")));
        assert_eq!(
            parse_line("TC_RX orig=N1 sender=N2 ansn=70000 adv=[]"),
            Err(ParseLogError::BadValue("ansn"))
        );
        assert_eq!(parse_line("TC_HEARD orig=N1 heard=-5"), Err(ParseLogError::BadValue("heard")));
        assert_eq!(parse_line("TC_HEARD heard=5"), Err(ParseLogError::MissingField("orig")));
        assert_eq!(
            parse_line(
                "VERDICT case=1 suspect=N8 verdict=guilty detect=0 margin=0 witnesses=1 answered=1"
            ),
            Err(ParseLogError::BadValue("verdict"))
        );
    }

    #[test]
    fn parse_tolerates_whitespace_and_extra_fields() {
        let r = parse_line("  NBR_ADD addr=N7 extra=ignored  ").unwrap();
        assert_eq!(r, LogRecord::NeighborAdded { addr: NodeId(7) });
    }

    #[test]
    fn parse_error_display() {
        assert_eq!(ParseLogError::UnknownTag("X".into()).to_string(), "unknown log tag `X`");
        assert_eq!(ParseLogError::MissingField("addr").to_string(), "missing field `addr`");
        assert_eq!(ParseLogError::BadValue("seq").to_string(), "bad value for field `seq`");
    }

    #[test]
    fn rlog_rejects_malformed_framing() {
        assert_eq!(from_rlog_line("12"), Err(ParseLogError::MissingField("node")));
        assert_eq!(from_rlog_line("12 N3"), Err(ParseLogError::MissingField("record")));
        assert_eq!(from_rlog_line("twelve N3 ANALYSIS_TICK"), Err(ParseLogError::BadValue("time")));
        assert_eq!(from_rlog_line("12 3 ANALYSIS_TICK"), Err(ParseLogError::BadValue("node")));
    }

    #[test]
    fn recorder_roundtrips_and_skips_comments() {
        let mut rec = FlightRecorder::new();
        rec.push(SimTime::from_micros(5), NodeId(1), LogRecord::AnalysisTick);
        rec.push(
            SimTime::from_micros(9),
            NodeId(0),
            LogRecord::MprSet { mprs: Box::from([NodeId(1)]) },
        );
        let mut rlog = String::from("# a saved run\n\n");
        rlog.push_str(&rec.to_rlog());
        assert_eq!(FlightRecorder::from_rlog(&rlog).unwrap(), rec);
    }

    #[test]
    fn from_records_merges_by_time_then_node_preserving_node_order() {
        // Two nodes with interleaved timestamps, plus a same-instant pair:
        // the merge is stable per node and breaks time ties by node id.
        let n0 = NodeId(0);
        let n1 = NodeId(1);
        let records = vec![
            FlightRecord { at: SimTime::from_micros(2), node: n1, record: LogRecord::AnalysisTick },
            FlightRecord {
                at: SimTime::from_micros(2),
                node: n1,
                record: LogRecord::NeighborAdded { addr: n0 },
            },
            FlightRecord { at: SimTime::from_micros(1), node: n0, record: LogRecord::AnalysisTick },
            FlightRecord {
                at: SimTime::from_micros(2),
                node: n0,
                record: LogRecord::NeighborAdded { addr: n1 },
            },
        ];
        let rec = FlightRecorder::from_records(records);
        let order: Vec<(u64, u32)> =
            rec.records().iter().map(|r| (r.at.as_micros(), r.node.0)).collect();
        assert_eq!(order, vec![(1, 0), (2, 0), (2, 1), (2, 1)]);
        let n1_records: Vec<&FlightRecord> = rec.records_of(n1).collect();
        assert_eq!(n1_records[0].record, LogRecord::AnalysisTick);
        assert_eq!(n1_records[1].record, LogRecord::NeighborAdded { addr: n0 });
    }

    #[test]
    fn willingness_wire_roundtrip_rounds_undefined_values() {
        assert_eq!(Willingness::from_wire(0), Willingness::Never);
        assert_eq!(Willingness::from_wire(2), Willingness::Low);
        assert_eq!(Willingness::from_wire(4), Willingness::Default);
        assert_eq!(Willingness::from_wire(6), Willingness::High);
        assert_eq!(Willingness::from_wire(200), Willingness::Always);
        for w in [
            Willingness::Never,
            Willingness::Low,
            Willingness::Default,
            Willingness::High,
            Willingness::Always,
        ] {
            assert_eq!(Willingness::from_wire(w.to_wire()), w);
            assert_eq!(w.to_string(), w.to_wire().to_string());
        }
    }
}
