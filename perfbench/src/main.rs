//! One workload run of the layered detection benchmark.
//!
//! `run.py` starts this binary once per workload run, so every run owns a
//! fresh process and the peak RSS it reports is that run's alone. The run
//! goes through public APIs only: it places nodes, builds a
//! `SimulatorBuilder` simulator of `DetectorNode`s or `OlsrNode`s, runs it
//! for the simulated span and reads the outcome back through public
//! accessors. It prints one JSON object on stdout.
//!
//! ```text
//! trustlink-perfbench --workload <name> --seed <n>
//!                     [--mode plain|traced|record] [--smoke]
//! ```
//!
//! * `plain` — the untraced run the end-to-end metrics come from.
//! * `traced` — every node's `Application` is wrapped in [`Traced`], which
//!   times each engine→application callback and counts its allocations.
//! * `record` — flight recording on; the run is captured with
//!   `record_scenario` and `replay_recording` is timed over the capture,
//!   which is how the IDS layer is measured from outside.
//!
//! In every mode a fixed reference kernel ([`reference`]) is timed between
//! the slices of the run, and `run_s` and `setup_s` are wall times rescaled
//! to a host of nominal reference speed; `run_wall_s` is the raw wall time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use trustlink_attacks::spoof::{LinkSpoofing, SpoofVariant};
use trustlink_core::detector::{DetectorConfig, DetectorNode, VerdictRecord, TIMER_ANALYSIS};
use trustlink_core::replay::{extracted_events_of, record_scenario, replay_recording};
use trustlink_core::scenario::ScenarioReport;
use trustlink_ids::investigation::InvestigationConfig;
use trustlink_olsr::hooks::OlsrHooks;
use trustlink_olsr::node::{OlsrNode, TIMER_HELLO, TIMER_RECOMPUTE, TIMER_REFRESH, TIMER_TC};
use trustlink_olsr::types::{FisheyeRings, FloodScope, OlsrConfig};
use trustlink_sim::{
    topologies, Application, Arena, CallbackClass, Context, FrameBatch, NodeId, Position,
    RadioConfig, SimDuration, SimTime, Simulator, SimulatorBuilder, TimerToken,
};
use trustlink_trust::decision::Verdict;

mod reference;
use reference::Reference;

// ---- allocation counting ---------------------------------------------------

struct Counting;
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus a relaxed counter bump; every
// allocator contract obligation is `System`'s own.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds `alloc`'s contract; forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds `dealloc`'s contract; forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds `realloc`'s contract; forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

// ---- workloads ---------------------------------------------------------------

/// Unit-disk radio range in metres.
const RANGE_M: f64 = 150.0;
/// Mean 1-hop degree the random-geometric arena is sized for.
const MEAN_DEGREE: f64 = 10.0;
/// Simulated span of every run.
const SPAN: SimDuration = SimDuration::from_secs(30);
/// The reference is sampled between slices of this much simulated time.
const SLICE: SimDuration = SimDuration::from_secs(1);
/// Set-ups per untraced run; a single set-up takes well under a millisecond.
const SETUPS: usize = 25;
/// Detector warmup; detection latency counts from its end.
const WARMUP: SimDuration = SimDuration::from_secs(10);

/// A link-spoofing node advertising one phantom neighbor.
#[derive(Debug, Clone, Copy)]
struct Spoofer {
    index: usize,
    phantom: u32,
}

#[derive(Debug, Clone, Copy)]
struct Workload {
    nodes: usize,
    /// `Some`: every node runs a `DetectorNode` and one of them spoofs.
    /// `None`: every node is a plain `OlsrNode` (the detector bypass).
    spoofer: Option<Spoofer>,
}

impl Workload {
    fn detect(nodes: usize, phantom: u32) -> Self {
        Workload { nodes, spoofer: Some(Spoofer { index: nodes / 2, phantom }) }
    }

    fn olsr(nodes: usize) -> Self {
        Workload { nodes, spoofer: None }
    }

    /// The full-size workload, or its smoke size for the benchmark's own
    /// test.
    fn named(name: &str, smoke: bool) -> Option<Self> {
        Some(match (name, smoke) {
            ("detect-256", false) => Workload::detect(256, 261),
            ("detect-256", true) => Workload::detect(48, 53),
            ("olsr-256", false) => Workload::olsr(256),
            ("olsr-256", true) => Workload::olsr(48),
            ("hostile-id-64", false) => Workload::detect(64, 999_999),
            ("hostile-id-64", true) => Workload::detect(32, 99_999),
            _ => return None,
        })
    }
}

fn olsr_config() -> OlsrConfig {
    OlsrConfig::fast().with_flood_scope(FloodScope::Fisheye(FisheyeRings::default()))
}

fn detector_config(flight_recording: bool) -> DetectorConfig {
    DetectorConfig {
        analysis_interval: SimDuration::from_millis(500),
        investigation: InvestigationConfig {
            timeout: SimDuration::from_secs(3),
            max_witnesses: 16,
        },
        warmup: WARMUP,
        trust_slot_interval: SimDuration::from_secs(3),
        flight_recording,
        ..DetectorConfig::default()
    }
}

/// The recipe's scenario seed. Placement always derives from it, so every
/// `--seed` runs the same network with the same spoofer; `--seed` drives
/// the simulator's random stream (timer jitter and analysis stagger).
const PLACEMENT_SEED: u64 = 11;

/// Node placement, exactly as `ScenarioBuilder` derives it from its seed.
fn placement(nodes: usize) -> (Arena, Vec<Position>) {
    let mut rng = StdRng::seed_from_u64(PLACEMENT_SEED.wrapping_add(0x9E37));
    let arena = topologies::arena_for_mean_degree(nodes, RANGE_M, MEAN_DEGREE);
    let positions = topologies::random_geometric(nodes, &arena, &mut rng);
    (arena, positions)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Traced,
    Record,
}

fn boxed<A: Application>(app: A, traced: bool) -> Box<dyn Application> {
    if traced {
        Box::new(Traced { inner: app, spans: Spans::default() })
    } else {
        Box::new(app)
    }
}

/// Places the nodes, builds the simulator and adds every node: the work
/// `setup_s` times.
fn setup(w: &Workload, seed: u64, mode: Mode) -> Simulator {
    let (arena, positions) = placement(w.nodes);
    let mut sim = SimulatorBuilder::new(seed)
        .radio(RadioConfig::unit_disk(RANGE_M))
        .arena(arena)
        .expected_nodes(w.nodes)
        .build();
    let traced = mode == Mode::Traced;
    for (i, pos) in positions.into_iter().enumerate() {
        let cfg = detector_config(mode == Mode::Record);
        let app = match w.spoofer {
            None => boxed(OlsrNode::new(olsr_config()), traced),
            Some(s) if s.index == i => {
                let spoof = LinkSpoofing::permanent(SpoofVariant::AdvertiseNonExistent {
                    fake: vec![NodeId(s.phantom)],
                });
                boxed(DetectorNode::with_hooks(olsr_config(), cfg, spoof), traced)
            }
            _ => boxed(DetectorNode::new(olsr_config(), cfg), traced),
        };
        sim.add_node(app, pos);
    }
    sim
}

// ---- the tracing shim --------------------------------------------------------

/// Busy time, callback count and allocations of one callback class.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    ns: u64,
    calls: u64,
    allocs: u64,
}

impl Span {
    fn add(&mut self, other: &Span) {
        self.ns += other.ns;
        self.calls += other.calls;
        self.allocs += other.allocs;
    }
}

/// The callback classes the shim times, by output name. Timers are split by
/// their public tokens; a timer no token names lands in the last class.
const SPAN_NAMES: [&str; 8] = [
    "app.start",
    "olsr.receive",
    "olsr.hello",
    "olsr.tc",
    "olsr.refresh",
    "olsr.recompute",
    "detector.analysis",
    "app.other_timers",
];
const START: usize = 0;
const RECEIVE: usize = 1;

fn timer_class(token: TimerToken) -> usize {
    match token {
        TIMER_HELLO => 2,
        TIMER_TC => 3,
        TIMER_REFRESH => 4,
        TIMER_RECOMPUTE => 5,
        TIMER_ANALYSIS => 6,
        _ => 7,
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Spans {
    by_class: [Span; SPAN_NAMES.len()],
    /// Frames handed to the receive callbacks.
    frames: u64,
}

impl Spans {
    fn add(&mut self, o: &Spans) {
        for (mine, theirs) in self.by_class.iter_mut().zip(&o.by_class) {
            mine.add(theirs);
        }
        self.frames += o.frames;
    }
}

fn timed<R>(span: &mut Span, f: impl FnOnce() -> R) -> R {
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let t = Instant::now();
    let r = f();
    span.ns += t.elapsed().as_nanos() as u64;
    span.calls += 1;
    span.allocs += ALLOCS.load(Ordering::Relaxed) - allocs;
    r
}

/// Wraps an application and times every engine→application callback. It
/// forwards each callback, `rng_free` included, unchanged — in particular
/// `on_receive_batch` goes to the inner batch handler, so batching is kept.
struct Traced<A> {
    inner: A,
    spans: Spans,
}

impl<A: Application> Application for Traced<A> {
    fn rng_free(&self, class: CallbackClass) -> bool {
        self.inner.rng_free(class)
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let Traced { inner, spans } = self;
        timed(&mut spans.by_class[START], || inner.on_start(ctx));
    }

    fn on_receive(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        let Traced { inner, spans } = self;
        spans.frames += 1;
        timed(&mut spans.by_class[RECEIVE], || inner.on_receive(ctx, from, payload));
    }

    fn on_receive_batch(&mut self, ctx: &mut Context<'_>, batch: &mut FrameBatch) {
        let Traced { inner, spans } = self;
        spans.frames += batch.len() as u64;
        timed(&mut spans.by_class[RECEIVE], || inner.on_receive_batch(ctx, batch));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        let Traced { inner, spans } = self;
        timed(&mut spans.by_class[timer_class(timer)], || inner.on_timer(ctx, timer));
    }
}

/// The node on `id` as a `T`, traced or not.
fn app<T: Application>(sim: &Simulator, id: NodeId) -> Option<&T> {
    sim.app_as::<T>(id).or_else(|| sim.app_as::<Traced<T>>(id).map(|t| &t.inner))
}

fn spans_of<T: Application>(sim: &Simulator, id: NodeId) -> Option<Spans> {
    sim.app_as::<Traced<T>>(id).map(|t| t.spans)
}

// ---- outcome -------------------------------------------------------------------

/// Everything a run reports, read back through public accessors.
#[derive(Debug, Default)]
struct Outcome {
    verdicts: Vec<(NodeId, VerdictRecord)>,
    open_cases: u64,
    signature_matches: u64,
    trust_peers: u64,
    route_runs: u64,
    mpr_runs: u64,
    tc_originated: u64,
    tc_forwarded: u64,
    /// Nodes whose symmetric neighbor set differs from the radio's
    /// in-range set at the end of the run.
    link_mismatches: u64,
    /// Routes held to real nodes of the same connected component.
    routes_held: u64,
    /// Routes the connected components make possible.
    routes_possible: u64,
    spans: Option<Spans>,
}

impl Outcome {
    fn olsr<H: OlsrHooks>(&mut self, o: &OlsrNode<H>, id: NodeId, sim: &Simulator, comp: &[usize]) {
        let r = o.recompute_stats();
        self.route_runs += r.route_runs;
        self.mpr_runs += r.mpr_runs;
        self.tc_originated += o.flood_stats().originated_total();
        self.tc_forwarded += o.flood_stats().forwarded;
        let in_range: BTreeSet<NodeId> = sim.neighbors_in_range(id).into_iter().collect();
        let sym: BTreeSet<NodeId> = o.symmetric_neighbors(sim.now()).into_iter().collect();
        self.link_mismatches += u64::from(in_range != sym);
        let mine = comp[id.index()];
        self.routes_held += o
            .routing_table()
            .iter()
            .filter(|r| comp.get(r.dest.index()) == Some(&mine) && r.dest != id)
            .count() as u64;
        self.routes_possible += comp.iter().filter(|&&c| c == mine).count() as u64 - 1;
    }

    fn detector<H: OlsrHooks>(
        &mut self,
        d: &DetectorNode<H>,
        id: NodeId,
        sim: &Simulator,
        comp: &[usize],
    ) {
        self.olsr(d.olsr(), id, sim, comp);
        self.verdicts.extend(d.verdicts().iter().map(|v| (id, v.clone())));
        self.open_cases += d.open_cases() as u64;
        self.signature_matches += d.signature_matches().len() as u64;
        self.trust_peers += d.trust_snapshot().len() as u64;
    }

    fn collect(sim: &Simulator, positions: &[Position]) -> Self {
        let comp = components(positions);
        let mut out = Outcome::default();
        for id in sim.node_ids() {
            if let Some(d) = app::<DetectorNode>(sim, id) {
                out.detector(d, id, sim, &comp);
            } else if let Some(d) = app::<DetectorNode<LinkSpoofing>>(sim, id) {
                out.detector(d, id, sim, &comp);
            } else if let Some(o) = app::<OlsrNode>(sim, id) {
                out.olsr(o, id, sim, &comp);
            } else {
                panic!("node {id} runs an application this benchmark does not place");
            }
            let spans = spans_of::<DetectorNode>(sim, id)
                .or_else(|| spans_of::<DetectorNode<LinkSpoofing>>(sim, id))
                .or_else(|| spans_of::<OlsrNode>(sim, id));
            if let Some(s) = spans {
                out.spans.get_or_insert_with(Spans::default).add(&s);
            }
        }
        out
    }

    /// FNV-1a over the full verdict stream, bit-exact.
    fn verdict_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (observer, v) in &self.verdicts {
            eat(u64::from(observer.0));
            eat(v.case);
            eat(u64::from(v.suspect.0));
            eat(match v.verdict {
                Verdict::WellBehaving => 0,
                Verdict::Intruder => 1,
                Verdict::Unrecognized => 2,
            });
            eat(v.detect.to_bits());
            eat(v.margin.to_bits());
            eat(v.witnesses as u64);
            eat(v.answered as u64);
            eat(v.at.as_micros());
        }
        h
    }

    fn count(&self, verdict: Verdict) -> u64 {
        self.verdicts.iter().filter(|(_, v)| v.verdict == verdict).count() as u64
    }
}

/// Connected-component label of every node under the unit-disk radio.
fn components(positions: &[Position]) -> Vec<usize> {
    let adj = topologies::adjacency(positions, RANGE_M);
    let mut comp = vec![usize::MAX; positions.len()];
    for root in 0..positions.len() {
        if comp[root] != usize::MAX {
            continue;
        }
        comp[root] = root;
        let mut stack = vec![root];
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if comp[v] == usize::MAX {
                    comp[v] = root;
                    stack.push(v);
                }
            }
        }
    }
    comp
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---- output --------------------------------------------------------------------

/// A flat JSON object, built in insertion order.
#[derive(Default)]
struct Json(String);

impl Json {
    fn raw(&mut self, key: &str, value: impl std::fmt::Display) {
        let sep = if self.0.is_empty() { "{" } else { ", " };
        let _ = write!(self.0, "{sep}\"{key}\": {value}");
    }

    fn num(&mut self, key: &str, value: f64) {
        assert!(value.is_finite(), "{key} is not finite");
        self.raw(key, value);
    }

    fn span(&mut self, key: &str, s: &Span) {
        self.num(&format!("{key}.s"), s.ns as f64 * 1e-9);
        self.raw(&format!("{key}.calls"), s.calls);
        self.raw(&format!("{key}.allocs"), s.allocs);
    }

    fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

struct Args {
    workload: String,
    seed: u64,
    mode: Mode,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 11, mode: Mode::Plain, smoke: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--mode" => {
                args.mode = match value()?.as_str() {
                    "plain" => Mode::Plain,
                    "traced" => Mode::Traced,
                    "record" => Mode::Record,
                    m => return Err(format!("unknown mode {m}")),
                }
            }
            "--smoke" => args.smoke = true,
            f => return Err(format!("unknown flag {f}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = Workload::named(&args.workload, args.smoke) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };

    // Set-up, repeated in untraced runs: every copy but the last is dropped
    // unrun, and `setup_s` is their median, rescaled like `run_s`.
    let setups = if args.mode == Mode::Plain { SETUPS } else { 1 };
    let mut setup_s = Vec::new();
    let mut sim = None;
    for _ in 0..setups {
        drop(sim.take());
        let t = Instant::now();
        sim = Some(setup(&w, args.seed, args.mode));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut sim = sim.expect("at least one set-up");
    setup_s.sort_by(f64::total_cmp);

    // The span runs in one-simulated-second slices; stepping `run_until`
    // processes exactly the events `run_for(SPAN)` would, in the same order.
    // The reference is sampled before every slice and after the last one,
    // outside the timed slices; both times are rescaled by its median.
    let mut reference = Reference::new();
    reference.sample();
    let mut samples = Vec::new();
    let mut slices = Vec::new();
    let end = sim.now() + SPAN;
    while sim.now() < end {
        samples.push(reference.sample());
        let t = Instant::now();
        sim.run_until((sim.now() + SLICE).min(end));
        slices.push(t.elapsed().as_secs_f64());
    }
    samples.push(reference.sample());
    let rss = peak_rss_mb();
    samples.sort_by(f64::total_cmp);
    let reference_s = samples[samples.len() / 2];
    let run_wall_s: f64 = slices.iter().sum();
    let scale = reference::NOMINAL_S / reference_s;
    let run_s = run_wall_s * scale;

    let (_, positions) = placement(w.nodes);
    let out = Outcome::collect(&sim, &positions);
    let spoofer = w.spoofer.map(|s| NodeId(s.index as u32));
    let convicted: Vec<&(NodeId, VerdictRecord)> = out
        .verdicts
        .iter()
        .filter(|(_, v)| v.verdict == Verdict::Intruder && Some(v.suspect) == spoofer)
        .collect();
    let observers: BTreeSet<NodeId> = convicted.iter().map(|(o, _)| *o).collect();
    let first = convicted.iter().map(|(_, v)| v.at).min();
    let false_convictions = out.count(Verdict::Intruder) - convicted.len() as u64;

    let mut j = Json::default();
    j.raw("workload", format!("\"{}\"", args.workload));
    j.raw("nodes", w.nodes);
    j.raw("spoofer", w.spoofer.map_or("null".into(), |s| s.index.to_string()));
    j.raw("phantom", w.spoofer.map_or("null".into(), |s| s.phantom.to_string()));
    j.raw("placement_seed", PLACEMENT_SEED);
    j.raw("simulated_s", SPAN.as_secs_f64());
    j.raw("seed", args.seed);
    j.num("setup_s", setup_s[setup_s.len() / 2] * scale);
    j.num("run_s", run_s);
    j.num("run_wall_s", run_wall_s);
    j.num("reference_s", reference_s);
    j.num("peak_rss_mb", rss);
    j.raw("air_frames", sim.stats().total_sent());
    j.raw("frames_delivered", sim.stats().total_received());
    j.raw("verdict_digest", format!("\"{:016x}\"", out.verdict_digest()));
    j.raw("verdicts", out.verdicts.len());
    j.raw("spoofer_convictions", observers.len());
    j.raw("false_convictions", false_convictions);
    if let Some(at) = first {
        j.num("detect_latency_s", at.saturating_since(SimTime::ZERO + WARMUP).as_secs_f64());
    }
    j.raw("link_mismatches", out.link_mismatches);
    j.num("route_coverage", out.routes_held as f64 / out.routes_possible.max(1) as f64);
    j.raw("log_records", sim.node_ids().map(|id| sim.log(id).len() as u64).sum::<u64>());
    j.raw("route_runs", out.route_runs);
    j.raw("mpr_runs", out.mpr_runs);
    j.raw("tc_originated", out.tc_originated);
    j.raw("tc_forwarded", out.tc_forwarded);
    j.raw("cases", out.verdicts.len() as u64 + out.open_cases);
    j.raw("verdicts_intruder", out.count(Verdict::Intruder));
    j.raw("verdicts_well_behaving", out.count(Verdict::WellBehaving));
    j.raw("verdicts_unrecognized", out.count(Verdict::Unrecognized));
    j.raw("witness_requests", out.verdicts.iter().map(|(_, v)| v.witnesses as u64).sum::<u64>());
    j.raw("witness_answers", out.verdicts.iter().map(|(_, v)| v.answered as u64).sum::<u64>());
    j.raw("signature_matches", out.signature_matches);
    j.raw("trust_peers", out.trust_peers);

    if let Some(s) = &out.spans {
        for (name, span) in SPAN_NAMES.iter().zip(&s.by_class) {
            j.span(name, span);
        }
        j.raw("receive.frames", s.frames);
        let callbacks_ns: u64 = s.by_class.iter().map(|c| c.ns).sum();
        j.num("sim.engine.s", run_wall_s - callbacks_ns as f64 * 1e-9);
    }

    if args.mode == Mode::Record {
        let report = ScenarioReport {
            attackers: spoofer.into_iter().collect(),
            liars: Vec::new(),
            verdicts: out.verdicts,
            duration: SPAN,
            sim,
        };
        let live_events: Vec<_> = report
            .sim
            .node_ids()
            .map(|id| (id, extracted_events_of(&report.sim, id)))
            .filter(|(_, ev)| !ev.is_empty())
            .collect();
        let recording = record_scenario(&report);
        let silence =
            olsr_config().tc_interval * (4 * u64::from(olsr_config().flood_scope.near_stride()));
        let t = Instant::now();
        let replay = std::hint::black_box(replay_recording(&recording, silence));
        j.num("ids.replay.s", t.elapsed().as_secs_f64());
        j.raw("ids.records", recording.len());
        j.raw("ids.events", replay.node_events.iter().map(|(_, e)| e.len() as u64).sum::<u64>());
        j.raw(
            "ids.replay_matches",
            replay.verdicts == report.verdicts && replay.node_events == live_events,
        );
    }
    println!("{}", j.finish());
}
