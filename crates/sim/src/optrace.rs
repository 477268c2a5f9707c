//! What a finished op is filed into when spans are recorded: critical-path
//! blame, tail exemplars, and a black-box flight recorder.
//!
//! The cost side of an [`crate::OpLedger`] answers "what does the *average*
//! op cost"; this module answers "why was *this* op slow". At
//! [`Level::Spans`](crate::Level::Spans) every logical operation also keeps
//! a virtual-time span tree of causally-ordered [`Phase`]s (post, doorbell,
//! wire, server residency, CQE settle, retry rounds, lock waits, descriptor
//! revalidation, migration-seal stalls). When the op finishes, a
//! critical-path analyzer reduces the tree to an integer **blame vector**:
//! for every phase, the self-time on the op's path not already explained by
//! a nested phase, with the unattributed remainder charged to client logic.
//!
//! Two consumers sit on top, both owned by the simulation's
//! [`Recorder`]:
//!
//! * **Tail exemplars** — the K slowest ops per kind per virtual-time
//!   window, kept deterministically (ties broken by start time then op id)
//!   with their full span trees, for the `exemplars` block of the benchmark
//!   JSON and the `bench triage` report.
//! * **Flight recorder** — a fixed-size ring of compact records of the most
//!   recently finished ops. When an op finishes with a structured error the
//!   recorder dumps a self-contained *triage bundle* (the failing op's full
//!   tree, the ring, recent era notes, and a counter snapshot of the
//!   registry the op folds into) as a JSON document, retrievable via
//!   [`Recorder::last_bundle`] and optionally written to
//!   `$RSTORE_TRIAGE_DIR`.
//!
//! Recording is allocation-free in steady state: span storage is recycled
//! through a pool kept here, so only starting and finishing an op may
//! allocate (`tests/trace_overhead.rs` pins it).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::ledger::{OpMetrics, Phase, SpanRec, MAX_OPEN, NUM_PHASES};
use crate::trace::{push_escaped, Recorder, Ring};

/// Era notes retained for triage bundles; older notes are overwritten.
const MAX_ERA_NOTES: usize = 64;

/// Integer nanoseconds of critical-path self-time per [`Phase`], indexed by
/// `Phase as usize` (see [`Phase::ALL`]). Sums to the op's elapsed time.
pub type BlameVec = [u64; NUM_PHASES];

/// Compact record of one finished op, as kept by the flight-recorder ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightRec {
    /// Monotone per-simulation op id.
    pub id: u64,
    /// Op kind (`"get"`, `"put"`, `"read"`, …).
    pub kind: &'static str,
    /// Virtual start time, nanoseconds.
    pub start_ns: u64,
    /// Total elapsed virtual time, nanoseconds.
    pub elapsed_ns: u64,
    /// Critical-path blame vector (see [`BlameVec`]).
    pub blame: BlameVec,
    /// Number of spans recorded (before any drop cap).
    pub spans: u32,
    /// Structured error reason, if the op failed.
    pub error: Option<&'static str>,
}

/// A tail exemplar: one of the K slowest ops of its kind in its window,
/// with the full span tree retained.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exemplar {
    /// Compact summary (id, kind, timing, blame).
    pub rec: FlightRec,
    /// Full span tree, preorder.
    pub spans: Vec<SpanRec>,
    /// Window index (`start_ns / window_ns`).
    pub window: u64,
    /// Rank within its `(kind, window)` bucket (0 = slowest).
    pub rank: usize,
}

/// A cluster-era annotation (fault injected, extent sealed, …) retained for
/// triage bundles so a tail op can be read against cluster history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EraNote {
    /// Virtual time of the note, nanoseconds.
    pub at_ns: u64,
    /// Source layer (`"fault"`, `"lease"`, …).
    pub cat: &'static str,
    /// Note name from the registry table in `EXPERIMENTS.md`.
    pub name: &'static str,
    /// Free payload (node id, extent count, …).
    pub arg: u64,
}

/// What [`Level::Spans`](crate::Level::Spans) retains.
#[derive(Clone, Copy, Debug)]
pub struct ForensicsConfig {
    /// Exemplar window width in virtual nanoseconds (≥ 1).
    pub window_ns: u64,
    /// Slowest ops kept per kind per window.
    pub k_per_kind: usize,
    /// Flight-recorder ring capacity (finished-op records).
    pub ring: usize,
}

impl Default for ForensicsConfig {
    fn default() -> Self {
        ForensicsConfig {
            window_ns: 50_000_000, // 50 ms — matches the timeline experiments
            k_per_kind: 4,
            ring: 64,
        }
    }
}

struct ExRec {
    flight: FlightRec,
    spans: Vec<SpanRec>,
}

/// Exemplar bucket order: slowest first, ties broken by earlier start then
/// smaller op id — fully deterministic because ids are per-sim monotone.
fn ex_order(a: &FlightRec, b: &FlightRec) -> std::cmp::Ordering {
    b.elapsed_ns
        .cmp(&a.elapsed_ns)
        .then(a.start_ns.cmp(&b.start_ns))
        .then(a.id.cmp(&b.id))
}

/// Everything the recorder keeps about ops while spans are recorded.
#[derive(Default)]
pub(crate) struct OpLog {
    next_op_id: u64,
    window_ns: u64,
    k_per_kind: usize,
    exemplars: BTreeMap<(&'static str, u64), Vec<ExRec>>,
    exemplar_evicted: u64,
    flights: Ring<FlightRec>,
    pub notes: Ring<EraNote>,
    finished: u64,
    failed: u64,
    bundles: u64,
    last_bundle: Option<String>,
    span_pool: Vec<Vec<SpanRec>>,
    dump_dir: Option<std::path::PathBuf>,
}

impl OpLog {
    pub fn new(cfg: ForensicsConfig) -> Self {
        let dump_dir = std::env::var_os("RSTORE_TRIAGE_DIR").map(std::path::PathBuf::from);
        if let Some(dir) = &dump_dir {
            let _ = std::fs::create_dir_all(dir);
        }
        OpLog {
            window_ns: cfg.window_ns.max(1),
            k_per_kind: cfg.k_per_kind,
            flights: Ring::new(cfg.ring),
            notes: Ring::new(MAX_ERA_NOTES),
            dump_dir,
            ..OpLog::default()
        }
    }

    /// Draws the next op id and a recycled span list for an op that starts
    /// recording spans.
    pub fn open(&mut self) -> (u64, Vec<SpanRec>) {
        self.next_op_id += 1;
        (self.next_op_id, self.span_pool.pop().unwrap_or_default())
    }

    /// Files a finished op with the flight recorder and the exemplar
    /// reservoir and — when it failed — dumps a triage bundle.
    pub fn file(&mut self, op: &OpMetrics, flight: FlightRec, spans: Vec<SpanRec>) {
        self.finished += 1;
        op.finished.incr();
        if flight.error.is_some() {
            self.failed += 1;
            op.failed.incr();
            self.bundles += 1;
            let bundle = self.render_bundle(op, &flight, &spans);
            if let Some(dir) = &self.dump_dir {
                let file = format!(
                    "triage-{:04}-{}-op{}.json",
                    self.bundles, flight.kind, flight.id
                );
                let _ = std::fs::write(dir.join(file), &bundle);
            }
            op.bundles.incr();
            self.last_bundle = Some(bundle);
        }
        self.flights.push(flight);
        self.offer_exemplar(flight, spans);
    }

    fn recycle(&mut self, mut spans: Vec<SpanRec>) {
        spans.clear();
        if self.span_pool.len() < 64 {
            self.span_pool.push(spans);
        }
    }

    fn offer_exemplar(&mut self, flight: FlightRec, spans: Vec<SpanRec>) {
        let window = flight.start_ns / self.window_ns.max(1);
        let k = self.k_per_kind;
        if k == 0 {
            self.recycle(spans);
            return;
        }
        let mut recycled = None;
        let list = self.exemplars.entry((flight.kind, window)).or_default();
        let pos = list.partition_point(|e| ex_order(&e.flight, &flight).is_lt());
        if list.len() >= k && pos >= k {
            recycled = Some(spans);
        } else {
            if list.len() >= k {
                recycled = Some(list.pop().expect("k > 0").spans);
            }
            list.insert(pos, ExRec { flight, spans });
        }
        if let Some(v) = recycled {
            self.exemplar_evicted += 1;
            self.recycle(v);
        }
    }

    /// Renders the self-contained triage bundle for a failing op.
    fn render_bundle(&self, op: &OpMetrics, flight: &FlightRec, spans: &[SpanRec]) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\": \"rstore-triage-v1\", \"reason\": ");
        push_escaped(&mut out, flight.error.unwrap_or("unknown"));
        let _ = write!(out, ", \"bundle_seq\": {},\n \"op\": ", self.bundles);
        push_flight(&mut out, flight);
        out.push_str(",\n \"spans\": [");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n  {{\"phase\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}, \"depth\": {}}}",
                s.phase.name(),
                s.start_ns,
                s.dur_ns,
                s.depth
            );
        }
        out.push_str("],\n \"ring\": [");
        for (i, r) in self.flights.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            push_flight(&mut out, r);
        }
        let _ = write!(
            out,
            "],\n \"era_notes_dropped\": {}, ",
            self.notes.evicted()
        );
        out.push_str("\"era_notes\": [");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n  {{\"at_ns\": {}, \"cat\": \"{}\", \"name\": \"{}\", \"arg\": {}}}",
                n.at_ns, n.cat, n.name, n.arg
            );
        }
        out.push_str("],\n \"gauges\": {");
        // The registry is a cell of its own: reading it here, with the log
        // borrowed, re-enters nothing.
        for (i, name) in op.registry.counter_names().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('\n');
            out.push(' ');
            push_escaped(&mut out, name);
            let _ = write!(out, ": {}", op.registry.counter(name));
        }
        out.push_str("}}\n");
        out
    }
}

/// Writes one [`FlightRec`] as a JSON object (blame keyed by phase name).
fn push_flight(out: &mut String, r: &FlightRec) {
    let _ = write!(
        out,
        "{{\"id\": {}, \"kind\": \"{}\", \"start_ns\": {}, \"elapsed_ns\": {}, \"spans\": {}, \"error\": ",
        r.id, r.kind, r.start_ns, r.elapsed_ns, r.spans
    );
    match r.error {
        Some(e) => push_escaped(out, e),
        None => out.push_str("null"),
    }
    out.push_str(", \"blame\": {");
    for (i, p) in Phase::ALL.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {}", p.name(), r.blame[*p as usize]);
    }
    out.push_str("}}");
}

/// Reduces a preorder span list to a blame vector: each span's self-time
/// (duration minus nested children) is charged to its phase, and elapsed
/// time not covered by any root span is charged to [`Phase::Client`].
pub(crate) fn analyze(spans: &[SpanRec], elapsed_ns: u64) -> BlameVec {
    let mut blame = [0u64; NUM_PHASES];
    // (span index, child duration sum) — depth is clamped ≤ MAX_OPEN so a
    // fixed stack suffices and finish stays allocation-free for the tree
    // walk itself.
    let mut stack = [(0usize, 0u64); MAX_OPEN + 1];
    let mut sp = 0usize;
    let mut root_sum = 0u64;
    let mut close_top = |stack: &mut [(usize, u64)], sp: &mut usize, root: &mut u64| {
        *sp -= 1;
        let (idx, child) = stack[*sp];
        let s = &spans[idx];
        blame[s.phase as usize] += s.dur_ns.saturating_sub(child);
        if *sp > 0 {
            stack[*sp - 1].1 += s.dur_ns;
        } else {
            *root += s.dur_ns;
        }
    };
    for (i, s) in spans.iter().enumerate() {
        let d = (s.depth as usize).min(MAX_OPEN);
        while sp > d {
            close_top(&mut stack, &mut sp, &mut root_sum);
        }
        stack[sp] = (i, 0);
        sp += 1;
    }
    while sp > 0 {
        close_top(&mut stack, &mut sp, &mut root_sum);
    }
    blame[Phase::Client as usize] += elapsed_ns.saturating_sub(root_sum);
    blame
}

/// What the recorder has filed at [`Level::Spans`](crate::Level::Spans).
impl Recorder {
    /// All retained exemplars, deterministically ordered by kind, then
    /// window, then rank (slowest first).
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let log = self.shared.ops.borrow();
        let mut out = Vec::new();
        for ((_, window), list) in log.exemplars.iter() {
            for (rank, e) in list.iter().enumerate() {
                out.push(Exemplar {
                    rec: e.flight,
                    spans: e.spans.clone(),
                    window: *window,
                    rank,
                });
            }
        }
        out
    }

    /// Flight-recorder contents, oldest first.
    pub fn ring(&self) -> Vec<FlightRec> {
        self.shared.ops.borrow().flights.iter().copied().collect()
    }

    /// Era notes retained so far, oldest first.
    pub fn era_notes(&self) -> Vec<EraNote> {
        self.shared.ops.borrow().notes.iter().copied().collect()
    }

    /// Ops finished (with or without error).
    pub fn finished(&self) -> u64 {
        self.shared.ops.borrow().finished
    }

    /// Ops finished with a structured error.
    pub fn failed(&self) -> u64 {
        self.shared.ops.borrow().failed
    }

    /// Triage bundles produced.
    pub fn bundles(&self) -> u64 {
        self.shared.ops.borrow().bundles
    }

    /// The most recent triage bundle, if any op has failed.
    pub fn last_bundle(&self) -> Option<String> {
        self.shared.ops.borrow().last_bundle.clone()
    }

    /// Flight-recorder records evicted by ring wraparound.
    pub fn ring_evicted(&self) -> u64 {
        self.shared.ops.borrow().flights.evicted()
    }

    /// Exemplar candidates dropped because their bucket was full of slower
    /// ops.
    pub fn exemplar_evicted(&self) -> u64 {
        self.shared.ops.borrow().exemplar_evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{Completion, OpLedger};
    use crate::{Level, Metrics, NoteArg, Sim, SimTime};
    use std::rc::Rc;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// A recorder at `Level::Spans(cfg)` and the `get` op type of a fresh
    /// registry.
    fn spans(cfg: ForensicsConfig) -> (Recorder, Rc<OpMetrics>) {
        let rec = Sim::new().recorder();
        rec.enable(Level::Spans(cfg), 0);
        (rec, OpMetrics::resolve(&Metrics::new(), "get"))
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let rec = Sim::new().recorder();
        let get = OpMetrics::resolve(&Metrics::new(), "get");
        let op = OpLedger::start(&rec, &get, t(0));
        assert!(!op.enabled());
        let tok = op.begin(Phase::Wire, t(0));
        op.end(tok, t(10));
        op.failover(t(5));
        op.posted(t(0), 10);
        op.finish(t(100), Some("timeout"));
        rec.note("fault", "crash", NoteArg::Track).fire(1, 0);
        assert!(rec.era_notes().is_empty());
        assert_eq!(rec.finished(), 0);
        // Costs alone files nothing here either, and draws no op id.
        rec.enable(Level::Costs, 0);
        let op = OpLedger::start(&rec, &get, t(0));
        assert!(op.enabled());
        assert_eq!(op.id(), 0);
        op.finish(t(10), Some("timeout"));
        assert_eq!((rec.finished(), rec.bundles()), (0, 0));
    }

    #[test]
    fn blame_charges_self_time_and_client_residual() {
        let (rec, get) = spans(ForensicsConfig::default());
        let op = OpLedger::start(&rec, &get, t(1_000));
        // Root retry span 1000..1900 holding one WR's round trip — wire
        // 1100..1400, server 1400..1600 — then a separate root doorbell
        // 1900 with its post span 1900..1950.
        let retry = op.begin(Phase::Retry, t(1_000));
        op.completed(Completion {
            posted_at: t(1_100),
            post_ns: 0,
            resolved_at: t(1_600),
            now: t(1_600),
            nic_ns: 100,
            ok: true,
            response_bytes: 0,
        });
        op.end(retry, t(1_900));
        op.posted(t(1_900), 50);
        op.finish(t(2_000), None);
        let ring = rec.ring();
        assert_eq!(ring.len(), 1);
        let b = ring[0].blame;
        assert_eq!(b[Phase::Wire as usize], 300);
        assert_eq!(b[Phase::Server as usize], 200);
        // Retry self-time: 900 − 300 − 200.
        assert_eq!(b[Phase::Retry as usize], 400);
        assert_eq!(b[Phase::Post as usize], 50);
        // Elapsed 1000 − roots (900 + 50) = 50 client.
        assert_eq!(b[Phase::Client as usize], 50);
        assert_eq!(b.iter().sum::<u64>(), 1_000);
        assert_eq!(ring[0].spans, 5);
    }

    #[test]
    fn exemplars_keep_k_slowest_deterministically() {
        let (rec, get) = spans(ForensicsConfig {
            window_ns: 1_000_000,
            k_per_kind: 2,
            ring: 4,
        });
        for (start, dur) in [(0u64, 100u64), (10, 500), (20, 300), (30, 500)] {
            OpLedger::start(&rec, &get, t(start)).finish(t(start + dur), None);
        }
        let ex = rec.exemplars();
        assert_eq!(ex.len(), 2);
        // Two ops tie at 500 ns; the earlier start wins rank 0.
        assert_eq!(ex[0].rec.elapsed_ns, 500);
        assert_eq!(ex[0].rec.start_ns, 10);
        assert_eq!(ex[0].rank, 0);
        assert_eq!(ex[1].rec.elapsed_ns, 500);
        assert_eq!(ex[1].rec.start_ns, 30);
        assert_eq!(rec.exemplar_evicted(), 2);
    }

    #[test]
    fn flight_ring_wraps_and_keeps_newest() {
        let (rec, get) = spans(ForensicsConfig {
            window_ns: 1_000,
            k_per_kind: 1,
            ring: 2,
        });
        for i in 0..5u64 {
            OpLedger::start(&rec, &get, t(i * 10)).finish(t(i * 10 + 1), None);
        }
        let ring = rec.ring();
        assert_eq!(ring.len(), 2);
        assert_eq!(rec.ring_evicted(), 3);
        assert_eq!(ring[0].id, 4);
        assert_eq!(ring[1].id, 5);
    }

    #[test]
    fn error_finish_produces_a_bundle_with_ring_and_notes() {
        let (rec, get) = spans(ForensicsConfig::default());
        rec.note("fault", "crash", NoteArg::Track).fire(3, 0);
        OpLedger::start(&rec, &get, t(0)).finish(t(10), None);
        let bad = OpLedger::start(&rec, &get, t(20));
        let tok = bad.begin(Phase::Retry, t(20));
        bad.end(tok, t(90));
        bad.finish(t(100), Some("timeout"));
        assert_eq!(rec.failed(), 1);
        assert_eq!(rec.bundles(), 1);
        let bundle = rec.last_bundle().expect("bundle");
        assert!(bundle.contains("\"schema\": \"rstore-triage-v1\""));
        assert!(bundle.contains("\"reason\": \"timeout\""));
        assert!(bundle.contains("\"phase\": \"retry\""));
        assert!(bundle.contains("\"name\": \"crash\", \"arg\": 3"));
        // The ring snapshot includes the earlier successful op.
        assert!(bundle.contains("\"id\": 1"));
        // The gauges are the registry the op folds into — there is nothing
        // to attach, in any order — and already count this op.
        assert!(bundle.contains("\"optrace.failed\": 1"));
        assert!(bundle.contains("\"ops.get.count\": 1"));
    }

    #[test]
    fn bundles_are_dumped_to_the_triage_dir_when_configured() {
        let dir = std::env::temp_dir().join(format!("rstore_triage_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The env var is sampled once, at enable(); restore it right after
        // so concurrently-enabling tests observe it for at most a moment.
        std::env::set_var("RSTORE_TRIAGE_DIR", &dir);
        let rec = Sim::new().recorder();
        rec.enable(Level::Spans(ForensicsConfig::default()), 0);
        std::env::remove_var("RSTORE_TRIAGE_DIR");

        let put = OpMetrics::resolve(&Metrics::new(), "put");
        let op = OpLedger::start(&rec, &put, t(0));
        let tok = op.begin(Phase::Retry, t(0));
        op.end(tok, t(900));
        op.finish(t(1_000), Some("corruption"));

        // Deterministic artifact name: bundle seq, kind, op id.
        let path = dir.join("triage-0001-put-op1.json");
        let on_disk = std::fs::read_to_string(&path).expect("bundle file must exist");
        assert_eq!(
            Some(on_disk.as_str()),
            rec.last_bundle().as_deref(),
            "file dump and in-memory bundle must match"
        );
        assert!(on_disk.contains("\"schema\": \"rstore-triage-v1\""));
        assert!(on_disk.contains("\"reason\": \"corruption\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_is_idempotent_across_clones() {
        let (rec, get) = spans(ForensicsConfig::default());
        let op = OpLedger::start(&rec, &get, t(0));
        let clone = op.clone();
        op.finish(t(50), None);
        clone.finish(t(999), Some("timeout"));
        assert_eq!(rec.finished(), 1);
        assert_eq!(rec.failed(), 0);
        assert_eq!(rec.ring().len(), 1);
        assert_eq!(rec.ring()[0].elapsed_ns, 50);
    }

    #[test]
    fn steady_state_reuses_pooled_span_storage() {
        let (rec, get) = spans(ForensicsConfig {
            window_ns: 1,
            k_per_kind: 0,
            ring: 1,
        });
        // With k = 0 every op's span vec returns to the pool; the second op
        // reuses the first one's storage.
        let a = OpLedger::start(&rec, &get, t(0));
        a.posted(t(0), 5);
        a.finish(t(5), None);
        assert!(rec.shared.ops.borrow().span_pool[0].capacity() >= 2);
        let b = OpLedger::start(&rec, &get, t(10));
        assert!(rec.shared.ops.borrow().span_pool.is_empty());
        b.posted(t(10), 5);
        b.finish(t(15), None);
        assert_eq!(rec.finished(), 2);
        assert_eq!(rec.ring()[0].spans, 2);
    }

    #[test]
    fn era_notes_are_bounded() {
        let (rec, get) = spans(ForensicsConfig::default());
        let loss = rec.note("fault", "loss_start", NoteArg::Arg);
        for i in 0..100 {
            loss.fire(0, i);
        }
        // A flight recorder keeps the faults nearest the failure: the last
        // 64, not the first.
        let kept: Vec<u64> = rec.era_notes().iter().map(|n| n.arg).collect();
        assert_eq!(kept, (36..100).collect::<Vec<u64>>());
        OpLedger::start(&rec, &get, t(0)).finish(t(1), Some("timeout"));
        let bundle = rec.last_bundle().expect("bundle");
        assert!(bundle.contains("\"era_notes_dropped\": 36"));
        assert!(bundle.contains("\"arg\": 99}") && !bundle.contains("\"arg\": 35}"));
    }
}
