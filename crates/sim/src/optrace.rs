//! Causal per-operation forensics: span trees, critical-path blame,
//! tail exemplars, and a black-box flight recorder.
//!
//! The cost ledger ([`crate::ledger`]) answers "what does the *average* op
//! cost"; this module answers "why was *this* op slow". Each logical
//! operation gets an [`OpTrace`] — an op id, a kind, and a virtual-time
//! span tree recording causally-ordered [`Phase`]s (post, doorbell, wire,
//! server residency, CQE settle, retry rounds, lock waits, descriptor
//! revalidation, migration-seal stalls). When the op finishes, a
//! critical-path analyzer reduces the tree to an integer **blame vector**:
//! for every phase, the self-time on the op's path not already explained by
//! a nested phase, with the unattributed remainder charged to client logic.
//!
//! Two consumers sit on top, both owned by the per-simulation
//! [`Forensics`] registry:
//!
//! * **Tail exemplars** — the K slowest ops per kind per virtual-time
//!   window, kept deterministically (ties broken by start time then op id)
//!   with their full span trees, for the `exemplars` block of the benchmark
//!   JSON and the `bench triage` report.
//! * **Flight recorder** — a fixed-size ring of compact records of the most
//!   recently finished ops. When an op finishes with a structured error the
//!   registry dumps a self-contained *triage bundle* (the failing op's full
//!   tree, the ring, recent era notes, and a counter snapshot) as a JSON
//!   document, retrievable via [`Forensics::last_bundle`] and optionally
//!   written to `$RSTORE_TRIAGE_DIR`.
//!
//! Like `trace` and `ledger`, a disabled [`OpTrace`] is free: no
//! allocation, every record call is a branch on `None`. Enabled recording
//! is allocation-free in steady state: span storage is recycled through a
//! pool owned by the registry, so only [`Forensics::start`] and
//! [`OpTrace::finish`] may allocate (the same discipline
//! `tests/trace_overhead.rs` pins for the ledger).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::metrics::{Counter, Metrics};
use crate::time::SimTime;

/// Number of [`Phase`] variants (the length of a [`BlameVec`]).
pub const NUM_PHASES: usize = 12;

/// Maximum span-tree nesting depth recorded; deeper spans are clamped.
const MAX_OPEN: usize = 16;

/// Spans recorded per op before further records are dropped (counted).
const MAX_SPANS: usize = 8192;

/// Era notes retained for triage bundles before new notes are dropped.
const MAX_ERA_NOTES: usize = 64;

/// A causally-distinct phase of a logical operation's critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// WR build + posting overhead on the client NIC.
    Post = 0,
    /// NIC doorbell ring (instant; recorded as a zero-duration mark).
    Doorbell = 1,
    /// Fabric transmission time.
    Wire = 2,
    /// Simulated NIC / server-side residency.
    Server = 3,
    /// Completion-queue settle: WR resolved but held for in-order release.
    Cqe = 4,
    /// Retry rounds: backoff and re-posting after transient failures.
    Retry = 5,
    /// Failover: advancing to a different replica.
    Failover = 6,
    /// KV slot lock-wait (seqlock held by a concurrent writer).
    LockWait = 7,
    /// Breaking an orphaned KV slot lock via CAS.
    LockBreak = 8,
    /// Descriptor / generation revalidation against the master.
    Reval = 9,
    /// Stall while an extent is sealed for migration or repair.
    Seal = 10,
    /// Client-side logic: elapsed time no other phase explains.
    Client = 11,
}

impl Phase {
    /// Every phase, in blame-vector index order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Post,
        Phase::Doorbell,
        Phase::Wire,
        Phase::Server,
        Phase::Cqe,
        Phase::Retry,
        Phase::Failover,
        Phase::LockWait,
        Phase::LockBreak,
        Phase::Reval,
        Phase::Seal,
        Phase::Client,
    ];

    /// Stable lowercase name used in exports and registry docs.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Post => "post",
            Phase::Doorbell => "doorbell",
            Phase::Wire => "wire",
            Phase::Server => "server",
            Phase::Cqe => "cqe",
            Phase::Retry => "retry",
            Phase::Failover => "failover",
            Phase::LockWait => "lock_wait",
            Phase::LockBreak => "lock_break",
            Phase::Reval => "reval",
            Phase::Seal => "seal",
            Phase::Client => "client",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Integer nanoseconds of critical-path self-time per [`Phase`], indexed by
/// `Phase as usize` (see [`Phase::ALL`]). Sums to the op's elapsed time.
pub type BlameVec = [u64; NUM_PHASES];

/// One recorded span of an op's tree, in preorder; `depth` encodes nesting
/// (a span's parent is the nearest earlier span with a smaller depth).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRec {
    /// The phase this span attributes time to.
    pub phase: Phase,
    /// Virtual start time, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds (0 for marks).
    pub dur_ns: u64,
    /// Nesting depth (0 = root).
    pub depth: u8,
}

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
    /// Source layer (`"fabric"`, `"master"`, …).
    pub cat: &'static str,
    /// Note name from the registry table in `EXPERIMENTS.md`.
    pub name: &'static str,
    /// Free payload (node id, extent id, …).
    pub arg: u64,
}

/// Configuration for [`Forensics::enable`].
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

/// The attached registry (snapshotted into triage bundles) and the
/// `optrace.*` counters mirrored into it.
struct Gauges {
    metrics: Metrics,
    finished: Counter,
    failed: Counter,
    bundles: Counter,
}

#[derive(Default)]
pub(crate) struct ForensicsBuf {
    enabled: bool,
    next_op_id: u64,
    window_ns: u64,
    k_per_kind: usize,
    exemplars: BTreeMap<(&'static str, u64), Vec<ExRec>>,
    exemplar_evicted: u64,
    ring: Vec<FlightRec>,
    ring_cap: usize,
    ring_head: usize,
    ring_evicted: u64,
    finished: u64,
    failed: u64,
    bundles: u64,
    last_bundle: Option<String>,
    era_notes: Vec<EraNote>,
    era_dropped: u64,
    span_pool: Vec<Vec<SpanRec>>,
    metrics: Option<Gauges>,
    dump_dir: Option<std::path::PathBuf>,
}

impl ForensicsBuf {
    fn ring_push(&mut self, rec: FlightRec) {
        if self.ring.len() < self.ring_cap {
            self.ring.push(rec);
        } else if self.ring_cap > 0 {
            self.ring[self.ring_head] = rec;
            self.ring_head = (self.ring_head + 1) % self.ring_cap;
            self.ring_evicted += 1;
        }
    }

    fn ring_snapshot(&self) -> Vec<FlightRec> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.ring_head..]);
        out.extend_from_slice(&self.ring[..self.ring_head]);
        out
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
        let mut evicted = false;
        let list = self.exemplars.entry((flight.kind, window)).or_default();
        let pos = list.partition_point(|e| ex_order(&e.flight, &flight).is_lt());
        if list.len() >= k && pos >= k {
            recycled = Some(spans);
            evicted = true;
        } else {
            if list.len() >= k {
                recycled = Some(list.pop().expect("k > 0").spans);
                evicted = true;
            }
            list.insert(pos, ExRec { flight, spans });
        }
        if evicted {
            self.exemplar_evicted += 1;
        }
        if let Some(v) = recycled {
            self.recycle(v);
        }
    }

    /// Renders the self-contained triage bundle for a failing op.
    fn render_bundle(&self, flight: &FlightRec, spans: &[SpanRec]) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\": \"rstore-triage-v1\", \"reason\": ");
        crate::trace::push_escaped(&mut out, flight.error.unwrap_or("unknown"));
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
        for (i, r) in self.ring_snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            push_flight(&mut out, r);
        }
        let _ = write!(out, "],\n \"era_notes_dropped\": {}, ", self.era_dropped);
        out.push_str("\"era_notes\": [");
        for (i, n) in self.era_notes.iter().enumerate() {
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
        if let Some(Gauges { metrics: m, .. }) = &self.metrics {
            for (i, name) in m.counter_names().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push('\n');
                out.push(' ');
                crate::trace::push_escaped(&mut out, name);
                let _ = write!(out, ": {}", m.counter(name));
            }
        }
        out.push_str("}}\n");
        out
    }
}

/// Writes one [`FlightRec`] as a JSON object (blame keyed by phase name).
fn push_flight(out: &mut String, r: &FlightRec) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"id\": {}, \"kind\": \"{}\", \"start_ns\": {}, \"elapsed_ns\": {}, \"spans\": {}, \"error\": ",
        r.id, r.kind, r.start_ns, r.elapsed_ns, r.spans
    );
    match r.error {
        Some(e) => crate::trace::push_escaped(out, e),
        None => out.push_str("null"),
    }
    out.push_str(", \"blame\": {");
    for (i, p) in Phase::ALL.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {}", p.name(), r.blame[p.idx()]);
    }
    out.push_str("}}");
}

struct OpState {
    spans: Vec<SpanRec>,
    open: [u32; MAX_OPEN],
    open_len: u8,
    dropped: u32,
}

struct OpInner {
    buf: Rc<RefCell<ForensicsBuf>>,
    id: u64,
    kind: &'static str,
    started: SimTime,
    state: RefCell<OpState>,
    finished: Cell<bool>,
}

/// Token for an open span returned by [`OpTrace::begin`]; pass it back to
/// [`OpTrace::end`]. Inert when the trace is disabled.
#[derive(Clone, Copy, Debug)]
#[must_use = "a begun span should be ended with OpTrace::end"]
pub struct SpanToken(u32);

const DEAD_TOKEN: SpanToken = SpanToken(u32::MAX);

/// Handle to one logical op's span tree.
///
/// Cheap to clone (an `Option<Rc>`); clones share the tree, so the handle
/// rides inside the [`crate::OpLedger`] captured by in-flight work
/// requests. All record methods take explicit virtual times so the hot
/// paths need no clock access; the disabled default records nothing and
/// never allocates.
#[derive(Clone, Default)]
pub struct OpTrace {
    inner: Option<Rc<OpInner>>,
}

impl OpTrace {
    /// A trace that ignores every record call. Free: no allocation, each
    /// call is a branch.
    pub fn disabled() -> Self {
        OpTrace { inner: None }
    }

    /// True if spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The per-simulation op id (0 when disabled).
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.id)
    }

    /// Opens a span of `phase` at `now`; close it with [`OpTrace::end`].
    /// Spans opened while another is open become its children.
    pub fn begin(&self, phase: Phase, now: SimTime) -> SpanToken {
        let Some(inner) = &self.inner else {
            return DEAD_TOKEN;
        };
        let mut st = inner.state.borrow_mut();
        if st.spans.len() >= MAX_SPANS {
            st.dropped += 1;
            return DEAD_TOKEN;
        }
        let depth = st.open_len.min(MAX_OPEN as u8 - 1);
        let idx = st.spans.len() as u32;
        st.spans.push(SpanRec {
            phase,
            start_ns: now.as_nanos(),
            dur_ns: 0,
            depth,
        });
        if (st.open_len as usize) < MAX_OPEN {
            let at = st.open_len as usize;
            st.open[at] = idx;
            st.open_len += 1;
        }
        SpanToken(idx)
    }

    /// Closes the span opened by `token`, stamping its duration.
    pub fn end(&self, token: SpanToken, now: SimTime) {
        let Some(inner) = &self.inner else { return };
        if token.0 == u32::MAX {
            return;
        }
        let mut st = inner.state.borrow_mut();
        let idx = token.0 as usize;
        if let Some(s) = st.spans.get_mut(idx) {
            s.dur_ns = now.as_nanos().saturating_sub(s.start_ns);
        }
        // Pop the open stack down past this span (spans close LIFO; anything
        // above a span being closed is already logically closed).
        while st.open_len > 0 && st.open[st.open_len as usize - 1] >= token.0 {
            st.open_len -= 1;
        }
    }

    /// Records an instant mark of `phase` (a zero-duration span) at `now`.
    pub fn mark(&self, phase: Phase, now: SimTime) {
        let ns = now.as_nanos();
        self.span_ns(phase, ns, 0);
    }

    /// Records a completed span of `phase` from `start` to `end`,
    /// retroactively. It nests under whatever span is currently open.
    pub fn span_at(&self, phase: Phase, start: SimTime, end: SimTime) {
        self.span_ns(
            phase,
            start.as_nanos(),
            end.saturating_since(start).as_nanos() as u64,
        );
    }

    /// [`OpTrace::span_at`] with raw nanosecond start/duration, for callers
    /// that already carved an elapsed interval into per-phase shares.
    pub fn span_ns(&self, phase: Phase, start_ns: u64, dur_ns: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.borrow_mut();
        if st.spans.len() >= MAX_SPANS {
            st.dropped += 1;
            return;
        }
        let depth = st.open_len.min(MAX_OPEN as u8);
        st.spans.push(SpanRec {
            phase,
            start_ns,
            dur_ns,
            depth,
        });
    }

    /// Number of spans recorded so far (0 when disabled).
    pub fn span_count(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |i| i.state.borrow().spans.len())
    }

    /// Finishes the op at `now`: computes the blame vector, files the op
    /// with the flight recorder and exemplar reservoir, and — when `error`
    /// is set — makes the registry dump a triage bundle. Idempotent across
    /// clones; only the first call records.
    pub fn finish(&self, now: SimTime, error: Option<&'static str>) {
        let Some(inner) = &self.inner else { return };
        if inner.finished.replace(true) {
            return;
        }
        let started_ns = inner.started.as_nanos();
        let elapsed = now.saturating_since(inner.started).as_nanos() as u64;
        let mut st = inner.state.borrow_mut();
        let spans = std::mem::take(&mut st.spans);
        let span_count = spans.len() as u32 + st.dropped;
        drop(st);
        let blame = analyze(&spans, elapsed);
        let flight = FlightRec {
            id: inner.id,
            kind: inner.kind,
            start_ns: started_ns,
            elapsed_ns: elapsed,
            blame,
            spans: span_count,
            error,
        };
        let mut buf = inner.buf.borrow_mut();
        buf.finished += 1;
        if error.is_some() {
            buf.failed += 1;
        }
        if let Some(g) = &buf.metrics {
            g.finished.incr();
            if error.is_some() {
                g.failed.incr();
            }
        }
        if error.is_some() {
            buf.bundles += 1;
            let bundle = buf.render_bundle(&flight, &spans);
            if let Some(dir) = &buf.dump_dir {
                let file = format!(
                    "triage-{:04}-{}-op{}.json",
                    buf.bundles, inner.kind, inner.id
                );
                let _ = std::fs::write(dir.join(file), &bundle);
            }
            if let Some(g) = &buf.metrics {
                g.bundles.incr();
            }
            buf.last_bundle = Some(bundle);
        }
        buf.ring_push(flight);
        buf.offer_exemplar(flight, spans);
    }
}

/// Reduces a preorder span list to a blame vector: each span's self-time
/// (duration minus nested children) is charged to its phase, and elapsed
/// time not covered by any root span is charged to [`Phase::Client`].
fn analyze(spans: &[SpanRec], elapsed_ns: u64) -> BlameVec {
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
        blame[s.phase.idx()] += s.dur_ns.saturating_sub(child);
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
    blame[Phase::Client.idx()] += elapsed_ns.saturating_sub(root_sum);
    blame
}

/// Clonable handle to the simulation's forensics registry.
///
/// Obtain one with [`crate::Sim::forensics`]; all clones for a given
/// simulation share state. Forensics start disabled — call
/// [`Forensics::enable`] to record.
#[derive(Clone)]
pub struct Forensics {
    buf: Rc<RefCell<ForensicsBuf>>,
    clock: Rc<dyn Fn() -> SimTime>,
}

impl std::fmt::Debug for Forensics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let buf = self.buf.borrow();
        f.debug_struct("Forensics")
            .field("enabled", &buf.enabled)
            .field("finished", &buf.finished)
            .field("failed", &buf.failed)
            .finish()
    }
}

impl Forensics {
    pub(crate) fn from_parts(
        buf: Rc<RefCell<ForensicsBuf>>,
        clock: Rc<dyn Fn() -> SimTime>,
    ) -> Self {
        Forensics { buf, clock }
    }

    pub(crate) fn new_buf() -> Rc<RefCell<ForensicsBuf>> {
        Rc::new(RefCell::new(ForensicsBuf::default()))
    }

    /// Starts recording with `cfg`, clearing any previous state. When the
    /// `RSTORE_TRIAGE_DIR` environment variable is set, triage bundles are
    /// additionally written there as JSON files.
    pub fn enable(&self, cfg: ForensicsConfig) {
        let dump_dir = std::env::var_os("RSTORE_TRIAGE_DIR").map(std::path::PathBuf::from);
        if let Some(dir) = &dump_dir {
            let _ = std::fs::create_dir_all(dir);
        }
        let mut buf = self.buf.borrow_mut();
        *buf = ForensicsBuf {
            enabled: true,
            window_ns: cfg.window_ns.max(1),
            k_per_kind: cfg.k_per_kind,
            ring: Vec::with_capacity(cfg.ring),
            ring_cap: cfg.ring,
            era_notes: Vec::with_capacity(MAX_ERA_NOTES),
            dump_dir,
            ..ForensicsBuf::default()
        };
    }

    /// Stops recording (collected state stays readable).
    pub fn disable(&self) {
        self.buf.borrow_mut().enabled = false;
    }

    /// True while recording.
    pub fn is_enabled(&self) -> bool {
        self.buf.borrow().enabled
    }

    /// Attaches a metrics registry: finished/failed/bundle counts are
    /// mirrored as `optrace.*` counters and triage bundles embed a snapshot
    /// of all counters.
    pub fn attach_metrics(&self, metrics: &Metrics) {
        self.buf.borrow_mut().metrics = Some(Gauges {
            metrics: metrics.clone(),
            finished: metrics.counter_handle("optrace.finished"),
            failed: metrics.counter_handle("optrace.failed"),
            bundles: metrics.counter_handle("optrace.bundles"),
        });
    }

    /// Starts a trace for one `kind` op at `now`. Returns the free
    /// [`OpTrace::disabled`] when forensics are off.
    pub fn start(&self, kind: &'static str, now: SimTime) -> OpTrace {
        let mut buf = self.buf.borrow_mut();
        if !buf.enabled {
            return OpTrace::disabled();
        }
        buf.next_op_id += 1;
        let id = buf.next_op_id;
        let spans = buf.span_pool.pop().unwrap_or_default();
        drop(buf);
        OpTrace {
            inner: Some(Rc::new(OpInner {
                buf: self.buf.clone(),
                id,
                kind,
                started: now,
                state: RefCell::new(OpState {
                    spans,
                    open: [0; MAX_OPEN],
                    open_len: 0,
                    dropped: 0,
                }),
                finished: Cell::new(false),
            })),
        }
    }

    /// Records a cluster-era note (fault injected, extent sealed, …) at the
    /// current virtual time, kept (bounded) for triage bundles.
    pub fn note(&self, cat: &'static str, name: &'static str, arg: u64) {
        let mut buf = self.buf.borrow_mut();
        if !buf.enabled {
            return;
        }
        if buf.era_notes.len() >= MAX_ERA_NOTES {
            buf.era_dropped += 1;
            return;
        }
        let at_ns = (self.clock)().as_nanos();
        buf.era_notes.push(EraNote {
            at_ns,
            cat,
            name,
            arg,
        });
    }

    /// All retained exemplars, deterministically ordered by kind, then
    /// window, then rank (slowest first).
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let buf = self.buf.borrow();
        let mut out = Vec::new();
        for ((_, window), list) in buf.exemplars.iter() {
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
        self.buf.borrow().ring_snapshot()
    }

    /// Era notes retained so far.
    pub fn era_notes(&self) -> Vec<EraNote> {
        self.buf.borrow().era_notes.clone()
    }

    /// Ops finished (with or without error).
    pub fn finished(&self) -> u64 {
        self.buf.borrow().finished
    }

    /// Ops finished with a structured error.
    pub fn failed(&self) -> u64 {
        self.buf.borrow().failed
    }

    /// Triage bundles produced.
    pub fn bundles(&self) -> u64 {
        self.buf.borrow().bundles
    }

    /// The most recent triage bundle, if any op has failed.
    pub fn last_bundle(&self) -> Option<String> {
        self.buf.borrow().last_bundle.clone()
    }

    /// Flight-recorder records evicted by ring wraparound.
    pub fn ring_evicted(&self) -> u64 {
        self.buf.borrow().ring_evicted
    }

    /// Exemplar candidates dropped because their bucket was full of slower
    /// ops.
    pub fn exemplar_evicted(&self) -> u64 {
        self.buf.borrow().exemplar_evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn forensics() -> Forensics {
        Forensics::from_parts(Forensics::new_buf(), Rc::new(|| SimTime::ZERO))
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let tr = OpTrace::disabled();
        assert!(!tr.enabled());
        let tok = tr.begin(Phase::Wire, t(0));
        tr.end(tok, t(10));
        tr.mark(Phase::Doorbell, t(5));
        tr.span_ns(Phase::Post, 0, 10);
        tr.finish(t(100), Some("timeout"));
        assert_eq!(tr.span_count(), 0);
        let f = forensics();
        assert!(!f.is_enabled());
        assert!(!f.start("get", t(0)).enabled());
        f.note("fabric", "fault.crash", 1);
        assert!(f.era_notes().is_empty());
        assert_eq!(f.finished(), 0);
    }

    #[test]
    fn blame_charges_self_time_and_client_residual() {
        let f = forensics();
        f.enable(ForensicsConfig::default());
        let tr = f.start("get", t(1_000));
        // Root retry span 1000..1900 with nested wire 1100..1400 and
        // server 1400..1600; separate root post span 1900..1950.
        let retry = tr.begin(Phase::Retry, t(1_000));
        tr.span_at(Phase::Wire, t(1_100), t(1_400));
        tr.span_at(Phase::Server, t(1_400), t(1_600));
        tr.end(retry, t(1_900));
        tr.span_at(Phase::Post, t(1_900), t(1_950));
        tr.finish(t(2_000), None);
        let ring = f.ring();
        assert_eq!(ring.len(), 1);
        let b = ring[0].blame;
        assert_eq!(b[Phase::Wire.idx()], 300);
        assert_eq!(b[Phase::Server.idx()], 200);
        // Retry self-time: 900 − 300 − 200.
        assert_eq!(b[Phase::Retry.idx()], 400);
        assert_eq!(b[Phase::Post.idx()], 50);
        // Elapsed 1000 − roots (900 + 50) = 50 client.
        assert_eq!(b[Phase::Client.idx()], 50);
        assert_eq!(b.iter().sum::<u64>(), 1_000);
        assert_eq!(ring[0].spans, 4);
    }

    #[test]
    fn exemplars_keep_k_slowest_deterministically() {
        let f = forensics();
        f.enable(ForensicsConfig {
            window_ns: 1_000_000,
            k_per_kind: 2,
            ring: 4,
        });
        for (start, dur) in [(0u64, 100u64), (10, 500), (20, 300), (30, 500)] {
            let tr = f.start("get", t(start));
            tr.finish(t(start + dur), None);
        }
        let ex = f.exemplars();
        assert_eq!(ex.len(), 2);
        // Two ops tie at 500 ns; the earlier start wins rank 0.
        assert_eq!(ex[0].rec.elapsed_ns, 500);
        assert_eq!(ex[0].rec.start_ns, 10);
        assert_eq!(ex[0].rank, 0);
        assert_eq!(ex[1].rec.elapsed_ns, 500);
        assert_eq!(ex[1].rec.start_ns, 30);
        assert_eq!(f.exemplar_evicted(), 2);
    }

    #[test]
    fn flight_ring_wraps_and_keeps_newest() {
        let f = forensics();
        f.enable(ForensicsConfig {
            window_ns: 1_000,
            k_per_kind: 1,
            ring: 2,
        });
        for i in 0..5u64 {
            let tr = f.start("put", t(i * 10));
            tr.finish(t(i * 10 + 1), None);
        }
        let ring = f.ring();
        assert_eq!(ring.len(), 2);
        assert_eq!(f.ring_evicted(), 3);
        assert_eq!(ring[0].id, 4);
        assert_eq!(ring[1].id, 5);
    }

    #[test]
    fn error_finish_produces_a_bundle_with_ring_and_notes() {
        let f = forensics();
        f.enable(ForensicsConfig::default());
        f.note("fabric", "fault.crash", 3);
        let ok = f.start("get", t(0));
        ok.finish(t(10), None);
        let bad = f.start("get", t(20));
        let tok = bad.begin(Phase::Retry, t(20));
        bad.end(tok, t(90));
        bad.finish(t(100), Some("timeout"));
        assert_eq!(f.failed(), 1);
        assert_eq!(f.bundles(), 1);
        let bundle = f.last_bundle().expect("bundle");
        assert!(bundle.contains("\"schema\": \"rstore-triage-v1\""));
        assert!(bundle.contains("\"reason\": \"timeout\""));
        assert!(bundle.contains("\"phase\": \"retry\""));
        assert!(bundle.contains("fault.crash"));
        // The ring snapshot includes the earlier successful op.
        assert!(bundle.contains("\"id\": 1"));
    }

    #[test]
    fn bundles_are_dumped_to_the_triage_dir_when_configured() {
        let dir = std::env::temp_dir().join(format!("rstore_triage_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The env var is sampled once, at enable(); restore it right after
        // so concurrently-enabling tests observe it for at most a moment.
        std::env::set_var("RSTORE_TRIAGE_DIR", &dir);
        let f = forensics();
        f.enable(ForensicsConfig::default());
        std::env::remove_var("RSTORE_TRIAGE_DIR");

        let tr = f.start("put", t(0));
        let tok = tr.begin(Phase::Retry, t(0));
        tr.end(tok, t(900));
        tr.finish(t(1_000), Some("corruption"));

        // Deterministic artifact name: bundle seq, kind, op id.
        let path = dir.join("triage-0001-put-op1.json");
        let on_disk = std::fs::read_to_string(&path).expect("bundle file must exist");
        assert_eq!(
            Some(on_disk.as_str()),
            f.last_bundle().as_deref(),
            "file dump and in-memory bundle must match"
        );
        assert!(on_disk.contains("\"schema\": \"rstore-triage-v1\""));
        assert!(on_disk.contains("\"reason\": \"corruption\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_is_idempotent_across_clones() {
        let f = forensics();
        f.enable(ForensicsConfig::default());
        let tr = f.start("get", t(0));
        let clone = tr.clone();
        tr.finish(t(50), None);
        clone.finish(t(999), Some("timeout"));
        assert_eq!(f.finished(), 1);
        assert_eq!(f.failed(), 0);
        assert_eq!(f.ring().len(), 1);
        assert_eq!(f.ring()[0].elapsed_ns, 50);
    }

    #[test]
    fn steady_state_reuses_pooled_span_storage() {
        let f = forensics();
        f.enable(ForensicsConfig {
            window_ns: 1,
            k_per_kind: 0,
            ring: 1,
        });
        // With k = 0 every op's span vec returns to the pool; the second op
        // reuses the first one's storage.
        let a = f.start("get", t(0));
        a.span_ns(Phase::Wire, 0, 5);
        a.finish(t(5), None);
        let b = f.start("get", t(10));
        b.span_ns(Phase::Wire, 10, 5);
        assert_eq!(b.span_count(), 1);
        b.finish(t(15), None);
        assert_eq!(f.finished(), 2);
    }

    #[test]
    fn era_notes_are_bounded() {
        let f = forensics();
        f.enable(ForensicsConfig::default());
        for i in 0..(MAX_ERA_NOTES as u64 + 10) {
            f.note("fabric", "fault.loss", i);
        }
        assert_eq!(f.era_notes().len(), MAX_ERA_NOTES);
    }
}
