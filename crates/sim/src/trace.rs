//! The recording spine: one [`Recorder`] per simulation, one switch, one
//! event call.
//!
//! What to record is decided once, on the control path. A layer resolves,
//! next to its [`Counter`]/[`Hist`] handles, one [`Event`] per observable
//! fact — the counters to bump (if any), the trace `cat`/`name`, the era
//! note it leaves (if any) — and its call sites fire that event once with
//! `(track, arg)`. [`Recorder::enable`] is the only switch: it sets the
//! per-op [`Level`] (`Off < Costs < Spans`; see [`crate::ledger`]) and the
//! capacity of the event ring. With everything off, firing an event is the
//! counter bump it always was and an op handle is a `None`.
//!
//! Events land in a bounded ring of [`TraceEvent`]s stamped with
//! [`SimTime`]. The executor is single-threaded and all timestamps are
//! virtual, so two runs of the same seeded scenario produce
//! **byte-identical** logs — suitable for golden-file tests and for loading
//! into Perfetto / `chrome://tracing` via
//! [`Recorder::export_chrome_trace`]. Names and categories are
//! `&'static str`, events are fixed-size values in a preallocated ring, and
//! the [`Span`] guard borrows its event: recording never allocates.
//!
//! ```rust
//! use sim::{Duration, Level, Sim};
//!
//! let sim = Sim::new();
//! let rec = sim.recorder();
//! rec.enable(Level::Off, 1024);
//! let op = rec.event("core", "demo.op");
//! let s = sim.clone();
//! sim.block_on(async move {
//!     let span = op.span(0, 0);
//!     s.sleep(Duration::from_nanos(500)).await;
//!     span.end();
//! });
//! let events = rec.events();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].dur, Some(500));
//! ```

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::rc::Rc;

use crate::metrics::{Counter, Hist, Metrics};
use crate::optrace::{EraNote, ForensicsConfig, OpLog};
use crate::time::SimTime;

/// A bounded buffer that overwrites its oldest entry once full and counts
/// what it overwrote. The one retention policy behind trace events, flight
/// records and era notes.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    slots: Vec<T>,
    capacity: usize,
    /// Index of the oldest entry once the ring has wrapped.
    head: usize,
    evicted: u64,
}

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Ring::new(0)
    }
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Ring {
            slots: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            evicted: 0,
        }
    }

    /// Appends `value`, evicting the oldest entry if the ring is full (a
    /// ring of capacity zero evicts everything it is given).
    pub fn push(&mut self, value: T) {
        if self.slots.len() < self.capacity {
            self.slots.push(value);
            return;
        }
        self.evicted += 1;
        if self.capacity > 0 {
            self.slots[self.head] = value;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Entries currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Entries overwritten so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The held entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots[self.head..]
            .iter()
            .chain(&self.slots[..self.head])
    }
}

/// How much each logical operation records (see [`crate::ledger`]). The
/// levels nest: recording spans implies recording costs.
#[derive(Clone, Copy, Debug, Default)]
pub enum Level {
    /// Nothing: every op handle is the free disabled one.
    #[default]
    Off,
    /// The cost ledger: RTTs, doorbells, wire bytes, recovery actions and
    /// the per-layer time split, folded into `ops.<op>.*`.
    Costs,
    /// Costs plus the causal span tree: blame vectors, tail exemplars, the
    /// flight recorder, era notes and triage bundles.
    Spans(ForensicsConfig),
}

/// One trace record: a completed span (`dur = Some(..)`) or an instant
/// (`dur = None`).
///
/// Names and categories are static so that recording never allocates; the
/// `track` discriminates instances of the same component (QP number, link
/// id, client id) and becomes the thread id in the Chrome export. `arg` is a
/// free payload slot (byte count, WR id, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Layer the event belongs to (`"fabric"`, `"rdma"`, `"core"`, …).
    pub cat: &'static str,
    /// Event name from the registry table in `EXPERIMENTS.md`.
    pub name: &'static str,
    /// Instance track (QP / link / client id); `0` for singletons.
    pub track: u64,
    /// Virtual start time.
    pub start: SimTime,
    /// Span duration in nanoseconds, or `None` for an instant event.
    pub dur: Option<u64>,
    /// Free payload (byte count, WR id, reason code, …).
    pub arg: u64,
    /// Monotone sequence number, unique within a run.
    pub seq: u64,
}

/// What every handle to one simulation's recorder shares. The switches are
/// `Cell`s so that the off path is a load, not a borrow; the two buffers are
/// cells of their own (and the metrics registry a third, elsewhere), so
/// nothing here calls out while borrowed.
#[derive(Default)]
pub(crate) struct Shared {
    pub level: Cell<Level>,
    /// The event ring has capacity.
    tracing: Cell<bool>,
    /// The virtual clock, stamped by the executor whenever it moves.
    pub now: Cell<SimTime>,
    events: RefCell<Ring<TraceEvent>>,
    published_evicted: Cell<u64>,
    pub ops: RefCell<OpLog>,
}

/// Clonable handle to the simulation's recorder: the event ring, the per-op
/// level, and everything finished ops are filed into.
///
/// Obtain one with [`crate::Sim::recorder`]; all clones for a given
/// simulation share state. Recording starts off — call
/// [`Recorder::enable`].
#[derive(Clone, Default)]
pub struct Recorder {
    pub(crate) shared: Rc<Shared>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("level", &self.shared.level.get())
            .field("events", &self.shared.events.borrow().len())
            .finish()
    }
}

impl Recorder {
    /// Starts recording, clearing any previous recording: every op started
    /// from now on records at `level`, and events are kept in a ring of at
    /// most `events` entries (`0`: no event ring). With [`Level::Spans`],
    /// era notes are retained too and, when the `RSTORE_TRIAGE_DIR`
    /// environment variable is set, triage bundles are additionally written
    /// there as JSON files.
    pub fn enable(&self, level: Level, events: usize) {
        let sh = &self.shared;
        sh.level.set(level);
        sh.tracing.set(events > 0);
        *sh.events.borrow_mut() = Ring::new(events);
        sh.published_evicted.set(0);
        *sh.ops.borrow_mut() = match level {
            Level::Spans(cfg) => OpLog::new(cfg),
            Level::Off | Level::Costs => OpLog::default(),
        };
    }

    /// The per-op level currently in force.
    pub fn level(&self) -> Level {
        self.shared.level.get()
    }

    /// True while the event ring records.
    pub fn is_tracing(&self) -> bool {
        self.shared.tracing.get()
    }

    pub(crate) fn set_now(&self, now: SimTime) {
        self.shared.now.set(now);
    }

    /// An event that shows as `name` under `cat` in the trace. Chain
    /// [`Event::counting`] / [`Event::adding`] / [`Event::timing`] /
    /// [`Event::noting`] for what else firing it does.
    pub fn event(&self, cat: &'static str, name: &'static str) -> Event {
        Event {
            rec: self.clone(),
            cat,
            name: Some(name),
            count: None,
            sum: None,
            hist: None,
            note: None,
        }
    }

    /// An event that leaves only the era note `cat`/`name` — no trace
    /// instant.
    pub fn note(&self, cat: &'static str, name: &'static str, payload: NoteArg) -> Event {
        Event {
            name: None,
            ..self.event(cat, name).noting(cat, name, payload)
        }
    }

    fn push(&self, ev: &Event, track: u64, start: SimTime, dur: Option<u64>, arg: u64) {
        let Some(name) = ev.name else { return };
        let mut ring = self.shared.events.borrow_mut();
        let seq = ring.len() as u64 + ring.evicted();
        ring.push(TraceEvent {
            cat: ev.cat,
            name,
            track,
            start,
            dur,
            arg,
            seq,
        });
    }

    /// Number of events evicted by ring wraparound.
    pub fn evicted(&self) -> u64 {
        self.shared.events.borrow().evicted()
    }

    /// Mirrors ring evictions into `metrics` as the `trace.evicted`
    /// counter, adding only the evictions since the last publish so
    /// repeated calls keep the counter exact. Call wherever the trace is
    /// exported or the registry is dumped.
    pub fn publish_evicted(&self, metrics: &Metrics) {
        let evicted = self.evicted();
        let delta = evicted - self.shared.published_evicted.replace(evicted);
        if delta > 0 {
            metrics.add("trace.evicted", delta);
        }
    }

    /// Copies the buffered events out, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.shared.events.borrow().iter().copied().collect()
    }

    /// Serialises the buffered events as Chrome trace-event JSON
    /// (the "JSON object format": `{"traceEvents": [...]}`), loadable in
    /// Perfetto or `chrome://tracing`. Timestamps are microseconds with
    /// nanosecond precision kept in the fractional digits.
    ///
    /// The output depends only on the recorded events, so two deterministic
    /// runs of the same scenario export byte-identical documents.
    pub fn export_chrome_trace(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(events.len() * 128 + 64);
        // `evicted` in the top-level metadata records how many events the
        // ring dropped, so a truncated trace is never silently misread as
        // the whole story.
        let _ = write!(
            out,
            "{{\"displayTimeUnit\": \"ns\", \"evicted\": {}, \"traceEvents\": [",
            self.evicted()
        );
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {");
            out.push_str("\"name\": ");
            push_escaped(&mut out, ev.name);
            out.push_str(", \"cat\": ");
            push_escaped(&mut out, ev.cat);
            let _ = write!(
                out,
                ", \"ph\": \"{}\", \"ts\": {}, ",
                if ev.dur.is_some() { 'X' } else { 'i' },
                micros(ev.start.as_nanos()),
            );
            if let Some(d) = ev.dur {
                let _ = write!(out, "\"dur\": {}, ", micros(d));
            } else {
                out.push_str("\"s\": \"t\", ");
            }
            let _ = write!(
                out,
                "\"pid\": 1, \"tid\": {}, \"args\": {{\"arg\": {}, \"seq\": {}}}}}",
                ev.track, ev.arg, ev.seq
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Which of an event's two values its era note keeps: node-scoped faults
/// note the node (the instant's `track`), rate changes and totals the
/// quantity (its `arg`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoteArg {
    /// The note's payload is the event's `track`.
    Track,
    /// The note's payload is the event's `arg`.
    Arg,
}

/// One observable fact of a layer, resolved once at construction (see the
/// module docs): firing it bumps its counter, and — only while something
/// listens — pushes its trace instant and leaves its era note.
pub struct Event {
    rec: Recorder,
    cat: &'static str,
    /// `None`: the event has no trace record (a note-only event).
    name: Option<&'static str>,
    /// Grows by one per firing.
    count: Option<Counter>,
    /// Grows by the fired `arg`.
    sum: Option<Counter>,
    /// Where [`Event::span`] / [`Event::complete`] record their duration.
    hist: Option<Hist>,
    note: Option<(&'static str, &'static str, NoteArg)>,
}

impl Event {
    /// Firing also increments `counter`.
    pub fn counting(self, counter: Counter) -> Event {
        Event {
            count: Some(counter),
            ..self
        }
    }

    /// Firing also adds the fired `arg` to `counter`.
    pub fn adding(self, counter: Counter) -> Event {
        Event {
            sum: Some(counter),
            ..self
        }
    }

    /// A span of this event also records its duration into `hist`, whether
    /// or not the ring is on.
    pub fn timing(self, hist: Hist) -> Event {
        Event {
            hist: Some(hist),
            ..self
        }
    }

    /// Firing also leaves the era note `cat`/`name` carrying `payload`,
    /// retained while spans are recorded. Era notes have a ring of their
    /// own: per-message events own the event ring within microseconds, and
    /// a triage bundle wants the faults nearest the failure.
    pub fn noting(self, cat: &'static str, name: &'static str, payload: NoteArg) -> Event {
        Event {
            note: Some((cat, name, payload)),
            ..self
        }
    }

    /// Records the fact once: an instant at the current virtual time.
    pub fn fire(&self, track: u64, arg: u64) {
        if let Some(count) = &self.count {
            count.incr();
        }
        if let Some(sum) = &self.sum {
            sum.add(arg);
        }
        let sh = &self.rec.shared;
        if sh.tracing.get() {
            self.rec.push(self, track, sh.now.get(), None, arg);
        }
        let Some((cat, name, payload)) = self.note else {
            return;
        };
        if let Level::Spans(_) = sh.level.get() {
            sh.ops.borrow_mut().notes.push(EraNote {
                at_ns: sh.now.get().as_nanos(),
                cat,
                name,
                arg: match payload {
                    NoteArg::Track => track,
                    NoteArg::Arg => arg,
                },
            });
        }
    }

    /// Opens a span; it records a complete event when [`Span::end`]ed or
    /// dropped. With the ring off and no histogram to feed this is an inert
    /// guard and costs only the check.
    pub fn span(&self, track: u64, arg: u64) -> Span<'_> {
        let sh = &self.rec.shared;
        let live = self.hist.is_some() || sh.tracing.get();
        Span {
            live: live.then(|| (self, track, arg, sh.now.get())),
        }
    }

    /// Records a complete event spanning from `start` (captured earlier) to
    /// now. For event-driven code where a [`Span`] guard cannot live across
    /// the operation (state machines, callbacks).
    pub fn complete(&self, track: u64, start: SimTime, arg: u64) {
        let sh = &self.rec.shared;
        let dur = sh.now.get().saturating_since(start);
        if let Some(hist) = &self.hist {
            hist.record(dur);
        }
        if sh.tracing.get() {
            self.rec
                .push(self, track, start, Some(dur.as_nanos() as u64), arg);
        }
    }
}

/// Guard for an in-progress span of an [`Event`]; completes it on drop.
#[must_use = "a span measures until it is dropped or .end()ed"]
pub struct Span<'a> {
    live: Option<(&'a Event, u64, u64, SimTime)>,
}

impl Span<'_> {
    /// Explicitly closes the span (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((event, track, arg, start)) = self.live.take() {
            event.complete(track, start, arg);
        }
    }
}

/// Fixed-point nanos → microseconds rendering (`1234` ns → `"1.234"`), so
/// exports are exact and byte-stable.
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1000, nanos % 1000)
}

/// Writes `s` as a quoted JSON string, escaping quotes, backslashes, and
/// control characters. Registry names are plain identifiers today, but the
/// export must stay valid JSON for any future name.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Duration, Sim};

    #[test]
    fn disabled_tracer_records_nothing() {
        let sim = Sim::new();
        let rec = sim.recorder();
        let m = Metrics::new();
        let x = rec.event("test", "x").counting(m.counter_handle("x"));
        x.fire(0, 0);
        x.span(0, 0).end();
        x.complete(0, SimTime::ZERO, 0);
        assert!(rec.events().is_empty());
        assert!(!rec.is_tracing());
        // Off, firing is still the counter bump.
        assert_eq!(m.counter("x"), 1);
    }

    #[test]
    fn span_measures_virtual_time() {
        let sim = Sim::new();
        let rec = sim.recorder();
        rec.enable(Level::Off, 16);
        let m = Metrics::new();
        let op = rec.event("test", "op").timing(m.hist_handle("op_latency"));
        let s = sim.clone();
        sim.block_on(async move {
            let span = op.span(3, 99);
            s.sleep(Duration::from_nanos(250)).await;
            span.end();
        });
        let events = rec.events();
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert_eq!(ev.name, "op");
        assert_eq!(ev.track, 3);
        assert_eq!(ev.arg, 99);
        assert_eq!(ev.start.as_nanos(), 0);
        assert_eq!(ev.dur, Some(250));
        // One measurement, two views.
        assert_eq!(m.histogram("op_latency").unwrap().samples(), &[250]);
    }

    #[test]
    fn ring_buffer_wraps_and_keeps_newest() {
        let sim = Sim::new();
        let rec = sim.recorder();
        rec.enable(Level::Off, 4);
        let tick = rec.event("test", "tick");
        for i in 0..10 {
            tick.fire(i, i);
        }
        let events = rec.events();
        assert_eq!(events.len(), 4);
        assert_eq!(rec.evicted(), 6);
        // Oldest evicted: the survivors are the last four, in order.
        let tracks: Vec<u64> = events.iter().map(|e| e.track).collect();
        assert_eq!(tracks, vec![6, 7, 8, 9]);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn enable_clears_previous_recording() {
        let sim = Sim::new();
        let rec = sim.recorder();
        rec.enable(Level::Off, 8);
        rec.event("test", "a").fire(0, 0);
        rec.enable(Level::Off, 8);
        assert!(rec.events().is_empty());
        rec.event("test", "b").fire(0, 0);
        assert_eq!(rec.events()[0].seq, 0);
    }

    #[test]
    fn events_count_add_and_note_in_one_call() {
        let sim = Sim::new();
        let rec = sim.recorder();
        let m = Metrics::new();
        let crash = rec
            .event("fabric", "fabric.fault.crash")
            .counting(m.counter_handle("fabric.fault.crash"))
            .noting("fault", "crash", NoteArg::Track);
        let loss = rec.event("fabric", "fabric.fault.loss_start").noting(
            "fault",
            "loss_start",
            NoteArg::Arg,
        );
        let tx = rec
            .event("fabric", "fabric.tx")
            .adding(m.counter_handle("fabric.tx_bytes"));
        let repaired = rec.note("repair", "extents_repaired", NoteArg::Arg);
        // Off: counters only.
        crash.fire(3, 0);
        tx.fire(1, 4096);
        assert!(rec.events().is_empty() && rec.era_notes().is_empty());
        rec.enable(Level::Spans(ForensicsConfig::default()), 8);
        crash.fire(3, 0);
        loss.fire(0, 20_000);
        tx.fire(1, 4096);
        repaired.fire(0, 2);
        assert_eq!(m.counter("fabric.fault.crash"), 2);
        assert_eq!(m.counter("fabric.tx_bytes"), 8192);
        let names: Vec<_> = rec.events().iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            ["fabric.fault.crash", "fabric.fault.loss_start", "fabric.tx"]
        );
        // A note keeps the node or the quantity, as its event says.
        let notes: Vec<_> = rec.era_notes().iter().map(|n| (n.name, n.arg)).collect();
        assert_eq!(
            notes,
            [
                ("crash", 3),
                ("loss_start", 20_000),
                ("extents_repaired", 2)
            ]
        );
        // Costs alone keeps no notes: they exist for triage bundles.
        rec.enable(Level::Costs, 0);
        crash.fire(3, 0);
        assert!(rec.era_notes().is_empty());
    }

    #[test]
    fn chrome_export_shape() {
        let sim = Sim::new();
        let rec = sim.recorder();
        rec.enable(Level::Off, 16);
        let (pkt, read) = (rec.event("fabric", "pkt"), rec.event("core", "read"));
        let s = sim.clone();
        sim.block_on(async move {
            pkt.fire(1, 64);
            let span = read.span(2, 0);
            s.sleep(Duration::from_nanos(1_500)).await;
            span.end();
        });
        let json = rec.export_chrome_trace();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"dur\": 1.500"));
        assert!(json.contains("\"evicted\": 0"));
        // Deterministic: exporting twice is byte-identical.
        assert_eq!(json, rec.export_chrome_trace());
    }

    #[test]
    fn chrome_export_reports_evictions() {
        let sim = Sim::new();
        let rec = sim.recorder();
        rec.enable(Level::Off, 2);
        let tick = rec.event("test", "tick");
        for i in 0..5 {
            tick.fire(i, i);
        }
        let json = rec.export_chrome_trace();
        assert!(json.contains("\"evicted\": 3"));
    }

    #[test]
    fn publish_evicted_mirrors_ring_overflow_into_metrics() {
        let sim = Sim::new();
        let m = Metrics::new();
        let rec = sim.recorder();
        rec.enable(Level::Off, 2);
        let tick = rec.event("test", "tick");
        for i in 0..7 {
            tick.fire(i, i);
        }
        rec.publish_evicted(&m);
        assert_eq!(m.counter("trace.evicted"), 5);
        // Repeated publishing only adds the delta.
        rec.publish_evicted(&m);
        assert_eq!(m.counter("trace.evicted"), 5);
        tick.fire(7, 7);
        rec.publish_evicted(&m);
        assert_eq!(m.counter("trace.evicted"), 6);
    }

    #[test]
    fn tracer_clones_share_state() {
        let sim = Sim::new();
        let a = sim.recorder();
        let b = sim.recorder();
        a.enable(Level::Off, 8);
        assert!(b.is_tracing());
        b.event("test", "x").fire(0, 0);
        assert_eq!(a.events().len(), 1);
    }
}
