//! Recording that is switched off must be free: firing an event with the
//! ring off, and every stamp on the `None` an op handle is while the
//! recorder's level is off, performs no heap allocation. Recording that is
//! switched on allocates only when an op starts and when it finishes.
//! This is the only test in the binary so the counting global allocator
//! sees no concurrent test threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn t(ns: u64) -> sim::SimTime {
    sim::SimTime::from_nanos(ns)
}

/// One WR's life, as the device stamps it: posted at `at`, completed 900 ns
/// later after 100 ns of CQE settle.
fn stamp_wr(op: &sim::OpLedger, at: u64, ok: bool) {
    op.posted(t(at), 150);
    op.completed(sim::Completion {
        posted_at: t(at),
        post_ns: 150,
        resolved_at: t(at + 800),
        now: t(at + 900),
        nic_ns: 125,
        ok,
        response_bytes: 64,
    });
}

#[test]
fn disabled_tracing_does_not_allocate() {
    let sim = sim::Sim::new();
    let rec = sim.recorder();
    let metrics = sim::Metrics::new();
    assert!(!rec.is_tracing());

    // Events and the ring. Resolving an event is set-up; firing it with
    // nothing listening is the counter bump alone, and an inert span guard.
    let tick = rec
        .event("bench", "tick")
        .counting(metrics.counter_handle("bench.ticks"))
        .noting("fault", "tick", sim::NoteArg::Arg);
    let noop = rec.event("bench", "noop");
    tick.fire(0, 0); // the first write to a counter may grow the registry
    let before = allocs();
    for i in 0..1000 {
        let span = noop.span(i, 0);
        span.end();
        drop(noop.span(i, 42));
        tick.fire(i, i);
        noop.complete(i, sim::SimTime::ZERO, 0);
    }
    assert_eq!(allocs() - before, 0, "events must not touch the heap");
    assert_eq!(metrics.counter("bench.ticks"), 1001);
    assert!(rec.events().is_empty() && rec.era_notes().is_empty());

    // The one per-op handle. With the level off, starting an op yields the
    // `None`, and every charge, span, composite stamp, clone, `absorb` and
    // `finish` on it is a branch — an enabled handle is allowed to
    // allocate, but only when it starts and when it finishes.
    let get = sim::OpMetrics::resolve(&metrics, "get");
    let before = allocs();
    for i in 0..1000u64 {
        let op = sim::OpLedger::start(&rec, &get, t(i));
        assert!(!op.enabled());
        op.rtt();
        op.wire(4096 + i);
        op.retry();
        op.failover(t(i));
        op.verify_failure();
        op.set_units(i + 1);
        stamp_wr(&op, i, i % 2 == 0);
        let span = op.begin(sim::Phase::Retry, t(i));
        op.end(span, t(i + 1));
        let clone = op.clone();
        clone.absorb(&op);
        clone.finish(t(i + 2), Some("timeout"));
        op.finish(t(i + 2), None);
    }
    assert_eq!(
        allocs() - before,
        0,
        "a disabled op must not touch the heap"
    );
    assert!(metrics.counter_names() == ["bench.ticks"]);

    // Recording spans, in steady state: span storage cycles through the
    // recorder's pool, so once a same-shaped op has finished, the next
    // op's stamps reuse its capacity. Only start/finish may allocate.
    rec.enable(
        sim::Level::Spans(sim::ForensicsConfig {
            window_ns: 1 << 30,
            k_per_kind: 0, // no exemplars retained: every finish recycles
            ring: 8,
        }),
        64,
    );
    const WRS: u64 = 16;
    let record = |op: &sim::OpLedger| {
        for i in 0..WRS {
            let s = op.begin(sim::Phase::Retry, t(i * 1000));
            op.rtt();
            op.wire(128);
            op.failover(t(i * 1000));
            stamp_wr(op, i * 1000, i % 4 != 0);
            op.end(s, t(i * 1000 + 900));
            tick.fire(i, i);
        }
    };
    for _ in 0..2 {
        let warm = sim::OpLedger::start(&rec, &get, t(0));
        record(&warm);
        warm.finish(t(WRS * 1000), None);
    }
    let steady = sim::OpLedger::start(&rec, &get, t(0));
    let before = allocs();
    record(&steady);
    assert_eq!(
        allocs() - before,
        0,
        "recording must stay allocation-free in steady state (only start/finish may allocate)"
    );
    steady.finish(t(WRS * 1000), None);
    assert_eq!(rec.finished(), 3);
    assert_eq!(metrics.counter("ops.get.count"), 3);
    assert_eq!(rec.events().len() as u64, 3 * WRS);
}
