//! Disabled observability must be free: recording through a disabled
//! tracer or charging a disabled op ledger performs no heap allocation.
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

#[test]
fn disabled_tracing_does_not_allocate() {
    let sim = sim::Sim::new();
    let tracer = sim.tracer();
    assert!(!tracer.is_enabled());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..1000 {
        let span = tracer.span("bench", "noop", i);
        span.end();
        let span2 = tracer.span_arg("bench", "noop2", i, 42);
        drop(span2);
        tracer.instant("bench", "tick", i, i);
        tracer.complete_at("bench", "past", i, sim::SimTime::ZERO, 0);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "disabled tracer must not touch the heap");

    // The per-op cost ledger follows the same discipline: a disabled ledger
    // (every op of a client with `ClientConfig::ledger` off) must charge,
    // clone, absorb, and finish without touching the heap. An enabled
    // ledger is allowed to allocate — but only when it is created and when
    // its costs fold into the metrics registry (a histogram may grow), never
    // per charge.
    let disabled = sim::OpLedger::disabled();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..1000u64 {
        disabled.rtt();
        disabled.doorbell();
        disabled.wire(4096 + i);
        disabled.retry();
        disabled.failover();
        disabled.verify_failure();
        disabled.layer_ns(sim::Layer::Wire, i);
        disabled.set_units(i + 1);
        let clone = disabled.clone();
        clone.absorb(&disabled);
        clone.finish(sim::SimTime::ZERO);
    }
    disabled.finish(sim::SimTime::ZERO);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "disabled ledger must not touch the heap");

    let metrics = sim::Metrics::new();
    let get = sim::OpMetrics::resolve(&metrics, "get");
    let enabled = sim::OpLedger::start(&get, sim::SimTime::ZERO);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..1000u64 {
        enabled.rtt();
        enabled.doorbell();
        enabled.wire(4096 + i);
        enabled.layer_ns(sim::Layer::Wire, i);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "enabled ledger charges must stay allocation-free (only start/finish may allocate)"
    );
    enabled.finish(sim::SimTime::ZERO);
    assert!(
        metrics.counter("ops.get.count") == 1,
        "enabled ledger must fold into metrics on finish"
    );

    // Causal op forensics follow the same discipline. A disabled trace
    // (forensics registry off — the default) must record for free: begin,
    // end, mark, retroactive spans, clone and finish all without touching
    // the heap.
    let trace = sim::OpTrace::disabled();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..1000u64 {
        let span = trace.begin(sim::Phase::Wire, sim::SimTime::ZERO);
        trace.mark(sim::Phase::Doorbell, sim::SimTime::ZERO);
        trace.span_ns(sim::Phase::Post, i, 1);
        trace.end(span, sim::SimTime::from_nanos(i));
        let clone = trace.clone();
        clone.finish(sim::SimTime::from_nanos(i), None);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "disabled op trace must not touch the heap"
    );

    // An enabled trace in steady state must record spans allocation-free
    // too: span storage cycles through the registry's pool, so once a
    // same-shaped op has finished, the next op's recording reuses its
    // capacity. Only start/finish may allocate — the ledger's rule.
    let sim = sim::Sim::new();
    let forensics = sim.forensics();
    forensics.enable(sim::ForensicsConfig {
        window_ns: 1 << 30,
        k_per_kind: 0, // no exemplars retained: every finish recycles
        ring: 8,
    });
    const SPANS: u64 = 32;
    for _ in 0..2 {
        let warm = forensics.start("get", sim::SimTime::ZERO);
        for i in 0..SPANS {
            let s = warm.begin(sim::Phase::Wire, sim::SimTime::from_nanos(i));
            warm.span_ns(sim::Phase::Post, i, 1);
            warm.end(s, sim::SimTime::from_nanos(i + 1));
        }
        warm.finish(sim::SimTime::from_nanos(100), None);
    }
    let steady = forensics.start("get", sim::SimTime::ZERO);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..SPANS {
        let s = steady.begin(sim::Phase::Retry, sim::SimTime::from_nanos(i));
        steady.span_ns(sim::Phase::Wire, i, 1);
        steady.end(s, sim::SimTime::from_nanos(i + 1));
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "enabled op-trace recording must stay allocation-free in steady state"
    );
    steady.finish(sim::SimTime::from_nanos(100), None);
    assert_eq!(forensics.finished(), 3);
}
