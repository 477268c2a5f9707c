//! The metric hot path must not touch the heap: an update through a
//! resolved handle is an index into dense storage, and a by-name update of
//! an already-interned name resolves without building a `String`. A
//! histogram's memory grows with its distinct values, not its samples.
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
fn interned_metric_updates_do_not_allocate() {
    const N: u64 = 1000;
    let m = sim::Metrics::new();
    let link = m.scoped("fabric.link3");
    let tx_bytes = link.counter_handle("tx_bytes");
    let delay = link.hist_handle("rx_queue_delay");
    // Intern the by-name names and size both histograms for 2N samples: a
    // reset keeps a histogram's buffer.
    link.add("tx_msgs", 1);
    for i in 0..N {
        delay.record_value(i);
        link.record_value("rx_queue_delay", i);
    }
    m.reset();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..N {
        tx_bytes.add(64);
        tx_bytes.incr();
        delay.record_value(i);
        delay.record(sim::Duration::from_nanos(i));
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "handle updates must not touch the heap");
    m.reset();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..N {
        link.add("tx_bytes", 64);
        link.incr("tx_msgs");
        link.record_value("rx_queue_delay", i);
        assert_eq!(link.counter("tx_bytes"), 64 * (i + 1));
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "by-name updates of interned names must not touch the heap"
    );

    // Both ways in reach the same slots.
    assert_eq!(tx_bytes.get(), 64 * N);
    assert_eq!(m.counter("fabric.link3.tx_msgs"), N);
    assert_eq!(delay.read(|h| h.len()), N as usize);

    // Once a histogram has seen its distinct values, recording more samples
    // of them never grows it.
    const MANY: u64 = 1_000_000;
    let chunks = link.hist_handle("tx_queue_chunks");
    let draw = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60;
    for i in 0..N {
        chunks.record_value(draw(i));
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in N..N + MANY {
        chunks.record_value(draw(i));
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "samples of values already seen must not grow a histogram"
    );
    assert_eq!(
        chunks.read(|h| (h.len(), h.max())),
        ((N + MANY) as usize, 15)
    );
}
