//! A request/response rendezvous must not touch the heap once its table has
//! grown to the number of requests in flight: opening a cell reuses a freed
//! one, a ticket is a plain integer, and a waiter that parks keeps its waker
//! in the cell. This is the only test in the binary, and the counting global
//! allocator counts only on the thread that measures: the test harness's main
//! thread still allocates while it waits for the test thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use sim::{Rendezvous, Sim, Ticket};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread that measures; `const` so reading it never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn open_fill_await_cycles_do_not_allocate() {
    const N: u64 = 10_000;
    let sim = Sim::new();
    let table = Rendezvous::<u64>::new();
    // The answering side: a task that fills each ticket it is sent, so every
    // waiter below parks first and is woken by the fill.
    let (tx, mut rx) = sim::channel::<Ticket>();
    let filler = table.clone();
    sim.spawn(async move {
        while let Some(ticket) = rx.recv().await {
            filler.fill(ticket, u64::from(ticket));
        }
    });
    let cycle = |table: Rendezvous<u64>, tx: sim::Sender<Ticket>| async move {
        let wait = table.open(());
        let ticket = wait.ticket();
        tx.send(ticket).unwrap();
        assert_eq!(wait.await, Some(u64::from(ticket)));
    };
    // The sim runs every task on this thread, so counting here sees every
    // allocation the cycles make.
    COUNTING.with(|c| c.set(true));
    let allocated = sim.block_on(async move {
        // Warm-up: the table's slab and the channel's queues reach their
        // steady-state sizes, and a waiter dropped unanswered is freed by
        // its close.
        for _ in 0..16 {
            cycle(table.clone(), tx.clone()).await;
        }
        let dropped = table.open(());
        let ticket = dropped.ticket();
        drop(dropped);
        table.close(ticket);

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..N {
            cycle(table.clone(), tx.clone()).await;
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert!(table.is_empty());
        after - before
    });
    assert_eq!(allocated, 0, "a rendezvous cycle must not touch the heap");
}
