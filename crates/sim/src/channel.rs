//! Asynchronous channels for communication between simulated tasks.
//!
//! Two flavours are provided:
//!
//! * [`channel`] — an unbounded multi-producer channel with asynchronous
//!   receive; the workhorse for RPC inboxes and NIC dispatch queues.
//! * [`Rendezvous`] — a recycled table of single-value cells, for
//!   request/response rendezvous: a posted WR and its completion, a connect
//!   and its accept. Opening a cell allocates nothing once the table has
//!   grown to the number of requests in flight.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct ChanState<T> {
    queue: VecDeque<T>,
    waiters: VecDeque<Waker>,
    senders: usize,
    receiver_alive: bool,
}

impl<T> ChanState<T> {
    fn wake_one(&mut self) {
        if let Some(w) = self.waiters.pop_front() {
            w.wake();
        }
    }
    fn wake_all(&mut self) {
        for w in self.waiters.drain(..) {
            w.wake();
        }
    }
}

/// Sending half of an unbounded channel; clonable.
pub struct Sender<T> {
    state: Rc<RefCell<ChanState<T>>>,
}

/// Receiving half of an unbounded channel.
pub struct Receiver<T> {
    state: Rc<RefCell<ChanState<T>>>,
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender")
            .field("queued", &self.state.borrow().queue.len())
            .finish()
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver")
            .field("queued", &self.state.borrow().queue.len())
            .finish()
    }
}

/// Error returned by [`Sender::send`] when the receiver has been dropped.
/// The unsent value is handed back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiver was dropped")
    }
}

impl<T: fmt::Debug> std::error::Error for SendError<T> {}

/// Creates a new unbounded channel.
///
/// ```rust
/// use sim::Sim;
/// let sim = Sim::new();
/// let (tx, mut rx) = sim::channel::<u32>();
/// sim.spawn(async move { tx.send(5).unwrap() });
/// let got = sim.block_on(async move { rx.recv().await });
/// assert_eq!(got, Some(5));
/// ```
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let state = Rc::new(RefCell::new(ChanState {
        queue: VecDeque::new(),
        waiters: VecDeque::new(),
        senders: 1,
        receiver_alive: true,
    }));
    (
        Sender {
            state: state.clone(),
        },
        Receiver { state },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.state.borrow_mut().senders += 1;
        Sender {
            state: self.state.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.state.borrow_mut();
        st.senders -= 1;
        if st.senders == 0 {
            st.wake_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.state.borrow_mut().receiver_alive = false;
    }
}

impl<T> Sender<T> {
    /// Enqueues a value and wakes the receiver.
    ///
    /// # Errors
    ///
    /// Returns the value back inside [`SendError`] if the receiver has been
    /// dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.state.borrow_mut();
        if !st.receiver_alive {
            return Err(SendError(value));
        }
        st.queue.push_back(value);
        st.wake_one();
        Ok(())
    }

    /// Returns true if the receiving half is still alive.
    pub fn is_connected(&self) -> bool {
        self.state.borrow().receiver_alive
    }
}

impl<T> Receiver<T> {
    /// Waits for the next value; resolves to `None` once every sender has
    /// been dropped and the queue is empty.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { rx: self }
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Option<T> {
        self.state.borrow_mut().queue.pop_front()
    }

    /// Number of values currently queued.
    pub fn len(&self) -> usize {
        self.state.borrow().queue.len()
    }

    /// Returns true if no values are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Receiver::recv`].
#[derive(Debug)]
pub struct Recv<'a, T> {
    rx: &'a mut Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut st = self.rx.state.borrow_mut();
        if let Some(v) = st.queue.pop_front() {
            return Poll::Ready(v.into());
        }
        if st.senders == 0 {
            return Poll::Ready(None);
        }
        st.waiters.push_back(cx.waker().clone());
        Poll::Pending
    }
}

// --- rendezvous table -------------------------------------------------------

/// Names one cell of a [`Rendezvous`] table for one tenancy: the slot in the
/// low 32 bits, the slot's generation in the high 32. It travels as a plain
/// `u64` — a wr_id, a conn_id — and goes stale the moment its cell is freed,
/// so a late fill or close with it does nothing, even after the slot has a
/// newer tenant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Ticket(u64);

impl Ticket {
    fn new(slot: u32, gen: u32) -> Ticket {
        Ticket(u64::from(gen) << 32 | u64::from(slot))
    }

    fn slot(self) -> usize {
        self.0 as u32 as usize
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl From<Ticket> for u64 {
    fn from(t: Ticket) -> u64 {
        t.0
    }
}

impl From<u64> for Ticket {
    fn from(raw: u64) -> Ticket {
        Ticket(raw)
    }
}

/// What one cell of a table holds.
enum Tenancy<T, S> {
    /// On the free list, linking to the next vacant slot.
    Vacant(u32),
    /// Opened, neither filled nor closed: its side datum and its waiter.
    Open(S, Waiter),
    /// Filled (`Some`) or closed (`None`): its waiter takes the outcome and
    /// frees it.
    Done(Option<T>),
}

/// The waiter of an open cell.
enum Waiter {
    /// Not polled yet.
    Idle,
    /// Pending on this waker.
    Parked(Waker),
    /// Dropped: whoever fills or closes the cell frees it.
    Gone,
}

struct Slot<T, S> {
    /// Bumped when the cell is freed; a [`Ticket`] matches one tenancy.
    gen: u32,
    state: Tenancy<T, S>,
}

struct Table<T, S> {
    cells: Vec<Slot<T, S>>,
    /// Head of the vacant-slot list, [`NIL`] when every cell is occupied.
    free: u32,
    /// Cells not vacant.
    live: usize,
}

const NIL: u32 = u32::MAX;

impl<T, S> Table<T, S> {
    /// The occupied cell `ticket` names, if its tenancy is still the current one.
    fn state(&mut self, ticket: Ticket) -> Option<&mut Tenancy<T, S>> {
        let cell = self.cells.get_mut(ticket.slot())?;
        let current = cell.gen == ticket.gen() && !matches!(cell.state, Tenancy::Vacant(_));
        current.then_some(&mut cell.state)
    }

    /// Frees the cell `ticket` names and hands back what it held, for the
    /// caller to drop once the table is no longer borrowed.
    fn vacate(&mut self, ticket: Ticket) -> Tenancy<T, S> {
        let cell = &mut self.cells[ticket.slot()];
        cell.gen = cell.gen.wrapping_add(1);
        let held = std::mem::replace(&mut cell.state, Tenancy::Vacant(self.free));
        self.free = ticket.slot() as u32;
        self.live -= 1;
        held
    }
}

/// A recycled table of single-value rendezvous cells: what a posted request
/// and its eventual answer meet in, without a fresh allocation per request.
///
/// [`open`](Self::open) takes a vacant cell — the one
/// [`next_ticket`](Self::next_ticket) names — and hands back its waiter, a
/// [`Wait`] future. The answering side names the cell by its [`Ticket`] and
/// either [`fill`](Self::fill)s it (the waiter resolves to `Some(value)`) or
/// [`close`](Self::close)s it (the waiter resolves to `None`). A cell is
/// freed when its waiter takes the outcome, or — when the waiter was dropped
/// first — when it is filled or closed. Each cell also keeps a side datum of
/// its opener's (a timer to cancel, say), handed back to whoever fills or
/// closes it.
///
/// ```rust
/// use sim::channel::Rendezvous;
/// let sim = sim::Sim::new();
/// let table = Rendezvous::<u32>::new();
/// let wait = table.open(());
/// assert_eq!(table.fill(wait.ticket(), 7), Some(()));
/// assert_eq!(sim.block_on(wait), Some(7));
/// assert!(table.is_empty());
/// ```
pub struct Rendezvous<T, S = ()> {
    table: Rc<RefCell<Table<T, S>>>,
}

impl<T, S> Clone for Rendezvous<T, S> {
    fn clone(&self) -> Self {
        Rendezvous {
            table: self.table.clone(),
        }
    }
}

impl<T, S> Default for Rendezvous<T, S> {
    fn default() -> Self {
        Rendezvous {
            table: Rc::new(RefCell::new(Table {
                cells: Vec::new(),
                free: NIL,
                live: 0,
            })),
        }
    }
}

impl<T, S> fmt::Debug for Rendezvous<T, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rendezvous")
            .field("live", &self.len())
            .finish()
    }
}

impl<T, S> Rendezvous<T, S> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ticket the next [`open`](Self::open) hands out.
    pub fn next_ticket(&self) -> Ticket {
        let table = self.table.borrow();
        match table.cells.get(table.free as usize) {
            Some(cell) => Ticket::new(table.free, cell.gen),
            None => Ticket::new(table.cells.len() as u32, 0),
        }
    }

    /// Opens the cell [`next_ticket`](Self::next_ticket) names, keeping
    /// `side` in it, and returns its waiter.
    pub fn open(&self, side: S) -> Wait<T, S> {
        let ticket = self.next_ticket();
        let mut table = self.table.borrow_mut();
        let state = Tenancy::Open(side, Waiter::Idle);
        if let Some(cell) = table.cells.get_mut(ticket.slot()) {
            let Tenancy::Vacant(next) = std::mem::replace(&mut cell.state, state) else {
                unreachable!("the free list names vacant cells")
            };
            table.free = next;
        } else {
            assert!(table.cells.len() < NIL as usize, "rendezvous table is full");
            table.cells.push(Slot { gen: 0, state });
        }
        table.live += 1;
        Wait {
            table: self.table.clone(),
            ticket,
        }
    }

    /// Delivers `value` into the cell `ticket` names and wakes its waiter.
    /// Returns the cell's side datum, or `None` — dropping `value` — when
    /// the ticket is stale or its cell was already filled or closed.
    pub fn fill(&self, ticket: Ticket, value: T) -> Option<S> {
        self.settle(ticket, Some(value))
    }

    /// Closes the cell `ticket` names without a value: its waiter resolves
    /// to `None`. Returns what [`fill`](Self::fill) would.
    pub fn close(&self, ticket: Ticket) -> Option<S> {
        self.settle(ticket, None)
    }

    /// Number of cells not vacant: open, abandoned, or settled and not yet
    /// taken by their waiters.
    pub fn len(&self) -> usize {
        self.table.borrow().live
    }

    /// Returns true if every cell is vacant.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn settle(&self, ticket: Ticket, outcome: Option<T>) -> Option<S> {
        let mut table = self.table.borrow_mut();
        let Some(state @ Tenancy::Open(..)) = table.state(ticket) else {
            return None;
        };
        let Tenancy::Open(side, waiter) = std::mem::replace(state, Tenancy::Done(outcome)) else {
            unreachable!("matched open")
        };
        let freed = matches!(waiter, Waiter::Gone).then(|| table.vacate(ticket));
        // What the cell held drops, and its waiter wakes, with the table
        // released: either may re-enter it.
        drop(table);
        drop(freed);
        if let Waiter::Parked(w) = waiter {
            w.wake();
        }
        Some(side)
    }
}

/// The waiter of one [`Rendezvous`] cell: a future resolving to the value
/// the cell was filled with, or `None` if it was closed without one.
/// Dropping it unresolved leaves the cell to be freed by whoever fills or
/// closes it.
pub struct Wait<T, S = ()> {
    table: Rc<RefCell<Table<T, S>>>,
    ticket: Ticket,
}

impl<T, S> fmt::Debug for Wait<T, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Wait").field(&self.ticket).finish()
    }
}

impl<T, S> Wait<T, S> {
    /// The ticket naming this waiter's cell.
    pub fn ticket(&self) -> Ticket {
        self.ticket
    }
}

impl<T, S> Future for Wait<T, S> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut table = self.table.borrow_mut();
        match table.state(self.ticket) {
            Some(Tenancy::Open(_, waiter)) => {
                if !matches!(waiter, Waiter::Parked(w) if w.will_wake(cx.waker())) {
                    *waiter = Waiter::Parked(cx.waker().clone());
                }
                Poll::Pending
            }
            Some(Tenancy::Done(outcome)) => {
                let outcome = outcome.take();
                table.vacate(self.ticket);
                Poll::Ready(outcome)
            }
            // Polled again after it resolved.
            _ => Poll::Ready(None),
        }
    }
}

impl<T, S> Drop for Wait<T, S> {
    fn drop(&mut self) {
        let mut table = self.table.borrow_mut();
        let held = match table.state(self.ticket) {
            Some(Tenancy::Open(_, waiter)) => (std::mem::replace(waiter, Waiter::Gone), None),
            Some(Tenancy::Done(_)) => (Waiter::Idle, Some(table.vacate(self.ticket))),
            _ => return,
        };
        drop(table);
        drop(held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use std::time::Duration;

    #[test]
    fn send_before_recv_is_buffered() {
        let sim = Sim::new();
        let (tx, mut rx) = channel::<u32>();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let got = sim.block_on(async move { (rx.recv().await, rx.recv().await) });
        assert_eq!(got, (Some(1), Some(2)));
    }

    #[test]
    fn recv_wakes_on_late_send() {
        let sim = Sim::new();
        let (tx, mut rx) = channel::<&'static str>();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(Duration::from_micros(1)).await;
            tx.send("hello").unwrap();
        });
        let got = sim.block_on(async move { rx.recv().await });
        assert_eq!(got, Some("hello"));
    }

    #[test]
    fn recv_returns_none_when_all_senders_dropped() {
        let sim = Sim::new();
        let (tx, mut rx) = channel::<u32>();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(9).unwrap();
        drop(tx2);
        let got = sim.block_on(async move { (rx.recv().await, rx.recv().await) });
        assert_eq!(got, (Some(9), None));
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let (tx, rx) = channel::<u32>();
        drop(rx);
        assert_eq!(tx.send(3), Err(SendError(3)));
        assert!(!tx.is_connected());
    }

    #[test]
    fn rendezvous_round_trip() {
        let sim = Sim::new();
        let table = Rendezvous::<u64>::new();
        let wait = table.open(());
        let (t, ticket) = (table.clone(), wait.ticket());
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(Duration::from_nanos(50)).await;
            assert_eq!(t.fill(ticket, 99), Some(()));
        });
        assert_eq!(sim.block_on(wait), Some(99));
        assert!(table.is_empty());
    }

    #[test]
    fn rendezvous_closed_cell_yields_none() {
        let sim = Sim::new();
        let table = Rendezvous::<u64, &str>::new();
        let wait = table.open("side");
        assert_eq!(table.close(wait.ticket()), Some("side"));
        assert_eq!(table.fill(wait.ticket(), 1), None, "already closed");
        assert_eq!(sim.block_on(wait), None);
        assert!(table.is_empty());
    }

    #[test]
    fn a_stale_ticket_never_reaches_the_next_tenant() {
        let sim = Sim::new();
        let table = Rendezvous::<u64, u32>::new();
        let first = table.open(1);
        let stale = first.ticket();
        table.fill(stale, 10);
        assert_eq!(sim.block_on(first), Some(10));
        // The freed slot goes to the next open; the old ticket must miss it.
        assert_eq!(table.next_ticket().slot(), stale.slot());
        let second = table.open(2);
        assert_eq!(second.ticket().slot(), stale.slot());
        assert_ne!(second.ticket(), stale);
        assert_eq!(table.fill(stale, 11), None);
        assert_eq!(table.close(stale), None);
        assert_eq!(table.fill(second.ticket(), 12), Some(2));
        assert_eq!(table.fill(stale, 13), None);
        assert_eq!(sim.block_on(second), Some(12));
        assert_eq!(table.table.borrow().cells.len(), 1, "one slot, recycled");
    }

    #[test]
    fn a_dropped_waiters_cell_is_freed_by_its_fill_or_close() {
        let table = Rendezvous::<u64, u32>::new();
        let (a, b) = (table.open(1), table.open(2));
        let (ta, tb) = (a.ticket(), b.ticket());
        drop(a);
        drop(b);
        assert_eq!(table.len(), 2, "abandoned cells wait for their answers");
        assert_eq!(table.fill(ta, 5), Some(1));
        assert_eq!(table.close(tb), Some(2));
        assert!(table.is_empty());
        assert_eq!(table.fill(ta, 6), None, "freed, and the ticket is stale");
        // Both slots are back on the free list: reopening grows nothing.
        let (c, d) = (table.open(3), table.open(4));
        assert_eq!(table.table.borrow().cells.len(), 2);
        // A waiter dropped after its cell settled frees it itself.
        table.fill(c.ticket(), 7);
        drop(c);
        drop(d);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn multiple_receiver_tasks_each_get_one_value() {
        let sim = Sim::new();
        let (tx, mut rx) = channel::<u32>();
        let collector = sim.spawn(async move {
            let mut out = Vec::new();
            while let Some(v) = rx.recv().await {
                out.push(v);
            }
            out
        });
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        sim.run();
        assert_eq!(collector.try_result().unwrap(), vec![0, 1, 2, 3]);
    }
}
