//! The simulation executor: tasks, events, and the virtual-time run loop.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::time::Duration;

use crate::queue::{Action, EventQueue, EventSink, TimerId};
use crate::time::SimTime;
use crate::trace::Recorder;

/// Handle to a running simulation.
///
/// `Sim` is a cheap reference-counted handle; clone it freely and hand clones
/// to every simulated component. All state lives behind a single-threaded
/// `Rc<RefCell<..>>`, which is what makes runs deterministic: there is exactly
/// one runnable entity at any instant.
///
/// The executor interleaves two queues:
///
/// * a FIFO of *ready tasks* (woken futures), all considered to happen at the
///   current virtual instant, and
/// * a priority queue of *events* keyed by `(time, sequence)`; when no task is
///   ready the clock jumps to the earliest event.
///
/// An event is a task wake-up ([`Sim::sleep`]), a boxed closure
/// ([`Sim::schedule`], for cold paths and tests) or a typed event delivered
/// to an [`EventSink`] ([`Sim::schedule_event`], which allocates nothing).
/// Every scheduling call returns a [`TimerId`]; [`Sim::cancel`] takes the
/// event out of the queue, so the queue only ever holds events that can
/// still fire. The sequence number is drawn when an event is scheduled,
/// whether or not it is later cancelled: the events that do fire keep the
/// order they would have had with no cancellation at all.
///
/// ```rust
/// use sim::{Sim, Duration};
/// let sim = Sim::new();
/// let s2 = sim.clone();
/// sim.spawn(async move { s2.sleep(Duration::from_nanos(10)).await });
/// sim.run();
/// assert_eq!(sim.now().as_nanos(), 10);
/// ```
#[derive(Clone)]
pub struct Sim {
    core: Rc<RefCell<Core>>,
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let core = self.core.borrow();
        f.debug_struct("Sim")
            .field("now", &core.now)
            .field("pending_events", &core.events.len())
            .field("ready_tasks", &core.ready.len())
            .field("live_tasks", &core.live_tasks)
            .finish()
    }
}

struct Core {
    now: SimTime,
    seq: u64,
    events: EventQueue,
    ready: VecDeque<Rc<Task>>,
    next_task_id: u64,
    live_tasks: usize,
    /// The handle [`Sim::recorder`] clones out; it is told the time
    /// whenever the clock moves.
    recorder: Recorder,
}

impl Core {
    fn advance(&mut self, to: SimTime) {
        self.now = to;
        self.recorder.set_now(to);
    }
}

/// Executor work done on one thread, summed over every [`Sim`] that ran on
/// it: the host-time profile's view of the event queue.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct ExecTotals {
    /// Events fired.
    pub events: u64,
    /// Events cancelled before they could fire.
    pub events_cancelled: u64,
    /// The most events any one simulation had scheduled at once.
    pub peak_pending_events: u64,
}

thread_local! {
    static TOTALS: Cell<ExecTotals> = const {
        Cell::new(ExecTotals {
            events: 0,
            events_cancelled: 0,
            peak_pending_events: 0,
        })
    };
}

fn update_totals(f: impl FnOnce(&mut ExecTotals)) {
    TOTALS.with(|cell| {
        let mut totals = cell.get();
        f(&mut totals);
        cell.set(totals);
    });
}

/// Returns this thread's [`ExecTotals`] since the previous call and resets
/// them.
pub fn take_exec_totals() -> ExecTotals {
    TOTALS.with(Cell::take)
}

struct Task {
    id: u64,
    core: Weak<RefCell<Core>>,
    future: RefCell<Option<Pin<Box<dyn Future<Output = ()>>>>>,
    queued: Cell<bool>,
}

impl Task {
    fn schedule(self: &Rc<Self>) {
        if self.queued.replace(true) {
            return;
        }
        if let Some(core) = self.core.upgrade() {
            core.borrow_mut().ready.push_back(self.clone());
        }
    }
}

impl Drop for Task {
    fn drop(&mut self) {
        // A task dropped before completion (e.g. blocked on a channel whose
        // peer went away) still counts down the live-task gauge.
        if self.future.borrow().is_some() {
            if let Some(core) = self.core.upgrade() {
                core.borrow_mut().live_tasks -= 1;
            }
        }
    }
}

// --- Waker plumbing -------------------------------------------------------
//
// The waker holds an `Rc<Task>`. The executor is strictly single-threaded and
// all futures are `!Send`; wakers never cross threads, so the (unsafe,
// thread-affine) vtable below upholds the `RawWaker` contract in practice.

const VTABLE: RawWakerVTable = RawWakerVTable::new(clone_raw, wake_raw, wake_by_ref_raw, drop_raw);

fn raw_waker(task: Rc<Task>) -> RawWaker {
    RawWaker::new(Rc::into_raw(task) as *const (), &VTABLE)
}

unsafe fn clone_raw(ptr: *const ()) -> RawWaker {
    let task = Rc::from_raw(ptr as *const Task);
    let cloned = task.clone();
    std::mem::forget(task);
    raw_waker(cloned)
}

unsafe fn wake_raw(ptr: *const ()) {
    let task = Rc::from_raw(ptr as *const Task);
    task.schedule();
}

unsafe fn wake_by_ref_raw(ptr: *const ()) {
    let task = Rc::from_raw(ptr as *const Task);
    task.schedule();
    std::mem::forget(task);
}

unsafe fn drop_raw(ptr: *const ()) {
    drop(Rc::from_raw(ptr as *const Task));
}

fn task_waker(task: Rc<Task>) -> Waker {
    // SAFETY: the vtable functions above correctly manage the Rc refcount and
    // the waker is only ever used on the executor thread.
    unsafe { Waker::from_raw(raw_waker(task)) }
}

// --- Join handles ---------------------------------------------------------

struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
}

/// A handle to a spawned task that resolves to the task's output.
///
/// Awaiting the handle inside another task yields the result once the task
/// finishes; outside the simulation, [`JoinHandle::try_result`] extracts the
/// value after [`Sim::run`] has completed.
///
/// Dropping the handle detaches the task (it keeps running).
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinHandle")
            .field("finished", &self.state.borrow().result.is_some())
            .finish()
    }
}

impl<T> JoinHandle<T> {
    /// Returns the task's output if it has finished, consuming the stored
    /// value. Returns `None` if the task is still pending (or the value was
    /// already taken).
    pub fn try_result(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }

    /// Returns true once the task has produced its output.
    pub fn is_finished(&self) -> bool {
        self.state.borrow().result.is_some()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        if let Some(v) = st.result.take() {
            Poll::Ready(v)
        } else {
            st.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

// --- Sleep future ---------------------------------------------------------

/// Future returned by [`Sim::sleep`] and [`Sim::sleep_until`].
#[derive(Debug)]
pub struct Sleep {
    sim: Sim,
    deadline: SimTime,
    /// The wake-up event, once the first poll has scheduled it.
    timer: Option<TimerId>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            return Poll::Ready(());
        }
        if self.timer.is_none() {
            let at = self.deadline;
            self.timer = Some(self.sim.push_event(at, Action::Wake(cx.waker().clone())));
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    /// A sleep abandoned before its deadline (the losing arm of a timeout)
    /// takes its wake-up out of the queue with it.
    fn drop(&mut self) {
        if let Some(timer) = self.timer {
            self.sim.cancel(timer);
        }
    }
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates a new, empty simulation at time zero.
    pub fn new() -> Self {
        Sim {
            core: Rc::new(RefCell::new(Core {
                now: SimTime::ZERO,
                seq: 0,
                events: EventQueue::default(),
                ready: VecDeque::new(),
                next_task_id: 0,
                live_tasks: 0,
                recorder: Recorder::default(),
            })),
        }
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.borrow().now
    }

    /// Returns a handle to this simulation's recorder: the event ring, the
    /// per-op recording level, and what finished ops are filed into. All
    /// handles for one simulation share state; recording starts off — call
    /// [`Recorder::enable`].
    pub fn recorder(&self) -> Recorder {
        self.core.borrow().recorder.clone()
    }

    /// Number of spawned tasks that have not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.core.borrow().live_tasks
    }

    /// Spawns a future as a new task and returns a [`JoinHandle`] for its
    /// output. The task starts running at the next executor step.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
    {
        let state = Rc::new(RefCell::new(JoinState {
            result: None,
            waker: None,
        }));
        let state2 = state.clone();
        let wrapped = async move {
            let out = fut.await;
            let mut st = state2.borrow_mut();
            st.result = Some(out);
            if let Some(w) = st.waker.take() {
                w.wake();
            }
        };
        let task = {
            let mut core = self.core.borrow_mut();
            core.next_task_id += 1;
            core.live_tasks += 1;
            Rc::new(Task {
                id: core.next_task_id,
                core: Rc::downgrade(&self.core),
                future: RefCell::new(Some(Box::pin(wrapped))),
                queued: Cell::new(false),
            })
        };
        task.schedule();
        JoinHandle { state }
    }

    /// Sleeps for `d` of virtual time.
    pub fn sleep(&self, d: Duration) -> Sleep {
        self.sleep_until(self.now() + d)
    }

    /// Sleeps until the given virtual instant (returns immediately if it is
    /// in the past).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            deadline,
            timer: None,
        }
    }

    /// Schedules `f` to run at `now + delay` as a standalone event (not a
    /// task). The closure is boxed: this is the call for cold paths (fault
    /// plans, tests); hot paths use [`Sim::schedule_event`].
    pub fn schedule<F>(&self, delay: Duration, f: F) -> TimerId
    where
        F: FnOnce() + 'static,
    {
        let at = self.now() + delay;
        self.schedule_at(at, f)
    }

    /// Schedules `f` at an absolute virtual instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn schedule_at<F>(&self, at: SimTime, f: F) -> TimerId
    where
        F: FnOnce() + 'static,
    {
        self.push_event(at, Action::Call(Box::new(f)))
    }

    /// Schedules `sink.fire(a, b)` at the absolute virtual instant `at`.
    /// Nothing is allocated: the queue keeps a clone of the `Rc` and the two
    /// tokens in the event's slot.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn schedule_event<S>(&self, at: SimTime, sink: &Rc<S>, a: u64, b: u64) -> TimerId
    where
        S: EventSink + 'static,
    {
        self.push_event(at, Action::Sink(sink.clone(), a, b))
    }

    /// Takes a scheduled event out of the queue; it will not fire. Returns
    /// whether there was anything to cancel: an id whose event already fired
    /// or was already cancelled is stale, and cancelling it does nothing.
    pub fn cancel(&self, timer: TimerId) -> bool {
        let action = self.core.borrow_mut().events.cancel(timer);
        // `action` (a waker, a closure's captures, a sink) drops at the end
        // of this call, after the queue's borrow is released: its destructor
        // may re-enter the simulation.
        if action.is_some() {
            update_totals(|t| t.events_cancelled += 1);
        }
        action.is_some()
    }

    /// Number of scheduled events that have neither fired nor been cancelled.
    pub fn pending_events(&self) -> usize {
        self.core.borrow().events.len()
    }

    fn push_event(&self, at: SimTime, action: Action) -> TimerId {
        let mut core = self.core.borrow_mut();
        // A wake-up may be asked for in the past (a sleep polled late); it
        // fires at once. Anything else scheduled into the past is a bug.
        let at = match action {
            Action::Wake(_) => at.max(core.now),
            _ => {
                assert!(at >= core.now, "cannot schedule into the past");
                at
            }
        };
        core.seq += 1;
        let seq = core.seq;
        let timer = core.events.push(at, seq, action);
        let pending = core.events.len() as u64;
        update_totals(|t| t.peak_pending_events = t.peak_pending_events.max(pending));
        timer
    }

    /// Runs the simulation until no tasks are runnable and no events remain.
    ///
    /// Returns the final virtual time. Tasks that are still blocked (e.g. on
    /// a channel no one will ever write to) are left pending; inspect
    /// [`Sim::live_tasks`] to detect deadlocks in tests.
    pub fn run(&self) -> SimTime {
        self.run_inner(None)
    }

    /// Runs the simulation, but stops (without firing further events) once
    /// the clock would pass `deadline`. Returns the time at which execution
    /// stopped.
    pub fn run_until(&self, deadline: SimTime) -> SimTime {
        self.run_inner(Some(deadline))
    }

    /// Spawns `fut` and steps the simulation until the task completes,
    /// returning its output. Unlike [`Sim::run`], this stops as soon as the
    /// future resolves, so it terminates even when perpetual background
    /// tasks (heartbeats, sweeps) keep scheduling events.
    ///
    /// # Panics
    ///
    /// Panics if the simulation runs out of events before the future
    /// resolves (i.e. the future deadlocked).
    pub fn block_on<F>(&self, fut: F) -> F::Output
    where
        F: Future + 'static,
    {
        let handle = self.spawn(fut);
        loop {
            if let Some(v) = handle.try_result() {
                return v;
            }
            assert!(
                self.step(None),
                "block_on: simulation ran dry before the future resolved"
            );
        }
    }

    /// Executes one unit of work: the next ready task, or — when none is
    /// ready — the earliest event (advancing the clock). Returns `false` if
    /// there was nothing to do, or if the next event lies beyond `deadline`.
    fn step(&self, deadline: Option<SimTime>) -> bool {
        let task = self.core.borrow_mut().ready.pop_front();
        if let Some(task) = task {
            self.poll_task(task);
            return true;
        }
        let action = {
            let mut core = self.core.borrow_mut();
            let Some(at) = core.events.next_at() else {
                return false;
            };
            if let Some(d) = deadline.filter(|&d| at > d) {
                // The event stays where it is; the caller may resume later.
                let stop = d.max(core.now);
                core.advance(stop);
                return false;
            }
            debug_assert!(at >= core.now, "event time went backwards");
            core.advance(at);
            core.events.pop().expect("peeked above").1
        };
        update_totals(|t| t.events += 1);
        match action {
            Action::Wake(w) => w.wake(),
            Action::Call(f) => f(),
            Action::Sink(sink, a, b) => sink.fire(a, b),
        }
        true
    }

    fn run_inner(&self, deadline: Option<SimTime>) -> SimTime {
        while self.step(deadline) {}
        self.core.borrow().now
    }

    fn poll_task(&self, task: Rc<Task>) {
        task.queued.set(false);
        // Take the future out so the RefCell is not held across the poll
        // (the future may re-entrantly wake or spawn).
        let fut = task.future.borrow_mut().take();
        let mut fut = match fut {
            Some(f) => f,
            None => return, // already completed
        };
        let waker = task_waker(task.clone());
        let mut cx = Context::from_waker(&waker);
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                self.core.borrow_mut().live_tasks -= 1;
                let _ = task.id;
            }
            Poll::Pending => {
                *task.future.borrow_mut() = Some(fut);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn spawn_and_block_on_returns_value() {
        let sim = Sim::new();
        let v = sim.block_on(async { 41 + 1 });
        assert_eq!(v, 42);
    }

    #[test]
    fn sleep_advances_virtual_time_only() {
        let sim = Sim::new();
        let s = sim.clone();
        let t = sim.block_on(async move {
            s.sleep(Duration::from_secs(3600)).await;
            s.now()
        });
        assert_eq!(t.as_nanos(), 3600 * 1_000_000_000);
    }

    #[test]
    fn events_fire_in_time_then_fifo_order() {
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (delay, tag) in [(30u64, 'c'), (10, 'a'), (10, 'b'), (20, 'x')] {
            let log = log.clone();
            sim.schedule(Duration::from_nanos(delay), move || {
                log.borrow_mut().push(tag)
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec!['a', 'b', 'x', 'c']);
    }

    #[test]
    fn join_handle_awaits_child() {
        let sim = Sim::new();
        let s = sim.clone();
        let out = sim.block_on(async move {
            let child = s.spawn({
                let s = s.clone();
                async move {
                    s.sleep(Duration::from_nanos(100)).await;
                    7
                }
            });
            child.await * 3
        });
        assert_eq!(out, 21);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(Duration::from_nanos(1000)).await;
        });
        let stopped = sim.run_until(SimTime::from_nanos(500));
        assert_eq!(stopped.as_nanos(), 500);
        assert!(!h.is_finished());
        sim.run();
        assert!(h.is_finished());
        assert_eq!(sim.now().as_nanos(), 1000);
    }

    /// A sink that logs the tokens it is fired with.
    #[derive(Default)]
    struct Log(RefCell<Vec<(u64, u64)>>);

    impl EventSink for Log {
        fn fire(self: Rc<Self>, a: u64, b: u64) {
            self.0.borrow_mut().push((a, b));
        }
    }

    #[test]
    fn cancelled_events_leave_the_queue_and_never_run() {
        let sim = Sim::new();
        let log = Rc::new(Log::default());
        let ran = Rc::new(Cell::new(false));
        let r = ran.clone();
        let call = sim.schedule(Duration::from_nanos(10), move || r.set(true));
        let dead = sim.schedule_event(SimTime::from_nanos(20), &log, 1, 1);
        let live = sim.schedule_event(SimTime::from_nanos(30), &log, 2, 3);
        assert_eq!(sim.pending_events(), 3);
        assert!(sim.cancel(call));
        assert!(sim.cancel(dead));
        assert_eq!(sim.pending_events(), 1);
        assert!(!sim.cancel(dead), "already cancelled");
        // The freed slot goes to a newer event; the stale id must miss it.
        let reuse = sim.schedule_event(SimTime::from_nanos(40), &log, 4, 5);
        assert!(!sim.cancel(dead), "stale generation");
        assert_eq!(sim.pending_events(), 2);
        sim.run();
        assert!(!ran.get());
        assert_eq!(*log.0.borrow(), vec![(2, 3), (4, 5)]);
        assert!(!sim.cancel(live), "already fired");
        assert!(!sim.cancel(reuse), "already fired");
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn survivors_fire_in_the_order_they_would_have_without_cancellation() {
        let sim = Sim::new();
        let log = Rc::new(Log::default());
        let mut rng = crate::DetRng::new(15);
        let mut live: Vec<(u64, u64, TimerId)> = Vec::new();
        for call in 0..10_000u64 {
            if !live.is_empty() && rng.chance(0.4) {
                let victim = rng.range_u64(0, live.len() as u64) as usize;
                assert!(sim.cancel(live.swap_remove(victim).2));
            } else {
                let at = rng.range_u64(0, 500);
                let timer = sim.schedule_event(SimTime::from_nanos(at), &log, at, call);
                live.push((at, call, timer));
            }
            assert_eq!(sim.pending_events(), live.len());
        }
        // Without cancellation everything fires by (time, schedule order);
        // the survivors must keep exactly that relative order.
        live.sort_unstable_by_key(|&(at, call, _)| (at, call));
        let expect: Vec<_> = live.iter().map(|&(at, call, _)| (at, call)).collect();
        sim.run();
        assert_eq!(*log.0.borrow(), expect);
    }

    #[test]
    fn run_ends_at_the_last_live_event() {
        let sim = Sim::new();
        sim.schedule(Duration::from_nanos(100), || {});
        let late = sim.schedule(Duration::from_secs(2), || {});
        sim.cancel(late);
        assert_eq!(sim.run().as_nanos(), 100);
    }

    #[test]
    fn run_until_leaves_later_events_in_order() {
        let sim = Sim::new();
        let log = Rc::new(Log::default());
        for (i, at) in [700u64, 300, 700, 900, 300].into_iter().enumerate() {
            sim.schedule_event(SimTime::from_nanos(at), &log, at, i as u64);
        }
        assert_eq!(sim.run_until(SimTime::from_nanos(500)).as_nanos(), 500);
        assert_eq!(*log.0.borrow(), vec![(300, 1), (300, 4)]);
        assert_eq!(sim.pending_events(), 3);
        // Stopping twice short of the next event must not disturb it either.
        assert_eq!(sim.run_until(SimTime::from_nanos(600)).as_nanos(), 600);
        sim.run();
        assert_eq!(log.0.borrow()[2..], [(700, 0), (700, 2), (900, 3)]);
    }

    #[test]
    fn dropped_sleep_leaves_no_event() {
        let sim = Sim::new();
        let mut sleep = Box::pin(sim.sleep(Duration::from_secs(9)));
        let mut cx = Context::from_waker(Waker::noop());
        assert!(sleep.as_mut().poll(&mut cx).is_pending());
        assert_eq!(sim.pending_events(), 1, "the sleep registered its wake");
        drop(sleep);
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.run(), SimTime::ZERO);
    }

    #[test]
    fn exec_totals_count_fired_and_cancelled_events() {
        let _ = take_exec_totals();
        let sim = Sim::new();
        let timers: Vec<_> = (1..=5)
            .map(|i| sim.schedule(Duration::from_nanos(i), || {}))
            .collect();
        sim.cancel(timers[0]);
        sim.cancel(timers[3]);
        sim.run();
        let totals = take_exec_totals();
        assert_eq!(totals.events, 3);
        assert_eq!(totals.events_cancelled, 2);
        assert_eq!(totals.peak_pending_events, 5);
        assert_eq!(take_exec_totals(), ExecTotals::default());
    }

    #[test]
    fn live_tasks_counts_deadlocked_tasks() {
        let sim = Sim::new();
        let (_tx, mut rx) = channel::<u32>();
        sim.spawn(async move {
            // Never receives anything; _tx is alive in the test scope until
            // `run` returns, so the task stays blocked.
            let _ = rx.recv().await;
        });
        sim.run();
        assert_eq!(sim.live_tasks(), 1);
    }

    #[test]
    fn tasks_at_same_instant_run_fifo() {
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let log = log.clone();
            sim.spawn(async move { log.borrow_mut().push(i) });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "ran dry")]
    fn block_on_panics_on_deadlock() {
        let sim = Sim::new();
        let (_tx, mut rx) = channel::<u32>();
        sim.block_on(async move {
            rx.recv().await;
        });
    }

    #[test]
    fn determinism_two_identical_runs() {
        fn run_once() -> Vec<u64> {
            let sim = Sim::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 1..=10u64 {
                let s = sim.clone();
                let log = log.clone();
                sim.spawn(async move {
                    s.sleep(Duration::from_nanos(i * 7 % 5 + 1)).await;
                    log.borrow_mut().push(s.now().as_nanos() * 100 + i);
                });
            }
            sim.run();
            let v = log.borrow().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }
}
