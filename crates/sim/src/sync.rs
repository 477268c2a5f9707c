//! Synchronization primitives operating in virtual time.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::Sim;
use crate::future_util::join_all;

// --- Semaphore --------------------------------------------------------------

struct SemState {
    permits: usize,
    /// Parked `Acquire`s in arrival order, one entry each.
    waiters: VecDeque<Waiter>,
    next_id: u64,
}

/// The one queue entry of a parked [`Acquire`].
struct Waiter {
    id: u64,
    waker: Waker,
    /// A `release` has woken this waiter and it has not polled since: it
    /// stands for a permit it has yet to take.
    woken: bool,
}

impl SemState {
    /// Wakes the longest-waiting waiter that no earlier `release` has
    /// already woken.
    fn wake_next(&mut self) {
        if let Some(w) = self.waiters.iter_mut().find(|w| !w.woken) {
            w.woken = true;
            w.waker.wake_by_ref();
        }
    }

    /// Takes the entry `id` names out of the queue, if it names one.
    fn unpark(&mut self, id: &mut Option<u64>) -> Option<Waiter> {
        let id = id.take()?;
        let at = self.waiters.iter().position(|w| w.id == id)?;
        self.waiters.remove(at)
    }
}

/// A counting semaphore for limiting concurrency between simulated tasks
/// (e.g. bounding the number of outstanding work requests on a queue pair).
///
/// Permits are acquired with [`Semaphore::acquire`] and returned explicitly
/// with [`Semaphore::release`] — no RAII guard is used, because simulated
/// NIC pipelines often release a permit from a completion handler rather
/// than from the acquiring task.
///
/// Waiters are woken in arrival order. A parked [`Acquire`] owns exactly one
/// queue entry however often it is polled, keeps its place if the permit it
/// was woken for is taken by a task that never waited, and hands its wake-up
/// on when it is dropped — so every `release` reaches a waiter that is still
/// there to use it.
#[derive(Clone)]
pub struct Semaphore {
    state: Rc<RefCell<SemState>>,
}

impl fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Semaphore")
            .field("permits", &self.state.borrow().permits)
            .field("waiters", &self.state.borrow().waiters.len())
            .finish()
    }
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            state: Rc::new(RefCell::new(SemState {
                permits,
                waiters: VecDeque::new(),
                next_id: 0,
            })),
        }
    }

    /// Waits until a permit is available and takes it.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            sem: self.clone(),
            id: None,
        }
    }

    /// Attempts to take a permit without waiting.
    pub fn try_acquire(&self) -> bool {
        let mut st = self.state.borrow_mut();
        if st.permits > 0 {
            st.permits -= 1;
            true
        } else {
            false
        }
    }

    /// Returns a permit, waking one waiter if any.
    pub fn release(&self) {
        let mut st = self.state.borrow_mut();
        st.permits += 1;
        st.wake_next();
    }

    /// Current number of free permits.
    pub fn available(&self) -> usize {
        self.state.borrow().permits
    }
}

/// Future returned by [`Semaphore::acquire`].
#[derive(Debug)]
pub struct Acquire {
    sem: Semaphore,
    /// This future's queue entry, while it is parked.
    id: Option<u64>,
}

impl Future for Acquire {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut st = this.sem.state.borrow_mut();
        if st.permits > 0 {
            st.permits -= 1;
            let entry = st.unpark(&mut this.id);
            drop(st);
            drop(entry);
            return Poll::Ready(());
        }
        let parked = this
            .id
            .and_then(|id| st.waiters.iter_mut().find(|w| w.id == id));
        match parked {
            // Polled again with nothing to take (a wake-up meant for another
            // future of this task, or a permit that went to a task that
            // never waited): same entry, same place in the queue.
            Some(w) => {
                w.woken = false;
                if !w.waker.will_wake(cx.waker()) {
                    let stale = std::mem::replace(&mut w.waker, cx.waker().clone());
                    drop(st);
                    drop(stale);
                }
            }
            None => {
                let id = st.next_id;
                st.next_id += 1;
                st.waiters.push_back(Waiter {
                    id,
                    waker: cx.waker().clone(),
                    woken: false,
                });
                this.id = Some(id);
            }
        }
        Poll::Pending
    }
}

impl Drop for Acquire {
    /// A waiter that gives up leaves the queue, and one that had already
    /// been woken passes the wake-up to the next in line: the permit it was
    /// woken for is still there.
    fn drop(&mut self) {
        let mut st = self.sem.state.borrow_mut();
        let entry = st.unpark(&mut self.id);
        if entry.as_ref().is_some_and(|w| w.woken) && st.permits > 0 {
            st.wake_next();
        }
        drop(st);
        drop(entry);
    }
}

// --- Barrier -----------------------------------------------------------------

struct BarrierState {
    n: usize,
    arrived: usize,
    generation: u64,
    waiters: Vec<Waker>,
    poisoned: bool,
}

/// A reusable barrier for superstep-style coordination (graph supersteps,
/// sort phases). All `n` participants must call [`Barrier::wait`] before any
/// of them proceeds; the barrier then resets for the next round. A [`gang`]
/// whose round can no longer fill — one member failed and will never
/// arrive — releases its barrier for good.
#[derive(Clone)]
pub struct Barrier {
    state: Rc<RefCell<BarrierState>>,
}

impl fmt::Debug for Barrier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.borrow();
        f.debug_struct("Barrier")
            .field("n", &st.n)
            .field("arrived", &st.arrived)
            .field("generation", &st.generation)
            .field("poisoned", &st.poisoned)
            .finish()
    }
}

impl Barrier {
    /// Creates a barrier for `n` participants.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier must have at least one participant");
        Barrier {
            state: Rc::new(RefCell::new(BarrierState {
                n,
                arrived: 0,
                generation: 0,
                waiters: Vec::new(),
                poisoned: false,
            })),
        }
    }

    /// Poisons the barrier: every parked [`Barrier::wait`] resolves now and
    /// every later one at once, each to `false`. Participants tell a
    /// poisoned release from a full round by [`Barrier::is_poisoned`].
    pub(crate) fn poison(&self) {
        let mut st = self.state.borrow_mut();
        st.poisoned = true;
        for w in st.waiters.drain(..) {
            w.wake();
        }
    }

    /// Whether [`Barrier::poison`] has been called.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.state.borrow().poisoned
    }

    /// Arrives at the barrier and waits for the rest of the group.
    ///
    /// Resolves to `true` for exactly one participant per round (the last
    /// arriver), mirroring `std::sync::Barrier`'s leader flag.
    pub fn wait(&self) -> BarrierWait {
        BarrierWait {
            barrier: self.clone(),
            arrived_gen: None,
        }
    }
}

/// Future returned by [`Barrier::wait`].
#[derive(Debug)]
pub struct BarrierWait {
    barrier: Barrier,
    arrived_gen: Option<(u64, bool)>,
}

impl Future for BarrierWait {
    type Output = bool;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<bool> {
        let mut st = self.barrier.state.borrow_mut();
        if st.poisoned {
            return Poll::Ready(false);
        }
        match self.arrived_gen {
            None => {
                st.arrived += 1;
                if st.arrived == st.n {
                    st.arrived = 0;
                    st.generation += 1;
                    for w in st.waiters.drain(..) {
                        w.wake();
                    }
                    Poll::Ready(true)
                } else {
                    let gen = st.generation;
                    st.waiters.push(cx.waker().clone());
                    drop(st);
                    self.arrived_gen = Some((gen, false));
                    Poll::Pending
                }
            }
            Some((gen, _)) => {
                if st.generation != gen {
                    Poll::Ready(false)
                } else {
                    st.waiters.push(cx.waker().clone());
                    Poll::Pending
                }
            }
        }
    }
}

// --- Gang --------------------------------------------------------------------

/// One member's place in a [`gang`]: its handle on the gang's barrier.
#[derive(Debug)]
pub struct Gang<E> {
    barrier: Barrier,
    survivor: fn() -> E,
}

impl<E> Gang<E> {
    /// The number of members.
    pub fn size(&self) -> usize {
        self.barrier.state.borrow().n
    }

    /// Waits until every member has arrived.
    ///
    /// # Errors
    ///
    /// The gang's survivor error once a member has failed: the round can
    /// never fill, and the gang is over. [`gang`] reports the failure
    /// itself, never this.
    pub async fn sync(&self) -> Result<(), E> {
        self.barrier.wait().await;
        if self.barrier.is_poisoned() {
            return Err((self.survivor)());
        }
        Ok(())
    }
}

/// Runs a gang of `n` workers that step through one shared barrier: spawns
/// `worker(i, gang)` for each `i` in `0..n`, in index order, and waits for
/// them all. The first worker to fail poisons the barrier, so every other
/// member's [`Gang::sync`], parked or later, returns `survivor()` instead of
/// waiting for an arrival that will never come. A healthy gang only reads a
/// flag at each sync.
///
/// # Errors
///
/// The error of the worker that failed first, never a survivor's.
///
/// # Panics
///
/// Panics if `n == 0`.
pub async fn gang<T, E, F, Fut>(
    sim: &Sim,
    n: usize,
    survivor: fn() -> E,
    mut worker: F,
) -> Result<Vec<T>, E>
where
    F: FnMut(usize, Gang<E>) -> Fut,
    Fut: Future<Output = Result<T, E>> + 'static,
    T: 'static,
    E: 'static,
{
    let barrier = Barrier::new(n);
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let member = worker(
                i,
                Gang {
                    barrier: barrier.clone(),
                    survivor,
                },
            );
            let barrier = barrier.clone();
            sim.spawn(async move {
                let out = member.await;
                let first = out.is_err() && !barrier.is_poisoned();
                if first {
                    barrier.poison();
                }
                (out, first)
            })
        })
        .collect();
    let mut values = Vec::with_capacity(n);
    for (out, first) in join_all(handles).await {
        match out {
            Ok(v) => values.push(v),
            Err(e) if first => return Err(e),
            Err(_) => {}
        }
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn semaphore_bounds_concurrency() {
        let sim = Sim::new();
        let sem = Semaphore::new(2);
        let active = Rc::new(RefCell::new((0usize, 0usize))); // (current, max)
        let mut handles = Vec::new();
        for _ in 0..8 {
            let sem = sem.clone();
            let active = active.clone();
            let s = sim.clone();
            handles.push(sim.spawn(async move {
                sem.acquire().await;
                {
                    let mut a = active.borrow_mut();
                    a.0 += 1;
                    a.1 = a.1.max(a.0);
                }
                s.sleep(Duration::from_nanos(10)).await;
                active.borrow_mut().0 -= 1;
                sem.release();
            }));
        }
        sim.run();
        assert!(handles.iter().all(|h| h.is_finished()));
        assert_eq!(active.borrow().1, 2, "max concurrency must equal permits");
        assert_eq!(sem.available(), 2);
    }

    #[test]
    fn try_acquire_fails_when_empty() {
        let sem = Semaphore::new(1);
        assert!(sem.try_acquire());
        assert!(!sem.try_acquire());
        sem.release();
        assert!(sem.try_acquire());
    }

    /// A waker that counts its wake-ups, for polling futures by hand.
    struct Flag(std::sync::atomic::AtomicUsize);

    impl std::task::Wake for Flag {
        fn wake(self: std::sync::Arc<Self>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// One hand-polled `acquire()`: the future, its waker, and how many
    /// wake-ups the test has seen so far.
    struct Hand {
        fut: Pin<Box<Acquire>>,
        flag: std::sync::Arc<Flag>,
        seen: usize,
    }

    impl Hand {
        fn new(sem: &Semaphore) -> Hand {
            Hand {
                fut: Box::pin(sem.acquire()),
                flag: std::sync::Arc::new(Flag(Default::default())),
                seen: 0,
            }
        }

        fn poll(&mut self) -> bool {
            let waker = Waker::from(self.flag.clone());
            self.seen = self.flag.0.load(std::sync::atomic::Ordering::Relaxed);
            self.fut
                .as_mut()
                .poll(&mut Context::from_waker(&waker))
                .is_ready()
        }

        /// Whether a wake-up arrived since the last poll.
        fn woken(&self) -> bool {
            self.flag.0.load(std::sync::atomic::Ordering::Relaxed) > self.seen
        }
    }

    #[test]
    fn waiter_polled_twice_does_not_strand_the_third() {
        // The holder releases twice; in between, the first waiter is polled a
        // second time for an unrelated reason. Its stale queue entry used to
        // absorb the second release, and the last waiter slept for ever.
        let sem = Semaphore::new(1);
        assert!(sem.try_acquire());
        let (mut a, mut b) = (Hand::new(&sem), Hand::new(&sem));
        assert!(!a.poll());
        assert!(!a.poll(), "a spurious poll parks the same entry again");
        assert!(!b.poll());
        sem.release();
        assert!(a.woken() && !b.woken(), "arrival order");
        assert!(a.poll());
        sem.release();
        assert!(b.woken(), "the second release must reach the second waiter");
        assert!(b.poll());
        assert_eq!(sem.available(), 0);
    }

    #[test]
    fn woken_waiter_dropped_passes_the_permit_on() {
        let sem = Semaphore::new(1);
        assert!(sem.try_acquire());
        let (mut a, mut b) = (Hand::new(&sem), Hand::new(&sem));
        assert!(!a.poll() && !b.poll());
        sem.release();
        assert!(a.woken() && !b.woken());
        drop(a); // e.g. the losing arm of a timeout, after its wake-up
        assert!(b.woken(), "the wake-up the dropped waiter held moves on");
        assert!(b.poll());
        // A waiter dropped before any wake-up just leaves the queue.
        let (mut c, mut d) = (Hand::new(&sem), Hand::new(&sem));
        assert!(!c.poll() && !d.poll());
        drop(c);
        sem.release();
        assert!(d.woken() && d.poll());
    }

    #[test]
    fn barged_waiter_keeps_its_place() {
        // A permit released to waiter `a` is taken by a task that never
        // waited; `a` finds nothing, and must still be first in line.
        let sem = Semaphore::new(1);
        assert!(sem.try_acquire());
        let (mut a, mut b) = (Hand::new(&sem), Hand::new(&sem));
        assert!(!a.poll() && !b.poll());
        sem.release();
        assert!(sem.try_acquire(), "barge");
        assert!(!a.poll());
        sem.release();
        assert!(a.woken() && !b.woken(), "a is still ahead of b");
    }

    #[test]
    fn seeded_mix_matches_a_counting_model() {
        // 10 000 random steps — new waiter, release, drop, spurious poll,
        // barge — against a model that only counts. After every step each
        // woken waiter is polled (as the executor would), and then nobody
        // may be parked while a permit is free: that is a lost wake-up.
        const PERMITS: usize = 3;
        let mut rng = crate::rng::DetRng::new(0x5E4A);
        let sem = Semaphore::new(PERMITS);
        let mut parked: Vec<Hand> = Vec::new();
        let mut held = 0usize; // permits the model says are out
        for step in 0..10_000 {
            match rng.range_u64(0, 5) {
                0 => {
                    let mut h = Hand::new(&sem);
                    if h.poll() {
                        held += 1;
                    } else {
                        parked.push(h);
                    }
                }
                1 if held > 0 => {
                    sem.release();
                    held -= 1;
                }
                2 if !parked.is_empty() => {
                    let i = rng.range_u64(0, parked.len() as u64) as usize;
                    drop(parked.remove(i));
                }
                3 if !parked.is_empty() => {
                    let i = rng.range_u64(0, parked.len() as u64) as usize;
                    if parked[i].poll() {
                        held += 1;
                        parked.remove(i);
                    }
                }
                4 if sem.try_acquire() => held += 1,
                _ => {}
            }
            // Run every woken waiter, oldest first, until none is left.
            while let Some(i) = parked.iter().position(Hand::woken) {
                if parked[i].poll() {
                    held += 1;
                    parked.remove(i);
                }
            }
            assert_eq!(sem.available() + held, PERMITS, "step {step}");
            assert!(
                parked.is_empty() || sem.available() == 0,
                "step {step}: {} waiters parked beside {} free permits",
                parked.len(),
                sem.available()
            );
        }
        assert!(parked.len() + held > 0, "the mix must exercise contention");
    }

    #[test]
    fn barrier_releases_all_and_reuses() {
        let sim = Sim::new();
        let barrier = Barrier::new(3);
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let b = barrier.clone();
            let log = log.clone();
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(Duration::from_nanos(i as u64 * 10)).await;
                log.borrow_mut().push(("arrive", i));
                b.wait().await;
                log.borrow_mut().push(("pass1", i));
                b.wait().await;
                log.borrow_mut().push(("pass2", i));
            });
        }
        sim.run();
        let log = log.borrow();
        let pos = |tag: &str, i: u32| log.iter().position(|e| *e == (tag, i)).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!(pos("arrive", i) < pos("pass1", j));
                assert!(pos("pass1", i) < pos("pass2", j));
            }
        }
    }

    #[test]
    fn barrier_leader_flag_unique() {
        let sim = Sim::new();
        let barrier = Barrier::new(4);
        let leaders = Rc::new(RefCell::new(0));
        for _ in 0..4 {
            let b = barrier.clone();
            let leaders = leaders.clone();
            sim.spawn(async move {
                if b.wait().await {
                    *leaders.borrow_mut() += 1;
                }
            });
        }
        sim.run();
        assert_eq!(*leaders.borrow(), 1);
    }

    #[test]
    fn a_poisoned_barrier_releases_the_parked_and_the_late() {
        // Two of three participants park; the third fails instead of
        // arriving and poisons the barrier. Both parked waits resolve at the
        // poison, and a wait that starts afterwards resolves at once.
        let sim = Sim::new();
        let barrier = Barrier::new(3);
        let released = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let (b, released, s) = (barrier.clone(), released.clone(), sim.clone());
            sim.spawn(async move {
                let leader = b.wait().await;
                released
                    .borrow_mut()
                    .push((s.now(), leader, b.is_poisoned()));
            });
        }
        let (b, s) = (barrier.clone(), sim.clone());
        sim.spawn(async move {
            s.sleep(Duration::from_nanos(50)).await;
            b.poison();
        });
        sim.run();
        let at = crate::time::SimTime::ZERO + Duration::from_nanos(50);
        assert_eq!(*released.borrow(), vec![(at, false, true); 2]);
        let late = sim.spawn(async move { barrier.wait().await });
        sim.run();
        assert_eq!(late.try_result(), Some(false));
    }

    #[test]
    fn a_gang_returns_the_first_failure_and_releases_the_rest() {
        // Member 1 fails at 50 ns while 0 and 2 wait at the barrier, and 3
        // fails with its own error later. Every survivor's sync returns the
        // survivor error, and the gang returns member 1's error at once.
        let sim = Sim::new();
        let synced = Rc::new(RefCell::new(Vec::new()));
        let (s, log) = (sim.clone(), synced.clone());
        let job = sim.spawn(async move {
            let out = gang(
                &s,
                4,
                || "flushed",
                |me, gang| {
                    let (s, log) = (s.clone(), log.clone());
                    async move {
                        s.sleep(Duration::from_nanos(50 * me as u64)).await;
                        match me {
                            1 => return Err("first"),
                            3 => return Err("late"),
                            _ => {}
                        }
                        let r = gang.sync().await;
                        log.borrow_mut().push((me, s.now(), r));
                        r.map(|()| me)
                    }
                },
            )
            .await;
            (out, s.now())
        });
        sim.run();
        let at = crate::time::SimTime::ZERO + Duration::from_nanos(50);
        let end = crate::time::SimTime::ZERO + Duration::from_nanos(150);
        assert_eq!(job.try_result(), Some((Err("first"), end)));
        let late = crate::time::SimTime::ZERO + Duration::from_nanos(100);
        assert_eq!(
            *synced.borrow(),
            vec![(0, at, Err("flushed")), (2, late, Err("flushed"))]
        );
    }
}
