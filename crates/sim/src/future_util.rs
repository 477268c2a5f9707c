//! Minimal future combinators (the workspace uses no external futures crate).

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Duration;

use crate::executor::{Sim, Sleep};

/// Polls a set of futures concurrently and resolves once all have finished,
/// yielding their outputs in input order.
///
/// ```rust
/// use sim::{Sim, Duration, join_all};
/// let sim = Sim::new();
/// let s = sim.clone();
/// let out = sim.block_on(async move {
///     let futs = (1..=3u64).map(|i| {
///         let s = s.clone();
///         async move { s.sleep(Duration::from_nanos(i)).await; i }
///     });
///     join_all(futs).await
/// });
/// assert_eq!(out, vec![1, 2, 3]);
/// ```
pub fn join_all<I>(futures: I) -> JoinAll<<I as IntoIterator>::Item>
where
    I: IntoIterator,
    I::Item: Future,
{
    JoinAll {
        slots: futures
            .into_iter()
            .map(|f| Slot::Pending(Box::pin(f)))
            .collect(),
    }
}

enum Slot<F: Future> {
    Pending(Pin<Box<F>>),
    Done(Option<F::Output>),
}

/// Future returned by [`join_all`].
pub struct JoinAll<F: Future> {
    slots: Vec<Slot<F>>,
}

impl<F: Future> std::fmt::Debug for JoinAll<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinAll")
            .field("total", &self.slots.len())
            .finish()
    }
}

impl<F: Future> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Vec<F::Output>> {
        let this = unsafe { self.get_unchecked_mut() };
        let mut all_done = true;
        for slot in &mut this.slots {
            if let Slot::Pending(f) = slot {
                match f.as_mut().poll(cx) {
                    Poll::Ready(v) => *slot = Slot::Done(Some(v)),
                    Poll::Pending => all_done = false,
                }
            }
        }
        if all_done {
            Poll::Ready(
                this.slots
                    .iter_mut()
                    .map(|s| match s {
                        Slot::Done(v) => v.take().expect("output taken twice"),
                        Slot::Pending(_) => unreachable!(),
                    })
                    .collect(),
            )
        } else {
            Poll::Pending
        }
    }
}

impl Sim {
    /// Bounds `fut` in virtual time: resolves to its output, or to `None`
    /// once `after` has passed. The loser is dropped with the returned
    /// future — a [`Sleep`] that lost takes its timer out of the queue.
    ///
    /// Each poll tries `fut` first, so an output ready at the deadline wins,
    /// and the timer's event sequence number is drawn on the first poll,
    /// after whatever `fut` scheduled in its own. `fut` must be `Unpin`:
    /// wrap an `async` block in [`std::pin::pin!`].
    ///
    /// ```rust
    /// use sim::{Sim, Duration};
    /// let sim = Sim::new();
    /// let s = sim.clone();
    /// let out = sim.block_on(async move {
    ///     let slow = std::pin::pin!(s.sleep(Duration::from_micros(9)));
    ///     let fast = std::pin::pin!(async { 7 });
    ///     let us = Duration::from_micros(1);
    ///     (s.timeout(us, slow).await, s.timeout(us, fast).await, s.now())
    /// });
    /// assert_eq!((out.0, out.1, out.2.as_nanos()), (None, Some(7), 1_000));
    /// ```
    pub fn timeout<F: Future + Unpin>(&self, after: Duration, fut: F) -> Timeout<F> {
        Timeout {
            fut,
            sleep: self.sleep(after),
        }
    }
}

/// Future returned by [`Sim::timeout`].
#[derive(Debug)]
pub struct Timeout<F> {
    fut: F,
    sleep: Sleep,
}

impl<F: Future + Unpin> Future for Timeout<F> {
    type Output = Option<F::Output>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Poll::Ready(v) = Pin::new(&mut self.fut).poll(cx) {
            return Poll::Ready(Some(v));
        }
        Pin::new(&mut self.sleep).poll(cx).map(|()| None)
    }
}

/// Yields control back to the executor once, letting other tasks runnable at
/// the same virtual instant proceed.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
#[derive(Debug)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::time::Duration;

    #[test]
    fn join_all_preserves_order_despite_completion_order() {
        let sim = Sim::new();
        let s = sim.clone();
        let out = sim.block_on(async move {
            let futs: Vec<_> = [30u64, 10, 20]
                .iter()
                .map(|&d| {
                    let s = s.clone();
                    async move {
                        s.sleep(Duration::from_nanos(d)).await;
                        d
                    }
                })
                .collect();
            join_all(futs).await
        });
        assert_eq!(out, vec![30, 10, 20]);
    }

    #[test]
    fn join_all_empty_is_immediate() {
        let sim = Sim::new();
        let out: Vec<u32> =
            sim.block_on(async move { join_all(Vec::<std::future::Ready<u32>>::new()).await });
        assert!(out.is_empty());
    }

    #[test]
    fn timeout_resolves_to_the_first_arm_and_cancels_the_loser() {
        let sim = Sim::new();
        let s = sim.clone();
        let (won, lost) = sim.block_on(async move {
            let us = Duration::from_micros;
            let won = s.timeout(us(5), std::pin::pin!(s.sleep(us(2)))).await;
            // The losing deadline is out of the queue, not left to fire.
            assert_eq!((s.now().as_nanos(), s.pending_events()), (2_000, 0));
            let lost = s.timeout(us(5), std::pin::pin!(s.sleep(us(9)))).await;
            assert_eq!((s.now().as_nanos(), s.pending_events()), (7_000, 0));
            (won, lost)
        });
        assert_eq!((won, lost), (Some(()), None));
    }

    #[test]
    fn yield_now_interleaves_tasks() {
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for id in 0..2 {
            let log = log.clone();
            sim.spawn(async move {
                log.borrow_mut().push((id, 0));
                yield_now().await;
                log.borrow_mut().push((id, 1));
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }
}
