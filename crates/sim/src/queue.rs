//! The executor's event queue: a slab of event slots plus an index heap.
//!
//! The heap orders `(at, seq)` keys and holds nothing but live events: a
//! cancelled event leaves the heap at once (O(log live)), its slot goes back
//! on a free list, and a steady-state schedule/fire/cancel mix allocates
//! nothing. Each slot remembers where its key sits in the heap, which is what
//! makes removal from the middle possible; each heap move writes that
//! back-pointer.

use std::rc::Rc;
use std::task::Waker;

use crate::time::SimTime;

/// Receiver of typed, unboxed events: the alternative to a boxed closure for
/// code that schedules on a hot path.
///
/// A component implements this once on the state it already shares behind an
/// `Rc` and hands that `Rc` to [`Sim::schedule_event`](crate::Sim::schedule_event)
/// with two `u64` tokens of its own choosing (a slot index, a node id, a
/// `(queue pair, request)` pair…). The queue stores a clone of the `Rc` and
/// the tokens inline in the event's slot, so scheduling allocates nothing.
pub trait EventSink {
    /// Runs the event scheduled with tokens `a` and `b`.
    fn fire(self: Rc<Self>, a: u64, b: u64);
}

/// Names one scheduled event, for [`Sim::cancel`](crate::Sim::cancel).
///
/// An id goes stale the moment its event fires or is cancelled: the slot's
/// generation moves on, so cancelling with a stale id does nothing even after
/// the slot has been handed to a newer event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId {
    slot: u32,
    gen: u32,
}

/// What an event does when it fires.
pub(crate) enum Action {
    Wake(Waker),
    Call(Box<dyn FnOnce()>),
    Sink(Rc<dyn EventSink>, u64, u64),
}

struct Slot {
    /// Bumped when the slot is vacated; a [`TimerId`] matches one tenancy.
    gen: u32,
    /// Occupied: index of this event's key in `heap`. Vacant: next free slot.
    link: u32,
    action: Option<Action>,
}

#[derive(Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    fn before(&self, other: &Key) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

const NIL: u32 = u32::MAX;
/// Heap fan-out: four children per node halves the depth of a binary heap,
/// and the four keys compared per level share a cache line or two.
const D: usize = 4;

pub(crate) struct EventQueue {
    slots: Vec<Slot>,
    /// Head of the vacant-slot list, [`NIL`] when every slot is occupied.
    free: u32,
    heap: Vec<Key>,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: NIL,
            heap: Vec::new(),
        }
    }
}

impl EventQueue {
    /// Number of live (scheduled, neither fired nor cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Time of the earliest live event.
    pub fn next_at(&self) -> Option<SimTime> {
        self.heap.first().map(|k| k.at)
    }

    pub fn push(&mut self, at: SimTime, seq: u64, action: Action) -> TimerId {
        let pos = self.heap.len() as u32;
        let slot = if self.free == NIL {
            assert!(self.slots.len() < NIL as usize, "event slab is full");
            self.slots.push(Slot {
                gen: 0,
                link: pos,
                action: Some(action),
            });
            self.slots.len() as u32 - 1
        } else {
            let slot = self.free;
            let s = &mut self.slots[slot as usize];
            self.free = s.link;
            s.link = pos;
            s.action = Some(action);
            slot
        };
        self.heap.push(Key { at, seq, slot });
        self.sift_up(pos as usize);
        TimerId {
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Action)> {
        let first = *self.heap.first()?;
        Some((first.at, self.remove(0)))
    }

    /// Removes the event `id` names, if it is still scheduled.
    pub fn cancel(&mut self, id: TimerId) -> Option<Action> {
        let s = self.slots.get(id.slot as usize)?;
        if s.gen != id.gen || s.action.is_none() {
            return None;
        }
        Some(self.remove(s.link as usize))
    }

    /// Takes the key at heap position `pos` out of the heap and vacates its
    /// slot.
    fn remove(&mut self, pos: usize) -> Action {
        let slot = self.heap[pos].slot;
        let last = self.heap.pop().expect("heap holds the removed key");
        if pos < self.heap.len() {
            self.heap[pos] = last;
            if pos > 0 && last.before(&self.heap[(pos - 1) / D]) {
                self.sift_up(pos);
            } else {
                self.sift_down(pos);
            }
        }
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.link = self.free;
        self.free = slot;
        s.action.take().expect("a heap key names an occupied slot")
    }

    /// Writes `key` at heap position `pos` and points its slot back at it.
    fn place(&mut self, pos: usize, key: Key) {
        self.heap[pos] = key;
        self.slots[key.slot as usize].link = pos as u32;
    }

    fn sift_up(&mut self, mut pos: usize) {
        let key = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / D;
            if !key.before(&self.heap[parent]) {
                break;
            }
            self.place(pos, self.heap[parent]);
            pos = parent;
        }
        self.place(pos, key);
    }

    fn sift_down(&mut self, mut pos: usize) {
        let key = self.heap[pos];
        let len = self.heap.len();
        loop {
            let first = pos * D + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            for child in first + 1..(first + D).min(len) {
                if self.heap[child].before(&self.heap[best]) {
                    best = child;
                }
            }
            if !self.heap[best].before(&key) {
                break;
            }
            self.place(pos, self.heap[best]);
            pos = best;
        }
        self.place(pos, key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call() -> Action {
        Action::Call(Box::new(|| {}))
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn cancel_removes_and_stale_ids_do_nothing() {
        let mut q = EventQueue::default();
        let a = q.push(t(5), 1, call());
        let b = q.push(t(6), 2, call());
        assert!(q.cancel(a).is_some());
        assert_eq!(q.len(), 1);
        assert!(q.cancel(a).is_none(), "already cancelled");
        // The vacated slot is reused; the old id must not reach the tenant.
        let c = q.push(t(7), 3, call());
        assert_eq!(c.slot, a.slot);
        assert!(q.cancel(a).is_none(), "stale generation");
        assert_eq!(q.len(), 2);
        assert!(q.pop().is_some());
        assert!(q.cancel(b).is_none(), "already fired");
        assert!(q.cancel(c).is_some());
        assert_eq!(q.len(), 0);
        assert_eq!(q.slots.len(), 2, "slots recycle through the free list");
    }
}
