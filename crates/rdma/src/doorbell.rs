//! Doorbell staging: the wire requests a posted chunk builds are parked in a
//! slot until the chunk's doorbell timer fires, then go on the wire.
//!
//! The timer is a typed event on [`Doorbells`] carrying `(slot, peer node)`,
//! and a slot keeps its buffer when it is freed, so ringing a doorbell
//! allocates nothing once the device has warmed up.

use std::cell::{RefCell, RefMut};
use std::rc::Rc;

use fabric::{Fabric, NodeId};
use sim::EventSink;

use crate::wire::NetMsg;

/// One chunk's wire requests, each with its wire size.
pub(crate) type Chain = Vec<(u64, NetMsg)>;

pub(crate) struct Doorbells {
    fabric: Fabric<NetMsg>,
    node: NodeId,
    /// `chains[slot]` is a chain waiting for its doorbell, or — when `slot`
    /// is in `free` — an empty buffer to reuse.
    chains: RefCell<Vec<Chain>>,
    free: RefCell<Vec<usize>>,
}

impl Doorbells {
    pub fn new(fabric: &Fabric<NetMsg>, node: NodeId) -> Rc<Doorbells> {
        Rc::new(Doorbells {
            fabric: fabric.clone(),
            node,
            chains: RefCell::default(),
            free: RefCell::default(),
        })
    }

    /// Reserves a slot and lends out its empty chain for the poster to fill;
    /// the slot is freed when the event scheduled with it fires.
    pub fn reserve(&self) -> (u64, RefMut<'_, Chain>) {
        let mut chains = self.chains.borrow_mut();
        let slot = self.free.borrow_mut().pop().unwrap_or_else(|| {
            chains.push(Vec::new());
            chains.len() - 1
        });
        (slot as u64, RefMut::map(chains, |c| &mut c[slot]))
    }
}

impl EventSink for Doorbells {
    /// Rings doorbell `slot`: its chain goes on the wire to `peer`.
    fn fire(self: Rc<Self>, slot: u64, peer: u64) {
        let slot = slot as usize;
        // Out of the cell while sending: the fabric must never find the
        // staging area borrowed.
        let mut chain = std::mem::take(&mut self.chains.borrow_mut()[slot]);
        for (wire, msg) in chain.drain(..) {
            self.fabric.send(self.node, NodeId(peer as u32), wire, msg);
        }
        self.chains.borrow_mut()[slot] = chain;
        self.free.borrow_mut().push(slot);
    }
}
