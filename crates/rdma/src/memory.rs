//! Device memory: a per-node arena with registration-based access control.
//!
//! Real RDMA requires memory to be registered with the NIC before it can be
//! the source or target of DMA. We model a node's DRAM as a 64-bit address
//! space managed by a first-fit free-list allocator; each allocation may be
//! *backed* (a real `Vec<u8>`, bytes actually move) or *synthetic* (no
//! backing store — used for fluid-mode experiments at the 256 GB scale where
//! only sizes and timing matter). A backed block's address range and its
//! share of [`Arena::used`] are taken when it is allocated, its bytes when
//! they are written: the `Vec` starts empty, is as long as the highest byte
//! ever written or pinned and grows its capacity only to hold that, and
//! whatever lies above it reads as zeros without being stored (DESIGN.md
//! "Arena backing"). The whole `Vec` can also change hands
//! ([`Arena::swap_backing`]): a landed read lends it out and takes it back,
//! and a staging block is reserved at its IO's length before it lands.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use crate::types::{Access, RKey, RdmaError, Result};
use crate::wire::Payload;

/// A handle to an allocation in a device arena.
///
/// Plain descriptor (cheap `Copy`); the arena owns the bytes. Buffers are
/// implicitly DMA-able locally (a simplification over verbs' lkeys — see
/// crate docs); *remote* access additionally requires [`Arena::register`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DmaBuf {
    /// Start address within the owning device's arena.
    pub addr: u64,
    /// Length in bytes.
    pub len: u64,
}

impl DmaBuf {
    /// A sub-range of this buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer.
    pub fn slice(&self, offset: u64, len: u64) -> DmaBuf {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "slice out of bounds"
        );
        DmaBuf {
            addr: self.addr + offset,
            len,
        }
    }
}

/// A registered memory region (the device-side record).
#[derive(Clone, Copy, Debug)]
pub struct MrEntry {
    /// Region start address.
    pub addr: u64,
    /// Region length.
    pub len: u64,
    /// Granted remote rights.
    pub access: Access,
    /// The key remote peers must present.
    pub rkey: RKey,
}

impl MrEntry {
    /// Checks that `[addr, addr+len)` lies inside the region and the region
    /// grants `needed`.
    pub fn check(&self, addr: u64, len: u64, needed: Access) -> Result<()> {
        if !self.access.allows(needed) {
            return Err(RdmaError::AccessDenied);
        }
        let end = addr
            .checked_add(len)
            .ok_or(RdmaError::OutOfBounds { addr, len })?;
        if addr < self.addr || end > self.addr + self.len {
            return Err(RdmaError::OutOfBounds { addr, len });
        }
        Ok(())
    }
}

struct Block {
    len: u64,
    /// `Some` for backed allocations, `None` for synthetic ones. Empty at
    /// `alloc`; its length is the *written prefix* of the block, the bytes
    /// above it are zeros nobody stored, and its capacity grows with the
    /// prefix, never past `len` ([`Mem::backed_mut`]).
    data: Option<Vec<u8>>,
}

/// Copies `[off, off + dst.len())` of a block whose written prefix is
/// `data` (`None`: synthetic) into `dst`: the stored bytes, then zeros.
fn copy_out(data: Option<&Vec<u8>>, off: usize, dst: &mut [u8]) {
    let data = data.map_or(&[][..], Vec::as_slice);
    let stored = &data[off.min(data.len())..(off + dst.len()).min(data.len())];
    let (head, tail) = dst.split_at_mut(stored.len());
    head.copy_from_slice(stored);
    tail.fill(0);
}

/// What a [`Pin`] holds on its source arena until the payload is delivered
/// or dropped.
#[derive(Clone, Copy, Default)]
enum PinState {
    /// Released; the slot is on the free list.
    #[default]
    Free,
    /// Still reads `[addr, addr + len)` of its block: nothing has written or
    /// freed those bytes since the payload was sampled.
    Live { addr: u64, len: u64 },
    /// The bytes are in the slot's own buffer: a pin *materialised* just
    /// before the first write to (or free of) its range.
    Owned,
}

#[derive(Default)]
struct PinSlot {
    /// Bumped on release, so a stale id names nothing (as `sim::TimerId`).
    gen: u32,
    state: PinState,
    /// The payload while `Owned`. A small buffer stays with the slot for its
    /// next tenant (see [`KEEP_BYTES`]).
    buf: Vec<u8>,
}

impl PinSlot {
    fn own(&mut self, bytes: &[u8]) {
        self.buf.clear();
        self.buf.extend_from_slice(bytes);
        self.state = PinState::Owned;
    }
}

/// The largest snapshot buffer a released slot keeps. Most materialised pins
/// are slot-sized READ responses on a KV memory server whose slot was CASed
/// or rewritten while the response travelled (DESIGN.md "Payload sampling
/// model"); 1 KiB holds one, so those copies reuse a kept buffer, while a
/// materialised stripe goes back to the heap. With `0` here the `kv_update`
/// benchmark workload asked the heap for 1.606 instead of 1.591 allocations
/// and 119.6 instead of 117.7 bytes per op; the other four did not move.
const KEEP_BYTES: usize = 1024;

/// The pin table of one arena: a slab, so pinning allocates nothing once the
/// device has warmed up.
#[derive(Default)]
struct Pins {
    slots: Vec<PinSlot>,
    free: Vec<u32>,
    /// Pins not yet released.
    held: usize,
    /// Of those, the ones still `Live`: what a mutation has to look at.
    live: usize,
    /// Pins ever copied out.
    materialised: u64,
}

impl Pins {
    /// A slot for a new live pin on `[addr, addr + len)`: its `(slot, gen)`.
    fn pin(&mut self, addr: u64, len: u64) -> (u32, u32) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(PinSlot::default());
            (self.slots.len() - 1) as u32
        });
        self.held += 1;
        self.live += 1;
        let s = &mut self.slots[slot as usize];
        s.state = PinState::Live { addr, len };
        (slot, s.gen)
    }

    fn release(&mut self, slot: u32, gen: u32) {
        let s = &mut self.slots[slot as usize];
        if s.gen != gen {
            return;
        }
        self.live -= usize::from(matches!(s.state, PinState::Live { .. }));
        self.held -= 1;
        s.state = PinState::Free;
        s.gen = s.gen.wrapping_add(1);
        if s.buf.capacity() > KEEP_BYTES {
            s.buf = Vec::new();
        }
        self.free.push(slot);
    }

    fn slot(&self, pin: &Pin) -> &PinSlot {
        let s = &self.slots[pin.slot as usize];
        assert_eq!(s.gen, pin.gen, "pin used after release");
        s
    }

    /// Copies out every live pin that overlaps `[addr, addr + len)`, a range
    /// of the block at `baddr` whose bytes are `data` and are about to change
    /// or go away. A pin lies within one block, so an overlapping pin is a
    /// pin on this block.
    fn snapshot(&mut self, addr: u64, len: u64, baddr: u64, data: &[u8]) {
        if self.live == 0 {
            return;
        }
        for s in &mut self.slots {
            if let PinState::Live { addr: a, len: l } = s.state {
                if a < addr + len && addr < a + l {
                    let off = (a - baddr) as usize;
                    s.own(&data[off..off + l as usize]);
                    self.live -= 1;
                    self.materialised += 1;
                }
            }
        }
    }
}

/// An arena's bytes and the pins in-flight payloads hold on them — what a
/// [`Pin`] shares with its source arena. The cell around it is borrowed only
/// inside the [`Arena`] and [`Pin`] methods below and never across a call
/// out of this module but the closure a view runs ([`Arena::view`],
/// [`Arena::view_mut`]), which is handed a slice and must not reach back
/// into the arena or drop a payload pinned on it. So a payload may be
/// dropped anywhere else (a fabric loss window, an early return in the
/// device) without finding it borrowed.
#[derive(Default)]
struct Mem {
    /// Live allocations, keyed by start address.
    blocks: BTreeMap<u64, Block>,
    pins: Pins,
}

impl Mem {
    fn block(&self, addr: u64, len: u64) -> Result<(u64, &Block)> {
        let oob = || RdmaError::OutOfBounds { addr, len };
        let (&baddr, block) = self.blocks.range(..=addr).next_back().ok_or_else(oob)?;
        match addr.checked_add(len) {
            Some(end) if end <= baddr + block.len => Ok((baddr, block)),
            _ => Err(oob()),
        }
    }

    /// The backing vector of the block holding `[addr, addr + len)` (`None`
    /// on a synthetic block), with its written prefix extended — zero-filled
    /// — to the end of that range, and the range's offset in it.
    ///
    /// The one place a prefix grows. Past the vector's capacity it
    /// reallocates to twice that capacity or the range's end, whichever is
    /// more, but never past the block: the capacity doubles, and a
    /// front-to-back fill copies O(block length) in all. No slice of the
    /// vector outlives a method of `Mem` or [`Arena`] (a live pin holds an
    /// address range, not a slice), so a reallocation moves nothing that
    /// anyone holds.
    fn backed_mut(
        blocks: &mut BTreeMap<u64, Block>,
        addr: u64,
        len: u64,
    ) -> Result<Option<(usize, &mut Vec<u8>)>> {
        let oob = || RdmaError::OutOfBounds { addr, len };
        let (&baddr, block) = blocks.range_mut(..=addr).next_back().ok_or_else(oob)?;
        let block = match addr.checked_add(len) {
            Some(end) if end <= baddr + block.len => block,
            _ => return Err(oob()),
        };
        let (off, blen) = ((addr - baddr) as usize, block.len as usize);
        let end = off + len as usize;
        Ok(block.data.as_mut().map(|data| {
            if end > data.capacity() {
                data.reserve_exact((2 * data.capacity()).max(end).min(blen) - data.len());
            }
            if data.len() < end {
                data.resize(end, 0);
            }
            (off, data)
        }))
    }

    /// The one way arena bytes are mutated: `[addr, addr + len)` as a
    /// writable slice (`None` on a synthetic block), after every live pin on
    /// those bytes has been copied out. The slice borrows `blocks` alone, so
    /// the caller may still read an owned pin while filling it.
    fn bytes_mut<'a>(
        blocks: &'a mut BTreeMap<u64, Block>,
        pins: &mut Pins,
        addr: u64,
        len: u64,
    ) -> Result<Option<&'a mut [u8]>> {
        let Some((off, data)) = Mem::backed_mut(blocks, addr, len)? else {
            return Ok(None);
        };
        // `addr - off` is where the block starts.
        pins.snapshot(addr, len, addr - off as u64, data);
        Ok(Some(&mut data[off..off + len as usize]))
    }

    /// Makes `pin` an owned snapshot now.
    fn materialise(&mut self, pin: &Pin) {
        let s = &mut self.pins.slots[pin.slot as usize];
        if let PinState::Live { addr, len } = s.state {
            s.own(pinned_range(&self.blocks, addr, len));
            self.pins.live -= 1;
            self.pins.materialised += 1;
        }
    }

    /// The bytes `pin` sampled.
    fn pinned(&self, pin: &Pin) -> &[u8] {
        let s = self.pins.slot(pin);
        match s.state {
            PinState::Owned => &s.buf,
            PinState::Live { addr, len } => pinned_range(&self.blocks, addr, len),
            PinState::Free => unreachable!("generation matched a free slot"),
        }
    }
}

/// The bytes under a live pin: its block is live and backed, because
/// freeing a block copies its pins out first and synthetic blocks are never
/// pinned, and the range is inside the written prefix, because pinning
/// extends the prefix over it.
fn pinned_range(blocks: &BTreeMap<u64, Block>, addr: u64, len: u64) -> &[u8] {
    let (baddr, block) = blocks.range(..=addr).next_back().expect("pinned block");
    let data = block.data.as_ref().expect("pinned block is backed");
    let off = (addr - baddr) as usize;
    &data[off..off + len as usize]
}

/// A payload carried by reference: a pinned range of the arena it was
/// sampled from. The bytes are copied once, into the destination arena at
/// delivery ([`Arena::write_payload`]); until then the source arena copies
/// the range out before anything writes or frees it, so the payload always
/// reads as it did when it was pinned. Dropping it releases the pin.
pub struct Pin {
    mem: Rc<RefCell<Mem>>,
    slot: u32,
    gen: u32,
    len: u64,
}

impl Pin {
    /// Length of the pinned range in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True for an empty range.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Flips one bit of the payload in flight: of its own snapshot, taken
    /// now if need be, never of the sender's buffer.
    pub(crate) fn flip_bit(&self, bit: u64) {
        let mut mem = self.mem.borrow_mut();
        mem.materialise(self);
        mem.pins.slots[self.slot as usize].buf[(bit / 8) as usize] ^= 1 << (bit % 8);
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        // `Mem` is never borrowed across a call out of this module; should
        // that break, the pin leaks and `pin_stats` shows it.
        if let Ok(mut mem) = self.mem.try_borrow_mut() {
            mem.pins.release(self.slot, self.gen);
        }
    }
}

impl fmt::Debug for Pin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pin")
            .field("slot", &self.slot)
            .field("gen", &self.gen)
            .field("len", &self.len)
            .finish()
    }
}

/// The arena: allocator + backing storage + MR table for one device.
pub struct Arena {
    capacity: u64,
    used: u64,
    /// Free extents, keyed by start address.
    free: BTreeMap<u64, u64>,
    mem: Rc<RefCell<Mem>>,
    mrs: BTreeMap<RKey, MrEntry>,
    next_rkey: u64,
}

impl fmt::Debug for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arena")
            .field("capacity", &self.capacity)
            .field("used", &self.used)
            .field("blocks", &self.mem.borrow().blocks.len())
            .field("mrs", &self.mrs.len())
            .finish()
    }
}

impl Arena {
    /// Creates an arena covering addresses `[0, capacity)`.
    pub fn new(capacity: u64) -> Self {
        let free = BTreeMap::from_iter((capacity > 0).then_some((0, capacity)));
        Arena {
            capacity,
            used: 0,
            free,
            mem: Rc::default(),
            mrs: BTreeMap::new(),
            next_rkey: 0x1000,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes of backed blocks that hold stored data: the sum of their
    /// written prefixes, at most [`used`](Self::used). Unlike the process's
    /// peak RSS it is the same on every host, so it is what tests pin.
    pub fn resident(&self) -> u64 {
        let mem = self.mem.borrow();
        let backed = mem.blocks.values().filter_map(|b| b.data.as_ref());
        backed.map(|data| data.len() as u64).sum()
    }

    /// Allocates `len` bytes of backed memory. It reads as zeros and asks
    /// the host for nothing yet: host memory backs it only as far as it is
    /// written (see [`resident`](Self::resident)).
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfMemory`] if no free extent is large enough.
    pub fn alloc(&mut self, len: u64) -> Result<DmaBuf> {
        self.alloc_inner(len, true, 1)
    }

    /// Allocates `len` bytes of backed memory whose start address is a
    /// multiple of `align`. Variable-length staging buffers fragment the
    /// first-fit free list onto arbitrary byte offsets, so callers that
    /// perform word-granularity access (the `read_u64`/`write_u64` atomics
    /// path, CAS scratch words) must ask for alignment explicitly — exactly
    /// like DMA-able atomics buffers on a real NIC.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfMemory`] if no free extent can fit an aligned copy;
    /// [`RdmaError::OutOfBounds`] if `align` is zero or not a power of two.
    pub fn alloc_aligned(&mut self, len: u64, align: u64) -> Result<DmaBuf> {
        if align == 0 || !align.is_power_of_two() {
            return Err(RdmaError::OutOfBounds { addr: align, len });
        }
        self.alloc_inner(len, true, align)
    }

    /// Allocates `len` bytes of synthetic (unbacked) memory. Reads return
    /// zeroes; writes are discarded. Timing and accounting behave exactly
    /// like backed memory.
    pub fn alloc_synthetic(&mut self, len: u64) -> Result<DmaBuf> {
        self.alloc_inner(len, false, 1)
    }

    fn alloc_inner(&mut self, len: u64, backed: bool, align: u64) -> Result<DmaBuf> {
        if len == 0 {
            return Err(RdmaError::OutOfBounds { addr: 0, len });
        }
        // First fit, at the first aligned address inside each free extent.
        let found = self.free.iter().find_map(|(&faddr, &flen)| {
            let addr = faddr.next_multiple_of(align);
            let pad = addr - faddr;
            (flen >= pad && flen - pad >= len).then_some((addr, faddr, flen))
        });
        let (addr, faddr, flen) = found.ok_or(RdmaError::OutOfMemory { requested: len })?;
        self.free.remove(&faddr);
        if addr > faddr {
            self.free.insert(faddr, addr - faddr);
        }
        let tail = faddr + flen - (addr + len);
        if tail > 0 {
            self.free.insert(addr + len, tail);
        }
        let data = backed.then(Vec::new);
        let blocks = &mut self.mem.borrow_mut().blocks;
        blocks.insert(addr, Block { len, data });
        self.used += len;
        Ok(DmaBuf { addr, len })
    }

    /// Frees an allocation previously returned by an alloc call, coalescing
    /// adjacent free extents. Any MRs covering it are deregistered, and any
    /// payload still pinned on it keeps the bytes it sampled.
    ///
    /// # Errors
    ///
    /// [`RdmaError::InvalidHandle`] if `addr` is not an allocation start.
    pub fn free(&mut self, buf: DmaBuf) -> Result<()> {
        let block = {
            let Mem { blocks, pins } = &mut *self.mem.borrow_mut();
            let block = blocks.remove(&buf.addr).ok_or(RdmaError::InvalidHandle)?;
            if let Some(data) = &block.data {
                pins.snapshot(buf.addr, block.len, buf.addr, data);
            }
            block
        };
        debug_assert_eq!(block.len, buf.len, "free with mismatched length");
        self.used -= block.len;
        self.mrs
            .retain(|_, mr| mr.addr + mr.len <= buf.addr || mr.addr >= buf.addr + block.len);

        // Insert and coalesce with neighbours.
        let mut start = buf.addr;
        let mut len = block.len;
        if let Some((&paddr, &plen)) = self.free.range(..start).next_back() {
            if paddr + plen == start {
                self.free.remove(&paddr);
                start = paddr;
                len += plen;
            }
        }
        if let Some((&naddr, &nlen)) = self.free.range(start + len..).next() {
            if start + len == naddr {
                self.free.remove(&naddr);
                len += nlen;
            }
        }
        self.free.insert(start, len);
        Ok(())
    }

    /// Registers a memory region over `buf` with the given remote rights,
    /// returning its entry (including the generated rkey).
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if `buf` does not lie within a single live
    /// allocation.
    pub fn register(&mut self, buf: DmaBuf, access: Access) -> Result<MrEntry> {
        self.check_range(buf.addr, buf.len)?;
        self.next_rkey += 0x11;
        let rkey = RKey(self.next_rkey);
        let entry = MrEntry {
            addr: buf.addr,
            len: buf.len,
            access,
            rkey,
        };
        self.mrs.insert(rkey, entry);
        Ok(entry)
    }

    /// Removes a registration.
    ///
    /// # Errors
    ///
    /// [`RdmaError::InvalidHandle`] if the rkey is unknown.
    pub fn deregister(&mut self, rkey: RKey) -> Result<()> {
        self.mrs
            .remove(&rkey)
            .map(|_| ())
            .ok_or(RdmaError::InvalidHandle)
    }

    /// Replaces the remote rights on a live registration, keeping its rkey.
    ///
    /// This models the `IBV_REREG_MR_CHANGE_ACCESS` path: in-flight and
    /// future wire ops see the new rights on their next access check, which
    /// is what lets a migration source be sealed read-only without
    /// invalidating the rkey readers already hold.
    ///
    /// # Errors
    ///
    /// [`RdmaError::InvalidHandle`] if the rkey is unknown.
    pub fn set_access(&mut self, rkey: RKey, access: Access) -> Result<()> {
        self.mrs
            .get_mut(&rkey)
            .map(|mr| mr.access = access)
            .ok_or(RdmaError::InvalidHandle)
    }

    /// Looks up an MR by rkey.
    pub fn mr(&self, rkey: RKey) -> Option<MrEntry> {
        self.mrs.get(&rkey).copied()
    }

    /// Number of live registrations.
    pub fn mr_count(&self) -> usize {
        self.mrs.len()
    }

    /// Checks that `[addr, addr + len)` lies within one live allocation,
    /// without touching its bytes — how the post path validates local
    /// buffers.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is not within one allocation.
    pub fn check_range(&self, addr: u64, len: u64) -> Result<()> {
        self.mem.borrow().block(addr, len).map(|_| ())
    }

    /// Copies bytes out of the arena. Synthetic allocations read as zeroes.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is not within one allocation.
    pub fn read(&self, addr: u64, len: u64) -> Result<Vec<u8>> {
        let mut out = vec![0; len as usize];
        self.read_into(addr, &mut out)?;
        Ok(out)
    }

    /// Copies bytes out of the arena into a caller-owned slice — the
    /// allocation-free sibling of [`read`](Self::read) for hot paths that
    /// reuse a scratch buffer. Synthetic allocations read as zeroes.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is not within one allocation.
    pub fn read_into(&self, addr: u64, dst: &mut [u8]) -> Result<()> {
        let mem = self.mem.borrow();
        let (baddr, block) = mem.block(addr, dst.len() as u64)?;
        copy_out(block.data.as_ref(), (addr - baddr) as usize, dst);
        Ok(())
    }

    /// Copies bytes into the arena. Writes to synthetic allocations are
    /// discarded (timing only).
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is not within one allocation.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<()> {
        self.view_mut(addr, bytes.len() as u64, |dst| dst.copy_from_slice(bytes))?;
        Ok(())
    }

    /// Runs `f` on `[addr, addr + len)` where it lies, read only: host work
    /// on arena bytes without copying them out. The range joins the written
    /// prefix, as the zeros it reads as, as a pin's does; no pin on it is
    /// copied out, since nothing changes. `None` on a synthetic block, which
    /// has no bytes to lend. `f` runs with the arena's bytes borrowed, so it
    /// must not call back into this arena.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is not within one allocation.
    pub fn view<R>(&self, addr: u64, len: u64, f: impl FnOnce(&[u8]) -> R) -> Result<Option<R>> {
        let blocks = &mut self.mem.borrow_mut().blocks;
        let backed = Mem::backed_mut(blocks, addr, len)?;
        Ok(backed.map(|(off, data)| f(&data[off..off + len as usize])))
    }

    /// Runs `f` on `[addr, addr + len)` where it lies, writable: every live
    /// pin on it is copied out first, as before any write. `None` on a
    /// synthetic block, whose writes are discarded.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is not within one allocation.
    pub fn view_mut<R>(
        &mut self,
        addr: u64,
        len: u64,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<Option<R>> {
        let Mem { blocks, pins } = &mut *self.mem.borrow_mut();
        Ok(Mem::bytes_mut(blocks, pins, addr, len)?.map(f))
    }

    /// Copies `len` bytes from `src` to `dst` inside the arena, block to
    /// block with no host buffer between. The source reads as through
    /// [`read_into`](Self::read_into) and the destination is written as
    /// through [`write`](Self::write). Two ranges of one block go through
    /// the host, as no caller needs them faster.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if either range is not within one
    /// allocation.
    pub fn copy(&mut self, src: u64, dst: u64, len: u64) -> Result<()> {
        let (sbase, slen) = self.mem.borrow().block(src, len).map(|(a, b)| (a, b.len))?;
        let one_block = (sbase..sbase + slen).contains(&dst);
        if one_block {
            return self.write(dst, &self.read(src, len)?);
        }
        // The source's bytes leave the map while the destination is
        // written; nothing reads the source block meanwhile.
        let Mem { blocks, pins } = &mut *self.mem.borrow_mut();
        let stored = blocks.get_mut(&sbase).and_then(|b| b.data.take());
        let copied = Mem::bytes_mut(blocks, pins, dst, len)
            .map(|out| out.map(|out| copy_out(stored.as_ref(), (src - sbase) as usize, out)));
        blocks.get_mut(&sbase).expect("source block").data = stored;
        copied.map(drop)
    }

    /// Swaps `data` in as the written prefix of the block `buf` and returns
    /// the prefix it held: with `Vec::new()` it hands a landed block's bytes
    /// over without copying them, with the vector it handed over it takes
    /// them back, and with an empty vector of some capacity it reserves the
    /// block's backing ahead of its first write. Every live pin on the block
    /// is copied out first, as before a write. A synthetic block keeps
    /// nothing and hands over an empty prefix.
    ///
    /// # Errors
    ///
    /// [`RdmaError::InvalidHandle`] if `buf` is not a live allocation.
    pub fn swap_backing(&mut self, buf: DmaBuf, data: Vec<u8>) -> Result<Vec<u8>> {
        let Mem { blocks, pins } = &mut *self.mem.borrow_mut();
        let block = blocks.get_mut(&buf.addr).filter(|b| b.len == buf.len);
        let Some(old) = block.ok_or(RdmaError::InvalidHandle)?.data.as_mut() else {
            return Ok(Vec::new());
        };
        assert!(data.len() as u64 <= buf.len, "a prefix past its block");
        pins.snapshot(buf.addr, buf.len, buf.addr, old);
        Ok(std::mem::replace(old, data))
    }

    /// Samples a range as a [`Payload`] without copying it: a backed
    /// allocation yields a [`Pin`] on the range, which reads as the bytes do
    /// *now* however the arena changes before delivery; a synthetic one a
    /// size-only payload. Allocates nothing once the pin table has warmed
    /// up.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is not within one allocation.
    pub fn read_payload(&self, addr: u64, len: u64) -> Result<Payload> {
        let mut mem = self.mem.borrow_mut();
        // A pin reads a contiguous slice of its block, so the range joins
        // the written prefix now, as the zeros it reads as.
        if Mem::backed_mut(&mut mem.blocks, addr, len)?.is_none() {
            return Ok(Payload::Synthetic(len));
        }
        if len == 0 {
            // Nothing to pin: an empty range overlaps no write.
            return Ok(Payload::Synthetic(0));
        }
        let (slot, gen) = mem.pins.pin(addr, len);
        Ok(Payload::Pinned(Pin {
            mem: self.mem.clone(),
            slot,
            gen,
            len,
        }))
    }

    /// Writes a payload into the arena — the one copy a payload's bytes
    /// make, source block to destination block. Real bytes land in backed
    /// allocations; synthetic payloads (or writes into synthetic blocks)
    /// affect timing and accounting only.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is not within one allocation.
    pub fn write_payload(&mut self, addr: u64, payload: &Payload) -> Result<()> {
        match payload {
            Payload::Synthetic(len) => self.check_range(addr, *len),
            Payload::Word(word) => self.write(addr, &word.to_le_bytes()),
            Payload::Pinned(pin) if Rc::ptr_eq(&pin.mem, &self.mem) => {
                // Source and destination share one cell (a QP looped back to
                // its own device): copy from an owned snapshot.
                let mem = &mut *self.mem.borrow_mut();
                mem.materialise(pin);
                let Mem { blocks, pins } = mem;
                if let Some(dst) = Mem::bytes_mut(blocks, pins, addr, pin.len)? {
                    dst.copy_from_slice(&pins.slot(pin).buf);
                }
                Ok(())
            }
            Payload::Pinned(pin) => {
                let src = pin.mem.borrow();
                let fill = |dst: &mut [u8]| dst.copy_from_slice(src.pinned(pin));
                self.view_mut(addr, pin.len, fill).map(drop)
            }
        }
    }

    /// `(live, materialised)`: payloads still pinned on this arena, and how
    /// many pins were ever copied out because their range was written or
    /// freed before delivery.
    pub fn pin_stats(&self) -> (usize, u64) {
        let mem = self.mem.borrow();
        (mem.pins.held, mem.pins.materialised)
    }

    /// Flips `bits` random bits inside registered, backed memory — the
    /// at-rest corruption model behind `FaultAction::CorruptRegion`. Returns
    /// the `(byte_addr, bit)` pairs actually flipped so each one can be
    /// traced. Only *remotely readable* MRs qualify — that is the memory the
    /// node donated to the store; private local registrations are not part
    /// of the corruption model. Synthetic registrations have no bytes and
    /// are skipped; `bits` draws land nowhere (and are dropped) when nothing
    /// backed is registered. MR iteration order is the `BTreeMap`'s, so the
    /// same rng state flips the same bits.
    pub fn corrupt_registered(&mut self, rng: &mut sim::DetRng, bits: u32) -> Vec<(u64, u8)> {
        let mem = self.mem.borrow();
        let mut ranges = Vec::new();
        for mr in self.mrs.values() {
            let backed = matches!(mem.block(mr.addr, mr.len), Ok((_, b)) if b.data.is_some());
            if backed && mr.access.allows(Access::REMOTE_READ) {
                ranges.push((mr.addr, mr.len));
            }
        }
        drop(mem);
        let total_bits: u64 = ranges.iter().map(|&(_, len)| len * 8).sum();
        let mut flips = Vec::new();
        if total_bits == 0 {
            return flips;
        }
        for _ in 0..bits {
            let mut idx = rng.range_u64(0, total_bits);
            for &(addr, len) in &ranges {
                let range_bits = len * 8;
                if idx < range_bits {
                    let (byte_addr, bit) = (addr + idx / 8, (idx % 8) as u8);
                    let flipped = self.view_mut(byte_addr, 1, |byte| byte[0] ^= 1 << bit);
                    assert_eq!(flipped, Ok(Some(())), "registered and backed");
                    flips.push((byte_addr, bit));
                    break;
                }
                idx -= range_bits;
            }
        }
        flips
    }

    /// Atomically reads a u64 (little-endian) at an 8-byte-aligned address.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] on bad range or misalignment.
    pub fn read_u64(&self, addr: u64) -> Result<u64> {
        if !addr.is_multiple_of(8) {
            return Err(RdmaError::OutOfBounds { addr, len: 8 });
        }
        let mut word = [0u8; 8];
        self.read_into(addr, &mut word)?;
        Ok(u64::from_le_bytes(word))
    }

    /// Writes a u64 (little-endian) at an 8-byte-aligned address.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] on bad range or misalignment.
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<()> {
        if !addr.is_multiple_of(8) {
            return Err(RdmaError::OutOfBounds { addr, len: 8 });
        }
        self.write(addr, &value.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_round_trip_restores_capacity() {
        let mut a = Arena::new(1024);
        let b1 = a.alloc(100).unwrap();
        let b2 = a.alloc(200).unwrap();
        assert_eq!(a.used(), 300);
        a.free(b1).unwrap();
        a.free(b2).unwrap();
        assert_eq!(a.used(), 0);
        // Full coalescing: a single 1024-byte allocation must succeed again.
        let big = a.alloc(1024).unwrap();
        assert_eq!(big.len, 1024);
    }

    #[test]
    fn alloc_fails_when_fragmented_but_not_out_of_total() {
        let mut a = Arena::new(300);
        let b1 = a.alloc(100).unwrap();
        let _b2 = a.alloc(100).unwrap();
        let _b3 = a.alloc(100).unwrap();
        a.free(b1).unwrap();
        // 100 free at front, but a 150 request cannot fit contiguously.
        assert_eq!(a.alloc(150), Err(RdmaError::OutOfMemory { requested: 150 }));
        assert!(a.alloc(100).is_ok());
    }

    #[test]
    fn read_write_round_trip() {
        let mut a = Arena::new(4096);
        let b = a.alloc(64).unwrap();
        a.write(b.addr + 8, b"hello").unwrap();
        assert_eq!(a.read(b.addr + 8, 5).unwrap(), b"hello");
        assert_eq!(a.read(b.addr, 1).unwrap(), vec![0]);
    }

    #[test]
    fn access_spanning_allocations_rejected() {
        let mut a = Arena::new(4096);
        let b1 = a.alloc(64).unwrap();
        let _b2 = a.alloc(64).unwrap();
        assert!(matches!(
            a.read(b1.addr + 32, 64),
            Err(RdmaError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn synthetic_blocks_read_zero_and_ignore_writes() {
        let mut a = Arena::new(1 << 40);
        let b = a.alloc_synthetic(1 << 35).unwrap(); // 32 GiB, no real memory
        a.write(b.addr, b"data").unwrap();
        assert_eq!(a.read(b.addr, 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn register_and_check_access() {
        let mut a = Arena::new(4096);
        let b = a.alloc(128).unwrap();
        let mr = a.register(b, Access::REMOTE_READ).unwrap();
        assert!(mr.check(b.addr, 128, Access::REMOTE_READ).is_ok());
        assert_eq!(
            mr.check(b.addr, 128, Access::REMOTE_WRITE),
            Err(RdmaError::AccessDenied)
        );
        assert!(matches!(
            mr.check(b.addr + 100, 64, Access::REMOTE_READ),
            Err(RdmaError::OutOfBounds { .. })
        ));
        assert_eq!(a.mr(mr.rkey).unwrap().len, 128);
    }

    #[test]
    fn free_drops_covering_mrs() {
        let mut a = Arena::new(4096);
        let b = a.alloc(128).unwrap();
        let mr = a.register(b, Access::REMOTE_ALL).unwrap();
        a.free(b).unwrap();
        assert!(a.mr(mr.rkey).is_none());
        assert_eq!(a.mr_count(), 0);
    }

    #[test]
    fn deregister_unknown_rkey_errors() {
        let mut a = Arena::new(64);
        assert_eq!(a.deregister(RKey(99)), Err(RdmaError::InvalidHandle));
    }

    #[test]
    fn double_free_errors() {
        let mut a = Arena::new(64);
        let b = a.alloc(32).unwrap();
        a.free(b).unwrap();
        assert_eq!(a.free(b), Err(RdmaError::InvalidHandle));
    }

    #[test]
    fn alloc_aligned_survives_odd_fragmentation() {
        let mut a = Arena::new(4096);
        // An odd-length staging alloc leaves the free list on a byte offset.
        let _odd = a.alloc(37).unwrap();
        let word = a.alloc_aligned(16, 8).unwrap();
        assert_eq!(word.addr % 8, 0, "aligned alloc landed at {}", word.addr);
        // The word buffer is immediately usable by the atomics helpers.
        a.write_u64(word.addr, 42).unwrap();
        assert_eq!(a.read_u64(word.addr).unwrap(), 42);
        // Freeing both still coalesces back to a single extent.
        a.free(word).unwrap();
        a.free(_odd).unwrap();
        assert!(a.alloc(4096).is_ok());
        // Bad alignment is rejected, not silently honoured.
        assert!(matches!(
            a.alloc_aligned(8, 3),
            Err(RdmaError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn u64_helpers_enforce_alignment() {
        let mut a = Arena::new(64);
        let b = a.alloc(16).unwrap();
        a.write_u64(b.addr, 0xDEAD_BEEF).unwrap();
        assert_eq!(a.read_u64(b.addr).unwrap(), 0xDEAD_BEEF);
        assert!(a.read_u64(b.addr + 1).is_err());
    }

    #[test]
    fn corrupt_registered_flips_only_backed_registered_bits() {
        let mut a = Arena::new(1 << 20);
        let plain = a.alloc(64).unwrap(); // allocated but never registered
        let backed = a.alloc(64).unwrap();
        let synth = a.alloc_synthetic(64).unwrap();
        a.register(backed, Access::REMOTE_ALL).unwrap();
        a.register(synth, Access::REMOTE_ALL).unwrap();
        let mut rng = sim::DetRng::new(7);
        let flips = a.corrupt_registered(&mut rng, 8);
        assert_eq!(flips.len(), 8, "every draw lands in the backed MR");
        for &(addr, bit) in &flips {
            assert!(
                (backed.addr..backed.addr + backed.len).contains(&addr),
                "flip at {addr} outside the backed registration"
            );
            assert!(bit < 8);
        }
        // The backed registration really changed; unregistered memory didn't.
        assert_ne!(a.read(backed.addr, 64).unwrap(), vec![0u8; 64]);
        assert_eq!(a.read(plain.addr, 64).unwrap(), vec![0u8; 64]);

        // Same rng seed ⇒ same flips.
        let mut b = Arena::new(1 << 20);
        let _plain = b.alloc(64).unwrap();
        let backed2 = b.alloc(64).unwrap();
        let synth2 = b.alloc_synthetic(64).unwrap();
        b.register(backed2, Access::REMOTE_ALL).unwrap();
        b.register(synth2, Access::REMOTE_ALL).unwrap();
        let mut rng2 = sim::DetRng::new(7);
        assert_eq!(b.corrupt_registered(&mut rng2, 8), flips);
    }

    #[test]
    fn corrupt_registered_with_nothing_backed_is_a_noop() {
        let mut a = Arena::new(1 << 20);
        let synth = a.alloc_synthetic(1024).unwrap();
        a.register(synth, Access::REMOTE_ALL).unwrap();
        let mut rng = sim::DetRng::new(1);
        assert!(a.corrupt_registered(&mut rng, 16).is_empty());
    }

    #[test]
    fn pin_is_copied_out_only_by_an_overlapping_write() {
        let mut src = Arena::new(4096);
        let mut dst = Arena::new(4096);
        let buf = src.alloc(300).unwrap();
        src.write(buf.addr, &[1u8; 300]).unwrap();
        let payload = src.read_payload(buf.addr + 100, 100).unwrap();
        assert_eq!(src.pin_stats(), (1, 0));
        // The bytes on either side of the pinned range are not under it.
        src.write(buf.addr, &[2u8; 100]).unwrap();
        src.write(buf.addr + 200, &[2u8; 100]).unwrap();
        assert_eq!(src.pin_stats(), (1, 0));
        // One byte inside is; later writes find the pin already owned.
        src.write(buf.addr + 199, &[3u8]).unwrap();
        src.write_u64(buf.addr + 104, u64::MAX).unwrap();
        assert_eq!(src.pin_stats(), (1, 1));
        let land = dst.alloc(100).unwrap();
        dst.write_payload(land.addr, &payload).unwrap();
        assert_eq!(dst.read(land.addr, 100).unwrap(), vec![1u8; 100]);
        drop(payload);
        assert_eq!(src.pin_stats(), (0, 1));
    }

    #[test]
    fn pin_outlives_its_block_and_its_arena() {
        let mut src = Arena::new(4096);
        let buf = src.alloc(64).unwrap();
        src.write(buf.addr, &[5u8; 64]).unwrap();
        let payload = src.read_payload(buf.addr, 64).unwrap();
        let empty = src.read_payload(buf.addr + 64, 0).unwrap();
        assert!(matches!(empty, Payload::Synthetic(0)));
        src.free(buf).unwrap();
        assert_eq!(src.pin_stats(), (1, 1));
        drop(src);
        let mut dst = Arena::new(4096);
        let land = dst.alloc(64).unwrap();
        dst.write_payload(land.addr, &payload).unwrap();
        dst.write_payload(land.addr, &empty).unwrap();
        assert_eq!(dst.read(land.addr, 64).unwrap(), vec![5u8; 64]);
        // Delivery is bounds-checked like any write.
        assert!(dst.write_payload(land.addr + 1, &payload).is_err());
    }

    #[test]
    fn released_pin_id_is_stale() {
        let mut a = Arena::new(4096);
        let buf = a.alloc(64).unwrap();
        let Payload::Pinned(first) = a.read_payload(buf.addr, 64).unwrap() else {
            panic!("backed ranges are pinned");
        };
        let (slot, gen) = (first.slot, first.gen);
        drop(first);
        // The slot has a new tenant; the old id must not release it.
        let second = a.read_payload(buf.addr, 8).unwrap();
        a.mem.borrow_mut().pins.release(slot, gen);
        assert_eq!(a.pin_stats(), (1, 0));
        a.write(buf.addr, &[1]).unwrap();
        assert_eq!(a.pin_stats(), (1, 1));
        drop(second);
        assert_eq!(a.pin_stats(), (0, 1));
    }

    #[test]
    fn corruption_under_a_pin_spares_the_sampled_bytes() {
        let mut a = Arena::new(1 << 20);
        let buf = a.alloc(64).unwrap();
        a.register(buf, Access::REMOTE_ALL).unwrap();
        let payload = a.read_payload(buf.addr, 64).unwrap();
        let flips = a.corrupt_registered(&mut sim::DetRng::new(7), 8);
        assert_eq!(flips.len(), 8);
        assert_eq!(a.pin_stats(), (1, 1));
        assert_ne!(a.read(buf.addr, 64).unwrap(), vec![0u8; 64]);
        let mut dst = Arena::new(4096);
        let land = dst.alloc(64).unwrap();
        dst.write(land.addr, &[9u8; 64]).unwrap();
        dst.write_payload(land.addr, &payload).unwrap();
        assert_eq!(dst.read(land.addr, 64).unwrap(), vec![0u8; 64]);
    }

    #[test]
    fn synthetic_ranges_yield_sizes_not_pins() {
        let mut a = Arena::new(1 << 40);
        let fluid = a.alloc_synthetic(1 << 35).unwrap();
        let backed = a.alloc(64).unwrap();
        let payload = a.read_payload(fluid.addr, 1 << 35).unwrap();
        assert!(matches!(payload, Payload::Synthetic(n) if n == 1 << 35));
        assert_eq!(a.pin_stats(), (0, 0));
        // A synthetic payload into backed memory, and a pinned one into
        // synthetic memory, move no bytes.
        a.write(backed.addr, &[4u8; 64]).unwrap();
        a.write_payload(backed.addr, &Payload::Synthetic(64))
            .unwrap();
        assert_eq!(a.read(backed.addr, 64).unwrap(), vec![4u8; 64]);
        let pinned = a.read_payload(backed.addr, 64).unwrap();
        a.write_payload(fluid.addr, &pinned).unwrap();
        assert_eq!(
            a.pin_stats(),
            (1, 1),
            "same arena: delivered from a snapshot"
        );
        assert!(a
            .write_payload(backed.addr + 1, &Payload::Synthetic(64))
            .is_err());
    }

    #[test]
    fn unwritten_block_reads_zero_and_costs_nothing() {
        let mut a = Arena::new(1 << 30);
        let b = a.alloc_aligned(1 << 20, 8).unwrap();
        assert_eq!((a.used(), a.resident()), (1 << 20, 0));
        assert_eq!(a.read(b.addr + 5, 100).unwrap(), vec![0u8; 100]);
        let mut dst = [7u8; 100];
        a.read_into(b.addr + (1 << 20) - 100, &mut dst).unwrap();
        assert_eq!(dst, [0u8; 100]);
        assert_eq!(a.read_u64(b.addr + 4096).unwrap(), 0);
        assert_eq!(a.resident(), 0, "reads back nothing");
        // A pin is a slice of the block: it takes the range, and what lies
        // below it, into the written prefix.
        let payload = a.read_payload(b.addr + 1000, 24).unwrap();
        assert_eq!(a.resident(), 1024);
        let mut dst = Arena::new(4096);
        let land = dst.alloc(24).unwrap();
        dst.write(land.addr, &[9u8; 24]).unwrap();
        dst.write_payload(land.addr, &payload).unwrap();
        assert_eq!(dst.read(land.addr, 24).unwrap(), vec![0u8; 24]);
        a.free(b).unwrap();
        assert_eq!((a.used(), a.resident()), (0, 0));
    }

    #[test]
    fn write_backs_the_block_up_to_its_end_only() {
        let mut a = Arena::new(1 << 20);
        let other = a.alloc(64).unwrap();
        let b = a.alloc(4096).unwrap();
        a.write(b.addr + 100, &[3u8; 28]).unwrap();
        assert_eq!(a.resident(), 128, "k + n, and nothing for the other block");
        assert_eq!(a.read(b.addr, 100).unwrap(), vec![0u8; 100]);
        // A read that straddles the written prefix: prefix, then zeros.
        let mut want = vec![3u8; 8];
        want.resize(40, 0);
        assert_eq!(a.read(b.addr + 120, 40).unwrap(), want);
        let mut got = [1u8; 40];
        a.read_into(b.addr + 120, &mut got).unwrap();
        assert_eq!(got[..], want[..]);
        // A write below the prefix leaves it where it is; the last byte of
        // the block is as far as it goes.
        a.write_u64(b.addr + 8, u64::MAX).unwrap();
        assert_eq!(a.resident(), 128);
        a.write(b.addr + 4095, &[1]).unwrap();
        assert_eq!(a.resident(), 4096);
        assert!(a.write(b.addr + 4095, &[1, 2]).is_err());
        assert_eq!(a.read(other.addr, 64).unwrap(), vec![0u8; 64]);
    }

    #[test]
    fn pin_on_an_unwritten_range_still_reads_zero_after_a_write_or_a_free() {
        let mut src = Arena::new(1 << 20);
        let mut dst = Arena::new(4096);
        let land = dst.alloc(64).unwrap();
        let buf = src.alloc(256).unwrap();
        let written_later = src.read_payload(buf.addr + 64, 64).unwrap();
        let freed_later = src.read_payload(buf.addr + 192, 64).unwrap();
        assert_eq!(src.pin_stats(), (2, 0));
        src.write(buf.addr + 64, &[6u8; 64]).unwrap();
        assert_eq!(src.pin_stats(), (2, 1), "the copy-out still fires");
        src.free(buf).unwrap();
        assert_eq!(src.pin_stats(), (2, 2));
        for payload in [written_later, freed_later] {
            dst.write(land.addr, &[9u8; 64]).unwrap();
            dst.write_payload(land.addr, &payload).unwrap();
            assert_eq!(dst.read(land.addr, 64).unwrap(), vec![0u8; 64]);
        }
        assert_eq!(src.pin_stats(), (0, 2));
    }

    #[test]
    fn corruption_of_an_unwritten_registration_flips_zeros() {
        let flip = |seed| {
            let mut a = Arena::new(1 << 20);
            let buf = a.alloc(4096).unwrap();
            a.register(buf, Access::REMOTE_ALL).unwrap();
            let flips = a.corrupt_registered(&mut sim::DetRng::new(seed), 4);
            let image = a.read(buf.addr, 4096).unwrap();
            (flips, image, a.resident())
        };
        let (flips, image, resident) = flip(7);
        assert_eq!(flips.len(), 4);
        let mut want = vec![0u8; 4096];
        for &(addr, bit) in &flips {
            want[addr as usize] ^= 1 << bit;
        }
        assert_eq!(image, want);
        let top = flips.iter().map(|&(addr, _)| addr).max().unwrap();
        assert_eq!(resident, top + 1, "backed up to the highest flipped byte");
        assert_eq!(flip(7), (flips, image, resident), "same seed, same flips");
    }

    #[test]
    fn prefix_capacity_doubles_and_never_passes_the_block() {
        let mut a = Arena::new(1 << 20);
        let b = a.alloc(1000).unwrap();
        let cap = |a: &Arena| {
            let mem = a.mem.borrow();
            mem.blocks[&b.addr].data.as_ref().unwrap().capacity()
        };
        assert_eq!(cap(&a), 0, "nothing is asked of the host at alloc");
        a.write(b.addr, &[1; 10]).unwrap();
        assert_eq!(cap(&a), 10);
        a.write(b.addr + 10, &[2; 5]).unwrap();
        assert_eq!(cap(&a), 20, "twice the capacity is past the range's end");
        a.write(b.addr + 2, &[3; 3]).unwrap();
        assert_eq!(cap(&a), 20, "a write inside the capacity moves nothing");
        a.write(b.addr + 400, &[4; 200]).unwrap();
        assert_eq!(cap(&a), 600, "the range's end is past twice the capacity");
        a.write(b.addr + 601, &[5]).unwrap();
        assert_eq!(cap(&a), 1000, "twice the capacity, capped at the block");
        assert_eq!(a.resident(), 602);
        let mut want = [[1; 2], [3; 2]].concat();
        want.extend([3, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2]);
        want.resize(400, 0);
        want.extend([4; 200]);
        want.extend([0, 5, 0]);
        assert_eq!(a.read(b.addr, 603).unwrap(), want);
    }

    #[test]
    fn views_and_copies_work_where_the_bytes_lie() {
        let mut a = Arena::new(1 << 20);
        let src = a.alloc(256).unwrap();
        let dst = a.alloc(256).unwrap();
        let fluid = a.alloc_synthetic(256).unwrap();
        a.write(src.addr, &[7; 100]).unwrap();
        // A read view backs the range it lends, as zeros.
        let seen = a.view(src.addr + 64, 64, <[u8]>::to_vec).unwrap();
        assert_eq!(seen, Some([[7; 36].as_slice(), &[0; 28]].concat()));
        assert_eq!(a.resident(), 128);
        assert_eq!(
            a.view_mut(src.addr + 200, 8, |b| b.fill(9)).unwrap(),
            Some(())
        );
        let image = a.read(src.addr, 256).unwrap();

        // Block to block: the source reads as zeros past its prefix, which
        // the copy leaves where it was; a pin on the target is copied out.
        let pinned = a.read_payload(dst.addr + 20, 10).unwrap();
        a.copy(src.addr + 96, dst.addr + 10, 150).unwrap();
        assert_eq!(a.pin_stats(), (1, 1));
        let mut want = vec![0; 10];
        want.extend(&image[96..246]);
        want.resize(256, 0);
        assert_eq!(a.read(dst.addr, 256).unwrap(), want);
        assert_eq!(a.resident(), 208 + 160);
        let mut land = Arena::new(4096);
        let l = land.alloc(10).unwrap();
        land.write_payload(l.addr, &pinned).unwrap();
        assert_eq!(land.read(l.addr, 10).unwrap(), vec![0; 10]);

        // Within one block, overlapping: as `copy_within`.
        a.copy(src.addr, src.addr + 50, 100).unwrap();
        let mut moved = image.clone();
        moved.copy_within(0..100, 50);
        assert_eq!(a.read(src.addr, 256).unwrap(), moved);

        // Synthetic blocks lend nothing, read as zeros and drop writes.
        assert_eq!(a.view(fluid.addr, 8, |_| ()).unwrap(), None);
        assert_eq!(a.view_mut(fluid.addr, 8, |_| ()).unwrap(), None);
        a.copy(fluid.addr, dst.addr, 16).unwrap();
        assert_eq!(a.read(dst.addr, 16).unwrap(), vec![0; 16]);
        a.copy(src.addr, fluid.addr, 16).unwrap();

        // Both ranges are bounds-checked, and a failed copy loses nothing.
        assert!(a.copy(src.addr + 200, dst.addr, 100).is_err());
        assert!(a.copy(src.addr, dst.addr + 200, 100).is_err());
        assert!(a.view(src.addr + 250, 10, |_| ()).is_err());
        assert_eq!(a.read(src.addr, 256).unwrap(), moved);
    }

    #[test]
    fn swap_backing_lends_a_block_and_takes_it_back() {
        let mut a = Arena::new(1 << 20);
        let b = a.alloc(64).unwrap();
        let cap = |a: &Arena| {
            a.mem.borrow().blocks[&b.addr]
                .data
                .as_ref()
                .unwrap()
                .capacity()
        };
        // Reserved ahead of its first write, which then grows nothing.
        assert!(a
            .swap_backing(b, Vec::with_capacity(64))
            .unwrap()
            .is_empty());
        a.write(b.addr + 60, &[3; 4]).unwrap();
        a.write(b.addr, &[3; 60]).unwrap();
        assert_eq!(cap(&a), 64);

        // Lent: the block reads as unwritten, and a pin on it keeps what it
        // sampled.
        let pinned = a.read_payload(b.addr + 8, 8).unwrap();
        let lent = a.swap_backing(b, Vec::new()).unwrap();
        assert_eq!(lent, vec![3; 64]);
        assert_eq!((a.pin_stats(), a.resident()), ((1, 1), 0));
        assert_eq!(a.read(b.addr, 64).unwrap(), vec![0; 64]);
        let mut dst = Arena::new(4096);
        let land = dst.alloc(8).unwrap();
        dst.write_payload(land.addr, &pinned).unwrap();
        assert_eq!(dst.read(land.addr, 8).unwrap(), vec![3; 8]);

        // Taken back: the bytes and their capacity are where they were.
        assert_eq!(a.swap_backing(b, lent).unwrap().capacity(), 0);
        assert_eq!(a.read(b.addr, 64).unwrap(), vec![3; 64]);
        assert_eq!((cap(&a), a.resident()), (64, 64));

        // A synthetic block keeps nothing; a range that is not a block is
        // refused.
        let fluid = a.alloc_synthetic(64).unwrap();
        assert!(a.swap_backing(fluid, vec![1; 8]).unwrap().is_empty());
        assert_eq!(a.read(fluid.addr, 8).unwrap(), vec![0; 8]);
        let inner = b.slice(8, 8);
        assert_eq!(
            a.swap_backing(inner, Vec::new()),
            Err(RdmaError::InvalidHandle)
        );
        let short = b.slice(0, 32);
        assert_eq!(
            a.swap_backing(short, Vec::new()),
            Err(RdmaError::InvalidHandle)
        );
    }

    #[test]
    fn slice_bounds_checked() {
        let b = DmaBuf { addr: 10, len: 20 };
        let s = b.slice(5, 10);
        assert_eq!((s.addr, s.len), (15, 10));
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_overrun_panics() {
        DmaBuf { addr: 0, len: 8 }.slice(4, 8);
    }
}
