//! Device memory: a per-node arena with registration-based access control.
//!
//! Real RDMA requires memory to be registered with the NIC before it can be
//! the source or target of DMA. We model a node's DRAM as a 64-bit address
//! space managed by a first-fit free-list allocator; each allocation may be
//! *backed* (a real `Vec<u8>`, bytes actually move) or *synthetic* (no
//! backing store — used for fluid-mode experiments at the 256 GB scale where
//! only sizes and timing matter).

use std::collections::BTreeMap;

use crate::types::{Access, RKey, RdmaError, Result};

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
    /// `Some` for backed allocations, `None` for synthetic ones.
    data: Option<Vec<u8>>,
}

/// The arena: allocator + backing storage + MR table for one device.
pub struct Arena {
    capacity: u64,
    used: u64,
    /// Free extents, keyed by start address.
    free: BTreeMap<u64, u64>,
    /// Live allocations, keyed by start address.
    blocks: BTreeMap<u64, Block>,
    mrs: BTreeMap<RKey, MrEntry>,
    next_rkey: u64,
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("capacity", &self.capacity)
            .field("used", &self.used)
            .field("blocks", &self.blocks.len())
            .field("mrs", &self.mrs.len())
            .finish()
    }
}

impl Arena {
    /// Creates an arena covering addresses `[0, capacity)`.
    pub fn new(capacity: u64) -> Self {
        let mut free = BTreeMap::new();
        if capacity > 0 {
            free.insert(0, capacity);
        }
        Arena {
            capacity,
            used: 0,
            free,
            blocks: BTreeMap::new(),
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

    /// Allocates `len` bytes of backed memory (zero-initialized).
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
        let data = if backed {
            Some(vec![
                0u8;
                usize::try_from(len).map_err(|_| {
                    RdmaError::OutOfMemory { requested: len }
                })?
            ])
        } else {
            None
        };
        self.blocks.insert(addr, Block { len, data });
        self.used += len;
        Ok(DmaBuf { addr, len })
    }

    /// Frees an allocation previously returned by an alloc call, coalescing
    /// adjacent free extents. Any MRs covering it are deregistered.
    ///
    /// # Errors
    ///
    /// [`RdmaError::InvalidHandle`] if `addr` is not an allocation start.
    pub fn free(&mut self, buf: DmaBuf) -> Result<()> {
        let block = self
            .blocks
            .remove(&buf.addr)
            .ok_or(RdmaError::InvalidHandle)?;
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
        self.containing_block(buf.addr, buf.len)?;
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

    fn containing_block(&self, addr: u64, len: u64) -> Result<(u64, &Block)> {
        let (baddr, block) = self
            .blocks
            .range(..=addr)
            .next_back()
            .ok_or(RdmaError::OutOfBounds { addr, len })?;
        let end = addr
            .checked_add(len)
            .ok_or(RdmaError::OutOfBounds { addr, len })?;
        if end > baddr + block.len {
            return Err(RdmaError::OutOfBounds { addr, len });
        }
        Ok((*baddr, block))
    }

    fn containing_block_mut(&mut self, addr: u64, len: u64) -> Result<(u64, &mut Block)> {
        let (baddr, block) = self
            .blocks
            .range_mut(..=addr)
            .next_back()
            .ok_or(RdmaError::OutOfBounds { addr, len })?;
        let end = addr
            .checked_add(len)
            .ok_or(RdmaError::OutOfBounds { addr, len })?;
        if end > *baddr + block.len {
            return Err(RdmaError::OutOfBounds { addr, len });
        }
        Ok((*baddr, block))
    }

    /// Checks that `[addr, addr + len)` lies within one live allocation,
    /// without touching its bytes — how the post path validates local
    /// buffers.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is not within one allocation.
    pub fn check_range(&self, addr: u64, len: u64) -> Result<()> {
        self.containing_block(addr, len).map(|_| ())
    }

    /// Copies bytes out of the arena. Synthetic allocations read as zeroes.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is not within one allocation.
    pub fn read(&self, addr: u64, len: u64) -> Result<Vec<u8>> {
        let (baddr, block) = self.containing_block(addr, len)?;
        Ok(match &block.data {
            Some(data) => {
                let off = (addr - baddr) as usize;
                data[off..off + len as usize].to_vec()
            }
            None => vec![0u8; len as usize],
        })
    }

    /// Copies bytes out of the arena into a caller-owned slice — the
    /// allocation-free sibling of [`read`](Self::read) for hot paths that
    /// reuse a scratch buffer. Synthetic allocations read as zeroes.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is not within one allocation.
    pub fn read_into(&self, addr: u64, dst: &mut [u8]) -> Result<()> {
        let (baddr, block) = self.containing_block(addr, dst.len() as u64)?;
        match &block.data {
            Some(data) => {
                let off = (addr - baddr) as usize;
                dst.copy_from_slice(&data[off..off + dst.len()]);
            }
            None => dst.fill(0),
        }
        Ok(())
    }

    /// Copies bytes into the arena. Writes to synthetic allocations are
    /// discarded (timing only).
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is not within one allocation.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<()> {
        let (baddr, block) = self.containing_block_mut(addr, bytes.len() as u64)?;
        if let Some(data) = &mut block.data {
            let off = (addr - baddr) as usize;
            data[off..off + bytes.len()].copy_from_slice(bytes);
        }
        Ok(())
    }

    /// Reads a range as a [`Payload`](crate::wire::Payload): backed
    /// allocations yield real bytes, synthetic ones a size-only payload —
    /// crucially *without* materializing huge zero buffers.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is not within one allocation.
    pub fn read_payload(&self, addr: u64, len: u64) -> Result<crate::wire::Payload> {
        let (baddr, block) = self.containing_block(addr, len)?;
        Ok(match &block.data {
            Some(data) => {
                let off = (addr - baddr) as usize;
                crate::wire::Payload::Bytes(data[off..off + len as usize].to_vec())
            }
            None => crate::wire::Payload::Synthetic(len),
        })
    }

    /// Writes a payload into the arena. Real bytes land in backed
    /// allocations; synthetic payloads (or writes into synthetic blocks)
    /// affect timing and accounting only.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is not within one allocation.
    pub fn write_payload(&mut self, addr: u64, payload: &crate::wire::Payload) -> Result<()> {
        let len = payload.len();
        let (baddr, block) = self.containing_block_mut(addr, len)?;
        if let (Some(data), crate::wire::Payload::Bytes(bytes)) = (&mut block.data, payload) {
            let off = (addr - baddr) as usize;
            data[off..off + bytes.len()].copy_from_slice(bytes);
        }
        Ok(())
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
        let ranges: Vec<(u64, u64)> = self
            .mrs
            .values()
            .filter(|mr| {
                mr.access.allows(Access::REMOTE_READ)
                    && self
                        .containing_block(mr.addr, mr.len)
                        .map(|(_, b)| b.data.is_some())
                        .unwrap_or(false)
            })
            .map(|mr| (mr.addr, mr.len))
            .collect();
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
                    let byte_addr = addr + idx / 8;
                    let bit = (idx % 8) as u8;
                    let mut byte = self.read(byte_addr, 1).expect("registered range readable");
                    byte[0] ^= 1 << bit;
                    self.write(byte_addr, &byte)
                        .expect("registered range writable");
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
        let bytes = self.read(addr, 8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
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
