//! The client-side KV index: a table handle's `key → (slot, version)` hints
//! (DESIGN.md "KV cached index").
//!
//! The cache is on every KV op's host path, so it costs the host nothing
//! per op once full. Its storage, an entry list and an open-addressed index,
//! grows by doubling while the cache fills and is then reused for good:
//! an evicted or removed entry's key buffer holds its next tenant's key, and
//! the index deletes by backward shift, so it keeps no tombstones and never
//! rehashes at capacity. Nothing is sized at open: a handle that is opened
//! and dropped (a reopen after errors) costs what it cached.

use crate::kv::hash_key;

/// A cached `key → slot` hint. `version` is the stable slot version the key
/// was last seen at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SlotHint {
    pub(crate) slot: u64,
    pub(crate) version: u64,
}

/// No entry: the end of the FIFO or of the free list.
const NIL: u32 = u32::MAX;
/// Entries are named by `u32`; a larger capacity is clamped to this.
const MAX_CAP: usize = 1 << 30;

struct Entry {
    /// The key's bytes; the buffer outlives the key, for the next tenant.
    key: Vec<u8>,
    hash: u64,
    hint: SlotHint,
    /// The FIFO neighbours (older, newer) of a live entry. A free entry
    /// links the free list through `next`.
    prev: u32,
    next: u32,
}

/// FIFO-evicting hint cache. Deterministic: eviction order is insertion
/// order, never hash order. Re-inserting a present key refreshes its hint
/// in place without re-queueing; a removed key leaves the queue at once, so
/// eviction takes the oldest *live* key, and a key that is removed and
/// inserted again queues at the back like any new key.
///
/// Each entry costs 56 B, its key's heap buffer, and 8–16 B of index at any
/// capacity from 2 up (two to four `u32` cells: the index is at most half
/// full, and its length is a power of two, at least 8). The index probes
/// linearly from `hash_key`'s low bits and compares keys in full, never by
/// hash alone: a hinted put's CAS proves the slot holds *this* key only if
/// the hint is this key's. `hash_key` is unkeyed, so a hostile key set can
/// make every lookup walk one probe run, which is bounded by the index size
/// (under 4 × capacity cells, or 8).
pub(crate) struct HintCache {
    cap: usize,
    entries: Vec<Entry>,
    /// Entry index + 1 per cell, 0 when empty. Its length is a power of two
    /// at least twice `entries.len()`, or 0 before the first insert.
    index: Vec<u32>,
    live: usize,
    /// The oldest and newest live entries.
    head: u32,
    tail: u32,
    /// Entries that a removal or a clear freed.
    free: u32,
}

impl HintCache {
    pub(crate) fn new(cap: usize) -> HintCache {
        HintCache {
            cap: cap.min(MAX_CAP),
            entries: Vec::new(),
            index: Vec::new(),
            live: 0,
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    pub(crate) fn lookup(&self, key: &[u8]) -> Option<SlotHint> {
        let cell = self.find(hash_key(key), key).ok()?;
        Some(self.entries[self.index[cell] as usize - 1].hint)
    }

    /// Inserts or refreshes a hint; returns how many entries were evicted.
    pub(crate) fn insert(&mut self, key: &[u8], hint: SlotHint) -> u64 {
        if self.cap == 0 {
            return 0;
        }
        let hash = hash_key(key);
        if let Ok(cell) = self.find(hash, key) {
            self.entries[self.index[cell] as usize - 1].hint = hint;
            return 0;
        }
        let mut evicted = 0;
        if self.live == self.cap {
            self.release(self.head);
            evicted = 1;
        }
        let e = self.vacant();
        let entry = &mut self.entries[e as usize];
        entry.key.clear();
        entry.key.extend_from_slice(key);
        (entry.hash, entry.hint, entry.prev, entry.next) = (hash, hint, self.tail, NIL);
        match self.tail {
            NIL => self.head = e,
            t => self.entries[t as usize].next = e,
        }
        self.tail = e;
        let cell = self.find(hash, key).expect_err("key was absent");
        self.index[cell] = e + 1;
        self.live += 1;
        evicted
    }

    pub(crate) fn remove(&mut self, key: &[u8]) -> bool {
        match self.find(hash_key(key), key) {
            Ok(cell) => {
                self.release(self.index[cell] - 1);
                true
            }
            Err(_) => false,
        }
    }

    pub(crate) fn clear(&mut self) {
        self.index.fill(0);
        // Every entry is free, each linked to the one below it (entry 0 to
        // NIL, which is `0 - 1`).
        for (i, entry) in self.entries.iter_mut().enumerate() {
            entry.next = (i as u32).wrapping_sub(1);
        }
        self.free = (self.entries.len() as u32).wrapping_sub(1);
        (self.live, self.head, self.tail) = (0, NIL, NIL);
    }

    /// The cell that holds `key` (`Ok`), or the empty cell that ends its
    /// probe run (`Err`). Never loops: the index is at most half full.
    fn find(&self, hash: u64, key: &[u8]) -> Result<usize, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let mask = self.index.len() - 1;
        let mut cell = hash as usize & mask;
        loop {
            match self.index[cell] {
                0 => return Err(cell),
                c => {
                    let entry = &self.entries[c as usize - 1];
                    if entry.hash == hash && entry.key == key {
                        return Ok(cell);
                    }
                }
            }
            cell = (cell + 1) & mask;
        }
    }

    /// Unlinks live entry `e` from the FIFO and the index and frees it.
    fn release(&mut self, e: u32) {
        let Entry {
            hash, prev, next, ..
        } = self.entries[e as usize];
        match prev {
            NIL => self.head = next,
            p => self.entries[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entries[n as usize].prev = prev,
        }
        self.entries[e as usize].next = self.free;
        self.free = e;
        self.live -= 1;

        // Backward shift: each later cell of the probe run moves into the
        // hole unless the hole lies before its home cell.
        let mask = self.index.len() - 1;
        let mut hole = hash as usize & mask;
        while self.index[hole] != e + 1 {
            hole = (hole + 1) & mask;
        }
        let mut cell = hole;
        loop {
            cell = (cell + 1) & mask;
            let c = self.index[cell];
            if c == 0 {
                break;
            }
            let home = self.entries[c as usize - 1].hash as usize & mask;
            if cell.wrapping_sub(home) & mask >= cell.wrapping_sub(hole) & mask {
                self.index[hole] = c;
                hole = cell;
            }
        }
        self.index[hole] = 0;
    }

    /// A free entry, taken from the free list or added while the cache is
    /// filling; the entry list and the index double as it fills.
    fn vacant(&mut self) -> u32 {
        if self.free != NIL {
            let e = self.free;
            self.free = self.entries[e as usize].next;
            return e;
        }
        let len = self.entries.len();
        if len == self.entries.capacity() {
            self.entries.reserve_exact(len.max(4).min(self.cap - len));
        }
        self.entries.push(Entry {
            key: Vec::new(),
            hash: 0,
            hint: SlotHint {
                slot: 0,
                version: 0,
            },
            prev: NIL,
            next: NIL,
        });
        if self.entries.len() * 2 > self.index.len() {
            self.grow_index();
        }
        len as u32
    }

    fn grow_index(&mut self) {
        let old = std::mem::take(&mut self.index);
        self.index = vec![0; (old.len() * 2).max(8)];
        let mask = self.index.len() - 1;
        for c in old.into_iter().filter(|&c| c != 0) {
            let mut cell = self.entries[c as usize - 1].hash as usize & mask;
            while self.index[cell] != 0 {
                cell = (cell + 1) & mask;
            }
            self.index[cell] = c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::DetRng;

    fn h(slot: u64) -> SlotHint {
        SlotHint { slot, version: 2 }
    }

    #[test]
    fn hint_cache_evicts_fifo_and_refreshes_in_place() {
        assert_eq!(
            std::mem::size_of::<Entry>(),
            56,
            "the documented entry size"
        );
        let mut hc = HintCache::new(2);
        assert_eq!(hc.insert(b"a", h(1)), 0);
        assert_eq!(hc.insert(b"b", h(2)), 0);
        // Refresh does not re-queue: "a" stays oldest.
        assert_eq!(hc.insert(b"a", h(9)), 0);
        assert_eq!(hc.lookup(b"a").unwrap().slot, 9);
        // Third key evicts the oldest ("a"), not the refreshed position.
        assert_eq!(hc.insert(b"c", h(3)), 1);
        assert!(hc.lookup(b"a").is_none());
        assert!(hc.lookup(b"b").is_some());
        assert!(hc.lookup(b"c").is_some());
        // A removed key leaves the queue: eviction skips its place.
        assert!(hc.remove(b"b"));
        assert_eq!(hc.insert(b"d", h(4)), 0);
        assert_eq!(hc.insert(b"e", h(5)), 1); // evicts "c"
        assert!(hc.lookup(b"d").is_some() && hc.lookup(b"e").is_some());
        // Storage never grows past capacity under churn.
        for i in 0..100u32 {
            hc.insert(format!("k{i}").as_bytes(), h(i as u64));
        }
        assert!(hc.entries.len() <= hc.cap && hc.index.len() <= 4 * hc.cap);
        // Capacity 0 disables caching entirely.
        let mut off = HintCache::new(0);
        off.insert(b"x", h(1));
        assert!(off.lookup(b"x").is_none());
    }

    #[test]
    fn a_key_removed_and_inserted_again_queues_at_the_back() {
        let mut hc = HintCache::new(2);
        hc.insert(b"a", h(1));
        hc.insert(b"b", h(2));
        assert!(hc.remove(b"a"));
        assert_eq!(hc.insert(b"a", h(3)), 0);
        // "b" is now the oldest live key; "a"'s first place is gone.
        assert_eq!(hc.insert(b"c", h(4)), 1);
        assert_eq!(hc.lookup(b"a"), Some(h(3)));
        assert_eq!(hc.lookup(b"c"), Some(h(4)));
        assert_eq!(hc.lookup(b"b"), None);
    }

    /// The table against a reference FIFO (a `Vec` of (key, hint) in
    /// insertion order) under random inserts, lookups, removals and clears.
    /// Keys are 1–40 bytes over a two-letter alphabet, drawn from a pool a
    /// few times the capacity, so refreshes, re-insertions, shared prefixes
    /// and index collisions are frequent.
    #[test]
    fn matches_a_reference_fifo_and_stops_growing_at_capacity() {
        let mut rng = DetRng::new(0x4817);
        for case in 0..400 {
            let cap = case % 9;
            let pool: Vec<Vec<u8>> = (0..3 * cap + 3)
                .map(|_| {
                    let len = rng.range_u64(1, 41) as usize;
                    (0..len).map(|_| b"ab"[rng.index(2)]).collect()
                })
                .collect();
            let mut hc = HintCache::new(cap);
            let mut model: Vec<(Vec<u8>, SlotHint)> = Vec::new();
            let mut full: Option<[usize; 4]> = None;
            for step in 0..300u64 {
                let key = &pool[rng.index(pool.len())];
                let at = model.iter().position(|(k, _)| k == key);
                match rng.index(20) {
                    0..=8 => {
                        let mut evicted = 0;
                        match at {
                            Some(i) => model[i].1 = h(step),
                            None if cap == 0 => {}
                            None => {
                                if model.len() == cap {
                                    model.remove(0);
                                    evicted = 1;
                                }
                                model.push((key.clone(), h(step)));
                            }
                        }
                        assert_eq!(hc.insert(key, h(step)), evicted, "case {case} step {step}");
                    }
                    9..=15 => {
                        let want = at.map(|i| model[i].1);
                        assert_eq!(hc.lookup(key), want, "case {case} step {step}");
                    }
                    16..=18 => {
                        if let Some(i) = at {
                            model.remove(i);
                        }
                        assert_eq!(hc.remove(key), at.is_some(), "case {case} step {step}");
                    }
                    _ => {
                        model.clear();
                        hc.clear();
                    }
                }
                assert_eq!(hc.live, model.len());
                let storage = [
                    hc.entries.len(),
                    hc.entries.capacity(),
                    hc.index.len(),
                    hc.index.capacity(),
                ];
                match full {
                    Some(at_cap) => assert_eq!(storage, at_cap, "case {case} step {step}"),
                    None if cap > 0 && model.len() == cap => {
                        assert!(storage[1] <= cap, "entries reserved past capacity");
                        full = Some(storage);
                    }
                    None => {}
                }
            }
            for (key, hint) in &model {
                assert_eq!(hc.lookup(key), Some(*hint), "case {case}");
            }
        }
    }
}
