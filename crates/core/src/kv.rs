//! A key-value interface over regions — the "data store" face of RStore.
//!
//! The table is an open-addressed hash map laid out in a pair of regions:
//!
//! * **`{name}`** — a tiny *meta region* holding the table's control word:
//!   `[magic | epoch | generation | buckets | slot_bytes]`. Even epoch =
//!   stable; odd = a resize is in flight. The generation names the current
//!   data region.
//! * **`{name}@g{generation}`** — the *data region*: `buckets` fixed-size
//!   slots, linear probing.
//!
//! All operations are one-sided, in the style of Pilaf/FaRM-era RDMA
//! stores, with a client-side **cached index** (Outback/HiStore-style) so
//! the warm path needs no probing at all. A table handle owns **no
//! connections**: opening (or remapping after a resize) is its only
//! control-path work, and every READ, WRITE and CAS it issues rides the
//! owning client's cached data QPs through [`Region`] — so a handle inherits
//! the client's re-dial after a server flap instead of needing a reopen
//! (the paper's setup-once / one-sided-IO split, `DESIGN.md` claim C3).
//!
//! This module is an *extension* beyond the paper's abstract (flagged in
//! `DESIGN.md`): the paper presents the memory-like API and two
//! applications; a KV facade is the natural third.
//!
//! # The four pieces
//!
//! Every operation is assembled from the same four parts:
//!
//! 1. **The slot codec** (`SlotHdr`) — the only code that knows the slot
//!    layout, and the one validation rule every path applies to an image
//!    read back from the wire or a host copy of it. A locked slot decodes
//!    to its committed view (see "Locks and failures").
//! 2. **The probe walk** (`KvTable::walk`) — linear probing from the
//!    key's home slot, ending in the key's live entry, the first reusable
//!    hole of its chain, or neither. The home slot is one READ of its own;
//!    each READ after it lands the next `PROBE_WINDOW_BYTES` (1 KiB) of the
//!    chain. `get`, `put`, `delete` and `multi_get`'s chain fallback all
//!    drive it; a writer's walk owns the bounded lock wait.
//! 3. **The locked mutation** (`KvTable::mutate`) — tagged-CAS lock →
//!    publish an entry or a tombstone in one WRITE that also unlocks → on
//!    any failure after the CAS, the one unlock (`KvTable::unlock`); a lost
//!    CAS on a slot known to hold the key chases the word it returned. `put`
//!    and `delete` call it from both their hinted and their probed path.
//! 4. **The generation plumbing** — one stale-generation retry wrapper
//!    (`KvTable::retry_stale`) around every op, one meta poll loop
//!    (`KvTable::poll_meta`) behind open, the write lease and
//!    revalidation, one generation constructor (`TableGen::new`).
//!
//! On top of them:
//!
//! * **GET** — a hit in the hint cache reads the remembered slot directly:
//!   **one RDMA READ**, regardless of probe-chain depth; the key embedded in
//!   the slot self-validates the hint. A miss walks from the home slot and
//!   populates the cache. A get never waits on a writer.
//! * **PUT / DELETE** — a hinted mutation CASes directly on the cached
//!   version: CAS + WRITE = 2 round trips, 3 when another writer moved the
//!   slot on first. A cold one walks first (one READ for the home slot, then
//!   one per 1 KiB of chain past it). Writers from any client machine
//!   serialize on the CAS; no server CPU is ever involved.
//! * **RESIZE** — [`KvTable::grow`] rehashes into a fresh data region
//!   without stopping readers: flip the epoch odd (CAS), wait a grace
//!   period that outlasts every write lease, copy + rehash, publish the new
//!   generation in the meta block, then free the old region. Clients detect
//!   the flip cheaply — writers revalidate the epoch via a short-lived
//!   *write lease* instead of a meta read per op; readers react lazily to
//!   the `RemoteAccess` faults that reads against a freed generation
//!   surface, and remap.
//!
//! # Slot layout (`slot_bytes` total)
//!
//! ```text
//! [ version: u64 | klen: u16 | vlen: u16 | pad: u32 | key | value | pad ]
//! ```
//!
//! `version == 0` means never used; even = stable; odd = locked. A
//! tombstone is `version != 0 && klen == 0` (probing continues past it).
//! Stable versions only grow, and a slot never repeats one within a
//! generation — which is what lets a hinted put CAS directly on its cached
//! version: success *proves* the slot still holds the hinted key. Every
//! image of a live entry is structurally validated (`klen + vlen` against
//! the slot payload) before any slicing, by readers and writers alike;
//! corrupt images surface [`RStoreError::CorruptionDetected`], never a
//! panic and never a silent overwrite. `slot_bytes` must divide the
//! region's stripe size so a slot image is always one WR — that
//! single-WRITE publish is what makes it atomic against readers.
//!
//! # Locks and failures
//!
//! The locked word is tagged: the CAS swaps in `version + 1` with a unique
//! nonce in the high 32 bits ([`lock_word`]), and the body under an odd
//! word is always the intact pre-lock image — the lock CAS touches only the
//! version word, and the publish writes word + body in one WRITE. So the
//! slot codec decodes a locked slot to its **committed view**:
//! `pre_lock_version(word)` and the body under it, the state the slot held
//! at the READ's instant. **Readers read through locks**: `get`,
//! `multi_get`, the hinted read and the reader's walk never wait on a
//! writer, and a get that meets a lock is linearized before the in-flight
//! mutation.
//!
//! **Writers chase.** A lock CAS that loses on a slot known to hold the key
//! (a hinted put or delete, or a walk that hit) continues from the word the
//! CAS returned instead of walking again. An even word is locked at once.
//! An odd one is waited out (`LOCK_BACKOFF`, through the op's
//! [`LockWatch`]), and then the writer locks `pre_lock_version(word) + 2`,
//! the version the holder will publish; if the holder unlocks instead, that
//! CAS returns the pre-lock version and the next round locks it. Only the
//! first CAS's success proves the key (a slot never repeats a stable
//! version), so every chase round's CAS carries a READ of the slot behind
//! it on the same QP, which the responder runs after the swap: the writer
//! publishes only if the image under its own lock holds the key, and
//! otherwise unlocks and walks. A writer's walk that meets a locked slot
//! waits it out and restarts from the *home* slot: it may already have
//! chosen a hole earlier in the chain, and the lock holder may be inserting
//! this very key — or freeing an earlier slot — so the hole it remembered
//! can be stale by the time the lock clears.
//!
//! Every lock wait is bounded ([`LOCK_WAIT_BUDGET`] of virtual time per op)
//! and then surfaces [`RStoreError::Io`] — a healthy writer releases within
//! microseconds, so exceeding the budget means the holder crashed or the
//! cluster is degraded, and the caller should retry (possibly after a
//! remap) rather than spin.
//!
//! A lock that is not released by a publish is released by one rule,
//! `KvTable::unlock`: CASing the exact tagged word back to the pre-lock
//! stable version restores a state the slot already had. The nonce makes
//! the word unique to one lock attempt (no ABA); a CAS is posted once and
//! never re-posted, so nothing can replay an unlock, and it fails
//! harmlessly once the word has moved on. Two callers use it:
//!
//! * **The owner.** A mutation that fails after posting its lock CAS —
//!   the CAS itself (it may have executed with its completion lost to a
//!   fault-era timeout) or the publish (a server crashed mid-write) —
//!   unlocks before it surfaces the error. A region write returns only
//!   once every WRITE it posted has completed, so no copy of the failed
//!   publish lands after the unlock. **A failed put or delete leaves the
//!   key's old value or its new one**: the new one where the publish
//!   reached the primary before failing elsewhere (then the unlock finds
//!   the word moved on). It never erases the old one.
//! * **A waiter.** A lock can be orphaned with no owner left to release
//!   it: the owner's unlock failed too, or live migration copied the slot
//!   while it was locked and the owner's release landed on the sealed,
//!   soon-freed source. A writer that has watched the *same* tagged word
//!   for most of its wait budget ([`LockWatch`]) — orders of magnitude past
//!   a healthy hold — breaks the lock with the same CAS (`kv.lock.break`).
//!   Until then readers return the entry under it, and so does `grow`.

use rdma::{CqStatus, DmaBuf, RdmaDevice};
use sim::{Counter, OpLedger, Phase, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::client::RStoreClient;
use crate::error::{RStoreError, Result};
use crate::layout::Layout;
use crate::proto::AllocOptions;
use crate::region::Region;
use crate::stats::{KvStats, OpKind};

const HDR_BYTES: usize = 16;

/// First 8 bytes of every meta region: "RSTOREKV".
const KV_MAGIC: u64 = u64::from_le_bytes(*b"RSTOREKV");

/// Meta block layout: `[magic | epoch | generation | buckets | slot_bytes]`.
const META_BYTES: u64 = 40;
/// Byte offset of the epoch word inside the meta block (CAS target).
const META_EPOCH_OFF: u64 = 8;
/// Allocated size of the meta region (one cache line).
const META_REGION_BYTES: u64 = 64;

/// Virtual-time budget one op will spend waiting on locked slots before it
/// surfaces an IO timeout instead of spinning. A healthy writer holds a
/// lock for microseconds; a holder stalled behind a degraded-window RDMA
/// timeout (or crashed outright) keeps it for tens of milliseconds, and
/// each wait round costs a remote CAS or re-read — so past this budget the caller
/// is better served by an error it can react to (remap, back off, retry).
const LOCK_WAIT_BUDGET: Duration = Duration::from_millis(20);

/// Backoff between lock-wait probe rounds.
const LOCK_BACKOFF: Duration = Duration::from_micros(2);

/// How long one meta read authorizes mutations before the epoch must be
/// revalidated. Writers piggyback the check on at most one extra read per
/// lease window instead of one per op; [`RESIZE_GRACE`] is sized so every
/// lease granted before a resize's epoch flip expires before copying
/// starts.
const WRITE_LEASE: Duration = Duration::from_millis(5);

/// How long a resizer waits after flipping the epoch odd before it starts
/// copying: long enough that every write lease granted under the old epoch
/// has expired *and* every mutation admitted under one has finished
/// (bounded by [`LOCK_WAIT_BUDGET`] plus microseconds of healthy IO).
/// Ops stalled in fault recovery beyond this window are the documented
/// residual risk of resizing a badly degraded table — see `DESIGN.md`.
const RESIZE_GRACE: Duration = Duration::from_millis(50);

/// Poll interval while waiting out an in-flight resize.
const RESIZE_POLL: Duration = Duration::from_micros(500);

/// Total virtual time a blocked writer (or a stale reader) will wait for an
/// in-flight resize to publish its new generation before erroring out.
const RESIZE_WAIT_BUDGET: Duration = Duration::from_secs(2);

/// How long a client that hit a stale-generation fault keeps polling the
/// meta block when the generation has *not* visibly changed, before
/// concluding the fault has another cause: the region's placement.
const STALE_GEN_BUDGET: Duration = Duration::from_millis(5);

/// Chunk size for the resize copy and `bulk_load` image upload.
const COPY_CHUNK: u64 = 4 << 20;

/// Bytes of consecutive slots one READ of the probe walk lands past the
/// home slot: `(PROBE_WINDOW_BYTES / slot_bytes).max(1)` slots, 8 of 128 B.
/// The home slot is read alone because it ends most walks, and a wider
/// first READ would tax all of them; past it a chain that continues costs
/// one round trip per window instead of one per slot, at ~0.13 virtual µs
/// more wire time per READ than a lone 128 B slot (E1's READ sizes).
const PROBE_WINDOW_BYTES: u64 = 1024;

/// Monotonic source of lock-word nonces. Process-wide: tables opened by any
/// client draw from the same counter, so two in-flight lock attempts never
/// share a lock word and an unlock can only release its own attempt's lock.
static NEXT_LOCK_NONCE: AtomicU64 = AtomicU64::new(0);

/// The odd version word a locker CASes into a slot: `version + 1` tagged
/// with a unique nonce in the high 32 bits. Stable versions are even and
/// stay below 2^32 (a slot would need ~2 billion mutations to overflow), so
/// the tag never collides with a stable version, and the parity check and
/// [`pre_lock_version`] — all a reader does with a locked word — are
/// unaffected. The nonce makes the
/// word unique to one lock attempt, so the unlock CAS from it succeeds only
/// if that attempt's lock is still in place.
fn lock_word(version: u64, nonce: u64) -> u64 {
    (version + 1) | (nonce << 32)
}

/// A fresh nonzero 31-bit nonce.
fn next_nonce() -> u64 {
    (NEXT_LOCK_NONCE.fetch_add(1, Ordering::Relaxed) % 0x7FFF_FFFF) + 1
}

/// The stable version a slot held before `lock` was CASed in — the inverse
/// of [`lock_word`] (stable versions stay below 2^32, the tag lives above).
fn pre_lock_version(lock: u64) -> u64 {
    (lock & 0xFFFF_FFFF) - 1
}

/// Minimum time a waiter must have watched one unchanged tagged lock word
/// before it may break the lock as orphaned. Healthy holds last
/// microseconds and even a holder stalled behind a degraded-window timeout
/// publishes or unlocks within tens of milliseconds. A word that sits
/// unchanged this long has no owner left to release it.
const ORPHAN_BREAK_AGE: Duration = Duration::from_millis(15);

/// One write's view of the locked slots it has waited on, and the deadline
/// its waits share. Feeding every observed `(slot, word)` pair into the watch
/// lets the op tell a live writer (words change between waits) from an
/// orphaned lock (the same tagged word across the whole budget) and break
/// only the latter — see the module docs, "Locks and failures".
struct LockWatch {
    /// When this op stops waiting on locks ([`LOCK_WAIT_BUDGET`] from its
    /// start).
    deadline: SimTime,
    /// First locked `(slot, word)` observed, and when.
    first: Option<(u64, u64, SimTime)>,
    /// False once a different slot or word has been seen (live writers).
    stable: bool,
    /// Set after one break attempt so an op never breaks twice.
    spent: bool,
}

impl LockWatch {
    fn new(now: SimTime) -> LockWatch {
        LockWatch {
            deadline: now + LOCK_WAIT_BUDGET,
            first: None,
            stable: true,
            spent: false,
        }
    }

    /// Records one locked-word sighting.
    fn observe(&mut self, slot: u64, word: u64, now: SimTime) {
        match self.first {
            None => self.first = Some((slot, word, now)),
            Some((s, w, _)) if (s, w) != (slot, word) => self.stable = false,
            _ => {}
        }
    }

    /// The `(slot, word)` to break, if this op has watched a single
    /// unchanged tagged word for at least [`ORPHAN_BREAK_AGE`].
    fn breakable(&self, now: SimTime) -> Option<(u64, u64)> {
        match self.first {
            Some((slot, word, since))
                if self.stable
                    && !self.spent
                    && now.saturating_since(since) >= ORPHAN_BREAK_AGE =>
            {
                Some((slot, word))
            }
            _ => None,
        }
    }
}

/// Name of the data region backing generation `generation`.
fn gen_name(name: &str, generation: u64) -> String {
    format!("{name}@g{generation}")
}

/// Maps `name`, tolerating degraded backing regions if `degraded`.
async fn map_gen(client: &RStoreClient, name: &str, degraded: bool) -> Result<Region> {
    if degraded {
        client.map_degraded(name).await
    } else {
        client.map(name).await
    }
}

/// Marker for a slot image whose header lengths do not fit the slot — a
/// corrupt image that must surface as a structured error, never a panic.
struct CorruptSlot;

/// The slot codec: the decoded `[version | klen | vlen | pad]` header of a
/// slot image, and the only code that knows where the header fields, the key
/// and the value sit. Remote probes, `multi_get`, the publish and tombstone
/// images and the host images built by `grow` and `bulk_load` all go
/// through it, so they share one validation rule.
#[derive(Clone, Copy, Debug)]
struct SlotHdr {
    /// The committed stable version: the word itself, or under a lock the
    /// version the lock was taken over.
    version: u64,
    /// The version word as it was read: odd while a writer holds the slot.
    word: u64,
    klen: usize,
    vlen: usize,
}

impl SlotHdr {
    /// Decodes the header of the whole-slot image `img` to the slot's
    /// committed view: a locked slot decodes to its pre-lock version and
    /// the intact body under the lock word. The one validation rule: a live
    /// entry's `klen + vlen` must fit the slot payload, checked here —
    /// before anyone slices the body. Never-used and tombstoned slots have
    /// no body to slice and decode as they are.
    fn decode(img: &[u8]) -> std::result::Result<SlotHdr, CorruptSlot> {
        let word = u64::from_le_bytes(img[..8].try_into().expect("8"));
        let version = if word % 2 == 1 {
            pre_lock_version(word)
        } else {
            word
        };
        let hdr = SlotHdr {
            version,
            word,
            klen: u16::from_le_bytes(img[8..10].try_into().expect("2")) as usize,
            vlen: u16::from_le_bytes(img[10..12].try_into().expect("2")) as usize,
        };
        if hdr.live() && hdr.klen + hdr.vlen > img.len() - HDR_BYTES {
            return Err(CorruptSlot);
        }
        Ok(hdr)
    }

    fn encode(&self) -> [u8; HDR_BYTES] {
        let mut out = [0u8; HDR_BYTES];
        out[..8].copy_from_slice(&self.version.to_le_bytes());
        out[8..10].copy_from_slice(&(self.klen as u16).to_le_bytes());
        out[10..12].copy_from_slice(&(self.vlen as u16).to_le_bytes());
        out
    }

    /// Encodes the live entry `key → value` at the front of `out` and zeroes
    /// whatever follows it (the tail a longer earlier entry left behind).
    /// An empty key and value encode a tombstone: header only, `klen == 0`.
    fn write_entry(out: &mut [u8], version: u64, key: &[u8], value: &[u8]) {
        let (klen, vlen) = (key.len(), value.len());
        let hdr = SlotHdr {
            version,
            word: version,
            klen,
            vlen,
        };
        let (head, body) = out.split_at_mut(HDR_BYTES);
        head.copy_from_slice(&hdr.encode());
        body[..klen].copy_from_slice(key);
        body[klen..klen + vlen].copy_from_slice(value);
        body[klen + vlen..].fill(0);
    }

    /// Odd version word: a writer holds the slot.
    fn locked(&self) -> bool {
        self.word % 2 == 1
    }

    /// Used and not a tombstone: the committed body holds an entry.
    fn live(&self) -> bool {
        self.version != 0 && self.klen != 0
    }

    /// The key of the live entry in `img` (which this header was decoded
    /// from, so the lengths are known to fit).
    fn key<'a>(&self, img: &'a [u8]) -> &'a [u8] {
        &img[HDR_BYTES..HDR_BYTES + self.klen]
    }

    /// The value of the live entry in `img`.
    fn value<'a>(&self, img: &'a [u8]) -> &'a [u8] {
        &img[HDR_BYTES + self.klen..HDR_BYTES + self.klen + self.vlen]
    }
}

/// Where a probe walk ended for one key.
enum Found {
    /// The key's live entry: its slot and header. The image is still in the
    /// table's probe scratch.
    Hit(u64, SlotHdr),
    /// The key is absent; the first reusable slot of its chain (a tombstone
    /// or the never-used slot that ended the walk) and that slot's stable
    /// version.
    Hole(u64, u64),
    /// The key is absent and its probe window holds no reusable slot.
    Absent,
}

/// What a locked mutation publishes.
#[derive(Clone, Copy)]
enum Image<'a> {
    /// `key → value`, over the key's own entry or a hole.
    Entry(&'a [u8], &'a [u8]),
    /// A tombstone, over the key's own entry only.
    Tombstone(&'a [u8]),
}

impl<'a> Image<'a> {
    fn key(self) -> &'a [u8] {
        match self {
            Image::Entry(key, _) | Image::Tombstone(key) => key,
        }
    }
}

/// The parsed meta block.
#[derive(Clone, Copy, Debug)]
struct TableMeta {
    epoch: u64,
    generation: u64,
    buckets: u64,
    slot_bytes: u64,
}

impl TableMeta {
    fn encode(&self) -> [u8; META_BYTES as usize] {
        let mut out = [0u8; META_BYTES as usize];
        out[0..8].copy_from_slice(&KV_MAGIC.to_le_bytes());
        out[8..16].copy_from_slice(&self.epoch.to_le_bytes());
        out[16..24].copy_from_slice(&self.generation.to_le_bytes());
        out[24..32].copy_from_slice(&self.buckets.to_le_bytes());
        out[32..40].copy_from_slice(&self.slot_bytes.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Result<TableMeta> {
        if bytes.len() < META_BYTES as usize {
            return Err(RStoreError::Protocol("short kv meta block".into()));
        }
        let word = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8"));
        if word(0) != KV_MAGIC {
            return Err(RStoreError::Protocol(
                "region is not a kv table (bad magic)".into(),
            ));
        }
        Ok(TableMeta {
            epoch: word(1),
            generation: word(2),
            buckets: word(3),
            slot_bytes: word(4),
        })
    }
}

/// The client-side view of one table generation.
struct TableGen {
    generation: u64,
    buckets: u64,
    /// `buckets - 1`, hoisted: probe positions are `(start + i) & mask`.
    mask: u64,
    data: Region,
}

impl TableGen {
    /// The view of the generation `m` describes, backed by `data` — which
    /// must be exactly the table the meta block says it is.
    fn new(m: &TableMeta, data: Region) -> Result<TableGen> {
        if !m.buckets.is_power_of_two() || data.size() != m.buckets * m.slot_bytes {
            return Err(RStoreError::Protocol(
                "kv meta block disagrees with the data region size".into(),
            ));
        }
        Ok(TableGen {
            generation: m.generation,
            buckets: m.buckets,
            mask: m.buckets - 1,
            data,
        })
    }
}

/// A cached `key → slot` hint. `version` is the stable slot version the key
/// was last seen at; generation-scoped so hints die wholesale on resize.
#[derive(Clone, Copy, Debug)]
struct SlotHint {
    generation: u64,
    slot: u64,
    version: u64,
}

/// FIFO-evicting hint cache. Deterministic: eviction order is insertion
/// order, never `HashMap` iteration order. Re-inserting a present key
/// refreshes its hint in place without re-queueing; removed keys leave a
/// stale queue entry behind that eviction skips (and a periodic compaction
/// sweeps, so the queue stays O(capacity)).
struct HintCache {
    cap: usize,
    /// Each key's bytes live once, shared with its queue entries.
    map: HashMap<Rc<[u8]>, CachedHint>,
    fifo: VecDeque<Rc<[u8]>>,
    /// Compactions so far; see [`CachedHint::sweep`].
    sweeps: u64,
}

struct CachedHint {
    hint: SlotHint,
    /// The compaction that last kept a queue entry for this key.
    sweep: u64,
}

impl HintCache {
    fn new(cap: usize) -> HintCache {
        HintCache {
            cap,
            map: HashMap::new(),
            fifo: VecDeque::new(),
            sweeps: 0,
        }
    }

    fn lookup(&self, key: &[u8]) -> Option<SlotHint> {
        self.map.get(key).map(|e| e.hint)
    }

    /// Inserts or refreshes a hint; returns how many entries were evicted.
    fn insert(&mut self, key: &[u8], hint: SlotHint) -> u64 {
        if self.cap == 0 {
            return 0;
        }
        if let Some(existing) = self.map.get_mut(key) {
            existing.hint = hint;
            return 0;
        }
        let mut evicted = 0;
        while self.map.len() >= self.cap {
            let Some(old) = self.fifo.pop_front() else {
                break;
            };
            if self.map.remove(&old).is_some() {
                evicted += 1;
            }
        }
        let key: Rc<[u8]> = key.into();
        let sweep = self.sweeps;
        self.map.insert(key.clone(), CachedHint { hint, sweep });
        self.fifo.push_back(key);
        if self.fifo.len() >= self.cap * 2 + 8 {
            self.compact();
        }
        evicted
    }

    fn remove(&mut self, key: &[u8]) -> bool {
        self.map.remove(key).is_some()
    }

    fn clear(&mut self) {
        self.map.clear();
        self.fifo.clear();
    }

    /// Drops queue entries whose key is gone or duplicated (keeping each
    /// live key's earliest position, preserving FIFO age).
    fn compact(&mut self) {
        self.sweeps += 1;
        let (map, sweep) = (&mut self.map, self.sweeps);
        self.fifo.retain(|k| match map.get_mut(k) {
            Some(e) if e.sweep != sweep => {
                e.sweep = sweep;
                true
            }
            _ => false,
        });
    }
}

/// Configuration for [`KvTable::create`].
#[derive(Clone, Copy, Debug)]
pub struct KvConfig {
    /// Number of buckets (rounded up to a power of two).
    pub buckets: u64,
    /// Bytes per slot, including the 16-byte header. Keys + values must fit.
    pub slot_bytes: u64,
    /// Maximum linear-probe distance before declaring the table full.
    pub max_probe: u64,
    /// Striping/replication for the backing data region. `stripe_size` must
    /// be a multiple of `slot_bytes`, and `checksums` must be off (slot
    /// integrity comes from the seqlock plus structural validation; stripe
    /// trailers cannot coexist with one-sided CAS locking).
    pub opts: AllocOptions,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            buckets: 4096,
            slot_bytes: 256,
            max_probe: 64,
            opts: AllocOptions::default(),
        }
    }
}

/// A distributed hash table stored in RStore regions, with a client-cached
/// index.
///
/// Create once with [`KvTable::create`]; open from any client with
/// [`KvTable::open`]. All clients see the same table; concurrent writers
/// are safe (per-slot CAS locks), and [`KvTable::grow`] rehashes online —
/// other handles notice the new generation and remap without reopening.
/// The handle owns no connections of its own: all its IO, CAS included,
/// uses the owning client's data QPs and their re-dial.
pub struct KvTable {
    meta: Region,
    dev: RdmaDevice,
    slot_bytes: u64,
    max_probe: u64,
    degraded: bool,
    /// Current generation mapping; swapped atomically on remap/resize.
    state: RefCell<TableGen>,
    /// Mutations are admitted while `now < write_lease`; past it the next
    /// mutation revalidates the epoch with one meta read.
    write_lease: Cell<SimTime>,
    hints: RefCell<HintCache>,
    stats: KvStats,
    /// Landing buffer for the prior value of a CAS.
    scratch: DmaBuf,
    /// Table-lifetime landing buffer for the walk's READs, one
    /// `PROBE_WINDOW_BYTES` window (at least one slot) long, so the hot path
    /// allocates nothing per READ. Like `scratch`, this assumes the table
    /// handle is not shared by concurrent tasks (each client opens its own).
    probe_buf: DmaBuf,
    /// Host copy of the slot image last decoded (from `probe_buf` or a
    /// `multi_get` staging slice); a hit's value is sliced out of it.
    probe_scratch: RefCell<Vec<u8>>,
    /// Reused image assembly buffer for publishes, taken/restored around
    /// the WRITE so a steady-state put allocates no image Vec.
    img_scratch: RefCell<Vec<u8>>,
    /// Reused `(offset, dst)` list for `multi_get`'s batched first probes.
    ios_scratch: RefCell<Vec<(u64, DmaBuf)>>,
}

impl std::fmt::Debug for KvTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.borrow();
        f.debug_struct("KvTable")
            .field("name", &self.meta.name())
            .field("generation", &st.generation)
            .field("buckets", &st.buckets)
            .field("slot_bytes", &self.slot_bytes)
            .finish()
    }
}

impl Drop for KvTable {
    fn drop(&mut self) {
        // Degraded remaps under chaos open fresh handles every retry; without
        // this the per-handle scratch buffers leak arena bytes for the life
        // of the client device. Best-effort: the device may already be gone.
        let _ = self.dev.free(self.scratch);
        let _ = self.dev.free(self.probe_buf);
    }
}

/// The table's slot hash: FNV-1a folded per byte, then a murmur-style
/// finalizer. Deterministic across clients — every handle must probe the
/// same bucket chain. Public so the E16 µ-bench can measure its raw
/// throughput against the CRC engines.
pub fn hash_key(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
}

/// Word-at-a-time slice equality: folds 8-byte lanes as `u64` XORs and the
/// tail byte-wise, so a slot-resident key compares in `len / 8` lane ops
/// plus a tail instead of a byte loop. Bit-exact with `a == b` for all
/// inputs (a property test below checks it against the byte compare on
/// random lengths and alignments). Public for the E16 µ-bench.
#[inline]
pub fn keys_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut lanes = 0u64;
    let mut ac = a.chunks_exact(8);
    let mut bc = b.chunks_exact(8);
    for (x, y) in ac.by_ref().zip(bc.by_ref()) {
        let xw = u64::from_le_bytes(x.try_into().expect("8-byte lane"));
        let yw = u64::from_le_bytes(y.try_into().expect("8-byte lane"));
        lanes |= xw ^ yw;
    }
    let mut tail = 0u8;
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        tail |= x ^ y;
    }
    lanes == 0 && tail == 0
}

/// True for the completion statuses a read/CAS/write surfaces when its
/// target region was freed underneath it (the old generation after a
/// resize): the server dropped the MR, so the rkey no longer resolves.
fn stale_generation_status(e: &RStoreError) -> bool {
    matches!(e, RStoreError::Io(CqStatus::RemoteAccess))
}

impl KvTable {
    /// Creates a new table named `name` and opens it.
    ///
    /// Allocates the meta region under `name` and the first data region
    /// under `{name}@g1`.
    ///
    /// # Errors
    ///
    /// Allocation failures, or [`RStoreError::Protocol`] for inconsistent
    /// configuration.
    pub async fn create(client: &RStoreClient, name: &str, cfg: KvConfig) -> Result<KvTable> {
        if cfg.slot_bytes <= HDR_BYTES as u64 || !cfg.slot_bytes.is_multiple_of(8) {
            return Err(RStoreError::Protocol(
                "slot_bytes must be a multiple of 8 and exceed the 16-byte header".into(),
            ));
        }
        if !cfg.opts.stripe_size.is_multiple_of(cfg.slot_bytes) {
            return Err(RStoreError::Protocol(
                "stripe_size must be a multiple of slot_bytes (a slot image must be one WR)".into(),
            ));
        }
        if cfg.opts.checksums {
            return Err(RStoreError::Protocol(
                "kv tables do not support checksummed regions (CAS locking bypasses trailers)"
                    .into(),
            ));
        }
        let buckets = cfg.buckets.next_power_of_two();
        let meta_opts = AllocOptions {
            stripe_size: 4096,
            replicas: cfg.opts.replicas,
            policy: cfg.opts.policy,
            synthetic: false,
            checksums: false,
        };
        let meta = client.alloc(name, META_REGION_BYTES, meta_opts).await?;
        let data = match client
            .alloc(&gen_name(name, 1), buckets * cfg.slot_bytes, cfg.opts)
            .await
        {
            Ok(r) => r,
            Err(e) => {
                let _ = client.free(name).await;
                return Err(e);
            }
        };
        let m = TableMeta {
            epoch: 2,
            generation: 1,
            buckets,
            slot_bytes: cfg.slot_bytes,
        };
        let none = OpLedger::disabled();
        if let Err(e) = meta.write_l(0, &m.encode(), &none).await {
            let _ = client.free(&gen_name(name, 1)).await;
            let _ = client.free(name).await;
            return Err(e);
        }
        Self::from_parts(client, meta, data, m, cfg.max_probe, false)
    }

    /// Opens an existing table by name. `slot_bytes` and `max_probe` must
    /// match the creator's configuration.
    ///
    /// # Errors
    ///
    /// [`RStoreError::NotFound`] if the name is unknown;
    /// [`RStoreError::Protocol`] if the region is not a kv table or
    /// `slot_bytes` mismatches.
    pub async fn open(
        client: &RStoreClient,
        name: &str,
        slot_bytes: u64,
        max_probe: u64,
    ) -> Result<KvTable> {
        Self::open_at(client, name, slot_bytes, max_probe, false).await
    }

    /// Opens an existing table even while its backing regions are degraded,
    /// like [`RStoreClient::map_degraded`]: gets served by surviving
    /// replicas may still succeed, and after a repair this picks up the
    /// replacement replicas. Intended for failover paths that must keep
    /// traffic flowing across a fault/repair episode.
    ///
    /// # Errors
    ///
    /// [`RStoreError::NotFound`] if the name is unknown.
    pub async fn open_degraded(
        client: &RStoreClient,
        name: &str,
        slot_bytes: u64,
        max_probe: u64,
    ) -> Result<KvTable> {
        Self::open_at(client, name, slot_bytes, max_probe, true).await
    }

    async fn open_at(
        client: &RStoreClient,
        name: &str,
        slot_bytes: u64,
        max_probe: u64,
        degraded: bool,
    ) -> Result<KvTable> {
        let meta = map_gen(client, name, degraded).await?;
        let none = OpLedger::disabled();
        // A resize may be publishing a new generation right now: the poll
        // waits out an odd epoch and retries a map that loses the race with
        // the flip.
        let opened = Self::poll_meta(&meta, slot_bytes, &none, |m| {
            let meta = meta.clone();
            async move {
                let data = map_gen(client, &gen_name(name, m.generation), degraded).await?;
                Self::from_parts(client, meta, data, m, max_probe, degraded).map(Some)
            }
        });
        opened.await?.ok_or(RStoreError::Io(CqStatus::Timeout))
    }

    fn from_parts(
        client: &RStoreClient,
        meta: Region,
        data: Region,
        m: TableMeta,
        max_probe: u64,
        degraded: bool,
    ) -> Result<KvTable> {
        let dev = client.device().clone();
        let state = TableGen::new(&m, data)?;
        if !state.data.desc().stripe_size.is_multiple_of(m.slot_bytes) {
            return Err(RStoreError::Protocol(
                "stripe_size must be a multiple of slot_bytes (a slot image must be one WR)".into(),
            ));
        }
        // Both buffers are read through the word-granularity helpers (slot
        // version words, CAS results), which reject misaligned addresses —
        // and the client arena fragments onto odd offsets under load, so
        // plain `alloc` is not good enough here.
        let scratch = dev.alloc_aligned(m.slot_bytes.max(16), 8)?;
        let window = PROBE_WINDOW_BYTES.max(m.slot_bytes);
        let probe_buf = dev.alloc_aligned(window, 8).inspect_err(|_| {
            let _ = dev.free(scratch);
        })?;
        let hint_cap = client.shared.cfg.kv_hint_capacity;
        // The meta block was just read (or written) and its epoch was even:
        // that read doubles as the first write lease.
        let lease = dev.sim().now() + WRITE_LEASE;
        Ok(KvTable {
            meta,
            stats: KvStats::resolve(&dev.metrics()),
            dev,
            slot_bytes: m.slot_bytes,
            max_probe,
            degraded,
            state: RefCell::new(state),
            write_lease: Cell::new(lease),
            hints: RefCell::new(HintCache::new(hint_cap)),
            scratch,
            probe_buf,
            probe_scratch: RefCell::new(vec![0u8; m.slot_bytes as usize]),
            img_scratch: RefCell::new(Vec::with_capacity(m.slot_bytes as usize)),
            ios_scratch: RefCell::new(Vec::new()),
        })
    }

    /// Capacity in buckets (of the current generation).
    pub fn buckets(&self) -> u64 {
        self.state.borrow().buckets
    }

    /// The table generation this handle is currently mapped to.
    pub fn generation(&self) -> u64 {
        self.state.borrow().generation
    }

    /// Largest value length a slot can hold for a key of `klen` bytes.
    pub fn value_capacity(&self, klen: usize) -> u64 {
        (self.slot_bytes - HDR_BYTES as u64).saturating_sub(klen as u64)
    }

    /// `(generation, mask, data)` under the current mapping. The region
    /// handle is cloned out so ops never hold the state borrow across an
    /// await.
    fn snapshot(&self) -> (u64, u64, Region) {
        let st = self.state.borrow();
        (st.generation, st.mask, st.data.clone())
    }

    fn hint_for(&self, generation: u64, key: &[u8]) -> Option<SlotHint> {
        self.hints
            .borrow()
            .lookup(key)
            .filter(|h| h.generation == generation)
    }

    fn install_hint(&self, key: &[u8], hint: SlotHint) {
        let evicted = self.hints.borrow_mut().insert(key, hint);
        if evicted > 0 {
            self.stats.evict.add(evicted);
        }
    }

    fn drop_hint(&self, key: &[u8], counter: &Counter) {
        if self.hints.borrow_mut().remove(key) {
            counter.incr();
        }
    }

    /// Structured error for a slot whose header lengths are impossible.
    fn corrupt_err(&self, data: &Region, slot: u64) -> RStoreError {
        let offset = slot * self.slot_bytes;
        let desc = data.desc();
        let node = Layout::new(&desc)
            .pieces(offset, 8)
            .ok()
            .and_then(|p| p.first().map(|p| desc.groups[p.group].replicas[0].node))
            .unwrap_or(0);
        self.stats.slot_corrupt.incr();
        RStoreError::CorruptionDetected {
            node,
            region: desc.name.clone(),
            stripe: offset / desc.stripe_size,
        }
    }

    /// Runs `once`; on the stale-generation signal (`RemoteAccess`) revalidates
    /// the generation and runs it once more against the refreshed mapping.
    /// A generation that has not moved leaves the data region's placement:
    /// its extents were moved within the generation (repair, drain,
    /// rebalance), or a server is fenced without a lease — the region layer
    /// reruns `once` as it revalidates that. Slot hints stay: the geometry is
    /// unchanged, only their transport moved.
    async fn retry_stale<T, Fut>(&self, ledger: &OpLedger, once: impl Fn() -> Fut) -> Result<T>
    where
        Fut: Future<Output = Result<T>>,
    {
        match once().await {
            Err(e) if stale_generation_status(&e) => {
                if !self.revalidate_generation(ledger).await? {
                    let data = self.state.borrow().data.clone();
                    return data.with_revalidate(ledger, once).await;
                }
                once().await
            }
            r => r,
        }
    }

    // --- the probe walk ----------------------------------------------------------

    /// Copies the slot image at local address `addr` (where slot `slot` of
    /// `data` landed) into the probe scratch and decodes it against `key`:
    /// the header, and whether the slot holds `key`'s live entry.
    fn decode_landed(
        &self,
        data: &Region,
        slot: u64,
        addr: u64,
        key: &[u8],
    ) -> Result<(SlotHdr, bool)> {
        let mut img = self.probe_scratch.borrow_mut();
        self.dev.read_mem_into(addr, &mut img)?;
        let hdr = SlotHdr::decode(&img).map_err(|CorruptSlot| self.corrupt_err(data, slot))?;
        Ok((hdr, hdr.live() && keys_eq(hdr.key(&img), key)))
    }

    /// READs `n` consecutive slots from `slot` into the front of the
    /// table-lifetime probe buffer (no staging alloc/free per READ). The
    /// device snapshots a READ's whole range at one instant, so every slot
    /// of a window is as atomic against the single-WRITE publish as a lone
    /// slot; a window that straddles a stripe is two pieces in one round.
    async fn read_window(&self, data: &Region, slot: u64, n: u64, ledger: &OpLedger) -> Result<()> {
        let sb = self.slot_bytes;
        data.read_into_l(slot * sb, self.probe_buf.slice(0, n * sb), ledger)
            .await
    }

    /// The value of the entry last decoded as a hit.
    fn landed_value(&self, hdr: &SlotHdr) -> Vec<u8> {
        hdr.value(&self.probe_scratch.borrow()).to_vec()
    }

    /// The probe walk: linear probing from `key`'s home slot until the key's
    /// live entry, a never-used slot (which ends every chain) or `max_probe`
    /// slots. The home slot is one READ of its own — it ends most walks;
    /// every READ after it is a window of [`PROBE_WINDOW_BYTES`] of slots,
    /// clipped at `max_probe` and at the table end so that no READ wraps,
    /// whose slots the walk decodes in order.
    ///
    /// Every slot decodes to its committed view, so a reader (`writer` is
    /// `None`) reads through locks. A writer's walk waits a locked slot out
    /// (bounded by `writer`'s watch, which also breaks a lock it proves
    /// orphaned) and restarts from the home slot, reading it alone again,
    /// because the hole it may have chosen can be stale once the lock
    /// holder is done (module docs, "Locks and failures").
    async fn walk(
        &self,
        data: &Region,
        mask: u64,
        key: &[u8],
        mut writer: Option<&mut LockWatch>,
        ledger: &OpLedger,
    ) -> Result<Found> {
        let (start, sb) = (hash_key(key) & mask, self.slot_bytes);
        let (limit, window) = (self.max_probe.min(mask + 1), self.probe_buf.len / sb);
        let mut hole = None;
        // The probe positions whose slots sit in the probe buffer, in order.
        let (mut probe, mut landed) = (0, 0..0);
        while probe < limit {
            let slot = (start + probe) & mask;
            if !landed.contains(&probe) {
                let n = if probe == 0 { 1 } else { window };
                let n = n.min(limit - probe).min(mask + 1 - slot);
                self.read_window(data, slot, n, ledger).await?;
                landed = probe..probe + n;
            }
            let at = self.probe_buf.addr + (probe - landed.start) * sb;
            let (hdr, matched) = self.decode_landed(data, slot, at, key)?;
            if let (true, Some(watch)) = (hdr.locked(), writer.as_deref_mut()) {
                ledger.retry();
                self.lock_wait_on(data, watch, slot, hdr.word, ledger)
                    .await?;
                (probe, hole, landed) = (0, None, 0..0);
                continue;
            }
            if matched {
                return Ok(Found::Hit(slot, hdr));
            }
            if !hdr.live() {
                // Never-used or tombstone: the first one is where an insert
                // goes (the key cannot show up later in the chain behind a
                // never-used slot: inserts always take the first hole).
                hole.get_or_insert((slot, hdr.version));
                if hdr.version == 0 {
                    break;
                }
            }
            probe += 1;
        }
        Ok(hole.map_or(Found::Absent, |(slot, version)| Found::Hole(slot, version)))
    }

    /// One bounded lock-wait backoff tick: errors once the op's virtual-time
    /// `deadline` has passed (the lock holder crashed or is stalled behind a
    /// degraded window — every further wait round costs a remote re-read),
    /// otherwise sleeps [`LOCK_BACKOFF`] before the caller retries.
    async fn lock_wait(&self, deadline: SimTime) -> Result<()> {
        if self.dev.sim().now() >= deadline {
            return Err(RStoreError::Io(CqStatus::Timeout));
        }
        self.dev.sim().sleep(LOCK_BACKOFF).await;
        Ok(())
    }

    /// [`lock_wait`](Self::lock_wait) for a writer's waits where the
    /// blocking word is known: feeds the sighting into `watch`, and at the
    /// deadline — before surfacing the timeout — breaks the lock with
    /// [`unlock`](Self::unlock) if the watch proves it orphaned
    /// (`kv.lock.break` counts these breaks only). A successful break
    /// returns `Ok` so the caller re-probes or re-CASes the now-stable slot
    /// (its next wait past the deadline still errors).
    async fn lock_wait_on(
        &self,
        data: &Region,
        watch: &mut LockWatch,
        slot: u64,
        word: u64,
        ledger: &OpLedger,
    ) -> Result<()> {
        let now = self.dev.sim().now();
        watch.observe(slot, word, now);
        if now >= watch.deadline {
            if let Some((slot, lock)) = watch.breakable(now) {
                watch.spent = true;
                let span = ledger.begin(Phase::LockBreak, now);
                let healed = self.unlock(data, slot, lock, ledger).await;
                ledger.end(span, self.dev.sim().now());
                if healed {
                    self.stats.lock_break.incr();
                    return Ok(());
                }
            }
            return Err(RStoreError::Io(CqStatus::Timeout));
        }
        let span = ledger.begin(Phase::LockWait, now);
        self.dev.sim().sleep(LOCK_BACKOFF).await;
        ledger.end(span, self.dev.sim().now());
        Ok(())
    }

    // --- reads ---------------------------------------------------------------

    /// Looks up `key`, returning its value if present.
    ///
    /// Purely one-sided: a warm hint is **one RDMA READ**; a miss walks the
    /// chain — one READ for the home slot, then one per
    /// [`PROBE_WINDOW_BYTES`] window. A slot a writer holds is read through:
    /// the value is the one under its lock.
    ///
    /// # Errors
    ///
    /// IO failures; [`RStoreError::Protocol`] if the key exceeds the slot;
    /// [`RStoreError::CorruptionDetected`] for structurally invalid slots.
    pub async fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let ledger = self.meta.op_ledger(OpKind::Get);
        let result = self.get_l(key, &ledger).await;
        self.meta.finish_ledger_res(&ledger, &result);
        result
    }

    /// [`get`](Self::get) charging an existing ledger (used by `multi_get`
    /// fallbacks so chained probes stay attributed to the batch op).
    async fn get_l(&self, key: &[u8], ledger: &OpLedger) -> Result<Option<Vec<u8>>> {
        self.check_key(key)?;
        self.retry_stale(ledger, || self.get_once(key, ledger))
            .await
    }

    async fn get_once(&self, key: &[u8], ledger: &OpLedger) -> Result<Option<Vec<u8>>> {
        let (generation, mask, data) = self.snapshot();

        // Hinted fast path: read the remembered slot directly. The key
        // stored in the slot validates the hint — no version check needed
        // for reads.
        if let Some(h) = self.hint_for(generation, key) {
            self.read_window(&data, h.slot, 1, ledger).await?;
            let (hdr, matched) = self.decode_landed(&data, h.slot, self.probe_buf.addr, key)?;
            if matched {
                self.stats.hit.incr();
                let version = hdr.version;
                self.install_hint(key, SlotHint { version, ..h });
                return Ok(Some(self.landed_value(&hdr)));
            }
            // The slot's committed view holds another key or none: the key
            // moved on.
            self.drop_hint(key, &self.stats.stale);
        } else {
            self.stats.miss.incr();
        }

        match self.walk(&data, mask, key, None, ledger).await? {
            Found::Hit(slot, hdr) => {
                let hint = SlotHint {
                    generation,
                    slot,
                    version: hdr.version,
                };
                self.install_hint(key, hint);
                Ok(Some(self.landed_value(&hdr)))
            }
            Found::Hole(..) | Found::Absent => Ok(None),
        }
    }

    /// Looks up many keys, batching the first probe of every key into one
    /// posting round ([`Region::read_into_many`]) — one doorbell per memory
    /// server instead of one per key. Keys whose first slot resolves the lookup (the
    /// common case at sane load factors) are answered from the batch; a key
    /// whose first slot is a tombstone or a colliding entry falls back to
    /// [`get`](Self::get) for the full probe chain.
    ///
    /// Returns one entry per key, in input order.
    ///
    /// # Errors
    ///
    /// As for [`get`](Self::get); every key is validated before anything
    /// posts.
    pub async fn multi_get(&self, keys: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>> {
        for key in keys {
            self.check_key(key)?;
        }
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let ledger = self.meta.op_ledger(OpKind::MultiGet);
        ledger.set_units(keys.len() as u64);
        let result = self
            .retry_stale(&ledger, || self.multi_get_once(keys, &ledger))
            .await;
        self.meta.finish_ledger_res(&ledger, &result);
        result
    }

    async fn multi_get_once(
        &self,
        keys: &[&[u8]],
        ledger: &OpLedger,
    ) -> Result<Vec<Option<Vec<u8>>>> {
        let (generation, mask, data) = self.snapshot();
        let (data, sb) = (&data, self.slot_bytes);
        // Stage through the data region's buffer pool: a steady-state batch
        // of the same size reuses one arena buffer instead of an alloc/free
        // pair per call.
        data.with_staging(sb * keys.len() as u64, |staging| async move {
            let mut ios = self.ios_scratch.take();
            ios.clear();
            ios.extend(keys.iter().enumerate().map(|(i, key)| {
                let home = hash_key(key) & mask;
                (home * sb, staging.slice(i as u64 * sb, sb))
            }));
            let landed = async {
                data.read_into_many_l(&ios, ledger).await?;
                let mut out = Vec::with_capacity(keys.len());
                for (key, &(offset, dst)) in keys.iter().zip(&ios) {
                    let slot = offset / sb;
                    let (hdr, matched) = self.decode_landed(data, slot, dst.addr, key)?;
                    out.push(if matched {
                        let hint = SlotHint {
                            generation,
                            slot,
                            version: hdr.version,
                        };
                        self.install_hint(key, hint);
                        Some(self.landed_value(&hdr))
                    } else if hdr.version == 0 {
                        None
                    } else {
                        // A tombstone or a colliding entry: the answer lives
                        // further down the probe chain. Take the retrying
                        // path, charged to the batch op.
                        self.get_l(key, ledger).await?
                    });
                }
                Ok(out)
            };
            let result = landed.await;
            *self.ios_scratch.borrow_mut() = ios;
            result
        })
        .await
    }

    // --- the locked mutation -----------------------------------------------------

    /// Inserts or overwrites `key` → `value`.
    ///
    /// A warm hint costs CAS + one full-slot WRITE (2 round trips), and one
    /// more CAS round per writer that got there first; a cold put walks
    /// first — one READ for the home slot, then one per
    /// [`PROBE_WINDOW_BYTES`] window of the chain past it.
    ///
    /// # Errors
    ///
    /// * [`RStoreError::Protocol`] if key+value exceed the slot size or
    ///   either length exceeds the u16 header fields.
    /// * [`RStoreError::InsufficientCapacity`] if the probe window is full.
    /// * IO failures (including a bounded lock wait that times out).
    pub async fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.check_entry(key, value)?;
        let ledger = self.meta.op_ledger(OpKind::Put);
        let result = self.put_l(key, value, &ledger).await;
        self.meta.finish_ledger_res(&ledger, &result);
        result
    }

    async fn put_l(&self, key: &[u8], value: &[u8], ledger: &OpLedger) -> Result<()> {
        self.ensure_write_lease(ledger).await?;
        let image = Image::Entry(key, value);
        let placed = self.retry_stale(ledger, || self.mutate_key(image, ledger));
        let Some(hint) = placed.await? else {
            return Err(RStoreError::InsufficientCapacity {
                requested: self.slot_bytes,
            });
        };
        self.install_hint(key, hint);
        Ok(())
    }

    /// Removes `key`, returning whether it was present.
    ///
    /// A warm hint costs CAS + one small WRITE (2 round trips).
    ///
    /// # Errors
    ///
    /// IO failures (including a bounded lock wait that times out).
    pub async fn delete(&self, key: &[u8]) -> Result<bool> {
        self.check_key(key)?;
        let ledger = self.meta.op_ledger(OpKind::Delete);
        let result = self.delete_l(key, &ledger).await;
        self.meta.finish_ledger_res(&ledger, &result);
        result
    }

    async fn delete_l(&self, key: &[u8], ledger: &OpLedger) -> Result<bool> {
        self.ensure_write_lease(ledger).await?;
        let image = Image::Tombstone(key);
        let tombstoned = self.retry_stale(ledger, || self.mutate_key(image, ledger));
        let found = tombstoned.await?.is_some();
        if found {
            self.drop_hint(key, &self.stats.invalidate);
        }
        Ok(found)
    }

    /// Finds the key's slot — by hint, else by a writer's walk — and runs
    /// the locked mutation on it. Returns where `image` was published — the
    /// slot and its new stable version, which for an entry is the key's
    /// fresh hint — or `None` if there is no slot to mutate: the key is
    /// absent (tombstone) or its probe window is full (entry).
    async fn mutate_key(&self, image: Image<'_>, ledger: &OpLedger) -> Result<Option<SlotHint>> {
        let (generation, mask, data) = self.snapshot();
        let key = image.key();
        let mut watch = LockWatch::new(self.dev.sim().now());

        // Hinted fast path: CAS directly on the cached stable version. A
        // slot never repeats a stable version within a generation, so CAS
        // success proves the slot still holds this key at that version — no
        // probe read needed. A CAS that lost chases, and its hint is stale
        // whether or not the chase wins.
        if let Some(h) = self.hint_for(generation, key) {
            let mutated = self.mutate(&data, h.slot, h.version, image, Some(&mut watch), ledger);
            match mutated.await {
                Ok(Some((version, chased))) => {
                    if chased {
                        self.drop_hint(key, &self.stats.stale);
                    } else {
                        self.stats.hit.incr();
                    }
                    return Ok(Some(SlotHint { version, ..h }));
                }
                // The chase found the slot holding another key or none:
                // fall back to the walk.
                Ok(None) => self.drop_hint(key, &self.stats.stale),
                Err(e) => {
                    self.drop_hint(key, &self.stats.invalidate);
                    return Err(e);
                }
            }
        } else {
            self.stats.miss.incr();
        }

        loop {
            let found = self.walk(&data, mask, key, Some(&mut watch), ledger);
            let (slot, version, hit) = match (found.await?, image) {
                (Found::Hit(slot, hdr), _) => (slot, hdr.version, true),
                (Found::Hole(slot, version), Image::Entry(..)) => (slot, version, false),
                _ => return Ok(None),
            };
            let chase = hit.then_some(&mut watch);
            let mutated = self.mutate(&data, slot, version, image, chase, ledger);
            if let Some((version, _)) = mutated.await? {
                return Ok(Some(SlotHint {
                    generation,
                    slot,
                    version,
                }));
            }
            // Lost the lock race on a hole, or the chase found the key gone:
            // the chain may have changed under the winner, so walk again.
            ledger.retry();
            self.lock_wait(watch.deadline).await?;
        }
    }

    /// The locked mutation of one slot observed at stable `version`: lock
    /// it with a tagged CAS, then publish `image` in one WRITE that also
    /// releases the lock. Returns the published stable version and whether
    /// a chase round won the lock, or `None`, with nothing changed, if the
    /// CAS lost on a hole (`chase` is `None`) or a chase found the key gone.
    ///
    /// With `chase`, the slot is known to hold the key, and a CAS that
    /// loses continues from the word it returned: an even word is locked
    /// at once, an odd one is waited out through `chase` and then
    /// `pre_lock_version(word) + 2` is locked. A chase round's CAS carries
    /// the slot's read-back, and publishes only if the image under its own
    /// lock holds the key (module docs, "Locks and failures").
    ///
    /// Any error once a lock CAS was posted — the CAS's own, whose swap
    /// may have executed, or the publish's — is surfaced after one
    /// [`unlock`](Self::unlock) of this attempt's word. The op was never
    /// acknowledged, and the slot is left holding its old image or, where
    /// the publish reached the primary, the new one (module docs, "Locks
    /// and failures").
    async fn mutate(
        &self,
        data: &Region,
        slot: u64,
        version: u64,
        image: Image<'_>,
        mut chase: Option<&mut LockWatch>,
        ledger: &OpLedger,
    ) -> Result<Option<(u64, bool)>> {
        let (sb, mut word, mut chased) = (self.slot_bytes, version, false);
        let (lock, held) = loop {
            if let (1, Some(watch)) = (word % 2, chase.as_deref_mut()) {
                self.lock_wait_on(data, watch, slot, word, ledger).await?;
                word = pre_lock_version(word) + 2;
            }
            if chased {
                self.stats.chase.incr();
            }
            let lock = lock_word(word, next_nonce());
            let read_back = chased.then(|| self.probe_buf.slice(0, sb));
            let locked = self.cas_word(data, slot * sb, word, lock, read_back, ledger);
            let prior = match locked.await {
                Ok(prior) => prior,
                Err(e) => break (lock, Err(e)),
            };
            if prior == word {
                let held = read_back.map_or(Ok(true), |buf| {
                    let landed = self.decode_landed(data, slot, buf.addr, image.key());
                    landed.map(|(_, held)| held)
                });
                break (lock, held);
            }
            if chase.is_none() {
                return Ok(None);
            }
            ledger.retry();
            (word, chased) = (prior, true);
        };
        let published = match held {
            Ok(true) => {
                let written = self.publish(data, slot, word, image, ledger).await;
                written.map(|()| Some((word + 2, chased)))
            }
            Ok(false) => Ok(None),
            Err(e) => Err(e),
        };
        if !matches!(published, Ok(Some(_))) {
            self.unlock(data, slot, lock, ledger).await;
        }
        published
    }

    /// The one way a slot lock is released without a publish: CAS the
    /// exact tagged word `lock` back to the stable version it was taken
    /// over. Sound because the body under an odd word is always the intact
    /// pre-lock image, so success restores a state the slot already had.
    /// The CAS is posted once, never re-posted, and changes nothing once
    /// the word has moved on (a publish landed, another unlock won, or the
    /// lock CAS never executed). Returns whether this CAS released the slot.
    async fn unlock(&self, data: &Region, slot: u64, lock: u64, ledger: &OpLedger) -> bool {
        let version = pre_lock_version(lock);
        let released = self.cas_word(data, slot * self.slot_bytes, lock, version, None, ledger);
        released.await.is_ok_and(|prior| prior == lock)
    }

    /// Publishes `image` over a slot this client holds locked over stable
    /// `version`, in one WRITE: `[version + 2 | header | key | value]` (or
    /// the 16-byte tombstone header) lands atomically — a slot never
    /// straddles a stripe, so this is a single WR per replica — releasing
    /// the lock in the same op. Readers either see the old locked word or
    /// the complete new image, never a torn body.
    ///
    /// The image is assembled in the table-lifetime `img_scratch` buffer
    /// (taken for the duration of the WRITE, restored after — a concurrent
    /// publish on the same handle just allocates a fresh one);
    /// [`Region::write_l`] posts it inline when the device's `inline_max`
    /// covers it.
    async fn publish(
        &self,
        data: &Region,
        slot: u64,
        version: u64,
        image: Image<'_>,
        ledger: &OpLedger,
    ) -> Result<()> {
        let (key, value) = match image {
            Image::Entry(key, value) => (key, value),
            Image::Tombstone(_) => (&[][..], &[][..]),
        };
        let mut img = self.img_scratch.take();
        img.resize(HDR_BYTES + key.len() + value.len(), 0);
        SlotHdr::write_entry(&mut img, version + 2, key, value);
        let result = data.write_l(slot * self.slot_bytes, &img, ledger).await;
        *self.img_scratch.borrow_mut() = img;
        result
    }

    /// One-sided CAS on an 8-byte word of `region` at byte `offset`, on the
    /// client's data QP to the word's server like any READ or WRITE; returns
    /// the word it found, so the swap won if that is `expect`. With
    /// `read_back`, [`Region::cas_word_l`] reads that many bytes at `offset`
    /// into it, after the swap and in the same round.
    ///
    /// Keeps its own `cas` op ledger (when `parent` records), then folds the
    /// costs into `parent` so the enclosing put/delete still accounts for the
    /// whole logical mutation.
    async fn cas_word(
        &self,
        region: &Region,
        offset: u64,
        expect: u64,
        swap: u64,
        read_back: Option<DmaBuf>,
        parent: &OpLedger,
    ) -> Result<u64> {
        let cas_ledger = if parent.enabled() {
            self.meta.op_ledger(OpKind::Cas)
        } else {
            OpLedger::disabled()
        };
        let landing = self.scratch.slice(0, 8);
        let result = region
            .cas_word_l(offset, expect, swap, landing, read_back, &cas_ledger)
            .await;
        self.meta.finish_ledger_res(&cas_ledger, &result);
        parent.absorb(&cas_ledger);
        result
    }

    fn check_key(&self, key: &[u8]) -> Result<()> {
        if key.is_empty()
            || key.len() as u64 > self.slot_bytes - HDR_BYTES as u64
            || key.len() > u16::MAX as usize
        {
            return Err(RStoreError::Protocol("bad key length".into()));
        }
        Ok(())
    }

    /// [`check_key`](Self::check_key) plus the value: the header stores
    /// lengths as u16, so anything wider is rejected before it wraps into a
    /// corrupt entry (reachable once slot_bytes > 64 KiB), and key + value
    /// must fit the slot payload.
    fn check_entry(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.check_key(key)?;
        let payload = self.slot_bytes as usize - HDR_BYTES;
        if value.len() > u16::MAX as usize || key.len() + value.len() > payload {
            return Err(RStoreError::Protocol(format!(
                "entry of {} + {} bytes exceeds a u16 length field or the slot payload of {payload}",
                key.len(),
                value.len()
            )));
        }
        Ok(())
    }

    // --- epoch / generation maintenance --------------------------------------

    /// Reads and validates the meta block behind `meta`.
    async fn read_meta(meta: &Region, slot_bytes: u64, ledger: &OpLedger) -> Result<TableMeta> {
        let m = TableMeta::decode(&meta.read_l(0, META_BYTES, ledger).await?)?;
        if m.slot_bytes != slot_bytes {
            return Err(RStoreError::Protocol(format!(
                "slot_bytes mismatch: table has {}, handle expects {slot_bytes}",
                m.slot_bytes
            )));
        }
        Ok(m)
    }

    /// The one meta poll loop: reads the meta block every [`RESIZE_POLL`]
    /// and hands each stable (even-epoch) view to `settle` until it returns
    /// `Some`, which ends the poll. `settle` returning `None` — or
    /// `NotFound`, a map that raced a generation flip — keeps polling.
    /// `Ok(None)` means [`RESIZE_WAIT_BUDGET`] ran out first.
    async fn poll_meta<T, Fut>(
        meta: &Region,
        slot_bytes: u64,
        ledger: &OpLedger,
        settle: impl Fn(TableMeta) -> Fut,
    ) -> Result<Option<T>>
    where
        Fut: Future<Output = Result<Option<T>>>,
    {
        let sim = meta.client().device().sim();
        let deadline = sim.now() + RESIZE_WAIT_BUDGET;
        loop {
            let m = Self::read_meta(meta, slot_bytes, ledger).await?;
            if m.epoch % 2 == 0 {
                match settle(m).await {
                    Ok(None) | Err(RStoreError::NotFound(_)) => {}
                    settled => return settled,
                }
            }
            if sim.now() >= deadline {
                return Ok(None);
            }
            sim.sleep(RESIZE_POLL).await;
        }
    }

    /// Admits a mutation: cheap no-op while the write lease is fresh; past
    /// it, one meta read revalidates the epoch (waiting out an in-flight
    /// resize) and renews the lease.
    async fn ensure_write_lease(&self, ledger: &OpLedger) -> Result<()> {
        let sim = self.dev.sim();
        if sim.now() < self.write_lease.get() {
            return Ok(());
        }
        let admitted = Self::poll_meta(&self.meta, self.slot_bytes, ledger, |m| async move {
            if m.generation != self.generation() {
                self.remap(&m).await?;
            } else {
                self.write_lease.set(sim.now() + WRITE_LEASE);
            }
            Ok(Some(()))
        });
        admitted.await?.ok_or(RStoreError::Io(CqStatus::Timeout))
    }

    /// Reacts to a stale-generation fault (`RemoteAccess`: the data region
    /// was freed under us). Polls the meta block; if the generation moved,
    /// remaps and returns `true` (retry the op). `false` means it is
    /// unchanged after a short budget: whatever faulted is the placement of
    /// this generation's region, not the generation.
    async fn revalidate_generation(&self, ledger: &OpLedger) -> Result<bool> {
        let sim = self.dev.sim();
        let span = ledger.begin(Phase::Reval, sim.now());
        let same_gen_deadline = sim.now() + STALE_GEN_BUDGET;
        let moved = Self::poll_meta(&self.meta, self.slot_bytes, ledger, |m| async move {
            if m.generation != self.generation() {
                self.remap(&m).await?;
                Ok(Some(true))
            } else if sim.now() >= same_gen_deadline {
                Ok(Some(false))
            } else {
                Ok(None)
            }
        })
        .await;
        ledger.end(span, sim.now());
        Ok(moved?.unwrap_or(false))
    }

    /// Maps the generation named by `m` and swaps it in.
    async fn remap(&self, m: &TableMeta) -> Result<()> {
        let name = gen_name(self.meta.name(), m.generation);
        let data = map_gen(self.meta.client(), &name, self.degraded).await?;
        self.install(TableGen::new(m, data)?);
        self.stats.refresh.incr();
        Ok(())
    }

    /// Swaps in a generation whose meta block was just seen with an even
    /// epoch: hints die (they are generation-scoped), the write lease
    /// renews.
    fn install(&self, state: TableGen) {
        *self.state.borrow_mut() = state;
        self.hints.borrow_mut().clear();
        self.write_lease.set(self.dev.sim().now() + WRITE_LEASE);
    }

    // --- resize ---------------------------------------------------------------

    /// Grows the table to `new_buckets` (rounded up to a power of two),
    /// rehashing every live entry into a fresh data region — without
    /// stopping readers. Returns the number of entries moved.
    ///
    /// The protocol: CAS the meta epoch odd (one resizer wins), wait
    /// [`RESIZE_GRACE`] so every admitted mutation finishes, copy + rehash
    /// into `{name}@g{generation + 1}`, publish the new generation and an
    /// even epoch in one atomic meta write, then free the old region.
    /// Readers keep reading the old region until the free lands and then
    /// revalidate on the resulting `RemoteAccess` fault; writers are
    /// blocked from lease expiry until the flip (bounded by the grace plus
    /// copy time).
    ///
    /// # Errors
    ///
    /// [`RStoreError::Protocol`] if a resize is already in flight, the
    /// table would shrink, or this handle lost the epoch CAS race;
    /// allocation and IO failures. On error after the epoch flip, the
    /// epoch is restored even and the old generation stays live.
    pub async fn grow(&self, new_buckets: u64) -> Result<u64> {
        let ledger = self.meta.op_ledger(OpKind::Resize);
        let result = self.grow_l(new_buckets, &ledger).await;
        self.meta.finish_ledger_res(&ledger, &result);
        result
    }

    async fn grow_l(&self, new_buckets: u64, ledger: &OpLedger) -> Result<u64> {
        let new_buckets = new_buckets.next_power_of_two();
        let m = Self::read_meta(&self.meta, self.slot_bytes, ledger).await?;
        if m.epoch % 2 == 1 {
            return Err(RStoreError::Protocol("resize already in progress".into()));
        }
        if new_buckets <= m.buckets {
            return Err(RStoreError::Protocol(format!(
                "grow must increase buckets ({} -> {new_buckets})",
                m.buckets
            )));
        }
        if m.generation != self.generation() {
            self.remap(&m).await?;
        }

        // Claim the resize: CAS the epoch odd. One resizer wins; everyone
        // else sees "in progress".
        let odd = m.epoch + 1;
        let claimed = self.cas_word(&self.meta, META_EPOCH_OFF, m.epoch, odd, None, ledger);
        if claimed.await? != m.epoch {
            return Err(RStoreError::Protocol(
                "lost the resize race to another client".into(),
            ));
        }
        let client = self.meta.client();
        let flip = async {
            // Propagate the odd epoch to every meta replica (the CAS hit the
            // primary only).
            self.meta
                .write_l(META_EPOCH_OFF, &odd.to_le_bytes(), ledger)
                .await?;
            let (new_data, moved) = self.copy_generation(&m, new_buckets, ledger).await?;
            let flipped = TableMeta {
                epoch: m.epoch + 2,
                generation: m.generation + 1,
                buckets: new_buckets,
                slot_bytes: self.slot_bytes,
            };
            let state = TableGen::new(&flipped, new_data)?;
            // Publish: generation and even epoch in one small write —
            // atomic per replica, so no client can observe a half-flip.
            if let Err(e) = self.meta.write_l(0, &flipped.encode(), ledger).await {
                let _ = client
                    .free(&gen_name(self.meta.name(), flipped.generation))
                    .await;
                return Err(e);
            }
            Ok((state, moved))
        };
        let (state, moved) = match flip.await {
            Ok(flipped) => flipped,
            Err(e) => {
                // Unwind: the old generation is untouched; restore the even
                // epoch so writers unblock.
                let _ = self
                    .meta
                    .write_l(META_EPOCH_OFF, &m.epoch.to_le_bytes(), ledger)
                    .await;
                return Err(e);
            }
        };
        // Retire the old generation. Readers mid-flight fault with
        // RemoteAccess once this lands and revalidate against the
        // already-published meta block. A failed free leaks the old
        // region but is otherwise harmless.
        if client
            .free(&gen_name(self.meta.name(), m.generation))
            .await
            .is_err()
        {
            self.stats.resize_free_failed.incr();
        }
        self.install(state);
        self.stats.resize_count.incr();
        self.stats.resize_moved.add(moved);
        Ok(moved)
    }

    /// The copy phase of a resize: grace wait, bulk read of the old
    /// generation, rehash into a fresh image, allocate + upload the new
    /// generation. Returns the mapped new region and the live-entry count.
    async fn copy_generation(
        &self,
        m: &TableMeta,
        new_buckets: u64,
        ledger: &OpLedger,
    ) -> Result<(Region, u64)> {
        // Every write admitted under a pre-flip lease finishes inside the
        // grace window (lease + lock-wait budget + healthy IO ≪ grace).
        self.dev.sim().sleep(RESIZE_GRACE).await;

        let (_, _, old) = self.snapshot();
        let old_bytes = m.buckets * self.slot_bytes;
        let mut img_old = vec![0u8; old_bytes as usize];
        let mut off = 0u64;
        while off < old_bytes {
            let n = COPY_CHUNK.min(old_bytes - off);
            let chunk = old.read_l(off, n, ledger).await?;
            img_old[off as usize..(off + n) as usize].copy_from_slice(&chunk);
            off += n;
        }

        // Rehash the committed view of every live entry into the new image.
        // A slot still locked after the grace window is an orphaned lock
        // that no writer broke, and the entry under it is the one readers
        // have been returning: it moves like any other.
        let mut img_new = vec![0u8; (new_buckets * self.slot_bytes) as usize];
        let mut moved = 0u64;
        let old_slots = img_old.chunks_exact(self.slot_bytes as usize);
        for (slot, img) in old_slots.enumerate() {
            let hdr =
                SlotHdr::decode(img).map_err(|CorruptSlot| self.corrupt_err(&old, slot as u64))?;
            if hdr.live() {
                self.place(&mut img_new, new_buckets - 1, hdr.key(img), hdr.value(img))?;
                moved += 1;
            }
        }

        // Allocate the new generation with the old region's shape. A
        // leftover region from an earlier failed resize is reclaimed first.
        let client = self.meta.client().clone();
        let desc = old.desc();
        let opts = AllocOptions {
            stripe_size: desc.stripe_size,
            replicas: desc
                .groups
                .first()
                .map(|g| g.replicas.len() as u8)
                .unwrap_or(1),
            synthetic: false,
            checksums: false,
            ..AllocOptions::default()
        };
        let new_name = gen_name(self.meta.name(), m.generation + 1);
        let new_data = match client
            .alloc(&new_name, new_buckets * self.slot_bytes, opts)
            .await
        {
            Ok(r) => r,
            Err(RStoreError::NameExists(_)) => {
                client.free(&new_name).await?;
                client
                    .alloc(&new_name, new_buckets * self.slot_bytes, opts)
                    .await?
            }
            Err(e) => return Err(e),
        };
        if let Err(e) = self.upload(&new_data, &img_new, ledger).await {
            let _ = client.free(&new_name).await;
            return Err(e);
        }
        Ok((new_data, moved))
    }

    /// Places `key → value` in `img`, the host image of a whole generation
    /// with bucket mask `mask`: over the key's own entry if the image
    /// already holds it, else in the first never-used slot of its probe
    /// window. Returns whether it overwrote.
    fn place(&self, img: &mut [u8], mask: u64, key: &[u8], value: &[u8]) -> Result<bool> {
        let sb = self.slot_bytes as usize;
        let home = hash_key(key) & mask;
        for probe in 0..self.max_probe.min(mask + 1) {
            let slot = &mut img[((home + probe) & mask) as usize * sb..][..sb];
            let Ok(hdr) = SlotHdr::decode(slot) else {
                continue;
            };
            let overwrite = hdr.live();
            if overwrite && !keys_eq(hdr.key(slot), key) {
                continue;
            }
            SlotHdr::write_entry(slot, 2, key, value);
            return Ok(overwrite);
        }
        Err(RStoreError::InsufficientCapacity {
            requested: self.slot_bytes,
        })
    }

    /// Uploads the whole-generation host image `img` to `data` in
    /// [`COPY_CHUNK`] writes.
    async fn upload(&self, data: &Region, img: &[u8], ledger: &OpLedger) -> Result<()> {
        for (i, chunk) in img.chunks(COPY_CHUNK as usize).enumerate() {
            data.write_l(i as u64 * COPY_CHUNK, chunk, ledger).await?;
        }
        Ok(())
    }

    // --- bulk load ------------------------------------------------------------

    /// Loads `entries` into the table by building the full slot image
    /// client-side and uploading it in large chunks — orders of magnitude
    /// fewer round trips than per-key puts. Intended for populating a
    /// **freshly created** table: existing slots are clobbered, and
    /// concurrent mutations from other clients are not coordinated with.
    /// Later entries overwrite earlier ones with the same key. Returns the
    /// number of distinct keys loaded.
    ///
    /// # Errors
    ///
    /// [`RStoreError::Protocol`] for invalid keys/values,
    /// [`RStoreError::InsufficientCapacity`] if some probe window fills,
    /// and IO failures.
    pub async fn bulk_load<I, K, V>(&self, entries: I) -> Result<u64>
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<[u8]>,
        V: AsRef<[u8]>,
    {
        let ledger = self.meta.op_ledger(OpKind::BulkLoad);
        let result = self.bulk_load_l(entries, &ledger).await;
        self.meta.finish_ledger_res(&ledger, &result);
        result
    }

    async fn bulk_load_l<I, K, V>(&self, entries: I, ledger: &OpLedger) -> Result<u64>
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<[u8]>,
        V: AsRef<[u8]>,
    {
        self.ensure_write_lease(ledger).await?;
        let (_, mask, data) = self.snapshot();
        let mut img = vec![0u8; ((mask + 1) * self.slot_bytes) as usize];
        let mut count = 0u64;
        for (key, value) in entries {
            let (key, value) = (key.as_ref(), value.as_ref());
            self.check_entry(key, value)?;
            if !self.place(&mut img, mask, key, value)? {
                count += 1; // not an overwrite: a new key
            }
        }
        ledger.set_units(count);
        self.upload(&data, &img, ledger).await?;
        self.hints.borrow_mut().clear();
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};

    fn boot(clients: usize) -> Cluster {
        Cluster::boot(ClusterConfig {
            clients,
            ..ClusterConfig::with_servers(3)
        })
        .expect("boot")
    }

    fn small_cfg() -> KvConfig {
        KvConfig {
            buckets: 64,
            slot_bytes: 128,
            max_probe: 16,
            opts: AllocOptions {
                stripe_size: 1024,
                ..AllocOptions::default()
            },
        }
    }

    #[test]
    fn hint_cache_evicts_fifo_and_refreshes_in_place() {
        let mut hc = HintCache::new(2);
        let h = |slot| SlotHint {
            generation: 1,
            slot,
            version: 2,
        };
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
        // Removal leaves a stale queue entry that eviction skips.
        assert!(hc.remove(b"b"));
        assert_eq!(hc.insert(b"d", h(4)), 0);
        assert_eq!(hc.insert(b"e", h(5)), 1); // evicts "c"
        assert!(hc.lookup(b"d").is_some() && hc.lookup(b"e").is_some());
        // The queue never grows without bound under churn.
        for i in 0..100u32 {
            hc.insert(format!("k{i}").as_bytes(), h(i as u64));
        }
        assert!(hc.fifo.len() <= hc.cap * 2 + 8);
        // Capacity 0 disables caching entirely.
        let mut off = HintCache::new(0);
        off.insert(b"x", h(1));
        assert!(off.lookup(b"x").is_none());
    }

    #[test]
    fn put_get_delete_round_trip() {
        let cluster = boot(1);
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let kv = KvTable::create(&client, "kv", small_cfg()).await.unwrap();
            assert_eq!(kv.get(b"missing").await.unwrap(), None);
            kv.put(b"alpha", b"one").await.unwrap();
            kv.put(b"beta", b"two").await.unwrap();
            assert_eq!(kv.get(b"alpha").await.unwrap().unwrap(), b"one");
            assert_eq!(kv.get(b"beta").await.unwrap().unwrap(), b"two");
            // Overwrite.
            kv.put(b"alpha", b"uno").await.unwrap();
            assert_eq!(kv.get(b"alpha").await.unwrap().unwrap(), b"uno");
            // Delete.
            assert!(kv.delete(b"alpha").await.unwrap());
            assert!(!kv.delete(b"alpha").await.unwrap());
            assert_eq!(kv.get(b"alpha").await.unwrap(), None);
            assert_eq!(kv.get(b"beta").await.unwrap().unwrap(), b"two");
        });
    }

    #[test]
    fn survives_heavy_collisions() {
        // 64 buckets, 40 keys: plenty of probing and tombstone reuse.
        let cluster = boot(1);
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let kv = KvTable::create(&client, "kvcol", small_cfg())
                .await
                .unwrap();
            for i in 0..40u32 {
                kv.put(format!("key-{i}").as_bytes(), &i.to_le_bytes())
                    .await
                    .unwrap();
            }
            for i in (0..40u32).step_by(2) {
                assert!(kv.delete(format!("key-{i}").as_bytes()).await.unwrap());
            }
            for i in 0..40u32 {
                let got = kv.get(format!("key-{i}").as_bytes()).await.unwrap();
                if i % 2 == 0 {
                    assert_eq!(got, None, "key-{i}");
                } else {
                    assert_eq!(got.unwrap(), i.to_le_bytes(), "key-{i}");
                }
            }
            // Reuse the tombstones.
            for i in (0..40u32).step_by(2) {
                kv.put(format!("key-{i}").as_bytes(), b"back")
                    .await
                    .unwrap();
            }
            for i in (0..40u32).step_by(2) {
                assert_eq!(
                    kv.get(format!("key-{i}").as_bytes())
                        .await
                        .unwrap()
                        .unwrap(),
                    b"back"
                );
            }
        });
    }

    #[test]
    fn multi_get_matches_individual_gets() {
        // Collision-heavy table with tombstones: multi_get must agree with
        // get for first-probe hits, chained hits, tombstoned keys, and
        // misses — while ringing fewer doorbells than one per key.
        let cluster = boot(1);
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let kv = KvTable::create(&client, "mget", small_cfg()).await.unwrap();
            for i in 0..40u32 {
                kv.put(format!("key-{i}").as_bytes(), &i.to_le_bytes())
                    .await
                    .unwrap();
            }
            for i in (0..40u32).step_by(4) {
                assert!(kv.delete(format!("key-{i}").as_bytes()).await.unwrap());
            }
            let names: Vec<String> = (0..48u32).map(|i| format!("key-{i}")).collect();
            let keys: Vec<&[u8]> = names.iter().map(|n| n.as_bytes()).collect();
            let batched = kv.multi_get(&keys).await.unwrap();
            assert_eq!(batched.len(), keys.len());
            for (i, key) in keys.iter().enumerate() {
                assert_eq!(batched[i], kv.get(key).await.unwrap(), "key-{i}");
            }
            assert!(kv.multi_get(&[]).await.unwrap().is_empty());

            // Doorbell accounting on an empty table, where every first
            // probe resolves (never-used slot → None, no fallback probes):
            // 48 keys must batch into far fewer rings than one per key.
            let sparse = KvTable::create(&client, "mget_sparse", small_cfg())
                .await
                .unwrap();
            let metrics = client.device().metrics();
            let doorbells_before = metrics.counter("rdma.doorbells");
            let misses = sparse.multi_get(&keys).await.unwrap();
            let doorbells = metrics.counter("rdma.doorbells") - doorbells_before;
            assert!(misses.iter().all(Option::is_none));
            assert!(
                doorbells < keys.len() as u64 / 2,
                "48 first-probe misses rang {doorbells} doorbells — batching had no effect"
            );
        });
    }

    #[test]
    fn ledger_warm_path_rtt_invariants() {
        // The communication-cost contract of the KV clean path, asserted via
        // the op ledger (not timing): a warm (hinted) GET is exactly one
        // round trip and one doorbell; a multi_get of K first-probe hits is
        // one posting round; a cold PUT into a first-probe hole is probe
        // read + CAS + one publishing write = 3 RTTs; a warm (hinted) PUT
        // or DELETE is CAS + one write = 2 RTTs.
        let cluster = boot(1);
        let sim = cluster.sim.clone();
        sim.recorder().enable(sim::Level::Costs, 0);
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let cfg = small_cfg();
            let kv = KvTable::create(&client, "rtt", cfg).await.unwrap();
            // Pick keys whose home slots are pairwise distinct, so every
            // lookup resolves on its first probe (no collision chains).
            let mask = cfg.buckets.next_power_of_two() - 1;
            let mut chosen: Vec<String> = Vec::new();
            let mut used = std::collections::HashSet::new();
            for i in 0..256u32 {
                let name = format!("rtt-{i}");
                if used.insert(hash_key(name.as_bytes()) & mask) {
                    chosen.push(name);
                }
                if chosen.len() == 9 {
                    break;
                }
            }
            let spare = chosen.pop().unwrap();
            for name in &chosen {
                kv.put(name.as_bytes(), b"value").await.unwrap();
            }
            let metrics = client.device().metrics();

            // GET warm path: the put installed a slot hint, so the lookup
            // reads the remembered slot directly — one RTT, one doorbell.
            metrics.reset();
            assert_eq!(
                kv.get(chosen[0].as_bytes()).await.unwrap().unwrap(),
                b"value"
            );
            let ops = sim::ledger::summarize(&metrics);
            assert_eq!(ops.len(), 1, "only a get op recorded: {ops:?}");
            let get = &ops[0];
            assert_eq!(get.op, "get");
            assert_eq!(get.count, 1);
            assert_eq!((get.rtts_p50, get.rtts_max), (1, 1), "warm get is 1 RTT");
            assert_eq!(get.doorbells_max, 1);
            assert_eq!(get.retries + get.failovers, 0);
            assert!(get.bytes_total > 0);
            assert_eq!(metrics.counter("kv.index.hit"), 1);

            // multi_get of K first-probe hits: one posting round (1 RTT),
            // batched doorbells well under one per key.
            metrics.reset();
            let keys: Vec<&[u8]> = chosen.iter().map(|n| n.as_bytes()).collect();
            let got = kv.multi_get(&keys).await.unwrap();
            assert!(got.iter().all(|v| v.as_deref() == Some(b"value".as_ref())));
            let ops = sim::ledger::summarize(&metrics);
            assert_eq!(ops.len(), 1, "no per-key fallback gets: {ops:?}");
            let mget = &ops[0];
            assert_eq!(mget.op, "multi_get");
            assert_eq!(mget.units, keys.len() as u64);
            assert_eq!(mget.rtts_max, 1, "K first-probe hits are 1 posting round");
            assert!(
                mget.doorbells_max < keys.len() as u64,
                "batched probes must ring fewer doorbells than keys"
            );

            // PUT cold path into a fresh slot: probe read + CAS + one WRITE
            // that publishes the whole slot image and releases the lock.
            // The CAS sub-op is absorbed into the put's totals and also
            // recorded as its own op type.
            metrics.reset();
            kv.put(spare.as_bytes(), b"value").await.unwrap();
            let ops = sim::ledger::summarize(&metrics);
            let names: Vec<&str> = ops.iter().map(|s| s.op.as_str()).collect();
            assert_eq!(names, ["cas", "put"]);
            let (cas, put) = (&ops[0], &ops[1]);
            assert_eq!((put.rtts_p50, put.rtts_max), (3, 3), "cold put is 3 RTTs");
            assert_eq!(cas.rtts_max, 1);
            assert_eq!(put.retries + put.failovers, 0);

            // PUT warm path: the hint's cached version is CASed directly —
            // no probe read. CAS + publishing write = 2 RTTs.
            metrics.reset();
            kv.put(spare.as_bytes(), b"fresh").await.unwrap();
            let ops = sim::ledger::summarize(&metrics);
            let put = ops.iter().find(|s| s.op == "put").unwrap();
            assert_eq!((put.rtts_p50, put.rtts_max), (2, 2), "warm put is 2 RTTs");
            assert_eq!(kv.get(spare.as_bytes()).await.unwrap().unwrap(), b"fresh");

            // DELETE warm path: CAS + tombstoning write = 2 RTTs.
            metrics.reset();
            assert!(kv.delete(chosen[0].as_bytes()).await.unwrap());
            let ops = sim::ledger::summarize(&metrics);
            let del = ops.iter().find(|s| s.op == "delete").unwrap();
            assert_eq!(
                (del.rtts_p50, del.rtts_max),
                (2, 2),
                "warm delete is 2 RTTs"
            );
        });
    }

    #[test]
    fn hinted_get_is_one_rtt_even_under_collisions() {
        // Crowd 6 keys into 8 buckets so probe chains are inevitable, on a
        // handle whose hints were populated by probing (not by put): every
        // repeat GET must still be exactly one READ.
        let cluster = boot(1);
        let sim = cluster.sim.clone();
        sim.recorder().enable(sim::Level::Costs, 0);
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let cfg = KvConfig {
                buckets: 8,
                max_probe: 8,
                ..small_cfg()
            };
            let kv = KvTable::create(&client, "coll8", cfg).await.unwrap();
            for i in 0..6u32 {
                kv.put(format!("c{i}").as_bytes(), &i.to_le_bytes())
                    .await
                    .unwrap();
            }
            // A second handle starts with a cold cache: first gets probe
            // (possibly multiple RTTs) and install hints as they resolve.
            let kv2 = KvTable::open(&client, "coll8", cfg.slot_bytes, cfg.max_probe)
                .await
                .unwrap();
            for i in 0..6u32 {
                assert!(kv2.get(format!("c{i}").as_bytes()).await.unwrap().is_some());
            }
            let metrics = client.device().metrics();
            metrics.reset();
            for i in 0..6u32 {
                assert_eq!(
                    kv2.get(format!("c{i}").as_bytes()).await.unwrap().unwrap(),
                    i.to_le_bytes()
                );
            }
            let ops = sim::ledger::summarize(&metrics);
            assert_eq!(ops.len(), 1);
            let get = &ops[0];
            assert_eq!((get.op.as_str(), get.count), ("get", 6));
            assert_eq!(
                (get.rtts_p50, get.rtts_max),
                (1, 1),
                "hinted gets skip the probe chain"
            );
            assert_eq!(get.doorbells_max, 1);
            assert_eq!(metrics.counter("kv.index.hit"), 6);
            assert_eq!(metrics.counter("kv.index.miss"), 0);
        });
    }

    #[test]
    fn cold_walk_reads_home_alone_then_one_window_per_read() {
        // Ten keys share home slot 3, so they sit at chain positions 1..=10
        // (slots 3..=12). A cold walk reads the home slot alone, then 8
        // slots (1 KiB of 128-byte slots) per READ: slots 4..=11 — which
        // straddle the stripe boundary at slot 8 — then 12..=19. A get at
        // position p = 1, 2, 9, 10 costs 1, 2, 2, 3 RTTs; a put over
        // position 9 costs that walk's 2 plus CAS + publish. A reader that
        // meets a slot locked mid-window reads through it: the same RTTs and
        // virtual time as the unlocked walk, no retry, and the entry under
        // the lock is still a hit.
        let cluster = boot(1);
        let sim = cluster.sim.clone();
        sim.recorder().enable(sim::Level::Costs, 0);
        let s = sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let cfg = small_cfg();
            let kv = KvTable::create(&client, "chain", cfg).await.unwrap();
            let keys: Vec<String> = (0u32..)
                .map(|i| format!("chain-{i}"))
                .filter(|k| hash_key(k.as_bytes()) & 63 == 3)
                .take(10)
                .collect();
            for (i, key) in keys.iter().enumerate() {
                kv.put(key.as_bytes(), &[i as u8; 8]).await.unwrap();
            }
            let metrics = client.device().metrics();
            let row = |op: &str| {
                let ops = sim::ledger::summarize(&metrics);
                ops.into_iter().find(|s| s.op == op).expect("op recorded")
            };
            let cold = || KvTable::open(&client, "chain", cfg.slot_bytes, cfg.max_probe);

            let mut unlocked = Duration::ZERO;
            for (p, rtts) in [(1, 1), (2, 2), (9, 2), (10, 3)] {
                let kv = cold().await.unwrap();
                metrics.reset();
                let t = s.now();
                let got = kv.get(keys[p - 1].as_bytes()).await.unwrap();
                assert_eq!(got.as_deref(), Some(&[p as u8 - 1; 8][..]), "position {p}");
                assert_eq!(row("get").rtts_max, rtts, "position {p}");
                if p == 9 {
                    unlocked = s.now().saturating_since(t);
                }
            }

            let kv = cold().await.unwrap();
            metrics.reset();
            kv.put(keys[8].as_bytes(), b"fresh").await.unwrap();
            let put = row("put");
            assert_eq!(put.rtts_max, 4, "walk 2 + CAS + publish");
            assert_eq!(put.retries, 0);

            // Lock position 5 (slot 7) under its intact entry, for good.
            let raw = client.map(&gen_name("chain", 1)).await.unwrap();
            let none = OpLedger::disabled();
            let word = raw.read_l(7 * 128, 8, &none).await.unwrap();
            let version = u64::from_le_bytes(word.try_into().unwrap());
            let locked = lock_word(version, 0x55).to_le_bytes();
            raw.write_l(7 * 128, &locked, &none).await.unwrap();
            let kv = cold().await.unwrap();
            metrics.reset();
            let t = s.now();
            let got = kv.get(keys[8].as_bytes()).await.unwrap();
            assert_eq!(got.as_deref(), Some(&b"fresh"[..]));
            assert_eq!(s.now().saturating_since(t), unlocked, "no wait");
            let get = row("get");
            assert_eq!((get.rtts_max, get.retries), (2, 0), "read through");
            let got = kv.get(keys[4].as_bytes()).await.unwrap();
            assert_eq!(
                got.as_deref(),
                Some(&[4u8; 8][..]),
                "the entry under the lock"
            );
        });
    }

    #[test]
    fn a_lost_hinted_cas_chases_the_word_it_returned() {
        // (a) Another handle updated the key since this handle took its
        // hint: the hinted CAS returns the new stable version, and one chase
        // round locks it with the read-back — CAS, chase, publish = 3 RTTs.
        // (b) Slot reuse: another handle deleted the key and inserted a
        // colliding key into the same slot. The chase locks that slot's new
        // version, but the read-back shows the foreign key, so it unlocks
        // and walks; the colliding key's value stays intact.
        let cluster = boot(2);
        let sim = cluster.sim.clone();
        sim.recorder().enable(sim::Level::Costs, 0);
        sim.block_on(async move {
            let (c0, c1) = (
                cluster.client(0).await.unwrap(),
                cluster.client(1).await.unwrap(),
            );
            let cfg = small_cfg();
            let kv0 = KvTable::create(&c0, "stale", cfg).await.unwrap();
            let kv1 = KvTable::open(&c1, "stale", cfg.slot_bytes, cfg.max_probe);
            let kv1 = kv1.await.unwrap();
            let metrics = c1.device().metrics();
            let put = || {
                let ops = sim::ledger::summarize(&metrics);
                ops.into_iter().find(|s| s.op == "put").expect("a put")
            };
            let counters =
                || ["kv.index.stale", "kv.index.hit", "kv.lock.chase"].map(|n| metrics.counter(n));

            kv0.put(b"a", b"v1").await.unwrap();
            assert_eq!(kv1.get(b"a").await.unwrap().as_deref(), Some(&b"v1"[..]));
            kv0.put(b"a", b"v2").await.unwrap();
            metrics.reset();
            kv1.put(b"a", b"mine").await.unwrap();
            assert_eq!(
                (put().rtts_max, put().retries),
                (3, 1),
                "CAS, chase, publish"
            );
            assert_eq!(counters(), [1, 0, 1], "stale, not a hit");
            assert_eq!(kv0.get(b"a").await.unwrap().as_deref(), Some(&b"mine"[..]));
            metrics.reset();
            kv1.put(b"a", b"again").await.unwrap();
            assert_eq!(put().rtts_max, 2, "the chase left a fresh hint");

            let mask = cfg.buckets - 1;
            let home = hash_key(b"b") & mask;
            assert_ne!(hash_key(b"a") & mask, home);
            let other = (0u32..)
                .map(|i| format!("o{i}").into_bytes())
                .find(|o| hash_key(o) & mask == home)
                .unwrap();
            kv0.put(b"b", b"v1").await.unwrap();
            assert_eq!(kv1.get(b"b").await.unwrap().as_deref(), Some(&b"v1"[..]));
            assert!(kv0.delete(b"b").await.unwrap());
            kv0.put(&other, b"theirs").await.unwrap();
            metrics.reset();
            kv1.put(b"b", b"mine").await.unwrap();
            assert_eq!(counters(), [1, 0, 1]);
            assert_eq!(
                put().rtts_max,
                7,
                "CAS, chase, unlock, walk home + window, CAS, publish"
            );
            assert_eq!(
                kv0.get(&other).await.unwrap().as_deref(),
                Some(&b"theirs"[..])
            );
            assert_eq!(kv0.get(b"b").await.unwrap().as_deref(), Some(&b"mine"[..]));
        });
    }

    #[test]
    fn a_chase_locks_what_the_holder_leaves() {
        // A holder has the key's slot locked over the hinted version and
        // acts 5 µs into the put; the hinted CAS returns its lock word, and
        // every chase round waits, then CASes with the read-back — never a
        // walk. (c) The holder publishes: the chase's `pre + 2` CAS wins once
        // the publish lands. (d) The holder unlocks instead: the `pre + 2`
        // CAS loses to the restored pre-lock version, and the next round
        // locks that.
        for publishes in [true, false] {
            let cluster = boot(1);
            let sim = cluster.sim.clone();
            sim.recorder().enable(sim::Level::Costs, 0);
            let s = sim.clone();
            sim.block_on(async move {
                let client = cluster.client(0).await.unwrap();
                let cfg = small_cfg();
                let kv = KvTable::create(&client, "held", cfg).await.unwrap();
                kv.put(b"k", b"v1").await.unwrap();
                let off = (hash_key(b"k") & (cfg.buckets - 1)) * cfg.slot_bytes;
                let raw = client.map(&gen_name("held", 1)).await.unwrap();
                let none = OpLedger::disabled();
                async fn word(raw: &Region, off: u64) -> u64 {
                    u64::from_le_bytes(raw.read(off, 8).await.unwrap().try_into().unwrap())
                }
                let version = word(&raw, off).await;
                let locked = lock_word(version, 0x77).to_le_bytes();
                raw.write_l(off, &locked, &none).await.unwrap();
                let (holder, hsim) = (raw.clone(), s.clone());
                let holder = s.spawn(async move {
                    hsim.sleep(Duration::from_micros(5)).await;
                    let mut img = vec![0u8; 128];
                    let none = OpLedger::disabled();
                    if publishes {
                        SlotHdr::write_entry(&mut img, version + 2, b"k", b"held");
                        holder.write_l(off, &img, &none).await
                    } else {
                        holder.write_l(off, &version.to_le_bytes(), &none).await
                    }
                });
                let metrics = client.device().metrics();
                metrics.reset();
                kv.put(b"k", b"v2").await.unwrap();
                holder.await.unwrap();
                let ops = sim::ledger::summarize(&metrics);
                let put = ops.iter().find(|s| s.op == "put").unwrap();
                let chases = metrics.counter("kv.lock.chase");
                assert!(chases >= 2, "publishes {publishes}: {chases} chase rounds");
                assert_eq!(put.rtts_max, 2 + chases, "CAS, the chase rounds, publish");
                let pre = if publishes { version + 2 } else { version };
                assert_eq!(
                    word(&raw, off).await,
                    pre + 2,
                    "locked the holder's version"
                );
                assert_eq!(kv.get(b"k").await.unwrap().as_deref(), Some(&b"v2"[..]));
            });
        }
    }

    #[test]
    fn visible_across_clients() {
        let cluster = boot(2);
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let c0 = cluster.client(0).await.unwrap();
            let c1 = cluster.client(1).await.unwrap();
            let cfg = small_cfg();
            let kv0 = KvTable::create(&c0, "shared_kv", cfg).await.unwrap();
            kv0.put(b"owner", b"c0").await.unwrap();
            let kv1 = KvTable::open(&c1, "shared_kv", cfg.slot_bytes, cfg.max_probe)
                .await
                .unwrap();
            assert_eq!(kv1.get(b"owner").await.unwrap().unwrap(), b"c0");
            kv1.put(b"owner", b"c1").await.unwrap();
            // kv0's cached hint is stale in version but not in location: the
            // hinted read revalidates by key and sees the new value.
            assert_eq!(kv0.get(b"owner").await.unwrap().unwrap(), b"c1");
        });
    }

    #[test]
    fn concurrent_writers_serialize_on_cas() {
        let cluster = boot(4);
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let cfg = small_cfg();
            let creator = cluster.client(0).await.unwrap();
            KvTable::create(&creator, "hot", cfg).await.unwrap();
            // Four clients hammer the same key and distinct keys.
            let mut handles = Vec::new();
            for i in 0..4usize {
                let client = cluster.client(i).await.unwrap();
                let slot_bytes = cfg.slot_bytes;
                let max_probe = cfg.max_probe;
                handles.push(cluster.sim.spawn(async move {
                    let kv = KvTable::open(&client, "hot", slot_bytes, max_probe)
                        .await
                        .unwrap();
                    for round in 0..10u32 {
                        kv.put(b"contended", format!("w{i}r{round}").as_bytes())
                            .await
                            .unwrap();
                        kv.put(format!("own-{i}").as_bytes(), &round.to_le_bytes())
                            .await
                            .unwrap();
                    }
                    kv
                }));
            }
            let kvs = sim::join_all(handles).await;
            // The contended key holds exactly one of the final writes.
            let v = kvs[0].get(b"contended").await.unwrap().unwrap();
            let s = String::from_utf8(v).unwrap();
            assert!(s.starts_with('w') && s.contains('r'), "got {s}");
            // Every private key has its writer's last round.
            for (i, kv) in kvs.iter().enumerate() {
                let v = kv
                    .get(format!("own-{i}").as_bytes())
                    .await
                    .unwrap()
                    .unwrap();
                assert_eq!(v, 9u32.to_le_bytes());
            }
        });
    }

    /// A value whose last four bytes are the CRC32C of the rest. A torn
    /// read — bytes from two different writes — cannot verify.
    fn sealed_value(writer: usize, round: u32) -> Vec<u8> {
        let len = 8 + ((writer as u32 * 7 + round * 13) % 48) as usize;
        let mut payload = vec![0u8; len];
        for (j, b) in payload.iter_mut().enumerate() {
            *b = ((writer * 31 + round as usize * 17 + j * 5) % 251) as u8;
        }
        let crc = crate::crc::crc32c(&payload);
        payload.extend_from_slice(&crc.to_le_bytes());
        payload
    }

    #[test]
    fn seqlock_never_exposes_torn_values_under_loss() {
        // Property (seeded, deterministic): writers race on three hot keys
        // while the fabric drops messages; any GET that returns a value must
        // return a self-consistent one — the seqlock may force retries but
        // must never let bytes from two different writes through as one.
        let cluster = boot(4);
        let sim = cluster.sim.clone();
        let fabric = cluster.fabric.clone();
        sim.block_on(async move {
            let cfg = small_cfg();
            let creator = cluster.client(0).await.unwrap();
            KvTable::create(&creator, "torn", cfg).await.unwrap();
            fabric::FaultPlan::new(0x7e57)
                .loss_window(
                    std::time::Duration::from_millis(2),
                    std::time::Duration::from_millis(30),
                    0.03,
                )
                .install(&fabric);

            let mut handles = Vec::new();
            // Three writers hammer the hot keys with sealed values.
            for i in 0..3usize {
                let client = cluster.client(i).await.unwrap();
                let slot_bytes = cfg.slot_bytes;
                let max_probe = cfg.max_probe;
                handles.push(cluster.sim.spawn(async move {
                    let kv = KvTable::open(&client, "torn", slot_bytes, max_probe)
                        .await
                        .unwrap();
                    for round in 0..12u32 {
                        let key = format!("hot-{}", round % 3);
                        kv.put(key.as_bytes(), &sealed_value(i, round))
                            .await
                            .unwrap();
                    }
                }));
            }
            // One reader polls throughout, verifying every observed value.
            let reader = cluster.client(3).await.unwrap();
            let slot_bytes = cfg.slot_bytes;
            let max_probe = cfg.max_probe;
            let rsim = cluster.sim.clone();
            handles.push(cluster.sim.spawn(async move {
                let kv = KvTable::open(&reader, "torn", slot_bytes, max_probe)
                    .await
                    .unwrap();
                for _ in 0..30 {
                    for k in 0..3 {
                        if let Some(v) = kv.get(format!("hot-{k}").as_bytes()).await.unwrap() {
                            assert!(v.len() > 4, "sealed values carry a trailer");
                            let (payload, crc) = v.split_at(v.len() - 4);
                            assert_eq!(
                                crc,
                                crate::crc::crc32c(payload).to_le_bytes(),
                                "torn value escaped the seqlock"
                            );
                        }
                    }
                    rsim.sleep(std::time::Duration::from_micros(1500)).await;
                }
            }));
            sim::join_all(handles).await;
        });
    }

    #[test]
    fn oversized_entries_rejected() {
        let cluster = boot(1);
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let kv = KvTable::create(&client, "small", small_cfg())
                .await
                .unwrap();
            let err = kv.put(b"k", &[0u8; 200]).await.err().unwrap();
            assert!(matches!(err, RStoreError::Protocol(_)));
            assert!(kv.value_capacity(1) < 200);
        });
    }

    #[test]
    fn oversized_lengths_rejected_before_u16_wrap() {
        // Regression (ISSUE 7 satellite): with slot_bytes > 64 KiB a key or
        // value longer than 65535 bytes used to pass the slot-payload check
        // and then wrap in the u16 header fields, storing a corrupt entry.
        // Both must be rejected loudly, and nothing may be stored.
        let cluster = boot(1);
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let cfg = KvConfig {
                buckets: 8,
                slot_bytes: 128 << 10,
                max_probe: 8,
                opts: AllocOptions {
                    stripe_size: 256 << 10,
                    ..AllocOptions::default()
                },
            };
            let kv = KvTable::create(&client, "wide", cfg).await.unwrap();
            // Fits the 128 KiB slot payload, does not fit a u16 length.
            let wide_value = vec![7u8; 70_000];
            assert!(kv.value_capacity(1) as usize > wide_value.len());
            let err = kv.put(b"k", &wide_value).await.err().unwrap();
            assert!(matches!(err, RStoreError::Protocol(_)), "got {err}");
            assert_eq!(kv.get(b"k").await.unwrap(), None, "nothing was stored");
            let wide_key = vec![7u8; 70_000];
            let err = kv.put(&wide_key, b"v").await.err().unwrap();
            assert!(matches!(err, RStoreError::Protocol(_)), "got {err}");
            let err = kv.get(&wide_key).await.err().unwrap();
            assert!(matches!(err, RStoreError::Protocol(_)), "got {err}");
            // Maximal legal lengths still round-trip.
            let edge = vec![9u8; u16::MAX as usize];
            kv.put(b"edge", &edge).await.unwrap();
            assert_eq!(kv.get(b"edge").await.unwrap().unwrap(), edge);
        });
    }

    #[test]
    fn corrupt_slot_surfaces_structured_error() {
        // Regression (ISSUE 7 satellite): a slot image whose header lengths
        // exceed the slot used to panic the client with a slice
        // out-of-range. Every op touching it must instead surface
        // CorruptionDetected and count it — readers and writers alike,
        // whether the key length is impossible too or only the value length
        // is (ISSUE 13 satellite: the writers' probes used to check `klen`
        // alone and overwrote, tombstoned or probed past the second image).
        let cluster = boot(1);
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let cfg = small_cfg();
            let metrics = client.device().metrics();
            let intact = b"victim".len() as u16;
            for (table, klen, vlen) in [("cr", 0xFFFF, 0xFFFF), ("cr2", intact, 0xFFFF)] {
                let kv = KvTable::create(&client, table, cfg).await.unwrap();
                kv.put(b"victim", b"v").await.unwrap();
                // Smash the header of the victim's home slot: stable
                // version, impossible lengths. The key bytes stay.
                let mask = cfg.buckets.next_power_of_two() - 1;
                let slot = hash_key(b"victim") & mask;
                let raw = client.map(&gen_name(table, 1)).await.unwrap();
                let hdr = SlotHdr {
                    version: 2,
                    word: 2,
                    klen: klen as usize,
                    vlen: vlen as usize,
                };
                let none = OpLedger::disabled();
                raw.write_l(slot * cfg.slot_bytes, &hdr.encode(), &none)
                    .await
                    .unwrap();

                let mut counted = metrics.counter("kv.slot_corrupt");
                let mut check = |what: &str, err: RStoreError| {
                    assert!(
                        matches!(err, RStoreError::CorruptionDetected { .. }),
                        "{table} {what}: {err}"
                    );
                    counted += 1;
                    assert_eq!(
                        metrics.counter("kv.slot_corrupt"),
                        counted,
                        "{table} {what}: not counted"
                    );
                };
                check("hinted get", kv.get(b"victim").await.err().unwrap());
                // Cold probe paths, on a handle with no hints.
                let kv2 = KvTable::open(&client, table, cfg.slot_bytes, cfg.max_probe)
                    .await
                    .unwrap();
                check("get", kv2.get(b"victim").await.err().unwrap());
                check("put", kv2.put(b"victim", b"x").await.err().unwrap());
                check("delete", kv2.delete(b"victim").await.err().unwrap());
                let batch = kv2.multi_get(&[b"victim"]).await;
                check("multi_get", batch.err().unwrap());
            }
        });
    }

    #[test]
    fn grow_rehash_preserves_data_without_stopping_reads() {
        // Online resize: a reader on another client keeps reading (old
        // hints, old generation) while the table quadruples; every read
        // returns the right value, and stale handles revalidate via the
        // epoch/generation word instead of erroring.
        let cluster = boot(2);
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let cfg = small_cfg();
            let c0 = cluster.client(0).await.unwrap();
            let kv0 = KvTable::create(&c0, "grow", cfg).await.unwrap();
            for i in 0..40u32 {
                kv0.put(format!("g{i}").as_bytes(), &i.to_le_bytes())
                    .await
                    .unwrap();
            }
            assert!(matches!(
                kv0.grow(32).await.err().unwrap(),
                RStoreError::Protocol(_)
            ));

            let c1 = cluster.client(1).await.unwrap();
            let kv1 = KvTable::open(&c1, "grow", cfg.slot_bytes, cfg.max_probe)
                .await
                .unwrap();
            // Warm kv1's hints against generation 1.
            for i in 0..40u32 {
                assert!(kv1.get(format!("g{i}").as_bytes()).await.unwrap().is_some());
            }

            let grower = cluster.sim.spawn(async move {
                let moved = kv0.grow(256).await.unwrap();
                (kv0, moved)
            });
            let rsim = cluster.sim.clone();
            let reader = cluster.sim.spawn(async move {
                // Spans the grace window, the copy, the flip, and the free.
                for round in 0..120u32 {
                    let i = round % 40;
                    let got = kv1.get(format!("g{i}").as_bytes()).await.unwrap();
                    assert_eq!(got.unwrap(), i.to_le_bytes(), "g{i} during resize");
                    rsim.sleep(std::time::Duration::from_micros(600)).await;
                }
                kv1
            });
            let (kv0, moved) = grower.await;
            let kv1 = reader.await;
            assert_eq!(moved, 40);
            assert_eq!(kv0.buckets(), 256);
            assert_eq!(kv0.generation(), 2);

            // The stale handle converges: reads remapped already (or will on
            // first fault), and a write revalidates through the lease.
            kv1.put(b"post-resize", b"ok").await.unwrap();
            assert_eq!(kv1.generation(), 2);
            for i in 0..40u32 {
                assert_eq!(
                    kv1.get(format!("g{i}").as_bytes()).await.unwrap().unwrap(),
                    i.to_le_bytes()
                );
            }
            assert_eq!(kv0.get(b"post-resize").await.unwrap().unwrap(), b"ok");
            assert!(c1.device().metrics().counter("kv.index.refresh") >= 1);
            // A second resize attempt from the now-stale generation count
            // still works (the handle re-reads the meta block first).
            let moved = kv0.grow(512).await.unwrap();
            assert_eq!(moved, 41);
            assert_eq!(kv0.buckets(), 512);
        });
    }

    #[test]
    fn grow_keeps_the_entry_under_an_orphaned_lock() {
        // A lock no writer will ever release sits over an entry through the
        // resize's grace window. Readers return the entry under it, so the
        // rehash moves that committed view like any other live entry, and
        // the value readers have seen survives the grow.
        let cluster = boot(1);
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let kv = KvTable::create(&client, "orphan", small_cfg())
                .await
                .unwrap();
            kv.put(b"held", b"under").await.unwrap();
            kv.put(b"free", b"v").await.unwrap();
            let off = (hash_key(b"held") & 63) * 128;
            let raw = client.map(&gen_name("orphan", 1)).await.unwrap();
            let none = OpLedger::disabled();
            let orphan = lock_word(2, 0x0D).to_le_bytes();
            raw.write_l(off, &orphan, &none).await.unwrap();
            assert_eq!(kv.get(b"held").await.unwrap().unwrap(), b"under");
            assert_eq!(kv.grow(256).await.unwrap(), 2, "both entries moved");
            assert_eq!(kv.generation(), 2);
            assert_eq!(kv.get(b"held").await.unwrap().unwrap(), b"under");
            assert_eq!(kv.get(b"free").await.unwrap().unwrap(), b"v");
        });
    }

    #[test]
    fn bulk_load_then_get_roundtrip() {
        let cluster = boot(1);
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let cfg = KvConfig {
                buckets: 256,
                ..small_cfg()
            };
            let kv = KvTable::create(&client, "bulk", cfg).await.unwrap();
            let mut entries: Vec<(String, Vec<u8>)> = (0..100u32)
                .map(|i| (format!("b{i}"), i.to_le_bytes().to_vec()))
                .collect();
            // A duplicate key later in the stream overwrites, not double-counts.
            entries.push(("b0".to_string(), b"dup".to_vec()));
            let loaded = kv.bulk_load(entries).await.unwrap();
            assert_eq!(loaded, 100);
            assert_eq!(kv.get(b"b0").await.unwrap().unwrap(), b"dup");
            for i in 1..100u32 {
                assert_eq!(
                    kv.get(format!("b{i}").as_bytes()).await.unwrap().unwrap(),
                    i.to_le_bytes()
                );
            }
            assert_eq!(kv.get(b"missing").await.unwrap(), None);
        });
    }

    #[test]
    fn create_rejects_invalid_configs() {
        let cluster = boot(1);
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            // Stripes must hold whole slots (single-WR publish atomicity).
            let cfg = KvConfig {
                slot_bytes: 192,
                opts: AllocOptions {
                    stripe_size: 2048,
                    ..AllocOptions::default()
                },
                ..KvConfig::default()
            };
            assert!(matches!(
                KvTable::create(&client, "badstripe", cfg)
                    .await
                    .err()
                    .unwrap(),
                RStoreError::Protocol(_)
            ));
            // Checksummed regions cannot host CAS-locked slots.
            let cfg = KvConfig {
                opts: AllocOptions {
                    checksums: true,
                    ..AllocOptions::default()
                },
                ..KvConfig::default()
            };
            assert!(matches!(
                KvTable::create(&client, "badck", cfg).await.err().unwrap(),
                RStoreError::Protocol(_)
            ));
            // Slots must fit more than the header.
            let cfg = KvConfig {
                slot_bytes: 16,
                ..KvConfig::default()
            };
            assert!(matches!(
                KvTable::create(&client, "badslot", cfg)
                    .await
                    .err()
                    .unwrap(),
                RStoreError::Protocol(_)
            ));
        });
    }

    #[test]
    fn table_full_is_reported() {
        let cluster = boot(1);
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let cfg = KvConfig {
                buckets: 8,
                max_probe: 8,
                ..small_cfg()
            };
            let kv = KvTable::create(&client, "tiny", cfg).await.unwrap();
            let mut full_seen = false;
            for i in 0..64u32 {
                match kv.put(format!("k{i}").as_bytes(), b"v").await {
                    Ok(()) => {}
                    Err(RStoreError::InsufficientCapacity { .. }) => {
                        full_seen = true;
                        break;
                    }
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            assert!(full_seen, "8 buckets cannot absorb 64 keys");
        });
    }

    #[test]
    fn keys_eq_matches_byte_compare_on_random_slices() {
        // Word-at-a-time equality must be bit-exact with `==` across
        // lengths, alignments, and single-byte differences — including the
        // 0..16-byte tails the lane loop leaves to the byte pass.
        let mut rng = sim::DetRng::new(0x5EED_E101);
        let mut pool = vec![0u8; 4096];
        rng.fill_bytes(&mut pool);
        for a_len in 0usize..=24 {
            for a_off in 0usize..8 {
                let a = &pool[a_off..a_off + a_len];
                // Equal content at a different alignment.
                let mut b = vec![0u8; a_len + 8];
                let b_off = (a_off + 3) % 8;
                b[b_off..b_off + a_len].copy_from_slice(a);
                assert!(keys_eq(a, &b[b_off..b_off + a_len]));
                // One flipped byte anywhere must be detected.
                if a_len > 0 {
                    let flip = rng.index(a_len);
                    b[b_off + flip] ^= 0x40;
                    assert!(!keys_eq(a, &b[b_off..b_off + a_len]));
                }
            }
        }
        for _ in 0..500 {
            let a_len = rng.index(128);
            let b_len = rng.index(128);
            let a_off = rng.index(512);
            let b_off = rng.index(512);
            let a = &pool[a_off..a_off + a_len];
            let b = &pool[b_off..b_off + b_len];
            assert_eq!(keys_eq(a, b), a == b, "len {a_len}/{b_len}");
        }
    }

    #[test]
    fn inline_publish_preserves_kv_semantics_and_cost() {
        // With inline posting enabled, puts/deletes publish their slot
        // images straight from the WQE — same results, same RTT shape, and
        // the inline counters prove the path was taken.
        let cluster = Cluster::boot(ClusterConfig {
            clients: 1,
            rdma: rdma::RdmaConfig {
                inline_max: 256,
                ..rdma::RdmaConfig::default()
            },
            ..ClusterConfig::with_servers(3)
        })
        .expect("boot");
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let kv = KvTable::create(&client, "inl", small_cfg()).await.unwrap();
            let metrics = client.device().metrics();
            kv.put(b"alpha", b"one").await.unwrap();
            kv.put(b"alpha", b"uno").await.unwrap();
            assert_eq!(kv.get(b"alpha").await.unwrap().unwrap(), b"uno");
            assert!(kv.delete(b"alpha").await.unwrap());
            assert_eq!(kv.get(b"alpha").await.unwrap(), None);
            assert!(
                metrics.counter("rstore.inline.writes") >= 3,
                "slot publishes did not take the inline path"
            );
        });
    }

    #[test]
    fn oversized_publish_falls_back_to_staged_write() {
        // inline_max below the slot image size: the publish takes the
        // staged path and the op still succeeds.
        let cluster = Cluster::boot(ClusterConfig {
            clients: 1,
            rdma: rdma::RdmaConfig {
                inline_max: 16,
                ..rdma::RdmaConfig::default()
            },
            ..ClusterConfig::with_servers(3)
        })
        .expect("boot");
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let kv = KvTable::create(&client, "inl2", small_cfg()).await.unwrap();
            let metrics = client.device().metrics();
            let before = metrics.counter("rstore.inline.writes");
            kv.put(b"alpha", b"one").await.unwrap();
            assert_eq!(kv.get(b"alpha").await.unwrap().unwrap(), b"one");
            assert_eq!(
                metrics.counter("rstore.inline.writes"),
                before,
                "a 128-byte slot image must not post inline under inline_max=16"
            );
            // The 16-byte tombstone of a delete *does* fit.
            assert!(kv.delete(b"alpha").await.unwrap());
            assert!(metrics.counter("rstore.inline.writes") > before);
        });
    }
}
