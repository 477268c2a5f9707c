//! A key-value interface over regions — the "data store" face of RStore.
//!
//! The table is an open-addressed hash map laid out in a pair of regions:
//!
//! * **`{name}`** — a tiny *meta region* holding the table's geometry:
//!   `[magic | buckets | slot_bytes]`, written once at create.
//! * **`{name}@g1`** — the *data region*: `buckets` fixed-size slots, linear
//!   probing. Its size is fixed at create, like any region's geometry.
//!
//! All operations are one-sided, in the style of Pilaf/FaRM-era RDMA
//! stores, with a client-side **cached index** (Outback/HiStore-style) so
//! the warm path needs no probing at all. A table handle owns **no
//! connections**: opening is its only control-path work, and every READ,
//! WRITE and CAS it issues rides the owning client's cached data QPs
//! through [`Region`] — so a handle inherits the client's re-dial after a
//! server flap instead of needing a reopen (the paper's setup-once /
//! one-sided-IO split, `DESIGN.md` claim C3).
//!
//! This module is an *extension* beyond the paper's abstract (flagged in
//! `DESIGN.md`): the paper presents the memory-like API and two
//! applications; a KV facade is the natural third.
//!
//! # The three pieces
//!
//! Every operation is assembled from the same three parts:
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
//!
//! Every op runs inside the data region's one revalidation ladder
//! (`Region::with_revalidate`): an op whose IO found its extent moved,
//! sealed or fenced re-fetches the descriptor and runs again. Slot hints
//! survive it — the table's geometry never changes, only the transport.
//!
//! On top of them:
//!
//! * **GET** — a hit in the hint cache reads the remembered slot directly:
//!   **one RDMA READ**, regardless of probe-chain depth; the key embedded in
//!   the slot self-validates the hint. A miss walks from the home slot and
//!   populates the cache, if the primary served the walk. A get never waits
//!   on a writer.
//! * **PUT / DELETE** — a hinted mutation CASes directly on the cached
//!   version: CAS + WRITE = 2 round trips, however many times other
//!   clients updated the key in between, and one more CAS round per writer
//!   that holds the slot when it arrives. A cold one walks first (one READ
//!   for the home slot, then one per 1 KiB of chain past it). Writers from
//!   any client machine serialize on the CAS; no server CPU is ever
//!   involved.
//!
//! # Slot layout (`slot_bytes` total)
//!
//! ```text
//! [ version: u64 | klen: u16 | vlen: u16 | pad: u32 | key | value | pad ]
//! ```
//!
//! `version == 0` means never used; even = stable; odd = locked. A
//! tombstone is `version != 0 && klen == 0` (probing continues past it).
//! A slot's stable version moves only when its key changes — by 2 when an
//! entry lands in a hole or a tombstone replaces an entry — and an update
//! of the key's value republishes the version it was locked over. So
//! versions only grow, a slot never repeats one, and each names one key's
//! tenure of the slot — which is what lets a hinted
//! put CAS directly on its cached version: success *proves* the slot still
//! holds the hinted key, whoever updated its value since. Every
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
//! nonce in the high 32 bits (`lock_word`), and the body under an odd
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
//! An odd one is waited out through the op's `LockWatch`, which paces
//! every wait of a writer by the locked words the op has seen: the first
//! two re-CAS at once — a holder that locked before the CAS landed
//! publishes one RTT later, when the retry lands — and from the third on
//! the waits double from `LOCK_BACKOFF` (2 µs) to a 64 µs cap, so a herd
//! on a hot slot thins out. Then the writer locks
//! `pre_lock_version(word)`, the version a holder that updates the value
//! or unlocks leaves behind; a holder that changed the key leaves a later
//! one, which that CAS returns for the next round. A CAS over the version the key was seen at proves
//! the key as the first one does. A CAS over any other version proves
//! nothing, so it carries a READ of the slot behind it on the same QP,
//! which the responder runs after the swap: the writer publishes only if
//! the image under its own lock holds the key, and otherwise unlocks and
//! walks. A writer's walk that meets a locked slot waits it out on the same
//! schedule and restarts from the *home* slot: it may already have
//! chosen a hole earlier in the chain, and the lock holder may be inserting
//! this very key — or freeing an earlier slot — so the hole it remembered
//! can be stale by the time the lock clears.
//!
//! **Only the primary's view feeds a CAS.** Every CAS goes to the slot's
//! primary, but a READ fails over to a secondary, and a secondary that took
//! a failed publish holds an image the primary never held, at a version the
//! primary may later give another key. So a hint is taken only from a READ
//! the primary served, and a writer's walk whose READ failed over backs off
//! (`FAILOVER_BACKOFF`) and walks again, within the op's lock-wait budget;
//! that READ has started the descriptor refresh that finds a moved or
//! replaced primary. A writer whose primary stays down fails, as its CAS
//! would have.
//!
//! Every lock wait is bounded (`LOCK_WAIT_BUDGET` of virtual time per op)
//! and then surfaces [`RStoreError::Io`] — a healthy writer releases within
//! microseconds, so exceeding the budget means the holder crashed or the
//! cluster is degraded, and the caller should retry rather than spin.
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
//!   for most of its wait budget (`LockWatch`) — orders of magnitude past
//!   a healthy hold — breaks the lock with the same CAS (`kv.lock.break`).
//!   Until then readers return the entry under it.

use rdma::{CqStatus, DmaBuf, RdmaDevice};
use sim::{Counter, OpLedger, Phase, SimTime};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::client::RStoreClient;
use crate::error::{RStoreError, Result};
use crate::hint::{HintCache, SlotHint};
use crate::layout::Layout;
use crate::proto::AllocOptions;
use crate::region::Region;
use crate::stats::{KvStats, OpKind};

const HDR_BYTES: usize = 16;

/// First 8 bytes of every meta region: "RSTOREKV".
const KV_MAGIC: u64 = u64::from_le_bytes(*b"RSTOREKV");

/// Meta block layout: `[magic | buckets | slot_bytes]`.
const META_BYTES: u64 = 24;
/// Allocated size of the meta region (one cache line).
const META_REGION_BYTES: u64 = 64;

/// Virtual-time budget one op will spend waiting on locked slots before it
/// surfaces an IO timeout instead of spinning. A healthy writer holds a
/// lock for microseconds; a holder stalled behind a degraded-window RDMA
/// timeout (or crashed outright) keeps it for tens of milliseconds, and
/// each wait round costs a remote CAS or re-read — so past this budget the caller
/// is better served by an error it can react to (back off, retry).
const LOCK_WAIT_BUDGET: Duration = Duration::from_millis(20);

/// Unit of a writer's lock-wait schedule ([`LockWatch::pause`]): the sleep
/// after its third locked-word sighting, doubling per sighting up to 32×.
const LOCK_BACKOFF: Duration = Duration::from_micros(2);

/// Backoff before a writer's walk whose READ failed over walks again: the
/// primary that did not serve is down, cut off, or moved, and the READ that
/// failed over has started the descriptor refresh that finds its successor.
const FAILOVER_BACKOFF: Duration = Duration::from_micros(500);

/// Most bytes of slots one `bulk_load` WRITE carries: the upload renders
/// that many into one reused buffer, cut down to whole slots so that no
/// slot straddles two WRITEs (128-byte slots divide it).
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
    /// Locked words observed so far, the same word counted every time.
    sightings: u32,
}

impl LockWatch {
    fn new(now: SimTime) -> LockWatch {
        LockWatch {
            deadline: now + LOCK_WAIT_BUDGET,
            first: None,
            stable: true,
            spent: false,
            sightings: 0,
        }
    }

    /// Records one locked-word sighting.
    fn observe(&mut self, slot: u64, word: u64, now: SimTime) {
        self.sightings += 1;
        match self.first {
            None => self.first = Some((slot, word, now)),
            Some((s, w, _)) if (s, w) != (slot, word) => self.stable = false,
            _ => {}
        }
    }

    /// How long to wait after the latest sighting before the next CAS. The
    /// first two re-CAS at once: a holder that locked before this op's CAS
    /// landed publishes one RTT later, when the retry lands, and the second
    /// covers losing that race to one other waiter. From the third on the
    /// slot is contended, so waiters thin out: sighting k sleeps
    /// [`LOCK_BACKOFF`] × 2^(k−3) — 2^k / 8 in integers, 0 below k = 3 —
    /// capped at 32 × [`LOCK_BACKOFF`] from k = 8.
    fn pause(&self) -> Duration {
        LOCK_BACKOFF * ((1 << self.sightings.min(8)) / 8)
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

/// Name of table `name`'s data region. The `@g1` suffix is what the first
/// data region was called while a table could grow into further ones; it
/// stays because tools outside this module (the elastic benchmark
/// workload, E15) and tests look the data region up by this name.
fn data_name(name: &str) -> String {
    format!("{name}@g1")
}

/// Maps `name`, tolerating degraded backing regions if `degraded`.
async fn map_region(client: &RStoreClient, name: &str, degraded: bool) -> Result<Region> {
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
/// images and the slots `bulk_load` renders for its upload all go through
/// it, so they share one validation rule.
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
    /// The key's live entry: its slot, its header and whether the primary
    /// served every READ of the walk. The image is still in the table's
    /// probe scratch.
    Hit(u64, SlotHdr, bool),
    /// The key is absent; the first reusable slot of its chain (a tombstone
    /// or the never-used slot that ended the walk), that slot's stable
    /// version and whether the primary served every READ of the walk.
    Hole(u64, u64, bool),
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
    buckets: u64,
    slot_bytes: u64,
}

impl TableMeta {
    fn encode(&self) -> [u8; META_BYTES as usize] {
        let mut out = [0u8; META_BYTES as usize];
        out[0..8].copy_from_slice(&KV_MAGIC.to_le_bytes());
        out[8..16].copy_from_slice(&self.buckets.to_le_bytes());
        out[16..24].copy_from_slice(&self.slot_bytes.to_le_bytes());
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
            buckets: word(1),
            slot_bytes: word(2),
        })
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
/// Create once with [`KvTable::create`], which fixes its bucket count;
/// open from any client with [`KvTable::open`]. All clients see the same
/// table, and concurrent writers are safe (per-slot CAS locks). The handle
/// owns no connections of its own: all its IO, CAS included, uses the
/// owning client's data QPs and their re-dial.
pub struct KvTable {
    meta: Region,
    data: Region,
    /// `buckets - 1`, hoisted: probe positions are `(start + i) & mask`.
    mask: u64,
    dev: RdmaDevice,
    slot_bytes: u64,
    max_probe: u64,
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
        f.debug_struct("KvTable")
            .field("name", &self.meta.name())
            .field("buckets", &self.buckets())
            .field("slot_bytes", &self.slot_bytes)
            .finish()
    }
}

impl Drop for KvTable {
    fn drop(&mut self) {
        // Degraded reopens under chaos open fresh handles every retry; without
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

impl KvTable {
    /// Creates a new table named `name` and opens it. Its bucket count,
    /// `cfg.buckets` rounded up to a power of two, is fixed from here on.
    ///
    /// Allocates the meta region under `name` and the data region under
    /// `{name}@g1`.
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
            .alloc(&data_name(name), buckets * cfg.slot_bytes, cfg.opts)
            .await
        {
            Ok(r) => r,
            Err(e) => {
                let _ = client.free(name).await;
                return Err(e);
            }
        };
        let m = TableMeta {
            buckets,
            slot_bytes: cfg.slot_bytes,
        };
        let none = OpLedger::disabled();
        if let Err(e) = meta.write_l(0, &m.encode(), &none).await {
            let _ = client.free(&data_name(name)).await;
            let _ = client.free(name).await;
            return Err(e);
        }
        Self::from_parts(client, meta, data, m, cfg.max_probe)
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
        let meta = map_region(client, name, degraded).await?;
        let m = Self::read_meta(&meta, slot_bytes, &OpLedger::disabled()).await?;
        let data = map_region(client, &data_name(name), degraded).await?;
        Self::from_parts(client, meta, data, m, max_probe)
    }

    /// The handle over `meta` and `data`, which must be exactly the table
    /// the meta block `m` says it is.
    fn from_parts(
        client: &RStoreClient,
        meta: Region,
        data: Region,
        m: TableMeta,
        max_probe: u64,
    ) -> Result<KvTable> {
        let dev = client.device().clone();
        if !m.buckets.is_power_of_two() || data.size() != m.buckets * m.slot_bytes {
            return Err(RStoreError::Protocol(
                "kv meta block disagrees with the data region size".into(),
            ));
        }
        if !data.desc().stripe_size.is_multiple_of(m.slot_bytes) {
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
        Ok(KvTable {
            meta,
            data,
            mask: m.buckets - 1,
            stats: KvStats::resolve(&dev.metrics()),
            dev,
            slot_bytes: m.slot_bytes,
            max_probe,
            hints: RefCell::new(HintCache::new(hint_cap)),
            scratch,
            probe_buf,
            probe_scratch: RefCell::new(vec![0u8; m.slot_bytes as usize]),
            img_scratch: RefCell::new(Vec::with_capacity(m.slot_bytes as usize)),
            ios_scratch: RefCell::new(Vec::new()),
        })
    }

    /// Capacity in buckets.
    pub fn buckets(&self) -> u64 {
        self.mask + 1
    }

    /// Largest value length a slot can hold for a key of `klen` bytes.
    pub fn value_capacity(&self, klen: usize) -> u64 {
        (self.slot_bytes - HDR_BYTES as u64).saturating_sub(klen as u64)
    }

    fn hint_for(&self, key: &[u8]) -> Option<SlotHint> {
        self.hints.borrow().lookup(key)
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
        let node = Layout::of(&desc)
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
        self.dev.with_mem(|m| m.read_into(addr, &mut img))?;
        let hdr = SlotHdr::decode(&img).map_err(|CorruptSlot| self.corrupt_err(data, slot))?;
        Ok((hdr, hdr.live() && keys_eq(hdr.key(&img), key)))
    }

    /// READs `n` consecutive slots from `slot` into the front of the
    /// table-lifetime probe buffer (no staging alloc/free per READ). The
    /// device snapshots a READ's whole range at one instant, so every slot
    /// of a window is as atomic against the single-WRITE publish as a lone
    /// slot; a window that straddles a stripe is two pieces in one round.
    /// Returns whether the primary served all of it: only the primary's view
    /// may feed a CAS, which goes to the primary (module docs, "Locks and
    /// failures").
    async fn read_window(
        &self,
        data: &Region,
        slot: u64,
        n: u64,
        ledger: &OpLedger,
    ) -> Result<bool> {
        let (sb, failovers) = (self.slot_bytes, data.failovers());
        data.read_into_l(slot * sb, self.probe_buf.slice(0, n * sb), ledger)
            .await?;
        Ok(data.failovers() == failovers)
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
    /// holder is done (module docs, "Locks and failures"). It restarts the
    /// same way, after one backoff, when a READ failed over: its CAS goes to
    /// the primary, so it acts only on what the primary holds.
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
        // The probe positions whose slots sit in the probe buffer, in order,
        // and whether the primary served every READ of this walk.
        let (mut probe, mut landed, mut primary) = (0, 0..0, true);
        while probe < limit {
            let slot = (start + probe) & mask;
            if !landed.contains(&probe) {
                let n = if probe == 0 { 1 } else { window };
                let n = n.min(limit - probe).min(mask + 1 - slot);
                let served = self.read_window(data, slot, n, ledger).await?;
                if let (false, Some(watch)) = (served, writer.as_deref_mut()) {
                    ledger.retry();
                    self.lock_wait(watch.deadline, FAILOVER_BACKOFF).await?;
                    (probe, hole, landed, primary) = (0, None, 0..0, true);
                    continue;
                }
                (landed, primary) = (probe..probe + n, primary && served);
            }
            let at = self.probe_buf.addr + (probe - landed.start) * sb;
            let (hdr, matched) = self.decode_landed(data, slot, at, key)?;
            if let (true, Some(watch)) = (hdr.locked(), writer.as_deref_mut()) {
                ledger.retry();
                self.lock_wait_on(data, watch, slot, hdr.word, ledger)
                    .await?;
                (probe, hole, landed, primary) = (0, None, 0..0, true);
                continue;
            }
            if matched {
                return Ok(Found::Hit(slot, hdr, primary));
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
        let found = |(slot, version)| Found::Hole(slot, version, primary);
        Ok(hole.map_or(Found::Absent, found))
    }

    /// One bounded backoff tick: errors once the op's virtual-time
    /// `deadline` has passed (a lock holder crashed or is stalled behind a
    /// degraded window, or the primary will not serve — every further round
    /// costs a remote re-read), otherwise sleeps `backoff` before the caller
    /// retries.
    async fn lock_wait(&self, deadline: SimTime, backoff: Duration) -> Result<()> {
        if self.dev.sim().now() >= deadline {
            return Err(RStoreError::Io(CqStatus::Timeout));
        }
        self.dev.sim().sleep(backoff).await;
        Ok(())
    }

    /// [`lock_wait`](Self::lock_wait) for a writer's waits where the
    /// blocking word is known: feeds the sighting into `watch` and sleeps
    /// what its schedule says ([`LockWatch::pause`]: nothing for the first
    /// two sightings). At the deadline — checked first, so a late waiter
    /// takes no free round — it breaks the lock with
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
        let pause = watch.pause();
        if !pause.is_zero() {
            let span = ledger.begin(Phase::LockWait, now);
            self.dev.sim().sleep(pause).await;
            ledger.end(span, self.dev.sim().now());
        }
        Ok(())
    }

    // --- reads ---------------------------------------------------------------

    /// Looks up `key`, returning its value if present.
    ///
    /// Purely one-sided: a warm hint is **one RDMA READ**; a miss walks the
    /// chain — one READ for the home slot, then one per
    /// `PROBE_WINDOW_BYTES` window. A slot a writer holds is read through:
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
        self.data
            .with_revalidate(ledger, || self.get_once(key, ledger))
            .await
    }

    async fn get_once(&self, key: &[u8], ledger: &OpLedger) -> Result<Option<Vec<u8>>> {
        let data = &self.data;

        // Hinted fast path: read the remembered slot directly. The key
        // stored in the slot validates the hint — no version check needed
        // for reads. A hint is taken only from what the primary served: a
        // secondary that took a failed publish can name a version the
        // primary later gives another key (module docs, "Locks and
        // failures").
        if let Some(h) = self.hint_for(key) {
            let primary = self.read_window(data, h.slot, 1, ledger).await?;
            let (hdr, matched) = self.decode_landed(data, h.slot, self.probe_buf.addr, key)?;
            if matched {
                self.stats.hit.incr();
                if primary {
                    let version = hdr.version;
                    self.install_hint(key, SlotHint { version, ..h });
                }
                return Ok(Some(self.landed_value(&hdr)));
            }
            // The slot's committed view holds another key or none: the key
            // moved on.
            self.drop_hint(key, &self.stats.stale);
        } else {
            self.stats.miss.incr();
        }

        match self.walk(data, self.mask, key, None, ledger).await? {
            Found::Hit(slot, hdr, primary) => {
                if primary {
                    let version = hdr.version;
                    self.install_hint(key, SlotHint { slot, version });
                }
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
            .data
            .with_revalidate(&ledger, || self.multi_get_once(keys, &ledger))
            .await;
        self.meta.finish_ledger_res(&ledger, &result);
        result
    }

    async fn multi_get_once(
        &self,
        keys: &[&[u8]],
        ledger: &OpLedger,
    ) -> Result<Vec<Option<Vec<u8>>>> {
        let (data, mask, sb) = (&self.data, self.mask, self.slot_bytes);
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
                let failovers = data.failovers();
                data.read_into_many_l(&ios, ledger).await?;
                let primary = data.failovers() == failovers;
                let mut out = Vec::with_capacity(keys.len());
                for (key, &(offset, dst)) in keys.iter().zip(&ios) {
                    let slot = offset / sb;
                    let (hdr, matched) = self.decode_landed(data, slot, dst.addr, key)?;
                    out.push(if matched {
                        if primary {
                            let version = hdr.version;
                            self.install_hint(key, SlotHint { slot, version });
                        }
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
    /// A warm hint costs CAS + one full-slot WRITE (2 round trips), even
    /// after other clients updated the key, and one more CAS round per
    /// writer that holds the slot when this one arrives; a cold put walks
    /// first — one READ for the home slot, then one per
    /// `PROBE_WINDOW_BYTES` window of the chain past it.
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
        let image = Image::Entry(key, value);
        let placed = self
            .data
            .with_revalidate(ledger, || self.mutate_key(image, ledger));
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
        let image = Image::Tombstone(key);
        let tombstoned = self
            .data
            .with_revalidate(ledger, || self.mutate_key(image, ledger));
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
        let (data, key) = (&self.data, image.key());
        let mut watch = LockWatch::new(self.dev.sim().now());

        // Hinted fast path: CAS directly on the cached stable version. A
        // slot's version moves only when its key changes, and never comes
        // back, so CAS success proves the slot still holds this key — no
        // probe read needed, however often other clients updated its value
        // since. A CAS that lost to a held lock waits and re-CASes the same
        // version; the hint is stale only if the version moved on.
        if let Some(h) = self.hint_for(key) {
            let watch = Some(&mut watch);
            let mutated = self.mutate(data, h.slot, h.version, true, image, watch, ledger);
            match mutated.await {
                Ok(Some((version, moved))) => {
                    if moved {
                        self.drop_hint(key, &self.stats.stale);
                    } else {
                        self.stats.hit.incr();
                    }
                    return Ok(Some(SlotHint { version, ..h }));
                }
                // The slot holds another key or none: fall back to the walk.
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
            let found = self.walk(data, self.mask, key, Some(&mut watch), ledger);
            let (slot, version, hit, proven) = match (found.await?, image) {
                (Found::Hit(slot, hdr, primary), _) => (slot, hdr.version, true, primary),
                (Found::Hole(slot, version, primary), Image::Entry(..)) => {
                    (slot, version, false, primary)
                }
                _ => return Ok(None),
            };
            let chase = hit.then_some(&mut watch);
            let mutated = self.mutate(data, slot, version, proven, image, chase, ledger);
            if let Some((version, _)) = mutated.await? {
                return Ok(Some(SlotHint { slot, version }));
            }
            // Lost the lock race on a hole, or the chase found the key gone:
            // the chain may have changed under the winner, so walk again.
            ledger.retry();
            self.lock_wait(watch.deadline, LOCK_BACKOFF).await?;
        }
    }

    /// The locked mutation of one slot observed at stable `version`: lock
    /// it with a tagged CAS, then publish `image` in one WRITE that also
    /// releases the lock. Returns the published stable version and whether
    /// the lock was taken over another version than `version` (the slot's
    /// key changed in between), or `None`, with nothing changed, if the CAS
    /// lost on a hole (`chase` is `None`), a chase found the key gone, or
    /// the read-back disproved what a secondary showed.
    ///
    /// `proven` says the primary served every READ that saw the slot at
    /// `version` (a writer's walk restarts until it does, so only a direct
    /// caller passes `false`). A CAS over a proven `version` needs no proof;
    /// any other carries the slot's read-back, and publishes only if the
    /// image under its own lock holds the key — so a hole only a secondary
    /// showed is never filled (the key may live further down the primary's
    /// chain): the caller walks again. With `chase`, the slot was seen
    /// holding the key, and a CAS that loses continues from the word it
    /// returned: an even word is locked at once, an odd one is waited out
    /// through `chase` and then `pre_lock_version(word)` is locked. An entry
    /// published over the key's own entry keeps the slot's version; a
    /// tombstone, or an entry in a hole, moves it on by 2 (module docs,
    /// "Locks and failures").
    ///
    /// Any error once a lock CAS was posted — the CAS's own, whose swap
    /// may have executed, or the publish's — is surfaced after one
    /// [`unlock`](Self::unlock) of this attempt's word. The op was never
    /// acknowledged, and the slot is left holding its old image or, where
    /// the publish reached the primary, the new one (module docs, "Locks
    /// and failures").
    #[allow(clippy::too_many_arguments)]
    async fn mutate(
        &self,
        data: &Region,
        slot: u64,
        version: u64,
        proven: bool,
        image: Image<'_>,
        mut chase: Option<&mut LockWatch>,
        ledger: &OpLedger,
    ) -> Result<Option<(u64, bool)>> {
        let (sb, mut word, mut chased) = (self.slot_bytes, version, false);
        let (lock, held) = loop {
            if let (1, Some(watch)) = (word % 2, chase.as_deref_mut()) {
                self.lock_wait_on(data, watch, slot, word, ledger).await?;
                word = pre_lock_version(word);
            }
            if chased {
                self.stats.chase.incr();
            }
            let lock = lock_word(word, next_nonce());
            let read_back = (word != version || !proven).then(|| self.probe_buf.slice(0, sb));
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
        // With `chase` the slot holds the key: an entry over it keeps the
        // key's version.
        let keeps = chase.is_some() && matches!(image, Image::Entry(..));
        let next = if keeps { word } else { word + 2 };
        let published = match held {
            Ok(true) => {
                let written = self.publish(data, slot, next, image, ledger).await;
                written.map(|()| Some((next, word != version)))
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

    /// Publishes `image` over a slot this client holds locked, in one
    /// WRITE: `[version | header | key | value]` (or the 16-byte tombstone
    /// header), under the stable `version` the caller chose, lands
    /// atomically — a slot never straddles a stripe, so this is a single WR
    /// per replica — releasing the lock in the same op. Readers either see
    /// the old locked word or the complete new image, never a torn body.
    ///
    /// The image is assembled in the table-lifetime `img_scratch` buffer
    /// (taken for the duration of the WRITE, restored after — a concurrent
    /// publish on the same handle just allocates a fresh one);
    /// [`Region::write_l`] stages it like any other region write.
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
        SlotHdr::write_entry(&mut img, version, key, value);
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

    // --- meta block and bulk load ----------------------------------------------

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

    /// Loads `entries` into the table with a few large WRITEs — orders of
    /// magnitude fewer round trips than per-key puts. Intended for
    /// populating a **freshly created** table: existing slots are
    /// clobbered, and concurrent mutations from other clients are not
    /// coordinated with. Later entries overwrite earlier ones with the same
    /// key. Returns the number of distinct keys loaded.
    ///
    /// The load has two phases and iterates `entries` once. *Place* puts
    /// each entry over its key's entry if an earlier one placed the key,
    /// else in the first never-used slot of the key's probe window; it
    /// holds one packed copy of the entries' keys and values (each with a
    /// 4-byte length word, padded to 4 bytes) and a slot index of 4 bytes
    /// per slot. *Upload* renders up to 4 MiB of whole slots at a time
    /// from them into one reused buffer and writes each in one WRITE. The
    /// host memory a load holds therefore grows with the entries, not with
    /// the table: their bytes, 4 bytes per slot and one 4 MiB buffer.
    /// Nothing is written unless every entry was placed.
    ///
    /// # Errors
    ///
    /// [`RStoreError::Protocol`] for invalid keys/values,
    /// [`RStoreError::InsufficientCapacity`] if some probe window fills or
    /// the packed entries outgrow the index's 16 GiB reach, and IO failures.
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
        let full = || RStoreError::InsufficientCapacity {
            requested: self.slot_bytes,
        };
        // Slot → where its record starts in `bytes`, in 4-byte units: a
        // `[klen << 16 | vlen]` u32 (check_entry bounds both by u16::MAX),
        // the key and the value, padded to 4 bytes. 0 is the never-used
        // slot: the empty record `bytes` starts with.
        let mut slots = vec![0u32; (self.mask + 1) as usize];
        let (mut bytes, mut count) = (vec![0u8; 4], 0);
        for (key, value) in entries {
            let (key, value) = (key.as_ref(), value.as_ref());
            self.check_entry(key, value)?;
            let home = hash_key(key) & self.mask;
            let slot = (0..self.max_probe.min(self.mask + 1))
                .map(|probe| ((home + probe) & self.mask) as usize)
                .find(|&s| slots[s] == 0 || keys_eq(staged(&bytes, slots[s]).0, key))
                .ok_or_else(full)?;
            count += u64::from(slots[slot] == 0);
            slots[slot] = u32::try_from(bytes.len() / 4).map_err(|_| full())?;
            bytes.extend(((key.len() << 16 | value.len()) as u32).to_le_bytes());
            bytes.extend(key.iter().chain(value));
            bytes.resize(bytes.len().next_multiple_of(4), 0);
        }
        ledger.set_units(count);
        // Whole slots per WRITE: no slot straddles two.
        let sb = self.slot_bytes as usize;
        let per_write = (COPY_CHUNK as usize / sb).max(1);
        let mut buf = vec![0u8; per_write.min(slots.len()) * sb];
        for (i, index) in slots.chunks(per_write).enumerate() {
            let chunk = &mut buf[..index.len() * sb];
            for (img, &r) in chunk.chunks_exact_mut(sb).zip(index) {
                let (key, value) = staged(&bytes, r);
                SlotHdr::write_entry(img, if r == 0 { 0 } else { 2 }, key, value);
            }
            let at = (i * per_write * sb) as u64;
            self.data.write_l(at, chunk, ledger).await?;
        }
        self.hints.borrow_mut().clear();
        Ok(count)
    }
}

/// The key and value of the record that `bulk_load` packed `at` 4-byte
/// units into `bytes`.
fn staged(bytes: &[u8], at: u32) -> (&[u8], &[u8]) {
    let run = &bytes[at as usize * 4..];
    let lens = u32::from_le_bytes(run[..4].try_into().expect("4-byte header")) as usize;
    run[4..][..(lens >> 16) + (lens & 0xffff)].split_at(lens >> 16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use std::cell::Cell;
    use std::collections::HashSet;

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
            let raw = client.map(&data_name("chain")).await.unwrap();
            let none = OpLedger::disabled();
            let word = raw.read_l(7 * 128, 8, &none).await.unwrap();
            let version = u64::from_le_bytes(word[..].try_into().unwrap());
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
    fn a_hinted_put_stays_one_cas_and_one_write_after_other_clients_update_the_key() {
        // Another handle updated the key three times since this handle took
        // its hint. An update keeps the slot's version, so the hinted CAS
        // still wins: 2 RTTs and 2 WRs (no read-back), a hit, no chase. The
        // version each handle sees is the one the key was inserted at.
        let cluster = boot(2);
        let sim = cluster.sim.clone();
        sim.recorder().enable(sim::Level::Costs, 0);
        sim.block_on(async move {
            let (c0, c1) = (
                cluster.client(0).await.unwrap(),
                cluster.client(1).await.unwrap(),
            );
            let cfg = small_cfg();
            let kv0 = KvTable::create(&c0, "warm", cfg).await.unwrap();
            let kv1 = KvTable::open(&c1, "warm", cfg.slot_bytes, cfg.max_probe);
            let kv1 = kv1.await.unwrap();
            let metrics = c1.device().metrics();
            let counters =
                || ["kv.index.stale", "kv.index.hit", "kv.lock.chase"].map(|n| metrics.counter(n));

            kv0.put(b"a", b"v1").await.unwrap();
            assert_eq!(kv1.get(b"a").await.unwrap().as_deref(), Some(&b"v1"[..]));
            for v in [&b"v2"[..], b"v3", b"v4"] {
                kv0.put(b"a", v).await.unwrap();
            }
            metrics.reset();
            kv1.put(b"a", b"mine").await.unwrap();
            let ops = sim::ledger::summarize(&metrics);
            let put = ops.iter().find(|s| s.op == "put").expect("a put");
            assert_eq!((put.rtts_max, put.retries), (2, 0), "CAS, publish");
            let wrs = metrics.histogram("rdma.doorbell_wrs").unwrap().sum();
            assert_eq!(wrs, 2, "one CAS and one WRITE, no read-back");
            assert_eq!(counters(), [0, 1, 0], "a hit, not stale");
            assert_eq!(kv0.get(b"a").await.unwrap().as_deref(), Some(&b"mine"[..]));
            let home = hash_key(b"a") & (cfg.buckets - 1);
            let hints = [&kv0, &kv1].map(|kv| kv.hint_for(b"a").unwrap());
            assert!(hints.iter().all(|h| (h.slot, h.version) == (home, 2)));
        });
    }

    #[test]
    fn a_slot_version_moves_only_when_its_key_changes() {
        // Updates republish the version the key was inserted at; a delete,
        // and the insert that reuses the tombstone, each move it by 2.
        let cluster = boot(1);
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let cfg = small_cfg();
            let kv = KvTable::create(&client, "tenure", cfg).await.unwrap();
            let off = (hash_key(b"k") & (cfg.buckets - 1)) * cfg.slot_bytes;
            let raw = client.map(&data_name("tenure")).await.unwrap();
            let word = || async {
                u64::from_le_bytes(raw.read(off, 8).await.unwrap()[..].try_into().unwrap())
            };
            let steps = [
                ("insert", Some(&b"v1"[..]), 2),
                ("update", Some(b"v2"), 2),
                ("update", Some(b"v3"), 2),
                ("delete", None, 4),
                ("reinsert", Some(b"v4"), 6),
                ("update", Some(b"v5"), 6),
            ];
            for (step, value, version) in steps {
                match value {
                    Some(v) => kv.put(b"k", v).await.unwrap(),
                    None => assert!(kv.delete(b"k").await.unwrap()),
                }
                assert_eq!(word().await, version, "after {step}");
                assert_eq!(kv.get(b"k").await.unwrap().as_deref(), value, "{step}");
            }
        });
    }

    #[test]
    fn a_lost_hinted_cas_chases_the_word_it_returned() {
        // (a) Another handle deleted the key and inserted it again, into
        // the same slot: the version moved on twice. The hinted CAS returns
        // it, and one chase round locks it with the read-back, which shows
        // the key — CAS, chase, publish = 3 RTTs, and the put leaves a
        // fresh hint at the new version. (b) Slot reuse: another handle
        // deleted the key and inserted a colliding key into the same slot.
        // The chase locks that slot's new version, but the read-back shows
        // the foreign key, so it unlocks and walks; the colliding key's
        // value stays intact.
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

            let mask = cfg.buckets - 1;
            let raw = c0.map(&data_name("stale")).await.unwrap();
            let off = (hash_key(b"a") & mask) * cfg.slot_bytes;
            let word = || async {
                u64::from_le_bytes(raw.read(off, 8).await.unwrap()[..].try_into().unwrap())
            };
            kv0.put(b"a", b"v1").await.unwrap();
            assert_eq!(kv1.get(b"a").await.unwrap().as_deref(), Some(&b"v1"[..]));
            let version = word().await;
            assert!(kv0.delete(b"a").await.unwrap());
            kv0.put(b"a", b"v2").await.unwrap();
            assert_eq!(word().await, version + 4, "reinserted into its tombstone");
            metrics.reset();
            kv1.put(b"a", b"mine").await.unwrap();
            assert_eq!(
                (put().rtts_max, put().retries),
                (3, 1),
                "CAS, chase, publish"
            );
            assert_eq!(counters(), [1, 0, 1], "stale, not a hit");
            assert_eq!(word().await, version + 4, "the key's version");
            assert_eq!(kv0.get(b"a").await.unwrap().as_deref(), Some(&b"mine"[..]));
            metrics.reset();
            kv1.put(b"a", b"again").await.unwrap();
            assert_eq!(put().rtts_max, 2, "the chase left a fresh hint");

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
    fn a_version_only_a_secondary_showed_is_proven_by_the_read_back() {
        // A writer's walk whose READ failed over saw the slot at version 2,
        // holding the key (a secondary that took a failed insert) or as a
        // hole, but the primary holds another key at 2. Unproven, the CAS
        // wins and carries the read-back, which shows the other key: nothing
        // is published and the lock is released.
        let cluster = boot(1);
        let sim = cluster.sim.clone();
        sim.recorder().enable(sim::Level::Costs, 0);
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let cfg = small_cfg();
            let kv = KvTable::create(&client, "unproven", cfg).await.unwrap();
            kv.put(b"j", b"theirs").await.unwrap();
            let slot = hash_key(b"j") & (cfg.buckets - 1);
            let raw = client.map(&data_name("unproven")).await.unwrap();
            let data = &kv.data;
            let metrics = client.device().metrics();
            let ledger = OpLedger::disabled();
            for hit in [true, false] {
                let mut watch = LockWatch::new(kv.dev.sim().now());
                let chase = hit.then_some(&mut watch);
                let image = Image::Entry(b"k", b"mine");
                metrics.reset();
                let mutated = kv.mutate(data, slot, 2, false, image, chase, &ledger);
                assert_eq!(mutated.await.unwrap(), None, "hit {hit}");
                let wrs = metrics.histogram("rdma.doorbell_wrs").unwrap().sum();
                assert_eq!(wrs, 3, "hit {hit}: CAS and read-back, unlock");
                let word = raw.read(slot * cfg.slot_bytes, 8).await.unwrap();
                assert_eq!(u64::from_le_bytes(word[..].try_into().unwrap()), 2);
                assert_eq!(kv.get(b"j").await.unwrap().as_deref(), Some(&b"theirs"[..]));
            }
        });
    }

    #[test]
    fn a_chase_locks_what_the_holder_leaves() {
        // A holder has the key's slot locked over the hinted version and
        // acts 1 µs (prompt: before the first chase CAS lands) or 5 µs (slow:
        // after the second) into the put; the hinted CAS returns its lock
        // word, and every chase round waits what the op's schedule says,
        // then CASes again — never a walk while the key stays. (c) The
        // holder updates the value, or (d) unlocks: either leaves the
        // pre-lock version, so the chase's CAS on it wins without a
        // read-back and the version stays. The first two sightings re-CAS
        // at once, so the prompt case sleeps not at all and the slow one
        // one `LOCK_BACKOFF`, at its third sighting. (e) The holder deletes
        // the key: the CAS returns the tombstone's version, the next round
        // locks it with the read-back, sees no key, unlocks and walks, and
        // the insert into the tombstone moves the version on again.
        for holder_does in ["update", "unlock", "delete"] {
            for acts_at in [1, 5] {
                let cluster = boot(1);
                let sim = cluster.sim.clone();
                sim.recorder().enable(sim::Level::Costs, 0);
                let s = sim.clone();
                sim.block_on(async move {
                    let client = cluster.client(0).await.unwrap();
                    let cfg = small_cfg();
                    let kv = KvTable::create(&client, "held", cfg).await.unwrap();
                    kv.put(b"k", b"v1").await.unwrap();
                    // A warm put is a CAS and a WRITE, one RTT each.
                    let t = s.now();
                    kv.put(b"k", b"v1").await.unwrap();
                    let rtt = s.now().saturating_since(t) / 2;
                    let off = (hash_key(b"k") & (cfg.buckets - 1)) * cfg.slot_bytes;
                    let raw = client.map(&data_name("held")).await.unwrap();
                    let none = OpLedger::disabled();
                    async fn word(raw: &Region, off: u64) -> u64 {
                        u64::from_le_bytes(raw.read(off, 8).await.unwrap()[..].try_into().unwrap())
                    }
                    let version = word(&raw, off).await;
                    let locked = lock_word(version, 0x77).to_le_bytes();
                    raw.write_l(off, &locked, &none).await.unwrap();
                    let (holder, hsim) = (raw.clone(), s.clone());
                    let holder = s.spawn(async move {
                        hsim.sleep(Duration::from_micros(acts_at)).await;
                        let mut img = vec![0u8; 128];
                        let none = OpLedger::disabled();
                        match holder_does {
                            "update" => SlotHdr::write_entry(&mut img, version, b"k", b"held"),
                            "delete" => SlotHdr::write_entry(&mut img, version + 2, b"", b""),
                            _ => img = version.to_le_bytes().to_vec(),
                        }
                        holder.write_l(off, &img, &none).await
                    });
                    let metrics = client.device().metrics();
                    metrics.reset();
                    let t = s.now();
                    kv.put(b"k", b"v2").await.unwrap();
                    let latency = s.now().saturating_since(t);
                    holder.await.unwrap();
                    let ops = sim::ledger::summarize(&metrics);
                    let put = ops.iter().find(|s| s.op == "put").unwrap();
                    let chases = metrics.counter("kv.lock.chase");
                    let wrs = metrics.histogram("rdma.doorbell_wrs").unwrap().sum();
                    let stale = metrics.counter("kv.index.stale");
                    let case = format!("{holder_does} at {acts_at} µs");
                    if holder_does == "delete" {
                        assert!(chases >= 2, "{case}: {chases} chase rounds");
                        let walk = put.rtts_max - (2 + chases);
                        assert_eq!(walk, 4, "unlock, walk home + window, CAS, publish");
                        assert_eq!(stale, 1, "the key left its slot");
                        assert_eq!(word(&raw, off).await, version + 4, "reinserted");
                    } else {
                        let (rounds, sleeps) = if acts_at == 1 { (1, 0) } else { (3, 1) };
                        assert_eq!(chases, rounds, "{case}: chase rounds");
                        assert_eq!(put.rtts_max, 2 + chases, "CAS, the chase rounds, publish");
                        // One WR per RTT, no read-back, and the holder's WRITE.
                        assert_eq!(wrs, put.rtts_max + 1, "{case}: WRs");
                        assert_eq!(stale, 0, "{case}: the hint held");
                        assert_eq!(word(&raw, off).await, version, "the version stays");
                        let slept = latency.saturating_sub(rtt * put.rtts_max as u32);
                        assert!(
                            slept >= LOCK_BACKOFF * sleeps && slept < LOCK_BACKOFF * (sleeps + 1),
                            "{case}: {latency:?} is {} RTTs of {rtt:?} and {sleeps} backoffs",
                            put.rtts_max
                        );
                    }
                    assert_eq!(kv.get(b"k").await.unwrap().as_deref(), Some(&b"v2"[..]));
                });
            }
        }
    }

    #[test]
    fn lock_waits_double_from_the_third_sighting_and_stop_at_the_deadline() {
        // Sightings 1 and 2 re-CAS at once; from the third the wait doubles
        // from `LOCK_BACKOFF` up to its 32× cap.
        let mut watch = LockWatch::new(SimTime::ZERO);
        let waits: Vec<u64> = (0..9)
            .map(|_| {
                watch.observe(7, lock_word(2, 1), SimTime::ZERO);
                watch.pause().as_micros() as u64
            })
            .collect();
        assert_eq!(waits, [0, 0, 2, 4, 8, 16, 32, 64, 64]);

        // A waiter already past its deadline takes no free round, even on
        // its first sighting: it errors, or breaks the lock it watched for
        // `ORPHAN_BREAK_AGE` — and posts no lock CAS either way.
        let cluster = boot(1);
        let sim = cluster.sim.clone();
        sim.recorder().enable(sim::Level::Costs, 0);
        let s = sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let cfg = small_cfg();
            let kv = KvTable::create(&client, "late", cfg).await.unwrap();
            kv.put(b"k", b"v1").await.unwrap();
            let slot = hash_key(b"k") & (cfg.buckets - 1);
            let raw = client.map(&data_name("late")).await.unwrap();
            let data = &kv.data;
            let none = OpLedger::disabled();
            let read_word = || async {
                let word = raw.read(slot * cfg.slot_bytes, 8).await.unwrap();
                u64::from_le_bytes(word[..].try_into().unwrap())
            };
            let version = read_word().await;
            let lock = lock_word(version, 0x55);
            raw.write_l(slot * cfg.slot_bytes, &lock.to_le_bytes(), &none)
                .await
                .unwrap();
            let metrics = client.device().metrics();
            // First a waiter that never saw this word before (it errors),
            // then one that has watched it since the op began (it breaks it).
            for watched in [false, true] {
                let mut watch = LockWatch::new(s.now());
                if watched {
                    watch.observe(slot, lock, s.now());
                }
                s.sleep(LOCK_WAIT_BUDGET).await;
                metrics.reset();
                let waited = kv.lock_wait_on(data, &mut watch, slot, lock, &none);
                let wrs = || {
                    metrics
                        .histogram("rdma.doorbell_wrs")
                        .map_or(0, |h| h.sum())
                };
                if watched {
                    waited.await.unwrap();
                    assert_eq!(wrs(), 1, "the unlock CAS alone");
                    assert_eq!(read_word().await, version, "the orphan is gone");
                } else {
                    let err = waited.await.unwrap_err();
                    assert!(matches!(err, RStoreError::Io(CqStatus::Timeout)), "{err:?}");
                    assert_eq!(wrs(), 0, "no CAS posted");
                    assert_eq!(read_word().await, lock, "the lock stays");
                }
            }
        });
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
                let raw = client.map(&data_name(table)).await.unwrap();
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

    type Entries = Vec<(Vec<u8>, Vec<u8>)>;

    /// The whole-table host image the loader used to build, kept as the
    /// reference for `bulk_load`: each entry goes over its key's entry if
    /// the image holds the key, else in the first never-used slot of its
    /// probe window. `Err(i)`: entry `i` found its window full.
    fn reference_image(cfg: &KvConfig, entries: &Entries) -> std::result::Result<Vec<u8>, usize> {
        let (sb, mask) = (cfg.slot_bytes as usize, cfg.buckets - 1);
        let mut img = vec![0u8; (mask + 1) as usize * sb];
        'entries: for (i, (key, value)) in entries.iter().enumerate() {
            let home = hash_key(key) & mask;
            for probe in 0..cfg.max_probe.min(mask + 1) {
                let slot = &mut img[((home + probe) & mask) as usize * sb..][..sb];
                let Ok(hdr) = SlotHdr::decode(slot) else {
                    continue;
                };
                if hdr.live() && !keys_eq(hdr.key(slot), key) {
                    continue;
                }
                SlotHdr::write_entry(slot, 2, key, value);
                continue 'entries;
            }
            return Err(i);
        }
        Ok(img)
    }

    /// A seeded stream of `n` entries over `pool` keys, so keys repeat,
    /// with values of random length (empty included) that fit the slot,
    /// followed by `wrap` distinct keys whose home is one of the table's
    /// last two slots, so that their probe windows wrap past the last slot.
    fn load_stream(seed: u64, cfg: &KvConfig, n: usize, pool: usize, wrap: usize) -> Entries {
        let mut rng = sim::DetRng::new(seed);
        let payload = cfg.slot_bytes as usize - HDR_BYTES;
        let mut entries: Entries = (0..n)
            .map(|_| {
                let key = format!("key{}", rng.index(pool)).into_bytes();
                let mut value = vec![0u8; rng.index(payload - key.len() + 1)];
                rng.fill_bytes(&mut value);
                (key, value)
            })
            .collect();
        let tail = (0u64..)
            .map(|j| format!("wrap{j}").into_bytes())
            .filter(|k| hash_key(k) & (cfg.buckets - 1) >= cfg.buckets - 2)
            .take(wrap);
        entries.extend(tail.map(|k| (k, b"w".to_vec())));
        entries
    }

    /// A table created from `cfg` with stripes of 512 slots.
    async fn load_table(client: &RStoreClient, name: &str, cfg: &KvConfig) -> KvTable {
        let cfg = KvConfig {
            opts: AllocOptions {
                stripe_size: cfg.slot_bytes * 512,
                ..AllocOptions::default()
            },
            ..*cfg
        };
        KvTable::create(client, name, cfg).await.unwrap()
    }

    #[test]
    fn bulk_load_writes_the_reference_image() {
        let cluster = boot(1);
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            // Small tables with long chains, and tables of 2^16 slots that
            // take two (128 B) and three (192 B) COPY_CHUNK writes.
            let cases = [(64, 16, 120, 40), (1 << 16, 32, 6000, 4000)];
            for (i, (sb, (buckets, max_probe, n, pool))) in [128, 192]
                .into_iter()
                .flat_map(|sb| cases.map(|c| (sb, c)))
                .enumerate()
            {
                let cfg = KvConfig {
                    buckets,
                    slot_bytes: sb,
                    max_probe,
                    ..small_cfg()
                };
                let entries = load_stream(0xB01D + i as u64, &cfg, n, pool, 6);
                let want = reference_image(&cfg, &entries).expect("the stream fits");
                let distinct: HashSet<&Vec<u8>> = entries.iter().map(|(k, _)| k).collect();
                // At most two of the six keys homed in the last two slots
                // fit there; the rest wrap to the table's front.
                let wrapped = (0..max_probe as usize)
                    .map(|s| &want[s * sb as usize..][..sb as usize])
                    .filter(|img| {
                        SlotHdr::decode(img).is_ok_and(|h| h.key(img).starts_with(b"wrap"))
                    })
                    .count();
                assert!(wrapped >= 4, "case {i}: {wrapped} windows wrapped");
                let kv = load_table(&client, &format!("ref{i}"), &cfg).await;
                assert_eq!(
                    kv.bulk_load(entries.clone()).await.unwrap(),
                    distinct.len() as u64
                );
                let got = kv.data.read(0, buckets * sb).await.unwrap();
                assert!(
                    got == want,
                    "case {i}: slot {:?} differs",
                    first_diff(&got, &want, sb)
                );
            }
        });
    }

    #[test]
    fn bulk_load_fails_where_a_window_fills_and_writes_nothing() {
        let cluster = boot(1);
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            for (i, sb) in [128u64, 192].into_iter().enumerate() {
                let cfg = KvConfig {
                    buckets: 64,
                    slot_bytes: sb,
                    max_probe: 4,
                    ..small_cfg()
                };
                // 200 entries over 100 keys cannot fit 64 slots.
                let entries = load_stream(0xF011 + i as u64, &cfg, 200, 100, 0);
                let fail_at = reference_image(&cfg, &entries).expect_err("the stream overflows");
                let kv = load_table(&client, &format!("full{i}"), &cfg).await;
                let taken = Cell::new(0);
                let stream = entries.iter().inspect(|_| taken.set(taken.get() + 1));
                let err = kv.bulk_load(stream.map(|(k, v)| (k, v))).await.unwrap_err();
                assert!(
                    matches!(err, RStoreError::InsufficientCapacity { .. }),
                    "{err}"
                );
                assert_eq!(taken.get(), fail_at + 1, "sb {sb}: failed at another entry");
                let region = kv.data.read(0, 64 * sb).await.unwrap();
                assert!(
                    region.iter().all(|&b| b == 0),
                    "sb {sb}: a failed load wrote"
                );
            }
        });
    }

    /// The first slot at which two table images differ.
    fn first_diff(a: &[u8], b: &[u8], sb: u64) -> Option<usize> {
        (0..a.len())
            .find(|&i| a[i] != b[i])
            .map(|i| i / sb as usize)
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
}
