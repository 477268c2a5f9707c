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
//! the warm path needs no probing at all:
//!
//! * **GET** — a hit in the hint cache reads the remembered slot directly:
//!   **one RDMA READ**, regardless of probe-chain depth; the key embedded in
//!   the slot self-validates the hint. A miss probes from the home slot (one
//!   READ per probed bucket) and populates the cache. The slot's seqlock
//!   version detects torn reads.
//! * **PUT / DELETE** — lock the slot with a one-sided compare-and-swap on
//!   its version (odd = locked), then publish the whole new slot image —
//!   version word, header, key, and value — in **one WRITE** that also
//!   releases the lock. A hinted put is CAS + WRITE = 2 round trips; a cold
//!   put pays one extra probe READ. Writers from any client machine
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
//! This module is an *extension* beyond the paper's abstract (flagged in
//! `DESIGN.md`): the paper presents the memory-like API and two
//! applications; a KV facade is the natural third.
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
//! version: success *proves* the slot still holds the hinted key. Slot
//! images read back from the wire are structurally validated (`klen`/`vlen`
//! against `slot_bytes`) before any slicing; corrupt images surface
//! [`RStoreError::CorruptionDetected`], never a panic. `slot_bytes` must
//! divide the region's stripe size so a slot image is always one WR —
//! that single-WRITE publish is what makes it atomic against readers.
//!
//! # Locks and failures
//!
//! A writer that takes the slot lock and then hits an IO failure (its
//! server crashed mid-write) **aborts** the slot before surfacing the
//! error: one small WRITE installs a tombstone header and releases the
//! lock. The op was never acknowledged, so discarding the half-written
//! entry is linearizable, and the lock is never orphaned on replicas that
//! are still reachable. Every lock wait is bounded ([`LOCK_WAIT_BUDGET`] of
//! virtual time per op) and then surfaces [`RStoreError::Io`] — a healthy
//! writer releases within microseconds, so exceeding the budget means the
//! holder crashed or the cluster is degraded, and the caller should retry
//! (possibly after a remap) rather than spin.
//!
//! The locked word itself is tagged: the CAS swaps in `version + 1` with a
//! unique nonce in the high 32 bits ([`lock_word`]). When a CAS surfaces an
//! IO error the outcome is ambiguous — the swap can execute remotely while
//! its completion is lost to a fault-era timeout — so the writer reads the
//! word back, and only if it carries *its own* tag does it abort the slot.
//! Without the tag, a lost-completion CAS would leave the slot locked with
//! no owner, wedging every later writer that hashes to it.
//!
//! A lock can also be orphaned with no surviving owner to abort it: live
//! migration copies extents byte-for-byte, and if a slot is locked at copy
//! time the new extent inherits the odd word while the owner's unlock lands
//! on the sealed, soon-freed source. The key observation is that the body
//! under an odd word is always the intact pre-lock image — the lock CAS
//! touches only the version word, and the publish writes word + body in one
//! WRITE — so any waiter can *break* the lock by CASing the exact tagged
//! word it observed back to the pre-lock stable version, restoring the slot
//! to a state it already had. The nonce makes the observed word unique to
//! one lock attempt (no ABA), and the CAS fails benignly if the owner turns
//! out to be alive and releases first. Waiters only do this after watching
//! the *same* tagged word for most of their wait budget ([`LockWatch`]) —
//! orders of magnitude past a healthy hold time.

use rdma::{CompletionQueue, CqStatus, CqeOpcode, DmaBuf, Qp, RdmaDevice, RemoteAddr};
use sim::{OpLedger, Phase, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::client::RStoreClient;
use crate::error::{RStoreError, Result};
use crate::layout::Layout;
use crate::proto::AllocOptions;
use crate::region::Region;
use crate::DATA_SERVICE;

const HDR_BYTES: u64 = 16;

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
/// each wait round costs a remote re-read — so past this budget the caller
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
/// concluding the fault had some other cause and surfacing it.
const STALE_GEN_BUDGET: Duration = Duration::from_millis(5);

/// Chunk size for the resize copy and `bulk_load` image upload.
const COPY_CHUNK: u64 = 4 << 20;

/// Monotonic source of lock-word nonces. Process-wide: tables opened by any
/// client draw from the same counter, so two in-flight lock attempts never
/// share a lock word and an ambiguous CAS can be attributed by a read-back.
static NEXT_LOCK_NONCE: AtomicU64 = AtomicU64::new(0);

/// The odd version word a locker CASes into a slot: `version + 1` tagged
/// with a unique nonce in the high 32 bits. Stable versions are even and
/// stay below 2^32 (a slot would need ~2 billion mutations to overflow), so
/// the tag never collides with a stable version, and parity checks — all any
/// reader does with a locked word — are unaffected. The nonce lets a writer
/// whose CAS surfaced an IO error decide whether the swap actually executed
/// remotely: only its own attempt can have produced this exact word.
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
/// releases (or aborts) within tens of milliseconds — and its unlock WRITE
/// either lands within wire latency of being posted or never. A word that
/// sits unchanged this long has no owner left to release it.
const ORPHAN_BREAK_AGE: Duration = Duration::from_millis(15);

/// One op's view of the locked slots it has waited on. Feeding every
/// observed `(slot, word)` pair into the watch lets the op tell a live
/// writer (words change between waits) from an orphaned lock (the same
/// tagged word across the whole budget) and break only the latter — see
/// the module docs on migration-orphaned locks.
struct LockWatch {
    /// First locked `(slot, word)` observed, and when.
    first: Option<(u64, u64, SimTime)>,
    /// False once a different slot or word has been seen (live writers).
    stable: bool,
    /// Set after one break attempt so an op never breaks twice.
    spent: bool,
}

impl LockWatch {
    fn new() -> LockWatch {
        LockWatch {
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

/// What a stable slot image means for a particular key's lookup.
enum SlotView {
    /// Never-used slot: ends the probe chain.
    Empty,
    /// This key, with its value.
    Hit(Vec<u8>),
    /// Deleted entry: probing continues past it.
    Tombstone,
    /// A different key's entry.
    Other,
}

/// Marker for a slot image whose header lengths do not fit the slot — a
/// corrupt image that must surface as a structured error, never a panic.
struct CorruptSlot;

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
    map: HashMap<Vec<u8>, SlotHint>,
    fifo: VecDeque<Vec<u8>>,
}

impl HintCache {
    fn new(cap: usize) -> HintCache {
        HintCache {
            cap,
            map: HashMap::new(),
            fifo: VecDeque::new(),
        }
    }

    fn lookup(&self, key: &[u8]) -> Option<SlotHint> {
        self.map.get(key).copied()
    }

    /// Inserts or refreshes a hint; returns how many entries were evicted.
    fn insert(&mut self, key: &[u8], hint: SlotHint) -> u64 {
        if self.cap == 0 {
            return 0;
        }
        if let Some(existing) = self.map.get_mut(key) {
            *existing = hint;
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
        self.map.insert(key.to_vec(), hint);
        self.fifo.push_back(key.to_vec());
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
        let mut seen: HashSet<Vec<u8>> = HashSet::new();
        let map = &self.map;
        self.fifo
            .retain(|k| map.contains_key(k) && seen.insert(k.clone()));
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
    /// QPs for the atomics (one per server hosting slots), keyed by node.
    atomic_qps: RefCell<HashMap<u32, Qp>>,
    atomic_cq: CompletionQueue,
    scratch: DmaBuf,
    /// Table-lifetime landing buffer for GET probes, so the hot path
    /// allocates nothing per probe. Like `scratch`, this assumes the table
    /// handle is not shared by concurrent tasks (each client opens its own).
    probe_buf: DmaBuf,
    /// Reused slot-image copy backing `probe_buf` parsing.
    probe_scratch: RefCell<Vec<u8>>,
    /// Reused slot-image assembly buffer for publishes (`write_and_unlock`),
    /// taken/restored around the WRITE so a steady-state put allocates no
    /// image Vec.
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
        if cfg.slot_bytes <= HDR_BYTES || !cfg.slot_bytes.is_multiple_of(8) {
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
        let meta = if degraded {
            client.map_degraded(name).await?
        } else {
            client.map(name).await?
        };
        let none = OpLedger::disabled();
        let sim = client.device().sim().clone();
        let deadline = sim.now() + RESIZE_WAIT_BUDGET;
        // A resize may be publishing a new generation right now: wait out an
        // odd epoch, and retry a map that loses the race with the flip.
        loop {
            let m = TableMeta::decode(&meta.read_l(0, META_BYTES, &none).await?)?;
            if m.slot_bytes != slot_bytes {
                return Err(RStoreError::Protocol(format!(
                    "slot_bytes mismatch: table has {}, caller expects {slot_bytes}",
                    m.slot_bytes
                )));
            }
            if m.epoch % 2 == 0 {
                let mapped = if degraded {
                    client.map_degraded(&gen_name(name, m.generation)).await
                } else {
                    client.map(&gen_name(name, m.generation)).await
                };
                match mapped {
                    Ok(data) => {
                        return Self::from_parts(client, meta, data, m, max_probe, degraded)
                    }
                    Err(RStoreError::NotFound(_)) => {} // raced a flip; re-read
                    Err(e) => return Err(e),
                }
            }
            if sim.now() >= deadline {
                return Err(RStoreError::Io(CqStatus::Timeout));
            }
            sim.sleep(RESIZE_POLL).await;
        }
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
        let probe_buf = dev.alloc_aligned(m.slot_bytes, 8)?;
        let hint_cap = client.shared.cfg.kv_hint_capacity;
        // The meta block was just read (or written) and its epoch was even:
        // that read doubles as the first write lease.
        let lease = dev.sim().now() + WRITE_LEASE;
        Ok(KvTable {
            meta,
            dev,
            slot_bytes: m.slot_bytes,
            max_probe,
            degraded,
            state: RefCell::new(TableGen {
                generation: m.generation,
                buckets: m.buckets,
                mask: m.buckets - 1,
                data,
            }),
            write_lease: Cell::new(lease),
            hints: RefCell::new(HintCache::new(hint_cap)),
            atomic_qps: RefCell::new(HashMap::new()),
            atomic_cq: CompletionQueue::new(),
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
        (self.slot_bytes - HDR_BYTES).saturating_sub(klen as u64)
    }

    /// `(generation, mask, data)` under the current mapping. The region
    /// handle is cloned out so ops never hold the state borrow across an
    /// await.
    fn snapshot(&self) -> (u64, u64, Region) {
        let st = self.state.borrow();
        (st.generation, st.mask, st.data.clone())
    }

    fn bump(&self, counter: &str) {
        self.dev.metrics().incr(counter);
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
            self.dev.metrics().add("kv.index.evict", evicted);
        }
    }

    fn drop_hint(&self, key: &[u8], counter: &str) {
        if self.hints.borrow_mut().remove(key) {
            self.bump(counter);
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
        self.bump("kv.slot_corrupt");
        RStoreError::CorruptionDetected {
            node,
            region: desc.name.clone(),
            stripe: offset / desc.stripe_size,
        }
    }

    // --- reads ---------------------------------------------------------------

    /// Looks up `key`, returning its value if present.
    ///
    /// Purely one-sided: a warm hint is **one RDMA READ**; a miss is one
    /// READ per probed slot, with seqlock retry on torn reads.
    ///
    /// # Errors
    ///
    /// IO failures (including a bounded lock wait that times out);
    /// [`RStoreError::Protocol`] if the key exceeds the slot;
    /// [`RStoreError::CorruptionDetected`] for structurally invalid slots.
    pub async fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let ledger = self.meta.op_ledger("get");
        let result = self.get_l(key, &ledger).await;
        self.meta.finish_ledger_res(&ledger, &result);
        result
    }

    /// [`get`](Self::get) charging an existing ledger (used by `multi_get`
    /// fallbacks so chained probes stay attributed to the batch op).
    async fn get_l(&self, key: &[u8], ledger: &OpLedger) -> Result<Option<Vec<u8>>> {
        self.check_key(key)?;
        let mut revalidated = false;
        loop {
            match self.get_once(key, ledger).await {
                Err(e) if !revalidated && stale_generation_status(&e) => {
                    revalidated = true;
                    if !self.revalidate_generation(ledger).await? {
                        return Err(e);
                    }
                }
                r => return r,
            }
        }
    }

    async fn get_once(&self, key: &[u8], ledger: &OpLedger) -> Result<Option<Vec<u8>>> {
        let (generation, mask, data) = self.snapshot();
        let payload = (self.slot_bytes - HDR_BYTES) as usize;

        // Hinted fast path: read the remembered slot directly. The key
        // stored in the slot validates the hint — no version check needed
        // for reads.
        if let Some(h) = self.hint_for(generation, key) {
            self.read_slot_into_probe_buf(&data, h.slot, ledger).await?;
            let version = self.dev.read_u64(self.probe_buf.addr)?;
            if version % 2 == 1 {
                // A writer is mid-publish on this slot; the probing path
                // below waits it out. Keep the hint: the slot is still the
                // key's home as far as we know.
            } else if version != 0 {
                let view = {
                    let mut img = self.probe_scratch.borrow_mut();
                    self.dev.read_mem_into(self.probe_buf.addr, &mut img)?;
                    Self::parse_slot(&img, key, payload)
                };
                match view {
                    Ok(SlotView::Hit(v)) => {
                        self.bump("kv.index.hit");
                        self.install_hint(
                            key,
                            SlotHint {
                                generation,
                                slot: h.slot,
                                version,
                            },
                        );
                        return Ok(Some(v));
                    }
                    Ok(_) => self.drop_hint(key, "kv.index.stale"),
                    Err(CorruptSlot) => return Err(self.corrupt_err(&data, h.slot)),
                }
            } else {
                self.drop_hint(key, "kv.index.stale");
            }
        } else {
            self.bump("kv.index.miss");
        }

        // Probe chain from the home slot.
        let start = hash_key(key) & mask;
        let deadline = self.dev.sim().now() + LOCK_WAIT_BUDGET;
        let mut watch = LockWatch::new();
        for probe in 0..self.max_probe.min(mask + 1) {
            let slot = (start + probe) & mask;
            loop {
                // Land the slot image in the table-lifetime probe buffer
                // (no staging alloc/free per probe) and peek the version
                // word; the full parse below reads the same snapshot.
                self.read_slot_into_probe_buf(&data, slot, ledger).await?;
                let word = self.dev.read_u64(self.probe_buf.addr)?;
                if word % 2 == 0 {
                    break;
                }
                // Locked by a writer: brief virtual backoff, retry. Bounded
                // so a lock orphaned by a crashed writer surfaces as an IO
                // error rather than an infinite spin — unless the watch
                // proves it orphaned, in which case it is broken in place.
                ledger.retry();
                self.lock_wait_on(&data, &mut watch, deadline, slot, word, ledger)
                    .await?;
            }
            let view = {
                let mut img = self.probe_scratch.borrow_mut();
                self.dev.read_mem_into(self.probe_buf.addr, &mut img)?;
                Self::parse_slot(&img, key, payload)
            };
            match view {
                Ok(SlotView::Empty) => return Ok(None), // ends the probe chain
                Ok(SlotView::Hit(v)) => {
                    let version = self.dev.read_u64(self.probe_buf.addr)?;
                    self.install_hint(
                        key,
                        SlotHint {
                            generation,
                            slot,
                            version,
                        },
                    );
                    return Ok(Some(v));
                }
                Ok(SlotView::Tombstone | SlotView::Other) => {} // keep probing
                Err(CorruptSlot) => return Err(self.corrupt_err(&data, slot)),
            }
        }
        Ok(None)
    }

    async fn read_slot_into_probe_buf(
        &self,
        data: &Region,
        slot: u64,
        ledger: &OpLedger,
    ) -> Result<()> {
        data.read_into_l(slot * self.slot_bytes, self.probe_buf, ledger)
            .await
    }

    /// Looks up many keys, batching the first probe of every key into one
    /// posting round ([`Region::read_into_many`]) — one doorbell per memory
    /// server instead of one per key. Keys whose first slot resolves the lookup (the
    /// common case at sane load factors) are answered from the batch; a key
    /// whose first slot is locked, tombstoned, or a colliding entry falls
    /// back to [`get`](Self::get) for the full probe chain.
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
        let ledger = self.meta.op_ledger("multi_get");
        ledger.set_units(keys.len() as u64);
        let mut revalidated = false;
        let result = loop {
            // Stage through the data region's buffer pool: a steady-state
            // batch of the same size reuses one arena buffer instead of an
            // alloc/free pair per call.
            let data = self.snapshot().2;
            let staging = match data.take_staging(self.slot_bytes * keys.len() as u64) {
                Ok(b) => b,
                Err(e) => break Err(e),
            };
            let r = self.multi_get_staged(keys, staging, &ledger).await;
            data.put_staging(staging);
            match r {
                Err(e) if !revalidated && stale_generation_status(&e) => {
                    revalidated = true;
                    match self.revalidate_generation(&ledger).await {
                        Ok(true) => continue,
                        Ok(false) => break Err(e),
                        Err(e2) => break Err(e2),
                    }
                }
                r => break r,
            }
        };
        self.meta.finish_ledger_res(&ledger, &result);
        result
    }

    async fn multi_get_staged(
        &self,
        keys: &[&[u8]],
        staging: DmaBuf,
        ledger: &OpLedger,
    ) -> Result<Vec<Option<Vec<u8>>>> {
        let (generation, mask, data) = self.snapshot();
        let payload = (self.slot_bytes - HDR_BYTES) as usize;
        let mut ios = self.ios_scratch.take();
        ios.clear();
        for (i, key) in keys.iter().enumerate() {
            let slot = hash_key(key) & mask;
            ios.push((
                slot * self.slot_bytes,
                staging.slice(i as u64 * self.slot_bytes, self.slot_bytes),
            ));
        }
        let posted = data.read_into_many_l(&ios, ledger).await;
        *self.ios_scratch.borrow_mut() = ios;
        posted?;
        let mut out = Vec::with_capacity(keys.len());
        for (i, key) in keys.iter().enumerate() {
            // Copy the slot into the reused probe scratch (no Vec per key)
            // and classify it; awaited fallbacks run outside the borrow.
            enum First {
                Hit(u64, Vec<u8>),
                Empty,
                Chain,
            }
            let first = {
                let mut img = self.probe_scratch.borrow_mut();
                self.dev
                    .read_mem_into(staging.addr + i as u64 * self.slot_bytes, &mut img)?;
                let version = u64::from_le_bytes(img[..8].try_into().expect("8"));
                if version % 2 == 1 {
                    // Locked by a writer mid-batch: take the retrying path,
                    // charged to the batch op.
                    First::Chain
                } else {
                    match Self::parse_slot(&img, key, payload) {
                        Ok(SlotView::Empty) => First::Empty,
                        Ok(SlotView::Hit(v)) => First::Hit(version, v),
                        // Tombstone or a colliding entry: the answer lives
                        // further down the probe chain.
                        Ok(SlotView::Tombstone | SlotView::Other) => First::Chain,
                        Err(CorruptSlot) => {
                            return Err(self.corrupt_err(&data, hash_key(key) & mask))
                        }
                    }
                }
            };
            match first {
                First::Empty => out.push(None),
                First::Hit(version, v) => {
                    self.install_hint(
                        key,
                        SlotHint {
                            generation,
                            slot: hash_key(key) & mask,
                            version,
                        },
                    );
                    out.push(Some(v));
                }
                First::Chain => out.push(self.get_l(key, ledger).await?),
            }
        }
        Ok(out)
    }

    /// Classifies a stable (even-version) slot image against `key`,
    /// validating the header lengths against the slot payload before any
    /// slicing — a corrupt image must never panic the client.
    fn parse_slot(
        img: &[u8],
        key: &[u8],
        payload: usize,
    ) -> std::result::Result<SlotView, CorruptSlot> {
        let version = u64::from_le_bytes(img[..8].try_into().expect("8"));
        if version == 0 {
            return Ok(SlotView::Empty);
        }
        let klen = u16::from_le_bytes(img[8..10].try_into().expect("2")) as usize;
        let vlen = u16::from_le_bytes(img[10..12].try_into().expect("2")) as usize;
        if klen == 0 {
            return Ok(SlotView::Tombstone);
        }
        if klen + vlen > payload {
            return Err(CorruptSlot);
        }
        let base = HDR_BYTES as usize;
        if keys_eq(&img[base..base + klen], key) {
            Ok(SlotView::Hit(img[base + klen..base + klen + vlen].to_vec()))
        } else {
            Ok(SlotView::Other)
        }
    }

    // --- writes --------------------------------------------------------------

    /// Inserts or overwrites `key` → `value`.
    ///
    /// A warm hint costs CAS + one full-slot WRITE (2 round trips); a cold
    /// put pays one extra probe READ per visited slot.
    ///
    /// # Errors
    ///
    /// * [`RStoreError::Protocol`] if key+value exceed the slot size or
    ///   either length exceeds the u16 header fields.
    /// * [`RStoreError::InsufficientCapacity`] if the probe window is full.
    /// * IO failures (including a bounded lock wait that times out).
    pub async fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.check_key(key)?;
        // The header stores lengths as u16: reject anything wider before it
        // wraps into a corrupt entry (reachable once slot_bytes > 64 KiB).
        if value.len() > u16::MAX as usize {
            return Err(RStoreError::Protocol(format!(
                "value of {} bytes exceeds the u16 length field",
                value.len()
            )));
        }
        if key.len() as u64 + value.len() as u64 > self.slot_bytes - HDR_BYTES {
            return Err(RStoreError::Protocol(format!(
                "entry of {} bytes exceeds slot payload of {}",
                key.len() + value.len(),
                self.slot_bytes - HDR_BYTES
            )));
        }
        let ledger = self.meta.op_ledger("put");
        let result = self.put_l(key, value, &ledger).await;
        self.meta.finish_ledger_res(&ledger, &result);
        result
    }

    async fn put_l(&self, key: &[u8], value: &[u8], ledger: &OpLedger) -> Result<()> {
        self.ensure_write_lease(ledger).await?;
        let mut revalidated = false;
        loop {
            match self.put_once(key, value, ledger).await {
                Err(e) if !revalidated && stale_generation_status(&e) => {
                    revalidated = true;
                    if !self.revalidate_generation(ledger).await? {
                        return Err(e);
                    }
                }
                r => return r,
            }
        }
    }

    async fn put_once(&self, key: &[u8], value: &[u8], ledger: &OpLedger) -> Result<()> {
        let (generation, mask, data) = self.snapshot();
        let deadline = self.dev.sim().now() + LOCK_WAIT_BUDGET;

        // Hinted fast path: CAS directly on the cached stable version. A
        // slot never repeats a stable version within a generation, so CAS
        // success proves the slot still holds this key at that version — no
        // probe read needed.
        if let Some(h) = self.hint_for(generation, key) {
            let lock = lock_word(h.version, next_nonce());
            match self
                .cas_word(&data, h.slot * self.slot_bytes, h.version, lock, ledger)
                .await
            {
                Ok(true) => {
                    self.bump("kv.index.hit");
                    if let Err(e) = self
                        .write_and_unlock(&data, h.slot, h.version, key, value, ledger)
                        .await
                    {
                        self.abort_locked_slot(&data, h.slot, h.version, ledger)
                            .await;
                        self.drop_hint(key, "kv.index.invalidate");
                        return Err(e);
                    }
                    self.install_hint(
                        key,
                        SlotHint {
                            generation,
                            slot: h.slot,
                            version: h.version + 2,
                        },
                    );
                    return Ok(());
                }
                Ok(false) => {
                    // The slot moved on (another writer, a delete, …): fall
                    // back to the probing path.
                    self.drop_hint(key, "kv.index.stale");
                }
                Err(e) => {
                    self.recover_ambiguous_cas(&data, h.slot, h.version, lock, ledger)
                        .await;
                    self.drop_hint(key, "kv.index.invalidate");
                    return Err(e);
                }
            }
        } else {
            self.bump("kv.index.miss");
        }

        let mut watch = LockWatch::new();
        'retry: loop {
            // First pass: find the key (overwrite) or the first reusable
            // slot.
            let start = hash_key(key) & mask;
            let mut target: Option<(u64, u64)> = None; // (slot, observed version)
            for probe in 0..self.max_probe.min(mask + 1) {
                let slot = (start + probe) & mask;
                // Land the slot in the table-lifetime probe buffer — no
                // staging or Vec per probe — and classify it in one scoped
                // pass over the host copy.
                self.read_slot_into_probe_buf(&data, slot, ledger).await?;
                let (version, klen, matched) = {
                    let mut img = self.probe_scratch.borrow_mut();
                    self.dev.read_mem_into(self.probe_buf.addr, &mut img)?;
                    let version = u64::from_le_bytes(img[..8].try_into().expect("8"));
                    let klen = u16::from_le_bytes(img[8..10].try_into().expect("2")) as usize;
                    let matched = version % 2 == 0
                        && klen != 0
                        && HDR_BYTES as usize + klen <= self.slot_bytes as usize
                        && keys_eq(&img[HDR_BYTES as usize..HDR_BYTES as usize + klen], key);
                    (version, klen, matched)
                };
                if version == 0 || (version % 2 == 0 && klen == 0) {
                    // Empty or tombstone: claim unless the key shows up later
                    // in the chain (it cannot: inserts always take the first
                    // hole).
                    target.get_or_insert((slot, version));
                    if version == 0 {
                        break;
                    }
                } else if version % 2 == 0 {
                    if HDR_BYTES as usize + klen > self.slot_bytes as usize {
                        return Err(self.corrupt_err(&data, slot));
                    }
                    if matched {
                        target = Some((slot, version));
                        break;
                    }
                } else {
                    // Locked: a writer is mutating this slot. If it could be
                    // our key, retry the whole operation after a bounded
                    // backoff (breaking the lock first if the watch proves
                    // it orphaned).
                    ledger.retry();
                    self.lock_wait_on(&data, &mut watch, deadline, slot, version, ledger)
                        .await?;
                    continue 'retry;
                }
            }
            let Some((slot, version)) = target else {
                return Err(RStoreError::InsufficientCapacity {
                    requested: self.slot_bytes,
                });
            };

            // Lock: CAS version -> a tagged odd word. Losing the race
            // retries; an ambiguous CAS (IO error) is resolved by read-back
            // before the error surfaces, so it can never orphan the lock.
            let lock = lock_word(version, next_nonce());
            let won = match self
                .cas_word(&data, slot * self.slot_bytes, version, lock, ledger)
                .await
            {
                Ok(w) => w,
                Err(e) => {
                    self.recover_ambiguous_cas(&data, slot, version, lock, ledger)
                        .await;
                    return Err(e);
                }
            };
            if !won {
                ledger.retry();
                self.lock_wait(deadline).await?;
                continue 'retry;
            }

            // Publish: the whole slot image — new version word, header, key,
            // value — in one WRITE, which is also the unlock.
            if let Err(e) = self
                .write_and_unlock(&data, slot, version, key, value, ledger)
                .await
            {
                // The op was never acknowledged: abort the slot so the lock
                // is not orphaned on the replicas that are still reachable.
                self.abort_locked_slot(&data, slot, version, ledger).await;
                return Err(e);
            }
            self.install_hint(
                key,
                SlotHint {
                    generation,
                    slot,
                    version: version + 2,
                },
            );
            return Ok(());
        }
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

    /// [`lock_wait`](Self::lock_wait) for waits where the blocking word is
    /// known: feeds the sighting into `watch`, and at the deadline — before
    /// surfacing the timeout — breaks the lock if the watch proves it
    /// orphaned. A successful break returns `Ok` so the caller re-probes the
    /// now-stable slot (its next wait past the deadline still errors).
    async fn lock_wait_on(
        &self,
        data: &Region,
        watch: &mut LockWatch,
        deadline: SimTime,
        slot: u64,
        word: u64,
        ledger: &OpLedger,
    ) -> Result<()> {
        let now = self.dev.sim().now();
        watch.observe(slot, word, now);
        let trace = ledger.optrace();
        if now >= deadline {
            if let Some((slot, lock)) = watch.breakable(now) {
                watch.spent = true;
                let span = trace.begin(Phase::LockBreak, now);
                let healed = self.break_orphaned_lock(data, slot, lock, ledger).await;
                trace.end(span, self.dev.sim().now());
                if healed {
                    return Ok(());
                }
            }
            return Err(RStoreError::Io(CqStatus::Timeout));
        }
        let span = trace.begin(Phase::LockWait, now);
        self.dev.sim().sleep(LOCK_BACKOFF).await;
        trace.end(span, self.dev.sim().now());
        Ok(())
    }

    /// Breaks an orphaned slot lock by CASing the exact tagged word the
    /// waiter observed back to its pre-lock stable version. Sound because
    /// the body under an odd word is always the intact pre-lock image (the
    /// lock CAS touches only the version word; publish is one WRITE of word
    /// plus body), so success restores a state the slot already had — and
    /// if the owner is somehow still alive, either its release already
    /// landed (this CAS fails benignly) or its full-image publish supersedes
    /// the restored word. Returns whether the slot was healed.
    async fn break_orphaned_lock(
        &self,
        data: &Region,
        slot: u64,
        lock: u64,
        ledger: &OpLedger,
    ) -> bool {
        let version = pre_lock_version(lock);
        match self
            .cas_word(data, slot * self.slot_bytes, lock, version, ledger)
            .await
        {
            Ok(true) => {
                self.bump("kv.lock.break");
                true
            }
            // Lost the CAS (owner or another waiter resolved it first) or
            // the IO failed: either way the caller falls back to the
            // timeout error and the next op re-evaluates the slot.
            _ => false,
        }
    }

    /// Publishes a locked slot in one WRITE: the full image `[version + 2 |
    /// header | key | value]` lands atomically (a slot never straddles a
    /// stripe, so this is a single WR per replica), releasing the lock in
    /// the same op. Readers either see the old locked word or the complete
    /// new entry — never a torn body.
    ///
    /// The image is assembled in the table-lifetime `img_scratch` buffer
    /// (taken for the duration of the WRITE, restored after — a concurrent
    /// publish on the same handle just allocates a fresh one);
    /// [`Region::write_l`] posts it inline when the device's `inline_max`
    /// covers it.
    async fn write_and_unlock(
        &self,
        data: &Region,
        slot: u64,
        version: u64,
        key: &[u8],
        value: &[u8],
        ledger: &OpLedger,
    ) -> Result<()> {
        let mut img = self.img_scratch.take();
        img.clear();
        img.extend_from_slice(&(version + 2).to_le_bytes());
        img.extend_from_slice(&(key.len() as u16).to_le_bytes());
        img.extend_from_slice(&(value.len() as u16).to_le_bytes());
        img.extend_from_slice(&[0u8; 4]);
        img.extend_from_slice(key);
        img.extend_from_slice(value);
        let result = data.write_l(slot * self.slot_bytes, &img, ledger).await;
        *self.img_scratch.borrow_mut() = img;
        result
    }

    /// Best-effort abort of a slot this client holds locked over stable
    /// `version`: one 16-byte WRITE installs a tombstone header and releases
    /// the lock (writing `version + 2` also clears the lock word's nonce
    /// tag). Called when the mutation's IO failed mid-flight — the caller
    /// surfaces that error, and errors here are deliberately swallowed (the
    /// servers still reachable get unlocked; repair rebuilds the rest from
    /// them).
    async fn abort_locked_slot(&self, data: &Region, slot: u64, version: u64, ledger: &OpLedger) {
        let _ = self.tombstone_and_unlock(data, slot, version, ledger).await;
    }

    /// Tombstones a locked slot and releases the lock in one 16-byte WRITE:
    /// `[version + 2 | klen = 0 | vlen = 0 | pad]`. Small enough to post
    /// inline whenever the device allows it at all.
    async fn tombstone_and_unlock(
        &self,
        data: &Region,
        slot: u64,
        version: u64,
        ledger: &OpLedger,
    ) -> Result<()> {
        let mut img = [0u8; HDR_BYTES as usize];
        img[..8].copy_from_slice(&(version + 2).to_le_bytes());
        data.write_l(slot * self.slot_bytes, &img, ledger).await
    }

    /// Resolves a CAS whose completion was lost to an IO error. The swap may
    /// still have executed remotely (a fault-era timeout can fire while the
    /// op sits behind doomed traffic), which would leave the slot locked
    /// with no owner — forever. Read the word back: only this attempt can
    /// have produced exactly `lock`, so seeing it proves ownership and the
    /// slot is aborted; any other value means the swap lost or another
    /// writer holds a lock that its owner will release.
    async fn recover_ambiguous_cas(
        &self,
        data: &Region,
        slot: u64,
        version: u64,
        lock: u64,
        ledger: &OpLedger,
    ) {
        if data
            .read_into_l(slot * self.slot_bytes, self.probe_buf.slice(0, 8), ledger)
            .await
            .is_err()
        {
            return;
        }
        let Ok(word) = self.dev.read_u64(self.probe_buf.addr) else {
            return;
        };
        if word == lock {
            self.abort_locked_slot(data, slot, version, ledger).await;
        }
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
        let ledger = self.meta.op_ledger("delete");
        let result = self.delete_l(key, &ledger).await;
        self.meta.finish_ledger_res(&ledger, &result);
        result
    }

    async fn delete_l(&self, key: &[u8], ledger: &OpLedger) -> Result<bool> {
        self.ensure_write_lease(ledger).await?;
        let mut revalidated = false;
        loop {
            match self.delete_once(key, ledger).await {
                Err(e) if !revalidated && stale_generation_status(&e) => {
                    revalidated = true;
                    if !self.revalidate_generation(ledger).await? {
                        return Err(e);
                    }
                }
                r => return r,
            }
        }
    }

    async fn delete_once(&self, key: &[u8], ledger: &OpLedger) -> Result<bool> {
        let (generation, mask, data) = self.snapshot();
        let deadline = self.dev.sim().now() + LOCK_WAIT_BUDGET;

        // Hinted fast path: lock via CAS on the cached version, tombstone.
        if let Some(h) = self.hint_for(generation, key) {
            let lock = lock_word(h.version, next_nonce());
            match self
                .cas_word(&data, h.slot * self.slot_bytes, h.version, lock, ledger)
                .await
            {
                Ok(true) => {
                    self.bump("kv.index.hit");
                    if let Err(e) = self
                        .tombstone_and_unlock(&data, h.slot, h.version, ledger)
                        .await
                    {
                        self.abort_locked_slot(&data, h.slot, h.version, ledger)
                            .await;
                        self.drop_hint(key, "kv.index.invalidate");
                        return Err(e);
                    }
                    self.drop_hint(key, "kv.index.invalidate");
                    return Ok(true);
                }
                Ok(false) => self.drop_hint(key, "kv.index.stale"),
                Err(e) => {
                    self.recover_ambiguous_cas(&data, h.slot, h.version, lock, ledger)
                        .await;
                    self.drop_hint(key, "kv.index.invalidate");
                    return Err(e);
                }
            }
        } else {
            self.bump("kv.index.miss");
        }

        let mut watch = LockWatch::new();
        'retry: loop {
            let start = hash_key(key) & mask;
            for probe in 0..self.max_probe.min(mask + 1) {
                let slot = (start + probe) & mask;
                self.read_slot_into_probe_buf(&data, slot, ledger).await?;
                let (version, klen, matched) = {
                    let mut img = self.probe_scratch.borrow_mut();
                    self.dev.read_mem_into(self.probe_buf.addr, &mut img)?;
                    let version = u64::from_le_bytes(img[..8].try_into().expect("8"));
                    let klen = u16::from_le_bytes(img[8..10].try_into().expect("2")) as usize;
                    let matched = version % 2 == 0
                        && klen != 0
                        && HDR_BYTES as usize + klen <= self.slot_bytes as usize
                        && keys_eq(&img[HDR_BYTES as usize..HDR_BYTES as usize + klen], key);
                    (version, klen, matched)
                };
                if version == 0 {
                    return Ok(false);
                }
                if version % 2 == 1 {
                    ledger.retry();
                    self.lock_wait_on(&data, &mut watch, deadline, slot, version, ledger)
                        .await?;
                    continue 'retry;
                }
                if klen == 0 {
                    continue; // tombstone
                }
                if HDR_BYTES as usize + klen > self.slot_bytes as usize {
                    return Err(self.corrupt_err(&data, slot));
                }
                if matched {
                    let lock = lock_word(version, next_nonce());
                    let won = match self
                        .cas_word(&data, slot * self.slot_bytes, version, lock, ledger)
                        .await
                    {
                        Ok(w) => w,
                        Err(e) => {
                            self.recover_ambiguous_cas(&data, slot, version, lock, ledger)
                                .await;
                            return Err(e);
                        }
                    };
                    if !won {
                        ledger.retry();
                        self.lock_wait(deadline).await?;
                        continue 'retry;
                    }
                    // Tombstone + unlock in one WRITE; abort on IO failure
                    // so the lock is not orphaned.
                    if let Err(e) = self
                        .tombstone_and_unlock(&data, slot, version, ledger)
                        .await
                    {
                        self.abort_locked_slot(&data, slot, version, ledger).await;
                        return Err(e);
                    }
                    self.drop_hint(key, "kv.index.invalidate");
                    return Ok(true);
                }
            }
            return Ok(false);
        }
    }

    fn check_key(&self, key: &[u8]) -> Result<()> {
        if key.is_empty()
            || key.len() as u64 > self.slot_bytes - HDR_BYTES
            || key.len() > u16::MAX as usize
        {
            return Err(RStoreError::Protocol("bad key length".into()));
        }
        Ok(())
    }

    // --- epoch / generation maintenance --------------------------------------

    /// Reads and validates the meta block.
    async fn read_meta(&self, ledger: &OpLedger) -> Result<TableMeta> {
        let m = TableMeta::decode(&self.meta.read_l(0, META_BYTES, ledger).await?)?;
        if m.slot_bytes != self.slot_bytes {
            return Err(RStoreError::Protocol(
                "kv meta block changed slot_bytes under a live handle".into(),
            ));
        }
        Ok(m)
    }

    /// Admits a mutation: cheap no-op while the write lease is fresh; past
    /// it, one meta read revalidates the epoch (waiting out an in-flight
    /// resize) and renews the lease.
    async fn ensure_write_lease(&self, ledger: &OpLedger) -> Result<()> {
        if self.dev.sim().now() < self.write_lease.get() {
            return Ok(());
        }
        let deadline = self.dev.sim().now() + RESIZE_WAIT_BUDGET;
        loop {
            let m = self.read_meta(ledger).await?;
            if m.epoch % 2 == 0 {
                if m.generation != self.state.borrow().generation {
                    match self.remap(&m, ledger).await {
                        Ok(()) => return Ok(()),
                        Err(RStoreError::NotFound(_)) => {} // raced a flip
                        Err(e) => return Err(e),
                    }
                } else {
                    self.write_lease.set(self.dev.sim().now() + WRITE_LEASE);
                    return Ok(());
                }
            }
            if self.dev.sim().now() >= deadline {
                return Err(RStoreError::Io(CqStatus::Timeout));
            }
            self.dev.sim().sleep(RESIZE_POLL).await;
        }
    }

    /// Reacts to a stale-generation fault (`RemoteAccess`: the data region
    /// was freed under us). Polls the meta block; if the generation moved,
    /// remaps and returns `true` (retry the op). If the generation is
    /// unchanged after a short budget, the data may have been live-migrated
    /// *within* the generation (extent swap, no generation bump): the cached
    /// stripe descriptor is refreshed from the master, and a changed
    /// placement also returns `true`. Only when neither the generation nor
    /// the descriptor moved does this return `false` (surface the original
    /// error).
    async fn revalidate_generation(&self, ledger: &OpLedger) -> Result<bool> {
        let trace = ledger.optrace();
        let span = trace.begin(Phase::Reval, self.dev.sim().now());
        let result = self.revalidate_generation_inner(ledger).await;
        trace.end(span, self.dev.sim().now());
        result
    }

    async fn revalidate_generation_inner(&self, ledger: &OpLedger) -> Result<bool> {
        let now = self.dev.sim().now();
        let same_gen_deadline = now + STALE_GEN_BUDGET;
        let deadline = now + RESIZE_WAIT_BUDGET;
        loop {
            let m = self.read_meta(ledger).await?;
            if m.epoch % 2 == 0 {
                if m.generation != self.state.borrow().generation {
                    match self.remap(&m, ledger).await {
                        Ok(()) => return Ok(true),
                        Err(RStoreError::NotFound(_)) => {} // raced a flip
                        Err(e) => return Err(e),
                    }
                } else if self.dev.sim().now() >= same_gen_deadline {
                    return self.revalidate_placement(ledger).await;
                }
            }
            if self.dev.sim().now() >= deadline {
                return Ok(false);
            }
            self.dev.sim().sleep(RESIZE_POLL).await;
        }
    }

    /// Same-generation fallback for a persistent `RemoteAccess` fault: the
    /// data region's extents may have moved (drain or rebalance migration).
    /// Re-fetches the descriptor; a changed placement invalidates the slot
    /// hints' transport (not their slot numbers — geometry is unchanged) and
    /// is worth one retry.
    async fn revalidate_placement(&self, ledger: &OpLedger) -> Result<bool> {
        let data = self.state.borrow().data.clone();
        let before = data.desc();
        if data.revalidate(ledger).await.is_err() {
            // Lookup failed (e.g. the generation region raced a free):
            // nothing learned, surface the original fault.
            return Ok(false);
        }
        let moved = data.desc() != before;
        if moved {
            self.bump("kv.index.refresh");
        }
        Ok(moved)
    }

    /// Maps the generation named by `m` and swaps it in: hints die (they are
    /// generation-scoped), the write lease renews (the epoch was just seen
    /// even).
    async fn remap(&self, m: &TableMeta, _ledger: &OpLedger) -> Result<()> {
        if !m.buckets.is_power_of_two() {
            return Err(RStoreError::Protocol("kv meta block corrupt".into()));
        }
        let client = self.meta.client().clone();
        let name = gen_name(self.meta.name(), m.generation);
        let data = if self.degraded {
            client.map_degraded(&name).await?
        } else {
            client.map(&name).await?
        };
        if data.size() != m.buckets * self.slot_bytes {
            return Err(RStoreError::Protocol(
                "kv meta block disagrees with the data region size".into(),
            ));
        }
        *self.state.borrow_mut() = TableGen {
            generation: m.generation,
            buckets: m.buckets,
            mask: m.buckets - 1,
            data,
        };
        self.hints.borrow_mut().clear();
        self.bump("kv.index.refresh");
        self.write_lease.set(self.dev.sim().now() + WRITE_LEASE);
        Ok(())
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
        let ledger = self.meta.op_ledger("resize");
        let result = self.grow_l(new_buckets, &ledger).await;
        self.meta.finish_ledger_res(&ledger, &result);
        result
    }

    async fn grow_l(&self, new_buckets: u64, ledger: &OpLedger) -> Result<u64> {
        let new_buckets = new_buckets.next_power_of_two();
        let m = self.read_meta(ledger).await?;
        if m.epoch % 2 == 1 {
            return Err(RStoreError::Protocol("resize already in progress".into()));
        }
        if new_buckets <= m.buckets {
            return Err(RStoreError::Protocol(format!(
                "grow must increase buckets ({} -> {new_buckets})",
                m.buckets
            )));
        }
        if m.generation != self.state.borrow().generation {
            self.remap(&m, ledger).await?;
        }

        // Claim the resize: CAS the epoch odd. One resizer wins; everyone
        // else sees "in progress".
        let odd = m.epoch + 1;
        if !self
            .cas_word(&self.meta.clone(), META_EPOCH_OFF, m.epoch, odd, ledger)
            .await?
        {
            return Err(RStoreError::Protocol(
                "lost the resize race to another client".into(),
            ));
        }
        // Propagate the odd epoch to every meta replica (the CAS hit the
        // primary only).
        if let Err(e) = self
            .meta
            .write_l(META_EPOCH_OFF, &odd.to_le_bytes(), ledger)
            .await
        {
            let _ = self
                .meta
                .write_l(META_EPOCH_OFF, &m.epoch.to_le_bytes(), ledger)
                .await;
            return Err(e);
        }

        match self.copy_generation(&m, new_buckets, ledger).await {
            Ok((new_data, moved)) => {
                let flipped = TableMeta {
                    epoch: m.epoch + 2,
                    generation: m.generation + 1,
                    buckets: new_buckets,
                    slot_bytes: self.slot_bytes,
                };
                // Publish: generation and even epoch in one small write —
                // atomic per replica, so no client can observe a half-flip.
                if let Err(e) = self.meta.write_l(0, &flipped.encode(), ledger).await {
                    let client = self.meta.client().clone();
                    let _ = client
                        .free(&gen_name(self.meta.name(), m.generation + 1))
                        .await;
                    let _ = self
                        .meta
                        .write_l(META_EPOCH_OFF, &m.epoch.to_le_bytes(), ledger)
                        .await;
                    return Err(e);
                }
                // Retire the old generation. Readers mid-flight fault with
                // RemoteAccess once this lands and revalidate against the
                // already-published meta block. A failed free leaks the old
                // region but is otherwise harmless.
                let client = self.meta.client().clone();
                if client
                    .free(&gen_name(self.meta.name(), m.generation))
                    .await
                    .is_err()
                {
                    self.bump("kv.resize.free_failed");
                }
                *self.state.borrow_mut() = TableGen {
                    generation: flipped.generation,
                    buckets: new_buckets,
                    mask: new_buckets - 1,
                    data: new_data,
                };
                self.hints.borrow_mut().clear();
                self.write_lease.set(self.dev.sim().now() + WRITE_LEASE);
                self.bump("kv.resize.count");
                self.dev.metrics().add("kv.resize.moved", moved);
                Ok(moved)
            }
            Err(e) => {
                // Unwind: the old generation is untouched; restore the even
                // epoch so writers unblock.
                let _ = self
                    .meta
                    .write_l(META_EPOCH_OFF, &m.epoch.to_le_bytes(), ledger)
                    .await;
                Err(e)
            }
        }
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

        // Rehash live entries into the new image. A slot still locked after
        // the grace window is an orphaned lock from a crashed writer — its
        // op was never acknowledged, so dropping it is linearizable.
        let payload = (self.slot_bytes - HDR_BYTES) as usize;
        let new_mask = new_buckets - 1;
        let sb = self.slot_bytes as usize;
        let mut img_new = vec![0u8; (new_buckets * self.slot_bytes) as usize];
        let mut moved = 0u64;
        for slot in 0..m.buckets {
            let base = slot as usize * sb;
            let version = u64::from_le_bytes(img_old[base..base + 8].try_into().expect("8"));
            if version == 0 || version % 2 == 1 {
                continue;
            }
            let klen =
                u16::from_le_bytes(img_old[base + 8..base + 10].try_into().expect("2")) as usize;
            let vlen =
                u16::from_le_bytes(img_old[base + 10..base + 12].try_into().expect("2")) as usize;
            if klen == 0 {
                continue; // tombstone
            }
            if klen + vlen > payload {
                return Err(self.corrupt_err(&old, slot));
            }
            let entry =
                &img_old[base + HDR_BYTES as usize..base + HDR_BYTES as usize + klen + vlen];
            let key = &entry[..klen];
            let home = hash_key(key) & new_mask;
            let mut placed = false;
            for probe in 0..self.max_probe.min(new_buckets) {
                let dst = ((home + probe) & new_mask) as usize * sb;
                if img_new[dst..dst + 8] != [0u8; 8] {
                    continue;
                }
                img_new[dst..dst + 8].copy_from_slice(&2u64.to_le_bytes());
                img_new[dst + 8..dst + 10].copy_from_slice(&(klen as u16).to_le_bytes());
                img_new[dst + 10..dst + 12].copy_from_slice(&(vlen as u16).to_le_bytes());
                img_new[dst + HDR_BYTES as usize..dst + HDR_BYTES as usize + klen + vlen]
                    .copy_from_slice(entry);
                placed = true;
                break;
            }
            if !placed {
                return Err(RStoreError::InsufficientCapacity {
                    requested: self.slot_bytes,
                });
            }
            moved += 1;
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
        let upload = async {
            let total = new_buckets * self.slot_bytes;
            let mut off = 0u64;
            while off < total {
                let n = COPY_CHUNK.min(total - off);
                new_data
                    .write_l(off, &img_new[off as usize..(off + n) as usize], ledger)
                    .await?;
                off += n;
            }
            Ok(())
        }
        .await;
        if let Err(e) = upload {
            let _ = client.free(&new_name).await;
            return Err(e);
        }
        Ok((new_data, moved))
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
        let ledger = self.meta.op_ledger("bulk_load");
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
        let buckets = mask + 1;
        let payload = (self.slot_bytes - HDR_BYTES) as usize;
        let sb = self.slot_bytes as usize;
        let mut img = vec![0u8; (buckets * self.slot_bytes) as usize];
        let mut count = 0u64;
        for (key, value) in entries {
            let (key, value) = (key.as_ref(), value.as_ref());
            self.check_key(key)?;
            if value.len() > u16::MAX as usize || key.len() + value.len() > payload {
                return Err(RStoreError::Protocol(format!(
                    "entry of {} bytes exceeds slot payload of {payload}",
                    key.len() + value.len()
                )));
            }
            let home = hash_key(key) & mask;
            let mut placed = false;
            for probe in 0..self.max_probe.min(buckets) {
                let dst = ((home + probe) & mask) as usize * sb;
                if img[dst..dst + 8] != [0u8; 8] {
                    let klen =
                        u16::from_le_bytes(img[dst + 8..dst + 10].try_into().expect("2")) as usize;
                    if &img[dst + HDR_BYTES as usize..dst + HDR_BYTES as usize + klen] != key {
                        continue;
                    }
                    count -= 1; // overwrite: not a new key
                }
                img[dst..dst + 8].copy_from_slice(&2u64.to_le_bytes());
                img[dst + 8..dst + 10].copy_from_slice(&(key.len() as u16).to_le_bytes());
                img[dst + 10..dst + 12].copy_from_slice(&(value.len() as u16).to_le_bytes());
                img[dst + 12..dst + 16].copy_from_slice(&[0u8; 4]);
                img[dst + HDR_BYTES as usize..dst + HDR_BYTES as usize + key.len()]
                    .copy_from_slice(key);
                let vbase = dst + HDR_BYTES as usize + key.len();
                img[vbase..vbase + value.len()].copy_from_slice(value);
                // Zero any tail left over from a longer earlier value.
                img[vbase + value.len()..dst + sb].fill(0);
                placed = true;
                break;
            }
            if !placed {
                return Err(RStoreError::InsufficientCapacity {
                    requested: self.slot_bytes,
                });
            }
            count += 1;
        }
        ledger.set_units(count);
        let total = buckets * self.slot_bytes;
        let mut off = 0u64;
        while off < total {
            let n = COPY_CHUNK.min(total - off);
            data.write_l(off, &img[off as usize..(off + n) as usize], ledger)
                .await?;
            off += n;
        }
        self.hints.borrow_mut().clear();
        Ok(count)
    }

    // --- atomics ---------------------------------------------------------------

    /// One-sided CAS on an 8-byte word of `region` at byte `offset`; true if
    /// it won.
    ///
    /// Records its own `cas` op ledger (when enabled), then folds the costs
    /// into `parent` so the enclosing put/delete still accounts for the
    /// whole logical mutation.
    #[allow(clippy::await_holding_refcell_ref)] // single-threaded sim
    async fn cas_word(
        &self,
        region: &Region,
        offset: u64,
        expect: u64,
        swap: u64,
        parent: &OpLedger,
    ) -> Result<bool> {
        // Locate the extent holding the word — straight from the cached
        // layout, with no descriptor clone or piece vector per CAS.
        let (extent, off_in_stripe) = region.word_extent(offset)?;

        // Atomics need their own QP (the region's cached QPs route
        // completions to the client's data router, which expects region
        // wr_ids). Establish lazily per server: control path, once.
        let qp = {
            let cached = self.atomic_qps.borrow().get(&extent.node).cloned();
            match cached {
                Some(qp) => qp,
                None => {
                    let qp = self
                        .dev
                        .connect(fabric::NodeId(extent.node), DATA_SERVICE, &self.atomic_cq)
                        .await?;
                    self.atomic_qps.borrow_mut().insert(extent.node, qp.clone());
                    qp
                }
            }
        };
        let remote = RemoteAddr {
            addr: extent.addr + off_in_stripe,
            rkey: rdma::RKey(extent.rkey),
        };
        let cas_ledger = if parent.enabled() {
            self.meta.op_ledger("cas")
        } else {
            OpLedger::disabled()
        };
        let result = async {
            {
                let _scope = self.dev.ledger_scope(&cas_ledger);
                qp.post_cas(1, self.scratch.slice(0, 8), remote, expect, swap)?;
            }
            loop {
                let cqe = self.atomic_cq.next().await;
                if cqe.opcode == CqeOpcode::CompSwap {
                    cas_ledger.rtt();
                    if cqe.status != CqStatus::Success {
                        return Err(RStoreError::Io(cqe.status));
                    }
                    break;
                }
            }
            let old = self.dev.read_u64(self.scratch.addr)?;
            Ok(old == expect)
        }
        .await;
        self.meta.finish_ledger_res(&cas_ledger, &result);
        parent.absorb(&cas_ledger);
        result
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
        sim.block_on(async move {
            let client = cluster
                .client_with(
                    0,
                    crate::client::ClientConfig {
                        ledger: true,
                        ..Default::default()
                    },
                )
                .await
                .unwrap();
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
        sim.block_on(async move {
            let client = cluster
                .client_with(
                    0,
                    crate::client::ClientConfig {
                        ledger: true,
                        ..Default::default()
                    },
                )
                .await
                .unwrap();
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
        // CorruptionDetected.
        let cluster = boot(1);
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let client = cluster.client(0).await.unwrap();
            let cfg = small_cfg();
            let kv = KvTable::create(&client, "cr", cfg).await.unwrap();
            kv.put(b"victim", b"v").await.unwrap();
            // Smash the victim's home slot with an impossible header:
            // stable version, klen = vlen = 0xFFFF.
            let mask = cfg.buckets.next_power_of_two() - 1;
            let slot = hash_key(b"victim") & mask;
            let raw = client.map("cr@g1").await.unwrap();
            let mut hdr = [0u8; 16];
            hdr[..8].copy_from_slice(&2u64.to_le_bytes());
            hdr[8..10].copy_from_slice(&0xFFFFu16.to_le_bytes());
            hdr[10..12].copy_from_slice(&0xFFFFu16.to_le_bytes());
            let none = OpLedger::disabled();
            raw.write_l(slot * cfg.slot_bytes, &hdr, &none)
                .await
                .unwrap();

            // Hinted read path.
            let err = kv.get(b"victim").await.err().unwrap();
            assert!(
                matches!(err, RStoreError::CorruptionDetected { .. }),
                "hinted get: {err}"
            );
            // Cold probe paths, on a handle with no hints.
            let kv2 = KvTable::open(&client, "cr", cfg.slot_bytes, cfg.max_probe)
                .await
                .unwrap();
            for (what, err) in [
                ("get", kv2.get(b"victim").await.err().unwrap()),
                ("put", kv2.put(b"victim", b"x").await.err().unwrap()),
                ("delete", kv2.delete(b"victim").await.err().unwrap()),
                (
                    "multi_get",
                    kv2.multi_get(&[b"victim"]).await.err().unwrap(),
                ),
            ] {
                assert!(
                    matches!(err, RStoreError::CorruptionDetected { .. }),
                    "{what}: {err}"
                );
            }
            assert!(client.device().metrics().counter("kv.slot_corrupt") >= 5);
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
