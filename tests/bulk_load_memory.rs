//! Host memory of `KvTable::bulk_load`: the loader holds the entries it was
//! given, a 4-byte slot index and one upload chunk, never an image of the
//! whole table.
//!
//! A counting global allocator tracks the high-water mark of live heap
//! bytes. A sparse table — 2^18 slots of 128 B, a 32 MiB region — is loaded
//! with a few thousand entries, and the high-water the load adds over the
//! live bytes before it must stay under twice the entries' key and value
//! bytes (a packed copy, before and after its buffer doubles), plus 4 B per
//! slot (the index), plus two upload chunks (the rendered chunk and the
//! client's staging copy of it). A whole-table image alone is 32 MiB, three
//! times that bound. The memory servers back the table's region only as the
//! load writes it (an arena block asks the host for nothing at `alloc`), and
//! a block's capacity never passes its length, so the growth of the
//! non-client devices' resident bytes over the load — the whole table, once
//! every slot is written — is the store's share of the high-water, and
//! comes off it.
//!
//! This is the only test in the binary so the counting global allocator
//! sees no concurrent test threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rstore::{AllocOptions, Cluster, ClusterConfig, KvConfig, KvTable};

struct PeakAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are side effects only and
// never influence what is returned.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations for `alloc` are `System`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the block changing size: the allocator grows a large
        // block in place or remaps it.
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grew(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Bytes of slots one upload WRITE carries (`kv::COPY_CHUNK`).
const COPY_CHUNK: u64 = 4 << 20;

#[test]
fn bulk_load_holds_the_entries_not_the_table() {
    const BUCKETS: u64 = 1 << 18;
    let cluster = Cluster::boot(ClusterConfig {
        clients: 1,
        ..ClusterConfig::with_servers(3)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    sim.block_on(async move {
        let client = cluster.client(0).await.unwrap();
        let cfg = KvConfig {
            buckets: BUCKETS,
            slot_bytes: 128,
            max_probe: 16,
            opts: AllocOptions {
                stripe_size: 64 * 1024,
                ..AllocOptions::default()
            },
        };
        let kv = KvTable::create(&client, "sparse", cfg).await.unwrap();
        let entries: Vec<(String, Vec<u8>)> = (0..6500u32)
            .map(|i| (format!("key{i:08}"), vec![i as u8; 64]))
            .collect();
        let entry_bytes: u64 = entries
            .iter()
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum();

        let stored = || {
            let clients: u64 = cluster.client_devs.iter().map(|d| d.mem_resident()).sum();
            cluster.mem_footprint().1 - clients
        };
        let stored_before = stored();
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let loaded = kv.bulk_load(entries.iter().map(|(k, v)| (k, v))).await;
        let extra = PEAK.load(Ordering::Relaxed) - before - (stored() - stored_before);

        assert_eq!(loaded.unwrap(), 6500);
        let bound = 2 * entry_bytes + 4 * BUCKETS + 2 * COPY_CHUNK;
        assert!(
            extra <= bound,
            "the load's high-water is {extra} B over its start, above the \
             {bound} B its {} B of entries allow",
            entry_bytes
        );
        let got = kv.get(b"key00001234").await.unwrap();
        assert_eq!(got.as_deref(), Some(&[1234u32 as u8; 64][..]));
    });
}
