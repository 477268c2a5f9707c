//! Steady-state allocation discipline for the raw-speed op path.
//!
//! After a short warmup (staging pools filled, hint caches and hash maps
//! sized, QPs dialed), every data-path op must settle to a *flat* per-op
//! host-heap allocation count — the hoisted-buffer discipline means no
//! per-op staging or scratch-`Vec` churn — and stay at or under a pinned
//! ceiling. A posted WR allocates nothing: it completes into a recycled
//! cell of its dialer's `sim::Rendezvous` table, its wr_id the cell's
//! ticket, so a region IO that hands its bytes back in the caller's buffer
//! is 0, plain or checksummed, on one stripe or four (it was one per WR
//! while each WR had a oneshot channel of its own, and 28 on a checksummed
//! IO while it spawned a task per stripe). What is left is what an op hands
//! back or keeps: a warm `region.read` is 0, plain or checksummed, at 4 KiB,
//! 64 KiB and 1 MiB, since it lends the pooled staging block its bytes
//! landed in and takes it back when the result drops (it was 1, a `Vec`
//! of the IO's size); a warm `kv.get` is 1, the returned value, and a
//! `kv.multi_get` one per key plus its result list; a warm `kv.put` is 0,
//! and so is a `kv.delete` then `kv.put` of a key, whose hint reuses the
//! cache entry the delete freed. Past the hint cache's capacity, where
//! every op misses, walks and evicts, a `kv.get` is still 1 and a `kv.put`
//! 0: the new hint takes over the evicted entry and its key buffer (it was
//! one more per op while each cached hint allocated its key). A control call allocates nothing of its own: a heartbeat-shaped
//! call is 0 at both ends, its request encoded into a buffer the thread
//! keeps, its handler's future and reply in a call slot its service keeps,
//! each message decoded where it landed (it was five per call: an encode
//! `Vec` at each end, a copy out of each receive buffer and a boxed handler
//! future); a lookup is what its descriptor needs at both ends. Payloads are
//! not part of the floor: a READ response, a
//! WRITE and a SEND travel as a pin on the arena they were sampled from and
//! are copied once, block to block, at delivery (`rdma::memory`), and an
//! atomic's word travels by value — so a payload `Vec` per wire message coming back lifts
//! every pin here by one per message, and the byte pin at the end (a 1 MiB
//! striped IO asks the heap for under 4 KiB) by the IO size. Neither metric
//! updates nor events are part of the floor either: every layer updates
//! through handles resolved at construction (`sim::metrics`) and schedules
//! its hot-path timers as typed events on an `EventSink` (`sim::executor`),
//! so a per-update name `String` or a boxed closure per event coming back
//! lifts every pin by a multiple (the pins were 2–6x their pre-pin values
//! when every event was a `Box<dyn FnOnce>` and the plan lists of a region
//! round were fresh `Vec`s). All of that is with recording off, as the
//! benchmark runs; the last KV pins switch the simulation's recorder on and
//! hold what that costs to one allocation per op handle, at either level.
//!
//! The arena's own contract comes first, in heap requests: an arena block
//! asks the host for nothing at `alloc` and grows only as it is written.
//!
//! This is the only test in the binary so the counting global allocator
//! sees no concurrent test threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rstore::proto::{Heartbeat, Request};
use rstore::rpc::{spawn_rpc_server, Channel, RESPONSE_TIMEOUT};
use rstore::{
    AllocOptions, ClientConfig, Cluster, ClusterConfig, KvConfig, KvTable, RStoreClient,
    CTRL_SERVICE,
};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// The largest single request since it was last reset.
static LARGEST: AtomicU64 = AtomicU64::new(0);

// A `realloc` is counted as the `alloc` of its new size: the trait's default
// `realloc`, which this keeps, allocates, copies and frees through `alloc`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LARGEST.fetch_max(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `$body` for 12 rounds and pins the *minimum* per-round allocation
/// count of the last 6 at `$ceiling`: a per-op churn regression (a fresh
/// `Vec` or staging buffer per op) lifts every round, including the
/// minimum, while the occasional +4..8 spikes from buffers that double on
/// boundaries the ops don't control (slabs, pooled lists, hash maps) only
/// move the maximum. A loose band still catches wild nondeterminism.
macro_rules! steady {
    ($name:expr, $ceiling:expr, $body:expr) => {{
        let mut counts = [0u64; 12];
        for c in counts.iter_mut() {
            let before = allocs();
            $body;
            *c = allocs() - before;
        }
        let tail = &counts[6..];
        let (lo, hi) = (
            *tail.iter().min().expect("6 rounds"),
            *tail.iter().max().expect("6 rounds"),
        );
        assert!(
            hi - lo <= 16,
            "{}: steady state not flat: {:?}",
            $name,
            counts
        );
        assert!(
            lo <= $ceiling,
            "{}: {} allocations/op exceeds the pinned floor {} (rounds: {:?})",
            $name,
            lo,
            $ceiling,
            counts
        );
    }};
}

/// A backed arena block asks the heap for nothing when it is allocated, for
/// little when a few bytes are written, and, filled front to back, grows its
/// capacity by doubling: at most ⌈log2(len / chunk)⌉ + 1 requests, none
/// larger than the block.
fn arena_backs_blocks_as_they_are_written() {
    const LEN: u64 = 4 << 20;
    const CHUNK: u64 = 64 * 1024;
    let mut arena = rdma::Arena::new(1 << 30);
    // Warm the allocator's own maps (a block, and a free extent after it).
    arena.alloc(64).unwrap();
    let first = arena.alloc(LEN).unwrap();
    arena.free(first).unwrap();

    let before = allocs();
    let block = arena.alloc(LEN).unwrap();
    assert_eq!(
        allocs() - before,
        0,
        "a 4 MiB alloc asked the heap for memory"
    );

    let before = BYTES.load(Ordering::Relaxed);
    arena.write(block.addr, &[1u8; 64]).unwrap();
    let asked = BYTES.load(Ordering::Relaxed) - before;
    assert!(asked < 4096, "a 64 B write asked the heap for {asked} B");

    let chunk = vec![2u8; CHUNK as usize];
    let (before, bound) = (allocs(), (LEN / CHUNK).ilog2() as u64 + 1);
    LARGEST.store(0, Ordering::Relaxed);
    for off in (0..LEN).step_by(CHUNK as usize) {
        arena.write(block.addr + off, &chunk).unwrap();
    }
    let (grew, largest) = (allocs() - before, LARGEST.load(Ordering::Relaxed));
    assert!(
        grew <= bound,
        "a front-to-back fill reallocated {grew} times, over {bound}"
    );
    assert!(
        largest <= LEN,
        "a fill asked for {largest} B, more than the {LEN} B block"
    );
    assert_eq!(
        arena.resident(),
        LEN,
        "the fill, and nothing of the unwritten block"
    );
    assert_eq!(arena.read(block.addr + LEN - 8, 8).unwrap(), vec![2u8; 8]);
}

#[test]
fn steady_state_ops_hold_allocation_floor() {
    arena_backs_blocks_as_they_are_written();

    // The benchmark's configuration: the default `RdmaConfig` (striped IO
    // groups into multi-element WRs by itself).
    let cluster = Cluster::boot(ClusterConfig::with_servers(3)).expect("boot");
    let sim = cluster.sim.clone();
    sim.block_on(async move {
        let client = cluster.client(0).await.unwrap();
        let dev = client.device().clone();
        let plain = client
            .alloc(
                "raw/plain",
                64 * 1024,
                AllocOptions {
                    stripe_size: 4096,
                    ..AllocOptions::default()
                },
            )
            .await
            .unwrap();
        let ck = client
            .alloc(
                "raw/ck",
                64 * 1024,
                AllocOptions {
                    stripe_size: 4096,
                    checksums: true,
                    ..AllocOptions::default()
                },
            )
            .await
            .unwrap();
        let kv = KvTable::create(&client, "raw/kv", KvConfig::default())
            .await
            .unwrap();

        // A 4-stripe IO buffer: its pieces group into multi-element WRs.
        let io = dev.alloc(16 * 1024).unwrap();
        dev.write_mem(io.addr, &vec![7u8; 16 * 1024]).unwrap();
        plain.write_from(0, io).await.unwrap();
        ck.write_from(0, io).await.unwrap();
        let keys: Vec<Vec<u8>> = (0..8).map(|i| format!("key-{i}").into_bytes()).collect();
        for k in &keys {
            kv.put(k, &[9u8; 32]).await.unwrap();
        }
        let key_refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();

        // Region ops (plain + checksummed), 4 stripes per IO.
        steady!("region.write", 0, plain.write_from(0, io).await.unwrap());
        steady!("region.read", 0, plain.read_into(0, io).await.unwrap());
        steady!("region.write_ck", 0, ck.write_from(0, io).await.unwrap());
        steady!("region.read_ck", 0, ck.read_into(0, io).await.unwrap());

        // KV ops. A warm put is a CAS plus one WRITE staged in a pooled
        // buffer, so this also pins the one-sided CAS path's allocation
        // floor.
        steady!("kv.get", 1, {
            assert!(kv.get(&keys[0]).await.unwrap().is_some());
        });
        steady!("kv.put", 0, kv.put(&keys[0], &[9u8; 32]).await.unwrap());
        steady!("kv.multi_get", 9, {
            let vals = kv.multi_get(&key_refs).await.unwrap();
            assert!(vals.iter().all(Option::is_some));
        });
        steady!("kv.delete+put", 0, {
            assert!(kv.delete(&keys[1]).await.unwrap());
            kv.put(&keys[1], &[9u8; 32]).await.unwrap();
        });

        // Past capacity: a handle that caches 4 hints, cycling through 16
        // keys, so every op misses, walks and evicts the oldest hint, whose
        // entry the new hint reuses.
        let cfg = ClientConfig {
            kv_hint_capacity: 4,
            ..ClientConfig::default()
        };
        let small = RStoreClient::connect_with(&cluster.client_devs[0], cluster.master_node(), cfg)
            .await
            .unwrap();
        let KvConfig {
            slot_bytes,
            max_probe,
            ..
        } = KvConfig::default();
        let evicting = KvTable::open(&small, "raw/kv", slot_bytes, max_probe)
            .await
            .unwrap();
        let many: Vec<Vec<u8>> = (0..16).map(|i| format!("cold-{i}").into_bytes()).collect();
        for k in &many {
            kv.put(k, &[9u8; 32]).await.unwrap();
        }
        let mut next = many.iter().cycle();
        steady!("kv.get past capacity", 1, {
            let k = next.next().expect("cycle");
            assert!(evicting.get(k).await.unwrap().is_some());
        });
        steady!("kv.put past capacity", 0, {
            let k = next.next().expect("cycle");
            evicting.put(k, &[9u8; 32]).await.unwrap();
        });

        // Recording on: what the switch costs per op, at either level, is
        // the op's one handle — a get starts one, a put two (its own and
        // its CAS's). The span tree rides in the same `Rc` and its list is
        // pooled (an exemplar bucket full of slower ops keeps none of
        // these), so spans cost what costs do.
        let rec = cluster.sim.recorder();
        let spans = sim::Level::Spans(sim::ForensicsConfig::default());
        for (level, get, put) in [
            (sim::Level::Costs, "kv.get @costs", "kv.put @costs"),
            (spans, "kv.get @spans", "kv.put @spans"),
        ] {
            rec.enable(level, 0);
            steady!(get, 2, {
                assert!(kv.get(&keys[0]).await.unwrap().is_some());
            });
            steady!(put, 2, kv.put(&keys[0], &[9u8; 32]).await.unwrap());
        }
        rec.enable(sim::Level::Off, 0);

        dev.free(io).unwrap();
    });

    // Default configuration, single-piece IO: the chain-of-one every KV
    // probe and small region op rides, pinned at its measured floor so a
    // chain of one that starts allocating shows up here.
    let cluster = Cluster::boot(ClusterConfig {
        clients: 1,
        ..ClusterConfig::with_servers(3)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    sim.block_on(async move {
        let client = cluster.client(0).await.unwrap();
        let dev = client.device().clone();
        let opts = AllocOptions {
            stripe_size: 4096,
            ..AllocOptions::default()
        };
        let plain = client.alloc("raw/one", 64 * 1024, opts).await.unwrap();
        let one = dev.alloc(4096).unwrap();
        plain.write_from(0, one).await.unwrap();
        steady!("default.write", 0, plain.write_from(0, one).await.unwrap());
        steady!("default.read", 0, plain.read_into(0, one).await.unwrap());
        dev.free(one).unwrap();

        // Bytes, not counts: 1 MiB over sixteen 64 KiB stripes moves through
        // pins, so what the heap is asked for per IO is bookkeeping alone.
        let opts = AllocOptions {
            stripe_size: 64 * 1024,
            ..AllocOptions::default()
        };
        let wide = client.alloc("raw/wide", 1 << 20, opts).await.unwrap();
        let mib = dev.alloc(1 << 20).unwrap();
        let mut per_io = [0u64; 12];
        for b in per_io.iter_mut() {
            let before = BYTES.load(Ordering::Relaxed);
            wide.write_from(0, mib).await.unwrap();
            wide.read_into(0, mib).await.unwrap();
            *b = (BYTES.load(Ordering::Relaxed) - before) / 2;
        }
        let lo = *per_io[6..].iter().min().expect("6 rounds");
        assert!(
            lo < 4096,
            "a 1 MiB striped IO asked the heap for {lo} bytes (rounds: {per_io:?})"
        );
        dev.free(mib).unwrap();

        // A region read lends the pooled staging block its bytes landed in
        // and takes it back when the result drops: warm, plain or
        // checksummed, at each size the benchmark reads, it asks the heap
        // for nothing (it was one `Vec` of the IO's size per read).
        let opts = AllocOptions {
            checksums: true,
            ..opts
        };
        let wide_ck = client.alloc("raw/wide_ck", 1 << 20, opts).await.unwrap();
        wide_ck.write(0, &vec![3u8; 1 << 20]).await.unwrap();
        for (name, region) in [("region.read", &wide), ("region.read_ck", &wide_ck)] {
            for len in [4096, 64 * 1024, 1 << 20] {
                steady!(
                    format!("{name} {} KiB", len >> 10),
                    0,
                    drop(region.read(0, len).await.unwrap())
                );
            }
        }

        // Control calls, both ends in this process. A heartbeat-shaped call
        // (a small request answered with `()`) allocates nothing at either
        // end once warm.
        let peer = rdma::RdmaDevice::new(&cluster.fabric, rdma::RdmaConfig::default());
        let beat = |_: Heartbeat, mut out: Vec<u8>| async move {
            Heartbeat::encode_reply(Ok(()), &mut out);
            out
        };
        let cpu = std::time::Duration::from_micros(2);
        spawn_rpc_server(&peer, CTRL_SERVICE, cpu, beat).unwrap();
        let ch = Channel::new(&dev, peer.node(), CTRL_SERVICE, RESPONSE_TIMEOUT);
        steady!(
            "ctrl.call",
            0,
            ch.call(&Heartbeat { node: 1 }).await.unwrap()
        );
        // A lookup is what its descriptor needs, twice: the master's copy
        // and the client's decode each build the region name, the group
        // list and one replica list per group (16 here) — the decode's group
        // list in three steps, as a list reserves nothing from a count off
        // the wire — and the request's name is one more at each end:
        // 19 + 21 = 40.
        steady!("client.lookup", 40, {
            let desc = client.lookup("raw/one").await.unwrap();
            assert_eq!(desc.groups.len(), 16);
        });
    });
}
