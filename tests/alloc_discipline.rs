//! Steady-state allocation discipline for the raw-speed op path.
//!
//! After a short warmup (staging pools filled, hint caches and hash maps
//! sized, QPs dialed), every data-path op must settle to a *flat* per-op
//! host-heap allocation count — the hoisted-buffer discipline means no
//! per-op staging or scratch-`Vec` churn — and stay at or under a pinned
//! ceiling. The remaining floor is the simulator's own machinery (one
//! oneshot completion channel per WR), which a real verbs stack does not
//! pay; the pins keep that floor from silently growing. A 4-stripe region
//! IO is 3 on a plain region (one WR per server) and 4 on a checksummed one
//! (one WR per stripe; it was 28 while checksummed IO spawned a task per
//! stripe). A warm `kv.get` is 2: the completion `oneshot` and the returned
//! value; a warm `kv.put` is 2: the `oneshot`s of its CAS and of its
//! publishing WRITE. Payloads are not part of the floor: a READ response, a
//! WRITE and a SEND travel as a pin on the arena they were sampled from and
//! are copied once, block to block, at delivery (`rdma::memory`), an inline
//! WRITE copies into a buffer its pin slot keeps, and an atomic's word
//! travels by value — so a payload `Vec` per wire message coming back lifts
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
//! This is the only test in the binary so the counting global allocator
//! sees no concurrent test threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rstore::{AllocOptions, Cluster, ClusterConfig, KvConfig, KvTable};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
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

#[test]
fn steady_state_ops_hold_allocation_floor() {
    let cluster = Cluster::boot(ClusterConfig {
        clients: 1,
        // The raw-speed configuration: inline posting for small slot
        // publishes (striped IO groups into multi-element WRs by itself).
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
        steady!("region.write", 3, plain.write_from(0, io).await.unwrap());
        steady!("region.read", 3, plain.read_into(0, io).await.unwrap());
        steady!("region.write_ck", 4, ck.write_from(0, io).await.unwrap());
        steady!("region.read_ck", 4, ck.read_into(0, io).await.unwrap());

        // KV ops. A warm put is CAS + inline WRITE, so this also pins the
        // one-sided CAS path's allocation floor.
        steady!("kv.get", 2, {
            assert!(kv.get(&keys[0]).await.unwrap().is_some());
        });
        steady!("kv.put", 2, kv.put(&keys[0], &[9u8; 32]).await.unwrap());
        steady!("kv.multi_get", 10, {
            let vals = kv.multi_get(&key_refs).await.unwrap();
            assert!(vals.iter().all(Option::is_some));
        });
        steady!("kv.delete+put", 7, {
            assert!(kv.delete(&keys[1]).await.unwrap());
            kv.put(&keys[1], &[9u8; 32]).await.unwrap();
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
            steady!(get, 3, {
                assert!(kv.get(&keys[0]).await.unwrap().is_some());
            });
            steady!(put, 4, kv.put(&keys[0], &[9u8; 32]).await.unwrap());
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
        steady!("default.write", 1, plain.write_from(0, one).await.unwrap());
        steady!("default.read", 1, plain.read_into(0, one).await.unwrap());
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
    });
}
