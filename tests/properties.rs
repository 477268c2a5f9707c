//! Property-based tests over the core data structures and invariants.
//!
//! Implemented as seeded randomized sweeps over [`sim::DetRng`] so the
//! workspace needs no external property-testing dependency: each property
//! runs a fixed number of cases from a fixed seed, so failures are exactly
//! reproducible (re-run the same test; the case index is in the panic
//! message).

use std::time::Duration;

use sim::DetRng;

use rdma::memory::Arena;
use rdma::{Access, DmaBuf};
use rsort::{choose_splitters, dest_of, partition_records, ShufflePlan};
use rstore::layout::Layout;
use rstore::proto::{
    Alloc, AllocExtents, AllocOptions, ClusterReport, ClusterStats, CtrlReq, Drain, Extent, Free,
    FreeExtents, Grow, Heartbeat, Lookup, Policy, RegionDesc, RegionState, RegionStats,
    RegisterServer, Registration, Replicate, Report, ReportCorruption, ServerStats, SetAccess,
    SrvReq, Stat, StripeGroup, Wire,
};
use rstore::RStoreError;
use workload::{is_sorted, record_key, sort_records, teragen, KEY_BYTES, RECORD_BYTES};

/// Runs `body` for `cases` seeded cases, labelling failures with the case
/// index so any counterexample is reproducible.
fn cases(name: &str, cases: u64, mut body: impl FnMut(&mut DetRng)) {
    for case in 0..cases {
        let mut rng = DetRng::new(0xC0FFEE ^ case);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = result {
            eprintln!("property {name:?} failed at case {case}");
            std::panic::resume_unwind(e);
        }
    }
}

// --- arena allocator -----------------------------------------------------------

/// Random alloc/free interleavings never double-allocate, never lose
/// capacity, and always coalesce back to a fully free arena.
#[test]
fn arena_allocator_invariants() {
    cases("arena_allocator_invariants", 64, |rng| {
        let capacity = 64 * 1024;
        let mut arena = Arena::new(capacity);
        let mut live: Vec<DmaBuf> = Vec::new();
        let steps = rng.range_u64(1, 120);
        for _ in 0..steps {
            let val = rng.range_u64(1, 2000);
            if rng.chance(0.5) {
                if let Ok(buf) = arena.alloc(val) {
                    // No overlap with any live allocation.
                    for other in &live {
                        let disjoint =
                            buf.addr + buf.len <= other.addr || other.addr + other.len <= buf.addr;
                        assert!(disjoint, "overlapping allocations");
                    }
                    live.push(buf);
                }
            } else if !live.is_empty() {
                let buf = live.swap_remove((val as usize) % live.len());
                assert!(arena.free(buf).is_ok());
            }
            let used: u64 = live.iter().map(|b| b.len).sum();
            assert_eq!(arena.used(), used);
        }
        for buf in live.drain(..) {
            arena.free(buf).unwrap();
        }
        // Fully coalesced: the whole capacity is allocatable again.
        assert!(arena.alloc(capacity).is_ok());
    });
}

/// Registered regions always bound remote access.
#[test]
fn mr_checks_bound_access() {
    cases("mr_checks_bound_access", 256, |rng| {
        let start = rng.range_u64(0, 1000);
        let len = rng.range_u64(1, 1000);
        let off = rng.range_u64(0, 2000);
        let alen = rng.range_u64(1, 2000);
        let mut arena = Arena::new(1 << 20);
        let _pad = arena.alloc(start.max(1)).unwrap();
        let buf = arena.alloc(len).unwrap();
        let mr = arena.register(buf, Access::REMOTE_READ).unwrap();
        let inside = off
            .checked_add(alen)
            .is_some_and(|e| off >= buf.addr && e <= buf.addr + buf.len);
        let ok = mr.check(off, alen, Access::REMOTE_READ).is_ok();
        assert_eq!(ok, inside);
    });
}

/// Payloads by reference against an eager-copy oracle: under random
/// interleavings of sample / write / free / re-alloc / deliver / drop, every
/// payload lands as the bytes an eager `read` at its sampling instant
/// returned, whether it was still a live pin or had been copied out, and
/// `pin_stats` counts exactly the payloads not yet dropped.
#[test]
fn pinned_payloads_match_eager_copies() {
    fn sub_range(rng: &mut DetRng, bufs: &[DmaBuf]) -> (u64, u64) {
        let buf = bufs[rng.index(bufs.len())];
        let off = rng.range_u64(0, buf.len);
        (buf.addr + off, rng.range_u64(0, buf.len - off + 1))
    }
    cases("pinned_payloads_match_eager_copies", 96, |rng| {
        let mut src = Arena::new(16 * 1024);
        let mut dst = Arena::new(16 * 1024);
        let landing = dst.alloc(2048).unwrap();
        let mut bufs: Vec<DmaBuf> = Vec::new();
        let mut in_flight: Vec<(rdma::wire::Payload, Vec<u8>)> = Vec::new();
        for _ in 0..rng.range_u64(20, 200) {
            match rng.index(7) {
                0 => {
                    if let Ok(buf) = src.alloc(rng.range_u64(1, 2048)) {
                        let mut fill = vec![0u8; buf.len as usize];
                        rng.fill_bytes(&mut fill);
                        src.write(buf.addr, &fill).unwrap();
                        bufs.push(buf);
                    }
                }
                1 if !bufs.is_empty() => {
                    let buf = bufs.swap_remove(rng.index(bufs.len()));
                    src.free(buf).unwrap();
                }
                2 | 3 if !bufs.is_empty() => {
                    let (addr, len) = sub_range(rng, &bufs);
                    let eager = src.read(addr, len).unwrap();
                    in_flight.push((src.read_payload(addr, len).unwrap(), eager));
                }
                4 if !bufs.is_empty() => {
                    let (addr, len) = sub_range(rng, &bufs);
                    let mut bytes = vec![0u8; len as usize];
                    rng.fill_bytes(&mut bytes);
                    src.write(addr, &bytes).unwrap();
                }
                5 if !in_flight.is_empty() => {
                    let (payload, eager) = in_flight.swap_remove(rng.index(in_flight.len()));
                    let len = eager.len() as u64;
                    // Into the other arena, or back into the one it is
                    // pinned on — itself a write under other pins.
                    let home = bufs.iter().find(|b| b.len >= len).copied();
                    match home.filter(|_| rng.chance(0.3)) {
                        Some(buf) => {
                            src.write_payload(buf.addr, &payload).unwrap();
                            assert_eq!(src.read(buf.addr, len).unwrap(), eager);
                        }
                        None => {
                            dst.write_payload(landing.addr, &payload).unwrap();
                            assert_eq!(dst.read(landing.addr, len).unwrap(), eager);
                        }
                    }
                }
                6 if !in_flight.is_empty() => {
                    in_flight.swap_remove(rng.index(in_flight.len()));
                }
                _ => {}
            }
            let pinned = in_flight
                .iter()
                .filter(|(p, _)| matches!(p, rdma::wire::Payload::Pinned(_)))
                .count();
            assert_eq!(src.pin_stats().0, pinned);
        }
        in_flight.clear();
        assert_eq!(src.pin_stats().0, 0);
        assert_eq!(dst.pin_stats(), (0, 0));
    });
}

/// Lazy backing against a shadow of eagerly zero-filled vectors, one per
/// block: under random alloc / aligned alloc / write / word write / read /
/// sample / deliver / free sequences on two arenas, every byte read and
/// every payload delivered is what the shadow holds, `used` is the shadow's
/// size, and `resident` never exceeds it.
#[test]
fn lazily_backed_blocks_match_an_eager_shadow() {
    type Shadow = Vec<(DmaBuf, Vec<u8>)>;
    /// A block of the shadow and a sub-range `(offset, len)` of it.
    fn sub_range(rng: &mut DetRng, shadow: &Shadow) -> (usize, usize, usize) {
        let i = rng.index(shadow.len());
        let len = shadow[i].1.len();
        let off = rng.index(len);
        (i, off, rng.index(len - off + 1))
    }
    cases("lazily_backed_blocks_match_an_eager_shadow", 96, |rng| {
        let mut arenas = [Arena::new(64 * 1024), Arena::new(64 * 1024)];
        let mut shadows: [Shadow; 2] = [Vec::new(), Vec::new()];
        let mut in_flight: Vec<(rdma::wire::Payload, Vec<u8>)> = Vec::new();
        for _ in 0..rng.range_u64(20, 300) {
            let side = rng.index(2);
            let (arena, shadow) = (&mut arenas[side], &mut shadows[side]);
            match rng.index(8) {
                0 => {
                    let len = rng.range_u64(1, 8192);
                    let got = if rng.chance(0.5) {
                        arena.alloc(len)
                    } else {
                        arena.alloc_aligned(len, 8)
                    };
                    if let Ok(buf) = got {
                        shadow.push((buf, vec![0u8; len as usize]));
                    }
                }
                1 if !shadow.is_empty() => {
                    let (buf, _) = shadow.swap_remove(rng.index(shadow.len()));
                    arena.free(buf).unwrap();
                }
                2 if !shadow.is_empty() => {
                    let (i, off, len) = sub_range(rng, shadow);
                    let (buf, bytes) = &mut shadow[i];
                    rng.fill_bytes(&mut bytes[off..off + len]);
                    let addr = buf.addr + off as u64;
                    arena.write(addr, &bytes[off..off + len]).unwrap();
                }
                3 if !shadow.is_empty() => {
                    let (i, off, _) = sub_range(rng, shadow);
                    let (buf, bytes) = &mut shadow[i];
                    let addr = (buf.addr + off as u64).next_multiple_of(8);
                    let off = (addr - buf.addr) as usize;
                    if off + 8 <= bytes.len() {
                        let word = rng.next_u64();
                        bytes[off..off + 8].copy_from_slice(&word.to_le_bytes());
                        arena.write_u64(addr, word).unwrap();
                        assert_eq!(arena.read_u64(addr).unwrap(), word);
                    }
                }
                4 if !shadow.is_empty() => {
                    let (i, off, len) = sub_range(rng, shadow);
                    let (buf, bytes) = &shadow[i];
                    let addr = buf.addr + off as u64;
                    assert_eq!(arena.read(addr, len as u64).unwrap(), bytes[off..off + len]);
                    let mut into = vec![0xAAu8; len];
                    arena.read_into(addr, &mut into).unwrap();
                    assert_eq!(into, bytes[off..off + len]);
                }
                5 if !shadow.is_empty() => {
                    let (i, off, len) = sub_range(rng, shadow);
                    let (buf, bytes) = &shadow[i];
                    let payload = arena.read_payload(buf.addr + off as u64, len as u64);
                    in_flight.push((payload.unwrap(), bytes[off..off + len].to_vec()));
                }
                6 if !in_flight.is_empty() => {
                    // Onto the arena it was sampled from or the other one.
                    let i = rng.index(in_flight.len());
                    let fits = shadow
                        .iter_mut()
                        .find(|(_, b)| b.len() >= in_flight[i].1.len());
                    if let Some((buf, bytes)) = fits {
                        let (payload, sampled) = in_flight.swap_remove(i);
                        let off = rng.index(bytes.len() - sampled.len() + 1);
                        bytes[off..off + sampled.len()].copy_from_slice(&sampled);
                        arena
                            .write_payload(buf.addr + off as u64, &payload)
                            .unwrap();
                        assert_eq!(arena.read(buf.addr, buf.len).unwrap(), *bytes);
                    }
                }
                7 if !in_flight.is_empty() => {
                    in_flight.swap_remove(rng.index(in_flight.len()));
                }
                _ => {}
            }
            for (arena, shadow) in arenas.iter().zip(&shadows) {
                let used: u64 = shadow.iter().map(|(buf, _)| buf.len).sum();
                assert_eq!(arena.used(), used);
                assert!(arena.resident() <= used);
            }
        }
        for (arena, shadow) in arenas.iter().zip(&shadows) {
            for (buf, bytes) in shadow {
                assert_eq!(arena.read(buf.addr, buf.len).unwrap(), *bytes);
            }
        }
    });
}

// --- stripe layout ---------------------------------------------------------------

fn random_desc(rng: &mut DetRng) -> RegionDesc {
    let n = rng.range_u64(1, 40) as usize;
    let lens: Vec<u64> = (0..n).map(|_| rng.range_u64(1, 5000)).collect();
    RegionDesc {
        name: "p".into(),
        size: lens.iter().sum(),
        stripe_size: lens[0],
        groups: lens
            .iter()
            .map(|&len| StripeGroup {
                replicas: vec![Extent {
                    node: 0,
                    addr: 0,
                    rkey: 0,
                    len,
                }],
            })
            .collect(),
        state: RegionState::Healthy,
        checksums: false,
    }
}

/// Scatter/gather pieces tile the requested byte range exactly: a
/// bijection between buffer bytes and (stripe, offset) pairs.
#[test]
fn layout_pieces_tile_the_range() {
    cases("layout_pieces_tile_the_range", 128, |rng| {
        let desc = random_desc(rng);
        let layout = Layout::new(&desc);
        let size = layout.size();
        let offset = (rng.f64() * size as f64) as u64;
        let len = ((rng.f64() * (size - offset) as f64) as u64).min(size - offset);
        let pieces = layout.pieces(offset, len).unwrap();
        let mut cursor_buf = 0u64;
        let mut cursor_log = offset;
        for p in &pieces {
            assert_eq!(p.buf_offset, cursor_buf);
            // Logical position of the piece = stripe start + in-stripe offset.
            let stripe_start: u64 = desc.groups[..p.group].iter().map(|g| g.len()).sum();
            assert_eq!(stripe_start + p.offset_in_stripe, cursor_log);
            assert!(p.len > 0);
            assert!(p.offset_in_stripe + p.len <= desc.groups[p.group].len());
            cursor_buf += p.len;
            cursor_log += p.len;
        }
        assert_eq!(cursor_buf, len);
    });
}

// --- control-plane wire format -----------------------------------------------------

fn r32(rng: &mut DetRng) -> u32 {
    rng.next_u64() as u32
}

/// Up to 20 characters, multi-byte UTF-8 among them.
fn random_name(rng: &mut DetRng) -> String {
    let alphabet = ['a', 'z', '/', '"', 'é', 'ß', '名', '🦀'];
    (0..rng.index(21))
        .map(|_| alphabet[rng.index(alphabet.len())])
        .collect()
}

/// Up to four elements.
fn random_list<T>(rng: &mut DetRng, mut item: impl FnMut(&mut DetRng) -> T) -> Vec<T> {
    let n = rng.index(5);
    (0..n).map(|_| item(rng)).collect()
}

fn random_state(rng: &mut DetRng) -> RegionState {
    [RegionState::Healthy, RegionState::Degraded][rng.index(2)]
}

fn random_opts(rng: &mut DetRng) -> AllocOptions {
    AllocOptions {
        stripe_size: rng.next_u64(),
        replicas: rng.next_u64() as u8,
        policy: [Policy::RoundRobin, Policy::Random, Policy::CapacityWeighted][rng.index(3)],
        synthetic: rng.chance(0.5),
        checksums: rng.chance(0.5),
    }
}

/// One of the errors that cross the wire as themselves.
fn random_error(rng: &mut DetRng) -> RStoreError {
    match rng.index(6) {
        0 => RStoreError::NameExists(random_name(rng)),
        1 => RStoreError::NotFound(random_name(rng)),
        2 => RStoreError::InsufficientCapacity {
            requested: rng.next_u64(),
        },
        3 => RStoreError::NotEnoughServers {
            replicas: r32(rng) as usize,
            available: r32(rng) as usize,
        },
        4 => RStoreError::Protocol(random_name(rng)),
        _ => RStoreError::Remote(random_name(rng)),
    }
}

/// Each message decodes back to itself, and no strict prefix of it decodes.
fn round_trips<M: Wire + PartialEq + std::fmt::Debug>(msgs: &[M]) {
    for m in msgs {
        let bytes = m.encode();
        assert_eq!(&M::decode(&bytes).unwrap(), m);
        for cut in 0..bytes.len() {
            assert!(
                M::decode(&bytes[..cut]).is_err(),
                "{cut}-byte prefix of {m:?} decoded"
            );
        }
    }
}

/// What a request is answered with: its reply, or the error it failed with.
type Reply<T> = Result<T, RStoreError>;

fn random_region(rng: &mut DetRng) -> RegionDesc {
    RegionDesc {
        name: random_name(rng),
        size: rng.next_u64(),
        stripe_size: rng.next_u64(),
        groups: random_list(rng, |rng| StripeGroup {
            replicas: random_list(rng, |rng| Extent {
                node: r32(rng),
                addr: rng.next_u64(),
                rkey: rng.next_u64(),
                len: rng.next_u64(),
            }),
        }),
        state: random_state(rng),
        checksums: rng.chance(0.5),
    }
}

fn random_stats(rng: &mut DetRng) -> ClusterStats {
    ClusterStats {
        servers: r32(rng),
        regions: r32(rng),
        capacity: rng.next_u64(),
        used: rng.next_u64(),
        consistent: rng.chance(0.5),
    }
}

fn random_report(rng: &mut DetRng) -> ClusterReport {
    ClusterReport {
        servers: random_list(rng, |rng| ServerStats {
            node: r32(rng),
            capacity: rng.next_u64(),
            used: rng.next_u64(),
            alive: rng.chance(0.5),
        }),
        regions: random_list(rng, |rng| RegionStats {
            name: random_name(rng),
            size: rng.next_u64(),
            state: random_state(rng),
            corrupt_extents: r32(rng),
        }),
        corruption_detected: rng.next_u64(),
        repaired_extents: rng.next_u64(),
        scrub_passes: rng.next_u64(),
    }
}

fn random_registration(rng: &mut DetRng) -> Registration {
    Registration {
        lease: Duration::from_nanos(rng.next_u64()),
        retire: random_list(rng, |rng| (rng.next_u64(), rng.next_u64())),
    }
}

fn random_extents(rng: &mut DetRng) -> Vec<(u64, u64, u64)> {
    random_list(rng, |rng| (rng.next_u64(), rng.next_u64(), rng.next_u64()))
}

/// A random instance of every request on both control connections survives
/// an encode/decode round trip, and none decodes from less than all of its
/// bytes; so does every reply type, ok and error.
#[test]
fn proto_round_trip_fuzzed() {
    cases("proto_round_trip_fuzzed", 128, |rng| {
        round_trips(&[
            CtrlReq::RegisterServer(RegisterServer {
                node: r32(rng),
                capacity: rng.next_u64(),
            }),
            CtrlReq::Heartbeat(Heartbeat { node: r32(rng) }),
            CtrlReq::Alloc(Alloc {
                name: random_name(rng),
                size: rng.next_u64(),
                opts: random_opts(rng),
            }),
            CtrlReq::Lookup(Lookup {
                name: random_name(rng),
            }),
            CtrlReq::Free(Free {
                name: random_name(rng),
            }),
            CtrlReq::Stat(Stat {}),
            CtrlReq::Grow(Grow {
                name: random_name(rng),
                additional: rng.next_u64(),
                opts: random_opts(rng),
            }),
            CtrlReq::ReportCorruption(ReportCorruption {
                name: random_name(rng),
                group: r32(rng),
                replica: r32(rng),
                node: r32(rng),
            }),
            CtrlReq::Report(Report {}),
            CtrlReq::Drain(Drain { node: r32(rng) }),
        ]);
        round_trips(&[
            SrvReq::AllocExtents(AllocExtents {
                count: r32(rng),
                len: rng.next_u64(),
                synthetic: rng.chance(0.5),
                checksums: rng.chance(0.5),
            }),
            SrvReq::FreeExtents(FreeExtents {
                extents: random_list(rng, |rng| (rng.next_u64(), rng.next_u64())),
            }),
            SrvReq::Replicate(Replicate {
                src_node: r32(rng),
                src_addr: rng.next_u64(),
                src_rkey: rng.next_u64(),
                dst_addr: rng.next_u64(),
                len: rng.next_u64(),
            }),
            SrvReq::SetAccess(SetAccess {
                rkey: rng.next_u64(),
                writable: rng.chance(0.5),
            }),
        ]);
        // Every reply type a request names, as its value and as an error.
        round_trips(&[Ok(random_region(rng)), Err(random_error(rng))]);
        round_trips(&[Ok(random_stats(rng)), Err(random_error(rng))]);
        round_trips(&[Ok(random_report(rng)), Err(random_error(rng))]);
        round_trips(&[Ok((rng.next_u64(), rng.next_u64())), Err(random_error(rng))]);
        round_trips(&[Ok(random_registration(rng)), Err(random_error(rng))]);
        round_trips(&[Ok(random_extents(rng)), Err(random_error(rng))]);
        round_trips(&[Ok(()), Err(random_error(rng))]);
    });
}

/// Arbitrary byte garbage never panics a decoder, on either control
/// connection: no request and no reply type.
#[test]
fn proto_decode_never_panics() {
    cases("proto_decode_never_panics", 256, |rng| {
        let len = rng.index(256);
        let mut bytes = vec![0u8; len];
        rng.fill_bytes(&mut bytes);
        let _ = CtrlReq::decode(&bytes);
        let _ = SrvReq::decode(&bytes);
        let _ = Reply::<RegionDesc>::decode(&bytes);
        let _ = Reply::<ClusterStats>::decode(&bytes);
        let _ = Reply::<ClusterReport>::decode(&bytes);
        let _ = Reply::<(u64, u64)>::decode(&bytes);
        let _ = Reply::<Registration>::decode(&bytes);
        let _ = Reply::<Vec<(u64, u64, u64)>>::decode(&bytes);
        let _ = Reply::<()>::decode(&bytes);
    });
}

// --- sort planning -----------------------------------------------------------------

/// Partitioning + shuffle-plan offsets reassemble into a dense,
/// ordered output for any record set and worker count.
#[test]
#[allow(clippy::needless_range_loop)]
fn shuffle_plan_reassembles_exactly() {
    cases("shuffle_plan_reassembles_exactly", 64, |rng| {
        let records = rng.range_u64(1, 400);
        let k = rng.index(8) + 1;
        let seed = rng.next_u64();
        let input = teragen(records, seed);
        // Sample all keys for splitters (worst-case accurate).
        let mut sample: Vec<[u8; KEY_BYTES]> = (0..records as usize)
            .map(|i| record_key(&input, i).try_into().unwrap())
            .collect();
        let splitters = choose_splitters(&mut sample, k);

        // Emulate the distributed flow: split input across k workers,
        // partition each, build the counts matrix.
        let mut per_worker: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut counts = vec![vec![0u64; k]; k];
        for w in 0..k {
            let lo = (w as u64 * records / k as u64) as usize * RECORD_BYTES;
            let hi = ((w as u64 + 1) * records / k as u64) as usize * RECORD_BYTES;
            let parts = partition_records(&input[lo..hi], &splitters);
            for (j, part) in parts.iter().enumerate() {
                counts[w][j] = (part.len() / RECORD_BYTES) as u64;
            }
            per_worker.push(parts);
        }
        let plan = ShufflePlan::new(counts);
        assert_eq!(plan.total(), records);

        // Shuffle into the output using the plan's offsets.
        let mut output = vec![0u8; input.len()];
        for (w, parts) in per_worker.iter().enumerate() {
            for (j, part) in parts.iter().enumerate() {
                let at = plan.write_index(w, j) as usize * RECORD_BYTES;
                output[at..at + part.len()].copy_from_slice(part);
            }
        }
        // Local-sort each partition; result must be globally sorted and a
        // permutation of the input.
        for j in 0..k {
            let (s, e) = plan.partition_range(j);
            sort_records(&mut output[s as usize * RECORD_BYTES..e as usize * RECORD_BYTES]);
        }
        assert!(is_sorted(&output));
        let mut expect = input.clone();
        sort_records(&mut expect);
        assert_eq!(output, expect);
    });
}

/// dest_of is the inverse of the splitter ordering.
#[test]
fn dest_of_monotone() {
    cases("dest_of_monotone", 64, |rng| {
        let n = rng.range_u64(2, 200) as usize;
        let k = rng.index(9) + 1;
        let keys: Vec<[u8; KEY_BYTES]> = (0..n)
            .map(|_| {
                let mut key = [0u8; KEY_BYTES];
                rng.fill_bytes(&mut key);
                key
            })
            .collect();
        let mut sample = keys.clone();
        let splitters = choose_splitters(&mut sample, k);
        let mut sorted = keys;
        sorted.sort_unstable();
        let dests: Vec<usize> = sorted.iter().map(|key| dest_of(key, &splitters)).collect();
        assert!(
            dests.windows(2).all(|w| w[0] <= w[1]),
            "routing must be monotone in key order"
        );
        assert!(dests.iter().all(|&d| d < k));
    });
}

// --- virtual-time executor -----------------------------------------------------------

/// Scheduled events always fire in (time, insertion) order regardless
/// of the order they were scheduled in.
#[test]
fn executor_fires_in_time_order() {
    cases("executor_fires_in_time_order", 32, |rng| {
        use std::cell::RefCell;
        use std::rc::Rc;
        let n = rng.range_u64(1, 100) as usize;
        let delays: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 10_000)).collect();
        let sim = sim::Sim::new();
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::default();
        for (i, &d) in delays.iter().enumerate() {
            let log = log.clone();
            let s = sim.clone();
            sim.schedule(std::time::Duration::from_nanos(d), move || {
                log.borrow_mut().push((s.now().as_nanos(), i));
            });
        }
        sim.run();
        let log = log.borrow();
        assert_eq!(log.len(), delays.len());
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "time went backwards");
            if w[0].0 == w[1].0 {
                assert!(
                    w[0].1 < w[1].1,
                    "same-instant events must keep insertion order"
                );
            }
        }
        for &(t, i) in log.iter() {
            assert_eq!(t, delays[i]);
        }
    });
}

/// Fabric byte accounting conserves: delivered bytes equal sent bytes
/// for any message pattern between live nodes.
#[test]
fn fabric_conserves_bytes() {
    cases("fabric_conserves_bytes", 32, |rng| {
        let sim = sim::Sim::new();
        let fabric: fabric::Fabric<u32> =
            fabric::Fabric::new(sim.clone(), fabric::FabricConfig::default());
        let nodes: Vec<_> = (0..4).map(|_| fabric.add_node()).collect();
        let mut rxs = Vec::new();
        for &n in &nodes {
            rxs.push(fabric.attach(n));
        }
        let mut expect_total = 0u64;
        let msgs = rng.range_u64(1, 60);
        for _ in 0..msgs {
            let src = rng.index(4);
            let dst = rng.index(4);
            let bytes = rng.range_u64(1, 100_000);
            fabric.send(nodes[src], nodes[dst], bytes, 0);
            expect_total += bytes;
        }
        for mut rx in rxs {
            sim.spawn(async move { while rx.recv().await.is_some() {} });
        }
        drop(fabric.clone()); // keep handle alive through run
        sim.run();
        let tx: u64 = nodes.iter().map(|&n| fabric.tx_bytes(n)).sum();
        let rx: u64 = nodes.iter().map(|&n| fabric.rx_bytes(n)).sum();
        assert_eq!(tx, expect_total);
        assert_eq!(tx, rx);
    });
}

// --- small-IO batching equivalence ------------------------------------------------

/// Applies one seeded small-IO schedule against a fresh cluster and returns
/// every op's bytes (plus, fault-free, the post-write region image), or the
/// first error formatted. `batched` posts reads through
/// `Region::read_into_many`; otherwise one awaited `read_into` per op.
/// With `lossy`, a total-loss fault window covers the read phase and writes
/// are skipped.
#[allow(clippy::too_many_arguments)]
fn run_small_io(
    checksums: bool,
    stripe: u64,
    size: u64,
    schedule: &[(u64, u64)],
    writes: &[(u64, Vec<u8>)],
    fill_seed: u64,
    batched: bool,
    lossy: bool,
) -> Result<Vec<Vec<u8>>, String> {
    use rstore::{AllocOptions, Cluster, ClusterConfig, RStoreClient};
    let cluster = Cluster::boot(ClusterConfig {
        clients: 1,
        ..ClusterConfig::with_servers(3)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let schedule = schedule.to_vec();
    let writes = writes.to_vec();
    sim.block_on(async move {
        let client = RStoreClient::connect(&devs[0], master)
            .await
            .expect("connect");
        let opts = AllocOptions {
            stripe_size: stripe,
            checksums,
            ..AllocOptions::default()
        };
        let region = client
            .alloc("prop_smallio", size, opts)
            .await
            .expect("alloc");
        let mut fill = vec![0u8; size as usize];
        DetRng::new(fill_seed).fill_bytes(&mut fill);
        region.write(0, &fill).await.expect("prefill");
        if lossy {
            fabric::FaultPlan::new(1)
                .loss_window(
                    std::time::Duration::ZERO,
                    std::time::Duration::from_secs(600),
                    1.0,
                )
                .install(&fabric);
        }
        let dev = client.device().clone();
        let result: Result<Vec<Vec<u8>>, rstore::RStoreError> = async {
            let mut out = Vec::new();
            if batched {
                let bufs: Vec<DmaBuf> = schedule
                    .iter()
                    .map(|&(_, len)| dev.alloc(len).expect("buf"))
                    .collect();
                let ios: Vec<(u64, DmaBuf)> = schedule
                    .iter()
                    .zip(&bufs)
                    .map(|(&(off, _), &buf)| (off, buf))
                    .collect();
                region.read_into_many(&ios).await?;
                for (&(_, len), buf) in schedule.iter().zip(&bufs) {
                    out.push(dev.read_mem(buf.addr, len).expect("mem"));
                }
            } else {
                for &(off, len) in &schedule {
                    let buf = dev.alloc(len).expect("buf");
                    region.read_into(off, buf).await?;
                    out.push(dev.read_mem(buf.addr, len).expect("mem"));
                    dev.free(buf).expect("free");
                }
            }
            if !lossy {
                for (off, data) in &writes {
                    region.write(*off, data).await?;
                }
                out.push(region.read(0, size).await?);
            }
            Ok(out)
        }
        .await;
        result.map_err(|e| format!("{e:?}"))
    })
}

/// Doorbell batching is a pure performance change: for seeded random
/// offset/len schedules, one awaited read per op and one `read_into_many`
/// round return byte-identical data (reads, and the region image after
/// random writes) on both plain and checksummed regions — and under a
/// total-loss fault window both forms report the same error.
#[test]
fn batched_small_io_equivalent() {
    cases("batched_small_io_equivalent", 4, |rng| {
        for checksums in [false, true] {
            let stripe = 1u64 << (10 + rng.index(3));
            let size = stripe * rng.range_u64(4, 13);
            let n_ops = rng.range_u64(2, 9);
            let schedule: Vec<(u64, u64)> = (0..n_ops)
                .map(|_| {
                    let len = rng.range_u64(1, 4096.min(size) + 1);
                    let off = rng.range_u64(0, size - len + 1);
                    (off, len)
                })
                .collect();
            let writes: Vec<(u64, Vec<u8>)> = (0..rng.range_u64(1, 4))
                .map(|_| {
                    let len = rng.range_u64(1, 3000.min(size) + 1);
                    let off = rng.range_u64(0, size - len + 1);
                    let mut data = vec![0u8; len as usize];
                    rng.fill_bytes(&mut data);
                    (off, data)
                })
                .collect();
            let fill_seed = rng.next_u64();

            let serial = run_small_io(
                checksums, stripe, size, &schedule, &writes, fill_seed, false, false,
            );
            let batched = run_small_io(
                checksums, stripe, size, &schedule, &writes, fill_seed, true, false,
            );
            assert!(serial.is_ok(), "fault-free run failed: {serial:?}");
            assert_eq!(
                serial, batched,
                "fault-free outcomes diverged (checksums={checksums})"
            );

            let serial = run_small_io(
                checksums, stripe, size, &schedule, &writes, fill_seed, false, true,
            );
            let batched = run_small_io(
                checksums, stripe, size, &schedule, &writes, fill_seed, true, true,
            );
            assert!(serial.is_err(), "total loss must surface an IO error");
            assert_eq!(
                serial, batched,
                "lossy outcomes diverged (checksums={checksums})"
            );
        }
    });
}

// --- region IO: the posting rule, against a model ---------------------------------

/// Over stripe size × replicas × servers, seeded random reads and writes of
/// a plain region agree with an in-memory model of it, and the op ledger
/// shows every op ringing exactly the doorbells the posting rule predicts:
/// one per distinct memory server for an IO of two or more pieces, one per
/// replica for a single-piece write, one for a single-piece read.
#[test]
fn region_io_matches_model_and_doorbell_rule() {
    use rstore::{AllocOptions, Cluster, ClusterConfig};
    use std::collections::BTreeSet;
    cases("region_io_matches_model_and_doorbell_rule", 2, |rng| {
        for stripe in [1u64 << 10, 4 << 10, 16 << 10] {
            for replicas in 1..=3u8 {
                for servers in [3usize, 4, 6] {
                    let size = stripe * 12;
                    // (is_write, offset, len): up to six stripes per op, so
                    // no server sees more than one WR's worth of pieces.
                    let ops: Vec<(bool, u64, u64)> = (0..10)
                        .map(|_| {
                            let len = rng.range_u64(1, 6 * stripe + 1);
                            (rng.chance(0.5), rng.range_u64(0, size - len + 1), len)
                        })
                        .collect();
                    let mut fill = vec![0u8; size as usize];
                    rng.fill_bytes(&mut fill);
                    let cluster = Cluster::boot(ClusterConfig {
                        clients: 1,
                        ..ClusterConfig::with_servers(servers)
                    })
                    .expect("boot");
                    let sim = cluster.sim.clone();
                    sim.recorder().enable(sim::Level::Costs, 0);
                    sim.block_on(async move {
                        let client = cluster.client(0).await.expect("client");
                        let opts = AllocOptions {
                            stripe_size: stripe,
                            replicas,
                            ..AllocOptions::default()
                        };
                        let region = client.alloc("prop_rule", size, opts).await.expect("alloc");
                        let desc = region.desc();
                        let layout = Layout::new(&desc);
                        let metrics = client.device().metrics();
                        let last_doorbells = |op: &str| {
                            let h = metrics.histogram(&format!("ops.{op}.doorbells"));
                            *h.expect("ledgered op").samples().last().expect("one op")
                        };
                        let mut model = fill.clone();
                        region.write(0, &fill).await.expect("prefill");
                        for (is_write, off, len) in ops {
                            let pieces = layout.pieces(off, len).unwrap();
                            let fanout = if is_write { replicas as usize } else { 1 };
                            let nodes: BTreeSet<u32> = pieces
                                .iter()
                                .flat_map(|p| &desc.groups[p.group].replicas[..fanout])
                                .map(|x| x.node)
                                .collect();
                            let want = if pieces.len() >= 2 {
                                nodes.len()
                            } else {
                                fanout
                            };
                            let range = off as usize..(off + len) as usize;
                            let op = if is_write {
                                DetRng::new(off ^ len).fill_bytes(&mut model[range.clone()]);
                                region.write(off, &model[range]).await.expect("write");
                                "write"
                            } else {
                                let got = region.read(off, len).await.expect("read");
                                assert_eq!(got, model[range], "read {off}+{len} vs model");
                                "read"
                            };
                            assert_eq!(
                                last_doorbells(op),
                                want as u64,
                                "{op} {off}+{len}: stripe {stripe}, {replicas} replicas, \
                                 {servers} servers, {} pieces",
                                pieces.len()
                            );
                        }
                        let image = region.read(0, size).await.expect("read back");
                        assert_eq!(image, model, "region image vs model");
                    });
                }
            }
        }
    });
}

// --- KV table vs model ------------------------------------------------------------

/// A random op sequence against the distributed KV table agrees with a
/// `HashMap` executed in lockstep — swept over the hint-cache size (0 forces
/// the probe walk on every op, 2 forces eviction and stale hints), the table
/// geometry (the crowded ones fill up: tombstone reuse, chains as long as
/// the table, and `InsufficientCapacity`, which the model must predict; one
/// has stripes of three slots, so the walk's READ windows cross stripes) and
/// the replica count. Two handles on two clients take turns, so each one's
/// hints go stale under the other's deletes and re-inserts, and one
/// mid-sequence `grow` leaves the other handle on a freed generation.
#[test]
fn kv_table_matches_hashmap_model() {
    use rstore::{AllocOptions, ClientConfig, Cluster, ClusterConfig, KvConfig, KvTable};
    use rstore::{RStoreClient, RStoreError};
    use std::collections::HashMap;

    enum Op {
        Put(u8, Vec<u8>),
        Delete(u8),
        Get(u8),
        MultiGet(Vec<u8>),
    }
    const HINT_CAPS: [usize; 3] = [0, 2, 4096];
    // (buckets, max_probe, buckets after the grow, stripe size). The third
    // one aims at the walk's READ windows: its chains run past the last
    // bucket, so a window is clipped at the table end, and its 3-slot
    // stripes make every 8-slot window straddle stripe boundaries.
    const GEOMETRIES: [(u64, u64, u64, u64); 3] = [
        (64, 64, 256, 16 << 20),
        (16, 16, 64, 16 << 20),
        (32, 32, 128, 3 * 128),
    ];
    let key_of = |id: u8| format!("key-{id}").into_bytes();

    let mut case = 0;
    cases("kv_table_matches_hashmap_model", 36, |rng| {
        let kv_hint_capacity = HINT_CAPS[case % 3];
        let (buckets, max_probe, grown, stripe_size) = GEOMETRIES[case / 3 % 3];
        let replicas = 1 + (case / 9 % 2) as u8;
        case += 1;

        let n_ops = rng.range_u64(1, 160);
        let grow_at = rng.range_u64(0, n_ops);
        let ops: Vec<Op> = (0..n_ops)
            .map(|_| {
                let key = rng.index(32) as u8;
                match rng.index(20) {
                    0..=9 => {
                        let mut value = vec![0u8; rng.index(40)];
                        rng.fill_bytes(&mut value);
                        Op::Put(key, value)
                    }
                    10..=12 => Op::Delete(key),
                    13..=16 => Op::Get(key),
                    _ => Op::MultiGet((0..=rng.index(8)).map(|_| rng.index(32) as u8).collect()),
                }
            })
            .collect();

        let cluster = Cluster::boot(ClusterConfig {
            clients: 2,
            ..ClusterConfig::with_servers(2)
        })
        .expect("boot");
        let sim = cluster.sim.clone();
        let devs = cluster.client_devs.clone();
        let master = cluster.master_node();
        let outcome: Result<(), String> = sim.block_on(async move {
            let client_cfg = ClientConfig {
                kv_hint_capacity,
                ..ClientConfig::default()
            };
            let cfg = KvConfig {
                buckets,
                slot_bytes: 128,
                max_probe,
                opts: AllocOptions {
                    stripe_size,
                    replicas,
                    ..AllocOptions::default()
                },
            };
            let mut handles = Vec::new();
            for (i, dev) in devs.iter().enumerate() {
                let client = RStoreClient::connect_with(dev, master, client_cfg)
                    .await
                    .map_err(|e| e.to_string())?;
                let kv = match i {
                    0 => KvTable::create(&client, "prop_kv", cfg).await,
                    _ => KvTable::open(&client, "prop_kv", cfg.slot_bytes, max_probe).await,
                };
                handles.push(kv.map_err(|e| e.to_string())?);
            }

            let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
            for (i, op) in ops.into_iter().enumerate() {
                let kv = &handles[i % 2];
                if i as u64 == grow_at {
                    let moved = handles[0].grow(grown).await.map_err(|e| e.to_string())?;
                    if moved != model.len() as u64 {
                        return Err(format!("grow moved {moved}, model has {}", model.len()));
                    }
                }
                match op {
                    Op::Put(id, value) => {
                        // The probe window covers the whole table until the
                        // grow, so a new key fits iff some slot is not live.
                        let window = max_probe.min(handles[0].buckets());
                        let whole_table = window == handles[0].buckets();
                        let key = key_of(id);
                        let room = model.contains_key(&key) || (model.len() as u64) < window;
                        match kv.put(&key, &value).await {
                            Ok(()) if whole_table && !room => {
                                return Err(format!("put of {key:?} fit a full table"));
                            }
                            Ok(()) => {
                                model.insert(key, value);
                            }
                            Err(RStoreError::InsufficientCapacity { .. }) if !room => {}
                            Err(e) => return Err(format!("put of {key:?}: {e}")),
                        }
                    }
                    Op::Delete(id) => {
                        let key = key_of(id);
                        let deleted = kv.delete(&key).await.map_err(|e| e.to_string())?;
                        let expected = model.remove(&key).is_some();
                        if deleted != expected {
                            return Err(format!("delete mismatch for {key:?}"));
                        }
                    }
                    Op::Get(id) => {
                        let key = key_of(id);
                        let got = kv.get(&key).await.map_err(|e| e.to_string())?;
                        if got.as_ref() != model.get(&key) {
                            return Err(format!("get mismatch for {key:?}"));
                        }
                    }
                    Op::MultiGet(ids) => {
                        let keys: Vec<Vec<u8>> = ids.into_iter().map(key_of).collect();
                        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
                        let got = kv.multi_get(&refs).await.map_err(|e| e.to_string())?;
                        let want: Vec<_> = keys.iter().map(|k| model.get(k).cloned()).collect();
                        if got != want {
                            return Err(format!("multi_get mismatch for {keys:?}"));
                        }
                    }
                }
            }
            // Final full check, through both handles.
            for kv in &handles {
                for (key, value) in &model {
                    let got = kv.get(key).await.map_err(|e| e.to_string())?;
                    if got.as_deref() != Some(value.as_slice()) {
                        return Err(format!("final state mismatch for {key:?}"));
                    }
                }
            }
            Ok(())
        });
        assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    });
}

/// Seeded stress of contended writers on one probe chain: four handles on
/// four clients put, delete and get three keys that share a home slot, so
/// hinted CASes lose, chases meet held locks and read back slots that another
/// key has reused, and readers read through locks. From the invoke/response
/// history in virtual time, every get returns the value of a put to *its*
/// key that was acknowledged or still in flight, never a value older than a
/// write to that key acknowledged before the get began, and absent only
/// where a delete may have come last.
#[test]
fn kv_chain_under_contention_reads_only_live_writes() {
    use rstore::{AllocOptions, Cluster, ClusterConfig, KvConfig, KvTable};
    use sim::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;

    const HANDLES: usize = 4;
    const OPS: usize = 40;
    /// A write (`tag` is `None` for a delete) or a read, with its invoke and
    /// response instants. Tags are unique across the run.
    struct Op {
        key: usize,
        write: bool,
        tag: Option<u32>,
        start: SimTime,
        end: SimTime,
    }
    let cfg = KvConfig {
        buckets: 64,
        slot_bytes: 128,
        max_probe: 16,
        opts: AllocOptions {
            stripe_size: 1024,
            ..AllocOptions::default()
        },
    };
    let keys: Vec<Vec<u8>> = (0u32..)
        .map(|i| format!("chain-{i}").into_bytes())
        .filter(|k| rstore::kv::hash_key(k) & 63 == 5)
        .take(3)
        .collect();

    cases(
        "kv_chain_under_contention_reads_only_live_writes",
        6,
        |rng| {
            let scripts: Vec<Vec<(usize, u8, u64)>> = (0..HANDLES)
                .map(|_| {
                    let op = |rng: &mut DetRng| {
                        (rng.index(3), rng.index(10) as u8, rng.range_u64(0, 4000))
                    };
                    (0..OPS).map(|_| op(rng)).collect()
                })
                .collect();
            let cluster = Cluster::boot(ClusterConfig {
                clients: HANDLES,
                ..ClusterConfig::with_servers(2)
            })
            .expect("boot");
            let sim = cluster.sim.clone();
            let history: Rc<RefCell<Vec<Op>>> = Rc::default();
            let (keys, hist, s) = (keys.clone(), history.clone(), sim.clone());
            sim.block_on(async move {
                let creator = cluster.client(0).await.unwrap();
                KvTable::create(&creator, "chain", cfg).await.unwrap();
                let mut workers = Vec::new();
                for (w, script) in scripts.into_iter().enumerate() {
                    let client = cluster.client(w).await.unwrap();
                    let (keys, hist, s) = (keys.clone(), hist.clone(), s.clone());
                    workers.push(s.clone().spawn(async move {
                        let kv = KvTable::open(&client, "chain", 128, 16).await.unwrap();
                        for (i, (key, kind, pause)) in script.into_iter().enumerate() {
                            s.sleep(Duration::from_nanos(pause)).await;
                            let k = &keys[key];
                            let start = s.now();
                            let tag = (w * OPS + i) as u32;
                            let (write, tag) = match kind {
                                0..=4 => {
                                    let value = format!("{key}:{tag}");
                                    kv.put(k, value.as_bytes()).await.unwrap();
                                    (true, Some(tag))
                                }
                                5 | 6 => {
                                    kv.delete(k).await.unwrap();
                                    (true, None)
                                }
                                _ => {
                                    let got = kv.get(k).await.unwrap();
                                    let tag = got.map(|v| {
                                        let v = String::from_utf8(v).unwrap();
                                        let (owner, tag) = v.split_once(':').unwrap();
                                        assert_eq!(owner, key.to_string(), "another key's value");
                                        tag.parse().unwrap()
                                    });
                                    (false, tag)
                                }
                            };
                            let end = s.now();
                            hist.borrow_mut().push(Op {
                                key,
                                write,
                                tag,
                                start,
                                end,
                            });
                        }
                    }));
                }
                sim::join_all(workers).await;
            });

            let history = history.borrow();
            let writes = || history.iter().filter(|o| o.write);
            for read in history.iter().filter(|o| !o.write) {
                let on_key = || writes().filter(|w| w.key == read.key);
                // The writes to the key a get may return: every one that
                // responded before the get began and has no such successor.
                let done_before = |w: &&Op| w.end < read.start;
                let superseded = |w: &Op| {
                    on_key()
                        .filter(done_before)
                        .any(|later| later.start > w.end)
                };
                match read.tag {
                    Some(tag) => {
                        let put = on_key()
                            .find(|w| w.tag == Some(tag))
                            .expect("a put to this key");
                        assert!(put.start <= read.end, "read a put from the future");
                        assert!(!superseded(put), "stale value: put {tag}");
                    }
                    None => {
                        let deleted_after = |put: &Op| {
                            on_key()
                                .any(|d| d.tag.is_none() && d.end > put.start && d.start < read.end)
                        };
                        let puts = on_key().filter(|w| w.tag.is_some());
                        let lost = puts.filter(done_before).find(|p| !deleted_after(p));
                        assert!(lost.is_none(), "absent after put {:?}", lost.map(|p| p.tag));
                    }
                }
            }
        },
    );
}
