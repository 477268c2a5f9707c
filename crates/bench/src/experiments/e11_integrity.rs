//! E11 — end-to-end data integrity: injected corruption vs. detection.
//!
//! Two corruption modes are injected into checksummed regions:
//!
//! * **in-flight** — a [`FaultPlan`] flip window damages one bit of every
//!   RDMA WRITE payload while a batch of distinct stripes is written to an
//!   unreplicated region. A CRC-less transport would commit these silently;
//!   here every read of a damaged stripe must fail *loudly*
//!   (`CorruptionDetected`), never return wrong bytes.
//! * **at-rest** — single-bit flips inside two servers' registered memory,
//!   placed on a node pair that shares no stripe group so one intact
//!   replica always survives. The background scrubber finds the damage with
//!   no client IO at all, reads fail over, and the master's repair task
//!   re-replicates the bad extents until the region is Healthy again.
//!
//! Because every injected flip lands in a distinct `(group, replica)`
//! extent, the master's distinct-mark counter must equal the injection
//! count exactly: detection is 100% by construction, and the run asserts
//! it. A separate clean pair of runs (scrub on/off, no faults) yields the
//! false-positive count (must be 0) and the scrubber's overhead on the
//! data-path read p99.
//!
//! Fully virtual-time and seeded: two runs produce identical numbers.

use std::time::Duration;

use fabric::{FaultPlan, NodeId};
use rstore::{
    AllocOptions, Cluster, ClusterConfig, MasterConfig, RStoreClient, RStoreError, Region,
    RegionState,
};
use sim::DetRng;

use crate::report::{export_fields, Entry};
use crate::table::{fmt_dur, Table};

const SEED: u64 = 0xE11;
const BLOCK: u64 = 64 * 1024;
const ATREST_BLOCKS: u64 = 32;
const TORN_BLOCKS: u64 = 6;
const CLEAN_BLOCKS: u64 = 16;
const CLEAN_READS: u32 = 300;
const DEADLINE: Duration = Duration::from_secs(5);

/// Integrity metrics from one E11 run (faulty run + clean scrub-on/off pair).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IntegrityStats {
    /// Bits flipped inside WRITE payloads during the flip window.
    pub injected_in_flight: u64,
    /// Bits flipped at rest inside registered server memory.
    pub injected_at_rest: u64,
    /// Distinct corrupt extents marked at the master. Must equal
    /// `injected_in_flight + injected_at_rest`.
    pub detected: u64,
    /// Corruption detections across the clean runs. Must be 0.
    pub false_positives: u64,
    /// Reads that silently returned wrong bytes. Must be 0.
    pub data_errors: u64,
    /// Reads that failed loudly with `CorruptionDetected` (the unreplicated
    /// in-flight-damaged stripes). Must equal `TORN_BLOCKS`.
    pub loud_errors: u64,
    /// Scrub sweeps completed during the faulty run.
    pub scrub_passes: u64,
    /// Injection → master mark, mean over all detections, ns.
    pub detect_latency_mean_ns: u64,
    /// Injection → master mark, worst case, ns.
    pub detect_latency_max_ns: u64,
    /// Whether the replicated region returned to `Healthy` after repair.
    pub healthy_after_repair: bool,
    /// Clean-run data-path read p99 with the scrubber disabled, ns.
    pub read_p99_scrub_off_ns: u64,
    /// Clean-run data-path read p99 with the scrubber sweeping, ns.
    pub read_p99_scrub_on_ns: u64,
}

export_fields!(IntegrityStats: injected_in_flight, injected_at_rest, detected, false_positives,
    data_errors, loud_errors, scrub_passes, detect_latency_mean_ns, detect_latency_max_ns,
    healthy_after_repair, read_p99_scrub_off_ns, read_p99_scrub_on_ns);

fn boot(scrub: bool, scrub_interval: Duration) -> Cluster {
    let fast = ClusterConfig::fast_detection(4);
    Cluster::boot(ClusterConfig {
        clients: 1,
        master: MasterConfig {
            scrub,
            scrub_interval,
            ..fast.master
        },
        ..fast
    })
    .expect("boot")
}

/// Deterministic per-block payload, shared by prefill and verification.
fn pattern(block: u64) -> Vec<u8> {
    (0..BLOCK as usize)
        .map(|i| ((block * 137 + i as u64 * 11 + 29) % 251) as u8)
        .collect()
}

fn now_ns(sim: &sim::Sim) -> u64 {
    sim.now().saturating_since(sim::SimTime::ZERO).as_nanos() as u64
}

/// Two server nodes that share no stripe group of `region`: corrupting both
/// can never destroy all replicas of any stripe.
fn disjoint_victims(region: &Region) -> (u32, u32) {
    let groups = &region.desc().groups;
    let mut nodes: Vec<u32> = groups
        .iter()
        .flat_map(|g| g.replicas.iter().map(|x| x.node))
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            let share = groups.iter().any(|g| {
                g.replicas.iter().any(|x| x.node == a) && g.replicas.iter().any(|x| x.node == b)
            });
            if !share {
                return (a, b);
            }
        }
    }
    panic!("no disjoint node pair: replication factor too high for 4 servers");
}

struct FaultyOutcome {
    injected_in_flight: u64,
    injected_at_rest: u64,
    detected: u64,
    data_errors: u64,
    loud_errors: u64,
    scrub_passes: u64,
    detect_latency_mean_ns: u64,
    detect_latency_max_ns: u64,
    healthy_after_repair: bool,
}

/// The faulty run: both injection modes, scrub-driven detection, repair.
fn faulty_case(seed: u64) -> FaultyOutcome {
    let cluster = boot(true, Duration::from_millis(50));
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let metrics = fabric.metrics().clone();
    let rec = sim.recorder();

    let s = sim.clone();
    let metrics_in = metrics.clone();
    let rec_in = rec.clone();
    let (data_errors, loud_errors, healthy_after_repair) = sim.block_on(async move {
        let sim = s;
        let client = RStoreClient::connect(&devs[0], master)
            .await
            .expect("connect");
        let atrest = client
            .alloc(
                "atrest",
                ATREST_BLOCKS * BLOCK,
                AllocOptions {
                    stripe_size: BLOCK,
                    replicas: 2,
                    checksums: true,
                    ..AllocOptions::default()
                },
            )
            .await
            .expect("alloc atrest");
        let torn = client
            .alloc(
                "torn",
                TORN_BLOCKS * BLOCK,
                AllocOptions {
                    stripe_size: BLOCK,
                    replicas: 1,
                    checksums: true,
                    ..AllocOptions::default()
                },
            )
            .await
            .expect("alloc torn");
        for b in 0..ATREST_BLOCKS {
            atrest.write(b * BLOCK, &pattern(b)).await.expect("prefill");
        }
        for b in 0..TORN_BLOCKS {
            torn.write(b * BLOCK, &pattern(b)).await.expect("prefill");
        }

        // Record injection/detection instants from here on.
        rec_in.enable(sim::Level::Off, 1 << 17);

        // Phase 1 — in-flight: every WRITE payload in the window loses one
        // bit. Each torn stripe is written exactly once, so flips land in
        // distinct extents.
        FaultPlan::new(seed)
            .flip_window(Duration::from_millis(1), Duration::from_millis(60), 1.0)
            .install(&fabric);
        sim.sleep(Duration::from_millis(2)).await;
        for b in 0..TORN_BLOCKS {
            torn.write(b * BLOCK, &pattern(b))
                .await
                .expect("torn write");
        }
        sim.sleep(Duration::from_millis(60)).await;

        // The scrubber must find every damaged stripe without client IO.
        let deadline = now_ns(&sim) + DEADLINE.as_nanos() as u64;
        while metrics_in.counter("integrity.detected") < TORN_BLOCKS && now_ns(&sim) < deadline {
            sim.sleep(Duration::from_millis(20)).await;
        }

        // Unreplicated damage is loud, never silent.
        let mut data_errors = 0u64;
        let mut loud_errors = 0u64;
        for b in 0..TORN_BLOCKS {
            match torn.read(b * BLOCK, BLOCK).await {
                Ok(_) => data_errors += 1, // damaged bytes slipped through
                Err(RStoreError::CorruptionDetected { .. }) => loud_errors += 1,
                Err(_) => {}
            }
        }
        // Retire the torn region so phase 2's at-rest flips can only land in
        // the replicated region's extents.
        drop(torn);
        client.free("torn").await.expect("free torn");

        // Phase 2 — at-rest: one bit on each of two group-disjoint nodes.
        let (va, vb) = disjoint_victims(&atrest);
        FaultPlan::new(seed ^ 0xA7)
            .corrupt_at(Duration::from_millis(1), NodeId(va), 1)
            .corrupt_at(Duration::from_millis(3), NodeId(vb), 1)
            .install(&fabric);
        let expect = TORN_BLOCKS + 2;
        let deadline = now_ns(&sim) + DEADLINE.as_nanos() as u64;
        while metrics_in.counter("integrity.detected") < expect && now_ns(&sim) < deadline {
            sim.sleep(Duration::from_millis(20)).await;
        }

        // Repair must bring the replicated region back to Healthy.
        let deadline = now_ns(&sim) + DEADLINE.as_nanos() as u64;
        let mut healthy = false;
        while !healthy && now_ns(&sim) < deadline {
            sim.sleep(Duration::from_millis(20)).await;
            healthy = client
                .lookup("atrest")
                .await
                .map(|d| d.state == RegionState::Healthy)
                .unwrap_or(false);
        }

        // Full verification pass over the repaired region. Transient IO
        // errors (a read racing an extent swap) are retried after a re-map;
        // only wrong bytes count as data errors.
        let mut region = client.map_degraded("atrest").await.expect("remap");
        for b in 0..ATREST_BLOCKS {
            let mut attempts = 0u32;
            loop {
                match region.read(b * BLOCK, BLOCK).await {
                    Ok(data) => {
                        if data != pattern(b) {
                            data_errors += 1;
                        }
                        break;
                    }
                    Err(RStoreError::CorruptionDetected { .. }) => {
                        data_errors += 1; // an intact replica must survive
                        break;
                    }
                    Err(_) => {
                        attempts += 1;
                        if attempts > 50 {
                            data_errors += 1;
                            break;
                        }
                        sim.sleep(Duration::from_millis(5)).await;
                        if let Ok(r) = client.map_degraded("atrest").await {
                            region = r;
                        }
                    }
                }
            }
        }
        (data_errors, loud_errors, healthy)
    });

    // Pair injection instants with master marks, oldest first. Counts are
    // structurally equal, so the sorted element-wise match is total.
    let events = rec.events();
    let ts = |e: &sim::TraceEvent| e.start.saturating_since(sim::SimTime::ZERO).as_nanos() as u64;
    let mut injects: Vec<u64> = events
        .iter()
        .filter(|e| e.name == "rdma.corrupt.bit" || e.name == "rdma.corrupt.inflight")
        .map(ts)
        .collect();
    let mut marks: Vec<u64> = events
        .iter()
        .filter(|e| e.name == "rstore.corrupt.mark")
        .map(ts)
        .collect();
    injects.sort_unstable();
    marks.sort_unstable();
    let lats: Vec<u64> = injects
        .iter()
        .zip(&marks)
        .map(|(&i, &m)| m.saturating_sub(i))
        .collect();
    let mean = if lats.is_empty() {
        0
    } else {
        lats.iter().sum::<u64>() / lats.len() as u64
    };
    let max = lats.iter().copied().max().unwrap_or(0);

    let outcome = FaultyOutcome {
        injected_in_flight: TORN_BLOCKS,
        injected_at_rest: 2,
        detected: metrics.counter("integrity.detected"),
        data_errors,
        loud_errors,
        scrub_passes: metrics.counter("integrity.scrub_passes"),
        detect_latency_mean_ns: mean,
        detect_latency_max_ns: max,
        healthy_after_repair,
    };
    // With the numbers taken: flipped payloads were copied out of their
    // pins and corrupted stripes re-read, and no pin may outlive its message.
    cluster.assert_pins_released();
    outcome
}

/// A clean run: no faults, steady paced reads on a checksummed region.
/// Returns the read p99 and the number of (false) detections.
fn clean_case(seed: u64, scrub: bool) -> (u64, u64) {
    let cluster = boot(scrub, Duration::from_millis(10));
    let sim = cluster.sim.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let metrics = cluster.fabric.metrics().clone();

    let s = sim.clone();
    let p99 = sim.block_on(async move {
        let sim = s;
        let client = RStoreClient::connect(&devs[0], master)
            .await
            .expect("connect");
        let region = client
            .alloc(
                "clean",
                CLEAN_BLOCKS * BLOCK,
                AllocOptions {
                    stripe_size: BLOCK,
                    replicas: 2,
                    checksums: true,
                    ..AllocOptions::default()
                },
            )
            .await
            .expect("alloc");
        for b in 0..CLEAN_BLOCKS {
            region.write(b * BLOCK, &pattern(b)).await.expect("prefill");
        }
        let mut rng = DetRng::new(seed);
        let mut lats = Vec::with_capacity(CLEAN_READS as usize);
        for _ in 0..CLEAN_READS {
            let b = rng.range_u64(0, CLEAN_BLOCKS);
            let t0 = now_ns(&sim);
            let data = region.read(b * BLOCK, BLOCK).await.expect("clean read");
            assert_eq!(data, pattern(b), "clean read must round-trip");
            lats.push(now_ns(&sim) - t0);
            sim.sleep(Duration::from_micros(100)).await;
        }
        lats.sort_unstable();
        lats[(lats.len() * 99) / 100 - 1]
    });
    let false_pos = metrics.counter("integrity.detected")
        + metrics.counter("integrity.read_mismatch")
        + metrics.counter("integrity.scrub.mismatch");
    cluster.assert_pins_released();
    (p99, false_pos)
}

/// Runs the full integrity scenario once and collects its metrics.
pub fn measure() -> IntegrityStats {
    let seed = super::seed_mix(SEED);
    let f = faulty_case(seed);
    let (p99_off, fp_off) = clean_case(seed, false);
    let (p99_on, fp_on) = clean_case(seed, true);
    IntegrityStats {
        injected_in_flight: f.injected_in_flight,
        injected_at_rest: f.injected_at_rest,
        detected: f.detected,
        false_positives: fp_off + fp_on,
        data_errors: f.data_errors,
        loud_errors: f.loud_errors,
        scrub_passes: f.scrub_passes,
        detect_latency_mean_ns: f.detect_latency_mean_ns,
        detect_latency_max_ns: f.detect_latency_max_ns,
        healthy_after_repair: f.healthy_after_repair,
        read_p99_scrub_off_ns: p99_off,
        read_p99_scrub_on_ns: p99_on,
    }
}

/// E11's report entry from one measurement: the `integrity` block, and the
/// asserts that no read returned wrong bytes, that the clean runs stayed
/// silent, that every injected flip was detected and that repair restored
/// health.
pub fn entry(s: &IntegrityStats) -> Entry {
    let mut e = Entry::new(tables(s));
    e.block("integrity", s);
    let a = &mut e.asserts;
    a.eq("data_errors", s.data_errors, 0);
    a.eq("false_positives", s.false_positives, 0);
    let injected = s.injected_in_flight + s.injected_at_rest;
    a.eq("detected", s.detected, injected);
    a.holds("healthy_after_repair", s.healthy_after_repair);
    e
}

/// Renders E11's tables from one measurement.
pub fn tables(s: &IntegrityStats) -> Vec<Table> {
    let injected = s.injected_in_flight + s.injected_at_rest;
    let mut t = Table::new(
        "E11: end-to-end integrity under corruption (4 servers, checksummed stripes, scrub on)",
        &["metric", "value"],
    );
    t.row(vec![
        "injected corruptions".into(),
        format!(
            "{injected} ({} in-flight, {} at-rest)",
            s.injected_in_flight, s.injected_at_rest
        ),
    ]);
    t.row(vec![
        "detected (distinct extents)".into(),
        format!(
            "{}/{injected} ({}%)",
            s.detected,
            (s.detected * 100).checked_div(injected).unwrap_or(100)
        ),
    ]);
    t.row(vec![
        "false positives".into(),
        s.false_positives.to_string(),
    ]);
    t.row(vec!["silent data errors".into(), s.data_errors.to_string()]);
    t.row(vec![
        "loud read failures".into(),
        format!(
            "{} (all {} unreplicated stripes)",
            s.loud_errors, TORN_BLOCKS
        ),
    ]);
    t.row(vec!["scrub passes".into(), s.scrub_passes.to_string()]);
    t.row(vec![
        "detection latency mean".into(),
        fmt_dur(Duration::from_nanos(s.detect_latency_mean_ns)),
    ]);
    t.row(vec![
        "detection latency max".into(),
        fmt_dur(Duration::from_nanos(s.detect_latency_max_ns)),
    ]);
    t.row(vec![
        "post-repair lookup".into(),
        if s.healthy_after_repair {
            "Healthy".into()
        } else {
            "Degraded".into()
        },
    ]);
    t.row(vec![
        "clean read p99, scrub off".into(),
        fmt_dur(Duration::from_nanos(s.read_p99_scrub_off_ns)),
    ]);
    t.row(vec![
        "clean read p99, scrub on".into(),
        fmt_dur(Duration::from_nanos(s.read_p99_scrub_on_ns)),
    ]);
    t.row(vec![
        "scrub overhead on read p99".into(),
        format!(
            "{:+.1}%",
            (s.read_p99_scrub_on_ns as f64 - s.read_p99_scrub_off_ns as f64) * 100.0
                / s.read_p99_scrub_off_ns.max(1) as f64
        ),
    ]);
    t.note(
        "every injected flip lands in a distinct extent and is detected exactly once; \
         replicated damage is repaired back to Healthy, unreplicated damage fails loudly \
         instead of returning wrong bytes",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrity_run_detects_everything_and_is_deterministic() {
        let a = measure();
        assert_eq!(
            a.detected,
            a.injected_in_flight + a.injected_at_rest,
            "every injection must be detected exactly once: {a:?}"
        );
        assert_eq!(a.false_positives, 0, "clean runs must stay silent: {a:?}");
        assert_eq!(a.data_errors, 0, "no silent wrong bytes: {a:?}");
        assert_eq!(
            a.loud_errors, TORN_BLOCKS,
            "unreplicated damage is loud: {a:?}"
        );
        assert!(a.healthy_after_repair, "repair must complete: {a:?}");
        assert!(a.scrub_passes >= 2, "the scrubber must have swept: {a:?}");
        assert!(
            a.detect_latency_max_ns > 0,
            "detection latency must be measured: {a:?}"
        );
        let b = measure();
        assert_eq!(a, b, "same seed must reproduce identical integrity numbers");
    }
}
