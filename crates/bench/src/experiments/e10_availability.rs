//! E10 — availability under failure: a memory server dies mid-workload.
//!
//! A replicated region takes a steady read/write workload while a
//! [`FaultPlan`] kills one memory server. Reads fail over to surviving
//! replicas, writes surface transient IO errors until the client re-maps,
//! and the master's repair task re-replicates the affected stripe groups
//! onto the remaining servers. Reported: IO error rate, client-visible
//! recovery time, the master's degraded window, and (the paper's implicit
//! claim) zero data errors end to end.
//!
//! The run is fully virtual-time and seeded, so two runs produce identical
//! numbers — the module test asserts exactly that.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use fabric::FaultPlan;
use rstore::{AllocOptions, ClientConfig, Cluster, ClusterConfig, RStoreClient, RegionState};
use sim::DetRng;

use crate::report::{export_fields, Entry};
use crate::table::{fmt_dur, Table};

const SEED: u64 = 0xE10;
const KILL_AT: Duration = Duration::from_millis(100);
const WORKLOAD_END: Duration = Duration::from_millis(700);
const HARD_DEADLINE: Duration = Duration::from_secs(3);
const BLOCK: u64 = 32 * 1024;
const REGION_SIZE: u64 = 2 * 1024 * 1024;

/// Availability metrics from one E10 run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AvailabilityStats {
    /// Workload operations completed (each op retries until it succeeds).
    pub ops_total: u64,
    /// Transient op attempts that surfaced an IO error to the client.
    pub io_errors: u64,
    /// Reads whose bytes did not match the expected pattern. Must be 0.
    pub data_errors: u64,
    /// Virtual time of the server kill, ns.
    pub kill_ns: u64,
    /// Kill → last client-visible IO error, ns (client recovery time).
    pub recovery_ns: u64,
    /// Kill → first post-degraded `Lookup` returning `Healthy`, ns.
    pub degraded_window_ns: u64,
    /// Whether the final lookup after repair reported `Healthy`.
    pub healthy_after_repair: bool,
}

export_fields!(AvailabilityStats: ops_total, io_errors, data_errors, kill_ns, recovery_ns,
    degraded_window_ns, healthy_after_repair);

/// Runs the availability scenario once and collects its metrics.
pub fn measure() -> AvailabilityStats {
    let cluster = Cluster::boot(ClusterConfig {
        clients: 1,
        ..ClusterConfig::fast_detection(4)
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let victim = cluster.servers[1].node();

    let seed = super::seed_mix(SEED);
    FaultPlan::new(seed)
        .crash_at(KILL_AT, victim)
        .install(&fabric);

    let s = sim.clone();
    sim.block_on(async move {
        let sim = s;
        let client = RStoreClient::connect_with(&devs[0], master, ClientConfig::default())
            .await
            .expect("connect");
        let opts = AllocOptions {
            stripe_size: 128 * 1024,
            replicas: 2,
            ..AllocOptions::default()
        };
        let mut region = client
            .alloc("avail", REGION_SIZE, opts)
            .await
            .expect("alloc");
        let blocks = REGION_SIZE / BLOCK;

        // Pre-fill every block with its deterministic pattern.
        for b in 0..blocks {
            region
                .write(b * BLOCK, &pattern(b))
                .await
                .expect("prefill write");
        }

        // Background prober: wait until the master reports the region
        // degraded, then record when it turns healthy again (repair done).
        let healthy_at: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
        {
            let healthy_at = healthy_at.clone();
            let client = client.clone();
            let sim2 = sim.clone();
            sim.spawn(async move {
                let mut saw_degraded = false;
                loop {
                    sim2.sleep(Duration::from_millis(10)).await;
                    if sim2.now().saturating_since(sim::SimTime::ZERO) > HARD_DEADLINE {
                        break;
                    }
                    let Ok(desc) = client.lookup("avail").await else {
                        continue;
                    };
                    match desc.state {
                        RegionState::Degraded => saw_degraded = true,
                        RegionState::Healthy if saw_degraded => {
                            healthy_at.set(Some(
                                sim2.now().saturating_since(sim::SimTime::ZERO).as_nanos() as u64,
                            ));
                            break;
                        }
                        RegionState::Healthy => {}
                    }
                }
            });
        }

        // Steady paced workload across the kill.
        let mut rng = DetRng::new(seed);
        let mut ops_total = 0u64;
        let mut io_errors = 0u64;
        let mut data_errors = 0u64;
        let mut last_err_ns = 0u64;
        let now_ns =
            |sim: &sim::Sim| sim.now().saturating_since(sim::SimTime::ZERO).as_nanos() as u64;
        while sim.now().saturating_since(sim::SimTime::ZERO) < WORKLOAD_END {
            let b = rng.range_u64(0, blocks);
            let write = rng.chance(0.6);
            let mut attempts = 0u32;
            loop {
                let result = if write {
                    region.write(b * BLOCK, &pattern(b)).await
                } else {
                    match region.read(b * BLOCK, BLOCK).await {
                        Ok(data) => {
                            if data != pattern(b) {
                                data_errors += 1;
                            }
                            Ok(())
                        }
                        Err(e) => Err(e),
                    }
                };
                match result {
                    Ok(()) => break,
                    Err(_) => {
                        io_errors += 1;
                        last_err_ns = now_ns(&sim);
                        // Refresh the mapping: after repair the descriptor
                        // names the replacement replicas.
                        if let Ok(r) = client.map_degraded("avail").await {
                            region = r;
                        }
                        sim.sleep(Duration::from_millis(5)).await;
                    }
                }
                attempts += 1;
                if attempts > 200 {
                    break;
                }
            }
            ops_total += 1;
            sim.sleep(Duration::from_micros(250)).await;
        }

        // Wait (bounded) for the repair to be visible on the control path.
        while healthy_at.get().is_none()
            && sim.now().saturating_since(sim::SimTime::ZERO) < HARD_DEADLINE
        {
            sim.sleep(Duration::from_millis(20)).await;
        }

        // Full verification pass over the repaired region.
        let verified = client.map_degraded("avail").await.expect("remap");
        for b in 0..blocks {
            match verified.read(b * BLOCK, BLOCK).await {
                Ok(data) => {
                    if data != pattern(b) {
                        data_errors += 1;
                    }
                }
                Err(_) => data_errors += 1,
            }
        }
        let healthy_after_repair = client
            .lookup("avail")
            .await
            .map(|d| d.state == RegionState::Healthy)
            .unwrap_or(false);

        let kill_ns = KILL_AT.as_nanos() as u64;
        AvailabilityStats {
            ops_total,
            io_errors,
            data_errors,
            kill_ns,
            recovery_ns: last_err_ns.saturating_sub(kill_ns),
            degraded_window_ns: healthy_at.get().map_or(0, |h| h.saturating_sub(kill_ns)),
            healthy_after_repair,
        }
    })
}

/// Deterministic per-block payload; rewrites are idempotent so any replica
/// interleaving of a repeated write converges to the same bytes.
fn pattern(block: u64) -> Vec<u8> {
    (0..BLOCK as usize)
        .map(|i| ((block * 131 + i as u64 * 7 + 13) % 251) as u8)
        .collect()
}

/// E10's report entry from one measurement: the `availability` block, and
/// the asserts that no read returned wrong bytes and that repair restored
/// health.
pub fn entry(s: &AvailabilityStats) -> Entry {
    let mut e = Entry::new(tables(s));
    e.block("availability", s);
    let a = &mut e.asserts;
    a.eq("data_errors", s.data_errors, 0);
    a.holds("healthy_after_repair", s.healthy_after_repair);
    e
}

/// Renders E10's tables from one measurement.
pub fn tables(s: &AvailabilityStats) -> Vec<Table> {
    let mut t = Table::new(
        "E10: availability under a memory-server crash (4 servers, 2 replicas, repair on)",
        &["metric", "value"],
    );
    t.row(vec!["ops completed".into(), s.ops_total.to_string()]);
    t.row(vec!["transient IO errors".into(), s.io_errors.to_string()]);
    t.row(vec!["data errors".into(), s.data_errors.to_string()]);
    t.row(vec![
        "server killed at".into(),
        fmt_dur(Duration::from_nanos(s.kill_ns)),
    ]);
    t.row(vec![
        "client recovery time".into(),
        fmt_dur(Duration::from_nanos(s.recovery_ns)),
    ]);
    t.row(vec![
        "master degraded window".into(),
        fmt_dur(Duration::from_nanos(s.degraded_window_ns)),
    ]);
    t.row(vec![
        "post-repair lookup".into(),
        if s.healthy_after_repair {
            "Healthy".into()
        } else {
            "Degraded".into()
        },
    ]);
    t.note(
        "failures stay on the slow path: reads fail over, writes see transient errors until \
         re-map, and repair restores full health with zero data errors",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_run_recovers_and_is_deterministic() {
        let a = measure();
        assert_eq!(a.data_errors, 0, "repair must never lose data");
        assert!(a.healthy_after_repair, "post-repair lookup must be Healthy");
        assert!(a.io_errors > 0, "the kill must be client-visible");
        assert!(
            a.recovery_ns > 0 && a.recovery_ns < HARD_DEADLINE.as_nanos() as u64,
            "recovery time must be finite: {a:?}"
        );
        assert!(
            a.degraded_window_ns > 0,
            "the degraded window must be observed: {a:?}"
        );
        let b = measure();
        assert_eq!(
            a, b,
            "same seed must reproduce identical availability numbers"
        );
    }
}
