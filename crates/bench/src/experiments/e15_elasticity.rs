//! E15 — elasticity: planned membership change under load.
//!
//! E13 watches a *failure* episode; E15 watches a *planned* one. A
//! replicated KV table takes steady paced traffic while the cluster is
//! resized underneath it: two dark standby servers join mid-run (via the
//! fault plan's membership events), one data-holding server is gracefully
//! drained, and — because elasticity in production never gets a quiet
//! network — a crash, a link flap, and a low-grade loss window overlap the
//! episode. The rebalancer is on, so the joined servers also absorb
//! extents from the incumbents rather than only receiving the drain's.
//!
//! Claims checked, per cluster scale (16 and 64 servers):
//!
//! * **Zero data errors** — every get returns the expected bytes and no op
//!   is abandoned, even while its extents move under it.
//! * **Bytes moved ≈ minimum** — the drain moves what the drained node
//!   hosted at drain time (within 1.5×, and within one extent of it from
//!   below), and afterwards the node hosts nothing.
//! * **Bounded p99** — the last traffic-carrying window's p99 is back
//!   within 5× of the pre-episode baseline.
//! * **Exact accounting** — `ClusterStats.consistent` holds after the
//!   churn and the data region ends Healthy.
//!
//! Fully virtual-time and seeded: two runs produce identical stats, which
//! the determinism test and CI's exact baseline gate assert.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use fabric::{FaultPlan, MembershipEvent};
use rstore::{
    AllocOptions, ClientConfig, Cluster, ClusterConfig, MasterConfig, RStoreClient, RegionState,
    ServerConfig,
};
use sim::{Level, OpSummary, Sampler, Window};

use crate::episode::{prefill, run_traffic, since_start, Keyspace, OpSeries, VALUE_LEN};
use crate::table::Table;

const SEED: u64 = 0xE15;
const JOIN_AT: Duration = Duration::from_millis(100);
const DRAIN_AT: Duration = Duration::from_millis(200);
const FLAP_AT: Duration = Duration::from_millis(260);
const FLAP_FOR: Duration = Duration::from_millis(30);
const CRASH_AT: Duration = Duration::from_millis(350);
const LOSS_FROM: Duration = Duration::from_millis(150);
const LOSS_UNTIL: Duration = Duration::from_millis(400);
const LOSS_PROB: f64 = 0.05;
const WORKLOAD_END: Duration = Duration::from_millis(700);
const COOLDOWN_END: Duration = Duration::from_millis(900);
const WINDOW: Duration = Duration::from_millis(50);
const WINDOW_CAP: usize = 24;
/// Boot-time memory-server counts (the paper's elasticity sweep direction:
/// small and large clusters see the same episode).
pub const SCALES: [usize; 2] = [16, 64];
const JOINERS: usize = 2;
const KEYS: u64 = 256;
const BUCKETS: u64 = 8192;
const STRIPE: u64 = 64 * 1024;
/// Per-server donation. Small on purpose: with ~4 MiB of table data on the
/// cluster, utilization differences are large enough for the rebalancer's
/// hysteresis band (`rebalance_spread` below) to trigger on a join yet
/// still quiesce once extents spread out — so the episode shows movement
/// *and* convergence, not endless churn.
const DONATE: u64 = 4 << 20;
/// One extent of accounting slack (stripe + checksum trailer headroom) for
/// the bytes-moved lower bound: a rebalancer migration already in flight
/// at the drain instant can legitimately carry one extent off the node
/// between the snapshot and the drain's first move.
#[cfg(test)]
const EXTENT_SLACK: u64 = 2 * STRIPE;

/// The per-op latency histogram the sampler windows over.
pub const LATENCY_SERIES: &str = "e15.op_latency_us";
/// Counters tracked per window: workload progress plus planned-movement
/// byte attribution (who moved what: the drain vs the rebalancer).
pub const COUNTER_SERIES: [&str; 4] = ["e15.ops", "e15.errors", "drain.bytes", "rebalance.bytes"];

/// One scale's elasticity episode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScaleStats {
    /// Memory servers at boot (before joins).
    pub servers: u64,
    /// Sampled windows, in virtual-time order.
    pub windows: Vec<Window>,
    /// Virtual time the fault plan was installed at, ns (all episode
    /// offsets are relative to this instant).
    pub plan_ns: u64,
    /// Workload operations completed.
    pub ops_total: u64,
    /// Transient op attempts that surfaced an IO error.
    pub io_errors: u64,
    /// Gets whose value did not match the expected pattern. Must be 0.
    pub value_errors: u64,
    /// Ops abandoned after exhausting their retry budget. Must be 0.
    pub abandoned: u64,
    /// Standby servers that joined mid-run.
    pub joined: u64,
    /// Physical bytes the drained server hosted at the drain instant — the
    /// minimum the drain had to move.
    pub drain_min_bytes: u64,
    /// Physical bytes the drain actually moved, from the `drain.bytes`
    /// counter — the sum over *all* attempts, because an attempt that
    /// stalls under chaos after moving two of three extents still paid for
    /// those two (the retry only has the remainder left).
    pub drain_bytes: u64,
    /// Extents the drain moved (all attempts, `drain.extents`).
    pub drain_extents: u64,
    /// Whether the drain completed (possibly after operator-style retries).
    pub drain_ok: bool,
    /// Physical bytes the drained node still hosted at the end. Must be 0.
    pub drained_residual_bytes: u64,
    /// Physical bytes the background rebalancer moved during the episode.
    pub rebalance_bytes: u64,
    /// Client-side region-descriptor refreshes: stale placements that were
    /// revalidated (not misread, not remapped blindly).
    pub desc_refreshes: u64,
    /// p99 of the last full window before the first membership event.
    pub pre_p99_us: u64,
    /// Highest window p99 from the first membership event onward.
    pub spike_p99_us: u64,
    /// p99 of the last traffic-carrying window.
    pub final_p99_us: u64,
    /// Whether the table's data region ended Healthy.
    pub healthy_after: bool,
    /// Whether the master's accounting invariant held at the end.
    pub consistent: bool,
    /// Per-op cost attribution for the whole episode (ledger-enabled
    /// client): the movement era shows up as retries/failovers.
    pub ops: Vec<OpSummary>,
}

/// One E15 run across all scales.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElasticityStats {
    /// One row per cluster scale.
    pub scales: Vec<ScaleStats>,
}

impl ScaleStats {
    /// Bytes-moved overhead of the drain relative to the minimum required.
    pub fn drain_overhead(&self) -> f64 {
        self.drain_bytes as f64 / self.drain_min_bytes.max(1) as f64
    }

    /// Whether the post-episode latency returned near the baseline.
    pub fn p99_bounded(&self) -> bool {
        self.final_p99_us <= 5 * self.pre_p99_us.max(1)
    }
}

fn value(k: u64) -> Vec<u8> {
    (0..VALUE_LEN)
        .map(|i| ((k * 157 + i * 11 + 5) % 251) as u8)
        .collect()
}

fn key(k: u64) -> Vec<u8> {
    format!("e{k:04}").into_bytes()
}

/// Runs the episode once at `servers` memory servers.
fn measure_scale(servers: usize) -> ScaleStats {
    let fast = ClusterConfig::fast_detection(servers);
    let cluster = Cluster::boot(ClusterConfig {
        clients: 2,
        master: MasterConfig {
            rebalance: true,
            rebalance_interval: Duration::from_millis(50),
            rebalance_spread: 0.04,
            // A migration blocked on one lost server response must retry
            // within the repair cadence, not hold the seal for 1s.
            srv_response_timeout: Duration::from_millis(50),
            ..fast.master
        },
        server: ServerConfig {
            donate: DONATE,
            ..fast.server
        },
        ..fast
    })
    .expect("boot");
    let sim = cluster.sim.clone();
    let fabric = cluster.fabric.clone();
    let devs = cluster.client_devs.clone();
    let master = cluster.master_node();
    let master_handle = cluster.master.clone();
    let server_nodes: Vec<fabric::NodeId> = cluster.servers.iter().map(|s| s.node()).collect();
    let seed = super::seed_mix(SEED) ^ servers as u64;

    // Dark standbys: devices exist now (so the plan can name them) but
    // donate nothing and serve nothing until their Join event fires.
    let darks: Vec<rdma::RdmaDevice> = (0..JOINERS).map(|_| cluster.add_dark_server()).collect();
    let dark_nodes: Vec<fabric::NodeId> = darks.iter().map(|d| d.node()).collect();

    let metrics = devs[0].metrics();
    sim.recorder().enable(Level::Costs, 0);
    let sampler = Sampler::new(WINDOW, WINDOW_CAP);
    for c in COUNTER_SERIES {
        sampler.track_counter(c);
    }
    sampler.track_histogram(LATENCY_SERIES);
    sampler.spawn_driver(&sim, &metrics);

    // Filled in by the membership hook and the drain-instant snapshot.
    let drain_result: Rc<RefCell<Option<(u64, u64)>>> = Rc::new(RefCell::new(None));
    let drain_done: Rc<RefCell<bool>> = Rc::new(RefCell::new(false));
    let drain_min: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
    let joined: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));

    let cluster = Rc::new(cluster);
    {
        let cluster = cluster.clone();
        let sim2 = sim.clone();
        let m = master_handle.clone();
        let darks = darks.clone();
        let dark_nodes = dark_nodes.clone();
        let drain_result = drain_result.clone();
        let drain_done = drain_done.clone();
        let joined = joined.clone();
        fabric.set_membership_hook(Rc::new(move |ev| match ev {
            MembershipEvent::Join(n) => {
                if let Some(i) = dark_nodes.iter().position(|&d| d == n) {
                    if cluster.start_server(&darks[i]).is_ok() {
                        *joined.borrow_mut() += 1;
                    }
                }
            }
            MembershipEvent::Drain(n) => {
                let m = m.clone();
                let drain_result = drain_result.clone();
                let drain_done = drain_done.clone();
                let sim3 = sim2.clone();
                sim2.spawn(async move {
                    // Operator semantics: a drain that fails while the
                    // cluster churns (say its migration target crashed
                    // under it) is retried; every attempt returns a
                    // structured error, never hangs.
                    for _ in 0..10 {
                        match m.drain(n).await {
                            Ok((extents, bytes)) => {
                                *drain_result.borrow_mut() = Some((extents, bytes));
                                break;
                            }
                            Err(_) => sim3.sleep(Duration::from_millis(50)).await,
                        }
                    }
                    *drain_done.borrow_mut() = true;
                });
            }
        }));
    }

    let s = sim.clone();
    let drain_min_w = drain_min.clone();
    let drain_done_w = drain_done.clone();
    let (totals_out, plan_ns, drained_residual, healthy, consistent) = sim.block_on(async move {
        let sim = s;
        let client = RStoreClient::connect_with(
            &devs[0],
            master,
            ClientConfig {
                // Under the loss window a dropped master response must cost
                // one short revalidation round, not the 1s control default —
                // that second would dominate every op latency it touches.
                ctrl_response_timeout: Duration::from_millis(50),
                ..ClientConfig::default()
            },
        )
        .await
        .expect("connect");
        let client2 = RStoreClient::connect_with(
            &devs[1],
            master,
            ClientConfig {
                ctrl_response_timeout: Duration::from_millis(50),
                ..ClientConfig::default()
            },
        )
        .await
        .expect("c2");
        let ks = Keyspace {
            table: "el",
            keys: KEYS,
            key,
            value,
        };
        let opts = AllocOptions {
            stripe_size: STRIPE,
            replicas: 2,
            ..AllocOptions::default()
        };
        prefill(&client, ks, BUCKETS, opts).await;

        // Drain a server that actually holds table data, so the episode
        // must move bytes; crash and flap two *other* incumbents.
        let data_desc = client.lookup("el@g1").await.expect("data region");
        let drained = fabric::NodeId(data_desc.groups[0].replicas[0].node);
        let mut others = server_nodes.iter().filter(|&&n| n != drained);
        let flapped = *others.next().expect("flap victim");
        let crashed = *others.next().expect("crash victim");

        // Snapshot what the drained node hosts at the drain instant: the
        // minimum the drain must move. Scheduled before the plan is
        // installed, so at DRAIN_AT it fires ahead of the Drain event.
        let plan_ns = since_start(&sim).as_nanos() as u64;
        {
            let m = master_handle.clone();
            let node = drained.0;
            sim.schedule(DRAIN_AT, move || {
                let hosted = m
                    .local_report()
                    .servers
                    .iter()
                    .find(|r| r.node == node)
                    .map_or(0, |r| r.used);
                *drain_min_w.borrow_mut() = hosted;
            });
        }

        let mut plan = FaultPlan::new(seed)
            .drain_at(DRAIN_AT, drained)
            .flap(FLAP_AT, flapped, FLAP_FOR)
            .crash_at(CRASH_AT, crashed)
            .loss_window(LOSS_FROM, LOSS_UNTIL, LOSS_PROB);
        for &d in &dark_nodes {
            plan = plan.join_at(JOIN_AT, d);
        }
        plan.install(&fabric);

        let series = OpSeries {
            ops: "e15.ops",
            errors: "e15.errors",
            latency_us: LATENCY_SERIES,
        };
        // Two clients: the workers split across the two client machines.
        let totals = run_traffic(
            &[client.clone(), client2],
            ks,
            seed,
            WORKLOAD_END,
            Some(series),
        )
        .await;
        while !*drain_done_w.borrow() {
            sim.sleep(Duration::from_millis(5)).await;
        }
        while since_start(&sim) < COOLDOWN_END {
            sim.sleep(Duration::from_millis(10)).await;
        }
        // Let repair finish clearing the crashed node before the health
        // check (bounded poll — never hangs the episode).
        let mut healthy = false;
        for _ in 0..100 {
            if let Ok(d) = client.lookup("el@g1").await {
                if d.state == RegionState::Healthy {
                    healthy = true;
                    break;
                }
            }
            sim.sleep(Duration::from_millis(10)).await;
        }
        let drained_residual = master_handle
            .local_report()
            .servers
            .iter()
            .find(|r| r.node == drained.0)
            .map_or(0, |r| r.used);
        let consistent = client.stats().await.map(|s| s.consistent).unwrap_or(false);
        (totals, plan_ns, drained_residual, healthy, consistent)
    });

    let windows = sampler.windows();
    let episode_start = plan_ns + JOIN_AT.as_nanos() as u64;
    let first_event_window = windows
        .iter()
        .position(|w| w.start_ns <= episode_start && episode_start < w.end_ns)
        .unwrap_or(0);
    let latency = |w: &Window| {
        let h = &w.histograms[LATENCY_SERIES];
        (h.count, h.p99)
    };
    let pre_p99_us = if first_event_window > 0 {
        latency(&windows[first_event_window - 1]).1
    } else {
        0
    };
    let spike_p99_us = windows[first_event_window..]
        .iter()
        .map(|w| latency(w).1)
        .max()
        .unwrap_or(0);
    let final_p99_us = windows
        .iter()
        .rev()
        .map(latency)
        .find(|&(count, _)| count > 0)
        .map_or(0, |(_, p99)| p99);

    let drain_ok = drain_result.borrow().is_some();
    // Bytes/extents from the metric counters, not the last attempt's return
    // tuple: a stalled attempt's partial progress is real moved data that
    // the retry no longer has to move (the counters see every attempt).
    let drain_bytes = metrics.counter("drain.bytes");
    let drain_extents = metrics.counter("drain.extents");
    let drain_min_bytes = *drain_min.borrow();
    let joined = *joined.borrow();
    let stats = ScaleStats {
        servers: servers as u64,
        windows,
        plan_ns,
        ops_total: totals_out.ops,
        io_errors: totals_out.io_errors,
        value_errors: totals_out.value_errors,
        abandoned: totals_out.abandoned,
        joined,
        drain_min_bytes,
        drain_bytes,
        drain_extents,
        drain_ok,
        drained_residual_bytes: drained_residual,
        rebalance_bytes: metrics.counter("rebalance.bytes"),
        desc_refreshes: metrics.counter("rstore.desc.refresh"),
        pre_p99_us,
        spike_p99_us,
        final_p99_us,
        healthy_after: healthy,
        consistent,
        ops: sim::ledger::summarize(&metrics),
    };
    // With the numbers taken: joins, a drain, a flap, a crash and a loss
    // window each dropped or rerouted messages, and every one of them must
    // have released its payload pin (the dark standbys' devices included).
    cluster.assert_pins_released();
    stats
}

/// Runs the elasticity scenario at every scale.
pub fn measure() -> ElasticityStats {
    ElasticityStats {
        scales: SCALES.iter().map(|&n| measure_scale(n)).collect(),
    }
}

/// Renders E15's tables from one measurement.
pub fn tables(s: &ElasticityStats) -> Vec<Table> {
    let mut t = Table::new(
        "E15: elasticity — join x2 + graceful drain + crash/flap/loss under KV load (2 replicas)",
        &[
            "servers",
            "ops",
            "io errs",
            "data errs",
            "joined",
            "drain KiB (min)",
            "overhead",
            "rebal KiB",
            "pre p99 us",
            "spike p99 us",
            "final p99 us",
            "state",
        ],
    );
    for x in &s.scales {
        t.row(vec![
            x.servers.to_string(),
            x.ops_total.to_string(),
            x.io_errors.to_string(),
            (x.value_errors + x.abandoned).to_string(),
            x.joined.to_string(),
            format!("{} ({})", x.drain_bytes >> 10, x.drain_min_bytes >> 10),
            format!("{:.2}x", x.drain_overhead()),
            (x.rebalance_bytes >> 10).to_string(),
            x.pre_p99_us.to_string(),
            x.spike_p99_us.to_string(),
            x.final_p99_us.to_string(),
            format!(
                "{}{}",
                if x.healthy_after {
                    "Healthy"
                } else {
                    "Degraded"
                },
                if x.consistent { "" } else { " INCONSISTENT" }
            ),
        ]);
    }
    t.note(
        "drain KiB shows moved (minimum required at the drain instant); overhead is \
         moved/minimum. Zero data errors, empty drained node, and exact accounting are \
         asserted by the experiment's test and the CI smoke run."
            .to_string(),
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elasticity_moves_minimum_bytes_with_zero_data_errors() {
        let a = measure();
        assert_eq!(a.scales.len(), SCALES.len());
        for x in &a.scales {
            let n = x.servers;
            assert_eq!(x.value_errors, 0, "{n}: reads must never see wrong data");
            assert_eq!(x.abandoned, 0, "{n}: every op must eventually succeed");
            assert_eq!(x.joined, JOINERS as u64, "{n}: both standbys must join");
            assert!(x.drain_ok, "{n}: the drain must complete");
            assert!(x.drain_min_bytes > 0, "{n}: drained node must hold data");
            assert_eq!(
                x.drained_residual_bytes, 0,
                "{n}: drained node must end empty"
            );
            assert!(
                x.drain_bytes + EXTENT_SLACK >= x.drain_min_bytes,
                "{n}: drain moved {} of the {} the node hosted",
                x.drain_bytes,
                x.drain_min_bytes
            );
            assert!(
                x.drain_overhead() <= 1.5,
                "{n}: drain moved {} for a minimum of {} ({:.2}x)",
                x.drain_bytes,
                x.drain_min_bytes,
                x.drain_overhead()
            );
            assert!(x.healthy_after, "{n}: region must end Healthy");
            assert!(x.consistent, "{n}: accounting invariant must hold");
            assert!(
                x.p99_bounded(),
                "{n}: final p99 {} must return near baseline {}",
                x.final_p99_us,
                x.pre_p99_us
            );
            assert!(
                x.desc_refreshes > 0,
                "{n}: stale clients must revalidate, not fail or remap blindly"
            );
            let names: Vec<&str> = x.ops.iter().map(|s| s.op.as_str()).collect();
            assert!(names.contains(&"get") && names.contains(&"put"));
        }
        // The joined servers must have absorbed incumbent load (not just
        // the drain's extents) at the small scale, where utilization
        // spread exceeds the rebalancer's hysteresis band.
        assert!(
            a.scales[0].rebalance_bytes > 0,
            "rebalancer must move extents onto the joined servers"
        );
        let b = measure();
        assert_eq!(a, b, "same seed must reproduce identical elasticity stats");
    }
}
