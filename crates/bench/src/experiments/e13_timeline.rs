//! E13 — continuous telemetry across a fault/repair episode.
//!
//! E10 reports a failure episode as aggregate numbers; E13 watches the same
//! kind of episode *move through time*. A replicated KV table takes steady
//! put/get traffic while one memory server is killed ([`crash_episode`]); a
//! [`Sampler`] snapshots per-window op throughput, error counts, doorbell
//! rate, and latency percentiles every 50 ms of virtual time. The exported
//! timeline shows the p99 latency spike when the server dies and its
//! collapse back to baseline once the master's repair lands.
//!
//! The run is fully virtual-time and seeded: two runs produce byte-identical
//! window series, which the report test asserts.

use std::time::Duration;

use sim::{Level, OpSummary, Sampler, Window};

use crate::episode::{crash_episode, OpSeries, KILL_AT};
use crate::table::{fmt_dur, Table};

const SEED: u64 = 0xE13;
const WINDOW: Duration = Duration::from_millis(50);
const WINDOW_CAP: usize = 16;

/// The per-op latency histogram the sampler windows over.
pub const LATENCY_SERIES: &str = "e13.op_latency_us";
/// Counters tracked per window.
pub const COUNTER_SERIES: [&str; 3] = ["e13.ops", "e13.errors", "rdma.doorbells"];

/// One E13 run: the sampled timeline plus episode-level aggregates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimelineStats {
    /// Sampled windows, in virtual-time order.
    pub windows: Vec<Window>,
    /// Workload operations completed (each op retries until it succeeds).
    pub ops_total: u64,
    /// Transient op attempts that surfaced an IO error to the client.
    pub io_errors: u64,
    /// Gets whose value did not match the expected pattern. Must be 0.
    pub value_errors: u64,
    /// Ops abandoned after exhausting their retry budget. Must be 0.
    pub abandoned: u64,
    /// Virtual time of the server kill, ns.
    pub kill_ns: u64,
    /// Sampling window length, ns.
    pub window_ns: u64,
    /// Whether the final lookup after the episode reported `Healthy`.
    pub healthy_after_repair: bool,
    /// Per-op cost attribution for the whole episode (ledger-enabled
    /// client): RTTs/doorbells/bytes per op plus retry and failover totals.
    /// Unlike E12's clean-path profile, this one crosses a server crash, so
    /// the retry/failover columns are the episode's fingerprint.
    pub ops: Vec<OpSummary>,
}

impl TimelineStats {
    /// Index of the window containing the kill instant.
    pub fn fault_window(&self) -> usize {
        self.windows
            .iter()
            .position(|w| w.start_ns <= self.kill_ns && self.kill_ns < w.end_ns)
            .expect("kill instant must land inside the sampled timeline")
    }

    fn latency(&self, w: &Window) -> (u64, u64) {
        let h = &w.histograms[LATENCY_SERIES];
        (h.count, h.p99)
    }

    /// p99 of the last full window before the fault (steady-state baseline).
    pub fn pre_fault_p99(&self) -> u64 {
        let (count, p99) = self.latency(&self.windows[self.fault_window() - 1]);
        assert!(count > 0, "pre-fault window must carry traffic");
        p99
    }

    /// Highest window p99 from the fault window onward — the spike.
    pub fn spike_p99(&self) -> u64 {
        self.windows[self.fault_window()..]
            .iter()
            .map(|w| self.latency(w).1)
            .max()
            .unwrap_or(0)
    }

    /// p99 of the last window that carried traffic — after repair, this is
    /// back at steady state.
    pub fn recovery_p99(&self) -> u64 {
        self.windows
            .iter()
            .rev()
            .map(|w| self.latency(w))
            .find(|&(count, _)| count > 0)
            .expect("some window must carry traffic")
            .1
    }
}

/// Runs the telemetry scenario once and collects the timeline.
pub fn measure() -> TimelineStats {
    let series = OpSeries {
        ops: "e13.ops",
        errors: "e13.errors",
        latency_us: LATENCY_SERIES,
    };
    let ep = crash_episode(SEED, "tl", Some(series), |cluster| {
        let metrics = cluster.client_devs[0].metrics();
        cluster.sim.recorder().enable(Level::Costs, 0);
        let sampler = Sampler::new(WINDOW, WINDOW_CAP);
        for c in COUNTER_SERIES {
            sampler.track_counter(c);
        }
        sampler.track_histogram(LATENCY_SERIES);
        sampler.spawn_driver(&cluster.sim, &metrics);
        (sampler, metrics)
    });
    let (sampler, metrics) = &ep.recording;
    let stats = TimelineStats {
        windows: sampler.windows(),
        ops_total: ep.totals.ops,
        io_errors: ep.totals.io_errors,
        value_errors: ep.totals.value_errors,
        abandoned: ep.totals.abandoned,
        kill_ns: KILL_AT.as_nanos() as u64,
        window_ns: WINDOW.as_nanos() as u64,
        healthy_after_repair: ep.healthy_after_repair,
        ops: sim::ledger::summarize(metrics),
    };
    // With the numbers taken: the crash dropped messages mid-flight, and
    // each must have released its payload pin.
    ep.cluster.assert_pins_released();
    stats
}

/// Renders E13's tables from one measurement.
pub fn tables(s: &TimelineStats) -> Vec<Table> {
    let mut t = Table::new(
        "E13: telemetry timeline across a server crash (4 servers, 2 replicas, 50 ms windows)",
        &[
            "window",
            "span",
            "ops",
            "errors",
            "doorbells",
            "p50 us",
            "p99 us",
        ],
    );
    for w in &s.windows {
        let lat = &w.histograms[LATENCY_SERIES];
        let mark = if w.start_ns <= s.kill_ns && s.kill_ns < w.end_ns {
            " *kill*"
        } else {
            ""
        };
        t.row(vec![
            format!("{}{}", w.index, mark),
            format!(
                "{}..{}",
                fmt_dur(Duration::from_nanos(w.start_ns)),
                fmt_dur(Duration::from_nanos(w.end_ns))
            ),
            w.counters["e13.ops"].to_string(),
            w.counters["e13.errors"].to_string(),
            w.counters["rdma.doorbells"].to_string(),
            lat.p50.to_string(),
            lat.p99.to_string(),
        ]);
    }
    t.note(format!(
        "p99 spike {}x over pre-fault baseline, recovery p99 {} us vs baseline {} us; \
         {} ops, {} transient errors, {} value errors, post-episode lookup {}",
        s.spike_p99() / s.pre_fault_p99().max(1),
        s.recovery_p99(),
        s.pre_fault_p99(),
        s.ops_total,
        s.io_errors,
        s.value_errors,
        if s.healthy_after_repair {
            "Healthy"
        } else {
            "Degraded"
        },
    ));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_shows_spike_and_recovery_and_is_deterministic() {
        let a = measure();
        assert_eq!(a.value_errors, 0, "KV reads must never return wrong data");
        assert_eq!(a.abandoned, 0, "every op must eventually succeed");
        assert!(a.io_errors > 0, "the kill must be client-visible");
        assert!(a.healthy_after_repair, "repair must restore health");
        assert!(a.fault_window() >= 1, "need a pre-fault baseline window");

        // The timeline must visibly show the episode: p99 spikes by at
        // least an order of magnitude in the fault era, then the last
        // traffic-carrying window is back near the pre-fault baseline.
        let pre = a.pre_fault_p99();
        assert!(
            a.spike_p99() > 10 * pre,
            "fault-era p99 {} must dwarf pre-fault p99 {}",
            a.spike_p99(),
            pre
        );
        assert!(
            a.recovery_p99() < 5 * pre.max(1),
            "recovery p99 {} must return near baseline {}",
            a.recovery_p99(),
            pre
        );

        // The op ledger must carry the episode's fingerprint: KV traffic
        // shows up as op rows, and the crash era surfaces as retries or
        // failovers somewhere in the attribution.
        let names: Vec<&str> = a.ops.iter().map(|s| s.op.as_str()).collect();
        assert!(names.contains(&"get"), "ledger must see gets");
        assert!(names.contains(&"put"), "ledger must see puts");
        let disturbed: u64 = a.ops.iter().map(|s| s.retries + s.failovers).sum();
        assert!(disturbed > 0, "the kill must be visible in the op ledger");

        let b = measure();
        assert_eq!(a, b, "same seed must reproduce an identical timeline");
    }
}
