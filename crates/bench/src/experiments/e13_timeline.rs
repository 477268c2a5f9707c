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
//! window series and exports, which the module test asserts.

use std::time::Duration;

use sim::{Level, OpSummary, Sampler, Window};

use crate::episode::{crash_episode, p99_around, OpSeries, Totals, KILL_AT};
use crate::report::{export_fields, Entry};
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
    /// The traffic's op and error counts.
    pub totals: Totals,
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
    /// Index of the window containing the kill instant.
    pub fault_window: usize,
    /// p99 of the last window before the fault (steady-state baseline).
    pub pre_fault_p99_us: u64,
    /// Highest window p99 from the fault window onward — the spike.
    pub spike_p99_us: u64,
    /// p99 of the last window that carried traffic — after repair, this is
    /// back at steady state.
    pub recovery_p99_us: u64,
}

export_fields!(TimelineStats: window_ns, kill_ns, totals, healthy_after_repair, windows,
    fault_window, pre_fault_p99_us, spike_p99_us, recovery_p99_us);

/// E13's report entry from one measurement: the `timeline` block and the
/// episode's `ops` ledger, and the asserts that no op read wrong data or
/// was abandoned, that the kill was client-visible and that repair
/// restored health.
pub fn entry(s: &TimelineStats) -> Entry {
    let mut e = Entry::new(tables(s));
    e.block("timeline", s);
    let a = &mut e.asserts;
    a.eq("value_errors", s.totals.value_errors, 0);
    a.eq("abandoned", s.totals.abandoned, 0);
    a.positive("io_errors", s.totals.io_errors);
    a.holds("healthy_after_repair", s.healthy_after_repair);
    e.ops(&s.ops);
    e
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
    let (windows, kill_ns) = (sampler.windows(), KILL_AT.as_nanos() as u64);
    let (fault_window, pre_fault_p99_us, spike_p99_us, recovery_p99_us) =
        p99_around(&windows, LATENCY_SERIES, kill_ns);
    let stats = TimelineStats {
        windows,
        totals: ep.totals,
        kill_ns,
        window_ns: WINDOW.as_nanos() as u64,
        healthy_after_repair: ep.healthy_after_repair,
        ops: sim::ledger::summarize(metrics),
        fault_window,
        pre_fault_p99_us,
        spike_p99_us,
        recovery_p99_us,
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
        s.spike_p99_us / s.pre_fault_p99_us.max(1),
        s.recovery_p99_us,
        s.pre_fault_p99_us,
        s.totals.ops,
        s.totals.io_errors,
        s.totals.value_errors,
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
        assert_eq!(
            a.totals.value_errors, 0,
            "KV reads must never return wrong data"
        );
        assert_eq!(a.totals.abandoned, 0, "every op must eventually succeed");
        assert!(a.totals.io_errors > 0, "the kill must be client-visible");
        assert!(a.healthy_after_repair, "repair must restore health");
        assert!(a.fault_window >= 1, "need a pre-fault baseline window");
        let fault = &a.windows[a.fault_window];
        let killed = fault.start_ns <= a.kill_ns && a.kill_ns < fault.end_ns;
        assert!(killed, "kill instant must land inside the sampled timeline");
        let carried = |w: &Window| w.histograms[LATENCY_SERIES].count > 0;
        let pre_window = &a.windows[a.fault_window - 1];
        assert!(carried(pre_window), "pre-fault window must carry traffic");
        assert!(
            a.windows.iter().any(carried),
            "some window must carry traffic"
        );

        // The timeline must visibly show the episode: p99 spikes by at
        // least an order of magnitude in the fault era, then the last
        // traffic-carrying window is back near the pre-fault baseline.
        let pre = a.pre_fault_p99_us;
        assert!(
            a.spike_p99_us > 10 * pre,
            "fault-era p99 {} must dwarf pre-fault p99 {}",
            a.spike_p99_us,
            pre
        );
        assert!(
            a.recovery_p99_us < 5 * pre.max(1),
            "recovery p99 {} must return near baseline {}",
            a.recovery_p99_us,
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

        // The report entry: the per-window series and the per-op cost
        // ledger with the RTT series the baseline gate pins exactly, every
        // assert passing, byte-identical across seeded runs.
        let json = entry(&a).json("e13").render();
        crate::json::validate(&json).expect("e13 report must be valid JSON");
        for field in [
            "\"timeline\"",
            "\"e13.op_latency_us\"",
            "\"ops\"",
            "\"rtts_per_op\"",
            "\"doorbells_per_op\"",
        ] {
            assert!(json.contains(field), "e13 export must carry {field}");
        }
        assert!(
            !json.contains("\"pass\": false"),
            "an E13 assert failed:\n{json}"
        );
        let b = measure();
        assert_eq!(a, b, "same seed must reproduce an identical timeline");
        assert_eq!(json, entry(&b).json("e13").render(), "the export too");
    }
}
