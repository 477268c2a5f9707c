//! E9 — sort scaling: time vs data size (fluid mode, 12 workers), with the
//! phase breakdown and effective sort rate.

use crate::experiments::e8_sort::fluid_sort;
use crate::table::{fmt_bytes, fmt_dur, Table};

/// Runs E9.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E9: sort time vs data size (fluid, 12 workers + 12 servers)",
        &[
            "size",
            "total",
            "partition",
            "shuffle",
            "local sort",
            "GB/s",
        ],
    );
    for &gib in &[8u64, 32, 64, 128, 256] {
        let bytes = gib << 30;
        let (out, _) = fluid_sort(bytes, 12);
        let rate = bytes as f64 / out.total.as_secs_f64() / 1e9;
        t.row(vec![
            fmt_bytes(bytes),
            fmt_dur(out.total),
            fmt_dur(out.phases.partition),
            fmt_dur(out.phases.shuffle),
            fmt_dur(out.phases.local_sort),
            format!("{rate:.2}"),
        ]);
    }
    t.note("linear scaling: every phase is bandwidth- or CPU-rate-bound");
    vec![t]
}
