//! E9 — sort scaling: time vs data size (fluid mode, 12 workers), with the
//! phase breakdown and effective sort rate.

use rsort::SortOutcome;

use crate::experiments::e8_sort::fluid_sort;
use crate::report::{export_fields, Entry};
use crate::table::{fmt_bytes, fmt_dur, Table};

/// One size of E9's sweep.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Input bytes.
    pub bytes: u64,
    /// The fluid run at that size.
    pub outcome: SortOutcome,
}

export_fields!(ScaleRow: bytes, outcome);

/// E9's report entry from one measurement: the `sizes` block, and the
/// asserts that every size sorted all its records and that its phases fit
/// in its total.
pub fn entry(rows: &[ScaleRow]) -> Entry {
    let mut e = Entry::new(tables(rows));
    e.block("sizes", rows);
    let a = &mut e.asserts;
    for r in rows {
        let (o, size) = (&r.outcome, format!("{}GiB", r.bytes >> 30));
        a.eq(&format!("records@{size}"), o.records, r.bytes / 100);
        let fits = o.phases.total() <= o.total;
        a.holds(&format!("phases_le_total@{size}"), fits);
    }
    e
}

/// Sorts each size once.
pub fn measure() -> Vec<ScaleRow> {
    [8u64, 32, 64, 128, 256]
        .iter()
        .map(|&gib| {
            let bytes = gib << 30;
            let (outcome, _) = fluid_sort(bytes, 12);
            ScaleRow { bytes, outcome }
        })
        .collect()
}

/// Renders E9's table from one measurement.
pub fn tables(rows: &[ScaleRow]) -> Vec<Table> {
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
    for r in rows {
        let out = &r.outcome;
        let rate = r.bytes as f64 / out.total.as_secs_f64() / 1e9;
        t.row(vec![
            fmt_bytes(r.bytes),
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
