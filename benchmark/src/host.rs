//! Host-side readings: heap allocations from a counting allocator, user and
//! system CPU time and minor faults from `/proc/self/stat`, peak RSS from
//! `/proc/self/status`.
//!
//! Host *time* cannot carry a bound on this sandbox: neighbours on the memory
//! system make one and the same pass take 3.7–6.8 s of user CPU within ten
//! minutes. The bounded host metrics are therefore counts, which repeat:
//! allocations, bytes allocated, minor faults, peak RSS.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// The system allocator, counting calls and bytes requested. Installed as
/// the benchmark binary's global allocator (see `main.rs`).
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are side effects only and
// never influence what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are `System`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `sysconf(_SC_CLK_TCK)`: fixed at 100 on every Linux ABI the repo targets.
const TICKS_PER_SEC: u64 = 100;

/// One reading of the process's cumulative CPU and fault counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Usage {
    /// User-mode CPU, microseconds.
    pub user_us: u64,
    /// Kernel-mode CPU, microseconds.
    pub sys_us: u64,
    /// Minor page faults.
    pub minflt: u64,
    /// Heap allocations (incl. reallocations) and the bytes they asked for.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Usage {
    /// Reads the calling process's counters.
    pub fn now() -> Result<Usage, String> {
        let line = fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
        Ok(Usage {
            allocs: ALLOCATIONS.load(Relaxed),
            alloc_bytes: ALLOCATED_BYTES.load(Relaxed),
            ..parse_stat(&line)?
        })
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_us: self.user_us.saturating_sub(earlier.user_us),
            sys_us: self.sys_us.saturating_sub(earlier.sys_us),
            minflt: self.minflt.saturating_sub(earlier.minflt),
            allocs: self.allocs.saturating_sub(earlier.allocs),
            alloc_bytes: self.alloc_bytes.saturating_sub(earlier.alloc_bytes),
        }
    }
}

/// What one measured window cost the host.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostCost {
    pub usage: Usage,
    pub wall_ns: u64,
}

/// Runs `f` and reports what it cost on the host clocks.
pub fn measured<T>(f: impl FnOnce() -> T) -> Result<(T, HostCost), String> {
    let before = Usage::now()?;
    let t0 = Instant::now();
    let out = f();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let usage = Usage::now()?.since(&before);
    Ok((out, HostCost { usage, wall_ns }))
}

/// Parses one `/proc/<pid>/stat` line (the allocation counters stay 0). The
/// comm field (2) is wrapped in parentheses and may itself hold spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Result<Usage, String> {
    let close = line.rfind(')').ok_or("stat line has no ')'")?;
    let fields: Vec<&str> = line[close + 1..].split_whitespace().collect();
    // `fields[0]` is field 3 (state); minflt is field 10, utime 14, stime 15.
    let field = |n: usize| -> Result<u64, String> {
        fields
            .get(n - 3)
            .ok_or(format!("stat line has no field {n}"))?
            .parse::<u64>()
            .map_err(|e| format!("stat field {n}: {e}"))
    };
    let ticks_to_us = |t: u64| t * (1_000_000 / TICKS_PER_SEC);
    Ok(Usage {
        user_us: ticks_to_us(field(14)?),
        sys_us: ticks_to_us(field(15)?),
        minflt: field(10)?,
        ..Usage::default()
    })
}

/// Peak resident set size (`VmHWM`) of the calling process, in kB.
pub fn peak_rss_kb() -> Result<u64, String> {
    let text = fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&text)
}

/// Extracts `VmHWM` (in kB) from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Result<u64, String> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:")).ok_or("status has no VmHWM line")?;
    line.trim().strip_suffix("kB").ok_or("VmHWM is not in kB")?.trim().parse::<u64>().map_err(|e| format!("VmHWM: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAIN: &str = "8526 (cat) R 8521 8526 8521 0 -1 4194304 81 0 3 0 7 2 0 0 20 0 1 0 \
                         142685 2703360 285 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 0";

    #[test]
    fn parses_plain_stat_line() {
        assert_eq!(
            parse_stat(PLAIN).unwrap(),
            Usage { user_us: 70_000, sys_us: 20_000, minflt: 81, ..Usage::default() }
        );
    }

    #[test]
    fn comm_with_spaces_and_parentheses_does_not_shift_fields() {
        let tricky = PLAIN.replace("(cat)", "(a b) (c) 9 9 9 9 9 9 9 9)");
        assert_eq!(parse_stat(&tricky).unwrap(), parse_stat(PLAIN).unwrap());
    }

    #[test]
    fn truncated_or_garbled_lines_are_errors() {
        assert!(parse_stat("1 (x) R 1 2 3").is_err());
        assert!(parse_stat("no parenthesis at all").is_err());
        assert!(parse_stat(&PLAIN.replace(" 81 ", " eighty ")).is_err());
    }

    #[test]
    fn since_subtracts_fieldwise() {
        let a = Usage { user_us: 10, sys_us: 20, minflt: 30, allocs: 7, alloc_bytes: 100 };
        let b = Usage { user_us: 15, sys_us: 20, minflt: 31, allocs: 9, alloc_bytes: 164 };
        assert_eq!(b.since(&a), Usage { user_us: 5, sys_us: 0, minflt: 1, allocs: 2, alloc_bytes: 64 });
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t   99 kB\nVmHWM:\t    1692 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status).unwrap(), 1692);
        assert!(parse_vm_hwm_kb("Name:\tx\n").is_err());
        assert!(parse_vm_hwm_kb("VmHWM:\t12 MB\n").is_err());
    }

    #[test]
    fn live_readings_are_sane() {
        let before = Usage::now().unwrap();
        assert!(before.minflt > 0);
        // Under `cargo test` the counting allocator is installed too.
        let grown = std::hint::black_box(vec![0u8; 4096]);
        let spent = Usage::now().unwrap().since(&before);
        assert!(spent.allocs >= 1 && spent.alloc_bytes >= grown.len() as u64);
        assert!(peak_rss_kb().unwrap() > 0);
    }
}
