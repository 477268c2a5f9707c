//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! figures all                  # every experiment, E1..E17, as text tables
//! figures e1 e4 e8             # a selection
//! figures --json e3            # also write BENCH_<runid>.json
//! figures --trace              # write TRACE_<runid>.json (Chrome trace)
//! figures --json --runid seed all > figures_output.txt   # re-baseline
//! ```
//!
//! Each experiment is measured once per invocation, and its tables are
//! printed to stdout from that measurement. `--json` also writes the same
//! measurement to `BENCH_<runid>.json` — the tables plus structured extras
//! (E3 gains a per-layer READ-latency attribution, E6, E8 and E12–E16 a
//! per-op cost ledger, E13 and E15 per-window timelines) — and the
//! wall-clock cost of each experiment to `SELFTIME_<runid>.json`, so one
//! run regenerates all three committed baseline files. `--trace` runs a
//! traced cluster lifecycle and writes Chrome trace-event JSON loadable in
//! Perfetto / `chrome://tracing`. The run id defaults to the Unix
//! timestamp; pass `--runid` to pin it.

use bench::{experiments, json, report};

/// Run ids are embedded in output filenames (`BENCH_<runid>.json`), so they
/// must not contain path separators or shell metacharacters.
fn valid_runid_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

fn usage_error(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    eprintln!("usage: figures [--json] [--trace] [--runid ID] [all | e1 e2 ...]");
    std::process::exit(2);
}

fn main() {
    let mut json_mode = false;
    let mut trace_mode = false;
    let mut run_id: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_mode = true,
            "--trace" => trace_mode = true,
            "--runid" => match args.next() {
                Some(v) if !v.is_empty() && v.chars().all(valid_runid_char) => run_id = Some(v),
                Some(v) => usage_error(&format!(
                    "invalid --runid {v:?}: only [A-Za-z0-9_-] is allowed"
                )),
                None => usage_error("--runid needs a value"),
            },
            other => ids.push(other.to_string()),
        }
    }
    let explicit_ids = !ids.is_empty();
    let ids: Vec<&str> = if ids.is_empty() || ids.iter().any(|a| a == "all") {
        experiments::ALL.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    let run_id = run_id.unwrap_or_else(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs().to_string())
            .unwrap_or_else(|_| "0".to_string())
    });

    if trace_mode {
        let trace = report::trace_cluster_lifecycle();
        let doc = json::parse(&trace).expect("trace export must be valid JSON");
        let path = format!("TRACE_{run_id}.json");
        std::fs::write(&path, &trace).expect("write trace file");
        eprintln!("[wrote {path}]");
        // The event ring drops the oldest events once full; the count is
        // exported in the trace's top-level metadata. Warn so a truncated
        // trace isn't mistaken for the full lifecycle.
        if let json::Json::Obj(meta) = &doc {
            let evicted = meta.get("evicted").and_then(json::Json::as_f64);
            if let Some(evicted) = evicted.filter(|&n| n > 0.0) {
                eprintln!(
                    "[warning: trace ring evicted {evicted} event(s); \
                     oldest spans are missing from {path}]"
                );
            }
        }
        if !json_mode && !explicit_ids {
            return;
        }
    }

    let (report, selftime) = report::run_suite(&ids, &run_id, |id, tables, wall| {
        for t in tables {
            println!("{t}");
        }
        eprintln!("[{id} took {:.1}s wall]", wall.as_secs_f64());
    });
    if json_mode {
        let doc = report.render();
        json::validate(&doc).expect("bench report must be valid JSON");
        let path = format!("BENCH_{run_id}.json");
        std::fs::write(&path, &doc).expect("write bench report");
        eprintln!("[wrote {path}]");
        // Host-CPU cost per experiment goes to a companion file: wall-clock
        // is nondeterministic, and BENCH_*.json must stay byte-identical
        // across same-seed runs.
        let st_doc = selftime.render();
        json::validate(&st_doc).expect("selftime report must be valid JSON");
        let st_path = format!("SELFTIME_{run_id}.json");
        std::fs::write(&st_path, &st_doc).expect("write selftime report");
        eprintln!("[wrote {st_path}]");
    }
}
