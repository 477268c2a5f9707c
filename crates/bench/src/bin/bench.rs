//! Benchmark report tooling.
//!
//! ```text
//! bench diff --baseline BENCH_seed.json --current BENCH_pr.json
//! bench check --report BENCH_pr.json
//! bench triage --report BENCH_pr.json [--top N]
//! bench triage --report triage-0001-get-op42.json
//! ```
//!
//! `diff` compares every leaf of the current `BENCH_*.json` but its
//! `run_id` — tables included — exactly against a committed baseline (see
//! `EXPERIMENTS.md`, "Baselines and the exact gate"), lists the findings in
//! document order and exits nonzero if there is one: CI's baseline gate.
//! The simulator is deterministic, so any difference is code-induced.
//!
//! `check` verifies the invariants a report asserts about itself: every
//! `asserts[*].pass` of every experiment, and that each of E6–E17 present
//! in the report has an `asserts` block at all. It lists every violation and
//! exits nonzero if there is one — the step that replaced CI's `grep`s.
//!
//! `triage` renders forensics output as ranked blame tables: from a bench
//! report it prints each experiment's tail exemplars (worst first), from a
//! flight-recorder triage bundle it prints the failing op's blame, span
//! tree, ring, and era notes.
//!
//! Exit status: 0 in-policy, 1 diff findings or failed asserts, 2 usage or
//! I/O error.

use std::process::ExitCode;

use bench::check::check_report;
use bench::diff::{diff_reports, load_report};
use bench::triage::triage_text;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench diff --baseline FILE --current FILE\n\
         \x20      bench check --report FILE\n\
         \x20      bench triage --report FILE [--top N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("diff") => run_diff(&args[1..]),
        Some("check") => run_check(&args[1..]),
        Some("triage") => run_triage(&args[1..]),
        _ => usage(),
    }
}

fn run_check(args: &[String]) -> ExitCode {
    let [flag, report_path] = args else {
        return usage();
    };
    if flag != "--report" {
        return usage();
    }
    let violations = match load_report("check", report_path).and_then(|doc| check_report(&doc)) {
        Ok(violations) => violations,
        Err(e) => {
            eprintln!("bench check: {report_path}: {e}");
            return ExitCode::from(2);
        }
    };
    if violations.is_empty() {
        println!("bench check: every assert in {report_path} passed");
        return ExitCode::SUCCESS;
    }
    println!(
        "bench check: {} violation(s) in {report_path}:",
        violations.len()
    );
    for v in &violations {
        println!("  {v}");
    }
    ExitCode::FAILURE
}

fn run_triage(args: &[String]) -> ExitCode {
    let mut report_path = None;
    let mut top = 10usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--report" => report_path = it.next().cloned(),
            "--top" => {
                let Some(Ok(n)) = it.next().map(|v| v.parse::<usize>()) else {
                    eprintln!("bench triage: --top needs a number");
                    return ExitCode::from(2);
                };
                top = n;
            }
            other => {
                eprintln!("bench triage: unknown argument {other:?}");
                return usage();
            }
        }
    }
    let Some(report_path) = report_path else {
        return usage();
    };
    let doc = match load_report("triage", &report_path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("bench triage: {e}");
            return ExitCode::from(2);
        }
    };
    match triage_text(&doc, top) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench triage: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_diff(args: &[String]) -> ExitCode {
    let mut baseline_path = None;
    let mut current_path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = it.next().cloned(),
            "--current" => current_path = it.next().cloned(),
            other => {
                eprintln!("bench diff: unknown argument {other:?}");
                return usage();
            }
        }
    }
    let (Some(baseline_path), Some(current_path)) = (baseline_path, current_path) else {
        return usage();
    };
    let baseline = match load_report("baseline", &baseline_path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("bench diff: {e}");
            return ExitCode::from(2);
        }
    };
    let current = match load_report("current", &current_path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("bench diff: {e}");
            return ExitCode::from(2);
        }
    };
    let findings = diff_reports(&baseline, &current);
    if findings.is_empty() {
        println!("bench diff: {current_path} reproduces {baseline_path} exactly");
        return ExitCode::SUCCESS;
    }
    // Capped so one schema change does not scroll the rest off the screen.
    const TOP: usize = 20;
    println!(
        "bench diff: {} finding(s) comparing {current_path} against {baseline_path}:",
        findings.len()
    );
    for f in findings.iter().take(TOP) {
        println!("  {}: {}", f.path, f.detail);
    }
    if findings.len() > TOP {
        println!("  ... and {} more finding(s)", findings.len() - TOP);
    }
    ExitCode::FAILURE
}
