//! The two-clock RStore benchmark.
//!
//! ```text
//! rstore-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--self-test]
//! ```
//!
//! One invocation measures one workload. It runs every pass in a child
//! process of its own (`--pass N`, internal): a pass boots a fresh cluster,
//! loads it, warms up and then measures, so passes are independent and
//! identically prepared, set-up time gets one sample per pass, and the
//! simulator's reference cycles — which keep a dropped cluster alive —
//! cannot carry memory from one pass into the next. Children run one after
//! another, never in parallel.
//!
//! Pass N runs the scripts drawn from the seed and N, so the passes of a run
//! are different samples of one workload: virtual-clock metrics are computed
//! over the ops of all passes, host metrics are the median over passes.
//! `--seconds` decides how many passes there are — by division, not by a
//! clock, so that the same seed gives the same virtual-clock numbers on any
//! host. The last line of standard output is one JSON object; a failed check
//! prints no metrics and exits non-zero.

mod host;
mod json;
mod ladder;
mod record;
mod report;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use record::PassRecord;
use spans::SpanLog;

#[global_allocator]
static GLOBAL: host::CountingAlloc = host::CountingAlloc;

/// The least a run measures, whatever `--seconds` says: a median over
/// passes takes three of them.
const MIN_PASSES: u64 = 3;
/// What a pass is sized for: at least this much user CPU on the sizing
/// machine. `--seconds` buys one pass per `PASS_SECONDS`.
const PASS_SECONDS: u64 = 3;
const DEFAULT_SEED: u64 = 11;
const DEFAULT_SECONDS: u64 = 9;
const SPAN_DIR: &str = "benchmark/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    self_test: bool,
    /// Internal: run this one pass in this process and print its record.
    pass: Option<u32>,
    /// Internal, with `pass`: stamp ops on the host clock and keep spans.
    traced_pass: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        self_test: false,
        pass: None,
        traced_pass: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = number(value()?)? != 0,
            "--self-test" => args.self_test = true,
            "--pass" => args.pass = Some(number(value()?)? as u32),
            "--traced-pass" => args.traced_pass = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", workloads::NAMES.join(", ")));
    }
    Ok(args)
}

/// Child mode: set up, warm up, measure one pass, print its record.
fn run_pass(args: &Args, index: u32) -> Result<(), String> {
    let mut w = workloads::by_name(&args.workload, args.seed, args.self_test).expect("name checked");
    let mut log = SpanLog::default();
    let run = log.begin(0, "run", &args.workload);
    let setup = log.begin(run, "setup", "");
    w.setup()?;
    let setup_ns = spans::host_ns();
    let pass_span = log.begin(run, "pass", &format!("pass.{index}"));
    let pass = w.measure(index, args.traced_pass)?;
    let end_ns = spans::host_ns();
    // Virtual time is only known once the pass returns: set-up ends where
    // the measured traffic starts.
    log.end(setup, setup_ns, 0, pass.virt_start_ns);
    log.end(pass_span, end_ns, pass.virt_start_ns, pass.virt_end_ns);
    log.end(run, end_ns, 0, pass.virt_end_ns);
    let ctrl_rpcs = pass.registry.ctrl_rpcs.unwrap_or(0);
    if args.workload != "elastic_chaos" && ctrl_rpcs != 0 {
        // The paper's control/data separation: steady IO never calls the master.
        return Err(format!("{}: {ctrl_rpcs} control RPCs inside the measured pass", args.workload));
    }
    if args.traced_pass {
        log.extend(pass.op_spans(pass_span, w.kinds()));
        spans::check_tiling(log.spans(), pass_span, w.think_ns())?;
        std::fs::create_dir_all(SPAN_DIR).map_err(|e| format!("{SPAN_DIR}: {e}"))?;
        let path = format!("{SPAN_DIR}/trace_{}.json", args.workload);
        std::fs::write(&path, log.to_json(&args.workload, args.seed)).map_err(|e| format!("{path}: {e}"))?;
    }
    let peak_rss_kb = host::peak_rss_kb()?;
    let record = PassRecord::from_pass(index, args.traced_pass, setup_ns, peak_rss_kb, w.kinds(), &pass);
    print!("{}", record.to_text());
    Ok(())
}

/// Runs pass `index` in a child process and reads back its record.
fn spawn_pass(args: &Args, index: u32, traced: bool) -> Result<PassRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload, "--seed", &args.seed.to_string(), "--pass", &index.to_string()]);
    if traced {
        cmd.arg("--traced-pass");
    }
    if args.self_test {
        cmd.arg("--self-test");
    }
    // Pin glibc's allocator: left alone it adapts its mmap threshold to the
    // order in which big buffers are freed, and the page-fault count of a
    // pass then swings ±15 % with the seed. Everything below 32 MiB comes
    // from the heap and the heap is never trimmed, so a fault is a first
    // touch — memory the pass grew by — and kernel time stays small.
    cmd.env("MALLOC_MMAP_THRESHOLD_", (32u32 << 20).to_string());
    cmd.env("MALLOC_TRIM_THRESHOLD_", (1u32 << 30).to_string());
    // `output` waits for the child; its stderr (the failing check) passes through.
    let out = cmd.stderr(Stdio::inherit()).output().map_err(|e| format!("spawn pass {index}: {e}"))?;
    if !out.status.success() {
        return Err(format!("pass {index} failed ({})", out.status));
    }
    PassRecord::parse(&String::from_utf8_lossy(&out.stdout))
}

/// Parent mode: run the passes `--seconds` pays for, then report.
fn orchestrate(args: &Args) -> Result<(), String> {
    let passes = (args.seconds / PASS_SECONDS).max(MIN_PASSES) as u32;
    let mut records: Vec<PassRecord> = Vec::new();
    for index in 1..=passes {
        // A traced run alternates: odd passes plain, even passes traced;
        // their difference is the tracing overhead.
        let traced = args.trace && index.is_multiple_of(2);
        records.push(spawn_pass(args, index, traced)?);
    }
    let recoveries: Vec<u64> = records.iter().filter_map(|r| Some(r.chaos?.recover_ns)).collect();
    if !recoveries.is_empty() {
        workloads::elastic::check_recovery(&recoveries)?;
    }
    let metrics = if args.trace {
        let (rungs, ladder_spans) = ladder::run(args.seed)?;
        std::fs::create_dir_all(SPAN_DIR).map_err(|e| format!("{SPAN_DIR}: {e}"))?;
        let path = format!("{SPAN_DIR}/trace_{}.ladder.json", args.workload);
        std::fs::write(&path, ladder_spans.to_json(&args.workload, args.seed)).map_err(|e| format!("{path}: {e}"))?;
        report::per_layer(&records, &rungs)?
    } else {
        report::end_to_end(&records)?
    };
    report::print(&args.workload, args.seed, &records, &metrics)
}

fn main() -> ExitCode {
    spans::host_ns(); // starts the process clock
    let outcome = parse_args().and_then(|args| match args.pass {
        Some(index) => run_pass(&args, index),
        None => orchestrate(&args),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rstore-benchmark: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
