//! The repository benchmark: one command, four workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload explain --seed 1 --seconds 30 --trace 0
//! ```
//!
//! * `explain` — CREW explanations one at a time, every stage paid.
//! * `suite`   — the experiment suite over a fresh evaluation session.
//! * `serve`   — the HTTP service under an open-loop rate ladder.
//! * `stream`  — block → match → explain over two record collections.
//!
//! Every workload reports the same six end-to-end metrics: `setup_s`,
//! `p50_ms` and `tail_ms` of its unit of work (one explanation, one
//! suite, one explain request at the reference rate, one stream run),
//! `per_s` (explanations/s, experiments/s, saturation requests/s,
//! candidate pairs/s), `peak_rss_mb` and `ok_share` (passed ÷ attempted
//! checks). With `--trace 0` a run prints the end-to-end metrics of its workload;
//! with `--trace 1` it prints the per-layer ledger instead (see
//! `trace.rs`). Every run checks its outputs; the last stdout line is
//! the JSON result, and a failed check makes the exit code non-zero.
//! Fixed settings (rate ladder, latency limit, held-out seed, the layer
//! → end-to-end map) live in `perfbench/config.json`.

mod common;
mod config;
mod explain;
mod report;
mod serve;
mod stats;
mod stream;
mod suite;
mod trace;

use report::Report;
use std::time::Instant;

/// The workloads this command runs. `BENCHMARK.json` gates all but
/// `serve`, whose latencies follow the shared host's scheduling noise
/// more closely than any bound allows (see `perfbench/config.json`).
pub const WORKLOADS: [&str; 4] = ["explain", "suite", "serve", "stream"];

/// The end-to-end metrics every untraced run reports, in sorted order.
pub const END_TO_END: [&str; 6] = [
    "ok_share",
    "p50_ms",
    "peak_rss_mb",
    "per_s",
    "setup_s",
    "tail_ms",
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Run `f` [`SETUP_REPEATS`] times, keep the last result, and return it
/// with the median set-up time in seconds.
pub fn repeated_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up first so repeats start from the same heap.
        drop(last.take());
        let t = Instant::now();
        last = Some(f()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let setup = last.expect("at least one set-up ran");
    Ok((setup, stats::median(&times).expect("set-up times")))
}

/// A run must report exactly its metric set, every value finite.
fn check_metric_set(trace: bool, report: &mut Report) {
    let expected: Vec<String> = if trace {
        trace::per_layer_names()
    } else {
        END_TO_END.iter().map(|s| s.to_string()).collect()
    };
    let got: Vec<String> = report.names().map(str::to_string).collect();
    report.check(got == expected, || {
        format!("reported metrics {got:?} differ from the declared {expected:?}")
    });
    let non_finite: Vec<String> = got
        .iter()
        .filter(|n| report.get(n).is_some_and(|m| !m.value.is_finite()))
        .cloned()
        .collect();
    report.check(non_finite.is_empty(), || {
        format!("non-finite metric values: {non_finite:?}")
    });
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    if args.trace {
        trace::run(&args.workload, args.seed, args.seconds, report)?;
        check_metric_set(true, report);
        return Ok(());
    }
    let (setup_s, setups) = match args.workload.as_str() {
        "explain" => {
            let (setup, setup_s) = repeated_setup(|| explain::setup(args.seed))?;
            let pass = explain::run(&setup, args.seconds, report);
            explain::report_pass(&pass, report);
            (setup_s, SETUP_REPEATS)
        }
        "suite" => (
            suite::measure(args.seed, args.seconds, report)?,
            suite::SESSION_BUILDS,
        ),
        "serve" => (
            serve::measure(args.seed, args.seconds, report)?,
            SETUP_REPEATS,
        ),
        "stream" => (
            stream::measure(args.seed, args.seconds, report)?,
            SETUP_REPEATS,
        ),
        other => unreachable!("workload {other} was validated"),
    };
    report.metric("setup_s", setup_s, "s", setups);
    let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    report.metric("ok_share", ok, "share", report.attempted as usize);
    match em_obs::peak_rss_bytes() {
        Some(bytes) => report.metric("peak_rss_mb", bytes as f64 / (1024.0 * 1024.0), "MB", 1),
        None => report.check(false, || "peak RSS unavailable".into()),
    }
    check_metric_set(false, report);
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    if let Err(e) = run(&args, &mut report) {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }

    eprintln!(
        "perfbench: workload {} seed {} trace {}",
        args.workload, args.seed, args.trace as u8
    );
    eprint!("{}", report.table());
    for note in &report.notes {
        eprintln!("perfbench: {note}");
    }
    for failure in report.failures() {
        eprintln!("perfbench: FAILED CHECK: {failure}");
    }
    eprintln!(
        "perfbench: {} checks, {} failed",
        report.attempted, report.failed
    );
    println!(
        "{}",
        config::metadata_json(&args.workload, args.seed, args.trace, &report)
    );
    println!("{}", report.result_json());
    if !report.correct() {
        std::process::exit(1);
    }
}
