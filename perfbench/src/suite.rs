//! `suite`: `em_eval::run_suite` over a fresh `EvalSession`, `jobs` = the
//! machine's parallelism — `run_all` without the CSV and report writes,
//! at the default experiment configuration except for
//! [`EXPLAIN_PAIRS`]. Training, context preparation and every store miss
//! are paid inside the timed phase, as `run_all` users pay them on every
//! run; set-up is only session construction.

use crate::common::derive_seed;
use crate::report::{Fnv, Report};
use crate::stats::{median, summarize};
use em_eval::{run_suite, EvalSession, ExperimentConfig, SuiteResult};
use std::time::Instant;

/// Columns holding wall-clock measurements: the only table cells that
/// may differ between two runs of the same suite.
const TIMING_COLUMNS: [&str; 2] = ["secs/pair", "seconds"];

/// A table's CSV with its timing columns blanked.
fn mask_timing(csv: &str) -> String {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap_or("").split(',').collect();
    let timing: Vec<usize> = (0..header.len())
        .filter(|&i| TIMING_COLUMNS.contains(&header[i]))
        .collect();
    let mut out = header.join(",");
    for line in lines {
        let mut fields: Vec<&str> = line.split(',').collect();
        for &i in &timing {
            if let Some(f) = fields.get_mut(i) {
                *f = "-";
            }
        }
        out.push('\n');
        out.push_str(&fields.join(","));
    }
    out
}

/// Timed blocks of session constructions for `setup_s`; `setup_s` is the
/// median block time divided by [`BUILDS_PER_BLOCK`].
pub const SESSION_BUILDS: usize = 101;

/// Session constructions per timed block: one takes well under a
/// microsecond, too short to time on its own.
const BUILDS_PER_BLOCK: usize = 256;

/// Test pairs explained per dataset in the headline experiments: 4
/// rather than the default 20, so one suite takes about 4 s instead of
/// 8–10 s and a 30 s run holds six or more suites. With only three, one
/// contention burst on a shared host moved the median by a quarter.
/// Every runner, family and matcher still runs, and training is at the
/// default scale.
pub const EXPLAIN_PAIRS: usize = 4;

/// The default experiment configuration with [`EXPLAIN_PAIRS`] and the
/// master seed drawn from the workload seed.
pub fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed: derive_seed(seed, 0x5017e) % 1_000_000,
        explain_pairs: EXPLAIN_PAIRS,
        ..ExperimentConfig::default()
    }
}

/// One suite run: its wall-clock, results and the session it filled.
pub struct SuiteRun {
    pub wall_s: f64,
    pub results: Vec<SuiteResult>,
    pub session: EvalSession,
}

/// Run the suite once on `session`, check every runner returned `Ok`,
/// and return the digest of the tables.
pub fn run_once(session: EvalSession, report: &mut Report) -> (SuiteRun, String) {
    let t = Instant::now();
    let results = run_suite(&session, em_pool::default_threads());
    let wall_s = t.elapsed().as_secs_f64();
    let mut digest = Fnv::default();
    for r in &results {
        match &r.result {
            Ok(table) => {
                report.check(true, String::new);
                digest.bytes(r.name.as_bytes());
                digest.bytes(mask_timing(&table.to_csv()).as_bytes());
            }
            Err(e) => report.check(false, || format!("suite runner {}: {e}", r.name)),
        }
    }
    (
        SuiteRun {
            wall_s,
            results,
            session,
        },
        digest.hex(),
    )
}

/// Median seconds of one `EvalSession::new` (the suite's whole set-up),
/// timed in blocks of [`BUILDS_PER_BLOCK`].
pub fn session_setup_s(config: &ExperimentConfig) -> f64 {
    let times: Vec<f64> = (0..SESSION_BUILDS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BUILDS_PER_BLOCK {
                drop(std::hint::black_box(EvalSession::new(config.clone())));
            }
            t.elapsed().as_secs_f64() / BUILDS_PER_BLOCK as f64
        })
        .collect();
    median(&times).expect("session build times")
}

/// The untraced workload: suites back to back for about `seconds` (at
/// least one). Every repeat must reproduce the first suite's tables.
/// Returns `setup_s`.
pub fn measure(seed: u64, seconds: f64, report: &mut Report) -> Result<f64, String> {
    let config = config(seed);
    let setup_s = session_setup_s(&config);
    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<String> = None;
    loop {
        let (run, digest) = run_once(EvalSession::new(config.clone()), report);
        walls.push(run.wall_s);
        report.notes.push(format!(
            "suite: run {} took {:.3} s",
            walls.len(),
            run.wall_s
        ));
        match &first {
            None => first = Some(digest),
            Some(d) => report.check(*d == digest, || "repeated suite tables differ".into()),
        }
        // Start another suite only if it is expected to end within half
        // a suite of `seconds`.
        if t0.elapsed().as_secs_f64() + run.wall_s / 2.0 > seconds {
            break;
        }
    }
    let total: f64 = walls.iter().sum();
    let s = summarize(&walls).ok_or("no suite ran")?;
    report.metric("p50_ms", s.p50 * 1e3, "ms", s.n);
    report.metric("tail_ms", s.tail * 1e3, "ms", s.n);
    report.notes.push(format!(
        "suite: tail_ms is p{} of {} suite runs",
        s.tail_pct, s.n
    ));
    let experiments = em_eval::suite().len() as f64;
    report.metric(
        "per_s",
        experiments * walls.len() as f64 / total,
        "1/s",
        s.n,
    );
    report
        .digests
        .insert("suite".into(), first.unwrap_or_default());
    Ok(setup_s)
}

fn hit_share(s: em_eval::StoreStats) -> f64 {
    s.hits as f64 / (s.hits + s.misses).max(1) as f64
}

/// Per-layer metrics of one suite run: each runner's seconds (they
/// overlap under `jobs`) and the session stores' outcome counts.
pub fn trace_metrics(run: &SuiteRun, report: &mut Report) {
    for r in &run.results {
        report.metric(&format!("suite.experiment_s.{}", r.name), r.secs, "s", 1);
    }
    let contexts = run.session.contexts().stats();
    let explain = run.session.explanations().stats();
    let perturb = run.session.explanations().perturbation_stats();
    report.metric("store.context_hit_share", hit_share(contexts), "share", 1);
    report.metric("store.explain_hit_share", hit_share(explain), "share", 1);
    report.metric("store.perturb_hit_share", hit_share(perturb), "share", 1);
    report.metric("store.explain_misses", explain.misses as f64, "count", 1);
    report.metric("store.perturb_misses", perturb.misses as f64, "count", 1);
}
