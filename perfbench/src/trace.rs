//! The traced run (`--trace 1`): the per-layer ledger.
//!
//! Layer numbers are taken from outside the program: the benchmark times
//! its own calls into each layer's public functions on the workloads'
//! inputs, and reads the counters the program already exposes (store
//! stats, `GET /stats`, stream outcomes); it adds no instrumentation to
//! the crates. Every traced run reports every per-layer metric, each
//! measured on the workload it belongs to: the explanation stages on
//! `explain` (for half of `--seconds`), the stores and runner times on
//! one `suite`, the rate ladder on `serve` (half of `--seconds`), and
//! blocking and unmasked matching on one `stream` run. The selected
//! workload also runs once more untraced, which gives
//! `trace_overhead_share`.

use crate::report::Report;
use crate::stats::median;
use crate::{explain, serve, stream, suite};
use em_eval::EvalSession;
use em_serve::Json;

/// Every per-layer metric a traced run reports, in sorted order: the
/// metrics of the layer map in `config.json`.
pub fn per_layer_names() -> Vec<String> {
    let layers = crate::config::config()
        .get("layers")
        .and_then(Json::as_array)
        .expect("config.json has a layers list");
    let mut names: Vec<String> = layers
        .iter()
        .map(|l| {
            l.get("metric")
                .and_then(Json::as_str)
                .expect("every layer names its metric")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

/// Traced headline over untraced headline, minus one.
fn overhead(traced: f64, untraced: f64) -> f64 {
    traced / untraced - 1.0
}

pub fn run(workload: &str, seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let half = seconds / 2.0;
    let mut trace_overhead = None;

    let setup = explain::setup(seed)?;
    if workload == "explain" {
        let untraced = explain::run(&setup, half, report);
        let traced = explain::trace(&setup, half, report);
        trace_overhead = Some(overhead(
            median(&traced).unwrap_or(f64::NAN),
            median(&untraced.latencies_ms).unwrap_or(f64::NAN),
        ));
    } else {
        explain::trace(&setup, half, report);
    }
    drop(setup);

    let config = suite::config(seed);
    let untraced = (workload == "suite").then(|| {
        suite::run_once(EvalSession::new(config.clone()), report)
            .0
            .wall_s
    });
    let (run, _) = suite::run_once(EvalSession::new(config), report);
    suite::trace_metrics(&run, report);
    if let Some(untraced) = untraced {
        trace_overhead = Some(overhead(run.wall_s, untraced));
    }
    drop(run);

    let setup = serve::setup(seed)?;
    let untraced = if workload == "serve" {
        let (warmup, steps) = serve::ladder(&setup, half)?;
        serve::verify_ladder(&setup, &warmup, &steps, report);
        Some(serve::headline_ms(&steps))
    } else {
        None
    };
    let (warmup, steps) = serve::ladder(&setup, half)?;
    serve::verify_ladder(&setup, &warmup, &steps, report);
    serve::trace_metrics(&setup, &steps, report);
    if let Some(untraced) = untraced {
        trace_overhead = Some(overhead(serve::headline_ms(&steps), untraced));
    }
    drop(setup);

    let setup = stream::setup(seed)?;
    let untraced = if workload == "stream" {
        let (out, wall) = stream::run_once(&setup)?;
        stream::check(&setup, &out, report);
        Some(wall)
    } else {
        None
    };
    let (out, wall) = stream::run_once(&setup)?;
    stream::check(&setup, &out, report);
    stream::trace_metrics(&setup, &out, report)?;
    if let Some(untraced) = untraced {
        trace_overhead = Some(overhead(wall, untraced));
    }

    report.metric(
        "trace_overhead_share",
        trace_overhead.unwrap_or(f64::NAN),
        "share",
        2,
    );
    Ok(())
}
