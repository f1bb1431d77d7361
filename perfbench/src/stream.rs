//! `stream`: `em_stream::run_stream` — block, match and explain every
//! match over two record collections at a mid scale, with byte-budgeted
//! stores small enough to evict. Every candidate pair is a distinct
//! unmasked pair, so this is where the matcher runs outside perturbation.

use crate::common::derive_seed;
use crate::report::{Fnv, Report};
use crate::stats::summarize;
use em_data::EntityPair;
use em_eval::{EvalContext, MatcherKind, StoreBudget};
use em_matchers::Matcher;
use em_stream::{
    candidates_only_with, run_stream, BlockingConfig, LshBlocking, StreamOptions, StreamOutcome,
};
use em_synth::{record_collections, CollectionsConfig, Family, GeneratorConfig, RecordCollections};
use std::sync::Arc;
use std::time::Instant;

const FAMILY: Family = Family::Restaurants;

/// Left-collection entities: a mid scale, about 3 s per stream run.
const ENTITIES: usize = 800;

/// Store budget: about half of what the run's explanations would hold
/// unbounded, so the stores evict.
const BUDGET_BYTES: usize = 16 << 20;

/// Collections, the trained matcher and embeddings, and the options.
pub struct Setup {
    pub collections: RecordCollections,
    pub ctx: Arc<EvalContext>,
    pub matcher: Arc<dyn Matcher>,
    pub options: StreamOptions,
}

/// Generate the two collections from `seed` and train the matcher and
/// embeddings on separate labelled history, as a deployment would.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let collections = record_collections(
        FAMILY,
        CollectionsConfig {
            entities: ENTITIES,
            duplicate_rate: 0.35,
            extra_right: ENTITIES / 4,
            seed: derive_seed(seed, 0x57e4) % 1_000_000,
        },
    )
    .map_err(|e| format!("collections: {e}"))?;
    let history = GeneratorConfig {
        entities: 200,
        pairs: 500,
        ..Default::default()
    };
    let ctx = Arc::new(EvalContext::prepare(FAMILY, history).map_err(|e| format!("history: {e}"))?);
    let matcher = ctx
        .matcher(MatcherKind::Logistic)
        .map_err(|e| format!("matcher: {e}"))?;
    let options = StreamOptions {
        blocking: BlockingConfig {
            lsh: Some(LshBlocking::default()),
            ..BlockingConfig::default()
        },
        jobs: em_pool::default_threads(),
        store_budget: Some(StoreBudget::total(BUDGET_BYTES)),
        ..StreamOptions::default()
    };
    Ok(Setup {
        collections,
        ctx,
        matcher,
        options,
    })
}

/// One stream run and its wall-clock seconds.
pub fn run_once(setup: &Setup) -> Result<(StreamOutcome, f64), String> {
    let c = &setup.collections;
    let t = Instant::now();
    let out = run_stream(
        &c.schema,
        &c.left,
        &c.right,
        setup.matcher.as_ref(),
        Arc::clone(&setup.ctx.embeddings),
        &setup.options,
    )
    .map_err(|e| format!("run_stream: {e}"))?;
    Ok((out, t.elapsed().as_secs_f64()))
}

/// Check an outcome and return its digest.
pub fn check(setup: &Setup, out: &StreamOutcome, report: &mut Report) -> String {
    report.check(out.peak_store_bytes <= BUDGET_BYTES, || {
        format!(
            "stream store peak {} B exceeds the budget {BUDGET_BYTES} B",
            out.peak_store_bytes
        )
    });
    report.check(out.candidates > 0 && !out.matches.is_empty(), || {
        "stream produced no candidates or no matches".into()
    });
    let threshold = setup
        .options
        .threshold
        .unwrap_or_else(|| setup.matcher.threshold());
    let max_k = setup.options.crew.max_clusters;
    let mut digest = Fnv::default();
    digest.u64(out.candidates as u64);
    let mut bad = 0usize;
    for m in &out.matches {
        if !(m.score.is_finite() && m.score >= threshold && (1..=max_k).contains(&m.selected_k)) {
            bad += 1;
        }
        digest.u64(m.left_id);
        digest.u64(m.right_id);
        digest.u64(m.explanation_fingerprint);
    }
    report.passed((out.matches.len() - bad) as u64);
    for _ in 0..bad {
        report.check(false, || {
            "stream match with a non-finite or sub-threshold score or selected_k out of range"
                .into()
        });
    }
    digest.hex()
}

/// The untraced workload: stream runs back to back until `seconds` have
/// passed (at least one); every repeat must reproduce the first outcome.
pub fn measure(seed: u64, seconds: f64, report: &mut Report) -> Result<f64, String> {
    let (setup, setup_s) = crate::repeated_setup(|| setup(seed))?;
    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut candidates = 0usize;
    let mut first: Option<String> = None;
    while walls.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let (out, wall) = run_once(&setup)?;
        let digest = check(&setup, &out, report);
        match &first {
            None => first = Some(digest),
            Some(d) => report.check(*d == digest, || "repeated stream outcome differs".into()),
        }
        walls.push(wall);
        candidates += out.candidates;
    }
    let s = summarize(&walls).ok_or("no stream ran")?;
    report.metric("p50_ms", s.p50 * 1e3, "ms", s.n);
    report.metric("tail_ms", s.tail * 1e3, "ms", s.n);
    report.notes.push(format!(
        "stream: tail_ms is p{} of {} stream runs",
        s.tail_pct, s.n
    ));
    report.metric(
        "per_s",
        candidates as f64 / walls.iter().sum::<f64>(),
        "1/s",
        s.n,
    );
    report
        .digests
        .insert("stream".into(), first.unwrap_or_default());
    Ok(setup_s)
}

/// Per-layer metrics of one stream outcome: blocking alone on the same
/// collections, unmasked matching alone over the candidate pairs, and
/// the outcome's counts and store figures.
pub fn trace_metrics(
    setup: &Setup,
    out: &StreamOutcome,
    report: &mut Report,
) -> Result<(), String> {
    let c = &setup.collections;
    let t = Instant::now();
    let candidates = candidates_only_with(
        &c.left,
        &c.right,
        &setup.options.blocking,
        Some(&setup.ctx.embeddings),
    );
    report.metric("stream.block_s", t.elapsed().as_secs_f64(), "s", 1);
    report.check(candidates.pairs.len() == out.candidates, || {
        format!(
            "blocking alone gave {} candidates, the stream {}",
            candidates.pairs.len(),
            out.candidates
        )
    });
    let mut match_s = 0.0;
    for chunk in candidates.pairs.chunks(setup.options.batch.max(1)) {
        let pairs: Vec<EntityPair> = chunk
            .iter()
            .map(|&(i, j)| {
                EntityPair::new(
                    Arc::clone(&c.schema),
                    c.left[i as usize].clone(),
                    c.right[j as usize].clone(),
                )
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("candidate pair: {e}"))?;
        let t = Instant::now();
        std::hint::black_box(setup.matcher.predict_proba_batch(&pairs));
        match_s += t.elapsed().as_secs_f64();
    }
    let n = candidates.pairs.len().max(1);
    report.metric(
        "stream.match_us_per_pair",
        match_s * 1e6 / n as f64,
        "us",
        n,
    );
    report.metric("stream.candidates", out.candidates as f64, "count", 1);
    report.metric("stream.matches", out.matches.len() as f64, "count", 1);
    report.metric(
        "stream.store_peak_mb",
        out.peak_store_bytes as f64 / (1024.0 * 1024.0),
        "MB",
        1,
    );
    report.metric(
        "stream.evictions",
        (out.explain_stats.evictions + out.perturb_stats.evictions) as f64,
        "count",
        1,
    );
    Ok(())
}
