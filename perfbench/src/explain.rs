//! `explain`: CREW `explain_clusters` with default options, one pair at
//! a time and no store, over a seeded list of test pairs from all five
//! dataset families × all four matchers. Every explanation pays every
//! stage, so this is also where the stage ledger is timed: the traced
//! phase re-runs each stage through its public function on the same pair
//! and compares the stage sum with the whole explanation.

use crate::common::{check_explanation, derive_seed, CountingMatcher};
use crate::report::{Fnv, Report};
use crate::stats::{median, summarize};
use crew_core::{
    combined_distances_with, fit_group_surrogate, fit_word_surrogate, opposite_sign_cannot_links,
    query_masks, sample_masks, Crew, CrewOptions, PerturbationSet,
};
use em_cluster::{agglomerative, groups_from_labels, sweep_cuts, Constraints};
use em_data::{EntityPair, MaskedPairBuffer, TokenizedPair};
use em_eval::{EvalContext, ExperimentConfig, MatcherKind};
use em_matchers::Matcher;
use em_rngs::rngs::StdRng;
use em_rngs::seq::SliceRandom;
use em_rngs::SeedableRng;
use em_synth::Family;
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Test pairs drawn per (family, matcher) case.
const PAIRS_PER_CASE: usize = 90;

struct Case {
    family: Family,
    kind: MatcherKind,
    ctx: Arc<EvalContext>,
    matcher: Arc<CountingMatcher>,
    crew: Crew,
}

/// Contexts, trained matchers and the seeded pair list.
pub struct Setup {
    cases: Vec<Case>,
    /// `(case index, pair)` in the order they are explained.
    items: Vec<(usize, EntityPair)>,
}

/// Prepare the five contexts at the default experiment scale, train all
/// four matchers on each, and draw the pair list from `seed`.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let config = ExperimentConfig::default();
    let mut cases = Vec::new();
    let mut items = Vec::new();
    for (f, family) in Family::all().into_iter().enumerate() {
        let ctx = Arc::new(
            EvalContext::prepare(family, config.generator(family))
                .map_err(|e| format!("context {family:?}: {e}"))?,
        );
        for (k, kind) in MatcherKind::all().into_iter().enumerate() {
            let trained = ctx
                .matcher(kind)
                .map_err(|e| format!("matcher {}: {e}", kind.label()))?;
            let case = cases.len();
            let draw = derive_seed(seed, (f * 4 + k) as u64);
            for ex in ctx.split.test.sample(PAIRS_PER_CASE, draw).examples() {
                items.push((case, ex.pair.clone()));
            }
            cases.push(Case {
                family,
                kind,
                ctx: Arc::clone(&ctx),
                matcher: Arc::new(CountingMatcher::new(trained)),
                crew: Crew::new(Arc::clone(&ctx.embeddings), CrewOptions::default()),
            });
        }
    }
    // Interleave families and matchers so no stretch of the run is
    // dominated by one case.
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x5eed));
    items.shuffle(&mut rng);
    Ok(Setup { cases, items })
}

/// Explain one item, check it, and return (milliseconds, queries,
/// explanation fingerprint).
fn explain_one(setup: &Setup, item: usize, report: &mut Report) -> Option<(f64, u64, u64)> {
    let (c, pair) = &setup.items[item];
    let case = &setup.cases[*c];
    let before = case.matcher.pairs();
    let t = Instant::now();
    let result = case.crew.explain_clusters(case.matcher.as_ref(), pair);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let queries = case.matcher.pairs() - before;
    let what = || format!("{:?}/{} item {item}", case.family, case.kind.label());
    match result {
        Ok(ce) => {
            let words = TokenizedPair::new(pair.clone()).len();
            let verdict = check_explanation(&ce, words, case.crew.options().max_clusters);
            report.check(verdict.is_ok(), || {
                format!("{}: {}", what(), verdict.unwrap_err())
            });
            let budget = case.crew.options().perturb.samples as u64 + 1;
            report.check(queries <= budget, || {
                format!("{}: {queries} queries exceed the budget {budget}", what())
            });
            Some((ms, queries, em_stream::explanation_fingerprint(&ce)))
        }
        Err(e) => {
            report.check(false, || format!("{}: {e}", what()));
            None
        }
    }
}

/// What a timed pass over the pair list produced.
pub struct Pass {
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    pub digest: String,
}

/// Explain pairs in list order, cycling, until `seconds` have passed
/// (always at least one full sweep, so the digest covers every pair).
/// Repeat sweeps must reproduce the first sweep's explanations exactly.
pub fn run(setup: &Setup, seconds: f64, report: &mut Report) -> Pass {
    let n = setup.items.len();
    let mut first: Vec<Option<u64>> = vec![None; n];
    let mut latencies_ms = Vec::new();
    let t0 = Instant::now();
    let mut i = 0usize;
    while i < n || t0.elapsed().as_secs_f64() < seconds {
        let item = i % n;
        if let Some((ms, _, fp)) = explain_one(setup, item, report) {
            latencies_ms.push(ms);
            if i < n {
                first[item] = Some(fp);
            } else {
                report.check(first[item] == Some(fp), || {
                    format!("item {item}: repeated explanation differs from the first")
                });
            }
        }
        i += 1;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let mut digest = Fnv::default();
    for fp in first.iter().flatten() {
        digest.u64(*fp);
    }
    Pass {
        latencies_ms,
        wall_s,
        digest: digest.hex(),
    }
}

/// Report the end-to-end metrics of a pass.
pub fn report_pass(pass: &Pass, report: &mut Report) {
    if let Some(s) = summarize(&pass.latencies_ms) {
        report.metric("p50_ms", s.p50, "ms", s.n);
        report.metric("tail_ms", s.tail, "ms", s.n);
        report.notes.push(format!(
            "explain: tail_ms is p{} of {} explanations",
            s.tail_pct, s.n
        ));
    }
    report.metric(
        "per_s",
        pass.latencies_ms.len() as f64 / pass.wall_s,
        "1/s",
        pass.latencies_ms.len(),
    );
    report.digests.insert("explain".into(), pass.digest.clone());
}

/// Stage times of one explanation, reconstructed from the public
/// functions `explain_clusters` is made of, in milliseconds, plus the
/// cost of the query stage's two parts and the mask counts.
#[derive(Default, Clone, Copy)]
struct Stages {
    tokenize: f64,
    sample: f64,
    query: f64,
    word_fit: f64,
    distances: f64,
    cluster: f64,
    k_select: f64,
    /// Rebuilding one masked pair, µs (part of `query`).
    mask_us_per_pair: f64,
    /// Predicting one masked pair in a batch, µs (part of `query`).
    predict_us_per_pair: f64,
    masks: usize,
    unique_masks: usize,
}

impl Stages {
    /// The stages `explain_clusters` runs in sequence.
    fn sum(&self) -> f64 {
        self.tokenize
            + self.sample
            + self.query
            + self.word_fit
            + self.distances
            + self.cluster
            + self.k_select
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run the stages of `explain_clusters` one by one on `pair`, timing
/// each, with the same options and matcher; then time mask rebuilding
/// and batch prediction alone on the same unique masks.
fn stages(case: &Case, pair: &EntityPair) -> Result<Stages, String> {
    let opts = case.crew.options();
    let mut s = Stages::default();
    let t = Instant::now();
    let tokenized = TokenizedPair::new(pair.clone());
    s.tokenize = ms_since(t);

    let t = Instant::now();
    let masks = sample_masks(&tokenized, &opts.perturb).map_err(|e| e.to_string())?;
    s.sample = ms_since(t);

    let matcher: &dyn Matcher = case.matcher.as_ref();
    let t = Instant::now();
    let responses = query_masks(&tokenized, &masks, matcher, opts.perturb.threads);
    s.query = ms_since(t);
    let n = tokenized.len() as f64;
    let kept_fraction = masks
        .iter()
        .map(|m| m.iter().filter(|&&b| b).count() as f64 / n)
        .collect();
    let set = PerturbationSet {
        responses: responses.iter().map(|r| r.clamp(0.0, 1.0)).collect(),
        masks,
        kept_fraction,
    };

    let t = Instant::now();
    let word_fit = fit_word_surrogate(&set, &opts.surrogate).map_err(|e| e.to_string())?;
    s.word_fit = ms_since(t);

    if tokenized.len() > 1 {
        let t = Instant::now();
        let distances = combined_distances_with(
            &tokenized,
            &case.ctx.embeddings,
            &word_fit.weights,
            opts.knowledge,
            &opts.semantic,
        )
        .map_err(|e| e.to_string())?;
        s.distances = ms_since(t);

        let t = Instant::now();
        let constraints = Constraints {
            must_link: Vec::new(),
            cannot_link: opposite_sign_cannot_links(&word_fit.weights, opts.cannot_link_quantile),
        };
        let dendrogram =
            agglomerative(&distances, opts.linkage, &constraints).map_err(|e| e.to_string())?;
        let k_lo = dendrogram.min_clusters().max(1);
        let k_hi = opts.max_clusters.min(dendrogram.max_clusters()).max(k_lo);
        let cuts = sweep_cuts(&dendrogram, &distances, k_lo, k_hi).map_err(|e| e.to_string())?;
        s.cluster = ms_since(t);

        let t = Instant::now();
        for cut in &cuts {
            let groups = groups_from_labels(&cut.labels);
            black_box(
                fit_group_surrogate(&set, &groups, &opts.surrogate).map_err(|e| e.to_string())?,
            );
        }
        s.k_select = ms_since(t);
    }

    // The query stage's parts, on the unique masks it queries.
    let mut seen = HashSet::new();
    let unique: Vec<&Vec<bool>> = set
        .masks
        .iter()
        .filter(|m| seen.insert(m.as_slice()))
        .collect();
    let t = Instant::now();
    let mut buffer = MaskedPairBuffer::new(&tokenized);
    let pairs: Vec<EntityPair> = unique.iter().map(|m| buffer.apply(m).clone()).collect();
    let mask_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    black_box(case.matcher.predict_proba_batch(&pairs));
    let predict_us = t.elapsed().as_secs_f64() * 1e6;
    let k = pairs.len().max(1) as f64;
    s.mask_us_per_pair = mask_us / k;
    s.predict_us_per_pair = predict_us / k;
    s.masks = set.masks.len();
    s.unique_masks = unique.len();
    Ok(s)
}

/// The traced phase: for each pair, the whole explanation, then each
/// stage alone. Reports the stage ledger and returns the explanation
/// latencies of the phase.
pub fn trace(setup: &Setup, seconds: f64, report: &mut Report) -> Vec<f64> {
    let n = setup.items.len();
    let mut totals = Vec::new();
    let mut queries = Vec::new();
    let mut rows: Vec<Stages> = Vec::new();
    // Per matcher kind: explanation ms and predict µs per pair.
    let mut per_kind: Vec<(MatcherKind, Vec<f64>, Vec<f64>)> = MatcherKind::all()
        .into_iter()
        .map(|k| (k, Vec::new(), Vec::new()))
        .collect();
    let (mut stage_total_ms, mut explain_total_ms) = (0.0, 0.0);
    let t0 = Instant::now();
    let mut i = 0usize;
    while i < n || t0.elapsed().as_secs_f64() < seconds {
        let item = i % n;
        i += 1;
        let (c, pair) = &setup.items[item];
        let case = &setup.cases[*c];
        let Some((ms, q, _)) = explain_one(setup, item, report) else {
            continue;
        };
        totals.push(ms);
        queries.push(q as f64);
        match stages(case, pair) {
            Ok(s) => {
                let slot = per_kind.iter_mut().find(|(k, _, _)| *k == case.kind);
                let (_, kind_explain, kind_predict) = slot.expect("every matcher kind has a slot");
                kind_explain.push(ms);
                kind_predict.push(s.predict_us_per_pair);
                stage_total_ms += s.sum();
                explain_total_ms += ms;
                rows.push(s);
            }
            Err(e) => report.check(false, || format!("stage ledger item {item}: {e}")),
        }
    }
    let col = |f: fn(&Stages) -> f64| -> Vec<f64> { rows.iter().map(f).collect() };
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let (masks_total, masks_unique) = rows
        .iter()
        .fold((0, 0), |(t, u), s| (t + s.masks, u + s.unique_masks));
    let rows = rows.len();
    report.metric(
        "tokenize.us_per_pair",
        med(&col(|s| s.tokenize)) * 1e3,
        "us",
        rows,
    );
    report.metric(
        "mask_apply.us_per_pair",
        med(&col(|s| s.mask_us_per_pair)),
        "us",
        rows,
    );
    report.metric("perturb.sample_ms", med(&col(|s| s.sample)), "ms", rows);
    report.metric("perturb.query_ms", med(&col(|s| s.query)), "ms", rows);
    report.metric(
        "surrogate.word_fit_ms",
        med(&col(|s| s.word_fit)),
        "ms",
        rows,
    );
    report.metric(
        "surrogate.k_select_ms",
        med(&col(|s| s.k_select)),
        "ms",
        rows,
    );
    report.metric(
        "knowledge.distances_ms",
        med(&col(|s| s.distances)),
        "ms",
        rows,
    );
    report.metric("cluster.sweep_ms", med(&col(|s| s.cluster)), "ms", rows);
    report.metric(
        "perturb.queries_per_explanation",
        med(&queries),
        "count",
        queries.len(),
    );
    report.metric(
        "perturb.unique_mask_share",
        masks_unique as f64 / masks_total.max(1) as f64,
        "share",
        rows,
    );
    report.metric(
        "explain.unattributed_share",
        1.0 - stage_total_ms / explain_total_ms,
        "share",
        rows,
    );
    for (kind, explain_ms, predict_us) in &per_kind {
        let label = kind.label();
        report.metric(
            &format!("matcher.explain_p50_ms.{label}"),
            med(explain_ms),
            "ms",
            explain_ms.len(),
        );
        report.metric(
            &format!("matcher.predict_us_per_pair.{label}"),
            med(predict_us),
            "us",
            predict_us.len(),
        );
    }
    totals
}
