//! Extension experiments (beyond the reconstructed paper evaluation):
//!
//! - **E1** — counterfactual quality of CREW explanations: how often does
//!   removing a few clusters flip the decision, and at what cost?
//! - **E2** — global (dataset-level) explanations: which attributes drive
//!   each trained matcher overall.
//! - **E3** — model-agnosticity: CREW's fidelity across all matcher
//!   families, including an ensemble.
//! - **E4** — statistical significance of the headline fidelity gaps
//!   (paired sign test + bootstrap CI of CREW − baseline per pair).
//! - **E7** — matcher calibration (ECE, Platt scaling) and its effect on
//!   CREW's fidelity.

use crate::context::MatcherKind;
use crate::explainers::{build_crew, ExplainerKind};
use crate::store::EvalSession;
use crate::table::{Cell, Table};
use crew_core::{
    explain_dataset, explanation_robustness, find_counterfactual, CounterfactualOptions,
    CrewOptions,
};
use em_data::TokenizedPair;
use em_matchers::EnsembleMatcher;
use em_metrics as metrics;
use std::sync::Arc;

/// E1 — counterfactual quality of CREW cluster explanations.
pub fn exp_e1(session: &EvalSession) -> Result<Table, crate::EvalError> {
    let config = session.config();
    let mut table = Table::new(
        "E1",
        "Counterfactuals from CREW clusters (flip rate within 3 removals, mean cost)",
        vec![
            "dataset",
            "flip@3",
            "mean_cost",
            "mean_robustness",
            "mean_prob_swing",
        ],
    );
    for &family in &config.families {
        let ctx = session.context(family)?;
        let matcher = ctx.matcher(config.matcher)?;
        let pairs = ctx.pairs_to_explain(config.explain_pairs);
        let mut flips = 0usize;
        let mut costs = Vec::new();
        let mut robustness = Vec::new();
        let mut swings = Vec::new();
        for ex in &pairs {
            let out = session.explain(ExplainerKind::Crew, &ctx, &ex.pair)?;
            let ce = out
                .cluster_explanation
                .as_ref()
                .expect("crew output carries the cluster explanation");
            let cf = find_counterfactual(
                matcher.as_ref(),
                &ex.pair,
                ce,
                CounterfactualOptions { max_removals: 3 },
            )?;
            if let Some(cf) = cf {
                flips += 1;
                costs.push(cf.cost() as f64);
                swings.push((cf.probability_before - cf.probability_after).abs());
            }
            if let Some(r) = explanation_robustness(matcher.as_ref(), &ex.pair, ce)? {
                robustness.push(r);
            }
        }
        let mean = em_linalg::stats::mean;
        table.push_row(vec![
            ctx.dataset.name().into(),
            (flips as f64 / pairs.len().max(1) as f64).into(),
            mean(&costs).into(),
            mean(&robustness).into(),
            mean(&swings).into(),
        ]);
    }
    Ok(table)
}

/// E2 — global explanations: per dataset, the attribute ranking CREW's
/// aggregated clusters assign to the trained matcher.
pub fn exp_e2(session: &EvalSession) -> Result<Table, crate::EvalError> {
    let config = session.config();
    let mut table = Table::new(
        "E2",
        "Global CREW explanations: attribute importance per dataset",
        vec![
            "dataset",
            "attribute",
            "mean_abs_mass",
            "top_cluster_share",
            "rank",
        ],
    );
    for &family in &config.families {
        let ctx = session.context(family)?;
        let matcher = ctx.matcher(config.matcher)?;
        // Aggregates over a different pair sample than the headline
        // experiments, so the explanations are computed directly.
        let crew = build_crew(&ctx, config.budget(), CrewOptions::default());
        let sample = ctx.split.test.sample(config.explain_pairs, ctx.seed ^ 0x91);
        let global = explain_dataset(&crew, matcher.as_ref(), &sample, config.explain_pairs, 2)?;
        for (rank, attr) in global.attributes.iter().enumerate() {
            table.push_row(vec![
                ctx.dataset.name().into(),
                Cell::text(attr.attribute.clone()),
                attr.mean_abs_mass.into(),
                attr.top_cluster_share.into(),
                (rank + 1).into(),
            ]);
        }
    }
    Ok(table)
}

/// E3 — model-agnosticity: CREW fidelity and size across matcher families
/// (logistic, MLP, attention, rules, ensemble of all four).
pub fn exp_e3(session: &EvalSession) -> Result<Table, crate::EvalError> {
    let config = session.config();
    let mut table = Table::new(
        "E3",
        "CREW across model families (model-agnosticity)",
        vec![
            "dataset",
            "model",
            "model_f1",
            "aopc_unit@3",
            "units",
            "group_r2",
        ],
    );
    let mean = em_linalg::stats::mean;
    let families: Vec<_> = config.families.iter().copied().take(2).collect();
    for family in families {
        let ctx = session.context(family)?;
        let pairs = ctx.pairs_to_explain(config.explain_pairs);
        // The four zoo models route through the explanation store (the
        // attention rows are the same tuples the headline experiments
        // explain); the ensemble is not a `MatcherKind`, so its rows are
        // computed directly below.
        for kind in MatcherKind::all() {
            let matcher = ctx.matcher(kind)?;
            let f1 = em_matchers::evaluate(matcher.as_ref(), &ctx.split.test).f1;
            let mut aopc_u = Vec::new();
            let mut units = Vec::new();
            let mut r2 = Vec::new();
            for ex in &pairs {
                let out = session.explain_for(kind, ExplainerKind::Crew, &ctx, &ex.pair)?;
                let tokenized = TokenizedPair::new(ex.pair.clone());
                aopc_u.push(metrics::aopc_units(
                    matcher.as_ref(),
                    &tokenized,
                    &out.units,
                    3,
                )?);
                let (selected_k, group_r2, _) = out.cluster_info.expect("crew output");
                units.push(selected_k as f64);
                r2.push(group_r2);
            }
            table.push_row(vec![
                ctx.dataset.name().into(),
                Cell::text(kind.label()),
                f1.into(),
                mean(&aopc_u).into(),
                mean(&units).into(),
                mean(&r2).into(),
            ]);
        }
        let mut zoo: Vec<Arc<dyn em_matchers::Matcher>> = Vec::new();
        for kind in MatcherKind::all() {
            zoo.push(ctx.matcher(kind)?);
        }
        let mut ensemble = EnsembleMatcher::uniform(zoo)?;
        ensemble.calibrate(&ctx.split.validation);
        let f1 = em_matchers::evaluate(&ensemble, &ctx.split.test).f1;
        let crew = build_crew(&ctx, config.budget(), CrewOptions::default());
        let mut aopc_u = Vec::new();
        let mut units = Vec::new();
        let mut r2 = Vec::new();
        for ex in &pairs {
            let ce = crew.explain_clusters(&ensemble, &ex.pair)?;
            let tokenized = TokenizedPair::new(ex.pair.clone());
            aopc_u.push(metrics::aopc_units(&ensemble, &tokenized, &ce.units(), 3)?);
            units.push(ce.selected_k as f64);
            r2.push(ce.group_r2);
        }
        table.push_row(vec![
            ctx.dataset.name().into(),
            Cell::text("ensemble"),
            f1.into(),
            mean(&aopc_u).into(),
            mean(&units).into(),
            mean(&r2).into(),
        ]);
    }
    Ok(table)
}

/// E4 — significance of the unit-level fidelity gap: per dataset and
/// baseline, the paired per-pair difference `aopc_unit@3(CREW) −
/// aopc_unit@3(baseline)` with a sign-test p-value and a 95% bootstrap CI.
pub fn exp_e4(session: &EvalSession) -> Result<Table, crate::EvalError> {
    let config = session.config();
    let mut table = Table::new(
        "E4",
        "Significance of CREW's unit-level fidelity advantage (paired per pair)",
        vec![
            "dataset",
            "baseline",
            "mean_diff",
            "ci95_lo",
            "ci95_hi",
            "sign_p",
        ],
    );
    for &family in &config.families {
        let ctx = session.context(family)?;
        let matcher = ctx.matcher(config.matcher)?;
        let pairs = ctx.pairs_to_explain(config.explain_pairs);
        // Per-pair unit-level AOPC for every system (store hits after the
        // headline experiments: same tuples).
        let mut scores: std::collections::HashMap<ExplainerKind, Vec<f64>> =
            std::collections::HashMap::new();
        for kind in ExplainerKind::all() {
            let mut v = Vec::with_capacity(pairs.len());
            for ex in &pairs {
                let out = session.explain(kind, &ctx, &ex.pair)?;
                let tokenized = TokenizedPair::new(ex.pair.clone());
                v.push(metrics::aopc_units(
                    matcher.as_ref(),
                    &tokenized,
                    &out.units,
                    3,
                )?);
            }
            scores.insert(kind, v);
        }
        let crew_scores = scores[&ExplainerKind::Crew].clone();
        for kind in ExplainerKind::all() {
            if kind == ExplainerKind::Crew {
                continue;
            }
            let base = &scores[&kind];
            let diffs: Vec<f64> = crew_scores.iter().zip(base).map(|(c, b)| c - b).collect();
            let (lo, hi) = em_linalg::stats::paired_bootstrap_ci(
                &crew_scores,
                base,
                0.95,
                1000,
                config.seed ^ 0xe4,
            );
            let p = em_linalg::stats::sign_test(&crew_scores, base);
            table.push_row(vec![
                ctx.dataset.name().into(),
                kind.label().into(),
                em_linalg::stats::mean(&diffs).into(),
                lo.into(),
                hi.into(),
                p.into(),
            ]);
        }
    }
    Ok(table)
}

/// E7 — matcher calibration and its effect on explanation fidelity: the
/// expected calibration error of each trained model before/after Platt
/// scaling, and CREW's unit-level AOPC against both versions. Perturbation
/// surrogates regress on probabilities, so a saturated model compresses
/// the attribution signal — calibration is the cheap fix.
pub fn exp_e7(session: &EvalSession) -> Result<Table, crate::EvalError> {
    let config = session.config();
    let mut table = Table::new(
        "E7",
        "Matcher calibration and CREW fidelity (raw vs Platt-scaled)",
        vec![
            "dataset",
            "model",
            "ece_raw",
            "ece_platt",
            "crew_aopc_raw",
            "crew_aopc_platt",
        ],
    );
    let families: Vec<_> = config.families.iter().copied().take(2).collect();
    for family in families {
        let ctx = session.context(family)?;
        for kind in [MatcherKind::Logistic, MatcherKind::Attention] {
            let raw = ctx.matcher(kind)?;
            let platt = em_matchers::CalibratedMatcher::fit(
                ArcMatcher(Arc::clone(&raw)),
                &ctx.split.validation,
            )?;
            let ece_raw =
                em_matchers::expected_calibration_error(raw.as_ref(), &ctx.split.test, 10)?;
            let ece_platt = em_matchers::expected_calibration_error(&platt, &ctx.split.test, 10)?;
            let pairs = ctx.pairs_to_explain(config.explain_pairs);
            // Raw-model explanations come from the store (E3 explains the
            // same tuples); the Platt-scaled model is not in the zoo, so
            // its explanations are computed directly.
            let crew = build_crew(&ctx, config.budget(), CrewOptions::default());
            let mut aopc_raw = Vec::new();
            let mut aopc_platt = Vec::new();
            for ex in &pairs {
                let tokenized = em_data::TokenizedPair::new(ex.pair.clone());
                let out = session.explain_for(kind, ExplainerKind::Crew, &ctx, &ex.pair)?;
                aopc_raw.push(metrics::aopc_units(
                    raw.as_ref(),
                    &tokenized,
                    &out.units,
                    3,
                )?);
                let ce2 = crew.explain_clusters(&platt, &ex.pair)?;
                aopc_platt.push(metrics::aopc_units(&platt, &tokenized, &ce2.units(), 3)?);
            }
            table.push_row(vec![
                ctx.dataset.name().into(),
                kind.label().into(),
                ece_raw.into(),
                ece_platt.into(),
                em_linalg::stats::mean(&aopc_raw).into(),
                em_linalg::stats::mean(&aopc_platt).into(),
            ]);
        }
    }
    Ok(table)
}

/// Adapter: `Arc<dyn Matcher>` as a `Matcher` by value (CalibratedMatcher
/// is generic over a concrete `M: Matcher`).
struct ArcMatcher(Arc<dyn em_matchers::Matcher>);

impl em_matchers::Matcher for ArcMatcher {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn predict_proba(&self, pair: &em_data::EntityPair) -> f64 {
        self.0.predict_proba(pair)
    }
    fn predict_proba_batch(&self, pairs: &[em_data::EntityPair]) -> Vec<f64> {
        self.0.predict_proba_batch(pairs)
    }
    fn predict_proba_masked(
        &self,
        tokenized: &em_data::TokenizedPair,
        masks: &[&[bool]],
    ) -> Vec<f64> {
        self.0.predict_proba_masked(tokenized, masks)
    }
    fn threshold(&self) -> f64 {
        self.0.threshold()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentConfig;
    use em_data::{EntityPair, Record, Schema};
    use em_matchers::Matcher;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counts scalar and batch calls; scores by left-title length.
    #[derive(Default)]
    struct CallCounter {
        scalar: AtomicUsize,
        batches: AtomicUsize,
    }

    impl Matcher for CallCounter {
        fn name(&self) -> &str {
            "call-counter"
        }
        fn predict_proba(&self, pair: &EntityPair) -> f64 {
            self.scalar.fetch_add(1, Ordering::SeqCst);
            pair.left().value(0).len() as f64 / 32.0
        }
        fn predict_proba_batch(&self, pairs: &[EntityPair]) -> Vec<f64> {
            self.batches.fetch_add(1, Ordering::SeqCst);
            pairs
                .iter()
                .map(|p| p.left().value(0).len() as f64 / 32.0)
                .collect()
        }
    }

    /// The adapter forwards both batch methods: one inline perturbation
    /// query reaches the inner matcher as one batch call, no scalar calls.
    #[test]
    fn arc_matcher_forwards_batch_calls() {
        let inner = Arc::new(CallCounter::default());
        let adapter = ArcMatcher(Arc::clone(&inner) as Arc<dyn Matcher>);
        let schema = Arc::new(Schema::new(vec!["title"]));
        let pair = EntityPair::new(
            schema,
            Record::new(0, vec!["one two three four".into()]),
            Record::new(1, vec!["one two".into()]),
        )
        .unwrap();
        let tp = TokenizedPair::new(pair);
        let opts = crew_core::PerturbOptions {
            samples: 40,
            ..Default::default()
        };
        let masks = crew_core::sample_masks(&tp, &opts).unwrap();
        let got = crew_core::query_masks(&tp, &masks, &adapter, 1);
        assert_eq!(inner.batches.load(Ordering::SeqCst), 1);
        assert_eq!(inner.scalar.load(Ordering::SeqCst), 0);
        for (mask, p) in masks.iter().zip(&got) {
            let want = tp.apply_mask(mask).left().value(0).len() as f64 / 32.0;
            assert_eq!(p.to_bits(), want.to_bits());
        }
        adapter.predict_proba_batch(&[tp.pair().clone()]);
        assert_eq!(inner.batches.load(Ordering::SeqCst), 2);
        assert_eq!(inner.scalar.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn e1_reports_counterfactual_stats() {
        let cfg = EvalSession::new(ExperimentConfig::smoke());
        let t = exp_e1(&cfg).unwrap();
        assert_eq!(t.rows.len(), 1);
        let csv = t.to_csv();
        let rows = em_data::parse_csv(&csv).unwrap();
        let flip_col = rows[0].iter().position(|c| c == "flip@3").unwrap();
        let v: f64 = rows[1][flip_col].parse().unwrap();
        assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn e2_ranks_every_attribute() {
        let cfg = EvalSession::new(ExperimentConfig::smoke());
        let t = exp_e2(&cfg).unwrap();
        // restaurants schema has 4 attributes.
        assert_eq!(t.rows.len(), 4);
        assert!(t.to_markdown().contains("synth-restaurants"));
    }

    #[test]
    fn e4_compares_crew_to_every_other_system() {
        let cfg = EvalSession::new(ExperimentConfig::smoke());
        let t = exp_e4(&cfg).unwrap();
        assert_eq!(t.rows.len(), 6); // 1 family × 6 non-CREW systems
        let csv = t.to_csv();
        let rows = em_data::parse_csv(&csv).unwrap();
        let p_col = rows[0].iter().position(|c| c == "sign_p").unwrap();
        for row in &rows[1..] {
            let p: f64 = row[p_col].parse().unwrap();
            assert!((0.0..=1.0).contains(&p), "p-value out of range: {p}");
        }
    }

    #[test]
    fn e7_reports_calibration_effect() {
        let cfg = EvalSession::new(ExperimentConfig::smoke());
        let t = exp_e7(&cfg).unwrap();
        assert_eq!(t.rows.len(), 2); // 1 family × 2 models
        let csv = t.to_csv();
        let rows = em_data::parse_csv(&csv).unwrap();
        for col in ["ece_raw", "ece_platt"] {
            let c = rows[0].iter().position(|h| h == col).unwrap();
            for row in &rows[1..] {
                let v: f64 = row[c].parse().unwrap();
                assert!((0.0..=1.0).contains(&v), "{col} out of range: {v}");
            }
        }
    }

    #[test]
    fn e3_covers_five_models() {
        let cfg = EvalSession::new(ExperimentConfig::smoke());
        let t = exp_e3(&cfg).unwrap();
        assert_eq!(t.rows.len(), 5);
        assert!(t.to_markdown().contains("ensemble"));
    }
}
