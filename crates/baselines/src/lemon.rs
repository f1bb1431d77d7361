//! LEMON (Jørgensen et al.): LIME for EM with three fixes — dual (per-side)
//! explanations, *attribution potential*, and counterfactual-aware weights.
//!
//! Attribution potential answers the non-match problem: a token with zero
//! drop-attribution may still be decisive, because *injecting* its copy
//! into the other record would raise the match score. LEMON reports
//! `weight + potential` so such tokens surface. Our reconstruction keeps
//! exactly that structure: Landmark-style per-side drop surrogates plus a
//! per-token counterfactual injection probe.

use crew_core::{
    fit_word_surrogate, query_masks_checked, query_pairs, words_of, Explainer, PerturbationSet,
    SurrogateOptions, WordExplanation,
};
use em_data::{EntityPair, Side, TokenizedPair};
use em_matchers::Matcher;
use em_rngs::rngs::StdRng;
use em_rngs::{Rng, SeedableRng};

/// LEMON configuration.
#[derive(Debug, Clone, Copy)]
pub struct LemonOptions {
    /// Drop-perturbation samples per side.
    pub samples_per_side: usize,
    pub kernel_width: f64,
    pub lambda: f64,
    pub seed: u64,
    /// Weight of the attribution-potential term in the final score.
    pub potential_weight: f64,
    /// Worker threads for model queries (1 = sequential).
    pub threads: usize,
}

impl Default for LemonOptions {
    fn default() -> Self {
        LemonOptions {
            samples_per_side: 128,
            kernel_width: 0.75,
            lambda: 1e-3,
            seed: 0x1e304,
            potential_weight: 0.5,
            threads: 1,
        }
    }
}

/// The LEMON explainer.
pub struct Lemon {
    options: LemonOptions,
}

impl Lemon {
    pub fn new(options: LemonOptions) -> Self {
        Lemon { options }
    }

    /// Dual drop-explanation of one side (other side fixed).
    fn side_drop_weights(
        &self,
        matcher: &dyn Matcher,
        tokenized: &TokenizedPair,
        side: Side,
    ) -> Result<(Vec<usize>, Vec<f64>, f64), crew_core::ExplainError> {
        let side_indices = tokenized.side_indices(side);
        if side_indices.is_empty() {
            return Ok((side_indices, Vec::new(), 1.0));
        }
        let n_total = tokenized.len();
        let m = side_indices.len();
        let mut rng = StdRng::seed_from_u64(self.options.seed ^ (0x51de << (side as u64)));
        let mut masks: Vec<Vec<bool>> = vec![vec![true; n_total]];
        for _ in 0..self.options.samples_per_side {
            let mut mask = vec![true; n_total];
            let n_drop = rng.gen_range(1..=m.max(2) - 1).max(1);
            let mut order = side_indices.clone();
            for i in 0..n_drop.min(m.saturating_sub(1)) {
                let j = rng.gen_range(i..m);
                order.swap(i, j);
            }
            for &i in order.iter().take(n_drop) {
                mask[i] = false;
            }
            masks.push(mask);
        }
        let responses = query_masks_checked(tokenized, &masks, matcher, self.options.threads)?;
        let sub_masks: Vec<Vec<bool>> = masks
            .iter()
            .map(|mask| side_indices.iter().map(|&i| mask[i]).collect())
            .collect();
        let kept_fraction: Vec<f64> = sub_masks
            .iter()
            .map(|sm| sm.iter().filter(|&&b| b).count() as f64 / m as f64)
            .collect();
        let set = PerturbationSet {
            masks: sub_masks,
            responses,
            kept_fraction,
        };
        let fit = fit_word_surrogate(
            &set,
            &SurrogateOptions {
                kernel_width: self.options.kernel_width,
                lambda: self.options.lambda,
            },
        )?;
        Ok((side_indices, fit.weights, fit.r_squared))
    }

    /// Attribution potential of every token: Δscore from injecting a copy
    /// of the token into the other record's aligned attribute.
    fn attribution_potential(
        &self,
        matcher: &dyn Matcher,
        tokenized: &TokenizedPair,
        base: f64,
    ) -> Vec<f64> {
        let full_mask = vec![true; tokenized.len()];
        let pairs: Vec<EntityPair> = tokenized
            .words()
            .iter()
            .map(|w| {
                tokenized.apply_mask_with_injections(
                    &full_mask,
                    &[(w.side.other(), w.attribute, w.text.clone())],
                )
            })
            .collect();
        query_pairs(&pairs, matcher, self.options.threads)
            .into_iter()
            .map(|p| (p - base).max(0.0))
            .collect()
    }
}

impl Default for Lemon {
    fn default() -> Self {
        Lemon::new(LemonOptions::default())
    }
}

impl Explainer for Lemon {
    fn name(&self) -> &str {
        "lemon"
    }

    fn explain(
        &self,
        matcher: &dyn Matcher,
        pair: &EntityPair,
    ) -> Result<WordExplanation, crew_core::ExplainError> {
        let tokenized = TokenizedPair::new(pair.clone());
        if tokenized.is_empty() {
            return Err(crew_core::ExplainError::EmptyPair);
        }
        let base = matcher.predict_proba(pair);
        let (li, lw, lr2) = self.side_drop_weights(matcher, &tokenized, Side::Left)?;
        let (ri, rw, rr2) = self.side_drop_weights(matcher, &tokenized, Side::Right)?;
        let mut weights = vec![0.0; tokenized.len()];
        for (&i, &w) in li.iter().zip(&lw) {
            weights[i] = w;
        }
        for (&i, &w) in ri.iter().zip(&rw) {
            weights[i] = w;
        }
        // Potential only matters where a token is *not already* matched; on
        // confident matches injection has little headroom, which the max(0)
        // + additive form handles naturally.
        let potential = self.attribution_potential(matcher, &tokenized, base);
        for (w, p) in weights.iter_mut().zip(&potential) {
            *w += self.options.potential_weight * p;
        }
        Ok(WordExplanation {
            explainer: "lemon".to_string(),
            words: words_of(&tokenized),
            weights,
            base_score: base,
            intercept: 0.0,
            surrogate_r2: 0.5 * (lr2 + rr2),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_nan_is_typed_error, magic_matcher, magic_pair, NanMatcher};
    use em_data::{Record, Schema};
    use std::sync::Arc;

    #[test]
    fn nan_matcher_is_a_typed_error() {
        let lemon = Lemon::default();
        assert_nan_is_typed_error(lemon.explain(&NanMatcher, &magic_pair()));
    }

    #[test]
    fn lemon_finds_planted_evidence() {
        let lemon = Lemon::new(LemonOptions {
            samples_per_side: 300,
            ..Default::default()
        });
        let expl = lemon.explain(&magic_matcher(), &magic_pair()).unwrap();
        let ranked = expl.ranked_indices();
        assert!(
            ranked[..2].contains(&0) && ranked[..2].contains(&3),
            "{ranked:?}"
        );
    }

    #[test]
    fn potential_surfaces_decisive_tokens_on_non_matches() {
        // "magic" exists only on the left; drop-based weights are flat
        // because the pair scores 0.1 regardless. The potential term must
        // single out the left "magic".
        let schema = Arc::new(Schema::new(vec!["t"]));
        let pair = em_data::EntityPair::new(
            schema,
            Record::new(0, vec!["magic alpha beta".into()]),
            Record::new(1, vec!["gamma delta".into()]),
        )
        .unwrap();
        let lemon = Lemon::default();
        let expl = lemon.explain(&magic_matcher(), &pair).unwrap();
        assert_eq!(expl.words[0].text, "magic");
        assert_eq!(expl.ranked_indices()[0], 0, "weights: {:?}", expl.weights);
        // Potential contribution: injecting magic flips 0.1 → 0.9; weighted
        // by 0.5 → at least 0.4.
        assert!(expl.weights[0] >= 0.35);
    }

    #[test]
    fn potential_is_nonnegative() {
        let lemon = Lemon::default();
        let tokenized = TokenizedPair::new(magic_pair());
        let pot = lemon.attribution_potential(&magic_matcher(), &tokenized, 0.9);
        assert!(pot.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn lemon_is_deterministic() {
        let lemon = Lemon::default();
        let a = lemon.explain(&magic_matcher(), &magic_pair()).unwrap();
        let b = lemon.explain(&magic_matcher(), &magic_pair()).unwrap();
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn zero_potential_weight_reduces_to_dual_drop() {
        let with = Lemon::new(LemonOptions {
            potential_weight: 0.0,
            ..Default::default()
        });
        let expl = with.explain(&magic_matcher(), &magic_pair()).unwrap();
        // Still finds the planted words via drop surrogates.
        let ranked = expl.ranked_indices();
        assert!(ranked[..2].contains(&0) && ranked[..2].contains(&3));
    }
}
