//! WYM-style decision units (Baraldi et al., "Why do You Match?") —
//! an *extension* baseline from the CREW authors' own lineage, not among
//! the five systems the abstract compares against.
//!
//! WYM's idea: instead of independent words, the natural feature space of
//! an EM pair is the set of **decision units** — pairs of similar terms,
//! one from each record, plus the left-over unique terms. We reproduce the
//! mechanism post-hoc: build decision units by greedy cross-record token
//! alignment, perturb at unit granularity (dropping a unit removes both of
//! its words), fit the shared ridge surrogate over unit indicators, and
//! emit word weights by distributing each unit's weight to its members.

use crew_core::{
    fit_word_surrogate, query_masks_checked, words_of, Explainer, PerturbationSet,
    SurrogateOptions, WordExplanation,
};
use em_data::{EntityPair, Side, TokenizedPair};
use em_matchers::Matcher;
use em_rngs::rngs::StdRng;
use em_rngs::{Rng, SeedableRng};

/// One decision unit: a cross-record pair of similar words, or a single
/// unpaired word.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionUnit {
    /// Word indices (1 for unique terms, 2 for paired terms).
    pub member_indices: Vec<usize>,
    /// Similarity of the paired terms (1.0 for unique terms).
    pub similarity: f64,
}

/// WYM configuration.
#[derive(Debug, Clone, Copy)]
pub struct WymOptions {
    /// Minimum Jaro-Winkler similarity for two cross-record words of the
    /// same attribute to form a paired unit.
    pub pair_threshold: f64,
    /// Perturbation samples over units.
    pub samples: usize,
    pub kernel_width: f64,
    pub lambda: f64,
    pub seed: u64,
    /// Worker threads for model queries (1 = sequential).
    pub threads: usize,
}

impl Default for WymOptions {
    fn default() -> Self {
        WymOptions {
            pair_threshold: 0.85,
            samples: 256,
            kernel_width: 0.75,
            lambda: 1e-3,
            seed: 0x3713,
            threads: 1,
        }
    }
}

/// The WYM-style explainer.
pub struct Wym {
    options: WymOptions,
}

impl Wym {
    pub fn new(options: WymOptions) -> Self {
        Wym { options }
    }

    /// Build decision units for a tokenized pair: greedy best-first
    /// matching of left words to right words within the same attribute,
    /// above the similarity threshold; everything unpaired becomes a
    /// singleton unit.
    pub fn decision_units(&self, tokenized: &TokenizedPair) -> Vec<DecisionUnit> {
        let words = tokenized.words();
        let left: Vec<usize> = tokenized.side_indices(Side::Left);
        let right: Vec<usize> = tokenized.side_indices(Side::Right);
        // Candidate cross-record pairs with similarity, same attribute only.
        let mut candidates: Vec<(f64, usize, usize)> = Vec::new();
        for &l in &left {
            for &r in &right {
                if words[l].attribute != words[r].attribute {
                    continue;
                }
                let sim = em_text::jaro_winkler(&words[l].text, &words[r].text);
                if sim >= self.options.pair_threshold {
                    candidates.push((sim, l, r));
                }
            }
        }
        // Greedy best-first (stable for ties by indices).
        candidates.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap()
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });
        let mut used = vec![false; words.len()];
        let mut units = Vec::new();
        for (sim, l, r) in candidates {
            if used[l] || used[r] {
                continue;
            }
            used[l] = true;
            used[r] = true;
            units.push(DecisionUnit {
                member_indices: vec![l, r],
                similarity: sim,
            });
        }
        for (i, u) in used.iter().enumerate() {
            if !u {
                units.push(DecisionUnit {
                    member_indices: vec![i],
                    similarity: 1.0,
                });
            }
        }
        // Deterministic order: by first member index.
        units.sort_by_key(|u| u.member_indices[0]);
        units
    }
}

impl Default for Wym {
    fn default() -> Self {
        Wym::new(WymOptions::default())
    }
}

impl Explainer for Wym {
    fn name(&self) -> &str {
        "wym"
    }

    fn explain(
        &self,
        matcher: &dyn Matcher,
        pair: &EntityPair,
    ) -> Result<WordExplanation, crew_core::ExplainError> {
        let tokenized = TokenizedPair::new(pair.clone());
        let n = tokenized.len();
        if n == 0 {
            return Err(crew_core::ExplainError::EmptyPair);
        }
        if self.options.samples == 0 {
            return Err(crew_core::ExplainError::NoSamples);
        }
        let units = self.decision_units(&tokenized);
        let m = units.len();

        // Sample unit-level masks; expand to word masks for the queries.
        let mut rng = StdRng::seed_from_u64(self.options.seed);
        let mut unit_masks: Vec<Vec<bool>> = vec![vec![true; m]];
        for _ in 0..self.options.samples {
            let n_drop = rng.gen_range(1..=m.max(2) - 1).max(1);
            let mut order: Vec<usize> = (0..m).collect();
            for i in 0..n_drop.min(m.saturating_sub(1)) {
                let j = rng.gen_range(i..m);
                order.swap(i, j);
            }
            let mut mask = vec![true; m];
            for &u in order.iter().take(n_drop) {
                mask[u] = false;
            }
            unit_masks.push(mask);
        }
        // Expand unit masks to word masks, then query through the shared
        // engine (dedup + buffered rebuild + batched prediction).
        let word_masks: Vec<Vec<bool>> = unit_masks
            .iter()
            .map(|um| {
                let mut word_mask = vec![true; n];
                for (u, &keep) in um.iter().enumerate() {
                    if !keep {
                        for &w in &units[u].member_indices {
                            word_mask[w] = false;
                        }
                    }
                }
                word_mask
            })
            .collect();
        let responses =
            query_masks_checked(&tokenized, &word_masks, matcher, self.options.threads)?;
        let kept_fraction: Vec<f64> = unit_masks
            .iter()
            .map(|um| um.iter().filter(|&&b| b).count() as f64 / m as f64)
            .collect();
        let set = PerturbationSet {
            masks: unit_masks,
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
        // Unit weight → member words (split evenly, like CREW's word view).
        let mut weights = vec![0.0; n];
        for (u, unit) in units.iter().enumerate() {
            let share = fit.weights[u] / unit.member_indices.len() as f64;
            for &w in &unit.member_indices {
                weights[w] = share;
            }
        }
        Ok(WordExplanation {
            explainer: "wym".to_string(),
            words: words_of(&tokenized),
            weights,
            base_score: set.responses[0],
            intercept: fit.intercept,
            surrogate_r2: fit.r_squared,
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
        let wym = Wym::default();
        assert_nan_is_typed_error(wym.explain(&NanMatcher, &magic_pair()));
    }

    #[test]
    fn out_of_range_responses_are_clamped() {
        struct TooHigh;
        impl Matcher for TooHigh {
            fn name(&self) -> &str {
                "too-high"
            }
            fn predict_proba(&self, _: &EntityPair) -> f64 {
                1.7
            }
        }
        let expl = Wym::default().explain(&TooHigh, &magic_pair()).unwrap();
        assert_eq!(expl.base_score, 1.0);
    }

    #[test]
    fn decision_units_pair_identical_cross_record_words() {
        let tokenized = TokenizedPair::new(magic_pair());
        let wym = Wym::default();
        let units = wym.decision_units(&tokenized);
        // "magic" (0) pairs with "magic" (3); the four fillers are singletons.
        let paired: Vec<&DecisionUnit> = units
            .iter()
            .filter(|u| u.member_indices.len() == 2)
            .collect();
        assert_eq!(paired.len(), 1);
        assert_eq!(paired[0].member_indices, vec![0, 3]);
        assert_eq!(paired[0].similarity, 1.0);
        assert_eq!(units.len(), 5); // 1 pair + 4 singletons
    }

    #[test]
    fn decision_units_respect_attribute_boundaries() {
        let schema = Arc::new(Schema::new(vec!["a", "b"]));
        let pair = EntityPair::new(
            schema,
            Record::new(0, vec!["token".into(), "".into()]),
            Record::new(1, vec!["".into(), "token".into()]),
        )
        .unwrap();
        let tokenized = TokenizedPair::new(pair);
        let units = Wym::default().decision_units(&tokenized);
        // Same word in different attributes must NOT pair.
        assert!(units.iter().all(|u| u.member_indices.len() == 1));
    }

    #[test]
    fn typo_variants_still_pair() {
        let schema = Arc::new(Schema::new(vec!["t"]));
        let pair = EntityPair::new(
            schema,
            Record::new(0, vec!["panasonic tv".into()]),
            Record::new(1, vec!["panasonik tv".into()]),
        )
        .unwrap();
        let tokenized = TokenizedPair::new(pair);
        let units = Wym::default().decision_units(&tokenized);
        let pairs: Vec<_> = units
            .iter()
            .filter(|u| u.member_indices.len() == 2)
            .collect();
        assert_eq!(
            pairs.len(),
            2,
            "both brand (typo) and tv should pair: {units:?}"
        );
    }

    #[test]
    fn greedy_matching_is_one_to_one() {
        // Two identical left words, one right word: only one pairing.
        let schema = Arc::new(Schema::new(vec!["t"]));
        let pair = EntityPair::new(
            schema,
            Record::new(0, vec!["dup dup".into()]),
            Record::new(1, vec!["dup".into()]),
        )
        .unwrap();
        let tokenized = TokenizedPair::new(pair);
        let units = Wym::default().decision_units(&tokenized);
        let paired = units.iter().filter(|u| u.member_indices.len() == 2).count();
        assert_eq!(paired, 1);
        let covered: usize = units.iter().map(|u| u.member_indices.len()).sum();
        assert_eq!(covered, 3);
    }

    #[test]
    fn wym_finds_planted_evidence_as_one_unit() {
        let wym = Wym::new(WymOptions {
            samples: 300,
            ..Default::default()
        });
        let expl = wym.explain(&magic_matcher(), &magic_pair()).unwrap();
        // The "magic"+"magic" unit carries the decision; its two members
        // share the top weight.
        let ranked = expl.ranked_indices();
        assert!(
            ranked[..2].contains(&0) && ranked[..2].contains(&3),
            "{ranked:?} weights {:?}",
            expl.weights
        );
        assert_eq!(
            expl.weights[0], expl.weights[3],
            "paired words share the unit weight"
        );
        assert!(expl.surrogate_r2 > 0.5);
    }

    #[test]
    fn wym_is_deterministic() {
        let wym = Wym::default();
        let a = wym.explain(&magic_matcher(), &magic_pair()).unwrap();
        let b = wym.explain(&magic_matcher(), &magic_pair()).unwrap();
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let schema = Arc::new(Schema::new(vec!["t"]));
        let empty = EntityPair::new(
            schema,
            Record::new(0, vec!["".into()]),
            Record::new(1, vec!["".into()]),
        )
        .unwrap();
        assert!(Wym::default().explain(&magic_matcher(), &empty).is_err());
        let zero = Wym::new(WymOptions {
            samples: 0,
            ..Default::default()
        });
        assert!(zero.explain(&magic_matcher(), &magic_pair()).is_err());
    }
}
