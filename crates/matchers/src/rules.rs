//! A hand-written rule matcher: weighted per-attribute similarity vote.
//!
//! Serves two roles: a Magellan-style baseline model in the matcher-quality
//! table, and an always-available untrained black box for tests.

use crate::matcher::Matcher;
use crate::scratch::ScratchPool;
use em_data::EntityPair;
use em_text::{IdMap, JaroWinklerCache, TokenArena};

/// One rule: an attribute index, a weight and the similarity used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    pub attribute: usize,
    pub weight: f64,
}

/// Threshold matcher over a weighted mean of per-attribute token Jaccard
/// and Monge-Elkan similarity.
#[derive(Debug)]
pub struct RuleMatcher {
    rules: Vec<Rule>,
    threshold: f64,
    scratch: ScratchPool<RuleScratch>,
}

/// Per-batch caches of the interned batch path, cleared on every call.
///
/// A perturbation batch re-presents the same few cell values over and
/// over, so each cell is interned once ([`TokenArena`], no gram sets —
/// the rule similarity reads only tokens) and each distinct
/// `(left cell, right cell)` similarity is computed once. Every cached
/// value is a pure function of the two cell texts, so a hit is
/// bitwise-identical to recomputing it.
#[derive(Debug)]
struct RuleScratch {
    arena: TokenArena,
    jw_cache: JaroWinklerCache,
    /// `(left cell, right cell)` → rule similarity; the similarity does
    /// not depend on the attribute, so the key omits it.
    sims: IdMap<(u32, u32), f64>,
}

impl Default for RuleScratch {
    fn default() -> Self {
        RuleScratch {
            arena: TokenArena::without_grams(),
            jw_cache: JaroWinklerCache::new(),
            sims: IdMap::default(),
        }
    }
}

impl RuleScratch {
    fn clear(&mut self) {
        self.arena.clear();
        self.jw_cache.clear();
        self.sims.clear();
    }

    /// Rule similarity of two interned cells, or `None` when either side
    /// has no tokens (a null never counts as evidence).
    fn similarity(&mut self, l: u32, r: u32) -> Option<f64> {
        let (lt, rt) = (self.arena.tokens(l), self.arena.tokens(r));
        if lt.is_empty() || rt.is_empty() {
            return None;
        }
        if let Some(&sim) = self.sims.get(&(l, r)) {
            return Some(sim);
        }
        let jaccard =
            em_text::jaccard_sorted_ids(self.arena.sorted_tokens(l), self.arena.sorted_tokens(r));
        let sim = 0.5 * jaccard + 0.5 * self.jw_cache.monge_elkan_sym(&self.arena, lt, rt);
        self.sims.insert((l, r), sim);
        Some(sim)
    }
}

impl RuleMatcher {
    /// Build with explicit rules.
    ///
    /// # Errors
    /// Rejects empty rule sets, non-positive weights and out-of-range
    /// thresholds.
    pub fn new(rules: Vec<Rule>, threshold: f64) -> Result<Self, crate::MatcherError> {
        if rules.is_empty() {
            return Err(crate::MatcherError::NoRules);
        }
        if rules
            .iter()
            .any(|r| r.weight <= 0.0 || !r.weight.is_finite())
        {
            return Err(crate::MatcherError::InvalidRuleWeight);
        }
        if !(0.0..=1.0).contains(&threshold) {
            return Err(crate::MatcherError::InvalidThreshold(threshold));
        }
        Ok(RuleMatcher {
            rules,
            threshold,
            scratch: ScratchPool::new(),
        })
    }

    /// Uniform rules over every attribute of a schema.
    pub fn uniform(n_attributes: usize, threshold: f64) -> Result<Self, crate::MatcherError> {
        let rules = (0..n_attributes)
            .map(|attribute| Rule {
                attribute,
                weight: 1.0,
            })
            .collect();
        RuleMatcher::new(rules, threshold)
    }

    /// Batch prediction through the interned caches of [`RuleScratch`]:
    /// the same rules, skips and accumulation order as
    /// [`Matcher::predict_proba`], with token Jaccard from
    /// [`em_text::jaccard_sorted_ids`] and Monge-Elkan from the shared
    /// [`JaroWinklerCache`] kernel — both bitwise-equal to their string
    /// versions, so the scores are too.
    fn batch_with_scratch(&self, pairs: &[EntityPair], s: &mut RuleScratch) -> Vec<f64> {
        s.clear();
        let mut out = Vec::with_capacity(pairs.len());
        for pair in pairs {
            let mut score = 0.0;
            let mut weight_sum = 0.0;
            for rule in &self.rules {
                if rule.attribute >= pair.schema().len() {
                    continue;
                }
                let l = s.arena.intern_cell(pair.left().value(rule.attribute));
                let r = s.arena.intern_cell(pair.right().value(rule.attribute));
                if let Some(sim) = s.similarity(l, r) {
                    score += rule.weight * sim;
                    weight_sum += rule.weight;
                }
            }
            out.push(if weight_sum == 0.0 {
                0.0
            } else {
                score / weight_sum
            });
        }
        out
    }
}

impl Matcher for RuleMatcher {
    fn name(&self) -> &str {
        "rules"
    }

    fn predict_proba(&self, pair: &EntityPair) -> f64 {
        let mut score = 0.0;
        let mut weight_sum = 0.0;
        for rule in &self.rules {
            if rule.attribute >= pair.schema().len() {
                continue;
            }
            let l = pair.left().value(rule.attribute);
            let r = pair.right().value(rule.attribute);
            let lt = em_text::tokenize(l);
            let rt = em_text::tokenize(r);
            // Skip attributes where either side is missing so nulls don't
            // count as evidence either way.
            if lt.is_empty() || rt.is_empty() {
                continue;
            }
            let sim = 0.5 * em_text::jaccard(&lt, &rt) + 0.5 * em_text::monge_elkan_sym(&lt, &rt);
            score += rule.weight * sim;
            weight_sum += rule.weight;
        }
        if weight_sum == 0.0 {
            0.0
        } else {
            score / weight_sum
        }
    }

    fn predict_proba_batch(&self, pairs: &[EntityPair]) -> Vec<f64> {
        let mut s = self.scratch.take();
        let out = self.batch_with_scratch(pairs, &mut s);
        self.scratch.put(s);
        out
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use em_data::{Record, Schema};
    use propcheck::prelude::*;
    use std::sync::Arc;

    proptest! {
        // The interned batch path is bitwise-equal to the scalar string
        // path on arbitrary cell content (empty, whitespace, non-ASCII,
        // duplicates), and a second batch through the now-warm pooled
        // scratch changes nothing.
        #[test]
        fn interned_batch_matches_scalar_predict_bitwise(
            cells in propcheck::collection::vec(".{0,12}", 8..16),
            weights in (1u32..5, 1u32..5),
        ) {
            let schema = Arc::new(Schema::new(vec!["name", "info"]));
            let rec =
                |id: u64, a: &str, b: &str| Record::new(id, vec![a.to_string(), b.to_string()]);
            let mut pairs: Vec<EntityPair> = Vec::new();
            for chunk in cells.chunks_exact(4) {
                pairs.push(
                    EntityPair::new(
                        Arc::clone(&schema),
                        rec(pairs.len() as u64 * 2, &chunk[0], &chunk[1]),
                        rec(pairs.len() as u64 * 2 + 1, &chunk[2], &chunk[3]),
                    )
                    .unwrap(),
                );
            }
            // Duplicate pairs and a swapped pair exercise the caches in
            // both directions.
            pairs.push(pairs[0].clone());
            pairs.push(
                EntityPair::new(
                    Arc::clone(&schema),
                    pairs[0].right().clone(),
                    pairs[0].left().clone(),
                )
                .unwrap(),
            );
            let weighted = RuleMatcher::new(
                vec![
                    Rule { attribute: 1, weight: f64::from(weights.0) * 0.7 },
                    Rule { attribute: 0, weight: f64::from(weights.1) },
                    Rule { attribute: 1, weight: 0.3 },
                    Rule { attribute: 5, weight: 2.0 },
                ],
                0.5,
            )
            .unwrap();
            for m in [RuleMatcher::uniform(2, 0.5).unwrap(), weighted] {
                let first = m.predict_proba_batch(&pairs);
                prop_assert_eq!(first.len(), pairs.len());
                for (p, pair) in first.iter().zip(&pairs) {
                    prop_assert_eq!(p.to_bits(), m.predict_proba(pair).to_bits());
                }
                let again = m.predict_proba_batch(&pairs[1..]);
                for (a, b) in again.iter().zip(&first[1..]) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::{Record, Schema};
    use std::sync::Arc;

    fn pair(l: &[&str], r: &[&str]) -> EntityPair {
        let schema = Arc::new(Schema::new(vec!["a", "b"]));
        EntityPair::new(
            schema,
            Record::new(0, l.iter().map(|s| s.to_string()).collect()),
            Record::new(1, r.iter().map(|s| s.to_string()).collect()),
        )
        .unwrap()
    }

    #[test]
    fn identical_pair_scores_one() {
        let m = RuleMatcher::uniform(2, 0.5).unwrap();
        let p = pair(&["sonix tv", "black"], &["sonix tv", "black"]);
        assert!((m.predict_proba(&p) - 1.0).abs() < 1e-9);
        assert!(m.predict(&p));
    }

    #[test]
    fn disjoint_pair_scores_zero() {
        let m = RuleMatcher::uniform(2, 0.5).unwrap();
        let p = pair(&["alpha beta", "x"], &["gamma delta", "y"]);
        assert!(m.predict_proba(&p) < 0.35);
        assert!(!m.predict(&p));
    }

    #[test]
    fn null_attributes_are_skipped() {
        let m = RuleMatcher::uniform(2, 0.5).unwrap();
        let p = pair(&["same words", ""], &["same words", "ignored"]);
        assert!((m.predict_proba(&p) - 1.0).abs() < 1e-9);
        // Fully null pair scores zero rather than NaN.
        let empty = pair(&["", ""], &["", ""]);
        assert_eq!(m.predict_proba(&empty), 0.0);
    }

    #[test]
    fn weights_shift_the_score() {
        let heavy_a = RuleMatcher::new(
            vec![
                Rule {
                    attribute: 0,
                    weight: 10.0,
                },
                Rule {
                    attribute: 1,
                    weight: 1.0,
                },
            ],
            0.5,
        )
        .unwrap();
        let heavy_b = RuleMatcher::new(
            vec![
                Rule {
                    attribute: 0,
                    weight: 1.0,
                },
                Rule {
                    attribute: 1,
                    weight: 10.0,
                },
            ],
            0.5,
        )
        .unwrap();
        let p = pair(&["match match", "zzz"], &["match match", "qqq"]);
        assert!(heavy_a.predict_proba(&p) > heavy_b.predict_proba(&p));
    }

    #[test]
    fn constructor_validation() {
        assert!(RuleMatcher::new(vec![], 0.5).is_err());
        assert!(RuleMatcher::new(
            vec![Rule {
                attribute: 0,
                weight: 0.0
            }],
            0.5
        )
        .is_err());
        assert!(RuleMatcher::new(
            vec![Rule {
                attribute: 0,
                weight: -1.0
            }],
            0.5
        )
        .is_err());
        assert!(RuleMatcher::new(
            vec![Rule {
                attribute: 0,
                weight: 1.0
            }],
            1.5
        )
        .is_err());
        assert!(RuleMatcher::uniform(0, 0.5).is_err());
    }

    #[test]
    fn out_of_range_attribute_is_ignored() {
        let m = RuleMatcher::new(
            vec![
                Rule {
                    attribute: 0,
                    weight: 1.0,
                },
                Rule {
                    attribute: 9,
                    weight: 1.0,
                },
            ],
            0.5,
        )
        .unwrap();
        let p = pair(&["x y", "z"], &["x y", "z"]);
        assert!((m.predict_proba(&p) - 1.0).abs() < 1e-9);
    }
}
