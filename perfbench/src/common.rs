//! Pieces shared by the workloads: the counting matcher wrapper, the
//! explanation invariants every workload checks, and small helpers.

use crew_core::ClusterExplanation;
use em_data::EntityPair;
use em_matchers::Matcher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A matcher that forwards to another and counts every pair that reaches
/// it — the exact query cost of an explanation.
pub struct CountingMatcher {
    inner: Arc<dyn Matcher>,
    pairs: AtomicU64,
}

impl CountingMatcher {
    pub fn new(inner: Arc<dyn Matcher>) -> Self {
        CountingMatcher {
            inner,
            pairs: AtomicU64::new(0),
        }
    }

    /// Pairs queried so far.
    pub fn pairs(&self) -> u64 {
        // A statistic: it publishes no other data.
        self.pairs.load(Ordering::Relaxed)
    }
}

impl Matcher for CountingMatcher {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn predict_proba(&self, pair: &EntityPair) -> f64 {
        self.pairs.fetch_add(1, Ordering::Relaxed);
        self.inner.predict_proba(pair)
    }

    fn predict_proba_batch(&self, pairs: &[EntityPair]) -> Vec<f64> {
        self.pairs.fetch_add(pairs.len() as u64, Ordering::Relaxed);
        self.inner.predict_proba_batch(pairs)
    }

    fn threshold(&self) -> f64 {
        self.inner.threshold()
    }
}

/// Check the invariants of one cluster explanation of a pair with
/// `n_words` word units; `Err` names the first one broken.
pub fn check_explanation(
    ce: &ClusterExplanation,
    n_words: usize,
    max_clusters: usize,
) -> Result<(), String> {
    let mut seen = vec![false; n_words];
    for cluster in &ce.clusters {
        if cluster.member_indices.is_empty() {
            return Err("empty cluster".into());
        }
        for &i in &cluster.member_indices {
            match seen.get_mut(i) {
                Some(s) if !*s => *s = true,
                Some(_) => return Err(format!("word {i} in two clusters")),
                None => return Err(format!("word {i} outside the pair ({n_words} words)")),
            }
        }
        if !cluster.weight.is_finite() {
            return Err("non-finite cluster weight".into());
        }
    }
    if let Some(i) = seen.iter().position(|s| !s) {
        return Err(format!("word {i} in no cluster"));
    }
    if ce.word_level.weights.len() != n_words {
        return Err("word weight count differs from the word count".into());
    }
    if ce.word_level.weights.iter().any(|w| !w.is_finite()) {
        return Err("non-finite word weight".into());
    }
    let k_max = max_clusters.min(n_words).max(1);
    if ce.selected_k < 1 || ce.selected_k > k_max || ce.selected_k != ce.clusters.len() {
        return Err(format!(
            "selected_k {} outside 1..={k_max} or unequal to {} clusters",
            ce.selected_k,
            ce.clusters.len()
        ));
    }
    Ok(())
}

/// Derive an independent 64-bit seed for one input stream from the
/// workload seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut state = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    em_rngs::splitmix64(&mut state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_core::{WordCluster, WordExplanation};

    fn explanation(clusters: Vec<Vec<usize>>, n: usize) -> ClusterExplanation {
        ClusterExplanation {
            word_level: WordExplanation {
                explainer: "crew".into(),
                words: Vec::new(),
                weights: vec![0.1; n],
                base_score: 0.5,
                intercept: 0.0,
                surrogate_r2: 1.0,
            },
            selected_k: clusters.len(),
            clusters: clusters
                .into_iter()
                .map(|member_indices| WordCluster {
                    member_indices,
                    weight: 0.2,
                    coherence: 1.0,
                })
                .collect(),
            group_r2: 1.0,
            silhouette: 0.0,
        }
    }

    #[test]
    fn partition_check() {
        assert!(check_explanation(&explanation(vec![vec![0, 2], vec![1]], 3), 3, 10).is_ok());
        assert!(check_explanation(&explanation(vec![vec![0, 1], vec![1, 2]], 3), 3, 10).is_err());
        assert!(check_explanation(&explanation(vec![vec![0], vec![1]], 3), 3, 10).is_err());
        assert!(check_explanation(&explanation(vec![vec![0, 3]], 3), 3, 10).is_err());
        assert!(check_explanation(&explanation(vec![vec![0], vec![1], vec![2]], 3), 3, 2).is_err());
        let mut nan = explanation(vec![vec![0, 1]], 2);
        nan.word_level.weights[1] = f64::NAN;
        assert!(check_explanation(&nan, 2, 10).is_err());
    }

    #[test]
    fn derived_seeds_differ() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(5, 3), derive_seed(5, 3));
    }
}
