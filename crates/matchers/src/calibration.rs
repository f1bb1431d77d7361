//! Probability calibration: Platt scaling (a 1-D logistic regression on a
//! model's raw scores) fitted on validation data. Matters for the
//! explainer stack because perturbation surrogates regress on
//! probabilities — a miscalibrated, saturated model compresses the signal.

use crate::matcher::{best_f1_threshold, Matcher};
use em_data::{Dataset, EntityPair, TokenizedPair};
use em_linalg::stats::sigmoid;

/// A matcher wrapped with Platt scaling: `p' = σ(a·logit(p) + b)`.
pub struct CalibratedMatcher<M: Matcher> {
    inner: M,
    a: f64,
    b: f64,
    threshold: f64,
    name: String,
}

/// Numerically safe logit.
fn logit(p: f64) -> f64 {
    let p = p.clamp(1e-7, 1.0 - 1e-7);
    (p / (1.0 - p)).ln()
}

impl<M: Matcher> CalibratedMatcher<M> {
    /// Fit Platt scaling on a labelled calibration set by gradient descent
    /// on the binary cross-entropy (with the standard Platt target
    /// smoothing to avoid overconfident extremes).
    ///
    /// # Errors
    /// Returns [`crate::MatcherError::EmptyTrainingSet`] for an empty
    /// calibration set.
    pub fn fit(inner: M, calibration: &Dataset) -> Result<Self, crate::MatcherError> {
        if calibration.is_empty() {
            return Err(crate::MatcherError::EmptyTrainingSet);
        }
        let pairs: Vec<EntityPair> = calibration
            .examples()
            .iter()
            .map(|ex| ex.pair.clone())
            .collect();
        let scores: Vec<f64> = inner
            .predict_proba_batch(&pairs)
            .into_iter()
            .map(logit)
            .collect();
        let n_pos = calibration.match_count() as f64;
        let n_neg = calibration.len() as f64 - n_pos;
        // Platt's smoothed targets.
        let t_pos = (n_pos + 1.0) / (n_pos + 2.0);
        let t_neg = 1.0 / (n_neg + 2.0);
        let targets: Vec<f64> = calibration
            .examples()
            .iter()
            .map(|ex| if ex.label.is_match() { t_pos } else { t_neg })
            .collect();

        let mut a = 1.0;
        let mut b = 0.0;
        let lr = 0.05;
        for _ in 0..500 {
            let mut ga = 0.0;
            let mut gb = 0.0;
            for (&s, &t) in scores.iter().zip(&targets) {
                let p = sigmoid(a * s + b);
                let err = p - t;
                ga += err * s;
                gb += err;
            }
            let scale = 1.0 / scores.len() as f64;
            a -= lr * ga * scale;
            b -= lr * gb * scale;
        }

        // Re-derive the decision threshold on calibrated scores.
        let cal_scores: Vec<f64> = scores.iter().map(|&s| sigmoid(a * s + b)).collect();
        let labels: Vec<bool> = calibration
            .examples()
            .iter()
            .map(|ex| ex.label.is_match())
            .collect();
        let threshold = best_f1_threshold(&cal_scores, &labels);
        let name = format!("calibrated({})", inner.name());
        Ok(CalibratedMatcher {
            inner,
            a,
            b,
            threshold,
            name,
        })
    }

    /// Platt-scale one raw probability of the inner model.
    fn scale(&self, p: f64) -> f64 {
        sigmoid(self.a * logit(p) + self.b)
    }

    /// Fitted Platt parameters `(a, b)`.
    pub fn parameters(&self) -> (f64, f64) {
        (self.a, self.b)
    }

    /// Access the wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: Matcher> Matcher for CalibratedMatcher<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict_proba(&self, pair: &EntityPair) -> f64 {
        self.scale(self.inner.predict_proba(pair))
    }

    fn predict_proba_batch(&self, pairs: &[EntityPair]) -> Vec<f64> {
        let raw = self.inner.predict_proba_batch(pairs);
        raw.into_iter().map(|p| self.scale(p)).collect()
    }

    fn predict_proba_masked(&self, tokenized: &TokenizedPair, masks: &[&[bool]]) -> Vec<f64> {
        let raw = self.inner.predict_proba_masked(tokenized, masks);
        raw.into_iter().map(|p| self.scale(p)).collect()
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }
}

/// Expected calibration error over `bins` equal-width probability bins:
/// the weighted mean |confidence − accuracy| gap. The standard scalar
/// summary of a reliability diagram.
pub fn expected_calibration_error(
    matcher: &dyn Matcher,
    data: &Dataset,
    bins: usize,
) -> Result<f64, crate::MatcherError> {
    if data.is_empty() || bins == 0 {
        return Err(crate::MatcherError::EmptyTrainingSet);
    }
    let mut bin_conf = vec![0.0; bins];
    let mut bin_acc = vec![0.0; bins];
    let mut bin_n = vec![0usize; bins];
    let pairs: Vec<EntityPair> = data.examples().iter().map(|ex| ex.pair.clone()).collect();
    let probs = matcher.predict_proba_batch(&pairs);
    for (ex, &p) in data.examples().iter().zip(&probs) {
        let p = p.clamp(0.0, 1.0);
        let b = ((p * bins as f64) as usize).min(bins - 1);
        bin_conf[b] += p;
        bin_acc[b] += ex.label.as_f64();
        bin_n[b] += 1;
    }
    let n = data.len() as f64;
    let mut ece = 0.0;
    for b in 0..bins {
        if bin_n[b] == 0 {
            continue;
        }
        let conf = bin_conf[b] / bin_n[b] as f64;
        let acc = bin_acc[b] / bin_n[b] as f64;
        ece += (bin_n[b] as f64 / n) * (conf - acc).abs();
    }
    Ok(ece)
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::{Label, LabeledPair, Record, Schema};
    use std::sync::Arc;

    /// An intentionally miscalibrated model: overconfident mapping of
    /// token-overlap evidence through a squashed range [0.45, 0.55].
    struct Squashed;
    impl Matcher for Squashed {
        fn name(&self) -> &str {
            "squashed"
        }
        fn predict_proba(&self, pair: &EntityPair) -> f64 {
            let j = em_text::jaccard(
                &em_text::tokenize(&pair.left().full_text()),
                &em_text::tokenize(&pair.right().full_text()),
            );
            0.45 + 0.1 * j
        }
    }

    fn dataset(n: usize) -> Dataset {
        let schema = Arc::new(Schema::new(vec!["t"]));
        let mut examples = Vec::new();
        for i in 0..n {
            let is_match = i % 2 == 0;
            let left = format!("item {} alpha beta gamma", i / 2);
            let right = if is_match {
                format!("item {} alpha beta", i / 2)
            } else {
                format!("thing {} delta epsilon zeta", 1000 + i)
            };
            let pair = EntityPair::new(
                Arc::clone(&schema),
                Record::new(i as u64 * 2, vec![left]),
                Record::new(i as u64 * 2 + 1, vec![right]),
            )
            .unwrap();
            examples.push(LabeledPair {
                pair,
                label: Label::from_bool(is_match),
            });
        }
        Dataset::new("cal", schema, examples).unwrap()
    }

    #[test]
    fn calibration_reduces_ece() {
        let data = dataset(80);
        let split = data.split(0.5, 0.25, 1).unwrap();
        let raw_ece = expected_calibration_error(&Squashed, &split.test, 10).unwrap();
        let calibrated = CalibratedMatcher::fit(Squashed, &split.train).unwrap();
        let cal_ece = expected_calibration_error(&calibrated, &split.test, 10).unwrap();
        assert!(
            cal_ece < raw_ece,
            "calibration should reduce ECE: raw {raw_ece} vs calibrated {cal_ece}"
        );
    }

    #[test]
    fn calibration_preserves_ranking() {
        let data = dataset(40);
        let calibrated = CalibratedMatcher::fit(Squashed, &data).unwrap();
        let (a, _) = calibrated.parameters();
        assert!(a > 0.0, "Platt slope must stay positive, got {a}");
        // Monotone: higher raw score → higher calibrated score.
        let ex = data.examples();
        for w in ex.windows(2) {
            let r0 = Squashed.predict_proba(&w[0].pair);
            let r1 = Squashed.predict_proba(&w[1].pair);
            let c0 = calibrated.predict_proba(&w[0].pair);
            let c1 = calibrated.predict_proba(&w[1].pair);
            assert_eq!(r0 > r1, c0 > c1, "ranking changed");
        }
    }

    #[test]
    fn calibrated_decisions_remain_accurate() {
        let data = dataset(80);
        let split = data.split(0.5, 0.25, 2).unwrap();
        let calibrated = CalibratedMatcher::fit(Squashed, &split.train).unwrap();
        let report = crate::matcher::evaluate(&calibrated, &split.test);
        assert!(
            report.f1 > 0.9,
            "calibrated matcher lost accuracy: {report:?}"
        );
        assert_eq!(calibrated.name(), "calibrated(squashed)");
    }

    #[test]
    fn empty_calibration_set_is_error() {
        let data = dataset(4);
        let empty = data.sample(0, 0);
        assert!(CalibratedMatcher::fit(Squashed, &empty).is_err());
        assert!(expected_calibration_error(&Squashed, &empty, 10).is_err());
        assert!(expected_calibration_error(&Squashed, &data, 0).is_err());
    }

    #[test]
    fn logit_is_safe_at_extremes() {
        assert!(logit(0.0).is_finite());
        assert!(logit(1.0).is_finite());
        assert!((logit(0.5)).abs() < 1e-12);
    }
}
