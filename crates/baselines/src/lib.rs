//! # em-baselines
//!
//! From-scratch Rust reimplementations of the five explanation baselines
//! the CREW paper compares against:
//!
//! - [`Lime`] — schema-agnostic LIME-for-text;
//! - [`Mojito`] — LIME with EM-aware DROP/COPY perturbations;
//! - [`Landmark`] — per-record explanations against the other record as a
//!   fixed landmark, with injection augmentation for non-matches;
//! - [`Lemon`] — dual explanations + attribution potential;
//! - [`Certa`] — counterfactual attribute saliency from record
//!   substitutions;
//! - [`Wym`] *(extension)* — decision-unit explanations in the style of the
//!   authors' WYM system (cross-record term pairs as features).
//!
//! All share the `crew-core` perturbation/surrogate substrate and implement
//! [`crew_core::Explainer`], so score differences in the evaluation
//! reflect the algorithms rather than implementation plumbing.

// Index-based loops are kept where they mirror the textbook formulation
// of the numeric kernels; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
pub mod certa;
pub mod landmark;
pub mod lemon;
pub mod lime;
pub mod mojito;
pub mod wym;

pub use certa::{Certa, CertaOptions};
pub use landmark::{Landmark, LandmarkOptions};
pub use lemon::{Lemon, LemonOptions};
pub use lime::{Lime, LimeOptions};
pub use mojito::{Mojito, MojitoMode, MojitoOptions};
pub use wym::{DecisionUnit, Wym, WymOptions};

#[cfg(test)]
pub(crate) mod testutil {
    use em_data::{EntityPair, Record, Schema};
    use em_matchers::Matcher;
    use std::sync::Arc;

    /// Matcher with a planted ground truth: 0.9 iff "magic" appears on both
    /// sides, else 0.1.
    pub struct MagicMatcher;

    impl Matcher for MagicMatcher {
        fn name(&self) -> &str {
            "magic"
        }
        fn predict_proba(&self, pair: &EntityPair) -> f64 {
            let l = em_text::tokenize(&pair.left().full_text());
            let r = em_text::tokenize(&pair.right().full_text());
            if l.iter().any(|t| t == "magic") && r.iter().any(|t| t == "magic") {
                0.9
            } else {
                0.1
            }
        }
    }

    pub fn magic_matcher() -> MagicMatcher {
        MagicMatcher
    }

    /// Answers NaN once the left record loses a word, 0.5 otherwise.
    pub struct NanMatcher;

    impl Matcher for NanMatcher {
        fn name(&self) -> &str {
            "nan"
        }
        fn predict_proba(&self, pair: &EntityPair) -> f64 {
            if em_text::token_count(&pair.left().full_text()) < 3 {
                f64::NAN
            } else {
                0.5
            }
        }
    }

    /// Assert that an explainer surfaces [`NanMatcher`]'s NaN as the
    /// typed error.
    pub fn assert_nan_is_typed_error<T: std::fmt::Debug>(
        result: Result<T, crew_core::ExplainError>,
    ) {
        let err = result.unwrap_err();
        assert!(
            matches!(err, crew_core::ExplainError::NonFiniteModelOutput { .. }),
            "{err:?}"
        );
    }

    /// One-attribute pair with "magic" on both sides plus filler:
    /// words are [magic alpha beta | magic gamma delta].
    pub fn magic_pair() -> EntityPair {
        let schema = Arc::new(Schema::new(vec!["t"]));
        EntityPair::new(
            schema,
            Record::new(0, vec!["magic alpha beta".into()]),
            Record::new(1, vec!["magic gamma delta".into()]),
        )
        .unwrap()
    }
}

#[cfg(test)]
mod contract_tests {
    //! Every baseline must satisfy the Explainer contract: weights aligned
    //! with TokenizedPair order, finite values, deterministic output.
    use super::testutil::{magic_matcher, magic_pair};
    use crew_core::Explainer;
    use em_data::TokenizedPair;

    fn all_explainers() -> Vec<Box<dyn Explainer>> {
        vec![
            Box::new(super::Lime::default()),
            Box::new(super::Mojito::default()),
            Box::new(super::Landmark::default()),
            Box::new(super::Lemon::default()),
            Box::new(
                super::Certa::new(
                    vec![
                        em_data::Record::new(900, vec!["spare text".into()]),
                        em_data::Record::new(901, vec!["donor words".into()]),
                    ],
                    super::CertaOptions::default(),
                )
                .unwrap(),
            ),
        ]
    }

    #[test]
    fn weights_align_with_tokenized_pair() {
        let pair = magic_pair();
        let n = TokenizedPair::new(pair.clone()).len();
        for explainer in all_explainers() {
            let expl = explainer.explain(&magic_matcher(), &pair).unwrap();
            assert_eq!(expl.words.len(), n, "{}", explainer.name());
            assert_eq!(expl.weights.len(), n, "{}", explainer.name());
            assert!(
                expl.weights.iter().all(|w| w.is_finite()),
                "{} produced non-finite weights",
                explainer.name()
            );
            assert!(
                (0.0..=1.0).contains(&expl.base_score),
                "{}",
                explainer.name()
            );
        }
    }

    #[test]
    fn explainers_are_deterministic() {
        let pair = magic_pair();
        for explainer in all_explainers() {
            let a = explainer.explain(&magic_matcher(), &pair).unwrap();
            let b = explainer.explain(&magic_matcher(), &pair).unwrap();
            assert_eq!(a.weights, b.weights, "{}", explainer.name());
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<String> = all_explainers()
            .iter()
            .map(|e| e.name().to_string())
            .collect();
        assert_eq!(names.len(), 5);
    }
}
