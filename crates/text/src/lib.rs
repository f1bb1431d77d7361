//! # em-text
//!
//! Tokenization, vocabulary interning, string/set similarity measures and
//! TF-IDF vectorisation — the textual primitives shared by every layer of
//! the CREW reproduction (matchers, perturbation engine, embeddings,
//! synthetic data corruption).
//!
//! ```
//! use em_text::{tokenize, jaccard, jaro_winkler};
//! let a = tokenize("Sonix WH-900 Headphones");
//! let b = tokenize("sonix wh900 headphones");
//! assert!(jaccard(&a, &b) > 0.3);
//! assert!(jaro_winkler("panasonic", "panasonik") > 0.9);
//! ```

pub mod idhash;
pub mod intern;
pub mod normalize;
pub mod similarity;
pub mod tfidf;
pub mod tokenize;

pub use idhash::{IdHasher, IdMap};
pub use intern::{JaroWinklerCache, TokenArena};
pub use normalize::{
    canonical_number, canonical_unit, normalize_tokens, segment_letter_digit, tokenize_normalized,
};
pub use similarity::{
    dice, jaccard, jaccard_sorted_ids, jaro, jaro_winkler, lcs_len, levenshtein,
    levenshtein_similarity, monge_elkan, monge_elkan_sym, numeric_or_string_similarity,
    overlap_coefficient, overlap_sorted_ids, qgram_jaccard,
};
pub use tfidf::{sparse_dot, SparseVec, TfIdf};
pub use tokenize::{qgrams, token_count, tokenize, tokenize_spans, Token, Vocabulary};

#[cfg(test)]
mod proptests {
    use super::*;
    use propcheck::prelude::*;

    fn word() -> impl Strategy<Value = String> {
        "[a-z0-9]{0,12}"
    }

    /// Strings of arbitrary Unicode scalar values (surrogates skipped),
    /// up to 150 chars: past the 64- and 128-char band boundaries.
    fn unicode_text() -> impl Strategy<Value = String> {
        propcheck::collection::vec(0u32..0x11_0000, 0..150).prop_map(|cps| {
            cps.into_iter()
                .filter_map(char::from_u32)
                .collect::<String>()
        })
    }

    proptest! {
        #[test]
        fn levenshtein_is_a_metric(a in word(), b in word(), c in word()) {
            let ab = levenshtein(&a, &b);
            let ba = levenshtein(&b, &a);
            prop_assert_eq!(ab, ba); // symmetry
            prop_assert_eq!(levenshtein(&a, &a), 0); // identity
            // triangle inequality
            prop_assert!(levenshtein(&a, &c) <= ab + levenshtein(&b, &c));
        }

        #[test]
        fn myers_levenshtein_matches_dp_on_small_alphabets(
            a in "[abé中 ]{0,140}",
            b in "[abé中 ]{0,140}",
        ) {
            prop_assert_eq!(levenshtein(&a, &b), similarity::levenshtein_dp(&a, &b));
        }

        #[test]
        fn myers_levenshtein_matches_dp_on_arbitrary_unicode(
            a in unicode_text(),
            b in unicode_text(),
            shared in "[xyΩ]{0,70}",
        ) {
            // A shared prefix and suffix give long diagonal runs across
            // band boundaries, which random code points alone never do.
            let (a, b) = (format!("{shared}{a}{shared}"), format!("{shared}{b}"));
            prop_assert_eq!(levenshtein(&a, &b), similarity::levenshtein_dp(&a, &b));
            prop_assert_eq!(levenshtein(&b, &a), similarity::levenshtein_dp(&b, &a));
        }

        #[test]
        fn jaro_winkler_bounded_and_reflexive(a in word(), b in word()) {
            let s = jaro_winkler(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!((jaro_winkler(&a, &a) - 1.0).abs() < 1e-12);
        }

        #[test]
        fn jaccard_bounded_and_symmetric(
            a in propcheck::collection::vec("[a-c]{1,3}", 0..8),
            b in propcheck::collection::vec("[a-c]{1,3}", 0..8),
        ) {
            let ab = jaccard(&a, &b);
            let ba = jaccard(&b, &a);
            prop_assert!((ab - ba).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&ab));
        }

        #[test]
        fn tokenize_output_is_lowercase_alphanumeric(s in ".{0,40}") {
            for tok in tokenize(&s) {
                prop_assert!(!tok.is_empty());
                prop_assert!(tok.chars().all(|c| c.is_alphanumeric()));
                // Lowercasing is idempotent (some uppercase code points like
                // 𝘼 have no lowercase mapping and stay as-is).
                prop_assert_eq!(tok.to_lowercase(), tok);
            }
        }

        #[test]
        fn tokenize_spans_cover_source_tokens(s in "[ a-zA-Z0-9,.-]{0,40}") {
            for t in tokenize_spans(&s) {
                let src = &s[t.start..t.end];
                prop_assert_eq!(src.to_lowercase(), t.text);
            }
        }

        #[test]
        fn arena_tokens_match_string_tokenizer(
            cells in propcheck::collection::vec(".{0,24}", 0..6),
        ) {
            let mut arena = TokenArena::new();
            for cell in &cells {
                let id = arena.intern_cell(cell);
                let via_arena: Vec<String> = arena
                    .tokens(id)
                    .iter()
                    .map(|&t| arena.token_text(t).to_string())
                    .collect();
                prop_assert_eq!(via_arena, tokenize(cell));
            }
        }

        #[test]
        fn sorted_id_kernels_match_hashset_kernels(
            a in propcheck::collection::vec(0u32..16, 0..12),
            b in propcheck::collection::vec(0u32..16, 0..12),
        ) {
            let mut sa = a.clone();
            sa.sort_unstable();
            sa.dedup();
            let mut sb = b.clone();
            sb.sort_unstable();
            sb.dedup();
            prop_assert_eq!(
                jaccard_sorted_ids(&sa, &sb).to_bits(),
                jaccard(&sa, &sb).to_bits()
            );
            prop_assert_eq!(
                overlap_sorted_ids(&sa, &sb).to_bits(),
                overlap_coefficient(&sa, &sb).to_bits()
            );
        }

        #[test]
        fn tfidf_cosine_bounded(
            a in propcheck::collection::vec("[a-d]{1,2}", 1..6),
            b in propcheck::collection::vec("[a-d]{1,2}", 1..6),
        ) {
            let docs = [a.clone(), b.clone()];
            let m = TfIdf::fit(docs.iter().map(|d| d.as_slice()));
            let c = m.cosine(&a, &b);
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&c));
        }
    }

    /// Band-boundary lengths (63/64/65, 128/129, >128), empty and equal
    /// strings, and non-ASCII text, each against the DP oracle.
    #[test]
    fn myers_levenshtein_matches_dp_at_band_boundaries() {
        let base: String = "the quick brown fox jumps over the lazy dog; ÆØÅ 中文 𝘼 "
            .chars()
            .cycle()
            .take(300)
            .collect();
        for len in [0, 1, 2, 63, 64, 65, 127, 128, 129, 200, 300] {
            let a: String = base.chars().take(len).collect();
            let mut variants = vec![
                String::new(),
                a.clone(),
                a.chars().rev().collect::<String>(),
                a.replace('o', "0"),
                a.replace(' ', ""),
                format!("é{a}"),
                a.chars().skip(1).collect(),
            ];
            variants.push(base.chars().skip(7).take(len).collect());
            for b in &variants {
                assert_eq!(
                    levenshtein(&a, b),
                    similarity::levenshtein_dp(&a, b),
                    "len {len}: {a:?} vs {b:?}"
                );
                assert_eq!(levenshtein(b, &a), similarity::levenshtein_dp(b, &a));
            }
            assert_eq!(levenshtein(&a, &a), 0);
            assert_eq!(levenshtein(&a, ""), len);
        }
    }

    /// Ported from the retired proptest regression file
    /// (`proptest-regressions/lib.txt`), which shrank to `s = "𝘼"`: an
    /// uppercase code point with no lowercase mapping must pass through
    /// tokenization unchanged, still alphanumeric, and idempotent under
    /// further lowercasing.
    #[test]
    fn tokenize_survives_unmappable_uppercase() {
        assert_eq!(tokenize("𝘼"), vec!["𝘼".to_string()]);
        for s in ["𝘼", "a𝘼b", "𝘼 𝘼", "x.𝘼.y"] {
            for tok in tokenize(s) {
                assert!(!tok.is_empty());
                assert!(tok.chars().all(|c| c.is_alphanumeric()), "{s:?} -> {tok:?}");
                assert_eq!(tok.to_lowercase(), tok, "{s:?} -> {tok:?}");
            }
        }
    }
}
