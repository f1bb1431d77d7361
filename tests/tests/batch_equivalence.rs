//! Property tests for the batched perturbation engine.
//!
//! Two contracts keep the engine safe to use everywhere:
//!
//! 1. **Batch ≡ scalar, bitwise.** `Matcher::predict_proba_batch` must
//!    return exactly what a scalar `predict_proba` loop returns, for every
//!    matcher in the zoo — including the logistic and MLP models that
//!    override the default with cached-feature batch paths.
//! 2. **Masked ≡ rebuilt text, bitwise.** `Matcher::predict_proba_masked`
//!    (the engine's per-block call, answered from kept-word sets by the
//!    built-in matchers and forwarded by the wrappers) must return what
//!    batch-predicting the rebuilt pairs returns — on real pairs and on
//!    crafted ones with empty, fully-dropped, non-ASCII (including
//!    "İstanbul") and wider-than-64-word cells.
//! 3. **Scheduling independence.** Queries fanned out over a shared worker
//!    pool land in per-index slots, so the result vector is bitwise
//!    identical to the sequential loop at any worker count.

use crew_core::{query_masks, sample_masks, PerturbOptions};
use em_data::{Dataset, EntityPair, Record, TokenizedPair};
use em_matchers::{
    AttentionMatcher, AttentionOptions, CalibratedMatcher, EnsembleMatcher, LogisticMatcher,
    Matcher, MlpMatcher, RuleMatcher, TrainOptions,
};
use em_pool::WorkerPool;
use em_rngs::rngs::StdRng;
use em_rngs::{Rng, SeedableRng};
use em_synth::{generate, Family, GeneratorConfig};
use propcheck::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

struct Zoo {
    matchers: Vec<(&'static str, Arc<dyn Matcher>)>,
    test_pairs: Vec<EntityPair>,
    /// Pairs over the zoo's schema with hand-made hard cells.
    crafted_pairs: Vec<EntityPair>,
    validation: Dataset,
}

/// Pairs whose cells stress the masked path: empty cells, non-ASCII
/// words, words whose token re-tokenizes differently ("İstanbul" becomes
/// "i̇stanbul", which splits at its combining dot), punctuation, and
/// cells of more than 64 words (wider than the resolver's memo key).
fn crafted_pairs(template: &EntityPair) -> Vec<EntityPair> {
    let long: String = (0..75)
        .map(|i| format!("w{}", i % 31))
        .collect::<Vec<_>>()
        .join(" ");
    let cells = [
        "İstanbul Kebap Haus",
        "",
        "café 12 Straße, ΟΔΟΣ 5",
        long.as_str(),
        "the-grill & bar (2nd st.)",
        "日本語 テキスト 7",
        "istanbul kebap",
    ];
    let n = template.schema().len();
    (0..4)
        .map(|k| {
            let values = |offset: usize| -> Vec<String> {
                (0..n)
                    .map(|a| cells[(a * 3 + k + offset) % cells.len()].to_string())
                    .collect()
            };
            EntityPair::new(
                template.schema_arc(),
                Record::new(2 * k as u64, values(0)),
                Record::new(2 * k as u64 + 1, values(k + 1)),
            )
            .expect("crafted pair")
        })
        .collect()
}

/// Train the full matcher zoo once; every property case reuses it.
fn zoo() -> &'static Zoo {
    static ZOO: OnceLock<Zoo> = OnceLock::new();
    ZOO.get_or_init(|| {
        let dataset = generate(
            Family::Restaurants,
            GeneratorConfig {
                entities: 60,
                pairs: 160,
                match_rate: 0.25,
                hard_negative_rate: 0.5,
                seed: 23,
            },
        )
        .expect("synth dataset");
        let split = dataset.split(0.7, 0.15, 23).expect("split");
        let n_attrs = split.train.examples()[0].pair.schema().len();
        let logistic: Arc<dyn Matcher> = Arc::new(
            LogisticMatcher::fit(&split.train, &split.validation, TrainOptions::default())
                .expect("logistic"),
        );
        let mlp: Arc<dyn Matcher> = Arc::new(
            MlpMatcher::fit(&split.train, &split.validation, TrainOptions::default()).expect("mlp"),
        );
        let attention: Arc<dyn Matcher> = Arc::new(
            AttentionMatcher::fit(&split.train, &split.validation, AttentionOptions::default())
                .expect("attention"),
        );
        let rules: Arc<dyn Matcher> = Arc::new(RuleMatcher::uniform(n_attrs, 0.5).expect("rules"));
        let calibrated: Arc<dyn Matcher> = Arc::new(
            CalibratedMatcher::fit(
                LogisticMatcher::fit(&split.train, &split.validation, TrainOptions::default())
                    .expect("logistic for calibration"),
                &split.validation,
            )
            .expect("platt calibration"),
        );
        let ensemble: Arc<dyn Matcher> = Arc::new(
            EnsembleMatcher::uniform(vec![
                Arc::clone(&logistic),
                Arc::clone(&mlp),
                Arc::clone(&rules),
            ])
            .expect("ensemble"),
        );
        let test_pairs: Vec<EntityPair> = split
            .test
            .examples()
            .iter()
            .map(|ex| ex.pair.clone())
            .filter(|p| !TokenizedPair::new(p.clone()).is_empty())
            .collect();
        assert!(!test_pairs.is_empty(), "need non-empty test pairs");
        let crafted_pairs = crafted_pairs(&test_pairs[0]);
        Zoo {
            matchers: vec![
                ("logistic", logistic),
                ("mlp", mlp),
                ("attention", attention),
                ("rules", rules),
                ("calibrated", calibrated),
                ("ensemble", ensemble),
            ],
            test_pairs,
            crafted_pairs,
            validation: split.validation,
        }
    })
}

/// Random drop masks over `n` words: all-kept, all-dropped, sparse and
/// dense ones, single-word drops (the last word sits past the 64th of a
/// wide cell), one with a whole cell dropped, and a duplicate.
fn hard_masks(tp: &TokenizedPair, rng: &mut StdRng, count: usize) -> Vec<Vec<bool>> {
    let n = tp.len();
    let mut masks = vec![vec![true; n], vec![false; n]];
    for _ in 0..count {
        let keep = [0.1, 0.5, 0.9][rng.gen_range(0..3usize)];
        masks.push((0..n).map(|_| rng.gen_bool(keep)).collect());
    }
    for drop in [rng.gen_range(0..n), n - 1] {
        let mut mask = vec![true; n];
        mask[drop] = false;
        masks.push(mask);
    }
    let cells = tp.cells();
    let (_, _, dropped) = &cells[rng.gen_range(0..cells.len())];
    let mut cell_dropped = vec![true; n];
    for i in dropped.clone() {
        cell_dropped[i] = false;
    }
    masks.push(cell_dropped);
    masks.push(masks[2].clone());
    masks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Batch prediction is bitwise-identical to the scalar loop for every
    // matcher in the zoo, over random batches of masked real pairs
    // (duplicates included — the engine dedups upstream, the matcher
    // contract must not rely on it).
    #[test]
    fn batch_prediction_is_bitwise_scalar_for_every_matcher(
        seed in 0u64..500,
        count in 1usize..8,
    ) {
        let zoo = zoo();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs: Vec<EntityPair> = Vec::with_capacity(count + 1);
        for _ in 0..count {
            let pair = &zoo.test_pairs[rng.gen_range(0..zoo.test_pairs.len())];
            let tp = TokenizedPair::new(pair.clone());
            let mask: Vec<bool> = (0..tp.len()).map(|_| rng.gen_bool(0.7)).collect();
            pairs.push(tp.apply_mask(&mask));
        }
        // Force a duplicate into every batch.
        pairs.push(pairs[0].clone());
        for (name, matcher) in &zoo.matchers {
            let batch = matcher.predict_proba_batch(&pairs);
            prop_assert_eq!(batch.len(), pairs.len());
            for (b, p) in batch.iter().zip(&pairs) {
                let s = matcher.predict_proba(p);
                prop_assert!(
                    b.to_bits() == s.to_bits(),
                    "matcher {} diverges: batch {} vs scalar {}",
                    name, b, s
                );
            }
        }
    }

    // The masked path is bitwise the rebuilt-text path, and both are
    // bitwise the scalar loop, for every matcher in the zoo (the four
    // built-in matchers and the calibration and ensemble wrappers).
    #[test]
    fn masked_prediction_is_bitwise_rebuilt_text_for_every_matcher(
        seed in 0u64..500,
        crafted in 0usize..2,
    ) {
        let zoo = zoo();
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs = if crafted == 1 { &zoo.crafted_pairs } else { &zoo.test_pairs };
        let tp = TokenizedPair::new(pairs[rng.gen_range(0..pairs.len())].clone());
        let masks = hard_masks(&tp, &mut rng, 6);
        let mask_refs: Vec<&[bool]> = masks.iter().map(Vec::as_slice).collect();
        let rebuilt: Vec<EntityPair> = masks.iter().map(|m| tp.apply_mask(m)).collect();
        for (name, matcher) in &zoo.matchers {
            let masked = matcher.predict_proba_masked(&tp, &mask_refs);
            let batch = matcher.predict_proba_batch(&rebuilt);
            prop_assert_eq!(masked.len(), masks.len());
            for (i, (m, b)) in masked.iter().zip(&batch).enumerate() {
                let s = matcher.predict_proba(&rebuilt[i]);
                prop_assert!(
                    m.to_bits() == b.to_bits() && b.to_bits() == s.to_bits(),
                    "matcher {} mask {} diverges: masked {} batch {} scalar {}",
                    name, i, m, b, s
                );
            }
        }
    }

    // `query_masks` returns the same bits whatever thread budget it is
    // given (1 = inline loop, >1 = shared-pool fan-out), for every
    // matcher on its masked path, and they are the scalar loop's.
    #[test]
    fn query_masks_is_thread_count_invariant(seed in 0u64..200) {
        let zoo = zoo();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7ead);
        let pair = if seed % 4 == 0 {
            &zoo.crafted_pairs[rng.gen_range(0..zoo.crafted_pairs.len())]
        } else {
            &zoo.test_pairs[rng.gen_range(0..zoo.test_pairs.len())]
        };
        let tp = TokenizedPair::new(pair.clone());
        let masks = sample_masks(
            &tp,
            &PerturbOptions { samples: 96, seed, threads: 1, ..Default::default() },
        ).expect("masks");
        for (name, matcher) in &zoo.matchers {
            let want: Vec<u64> = masks
                .iter()
                .map(|m| matcher.predict_proba(&tp.apply_mask(m)).to_bits())
                .collect();
            for threads in [1usize, 2, 4, 8] {
                let got: Vec<u64> = query_masks(&tp, &masks, matcher.as_ref(), threads)
                    .iter()
                    .map(|p| p.to_bits())
                    .collect();
                prop_assert!(got == want, "matcher {} diverges at threads={}", name, threads);
            }
        }
    }

    // Explicit pools of 1, 2 and 8 workers produce the same per-mask
    // responses as the sequential engine — dynamic scheduling never leaks
    // into results because each index owns its slot.
    #[test]
    fn explicit_pools_match_sequential_query(seed in 0u64..200, workers in 1usize..9) {
        let zoo = zoo();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9001);
        let pair = &zoo.test_pairs[rng.gen_range(0..zoo.test_pairs.len())];
        let tp = TokenizedPair::new(pair.clone());
        let masks = sample_masks(
            &tp,
            &PerturbOptions { samples: 48, seed, threads: 1, ..Default::default() },
        ).expect("masks");
        let matcher = &zoo.matchers[0].1;
        let sequential = query_masks(&tp, &masks, matcher.as_ref(), 1);
        let pool = WorkerPool::new(workers);
        let slots: Vec<AtomicU64> = (0..masks.len()).map(|_| AtomicU64::new(0)).collect();
        pool.run(masks.len(), workers, &|i| {
            let p = matcher.predict_proba(&tp.apply_mask(&masks[i]));
            slots[i].store(p.to_bits(), Ordering::SeqCst);
        });
        for (i, s) in sequential.iter().enumerate() {
            let p = f64::from_bits(slots[i].load(Ordering::SeqCst));
            prop_assert!(
                s.to_bits() == p.to_bits(),
                "workers={} slot {} diverges: {} vs {}",
                workers, i, s, p
            );
        }
    }
}

/// Counts the calls and pairs reaching a matcher; implements only the
/// scalar and batch methods, so masked blocks arrive through the
/// default's rebuilt-text batch.
struct CountingMatcher {
    inner: Arc<dyn Matcher>,
    scalar_calls: AtomicU64,
    batch_calls: AtomicU64,
    batch_pairs: AtomicU64,
}

impl CountingMatcher {
    fn new(inner: Arc<dyn Matcher>) -> Self {
        CountingMatcher {
            inner,
            scalar_calls: AtomicU64::new(0),
            batch_calls: AtomicU64::new(0),
            batch_pairs: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        for c in [&self.scalar_calls, &self.batch_calls, &self.batch_pairs] {
            c.store(0, Ordering::SeqCst);
        }
    }

    /// `(scalar calls, batch calls, batch pairs)` so far.
    fn counts(&self) -> (u64, u64, u64) {
        (
            self.scalar_calls.load(Ordering::SeqCst),
            self.batch_calls.load(Ordering::SeqCst),
            self.batch_pairs.load(Ordering::SeqCst),
        )
    }
}

impl Matcher for CountingMatcher {
    fn name(&self) -> &str {
        "counting"
    }
    fn predict_proba(&self, pair: &EntityPair) -> f64 {
        self.scalar_calls.fetch_add(1, Ordering::SeqCst);
        self.inner.predict_proba(pair)
    }
    fn predict_proba_batch(&self, pairs: &[EntityPair]) -> Vec<f64> {
        self.batch_calls.fetch_add(1, Ordering::SeqCst);
        self.batch_pairs
            .fetch_add(pairs.len() as u64, Ordering::SeqCst);
        self.inner.predict_proba_batch(pairs)
    }
}

/// The calibration and ensemble wrappers forward each query block to
/// their inner matchers as one batch call: no scalar calls, one batch
/// per block (a single inline block at one thread; 32-mask blocks when
/// the shared pool fans out), and each unique mask exactly once.
#[test]
fn wrappers_forward_one_batch_call_per_query_block() {
    let zoo = zoo();
    let rules = Arc::clone(&zoo.matchers[3].1);
    let calibrated =
        CalibratedMatcher::fit(CountingMatcher::new(Arc::clone(&rules)), &zoo.validation)
            .expect("platt calibration");
    let members: Vec<Arc<CountingMatcher>> = (0..2)
        .map(|_| Arc::new(CountingMatcher::new(Arc::clone(&rules))))
        .collect();
    let ensemble = EnsembleMatcher::uniform(
        members
            .iter()
            .map(|m| Arc::clone(m) as Arc<dyn Matcher>)
            .collect(),
    )
    .expect("ensemble");
    let wrappers: [(&dyn Matcher, Vec<&CountingMatcher>); 2] = [
        (&calibrated, vec![calibrated.inner()]),
        (&ensemble, members.iter().map(Arc::as_ref).collect()),
    ];

    let tp = TokenizedPair::new(zoo.test_pairs[0].clone());
    let masks = sample_masks(
        &tp,
        &PerturbOptions {
            samples: 120,
            ..Default::default()
        },
    )
    .expect("masks");
    let unique = masks.iter().collect::<std::collections::HashSet<_>>().len() as u64;
    let workers = em_pool::global().workers();
    for threads in [1usize, 4] {
        let blocks = if threads == 1 || workers == 0 || unique <= 32 {
            1
        } else {
            unique.div_ceil(32)
        };
        for (wrapper, counters) in &wrappers {
            for c in counters {
                c.reset();
            }
            let got = query_masks(&tp, &masks, *wrapper, threads);
            for c in counters {
                let (scalar, batches, pairs) = c.counts();
                assert_eq!(scalar, 0, "threads={threads}");
                assert_eq!(batches, blocks, "threads={threads}");
                assert_eq!(pairs, unique, "threads={threads}");
            }
            let want: Vec<u64> = masks
                .iter()
                .map(|m| wrapper.predict_proba(&tp.apply_mask(m)).to_bits())
                .collect();
            assert_eq!(got.iter().map(|p| p.to_bits()).collect::<Vec<_>>(), want);
        }
    }
}
