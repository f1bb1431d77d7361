//! Token-level soft-alignment ("attention") matcher.
//!
//! This is the reproduction's stand-in for the transformer EM models the
//! paper explains: every token of one record attends over the tokens of the
//! other via embedding cosine, producing per-attribute soft-alignment
//! statistics that feed a trained logistic head. Crucially the model is
//! *word-sensitive in the same way a BERT matcher is* — removing or
//! injecting a single token changes the attention distributions and thus
//! the score — which is exactly the code path perturbation explainers
//! exercise.

use crate::matcher::{best_f1_threshold, Matcher};
use crate::scratch::ScratchPool;
use em_data::{Dataset, EntityPair, Side};
use em_embed::{EmbeddingOptions, WordEmbeddings};
use em_linalg::stats::{sigmoid, softmax, softmax_into};
use em_rngs::rngs::StdRng;
use em_rngs::seq::SliceRandom;
use em_rngs::SeedableRng;
use em_text::{IdMap, TokenArena};

/// Options for the attention matcher.
#[derive(Debug, Clone, Copy)]
pub struct AttentionOptions {
    /// Softmax temperature on cosine scores (higher = sharper alignment).
    pub temperature: f64,
    /// Embedding training options.
    pub embeddings: EmbeddingOptions,
    /// Head training: epochs.
    pub epochs: usize,
    /// Head training: learning rate.
    pub learning_rate: f64,
    /// Head training: L2 penalty.
    pub l2: f64,
    /// Seed for shuffling.
    pub seed: u64,
    /// Positive class weight.
    pub positive_weight: f64,
}

impl Default for AttentionOptions {
    fn default() -> Self {
        AttentionOptions {
            temperature: 6.0,
            embeddings: EmbeddingOptions::default(),
            epochs: 150,
            learning_rate: 0.5,
            l2: 1e-4,
            seed: 21,
            positive_weight: 2.0,
        }
    }
}

/// Per-attribute soft-alignment features: 4 per attribute + 2 global.
const PER_ATTR: usize = 4;
const GLOBAL: usize = 2;

/// Trained soft-alignment matcher.
pub struct AttentionMatcher {
    embeddings: WordEmbeddings,
    temperature: f64,
    n_attributes: usize,
    weights: Vec<f64>,
    bias: f64,
    threshold: f64,
    scratch: ScratchPool<AlignScratch>,
}

/// Per-batch caches for the interned alignment path.
///
/// Perturbation batches are highly redundant — a drop mask leaves most
/// cells untouched and reuses the same tokens — so the batch path
/// interns every cell once per call ([`TokenArena`]), memoizes each
/// token's embedding vector and norm, and caches whole per-attribute
/// feature blocks keyed by the interned `(left cell, right cell)` ids.
/// Every cached value is a pure function of the cell text (and the
/// fixed temperature), so hits are bitwise-identical to recomputation;
/// the whole-record coverage features change with every unique mask and
/// are recomputed per pair, but through the cached vectors/norms and
/// reused softmax/context buffers.
#[derive(Debug)]
struct AlignScratch {
    /// Gram-free arena — the alignment path only reads token sequences.
    arena: TokenArena,
    /// Arena token id → embedding vector (incl. trigram OOV fallback).
    vectors: Vec<Vec<f64>>,
    /// Arena token id → Euclidean norm of its vector.
    norms: Vec<f64>,
    /// (left cell id, right cell id) → per-attribute feature block.
    attr_cache: IdMap<(u32, u32), [f64; PER_ATTR]>,
    /// Dense token-pair cosine memo, `NAN` = unfilled; row stride
    /// `cos_dim`, disabled (`cos_dim == 0`) once the batch interns more
    /// than [`COS_MEMO_MAX`] tokens. `cosine` is bitwise-symmetric
    /// (lane-wise multiply commutes), so one computation fills both
    /// triangles and L→R / R→L directions share hits.
    cos_cache: Vec<f64>,
    cos_dim: usize,
    all_l: Vec<u32>,
    all_r: Vec<u32>,
    feats: Vec<f64>,
    sims: Vec<f64>,
    attn: Vec<f64>,
    ctx: Vec<f64>,
}

/// Token-count ceiling for the dense cosine memo: perturbation batches
/// and scaling pairs stay well below it, while distinct-pair workloads
/// (training, test-set evaluation) cross it early and fall back to
/// computing cosines directly rather than holding an O(n²) table.
const COS_MEMO_MAX: usize = 512;

impl Default for AlignScratch {
    fn default() -> Self {
        AlignScratch {
            arena: TokenArena::without_grams(),
            vectors: Vec::new(),
            norms: Vec::new(),
            attr_cache: IdMap::default(),
            cos_cache: Vec::new(),
            cos_dim: 0,
            all_l: Vec::new(),
            all_r: Vec::new(),
            feats: Vec::new(),
            sims: Vec::new(),
            attn: Vec::new(),
            ctx: Vec::new(),
        }
    }
}

impl AlignScratch {
    fn clear(&mut self) {
        self.arena.clear();
        self.vectors.clear();
        self.norms.clear();
        self.attr_cache.clear();
        self.cos_cache.clear();
        self.cos_dim = 0;
    }

    /// Extend the vector/norm memo to cover every token interned so far.
    fn ensure_vectors(&mut self, emb: &WordEmbeddings) {
        while self.vectors.len() < self.arena.n_tokens() {
            let v = emb.vector(self.arena.token_text(self.vectors.len() as u32));
            self.norms.push(em_linalg::norm2(&v));
            self.vectors.push(v);
        }
        let n = self.arena.n_tokens();
        if n <= COS_MEMO_MAX {
            if self.cos_dim < n {
                // Grow in powers of two to amortise stride rebuilds.
                let nd = n.next_power_of_two().clamp(64, COS_MEMO_MAX);
                let mut fresh = vec![f64::NAN; nd * nd];
                for i in 0..self.cos_dim {
                    let (o, f) = (i * self.cos_dim, i * nd);
                    fresh[f..f + self.cos_dim]
                        .copy_from_slice(&self.cos_cache[o..o + self.cos_dim]);
                }
                self.cos_cache = fresh;
                self.cos_dim = nd;
            }
        } else if self.cos_dim != 0 {
            self.cos_cache = Vec::new();
            self.cos_dim = 0;
        }
    }
}

/// [`alignment_features`] through the interned caches: fills
/// `s.feats` with the same values (bitwise) the string path produces,
/// reusing `s`'s token vectors, norms and per-attribute blocks across
/// calls. Callers own the cache lifecycle (`s.clear()` per batch).
fn alignment_features_cached(
    emb: &WordEmbeddings,
    temperature: f64,
    n_attributes: usize,
    pair: &EntityPair,
    s: &mut AlignScratch,
) {
    s.feats.clear();
    s.all_l.clear();
    s.all_r.clear();
    for attr in 0..n_attributes {
        let lc = s.arena.intern_cell(pair.record(Side::Left).value(attr));
        let rc = s.arena.intern_cell(pair.record(Side::Right).value(attr));
        s.ensure_vectors(emb);
        let block = if let Some(&b) = s.attr_cache.get(&(lc, rc)) {
            b
        } else {
            let lt = s.arena.tokens(lc);
            let rt = s.arena.tokens(rc);
            let (mean_lr, max_lr) = direction_stats_ids(
                &s.vectors,
                &s.norms,
                lt,
                rt,
                temperature,
                &mut s.cos_cache,
                s.cos_dim,
                &mut s.sims,
                &mut s.attn,
                &mut s.ctx,
            );
            let (mean_rl, max_rl) = direction_stats_ids(
                &s.vectors,
                &s.norms,
                rt,
                lt,
                temperature,
                &mut s.cos_cache,
                s.cos_dim,
                &mut s.sims,
                &mut s.attn,
                &mut s.ctx,
            );
            let b = [mean_lr, max_lr, mean_rl, max_rl];
            s.attr_cache.insert((lc, rc), b);
            b
        };
        s.feats.extend_from_slice(&block);
        let tl = s.arena.tokens(lc);
        s.all_l.extend_from_slice(tl);
        let tr = s.arena.tokens(rc);
        s.all_r.extend_from_slice(tr);
    }
    let (cov_lr, _) = direction_stats_ids(
        &s.vectors,
        &s.norms,
        &s.all_l,
        &s.all_r,
        temperature,
        &mut s.cos_cache,
        s.cos_dim,
        &mut s.sims,
        &mut s.attn,
        &mut s.ctx,
    );
    let (cov_rl, _) = direction_stats_ids(
        &s.vectors,
        &s.norms,
        &s.all_r,
        &s.all_l,
        temperature,
        &mut s.cos_cache,
        s.cos_dim,
        &mut s.sims,
        &mut s.attn,
        &mut s.ctx,
    );
    s.feats.push(cov_lr);
    s.feats.push(cov_rl);
}

/// [`direction_stats`] over interned token ids with memoized vectors
/// and norms. Bitwise-identical: `cosine(q, k)` is replayed as
/// `dot(q, k) / (nq · nk)` with the cached `nq = norm2(q)` — the same
/// value the scalar path recomputes per call — and softmax/context use
/// the same accumulation order through reused buffers.
#[allow(clippy::too_many_arguments)]
fn direction_stats_ids(
    vectors: &[Vec<f64>],
    norms: &[f64],
    queries: &[u32],
    keys: &[u32],
    temperature: f64,
    cos_cache: &mut [f64],
    cos_dim: usize,
    sims: &mut Vec<f64>,
    attn: &mut Vec<f64>,
    ctx: &mut Vec<f64>,
) -> (f64, f64) {
    if queries.is_empty() || keys.is_empty() {
        return (0.0, 0.0);
    }
    let mut sum = 0.0;
    let mut max = f64::NEG_INFINITY;
    for &q in queries {
        let qv = &vectors[q as usize];
        let nq = norms[q as usize];
        sims.clear();
        for &k in keys {
            let fresh = |nk: f64| {
                if nq == 0.0 || nk == 0.0 {
                    0.0
                } else {
                    (em_linalg::dot(qv, &vectors[k as usize]) / (nq * nk)).clamp(-1.0, 1.0)
                }
            };
            let cos = if cos_dim > 0 {
                let idx = q as usize * cos_dim + k as usize;
                let hit = cos_cache[idx];
                if hit.is_nan() {
                    let c = fresh(norms[k as usize]);
                    cos_cache[idx] = c;
                    cos_cache[k as usize * cos_dim + q as usize] = c;
                    c
                } else {
                    hit
                }
            } else {
                fresh(norms[k as usize])
            };
            sims.push(cos * temperature);
        }
        softmax_into(sims, attn);
        ctx.clear();
        ctx.resize(qv.len(), 0.0);
        for (&a, &k) in attn.iter().zip(keys) {
            em_linalg::axpy(a, &vectors[k as usize], ctx);
        }
        let nctx = em_linalg::norm2(ctx);
        let score = if nq == 0.0 || nctx == 0.0 {
            0.0
        } else {
            (em_linalg::dot(qv, ctx) / (nq * nctx)).clamp(-1.0, 1.0)
        }
        .max(0.0);
        sum += score;
        if score > max {
            max = score;
        }
    }
    (sum / queries.len() as f64, max)
}

impl AttentionMatcher {
    /// Train embeddings on the train corpus and fit the logistic head on
    /// soft-alignment features.
    pub fn fit(
        train: &Dataset,
        validation: &Dataset,
        opts: AttentionOptions,
    ) -> Result<Self, crate::MatcherError> {
        if train.is_empty() {
            return Err(crate::MatcherError::EmptyTrainingSet);
        }
        let embeddings = WordEmbeddings::train_on_dataset(train, opts.embeddings)
            .map_err(crate::MatcherError::Embedding)?;
        let n_attributes = train.schema().len();
        let dims = n_attributes * PER_ATTR + GLOBAL;

        // Cached feature extraction: token vectors/norms are memoized
        // across the whole split (bitwise ≡ `alignment_features`; see
        // `features_cached_match_string_path`).
        let mut scratch = AlignScratch::default();
        let mut feats = |d: &Dataset| -> (Vec<Vec<f64>>, Vec<f64>) {
            scratch.clear();
            let x: Vec<Vec<f64>> = d
                .examples()
                .iter()
                .map(|ex| {
                    alignment_features_cached(
                        &embeddings,
                        opts.temperature,
                        n_attributes,
                        &ex.pair,
                        &mut scratch,
                    );
                    scratch.feats.clone()
                })
                .collect();
            let y: Vec<f64> = d.examples().iter().map(|ex| ex.label.as_f64()).collect();
            (x, y)
        };
        let (x, y) = feats(train);
        let (vx, vy) = feats(validation);

        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut w = vec![0.0; dims];
        let mut b = 0.0;
        let mut order: Vec<usize> = (0..x.len()).collect();
        let mut best = (f64::NEG_INFINITY, w.clone(), b);
        let mut stale = 0usize;
        for _ in 0..opts.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let z = em_linalg::dot(&w, &x[i]) + b;
                let pred = sigmoid(z);
                let weight = if y[i] > 0.5 {
                    opts.positive_weight
                } else {
                    1.0
                };
                let err = weight * (pred - y[i]);
                for (wj, &xj) in w.iter_mut().zip(&x[i]) {
                    *wj -= opts.learning_rate * (err * xj + opts.l2 * *wj);
                }
                b -= opts.learning_rate * err;
            }
            let (ex, ey) = if vx.is_empty() { (&x, &y) } else { (&vx, &vy) };
            let f1 = head_f1(&w, b, ex, ey);
            if f1 > best.0 + 1e-9 {
                best = (f1, w.clone(), b);
                stale = 0;
            } else {
                stale += 1;
                if stale > 20 {
                    break;
                }
            }
        }
        let (_, w, b) = best;
        let (cx, cy) = if vx.is_empty() { (&x, &y) } else { (&vx, &vy) };
        let scores: Vec<f64> = cx
            .iter()
            .map(|f| sigmoid(em_linalg::dot(&w, f) + b))
            .collect();
        let labels: Vec<bool> = cy.iter().map(|&v| v > 0.5).collect();
        let threshold = best_f1_threshold(&scores, &labels);
        Ok(AttentionMatcher {
            embeddings,
            temperature: opts.temperature,
            n_attributes,
            weights: w,
            bias: b,
            threshold,
            scratch: ScratchPool::new(),
        })
    }

    /// Batch prediction through the interned per-batch caches. Bitwise
    /// equal to the scalar loop (each cached value is a pure function
    /// of cell text; see [`AlignScratch`]), which
    /// `tests/tests/batch_equivalence.rs` pins.
    fn batch_with_scratch(&self, pairs: &[EntityPair], s: &mut AlignScratch) -> Vec<f64> {
        s.clear();
        let mut out = Vec::with_capacity(pairs.len());
        for pair in pairs {
            alignment_features_cached(
                &self.embeddings,
                self.temperature,
                self.n_attributes,
                pair,
                s,
            );
            out.push(sigmoid(em_linalg::dot(&self.weights, &s.feats) + self.bias));
        }
        out
    }

    /// The trained word embeddings (shared with CREW's semantic knowledge
    /// source in the experiment harness, as the paper pipeline does).
    pub fn embeddings(&self) -> &WordEmbeddings {
        &self.embeddings
    }
}

fn head_f1(w: &[f64], b: f64, x: &[Vec<f64>], y: &[f64]) -> f64 {
    let mut tp = 0;
    let mut fp = 0;
    let mut fn_ = 0;
    for (f, &truth) in x.iter().zip(y) {
        let pred = sigmoid(em_linalg::dot(w, f) + b) >= 0.5;
        let t = truth > 0.5;
        match (pred, t) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            _ => {}
        }
    }
    crate::matcher::report_from_counts(tp, fp, fn_, 0).f1
}

/// Soft-alignment feature vector of a pair.
///
/// Per attribute: mean and max of soft-alignment scores in both directions
/// (L→R, R→L). Globally: overall token coverage both directions.
fn alignment_features(
    emb: &WordEmbeddings,
    temperature: f64,
    n_attributes: usize,
    pair: &EntityPair,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(n_attributes * PER_ATTR + GLOBAL);
    let mut all_l: Vec<Vec<f64>> = Vec::new();
    let mut all_r: Vec<Vec<f64>> = Vec::new();
    for attr in 0..n_attributes {
        let lt = em_text::tokenize(pair.record(Side::Left).value(attr));
        let rt = em_text::tokenize(pair.record(Side::Right).value(attr));
        let lv: Vec<Vec<f64>> = lt.iter().map(|w| emb.vector(w)).collect();
        let rv: Vec<Vec<f64>> = rt.iter().map(|w| emb.vector(w)).collect();
        let (mean_lr, max_lr) = direction_stats(&lv, &rv, temperature);
        let (mean_rl, max_rl) = direction_stats(&rv, &lv, temperature);
        out.push(mean_lr);
        out.push(max_lr);
        out.push(mean_rl);
        out.push(max_rl);
        all_l.extend(lv);
        all_r.extend(rv);
    }
    let (cov_lr, _) = direction_stats(&all_l, &all_r, temperature);
    let (cov_rl, _) = direction_stats(&all_r, &all_l, temperature);
    out.push(cov_lr);
    out.push(cov_rl);
    out
}

/// For each query vector, attend over keys with temperature-softmax on
/// cosine and score the query against its attention-weighted context.
/// Returns (mean, max) over queries; (0,0) when either side is empty.
fn direction_stats(queries: &[Vec<f64>], keys: &[Vec<f64>], temperature: f64) -> (f64, f64) {
    if queries.is_empty() || keys.is_empty() {
        return (0.0, 0.0);
    }
    let mut sum = 0.0;
    let mut max = f64::NEG_INFINITY;
    for q in queries {
        let sims: Vec<f64> = keys
            .iter()
            .map(|k| em_linalg::cosine(q, k) * temperature)
            .collect();
        let attn = softmax(&sims);
        // Attention-weighted context vector (same SIMD-routed axpy as the
        // cached path, keeping the two paths bitwise in sync).
        let mut ctx = vec![0.0; q.len()];
        for (&a, k) in attn.iter().zip(keys) {
            em_linalg::axpy(a, k, &mut ctx);
        }
        let score = em_linalg::cosine(q, &ctx).max(0.0);
        sum += score;
        if score > max {
            max = score;
        }
    }
    (sum / queries.len() as f64, max)
}

impl Matcher for AttentionMatcher {
    fn name(&self) -> &str {
        "attention"
    }

    fn predict_proba(&self, pair: &EntityPair) -> f64 {
        let f = alignment_features(&self.embeddings, self.temperature, self.n_attributes, pair);
        sigmoid(em_linalg::dot(&self.weights, &f) + self.bias)
    }

    fn predict_proba_batch(&self, pairs: &[EntityPair]) -> Vec<f64> {
        // The scratch is a pure allocation/memo cache cleared per call,
        // so which pooled scratch a batch draws cannot change any value.
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
mod tests {
    use super::*;
    use crate::matcher::evaluate;
    use em_synth::{generate, Family, GeneratorConfig};

    fn splits(seed: u64) -> (Dataset, Dataset, Dataset) {
        let cfg = GeneratorConfig {
            entities: 120,
            pairs: 400,
            match_rate: 0.25,
            hard_negative_rate: 0.5,
            seed,
        };
        let d = generate(Family::Citations, cfg).unwrap();
        let s = d.split(0.7, 0.15, seed).unwrap();
        (s.train, s.validation, s.test)
    }

    #[test]
    fn attention_matcher_learns() {
        let (train, val, test) = splits(31);
        let m = AttentionMatcher::fit(&train, &val, AttentionOptions::default()).unwrap();
        let r = evaluate(&m, &test);
        assert!(r.f1 > 0.7, "attention F1 too low: {r:?}");
    }

    #[test]
    fn token_drop_changes_score() {
        let (train, val, test) = splits(32);
        let m = AttentionMatcher::fit(&train, &val, AttentionOptions::default()).unwrap();
        let ex = test
            .examples()
            .iter()
            .find(|e| e.label.is_match() && !e.pair.left().value(0).is_empty())
            .unwrap();
        let before = m.predict_proba(&ex.pair);
        // Drop the first token of the left title.
        let title = ex.pair.left().value(0).to_string();
        let rest: Vec<&str> = title.split_whitespace().skip(1).collect();
        let mut maimed = ex.pair.clone();
        maimed.record_mut(Side::Left).set_value(0, rest.join(" "));
        let after = m.predict_proba(&maimed);
        assert_ne!(
            before, after,
            "token-level perturbation must change the score"
        );
    }

    #[test]
    fn direction_stats_empty_inputs() {
        assert_eq!(direction_stats(&[], &[vec![1.0]], 4.0), (0.0, 0.0));
        assert_eq!(direction_stats(&[vec![1.0]], &[], 4.0), (0.0, 0.0));
    }

    #[test]
    fn direction_stats_identical_tokens_score_high() {
        let v = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let (mean, max) = direction_stats(&v, &v, 8.0);
        assert!(mean > 0.8, "mean {mean}");
        assert!(max > 0.9, "max {max}");
    }

    #[test]
    fn probabilities_bounded_and_deterministic() {
        let (train, val, test) = splits(33);
        let a = AttentionMatcher::fit(&train, &val, AttentionOptions::default()).unwrap();
        let b = AttentionMatcher::fit(&train, &val, AttentionOptions::default()).unwrap();
        for ex in test.examples().iter().take(10) {
            let pa = a.predict_proba(&ex.pair);
            assert!((0.0..=1.0).contains(&pa));
            assert_eq!(pa, b.predict_proba(&ex.pair));
        }
    }

    #[test]
    fn features_cached_match_string_path() {
        let (train, _, test) = splits(36);
        let emb = WordEmbeddings::train_on_dataset(&train, EmbeddingOptions::default()).unwrap();
        let n_attributes = train.schema().len();
        // One scratch across all pairs: memo persistence must not move bits.
        let mut s = AlignScratch::default();
        for ex in test.examples().iter().take(12) {
            let want = alignment_features(&emb, 6.0, n_attributes, &ex.pair);
            alignment_features_cached(&emb, 6.0, n_attributes, &ex.pair, &mut s);
            assert_eq!(want.len(), s.feats.len());
            for (a, b) in want.iter().zip(&s.feats) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn batch_prediction_matches_scalar_bitwise() {
        let (train, val, test) = splits(35);
        let m = AttentionMatcher::fit(&train, &val, AttentionOptions::default()).unwrap();
        let mut pairs: Vec<EntityPair> = test
            .examples()
            .iter()
            .take(16)
            .map(|e| e.pair.clone())
            .collect();
        // Duplicates exercise the per-attribute cache hit path.
        pairs.push(pairs[0].clone());
        pairs.push(pairs[3].clone());
        let batch = m.predict_proba_batch(&pairs);
        for (pair, &b) in pairs.iter().zip(&batch) {
            assert_eq!(m.predict_proba(pair).to_bits(), b.to_bits());
        }
        // A second call runs on the dirtied scratch; values must not move.
        let again = m.predict_proba_batch(&pairs);
        for (&a, &b) in batch.iter().zip(&again) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_train_is_error() {
        let (train, val, _) = splits(34);
        assert!(
            AttentionMatcher::fit(&train.sample(0, 0), &val, AttentionOptions::default()).is_err()
        );
    }
}
