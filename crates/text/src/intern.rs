//! Arena-interned tokenization for the perturbation-query hot path.
//!
//! A CREW explanation queries the matcher with hundreds of masked
//! variants of one pair. The masked cell *values* are drawn from a tiny
//! set (subsets of the original tokens), so re-tokenizing each variant
//! into fresh `Vec<String>`s — the `em_text::tokenize` path — burns
//! nearly all of its time allocating strings it has produced before.
//!
//! [`TokenArena`] interns at two levels:
//!
//! - **tokens** (and character q-grams) map to dense `u32` ids, so set
//!   kernels run on sorted integer slices
//!   ([`crate::similarity::jaccard_sorted_ids`]) instead of `HashSet`s
//!   of strings;
//! - **cells** (whole attribute values) map to ids whose token/gram
//!   slices are computed once and stored in flat arrays; re-interning a
//!   seen cell is a single hash lookup and no allocation.
//!
//! The arena is a scratch structure: callers `clear()` it between
//! batches (capacity is retained). Token ids are only meaningful within
//! one arena lifetime — they are *not* a persistent vocabulary (that is
//! [`crate::Vocabulary`]'s job).
//!
//! Determinism: tokens are produced by the same `scan_runs` +
//! char-wise-lowercase core as [`crate::tokenize`], and gram sets by the
//! same padding rules as [`crate::qgrams`] over the `str::to_lowercase`
//! of the cell, so kernels over arena slices are bitwise-identical to
//! their string counterparts. A q-gram is keyed by its packed chars
//! (one `u64`), so interning a window allocates nothing.

use crate::idhash::IdMap;
use crate::tokenize::{lowercase_run_into, scan_runs};
use std::collections::HashMap;

/// q-gram width used for interned gram sets; matches the `q = 3` the
/// matcher feature extractor passes to [`crate::qgram_jaccard`].
pub const GRAM_Q: usize = 3;

/// Bits per packed gram char: every `char` is at most `0x10_FFFF`.
const CHAR_BITS: usize = 21;
/// Filler for the empty leading slots of a gram shorter than
/// [`GRAM_Q`] (only the `"##"` of an empty cell); no `char` has it.
const NO_CHAR: u64 = (1 << CHAR_BITS) - 1;
const _: () = assert!(GRAM_Q * CHAR_BITS <= 64, "a gram must pack into a u64");

/// The content key of a gram: its chars packed [`CHAR_BITS`] apiece,
/// left-filled with [`NO_CHAR`] up to [`GRAM_Q`] slots.
fn gram_key(chars: &[char]) -> u64 {
    std::iter::repeat_n(NO_CHAR, GRAM_Q - chars.len())
        .chain(chars.iter().map(|&c| u64::from(c)))
        .fold(0, |key, c| key << CHAR_BITS | c)
}

/// Per-cell index ranges into the arena's flat storage.
#[derive(Debug, Clone, Copy)]
struct CellSpans {
    seq: (u32, u32),
    sorted: (u32, u32),
    grams: (u32, u32),
}

/// Interner mapping cell text → token-id / gram-id slices; see the
/// module docs for the lifecycle.
#[derive(Debug)]
pub struct TokenArena {
    /// Whether [`Self::intern_cell`] materialises gram sets. Gram
    /// construction (lowercase + window hashing per distinct cell) is
    /// the most expensive part of first-sight interning; callers that
    /// never read [`Self::grams`] — e.g. the attention matcher's
    /// alignment path — opt out via [`Self::without_grams`].
    build_grams: bool,
    token_ids: HashMap<String, u32>,
    token_texts: Vec<String>,
    /// Packed gram ([`gram_key`]) → gram id, ids in first-seen order.
    gram_ids: HashMap<u64, u32>,
    cell_ids: HashMap<String, u32>,
    cell_texts: Vec<String>,
    cells: Vec<CellSpans>,
    /// Token ids of every cell in source order, concatenated.
    seq: Vec<u32>,
    /// Sorted, deduplicated token ids of every cell, concatenated.
    sorted: Vec<u32>,
    /// Sorted, deduplicated gram ids of every cell, concatenated.
    grams: Vec<u32>,
    tok_scratch: String,
    char_scratch: Vec<char>,
}

/// Sort the tail `v[start..]` and drop adjacent duplicates in place.
fn sort_dedup_tail(v: &mut Vec<u32>, start: usize) {
    v[start..].sort_unstable();
    let mut w = start;
    for r in start..v.len() {
        if w == start || v[w - 1] != v[r] {
            v[w] = v[r];
            w += 1;
        }
    }
    v.truncate(w);
}

impl Default for TokenArena {
    /// Grams are built by default so `Default`-derived scratch structs
    /// (e.g. the feature extractor's) keep the full contract.
    fn default() -> Self {
        TokenArena {
            build_grams: true,
            token_ids: HashMap::new(),
            token_texts: Vec::new(),
            gram_ids: HashMap::new(),
            cell_ids: HashMap::new(),
            cell_texts: Vec::new(),
            cells: Vec::new(),
            seq: Vec::new(),
            sorted: Vec::new(),
            grams: Vec::new(),
            tok_scratch: String::new(),
            char_scratch: Vec::new(),
        }
    }
}

impl TokenArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena that skips gram-set construction; [`Self::grams`]
    /// returns an empty slice for every cell. Use when only token
    /// sequences/sets are consumed.
    pub fn without_grams() -> Self {
        TokenArena {
            build_grams: false,
            ..Self::default()
        }
    }

    /// Drop all interned content but keep allocated capacity; call
    /// between batches so ids never leak across batch boundaries.
    pub fn clear(&mut self) {
        self.token_ids.clear();
        self.token_texts.clear();
        self.gram_ids.clear();
        self.cell_ids.clear();
        self.cell_texts.clear();
        self.cells.clear();
        self.seq.clear();
        self.sorted.clear();
        self.grams.clear();
    }

    /// Intern a cell value, tokenizing it on first sight; returns its id.
    pub fn intern_cell(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.cell_ids.get(text) {
            return id;
        }
        let id = self.cell_texts.len() as u32;
        let seq_start = self.seq.len();
        // Token sequence (source order, duplicates kept).
        let token_ids = &mut self.token_ids;
        let token_texts = &mut self.token_texts;
        let tok_scratch = &mut self.tok_scratch;
        let seq = &mut self.seq;
        scan_runs(text, |start, end| {
            tok_scratch.clear();
            lowercase_run_into(&text[start..end], tok_scratch);
            let tid = match token_ids.get(tok_scratch.as_str()) {
                Some(&tid) => tid,
                None => {
                    let tid = token_texts.len() as u32;
                    token_ids.insert(tok_scratch.clone(), tid);
                    token_texts.push(tok_scratch.clone());
                    tid
                }
            };
            seq.push(tid);
        });
        let seq_end = self.seq.len();
        // Sorted distinct token ids.
        let sorted_start = self.sorted.len();
        self.sorted.extend_from_slice(&self.seq[seq_start..seq_end]);
        sort_dedup_tail(&mut self.sorted, sorted_start);
        let sorted_end = self.sorted.len();
        // Sorted distinct gram ids over the '#'-padded lowercased text —
        // `str::to_lowercase` on purpose (its final-sigma and expanding
        // mappings included), mirroring the q-gram feature's
        // `qgram_jaccard(&l.to_lowercase(), ..)` call exactly. ASCII
        // text lowercases byte-wise to the same chars without a String.
        let gram_start = self.grams.len();
        if self.build_grams {
            let chars = &mut self.char_scratch;
            chars.clear();
            chars.push('#');
            if text.is_ascii() {
                chars.extend(text.bytes().map(|b| char::from(b.to_ascii_lowercase())));
            } else {
                chars.extend(text.to_lowercase().chars());
            }
            chars.push('#');
            let gram_ids = &mut self.gram_ids;
            let mut intern_gram = |w: &[char]| {
                let next = gram_ids.len() as u32;
                *gram_ids.entry(gram_key(w)).or_insert(next)
            };
            if chars.len() < GRAM_Q {
                self.grams.push(intern_gram(chars));
            } else {
                for w in chars.windows(GRAM_Q) {
                    self.grams.push(intern_gram(w));
                }
            }
            sort_dedup_tail(&mut self.grams, gram_start);
        }
        let gram_end = self.grams.len();

        self.cell_ids.insert(text.to_string(), id);
        self.cell_texts.push(text.to_string());
        self.cells.push(CellSpans {
            seq: (seq_start as u32, seq_end as u32),
            sorted: (sorted_start as u32, sorted_end as u32),
            grams: (gram_start as u32, gram_end as u32),
        });
        id
    }

    /// Token ids of a cell in source order (duplicates kept).
    pub fn tokens(&self, cell: u32) -> &[u32] {
        let (s, e) = self.cells[cell as usize].seq;
        &self.seq[s as usize..e as usize]
    }

    /// Sorted, deduplicated token ids of a cell.
    pub fn sorted_tokens(&self, cell: u32) -> &[u32] {
        let (s, e) = self.cells[cell as usize].sorted;
        &self.sorted[s as usize..e as usize]
    }

    /// Sorted, deduplicated q-gram ids of a cell.
    pub fn grams(&self, cell: u32) -> &[u32] {
        let (s, e) = self.cells[cell as usize].grams;
        &self.grams[s as usize..e as usize]
    }

    /// Original (raw) text of an interned cell.
    pub fn cell_text(&self, cell: u32) -> &str {
        &self.cell_texts[cell as usize]
    }

    /// Lowercased text of an interned token id.
    pub fn token_text(&self, token: u32) -> &str {
        &self.token_texts[token as usize]
    }

    /// Number of distinct tokens interned so far (ids are `0..n_tokens`).
    pub fn n_tokens(&self) -> usize {
        self.token_texts.len()
    }

    /// Number of distinct cells interned so far.
    pub fn n_cells(&self) -> usize {
        self.cell_texts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cell_texts.is_empty()
    }

    /// Gram id → gram text, decoded from the packed keys.
    #[cfg(test)]
    fn gram_texts(&self) -> Vec<String> {
        let mut texts = vec![String::new(); self.gram_ids.len()];
        for (&key, &gid) in &self.gram_ids {
            texts[gid as usize] = (0..GRAM_Q)
                .rev()
                .map(|slot| (key >> (slot * CHAR_BITS)) & NO_CHAR)
                .filter(|&c| c != NO_CHAR)
                .map(|c| char::from_u32(c as u32).expect("packed a valid char"))
                .collect();
        }
        texts
    }
}

/// Directional `(token a, token b)` → `jaro_winkler(a, b)` memo over one
/// arena's token ids, and the Monge-Elkan kernel that reads it — the one
/// implementation behind every interned Monge-Elkan feature. Jaro's scan
/// order differs between `(a, b)` and `(b, a)`, so the key is
/// deliberately not symmetrised. Ids are only meaningful within one
/// arena lifetime: clear the cache whenever the arena is cleared.
#[derive(Debug, Default)]
pub struct JaroWinklerCache {
    jw: IdMap<(u32, u32), f64>,
}

impl JaroWinklerCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop memoized values but keep allocated capacity.
    pub fn clear(&mut self) {
        self.jw.clear();
    }

    /// [`crate::monge_elkan_sym`] over arena token-id sequences,
    /// bitwise-equal to the string version on the tokens' texts: the
    /// same Jaro-Winkler values, combined in the same order.
    pub fn monge_elkan_sym(&mut self, arena: &TokenArena, a: &[u32], b: &[u32]) -> f64 {
        0.5 * (self.monge_elkan(arena, a, b) + self.monge_elkan(arena, b, a))
    }

    /// [`crate::monge_elkan`] over id sequences: per `a`-token best via
    /// `f64::max` in `b` order, summed in `a` order.
    fn monge_elkan(&mut self, arena: &TokenArena, a: &[u32], b: &[u32]) -> f64 {
        if a.is_empty() {
            return if b.is_empty() { 1.0 } else { 0.0 };
        }
        if b.is_empty() {
            return 0.0;
        }
        let mut sum = 0.0;
        for &ta in a {
            let mut best = 0.0f64;
            for &tb in b {
                let jw = *self.jw.entry((ta, tb)).or_insert_with(|| {
                    crate::jaro_winkler(arena.token_text(ta), arena.token_text(tb))
                });
                best = best.max(jw);
            }
            sum += best;
        }
        sum / a.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn interned_tokens_match_string_tokenizer() {
        let mut arena = TokenArena::new();
        for text in [
            "Sony WH-1000XM4 Headphones",
            "",
            "café—crème (2021)",
            "a a b",
        ] {
            let id = arena.intern_cell(text);
            let via_arena: Vec<&str> = arena
                .tokens(id)
                .iter()
                .map(|&t| arena.token_text(t))
                .collect();
            let via_strings = crate::tokenize(text);
            assert_eq!(via_arena, via_strings, "input: {text:?}");
        }
    }

    #[test]
    fn reinterning_returns_same_id() {
        let mut arena = TokenArena::new();
        let a = arena.intern_cell("sony tv");
        let b = arena.intern_cell("lg tv");
        let a2 = arena.intern_cell("sony tv");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(arena.n_cells(), 2);
        // "tv" is shared between the cells.
        assert_eq!(arena.n_tokens(), 3);
        assert_eq!(arena.cell_text(a), "sony tv");
    }

    #[test]
    fn sorted_tokens_are_sorted_distinct() {
        let mut arena = TokenArena::new();
        let id = arena.intern_cell("b a c a b");
        assert_eq!(arena.tokens(id).len(), 5);
        let sorted = arena.sorted_tokens(id);
        assert_eq!(sorted.len(), 3);
        for w in sorted.windows(2) {
            assert!(w[0] < w[1]);
        }
        let from_seq: HashSet<u32> = arena.tokens(id).iter().copied().collect();
        let from_sorted: HashSet<u32> = sorted.iter().copied().collect();
        assert_eq!(from_seq, from_sorted);
    }

    #[test]
    fn gram_sets_match_qgrams_of_lowercased_text() {
        let mut arena = TokenArena::new();
        for text in ["Sony TV", "", "ab", "x"] {
            let id = arena.intern_cell(text);
            let expect: HashSet<String> = crate::qgrams(&text.to_lowercase(), GRAM_Q)
                .into_iter()
                .collect();
            assert_eq!(
                arena.grams(id).len(),
                expect.len(),
                "gram set size for {text:?}"
            );
            let sorted = arena.grams(id);
            for w in sorted.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn gram_sets_match_qgrams_on_non_ascii_text() {
        let mut arena = TokenArena::new();
        // 'İ' lowercases to two chars ("i̇"); a word-final 'Σ' becomes
        // 'ς' under `str::to_lowercase`; the rest are multi-byte, apart
        // from the mixed-case ASCII cell that takes the byte-wise path.
        let cells = [
            "İstanbul",
            "ÖDÜL İÇİN",
            "ΟΔΟΣ",
            "café—crème",
            "日本語テキスト",
            "Straße",
            "",
            "é",
            "a\u{0}b",
            "İ",
            "Sony WH-1000XM4",
        ];
        for text in cells {
            arena.intern_cell(text);
        }
        let texts = arena.gram_texts();
        for (id, text) in cells.iter().enumerate() {
            let got: HashSet<&str> = arena
                .grams(id as u32)
                .iter()
                .map(|&g| texts[g as usize].as_str())
                .collect();
            let expect_grams = crate::qgrams(&text.to_lowercase(), GRAM_Q);
            let expect: HashSet<&str> = expect_grams.iter().map(String::as_str).collect();
            assert_eq!(got, expect, "gram set of {text:?}");
        }
    }

    #[test]
    fn gram_ids_follow_first_seen_order() {
        let mut arena = TokenArena::new();
        arena.intern_cell("abc");
        arena.intern_cell("bcd");
        let texts = arena.gram_texts();
        assert_eq!(texts, ["#ab", "abc", "bc#", "#bc", "bcd", "cd#"]);
    }

    #[test]
    fn distinct_cells_share_gram_ids() {
        let mut arena = TokenArena::new();
        let a = arena.intern_cell("sony");
        let b = arena.intern_cell("sony x");
        let ga: HashSet<u32> = arena.grams(a).iter().copied().collect();
        let gb: HashSet<u32> = arena.grams(b).iter().copied().collect();
        // "#so"/"son"/"ony" grams are shared.
        assert!(ga.intersection(&gb).count() >= 3);
    }

    #[test]
    fn clear_resets_ids_but_keeps_working() {
        let mut arena = TokenArena::new();
        arena.intern_cell("one two");
        arena.intern_cell("three");
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.n_tokens(), 0);
        let id = arena.intern_cell("fresh start");
        assert_eq!(id, 0);
        assert_eq!(arena.tokens(id).len(), 2);
    }
}
