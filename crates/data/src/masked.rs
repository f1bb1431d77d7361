//! Mask-native cell resolution: drop masks over one [`TokenizedPair`]
//! mapped straight to [`TokenArena`] cell ids, without rebuilding the
//! masked pairs as text.
//!
//! A perturbation batch asks a matcher about hundreds of drop masks of
//! one pair, and almost every `(side, attribute)` cell of those masked
//! pairs repeats one the batch has already seen: a mask drops a few
//! words, so most cells keep the same kept-word set from mask to mask.
//! Rebuilding every masked pair as text and interning each cell value
//! again hashes every cell of every pair. [`MaskCellResolver`] keys each
//! cell by its kept-word set instead: a per-batch memo maps `(cell,
//! kept-word bits)` to the arena cell id, so a repeated cell costs one
//! integer-keyed lookup. On a miss the cell's kept words are joined by
//! single spaces, the text [`crate::MaskedPairBuffer`] would have
//! written, and interned with [`TokenArena::intern_cell`], so matchers
//! score it bitwise identically. A cell of more than 64 words is wider
//! than the memo key and is interned on every mask.
//!
//! [`intern_pair_cells`] is the text side of the same contract: the cell
//! ids of an unmasked [`EntityPair`], in the order the resolver emits.

use crate::schema::EntityPair;
use crate::tokens::TokenizedPair;
use em_text::{IdMap, TokenArena};
use std::ops::Range;

/// Words per cell the `u64` kept-word key can describe.
const MEMO_WIDTH: usize = 64;

/// Intern every cell of `pair` into `arena`: the left record's cells in
/// attribute order into `left`, the right record's into `right` (both
/// overwritten). Matchers' batch paths call it per pair; the masked
/// paths get the same ids from [`MaskCellResolver::resolve`].
pub fn intern_pair_cells(
    arena: &mut TokenArena,
    pair: &EntityPair,
    left: &mut Vec<u32>,
    right: &mut Vec<u32>,
) {
    left.clear();
    right.clear();
    for value in pair.left().values() {
        left.push(arena.intern_cell(value));
    }
    for value in pair.right().values() {
        right.push(arena.intern_cell(value));
    }
}

/// Per-batch resolver from drop masks to arena cell ids; see the module
/// docs. Holds only per-batch state: [`Self::begin`] resets it, so a
/// resolver kept in a matcher's scratch only recycles allocations.
#[derive(Debug, Default)]
pub struct MaskCellResolver {
    /// Word-index range of every cell: left cells in attribute order,
    /// then right cells.
    cells: Vec<Range<usize>>,
    /// Words in the pair the batch was begun with.
    n_words: usize,
    /// `(cell, kept-word bits)` → arena cell id.
    memo: IdMap<(u32, u64), u32>,
    text: String,
}

impl MaskCellResolver {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a batch of masks over `tokenized`. Forgets the previous
    /// batch; the arena passed to [`Self::resolve`] must stay the same,
    /// uncleared, until the batch's last call.
    pub fn begin(&mut self, tokenized: &TokenizedPair) {
        self.memo.clear();
        self.cells.clear();
        self.cells
            .extend(tokenized.cells().into_iter().map(|(_, _, range)| range));
        self.n_words = tokenized.len();
    }

    /// Cell ids of `tokenized` under `mask` (`true` = word kept): the
    /// left record's cells in attribute order into `left`, the right
    /// record's into `right` (both overwritten). `tokenized` must be the
    /// pair the batch was begun with.
    ///
    /// # Panics
    /// Panics if `mask.len() != tokenized.len()`.
    pub fn resolve(
        &mut self,
        tokenized: &TokenizedPair,
        mask: &[bool],
        arena: &mut TokenArena,
        left: &mut Vec<u32>,
        right: &mut Vec<u32>,
    ) {
        assert_eq!(
            mask.len(),
            self.n_words,
            "mask length must equal word count"
        );
        left.clear();
        right.clear();
        let n_attributes = self.cells.len() / 2;
        for cell in 0..self.cells.len() {
            let range = self.cells[cell].clone();
            let id = if range.len() <= MEMO_WIDTH {
                let bits = mask[range.clone()]
                    .iter()
                    .enumerate()
                    .fold(0u64, |bits, (i, &kept)| bits | (u64::from(kept) << i));
                match self.memo.get(&(cell as u32, bits)) {
                    Some(&id) => id,
                    None => {
                        let id = self.build(tokenized, range, mask, arena);
                        self.memo.insert((cell as u32, bits), id);
                        id
                    }
                }
            } else {
                self.build(tokenized, range, mask, arena)
            };
            if cell < n_attributes {
                left.push(id);
            } else {
                right.push(id);
            }
        }
    }

    /// Intern one masked cell: its kept words joined by single spaces.
    fn build(
        &mut self,
        tokenized: &TokenizedPair,
        range: Range<usize>,
        mask: &[bool],
        arena: &mut TokenArena,
    ) -> u32 {
        let words = tokenized.words();
        self.text.clear();
        for i in range {
            if mask[i] {
                if !self.text.is_empty() {
                    self.text.push(' ');
                }
                self.text.push_str(&words[i].text);
            }
        }
        arena.intern_cell(&self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{EntityPair, Record, Schema, Side};
    use propcheck::prelude::*;
    use std::sync::Arc;

    fn tokenized(left: [&str; 2], right: [&str; 2]) -> TokenizedPair {
        let schema = Arc::new(Schema::new(vec!["title", "info"]));
        let rec = |id, v: [&str; 2]| Record::new(id, v.iter().map(|s| s.to_string()).collect());
        TokenizedPair::new(EntityPair::new(schema, rec(0, left), rec(1, right)).unwrap())
    }

    /// The resolver's cells against the text path: interning each value
    /// of `apply_mask`'s rebuilt pair into a second arena must give cells
    /// with the same text, tokens and gram set sizes.
    fn assert_matches_text_path(tp: &TokenizedPair, masks: &[Vec<bool>]) {
        let mut resolver = MaskCellResolver::new();
        let mut arena = TokenArena::new();
        let mut text_arena = TokenArena::new();
        resolver.begin(tp);
        let n_attr = tp.pair().schema().len();
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for mask in masks {
            let rebuilt = tp.apply_mask(mask);
            resolver.resolve(tp, mask, &mut arena, &mut left, &mut right);
            assert_eq!((left.len(), right.len()), (n_attr, n_attr));
            let cells = left.iter().map(|&id| (Side::Left, id));
            let cells = cells.chain(right.iter().map(|&id| (Side::Right, id)));
            for (cell, (side, id)) in cells.enumerate() {
                let attr = cell % n_attr;
                let value = rebuilt.record(side).value(attr);
                let want = text_arena.intern_cell(value);
                assert_eq!(arena.cell_text(id), value);
                let tokens = |a: &TokenArena, c: u32| -> Vec<String> {
                    a.tokens(c)
                        .iter()
                        .map(|&t| a.token_text(t).to_string())
                        .collect()
                };
                assert_eq!(tokens(&arena, id), tokens(&text_arena, want), "{value:?}");
                assert_eq!(
                    arena.sorted_tokens(id).len(),
                    text_arena.sorted_tokens(want).len()
                );
                assert_eq!(arena.grams(id).len(), text_arena.grams(want).len());
            }
        }
    }

    #[test]
    fn ascii_cells_match_the_text_path() {
        let tp = tokenized(["Sony Bravia TV", "black 55in"], ["bravia tv", ""]);
        let n = tp.len();
        let mut masks = vec![vec![true; n], vec![false; n]];
        for i in 0..n {
            let mut m = vec![true; n];
            m[i] = false;
            masks.push(m.clone());
            masks.push(m);
        }
        assert_matches_text_path(&tp, &masks);
    }

    #[test]
    fn non_ascii_cells_match_the_text_path() {
        // "İstanbul" tokenizes to "i̇stanbul", which re-tokenizes to two
        // tokens at the combining dot: the joined cell text must be
        // tokenized again, not assembled from the word units.
        let tp = tokenized(["İstanbul kebap", "ΟΔΟΣ 5"], ["istanbul", "Straße"]);
        assert_eq!(tp.words()[0].text, "i\u{307}stanbul");
        let n = tp.len();
        let masks: Vec<Vec<bool>> = (0..1u32 << n)
            .map(|bits| (0..n).map(|i| bits >> i & 1 == 1).collect())
            .collect();
        assert_matches_text_path(&tp, &masks);
    }

    #[test]
    fn cells_wider_than_the_memo_key_match_the_text_path() {
        let long: String = (0..MEMO_WIDTH + 9)
            .map(|i| format!("w{}", i % 23))
            .collect::<Vec<_>>()
            .join(" ");
        let tp = tokenized([long.as_str(), "x"], ["w1 w2", long.as_str()]);
        let n = tp.len();
        let mut masks: Vec<Vec<bool>> = (0..40)
            .map(|s| (0..n).map(|i| (i * 7 + s) % 5 != 0).collect())
            .collect();
        // All kept, then each word dropped alone: a key folded to 64
        // bits would confuse dropping word 70 with keeping everything.
        masks.push(vec![true; n]);
        for i in 0..n {
            let mut mask = vec![true; n];
            mask[i] = false;
            masks.push(mask);
        }
        assert_matches_text_path(&tp, &masks);
    }

    #[test]
    fn repeated_cells_hit_the_memo() {
        let tp = tokenized(["a b c", "d"], ["a b", "d"]);
        let mut resolver = MaskCellResolver::new();
        let mut arena = TokenArena::new();
        resolver.begin(&tp);
        let resolve = |resolver: &mut MaskCellResolver, arena: &mut TokenArena, mask: &[bool]| {
            let (mut left, mut right) = (Vec::new(), Vec::new());
            resolver.resolve(&tp, mask, arena, &mut left, &mut right);
            left.extend(right);
            left
        };
        let all = vec![true; tp.len()];
        let first = resolve(&mut resolver, &mut arena, &all);
        let mut drop_c = all.clone();
        drop_c[2] = false;
        let second = resolve(&mut resolver, &mut arena, &drop_c);
        // Only the left title changed; the other three cells are shared.
        // Equal texts are one arena cell: "d" on both sides, and the left
        // title without "c" is the right title "a b".
        assert_ne!(first[0], second[0]);
        assert_eq!(first[1..], second[1..]);
        assert_eq!(first[1], first[3]);
        assert_eq!(second[0], first[2]);
        assert_eq!(arena.n_cells(), 3);
    }

    #[test]
    fn all_kept_mask_gives_the_rebuilt_pair_cells() {
        let tp = tokenized(["Sony  Bravia-TV", ""], ["İstanbul", "x y"]);
        let mut resolver = MaskCellResolver::new();
        let mut arena = TokenArena::new();
        let (mut left, mut right) = (Vec::new(), Vec::new());
        resolver.begin(&tp);
        let all = vec![true; tp.len()];
        resolver.resolve(&tp, &all, &mut arena, &mut left, &mut right);
        // The rebuilt pair holds the words joined by single spaces, so
        // both routes land on the same arena cells.
        let (mut want_l, mut want_r) = (Vec::new(), Vec::new());
        intern_pair_cells(&mut arena, &tp.apply_mask(&all), &mut want_l, &mut want_r);
        assert_eq!((left, right), (want_l, want_r));
    }

    proptest! {
        // Arbitrary cell text (non-ASCII included) and arbitrary masks,
        // duplicates included.
        #[test]
        fn resolved_cells_match_the_text_path(
            values in propcheck::collection::vec(".{0,16}", 4..5),
            mask_bits in propcheck::collection::vec(0u64..u64::MAX, 1..12),
        ) {
            let tp = tokenized(
                [values[0].as_str(), values[1].as_str()],
                [values[2].as_str(), values[3].as_str()],
            );
            let n = tp.len();
            let mut masks: Vec<Vec<bool>> = mask_bits
                .iter()
                .map(|bits| (0..n).map(|i| bits >> (i % 64) & 1 == 1).collect())
                .collect();
            masks.push(masks[0].clone());
            assert_matches_text_path(&tp, &masks);
        }
    }
}
