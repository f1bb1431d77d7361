//! String and set similarity measures used both by the matcher feature
//! extractors and by the synthetic-data hard-negative miner.

use std::collections::HashSet;

/// Levenshtein edit distance (unit costs) between two strings, by chars.
///
/// Bit-parallel (Myers 1999, J. ACM 46(3)) over `char`s: the shorter
/// string is the pattern, one 64-bit word per band of 64 pattern chars
/// (Hyyrö's blocked form), and the text is scanned once per band with
/// each column's horizontal delta carried from the band above. Exact:
/// equal to the unit-cost DP on every input (the property suite pins
/// it against a DP oracle).
pub fn levenshtein(a: &str, b: &str) -> usize {
    levenshtein_counted(a, a.chars().count(), b, b.chars().count())
}

/// [`levenshtein`] given `la` and `lb`, the char counts of `a` and `b`.
fn levenshtein_counted(a: &str, la: usize, b: &str, lb: usize) -> usize {
    let (pattern, m, text, n) = if la <= lb {
        (a, la, b, lb)
    } else {
        (b, lb, a, la)
    };
    if m == 0 {
        return n;
    }
    let bands = m.div_ceil(64);
    // Horizontal delta `D[64·band][j] − D[64·band][j−1]` leaving the
    // bottom of each band, per text column; only needed between bands.
    let mut carry: Vec<i8> = if bands > 1 { vec![1; n] } else { Vec::new() };
    let mut pattern_chars = pattern.chars();
    let mut ascii = [0u64; 128];
    let mut other: Vec<(char, u64)> = Vec::new();
    let mut dist = m;
    for band in 0..bands {
        // Match masks of this band's pattern chars: bit i set where
        // pattern char 64·band + i equals the text char.
        ascii.fill(0);
        other.clear();
        let rows = (m - 64 * band).min(64);
        for (i, c) in pattern_chars.by_ref().take(rows).enumerate() {
            if (c as u32) < 128 {
                ascii[c as usize] |= 1 << i;
            } else if let Some(e) = other.iter_mut().find(|e| e.0 == c) {
                e.1 |= 1 << i;
            } else {
                other.push((c, 1 << i));
            }
        }
        let last = band + 1 == bands;
        let bottom = 1u64 << (rows - 1);
        // Column 0: D[i][0] = i, so every vertical delta is +1.
        let (mut pv, mut mv) = (!0u64, 0u64);
        for (j, c) in text.chars().enumerate() {
            let eq = if (c as u32) < 128 {
                ascii[c as usize]
            } else {
                other.iter().find(|e| e.0 == c).map_or(0, |e| e.1)
            };
            // Row 0 of the band: D[0][j] = j at the top, else the
            // carry of the band above.
            let h_in = if band == 0 { 1 } else { carry[j] };
            let xv = eq | mv;
            let eq = if h_in < 0 { eq | 1 } else { eq };
            let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
            let mut ph = mv | !(xh | pv);
            let mut mh = pv & xh;
            if last {
                dist = dist + usize::from(ph & bottom != 0) - usize::from(mh & bottom != 0);
            } else {
                carry[j] = i8::from(ph & bottom != 0) - i8::from(mh & bottom != 0);
            }
            ph <<= 1;
            mh <<= 1;
            if h_in < 0 {
                mh |= 1;
            } else if h_in > 0 {
                ph |= 1;
            }
            pv = mh | !(xv | ph);
            mv = ph & xv;
        }
    }
    dist
}

/// Normalised Levenshtein similarity in [0,1].
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let (la, lb) = (a.chars().count(), b.chars().count());
    let max_len = la.max(lb);
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein_counted(a, la, b, lb) as f64 / max_len as f64
}

/// Jaro similarity in [0,1].
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut a_matched = vec![false; a.len()];
    let mut b_matched = vec![false; b.len()];
    let mut matches = 0usize;
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == *ca {
                a_matched[i] = true;
                b_matched[j] = true;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // Count transpositions among matched characters.
    let mut transpositions = 0usize;
    let mut j = 0usize;
    for (i, &am) in a_matched.iter().enumerate() {
        if !am {
            continue;
        }
        while !b_matched[j] {
            j += 1;
        }
        if a[i] != b[j] {
            transpositions += 1;
        }
        j += 1;
    }
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64 / 2.0) / m) / 3.0
}

/// Jaro-Winkler similarity with standard prefix scale 0.1 and max prefix 4.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    (j + prefix * 0.1 * (1.0 - j)).min(1.0)
}

/// Jaccard similarity of two token multiset-as-sets.
pub fn jaccard<T: std::hash::Hash + Eq>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let sa: HashSet<&T> = a.iter().collect();
    let sb: HashSet<&T> = b.iter().collect();
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    if union == 0.0 {
        1.0
    } else {
        inter / union
    }
}

/// Overlap coefficient `|A∩B| / min(|A|,|B|)`.
pub fn overlap_coefficient<T: std::hash::Hash + Eq>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return if a.is_empty() && b.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    let sa: HashSet<&T> = a.iter().collect();
    let sb: HashSet<&T> = b.iter().collect();
    let inter = sa.intersection(&sb).count() as f64;
    inter / sa.len().min(sb.len()) as f64
}

/// Intersection size of two sorted, deduplicated slices (linear merge).
fn sorted_intersection_len(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter
}

/// [`jaccard`] over sorted, deduplicated id slices (the interned-token
/// hot path). Bitwise-identical to the `HashSet` version: intersection
/// and union sizes are exact integers, and the only float operation is
/// the final division.
pub fn jaccard_sorted_ids(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = sorted_intersection_len(a, b);
    let union = a.len() + b.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// [`overlap_coefficient`] over sorted, deduplicated id slices;
/// bitwise-identical for the same reason as [`jaccard_sorted_ids`].
pub fn overlap_sorted_ids(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return if a.is_empty() && b.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    let inter = sorted_intersection_len(a, b) as f64;
    inter / a.len().min(b.len()) as f64
}

/// Dice coefficient `2|A∩B| / (|A|+|B|)` on sets.
pub fn dice<T: std::hash::Hash + Eq>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let sa: HashSet<&T> = a.iter().collect();
    let sb: HashSet<&T> = b.iter().collect();
    let inter = sa.intersection(&sb).count() as f64;
    let denom = (sa.len() + sb.len()) as f64;
    if denom == 0.0 {
        1.0
    } else {
        2.0 * inter / denom
    }
}

/// Jaccard over character q-grams of whole strings.
pub fn qgram_jaccard(a: &str, b: &str, q: usize) -> f64 {
    let ga = crate::tokenize::qgrams(a, q);
    let gb = crate::tokenize::qgrams(b, q);
    jaccard(&ga, &gb)
}

/// Monge-Elkan similarity: average best Jaro-Winkler match of each token of
/// `a` against tokens of `b` (asymmetric; callers can symmetrise).
pub fn monge_elkan(a_tokens: &[String], b_tokens: &[String]) -> f64 {
    if a_tokens.is_empty() {
        return if b_tokens.is_empty() { 1.0 } else { 0.0 };
    }
    if b_tokens.is_empty() {
        return 0.0;
    }
    let mut sum = 0.0;
    for ta in a_tokens {
        let best = b_tokens
            .iter()
            .map(|tb| jaro_winkler(ta, tb))
            .fold(0.0f64, f64::max);
        sum += best;
    }
    sum / a_tokens.len() as f64
}

/// Symmetric Monge-Elkan (mean of both directions).
pub fn monge_elkan_sym(a_tokens: &[String], b_tokens: &[String]) -> f64 {
    0.5 * (monge_elkan(a_tokens, b_tokens) + monge_elkan(b_tokens, a_tokens))
}

/// Longest common subsequence length between token sequences.
pub fn lcs_len<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let mut prev = vec![0usize; b.len() + 1];
    let mut cur = vec![0usize; b.len() + 1];
    for ai in a {
        for (j, bj) in b.iter().enumerate() {
            cur[j + 1] = if ai == bj {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
        cur.iter_mut().for_each(|x| *x = 0);
    }
    prev[b.len()]
}

/// Numeric-aware similarity: if both strings parse as numbers, compare as
/// relative difference; otherwise fall back to Levenshtein similarity.
/// Useful for price/year attributes in EM records.
pub fn numeric_or_string_similarity(a: &str, b: &str) -> f64 {
    match (a.trim().parse::<f64>(), b.trim().parse::<f64>()) {
        (Ok(x), Ok(y)) => {
            let denom = x.abs().max(y.abs());
            if denom == 0.0 {
                1.0
            } else {
                (1.0 - (x - y).abs() / denom).max(0.0)
            }
        }
        _ => levenshtein_similarity(a, b),
    }
}

/// The unit-cost single-row DP that [`levenshtein`] replaces; kept as
/// the oracle the bit-parallel version is tested against.
#[cfg(test)]
pub(crate) fn levenshtein_dp(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = if ca == cb { 0 } else { 1 };
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn levenshtein_known_distances() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn levenshtein_similarity_bounds() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("abc", "abc"), 1.0);
        assert_eq!(levenshtein_similarity("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_known_values() {
        assert!(approx(jaro("martha", "marhta"), 0.944_444_444_444_444_4));
        assert!(approx(jaro("dixon", "dicksonx"), 0.766_666_666_666_666_7));
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_boosts_common_prefix() {
        let jw = jaro_winkler("martha", "marhta");
        assert!(approx(jw, 0.961_111_111_111_111_1));
        assert!(jaro_winkler("prefixed", "prefixing") > jaro("prefixed", "prefixing"));
        assert!(jaro_winkler("abc", "abc") == 1.0);
    }

    #[test]
    fn jaccard_set_semantics() {
        let a = vec!["a", "b", "b", "c"];
        let b = vec!["b", "c", "d"];
        assert!(approx(jaccard(&a, &b), 0.5)); // {a,b,c} vs {b,c,d}: 2/4
        assert_eq!(jaccard::<&str>(&[], &[]), 1.0);
        assert_eq!(jaccard(&["x"], &[]), 0.0);
    }

    #[test]
    fn sorted_id_kernels_match_hashset_kernels_bitwise() {
        let cases: [(&[u32], &[u32]); 6] = [
            (&[], &[]),
            (&[1], &[]),
            (&[0, 1, 2], &[1, 2, 3]),
            (&[0, 1, 2], &[0, 1, 2]),
            (&[5, 9], &[1, 2, 3, 4]),
            (&[2], &[0, 1, 2, 3, 4, 5]),
        ];
        for (a, b) in cases {
            assert_eq!(
                jaccard_sorted_ids(a, b).to_bits(),
                jaccard(a, b).to_bits(),
                "jaccard {a:?} vs {b:?}"
            );
            assert_eq!(
                overlap_sorted_ids(a, b).to_bits(),
                overlap_coefficient(a, b).to_bits(),
                "overlap {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn overlap_and_dice() {
        let a = vec![1, 2, 3];
        let b = vec![2, 3, 4, 5];
        assert!(approx(overlap_coefficient(&a, &b), 2.0 / 3.0));
        assert!(approx(dice(&a, &b), 4.0 / 7.0));
        assert_eq!(overlap_coefficient::<i32>(&[], &[]), 1.0);
    }

    #[test]
    fn qgram_jaccard_detects_typos_gracefully() {
        let clean = qgram_jaccard("panasonic", "panasonic", 3);
        let typo = qgram_jaccard("panasonic", "panasonik", 3);
        let other = qgram_jaccard("panasonic", "sony", 3);
        assert_eq!(clean, 1.0);
        assert!(typo > other);
        assert!(typo > 0.4);
    }

    #[test]
    fn monge_elkan_favours_token_permutations() {
        let a: Vec<String> = ["sony", "headphones"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let b: Vec<String> = ["headphones", "sony"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(approx(monge_elkan_sym(&a, &b), 1.0));
        let c: Vec<String> = ["bose", "speaker"].iter().map(|s| s.to_string()).collect();
        assert!(monge_elkan_sym(&a, &c) < 0.8);
    }

    #[test]
    fn monge_elkan_empty_cases() {
        let e: Vec<String> = vec![];
        let x: Vec<String> = vec!["a".into()];
        assert_eq!(monge_elkan(&e, &e), 1.0);
        assert_eq!(monge_elkan(&e, &x), 0.0);
        assert_eq!(monge_elkan(&x, &e), 0.0);
    }

    #[test]
    fn lcs_known() {
        assert_eq!(lcs_len(&['a', 'b', 'c', 'd'], &['a', 'x', 'c', 'y']), 2);
        assert_eq!(lcs_len::<char>(&[], &['a']), 0);
        let a = ["the", "quick", "fox"];
        let b = ["the", "slow", "quick", "brown", "fox"];
        assert_eq!(lcs_len(&a, &b), 3);
    }

    #[test]
    fn numeric_similarity_compares_magnitudes() {
        assert!(approx(numeric_or_string_similarity("100", "100"), 1.0));
        assert!(approx(numeric_or_string_similarity("100", "50"), 0.5));
        assert!(numeric_or_string_similarity("100", "1000") < 0.2);
        assert_eq!(numeric_or_string_similarity("0", "0"), 1.0);
        // Non-numeric falls back to string similarity.
        assert!(numeric_or_string_similarity("red", "redd") > 0.7);
    }
}
