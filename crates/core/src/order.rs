//! Deterministic, NaN-total orderings for rank scores.
//!
//! The repo-wide policy (enforced by the `float-order` lint rule): rank
//! scores are never compared with `partial_cmp` — a NaN from a
//! pathological upstream solve must order *deterministically*, and must
//! always rank as the **worst** score, never the best. Plain
//! `f64::total_cmp` gets the determinism right but not the policy: IEEE
//! total order puts positive NaN above `+inf`, so a naive descending
//! `total_cmp` sort would crown a NaN score the top result — the exact
//! spam-amplifying outcome the throttle heuristics must avoid (an unknown
//! proximity must not earn a source full throttling, an unknown rank must
//! not win the ranking).
//!
//! These comparators started life private to `ThrottleVector` (PR 3's NaN
//! panic fix); they are promoted here so `RankVector`, the rank-correlation
//! metrics and the eval experiments share one policy instead of three
//! re-implementations.
//!
//! [`top_k_desc`] is the one ranked-list primitive built on them: every
//! top-k in the workspace (served `top_k`/`top_m` replies, the κ cut of the
//! throttle heuristics, full rank orders) goes through it.

use std::cmp::Ordering;

use sr_graph::ids::node_range;

/// Descending order with NaN sorted last (rank position ∞).
///
/// Total: every pair of `f64`s, NaN included, compares consistently, so it
/// is safe for `sort_by`/`min_by`/`max_by`. For descending rank lists this
/// keeps NaN scores at the tail — "unknown" never beats "known".
#[inline]
pub fn cmp_desc_nan_last(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater, // NaN after every real score
        (false, true) => Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

/// Ascending order with NaN sorted last.
///
/// The ascending twin: for "pick the minimum" selections (coldest page,
/// smallest residual) a NaN must not win the minimum either, so it sorts
/// after every real value here too. Note this is *not* the reverse of
/// [`cmp_desc_nan_last`] — both pin NaN to the tail.
#[inline]
pub fn cmp_asc_nan_last(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.total_cmp(&b),
    }
}

/// The ids of the `k` highest `scores`, best first: descending by
/// [`cmp_desc_nan_last`], ties broken by ascending id.
///
/// That comparator is a strict total order over ids, so the result is
/// bitwise the list a full sort would give truncated to `min(k, n)` — ties,
/// `±0.0` and NaN-last included — at O(n + k log k) instead of
/// O(n log n): a `select_nth_unstable_by` partitions the top `k` to the
/// front, then only that prefix is sorted. `k ≥ n` is the full rank order.
pub fn top_k_desc(scores: &[f64], k: usize) -> Vec<u32> {
    let by_rank = |a: &u32, b: &u32| {
        cmp_desc_nan_last(scores[*a as usize], scores[*b as usize]).then(a.cmp(b))
    };
    if k == 0 {
        return Vec::new();
    }
    let mut idx: Vec<u32> = node_range(scores.len()).collect();
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, by_rank);
        idx.truncate(k);
    }
    idx.sort_unstable_by(by_rank);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desc_sorts_nan_last() {
        let mut v = [f64::NAN, 1.0, f64::INFINITY, -1.0, f64::NAN, 0.0];
        v.sort_by(|a, b| cmp_desc_nan_last(*a, *b));
        assert_eq!(&v[..4], &[f64::INFINITY, 1.0, 0.0, -1.0]);
        assert!(v[4].is_nan() && v[5].is_nan());
    }

    #[test]
    fn asc_sorts_nan_last() {
        let mut v = [f64::NAN, 1.0, -f64::INFINITY, 0.0];
        v.sort_by(|a, b| cmp_asc_nan_last(*a, *b));
        assert_eq!(&v[..3], &[-f64::INFINITY, 0.0, 1.0]);
        assert!(v[3].is_nan());
    }

    #[test]
    fn min_by_never_picks_nan() {
        let v = [f64::NAN, 2.0, 1.0];
        let m = v
            .iter()
            .copied()
            .min_by(|a, b| cmp_asc_nan_last(*a, *b))
            .unwrap();
        assert_eq!(m, 1.0);
    }

    #[test]
    fn top_k_desc_is_the_sorted_prefix() {
        let v = [0.5, f64::NAN, -0.0, 0.5, 0.0, 2.0, f64::NAN, -1.0];
        let all = top_k_desc(&v, v.len());
        // Ties by id, +0.0 above -0.0, NaNs last in id order.
        assert_eq!(all, vec![5, 0, 3, 4, 2, 7, 1, 6]);
        for k in 0..=v.len() + 2 {
            assert_eq!(top_k_desc(&v, k), &all[..k.min(v.len())]);
        }
        assert!(top_k_desc(&[], 3).is_empty());
    }

    #[test]
    fn zero_signs_and_nan_payloads_are_deterministic() {
        // total_cmp distinguishes -0.0 < +0.0 — an arbitrary but *stable*
        // choice, which is all determinism needs.
        assert_eq!(cmp_desc_nan_last(0.0, -0.0), std::cmp::Ordering::Less);
        assert_eq!(cmp_desc_nan_last(f64::NAN, f64::NAN), Ordering::Equal);
    }
}
