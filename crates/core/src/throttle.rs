//! Influence throttling (§3.3) — the paper's central mechanism.
//!
//! Each source `s_i` carries a throttling factor `κ_i ∈ [0, 1]` forcing its
//! self-edge weight to at least `κ_i`: a throttled source must direct that
//! much of its influence at itself, capping what it can pass to others. The
//! [`apply`] transform builds the influence-throttled matrix `T″` from `T′`.
//!
//! Note on the paper's displayed equation for `T″`: its branch condition
//! reads `T′_ij < κ_i`, but the prose is unambiguous — the transform fires
//! for a row **whose self-edge is below threshold** (`T′_ii < κ_i`), pinning
//! the self-edge to `κ_i` and rescaling the off-diagonal entries to sum to
//! `1 − κ_i`. We implement the prose.

use sr_graph::ids::node_range;
use sr_graph::{NodeId, WeightedGraph};

use crate::order::top_k_desc;

/// The per-source throttling vector `κ`.
#[derive(Debug, Clone, PartialEq)]
pub struct ThrottleVector {
    kappa: Vec<f64>,
}

impl ThrottleVector {
    /// No throttling anywhere (`κ = 0`).
    pub fn zeros(n: usize) -> Self {
        ThrottleVector {
            kappa: vec![0.0; n],
        }
    }

    /// Every source fully throttled (`κ = 1`).
    pub fn full(n: usize) -> Self {
        ThrottleVector {
            kappa: vec![1.0; n],
        }
    }

    /// The same throttling factor everywhere.
    ///
    /// # Panics
    /// Panics unless `kappa ∈ [0, 1]`.
    pub fn uniform(n: usize, kappa: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&kappa),
            "kappa must be in [0,1], got {kappa}"
        );
        ThrottleVector {
            kappa: vec![kappa; n],
        }
    }

    /// Wraps an explicit vector.
    ///
    /// # Panics
    /// Panics if any value is outside `[0, 1]` or non-finite.
    pub fn from_vec(kappa: Vec<f64>) -> Self {
        for (i, &k) in kappa.iter().enumerate() {
            assert!(
                k.is_finite() && (0.0..=1.0).contains(&k),
                "kappa[{i}] = {k} out of [0,1]"
            );
        }
        ThrottleVector { kappa }
    }

    /// The paper's §5/§6.2 heuristic: the `k` sources with the highest
    /// spam-proximity `scores` are throttled completely (`κ = 1`); all others
    /// not at all (`κ = 0`). Ties at the boundary are broken by ascending id.
    ///
    /// NaN policy: a NaN score (from a pathological upstream solve) ranks
    /// *last* and is never throttled — an unknown proximity must not earn a
    /// source full throttling. The former `partial_cmp(..).expect("finite
    /// scores")` panicked here instead.
    pub fn top_k_complete(scores: &[f64], k: usize) -> Self {
        let mut kappa = vec![0.0; scores.len()];
        for i in top_k_desc(scores, k) {
            if !scores[i as usize].is_nan() {
                kappa[i as usize] = 1.0;
            }
        }
        ThrottleVector { kappa }
    }

    /// Graded extension of the top-k heuristic: κ scales linearly with the
    /// spam-proximity score, `κ_i = min(1, scores_i / cap)` where `cap` is
    /// the `k`-th largest score (so everything at or above the paper's
    /// cut-off is still fully throttled, but the tail degrades smoothly
    /// instead of dropping to zero). Ablated against top-k in the benches.
    ///
    /// NaN policy (matching [`ThrottleVector::top_k_complete`]): NaN scores rank last when
    /// choosing the cap and map to `κ = 0`. Negative scores also clamp to 0
    /// so the output always satisfies the `κ ∈ [0, 1]` invariant.
    pub fn graded_linear(scores: &[f64], k: usize) -> Self {
        if scores.is_empty() {
            return ThrottleVector { kappa: Vec::new() };
        }
        // The k-th largest score (the largest for k = 0, the smallest for
        // k > n): the last id of the selected top-k.
        let top = top_k_desc(scores, k.clamp(1, scores.len()));
        let cap = scores[top[top.len() - 1] as usize];
        if cap.is_nan() || cap <= 0.0 {
            // NaN, zero or negative cap: nothing meaningful to scale by.
            return ThrottleVector::zeros(scores.len());
        }
        let kappa = scores
            .iter()
            .map(|&s| {
                if s.is_nan() {
                    0.0
                } else {
                    (s / cap).clamp(0.0, 1.0)
                }
            })
            .collect();
        ThrottleVector { kappa }
    }

    /// A copy of this vector with every factor scaled by `gamma` (clamped to
    /// `[0, 1]` against round-off) — the throttle-intensity axis of the γ
    /// sweeps: `γ = 0` disables throttling, `γ = 1` is this vector verbatim.
    ///
    /// # Panics
    /// Panics unless `gamma ∈ [0, 1]`.
    pub fn scaled(&self, gamma: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&gamma),
            "gamma must be in [0,1], got {gamma}"
        );
        ThrottleVector {
            kappa: self
                .kappa
                .iter()
                .map(|k| (k * gamma).clamp(0.0, 1.0))
                .collect(),
        }
    }

    /// `κ_i`.
    #[inline]
    pub fn get(&self, i: NodeId) -> f64 {
        self.kappa[i as usize]
    }

    /// Overwrites `κ_i`.
    ///
    /// # Panics
    /// Panics unless `value ∈ [0, 1]`.
    pub fn set(&mut self, i: NodeId, value: f64) {
        assert!(
            (0.0..=1.0).contains(&value),
            "kappa must be in [0,1], got {value}"
        );
        self.kappa[i as usize] = value;
    }

    /// Number of sources covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.kappa.len()
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.kappa.is_empty()
    }

    /// Raw slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.kappa
    }

    /// Number of fully-throttled sources (κ = 1).
    pub fn fully_throttled(&self) -> usize {
        self.kappa.iter().filter(|&&k| k >= 1.0).count()
    }

    /// Serializes as text: a `#kappa <n>` header then one value per line.
    /// Throttling vectors are operational state a ranking pipeline persists
    /// between crawls (the §5 proximity computation runs offline).
    pub fn write_text<W: std::io::Write>(&self, mut out: W) -> std::io::Result<()> {
        writeln!(out, "#kappa {}", self.kappa.len())?;
        for k in &self.kappa {
            writeln!(out, "{k}")?;
        }
        Ok(())
    }

    /// Reads a vector written by [`write_text`](ThrottleVector::write_text).
    pub fn read_text<R: std::io::Read>(input: R) -> std::io::Result<Self> {
        use std::io::{BufRead, BufReader, Error, ErrorKind};
        let bad = |m: String| Error::new(ErrorKind::InvalidData, m);
        let reader = BufReader::new(input);
        let mut lines = reader.lines();
        let header = lines
            .next()
            .ok_or_else(|| bad("empty kappa file".into()))??;
        let n: usize = header
            .strip_prefix("#kappa ")
            .ok_or_else(|| bad(format!("expected '#kappa <n>' header, got {header:?}")))?
            .trim()
            .parse()
            .map_err(|e| bad(format!("bad count: {e}")))?;
        let mut kappa = Vec::with_capacity(n);
        for line in lines {
            let line = line?;
            let t = line.trim();
            if t.is_empty() {
                continue;
            }
            let v: f64 = t
                .parse()
                .map_err(|e| bad(format!("bad kappa value {t:?}: {e}")))?;
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return Err(bad(format!("kappa value {v} out of [0,1]")));
            }
            kappa.push(v);
        }
        if kappa.len() != n {
            return Err(bad(format!(
                "header promised {n} values, found {}",
                kappa.len()
            )));
        }
        Ok(ThrottleVector { kappa })
    }
}

/// What happens to the mandated self-influence `κ_i` of a throttled source.
///
/// The paper's §4.1 analysis shows the self-edge *rewards* its owner: a
/// fully-throttled source keeps all its mass and enjoys the Eq. 4 one-time
/// optimum `σ* = (αz + (1−α)/|S|)/(1−α)` — the mean score `1/|S|` even with
/// zero in-flow, which in a heavy-tailed Web ranking is a *top-decile*
/// position. Under that literal reading, complete throttling silences a
/// spam source but cannot push it far down the ranking. The demotion the
/// paper's Figure 5 exhibits requires the mandated self-influence to be
/// *surrendered* rather than recycled, so both semantics are provided (and
/// compared side by side by the Figure 5 experiment and `bench_ablations`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelfEdgePolicy {
    /// Literal §3.3/§4.1 semantics: the walker follows the self-edge with
    /// probability `ακ_i`, so the throttled source keeps its own influence.
    /// Default.
    #[default]
    Retain,
    /// The mandated `κ_i` share of the row evaporates to the teleport
    /// distribution (the walker restarts instead of staying): a throttled
    /// source neither passes influence *nor* benefits from hoarding it.
    /// Rows become substochastic; the solver redistributes the deficit.
    Surrender,
}

/// Builds the influence-throttled transition matrix `T″` from a
/// row-stochastic `T′` and the throttling vector (§3.3):
///
/// * rows with `T′_ii ≥ κ_i` pass through unchanged;
/// * rows with `T′_ii < κ_i` get `T″_ii = κ_i` and off-diagonal entries
///   rescaled by `(1 − κ_i) / Σ_{j≠i} T′_ij`;
/// * a below-threshold row with **no** off-diagonal mass (a pure self-loop
///   or an all-zero dangling row with `κ_i > 0`) becomes a full self-loop
///   `T″_ii = 1` — there is nowhere else for its influence to go.
///
/// The output is row-stochastic wherever the input row had mass or `κ_i > 0`.
///
/// # Panics
/// Panics if `kappa.len() != transitions.num_nodes()`.
pub fn apply(transitions: &WeightedGraph, kappa: &ThrottleVector) -> WeightedGraph {
    apply_with_policy(transitions, kappa, SelfEdgePolicy::Retain)
}

/// [`apply`] with an explicit [`SelfEdgePolicy`]. Under
/// [`SelfEdgePolicy::Surrender`], each row's final self-edge weight is
/// reduced by the mandated `κ_i` (never below 0), leaving the row summing
/// to `1 − κ_i`; the solver routes the shortfall to teleport.
pub fn apply_with_policy(
    transitions: &WeightedGraph,
    kappa: &ThrottleVector,
    policy: SelfEdgePolicy,
) -> WeightedGraph {
    let n = transitions.num_nodes();
    assert_eq!(kappa.len(), n, "throttle vector length mismatch");
    let mut triples: Vec<(NodeId, NodeId, f64)> = Vec::with_capacity(transitions.num_edges() + n);
    for i in node_range(n) {
        let k = kappa.get(i);
        let neigh = transitions.neighbors(i);
        let weights = transitions.edge_weights(i);
        let self_w = transitions.weight(i, i).unwrap_or(0.0);
        let surrender = |w: f64| match policy {
            SelfEdgePolicy::Retain => w,
            SelfEdgePolicy::Surrender => (w - k).max(0.0),
        };
        if self_w >= k {
            // Row already meets its throttling threshold: copy verbatim
            // (minus any surrendered self-influence).
            for (&j, &w) in neigh.iter().zip(weights) {
                let w = if j == i { surrender(w) } else { w };
                if w > 0.0 || j == i && policy == SelfEdgePolicy::Retain {
                    triples.push((i, j, w));
                }
            }
            continue;
        }
        let off_mass: f64 = neigh
            .iter()
            .zip(weights)
            .filter(|&(&j, _)| j != i)
            .map(|(_, &w)| w)
            .sum();
        if off_mass <= 0.0 {
            let w = surrender(1.0);
            if w > 0.0 || policy == SelfEdgePolicy::Retain {
                triples.push((i, i, w));
            }
            continue;
        }
        let self_final = surrender(k);
        if self_final > 0.0 || policy == SelfEdgePolicy::Retain {
            triples.push((i, i, self_final));
        }
        let rescale = (1.0 - k) / off_mass;
        for (&j, &w) in neigh.iter().zip(weights) {
            if j != i {
                triples.push((i, j, w * rescale));
            }
        }
    }
    WeightedGraph::from_triples(n, triples)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row-stochastic 3-source matrix; source 0 self-edge 0.2.
    fn t_prime() -> WeightedGraph {
        WeightedGraph::from_triples(
            3,
            vec![
                (0, 0, 0.2),
                (0, 1, 0.5),
                (0, 2, 0.3),
                (1, 1, 0.6),
                (1, 0, 0.4),
                (2, 2, 1.0),
            ],
        )
    }

    #[test]
    fn below_threshold_row_is_rescaled() {
        let t = t_prime();
        let k = ThrottleVector::from_vec(vec![0.5, 0.0, 0.0]);
        let t2 = apply(&t, &k);
        assert!((t2.weight(0, 0).unwrap() - 0.5).abs() < 1e-12);
        // Off-diagonal 0.5/0.3 rescaled by (1-0.5)/0.8 = 0.625.
        assert!((t2.weight(0, 1).unwrap() - 0.3125).abs() < 1e-12);
        assert!((t2.weight(0, 2).unwrap() - 0.1875).abs() < 1e-12);
        assert!((t2.row_sum(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn above_threshold_row_unchanged() {
        let t = t_prime();
        let k = ThrottleVector::from_vec(vec![0.1, 0.5, 0.3]);
        let t2 = apply(&t, &k);
        // Row 0: self 0.2 >= 0.1 -> unchanged.
        assert_eq!(t2.weight(0, 0).unwrap(), 0.2);
        assert_eq!(t2.weight(0, 1).unwrap(), 0.5);
        // Row 1: self 0.6 >= 0.5 -> unchanged.
        assert_eq!(t2.weight(1, 0).unwrap(), 0.4);
        // Row 2: self 1.0 >= 0.3 -> unchanged.
        assert_eq!(t2.weight(2, 2).unwrap(), 1.0);
    }

    #[test]
    fn full_throttle_isolates_source() {
        let t = t_prime();
        let t2 = apply(&t, &ThrottleVector::full(3));
        assert_eq!(t2.weight(0, 0).unwrap(), 1.0);
        // Off-diagonals scaled by (1-1)/off = 0.
        assert_eq!(t2.weight(0, 1).unwrap(), 0.0);
        assert_eq!(t2.weight(0, 2).unwrap(), 0.0);
        assert!((t2.row_sum(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_throttle_is_identity() {
        let t = t_prime();
        let t2 = apply(&t, &ThrottleVector::zeros(3));
        assert_eq!(t, t2);
    }

    #[test]
    fn dangling_row_with_positive_kappa_becomes_self_loop() {
        let t = WeightedGraph::from_triples(2, vec![(0, 1, 1.0)]); // row 1 empty
        let k = ThrottleVector::from_vec(vec![0.0, 0.4]);
        let t2 = apply(&t, &k);
        assert_eq!(t2.weight(1, 1), Some(1.0));
    }

    #[test]
    fn dangling_row_with_zero_kappa_stays_empty() {
        let t = WeightedGraph::from_triples(2, vec![(0, 1, 1.0)]);
        let t2 = apply(&t, &ThrottleVector::zeros(2));
        assert_eq!(t2.out_degree(1), 0);
    }

    #[test]
    fn output_stays_row_stochastic() {
        let t = t_prime();
        for k in [0.0, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let t2 = apply(&t, &ThrottleVector::uniform(3, k));
            assert!(t2.is_row_stochastic(1e-12), "kappa {k}");
        }
    }

    #[test]
    fn top_k_complete_marks_largest() {
        let k = ThrottleVector::top_k_complete(&[0.1, 0.9, 0.5, 0.9], 2);
        assert_eq!(k.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
        assert_eq!(k.fully_throttled(), 2);
    }

    #[test]
    fn top_k_larger_than_n() {
        let k = ThrottleVector::top_k_complete(&[0.3, 0.1], 10);
        assert_eq!(k.fully_throttled(), 2);
    }

    #[test]
    fn graded_linear_saturates_at_cutoff() {
        let scores = [0.0, 0.2, 0.4, 0.8];
        let k = ThrottleVector::graded_linear(&scores, 2);
        // 2nd largest score = 0.4 => cap.
        assert_eq!(k.get(3), 1.0);
        assert_eq!(k.get(2), 1.0);
        assert!((k.get(1) - 0.5).abs() < 1e-12);
        assert_eq!(k.get(0), 0.0);
    }

    #[test]
    fn graded_linear_zero_scores() {
        let k = ThrottleVector::graded_linear(&[0.0, 0.0], 1);
        assert_eq!(k.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn top_k_ranks_nan_last_and_never_throttles_it() {
        // Regression: this used to panic on partial_cmp(..).expect(..).
        let scores = [0.1, f64::NAN, 0.9, 0.5];
        let k = ThrottleVector::top_k_complete(&scores, 2);
        assert_eq!(k.as_slice(), &[0.0, 0.0, 1.0, 1.0]);
        // Even when k covers everything, a NaN score never earns kappa = 1.
        let k = ThrottleVector::top_k_complete(&scores, 4);
        assert_eq!(k.as_slice(), &[1.0, 0.0, 1.0, 1.0]);
        // All-NaN input: nothing throttled, nothing panics.
        let k = ThrottleVector::top_k_complete(&[f64::NAN, f64::NAN], 1);
        assert_eq!(k.fully_throttled(), 0);
    }

    #[test]
    fn graded_linear_maps_nan_to_zero_kappa() {
        let scores = [0.8, f64::NAN, 0.4, 0.2];
        let k = ThrottleVector::graded_linear(&scores, 2);
        // Cap is the 2nd-largest real score (0.4); NaN ranks below it.
        assert_eq!(k.get(0), 1.0);
        assert_eq!(k.get(1), 0.0);
        assert_eq!(k.get(2), 1.0);
        assert!((k.get(3) - 0.5).abs() < 1e-12);
        // The output still satisfies the ThrottleVector invariant.
        let _ = ThrottleVector::from_vec(k.as_slice().to_vec());
        // All-NaN scores degrade to no throttling at all.
        let k = ThrottleVector::graded_linear(&[f64::NAN, f64::NAN], 1);
        assert_eq!(k.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn surrender_policy_strips_mandated_self_influence() {
        let t = t_prime();
        let k = ThrottleVector::from_vec(vec![0.5, 0.0, 0.0]);
        let t2 = apply_with_policy(&t, &k, SelfEdgePolicy::Surrender);
        // Row 0 transformed: self would be 0.5, surrendered entirely.
        assert_eq!(t2.weight(0, 0).unwrap_or(0.0), 0.0);
        // Off-diagonals rescaled exactly as under Retain.
        assert!((t2.weight(0, 1).unwrap() - 0.3125).abs() < 1e-12);
        // Row sums 1 - kappa.
        assert!((t2.row_sum(0) - 0.5).abs() < 1e-12);
        // Untouched rows (kappa = 0) identical.
        assert_eq!(t2.weight(1, 1).unwrap(), 0.6);
    }

    #[test]
    fn surrender_keeps_voluntary_excess_self_weight() {
        // Self 0.6 >= kappa 0.4: only the mandated 0.4 evaporates.
        let t = t_prime();
        let k = ThrottleVector::from_vec(vec![0.0, 0.4, 0.0]);
        let t2 = apply_with_policy(&t, &k, SelfEdgePolicy::Surrender);
        assert!((t2.weight(1, 1).unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(t2.weight(1, 0).unwrap(), 0.4);
        assert!((t2.row_sum(1) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn surrender_full_throttle_empties_row() {
        let t = t_prime();
        let t2 = apply_with_policy(&t, &ThrottleVector::full(3), SelfEdgePolicy::Surrender);
        for i in 0..3 {
            assert!(t2.row_sum(i) < 1e-12, "row {i} sum {}", t2.row_sum(i));
        }
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn from_vec_rejects_out_of_range() {
        ThrottleVector::from_vec(vec![1.5]);
    }

    #[test]
    fn text_roundtrip() {
        let k = ThrottleVector::from_vec(vec![0.0, 0.5, 1.0, 0.25]);
        let mut buf = Vec::new();
        k.write_text(&mut buf).unwrap();
        let back = ThrottleVector::read_text(&buf[..]).unwrap();
        assert_eq!(back, k);
    }

    #[test]
    fn read_text_rejects_bad_values() {
        assert!(ThrottleVector::read_text("#kappa 1\n1.5\n".as_bytes()).is_err());
        assert!(ThrottleVector::read_text("#kappa 2\n0.5\n".as_bytes()).is_err());
        assert!(ThrottleVector::read_text("no header\n".as_bytes()).is_err());
        assert!(ThrottleVector::read_text("#kappa 1\nNaN\n".as_bytes()).is_err());
    }

    #[test]
    fn set_and_get() {
        let mut k = ThrottleVector::zeros(2);
        k.set(1, 0.7);
        assert_eq!(k.get(1), 0.7);
        assert_eq!(k.get(0), 0.0);
    }

    #[test]
    fn scaled_interpolates_between_off_and_verbatim() {
        let k = ThrottleVector::from_vec(vec![0.0, 0.5, 1.0]);
        assert_eq!(k.scaled(0.0), ThrottleVector::zeros(3));
        assert_eq!(k.scaled(1.0), k);
        assert_eq!(k.scaled(0.5).as_slice(), &[0.0, 0.25, 0.5]);
    }

    #[test]
    #[should_panic(expected = "gamma must be in [0,1]")]
    fn scaled_rejects_out_of_range_gamma() {
        ThrottleVector::zeros(2).scaled(1.5);
    }
}
