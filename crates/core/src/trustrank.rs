//! TrustRank (Gyöngyi, Garcia-Molina & Pedersen, VLDB 2004) — the related-
//! work comparator the paper contrasts itself against: trust is propagated
//! *forward* from a seed of trusted sources, so honeypots and hijacked
//! high-trust pages can still leak trust to spam (the weakness §7 points
//! out, and which influence throttling addresses from the other direction).

use crate::batch::SolveColumn;
use crate::convergence::ConvergenceCriteria;
use crate::pagerank::PageRank;
use crate::rankvec::RankVector;
use crate::teleport::Teleport;
use sr_graph::CsrGraph;

/// TrustRank configuration. Defaults: α = 0.85, L2 < 1e-9.
#[derive(Debug, Clone, PartialEq)]
pub struct TrustRank {
    alpha: f64,
    criteria: ConvergenceCriteria,
}

impl Default for TrustRank {
    fn default() -> Self {
        TrustRank {
            alpha: 0.85,
            criteria: ConvergenceCriteria::default(),
        }
    }
}

impl TrustRank {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the damping parameter.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the stopping rule.
    pub fn criteria(mut self, criteria: ConvergenceCriteria) -> Self {
        self.criteria = criteria;
        self
    }

    /// Propagates trust from `trusted_seeds` forward over `graph`
    /// (personalized PageRank with the seed-restricted teleport).
    pub fn scores(&self, graph: &CsrGraph, trusted_seeds: &[u32]) -> RankVector {
        PageRank::builder()
            .alpha(self.alpha)
            .teleport(Teleport::over_seeds(graph.num_nodes(), trusted_seeds))
            .criteria(self.criteria)
            .finish()
            .rank(graph)
    }

    /// The [`SolveColumn`] of this configuration for an `n`-node graph —
    /// TrustRank is personalized PageRank, so it can ride in a batched
    /// [`crate::solve_batch`] panel alongside PageRank columns over the same
    /// uniform operator, bit-identical to [`scores`](TrustRank::scores)
    /// when the batch uses this configuration's stopping rule.
    pub fn column(&self, n: usize, trusted_seeds: &[u32]) -> SolveColumn {
        SolveColumn::new(self.alpha, Teleport::over_seeds(n, trusted_seeds))
    }

    /// The stopping rule (for aligning a batched solve's criteria).
    pub fn stopping_criteria(&self) -> ConvergenceCriteria {
        self.criteria
    }

    /// Relative spam mass (Gyöngyi et al., VLDB 2006): the fraction of a
    /// node's PageRank *not* accounted for by trusted sources,
    /// `(PR_i − λ·TR_i) / PR_i` clamped to `[0, 1]`, where λ rescales trust
    /// so the two vectors are comparable (we match their sums). Values near
    /// 1 indicate rank derived mostly from untrusted (potentially spam)
    /// links.
    pub fn spam_mass(&self, pagerank: &[f64], trust: &[f64]) -> Vec<f64> {
        assert_eq!(pagerank.len(), trust.len());
        let pr_sum: f64 = pagerank.iter().sum();
        let tr_sum: f64 = trust.iter().sum();
        let lambda = if tr_sum > 0.0 { pr_sum / tr_sum } else { 0.0 };
        pagerank
            .iter()
            .zip(trust)
            .map(|(&pr, &tr)| {
                if pr <= 0.0 {
                    0.0
                } else {
                    ((pr - lambda * tr) / pr).clamp(0.0, 1.0)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::UniformTransition;
    use sr_graph::GraphBuilder;

    /// trusted(0) -> 1 -> 2; spam cluster {3,4} links only internally.
    fn fixture() -> CsrGraph {
        GraphBuilder::from_edges_exact(5, vec![(0, 1), (1, 2), (3, 4), (4, 3)]).unwrap()
    }

    #[test]
    fn trust_decays_from_seed() {
        let g = fixture();
        let t = TrustRank::new().scores(&g, &[0]);
        assert!(t.score(0) > t.score(1));
        assert!(t.score(1) > t.score(2));
    }

    #[test]
    fn spam_cluster_gets_no_trust() {
        let g = fixture();
        let t = TrustRank::new().scores(&g, &[0]);
        assert!(t.score(3) < 1e-12);
        assert!(t.score(4) < 1e-12);
    }

    #[test]
    fn batched_column_is_bitwise_equal_to_scores() {
        use crate::batch::{solve_batch, BatchWorkspace, SolveBatch};
        let g = fixture();
        let tr = TrustRank::new();
        let seq = tr.scores(&g, &[0]);
        let batch = SolveBatch::new(vec![
            PageRank::default().column(),
            tr.column(g.num_nodes(), &[0]),
        ])
        .criteria(tr.stopping_criteria());
        let batched = solve_batch(
            &UniformTransition::new(&g),
            &batch,
            &mut BatchWorkspace::new(),
        );
        assert_eq!(batched.column(1).scores(), seq.scores());
        assert_eq!(
            batched.column(0).scores(),
            PageRank::default().rank(&g).scores()
        );
    }

    #[test]
    fn spam_mass_flags_untrusted_rank() {
        let g = fixture();
        let pr = PageRank::default().rank(&g);
        let tr = TrustRank::new().scores(&g, &[0]);
        let sm = TrustRank::new().spam_mass(pr.scores(), tr.scores());
        // The spam cycle carries PageRank but zero trust => spam mass ~ 1.
        assert!(sm[3] > 0.9, "spam mass of node 3 = {}", sm[3]);
        // The trusted seed itself has low spam mass.
        assert!(sm[0] < 0.5, "spam mass of node 0 = {}", sm[0]);
    }

    #[test]
    fn honeypot_leaks_trust_unlike_throttling() {
        // The §7 critique: a honeypot (1) collects a trusted link then
        // funnels to spam (2). TrustRank passes trust through.
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 1), (1, 2)]).unwrap();
        let t = TrustRank::new().scores(&g, &[0]);
        assert!(
            t.score(2) > 0.0,
            "TrustRank leaks trust to the honeypot target"
        );
    }
}
