//! Spam-proximity scoring (§5) — how the throttling vector is derived.
//!
//! Given a small seed of known spam sources, the paper propagates "badness"
//! with an inverse-PageRank over the *reversed* source graph (Eq. 6),
//! teleporting to the seed set — the BadRank idea. A source scores high when
//! it is spam, links to spam, or links to sources that link to spam,
//! recursively. The top-k scored sources are then throttled completely.
//!
//! Two reversed-walk weightings are provided:
//!
//! * [`ProximityWeighting::Consensus`] (default) — reversed edges carry the
//!   source-consensus weights of `T'`, so a source that devotes many of its
//!   pages to linking at spam inherits far more badness than a source with
//!   a single hijacked page. This is the natural source-level reading of
//!   Eq. 6 (whose `U` is "the transition matrix associated with the
//!   reversed source graph", and the source graph's matrix is consensus-
//!   weighted), and it is markedly more precise when hijacking is present.
//! * [`ProximityWeighting::Uniform`] — classic BadRank: every reversed edge
//!   weighs `1/indegree`. Kept for comparison; `bench_ablations` quantifies
//!   the difference.

use std::fmt;
use std::path::Path;

use crate::approx::{ApproxError, ApproxPpr, QueryConfig, WalkCacheBuilder, WalkCacheConfig};
use crate::batch::{solve_batch, BatchWorkspace, SolveBatch, SolveColumn};
use crate::convergence::ConvergenceCriteria;
use crate::operator::{Transition, UniformTransition, WeightedTransition};
use crate::power::{power_method, Formulation, PowerConfig, SolverWorkspace};
use crate::rankvec::RankVector;
use crate::teleport::{Teleport, TeleportError};
use crate::throttle::ThrottleVector;
use sr_graph::transpose::transpose;
use sr_graph::walks::WalkStore;
use sr_graph::{CsrGraph, SourceGraph, WeightedGraph};

/// Why a spam-proximity solve could not run. Degenerate teleport inputs
/// (empty seed sets, zero-mass badness priors) would otherwise normalize to
/// NaN and silently poison every downstream κ and rank.
#[derive(Debug, Clone, PartialEq)]
pub enum ProximityError {
    /// `spam_seeds` was empty — the seed teleport of Eq. 6 is undefined.
    EmptySeeds,
    /// A spam seed does not exist in the source graph.
    SeedOutOfRange {
        /// The offending seed id.
        seed: u32,
        /// The source count of the graph being scored.
        num_sources: usize,
    },
    /// The same spam seed appeared more than once — set-collapsing it would
    /// silently change the per-seed teleport mass the caller asked for.
    DuplicateSeed {
        /// The seed id that occurred twice.
        seed: u32,
    },
    /// A badness-prior weight was negative or non-finite.
    InvalidWeight {
        /// Index of the offending weight.
        index: usize,
    },
    /// Every badness-prior weight was zero — the teleport is undefined.
    ZeroMassTeleport,
}

impl fmt::Display for ProximityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProximityError::EmptySeeds => {
                write!(f, "spam seed set must be non-empty")
            }
            ProximityError::SeedOutOfRange { seed, num_sources } => {
                write!(f, "spam seed {seed} out of range for {num_sources} sources")
            }
            ProximityError::DuplicateSeed { seed } => {
                write!(f, "spam seed {seed} appears more than once in the seed set")
            }
            ProximityError::InvalidWeight { index } => write!(
                f,
                "badness prior must be finite and non-negative (weight {index})"
            ),
            ProximityError::ZeroMassTeleport => {
                write!(f, "badness prior must not be all zero")
            }
        }
    }
}

impl std::error::Error for ProximityError {}

impl From<TeleportError> for ProximityError {
    fn from(e: TeleportError) -> Self {
        match e {
            TeleportError::EmptySeeds => ProximityError::EmptySeeds,
            TeleportError::SeedOutOfRange { seed, num_nodes } => ProximityError::SeedOutOfRange {
                seed,
                num_sources: num_nodes,
            },
            TeleportError::DuplicateSeed { seed } => ProximityError::DuplicateSeed { seed },
            TeleportError::InvalidWeight { index } => ProximityError::InvalidWeight { index },
            TeleportError::ZeroMass => ProximityError::ZeroMassTeleport,
        }
    }
}

/// One column of a batched proximity run
/// ([`SpamProximity::scores_batch`]): a seed set and a mixing-factor β
/// point. Build with [`ProximityQuery::new`] or, to inherit a configured
/// β, [`SpamProximity::query`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProximityQuery {
    /// Labeled spam seeds of this column.
    pub seeds: Vec<u32>,
    /// Mixing factor β of this column (Eq. 6).
    pub beta: f64,
}

impl ProximityQuery {
    /// A query over `seeds` at mixing factor `beta`.
    pub fn new(seeds: Vec<u32>, beta: f64) -> Self {
        ProximityQuery { seeds, beta }
    }
}

/// Edge weighting of the reversed badness walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProximityWeighting {
    /// Uniform `1/indegree` over reversed structural edges (BadRank).
    Uniform,
    /// Reversed consensus weights, row-renormalized. Default.
    #[default]
    Consensus,
}

/// Spam-proximity configuration. Defaults: β = 0.85, consensus weighting,
/// the paper's L2 < 1e-9 stopping rule.
#[derive(Debug, Clone, PartialEq)]
pub struct SpamProximity {
    beta: f64,
    criteria: ConvergenceCriteria,
    weighting: ProximityWeighting,
}

impl Default for SpamProximity {
    fn default() -> Self {
        SpamProximity {
            beta: 0.85,
            criteria: ConvergenceCriteria::default(),
            weighting: ProximityWeighting::Consensus,
        }
    }
}

impl SpamProximity {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the mixing factor β of Eq. 6.
    pub fn beta(mut self, beta: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&beta),
            "beta must be in [0,1), got {beta}"
        );
        self.beta = beta;
        self
    }

    /// Sets the stopping rule.
    pub fn criteria(mut self, criteria: ConvergenceCriteria) -> Self {
        self.criteria = criteria;
        self
    }

    /// Sets the reversed-walk weighting.
    pub fn weighting(mut self, weighting: ProximityWeighting) -> Self {
        self.weighting = weighting;
        self
    }

    /// A [`ProximityQuery`] over `seeds` at this configuration's β — the
    /// building block of [`scores_batch`](SpamProximity::scores_batch).
    pub fn query(&self, seeds: Vec<u32>) -> ProximityQuery {
        ProximityQuery::new(seeds, self.beta)
    }

    /// Computes spam-proximity scores for every source of `source_graph`,
    /// dispatching on the configured weighting. Degenerate seed sets return
    /// a typed [`ProximityError`] — never NaN ranks.
    pub fn scores(
        &self,
        source_graph: &SourceGraph,
        spam_seeds: &[u32],
    ) -> Result<RankVector, ProximityError> {
        match self.weighting {
            ProximityWeighting::Uniform => {
                self.scores_uniform(source_graph.structural(), spam_seeds)
            }
            ProximityWeighting::Consensus => {
                self.scores_weighted(source_graph.transitions(), spam_seeds)
            }
        }
    }

    /// Uniform (BadRank-style) proximity over a structural source graph
    /// (no self-edges required).
    pub fn scores_uniform(
        &self,
        structural: &CsrGraph,
        spam_seeds: &[u32],
    ) -> Result<RankVector, ProximityError> {
        let teleport = Teleport::try_over_seeds(structural.num_nodes(), spam_seeds)?;
        Ok(self.solve(&Self::reversed_uniform(structural), teleport))
    }

    /// Consensus-weighted proximity: reverse the weighted transitions and
    /// renormalize each row so it is again a random walk.
    ///
    /// Self-edges are excluded from the reversed walk: badness measures
    /// where a source's links *to others* lead, and a reversed self-loop
    /// would instead let well-self-connected legitimate sources absorb and
    /// hoard badness mass.
    ///
    /// Dropping self-edges can leave reversed rows empty — most visibly for
    /// a source whose only transition is its dangling-policy self-loop. Such
    /// rows are *dangling* in the badness walk, and the power solve
    /// redistributes their mass through the **seed teleport** (Eq. 2), not
    /// uniformly: an isolated source's badness flows back to the spam seeds
    /// instead of smearing over innocent bystanders. Pinned by
    /// `isolated_self_loop_sources_leak_no_badness` below.
    pub fn scores_weighted(
        &self,
        transitions: &WeightedGraph,
        spam_seeds: &[u32],
    ) -> Result<RankVector, ProximityError> {
        let teleport = Teleport::try_over_seeds(transitions.num_nodes(), spam_seeds)?;
        Ok(self.solve(&Self::reversed_weighted(transitions), teleport))
    }

    /// Proximity with an arbitrary non-negative per-source badness prior in
    /// place of the uniform seed teleport (a graded labeling instead of a
    /// binary one). The prior need not be normalized — it is L1-normalized
    /// here, the documented fallback for unnormalized input; a zero-mass,
    /// negative or non-finite prior returns a typed error, never NaN ranks.
    pub fn scores_with_prior(
        &self,
        source_graph: &SourceGraph,
        badness_prior: &[f64],
    ) -> Result<RankVector, ProximityError> {
        let teleport = Teleport::try_from_weights(badness_prior.to_vec())?;
        Ok(match self.weighting {
            ProximityWeighting::Uniform => {
                self.solve(&Self::reversed_uniform(source_graph.structural()), teleport)
            }
            ProximityWeighting::Consensus => self.solve(
                &Self::reversed_weighted(source_graph.transitions()),
                teleport,
            ),
        })
    }

    /// Batched proximity: solves all of `queries` (each a seed-set/β point)
    /// in one SpMM panel family over a **single** reversed operator, instead
    /// of one edge-stream pass per query — the multi-seed personalization
    /// path of the sensitivity sweeps. Results are in query order and
    /// bit-identical to per-query [`scores`](SpamProximity::scores) calls.
    pub fn scores_batch(
        &self,
        source_graph: &SourceGraph,
        queries: &[ProximityQuery],
    ) -> Result<Vec<RankVector>, ProximityError> {
        let n = source_graph.num_sources();
        let mut columns = Vec::with_capacity(queries.len());
        for q in queries {
            assert!(
                (0.0..1.0).contains(&q.beta),
                "beta must be in [0,1), got {}",
                q.beta
            );
            columns.push(SolveColumn::new(
                q.beta,
                Teleport::try_over_seeds(n, &q.seeds)?,
            ));
        }
        let batch = SolveBatch::new(columns).criteria(self.criteria);
        let ws = &mut BatchWorkspace::new();
        let ranks = match self.weighting {
            ProximityWeighting::Uniform => solve_batch(
                &Self::reversed_uniform(source_graph.structural()),
                &batch,
                ws,
            ),
            ProximityWeighting::Consensus => solve_batch(
                &Self::reversed_weighted(source_graph.transitions()),
                &batch,
                ws,
            ),
        };
        Ok(ranks.into_columns())
    }

    /// The reversed structural operator of the uniform weighting — shared by
    /// the single and batched solve paths.
    fn reversed_uniform(structural: &CsrGraph) -> UniformTransition {
        UniformTransition::new(&transpose(structural))
    }

    /// The reversed, row-renormalized operator of the consensus weighting
    /// (self-edges dropped — see
    /// [`scores_weighted`](SpamProximity::scores_weighted)).
    fn reversed_weighted(transitions: &WeightedGraph) -> WeightedTransition {
        let n = transitions.num_nodes();
        let triples: Vec<(u32, u32, f64)> = transitions
            .edges()
            .filter(|&(u, v, w)| u != v && w > 0.0)
            .map(|(u, v, w)| (v, u, w))
            .collect();
        let mut inverted = WeightedGraph::from_triples(n, triples);
        inverted.normalize_rows();
        WeightedTransition::new(&inverted)
    }

    /// The one place a proximity solve is configured: every scoring entry
    /// point funnels its reversed operator and teleport through here.
    fn solve(&self, op: &dyn Transition, teleport: Teleport) -> RankVector {
        let config = PowerConfig {
            alpha: self.beta,
            teleport,
            criteria: self.criteria,
            formulation: Formulation::Eigenvector,
            dangling: Default::default(),
            initial: None,
        };
        let mut ws = SolverWorkspace::new();
        let stats = power_method(op, &config, &mut ws, None);
        RankVector::new(ws.take_solution(), stats)
    }

    /// Builds the Monte-Carlo walk cache of the uniform (BadRank-style)
    /// badness walk: `config.walks` reverse walks per source over the
    /// transposed structural graph, written to `path` (see
    /// [`crate::approx`]). `config.beta` is overridden by this
    /// configuration's β so cache and solver always agree.
    pub fn build_walk_cache(
        &self,
        structural: &CsrGraph,
        config: WalkCacheConfig,
        path: &Path,
    ) -> Result<WalkStore, ApproxError> {
        let config = WalkCacheConfig {
            beta: self.beta,
            ..config
        };
        WalkCacheBuilder::new(config).build(&transpose(structural), path)
    }

    /// Binds a walk cache built by
    /// [`build_walk_cache`](SpamProximity::build_walk_cache) into a reusable
    /// approximate query engine over `structural` — the sub-millisecond
    /// counterpart of [`scores_uniform`](SpamProximity::scores_uniform).
    /// Rejects caches built at a different β or for a different graph size.
    pub fn approx(
        &self,
        structural: &CsrGraph,
        cache: WalkStore,
    ) -> Result<ProximityApprox, ApproxError> {
        if cache.meta().beta().to_bits() != self.beta.to_bits() {
            return Err(ApproxError::CacheMismatch {
                message: format!(
                    "cache was built at beta {}, solver is configured for {}",
                    cache.meta().beta(),
                    self.beta
                ),
            });
        }
        let reversed = transpose(structural);
        if reversed.num_nodes() != cache.num_nodes() {
            return Err(ApproxError::CacheMismatch {
                message: format!(
                    "graph has {} sources, cache was built for {}",
                    reversed.num_nodes(),
                    cache.num_nodes()
                ),
            });
        }
        Ok(ProximityApprox { reversed, cache })
    }

    /// End-to-end §5 heuristic: score every source, throttle the top `k`
    /// completely (`κ = 1`), everyone else not at all.
    pub fn throttle_top_k(
        &self,
        source_graph: &SourceGraph,
        spam_seeds: &[u32],
        k: usize,
    ) -> Result<ThrottleVector, ProximityError> {
        let scores = self.scores(source_graph, spam_seeds)?;
        Ok(ThrottleVector::top_k_complete(scores.scores(), k))
    }
}

/// A bound approximate spam-proximity engine: the reversed structural graph
/// plus its walk cache, owned together so queries need no per-call setup.
/// Construct with [`SpamProximity::approx`]; query with
/// [`scores`](ProximityApprox::scores).
#[derive(Debug)]
pub struct ProximityApprox {
    reversed: CsrGraph,
    cache: WalkStore,
}

impl ProximityApprox {
    /// Approximate spam-proximity scores for `spam_seeds` — the fast-path
    /// counterpart of [`SpamProximity::scores_uniform`], accurate to the
    /// push ε plus the Monte-Carlo closing term (see [`crate::approx`]).
    pub fn scores(
        &self,
        spam_seeds: &[u32],
        config: &QueryConfig,
    ) -> Result<RankVector, ApproxError> {
        ApproxPpr::new(&self.reversed, &self.cache)?.query(spam_seeds, config)
    }

    /// The bound walk cache.
    pub fn cache(&self) -> &WalkStore {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_graph::source_graph::{extract, SourceGraphConfig};
    use sr_graph::{GraphBuilder, SourceAssignment};

    /// 0 -> spam(3); 1 -> 0; 2 -> 1. In the reversed graph, badness flows
    /// 3 -> 0 -> 1 -> 2.
    fn chain() -> CsrGraph {
        GraphBuilder::from_edges_exact(4, vec![(0, 3), (1, 0), (2, 1)]).unwrap()
    }

    #[test]
    fn seeds_score_highest() {
        let g = chain();
        let r = SpamProximity::new().scores_uniform(&g, &[3]).unwrap();
        assert_eq!(r.sorted_desc()[0], 3);
    }

    #[test]
    fn proximity_decays_with_distance() {
        let g = chain();
        let r = SpamProximity::new().scores_uniform(&g, &[3]).unwrap();
        assert!(r.score(0) > r.score(1));
        assert!(r.score(1) > r.score(2));
    }

    #[test]
    fn sources_not_linking_to_spam_score_low() {
        let g = GraphBuilder::from_edges_exact(4, vec![(2, 1), (1, 0)]).unwrap();
        let r = SpamProximity::new().scores_uniform(&g, &[0]).unwrap();
        assert!(r.score(3) < r.score(1));
        assert!(r.score(3) < r.score(2), "{:?}", r.scores());
    }

    #[test]
    fn empty_seed_rejected() {
        let g = chain();
        let r = SpamProximity::new().scores_uniform(&g, &[]);
        assert_eq!(r.unwrap_err(), ProximityError::EmptySeeds);
    }

    #[test]
    fn beta_controls_propagation_reach() {
        let g = chain();
        let near = SpamProximity::new()
            .beta(0.5)
            .scores_uniform(&g, &[3])
            .unwrap();
        let far = SpamProximity::new()
            .beta(0.95)
            .scores_uniform(&g, &[3])
            .unwrap();
        let near_ratio = near.score(1) / near.score(3);
        let far_ratio = far.score(1) / far.score(3);
        assert!(far_ratio > near_ratio);
    }

    #[test]
    fn multiple_seeds() {
        let g = GraphBuilder::from_edges_exact(5, vec![(0, 3), (1, 4), (2, 0)]).unwrap();
        let r = SpamProximity::new().scores_uniform(&g, &[3, 4]).unwrap();
        assert!(r.score(0) > r.score(2));
        assert!(r.score(1) > r.score(2));
    }

    /// Page graph with four sources: spam s2; s0 devotes many pages to
    /// linking s2 (a colluder); s1 has a single hijacked page linking s2
    /// and otherwise links the neutral source s3.
    fn hijack_vs_colluder() -> SourceGraph {
        let mut edges = Vec::new();
        // s0: pages 0..10, eight of them link into s2's page 20.
        for p in 0..8 {
            edges.push((p, 20u32));
        }
        // s1: pages 10..20; one hijacked page links s2; the rest link the
        // neutral source s3 (page 22).
        edges.push((10, 20));
        for p in 11..20 {
            edges.push((p, 22u32));
        }
        // s2: pages 20..22, internal farm.
        edges.push((20, 21));
        edges.push((21, 20));
        let g = GraphBuilder::from_edges_exact(24, edges).unwrap();
        let mut map = vec![0u32; 24];
        map[10..20].fill(1);
        map[20] = 2;
        map[21] = 2;
        map[22] = 3;
        map[23] = 3;
        let a = SourceAssignment::new(map, 4).unwrap();
        extract(&g, &a, SourceGraphConfig::consensus()).unwrap()
    }

    #[test]
    fn consensus_weighting_separates_colluder_from_hijack_victim() {
        let sg = hijack_vs_colluder();
        let weighted = SpamProximity::new().scores(&sg, &[2]).unwrap();
        // The colluder (8 of 10 pages pointing at spam) must score well
        // above the hijack victim (1 of 10 pages).
        assert!(
            weighted.score(0) > 2.0 * weighted.score(1),
            "colluder {} vs victim {}",
            weighted.score(0),
            weighted.score(1)
        );
        // Uniform weighting cannot tell them apart nearly as well.
        let uniform = SpamProximity::new()
            .weighting(ProximityWeighting::Uniform)
            .scores(&sg, &[2])
            .unwrap();
        let weighted_ratio = weighted.score(0) / weighted.score(1);
        let uniform_ratio = uniform.score(0) / uniform.score(1);
        assert!(
            weighted_ratio > uniform_ratio,
            "consensus ratio {weighted_ratio} should exceed uniform ratio {uniform_ratio}"
        );
    }

    #[test]
    fn isolated_self_loop_sources_leak_no_badness() {
        // Two isolated sources whose pages only link internally: with the
        // SelfLoop dangling policy each source's transition row is exactly
        // its augmented self-loop. scores_weighted drops self-edges, so the
        // reversed walk has *no* edges at all — every row is dangling.
        let g = GraphBuilder::from_edges_exact(4, vec![(0, 1), (2, 3)]).unwrap();
        let a = SourceAssignment::new(vec![0, 0, 1, 1], 2).unwrap();
        let sg = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();
        let r = SpamProximity::new()
            .scores_weighted(sg.transitions(), &[0])
            .unwrap();
        // Dangling mass must be redistributed through the seed teleport
        // (Eq. 2), making c = [1, 0] the exact fixed point. A uniform
        // redistribution would instead give source 1 a score of β/2.
        assert_eq!(r.score(0), 1.0);
        assert_eq!(r.score(1), 0.0, "non-seed must receive no dangling mass");
        assert!(r.stats().converged);
    }

    #[test]
    fn throttle_top_k_covers_seed_and_colluder() {
        let sg = hijack_vs_colluder();
        let t = SpamProximity::new().throttle_top_k(&sg, &[2], 2).unwrap();
        assert_eq!(t.get(2), 1.0, "seed must be throttled");
        assert_eq!(t.get(0), 1.0, "heavy colluder must be throttled");
        assert_eq!(t.get(1), 0.0, "hijack victim should survive at k=2");
    }
}
