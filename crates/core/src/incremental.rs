//! Incremental delta-graph re-ranking (the paper's §6 loop, without the
//! rebuilds).
//!
//! The evaluation applies a *sequence* of localized page-graph mutations
//! (spam campaigns inject farms, hijack pages, grow colluding clusters) and
//! re-ranks after each step. The seed pipeline rebuilt the CSR graph,
//! re-extracted the source graph and re-solved all three rankings from
//! scratch every time. This module keeps all of that state warm:
//!
//! * [`OverlayTransition`] — a PageRank operator over a
//!   [`sr_graph::DeltaOverlay`]: the cached base operator handles the
//!   untouched rows, a sparse correction scatter handles the patched ones.
//!   No transpose, no repartition, no repacking per delta.
//! * [`IncrementalRanker`] — owns the overlay, the incrementally maintained
//!   source graph, the solver workspaces and the previous solutions; each
//!   [`apply`](IncrementalRanker::apply) mutates the graph and re-solves
//!   PageRank, SourceRank and SR-SourceRank via warm restart, reporting
//!   telemetry through any [`SolveObserver`] (use
//!   [`sr_obs::SequenceRecorder`] to keep all three solves per delta).
//!
//! # Equivalence contract
//!
//! The incremental path is not an approximation of the rebuild path. The
//! overlay graph is bit-identical to a from-scratch rebuild (see
//! `sr_graph::delta`), and the maintained source graph is bit-identical to a
//! full re-extraction. The solves differ only in operator association and
//! starting iterate, both of which the fixed point is insensitive to: with a
//! stopping tolerance of `1e-14`, incremental and rebuilt rankings agree to
//! within `1e-12` (the differential tests in `tests/incremental_differential.rs`
//! pin this). The warm restart changes *where the iteration starts*, never
//! where it converges.

use crate::convergence::ConvergenceCriteria;
use crate::operator::{Transition, UniformTransition};
use crate::pagerank::PageRank;
use crate::power::SolverWorkspace;
use crate::rankvec::RankVector;
use crate::solver::Solver;
use crate::sourcerank::SourceRank;
use crate::spam_resilient::SpamResilientSourceRank;
use crate::throttle::{SelfEdgePolicy, ThrottleVector};
use sr_graph::ids::node_id;
use sr_graph::source_graph::SourceGraphConfig;
use sr_graph::{
    CrawlDelta, CsrGraph, DeltaOverlay, DeltaSummary, GraphError, SourceAssignment, SourceGraph,
    SourceGraphMaintainer,
};
use sr_obs::SolveObserver;

/// Uniform (PageRank) transition operator over a [`DeltaOverlay`].
///
/// Propagation is the cached base operator's fused kernel over the base
/// rows, followed by a sparse sequential *correction scatter* over the
/// patched rows: each patched row retracts its base contribution
/// (`x[u]/deg_base` from every base target, or from the dangling mass if the
/// base row was empty) and deposits its new one (`x[u]/deg_new`, or dangling
/// if now empty). Appended nodes without a patch are pure dangling rows.
///
/// Cost per application: the base kernel plus `O(Σ patched row lengths)` —
/// independent of how many deltas have accumulated. The scatter runs in
/// ascending row order with plain sequential arithmetic, so the result is a
/// pure function of `(overlay, x)`: deterministic at any thread count,
/// though not bitwise-identical to the rebuilt operator (the additions
/// associate differently), which is why the equivalence contract is stated
/// at the solve level.
pub struct OverlayTransition<'a> {
    base_op: &'a UniformTransition,
    overlay: &'a DeltaOverlay,
}

impl<'a> OverlayTransition<'a> {
    /// Couples a base operator with the overlay it was built from.
    ///
    /// # Panics
    /// Panics if `base_op` does not cover exactly the overlay's base graph.
    pub fn new(base_op: &'a UniformTransition, overlay: &'a DeltaOverlay) -> Self {
        assert_eq!(
            base_op.num_nodes(),
            overlay.base().num_nodes(),
            "base operator does not match the overlay's base graph"
        );
        OverlayTransition { base_op, overlay }
    }
}

impl Transition for OverlayTransition<'_> {
    fn num_nodes(&self) -> usize {
        self.overlay.num_nodes()
    }

    fn propagate_with(&self, x: &[f64], y: &mut [f64], scratch: &mut [f64]) -> f64 {
        let n = self.num_nodes();
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        assert_eq!(scratch.len(), n);
        let nb = self.overlay.base().num_nodes();
        let mut dangling = self
            .base_op
            .propagate_with(&x[..nb], &mut y[..nb], &mut scratch[..nb]);
        for yv in &mut y[nb..] {
            *yv = 0.0;
        }
        // Appended nodes that never gained edges are dangling rows.
        for (u, &xu) in x.iter().enumerate().skip(nb) {
            if !self.overlay.is_patched(node_id(u)) {
                dangling += xu;
            }
        }
        // Correction scatter over the patched rows, ascending row order.
        let base = self.overlay.base();
        for (u, new_row) in self.overlay.patched_rows() {
            let xu = x[u as usize];
            if (u as usize) < nb {
                let old_row = base.neighbors(u);
                if old_row.is_empty() {
                    dangling -= xu;
                } else {
                    let w = xu / old_row.len() as f64;
                    for &v in old_row {
                        y[v as usize] -= w;
                    }
                }
            }
            if new_row.is_empty() {
                dangling += xu;
            } else {
                let w = xu / new_row.len() as f64;
                for &v in new_row {
                    y[v as usize] += w;
                }
            }
        }
        dangling
    }
}

/// Configuration of an [`IncrementalRanker`]. Defaults match the paper's
/// evaluation: α = 0.85, L2 < 1e-9, power solver, consensus source graph,
/// paper-literal self-edge policy, compaction at 25% patched rows.
#[derive(Debug, Clone)]
pub struct IncrementalConfig {
    /// Mixing parameter α shared by all three rankings.
    pub alpha: f64,
    /// Stopping rule shared by all three rankings.
    pub criteria: ConvergenceCriteria,
    /// Iterative solver for the source-level rankings. Note that
    /// [`Solver::GaussSeidel`] has no warm path and re-solves cold each
    /// delta (see [`crate::solver::solve_weighted`]).
    pub solver: Solver,
    /// Source-graph extraction configuration.
    pub source_config: SourceGraphConfig,
    /// What happens to the mandated self-influence of throttled sources.
    pub self_edge_policy: SelfEdgePolicy,
    /// Fold the overlay back into canonical CSR form (and rebuild the base
    /// operator) once the patched-row fraction exceeds this. `1.0` never
    /// compacts; `0.0` compacts every delta.
    pub compact_threshold: f64,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            alpha: 0.85,
            criteria: ConvergenceCriteria::default(),
            solver: Solver::Power,
            source_config: SourceGraphConfig::consensus(),
            self_edge_policy: SelfEdgePolicy::Retain,
            compact_threshold: 0.25,
        }
    }
}

/// Outcome of one [`IncrementalRanker::apply`] step.
#[derive(Debug)]
pub struct DeltaRerank {
    /// What the page-graph delta actually changed.
    pub summary: DeltaSummary,
    /// Sources whose consensus rows were re-extracted (sorted).
    pub touched_sources: Vec<u32>,
    /// PageRank over the mutated page graph.
    pub pagerank: RankVector,
    /// Baseline SourceRank over the maintained source graph.
    pub sourcerank: RankVector,
    /// Spam-Resilient SourceRank over the maintained source graph.
    pub resilient: RankVector,
    /// Whether this step folded the overlay back into CSR form.
    pub compacted: bool,
}

/// The incremental re-ranking engine: page-graph overlay + maintained source
/// graph + warm-started solves for PageRank, SourceRank and SR-SourceRank.
///
/// Each [`apply`](IncrementalRanker::apply) costs the delta's touched rows
/// (graph + source maintenance) plus three warm solves — after a localized
/// mutation the previous stationary vectors are excellent initial iterates
/// and typically halve the iteration count (`bench_kernels` records the
/// delta-vs-rebuild figures).
pub struct IncrementalRanker {
    overlay: DeltaOverlay,
    maintainer: SourceGraphMaintainer,
    /// Fused PageRank operator over `overlay.base()`; rebuilt at compaction.
    base_op: UniformTransition,
    pagerank: PageRank,
    sourcerank: SourceRank,
    alpha: f64,
    criteria: ConvergenceCriteria,
    solver: Solver,
    kappa: ThrottleVector,
    self_edge_policy: SelfEdgePolicy,
    compact_threshold: f64,
    page_scores: Option<Vec<f64>>,
    source_scores: Option<Vec<f64>>,
    resilient_scores: Option<Vec<f64>>,
    ws_pages: SolverWorkspace,
    ws_sources: SolverWorkspace,
    ws_resilient: SolverWorkspace,
    compactions: usize,
}

impl IncrementalRanker {
    /// Seeds the engine: full source-graph extraction, base operator build,
    /// no throttling (κ = 0 everywhere; see
    /// [`set_throttle`](IncrementalRanker::set_throttle)).
    pub fn new(
        page_graph: CsrGraph,
        assignment: &SourceAssignment,
        config: IncrementalConfig,
    ) -> Result<Self, GraphError> {
        let maintainer = SourceGraphMaintainer::new(&page_graph, assignment, config.source_config)?;
        let base_op = UniformTransition::new(&page_graph);
        let overlay = DeltaOverlay::new(page_graph);
        let pagerank = PageRank::builder()
            .alpha(config.alpha)
            .criteria(config.criteria)
            .finish();
        let sourcerank = SourceRank::new()
            .alpha(config.alpha)
            .criteria(config.criteria)
            .solver(config.solver);
        Ok(IncrementalRanker {
            overlay,
            maintainer,
            base_op,
            pagerank,
            sourcerank,
            alpha: config.alpha,
            criteria: config.criteria,
            solver: config.solver,
            kappa: ThrottleVector::zeros(assignment.num_sources()),
            self_edge_policy: config.self_edge_policy,
            compact_threshold: config.compact_threshold,
            page_scores: None,
            source_scores: None,
            resilient_scores: None,
            ws_pages: SolverWorkspace::new(),
            ws_sources: SolverWorkspace::new(),
            ws_resilient: SolverWorkspace::new(),
            compactions: 0,
        })
    }

    /// The mutated page graph as an overlay.
    pub fn graph(&self) -> &DeltaOverlay {
        &self.overlay
    }

    /// The maintained source-graph state.
    pub fn maintainer(&self) -> &SourceGraphMaintainer {
        &self.maintainer
    }

    /// Assembles the current source graph.
    pub fn source_graph(&self) -> SourceGraph {
        self.maintainer.source_graph()
    }

    /// Pages currently ranked.
    pub fn num_pages(&self) -> usize {
        self.overlay.num_nodes()
    }

    /// Sources currently ranked.
    pub fn num_sources(&self) -> usize {
        self.maintainer.num_sources()
    }

    /// The active throttling vector κ.
    pub fn kappa(&self) -> &ThrottleVector {
        &self.kappa
    }

    /// Times the overlay has been folded back into CSR form.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// Replaces the throttling vector — e.g. with a fresh spam-proximity
    /// top-k after new spam sources were identified. Takes effect at the
    /// next [`apply`](IncrementalRanker::apply) / [`rerank`](IncrementalRanker::rerank).
    ///
    /// # Panics
    /// Panics unless `kappa` covers exactly the current sources.
    pub fn set_throttle(&mut self, kappa: ThrottleVector) {
        assert_eq!(
            kappa.len(),
            self.num_sources(),
            "throttle vector length mismatch"
        );
        self.kappa = kappa;
    }

    /// Applies one crawl delta and re-solves all three rankings via warm
    /// restart. New sources enter unthrottled (κ = 0) until
    /// [`set_throttle`](IncrementalRanker::set_throttle) says otherwise.
    ///
    /// Validation happens before any mutation: on `Err` the engine is
    /// unchanged. Compaction (when the patched-row fraction passes the
    /// configured threshold) runs *before* the solves, so a just-folded
    /// overlay is ranked through its clean base operator.
    pub fn apply(
        &mut self,
        delta: &CrawlDelta,
        observer: Option<&mut (dyn SolveObserver + '_)>,
    ) -> Result<DeltaRerank, GraphError> {
        // Pre-validate the assignment half so the maintainer cannot fail
        // after the overlay has already been mutated.
        if delta.new_page_sources.len() != delta.graph.new_nodes() {
            return Err(GraphError::AssignmentLengthMismatch {
                graph_pages: delta.graph.new_nodes(),
                assignment_pages: delta.new_page_sources.len(),
            });
        }
        let new_num_sources = self.num_sources() + delta.new_sources;
        for &s in &delta.new_page_sources {
            if s as usize >= new_num_sources {
                return Err(GraphError::SourceOutOfRange {
                    source: s,
                    num_sources: new_num_sources,
                });
            }
        }
        // Endpoint validation happens inside the overlay, before mutation.
        let summary = self.overlay.apply(&delta.graph)?;
        let touched_sources = self
            .maintainer
            .apply(&self.overlay, delta)
            .expect("maintainer delta was pre-validated");
        if delta.new_sources > 0 {
            let mut kappa = self.kappa.as_slice().to_vec();
            kappa.resize(new_num_sources, 0.0);
            self.kappa = ThrottleVector::from_vec(kappa);
        }

        let compacted = if self.overlay.patched_fraction() > self.compact_threshold {
            self.overlay.compact();
            self.base_op = UniformTransition::new(self.overlay.base());
            self.compactions += 1;
            true
        } else {
            false
        };

        let (pagerank, sourcerank, resilient) = self.rerank(observer);
        Ok(DeltaRerank {
            summary,
            touched_sources,
            pagerank,
            sourcerank,
            resilient,
            compacted,
        })
    }

    /// Re-solves all three rankings on the current state (warm where
    /// previous solutions exist, cold on the very first call), updating the
    /// stored warm-start vectors. The observer sees the solves in order
    /// PageRank, SourceRank, SR-SourceRank.
    pub fn rerank(
        &mut self,
        mut observer: Option<&mut (dyn SolveObserver + '_)>,
    ) -> (RankVector, RankVector, RankVector) {
        let op = OverlayTransition::new(&self.base_op, &self.overlay);
        let pagerank = self.pagerank.rank_operator_warm_in(
            &op,
            self.page_scores.as_deref(),
            &mut self.ws_pages,
            observer.as_deref_mut(),
        );
        self.page_scores = Some(pagerank.scores().to_vec());

        let sg = self.maintainer.source_graph();
        let sourcerank = self.sourcerank.rank_warm_in(
            &sg,
            self.source_scores.as_deref(),
            &mut self.ws_sources,
            observer.as_deref_mut(),
        );
        self.source_scores = Some(sourcerank.scores().to_vec());

        let model = SpamResilientSourceRank::builder()
            .alpha(self.alpha)
            .criteria(self.criteria)
            .solver(self.solver)
            .self_edge_policy(self.self_edge_policy)
            .throttle(self.kappa.clone())
            .build(&sg);
        let resilient = model.rank_warm_in(
            self.resilient_scores.as_deref(),
            &mut self.ws_resilient,
            observer,
        );
        self.resilient_scores = Some(resilient.scores().to_vec());

        (pagerank, sourcerank, resilient)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_graph::{GraphBuilder, GraphDelta};

    fn base_graph() -> CsrGraph {
        GraphBuilder::from_edges_exact(
            6,
            vec![(0, 1), (0, 3), (1, 3), (1, 4), (3, 0), (4, 5), (5, 4)],
        )
        .unwrap()
    }

    fn assignment() -> SourceAssignment {
        SourceAssignment::new(vec![0, 0, 0, 1, 1, 2], 3).unwrap()
    }

    fn overlay_matches_rebuild(overlay: &DeltaOverlay, base_op: &UniformTransition) {
        let rebuilt = overlay.to_csr();
        let fresh = UniformTransition::new(&rebuilt);
        let n = overlay.num_nodes();
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 2) as f64).collect();
        let inc_op = OverlayTransition::new(base_op, overlay);
        let (mut y_inc, mut y_ref) = (vec![0.0; n], vec![0.0; n]);
        let d_inc = inc_op.propagate(&x, &mut y_inc);
        let d_ref = fresh.propagate(&x, &mut y_ref);
        assert!((d_inc - d_ref).abs() < 1e-12, "{d_inc} vs {d_ref}");
        for (a, b) in y_inc.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-12, "{y_inc:?} vs {y_ref:?}");
        }
    }

    #[test]
    fn overlay_transition_equals_base_without_patches() {
        let g = base_graph();
        let base_op = UniformTransition::new(&g);
        let overlay = DeltaOverlay::new(g);
        overlay_matches_rebuild(&overlay, &base_op);
    }

    #[test]
    fn overlay_transition_tracks_adds_removes_and_new_nodes() {
        let g = base_graph();
        let base_op = UniformTransition::new(&g);
        let mut overlay = DeltaOverlay::new(g);
        let mut d = GraphDelta::new();
        d.add_nodes(2);
        d.add_edge(6, 0); // new node links in
        d.add_edge(2, 6); // formerly dangling row gains an edge
        d.remove_edge(1, 3); // existing row shrinks
        d.remove_edge(4, 5); // row 4 becomes dangling
        overlay.apply(&d).unwrap();
        // Node 7 stays appended-and-dangling.
        overlay_matches_rebuild(&overlay, &base_op);
    }

    #[test]
    fn overlay_transition_handles_fully_emptied_row() {
        let g = base_graph();
        let base_op = UniformTransition::new(&g);
        let mut overlay = DeltaOverlay::new(g);
        let mut d = GraphDelta::new();
        d.remove_edge(0, 1);
        d.remove_edge(0, 3); // row 0 now dangling
        overlay.apply(&d).unwrap();
        overlay_matches_rebuild(&overlay, &base_op);
    }

    fn tight() -> ConvergenceCriteria {
        ConvergenceCriteria {
            tolerance: 1e-14,
            max_iterations: 5_000,
            ..Default::default()
        }
    }

    /// Cold-rebuild reference for the three rankings on the current state.
    fn cold_reference(
        overlay: &DeltaOverlay,
        assignment: &SourceAssignment,
        kappa: &ThrottleVector,
    ) -> (RankVector, RankVector, RankVector) {
        let rebuilt = overlay.to_csr();
        let sg =
            sr_graph::source_graph::extract(&rebuilt, assignment, SourceGraphConfig::consensus())
                .unwrap();
        let pr = PageRank::builder()
            .criteria(tight())
            .finish()
            .rank(&rebuilt);
        let sr = SourceRank::new().criteria(tight()).rank(&sg);
        let rr = SpamResilientSourceRank::builder()
            .criteria(tight())
            .throttle(kappa.clone())
            .build(&sg)
            .rank();
        (pr, sr, rr)
    }

    fn assert_close(inc: &RankVector, cold: &RankVector, what: &str) {
        assert_eq!(inc.scores().len(), cold.scores().len());
        for (i, (a, b)) in inc.scores().iter().zip(cold.scores()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12,
                "{what}[{i}]: incremental {a} vs cold {b}"
            );
        }
    }

    #[test]
    fn incremental_matches_cold_rebuild_across_a_delta_sequence() {
        let config = IncrementalConfig {
            criteria: tight(),
            compact_threshold: 1.0, // never compact: exercise the overlay path
            ..Default::default()
        };
        let mut ranker = IncrementalRanker::new(base_graph(), &assignment(), config).unwrap();

        // Step 1: a spam farm appears as a new source with two pages.
        let mut d1 = CrawlDelta::new();
        d1.graph.add_nodes(2);
        d1.graph.add_edge(6, 7);
        d1.graph.add_edge(7, 6);
        d1.graph.add_edge(2, 6); // hijacked page points at the farm
        d1.new_page_sources = vec![3, 3];
        d1.new_sources = 1;
        // Step 2: the farm is cut off and an honest link appears.
        let mut d2 = CrawlDelta::new();
        d2.graph.remove_edge(2, 6);
        d2.graph.add_edge(2, 4);
        for delta in [&d1, &d2] {
            let out = ranker.apply(delta, None).unwrap();
            let (pr, sr, rr) = cold_reference(
                ranker.graph(),
                &ranker.maintainer().assignment(),
                ranker.kappa(),
            );
            assert_close(&out.pagerank, &pr, "pagerank");
            assert_close(&out.sourcerank, &sr, "sourcerank");
            assert_close(&out.resilient, &rr, "resilient");
            assert!(!out.compacted);
        }
        assert!(ranker.graph().patched_row_count() > 0);
    }

    #[test]
    fn warm_restart_iterates_less_than_cold() {
        let mut ranker =
            IncrementalRanker::new(base_graph(), &assignment(), IncrementalConfig::default())
                .unwrap();
        let (first, ..) = ranker.rerank(None); // cold baseline solve
        let mut d = CrawlDelta::new();
        d.graph.add_edge(2, 4);
        let out = ranker.apply(&d, None).unwrap();
        let cold = PageRank::default().rank(&ranker.graph().to_csr());
        assert!(
            out.pagerank.stats().iterations < cold.stats().iterations,
            "warm {} vs cold {}",
            out.pagerank.stats().iterations,
            cold.stats().iterations
        );
        assert!(first.stats().iterations >= out.pagerank.stats().iterations);
    }

    #[test]
    fn compaction_preserves_rankings_and_rebuilds_base() {
        let config = IncrementalConfig {
            criteria: tight(),
            compact_threshold: 0.0, // always compact
            ..Default::default()
        };
        let mut ranker = IncrementalRanker::new(base_graph(), &assignment(), config).unwrap();
        let mut d = CrawlDelta::new();
        d.graph.add_edge(5, 0);
        d.graph.remove_edge(0, 3);
        let out = ranker.apply(&d, None).unwrap();
        assert!(out.compacted);
        assert_eq!(ranker.compactions(), 1);
        assert_eq!(ranker.graph().patched_row_count(), 0);
        let (pr, sr, rr) = cold_reference(
            ranker.graph(),
            &ranker.maintainer().assignment(),
            ranker.kappa(),
        );
        assert_close(&out.pagerank, &pr, "pagerank");
        assert_close(&out.sourcerank, &sr, "sourcerank");
        assert_close(&out.resilient, &rr, "resilient");
    }

    #[test]
    fn new_sources_enter_unthrottled_and_set_throttle_takes_effect() {
        let mut ranker =
            IncrementalRanker::new(base_graph(), &assignment(), IncrementalConfig::default())
                .unwrap();
        let mut d = CrawlDelta::new();
        d.graph.add_nodes(1);
        d.graph.add_edge(6, 6);
        d.new_page_sources = vec![3];
        d.new_sources = 1;
        let out = ranker.apply(&d, None).unwrap();
        assert_eq!(ranker.kappa().len(), 4);
        assert_eq!(ranker.kappa().get(3), 0.0);
        let before = out.resilient.score(3);
        let mut kappa = ThrottleVector::zeros(4);
        kappa.set(3, 1.0);
        ranker.set_throttle(kappa);
        let (_, _, rr) = ranker.rerank(None);
        assert!(rr.score(3) <= before + 1e-12);
        assert_eq!(ranker.kappa().get(3), 1.0);
    }

    #[test]
    fn invalid_deltas_leave_the_engine_unchanged() {
        let mut ranker =
            IncrementalRanker::new(base_graph(), &assignment(), IncrementalConfig::default())
                .unwrap();
        let mut bad = CrawlDelta::new();
        bad.graph.add_nodes(1);
        bad.new_page_sources = vec![9]; // source out of range
        assert!(ranker.apply(&bad, None).is_err());
        let mut bad = CrawlDelta::new();
        bad.graph.add_edge(0, 42); // node out of range
        assert!(ranker.apply(&bad, None).is_err());
        assert_eq!(ranker.num_pages(), 6);
        assert_eq!(ranker.num_sources(), 3);
        assert_eq!(ranker.graph().num_edges(), 7);
    }

    #[test]
    fn observer_sees_three_labeled_solves_per_delta() {
        let mut ranker =
            IncrementalRanker::new(base_graph(), &assignment(), IncrementalConfig::default())
                .unwrap();
        let mut rec = sr_obs::SequenceRecorder::new();
        rec.push_label("pagerank");
        rec.push_label("sourcerank");
        rec.push_label("sr-sourcerank");
        let mut d = CrawlDelta::new();
        d.graph.add_edge(2, 4);
        ranker.apply(&d, Some(&mut rec)).unwrap();
        let records = rec.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].label, "pagerank");
        assert_eq!(records[2].label, "sr-sourcerank");
        assert!(records.iter().all(|r| r.telemetry.converged));
    }
}
