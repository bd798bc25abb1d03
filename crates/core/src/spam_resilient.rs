//! Spam-Resilient SourceRank (§3.4) — the paper's contribution.
//!
//! Pipeline: source graph with consensus weights (`T′`) → influence-throttle
//! transform (`T″`, §3.3) → selective random walk `T̂ = αT″ + (1−α)𝟙cᵀ`
//! (Eq. 2) solved to its stationary distribution σ.
//!
//! The walk has the paper's "selective" interpretation: at source `s_i` the
//! walker follows the self-edge with probability `ακ_i`, an out-edge with
//! probability `α(1−κ_i)`, and teleports with probability `1−α`.

use crate::batch::{solve_batch, BatchWorkspace, MultiRankVector, SolveBatch, SolveColumn};
use crate::convergence::ConvergenceCriteria;
use crate::operator::WeightedTransition;
use crate::power::SolverWorkspace;
use crate::proximity::SpamProximity;
use crate::rankvec::RankVector;
use crate::solver::{solve_weighted, Solver};
use crate::teleport::Teleport;
use crate::throttle::{self, SelfEdgePolicy, ThrottleVector};
use sr_graph::{SourceGraph, WeightedGraph};
use sr_obs::SolveObserver;

/// Configuration builder for Spam-Resilient SourceRank. Defaults match the
/// paper: α = 0.85, uniform teleport, L2 < 1e-9, no throttling (κ = 0).
#[derive(Debug, Clone, PartialEq)]
pub struct SpamResilientSourceRank {
    alpha: f64,
    teleport: Teleport,
    criteria: ConvergenceCriteria,
    solver: Solver,
    throttle: ThrottleSpec,
    self_edge_policy: SelfEdgePolicy,
}

/// How the throttling vector is obtained.
#[derive(Debug, Clone, PartialEq)]
enum ThrottleSpec {
    /// No throttling.
    None,
    /// Explicit κ vector.
    Explicit(ThrottleVector),
    /// Derive κ from spam proximity: seeds + top-k (§5 heuristic).
    Proximity {
        seeds: Vec<u32>,
        top_k: usize,
        beta: f64,
    },
}

impl Default for SpamResilientSourceRank {
    fn default() -> Self {
        Self::builder()
    }
}

impl SpamResilientSourceRank {
    /// Starts a configuration with paper defaults.
    pub fn builder() -> Self {
        SpamResilientSourceRank {
            alpha: 0.85,
            teleport: Teleport::Uniform,
            criteria: ConvergenceCriteria::default(),
            solver: Solver::Power,
            throttle: ThrottleSpec::None,
            self_edge_policy: SelfEdgePolicy::Retain,
        }
    }

    /// Sets the mixing parameter α.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the teleport distribution `c`.
    pub fn teleport(mut self, teleport: Teleport) -> Self {
        self.teleport = teleport;
        self
    }

    /// Sets the stopping rule.
    pub fn criteria(mut self, criteria: ConvergenceCriteria) -> Self {
        self.criteria = criteria;
        self
    }

    /// Sets the iterative solver.
    pub fn solver(mut self, solver: Solver) -> Self {
        self.solver = solver;
        self
    }

    /// Sets what happens to the mandated self-influence of throttled sources
    /// (see [`SelfEdgePolicy`]; default [`SelfEdgePolicy::Retain`], the
    /// paper-literal reading).
    pub fn self_edge_policy(mut self, policy: SelfEdgePolicy) -> Self {
        self.self_edge_policy = policy;
        self
    }

    /// Uses an explicit throttling vector κ.
    pub fn throttle(mut self, kappa: ThrottleVector) -> Self {
        self.throttle = ThrottleSpec::Explicit(kappa);
        self
    }

    /// Derives κ by spam proximity (§5): propagate from `seeds` over the
    /// reversed source graph with mixing `beta`, throttle the `top_k`
    /// highest-proximity sources completely.
    pub fn throttle_by_proximity(mut self, seeds: Vec<u32>, top_k: usize, beta: f64) -> Self {
        self.throttle = ThrottleSpec::Proximity { seeds, top_k, beta };
        self
    }

    /// Resolves the throttle vector and builds the throttled model for
    /// `source_graph`. The model owns `T″` and can be ranked repeatedly.
    ///
    /// # Panics
    /// Panics if a [`throttle_by_proximity`] spec cannot be resolved (empty
    /// or out-of-range seed set) — the builder has no error channel; derive
    /// the κ vector via [`SpamProximity`] directly for fallible handling.
    ///
    /// [`throttle_by_proximity`]: SpamResilientSourceRank::throttle_by_proximity
    pub fn build(self, source_graph: &SourceGraph) -> SpamResilientModel {
        let kappa = self.resolve_kappa(source_graph);
        let throttled =
            throttle::apply_with_policy(source_graph.transitions(), &kappa, self.self_edge_policy);
        SpamResilientModel {
            throttled,
            kappa,
            alpha: self.alpha,
            teleport: self.teleport,
            criteria: self.criteria,
            solver: self.solver,
        }
    }

    /// Resolves the throttle spec to a concrete κ vector for `source_graph`
    /// without building `T″` — shared by [`build`] and the γ sweep (which
    /// must resolve κ *once* and rescale it per γ, not re-derive it).
    ///
    /// [`build`]: SpamResilientSourceRank::build
    fn resolve_kappa(&self, source_graph: &SourceGraph) -> ThrottleVector {
        let n = source_graph.num_sources();
        match &self.throttle {
            ThrottleSpec::None => ThrottleVector::zeros(n),
            ThrottleSpec::Explicit(k) => {
                assert_eq!(k.len(), n, "throttle vector length mismatch");
                k.clone()
            }
            ThrottleSpec::Proximity { seeds, top_k, beta } => SpamProximity::new()
                .beta(*beta)
                .criteria(self.criteria)
                .throttle_top_k(source_graph, seeds, *top_k)
                .unwrap_or_else(|e| panic!("proximity throttle derivation failed: {e}")),
        }
    }

    /// Sweeps the throttle *intensity* γ: resolves this configuration's κ
    /// once, then for each `gamma` builds the model for `κ · γ` and ranks
    /// it. The throttle transform is nonlinear in κ, so each γ point needs
    /// its own `T″` — what the sweep shares instead is the κ derivation
    /// (one proximity solve, not `gammas.len()`), the solver workspace, and
    /// a warm-start chain: each point starts from the previous point's σ,
    /// which for a fine-grained sweep converges in a fraction of the
    /// cold-start iterations. Scores are identical to independent
    /// [`build`](SpamResilientSourceRank::build)` + `[`rank`] calls to
    /// solver tolerance.
    ///
    /// Returns `(γ, σ)` pairs in input order.
    ///
    /// [`rank`]: SpamResilientModel::rank
    pub fn throttle_gamma_sweep(
        &self,
        source_graph: &SourceGraph,
        gammas: &[f64],
    ) -> Vec<(f64, RankVector)> {
        let base_kappa = self.resolve_kappa(source_graph);
        let mut ws = SolverWorkspace::new();
        let mut prev: Option<Vec<f64>> = None;
        let mut out = Vec::with_capacity(gammas.len());
        for &gamma in gammas {
            let model = self
                .clone()
                .throttle(base_kappa.scaled(gamma))
                .build(source_graph);
            let ranks = model.rank_warm_in(prev.as_deref(), &mut ws, None);
            prev = Some(ranks.scores().to_vec());
            out.push((gamma, ranks));
        }
        out
    }
}

/// A ready-to-rank Spam-Resilient SourceRank model: the throttled transition
/// matrix `T″` plus walk parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SpamResilientModel {
    throttled: WeightedGraph,
    kappa: ThrottleVector,
    alpha: f64,
    teleport: Teleport,
    criteria: ConvergenceCriteria,
    solver: Solver,
}

impl SpamResilientModel {
    /// The influence-throttled transition matrix `T″`.
    pub fn transitions(&self) -> &WeightedGraph {
        &self.throttled
    }

    /// The resolved throttling vector κ.
    pub fn kappa(&self) -> &ThrottleVector {
        &self.kappa
    }

    /// Computes the Spam-Resilient SourceRank vector σ.
    pub fn rank(&self) -> RankVector {
        self.rank_warm_in(None, &mut SolverWorkspace::new(), None)
    }

    /// Solves many walk-parameter variants over this model's fixed `T″` in
    /// one batched (SpMM) pass: each [`SolveColumn`] carries its own α,
    /// teleport and optional warm start, sharing the throttled edge stream
    /// across all columns. Every result is bit-identical to the
    /// corresponding sequential [`rank`](SpamResilientModel::rank) solve —
    /// the engine behind α/teleport sensitivity sweeps. (The throttle
    /// transform itself is *nonlinear* in κ, so points that change κ —
    /// e.g. a γ sweep — need one model each; see
    /// [`SpamResilientSourceRank::throttle_gamma_sweep`].)
    ///
    /// # Panics
    /// Panics if the model's solver is [`Solver::GaussSeidel`] — its
    /// sequential sweeps have no panel form; batch with a power solver.
    pub fn rank_batch(&self, columns: Vec<SolveColumn>) -> MultiRankVector {
        let formulation = self.solver.formulation().unwrap_or_else(|| {
            panic!("Gauss-Seidel has no batched form; use a power solver for rank_batch")
        });
        let op = WeightedTransition::new(&self.throttled);
        let batch = SolveBatch::new(columns)
            .criteria(self.criteria)
            .formulation(formulation);
        solve_batch(&op, &batch, &mut BatchWorkspace::new())
    }

    /// A [`SolveColumn`] carrying this model's α and teleport — the identity
    /// column of a [`rank_batch`](SpamResilientModel::rank_batch) sweep.
    pub fn column(&self) -> SolveColumn {
        SolveColumn::new(self.alpha, self.teleport.clone())
    }

    /// [`rank`](SpamResilientModel::rank) with a warm restart, caller-owned
    /// solver buffers and telemetry — the incremental re-ranking entry
    /// point. `initial` may cover fewer sources than the model (sources
    /// added since it was computed); missing entries start at their
    /// teleport mass. See [`solve_weighted`] for the Gauss–Seidel caveat
    /// and the observer.
    pub fn rank_warm_in(
        &self,
        initial: Option<&[f64]>,
        ws: &mut SolverWorkspace,
        observer: Option<&mut (dyn SolveObserver + '_)>,
    ) -> RankVector {
        solve_weighted(
            &self.throttled,
            self.alpha,
            &self.teleport,
            &self.criteria,
            self.solver,
            initial,
            ws,
            observer,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_graph::source_graph::{extract, SourceGraphConfig};
    use sr_graph::{GraphBuilder, SourceAssignment};

    /// s0 legit hub; s1 spam source funneled by s2 (colluder).
    /// Pages: 0,1 in s0; 2,3 in s1 (spam); 4,5 in s2 (colluder).
    fn fixture() -> SourceGraph {
        let edges = vec![
            (0, 1), // intra s0
            (1, 4), // s0 -> s2 (hijacked-ish link)
            (4, 2), // s2 -> s1
            (5, 3), // s2 -> s1
            (2, 3), // intra s1 (farm)
            (3, 2), // intra s1 (farm)
        ];
        let g = GraphBuilder::from_edges_exact(6, edges).unwrap();
        let a = SourceAssignment::new(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        extract(&g, &a, SourceGraphConfig::consensus()).unwrap()
    }

    #[test]
    fn no_throttle_matches_baseline_sourcerank() {
        let sg = fixture();
        let srsr = SpamResilientSourceRank::builder().build(&sg).rank();
        let base = crate::sourcerank::SourceRank::new().rank(&sg);
        for i in 0..3 {
            assert!((srsr.score(i) - base.score(i)).abs() < 1e-9);
        }
    }

    #[test]
    fn throttling_spam_demotes_it() {
        let sg = fixture();
        let free = SpamResilientSourceRank::builder().build(&sg).rank();
        let mut kappa = ThrottleVector::zeros(3);
        kappa.set(1, 1.0); // throttle the spam source
        kappa.set(2, 1.0); // and its feeder
        let throttled = SpamResilientSourceRank::builder()
            .throttle(kappa)
            .build(&sg)
            .rank();
        // With s2 fully throttled, no influence reaches s1 beyond teleport.
        assert!(
            throttled.score(1) < free.score(1),
            "throttled {} vs free {}",
            throttled.score(1),
            free.score(1)
        );
    }

    #[test]
    fn proximity_throttling_end_to_end() {
        let sg = fixture();
        let model = SpamResilientSourceRank::builder()
            .throttle_by_proximity(vec![1], 2, 0.85)
            .build(&sg);
        // Seed s1 plus its feeder s2 are the two most spam-proximate.
        assert_eq!(model.kappa().get(1), 1.0);
        assert_eq!(model.kappa().get(2), 1.0);
        assert_eq!(model.kappa().get(0), 0.0);
        // Throttling s2 cuts the endorsement chain into the spam source: s1
        // falls back to self-retained mass only, strictly below its
        // collusion-assisted score. (A throttled source keeps its own mass —
        // the paper's Eq. 4 one-time gain — so it need not drop to the very
        // bottom; what throttling removes is *incoming spam influence*.)
        let free = SpamResilientSourceRank::builder().build(&sg).rank();
        let throttled = model.rank();
        assert!(
            throttled.score(1) < free.score(1),
            "spam source must lose its colluder-fed score: {} vs {}",
            throttled.score(1),
            free.score(1)
        );
    }

    #[test]
    fn kappa_length_checked() {
        let sg = fixture();
        let bad = ThrottleVector::zeros(5);
        let res = std::panic::catch_unwind(|| {
            SpamResilientSourceRank::builder().throttle(bad).build(&sg)
        });
        assert!(res.is_err());
    }

    #[test]
    fn model_transitions_expose_t_double_prime() {
        let sg = fixture();
        let mut kappa = ThrottleVector::zeros(3);
        kappa.set(2, 0.8);
        let model = SpamResilientSourceRank::builder()
            .throttle(kappa)
            .build(&sg);
        assert!((model.transitions().weight(2, 2).unwrap() - 0.8).abs() < 1e-12);
        assert!(model.transitions().is_row_stochastic(1e-9));
    }

    #[test]
    fn self_edge_manipulation_gain_is_bounded() {
        // §4.1: a source raising w(s_t,s_t) from kappa to 1 gains at most
        // (1 - alpha*kappa) / (1 - alpha). Verify numerically for kappa=0:
        // gain <= 1/(1-0.85) ~ 6.67.
        let sg = fixture();
        let free = SpamResilientSourceRank::builder().build(&sg).rank();
        // Simulate the optimal configuration: s1 keeps all weight on itself.
        let mut kappa = ThrottleVector::zeros(3);
        kappa.set(1, 1.0); // forcing self-edge to 1 == spammer's optimum
        let manipulated = SpamResilientSourceRank::builder()
            .throttle(kappa)
            .build(&sg)
            .rank();
        let gain = manipulated.score(1) / free.score(1);
        assert!(
            gain <= 1.0 / (1.0 - 0.85) + 1e-6,
            "gain {gain} exceeds the §4.1 bound"
        );
    }

    #[test]
    fn rank_batch_alpha_sweep_is_bitwise_sequential() {
        let sg = fixture();
        let mut kappa = ThrottleVector::zeros(3);
        kappa.set(1, 1.0);
        let alphas = [0.5, 0.85, 0.95];
        let model = SpamResilientSourceRank::builder()
            .throttle(kappa.clone())
            .build(&sg);
        let columns = alphas
            .iter()
            .map(|&a| SolveColumn::new(a, Teleport::Uniform))
            .collect();
        let batched = model.rank_batch(columns);
        for (k, &a) in alphas.iter().enumerate() {
            let seq = SpamResilientSourceRank::builder()
                .alpha(a)
                .throttle(kappa.clone())
                .build(&sg)
                .rank();
            assert_eq!(batched.column(k).scores(), seq.scores());
            assert_eq!(batched.column(k).stats().iterations, seq.stats().iterations);
        }
    }

    #[test]
    #[should_panic(expected = "no batched form")]
    fn rank_batch_rejects_gauss_seidel() {
        let sg = fixture();
        let model = SpamResilientSourceRank::builder()
            .solver(Solver::GaussSeidel)
            .build(&sg);
        model.rank_batch(vec![model.column()]);
    }

    #[test]
    fn gamma_sweep_matches_independent_builds() {
        let sg = fixture();
        let mut kappa = ThrottleVector::zeros(3);
        kappa.set(1, 1.0);
        kappa.set(2, 0.6);
        let builder = SpamResilientSourceRank::builder().throttle(kappa.clone());
        let gammas = [0.0, 0.25, 0.5, 0.75, 1.0];
        let swept = builder.throttle_gamma_sweep(&sg, &gammas);
        assert_eq!(swept.len(), gammas.len());
        for (&gamma, (g, ranks)) in gammas.iter().zip(&swept) {
            assert_eq!(gamma, *g);
            let independent = SpamResilientSourceRank::builder()
                .throttle(kappa.scaled(gamma))
                .build(&sg)
                .rank();
            for i in 0..3 {
                assert!(
                    (ranks.score(i) - independent.score(i)).abs() < 1e-8,
                    "gamma {gamma} source {i}: {} vs {}",
                    ranks.score(i),
                    independent.score(i)
                );
            }
            assert!(ranks.stats().converged);
        }
        // Stronger throttling must demote the spam source monotonically.
        let spam_scores: Vec<f64> = swept.iter().map(|(_, r)| r.score(1)).collect();
        for w in spam_scores.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "spam score must not rise with gamma");
        }
    }
}
