//! Solver selection for weighted (source-level) transition matrices.
//!
//! [`solve_weighted`] is the one entry point for SourceRank and
//! SR-SourceRank: the [`Solver`] picks the iteration, and the warm start,
//! workspace and observer are arguments (`None`, a fresh workspace and
//! `None` give a cold, unobserved solve).

use crate::convergence::ConvergenceCriteria;
use crate::gauss_seidel::gauss_seidel;
use crate::operator::WeightedTransition;
use crate::power::{pad_warm_start, power_method, Formulation, PowerConfig, SolverWorkspace};
use crate::rankvec::RankVector;
use crate::teleport::Teleport;
use sr_graph::WeightedGraph;
use sr_obs::SolveObserver;

/// Which iterative algorithm computes the stationary vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Solver {
    /// Parallel power method on the stochastic chain (dangling mass
    /// redistributed through the teleport vector). Default.
    #[default]
    Power,
    /// Parallel power iteration of the linear system `x = αxP + (1−α)c`
    /// (Jacobi; the paper's Eq. 3 formulation), normalized at the end.
    PowerLinear,
    /// Sequential Gauss–Seidel sweeps of the same linear system; fewer
    /// iterations, no parallelism.
    GaussSeidel,
}

impl Solver {
    /// The power-method formulation this solver iterates, or `None` for
    /// Gauss–Seidel, which is not a power method.
    pub(crate) fn formulation(self) -> Option<Formulation> {
        match self {
            Solver::Power => Some(Formulation::Eigenvector),
            Solver::PowerLinear => Some(Formulation::LinearSystem),
            Solver::GaussSeidel => None,
        }
    }
}

/// Solves the damped walk over a weighted transition matrix with the chosen
/// solver. All solvers return an L1-normalized vector; on matrices without
/// dangling rows they agree to solver tolerance.
///
/// `initial`, when present, seeds the iteration with a previous solution.
/// It may cover *fewer* states than `transitions` has (sources added since
/// the vector was computed); missing entries start at their teleport mass,
/// as in [`crate::PageRank::rank_operator_warm_in`]. [`Solver::GaussSeidel`]
/// has no warm path — its sweeps build the iterate in place from the
/// diagonal split, not from an initial distribution — so it ignores
/// `initial` and `ws` and solves cold; both power solvers exploit the
/// restart and reuse `ws`.
///
/// With an `observer`, the chosen solver reports its per-iteration
/// residuals (and dangling mass, where meaningful) — see `sr-obs`. `None`
/// changes no bit of the result.
#[allow(clippy::too_many_arguments)]
pub fn solve_weighted(
    transitions: &WeightedGraph,
    alpha: f64,
    teleport: &Teleport,
    criteria: &ConvergenceCriteria,
    solver: Solver,
    initial: Option<&[f64]>,
    ws: &mut SolverWorkspace,
    observer: Option<&mut (dyn SolveObserver + '_)>,
) -> RankVector {
    match solver.formulation() {
        Some(formulation) => {
            let n = transitions.num_nodes();
            let config = PowerConfig {
                alpha,
                teleport: teleport.clone(),
                criteria: *criteria,
                formulation,
                dangling: Default::default(),
                initial: initial.map(|init| pad_warm_start(init, teleport, n)),
            };
            let stats = power_method(&WeightedTransition::new(transitions), &config, ws, observer);
            RankVector::new(ws.take_solution(), stats)
        }
        None => {
            let (scores, stats) = gauss_seidel(transitions, alpha, teleport, criteria, observer);
            RankVector::new(scores, stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::UniformTransition;
    use crate::{PageRank, SourceRank};
    use sr_graph::source_graph::{extract, SourceGraphConfig};
    use sr_graph::{GraphBuilder, SourceAssignment};

    fn solve(g: &WeightedGraph, solver: Solver, initial: Option<&[f64]>) -> RankVector {
        let crit = ConvergenceCriteria::default();
        let ws = &mut SolverWorkspace::new();
        solve_weighted(
            g,
            0.85,
            &Teleport::Uniform,
            &crit,
            solver,
            initial,
            ws,
            None,
        )
    }

    fn ring() -> WeightedGraph {
        WeightedGraph::from_parts(
            vec![0, 2, 4, 6],
            vec![0, 1, 1, 2, 0, 2],
            vec![0.3, 0.7, 0.5, 0.5, 0.9, 0.1],
        )
    }

    #[test]
    fn all_solvers_agree() {
        let g = ring();
        let a = solve(&g, Solver::Power, None);
        let b = solve(&g, Solver::PowerLinear, None);
        let c = solve(&g, Solver::GaussSeidel, None);
        for i in 0..3 {
            assert!((a.score(i) - b.score(i)).abs() < 1e-7);
            assert!((a.score(i) - c.score(i)).abs() < 1e-7);
        }
    }

    #[test]
    fn warm_restart_matches_cold_with_fewer_iterations() {
        let g = ring();
        let cold = solve(&g, Solver::Power, None);
        let warm = solve(&g, Solver::Power, Some(cold.scores()));
        assert!(warm.stats().iterations <= 2);
        for i in 0..3 {
            assert!((warm.score(i) - cold.score(i)).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_restart_pads_missing_states_with_teleport_mass() {
        // A warm vector over 2 of 3 states must still converge to the full
        // 3-state answer — the padding path new sources exercise.
        let g = ring();
        let cold = solve(&g, Solver::Power, None);
        let warm = solve(&g, Solver::Power, Some(&cold.scores()[..2]));
        assert!(warm.stats().converged);
        for i in 0..3 {
            assert!((warm.score(i) - cold.score(i)).abs() < 1e-8);
        }

        // Through both models, under a seeded teleport whose padding is not
        // uniform, a short warm vector must give exactly the result of the
        // same vector padded by hand from the dense teleport. `Debug` prints
        // every f64 round-trip exact, so equal renderings are equal bits.
        let pages = GraphBuilder::from_edges_exact(
            6,
            vec![(0, 1), (1, 2), (2, 0), (3, 0), (4, 3), (5, 4), (2, 5)],
        )
        .unwrap();
        let short = [0.4, 0.3, 0.2, 0.1];
        let padded = |short: &[f64], teleport: &Teleport, n: usize| {
            let mut x0 = short.to_vec();
            x0.extend_from_slice(&teleport.to_dense(n)[short.len()..]);
            x0
        };
        let ws = &mut SolverWorkspace::new();
        let teleport = Teleport::over_seeds(6, &[1, 4]);
        let x0 = padded(&short, &teleport, 6);
        let pr = PageRank::builder().teleport(teleport).finish();
        let op = UniformTransition::new(&pages);
        assert_eq!(
            format!(
                "{:?}",
                pr.rank_operator_warm_in(&op, Some(&short), ws, None)
            ),
            format!("{:?}", pr.rank_operator_warm_in(&op, Some(&x0), ws, None)),
        );
        let assignment = SourceAssignment::new(vec![0, 0, 1, 2, 2, 3], 4).unwrap();
        let sources = extract(&pages, &assignment, SourceGraphConfig::consensus()).unwrap();
        let teleport = Teleport::over_seeds(4, &[1, 3]);
        let (short, x0) = (&short[..3], padded(&short[..3], &teleport, 4));
        let sr = SourceRank::new().teleport(teleport);
        assert_eq!(
            format!("{:?}", sr.rank_warm_in(&sources, Some(short), ws, None)),
            format!("{:?}", sr.rank_warm_in(&sources, Some(&x0), ws, None)),
        );
    }

    #[test]
    fn gauss_seidel_ignores_warm_start() {
        let g = ring();
        let cold = solve(&g, Solver::GaussSeidel, None);
        let warm = solve(&g, Solver::GaussSeidel, Some(cold.scores()));
        assert_eq!(warm.scores(), cold.scores());
        assert_eq!(warm.stats().iterations, cold.stats().iterations);
    }

    #[test]
    fn solutions_are_normalized() {
        let g = ring();
        for solver in [Solver::Power, Solver::PowerLinear, Solver::GaussSeidel] {
            let r = solve(&g, solver, None);
            let sum: f64 = r.scores().iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "{solver:?} not normalized");
        }
    }
}
