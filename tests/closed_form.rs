//! The §4 closed forms of `sr-analysis` validated against the *iterative*
//! solvers of `sr-core` on explicitly constructed source configurations —
//! the strongest cross-crate consistency check in the workspace: the same
//! numbers must emerge from algebra, dense Gaussian elimination, the power
//! method and Gauss–Seidel.

use sr_analysis::cross_source::{colluder_score, target_score};
use sr_analysis::single_source::{max_gain_factor, sigma_target};
use sr_core::{ConvergenceCriteria, SourceRank, Teleport};
use sr_graph::source_graph::SourceGraph;
use sr_graph::WeightedGraph;

/// Builds the §4.2 optimal configuration as a WeightedGraph: node 0 =
/// target (pure self-loop), nodes 1..=x colluders (self kappa, rest to the
/// target), remaining nodes isolated self-loop world sources.
fn collusion_graph(n: usize, x: usize, kappa: f64) -> WeightedGraph {
    let mut triples = vec![(0u32, 0u32, 1.0)];
    for i in 1..=x as u32 {
        if kappa > 0.0 {
            triples.push((i, i, kappa));
        }
        triples.push((i, 0, 1.0 - kappa));
    }
    for i in (x + 1) as u32..n as u32 {
        triples.push((i, i, 1.0));
    }
    WeightedGraph::from_triples(n, triples)
}

fn solve(g: &WeightedGraph) -> Vec<f64> {
    // Solve the un-normalized linear system the closed forms are written
    // in: sigma = alpha sigma P + (1-alpha) c. The linear-system power
    // formulation computes exactly this, then normalizes; since the total
    // mass of this configuration is 1 (all rows stochastic), normalization
    // is a no-op and scores are directly comparable.
    let op = sr_core::operator::WeightedTransition::new(g);
    let config = sr_core::power::PowerConfig {
        alpha: 0.85,
        teleport: Teleport::Uniform,
        criteria: ConvergenceCriteria {
            tolerance: 1e-13,
            ..Default::default()
        },
        formulation: sr_core::power::Formulation::LinearSystem,
        initial: None,
        dangling: Default::default(),
    };
    let mut ws = sr_core::SolverWorkspace::new();
    sr_core::power::power_method(&op, &config, &mut ws, None);
    ws.take_solution()
}

#[test]
fn eq4_sigma_star_matches_power_method() {
    let n = 10;
    for w in [0.0f64, 0.3, 0.7, 1.0] {
        let mut triples = vec![(1u32, 1u32, 1.0)];
        if w > 0.0 {
            triples.push((0, 0, w));
        }
        if w < 1.0 {
            triples.push((0, 1, 1.0 - w)); // leak to an absorbing world node
        }
        for i in 2..n as u32 {
            triples.push((i, i, 1.0));
        }
        let g = WeightedGraph::from_triples(n, triples);
        let sigma = solve(&g);
        let expected = sigma_target(0.85, 0.0, n, w);
        assert!(
            (sigma[0] - expected).abs() < 1e-10,
            "w={w}: solver {} vs closed form {expected}",
            sigma[0]
        );
    }
}

#[test]
fn eq5_collusion_matches_power_method() {
    let n = 16;
    for (x, kappa) in [(1usize, 0.0f64), (4, 0.5), (6, 0.9), (3, 0.99)] {
        let g = collusion_graph(n, x, kappa);
        let sigma = solve(&g);
        let expect_target = target_score(0.85, 0.0, 0.0, n, kappa, x);
        let expect_colluder = colluder_score(0.85, 0.0, n, kappa);
        assert!(
            (sigma[0] - expect_target).abs() < 1e-10,
            "x={x} kappa={kappa}: target {} vs {expect_target}",
            sigma[0]
        );
        assert!(
            (sigma[1] - expect_colluder).abs() < 1e-10,
            "x={x} kappa={kappa}: colluder {} vs {expect_colluder}",
            sigma[1]
        );
    }
}

#[test]
fn figure2_gain_realized_by_throttle_transform() {
    // Start from a source with self-weight kappa (its mandated minimum);
    // raising the self-edge to 1 (the spammer's optimum) must multiply its
    // score by exactly (1 - a*kappa)/(1 - a).
    let n = 8;
    for kappa in [0.0f64, 0.4, 0.8, 0.9] {
        let before = {
            let mut triples = vec![(1u32, 1u32, 1.0)];
            if kappa > 0.0 {
                triples.push((0, 0, kappa));
            }
            triples.push((0, 1, 1.0 - kappa));
            for i in 2..n as u32 {
                triples.push((i, i, 1.0));
            }
            solve(&WeightedGraph::from_triples(n, triples))[0]
        };
        let after = {
            let mut triples = vec![(0u32, 0u32, 1.0), (1, 1, 1.0)];
            for i in 2..n as u32 {
                triples.push((i, i, 1.0));
            }
            solve(&WeightedGraph::from_triples(n, triples))[0]
        };
        let measured = after / before;
        let predicted = max_gain_factor(0.85, kappa);
        assert!(
            (measured - predicted).abs() < 1e-9,
            "kappa={kappa}: measured {measured} vs predicted {predicted}"
        );
    }
}

#[test]
fn gauss_seidel_reaches_the_same_fixed_points() {
    let n = 12;
    let g = collusion_graph(n, 5, 0.6);
    let (gs, stats) = sr_core::gauss_seidel::gauss_seidel(
        &g,
        0.85,
        &Teleport::Uniform,
        &ConvergenceCriteria {
            tolerance: 1e-13,
            ..Default::default()
        },
        None,
    );
    assert!(stats.converged);
    // gauss_seidel normalizes; compare against normalized closed forms.
    let raw_target = target_score(0.85, 0.0, 0.0, n, 0.6, 5);
    let raw_colluder = colluder_score(0.85, 0.0, n, 0.6);
    let world = sigma_target(0.85, 0.0, n, 1.0);
    let total = raw_target + 5.0 * raw_colluder + (n as f64 - 6.0) * world;
    assert!(
        (gs[0] - raw_target / total).abs() < 1e-9,
        "GS target {} vs normalized closed form {}",
        gs[0],
        raw_target / total
    );
}

#[test]
fn sourcerank_api_reproduces_collusion_closed_form() {
    // Through the public SourceGraph-based API rather than raw matrices:
    // build a page graph realizing the collusion configuration and verify
    // the ranked scores against the algebra.
    use sr_graph::source_graph::{extract, SourceGraphConfig};
    use sr_graph::{GraphBuilder, SourceAssignment};

    // Source 0 = target: 2 pages linking each other (pure self profile).
    // Sources 1, 2 = colluders: single page linking a target page.
    // Source 3 = world: 2 pages linking each other.
    let edges = vec![(0u32, 1u32), (1, 0), (2, 0), (3, 0), (4, 5), (5, 4)];
    let g = GraphBuilder::from_edges_exact(6, edges).unwrap();
    let a = SourceAssignment::new(vec![0, 0, 1, 2, 3, 3], 4).unwrap();
    let sg: SourceGraph = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();

    let ranked = SourceRank::new()
        .criteria(ConvergenceCriteria {
            tolerance: 1e-13,
            ..Default::default()
        })
        .rank(&sg);

    let n = 4;
    let raw_target = target_score(0.85, 0.0, 0.0, n, 0.0, 2);
    let raw_colluder = colluder_score(0.85, 0.0, n, 0.0);
    let world = sigma_target(0.85, 0.0, n, 1.0);
    let total = raw_target + 2.0 * raw_colluder + world;
    assert!(
        (ranked.score(0) - raw_target / total).abs() < 1e-9,
        "API target score {} vs closed form {}",
        ranked.score(0),
        raw_target / total
    );
}
