//! Differential suite for the batched multi-vector solve engine
//! (`sr_core::batch`).
//!
//! The engine's contract is stronger than "close": every column of a
//! batched solve must be **bit-identical** to a sequential single-vector
//! solve with that column's parameters, at the **same iteration count** —
//! the panel kernels preserve each column's summation order exactly (see
//! `sr_graph::panel` and the operator docs), so no tolerance is needed.
//! These tests drive randomized column families through `solve_batch` /
//! `PageRank::rank_batch` and check them against per-column
//! `power_method` / `PageRank::rank` runs, on plain [`CsrGraph`]s and on
//! graphs round-tripped through the WebGraph-style [`CompressedGraph`]
//! codec. The within-1e-12 requirement is implied by bit-equality but
//! asserted separately so a future relaxation of the bitwise gate would
//! still be caught drifting.

use proptest::prelude::*;

use sr_core::operator::{Transition, UniformTransition, WeightedTransition};
use sr_core::power::{power_method, PowerConfig};
use sr_core::{
    solve_batch, BatchWorkspace, IterationStats, PageRank, SolveBatch, SolveColumn,
    SolverWorkspace, Teleport, PANEL_WIDTH,
};
use sr_graph::{CompressedGraph, CsrGraph, GraphBuilder, WeightedGraph};

/// A cold sequential solve in a fresh workspace.
fn solve(op: &dyn Transition, config: &PowerConfig) -> (Vec<f64>, IterationStats) {
    let mut ws = SolverWorkspace::new();
    let stats = power_method(op, config, &mut ws, None);
    (ws.take_solution(), stats)
}

/// A deterministic crawl-ish fixture: ring + forward chords + a dangling
/// tail, large enough that panels see real mixing.
fn fixture(n: usize) -> CsrGraph {
    let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
    for v in 0..n as u32 {
        if v % 3 == 0 {
            edges.push((v, (v * 7 + 2) % n as u32));
        }
        if v % 5 == 1 {
            edges.push((v, (v * 11 + 3) % n as u32));
        }
    }
    GraphBuilder::from_edges_exact(n, edges).unwrap()
}

#[derive(Debug, Clone)]
struct ColumnSpec {
    alpha: f64,
    teleport_kind: u8,
    seed_a: u32,
    seed_b: u32,
}

fn arb_columns() -> impl Strategy<Value = Vec<ColumnSpec>> {
    proptest::collection::vec(
        (0.05f64..0.95, 0u8..3, any::<u32>(), any::<u32>()).prop_map(
            |(alpha, teleport_kind, seed_a, seed_b)| ColumnSpec {
                alpha,
                teleport_kind,
                seed_a,
                seed_b,
            },
        ),
        1..10,
    )
}

fn realize_teleport(spec: &ColumnSpec, n: usize) -> Teleport {
    match spec.teleport_kind {
        0 => Teleport::Uniform,
        1 => {
            let a = spec.seed_a % n as u32;
            let mut b = spec.seed_b % n as u32;
            // Duplicate seeds are rejected at the API boundary; nudge the
            // second seed onto a distinct node (or drop it when n == 1).
            if b == a {
                b = (b + 1) % n as u32;
            }
            if b == a {
                Teleport::over_seeds(n, &[a])
            } else {
                Teleport::over_seeds(n, &[a, b])
            }
        }
        _ => {
            let weights: Vec<f64> = (0..n)
                .map(|v| 0.25 + ((spec.seed_a as usize + v * 13) % 7) as f64)
                .collect();
            Teleport::from_weights(weights)
        }
    }
}

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (
        3usize..40,
        proptest::collection::vec((any::<u32>(), any::<u32>()), 2..120).prop_map(|edges| edges),
    )
        .prop_map(|(n, edges)| {
            let edges: Vec<(u32, u32)> = edges
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .collect();
            GraphBuilder::from_edges_exact(n, edges).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized column families over randomized graphs: every batched
    /// column is bitwise its sequential solve, same iteration counts —
    /// through the public `PageRank::rank_batch` sweep entry point.
    #[test]
    fn rank_batch_is_bitwise_sequential(g in arb_graph(), specs in arb_columns()) {
        let n = g.num_nodes();
        let columns: Vec<SolveColumn> = specs
            .iter()
            .map(|s| SolveColumn::new(s.alpha, realize_teleport(s, n)))
            .collect();
        let pr = PageRank::default();
        let batched = pr.rank_batch(&g, columns.clone());
        for (j, col) in columns.iter().enumerate() {
            let seq = PageRank::builder()
                .alpha(col.alpha)
                .teleport(col.teleport.clone())
                .finish()
                .rank(&g);
            prop_assert_eq!(
                seq.stats().iterations,
                batched.column(j).stats().iterations,
                "column {} iteration count diverged", j
            );
            prop_assert_eq!(
                seq.scores(),
                batched.column(j).scores(),
                "column {} scores not bit-identical", j
            );
            for (s, b) in seq.scores().iter().zip(batched.column(j).scores()) {
                prop_assert!((s - b).abs() <= 1e-12);
            }
        }
    }

    /// The same invariant holds after a round trip through the compressed
    /// (gap + varint) graph codec — the batched engine sees only CSR, so a
    /// lossless codec must change nothing, bit for bit.
    #[test]
    fn rank_batch_survives_compressed_round_trip(g in arb_graph(), specs in arb_columns()) {
        let round: CsrGraph = CompressedGraph::from_csr(&g)
            .unwrap()
            .to_csr()
            .unwrap();
        prop_assert_eq!(&round, &g, "codec round trip must be lossless");
        let n = round.num_nodes();
        let columns: Vec<SolveColumn> = specs
            .iter()
            .map(|s| SolveColumn::new(s.alpha, realize_teleport(s, n)))
            .collect();
        let on_round = PageRank::default().rank_batch(&round, columns.clone());
        let on_plain = PageRank::default().rank_batch(&g, columns);
        for j in 0..on_plain.num_columns() {
            prop_assert_eq!(
                on_plain.column(j).scores(),
                on_round.column(j).scores()
            );
            prop_assert_eq!(
                on_plain.column(j).stats().iterations,
                on_round.column(j).stats().iterations
            );
        }
    }
}

#[test]
fn wide_mixed_alpha_batch_tiles_and_matches() {
    // 11 columns > PANEL_WIDTH forces two tiles; the α spread forces
    // staggered retirement and panel compaction inside each tile.
    let g = fixture(500);
    let op = UniformTransition::new(&g);
    let columns: Vec<SolveColumn> = (0..PANEL_WIDTH + 3)
        .map(|j| SolveColumn::new(0.50 + 0.04 * j as f64, Teleport::Uniform))
        .collect();
    let batch = SolveBatch::new(columns);
    let result = solve_batch(&op, &batch, &mut BatchWorkspace::new());
    for (j, col) in batch.columns.iter().enumerate() {
        let (scores, stats) = solve(
            &op,
            &PowerConfig {
                alpha: col.alpha,
                teleport: col.teleport.clone(),
                criteria: batch.criteria,
                formulation: batch.formulation,
                dangling: Default::default(),
                initial: None,
            },
        );
        assert_eq!(stats.iterations, result.column(j).stats().iterations);
        assert_eq!(scores, result.column(j).scores(), "column {j}");
    }
}

#[test]
fn warm_started_columns_stay_bitwise_sequential() {
    let g = fixture(200);
    let op = UniformTransition::new(&g);
    let n = g.num_nodes();
    // Warm-start half the columns from a deliberately unnormalized vector —
    // the engine must normalize it exactly as the sequential path does.
    let warm: Vec<f64> = (0..n).map(|v| 1.0 + (v % 5) as f64).collect();
    let columns: Vec<SolveColumn> = (0..4)
        .map(|j| {
            let col = SolveColumn::new(0.85, Teleport::over_seeds(n, &[j as u32 * 17 + 1]));
            if j % 2 == 0 {
                col.with_initial(warm.clone())
            } else {
                col
            }
        })
        .collect();
    let batch = SolveBatch::new(columns);
    let result = solve_batch(&op, &batch, &mut BatchWorkspace::new());
    for (j, col) in batch.columns.iter().enumerate() {
        let (scores, stats) = solve(
            &op,
            &PowerConfig {
                alpha: col.alpha,
                teleport: col.teleport.clone(),
                criteria: batch.criteria,
                formulation: batch.formulation,
                dangling: Default::default(),
                initial: col.initial.clone(),
            },
        );
        assert_eq!(stats.iterations, result.column(j).stats().iterations);
        assert_eq!(scores, result.column(j).scores(), "column {j}");
    }
}

#[test]
fn weighted_operator_batch_is_bitwise_sequential() {
    // A substochastic weighted graph (row deficits feed the dangling path).
    let n = 120usize;
    let mut offsets = vec![0usize];
    let mut targets = Vec::new();
    let mut weights = Vec::new();
    for u in 0..n as u32 {
        let row: std::collections::BTreeSet<u32> = (0..1 + u % 4)
            .map(|d| (u * 3 + d * 7 + 1) % n as u32)
            .collect();
        let w = 0.9 / row.len() as f64; // each row sums to 0.9: 0.1 deficit
        for v in row {
            targets.push(v);
            weights.push(w);
        }
        offsets.push(targets.len());
    }
    let g = WeightedGraph::from_parts(offsets, targets, weights);
    let op = WeightedTransition::new(&g);
    let columns: Vec<SolveColumn> = (0..6)
        .map(|j| SolveColumn::new(0.6 + 0.05 * j as f64, Teleport::Uniform))
        .collect();
    let batch = SolveBatch::new(columns);
    let result = solve_batch(&op, &batch, &mut BatchWorkspace::new());
    for (j, col) in batch.columns.iter().enumerate() {
        let (scores, stats) = solve(
            &op,
            &PowerConfig {
                alpha: col.alpha,
                teleport: col.teleport.clone(),
                criteria: batch.criteria,
                formulation: batch.formulation,
                dangling: Default::default(),
                initial: None,
            },
        );
        assert_eq!(stats.iterations, result.column(j).stats().iterations);
        assert_eq!(scores, result.column(j).scores(), "column {j}");
    }
}
