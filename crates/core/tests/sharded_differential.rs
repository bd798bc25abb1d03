//! Differential suite for the out-of-core solve engine
//! (`sr_core::streamed` over `sr_graph::shard`).
//!
//! The contract is the same bitwise gate the batched engine carries: a
//! power-method solve streamed from an on-disk sharded graph must equal the
//! in-RAM CSR solve **bit for bit** — identical scores, identical residual
//! histories, identical iteration counts — for any graph, any shard target
//! size, any page size, and any thread count. Shard geometry only changes
//! *where* row decoding pauses for I/O, never a single floating-point
//! operation, and the thread sweep (`sr_par::with_threads`) pins the blocked
//! reduction order of both engines at once.

use proptest::prelude::*;

use sr_core::operator::Transition;
use sr_core::operator::UniformTransition;
use sr_core::power::{power_method, DanglingPolicy, PowerConfig};
use sr_core::streamed::{PipelineConfig, StreamedTransition};
use sr_core::{IterationStats, PageRank, RankVector, SolverWorkspace, Teleport};
use sr_graph::{CsrGraph, GraphBuilder, ShardedCompressedGraph, SolveGraph};

/// Distinguishes temp dirs across concurrently running proptest cases.
static CASE_COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// A cold solve in a fresh workspace, returning the solution with its
/// diagnostics.
fn solve(op: &dyn Transition, config: &PowerConfig) -> (Vec<f64>, IterationStats) {
    let mut ws = SolverWorkspace::new();
    let stats = power_method(op, config, &mut ws, None);
    (ws.take_solution(), stats)
}

/// `PageRank` of an on-disk sharded graph through the out-of-core operator.
fn rank_sharded(pr: &PageRank, sharded: &ShardedCompressedGraph) -> RankVector {
    let op = StreamedTransition::from_sharded(sharded);
    pr.rank_operator_warm_in(&op, None, &mut SolverWorkspace::new(), None)
}

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2u32..120).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..400)
            .prop_map(move |edges| GraphBuilder::from_edges_exact(n as usize, edges).unwrap())
    })
}

/// Builds `g` into a uniquely named on-disk sharded file, returning the
/// container and its temp dir (caller removes it).
fn shard_to_disk(
    g: &CsrGraph,
    shard_bytes: usize,
    page: usize,
) -> (ShardedCompressedGraph, std::path::PathBuf) {
    let case = CASE_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("sr_core_diff_shard_{}_{case}", std::process::id()));
    let path = dir.join("g.shards");
    let mut sharded = sr_graph::shard::build_from_csr(g, &dir, &path, shard_bytes).unwrap();
    sharded.set_page_size(page);
    (sharded, dir)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The core gate: sharded solve ≡ CSR solve, bitwise, across shard
    /// sizes, page sizes and thread counts. Tiny shard targets force
    /// single-row (and, on sparse graphs, empty gap-filled) shards; large
    /// ones collapse the file to a single shard — both ends of the geometry
    /// must be invisible in the bits.
    #[test]
    fn sharded_solve_is_bitwise_csr_solve(
        g in arb_graph(),
        shard_bytes in 1usize..512,
        page in 16usize..256,
        threads in 1usize..9,
    ) {
        let (sharded, dir) = shard_to_disk(&g, shard_bytes, page);
        let (xs, ss, xr, sr) = sr_par::with_threads(threads, || {
            let streamed = StreamedTransition::from_sharded(&sharded);
            let in_ram = UniformTransition::new(&g);
            let cfg = PowerConfig::default();
            let (xs, ss) = solve(&streamed, &cfg);
            let (xr, sr) = solve(&in_ram, &cfg);
            (xs, ss, xr, sr)
        });
        prop_assert_eq!(&xs, &xr, "scores diverged");
        prop_assert_eq!(ss.iterations, sr.iterations, "iteration counts diverged");
        prop_assert_eq!(ss.residual_history, sr.residual_history);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Thread-count invariance of the sharded engine alone: 1 thread vs N
    /// threads over the same on-disk file, same bits. The 1-thread run uses
    /// a single chunk (all shards in one stream); the N-thread run splits at
    /// shard boundaries — the partition seam must not move any bits.
    #[test]
    fn sharded_solve_is_thread_count_invariant(
        g in arb_graph(),
        shard_bytes in 1usize..256,
        threads in 2usize..9,
    ) {
        let (sharded, dir) = shard_to_disk(&g, shard_bytes, 64);
        let cfg = PowerConfig {
            teleport: Teleport::over_seeds(g.num_nodes(), &[0]),
            dangling: DanglingPolicy::WeaklyPreferential,
            ..Default::default()
        };
        let (x1, s1) = sr_par::with_threads(1, || {
            solve(&StreamedTransition::from_sharded(&sharded), &cfg)
        });
        let (xn, sn) = sr_par::with_threads(threads, || {
            solve(&StreamedTransition::from_sharded(&sharded), &cfg)
        });
        prop_assert_eq!(&x1, &xn);
        prop_assert_eq!(s1.iterations, sn.iterations);
        prop_assert_eq!(s1.residual_history, sn.residual_history);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Pipeline geometry invariance: prefetch depth × span granularity ×
    /// thread count × hot-arena budget are pure performance knobs. Every
    /// combination must reproduce the in-RAM solve bit for bit — the
    /// decode-ahead pipeline may only change *when* bytes are staged, and
    /// the cache only *whether* a span is re-decoded, never what the gather
    /// sees. Small budgets land mid-group, mixing hot and streamed spans in
    /// one worker — the seam the suite most wants to cross.
    #[test]
    fn pipeline_geometry_is_bitwise_invariant(
        g in arb_graph(),
        shard_bytes in 1usize..512,
        prefetch_buffers in 1usize..4,
        spans_per_worker in 1usize..24,
        threads in 1usize..9,
        cache_bytes in (0usize..4096).prop_map(|v| if v == 0 { 1 << 30 } else { v - 1 }),
    ) {
        let (sharded, dir) = shard_to_disk(&g, shard_bytes, 64);
        let cfg = PowerConfig::default();
        let (xr, sr) = solve(&UniformTransition::new(&g), &cfg);
        let pcfg = PipelineConfig { prefetch_buffers, spans_per_worker, cache_bytes };
        let (xs, ss) = sr_par::with_threads(threads, || {
            let streamed = StreamedTransition::from_sharded_with(&sharded, pcfg);
            assert!(streamed.is_pipelined(), "sharded backend must pipeline");
            solve(&streamed, &cfg)
        });
        prop_assert_eq!(&xs, &xr, "scores diverged");
        prop_assert_eq!(ss.iterations, sr.iterations, "iteration counts diverged");
        prop_assert_eq!(ss.residual_history, sr.residual_history);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The public out-of-core path: `PageRank::rank_operator_warm_in` over a
    /// `StreamedTransition` ≡ `PageRank::rank` on the equivalent in-RAM
    /// graph, bitwise.
    #[test]
    fn rank_sharded_matches_rank(g in arb_graph(), shard_bytes in 1usize..256) {
        let (sharded, dir) = shard_to_disk(&g, shard_bytes, 64);
        let pr = PageRank::default();
        let on_disk = rank_sharded(&pr, &sharded);
        let in_ram = pr.rank(&g);
        prop_assert_eq!(on_disk.scores(), in_ram.scores());
        prop_assert_eq!(on_disk.stats().iterations, in_ram.stats().iterations);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn pipelined_1_vs_8_workers_bitwise_identical() {
    // The CI determinism gate: the same on-disk file solved through the
    // pipelined path with 1 worker and with 8 workers must agree bit for
    // bit — worker–shard affinity seams and prefetch scheduling are
    // invisible in the scores.
    let edges: Vec<(u32, u32)> = (0u32..300)
        .flat_map(|u| {
            [
                (u, (u * 17 + 5) % 300),
                (u, (u * 23 + 1) % 300),
                ((u * 7) % 300, u),
            ]
        })
        .collect();
    let g = GraphBuilder::from_edges_exact(300, edges).unwrap();
    let (sharded, dir) = shard_to_disk(&g, 96, 64);
    let cfg = PowerConfig::default();
    let (x1, s1) = sr_par::with_threads(1, || {
        let t = StreamedTransition::from_sharded(&sharded);
        assert!(t.is_pipelined());
        solve(&t, &cfg)
    });
    let (x8, s8) = sr_par::with_threads(8, || {
        let t = StreamedTransition::from_sharded(&sharded);
        assert!(t.is_pipelined());
        solve(&t, &cfg)
    });
    assert_eq!(x1, x8, "1-worker and 8-worker pipelined solves diverged");
    assert_eq!(s1.iterations, s8.iterations);
    assert_eq!(s1.residual_history, s8.residual_history);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_node_graph_solves_out_of_core() {
    let g = GraphBuilder::from_edges_exact(1, vec![]).unwrap();
    let (sharded, dir) = shard_to_disk(&g, 1, 16);
    let r = rank_sharded(&PageRank::default(), &sharded);
    assert_eq!(r.scores(), &[1.0]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn edgeless_graph_is_all_dangling_out_of_core() {
    // Every shard is an empty gap-filled row: the solve is pure dangling
    // redistribution and must match the in-RAM result exactly.
    let g = GraphBuilder::from_edges_exact(10, vec![]).unwrap();
    let (sharded, dir) = shard_to_disk(&g, 2, 16);
    assert!(sharded.num_edges() == 0);
    let on_disk = rank_sharded(&PageRank::default(), &sharded);
    let in_ram = PageRank::default().rank(&g);
    assert_eq!(on_disk.scores(), in_ram.scores());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_row_shards_partition_cleanly() {
    // shard target 1 byte → every row its own shard; an 8-thread partition
    // must still land every boundary on a shard seam and solve bitwise.
    let g = GraphBuilder::from_edges_exact(
        12,
        (0..12u32)
            .flat_map(|u| [(u, (u + 1) % 12), (u, (u * 5 + 2) % 12)])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let (sharded, dir) = shard_to_disk(&g, 1, 16);
    assert!(sharded.shards().len() >= 12, "expected one shard per row");
    sr_par::with_threads(8, || {
        let p = SolveGraph::partition(&sharded, 8);
        let seams: Vec<usize> = sharded.shards().iter().map(|s| s.row_lo).collect();
        for &b in &p.row_bounds()[1..p.row_bounds().len() - 1] {
            assert!(
                seams.contains(&b) || b == sharded.num_nodes(),
                "bound {b} not on a shard seam"
            );
        }
        let on_disk = rank_sharded(&PageRank::default(), &sharded);
        let in_ram = PageRank::default().rank(&g);
        assert_eq!(on_disk.scores(), in_ram.scores());
    });
    std::fs::remove_dir_all(&dir).ok();
}
