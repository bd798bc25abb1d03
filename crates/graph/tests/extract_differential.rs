//! Differential tests for source-graph extraction (`sr_graph::source_graph`).
//!
//! [`source_graph::extract`] counts each consensus row (§3.2) with a
//! per-source stamp/count kernel over edge-balanced source ranges. This
//! suite pins it — and [`source_graph::consensus_counts`] — **bitwise**
//! against a reference kept here: the global pair-sort extraction (per-page
//! deduplicated `(s_i, s_j)` pairs, one sort, run-length counts,
//! `WeightedGraph::from_triples`, then self-edge augmentation, dangling
//! policy and row normalization), across weighting × dangling policy and at
//! one and several worker threads.

use proptest::prelude::*;

use sr_graph::source_graph::{self, DanglingPolicy, EdgeWeighting, SourceGraphConfig};
use sr_graph::{CsrGraph, GraphBuilder, NodeId, SourceAssignment, WeightedGraph};

/// Every weighting × dangling-policy combination.
const CONFIGS: [SourceGraphConfig; 4] = [
    SourceGraphConfig {
        weighting: EdgeWeighting::Consensus,
        dangling: DanglingPolicy::SelfLoop,
    },
    SourceGraphConfig {
        weighting: EdgeWeighting::Consensus,
        dangling: DanglingPolicy::ZeroRow,
    },
    SourceGraphConfig {
        weighting: EdgeWeighting::Uniform,
        dangling: DanglingPolicy::SelfLoop,
    },
    SourceGraphConfig {
        weighting: EdgeWeighting::Uniform,
        dangling: DanglingPolicy::ZeroRow,
    },
];

/// Reference consensus counts: per page the deduplicated target sources,
/// then a global sort of the `(s_i, s_j)` pairs and run-length counts.
fn reference_counts(g: &CsrGraph, a: &SourceAssignment) -> Vec<(NodeId, NodeId, f64)> {
    let map = a.raw();
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut targets: Vec<NodeId> = Vec::new();
    for (p, &sp) in map.iter().enumerate() {
        targets.clear();
        targets.extend(
            g.neighbors(NodeId::try_from(p).unwrap())
                .iter()
                .map(|&q| map[q as usize]),
        );
        targets.sort_unstable();
        targets.dedup();
        pairs.extend(targets.iter().map(|&sq| (sp, sq)));
    }
    pairs.sort_unstable();
    let mut triples: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for pair in pairs {
        match triples.last_mut() {
            Some(&mut (s, d, ref mut c)) if (s, d) == pair => *c += 1.0,
            _ => triples.push((pair.0, pair.1, 1.0)),
        }
    }
    triples
}

/// The reference source graph as `(transitions, structural)`.
fn reference_extract(
    g: &CsrGraph,
    a: &SourceAssignment,
    config: SourceGraphConfig,
) -> (WeightedGraph, CsrGraph) {
    let num_sources = a.num_sources();
    let mut triples = reference_counts(g, a);
    let structural = {
        let mut b = GraphBuilder::with_nodes(num_sources);
        for &(s, d, _) in &triples {
            if s != d {
                b.add_edge(s, d);
            }
        }
        b.build()
    };
    if config.weighting == EdgeWeighting::Uniform {
        for t in &mut triples {
            t.2 = 1.0;
        }
    }
    let mut has_self = vec![false; num_sources];
    for &(s, d, _) in &triples {
        if s == d {
            has_self[s as usize] = true;
        }
    }
    for (s, seen) in has_self.iter().enumerate() {
        if !seen {
            let s = NodeId::try_from(s).unwrap();
            triples.push((s, s, 0.0));
        }
    }
    let mut transitions = WeightedGraph::from_triples(num_sources, triples);
    if config.dangling == DanglingPolicy::SelfLoop {
        for s in 0..NodeId::try_from(num_sources).unwrap() {
            if transitions.row_sum(s) == 0.0 {
                let idx = transitions.neighbors(s).binary_search(&s).unwrap();
                transitions.edge_weights_mut(s)[idx] = 1.0;
            }
        }
    }
    transitions.normalize_rows();
    (transitions, structural)
}

fn bits(weights: &[f64]) -> Vec<u64> {
    weights.iter().map(|w| w.to_bits()).collect()
}

/// Asserts `extract` and `consensus_counts` equal the reference bit for bit
/// under every configuration, at one thread and at `threads` threads.
fn assert_matches_reference(g: &CsrGraph, a: &SourceAssignment, threads: &[usize]) {
    let want_counts = reference_counts(g, a);
    let want: Vec<_> = CONFIGS.map(|c| reference_extract(g, a, c)).into();
    for &t in threads {
        sr_par::with_threads(t, || {
            let counts = source_graph::consensus_counts(g, a).unwrap();
            assert_eq!(counts.len(), want_counts.len(), "threads={t}");
            for (got, exp) in counts.iter().zip(&want_counts) {
                assert_eq!((got.0, got.1), (exp.0, exp.1), "threads={t}");
                assert_eq!(got.2.to_bits(), exp.2.to_bits(), "threads={t}");
            }
            for (config, (transitions, structural)) in CONFIGS.iter().zip(&want) {
                let sg = source_graph::extract(g, a, *config).unwrap();
                let got = sg.transitions();
                assert_eq!(got.offsets(), transitions.offsets(), "{config:?} t={t}");
                assert_eq!(got.targets(), transitions.targets(), "{config:?} t={t}");
                assert_eq!(
                    bits(got.weights()),
                    bits(transitions.weights()),
                    "{config:?} t={t}"
                );
                assert_eq!(sg.structural(), structural, "{config:?} t={t}");
                assert_eq!(sg.num_pages(), g.num_nodes());
            }
        });
    }
}

/// The default thread count plus a pinned multi-worker count, so the
/// parallel split runs even where the default is one thread.
fn thread_counts() -> [usize; 3] {
    [1, sr_par::num_threads(), 3]
}

/// A small crawl with a random, non-contiguous page → source map: pages of
/// one source are scattered, and some source ids own no page at all.
fn arb_crawl() -> impl Strategy<Value = (CsrGraph, SourceAssignment)> {
    (1u32..48, 1usize..10).prop_flat_map(|(n, num_sources)| {
        (
            proptest::collection::vec((0..n, 0..n), 0..160),
            proptest::collection::vec(0..num_sources as u32, n as usize),
            Just(num_sources),
        )
            .prop_map(move |(edges, map, num_sources)| {
                let g = GraphBuilder::from_edges_exact(n as usize, edges).unwrap();
                (g, SourceAssignment::new(map, num_sources).unwrap())
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random crawls under random, non-contiguous assignments.
    #[test]
    fn extract_matches_pair_sort_reference(crawl in arb_crawl()) {
        let (g, a) = crawl;
        assert_matches_reference(&g, &a, &[1, sr_par::num_threads()]);
    }

    /// The identity assignment: every page its own source, so the source
    /// graph is the page graph plus self-edges.
    #[test]
    fn identity_assignment_matches_reference(
        n in 1usize..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 0..120),
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let g = GraphBuilder::from_edges_exact(n, edges).unwrap();
        assert_matches_reference(&g, &SourceAssignment::identity(n), &[1, sr_par::num_threads()]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Crawls above `PAR_THRESHOLD` pages, where the extraction splits its
    /// sources into edge-balanced ranges across workers.
    #[test]
    fn parallel_ranges_match_reference(
        extra in 0usize..3000,
        num_sources in 2usize..400,
        seed in any::<u64>(),
    ) {
        let n = sr_par::PAR_THRESHOLD + 1 + extra;
        let (g, a) = lcg_crawl(n, num_sources, seed, 0);
        assert_matches_reference(&g, &a, &thread_counts());
    }
}

/// A deterministic crawl of `n` pages over `num_sources` sources with a
/// scattered page → source map. Pages `0..heavy_pages` all belong to source
/// 0 and carry twenty links each, so source 0 can hold most of the edges.
fn lcg_crawl(
    n: usize,
    num_sources: usize,
    seed: u64,
    heavy_pages: usize,
) -> (CsrGraph, SourceAssignment) {
    let mut state = seed | 1;
    let mut next = move |bound: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) % bound as u64) as u32
    };
    let map: Vec<u32> = (0..n)
        .map(|p| {
            if p < heavy_pages {
                0
            } else {
                next(num_sources)
            }
        })
        .collect();
    let mut edges = Vec::new();
    for p in 0..n {
        let degree = if p < heavy_pages {
            20
        } else {
            next(3) as usize
        };
        for _ in 0..degree {
            edges.push((p as u32, next(n)));
        }
    }
    let g = GraphBuilder::from_edges_exact(n, edges).unwrap();
    (g, SourceAssignment::new(map, num_sources).unwrap())
}

#[test]
fn unsplittable_heavy_source_matches_reference() {
    // Source 0 owns ~3000 pages with 20 links each against ≤ 2 links per
    // other page: one range cannot be split, the others come out thin or
    // empty, and the bits must not care.
    let n = sr_par::PAR_THRESHOLD + 2000;
    let (g, a) = lcg_crawl(n, 300, 0x5eed, 3000);
    let heavy: usize = a
        .raw()
        .iter()
        .enumerate()
        .filter(|&(_, &s)| s == 0)
        .map(|(p, _)| g.out_degree(p as u32))
        .sum();
    assert!(heavy * 2 > g.num_edges(), "source 0 must hold most edges");
    assert_matches_reference(&g, &a, &[1, 2, 4, sr_par::num_threads()]);
}

#[test]
fn empty_and_dangling_sources_match_reference() {
    // Sources 1 and 4 own no page; source 3's pages link nowhere; source 2
    // links only to itself; source 0 links out and to itself.
    let g = GraphBuilder::from_edges_exact(7, vec![(0, 1), (0, 5), (1, 5), (2, 2), (5, 0), (6, 6)])
        .unwrap();
    let a = SourceAssignment::new(vec![0, 0, 2, 3, 3, 5, 2], 6).unwrap();
    assert_matches_reference(&g, &a, &[1, sr_par::num_threads()]);

    // An edgeless crawl: every source is dangling.
    let g = CsrGraph::empty(5);
    let a = SourceAssignment::new(vec![1, 1, 0, 3, 1], 4).unwrap();
    assert_matches_reference(&g, &a, &[1, sr_par::num_threads()]);

    // No pages and no sources at all.
    let g = CsrGraph::empty(0);
    let a = SourceAssignment::new(Vec::new(), 0).unwrap();
    assert_matches_reference(&g, &a, &[1]);
}

#[test]
fn identity_assignment_above_threshold_matches_reference() {
    let n = sr_par::PAR_THRESHOLD + 500;
    let (g, _) = lcg_crawl(n, 1, 42, 0);
    assert_matches_reference(&g, &SourceAssignment::identity(n), &thread_counts());
}
