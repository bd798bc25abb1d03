//! Source-graph extraction with source-consensus edge weights (§3.2–3.3).
//!
//! Given the page graph `G_P` and a [`SourceAssignment`], this module derives
//! the source graph `G_S` and its transition matrix:
//!
//! * **structural** edges: `(s_i, s_j) ∈ L_S` iff some page of `s_i` links to
//!   some page of `s_j` (self-edges excluded from the structural count, which
//!   is what Table 1 of the paper reports);
//! * **source consensus** raw weights (§3.2): `w(s_i, s_j)` counts the number
//!   of *unique pages* in `s_i` that link to at least one page of `s_j` — a
//!   hijacker must capture *many* pages of a legitimate source to move this
//!   weight, which is the first line of spam defence;
//! * **uniform** weights (the paper's initial `T`): every distinct out-edge
//!   of a source gets strength `1/o(s_i)`;
//! * **self-edge augmentation** (§3.3): every source receives a self-edge
//!   `(s_i, s_i)` regardless of the page graph, the hook on which influence
//!   throttling hangs.
//!
//! Rows of the resulting [`WeightedGraph`] are normalized to sum to 1.
//!
//! # The consensus-row kernel
//!
//! Every row of `G_S` depends only on the pages of its origin source, so
//! extraction is one kernel applied per source. Pages are bucketed by source
//! with an `O(n)` counting sort; for each source, the kernel walks its pages'
//! out-links and counts each target source's unique origin pages in a
//! per-worker scratch of one stamp/count slot per source; only the row's
//! distinct targets are then sorted. A shared row epilogue applies the
//! weighting, the §3.3 self-edge, the [`DanglingPolicy`] and normalization.
//! [`extract`] runs the kernel over source ranges balanced by page-edge
//! count and writes the CSRs directly;
//! [`crate::delta::SourceGraphMaintainer`] runs the same kernel and epilogue
//! on the rows a delta touches.
//!
//! Cost: one pass over the page edges plus a sort of each row's distinct
//! targets, and `O(num_sources)` scratch per worker (8 bytes per source —
//! `8n` bytes under the identity assignment). The output is bit-identical
//! at every thread count: counts are exact integers, and each row is summed
//! and normalized in ascending-target order by one worker.

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::ids::{node_id, NodeId, SourceId};
use crate::partition::EdgePartition;
use crate::source_map::SourceAssignment;
use crate::weighted::WeightedGraph;

/// How raw source-edge strengths are derived from page links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgeWeighting {
    /// Uniform `1/o(s_i)` per distinct target source (the paper's initial
    /// transition matrix `T`).
    Uniform,
    /// Source consensus: count of unique origin pages linking into the target
    /// source (the paper's `T'`, §3.2). The default.
    #[default]
    Consensus,
}

/// What to do with a source that has no out-mass at all (no out-links and a
/// zero-weight self-edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DanglingPolicy {
    /// Give the mandatory self-edge weight 1 — the source keeps its influence
    /// to itself, consistent with §3.3's self-edge requirement. The default.
    #[default]
    SelfLoop,
    /// Leave the row all-zero; the ranking solver then redistributes the mass
    /// through the teleportation vector (classic PageRank dangling handling).
    ZeroRow,
}

/// Configuration for [`extract`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SourceGraphConfig {
    /// Raw weight derivation.
    pub weighting: EdgeWeighting,
    /// Dangling-source handling.
    pub dangling: DanglingPolicy,
}

impl SourceGraphConfig {
    /// The paper's full configuration: consensus weights, self-loop dangling.
    pub fn consensus() -> Self {
        SourceGraphConfig {
            weighting: EdgeWeighting::Consensus,
            dangling: DanglingPolicy::SelfLoop,
        }
    }

    /// The paper's baseline SourceRank configuration (uniform weights).
    pub fn uniform() -> Self {
        SourceGraphConfig {
            weighting: EdgeWeighting::Uniform,
            dangling: DanglingPolicy::SelfLoop,
        }
    }
}

/// The derived source graph: structural edges plus a row-stochastic
/// transition matrix with mandatory self-edges.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceGraph {
    /// Row-stochastic transition matrix `T'` including self-edges.
    transitions: WeightedGraph,
    /// Distinct inter-source edges (self-edges excluded) — what Table 1 counts.
    structural: CsrGraph,
    /// Number of pages in the underlying page graph.
    num_pages: usize,
}

impl SourceGraph {
    /// Assembles a source graph from parts maintained incrementally by
    /// [`crate::delta::SourceGraphMaintainer`]. The maintainer upholds the
    /// extraction invariants (row-stochastic transitions with mandatory
    /// self-edges, self-free structural rows) by reusing this module's
    /// per-row arithmetic.
    pub(crate) fn from_maintained_parts(
        transitions: WeightedGraph,
        structural: CsrGraph,
        num_pages: usize,
    ) -> Self {
        SourceGraph {
            transitions,
            structural,
            num_pages,
        }
    }

    /// The transition matrix `T'` (row-stochastic, self-edges included).
    #[inline]
    pub fn transitions(&self) -> &WeightedGraph {
        &self.transitions
    }

    /// Consumes `self`, returning the transition matrix.
    pub fn into_transitions(self) -> WeightedGraph {
        self.transitions
    }

    /// Structural inter-source edges (no self-edges).
    #[inline]
    pub fn structural(&self) -> &CsrGraph {
        &self.structural
    }

    /// Number of sources.
    #[inline]
    pub fn num_sources(&self) -> usize {
        self.transitions.num_nodes()
    }

    /// Number of distinct inter-source edges (the paper's Table 1 "Edges").
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.structural.num_edges()
    }

    /// Number of pages in the page graph this was extracted from.
    #[inline]
    pub fn num_pages(&self) -> usize {
        self.num_pages
    }

    /// Self-edge weight `w(s, s)` of a source (always present).
    pub fn self_weight(&self, s: SourceId) -> f64 {
        self.transitions.weight(s.0, s.0).unwrap_or(0.0)
    }
}

/// Raw (unnormalized) source-edge counts: one triple `(s_i, s_j, count)` per
/// distinct source edge, *including* self-edges with their true counts,
/// ascending by `(s_i, s_j)`.
///
/// `count` is the consensus weight of §3.2 — the number of unique pages of
/// `s_i` linking into `s_j`. This is a flattening of the raw rows
/// [`extract`] normalizes.
pub fn consensus_counts(
    page_graph: &CsrGraph,
    assignment: &SourceAssignment,
) -> Result<Vec<(NodeId, NodeId, f64)>, GraphError> {
    let blocks = fold_raw_rows(page_graph, assignment, Vec::new, |triples, s, raw| {
        triples.extend(raw.iter().map(|&(d, c)| (s, d, f64::from(c))));
    })?;
    Ok(blocks.concat())
}

/// Extracts the source graph from a page graph and its source assignment.
///
/// Runs the consensus-row kernel (see the [module docs](self)) over
/// edge-balanced source ranges in parallel and writes each finished row
/// straight into the `T'` and structural CSRs. The result is bit-identical
/// at every thread count: counts are exact integers, and each row is summed
/// and normalized in ascending-target order by one worker.
pub fn extract(
    page_graph: &CsrGraph,
    assignment: &SourceAssignment,
    config: SourceGraphConfig,
) -> Result<SourceGraph, GraphError> {
    let blocks = fold_raw_rows(
        page_graph,
        assignment,
        RowBlock::default,
        |block, s, raw| {
            finish_row(
                s,
                raw,
                config,
                &mut block.structural,
                &mut block.targets,
                &mut block.weights,
            );
            block
                .ends
                .push((block.targets.len(), block.structural.len()));
        },
    )?;

    // Stitch the per-range blocks together in source order.
    let num_sources = assignment.num_sources();
    let mut t_offsets = Vec::with_capacity(num_sources + 1);
    let mut s_offsets = Vec::with_capacity(num_sources + 1);
    t_offsets.push(0usize);
    s_offsets.push(0usize);
    let mut t_targets = Vec::with_capacity(blocks.iter().map(|b| b.targets.len()).sum());
    let mut t_weights = Vec::with_capacity(t_targets.capacity());
    let mut s_targets = Vec::with_capacity(blocks.iter().map(|b| b.structural.len()).sum());
    for block in blocks {
        let (t_base, s_base) = (t_targets.len(), s_targets.len());
        for &(t_end, s_end) in &block.ends {
            t_offsets.push(t_base + t_end);
            s_offsets.push(s_base + s_end);
        }
        t_targets.extend_from_slice(&block.targets);
        t_weights.extend_from_slice(&block.weights);
        s_targets.extend_from_slice(&block.structural);
    }
    Ok(SourceGraph {
        transitions: WeightedGraph::from_parts(t_offsets, t_targets, t_weights),
        structural: CsrGraph::from_parts(s_offsets, s_targets),
        num_pages: page_graph.num_nodes(),
    })
}

/// One source range's share of the [`extract`] output: rows in source
/// order, `ends[i]` the (transition, structural) end offsets of row `i`
/// within this block.
#[derive(Default)]
struct RowBlock {
    ends: Vec<(usize, usize)>,
    targets: Vec<NodeId>,
    weights: Vec<f64>,
    structural: Vec<NodeId>,
}

/// Runs the consensus-row kernel over every source of `assignment`, in
/// parallel over source ranges balanced by page-edge count, and returns one
/// accumulator per range in source order. `fold(acc, s, raw)` sees the raw
/// row of each source of its range in ascending order.
///
/// Pages are bucketed by source with one counting sort; each worker owns
/// one [`ConsensusScratch`], so the whole pass is one read of the page
/// edges plus a sort of each row's distinct targets.
fn fold_raw_rows<A, I, F>(
    page_graph: &CsrGraph,
    assignment: &SourceAssignment,
    init: I,
    fold: F,
) -> Result<Vec<A>, GraphError>
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, NodeId, &[(NodeId, u32)]) + Sync,
{
    assignment.validate_for(page_graph)?;
    let num_sources = assignment.num_sources();
    let map = assignment.raw();
    let groups = assignment.group_pages();

    // Per-source page-edge prefix sums: the work measure of a row.
    let mut edge_prefix = vec![0usize; num_sources + 1];
    for (&s, w) in map.iter().zip(page_graph.offsets().windows(2)) {
        edge_prefix[s as usize + 1] += w[1] - w[0];
    }
    for s in 0..num_sources {
        edge_prefix[s + 1] += edge_prefix[s];
    }
    let chunks = if page_graph.num_nodes() < sr_par::PAR_THRESHOLD {
        1
    } else {
        sr_par::num_threads()
    };
    let ranges = EdgePartition::from_offsets(&edge_prefix, chunks);

    Ok(sr_par::map_tasks(ranges.num_chunks(), |i| {
        let mut scratch = ConsensusScratch::new(num_sources);
        let mut acc = init();
        for s in ranges.chunk(i) {
            let s = node_id(s);
            let raw = scratch.count_row(groups.pages_of(SourceId(s)), map, |p| {
                page_graph.neighbors(p)
            });
            fold(&mut acc, s, raw);
        }
        acc
    }))
}

/// Stamp of a target source no page of the current row has counted yet.
/// Page ids are below `NodeId::MAX` (a graph holds at most `NodeId::MAX`
/// nodes), so no page collides with it.
const NO_PAGE: NodeId = NodeId::MAX;

/// The per-target state of [`ConsensusScratch`]: the last origin page that
/// counted the target, and how many distinct origin pages have.
#[derive(Debug, Clone, Copy)]
struct Slot {
    stamp: NodeId,
    count: u32,
}

/// Per-worker scratch of the consensus-row kernel: one [`Slot`] (8 bytes)
/// per source, all slots clean (unstamped, zero count) between rows.
#[derive(Debug, Clone)]
pub(crate) struct ConsensusScratch {
    slots: Vec<Slot>,
    /// Distinct target sources of the current row, in discovery order.
    targets: Vec<NodeId>,
    /// The finished raw row: `(target, count)`, ascending by target.
    row: Vec<(NodeId, u32)>,
}

impl ConsensusScratch {
    const CLEAN: Slot = Slot {
        stamp: NO_PAGE,
        count: 0,
    };

    /// Scratch covering source ids `0..num_sources`.
    pub(crate) fn new(num_sources: usize) -> Self {
        ConsensusScratch {
            slots: vec![Self::CLEAN; num_sources],
            targets: Vec::new(),
            row: Vec::new(),
        }
    }

    /// Widens the scratch to cover `num_sources` sources.
    pub(crate) fn grow(&mut self, num_sources: usize) {
        if self.slots.len() < num_sources {
            self.slots.resize(num_sources, Self::CLEAN);
        }
    }

    /// The consensus-row kernel (§3.2): the raw row of the source owning
    /// `pages` — every target source with the number of *unique* origin
    /// pages linking into it, ascending by target.
    ///
    /// `out_links(p)` is page `p`'s successor list and `map` the page →
    /// source map. Each page stamps the targets it reaches, so a page with
    /// many links into one source counts once; only the row's distinct
    /// targets are sorted, and only their slots are reset.
    pub(crate) fn count_row<'g>(
        &mut self,
        pages: &[NodeId],
        map: &[NodeId],
        out_links: impl Fn(NodeId) -> &'g [NodeId],
    ) -> &[(NodeId, u32)] {
        self.targets.clear();
        for &p in pages {
            for &q in out_links(p) {
                let t = map[q as usize];
                let slot = &mut self.slots[t as usize];
                if slot.stamp != p {
                    slot.stamp = p;
                    if slot.count == 0 {
                        self.targets.push(t);
                    }
                    slot.count += 1;
                }
            }
        }
        self.targets.sort_unstable();
        self.row.clear();
        for &t in &self.targets {
            let slot = std::mem::replace(&mut self.slots[t as usize], Self::CLEAN);
            self.row.push((t, slot.count));
        }
        &self.row
    }
}

/// The row epilogue shared by [`extract`] and
/// [`crate::delta::SourceGraphMaintainer`]: turns the raw consensus row of
/// source `s` (ascending targets, exact counts) into its structural targets
/// (self excluded) and its transition row — [`EdgeWeighting`], the §3.3
/// self-edge (weight 0 when the page graph implies none), the
/// [`DanglingPolicy`] and normalization — appended to the given buffers.
///
/// The row is summed and divided in ascending-target order, so the same raw
/// row always yields the same bits.
pub(crate) fn finish_row(
    s: NodeId,
    raw: &[(NodeId, u32)],
    config: SourceGraphConfig,
    structural: &mut Vec<NodeId>,
    targets: &mut Vec<NodeId>,
    weights: &mut Vec<f64>,
) {
    structural.extend(raw.iter().map(|&(d, _)| d).filter(|&d| d != s));

    let weight = |count: u32| match config.weighting {
        EdgeWeighting::Uniform => 1.0,
        EdgeWeighting::Consensus => f64::from(count),
    };
    let start = weights.len();
    let split = raw.partition_point(|&(d, _)| d < s);
    let self_idx = start + split;
    for &(d, c) in &raw[..split] {
        targets.push(d);
        weights.push(weight(c));
    }
    if raw.get(split).map(|&(d, _)| d) != Some(s) {
        targets.push(s);
        weights.push(0.0);
    }
    for &(d, c) in &raw[split..] {
        targets.push(d);
        weights.push(weight(c));
    }

    let mut sum: f64 = weights[start..].iter().sum();
    if sum == 0.0 && config.dangling == DanglingPolicy::SelfLoop {
        weights[self_idx] = 1.0;
        sum = 1.0;
    }
    if sum > 0.0 {
        for w in &mut weights[start..] {
            *w /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// Two sources: s0 = {p0, p1, p2}, s1 = {p3, p4}.
    /// p0 -> p1 (intra), p0 -> p3, p1 -> p3, p1 -> p4, p3 -> p0.
    fn fixture() -> (CsrGraph, SourceAssignment) {
        let g = GraphBuilder::from_edges_exact(5, vec![(0, 1), (0, 3), (1, 3), (1, 4), (3, 0)])
            .unwrap();
        let a = SourceAssignment::new(vec![0, 0, 0, 1, 1], 2).unwrap();
        (g, a)
    }

    #[test]
    fn consensus_counts_unique_pages() {
        let (g, a) = fixture();
        let mut counts = consensus_counts(&g, &a).unwrap();
        counts.sort_by_key(|x| (x.0, x.1));
        // s0 -> s0: only p0 links within s0 => 1
        // s0 -> s1: p0 and p1 both link into s1 => 2 (p1's two links count once)
        // s1 -> s0: p3 links to p0 => 1
        assert_eq!(counts, vec![(0, 0, 1.0), (0, 1, 2.0), (1, 0, 1.0)]);
    }

    #[test]
    fn extract_consensus_normalizes_rows() {
        let (g, a) = fixture();
        let sg = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();
        let t = sg.transitions();
        assert!(t.is_row_stochastic(1e-12));
        // s0 raw: self 1, to s1 2 => normalized 1/3, 2/3.
        assert!((t.weight(0, 0).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert!((t.weight(0, 1).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        // s1 raw: self 0 (augmented), to s0 1 => normalized 0, 1.
        assert_eq!(t.weight(1, 1).unwrap(), 0.0);
        assert!((t.weight(1, 0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extract_uniform_equalizes_edges() {
        let (g, a) = fixture();
        let sg = extract(&g, &a, SourceGraphConfig::uniform()).unwrap();
        let t = sg.transitions();
        // s0 has distinct edges {self, s1} with raw 1 each => 0.5 / 0.5.
        assert!((t.weight(0, 0).unwrap() - 0.5).abs() < 1e-12);
        assert!((t.weight(0, 1).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn structural_excludes_self_edges() {
        let (g, a) = fixture();
        let sg = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();
        assert_eq!(sg.num_edges(), 2); // s0->s1, s1->s0
        assert!(sg.structural().has_edge(0, 1));
        assert!(!sg.structural().has_edge(0, 0));
    }

    #[test]
    fn every_source_has_self_edge() {
        let (g, a) = fixture();
        let sg = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();
        for s in 0..sg.num_sources() as NodeId {
            assert!(
                sg.transitions().neighbors(s).contains(&s),
                "source {s} lacks self-edge"
            );
        }
    }

    #[test]
    fn dangling_source_self_loop_policy() {
        // s1 has no out-links at all.
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 1)]).unwrap();
        let a = SourceAssignment::new(vec![0, 0, 1], 2).unwrap();
        let sg = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();
        assert_eq!(sg.self_weight(SourceId(1)), 1.0);
    }

    #[test]
    fn dangling_source_zero_row_policy() {
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 1)]).unwrap();
        let a = SourceAssignment::new(vec![0, 0, 1], 2).unwrap();
        let cfg = SourceGraphConfig {
            dangling: DanglingPolicy::ZeroRow,
            ..Default::default()
        };
        let sg = extract(&g, &a, cfg).unwrap();
        assert_eq!(sg.transitions().row_sum(1), 0.0);
    }

    #[test]
    fn hijacking_one_page_moves_weight_little() {
        // The §3.2 spam-resilience property: a source with many pages linking
        // to legitimate targets dilutes a single hijacked page's edge.
        let npages = 22u32;
        let mut edges = Vec::new();
        // Pages 0..19 in s0 all link to page 20 (s1).
        for p in 0..20 {
            edges.push((p, 20));
        }
        // Hijacked page 19 additionally links to spam page 21 (s2).
        edges.push((19, 21));
        let g = GraphBuilder::from_edges_exact(npages as usize, edges).unwrap();
        let mut map = vec![0u32; 22];
        map[20] = 1;
        map[21] = 2;
        let a = SourceAssignment::new(map, 3).unwrap();
        let sg = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();
        let w_spam = sg.transitions().weight(0, 2).unwrap();
        let w_legit = sg.transitions().weight(0, 1).unwrap();
        // 20 pages endorse s1, only 1 endorses s2: 20/21 vs 1/21.
        assert!((w_legit - 20.0 / 21.0).abs() < 1e-12);
        assert!((w_spam - 1.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn identity_assignment_matches_page_structure() {
        let g = GraphBuilder::from_edges(vec![(0, 1), (1, 2)]);
        let a = SourceAssignment::identity(3);
        let sg = extract(&g, &a, SourceGraphConfig::consensus()).unwrap();
        assert_eq!(sg.num_sources(), 3);
        assert_eq!(sg.num_edges(), 2);
    }

    #[test]
    fn mismatched_assignment_is_rejected() {
        let g = GraphBuilder::from_edges(vec![(0, 1)]);
        let a = SourceAssignment::new(vec![0], 1).unwrap();
        assert!(extract(&g, &a, SourceGraphConfig::consensus()).is_err());
    }
}
