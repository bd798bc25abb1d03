//! Batched multi-vector power iteration — the SpMM engine.
//!
//! Every experiment in the paper's evaluation is a *family* of damped
//! fixed-point solves over one graph: damping/throttling sensitivity sweeps,
//! multi-seed spam-proximity personalization, the PageRank/TrustRank
//! comparator runs. Solved one vector at a time, the graph's edge stream is
//! read from memory once per family member. This module solves up to
//! [`PANEL_WIDTH`] of them at once: the K iterates are packed column-blocked
//! into one row-major `[node][k]` panel, and the operator's
//! [`propagate_panel`](crate::operator::BatchTransition::propagate_panel)
//! gathers each adjacency row **once**, applying it to all K columns — the
//! classic SpMV→SpMM bandwidth win.
//!
//! Each column carries its own damping α, teleport vector and optional warm
//! start ([`SolveColumn`]); the batch shares one stopping rule and
//! formulation ([`SolveBatch`]). Batches wider than [`PANEL_WIDTH`] are
//! tiled into consecutive panels.
//!
//! ## Bit-identity and column compaction
//!
//! The engine's contract is stronger than "within tolerance": every column
//! of a batched solve is **bit-identical** to a sequential
//! [`power_method`](crate::power::power_method) run with that column's
//! parameters and the default strongly-preferential dangling patch — same
//! scores, same residual history, same iteration count. Three ingredients
//! make that hold:
//!
//! * the panel gather accumulates each (row, column) pair in ascending
//!   CSR-position order with its own accumulator ([`sr_graph::panel`]
//!   kernels, per-edge scale fused), exactly like the single-vector gather;
//! * every blocked reduction (dangling, deficit, residual) runs over blocks
//!   of [`sr_par::PAR_THRESHOLD`] *nodes* — the block length is scaled by
//!   the panel width — with per-column partials combined in the
//!   single-vector fold order;
//! * when a column's residual drops below tolerance it is **retired**: its
//!   scores are extracted from the panel (and L1-normalized as a contiguous
//!   vector, the same association as the single-vector path), and the panel
//!   is **compacted** — surviving columns are moved into a narrower panel
//!   and the kernels re-dispatch at the smaller width, so retired columns
//!   cost no loads or adds and the survivors keep dense, vectorizable rows.
//!   Columns never read each other's panel slots and the reduction blocks
//!   are per-*node*, so neither retirement nor the width change can perturb
//!   the bits of the survivors. A panel that narrows to one column degrades
//!   gracefully: width 1 delegates to the fused single-vector kernel.
//!
//! The differential suite (`crates/core/tests/batch_differential.rs`) pins
//! all of this against sequential solves on both `CsrGraph` and round-tripped
//! `CompressedGraph` inputs.

use crate::convergence::{ConvergenceCriteria, IterationStats, Norm};
use crate::operator::BatchTransition;
use crate::power::{load_warm_start, Formulation};
use crate::rankvec::RankVector;
use crate::teleport::Teleport;
use crate::vecops;

/// Width of one SpMM tile: batches wider than this are solved as consecutive
/// panels. Eight f64 columns make a 64-byte panel row — one cache line per
/// visited node — which is where the gather's bandwidth win saturates.
pub const PANEL_WIDTH: usize = sr_graph::PANEL_MAX_WIDTH;

/// One column of a [`SolveBatch`]: the per-solve parameters of the damped
/// walk (the batch shares its stopping rule and formulation).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveColumn {
    /// Mixing (damping) parameter α of this column.
    pub alpha: f64,
    /// Teleport distribution `c` of this column.
    pub teleport: Teleport,
    /// Optional warm-start vector — same semantics as
    /// [`PowerConfig::initial`](crate::power::PowerConfig::initial): it is
    /// L1-normalized before use and falls back to the teleport if it
    /// normalizes to zero.
    pub initial: Option<Vec<f64>>,
}

impl SolveColumn {
    /// A cold-started column.
    pub fn new(alpha: f64, teleport: Teleport) -> Self {
        SolveColumn {
            alpha,
            teleport,
            initial: None,
        }
    }

    /// Attaches a warm-start vector.
    pub fn with_initial(mut self, initial: Vec<f64>) -> Self {
        self.initial = Some(initial);
        self
    }
}

/// A family of damped power solves over one operator: K parameter columns
/// plus the shared stopping rule and fixed-point formulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveBatch {
    /// The parameter columns, solved in order.
    pub columns: Vec<SolveColumn>,
    /// Shared stopping rule.
    pub criteria: ConvergenceCriteria,
    /// Shared fixed-point formulation.
    pub formulation: Formulation,
}

impl SolveBatch {
    /// A batch over `columns` with the default stopping rule and the
    /// eigenvector formulation.
    pub fn new(columns: Vec<SolveColumn>) -> Self {
        SolveBatch {
            columns,
            criteria: ConvergenceCriteria::default(),
            formulation: Formulation::default(),
        }
    }

    /// Sets the shared stopping rule.
    pub fn criteria(mut self, criteria: ConvergenceCriteria) -> Self {
        self.criteria = criteria;
        self
    }

    /// Sets the shared fixed-point formulation.
    pub fn formulation(mut self, formulation: Formulation) -> Self {
        self.formulation = formulation;
        self
    }
}

/// The K rank vectors of one batched solve, in column order. During the
/// solve the iterates live interleaved in a row-major panel; each column is
/// extracted to contiguous storage the moment it converges (or the batch
/// hits its iteration cap), so the results here are ordinary per-column
/// [`RankVector`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRankVector {
    columns: Vec<RankVector>,
}

impl MultiRankVector {
    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column `k`'s rank vector.
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn column(&self, k: usize) -> &RankVector {
        &self.columns[k]
    }

    /// All columns, in batch order.
    pub fn columns(&self) -> &[RankVector] {
        &self.columns
    }

    /// Moves the columns out.
    pub fn into_columns(self) -> Vec<RankVector> {
        self.columns
    }
}

/// Reusable buffers for batched solves: the two panel iterates, the operator
/// scratch panel, the teleport panel, per-column dangling masses and a
/// staging vector for column interleaving. Like
/// [`SolverWorkspace`](crate::power::SolverWorkspace), buffers grow on first
/// use and are reused verbatim, so a loop of same-shaped batches allocates
/// only the per-column score vectors and residual histories.
#[derive(Debug, Default)]
pub struct BatchWorkspace {
    /// Current panel iterate.
    x: Vec<f64>,
    /// Propagation target panel, swapped with `x` every iteration.
    y: Vec<f64>,
    /// Single-vector operator scratch, used when a panel narrows to width 1
    /// and the solve delegates to the fused single-vector kernel.
    scratch: Vec<f64>,
    /// Dense teleport panel.
    c: Vec<f64>,
    /// Per-column dangling mass of the latest sweep.
    dangling: Vec<f64>,
    /// Contiguous staging buffer for scattering columns into the panel.
    stage: Vec<f64>,
}

impl BatchWorkspace {
    /// An empty workspace; buffers are sized on first solve.
    pub fn new() -> Self {
        BatchWorkspace::default()
    }

    /// Sizes every buffer for an `n`-state, `width`-column tile.
    fn prepare(&mut self, n: usize, width: usize) {
        self.x.resize(n * width, 0.0);
        self.y.resize(n * width, 0.0);
        self.scratch.resize(n, 0.0);
        self.c.resize(n * width, 0.0);
        self.dangling.resize(width, 0.0);
        self.stage.resize(n, 0.0);
    }
}

/// Solves `batch` over `op`, one SpMM panel of up to [`PANEL_WIDTH`] columns
/// at a time, in caller-owned buffers. Each column's result is bit-identical
/// to a sequential [`power_method`](crate::power::power_method) with that
/// column's parameters (see the module docs).
///
/// # Panics
/// Panics if any column's α is outside `[0, 1)` or a warm start is invalid.
pub fn solve_batch(
    op: &dyn BatchTransition,
    batch: &SolveBatch,
    ws: &mut BatchWorkspace,
) -> MultiRankVector {
    for col in &batch.columns {
        assert!(
            (0.0..1.0).contains(&col.alpha),
            "alpha must be in [0,1), got {}",
            col.alpha
        );
    }
    let n = op.num_nodes();
    let mut columns = Vec::with_capacity(batch.columns.len());
    for tile in batch.columns.chunks(PANEL_WIDTH) {
        solve_tile(
            op,
            n,
            tile,
            &batch.criteria,
            batch.formulation,
            ws,
            &mut columns,
        );
    }
    MultiRankVector { columns }
}

/// Per-column iteration state inside one tile.
struct ColumnState {
    residual_history: Vec<f64>,
    residual: f64,
}

/// Solves one panel of up to [`PANEL_WIDTH`] columns, pushing the finished
/// [`RankVector`]s onto `out` in column order.
fn solve_tile(
    op: &dyn BatchTransition,
    n: usize,
    cols: &[SolveColumn],
    criteria: &ConvergenceCriteria,
    formulation: Formulation,
    ws: &mut BatchWorkspace,
    out: &mut Vec<RankVector>,
) {
    let width = cols.len();
    if n == 0 {
        for _ in 0..width {
            out.push(RankVector::new(
                Vec::new(),
                IterationStats {
                    iterations: 0,
                    final_residual: 0.0,
                    converged: true,
                    residual_history: Vec::new(),
                },
            ));
        }
        return;
    }
    ws.prepare(n, width);
    let mut alphas: Vec<f64> = cols.iter().map(|c| c.alpha).collect();
    // Teleport panel and initial iterate: each column is prepared as a
    // contiguous vector (normalization association matters for bit-identity
    // with the single-vector path) and then interleaved into the panel.
    for (j, col) in cols.iter().enumerate() {
        col.teleport.write_dense(&mut ws.stage);
        scatter_column(&mut ws.c, width, j, &ws.stage);
        // `stage` still holds the teleport, the start of a cold column.
        if let Some(x0) = &col.initial {
            if !load_warm_start(&mut ws.stage, x0) {
                col.teleport.write_dense(&mut ws.stage);
            }
        }
        scatter_column(&mut ws.x, width, j, &ws.stage);
    }

    let mut states: Vec<ColumnState> = (0..width)
        .map(|_| ColumnState {
            residual_history: Vec::new(),
            residual: f64::INFINITY,
        })
        .collect();
    let mut results: Vec<Option<RankVector>> = (0..width).map(|_| None).collect();
    // Panel position `p` holds original column `live[p]`; retirement
    // compacts the panels, so the mapping (and the panel width) shrinks as
    // columns converge.
    let mut live: Vec<usize> = (0..width).collect();
    let mut residuals: Vec<f64> = Vec::with_capacity(width);

    for _ in 0..criteria.max_iterations {
        let w = live.len();
        if w == 0 {
            break;
        }
        op.propagate_panel(
            &ws.x[..n * w],
            &mut ws.y[..n * w],
            w,
            &mut ws.scratch,
            &mut ws.dangling[..w],
        );
        fused_update_residual_panel(
            &mut ws.y[..n * w],
            &ws.x[..n * w],
            &ws.c[..n * w],
            &alphas,
            &ws.dangling[..w],
            w,
            formulation,
            criteria.norm,
            &mut residuals,
        );
        for (p, &j) in live.iter().enumerate() {
            let residual = residuals[p];
            let state = &mut states[j];
            state.residual = residual;
            state.residual_history.push(residual);
        }
        std::mem::swap(&mut ws.x, &mut ws.y);
        // Retire converged columns: extract now, while `x` holds the iterate
        // they converged on, then compact the panels to the survivors so
        // later sweeps run dense at the narrower width.
        if live
            .iter()
            .any(|&j| states[j].residual < criteria.tolerance)
        {
            let mut keep = Vec::with_capacity(w);
            for (p, &j) in live.iter().enumerate() {
                if states[j].residual < criteria.tolerance {
                    results[j] = Some(retire_column(&ws.x[..n * w], w, p, &mut states[j], true));
                } else {
                    keep.push(p);
                }
            }
            compact_panel(&mut ws.x[..n * w], w, &keep);
            compact_panel(&mut ws.c[..n * w], w, &keep);
            live = keep.iter().map(|&p| live[p]).collect();
            alphas = keep.iter().map(|&p| alphas[p]).collect();
        }
    }
    // Iteration cap: whatever is still live retires unconverged.
    let w = live.len();
    for (p, &j) in live.iter().enumerate() {
        results[j] = Some(retire_column(&ws.x[..n * w], w, p, &mut states[j], false));
    }
    for r in results {
        out.push(r.expect("every tile column retires exactly once"));
    }
}

/// Compacts a row-major `[node][width]` panel in place to the `keep` panel
/// positions (ascending): after the call the first `n · keep.len()` slots
/// hold the surviving columns, row-major at the narrower width. Safe in
/// place because every write lands at or before its read — within a row the
/// destination offset never exceeds the source offset, and row `r`'s writes
/// end before row `r + 1`'s reads begin.
fn compact_panel(panel: &mut [f64], width: usize, keep: &[usize]) {
    let new_w = keep.len();
    if new_w == width {
        return;
    }
    let n = panel.len() / width;
    for r in 0..n {
        let src = r * width;
        let dst = r * new_w;
        for (i, &p) in keep.iter().enumerate() {
            panel[dst + i] = panel[src + p];
        }
    }
}

/// Extracts column `j` from the panel, L1-normalizes it as a contiguous
/// vector (same association as the single-vector path) and closes out its
/// stats.
fn retire_column(
    x_panel: &[f64],
    width: usize,
    j: usize,
    state: &mut ColumnState,
    converged: bool,
) -> RankVector {
    let mut scores: Vec<f64> = x_panel[j..].iter().step_by(width).copied().collect();
    vecops::normalize_l1(&mut scores);
    let residual_history = std::mem::take(&mut state.residual_history);
    RankVector::new(
        scores,
        IterationStats {
            iterations: residual_history.len(),
            final_residual: state.residual,
            converged,
            residual_history,
        },
    )
}

/// Interleaves contiguous `src` into column `j` of a row-major panel.
fn scatter_column(panel: &mut [f64], width: usize, j: usize, src: &[f64]) {
    for (row, &v) in panel.chunks_exact_mut(width).zip(src) {
        row[j] = v;
    }
}

/// Panel form of the fused damp + teleport + dangling + residual sweep: one
/// pass over the `y` panel updating every column and accumulating its
/// residual. Blocks cover [`sr_par::PAR_THRESHOLD`] nodes (block length
/// scaled by the width) and per-column partials are combined reduce-style in
/// block order — the single-vector sweep's exact fold, column by column.
/// Residuals are written to `residuals` in panel-position order. The width
/// is dispatched to monomorphized kernels so the per-row column loops have
/// compile-time trip counts.
#[allow(clippy::too_many_arguments)]
fn fused_update_residual_panel(
    y: &mut [f64],
    x: &[f64],
    c: &[f64],
    alphas: &[f64],
    dangling: &[f64],
    width: usize,
    formulation: Formulation,
    norm: Norm,
    residuals: &mut Vec<f64>,
) {
    macro_rules! dispatch {
        ($k:literal) => {
            fused_update_residual_panel_impl::<$k>(
                y,
                x,
                c,
                alphas,
                dangling,
                formulation,
                norm,
                residuals,
            )
        };
    }
    match width {
        1 => dispatch!(1),
        2 => dispatch!(2),
        3 => dispatch!(3),
        4 => dispatch!(4),
        5 => dispatch!(5),
        6 => dispatch!(6),
        7 => dispatch!(7),
        8 => dispatch!(8),
        _ => panic!("panel width {width} outside 1..={PANEL_WIDTH}; tile wider batches"),
    }
}

#[allow(clippy::too_many_arguments)]
fn fused_update_residual_panel_impl<const K: usize>(
    y: &mut [f64],
    x: &[f64],
    c: &[f64],
    alphas: &[f64],
    dangling: &[f64],
    formulation: Formulation,
    norm: Norm,
    residuals: &mut Vec<f64>,
) {
    let alphas: &[f64; K] = alphas.try_into().expect("one alpha per panel column");
    let dangling: &[f64; K] = dangling.try_into().expect("one dangling mass per column");
    // The norm and formulation matches are hoisted out of the row loop (the
    // macro stamps one monomorphic body per combination) so the hot loop has
    // no per-element branch and vectorizes cleanly. Each arm folds exactly
    // `norm.accumulate` — the fold stays bit-identical to the single-vector
    // sweep's.
    let partials = sr_par::for_each_block(y, sr_par::PAR_THRESHOLD * K, |b, part| {
        let lo = b * sr_par::PAR_THRESHOLD;
        let mut acc = [0.0f64; K];
        macro_rules! sweep {
            (Eigenvector, $fold:expr) => {
                for (i, row) in part.chunks_exact_mut(K).enumerate() {
                    let v = lo + i;
                    let crow: &[f64; K] = c[v * K..][..K].try_into().unwrap();
                    let xrow: &[f64; K] = x[v * K..][..K].try_into().unwrap();
                    for k in 0..K {
                        let a = alphas[k];
                        let cv = crow[k];
                        let nv = a * (row[k] + dangling[k] * cv) + (1.0 - a) * cv;
                        row[k] = nv;
                        acc[k] = $fold(acc[k], xrow[k] - nv);
                    }
                }
            };
            (LinearSystem, $fold:expr) => {
                for (i, row) in part.chunks_exact_mut(K).enumerate() {
                    let v = lo + i;
                    let crow: &[f64; K] = c[v * K..][..K].try_into().unwrap();
                    let xrow: &[f64; K] = x[v * K..][..K].try_into().unwrap();
                    for k in 0..K {
                        let a = alphas[k];
                        let nv = a * row[k] + (1.0 - a) * crow[k];
                        row[k] = nv;
                        acc[k] = $fold(acc[k], xrow[k] - nv);
                    }
                }
            };
            ($formulation:ident) => {
                match norm {
                    Norm::L1 => sweep!($formulation, |a: f64, d: f64| a + d.abs()),
                    Norm::L2 => sweep!($formulation, |a: f64, d: f64| a + d * d),
                    Norm::LInf => sweep!($formulation, |a: f64, d: f64| a.max(d.abs())),
                }
            };
        }
        match formulation {
            Formulation::Eigenvector => sweep!(Eigenvector),
            Formulation::LinearSystem => sweep!(LinearSystem),
        }
        acc
    });
    residuals.clear();
    for k in 0..K {
        let mut it = partials.iter();
        let mut total = it.next().map_or(0.0, |p| p[k]);
        for p in it {
            total = norm.combine(total, p[k]);
        }
        residuals.push(norm.finish(total));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{UniformTransition, WeightedTransition};
    use crate::power::tests::run;
    use crate::power::PowerConfig;
    use sr_graph::{GraphBuilder, WeightedGraph};

    fn ring_with_chords(n: usize) -> sr_graph::CsrGraph {
        let mut edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        for v in 0..n as u32 {
            if v % 3 == 0 {
                edges.push((v, (v * 7 + 2) % n as u32));
            }
            if v % 11 == 0 {
                edges.push((v, (v * 13 + 5) % n as u32));
            }
        }
        GraphBuilder::from_edges_exact(n, edges).unwrap()
    }

    fn sequential(
        op: &dyn crate::operator::Transition,
        col: &SolveColumn,
    ) -> (Vec<f64>, IterationStats) {
        run(
            op,
            &PowerConfig {
                alpha: col.alpha,
                teleport: col.teleport.clone(),
                criteria: ConvergenceCriteria::default(),
                formulation: Formulation::default(),
                dangling: Default::default(),
                initial: col.initial.clone(),
            },
        )
    }

    fn batched(op: &dyn BatchTransition, batch: &SolveBatch) -> MultiRankVector {
        solve_batch(op, batch, &mut BatchWorkspace::new())
    }

    #[test]
    fn batched_columns_are_bitwise_sequential() {
        let g = ring_with_chords(200);
        let op = UniformTransition::new(&g);
        let columns = vec![
            SolveColumn::new(0.85, Teleport::Uniform),
            SolveColumn::new(0.5, Teleport::over_seeds(200, &[3, 17, 91])),
            SolveColumn::new(0.92, Teleport::Uniform),
        ];
        let batch = SolveBatch::new(columns.clone());
        let got = batched(&op, &batch);
        assert_eq!(got.num_columns(), 3);
        for (j, col) in columns.iter().enumerate() {
            let (want, want_stats) = sequential(&op, col);
            assert_eq!(got.column(j).scores(), &want[..], "column {j} scores");
            assert_eq!(
                got.column(j).stats().residual_history,
                want_stats.residual_history,
                "column {j} residuals"
            );
            assert_eq!(got.column(j).stats().converged, want_stats.converged);
        }
    }

    #[test]
    fn batches_wider_than_a_panel_tile() {
        let g = ring_with_chords(60);
        let op = UniformTransition::new(&g);
        let columns: Vec<SolveColumn> = (0..PANEL_WIDTH * 2 + 3)
            .map(|j| SolveColumn::new(0.5 + 0.02 * j as f64, Teleport::Uniform))
            .collect();
        let got = batched(&op, &SolveBatch::new(columns.clone()));
        assert_eq!(got.num_columns(), columns.len());
        for (j, col) in columns.iter().enumerate() {
            let (want, want_stats) = sequential(&op, col);
            assert_eq!(got.column(j).scores(), &want[..], "column {j}");
            assert_eq!(got.column(j).stats().iterations, want_stats.iterations);
        }
    }

    #[test]
    fn weighted_operator_batches_bitwise_too() {
        let g = WeightedGraph::from_parts(
            vec![0, 2, 3, 5, 5],
            vec![1, 2, 0, 0, 3],
            vec![0.5, 0.5, 1.0, 0.3, 0.6],
        );
        let op = WeightedTransition::new(&g);
        let columns = vec![
            SolveColumn::new(0.85, Teleport::Uniform),
            SolveColumn::new(0.7, Teleport::over_seeds(4, &[2])),
        ];
        let got = batched(&op, &SolveBatch::new(columns.clone()));
        for (j, col) in columns.iter().enumerate() {
            let (want, want_stats) = sequential(&op, col);
            assert_eq!(got.column(j).scores(), &want[..], "column {j}");
            assert_eq!(got.column(j).stats().iterations, want_stats.iterations);
        }
    }

    #[test]
    fn warm_started_column_matches_sequential_warm_start() {
        let g = ring_with_chords(80);
        let op = UniformTransition::new(&g);
        let (cold, _) = sequential(&op, &SolveColumn::new(0.85, Teleport::Uniform));
        let columns = vec![
            SolveColumn::new(0.85, Teleport::Uniform).with_initial(cold.clone()),
            SolveColumn::new(0.6, Teleport::Uniform),
        ];
        let got = batched(&op, &SolveBatch::new(columns.clone()));
        let (want, want_stats) = sequential(&op, &columns[0]);
        assert_eq!(got.column(0).scores(), &want[..]);
        assert_eq!(got.column(0).stats().iterations, want_stats.iterations);
        assert!(got.column(0).stats().iterations <= 2);
    }

    #[test]
    fn iteration_cap_reports_unconverged_columns() {
        let g = ring_with_chords(50);
        let op = UniformTransition::new(&g);
        let batch = SolveBatch::new(vec![
            SolveColumn::new(0.99, Teleport::Uniform),
            SolveColumn::new(0.1, Teleport::Uniform),
        ])
        .criteria(ConvergenceCriteria {
            max_iterations: 3,
            ..Default::default()
        });
        let got = batched(&op, &batch);
        assert!(!got.column(0).stats().converged);
        assert_eq!(got.column(0).stats().iterations, 3);
        for (j, col) in batch.columns.iter().enumerate() {
            let (want, _) = run(
                &op,
                &PowerConfig {
                    alpha: col.alpha,
                    teleport: col.teleport.clone(),
                    criteria: batch.criteria,
                    formulation: Formulation::default(),
                    dangling: Default::default(),
                    initial: None,
                },
            );
            assert_eq!(got.column(j).scores(), &want[..], "column {j}");
        }
    }

    #[test]
    fn empty_batch_and_empty_graph_are_fine() {
        let g = ring_with_chords(10);
        let op = UniformTransition::new(&g);
        let got = batched(&op, &SolveBatch::new(Vec::new()));
        assert!(got.is_empty());

        let empty = sr_graph::CsrGraph::empty(0);
        let op = UniformTransition::new(&empty);
        let got = batched(
            &op,
            &SolveBatch::new(vec![SolveColumn::new(0.85, Teleport::Uniform)]),
        );
        assert_eq!(got.num_columns(), 1);
        assert!(got.column(0).scores().is_empty());
        assert!(got.column(0).stats().converged);
    }

    #[test]
    fn linear_system_formulation_batches_bitwise() {
        let g = ring_with_chords(40);
        let op = UniformTransition::new(&g);
        let columns = vec![
            SolveColumn::new(0.85, Teleport::Uniform),
            SolveColumn::new(0.4, Teleport::over_seeds(40, &[7])),
        ];
        let batch = SolveBatch::new(columns.clone()).formulation(Formulation::LinearSystem);
        let got = batched(&op, &batch);
        for (j, col) in columns.iter().enumerate() {
            let (want, want_stats) = run(
                &op,
                &PowerConfig {
                    alpha: col.alpha,
                    teleport: col.teleport.clone(),
                    criteria: ConvergenceCriteria::default(),
                    formulation: Formulation::LinearSystem,
                    dangling: Default::default(),
                    initial: None,
                },
            );
            assert_eq!(got.column(j).scores(), &want[..], "column {j}");
            assert_eq!(got.column(j).stats().iterations, want_stats.iterations);
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        let g = ring_with_chords(5);
        let op = UniformTransition::new(&g);
        batched(
            &op,
            &SolveBatch::new(vec![SolveColumn::new(1.0, Teleport::Uniform)]),
        );
    }
}
