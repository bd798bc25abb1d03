//! The power-method iteration shared by every ranking in this workspace.
//!
//! Two formulations of the damped walk are supported, matching the two ways
//! the paper writes its equations:
//!
//! * **Eigenvector** ([`Formulation::Eigenvector`]): iterate the stochastic
//!   chain `T̂ = α(P + d·cᵀ) + (1−α)𝟙cᵀ` (Eq. 2), where dangling-row mass is
//!   re-injected through the teleport vector so every iterate remains a
//!   probability distribution.
//! * **Linear system** ([`Formulation::LinearSystem`]): iterate
//!   `x ← αxP + (1−α)cᵀ` (Eq. 3 / the Jacobi iteration the paper cites from
//!   Gleich et al. and Langville & Meyer), where dangling mass simply leaks;
//!   the fixed point is then L1-normalized, which the paper notes yields
//!   "exactly the same" ranking vector.
//!
//! ## The fused iteration
//!
//! Each iteration of [`power_method`] is two sweeps over the state:
//! the operator's [`propagate_with`](Transition::propagate_with) (itself
//! fused — see [`crate::operator`]) and **one** combined
//! damp + teleport + dangling-redistribution + residual-norm sweep over the
//! new iterate. The seed implementation paid three passes per iteration
//! (propagate, update, distance); the residual now falls out of the update
//! for free. All working vectors live in a caller-owned
//! [`SolverWorkspace`], so repeated solves — the warm-start incremental
//! re-ranking the attack experiments run in a loop — allocate nothing per
//! solve beyond the iteration-stats history.
//!
//! The sequential path (below [`sr_par::PAR_THRESHOLD`] nodes) performs the
//! exact floating-point operations of the seed's three-pass loop in the same
//! order, so iteration counts on small graphs are identical; the seed loop
//! itself is preserved in [`mod@reference`] for the parity tests and the kernel
//! benchmark. Above the cutover the fused sweep reduces over fixed blocks of
//! [`sr_par::PAR_THRESHOLD`] nodes in block order, so residuals — and hence
//! iteration counts and scores — are bit-identical across thread counts.
//!
//! [`power_method`] is the one entry point: the formulation, dangling patch
//! and warm start are [`PowerConfig`] settings, the buffers are a
//! caller-owned [`SolverWorkspace`], and an optional `sr_obs::SolveObserver`
//! receives per-iteration residual/dangling-mass telemetry (`None` pays
//! nothing).
//!
//! The iteration is operator-agnostic: anything implementing
//! [`Transition`] plugs in unchanged, including the out-of-core
//! [`StreamedTransition`](crate::streamed::StreamedTransition), whose
//! decode-ahead pipeline and hot-span cache make sweeps after the first
//! decode-free (see `crate::streamed`). Because the damp/teleport/residual
//! sweep here never looks inside the operator, the sharded solve inherits
//! the same iteration counts and bitwise scores as the in-RAM kernel
//! whenever the operator's `propagate_with` is bitwise-equal.

use crate::convergence::{ConvergenceCriteria, IterationStats, Norm};
use crate::operator::Transition;
use crate::teleport::Teleport;
use crate::vecops;
use sr_obs::SolveObserver;

/// Which fixed-point equation to iterate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Formulation {
    /// Stochastic chain with dangling mass redistributed via teleport. Default.
    #[default]
    Eigenvector,
    /// Pure linear-system sweep (`x ← αxP + (1−α)c`), normalized at the end.
    LinearSystem,
}

/// Where the mass sitting on dangling rows goes when the eigenvector
/// formulation re-injects it — Vigna's taxonomy ("PageRank: Functional
/// Dependencies", TOIS 2010) of how a substochastic chain is patched back to
/// stochastic.
///
/// With a **uniform** teleport the two policies coincide (bit for bit here:
/// the uniform teleport entry and the `1/n` patch row are the same f64), so
/// the distinction only matters for personalized solves — spam-seeded
/// proximity vectors, TrustRank seed sets — where strongly-preferential
/// dangling mass flows back into the seed set while weakly-preferential mass
/// spreads over the whole graph.
///
/// The linear-system formulation drops dangling mass by construction, so the
/// policy has no effect there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DanglingPolicy {
    /// Dangling rows are patched with the *teleport* vector: a walker on a
    /// dangling page jumps exactly as on a teleport step. Default, and the
    /// behavior of every solver in this workspace before the knob existed.
    #[default]
    StronglyPreferential,
    /// Dangling rows are patched with the *uniform* distribution `1/n`
    /// regardless of the teleport: a stuck walker restarts anywhere.
    WeaklyPreferential,
}

/// Configuration of a damped power-method solve.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerConfig {
    /// Mixing (damping) parameter α — the paper uses 0.85 throughout.
    pub alpha: f64,
    /// Teleport distribution `c`.
    pub teleport: Teleport,
    /// Stopping rule.
    pub criteria: ConvergenceCriteria,
    /// Fixed-point formulation.
    pub formulation: Formulation,
    /// Dangling-row patch policy (eigenvector formulation only).
    pub dangling: DanglingPolicy,
    /// Optional warm-start vector. After a small graph mutation (e.g. one
    /// injected link farm) the previous stationary vector is an excellent
    /// initial iterate and typically halves the iteration count — the
    /// incremental re-ranking path the attack experiments exploit. The
    /// vector is L1-normalized before use; its length must match the
    /// operator.
    pub initial: Option<Vec<f64>>,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            alpha: 0.85,
            teleport: Teleport::Uniform,
            criteria: ConvergenceCriteria::default(),
            formulation: Formulation::Eigenvector,
            dangling: DanglingPolicy::StronglyPreferential,
            initial: None,
        }
    }
}

/// Reusable buffers for power-method solves.
///
/// Holds the iterate, the propagation target, the operator scratch (the
/// pre-scaled iterate) and the dense teleport vector. A workspace adapts to
/// any operator size — buffers grow on first use with a new size and are
/// reused verbatim afterwards, so a loop of same-sized solves performs
/// **zero** per-solve allocation inside the solver.
///
/// ```
/// use sr_core::power::{power_method, PowerConfig, SolverWorkspace};
/// use sr_core::operator::UniformTransition;
/// use sr_graph::GraphBuilder;
///
/// let g = GraphBuilder::from_edges(vec![(0, 1), (1, 2), (2, 0)]);
/// let op = UniformTransition::new(&g);
/// let mut ws = SolverWorkspace::new();
/// let stats = power_method(&op, &PowerConfig::default(), &mut ws, None);
/// assert!(stats.converged);
/// assert_eq!(ws.solution().len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    /// Current iterate; after a solve, the solution.
    x: Vec<f64>,
    /// Propagation target, swapped with `x` every iteration.
    y: Vec<f64>,
    /// Operator scratch (pre-scaled iterate for the uniform operator).
    scratch: Vec<f64>,
    /// Dense teleport vector.
    c: Vec<f64>,
}

impl SolverWorkspace {
    /// An empty workspace; buffers are sized on first solve.
    pub fn new() -> Self {
        SolverWorkspace::default()
    }

    /// The solution left by the most recent [`power_method`] call.
    pub fn solution(&self) -> &[f64] {
        &self.x
    }

    /// Moves the solution out, leaving an empty buffer (the next solve
    /// re-allocates only that one vector).
    pub fn take_solution(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.x)
    }

    /// Sizes every buffer for an `n`-state solve.
    fn prepare(&mut self, n: usize) {
        self.x.resize(n, 0.0);
        self.y.resize(n, 0.0);
        self.scratch.resize(n, 0.0);
        self.c.resize(n, 0.0);
    }
}

/// One fused damp + teleport + dangling + residual sweep: writes the updated
/// iterate into `y` and returns its distance from `x` under `norm`. The
/// sweep runs over fixed blocks of [`sr_par::PAR_THRESHOLD`] nodes with the
/// block partials combined in block order, so the residual is bit-identical
/// across thread counts. With a single block (any graph below the cutover)
/// it performs the seed's separate update and distance passes bit for bit.
#[allow(clippy::too_many_arguments)]
fn fused_update_residual(
    y: &mut [f64],
    x: &[f64],
    c: &[f64],
    alpha: f64,
    dangling_mass: f64,
    formulation: Formulation,
    dangling: DanglingPolicy,
    norm: Norm,
) -> f64 {
    // Weakly-preferential patch entry: the same f64 the uniform teleport
    // writes, so the two policies coincide bitwise under uniform teleport.
    let inv_n = 1.0 / y.len() as f64;
    let partials = sr_par::for_each_block(y, sr_par::PAR_THRESHOLD, |i, part| {
        let lo = i * sr_par::PAR_THRESHOLD;
        let mut acc = 0.0;
        match (formulation, dangling) {
            (Formulation::Eigenvector, DanglingPolicy::StronglyPreferential) => {
                for (k, yv) in part.iter_mut().enumerate() {
                    let v = lo + k;
                    let nv = alpha * (*yv + dangling_mass * c[v]) + (1.0 - alpha) * c[v];
                    *yv = nv;
                    acc = norm.accumulate(acc, x[v] - nv);
                }
            }
            (Formulation::Eigenvector, DanglingPolicy::WeaklyPreferential) => {
                for (k, yv) in part.iter_mut().enumerate() {
                    let v = lo + k;
                    let nv = alpha * (*yv + dangling_mass * inv_n) + (1.0 - alpha) * c[v];
                    *yv = nv;
                    acc = norm.accumulate(acc, x[v] - nv);
                }
            }
            (Formulation::LinearSystem, _) => {
                for (k, yv) in part.iter_mut().enumerate() {
                    let v = lo + k;
                    let nv = alpha * *yv + (1.0 - alpha) * c[v];
                    *yv = nv;
                    acc = norm.accumulate(acc, x[v] - nv);
                }
            }
        }
        acc
    });
    norm.finish(
        partials
            .into_iter()
            .reduce(|a, b| norm.combine(a, b))
            .unwrap_or(0.0),
    )
}

/// Runs the damped power method over `op`. The stationary (or fixed-point)
/// distribution is left in `ws` (read it with [`SolverWorkspace::solution`]
/// or move it out with [`SolverWorkspace::take_solution`]); the return value
/// is the iteration diagnostics. Same-sized repeated solves allocate nothing
/// inside the solver beyond the residual history.
///
/// The result is always L1-normalized — in the eigenvector formulation it is
/// one by construction, in the linear-system formulation this is the final
/// `σ/‖σ‖` step of the paper.
///
/// With an `observer`, every iteration reports its residual and dangling
/// mass (see `sr-obs`), bracketed by solve-start/solve-end callbacks. The
/// solver label is `"power"` for the eigenvector formulation and `"jacobi"`
/// for the linear-system one. The observer is consulted once per
/// *iteration*, never inside the parallel sweeps, so `None` costs one
/// branch against milliseconds of kernel work and changes no bit.
///
/// # Panics
/// Panics if `alpha` is outside `[0, 1)` or the warm start is invalid (wrong
/// length, negative or non-finite entries).
pub fn power_method(
    op: &dyn Transition,
    config: &PowerConfig,
    ws: &mut SolverWorkspace,
    mut observer: Option<&mut (dyn SolveObserver + '_)>,
) -> IterationStats {
    assert!(
        (0.0..1.0).contains(&config.alpha),
        "alpha must be in [0,1), got {}",
        config.alpha
    );
    let n = op.num_nodes();
    ws.prepare(n);
    let solver_name = match config.formulation {
        Formulation::Eigenvector => "power",
        Formulation::LinearSystem => "jacobi",
    };
    if let Some(o) = observer.as_deref_mut() {
        o.on_solve_start(solver_name, n);
    }
    if n == 0 {
        if let Some(o) = observer.as_deref_mut() {
            o.on_solve_end(0, 0.0, true);
        }
        return IterationStats {
            iterations: 0,
            final_residual: 0.0,
            converged: true,
            residual_history: Vec::new(),
        };
    }
    config.teleport.write_dense(&mut ws.c);
    match &config.initial {
        Some(x0) if load_warm_start(&mut ws.x, x0) => {}
        _ => {
            let (x, c) = (&mut ws.x, &ws.c);
            x.copy_from_slice(c);
        }
    }
    let mut history = Vec::new();
    let mut converged = false;
    let mut residual = f64::INFINITY;

    for _ in 0..config.criteria.max_iterations {
        let dangling_mass = op.propagate_with(&ws.x, &mut ws.y, &mut ws.scratch);
        residual = fused_update_residual(
            &mut ws.y,
            &ws.x,
            &ws.c,
            config.alpha,
            dangling_mass,
            config.formulation,
            config.dangling,
            config.criteria.norm,
        );
        history.push(residual);
        if let Some(o) = observer.as_deref_mut() {
            o.on_iteration(history.len(), residual, dangling_mass);
        }
        std::mem::swap(&mut ws.x, &mut ws.y);
        if residual < config.criteria.tolerance {
            converged = true;
            break;
        }
    }

    vecops::normalize_l1(&mut ws.x);
    if let Some(o) = observer {
        o.on_solve_end(history.len(), residual, converged);
    }
    IterationStats {
        iterations: history.len(),
        final_residual: residual,
        converged,
        residual_history: history,
    }
}

/// Loads warm-start vector `x0` into `x`, L1-normalized. Returns `false`
/// when it normalizes to zero, in which case the caller starts from the
/// teleport instead. Shared by the single-vector and batched solves, so a
/// warm column of a batch starts from the same bits as the sequential solve.
///
/// # Panics
/// Panics if `x0` is not `x.len()` long, or has a negative or non-finite
/// entry.
pub(crate) fn load_warm_start(x: &mut [f64], x0: &[f64]) -> bool {
    assert_eq!(x0.len(), x.len(), "warm-start vector length mismatch");
    assert!(
        x0.iter().all(|v| v.is_finite() && *v >= 0.0),
        "warm-start vector must be finite and non-negative"
    );
    x.copy_from_slice(x0);
    vecops::normalize_l1(x);
    vecops::l1_norm(x) != 0.0
}

/// Extends a warm-start vector computed before the graph grew to `n`
/// states: the states `init` does not cover (pages or sources added since)
/// start at their teleport mass.
///
/// # Panics
/// Panics if `init` covers more than `n` states.
pub(crate) fn pad_warm_start(init: &[f64], teleport: &Teleport, n: usize) -> Vec<f64> {
    assert!(
        init.len() <= n,
        "warm-start vector covers more states than the operator"
    );
    let mut x0 = Vec::with_capacity(n);
    x0.extend_from_slice(init);
    for i in init.len()..n {
        x0.push(teleport.mass(i, n));
    }
    x0
}

pub mod reference {
    //! The seed's three-pass power iteration, preserved as the solver-level
    //! baseline: propagate, then a separate damp/teleport update pass, then a
    //! separate residual pass, with all working vectors allocated per solve.
    //! The parity tests pin [`super::power_method`] against this; the kernel
    //! benchmark records both engines on the same graph.

    use super::*;

    /// Unfused power method (seed implementation). Semantically identical to
    /// [`super::power_method`]; slower by one full pass over the state per
    /// iteration plus per-solve allocations.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `[0, 1)`.
    pub fn power_method_unfused(
        op: &dyn Transition,
        config: &PowerConfig,
    ) -> (Vec<f64>, IterationStats) {
        assert!(
            (0.0..1.0).contains(&config.alpha),
            "alpha must be in [0,1), got {}",
            config.alpha
        );
        let n = op.num_nodes();
        if n == 0 {
            return (
                Vec::new(),
                IterationStats {
                    iterations: 0,
                    final_residual: 0.0,
                    converged: true,
                    residual_history: Vec::new(),
                },
            );
        }
        let c = config.teleport.to_dense(n);
        let mut x = match &config.initial {
            Some(x0) => {
                assert_eq!(x0.len(), n, "warm-start vector length mismatch");
                assert!(
                    x0.iter().all(|v| v.is_finite() && *v >= 0.0),
                    "warm-start vector must be finite and non-negative"
                );
                let mut x = x0.clone();
                vecops::normalize_l1(&mut x);
                if vecops::l1_norm(&x) == 0.0 {
                    c.clone()
                } else {
                    x
                }
            }
            None => c.clone(),
        };
        let mut y = vec![0.0; n];
        let mut history = Vec::new();
        let mut converged = false;
        let mut residual = f64::INFINITY;

        let inv_n = 1.0 / n as f64;
        for _ in 0..config.criteria.max_iterations {
            let dangling_mass = op.propagate(&x, &mut y);
            match (config.formulation, config.dangling) {
                (Formulation::Eigenvector, DanglingPolicy::StronglyPreferential) => {
                    for (v, yv) in y.iter_mut().enumerate() {
                        *yv = config.alpha * (*yv + dangling_mass * c[v])
                            + (1.0 - config.alpha) * c[v];
                    }
                }
                (Formulation::Eigenvector, DanglingPolicy::WeaklyPreferential) => {
                    for (v, yv) in y.iter_mut().enumerate() {
                        *yv = config.alpha * (*yv + dangling_mass * inv_n)
                            + (1.0 - config.alpha) * c[v];
                    }
                }
                (Formulation::LinearSystem, _) => {
                    for (v, yv) in y.iter_mut().enumerate() {
                        *yv = config.alpha * *yv + (1.0 - config.alpha) * c[v];
                    }
                }
            }
            residual = config.criteria.norm.distance(&x, &y);
            history.push(residual);
            std::mem::swap(&mut x, &mut y);
            if residual < config.criteria.tolerance {
                converged = true;
                break;
            }
        }

        vecops::normalize_l1(&mut x);
        let stats = IterationStats {
            iterations: history.len(),
            final_residual: residual,
            converged,
            residual_history: history,
        };
        (x, stats)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::operator::reference::NaiveUniformTransition;
    use crate::operator::{UniformTransition, WeightedTransition};
    use sr_graph::{GraphBuilder, WeightedGraph};

    /// A cold solve in a fresh workspace, returning the solution with its
    /// diagnostics — the unit tests' sequential reference.
    pub(crate) fn run(op: &dyn Transition, config: &PowerConfig) -> (Vec<f64>, IterationStats) {
        let mut ws = SolverWorkspace::new();
        let stats = power_method(op, config, &mut ws, None);
        (ws.take_solution(), stats)
    }

    fn solve(edges: Vec<(u32, u32)>, n: usize, formulation: Formulation) -> Vec<f64> {
        let g = GraphBuilder::from_edges_exact(n, edges).unwrap();
        let op = UniformTransition::new(&g);
        let config = PowerConfig {
            formulation,
            ..Default::default()
        };
        run(&op, &config).0
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let x = solve(vec![(0, 1), (1, 2), (2, 0)], 3, Formulation::Eigenvector);
        for &v in &x {
            assert!((v - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn authority_page_ranks_higher() {
        // Everyone points at node 3.
        let x = solve(
            vec![(0, 3), (1, 3), (2, 3), (3, 0)],
            4,
            Formulation::Eigenvector,
        );
        assert!(x[3] > x[0]);
        assert!(x[3] > x[1]);
    }

    #[test]
    fn formulations_agree_after_normalization_without_dangling() {
        // Strongly connected graph — no dangling nodes, so both formulations
        // solve the same chain up to scaling.
        let edges = vec![(0, 1), (1, 2), (2, 0), (0, 2), (2, 1)];
        let a = solve(edges.clone(), 3, Formulation::Eigenvector);
        let b = solve(edges, 3, Formulation::LinearSystem);
        for (p, q) in a.iter().zip(&b) {
            assert!((p - q).abs() < 1e-7, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn eigenvector_iterates_sum_to_one() {
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 1)]).unwrap(); // lots of dangling
        let op = UniformTransition::new(&g);
        let (x, stats) = run(&op, &PowerConfig::default());
        assert!((vecops::l1_norm(&x) - 1.0).abs() < 1e-12);
        assert!(stats.converged);
    }

    #[test]
    fn stats_track_convergence() {
        // Asymmetric graph so the solve genuinely iterates (a symmetric cycle
        // would converge in one step from the uniform start).
        let g = GraphBuilder::from_edges_exact(4, vec![(0, 3), (1, 3), (2, 3), (3, 0)]).unwrap();
        let op = UniformTransition::new(&g);
        let (_, stats) = run(&op, &PowerConfig::default());
        assert!(stats.converged);
        assert!(stats.final_residual < 1e-9);
        assert_eq!(stats.iterations, stats.residual_history.len());
        let h = &stats.residual_history;
        assert!(
            h.len() > 2,
            "expected a multi-iteration solve, got {}",
            h.len()
        );
        assert!(h[h.len() - 1] < h[0]);
    }

    #[test]
    fn max_iterations_cap_reported() {
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
        let op = UniformTransition::new(&g);
        let config = PowerConfig {
            criteria: ConvergenceCriteria {
                max_iterations: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let (_, stats) = run(&op, &config);
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 2);
    }

    #[test]
    fn weighted_chain_stationary_matches_closed_form() {
        // Two-state chain: P = [[0.5, 0.5], [1.0, 0.0]] with alpha -> chain
        // T_hat = a*P + (1-a)*uniform. Solve analytically for comparison.
        let g = WeightedGraph::from_parts(vec![0, 2, 3], vec![0, 1, 0], vec![0.5, 0.5, 1.0]);
        let op = WeightedTransition::new(&g);
        let a = 0.85;
        let (x, _) = run(
            &op,
            &PowerConfig {
                alpha: a,
                ..Default::default()
            },
        );
        // pi0 = pi0*(a*0.5 + (1-a)/2) + pi1*(a + (1-a)/2) ... solve 2x2:
        // pi0 = pi0*t00 + pi1*t10; pi0 + pi1 = 1.
        let t00 = a * 0.5 + (1.0 - a) * 0.5;
        let t10 = a * 1.0 + (1.0 - a) * 0.5;
        let pi0 = t10 / (1.0 - t00 + t10);
        assert!((x[0] - pi0).abs() < 1e-9, "{} vs {pi0}", x[0]);
    }

    #[test]
    fn teleport_bias_shifts_scores() {
        let g = GraphBuilder::from_edges_exact(3, vec![(0, 1), (1, 0), (1, 2), (2, 0)]).unwrap();
        let op = UniformTransition::new(&g);
        let biased = PowerConfig {
            teleport: Teleport::over_seeds(3, &[2]),
            ..Default::default()
        };
        let (xb, _) = run(&op, &biased);
        let (xu, _) = run(&op, &PowerConfig::default());
        assert!(xb[2] > xu[2], "seeded teleport must lift node 2");
    }

    #[test]
    fn warm_start_converges_to_the_same_fixed_point_faster() {
        let g = GraphBuilder::from_edges_exact(
            6,
            vec![
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 0),
                (0, 3),
                (2, 5),
            ],
        )
        .unwrap();
        let op = UniformTransition::new(&g);
        let (cold, cold_stats) = run(&op, &PowerConfig::default());
        // Restart from the exact answer: should converge immediately.
        let warm_cfg = PowerConfig {
            initial: Some(cold.clone()),
            ..Default::default()
        };
        let (warm, warm_stats) = run(&op, &warm_cfg);
        assert!(
            warm_stats.iterations <= 2,
            "restart took {} iterations",
            warm_stats.iterations
        );
        for (a, b) in cold.iter().zip(&warm) {
            assert!((a - b).abs() < 1e-8);
        }
        assert!(warm_stats.iterations < cold_stats.iterations);
    }

    #[test]
    fn warm_start_from_perturbed_vector_still_correct() {
        let g = GraphBuilder::from_edges_exact(4, vec![(0, 3), (1, 3), (2, 3), (3, 0)]).unwrap();
        let op = UniformTransition::new(&g);
        let (exact, _) = run(&op, &PowerConfig::default());
        let mut perturbed = exact.clone();
        perturbed[0] += 0.05;
        perturbed[3] -= 0.02;
        let (warm, stats) = run(
            &op,
            &PowerConfig {
                initial: Some(perturbed),
                ..Default::default()
            },
        );
        assert!(stats.converged);
        for (a, b) in exact.iter().zip(&warm) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn fused_engine_matches_unfused_reference_bitwise_on_small_graphs() {
        // Below the parallel cutover the fused sweep performs the seed's
        // floating-point operations in the seed's order: identical residual
        // history, iteration count and scores — not merely within tolerance.
        let g =
            GraphBuilder::from_edges_exact(5, vec![(0, 3), (1, 3), (2, 3), (3, 0), (0, 1), (4, 4)])
                .unwrap();
        let naive = NaiveUniformTransition::new(&g);
        let fused = UniformTransition::new(&g);
        for formulation in [Formulation::Eigenvector, Formulation::LinearSystem] {
            let cfg = PowerConfig {
                formulation,
                ..Default::default()
            };
            let (x_ref, s_ref) = reference::power_method_unfused(&naive, &cfg);
            let (x_new, s_new) = run(&fused, &cfg);
            assert_eq!(s_ref.iterations, s_new.iterations);
            assert_eq!(s_ref.residual_history, s_new.residual_history);
            assert_eq!(x_ref, x_new);
        }
    }

    #[test]
    fn dangling_policies_coincide_bitwise_under_uniform_teleport() {
        // With uniform teleport the strongly-preferential patch (teleport
        // row) and the weakly-preferential patch (1/n row) are the same f64,
        // so the whole solve must be bit-identical — scores, residual
        // history, iteration count.
        let g = GraphBuilder::from_edges_exact(6, vec![(0, 1), (1, 2), (2, 0), (3, 0), (0, 4)])
            .unwrap(); // nodes 4 and 5 dangle
        let op = UniformTransition::new(&g);
        let strong = PowerConfig::default();
        let weak = PowerConfig {
            dangling: DanglingPolicy::WeaklyPreferential,
            ..Default::default()
        };
        let (xs, ss) = run(&op, &strong);
        let (xw, sw) = run(&op, &weak);
        assert_eq!(xs, xw);
        assert_eq!(ss.residual_history, sw.residual_history);
    }

    #[test]
    fn dangling_policies_diverge_under_seeded_teleport() {
        // Personalized solve over a graph with dangling mass: strongly
        // preferential recycles that mass into the seed set, weakly
        // preferential spreads it uniformly — node 0 (the seed) must score
        // strictly higher under the strong policy.
        let g = GraphBuilder::from_edges_exact(5, vec![(0, 1), (1, 2), (3, 0)]).unwrap();
        let op = UniformTransition::new(&g);
        let strong = PowerConfig {
            teleport: Teleport::over_seeds(5, &[0]),
            ..Default::default()
        };
        let weak = PowerConfig {
            teleport: Teleport::over_seeds(5, &[0]),
            dangling: DanglingPolicy::WeaklyPreferential,
            ..Default::default()
        };
        let (xs, _) = run(&op, &strong);
        let (xw, _) = run(&op, &weak);
        assert!(
            xs[0] > xw[0],
            "strong policy must recycle dangling mass into the seed: {} vs {}",
            xs[0],
            xw[0]
        );
        // Both remain probability distributions.
        assert!((vecops::l1_norm(&xs) - 1.0).abs() < 1e-12);
        assert!((vecops::l1_norm(&xw) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weak_policy_fused_matches_unfused_reference_bitwise() {
        let g = GraphBuilder::from_edges_exact(5, vec![(0, 3), (1, 3), (2, 3), (3, 0)]).unwrap();
        let naive = NaiveUniformTransition::new(&g);
        let fused = UniformTransition::new(&g);
        let cfg = PowerConfig {
            teleport: Teleport::over_seeds(5, &[1, 3]),
            dangling: DanglingPolicy::WeaklyPreferential,
            ..Default::default()
        };
        let (x_ref, s_ref) = reference::power_method_unfused(&naive, &cfg);
        let (x_new, s_new) = run(&fused, &cfg);
        assert_eq!(s_ref.iterations, s_new.iterations);
        assert_eq!(s_ref.residual_history, s_new.residual_history);
        assert_eq!(x_ref, x_new);
    }

    #[test]
    fn linear_system_ignores_dangling_policy() {
        let g = GraphBuilder::from_edges_exact(4, vec![(0, 1), (1, 2)]).unwrap();
        let op = UniformTransition::new(&g);
        let mk = |dangling| PowerConfig {
            formulation: Formulation::LinearSystem,
            teleport: Teleport::over_seeds(4, &[2]),
            dangling,
            ..Default::default()
        };
        let (xs, ss) = run(&op, &mk(DanglingPolicy::StronglyPreferential));
        let (xw, sw) = run(&op, &mk(DanglingPolicy::WeaklyPreferential));
        assert_eq!(xs, xw);
        assert_eq!(ss.residual_history, sw.residual_history);
    }

    #[test]
    fn workspace_reuses_across_differently_sized_solves() {
        let g1 = GraphBuilder::from_edges_exact(4, vec![(0, 3), (1, 3), (2, 3), (3, 0)]).unwrap();
        let g2 = GraphBuilder::from_edges_exact(3, vec![(0, 1), (1, 2), (2, 0)]).unwrap();
        let mut ws = SolverWorkspace::new();
        for g in [&g1, &g2, &g1] {
            let op = UniformTransition::new(g);
            // Cold, then warm from a vector that is not the fixed point.
            let warm = (0..g.num_nodes()).map(|v| 1.0 + v as f64).collect();
            for initial in [None, Some(warm)] {
                let cfg = PowerConfig {
                    initial,
                    ..Default::default()
                };
                let stats = power_method(&op, &cfg, &mut ws, None);
                let (fresh, fresh_stats) = run(&op, &cfg);
                assert_eq!(stats.iterations, fresh_stats.iterations);
                assert_eq!(ws.solution(), &fresh[..]);
            }
        }
        let taken = ws.take_solution();
        assert_eq!(taken.len(), 4);
        assert!(ws.solution().is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn warm_start_length_checked() {
        let g = GraphBuilder::from_edges(vec![(0, 1)]);
        let op = UniformTransition::new(&g);
        let cfg = PowerConfig {
            initial: Some(vec![1.0]),
            ..Default::default()
        };
        run(&op, &cfg);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn alpha_one_rejected() {
        let g = GraphBuilder::from_edges(vec![(0, 1)]);
        let op = UniformTransition::new(&g);
        run(
            &op,
            &PowerConfig {
                alpha: 1.0,
                ..Default::default()
            },
        );
    }

    #[test]
    fn empty_graph() {
        let g = sr_graph::CsrGraph::empty(0);
        let op = UniformTransition::new(&g);
        let (x, stats) = run(&op, &PowerConfig::default());
        assert!(x.is_empty());
        assert!(stats.converged);
    }
}
