//! Thread-count invariance of the whole ranking pipeline.
//!
//! The engine's contract is that `SR_THREADS=1` and `SR_THREADS=8` produce
//! **bit-identical** results — not merely close ones. All parallel float
//! folds run over fixed [`sr_par::PAR_THRESHOLD`]-sized blocks, so the
//! association order never depends on the worker count. This suite pins the
//! contract end to end: identical rank bits *and* identical telemetry
//! (iteration counts, full residual sequences) for the power method, the
//! Jacobi (linear-system) sweep, and SR-SourceRank.
//!
//! Every solver has one entry point whose observer is optional, and passing
//! `None` must be exactly the observed solve: the second half of the suite
//! runs each entry point with `Some(RecordingObserver)` and with `None` and
//! compares scores and `IterationStats` bit for bit.

use sr_core::batch::{solve_batch, BatchWorkspace, SolveBatch, SolveColumn};
use sr_core::gauss_seidel::gauss_seidel;
use sr_core::montecarlo::{estimate_stationary, WalkConfig};
use sr_core::operator::{Transition, UniformTransition};
use sr_core::power::{power_method, Formulation, PowerConfig};
use sr_core::solver::{solve_weighted, Solver};
use sr_core::{
    ConvergenceCriteria, IterationStats, PageRank, RankVector, SolverWorkspace,
    SpamResilientSourceRank, Teleport,
};
use sr_gen::{generate, Dataset};
use sr_graph::source_graph::SourceGraphConfig;
use sr_graph::CsrGraph;
use sr_obs::{RecordingObserver, SolveObserver, SolveTelemetry};

struct Observed {
    rank_bits: Vec<u64>,
    telemetry: SolveTelemetry,
}

/// Runs `solve` with the effective worker count pinned to `threads`,
/// recording scores and telemetry. The solve closure builds its operators
/// inside the override so chunking decisions see the pinned count.
fn run_at(threads: usize, solve: &dyn Fn(&mut RecordingObserver) -> Vec<f64>) -> Observed {
    sr_par::with_threads(threads, || {
        let mut obs = RecordingObserver::new();
        let scores = solve(&mut obs);
        Observed {
            rank_bits: scores.iter().map(|v| v.to_bits()).collect(),
            telemetry: obs.into_telemetry(),
        }
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A cold PageRank of `pages` through the general entry point.
fn page_rank(pr: &PageRank, pages: &CsrGraph, obs: Option<&mut dyn SolveObserver>) -> RankVector {
    let op = UniformTransition::new(pages);
    pr.rank_operator_warm_in(&op, None, &mut SolverWorkspace::new(), obs)
}

/// The invariance contract: ranks and telemetry bit-identical at 1 vs 8
/// worker threads.
fn assert_invariant(label: &str, solve: &dyn Fn(&mut RecordingObserver) -> Vec<f64>) {
    let one = run_at(1, solve);
    let eight = run_at(8, solve);
    assert_eq!(
        one.rank_bits, eight.rank_bits,
        "{label}: rank bits differ between 1 and 8 threads"
    );
    let (a, b) = (&one.telemetry, &eight.telemetry);
    assert_eq!(a.solver, b.solver, "{label}: solver label");
    assert_eq!(a.iterations, b.iterations, "{label}: iteration count");
    assert_eq!(a.converged, b.converged, "{label}: convergence flag");
    assert_eq!(
        a.final_residual.to_bits(),
        b.final_residual.to_bits(),
        "{label}: final residual"
    );
    assert_eq!(
        bits(&a.residuals),
        bits(&b.residuals),
        "{label}: residual sequence"
    );
    assert_eq!(
        bits(&a.dangling),
        bits(&b.dangling),
        "{label}: dangling-mass sequence"
    );
    assert!(a.iterations > 0, "{label}: solve must iterate");
}

#[test]
fn page_and_source_ranks_are_thread_count_invariant() {
    // Big enough that the page graph crosses PAR_THRESHOLD and the parallel
    // paths genuinely engage at 8 threads.
    let crawl = generate(&Dataset::Wb2001.config(0.0005));
    assert!(
        crawl.pages.num_nodes() > sr_par::PAR_THRESHOLD,
        "fixture too small to exercise the parallel paths: {} nodes",
        crawl.pages.num_nodes()
    );
    let sources = crawl.source_graph(SourceGraphConfig::consensus());
    let spam = crawl.spam_sources.clone();
    let top_k = (sources.num_sources() / 30).max(1);

    assert_invariant("power", &|obs| {
        page_rank(&PageRank::default(), &crawl.pages, Some(obs))
            .scores()
            .to_vec()
    });

    assert_invariant("jacobi", &|obs| {
        let pr = PageRank::builder()
            .formulation(Formulation::LinearSystem)
            .finish();
        page_rank(&pr, &crawl.pages, Some(obs)).scores().to_vec()
    });

    assert_invariant("sr-sourcerank", &|obs| {
        SpamResilientSourceRank::builder()
            .throttle_by_proximity(spam.clone(), top_k, 0.85)
            .build(&sources)
            .rank_warm_in(None, &mut SolverWorkspace::new(), Some(obs))
            .scores()
            .to_vec()
    });
}

/// A solve's scores and every `IterationStats` field, in bits (Monte-Carlo
/// estimates have no stats).
type SolveBits = (Vec<u64>, Option<(usize, u64, bool, Vec<u64>)>);

fn solve_bits(scores: &[f64], stats: Option<&IterationStats>) -> SolveBits {
    let stats = stats.map(|s| {
        let history = bits(&s.residual_history);
        (
            s.iterations,
            s.final_residual.to_bits(),
            s.converged,
            history,
        )
    });
    (bits(scores), stats)
}

/// A cold power solve of `op` in a fresh workspace, in bits.
fn power_bits(
    op: &dyn Transition,
    config: &PowerConfig,
    obs: Option<&mut dyn SolveObserver>,
) -> SolveBits {
    let mut ws = SolverWorkspace::new();
    let stats = power_method(op, config, &mut ws, obs);
    solve_bits(ws.solution(), Some(&stats))
}

fn rank_bits(r: &RankVector) -> SolveBits {
    solve_bits(r.scores(), Some(r.stats()))
}

/// Runs `solve` with a recording observer and with `None`, asserts the two
/// results are bit-identical and that the observer saw the solve's residual
/// sequence, and returns the telemetry.
fn assert_observer_changes_no_bit(
    label: &str,
    solve: &dyn Fn(Option<&mut dyn SolveObserver>) -> SolveBits,
) -> SolveTelemetry {
    let mut rec = RecordingObserver::new();
    let observed = solve(Some(&mut rec));
    assert_eq!(
        observed,
        solve(None),
        "{label}: observer changed the result"
    );
    let t = rec.into_telemetry();
    if let Some((iterations, _, converged, history)) = observed.1 {
        assert_eq!(
            (t.iterations, t.converged),
            (iterations, converged),
            "{label}"
        );
        assert_eq!(bits(&t.residuals), history, "{label}: residuals");
    }
    t
}

#[test]
fn observed_and_unobserved_solves_are_bitwise_equal() {
    let crawl = generate(&Dataset::Uk2002.config(0.0005));
    let sources = crawl.source_graph(SourceGraphConfig::consensus());
    let transitions = sources.transitions();
    let pages = UniformTransition::new(&crawl.pages);
    let criteria = ConvergenceCriteria::default();
    let seeded = Teleport::over_seeds(crawl.pages.num_nodes(), &[0, 7]);
    // Power in both formulations, through the page-level model; the
    // telemetry label names the formulation.
    for (formulation, label) in [
        (Formulation::Eigenvector, "power"),
        (Formulation::LinearSystem, "jacobi"),
    ] {
        let pr = PageRank::builder()
            .formulation(formulation)
            .teleport(seeded.clone())
            .finish();
        let t = assert_observer_changes_no_bit(label, &|obs| {
            rank_bits(&page_rank(&pr, &crawl.pages, obs))
        });
        assert_eq!(t.solver, label);
    }
    for solver in [Solver::Power, Solver::PowerLinear, Solver::GaussSeidel] {
        assert_observer_changes_no_bit(&format!("solve_weighted {solver:?}"), &|obs| {
            let ws = &mut SolverWorkspace::new();
            let uniform = &Teleport::Uniform;
            rank_bits(&solve_weighted(
                transitions,
                0.85,
                uniform,
                &criteria,
                solver,
                None,
                ws,
                obs,
            ))
        });
    }
    let t = assert_observer_changes_no_bit("gauss_seidel", &|obs| {
        let (scores, stats) = gauss_seidel(transitions, 0.85, &Teleport::Uniform, &criteria, obs);
        solve_bits(&scores, Some(&stats))
    });
    assert_eq!(t.solver, "gauss_seidel");
    let walk = WalkConfig {
        walkers: 4,
        steps: 2_000,
        ..Default::default()
    };
    let t = assert_observer_changes_no_bit("estimate_stationary", &|obs| {
        solve_bits(&estimate_stationary(transitions, &walk, obs), None)
    });
    assert_eq!(t.walkers, 4);

    // The batched engine takes no observer: each column must carry the bits
    // of the observed sequential solve of that column.
    let columns = vec![
        SolveColumn::new(0.85, Teleport::Uniform),
        SolveColumn::new(0.6, seeded.clone()),
    ];
    let batched = solve_batch(
        &pages,
        &SolveBatch::new(columns.clone()),
        &mut BatchWorkspace::new(),
    );
    for (col, got) in columns.into_iter().zip(batched.columns()) {
        let config = PowerConfig {
            alpha: col.alpha,
            teleport: col.teleport,
            ..Default::default()
        };
        let want = power_bits(&pages, &config, Some(&mut RecordingObserver::new()));
        assert_eq!(rank_bits(got), want, "solve_batch column α = {}", col.alpha);
    }
}
