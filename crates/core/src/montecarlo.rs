//! Monte-Carlo simulation of the selective random walk (§3.4).
//!
//! The paper *defines* Spam-Resilient SourceRank operationally: a walker at
//! source `s_i` follows the self-edge with probability `ακ_i`, one of the
//! out-edges with probability `α(1−κ_i)`, and teleports with probability
//! `1−α`. The algebraic solvers compute the stationary distribution of that
//! chain; this module computes it the other way — by actually walking — and
//! serves as an end-to-end validation of the whole transform pipeline
//! (consensus weights → self-edges → throttle transform → damping): if the
//! matrix anywhere stopped describing the walk the paper specifies, the
//! empirical visit frequencies would diverge from the solver output.
//!
//! Walkers are independent, so the simulation parallelizes per walker with
//! deterministic per-walker RNG streams (seeded by `(seed, walker index)`).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::teleport::Teleport;
use sr_graph::ids::{node_id, node_range};
use sr_graph::WeightedGraph;
use sr_obs::SolveObserver;

/// How a walker's trajectory is cut into counted steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalkLength {
    /// One long trajectory of exactly `burn_in + steps` steps, the first
    /// `burn_in` discarded — the original §S17 simulator. The horizon cut
    /// truncates the final teleport-to-teleport excursion mid-flight and the
    /// burn-in starts counting mid-excursion, a (vanishing, O(1/steps))
    /// bias. Default, bit-for-bit the historical behavior.
    #[default]
    FixedHorizon,
    /// Complete teleport-to-teleport episodes, each of geometric(1−α)
    /// length — the PPR-estimator semantics shared with [`crate::approx`]:
    /// every counted excursion is whole, so visit frequencies are exactly
    /// proportional to expected visits per episode. `burn_in` is ignored
    /// (episodes start in the stationary regime by construction); episodes
    /// run until at least `steps` visits are recorded, finishing the
    /// crossing episode.
    GeometricEpisodes,
}

/// Configuration of a Monte-Carlo stationary-distribution estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkConfig {
    /// Damping parameter α.
    pub alpha: f64,
    /// Teleport distribution.
    pub teleport: Teleport,
    /// Number of independent walkers.
    pub walkers: usize,
    /// Steps per walker (after discarding `burn_in`).
    pub steps: usize,
    /// Steps discarded before counting visits
    /// ([`WalkLength::FixedHorizon`] only).
    pub burn_in: usize,
    /// RNG seed; the estimate is deterministic given the full config.
    pub seed: u64,
    /// Trajectory-termination semantics (default the historical fixed
    /// horizon).
    pub length: WalkLength,
}

impl Default for WalkConfig {
    fn default() -> Self {
        WalkConfig {
            alpha: 0.85,
            teleport: Teleport::Uniform,
            walkers: 64,
            steps: 20_000,
            burn_in: 200,
            seed: 0x5EED,
            length: WalkLength::FixedHorizon,
        }
    }
}

/// Samples from a discrete distribution given by `(values, weights)` slices
/// (weights need not be normalized).
fn sample_weighted<R: Rng>(rng: &mut R, targets: &[u32], weights: &[f64]) -> u32 {
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen::<f64>() * total;
    for (&t, &w) in targets.iter().zip(weights) {
        u -= w;
        if u <= 0.0 {
            return t;
        }
    }
    *targets.last().expect("non-empty row")
}

fn sample_teleport<R: Rng>(rng: &mut R, teleport: &Teleport, n: usize) -> u32 {
    match teleport {
        Teleport::Uniform => rng.gen_range(node_range(n)),
        Teleport::Dense(d) => {
            let mut u = rng.gen::<f64>();
            for (i, &m) in d.iter().enumerate() {
                u -= m;
                if u <= 0.0 {
                    return node_id(i);
                }
            }
            node_id(n - 1)
        }
    }
}

/// Estimates the stationary distribution of the damped walk over a
/// (sub)stochastic transition matrix by simulation. Substochastic rows
/// teleport with the missing probability mass (matching the eigenvector
/// solver's dangling handling), so the estimate is comparable to
/// [`crate::power::power_method`] output with the default formulation.
///
/// Returns L1-normalized visit frequencies. With an `observer`, one
/// `on_walker` callback fires per completed walker (in walker order, after
/// the parallel phase — the observer is exclusive, so workers can't call it
/// directly) under the solver label `"montecarlo"`; `None` changes no bit.
pub fn estimate_stationary(
    transitions: &WeightedGraph,
    config: &WalkConfig,
    mut observer: Option<&mut (dyn SolveObserver + '_)>,
) -> Vec<f64> {
    let n = transitions.num_nodes();
    assert!(n > 0, "cannot walk an empty graph");
    assert!((0.0..1.0).contains(&config.alpha), "alpha in [0,1)");
    if let Some(o) = observer.as_deref_mut() {
        o.on_solve_start("montecarlo", n);
    }
    // One coarse task per walker: each runs tens of thousands of steps, so
    // `map_tasks` (no size threshold) is the right shape, and the result
    // order — hence the total — is deterministic.
    let per_walker: Vec<Vec<u32>> = sr_par::map_tasks(config.walkers, |w| {
        let mut rng =
            SmallRng::seed_from_u64(config.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut counts = vec![0u32; n];
        match config.length {
            WalkLength::FixedHorizon => {
                let mut at = sample_teleport(&mut rng, &config.teleport, n);
                for step in 0..config.burn_in + config.steps {
                    if step >= config.burn_in {
                        counts[at as usize] += 1;
                    }
                    let follow_links = rng.gen::<f64>() < config.alpha;
                    if follow_links {
                        let row_sum = transitions.row_sum(at);
                        // Substochastic shortfall teleports.
                        if row_sum > 0.0 && rng.gen::<f64>() < row_sum {
                            at = sample_weighted(
                                &mut rng,
                                transitions.neighbors(at),
                                transitions.edge_weights(at),
                            );
                            continue;
                        }
                    }
                    at = sample_teleport(&mut rng, &config.teleport, n);
                }
            }
            WalkLength::GeometricEpisodes => {
                // Same chain, same draw order — only the accounting differs:
                // any teleport (damping coin or substochastic shortfall)
                // *ends* the episode instead of continuing the trajectory.
                let mut recorded = 0usize;
                while recorded < config.steps {
                    let mut at = sample_teleport(&mut rng, &config.teleport, n);
                    loop {
                        counts[at as usize] += 1;
                        recorded += 1;
                        if rng.gen::<f64>() >= config.alpha {
                            break;
                        }
                        let row_sum = transitions.row_sum(at);
                        if row_sum > 0.0 && rng.gen::<f64>() < row_sum {
                            at = sample_weighted(
                                &mut rng,
                                transitions.neighbors(at),
                                transitions.edge_weights(at),
                            );
                        } else {
                            break;
                        }
                    }
                }
            }
        }
        counts
    });

    let mut totals = vec![0.0f64; n];
    for (w, counts) in per_walker.into_iter().enumerate() {
        if let Some(o) = observer.as_deref_mut() {
            o.on_walker(w, config.steps);
        }
        for (t, c) in totals.iter_mut().zip(counts) {
            *t += f64::from(c);
        }
    }
    let sum: f64 = totals.iter().sum();
    if sum > 0.0 {
        for t in &mut totals {
            *t /= sum;
        }
    }
    if let Some(o) = observer {
        o.on_solve_end(config.walkers, 0.0, true);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::WeightedTransition;
    use crate::power::tests::run;
    use crate::power::PowerConfig;
    use crate::throttle::{self, ThrottleVector};
    use crate::vecops;

    fn chain() -> WeightedGraph {
        WeightedGraph::from_triples(
            4,
            vec![
                (0, 0, 0.4),
                (0, 1, 0.6),
                (1, 2, 1.0),
                (2, 0, 0.5),
                (2, 3, 0.5),
                (3, 3, 1.0),
            ],
        )
    }

    fn solver_answer(t: &WeightedGraph, config: &PowerConfig) -> Vec<f64> {
        run(&WeightedTransition::new(t), config).0
    }

    #[test]
    fn walk_matches_solver_on_small_chain() {
        let t = chain();
        let exact = solver_answer(&t, &PowerConfig::default());
        let est = estimate_stationary(&t, &WalkConfig::default(), None);
        let l1 = vecops::l1_distance(&exact, &est);
        assert!(l1 < 0.02, "MC estimate off by {l1}: {est:?} vs {exact:?}");
    }

    #[test]
    fn walk_matches_solver_on_throttled_matrix() {
        // The full §3 pipeline: throttle, then verify the operational walk
        // agrees with the algebra.
        let t = chain();
        let kappa = ThrottleVector::from_vec(vec![0.9, 0.0, 0.5, 0.0]);
        let throttled = throttle::apply(&t, &kappa);
        let exact = solver_answer(&throttled, &PowerConfig::default());
        let est = estimate_stationary(&throttled, &WalkConfig::default(), None);
        assert!(
            vecops::l1_distance(&exact, &est) < 0.02,
            "throttled walk diverges: {est:?} vs {exact:?}"
        );
    }

    #[test]
    fn walk_handles_substochastic_rows() {
        // Surrender-policy rows teleport their missing mass.
        let t = chain();
        let kappa = ThrottleVector::uniform(4, 0.5);
        let sub = throttle::apply_with_policy(&t, &kappa, throttle::SelfEdgePolicy::Surrender);
        let exact = solver_answer(&sub, &PowerConfig::default());
        let est = estimate_stationary(&sub, &WalkConfig::default(), None);
        assert!(
            vecops::l1_distance(&exact, &est) < 0.02,
            "substochastic walk diverges: {est:?} vs {exact:?}"
        );
    }

    #[test]
    fn estimate_is_deterministic() {
        let t = chain();
        let a = estimate_stationary(&t, &WalkConfig::default(), None);
        let b = estimate_stationary(&t, &WalkConfig::default(), None);
        assert_eq!(a, b);
    }

    #[test]
    fn more_steps_reduce_error() {
        let t = chain();
        let exact = solver_answer(&t, &PowerConfig::default());
        let short = WalkConfig {
            walkers: 8,
            steps: 500,
            ..Default::default()
        };
        let long = WalkConfig {
            walkers: 64,
            steps: 50_000,
            ..Default::default()
        };
        let e_short = vecops::l1_distance(&exact, &estimate_stationary(&t, &short, None));
        let e_long = vecops::l1_distance(&exact, &estimate_stationary(&t, &long, None));
        assert!(e_long < e_short, "long {e_long} vs short {e_short}");
    }

    #[test]
    fn geometric_episodes_match_solver() {
        let t = chain();
        let exact = solver_answer(&t, &PowerConfig::default());
        let cfg = WalkConfig {
            length: WalkLength::GeometricEpisodes,
            ..Default::default()
        };
        let est = estimate_stationary(&t, &cfg, None);
        let l1 = vecops::l1_distance(&exact, &est);
        assert!(
            l1 < 0.02,
            "episode estimate off by {l1}: {est:?} vs {exact:?}"
        );
    }

    #[test]
    fn geometric_episodes_match_solver_on_substochastic_rows() {
        // Shortfall mass ends the episode rather than teleporting in place;
        // the estimate must still agree with the algebraic fixed point.
        let t = chain();
        let kappa = ThrottleVector::uniform(4, 0.5);
        let sub = throttle::apply_with_policy(&t, &kappa, throttle::SelfEdgePolicy::Surrender);
        let exact = solver_answer(&sub, &PowerConfig::default());
        let cfg = WalkConfig {
            length: WalkLength::GeometricEpisodes,
            ..Default::default()
        };
        let est = estimate_stationary(&sub, &cfg, None);
        assert!(
            vecops::l1_distance(&exact, &est) < 0.02,
            "substochastic episode walk diverges: {est:?} vs {exact:?}"
        );
    }

    #[test]
    fn fixed_horizon_remains_the_default_and_is_bitwise_stable() {
        // The walk-length knob must not disturb the historical estimator:
        // FixedHorizon is the default, and its output on a pinned tiny
        // config is frozen here bit-for-bit. If this snapshot moves, the
        // legacy simulator's semantics changed.
        assert_eq!(WalkConfig::default().length, WalkLength::FixedHorizon);
        let t = chain();
        let cfg = WalkConfig {
            walkers: 4,
            steps: 400,
            burn_in: 20,
            ..Default::default()
        };
        let est = estimate_stationary(&t, &cfg, None);
        let bits: Vec<u64> = est.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, SNAPSHOT_BITS, "legacy estimator drifted: {est:?}");
    }

    /// `estimate_stationary(chain(), walkers=4, steps=400, burn_in=20)`
    /// captured at the introduction of [`WalkLength`].
    const SNAPSHOT_BITS: [u64; 4] = [
        4594482267850832609, // 0.1475
        4593041115970074051, // 0.11625
        4594121979880642970, // 0.1375
        4603568280099052585, // 0.59875
    ];

    #[test]
    fn biased_teleport_walk() {
        let t = chain();
        let cfg = WalkConfig {
            teleport: Teleport::over_seeds(4, &[3]),
            ..Default::default()
        };
        let exact = solver_answer(
            &t,
            &PowerConfig {
                teleport: Teleport::over_seeds(4, &[3]),
                ..Default::default()
            },
        );
        let est = estimate_stationary(&t, &cfg, None);
        assert!(vecops::l1_distance(&exact, &est) < 0.02);
    }
}
