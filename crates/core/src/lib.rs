#![warn(missing_docs)]

//! # sr-core — Spam-Resilient SourceRank and its ranking substrate
//!
//! The paper's contribution (Caverlee, Webb & Liu, IPPS 2007) plus every
//! ranking algorithm its evaluation compares against or builds on:
//!
//! * [`pagerank`] — classic PageRank over the page graph (§2, Eq. 1), the
//!   baseline the paper attacks;
//! * [`sourcerank`] — baseline SourceRank: a PageRank-style walk over the
//!   source graph, no throttling (the Figure 5 baseline);
//! * [`throttle`] — the influence-throttling transform `T′ → T″` (§3.3);
//! * [`spam_resilient`] — **Spam-Resilient SourceRank** (§3.4): consensus
//!   weights + self-edges + throttling, solved as a selective random walk;
//! * [`proximity`] — spam-proximity scoring over the reversed source graph
//!   (§5), from which the throttling vector κ is derived;
//! * [`incremental`] — the delta re-ranking engine: PageRank, SourceRank and
//!   SR-SourceRank re-solved by warm restart over a mutating page graph
//!   (see `sr_graph::delta` for the graph substrate);
//! * [`trustrank`] / [`hits`] — related-work comparators;
//! * [`approx`] — the Monte-Carlo walk-cache approximate-PPR fast path:
//!   offline [`WalkCacheBuilder`] simulation over any [`sr_graph::SolveGraph`]
//!   backend plus query-time [`ApproxPpr`] residual-push assembly, property-
//!   tested against the exact solver as a differential oracle;
//! * [`batch`] — the batched multi-vector (SpMM) solve engine: K parameter
//!   columns solved in one pass over the edge stream, bit-identical per
//!   column to sequential solves;
//! * [`streamed`] — the out-of-core solve engine: the PageRank operator over
//!   any row-streaming [`sr_graph::SolveGraph`] backend; on-disk sharded
//!   graphs run a decode-ahead prefetch + block-decode pipeline with
//!   worker–shard affinity, bit-identical to the in-RAM CSR engine;
//! * [`power`], [`gauss_seidel`], [`solver`] — the iterative engines
//!   (fused parallel power method with reusable [`SolverWorkspace`] buffers,
//!   and Gauss–Seidel), with the paper's L2 < 1e-9 stopping rule as default;
//! * [`operator`], [`teleport`], [`vecops`], [`convergence`], [`rankvec`] —
//!   shared numerical substrate.
//!
//! Everything is deterministic: parallel kernels are pull-based (no atomics)
//! and all defaults reproduce the paper's parameters (α = 0.85).

pub mod approx;
pub mod batch;
pub mod coalesce;
pub mod convergence;
pub mod gauss_seidel;
pub mod hits;
pub mod incremental;
pub mod metrics;
pub mod montecarlo;
pub mod operator;
pub mod order;
pub mod pagerank;
pub mod power;
pub mod proximity;
pub mod rankvec;
pub mod snapshot;
pub mod solver;
pub mod sourcerank;
pub mod spam_resilient;
pub mod streamed;
pub mod teleport;
pub mod throttle;
pub mod trustrank;
pub mod vecops;

pub use approx::{ApproxError, ApproxPpr, QueryConfig, WalkCacheBuilder, WalkCacheConfig};
pub use batch::{
    solve_batch, BatchWorkspace, MultiRankVector, SolveBatch, SolveColumn, PANEL_WIDTH,
};
pub use coalesce::{pack_panels, panel_columns, PanelQuery};
pub use convergence::{ConvergenceCriteria, IterationStats, Norm};
pub use incremental::{DeltaRerank, IncrementalConfig, IncrementalRanker, OverlayTransition};
pub use order::{cmp_asc_nan_last, cmp_desc_nan_last, top_k_desc};
pub use pagerank::PageRank;
pub use power::{DanglingPolicy, SolverWorkspace};
pub use proximity::{ProximityApprox, ProximityError, ProximityQuery, SpamProximity};
pub use rankvec::RankVector;
pub use snapshot::{RankSnapshot, SnapshotRing};
pub use solver::Solver;
pub use sourcerank::SourceRank;
pub use spam_resilient::{SpamResilientModel, SpamResilientSourceRank};
pub use streamed::{PipelineConfig, StreamedTransition};
pub use teleport::{Teleport, TeleportError};
pub use throttle::{SelfEdgePolicy, ThrottleVector};
pub use trustrank::TrustRank;
