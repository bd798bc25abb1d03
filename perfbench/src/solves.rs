//! The batch workloads on WB2001-like crawls: the paper's source-level
//! pipeline (`pipeline`) and page-level PageRank in RAM (`pagerank`),
//! whose traced run also measures the out-of-core layers.
//!
//! Each run builds `Size::setups` crawls from its seed and rotates its
//! passes over them. The iteration count of a solve depends on the crawl
//! (47 to 67 for PageRank across seeds), so a run that times one crawl
//! reports its crawl as much as the code; the median over several crawls
//! does not.

use std::time::Instant;

use sr_core::operator::{Transition, UniformTransition, WeightedTransition};
use sr_core::{
    ConvergenceCriteria, PageRank, PipelineConfig, RankVector, SolverWorkspace, SpamProximity,
    SpamResilientModel, SpamResilientSourceRank, StreamedTransition, ThrottleVector,
};
use sr_gen::{generate, Dataset, SyntheticCrawl};
use sr_graph::{CsrGraph, ShardedCompressedGraph, SourceGraphConfig};

use crate::report::Outcome;
use crate::stats::median;
use crate::{bits_hash, counter_layers, mix, setup_each, timed_passes, Run};

/// The shard payload target of the out-of-core file (bytes per shard).
const SHARD_TARGET_BYTES: usize = 256 << 10;
const ALPHA: f64 = 0.85;

/// The `k`-th WB2001-like crawl of this run's seed.
pub(crate) fn wb_crawl(r: &Run, k: usize, parent: u64) -> SyntheticCrawl {
    let mut cfg = Dataset::Wb2001.config(r.size.wb_scale);
    cfg.seed = mix(r.seed, 10 + k as u64);
    r.tracer.span("gen.crawl", parent, |_| generate(&cfg))
}

/// `‖x − αxP − (1−α)c‖₁ / (1−α)` for the uniform teleport `c` with dangling
/// mass returned to `c`, from one extra sweep: an a-posteriori bound on the
/// L1 distance of `x` from the true fixed point.
fn residual_l1(op: &dyn Transition, x: &[f64]) -> f64 {
    let n = x.len();
    let c = 1.0 / n as f64;
    let mut y = vec![0.0; n];
    let dangling = op.propagate(x, &mut y);
    let gap: f64 = x
        .iter()
        .zip(&y)
        .map(|(&xv, &yv)| (xv - (ALPHA * (yv + dangling * c) + (1.0 - ALPHA) * c)).abs())
        .sum();
    gap / (1.0 - ALPHA)
}

/// What the paper's L2 stop rule guarantees for [`residual_l1`]: the last
/// step moved `x` by less than `tol` in L2, so by less than `√n·tol` in L1.
fn residual_bound(n: usize) -> f64 {
    (n as f64).sqrt() * ConvergenceCriteria::default().tolerance / (1.0 - ALPHA)
}

/// The first result of each input, against which later passes over the
/// same input must be bitwise identical.
struct FirstResults(Vec<Option<RankVector>>);

impl FirstResults {
    fn new(inputs: usize) -> Self {
        FirstResults(vec![None; inputs])
    }

    /// Keeps `v` as input `k`'s reference, or compares it with it.
    fn same(&mut self, k: usize, v: RankVector) -> bool {
        match &self.0[k] {
            Some(first) => bits_hash(first.scores()) == bits_hash(v.scores()),
            None => {
                self.0[k] = Some(v);
                true
            }
        }
    }

    fn first(&self, k: usize) -> &RankVector {
        self.0[k].as_ref().expect("every input was solved")
    }
}

/// The spam seeds and throttle size of a crawl.
struct Labeled {
    crawl: SyntheticCrawl,
    seeds: Vec<u32>,
    top_k: usize,
}

/// One SR-SourceRank pass from the crawl in RAM: consensus source graph,
/// spam proximity and κ, the throttled `T″`, and the solve.
struct SrPass {
    sr: RankVector,
    proximity: RankVector,
    kappa_hash: u64,
    source_edges: usize,
    model: SpamResilientModel,
}

fn sr_rank(r: &Run, input: &Labeled, parent: u64) -> SrPass {
    let t = &r.tracer;
    let sg = t.span("graph.extract", parent, |_| {
        sr_graph::source_graph::extract(
            &input.crawl.pages,
            &input.crawl.assignment,
            SourceGraphConfig::consensus(),
        )
        .expect("a generated crawl extracts")
    });
    let (proximity, kappa) = t.span("core.kappa", parent, |_| {
        let proximity = SpamProximity::new()
            .scores(&sg, &input.seeds)
            .expect("spam seeds are valid sources");
        let kappa = ThrottleVector::top_k_complete(proximity.scores(), input.top_k);
        (proximity, kappa)
    });
    let kappa_hash = bits_hash(kappa.as_slice());
    let model = t.span("core.throttle", parent, |_| {
        SpamResilientSourceRank::builder()
            .throttle(kappa)
            .build(&sg)
    });
    let sr = t.span("core.sr_solve", parent, |_| model.rank());
    SrPass {
        sr,
        proximity,
        kappa_hash,
        source_edges: sg.num_edges(),
        model,
    }
}

/// `pipeline`: crawl in RAM → SR-SourceRank, timed end to end.
pub fn pipeline(r: &Run, out: &mut Outcome) {
    let inputs = setup_each(
        r,
        out,
        |k, parent| {
            let crawl = wb_crawl(r, k, parent);
            let spam = (crawl.spam_sources.len() / 10).max(1);
            let seeds = crawl.sample_spam_seed(spam, mix(r.seed, 20 + k as u64));
            let top_k = Dataset::Wb2001.throttle_top_k(crawl.num_sources());
            Labeled {
                crawl,
                seeds,
                top_k,
            }
        },
        |_, input| input,
    );
    let n = inputs.len();
    let mut firsts = FirstResults::new(n);
    let mut kappas = vec![None; n];
    let (mut converged, mut identical) = (true, true);
    let times = timed_passes(
        r,
        out,
        |i, parent| sr_rank(r, &inputs[i % n], parent),
        |i, pass| {
            let ok = pass.sr.stats().converged && pass.proximity.stats().converged;
            let kappa_same = *kappas[i % n].get_or_insert(pass.kappa_hash) == pass.kappa_hash;
            let same = firsts.same(i % n, pass.sr) && kappa_same;
            converged &= ok;
            identical &= same;
            ok && same
        },
    );
    crate::peak_rss(out);
    // One more untimed pass per crawl for the residual of its `T″` solve.
    let checks: Vec<(SrPass, f64)> = inputs
        .iter()
        .map(|input| {
            let pass = sr_rank(r, input, 0);
            let residual = residual_l1(
                &WeightedTransition::new(pass.model.transitions()),
                pass.sr.scores(),
            );
            (pass, residual)
        })
        .collect();
    let residual_ok = checks
        .iter()
        .all(|(pass, residual)| *residual <= residual_bound(pass.sr.len()));
    out.check(
        "every proximity and SR-SourceRank solve converged",
        converged,
    );
    out.check("SR-SourceRank passes are bitwise identical", identical);
    out.check(
        "SR-SourceRank residual is under the stop-rule bound",
        residual_ok,
    );
    report_passes(out, &times);
    out.detail("sr_rank_s", median(&times), "s");

    if r.traced {
        let (pass, residual) = &checks[0];
        let spans = |name| median(&r.tracer.durations(name));
        counter_layers(out);
        out.layer("graph.extract_s", spans("graph.extract"));
        out.layer("graph.source_edges", pass.source_edges as f64);
        out.layer("core.kappa_s", spans("core.kappa"));
        out.layer("core.kappa_iters", pass.proximity.stats().iterations as f64);
        out.layer("core.throttle_s", spans("core.throttle"));
        out.layer("core.sr_solve_s", spans("core.sr_solve"));
        out.layer("core.sr_iters", pass.sr.stats().iterations as f64);
        out.layer("core.residual_l1", *residual);
        let one_thread: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(sr_par::with_threads(1, || pass.model.rank()));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        out.layer("core.sr_solve_1t_s", median(&one_thread));
    }
}

/// `pagerank`: page-level PageRank of the crawl in RAM (the paper's §6
/// comparator), timed from the CSR to the converged vector.
pub fn pagerank(r: &Run, out: &mut Outcome) {
    let crawls = setup_each(r, out, |k, parent| wb_crawl(r, k, parent), |_, c| c);
    let n = crawls.len();
    let mut firsts = FirstResults::new(n);
    let (mut converged, mut identical) = (true, true);
    let times = timed_passes(
        r,
        out,
        |i, parent| {
            let pages = &crawls[i % n].pages;
            r.tracer
                .span("core.pagerank", parent, |_| PageRank::default().rank(pages))
        },
        |i, pr| {
            let ok = pr.stats().converged;
            let same = firsts.same(i % n, pr);
            converged &= ok;
            identical &= same;
            ok && same
        },
    );
    crate::peak_rss(out);
    let residuals: Vec<f64> = crawls
        .iter()
        .enumerate()
        .map(|(k, c)| residual_l1(&UniformTransition::new(&c.pages), firsts.first(k).scores()))
        .collect();
    out.check("PageRank converged", converged);
    out.check("PageRank passes are bitwise identical", identical);
    out.check(
        "PageRank residual is under the stop-rule bound",
        residuals
            .iter()
            .zip(&crawls)
            .all(|(res, c)| *res <= residual_bound(c.num_pages())),
    );
    report_passes(out, &times);
    out.detail("pagerank_s", median(&times), "s");

    if r.traced {
        counter_layers(out);
        let pages = &crawls[0].pages;
        let x = firsts.first(0);
        let (n, m) = (pages.num_nodes(), pages.num_edges());
        out.layer("core.pagerank_iters", x.stats().iterations as f64);
        out.layer("core.residual_l1", residuals[0]);
        let op = UniformTransition::new(pages);
        let (mut y, mut scratch) = (vec![0.0; n], vec![0.0; n]);
        let sweeps: Vec<f64> = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                op.propagate_with(x.scores(), &mut y, &mut scratch);
                std::hint::black_box(&y);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        let sweep = median(&sweeps);
        out.layer("core.sweep_ms", sweep * 1e3);
        out.layer("core.sweep_edges_per_s", m as f64 / sweep);
        // Computed, not measured: u32 targets and one f64 gather per edge,
        // plus x, 1/deg, the pre-scaled scratch and y once per node.
        out.layer("core.sweep_bytes", (12 * m + 32 * n) as f64);
        let t0 = Instant::now();
        std::hint::black_box(sr_par::with_threads(1, || PageRank::default().rank(pages)));
        out.layer("core.pagerank_1t_s", t0.elapsed().as_secs_f64());
        ooc_layers(r, out, pages, x);
    }
}

/// The hot-span budget of the out-of-core solve: half the decoded graph
/// (`(n+1)` u64 offsets and `m` u32 targets), so about half of the spans
/// are fetched and decoded again on every sweep.
fn ooc_config(n: usize, m: usize) -> PipelineConfig {
    PipelineConfig {
        cache_bytes: (8 * (n + 1) + 4 * m) / 2,
        ..PipelineConfig::default()
    }
}

/// The out-of-core layers, measured in the traced run of `pagerank` on its
/// first crawl: the crawl is written to an `SRSHARD1` file and read back
/// through `StreamedTransition::from_sharded_with` under the half budget,
/// and one full solve from the file must equal the in-RAM solve bitwise, at
/// the same iteration count.
fn ooc_layers(r: &Run, out: &mut Outcome, pages: &CsrGraph, in_ram: &RankVector) {
    let t = &r.tracer;
    let path = r.work.join("crawl.shards");
    t.span("graph.shard_build", 0, |_| {
        sr_graph::shard::build_from_csr(pages, &r.work, &path, SHARD_TARGET_BYTES)
            .expect("write the shard file")
    });
    let graph = t.span("graph.shard_open", 0, |_| {
        ShardedCompressedGraph::open(&path).expect("open the shard file")
    });
    let spans = |name| median(&t.durations(name));
    out.layer("graph.shard_build_s", spans("graph.shard_build"));
    out.layer("graph.shard_open_s", spans("graph.shard_open"));
    let shard_bytes = graph.data_bytes() as f64;
    out.layer("graph.shard_bytes", shard_bytes);
    let config = ooc_config(pages.num_nodes(), pages.num_edges());

    let op = StreamedTransition::from_sharded_with(&graph, config);
    let x = in_ram.scores();
    let (mut y, mut scratch) = (vec![0.0; x.len()], vec![0.0; x.len()]);
    let t0 = Instant::now();
    op.propagate_with(x, &mut y, &mut scratch);
    out.layer("core.ooc_cold_sweep_ms", t0.elapsed().as_secs_f64() * 1e3);
    let steady = 10;
    sr_par::counters::reset();
    sr_par::counters::enable();
    let sweeps: Vec<f64> = (0..steady)
        .map(|_| {
            let t0 = Instant::now();
            op.propagate_with(x, &mut y, &mut scratch);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    sr_par::counters::disable();
    let prefetched = sr_par::counters::snapshot().prefetched_bytes as f64 / f64::from(steady);
    out.layer("core.ooc_sweep_ms", median(&sweeps) * 1e3);
    out.layer("par.prefetched_bytes", prefetched);
    out.layer("core.ooc_restream_frac", prefetched / shard_bytes);

    let streamed = t.span("core.ooc_solve", 0, |_| {
        let op = StreamedTransition::from_sharded_with(&graph, config);
        PageRank::default().rank_operator_warm_in(&op, None, &mut SolverWorkspace::new(), None)
    });
    out.check(
        "out-of-core PageRank equals the in-RAM solve bitwise, at the same iteration count",
        bits_hash(streamed.scores()) == bits_hash(x)
            && streamed.stats().iterations == in_ram.stats().iterations,
    );
}

/// The gated metrics of a batch workload from its pass times.
fn report_passes(out: &mut Outcome, times: &[f64]) {
    out.e2e("p50_ms", median(times) * 1e3);
    out.e2e("ops_per_s", times.len() as f64 / times.iter().sum::<f64>());
}
