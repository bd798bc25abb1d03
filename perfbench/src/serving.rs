//! The serving workload against an in-process `sr-serve` on a 60k-page
//! crawl: `serve_mixed`, open loop, with lookups and `top_k` on one
//! connection and approx PPR and streamed ingest on the other, at a fixed
//! ladder of offered rates; before it, a short closed-loop exact PPR phase
//! with one caller per connection.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use sr_core::{
    panel_columns, PageRank, PanelQuery, QueryConfig, RankSnapshot, RankVector, WalkCacheConfig,
};
use sr_gen::{generate, CrawlConfig, CrawlDeltaProducer, ProducerConfig, SyntheticCrawl};
use sr_graph::CrawlDelta;
use sr_serve::engine::{EngineConfig, EpochEngine};
use sr_serve::{serve, PprMode, RankDomain, ServeClient, ServeConfig, ServerHandle};

use crate::openloop::{self, Sent};
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::{first_setup, mix, repeat_setup, Rng, Run, CONNECTIONS};

/// The request mix is `bench_serve`'s load phase (crates/bench) without
/// its exact PPR class, which the exact phase covers. Of every nine requests:
/// four `rank`, two `top_k` (alternating PageRank and Resilient by cycle)
/// and one `source_score` on the lookup connection, and two approx PPR on
/// the other. A PageRank `top_k` sorts all 60k page scores (about 6 ms); a
/// Resilient one sorts the 500 source scores, as cheap as a lookup. Each is
/// reported as a class of its own: a median over both would fall in the gap
/// between them.
const LOOKUP_CYCLE: [LookupClass; 7] = [
    LookupClass::Rank,
    LookupClass::Rank,
    LookupClass::Rank,
    LookupClass::Rank,
    LookupClass::TopK,
    LookupClass::TopK,
    LookupClass::SourceScore,
];
const APPROX_SHARE: f64 = 2.0 / 9.0;
/// The rung whose latencies are reported: `bench_serve`'s rate, four
/// clients at 20 requests/s, less its exact tenth.
pub const NOMINAL_RPS: f64 = 72.0;
/// Total offered request rates of the `serve_mixed` ladder (requests per
/// second over both connections, ingest excluded), ascending. The approx
/// connection completes 27–47 requests/s: the nominal rung offers it 16,
/// and the top rung 107, so that connection sends back to back there while
/// the lookup connection keeps up with its share. A top rung of 320, with
/// fewer `top_k` sorts beside the approx queries, did not steady
/// `ops_per_s`: its quartile spread over two sets of ten seeds was 0.13
/// and 0.24, against 0.15 and 0.16.
pub const LADDER_RPS: [f64; 3] = [36.0, NOMINAL_RPS, 480.0];
/// Shares of the measured time of the three rungs. At 25 s the nominal
/// rung sends 600 lookups, 120 PageRank and 120 Resilient `top_k` and 240
/// approx requests, enough for a p98, a p90 and a p95, and the run 32
/// ingests, enough for the freshness median. The top rung gets a third of
/// the time, so that `ops_per_s` averages over more than a few seconds of
/// the shared host.
const RUNG_SHARES: [f64; 3] = [0.06, 0.60, 0.34];
/// One streamed `CrawlDelta` ingest per period, at every rate: the gap
/// between deltas of `bench_serve`.
const INGEST_PERIOD: Duration = Duration::from_millis(800);
/// Minimum gap between `stats` polls while an ingest awaits publication.
const POLL_GAP: Duration = Duration::from_millis(1);
/// Tail limits a rung must meet to count towards `max_rps`. At the
/// nominal rate lookups reach 1–7 ms at p98 (queued behind `top_k` on
/// their connection) and approx PPR 35–70 ms at p95; past capacity they
/// grow without bound.
const LOOKUP_P98_LIMIT_MS: f64 = 50.0;
const APPROX_P95_LIMIT_MS: f64 = 200.0;
/// A rung's backlog grows when its last quarter of requests goes out later
/// than its first quarter by more than this.
const BACKLOG_SLACK_MS: f64 = 10.0;
/// sr-par threads per request in `serve_mixed`. The server runs one thread
/// per connection, so two connections already fill the two cores; with two
/// workers per request the capacity of the mix was lower (135 against 158
/// requests/s, medians of eight seeds) and twice as spread from run to run.
pub const THREADS_PER_REQUEST: usize = 1;
/// Results per PPR and `top_k` reply.
const TOP_M: u32 = 10;
/// Exact PPR queries each caller sends in the exact phase of `serve_mixed`.
const EXACT_PER_CALLER: usize = 16;
/// Answers of each PPR mode checked against an offline solve per run.
const CHECKED_ANSWERS: usize = 4;
/// Per-node failure probability of the approx bound the answers must meet.
const APPROX_DELTA: f64 = 1e-3;

fn serve_config(work: &Path) -> ServeConfig {
    ServeConfig {
        engine: EngineConfig {
            cache_walks: 16,
            cache_max_hops: 32,
            ..EngineConfig::default()
        },
        cache_dir: Some(work.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// The `CrawlDelta` stream of this run's seed, valid against `crawl`.
pub(crate) fn delta_stream(r: &Run, crawl: &SyntheticCrawl) -> CrawlDeltaProducer {
    let config = ProducerConfig {
        seed: mix(r.seed, 5),
        new_pages_per_delta: 32,
        new_links_per_delta: 96,
        removals_per_delta: 16,
        new_source_period: 3,
        spam_campaign_period: 4,
    };
    CrawlDeltaProducer::from_crawl(crawl, config)
}

/// The 60k-page crawl of this run's seed and its known-spam sources.
pub(crate) fn kernel_crawl(r: &Run, parent: u64) -> (SyntheticCrawl, Vec<u32>) {
    let cfg = CrawlConfig {
        num_sources: r.size.kernel_sources,
        total_pages: r.size.kernel_pages,
        seed: mix(r.seed, 3),
        ..CrawlConfig::default()
    };
    let crawl = r.tracer.span("gen.crawl", parent, |_| generate(&cfg));
    let spam = crawl.sample_spam_seed((crawl.spam_sources.len() / 10).max(1), mix(r.seed, 4));
    (crawl, spam)
}

struct Served {
    crawl: SyntheticCrawl,
    spam: Vec<u32>,
    handle: ServerHandle,
}

/// Set-up of `serve_mixed`: the crawl and a seeded server.
fn start(r: &Run, config: &ServeConfig, parent: u64) -> Served {
    let (crawl, spam) = kernel_crawl(r, parent);
    let handle = r.tracer.span("serve.seed", parent, |_| {
        serve(crawl.pages.clone(), &crawl.assignment, spam.clone(), config)
            .expect("the server starts")
    });
    Served {
        crawl,
        spam,
        handle,
    }
}

fn connect(s: &Served) -> ServeClient {
    ServeClient::connect(s.handle.addr()).expect("connect to the server")
}

/// The offline replay of the served stream: seed the engine the server
/// seeded, then step it through `deltas`. Returns the final snapshot and
/// the time of each step.
fn replay(
    s: &Served,
    config: &ServeConfig,
    work: &Path,
    deltas: &[CrawlDelta],
) -> (RankSnapshot, Vec<f64>) {
    let (mut engine, mut snapshot) = EpochEngine::seed(
        s.crawl.pages.clone(),
        &s.crawl.assignment,
        s.spam.clone(),
        &config.engine,
        &work.join("replay.walks"),
    )
    .expect("offline seed");
    let mut steps = Vec::with_capacity(deltas.len());
    for (i, delta) in deltas.iter().enumerate() {
        let t0 = Instant::now();
        snapshot = engine.step(i as u64 + 1, delta).expect("offline step");
        steps.push(t0.elapsed().as_secs_f64());
    }
    (snapshot, steps)
}

/// Served ranks of every domain equal the offline replay's, bit for bit.
fn ranks_match(client: &mut ServeClient, snapshot: &RankSnapshot) -> bool {
    [
        (RankDomain::PageRank, &snapshot.pagerank),
        (RankDomain::Resilient, &snapshot.resilient),
        (RankDomain::SourceRank, &snapshot.sourcerank),
        (RankDomain::Proximity, &snapshot.proximity),
    ]
    .into_iter()
    .all(|(domain, offline)| {
        client.dump_ranks(domain).is_ok_and(|served| {
            served.len() == offline.len()
                && served
                    .iter()
                    .zip(offline.scores())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
    })
}

/// Personalized PageRank of `seeds` on `pages`, exactly as the server's
/// panel solver computes each column.
fn exact_ppr(pages: &sr_graph::CsrGraph, seeds: &[u32], alpha: f64) -> RankVector {
    let query = [PanelQuery {
        ticket: 0,
        seeds: seeds.to_vec(),
    }];
    let columns = panel_columns(&query, alpha, pages.num_nodes()).expect("seeds in range");
    PageRank::builder()
        .alpha(alpha)
        .finish()
        .rank_batch(pages, columns)
        .into_columns()
        .remove(0)
}

/// The approx engine's additive per-node error bound at failure
/// probability `delta`: Hoeffding over `walks` cached walks of at most
/// `max_hops + 1` visits each, scaled by the residual mass `residual` the
/// walks close after the push phase (see `sr_core::approx`).
fn approx_bound(residual: f64, walks: u32, max_hops: u32, beta: f64, delta: f64) -> f64 {
    residual
        * (1.0 - beta)
        * f64::from(max_hops + 1)
        * ((2.0 / delta).ln() / (2.0 * f64::from(walks))).sqrt()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[derive(Debug, Clone, Copy)]
enum LookupClass {
    Rank,
    TopK,
    SourceScore,
}

#[derive(Debug, Clone, Copy)]
enum Lookup {
    Rank(u32),
    SourceScore(u32),
    TopK(RankDomain),
}

/// The classes latencies are reported by on the lookup connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// `rank` and `source_score`.
    Lookup,
    /// `top_k` over the 60k page scores (PageRank).
    PageTopK,
    /// `top_k` over the source scores (Resilient).
    SourceTopK,
}

impl Lookup {
    fn class(self) -> Class {
        match self {
            Lookup::Rank(_) | Lookup::SourceScore(_) => Class::Lookup,
            Lookup::TopK(RankDomain::PageRank) => Class::PageTopK,
            Lookup::TopK(_) => Class::SourceTopK,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Side {
    Approx(u32),
    Ingest,
}

/// Mutable state of `serve_mixed` carried across rungs.
struct Mixed {
    producer: CrawlDeltaProducer,
    /// Every delta sent, in sequence order (the replay input).
    sent: Vec<CrawlDelta>,
    /// Ingests not yet seen applied: (seq, send instant).
    pending: VecDeque<(u64, Instant)>,
    freshness_ms: Vec<f64>,
    last_poll: Instant,
    polls: u64,
    polls_failed: u64,
    /// Approx answers kept for the accuracy check: (seed page, reply).
    approx_answers: Vec<(u32, Vec<(u32, f64)>)>,
}

impl Mixed {
    /// One `stats` poll: records the freshness of every pending ingest the
    /// current snapshot covers.
    fn poll(&mut self, client: &mut ServeClient) {
        self.last_poll = Instant::now();
        self.polls += 1;
        match client.stats() {
            Ok(stats) => {
                let now = Instant::now();
                while let Some(&(seq, at)) = self.pending.front() {
                    if seq > stats.applied_seq {
                        break;
                    }
                    self.freshness_ms.push(ms(now - at));
                    self.pending.pop_front();
                }
            }
            Err(_) => self.polls_failed += 1,
        }
    }
}

/// One rung's replies on both connections.
struct Rung {
    rps: f64,
    lookups: Vec<Sent<Lookup>>,
    side: Vec<Sent<Side>>,
    secs: f64,
}

impl Rung {
    fn latencies(&self, class: Class) -> Vec<f64> {
        self.lookups
            .iter()
            .filter(|s| s.kind.class() == class)
            .map(Sent::latency_ms)
            .collect()
    }

    fn approx(&self) -> Vec<f64> {
        self.side
            .iter()
            .filter(|s| matches!(s.kind, Side::Approx(_)))
            .map(Sent::latency_ms)
            .collect()
    }

    fn failed(&self) -> u64 {
        let bad_a = self.lookups.iter().filter(|s| !s.ok).count();
        let bad_b = self.side.iter().filter(|s| !s.ok).count();
        (bad_a + bad_b) as u64
    }

    /// Whether the generator fell further behind over the rung.
    fn backlog_grows(&self) -> bool {
        let mut late: Vec<(Duration, f64)> = self
            .lookups
            .iter()
            .map(|s| (s.due, s.late_ms()))
            .chain(self.side.iter().map(|s| (s.due, s.late_ms())))
            .collect();
        late.sort_by_key(|&(due, _)| due);
        let q = late.len() / 4;
        if q == 0 {
            return false;
        }
        let first: Vec<f64> = late[..q].iter().map(|&(_, l)| l).collect();
        let last: Vec<f64> = late[late.len() - q..].iter().map(|&(_, l)| l).collect();
        median(&last) > median(&first) + BACKLOG_SLACK_MS
    }

    /// The rung meets its tail limits with no failures and no growing
    /// backlog. A tail is judged at the highest percentile up to the
    /// limit's own that the rung's samples support, or at the slowest
    /// sample when they support none.
    fn meets_limits(&self) -> bool {
        let tail = |xs: &[f64], p: u32| {
            [p, 90, 50]
                .into_iter()
                .filter(|&q| q <= p)
                .find_map(|q| percentile(xs, q))
                .unwrap_or_else(|| xs.iter().copied().fold(0.0, f64::max))
        };
        let lookup_ok = tail(&self.latencies(Class::Lookup), 98) <= LOOKUP_P98_LIMIT_MS;
        let approx_ok = tail(&self.approx(), 95) <= APPROX_P95_LIMIT_MS;
        self.failed() == 0 && lookup_ok && approx_ok && !self.backlog_grows()
    }

    /// Requests completed per second over the rung.
    fn achieved_rps(&self) -> f64 {
        (self.done_lookups() + self.done_approx()) / self.secs
    }

    /// The total rate this rung's replies sustain in the mix's proportions:
    /// each connection's completions per second over its share of the mix,
    /// the lower of the two. At the top rung, where the approx connection
    /// sends back to back, this is the service's capacity for the mix.
    fn mix_capacity(&self) -> f64 {
        let lookups = self.done_lookups() / (1.0 - APPROX_SHARE);
        lookups.min(self.done_approx() / APPROX_SHARE) / self.secs
    }

    fn done_lookups(&self) -> f64 {
        self.lookups.iter().filter(|s| s.ok).count() as f64
    }

    fn done_approx(&self) -> f64 {
        self.side
            .iter()
            .filter(|s| s.ok && matches!(s.kind, Side::Approx(_)))
            .count() as f64
    }
}

/// Runs one rung of `secs` seconds at `rps` offered over both connections.
/// A rung that `stops` drops the requests still unsent after `secs`.
#[allow(clippy::too_many_arguments)]
fn run_rung(
    r: &Run,
    a: &mut ServeClient,
    b: &mut ServeClient,
    st: &mut Mixed,
    rps: f64,
    secs: f64,
    stops: bool,
    n_pages: u32,
    n_sources: u32,
) -> Rung {
    let mut rng = Rng(mix(r.seed, rps.to_bits()));
    let approx_rate = rps * APPROX_SHARE;
    let lookup_rate = rps - approx_rate;
    let cycle = LOOKUP_CYCLE.len();
    let lookup_plan: Vec<(Duration, Lookup)> =
        openloop::evenly_spaced(lookup_rate, (lookup_rate * secs) as usize)
            .into_iter()
            .enumerate()
            .map(|(i, due)| {
                let kind = match LOOKUP_CYCLE[i % cycle] {
                    LookupClass::Rank => Lookup::Rank(rng.below(n_pages)),
                    LookupClass::SourceScore => Lookup::SourceScore(rng.below(n_sources)),
                    LookupClass::TopK if (i / cycle).is_multiple_of(2) => {
                        Lookup::TopK(RankDomain::PageRank)
                    }
                    LookupClass::TopK => Lookup::TopK(RankDomain::Resilient),
                };
                (due, kind)
            })
            .collect();
    // Due mid-period, so a rung of half a period or more has one.
    let ingests = (secs / INGEST_PERIOD.as_secs_f64()).round() as u32;
    let mut side_plan: Vec<(Duration, Side)> =
        openloop::evenly_spaced(approx_rate, (approx_rate * secs) as usize)
            .into_iter()
            .map(|due| (due, Side::Approx(rng.below(n_pages))))
            .chain((1..=ingests).map(|i| (INGEST_PERIOD * i - INGEST_PERIOD / 2, Side::Ingest)))
            .collect();
    side_plan.sort_by_key(|&(due, _)| due);

    let stop = stops.then(|| Duration::from_secs_f64(secs));
    let tracer = &r.tracer;
    let rung_span = tracer.fresh_id();
    let t_start = Instant::now();
    let (lookups, side) = std::thread::scope(|scope| {
        let lookups = scope.spawn(|| {
            openloop::run(
                t_start,
                &lookup_plan,
                stop,
                openloop::sleep_until,
                |kind, start| {
                    let ok = match kind {
                        Lookup::Rank(p) => a.rank(p).is_ok(),
                        Lookup::SourceScore(s) => a.source_score(s).is_ok(),
                        Lookup::TopK(d) => {
                            a.top_k(d, TOP_M).is_ok_and(|v| v.len() == TOP_M as usize)
                        }
                    };
                    let name = match kind {
                        Lookup::TopK(_) => "serve.top_k",
                        _ => "serve.lookup",
                    };
                    let id = tracer.fresh_id();
                    tracer.record(id, name, rung_span, id, start, Instant::now());
                    ok
                },
            )
        });
        let side = {
            // The idle hook and the sender share the connection and state.
            let client = std::cell::RefCell::new(b);
            let state = std::cell::RefCell::new(st);
            openloop::run(
                t_start,
                &side_plan,
                stop,
                |due| {
                    let mut st = state.borrow_mut();
                    if !st.pending.is_empty() && st.last_poll.elapsed() >= POLL_GAP {
                        st.poll(&mut client.borrow_mut());
                    } else if st.pending.is_empty() {
                        openloop::sleep_until(due);
                    } else {
                        openloop::sleep_until(due.min(Instant::now() + POLL_GAP));
                    }
                },
                |kind, start| {
                    let mut st = state.borrow_mut();
                    let mut client = client.borrow_mut();
                    let (ok, name) = match kind {
                        Side::Approx(page) => {
                            // Keep freshness measured while this connection
                            // is too busy to idle (one ~25 µs round trip).
                            if !st.pending.is_empty() && st.last_poll.elapsed() >= POLL_GAP {
                                st.poll(&mut client);
                            }
                            let reply = client.ppr(PprMode::Approx, vec![page], TOP_M);
                            let ok = reply.is_ok();
                            if let Ok(reply) = reply {
                                if st.approx_answers.len() < CHECKED_ANSWERS {
                                    st.approx_answers.push((page, reply));
                                }
                            }
                            (ok, "serve.approx")
                        }
                        Side::Ingest => {
                            let delta = st.producer.next_delta();
                            let expected = st.sent.len() as u64 + 1;
                            let ok = client.ingest(&delta).is_ok_and(|seq| seq == expected);
                            st.sent.push(delta);
                            if ok {
                                st.pending.push_back((expected, start));
                            }
                            (ok, "serve.ingest")
                        }
                    };
                    let id = tracer.fresh_id();
                    tracer.record(id, name, rung_span, id, start, Instant::now());
                    ok
                },
            )
        };
        (lookups.join().expect("lookup connection thread"), side)
    });
    let secs_run = t_start.elapsed().as_secs_f64();
    tracer.record(rung_span, "bench.rung", 0, 0, t_start, Instant::now());
    Rung {
        rps,
        lookups,
        side,
        secs: secs_run,
    }
}

/// `serve_mixed`: open-loop lookups, `top_k`, approx PPR and ingest.
pub fn serve_mixed(r: &Run, out: &mut Outcome) {
    let config = serve_config(&r.work);
    let (s, first_setup_s) = first_setup(r, |parent| start(r, &config, parent));
    let n_pages = u32::try_from(s.crawl.num_pages()).expect("page ids fit u32");
    let n_sources = u32::try_from(s.crawl.num_sources()).expect("source ids fit u32");
    let (mut a, mut b) = (connect(&s), connect(&s));
    // Warm-up: the first approx query faults the walk-cache file in.
    for page in 0..8 {
        let _ = a.rank(page);
        let _ = a.top_k(RankDomain::PageRank, TOP_M);
        let _ = b.ppr(PprMode::Approx, vec![page], TOP_M);
    }
    exact_phase(r, out, &s, &config, &mut a, &mut b);
    let mut st = Mixed {
        producer: delta_stream(r, &s.crawl),
        sent: Vec::new(),
        pending: VecDeque::new(),
        freshness_ms: Vec::new(),
        last_poll: Instant::now(),
        polls: 0,
        polls_failed: 0,
        approx_answers: Vec::new(),
    };

    let mut rungs = Vec::new();
    let nominal;
    if r.traced {
        r.tracer.set_enabled(false);
        let plain = run_rung(
            r,
            &mut a,
            &mut b,
            &mut st,
            NOMINAL_RPS,
            r.seconds / 2.0,
            false,
            n_pages,
            n_sources,
        );
        r.tracer.set_enabled(true);
        sr_par::counters::reset();
        sr_par::counters::enable();
        let traced = run_rung(
            r,
            &mut a,
            &mut b,
            &mut st,
            NOMINAL_RPS,
            r.seconds / 2.0,
            false,
            n_pages,
            n_sources,
        );
        sr_par::counters::disable();
        let p50 = |rung: &Rung| median(&rung.approx());
        out.layer("trace.overhead_ms", p50(&traced) - p50(&plain));
        nominal = traced;
        rungs.push(plain);
    } else {
        // Every rung runs, ascending; only the top one stops at its time.
        for (k, (rps, share)) in LADDER_RPS.into_iter().zip(RUNG_SHARES).enumerate() {
            let stops = k + 1 == LADDER_RPS.len();
            rungs.push(run_rung(
                r,
                &mut a,
                &mut b,
                &mut st,
                rps,
                r.seconds * share,
                stops,
                n_pages,
                n_sources,
            ));
        }
        nominal = rungs.remove(1);
    }

    // Drain: every ingest must be applied before the parity check.
    let drain_deadline = Instant::now() + Duration::from_secs(60);
    while !st.pending.is_empty() && Instant::now() < drain_deadline {
        std::thread::sleep(POLL_GAP);
        st.poll(&mut b);
    }
    out.check("every ingest was applied", st.pending.is_empty());
    crate::peak_rss(out);

    for rung in rungs.iter().chain([&nominal]) {
        out.attempted += (rung.lookups.len() + rung.side.len()) as u64;
        out.failed += rung.failed();
    }
    out.attempted += st.polls;
    out.failed += st.polls_failed;

    // Rung verdicts, ascending; max_rps is the highest rung before the
    // first one that misses its limits.
    let mut ladder: Vec<&Rung> = rungs.iter().chain([&nominal]).collect();
    ladder.sort_by(|x, y| x.rps.total_cmp(&y.rps));
    let mut max_rps = 0.0;
    let mut missed = false;
    // A short rung may have sent no request of a class.
    let p50 = |xs: Vec<f64>| if xs.is_empty() { f64::NAN } else { median(&xs) };
    for rung in &ladder {
        let ok = rung.meets_limits();
        eprintln!(
            "perfbench: rung {:>6.0} rps offered, {:>7.1} achieved, p50 lookup {:.3} top_k {:.3} \
             approx {:.3} ms, limits {}",
            rung.rps,
            rung.achieved_rps(),
            p50(rung.latencies(Class::Lookup)),
            p50(rung.latencies(Class::PageTopK)),
            p50(rung.approx()),
            if ok { "met" } else { "missed" }
        );
        missed |= !ok;
        if !missed {
            max_rps = rung.achieved_rps();
        }
    }
    // Throughput: the mix's capacity at the top rung. The traced run has
    // no top rung and does not print its end-to-end figures.
    let throughput = ladder.last().map_or(0.0, |rung| rung.mix_capacity());

    let stats = b.stats().expect("stats after load");
    let (snapshot, steps) = replay(&s, &config, &r.work, &st.sent);
    out.check(
        "served ranks equal the offline replay bitwise",
        ranks_match(&mut b, &snapshot),
    );
    out.check(
        "no reader stalls",
        s.handle.reader_stalls() == 0 && stats.reader_stalls == 0,
    );
    out.check(
        "every delta was published",
        stats.applied_seq == st.sent.len() as u64,
    );

    // Sampled approx answers against the exact solve on the walk cache's
    // graph (the seed epoch's pages).
    let bound = approx_bound(
        config.approx_epsilon,
        config.engine.cache_walks,
        config.engine.cache_max_hops,
        config.engine.alpha,
        APPROX_DELTA,
    );
    let mut max_err = 0.0f64;
    for (page, reply) in &st.approx_answers {
        let exact = exact_ppr(&s.crawl.pages, &[*page], config.engine.alpha);
        for &(id, score) in reply {
            max_err = max_err.max((score - exact.scores()[id as usize]).abs());
        }
    }
    out.check(
        "sampled approx answers are within the engine's (ε, δ) bound",
        !st.approx_answers.is_empty() && max_err <= bound,
    );

    let lookups = nominal.latencies(Class::Lookup);
    let topk = nominal.latencies(Class::PageTopK);
    let topk_src = nominal.latencies(Class::SourceTopK);
    let approx = nominal.approx();
    // The headline is the approx PPR median, the request that does the
    // most work. The lookup and PageRank `top_k` medians sit at one of two
    // levels from run to run (about 0.2 or 0.28 ms, 7 or 12 ms): over ten
    // seeds their quartile spreads were 0.24 and 0.32–0.45, against
    // 0.08–0.09.
    out.e2e("p50_ms", median(&approx));
    out.e2e("ops_per_s", throughput);
    out.check("the lowest rung meets its latency limits", max_rps > 0.0);
    if !r.traced {
        out.percentile_ms("lookup_p50_ms", &lookups, 50);
        out.percentile_ms("lookup_p98_ms", &lookups, 98);
        out.percentile_ms("topk_p50_ms", &topk, 50);
        out.percentile_ms("topk_p90_ms", &topk, 90);
        out.percentile_ms("topk_src_p50_ms", &topk_src, 50);
        out.percentile_ms("approx_p50_ms", &approx, 50);
        out.percentile_ms("approx_p95_ms", &approx, 95);
        out.percentile_ms("freshness_p50_ms", &st.freshness_ms, 50);
        out.detail("max_rps", max_rps, "1/s");
    }
    out.detail("approx_max_err", max_err, "abs");
    out.detail("approx_bound", bound, "abs");

    if r.traced {
        crate::counter_layers(out);
        out.layer("serve.engine_step_ms", median(&steps) * 1e3);
        out.layer("serve.reader_stalls", stats.reader_stalls as f64);
        let late: Vec<f64> = nominal
            .lookups
            .iter()
            .map(Sent::late_ms)
            .chain(nominal.side.iter().map(Sent::late_ms))
            .collect();
        out.layer(
            "serve.late_ms",
            percentile(&late, 99).unwrap_or_else(|| median(&late)),
        );
        out.layer("serve.stats_rtt_us", stats_rtt_us(&mut b));
        let top: Vec<f64> = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(snapshot.pagerank.top_k(TOP_M as usize));
                ms(t0.elapsed())
            })
            .collect();
        out.layer("core.top_k_ms", median(&top));
        out.layer("core.approx_query_ms", approx_query_ms(r, &s, &config));
    }
    drop((a, b, s));
    more_setups(r, out, &config, first_setup_s);
}

/// Median idle `stats` round trip: the socket floor under every request.
fn stats_rtt_us(client: &mut ServeClient) -> f64 {
    let rtts: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            let _ = client.stats();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&rtts)
}

/// Median warm `ApproxPpr::query` on the server's walk-cache settings.
fn approx_query_ms(r: &Run, s: &Served, config: &ServeConfig) -> f64 {
    let solver = PageRank::builder().alpha(config.engine.alpha).finish();
    let cache = solver
        .build_walk_cache(
            &s.crawl.pages,
            WalkCacheConfig {
                walks: config.engine.cache_walks,
                max_hops: config.engine.cache_max_hops,
                seed: config.engine.cache_seed,
                ..WalkCacheConfig::default()
            },
            &r.work.join("probe.walks"),
        )
        .expect("build the walk cache");
    let engine = solver
        .approx(&s.crawl.pages, &cache)
        .expect("cache matches graph");
    let q = QueryConfig {
        epsilon: config.approx_epsilon,
        ..QueryConfig::default()
    };
    let n = u32::try_from(s.crawl.num_pages()).expect("page ids fit u32");
    let mut rng = Rng(mix(r.seed, 6));
    let _ = engine.query(&[0], &q);
    let times: Vec<f64> = (0..50)
        .map(|_| {
            let page = rng.below(n);
            let t0 = Instant::now();
            std::hint::black_box(engine.query(&[page], &q).expect("approx query"));
            ms(t0.elapsed())
        })
        .collect();
    median(&times)
}

/// Two distinct seed pages.
fn seed_pair(rng: &mut Rng, n: u32) -> Vec<u32> {
    let a = rng.below(n);
    let b = (a + 1 + rng.below(n - 1)) % n;
    vec![a.min(b), a.max(b)]
}

/// The exact PPR phase of `serve_mixed`, before its load and any ingest:
/// one closed-loop caller per connection sends exact PPR for fresh seed
/// pairs, the only way concurrent queries coalesce in `PanelQueue`. Its
/// answers are checked bitwise against the same panel column solved
/// offline; the traced run reports the panel layers.
fn exact_phase(
    r: &Run,
    out: &mut Outcome,
    s: &Served,
    config: &ServeConfig,
    a: &mut ServeClient,
    b: &mut ServeClient,
) {
    let n = u32::try_from(s.crawl.num_pages()).expect("page ids fit u32");
    let panels = |c: &mut ServeClient| c.stats().expect("stats").panels_solved;
    let panels_before = panels(a);
    type Reply = (Vec<u32>, Result<Vec<(u32, f64)>, ()>);
    let tracer = &r.tracer;
    let replies: Vec<Reply> = std::thread::scope(|scope| {
        let callers: Vec<_> = [&mut *a, &mut *b]
            .into_iter()
            .zip(0u64..)
            .map(|(client, k)| {
                scope.spawn(move || {
                    let mut rng = Rng(mix(r.seed, 100 + k));
                    (0..EXACT_PER_CALLER)
                        .map(|_| {
                            let seeds = seed_pair(&mut rng, n);
                            let start = Instant::now();
                            let reply = client
                                .ppr(PprMode::Exact, seeds.clone(), TOP_M)
                                .map_err(|_| ());
                            let id = tracer.fresh_id();
                            tracer.record(id, "serve.exact", 0, id, start, Instant::now());
                            (seeds, reply)
                        })
                        .collect::<Vec<Reply>>()
                })
            })
            .collect();
        callers
            .into_iter()
            .flat_map(|c| c.join().expect("exact caller thread"))
            .collect()
    });
    out.attempted += replies.len() as u64;
    out.failed += replies.iter().filter(|x| x.1.is_err()).count() as u64;
    let mut exact_ok = true;
    for (seeds, reply) in replies.iter().take(CHECKED_ANSWERS) {
        let exact = exact_ppr(&s.crawl.pages, seeds, config.engine.alpha);
        let expect: Vec<(u32, f64)> = exact
            .top_k(TOP_M as usize)
            .into_iter()
            .map(|id| (id, exact.scores()[id as usize]))
            .collect();
        exact_ok &= reply.as_ref().is_ok_and(|got| {
            got.len() == expect.len()
                && got
                    .iter()
                    .zip(&expect)
                    .all(|(g, e)| g.0 == e.0 && g.1.to_bits() == e.1.to_bits())
        });
    }
    out.check(
        "sampled exact answers equal the offline solve bitwise",
        exact_ok,
    );

    if r.traced {
        let solved = panels(a) - panels_before;
        out.layer(
            "serve.exact_per_panel",
            replies.len() as f64 / solved.max(1) as f64,
        );
        let mut rng = Rng(mix(r.seed, 7));
        let solver = PageRank::builder().alpha(config.engine.alpha).finish();
        let mut solve = |k: usize| {
            let queries: Vec<PanelQuery> = (0..k)
                .map(|t| PanelQuery {
                    ticket: t as u64,
                    seeds: seed_pair(&mut rng, n),
                })
                .collect();
            let columns =
                panel_columns(&queries, config.engine.alpha, n as usize).expect("seeds in range");
            let t0 = Instant::now();
            std::hint::black_box(solver.rank_batch(&s.crawl.pages, columns));
            ms(t0.elapsed())
        };
        let single: Vec<f64> = (0..5).map(|_| solve(1)).collect();
        let panel: Vec<f64> = (0..5).map(|_| solve(CONNECTIONS)).collect();
        out.layer("core.exact_solve_ms", median(&single));
        out.layer("core.panel_solve_ms", median(&panel));
    }
}

/// The set-ups after the first, timed once its server is gone, and the
/// layer they give.
fn more_setups(r: &Run, out: &mut Outcome, config: &ServeConfig, first_setup_s: f64) {
    repeat_setup(r, out, first_setup_s, |parent| start(r, config, parent));
    if r.traced {
        out.layer("serve.seed_s", median(&r.tracer.durations("serve.seed")));
    }
}
