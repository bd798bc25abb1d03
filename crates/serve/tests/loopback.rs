//! Tier-1 loopback smoke: a real server on a real socket, one query of
//! every command, streaming ingest under concurrent queries, and the
//! bitwise ingest-parity gate — after the server has folded the delta
//! stream, its dumped rank vectors must equal an *offline* [`EpochEngine`]
//! replay of the same stream, bit for bit.

use std::time::Duration;

use sr_core::{PageRank, QueryConfig, RankVector};
use sr_gen::{generate, CrawlConfig, CrawlDeltaProducer, ProducerConfig};
use sr_serve::engine::{EngineConfig, EpochEngine};
use sr_serve::wire::{PprMode, RankDomain, Request, Response};
use sr_serve::{serve, ServeClient, ServeConfig};

fn test_config() -> ServeConfig {
    ServeConfig {
        engine: EngineConfig {
            cache_walks: 8,
            ..Default::default()
        },
        panel_k: 4,
        window_us: 200,
        ..Default::default()
    }
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

fn rv_bits(v: &RankVector) -> Vec<u64> {
    bits(v.scores())
}

/// Polls stats until the writer has folded `seq` (bounded wait — the
/// writer solves warm, so a delta lands in well under a second).
fn wait_applied(client: &mut ServeClient, seq: u64) {
    for _ in 0..2_000 {
        if client.stats().unwrap().applied_seq >= seq {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("writer never reached seq {seq}");
}

#[test]
fn every_command_and_bitwise_ingest_parity() {
    let crawl = generate(&CrawlConfig::tiny(42));
    let spam_seeds = crawl.sample_spam_seed(3, 9);
    let config = test_config();
    let mut handle = serve(
        crawl.pages.clone(),
        &crawl.assignment,
        spam_seeds.clone(),
        &config,
    )
    .unwrap();
    let mut client = ServeClient::connect(handle.addr()).unwrap();

    // --- one query of each read command against the seed epoch ----------
    let stats0 = client.stats().unwrap();
    assert_eq!(stats0.epoch, 0);
    assert_eq!(stats0.num_pages, crawl.num_pages() as u64);
    assert_eq!(stats0.num_sources, crawl.num_sources() as u64);

    let pr_dump = client.dump_ranks(RankDomain::PageRank).unwrap();
    assert_eq!(pr_dump.len(), crawl.num_pages());
    let r0 = client.rank(0).unwrap();
    assert_eq!(r0.to_bits(), pr_dump[0].to_bits(), "rank == dump[0]");

    let top = client.top_k(RankDomain::Resilient, 5).unwrap();
    assert_eq!(top.len(), 5);
    assert!(
        top.windows(2).all(|w| w[0].1 >= w[1].1),
        "top-k descends: {top:?}"
    );

    let (res, sr, prox) = client.source_score(0).unwrap();
    let res_dump = client.dump_ranks(RankDomain::Resilient).unwrap();
    let sr_dump = client.dump_ranks(RankDomain::SourceRank).unwrap();
    let prox_dump = client.dump_ranks(RankDomain::Proximity).unwrap();
    assert_eq!(res.to_bits(), res_dump[0].to_bits());
    assert_eq!(sr.to_bits(), sr_dump[0].to_bits());
    assert_eq!(prox.to_bits(), prox_dump[0].to_bits());

    let exact = client.ppr(PprMode::Exact, vec![1, 7], 10).unwrap();
    assert!(!exact.is_empty());
    let approx = client.ppr(PprMode::Approx, vec![1, 7], 10).unwrap();
    assert!(!approx.is_empty());

    // --- the bugfix sweep's typed errors surface on the wire -------------
    let huge = u32::try_from(crawl.num_pages()).unwrap() + 5;
    for seeds in [vec![huge], vec![], vec![1, 1]] {
        for mode in [PprMode::Exact, PprMode::Approx] {
            let reply = client
                .roundtrip(&Request::Ppr {
                    mode,
                    top_m: 3,
                    seeds: seeds.clone(),
                })
                .unwrap();
            assert!(
                matches!(reply, Response::BadRequest(_)),
                "{mode:?} seeds {seeds:?} must be a typed BadRequest, got {reply:?}"
            );
        }
    }
    assert!(matches!(
        client.roundtrip(&Request::Rank { page: huge }).unwrap(),
        Response::BadRequest(_)
    ));
    assert!(matches!(
        client
            .roundtrip(&Request::SourceScore {
                source: u32::try_from(crawl.num_sources()).unwrap()
            })
            .unwrap(),
        Response::BadRequest(_)
    ));

    // --- streaming ingest with concurrent reads --------------------------
    const DELTAS: u64 = 5;
    let producer_cfg = ProducerConfig::tiny(13);
    let mut producer = CrawlDeltaProducer::from_crawl(&crawl, producer_cfg.clone());
    let mut deltas = Vec::new();
    for expect_seq in 1..=DELTAS {
        let delta = producer.next_delta();
        let seq = client.ingest(&delta).unwrap();
        assert_eq!(seq, expect_seq);
        deltas.push(delta);
        // Interleave reads while the writer works.
        let _ = client.rank(0).unwrap();
        let _ = client.top_k(RankDomain::PageRank, 3).unwrap();
    }
    wait_applied(&mut client, DELTAS);

    let stats = client.stats().unwrap();
    assert_eq!(stats.applied_seq, DELTAS);
    assert_eq!(stats.enqueued_seq, DELTAS);
    assert_eq!(stats.published, DELTAS, "one snapshot per delta");
    assert_eq!(stats.reader_stalls, 0, "zero reader stalls");

    // --- bitwise parity with an offline replay ----------------------------
    let cache = std::env::temp_dir().join(format!(
        "sr_serve_loopback_replay_{}.walks",
        std::process::id()
    ));
    let (mut offline, _) = EpochEngine::seed(
        crawl.pages.clone(),
        &crawl.assignment,
        spam_seeds,
        &config.engine,
        &cache,
    )
    .unwrap();
    let mut last = None;
    for (i, delta) in deltas.iter().enumerate() {
        last = Some(offline.step(i as u64 + 1, delta).unwrap());
    }
    let offline_snap = last.unwrap();

    assert_eq!(
        bits(&client.dump_ranks(RankDomain::PageRank).unwrap()),
        rv_bits(&offline_snap.pagerank),
        "served PageRank must equal offline replay bitwise"
    );
    assert_eq!(
        bits(&client.dump_ranks(RankDomain::Resilient).unwrap()),
        rv_bits(&offline_snap.resilient)
    );
    assert_eq!(
        bits(&client.dump_ranks(RankDomain::SourceRank).unwrap()),
        rv_bits(&offline_snap.sourcerank)
    );
    assert_eq!(
        bits(&client.dump_ranks(RankDomain::Proximity).unwrap()),
        rv_bits(&offline_snap.proximity)
    );

    // Post-delta exact PPR runs on the grown graph.
    let new_page = u32::try_from(crawl.num_pages()).unwrap();
    let grown = client.ppr(PprMode::Exact, vec![new_page], 5).unwrap();
    assert!(!grown.is_empty(), "new pages are queryable");

    // --- shutdown ---------------------------------------------------------
    client.shutdown().unwrap();
    handle.shutdown();
    assert_eq!(handle.reader_stalls(), 0);
    std::fs::remove_file(&cache).ok();
}

/// Asserts a `Ranked` reply is exactly the first `min(k, n)` entries of
/// `offline.sorted_desc()`: same ids in the same order, same score bits.
fn assert_sorted_prefix(reply: &[(u32, f64)], offline: &RankVector, k: usize, what: &str) {
    let order = offline.sorted_desc();
    let expect: Vec<(u32, u64)> = order[..k.min(order.len())]
        .iter()
        .map(|&i| (i, offline.score(i).to_bits()))
        .collect();
    let got: Vec<(u32, u64)> = reply.iter().map(|&(i, s)| (i, s.to_bits())).collect();
    assert_eq!(got, expect, "{what}: k = {k}");
}

/// A cut that splits the first group of tied scores in `v`'s sorted order,
/// keeping one member of the group, if `v` has ties.
fn tie_split(v: &RankVector) -> Option<usize> {
    let order = v.sorted_desc();
    order
        .windows(2)
        .position(|w| v.score(w[0]).to_bits() == v.score(w[1]).to_bits())
        .map(|i| i + 1)
}

/// The cuts to query: `0, 1, 10, n, n + 3`, plus one that splits the first
/// group of tied scores when there is one.
fn cuts(v: &RankVector) -> Vec<usize> {
    let n = v.len();
    let mut ks = vec![0, 1, 10, n, n + 3];
    ks.extend(tie_split(v));
    ks
}

#[test]
fn served_top_k_and_ppr_equal_the_offline_sorted_prefix() {
    let crawl = generate(&CrawlConfig::tiny(42));
    let spam_seeds = crawl.sample_spam_seed(3, 9);
    let config = test_config();
    let mut handle = serve(
        crawl.pages.clone(),
        &crawl.assignment,
        spam_seeds.clone(),
        &config,
    )
    .unwrap();
    let mut client = ServeClient::connect(handle.addr()).unwrap();

    // The seed epoch is deterministic: an offline seed is the served one.
    let cache = std::env::temp_dir().join(format!(
        "sr_serve_loopback_topk_{}.walks",
        std::process::id()
    ));
    let (_, offline) = EpochEngine::seed(
        crawl.pages.clone(),
        &crawl.assignment,
        spam_seeds,
        &config.engine,
        &cache,
    )
    .unwrap();

    // PageRank has plateaus of tied no-in-link pages; a cut inside one
    // leaves the id tie-break to decide which pages make the list.
    assert!(
        tie_split(&offline.pagerank).is_some(),
        "the crawl must have tied PageRank plateaus"
    );
    for (domain, vector) in [
        (RankDomain::PageRank, &offline.pagerank),
        (RankDomain::Resilient, &offline.resilient),
        (RankDomain::SourceRank, &offline.sourcerank),
        (RankDomain::Proximity, &offline.proximity),
    ] {
        for k in cuts(vector) {
            let reply = client.top_k(domain, u32::try_from(k).unwrap()).unwrap();
            assert_sorted_prefix(&reply, vector, k, &format!("{domain:?} top_k"));
        }
    }

    let engine_solver = PageRank::builder()
        .alpha(config.engine.alpha)
        .criteria(config.engine.criteria)
        .finish();
    let engine = engine_solver
        .approx(&offline.cache_pages, &offline.walks)
        .unwrap();
    let query = QueryConfig {
        epsilon: config.approx_epsilon,
        ..QueryConfig::default()
    };
    let seeds = vec![1, 7];
    let expect = engine.query(&seeds, &query).unwrap();
    for m in cuts(&expect) {
        let reply = client
            .ppr(PprMode::Approx, seeds.clone(), u32::try_from(m).unwrap())
            .unwrap();
        assert_sorted_prefix(&reply, &expect, m, "approx ppr");
    }

    client.shutdown().unwrap();
    handle.shutdown();
    std::fs::remove_file(&cache).ok();
}

#[test]
fn malformed_frames_get_typed_rejections_not_hangups() {
    use std::io::Write as _;

    let crawl = generate(&CrawlConfig::tiny(3));
    let seeds = crawl.sample_spam_seed(2, 4);
    let config = ServeConfig {
        engine: EngineConfig {
            cache_walks: 0,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut handle = serve(crawl.pages.clone(), &crawl.assignment, seeds, &config).unwrap();

    // Raw socket: send an unknown opcode, then prove the same connection
    // still answers a well-formed request.
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(&1u32.to_le_bytes()).unwrap();
    stream.write_all(&[0xEE]).unwrap();
    stream.flush().unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let frame = sr_serve::wire::read_frame(&mut reader).unwrap().unwrap();
    assert!(matches!(
        sr_serve::wire::decode_response(&frame).unwrap(),
        Response::BadRequest(_)
    ));

    let mut payload = Vec::new();
    sr_serve::wire::encode_request(&Request::Stats, &mut payload);
    sr_serve::wire::write_frame(&mut stream, &payload).unwrap();
    let frame = sr_serve::wire::read_frame(&mut reader).unwrap().unwrap();
    assert!(matches!(
        sr_serve::wire::decode_response(&frame).unwrap(),
        Response::Stats(_)
    ));

    handle.shutdown();
}
