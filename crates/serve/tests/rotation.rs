//! Snapshot-rotation race suite: real concurrent readers against a
//! publishing writer. Pins the two serving guarantees:
//!
//! * a reader that pins an epoch (holds its `Arc`) sees **bit-identical**
//!   vectors for as long as it wants, no matter how many epochs the writer
//!   publishes over it — even on a minimal 2-slot ring being spin-lapped
//!   (the worst case: stalls may be *counted* there, but correctness never
//!   degrades — the blocking fallback still returns a complete epoch);
//! * readers never stall under serving-shaped pacing: with the default
//!   4-slot ring and epochs separated by real work (every production epoch
//!   is a multi-solve, milliseconds at minimum), the stall counter stays
//!   at zero across thousands of concurrent loads, and every load observes
//!   an internally consistent snapshot (all four vectors from one epoch).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use sr_core::convergence::IterationStats;
use sr_core::{RankSnapshot, RankVector, SnapshotRing};
use sr_graph::walks::{WalkFileWriter, WalkMeta, WalkStore};
use sr_graph::GraphBuilder;

const PAGES: usize = 64;
const EPOCHS: u64 = 300;
/// Concurrent readers in the pinned-epoch race.
const READERS: usize = 4;

fn tiny_walks(tag: &str) -> WalkStore {
    let path = std::env::temp_dir().join(format!(
        "sr_rotation_walks_{tag}_{}.bin",
        std::process::id()
    ));
    let meta = WalkMeta {
        num_nodes: PAGES,
        walks: 0,
        beta_bits: 0.85f64.to_bits(),
        rng_seed: 1,
        max_hops: 8,
    };
    let mut w = WalkFileWriter::create(&path, meta).unwrap();
    for _ in 0..PAGES {
        w.write_segment(&[], &[]).unwrap();
    }
    w.finish().unwrap()
}

fn rv(fill: f64, n: usize) -> RankVector {
    RankVector::new(
        vec![fill; n],
        IterationStats {
            iterations: 1,
            final_residual: 0.0,
            converged: true,
            residual_history: Vec::new(),
        },
    )
}

/// Every vector of epoch `e` is filled with a value derived from `e`, so a
/// torn snapshot (vectors from different epochs) is detectable by value.
fn snap(epoch: u64, walks: &Arc<WalkStore>) -> RankSnapshot {
    let g = Arc::new(
        GraphBuilder::from_edges_exact(PAGES, (0..PAGES as u32 - 1).map(|u| (u, u + 1))).unwrap(),
    );
    let fill = epoch as f64 + 0.5;
    RankSnapshot {
        epoch,
        applied_seq: epoch,
        pagerank: rv(fill, PAGES),
        sourcerank: rv(fill, 8),
        resilient: rv(fill, 8),
        proximity: rv(fill, 8),
        pages: Arc::clone(&g),
        cache_pages: g,
        walks: Arc::clone(walks),
        compactions: 0,
    }
}

#[test]
fn pinned_readers_see_bit_identical_vectors_while_writer_publishes() {
    let walks = Arc::new(tiny_walks("pinned"));
    // Minimal ring: 2 slots, so the writer laps constantly.
    let ring = Arc::new(SnapshotRing::new(snap(0, &walks), 2));
    let stop = Arc::new(AtomicBool::new(false));
    // The writer publishes only once every reader holds its first pin, so
    // no reader can miss the whole run on an oversubscribed box.
    let start = Arc::new(Barrier::new(READERS + 1));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut loads = 0u64;
                let mut started = false;
                while !started || !stop.load(Ordering::Relaxed) {
                    let pinned = ring.load();
                    if !started {
                        start.wait();
                        started = true;
                    }
                    let epoch = pinned.epoch;
                    let expect = (epoch as f64 + 0.5).to_bits();
                    // Hold the pin across several fresh loads (the writer
                    // keeps publishing meanwhile), then re-check the bits.
                    for _ in 0..16 {
                        let fresh = ring.load();
                        assert!(fresh.epoch >= epoch, "epochs are monotone");
                        // Internal consistency of whatever epoch we got.
                        let fill = (fresh.epoch as f64 + 0.5).to_bits();
                        for v in [
                            fresh.pagerank.scores()[0],
                            fresh.sourcerank.scores()[0],
                            fresh.resilient.scores()[0],
                            fresh.proximity.scores()[0],
                        ] {
                            assert_eq!(v.to_bits(), fill, "torn snapshot at {}", fresh.epoch);
                        }
                    }
                    for &v in pinned.pagerank.scores() {
                        assert_eq!(v.to_bits(), expect, "pinned epoch {epoch} mutated");
                    }
                    assert_eq!(pinned.epoch, epoch);
                    loads += 17;
                }
                loads
            })
        })
        .collect();

    start.wait();
    for e in 1..=EPOCHS {
        ring.publish(snap(e, &walks));
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "readers must have made progress");
    assert_eq!(ring.published(), EPOCHS);
    // Stalls may occur on a spin-lapped 2-slot ring; what must never occur
    // is a torn or mutated snapshot — the assertions inside the readers.
    assert_eq!(ring.load().epoch, EPOCHS);
}

#[test]
fn paced_publishing_never_stalls_a_reader() {
    let walks = Arc::new(tiny_walks("paced"));
    // Default serving shape: 4 slots; epochs separated by real work (every
    // production epoch is a multi-solve, milliseconds at minimum). Lapping
    // a reader would take 4 publishes = 4ms+ of preemption inside the
    // reader's index-load → try_read window, orders of magnitude beyond
    // scheduler jitter, so the stall counter must stay at zero.
    let ring = Arc::new(SnapshotRing::new(snap(0, &walks), 4));
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut loads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let s = ring.load();
                    let fill = (s.epoch as f64 + 0.5).to_bits();
                    assert_eq!(s.pagerank.scores()[0].to_bits(), fill);
                    assert_eq!(s.resilient.scores()[0].to_bits(), fill);
                    loads += 1;
                }
                loads
            })
        })
        .collect();
    for e in 1..=EPOCHS {
        ring.publish(snap(e, &walks));
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(
        total > 1_000,
        "readers must hammer the ring ({total} loads)"
    );
    assert_eq!(
        ring.reader_stalls(),
        0,
        "zero reader stalls under serving-shaped pacing"
    );
    assert_eq!(ring.load().epoch, EPOCHS);
}

#[test]
fn reader_pinned_before_a_lap_survives_the_whole_lap() {
    let walks = Arc::new(tiny_walks("lap"));
    let ring = SnapshotRing::new(snap(0, &walks), 2);
    let pinned = ring.load();
    // Lap the 2-slot ring many times over.
    for e in 1..=50 {
        ring.publish(snap(e, &walks));
    }
    assert_eq!(pinned.epoch, 0);
    let expect = 0.5f64.to_bits();
    for &v in pinned.pagerank.scores() {
        assert_eq!(v.to_bits(), expect);
    }
    assert_eq!(ring.load().epoch, 50);
    assert_eq!(ring.reader_stalls(), 0);
}
