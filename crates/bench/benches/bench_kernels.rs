//! Kernel-level comparison of the fused solver engine against the preserved
//! naive reference on the deterministic [`kernel_crawl`] workload.
//!
//! Four measurements: one propagate (`y = xP`) and one full power solve,
//! each for the reference and the fused engine. For a tracked
//! machine-readable baseline (edges/sec, speedups, `BENCH_kernels.json`)
//! run the companion binary instead:
//! `cargo run --release -p sr-bench --bin bench_kernels`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sr_bench::kernel_crawl;
use sr_core::operator::reference::NaiveUniformTransition;
use sr_core::operator::{Transition, UniformTransition};
use sr_core::power::reference::power_method_unfused;
use sr_core::power::{power_method, PowerConfig};
use sr_core::SolverWorkspace;

fn bench_propagate(c: &mut Criterion) {
    let crawl = kernel_crawl();
    let n = crawl.pages.num_nodes();
    let x = vec![1.0 / n as f64; n];
    let mut y = vec![0.0; n];
    let mut scratch = vec![0.0; n];

    let mut group = c.benchmark_group("kernels/propagate");
    let naive = NaiveUniformTransition::new(&crawl.pages);
    group.bench_function("reference", |b| {
        b.iter(|| black_box(naive.propagate_with(&x, &mut y, &mut scratch)))
    });
    let fused = UniformTransition::new(&crawl.pages);
    group.bench_function("fused", |b| {
        b.iter(|| black_box(fused.propagate_with(&x, &mut y, &mut scratch)))
    });
    group.finish();
}

fn bench_power_solve(c: &mut Criterion) {
    let crawl = kernel_crawl();
    let config = PowerConfig::default();

    let mut group = c.benchmark_group("kernels/power_solve");
    group.sample_size(10);
    let naive = NaiveUniformTransition::new(&crawl.pages);
    group.bench_function("reference", |b| {
        b.iter(|| black_box(power_method_unfused(&naive, &config).1.iterations))
    });
    let fused = UniformTransition::new(&crawl.pages);
    let mut ws = SolverWorkspace::new();
    group.bench_function("fused", |b| {
        b.iter(|| black_box(power_method(&fused, &config, &mut ws, None).iterations))
    });
    group.finish();
}

criterion_group!(benches, bench_propagate, bench_power_solve);
criterion_main!(benches);
