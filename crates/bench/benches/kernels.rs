//! Bench: the functional Rust re-implementations of the Rodinia /
//! CUDA-SDK kernels themselves — one Criterion benchmark per workload's
//! hot loop, at the small presets (real computation, wall-clock timed).
//!
//! Workloads generate their inputs on first execute, so the per-iteration
//! groups run iteration 0 in the untimed setup and time iteration 1: they
//! time kernels, not input generation. `full_run_small` times a fresh
//! instance's whole run, generation included, as a real functional run
//! pays it.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use greengpu_bench::BENCH_SEED;
use greengpu_workloads::{registry, Workload};

/// A small-preset workload whose inputs are already generated: iteration
/// 0 has run at `cpu_share`.
fn warmed(name: &str, cpu_share: f64) -> Box<dyn Workload> {
    let mut wl = registry::by_name_small(name, BENCH_SEED).expect("registered");
    wl.execute(0, cpu_share);
    wl
}

fn bench_workload_iterations(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels/iteration");
    g.warm_up_time(std::time::Duration::from_secs(1));
    g.measurement_time(std::time::Duration::from_secs(2));
    for name in registry::TABLE2_NAMES {
        // Per-iteration functional cost varies by orders of magnitude
        // across workloads; normalize reporting per element where sensible.
        g.throughput(Throughput::Elements(1));
        g.bench_function(name, |b| {
            b.iter_batched(
                || warmed(name, 0.0),
                |mut wl| {
                    wl.execute(1, 0.0);
                    wl.digest()
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_divided_iterations(c: &mut Criterion) {
    // The split/merge path the division tier exercises: same work, half on
    // each "side".
    let mut g = c.benchmark_group("kernels/iteration_divided_50_50");
    g.warm_up_time(std::time::Duration::from_secs(1));
    g.measurement_time(std::time::Duration::from_secs(2));
    for name in ["kmeans", "hotspot", "nbody", "streamcluster", "srad_v2", "QG"] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || warmed(name, 0.5),
                |mut wl| {
                    wl.execute(1, 0.5);
                    wl.digest()
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_full_small_runs(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels/full_run_small");
    g.warm_up_time(std::time::Duration::from_secs(1));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.sample_size(10);
    for name in ["kmeans", "bfs", "lud"] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || registry::by_name_small(name, BENCH_SEED).expect("registered"),
                |mut wl| {
                    for i in 0..wl.iterations() {
                        wl.execute(i, 0.0);
                    }
                    wl.digest()
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_workload_iterations,
    bench_divided_iterations,
    bench_full_small_runs
);
criterion_main!(benches);
