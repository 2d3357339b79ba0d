//! E9 — Theorem 1.1 (depth / parallelism) and Section 6.3: parallel
//! speedup of the solver with thread count, chain shape (level sizes,
//! m^{1/3} termination), and the recursion width ∏√κ_i.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use parsdd_bench::{fmt, report_header, report_row, workloads};
use parsdd_solver::chain::{build_chain, ChainOptions};

/// Outer-iteration budget of a chain solve (`SddSolverOptions`' default).
const MAX_ITERS: usize = 200;

fn quality_table() {
    // Chain shape (Section 6.3).
    report_header(
        "E9a: chain shape (Definition 6.3 / Section 6.3 termination)",
        &[
            "graph",
            "level vertices",
            "level edges",
            "kappas",
            "recursion width",
            "dense bottom",
            "m^(1/3)",
        ],
    );
    for wl in workloads::small_suite() {
        let stats = build_chain(&wl.graph, &ChainOptions::default()).stats();
        report_row(&[
            wl.name.to_string(),
            format!("{:?}", stats.level_vertices),
            format!("{:?}", stats.level_edges),
            format!(
                "{:?}",
                stats.kappas.iter().map(|k| k.round()).collect::<Vec<_>>()
            ),
            fmt(stats.recursion_leaves),
            stats.direct_bottom.to_string(),
            fmt((wl.graph.m() as f64).powf(1.0 / 3.0)),
        ]);
    }

    // Thread scaling.
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    report_header(
        &format!(
            "E9b: solve-time speedup with threads (fixed 96x96 grid; {cpus} hardware threads)"
        ),
        &["threads", "build (ms)", "solve (ms)", "speedup vs 1 thread"],
    );
    let g = parsdd_graph::generators::grid2d(96, 96, |_, _| 1.0);
    let b = workloads::rhs(g.n(), 7);
    let mut base = None;
    for threads in [1usize, 2, 4, 8, 16] {
        // One pool per width, reused for build and solve; pool
        // construction (OS thread spawning) stays outside the timing.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let (build_ms, solve_ms) = pool.install(|| {
            let t0 = Instant::now();
            let chain = build_chain(&g, &ChainOptions::default());
            let build = t0.elapsed().as_secs_f64() * 1000.0;
            let t1 = Instant::now();
            let out = chain.solve(&b, 1e-8, MAX_ITERS);
            assert!(out.relative_residual <= 1e-6);
            (build, t1.elapsed().as_secs_f64() * 1000.0)
        });
        if base.is_none() {
            base = Some(solve_ms);
        }
        report_row(&[
            threads.to_string(),
            fmt(build_ms),
            fmt(solve_ms),
            fmt(base.unwrap() / solve_ms),
        ]);
    }
}

fn bench(c: &mut Criterion) {
    quality_table();
    let mut group = c.benchmark_group("e9_threads");
    group.sample_size(10);
    let g = parsdd_graph::generators::grid2d(96, 96, |_, _| 1.0);
    let b = workloads::rhs(g.n(), 7);
    let chain = build_chain(&g, &ChainOptions::default());
    for threads in [1usize, 8] {
        // Build the pool once; `with_threads` inside `bch.iter` would
        // spawn and join 8 OS threads per measured iteration.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        group.bench_with_input(
            BenchmarkId::new("solve", threads),
            &threads,
            |bch, &_threads| {
                bch.iter(|| pool.install(|| black_box(chain.solve(&b, 1e-8, MAX_ITERS).iterations)))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
