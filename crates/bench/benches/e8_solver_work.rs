//! E8 — Theorem 1.1 (work): the chain solver's time grows near-linearly in
//! m and beats the CG baselines on ill-conditioned inputs, at fixed
//! accuracy ε = 1e-8.
//!
//! Reports, for each workload: chain-build time, solve time, outer
//! iterations, and the same for plain CG / Jacobi-PCG / MST-preconditioned
//! CG and for the Jacobi-first front door (`SddSolver`, build + solve,
//! which builds the chain only if a column escalates), plus a
//! size-scaling series on grids. The chain columns measure
//! `build_chain` + `SolverChain::solve` directly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use parsdd_bench::{fmt, report_header, report_row, workloads};
use parsdd_solver::baseline;
use parsdd_solver::chain::{build_chain, ChainOptions};
use parsdd_solver::sdd_solve::{SddSolver, SddSolverOptions};

const TOL: f64 = 1e-8;
/// Outer-iteration budget of a chain solve (`SddSolverOptions`' default).
const MAX_ITERS: usize = 200;

fn quality_table() {
    report_header(
        "E8: solver vs baselines at eps = 1e-8 (Theorem 1.1, work)",
        &[
            "graph",
            "n",
            "m",
            "chain build (ms)",
            "chain solve (ms)",
            "chain iters",
            "CG (ms/iters)",
            "Jacobi-PCG (ms/iters)",
            "Tree-PCG (ms/iters)",
            "front door (ms/iters)",
        ],
    );
    for wl in workloads::small_suite() {
        let g = &wl.graph;
        let b = workloads::rhs(g.n(), 3);
        let t0 = Instant::now();
        let chain = build_chain(g, &ChainOptions::default());
        let build_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let t1 = Instant::now();
        let out = chain.solve(&b, TOL, MAX_ITERS);
        let solve_ms = t1.elapsed().as_secs_f64() * 1000.0;

        let t2 = Instant::now();
        let cg = baseline::solve_cg(g, &b, TOL, 20_000);
        let cg_ms = t2.elapsed().as_secs_f64() * 1000.0;
        let t3 = Instant::now();
        let jac = baseline::solve_jacobi_pcg(g, &b, TOL, 20_000);
        let jac_ms = t3.elapsed().as_secs_f64() * 1000.0;
        let t4 = Instant::now();
        let tree = baseline::solve_tree_pcg(g, &b, TOL, 20_000);
        let tree_ms = t4.elapsed().as_secs_f64() * 1000.0;
        let t5 = Instant::now();
        let front =
            SddSolver::new_laplacian(g, SddSolverOptions::default().with_tolerance(TOL)).solve(&b);
        let front_ms = t5.elapsed().as_secs_f64() * 1000.0;

        report_row(&[
            wl.name.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            fmt(build_ms),
            fmt(solve_ms),
            format!("{} (conv={})", out.iterations, out.converged),
            format!("{}/{}", fmt(cg_ms), cg.iterations),
            format!("{}/{}", fmt(jac_ms), jac.iterations),
            format!("{}/{}", fmt(tree_ms), tree.iterations),
            format!("{}/{}", fmt(front_ms), front.iterations),
        ]);
    }

    report_header(
        "E8b: solve-time scaling with size (grids; expect ~linear in m)",
        &[
            "n",
            "m",
            "build (ms)",
            "solve (ms)",
            "solve time / m (us)",
            "chain levels",
        ],
    );
    for (n, g) in workloads::grid_scaling_suite() {
        let b = workloads::rhs(g.n(), 5);
        let t0 = Instant::now();
        let chain = build_chain(&g, &ChainOptions::default());
        let build_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let t1 = Instant::now();
        let out = chain.solve(&b, TOL, MAX_ITERS);
        let solve_ms = t1.elapsed().as_secs_f64() * 1000.0;
        report_row(&[
            n.to_string(),
            g.m().to_string(),
            fmt(build_ms),
            fmt(solve_ms),
            fmt(solve_ms * 1000.0 / g.m() as f64),
            format!("{} (conv={})", chain.depth(), out.converged),
        ]);
    }
}

fn bench(c: &mut Criterion) {
    quality_table();
    let mut group = c.benchmark_group("e8_solve");
    group.sample_size(10);
    for (n, g) in workloads::grid_scaling_suite() {
        let b = workloads::rhs(g.n(), 5);
        let chain = build_chain(&g, &ChainOptions::default());
        group.bench_with_input(BenchmarkId::new("chain_solve_grid", n), &b, |bch, b| {
            bch.iter(|| black_box(chain.solve(b, TOL, MAX_ITERS).iterations))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
