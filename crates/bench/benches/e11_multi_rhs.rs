//! E11 — blocked multi-RHS solves: time-per-RHS of the chain's
//! `SolverChain::solve_block` as a function of the block width k, on the
//! Spielman–Srivastava effective-resistance workload (many
//! random-projection right-hand sides against one prebuilt chain).
//!
//! Blocking amortises every chain level's matrix stream — CSR adjacency,
//! elimination trace, dense bottom factor — over the block, so per-RHS
//! time should drop monotonically with k even at one thread. The committed
//! acceptance point (k = 16 at most half the k = 1 per-RHS time on the
//! 120×120 grid) is recorded by the `baseline` binary; this bench sweeps
//! the same shape at a criterion-friendly size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use parsdd_bench::{fmt, report_header, report_row};
use parsdd_linalg::MultiVector;
use parsdd_solver::chain::{build_chain, ChainOptions, SolveOutcome, SolverChain};
use parsdd_solver::sparsify::counter_coin;

const TOL: f64 = 1e-8;
/// Outer-iteration budget of a chain solve (`SddSolverOptions`' default).
const MAX_ITERS: usize = 200;

/// One block of right-hand sides through the chain.
fn solve_block(chain: &SolverChain, rhs: &[Vec<f64>]) -> Vec<SolveOutcome> {
    chain.solve_block(&MultiVector::from_columns(rhs), TOL, MAX_ITERS)
}
const NUM_RHS: usize = 16;

/// The Spielman–Srivastava projection right-hand sides `Bᵀ W^{1/2} q_p`
/// with counter-based ±1 coins (the resistance estimator's batch shape).
fn projection_rhs(g: &parsdd_graph::Graph, num: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..num)
        .map(|p| {
            let mut y = vec![0.0f64; g.n()];
            for (id, e) in g.edges().iter().enumerate() {
                let coin = counter_coin(
                    seed ^ (p as u64).wrapping_mul(0xd1b5_4a32_d192_ed03),
                    id as u64,
                );
                let s = if coin < 0.5 { 1.0 } else { -1.0 };
                let w = e.w.sqrt() * s;
                y[e.u as usize] += w;
                y[e.v as usize] -= w;
            }
            y
        })
        .collect()
}

fn quality_table() {
    report_header(
        "E11: time-per-RHS vs block width (grid, SS projection rhs, eps = 1e-8)",
        &["side", "n", "k", "total (ms)", "per-rhs (ms)", "vs k=1"],
    );
    for side in [48usize, 72] {
        let g = parsdd_graph::generators::grid2d(side, side, |_, _| 1.0);
        let chain = build_chain(&g, &ChainOptions::default());
        let rhs = projection_rhs(&g, NUM_RHS, 0xe11);
        let mut per_rhs_k1 = f64::NAN;
        for k in [1usize, 4, 16] {
            let t0 = Instant::now();
            for chunk in rhs.chunks(k) {
                black_box(solve_block(&chain, chunk));
            }
            let ms = t0.elapsed().as_secs_f64() * 1000.0;
            let per = ms / NUM_RHS as f64;
            if k == 1 {
                per_rhs_k1 = per;
            }
            report_row(&[
                side.to_string(),
                g.n().to_string(),
                k.to_string(),
                fmt(ms),
                fmt(per),
                format!("{:.2}x", per_rhs_k1 / per),
            ]);
        }
    }
}

fn bench(c: &mut Criterion) {
    quality_table();
    let g = parsdd_graph::generators::grid2d(48, 48, |_, _| 1.0);
    let chain = build_chain(&g, &ChainOptions::default());
    let rhs = projection_rhs(&g, NUM_RHS, 0xe11);
    let mut group = c.benchmark_group("e11_multi_rhs");
    group.sample_size(10);
    for k in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::new("solve_many_grid48", k), &k, |bch, &k| {
            bch.iter(|| {
                let mut converged = 0usize;
                for chunk in rhs.chunks(k) {
                    converged += solve_block(&chain, chunk)
                        .iter()
                        .filter(|o| o.converged)
                        .count();
                }
                black_box(converged)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
