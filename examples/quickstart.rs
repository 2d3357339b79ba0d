//! Quickstart: build a grid Laplacian, construct the solver, solve a
//! couple of right-hand sides, then inspect the preconditioner chain.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use parsdd::prelude::*;
use parsdd_linalg::laplacian::LaplacianOp;
use parsdd_linalg::operator::LinearOperator;
use parsdd_linalg::vector::{norm2, project_out_constant};

fn main() {
    // A 120 x 120 grid — the discrete Poisson problem that motivates SDD
    // solvers in vision/graphics applications. (Scaling behaviour is
    // measured by the E8/E9 benches.)
    let rows = 120;
    let cols = 120;
    println!("Building a {rows}x{cols} grid Laplacian ...");
    let graph = parsdd::graph::generators::grid2d(rows, cols, |_, _| 1.0);
    println!("  n = {} vertices, m = {} edges", graph.n(), graph.m());

    // Construct the solver (Theorem 1.1). Its front door runs Jacobi-PCG
    // first, so construction only orders the graph; the preconditioner
    // chain is built on first need — a column whose Jacobi-PCG round
    // runs out of budget, or a call to `solver.chain()`.
    let t0 = std::time::Instant::now();
    let options = SddSolverOptions::default().with_tolerance(1e-8);
    let solver = SddSolver::new_laplacian(&graph, options);
    println!("Constructed the solver in {:.2?}", t0.elapsed());

    // Solve a few right-hand sides.
    let rhs = [
        ("dipole (corner source/sink)", {
            let mut b = vec![0.0; graph.n()];
            b[0] = 1.0;
            b[graph.n() - 1] = -1.0;
            b
        }),
        ("smooth charge distribution", {
            let mut b: Vec<f64> = (0..graph.n())
                .map(|i| ((i / cols) as f64 * 0.21).sin() * ((i % cols) as f64 * 0.13).cos())
                .collect();
            project_out_constant(&mut b);
            b
        }),
    ];
    let op = LaplacianOp::new(&graph);
    for (name, b) in &rhs {
        let t1 = std::time::Instant::now();
        let out = solver.solve(b);
        let res = op.residual(&out.x, b);
        println!(
            "Solved '{name}' in {:.2?}: {} iterations, relative residual {:.2e} (true {:.2e})",
            t1.elapsed(),
            out.iterations,
            out.relative_residual,
            norm2(&res) / norm2(b),
        );
    }

    // The preconditioner chain itself, built here on demand, and one
    // solve on it directly.
    let t2 = std::time::Instant::now();
    let chain = solver.chain();
    println!(
        "Built a {}-level preconditioner chain in {:.2?}",
        chain.depth(),
        t2.elapsed()
    );
    let stats = solver.stats();
    println!("  level sizes (vertices): {:?}", stats.level_vertices);
    println!("  level sizes (edges):    {:?}", stats.level_edges);
    println!(
        "  direct bottom solve:    {} (envelope nnz {})",
        stats.direct_bottom, stats.bottom_envelope_nnz
    );
    let (name, b) = &rhs[1];
    let t3 = std::time::Instant::now();
    let out = chain.solve(b, options.tolerance, options.max_iterations);
    let res = op.residual(&out.x, b);
    println!(
        "Chain-solved '{name}' in {:.2?}: {} outer iterations, relative residual {:.2e} (true {:.2e})",
        t3.elapsed(),
        out.iterations,
        out.relative_residual,
        norm2(&res) / norm2(b),
    );
}
