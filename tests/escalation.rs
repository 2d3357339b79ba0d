//! The Jacobi-first front door's escalation path (DESIGN.md §2.9): a
//! column whose Jacobi-PCG phase uses up its budget is solved again on
//! the full chain, converges by a residual this suite recomputes on the input
//! graph, and keeps the batched ≡ looped and pool-width contracts.
//!
//! CI reruns this suite under `PARSDD_PRECISION=f32`, so the f32 chain is
//! still driven through the front door.

use parsdd_bench::workloads::{escalating_barbell, rhs};
use parsdd_graph::parutil::with_threads;
use parsdd_graph::{generators, Graph};
use parsdd_linalg::laplacian::LaplacianOp;
use parsdd_linalg::operator::LinearOperator;
use parsdd_linalg::vector::{norm2, project_out_constant};
use parsdd_solver::baseline::solve_jacobi_pcg;
use parsdd_solver::chain::{build_front_chain, ChainOptions};
use parsdd_solver::{SddSolver, SddSolverOptions, SolveOutcome};

const TOLERANCE: f64 = 1e-8;

/// A long thin grid (500 × 2) with conductances over four decades:
/// Jacobi-PCG needs about 5 400 iterations, its budget is 2 000.
fn weighted_ladder() -> Graph {
    generators::with_power_law_weights(&generators::grid2d(500, 2, |_, _| 1.0), 4, 1)
}

/// Iterations of the front door's Jacobi-PCG round on `g`.
fn jacobi_budget(g: &Graph) -> usize {
    build_front_chain(g, &ChainOptions::default()).jacobi_budget()
}

/// `‖b − L x‖ / ‖b‖` on the input graph itself, not through the solver.
fn recomputed_residual(g: &Graph, x: &[f64], b: &[f64]) -> f64 {
    norm2(&LaplacianOp::new(g).residual(x, b)) / norm2(b)
}

fn assert_bitwise(a: &[SolveOutcome], b: &[SolveOutcome], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: column count");
    for (j, (u, v)) in a.iter().zip(b).enumerate() {
        assert_eq!(u.iterations, v.iterations, "{what}: column {j} iterations");
        assert_eq!(u.converged, v.converged, "{what}: column {j} converged");
        assert_eq!(
            u.relative_residual.to_bits(),
            v.relative_residual.to_bits(),
            "{what}: column {j} residual"
        );
        assert!(
            u.x.iter()
                .zip(&v.x)
                .all(|(p, q)| p.to_bits() == q.to_bits()),
            "{what}: column {j} solution"
        );
    }
}

#[test]
fn escalated_columns_converge_by_an_independent_residual() {
    for (name, g) in [
        ("ladder", weighted_ladder()),
        ("barbell", escalating_barbell()),
    ] {
        let b = rhs(g.n(), 3);
        let budget = jacobi_budget(&g);
        assert!(
            !solve_jacobi_pcg(&g, &b, TOLERANCE, budget).converged,
            "{name}: Jacobi-PCG converges within its budget; nothing escalates"
        );
        let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default());
        let out = solver.solve(&b);
        let rel = recomputed_residual(&g, &out.x, &b);
        eprintln!(
            "[escalation {name}] budget={budget} it={} reported={:.3e} recomputed={rel:.3e} · {}",
            out.iterations,
            out.relative_residual,
            solver.chain().quality().summary()
        );
        assert!(
            out.iterations > budget,
            "{name}: the column did not escalate"
        );
        assert!(
            out.converged && rel <= TOLERANCE,
            "{name}: reported {:.3e}, recomputed {rel:.3e}",
            out.relative_residual
        );
        // The fallible front door takes the same path and needs no ladder.
        let tried = solver.try_solve(&b).expect("escalation converges");
        assert!(tried.recovery.is_empty(), "{name}: {:?}", tried.recovery);
        assert_bitwise(&[out], &[tried], name);
    }
}

/// A block mixing escalating columns, a column Jacobi-PCG finishes (a
/// high-frequency right-hand side) and a zero column is bitwise identical
/// to solving each column alone, through both front doors and at pool
/// widths 1, 2 and 4.
#[test]
fn mixed_block_is_bitwise_looped_and_width_independent() {
    let g = escalating_barbell();
    let n = g.n();
    let budget = jacobi_budget(&g);
    let mut alternating: Vec<f64> = (0..n)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    project_out_constant(&mut alternating);
    let high_frequency = LaplacianOp::new(&g).apply_vec(&alternating);
    let bs = vec![rhs(n, 3), high_frequency, vec![0.0; n], rhs(n, 4)];

    let solve = |threads: usize| {
        with_threads(threads, || {
            let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default());
            let batched = solver.solve_many(&bs);
            let looped: Vec<SolveOutcome> = bs.iter().map(|b| solver.solve(b)).collect();
            let tried = solver.try_solve_many(&bs).expect("every column converges");
            (batched, looped, tried)
        })
    };
    let (base, looped, tried) = solve(1);
    let escalated: Vec<bool> = base.iter().map(|o| o.iterations > budget).collect();
    assert_eq!(escalated, [true, false, false, true], "escalation pattern");
    assert_eq!(base[2].iterations, 0, "zero column");
    for (j, (o, b)) in base.iter().zip(&bs).enumerate() {
        let rel = if j == 2 {
            0.0
        } else {
            recomputed_residual(&g, &o.x, b)
        };
        assert!(
            o.converged && rel <= TOLERANCE,
            "column {j}: reported {:.3e}, recomputed {rel:.3e}",
            o.relative_residual
        );
    }
    assert_bitwise(&base, &looped, "batched vs looped");
    assert_bitwise(&base, &tried, "solve_many vs try_solve_many");
    for threads in [2usize, 4] {
        let (batched, looped, _) = solve(threads);
        assert_bitwise(&base, &batched, &format!("batched at width {threads}"));
        assert_bitwise(&base, &looped, &format!("looped at width {threads}"));
    }
}
