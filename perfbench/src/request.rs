//! One request through the public front door, and the correctness gate
//! every request passes.
//!
//! A request builds the solver for one generated graph with default
//! options (`SddSolver::try_new_laplacian`, f64, tolerance 1e-8) and
//! solves its right-hand sides (`try_solve` for one, `try_solve_many` for
//! several). The gate then recomputes each column's residual on the
//! generated graph and compares the answer with the input's independent
//! reference, outside the timed region.

use parsdd_linalg::laplacian::{laplacian_quadratic_form, LaplacianOp};
use parsdd_linalg::operator::LinearOperator;
use parsdd_solver::{SddSolver, SddSolverOptions, SolveOutcome};

use crate::trace::Tracer;
use crate::workload::{project_out_constant, Input};

/// Relative residual every column must reach, recomputed by the benchmark.
pub const RESIDUAL_BOUND: f64 = 1e-8;

/// Bound on the relative A-norm error `‖x − x_ref‖_A / ‖x_ref‖_A`. A
/// relative residual of 1e-8 allows an A-norm error up to
/// `1e-8·√κ(A)`; 1e-5 admits `κ` up to 1e6, above every workload here,
/// while a wrong answer (a stale column, a mis-permuted solution) is off
/// by order one.
pub const ANORM_BOUND: f64 = 1e-5;

/// Timings and counts of one request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// `try_new_laplacian` wall time.
    pub setup_s: f64,
    /// Wall time of the one `try_solve` / `try_solve_many` call.
    pub solve_s: f64,
    /// Build + solve wall time.
    pub total_s: f64,
    /// Right-hand sides solved.
    pub k: usize,
    /// Outer iterations per column.
    pub iterations: Vec<usize>,
    /// Recovery-ladder rungs taken, summed over columns.
    pub recovery_rungs: usize,
    /// Largest recomputed relative residual over the columns.
    pub max_residual: f64,
    /// Largest relative A-norm error over the columns.
    pub max_anorm_error: f64,
    /// Why the request failed, if it did.
    pub failure: Option<String>,
}

/// Runs one request on `input`, recording spans under `request`.
pub fn run(input: &Input, tracer: &mut Tracer, request: u32) -> Outcome {
    let k = input.rhs.len();
    let root = tracer.begin("request", None, request);
    let parent = root.id();
    let (built, setup_s) = tracer.time("sdd.try_new_laplacian", parent, request, || {
        SddSolver::try_new_laplacian(&input.graph, SddSolverOptions::default())
    });
    let mut outcome = Outcome {
        setup_s,
        solve_s: 0.0,
        total_s: 0.0,
        k,
        iterations: Vec::new(),
        recovery_rungs: 0,
        max_residual: f64::NAN,
        max_anorm_error: f64::NAN,
        failure: None,
    };
    let solver = match built {
        Ok(solver) => solver,
        Err(e) => {
            outcome.total_s = tracer.end(root);
            outcome.failure = Some(format!("try_new_laplacian: {e}"));
            return outcome;
        }
    };
    let (solved, solve_s) = if k == 1 {
        tracer.time("sdd.try_solve", parent, request, || {
            solver.try_solve(&input.rhs[0]).map(|o| vec![o])
        })
    } else {
        tracer.time("sdd.try_solve_many", parent, request, || {
            solver.try_solve_many(&input.rhs)
        })
    };
    outcome.total_s = tracer.end(root);
    outcome.solve_s = solve_s;
    drop(solver);
    match solved {
        Ok(columns) => {
            outcome.iterations = columns.iter().map(|c| c.iterations).collect();
            outcome.recovery_rungs = columns.iter().map(|c| c.recovery.len()).sum();
            check(input, &columns, &mut outcome);
        }
        Err(e) => outcome.failure = Some(format!("solve: {e}")),
    }
    outcome
}

/// The correctness gate: convergence flag, recomputed residual on the
/// generated graph, and A-norm error against the reference.
fn check(input: &Input, columns: &[SolveOutcome], outcome: &mut Outcome) {
    if columns.len() != input.rhs.len() {
        outcome.failure = Some(format!(
            "{} columns returned for {} right-hand sides",
            columns.len(),
            input.rhs.len()
        ));
        return;
    }
    let op = LaplacianOp::new(&input.graph);
    let mut ax = vec![0.0; input.graph.n()];
    outcome.max_residual = 0.0;
    outcome.max_anorm_error = 0.0;
    for (j, ((col, b), reference)) in columns
        .iter()
        .zip(&input.rhs)
        .zip(&input.reference)
        .enumerate()
    {
        if col.x.len() != b.len() || col.x.iter().any(|v| !v.is_finite()) {
            outcome.failure = Some(format!("column {j}: malformed solution"));
            return;
        }
        op.apply(&col.x, &mut ax);
        let residual = norm(b.iter().zip(&ax).map(|(bi, ai)| bi - ai)) / norm(b.iter().copied());
        let mut x = col.x.clone();
        project_out_constant(&mut x, &input.labels, input.components);
        let error: Vec<f64> = x.iter().zip(reference).map(|(a, r)| a - r).collect();
        let anorm = (laplacian_quadratic_form(&input.graph, &error)
            / laplacian_quadratic_form(&input.graph, reference))
        .sqrt();
        outcome.max_residual = outcome.max_residual.max(residual);
        outcome.max_anorm_error = outcome.max_anorm_error.max(anorm);
        let failure = if !col.converged {
            Some(format!("column {j} did not converge"))
        } else if residual.is_nan() || residual > RESIDUAL_BOUND {
            Some(format!(
                "column {j}: recomputed residual {residual:e} > {RESIDUAL_BOUND:e}"
            ))
        } else if anorm.is_nan() || anorm > ANORM_BOUND {
            Some(format!(
                "column {j}: A-norm error {anorm:e} > {ANORM_BOUND:e}"
            ))
        } else {
            None
        };
        if failure.is_some() {
            outcome.failure = failure;
            return;
        }
    }
}

fn norm(values: impl Iterator<Item = f64>) -> f64 {
    values.map(|v| v * v).sum::<f64>().sqrt()
}
