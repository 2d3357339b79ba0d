//! Per-layer metrics of the traced run, measured from outside.
//!
//! Every time here comes from a span the benchmark records around a call
//! into a layer's public function. The solver keeps no per-level graphs
//! after its build, so the level graphs are rebuilt from public data: the
//! simplified, RCM-relabelled input, `levels()[i].elimination.reduced_graph`
//! and `bottom_graph()`. Build layers are timed by replaying each level
//! through the same public functions `build_chain` calls, with the same
//! per-level seeds; solve layers are timed per call and scaled by the
//! chain's own recursion counts (`ChainStats`) to one top-level
//! preconditioner application. `METRICS.md` defines every metric.

use std::time::Instant;

use parsdd_graph::reorder::{rcm_order, relabel};
use parsdd_graph::unionfind::UnionFind;
use parsdd_graph::{Edge, EdgeId, Graph};
use parsdd_linalg::envelope::EnvelopeLdl;
use parsdd_linalg::jacobi::JacobiPreconditioner;
use parsdd_linalg::laplacian::LaplacianOp;
use parsdd_linalg::permuted::PermutedLevel;
use parsdd_linalg::power::quadratic_form_ratio_bounds;
use parsdd_linalg::{block_pcg_solve, pcg_solve, CgOptions, MultiVector};
use parsdd_lsst::subgraph::{ls_subgraph, LsSubgraphParams};
use parsdd_solver::baseline::TreePreconditioner;
use parsdd_solver::sparsify::incremental_sparsify_with_target;
use parsdd_solver::{greedy_elimination, ChainOptions, SddSolver, SddSolverOptions, SolverChain};

use crate::report::{median, Metric};
use crate::request::{self, Outcome};
use crate::trace::Tracer;
use crate::workload::{mix, Input, Workload};
use crate::Run;

/// Request ids of the replays (the closed loop numbers its requests from 0).
const BUILD_REPLAY: u32 = 1_000_000;
const SOLVE_REPLAY: u32 = 2_000_000;
const WIDTH_ONE: u32 = 3_000_000;
const BASELINE: u32 = 4_000_000;
const OWN: u32 = 5_000_000;

/// Traced requests on the replayed input: the layer times are set against
/// this input's own setup, solve and iteration count.
const OWN_REQUESTS: u32 = 3;

/// Build replays per run; each build-layer metric is the median over them.
const BUILD_REPS: u32 = 3;

/// Tolerance the solver's iterative bottom runs at (and its replay).
const BOTTOM_TOL: f64 = 1e-8;

/// Tolerance of the baseline solves: the solver's own default.
const BASELINE_TOL: f64 = 1e-8;

/// Iteration cap of the baseline solves.
const BASELINE_MAX_ITERS: usize = 100_000;

/// Builds, replays and times every layer on `input` (the run's warm-up
/// input), and returns the per-layer metrics. `run` is the traced closed
/// loop; the extra requests made here are counted in it.
pub fn run(workload: Workload, input: &Input, run: &mut Run, tracer: &mut Tracer) -> Vec<Metric> {
    let k = input.rhs.len();
    tracer.set_enabled(true);
    let own: Vec<Outcome> = (0..OWN_REQUESTS)
        .map(|r| request::run(input, tracer, OWN + r))
        .filter(|o| {
            run.record(o);
            o.failure.is_none()
        })
        .collect();
    let own_median = |f: fn(&Outcome) -> f64| median(&own.iter().map(f).collect::<Vec<_>>());
    let setup_own = own_median(|o| o.setup_s);
    let total_own = own_median(|o| o.total_s);
    let per_rhs_own = own_median(|o| o.solve_s / o.k as f64);
    let iterations: Vec<f64> = own
        .iter()
        .flat_map(|o| o.iterations.iter().map(|&i| i as f64))
        .collect();
    let outer_iterations = median(&iterations);
    let solver = SddSolver::try_new_laplacian(&input.graph, SddSolverOptions::default())
        .expect("the solver builds on the input the closed loop already solved");
    let chain = solver.chain();
    let stats = solver.stats();
    let options = *chain.options();
    assert!(
        options.auto_kappa && !options.adaptive,
        "the build replay follows the default (auto-κ, non-adaptive) schedule"
    );

    let graphs = level_graphs(&input.graph, chain);
    let mut factor = None;
    for rep in 0..BUILD_REPS {
        factor = replay_build(&graphs, chain, &options, tracer, BUILD_REPLAY + rep);
    }
    let build_sum = |name: &str| {
        let per_rep: Vec<f64> = (0..BUILD_REPS)
            .map(|rep| {
                tracer
                    .durations(name, |r| r == BUILD_REPLAY + rep)
                    .iter()
                    .fold(0.0, |a, b| a + b)
            })
            .collect();
        median(&per_rep)
    };
    let ls_subgraph_s = build_sum("lsst.ls_subgraph");
    let sample_s = build_sum("sparsify.sample");
    let ratio_s = build_sum("power.ratio_bounds");
    let greedy_s = build_sum("elimination.greedy");
    let rcm_s = build_sum("graph.rcm_order");
    let permuted_build_s = build_sum("permuted.build");
    let factor_s = build_sum("envelope.factor");

    let solve = replay_solve(&graphs, chain, factor.as_ref(), k, tracer);
    let depth = chain.depth();
    // Per top-level application: level 0's trace runs once; level i ≥ 1
    // is solved `level_applications[i]` times with `k_i` Chebyshev steps
    // per solve, each one fused sweep plus one trace pass of level i; the
    // bottom is solved `recursion_leaves` times (once with no levels).
    let calls = |i: usize| {
        if i == 0 {
            1.0
        } else {
            chain.levels()[i].inner_iterations as f64 * stats.level_applications[i]
        }
    };
    let trace_app = (0..depth).fold(0.0, |a, i| a + solve.trace[i] * calls(i));
    let spmv_app = (1..depth).fold(0.0, |a, i| a + solve.spmv[i] * calls(i));
    let bottom_calls = if depth == 0 {
        1.0
    } else {
        stats.recursion_leaves
    };
    let bottom_app = solve.bottom * bottom_calls;
    let precondition = solve.precondition;
    let wcycle_other = precondition - (spmv_app + trace_app + bottom_app);

    let (total_traced, n_traced) = run.median(true, |o| o.total_s);
    let (total_untraced, _) = run.median(false, |o| o.total_s);
    let outer_other = per_rhs_own - outer_iterations * precondition / k as f64;
    let recovery_rungs: usize = run.samples.iter().map(|(o, _)| o.recovery_rungs).sum();
    let build_attributed =
        ls_subgraph_s + sample_s + ratio_s + greedy_s + rcm_s + permuted_build_s + factor_s;
    let level_edges: usize = stats.level_edges[..depth].iter().sum();
    let kept_share = if depth == 0 {
        1.0
    } else {
        stats.sparsifier_edges.iter().sum::<usize>() as f64 / level_edges as f64
    };

    let width = rayon::current_num_threads();
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a width-1 pool builds");
    let w1 = single.install(|| request::run(input, tracer, WIDTH_ONE));
    run.record(&w1);
    let (jacobi_s, tree_s) = baselines(input, tracer);

    print_model_table(chain, &stats, &solve, k);
    println!(
        "# add-back, per application: spmv {spmv_app:.4e} + trace {trace_app:.4e} + bottom {bottom_app:.4e} + wcycle_other {wcycle_other:.4e} = chain.precondition_s {precondition:.4e}"
    );
    println!(
        "# add-back, per rhs: {outer_iterations} iterations x {:.4e} + outer_other {outer_other:.4e} = {:.4e} vs traced solve_per_rhs_s {per_rhs_own:.4e}",
        precondition / k as f64,
        outer_iterations * precondition / k as f64 + outer_other
    );
    let attribution_ok = wcycle_other >= -0.1 * precondition && outer_other >= -0.1 * per_rhs_own;
    println!(
        "# add-back check: {}",
        if attribution_ok {
            "holds (no residual term is below -10% of its total)"
        } else {
            "FAILS: the replayed layer times exceed the measured total by more than 10%"
        }
    );
    rationale(
        workload,
        setup_own / total_own,
        [spmv_app + trace_app, bottom_app, wcycle_other.max(0.0)],
        precondition,
    );

    let model_flops = stats.work_per_application * k as f64;
    vec![
        Metric::new(
            "lsst.ls_subgraph_s",
            ls_subgraph_s,
            "s",
            BUILD_REPS as usize,
        ),
        Metric::new("sparsify.sample_s", sample_s, "s", BUILD_REPS as usize),
        Metric::new("sparsify.kept_share", kept_share, "ratio", 1),
        Metric::new("elimination.greedy_s", greedy_s, "s", BUILD_REPS as usize),
        Metric::new("elimination.trace_s", trace_app, "s", solve.samples),
        Metric::new("graph.rcm_order_s", rcm_s, "s", BUILD_REPS as usize),
        Metric::new("power.ratio_bounds_s", ratio_s, "s", BUILD_REPS as usize),
        Metric::new(
            "permuted.build_s",
            permuted_build_s,
            "s",
            BUILD_REPS as usize,
        ),
        Metric::new("permuted.spmv_s", spmv_app, "s", solve.samples),
        Metric::new("envelope.factor_s", factor_s, "s", BUILD_REPS as usize),
        Metric::new("envelope.nnz", stats.bottom_envelope_nnz as f64, "count", 1),
        Metric::new("bottom.solve_s", bottom_app, "s", solve.samples),
        Metric::new("chain.precondition_s", precondition, "s", solve.samples),
        Metric::new("chain.wcycle_other_s", wcycle_other, "s", solve.samples),
        Metric::new(
            "chain.build_unattributed_s",
            setup_own - build_attributed,
            "s",
            own.len(),
        ),
        Metric::new("chain.depth", depth as f64, "count", 1),
        Metric::new("chain.recursion_leaves", stats.recursion_leaves, "count", 1),
        Metric::new(
            "chain.work_per_application",
            stats.work_per_application,
            "flop",
            1,
        ),
        Metric::new(
            "chain.streamed_bytes_per_application",
            stats.streamed_bytes_per_application,
            "B",
            1,
        ),
        Metric::new("chain.resident_bytes", stats.resident_bytes as f64, "B", 1),
        Metric::new(
            "chain.ns_per_model_flop",
            precondition * 1e9 / model_flops,
            "ns/flop",
            solve.samples,
        ),
        Metric::new(
            "sdd_solve.outer_iterations",
            outer_iterations,
            "count",
            iterations.len(),
        ),
        Metric::new("sdd_solve.outer_other_s", outer_other, "s", own.len()),
        Metric::new(
            "sdd_solve.recovery_rungs",
            recovery_rungs as f64,
            "count",
            run.samples.len(),
        ),
        Metric::new("runtime.width", width as f64, "count", 1),
        Metric::new("runtime.total_s_w1", w1.total_s, "s", 1),
        Metric::new(
            "runtime.speedup",
            w1.total_s / total_own,
            "ratio",
            own.len(),
        ),
        Metric::new("ref.jacobi_pcg_s", jacobi_s, "s", 1),
        Metric::new("ref.tree_pcg_s", tree_s, "s", 1),
        Metric::new(
            "ref.chain_over_best",
            total_own / jacobi_s.min(tree_s),
            "ratio",
            own.len(),
        ),
        Metric::new(
            "trace.overhead",
            total_traced / total_untraced,
            "ratio",
            n_traced,
        ),
    ]
}

/// The chain's level graphs `A_0 … A_{d−1}` in the order the chain stores
/// them, rebuilt from public data.
fn level_graphs(input: &Graph, chain: &SolverChain) -> Vec<Graph> {
    let simplified = input.simplify();
    let top = relabel(&simplified, &rcm_order(&simplified));
    std::iter::once(top)
        .chain(
            chain
                .levels()
                .iter()
                .map(|l| l.elimination.reduced_graph.simplify()),
        )
        .take(chain.depth())
        .collect()
}

/// The reciprocal-weight view the low-stretch machinery runs on.
fn length_view(g: &Graph) -> Graph {
    let edges = g
        .edges()
        .iter()
        .map(|e| Edge::new(e.u, e.v, 1.0 / e.w))
        .collect();
    Graph::from_edges_unchecked(g.n(), edges)
}

/// The subgraph's low-stretch forest completed to a spanning forest of the
/// subgraph, as `build_chain` forms it.
fn forest_of(lengths: &Graph, tree_edges: &[EdgeId], sub_edges: &[EdgeId]) -> Vec<EdgeId> {
    let mut uf = UnionFind::new(lengths.n());
    let mut forest = Vec::with_capacity(lengths.n());
    for &e in tree_edges {
        let edge = lengths.edge(e);
        if uf.unite(edge.u, edge.v) {
            forest.push(e);
        }
    }
    let mut rest: Vec<EdgeId> = sub_edges
        .iter()
        .copied()
        .filter(|&e| !uf.same(lengths.edge(e).u, lengths.edge(e).v))
        .collect();
    rest.sort_by(|&a, &b| lengths.edge(a).w.total_cmp(&lengths.edge(b).w));
    for e in rest {
        let edge = lengths.edge(e);
        if uf.unite(edge.u, edge.v) {
            forest.push(e);
        }
    }
    forest
}

/// Replays one build, level by level, recording a span per layer call.
/// Returns the bottom's envelope factor when the chain's bottom is direct.
fn replay_build(
    graphs: &[Graph],
    chain: &SolverChain,
    options: &ChainOptions,
    tracer: &mut Tracer,
    req: u32,
) -> Option<EnvelopeLdl> {
    let root = tracer.begin("replay.build", None, req);
    let p = root.id();
    if let Some(top) = graphs.first() {
        // The top ordering is computed on the simplified input; its cost
        // does not depend on the labels, so the relabelled graph stands in.
        tracer.time("graph.rcm_order", p, req, || rcm_order(top));
    }
    let mut seed = options.seed;
    for current in graphs {
        seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let lengths = length_view(current);
        let params = LsSubgraphParams::practical(options.subgraph_z, options.subgraph_lambda)
            .with_seed(seed);
        let (sub, _) = tracer.time("lsst.ls_subgraph", p, req, || {
            ls_subgraph(&lengths, &params)
        });
        let sub_edges = sub.all_edges();
        let forest = forest_of(&lengths, &sub.subgraph.tree_edges, &sub_edges);
        let off_subgraph = current.m().saturating_sub(sub_edges.len());
        let budget = ((options.extra_fraction * off_subgraph as f64) as usize).max(8);
        let ((sparsifier, _), _) = tracer.time("sparsify.sample", p, req, || {
            incremental_sparsify_with_target(
                current,
                &sub_edges,
                &forest,
                budget,
                options.oversample,
                options.tree_scale,
                seed,
            )
        });
        tracer.time("power.ratio_bounds", p, req, || {
            quadratic_form_ratio_bounds(current, &sparsifier.graph, 12, seed)
        });
        let (elimination, _) = tracer.time("elimination.greedy", p, req, || {
            greedy_elimination(&sparsifier.graph, seed)
        });
        tracer.time("graph.rcm_order", p, req, || {
            rcm_order(&elimination.reduced_graph)
        });
        tracer.time("permuted.build", p, req, || {
            PermutedLevel::from_graph(current)
        });
    }
    let bottom = chain.bottom_graph();
    tracer.time("permuted.build", p, req, || {
        PermutedLevel::from_graph(bottom)
    });
    let factor = chain.stats().direct_bottom.then(|| {
        tracer
            .time("envelope.factor", p, req, || {
                EnvelopeLdl::from_graph(bottom, 1e-10)
            })
            .0
    });
    tracer.end(root);
    factor
}

/// Per-call solve-side times.
struct SolveTimes {
    /// Fused Chebyshev sweep per call, per level (index 0 unused).
    spmv: Vec<f64>,
    /// Forward + back substitution per call, per level.
    trace: Vec<f64>,
    /// One bottom solve.
    bottom: f64,
    /// One top-level preconditioner application.
    precondition: f64,
    /// Fewest repetitions behind any of the medians.
    samples: usize,
}

/// Times `f` repeatedly under span `name` (at least 5 calls and 50 ms, at
/// most 200 calls) and returns the median and the call count.
fn per_call(
    tracer: &mut Tracer,
    name: &'static str,
    parent: Option<usize>,
    mut f: impl FnMut(),
) -> (f64, usize) {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 200 && (times.len() < 5 || start.elapsed().as_secs_f64() < 0.05) {
        times.push(tracer.time(name, parent, SOLVE_REPLAY, &mut f).1);
    }
    (median(&times), times.len())
}

/// A seeded `rows × k` row-major block, mean zero per column.
fn random_block(rows: usize, k: usize, seed: u64) -> Vec<f64> {
    let mut x: Vec<f64> = (0..(rows * k) as u64)
        .map(|i| 2.0 * parsdd_graph::generators::counter_unit(seed, i) - 1.0)
        .collect();
    for j in 0..k {
        let mean = (0..rows).map(|r| x[r * k + j]).sum::<f64>() / rows.max(1) as f64;
        for r in 0..rows {
            x[r * k + j] -= mean;
        }
    }
    x
}

/// Times every solve-side kernel per call, on `k`-wide blocks.
fn replay_solve(
    graphs: &[Graph],
    chain: &SolverChain,
    factor: Option<&EnvelopeLdl>,
    k: usize,
    tracer: &mut Tracer,
) -> SolveTimes {
    let root = tracer.begin("replay.solve", None, SOLVE_REPLAY);
    let p = root.id();
    let mut samples = usize::MAX;
    let mut spmv = vec![0.0; graphs.len()];
    let mut trace = vec![0.0; graphs.len()];
    for (i, level) in chain.levels().iter().enumerate() {
        let elim = &level.elimination;
        let n = elim.orig_to_reduced.len();
        let rr = random_block(n, k, mix(7, i as u64));
        let y = random_block(elim.kept.len(), k, mix(8, i as u64));
        let (mut reduced, mut work, mut row, mut out) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (t, c) = per_call(tracer, "elimination.trace", p, || {
            elim.forward_rhs_rowmajor_into(&rr, k, &mut reduced, &mut work, &mut row);
            elim.back_substitute_rowmajor_into(&work, &y, k, &mut out, &mut row);
            std::hint::black_box((&reduced, &out));
        });
        trace[i] = t;
        samples = samples.min(c);
        if i >= 1 {
            let matrix = PermutedLevel::from_graph(&graphs[i]);
            let pv = random_block(graphs[i].n(), k, mix(9, i as u64));
            let mut x = vec![0.0; pv.len()];
            let mut r = random_block(graphs[i].n(), k, mix(10, i as u64));
            let (t, c) = per_call(tracer, "permuted.spmv", p, || {
                matrix.cheb_fused_sweep(1e-3, &pv, &mut x, &mut r, k);
                std::hint::black_box((&x, &r));
            });
            spmv[i] = t;
            samples = samples.min(c);
        }
    }
    let bottom = chain.bottom_graph();
    let rhs = random_block(bottom.n(), k, mix(11, 0));
    let (t, c) = match factor {
        Some(env) => {
            let mut out = Vec::new();
            per_call(tracer, "bottom.solve", p, || {
                env.solve_rowmajor_into(&rhs, k, &mut out);
                std::hint::black_box(&out);
            })
        }
        None if bottom.m() == 0 => (0.0, usize::MAX),
        None => {
            // The iterative bottom: Jacobi-PCG on the block, as the chain runs it.
            let op = LaplacianOp::new(bottom);
            let jacobi = JacobiPreconditioner::from_laplacian(&op);
            let block = MultiVector::from_rowmajor(&rhs, k);
            let options = CgOptions {
                max_iters: (2 * bottom.n()).clamp(100, 4000),
                tol: BOTTOM_TOL,
            };
            per_call(tracer, "bottom.solve", p, || {
                std::hint::black_box(block_pcg_solve(&op, &jacobi, &block, &options));
            })
        }
    };
    samples = samples.min(c);
    let top_n = graphs.first().map_or(bottom.n(), Graph::n);
    let rr = random_block(top_n, k, mix(12, 0));
    let mut out = Vec::new();
    let (precondition, c) = per_call(tracer, "chain.precondition", p, || {
        chain.precondition_block_rm(&rr, k, &mut out);
        std::hint::black_box(&out);
    });
    samples = samples.min(c);
    tracer.end(root);
    SolveTimes {
        spmv,
        trace,
        bottom: t,
        precondition,
        samples,
    }
}

/// Times the two baselines from operator set-up to all right-hand sides
/// solved at the solver's tolerance.
fn baselines(input: &Input, tracer: &mut Tracer) -> (f64, f64) {
    let options = CgOptions {
        max_iters: BASELINE_MAX_ITERS,
        tol: BASELINE_TOL,
    };
    let (jacobi_ok, jacobi_s) = tracer.time("ref.jacobi_pcg", None, BASELINE, || {
        let op = LaplacianOp::new(&input.graph);
        let pre = JacobiPreconditioner::from_laplacian(&op);
        input
            .rhs
            .iter()
            .all(|b| pcg_solve(&op, &pre, b, &options).converged)
    });
    let (tree_ok, tree_s) = tracer.time("ref.tree_pcg", None, BASELINE, || {
        let op = LaplacianOp::new(&input.graph);
        let pre = TreePreconditioner::new(&input.graph);
        input
            .rhs
            .iter()
            .all(|b| pcg_solve(&op, &pre, b, &options).converged)
    });
    if !(jacobi_ok && tree_ok) {
        eprintln!("warning: a baseline did not reach {BASELINE_TOL:e} (jacobi {jacobi_ok}, tree {tree_ok})");
    }
    (jacobi_s, tree_s)
}

/// Prints, per level, the measured per-call times next to the chain's work
/// model (`ChainStats::level_work`, flops per top-level application of one
/// column).
fn print_model_table(
    chain: &SolverChain,
    stats: &parsdd_solver::ChainStats,
    solve: &SolveTimes,
    k: usize,
) {
    println!("# model vs measured (k = {k} columns per call)");
    println!(
        "# {:>6} {:>8} {:>8} {:>4} {:>8} {:>12} {:>11} {:>11} {:>11} {:>9}",
        "level",
        "n",
        "m",
        "k_i",
        "solves",
        "model_flop",
        "spmv/call",
        "trace/call",
        "bottom/call",
        "ns/flop"
    );
    let depth = chain.depth();
    for (i, level) in chain.levels().iter().enumerate() {
        let calls = if i == 0 {
            1.0
        } else {
            level.inner_iterations as f64 * stats.level_applications[i]
        };
        let measured = (solve.spmv[i] + solve.trace[i]) * calls;
        println!(
            "# {:>6} {:>8} {:>8} {:>4} {:>8} {:>12.4e} {:>11.4e} {:>11.4e} {:>11} {:>9.3}",
            i,
            level.n(),
            level.m(),
            level.inner_iterations,
            stats.level_applications[i],
            stats.level_work[i],
            solve.spmv[i],
            solve.trace[i],
            "-",
            measured * 1e9 / (stats.level_work[i] * k as f64),
        );
    }
    let leaves = if depth == 0 {
        1.0
    } else {
        stats.recursion_leaves
    };
    println!(
        "# {:>6} {:>8} {:>8} {:>4} {:>8} {:>12.4e} {:>11} {:>11} {:>11.4e} {:>9.3}",
        "bottom",
        stats.level_vertices[depth],
        stats.level_edges[depth],
        "-",
        leaves,
        stats.level_work[depth],
        "-",
        "-",
        solve.bottom,
        solve.bottom * leaves * 1e9 / (stats.level_work[depth] * k as f64),
    );
}

/// Checks the workload's stated reason for being in the benchmark against
/// the trace: `shares` are (sweeps + traces, bottom, W-cycle other) per
/// application, `setup_share` is setup over total.
fn rationale(workload: Workload, setup_share: f64, shares: [f64; 3], precondition: f64) {
    let [sweep_trace, bottom, other] = shares.map(|s| s / precondition);
    let (claim, holds) = match workload {
        Workload::GridDeep => (
            "sweeps plus traces are the largest share of chain.precondition_s",
            sweep_trace > bottom && sweep_trace > other,
        ),
        Workload::RmatReweight => (
            "setup is >= 30% of total_s and the bottom is the largest share of an application",
            setup_share >= 0.30 && bottom > sweep_trace && bottom > other,
        ),
        Workload::SmallworldBatch => (
            "the bottom is the largest share of an application",
            bottom > sweep_trace && bottom > other,
        ),
    };
    println!(
        "# rationale ({}): {claim}: {} [sweeps+traces {:.0}%, bottom {:.0}%, other {:.0}% of an application; setup {:.0}% of total]",
        workload.name(),
        if holds { "holds" } else { "DOES NOT HOLD" },
        100.0 * sweep_trace,
        100.0 * bottom,
        100.0 * other,
        100.0 * setup_share
    );
}
