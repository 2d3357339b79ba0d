//! Workload-zoo conformance harness: the solver must hold up beyond the
//! grid (DESIGN.md §2.4).
//!
//! Every family × tier in `parsdd_bench::zoo` is pinned to a quality
//! envelope, and every case's chain must converge to the 1e-8 tolerance
//! when it solves directly (`SddSolver::chain`, which the Jacobi-first
//! front door builds only on escalation). The front door itself must
//! converge on every small and medium case. A case
//! that builds a chain with levels must keep its depth bounded and its
//! work per preconditioner application within a per-family budget
//! (expressed as a multiple of the input edge count, with ≈2× headroom
//! over the measured value so envelopes catch regressions without flaking
//! on incidental drift). A case whose recursion ends above
//! `dense_bottom_limit` is a zero-level Jacobi chain: it must have depth 0
//! and stay within 1.25× the iterations of plain Jacobi-PCG
//! (`parsdd_solver::baseline::solve_jacobi_pcg`) on the same right-hand
//! side and tolerance. The barbell family additionally must exercise the
//! sparsifier's κ clamp on its medium tier — that path exists for
//! near-disconnected inputs and would otherwise be dead in CI.
//!
//! Small tiers run everywhere, including debug `cargo test`. Medium and
//! large tiers are `#[ignore]`d and run in the release "deep-chain" CI
//! job:
//! `cargo test --release --test zoo -- --include-ignored --nocapture`.

use parsdd_bench::zoo::{self, Tier};
use parsdd_graph::parutil::with_threads;
use parsdd_solver::chain::{build_chain, ChainOptions};
use parsdd_solver::sdd_solve::{SddSolver, SddSolverOptions};

const TOLERANCE: f64 = 1e-8;

/// Largest ratio of a zero-level Jacobi chain's iterations to plain
/// Jacobi-PCG's on the same right-hand side and tolerance (the chain's
/// count includes its residual-replacement restarts).
const JACOBI_ITERATION_RATIO: f64 = 1.25;

/// Per-case quality envelope.
struct Envelope {
    family: &'static str,
    tier: Tier,
    shape: Shape,
}

/// What a case's chain must look like.
enum Shape {
    /// A chain with levels. `max_work_per_edge` bounds
    /// `work_per_application / m`; `min_clamp_hits` forces the κ-clamp
    /// path to stay exercised where the family is designed to hit it.
    Levels {
        max_depth: usize,
        max_iterations: usize,
        max_work_per_edge: f64,
        min_clamp_hits: usize,
    },
    /// A zero-level Jacobi chain, bounded against plain Jacobi-PCG.
    Jacobi,
}

/// Measured values (release, defaults) are recorded next to each row so a
/// future regression is diagnosable from the diff alone.
const ENVELOPES: &[Envelope] = &[
    // rmat: measured depth 1/2/0, it 27/37/23, work 14.5/172.1×m (small,
    // medium). The large tier's recursion ends above `dense_bottom_limit`
    // (power-law cores do not eliminate well), so it is a Jacobi chain;
    // plain Jacobi-PCG takes 23 iterations there.
    env("rmat", Tier::Small, 3, 60, 40.0, 0),
    env("rmat", Tier::Medium, 4, 80, 400.0, 0),
    jacobi("rmat", Tier::Large),
    // smallworld: measured depth 3/0/0, it 40/56/48, work 565×m (small).
    // Expanders resist both elimination and sparsification; medium/large
    // recurse to bottoms too large to factor and run as Jacobi chains
    // (plain Jacobi-PCG: 56/48 iterations).
    env("smallworld", Tier::Small, 5, 80, 1_200.0, 0),
    jacobi("smallworld", Tier::Medium),
    jacobi("smallworld", Tier::Large),
    // road: measured depth 2/5/6, it 38/94/154, work 16.9/127.1/139.3×m.
    // Deep chains of small direct bottoms — the healthiest non-grid
    // family, so the envelopes are tight.
    env("road", Tier::Small, 4, 80, 40.0, 0),
    env("road", Tier::Medium, 7, 160, 300.0, 0),
    env("road", Tier::Large, 8, 190, 300.0, 0),
    // lattice3d: measured depth 1/0/0, it 32/151/229, work 41.6×m (small).
    // Degree-6 stencils starve greedy elimination, so medium recurses to
    // a bottom too large to factor and runs as a Jacobi chain; the large
    // tier runs the adaptive schedule (see `zoo::chain_options` — the
    // fixed schedule leaf-blows-up there), whose one level also ends
    // above the limit (plain Jacobi-PCG: 151/229 iterations).
    env("lattice3d", Tier::Small, 3, 70, 90.0, 0),
    jacobi("lattice3d", Tier::Medium),
    jacobi("lattice3d", Tier::Large),
    // barbell: measured depth 1/6/0, it 24/45/830, work 11.5/1637×m
    // (small, medium), κ-clamp ×1 on medium. Light intra-cluster extras
    // starve the stretch budget into the κ floor there; the envelope keeps
    // that path alive. The large tier is a Jacobi chain (plain Jacobi-PCG:
    // 824 iterations; the chain's count includes its residual-replacement
    // restarts).
    env("barbell", Tier::Small, 3, 50, 25.0, 0),
    env("barbell", Tier::Medium, 8, 90, 3_500.0, 1),
    jacobi("barbell", Tier::Large),
];

const fn env(
    family: &'static str,
    tier: Tier,
    max_depth: usize,
    max_iterations: usize,
    max_work_per_edge: f64,
    min_clamp_hits: usize,
) -> Envelope {
    Envelope {
        family,
        tier,
        shape: Shape::Levels {
            max_depth,
            max_iterations,
            max_work_per_edge,
            min_clamp_hits,
        },
    }
}

const fn jacobi(family: &'static str, tier: Tier) -> Envelope {
    Envelope {
        family,
        tier,
        shape: Shape::Jacobi,
    }
}

fn envelope(family: &str, tier: Tier) -> &'static Envelope {
    ENVELOPES
        .iter()
        .find(|e| e.family == family && e.tier == tier)
        .unwrap_or_else(|| panic!("no envelope pinned for {family}/{}", tier.name()))
}

/// Builds, solves, and asserts one zoo case against its envelope.
fn check(family: &str, tier: Tier) {
    let e = envelope(family, tier);
    let g = zoo::build(family, tier);
    let run = zoo::run(&g, zoo::chain_options(family, tier), TOLERANCE);
    let q = &run.quality;
    eprintln!(
        "[zoo {family}/{}] n={} m={} it={} res={:.3e} · front door it={} res={:.3e} · {}",
        tier.name(),
        g.n(),
        g.m(),
        run.iterations,
        run.relative_residual,
        run.front_door_iterations,
        run.front_door_relative_residual,
        q.summary()
    );
    assert!(
        run.converged && run.relative_residual <= TOLERANCE,
        "{family}/{}: not converged (it={} res={:.3e})",
        tier.name(),
        run.iterations,
        run.relative_residual
    );
    if tier != Tier::Large {
        assert!(
            run.front_door_converged && run.front_door_relative_residual <= TOLERANCE,
            "{family}/{}: front door not converged (it={} res={:.3e})",
            tier.name(),
            run.front_door_iterations,
            run.front_door_relative_residual
        );
    }
    match e.shape {
        Shape::Levels {
            max_depth,
            max_iterations,
            max_work_per_edge,
            min_clamp_hits,
        } => {
            assert!(
                run.iterations <= max_iterations,
                "{family}/{}: {} iterations exceeds envelope {max_iterations}",
                tier.name(),
                run.iterations
            );
            assert!(
                q.depth <= max_depth,
                "{family}/{}: depth {} exceeds envelope {max_depth}",
                tier.name(),
                q.depth
            );
            let work_per_edge = q.work_per_input_edge;
            assert!(
                work_per_edge.is_finite() && work_per_edge <= max_work_per_edge,
                "{family}/{}: work/app {work_per_edge:.1}×m exceeds envelope \
                 {max_work_per_edge:.1}×m",
                tier.name()
            );
            assert!(
                q.kappa_clamp_hits >= min_clamp_hits,
                "{family}/{}: κ-clamp hit {} levels, envelope requires ≥ \
                 {min_clamp_hits} — the clamp path this family exists to \
                 exercise has gone dead",
                tier.name(),
                q.kappa_clamp_hits
            );
        }
        Shape::Jacobi => {
            assert!(
                q.depth == 0 && !q.direct_bottom,
                "{family}/{}: not a Jacobi chain",
                tier.name()
            );
            let reference = jacobi_pcg_iterations(&g);
            eprintln!(
                "[zoo {family}/{}] plain Jacobi-PCG: it={reference}",
                tier.name()
            );
            assert!(
                run.iterations as f64 <= JACOBI_ITERATION_RATIO * reference as f64,
                "{family}/{}: {} iterations exceeds {JACOBI_ITERATION_RATIO}× plain \
                 Jacobi-PCG's {reference}",
                tier.name(),
                run.iterations
            );
        }
    }
}

/// Iterations plain Jacobi-PCG needs on `g` for the right-hand side
/// [`zoo::run`] solves, at [`TOLERANCE`]. The right-hand side is first
/// projected onto the range per connected component, as the chain does.
fn jacobi_pcg_iterations(g: &parsdd_graph::Graph) -> usize {
    let mut b = zoo::rhs(g);
    let comps = parsdd_graph::components::parallel_connected_components(g);
    parsdd_linalg::vector::project_out_componentwise_constant(&mut b, &comps.labels, comps.count);
    let out = parsdd_solver::baseline::solve_jacobi_pcg(g, &b, TOLERANCE, 100_000);
    assert!(out.converged, "plain Jacobi-PCG did not converge");
    out.iterations
}

// ---------------------------------------------------------------------------
// Small tiers: run everywhere, one test per family for readable failures.
// ---------------------------------------------------------------------------

#[test]
fn rmat_small_within_envelope() {
    check("rmat", Tier::Small);
}

#[test]
fn smallworld_small_within_envelope() {
    check("smallworld", Tier::Small);
}

#[test]
fn road_small_within_envelope() {
    check("road", Tier::Small);
}

#[test]
fn lattice3d_small_within_envelope() {
    check("lattice3d", Tier::Small);
}

#[test]
fn barbell_small_within_envelope() {
    check("barbell", Tier::Small);
}

// ---------------------------------------------------------------------------
// Medium/large tiers: release-mode territory, run by the deep-chain CI job
// via `--include-ignored`.
// ---------------------------------------------------------------------------

#[test]
#[ignore = "release-mode deep-chain job workload"]
fn rmat_upper_tiers_within_envelope() {
    check("rmat", Tier::Medium);
    check("rmat", Tier::Large);
}

#[test]
#[ignore = "release-mode deep-chain job workload"]
fn smallworld_upper_tiers_within_envelope() {
    check("smallworld", Tier::Medium);
    check("smallworld", Tier::Large);
}

#[test]
#[ignore = "release-mode deep-chain job workload"]
fn road_upper_tiers_within_envelope() {
    check("road", Tier::Medium);
    check("road", Tier::Large);
}

#[test]
#[ignore = "release-mode deep-chain job workload"]
fn lattice3d_upper_tiers_within_envelope() {
    check("lattice3d", Tier::Medium);
    check("lattice3d", Tier::Large);
}

#[test]
#[ignore = "release-mode deep-chain job workload"]
fn barbell_upper_tiers_within_envelope() {
    check("barbell", Tier::Medium);
    check("barbell", Tier::Large);
}

// ---------------------------------------------------------------------------
// Generator determinism: every zoo graph is bitwise-identical across thread
// counts and across repeated runs at a fixed seed. The generators are
// sequential by construction; this pins that contract so a future
// parallelisation cannot silently break reproducibility.
// ---------------------------------------------------------------------------

fn edge_bits(g: &parsdd_graph::Graph) -> Vec<(u32, u32, u64)> {
    g.edges()
        .iter()
        .map(|e| (e.u, e.v, e.w.to_bits()))
        .collect()
}

#[test]
fn zoo_generators_deterministic_across_threads_and_runs() {
    for &family in zoo::FAMILIES {
        let reference = edge_bits(&zoo::build(family, Tier::Small));
        let repeat = edge_bits(&zoo::build(family, Tier::Small));
        assert_eq!(
            reference, repeat,
            "{family}: repeated build at fixed seed differs"
        );
        for threads in [1usize, 2, 4] {
            let built = with_threads(threads, || edge_bits(&zoo::build(family, Tier::Small)));
            assert_eq!(
                reference, built,
                "{family}: build differs at {threads} threads"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Adaptive per-level parameter selection: opt-in only. Defaults stay
// pinned (grid-path bitwise contract), and the adaptive schedule must
// build a working chain on structurally different families.
// ---------------------------------------------------------------------------

#[test]
fn adaptive_selection_is_opt_in_and_defaults_are_pinned() {
    let d = ChainOptions::default();
    assert!(!d.adaptive, "adaptive selection must stay opt-in");
    assert_eq!(d.adaptive_kappa_target, 256.0);
    assert_eq!(d.tree_scale, 8.0);
    assert_eq!(d.extra_fraction, 0.35);
    // A default build must be bitwise-independent of the adaptive knobs'
    // values (they are dead unless `adaptive` is set).
    let g = zoo::build("road", Tier::Small);
    let base = build_chain(&g, &ChainOptions::default());
    let tweaked = ChainOptions {
        adaptive_kappa_target: 64.0,
        ..Default::default()
    };
    let same = build_chain(&g, &tweaked);
    assert_eq!(base.stats().level_edges, same.stats().level_edges);
    assert_eq!(base.stats().kappa_eff, same.stats().kappa_eff);
}

#[test]
fn adaptive_selection_converges_off_grid() {
    for family in ["road", "barbell"] {
        let g = zoo::build(family, Tier::Small);
        let mut opts = SddSolverOptions::default().with_tolerance(TOLERANCE);
        opts.chain = ChainOptions::default().with_adaptive();
        let solver = SddSolver::new_laplacian(&g, opts);
        let b = parsdd_bench::workloads::rhs(g.n(), 7);
        // The adaptive chain's own solve: the front door's Jacobi phase
        // would finish these cases without building it.
        let chain = solver.chain();
        let out = chain.solve(&b, opts.tolerance, opts.max_iterations);
        eprintln!(
            "[zoo adaptive {family}/small] it={} res={:.3e} · {}",
            out.iterations,
            out.relative_residual,
            chain.quality().summary()
        );
        assert!(
            out.converged && out.relative_residual <= TOLERANCE,
            "{family}/small with adaptive selection: not converged \
             (it={} res={:.3e})",
            out.iterations,
            out.relative_residual
        );
    }
}

// ---------------------------------------------------------------------------
// The iterative-bottom invariant: `build_chain` never returns a chain with
// levels over a bottom it cannot factor. With `dense_bottom_limit` forced
// below some of the small tiers' bottoms, those cases collapse to
// zero-level Jacobi chains and the rest keep their direct bottoms.
// ---------------------------------------------------------------------------

#[test]
fn chains_with_levels_end_on_a_direct_or_trivial_bottom() {
    let (mut kept, mut collapsed) = (0, 0);
    for &family in zoo::FAMILIES {
        let g = zoo::build(family, Tier::Small);
        let options = ChainOptions {
            dense_bottom_limit: 300,
            ..zoo::chain_options(family, Tier::Small)
        };
        let run = zoo::run(&g, options, TOLERANCE);
        let q = &run.quality;
        eprintln!("[zoo low-limit {family}/small] {}", q.summary());
        if q.depth == 0 {
            collapsed += 1;
        } else {
            kept += 1;
            assert!(
                q.direct_bottom || q.bottom_edges == 0,
                "{family}/small: depth {} over an iterative bottom",
                q.depth
            );
        }
        assert!(
            run.converged && run.relative_residual <= TOLERANCE,
            "{family}/small with a low dense_bottom_limit: not converged \
             (it={} res={:.3e})",
            run.iterations,
            run.relative_residual
        );
    }
    assert!(
        kept > 0 && collapsed > 0,
        "kept {kept}, collapsed {collapsed}"
    );
}

/// A Jacobi chain meets the tolerance by its true residual. On three
/// clusters joined by 1e-5 bridges, Jacobi-PCG's recurrence residual
/// reaches 1e-8 while the recomputed one is still 1.02e-8; the chain's
/// residual replacement closes that gap.
#[test]
fn jacobi_chain_meets_the_tolerance_by_its_true_residual() {
    use parsdd_linalg::operator::LinearOperator;
    use parsdd_linalg::vector::norm2;
    let g = parsdd_graph::generators::near_disconnected_clusters(3, 150, 300, 1e-5, 0x2005);
    let mut options = SddSolverOptions::default().with_tolerance(TOLERANCE);
    options.chain.dense_bottom_limit = 100;
    let solver = SddSolver::new_laplacian(&g, options);
    assert_eq!(solver.chain().depth(), 0);
    assert!(!solver.stats().direct_bottom);
    let b = zoo::rhs(&g);
    let out = solver.solve(&b);
    let r = parsdd_linalg::laplacian::LaplacianOp::new(&g).residual(&out.x, &b);
    let rel = norm2(&r) / norm2(&b);
    assert!(
        out.converged && rel <= TOLERANCE,
        "it={} reported {:.3e}, recomputed {rel:.3e}",
        out.iterations,
        out.relative_residual
    );
}
