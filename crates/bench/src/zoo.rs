//! Workload zoo: the family × size-tier registry shared by the
//! conformance harness (`tests/zoo.rs`) and the `zoo` baseline experiment.
//!
//! Every e-series bench historically ran on 2D grids — the friendliest
//! possible SDD instance — so the pipeline's defaults were tuned on exactly
//! one graph family. The zoo pins five structurally different families
//! (power-law, small-world/expander, road-like skewed planar, 3D lattice,
//! and near-disconnected clusters) at three size tiers each, with a single
//! entry point that builds the graph and one that solves it — on the
//! solver's full chain and through its front door — and returns the
//! chain-quality report. All generators are seeded and sequential, so every
//! case is bitwise-identical across thread counts and runs.

use parsdd_graph::{generators, Graph};
use parsdd_solver::{ChainOptions, ChainQuality, SddSolver, SddSolverOptions};

/// Size tier of a zoo case. `Small` is cheap enough for debug-mode test
/// runs; `Medium`/`Large` are `#[ignore]`d by the conformance tests and run
/// in the release `deep-chain` CI job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Hundreds to ~2k vertices — runs everywhere, including debug tests.
    Small,
    /// Thousands to ~10k vertices — release-mode territory.
    Medium,
    /// Tens of thousands of vertices — the deep-chain job's tier.
    Large,
}

impl Tier {
    /// All tiers, smallest first.
    pub const ALL: [Tier; 3] = [Tier::Small, Tier::Medium, Tier::Large];

    /// Short name used in tables and baseline keys.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Small => "small",
            Tier::Medium => "medium",
            Tier::Large => "large",
        }
    }
}

/// The five zoo families. `barbell` is the near-disconnected-clusters
/// family that stresses the sparsifier's κ clamps.
pub const FAMILIES: &[&str] = &["rmat", "smallworld", "road", "lattice3d", "barbell"];

/// Builds the zoo graph for `family` at `tier`. Panics on an unknown
/// family name (the registry is a closed set).
pub fn build(family: &str, tier: Tier) -> Graph {
    match (family, tier) {
        // rMAT power-law: skewed degrees, low diameter, giant component.
        ("rmat", Tier::Small) => generators::rmat(9, 4_096, 0x2001),
        ("rmat", Tier::Medium) => generators::rmat(12, 32_768, 0x2001),
        ("rmat", Tier::Large) => generators::rmat(14, 131_072, 0x2001),
        // Watts–Strogatz small-world: ring lattice + rewired shortcuts —
        // expander-like once beta is non-trivial.
        ("smallworld", Tier::Small) => generators::watts_strogatz(1_500, 6, 0.1, 0x2002),
        ("smallworld", Tier::Medium) => generators::watts_strogatz(10_000, 8, 0.1, 0x2002),
        ("smallworld", Tier::Large) => generators::watts_strogatz(40_000, 10, 0.1, 0x2002),
        // Road-like mesh: planar, high diameter, log-normal skewed weights.
        ("road", Tier::Small) => generators::road_mesh(40, 40, 0.6, 1.0, 0x2003),
        ("road", Tier::Medium) => generators::road_mesh(120, 120, 0.6, 1.2, 0x2003),
        ("road", Tier::Large) => generators::road_mesh(250, 250, 0.6, 1.2, 0x2003),
        // 3D lattice: the grid family one dimension up — a denser
        // per-vertex stencil than 2D. The weight spread stays within one
        // z=32 bucket: multi-decade spreads are the road family's job, and
        // on a 3D stencil they drive the chain into slow shrink with
        // W-cycle leaf blowup (thousands of ×m per application). The
        // large tier runs the adaptive schedule — see [`chain_options`].
        ("lattice3d", Tier::Small) => generators::lattice3d(10, 10, 8, 4.0, 0x2004),
        ("lattice3d", Tier::Medium) => generators::lattice3d(20, 20, 20, 4.0, 0x2004),
        ("lattice3d", Tier::Large) => generators::lattice3d(32, 32, 32, 4.0, 0x2004),
        // Barbell / near-disconnected clusters: feeble bridges collapse
        // the Fiedler value and light intra-cluster extras starve the
        // sampler's stretch budget into its κ floor clamp. Bridge weights
        // stay ≥ 1e-5 — the f64-attainable relative residual is ≈ ε·κ(A),
        // so weaker bridges put the 1e-8 tolerance out of reach of *any*
        // double-precision solver (the stall detector would stop early).
        ("barbell", Tier::Small) => {
            generators::near_disconnected_clusters(3, 150, 300, 1e-3, 0x2005)
        }
        ("barbell", Tier::Medium) => {
            generators::near_disconnected_clusters(4, 800, 1_600, 1e-4, 0x2005)
        }
        ("barbell", Tier::Large) => {
            generators::near_disconnected_clusters(6, 3_000, 6_000, 1e-5, 0x2005)
        }
        _ => panic!("unknown zoo family {family:?}"),
    }
}

/// Chain options for a zoo case: `ChainOptions::default()` everywhere
/// except the large 3D lattice, which runs the adaptive per-level
/// schedule. The fixed grid-tuned schedule recurses at shrink ≈ 1.3–1.6
/// with 4 inner iterations per level on big 3D stencils, so the W-cycle
/// leaf count blows up exponentially — measured 56 496×m per application
/// at 24³ and 75 951×m at 32³ (depth 9–10, 65k–262k recursion leaves).
/// The adaptive schedule derives the level's tree scale and sample budget
/// from its measured stretch and produces one genuinely sparsifying level
/// whose reduced system is still far above `dense_bottom_limit`, so
/// `build_chain` drops that level and the case is solved as a zero-level
/// Jacobi chain (one Jacobi-PCG at the top). The override stays pinned so
/// the adaptive schedule keeps running on a large 3D stencil.
pub fn chain_options(family: &str, tier: Tier) -> ChainOptions {
    let mut options = match (family, tier) {
        ("lattice3d", Tier::Large) => ChainOptions::default().with_adaptive(),
        _ => ChainOptions::default(),
    };
    // CI hook: the thread-matrix job re-runs the zoo small suite with
    // `PARSDD_PRECISION=f32` so the mixed-precision tier is conformance-
    // tested against the same envelopes as the default path.
    if let Some(p) = parsdd_solver::chain::Precision::from_env() {
        options.precision = p;
    }
    options
}

/// Result of solving one zoo case: the chain-quality report and the
/// chain's own solve, which the conformance envelopes bound, plus the
/// front door's solve of the same right-hand side.
#[derive(Debug, Clone)]
pub struct ZooRun {
    /// Chain-quality conformance report of the built chain.
    pub quality: ChainQuality,
    /// Outer PCG iterations of the chain's solve.
    pub iterations: usize,
    /// Final relative residual `‖b − Ax‖₂ / ‖b‖₂` of the chain's solve.
    pub relative_residual: f64,
    /// Whether the chain's solve reached the requested tolerance.
    pub converged: bool,
    /// Iterations of the front door's solve (`SddSolver::solve`: Jacobi
    /// phase, plus the chain's for an escalated column).
    pub front_door_iterations: usize,
    /// Final relative residual of the front door's solve.
    pub front_door_relative_residual: f64,
    /// Whether the front door's solve reached the requested tolerance.
    pub front_door_converged: bool,
    /// Typed breakdown of the outer iteration, if it froze early
    /// (`Display`-formatted; `None` when converged or budget-exhausted).
    pub breakdown: Option<String>,
    /// Whether the breakdown (if any) was a stall at the f64-attainable
    /// accuracy floor — the expected outcome on the feeblest barbell
    /// bridges, surfaced separately so baseline diffs can tell an
    /// accuracy-floor stall from a genuine divergence.
    pub stalled: bool,
}

/// The deterministic balanced right-hand side [`run`] solves on `g`.
pub fn rhs(g: &Graph) -> Vec<f64> {
    crate::workloads::rhs(g.n(), 7)
}

/// Builds a solver for `g` with chain options `options` (use
/// [`chain_options`] for the registry's per-case choice) and solves one
/// deterministic balanced right-hand side to `tolerance` twice: through
/// the front door, and on the solver's full chain directly
/// (`SolverChain::solve` with the solver's outer budget), whose quality
/// report and outcome the envelopes bound.
pub fn run(g: &Graph, options: ChainOptions, tolerance: f64) -> ZooRun {
    let solver_options = SddSolverOptions::default()
        .with_tolerance(tolerance)
        .with_chain(options);
    let solver = SddSolver::new_laplacian(g, solver_options);
    let b = rhs(g);
    let front_door = solver.solve(&b);
    let chain = solver.chain();
    let out = chain.solve(&b, tolerance, solver_options.max_iterations);
    let stalled = matches!(
        out.breakdown,
        Some(parsdd_linalg::BreakdownReason::Stalled { .. })
    );
    ZooRun {
        quality: chain.quality(),
        iterations: out.iterations,
        relative_residual: out.relative_residual,
        converged: out.converged,
        front_door_iterations: front_door.iterations,
        front_door_relative_residual: front_door.relative_residual,
        front_door_converged: front_door.converged,
        breakdown: out.breakdown.map(|b| b.to_string()),
        stalled,
    }
}
