//! The three seeded workloads and their inputs.
//!
//! Each workload is one fixed system: a network, and for `rmat-reweight` a
//! fixed cycle of conductance vectors (one per request). A request's
//! right-hand sides are a pure function of the `--seed` argument and the
//! request's index, so two runs with one seed see bitwise-identical inputs.
//! Every input carries an independent reference solution, computed outside
//! the timed request.

use parsdd_graph::components::parallel_connected_components;
use parsdd_graph::generators::with_power_law_weights;
use parsdd_graph::generators::{counter_u64, counter_unit, grid2d, rmat, watts_strogatz};
use parsdd_graph::Graph;
use parsdd_linalg::cg::{pcg_solve, CgOptions};
use parsdd_linalg::jacobi::JacobiPreconditioner;
use parsdd_linalg::laplacian::LaplacianOp;

/// Relative residual the reference Jacobi-PCG solve reaches — four orders
/// below the tolerance the solver under test is held to.
const REFERENCE_TOL: f64 = 1e-12;

/// Iteration cap of the reference solve (never reached on these inputs; a
/// reference that does not converge aborts the run).
const REFERENCE_MAX_ITERS: usize = 100_000;

/// The `rmat-reweight` system: an interior-point loop re-solves on one
/// network with new conductances at every step. The network and the
/// [`RMAT_STEPS`] conductance vectors (step `s` drawn from this seed and
/// `s`) are fixed; only the right-hand sides follow `--seed`. Conductances
/// drawn from `--seed` instead made the run's medians move by 7–10% from
/// seed to seed, because about a third of the draws solve several times
/// slower than the rest.
const RMAT_SEED: u64 = 0x5eed_0012;

/// Conductance vectors of the `rmat-reweight` cycle. Request `i` solves
/// step `i mod RMAT_STEPS`, and a run measures whole cycles, so every run's
/// medians summarise the same steps however many requests the host's
/// speed lets a run make. (With an endless sequence, a run's median was
/// taken over the first N steps, and N follows the host's speed: the
/// median of the first 20 steps read 12% below that of the first 60.)
const RMAT_STEPS: u64 = 8;

/// The `smallworld-batch` topology is one fixed network too, so every seed
/// measures the same chain shape (depth 1 over the iterative bottom) and
/// only the right-hand sides follow `--seed`. Other draws of
/// `watts_strogatz(10000, 8, 0.1, ·)` can build depth-5 and deeper chains
/// whose solves take about a minute per right-hand side.
const SMALLWORLD_TOPOLOGY_SEED: u64 = 0x5eed_0013;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `grid2d(128, 128)`, unit weights, one right-hand side per request:
    /// the paper's canonical instance and the deepest chain.
    GridDeep,
    /// A fixed `rmat(12, 32768)` topology with fresh power-law conductances
    /// (two decades) per request, one right-hand side: the rebuild-heavy
    /// interior-point pattern.
    RmatReweight,
    /// `watts_strogatz(10000, 8, 0.1)`, eight right-hand sides per request
    /// through the batched front door: the effective-resistance pattern.
    SmallworldBatch,
}

/// One request's inputs: a graph, its right-hand sides, and a reference
/// solution per right-hand side.
pub struct Input {
    /// The generated graph the solver is built on.
    pub graph: Graph,
    /// Right-hand sides, each balanced on every connected component.
    pub rhs: Vec<Vec<f64>>,
    /// Jacobi-PCG solutions to [`REFERENCE_TOL`], projected to mean zero
    /// on every component.
    pub reference: Vec<Vec<f64>>,
    /// Component labels of `graph` (for projections).
    pub labels: Vec<u32>,
    /// Number of connected components of `graph`.
    pub components: usize,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::GridDeep,
        Workload::RmatReweight,
        Workload::SmallworldBatch,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridDeep => "grid-deep",
            Workload::RmatReweight => "rmat-reweight",
            Workload::SmallworldBatch => "smallworld-batch",
        }
    }

    /// Right-hand sides per request.
    pub fn rhs_per_request(self) -> usize {
        match self {
            Workload::GridDeep | Workload::RmatReweight => 1,
            Workload::SmallworldBatch => 8,
        }
    }

    /// The workload's fixed network. `tiny` shrinks it to smoke-test
    /// size while keeping the workload's structure.
    pub fn topology(self, tiny: bool) -> Graph {
        match self {
            Workload::GridDeep => {
                let side = if tiny { 32 } else { 128 };
                grid2d(side, side, |_, _| 1.0)
            }
            Workload::RmatReweight if tiny => rmat(8, 1024, RMAT_SEED),
            Workload::RmatReweight => rmat(12, 32_768, RMAT_SEED),
            Workload::SmallworldBatch => watts_strogatz(
                if tiny { 1_000 } else { 10_000 },
                8,
                0.1,
                SMALLWORLD_TOPOLOGY_SEED,
            ),
        }
    }

    /// Requests a run measures in whole multiples of: a full cycle of
    /// conductance steps for `rmat-reweight`, one request otherwise.
    pub fn cycle(self) -> usize {
        match self {
            Workload::RmatReweight => RMAT_STEPS as usize,
            Workload::GridDeep | Workload::SmallworldBatch => 1,
        }
    }

    /// Input `i` of a run seeded `seed`: fresh right-hand sides on
    /// `topology`, and for `rmat-reweight` the conductances of step
    /// `i mod RMAT_STEPS`.
    /// Every request gets its own input, so a run's medians summarise many
    /// right-hand sides.
    pub fn input(self, topology: &Graph, seed: u64, i: u64) -> Input {
        let stream = mix(seed, i);
        let graph = match self {
            Workload::RmatReweight => {
                with_power_law_weights(topology, 2, mix(RMAT_SEED, i % RMAT_STEPS))
            }
            Workload::GridDeep | Workload::SmallworldBatch => topology.clone(),
        };
        Input::new(graph, self.rhs_per_request(), stream)
    }
}

impl Input {
    fn new(graph: Graph, k: usize, seed: u64) -> Input {
        let comps = parallel_connected_components(&graph);
        let rhs: Vec<Vec<f64>> = (0..k as u64)
            .map(|j| {
                let mut b: Vec<f64> = (0..graph.n() as u64)
                    .map(|v| 2.0 * counter_unit(mix(seed, j), v) - 1.0)
                    .collect();
                project_out_constant(&mut b, &comps.labels, comps.count);
                b
            })
            .collect();
        let op = LaplacianOp::new(&graph);
        let jacobi = JacobiPreconditioner::from_laplacian(&op);
        let options = CgOptions {
            max_iters: REFERENCE_MAX_ITERS,
            tol: REFERENCE_TOL,
        };
        let reference = rhs
            .iter()
            .map(|b| {
                let out = pcg_solve(&op, &jacobi, b, &options);
                assert!(
                    out.converged,
                    "reference Jacobi-PCG did not reach {REFERENCE_TOL:e} (residual {:e})",
                    out.relative_residual
                );
                let mut x = out.x;
                project_out_constant(&mut x, &comps.labels, comps.count);
                x
            })
            .collect();
        Input {
            graph,
            rhs,
            reference,
            labels: comps.labels,
            components: comps.count,
        }
    }
}

/// Subtracts each connected component's mean from `x` (the Laplacian's
/// kernel is spanned by the component indicators).
pub fn project_out_constant(x: &mut [f64], labels: &[u32], components: usize) {
    let mut sums = vec![0.0f64; components];
    let mut sizes = vec![0usize; components];
    for (&v, &l) in x.iter().zip(labels) {
        sums[l as usize] += v;
        sizes[l as usize] += 1;
    }
    for (v, &l) in x.iter_mut().zip(labels) {
        *v -= sums[l as usize] / sizes[l as usize] as f64;
    }
}

/// Derives an independent stream seed for item `i` of a run seeded `seed`.
pub fn mix(seed: u64, i: u64) -> u64 {
    counter_u64(seed, i)
}
