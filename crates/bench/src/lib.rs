//! # parsdd-bench
//!
//! Shared workloads and reporting helpers for the experiment benches.
//!
//! The paper is a theory paper whose "evaluation" is its set of theorem
//! statements; every bench target in `benches/` regenerates the quantity
//! one theorem bounds (see DESIGN.md §4 and EXPERIMENTS.md for the index).
//! Each bench prints a table of measured values (the reproduction of the
//! corresponding claim) and then registers criterion timing groups for the
//! work/scaling aspects.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod faults;
pub mod zoo;

/// Prints a Markdown-style table row to stderr (criterion owns stdout).
pub fn report_row(cols: &[String]) {
    eprintln!("| {} |", cols.join(" | "));
}

/// Prints a Markdown-style table header to stderr.
pub fn report_header(title: &str, cols: &[&str]) {
    eprintln!("\n### {title}");
    eprintln!("| {} |", cols.join(" | "));
    eprintln!(
        "|{}|",
        cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Formats a float compactly.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 || x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.3}")
    }
}

/// The standard set of workload graphs used across the experiments.
pub mod workloads {
    use parsdd_graph::{generators, Graph};

    /// A named workload graph.
    pub struct Workload {
        /// Short name used in tables.
        pub name: &'static str,
        /// The graph.
        pub graph: Graph,
    }

    /// The small workload suite (fast; used by most benches).
    pub fn small_suite() -> Vec<Workload> {
        vec![
            Workload {
                name: "grid2d-48x48",
                graph: generators::grid2d(48, 48, |_, _| 1.0),
            },
            Workload {
                name: "grid2d-weighted",
                graph: generators::with_power_law_weights(
                    &generators::grid2d(48, 48, |_, _| 1.0),
                    4,
                    7,
                ),
            },
            Workload {
                name: "rand-regular-4",
                graph: generators::random_regular(2048, 4, 11),
            },
            Workload {
                name: "erdos-renyi",
                graph: generators::erdos_renyi_gnm(2048, 6144, 13),
            },
        ]
    }

    /// The scaling suite: the same family at growing sizes (for work/size
    /// scaling curves).
    pub fn grid_scaling_suite() -> Vec<(usize, Graph)> {
        [24usize, 48, 72, 96]
            .iter()
            .map(|&side| (side * side, generators::grid2d(side, side, |_, _| 1.0)))
            .collect()
    }

    /// Ultra-sparse graphs (tree + extra edges) for the elimination
    /// experiment.
    pub fn ultra_sparse_suite() -> Vec<(usize, usize, Graph)> {
        [(10_000usize, 50usize), (10_000, 200), (10_000, 500)]
            .iter()
            .map(|&(n, extra)| (n, extra, generators::ultra_sparse(n, extra, 1.0, 4.0, 17)))
            .collect()
    }

    /// A barbell on which the solver's Jacobi phase escalates: two
    /// 20-cliques joined by an 800-vertex path, every conductance scaled
    /// by 10^0..10^4. Jacobi-PCG needs about 10 700 iterations for a
    /// random right-hand side, past its 1 680-iteration budget, so such
    /// columns are finished on the full chain (depth 1, direct bottom).
    pub fn escalating_barbell() -> Graph {
        generators::with_power_law_weights(&generators::barbell(20, 800, 1.0), 4, 1)
    }

    /// A balanced right-hand side for a graph of `n` vertices.
    pub fn rhs(n: usize, seed: u64) -> Vec<f64> {
        let mut b: Vec<f64> = (0..n)
            .map(|i| (((i as u64).wrapping_mul(seed.wrapping_add(29)) % 997) as f64) - 498.0)
            .collect();
        parsdd_linalg::vector::project_out_constant(&mut b);
        b
    }
}
