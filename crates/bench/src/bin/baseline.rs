//! Regenerates `BENCH_BASELINE.json`: one headline timing per experiment
//! (E1–E10, A1), each measured at 1 thread and at the widest pool, the
//! multi-RHS blocked-solve sweep (time-per-RHS at k ∈ {1, 4, 16}), the
//! workload-zoo chain-quality record (every family × tier's `ChainQuality`
//! stats and solve outcome; `--experiments zoo` selects it), the
//! mixed-precision A/B (`e15_precision`: f64 vs f32 chain storage on the
//! E8 grid and a medium zoo case), the large-scale end-to-end record
//! (`e16_scale`: a ≥10M-edge random-geometric graph through generate →
//! lean CSR → PCSR write → mmap PageRank → `build_chain` → `solve`, with
//! per-phase wall time and resident memory; `--quick` shrinks it to ~1M
//! edges), plus machine info and the default chain's per-level work and
//! residency accounting — the fixed reference point perf PRs diff
//! against.
//!
//! Usage (run with the `opt-bench` profile — or at least `--release` —
//! or the numbers are meaningless):
//!
//! ```text
//! cargo run --profile opt-bench -p parsdd_bench --bin baseline \
//!     [-- [--quick] [--threads N] [--experiments LIST] OUTPUT_PATH]
//! ```
//!
//! `--quick` takes a single timed sample per point on shrunken workloads
//! (a CI smoke mode that only proves the binary still runs end to end;
//! don't commit its output). `--threads N` overrides the wide end of the
//! thread sweep (default: all hardware threads, min 4) — the committed
//! baseline was captured on a 1-CPU container whose thread columns show
//! time-slicing, so multicore hosts should regenerate with their real
//! width on record. `--experiments LIST` (comma-separated, e.g.
//! `--experiments e8,e11`) reruns only the named experiments — short
//! prefixes (`e8`) and full names (`e8_solver_work`; `e11`/`multi_rhs`
//! select the multi-RHS sweep) both work — so a hot-path experiment can
//! be re-measured without the full ~10-minute sweep; the active filter is
//! recorded in the JSON (`"filter"`), marking the output as partial.
//!
//! Timing protocol: one warm-up run, then [`SAMPLES`] timed runs per
//! (experiment, width); the JSON records the minimum (the least-noise
//! estimator on a shared machine) and the mean. The thread sweep uses one
//! [`rayon::ThreadPool`] per width, reused across samples.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use parsdd_bench::{workloads, zoo};
use parsdd_decomp::partition::partition_single_class;
use parsdd_decomp::{split_graph, PartitionParams, SplitParams};
use parsdd_graph::mst::kruskal;
use parsdd_lsst::stretch::stretch_over_tree;
use parsdd_lsst::{akpw, ls_subgraph, AkpwParams, LsSubgraphParams};
use parsdd_solver::chain::{build_chain, ChainOptions, Precision};
use parsdd_solver::elimination::greedy_elimination;
use parsdd_solver::sdd_solve::{SddSolver, SddSolverOptions};
use parsdd_solver::sparsify::{incremental_sparsify, SparsifyParams};

const SAMPLES: usize = 3;

/// Outer-iteration budget of the chain solves (`SddSolverOptions`'
/// default).
const CHAIN_MAX_ITERS: usize = 200;

/// Timed samples per (experiment, width); `SAMPLES`, or 1 with `--quick`.
static SAMPLES_PER_POINT: AtomicUsize = AtomicUsize::new(SAMPLES);

struct Measurement {
    name: &'static str,
    /// `(threads, min_ms, mean_ms)` per measured width.
    timings: Vec<(usize, f64, f64)>,
    /// Free-form quality metric pinning down *what* was computed.
    metric: String,
}

fn time_at<R>(threads: usize, mut f: impl FnMut() -> R) -> (f64, f64) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    pool.install(|| {
        std::hint::black_box(f());
    });
    let samples = SAMPLES_PER_POINT.load(Ordering::Relaxed);
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        pool.install(|| {
            std::hint::black_box(f());
        });
        times.push(t0.elapsed().as_secs_f64() * 1000.0);
    }
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    (min, mean)
}

fn measure<R>(
    name: &'static str,
    widths: &[usize],
    mut f: impl FnMut() -> R,
    metric: impl FnOnce(&R) -> String,
) -> Measurement {
    let mut timings = Vec::new();
    for &w in widths {
        let (min, mean) = time_at(w, &mut f);
        timings.push((w, min, mean));
    }
    let out = f();
    Measurement {
        name,
        timings,
        metric: metric(&out),
    }
}

/// Does `name` pass the `--experiments` filter? Matches the full
/// experiment name or its short prefix (the part before the first `_`).
fn enabled(filter: &Option<Vec<String>>, name: &str) -> bool {
    match filter {
        None => true,
        Some(keys) => {
            let short = name.split('_').next().unwrap_or(name);
            keys.iter().any(|k| k == name || k == short)
        }
    }
}

/// `measure`, gated on the experiment filter.
#[allow(clippy::too_many_arguments)]
fn measure_if<R>(
    results: &mut Vec<Measurement>,
    filter: &Option<Vec<String>>,
    name: &'static str,
    widths: &[usize],
    f: impl FnMut() -> R,
    metric: impl FnOnce(&R) -> String,
) {
    if enabled(filter, name) {
        results.push(measure(name, widths, f, metric));
    }
}

/// Non-finite f64s have no JSON encoding; emit them as `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6e}")
    } else {
        "null".to_string()
    }
}

fn json_f64_array(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|&v| json_f64(v)).collect();
    format!("[{}]", items.join(", "))
}

fn json_usize_array(vs: &[usize]) -> String {
    let items: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let mut quick = false;
    let mut threads_override: Option<usize> = None;
    let mut filter: Option<Vec<String>> = None;
    let mut out_path = "BENCH_BASELINE.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--quick" {
            quick = true;
        } else if arg == "--threads" {
            let n: usize = args
                .next()
                .expect("--threads needs a value")
                .parse()
                .expect("--threads needs an integer");
            threads_override = Some(n.max(1));
        } else if arg == "--experiments" {
            let list = args.next().expect("--experiments needs a comma list");
            filter = Some(
                list.split(',')
                    .map(|s| s.trim().to_ascii_lowercase())
                    .filter(|s| !s.is_empty())
                    .collect(),
            );
        } else {
            out_path = arg;
        }
    }
    if quick {
        SAMPLES_PER_POINT.store(1, Ordering::Relaxed);
    }
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Always include a ≥4-thread point so speedup-at-4 is on record even
    // when the hardware has fewer cores (the JSON carries `cpus` so the
    // reader can tell a real speedup from time-slicing); `--threads`
    // overrides both the env and the hardware default.
    let wide = threads_override.unwrap_or(hw.max(4));
    let widths = [1usize, wide];

    let grid96 = parsdd_graph::generators::grid2d(96, 96, |_, _| 1.0);
    let grid64 = parsdd_graph::generators::grid2d(64, 64, |_, _| 1.0);
    let grid48 = parsdd_graph::generators::grid2d(48, 48, |_, _| 1.0);
    let ultra = parsdd_graph::generators::ultra_sparse(10_000, 200, 1.0, 4.0, 17);
    let b96 = workloads::rhs(grid96.n(), 7);

    let mut results: Vec<Measurement> = Vec::new();

    measure_if(
        &mut results,
        &filter,
        "e1_decomposition_radius",
        &widths,
        || split_graph(&grid96, &SplitParams::new(24).with_seed(1)),
        |s| {
            format!(
                "components={} bfs_rounds={}",
                s.component_count, s.bfs_rounds_total
            )
        },
    );
    measure_if(
        &mut results,
        &filter,
        "e2_decomposition_cut",
        &widths,
        || partition_single_class(&grid64, &PartitionParams::new(24).with_seed(2)),
        |p| format!("cut_fraction={:.4}", p.max_cut_fraction()),
    );
    measure_if(
        &mut results,
        &filter,
        "e3_decomposition_scaling",
        &widths,
        || split_graph(&grid96, &SplitParams::new(24).with_seed(1)).bfs_rounds_total,
        |r| format!("bfs_rounds={r}"),
    );
    measure_if(
        &mut results,
        &filter,
        "e4_akpw_stretch",
        &widths,
        || {
            let t = akpw(&grid96, &AkpwParams::practical(16.0).with_seed(2));
            stretch_over_tree(&grid96, &t.tree_edges).average_stretch
        },
        |s| format!("avg_stretch={s:.3}"),
    );
    measure_if(
        &mut results,
        &filter,
        "e5_subgraph_tradeoff",
        &widths,
        || ls_subgraph(&grid96, &LsSubgraphParams::practical(16.0, 2).with_seed(3)),
        |s| format!("subgraph_edges={}", s.all_edges().len()),
    );
    measure_if(
        &mut results,
        &filter,
        "e6_elimination",
        &widths,
        || greedy_elimination(&ultra, 5),
        |e| format!("kept={}", e.kept.len()),
    );
    measure_if(
        &mut results,
        &filter,
        "e7_sparsify",
        &widths,
        || {
            let sub = ls_subgraph(&grid96, &LsSubgraphParams::practical(16.0, 2).with_seed(3));
            let sub_edges = sub.all_edges();
            let forest: Vec<u32> = {
                let sg = grid96.edge_subgraph(&sub_edges);
                kruskal(&sg)
                    .into_iter()
                    .map(|e| sub_edges[e as usize])
                    .collect()
            };
            incremental_sparsify(
                &grid96,
                &sub_edges,
                &forest,
                &SparsifyParams {
                    kappa: 64.0,
                    oversample: 2.0,
                    tree_scale: 1.0,
                    seed: 11,
                },
            )
        },
        |sp| format!("sparsifier_edges={}", sp.graph.m()),
    );
    measure_if(
        &mut results,
        &filter,
        "e8_solver_work",
        &widths,
        // The chain itself (build + solve), which the Jacobi-first front
        // door builds only for escalating columns.
        || build_chain(&grid96, &ChainOptions::default()).solve(&b96, 1e-8, CHAIN_MAX_ITERS),
        |o| {
            format!(
                "iterations={} residual={:.3e}",
                o.iterations, o.relative_residual
            )
        },
    );
    measure_if(
        &mut results,
        &filter,
        "e9_solver_scaling",
        &widths,
        || {
            // Solve only (chain prebuilt per sample set would hide the
            // dominant cost on this workload; E9's headline is the solve).
            build_chain(&grid96, &ChainOptions::default())
                .solve(&b96, 1e-8, CHAIN_MAX_ITERS)
                .iterations
        },
        |i| format!("iterations={i}"),
    );
    measure_if(
        &mut results,
        &filter,
        "e10_applications",
        &widths,
        || {
            let solver =
                SddSolver::new_laplacian(&grid48, SddSolverOptions::default().with_tolerance(1e-6));
            parsdd_apps::electrical::electrical_flow(&grid48, &solver, 0, (grid48.n() - 1) as u32)
        },
        |f| format!("effective_resistance={:.4}", f.effective_resistance),
    );
    measure_if(
        &mut results,
        &filter,
        "a1_ablation",
        &widths,
        || build_chain(&grid96, &ChainOptions::default()),
        |c| format!("levels={}", c.stats().level_vertices.len()),
    );

    // ----- E13: parallel chain construction -----
    //
    // Build wall-clock on a grid large enough that every build stage
    // (decomposition, AKPW clustering, sparsifier sampling, eliminations,
    // bottom factorisation, Chebyshev calibration) crosses its parallel
    // cutoff. The scope-parallel build is pinned bitwise identical across
    // widths by tests/parallel.rs, so the width column here measures pure
    // runtime overhead/speedup with no quality confound. The metric also
    // times one fixed-tolerance solve on the final build: build ÷ solve is
    // the number the one-time construction cost has to amortise against.
    let (e13_side, e13_tol) = if quick { (96usize, 1e-6) } else { (200, 1e-8) };
    let g_e13 = parsdd_graph::generators::grid2d(e13_side, e13_side, |_, _| 1.0);
    let b_e13 = {
        let mut b = workloads::rhs(g_e13.n(), 9);
        let mean = b.iter().sum::<f64>() / b.len() as f64;
        b.iter_mut().for_each(|v| *v -= mean);
        b
    };
    measure_if(
        &mut results,
        &filter,
        "e13_build_chain",
        &widths,
        || build_chain(&g_e13, &ChainOptions::default()),
        |c| {
            let t0 = Instant::now();
            let outcome = c.solve(&b_e13, e13_tol, 1000);
            let solve_ms = t0.elapsed().as_secs_f64() * 1000.0;
            format!(
                "side={e13_side} levels={} solve_ms={solve_ms:.1} solve_iterations={} residual={:.3e}",
                c.depth(),
                outcome.iterations,
                outcome.relative_residual
            )
        },
    );

    // ----- Multi-RHS blocked-solve sweep -----
    //
    // The Spielman–Srivastava effective-resistance workload: many
    // projection right-hand sides against one prebuilt chain, solved in
    // blocks of k. Time-per-RHS is the headline — blocking amortises every
    // chain level's matrix stream over the block, which is memory-bound
    // amortisation and therefore measurable even at 1 thread on 1 CPU
    // (the sweep runs on a 1-wide pool; thread scaling is the other
    // experiments' job). The acceptance bar of the blocked-solve refactor:
    // per-RHS time at k = 16 at most half the k = 1 time.
    let (mr_side, mr_rhs) = if quick { (60usize, 8usize) } else { (120, 16) };
    let mr_grid = parsdd_graph::generators::grid2d(mr_side, mr_side, |_, _| 1.0);
    let mr_points: Option<Vec<(usize, f64, f64)>> =
        (enabled(&filter, "e11_multi_rhs") || enabled(&filter, "multi_rhs")).then(|| {
            let chain = build_chain(&mr_grid, &ChainOptions::default());
            let solve = |chunk: &[Vec<f64>]| {
                let block = parsdd_linalg::MultiVector::from_columns(chunk);
                chain.solve_block(&block, 1e-8, CHAIN_MAX_ITERS)
            };
            let n = mr_grid.n();
            let rhs: Vec<Vec<f64>> = (0..mr_rhs)
                .map(|p| {
                    let mut y = vec![0.0f64; n];
                    for (id, e) in mr_grid.edges().iter().enumerate() {
                        let coin = parsdd_solver::sparsify::counter_coin(
                            0x55ab_0001 ^ (p as u64).wrapping_mul(0xd1b5_4a32_d192_ed03),
                            id as u64,
                        );
                        let s = if coin < 0.5 { 1.0 } else { -1.0 };
                        let w = e.w.sqrt() * s;
                        y[e.u as usize] += w;
                        y[e.v as usize] -= w;
                    }
                    y
                })
                .collect();
            [1usize, 4, 16]
                .iter()
                .map(|&k| {
                    let (min, mean) = time_at(1, || {
                        for chunk in rhs.chunks(k) {
                            std::hint::black_box(solve(chunk));
                        }
                    });
                    eprintln!(
                        "multi_rhs k={k:2}  total {min:9.1} ms  per-rhs {:9.1} ms",
                        min / mr_rhs as f64
                    );
                    (k, min, mean)
                })
                .collect()
        });

    // ----- Workload-zoo chain-quality record -----
    //
    // Not a timing experiment: for every zoo family × tier, the solved
    // chain's quality report and solve outcome — the reference numbers the
    // conformance envelopes in tests/zoo.rs were pinned from. `--quick`
    // runs only the small tier (the CI smoke); the committed baseline
    // carries all three.
    struct ZooRecord {
        family: &'static str,
        tier: &'static str,
        vertices: usize,
        edges: usize,
        build_solve_ms: f64,
        run: zoo::ZooRun,
    }
    let zoo_records: Option<Vec<ZooRecord>> = enabled(&filter, "zoo").then(|| {
        let tiers: &[zoo::Tier] = if quick {
            &[zoo::Tier::Small]
        } else {
            &zoo::Tier::ALL
        };
        let mut records = Vec::new();
        for &family in zoo::FAMILIES {
            for &tier in tiers {
                let g = zoo::build(family, tier);
                let t0 = Instant::now();
                let run = zoo::run(&g, zoo::chain_options(family, tier), 1e-8);
                let build_solve_ms = t0.elapsed().as_secs_f64() * 1000.0;
                eprintln!(
                    "zoo {family:>10}/{:6}  n={:6} m={:7}  it={:3} res={:.2e}  {}",
                    tier.name(),
                    g.n(),
                    g.m(),
                    run.iterations,
                    run.relative_residual,
                    run.quality.summary()
                );
                records.push(ZooRecord {
                    family,
                    tier: tier.name(),
                    vertices: g.n(),
                    edges: g.m(),
                    build_solve_ms,
                    run,
                });
            }
        }
        records
    });

    // ----- E15: mixed-precision chain storage A/B -----
    //
    // f64 vs f32 chain storage (`ChainOptions::precision`) on the E8
    // workload and a medium zoo case: per-solve wall-clock at 1 thread
    // against a prebuilt chain, the outer iteration count and final
    // residual at tol 1e-8, and the chain's resident/streamed bytes.
    // The knob's acceptance bars — f32 ≥ 20% faster per solve on the e8
    // grid, per-level residency ≤ 0.55× — are pinned by
    // tests/precision.rs; this record is the committed measurement.
    struct PrecisionPoint {
        precision: &'static str,
        solve_min_ms: f64,
        solve_mean_ms: f64,
        iterations: usize,
        relative_residual: f64,
        resident_bytes: usize,
        streamed_bytes_per_application: f64,
    }
    struct PrecisionRecord {
        case: String,
        vertices: usize,
        edges: usize,
        points: Vec<PrecisionPoint>,
    }
    let e15_records: Option<Vec<PrecisionRecord>> = enabled(&filter, "e15_precision").then(|| {
        let rmat_tier = if quick {
            zoo::Tier::Small
        } else {
            zoo::Tier::Medium
        };
        let cases: Vec<(String, parsdd_graph::Graph, ChainOptions)> = vec![
            (
                "grid2d_96x96".to_string(),
                parsdd_graph::generators::grid2d(96, 96, |_, _| 1.0),
                ChainOptions::default(),
            ),
            (
                format!("rmat_{}", rmat_tier.name()),
                zoo::build("rmat", rmat_tier),
                zoo::chain_options("rmat", rmat_tier),
            ),
        ];
        let mut records = Vec::new();
        for (case, g, opts) in cases {
            let b = {
                let mut b = workloads::rhs(g.n(), 21);
                let mean = b.iter().sum::<f64>() / b.len() as f64;
                b.iter_mut().for_each(|v| *v -= mean);
                b
            };
            let mut points = Vec::new();
            for precision in [Precision::F64, Precision::F32] {
                let chain = build_chain(&g, &opts.with_precision(precision));
                let (min, mean) = time_at(1, || chain.solve(&b, 1e-8, 1000));
                let out = chain.solve(&b, 1e-8, 1000);
                let stats = chain.stats();
                eprintln!(
                    "e15 {case:>14} {precision:?}: solve {min:8.1} ms  it={:3} \
                     res={:.2e}  resident {:9} B  streamed {:.3e} B/app",
                    out.iterations,
                    out.relative_residual,
                    stats.resident_bytes,
                    stats.streamed_bytes_per_application
                );
                points.push(PrecisionPoint {
                    precision: match precision {
                        Precision::F64 => "f64",
                        Precision::F32 => "f32",
                    },
                    solve_min_ms: min,
                    solve_mean_ms: mean,
                    iterations: out.iterations,
                    relative_residual: out.relative_residual,
                    resident_bytes: stats.resident_bytes,
                    streamed_bytes_per_application: stats.streamed_bytes_per_application,
                });
            }
            records.push(PrecisionRecord {
                case,
                vertices: g.n(),
                edges: g.m(),
                points,
            });
        }
        records
    });

    // ----- E16: large-scale end-to-end (per-phase time + resident memory)
    //
    // One graph at committed scale (≥10M edges full, ~1M edges --quick)
    // driven through every layer the scale refactor touched: the
    // counter-RNG generator, the lean CSR, the PCSR binary writer, the
    // zero-copy mmap view feeding an `edge_map` workload (PageRank), and
    // finally `build_chain` + `solve`. Each phase records wall time and
    // the VmRSS high-water reading right after it, so the memory story
    // (flat SoA arrays, dropped per-level graphs, streamed loaders) is a
    // committed measurement rather than a claim.
    struct ScalePhase {
        name: &'static str,
        ms: f64,
        rss_bytes: u64,
    }
    struct ScaleRecord {
        workload: String,
        vertices: usize,
        edges: usize,
        phases: Vec<ScalePhase>,
        iterations: usize,
        relative_residual: f64,
        converged: bool,
        pagerank_iterations: usize,
        graph_bytes_per_edge: f64,
        csr_bytes_per_edge: f64,
        csr_over_graph: f64,
    }
    /// Current resident set in bytes, from `/proc/self/status` (0 when
    /// the platform has no procfs).
    fn rss_bytes() -> u64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines().find(|l| l.starts_with("VmRSS:")).and_then(|l| {
                    l.split_whitespace()
                        .nth(1)
                        .and_then(|kb| kb.parse::<u64>().ok())
                })
            })
            .map(|kb| kb * 1024)
            .unwrap_or(0)
    }
    let e16_record: Option<ScaleRecord> = enabled(&filter, "e16_scale").then(|| {
        // Random-geometric at average degree 8 ⇒ m ≈ 4n (boundary cells
        // shave ~0.2%); 2.6M vertices lands safely above the 10M-edge
        // acceptance floor.
        let n: usize = if quick { 250_000 } else { 2_600_000 };
        let mut phases: Vec<ScalePhase> = Vec::new();
        let timed = |name: &'static str, phases: &mut Vec<ScalePhase>, f: &mut dyn FnMut()| {
            let t0 = Instant::now();
            f();
            phases.push(ScalePhase {
                name,
                ms: t0.elapsed().as_secs_f64() * 1000.0,
                rss_bytes: rss_bytes(),
            });
        };
        let mut g_opt: Option<parsdd_graph::Graph> = None;
        timed("generate", &mut phases, &mut || {
            g_opt = Some(parsdd_graph::generators::random_geometric(n, 8.0, 16));
        });
        let g = g_opt.expect("generated");
        let mut csr_opt: Option<parsdd_graph::Csr> = None;
        timed("lean_csr", &mut phases, &mut || {
            csr_opt = Some(parsdd_graph::Csr::from_graph(&g));
        });
        let csr = csr_opt.expect("csr");
        let graph_bpe = g.resident_bytes() as f64 / g.m().max(1) as f64;
        let csr_bpe = csr.bytes_per_edge();
        let pcsr_path = std::env::temp_dir().join(format!("parsdd_e16_{n}.pcsr"));
        timed("pcsr_write", &mut phases, &mut || {
            parsdd_graph::io::write_binary_csr_file(&csr, &pcsr_path).expect("pcsr write");
        });
        // PageRank over the zero-copy mmap view: the whole edge_map
        // traversal layer exercised off-heap. Fixed 5 iterations — this
        // phase times the SpMV sweeps, not convergence.
        let mut pagerank_iterations = 0usize;
        #[cfg(all(unix, target_endian = "little"))]
        timed("mmap_pagerank", &mut phases, &mut || {
            let mapped = parsdd_graph::MappedCsr::open(&pcsr_path).expect("mmap");
            let pr = parsdd_apps::pagerank(&mapped, 0.85, 0.0, 5);
            pagerank_iterations = pr.iterations;
        });
        #[cfg(not(all(unix, target_endian = "little")))]
        timed("streamed_pagerank", &mut phases, &mut || {
            let c = parsdd_graph::io::read_binary_csr_file(&pcsr_path).expect("pcsr read");
            let pr = parsdd_apps::pagerank(&c, 0.85, 0.0, 5);
            pagerank_iterations = pr.iterations;
        });
        let _ = std::fs::remove_file(&pcsr_path);
        drop(csr);
        let mut chain_opt = None;
        timed("chain_build", &mut phases, &mut || {
            chain_opt = Some(build_chain(&g, &ChainOptions::default()));
        });
        let chain = chain_opt.expect("chain");
        let b = {
            let mut b = workloads::rhs(g.n(), 33);
            let mean = b.iter().sum::<f64>() / b.len() as f64;
            b.iter_mut().for_each(|v| *v -= mean);
            b
        };
        let mut out_opt = None;
        timed("solve", &mut phases, &mut || {
            out_opt = Some(chain.solve(&b, 1e-8, 1000));
        });
        let out = out_opt.expect("solved");
        for p in &phases {
            eprintln!(
                "e16 {:>16}: {:10.1} ms  rss {:7.1} MiB",
                p.name,
                p.ms,
                p.rss_bytes as f64 / (1024.0 * 1024.0)
            );
        }
        eprintln!(
            "e16 solve: it={} res={:.3e} converged={}  bytes/edge graph {:.1} csr {:.1}",
            out.iterations, out.relative_residual, out.converged, graph_bpe, csr_bpe
        );
        ScaleRecord {
            workload: format!("random_geometric n={n} avg_degree=8 seed=16"),
            vertices: g.n(),
            edges: g.m(),
            phases,
            iterations: out.iterations,
            relative_residual: out.relative_residual,
            converged: out.converged,
            pagerank_iterations,
            graph_bytes_per_edge: graph_bpe,
            csr_bytes_per_edge: csr_bpe,
            csr_over_graph: csr_bpe / graph_bpe,
        }
    });

    // ----- JSON (hand-rolled; the workspace has no serde) -----
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"parsdd-bench-baseline-v9\",");
    // Committed baselines are currently produced on a 1-CPU container:
    // there the tN column measures scheduler overhead under time-slicing,
    // not parallel speedup — read it against machine.cpus.
    let _ = writeln!(
        json,
        "  \"note\": \"when machine.cpus == 1 the tN columns are time-sliced on one core; \
         they bound scheduling overhead and say nothing about speedup\","
    );
    let _ = writeln!(
        json,
        "  \"generated_by\": \"cargo run --profile opt-bench -p parsdd_bench --bin baseline\","
    );
    // The active --experiments filter, if any: a non-null value marks this
    // file as a partial rerun that should not be committed wholesale.
    let _ = writeln!(
        json,
        "  \"filter\": {},",
        match &filter {
            None => "null".to_string(),
            Some(keys) => format!("\"{}\"", keys.join(",")),
        }
    );
    let _ = writeln!(
        json,
        "  \"machine\": {{ \"cpus\": {hw}, \"os\": \"{}\", \"arch\": \"{}\", \"profile\": \"{}\" }},",
        std::env::consts::OS,
        std::env::consts::ARCH,
        if cfg!(debug_assertions) { "debug" } else { "release" }
    );
    let _ = writeln!(json, "  \"samples_per_point\": {SAMPLES},");
    let _ = writeln!(json, "  \"thread_widths\": [1, {wide}],");
    json.push_str("  \"experiments\": [\n");
    for (i, m) in results.iter().enumerate() {
        let t1 = m.timings.first().expect("width 1 timing");
        let tn = m.timings.last().expect("wide timing");
        let speedup = t1.1 / tn.1;
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", m.name);
        let _ = writeln!(json, "      \"metric\": \"{}\",", m.metric);
        let _ = writeln!(
            json,
            "      \"t1\": {{ \"threads\": {}, \"min_ms\": {:.3}, \"mean_ms\": {:.3} }},",
            t1.0, t1.1, t1.2
        );
        let _ = writeln!(
            json,
            "      \"tN\": {{ \"threads\": {}, \"min_ms\": {:.3}, \"mean_ms\": {:.3} }},",
            tn.0, tn.1, tn.2
        );
        let _ = writeln!(json, "      \"speedup_min\": {speedup:.3}");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < results.len() { "," } else { "" }
        );
        eprintln!(
            "{:28} 1t {:9.2} ms | {}t {:9.2} ms | speedup {:.2}x | {}",
            m.name, t1.1, tn.0, tn.1, speedup, m.metric
        );
    }
    json.push_str("  ],\n");

    // Multi-RHS sweep: time-per-RHS as a function of the block width k
    // (null when the --experiments filter skipped it).
    if let Some(mr_points) = &mr_points {
        json.push_str("  \"multi_rhs\": {\n");
        let _ = writeln!(
            json,
            "    \"workload\": \"grid2d {mr_side}x{mr_side} unit weights, {mr_rhs} Spielman-Srivastava projection rhs, tol 1e-8\","
        );
        let _ = writeln!(json, "    \"num_rhs\": {mr_rhs},");
        let _ = writeln!(json, "    \"threads\": 1,");
        json.push_str("    \"points\": [\n");
        for (i, &(k, min, mean)) in mr_points.iter().enumerate() {
            let _ = writeln!(
                json,
                "      {{ \"k\": {k}, \"min_ms\": {:.3}, \"mean_ms\": {:.3}, \"ms_per_rhs\": {:.3} }}{}",
                min,
                mean,
                min / mr_rhs as f64,
                if i + 1 < mr_points.len() { "," } else { "" }
            );
        }
        json.push_str("    ],\n");
        let per_rhs_k1 = mr_points
            .first()
            .map(|&(_, min, _)| min)
            .unwrap_or(f64::NAN);
        let per_rhs_k16 = mr_points.last().map(|&(_, min, _)| min).unwrap_or(f64::NAN);
        let _ = writeln!(
            json,
            "    \"per_rhs_ratio_k16_vs_k1\": {}",
            json_f64(per_rhs_k16 / per_rhs_k1)
        );
        json.push_str("  },\n");
    } else {
        json.push_str("  \"multi_rhs\": null,\n");
    }

    // Workload-zoo chain-quality stats (null when the --experiments
    // filter skipped the zoo). The zoo runs on the ambient pool, so its
    // host record carries that pool's width next to the CPU count — the
    // zoo is regenerated on its own, and the top-level `machine` may
    // describe an older run.
    if let Some(records) = &zoo_records {
        let _ = writeln!(
            json,
            "  \"zoo_host\": {{ \"cpus\": {hw}, \"pool_width\": {} }},",
            rayon::current_num_threads()
        );
        json.push_str("  \"zoo\": [\n");
        for (i, r) in records.iter().enumerate() {
            let q = &r.run.quality;
            let _ = writeln!(json, "    {{");
            let _ = writeln!(json, "      \"family\": \"{}\",", r.family);
            let _ = writeln!(json, "      \"tier\": \"{}\",", r.tier);
            let _ = writeln!(json, "      \"vertices\": {},", r.vertices);
            let _ = writeln!(json, "      \"edges\": {},", r.edges);
            let _ = writeln!(json, "      \"iterations\": {},", r.run.iterations);
            let _ = writeln!(
                json,
                "      \"relative_residual\": {},",
                json_f64(r.run.relative_residual)
            );
            let _ = writeln!(json, "      \"converged\": {},", r.run.converged);
            let _ = writeln!(
                json,
                "      \"breakdown\": {},",
                match &r.run.breakdown {
                    None => "null".to_string(),
                    Some(b) => format!("\"{b}\""),
                }
            );
            let _ = writeln!(json, "      \"stalled\": {},", r.run.stalled);
            let _ = writeln!(json, "      \"depth\": {},", q.depth);
            let _ = writeln!(json, "      \"bottom_vertices\": {},", q.bottom_vertices);
            let _ = writeln!(json, "      \"direct_bottom\": {},", q.direct_bottom);
            let _ = writeln!(
                json,
                "      \"work_per_application\": {},",
                json_f64(q.work_per_application)
            );
            let _ = writeln!(
                json,
                "      \"work_per_input_edge\": {},",
                json_f64(q.work_per_input_edge)
            );
            let _ = writeln!(
                json,
                "      \"recursion_leaves\": {},",
                json_f64(q.recursion_leaves)
            );
            let _ = writeln!(
                json,
                "      \"max_kappa_eff\": {},",
                json_f64(q.max_kappa_eff())
            );
            let _ = writeln!(json, "      \"kappa_clamp_hits\": {},", q.kappa_clamp_hits);
            let _ = writeln!(json, "      \"build_solve_ms\": {:.3}", r.build_solve_ms);
            let _ = writeln!(
                json,
                "    }}{}",
                if i + 1 < records.len() { "," } else { "" }
            );
        }
        json.push_str("  ],\n");
    } else {
        json.push_str("  \"zoo_host\": null,\n");
        json.push_str("  \"zoo\": null,\n");
    }

    // Mixed-precision A/B (null when the --experiments filter skipped
    // it): the headline ratios are derived in place so the acceptance
    // bars can be read off without arithmetic.
    if let Some(records) = &e15_records {
        json.push_str("  \"e15_precision\": [\n");
        for (i, r) in records.iter().enumerate() {
            let _ = writeln!(json, "    {{");
            let _ = writeln!(json, "      \"case\": \"{}\",", r.case);
            let _ = writeln!(json, "      \"vertices\": {},", r.vertices);
            let _ = writeln!(json, "      \"edges\": {},", r.edges);
            json.push_str("      \"points\": [\n");
            for (j, p) in r.points.iter().enumerate() {
                let _ = writeln!(
                    json,
                    "        {{ \"precision\": \"{}\", \"solve_min_ms\": {:.3}, \
                     \"solve_mean_ms\": {:.3}, \"iterations\": {}, \
                     \"relative_residual\": {}, \"resident_bytes\": {}, \
                     \"streamed_bytes_per_application\": {} }}{}",
                    p.precision,
                    p.solve_min_ms,
                    p.solve_mean_ms,
                    p.iterations,
                    json_f64(p.relative_residual),
                    p.resident_bytes,
                    json_f64(p.streamed_bytes_per_application),
                    if j + 1 < r.points.len() { "," } else { "" }
                );
            }
            json.push_str("      ],\n");
            let f64_pt = &r.points[0];
            let f32_pt = &r.points[1];
            let _ = writeln!(
                json,
                "      \"solve_speedup_f32\": {},",
                json_f64(f64_pt.solve_min_ms / f32_pt.solve_min_ms)
            );
            let _ = writeln!(
                json,
                "      \"resident_ratio_f32\": {}",
                json_f64(f32_pt.resident_bytes as f64 / f64_pt.resident_bytes as f64)
            );
            let _ = writeln!(
                json,
                "    }}{}",
                if i + 1 < records.len() { "," } else { "" }
            );
        }
        json.push_str("  ],\n");
    } else {
        json.push_str("  \"e15_precision\": null,\n");
    }

    // Scale demonstration (null when the --experiments filter skipped
    // it): per-phase wall time + resident memory of the ≥10M-edge
    // end-to-end run, plus the CSR-vs-Graph bytes-per-edge ratio the
    // refactor's ≤ 0.75× acceptance bar reads off.
    if let Some(r) = &e16_record {
        json.push_str("  \"e16_scale\": {\n");
        let _ = writeln!(json, "    \"workload\": \"{}\",", r.workload);
        let _ = writeln!(json, "    \"vertices\": {},", r.vertices);
        let _ = writeln!(json, "    \"edges\": {},", r.edges);
        json.push_str("    \"phases\": [\n");
        for (i, p) in r.phases.iter().enumerate() {
            let _ = writeln!(
                json,
                "      {{ \"name\": \"{}\", \"ms\": {:.3}, \"rss_bytes\": {} }}{}",
                p.name,
                p.ms,
                p.rss_bytes,
                if i + 1 < r.phases.len() { "," } else { "" }
            );
        }
        json.push_str("    ],\n");
        let _ = writeln!(json, "    \"solve_iterations\": {},", r.iterations);
        let _ = writeln!(
            json,
            "    \"relative_residual\": {},",
            json_f64(r.relative_residual)
        );
        let _ = writeln!(json, "    \"converged\": {},", r.converged);
        let _ = writeln!(
            json,
            "    \"pagerank_iterations\": {},",
            r.pagerank_iterations
        );
        let _ = writeln!(
            json,
            "    \"graph_bytes_per_edge\": {},",
            json_f64(r.graph_bytes_per_edge)
        );
        let _ = writeln!(
            json,
            "    \"csr_bytes_per_edge\": {},",
            json_f64(r.csr_bytes_per_edge)
        );
        let _ = writeln!(
            json,
            "    \"csr_over_graph\": {}",
            json_f64(r.csr_over_graph)
        );
        json.push_str("  },\n");
    } else {
        json.push_str("  \"e16_scale\": null,\n");
    }

    // Per-level work balance of the default chain on the E8/E9 workload
    // (the quantity the deep-chain refactor optimises): future PRs diff
    // these arrays to see where the W-cycle spends its flops, not just how
    // long the wall clock ran.
    let chain = build_chain(&grid96, &ChainOptions::default());
    let stats = chain.stats();
    json.push_str("  \"chain\": {\n");
    let _ = writeln!(json, "    \"workload\": \"grid2d 96x96 unit weights\",");
    let _ = writeln!(json, "    \"depth\": {},", chain.depth());
    let _ = writeln!(
        json,
        "    \"level_vertices\": {},",
        json_usize_array(&stats.level_vertices)
    );
    let _ = writeln!(
        json,
        "    \"level_edges\": {},",
        json_usize_array(&stats.level_edges)
    );
    let _ = writeln!(
        json,
        "    \"sparsifier_edges\": {},",
        json_usize_array(&stats.sparsifier_edges)
    );
    let _ = writeln!(json, "    \"kappas\": {},", json_f64_array(&stats.kappas));
    let _ = writeln!(
        json,
        "    \"tree_scales\": {},",
        json_f64_array(&stats.tree_scales)
    );
    let _ = writeln!(
        json,
        "    \"kappa_eff\": {},",
        json_f64_array(&stats.kappa_eff)
    );
    let _ = writeln!(
        json,
        "    \"inner_iterations\": {},",
        json_usize_array(&stats.inner_iterations)
    );
    let _ = writeln!(
        json,
        "    \"level_applications\": {},",
        json_f64_array(&stats.level_applications)
    );
    let _ = writeln!(
        json,
        "    \"level_work\": {},",
        json_f64_array(&stats.level_work)
    );
    let _ = writeln!(
        json,
        "    \"level_resident_bytes\": {},",
        json_usize_array(&stats.level_resident_bytes)
    );
    let _ = writeln!(json, "    \"resident_bytes\": {},", stats.resident_bytes);
    let _ = writeln!(
        json,
        "    \"streamed_bytes_per_application\": {},",
        json_f64(stats.streamed_bytes_per_application)
    );
    let _ = writeln!(
        json,
        "    \"work_per_application\": {},",
        json_f64(stats.work_per_application)
    );
    let _ = writeln!(
        json,
        "    \"recursion_leaves\": {},",
        json_f64(stats.recursion_leaves)
    );
    let _ = writeln!(json, "    \"direct_bottom\": {},", stats.direct_bottom);
    let _ = writeln!(
        json,
        "    \"bottom_envelope_nnz\": {}",
        stats.bottom_envelope_nnz
    );
    json.push_str("  }\n}\n");
    eprintln!(
        "chain: depth={} k={:?} work/app={:.3e} leaves={}",
        chain.depth(),
        stats.inner_iterations,
        stats.work_per_application,
        stats.recursion_leaves
    );

    std::fs::write(&out_path, json).expect("write baseline json");
    eprintln!("wrote {out_path} (cpus={hw}, wide width={wide})");
}
