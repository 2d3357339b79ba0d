//! Time-to-solution benchmark of the parsdd SDD solver.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-deep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process, one caller, a closed loop: each request builds the solver
//! for a generated graph and solves its right-hand sides through the
//! public front door, and the next request starts when the previous one
//! has been answered and checked. The pool width is the host's core
//! count. `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! same loop with spans recorded (alternating with untraced requests) and
//! then replays each layer through its public functions to print the
//! per-layer metrics. `METRICS.md` maps every metric to the call it
//! times. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod layers;
mod report;
mod request;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use parsdd_graph::Graph;
use report::{median, Metric};
use request::Outcome;
use trace::Tracer;
use workload::Workload;

const USAGE: &str =
    "usage: parsdd_perfbench --workload <grid-deep|rmat-reweight|smallworld-batch> \
--seed <u64> --seconds <n> --trace <0|1> [--tiny]";

/// Fewest measured requests per run, however short `--seconds` is.
const MIN_REQUESTS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
            (None, None, None, None, false);
        while let Some(flag) = it.next() {
            if flag == "--tiny" {
                tiny = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            tiny,
        })
    }
}

/// What the numbers were measured on.
struct Environment {
    nproc: usize,
    commit: String,
    llc: String,
}

impl Environment {
    /// Records the host, refusing settings that would change what is
    /// measured: a precision override (the benchmark measures the default
    /// f64 front door) or a thread count other than the host's cores.
    fn check() -> Result<Environment, String> {
        if let Ok(p) = std::env::var("PARSDD_PRECISION") {
            return Err(format!(
                "PARSDD_PRECISION={p} is set; the benchmark measures the default precision"
            ));
        }
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        if let Ok(t) = std::env::var("RAYON_NUM_THREADS") {
            if t.trim().parse::<usize>() != Ok(nproc) {
                return Err(format!(
                    "RAYON_NUM_THREADS={t} contradicts the pool width {nproc} (the core count)"
                ));
            }
        }
        Ok(Environment {
            nproc,
            commit: commit(),
            llc: last_level_cache(),
        })
    }

    fn json(&self, workload: Workload, seed: u64) -> String {
        format!(
            "\"workload\": \"{}\", \"seed\": {seed}, \"nproc\": {}, \"width\": {}, \"commit\": \"{}\", \"llc\": \"{}\"",
            workload.name(),
            self.nproc,
            self.nproc,
            self.commit,
            self.llc
        )
    }
}

/// The commit of the benchmarked tree, when it is a git checkout.
fn commit() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Size of the highest cache level of cpu0, as the kernel reports it.
fn last_level_cache() -> String {
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    (0..10)
        .filter_map(|i| {
            let dir = PathBuf::from(format!("/sys/devices/system/cpu/cpu0/cache/index{i}"));
            let level: u32 = read(dir.join("level"))?.parse().ok()?;
            Some((level, read(dir.join("size"))?))
        })
        .max_by_key(|(level, _)| *level)
        .map_or("unknown".into(), |(level, size)| format!("L{level} {size}"))
}

/// High-water resident memory of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The requests of one closed-loop run.
pub struct Run {
    /// Measured requests, with whether each was traced.
    pub samples: Vec<(Outcome, bool)>,
    /// Requests made, warm-up included.
    pub attempted: usize,
    /// Requests that failed the gate, warm-up included.
    pub failed: usize,
}

impl Run {
    /// Counts a request made (measured or not) and reports its failure.
    pub fn record(&mut self, outcome: &Outcome) {
        self.attempted += 1;
        if let Some(why) = &outcome.failure {
            self.failed += 1;
            eprintln!("request {} failed: {why}", self.attempted - 1);
        }
    }

    /// Median of `f` over the successful measured requests whose traced
    /// flag is `traced`, with the sample count.
    pub fn median(&self, traced: bool, f: impl Fn(&Outcome) -> f64) -> (f64, usize) {
        let values: Vec<f64> = self
            .samples
            .iter()
            .filter(|(o, t)| o.failure.is_none() && *t == traced)
            .map(|(o, _)| f(o))
            .collect();
        (median(&values), values.len())
    }
}

/// Runs the closed loop for `seconds`: one untimed warm-up request, then
/// requests back to back until the time is up, at least [`MIN_REQUESTS`]
/// of each kind were measured, and the measured requests make whole
/// cycles of the workload's inputs ([`Workload::cycle`]). Each request's
/// input is generated, with its reference, before the request starts.
/// With `alternate`, requests come in pairs on one input, untraced then
/// traced, so the two medians differ only by the tracing.
fn closed_loop(
    workload: Workload,
    topology: &Graph,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    alternate: bool,
) -> Run {
    let mut run = Run {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    tracer.set_enabled(false);
    let warm = request::run(&workload.input(topology, seed, 0), tracer, 0);
    run.record(&warm);
    let per_input = if alternate { 2 } else { 1 };
    let min = per_input * MIN_REQUESTS;
    let cycle = per_input * workload.cycle();
    let start = Instant::now();
    let mut id = 1u32;
    let mut input = None;
    while start.elapsed().as_secs_f64() < seconds
        || run.samples.len() < min
        || !run.samples.len().is_multiple_of(cycle)
    {
        let (index, traced) = if alternate {
            (u64::from(id).div_ceil(2), id.is_multiple_of(2))
        } else {
            (u64::from(id), false)
        };
        if !traced {
            input = Some(workload.input(topology, seed, index));
        }
        tracer.set_enabled(traced);
        let outcome = request::run(input.as_ref().expect("generated above"), tracer, id);
        run.record(&outcome);
        run.samples.push((outcome, traced));
        id += 1;
    }
    tracer.set_enabled(false);
    run
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = match Environment::check() {
        Ok(env) => env,
        Err(e) => {
            eprintln!("refusing to run: {e}");
            return ExitCode::from(2);
        }
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(env.nproc)
        .build()
        .expect("a thread pool of the host's width builds");
    let header = env.json(args.workload, args.seed);
    println!(
        "# {header}, \"trace\": {}, \"tiny\": {}",
        args.trace, args.tiny
    );
    let (metrics, run) = pool.install(|| {
        let topology = args.workload.topology(args.tiny);
        println!(
            "# topology: {} vertices, {} edges; {} rhs per request",
            topology.n(),
            topology.m(),
            args.workload.rhs_per_request()
        );
        let mut tracer = Tracer::new(false);
        let mut run = closed_loop(
            args.workload,
            &topology,
            args.seed,
            args.seconds,
            &mut tracer,
            args.trace,
        );
        let metrics = if args.trace {
            let metrics = layers::run(
                args.workload,
                &args.workload.input(&topology, args.seed, 0),
                &mut run,
                &mut tracer,
            );
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!(
                    "trace-{}-seed{}.jsonl",
                    args.workload.name(),
                    args.seed
                ));
            match tracer.write_jsonl(&path, &header) {
                Ok(()) => println!("# spans written to {}", path.display()),
                Err(e) => eprintln!("warning: spans not written to {}: {e}", path.display()),
            }
            metrics
        } else {
            end_to_end(&run)
        };
        (metrics, run)
    });
    let worst =
        |f: fn(&Outcome) -> f64| run.samples.iter().map(|(o, _)| f(o)).fold(0.0f64, f64::max);
    println!(
        "# gate: largest recomputed residual {:.3e} (bound {:.0e}), largest A-norm error {:.3e} (bound {:.0e})",
        worst(|o| o.max_residual),
        request::RESIDUAL_BOUND,
        worst(|o| o.max_anorm_error),
        request::ANORM_BOUND
    );
    report::print(&metrics, run.attempted, run.failed);
    ExitCode::SUCCESS
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(run: &Run) -> Vec<Metric> {
    let (total, n) = run.median(false, |o| o.total_s);
    let (setup, _) = run.median(false, |o| o.setup_s);
    let (per_rhs, _) = run.median(false, |o| o.solve_s / o.k as f64);
    vec![
        Metric::new("total_s", total, "s", n),
        Metric::new("setup_s", setup, "s", n),
        Metric::new("solve_per_rhs_s", per_rhs, "s", n),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", 1),
    ]
}
