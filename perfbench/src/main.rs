//! perfbench: the end-to-end and per-layer benchmark of the
//! treelet-prefetching stack. See README.md for the workloads, the
//! metrics and the layer → end-to-end map.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload primary_prefetch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Scratch files (caches, stores, span
//! dumps) go under `.perfbench/` there. The last line of standard
//! output is the result object; the line before it carries the seed,
//! digests and sample counts, which are recorded but not gated.

// Cell closures return the simulator's own `SimError`, whose size is
// the program's choice; one result per cell makes it irrelevant here.
#![allow(clippy::result_large_err)]

mod layers;
mod prepare_cold;
mod report;
mod served_jobs;
mod sim_suite;
mod stats;
mod trace;

use rt_served::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

const WORKLOADS: [&str; 4] = [
    "primary_prefetch",
    "diffuse_baseline",
    "prepare_cold",
    "served_jobs",
];

/// Input sizes. `PAPER` is what the benchmark measures; `SMOKE` is a
/// tiny stand-in that runs every code path in seconds, for tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Scene detail of the simulation and preparation workloads.
    pub detail: f32,
    /// Square ray resolution of the simulation and preparation workloads.
    pub res: u32,
    /// Scene detail of a served job.
    pub served_detail: f32,
    /// Square ray resolution of a served job.
    pub served_res: u32,
    /// Rounds per client; a round pairs up all 16 scenes into 8 specs.
    pub served_rounds: usize,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
    /// `served_jobs` set-up repetitions before each pass.
    pub served_setup_reps: usize,
}

impl Scale {
    pub const PAPER: Scale = Scale {
        detail: 1.0,
        res: 32,
        served_detail: 0.3,
        served_res: 16,
        served_rounds: 2,
        setup_reps: 15,
        served_setup_reps: 12,
    };
    pub const SMOKE: Scale = Scale {
        detail: 0.05,
        res: 8,
        served_detail: 0.05,
        served_res: 4,
        served_rounds: 1,
        setup_reps: 2,
        served_setup_reps: 1,
    };
}

/// Everything a workload needs to know about its run.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub budget: Duration,
    pub traced: bool,
    pub scale: Scale,
    /// Worker threads and client connections: the machine's cores.
    pub nproc: usize,
    /// This run's scratch directory, removed when the run ends.
    pub work: PathBuf,
    pub tracer: Tracer,
}

/// The walls of a workload's passes, in seconds.
#[derive(Debug, Default)]
pub struct Walls {
    /// The passes the workload reports: every pass of an untraced run,
    /// the traced passes of a traced run.
    pub measured: Vec<f64>,
    /// A traced run's untraced passes, which price the tracing.
    pub untraced: Vec<f64>,
}

impl Walls {
    /// Traced minus untraced median pass time.
    pub fn trace_overhead_s(&self) -> f64 {
        stats::median(&self.measured) - stats::median(&self.untraced)
    }
}

impl Ctx {
    /// Runs `pass` until the budget has elapsed and at least `min`
    /// passes were measured, or until a pass returns `None`. Each pass
    /// gets the tracer to record under and returns its wall seconds. An
    /// untraced run measures every pass. A traced run alternates an
    /// untraced and a traced pass, so every workload prices its tracing
    /// the same way.
    pub fn measure(&self, min: usize, mut pass: impl FnMut(&Tracer) -> Option<f64>) -> Walls {
        let off = Tracer::off();
        let mut walls = Walls::default();
        let start = Instant::now();
        while walls.measured.len() < min || start.elapsed() < self.budget {
            if self.traced {
                match pass(&off) {
                    Some(wall) => walls.untraced.push(wall),
                    None => break,
                }
            }
            match pass(&self.tracer) {
                Some(wall) => walls.measured.push(wall),
                None => break,
            }
        }
        walls
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".perfbench");
    let work = root.join(format!("run-{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        traced: args.trace,
        scale: if args.smoke {
            Scale::SMOKE
        } else {
            Scale::PAPER
        },
        nproc,
        work,
        tracer: Tracer::new(args.trace, args.seed ^ u64::from(std::process::id())),
    };
    let mut report = match args.workload.as_str() {
        "primary_prefetch" => sim_suite::run(&ctx, sim_suite::Kind::PrimaryPrefetch),
        "diffuse_baseline" => sim_suite::run(&ctx, sim_suite::Kind::DiffuseBaseline),
        "prepare_cold" => prepare_cold::run(&ctx),
        _ => served_jobs::run(&ctx),
    };
    report.info("workload", Json::str(&args.workload));
    report.info("seed", Json::num(args.seed));
    report.info("nproc", Json::num(nproc as u64));
    report.info("traced", Json::Bool(args.trace));
    report.layer("failed_frac", report.failed_frac());
    report.e2e("peak_rss_mb", layers::peak_rss_mb());
    if ctx.traced {
        report.layer("trace.spans", ctx.tracer.spans().len() as f64);
        let dump = root.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = ctx.tracer.write(&dump) {
            report.fail(format!("writing {}: {e}", dump.display()));
        }
        for (name, (calls, total, own)) in ctx.tracer.summary() {
            eprintln!(
                "span {name:<28} calls {calls:>6}  total {total:>10.3} ms  self {own:>10.3} ms"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.work);
    let result = report.result_line(args.trace);
    println!("{}", report.info_line());
    println!("{result}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
