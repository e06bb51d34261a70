//! `primary_prefetch` and `diffuse_baseline`: the 16-scene suite,
//! loaded warm from a preparation cache and simulated pass after pass
//! through `Suite::run_all_robust_with_jobs`.
//!
//! Loads and measured passes run on one thread. On a shared host of few
//! cores, a two-thread warm load swung 1.8× from run to run with the
//! host's state while a serial load stayed within about 10%, and a
//! two-thread pass drifted with whichever core was contended. The
//! `jobs = nproc` passes still run, as checks and for the runner layer.

use crate::layers;
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Ctx;
use rt_bench::{PrepareOptions, SceneOutcome, Suite};
use rt_scene::{Workload, WorkloadKind};
use rt_served::Json;
use std::sync::Mutex;
use std::time::Instant;
use treelet_rt::{plan_schedule, BvhCache, SimConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Paper camera rays under the default treelet prefetcher. The
    /// rays are deterministic, so the seed changes nothing here.
    PrimaryPrefetch,
    /// Seeded diffuse bounce rays under the paper baseline: no
    /// prefetcher, incoherent rays, about 4x the L1 demand misses.
    DiffuseBaseline,
}

impl Kind {
    pub fn setup(self, ctx: &Ctx) -> (Workload, SimConfig) {
        let res = ctx.scale.res;
        match self {
            Kind::PrimaryPrefetch => (
                Workload::new(WorkloadKind::Primary, res, res),
                SimConfig::paper_treelet_prefetch(),
            ),
            Kind::DiffuseBaseline => (
                Workload::new(WorkloadKind::Diffuse, res, res).with_seed(ctx.seed),
                SimConfig::paper_baseline(),
            ),
        }
    }
}

/// One suite pass: per-cell (cycles, state digest) in suite order, the
/// results, each cell's host ms, and the pass's wall seconds.
struct Pass {
    cells: Vec<(u64, u64)>,
    outcomes: Vec<SceneOutcome>,
    cell_ms: Vec<f64>,
    wall_s: f64,
}

/// `jobs = nproc` passes per run: checks against the serial passes, and
/// the runner layer's samples in a traced run.
const PARALLEL_PASSES: usize = 3;

fn run_pass(tracer: &Tracer, suite: &Suite, config: &SimConfig, jobs: usize) -> Pass {
    let cell_ms = Mutex::new(vec![0.0; suite.benches().len()]);
    let t0 = Instant::now();
    let outcomes = tracer.span("suite.pass", None, |pass| {
        suite.run_all_robust_with_jobs(jobs, |b| {
            let c0 = Instant::now();
            let r = tracer.span("core.sim.run", pass, |_| b.try_run(config));
            let i = suite
                .benches()
                .iter()
                .position(|x| std::ptr::eq(x, b))
                .expect("bench from this suite");
            cell_ms.lock().expect("cell timer poisoned")[i] = c0.elapsed().as_secs_f64() * 1e3;
            r
        })
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cells = outcomes
        .iter()
        .map(|o| o.result().map_or((0, 0), |r| (r.cycles, r.state_digest)))
        .collect();
    Pass {
        cells,
        outcomes,
        cell_ms: cell_ms.into_inner().expect("cell timer poisoned"),
        wall_s,
    }
}

/// Each cell's fastest host ms over all passes of the run. Interference
/// only ever adds time, and on a shared host it comes in phases of
/// seconds to a minute that can cover most of a run, which moved the
/// median pass by a fifth from run to run. A cell's best time only
/// needs one quiet moment.
fn best_cell_ms(passes: &[Pass]) -> Vec<f64> {
    let cells = passes.first().map_or(0, |p| p.cell_ms.len());
    (0..cells)
        .map(|i| {
            passes
                .iter()
                .map(|p| p.cell_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

fn check_pass(
    report: &mut Report,
    suite: &Suite,
    pass: &Pass,
    reference: &[(u64, u64)],
    what: &str,
) {
    for (i, o) in pass.outcomes.iter().enumerate() {
        let scene = suite.benches()[i].scene();
        match o {
            SceneOutcome::Failed { reason, .. } => {
                report.op(false, || format!("{what}: {scene} failed: {reason}"))
            }
            SceneOutcome::Completed { result, .. } => report
                .op((result.cycles, result.state_digest) == reference[i], || {
                    format!("{what}: {scene} cycles or state digest differ from the first pass")
                }),
        }
    }
}

pub fn run(ctx: &Ctx, kind: Kind) -> Report {
    let mut report = Report::default();
    let (workload, config) = kind.setup(ctx);
    let detail = ctx.scale.detail;
    let cache_dir = ctx.work.join("bvh-cache");
    let open = |report: &mut Report| match BvhCache::open(&cache_dir) {
        Ok(cache) => Some(cache),
        Err(e) => {
            report.op(false, || format!("opening {}: {e}", cache_dir.display()));
            None
        }
    };
    let options = |cache| PrepareOptions {
        jobs: Some(1),
        quiet: true,
        cache,
    };

    // Untimed pre-pass: a cold build fills the cache, as a first
    // `RT_BVH_CACHE` run would. It runs serially so that the process's
    // peak memory, which it sets, does not depend on which builds
    // happened to overlap.
    let cold_fnvs = {
        let cold = Suite::prepare_with(detail, workload, &options(open(&mut report)));
        layers::bench_fnvs(&cold, detail, &workload)
    };

    // Set-up: warm loads from the filled cache, each one checked.
    let mut setup_s = Vec::new();
    let mut suite = None;
    for _ in 0..ctx.scale.setup_reps {
        drop(suite.take());
        let opts = options(open(&mut report));
        let t0 = Instant::now();
        let warm = Suite::prepare_with(detail, workload, &opts);
        setup_s.push(t0.elapsed().as_secs_f64());
        let cache = opts.cache.as_ref().expect("cache opened");
        report.op(cache.hits() == 16 && cache.misses() == 0, || {
            format!(
                "warm set-up: {} hits, {} misses (want 16, 0)",
                cache.hits(),
                cache.misses()
            )
        });
        report.layer("core.prepare.cache_hits", cache.hits() as f64);
        report.layer("core.prepare.cache_misses", cache.misses() as f64);
        report.op(
            layers::bench_fnvs(&warm, detail, &workload) == cold_fnvs,
            || "warm-loaded benches differ from the cold-built ones".to_string(),
        );
        suite = Some(warm);
    }
    let suite = suite.expect("at least one set-up repetition");

    // Measured passes. Every pass, traced or not, is checked and its
    // cells timed.
    let mut passes: Vec<Pass> = Vec::new();
    let walls = ctx.measure(3, |tracer| {
        let pass = run_pass(tracer, &suite, &config, 1);
        let wall = pass.wall_s;
        passes.push(pass);
        Some(wall)
    });
    let reference = passes[0].cells.clone();
    for (i, pass) in passes.iter().enumerate() {
        check_pass(&mut report, &suite, pass, &reference, &format!("pass {i}"));
    }
    let parallel: Vec<Pass> = (0..PARALLEL_PASSES)
        .map(|_| run_pass(&Tracer::off(), &suite, &config, ctx.nproc))
        .collect();
    for pass in &parallel {
        check_pass(&mut report, &suite, pass, &reference, "jobs = nproc pass");
    }

    let cell_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cell_ms.iter().copied())
        .collect();
    // The reported pass is the best-case one: every cell at its best.
    let best_ms = best_cell_ms(&passes);
    let wall_s = best_ms.iter().sum::<f64>() / 1e3;
    let cycles: u64 = reference.iter().map(|c| c.0).sum();
    report.e2e("setup_s", median(&setup_s));
    report.e2e("wall_s", wall_s);
    report.e2e("sim_cycles", cycles as f64);
    report.e2e("sim_mcycles_per_s", cycles as f64 / wall_s / 1e6);
    report.e2e("job_ms_p50", percentile(&best_ms, 50.0));
    report.e2e("job_ms_p90", percentile(&best_ms, 90.0));
    report.e2e("jobs_per_s", best_ms.len() as f64 / wall_s);
    report.info(
        "sim_digest",
        Json::str(format!(
            "{:#018x}",
            layers::sim_digest(reference.iter().map(|c| c.1))
        )),
    );
    report.info("setup_s", crate::report::timing_info(&setup_s));
    report.info("wall_s", crate::report::timing_info(&walls.measured));
    report.info("job_ms", crate::report::timing_info(&cell_ms));
    report.layer("passes", walls.measured.len() as f64);

    if ctx.traced {
        report.layer("trace.overhead_s", walls.trace_overhead_s());
        traced_layers(ctx, &mut report, kind, &suite, &passes, &parallel);
    }
    report
}

/// The traced run's extra passes, after the measured ones: staged
/// preparation, serial reruns with idle-skip off and (primary only)
/// under the baseline, functional traversal and memory-system replay.
/// The runner layer is read from the `jobs = nproc` passes.
fn traced_layers(
    ctx: &Ctx,
    report: &mut Report,
    kind: Kind,
    suite: &Suite,
    passes: &[Pass],
    parallel: &[Pass],
) {
    let tracer = &ctx.tracer;
    let (workload, config) = kind.setup(ctx);
    let config = &config;
    let untraced = Tracer::off();

    match BvhCache::open(ctx.work.join("bvh-cache")) {
        Ok(cache) => {
            layers::staged_prepare(
                tracer,
                report,
                ctx.scale.detail,
                workload,
                config.treelet_bytes,
                &cache,
            );
        }
        Err(e) => report.op(false, || format!("reopening the cache: {e}")),
    }

    // Simulation host time, per traced pass (medians over passes).
    let per_pass_run_ms: Vec<f64> = passes.iter().map(|p| p.cell_ms.iter().sum()).collect();
    let cycles: u64 = passes[0].cells.iter().map(|c| c.0).sum();
    let run_ms = median(&per_pass_run_ms);
    report.layer("core.sim.run_ms", run_ms);
    report.layer("core.sim.ns_per_cycle", run_ms * 1e6 / cycles.max(1) as f64);
    let workers = plan_schedule(ctx.nproc, &suite.scene_costs()).workers();
    report.layer("core.runner.workers", workers as f64);
    let busy: Vec<f64> = parallel
        .iter()
        .map(|p| p.cell_ms.iter().sum::<f64>() / (p.wall_s * 1e3 * workers as f64))
        .collect();
    report.layer("core.runner.busy_frac", median(&busy));
    let max_cell: Vec<f64> = parallel
        .iter()
        .map(|p| p.cell_ms.iter().copied().fold(0.0, f64::max))
        .collect();
    report.layer("core.runner.max_cell_ms", median(&max_cell));

    // Serial reruns of the same cells: idle-skip off, and (primary only)
    // the paper baseline, against the measured passes.
    let no_skip = SimConfig {
        idle_skip: false,
        ..config.clone()
    };
    let skip_off = tracer.span("rerun.idle_skip_off", None, |_| {
        run_pass(&untraced, suite, &no_skip, 1)
    });
    check_pass(
        report,
        suite,
        &skip_off,
        &passes[0].cells,
        "idle-skip-off pass",
    );
    report.layer(
        "core.sim.idle_skip_ratio",
        run_ms / skip_off.cell_ms.iter().sum::<f64>(),
    );
    if kind == Kind::PrimaryPrefetch {
        let baseline = tracer.span("rerun.baseline", None, |_| {
            run_pass(&untraced, suite, &SimConfig::paper_baseline(), 1)
        });
        for o in &baseline.outcomes {
            report.op(o.is_completed(), || "baseline rerun failed".to_string());
        }
        report.layer(
            "core.prefetch.host_ratio",
            run_ms / baseline.cell_ms.iter().sum::<f64>(),
        );
    }

    let results: Vec<_> = passes[0]
        .outcomes
        .iter()
        .filter_map(SceneOutcome::result)
        .collect();
    layers::gpu_stats(report, &results);
    let (nodes, rays) = layers::functional_traversal(tracer, suite, config);
    report.layer(
        "core.traversal.trace_ms",
        tracer.total_ms("core.traversal.trace"),
    );
    report.layer(
        "core.traversal.nodes_per_ray",
        nodes as f64 / rays.max(1) as f64,
    );
    match layers::memsys_replay(tracer, suite, config) {
        Some(ns) => report.layer("gpu.memsys.replay_ns_per_access", ns),
        None => report.op(false, || "memory-system replay did not drain".to_string()),
    }
}
