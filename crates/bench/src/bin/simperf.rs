//! `simperf` — wall-clock smoke benchmark of the simulator itself.
//!
//! Every figure in the reproduction is bottlenecked on how fast the
//! cycle-level simulator runs, so this binary tracks the performance
//! trajectory: it times the full sixteen-scene suite end-to-end under
//! the baseline and prefetch configurations, micro-times one scene's
//! hot simulation kernels, and cross-checks the determinism contract
//! the optimized data structures must uphold — per-scene state digests
//! must be bit-identical between `--jobs 1` and a parallel run, and
//! between the idle-skipping cycle loop and the naive cycle-by-cycle
//! reference loop (`idle_skip = false`).
//!
//! Suite timings are the **median of `--reps` repetitions** (default 5,
//! minimum 5 unless lowered explicitly) with the minimum alongside; the
//! three modes are interleaved rep by rep so drift hits them equally,
//! and one untimed warm-up run absorbs cold caches. Each repetition
//! also records per-cell wall times, and the JSON captures the
//! cost-model scheduler's plan (workers, inline cells, chunks) so a
//! perf record explains *how* the suite was scheduled, not just how
//! long it took.
//!
//! Worker counts come from the cost-model scheduler: the parallel mode
//! requests `default_jobs_for(scene count)` (so `RT_JOBS` overrides it)
//! and the scheduler clamps to the machine's cores — the old behaviour
//! of forcing four workers made the parallel mode *slower* than serial
//! on small runners by pure context-switch overhead. `--gate-parallel`
//! turns that regression into a hard failure: the run exits nonzero if
//! the parallel median exceeds the serial median for any config.
//!
//! It also times suite **preparation** three ways — serial cold (per
//! scene), parallel cold through the cost-model scheduler, and warm
//! from a throwaway BVH artifact cache — demanding three-way
//! bit-identity; `--gate-prep` turns warm-slower-than-cold into a
//! hard failure.
//!
//! The **prefetch wall** is recorded as two ratios of best-case serial
//! suite times (each cell's fastest of `--reps` runs, summed, with the
//! modes interleaved per cell): prefetch over baseline host time, and
//! idle-skip on over off under prefetch. `--gate-prefetch` fails the
//! run when either exceeds its ceiling ([`HOST_RATIO_CEILING`],
//! [`IDLE_SKIP_RATIO_CEILING`]), so both can only improve.
//!
//! Writes `BENCH_simperf.json` in the current directory (override with
//! `--out PATH`) and exits nonzero on any digest mismatch, so CI can
//! run it as a smoke job and archive the JSON as the perf record.
//!
//! Scene detail defaults to 0.1 with a 16×16 primary-ray workload (CI
//! smoke scale); `TREELET_DETAIL` or `--detail` raises it for deeper
//! local runs. The preparation benchmark ignores that knob and always
//! builds at full detail 1.0, where cache wins are representative.

use rt_bench::microbench::Group;
use rt_bench::{
    default_jobs_for, encode_prepared_bench, parse_detail_override, plan_schedule, run_weighted,
    Bench, BvhCache, PrepareOptions, Schedule, SimConfig, SimResult, Suite,
};
use rt_gpu_sim::fnv1a64;
use rt_scene::{SceneId, Workload, WorkloadKind};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Median and minimum of a set of repeated wall-time samples.
#[derive(Clone, Copy)]
struct WallStats {
    median_ms: f64,
    min_ms: f64,
}

/// One configuration's suite timings and determinism verdicts.
struct ConfigReport {
    name: &'static str,
    jobs1: WallStats,
    parallel: WallStats,
    no_idle_skip: WallStats,
    digests_match_across_jobs: bool,
    digests_match_without_idle_skip: bool,
    /// Per scene: cycles, digest, and the serial per-cell wall stats.
    scenes: Vec<(SceneId, u64, u64, WallStats)>,
}

fn main() -> ExitCode {
    let mut out = String::from("BENCH_simperf.json");
    // An unparseable TREELET_DETAIL is a hard error (exit 2), not a
    // silent fall-through to the default: a CI job that typos the
    // override must not quietly benchmark the wrong scale.
    let env_detail = std::env::var("TREELET_DETAIL").ok();
    let mut detail: f32 = match parse_detail_override(env_detail.as_deref()) {
        Ok(d) => d.unwrap_or(0.1),
        Err(why) => {
            eprintln!("error: TREELET_DETAIL: {why}");
            return ExitCode::from(2);
        }
    };
    let mut reps: usize = 5;
    let mut jobs_override: Option<usize> = None;
    let mut gate_parallel = false;
    let mut gate_prep = false;
    let mut gate_prefetch = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(path) => out = path,
                None => return usage("--out needs a path"),
            },
            "--detail" => match args.next().and_then(|v| v.parse().ok()) {
                Some(d) if d > 0.0 => detail = d,
                _ => return usage("--detail needs a positive number"),
            },
            "--reps" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => reps = n,
                _ => return usage("--reps needs a positive integer"),
            },
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => jobs_override = Some(n),
                _ => return usage("--jobs needs a positive integer"),
            },
            "--gate-parallel" => gate_parallel = true,
            "--gate-prep" => gate_prep = true,
            "--gate-prefetch" => gate_prefetch = true,
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let workload = Workload::new(WorkloadKind::Primary, 16, 16);

    // Preparation wall-clock: serial cold (per-scene timed, populating
    // a throwaway cache), parallel cold through the cost-model
    // scheduler, and cache-warm — all three must be bit-identical.
    // Always measured at full detail, independent of the simulation's
    // smoke-scale `detail`: cache wins only matter on real scenes.
    let prep_jobs = jobs_override.unwrap_or_else(|| default_jobs_for(SceneId::ALL.len()));
    let prep = run_prepare_bench(PREP_DETAIL, workload, prep_jobs);
    println!(
        "prepare:  detail {PREP_DETAIL}   cold {:.1} ms   parallel jobs{prep_jobs} {:.1} ms   warm {:.1} ms \
         ({} hit(s), {} miss(es))   digests {}",
        prep.cold_ms,
        prep.parallel_ms,
        prep.warm_ms,
        prep.warm_hits,
        prep.warm_misses,
        verdict(prep.digests_match),
    );

    let suite = Suite::prepare(detail, workload);
    let jobs = jobs_override.unwrap_or_else(|| default_jobs_for(suite.benches().len()));
    let costs = suite.scene_costs();
    let plan = plan_schedule(jobs, &costs);
    println!(
        "schedule: {jobs} job(s) requested -> {} worker(s), {} inline cell(s), {} chunk(s)",
        plan.workers(),
        plan.inline_cells().len(),
        plan.chunks().len(),
    );

    let mut reports = Vec::new();
    let mut all_clean = true;
    for (name, config) in [
        ("baseline", SimConfig::paper_baseline()),
        ("prefetch", SimConfig::paper_treelet_prefetch()),
    ] {
        let report = run_config(&suite, name, &config, jobs, reps);
        all_clean &= report.digests_match_across_jobs && report.digests_match_without_idle_skip;
        reports.push(report);
    }
    let wall = PrefetchWall::measure(&suite, reps);
    println!(
        "prefetch wall: prefetch/baseline host {:.3} (ceiling {HOST_RATIO_CEILING})   \
         idle-skip on/off under prefetch {:.3} (ceiling {IDLE_SKIP_RATIO_CEILING})",
        wall.host_ratio, wall.idle_skip_ratio,
    );

    // Hot-kernel microbench: one mid-sized scene simulated end-to-end,
    // with and without the prefetcher, plus the naive loop for scale.
    let group = Group::new("simperf")
        .samples(5)
        .sample_time(Duration::from_millis(50));
    let bench = suite
        .benches()
        .iter()
        .find(|b| b.scene() == SceneId::Bunny)
        .expect("suite contains BUNNY");
    let baseline = SimConfig::paper_baseline();
    let prefetch = SimConfig::paper_treelet_prefetch();
    let mut naive = prefetch.clone();
    naive.idle_skip = false;
    let kernels = [
        ("sim_baseline", group.bench("sim_baseline", || bench.run(&baseline).cycles)),
        ("sim_prefetch", group.bench("sim_prefetch", || bench.run(&prefetch).cycles)),
        (
            "sim_prefetch_no_idle_skip",
            group.bench("sim_prefetch_no_idle_skip", || bench.run(&naive).cycles),
        ),
    ];

    let json = render_json(detail, jobs, reps, &plan, &costs, &prep, &reports, &wall, &kernels);
    // Atomic write-then-rename: CI archives this file, and a benchmark
    // process killed mid-write must never leave a torn perf record that
    // later tooling would parse as a regression.
    if let Err(e) = treelet_rt::write_atomic(std::path::Path::new(&out), json.as_bytes()) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {out}");

    if !all_clean {
        eprintln!("error: state digest mismatch — see {out}");
        return ExitCode::FAILURE;
    }
    if !prep.digests_match {
        eprintln!("error: preparation digest mismatch (cold vs parallel vs warm) — see {out}");
        return ExitCode::FAILURE;
    }
    println!("digest cross-checks clean (jobs 1 vs {jobs}, idle-skip on vs off, prep cold/parallel/warm)");
    if gate_prep {
        if prep.warm_ms > prep.cold_ms {
            eprintln!(
                "error: cache-warm preparation regressed: warm {:.3} ms > cold {:.3} ms",
                prep.warm_ms, prep.cold_ms
            );
            return ExitCode::FAILURE;
        }
        println!("prep gate clean (warm {:.1} ms <= cold {:.1} ms)", prep.warm_ms, prep.cold_ms);
    }
    if gate_prefetch {
        if wall.host_ratio > HOST_RATIO_CEILING || wall.idle_skip_ratio > IDLE_SKIP_RATIO_CEILING {
            eprintln!(
                "error: prefetch wall regressed: prefetch/baseline host {:.3} (ceiling \
                 {HOST_RATIO_CEILING}), idle-skip on/off {:.3} (ceiling {IDLE_SKIP_RATIO_CEILING})",
                wall.host_ratio, wall.idle_skip_ratio
            );
            return ExitCode::FAILURE;
        }
        println!("prefetch gate clean (both ratios under their ceilings)");
    }
    if gate_parallel {
        for r in &reports {
            if r.parallel.median_ms > r.jobs1.median_ms {
                eprintln!(
                    "error: parallel regression in `{}`: median jobs{jobs} \
                     {:.3} ms > median jobs1 {:.3} ms",
                    r.name, r.parallel.median_ms, r.jobs1.median_ms
                );
                return ExitCode::FAILURE;
            }
        }
        println!("parallel gate clean (median parallel <= median jobs1 for every config)");
    }
    ExitCode::SUCCESS
}

/// `--gate-prefetch` ceiling on prefetch ÷ baseline host time. Thirty
/// runs on a 2-core x86-64 VM measured 1.11–1.32 (1.50–1.67 before the
/// event-driven voter); the ceiling is the highest plus a 10% margin.
const HOST_RATIO_CEILING: f64 = 1.45;

/// `--gate-prefetch` ceiling on idle-skip on ÷ off host time under
/// prefetch. The same thirty runs measured 0.75–0.86 (1.10–1.15
/// before, when idle-skip slowed prefetch runs down); the ceiling is
/// the highest plus a 10% margin.
const IDLE_SKIP_RATIO_CEILING: f64 = 0.95;

/// The prefetch wall as two ratios of best-case serial suite times.
struct PrefetchWall {
    /// Prefetch ÷ baseline host time.
    host_ratio: f64,
    /// Idle-skip on ÷ off host time, under prefetch.
    idle_skip_ratio: f64,
}

impl PrefetchWall {
    /// Times every cell under the baseline, prefetch and prefetch with
    /// idle-skip off back to back, `rounds` times, and compares each
    /// mode's best-case suite time (each cell's fastest run, summed).
    /// A shared host slows down in phases far longer than one cell, so
    /// interleaving per cell exposes the three modes to the same phases,
    /// where suite-level interleaving let one phase land on one mode.
    fn measure(suite: &Suite, rounds: usize) -> PrefetchWall {
        let prefetch = SimConfig::paper_treelet_prefetch();
        let modes = [
            SimConfig::paper_baseline(),
            SimConfig {
                idle_skip: false,
                ..prefetch.clone()
            },
            prefetch,
        ];
        let mut best = [[f64::INFINITY; 3]].repeat(suite.benches().len());
        for _ in 0..rounds {
            for (bench, cell) in suite.benches().iter().zip(&mut best) {
                for (config, ms) in modes.iter().zip(cell.iter_mut()) {
                    let t0 = Instant::now();
                    bench.run(config);
                    *ms = ms.min(t0.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
        let total = |mode: usize| best.iter().map(|cell| cell[mode]).sum::<f64>();
        PrefetchWall {
            host_ratio: total(2) / total(0),
            idle_skip_ratio: total(2) / total(1),
        }
    }
}

/// Detail level for the preparation benchmark. Pinned at full scene
/// detail so `prep_ms_*` reflects real build cost even when the
/// simulation itself runs at smoke scale.
const PREP_DETAIL: f32 = 1.0;

/// Preparation wall-clock report: serial cold build, parallel cold
/// build, cache-warm rebuild, and whether all three are bit-identical
/// under the preparation codec.
struct PrepReport {
    cold_ms: f64,
    parallel_ms: f64,
    warm_ms: f64,
    warm_hits: u64,
    warm_misses: u64,
    digests_match: bool,
    /// Per scene: cold (serial, uncached-path) build wall time.
    scene_ms: Vec<(SceneId, f64)>,
}

/// Times suite preparation three ways against a throwaway cache
/// directory: a serial cold pass (timed per scene, populating the
/// cache exactly as the production path would), a parallel cold pass
/// through the cost-model scheduler with no cache, and a warm pass
/// that must serve every scene from the cache.
fn run_prepare_bench(detail: f32, workload: Workload, jobs: usize) -> PrepReport {
    let root = std::env::temp_dir().join(format!("simperf-prep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let cache = BvhCache::open(&root).expect("preparation cache dir");
    let mut scene_ms = Vec::with_capacity(SceneId::ALL.len());
    let mut cold = Vec::with_capacity(SceneId::ALL.len());
    let t0 = Instant::now();
    for id in SceneId::ALL {
        let c0 = Instant::now();
        let bench = Bench::try_prepare_cached(id, detail, workload, Some(&cache))
            .unwrap_or_else(|e| panic!("preparing {id}: {e}"));
        scene_ms.push((id, c0.elapsed().as_secs_f64() * 1e3));
        cold.push(bench);
    }
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Digest (FNV over the codec encoding) and drop each pass's suite
    // before timing the next one: holding several full-detail suites
    // alive at once distorts the later passes through allocator and
    // page-cache pressure, which on small hosts can make the warm
    // pass look slower than cold.
    let digest = |b: &Bench| fnv1a64(&encode_prepared_bench(b, 0));
    let cold_digests: Vec<u64> = cold.iter().map(digest).collect();
    drop(cold);

    let parallel_opts = PrepareOptions {
        jobs: Some(jobs),
        quiet: true,
        cache: None,
    };
    let t0 = Instant::now();
    let parallel = Suite::prepare_with(detail, workload, &parallel_opts);
    let parallel_ms = t0.elapsed().as_secs_f64() * 1e3;
    let parallel_digests: Vec<u64> = parallel.benches().iter().map(digest).collect();
    drop(parallel);

    let warm_opts = PrepareOptions {
        jobs: Some(jobs),
        quiet: true,
        cache: Some(BvhCache::open(&root).expect("preparation cache dir")),
    };
    let t0 = Instant::now();
    let warm = Suite::prepare_with(detail, workload, &warm_opts);
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    let warm_cache = warm_opts.cache.as_ref().expect("warm cache present");
    let (warm_hits, warm_misses) = (warm_cache.hits(), warm_cache.misses());
    let warm_digests: Vec<u64> = warm.benches().iter().map(digest).collect();

    // Bit-identity across all three: the preparation codec's encoding
    // of every bench must agree byte for byte.
    let digests_match = cold_digests == parallel_digests && cold_digests == warm_digests;

    let _ = std::fs::remove_dir_all(&root);
    PrepReport {
        cold_ms,
        parallel_ms,
        warm_ms,
        warm_hits,
        warm_misses,
        digests_match,
        scene_ms,
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: simperf [--out BENCH_simperf.json] [--detail 0.1] [--reps 5] \
         [--jobs N] [--gate-parallel] [--gate-prep] [--gate-prefetch]"
    );
    ExitCode::FAILURE
}

/// Times one configuration three ways (interleaved across `reps`
/// repetitions) and checks both digest contracts.
fn run_config(
    suite: &Suite,
    name: &'static str,
    config: &SimConfig,
    jobs: usize,
    reps: usize,
) -> ConfigReport {
    let mut naive_config = config.clone();
    naive_config.idle_skip = false;

    // Warm-up (untimed): pulls code and scene data into cache and
    // doubles as the reference results for the digest cross-checks.
    let (reference, _, _) = run_suite_timed(suite, config, 1);

    let mut jobs1_ms = Vec::with_capacity(reps);
    let mut parallel_ms = Vec::with_capacity(reps);
    let mut no_skip_ms = Vec::with_capacity(reps);
    // cell_ms[scene][rep]: per-cell wall times from the serial runs —
    // the parallel runs share cores, so per-cell time there measures
    // contention, not the cell.
    let mut cell_ms: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); suite.benches().len()];
    let mut digests_match_across_jobs = true;
    let mut digests_match_without_idle_skip = true;
    for _ in 0..reps {
        let (serial, wall, cells) = run_suite_timed(suite, config, 1);
        jobs1_ms.push(wall);
        for (per_scene, ms) in cell_ms.iter_mut().zip(cells) {
            per_scene.push(ms);
        }
        digests_match_across_jobs &= digests_equal(&reference, &serial);

        let (parallel, wall, _) = run_suite_timed(suite, config, jobs);
        parallel_ms.push(wall);
        digests_match_across_jobs &= digests_equal(&reference, &parallel);

        let (naive, wall, _) = run_suite_timed(suite, &naive_config, 1);
        no_skip_ms.push(wall);
        digests_match_without_idle_skip &= digests_equal(&reference, &naive);
    }

    let jobs1 = wall_stats(&jobs1_ms);
    let parallel = wall_stats(&parallel_ms);
    let no_idle_skip = wall_stats(&no_skip_ms);
    println!(
        "{name:<9} ({reps} reps, median/min ms)  jobs1 {:.1}/{:.1}   jobs{jobs} {:.1}/{:.1}   \
         no-skip {:.1}/{:.1}   digests: jobs {}  idle-skip {}",
        jobs1.median_ms,
        jobs1.min_ms,
        parallel.median_ms,
        parallel.min_ms,
        no_idle_skip.median_ms,
        no_idle_skip.min_ms,
        verdict(digests_match_across_jobs),
        verdict(digests_match_without_idle_skip),
    );
    ConfigReport {
        name,
        jobs1,
        parallel,
        no_idle_skip,
        digests_match_across_jobs,
        digests_match_without_idle_skip,
        scenes: SceneId::ALL
            .into_iter()
            .zip(&reference)
            .zip(&cell_ms)
            .map(|((id, r), ms)| (id, r.cycles, r.state_digest, wall_stats(ms)))
            .collect(),
    }
}

/// Runs the whole suite once under the cost-model scheduler, returning
/// the results (suite order), the end-to-end wall time, and each cell's
/// own wall time in milliseconds. A typed error panics naming its scene;
/// a panicking simulation is not retried (a retried cell's time would
/// not be comparable) and propagates with its own message.
fn run_suite_timed(suite: &Suite, config: &SimConfig, jobs: usize) -> (Vec<SimResult>, f64, Vec<f64>) {
    let t0 = Instant::now();
    let cells = run_weighted(jobs, &suite.scene_costs(), |i| {
        let b = &suite.benches()[i];
        let c0 = Instant::now();
        let result = b
            .try_run(config)
            .unwrap_or_else(|e| panic!("scene {} failed: {e}", b.scene()));
        (result, c0.elapsed().as_secs_f64() * 1e3)
    });
    let wall = t0.elapsed().as_secs_f64() * 1e3;
    let (results, cell_ms) = cells.into_iter().unzip();
    (results, wall, cell_ms)
}

fn wall_stats(samples: &[f64]) -> WallStats {
    assert!(!samples.is_empty(), "wall stats need at least one sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    let median_ms = if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    };
    WallStats {
        median_ms,
        min_ms: sorted[0],
    }
}

fn digests_equal(a: &[SimResult], b: &[SimResult]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.state_digest == y.state_digest && x.cycles == y.cycles)
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "MISMATCH"
    }
}

/// Hand-rolled JSON (the workspace is dependency-free by policy); every
/// string is a known identifier, so no escaping is needed.
#[allow(clippy::too_many_arguments)]
fn render_json(
    detail: f32,
    jobs: usize,
    reps: usize,
    plan: &Schedule,
    costs: &[u64],
    prep: &PrepReport,
    reports: &[ConfigReport],
    wall: &PrefetchWall,
    kernels: &[(&str, rt_bench::microbench::Measurement)],
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"bench\": \"simperf\",\n  \"detail\": {detail},\n  \
         \"workload\": \"primary 16x16\",\n  \"jobs\": {jobs},\n  \"reps\": {reps},\n  \
         \"scheduler\": {{\n    \"requested_jobs\": {jobs},\n    \"workers\": {},\n    \
         \"inline_cells\": {},\n    \"chunks\": {},\n    \"inline_cost\": {},\n    \
         \"chunked_cost\": {}\n  }},\n  \"prepare\": {{\n    \
         \"detail\": {PREP_DETAIL},\n    \
         \"prep_ms_cold\": {:.3},\n    \"prep_ms_parallel\": {:.3},\n    \
         \"prep_ms_warm\": {:.3},\n    \"cache_hits_warm\": {},\n    \
         \"cache_misses_warm\": {},\n    \"digests_match\": {},\n    \"scenes\": [",
        plan.workers(),
        plan.inline_cells().len(),
        plan.chunks().len(),
        plan.inline_cost(),
        plan.chunked_cost(),
        prep.cold_ms,
        prep.parallel_ms,
        prep.warm_ms,
        prep.warm_hits,
        prep.warm_misses,
        prep.digests_match,
    );
    for (i, (id, ms)) in prep.scene_ms.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n      {{\"scene\": \"{id}\", \"build_ms\": {ms:.3}}}",
            if i == 0 { "" } else { "," },
        );
    }
    let _ = write!(s, "\n    ]\n  }},\n  \"suite\": [");
    for (i, r) in reports.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    {{\n      \"config\": \"{}\",\n      \"wall_ms_jobs1\": {:.3},\n      \
             \"wall_ms_jobs1_min\": {:.3},\n      \"wall_ms_parallel\": {:.3},\n      \
             \"wall_ms_parallel_min\": {:.3},\n      \"wall_ms_no_idle_skip\": {:.3},\n      \
             \"wall_ms_no_idle_skip_min\": {:.3},\n      \
             \"digests_match_across_jobs\": {},\n      \
             \"digests_match_without_idle_skip\": {},\n      \"scenes\": [",
            if i == 0 { "" } else { "," },
            r.name,
            r.jobs1.median_ms,
            r.jobs1.min_ms,
            r.parallel.median_ms,
            r.parallel.min_ms,
            r.no_idle_skip.median_ms,
            r.no_idle_skip.min_ms,
            r.digests_match_across_jobs,
            r.digests_match_without_idle_skip,
        );
        for (j, (id, cycles, digest, cell)) in r.scenes.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n        {{\"scene\": \"{id}\", \"cycles\": {cycles}, \
                 \"state_digest\": \"{digest:#018x}\", \"est_cost\": {}, \
                 \"cell_ms_median\": {:.3}, \"cell_ms_min\": {:.3}}}",
                if j == 0 { "" } else { "," },
                costs[j],
                cell.median_ms,
                cell.min_ms,
            );
        }
        let _ = write!(s, "\n      ]\n    }}");
    }
    let _ = write!(
        s,
        "\n  ],\n  \"prefetch_wall\": {{\n    \"host_ratio\": {:.4},\n    \
         \"host_ratio_ceiling\": {HOST_RATIO_CEILING},\n    \"idle_skip_ratio\": {:.4},\n    \
         \"idle_skip_ratio_ceiling\": {IDLE_SKIP_RATIO_CEILING}\n  }},\n  \"hot_kernels\": [",
        wall.host_ratio, wall.idle_skip_ratio,
    );
    for (i, (name, m)) in kernels.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    {{\"name\": \"{name}\", \"median_ns\": {:.1}, \"min_ns\": {:.1}, \
             \"mean_ns\": {:.1}, \"iters_per_sample\": {}}}",
            if i == 0 { "" } else { "," },
            m.median_ns,
            m.min_ns,
            m.mean_ns,
            m.iters_per_sample,
        );
    }
    s.push_str("\n  ]\n}\n");
    s
}
