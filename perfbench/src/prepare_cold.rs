//! `prepare_cold`: both suites (primary and seeded diffuse rays)
//! prepared through `Suite::prepare_with` into a fresh, empty
//! `BvhCache` — scene generation, ray generation, SAH build, treelet
//! formation, encode and atomic write, with no simulation in the pass.

use crate::layers;
use crate::report::Report;
use crate::sim_suite::Kind;
use crate::stats::{median, percentile};
use crate::Ctx;
use rt_bench::{PrepareOptions, Suite};
use rt_gpu_sim::fnv1a64;
use rt_scene::{SceneId, Workload};
use rt_served::Json;
use std::path::Path;
use std::time::Instant;
use treelet_rt::{plan_schedule, prepare_cache_key, BvhCache, SimConfig};

const KINDS: [Kind; 2] = [Kind::PrimaryPrefetch, Kind::DiffuseBaseline];

/// FNV of every artifact file a pass wrote, in (suite, scene) order.
fn artifact_fnvs(cache: &BvhCache, detail: f32, workloads: &[Workload]) -> Vec<Option<u64>> {
    workloads
        .iter()
        .flat_map(|w| SceneId::ALL.map(|id| (id, *w)))
        .map(|(id, w)| {
            let path = cache.entry_path(prepare_cache_key(id, detail, &w));
            std::fs::read(path).ok().map(|b| fnv1a64(&b))
        })
        .collect()
}

/// Per cell in suite order: (cycles, state digest), `None` if it failed.
type Cells = Vec<Option<(u64, u64)>>;

/// Simulates every cell of `suite` under `config`, with the host
/// seconds taken.
fn simulate(suite: &Suite, config: &SimConfig, jobs: usize) -> (Cells, f64) {
    let t0 = Instant::now();
    let outcomes = suite.run_all_robust_with_jobs(jobs, |b| b.try_run(config));
    let cells = outcomes
        .iter()
        .map(|o| o.result().map(|r| (r.cycles, r.state_digest)))
        .collect();
    (cells, t0.elapsed().as_secs_f64())
}

fn open_fresh(dir: &Path) -> std::io::Result<BvhCache> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    BvhCache::open(dir)
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let detail = ctx.scale.detail;
    let setups: Vec<(Workload, SimConfig)> = KINDS.iter().map(|k| k.setup(ctx)).collect();
    let workloads: Vec<Workload> = setups.iter().map(|s| s.0).collect();
    let dir = ctx.work.join("cold-cache");

    let mut setup_s = Vec::new();
    let mut call_ms = Vec::new();
    let mut reference: Option<Vec<Option<u64>>> = None;
    let mut cells: Vec<Option<Cells>> = vec![None; setups.len()];
    let (mut simulated_cycles, mut sim_s) = (0u64, 0.0);
    let mut last: Option<(PrepareOptions, Vec<Suite>)> = None;
    let mut pass = 0usize;
    let walls = ctx.measure(3, |tracer| {
        pass += 1;
        drop(last.take());
        let t0 = Instant::now();
        let cache = match open_fresh(&dir) {
            Ok(cache) => cache,
            Err(e) => {
                report.op(false, || {
                    format!("opening an empty cache at {}: {e}", dir.display())
                });
                return None;
            }
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        let opts = PrepareOptions {
            jobs: Some(ctx.nproc),
            quiet: true,
            cache: Some(cache),
        };
        let t0 = Instant::now();
        let mut suites = Vec::new();
        for w in &workloads {
            let c0 = Instant::now();
            suites.push(tracer.span("suite.prepare_cold", None, |_| {
                Suite::prepare_with(detail, *w, &opts)
            }));
            call_ms.push(c0.elapsed().as_secs_f64() * 1e3);
        }
        let wall = t0.elapsed().as_secs_f64();
        let cache = opts.cache.as_ref().expect("cache set above");
        let want = (16 * workloads.len()) as u64;
        report.op(cache.misses() == want && cache.hits() == 0, || {
            format!(
                "cold pass: {} misses, {} hits (want {want}, 0)",
                cache.misses(),
                cache.hits()
            )
        });
        let fnvs = artifact_fnvs(cache, detail, &workloads);
        let reference = reference.get_or_insert_with(|| fnvs.clone());
        report.op(
            fnvs.iter().all(Option::is_some) && fnvs == *reference,
            || "cold pass wrote missing or different artifacts than the first pass".to_string(),
        );
        // Check simulation, outside the pass: one cold-built suite per
        // pass, in turn, must give the same cells every time. Spread
        // over the run, its rate is this workload's simulated throughput.
        let i = pass % setups.len();
        let (got, secs) = simulate(&suites[i], &setups[i].1, ctx.nproc);
        simulated_cycles += got.iter().flatten().map(|c| c.0).sum::<u64>();
        sim_s += secs;
        let want = cells[i].get_or_insert_with(|| got.clone());
        report.op(got.iter().all(Option::is_some) && got == *want, || {
            "a cold-built suite simulates differently than in an earlier pass".to_string()
        });
        last = Some((opts, suites));
        Some(wall)
    });
    let Some((opts, cold)) = last else {
        return report;
    };
    let cache = opts.cache.as_ref().expect("cache set above");

    // The written artifacts must be exactly the encoded cold benches,
    // and must load back as the same benches.
    let cold_fnvs: Vec<u64> = cold
        .iter()
        .zip(&workloads)
        .flat_map(|(s, w)| layers::bench_fnvs(s, detail, w))
        .collect();
    let written = artifact_fnvs(cache, detail, &workloads);
    report.op(
        written.iter().zip(&cold_fnvs).all(|(a, b)| *a == Some(*b)),
        || "artifact files differ from the encoded cold-built benches".to_string(),
    );
    let reload = PrepareOptions {
        jobs: Some(ctx.nproc),
        quiet: true,
        cache: BvhCache::open(cache.root()).ok(),
    };
    let warm: Vec<Suite> = workloads
        .iter()
        .map(|w| Suite::prepare_with(detail, *w, &reload))
        .collect();
    let warm_fnvs: Vec<u64> = warm
        .iter()
        .zip(&workloads)
        .flat_map(|(s, w)| layers::bench_fnvs(s, detail, w))
        .collect();
    report.op(warm_fnvs == cold_fnvs, || {
        "reloaded benches differ from the cold-built ones".to_string()
    });

    // The reloaded suites must simulate to the same cells.
    for (i, suite) in warm.iter().enumerate() {
        let (got, _) = simulate(suite, &setups[i].1, ctx.nproc);
        report.op(cells[i].as_ref() == Some(&got), || {
            "a reloaded suite simulates differently than its cold-built twin".to_string()
        });
    }
    let reference_cells: Vec<(u64, u64)> = cells
        .iter()
        .flatten()
        .flatten()
        .flatten()
        .copied()
        .collect();
    let sim_cycles: u64 = reference_cells.iter().map(|c| c.0).sum();
    let digests = reference_cells.iter().map(|c| c.1);

    report.e2e("setup_s", median(&setup_s));
    let wall_s = median(&walls.measured);
    report.e2e("wall_s", wall_s);
    report.e2e("sim_cycles", sim_cycles as f64);
    report.e2e("sim_mcycles_per_s", simulated_cycles as f64 / sim_s / 1e6);
    report.e2e("job_ms_p50", percentile(&call_ms, 50.0));
    report.e2e("job_ms_p90", percentile(&call_ms, 90.0));
    report.e2e(
        "jobs_per_s",
        call_ms.len() as f64 / (call_ms.iter().sum::<f64>() / 1e3),
    );
    report.info(
        "sim_digest",
        Json::str(format!("{:#018x}", layers::sim_digest(digests))),
    );
    report.info("setup_s", crate::report::timing_info(&setup_s));
    report.info("wall_s", crate::report::timing_info(&walls.measured));
    report.info("job_ms", crate::report::timing_info(&call_ms));
    report.layer("passes", walls.measured.len() as f64);
    report.layer("core.prepare.cache_hits", cache.hits() as f64);
    report.layer("core.prepare.cache_misses", cache.misses() as f64);

    if ctx.traced {
        report.layer("trace.overhead_s", walls.trace_overhead_s());
        let mut cold_ms = Vec::new();
        for (w, config) in &setups {
            cold_ms.extend(layers::staged_prepare(
                &ctx.tracer,
                &mut report,
                detail,
                *w,
                config.treelet_bytes,
                cache,
            ));
        }
        // Prepare cells are opaque inside `Suite::prepare_with`; the
        // staged serial pass stands in for their per-cell times, and the
        // scheduler plans them by the paper's tree sizes, as it does.
        let costs: Vec<u64> = SceneId::ALL
            .iter()
            .map(|id| ((id.paper_stats().tree_size_mb * 1_048_576.0) as u64).max(1))
            .collect();
        let workers = plan_schedule(ctx.nproc, &costs).workers();
        report.layer("core.runner.workers", workers as f64);
        let busy_s = cold_ms.iter().sum::<f64>() / 1e3;
        report.layer("core.runner.busy_frac", busy_s / (wall_s * workers as f64));
        report.layer(
            "core.runner.max_cell_ms",
            cold_ms.iter().copied().fold(0.0, f64::max),
        );
    }
    report
}
