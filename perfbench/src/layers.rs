//! Per-layer measurements taken from outside the program: each one
//! calls a layer's public functions directly, under a span.

use crate::report::Report;
use crate::trace::Tracer;
use rt_bench::Suite;
use rt_bvh::{MemoryImage, WideBvh};
use rt_gpu_sim::{fnv1a64, AccessKind, FillOrigin, Issue, MemorySystem};
use rt_scene::{Scene, SceneId, Workload};
use std::collections::VecDeque;
use std::time::Instant;
use treelet_rt::{
    compile_trace, decode_prepared_bench, encode_prepared_bench, prepare_cache_key, trace_ray,
    BvhCache, SimConfig, SimResult, TreeletAssignment,
};

/// Peak resident memory of this process in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV over per-cell state digests in suite order: one number that
/// changes when any simulated statistic of any cell changes.
pub fn sim_digest(digests: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = digests.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a64(&bytes)
}

/// FNV of each bench's encoded artifact, in suite order.
pub fn bench_fnvs(suite: &Suite, detail: f32, workload: &Workload) -> Vec<u64> {
    suite
        .benches()
        .iter()
        .map(|b| {
            let key = prepare_cache_key(b.scene(), detail, workload);
            fnv1a64(&encode_prepared_bench(b, key))
        })
        .collect()
}

/// Runs each preparation stage of every scene serially, one span per
/// call: scene generation, ray generation, SAH build, treelet
/// formation, then read, decode and re-encode of the scene's artifact
/// in `cache`, which must already hold this suite. Adds the stage times
/// (ms, summed over every staged suite so far) and counts to `report`,
/// and returns each scene's cold-path time (generate + rays + build +
/// encode) in ms.
pub fn staged_prepare(
    tracer: &Tracer,
    report: &mut Report,
    detail: f32,
    workload: Workload,
    treelet_bytes: u64,
    cache: &BvhCache,
) -> Vec<f64> {
    let mut cold_ms = Vec::new();
    tracer.span("prepare.staged", None, |root| {
        for id in SceneId::ALL {
            let mut ms = 0.0;
            let built = timed(tracer, "scene.generate", root, &mut ms, || {
                Scene::try_build_with_detail(id, detail)
            });
            let scene = match built {
                Ok(scene) => scene,
                Err(e) => return report.op(false, || format!("generating {id}: {e}")),
            };
            let rays = timed(tracer, "scene.rays", root, &mut ms, || {
                workload.generate(&scene)
            });
            report.add_layer("scene.triangles", scene.mesh.triangles().len() as f64);
            let bvh = timed(tracer, "bvh.build", root, &mut ms, || {
                WideBvh::build(scene.mesh.into_triangles())
            });
            report.add_layer("bvh.nodes", bvh.node_count() as f64);
            tracer.span("core.treelet.form", root, |_| {
                TreeletAssignment::form(&bvh, treelet_bytes)
            });
            let key = prepare_cache_key(id, detail, &workload);
            let path = cache.entry_path(key);
            let bytes = match tracer.span("core.prepare.read", root, |_| std::fs::read(&path)) {
                Ok(bytes) => bytes,
                Err(e) => return report.op(false, || format!("reading {}: {e}", path.display())),
            };
            report.add_layer("core.prepare.artifact_bytes", bytes.len() as f64);
            let decoded = tracer.span("core.prepare.decode", root, |_| {
                decode_prepared_bench(id, key, &bytes)
            });
            let Ok((bench, _)) = decoded else {
                return report.op(false, || format!("decoding the {id} artifact failed"));
            };
            let encoded = timed(tracer, "core.prepare.encode", root, &mut ms, || {
                encode_prepared_bench(&bench, key)
            });
            // The staged build must reproduce the cached bench exactly.
            report.op(
                encoded == bytes
                    && bench.rays() == &rays[..]
                    && bench.bvh().node_count() == bvh.node_count(),
                || format!("staged preparation of {id} differs from its cached artifact"),
            );
            cold_ms.push(ms);
        }
    });
    for (metric, span) in [
        ("scene.generate_ms", "scene.generate"),
        ("scene.rays_ms", "scene.rays"),
        ("bvh.build_ms", "bvh.build"),
        ("core.treelet.form_ms", "core.treelet.form"),
        ("core.prepare.encode_ms", "core.prepare.encode"),
        ("core.prepare.read_ms", "core.prepare.read"),
        ("core.prepare.decode_ms", "core.prepare.decode"),
    ] {
        report.layer(metric, tracer.total_ms(span));
    }
    cold_ms
}

/// `tracer.span` that also adds the call's duration to `ms`.
fn timed<T>(
    tracer: &Tracer,
    name: &'static str,
    parent: Option<u64>,
    ms: &mut f64,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = Instant::now();
    let out = tracer.span(name, parent, |_| f());
    *ms += t0.elapsed().as_secs_f64() * 1e3;
    out
}

/// Functional traversal of every ray of every bench (no timing model),
/// one span per scene. Returns (nodes visited, rays).
pub fn functional_traversal(tracer: &Tracer, suite: &Suite, config: &SimConfig) -> (usize, usize) {
    let (mut nodes, mut rays) = (0, 0);
    for bench in suite.benches() {
        let treelets = TreeletAssignment::form_with_policy(
            bench.bvh(),
            config.treelet_bytes,
            config.formation,
        );
        tracer.span("core.traversal.trace", None, |_| {
            for ray in bench.rays() {
                nodes += trace_ray(bench.bvh(), &treelets, ray, config.traversal).nodes_visited();
            }
        });
        rays += bench.rays().len();
    }
    (nodes, rays)
}

/// Replays each bench's demand node-line stream through a fresh
/// `MemorySystem`: rays are dealt round-robin to the SMs, each SM issues
/// its next line every cycle until the L1 asks for a retry, and
/// completions are drained every cycle. Returns host ns per access, or
/// `None` if a replay failed to drain.
pub fn memsys_replay(tracer: &Tracer, suite: &Suite, config: &SimConfig) -> Option<f64> {
    let mut accesses = 0u64;
    let mut ns = 0u64;
    for bench in suite.benches() {
        let treelets = TreeletAssignment::form_with_policy(
            bench.bvh(),
            config.treelet_bytes,
            config.formation,
        );
        let image = MemoryImage::depth_first(bench.bvh());
        let sms = config.num_sms.max(1);
        let mut queues: Vec<VecDeque<u64>> = vec![VecDeque::new(); sms];
        for (i, ray) in bench.rays().iter().enumerate() {
            let trace = trace_ray(bench.bvh(), &treelets, ray, config.traversal);
            let steps = compile_trace(&trace, &image, config.mem.line_bytes);
            queues[i % sms].extend(steps.iter().map(|s| s.lines[0]));
        }
        let count: usize = queues.iter().map(VecDeque::len).sum();
        let mut mem = MemorySystem::new(config.mem, sms);
        let mut done = Vec::new();
        let start = Instant::now();
        let drained = tracer.span("gpu.memsys.replay", None, |_| {
            let mut cycles = 0u64;
            while queues.iter().any(|q| !q.is_empty()) || mem.outstanding_requests() > 0 {
                for (sm, q) in queues.iter_mut().enumerate() {
                    if let Some(&line) = q.front() {
                        if !matches!(
                            mem.access(sm, line, FillOrigin::Demand, AccessKind::Node),
                            Issue::Retry
                        ) {
                            q.pop_front();
                        }
                    }
                }
                mem.tick();
                for sm in 0..sms {
                    mem.drain_completed_into(sm, &mut done);
                    done.clear();
                }
                cycles += 1;
                if cycles > 100 * count as u64 + 1_000_000 {
                    return false;
                }
            }
            true
        });
        ns += start.elapsed().as_nanos() as u64;
        accesses += count as u64;
        if !drained {
            return None;
        }
    }
    Some(ns as f64 / accesses.max(1) as f64)
}

/// Simulated-time statistics summed (counts) or averaged over cells
/// (fractions, latencies, utilization).
pub fn gpu_stats(report: &mut Report, results: &[&SimResult]) {
    let n = results.len().max(1) as f64;
    let sum = |f: &dyn Fn(&SimResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>() as f64;
    let mean = |f: &dyn Fn(&SimResult) -> f64| results.iter().map(|r| f(r)).sum::<f64>() / n;
    let hit_frac = |accesses: f64, misses: f64| {
        if accesses > 0.0 {
            1.0 - misses / accesses
        } else {
            0.0
        }
    };
    let l1_misses = sum(&|r| r.l1.demand_misses);
    let l2_misses = sum(&|r| r.l2.demand_misses);
    report.layer("gpu.l1.demand_misses", l1_misses);
    report.layer(
        "gpu.l1.hit_frac",
        hit_frac(sum(&|r| r.l1.demand_accesses()), l1_misses),
    );
    report.layer("gpu.l2.demand_misses", l2_misses);
    report.layer(
        "gpu.l2.hit_frac",
        hit_frac(sum(&|r| r.l2.demand_accesses()), l2_misses),
    );
    report.layer("gpu.mem.node_latency_mean", mean(&|r| r.node_load_latency));
    report.layer(
        "gpu.mem.node_latency_p99",
        mean(&|r| r.node_load_latency_p99),
    );
    report.layer("gpu.dram.utilization", mean(&|r| r.dram_utilization));
    report.layer("gpu.dram_to_l2_lines", sum(&|r| r.dram_to_l2_lines));
    report.layer("gpu.l2_to_l1_lines", sum(&|r| r.l2_to_l1_lines));
    let timely = sum(&|r| r.prefetch_effect.timely);
    let late = sum(&|r| r.prefetch_effect.late);
    let issued = sum(&|r| r.prefetch_effect.total());
    report.layer("gpu.l1.prefetch_timely", timely);
    report.layer("gpu.l1.prefetch_late", late);
    report.layer(
        "gpu.l1.prefetch_too_late",
        sum(&|r| r.prefetch_effect.too_late),
    );
    report.layer("gpu.l1.prefetch_unused", sum(&|r| r.prefetch_effect.unused));
    report.layer(
        "gpu.l1.prefetch_useful_frac",
        if issued > 0.0 {
            (timely + late) / issued
        } else {
            0.0
        },
    );
    report.layer(
        "core.prefetch.lines_enqueued",
        sum(&|r| r.prefetcher.as_ref().map_or(0, |p| p.lines_enqueued)),
    );
    report.layer(
        "core.prefetch.queue_full_drops",
        sum(&|r| r.prefetcher.as_ref().map_or(0, |p| p.queue_full_drops)),
    );
}
