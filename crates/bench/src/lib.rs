//! Shared experiment harness for reproducing the paper's tables and
//! figures.
//!
//! The [`repro`] driver (the `repro` binary) runs the experiment
//! [`table`](repro::table): it prepares each workload's sixteen-scene
//! [`Suite`] once, simulates every distinct (workload, config) cell once,
//! and hands the results to each figure's reducer, which prints the same
//! rows or series the paper reports (plus the paper's published numbers
//! where available, for side-by-side comparison).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod figures;
pub mod microbench;
pub mod repro;
mod svg;

use rt_scene::{SceneId, Workload};
use std::io::{self, Write};
use std::time::Instant;
pub use svg::bar_chart;
pub use treelet_rt::{
    catch_job_panic, default_jobs, default_jobs_for, encode_prepared_bench, geometric_mean,
    plan_schedule, plan_schedule_with, prepare_cache_key, run_scheduled, run_weighted, Bench,
    BvhCache, CheckpointOptions, Schedule, SimConfig, SimError, SimResult, SimSession, Sweep,
    SweepOutcome, Telemetry, TelemetryOptions, TelemetrySample,
};

/// Default scene detail for the experiment suite (full evaluation scale;
/// see `DESIGN.md` for the scaling rationale).
pub const SUITE_DETAIL: f32 = 1.0;

/// Options steering [`Suite::prepare_with`]: worker count, progress
/// verbosity, and the preparation cache.
#[derive(Debug, Default)]
pub struct PrepareOptions {
    /// Worker count for sharding preparation across scenes; `None`
    /// uses [`default_jobs_for`] the scene count (so `RT_JOBS` applies).
    /// Any count produces bit-identical benches in suite order.
    pub jobs: Option<usize>,
    /// Suppress the per-scene progress lines — for bench bins that
    /// print their own headers and for output-sensitive harnesses.
    pub quiet: bool,
    /// Content-addressed preparation cache; `None` builds from scratch.
    pub cache: Option<BvhCache>,
}

impl PrepareOptions {
    /// The defaults interactive binaries want: automatic worker count,
    /// progress on stderr, and the `RT_BVH_CACHE` environment cache
    /// when one is configured.
    pub fn standard() -> PrepareOptions {
        PrepareOptions {
            jobs: None,
            quiet: false,
            cache: BvhCache::from_env(),
        }
    }
}

/// Parses an optional `TREELET_DETAIL`-style override. Pure (no
/// environment access) so the rejection paths are unit-testable:
/// `None`/empty means "no override", a finite positive number is the
/// override, and anything else is an error naming the bad value —
/// never a silent fallback.
///
/// # Errors
///
/// A human-readable description of why the value was rejected.
pub fn parse_detail_override(raw: Option<&str>) -> Result<Option<f32>, String> {
    let Some(raw) = raw else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<f32>() {
        Ok(d) if d.is_finite() && d > 0.0 => Ok(Some(d)),
        Ok(d) => Err(format!(
            "TREELET_DETAIL={trimmed} must be a finite positive number (parsed as {d})"
        )),
        Err(_) => Err(format!("TREELET_DETAIL={trimmed} is not a number")),
    }
}

/// The sixteen-scene evaluation suite, prepared once and reused across
/// configurations.
#[derive(Debug)]
pub struct Suite {
    benches: Vec<Bench>,
}

impl Suite {
    /// Prepares every scene of the paper's Table 2 at `detail` with the
    /// given ray workload, printing progress to stderr: preparation is
    /// sharded across the cost-model scheduler (biggest scenes first)
    /// and served from the `RT_BVH_CACHE` cache when one is configured.
    /// See [`Suite::prepare_with`] for explicit control.
    pub fn prepare(detail: f32, workload: Workload) -> Suite {
        Suite::prepare_with(detail, workload, &PrepareOptions::standard())
    }

    /// Prepares the suite under explicit [`PrepareOptions`].
    ///
    /// Scene generation, BVH construction, and ray generation for each
    /// scene are independent and deterministic, so the cells shard
    /// across the same cost-model scheduler the simulations use —
    /// planned by the paper's Table 2 tree sizes (the best available
    /// estimate before any tree is built) so the heaviest builds start
    /// first. Results come back in suite order, and every bench is
    /// bit-identical to a serial, uncached preparation at any worker
    /// count: the cache stores the exact built artifact, and each cell
    /// is single-threaded.
    ///
    /// Progress is one complete `eprintln!` line per scene emitted from
    /// this harness (never a split `eprint!` pair that would interleave
    /// across workers), plus a summary with cache hit counts.
    ///
    /// # Panics
    ///
    /// Panics with the scene's [`SceneError`](rt_scene::SceneError)
    /// message if `detail` is rejected.
    pub fn prepare_with(detail: f32, workload: Workload, opts: &PrepareOptions) -> Suite {
        let t0 = Instant::now();
        let scenes = SceneId::ALL;
        let jobs = opts.jobs.unwrap_or_else(|| default_jobs_for(scenes.len()));
        let costs = Suite::prepare_costs();
        let cache = opts.cache.as_ref();
        let benches = run_weighted(jobs, &costs, |i| {
            let id = scenes[i];
            let c0 = Instant::now();
            let bench = match Bench::try_prepare_cached(id, detail, workload, cache) {
                Ok(bench) => bench,
                Err(e) => panic!("preparing {id}: {e}"),
            };
            if !opts.quiet {
                eprintln!(
                    "prepared {id}: {} triangles, {} nodes in {:.1?}",
                    bench.bvh().triangles().len(),
                    bench.bvh().node_count(),
                    c0.elapsed()
                );
            }
            bench
        });
        if !opts.quiet {
            match cache {
                Some(c) => eprintln!(
                    "suite prepared in {:.1?} ({} cache hits, {} misses)",
                    t0.elapsed(),
                    c.hits(),
                    c.misses()
                ),
                None => eprintln!("suite prepared in {:.1?}", t0.elapsed()),
            }
        }
        Suite { benches }
    }

    /// Per-scene preparation cost estimates in suite order, for the
    /// cost-model scheduler. Before any tree is built the only signal
    /// is the paper's Table 2 tree size, which tracks build cost within
    /// a detail level; the absolute scale (bytes) keeps every cell
    /// above the scheduler's inline threshold — correct, since even the
    /// smallest scene build dwarfs a cross-thread handoff.
    fn prepare_costs() -> Vec<u64> {
        SceneId::ALL
            .into_iter()
            .map(|id| (id.paper_stats().tree_size_mb * 1_048_576.0) as u64)
            .map(|c| c.max(1))
            .collect()
    }

    /// The prepared per-scene benches, in Table 2 order.
    pub fn benches(&self) -> &[Bench] {
        &self.benches
    }

    /// Takes the prepared benches, in Table 2 order.
    pub fn into_benches(self) -> Vec<Bench> {
        self.benches
    }

    /// Per-scene cost estimates in suite order — the inputs the
    /// cost-model scheduler plans with (see [`run_weighted`]).
    pub fn scene_costs(&self) -> Vec<u64> {
        self.benches.iter().map(Bench::estimated_cost).collect()
    }

    /// Runs `run` on every scene with at most `jobs` workers, recording
    /// failures instead of propagating them: a scene whose runner
    /// returns a [`SimError`] or panics is reported as
    /// [`SceneOutcome::Failed`] while the other scenes' results survive.
    /// A panicking scene is retried once (a typed error is
    /// deterministic, so it is not); retries are surfaced on stderr and
    /// in each outcome's `attempts` count.
    ///
    /// Scenes are scheduled by the cost model ([`run_weighted`]): each
    /// scene's estimated cost is its BVH node count × ray count, cheap
    /// scenes run inline on the caller's thread, expensive ones are
    /// claimed longest-first in cost-weighted chunks, and the worker
    /// count is clamped to the machine's core count — a 16-scene suite
    /// on a 4-core box runs 4 simulations at a time instead of
    /// oversubscribing. Outcomes come back in suite order regardless of
    /// which scene finished first, and any worker count produces
    /// bit-identical per-scene results — including their
    /// [`state_digest`](SimResult::state_digest)s (each simulation is
    /// deterministic and single-threaded).
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero. Panics *inside* `run` are contained per
    /// scene as typed [`SimError::WorkerPanicked`] failures — they never
    /// unwind through the pool, so one poisoned scene cannot take the
    /// rest of the sweep with it.
    #[allow(clippy::result_large_err)]
    pub fn run_all_robust_with_jobs<F>(&self, jobs: usize, run: F) -> Vec<SceneOutcome>
    where
        F: Fn(&Bench) -> Result<SimResult, SimError> + Sync,
    {
        let costs = self.scene_costs();
        run_weighted(jobs, &costs, |i| {
            let b = &self.benches[i];
            let mut attempts = 1;
            let mut attempt = catch_job_panic(i, || run(b));
            if matches!(attempt, Err(SimError::WorkerPanicked { .. })) {
                // A panic may be environmental (e.g. stack exhaustion
                // under thread contention); give the scene one more
                // chance before recording it as lost. Typed errors are
                // deterministic and are not retried.
                attempts = 2;
                attempt = catch_job_panic(i, || run(b));
            }
            match attempt {
                Ok(result) => {
                    if attempts > 1 {
                        eprintln!("scene {} completed on attempt {attempts}", b.scene());
                    }
                    SceneOutcome::Completed { result, attempts }
                }
                Err(e) => {
                    eprintln!(
                        "scene {} failed after {attempts} attempt(s): {e}",
                        b.scene()
                    );
                    SceneOutcome::Failed {
                        scene: b.scene(),
                        reason: e.to_string(),
                        attempts,
                    }
                }
            }
        })
    }
}

/// What happened to one scene of a [`Suite::run_all_robust_with_jobs`]
/// sweep.
// One outcome per scene: the size gap between a full `SimResult` and a
// failure record doesn't matter at this cardinality.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum SceneOutcome {
    /// The simulation finished and produced a result.
    Completed {
        /// The scene's result.
        result: SimResult,
        /// How many runner invocations it took (2 after a retried panic).
        attempts: u32,
    },
    /// The simulation returned an error or panicked; the sweep went on
    /// without it.
    Failed {
        /// The scene that was lost.
        scene: SceneId,
        /// The `SimError` message or panic payload.
        reason: String,
        /// How many runner invocations were made before giving up.
        attempts: u32,
    },
}

impl SceneOutcome {
    /// The result, if the scene completed.
    pub fn result(&self) -> Option<&SimResult> {
        match self {
            SceneOutcome::Completed { result, .. } => Some(result),
            SceneOutcome::Failed { .. } => None,
        }
    }

    /// Whether the scene completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, SceneOutcome::Completed { .. })
    }

    /// How many runner invocations this scene took.
    pub fn attempts(&self) -> u32 {
        match self {
            SceneOutcome::Completed { attempts, .. }
            | SceneOutcome::Failed { attempts, .. } => *attempts,
        }
    }
}

/// Slugifies a table title into a file-name-safe stem.
fn slugify(title: &str) -> String {
    let mut out = String::new();
    let mut last_dash = true;
    for ch in title.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch.to_ascii_lowercase());
            last_dash = false;
        } else if !last_dash {
            out.push('-');
            last_dash = true;
        }
    }
    out.trim_matches('-').to_string()
}

/// Writes a table as CSV into `dir` (one file per table, named from the
/// title).
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
pub fn write_csv(
    dir: &std::path::Path,
    title: &str,
    columns: &[&str],
    rows: &[(SceneId, Vec<f64>)],
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.csv", slugify(title)));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    write!(file, "scene")?;
    for c in columns {
        write!(file, ",{}", slugify(c))?;
    }
    writeln!(file)?;
    for (scene, cells) in rows {
        write!(file, "{}", scene.name())?;
        for v in cells {
            write!(file, ",{v}")?;
        }
        writeln!(file)?;
    }
    Ok(path)
}

/// Prints a table to `out`: a header row, one row per scene, and
/// (optionally) a geometric-mean row, matching how the paper reports
/// per-scene series. When the `TREELET_CSV_DIR` environment variable is
/// set, the table is also written there as CSV for plotting.
///
/// # Errors
///
/// Returns any I/O error from writing to `out`.
pub fn print_scene_table(
    out: &mut dyn Write,
    title: &str,
    columns: &[&str],
    rows: &[(SceneId, Vec<f64>)],
    gmean: bool,
) -> io::Result<()> {
    if let Ok(dir) = std::env::var("TREELET_CSV_DIR") {
        match write_csv(std::path::Path::new(&dir), title, columns, rows) {
            Ok(path) => eprintln!("csv written: {}", path.display()),
            Err(e) => eprintln!("csv write failed: {e}"),
        }
    }
    writeln!(out, "\n== {title} ==")?;
    write!(out, "{:<7}", "Scene")?;
    for c in columns {
        write!(out, " {c:>14}")?;
    }
    writeln!(out)?;
    for (scene, cells) in rows {
        write!(out, "{:<7}", scene.name())?;
        for v in cells {
            write!(out, " {v:>14.4}")?;
        }
        writeln!(out)?;
    }
    if gmean && !rows.is_empty() {
        write!(out, "{:<7}", "GMean")?;
        for col in 0..columns.len() {
            let vals: Vec<f64> = rows.iter().map(|(_, cells)| cells[col]).collect();
            if vals.iter().all(|&v| v > 0.0) {
                write!(out, " {:>14.4}", geometric_mean(&vals))?;
            } else {
                write!(out, " {:>14}", "-")?;
            }
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Formats a speedup as the percentage the paper quotes (`1.321` →
/// `+32.1%`).
pub fn pct(speedup: f64) -> String {
    format!("{:+.1}%", (speedup - 1.0) * 100.0)
}

#[cfg(test)]
#[allow(clippy::result_large_err)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_paper_style() {
        assert_eq!(pct(1.321), "+32.1%");
        assert_eq!(pct(0.963), "-3.7%");
        assert_eq!(pct(1.0), "+0.0%");
    }

    #[test]
    fn detail_override_parsing_is_strict() {
        assert_eq!(parse_detail_override(None), Ok(None));
        assert_eq!(parse_detail_override(Some("")), Ok(None));
        assert_eq!(parse_detail_override(Some("  ")), Ok(None));
        assert_eq!(parse_detail_override(Some("0.25")), Ok(Some(0.25)));
        assert_eq!(parse_detail_override(Some(" 2 ")), Ok(Some(2.0)));
        // Every rejection names the offending value instead of being
        // silently swallowed (the old `.ok().and_then(parse().ok())`
        // fell back to the full-detail suite on a typo).
        for bad in ["0.1x", "abc", "0", "-1", "inf", "NaN"] {
            let err = parse_detail_override(Some(bad)).unwrap_err();
            assert!(err.contains(bad.trim()), "{bad:?} -> {err}");
        }
    }

    /// `config` on every scene with `jobs` workers, in suite order.
    fn run_suite(suite: &Suite, config: &SimConfig, jobs: usize) -> Vec<SimResult> {
        suite
            .run_all_robust_with_jobs(jobs, |b| b.try_run(config))
            .into_iter()
            .map(|o| match o {
                SceneOutcome::Completed { result, .. } => result,
                SceneOutcome::Failed { scene, reason, .. } => panic!("{scene} failed: {reason}"),
            })
            .collect()
    }

    /// Per-bench serialized artifact bytes — the bit-identity oracle
    /// for preparation paths (covers nodes, triangles, rays, and the
    /// default treelet assignment).
    fn prepared_digests(suite: &Suite) -> Vec<Vec<u8>> {
        suite
            .benches()
            .iter()
            .map(|b| encode_prepared_bench(b, 0))
            .collect()
    }

    #[test]
    fn cold_warm_parallel_prepares_are_bit_identical() {
        let dir = std::env::temp_dir().join(format!(
            "rt_bench_prepare_cache_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let workload = Workload::new(rt_scene::WorkloadKind::Primary, 4, 4);
        let detail = 0.05;
        let quiet = |jobs, cache| PrepareOptions {
            jobs: Some(jobs),
            quiet: true,
            cache,
        };
        // Cold serial prepare populates the cache.
        let cold_cache = BvhCache::open(&dir).unwrap();
        let cold = Suite::prepare_with(detail, workload, &quiet(1, Some(cold_cache)));
        // Parallel uncached prepare.
        let parallel = Suite::prepare_with(detail, workload, &quiet(4, None));
        // Warm parallel prepare must be all hits.
        let warm_cache = BvhCache::open(&dir).unwrap();
        let warm_opts = quiet(4, Some(warm_cache));
        let warm = Suite::prepare_with(detail, workload, &warm_opts);
        let c = warm_opts.cache.as_ref().unwrap();
        assert_eq!(
            (c.hits(), c.misses()),
            (SceneId::ALL.len() as u64, 0),
            "warm prepare must be served entirely from cache"
        );
        let cold_d = prepared_digests(&cold);
        assert_eq!(cold_d, prepared_digests(&parallel));
        assert_eq!(cold_d, prepared_digests(&warm));
        // And the acceptance-level oracle: simulation state digests are
        // bit-identical regardless of how the suite was prepared.
        let config = SimConfig::paper_baseline();
        let from_cold = run_suite(&cold, &config, 1);
        let from_warm = run_suite(&warm, &config, 4);
        for (a, b) in from_cold.iter().zip(&from_warm) {
            assert_eq!(a.state_digest, b.state_digest);
            assert_eq!(a.cycles, b.cycles);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn slugify_makes_file_stems() {
        assert_eq!(
            slugify("Fig. 7: speedup and power (ALWAYS)"),
            "fig-7-speedup-and-power-always"
        );
        assert_eq!(slugify("   "), "");
    }

    #[test]
    fn write_csv_round_trip() {
        let dir = std::env::temp_dir().join("rt_bench_csv_test");
        let rows = vec![
            (SceneId::Wknd, vec![1.0, 2.5]),
            (SceneId::Car, vec![0.5, 4.0]),
        ];
        let path = write_csv(&dir, "Test table: one", &["a", "b x"], &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "scene,a,b-x\nWKND,1,2.5\nCAR,0.5,4\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_suite_digests_match_serial() {
        // The determinism contract behind `--jobs N`: every worker count
        // yields the serial run's per-scene digests, in suite order.
        let suite = Suite::prepare(0.05, Workload::new(rt_scene::WorkloadKind::Primary, 4, 4));
        let config = SimConfig::paper_treelet_prefetch();
        let serial = run_suite(&suite, &config, 1);
        let parallel = run_suite(&suite, &config, 4);
        assert_eq!(serial.len(), SceneId::ALL.len());
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.state_digest, b.state_digest);
            assert_eq!(a.cycles, b.cycles);
        }
    }

    #[test]
    fn robust_sweep_survives_a_panicking_scene() {
        // Full 16-scene suite at tiny detail with a minimal workload; one
        // scene's runner panics deliberately. The other fifteen must
        // still report results.
        let suite = Suite::prepare(0.05, Workload::new(rt_scene::WorkloadKind::Primary, 4, 4));
        let config = SimConfig::paper_baseline();
        let outcomes = suite.run_all_robust_with_jobs(2, |b| {
            if b.scene() == SceneId::Ship {
                panic!("injected fault");
            }
            b.try_run(&config)
        });
        assert_eq!(outcomes.len(), SceneId::ALL.len());
        let completed = outcomes.iter().filter(|o| o.is_completed()).count();
        assert_eq!(completed, SceneId::ALL.len() - 1);
        let failed: Vec<_> = outcomes.iter().filter(|o| !o.is_completed()).collect();
        match failed.as_slice() {
            [SceneOutcome::Failed {
                scene,
                reason,
                attempts,
            }] => {
                assert_eq!(*scene, SceneId::Ship);
                assert!(reason.contains("injected fault"), "reason: {reason}");
                // A panicking scene gets its one retry before being lost.
                assert_eq!(*attempts, 2);
            }
            other => panic!("expected exactly one failure, got {other:?}"),
        }
        // Scenes that never panicked completed on their first attempt.
        assert!(outcomes
            .iter()
            .filter(|o| o.is_completed())
            .all(|o| o.attempts() == 1));
    }

    #[test]
    fn robust_sweep_records_typed_errors_without_retry() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let suite = Suite::prepare(0.05, Workload::new(rt_scene::WorkloadKind::Primary, 2, 2));
        let calls = AtomicUsize::new(0);
        let mut bad = SimConfig::paper_baseline();
        bad.num_sms = 0;
        let outcomes = suite.run_all_robust_with_jobs(2, |b| {
            calls.fetch_add(1, Ordering::SeqCst);
            b.try_run(&bad)
        });
        // Typed errors are deterministic: one attempt per scene, no retry.
        assert_eq!(calls.load(Ordering::SeqCst), SceneId::ALL.len());
        assert!(outcomes.iter().all(|o| !o.is_completed()));
        assert!(outcomes.iter().all(|o| o.attempts() == 1));
        for o in &outcomes {
            if let SceneOutcome::Failed { reason, .. } = o {
                assert!(reason.contains("invalid simulation config"));
            }
        }
    }

    #[test]
    fn robust_sweep_retries_a_transient_panic() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let suite = Suite::prepare(0.05, Workload::new(rt_scene::WorkloadKind::Primary, 2, 2));
        let config = SimConfig::paper_baseline();
        let failed_once: Mutex<HashSet<SceneId>> = Mutex::new(HashSet::new());
        let outcomes = suite.run_all_robust_with_jobs(2, |b| {
            if failed_once.lock().unwrap().insert(b.scene()) {
                panic!("transient");
            }
            b.try_run(&config)
        });
        // Every scene panicked on its first attempt and succeeded on the
        // retry, so the whole sweep still completes — in two attempts.
        assert!(outcomes.iter().all(|o| o.is_completed()));
        assert!(outcomes.iter().all(|o| o.attempts() == 2));
    }

    #[test]
    fn print_scene_table_formats_rows_and_gmean() {
        let mut out = Vec::new();
        print_scene_table(
            &mut out,
            "test",
            &["a", "b"],
            &[
                (SceneId::Wknd, vec![1.0, 2.0]),
                (SceneId::Ship, vec![0.5, 0.0]),
            ],
            true,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "");
        assert_eq!(lines[1], "== test ==");
        assert_eq!(
            lines[3],
            format!("{:<7} {:>14.4} {:>14.4}", "WKND", 1.0, 2.0)
        );
        // A column holding a non-positive value has no geometric mean.
        assert_eq!(
            lines[5],
            format!("{:<7} {:>14.4} {:>14}", "GMean", (0.5f64).sqrt(), "-")
        );
        let mut empty = Vec::new();
        print_scene_table(&mut empty, "empty", &["a"], &[], true).unwrap();
        assert_eq!(String::from_utf8(empty).unwrap().lines().count(), 3);
    }
}
