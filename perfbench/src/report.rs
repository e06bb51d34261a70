//! The metric catalogue and the result line every run prints.

use crate::stats::{median, percentile, tail_percentile};
use rt_served::Json;
use std::collections::BTreeMap;

/// A timing's sample count, median, and the highest percentile that
/// has at least ten samples beyond it (null when there are too few).
pub fn timing_info(samples: &[f64]) -> Json {
    let tail = tail_percentile(samples.len());
    Json::obj([
        ("samples", Json::num(samples.len() as u64)),
        ("median", Json::Num(median(samples))),
        ("tail_percentile", tail.map_or(Json::Null, Json::Num)),
        (
            "tail",
            tail.map_or(Json::Null, |p| Json::Num(percentile(samples, p))),
        ),
    ])
}

/// End-to-end metrics, printed by untraced runs: (name, unit).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("sim_cycles", "cycles"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs: (name, unit). A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("scene.generate_ms", "ms"),
    ("scene.rays_ms", "ms"),
    ("scene.triangles", "count"),
    ("bvh.build_ms", "ms"),
    ("bvh.nodes", "count"),
    ("core.treelet.form_ms", "ms"),
    ("core.prepare.encode_ms", "ms"),
    ("core.prepare.decode_ms", "ms"),
    ("core.prepare.read_ms", "ms"),
    ("core.prepare.artifact_bytes", "bytes"),
    ("core.prepare.cache_hits", "count"),
    ("core.prepare.cache_misses", "count"),
    ("core.sim.run_ms", "ms"),
    ("core.sim.ns_per_cycle", "ns"),
    ("core.sim.idle_skip_ratio", "ratio"),
    ("core.traversal.trace_ms", "ms"),
    ("core.traversal.nodes_per_ray", "count"),
    ("core.prefetch.host_ratio", "ratio"),
    ("core.prefetch.lines_enqueued", "count"),
    ("core.prefetch.queue_full_drops", "count"),
    ("core.runner.workers", "count"),
    ("core.runner.busy_frac", "ratio"),
    ("core.runner.max_cell_ms", "ms"),
    ("gpu.l1.demand_misses", "count"),
    ("gpu.l1.hit_frac", "ratio"),
    ("gpu.l2.demand_misses", "count"),
    ("gpu.l2.hit_frac", "ratio"),
    ("gpu.mem.node_latency_mean", "cycles"),
    ("gpu.mem.node_latency_p99", "cycles"),
    ("gpu.dram.utilization", "ratio"),
    ("gpu.dram_to_l2_lines", "count"),
    ("gpu.l2_to_l1_lines", "count"),
    ("gpu.l1.prefetch_timely", "count"),
    ("gpu.l1.prefetch_late", "count"),
    ("gpu.l1.prefetch_too_late", "count"),
    ("gpu.l1.prefetch_unused", "count"),
    ("gpu.l1.prefetch_useful_frac", "ratio"),
    ("gpu.memsys.replay_ns_per_access", "ns"),
    ("served.submit_ms", "ms"),
    ("served.status_ms", "ms"),
    ("served.result_ms", "ms"),
    ("served.polls_per_job", "count"),
    ("served.hit_job_ms", "ms"),
    ("served.miss_job_ms", "ms"),
    ("served.cached_frac", "ratio"),
    ("served.overhead_ms", "ms"),
    ("served.store_files", "count"),
    ("served.store_bytes", "bytes"),
    ("served.rejected", "count"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("passes", "count"),
    ("failed_frac", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    end_to_end: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    /// Recorded beside the metrics, never gated (digests, sample counts).
    info: BTreeMap<&'static str, Json>,
}

impl Report {
    /// Counts one attempted operation, and a failure when `ok` is false.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("perfbench: check failed: {why}");
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.end_to_end.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    /// Adds `value` to a per-layer count.
    pub fn add_layer(&mut self, name: &'static str, value: f64) {
        let total = self.layers.get(name).copied().unwrap_or(0.0) + value;
        self.layer(name, total);
    }

    pub fn info(&mut self, name: &'static str, value: Json) {
        self.info.insert(name, value);
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: end-to-end metrics when `traced` is false,
    /// per-layer metrics otherwise. An end-to-end metric the workload
    /// failed to produce is a failed check, never a silent gap.
    pub fn result_line(&mut self, traced: bool) -> String {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = BTreeMap::new();
        for &(name, unit) in catalogue {
            let value = if traced {
                self.layers.get(name).copied().unwrap_or(0.0)
            } else {
                match self.end_to_end.get(name) {
                    Some(&v) if v.is_finite() && v > 0.0 => v,
                    other => {
                        self.attempted += 1;
                        self.fail(format!("end-to-end metric {name} is {other:?}"));
                        0.0
                    }
                }
            };
            metrics.insert(
                name.to_string(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            );
        }
        let line = Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted)),
            ("failed", Json::num(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ]);
        line.encode()
    }

    /// The info line printed before the result line.
    pub fn info_line(&self) -> String {
        let mut fields: BTreeMap<String, Json> = self
            .info
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        fields.insert("failed_frac".into(), Json::Num(self.failed_frac()));
        Json::obj([("perfbench_info", Json::Obj(fields))]).encode()
    }
}
