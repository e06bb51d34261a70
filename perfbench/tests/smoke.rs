//! Runs every workload at tiny scale, untraced and traced, and checks
//! the result line: exit 0, `correct`, and every catalogued metric.

use rt_served::Json;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "primary_prefetch",
    "diffuse_baseline",
    "prepare_cold",
    "served_jobs",
];
const END_TO_END: [&str; 8] = [
    "setup_s",
    "wall_s",
    "sim_mcycles_per_s",
    "sim_cycles",
    "job_ms_p50",
    "job_ms_p90",
    "jobs_per_s",
    "peak_rss_mb",
];

fn run(workload: &str, trace: &str) -> (Json, Json) {
    let dir =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .current_dir(&dir)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: no info and result lines");
    let info = Json::parse(lines[lines.len() - 2]).expect("info line is JSON");
    let result = Json::parse(lines[lines.len() - 1]).expect("result line is JSON");
    (info, result)
}

#[test]
fn every_workload_runs_and_reports_every_metric() {
    for workload in WORKLOADS {
        let (info, result) = run(workload, "0");
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(true),
            "{workload}"
        );
        assert_eq!(
            result.get("failed").and_then(Json::as_u64),
            Some(0),
            "{workload}"
        );
        assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
        let metrics = result.get("metrics").expect("metrics");
        for name in END_TO_END {
            let value = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{workload}: {name} = {value:?}"
            );
        }
        let info = info.get("perfbench_info").expect("info object");
        assert_eq!(
            info.get("seed").and_then(Json::as_u64),
            Some(7),
            "{workload}"
        );
    }
}

#[test]
fn traced_runs_report_their_layers() {
    for workload in WORKLOADS {
        let (_, result) = run(workload, "1");
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(true),
            "{workload}"
        );
        let metrics = result.get("metrics").expect("metrics");
        let value = |name: &str| {
            metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert!(
            value("trace.spans").is_some_and(|v| v > 0.0),
            "{workload}: no spans"
        );
        assert!(
            value("setup_s").is_none(),
            "{workload}: end-to-end metric in a traced run"
        );
        match workload {
            "served_jobs" => {
                assert!(value("served.submit_ms").is_some_and(|v| v > 0.0));
                assert!(value("served.cached_frac").is_some_and(|v| (v - 2.0 / 3.0).abs() < 1e-9));
            }
            _ => {
                assert!(value("bvh.build_ms").is_some_and(|v| v > 0.0), "{workload}");
                assert!(
                    value("core.prepare.decode_ms").is_some_and(|v| v > 0.0),
                    "{workload}"
                );
            }
        }
        if workload == "primary_prefetch" {
            assert!(value("core.prefetch.host_ratio").is_some_and(|v| v > 0.0));
            assert!(value("gpu.memsys.replay_ns_per_access").is_some_and(|v| v > 0.0));
        }
    }
}
