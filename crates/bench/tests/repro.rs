//! The `repro` driver at smoke detail: running every entry together
//! prints exactly what running each entry alone prints, each distinct
//! cell is simulated once, and bad input exits 2 before any work.

use rt_bench::repro::{self, Settings};
use rt_scene::Workload;
use std::process::Command;
use treelet_rt::SimConfig;

fn smoke_settings(name: &str) -> Settings {
    Settings {
        detail: 0.05,
        chart_dir: std::env::temp_dir().join(format!("rt_repro_{name}_{}", std::process::id())),
        telemetry_every: treelet_rt::DEFAULT_TELEMETRY_EVERY,
    }
}

#[test]
fn all_entries_together_print_the_concatenation_of_each_alone() {
    let settings = smoke_settings("bytes");
    let mut together = Vec::new();
    let report = repro::run(&[], &settings, &mut together).expect("full run");

    let table = repro::table();
    let mut alone = Vec::new();
    for entry in &table {
        repro::run(&[entry.id], &settings, &mut alone).expect(entry.id);
    }
    assert!(!together.is_empty());
    assert!(
        together == alone,
        "full-table output differs from the per-entry concatenation"
    );

    // Each distinct (workload, config) pair is simulated once, on every
    // scene of its suite; each distinct workload is prepared once.
    let mut pairs: Vec<(Workload, &SimConfig)> = Vec::new();
    for c in table.iter().flat_map(|e| &e.cells) {
        if !pairs.contains(&(c.workload, &c.config)) {
            pairs.push((c.workload, &c.config));
        }
    }
    let mut workloads: Vec<Workload> = Vec::new();
    for (w, _) in &pairs {
        if !workloads.contains(w) {
            workloads.push(*w);
        }
    }
    assert_eq!(report.cells_simulated, 16 * pairs.len());
    assert_eq!(report.suites_prepared, workloads.len());
    assert!(pairs.len() < table.iter().map(|e| e.cells.len()).sum::<usize>());
    std::fs::remove_dir_all(&settings.chart_dir).ok();
}

#[test]
fn a_cell_less_entry_simulates_nothing() {
    let settings = smoke_settings("cellless");
    let mut out = Vec::new();
    let report = repro::run(&["tab01", "sec65"], &settings, &mut out).unwrap();
    assert_eq!(report.cells_simulated, 0);
    assert_eq!(report.suites_prepared, 0);
    let text = String::from_utf8(out).unwrap();
    assert!(text.starts_with("== Table 1: Vulkan-Sim configuration (reproduced) =="));
    assert!(text.contains("== §6.5: two-level pseudo majority voter storage/area =="));
}

/// Runs the binary with the numeric settings unset except `env`.
fn repro_bin(args: &[&str], env: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args)
        .env_remove("TREELET_DETAIL")
        .env_remove("TREELET_TELEMETRY_EVERY");
    for (key, value) in env {
        cmd.env(key, value);
    }
    cmd.output().expect("spawn repro")
}

#[test]
fn unknown_id_exits_2_and_lists_the_valid_ids() {
    let out = repro_bin(&["tab01", "fig99"], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs before the ids check");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("\"fig99\""), "{err}");
    for entry in repro::table() {
        assert!(err.contains(entry.id), "{} missing from: {err}", entry.id);
    }
}

#[test]
fn a_typo_in_treelet_detail_exits_2_instead_of_running_full_detail() {
    for bad in ["0.1x", "0", "nan"] {
        let out = repro_bin(&["tab01"], &[("TREELET_DETAIL", bad)]);
        assert_eq!(out.status.code(), Some(2), "TREELET_DETAIL={bad}");
        assert!(out.stdout.is_empty());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("TREELET_DETAIL"), "{err}");
    }
    let ok = repro_bin(&["tab01"], &[("TREELET_DETAIL", "0.05")]);
    assert_eq!(ok.status.code(), Some(0));
}

#[test]
fn a_bad_telemetry_interval_exits_2_instead_of_sampling_every_1000_cycles() {
    for bad in ["0", "-5", "1k", "1.5"] {
        let out = repro_bin(&["tab01"], &[("TREELET_TELEMETRY_EVERY", bad)]);
        assert_eq!(out.status.code(), Some(2), "TREELET_TELEMETRY_EVERY={bad}");
        assert!(out.stdout.is_empty());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("TREELET_TELEMETRY_EVERY"), "{err}");
    }
    for ok in ["250", ""] {
        let out = repro_bin(&["tab01"], &[("TREELET_TELEMETRY_EVERY", ok)]);
        assert_eq!(out.status.code(), Some(0), "TREELET_TELEMETRY_EVERY={ok:?}");
    }
}
