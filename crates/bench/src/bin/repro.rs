//! Reproduces the paper's tables and figures (plus the ablations, the
//! charts and the telemetry timelines) from one experiment table.
//!
//! ```text
//! repro [ID...]
//! ```
//!
//! Runs the named entries in the given order, or every entry in
//! DESIGN.md's experiment-map order when no id is given. Each workload's
//! suite is prepared once and each distinct (workload, config) cell is
//! simulated once, however many entries read it.
//!
//! Environment: `TREELET_DETAIL` (scene detail, default 1.0; garbage
//! exits 2), `TREELET_CSV_DIR` (also write every scene table as CSV),
//! `TREELET_CHART_DIR` (charts and timelines, default `charts`),
//! `TREELET_TELEMETRY_EVERY` (telemetry sampling interval in cycles,
//! default 1000; garbage or 0 exits 2), `RT_JOBS` (worker count) and
//! `RT_BVH_CACHE` (preparation cache).
//!
//! Exit codes: 0 success, 1 a failed simulation (naming its entry, cell
//! and scene) or an output error, 2 an unknown id or a bad
//! `TREELET_DETAIL` / `TREELET_TELEMETRY_EVERY`.

use rt_bench::repro::{self, ReproError, Settings};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = args.iter().map(String::as_str).collect();
    let settings = match Settings::from_env() {
        Ok(settings) => settings,
        Err(why) => {
            eprintln!("error: {why}");
            return ExitCode::from(2);
        }
    };
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    match repro::run(&ids, &settings, &mut out) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            let _ = out.flush();
            eprintln!("error: {e}");
            ExitCode::from(match e {
                ReproError::UnknownId(_) => 2,
                _ => 1,
            })
        }
    }
}
