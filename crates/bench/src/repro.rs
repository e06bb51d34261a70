//! The experiment driver behind the `repro` binary.
//!
//! Every table and figure of the paper (plus the ablations) is one
//! [`Experiment`] in [`table`]: an id, the cells it simulates, and a
//! reducer that prints its output. [`run`] executes any selection of
//! entries in three steps:
//!
//! 1. prepare each distinct workload's sixteen-scene [`Suite`] once;
//! 2. dedupe the cells by (workload, [`SimConfig`]) equality and run
//!    every unique cell in one cost-model schedule through [`Sweep`];
//! 3. call the selected reducers in order.
//!
//! Simulations are deterministic, so a reducer prints the same bytes
//! whether its entry runs alone or alongside every other entry.

use crate::{default_jobs_for, parse_detail_override, Bench, SimConfig, SimResult, Suite, Sweep};
use rt_scene::{SceneId, Workload};
use std::fmt;
use std::io::{self, Write};
use std::ops::Range;
use std::path::PathBuf;

pub use crate::figures::table;

/// One simulated column of an experiment: `config` run on every scene of
/// the `workload` suite.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The ray workload whose suite the config runs on.
    pub workload: Workload,
    /// The column's name in the experiment's output.
    pub label: &'static str,
    /// The simulated configuration.
    pub config: SimConfig,
}

impl Cell {
    /// A cell on the paper's default 32×32 primary-ray suite.
    pub fn new(label: &'static str, config: SimConfig) -> Cell {
        Cell {
            workload: Workload::paper_default(),
            label,
            config,
        }
    }
}

/// A reducer that writes one experiment's output from its [`Inputs`].
pub type ReduceFn = fn(&Inputs<'_>, &mut dyn Write) -> Result<(), ReproError>;

/// How an experiment turns its inputs into output.
#[derive(Debug, Clone, Copy)]
pub enum Reducer {
    /// Per-scene speedup of every cell after the first over the first
    /// (the baseline), a geometric-mean row, and a note. The table's
    /// columns are the cells' labels.
    Speedup {
        /// The table title.
        title: &'static str,
        /// Printed after the table with each `{}` replaced, in column
        /// order, by that column's geometric-mean speedup as a
        /// percentage.
        note: &'static str,
    },
    /// A figure's own reducer over its cells' results and the suites
    /// they ran on; an entry without cells builds its own inputs.
    Custom(ReduceFn),
    /// Reads the default suite's prepared benches and lists no cells.
    Suite(ReduceFn),
}

/// One entry of the experiment table.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The id `repro` selects it by (`fig07`, `tab03`, `abl05`, …).
    pub id: &'static str,
    /// The cells it simulates.
    pub cells: Vec<Cell>,
    /// What it prints.
    pub reducer: Reducer,
}

/// Run-wide settings, read once from the environment by the binary.
/// `TREELET_CSV_DIR` is not among them: it is read by
/// [`print_scene_table`](crate::print_scene_table) for every table.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Scene detail of every suite (`TREELET_DETAIL`, default
    /// [`SUITE_DETAIL`](crate::SUITE_DETAIL)).
    pub detail: f32,
    /// Where charts and telemetry timelines go (`TREELET_CHART_DIR`,
    /// default `charts`).
    pub chart_dir: PathBuf,
    /// Telemetry sampling interval in cycles
    /// (`TREELET_TELEMETRY_EVERY`, default
    /// [`DEFAULT_TELEMETRY_EVERY`](treelet_rt::DEFAULT_TELEMETRY_EVERY)).
    pub telemetry_every: u64,
}

impl Settings {
    /// Reads `TREELET_DETAIL`, `TREELET_CHART_DIR` and
    /// `TREELET_TELEMETRY_EVERY`. The numbers are parsed strictly: unset
    /// or empty means the default, garbage is an error, never a silent
    /// fallback.
    ///
    /// # Errors
    ///
    /// Why the `TREELET_DETAIL` or `TREELET_TELEMETRY_EVERY` value was
    /// rejected.
    pub fn from_env() -> Result<Settings, String> {
        let raw = std::env::var("TREELET_DETAIL").ok();
        let detail = parse_detail_override(raw.as_deref())?.unwrap_or(crate::SUITE_DETAIL);
        let chart_dir = std::env::var("TREELET_CHART_DIR").unwrap_or_else(|_| "charts".into());
        let every = std::env::var("TREELET_TELEMETRY_EVERY").ok();
        let telemetry_every = match every.filter(|raw| !raw.trim().is_empty()) {
            None => treelet_rt::DEFAULT_TELEMETRY_EVERY,
            Some(raw) => raw.trim().parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                format!("TREELET_TELEMETRY_EVERY must be a positive cycle count, got {raw:?}")
            })?,
        };
        Ok(Settings {
            detail,
            chart_dir: PathBuf::from(chart_dir),
            telemetry_every,
        })
    }
}

/// What a reducer reads: the run settings, its cells' per-scene results
/// and the prepared suites.
#[derive(Debug)]
pub struct Inputs<'a> {
    settings: &'a Settings,
    runs: Vec<&'a [SimResult]>,
    benches: &'a [Bench],
    suites: &'a [(Workload, Range<usize>)],
}

impl<'a> Inputs<'a> {
    /// The run settings.
    pub fn settings(&self) -> &'a Settings {
        self.settings
    }

    /// Per-scene results of the entry's `cell`-th cell, in suite order.
    pub fn run(&self, cell: usize) -> &'a [SimResult] {
        self.runs[cell]
    }

    /// Per-scene results of every cell, in the entry's cell order.
    pub fn runs(&self) -> &[&'a [SimResult]] {
        &self.runs
    }

    /// The prepared benches of the paper's default 32×32 suite, in
    /// suite order.
    ///
    /// # Panics
    ///
    /// Panics if the entry neither lists a default-suite cell nor uses
    /// a [`Reducer::Suite`] reducer.
    pub fn default_suite(&self) -> &'a [Bench] {
        let (_, rows) = self
            .suites
            .iter()
            .find(|(w, _)| *w == Workload::paper_default())
            .expect("the default suite was prepared for this entry");
        &self.benches[rows.clone()]
    }
}

/// What a [`run`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Suites prepared (one per distinct workload).
    pub suites_prepared: usize,
    /// (scene, config) simulations run through the shared schedule.
    pub cells_simulated: usize,
}

/// Why a [`run`] stopped.
#[derive(Debug)]
pub enum ReproError {
    /// An id is not in the table.
    UnknownId(String),
    /// A simulation failed: a table cell (then no reducer ran) or one a
    /// reducer runs itself.
    CellFailed {
        /// `<entry id>/<cell label>`: of the first entry listing a table
        /// cell, or naming the simulation a reducer ran.
        cell: String,
        /// The failing scene.
        scene: SceneId,
        /// The error or panic message.
        reason: String,
    },
    /// Writing the output failed.
    Io(io::Error),
}

impl fmt::Display for ReproError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReproError::UnknownId(id) => {
                let ids: Vec<&str> = table().iter().map(|e| e.id).collect();
                write!(f, "unknown experiment {id:?}; valid ids: {}", ids.join(" "))
            }
            ReproError::CellFailed {
                cell,
                scene,
                reason,
            } => write!(f, "cell {cell} failed on {scene}: {reason}"),
            ReproError::Io(e) => write!(f, "writing output: {e}"),
        }
    }
}

impl std::error::Error for ReproError {}

impl From<io::Error> for ReproError {
    fn from(e: io::Error) -> ReproError {
        ReproError::Io(e)
    }
}

/// Selects the entries named by `ids`, in the given order, or the whole
/// table when `ids` is empty.
fn select(ids: &[&str]) -> Result<Vec<Experiment>, ReproError> {
    let all = table();
    if ids.is_empty() {
        return Ok(all);
    }
    ids.iter()
        .map(|id| {
            all.iter()
                .find(|e| e.id == *id)
                .cloned()
                .ok_or_else(|| ReproError::UnknownId((*id).to_string()))
        })
        .collect()
}

/// The distinct (workload, config) pairs `entries` simulate, in first
/// appearance order, each with the `<id>/<label>` of its first listing.
fn unique_cells(entries: &[Experiment]) -> Vec<(String, Workload, SimConfig)> {
    let mut unique: Vec<(String, Workload, SimConfig)> = Vec::new();
    for e in entries {
        for c in &e.cells {
            if !unique
                .iter()
                .any(|(_, w, cfg)| *w == c.workload && *cfg == c.config)
            {
                unique.push((
                    format!("{}/{}", e.id, c.label),
                    c.workload,
                    c.config.clone(),
                ));
            }
        }
    }
    unique
}

/// Runs the entries named by `ids` (every entry when empty), writing
/// their output to `out` in order.
///
/// # Errors
///
/// An unknown id (before any work), the first failed table cell (before
/// any output is written), a failed simulation a reducer runs itself, or
/// an I/O error from `out`.
pub fn run(ids: &[&str], settings: &Settings, out: &mut dyn Write) -> Result<Report, ReproError> {
    let entries = select(ids)?;

    // 1. One suite per distinct workload, all benches in one grid.
    let mut workloads: Vec<Workload> = Vec::new();
    for e in &entries {
        let reads_default = matches!(e.reducer, Reducer::Suite(_));
        let needed = e
            .cells
            .iter()
            .map(|c| c.workload)
            .chain(reads_default.then(Workload::paper_default));
        for w in needed {
            if !workloads.contains(&w) {
                workloads.push(w);
            }
        }
    }
    let mut benches = Vec::new();
    let mut suites = Vec::new();
    for &w in &workloads {
        let start = benches.len();
        benches.extend(Suite::prepare(settings.detail, w).into_benches());
        suites.push((w, start..benches.len()));
    }
    let rows_of = |w: Workload| suites.iter().find(|(s, _)| *s == w).unwrap().1.clone();

    // 2. Every unique cell once, in one schedule.
    let unique = unique_cells(&entries);
    let mut sweep = Sweep::new(benches);
    for (label, w, config) in &unique {
        sweep = sweep.with_config_on(label.as_str(), config.clone(), rows_of(*w));
    }
    let cells_simulated = sweep.cell_count();
    let mut outcomes = sweep
        .run_parallel(default_jobs_for(cells_simulated))
        .into_iter();
    let mut results: Vec<Vec<SimResult>> = Vec::with_capacity(unique.len());
    for (label, w, _) in &unique {
        let mut per_scene = Vec::new();
        for cell in outcomes.by_ref().take(rows_of(*w).len()) {
            match cell.result {
                Ok(r) => per_scene.push(r),
                Err(e) => {
                    return Err(ReproError::CellFailed {
                        cell: label.clone(),
                        scene: cell.scene,
                        reason: e.to_string(),
                    })
                }
            }
        }
        results.push(per_scene);
    }

    // 3. The reducers, in order.
    for e in &entries {
        let runs = e
            .cells
            .iter()
            .map(|c| {
                let i = unique
                    .iter()
                    .position(|(_, w, cfg)| *w == c.workload && *cfg == c.config)
                    .expect("every cell was scheduled");
                results[i].as_slice()
            })
            .collect();
        let inputs = Inputs {
            settings,
            runs,
            benches: sweep.benches(),
            suites: &suites,
        };
        match e.reducer {
            Reducer::Speedup { title, note } => {
                let labels: Vec<&str> = e.cells[1..].iter().map(|c| c.label).collect();
                crate::figures::speedup_table(out, title, &labels, note, inputs.runs())?;
            }
            Reducer::Custom(reduce) | Reducer::Suite(reduce) => {
                reduce(&inputs, out)?;
            }
        }
    }
    out.flush()?;
    Ok(Report {
        suites_prepared: suites.len(),
        cells_simulated,
    })
}
