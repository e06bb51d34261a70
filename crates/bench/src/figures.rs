//! The experiment table: every paper table and figure, the ablations,
//! the charts and the telemetry timelines, each with its cells and its
//! reducer. Row builders are shared between a figure's table and its
//! chart, so both are drawn from the same numbers.

use crate::repro::{Cell, Experiment, Inputs, Reducer, ReproError};
use crate::{
    bar_chart, geometric_mean, pct, print_scene_table, Bench, SimConfig, SimError, SimResult,
};
use rt_bvh::WideBvh;
use rt_geometry::{Triangle, Vec3};
use rt_scene::{Scene, SceneId, Workload, WorkloadKind};
use std::io::{self, Write};
use treelet_rt::{
    bounce_rays, direction_coherence, BounceKind, FormationPolicy, LayoutChoice, MappingMode,
    PrefetchConfig, PrefetchDestination, PrefetchHeuristic, PrefetchUsefulness, SchedulerPolicy,
    ShaderProgram, SimSession, TelemetryOptions, TraversalOptions, TreeletAssignment,
    TreeletMetrics, VoterAreaModel, VoterKind,
};

/// Per-scene rows: one `(scene, cells)` pair per suite scene.
type Rows = Vec<(SceneId, Vec<f64>)>;

/// The experiment table, in DESIGN.md's experiment-map order.
pub fn table() -> Vec<Experiment> {
    let base = SimConfig::paper_baseline;
    let pf = SimConfig::paper_treelet_prefetch;
    let trav = SimConfig::paper_treelet_traversal_only;
    let with = |mutate: fn(&mut SimConfig)| {
        let mut c = pf();
        mutate(&mut c);
        c
    };
    let entry = |id, cells, reducer| Experiment { id, cells, reducer };
    let speedup = |id, cells, title, note| entry(id, cells, Reducer::Speedup { title, note });
    let baseline = || Cell::new("baseline", base());
    let voter = |label, kind, latency| Cell::new(label, pf().with_voter(kind, latency));
    let heuristic = |label, h| Cell::new(label, pf().with_heuristic(h));
    let sched = |label, p| Cell::new(label, pf().with_scheduler(p));
    let mapping = |label, m| Cell::new(label, pf().with_mapping_mode(m));
    let treelet_bytes = |label, bytes| Cell::new(label, pf().with_treelet_bytes(bytes));
    let prior = |label, p| Cell::new(label, base().with_prefetcher(p));
    let turnover = |cell: Cell| Cell {
        workload: turnover_workload(),
        ..cell
    };
    // The Fig. 10 / Fig. 12 heuristic columns after the first.
    let heuristics = || {
        vec![
            heuristic("ALWAYS", PrefetchHeuristic::Always),
            heuristic("POP:0.25", PrefetchHeuristic::Popularity(0.25)),
            heuristic("POP:0.5", PrefetchHeuristic::Popularity(0.5)),
            heuristic("POP:0.75", PrefetchHeuristic::Popularity(0.75)),
            heuristic("PARTIAL", PrefetchHeuristic::Partial),
        ]
    };
    let after = |first: Cell, rest: Vec<Cell>| [vec![first], rest].concat();
    vec![
        entry(
            "fig01",
            vec![baseline(), Cell::new("treelet-pf", pf())],
            Reducer::Custom(fig01),
        ),
        entry("tab01", vec![], Reducer::Custom(tab01)),
        entry("tab02", vec![], Reducer::Suite(tab02)),
        entry(
            "fig07",
            vec![baseline(), Cell::new("treelet-pf", pf())],
            Reducer::Custom(fig07),
        ),
        entry(
            "fig08",
            vec![
                baseline(),
                prior("MTA (Lee+)", PrefetchConfig::mta()),
                prior("GHB", PrefetchConfig::ghb()),
                prior("hash-path", PrefetchConfig::hash()),
                Cell::new("treelet-pf", pf()),
                turnover(prior("MTA (Lee+)", PrefetchConfig::mta())),
                turnover(prior("GHB", PrefetchConfig::ghb())),
                turnover(prior("hash-path", PrefetchConfig::hash())),
                turnover(Cell::new("treelet-pf", pf())),
            ],
            Reducer::Custom(fig08),
        ),
        speedup(
            "fig09",
            vec![
                baseline(),
                Cell::new("trav only", trav()),
                sched("trav+prefetch", SchedulerPolicy::Baseline),
            ],
            "Fig. 9: speedup breakdown (baseline scheduler)",
            "\ntraversal alone: {} (paper: -3.7%); with prefetching: {} (paper: +32.1%)",
        ),
        entry(
            "tab03",
            vec![Cell::new("DFS", base()), Cell::new("treelet", trav())],
            Reducer::Custom(tab03),
        ),
        speedup(
            "fig10",
            after(baseline(), heuristics()),
            "Fig. 10: prefetch heuristic speedups",
            "ALWAYS: {}\nPOP:0.25: {}\nPOP:0.5: {}\nPOP:0.75: {}\nPARTIAL: {}\n\
             (paper: ALWAYS +31.9% > POPULARITY +27% > PARTIAL +16%)",
        ),
        entry(
            "fig11",
            vec![
                baseline(),
                heuristic("ALWAYS", PrefetchHeuristic::Always),
                heuristic("POP:0.5", PrefetchHeuristic::Popularity(0.5)),
                heuristic("PARTIAL", PrefetchHeuristic::Partial),
            ],
            Reducer::Custom(fig11),
        ),
        entry(
            "fig12",
            after(
                Cell::new("Baseline", trav().with_prefetcher(PrefetchConfig::none())),
                heuristics(),
            ),
            Reducer::Custom(fig12),
        ),
        speedup(
            "fig13",
            vec![
                baseline(),
                sched("baseline", SchedulerPolicy::Baseline),
                sched("OMR", SchedulerPolicy::OldestMatchingRay),
                sched("PMR", SchedulerPolicy::PrioritizeMostRays),
            ],
            "Fig. 13: treelet scheduler speedups",
            "baseline: {}\nOMR: {}\nPMR: {}\n\
             (paper: all within ~0.3% of each other; PMR +32.1% best)",
        ),
        speedup(
            "fig14",
            vec![
                baseline(),
                mapping("repacked", MappingMode::Packed),
                mapping("loose-wait", MappingMode::LooseWait),
                mapping("strict-wait", MappingMode::StrictWait),
            ],
            "Fig. 14: treelet BVH options",
            "repacked: {}\nloose-wait: {}\nstrict-wait: {}\n\
             (paper: repacked +31.9% > loose +29.7% >> strict -2.5%)\n\
             mapping table storage: 4 B per node = 1/16 of the 64 B node region (paper §6.4)",
        ),
        entry(
            "fig15",
            vec![
                Cell::new("512B slots", pf()),
                Cell::new(
                    "+256B stride",
                    with(|c| c.layout = LayoutChoice::TreeletPacked { extra_stride: 256 }),
                ),
            ],
            Reducer::Custom(fig15),
        ),
        speedup(
            "fig16",
            vec![
                baseline(),
                voter("0 cyc", VoterKind::PseudoTwoLevel, 0),
                voter("32 cyc", VoterKind::PseudoTwoLevel, 32),
                voter("128 cyc", VoterKind::PseudoTwoLevel, 128),
                voter("512 cyc", VoterKind::PseudoTwoLevel, 512),
            ],
            "Fig. 16: speedup vs prefetcher latency (pseudo two-level voter)",
            "latency 0: {}\nlatency 32: {}\nlatency 128: {}\nlatency 512: {}\n\
             (paper: 0/32 cyc ≈ +31-32%, 128 cyc +25.3%, 512 cyc +17%)",
        ),
        entry(
            "fig17",
            vec![
                voter("0 cyc", VoterKind::PseudoTwoLevel, 0),
                voter("32 cyc", VoterKind::PseudoTwoLevel, 32),
                voter("128 cyc", VoterKind::PseudoTwoLevel, 128),
            ],
            Reducer::Custom(fig17),
        ),
        speedup(
            "fig18",
            vec![
                baseline(),
                voter("full", VoterKind::Full, 0),
                voter("pseudo", VoterKind::PseudoTwoLevel, 0),
            ],
            "Fig. 18: full vs pseudo two-level voter speedups",
            "\nfull: {} pseudo: {} (paper: accuracy loss does not impact performance)",
        ),
        speedup(
            "fig19",
            vec![
                baseline(),
                treelet_bytes("256 B", 256),
                treelet_bytes("512 B", 512),
                treelet_bytes("1024 B", 1024),
                treelet_bytes("2048 B", 2048),
            ],
            "Fig. 19: speedup vs maximum treelet size",
            "256 B: {}\n512 B: {}\n1024 B: {}\n2048 B: {}\n\
             (paper: 512 B best +31.9%; 256 B worst +24.8%)",
        ),
        entry(
            "fig20",
            vec![sched("baseline sched", SchedulerPolicy::Baseline)],
            Reducer::Custom(fig20),
        ),
        entry("sec65", vec![], Reducer::Custom(sec65)),
        entry(
            "abl01",
            vec![
                baseline(),
                Cell::new(
                    "greedy-bfs",
                    with(|c| c.formation = FormationPolicy::GreedyBfs),
                ),
                Cell::new(
                    "greedy-dfs",
                    with(|c| c.formation = FormationPolicy::GreedyDfs),
                ),
                Cell::new(
                    "surface-area",
                    with(|c| c.formation = FormationPolicy::SurfaceArea),
                ),
            ],
            Reducer::Custom(abl01),
        ),
        entry(
            "abl02",
            vec![
                baseline(),
                Cell::new("no-order", traversal(false, true)),
                Cell::new("no-ERT", traversal(true, false)),
                Cell::new("neither", traversal(false, false)),
            ],
            Reducer::Custom(abl02),
        ),
        entry("abl03", vec![], Reducer::Custom(abl03)),
        entry("abl04", vec![], Reducer::Custom(abl04)),
        speedup(
            "abl05",
            vec![
                baseline(),
                Cell::new("nodes->L1", pf()),
                Cell::new("nodes+tris->L1", with(|c| c.prefetch_triangles = true)),
                Cell::new(
                    "nodes->L2",
                    with(|c| c.prefetch_destination = PrefetchDestination::L2),
                ),
                Cell::new(
                    "nodes+tris->L2",
                    with(|c| {
                        c.prefetch_triangles = true;
                        c.prefetch_destination = PrefetchDestination::L2;
                    }),
                ),
            ],
            "Ablation 5: prefetch scope (what is fetched, and into which cache)",
            "nodes->L1: {}\nnodes+tris->L1: {}\nnodes->L2: {}\nnodes+tris->L2: {}\n\
             (the paper's design is nodes->L1; triangle data and L2 placement are extensions)",
        ),
        entry("abl06", vec![], Reducer::Custom(abl06)),
        entry("abl07", vec![], Reducer::Custom(abl07)),
        entry(
            "charts",
            vec![
                baseline(),
                Cell::new("treelet-pf", pf()),
                Cell::new("traversal only", trav()),
                heuristic("ALWAYS", PrefetchHeuristic::Always),
                heuristic("POP 0.5", PrefetchHeuristic::Popularity(0.5)),
                heuristic("PARTIAL", PrefetchHeuristic::Partial),
                sched("baseline sched", SchedulerPolicy::Baseline),
            ],
            Reducer::Custom(charts),
        ),
        entry("telemetry", vec![], Reducer::Suite(telemetry)),
    ]
}

/// fig08's second suite: 128×128 primary rays, enough for warp-buffer
/// turnover. The hash-path predictor only learns across turnover (a ray
/// must retire and record its path before a same-key ray enters), and
/// the 32×32 default fits entirely in the 8 SM × 16 warp × 32 lane
/// resident set — at that scale no history-based prefetcher ever gets
/// to act, so there would be nothing to classify.
fn turnover_workload() -> Workload {
    Workload::new(WorkloadKind::Primary, 128, 128)
}

/// The baseline with the given traversal-order options.
fn traversal(ordered_children: bool, early_termination: bool) -> SimConfig {
    let mut c = SimConfig::paper_baseline();
    c.traversal_options = TraversalOptions {
        ordered_children,
        early_termination,
    };
    c
}

/// Replaces each `{}` in `template`, in order, with the next value.
fn fill(template: &str, values: &[String]) -> String {
    let mut parts = template.split("{}");
    let mut out = parts.next().unwrap_or_default().to_string();
    for (part, value) in parts.zip(values) {
        out.push_str(value);
        out.push_str(part);
    }
    out
}

/// Column `col` of `rows`.
fn column(rows: &[(SceneId, Vec<f64>)], col: usize) -> Vec<f64> {
    rows.iter().map(|(_, c)| c[col]).collect()
}

/// Arithmetic mean of column `col` of `rows`.
fn column_mean(rows: &[(SceneId, Vec<f64>)], col: usize) -> f64 {
    column(rows, col).iter().sum::<f64>() / rows.len() as f64
}

/// One row per scene, with `cells(i)` computed from scene `i`'s results.
fn scene_rows(cells: impl Fn(usize) -> Vec<f64>) -> Rows {
    SceneId::ALL
        .into_iter()
        .enumerate()
        .map(|(i, scene)| (scene, cells(i)))
        .collect()
}

/// Per-scene speedup of each of `cols` over `base`.
fn speedup_rows(base: &[SimResult], cols: &[&[SimResult]]) -> Rows {
    scene_rows(|i| cols.iter().map(|r| r[i].speedup_over(&base[i])).collect())
}

/// The shared speedup reducer: per-scene speedups of `runs[1..]` over
/// `runs[0]`, a geometric-mean row, then `note` with each column's mean
/// speedup filled in.
pub(crate) fn speedup_table(
    out: &mut dyn Write,
    title: &str,
    columns: &[&str],
    note: &str,
    runs: &[&[SimResult]],
) -> io::Result<()> {
    let rows = speedup_rows(runs[0], &runs[1..]);
    print_scene_table(out, title, columns, &rows, true)?;
    let means: Vec<String> = (0..columns.len())
        .map(|c| pct(geometric_mean(&column(&rows, c))))
        .collect();
    writeln!(out, "{}", fill(note, &means))
}

/// Tags a simulation that a reducer runs itself with its cell
/// (`<entry id>/<label>`) and scene, so it fails like a table cell.
fn cell_failed(cell: String, scene: SceneId) -> impl FnOnce(SimError) -> ReproError {
    move |e| ReproError::CellFailed {
        cell,
        scene,
        reason: e.to_string(),
    }
}

/// Coefficient of variation of per-channel DRAM access counts (the
/// Fig. 15 imbalance metric).
fn cv(counts: &[u64]) -> f64 {
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<u64>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = counts
        .iter()
        .map(|&c| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

/// Figure 1: average DRAM utilization (a) and average memory latency of
/// demand BVH loads (b), baseline RT unit vs. treelet prefetching.
fn fig01(inputs: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    let (base, pf) = (inputs.run(0), inputs.run(1));
    let util_rows = scene_rows(|i| vec![base[i].dram_utilization, pf[i].dram_utilization]);
    print_scene_table(
        out,
        "Fig. 1a: average DRAM utilization",
        &["baseline", "treelet-pf"],
        &util_rows,
        false,
    )?;
    let lat_rows = scene_rows(|i| {
        vec![
            base[i].node_load_latency,
            pf[i].node_load_latency,
            base[i].node_load_latency_p99,
            pf[i].node_load_latency_p99,
        ]
    });
    print_scene_table(
        out,
        "Fig. 1b: demand BVH-load latency (core cycles; mean and p99 tail)",
        &["mean base", "mean pf", "p99 base", "p99 pf"],
        &lat_rows,
        true,
    )?;
    let reduction: Vec<f64> = base
        .iter()
        .zip(pf)
        .map(|(r0, r1)| 1.0 - r1.node_load_latency / r0.node_load_latency)
        .collect();
    let mean = reduction.iter().sum::<f64>() / reduction.len() as f64;
    writeln!(
        out,
        "\nmean BVH demand-latency reduction: {:.1}% (paper: 54%)",
        mean * 100.0
    )?;
    Ok(())
}

/// Table 1: the simulated GPU configuration.
fn tab01(_: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    let c = SimConfig::paper_baseline();
    let m = &c.mem;
    let kb = m.l1_lines * m.line_bytes as usize / 1024;
    let mb = m.l2_lines * m.line_bytes as usize / (1024 * 1024);
    let (l2_ways, dram) = (m.l2_lines as u64 / m.l2_sets, &m.dram);
    let rows = [
        ("# Streaming Multiprocessors (SM)", c.num_sms.to_string()),
        ("Warp Size", c.warp_size.to_string()),
        (
            "L1 Data Cache",
            format!("{kb} KB, fully assoc. LRU, {} cycles", m.l1_latency),
        ),
        (
            "L2 Unified Cache",
            format!(
                "{mb} MB, {l2_ways}-way assoc. LRU, {} cycles, {} partitions",
                m.l2_latency, m.l2_partitions
            ),
        ),
        (
            "Core, Interconnect, L2 Clock",
            format!("{} MHz", m.core_clock_mhz),
        ),
        ("Memory Clock", format!("{} MHz", m.mem_clock_mhz)),
        (
            "DRAM",
            format!(
                "{} channels, {} B partition stride, {} mem-cycle access",
                dram.channels, dram.partition_stride, dram.service_latency
            ),
        ),
        ("# RT Units / SM", "1".to_string()),
        ("RT Unit Warp Buffer Size", c.warp_buffer_size.to_string()),
        ("Cache Line", format!("{} B", m.line_bytes)),
        (
            "Max Treelet Size (default)",
            format!("{} B", c.treelet_bytes),
        ),
    ];
    writeln!(out, "== Table 1: Vulkan-Sim configuration (reproduced) ==")?;
    for (name, value) in rows {
        writeln!(out, "{name:<35}{value}")?;
    }
    Ok(())
}

/// Table 2: per-scene BVH statistics (tree size, depth, total treelets
/// at the 512-byte maximum treelet size), with the paper's published
/// values alongside. Absolute sizes differ — the procedural stand-ins
/// are scaled down (see DESIGN.md) — but the suite's relative ordering
/// is preserved.
fn tab02(inputs: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    writeln!(out, "== Table 2: evaluation scenes (ours vs. paper) ==")?;
    writeln!(
        out,
        "{:<7} {:>12} {:>7} {:>12} | {:>12} {:>7} {:>12}",
        "Scene", "size MB", "depth", "treelets", "paper MB", "depth", "treelets"
    )?;
    for bench in inputs.default_suite() {
        let stats = bench.tree_stats();
        let treelets = TreeletAssignment::form(bench.bvh(), 512);
        let paper = bench.scene().paper_stats();
        writeln!(
            out,
            "{:<7} {:>12.2} {:>7} {:>12} | {:>12.1} {:>7} {:>12}",
            bench.scene().name(),
            stats.total_mb(),
            stats.max_depth,
            treelets.count(),
            paper.tree_size_mb,
            paper.tree_depth,
            paper.total_treelets
        )?;
    }
    Ok(())
}

/// Per-scene speedup and normalized power of treelet prefetching.
fn fig07_rows(base: &[SimResult], pf: &[SimResult]) -> Rows {
    scene_rows(|i| {
        vec![
            pf[i].speedup_over(&base[i]),
            pf[i].power.avg_power_w / base[i].power.avg_power_w,
        ]
    })
}

/// Figure 7: overall speedup and power of treelet prefetching with the
/// ALWAYS heuristic, PMR scheduler, and 512-byte treelets.
fn fig07(inputs: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    let rows = fig07_rows(inputs.run(0), inputs.run(1));
    print_scene_table(
        out,
        "Fig. 7: speedup and normalized power (ALWAYS, PMR, 512 B)",
        &["speedup", "norm. power"],
        &rows,
        true,
    )?;
    writeln!(
        out,
        "\nmean speedup: {} (paper: +32.1%); power stays ~constant (paper: same power)",
        pct(geometric_mean(&column(&rows, 0)))
    )?;
    Ok(())
}

/// Figure 8: comparison to prior work — the Lee et al. many-thread-aware
/// stride prefetcher (optimistically, with infinite tables), a global
/// history buffer, and hash-based ray-path prediction (Demoullin et al.)
/// against treelet prefetching, plus a per-prefetcher
/// useful/late/useless timeliness taxonomy on the turnover suite.
fn fig08(inputs: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    let names = ["MTA (Lee+)", "GHB", "hash-path", "treelet-pf"];
    speedup_table(
        out,
        "Fig. 8: speedup vs prior work",
        &names,
        "\nMTA mean: {} (paper: ~0%, ineffective); GHB mean: {} (paper §2.4: unsuitable); \
         hash mean: {}; treelet mean: {}",
        &inputs.runs()[..5],
    )?;

    let taxonomy = |results: &[SimResult]| {
        let mut acc = PrefetchUsefulness::default();
        let mut total = 0;
        for r in results {
            let u = PrefetchUsefulness::from_effect(&r.prefetch_effect);
            acc.useful += u.useful;
            acc.late += u.late;
            acc.useless += u.useless;
            total += r.prefetch_effect.total();
        }
        (acc, total)
    };
    writeln!(
        out,
        "\n== Prefetch timeliness per prefetcher (128x128 suite totals) =="
    )?;
    writeln!(
        out,
        "{:<12} {:>10} {:>9} {:>9} {:>9}",
        "Prefetcher", "issued", "useful", "late", "useless"
    )?;
    for (name, results) in names.iter().zip(&inputs.runs()[5..]) {
        let (u, total) = taxonomy(results);
        let share = |n: u64| {
            if total == 0 {
                0.0
            } else {
                n as f64 / total as f64 * 100.0
            }
        };
        writeln!(
            out,
            "{:<12} {:>10} {:>8.1}% {:>8.1}% {:>8.1}%",
            name,
            total,
            share(u.useful),
            share(u.late),
            share(u.useless)
        )?;
    }
    let (u, total) = taxonomy(inputs.run(5));
    if total > 0 {
        writeln!(
            out,
            "\nMTA prefetches that fetched nothing useful: {:.0}% (paper: 'does not fetch many useful BVH nodes')",
            (u.late + u.useless) as f64 / total as f64 * 100.0
        )?;
    }
    Ok(())
}

/// Table 3: average and maximum nodes traversed per ray, baseline DFS
/// vs treelet-based traversal. Lower is better.
fn tab03(inputs: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    let (dfs, two) = (inputs.run(0), inputs.run(1));
    writeln!(
        out,
        "== Table 3: nodes traversed per ray (DFS vs treelet traversal) =="
    )?;
    writeln!(
        out,
        "{:<7} {:>10} {:>10} {:>9} | {:>8} {:>8} {:>9}",
        "Scene", "avg DFS", "avg Trlt", "diff", "max DFS", "max Trlt", "diff"
    )?;
    let mut avg_ratio = Vec::new();
    let mut max_ratio = Vec::new();
    for (i, scene) in SceneId::ALL.into_iter().enumerate() {
        let (d, t) = (&dfs[i].traversal, &two[i].traversal);
        let ar = t.avg_nodes_per_ray / d.avg_nodes_per_ray;
        let mr = t.max_nodes_per_ray as f64 / d.max_nodes_per_ray as f64;
        avg_ratio.push(ar);
        max_ratio.push(mr);
        writeln!(
            out,
            "{:<7} {:>10.1} {:>10.1} {:>+8.2}% | {:>8} {:>8} {:>+8.2}%",
            scene.name(),
            d.avg_nodes_per_ray,
            t.avg_nodes_per_ray,
            (ar - 1.0) * 100.0,
            d.max_nodes_per_ray,
            t.max_nodes_per_ray,
            (mr - 1.0) * 100.0
        )?;
    }
    writeln!(
        out,
        "GMean diff: avg {:+.2}% (paper: -2.12%), max {:+.2}% (paper: -0.28%)",
        (geometric_mean(&avg_ratio) - 1.0) * 100.0,
        (geometric_mean(&max_ratio) - 1.0) * 100.0
    )?;
    Ok(())
}

/// Figure 11: L2 bandwidth of the prefetch heuristics, normalized to the
/// baseline RT unit (no prefetching).
fn fig11(inputs: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    let line = SimConfig::paper_baseline().mem.line_bytes;
    let (base, heuristics) = (inputs.run(0), &inputs.runs()[1..]);
    let rows = scene_rows(|i| {
        let b0 = base[i].l2_bytes_per_cycle(line);
        heuristics
            .iter()
            .map(|r| r[i].l2_bytes_per_cycle(line) / b0)
            .collect()
    });
    print_scene_table(
        out,
        "Fig. 11: L2 bandwidth normalized to no prefetching",
        &["ALWAYS", "POP:0.5", "PARTIAL"],
        &rows,
        true,
    )?;
    writeln!(
        out,
        "(paper: POPULARITY/PARTIAL throttle L2 BW below ALWAYS)"
    )?;
    Ok(())
}

/// Figure 12: L1 cache statistics per prefetch heuristic — the fraction
/// of demand accesses that hit on prefetched data, hit on demand-fetched
/// data, merged with an in-flight fetch (pending), or missed.
fn fig12(inputs: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    let names = [
        "Baseline", "ALWAYS", "POP:0.25", "POP:0.5", "POP:0.75", "PARTIAL",
    ];
    writeln!(
        out,
        "== Fig. 12: L1 demand-access breakdown per heuristic =="
    )?;
    writeln!(
        out,
        "{:<7} {:<9} {:>9} {:>9} {:>9} {:>9}",
        "Scene", "Config", "pf-hit", "dem-hit", "pending", "miss"
    )?;
    for (i, scene) in SceneId::ALL.into_iter().enumerate() {
        for (c, name) in names.iter().enumerate() {
            let s = &inputs.run(c)[i].l1;
            let total = s.demand_accesses().max(1) as f64;
            let share = |n: u64| n as f64 / total * 100.0;
            writeln!(
                out,
                "{:<7} {:<9} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
                if c == 0 { scene.name() } else { "" },
                name,
                share(s.demand_hits_on_prefetch),
                share(s.demand_hits_on_demand),
                share(s.demand_pending_hits),
                share(s.demand_misses)
            )?;
        }
    }
    writeln!(
        out,
        "(paper: ALWAYS shows the largest prefetch-hit fraction)"
    )?;
    Ok(())
}

/// Figure 15: DRAM load-balancing effect of adding a 256-byte stride
/// between 512-byte treelet slots (roots 768 B apart instead of 512 B).
fn fig15(inputs: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    let (packed, strided) = (inputs.run(0), inputs.run(1));
    let rows = speedup_rows(packed, &[strided]);
    print_scene_table(
        out,
        "Fig. 15: +256 B stride speedup over plain 512 B packing",
        &["speedup"],
        &rows,
        true,
    )?;
    writeln!(
        out,
        "\nmean stride benefit: {} (paper: +5.7%)",
        pct(geometric_mean(&column(&rows, 0)))
    )?;
    // Channel imbalance evidence: coefficient of variation of
    // per-channel DRAM accesses with and without the stride.
    writeln!(
        out,
        "\nper-channel DRAM access imbalance (coefficient of variation):"
    )?;
    writeln!(
        out,
        "{:<7} {:>12} {:>12}",
        "Scene", "512B slots", "+256B stride"
    )?;
    for (i, scene) in SceneId::ALL.into_iter().enumerate() {
        writeln!(
            out,
            "{:<7} {:>12.3} {:>12.3}",
            scene.name(),
            cv(&packed[i].dram_channel_accesses),
            cv(&strided[i].dram_channel_accesses)
        )?;
    }
    Ok(())
}

/// Figure 17: decision accuracy of the pseudo two-level majority voter —
/// how often it agrees with a full majority voter on the most popular
/// treelet.
fn fig17(inputs: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    let rows = scene_rows(|i| {
        inputs
            .runs()
            .iter()
            .map(|r| {
                r[i].prefetcher
                    .map(|p| p.voter_accuracy() * 100.0)
                    .unwrap_or(0.0)
            })
            .collect()
    });
    print_scene_table(
        out,
        "Fig. 17: pseudo-voter agreement with the full voter (%)",
        &["0 cyc", "32 cyc", "128 cyc"],
        &rows,
        false,
    )?;
    writeln!(
        out,
        "\nmean agreement at 0-cycle sampling: {:.1}% (paper: 91.2%)",
        column_mean(&rows, 0)
    )?;
    Ok(())
}

/// Per-scene prefetch effectiveness: the percentage of prefetch probes
/// that were timely, late, too late, early, or unused.
fn fig20_rows(results: &[SimResult]) -> Rows {
    scene_rows(|i| {
        let e = results[i].prefetch_effect;
        let total = e.total().max(1) as f64;
        [e.timely, e.late, e.too_late, e.early, e.unused]
            .iter()
            .map(|&n| n as f64 / total * 100.0)
            .collect()
    })
}

/// The Fig. 20 effectiveness classes.
const FIG20_COLUMNS: [&str; 5] = ["timely", "late", "too late", "early", "unused"];

/// Figure 20: prefetch effectiveness for 512-byte treelets with the
/// baseline scheduler and ALWAYS heuristic.
fn fig20(inputs: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    let rows = fig20_rows(inputs.run(0));
    print_scene_table(
        out,
        "Fig. 20: prefetch effectiveness (% of prefetch probes)",
        &FIG20_COLUMNS,
        &rows,
        false,
    )?;
    let mean = |col| column_mean(&rows, col);
    writeln!(
        out,
        "\nmeans: timely {:.1}% late {:.1}% too-late {:.1}% early {:.1}% unused {:.1}%",
        mean(0),
        mean(1),
        mean(2),
        mean(3),
        mean(4)
    )?;
    writeln!(out, "(paper: timely 47.8%, unused 43.5% — unused prefetches are the stated area for improvement)")?;
    Ok(())
}

/// Section 6.5: prefetcher design storage and area arithmetic for the
/// two-level pseudo majority voter.
fn sec65(_: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    let m = VoterAreaModel::paper_default();
    writeln!(
        out,
        "== §6.5: two-level pseudo majority voter storage/area =="
    )?;
    writeln!(
        out,
        "first-level table:  {} entries x ({} addr bits + count) = {} B (paper: 108 B)",
        m.first_level_entries,
        m.address_bits,
        m.first_level_table_bytes()
    )?;
    writeln!(
        out,
        "second-level table: {} entries x ({} addr bits + count) = {} B (paper: 52 B)",
        m.second_level_entries,
        m.address_bits,
        m.second_level_table_bytes()
    )?;
    writeln!(
        out,
        "sequential logic area (FreePDK45): {} um^2 (paper: 461 um^2)",
        m.sequential_area_um2()
    )?;
    writeln!(out, "\nvoter latency by first-level table replication:")?;
    for tables in [1u32, 2, 4, 8, 16] {
        writeln!(
            out,
            "  {:>2} table(s) -> {:>3} cycles",
            tables,
            m.latency_cycles(tables)
        )?;
    }
    writeln!(
        out,
        "(paper: 1 table = 512 cycles, 4 tables = 128 cycles, 16 tables = 32 cycles)"
    )?;
    Ok(())
}

/// Ablation 1: treelet formation policies (the paper's §8 future work)
/// — greedy BFS vs depth-first vs surface-area-weighted growth, plus
/// each policy's treelet-quality metrics on BUNNY.
fn abl01(inputs: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    let policies = [
        ("greedy-bfs", FormationPolicy::GreedyBfs),
        ("greedy-dfs", FormationPolicy::GreedyDfs),
        ("surface-area", FormationPolicy::SurfaceArea),
    ];
    speedup_table(
        out,
        "Ablation 1: treelet formation policy speedups (ALWAYS, PMR, 512 B)",
        &policies.map(|(name, _)| name),
        "greedy-bfs: {}\ngreedy-dfs: {}\nsurface-area: {}",
        inputs.runs(),
    )?;
    let bench = inputs
        .default_suite()
        .iter()
        .find(|b| b.scene() == SceneId::Bunny)
        .expect("the suite holds BUNNY");
    writeln!(out, "\ntreelet quality on {} (512 B):", bench.scene())?;
    for (name, policy) in policies {
        let assignment = TreeletAssignment::form_with_policy(bench.bvh(), 512, policy);
        writeln!(
            out,
            "  {name:<13} {}",
            TreeletMetrics::of(bench.bvh(), &assignment)
        )?;
    }
    Ok(())
}

/// Ablation 2: traversal-order design choices — near-first child
/// ordering and early ray termination — as cycle and node-visit
/// inflation over the full baseline.
fn abl02(inputs: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    let (base, variants) = (inputs.run(0), &inputs.runs()[1..]);
    let rows = scene_rows(|i| {
        let cycles = variants
            .iter()
            .map(|r| r[i].cycles as f64 / base[i].cycles as f64);
        let nodes = variants
            .iter()
            .map(|r| r[i].traversal.avg_nodes_per_ray / base[i].traversal.avg_nodes_per_ray);
        cycles.chain(nodes).collect()
    });
    print_scene_table(
        out,
        "Ablation 2: cycle and node-visit inflation without ordering / ERT",
        &[
            "cyc no-order",
            "cyc no-ERT",
            "cyc neither",
            "node no-order",
            "node no-ERT",
            "node neither",
        ],
        &rows,
        true,
    )?;
    for (col, name) in ["no-order", "no-ERT", "neither"].iter().enumerate() {
        writeln!(
            out,
            "{name}: {:.2}x cycles vs full baseline",
            geometric_mean(&column(&rows, col))
        )?;
    }
    Ok(())
}

/// Ablation 3: ray incoherence vs prefetch benefit. The paper (§2.4)
/// argues secondary and reflection rays are the hard case for classical
/// prefetchers; this measures treelet prefetching on primary rays, true
/// diffuse bounces (traced off the primary hits), specular bounces, and
/// surface-sampled shadow rays.
fn abl03(inputs: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    let detail = inputs.settings().detail;
    writeln!(
        out,
        "== Ablation 3: workload incoherence vs prefetch benefit =="
    )?;
    writeln!(
        out,
        "{:<7} {:<10} {:>9} {:>10} {:>10} {:>10}",
        "Scene", "workload", "coherence", "base cyc", "pf cyc", "speedup"
    )?;
    for scene_id in [SceneId::Bunny, SceneId::Crnvl, SceneId::Frst] {
        let scene = Scene::build_with_detail(scene_id, detail);
        let primary = Workload::paper_default().generate(&scene);
        let shadow = Workload::new(WorkloadKind::Shadow, 32, 32).generate(&scene);
        let bvh = WideBvh::build(scene.mesh.into_triangles());
        let diffuse = bounce_rays(&bvh, &primary, BounceKind::Diffuse, 11);
        let specular = bounce_rays(&bvh, &primary, BounceKind::Specular, 11);
        for (name, rays) in [
            ("primary", &primary),
            ("specular", &specular),
            ("diffuse", &diffuse),
            ("shadow", &shadow),
        ] {
            if rays.is_empty() {
                continue;
            }
            let base = SimSession::new(&bvh, rays, SimConfig::paper_baseline())
                .run()
                .map_err(cell_failed(format!("abl03/{name} baseline"), scene_id))?;
            let pf = SimSession::new(&bvh, rays, SimConfig::paper_treelet_prefetch())
                .run()
                .map_err(cell_failed(format!("abl03/{name} prefetch"), scene_id))?;
            writeln!(
                out,
                "{:<7} {:<10} {:>9.3} {:>10} {:>10} {:>9}",
                scene_id.name(),
                name,
                direction_coherence(rays),
                base.cycles,
                pf.cycles,
                pct(pf.speedup_over(&base))
            )?;
        }
    }
    writeln!(
        out,
        "\n(expectation: bounce generations are less coherent than primary rays;"
    )?;
    writeln!(
        out,
        " treelet prefetching still helps because it does not rely on address regularity)"
    )?;
    Ok(())
}

/// Ablation 4: microarchitectural sweeps around the Table 1
/// configuration — warp-buffer depth, RT-unit issue width, L1 capacity,
/// raygen stagger and prefetch queue depth — on CAR.
fn abl04(inputs: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    let bench = Bench::prepare(
        SceneId::Car,
        inputs.settings().detail,
        Workload::paper_default(),
    );
    let run_pair = |knob: String, mutate: &dyn Fn(&mut SimConfig)| {
        let mut base = SimConfig::paper_baseline();
        mutate(&mut base);
        let mut pf = SimConfig::paper_treelet_prefetch();
        mutate(&mut pf);
        let run = |config: &SimConfig, label: &str| {
            bench
                .try_run(config)
                .map_err(cell_failed(format!("abl04/{knob} {label}"), bench.scene()))
        };
        let (b, p) = (run(&base, "baseline")?, run(&pf, "prefetch")?);
        Ok::<_, ReproError>((b.cycles, p.cycles, pct(p.speedup_over(&b))))
    };
    writeln!(out, "== Ablation 4: microarchitecture sweeps (CAR) ==")?;

    writeln!(out, "\n-- warp buffer size (Table 1: 16) --")?;
    for size in [4usize, 8, 16, 32] {
        let (b, p, s) = run_pair(format!("warp_buffer_size={size}"), &|c| {
            c.warp_buffer_size = size
        })?;
        writeln!(out, "{size:>3} entries: base {b:>8} pf {p:>8} speedup {s}")?;
    }
    writeln!(out, "\n-- RT-unit issue width --")?;
    for width in [1usize, 2, 4, 8] {
        let (b, p, s) = run_pair(format!("issue_width={width}"), &|c| c.issue_width = width)?;
        writeln!(out, "{width:>3}/cycle:   base {b:>8} pf {p:>8} speedup {s}")?;
    }
    writeln!(out, "\n-- L1 capacity (Table 1: 64 KB) --")?;
    for kb in [16usize, 32, 64, 128] {
        let (b, p, s) = run_pair(format!("l1_kb={kb}"), &|c| c.mem.l1_lines = kb * 1024 / 64)?;
        writeln!(out, "{kb:>3} KB:      base {b:>8} pf {p:>8} speedup {s}")?;
    }
    writeln!(
        out,
        "\n-- raygen shader stagger (cycles between warp launches) --"
    )?;
    for interval in [0u64, 100, 400, 1600] {
        let (b, p, s) = run_pair(format!("raygen_interval={interval}"), &|c| {
            c.raygen_interval = interval
        })?;
        writeln!(
            out,
            "{interval:>4} cyc:    base {b:>8} pf {p:>8} speedup {s}"
        )?;
    }
    writeln!(out, "\n-- prefetch queue capacity --")?;
    for cap in [16usize, 32, 64, 128] {
        let (b, p, s) = run_pair(format!("prefetch_queue_capacity={cap}"), &|c| {
            c.prefetch_queue_capacity = cap
        })?;
        writeln!(out, "{cap:>3} entries: base {b:>8} pf {p:>8} speedup {s}")?;
    }
    Ok(())
}

/// Ripple amplitude of the abl06 animation.
const AMPLITUDE: f32 = 0.4;

/// The travelling vertical ripple at `phase` applied to a rest-pose
/// vertex.
fn ripple(v: Vec3, phase: f32) -> Vec3 {
    Vec3::new(v.x, v.y + AMPLITUDE * (v.x * 0.8 + phase).sin(), v.z)
}

/// Deforms rest-pose triangles to `phase`.
fn deform(rest: &[Triangle], phase: f32) -> Vec<Triangle> {
    rest.iter()
        .map(|t| {
            Triangle::new(
                ripple(t.v0, phase),
                ripple(t.v1, phase),
                ripple(t.v2, phase),
            )
        })
        .collect()
}

/// Ablation 6: animated scenes — rebuilding the BVH and re-forming
/// treelets every frame (the quality ceiling) against refitting the
/// frame-0 BVH and keeping its stale treelets (the cheap path a real
/// engine takes between rebuilds), on BUNNY.
fn abl06(inputs: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    let scene = Scene::build_with_detail(SceneId::Bunny, inputs.settings().detail);
    let rays = Workload::paper_default().generate(&scene);
    let rest = scene.mesh.into_triangles();

    // Frame-0 structures for the refit path. The build reorders
    // triangles; recover their rest poses (phase-0 ripple removed) so
    // later frames can be generated in the reordered order the refit
    // expects.
    let mut refit_bvh = WideBvh::build(deform(&rest, 0.0));
    let frame0_treelets = TreeletAssignment::form(&refit_bvh, 512);
    let reordered_rest: Vec<Triangle> = refit_bvh
        .triangles()
        .iter()
        .map(|t| {
            let unripple = |v: Vec3| Vec3::new(v.x, v.y - AMPLITUDE * (v.x * 0.8).sin(), v.z);
            Triangle::new(unripple(t.v0), unripple(t.v1), unripple(t.v2))
        })
        .collect();

    writeln!(
        out,
        "== Ablation 6: animation — rebuild vs refit + stale treelets (BUNNY) =="
    )?;
    writeln!(
        out,
        "{:>5} {:>16} {:>16} {:>13}",
        "frame", "rebuild speedup", "refit speedup", "refit/rebuild"
    )?;
    let speedup = |cell: String, bvh: &WideBvh, treelets: Option<&TreeletAssignment>| {
        let run = |config: SimConfig, label: &str| {
            let session = SimSession::new(bvh, &rays, config);
            let result = match treelets {
                Some(t) => session.treelets(t).run(),
                None => session.run(),
            };
            result.map_err(cell_failed(format!("abl06/{cell} {label}"), SceneId::Bunny))
        };
        let base = run(SimConfig::paper_baseline(), "baseline")?;
        let pf = run(SimConfig::paper_treelet_prefetch(), "prefetch")?;
        Ok::<_, ReproError>(pf.speedup_over(&base))
    };
    for frame in 0..6 {
        let phase = frame as f32 * 0.9;
        let rb = speedup(
            format!("frame {frame} rebuild"),
            &WideBvh::build(deform(&rest, phase)),
            None,
        )?;
        refit_bvh.refit(deform(&reordered_rest, phase));
        let rf = speedup(
            format!("frame {frame} refit"),
            &refit_bvh,
            Some(&frame0_treelets),
        )?;
        writeln!(
            out,
            "{frame:>5} {:>16} {:>16} {:>13.3}",
            pct(rb),
            pct(rf),
            rf / rb
        )?;
    }
    writeln!(
        out,
        "\n(1.0 in the last column = stale treelets are as good as fresh ones)"
    )?;
    Ok(())
}

/// Ablation 7: the SM shader pipeline around the RT unit (paper Fig. 2)
/// — sweeps the shading-to-traversal ratio to see how much of the
/// treelet-prefetching benefit survives when the workload is no longer
/// pure traversal, on CRNVL.
fn abl07(inputs: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    let bench = Bench::prepare(
        SceneId::Crnvl,
        inputs.settings().detail,
        Workload::paper_default(),
    );
    writeln!(
        out,
        "== Ablation 7: shader pipeline around the RT unit (CRNVL) =="
    )?;
    writeln!(
        out,
        "{:<26} {:>10} {:>10} {:>9} {:>7}",
        "program", "base cyc", "pf cyc", "speedup", "SIMT"
    )?;
    let program = |raygen_ops, shade_ops, bounces, bounce_kind| {
        Some(ShaderProgram {
            raygen_ops,
            shade_ops,
            bounces,
            bounce_kind,
            seed: 7,
        })
    };
    let programs = [
        ("trace replay (paper §5)", None),
        ("raygen only", program(64, 0, 0, BounceKind::Diffuse)),
        ("path tracer (1 bounce)", Some(ShaderProgram::path_tracer())),
        (
            "heavy shading (1 bounce)",
            program(256, 1024, 1, BounceKind::Diffuse),
        ),
        ("2 diffuse bounces", program(32, 64, 2, BounceKind::Diffuse)),
        (
            "2 specular bounces",
            program(32, 64, 2, BounceKind::Specular),
        ),
    ];
    for (name, shader) in programs {
        let mut base_cfg = SimConfig::paper_baseline();
        base_cfg.shader = shader;
        let mut pf_cfg = SimConfig::paper_treelet_prefetch();
        pf_cfg.shader = shader;
        let run = |config: &SimConfig, label: &str| {
            bench
                .try_run(config)
                .map_err(cell_failed(format!("abl07/{name} {label}"), bench.scene()))
        };
        let base = run(&base_cfg, "baseline")?;
        let pf = run(&pf_cfg, "prefetch")?;
        writeln!(
            out,
            "{:<26} {:>10} {:>10} {:>9} {:>6.1}%",
            name,
            base.cycles,
            pf.cycles,
            pct(pf.speedup_over(&base)),
            pf.simt_efficiency * 100.0
        )?;
    }
    writeln!(
        out,
        "\n(SIMT = mean live-lane fraction of warps entering the RT unit)"
    )?;
    Ok(())
}

/// SVG bar charts of Figs. 7, 9, 10 and 20, drawn from the same row
/// builders as the figures' tables, into the chart directory.
fn charts(inputs: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    let dir = &inputs.settings().chart_dir;
    std::fs::create_dir_all(dir)?;
    let (base, pf, trav) = (inputs.run(0), inputs.run(1), inputs.run(2));
    let chart = |file: &str, title: &str, columns: &[&str], rows: Rows, baseline| {
        std::fs::write(dir.join(file), bar_chart(title, columns, &rows, baseline))
    };
    chart(
        "fig07_overall.svg",
        "Fig. 7: treelet prefetching speedup and normalized power (ALWAYS, PMR, 512 B)",
        &["speedup", "norm. power"],
        fig07_rows(base, pf),
        Some(1.0),
    )?;
    chart(
        "fig09_breakdown.svg",
        "Fig. 9: treelet traversal alone vs + prefetching",
        &["traversal only", "traversal + prefetch"],
        speedup_rows(base, &[trav, pf]),
        Some(1.0),
    )?;
    chart(
        "fig10_heuristics.svg",
        "Fig. 10: prefetch heuristics",
        &["ALWAYS", "POP 0.5", "PARTIAL"],
        speedup_rows(base, &inputs.runs()[3..6]),
        Some(1.0),
    )?;
    chart(
        "fig20_effectiveness.svg",
        "Fig. 20: prefetch effectiveness (% of prefetch probes)",
        &FIG20_COLUMNS,
        fig20_rows(inputs.run(6)),
        None,
    )?;
    writeln!(out, "charts written to {}", dir.display())?;
    Ok(())
}

/// Telemetry timelines: per-scene time series behind the paper's
/// time-resolved evidence — prefetch timeliness shares (Fig. 10), L2→L1
/// line traffic (Fig. 11), and per-channel DRAM load imbalance
/// (Fig. 15). Runs every scene under the treelet-prefetch configuration
/// with sampling on (every `TREELET_TELEMETRY_EVERY` cycles, default
/// 1000), writes `<chart dir>/data/telemetry_<scene>.csv`, and prints
/// the end-of-run usefulness shares and DRAM channel imbalance.
fn telemetry(inputs: &Inputs, out: &mut dyn Write) -> Result<(), ReproError> {
    let dir = inputs.settings().chart_dir.join("data");
    std::fs::create_dir_all(&dir)?;
    let opts = TelemetryOptions::new(inputs.settings().telemetry_every);
    let config = SimConfig::paper_treelet_prefetch();
    writeln!(
        out,
        "{:<7} {:>8} {:>9} {:>7} {:>9} {:>9}",
        "Scene", "samples", "useful%", "late%", "useless%", "dram CV"
    )?;
    for bench in inputs.default_suite() {
        let (result, telemetry) = bench
            .try_run_with_telemetry(&config, &opts)
            .map_err(cell_failed("telemetry/treelet-pf".into(), bench.scene()))?;
        let slug = bench.scene().name().to_lowercase();
        telemetry.write_csv(&dir.join(format!("telemetry_{slug}.csv")))?;
        let last = telemetry.samples().last().expect("run produced samples");
        let total =
            (last.prefetch_useful + last.prefetch_late + last.prefetch_useless).max(1) as f64;
        let share = |n: u64| 100.0 * n as f64 / total;
        writeln!(
            out,
            "{:<7} {:>8} {:>8.1}% {:>6.1}% {:>8.1}% {:>9.3}",
            bench.scene().name(),
            telemetry.len(),
            share(last.prefetch_useful),
            share(last.prefetch_late),
            share(last.prefetch_useless),
            cv(&result.dram_channel_accesses),
        )?;
    }
    writeln!(out, "\nwrote per-scene timelines to {}", dir.display())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_substitutes_in_order() {
        let values = ["+1.0%".to_string(), "-2.0%".to_string()];
        assert_eq!(fill("a: {}\nb: {} (x)", &values), "a: +1.0%\nb: -2.0% (x)");
        assert_eq!(fill("\nno slots", &[]), "\nno slots");
    }

    #[test]
    fn table_ids_are_unique_and_speedup_notes_fit_their_columns() {
        let table = table();
        assert_eq!(table.len(), 28);
        for (i, e) in table.iter().enumerate() {
            assert!(
                table[..i].iter().all(|other| other.id != e.id),
                "duplicate id {}",
                e.id
            );
            if let Reducer::Speedup { note, .. } = e.reducer {
                assert_eq!(note.matches("{}").count(), e.cells.len() - 1, "{}", e.id);
            }
            if matches!(e.reducer, Reducer::Suite(_)) {
                assert!(e.cells.is_empty(), "{} lists cells it never reads", e.id);
            }
        }
    }

    #[test]
    fn coefficient_of_variation() {
        assert_eq!(cv(&[0, 0]), 0.0);
        assert_eq!(cv(&[5, 5, 5]), 0.0);
        assert!((cv(&[1, 3]) - 0.5).abs() < 1e-12);
    }
}
