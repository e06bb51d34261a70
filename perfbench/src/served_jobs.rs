//! `served_jobs`: an in-process rt-served daemon on `127.0.0.1:0` over
//! a fresh store, driven by a closed loop of `nproc` clients (at most
//! 30, see [`shape`]). Each client walks its own seeded stream of job
//! specs, a new one every pass; every spec is
//! submitted fresh (a cache write) and then resubmitted identically
//! twice (cache hits), so hits are two thirds of the jobs. The median
//! job is therefore a cached one and the 90th percentile a simulated
//! one, and neither sits on the boundary between the two. Every status
//! call waits out part of the daemon's 25 ms accept-loop sleep, so
//! simulated jobs finish on a lattice about one poll apart, and the
//! 90th percentile moves in steps of that size.

use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Ctx;
use rt_rng::{Rng, SmallRng};
use rt_scene::{SceneId, Workload, WorkloadKind};
use rt_served::{
    read_frame, CellResult, Chaos, Client, ClientError, ErrorKind, JobSpec, JobState, JobStatus,
    Json, Request, Response, ServeError, Server, ServerConfig, ShutdownReason, SupervisorConfig,
};
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use treelet_rt::{Bench, SimConfig};

/// The interval at which a client polls a job's status. It is fine
/// enough that a miss job's latency follows its completion: each status
/// call also waits out whatever is left of the daemon's accept-loop
/// sleep, which is the program's own cost.
const POLL: Duration = Duration::from_millis(5);
/// How long a client waits for one job before calling it failed.
const WAIT_BUDGET: Duration = Duration::from_secs(120);
/// Identical resubmissions after each fresh submission.
const RESUBMITS: usize = 2;
const CONFIGS: [&str; 2] = ["baseline", "prefetch"];
/// The suite's scenes, which every round pairs up.
const SCENES: usize = SceneId::ALL.len();
/// Rounds that exist. A round-robin schedule splits the 16 scenes into
/// 15 rounds of 8 pairs that together hold every unordered pair once.
/// A job's identity depends on its scene order, so each round also
/// counts reversed.
const ROUNDS: usize = 2 * (SCENES - 1);

/// The clients and rounds per client of a run on `nproc` cores asking
/// for `rounds` rounds: `nproc` clients while there are rounds for each,
/// and as many rounds per client as there are to deal.
fn shape(nproc: usize, rounds: usize) -> (usize, usize) {
    let clients = nproc.clamp(1, ROUNDS);
    (clients, rounds.clamp(1, ROUNDS / clients))
}

fn shuffle<T>(xs: &mut [T], rng: &mut SmallRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Per client, its job specs for pass `pass`, in submission order:
/// `template` with two scenes filled in. The scenes are relabelled by a
/// seeded shuffle and the [`ROUNDS`] rounds are put in a seeded order,
/// each with its jobs shuffled. Pass `pass` takes the next
/// `clients * rounds` rounds of that order, wrapping around, and deals
/// `rounds` to each client. So every pass asks for the same simulation
/// work in a different grouping and order, and no job repeats within a
/// pass: each spec's first submission to a pass's fresh store is a true
/// cache miss. Asking for more rounds than exist is an error.
fn streams(
    seed: u64,
    pass: usize,
    clients: usize,
    rounds: usize,
    template: &JobSpec,
) -> Result<Vec<Vec<JobSpec>>, String> {
    let dealt = clients * rounds;
    if dealt > ROUNDS {
        return Err(format!(
            "{clients} clients x {rounds} rounds: only {ROUNDS} distinct rounds exist"
        ));
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut scenes = SceneId::ALL.map(|s| s.name());
    shuffle(&mut scenes, &mut rng);
    // Circle method: scene `n` stays put while the others rotate.
    let n = SCENES - 1;
    let mut all: Vec<Vec<[&str; 2]>> = (0..n)
        .map(|r| {
            let mut round = vec![[scenes[n], scenes[r]]];
            round.extend((1..SCENES / 2).map(|k| [scenes[(r + k) % n], scenes[(r + n - k) % n]]));
            round
        })
        .collect();
    let reversed: Vec<Vec<[&str; 2]>> = all
        .iter()
        .map(|round| round.iter().map(|&[a, b]| [b, a]).collect())
        .collect();
    all.extend(reversed);
    shuffle(&mut all, &mut rng);
    for round in &mut all {
        shuffle(round, &mut rng);
    }
    let this_pass: Vec<&Vec<[&str; 2]>> = (0..dealt)
        .map(|i| &all[(pass * dealt + i) % ROUNDS])
        .collect();
    Ok(this_pass
        .chunks(rounds)
        .map(|mine| {
            mine.iter()
                .copied()
                .flatten()
                .map(|p| JobSpec {
                    scenes: p.iter().map(|s| s.to_string()).collect(),
                    ..template.clone()
                })
                .collect()
        })
        .collect())
}

/// One job as a client saw it.
#[derive(Debug)]
struct Job {
    spec: JobSpec,
    fresh: bool,
    cached: bool,
    ms: f64,
    polls: usize,
    rows: Vec<CellResult>,
}

struct Daemon {
    client: Client,
    runner: JoinHandle<Result<ShutdownReason, ServeError>>,
}

impl Daemon {
    /// Binds a daemon over `store` and gets its first pong. The ping's
    /// connection is made and its frame sent before the accept loop
    /// starts, so the loop's first accept finds it waiting. A ping sent
    /// after the loop starts races the loop's first idle sleep and costs
    /// either about 1 ms or a whole sleep, at odds that vary from run to
    /// run; queued first, the set-up is bind, store open, supervisor
    /// start and one served request. Every job's calls still wait out
    /// the sleep.
    fn start(store: &Path, workers: usize) -> Result<Daemon, String> {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            store_dir: store.to_path_buf(),
            supervisor: SupervisorConfig {
                workers,
                ..SupervisorConfig::default()
            },
            signal_flag: None,
            chaos: Chaos::off(),
        })
        .map_err(|e| format!("binding the daemon: {e}"))?;
        let addr = server.local_addr();
        let ping = send_ping(addr);
        let client = Client::new(addr.to_string());
        let runner = std::thread::spawn(move || server.run());
        let daemon = Daemon { client, runner };
        match ping.map_err(|e| e.to_string()).and_then(read_pong) {
            Ok(()) => Ok(daemon),
            Err(e) => {
                let _ = daemon.stop();
                Err(format!("first ping: {e}"))
            }
        }
    }

    fn stop(self) -> Result<(), String> {
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        match self.runner.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon exited with {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

/// Connects to `addr` and sends a ping frame, leaving the reply unread.
fn send_ping(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(format!("{}\n", Request::Ping.encode()).as_bytes())?;
    Ok(stream)
}

/// Reads the reply to [`send_ping`]'s frame.
fn read_pong(stream: TcpStream) -> Result<(), String> {
    let reply = read_frame(&mut BufReader::new(stream))
        .map_err(|e| e.to_string())?
        .ok_or("no reply")?;
    match Response::decode(&reply) {
        Ok(Response::Pong) => Ok(()),
        other => Err(format!("answered {other:?}")),
    }
}

/// `Client::wait` with a span around every status call: the same
/// polling loop, observable.
fn traced_wait(
    tracer: &Tracer,
    client: &Client,
    job: u64,
    polls: &mut usize,
) -> Result<JobStatus, ClientError> {
    let start = Instant::now();
    loop {
        *polls += 1;
        let status = tracer.span("served.status", None, |_| client.status(job))?;
        if status.state.is_terminal() {
            return Ok(status);
        }
        if start.elapsed() >= WAIT_BUDGET {
            return Err(ClientError::WaitTimedOut {
                waited_ms: start.elapsed().as_millis() as u64,
            });
        }
        std::thread::sleep(POLL);
    }
}

/// Runs one client's stream to the end. Returns its jobs, the Busy
/// rejections it absorbed, and any errors.
fn run_client(tracer: &Tracer, client: &Client, specs: &[JobSpec]) -> (Vec<Job>, u64, Vec<String>) {
    let (mut jobs, mut rejected, mut errors) = (Vec::new(), 0, Vec::new());
    for spec in specs {
        for rep in 0..=RESUBMITS {
            let t0 = Instant::now();
            let mut polls = 0;
            // `cached` comes from the submit reply: a resubmission is
            // answered from cache at submit time.
            let outcome = (|| -> Result<(bool, JobStatus, Vec<CellResult>), ClientError> {
                let submitted = loop {
                    match tracer.span("served.submit", None, |_| client.submit(spec.clone())) {
                        Err(ClientError::Server {
                            kind: ErrorKind::Busy,
                            ..
                        }) => {
                            rejected += 1;
                            std::thread::sleep(POLL);
                        }
                        other => break other?,
                    }
                };
                // Untraced, the library's own wait runs, so a change to
                // it shows; traced, the same loop with its calls in spans.
                let status = if tracer.is_on() {
                    traced_wait(tracer, client, submitted.job, &mut polls)?
                } else {
                    client.wait(submitted.job, POLL, WAIT_BUDGET)?
                };
                let rows = tracer.span("served.result", None, |_| client.result(submitted.job))?;
                Ok((submitted.cached, status, rows))
            })();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match outcome {
                Ok((cached, status, rows)) if status.state == JobState::Done => jobs.push(Job {
                    spec: spec.clone(),
                    fresh: rep == 0,
                    cached,
                    ms,
                    polls,
                    rows,
                }),
                Ok((_, status, _)) => {
                    errors.push(format!("job ended {:?}: {:?}", status.state, status.error))
                }
                Err(e) => errors.push(format!("job failed: {e}")),
            }
        }
    }
    (jobs, rejected, errors)
}

/// Files and bytes under `dir`, recursively.
fn store_size(dir: &Path) -> (u64, u64) {
    let mut totals = (0, 0);
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                let (f, b) = store_size(&entry.path());
                totals = (totals.0 + f, totals.1 + b);
            } else {
                totals = (totals.0 + 1, totals.1 + meta.len());
            }
        }
    }
    totals
}

/// Reference results by (scene, config), with the host ms of each run.
type DirectCells = BTreeMap<(String, String), (CellResult, f64)>;

/// Direct `Bench::try_run`s of every (scene, config) cell of jobs shaped
/// like `spec`, with their host ms: the reference every served row must
/// equal, and the base of `served.overhead_ms`. Each scene is prepared
/// once, through the same `Bench::try_prepare` a served cell uses.
fn direct_cells(spec: &JobSpec) -> Result<DirectCells, String> {
    let mut out = BTreeMap::new();
    let workload = Workload::new(WorkloadKind::Primary, spec.res, spec.res);
    for id in SceneId::ALL {
        let bench =
            Bench::try_prepare(id, spec.detail, workload).map_err(|e| format!("{id}: {e}"))?;
        for config in CONFIGS {
            let mut sim = match config {
                "baseline" => SimConfig::paper_baseline(),
                _ => SimConfig::paper_treelet_prefetch(),
            };
            sim.treelet_bytes = spec.treelet_bytes;
            let t0 = Instant::now();
            let r = bench
                .try_run(&sim)
                .map_err(|e| format!("{id}/{config}: {e}"))?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let cell = CellResult {
                cell: 0,
                scene: id.name().to_string(),
                config: config.to_string(),
                cycles: r.cycles,
                rays: r.rays as u64,
                state_digest: r.state_digest,
            };
            out.insert((id.name().to_string(), config.to_string()), (cell, ms));
        }
    }
    Ok(out)
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let s = ctx.scale;
    let (clients, rounds) = shape(ctx.nproc, s.served_rounds);
    let template = JobSpec {
        configs: CONFIGS.iter().map(|c| c.to_string()).collect(),
        detail: s.served_detail,
        res: s.served_res,
        workload: "primary".to_string(),
        ..JobSpec::default()
    };
    // Every pass does the same simulation work; the first pass's
    // stream prices it.
    let first = match streams(ctx.seed, 0, clients, rounds, &template) {
        Ok(first) => first,
        Err(e) => {
            report.op(false, || format!("job streams: {e}"));
            return report;
        }
    };
    let store = ctx.work.join("store");
    let direct = match direct_cells(&template) {
        Ok(direct) => direct,
        Err(e) => {
            report.op(false, || format!("direct runs: {e}"));
            return report;
        }
    };

    // Measured passes: the whole job stream against a fresh daemon.
    // Set-up samples are taken before every pass, so that they spread
    // over the run: they are mostly an fsync of the store's lock file,
    // whose cost on a shared disk doubles in bursts that can last most
    // of a run. `setup_s` is their lower quartile, which moves with the
    // daemon's own set-up cost and not with those bursts.
    let mut setup_s = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    let mut rejected = 0;
    let mut store_after = (0, 0);
    let mut all_walls = 0.0;
    let mut pass = 0;
    let walls = ctx.measure(2, |tracer| {
        let streams = match streams(ctx.seed, pass, clients, rounds, &template) {
            Ok(streams) => streams,
            Err(e) => {
                report.op(false, || format!("job streams: {e}"));
                return None;
            }
        };
        pass += 1;
        // Set-up: bind a daemon over an empty store and get its first
        // pong. Emptying the store is not part of it.
        for _ in 0..s.served_setup_reps {
            let _ = std::fs::remove_dir_all(&store);
            let t0 = Instant::now();
            let daemon = Daemon::start(&store, clients);
            setup_s.push(t0.elapsed().as_secs_f64());
            match daemon.and_then(Daemon::stop) {
                Ok(()) => report.op(true, String::new),
                Err(e) => report.op(false, || e),
            }
        }
        let _ = std::fs::remove_dir_all(&store);
        let daemon = match Daemon::start(&store, clients) {
            Ok(d) => d,
            Err(e) => {
                report.op(false, || e);
                return None;
            }
        };
        let t0 = Instant::now();
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter()
                .map(|specs| {
                    let client = Client::new(daemon.client.addr().to_string());
                    scope.spawn(move || run_client(tracer, &client, specs))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        all_walls += wall;
        store_after = store_size(&store);
        if let Err(e) = daemon.stop() {
            report.op(false, || e);
        }
        for (client_jobs, client_rejected, errors) in results {
            for e in errors {
                report.op(false, || e);
            }
            rejected += client_rejected;
            jobs.extend(client_jobs);
        }
        Some(wall)
    });
    let _ = std::fs::remove_dir_all(&store);

    // Every returned row must equal a direct run of the same cell, and
    // every resubmission must be a cache hit.
    let mut miss_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    for job in &jobs {
        let mut ok = job.rows.len() == job.spec.cells().len() && job.cached != job.fresh;
        let mut direct_ms = 0.0;
        for ((scene, config), row) in job.spec.cells().into_iter().zip(&job.rows) {
            let Some((want, ms)) = direct.get(&(scene.clone(), config.clone())) else {
                ok = false;
                continue;
            };
            direct_ms += ms;
            let want = CellResult {
                cell: job.spec.cell_identity(&scene, &config),
                ..want.clone()
            };
            ok &= *row == want;
        }
        report.op(ok, || {
            format!(
                "job {:?} ({}) returned rows that differ from direct runs or a wrong cache state",
                job.spec.scenes,
                if job.fresh { "fresh" } else { "resubmitted" }
            )
        });
        if job.fresh {
            miss_ms.push(job.ms);
            overhead_ms.push(job.ms - direct_ms);
        }
    }
    let streams_fresh: usize = first.iter().map(Vec::len).sum();
    let sim_cycles_per_pass: u64 = first
        .iter()
        .flatten()
        .flat_map(JobSpec::cells)
        .filter_map(|cell| direct.get(&cell).map(|(c, _)| c.cycles))
        .sum();

    let job_ms: Vec<f64> = jobs.iter().map(|j| j.ms).collect();
    let wall_s = median(&walls.measured);
    report.e2e("setup_s", percentile(&setup_s, 25.0));
    report.e2e("wall_s", wall_s);
    report.e2e("sim_cycles", sim_cycles_per_pass as f64);
    report.e2e(
        "sim_mcycles_per_s",
        sim_cycles_per_pass as f64 / wall_s / 1e6,
    );
    report.e2e("job_ms_p50", percentile(&job_ms, 50.0));
    report.e2e("job_ms_p90", percentile(&job_ms, 90.0));
    report.e2e("jobs_per_s", jobs.len() as f64 / all_walls);
    report.info("setup_s", crate::report::timing_info(&setup_s));
    report.info("wall_s", crate::report::timing_info(&walls.measured));
    report.info("clients", Json::num(clients as u64));
    report.info("job_ms", crate::report::timing_info(&job_ms));
    report.info("distinct_specs_per_pass", Json::num(streams_fresh as u64));
    report.layer("passes", walls.measured.len() as f64);

    if ctx.traced {
        let t = &ctx.tracer;
        report.layer("trace.overhead_s", walls.trace_overhead_s());
        report.layer("served.submit_ms", median(&t.durations_ms("served.submit")));
        report.layer("served.status_ms", median(&t.durations_ms("served.status")));
        report.layer("served.result_ms", median(&t.durations_ms("served.result")));
        let traced_polls: Vec<f64> = jobs
            .iter()
            .filter(|j| j.polls > 0)
            .map(|j| j.polls as f64)
            .collect();
        report.layer(
            "served.polls_per_job",
            traced_polls.iter().sum::<f64>() / traced_polls.len().max(1) as f64,
        );
        let hit_ms: Vec<f64> = jobs.iter().filter(|j| j.cached).map(|j| j.ms).collect();
        report.layer("served.hit_job_ms", median(&hit_ms));
        report.layer("served.miss_job_ms", median(&miss_ms));
        report.layer(
            "served.cached_frac",
            hit_ms.len() as f64 / jobs.len().max(1) as f64,
        );
        report.layer("served.overhead_ms", median(&overhead_ms));
        report.layer("served.store_files", store_after.0 as f64);
        report.layer("served.store_bytes", store_after.1 as f64);
        report.layer("served.rejected", rejected as f64);
        let direct_ms: f64 = direct.values().map(|(_, ms)| ms).sum();
        let direct_cycles: u64 = direct.values().map(|(c, _)| c.cycles).sum();
        report.layer("core.sim.run_ms", direct_ms);
        report.layer(
            "core.sim.ns_per_cycle",
            direct_ms * 1e6 / direct_cycles.max(1) as f64,
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn scenes(streams: &[Vec<JobSpec>]) -> Vec<Vec<String>> {
        streams.iter().flatten().map(|s| s.scenes.clone()).collect()
    }

    #[test]
    fn streams_deal_distinct_jobs_on_many_cores() {
        let template = JobSpec::default();
        for nproc in [1, 2, 7, 15, 16, 30, 64] {
            let (clients, rounds) = shape(nproc, 2);
            assert!(clients >= 1 && rounds >= 1 && clients * rounds <= ROUNDS);
            assert_eq!(clients, nproc.min(ROUNDS), "nproc {nproc}");
            for pass in 0..3 {
                let streams = streams(3, pass, clients, rounds, &template).expect("enough rounds");
                assert_eq!(streams.len(), clients);
                let mut seen = HashSet::new();
                for stream in &streams {
                    assert_eq!(stream.len(), rounds * SCENES / 2);
                    // Every round pairs up all 16 scenes.
                    for round in stream.chunks(SCENES / 2) {
                        let covered: HashSet<&String> =
                            round.iter().flat_map(|s| &s.scenes).collect();
                        assert_eq!(covered.len(), SCENES);
                    }
                    for spec in stream {
                        assert_eq!(spec.scenes.len(), 2);
                        assert!(
                            seen.insert(spec.identity()),
                            "repeated job {:?}",
                            spec.scenes
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_round_together_uses_each_ordered_pair_once() {
        let all = streams(5, 0, ROUNDS, 1, &JobSpec::default()).expect("exactly enough");
        let pairs: HashSet<Vec<String>> = scenes(&all).into_iter().collect();
        assert_eq!(pairs.len(), SCENES * (SCENES - 1));
    }

    #[test]
    fn passes_take_the_next_rounds() {
        let t = JobSpec::default();
        let pass = |p| scenes(&streams(4, p, 2, 2, &t).unwrap());
        assert_ne!(pass(0), pass(1));
        // 30 rounds, 4 a pass: pass 15 starts where pass 0 did.
        assert_eq!(pass(0), pass(15));
    }

    #[test]
    fn streams_refuse_more_rounds_than_exist() {
        assert!(streams(1, 0, 64, 1, &JobSpec::default()).is_err());
        assert!(streams(1, 0, 16, 2, &JobSpec::default()).is_err());
    }

    #[test]
    fn streams_follow_the_seed() {
        let t = JobSpec::default();
        let seed = |s| scenes(&streams(s, 0, 2, 2, &t).unwrap());
        assert_eq!(seed(9), seed(9));
        assert_ne!(seed(9), seed(10));
    }
}
