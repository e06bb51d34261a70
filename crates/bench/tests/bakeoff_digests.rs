//! Fig. 8 bakeoff determinism contract: the four-way prior-work
//! comparison (MTA, GHB, hash-path, treelet) over the full sixteen-scene
//! suite must be rerun-stable — every scene's cycle count and state
//! digest bit-identical between two passes — and each prefetcher must
//! leave its own distinguishable fingerprint on the suite, so a silent
//! mis-dispatch (two selectors driving the same engine path) cannot pass.
//!
//! CI runs this at smoke detail; `repro fig08` runs the same cells at
//! full scale.

use rt_bench::{default_jobs_for, Suite};
use rt_scene::{Workload, WorkloadKind};
use treelet_rt::{PrefetchConfig, SimConfig, SimResult};

/// `config` on every scene, as (cycles, state digest) in suite order.
#[allow(clippy::result_large_err)]
fn digests(suite: &Suite, config: &SimConfig) -> Vec<(u64, u64)> {
    let jobs = default_jobs_for(suite.benches().len());
    suite
        .run_all_robust_with_jobs(jobs, |b| b.try_run(config))
        .iter()
        .map(|o| {
            let r: &SimResult = o.result().expect("every scene completes");
            (r.cycles, r.state_digest)
        })
        .collect()
}

#[test]
fn bakeoff_suite_is_rerun_stable_and_prefetchers_are_distinct() {
    let suite = Suite::prepare(0.1, Workload::new(WorkloadKind::Primary, 16, 16));
    let configs: Vec<(&str, SimConfig)> = vec![
        ("baseline", SimConfig::paper_baseline()),
        (
            "mta",
            SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::mta()),
        ),
        (
            "ghb",
            SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::ghb()),
        ),
        (
            "hash",
            SimConfig::paper_baseline().with_prefetcher(PrefetchConfig::hash()),
        ),
        ("treelet", SimConfig::paper_treelet_prefetch()),
    ];
    let mut fingerprints = Vec::new();
    for (name, config) in &configs {
        let first = digests(&suite, config);
        let second = digests(&suite, config);
        assert_eq!(
            first, second,
            "{name}: suite digests changed between identical reruns"
        );
        fingerprints.push((*name, first));
    }
    // Each prefetcher must behave differently from every other config
    // somewhere in the suite; identical whole-suite fingerprints mean
    // two selectors silently ran the same engine path.
    for i in 0..fingerprints.len() {
        for j in i + 1..fingerprints.len() {
            assert_ne!(
                fingerprints[i].1, fingerprints[j].1,
                "{} and {} produced identical suite digests",
                fingerprints[i].0, fingerprints[j].0
            );
        }
    }
}
