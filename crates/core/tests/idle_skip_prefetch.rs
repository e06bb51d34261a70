//! The event-driven treelet voter must be unobservable in simulated
//! behavior.
//!
//! Idle-skip applies runs of suppressed prefetcher decisions in closed
//! form instead of stepping them, and the voter reuses its last vote
//! while the warp buffer's counts are unchanged. These tests hold both
//! to the naive oracle: single-stepping (`idle_skip = false`) and a
//! fresh vote every cycle.

use rt_gpu_sim::{CountTable, CountVec};
use rt_rng::prop::forall;
use rt_rng::Rng;
use rt_scene::{SceneId, Workload, WorkloadKind};
use treelet_rt::{
    decode_prepared_bench, encode_prepared_bench, full_vote_counts, pseudo_vote_counts, Bench,
    CheckpointOptions, MappingMode, PrefetchHeuristic, SimConfig, SimResult, SimSession,
    TreeletAssignment, TreeletPrefetcher, VoterKind, WarpBufferView, DEFAULT_TREELET_BYTES,
};

/// The suite smoke workload: detail 0.1, 16×16 primary rays.
fn bench(scene: SceneId) -> Bench {
    Bench::prepare(scene, 0.1, Workload::new(WorkloadKind::Primary, 16, 16))
}

/// Treelet-prefetch variants whose decisions idle-skip folds into
/// closed form: every voter, a staged (latency > 0) voter, every
/// heuristic and every mapping mode.
fn variants() -> Vec<(&'static str, SimConfig)> {
    let paper = SimConfig::paper_treelet_prefetch;
    vec![
        ("default", paper()),
        ("pseudo", paper().with_voter(VoterKind::PseudoTwoLevel, 0)),
        ("latency4", paper().with_voter(VoterKind::Full, 4)),
        (
            "pseudo-latency32",
            paper().with_voter(VoterKind::PseudoTwoLevel, 32),
        ),
        (
            "popularity0.5",
            paper().with_heuristic(PrefetchHeuristic::Popularity(0.5)),
        ),
        ("partial", paper().with_heuristic(PrefetchHeuristic::Partial)),
        ("loose-wait", paper().with_mapping_mode(MappingMode::LooseWait)),
        (
            "strict-wait",
            paper().with_mapping_mode(MappingMode::StrictWait),
        ),
    ]
}

fn assert_same_run(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.state_digest, b.state_digest, "{what}: state digest");
    assert_eq!(a.prefetcher, b.prefetcher, "{what}: prefetcher stats");
}

#[test]
fn idle_skip_on_and_off_are_bit_identical_under_treelet_prefetch() {
    for scene in [SceneId::Wknd, SceneId::Car] {
        let b = bench(scene);
        for (name, config) in variants() {
            let skipped = b.run(&config);
            let mut naive = config;
            naive.idle_skip = false;
            let stepped = b.run(&naive);
            assert_same_run(&skipped, &stepped, &format!("{scene}/{name}"));
            assert!(
                skipped.prefetcher.is_some_and(|s| s.decisions > 0),
                "{scene}/{name}: the voter never decided"
            );
        }
    }
}

#[test]
fn checkpoint_resume_mid_run_matches_a_straight_run() {
    let dir = std::env::temp_dir().join(format!("idle-skip-prefetch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let b = bench(SceneId::Car);
    for (name, config) in variants()
        .into_iter()
        .filter(|(name, _)| matches!(*name, "latency4" | "pseudo"))
    {
        let straight = b.run(&config);
        let every = (straight.cycles / 5).max(1);
        let opts = CheckpointOptions::new(every, dir.join(format!("{name}.rtsnap")));
        let mut truncated = config.clone();
        truncated.max_cycles = straight.cycles * 2 / 3;
        let interrupted = SimSession::borrowed(b.bvh(), b.rays(), &truncated)
            .checkpoint(opts.clone())
            .run();
        assert!(interrupted.is_err(), "{name} must hit the budget");
        let resumed = SimSession::borrowed(b.bvh(), b.rays(), &config)
            .checkpoint(opts)
            .resume_from_checkpoint()
            .run()
            .unwrap();
        assert_same_run(&resumed, &straight, &format!("resumed {name}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Applies one random mutation to the global counts and a consistent
/// per-warp split of them, as the engine does when rays enter, advance
/// and retire.
fn mutate(rng: &mut rt_rng::SmallRng, global: &mut CountTable, warps: &mut [CountVec]) {
    let w = rng.gen_range(0..warps.len());
    let key = rng.gen_range(0..12u32);
    match rng.gen_range(0..10u32) {
        0..=3 => {
            global.increment(key);
            warps[w].increment(key);
        }
        4 => {
            let n = rng.gen_range(0..4u32);
            global.add(key, n);
            warps[w].add(key, n);
        }
        5..=8 => {
            let resident = warps[w].iter().next();
            if let Some((key, _)) = resident {
                global.decrement(key);
                warps[w].decrement(key);
            }
        }
        _ => {
            global.clear();
            for warp in warps.iter_mut() {
                *warp = CountVec::default();
            }
        }
    }
}

#[test]
fn memoized_vote_equals_a_fresh_vote() {
    forall("memoized_vote_equals_fresh_vote", 64, |rng| {
        let voter = if rng.gen_bool(0.5) {
            VoterKind::Full
        } else {
            VoterKind::PseudoTwoLevel
        };
        let mut p = TreeletPrefetcher::new(PrefetchHeuristic::Always, voter, 0, 64, 64);
        let mut global = CountTable::default();
        let mut warps = vec![CountVec::default(); 4];
        for _ in 0..200 {
            // Some rounds vote again over unchanged counts: the memo
            // must serve those, and only those.
            if rng.gen_bool(0.7) {
                mutate(rng, &mut global, &mut warps);
            }
            let per_warp = |f: &mut dyn FnMut(&CountVec)| {
                for w in &warps {
                    f(w);
                }
            };
            let lines = |_t: u32| -> &[u64] { &[] };
            let meta = |_t: u32| 0u64;
            let view = WarpBufferView::new(
                MappingMode::Packed,
                64,
                &global,
                &per_warp,
                &lines,
                &meta,
            );
            let full = full_vote_counts(&global);
            let chosen = match voter {
                VoterKind::Full => full,
                VoterKind::PseudoTwoLevel => pseudo_vote_counts(warps.iter(), &global),
            };
            assert_eq!(p.votes(&view), (chosen, full));
        }
    });
}

#[test]
fn cached_treelet_rider_equals_fresh_formation_for_every_scene() {
    let workload = Workload::new(WorkloadKind::Primary, 8, 8);
    for scene in SceneId::ALL {
        let bench = Bench::prepare(scene, 0.05, workload);
        let bytes = encode_prepared_bench(&bench, 7);
        let (decoded, rider) = decode_prepared_bench(scene, 7, &bytes).unwrap();
        let fresh = TreeletAssignment::form(decoded.bvh(), DEFAULT_TREELET_BYTES);
        assert_eq!(*rider, fresh, "{scene}: rider differs from formation");
        assert_eq!(decoded.default_treelets(), &fresh, "{scene}");
    }
}
