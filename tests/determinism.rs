//! Reproducibility: every figure in EXPERIMENTS.md quotes a seed, so a
//! run must be a pure function of (seed, parameters, technique).

use spatial_joins::prelude::*;

/// Measured ticks used by [`run_once`]; the RunStats-shape test asserts the
/// driver records exactly this many per-phase entries.
const MEASURED_TICKS: u32 = 5;

fn run_once_with(seed: u64, exec: ExecMode) -> RunStats {
    let params = WorkloadParams {
        num_points: 2_000,
        ticks: MEASURED_TICKS,
        space_side: 8_000.0,
        seed,
        ..WorkloadParams::default()
    };
    let mut workload = UniformWorkload::new(params);
    let mut grid = SimpleGrid::tuned(params.space_side);
    run_join(
        &mut workload,
        &mut grid,
        DriverConfig::new(params.ticks, 1).with_exec(exec),
    )
}

fn run_once(seed: u64) -> RunStats {
    run_once_with(seed, ExecMode::Sequential)
}

#[test]
fn identical_seeds_reproduce_bit_identical_joins() {
    let a = run_once(42);
    let b = run_once(42);
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.result_pairs, b.result_pairs);
    assert_eq!(a.queries, b.queries);
    assert_eq!(a.updates, b.updates);
}

#[test]
fn different_seeds_give_different_joins() {
    let a = run_once(1);
    let b = run_once(2);
    assert_ne!(a.checksum, b.checksum);
}

#[test]
fn gaussian_workload_is_deterministic_too() {
    let mk = || {
        let params = GaussianParams {
            base: WorkloadParams {
                num_points: 1_500,
                ticks: 4,
                space_side: 8_000.0,
                seed: 7,
                ..WorkloadParams::default()
            },
            hotspots: 8,
            sigma: 300.0,
        };
        let mut workload = GaussianWorkload::new(params);
        let mut index = LinearKdTrie::new(params.base.space_side);
        run_join(&mut workload, &mut index, DriverConfig::new(4, 0))
    };
    let (a, b) = (mk(), mk());
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.result_pairs, b.result_pairs);
}

#[test]
fn rerun_with_same_seed_is_bit_identical_across_all_runstats_fields() {
    // Regression for the full RunStats shape, not just the checksum: every
    // countable field — pairs, queries, updates, index footprint, and the
    // per-phase tick record — must be bit-identical across two runs with the
    // same workload seed. Wall-clock durations inside TickTimes are the only
    // legitimately nondeterministic part of a run.
    for seed in [0u64, 42, u64::MAX] {
        let a = run_once(seed);
        let b = run_once(seed);
        assert_eq!(
            a.result_pairs, b.result_pairs,
            "seed {seed}: pair count drifted"
        );
        assert_eq!(a.checksum, b.checksum, "seed {seed}: checksum drifted");
        assert_eq!(a.queries, b.queries, "seed {seed}: query count drifted");
        assert_eq!(a.updates, b.updates, "seed {seed}: update count drifted");
        assert_eq!(
            a.index_bytes, b.index_bytes,
            "seed {seed}: index footprint drifted"
        );
        // Per-phase tick counts: one TickTimes entry per measured tick, with
        // all three phases (build/query/update) recorded in each.
        assert_eq!(
            a.ticks.len(),
            b.ticks.len(),
            "seed {seed}: measured tick count drifted"
        );
        assert_eq!(
            a.ticks.len(),
            MEASURED_TICKS as usize,
            "driver must record exactly cfg.ticks measured ticks"
        );
    }
}

#[test]
fn determinism_holds_across_every_registry_technique() {
    // The guarantee is workload-level, so it must hold no matter which
    // technique consumes the workload: same seed, same spec, same numbers.
    // The line-up comes exclusively from the registry.
    let params = WorkloadParams {
        num_points: 1_000,
        ticks: 3,
        space_side: 6_000.0,
        seed: 1234,
        ..WorkloadParams::default()
    };
    let cfg = DriverConfig::new(3, 1);
    let mut reference: Option<(u64, u64)> = None;
    for spec in registry() {
        let run = || {
            let mut w = UniformWorkload::new(params);
            let mut tech = spec.build(params.space_side);
            tech.run(&mut w, cfg)
        };
        let (a, b) = (run(), run());
        let name = spec.name();
        assert_eq!(a.checksum, b.checksum, "{name}: rerun checksum drifted");
        assert_eq!(
            a.result_pairs, b.result_pairs,
            "{name}: rerun pair count drifted"
        );
        // And all techniques must agree with each other on the join result.
        match reference {
            None => reference = Some((a.result_pairs, a.checksum)),
            Some((pairs, checksum)) => {
                assert_eq!(a.result_pairs, pairs, "{name} disagrees on pair count");
                assert_eq!(a.checksum, checksum, "{name} disagrees on checksum");
            }
        }
    }
}

#[test]
fn parallel_golden_checksum_is_stable_across_prs() {
    // Golden values for the parallel path: seed 42, 4 worker threads.
    // Sequential determinism alone would not catch a regression in the
    // cross-shard merge (say, a merge that became order- or
    // shard-boundary-dependent), because such a bug can still be
    // self-consistent between two parallel runs. Pinning the absolute
    // numbers — which equal the sequential goldens by the equivalence
    // guarantee — catches it on the spot.
    let par = run_once_with(42, ExecMode::parallel(4).unwrap());
    let seq = run_once(42);
    assert_eq!(seq.checksum, GOLDEN_CHECKSUM_SEED42, "sequential golden");
    assert_eq!(par.checksum, GOLDEN_CHECKSUM_SEED42, "parallel golden");
    assert_eq!(seq.result_pairs, GOLDEN_PAIRS_SEED42);
    assert_eq!(par.result_pairs, GOLDEN_PAIRS_SEED42);
    assert_eq!(par.queries, seq.queries);
    assert_eq!(par.updates, seq.updates);
}

#[test]
fn tiled_golden_checksum_is_stable_across_prs() {
    // The same goldens under @tiles4: the space-partitioned path has its
    // own merge (per-tile partials under the reference-point rule,
    // DESIGN.md §13), so pin it to the identical absolute numbers. A
    // tiling bug that dropped or double-emitted a boundary pair would be
    // self-consistent between two tiled runs — the pinned constant is
    // what catches it.
    let tiled = run_once_with(42, ExecMode::partitioned(4).unwrap());
    assert_eq!(tiled.checksum, GOLDEN_CHECKSUM_SEED42, "tiled golden");
    assert_eq!(tiled.result_pairs, GOLDEN_PAIRS_SEED42);
}

#[test]
fn pooled_golden_checksum_is_stable_across_prs() {
    // The pooled scheduler (DESIGN.md §14) adds a third merge discipline:
    // mini-join partials folded per worker, workers racing an atomic
    // cursor over the queue. Which worker drains which chunk is the one
    // genuinely nondeterministic thing in the repo — the commutative merge
    // is why the numbers still may not move. Pin @tiles4@par2 and the
    // adaptive tiling to the same absolute constants.
    let pooled = run_once_with(42, ExecMode::pooled(4, 2).unwrap());
    assert_eq!(pooled.checksum, GOLDEN_CHECKSUM_SEED42, "pooled golden");
    assert_eq!(pooled.result_pairs, GOLDEN_PAIRS_SEED42);
    let auto = run_once_with(42, ExecMode::adaptive_pooled(2).unwrap());
    assert_eq!(auto.checksum, GOLDEN_CHECKSUM_SEED42, "adaptive golden");
    assert_eq!(auto.result_pairs, GOLDEN_PAIRS_SEED42);
}

/// The join checksum/pair count of `run_once(42)`, any exec mode. If a
/// change legitimately alters the workload or the fold, re-pin both and
/// say why in the commit; an unexplained diff is a lost determinism
/// guarantee.
const GOLDEN_CHECKSUM_SEED42: u64 = 0xd73f085806b80ac8;
const GOLDEN_PAIRS_SEED42: u64 = 29_556;

fn run_churn_once(exec: ExecMode) -> RunStats {
    let params = WorkloadParams {
        num_points: 2_000,
        ticks: MEASURED_TICKS,
        space_side: 8_000.0,
        seed: 42,
        ..WorkloadParams::default()
    };
    let mut workload = WorkloadSpec::parse("churn:uniform").unwrap().build(params);
    let mut grid = SimpleGrid::tuned(params.space_side);
    run_join(
        &mut *workload,
        &mut grid,
        DriverConfig::new(params.ticks, 1).with_exec(exec),
    )
}

#[test]
fn churn_golden_checksum_is_stable_across_prs() {
    // The churn workload adds two more deterministic streams (departures,
    // arrivals) and a tombstone path through every index; pin the absolute
    // numbers so a drift in any of them — RNG consumption order, the
    // update-phase application order (velocities -> removals -> advance ->
    // inserts), or a handle that shifted — is caught on the spot, in both
    // exec modes.
    let seq = run_churn_once(ExecMode::Sequential);
    let par = run_churn_once(ExecMode::parallel(4).unwrap());
    assert_eq!(
        seq.checksum, GOLDEN_CHURN_CHECKSUM_SEED42,
        "sequential golden"
    );
    assert_eq!(
        par.checksum, GOLDEN_CHURN_CHECKSUM_SEED42,
        "parallel golden"
    );
    assert_eq!(seq.result_pairs, GOLDEN_CHURN_PAIRS_SEED42);
    assert_eq!(par.result_pairs, GOLDEN_CHURN_PAIRS_SEED42);
    assert_eq!(seq.removals, GOLDEN_CHURN_REMOVALS_SEED42);
    assert_eq!(seq.inserts, GOLDEN_CHURN_INSERTS_SEED42);
    assert_eq!(par.removals, seq.removals);
    assert_eq!(par.inserts, seq.inserts);
    // Tiled, tombstones included: a departed row must vanish from every
    // tile replica that held a copy of it.
    let tiled = run_churn_once(ExecMode::partitioned(4).unwrap());
    assert_eq!(tiled.checksum, GOLDEN_CHURN_CHECKSUM_SEED42, "tiled golden");
    assert_eq!(tiled.result_pairs, GOLDEN_CHURN_PAIRS_SEED42);
    assert_eq!(tiled.removals, GOLDEN_CHURN_REMOVALS_SEED42);
    assert_eq!(tiled.inserts, GOLDEN_CHURN_INSERTS_SEED42);
}

/// Goldens of `run_churn_once` (churn:uniform, seed 42, 5 measured ticks
/// after 1 warmup). Same re-pinning policy as the uniform goldens above.
const GOLDEN_CHURN_CHECKSUM_SEED42: u64 = 0x7db1b888cfcbf151;
const GOLDEN_CHURN_PAIRS_SEED42: u64 = 29_767;
const GOLDEN_CHURN_REMOVALS_SEED42: u64 = 198;
const GOLDEN_CHURN_INSERTS_SEED42: u64 = 190;

fn run_bipartite_once(exec: ExecMode) -> RunStats {
    let params = WorkloadParams {
        num_points: 2_000,
        ticks: MEASURED_TICKS,
        space_side: 8_000.0,
        seed: 42,
        ..WorkloadParams::default()
    };
    let jspec = JoinSpec::parse("bipartite:uniformxgaussian:h3:ratio10").unwrap();
    let (mut r, mut s) = jspec.build_pair(params).unwrap();
    let mut grid = SimpleGrid::tuned(params.space_side);
    run_bipartite_join(
        &mut *r,
        &mut *s,
        &mut grid,
        DriverConfig::new(params.ticks, 1).with_exec(exec),
    )
}

#[test]
fn bipartite_golden_checksum_is_stable_across_prs() {
    // The bipartite join adds a second relation with its own decorrelated
    // seed stream, a querier policy (R queries, S never does), and a
    // ratio-scaled population. Pin the absolute numbers in both exec
    // modes so any drift — R-seed derivation, plan order, the relation a
    // region is centred on vs. probed against — is caught on the spot.
    let seq = run_bipartite_once(ExecMode::Sequential);
    let par = run_bipartite_once(ExecMode::parallel(4).unwrap());
    assert_eq!(
        seq.checksum, GOLDEN_BIPARTITE_CHECKSUM_SEED42,
        "sequential golden"
    );
    assert_eq!(
        par.checksum, GOLDEN_BIPARTITE_CHECKSUM_SEED42,
        "parallel golden"
    );
    assert_eq!(seq.result_pairs, GOLDEN_BIPARTITE_PAIRS_SEED42);
    assert_eq!(par.result_pairs, GOLDEN_BIPARTITE_PAIRS_SEED42);
    assert_eq!(seq.queries, GOLDEN_BIPARTITE_QUERIES_SEED42);
    assert_eq!(par.queries, seq.queries);
    assert_eq!(par.updates, seq.updates);
    // And the space-partitioned path, against the same constants: R
    // centers assign queries to tiles, S rows replicate — none of it may
    // perturb the join.
    let tiled = run_bipartite_once(ExecMode::partitioned(4).unwrap());
    assert_eq!(
        tiled.checksum, GOLDEN_BIPARTITE_CHECKSUM_SEED42,
        "tiled golden"
    );
    assert_eq!(tiled.result_pairs, GOLDEN_BIPARTITE_PAIRS_SEED42);
    assert_eq!(tiled.queries, GOLDEN_BIPARTITE_QUERIES_SEED42);
}

/// Goldens of `run_bipartite_once` (bipartite:uniformxgaussian:h3:ratio10,
/// seed 42, 5 measured ticks after 1 warmup, grid:inline). Same re-pinning
/// policy as the goldens above.
const GOLDEN_BIPARTITE_CHECKSUM_SEED42: u64 = 0x19e0e6b6bb0038e7;
const GOLDEN_BIPARTITE_PAIRS_SEED42: u64 = 3_081;
const GOLDEN_BIPARTITE_QUERIES_SEED42: u64 = 502;

fn run_intersect_once(spec: &str) -> RunStats {
    let params = WorkloadParams {
        num_points: 2_000,
        ticks: MEASURED_TICKS,
        space_side: 8_000.0,
        seed: 42,
        ..WorkloadParams::default()
    };
    let mut workload = RectsWorkload::new(params);
    let mut tech = TechniqueSpec::parse(spec).unwrap().build(params.space_side);
    tech.run_intersect(&mut workload, DriverConfig::new(params.ticks, 1))
}

#[test]
fn intersect_golden_checksum_is_stable_across_prs() {
    // The extent path runs its own shape of every step the point goldens
    // pin: rectangle query regions, replication by extent, and the
    // intersection's reference corner as the tile dedup rule. Pin one
    // index technique and one batch technique under every exec mode to
    // the same absolute numbers, so a drift in any of those steps is
    // caught here rather than only in a snapshot's checksums.
    for family in ["grid:inline", "twolayer"] {
        for modifier in ["", "@par4", "@tiles4", "@tiles4@par2", "@tilesauto@par2"] {
            let spec = format!("{family}{modifier}");
            let stats = run_intersect_once(&spec);
            assert_eq!(
                stats.checksum, GOLDEN_INTERSECT_CHECKSUM_SEED42,
                "{spec}: checksum"
            );
            assert_eq!(
                stats.result_pairs, GOLDEN_INTERSECT_PAIRS_SEED42,
                "{spec}: pairs"
            );
            assert_eq!(
                stats.queries, GOLDEN_INTERSECT_QUERIES_SEED42,
                "{spec}: queries"
            );
            assert_eq!(
                stats.updates, GOLDEN_INTERSECT_UPDATES_SEED42,
                "{spec}: updates"
            );
        }
    }
}

/// Goldens of `run_intersect_once` (rects, seed 42, 2,000 rectangles,
/// side 8,000, 5 measured ticks after 1 warmup). `scan` agrees with
/// them. Same re-pinning policy as the goldens above.
const GOLDEN_INTERSECT_CHECKSUM_SEED42: u64 = 0xeed0e0740567021e;
const GOLDEN_INTERSECT_PAIRS_SEED42: u64 = 30_525;
const GOLDEN_INTERSECT_QUERIES_SEED42: u64 = 5_041;
const GOLDEN_INTERSECT_UPDATES_SEED42: u64 = 5_054;

#[test]
fn checksum_is_independent_of_result_order() {
    // The R-tree and the grid enumerate results in very different orders;
    // agreement of checksums in the cross-index tests depends on the fold
    // being order independent. Pin that property directly.
    use spatial_joins::core::driver::fold_pair;
    let pairs = [(1u32, 9u32), (2, 8), (3, 7), (4, 6)];
    let forward = pairs.iter().fold(0u64, |c, &(q, r)| fold_pair(c, q, r));
    let backward = pairs
        .iter()
        .rev()
        .fold(0u64, |c, &(q, r)| fold_pair(c, q, r));
    assert_eq!(forward, backward);
}
