//! # sj-bench
//!
//! Shared harness for the figure/table binaries (`fig1`, `fig2`, `table2`,
//! `fig4`, `fig5`, `table3`, `ablation`, `memory`, `simtrends`): workload
//! runners over the unified [`sj_core::technique`] registry, a tiny CLI
//! parser, plain-text / CSV table printing, and JSON-lines reporting.
//!
//! The technique line-up itself lives in [`sj_core::technique::registry`]
//! — the binaries iterate (and filter) that single source of truth instead
//! of maintaining their own lists. Parameter sweeps that need a
//! non-registry configuration (e.g. Figure 1's bucket-size sweep) assemble
//! a [`Technique`] by hand around the custom index.

use sj_core::driver::{DriverConfig, RunStats};
use sj_core::par::ExecMode;
use sj_core::technique::{Technique, TechniqueSpec};
use sj_grid::{GridConfig, SimpleGrid};
use sj_workload::{
    GaussianParams, GaussianWorkload, JoinSpec, WorkloadKind, WorkloadParams, WorkloadSpec,
};

pub mod cli;
pub mod compare;
pub mod json;
pub mod report;
pub mod suite;
pub mod table;

/// Drive `technique` through the workload named by `wspec` (binaries pass
/// [`cli::CommonOpts::workload_spec`]), its query phase under `exec`
/// (binaries pass [`cli::CommonOpts::exec_mode`]; a technique built from a
/// `@par<N>` spec still runs parallel when `exec` is sequential — see
/// [`Technique::run`]).
pub fn run_workload(
    wspec: WorkloadSpec,
    params: &WorkloadParams,
    technique: &mut Technique,
    exec: ExecMode,
) -> RunStats {
    params.validate().expect("invalid workload parameters");
    let mut workload = wspec.build(*params);
    technique.run(&mut *workload, driver_config(params.ticks, exec))
}

/// Instantiate both specs fresh (so runs stay independent) and drive the
/// technique through the workload — the technique × workload harness
/// entry point.
pub fn run_workload_spec(
    wspec: WorkloadSpec,
    params: &WorkloadParams,
    spec: TechniqueSpec,
    exec: ExecMode,
) -> RunStats {
    run_workload(wspec, params, &mut spec.build(params.space_side), exec)
}

/// Instantiate the technique fresh and drive it through the join shape
/// named by `jspec` (binaries pass [`cli::CommonOpts::join_spec`]) — the
/// technique × workload × join harness entry point: the self-join over
/// `wspec` for [`JoinSpec::SelfJoin`], an R ⋈ S run over a bipartite
/// spec's own relation workloads built from the shared `params`, or — for
/// [`JoinSpec::Intersect`] — an intersection join over the spec's extent
/// workload under the **intersects** predicate (the technique must
/// implement it; the CLI layer filters on
/// [`TechniqueSpec::supports_intersects`]). For the non-self shapes the
/// workloads come from the join spec and `wspec` is unused; the CLI layer
/// rejects the combination.
pub fn run_joined_spec(
    jspec: JoinSpec,
    wspec: WorkloadSpec,
    params: &WorkloadParams,
    spec: TechniqueSpec,
    exec: ExecMode,
) -> RunStats {
    let mut technique = spec.build(params.space_side);
    if let Some(mut extents) = jspec.build_extents(*params) {
        params.validate().expect("invalid workload parameters");
        return technique.run_intersect(&mut *extents, driver_config(params.ticks, exec));
    }
    match jspec.build_pair(*params) {
        None => run_workload(wspec, params, &mut technique, exec),
        Some((mut r, mut s)) => {
            params.validate().expect("invalid workload parameters");
            technique.run_bipartite(&mut *r, &mut *s, driver_config(params.ticks, exec))
        }
    }
}

/// Build the two relations of an R ⋈ S join at explicit populations and
/// drive one run — the asymmetry sweep's cell runner, shared with the
/// trajectory suite so both pin bit-identical cells. The seed
/// decorrelation comes from [`JoinSpec::query_rel_params`], so the 1/K
/// cells here match `run_joined_spec` with a `:ratio<K>` spec exactly.
pub fn run_asymmetric_cell(
    r_spec: WorkloadSpec,
    s_spec: WorkloadSpec,
    r_points: u32,
    s_points: u32,
    params: &WorkloadParams,
    tech: TechniqueSpec,
    exec: ExecMode,
) -> RunStats {
    let r_params = WorkloadParams {
        num_points: r_points,
        ..JoinSpec::bipartite(r_spec, s_spec).query_rel_params(*params)
    };
    let s_params = WorkloadParams {
        num_points: s_points,
        ..*params
    };
    let mut r = r_spec.build(r_params);
    let mut s = s_spec.build(s_params);
    tech.build(params.space_side)
        .run_bipartite(&mut *r, &mut *s, driver_config(params.ticks, exec))
}

/// Instantiate `spec` fresh (so runs stay independent) and drive it
/// through the Table 1 uniform workload (see [`run_workload`] for the
/// `exec` semantics).
pub fn run_uniform_spec(params: &WorkloadParams, spec: TechniqueSpec, exec: ExecMode) -> RunStats {
    run_workload_spec(WorkloadKind::Uniform.spec(), params, spec, exec)
}

/// Instantiate `spec` fresh and drive it through the Gaussian workload.
pub fn run_gaussian_spec(params: &GaussianParams, spec: TechniqueSpec, exec: ExecMode) -> RunStats {
    let mut technique = spec.build(params.base.space_side);
    params.validate().expect("invalid workload parameters");
    let mut workload = GaussianWorkload::new(*params);
    technique.run(&mut workload, driver_config(params.base.ticks, exec))
}

/// A [`Technique`] around a Simple Grid with an explicit configuration —
/// the parameter-sweep figures step outside the registry's tuned
/// constructors.
pub fn grid_custom(cfg: GridConfig, space_side: f32) -> Technique {
    Technique::index(Box::new(SimpleGrid::new(cfg, space_side)))
}

/// The harness's warmup policy: 10 % of the measured ticks, clamped to
/// [1, 5]. Shared by every runner here and by binaries that drive the
/// driver directly (e.g. `asymmetry`'s hand-built relation pairs), so all
/// harness numbers discard cold-start effects identically.
pub fn warmup_for(ticks: u32) -> u32 {
    (ticks / 10).clamp(1, 5)
}

/// The runners' driver configuration: `ticks` measured ticks after
/// [`warmup_for`]`(ticks)` warmup ticks, the query phase under `exec`.
fn driver_config(ticks: u32, exec: ExecMode) -> DriverConfig {
    DriverConfig::new(ticks, warmup_for(ticks)).with_exec(exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_core::technique::{registry, TechniqueKind};

    fn quick_params() -> WorkloadParams {
        WorkloadParams {
            ticks: 2,
            num_points: 1_000,
            space_side: 5_000.0,
            ..WorkloadParams::default()
        }
    }

    const SEQ: ExecMode = ExecMode::Sequential;

    #[test]
    fn figure2_registry_techniques_run_and_agree() {
        let params = quick_params();
        let specs: Vec<TechniqueSpec> = registry().into_iter().filter(|s| s.in_figure2()).collect();
        assert_eq!(specs.len(), 5);
        let runs: Vec<RunStats> = specs
            .iter()
            .map(|&s| run_uniform_spec(&params, s, SEQ))
            .collect();
        let first = &runs[0];
        assert!(first.result_pairs > 0);
        for (r, s) in runs.iter().zip(&specs) {
            assert_eq!(r.checksum, first.checksum, "{} differs", s.label());
            assert_eq!(r.result_pairs, first.result_pairs);
        }
    }

    #[test]
    fn grid_stages_agree_on_gaussian_workload() {
        let params = GaussianParams {
            base: WorkloadParams {
                ticks: 2,
                num_points: 1_000,
                space_side: 5_000.0,
                ..WorkloadParams::default()
            },
            hotspots: 3,
            sigma: 300.0,
        };
        let baseline = run_gaussian_spec(&params, TechniqueKind::RTreeStr.spec(), SEQ);
        for spec in registry().into_iter().filter(|s| s.grid_stage().is_some()) {
            let r = run_gaussian_spec(&params, spec, SEQ);
            assert_eq!(r.checksum, baseline.checksum, "{}", spec.name());
        }
    }

    #[test]
    fn every_registry_technique_agrees_with_the_reference() {
        let params = quick_params();
        let reference = run_uniform_spec(&params, TechniqueKind::Scan.spec(), SEQ);
        assert!(reference.result_pairs > 0);
        for spec in registry() {
            let r = run_uniform_spec(&params, spec, SEQ);
            assert_eq!(r.checksum, reference.checksum, "{}", spec.name());
            assert_eq!(r.result_pairs, reference.result_pairs, "{}", spec.name());
        }
    }

    #[test]
    fn harness_runners_honor_the_exec_mode() {
        // The CLI-level --threads plumbing funnels into run_workload's exec
        // argument; the parallel run must agree with the sequential one.
        let params = quick_params();
        let spec = TechniqueKind::Grid(sj_grid::Stage::CpsTuned).spec();
        let seq = run_uniform_spec(&params, spec, SEQ);
        let par = run_uniform_spec(&params, spec, ExecMode::parallel(3).unwrap());
        assert_eq!(par.checksum, seq.checksum);
        assert_eq!(par.result_pairs, seq.result_pairs);
        // A @par spec runs parallel even when the harness passes SEQ.
        let via_spec =
            run_uniform_spec(&params, spec.with_exec(ExecMode::parallel(3).unwrap()), SEQ);
        assert_eq!(via_spec.checksum, seq.checksum);
    }

    #[test]
    fn workload_runner_sweeps_the_workload_registry() {
        use sj_workload::workload_registry;
        let params = quick_params();
        for wspec in workload_registry() {
            let reference = run_workload_spec(wspec, &params, TechniqueKind::Scan.spec(), SEQ);
            assert!(reference.result_pairs > 0, "{}: no pairs", wspec.name());
            assert_eq!(
                reference.removals > 0 || reference.inserts > 0,
                wspec.has_churn(),
                "{}: churn counters do not match the spec",
                wspec.name()
            );
            let grid = run_workload_spec(
                wspec,
                &params,
                TechniqueKind::Grid(sj_grid::Stage::CpsTuned).spec(),
                SEQ,
            );
            assert_eq!(grid.checksum, reference.checksum, "{}", wspec.name());
            assert_eq!(
                grid.result_pairs,
                reference.result_pairs,
                "{}",
                wspec.name()
            );
        }
    }

    #[test]
    fn joined_runner_dispatches_both_shapes() {
        use sj_workload::{JoinSpec, WorkloadSpec};
        let params = quick_params();
        let wspec = WorkloadKind::Uniform.spec();
        let grid = TechniqueKind::Grid(sj_grid::Stage::CpsTuned).spec();
        // Self shape == the plain workload runner.
        let via_join = run_joined_spec(JoinSpec::SelfJoin, wspec, &params, grid, SEQ);
        let direct = run_workload_spec(wspec, &params, grid, SEQ);
        assert_eq!(via_join.checksum, direct.checksum);
        assert_eq!(via_join.result_pairs, direct.result_pairs);
        // Bipartite shape: scan-equal across techniques, R shrunk by the
        // ratio (queries per tick = |R| x frac_queriers on expectation —
        // just pin the query count against the reference run).
        let jspec = JoinSpec::bipartite(
            WorkloadSpec::parse("uniform").unwrap(),
            WorkloadSpec::parse("gaussian:h3").unwrap(),
        );
        let reference = run_joined_spec(jspec, wspec, &params, TechniqueKind::Scan.spec(), SEQ);
        assert!(reference.result_pairs > 0);
        let gridded = run_joined_spec(jspec, wspec, &params, grid, SEQ);
        assert_eq!(gridded.checksum, reference.checksum);
        assert_eq!(gridded.queries, reference.queries);
        // And the bipartite join is a genuinely different computation.
        assert_ne!(reference.checksum, direct.checksum);
    }

    #[test]
    fn joined_runner_dispatches_the_intersect_shape() {
        use sj_workload::JoinSpec;
        let params = quick_params();
        let wspec = WorkloadKind::Uniform.spec();
        // The quadratic scan is the ground truth for the intersects
        // predicate too; every intersects-capable technique (and every
        // execution mode) must agree with it bit for bit.
        let reference = run_joined_spec(
            JoinSpec::Intersect,
            wspec,
            &params,
            TechniqueKind::Scan.spec(),
            SEQ,
        );
        assert!(reference.result_pairs > 0);
        for name in [
            "grid:inline",
            "twolayer",
            "grid:inline@tiles4",
            "twolayer@par2",
        ] {
            let spec = TechniqueSpec::parse(name).unwrap();
            let r = run_joined_spec(JoinSpec::Intersect, wspec, &params, spec, SEQ);
            assert_eq!(
                (r.checksum, r.result_pairs),
                (reference.checksum, reference.result_pairs),
                "{name}"
            );
        }
        // And the intersection join is a genuinely different computation
        // from the point self-join over the same parameters.
        let point = run_workload_spec(wspec, &params, TechniqueKind::Scan.spec(), SEQ);
        assert_ne!(reference.checksum, point.checksum);
    }

    #[test]
    fn custom_grid_configurations_agree_too() {
        let params = quick_params();
        let reference = run_uniform_spec(&params, TechniqueKind::RTreeStr.spec(), SEQ);
        let cfg = GridConfig {
            cells_per_side: 9,
            bucket_size: 7,
            ..GridConfig::tuned()
        };
        let mut grid = grid_custom(cfg, params.space_side);
        let r = run_workload(WorkloadKind::Uniform.spec(), &params, &mut grid, SEQ);
        assert_eq!(r.checksum, reference.checksum);
    }
}
