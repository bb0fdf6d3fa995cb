//! Minimal argument parsing shared by the figure/table binaries.
//!
//! Hand-rolled (≈100 lines) instead of pulling a CLI crate: the harness
//! only needs a handful of `--key value` flags. Parsing proper is
//! side-effect free ([`CommonOpts::parse_from`] returns a `Result`);
//! only the [`CommonOpts::parse`] convenience entry point prints and
//! exits, so malformed input is unit-testable.

use std::num::NonZeroUsize;

use sj_core::par::{ExecMode, Tiling};
use sj_core::technique::{registry, ParseSpecError, TechniqueSpec};
use sj_workload::{
    workload_registry, GaussianParams, JoinSpec, ParseJoinError, ParseWorkloadError, WorkloadKind,
    WorkloadParams, WorkloadSpec,
};

/// Options common to every harness binary.
#[derive(Clone, Debug, Default)]
pub struct CommonOpts {
    /// Measured ticks per configuration. Defaults to a scaled-down count
    /// so the full suite completes in minutes; `--paper` restores
    /// Table 1's 100/120 ticks.
    pub ticks: Option<u32>,
    pub points: Option<u32>,
    pub seed: Option<u64>,
    /// Query-phase worker count (`--threads N`). `NonZeroUsize` because a
    /// zero-thread run is unrepresentable ([`ExecMode::Parallel`]); the
    /// parser rejects `--threads 0` as an [`CliError::InvalidValue`].
    pub threads: Option<NonZeroUsize>,
    /// Space-partition tiling (`--tiles N` or `--tiles auto`,
    /// [`ExecMode::Partitioned`]). Composes with `--threads`, which then
    /// sizes the shared mini-join worker pool instead of selecting sharded
    /// execution: `--tiles 4 --threads 2` is `@tiles4@par2`.
    pub tiles: Option<Tiling>,
    /// Emit machine-readable CSV instead of aligned text.
    pub csv: bool,
    /// Emit one JSON object per technique run (see [`crate::report`]).
    pub json: bool,
    /// Use the paper's full tick counts.
    pub paper: bool,
    /// Restrict the run to a single registry technique (optionally with a
    /// `@par<N>` modifier, which then wins over `--threads`).
    pub technique: Option<TechniqueSpec>,
    /// Drive the run through a named workload (`--workload SPEC`, e.g.
    /// `gaussian:h3` or `churn:uniform`). Binaries whose sweep is tied to
    /// one workload family reject the flag; the rest default to `uniform`.
    pub workload: Option<WorkloadSpec>,
    /// Drive the run through a named join shape (`--join SPEC`): `self`
    /// (default, the paper's setting), `bipartite:<R>x<S>[:ratio<K>]`,
    /// which joins an independent query relation R against the data
    /// relation S, or `intersect:rects` — the intersection self-join over
    /// moving rectangles under the **intersects** predicate. For the
    /// non-self specs the workloads come from the spec itself and
    /// `--workload` is rejected (one configuration source per axis).
    /// Binaries whose sweep is intrinsically self-joined reject
    /// non-`self` specs.
    pub join: Option<JoinSpec>,
    /// `--list-techniques`: print the technique registry's canonical spec
    /// strings (one per line) and exit 0.
    pub list_techniques: bool,
    /// `--list-workloads`: print the workload registry's canonical spec
    /// strings (one per line) and exit 0.
    pub list_workloads: bool,
}

/// Scaled-down default tick count for harness runs.
pub const QUICK_TICKS: u32 = 8;

/// A parse failure (or the `--help` request) from
/// [`CommonOpts::parse_from`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h`: not an error; the caller prints usage and exits 0.
    Help,
    /// A value-taking flag appeared last with no value.
    MissingValue(String),
    /// A numeric flag's value failed to parse.
    InvalidValue { flag: String, value: String },
    /// `--technique` named a spec outside the registry.
    UnknownTechnique(ParseSpecError),
    /// `--workload` named a spec outside the workload grammar.
    UnknownWorkload(ParseWorkloadError),
    /// `--join` named a spec outside the join grammar.
    UnknownJoin(ParseJoinError),
    /// A non-self `--join` combined with `--workload`: a bipartite spec
    /// already names both relation workloads, and an intersect spec names
    /// its own extent workload.
    JoinWorkloadConflict,
    /// An unrecognized argument.
    UnknownFlag(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Help => f.write_str("help requested"),
            CliError::MissingValue(flag) => write!(f, "missing value for {flag}"),
            CliError::InvalidValue { flag, value } => {
                write!(f, "invalid value for {flag}: {value}")
            }
            CliError::UnknownTechnique(e) => write!(f, "{e}"),
            CliError::UnknownWorkload(e) => write!(f, "{e}"),
            CliError::UnknownJoin(e) => write!(f, "{e}"),
            CliError::JoinWorkloadConflict => f.write_str(
                "--workload cannot be combined with a non-self --join: the join spec \
                 already names its workloads (bipartite:<R>x<S>, intersect:rects)",
            ),
            CliError::UnknownFlag(arg) => write!(f, "unknown argument: {arg} (try --help)"),
        }
    }
}

impl std::error::Error for CliError {}

/// The `--help` text (also embeds both registries' spec strings).
pub fn usage() -> String {
    let specs: Vec<String> = registry().iter().map(|s| s.name()).collect();
    let workloads: Vec<String> = workload_registry().iter().map(|s| s.name()).collect();
    format!(
        "options:\n  \
         --ticks N         measured ticks per config (default {QUICK_TICKS}; --paper for Table 1 counts)\n  \
         --points N        number of moving objects (default 50000)\n  \
         --seed N          workload seed\n  \
         --threads N       shard the query phase over N workers; with --tiles, sizes the tile worker pool\n  \
         --tiles N|auto    space-partition into N tiles (auto: density-sized), each with a private index\n  \
         --technique SPEC  run a single technique; SPEC one of:\n                    {}\n                    \
         any spec accepts an execution modifier, e.g. grid:inline@par8, grid:inline@tiles4,\n                    \
         grid:inline@tiles4@par2, or grid:inline@tilesauto\n  \
         --workload SPEC   drive the run through a named workload; SPEC one of:\n                    {}\n                    \
         (gaussian:h<N> takes any hotspot count; churn: prefixes any base spec)\n  \
         --join SPEC       join shape: self (default), bipartite:<R>x<S>[:ratio<K>], or intersect:rects\n                    \
         (R/S are workload specs; ratio<K> shrinks the query relation to 1/K;\n                    \
         intersect:rects runs the intersection self-join over moving rectangles)\n  \
         --list-techniques print the technique registry spec strings and exit\n  \
         --list-workloads  print the workload registry spec strings and exit\n  \
         --csv             machine-readable CSV output\n  \
         --json            one JSON object per technique run\n  \
         --paper           full paper-scale tick counts",
        specs.join(", "),
        workloads.join(", ")
    )
}

impl CommonOpts {
    /// Parse from `std::env::args`. Prints usage and exits on `--help` or
    /// malformed input — the thin process-boundary wrapper around the pure
    /// [`CommonOpts::parse_from`].
    pub fn parse() -> CommonOpts {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(opts) => {
                // Registry listings: print the canonical spec strings (the
                // machine-readable contract — scripts feed them back into
                // --technique/--workload) and exit.
                if opts.list_techniques {
                    for spec in registry() {
                        println!("{}", spec.name());
                    }
                    std::process::exit(0);
                }
                if opts.list_workloads {
                    for spec in workload_registry() {
                        println!("{}", spec.name());
                    }
                    std::process::exit(0);
                }
                opts
            }
            Err(CliError::Help) => {
                eprintln!("{}", usage());
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// Parse an argument list. Never prints, never exits.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<CommonOpts, CliError> {
        let mut opts = CommonOpts::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut take = |name: &str| -> Result<String, CliError> {
                it.next()
                    .ok_or_else(|| CliError::MissingValue(name.to_string()))
            };
            match arg.as_str() {
                "--ticks" => opts.ticks = Some(parse_num(&take("--ticks")?, "--ticks")?),
                "--points" => opts.points = Some(parse_num(&take("--points")?, "--points")?),
                "--seed" => opts.seed = Some(parse_num(&take("--seed")?, "--seed")?),
                // NonZeroUsize's FromStr rejects "0", so an invalid thread
                // count dies here as a CliError — no ExecMode for it exists.
                "--threads" => opts.threads = Some(parse_num(&take("--threads")?, "--threads")?),
                "--tiles" => {
                    let v = take("--tiles")?;
                    opts.tiles = Some(if v == "auto" {
                        Tiling::Auto
                    } else {
                        Tiling::Fixed(parse_num(&v, "--tiles")?)
                    });
                }
                "--technique" => {
                    let spec = take("--technique")?;
                    opts.technique =
                        Some(TechniqueSpec::parse(&spec).map_err(CliError::UnknownTechnique)?);
                }
                "--workload" => {
                    let spec = take("--workload")?;
                    opts.workload =
                        Some(WorkloadSpec::parse(&spec).map_err(CliError::UnknownWorkload)?);
                }
                "--join" => {
                    let spec = take("--join")?;
                    opts.join = Some(JoinSpec::parse(&spec).map_err(CliError::UnknownJoin)?);
                }
                "--list-techniques" => opts.list_techniques = true,
                "--list-workloads" => opts.list_workloads = true,
                "--csv" => opts.csv = true,
                "--json" => opts.json = true,
                "--paper" => opts.paper = true,
                "--help" | "-h" => return Err(CliError::Help),
                other => return Err(CliError::UnknownFlag(other.to_string())),
            }
        }
        if opts.workload.is_some() && !opts.join_spec().is_self() {
            return Err(CliError::JoinWorkloadConflict);
        }
        Ok(opts)
    }

    /// The execution mode this invocation asks for: the `--technique`
    /// spec's `@par<N>`/`@tiles<N>` modifier if present, else the flags.
    /// `--tiles` selects partitioned execution; alongside it `--threads`
    /// sizes the mini-join worker pool, and alone it selects sharded
    /// execution. With neither flag, sequential.
    pub fn exec_mode(&self) -> ExecMode {
        let flag = match (self.tiles, self.threads) {
            (Some(tiles), workers) => ExecMode::Partitioned { tiles, workers },
            (None, Some(threads)) => ExecMode::Parallel { threads },
            (None, None) => ExecMode::Sequential,
        };
        match self.technique {
            Some(spec) => spec.exec.or(flag),
            None => flag,
        }
    }

    /// The technique list a binary should run: the single `--technique`
    /// override if given, otherwise the registry filtered by the binary's
    /// default selection.
    pub fn techniques<F: Fn(TechniqueSpec) -> bool>(
        &self,
        default_filter: F,
    ) -> Vec<TechniqueSpec> {
        match self.technique {
            Some(spec) => vec![spec],
            None => registry()
                .into_iter()
                .filter(|&s| default_filter(s))
                .collect(),
        }
    }

    /// The workload this invocation asks for: the `--workload` spec if
    /// given, else the Table 1 uniform workload. Only meaningful for
    /// self-joins — a bipartite [`CommonOpts::join_spec`] names its own
    /// relation workloads.
    pub fn workload_spec(&self) -> WorkloadSpec {
        self.workload
            .unwrap_or_else(|| WorkloadKind::Uniform.spec())
    }

    /// The join shape this invocation asks for: the `--join` spec if
    /// given, else the paper's self-join.
    pub fn join_spec(&self) -> JoinSpec {
        self.join.unwrap_or(JoinSpec::SelfJoin)
    }

    /// Exit with a usage error when a bipartite `--join` was requested —
    /// for binaries whose sweep is intrinsically self-joined (their axis
    /// *is* the single population). Call at the top of `main`.
    pub fn require_self_join(&self, bin: &str) {
        if let Some(j) = self.join {
            if !j.is_self() {
                eprintln!(
                    "--join {} is not supported by {bin}: its sweep is tied to a \
                     single self-joined point population (use table2, or asymmetry \
                     for bipartite joins)",
                    j.name()
                );
                std::process::exit(2);
            }
        }
    }

    /// Exit with a usage error when `--technique` was given — for binaries
    /// whose technique line-up is fixed. Call at the top of `main`.
    pub fn reject_technique(&self) {
        if let Some(spec) = self.technique {
            eprintln!(
                "--technique {} is not supported by this binary",
                spec.name()
            );
            std::process::exit(2);
        }
    }

    /// Exit with a usage error when `--workload` was given — for binaries
    /// whose workload axis is intrinsic. Call at the top of `main`.
    pub fn reject_workload(&self) {
        if let Some(w) = self.workload {
            eprintln!("--workload {} is not supported by this binary", w.name());
            std::process::exit(2);
        }
    }

    /// Exit with a usage error when an intersection `--join` names a
    /// `--technique` outside the predicate's implementors — the run would
    /// otherwise die on the executor's assert. Call at the top of `main`
    /// in binaries that accept intersection joins (table2); without an
    /// explicit `--technique` the default filter handles the restriction.
    pub fn require_intersect_support(&self) {
        if let (true, Some(spec)) = (self.join_spec().is_intersect(), self.technique) {
            if !spec.supports_intersects() {
                let capable: Vec<String> = registry()
                    .into_iter()
                    .filter(|s| s.supports_intersects())
                    .map(|s| s.name())
                    .collect();
                eprintln!(
                    "--technique {} does not implement the intersects predicate required \
                     by --join {}; intersects-capable specs: {}",
                    spec.name(),
                    self.join_spec().name(),
                    capable.join(", ")
                );
                std::process::exit(2);
            }
        }
    }

    /// Table 1 uniform defaults with this CLI's overrides applied.
    pub fn uniform_params(&self) -> WorkloadParams {
        let defaults = WorkloadParams::default();
        WorkloadParams {
            ticks: self
                .ticks
                .unwrap_or(if self.paper { 100 } else { QUICK_TICKS }),
            num_points: self.points.unwrap_or(defaults.num_points),
            seed: self.seed.unwrap_or(defaults.seed),
            ..defaults
        }
    }

    /// Table 1 Gaussian defaults with this CLI's overrides applied.
    pub fn gaussian_params(&self) -> GaussianParams {
        GaussianParams {
            base: WorkloadParams {
                ticks: self
                    .ticks
                    .unwrap_or(if self.paper { 120 } else { QUICK_TICKS }),
                ..self.uniform_params()
            },
            ..GaussianParams::default()
        }
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, CliError> {
    s.parse().map_err(|_| CliError::InvalidValue {
        flag: flag.to_string(),
        value: s.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_core::technique::TechniqueKind;
    use sj_grid::Stage;

    fn parse(args: &[&str]) -> Result<CommonOpts, CliError> {
        CommonOpts::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_quick_scale() {
        let opts = parse(&[]).unwrap();
        let p = opts.uniform_params();
        assert_eq!(p.ticks, QUICK_TICKS);
        assert_eq!(p.num_points, 50_000);
        assert!(!opts.csv && !opts.json);
        assert_eq!(opts.technique, None);
    }

    #[test]
    fn paper_restores_full_ticks() {
        let opts = parse(&["--paper"]).unwrap();
        assert_eq!(opts.uniform_params().ticks, 100);
        assert_eq!(opts.gaussian_params().base.ticks, 120);
    }

    #[test]
    fn explicit_flags_win() {
        let opts = parse(&[
            "--ticks", "5", "--points", "1234", "--seed", "9", "--csv", "--json",
        ])
        .unwrap();
        let p = opts.uniform_params();
        assert_eq!(p.ticks, 5);
        assert_eq!(p.num_points, 1_234);
        assert_eq!(p.seed, 9);
        assert!(opts.csv);
        assert!(opts.json);
    }

    #[test]
    fn technique_flag_parses_registry_specs() {
        let opts = parse(&["--technique", "grid:inline"]).unwrap();
        let tuned = TechniqueKind::Grid(Stage::CpsTuned).spec();
        assert_eq!(opts.technique, Some(tuned));
        // The override wins over any default filter.
        assert_eq!(opts.techniques(|_| true), vec![tuned]);
        // Without an override, the filter selects from the registry.
        let defaults = parse(&[]).unwrap().techniques(|s| s.in_figure2());
        assert_eq!(defaults.len(), 5);
    }

    #[test]
    fn threads_flag_selects_the_parallel_mode() {
        assert_eq!(parse(&[]).unwrap().exec_mode(), ExecMode::Sequential);
        let opts = parse(&["--threads", "4"]).unwrap();
        assert_eq!(opts.threads, NonZeroUsize::new(4));
        assert_eq!(opts.exec_mode(), ExecMode::parallel(4).unwrap());
    }

    #[test]
    fn zero_threads_is_a_cli_error_not_a_panic() {
        // ExecMode::Parallel holds a NonZeroUsize, so an invalid thread
        // count can only exist as a parse failure — there is no runtime
        // assert left to trip (the old facade's `assert!(threads > 0)`).
        assert_eq!(
            parse(&["--threads", "0"]).err(),
            Some(CliError::InvalidValue {
                flag: "--threads".into(),
                value: "0".into()
            })
        );
        assert_eq!(
            parse(&["--threads", "many"]).err(),
            Some(CliError::InvalidValue {
                flag: "--threads".into(),
                value: "many".into()
            })
        );
        // The spec-level guard is the same type: @par0 cannot parse.
        match parse(&["--technique", "grid@par0"]) {
            Err(CliError::UnknownTechnique(e)) => assert_eq!(e.spec, "grid@par0"),
            other => panic!("expected UnknownTechnique, got {other:?}"),
        }
    }

    #[test]
    fn spec_par_modifier_wins_over_the_threads_flag() {
        let opts = parse(&["--technique", "grid@par8", "--threads", "2"]).unwrap();
        assert_eq!(opts.exec_mode(), ExecMode::parallel(8).unwrap());
        // Without a modifier, --threads applies to the chosen technique.
        let opts = parse(&["--technique", "sweep", "--threads", "2"]).unwrap();
        assert_eq!(opts.exec_mode(), ExecMode::parallel(2).unwrap());
    }

    #[test]
    fn tiles_flag_selects_the_partitioned_mode() {
        let opts = parse(&["--tiles", "4"]).unwrap();
        assert_eq!(opts.tiles, NonZeroUsize::new(4).map(Tiling::Fixed));
        assert_eq!(opts.exec_mode(), ExecMode::partitioned(4).unwrap());
        let opts = parse(&["--tiles", "auto"]).unwrap();
        assert_eq!(opts.tiles, Some(Tiling::Auto));
        assert_eq!(opts.exec_mode(), ExecMode::adaptive());
        // Zero dies in the parser like --threads 0 — no runtime check left.
        assert_eq!(
            parse(&["--tiles", "0"]).err(),
            Some(CliError::InvalidValue {
                flag: "--tiles".into(),
                value: "0".into()
            })
        );
        // A spec modifier wins over the flag, and cross-mode too: the spec
        // is the more specific request.
        let opts = parse(&["--technique", "grid@tiles8", "--tiles", "2"]).unwrap();
        assert_eq!(opts.exec_mode(), ExecMode::partitioned(8).unwrap());
        let opts = parse(&["--technique", "grid@par8", "--tiles", "2"]).unwrap();
        assert_eq!(opts.exec_mode(), ExecMode::parallel(8).unwrap());
        let opts = parse(&["--technique", "grid@tiles8", "--threads", "2"]).unwrap();
        assert_eq!(opts.exec_mode(), ExecMode::partitioned(8).unwrap());
    }

    #[test]
    fn tiles_and_threads_compose_into_a_pooled_mode() {
        // Formerly mutually exclusive; with the shared worker pool the
        // combination is the pooled mode, in either flag order.
        let opts = parse(&["--tiles", "4", "--threads", "2"]).unwrap();
        assert_eq!(opts.exec_mode(), ExecMode::pooled(4, 2).unwrap());
        let opts = parse(&["--threads", "2", "--tiles", "4"]).unwrap();
        assert_eq!(opts.exec_mode(), ExecMode::pooled(4, 2).unwrap());
        // Adaptive tiling takes a pool size the same way.
        let opts = parse(&["--tiles", "auto", "--threads", "2"]).unwrap();
        assert_eq!(opts.exec_mode(), ExecMode::adaptive_pooled(2).unwrap());
        // Both flags still reject zero individually.
        assert_eq!(
            parse(&["--tiles", "0", "--threads", "2"]).err(),
            Some(CliError::InvalidValue {
                flag: "--tiles".into(),
                value: "0".into()
            })
        );
        assert_eq!(
            parse(&["--tiles", "4", "--threads", "0"]).err(),
            Some(CliError::InvalidValue {
                flag: "--threads".into(),
                value: "0".into()
            })
        );
    }

    #[test]
    fn malformed_inputs_are_reported_not_fatal() {
        assert_eq!(
            parse(&["--ticks"]).err(),
            Some(CliError::MissingValue("--ticks".into()))
        );
        assert_eq!(
            parse(&["--points", "many"]).err(),
            Some(CliError::InvalidValue {
                flag: "--points".into(),
                value: "many".into()
            })
        );
        assert_eq!(
            parse(&["--frobnicate"]).err(),
            Some(CliError::UnknownFlag("--frobnicate".into()))
        );
        assert_eq!(parse(&["--help"]).err(), Some(CliError::Help));
        match parse(&["--technique", "btree"]) {
            Err(CliError::UnknownTechnique(e)) => assert_eq!(e.spec, "btree"),
            other => panic!("expected UnknownTechnique, got {other:?}"),
        }
    }

    #[test]
    fn usage_lists_every_registry_spec() {
        let u = usage();
        for spec in registry() {
            assert!(u.contains(&spec.name()), "usage missing {}", spec.name());
        }
        for spec in workload_registry() {
            assert!(u.contains(&spec.name()), "usage missing {}", spec.name());
        }
        assert!(u.contains("--list-techniques") && u.contains("--list-workloads"));
        assert!(u.contains("--join") && u.contains("bipartite:<R>x<S>"));
        assert!(u.contains("intersect:rects"));
        assert!(u.contains("--tiles") && u.contains("@tiles4"));
        assert!(u.contains("@tiles4@par2") && u.contains("@tilesauto"));
    }

    #[test]
    fn workload_flag_parses_registry_specs() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.workload, None);
        assert_eq!(opts.workload_spec(), WorkloadKind::Uniform.spec());
        let opts = parse(&["--workload", "churn:gaussian:h3"]).unwrap();
        let spec = opts.workload.unwrap();
        assert!(spec.has_churn());
        assert_eq!(spec.kind, WorkloadKind::Gaussian { hotspots: 3 });
        assert_eq!(opts.workload_spec(), spec);
        match parse(&["--workload", "nope"]) {
            Err(CliError::UnknownWorkload(e)) => assert_eq!(e.spec, "nope"),
            other => panic!("expected UnknownWorkload, got {other:?}"),
        }
        assert_eq!(
            parse(&["--workload"]).err(),
            Some(CliError::MissingValue("--workload".into()))
        );
    }

    #[test]
    fn join_flag_parses_the_join_grammar() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.join, None);
        assert!(opts.join_spec().is_self());
        let opts = parse(&["--join", "self"]).unwrap();
        assert!(opts.join_spec().is_self());
        let opts = parse(&["--join", "bipartite:uniformxgaussian:h3:ratio10"]).unwrap();
        let spec = opts.join.unwrap();
        assert!(!spec.is_self());
        assert_eq!(spec.name(), "bipartite:uniformxgaussian:h3:ratio10");
        assert_eq!(opts.join_spec(), spec);
        match parse(&["--join", "bipartite:nope"]) {
            Err(CliError::UnknownJoin(e)) => assert_eq!(e.spec, "bipartite:nope"),
            other => panic!("expected UnknownJoin, got {other:?}"),
        }
        assert_eq!(
            parse(&["--join"]).err(),
            Some(CliError::MissingValue("--join".into()))
        );
        // A bipartite join names its own relation workloads; a
        // simultaneous --workload would be a second configuration source.
        assert_eq!(
            parse(&[
                "--join",
                "bipartite:uniformxuniform",
                "--workload",
                "uniform"
            ])
            .err(),
            Some(CliError::JoinWorkloadConflict)
        );
        // --workload remains fine with the (default or explicit) self join.
        assert!(parse(&["--join", "self", "--workload", "uniform"]).is_ok());
    }

    #[test]
    fn intersect_join_parses_and_rejects_a_workload_flag() {
        let opts = parse(&["--join", "intersect:rects"]).unwrap();
        let spec = opts.join.unwrap();
        assert!(spec.is_intersect() && !spec.is_self());
        assert_eq!(spec.name(), "intersect:rects");
        // The intersect spec names its own extent workload; a simultaneous
        // --workload would be a second configuration source.
        assert_eq!(
            parse(&["--join", "intersect:rects", "--workload", "uniform"]).err(),
            Some(CliError::JoinWorkloadConflict)
        );
        match parse(&["--join", "intersect:spheres"]) {
            Err(CliError::UnknownJoin(e)) => assert_eq!(e.spec, "intersect:spheres"),
            other => panic!("expected UnknownJoin, got {other:?}"),
        }
    }

    #[test]
    fn list_flags_parse_without_exiting() {
        // parse_from is pure; the print-and-exit behaviour lives in
        // CommonOpts::parse at the process boundary.
        let opts = parse(&["--list-techniques"]).unwrap();
        assert!(opts.list_techniques && !opts.list_workloads);
        let opts = parse(&["--list-workloads", "--json"]).unwrap();
        assert!(opts.list_workloads && opts.json);
    }
}
