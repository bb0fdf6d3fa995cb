//! The unified workload registry — workloads as first-class, nameable
//! citizens, mirroring `sj_core::technique`'s `TechniqueSpec` pattern.
//!
//! A spec is a [`WorkloadKind`] (which population/movement model) plus an
//! optional churn wrapper. Spec strings are `family` or `family:variant`,
//! optionally prefixed by `churn:` (e.g. `"uniform"`, `"gaussian:h3"`,
//! `"roadgrid"`, `"churn:uniform"`, `"churn:gaussian:h10"`);
//! [`WorkloadSpec::parse`] accepts them case-sensitively and
//! [`WorkloadSpec::name`] returns the canonical form, so specs
//! round-trip. [`workload_registry`] is the single source of truth the
//! harness binaries and the cross-technique integration tests sweep —
//! adding a workload here automatically adds it to every
//! technique × workload matrix.

use std::fmt;

use sj_base::driver::Workload;

use crate::churn::{ChurnParams, ChurnWorkload};
use crate::params::{GaussianParams, WorkloadParams};
use crate::{GaussianWorkload, RoadGridWorkload, UniformWorkload};

/// The base workload families (Table 1 plus the simulation stand-in).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Uniform placement, Bernoulli querier/updater selection (`uniform`).
    Uniform,
    /// Hotspot-clustered placement with mean-reverting Gaussian movement
    /// (`gaussian:h<N>`, N = number of hotspots; `gaussian` ⇒ h10).
    Gaussian { hotspots: u32 },
    /// Manhattan mobility on a road grid — the simulation-workload
    /// substitute (`roadgrid`).
    RoadGrid,
}

/// Hotspot count of the bare `gaussian` alias (Table 1's default).
pub const DEFAULT_HOTSPOTS: u32 = 10;

impl WorkloadKind {
    /// Canonical base spec string (no churn prefix).
    pub fn name(self) -> String {
        match self {
            WorkloadKind::Uniform => "uniform".to_string(),
            WorkloadKind::Gaussian { hotspots } => format!("gaussian:h{hotspots}"),
            WorkloadKind::RoadGrid => "roadgrid".to_string(),
        }
    }

    /// Display label for table headers.
    pub fn label(self) -> String {
        match self {
            WorkloadKind::Uniform => "Uniform".to_string(),
            WorkloadKind::Gaussian { hotspots } => format!("Gaussian ({hotspots} hotspots)"),
            WorkloadKind::RoadGrid => "Road Grid".to_string(),
        }
    }

    /// Parse a base spec string (canonical names plus the alias
    /// `gaussian` → `gaussian:h10`). The churn prefix belongs to
    /// [`WorkloadSpec::parse`].
    pub fn parse(base: &str) -> Option<WorkloadKind> {
        Some(match base {
            "uniform" => WorkloadKind::Uniform,
            "roadgrid" => WorkloadKind::RoadGrid,
            "gaussian" => WorkloadKind::Gaussian {
                hotspots: DEFAULT_HOTSPOTS,
            },
            other => {
                let hotspots: u32 = other.strip_prefix("gaussian:h")?.parse().ok()?;
                if hotspots == 0 {
                    return None;
                }
                WorkloadKind::Gaussian { hotspots }
            }
        })
    }

    /// This kind as a churn-free [`WorkloadSpec`].
    pub const fn spec(self) -> WorkloadSpec {
        WorkloadSpec {
            kind: self,
            churn: false,
        }
    }

    /// This kind wrapped in the churn process.
    pub const fn churn(self) -> WorkloadSpec {
        WorkloadSpec {
            kind: self,
            churn: true,
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Error from [`WorkloadSpec::parse`]: the offending spec plus (via
/// `Display`) the full list of canonical spec strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseWorkloadError {
    pub spec: String,
}

impl fmt::Display for ParseWorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown workload spec {:?} (expected one of: ",
            self.spec
        )?;
        for (i, s) in workload_registry().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", s.name())?;
        }
        write!(
            f,
            "; `gaussian:h<N>` takes any hotspot count, and any base spec \
             accepts a `churn:` prefix, e.g. churn:gaussian:h3)"
        )
    }
}

impl std::error::Error for ParseWorkloadError {}

/// A parseable, nameable handle for every workload in the workspace —
/// `Copy`, like `sj_core::technique::TechniqueSpec`, so registry sweeps
/// are cheap to filter and re-instantiate (a fresh workload per run keeps
/// seeds aligned).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WorkloadSpec {
    pub kind: WorkloadKind,
    /// Whether the base workload is wrapped in [`ChurnWorkload`] (at
    /// [`ChurnParams::DEFAULT_RATE`]; build by hand for custom rates).
    pub churn: bool,
}

impl WorkloadSpec {
    /// Canonical spec string; [`WorkloadSpec::parse`] inverts it.
    pub fn name(&self) -> String {
        if self.churn {
            format!("churn:{}", self.kind.name())
        } else {
            self.kind.name()
        }
    }

    /// Display label for table headers.
    pub fn label(&self) -> String {
        if self.churn {
            format!("{} + churn", self.kind.label())
        } else {
            self.kind.label()
        }
    }

    /// Parse a spec string: an optional `churn:` prefix followed by a base
    /// name ([`WorkloadKind::parse`], aliases included).
    pub fn parse(spec: &str) -> Result<WorkloadSpec, ParseWorkloadError> {
        let err = || ParseWorkloadError {
            spec: spec.to_string(),
        };
        let (churn, base) = match spec.strip_prefix("churn:") {
            Some(base) => (true, base),
            None => (false, spec),
        };
        let kind = WorkloadKind::parse(base).ok_or_else(err)?;
        Ok(WorkloadSpec { kind, churn })
    }

    /// Whether this workload mutates population membership — the axis the
    /// frozen Table 1 workloads never exercise.
    pub const fn has_churn(&self) -> bool {
        self.churn
    }

    /// Construct the workload over `params` (tick count, population size,
    /// space, speeds, seed — the shared Table 1 knobs). Family-specific
    /// parameters take their tuned defaults: the Gaussian sigma from
    /// [`GaussianParams::default`], the road grid's road count adapted so
    /// one tick never crosses two intersections, churn at
    /// [`ChurnParams::DEFAULT_RATE`].
    pub fn build(&self, params: WorkloadParams) -> Box<dyn Workload> {
        let base: Box<dyn Workload> = match self.kind {
            WorkloadKind::Uniform => Box::new(UniformWorkload::new(params)),
            WorkloadKind::Gaussian { hotspots } => {
                Box::new(GaussianWorkload::new(GaussianParams {
                    base: params,
                    hotspots,
                    ..GaussianParams::default()
                }))
            }
            WorkloadKind::RoadGrid => {
                // RoadGridWorkload requires max_speed < spacing; pick the
                // densest grid (capped at the default 40 roads) that keeps
                // a 25 % safety margin, deterministically from the params.
                let max_roads = (params.space_side / (params.max_speed * 1.25)).floor() as u32;
                let roads = max_roads.clamp(2, 40);
                // Even the sparsest legal grid (2 roads) cannot admit
                // speeds at or above its spacing; rather than panicking on
                // params that validate() accepts, slow such objects into
                // the mobility model's regime (deterministic — the cap is
                // a pure function of the params).
                let spacing = params.space_side / roads as f32;
                let params = if params.max_speed >= spacing {
                    WorkloadParams {
                        max_speed: spacing * 0.8,
                        ..params
                    }
                } else {
                    params
                };
                Box::new(RoadGridWorkload::new(params, roads, 0.3))
            }
        };
        if self.churn {
            Box::new(ChurnWorkload::new(
                base,
                ChurnParams {
                    rate: ChurnParams::DEFAULT_RATE,
                    max_speed: params.max_speed,
                    seed: params.seed,
                    // The configured population, not a live-count snapshot:
                    // the arrival process must keep targeting it even if
                    // churn ever drives the live count to zero.
                    target_population: params.num_points,
                },
            ))
        } else {
            base
        }
    }
}

impl From<WorkloadKind> for WorkloadSpec {
    fn from(kind: WorkloadKind) -> WorkloadSpec {
        kind.spec()
    }
}

impl std::str::FromStr for WorkloadSpec {
    type Err = ParseWorkloadError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        WorkloadSpec::parse(s)
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Every workload in the workspace, in presentation order: the Table 1
/// pair (uniform first, Gaussian at its default density), a denser
/// Gaussian variant, the simulation stand-in, then the same population
/// models under churn. This is the single source of truth the harness
/// binaries and the cross-technique/parallel-equivalence tests sweep.
pub fn workload_registry() -> Vec<WorkloadSpec> {
    vec![
        WorkloadKind::Uniform.spec(),
        WorkloadKind::Gaussian {
            hotspots: DEFAULT_HOTSPOTS,
        }
        .spec(),
        WorkloadKind::Gaussian { hotspots: 3 }.spec(),
        WorkloadKind::RoadGrid.spec(),
        WorkloadKind::Uniform.churn(),
        WorkloadKind::Gaussian {
            hotspots: DEFAULT_HOTSPOTS,
        }
        .churn(),
        WorkloadKind::RoadGrid.churn(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_base::driver::TickActions;

    #[test]
    fn registry_covers_every_family_and_the_churn_axis() {
        let specs = workload_registry();
        assert_eq!(specs.len(), 7);
        assert_eq!(specs.iter().filter(|s| s.has_churn()).count(), 3);
        assert!(specs.contains(&WorkloadKind::Uniform.spec()));
        assert!(specs.contains(&WorkloadKind::RoadGrid.churn()));
    }

    #[test]
    fn every_registry_spec_round_trips_through_parse() {
        for spec in workload_registry() {
            assert_eq!(
                WorkloadSpec::parse(&spec.name()),
                Ok(spec),
                "{}",
                spec.name()
            );
        }
    }

    #[test]
    fn aliases_canonicalize() {
        let g = WorkloadSpec::parse("gaussian").unwrap();
        assert_eq!(g.kind, WorkloadKind::Gaussian { hotspots: 10 });
        assert_eq!(g.name(), "gaussian:h10");
        let cg = WorkloadSpec::parse("churn:gaussian").unwrap();
        assert!(cg.has_churn());
        assert_eq!(cg.name(), "churn:gaussian:h10");
        assert_eq!(
            WorkloadSpec::parse("gaussian:h250").unwrap().name(),
            "gaussian:h250"
        );
    }

    #[test]
    fn malformed_specs_are_rejected_with_the_full_menu() {
        for bad in [
            "gauss",
            "gaussian:h0",
            "gaussian:h",
            "gaussian:hX",
            "churn:",
            "churn:gauss",
            "churn:churn:uniform",
            "",
        ] {
            let err = WorkloadSpec::parse(bad).unwrap_err();
            assert_eq!(err.spec, bad);
            let msg = err.to_string();
            assert!(msg.contains("uniform") && msg.contains("churn:"), "{msg}");
        }
    }

    #[test]
    fn names_and_labels_are_unique() {
        let specs = workload_registry();
        for (i, a) in specs.iter().enumerate() {
            for b in &specs[i + 1..] {
                assert_ne!(a.name(), b.name());
                assert_ne!(a.label(), b.label());
            }
        }
    }

    #[test]
    fn every_registry_workload_builds_and_plans() {
        let params = WorkloadParams {
            num_points: 500,
            space_side: 6_000.0,
            ..WorkloadParams::default()
        };
        for spec in workload_registry() {
            let mut w = spec.build(params);
            let set = w.init();
            assert_eq!(set.live_len(), 500, "{}", spec.name());
            let mut a = TickActions::default();
            w.plan_tick(0, &set, &mut a);
            assert!(!a.queriers.is_empty(), "{} planned no queries", spec.name());
            assert_eq!(
                a.removals.is_empty() && a.inserts.is_empty(),
                !spec.has_churn(),
                "{}: churn plan does not match the spec",
                spec.name()
            );
        }
    }

    #[test]
    fn roadgrid_adapts_its_road_count_to_fast_objects() {
        // Default with_defaults() would panic here (spacing 150 < speed
        // 200); the spec constructor must pick a sparser grid instead.
        let params = WorkloadParams {
            num_points: 300,
            space_side: 6_000.0,
            max_speed: 200.0,
            ..WorkloadParams::default()
        };
        let mut w = WorkloadKind::RoadGrid.spec().build(params);
        let set = w.init();
        assert_eq!(set.live_len(), 300);
    }

    #[test]
    fn roadgrid_slows_absurdly_fast_objects_instead_of_panicking() {
        // max_speed >= space_side / 2.5 defeats any road count; the
        // constructor must cap the speed, not assert (the params pass
        // validate(), so build() has no business crashing).
        let params = WorkloadParams {
            num_points: 100,
            space_side: 6_000.0,
            max_speed: 3_000.0,
            ..WorkloadParams::default()
        };
        for spec in [
            WorkloadKind::RoadGrid.spec(),
            WorkloadKind::RoadGrid.churn(),
        ] {
            let mut w = spec.build(params);
            let set = w.init();
            assert_eq!(set.live_len(), 100, "{}", spec.name());
            let space = w.space();
            for (_, p) in set.table.iter() {
                assert!(space.contains_point(p.x, p.y));
            }
        }
    }
}
