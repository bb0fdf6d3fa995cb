//! The join-shape registry axis: self-join vs. bipartite R ⋈ S.
//!
//! The paper (and the frozen Table 1 workloads) only ever join a moving
//! set with itself — the queriers are a subset of the indexed population.
//! The related work this repository also reproduces (Tsitsigkos &
//! Mamoulis, *Parallel In-Memory Evaluation of Spatial Joins*; Tsitsigkos
//! et al., *A Two-level Spatial In-Memory Index*) evaluates exclusively
//! the **two-dataset** case: a query relation R probing a data relation S,
//! typically with |R| ≪ |S|. [`JoinSpec`] names that axis the registry way
//! (`sj_core::technique::TechniqueSpec`, [`crate::WorkloadSpec`]): a spec
//! string parses to a value, the value names itself back, and the harness
//! binaries and integration matrices sweep it.
//!
//! Grammar:
//!
//! - `self` — the degenerate R = S case (the paper's setting);
//! - `bipartite:<R-workload>x<S-workload>[:ratio<K>]` — an R ⋈ S join
//!   whose relations are driven by two independent [`Workload`]s, e.g.
//!   `bipartite:uniformxgaussian:h3` or
//!   `bipartite:churn:uniformxuniform:ratio10`. The relation separator is
//!   the **first** `x` in the remainder — unambiguous because no workload
//!   spec string contains one — and `ratio<K>` (default 1) shrinks the
//!   query relation to `|R| = max(1, num_points / K)` while S keeps the
//!   configured population, giving the canonical small-R / large-S shape;
//! - `intersect:rects` — the **intersects-predicate** self-join over
//!   extent entries: rectangles instead of points, a querier's query
//!   region is its own extent, and matches are closed rectangle
//!   overlaps. Driven by [`crate::RectsWorkload`] through
//!   [`sj_base::driver::ExtentWorkload`] (`rects` is currently the only
//!   extent workload). Only techniques advertising
//!   `supports_intersects()` can run it.
//!
//! Both relations are built over the same space/speed/query parameters;
//! R's seed is decorrelated from S's ([`mix64`] of the base seed), so
//! `bipartite:uniformxuniform` is two *independent* uniform populations,
//! not two copies of one.

use std::fmt;
use std::num::NonZeroU32;

use sj_base::driver::{ExtentWorkload, Workload};
use sj_base::rng::mix64;

use crate::params::WorkloadParams;
use crate::spec::WorkloadSpec;

/// Salt folded into the query relation's seed so R and S draw from
/// decorrelated streams even when both relations name the same workload.
const QUERY_REL_SEED_SALT: u64 = 0x5253_4A4F_494E; // "RSJOIN"

/// A parseable, nameable handle for the join shape — `Copy`, like the
/// technique and workload specs, so matrix sweeps are cheap to filter and
/// re-instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JoinSpec {
    /// The paper's self-join: one moving set, queriers drawn from it.
    SelfJoin,
    /// Bipartite R ⋈ S: `r` drives the query relation, `s` the data
    /// relation, `ratio` divides R's population (`|R| = max(1,
    /// num_points / ratio)`, `|S| = num_points`).
    Bipartite {
        r: WorkloadSpec,
        s: WorkloadSpec,
        ratio: NonZeroU32,
    },
    /// The intersects-predicate self-join over extent entries
    /// (`intersect:rects`): the uniform moving-rectangle workload, each
    /// planned querier joined against the whole table under closed
    /// rectangle overlap.
    Intersect,
}

/// Error from [`JoinSpec::parse`]: the offending spec plus (via `Display`)
/// the grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseJoinError {
    pub spec: String,
}

impl fmt::Display for ParseJoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown join spec {:?} (expected `self`, \
             `bipartite:<R-workload>x<S-workload>[:ratio<K>]`, e.g. \
             bipartite:uniformxgaussian:h3:ratio10, with workload specs as \
             in --list-workloads; or `intersect:rects`, the \
             intersects-predicate extent self-join)",
            self.spec
        )
    }
}

impl std::error::Error for ParseJoinError {}

impl JoinSpec {
    /// A bipartite spec at ratio 1 (equal populations).
    pub const fn bipartite(r: WorkloadSpec, s: WorkloadSpec) -> JoinSpec {
        JoinSpec::Bipartite {
            r,
            s,
            ratio: NonZeroU32::MIN,
        }
    }

    /// The same bipartite spec with a different |S| : |R| ratio; identity
    /// on `self`.
    pub fn with_ratio(self, ratio: NonZeroU32) -> JoinSpec {
        match self {
            JoinSpec::SelfJoin => JoinSpec::SelfJoin,
            JoinSpec::Bipartite { r, s, .. } => JoinSpec::Bipartite { r, s, ratio },
            JoinSpec::Intersect => JoinSpec::Intersect,
        }
    }

    /// Canonical spec string; [`JoinSpec::parse`] inverts it. The ratio
    /// suffix is omitted at its default of 1.
    pub fn name(&self) -> String {
        match self {
            JoinSpec::SelfJoin => "self".to_string(),
            JoinSpec::Intersect => "intersect:rects".to_string(),
            JoinSpec::Bipartite { r, s, ratio } => {
                if ratio.get() == 1 {
                    format!("bipartite:{}x{}", r.name(), s.name())
                } else {
                    format!("bipartite:{}x{}:ratio{}", r.name(), s.name(), ratio)
                }
            }
        }
    }

    /// Display label for table headers.
    pub fn label(&self) -> String {
        match self {
            JoinSpec::SelfJoin => "Self-join".to_string(),
            JoinSpec::Intersect => "Intersection self-join (rects)".to_string(),
            JoinSpec::Bipartite { r, s, ratio } => {
                if ratio.get() == 1 {
                    format!("{} ⋈ {}", r.label(), s.label())
                } else {
                    format!("{} ⋈ {} (|R| = |S|/{})", r.label(), s.label(), ratio)
                }
            }
        }
    }

    /// Parse a spec string (see the module docs for the grammar).
    pub fn parse(spec: &str) -> Result<JoinSpec, ParseJoinError> {
        let err = || ParseJoinError {
            spec: spec.to_string(),
        };
        if spec == "self" {
            return Ok(JoinSpec::SelfJoin);
        }
        if let Some(extent) = spec.strip_prefix("intersect:") {
            // `rects` is the only extent workload so far; the prefix form
            // keeps the grammar open for more.
            return match extent {
                "rects" => Ok(JoinSpec::Intersect),
                _ => Err(err()),
            };
        }
        let rest = spec.strip_prefix("bipartite:").ok_or_else(err)?;
        // Optional trailing `:ratio<K>`. Workload names never contain the
        // substring ":ratio", so splitting on its last occurrence is safe.
        let (pair, ratio) = match rest.rsplit_once(":ratio") {
            Some((pair, k)) => {
                let k: NonZeroU32 = k.parse().map_err(|_| err())?;
                (pair, k)
            }
            None => (rest, NonZeroU32::MIN),
        };
        // The relation separator is the first `x`: no workload spec string
        // contains one, so everything before it is R, everything after S.
        let (r, s) = pair.split_once('x').ok_or_else(err)?;
        let r = WorkloadSpec::parse(r).map_err(|_| err())?;
        let s = WorkloadSpec::parse(s).map_err(|_| err())?;
        Ok(JoinSpec::Bipartite { r, s, ratio })
    }

    /// Whether this is the degenerate self-join.
    pub const fn is_self(&self) -> bool {
        matches!(self, JoinSpec::SelfJoin)
    }

    /// Whether this is the intersects-predicate extent join: it runs
    /// through `sj_base::driver::run_intersect_join` /
    /// `run_intersect_batch_join` and only techniques implementing the
    /// predicate can execute it.
    pub const fn is_intersect(&self) -> bool {
        matches!(self, JoinSpec::Intersect)
    }

    /// The R and S workload specs of a bipartite join (`None` for `self`
    /// and `intersect:*`, whose single workload is configured elsewhere).
    pub fn workloads(&self) -> Option<(WorkloadSpec, WorkloadSpec)> {
        match self {
            JoinSpec::SelfJoin | JoinSpec::Intersect => None,
            JoinSpec::Bipartite { r, s, .. } => Some((*r, *s)),
        }
    }

    /// Whether either relation's workload churns its population.
    pub fn has_churn(&self) -> bool {
        match self {
            JoinSpec::SelfJoin | JoinSpec::Intersect => false,
            JoinSpec::Bipartite { r, s, .. } => r.has_churn() || s.has_churn(),
        }
    }

    /// Construct the extent workload of an `intersect:*` join over
    /// `params`. `None` for the point-predicate shapes.
    pub fn build_extents(&self, params: WorkloadParams) -> Option<Box<dyn ExtentWorkload>> {
        match self {
            JoinSpec::Intersect => Some(Box::new(crate::rects::RectsWorkload::new(params))),
            _ => None,
        }
    }

    /// Query-relation parameters: the shared knobs of `base` with the
    /// population divided by the ratio and the seed decorrelated from S's.
    pub fn query_rel_params(&self, base: WorkloadParams) -> WorkloadParams {
        let ratio = match self {
            JoinSpec::Bipartite { ratio, .. } => ratio.get(),
            JoinSpec::SelfJoin | JoinSpec::Intersect => 1,
        };
        WorkloadParams {
            num_points: (base.num_points / ratio).max(1),
            seed: mix64(base.seed ^ QUERY_REL_SEED_SALT),
            ..base
        }
    }

    /// Construct the two relation workloads of a bipartite join over the
    /// shared `params` — `(R, S)`, with R at [`JoinSpec::query_rel_params`]
    /// and S at `params` itself. `None` for `self`.
    pub fn build_pair(
        &self,
        params: WorkloadParams,
    ) -> Option<(Box<dyn Workload>, Box<dyn Workload>)> {
        let (r, s) = self.workloads()?;
        Some((r.build(self.query_rel_params(params)), s.build(params)))
    }
}

impl std::str::FromStr for JoinSpec {
    type Err = ParseJoinError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        JoinSpec::parse(s)
    }
}

impl fmt::Display for JoinSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadKind;
    use sj_base::driver::TickActions;

    fn ratio(k: u32) -> NonZeroU32 {
        NonZeroU32::new(k).unwrap()
    }

    #[test]
    fn self_spec_round_trips() {
        let s = JoinSpec::parse("self").unwrap();
        assert_eq!(s, JoinSpec::SelfJoin);
        assert!(s.is_self());
        assert_eq!(s.name(), "self");
        assert_eq!(s.workloads(), None);
    }

    #[test]
    fn bipartite_specs_round_trip_through_parse_and_name() {
        let samples = [
            "bipartite:uniformxuniform",
            "bipartite:uniformxgaussian:h3",
            "bipartite:gaussian:h3xuniform",
            "bipartite:churn:uniformxroadgrid",
            "bipartite:uniformxchurn:gaussian:h10",
            "bipartite:uniformxuniform:ratio10",
            "bipartite:gaussian:h5xchurn:uniform:ratio100",
        ];
        for s in samples {
            let spec = JoinSpec::parse(s).unwrap();
            assert!(!spec.is_self(), "{s}");
            assert_eq!(spec.name(), s, "canonical form must match the input");
            assert_eq!(JoinSpec::parse(&spec.name()), Ok(spec), "{s}");
        }
    }

    #[test]
    fn aliases_canonicalize_inside_the_pair() {
        let spec = JoinSpec::parse("bipartite:gaussianxrtree-is-not-real")
            .map(|s| s.name())
            .unwrap_err();
        assert_eq!(spec.spec, "bipartite:gaussianxrtree-is-not-real");
        let spec = JoinSpec::parse("bipartite:gaussianxuniform").unwrap();
        assert_eq!(spec.name(), "bipartite:gaussian:h10xuniform");
        let (r, s) = spec.workloads().unwrap();
        assert_eq!(r.kind, WorkloadKind::Gaussian { hotspots: 10 });
        assert_eq!(s.kind, WorkloadKind::Uniform);
    }

    #[test]
    fn intersect_spec_round_trips() {
        let s = JoinSpec::parse("intersect:rects").unwrap();
        assert_eq!(s, JoinSpec::Intersect);
        assert!(s.is_intersect());
        assert!(!s.is_self());
        assert_eq!(s.name(), "intersect:rects");
        assert_eq!(JoinSpec::parse(&s.name()), Ok(s));
        assert_eq!(s.workloads(), None);
        assert!(!s.has_churn());
        assert_eq!(s.build_pair(WorkloadParams::default()).map(|_| ()), None);
    }

    #[test]
    fn intersect_spec_builds_the_rect_workload() {
        use sj_base::driver::ExtentTickActions;
        let params = WorkloadParams {
            num_points: 300,
            space_side: 5_000.0,
            ..WorkloadParams::default()
        };
        let mut w = JoinSpec::Intersect.build_extents(params).unwrap();
        let set = w.init();
        assert_eq!(set.len(), 300);
        let mut a = ExtentTickActions::default();
        w.plan_tick(0, &set, &mut a);
        assert!(!a.queriers.is_empty());
        // Point-predicate shapes have no extent workload.
        assert!(JoinSpec::SelfJoin.build_extents(params).is_none());
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "",
            "selfx",
            "bipartite",
            "bipartite:",
            "bipartite:uniform",
            "bipartite:uniformx",
            "bipartite:xuniform",
            "bipartite:uniformxuniform:ratio0",
            "bipartite:uniformxuniform:ratio-3",
            "bipartite:uniformxuniform:ratioX",
            "bipartite:nopexuniform",
            "ratio10",
            "intersect",
            "intersect:",
            "intersect:points",
            "intersect:rectsx",
        ] {
            let err = JoinSpec::parse(bad).unwrap_err();
            assert_eq!(err.spec, bad);
            let msg = err.to_string();
            assert!(msg.contains("bipartite:<R-workload>x<S-workload>"), "{msg}");
        }
    }

    #[test]
    fn ratio_divides_the_query_relation_population() {
        let base = WorkloadParams {
            num_points: 5_000,
            ..WorkloadParams::default()
        };
        let spec = JoinSpec::parse("bipartite:uniformxuniform:ratio10").unwrap();
        let r = spec.query_rel_params(base);
        assert_eq!(r.num_points, 500);
        assert_ne!(r.seed, base.seed, "R's stream must be decorrelated");
        // Extreme ratios never drop to an empty relation.
        let tiny = spec.with_ratio(ratio(1_000_000)).query_rel_params(base);
        assert_eq!(tiny.num_points, 1);
        // ratio is surfaced in the canonical name only when non-default.
        assert_eq!(
            spec.with_ratio(ratio(1)).name(),
            "bipartite:uniformxuniform"
        );
    }

    #[test]
    fn build_pair_produces_two_live_relations() {
        let base = WorkloadParams {
            num_points: 800,
            space_side: 6_000.0,
            ..WorkloadParams::default()
        };
        let spec = JoinSpec::bipartite(
            WorkloadKind::Uniform.spec(),
            WorkloadKind::Gaussian { hotspots: 3 }.spec(),
        )
        .with_ratio(ratio(4));
        let (mut r, mut s) = spec.build_pair(base).unwrap();
        let (r_set, s_set) = (r.init(), s.init());
        assert_eq!(r_set.live_len(), 200);
        assert_eq!(s_set.live_len(), 800);
        assert_eq!(r.space(), s.space(), "relations share the data space");
        // Decorrelated seeds: independent populations even for identical
        // workload kinds.
        let same = JoinSpec::bipartite(WorkloadKind::Uniform.spec(), WorkloadKind::Uniform.spec());
        let (mut r2, mut s2) = same.build_pair(base).unwrap();
        let (r2s, s2s) = (r2.init(), s2.init());
        assert_eq!(r2s.live_len(), s2s.live_len());
        assert_ne!(
            r2s.table.point(0),
            s2s.table.point(0),
            "R must not be a copy of S"
        );
        // And both plan queries when asked (the driver drops S's).
        let mut a = TickActions::default();
        r2.plan_tick(0, &r2s, &mut a);
        assert!(!a.queriers.is_empty());
        assert_eq!(JoinSpec::SelfJoin.build_pair(base).map(|_| ()), None);
    }

    #[test]
    fn churn_flag_reflects_either_relation() {
        assert!(!JoinSpec::SelfJoin.has_churn());
        assert!(!JoinSpec::parse("bipartite:uniformxuniform")
            .unwrap()
            .has_churn());
        assert!(JoinSpec::parse("bipartite:churn:uniformxuniform")
            .unwrap()
            .has_churn());
        assert!(JoinSpec::parse("bipartite:uniformxchurn:roadgrid")
            .unwrap()
            .has_churn());
    }
}
