//! # sj-workload
//!
//! Synthetic moving-object workloads for the iterated spatial join,
//! reproducing Table 1 of Šidlauskas & Jensen (PVLDB 2014) — a uniform
//! workload (random placement, random velocities, Bernoulli querier and
//! updater selection) and a Gaussian workload (objects clustered around
//! hotspots with mean-reverting Gaussian movement) — plus a road-grid
//! simulation stand-in and a [`ChurnWorkload`] wrapper that adds
//! population churn (seeded arrivals/departures) over any base workload.
//!
//! All of them implement [`sj_base::Workload`] and are deterministic
//! functions of their seed, so every join technique observes identical
//! trajectories, query sets, and churn sequences — the precondition for
//! the cross-technique result-checksum equality the integration tests
//! assert.
//!
//! Workloads are first-class citizens of the harness: [`WorkloadSpec`]
//! parses/names them (`"uniform"`, `"gaussian:h3"`, `"churn:roadgrid"`,
//! …) and [`workload_registry`] enumerates the full line-up, mirroring
//! the technique registry in `sj_core::technique`. The join *shape* is an
//! axis of its own: [`JoinSpec`] names self-joins and bipartite R ⋈ S
//! joins (`"self"`, `"bipartite:uniformxgaussian:h3:ratio10"`), pairing
//! two independent workloads as the query and data relations.

mod churn;
mod gaussian;
mod join;
mod params;
mod rects;
mod roadgrid;
mod spec;
pub mod trace;
mod uniform;

pub use churn::{ChurnParams, ChurnWorkload};
pub use gaussian::GaussianWorkload;
pub use join::{JoinSpec, ParseJoinError};
pub use params::{GaussianParams, ParamError, WorkloadParams};
pub use rects::RectsWorkload;
pub use roadgrid::RoadGridWorkload;
pub use spec::{
    workload_registry, ParseWorkloadError, WorkloadKind, WorkloadSpec, DEFAULT_HOTSPOTS,
};
pub use trace::{record, record_bipartite, Trace, TraceShape, TraceWorkload};
pub use uniform::UniformWorkload;
