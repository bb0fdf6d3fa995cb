//! The four benchmark workloads and the metric tables BENCHMARK.json
//! mirrors (a unit test keeps the two in step).

/// What a workload feeds the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Input {
    /// A point self-join over the named workload registry spec.
    Points(&'static str),
    /// The rectangle intersection self-join (`intersect:rects`).
    Rects,
}

/// One benchmark workload: its input, the technique under test, and the
/// independent technique its joins are checked against.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub input: Input,
    /// Population at Table 1's density (22k² space).
    pub points: u32,
    /// Measured ticks per segment.
    pub ticks: u32,
    /// Distinct inputs a run draws from its seed, one per segment; a run
    /// covers each at least once.
    pub inputs: usize,
    pub technique: &'static str,
    /// Threads the technique runs on, which the reference join the
    /// timings are scaled by runs on too.
    pub threads: usize,
    /// Checked against, never timed, so it runs on both workers to cost
    /// less of the run's wall time.
    pub oracle: &'static str,
    /// Why the workload is in the benchmark, as BENCHMARK.json states it.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "uniform",
        input: Input::Points("uniform"),
        points: 50_000,
        ticks: 25,
        inputs: 4,
        technique: "grid:inline",
        threads: 1,
        oracle: "rtree:str@par2",
        why: "The paper's headline grid: index probes take ~95% of a tick, ~17 results each. \
              No tiles, batch join or tombstones, so it is the control that must not move when \
              those layers change.",
    },
    Workload {
        name: "hotspot",
        input: Input::Points("gaussian:h10"),
        points: 12_000,
        ticks: 25,
        inputs: 16,
        technique: "grid:inline@tilesauto@par2",
        threads: 2,
        oracle: "rtree:str@par2",
        why: "Skew makes the tile layer the subject: ~10 density-sized tiles a tick, each with \
              its own index fork (~11 MB in all), on the 2-worker mini-join pool, with ~180 \
              results per probe.",
    },
    Workload {
        name: "churn",
        input: Input::Points("churn:uniform"),
        points: 50_000,
        ticks: 28,
        inputs: 24,
        technique: "twolayer",
        threads: 1,
        oracle: "grid:inline@par2",
        why: "Batch join plus write path: ~430k pairs a tick materialised before folding, \
              ~1,000 departures and arrivals a tick, tombstones from 9% to 40% of slots over a \
              28-tick segment.",
    },
    Workload {
        name: "rects",
        input: Input::Rects,
        points: 50_000,
        ticks: 25,
        inputs: 4,
        technique: "grid:inline",
        threads: 1,
        oracle: "twolayer@par2",
        why: "The same grid through the separate extent tick loop: reference-corner storage, \
              max-extent query expansion and the SIMD overlap kernel, ~18 results per probe.",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
    /// Neither: a count that describes the input (its identity, or the
    /// selectivity it asks of a probe) rather than the code, and must read
    /// the same on every commit. BENCHMARK.json, whose metrics all have a
    /// direction, leaves these out; `--trace 1` prints them.
    Exact,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
            Better::Exact => "exact",
        }
    }
}

/// An end-to-end metric: what a user of the join would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The timing bounds are near the largest allowed, well above the
/// seed-to-seed spreads measured on a shared 2-core VM (interquartile
/// range over median of ten runs, at the reference speed of
/// [`crate::speed`]): 0.02–0.06, and up to 0.11 for churn's
/// `queries_per_s`, whose slow ticks depend on the input. As measured,
/// without the scale, the same runs spread by up to 0.22, as a
/// neighbour's load slows the whole machine by 10–50% for minutes at a
/// time. Set-up time, the easiest place to hide moved work, gets the
/// largest bound. The heap peak depends only on the input (0.02–0.05 from
/// seed to seed on churn and hotspot).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "tick_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.24,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.24,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "heap_peak_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// The layer a per-layer metric reads, which decides where it is n/a.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Measured for every technique.
    Any,
    /// Only index techniques build and probe a `SpatialIndex`.
    Index,
    /// Only partitioned runs report scheduler load.
    Pool,
    /// Only batch techniques hand the driver a pair buffer.
    Batch,
}

/// A per-layer metric from the traced run: a mean per measured tick
/// unless its unit says otherwise.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: Layer,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, l: Layer) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer: l,
    }
}

use Better::{Exact, Higher, Lower};
use Layer::{Any, Batch, Index, Pool};

/// Probes and results are exact for an untiled index (one probe per
/// querier, one result per pair). Under tiling a querier is probed in
/// every tile its region reaches, over replicated rows, so both count
/// work a better partitioning saves: lower is better, and the oracle
/// check keeps the join itself fixed.
pub const PER_LAYER: [PerLayer; 28] = [
    layer("driver.build_ms", "ms", Lower, Any),
    layer("driver.query_ms", "ms", Lower, Any),
    layer("driver.update_ms", "ms", Lower, Any),
    layer("driver.untimed_ms", "ms", Lower, Any),
    layer("workload.plan_ms", "ms", Lower, Any),
    layer("workload.advance_ms", "ms", Lower, Any),
    layer("workload.init_s", "s", Lower, Any),
    layer("workload.queriers", "count", Exact, Any),
    layer("workload.updates", "count", Exact, Any),
    layer("workload.removals", "count", Exact, Any),
    layer("workload.inserts", "count", Exact, Any),
    layer("table.apply_ms", "ms", Lower, Any),
    layer("table.live_rows", "count", Exact, Any),
    layer("table.dead_frac", "ratio", Lower, Any),
    layer("index.build_share", "ratio", Lower, Index),
    layer("index.rows_built", "count", Lower, Index),
    layer("index.probes", "count", Lower, Index),
    layer("index.results", "count", Lower, Index),
    layer("index.results_per_probe", "count", Exact, Index),
    layer("index.mb", "MB", Lower, Index),
    layer("tile.count", "count", Lower, Index),
    layer("tile.replication", "ratio", Lower, Index),
    layer("tile.partition_ms", "ms", Lower, Any),
    layer("tile.imbalance", "ratio", Lower, Pool),
    layer("tile.occupancy", "ratio", Higher, Pool),
    layer("batch.pairs", "count", Exact, Batch),
    layer("batch.pair_bytes_mb", "MB", Exact, Batch),
    layer("trace.overhead", "ratio", Lower, Any),
];
