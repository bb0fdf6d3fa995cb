//! `sj_benchmark` — the end-to-end and per-layer benchmark of the iterated
//! spatial join, as described by `BENCHMARK.json` at the repository root.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/sj_benchmark/Cargo.toml -- \
//!     --seed 42 [--workload NAME]... [--seconds S] [--trace 0|1] [--spans FILE]
//! cargo test -p sj-bench --bin sj_benchmark
//! ```
//!
//! The directory is a package of its own (its `Cargo.toml`, which the
//! command above builds) and, unchanged, sj-bench's auto-discovered
//! `sj_benchmark` binary, through which the workspace builds, lints and
//! tests it.
//!
//! It drives the real program through its public entry points only:
//! `TechniqueSpec::parse(..).build(..)`, `Technique::run` /
//! `Technique::run_intersect`, and for the traced run
//! `sj_core::driver::run_join` / `run_intersect_join` with the wrappers of
//! [`wrap`]. Every layer is timed from outside, at those trait boundaries.
//!
//! # Workloads
//!
//! Four workloads at Table 1's defaults (22k² space, query side 400, max
//! speed 200, 50% queriers, 50% updaters) unless noted; see
//! [`workloads::WORKLOADS`] for why each is here:
//!
//! | workload  | input                          | technique                    | oracle             | segments      |
//! |-----------|--------------------------------|------------------------------|--------------------|---------------|
//! | `uniform` | `uniform` self-join, 50k       | `grid:inline`                | `rtree:str@par2`   | 4 × 25 ticks  |
//! | `hotspot` | `gaussian:h10` self-join, 12k  | `grid:inline@tilesauto@par2` | `rtree:str@par2`   | 16 × 25 ticks |
//! | `churn`   | `churn:uniform` self-join, 50k | `twolayer`                   | `grid:inline@par2` | 24 × 28 ticks |
//! | `rects`   | `intersect:rects`, 50k         | `grid:inline`                | `twolayer@par2`    | 4 × 25 ticks  |
//!
//! # Run shape
//!
//! The loop is closed: a tick starts when the previous one ends, as in a
//! simulation loop. A workload runs segments of [`WARMUP`] warm-up ticks
//! plus its own count of measured ticks, each with a freshly built
//! technique and workload. Segments cycle through the workload's inputs,
//! derived from `--seed` (the first is the seed itself), so the same seed
//! always gives the same inputs, and no metric hinges on a single draw of
//! hotspots. `churn` runs longer segments, as the table never compacts and
//! tombstones pile up over a segment: from 9% of the slots at the first
//! measured tick to 40% at the last. Longer still would cover fewer
//! inputs in a run, and churn's throughput and heap peak steady only over
//! many inputs (see the tail below). A
//! workload runs one segment per input and then more, cycling through the
//! inputs, until their measured ticks add up to `--seconds`. With several
//! workloads the segments are interleaved round-robin, so a slow stretch of
//! a shared machine lands on every workload instead of one. One process, at
//! most two threads (`hotspot` pins a pool of 2 workers).
//!
//! Each input's join is first computed by the workload's oracle, an
//! independent technique, and every segment's (pairs, checksum) must equal
//! the oracle's for its input.
//!
//! # Metrics
//!
//! A tick's latency runs from the return of `plan_tick(t)` to the call of
//! `plan_tick(t + 1)`, or to the return of the run for the last tick. It
//! covers build, prepare, query, update and driver bookkeeping, and leaves
//! out only the input generator's planning.
//!
//! Every timing metric is reported at the reference speed: each segment's
//! timings are scaled by [`speed::REFERENCE_MS`] over the time a fixed
//! reference join of the benchmark's own took just before and after it, so
//! that a shared machine's slow stretches cancel (see [`speed`]). The
//! `wall` line prints the same timings as measured, with the reference
//! join's time.
//!
//! The end-to-end metrics (their regression bounds are in
//! [`workloads::END_TO_END`] and `--help`):
//!
//! - `tick_p50_ms`: nearest-rank median of all measured tick latencies;
//! - `queries_per_s`: queries answered over the summed latency, so slow
//!   ticks weigh in by their length;
//! - `setup_s`: segment start (building the technique and the workload) to
//!   the first measured tick, so `init` and the warm-up ticks; median over
//!   segments;
//! - `heap_peak_mb`: peak heap bytes a segment allocates, counted by the
//!   benchmark's global allocator; mean over segments.
//!
//! The tail (p90, p97, p99) is printed but not tracked, since on `churn` no
//! tail percentile is steady from seed to seed. There `twolayer` sizes its
//! cell grid to the live count, which random-walks by a few hundred rows
//! over a segment, and factors the cell count exactly: a prime count gives
//! a grid of 1 × N strips that makes a tick 2.5–4× slower. How many ticks
//! land on such counts depends on the input, so churn's p90 and p99 spread
//! by up to 50% over ten seeds (interquartile range over median, at the
//! reference speed), against at most 15% on the other workloads. The
//! same slow ticks make churn's `queries_per_s` the input-bound metric that
//! sets how many segments churn runs.
//!
//! # Tracing
//!
//! `--trace 1` alternates untraced and traced segments, asserts that both
//! compute the oracle's join, and reports the per-layer metrics of
//! [`workloads::PER_LAYER`] as means per measured tick of the traced
//! segments, plus `trace.overhead` (traced ÷ untraced mean tick). See
//! [`trace`] for the span tree; `--spans FILE` writes it as JSON lines.
//!
//! The last line of standard output is one JSON object per workload:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, with
//! the end-to-end metrics, or the per-layer ones under `--trace 1`.

mod clock;
mod heap;
mod host;
mod speed;
mod stats;
mod trace;
mod workloads;
mod wrap;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use sj_core::driver::{run_intersect_join, run_join};
use sj_core::rng::mix64;
use sj_core::{DriverConfig, RunStats, TechniqueSpec};
use sj_workload::{JoinSpec, WorkloadParams, WorkloadSpec};

use stats::{median, percentile, ratio};
use trace::{LayerSample, SpanLine, Tracer};
use workloads::{Better, Input, Layer, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use wrap::{Clocked, TracedIndex};

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

/// Warm-up ticks per segment, excluded from the tick metrics.
const WARMUP: u32 = 5;
/// Table 1's space side, at each workload's own population.
const SPACE_SIDE: f32 = 22_000.0;
/// Default measuring time per workload.
const DEFAULT_SECONDS: f64 = 10.0;

/// The seed of input `i` of a run: the run's seed itself, then
/// decorrelated variants of it.
fn input_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        seed ^ mix64(i as u64)
    }
}

/// The shape of one segment.
#[derive(Clone, Copy, Debug)]
struct Shape {
    warmup: u32,
    /// Measured ticks override; the workload's own count otherwise.
    ticks: Option<u32>,
    /// Population override; the space shrinks with it to keep density.
    points: Option<u32>,
}

const FULL: Shape = Shape {
    warmup: WARMUP,
    ticks: None,
    points: None,
};

/// One driver run over a fresh technique and workload.
struct Segment {
    /// Which of the run's inputs it ran.
    input: usize,
    /// Segment start to the end of warm-up.
    setup: Duration,
    /// Measured tick latencies.
    windows: Vec<Duration>,
    stats: RunStats,
    heap_peak: usize,
    /// What puts the segment's timings at the reference speed (see
    /// [`speed`]); 1 for segments timed without reference joins around them.
    scale: f64,
    trace: Option<(LayerSample, Vec<SpanLine>)>,
}

impl Segment {
    fn join(&self) -> (u64, u64) {
        (self.stats.result_pairs, self.stats.checksum)
    }
}

fn run_segment(
    w: &Workload,
    technique: &str,
    (seed, input): (u64, usize),
    shape: Shape,
    traced: bool,
) -> Segment {
    let points = shape.points.unwrap_or(w.points);
    let space_side = SPACE_SIDE * (points as f32 / w.points as f32).sqrt();
    let params = WorkloadParams {
        num_points: points,
        space_side,
        seed: input_seed(seed, input),
        ..WorkloadParams::default()
    };
    let tracer = traced.then(|| Arc::new(Tracer::default()));

    let heap_base = heap::reset_peak();
    let start = clock::now();
    let mut tech = TechniqueSpec::parse(technique)
        .expect("the workload table names registry technique specs")
        .build(space_side);
    let ticks = shape.ticks.unwrap_or(w.ticks);
    let cfg = DriverConfig::new(ticks, shape.warmup).with_exec(tech.exec());
    // The traced index wraps a fork of the technique's own index, so it
    // has the registry's configuration.
    let index = tracer
        .as_ref()
        .and_then(|t| Some(TracedIndex::new(tech.as_index()?.fork(), Arc::clone(t))));
    let (stats, rec) = match w.input {
        Input::Points(spec) => {
            let inner = WorkloadSpec::parse(spec)
                .expect("the workload table names registry workload specs")
                .build(params);
            let mut workload = Clocked::new(inner, shape.warmup, tracer.clone());
            let stats = match index {
                Some(mut index) => run_join(&mut workload, &mut index, cfg),
                None => tech.run(&mut workload, cfg),
            };
            (stats, workload.rec)
        }
        Input::Rects => {
            let inner = JoinSpec::Intersect
                .build_extents(params)
                .expect("intersect:rects is the extent join shape");
            let mut workload = Clocked::new(inner, shape.warmup, tracer.clone());
            let stats = match index {
                Some(mut index) => run_intersect_join(&mut workload, &mut index, cfg),
                None => tech.run_intersect(&mut workload, cfg),
            };
            (stats, workload.rec)
        }
    };
    let end = clock::now();
    let heap_peak = heap::peak().saturating_sub(heap_base);

    Segment {
        input,
        setup: rec.warm_at().unwrap_or(end) - start,
        windows: rec.windows(end),
        trace: tracer.map(|t| trace::assemble(&t, &rec, &stats, tech.is_batch(), (start, end))),
        stats,
        heap_peak,
        scale: 1.0,
    }
}

/// Everything one workload ran in an invocation.
struct Run {
    w: &'static Workload,
    seed: u64,
    /// The oracle's (pairs, checksum) over one segment's ticks, per input.
    oracle: Vec<(u64, u64)>,
    untraced: Vec<Segment>,
    traced: Vec<Segment>,
    /// Segments whose join differed from the oracle's, or traced segments
    /// whose join differed from their untraced twin's.
    failed: usize,
    reference: speed::Reference,
    /// The reference times measured after the last untraced segment, which
    /// also precede the next one.
    last_block: Vec<f64>,
}

impl Run {
    fn new(w: &'static Workload, seed: u64, shape: Shape) -> Run {
        Run {
            w,
            seed,
            oracle: (0..w.inputs)
                .map(|i| run_segment(w, w.oracle, (seed, i), shape, false).join())
                .collect(),
            untraced: Vec::new(),
            traced: Vec::new(),
            failed: 0,
            reference: speed::Reference::new(
                shape.points.unwrap_or(speed::REFERENCE_POINTS),
                w.threads,
            ),
            last_block: Vec::new(),
        }
    }

    fn measured(&self) -> Duration {
        self.untraced
            .iter()
            .chain(&self.traced)
            .flat_map(|s| &s.windows)
            .sum()
    }

    fn attempted(&self) -> usize {
        self.untraced.len() + self.traced.len()
    }

    /// Run one more segment on the next input, or one untraced-traced
    /// pair when tracing.
    fn step(&mut self, shape: Shape, trace: bool) {
        let input = (self.seed, self.untraced.len() % self.w.inputs);
        let oracle = self.oracle[input.1];
        let before = match std::mem::take(&mut self.last_block) {
            block if block.is_empty() => self.reference.block(),
            block => block,
        };
        let mut seg = run_segment(self.w, self.w.technique, input, shape, false);
        self.last_block = self.reference.block();
        seg.scale = speed::scale(&before, &self.last_block);
        self.failed += usize::from(seg.join() != oracle);
        if trace {
            let traced = run_segment(self.w, self.w.technique, input, shape, true);
            self.failed += usize::from(traced.join() != oracle || traced.join() != seg.join());
            self.traced.push(traced);
        }
        self.untraced.push(seg);
    }

    /// The measured tick latencies of the untraced segments, in ms, at the
    /// reference speed if `scaled` and as measured otherwise.
    fn tick_ms(&self, scaled: bool) -> Vec<f64> {
        self.untraced
            .iter()
            .flat_map(|s| {
                let k = if scaled { s.scale } else { 1.0 };
                s.windows.iter().map(move |&d| clock::ms(d) * k)
            })
            .collect()
    }

    /// Median tick latency (ms), queries per second of summed tick latency
    /// and median set-up time (s) of the untraced segments, at the
    /// reference speed if `scaled` and as measured otherwise.
    fn timings(&self, scaled: bool) -> [f64; 3] {
        let k = |s: &Segment| if scaled { s.scale } else { 1.0 };
        let busy: f64 = self
            .untraced
            .iter()
            .map(|s| s.windows.iter().sum::<Duration>().as_secs_f64() * k(s))
            .sum();
        let queries: u64 = self.untraced.iter().map(|s| s.stats.queries).sum();
        let setups: Vec<f64> = self
            .untraced
            .iter()
            .map(|s| s.setup.as_secs_f64() * k(s))
            .collect();
        [
            percentile(&self.tick_ms(scaled), 50.0),
            ratio(queries as f64, busy),
            median(&setups),
        ]
    }

    fn end_to_end(&self) -> Vec<f64> {
        let [p50, queries_per_s, setup] = self.timings(true);
        // A mean, not a median: an input's peak is exact, and a few inputs
        // (churn's strip-shaped cell grids) need several MB more, so the
        // median would jump between the two levels from seed to seed.
        let heap: usize = self.untraced.iter().map(|s| s.heap_peak).sum();
        let values = [
            ("tick_p50_ms", p50),
            ("queries_per_s", queries_per_s),
            ("setup_s", setup),
            (
                "heap_peak_mb",
                ratio(heap as f64 / 1e6, self.untraced.len() as f64),
            ),
        ];
        END_TO_END.iter().map(|m| lookup(&values, m.name)).collect()
    }

    /// Means of the traced segments' per-layer values, plus the tracing
    /// overhead, in [`PER_LAYER`] order.
    fn per_layer(&self) -> Vec<f64> {
        let mean_tick = |segs: &[Segment]| {
            let total: Duration = segs.iter().flat_map(|s| &s.windows).sum();
            let n: usize = segs.iter().map(|s| s.windows.len()).sum();
            ratio(total.as_secs_f64(), n as f64)
        };
        let overhead = ratio(mean_tick(&self.traced), mean_tick(&self.untraced));
        let samples: Vec<&LayerSample> = self
            .traced
            .iter()
            .filter_map(|s| s.trace.as_ref().map(|t| &t.0))
            .collect();
        PER_LAYER
            .iter()
            .map(|m| match m.name {
                "trace.overhead" => overhead,
                name => {
                    let values: Vec<f64> = samples.iter().map(|s| lookup(s, name)).collect();
                    ratio(values.iter().sum(), values.len() as f64)
                }
            })
            .collect()
    }
}

fn lookup(values: &[(&'static str, f64)], name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("no value computed for metric {name}"))
}

/// Run every workload, round-robin, one segment per input and then more,
/// cycling through the inputs, until each has measured `seconds`.
fn run_all(
    chosen: &[&'static Workload],
    seed: u64,
    seconds: f64,
    shape: Shape,
    trace: bool,
) -> Vec<Run> {
    let budget = Duration::from_secs_f64(seconds);
    let mut runs: Vec<Run> = chosen.iter().map(|&w| Run::new(w, seed, shape)).collect();
    loop {
        let mut ran = false;
        for run in &mut runs {
            if run.untraced.len() < run.w.inputs || run.measured() < budget {
                run.step(shape, trace);
                ran = true;
            }
        }
        if !ran {
            return runs;
        }
    }
}

/// The result object the last line of output carries.
fn result_json(run: &Run, metrics: &[(&str, &str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.failed == 0,
        run.attempted(),
        run.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}

/// The human-readable report of one workload, then its result object.
fn report(run: &Run, trace: bool) -> (String, String) {
    let w = run.w;
    let mut out = String::new();
    let mut line = |text: String| {
        out.push_str(&text);
        out.push('\n');
    };
    let input = match w.input {
        Input::Points(spec) => format!("{spec} self-join"),
        Input::Rects => "intersect:rects".to_string(),
    };
    line(format!(
        "# {}: {input}, {} points, technique {}, oracle {}, segments of {WARMUP} warm-up + {} measured ticks over {} inputs",
        w.name, w.points, w.technique, w.oracle, w.ticks, w.inputs
    ));
    // Input identity: what each input asks of the join, per segment.
    for seg in run.untraced.iter().take(w.inputs) {
        let s = &seg.stats;
        line(format!(
            "{} input {} seed={} queries={} updates={} removals={} inserts={} pairs={} checksum={:#x}",
            w.name,
            seg.input,
            input_seed(run.seed, seg.input),
            s.queries,
            s.updates,
            s.removals,
            s.inserts,
            s.result_pairs,
            s.checksum
        ));
    }
    line(format!(
        "{} check segments={} failed={} failed_frac={}",
        w.name,
        run.attempted(),
        run.failed,
        ratio(run.failed as f64, run.attempted() as f64),
    ));
    let metrics: Vec<(&str, &str, f64)> = if trace {
        let is_batch = TechniqueSpec::parse(w.technique).is_ok_and(|s| s.is_batch());
        let pooled = run.untraced[0].stats.tile_load.is_some();
        PER_LAYER
            .iter()
            .zip(run.per_layer())
            .map(|(m, v)| {
                let used = match m.layer {
                    Layer::Any => true,
                    Layer::Index => !is_batch,
                    Layer::Batch => is_batch,
                    Layer::Pool => pooled,
                };
                let shown = if used {
                    v.to_string()
                } else {
                    "n/a".to_string()
                };
                let exact = if m.better == Better::Exact {
                    " exact"
                } else {
                    ""
                };
                line(format!("{} {} {shown} {}{exact}", w.name, m.name, m.unit));
                (m, v)
            })
            // The result object carries the metrics BENCHMARK.json lists.
            .filter(|(m, _)| m.better != Better::Exact)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect()
    } else {
        let ms = run.tick_ms(true);
        line(format!(
            "{} samples segments={} ticks={}",
            w.name,
            run.untraced.len(),
            ms.len()
        ));
        // As measured, without the scale to the reference speed.
        let [p50, queries_per_s, setup] = run.timings(false);
        let scales: Vec<f64> = run.untraced.iter().map(|s| s.scale).collect();
        line(format!(
            "{} wall tick_p50_ms={p50} queries_per_s={queries_per_s} setup_s={setup} reference_ms={}",
            w.name,
            speed::REFERENCE_MS / median(&scales)
        ));
        // Printed, not tracked: see the module docs.
        line(format!(
            "{} tail p90={} p97={} p99={} ms",
            w.name,
            percentile(&ms, 90.0),
            percentile(&ms, 97.0),
            percentile(&ms, 99.0)
        ));
        END_TO_END
            .iter()
            .zip(run.end_to_end())
            .map(|(m, v)| {
                line(format!("{} {} {v} {}", w.name, m.name, m.unit));
                (m.name, m.unit, v)
            })
            .collect()
    };
    (out, result_json(run, &metrics))
}

struct Opts {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn usage() -> String {
    let mut s = format!(
        "sj_benchmark — end-to-end and per-layer benchmark of the iterated spatial join\n\n\
         usage: sj_benchmark [--seed N] [--workload NAME]... [--seconds S] [--trace 0|1] [--spans FILE]\n\n\
         --seed N        the run's inputs derive from it (default 42)\n\
         --workload NAME run only this workload (repeatable; default all four, interleaved)\n\
         --seconds S     measured tick time per workload (default {DEFAULT_SECONDS})\n\
         --trace 0|1     1: alternate untraced and traced segments, report per-layer metrics\n\
         --spans FILE    with --trace 1, write the span tree as JSON lines to FILE\n\n\
         A segment builds the technique and the workload, runs {WARMUP} warm-up and the\n\
         workload's measured ticks in a closed loop, and must compute the oracle\n\
         technique's join. Segments cycle through the workload's inputs, drawn from the\n\
         seed: one per input, then more until --seconds of ticks are measured. A tick's\n\
         latency runs from the return of plan_tick(t) to the call of plan_tick(t + 1).\n\
         Timings are reported at the reference speed: scaled by {} ms over the time of\n\
         a fixed reference join run before and after each segment; the `wall` line\n\
         gives them as measured.\n\nworkloads:\n",
        speed::REFERENCE_MS,
    );
    for w in &WORKLOADS {
        writeln!(
            s,
            "  {:<8} {} (oracle {}), {} x {} ticks: {}",
            w.name, w.technique, w.oracle, w.inputs, w.ticks, w.why
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str(
        "\nend-to-end metrics (bound: how far a metric may worsen; the tick tail, p90/p97/p99,\n\
         is printed but not tracked, as it moves with the input on churn):\n",
    );
    for m in &END_TO_END {
        writeln!(
            s,
            "  {:<14} {:<4} {} is better, bound {}%",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str(
        "\nper-layer metrics (--trace 1; means per measured tick; exact ones describe the\n\
         input and are not in BENCHMARK.json):\n",
    );
    for m in &PER_LAYER {
        let better = match m.better {
            Better::Exact => "exact".to_string(),
            b => format!("{} is better", b.as_str()),
        };
        writeln!(s, "  {:<24} {:<6} {better}", m.name, m.unit)
            .expect("writing to a String cannot fail");
    }
    s
}

/// Parse the command line; `Ok(None)` asks for the usage text.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Opts>, String> {
    let mut opts = Opts {
        workloads: Vec::new(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        spans: None,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value (try --help)"))?;
        let bad = || format!("bad value {value:?} for {flag} (try --help)");
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name == value).ok_or_else(bad)?;
                if !opts.workloads.iter().any(|o| o.name == w.name) {
                    opts.workloads.push(w);
                }
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans" => opts.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument: {flag} (try --help)")),
        }
    }
    if opts.spans.is_some() && !opts.trace {
        return Err("--spans needs --trace 1".to_string());
    }
    if opts.workloads.is_empty() {
        opts.workloads = WORKLOADS.iter().collect();
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("sj_benchmark: {msg}");
            return ExitCode::from(2);
        }
    };
    let nproc = host::nproc();
    println!(
        "# sj_benchmark seed={} seconds={} trace={} nproc={nproc} simd={} cpu=\"{}\"",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        host::simd_level(),
        host::cpu_model()
    );
    println!("# segment: {WARMUP} warm-up + the workload's measured ticks, closed loop");
    if nproc < 2 {
        eprintln!(
            "sj_benchmark: warning: {nproc} CPU available; hotspot pins 2 pool workers, \
             so its timings include time-slicing"
        );
    }

    let runs = run_all(&opts.workloads, opts.seed, opts.seconds, FULL, opts.trace);

    let mut results = Vec::new();
    for run in &runs {
        let (text, json) = report(run, opts.trace);
        print!("{text}");
        results.push(json);
    }
    if let Some(path) = &opts.spans {
        let mut lines = String::new();
        for run in &runs {
            for (k, seg) in run.traced.iter().enumerate() {
                let spans = seg.trace.as_ref().map_or(&[][..], |t| &t.1[..]);
                for (id, span) in spans.iter().enumerate() {
                    lines.push_str(&span.json(run.w.name, k, id));
                    lines.push('\n');
                }
            }
        }
        if let Err(e) = std::fs::write(path, lines) {
            eprintln!("sj_benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    for json in &results {
        println!("{json}");
    }
    if runs.iter().all(|r| r.failed == 0) {
        ExitCode::SUCCESS
    } else {
        eprintln!("sj_benchmark: a segment's join differed from the oracle's");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_bench::json::Json;

    const TINY: Shape = Shape {
        warmup: 1,
        ticks: Some(2),
        points: Some(500),
    };

    /// Every workload at tiny scale, through the untraced, traced and
    /// oracle paths: one cycle over the inputs, segments of 2 measured
    /// ticks on 500 points.
    #[test]
    fn every_workload_agrees_with_its_oracle_traced_and_untraced() {
        let chosen: Vec<&'static Workload> = WORKLOADS.iter().collect();
        let runs = run_all(&chosen, 7, 0.0, TINY, true);
        for run in &runs {
            let name = run.w.name;
            let inputs = run.w.inputs;
            assert_eq!(run.failed, 0, "{name}: join differs from the oracle");
            assert_eq!(
                (run.untraced.len(), run.traced.len()),
                (inputs, inputs),
                "{name}"
            );
            assert!(run.oracle.iter().all(|o| o.0 > 0), "{name}: no pairs");
            for seg in run.untraced.iter().chain(&run.traced) {
                assert_eq!(seg.join(), run.oracle[seg.input], "{name}");
                assert_eq!(seg.windows.len(), 2, "{name}");
                assert!(seg.heap_peak > 0, "{name}");
            }
            // Untraced segments are timed between reference joins.
            for seg in &run.untraced {
                assert!(seg.scale.is_finite() && seg.scale > 0.0, "{name}");
            }
            let spans = &run.traced[0].trace.as_ref().expect("traced segment").1;
            let ticks = spans.iter().filter(|s| s.name == "tick").count();
            assert_eq!(ticks, 2, "{name}: one tick span per measured tick");

            for trace in [false, true] {
                let (text, json) = report(run, trace);
                let doc = Json::parse(&json).expect("the result line is valid JSON");
                assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
                assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
                assert_eq!(
                    doc.get("attempted").and_then(Json::as_u64),
                    Some(2 * inputs as u64)
                );
                let expect: Vec<&str> = if trace {
                    PER_LAYER
                        .iter()
                        .filter(|m| m.better != Better::Exact)
                        .map(|m| m.name)
                        .collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                    panic!("{name}: no metrics object in {json}");
                };
                let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(got, expect, "{name}");
                for (k, v) in metrics {
                    assert!(
                        v.get("value").and_then(Json::as_f64).is_some(),
                        "{name} {k}"
                    );
                    assert!(text.contains(&format!("{name} {k} ")), "{name} {k}");
                }
                if trace {
                    // The exact counts are printed, though not in the result.
                    for m in PER_LAYER.iter().filter(|m| m.better == Better::Exact) {
                        assert!(text.contains(&format!("{name} {} ", m.name)), "{name}");
                    }
                }
            }
        }
        // Layers report work where they are used and nothing elsewhere.
        let hotspot = runs.iter().find(|r| r.w.name == "hotspot").expect("ran");
        let layer = hotspot.per_layer();
        let at = |name: &str| {
            layer[PER_LAYER
                .iter()
                .position(|m| m.name == name)
                .expect("metric")]
        };
        assert!(at("tile.count") >= 1.0);
        assert!(at("index.probes") > 0.0);
        let churn = runs.iter().find(|r| r.w.name == "churn").expect("ran");
        let layer = churn.per_layer();
        let at = |name: &str| {
            layer[PER_LAYER
                .iter()
                .position(|m| m.name == name)
                .expect("metric")]
        };
        assert!(at("batch.pairs") > 0.0);
        assert_eq!(at("index.probes"), 0.0);
    }

    #[test]
    fn segments_that_miss_the_oracle_count_as_failed() {
        let mut run = Run::new(&WORKLOADS[0], 3, TINY);
        // Corrupt the oracle of input 1 only: of four segments (inputs
        // 0, 1, 2, 3) exactly one misses.
        run.oracle[1].1 ^= 1;
        for _ in 0..4 {
            run.step(TINY, false);
        }
        assert_eq!((run.failed, run.attempted()), (1, 4));
        let (text, json) = report(&run, false);
        assert!(text.contains("failed=1 failed_frac=0.25"), "{text}");
        let doc = Json::parse(&json).expect("the result line is valid JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json is valid JSON");
        let Json::Obj(fields) = &doc else {
            panic!("BENCHMARK.json is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| doc.get(key).and_then(Json::as_array).expect(key);
        let str_of =
            |v: &Json, key: &str| v.get(key).and_then(Json::as_str).expect(key).to_string();

        // The benchmark's directory is the one this file is in, and the
        // command builds the package of its own there.
        let paths: Vec<&str> = list("paths").iter().filter_map(Json::as_str).collect();
        assert_eq!(paths, ["crates/bench/src/bin/sj_benchmark"]);
        let here = file!().replace('\\', "/");
        assert_eq!(here, format!("{}/main.rs", paths[0]));
        let command: Vec<&str> = list("command").iter().filter_map(Json::as_str).collect();
        assert!(command.contains(&"crates/bench/src/bin/sj_benchmark/Cargo.toml"));

        let names: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(names, ours);

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(str_of(j, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        // Every metric with a direction, in order; exact counts have none.
        let layers = list("per_layer");
        let ours: Vec<_> = PER_LAYER
            .iter()
            .filter(|m| m.better != Better::Exact)
            .collect();
        assert_eq!(layers.len(), ours.len());
        for (j, m) in layers.iter().zip(ours) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(str_of(j, "better"), m.better.as_str(), "{}", m.name);
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        let opts = parse(&[
            "--workload",
            "churn",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid")
        .expect("not help");
        assert_eq!(opts.workloads.len(), 1);
        assert_eq!((opts.seed, opts.seconds, opts.trace), (7, 10.0, true));
        assert_eq!(
            parse(&[])
                .expect("valid")
                .expect("not help")
                .workloads
                .len(),
            4
        );
        assert!(parse(&["--help"]).expect("valid").is_none());
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "-1"],
            &["--seconds", "NaN"],
            &["--trace", "2"],
            &["--spans", "x.jsonl"],
            &["--frobnicate", "1"],
            &["--seed"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
