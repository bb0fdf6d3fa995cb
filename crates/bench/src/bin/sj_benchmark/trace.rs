//! Outside-in tracing for the per-layer metrics.
//!
//! The benchmark's wrappers ([`crate::wrap`]) record spans at the trait
//! boundaries they sit on: `workload.plan` and `workload.advance` around
//! the [`Workload`](sj_core::Workload) calls, and `index.build` around
//! every [`SpatialIndex`](sj_core::SpatialIndex) build, one per tile on
//! the pool threads. Probes are too many for spans (~25k a tick), so they
//! bump counters instead. The driver's phases are not observable from
//! outside while they run; [`assemble`] places them afterwards from the
//! durations in `RunStats::ticks`, between the recorded plan calls, and
//! builds the span tree:
//!
//! ```text
//! tick
//! ├── workload.plan
//! ├── driver.build
//! │   └── index.build      (one per tile, possibly overlapping)
//! ├── driver.query
//! └── driver.update
//!     └── workload.advance
//! ```
//!
//! Spans are kept in memory and written as JSON lines at exit.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use sj_core::RunStats;

use crate::clock;
use crate::stats::{ratio, self_time};
use crate::wrap::TickRecorder;

/// One recorded span, before the tree is assembled.
#[derive(Clone, Copy, Debug)]
struct RawSpan {
    name: &'static str,
    tick: u32,
    start: Instant,
    end: Instant,
    thread: ThreadId,
}

/// Shared recording state of one traced segment. Shared by the workload
/// wrapper and every index fork, which may run on pool threads, hence the
/// atomics; all of them are statistics (relaxed ordering publishes
/// nothing else).
#[derive(Debug, Default)]
pub struct Tracer {
    tick: AtomicU32,
    measuring: AtomicBool,
    spans: Mutex<Vec<RawSpan>>,
    rows_built: AtomicU64,
    probes: AtomicU64,
    results: AtomicU64,
    live_rows: AtomicU64,
    slots: AtomicU64,
}

impl Tracer {
    /// Mark the start of tick `tick`; counters only accumulate while
    /// `measuring` (warm-up ticks are excluded like the driver excludes
    /// them).
    pub fn begin_tick(&self, tick: u32, measuring: bool) {
        self.tick.store(tick, Ordering::Relaxed);
        self.measuring.store(measuring, Ordering::Relaxed);
    }

    fn measuring(&self) -> bool {
        self.measuring.load(Ordering::Relaxed)
    }

    /// Record a span of the current tick on the calling thread.
    pub fn span(&self, name: &'static str, start: Instant, end: Instant) {
        let span = RawSpan {
            name,
            tick: self.tick.load(Ordering::Relaxed),
            start,
            end,
            thread: thread::current().id(),
        };
        self.spans
            .lock()
            .expect("span recording never panics while holding the lock")
            .push(span);
    }

    /// Count one index build over `rows` live rows.
    pub fn count_build(&self, rows: usize) {
        if self.measuring() {
            self.rows_built.fetch_add(rows as u64, Ordering::Relaxed);
        }
    }

    /// Count one probe that emitted `results` rows.
    pub fn count_probe(&self, results: u64) {
        if self.measuring() {
            self.probes.fetch_add(1, Ordering::Relaxed);
            self.results.fetch_add(results, Ordering::Relaxed);
        }
    }

    /// Count the table the tick is planned over.
    pub fn count_table(&self, live: usize, slots: usize) {
        if self.measuring() {
            self.live_rows.fetch_add(live as u64, Ordering::Relaxed);
            self.slots.fetch_add(slots as u64, Ordering::Relaxed);
        }
    }

    fn counter(c: &AtomicU64) -> f64 {
        c.load(Ordering::Relaxed) as f64
    }
}

/// Per-layer values of one traced segment, by metric name.
pub type LayerSample = Vec<(&'static str, f64)>;

/// One line of the span file.
#[derive(Clone, Debug)]
pub struct SpanLine {
    pub name: &'static str,
    tick: Option<u32>,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    thread: usize,
}

impl SpanLine {
    /// The span as a JSON object; `id` is its line number within the
    /// segment, which `parent` refers to.
    pub fn json(&self, workload: &str, segment: usize, id: usize) -> String {
        let mut s = format!(
            "{{\"workload\":\"{workload}\",\"segment\":{segment},\"id\":{id},\"name\":\"{}\",",
            self.name
        );
        match self.tick {
            Some(t) => write!(s, "\"tick\":{t},"),
            None => write!(s, "\"tick\":null,"),
        }
        .expect("writing to a String cannot fail");
        write!(
            s,
            "\"start_us\":{},\"end_us\":{},\"parent\":{},\"thread\":{}}}",
            self.start_us,
            self.end_us,
            self.parent.map_or("null".to_string(), |p| p.to_string()),
            self.thread
        )
        .expect("writing to a String cannot fail");
        s
    }
}

/// Builds the span list, numbering threads in order of appearance (0 is
/// the driver thread) and times relative to the segment's start.
struct Tree {
    epoch: Instant,
    threads: Vec<ThreadId>,
    lines: Vec<SpanLine>,
}

impl Tree {
    fn push(
        &mut self,
        name: &'static str,
        tick: Option<u32>,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        thread: ThreadId,
    ) -> usize {
        let thread = match self.threads.iter().position(|&t| t == thread) {
            Some(i) => i,
            None => {
                self.threads.push(thread);
                self.threads.len() - 1
            }
        };
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.lines.push(SpanLine {
            name,
            tick,
            start_us: us(start),
            end_us: us(end),
            parent,
            thread,
        });
        self.lines.len() - 1
    }
}

/// Assemble the span tree of a traced segment and compute its per-layer
/// values (means per measured tick). `start` is when the segment began and
/// `end` when the driver's run returned.
pub fn assemble(
    tracer: &Tracer,
    rec: &TickRecorder,
    stats: &RunStats,
    is_batch: bool,
    (start, end): (Instant, Instant),
) -> (LayerSample, Vec<SpanLine>) {
    let spans = tracer
        .spans
        .lock()
        .expect("the traced run has ended, so no thread holds the span lock")
        .clone();
    let driver_thread = thread::current().id();
    let mut tree = Tree {
        epoch: start,
        threads: vec![driver_thread],
        lines: Vec::new(),
    };
    if let Some(init) = rec.init {
        tree.push("workload.init", None, init, None, driver_thread);
    }

    let warmup = rec.warmup();
    let n = stats.ticks.len();
    let (mut plan, mut advance, mut apply, mut partition) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let (mut build_busy, mut untimed) = (Duration::ZERO, Duration::ZERO);
    let mut builds = 0usize;
    for (m, phases) in stats.ticks.iter().enumerate() {
        let t = warmup + m;
        let tick = u32::try_from(t).expect("tick ids fit the driver's u32 tick counter");
        let (plan_start, window_start) = (rec.plan_enter[t], rec.plan_exit[t]);
        let window_end = rec.plan_enter.get(t + 1).copied().unwrap_or(end);
        let of = |name: &'static str| {
            spans
                .iter()
                .filter(move |s| s.tick == tick && s.name == name)
                .copied()
        };

        let root = tree.push(
            "tick",
            Some(tick),
            (plan_start, window_end),
            None,
            driver_thread,
        );
        tree.push(
            "workload.plan",
            Some(tick),
            (plan_start, window_start),
            Some(root),
            driver_thread,
        );
        plan += window_start - plan_start;

        // The phases run back to back: build right after the plan, update
        // right before the next plan, query right before the update. The
        // gap between build and query is the driver's untimed `prepare`.
        let build = (window_start, window_start + phases.build);
        let update = (window_end - phases.update, window_end);
        let query = (update.0 - phases.query, update.0);
        let build_id = tree.push("driver.build", Some(tick), build, Some(root), driver_thread);
        let mut tiles = Vec::new();
        for s in of("index.build") {
            tree.push(
                s.name,
                Some(tick),
                (s.start, s.end),
                Some(build_id),
                s.thread,
            );
            build_busy += s.end - s.start;
            tiles.push((s.start, s.end));
        }
        builds += tiles.len();
        partition += self_time(build, &tiles);
        tree.push("driver.query", Some(tick), query, Some(root), driver_thread);
        let update_id = tree.push(
            "driver.update",
            Some(tick),
            update,
            Some(root),
            driver_thread,
        );
        let mut advanced = Duration::ZERO;
        for s in of("workload.advance") {
            tree.push(
                s.name,
                Some(tick),
                (s.start, s.end),
                Some(update_id),
                s.thread,
            );
            advanced += s.end - s.start;
        }
        advance += advanced;
        apply += phases.update.saturating_sub(advanced);
        untimed += (window_end - window_start).saturating_sub(phases.total());
    }

    let ticks = n as f64;
    let per_tick_ms = |d: Duration| ratio(clock::ms(d), ticks);
    let per_tick = |x: f64| ratio(x, ticks);
    let phase_ms = |f: fn(&sj_core::TickTimes) -> Duration| {
        per_tick_ms(stats.ticks.iter().map(f).sum::<Duration>())
    };
    let build_total: Duration = stats.ticks.iter().map(|t| t.build).sum();
    let live = Tracer::counter(&tracer.live_rows);
    let slots = Tracer::counter(&tracer.slots);
    let rows_built = Tracer::counter(&tracer.rows_built);
    let (probes, results) = (
        Tracer::counter(&tracer.probes),
        Tracer::counter(&tracer.results),
    );
    let load = stats.tile_load.unwrap_or_default();
    let batch_pairs = if is_batch {
        per_tick(stats.result_pairs as f64)
    } else {
        0.0
    };
    let init_s = rec.init.map_or(0.0, |(a, b)| (b - a).as_secs_f64());

    let sample = vec![
        ("driver.build_ms", phase_ms(|t| t.build)),
        ("driver.query_ms", phase_ms(|t| t.query)),
        ("driver.update_ms", phase_ms(|t| t.update)),
        ("driver.untimed_ms", per_tick_ms(untimed)),
        ("workload.plan_ms", per_tick_ms(plan)),
        ("workload.advance_ms", per_tick_ms(advance)),
        ("workload.init_s", init_s),
        ("workload.queriers", per_tick(stats.queries as f64)),
        ("workload.updates", per_tick(stats.updates as f64)),
        ("workload.removals", per_tick(stats.removals as f64)),
        ("workload.inserts", per_tick(stats.inserts as f64)),
        ("table.apply_ms", per_tick_ms(apply)),
        ("table.live_rows", per_tick(live)),
        ("table.dead_frac", ratio(slots - live, slots)),
        (
            "index.build_share",
            ratio(build_busy.as_secs_f64(), build_total.as_secs_f64()),
        ),
        ("index.rows_built", per_tick(rows_built)),
        ("index.probes", per_tick(probes)),
        ("index.results", per_tick(results)),
        ("index.results_per_probe", ratio(results, probes)),
        ("index.mb", stats.index_bytes as f64 / 1e6),
        ("tile.count", per_tick(builds as f64)),
        ("tile.replication", ratio(rows_built, live)),
        ("tile.partition_ms", per_tick_ms(partition)),
        ("tile.imbalance", load.imbalance),
        ("tile.occupancy", load.occupancy),
        ("batch.pairs", batch_pairs),
        ("batch.pair_bytes_mb", batch_pairs * 8.0 / 1e6),
    ];
    (sample, tree.lines)
}
