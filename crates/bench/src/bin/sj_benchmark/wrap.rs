//! Pass-through wrappers around the registry objects, timing each layer
//! from outside at its trait boundary.
//!
//! [`Clocked`] wraps a workload. Untraced, it takes exactly two clock reads
//! per tick, on entry to and return from `plan_tick`, which mark the tick
//! window: a tick runs from the return of `plan_tick(t)` to the call of
//! `plan_tick(t + 1)` (or to the return of the run for the last tick). The
//! window covers build, prepare, query, update and the driver's
//! bookkeeping, and leaves out only the input generator's planning, so work
//! moved into the driver's untimed `prepare` step still counts.
//!
//! With a [`Tracer`] attached, `Clocked` also records the workload's spans
//! and [`TracedIndex`] wraps the technique's index to record builds and
//! count probes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sj_core::{
    EntryId, ExtentTable, ExtentTickActions, ExtentWorkload, MovingExtentSet, MovingSet,
    PointTable, Rect, SpatialIndex, TickActions, Workload,
};

use crate::clock;
use crate::trace::Tracer;

/// The clock reads of one driver run, in tick order.
#[derive(Debug)]
pub struct TickRecorder {
    warmup: u32,
    /// When each `plan_tick` was called.
    pub plan_enter: Vec<Instant>,
    /// When each `plan_tick` returned.
    pub plan_exit: Vec<Instant>,
    /// The `init` call, recorded when traced.
    pub init: Option<(Instant, Instant)>,
    tracer: Option<Arc<Tracer>>,
}

impl TickRecorder {
    fn new(warmup: u32, tracer: Option<Arc<Tracer>>) -> TickRecorder {
        TickRecorder {
            warmup,
            plan_enter: Vec::new(),
            plan_exit: Vec::new(),
            init: None,
            tracer,
        }
    }

    pub fn warmup(&self) -> usize {
        self.warmup as usize
    }

    /// The end of the warm-up: when the first measured tick was planned.
    pub fn warm_at(&self) -> Option<Instant> {
        self.plan_enter.get(self.warmup()).copied()
    }

    /// The measured tick windows; `end` is when the run returned.
    pub fn windows(&self, end: Instant) -> Vec<Duration> {
        (self.warmup()..self.plan_exit.len())
            .map(|t| {
                let next = self.plan_enter.get(t + 1).copied().unwrap_or(end);
                next - self.plan_exit[t]
            })
            .collect()
    }

    fn init<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if self.tracer.is_none() {
            return f();
        }
        let t0 = clock::now();
        let out = f();
        self.init = Some((t0, clock::now()));
        out
    }

    fn plan(&mut self, tick: u32, live: usize, slots: usize, f: impl FnOnce()) {
        let t0 = clock::now();
        f();
        let t1 = clock::now();
        self.plan_enter.push(t0);
        self.plan_exit.push(t1);
        if let Some(tracer) = &self.tracer {
            tracer.begin_tick(tick, tick >= self.warmup);
            tracer.span("workload.plan", t0, t1);
            tracer.count_table(live, slots);
        }
    }

    fn advance(&self, f: impl FnOnce()) {
        match &self.tracer {
            None => f(),
            Some(tracer) => {
                let t0 = clock::now();
                f();
                tracer.span("workload.advance", t0, clock::now());
            }
        }
    }
}

/// A workload (point or extent) behind the tick clock.
pub struct Clocked<W: ?Sized> {
    inner: Box<W>,
    pub rec: TickRecorder,
}

impl<W: ?Sized> Clocked<W> {
    pub fn new(inner: Box<W>, warmup: u32, tracer: Option<Arc<Tracer>>) -> Clocked<W> {
        Clocked {
            inner,
            rec: TickRecorder::new(warmup, tracer),
        }
    }
}

impl Workload for Clocked<dyn Workload> {
    fn space(&self) -> Rect {
        self.inner.space()
    }

    fn query_side(&self) -> f32 {
        self.inner.query_side()
    }

    fn init(&mut self) -> MovingSet {
        let inner = &mut self.inner;
        self.rec.init(|| inner.init())
    }

    fn plan_tick(&mut self, tick: u32, set: &MovingSet, actions: &mut TickActions) {
        let inner = &mut self.inner;
        self.rec.plan(tick, set.live_len(), set.len(), || {
            inner.plan_tick(tick, set, actions)
        });
    }

    fn advance(&mut self, set: &mut MovingSet) {
        let inner = &mut self.inner;
        self.rec.advance(|| inner.advance(set));
    }
}

impl ExtentWorkload for Clocked<dyn ExtentWorkload> {
    fn space(&self) -> Rect {
        self.inner.space()
    }

    fn init(&mut self) -> MovingExtentSet {
        let inner = &mut self.inner;
        self.rec.init(|| inner.init())
    }

    fn plan_tick(&mut self, tick: u32, set: &MovingExtentSet, actions: &mut ExtentTickActions) {
        let inner = &mut self.inner;
        self.rec.plan(tick, set.live_len(), set.len(), || {
            inner.plan_tick(tick, set, actions)
        });
    }

    fn advance(&mut self, set: &mut MovingExtentSet) {
        let inner = &mut self.inner;
        self.rec.advance(|| inner.advance(set));
    }
}

/// A traced fork of a technique's index. Its own forks (one per tile) are
/// traced too, so tiled builds show up as one `index.build` span per tile
/// on whichever pool thread ran it.
pub struct TracedIndex {
    inner: Box<dyn SpatialIndex + Send + Sync>,
    tracer: Arc<Tracer>,
}

impl TracedIndex {
    pub fn new(inner: Box<dyn SpatialIndex + Send + Sync>, tracer: Arc<Tracer>) -> TracedIndex {
        TracedIndex { inner, tracer }
    }

    fn probe_with(
        &self,
        emit: &mut dyn FnMut(EntryId),
        probe: impl FnOnce(&mut dyn FnMut(EntryId)),
    ) {
        let mut results = 0u64;
        probe(&mut |id| {
            results += 1;
            emit(id);
        });
        self.tracer.count_probe(results);
    }
}

impl SpatialIndex for TracedIndex {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build(&mut self, table: &PointTable) {
        let t0 = clock::now();
        self.inner.build(table);
        self.tracer.span("index.build", t0, clock::now());
        self.tracer.count_build(table.live_len());
    }

    fn for_each_in(&self, table: &PointTable, region: &Rect, emit: &mut dyn FnMut(EntryId)) {
        self.probe_with(emit, |sink| self.inner.for_each_in(table, region, sink));
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn supports_intersect(&self) -> bool {
        self.inner.supports_intersect()
    }

    fn build_extents(&mut self, table: &ExtentTable) {
        let t0 = clock::now();
        self.inner.build_extents(table);
        self.tracer.span("index.build", t0, clock::now());
        self.tracer.count_build(table.live_len());
    }

    fn for_each_intersecting(
        &self,
        table: &ExtentTable,
        region: &Rect,
        emit: &mut dyn FnMut(EntryId),
    ) {
        self.probe_with(emit, |sink| {
            self.inner.for_each_intersecting(table, region, sink)
        });
    }

    fn fork(&self) -> Box<dyn SpatialIndex + Send + Sync> {
        Box::new(TracedIndex::new(
            self.inner.fork(),
            Arc::clone(&self.tracer),
        ))
    }
}
