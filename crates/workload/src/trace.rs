//! Workload trace recording and replay.
//!
//! The original framework also drives its joins from *simulation traces*
//! (the paper reports the synthetic results only, noting the trends hold
//! for the simulation workloads). This module provides the plumbing a
//! trace-driven setup needs: record any [`Workload`]'s initial population
//! and per-tick actions once, persist them in a compact binary format,
//! and replay them bit-identically — across processes, machines, or
//! implementations under comparison.
//!
//! A trace stores velocities, velocity updates, and the churn plan
//! (departure ids and arrival positions/velocities — format v2), not
//! per-tick positions, so replay relies on the *default* movement model
//! (linear motion with boundary bounce — what the uniform and Gaussian
//! workloads use; the road grid's custom mobility is not replayable).
//! Recording verifies this assumption by checksumming the final live
//! object positions and embedding the checksum in the trace;
//! [`TraceWorkload`] re-derives it on replay in tests.
//!
//! Format v3 adds **bipartite** traces: a second, nested relation section
//! holding the query relation R's initial state and per-tick plan
//! ([`Trace::query_rel`], recorded by [`record_bipartite`]). A
//! self-join trace serializes exactly as v2 — v3 bytes only appear when a
//! query relation is present.
//!
//! Format v4 is a **separate trace type** for extent workloads
//! ([`ExtentTrace`], magic `SJTRACE4`): rectangles instead of points, the
//! same per-tick sections with rectangle arrivals. Extent rectangles are
//! validated with [`Rect::try_new`] on load, so a corrupted or
//! hand-edited trace with an inverted rectangle is rejected as
//! `InvalidData` instead of tripping a debug-only assert downstream.
//!
//! Every length prefix is untrusted: readers reserve at most 65,536
//! elements up front and grow as elements arrive, so a truncated or
//! hostile file ends in `UnexpectedEof` rather than one huge allocation.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use sj_base::driver::{ExtentTickActions, ExtentWorkload, TickActions, Workload};
use sj_base::geom::{Point, Rect, Vec2};
use sj_base::rng::mix64;
use sj_base::table::{EntryId, MovingExtentSet, MovingSet};

/// Current format: v3 adds an optional nested query-relation section
/// (bipartite R ⋈ S traces). Only written when that section is present.
const MAGIC_V3: &[u8; 8] = b"SJTRACE3";
/// v2 adds per-tick churn sections (removals + inserts); still the format
/// written for self-join traces, so v2 consumers keep working.
const MAGIC_V2: &[u8; 8] = b"SJTRACE2";
/// Extent (rectangle) traces — a distinct trace type, never mixed with
/// the point formats: an `SJTRACE4` file deserializes only to
/// [`ExtentTrace`] and vice versa.
const MAGIC_V4: &[u8; 8] = b"SJTRACE4";

/// The most elements a reader reserves for a length prefix before any of
/// them has been read.
const MAX_PREALLOC: usize = 1 << 16;

/// Read a length prefix: the element count, and a `Vec` with capacity for
/// at most [`MAX_PREALLOC`] of them.
fn read_len<R: Read, T>(r: &mut R) -> io::Result<(usize, Vec<T>)> {
    let n = read_u32(r)? as usize;
    Ok((n, Vec::with_capacity(n.min(MAX_PREALLOC))))
}

/// A fully materialized workload: initial state plus every tick's actions.
///
/// ```
/// use sj_workload::{record, Trace, TraceWorkload, UniformWorkload, WorkloadParams};
///
/// let params = WorkloadParams { num_points: 100, ..WorkloadParams::default() };
/// let trace = record(&mut UniformWorkload::new(params), 3);
///
/// // Serialize and restore bit-identically.
/// let mut buf = Vec::new();
/// trace.write_to(&mut buf).unwrap();
/// let restored = Trace::read_from(buf.as_slice()).unwrap();
/// assert_eq!(restored, trace);
/// let _replayable = TraceWorkload::new(restored);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    pub space_side: f32,
    pub query_side: f32,
    /// Initial positions and velocities, SoA.
    pub init_x: Vec<f32>,
    pub init_y: Vec<f32>,
    pub init_vx: Vec<f32>,
    pub init_vy: Vec<f32>,
    /// Per tick: querier ids and velocity updates.
    pub ticks: Vec<TickActions>,
    /// Checksum of the final positions after replaying all ticks with the
    /// default movement model; guards against replaying a trace of a
    /// workload whose movement model was not the default.
    pub final_positions_checksum: u64,
    /// The query relation R of a bipartite R ⋈ S trace (format v3): a
    /// nested self-shaped trace holding R's initial state, per-tick plan
    /// (queriers, updates, churn), and final-position checksum. `None`
    /// for self-join traces — which therefore serialize exactly as v2.
    /// The nested trace never nests further.
    pub query_rel: Option<Box<Trace>>,
}

fn positions_checksum(set: &MovingSet) -> u64 {
    let mut sum = 0u64;
    for (_, p) in set.positions.iter() {
        sum = sum.wrapping_add(mix64(((p.x.to_bits() as u64) << 32) | p.y.to_bits() as u64));
    }
    sum
}

impl Trace {
    /// Serialize to a writer: the v2 format for a self-join trace, v3
    /// (one extra nested relation section) when [`Trace::query_rel`] is
    /// present — so pre-bipartite consumers keep reading every self-join
    /// trace byte for byte.
    pub fn write_to<W: Write>(&self, w: W) -> io::Result<()> {
        let mut w = BufWriter::new(w);
        match &self.query_rel {
            None => {
                w.write_all(MAGIC_V2)?;
                self.write_body(&mut w)?;
            }
            Some(r) => {
                debug_assert!(r.query_rel.is_none(), "query relation traces never nest");
                w.write_all(MAGIC_V3)?;
                self.write_body(&mut w)?;
                r.write_body(&mut w)?;
            }
        }
        w.flush()
    }

    /// Everything after the magic header, in the v2 layout (one relation).
    fn write_body<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write_f32(w, self.space_side)?;
        write_f32(w, self.query_side)?;
        write_u32(w, self.init_x.len() as u32)?;
        for col in [&self.init_x, &self.init_y, &self.init_vx, &self.init_vy] {
            for &v in col.iter() {
                write_f32(w, v)?;
            }
        }
        write_u32(w, self.ticks.len() as u32)?;
        for t in &self.ticks {
            write_u32(w, t.queriers.len() as u32)?;
            for &q in &t.queriers {
                write_u32(w, q)?;
            }
            write_u32(w, t.velocity_updates.len() as u32)?;
            for &(id, vx, vy) in &t.velocity_updates {
                write_u32(w, id)?;
                write_f32(w, vx)?;
                write_f32(w, vy)?;
            }
            write_u32(w, t.removals.len() as u32)?;
            for &id in &t.removals {
                write_u32(w, id)?;
            }
            write_u32(w, t.inserts.len() as u32)?;
            for &(p, v) in &t.inserts {
                write_f32(w, p.x)?;
                write_f32(w, p.y)?;
                write_f32(w, v.x)?;
                write_f32(w, v.y)?;
            }
        }
        write_u64(w, self.final_positions_checksum)
    }

    /// Deserialize from a reader (the v2 or v3 format).
    ///
    /// # Errors
    /// I/O errors, a bad magic header, or truncated data.
    pub fn read_from<R: Read>(r: R) -> io::Result<Trace> {
        let mut r = BufReader::new(r);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        let query_rel_section = match &magic {
            m if m == MAGIC_V3 => true,
            m if m == MAGIC_V2 => false,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "not an SJTRACE file",
                ))
            }
        };
        let mut trace = Self::read_body(&mut r)?;
        if query_rel_section {
            trace.query_rel = Some(Box::new(Self::read_body(&mut r)?));
        }
        Ok(trace)
    }

    /// One relation section in the v2 layout (`query_rel` left `None`).
    fn read_body<R: Read>(r: &mut R) -> io::Result<Trace> {
        let space_side = read_f32(r)?;
        let query_side = read_f32(r)?;
        let n = read_u32(r)? as usize;
        let mut cols: [Vec<f32>; 4] = Default::default();
        for col in cols.iter_mut() {
            col.reserve(n.min(MAX_PREALLOC));
            for _ in 0..n {
                col.push(read_f32(r)?);
            }
        }
        let [init_x, init_y, init_vx, init_vy] = cols;
        let (tick_count, mut ticks) = read_len(r)?;
        for _ in 0..tick_count {
            let (nq, mut queriers) = read_len(r)?;
            for _ in 0..nq {
                queriers.push(read_u32(r)?);
            }
            let (nu, mut velocity_updates) = read_len(r)?;
            for _ in 0..nu {
                let id = read_u32(r)?;
                let vx = read_f32(r)?;
                let vy = read_f32(r)?;
                velocity_updates.push((id, vx, vy));
            }
            let (nr, mut removals) = read_len(r)?;
            for _ in 0..nr {
                removals.push(read_u32(r)?);
            }
            let (ni, mut inserts) = read_len(r)?;
            for _ in 0..ni {
                let px = read_f32(r)?;
                let py = read_f32(r)?;
                let vx = read_f32(r)?;
                let vy = read_f32(r)?;
                inserts.push((Point::new(px, py), Vec2::new(vx, vy)));
            }
            ticks.push(TickActions {
                queriers,
                velocity_updates,
                removals,
                inserts,
            });
        }
        let final_positions_checksum = read_u64(r)?;
        Ok(Trace {
            space_side,
            query_side,
            init_x,
            init_y,
            init_vx,
            init_vy,
            ticks,
            final_positions_checksum,
            query_rel: None,
        })
    }

    /// Convenience wrapper over [`Trace::write_to`] for a filesystem path.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        self.write_to(std::fs::File::create(path)?)
    }

    /// Convenience wrapper over [`Trace::read_from`] for a filesystem path.
    pub fn load(path: &Path) -> io::Result<Trace> {
        Self::read_from(std::fs::File::open(path)?)
    }

    pub fn num_points(&self) -> usize {
        self.init_x.len()
    }

    pub fn num_ticks(&self) -> usize {
        self.ticks.len()
    }

    /// Whether this trace records a bipartite R ⋈ S run (format v3).
    pub fn is_bipartite(&self) -> bool {
        self.query_rel.is_some()
    }

    /// Split a bipartite trace into its `(query relation R, data relation
    /// S)` halves — two self-shaped traces, each replayable through
    /// [`TraceWorkload`] and rejoinable with
    /// `sj_base::driver::run_bipartite_join`. `None` for self-join traces.
    pub fn split_bipartite(self) -> Option<(Trace, Trace)> {
        let mut s = self;
        let r = *s.query_rel.take()?;
        Some((r, s))
    }
}

/// Record a workload into a [`Trace`]. Free function (rather than a
/// `Trace` constructor) so the borrow of the workload is obvious.
pub fn record<W: Workload + ?Sized>(workload: &mut W, ticks: u32) -> Trace {
    let space_side = workload.space().x2;
    let query_side = workload.query_side();
    let mut set = workload.init();

    let init_x = set.positions.xs().to_vec();
    let init_y = set.positions.ys().to_vec();
    let init_vx = set.vx.clone();
    let init_vy = set.vy.clone();

    let mut recorded = Vec::with_capacity(ticks as usize);
    let mut actions = TickActions::default();
    for tick in 0..ticks {
        actions.clear();
        workload.plan_tick(tick, &set, &mut actions);
        recorded.push(actions.clone());
        // The driver's canonical update-phase application, shared so the
        // embedded checksum cannot drift from what replay produces.
        actions.apply(&mut set, workload);
    }
    Trace {
        space_side,
        query_side,
        init_x,
        init_y,
        init_vx,
        init_vy,
        ticks: recorded,
        final_positions_checksum: positions_checksum(&set),
        query_rel: None,
    }
}

/// Record a bipartite R ⋈ S run into a single (format v3) [`Trace`]: the
/// data relation S fills the top-level sections, the query relation R the
/// nested [`Trace::query_rel`] section. Both relations are planned and
/// applied in the driver's order (S first, then R — see
/// `sj_base::driver::run_bipartite_join`); S's planned queriers are
/// dropped, exactly as the driver drops them, so a replay through
/// [`Trace::split_bipartite`] reproduces the recorded run bit for bit.
pub fn record_bipartite<R: Workload + ?Sized, S: Workload + ?Sized>(
    query_workload: &mut R,
    data_workload: &mut S,
    ticks: u32,
) -> Trace {
    let mut s_trace = record_relation(data_workload, ticks, true);
    let r_trace = record_relation(query_workload, ticks, false);
    s_trace.query_rel = Some(Box::new(r_trace));
    s_trace
}

/// [`record`] with the driver's bipartite querier policy applied: the data
/// relation never queries.
fn record_relation<W: Workload + ?Sized>(
    workload: &mut W,
    ticks: u32,
    drop_queriers: bool,
) -> Trace {
    let mut trace = record(workload, ticks);
    if drop_queriers {
        for t in &mut trace.ticks {
            t.queriers.clear();
        }
    }
    trace
}

/// Replays a [`Trace`] through the standard [`Workload`] interface.
pub struct TraceWorkload {
    trace: Trace,
    cursor: usize,
}

impl TraceWorkload {
    pub fn new(trace: Trace) -> Self {
        TraceWorkload { trace, cursor: 0 }
    }

    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Checksum of `set`'s positions — equals the trace's embedded value
    /// after all recorded ticks have been replayed with the default
    /// movement model.
    pub fn checksum_positions(set: &MovingSet) -> u64 {
        positions_checksum(set)
    }
}

impl Workload for TraceWorkload {
    fn space(&self) -> Rect {
        Rect::space(self.trace.space_side)
    }

    fn query_side(&self) -> f32 {
        self.trace.query_side
    }

    fn init(&mut self) -> MovingSet {
        self.cursor = 0;
        let n = self.trace.num_points();
        let mut set = MovingSet::with_capacity(n);
        for i in 0..n {
            set.push(
                Point::new(self.trace.init_x[i], self.trace.init_y[i]),
                Vec2::new(self.trace.init_vx[i], self.trace.init_vy[i]),
            );
        }
        set
    }

    fn plan_tick(&mut self, _tick: u32, _set: &MovingSet, actions: &mut TickActions) {
        if let Some(recorded) = self.trace.ticks.get(self.cursor) {
            actions.queriers.extend_from_slice(&recorded.queriers);
            actions
                .velocity_updates
                .extend_from_slice(&recorded.velocity_updates);
            actions.removals.extend_from_slice(&recorded.removals);
            actions.inserts.extend_from_slice(&recorded.inserts);
        }
        // Past the end of the trace: quiet ticks (no queries, no updates).
        self.cursor += 1;
    }
}

/// A fully materialized **extent** workload (format v4): initial
/// rectangles and velocities plus every tick's actions. The extent
/// analogue of [`Trace`]; replay goes through [`ExtentTraceWorkload`]
/// and the default extent movement model
/// ([`MovingExtentSet::advance_bouncing`]).
///
/// ```
/// use sj_workload::{record_extents, ExtentTrace, RectsWorkload, WorkloadParams};
///
/// let params = WorkloadParams { num_points: 100, ..WorkloadParams::default() };
/// let trace = record_extents(&mut RectsWorkload::new(params), 3);
/// let mut buf = Vec::new();
/// trace.write_to(&mut buf).unwrap();
/// assert_eq!(ExtentTrace::read_from(buf.as_slice()).unwrap(), trace);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ExtentTrace {
    pub space_side: f32,
    /// Initial rectangles and velocities, SoA.
    pub init_x1: Vec<f32>,
    pub init_y1: Vec<f32>,
    pub init_x2: Vec<f32>,
    pub init_y2: Vec<f32>,
    pub init_vx: Vec<f32>,
    pub init_vy: Vec<f32>,
    /// Per tick: querier ids, velocity updates, and churn.
    pub ticks: Vec<ExtentTickActions>,
    /// Checksum of the final live rectangles after replaying all ticks
    /// with the default extent movement model (see
    /// [`Trace::final_positions_checksum`]).
    pub final_extents_checksum: u64,
}

fn extents_checksum(set: &MovingExtentSet) -> u64 {
    let mut sum = 0u64;
    for (_, r) in set.extents.iter() {
        sum = sum
            .wrapping_add(mix64(
                ((r.x1.to_bits() as u64) << 32) | r.y1.to_bits() as u64,
            ))
            .wrapping_add(mix64(
                ((r.x2.to_bits() as u64) << 32) | r.y2.to_bits() as u64,
            ));
    }
    sum
}

/// A rectangle read from untrusted trace bytes: [`Rect::try_new`]
/// rejects inverted or NaN corners as `InvalidData`.
fn read_rect<R: Read>(r: &mut R) -> io::Result<Rect> {
    let x1 = read_f32(r)?;
    let y1 = read_f32(r)?;
    let x2 = read_f32(r)?;
    let y2 = read_f32(r)?;
    Rect::try_new(x1, y1, x2, y2).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed rectangle in trace: ({x1}, {y1})–({x2}, {y2})"),
        )
    })
}

impl ExtentTrace {
    /// Serialize to a writer (always format v4).
    pub fn write_to<W: Write>(&self, w: W) -> io::Result<()> {
        let mut w = BufWriter::new(w);
        w.write_all(MAGIC_V4)?;
        write_f32(&mut w, self.space_side)?;
        write_u32(&mut w, self.init_x1.len() as u32)?;
        for col in [
            &self.init_x1,
            &self.init_y1,
            &self.init_x2,
            &self.init_y2,
            &self.init_vx,
            &self.init_vy,
        ] {
            for &v in col.iter() {
                write_f32(&mut w, v)?;
            }
        }
        write_u32(&mut w, self.ticks.len() as u32)?;
        for t in &self.ticks {
            write_u32(&mut w, t.queriers.len() as u32)?;
            for &q in &t.queriers {
                write_u32(&mut w, q)?;
            }
            write_u32(&mut w, t.velocity_updates.len() as u32)?;
            for &(id, vx, vy) in &t.velocity_updates {
                write_u32(&mut w, id)?;
                write_f32(&mut w, vx)?;
                write_f32(&mut w, vy)?;
            }
            write_u32(&mut w, t.removals.len() as u32)?;
            for &id in &t.removals {
                write_u32(&mut w, id)?;
            }
            write_u32(&mut w, t.inserts.len() as u32)?;
            for &(r, v) in &t.inserts {
                write_f32(&mut w, r.x1)?;
                write_f32(&mut w, r.y1)?;
                write_f32(&mut w, r.x2)?;
                write_f32(&mut w, r.y2)?;
                write_f32(&mut w, v.x)?;
                write_f32(&mut w, v.y)?;
            }
        }
        write_u64(&mut w, self.final_extents_checksum)?;
        w.flush()
    }

    /// Deserialize from a reader. Every rectangle — initial rows and
    /// arrivals — passes through [`Rect::try_new`].
    ///
    /// # Errors
    /// I/O errors, a bad magic header (including the point-trace magics:
    /// the formats never cross), truncated data, or a malformed
    /// rectangle.
    pub fn read_from<R: Read>(r: R) -> io::Result<ExtentTrace> {
        let mut r = BufReader::new(r);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC_V4 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an SJTRACE4 extent-trace file",
            ));
        }
        let space_side = read_f32(&mut r)?;
        let n = read_u32(&mut r)? as usize;
        let mut cols: [Vec<f32>; 6] = Default::default();
        for col in cols.iter_mut() {
            col.reserve(n.min(MAX_PREALLOC));
            for _ in 0..n {
                col.push(read_f32(&mut r)?);
            }
        }
        let [init_x1, init_y1, init_x2, init_y2, init_vx, init_vy] = cols;
        for i in 0..n {
            if Rect::try_new(init_x1[i], init_y1[i], init_x2[i], init_y2[i]).is_none() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed rectangle in trace at row {i}"),
                ));
            }
        }
        let (tick_count, mut ticks) = read_len(&mut r)?;
        for _ in 0..tick_count {
            let (nq, mut queriers) = read_len(&mut r)?;
            for _ in 0..nq {
                queriers.push(read_u32(&mut r)?);
            }
            let (nu, mut velocity_updates) = read_len(&mut r)?;
            for _ in 0..nu {
                let id = read_u32(&mut r)?;
                let vx = read_f32(&mut r)?;
                let vy = read_f32(&mut r)?;
                velocity_updates.push((id, vx, vy));
            }
            let (nr, mut removals) = read_len(&mut r)?;
            for _ in 0..nr {
                removals.push(read_u32(&mut r)?);
            }
            let (ni, mut inserts) = read_len(&mut r)?;
            for _ in 0..ni {
                let rect = read_rect(&mut r)?;
                let vx = read_f32(&mut r)?;
                let vy = read_f32(&mut r)?;
                inserts.push((rect, Vec2::new(vx, vy)));
            }
            ticks.push(ExtentTickActions {
                queriers,
                velocity_updates,
                removals,
                inserts,
            });
        }
        let final_extents_checksum = read_u64(&mut r)?;
        Ok(ExtentTrace {
            space_side,
            init_x1,
            init_y1,
            init_x2,
            init_y2,
            init_vx,
            init_vy,
            ticks,
            final_extents_checksum,
        })
    }

    /// Convenience wrapper over [`ExtentTrace::write_to`] for a path.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        self.write_to(std::fs::File::create(path)?)
    }

    /// Convenience wrapper over [`ExtentTrace::read_from`] for a path.
    pub fn load(path: &Path) -> io::Result<ExtentTrace> {
        Self::read_from(std::fs::File::open(path)?)
    }

    pub fn num_rects(&self) -> usize {
        self.init_x1.len()
    }

    pub fn num_ticks(&self) -> usize {
        self.ticks.len()
    }
}

/// Record an extent workload into an [`ExtentTrace`] — the extent
/// analogue of [`record`].
pub fn record_extents<W: ExtentWorkload + ?Sized>(workload: &mut W, ticks: u32) -> ExtentTrace {
    let space_side = workload.space().x2;
    let mut set = workload.init();

    let init_x1 = set.extents.x1s().to_vec();
    let init_y1 = set.extents.y1s().to_vec();
    let init_x2 = set.extents.x2s().to_vec();
    let init_y2 = set.extents.y2s().to_vec();
    let init_vx = set.vx.clone();
    let init_vy = set.vy.clone();

    let mut recorded = Vec::with_capacity(ticks as usize);
    let mut actions = ExtentTickActions::default();
    for tick in 0..ticks {
        actions.clear();
        workload.plan_tick(tick, &set, &mut actions);
        recorded.push(actions.clone());
        actions.apply(&mut set, workload);
    }
    ExtentTrace {
        space_side,
        init_x1,
        init_y1,
        init_x2,
        init_y2,
        init_vx,
        init_vy,
        ticks: recorded,
        final_extents_checksum: extents_checksum(&set),
    }
}

/// Replays an [`ExtentTrace`] through the standard [`ExtentWorkload`]
/// interface.
pub struct ExtentTraceWorkload {
    trace: ExtentTrace,
    cursor: usize,
}

impl ExtentTraceWorkload {
    pub fn new(trace: ExtentTrace) -> Self {
        ExtentTraceWorkload { trace, cursor: 0 }
    }

    pub fn trace(&self) -> &ExtentTrace {
        &self.trace
    }

    /// Checksum of `set`'s live rectangles — equals the trace's embedded
    /// value after all recorded ticks replay with the default movement
    /// model.
    pub fn checksum_extents(set: &MovingExtentSet) -> u64 {
        extents_checksum(set)
    }
}

impl ExtentWorkload for ExtentTraceWorkload {
    fn space(&self) -> Rect {
        Rect::space(self.trace.space_side)
    }

    fn init(&mut self) -> MovingExtentSet {
        self.cursor = 0;
        let n = self.trace.num_rects();
        let mut set = MovingExtentSet::with_capacity(n);
        for i in 0..n {
            set.push(
                Rect::new(
                    self.trace.init_x1[i],
                    self.trace.init_y1[i],
                    self.trace.init_x2[i],
                    self.trace.init_y2[i],
                ),
                Vec2::new(self.trace.init_vx[i], self.trace.init_vy[i]),
            );
        }
        set
    }

    fn plan_tick(&mut self, _tick: u32, _set: &MovingExtentSet, actions: &mut ExtentTickActions) {
        if let Some(recorded) = self.trace.ticks.get(self.cursor) {
            actions.queriers.extend_from_slice(&recorded.queriers);
            actions
                .velocity_updates
                .extend_from_slice(&recorded.velocity_updates);
            actions.removals.extend_from_slice(&recorded.removals);
            actions.inserts.extend_from_slice(&recorded.inserts);
        }
        self.cursor += 1;
    }
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f32<W: Write>(w: &mut W, v: f32) -> io::Result<()> {
    w.write_all(&v.to_bits().to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f32<R: Read>(r: &mut R) -> io::Result<f32> {
    Ok(f32::from_bits(read_u32(r)?))
}

/// Needed because EntryId appears in TickActions; keep the type local to
/// serialization to avoid accidental widening.
#[allow(dead_code)]
fn _entry_id_is_u32(e: EntryId) -> u32 {
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{UniformWorkload, WorkloadParams};

    fn small_params() -> WorkloadParams {
        WorkloadParams {
            num_points: 500,
            ticks: 5,
            space_side: 4_000.0,
            ..WorkloadParams::default()
        }
    }

    #[test]
    fn recorded_trace_has_expected_shape() {
        let mut w = UniformWorkload::new(small_params());
        let trace = record(&mut w, 5);
        assert_eq!(trace.num_points(), 500);
        assert_eq!(trace.num_ticks(), 5);
        assert_eq!(trace.space_side, 4_000.0);
        assert_eq!(trace.query_side, 400.0);
    }

    #[test]
    fn replay_reproduces_the_final_state_checksum() {
        let mut w = UniformWorkload::new(small_params());
        let trace = record(&mut w, 5);
        let expected = trace.final_positions_checksum;

        let mut replay = TraceWorkload::new(trace);
        let mut set = replay.init();
        let mut actions = TickActions::default();
        for tick in 0..5 {
            actions.clear();
            replay.plan_tick(tick, &set, &mut actions);
            actions.apply(&mut set, &mut replay);
        }
        assert_eq!(TraceWorkload::checksum_positions(&set), expected);
    }

    #[test]
    fn serialization_roundtrips_exactly() {
        let mut w = UniformWorkload::new(small_params());
        let trace = record(&mut w, 4);
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let back = Trace::read_from(buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn churn_traces_roundtrip_and_replay_bit_identically() {
        use crate::{ChurnParams, ChurnWorkload};
        let params = small_params();
        let mut w = ChurnWorkload::new(
            Box::new(UniformWorkload::new(params)),
            ChurnParams {
                rate: 0.1,
                max_speed: params.max_speed,
                seed: params.seed,
                target_population: params.num_points,
            },
        );
        let trace = record(&mut w, 6);
        let total_removed: usize = trace.ticks.iter().map(|t| t.removals.len()).sum();
        let total_inserted: usize = trace.ticks.iter().map(|t| t.inserts.len()).sum();
        assert!(total_removed > 0, "no churn recorded");
        assert!(total_inserted > 0, "no churn recorded");

        // Serialization keeps the churn sections.
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let back = Trace::read_from(buf.as_slice()).unwrap();
        assert_eq!(back, trace);

        // Replay reproduces the recorded run's final live population.
        let expected = trace.final_positions_checksum;
        let mut replay = TraceWorkload::new(trace);
        let mut set = replay.init();
        let mut actions = TickActions::default();
        for tick in 0..6 {
            actions.clear();
            replay.plan_tick(tick, &set, &mut actions);
            actions.apply(&mut set, &mut replay);
        }
        assert_eq!(set.live_len(), 500 + total_inserted - total_removed);
        assert_eq!(TraceWorkload::checksum_positions(&set), expected);
    }

    #[test]
    fn self_join_traces_still_serialize_as_v2() {
        // Format compatibility: the v3 magic only appears for bipartite
        // traces, so every pre-existing consumer of self-join traces keeps
        // reading them unchanged.
        let mut w = UniformWorkload::new(small_params());
        let trace = record(&mut w, 2);
        assert!(!trace.is_bipartite());
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        assert_eq!(&buf[..8], MAGIC_V2);
    }

    #[test]
    fn bipartite_traces_roundtrip_as_v3() {
        let params = small_params();
        let r_params = WorkloadParams {
            num_points: 60,
            seed: 99,
            ..params
        };
        let mut r = UniformWorkload::new(r_params);
        let mut s = UniformWorkload::new(params);
        let trace = record_bipartite(&mut r, &mut s, 4);
        assert!(trace.is_bipartite());
        assert_eq!(trace.num_points(), 500, "top level holds S");
        let rel = trace.query_rel.as_deref().unwrap();
        assert_eq!(rel.num_points(), 60, "nested section holds R");
        // The data relation's queriers were dropped at record time (the
        // driver drops them too); R keeps its own.
        assert!(trace.ticks.iter().all(|t| t.queriers.is_empty()));
        assert!(rel.ticks.iter().any(|t| !t.queriers.is_empty()));

        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        assert_eq!(&buf[..8], MAGIC_V3);
        let back = Trace::read_from(buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn bipartite_trace_replay_reproduces_the_recorded_join() {
        use sj_base::driver::{run_bipartite_join, DriverConfig};
        use sj_base::index::ScanIndex;

        let params = small_params();
        let r_params = WorkloadParams {
            num_points: 80,
            seed: 123,
            ..params
        };
        // The live run.
        let live = {
            let mut r = UniformWorkload::new(r_params);
            let mut s = UniformWorkload::new(params);
            run_bipartite_join(
                &mut r,
                &mut s,
                &mut ScanIndex::new(),
                DriverConfig::new(4, 0),
            )
        };
        // Record the identical workloads, split, and replay through the
        // same driver entry point.
        let trace = {
            let mut r = UniformWorkload::new(r_params);
            let mut s = UniformWorkload::new(params);
            record_bipartite(&mut r, &mut s, 4)
        };
        let (r_half, s_half) = trace.split_bipartite().unwrap();
        let replayed = run_bipartite_join(
            &mut TraceWorkload::new(r_half),
            &mut TraceWorkload::new(s_half),
            &mut ScanIndex::new(),
            DriverConfig::new(4, 0),
        );
        assert!(live.result_pairs > 0);
        assert_eq!(replayed.result_pairs, live.result_pairs);
        assert_eq!(replayed.checksum, live.checksum);
        assert_eq!(replayed.queries, live.queries);
    }

    #[test]
    fn split_bipartite_is_none_for_self_traces() {
        let mut w = UniformWorkload::new(small_params());
        let trace = record(&mut w, 2);
        assert!(trace.split_bipartite().is_none());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = Trace::read_from(&b"NOTATRACEFILE..."[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn extent_traces_roundtrip_as_v4() {
        use crate::RectsWorkload;
        let mut w = RectsWorkload::new(small_params());
        let trace = record_extents(&mut w, 4);
        assert_eq!(trace.num_rects(), 500);
        assert_eq!(trace.num_ticks(), 4);
        assert!(trace.ticks.iter().any(|t| !t.queriers.is_empty()));
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        assert_eq!(&buf[..8], MAGIC_V4);
        let back = ExtentTrace::read_from(buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn extent_trace_replay_reproduces_the_recorded_run() {
        use crate::RectsWorkload;
        use sj_base::driver::{run_intersect_join, DriverConfig};
        use sj_base::index::ScanIndex;

        let live = run_intersect_join(
            &mut RectsWorkload::new(small_params()),
            &mut ScanIndex::new(),
            DriverConfig::new(4, 0),
        );
        let trace = record_extents(&mut RectsWorkload::new(small_params()), 4);
        let expected_checksum = trace.final_extents_checksum;
        let mut replay = ExtentTraceWorkload::new(trace);
        let replayed =
            run_intersect_join(&mut replay, &mut ScanIndex::new(), DriverConfig::new(4, 0));
        assert!(live.result_pairs > 0);
        assert_eq!(replayed.result_pairs, live.result_pairs);
        assert_eq!(replayed.checksum, live.checksum);
        assert_eq!(replayed.queries, live.queries);

        // And the embedded final-state checksum holds under manual replay.
        let mut set = replay.init();
        let mut actions = ExtentTickActions::default();
        for tick in 0..4 {
            actions.clear();
            replay.plan_tick(tick, &set, &mut actions);
            actions.apply(&mut set, &mut replay);
        }
        assert_eq!(
            ExtentTraceWorkload::checksum_extents(&set),
            expected_checksum
        );
    }

    #[test]
    fn malformed_rectangles_in_extent_traces_are_rejected_on_load() {
        // An inverted initial rectangle (x2 < x1) must fail Rect::try_new
        // at load time — not trip a debug assert downstream.
        let trace = ExtentTrace {
            space_side: 100.0,
            init_x1: vec![10.0],
            init_y1: vec![10.0],
            init_x2: vec![5.0],
            init_y2: vec![20.0],
            init_vx: vec![0.0],
            init_vy: vec![0.0],
            ticks: Vec::new(),
            final_extents_checksum: 0,
        };
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let err = ExtentTrace::read_from(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("malformed rectangle"), "{err}");
    }

    #[test]
    fn point_and_extent_trace_formats_never_cross() {
        use crate::RectsWorkload;
        let point_trace = record(&mut UniformWorkload::new(small_params()), 2);
        let mut point_bytes = Vec::new();
        point_trace.write_to(&mut point_bytes).unwrap();
        assert!(ExtentTrace::read_from(point_bytes.as_slice()).is_err());

        let extent_trace = record_extents(&mut RectsWorkload::new(small_params()), 2);
        let mut extent_bytes = Vec::new();
        extent_trace.write_to(&mut extent_bytes).unwrap();
        assert!(Trace::read_from(extent_bytes.as_slice()).is_err());
    }

    #[test]
    fn extent_trace_file_roundtrip() {
        use crate::RectsWorkload;
        let trace = record_extents(&mut RectsWorkload::new(small_params()), 3);
        let path = std::env::temp_dir().join("sj_extent_trace_test.bin");
        trace.save(&path).unwrap();
        let back = ExtentTrace::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, trace);
    }

    #[test]
    fn truncated_data_is_rejected() {
        let mut w = UniformWorkload::new(small_params());
        let trace = record(&mut w, 2);
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(Trace::read_from(buf.as_slice()).is_err());
    }

    #[test]
    fn replay_past_end_is_quiet() {
        let mut w = UniformWorkload::new(small_params());
        let trace = record(&mut w, 2);
        let mut replay = TraceWorkload::new(trace);
        let set = replay.init();
        let mut actions = TickActions::default();
        for tick in 0..4 {
            actions.clear();
            replay.plan_tick(tick, &set, &mut actions);
            if tick >= 2 {
                assert!(actions.queriers.is_empty());
                assert!(actions.velocity_updates.is_empty());
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let mut w = UniformWorkload::new(small_params());
        let trace = record(&mut w, 3);
        let path = std::env::temp_dir().join("sj_trace_test.bin");
        trace.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, trace);
    }

    /// A trace prefix: `magic`, the header floats, then `u32` fields.
    fn prefix(magic: &[u8; 8], floats: &[f32], counts: &[u32]) -> Vec<u8> {
        let mut out = magic.to_vec();
        for f in floats {
            out.extend_from_slice(&f.to_le_bytes());
        }
        for c in counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    fn assert_eof<T: std::fmt::Debug>(read: io::Result<T>, what: &str) {
        let err = read.expect_err(what);
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{what}: {err}");
    }

    const HOSTILE: u32 = u32::MAX;

    #[test]
    fn a_hostile_row_count_ends_in_eof_not_an_abort() {
        // 20 bytes: the magic, two sides, then u32::MAX rows. Reserving
        // for the claimed rows used to abort the process.
        let file = prefix(MAGIC_V2, &[100.0, 10.0], &[HOSTILE]);
        assert_eq!(file.len(), 20);
        assert_eof(Trace::read_from(file.as_slice()), "rows");
    }

    #[test]
    fn a_hostile_tick_count_ends_in_eof_not_an_abort() {
        let file = prefix(MAGIC_V2, &[100.0, 10.0], &[0, HOSTILE]);
        assert_eof(Trace::read_from(file.as_slice()), "ticks");
    }

    #[test]
    fn hostile_per_tick_section_counts_end_in_eof_not_an_abort() {
        // No rows, one tick, and the earlier sections of that tick empty.
        let sections = ["queriers", "velocity updates", "removals", "inserts"];
        for (i, what) in sections.into_iter().enumerate() {
            let mut counts = vec![0, 1];
            counts.extend(std::iter::repeat_n(0, i));
            counts.push(HOSTILE);
            let file = prefix(MAGIC_V2, &[100.0, 10.0], &counts);
            assert_eof(Trace::read_from(file.as_slice()), what);
        }
    }

    #[test]
    fn a_hostile_count_in_the_nested_relation_ends_in_eof_not_an_abort() {
        // A complete, empty data relation, then the query relation's
        // header with u32::MAX rows.
        let mut file = prefix(MAGIC_V3, &[100.0, 10.0], &[0, 0]);
        file.extend_from_slice(&0u64.to_le_bytes());
        file.extend_from_slice(&prefix(&[0; 8], &[100.0, 10.0], &[HOSTILE])[8..]);
        assert_eof(Trace::read_from(file.as_slice()), "nested rows");
    }

    #[test]
    fn hostile_counts_in_extent_traces_end_in_eof_not_an_abort() {
        let cases: [(&str, &[u32]); 6] = [
            ("rows", &[HOSTILE]),
            ("ticks", &[0, HOSTILE]),
            ("queriers", &[0, 1, HOSTILE]),
            ("velocity updates", &[0, 1, 0, HOSTILE]),
            ("removals", &[0, 1, 0, 0, HOSTILE]),
            ("inserts", &[0, 1, 0, 0, 0, HOSTILE]),
        ];
        for (what, counts) in cases {
            let file = prefix(MAGIC_V4, &[100.0], counts);
            assert_eof(ExtentTrace::read_from(file.as_slice()), what);
        }
    }
}
