//! Workload trace recording and replay.
//!
//! The original framework also drives its joins from *simulation traces*
//! (the paper reports the synthetic results only, noting the trends hold
//! for the simulation workloads). This module provides the plumbing a
//! trace-driven setup needs: record any [`Workload`]'s initial population
//! and per-tick actions once, persist them in a compact binary format,
//! and replay them bit-identically — across processes, machines, or
//! implementations under comparison. One trace type, [`Trace<T>`], one
//! recorder ([`record`]) and one replayer ([`TraceWorkload<T>`]) serve
//! both entry shapes: points ([`PointTable`]) and rectangles
//! ([`ExtentTable`]).
//!
//! A trace stores velocities, velocity updates, and the churn plan
//! (departure ids and arrival geometry/velocities), not per-tick
//! positions, so replay relies on the *default* movement model
//! ([`Moving::advance_bouncing`] — what the uniform, Gaussian and
//! rectangle workloads use; the road grid's custom mobility is not
//! replayable). Recording verifies this assumption by checksumming the
//! final live rows and embedding the checksum in the trace;
//! [`TraceWorkload::checksum`] re-derives it on replay in tests.
//!
//! ## Format
//!
//! One format, `SJTRACE5`, little-endian throughout:
//!
//! 1. the magic `SJTRACE5`, then one shape-tag byte ([`TraceShape::TAG`]:
//!    `P` for points, `R` for rectangles);
//! 2. the relation body: space side, query side, the initial rows (a
//!    count, then each row's geometry and velocity), the ticks (a count,
//!    then per tick the queriers, velocity updates, removals and
//!    arrivals, each a count and its items), and the final-state
//!    checksum;
//! 3. a byte saying whether a nested query relation follows (1) or not
//!    (0), and if so its relation body: the query relation R of a
//!    bipartite R ⋈ S trace ([`Trace::query_rel`], recorded by
//!    [`record_bipartite`]).
//!
//! A trace file is untrusted input, checked where it enters. Every check
//! below turns what would be a replay panic (an index out of bounds, or a
//! debug-only `Rect::new` assert) into `InvalidData` at load:
//!
//! - every length prefix: readers reserve at most 65,536 elements up
//!   front and grow as elements arrive, so a truncated or hostile file
//!   ends in `UnexpectedEof` rather than one huge allocation;
//! - the space side and the query side must be finite and non-negative,
//!   and a nested query relation must share its data relation's space
//!   side (the driver runs both relations in one space);
//! - every velocity, of an initial row, an arrival or a velocity update,
//!   must be finite;
//! - a point, initial or arriving, must lie in the closed space
//!   `[0, space side]²`, which also rules out a NaN or infinite
//!   coordinate: replay clips each point's query region to the space;
//! - a rectangle must have finite corners and pass [`Rect::try_new`]. It
//!   may overhang the space, because replay never clips a rectangle;
//! - every querier, velocity-update and removal id must name a row that
//!   exists at the start of its tick (the initial rows plus earlier
//!   ticks' arrivals), and a querier must be live then — the
//!   [`Workload::plan_tick`] contract.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use sj_base::driver::{TickActions, Workload};
use sj_base::geom::{Point, Rect, Vec2};
use sj_base::rng::mix64;
use sj_base::table::{entry_id, EntryId, ExtentTable, Moving, PointTable, Shape};

/// The magic header of the one trace format.
const MAGIC: &[u8; 8] = b"SJTRACE5";

/// The most elements a reader reserves for a length prefix before any of
/// them has been read.
const MAX_PREALLOC: usize = 1 << 16;

/// A [`Shape`] a trace can hold: the tag naming it in the header and the
/// bytes of one row.
pub trait TraceShape: Shape {
    /// The header byte naming the shape.
    const TAG: u8;

    fn write_row<W: Write>(w: &mut W, row: Self::Row) -> io::Result<()>;

    /// Read one row of a relation whose data space is `space`, or
    /// `InvalidData` for a row replay could not run.
    fn read_row<R: Read>(r: &mut R, space: &Rect) -> io::Result<Self::Row>;
}

impl TraceShape for PointTable {
    const TAG: u8 = b'P';

    fn write_row<W: Write>(w: &mut W, p: Point) -> io::Result<()> {
        write_f32(w, p.x)?;
        write_f32(w, p.y)
    }

    /// A point must lie in the (closed) space, which also rules out a
    /// NaN or infinite coordinate: replay clips a point's query region to
    /// the space, and the clip of a region around an outside point inverts.
    fn read_row<R: Read>(r: &mut R, space: &Rect) -> io::Result<Point> {
        let (x, y) = (read_f32(r)?, read_f32(r)?);
        if space.contains_point(x, y) {
            Ok(Point::new(x, y))
        } else {
            Err(invalid(format!("point ({x}, {y}) outside the space")))
        }
    }
}

impl TraceShape for ExtentTable {
    const TAG: u8 = b'R';

    fn write_row<W: Write>(w: &mut W, r: Rect) -> io::Result<()> {
        for v in [r.x1, r.y1, r.x2, r.y2] {
            write_f32(w, v)?;
        }
        Ok(())
    }

    /// A rectangle read from untrusted trace bytes must have finite
    /// corners and pass [`Rect::try_new`]; inverted, NaN or infinite
    /// corners are `InvalidData`. It may overhang the space: replay never
    /// clips a rectangle.
    fn read_row<R: Read>(r: &mut R, _space: &Rect) -> io::Result<Rect> {
        let c = [read_f32(r)?, read_f32(r)?, read_f32(r)?, read_f32(r)?];
        let [x1, y1, x2, y2] = c;
        Rect::try_new(x1, y1, x2, y2)
            .filter(|_| c.iter().all(|v| v.is_finite()))
            .ok_or_else(|| {
                invalid(format!(
                    "malformed rectangle in trace: ({x1}, {y1})–({x2}, {y2})"
                ))
            })
    }
}

/// A fully materialized workload over rows of shape `T` (points by
/// default): initial state plus every tick's actions.
///
/// ```
/// use sj_base::table::ExtentTable;
/// use sj_workload::{record, RectsWorkload, Trace, TraceWorkload, UniformWorkload, WorkloadParams};
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
///
/// // Rectangles go through the same type and format.
/// let rects = record(&mut RectsWorkload::new(params), 3);
/// let mut buf = Vec::new();
/// rects.write_to(&mut buf).unwrap();
/// assert_eq!(Trace::<ExtentTable>::read_from(buf.as_slice()).unwrap(), rects);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Trace<T: Shape = PointTable> {
    pub space_side: f32,
    /// The workload's query size (unused by rectangles, whose query region
    /// is their own extent).
    pub query_side: f32,
    /// Initial rows and their velocities.
    pub init: Vec<(T::Row, Vec2)>,
    /// Per tick: queriers, velocity updates, and churn.
    pub ticks: Vec<TickActions<T::Row>>,
    /// Checksum of the final live rows after replaying all ticks with the
    /// default movement model; guards against replaying a trace of a
    /// workload whose movement model was not the default.
    pub final_checksum: u64,
    /// The query relation R of a bipartite R ⋈ S trace: a nested
    /// self-shaped trace holding R's initial state, per-tick plan
    /// (queriers, updates, churn), and final-state checksum. `None` for
    /// self-join traces. The nested trace never nests further.
    pub query_rel: Option<Box<Trace<T>>>,
}

/// Order-independent checksum of `set`'s live rows, bit for bit.
fn final_checksum<T: Shape>(set: &Moving<T>) -> u64 {
    let mut sum = 0u64;
    for id in set.table.live_ids() {
        let r = set.table.extent(id);
        for (x, y) in [(r.x1, r.y1), (r.x2, r.y2)] {
            sum = sum.wrapping_add(mix64(((x.to_bits() as u64) << 32) | y.to_bits() as u64));
        }
    }
    sum
}

impl<T: Shape> Trace<T> {
    pub fn num_rows(&self) -> usize {
        self.init.len()
    }

    pub fn num_ticks(&self) -> usize {
        self.ticks.len()
    }

    /// Whether this trace records a bipartite R ⋈ S run.
    pub fn is_bipartite(&self) -> bool {
        self.query_rel.is_some()
    }

    /// Split a bipartite trace into its `(query relation R, data relation
    /// S)` halves — two self-shaped traces, each replayable through
    /// [`TraceWorkload`] and rejoinable with
    /// `sj_base::driver::run_bipartite_join`. `None` for self-join traces.
    pub fn split_bipartite(self) -> Option<(Trace<T>, Trace<T>)> {
        let mut s = self;
        let r = *s.query_rel.take()?;
        Some((r, s))
    }
}

impl<T: TraceShape> Trace<T> {
    /// Serialize to a writer (see the module docs for the format).
    pub fn write_to<W: Write>(&self, w: W) -> io::Result<()> {
        let mut w = BufWriter::new(w);
        w.write_all(MAGIC)?;
        w.write_all(&[T::TAG])?;
        self.write_body(&mut w)?;
        match &self.query_rel {
            None => w.write_all(&[0])?,
            Some(r) => {
                debug_assert!(r.query_rel.is_none(), "query relation traces never nest");
                w.write_all(&[1])?;
                r.write_body(&mut w)?;
            }
        }
        w.flush()
    }

    /// One relation body.
    fn write_body<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write_f32(w, self.space_side)?;
        write_f32(w, self.query_side)?;
        write_rows::<T, W>(w, &self.init)?;
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
            write_rows::<T, W>(w, &t.inserts)?;
        }
        write_u64(w, self.final_checksum)
    }

    /// Deserialize from a reader.
    ///
    /// # Errors
    /// I/O errors, truncated data, and `InvalidData` for a bad magic
    /// header, a shape tag other than `T`'s, or a number or id replay
    /// could not run (see the module docs for the full list).
    pub fn read_from<R: Read>(r: R) -> io::Result<Trace<T>> {
        let mut r = BufReader::new(r);
        let mut header = [0u8; 9];
        r.read_exact(&mut header)?;
        if &header[..8] != MAGIC {
            return Err(invalid("not an SJTRACE5 file".into()));
        }
        if header[8] != T::TAG {
            return Err(invalid(format!(
                "trace shape tag {:?}, expected {:?}",
                header[8] as char,
                T::TAG as char
            )));
        }
        let mut trace = Self::read_body(&mut r)?;
        let mut more = [0u8];
        r.read_exact(&mut more)?;
        trace.query_rel = match more[0] {
            0 => None,
            1 => Some(Box::new(Self::read_body(&mut r)?)),
            b => return Err(invalid(format!("bad query-relation marker {b}"))),
        };
        if let Some(rel) = &trace.query_rel {
            // Bit equality: both sides are finite, and the driver demands
            // the identical space.
            if rel.space_side.to_bits() != trace.space_side.to_bits() {
                return Err(invalid(format!(
                    "query relation space side {} differs from {}",
                    rel.space_side, trace.space_side
                )));
            }
        }
        Ok(trace)
    }

    /// One relation body (`query_rel` left `None`), checking every number
    /// replay uses and every id against the rows that exist, and are live,
    /// at the start of its tick.
    fn read_body<R: Read>(r: &mut R) -> io::Result<Trace<T>> {
        let space_side = read_side(r, "space side")?;
        let query_side = read_side(r, "query side")?;
        let space = Rect::space(space_side);
        let init = read_rows::<T, R>(r, &space)?;
        // Liveness of every row so far, one entry per row slot.
        let mut live = vec![true; init.len()];
        let (tick_count, mut ticks) = read_len(r)?;
        for tick in 0..tick_count {
            let (nq, mut queriers) = read_len(r)?;
            for _ in 0..nq {
                let q = read_u32(r)?;
                if !live.get(q as usize).copied().unwrap_or(false) {
                    return Err(invalid(format!(
                        "tick {tick}: querier {q} is not a live row"
                    )));
                }
                queriers.push(q);
            }
            let (nu, mut velocity_updates) = read_len(r)?;
            for _ in 0..nu {
                let id = read_id(r, live.len(), tick, "velocity update")?;
                let v = read_velocity(r)?;
                velocity_updates.push((id, v.x, v.y));
            }
            let (nr, mut removals) = read_len(r)?;
            for _ in 0..nr {
                removals.push(read_id(r, live.len(), tick, "removal")?);
            }
            let inserts = read_rows::<T, R>(r, &space)?;
            for &id in &removals {
                live[id as usize] = false;
            }
            live.resize(live.len() + inserts.len(), true);
            ticks.push(TickActions {
                queriers,
                velocity_updates,
                removals,
                inserts,
            });
        }
        let final_checksum = read_u64(r)?;
        Ok(Trace {
            space_side,
            query_side,
            init,
            ticks,
            final_checksum,
            query_rel: None,
        })
    }

    /// Convenience wrapper over [`Trace::write_to`] for a filesystem path.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        self.write_to(std::fs::File::create(path)?)
    }

    /// Convenience wrapper over [`Trace::read_from`] for a filesystem path.
    pub fn load(path: &Path) -> io::Result<Trace<T>> {
        Self::read_from(std::fs::File::open(path)?)
    }
}

/// Record a workload into a [`Trace`]. Free function (rather than a
/// `Trace` constructor) so the borrow of the workload is obvious.
pub fn record<T: Shape, W: Workload<T> + ?Sized>(workload: &mut W, ticks: u32) -> Trace<T> {
    let space_side = workload.space().x2;
    let query_side = workload.query_side();
    let mut set = workload.init();
    let init = (0..set.len())
        .map(entry_id)
        .map(|id| (set.table.row(id), set.velocity(id)))
        .collect();

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
        init,
        ticks: recorded,
        final_checksum: final_checksum(&set),
        query_rel: None,
    }
}

/// Record a bipartite R ⋈ S run into a single [`Trace`]: the data relation
/// S fills the top-level body, the query relation R the nested
/// [`Trace::query_rel`] one. S's planned queriers are dropped, exactly as
/// the driver drops them (see `sj_base::driver::run_bipartite_join`), so a
/// replay through [`Trace::split_bipartite`] reproduces the recorded run
/// bit for bit.
pub fn record_bipartite<T, R, S>(
    query_workload: &mut R,
    data_workload: &mut S,
    ticks: u32,
) -> Trace<T>
where
    T: Shape,
    R: Workload<T> + ?Sized,
    S: Workload<T> + ?Sized,
{
    let mut trace = record(data_workload, ticks);
    for t in &mut trace.ticks {
        t.queriers.clear();
    }
    trace.query_rel = Some(Box::new(record(query_workload, ticks)));
    trace
}

/// Replays a [`Trace`] through the standard [`Workload`] interface.
pub struct TraceWorkload<T: Shape = PointTable> {
    trace: Trace<T>,
    cursor: usize,
}

impl<T: Shape> TraceWorkload<T> {
    pub fn new(trace: Trace<T>) -> Self {
        TraceWorkload { trace, cursor: 0 }
    }

    pub fn trace(&self) -> &Trace<T> {
        &self.trace
    }

    /// Checksum of `set`'s live rows — equals the trace's embedded
    /// [`Trace::final_checksum`] after all recorded ticks have been
    /// replayed with the default movement model.
    pub fn checksum(set: &Moving<T>) -> u64 {
        final_checksum(set)
    }
}

impl<T: Shape> Workload<T> for TraceWorkload<T> {
    fn space(&self) -> Rect {
        Rect::space(self.trace.space_side)
    }

    fn query_side(&self) -> f32 {
        self.trace.query_side
    }

    fn init(&mut self) -> Moving<T> {
        self.cursor = 0;
        let mut set = Moving::with_capacity(self.trace.num_rows());
        for &(row, v) in &self.trace.init {
            set.push(row, v);
        }
        set
    }

    fn plan_tick(&mut self, _tick: u32, _set: &Moving<T>, actions: &mut TickActions<T::Row>) {
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

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn write_rows<T: TraceShape, W: Write>(w: &mut W, rows: &[(T::Row, Vec2)]) -> io::Result<()> {
    write_u32(w, rows.len() as u32)?;
    for &(row, v) in rows {
        T::write_row(w, row)?;
        write_f32(w, v.x)?;
        write_f32(w, v.y)?;
    }
    Ok(())
}

fn read_rows<T: TraceShape, R: Read>(r: &mut R, space: &Rect) -> io::Result<Vec<(T::Row, Vec2)>> {
    let (n, mut rows) = read_len(r)?;
    for _ in 0..n {
        let row = T::read_row(r, space)?;
        rows.push((row, read_velocity(r)?));
    }
    Ok(rows)
}

/// Read a space or query side: a finite, non-negative length.
fn read_side<R: Read>(r: &mut R, what: &str) -> io::Result<f32> {
    let side = read_f32(r)?;
    if side.is_finite() && side >= 0.0 {
        Ok(side)
    } else {
        Err(invalid(format!("{what} {side} is not a finite length")))
    }
}

/// Read a velocity, whose components must be finite.
fn read_velocity<R: Read>(r: &mut R) -> io::Result<Vec2> {
    let v = Vec2::new(read_f32(r)?, read_f32(r)?);
    if v.x.is_finite() && v.y.is_finite() {
        Ok(v)
    } else {
        Err(invalid(format!(
            "velocity ({}, {}) is not finite",
            v.x, v.y
        )))
    }
}

/// Read a length prefix: the element count, and a `Vec` with capacity for
/// at most [`MAX_PREALLOC`] of them.
fn read_len<R: Read, E>(r: &mut R) -> io::Result<(usize, Vec<E>)> {
    let n = read_u32(r)? as usize;
    Ok((n, Vec::with_capacity(n.min(MAX_PREALLOC))))
}

/// Read the id of a `what` in `tick`, which must be below `rows`, the
/// number of rows at the start of that tick.
fn read_id<R: Read>(r: &mut R, rows: usize, tick: usize, what: &str) -> io::Result<EntryId> {
    let id = read_u32(r)?;
    if id as usize >= rows {
        return Err(invalid(format!(
            "tick {tick}: {what} names row {id} of {rows}"
        )));
    }
    Ok(id)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChurnParams, ChurnWorkload, RectsWorkload, UniformWorkload, WorkloadParams};
    use sj_base::driver::{
        run_bipartite_join, run_intersect_join, run_join, DriverConfig, RunStats,
    };
    use sj_base::index::ScanIndex;

    fn small_params() -> WorkloadParams {
        WorkloadParams {
            num_points: 500,
            ticks: 5,
            space_side: 4_000.0,
            ..WorkloadParams::default()
        }
    }

    const TICKS: u32 = 4;

    fn cfg() -> DriverConfig {
        DriverConfig::new(TICKS, 0)
    }

    fn bytes<T: TraceShape>(trace: &Trace<T>) -> Vec<u8> {
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        buf
    }

    /// The one shape-generic trace test: write, read back and compare;
    /// replay through the driver (`replay`) and match the live run's
    /// pairs, checksum and queries; and re-derive every relation's
    /// embedded final-state checksum by applying its ticks by hand.
    fn assert_roundtrips_and_replays<T: TraceShape>(
        trace: Trace<T>,
        live: RunStats,
        replay: impl FnOnce(Trace<T>) -> RunStats,
    ) {
        assert_eq!(trace.num_ticks(), TICKS as usize);
        let back = Trace::<T>::read_from(bytes(&trace).as_slice()).unwrap();
        assert_eq!(back, trace);

        let replayed = replay(back);
        assert!(live.result_pairs > 0);
        assert_eq!(replayed.result_pairs, live.result_pairs);
        assert_eq!(replayed.checksum, live.checksum);
        assert_eq!(replayed.queries, live.queries);

        for rel in std::iter::once(&trace).chain(trace.query_rel.as_deref()) {
            let mut replay = TraceWorkload::new(rel.clone());
            let mut set = replay.init();
            let mut actions = TickActions::default();
            for tick in 0..TICKS {
                actions.clear();
                replay.plan_tick(tick, &set, &mut actions);
                actions.apply(&mut set, &mut replay);
            }
            assert_eq!(TraceWorkload::checksum(&set), rel.final_checksum);
        }
    }

    fn churn() -> ChurnWorkload {
        let params = small_params();
        ChurnWorkload::new(
            Box::new(UniformWorkload::new(params)),
            ChurnParams {
                rate: 0.1,
                max_speed: params.max_speed,
                seed: params.seed,
                target_population: params.num_points,
            },
        )
    }

    #[test]
    fn serialization_roundtrips_exactly() {
        let live = run_join(
            &mut UniformWorkload::new(small_params()),
            &mut ScanIndex::new(),
            cfg(),
        );
        let trace = record(&mut UniformWorkload::new(small_params()), TICKS);
        assert_roundtrips_and_replays(trace, live, |t| {
            run_join(&mut TraceWorkload::new(t), &mut ScanIndex::new(), cfg())
        });
    }

    #[test]
    fn churn_traces_roundtrip_and_replay_bit_identically() {
        let live = run_join(&mut churn(), &mut ScanIndex::new(), cfg());
        let trace = record(&mut churn(), TICKS);
        let removed: usize = trace.ticks.iter().map(|t| t.removals.len()).sum();
        let inserted: usize = trace.ticks.iter().map(|t| t.inserts.len()).sum();
        assert!(removed > 0 && inserted > 0, "no churn recorded");
        assert_roundtrips_and_replays(trace, live, |t| {
            run_join(&mut TraceWorkload::new(t), &mut ScanIndex::new(), cfg())
        });
    }

    #[test]
    fn extent_trace_replay_reproduces_the_recorded_run() {
        let live = run_intersect_join(
            &mut RectsWorkload::new(small_params()),
            &mut ScanIndex::new(),
            cfg(),
        );
        let trace = record(&mut RectsWorkload::new(small_params()), TICKS);
        assert_roundtrips_and_replays(trace, live, |t| {
            run_intersect_join(&mut TraceWorkload::new(t), &mut ScanIndex::new(), cfg())
        });
    }

    #[test]
    fn bipartite_trace_replay_reproduces_the_recorded_join() {
        let params = small_params();
        let r_params = WorkloadParams {
            num_points: 80,
            seed: 123,
            ..params
        };
        let mut r = UniformWorkload::new(r_params);
        let mut s = UniformWorkload::new(params);
        let live = run_bipartite_join(&mut r, &mut s, &mut ScanIndex::new(), cfg());
        let mut r = UniformWorkload::new(r_params);
        let mut s = UniformWorkload::new(params);
        let trace = record_bipartite(&mut r, &mut s, TICKS);
        assert_eq!(trace.num_rows(), 500, "top level holds S");
        let rel = trace.query_rel.as_deref().unwrap();
        assert_eq!(rel.num_rows(), 80, "nested relation holds R");
        // The data relation's queriers were dropped at record time (the
        // driver drops them too); R keeps its own.
        assert!(trace.ticks.iter().all(|t| t.queriers.is_empty()));
        assert!(rel.ticks.iter().any(|t| !t.queriers.is_empty()));
        assert_roundtrips_and_replays(trace, live, |t| {
            let (r_half, s_half) = t.split_bipartite().unwrap();
            run_bipartite_join(
                &mut TraceWorkload::new(r_half),
                &mut TraceWorkload::new(s_half),
                &mut ScanIndex::new(),
                cfg(),
            )
        });
    }

    #[test]
    fn recorded_trace_has_expected_shape() {
        let trace = record(&mut UniformWorkload::new(small_params()), 5);
        assert_eq!(trace.num_rows(), 500);
        assert_eq!(trace.num_ticks(), 5);
        assert_eq!(trace.space_side, 4_000.0);
        assert_eq!(trace.query_side, 400.0);
        assert!(!trace.is_bipartite());
    }

    #[test]
    fn traces_begin_with_the_magic_and_the_shape_tag() {
        let points = bytes(&record(&mut UniformWorkload::new(small_params()), 2));
        let rects = bytes(&record(&mut RectsWorkload::new(small_params()), 2));
        for (buf, tag) in [(points, b'P'), (rects, b'R')] {
            assert_eq!(&buf[..8], MAGIC);
            assert_eq!(buf[8], tag);
            assert_eq!(buf.last(), Some(&0), "no query relation follows");
        }
    }

    #[test]
    fn split_bipartite_is_none_for_self_traces() {
        let trace = record(&mut UniformWorkload::new(small_params()), 2);
        assert!(trace.split_bipartite().is_none());
    }

    fn assert_invalid<T: std::fmt::Debug>(read: io::Result<T>, what: &str) {
        let err = read.expect_err(what);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let read = Trace::<PointTable>::read_from(&b"NOTATRACEFILE..."[..]);
        assert_invalid(read, "magic");
    }

    #[test]
    fn point_and_extent_trace_formats_never_cross() {
        let points = bytes(&record(&mut UniformWorkload::new(small_params()), 2));
        let read = Trace::<ExtentTable>::read_from(points.as_slice());
        assert_invalid(read, "points as rectangles");
        let rects = bytes(&record(&mut RectsWorkload::new(small_params()), 2));
        let read = Trace::<PointTable>::read_from(rects.as_slice());
        assert_invalid(read, "rectangles as points");
    }

    #[test]
    fn an_unknown_shape_tag_is_rejected() {
        let mut buf = bytes(&record(&mut UniformWorkload::new(small_params()), 2));
        buf[8] = b'X';
        assert_invalid(Trace::<PointTable>::read_from(buf.as_slice()), "points");
        assert_invalid(Trace::<ExtentTable>::read_from(buf.as_slice()), "rects");
    }

    #[test]
    fn a_bad_query_relation_marker_is_rejected() {
        let mut buf = bytes(&record(&mut UniformWorkload::new(small_params()), 2));
        *buf.last_mut().unwrap() = 2;
        assert_invalid(Trace::<PointTable>::read_from(buf.as_slice()), "marker");
    }

    #[test]
    fn malformed_rectangles_in_extent_traces_are_rejected_on_load() {
        // An inverted rectangle (x2 < x1) must fail Rect::try_new at load
        // time — not trip a debug assert downstream — whether it is an
        // initial row or an arrival.
        let inverted = Rect {
            x1: 10.0,
            y1: 10.0,
            x2: 5.0,
            y2: 20.0,
        };
        let init = Trace::<ExtentTable> {
            space_side: 100.0,
            query_side: 0.0,
            init: vec![(inverted, Vec2::default())],
            ticks: Vec::new(),
            final_checksum: 0,
            query_rel: None,
        };
        let arrival = Trace {
            init: Vec::new(),
            ticks: vec![TickActions {
                inserts: vec![(inverted, Vec2::default())],
                ..TickActions::default()
            }],
            ..init.clone()
        };
        for trace in [init, arrival] {
            let err = Trace::<ExtentTable>::read_from(bytes(&trace).as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("malformed rectangle"), "{err}");
        }
    }

    /// A relation in a 100-side space with no rows and no ticks.
    fn empty<T: Shape>() -> Trace<T> {
        Trace {
            space_side: 100.0,
            query_side: 10.0,
            init: Vec::new(),
            ticks: Vec::new(),
            final_checksum: 0,
            query_rel: None,
        }
    }

    /// Assert that `rel` loads (`ok`) or fails with `InvalidData`, both
    /// as the only relation and as the nested query relation behind an
    /// empty data relation in the same space.
    fn assert_checked<T: TraceShape>(rel: Trace<T>, ok: bool, what: &str) {
        let bipartite = Trace {
            space_side: rel.space_side,
            query_rel: Some(Box::new(rel.clone())),
            ..empty()
        };
        for trace in [rel, bipartite] {
            let read = Trace::<T>::read_from(bytes(&trace).as_slice());
            match ok {
                true => assert_eq!(read.unwrap(), trace, "{what}"),
                false => assert_invalid(read, what),
            }
        }
    }

    /// Assert that a trace with one initial row and `ticks` loads (`ok`)
    /// or fails with `InvalidData`, for both shapes (see
    /// [`assert_checked`]). The ticks carry `()` for arrival geometry;
    /// each shape fills in its default row.
    fn assert_ids_checked(ticks: &[TickActions<()>], ok: bool, what: &str) {
        fn check<T: TraceShape>(ticks: &[TickActions<()>], ok: bool, what: &str) {
            let rel = Trace::<T> {
                init: vec![(T::Row::default(), Vec2::default())],
                ticks: ticks
                    .iter()
                    .map(|t| TickActions {
                        queriers: t.queriers.clone(),
                        velocity_updates: t.velocity_updates.clone(),
                        removals: t.removals.clone(),
                        inserts: vec![(T::Row::default(), Vec2::default()); t.inserts.len()],
                    })
                    .collect(),
                ..empty()
            };
            assert_checked(rel, ok, what);
        }
        check::<PointTable>(ticks, ok, what);
        check::<ExtentTable>(ticks, ok, what);
    }

    /// Two ticks: `arrivals` rows arrive in the first, and the second
    /// names `id` as a `kind` ("querier", "update" or "removal").
    fn naming(kind: &str, id: EntryId, arrivals: usize) -> Vec<TickActions<()>> {
        let mut tick = TickActions::default();
        match kind {
            "querier" => tick.queriers.push(id),
            "update" => tick.velocity_updates.push((id, 1.0, 1.0)),
            _ => tick.removals.push(id),
        }
        let before = TickActions {
            inserts: vec![((), Vec2::default()); arrivals],
            ..TickActions::default()
        };
        vec![before, tick]
    }

    #[test]
    fn an_out_of_range_querier_is_rejected() {
        assert_ids_checked(&naming("querier", 7, 0), false, "row 7 of 1");
        assert_ids_checked(&naming("querier", 1, 0), false, "row 1 of 1");
        assert_ids_checked(&naming("querier", 1, 1), true, "an earlier arrival");
    }

    #[test]
    fn an_out_of_range_velocity_update_is_rejected() {
        assert_ids_checked(&naming("update", 7, 0), false, "row 7 of 1");
        assert_ids_checked(&naming("update", 2, 2), true, "an earlier arrival");
    }

    #[test]
    fn an_out_of_range_removal_is_rejected() {
        assert_ids_checked(&naming("removal", 7, 0), false, "row 7 of 1");
        assert_ids_checked(&naming("removal", 1, 1), true, "an earlier arrival");
        // An arrival gets its id only at the end of its tick.
        let same_tick = TickActions {
            removals: vec![1],
            inserts: vec![((), Vec2::default())],
            ..TickActions::default()
        };
        assert_ids_checked(&[same_tick], false, "this tick's arrival");
    }

    #[test]
    fn a_querier_that_is_not_live_is_rejected() {
        // Row 0 may query in the tick it departs (it is live at the start
        // of the tick) but not after.
        let departs = TickActions {
            queriers: vec![0],
            removals: vec![0],
            ..TickActions::default()
        };
        assert_ids_checked(std::slice::from_ref(&departs), true, "departing querier");
        let after = TickActions {
            queriers: vec![0],
            ..TickActions::default()
        };
        assert_ids_checked(&[departs, after], false, "dead querier");
    }

    /// `row` moving at `v`, once as an initial row and once arriving in
    /// the first tick.
    fn placing<T: Shape>(row: T::Row, v: Vec2) -> [Trace<T>; 2] {
        let arrival = TickActions {
            inserts: vec![(row, v)],
            ..TickActions::default()
        };
        [
            Trace {
                init: vec![(row, v)],
                ..empty()
            },
            Trace {
                ticks: vec![arrival],
                ..empty()
            },
        ]
    }

    #[test]
    fn a_non_finite_or_negative_space_side_is_rejected() {
        for side in [f32::NAN, f32::INFINITY, -1.0] {
            let points = Trace::<PointTable> {
                space_side: side,
                ..empty()
            };
            assert_checked(points, false, "points");
            let rects = Trace::<ExtentTable> {
                space_side: side,
                ..empty()
            };
            assert_checked(rects, false, "rects");
        }
        let zero = Trace::<PointTable> {
            space_side: 0.0,
            ..empty()
        };
        assert_checked(zero, true, "a zero side");
    }

    #[test]
    fn a_non_finite_or_negative_query_side_is_rejected() {
        for side in [f32::NAN, f32::INFINITY, -1.0] {
            let points = Trace::<PointTable> {
                query_side: side,
                ..empty()
            };
            assert_checked(points, false, "points");
            let rects = Trace::<ExtentTable> {
                query_side: side,
                ..empty()
            };
            assert_checked(rects, false, "rects");
        }
        let zero = Trace::<PointTable> {
            query_side: 0.0,
            ..empty()
        };
        assert_checked(zero, true, "a zero side");
    }

    #[test]
    fn a_non_finite_coordinate_is_rejected() {
        let still = Vec2::default();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for p in [Point::new(bad, 5.0), Point::new(5.0, bad)] {
                for trace in placing::<PointTable>(p, still) {
                    assert_checked(trace, false, "point");
                }
            }
            // Each corner coordinate in turn. An infinite one can make a
            // well-ordered rectangle, which `Rect::try_new` accepts.
            let unit = [0.0, 0.0, 1.0, 1.0];
            for i in 0..4 {
                let mut c = unit;
                c[i] = bad;
                let r = Rect {
                    x1: c[0],
                    y1: c[1],
                    x2: c[2],
                    y2: c[3],
                };
                for trace in placing::<ExtentTable>(r, still) {
                    assert_checked(trace, false, "rect");
                }
            }
        }
    }

    #[test]
    fn a_non_finite_velocity_is_rejected() {
        let (p, r) = (Point::new(5.0, 5.0), Rect::new(5.0, 5.0, 6.0, 6.0));
        /// An initial row whose velocity is set to `(vx, vy)` in the first
        /// tick, and which queries in the second.
        fn updating<T: Shape>(row: T::Row, vx: f32, vy: f32) -> Trace<T> {
            let update = TickActions {
                velocity_updates: vec![(0, vx, vy)],
                ..TickActions::default()
            };
            let query = TickActions {
                queriers: vec![0],
                ..TickActions::default()
            };
            Trace {
                init: vec![(row, Vec2::default())],
                ticks: vec![update, query],
                ..empty()
            }
        }
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for v in [Vec2::new(bad, 0.0), Vec2::new(0.0, bad)] {
                for trace in placing::<PointTable>(p, v) {
                    assert_checked(trace, false, "point");
                }
                for trace in placing::<ExtentTable>(r, v) {
                    assert_checked(trace, false, "rect");
                }
                assert_checked(updating::<PointTable>(p, v.x, v.y), false, "point update");
                assert_checked(updating::<ExtentTable>(r, v.x, v.y), false, "rect update");
            }
        }
        let v = Vec2::new(-3.0, 2.0);
        for trace in placing::<PointTable>(p, v) {
            assert_checked(trace, true, "a finite point velocity");
        }
        assert_checked(
            updating::<ExtentTable>(r, v.x, v.y),
            true,
            "a finite update",
        );
    }

    #[test]
    fn a_point_outside_the_space_is_rejected() {
        let still = Vec2::default();
        for p in [
            Point::new(-0.5, 5.0),
            Point::new(5.0, -0.5),
            Point::new(100.5, 5.0),
            Point::new(5.0, 100.5),
        ] {
            for trace in placing::<PointTable>(p, still) {
                assert_checked(trace, false, "outside");
            }
        }
        // The space is closed: its corners are inside.
        for p in [Point::new(0.0, 0.0), Point::new(100.0, 100.0)] {
            for trace in placing::<PointTable>(p, still) {
                assert_checked(trace, true, "a corner");
            }
        }
        // Replay never clips a rectangle, so one may overhang the space.
        for trace in placing::<ExtentTable>(Rect::new(90.0, 90.0, 120.0, 120.0), still) {
            assert_checked(trace, true, "an overhanging rect");
        }
    }

    #[test]
    fn a_query_relation_in_another_space_is_rejected() {
        // The driver asserts that both relations share one space.
        let trace = Trace::<PointTable> {
            query_rel: Some(Box::new(Trace {
                space_side: 50.0,
                ..empty()
            })),
            ..empty()
        };
        assert_invalid(
            Trace::<PointTable>::read_from(bytes(&trace).as_slice()),
            "space",
        );
    }

    #[test]
    fn truncated_data_is_rejected() {
        let points = bytes(&record(&mut UniformWorkload::new(small_params()), 2));
        assert!(Trace::<PointTable>::read_from(&points[..points.len() / 2]).is_err());
        let rects = bytes(&record(&mut RectsWorkload::new(small_params()), 2));
        assert!(Trace::<ExtentTable>::read_from(&rects[..rects.len() / 2]).is_err());
    }

    #[test]
    fn replay_past_end_is_quiet() {
        let trace = record(&mut UniformWorkload::new(small_params()), 2);
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

    fn assert_file_roundtrip<T: TraceShape>(trace: Trace<T>, name: &str) {
        let path = std::env::temp_dir().join(name);
        trace.save(&path).unwrap();
        let back = Trace::<T>::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, trace);
    }

    #[test]
    fn file_roundtrip() {
        let trace = record(&mut UniformWorkload::new(small_params()), 3);
        assert_file_roundtrip(trace, "sj_trace_test.bin");
    }

    #[test]
    fn extent_trace_file_roundtrip() {
        let trace = record(&mut RectsWorkload::new(small_params()), 3);
        assert_file_roundtrip(trace, "sj_extent_trace_test.bin");
    }

    /// A trace prefix with shape tag `tag`: the header, the header floats,
    /// then `u32` fields.
    fn prefix(tag: u8, floats: &[f32], counts: &[u32]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.push(tag);
        for f in floats {
            out.extend_from_slice(&f.to_le_bytes());
        }
        for c in counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    /// Assert that the file `file(tag)` ends in `UnexpectedEof` for both
    /// shapes.
    fn assert_eof(file: impl Fn(u8) -> Vec<u8>, what: &str) {
        let reads = [
            Trace::<PointTable>::read_from(file(PointTable::TAG).as_slice()).map(drop),
            Trace::<ExtentTable>::read_from(file(ExtentTable::TAG).as_slice()).map(drop),
        ];
        for read in reads {
            let err = read.expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{what}: {err}");
        }
    }

    const HOSTILE: u32 = u32::MAX;

    #[test]
    fn a_hostile_row_count_ends_in_eof_not_an_abort() {
        // 21 bytes: the header, two sides, then u32::MAX rows. Reserving
        // for the claimed rows would abort the process.
        assert_eq!(prefix(b'P', &[100.0, 10.0], &[HOSTILE]).len(), 21);
        assert_eof(|tag| prefix(tag, &[100.0, 10.0], &[HOSTILE]), "rows");
    }

    #[test]
    fn a_hostile_tick_count_ends_in_eof_not_an_abort() {
        assert_eof(|tag| prefix(tag, &[100.0, 10.0], &[0, HOSTILE]), "ticks");
    }

    #[test]
    fn hostile_per_tick_section_counts_end_in_eof_not_an_abort() {
        // No rows, one tick, and the earlier sections of that tick empty.
        let sections = ["queriers", "velocity updates", "removals", "inserts"];
        for (i, what) in sections.into_iter().enumerate() {
            let mut counts = vec![0, 1];
            counts.extend(std::iter::repeat_n(0, i));
            counts.push(HOSTILE);
            assert_eof(|tag| prefix(tag, &[100.0, 10.0], &counts), what);
        }
    }

    #[test]
    fn a_hostile_count_in_the_nested_relation_ends_in_eof_not_an_abort() {
        // A complete, empty data relation, the query-relation marker, then
        // the query relation's header with u32::MAX rows.
        let file = |tag| {
            let mut file = prefix(tag, &[100.0, 10.0], &[0, 0]);
            file.extend_from_slice(&0u64.to_le_bytes());
            file.push(1);
            file.extend_from_slice(&prefix(tag, &[100.0, 10.0], &[HOSTILE])[9..]);
            file
        };
        assert_eof(file, "nested rows");
    }
}
