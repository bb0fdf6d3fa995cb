//! The machine's speed, measured with a reference join of the benchmark's
//! own, and the scale that puts every timing metric at the reference speed.
//!
//! The benchmark runs on shared machines whose neighbours slow every core
//! for tens of seconds to minutes at a time. On the 2-core Xeon VM the
//! bounds were set on, a fixed arithmetic loop's time drifted by 10–30%
//! within three minutes, and the process's CPU time per tick drifted with
//! its wall time, so the loss is a slower core, not time stolen from the
//! process. Ten runs of a workload then spread by 13–25% in raw tick
//! latency, as much as the bounds allow.
//!
//! So before and after each measured segment the benchmark times a fixed
//! grid self-join written in this file, which no change to the program
//! under test can move, on as many threads as the technique under test
//! uses. Each timing metric of the segment is scaled by [`REFERENCE_MS`]
//! over the median of those reference times: it reads as at the reference
//! speed, at which this join takes [`REFERENCE_MS`]. A slowdown of the
//! whole machine then cancels, and a slowdown of the program does not.
//! The raw wall-clock values are printed beside the scaled ones.

use std::hint::black_box;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::clock;
use crate::stats::median;

/// The reference join's time at the reference speed: about its median, on
/// one thread, over the runs the bounds were set from (2-core Xeon VM), so
/// scaled values read close to wall-clock time there.
pub const REFERENCE_MS: f64 = 22.0;
/// Points of the full-size reference join, at Table 1's density. Its 4 MB
/// of arrays outgrow a core's L2 cache (2 MB on the VM), as the workloads'
/// tables and indexes do, so it slows with them when neighbours crowd the
/// shared cache and memory.
pub const REFERENCE_POINTS: u32 = 200_000;
/// One point in this many queries: 25k queries, as in a `uniform` tick.
const QUERY_STRIDE: usize = 8;
/// Timed reference joins in each block around a segment.
const REPS: usize = 3;
/// Points per chunk of queriers a worker takes from the shared cursor.
const CHUNK: usize = 4096;
/// Table 1's population, space side and query side: the reference keeps
/// its density.
const TABLE1_POINTS: u32 = 50_000;
const SPACE_SIDE: f32 = 22_000.0;
const QUERY_SIDE: f32 = 400.0;

/// The reference join's data: uniform points, bucketed by a grid with cells
/// one query side wide; a querier's window is one query side around it.
struct Grid {
    xs: Vec<f32>,
    ys: Vec<f32>,
    /// Cells per axis.
    cells: usize,
    cell_side: f32,
    /// Start of each cell's run in the bucketed arrays, plus an end marker.
    start: Vec<u32>,
    fill: Vec<u32>,
    bx: Vec<f32>,
    by: Vec<f32>,
    bid: Vec<u32>,
}

/// SplitMix64: the reference draws its own points, so that no change to
/// the workload generator moves it.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Grid {
    /// `points` uniform points at Table 1's density.
    fn new(points: u32) -> Grid {
        let n = points as usize;
        let side = SPACE_SIDE * (points as f32 / TABLE1_POINTS as f32).sqrt();
        let cells = ((side / QUERY_SIDE) as usize).max(1);
        let mut state = 0x5eed;
        let mut coord = || (splitmix(&mut state) >> 40) as f32 / (1u32 << 24) as f32 * side;
        let xs: Vec<f32> = (0..n).map(|_| coord()).collect();
        let ys: Vec<f32> = (0..n).map(|_| coord()).collect();
        Grid {
            xs,
            ys,
            cells,
            cell_side: side / cells as f32,
            start: vec![0; cells * cells + 1],
            fill: vec![0; cells * cells],
            bx: vec![0.0; n],
            by: vec![0.0; n],
            bid: vec![0; n],
        }
    }

    fn cell(&self, v: f32) -> usize {
        ((v.max(0.0) / self.cell_side) as usize).min(self.cells - 1)
    }

    /// Bucket the points by cell (a counting sort).
    fn build(&mut self) {
        self.start.fill(0);
        for i in 0..self.xs.len() {
            let c = self.cell(self.ys[i]) * self.cells + self.cell(self.xs[i]);
            self.start[c + 1] += 1;
        }
        for c in 1..self.start.len() {
            self.start[c] += self.start[c - 1];
        }
        self.fill
            .copy_from_slice(&self.start[..self.cells * self.cells]);
        for i in 0..self.xs.len() {
            let c = self.cell(self.ys[i]) * self.cells + self.cell(self.xs[i]);
            let k = self.fill[c] as usize;
            self.fill[c] += 1;
            (self.bx[k], self.by[k], self.bid[k]) = (self.xs[i], self.ys[i], i as u32);
        }
    }

    /// The (pairs, checksum) of the queriers among `points`: every
    /// `stride`th point, counting from 0.
    fn query(&self, points: Range<usize>, stride: usize) -> (u64, u64) {
        let half = QUERY_SIDE / 2.0;
        let (mut pairs, mut checksum) = (0u64, 0u64);
        for i in (points.start.next_multiple_of(stride)..points.end).step_by(stride) {
            let (x, y) = (self.xs[i], self.ys[i]);
            let (x0, x1, y0, y1) = (x - half, x + half, y - half, y + half);
            for cy in self.cell(y0)..=self.cell(y1) {
                for cx in self.cell(x0)..=self.cell(x1) {
                    let c = cy * self.cells + cx;
                    for k in self.start[c] as usize..self.start[c + 1] as usize {
                        let (px, py) = (self.bx[k], self.by[k]);
                        if px >= x0 && px <= x1 && py >= y0 && py <= y1 {
                            pairs += 1;
                            checksum = checksum.wrapping_add(pair_hash(i, self.bid[k] as usize));
                        }
                    }
                }
            }
        }
        (pairs, checksum)
    }
}

fn pair_hash(querier: usize, found: usize) -> u64 {
    ((querier as u64) << 32 | found as u64) ^ 0x55
}

/// The reference join, shaped like the techniques it stands beside: one
/// thread buckets the points, then `threads` workers drain the queriers in
/// chunks from a shared cursor, as the mini-join pool drains its chunks.
/// With more threads there are more queriers, so that each worker still
/// answers a single-threaded join's share.
pub struct Reference {
    grid: Grid,
    threads: usize,
}

impl Reference {
    /// A reference of `points` points on `threads` threads.
    pub fn new(points: u32, threads: usize) -> Reference {
        Reference {
            grid: Grid::new(points),
            threads: threads.max(1),
        }
    }

    /// Build, then query on every thread: (pairs, checksum).
    fn join(&mut self) -> (u64, u64) {
        self.grid.build();
        let grid = &self.grid;
        let n = grid.xs.len();
        let stride = (QUERY_STRIDE / self.threads).max(1);
        let cursor = AtomicUsize::new(0);
        let drain = || {
            let mut acc = (0u64, 0u64);
            loop {
                // Relaxed: the cursor only hands out disjoint chunks; the
                // grid was built before the workers started.
                let lo = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                if lo >= n {
                    return acc;
                }
                let (pairs, checksum) = grid.query(lo..(lo + CHUNK).min(n), stride);
                acc = (acc.0 + pairs, acc.1.wrapping_add(checksum));
            }
        };
        std::thread::scope(|s| {
            let workers: Vec<_> = (1..self.threads).map(|_| s.spawn(drain)).collect();
            let mut acc = drain();
            for w in workers {
                let (pairs, checksum) = w.join().expect("reference workers do not panic");
                acc = (acc.0 + pairs, acc.1.wrapping_add(checksum));
            }
            acc
        })
    }

    /// A block of [`REPS`] timed reference joins, in ms.
    pub fn block(&mut self) -> Vec<f64> {
        (0..REPS)
            .map(|_| {
                let start = clock::now();
                black_box(self.join());
                clock::ms(clock::now() - start)
            })
            .collect()
    }
}

/// The scale of a segment timed between two blocks of reference joins:
/// [`REFERENCE_MS`] over the median reference time around it.
pub fn scale(before: &[f64], after: &[f64]) -> f64 {
    REFERENCE_MS / median(&[before, after].concat())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pairs a brute-force scan finds for every `stride`th querier.
    fn brute_force(grid: &Grid, stride: usize) -> (u64, u64) {
        let half = QUERY_SIDE / 2.0;
        let (mut pairs, mut checksum) = (0u64, 0u64);
        for i in (0..grid.xs.len()).step_by(stride) {
            let (x, y) = (grid.xs[i], grid.ys[i]);
            for j in 0..grid.xs.len() {
                let (px, py) = (grid.xs[j], grid.ys[j]);
                if px >= x - half && px <= x + half && py >= y - half && py <= y + half {
                    pairs += 1;
                    checksum = checksum.wrapping_add(pair_hash(i, j));
                }
            }
        }
        (pairs, checksum)
    }

    /// On one thread or several, the reference join finds exactly the pairs
    /// a brute-force scan finds, however the chunks fall.
    #[test]
    fn reference_join_matches_brute_force() {
        for threads in [1, 2, 3] {
            let mut reference = Reference::new(2 * CHUNK as u32 + 100, threads);
            let stride = (QUERY_STRIDE / threads).max(1);
            let expected = brute_force(&reference.grid, stride);
            assert!(
                expected.0 > 500,
                "the queries find their own points at least"
            );
            assert_eq!(reference.join(), expected, "{threads} threads");
            // Joining again over the rebuilt grid gives the same answer.
            assert_eq!(reference.join(), expected, "{threads} threads");
        }
    }

    #[test]
    fn scale_is_the_reference_time_over_the_median_around_the_segment() {
        // Median of [10, 40, 30, 20, 20, 50] is 25.
        let s = scale(&[10.0, 40.0, 30.0], &[20.0, 20.0, 50.0]);
        assert_eq!(s, REFERENCE_MS / 25.0);
        let mut reference = Reference::new(300, 2);
        let block = reference.block();
        assert_eq!(block.len(), REPS);
        assert!(block.iter().all(|&ms| ms > 0.0));
    }
}
