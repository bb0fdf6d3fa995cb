//! Road-grid ("simulation-like") workload.
//!
//! The original framework's third workload class comes from a traffic
//! simulator; the paper reports that the synthetic trends also hold
//! there. The simulator and its input data are not available, so this
//! module provides the closest synthetic equivalent that exercises the
//! same code paths (DESIGN.md §3): a **Manhattan mobility model**.
//! Objects move along the lines of a regular road grid; at every
//! intersection they turn with some probability. The resulting density is
//! highly skewed — mass concentrates on 1-D lines instead of filling the
//! plane — which is exactly what stresses indexes differently than the
//! uniform workload: most grid cells are crossed by two roads, query
//! windows straddle dense lines, and tree MBRs become elongated.

use sj_base::driver::{TickActions, Workload};
use sj_base::geom::{Point, Rect, Vec2};
use sj_base::rng::{mix64, Xoshiro256};
use sj_base::table::{entry_id, MovingSet};

use crate::params::WorkloadParams;

/// Travel direction along a road.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    East,
    West,
    North,
    South,
}

impl Dir {
    fn velocity(self, speed: f32) -> Vec2 {
        match self {
            Dir::East => Vec2::new(speed, 0.0),
            Dir::West => Vec2::new(-speed, 0.0),
            Dir::North => Vec2::new(0.0, speed),
            Dir::South => Vec2::new(0.0, -speed),
        }
    }

    fn from_index(i: usize) -> Dir {
        [Dir::East, Dir::West, Dir::North, Dir::South][i % 4]
    }

    fn is_horizontal(self) -> bool {
        matches!(self, Dir::East | Dir::West)
    }
}

/// See module docs.
pub struct RoadGridWorkload {
    params: WorkloadParams,
    /// Roads per direction; road k runs at coordinate `k * spacing`.
    roads_per_side: u32,
    spacing: f32,
    /// Probability of turning at an intersection.
    turn_prob: f32,
    /// Per-object state (parallel to the MovingSet).
    dirs: Vec<Dir>,
    speeds: Vec<f32>,
    rng_place: Xoshiro256,
    rng_query: Xoshiro256,
    rng_move: Xoshiro256,
}

impl RoadGridWorkload {
    /// # Panics
    /// Panics on invalid base parameters, `roads_per_side < 2`, or a
    /// max speed that could cross more than one intersection per tick
    /// (the turning logic handles one crossing per tick).
    pub fn new(params: WorkloadParams, roads_per_side: u32, turn_prob: f32) -> Self {
        params.validate().expect("invalid workload parameters");
        assert!(roads_per_side >= 2, "need at least two roads per side");
        let spacing = params.space_side / roads_per_side as f32;
        assert!(
            params.max_speed < spacing,
            "max_speed {} must be below the road spacing {spacing}",
            params.max_speed
        );
        assert!(
            (0.0..=1.0).contains(&turn_prob),
            "turn_prob must be in [0, 1]"
        );
        let mut root = Xoshiro256::seeded(params.seed ^ 0x524F_4144);
        RoadGridWorkload {
            params,
            roads_per_side,
            spacing,
            turn_prob,
            dirs: Vec::new(),
            speeds: Vec::new(),
            rng_place: root.fork(),
            rng_query: root.fork(),
            rng_move: root.fork(),
        }
    }

    /// Defaults: 40 roads per side, 30 % turn probability.
    pub fn with_defaults(params: WorkloadParams) -> Self {
        Self::new(params, 40, 0.3)
    }

    pub fn spacing(&self) -> f32 {
        self.spacing
    }

    /// Grow the per-object state to cover `n` objects. Objects inserted
    /// from outside (a churn wrapper's arrivals) get a deterministic
    /// per-id direction and a mid-range speed, independent of every RNG
    /// stream — they merge into the traffic from wherever they spawned.
    fn ensure_state(&mut self, n: usize) {
        while self.dirs.len() < n {
            let id = self.dirs.len() as u64;
            self.dirs
                .push(Dir::from_index(mix64(id ^ self.params.seed) as usize));
            self.speeds.push(self.params.max_speed * 0.6);
        }
    }

    /// Coordinate of the nearest road line at or below `v`.
    fn snap(&self, v: f32) -> f32 {
        let k = (v / self.spacing)
            .round()
            .min((self.roads_per_side - 1) as f32)
            .max(0.0);
        k * self.spacing
    }
}

impl Workload for RoadGridWorkload {
    fn space(&self) -> Rect {
        Rect::space(self.params.space_side)
    }

    fn query_side(&self) -> f32 {
        self.params.query_side
    }

    fn init(&mut self) -> MovingSet {
        let n = self.params.num_points as usize;
        let side = self.params.space_side;
        let mut set = MovingSet::with_capacity(n);
        self.dirs.clear();
        self.speeds.clear();
        for _ in 0..n {
            let dir = Dir::from_index(self.rng_place.range_usize(4));
            // Place the object on a random road of the matching
            // orientation, at a random offset along it.
            let raw = self.rng_place.range_f32(0.0, side);
            let road = self.snap(raw);
            let offset = self.rng_place.range_f32(0.0, side);
            let pos = if dir.is_horizontal() {
                Point::new(offset, road)
            } else {
                Point::new(road, offset)
            };
            let speed = self
                .rng_place
                .range_f32(self.params.max_speed * 0.2, self.params.max_speed);
            self.dirs.push(dir);
            self.speeds.push(speed);
            set.push(pos, dir.velocity(speed));
        }
        set
    }

    fn plan_tick(&mut self, _tick: u32, set: &MovingSet, actions: &mut TickActions) {
        let n = entry_id(set.len());
        for id in 0..n {
            if self.rng_query.bernoulli(self.params.frac_queriers) {
                actions.queriers.push(id);
            }
        }
        // Velocity changes happen inside `advance` (the mobility model is
        // the updater); the explicit update list stays empty.
    }

    fn advance(&mut self, set: &mut MovingSet) {
        let side = self.params.space_side;
        self.ensure_state(set.len());
        for i in 0..set.len() {
            let id = entry_id(i);
            if !set.is_live(id) {
                continue;
            }
            let p = set.table.point(id);
            let dir = self.dirs[i];
            let speed = self.speeds[i];
            let v = dir.velocity(speed);
            let mut nx = p.x + v.x;
            let mut ny = p.y + v.y;

            // Reverse at the boundary (roads end at the space edge).
            if !(0.0..=side).contains(&nx) || !(0.0..=side).contains(&ny) {
                let flipped = match dir {
                    Dir::East => Dir::West,
                    Dir::West => Dir::East,
                    Dir::North => Dir::South,
                    Dir::South => Dir::North,
                };
                self.dirs[i] = flipped;
                nx = p.x.clamp(0.0, side);
                ny = p.y.clamp(0.0, side);
                set.table.set_position(id, nx, ny);
                set.set_velocity(id, flipped.velocity(speed));
                continue;
            }

            // Did we cross an intersection this tick? (At most one:
            // speed < spacing.)
            let along_before = if dir.is_horizontal() { p.x } else { p.y };
            let along_after = if dir.is_horizontal() { nx } else { ny };
            let cell_before = (along_before / self.spacing).floor();
            let cell_after = (along_after / self.spacing).floor();
            if cell_before != cell_after && self.rng_move.bernoulli(self.turn_prob) {
                // Turn: snap to the intersection and pick a new direction.
                let crossing = cell_before.max(cell_after) * self.spacing;
                let new_dir = Dir::from_index(self.rng_move.range_usize(4));
                if dir.is_horizontal() {
                    nx = crossing;
                    ny = self.snap(p.y);
                } else {
                    ny = crossing;
                    nx = self.snap(p.x);
                }
                self.dirs[i] = new_dir;
                set.set_velocity(id, new_dir.velocity(speed));
            }
            set.table
                .set_position(id, nx.clamp(0.0, side), ny.clamp(0.0, side));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> WorkloadParams {
        WorkloadParams {
            num_points: 1_000,
            space_side: 8_000.0,
            max_speed: 150.0,
            ticks: 10,
            ..WorkloadParams::default()
        }
    }

    fn on_a_road(w: &RoadGridWorkload, p: Point) -> bool {
        let near = |v: f32| {
            let k = (v / w.spacing()).round();
            (v - k * w.spacing()).abs() < 1e-2
        };
        near(p.x) || near(p.y)
    }

    #[test]
    fn objects_start_on_roads() {
        let mut w = RoadGridWorkload::with_defaults(small_params());
        let set = w.init();
        for (_, p) in set.table.iter() {
            assert!(on_a_road(&w, p), "{p:?} is off-road");
        }
    }

    #[test]
    fn objects_stay_on_roads_and_in_space() {
        let mut w = RoadGridWorkload::with_defaults(small_params());
        let mut set = w.init();
        let space = w.space();
        let mut actions = TickActions::default();
        for tick in 0..50 {
            actions.clear();
            w.plan_tick(tick, &set, &mut actions);
            w.advance(&mut set);
            for (_, p) in set.table.iter() {
                assert!(space.contains_point(p.x, p.y), "tick {tick}: escaped {p:?}");
                assert!(on_a_road(&w, p), "tick {tick}: off-road {p:?}");
            }
        }
    }

    #[test]
    fn density_is_concentrated_on_lines() {
        // A query window centred between roads (no road through it) must
        // be empty; the same window centred on a road is not.
        let mut w = RoadGridWorkload::new(small_params(), 8, 0.3); // spacing 1000
        let set = w.init();
        let off_road = Rect::new(1_100.0, 1_100.0, 1_900.0, 1_900.0); // strictly between lines
        let hits = set
            .table
            .iter()
            .filter(|(_, p)| off_road.contains_point(p.x, p.y))
            .count();
        assert_eq!(hits, 0, "objects found between roads");
    }

    #[test]
    fn deterministic_by_seed() {
        let mk = || {
            let mut w = RoadGridWorkload::with_defaults(small_params());
            let mut set = w.init();
            for _ in 0..10 {
                w.advance(&mut set);
            }
            set.table.point(123)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn turns_actually_happen() {
        let mut w = RoadGridWorkload::new(small_params(), 40, 1.0); // always turn
        let mut set = w.init();
        let initial_dirs = w.dirs.clone();
        for _ in 0..20 {
            w.advance(&mut set);
        }
        let changed = w
            .dirs
            .iter()
            .zip(&initial_dirs)
            .filter(|(a, b)| a != b)
            .count();
        assert!(
            changed > set.len() / 4,
            "only {changed} objects ever turned"
        );
    }

    #[test]
    fn too_fast_for_the_grid_is_rejected() {
        let params = WorkloadParams {
            max_speed: 5_000.0, // spacing at 40 roads over 8000 is 200
            ..small_params()
        };
        let r = std::panic::catch_unwind(|| RoadGridWorkload::new(params, 40, 0.3));
        assert!(r.is_err());
    }
}
