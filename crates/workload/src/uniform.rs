//! The uniform synthetic workload (Table 1, left column; based on the
//! Chen/Jensen/Lin moving-object benchmark the paper's framework uses).
//!
//! Objects are placed at random locations in the data space; speeds and
//! directions are chosen at random. Each tick a Bernoulli(`frac_queriers`)
//! coin decides per object whether it queries, and Bernoulli
//! (`frac_updaters`) whether it draws a fresh random velocity.

use sj_base::driver::{TickActions, Workload};
use sj_base::geom::{Point, Rect, Vec2};
use sj_base::rng::Xoshiro256;
use sj_base::table::{entry_id, MovingSet};

use crate::params::WorkloadParams;

/// See module docs.
///
/// ```
/// use sj_base::Workload;
/// use sj_workload::{UniformWorkload, WorkloadParams};
///
/// let params = WorkloadParams { num_points: 1_000, ..WorkloadParams::default() };
/// let mut workload = UniformWorkload::new(params);
/// let set = workload.init();
/// assert_eq!(set.len(), 1_000);
/// let space = workload.space();
/// let p = set.table.point(0);
/// assert!(space.contains_point(p.x, p.y));
/// ```
#[derive(Clone, Debug)]
pub struct UniformWorkload {
    params: WorkloadParams,
    /// Independent streams so, e.g., sweeping the query fraction does not
    /// change object trajectories.
    rng_place: Xoshiro256,
    rng_query: Xoshiro256,
    rng_update: Xoshiro256,
}

/// Sample a velocity with uniform direction and uniform speed in
/// `[0, max_speed]`.
pub(crate) fn random_velocity(rng: &mut Xoshiro256, max_speed: f32) -> Vec2 {
    let theta = rng.range_f32(0.0, std::f32::consts::TAU);
    let speed = rng.range_f32(0.0, max_speed);
    Vec2::new(speed * theta.cos(), speed * theta.sin())
}

impl UniformWorkload {
    pub fn new(params: WorkloadParams) -> Self {
        debug_assert!(params.validate().is_ok());
        let mut root = Xoshiro256::seeded(params.seed);
        UniformWorkload {
            params,
            rng_place: root.fork(),
            rng_query: root.fork(),
            rng_update: root.fork(),
        }
    }

    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }
}

impl Workload for UniformWorkload {
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
        for _ in 0..n {
            let p = Point::new(
                self.rng_place.range_f32(0.0, side),
                self.rng_place.range_f32(0.0, side),
            );
            let v = random_velocity(&mut self.rng_place, self.params.max_speed);
            set.push(p, v);
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
        for id in 0..n {
            if self.rng_update.bernoulli(self.params.frac_updaters) {
                let v = random_velocity(&mut self.rng_update, self.params.max_speed);
                actions.velocity_updates.push((id, v.x, v.y));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> WorkloadParams {
        WorkloadParams {
            num_points: 2_000,
            space_side: 10_000.0,
            ..WorkloadParams::default()
        }
    }

    #[test]
    fn init_places_points_inside_space() {
        let mut w = UniformWorkload::new(small_params());
        let set = w.init();
        assert_eq!(set.len(), 2_000);
        let space = w.space();
        for (_, p) in set.table.iter() {
            assert!(space.contains_point(p.x, p.y));
        }
    }

    #[test]
    fn initial_speeds_respect_max() {
        let mut w = UniformWorkload::new(small_params());
        let set = w.init();
        for i in 0..entry_id(set.len()) {
            assert!(set.velocity(i).len() <= small_params().max_speed * 1.0001);
        }
    }

    #[test]
    fn querier_fraction_is_close_to_parameter() {
        let mut w = UniformWorkload::new(small_params());
        let set = w.init();
        let mut actions = TickActions::default();
        let mut total = 0usize;
        let ticks = 20;
        for t in 0..ticks {
            actions.clear();
            w.plan_tick(t, &set, &mut actions);
            total += actions.queriers.len();
        }
        let rate = total as f64 / (ticks as usize * set.len()) as f64;
        assert!((rate - 0.5).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn same_seed_gives_identical_plans() {
        let mk = || {
            let mut w = UniformWorkload::new(small_params());
            let set = w.init();
            let mut a = TickActions::default();
            w.plan_tick(0, &set, &mut a);
            (
                set.table.point(7),
                a.queriers.len(),
                a.velocity_updates.len(),
            )
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn different_seeds_give_different_placements() {
        let mut w1 = UniformWorkload::new(WorkloadParams {
            seed: 1,
            ..small_params()
        });
        let mut w2 = UniformWorkload::new(WorkloadParams {
            seed: 2,
            ..small_params()
        });
        let (s1, s2) = (w1.init(), w2.init());
        let same = (0..100)
            .filter(|&i| s1.table.point(i) == s2.table.point(i))
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn placement_covers_the_space_roughly_uniformly() {
        // Chi-squared-lite: each quadrant should hold about a quarter.
        let mut w = UniformWorkload::new(small_params());
        let set = w.init();
        let half = 5_000.0;
        let mut counts = [0usize; 4];
        for (_, p) in set.table.iter() {
            let qx = usize::from(p.x >= half);
            let qy = usize::from(p.y >= half);
            counts[qx * 2 + qy] += 1;
        }
        for c in counts {
            let frac = c as f64 / set.len() as f64;
            assert!((frac - 0.25).abs() < 0.05, "quadrant fraction {frac}");
        }
    }

    #[test]
    fn updates_change_velocities_over_time() {
        let mut w = UniformWorkload::new(small_params());
        let set = w.init();
        let mut actions = TickActions::default();
        w.plan_tick(0, &set, &mut actions);
        assert!(!actions.velocity_updates.is_empty());
        for &(id, vx, vy) in &actions.velocity_updates {
            assert!((id as usize) < set.len());
            assert!(Vec2::new(vx, vy).len() <= small_params().max_speed * 1.0001);
        }
    }
}
