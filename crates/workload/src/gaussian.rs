//! The Gaussian (hotspot) synthetic workload (Table 1, right column).
//!
//! Objects are placed around a fixed set of hotspots and their movements
//! follow a Gaussian-like distribution: each tick an object's velocity is
//! re-drawn as a pull towards its hotspot plus Gaussian noise, capped at
//! the maximum speed. Fewer hotspots mean denser clusters, which is what
//! Figure 2b sweeps (1 .. 1000 hotspots, log scale): range queries centred
//! on cluster members return many results, stressing every technique's
//! per-result costs.
//!
//! Table 1 lists "% Updaters" as N/A for this workload — movement updates
//! are an inherent part of the Gaussian process, so every object re-draws
//! its velocity every tick.

use sj_base::driver::{TickActions, Workload};
use sj_base::geom::{Point, Rect, Vec2};
use sj_base::rng::{mix64, Xoshiro256};
use sj_base::table::{entry_id, MovingSet};

use crate::params::GaussianParams;

/// See module docs.
#[derive(Clone, Debug)]
pub struct GaussianWorkload {
    params: GaussianParams,
    hotspots: Vec<Point>,
    /// Hotspot each object is attracted to (index into `hotspots`).
    assignment: Vec<u32>,
    rng_place: Xoshiro256,
    rng_query: Xoshiro256,
    rng_move: Xoshiro256,
}

impl GaussianWorkload {
    pub fn new(params: GaussianParams) -> Self {
        debug_assert!(params.validate().is_ok());
        let mut root = Xoshiro256::seeded(params.base.seed);
        let mut rng_place = root.fork();
        let rng_query = root.fork();
        let rng_move = root.fork();

        let side = params.base.space_side;
        let hotspots = (0..params.hotspots)
            .map(|_| {
                Point::new(
                    rng_place.range_f32(0.0, side),
                    rng_place.range_f32(0.0, side),
                )
            })
            .collect();

        GaussianWorkload {
            params,
            hotspots,
            assignment: Vec::new(),
            rng_place,
            rng_query,
            rng_move,
        }
    }

    pub fn params(&self) -> &GaussianParams {
        &self.params
    }

    pub fn hotspots(&self) -> &[Point] {
        &self.hotspots
    }

    /// Gaussian displacement around a hotspot, clamped into the space.
    fn place_around(&mut self, h: Point) -> Point {
        let side = self.params.base.space_side;
        let sigma = self.params.sigma;
        let x = (h.x + self.rng_place.gaussian() * sigma).clamp(0.0, side);
        let y = (h.y + self.rng_place.gaussian() * sigma).clamp(0.0, side);
        Point::new(x, y)
    }

    /// The Gaussian movement step: pull towards the hotspot proportional to
    /// distance (an Ornstein–Uhlenbeck-style mean reversion) plus isotropic
    /// Gaussian noise, capped at max speed.
    fn step_velocity(&mut self, pos: Point, hotspot: Point) -> Vec2 {
        let max = self.params.base.max_speed;
        let sigma_v = max * 0.5;
        // Reversion rate chosen so an object sigma away from its hotspot
        // drifts back over ~sigma/max_speed ticks.
        let pull = 0.1f32;
        let v = Vec2::new(
            (hotspot.x - pos.x) * pull + self.rng_move.gaussian() * sigma_v,
            (hotspot.y - pos.y) * pull + self.rng_move.gaussian() * sigma_v,
        );
        v.clamp_len(max)
    }
}

impl Workload for GaussianWorkload {
    fn space(&self) -> Rect {
        Rect::space(self.params.base.space_side)
    }

    fn query_side(&self) -> f32 {
        self.params.base.query_side
    }

    fn init(&mut self) -> MovingSet {
        let n = self.params.base.num_points as usize;
        let k = self.hotspots.len();
        let mut set = MovingSet::with_capacity(n);
        self.assignment.clear();
        self.assignment.reserve(n);
        for _ in 0..n {
            let h_idx = self.rng_place.range_usize(k);
            let h = self.hotspots[h_idx];
            let p = self.place_around(h);
            let v = self.step_velocity(p, h);
            self.assignment.push(h_idx as u32);
            set.push(p, v);
        }
        set
    }

    fn plan_tick(&mut self, _tick: u32, set: &MovingSet, actions: &mut TickActions) {
        let n = entry_id(set.len());
        // Objects inserted from outside (a churn wrapper's arrivals) have
        // no hotspot yet: adopt them with a deterministic per-id
        // assignment, independent of every RNG stream.
        let k = self.hotspots.len() as u64;
        while self.assignment.len() < n as usize {
            let id = self.assignment.len() as u64;
            self.assignment
                .push((mix64(id ^ self.params.base.seed) % k) as u32);
        }
        for id in 0..n {
            if self.rng_query.bernoulli(self.params.base.frac_queriers) {
                actions.queriers.push(id);
            }
        }
        // Every object re-draws its velocity every tick (updaters N/A).
        // Dead rows still consume their draws, keeping the streams aligned
        // whether or not a churn wrapper later filters them out.
        for id in 0..n {
            let h = self.hotspots[self.assignment[id as usize] as usize];
            let v = self.step_velocity(set.table.point(id), h);
            actions.velocity_updates.push((id, v.x, v.y));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::WorkloadParams;

    fn small_params(hotspots: u32) -> GaussianParams {
        GaussianParams {
            base: WorkloadParams {
                num_points: 2_000,
                space_side: 10_000.0,
                ticks: 10,
                ..WorkloadParams::default()
            },
            hotspots,
            sigma: 400.0,
        }
    }

    #[test]
    fn init_stays_inside_space() {
        let mut w = GaussianWorkload::new(small_params(4));
        let set = w.init();
        let space = w.space();
        for (_, p) in set.table.iter() {
            assert!(space.contains_point(p.x, p.y));
        }
    }

    #[test]
    fn points_cluster_near_their_hotspots() {
        let mut w = GaussianWorkload::new(small_params(4));
        let set = w.init();
        let sigma = w.params().sigma;
        let mut within = 0usize;
        for (id, p) in set.table.iter() {
            let h = w.hotspots()[w.assignment[id as usize] as usize];
            if p.dist2(&h).sqrt() <= 3.0 * sigma * std::f32::consts::SQRT_2 {
                within += 1;
            }
        }
        // Nearly everything lies within 3 sigma (per axis) of its hotspot;
        // clamping to the space can only pull points closer.
        let frac = within as f64 / set.len() as f64;
        assert!(frac > 0.98, "fraction near hotspot: {frac}");
    }

    #[test]
    fn fewer_hotspots_means_denser_clusters() {
        let density = |hotspots: u32| {
            let mut w = GaussianWorkload::new(small_params(hotspots));
            let set = w.init();
            // Count points inside one query-sized box at the first hotspot.
            let q = Rect::centered_square(w.hotspots()[0], 400.0);
            set.table
                .iter()
                .filter(|(_, p)| q.contains_point(p.x, p.y))
                .count()
        };
        let dense = density(1);
        let sparse = density(64);
        assert!(
            dense > sparse * 4,
            "1 hotspot box: {dense}, 64 hotspots box: {sparse}"
        );
    }

    #[test]
    fn every_object_updates_every_tick() {
        let mut w = GaussianWorkload::new(small_params(4));
        let set = w.init();
        let mut a = TickActions::default();
        w.plan_tick(0, &set, &mut a);
        assert_eq!(a.velocity_updates.len(), set.len());
    }

    #[test]
    fn velocities_respect_max_speed() {
        let mut w = GaussianWorkload::new(small_params(4));
        let set = w.init();
        let mut a = TickActions::default();
        w.plan_tick(0, &set, &mut a);
        let max = w.params().base.max_speed;
        for &(_, vx, vy) in &a.velocity_updates {
            assert!(Vec2::new(vx, vy).len() <= max * 1.0001);
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let mk = || {
            let mut w = GaussianWorkload::new(small_params(8));
            let set = w.init();
            (w.hotspots()[3], set.table.point(100))
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn objects_remain_clustered_after_many_ticks() {
        // The mean-reverting movement model must not diffuse clusters away,
        // or Figure 2b's density effect would decay over the run.
        let mut w = GaussianWorkload::new(small_params(2));
        let mut set = w.init();
        let mut a = TickActions::default();
        for t in 0..50 {
            a.clear();
            w.plan_tick(t, &set, &mut a);
            for &(id, vx, vy) in &a.velocity_updates {
                set.set_velocity(id, Vec2::new(vx, vy));
            }
            w.advance(&mut set);
        }
        let sigma = w.params().sigma;
        let mut near = 0usize;
        for (id, p) in set.table.iter() {
            let h = w.hotspots()[w.assignment[id as usize] as usize];
            if p.dist2(&h).sqrt() <= 6.0 * sigma {
                near += 1;
            }
        }
        let frac = near as f64 / set.len() as f64;
        assert!(
            frac > 0.9,
            "fraction still clustered after 50 ticks: {frac}"
        );
    }
}
