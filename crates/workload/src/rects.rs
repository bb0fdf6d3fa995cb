//! The uniform moving-rectangle workload — the extent counterpart of
//! [`crate::UniformWorkload`], driving the **intersects** predicate
//! (`--join intersect:rects`).
//!
//! Rectangles get a uniform random size per axis in `[0, query_side]`
//! (the Table 1 query-size knob doubles as the maximum extent side, so
//! the rect workload's selectivity is comparable to the point
//! workloads') and a uniform random placement such that the whole
//! rectangle starts inside the space. Movement is linear with boundary
//! bounce, size preserved ([`MovingExtentSet::advance_bouncing`]). Each
//! tick a Bernoulli(`frac_queriers`) coin decides per object whether it
//! queries — in the intersection self-join its query region *is* its own
//! extent — and Bernoulli(`frac_updaters`) whether it draws a fresh
//! random velocity.

use sj_base::driver::{ExtentTickActions, ExtentWorkload};
use sj_base::geom::Rect;
use sj_base::rng::Xoshiro256;
use sj_base::table::{entry_id, MovingExtentSet};

use crate::params::WorkloadParams;
use crate::uniform::random_velocity;

/// See module docs.
///
/// ```
/// use sj_base::ExtentWorkload;
/// use sj_workload::{RectsWorkload, WorkloadParams};
///
/// let params = WorkloadParams { num_points: 1_000, ..WorkloadParams::default() };
/// let mut workload = RectsWorkload::new(params);
/// let set = workload.init();
/// assert_eq!(set.len(), 1_000);
/// let space = workload.space();
/// assert!(space.contains_rect(&set.table.rect(0)));
/// ```
#[derive(Clone, Debug)]
pub struct RectsWorkload {
    params: WorkloadParams,
    /// Independent streams, as in the point workloads: sweeping the query
    /// fraction must not change object trajectories.
    rng_place: Xoshiro256,
    rng_query: Xoshiro256,
    rng_update: Xoshiro256,
}

impl RectsWorkload {
    pub fn new(params: WorkloadParams) -> Self {
        debug_assert!(params.validate().is_ok());
        let mut root = Xoshiro256::seeded(params.seed);
        RectsWorkload {
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

impl ExtentWorkload for RectsWorkload {
    fn space(&self) -> Rect {
        Rect::space(self.params.space_side)
    }

    fn init(&mut self) -> MovingExtentSet {
        let n = self.params.num_points as usize;
        let side = self.params.space_side;
        let max_extent = self.params.query_side.min(side);
        let mut set = MovingExtentSet::with_capacity(n);
        for _ in 0..n {
            let w = self.rng_place.range_f32(0.0, max_extent);
            let h = self.rng_place.range_f32(0.0, max_extent);
            let x = self.rng_place.range_f32(0.0, side - w);
            let y = self.rng_place.range_f32(0.0, side - h);
            let v = random_velocity(&mut self.rng_place, self.params.max_speed);
            set.push(Rect::new(x, y, x + w, y + h), v);
        }
        set
    }

    fn plan_tick(&mut self, _tick: u32, set: &MovingExtentSet, actions: &mut ExtentTickActions) {
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
    fn init_places_whole_rectangles_inside_space() {
        let mut w = RectsWorkload::new(small_params());
        let set = w.init();
        assert_eq!(set.len(), 2_000);
        let space = w.space();
        let max = small_params().query_side;
        for (_, r) in set.table.iter() {
            assert!(space.contains_rect(&r), "{r:?}");
            assert!(r.width() <= max && r.height() <= max, "{r:?}");
        }
    }

    #[test]
    fn same_seed_gives_identical_populations_and_plans() {
        let mk = || {
            let mut w = RectsWorkload::new(small_params());
            let set = w.init();
            let mut a = ExtentTickActions::default();
            w.plan_tick(0, &set, &mut a);
            (
                set.table.rect(7),
                a.queriers.len(),
                a.velocity_updates.len(),
            )
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn querier_fraction_is_close_to_parameter() {
        let mut w = RectsWorkload::new(small_params());
        let set = w.init();
        let mut actions = ExtentTickActions::default();
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
    fn movement_preserves_sizes_and_containment() {
        let mut w = RectsWorkload::new(small_params());
        let mut set = w.init();
        let sizes: Vec<(f32, f32)> = set
            .table
            .iter()
            .map(|(_, r)| (r.width(), r.height()))
            .collect();
        let space = w.space();
        for _ in 0..50 {
            w.advance(&mut set);
        }
        for ((_, r), &(w0, h0)) in set.table.iter().zip(&sizes) {
            assert!(space.contains_rect(&r), "{r:?}");
            // Sizes are preserved up to float rounding of the corner
            // translation (one ulp of `x + w` per tick).
            assert!((r.width() - w0).abs() < 0.5, "{r:?} vs width {w0}");
            assert!((r.height() - h0).abs() < 0.5, "{r:?} vs height {h0}");
        }
    }

    #[test]
    fn different_seeds_give_different_placements() {
        let mut w1 = RectsWorkload::new(WorkloadParams {
            seed: 1,
            ..small_params()
        });
        let mut w2 = RectsWorkload::new(WorkloadParams {
            seed: 2,
            ..small_params()
        });
        let (s1, s2) = (w1.init(), w2.init());
        let same = (0..100u32)
            .filter(|&i| s1.table.rect(i) == s2.table.rect(i))
            .count();
        assert_eq!(same, 0);
    }
}
