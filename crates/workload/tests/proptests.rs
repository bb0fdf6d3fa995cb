//! Property-based tests for the workload generators: structural
//! invariants over arbitrary parameter combinations.

use proptest::prelude::*;
use sj_base::driver::{TickActions, Workload};
use sj_base::geom::Vec2;
use sj_workload::{GaussianParams, GaussianWorkload, UniformWorkload, WorkloadParams};

fn arb_params() -> impl Strategy<Value = WorkloadParams> {
    (
        100u32..2_000,        // num_points
        1_000.0f32..20_000.0, // space_side
        0.0f32..300.0,        // max_speed
        0.0f32..=1.0,         // frac_queriers
        0.0f32..=1.0,         // frac_updaters
        any::<u64>(),         // seed
    )
        .prop_map(|(n, side, speed, fq, fu, seed)| WorkloadParams {
            ticks: 3,
            num_points: n,
            space_side: side,
            max_speed: speed,
            query_side: 400.0,
            frac_queriers: fq,
            frac_updaters: fu,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn uniform_population_respects_all_bounds(params in arb_params()) {
        let mut w = UniformWorkload::new(params);
        let set = w.init();
        prop_assert_eq!(set.len(), params.num_points as usize);
        let space = w.space();
        for (id, p) in set.table.iter() {
            prop_assert!(space.contains_point(p.x, p.y));
            prop_assert!(set.velocity(id).len() <= params.max_speed * 1.001 + 1e-3);
        }
    }

    #[test]
    fn planned_actions_reference_valid_objects(params in arb_params()) {
        let mut w = UniformWorkload::new(params);
        let set = w.init();
        let mut actions = TickActions::default();
        for tick in 0..3 {
            actions.clear();
            w.plan_tick(tick, &set, &mut actions);
            for &q in &actions.queriers {
                prop_assert!((q as usize) < set.len());
            }
            for &(id, vx, vy) in &actions.velocity_updates {
                prop_assert!((id as usize) < set.len());
                prop_assert!(Vec2::new(vx, vy).len() <= params.max_speed * 1.001 + 1e-3);
            }
        }
    }

    #[test]
    fn movement_stays_inside_space_for_many_ticks(params in arb_params()) {
        let mut w = UniformWorkload::new(params);
        let mut set = w.init();
        let space = w.space();
        let mut actions = TickActions::default();
        for tick in 0..10 {
            actions.clear();
            w.plan_tick(tick, &set, &mut actions);
            for &(id, vx, vy) in &actions.velocity_updates {
                set.set_velocity(id, Vec2::new(vx, vy));
            }
            w.advance(&mut set);
        }
        for (_, p) in set.table.iter() {
            prop_assert!(space.contains_point(p.x, p.y), "escaped: {p:?}");
        }
    }

    #[test]
    fn gaussian_population_respects_bounds(
        base in arb_params(),
        hotspots in 1u32..64,
        sigma in 10.0f32..2_000.0,
    ) {
        let params = GaussianParams { base, hotspots, sigma };
        let mut w = GaussianWorkload::new(params);
        let set = w.init();
        let space = w.space();
        prop_assert_eq!(w.hotspots().len(), hotspots as usize);
        for (_, p) in set.table.iter() {
            prop_assert!(space.contains_point(p.x, p.y));
        }
    }
}
