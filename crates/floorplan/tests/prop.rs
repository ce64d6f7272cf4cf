//! Property-based tests for the floorplanner: soundness of every witness
//! placement, capacity, monotonicity and cache transparency. Exactness of
//! the verdict against a brute-force oracle lives in `oracle.rs`.

use std::time::Duration;

use proptest::prelude::*;

use prfpga_floorplan::{
    FeasibilityCache, FloorplanOutcome, Floorplanner, FloorplannerConfig, DEFAULT_CACHE_CAPACITY,
};
use prfpga_model::{
    Architecture, CancelToken, Device, FabricColumn, FabricGeometry, Region, ResourceVec,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn planner() -> Floorplanner {
    Floorplanner::new(FloorplannerConfig {
        time_limit: Duration::from_secs(10),
        ..Default::default()
    })
}

/// Strategy: a small random column-based fabric.
fn arb_geometry() -> impl Strategy<Value = FabricGeometry> {
    (proptest::collection::vec(0u8..3, 1..10), 1u32..4).prop_map(|(cols, rows)| FabricGeometry {
        columns: cols
            .into_iter()
            .map(|c| match c {
                0 => FabricColumn::Clb,
                1 => FabricColumn::Bram,
                _ => FabricColumn::Dsp,
            })
            .collect(),
        rows,
    })
}

/// Strategy: a handful of region demands scaled to have a chance of
/// fitting the small grids above.
fn arb_demands() -> impl Strategy<Value = Vec<ResourceVec>> {
    proptest::collection::vec(
        (0u64..120, 0u64..25, 0u64..45).prop_map(|(c, b, d)| ResourceVec::new(c, b, d)),
        0..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Soundness: every Feasible witness is pairwise disjoint and every
    /// rectangle covers its region's demand.
    #[test]
    fn witnesses_are_sound(geom in arb_geometry(), demands in arb_demands()) {
        if let FloorplanOutcome::Feasible(rects) = planner().solve(&geom, &demands, &CancelToken::never()) {
            prop_assert_eq!(rects.len(), demands.len());
            for (i, r) in rects.iter().enumerate() {
                prop_assert!(demands[i].fits_in(&r.resources(&geom)),
                    "rect {r:?} does not cover {:?}", demands[i]);
                prop_assert!(r.col_end as usize <= geom.columns.len());
                prop_assert!(r.row_end <= geom.rows);
                for r2 in rects.iter().skip(i + 1) {
                    prop_assert!(!r.overlaps(r2), "{r:?} overlaps {r2:?}");
                }
            }
        }
    }

    /// Capacity is necessary: a total demand exceeding the grid is always
    /// Infeasible (never Feasible, never a false Timeout on these sizes).
    #[test]
    fn over_capacity_is_always_infeasible(geom in arb_geometry(), demands in arb_demands()) {
        let total: ResourceVec = demands.iter().copied().sum();
        prop_assume!(!total.fits_in(&geom.total_resources()));
        prop_assert_eq!(planner().solve(&geom, &demands, &CancelToken::never()), FloorplanOutcome::Infeasible);
    }

    /// Monotonicity: adding a region to an infeasible set keeps it
    /// infeasible; removing a region from a feasible set keeps it feasible.
    #[test]
    fn feasibility_is_monotone(geom in arb_geometry(), demands in arb_demands()) {
        prop_assume!(!demands.is_empty());
        let full = planner().solve(&geom, &demands, &CancelToken::never());
        let fewer = planner().solve(&geom, &demands[..demands.len() - 1], &CancelToken::never());
        match (full, fewer) {
            (FloorplanOutcome::Feasible(_), f) => prop_assert!(f.is_feasible()),
            (FloorplanOutcome::Infeasible, FloorplanOutcome::Infeasible) => {}
            (FloorplanOutcome::Infeasible, FloorplanOutcome::Feasible(_)) => {}
            // Timeouts do not occur within a 10 s budget at these sizes,
            // but tolerate them to keep the property about logic only.
            _ => {}
        }
    }

    /// The feasibility cache is transparent: its answer always carries the
    /// same verdict as a cold planner solve — on the first (miss) query,
    /// on a repeat (hit) query, and on any permutation of the demands —
    /// including Infeasible verdicts, and every Feasible witness it hands
    /// back is sound for the demand order actually asked.
    #[test]
    fn cache_verdicts_match_cold_solve(geom in arb_geometry(),
        demands in arb_demands(), seed in 0u64..u64::MAX) {
        let device = Device {
            name: "prop".into(),
            max_res: geom.total_resources(),
            bits_per_unit: [1, 1, 1],
            rec_freq: 1,
            geometry: Some(geom.clone()),
        };
        let cold = planner().check_device(&device, &demands, &CancelToken::never());
        // Timeouts never cache and do not occur at these sizes anyway.
        prop_assume!(!matches!(cold, FloorplanOutcome::Timeout));

        let sound = |rects: &[prfpga_floorplan::Rect], asked: &[ResourceVec]| {
            rects.len() == asked.len()
                && rects.iter().enumerate().all(|(i, r)| {
                    asked[i].fits_in(&r.resources(&geom))
                        && rects.iter().skip(i + 1).all(|r2| !r.overlaps(r2))
                })
        };

        let cache = FeasibilityCache::new(planner(), DEFAULT_CACHE_CAPACITY);
        for round in 0..2 {
            let got = cache.check_device(&device, &demands, &CancelToken::never());
            prop_assert_eq!(got.is_feasible(), cold.is_feasible(), "round {round}");
            if let FloorplanOutcome::Feasible(rects) = &got {
                prop_assert!(sound(rects, &demands), "round {round}: {rects:?}");
            }
        }
        prop_assert_eq!(cache.stats().hits, 1);
        prop_assert_eq!(cache.stats().misses, 1);

        let mut shuffled = demands.clone();
        shuffled.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
        let cold_shuffled = planner().check_device(&device, &shuffled, &CancelToken::never());
        let got = cache.check_device(&device, &shuffled, &CancelToken::never());
        prop_assert_eq!(got.is_feasible(), cold_shuffled.is_feasible());
        if let FloorplanOutcome::Feasible(rects) = &got {
            prop_assert!(sound(rects, &shuffled), "shuffled witness unsound: {rects:?}");
        }
        // Any permutation canonicalizes to the already-cached key.
        prop_assert_eq!(cache.stats().misses, 1);
    }

    /// Degeneracy: the architecture-level check on a single-device target
    /// is verdict- and witness-identical to the plain device solver on
    /// that device — the per-fabric grouping, sub-solving and witness
    /// stitching must all collapse to the identity.
    #[test]
    fn one_fabric_platform_matches_device_solver(geom in arb_geometry(),
        demands in arb_demands()) {
        let device = Device {
            name: "prop".into(),
            max_res: geom.total_resources(),
            bits_per_unit: [1, 1, 1],
            rec_freq: 1,
            geometry: Some(geom.clone()),
        };
        let via_device = planner().check_device(&device, &demands, &CancelToken::never());
        prop_assume!(!matches!(via_device, FloorplanOutcome::Timeout));

        let arch = Architecture::new(1, device);
        let regions: Vec<Region> = demands.iter().map(|&res| Region { res, fabric: 0 }).collect();
        let via_arch = planner().check(&arch, &regions, &CancelToken::never());
        prop_assert_eq!(via_arch, via_device);
    }

    /// Single-region queries agree with the candidate enumeration: a lone
    /// demand is feasible iff it has at least one minimal rectangle.
    #[test]
    fn single_region_matches_candidates(geom in arb_geometry(),
        c in 0u64..200, b in 0u64..40, d in 0u64..60) {
        let demand = ResourceVec::new(c, b, d);
        let outcome = planner().solve(&geom, &[demand], &CancelToken::never());
        let has_candidates =
            !prfpga_floorplan::candidates::minimal_rects(&geom, &demand).is_empty();
        prop_assert_eq!(outcome.is_feasible(), has_candidates);
    }
}
