//! Random PA instances for the property tests: shared by `tests/prop.rs`
//! and the phase unit tests, which include this file by path.

use proptest::prelude::*;

use prfpga_model::{
    Architecture, Device, ImplPool, Implementation, ProblemInstance, ResourceVec, TaskGraph, TaskId,
};

/// 2–14 tasks on one fabric with one or two cores; arcs point from lower
/// to higher task ids.
pub fn arb_instance() -> impl Strategy<Value = ProblemInstance> {
    (2usize..15).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0usize..n, 0usize..n), 0..n * 2);
        // One implementation in four runs in 0 ticks, software and
        // hardware alike: equal start times are where the phases'
        // tie-breaking decides, and a zero duration makes them common.
        let zero_or = |t: (u8, u64)| if t.0 == 0 { 0 } else { t.1 };
        let specs = proptest::collection::vec(
            (
                (0u8..4, 50u64..3000).prop_map(zero_or), // sw time
                proptest::option::of((
                    (0u8..4, 10u64..1000).prop_map(zero_or),
                    1u64..400,
                    0u64..20,
                    0u64..20,
                )),
            ),
            n,
        );
        let fabric = (50u64..1500, 0u64..50, 0u64..50);
        let cores = 1usize..3;
        (Just(n), edges, specs, fabric, cores).prop_map(|(_n, edges, specs, fab, cores)| {
            let device = Device::tiny_test(ResourceVec::new(fab.0, fab.1, fab.2), 13);
            let cap = device.max_res;
            let mut impls = ImplPool::new();
            let mut graph = TaskGraph::new();
            for (i, (sw_t, hw)) in specs.into_iter().enumerate() {
                let mut ids = vec![impls.add(Implementation::software(format!("s{i}"), sw_t))];
                if let Some((t, c, b, d)) = hw {
                    let res = ResourceVec::new(c, b, d);
                    if res.fits_in(&cap) {
                        ids.push(impls.add(Implementation::hardware(format!("h{i}"), t, res)));
                    }
                }
                graph.add_task(format!("t{i}"), ids);
            }
            for (a, b) in edges {
                let (lo, hi) = (a.min(b), a.max(b));
                if lo != hi {
                    graph.add_edge(TaskId(lo as u32), TaskId(hi as u32));
                }
            }
            ProblemInstance::new("prop", Architecture::new(cores, device), graph, impls).unwrap()
        })
    })
}
