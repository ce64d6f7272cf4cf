//! Memoized floorplan-feasibility answers.
//!
//! The schedulers ask the floorplanner the same question over and over:
//! *does this multiset of region demands fit this device?* Under PA's
//! capacity-shrinking restart loop and especially under PA-R's
//! virtual-capacity ratchet, the same demand multiset recurs across
//! iterations (candidate schedules built on a shrunken virtual device
//! keep producing the same few region sizings in different orders).
//! [`FeasibilityCache`] memoizes the exact verdict behind a canonical key:
//! the demand list *sorted*, plus a fingerprint of the device geometry.
//!
//! Cached entries store only exact answers — [`FloorplanOutcome::Feasible`]
//! witnesses and [`FloorplanOutcome::Infeasible`] proofs.
//! [`FloorplanOutcome::Timeout`] is never cached: the caller's token or the
//! wall-clock backstop may have cut the search short, and even a search
//! that used up the node budget is a statement about one demand order —
//! the search breaks ties by region index, so a permutation under the same
//! canonical key can spend the budget differently.
//!
//! A hit for a *permuted* demand list remaps the stored witness rectangles
//! back to the caller's demand order (sound because sorted-equal demands
//! are identical), so a cached `Feasible` answer always carries one valid
//! rectangle per region, in region order, exactly like a cold solve.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use prfpga_model::{Architecture, CancelToken, Device, FabricGeometry, Region, ResourceVec};

use crate::rect::Rect;
use crate::solver::{FloorplanOutcome, Floorplanner, Solved};

/// Default entry bound for caches created by [`FeasibilityCache::new`]
/// via the schedulers; generous for any realistic restart/ratchet loop.
pub const DEFAULT_CACHE_CAPACITY: usize = 512;

/// Hit/miss counters of a [`FeasibilityCache`], and the verdict mix of
/// its cold solves (`feasible + infeasible + timeouts == misses`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that fell through to a cold solve.
    pub misses: u64,
    /// Cold solves that found a placement.
    pub feasible: u64,
    /// Cold solves that proved no placement exists.
    pub infeasible: u64,
    /// The part of `infeasible` settled at the root by the column-segment
    /// coverage bound, without any search.
    pub root_infeasible: u64,
    /// Cold solves that gave up undecided: the node budget ran out, or the
    /// caller's token or the time limit fired.
    pub timeouts: u64,
    /// DFS nodes (placement attempts, see [`NODE_BUDGET`]) over all cold
    /// solves.
    ///
    /// [`NODE_BUDGET`]: crate::NODE_BUDGET
    pub nodes: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when no query was made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counts one cold solve's outcome and search size.
    fn record(&mut self, solved: &Solved) {
        match solved.outcome {
            FloorplanOutcome::Feasible(_) => self.feasible += 1,
            FloorplanOutcome::Infeasible => {
                self.infeasible += 1;
                self.root_infeasible += u64::from(solved.at_root);
            }
            FloorplanOutcome::Timeout => self.timeouts += 1,
        }
        self.nodes += solved.nodes;
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
            feasible: self.feasible + rhs.feasible,
            infeasible: self.infeasible + rhs.infeasible,
            root_infeasible: self.root_infeasible + rhs.root_infeasible,
            timeouts: self.timeouts + rhs.timeouts,
            nodes: self.nodes + rhs.nodes,
        }
    }
}

/// Canonical cache key: geometry fingerprint + sorted demand multiset.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    geometry: u64,
    demands: Box<[ResourceVec]>,
}

/// A cached exact verdict, demand-aligned to the *sorted* order of its key.
#[derive(Debug, Clone)]
enum CachedVerdict {
    Feasible(Box<[Rect]>),
    Infeasible,
}

/// Map + counters behind the cache's lock.
#[derive(Debug, Default)]
struct CacheCore {
    map: HashMap<CacheKey, CachedVerdict>,
    capacity: usize,
    stats: CacheStats,
}

impl CacheCore {
    fn with_capacity(capacity: usize) -> Self {
        CacheCore {
            map: HashMap::new(),
            capacity: capacity.max(1),
            stats: CacheStats::default(),
        }
    }

    /// Looks `key` up, counting a hit or a miss; a `Feasible` verdict is
    /// remapped to the caller's demand order through `perm` (the stable
    /// argsort of the caller's demands).
    fn lookup(&mut self, key: &CacheKey, perm: &[usize]) -> Option<FloorplanOutcome> {
        match self.map.get(key) {
            Some(verdict) => {
                self.stats.hits += 1;
                Some(match verdict {
                    CachedVerdict::Infeasible => FloorplanOutcome::Infeasible,
                    CachedVerdict::Feasible(sorted_rects) => {
                        let mut out: Vec<Option<Rect>> = vec![None; perm.len()];
                        for (k, &i) in perm.iter().enumerate() {
                            out[i] = Some(sorted_rects[k]);
                        }
                        FloorplanOutcome::Feasible(
                            out.into_iter()
                                .map(|r| r.expect("argsort is a permutation"))
                                .collect(),
                        )
                    }
                })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Counts a cold solve and stores its outcome for `key` when exact.
    /// `Feasible` witnesses arrive in the caller's demand order and are
    /// stored sorted-aligned via `perm`. `Timeout` is not stored — it is a
    /// statement about the budget, the token or the demand order, not the
    /// instance. At capacity the whole map is cleared (deterministic
    /// generational eviction) before inserting.
    fn insert(&mut self, key: CacheKey, solved: &Solved, perm: &[usize]) {
        self.stats.record(solved);
        let verdict = match &solved.outcome {
            FloorplanOutcome::Feasible(rects) => {
                CachedVerdict::Feasible(perm.iter().map(|&i| rects[i]).collect())
            }
            FloorplanOutcome::Infeasible => CachedVerdict::Infeasible,
            FloorplanOutcome::Timeout => return,
        };
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            self.map.clear();
        }
        self.map.insert(key, verdict);
    }
}

/// Builds the canonical key for `(geometry, demands)` plus the stable
/// argsort `perm` with `sorted[k] == demands[perm[k]]`.
fn canonical_key(geom: &FabricGeometry, demands: &[ResourceVec]) -> (CacheKey, Vec<usize>) {
    let mut hasher = DefaultHasher::new();
    geom.columns.hash(&mut hasher);
    geom.rows.hash(&mut hasher);
    let geometry = hasher.finish();

    let mut perm: Vec<usize> = (0..demands.len()).collect();
    perm.sort_by_key(|&i| demands[i].0);
    let sorted: Box<[ResourceVec]> = perm.iter().map(|&i| demands[i]).collect();
    (
        CacheKey {
            geometry,
            demands: sorted,
        },
        perm,
    )
}

/// A bounded memoization layer over a [`Floorplanner`].
///
/// Answers [`Floorplanner::check`] and [`Floorplanner::check_device`]
/// queries, remembering exact verdicts per canonical demand signature.
/// Clones share one map, so parallel PA-R workers share what any of them
/// learned. The map lives behind a [`parking_lot::Mutex`]; solves happen
/// *outside* the lock, so workers never serialize on the backtracking
/// search — two workers racing on the same cold signature both solve and
/// the second insert is a no-op overwrite of an identical verdict.
#[derive(Debug, Clone)]
pub struct FeasibilityCache {
    planner: Floorplanner,
    core: Arc<Mutex<CacheCore>>,
}

impl FeasibilityCache {
    /// Wraps `planner` with a cache bounded to `capacity` entries.
    pub fn new(planner: Floorplanner, capacity: usize) -> Self {
        FeasibilityCache {
            planner,
            core: Arc::new(Mutex::new(CacheCore::with_capacity(capacity))),
        }
    }

    /// [`Floorplanner::check`] through the cache: one memoized device
    /// query per occupied fabric. The canonical key fingerprints the
    /// fabric geometry, so identical demand sets on different fabrics never
    /// collide.
    pub fn check(
        &self,
        arch: &Architecture,
        regions: &[Region],
        cancel: &CancelToken,
    ) -> FloorplanOutcome {
        crate::solver::check_with(arch, regions, |device, demands| {
            self.check_device(device, demands, cancel)
        })
    }

    /// [`Floorplanner::check_device`] through the cache: a memoized exact
    /// verdict when the canonical signature is known, a cold solve (whose
    /// exact outcome is then remembered) otherwise. A `Timeout` — including
    /// one induced by `cancel` firing mid-solve — is never cached, so a
    /// cancelled query leaves the cache exactly as warm (and as correct) as
    /// before the call.
    pub fn check_device(
        &self,
        device: &Device,
        demands: &[ResourceVec],
        cancel: &CancelToken,
    ) -> FloorplanOutcome {
        // Without geometry the planner answers trivially, nothing to cache.
        let Some(geometry) = &device.geometry else {
            return self.planner.check_device(device, demands, cancel);
        };
        let (key, perm) = canonical_key(geometry, demands);
        if let Some(outcome) = self.core.lock().lookup(&key, &perm) {
            return outcome;
        }
        let solved = self.planner.solve_counted(geometry, demands, cancel);
        self.core.lock().insert(key, &solved, &perm);
        solved.outcome
    }

    /// Hit/miss and verdict counters so far, across all clones.
    pub fn stats(&self) -> CacheStats {
        self.core.lock().stats
    }

    /// Number of cached signatures.
    pub fn len(&self) -> usize {
        self.core.lock().map.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.core.lock().map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prfpga_model::FabricColumn;

    fn never() -> CancelToken {
        CancelToken::never()
    }

    fn geo_device() -> Device {
        Device::xc7z020()
    }

    fn flat_device() -> Device {
        // No geometry: every query is answered trivially, nothing cached.
        Device::tiny_test(ResourceVec::new(1000, 100, 100), 10)
    }

    #[test]
    fn repeat_query_hits_and_matches_cold_solve() {
        let planner = Floorplanner::default();
        let cache = FeasibilityCache::new(planner.clone(), 16);
        let device = geo_device();
        let demands = vec![ResourceVec::new(600, 10, 20), ResourceVec::new(400, 0, 0)];
        let cold = planner.check_device(&device, &demands, &never());
        let first = cache.check_device(&device, &demands, &never());
        let second = cache.check_device(&device, &demands, &never());
        assert_eq!(first, cold, "first query is the cold solve itself");
        assert_eq!(second, cold, "identical repeat returns the same witness");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                feasible: 1,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn permuted_demands_hit_with_remapped_witness() {
        let planner = Floorplanner::default();
        let cache = FeasibilityCache::new(planner, 16);
        let device = geo_device();
        let a = ResourceVec::new(600, 10, 20);
        let b = ResourceVec::new(400, 0, 0);
        let FloorplanOutcome::Feasible(_) = cache.check_device(&device, &[a, b], &never()) else {
            panic!("small demand set must place");
        };
        let FloorplanOutcome::Feasible(rects) = cache.check_device(&device, &[b, a], &never())
        else {
            panic!("permutation of a feasible set is feasible");
        };
        assert_eq!(cache.stats().hits, 1);
        // Witness is remapped to the caller's order: rect 0 covers b, 1
        // covers a, and the two are disjoint.
        let geom = device.geometry.as_ref().unwrap();
        assert!(b.fits_in(&rects[0].resources(geom)));
        assert!(a.fits_in(&rects[1].resources(geom)));
        assert!(!rects[0].overlaps(&rects[1]));
    }

    #[test]
    fn infeasible_is_cached() {
        let planner = Floorplanner::default();
        let cache = FeasibilityCache::new(planner.clone(), 16);
        // A 1-column, 1-row grid cannot host two 1-CLB regions in disjoint
        // rectangles.
        let device = Device {
            geometry: Some(FabricGeometry {
                columns: vec![FabricColumn::Clb],
                rows: 1,
            }),
            ..flat_device()
        };
        let demands = vec![ResourceVec::new(1, 0, 0), ResourceVec::new(1, 0, 0)];
        assert_eq!(
            planner.check_device(&device, &demands, &never()),
            FloorplanOutcome::Infeasible
        );
        assert_eq!(
            cache.check_device(&device, &demands, &never()),
            FloorplanOutcome::Infeasible
        );
        assert_eq!(
            cache.check_device(&device, &demands, &never()),
            FloorplanOutcome::Infeasible
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                infeasible: 1,
                root_infeasible: 1,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn no_geometry_bypasses_the_cache() {
        let cache = FeasibilityCache::new(Floorplanner::default(), 16);
        let device = flat_device();
        let demands = vec![ResourceVec::new(5, 0, 0)];
        for _ in 0..3 {
            assert!(cache
                .check_device(&device, &demands, &never())
                .is_feasible());
        }
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_bound_evicts_generationally() {
        let cache = FeasibilityCache::new(Floorplanner::default(), 2);
        let device = geo_device();
        for clb in 1..=5u64 {
            cache.check_device(&device, &[ResourceVec::new(clb * 50, 0, 0)], &never());
        }
        assert!(cache.len() <= 2, "bounded: {} entries", cache.len());
        assert_eq!(cache.stats().misses, 5);
    }

    #[test]
    fn clones_share_one_map() {
        let planner = Floorplanner::default();
        let shared = FeasibilityCache::new(planner.clone(), 16);
        let device = geo_device();
        let demands = vec![ResourceVec::new(600, 10, 20), ResourceVec::new(400, 0, 0)];
        let cold = planner.check_device(&device, &demands, &never());
        assert_eq!(shared.check_device(&device, &demands, &never()), cold);
        assert_eq!(shared.check_device(&device, &demands, &never()), cold);
        assert_eq!(
            shared.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                feasible: 1,
                ..CacheStats::default()
            }
        );
        // Clones share the same map.
        let clone = shared.clone();
        assert_eq!(clone.check_device(&device, &demands, &never()), cold);
        assert_eq!(shared.stats().hits, 2);
    }

    #[test]
    fn different_geometries_do_not_alias() {
        let cache = FeasibilityCache::new(Floorplanner::default(), 16);
        let one_row = Device {
            geometry: Some(FabricGeometry {
                columns: vec![FabricColumn::Clb],
                rows: 1,
            }),
            ..flat_device()
        };
        let two_rows = Device {
            geometry: Some(FabricGeometry {
                columns: vec![FabricColumn::Clb],
                rows: 2,
            }),
            ..flat_device()
        };
        let demands = vec![ResourceVec::new(1, 0, 0), ResourceVec::new(1, 0, 0)];
        assert_eq!(
            cache.check_device(&one_row, &demands, &never()),
            FloorplanOutcome::Infeasible
        );
        assert!(
            cache
                .check_device(&two_rows, &demands, &never())
                .is_feasible(),
            "two rows host two 1-CLB regions"
        );
    }
}
