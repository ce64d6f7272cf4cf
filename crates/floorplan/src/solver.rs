//! Exact backtracking search for a disjoint placement of all regions.

use std::time::Duration;

use prfpga_model::{Architecture, CancelToken, Device, FabricGeometry, Region, ResourceVec};

use crate::candidates::for_each_minimal_run;
use crate::occupancy::{order_key, rect_of_key, Columns, Cover, Occupancy, DIMS};
use crate::rect::Rect;

/// Configuration of the [`Floorplanner`].
#[derive(Debug, Clone)]
pub struct FloorplannerConfig {
    /// Wall-clock backstop for one `solve` call. The paper runs its MILP
    /// floorplanner "to verify the existence of a solution in a small
    /// amount of time"; here that bound is [`NODE_BUDGET`], so a verdict
    /// does not depend on host speed or build profile. This limit only
    /// guards against pathological per-node cost: it is peeked, without
    /// counting a poll, before the greedy passes and every
    /// `CANCEL_POLL_STRIDE` placement attempts, and yields
    /// [`FloorplanOutcome::Timeout`] once it has passed. Callers with a
    /// deadline of their own pass it on the token every query takes.
    pub time_limit: Duration,
    /// Cap on candidate rectangles kept per region (smallest first). The
    /// enumeration is complete; the cap trades completeness for speed on
    /// pathological instances and is high enough to be irrelevant for every
    /// suite in this repository.
    pub max_candidates_per_region: usize,
}

impl Default for FloorplannerConfig {
    fn default() -> Self {
        FloorplannerConfig {
            time_limit: Duration::from_millis(250),
            max_candidates_per_region: 4096,
        }
    }
}

/// Outcome of a floorplanning query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FloorplanOutcome {
    /// A disjoint placement exists; one witness rectangle per region, in
    /// region order.
    Feasible(Vec<Rect>),
    /// No disjoint placement exists (exact proof).
    Infeasible,
    /// The search gave up undecided: it used up [`NODE_BUDGET`], or the
    /// caller's token or the `time_limit` backstop fired.
    Timeout,
}

impl FloorplanOutcome {
    /// True for [`FloorplanOutcome::Feasible`].
    pub fn is_feasible(&self) -> bool {
        matches!(self, FloorplanOutcome::Feasible(_))
    }
}

/// Exact feasibility floorplanner over a column-based fabric.
///
/// ```
/// use prfpga_floorplan::{FloorplanOutcome, Floorplanner};
/// use prfpga_model::{CancelToken, Device, ResourceVec};
///
/// let planner = Floorplanner::default();
/// let device = Device::xc7z020();
/// let regions = vec![ResourceVec::new(600, 10, 20), ResourceVec::new(400, 0, 0)];
/// match planner.check_device(&device, &regions, &CancelToken::never()) {
///     FloorplanOutcome::Feasible(rects) => {
///         assert_eq!(rects.len(), 2);
///         assert!(!rects[0].overlaps(&rects[1]));
///     }
///     other => panic!("small region sets place trivially, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Floorplanner {
    config: FloorplannerConfig,
}

impl Floorplanner {
    /// Builds a floorplanner with the given configuration.
    pub fn new(config: FloorplannerConfig) -> Self {
        Floorplanner { config }
    }

    /// Answers the scheduler's question for a schedule's `regions` on
    /// `arch`: do they admit a disjoint placement? Each region places on
    /// its own fabric, each fabric solved independently on its own
    /// geometry ([`check_device`]). Any infeasible fabric makes the whole
    /// set infeasible, any timeout propagates, and witnesses are stitched
    /// back into one rectangle per region (dropped when an occupied fabric
    /// has no geometry). On one fabric this is [`check_device`] on that
    /// fabric.
    ///
    /// [`check_device`]: Self::check_device
    pub fn check(
        &self,
        arch: &Architecture,
        regions: &[Region],
        cancel: &CancelToken,
    ) -> FloorplanOutcome {
        check_with(arch, regions, |device, demands| {
            self.check_device(device, demands, cancel)
        })
    }

    /// Do `demands` (one [`ResourceVec`] per reconfigurable region) admit
    /// a disjoint placement on `device`?
    ///
    /// A device without geometry information never constrains placement
    /// beyond the capacity checks the scheduler already performs, so it
    /// reports `Feasible` with no witness rectangles.
    pub fn check_device(
        &self,
        device: &Device,
        demands: &[ResourceVec],
        cancel: &CancelToken,
    ) -> FloorplanOutcome {
        match &device.geometry {
            Some(geom) => self.solve(geom, demands, cancel),
            None => FloorplanOutcome::Feasible(vec![]),
        }
    }

    /// Exact search for a disjoint placement of `demands` on `geometry`.
    ///
    /// The search makes at most [`NODE_BUDGET`] placement attempts and
    /// returns [`FloorplanOutcome::Timeout`] when they run out, so the
    /// verdict is the same on any host. The caller's token is polled
    /// (counted) before the greedy passes and every `CANCEL_POLL_STRIDE`
    /// attempts, where the `time_limit` backstop is also peeked; either
    /// firing yields `Timeout` too, and the caller tells them apart by its
    /// own token state. Region sets the coverage bound refutes are answered
    /// before the first checkpoint, so they are `Infeasible` under any
    /// token and limit.
    ///
    /// A query pays only for what its verdict reads: the root bound reads
    /// per-region counts and minima of the minimal column runs; a greedy
    /// pass reads each region's candidates, in preference order, up to the
    /// first free one; only the exact search sorts every list in full and
    /// builds its overlap masks.
    pub fn solve(
        &self,
        geometry: &FabricGeometry,
        demands: &[ResourceVec],
        cancel: &CancelToken,
    ) -> FloorplanOutcome {
        self.solve_counted(geometry, demands, cancel).outcome
    }

    /// [`Floorplanner::solve`], also reporting what
    /// [`CacheStats`](crate::CacheStats) counts about the search.
    pub(crate) fn solve_counted(
        &self,
        geometry: &FabricGeometry,
        demands: &[ResourceVec],
        cancel: &CancelToken,
    ) -> Solved {
        let before_search = |outcome, at_root| Solved {
            outcome,
            at_root,
            nodes: 0,
        };
        if demands.is_empty() {
            return before_search(FloorplanOutcome::Feasible(vec![]), false);
        }
        // Wall-clock backstop, peeked (non-counting) alongside the caller's
        // token at the checkpoints below.
        let backstop = CancelToken::after(self.config.time_limit);

        // Coverage bound: disjoint rectangles cover disjoint column
        // segments, so for every kind (and for cells overall) the fewest
        // segments each region's kept candidates cover must sum to at most
        // what the fabric has. At the root it refutes over-subscribed sets
        // from the minimal column runs alone, before any candidate is
        // keyed; the DFS re-checks it at every placement attempt against
        // the segments left free.
        let columns = Columns::new(geometry);
        // Regions with equal demands share one candidate list:
        // `list_of[i]` is region `i`'s list in `kept`.
        let mut kept: Vec<Kept> = Vec::new();
        let mut list_of: Vec<usize> = Vec::with_capacity(demands.len());
        for (i, d) in demands.iter().enumerate() {
            let list = match demands[..i].iter().position(|e| e == d) {
                Some(twin) => list_of[twin],
                None => {
                    let max = self.config.max_candidates_per_region;
                    kept.push(Kept::new(&columns, d, max));
                    kept.len() - 1
                }
            };
            list_of.push(list);
        }
        if kept.iter().any(|k| k.count == 0) {
            return before_search(FloorplanOutcome::Infeasible, true);
        }
        let need: Cover =
            std::array::from_fn(|d| list_of.iter().map(|&l| kept[l].min_cover[d]).sum());
        let capacity = columns.capacity();
        if exceeds(&need, &capacity) {
            return before_search(FloorplanOutcome::Infeasible, true);
        }

        // The bound passed: key every list, sorted only as far as the
        // greedy passes below read it.
        let mut lists: Vec<SortedOnDemand> = kept
            .iter_mut()
            .map(|k| SortedOnDemand::new(k.keys(&columns)))
            .collect();
        let mut slots: Vec<Slot> = list_of
            .iter()
            .enumerate()
            .map(|(region, &list)| Slot {
                region,
                list,
                len: lists[list].len(),
                first: rect_of_key(lists[list].first()),
                min_cover: kept[list].min_cover,
            })
            .collect();
        // Most-constrained-first: fewest candidates, then largest minimal
        // footprint — classic first-fit-decreasing order.
        slots.sort_by_key(|s| (s.len, std::cmp::Reverse(s.first.area()), s.region));
        // `rem_min[k]` sums the per-region minimum coverage over slots `k..`.
        let mut rem_min: Vec<Cover> = vec![[0; DIMS]; slots.len() + 1];
        for k in (0..slots.len()).rev() {
            rem_min[k] = std::array::from_fn(|d| rem_min[k + 1][d] + slots[k].min_cover[d]);
        }

        // Checkpoint before the greedy passes and the search. Nothing above
        // reads the clock, so what the bound refutes is `Infeasible` under
        // any time limit.
        if cancel.is_cancelled() || backstop.fired() {
            return before_search(FloorplanOutcome::Timeout, false);
        }

        // Greedy bottom-left pre-passes over a few placement orders:
        // each costs O(regions x candidates) and succeeds on most loose
        // instances, so the exact search only sees the hard cases. A pass
        // reads each list only up to the first free candidate.
        #[allow(clippy::type_complexity)]
        let greedy_orders: [fn(&Slot) -> (u64, u64, usize); 3] = [
            // Most-constrained first (the DFS order).
            |s| (s.len as u64, u64::MAX - s.first.area(), s.region),
            // Largest minimal footprint first (first-fit decreasing).
            |s| (u64::MAX - s.first.area(), s.len as u64, s.region),
            // Scarce-resource regions first (fewest candidates), then by
            // leftmost candidate position to sweep the fabric.
            |s| (s.len as u64, u64::from(s.first.col_start), s.region),
        ];
        let mut occupancy = Occupancy::new(geometry);
        for key in greedy_orders {
            let mut order: Vec<&Slot> = slots.iter().collect();
            order.sort_by_key(|s| key(s));
            occupancy.clear();
            let mut out = vec![Rect::new(0, 1, 0, 1); demands.len()];
            let placed = order.iter().all(|s| {
                let list = &mut lists[s.list];
                let free = (0..s.len)
                    .map(|i| rect_of_key(list.key(i)))
                    .find(|r| occupancy.fits(r));
                if let Some(r) = free {
                    occupancy.toggle(&r);
                    out[s.region] = r;
                }
                free.is_some()
            });
            if placed {
                return before_search(FloorplanOutcome::Feasible(out), false);
            }
        }

        // Every greedy pass failed: only now sort the lists in full and
        // build one set of overlap masks per list (twins share theirs).
        let cands: Vec<Vec<Rect>> = lists
            .into_iter()
            .map(|l| l.into_sorted().into_iter().map(rect_of_key).collect())
            .collect();
        let list_masks: Vec<Masks> = cands.iter().map(|c| Masks::new(c, geometry)).collect();
        let masks: Vec<&Masks> = slots.iter().map(|s| &list_masks[s.list]).collect();
        let slot_cands: Vec<&[Rect]> = slots.iter().map(|s| &cands[s.list][..]).collect();
        // Symmetry breaking: regions with identical candidate lists are
        // interchangeable; force them to take candidates in increasing
        // index order. `sym_prev[k] = Some(j)` means slot k must pick a
        // candidate index strictly greater than slot j's.
        let mut sym_prev: Vec<Option<usize>> = vec![None; slots.len()];
        for k in 1..slots.len() {
            if slot_cands[k] == slot_cands[k - 1] {
                sym_prev[k] = Some(k - 1);
            }
        }
        // Every candidate is free before the first placement.
        let stride = list_masks.iter().map(|m| m.words).max().unwrap_or(0);
        let mut doms = vec![0; slots.len() * slots.len() * stride];
        for (k, slot) in slots.iter().enumerate() {
            for i in 0..slot.len {
                doms[k * stride + i / 64] |= 1 << (i % 64);
            }
        }
        let mut search = Search {
            cands: &slot_cands,
            masks: &masks,
            columns: &columns,
            sym_prev: &sym_prev,
            rem_min: &rem_min,
            capacity,
            cancel,
            backstop: &backstop,
            timed_out: false,
            nodes: 0,
            chosen_idx: Vec::with_capacity(slots.len()),
            used: [0; DIMS],
            doms,
            stride,
            conflict: None,
        };
        let outcome = if search.place(0) {
            let mut out = vec![Rect::new(0, 1, 0, 1); demands.len()];
            for ((slot, cands), &idx) in slots.iter().zip(&slot_cands).zip(&search.chosen_idx) {
                out[slot.region] = cands[idx];
            }
            FloorplanOutcome::Feasible(out)
        } else if search.timed_out {
            FloorplanOutcome::Timeout
        } else {
            FloorplanOutcome::Infeasible
        };
        Solved {
            outcome,
            at_root: false,
            nodes: search.nodes,
        }
    }
}

/// A cold solve's outcome and what the cache counts about it.
pub(crate) struct Solved {
    pub(crate) outcome: FloorplanOutcome,
    /// An `Infeasible` proven from the candidate lists alone, before any
    /// search or clock check.
    pub(crate) at_root: bool,
    /// Placement attempts made (0 when the root or a greedy pass decided).
    pub(crate) nodes: u64,
}

/// True when some dimension of `need` exceeds `have`.
#[inline]
fn exceeds(need: &Cover, have: &Cover) -> bool {
    need.iter().zip(have).any(|(n, h)| n > h)
}

/// One distinct demand's candidate census: how many minimal rectangles
/// it keeps and the fewest segments per kind any of them covers, which is
/// all the root bound reads. Its order keys are built only once the bound
/// has passed, except when the enumeration exceeds the cap: choosing the
/// candidates to keep needs them.
struct Kept {
    demand: ResourceVec,
    count: usize,
    min_cover: Cover,
    /// The kept keys, unsorted, when the cap truncated the enumeration.
    truncated: Option<Vec<u128>>,
}

impl Kept {
    fn new(columns: &Columns, demand: &ResourceVec, max_candidates: usize) -> Self {
        let mut count = 0;
        let mut min_cover = [u64::MAX; DIMS];
        for_each_minimal_run(columns, demand, |col_start, col_end, height, row_starts| {
            let cover = columns.span(col_start, col_end, height);
            for (m, v) in min_cover.iter_mut().zip(cover) {
                *m = (*m).min(v);
            }
            count += row_starts.len();
        });
        let mut truncated = None;
        if count > max_candidates {
            // Keep the `max_candidates` smallest keys, still unsorted, and
            // take the minimum over those alone.
            let mut keys = all_keys(columns, demand, count);
            keys.select_nth_unstable(max_candidates);
            keys.truncate(max_candidates);
            min_cover = [u64::MAX; DIMS];
            for &key in &keys {
                for (m, v) in min_cover.iter_mut().zip(columns.cover(&rect_of_key(key))) {
                    *m = (*m).min(v);
                }
            }
            count = max_candidates;
            truncated = Some(keys);
        }
        Kept {
            demand: *demand,
            count,
            min_cover,
            truncated,
        }
    }

    /// The kept candidates' order keys, unsorted.
    fn keys(&mut self, columns: &Columns) -> Vec<u128> {
        self.truncated
            .take()
            .unwrap_or_else(|| all_keys(columns, &self.demand, self.count))
    }
}

/// The [`order_key`] of every minimal rectangle for `demand`, unsorted;
/// `count` of them.
fn all_keys(columns: &Columns, demand: &ResourceVec, count: usize) -> Vec<u128> {
    let mut keys = Vec::with_capacity(count);
    for_each_minimal_run(columns, demand, |col_start, col_end, height, row_starts| {
        let cover = columns.span(col_start, col_end, height);
        keys.extend(
            row_starts
                .map(|row| order_key(&cover, &Rect::new(col_start, col_end, row, row + height))),
        );
    });
    keys
}

/// A candidate list as [`order_key`]s, sorted only as far as it has been
/// read.
///
/// Ordering matters a lot: BRAM/DSP columns are the scarce commodity on a
/// column fabric, so a candidate that covers *more special columns than
/// its demand warrants* wastes them for every later region. The key
/// prefers candidates covering the fewest special-column segments, then
/// packs bottom-left by area. It ends in the whole rectangle, so keys are
/// distinct and the order is total: `keys[..sorted]` is sorted, every
/// later key is larger, and so that prefix is the full sort's.
struct SortedOnDemand {
    keys: Vec<u128>,
    sorted: usize,
}

impl SortedOnDemand {
    /// Takes `keys` unsorted, with the smallest moved to the front.
    fn new(mut keys: Vec<u128>) -> Self {
        let first = (0..keys.len()).min_by_key(|&i| keys[i]);
        if let Some(i) = first {
            keys.swap(0, i);
        }
        SortedOnDemand {
            keys,
            sorted: usize::from(first.is_some()),
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// The smallest key; the list is not empty.
    fn first(&self) -> u128 {
        self.keys[0]
    }

    /// The `i`-th smallest key. A read past the sorted prefix extends it
    /// block by block: select the block's keys from the rest, then sort
    /// them. Blocks hold at least 32 keys and as many as are sorted, so
    /// they double.
    fn key(&mut self, i: usize) -> u128 {
        while self.sorted <= i && self.sorted < self.keys.len() {
            let rest = &mut self.keys[self.sorted..];
            let block = self.sorted.max(32).min(rest.len());
            if block < rest.len() {
                rest.select_nth_unstable(block);
            }
            rest[..block].sort_unstable();
            self.sorted += block;
        }
        self.keys[i]
    }

    /// Every key, ascending.
    fn into_sorted(mut self) -> Vec<u128> {
        self.keys[self.sorted..].sort_unstable();
        self.keys
    }
}

/// One region's place in the search: its list, and what the slot order,
/// the greedy passes and the coverage cut read of it.
#[derive(Debug)]
struct Slot {
    /// Index of the region in the caller's demand list.
    region: usize,
    /// Index of the region's candidate list (shared by equal demands).
    list: usize,
    /// Kept candidates.
    len: usize,
    /// The preferred candidate.
    first: Rect,
    /// The fewest segments per kind any kept candidate covers.
    min_cover: Cover,
}

/// Per-fabric driver shared by [`Floorplanner::check`] and
/// [`FeasibilityCache::check`](crate::FeasibilityCache::check): runs
/// `check` once per occupied fabric over that fabric's demands (kept in
/// region order) and stitches the witness rectangles back into one
/// rectangle per region. Any `Infeasible` fabric makes the set infeasible;
/// any `Timeout` propagates; witnesses are dropped (empty vector, matching
/// the geometry-free device contract) as soon as one occupied fabric has
/// no geometry.
pub(crate) fn check_with(
    arch: &Architecture,
    regions: &[Region],
    mut check: impl FnMut(&Device, &[ResourceVec]) -> FloorplanOutcome,
) -> FloorplanOutcome {
    let nf = arch.num_fabrics() as u32;
    assert!(
        regions.iter().all(|r| r.fabric < nf),
        "region assigned to a fabric outside the platform"
    );
    let mut out = vec![Rect::new(0, 1, 0, 1); regions.len()];
    let mut witnesses = true;
    for f in 0..nf {
        let idx: Vec<usize> = regions
            .iter()
            .enumerate()
            .filter(|&(_, r)| r.fabric == f)
            .map(|(i, _)| i)
            .collect();
        if idx.is_empty() {
            continue;
        }
        let sub: Vec<ResourceVec> = idx.iter().map(|&i| regions[i].res).collect();
        match check(arch.fabric(f as usize), &sub) {
            FloorplanOutcome::Feasible(rects) if rects.len() == idx.len() => {
                for (&i, r) in idx.iter().zip(rects) {
                    out[i] = r;
                }
            }
            // A geometry-free fabric reports feasible with no witnesses.
            FloorplanOutcome::Feasible(_) => witnesses = false,
            FloorplanOutcome::Infeasible => return FloorplanOutcome::Infeasible,
            FloorplanOutcome::Timeout => return FloorplanOutcome::Timeout,
        }
    }
    if witnesses {
        FloorplanOutcome::Feasible(out)
    } else {
        FloorplanOutcome::Feasible(vec![])
    }
}

/// Placement attempts one exact search may make before it gives up with
/// [`FloorplanOutcome::Timeout`]. A node is one attempt: one candidate
/// tried for one region, whether the coverage cut or forward checking
/// prunes it or the search descends into it. Each attempt pays for at
/// most one narrowing pass, so the count bounds the work done. Every
/// decided search among the paper suite's floorplan queries makes at most
/// 26,193 attempts; this is five times that, and a search that uses it up
/// takes 8–17 ms in a release build on a 2-core x86-64 host.
pub const NODE_BUDGET: u64 = 1 << 17;

/// Caller-token poll stride inside the DFS: one counted poll, and one peek
/// at the `time_limit` backstop, every this many nodes (placement
/// attempts). Bounds both the polling overhead on hot searches and the
/// size of exhaustive fire-on-every-poll sweeps in the cancellation tests,
/// while keeping worst-case cancellation latency at a few microseconds.
const CANCEL_POLL_STRIDE: u64 = 64;

/// Overlap masks of one sorted candidate list, as bitsets over the
/// candidates' ranks in it.
///
/// Candidate `c` overlaps a placed rectangle `r` exactly when
/// `c.col_end > r.col_start`, `c.col_start < r.col_end`,
/// `c.row_end > r.row_start` and `c.row_start < r.row_end`. Each of these
/// four families is nested in its threshold, so it is stored once per
/// distinct boundary its candidates use, plus one, and a lookup per axis
/// coordinate picks the mask a threshold selects. A list of `n`
/// candidates therefore holds at most `4 · (n + 1)` masks of `⌈n/64⌉`
/// words, however wide the fabric, plus lookups of
/// `2 · (cols + rows + 2)` entries.
struct Masks {
    /// Words per mask: `⌈n/64⌉`.
    words: usize,
    /// The masks back to back.
    bits: Vec<u64>,
    /// Word offsets into `bits`, indexed by the placed rectangle's
    /// coordinate: candidates with `col_end >` it (by `col_start`),
    /// `col_start <` it (by `col_end`), and the same for rows.
    col_end_above: Vec<usize>,
    col_start_below: Vec<usize>,
    row_end_above: Vec<usize>,
    row_start_below: Vec<usize>,
}

impl Masks {
    fn new(cands: &[Rect], geometry: &FabricGeometry) -> Self {
        let cols = geometry.columns.len() as u32;
        let rows = geometry.rows;
        let mut masks = Masks {
            words: cands.len().div_ceil(64),
            bits: Vec::new(),
            col_end_above: Vec::new(),
            col_start_below: Vec::new(),
            row_end_above: Vec::new(),
            row_start_below: Vec::new(),
        };
        // `v > t` is `extent - v < extent - t`: build the mirrored family
        // and read its lookup backwards.
        masks.col_end_above = masks.below(cands.iter().map(|c| cols - c.col_end), cols);
        masks.col_end_above.reverse();
        masks.col_start_below = masks.below(cands.iter().map(|c| c.col_start), cols);
        masks.row_end_above = masks.below(cands.iter().map(|c| rows - c.row_end), rows);
        masks.row_end_above.reverse();
        masks.row_start_below = masks.below(cands.iter().map(|c| c.row_start), rows);
        masks
    }

    /// Appends the nested masks `{i : values[i] < t}`, one per distinct
    /// value plus one, and returns the word offset of the mask for every
    /// threshold `t` in `0..=extent`. Every value is below `extent`.
    fn below(&mut self, values: impl Iterator<Item = u32> + Clone, extent: u32) -> Vec<usize> {
        let mut used = vec![false; extent as usize + 1];
        for v in values.clone() {
            used[v as usize] = true;
        }
        // `at[t]`: distinct values below `t`, which is the rank of `t`
        // among them when it is one.
        let mut at: Vec<usize> = Vec::with_capacity(used.len());
        let mut distinct = 0;
        for u in used {
            at.push(distinct);
            distinct += usize::from(u);
        }
        let (base, words) = (self.bits.len(), self.words);
        self.bits.resize(base + (distinct + 1) * words, 0);
        // Mask `r` holds the candidates whose value is among the `r`
        // smallest distinct ones: mark each in the first mask that holds
        // it, then fold every mask into the next.
        for (i, v) in values.enumerate() {
            self.bits[base + (at[v as usize] + 1) * words + i / 64] |= 1 << (i % 64);
        }
        for w in base + words..self.bits.len() {
            self.bits[w] |= self.bits[w - words];
        }
        for r in &mut at {
            *r = base + *r * words;
        }
        at
    }

    /// Writes to `out` the candidates of `dom` that do not overlap
    /// `placed`; true when some are left.
    #[inline]
    fn narrow(&self, dom: &[u64], placed: &Rect, out: &mut [u64]) -> bool {
        let n = self.words;
        let mask = |lookup: &[usize], at: u32| {
            let from = lookup[at as usize];
            &self.bits[from..from + n]
        };
        let (a, b) = (
            mask(&self.col_end_above, placed.col_start),
            mask(&self.col_start_below, placed.col_end),
        );
        let (c, d) = (
            mask(&self.row_end_above, placed.row_start),
            mask(&self.row_start_below, placed.row_end),
        );
        let (dom, out) = (&dom[..n], &mut out[..n]);
        let mut left = 0;
        for w in 0..n {
            let v = dom[w] & !(a[w] & b[w] & c[w] & d[w]);
            out[w] = v;
            left |= v;
        }
        left != 0
    }
}

/// Forward-checking DFS state for the exact search.
///
/// Each depth keeps the *domain* of every region still to place: a bitset
/// over its candidates' ranks holding those that overlap no rectangle
/// placed so far. Placing a candidate narrows each later domain with a
/// few word-wide ANDs against its list's [`Masks`]; when one comes out
/// empty, the placement is undone without descending. The domain that
/// emptied last is narrowed first at the next attempt, which changes only
/// the order of the checks, not which attempts are pruned. The set bits
/// are tried in ascending rank, the candidate order is static and only
/// subtrees without a placement are pruned, so the first placement found
/// is that of a plain scan.
struct Search<'a> {
    /// Each slot's candidates, preferred first.
    cands: &'a [&'a [Rect]],
    /// Each slot's overlap masks.
    masks: &'a [&'a Masks],
    columns: &'a Columns,
    sym_prev: &'a [Option<usize>],
    rem_min: &'a [Cover],
    capacity: Cover,
    cancel: &'a CancelToken,
    backstop: &'a CancelToken,
    timed_out: bool,
    /// Placement attempts so far.
    nodes: u64,
    chosen_idx: Vec<usize>,
    /// Segments the placed rectangles cover, per dimension.
    used: Cover,
    /// Domain words, one frame of `slots.len() * stride` words per depth:
    /// slot `k`'s domain at depth `d` starts at
    /// `(d * slots.len() + k) * stride`.
    doms: Vec<u64>,
    /// Words per domain: enough for the longest list.
    stride: usize,
    /// The slot whose domain emptied at the last pruned attempt.
    conflict: Option<usize>,
}

impl Search<'_> {
    fn place(&mut self, depth: usize) -> bool {
        let n = self.cands.len();
        if depth == n {
            return true;
        }
        let start_idx = match self.sym_prev[depth] {
            Some(prev_slot) => self.chosen_idx[prev_slot] + 1,
            None => 0,
        };
        let dom = (depth * n + depth) * self.stride;
        for w in start_idx / 64..self.masks[depth].words {
            // Deeper frames lie after this one, so the word stays put
            // while the search descends.
            let mut bits = self.doms[dom + w];
            if w == start_idx / 64 {
                bits &= u64::MAX << (start_idx % 64);
            }
            while bits != 0 {
                let idx = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // Budget checkpoint: give up once [`NODE_BUDGET`] attempts
                // have been made; once per [`CANCEL_POLL_STRIDE`]
                // attempts, poll (counted) the caller's token and peek the
                // wall-clock backstop.
                if self.nodes == NODE_BUDGET {
                    self.timed_out = true;
                    return false;
                }
                self.nodes += 1;
                if self.nodes.is_multiple_of(CANCEL_POLL_STRIDE)
                    && (self.cancel.is_cancelled() || self.backstop.fired())
                {
                    self.timed_out = true;
                    return false;
                }
                let cand = self.cands[depth][idx];
                // Coverage cut: the segments left free by this placement
                // must cover the later regions' minimal coverage, kind by
                // kind and in cells overall.
                let cover = self.columns.cover(&cand);
                let free: Cover =
                    std::array::from_fn(|d| self.capacity[d] - self.used[d] - cover[d]);
                if exceeds(&self.rem_min[depth + 1], &free) {
                    continue;
                }
                if self.narrow(depth, &cand) {
                    self.chosen_idx.push(idx);
                    for (u, c) in self.used.iter_mut().zip(cover) {
                        *u += c;
                    }
                    if self.place(depth + 1) {
                        return true;
                    }
                    for (u, c) in self.used.iter_mut().zip(cover) {
                        *u -= c;
                    }
                    self.chosen_idx.pop();
                }
                if self.timed_out {
                    return false;
                }
            }
        }
        false
    }

    /// Writes the frame of depth `depth + 1`: the domains of slots
    /// `depth + 1..` without the candidates overlapping `placed`. Returns
    /// `false` at the first domain that comes out empty, trying the last
    /// one that did first.
    fn narrow(&mut self, depth: usize, placed: &Rect) -> bool {
        let first = self.conflict.filter(|&k| k > depth);
        if let Some(k) = first {
            if !self.narrow_slot(depth, k, placed) {
                return false;
            }
        }
        for k in depth + 1..self.cands.len() {
            if Some(k) != first && !self.narrow_slot(depth, k, placed) {
                self.conflict = Some(k);
                return false;
            }
        }
        true
    }

    /// Narrows slot `k`'s domain from the frame of `depth` into the next
    /// one; true when it is not empty.
    fn narrow_slot(&mut self, depth: usize, k: usize, placed: &Rect) -> bool {
        let (stride, words) = (self.stride, self.masks[k].words);
        let (this, next) = self
            .doms
            .split_at_mut((depth + 1) * self.cands.len() * stride);
        self.masks[k].narrow(
            &this[(depth * self.cands.len() + k) * stride..][..words],
            placed,
            &mut next[k * stride..][..words],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prfpga_model::FabricColumn;

    fn geom() -> FabricGeometry {
        FabricGeometry::from_pattern(
            &[
                FabricColumn::Clb,
                FabricColumn::Clb,
                FabricColumn::Bram,
                FabricColumn::Clb,
                FabricColumn::Dsp,
            ],
            2,
            2,
        )
    }

    fn never() -> CancelToken {
        CancelToken::never()
    }

    fn planner() -> Floorplanner {
        Floorplanner::new(FloorplannerConfig {
            time_limit: Duration::from_secs(5),
            ..Default::default()
        })
    }

    #[test]
    fn empty_demand_is_feasible() {
        assert_eq!(
            planner().solve(&geom(), &[], &never()),
            FloorplanOutcome::Feasible(vec![])
        );
    }

    #[test]
    fn single_region_fits() {
        let out = planner().solve(&geom(), &[ResourceVec::new(100, 10, 0)], &never());
        let FloorplanOutcome::Feasible(rects) = out else {
            panic!("expected feasible, got {out:?}");
        };
        assert_eq!(rects.len(), 1);
        let g = geom();
        assert!(ResourceVec::new(100, 10, 0).fits_in(&rects[0].resources(&g)));
    }

    #[test]
    fn disjointness_is_enforced() {
        // Two regions each needing all the BRAM of one column over both
        // rows: they must land on the two different BRAM columns.
        let demand = ResourceVec::new(0, 20, 0);
        let out = planner().solve(&geom(), &[demand, demand], &never());
        let FloorplanOutcome::Feasible(rects) = out else {
            panic!("expected feasible, got {out:?}");
        };
        assert!(!rects[0].overlaps(&rects[1]));
        let g = geom();
        for r in &rects {
            assert!(demand.fits_in(&r.resources(&g)));
        }
    }

    #[test]
    fn over_capacity_is_infeasible() {
        // Grid total BRAM = 2 columns x 10 x 2 rows = 40.
        let out = planner().solve(&geom(), &[ResourceVec::new(0, 41, 0)], &never());
        assert_eq!(out, FloorplanOutcome::Infeasible);
    }

    #[test]
    fn fragmentation_can_make_fitting_sets_infeasible() {
        // Three regions each demanding 20 BRAM (a full BRAM column, both
        // rows): capacity check passes for two but the third has nowhere
        // to go. Total demand 60 > 40 -> capacity cut. Use 2x20 + try to
        // squeeze a third demanding the remaining... instead: two full-
        // column BRAM regions are fine; three 10-BRAM regions need three
        // half-columns - feasible (4 half-column slots exist). Make it
        // truly infeasible: four regions each demanding 11 BRAM: each needs
        // a full column (11 > 10 per row => height 2), only 2 columns.
        let demand = ResourceVec::new(0, 11, 0);
        let out = planner().solve(&geom(), &[demand, demand, demand], &never());
        assert_eq!(out, FloorplanOutcome::Infeasible);
    }

    #[test]
    fn forward_checking_prunes_before_descending() {
        // One row of C B C C C, two rows high. Slots in search order:
        // 200 CLB (four CLB cells), 50 CLB + 10 BRAM, 150 CLB (three CLB
        // cells). The first slot's preferred candidate, columns 2..4 on
        // both rows, leaves the third region no three CLB cells in a row,
        // and every greedy pass fails, so the exact search decides.
        let g = FabricGeometry::from_pattern(
            &[
                FabricColumn::Clb,
                FabricColumn::Bram,
                FabricColumn::Clb,
                FabricColumn::Clb,
                FabricColumn::Clb,
            ],
            1,
            2,
        );
        let demands = [
            ResourceVec::new(200, 0, 0),
            ResourceVec::new(50, 10, 0),
            ResourceVec::new(150, 0, 0),
        ];
        let solved = planner().solve_counted(&g, &demands, &never());
        assert_eq!(
            solved.outcome,
            FloorplanOutcome::Feasible(vec![
                Rect::new(0, 5, 0, 1),
                Rect::new(0, 2, 1, 2),
                Rect::new(2, 5, 1, 2),
            ])
        );
        // Attempts, pruned ones included: the preferred candidate is
        // pruned without descending (1); the second one, columns 3..5 on
        // both rows, is entered and all 6 second-slot candidates are
        // pruned under it (1 + 6); the third leads straight to the
        // witness (3).
        assert_eq!(solved.nodes, 11);
    }

    #[test]
    fn sorted_on_demand_reads_as_the_full_sort() {
        // Distinct pseudo-random keys: splitmix64 of the index above the
        // index itself.
        let keys = |n: u64| -> Vec<u128> {
            (0..n)
                .map(|i| {
                    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    u128::from(z ^ (z >> 31)) << 64 | u128::from(i)
                })
                .collect()
        };
        for n in [0, 1, 31, 32, 33, 64, 600] {
            let mut oracle = keys(n);
            oracle.sort_unstable();
            let n = n as usize;
            let reads: [Vec<usize>; 3] = [
                (0..n).collect(),
                [0, n / 2, 1, n.saturating_sub(1), 40, 33, 32, 31, 599]
                    .into_iter()
                    .filter(|&i| i < n)
                    .collect(),
                [5, 5, 0, 0, 34, 34, 5]
                    .into_iter()
                    .filter(|&i| i < n)
                    .collect(),
            ];
            for order in reads {
                let mut list = SortedOnDemand::new(keys(n as u64));
                assert_eq!(list.len(), n);
                if n > 0 {
                    assert_eq!(list.first(), oracle[0]);
                }
                for &i in &order {
                    assert_eq!(list.key(i), oracle[i], "n = {n}, read {i} of {order:?}");
                    assert!(list.sorted > i);
                }
                assert_eq!(list.into_sorted(), oracle, "n = {n}, after {order:?}");
            }
        }
    }

    /// `demand`'s kept candidates on `g`, sorted as the search sees them.
    fn sorted_cands(g: &FabricGeometry, demand: ResourceVec, max: usize) -> Vec<Rect> {
        let columns = Columns::new(g);
        let keys = Kept::new(&columns, &demand, max).keys(&columns);
        let sorted = SortedOnDemand::new(keys).into_sorted();
        sorted.into_iter().map(rect_of_key).collect()
    }

    #[test]
    fn mask_narrowing_keeps_exactly_the_disjoint_candidates() {
        // C B C D C over three rows; every rectangle of the fabric is
        // placed against every list, from a full and from a sparse domain.
        let g = FabricGeometry::from_pattern(
            &[
                FabricColumn::Clb,
                FabricColumn::Bram,
                FabricColumn::Clb,
                FabricColumn::Dsp,
                FabricColumn::Clb,
            ],
            1,
            3,
        );
        let demands = [
            ResourceVec::new(50, 0, 0),
            ResourceVec::new(100, 10, 0),
            ResourceVec::new(0, 0, 20),
            ResourceVec::new(150, 10, 20),
            ResourceVec::new(0, 30, 0),
        ];
        let mut placements = 0;
        for demand in demands {
            let cands = sorted_cands(&g, demand, usize::MAX);
            assert!(!cands.is_empty(), "{demand:?}");
            let masks = Masks::new(&cands, &g);
            let full: Vec<u64> = (0..masks.words)
                .map(|w| {
                    let left = cands.len() - w * 64;
                    if left >= 64 {
                        u64::MAX
                    } else {
                        (1 << left) - 1
                    }
                })
                .collect();
            let sparse: Vec<u64> = full.iter().map(|w| w & 0x5555_5555_5555_5555).collect();
            for (cs, ce) in (0..5).flat_map(|cs| (cs + 1..=5).map(move |ce| (cs, ce))) {
                for (rs, re) in (0..3).flat_map(|rs| (rs + 1..=3).map(move |re| (rs, re))) {
                    let placed = Rect::new(cs, ce, rs, re);
                    for dom in [&full, &sparse] {
                        let mut out = vec![0; masks.words];
                        let left = masks.narrow(dom, &placed, &mut out);
                        let bit = |d: &[u64], i: usize| d[i / 64] >> (i % 64) & 1 == 1;
                        for (i, c) in cands.iter().enumerate() {
                            assert_eq!(
                                bit(&out, i),
                                bit(dom, i) && !c.overlaps(&placed),
                                "{demand:?}: candidate {c:?} against {placed:?}"
                            );
                        }
                        assert_eq!(left, out.iter().any(|&w| w != 0));
                        placements += 1;
                    }
                }
            }
        }
        assert_eq!(placements, demands.len() * 15 * 6 * 2);
    }

    #[test]
    fn masks_stay_within_their_size_bound_on_the_widest_fabric() {
        // One CLB row of `MAX_DIM` columns: the kept list is a full
        // `max_candidates_per_region` one-column candidates, each with its
        // own column boundaries.
        let cols = FabricGeometry::MAX_DIM;
        let g = FabricGeometry::from_pattern(&[FabricColumn::Clb], cols as usize, 1);
        let max = FloorplannerConfig::default().max_candidates_per_region;
        let cands = sorted_cands(&g, ResourceVec::new(50, 0, 0), max);
        assert_eq!(cands.len(), max);
        let masks = Masks::new(&cands, &g);
        let n = cands.len();
        assert_eq!(masks.words, n.div_ceil(64));
        assert!(masks.bits.len() <= 4 * (n + 1) * masks.words);
        let lookups = [
            &masks.col_end_above,
            &masks.col_start_below,
            &masks.row_end_above,
            &masks.row_start_below,
        ];
        let entries: usize = lookups.iter().map(|l| l.len()).sum();
        assert_eq!(entries, 2 * (cols as usize + g.rows as usize + 2));
    }

    #[test]
    fn check_device_without_geometry_is_feasible() {
        let dev = Device::tiny_test(ResourceVec::new(10, 10, 10), 1);
        let out = planner().check_device(&dev, &[ResourceVec::new(5, 5, 5)], &never());
        assert_eq!(out, FloorplanOutcome::Feasible(vec![]));
    }

    #[test]
    fn xc7z020_hosts_typical_region_sets() {
        let dev = Device::xc7z020();
        let demands = vec![
            ResourceVec::new(600, 10, 20),
            ResourceVec::new(400, 4, 10),
            ResourceVec::new(900, 16, 0),
            ResourceVec::new(200, 0, 40),
        ];
        let out = planner().check_device(&dev, &demands, &never());
        assert!(out.is_feasible(), "got {out:?}");
        if let FloorplanOutcome::Feasible(rects) = out {
            for i in 0..rects.len() {
                for j in (i + 1)..rects.len() {
                    assert!(!rects[i].overlaps(&rects[j]));
                }
            }
        }
    }

    #[test]
    fn caller_token_cancels_solve() {
        // A token that fires on its very first poll aborts the search as a
        // Timeout even though the internal time limit is generous.
        let cancel = CancelToken::fire_on_poll(1);
        let out = planner().solve(&geom(), &[ResourceVec::new(100, 10, 0)], &cancel);
        assert_eq!(out, FloorplanOutcome::Timeout);
        assert_eq!(cancel.deadline_hits(), 1);
    }

    #[test]
    fn timeout_is_reported() {
        // A zero `time_limit` fires the wall-clock backstop at the first
        // checkpoint, long before `NODE_BUDGET` could.
        let p = Floorplanner::new(FloorplannerConfig {
            time_limit: Duration::from_nanos(0),
            ..Default::default()
        });
        let demand = ResourceVec::new(0, 11, 0);
        let out = p.solve(&geom(), &[demand, demand, demand], &never());
        // Either it proves infeasibility before the first clock check or it
        // times out; both are acceptable terminations, never Feasible.
        assert!(!out.is_feasible());
    }
}
