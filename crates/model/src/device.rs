//! Partially-reconfigurable FPGA device descriptions.
//!
//! A [`Device`] carries everything the schedulers and the floorplanner need
//! to know about the target fabric:
//!
//! * per-kind resource capacities (`maxRes_r`),
//! * the bitstream cost model: average bits needed to configure one unit of
//!   each resource kind (`bit_r`, paper eq. 1) and the reconfiguration port
//!   throughput (`recFreq`, paper eq. 2),
//! * a column-based [`FabricGeometry`] used by the floorplanner to decide
//!   whether a set of reconfigurable regions admits a feasible placement.
//!
//! The catalog constructors ([`Device::xc7z020`] etc.) approximate real
//! single-die Xilinx 7-series parts; multi-fabric targets (SLR-style parts,
//! multi-FPGA boards) live in the platform catalog —
//! [`Platform::alveo_u250`](crate::platform::Platform::alveo_u250) and
//! [`Platform::dual_zedboard`](crate::platform::Platform::dual_zedboard) —
//! where a `Device` describes one fabric. Bit costs are derived from the
//! 7-series frame structure (101 words x 32 bits per frame) and the frame
//! counts per column reported by Vipin & Fahmy (ARC 2012, paper ref.
//! \[14\]); they are estimates, which is all eq. 1 requires.

use serde::{Deserialize, Serialize};

use crate::resources::{ResourceKind, ResourceVec};
use crate::time::Time;

/// Bits in one 7-series configuration frame: 101 words x 32 bits.
pub const FRAME_BITS: u64 = 101 * 32;

/// The kind of resource column in a column-based fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FabricColumn {
    /// A column of CLBs (50 per clock-region row in 7-series).
    Clb,
    /// A column of BRAM36 blocks (10 per clock-region row).
    Bram,
    /// A column of DSP48 slices (20 per clock-region row).
    Dsp,
}

impl FabricColumn {
    /// Resource kind provided by this column.
    pub const fn kind(self) -> ResourceKind {
        match self {
            FabricColumn::Clb => ResourceKind::Clb,
            FabricColumn::Bram => ResourceKind::Bram,
            FabricColumn::Dsp => ResourceKind::Dsp,
        }
    }

    /// Resource units in one clock-region-high segment of this column
    /// (7-series figures: 50 CLBs, 10 BRAM36, 20 DSP48).
    pub const fn units_per_row(self) -> u64 {
        match self {
            FabricColumn::Clb => 50,
            FabricColumn::Bram => 10,
            FabricColumn::Dsp => 20,
        }
    }
}

/// Column-based fabric geometry: the device is a grid of `rows` clock-region
/// rows by `columns.len()` resource columns. Reconfigurable regions are
/// rectangles of whole column segments, as required by 7-series partial
/// reconfiguration rules (regions snap to clock-region rows).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricGeometry {
    /// Left-to-right column kinds.
    pub columns: Vec<FabricColumn>,
    /// Number of clock-region rows.
    pub rows: u32,
}

impl FabricGeometry {
    /// Most columns, and most rows, a geometry may have: the floorplanner
    /// packs rectangle coordinates into 16 bits each.
    pub const MAX_DIM: u32 = u16::MAX as u32;

    /// Builds a geometry from a repeating column pattern.
    pub fn from_pattern(pattern: &[FabricColumn], repeats: usize, rows: u32) -> Self {
        let mut columns = Vec::with_capacity(pattern.len() * repeats);
        for _ in 0..repeats {
            columns.extend_from_slice(pattern);
        }
        FabricGeometry { columns, rows }
    }

    /// Total resources provided by the whole grid.
    pub fn total_resources(&self) -> ResourceVec {
        let mut total = ResourceVec::ZERO;
        for col in &self.columns {
            total[col.kind()] += col.units_per_row() * self.rows as u64;
        }
        total
    }

    /// Resources provided by the rectangle spanning columns
    /// `[col_start, col_end)` on `height` rows.
    pub fn rect_resources(&self, col_start: usize, col_end: usize, height: u32) -> ResourceVec {
        let mut total = ResourceVec::ZERO;
        for col in &self.columns[col_start..col_end] {
            total[col.kind()] += col.units_per_row() * height as u64;
        }
        total
    }
}

/// A partially-reconfigurable FPGA device.
///
/// ```
/// use prfpga_model::{Device, ResourceVec};
///
/// let zynq = Device::xc7z020();
/// // Reconfiguring a 600-CLB region moves a ~1.4 Mb bitstream (eq. 1-2).
/// let region = ResourceVec::new(600, 0, 0);
/// let bits = zynq.bitstream_bits(&region);
/// assert_eq!(zynq.reconf_time(&region), bits.div_ceil(zynq.rec_freq));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Device {
    /// Human-readable part name.
    pub name: String,
    /// Per-kind resource capacity (`maxRes_r`).
    pub max_res: ResourceVec,
    /// Average bits to configure one unit of each resource kind (`bit_r`).
    pub bits_per_unit: [u64; crate::resources::NUM_RESOURCE_KINDS],
    /// Reconfiguration throughput in bits per tick (`recFreq`). With ticks
    /// read as microseconds, the 7-series ICAP at 100 MHz x 32 bit moves
    /// 3200 bits per tick.
    pub rec_freq: u64,
    /// Fabric geometry for floorplanning; `None` disables floorplanning
    /// (every region set is considered placeable), which is useful for unit
    /// tests that target the scheduler in isolation.
    pub geometry: Option<FabricGeometry>,
}

impl Device {
    /// Bitstream size in bits of a region requiring `res` resources
    /// (paper eq. 1: `bit_s = sum_r res_{s,r} * bit_r`).
    #[inline]
    pub fn bitstream_bits(&self, res: &ResourceVec) -> u64 {
        res.0
            .iter()
            .zip(self.bits_per_unit.iter())
            .map(|(&n, &b)| n * b)
            .sum()
    }

    /// Reconfiguration time in ticks of a region requiring `res` resources
    /// (paper eq. 2: `reconf_s = bit_s / recFreq`), rounded up; a non-empty
    /// region always costs at least one tick.
    #[inline]
    pub fn reconf_time(&self, res: &ResourceVec) -> Time {
        let bits = self.bitstream_bits(res);
        if bits == 0 {
            0
        } else {
            bits.div_ceil(self.rec_freq).max(1)
        }
    }

    /// Returns a copy of this device with capacities scaled by `num/den`
    /// (used by the feasibility-check restart loop, paper §V-H).
    pub fn with_scaled_capacity(&self, num: u64, den: u64) -> Device {
        let mut d = self.clone();
        d.scale_capacity_in_place(num, den);
        d
    }

    /// [`Device::with_scaled_capacity`] without the clone: scales `maxRes`
    /// in place, leaving name/geometry untouched. The scheduler restart
    /// loops ratchet one owned device down with this instead of cloning a
    /// fresh device (and its geometry) per attempt.
    #[inline]
    pub fn scale_capacity_in_place(&mut self, num: u64, den: u64) {
        self.max_res = self.max_res.scale_frac_floor(num, den);
    }

    /// 7-series per-unit bit costs derived from frame counts per column:
    /// a CLB column (50 CLBs) takes 36 frames, a BRAM column (10 BRAM36)
    /// takes 28 interconnect frames, a DSP column (20 DSP48) takes 28 frames.
    pub const fn series7_bits_per_unit() -> [u64; 3] {
        [
            36 * FRAME_BITS / 50, // ~2327 bits per CLB
            28 * FRAME_BITS / 10, // ~9049 bits per BRAM36
            28 * FRAME_BITS / 20, // ~4524 bits per DSP48
        ]
    }

    /// Builds a device whose schedulable capacity (`maxRes_r`) equals
    /// exactly what its grid provides, so "fits the capacity" and "can be
    /// floorplanned at 100% fill" talk about the same budget.
    fn from_geometry(name: &str, geometry: FabricGeometry) -> Device {
        let max_res = geometry.total_resources();
        Device {
            name: name.to_string(),
            max_res,
            bits_per_unit: Self::series7_bits_per_unit(),
            rec_freq: 3200,
            geometry: Some(geometry),
        }
    }

    /// Zynq XC7Z020 (ZedBoard), the paper's evaluation target. The grid
    /// approximates the official part (13 300 CLB slice-pairs, 140 BRAM36,
    /// 220 DSP48E1) at column granularity over 3 clock-region rows:
    /// 88 CLB + 5 BRAM + 4 DSP columns → 13 200 CLB, 150 BRAM, 240 DSP.
    /// BRAM and DSP columns sit adjacent in pairs, as on real 7-series
    /// dies, so mixed-resource regions stay narrow. ICAP at 400 MB/s
    /// (3 200 bits per µs-tick).
    pub fn xc7z020() -> Device {
        // 5 special groups spread through 88 CLB columns: 4 adjacent
        // (BRAM, DSP) pairs plus one lone BRAM column.
        let mut columns = Vec::with_capacity(97);
        let clb_runs = [18usize, 18, 17, 18, 17];
        let special: [&[FabricColumn]; 5] = [
            &[FabricColumn::Bram, FabricColumn::Dsp],
            &[FabricColumn::Bram, FabricColumn::Dsp],
            &[FabricColumn::Bram],
            &[FabricColumn::Bram, FabricColumn::Dsp],
            &[FabricColumn::Bram, FabricColumn::Dsp],
        ];
        for (run, sp) in clb_runs.iter().zip(special.iter()) {
            columns.extend(std::iter::repeat_n(FabricColumn::Clb, *run));
            columns.extend(sp.iter().copied());
        }
        Device::from_geometry("xc7z020", FabricGeometry { columns, rows: 3 })
    }

    /// Zynq XC7Z045: a larger part (official: 54 650 CLBs, 545 BRAM36,
    /// 900 DSP48; grid approximation 54 600 / 560 / 840 over 7 rows).
    pub fn xc7z045() -> Device {
        // 6 adjacent (BRAM, DSP) pairs plus 2 lone BRAM columns spread
        // through 156 CLB columns, 7 rows.
        let mut columns = Vec::new();
        for i in 0..6 {
            columns.extend(std::iter::repeat_n(FabricColumn::Clb, 20));
            columns.push(FabricColumn::Bram);
            columns.push(FabricColumn::Dsp);
            if i % 3 == 1 {
                columns.push(FabricColumn::Bram);
            }
        }
        columns.extend(std::iter::repeat_n(FabricColumn::Clb, 36));
        Device::from_geometry("xc7z045", FabricGeometry { columns, rows: 7 })
    }

    /// Zynq XC7Z010: the smallest Zynq (official: 4 400 CLBs, 60 BRAM36,
    /// 80 DSP48; grid approximation 4 400 / 60 / 80 over 2 rows).
    pub fn xc7z010() -> Device {
        let mut columns = Vec::new();
        let clb_runs = [15usize, 15, 14];
        let special: [&[FabricColumn]; 3] = [
            &[FabricColumn::Bram, FabricColumn::Dsp],
            &[FabricColumn::Bram, FabricColumn::Dsp],
            &[FabricColumn::Bram],
        ];
        for (run, sp) in clb_runs.iter().zip(special.iter()) {
            columns.extend(std::iter::repeat_n(FabricColumn::Clb, *run));
            columns.extend(sp.iter().copied());
        }
        Device::from_geometry("xc7z010", FabricGeometry { columns, rows: 2 })
    }

    /// A tiny synthetic device for unit tests: trivially small capacities,
    /// unit bit costs, no geometry (floorplanning always succeeds).
    pub fn tiny_test(max_res: ResourceVec, rec_freq: u64) -> Device {
        Device {
            name: "tiny-test".to_string(),
            max_res,
            bits_per_unit: [1, 1, 1],
            rec_freq,
            geometry: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitstream_and_reconf_time() {
        let d = Device::tiny_test(ResourceVec::new(100, 10, 10), 10);
        let res = ResourceVec::new(25, 0, 0);
        assert_eq!(d.bitstream_bits(&res), 25);
        assert_eq!(d.reconf_time(&res), 3, "ceil(25/10) = 3");
        assert_eq!(d.reconf_time(&ResourceVec::ZERO), 0);
        // Sub-tick bitstreams still cost a tick.
        assert_eq!(d.reconf_time(&ResourceVec::new(1, 0, 0)), 1);
    }

    #[test]
    fn series7_bit_costs_are_sane() {
        let [clb, bram, dsp] = Device::series7_bits_per_unit();
        assert!(clb > 2000 && clb < 2700, "CLB ~2327 bits, got {clb}");
        assert!(bram > 8500 && bram < 9500, "BRAM ~9049 bits, got {bram}");
        assert!(dsp > 4200 && dsp < 4800, "DSP ~4524 bits, got {dsp}");
    }

    #[test]
    fn catalog_capacity_equals_grid() {
        for d in [Device::xc7z010(), Device::xc7z020(), Device::xc7z045()] {
            let geom = d.geometry.as_ref().unwrap();
            assert_eq!(
                d.max_res,
                geom.total_resources(),
                "{}: capacity must equal the grid total",
                d.name
            );
        }
        // Grid approximations stay within ~10% of the official numbers.
        let d20 = Device::xc7z020();
        assert_eq!(d20.max_res, ResourceVec::new(13_200, 150, 240));
        assert_eq!(Device::xc7z010().max_res, ResourceVec::new(4_400, 60, 80));
        assert_eq!(
            Device::xc7z045().max_res,
            ResourceVec::new(54_600, 560, 840)
        );
    }

    #[test]
    fn geometry_rect_resources() {
        let geom = FabricGeometry::from_pattern(
            &[FabricColumn::Clb, FabricColumn::Bram, FabricColumn::Dsp],
            2,
            3,
        );
        assert_eq!(geom.columns.len(), 6);
        let all = geom.total_resources();
        assert_eq!(all, ResourceVec::new(2 * 50 * 3, 2 * 10 * 3, 2 * 20 * 3));
        let rect = geom.rect_resources(0, 2, 1);
        assert_eq!(rect, ResourceVec::new(50, 10, 0));
        let empty = geom.rect_resources(3, 3, 3);
        assert_eq!(empty, ResourceVec::ZERO);
    }

    #[test]
    fn scaled_capacity() {
        let d = Device::xc7z020();
        let s = d.with_scaled_capacity(9, 10);
        assert_eq!(s.max_res, ResourceVec::new(11_880, 135, 216));
        assert_eq!(s.name, d.name);
    }

    #[test]
    fn reconf_time_of_real_region() {
        let d = Device::xc7z020();
        // A region of 600 CLBs, 10 BRAMs, 20 DSPs: ~1.58 Mb -> ~494 us.
        let res = ResourceVec::new(600, 10, 20);
        let t = d.reconf_time(&res);
        assert!(t > 400 && t < 600, "expected ~494 ticks, got {t}");
    }
}
