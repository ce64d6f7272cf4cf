//! Multi-fabric platforms: SLRs of a multi-die part or separate FPGAs.
//!
//! A [`Platform`] generalizes the single-[`Device`] target of the paper to
//! one or more *fabrics*, each a full [`Device`] with its own geometry,
//! per-kind capacities, bitstream cost model and reconfiguration controller.
//! Two deployment styles motivate it (ROADMAP item 4):
//!
//! * **multi-die parts** (e.g. an Alveo U250 with 4 super-logic regions):
//!   each SLR is floorplanned independently and crossings ride the limited
//!   SLL wires, so a region never straddles an SLR boundary;
//! * **multi-FPGA systems** (e.g. two ZedBoards on one backplane): each
//!   board has its own ICAP, and inter-board data movement is far slower
//!   than on-chip wires.
//!
//! Both collapse to the same abstraction: per-fabric capacity and
//! floorplanning, one reconfiguration-controller group per fabric, and a
//! flat latency added to every data edge whose endpoints execute in regions
//! on *different* fabrics ([`Platform::crossing_latency`]). Tasks on
//! processor cores live in a shared host pool and never pay the crossing.
//!
//! A 1-fabric platform is exactly the paper's single-device model, and
//! every [`Architecture`](crate::Architecture) carries a platform: the
//! schedulers, the floorplanner and the validator run one code path for
//! every fabric count.

use serde::{Deserialize, Serialize};

use crate::device::{Device, FabricColumn, FabricGeometry};
use crate::resources::ResourceVec;
use crate::time::Time;

/// Index of a fabric within a [`Platform`] (dense, `0..num_fabrics`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FabricId(pub u32);

impl FabricId {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A scheduling target made of one or more reconfigurable fabrics plus an
/// inter-fabric link cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    /// Human-readable platform name.
    pub name: String,
    /// The fabrics, indexed by [`FabricId`]. Each carries its own capacity,
    /// geometry, bit costs and reconfiguration throughput; fabric `f` owns
    /// its own group of reconfiguration controllers.
    pub fabrics: Vec<Device>,
    /// Latency in ticks added to a data edge whose endpoints execute in
    /// regions on different fabrics (SLL / board-link crossing). Edges with
    /// a software endpoint never pay it: cores are a shared host pool.
    pub crossing_latency: Time,
}

impl Platform {
    /// Wraps a single device as a 1-fabric platform (zero crossing latency;
    /// with one fabric no edge can ever cross).
    pub fn single(device: Device) -> Self {
        Platform {
            name: device.name.clone(),
            fabrics: vec![device],
            crossing_latency: 0,
        }
    }

    /// Number of fabrics (>= 1 for any usable platform).
    #[inline]
    pub fn num_fabrics(&self) -> usize {
        self.fabrics.len()
    }

    /// The device describing fabric `f`.
    #[inline]
    pub fn fabric(&self, f: FabricId) -> &Device {
        &self.fabrics[f.index()]
    }

    /// Sum of all per-fabric capacities.
    pub fn total_resources(&self) -> ResourceVec {
        self.fabrics.iter().map(|d| d.max_res).sum()
    }

    /// Componentwise minimum over per-fabric capacities: the largest
    /// hardware implementation that fits on *every* fabric. The generator
    /// caps synthetic implementations at this so the partition phase is
    /// never forced into a corner by a module that only fits one fabric.
    pub fn min_fabric_capacity(&self) -> ResourceVec {
        let mut out = self.fabrics.first().map(|d| d.max_res).unwrap_or_default();
        for d in &self.fabrics[1..] {
            for i in 0..crate::resources::NUM_RESOURCE_KINDS {
                out.0[i] = out.0[i].min(d.max_res.0[i]);
            }
        }
        out
    }

    /// The single-fabric relaxation of this platform: for one fabric, that
    /// fabric itself (geometry included, so the relaxed device floorplans
    /// identically); for several, a geometry-free device with the summed
    /// capacity and the first fabric's bitstream cost model. The relaxation
    /// ignores partitioning and crossing latency entirely, so its makespan
    /// lower-bounds what any partitioned schedule can reach — the benchmark
    /// suite uses it as the partition-quality yardstick.
    pub fn relaxation_device(&self) -> Device {
        if self.fabrics.len() == 1 {
            return self.fabrics[0].clone();
        }
        let first = &self.fabrics[0];
        Device {
            name: format!("{}-relaxed", self.name),
            max_res: self.total_resources(),
            bits_per_unit: first.bits_per_unit,
            rec_freq: first.rec_freq,
            geometry: None,
        }
    }

    /// True when `device` equals [`Platform::relaxation_device`], decided
    /// without building that device.
    pub fn is_relaxation_device(&self, device: &Device) -> bool {
        let [first, rest @ ..] = self.fabrics.as_slice() else {
            return false;
        };
        if rest.is_empty() {
            return device == first;
        }
        device.name.strip_suffix("-relaxed") == Some(self.name.as_str())
            && device.max_res == self.total_resources()
            && device.bits_per_unit == first.bits_per_unit
            && device.rec_freq == first.rec_freq
            && device.geometry.is_none()
    }

    /// Scales every fabric's capacity by `num/den` in place (the restart
    /// ratchet of paper §V-H, applied fabric-wise in lockstep with the
    /// relaxation device).
    pub fn scale_capacity_in_place(&mut self, num: u64, den: u64) {
        for d in &mut self.fabrics {
            d.scale_capacity_in_place(num, den);
        }
    }

    /// Zeroes every fabric's capacity (the all-software fallback).
    pub fn zero_capacity_in_place(&mut self) {
        for d in &mut self.fabrics {
            d.max_res = ResourceVec::ZERO;
        }
    }

    /// An Alveo-U250-style part: 4 identical SLR-like fabrics, each its own
    /// column grid, with a small crossing latency for the SLL hop. Capacities
    /// are scaled to the workload sizes of the paper's evaluation (each SLR
    /// approximates a mid-range 7-series die, not the full UltraScale+ SLR),
    /// and each SLR is modeled with its own configuration engine so
    /// reconfigurations on different SLRs proceed concurrently.
    pub fn alveo_u250() -> Self {
        let fabrics = (0..4)
            .map(|i| Self::u250_slr(&format!("u250-slr{i}")))
            .collect();
        Platform {
            name: "alveo-u250".to_string(),
            fabrics,
            crossing_latency: 5,
        }
    }

    /// One SLR-like fabric of [`Platform::alveo_u250`]: 6 groups of
    /// 16 CLB columns followed by a (BRAM, DSP) pair, plus 2 lone BRAM
    /// columns, over 4 clock-region rows — 19 200 CLB / 320 BRAM / 480 DSP.
    fn u250_slr(name: &str) -> Device {
        let mut columns = Vec::new();
        for i in 0..6 {
            columns.extend(std::iter::repeat_n(FabricColumn::Clb, 16));
            columns.push(FabricColumn::Bram);
            columns.push(FabricColumn::Dsp);
            if i % 3 == 1 {
                columns.push(FabricColumn::Bram);
            }
        }
        let geometry = FabricGeometry { columns, rows: 4 };
        let max_res = geometry.total_resources();
        Device {
            name: name.to_string(),
            max_res,
            bits_per_unit: Device::series7_bits_per_unit(),
            rec_freq: 3200,
            geometry: Some(geometry),
        }
    }

    /// Two ZedBoards on one backplane, each at the effective 50 MB/s
    /// partial-reconfiguration throughput (see
    /// [`crate::Architecture::zedboard_pr`]), with a board-to-board link
    /// latency dominating the on-chip wires.
    pub fn dual_zedboard() -> Self {
        let fabrics = (0..2)
            .map(|i| {
                let mut d = Device::xc7z020();
                d.name = format!("zedboard-{i}");
                d.rec_freq = 400;
                d
            })
            .collect();
        Platform {
            name: "dual-zedboard".to_string(),
            fabrics,
            crossing_latency: 50,
        }
    }

    /// The multi-fabric platform catalog.
    pub fn catalog() -> Vec<Platform> {
        vec![Platform::alveo_u250(), Platform::dual_zedboard()]
    }

    /// Looks up a platform by name. Multi-fabric catalog names
    /// (`alveo-u250`, `dual-zedboard`, `_` and `-` interchangeable) resolve
    /// to the catalog entries; single-device catalog names (`xc7z010`,
    /// `xc7z020`, `xc7z045`) resolve to 1-fabric wraps. Any other name is
    /// an `unknown platform` error.
    pub fn by_name(name: &str) -> Result<Platform, String> {
        let canon = name.to_ascii_lowercase().replace('_', "-");
        Ok(match canon.as_str() {
            "alveo-u250" | "u250" => Platform::alveo_u250(),
            "dual-zedboard" => Platform::dual_zedboard(),
            "xc7z010" => Platform::single(Device::xc7z010()),
            "xc7z020" | "zedboard" => Platform::single(Device::xc7z020()),
            "xc7z045" => Platform::single(Device::xc7z045()),
            _ => return Err(format!("unknown platform `{name}`")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_wrap_is_the_device() {
        let p = Platform::single(Device::xc7z020());
        assert_eq!(p.num_fabrics(), 1);
        assert_eq!(p.crossing_latency, 0);
        // The relaxation of a 1-fabric platform is the fabric itself,
        // geometry included — this is what byte-identity rests on.
        assert_eq!(p.relaxation_device(), Device::xc7z020());
        assert_eq!(p.min_fabric_capacity(), Device::xc7z020().max_res);
    }

    #[test]
    fn alveo_u250_shape() {
        let p = Platform::alveo_u250();
        assert_eq!(p.num_fabrics(), 4);
        for d in &p.fabrics {
            assert_eq!(d.max_res, ResourceVec::new(19_200, 320, 480));
            let geom = d.geometry.as_ref().unwrap();
            assert_eq!(d.max_res, geom.total_resources());
        }
        assert_eq!(p.total_resources(), ResourceVec::new(76_800, 1280, 1920));
        assert!(p.crossing_latency > 0);
        // Identical fabrics: the min capacity equals any one fabric.
        assert_eq!(p.min_fabric_capacity(), p.fabrics[0].max_res);
    }

    #[test]
    fn dual_zedboard_shape() {
        let p = Platform::dual_zedboard();
        assert_eq!(p.num_fabrics(), 2);
        assert_eq!(p.fabrics[0].max_res, Device::xc7z020().max_res);
        assert_eq!(p.fabrics[0].rec_freq, 400);
        assert!(p.crossing_latency > Platform::alveo_u250().crossing_latency);
    }

    #[test]
    fn relaxation_of_multi_fabric_sums_capacity() {
        let p = Platform::dual_zedboard();
        let d = p.relaxation_device();
        assert_eq!(d.max_res, p.total_resources());
        assert_eq!(d.rec_freq, 400);
        assert!(d.geometry.is_none());
    }

    #[test]
    fn relaxation_check_agrees_with_building_the_device() {
        let platforms = [
            Platform::alveo_u250(),
            Platform::dual_zedboard(),
            Platform::by_name("xc7z020").unwrap(),
        ];
        let edits: [fn(&mut Device); 6] = [
            |_| {},
            |d| d.name.push('x'),
            |d| d.max_res = ResourceVec::ZERO,
            |d| d.bits_per_unit[0] += 1,
            |d| d.rec_freq += 1,
            |d| d.geometry = Device::xc7z010().geometry,
        ];
        for p in &platforms {
            for other in &platforms {
                for edit in edits {
                    let mut d = other.relaxation_device();
                    edit(&mut d);
                    assert_eq!(
                        p.is_relaxation_device(&d),
                        d == p.relaxation_device(),
                        "{} against {}",
                        p.name,
                        d.name
                    );
                }
            }
        }
    }

    #[test]
    fn scaling_tracks_every_fabric() {
        let mut p = Platform::dual_zedboard();
        let before = p.fabrics[0].max_res;
        p.scale_capacity_in_place(85, 100);
        assert_eq!(p.fabrics[0].max_res, before.scale_frac_floor(85, 100));
        assert_eq!(p.fabrics[0].max_res, p.fabrics[1].max_res);
        p.zero_capacity_in_place();
        assert!(p.total_resources().is_zero());
    }

    #[test]
    fn by_name_resolves_catalog_and_devices() {
        assert_eq!(Platform::by_name("alveo_u250").unwrap().num_fabrics(), 4);
        assert_eq!(Platform::by_name("dual-zedboard").unwrap().num_fabrics(), 2);
        let single = Platform::by_name("xc7z020").unwrap();
        assert_eq!(single.num_fabrics(), 1);
        assert_eq!(single.fabrics[0].name, "xc7z020");
        assert_eq!(
            Platform::by_name("nonesuch"),
            Err("unknown platform `nonesuch`".to_string())
        );
    }

    #[test]
    fn serde_roundtrip() {
        let p = Platform::alveo_u250();
        let json = serde_json::to_string(&p).unwrap();
        let back: Platform = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
