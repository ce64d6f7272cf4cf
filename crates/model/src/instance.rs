//! Complete problem instances and their (de)serialization.

use std::fs;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::architecture::Architecture;
use crate::device::FabricGeometry;
use crate::error::ModelError;
use crate::implementation::{ImplId, ImplPool};
use crate::taskgraph::{TaskGraph, TaskId};

/// A full scheduling problem: architecture + application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProblemInstance {
    /// Instance label (used in reports).
    pub name: String,
    /// Target SoC.
    pub architecture: Architecture,
    /// Application DAG.
    pub graph: TaskGraph,
    /// Shared implementation pool referenced by the graph's tasks.
    pub impls: ImplPool,
}

impl ProblemInstance {
    /// Builds and validates an instance.
    pub fn new(
        name: impl Into<String>,
        architecture: Architecture,
        graph: TaskGraph,
        impls: ImplPool,
    ) -> Result<Self, ModelError> {
        let inst = ProblemInstance {
            name: name.into(),
            architecture,
            graph,
            impls,
        };
        inst.validate()?;
        Ok(inst)
    }

    /// Full semantic validation:
    /// * structural graph sanity (edge ranges, no self-loops, non-empty
    ///   implementation sets);
    /// * every referenced implementation exists;
    /// * every task has a software fallback (§III);
    /// * no hardware implementation exceeds every fabric's capacity (it
    ///   must fit on at least one fabric; on a single-device target that is
    ///   the device capacity);
    /// * at least one processor core exists;
    /// * the platform has at least one fabric, and `device` is its
    ///   relaxation ([`Platform::relaxation_device`]).
    ///
    /// [`Platform::relaxation_device`]: crate::Platform::relaxation_device
    pub fn validate(&self) -> Result<(), ModelError> {
        let arch = &self.architecture;
        if arch.num_processors == 0 {
            return Err(ModelError::NoProcessors);
        }
        if arch.platform.fabrics.is_empty() {
            return Err(ModelError::NoFabrics);
        }
        if !arch.platform.is_relaxation_device(&arch.device) {
            return Err(ModelError::DeviceNotRelaxation);
        }
        self.graph.validate_structure()?;
        let fabrics = arch.fabrics();
        let max = FabricGeometry::MAX_DIM as usize;
        for g in fabrics.iter().filter_map(|d| d.geometry.as_ref()) {
            if g.columns.len() > max || g.rows as usize > max {
                return Err(ModelError::GeometryTooLarge {
                    columns: g.columns.len(),
                    rows: g.rows,
                });
            }
        }
        for (ti, task) in self.graph.tasks.iter().enumerate() {
            let mut has_sw = false;
            for &iid in &task.impls {
                let imp = self
                    .impls
                    .try_get(iid)
                    .ok_or(ModelError::UnknownImplementation {
                        task: ti as u32,
                        impl_id: iid.0,
                    })?;
                if imp.is_software() {
                    has_sw = true;
                } else if !fabrics.iter().any(|d| imp.resources().fits_in(&d.max_res)) {
                    return Err(ModelError::ImplementationTooLarge {
                        task: ti as u32,
                        impl_id: iid.0,
                    });
                }
            }
            if !has_sw {
                return Err(ModelError::NoSoftwareImplementation { task: ti as u32 });
            }
        }
        Ok(())
    }

    /// Hardware implementations of a task (`I_t^H`).
    pub fn hw_impls(&self, t: TaskId) -> impl Iterator<Item = ImplId> + '_ {
        self.graph
            .task(t)
            .impls
            .iter()
            .copied()
            .filter(|&i| self.impls.get(i).is_hardware())
    }

    /// Software implementations of a task (`I_t^S`).
    pub fn sw_impls(&self, t: TaskId) -> impl Iterator<Item = ImplId> + '_ {
        self.graph
            .task(t)
            .impls
            .iter()
            .copied()
            .filter(|&i| self.impls.get(i).is_software())
    }

    /// The fastest software implementation of a task; always present in a
    /// validated instance.
    pub fn fastest_sw_impl(&self, t: TaskId) -> ImplId {
        self.sw_impls(t)
            .min_by_key(|&i| (self.impls.get(i).time, i))
            .expect("validated instance has a software implementation per task")
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("instance serialization cannot fail")
    }

    /// Deserializes from JSON, then validates.
    pub fn from_json(json: &str) -> Result<Self, ModelError> {
        let inst: ProblemInstance =
            serde_json::from_str(json).map_err(|e| ModelError::Parse(e.to_string()))?;
        inst.validate()?;
        Ok(inst)
    }

    /// Writes the instance as JSON to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ModelError> {
        fs::write(path, self.to_json())?;
        Ok(())
    }

    /// Loads and validates an instance from a JSON file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ModelError> {
        let json = fs::read_to_string(path)?;
        Self::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::implementation::Implementation;
    use crate::resources::ResourceVec;

    fn tiny_instance() -> ProblemInstance {
        let mut impls = ImplPool::new();
        let sw_a = impls.add(Implementation::software("a_sw", 100));
        let hw_a = impls.add(Implementation::hardware(
            "a_hw",
            10,
            ResourceVec::new(5, 0, 0),
        ));
        let sw_b = impls.add(Implementation::software("b_sw", 80));
        let mut g = TaskGraph::new();
        let a = g.add_task("a", vec![sw_a, hw_a]);
        let b = g.add_task("b", vec![sw_b]);
        g.add_edge(a, b);
        ProblemInstance::new(
            "tiny",
            Architecture::new(1, Device::tiny_test(ResourceVec::new(10, 10, 10), 10)),
            g,
            impls,
        )
        .unwrap()
    }

    #[test]
    fn validates_and_queries() {
        let inst = tiny_instance();
        let a = TaskId(0);
        assert_eq!(inst.hw_impls(a).count(), 1);
        assert_eq!(inst.sw_impls(a).count(), 1);
        assert_eq!(inst.fastest_sw_impl(a), ImplId(0));
    }

    #[test]
    fn json_roundtrip() {
        let inst = tiny_instance();
        let json = inst.to_json();
        let back = ProblemInstance::from_json(&json).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn rejects_missing_sw_impl() {
        let mut impls = ImplPool::new();
        let hw = impls.add(Implementation::hardware(
            "hw",
            10,
            ResourceVec::new(5, 0, 0),
        ));
        let mut g = TaskGraph::new();
        g.add_task("a", vec![hw]);
        let err = ProblemInstance::new(
            "bad",
            Architecture::new(1, Device::tiny_test(ResourceVec::new(10, 10, 10), 10)),
            g,
            impls,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ModelError::NoSoftwareImplementation { task: 0 }
        ));
    }

    #[test]
    fn rejects_oversized_hw_impl() {
        let mut impls = ImplPool::new();
        let sw = impls.add(Implementation::software("sw", 10));
        let hw = impls.add(Implementation::hardware(
            "hw",
            1,
            ResourceVec::new(999, 0, 0),
        ));
        let mut g = TaskGraph::new();
        g.add_task("a", vec![sw, hw]);
        let err = ProblemInstance::new(
            "bad",
            Architecture::new(1, Device::tiny_test(ResourceVec::new(10, 10, 10), 10)),
            g,
            impls,
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::ImplementationTooLarge { .. }));
    }

    #[test]
    fn rejects_unknown_impl_reference() {
        let mut impls = ImplPool::new();
        impls.add(Implementation::software("sw", 10));
        let mut g = TaskGraph::new();
        g.add_task("a", vec![ImplId(5)]);
        let err = ProblemInstance::new(
            "bad",
            Architecture::new(1, Device::tiny_test(ResourceVec::new(10, 10, 10), 10)),
            g,
            impls,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ModelError::UnknownImplementation { impl_id: 5, .. }
        ));
    }

    #[test]
    fn rejects_zero_processors() {
        let mut impls = ImplPool::new();
        let sw = impls.add(Implementation::software("sw", 10));
        let mut g = TaskGraph::new();
        g.add_task("a", vec![sw]);
        let err = ProblemInstance::new(
            "bad",
            Architecture::new(0, Device::tiny_test(ResourceVec::new(10, 10, 10), 10)),
            g,
            impls,
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::NoProcessors));
    }

    #[test]
    fn rejects_oversized_geometry() {
        let mut inst = tiny_instance();
        let rows = FabricGeometry::MAX_DIM + 1;
        let mut device = inst.architecture.device.clone();
        device.geometry = Some(FabricGeometry::from_pattern(
            &[crate::device::FabricColumn::Clb],
            1,
            rows,
        ));
        inst.architecture = Architecture::new(1, device);
        let err = inst.validate().unwrap_err();
        assert!(matches!(err, ModelError::GeometryTooLarge { columns: 1, rows: r } if r == rows));
    }

    #[test]
    fn rejects_a_platform_without_fabrics() {
        let mut inst = tiny_instance();
        inst.architecture.platform.fabrics.clear();
        assert!(matches!(inst.validate(), Err(ModelError::NoFabrics)));
        // Through the JSON loader too.
        let err = ProblemInstance::from_json(&inst.to_json()).unwrap_err();
        assert!(matches!(err, ModelError::NoFabrics));
    }

    #[test]
    fn rejects_a_device_that_is_not_the_platform_relaxation() {
        let mut inflated = tiny_instance();
        inflated.architecture.device.max_res = ResourceVec::new(100, 10, 10);
        assert!(matches!(
            inflated.validate(),
            Err(ModelError::DeviceNotRelaxation)
        ));

        // A multi-fabric platform whose `device` is its first fabric
        // rather than the summed relaxation.
        let mut inst = tiny_instance();
        inst.architecture = Architecture::on_platform(1, crate::Platform::dual_zedboard());
        inst.validate().expect("relaxation device is valid");
        inst.architecture.device = inst.architecture.fabric(0).clone();
        let err = ProblemInstance::from_json(&inst.to_json()).unwrap_err();
        assert!(matches!(err, ModelError::DeviceNotRelaxation));
    }
}
