//! Validation error taxonomy.

use std::fmt;

use prfpga_model::{RegionId, TaskId};

/// A specific constraint violation found by [`validate_schedule`].
///
/// [`validate_schedule`]: crate::validate_schedule
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The schedule does not carry exactly one assignment per task.
    AssignmentCountMismatch {
        /// Tasks in the instance.
        expected: usize,
        /// Assignments in the schedule.
        actual: usize,
    },
    /// A task uses an implementation not in its implementation set.
    ImplNotAvailable {
        /// Offending task.
        task: TaskId,
    },
    /// A software implementation was placed in a region, or a hardware
    /// implementation on a core.
    PlacementKindMismatch {
        /// Offending task.
        task: TaskId,
    },
    /// A core index is out of range.
    CoreOutOfRange {
        /// Offending task.
        task: TaskId,
        /// The referenced core.
        core: usize,
    },
    /// A region index is out of range.
    RegionOutOfRange {
        /// Offending task.
        task: TaskId,
    },
    /// `end - start` does not equal the implementation execution time.
    DurationMismatch {
        /// Offending task.
        task: TaskId,
    },
    /// A hardware task does not fit the region it was placed in.
    RegionTooSmall {
        /// Offending task.
        task: TaskId,
        /// Its region.
        region: RegionId,
    },
    /// A region names a fabric the platform does not have.
    FabricOutOfRange {
        /// Offending region.
        region: RegionId,
    },
    /// The regions hosted on one fabric exceed that fabric's capacity.
    FabricOverCapacity {
        /// Overcommitted fabric.
        fabric: u32,
    },
    /// A dependency is violated: the consumer starts before the producer
    /// ends.
    PrecedenceViolated {
        /// Producer task.
        from: TaskId,
        /// Consumer task.
        to: TaskId,
    },
    /// Two tasks overlap on the same processor core.
    CoreOverlap {
        /// First task.
        a: TaskId,
        /// Second task.
        b: TaskId,
        /// The shared core.
        core: usize,
    },
    /// Two tasks overlap in the same reconfigurable region.
    RegionOverlap {
        /// First task.
        a: TaskId,
        /// Second task.
        b: TaskId,
        /// The shared region.
        region: RegionId,
    },
    /// Two reconfigurations overlap on the single reconfiguration
    /// controller.
    ReconfiguratorContention,
    /// A reconfiguration overlaps a task executing in its target region.
    ReconfigurationDuringExecution {
        /// The region where the clash happens.
        region: RegionId,
    },
    /// Consecutive tasks with different implementations in a region have no
    /// reconfiguration between them.
    MissingReconfiguration {
        /// Task whose bitstream was never loaded.
        task: TaskId,
        /// Its region.
        region: RegionId,
    },
    /// A reconfiguration's duration does not match the region bitstream
    /// size over the controller throughput (eq. 2).
    ReconfigurationDurationMismatch {
        /// Target region of the offending reconfiguration.
        region: RegionId,
    },
    /// A reconfiguration references a task/region pair inconsistent with
    /// the assignments (wrong region, wrong implementation, or completes
    /// after its outgoing task starts).
    DanglingReconfiguration {
        /// The outgoing task named by the reconfiguration.
        task: TaskId,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ValidationError::*;
        match self {
            AssignmentCountMismatch { expected, actual } => {
                write!(f, "expected {expected} assignments, found {actual}")
            }
            ImplNotAvailable { task } => {
                write!(f, "task {} uses an implementation outside its set", task.0)
            }
            PlacementKindMismatch { task } => write!(
                f,
                "task {} placement is inconsistent with its implementation kind",
                task.0
            ),
            CoreOutOfRange { task, core } => {
                write!(f, "task {} mapped to nonexistent core {core}", task.0)
            }
            RegionOutOfRange { task } => {
                write!(f, "task {} mapped to nonexistent region", task.0)
            }
            DurationMismatch { task } => {
                write!(
                    f,
                    "task {} slot length differs from its execution time",
                    task.0
                )
            }
            RegionTooSmall { task, region } => {
                write!(f, "task {} does not fit in region {}", task.0, region.0)
            }
            FabricOutOfRange { region } => {
                write!(f, "region {} names a nonexistent fabric", region.0)
            }
            FabricOverCapacity { fabric } => {
                write!(f, "regions exceed the capacity of fabric {fabric}")
            }
            PrecedenceViolated { from, to } => {
                write!(
                    f,
                    "task {} starts before its producer {} ends",
                    to.0, from.0
                )
            }
            CoreOverlap { a, b, core } => {
                write!(f, "tasks {} and {} overlap on core {core}", a.0, b.0)
            }
            RegionOverlap { a, b, region } => write!(
                f,
                "tasks {} and {} overlap in region {}",
                a.0, b.0, region.0
            ),
            ReconfiguratorContention => {
                write!(f, "two reconfigurations overlap on the controller")
            }
            ReconfigurationDuringExecution { region } => write!(
                f,
                "a reconfiguration of region {} overlaps a task executing there",
                region.0
            ),
            MissingReconfiguration { task, region } => write!(
                f,
                "no reconfiguration loads task {} into region {}",
                task.0, region.0
            ),
            ReconfigurationDurationMismatch { region } => write!(
                f,
                "reconfiguration of region {} has wrong duration",
                region.0
            ),
            DanglingReconfiguration { task } => write!(
                f,
                "reconfiguration for task {} is inconsistent with the assignments",
                task.0
            ),
        }
    }
}

impl std::error::Error for ValidationError {}
