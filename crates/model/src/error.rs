//! Model-level error types.

use std::fmt;

/// Errors raised while building or loading problem descriptions.
#[derive(Debug)]
pub enum ModelError {
    /// An edge references a task index outside the graph.
    DanglingEdge {
        /// Source task index of the offending edge.
        from: u32,
        /// Destination task index of the offending edge.
        to: u32,
    },
    /// The dependency arcs form a cycle.
    Cycle,
    /// A task depends on itself.
    SelfLoop {
        /// The offending task index.
        task: u32,
    },
    /// A task has an empty implementation set (§III requires at least one
    /// software implementation per task).
    NoImplementations {
        /// The offending task index.
        task: u32,
    },
    /// A task references an implementation id missing from the pool.
    UnknownImplementation {
        /// The offending task index.
        task: u32,
        /// The unresolved implementation id.
        impl_id: u32,
    },
    /// A task has no software implementation, violating §III's standing
    /// assumption that every task can fall back to software.
    NoSoftwareImplementation {
        /// The offending task index.
        task: u32,
    },
    /// A hardware implementation exceeds the device capacity on some axis
    /// and could therefore never be placed.
    ImplementationTooLarge {
        /// The offending task index.
        task: u32,
        /// The unplaceable implementation id.
        impl_id: u32,
    },
    /// The architecture has no processor cores, so software tasks cannot run.
    NoProcessors,
    /// The architecture's platform has no fabrics.
    NoFabrics,
    /// The architecture's `device` differs from its platform's
    /// single-fabric relaxation, so it is a second, conflicting copy of
    /// the target.
    DeviceNotRelaxation,
    /// A fabric geometry has more than [`FabricGeometry::MAX_DIM`] columns
    /// or rows.
    ///
    /// [`FabricGeometry::MAX_DIM`]: crate::device::FabricGeometry::MAX_DIM
    GeometryTooLarge {
        /// Its column count.
        columns: usize,
        /// Its row count.
        rows: u32,
    },
    /// Instance deserialization failed.
    Parse(String),
    /// Instance I/O failed.
    Io(std::io::Error),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DanglingEdge { from, to } => {
                write!(f, "edge ({from} -> {to}) references a missing task")
            }
            ModelError::Cycle => write!(f, "dependency arcs form a cycle"),
            ModelError::SelfLoop { task } => write!(f, "task {task} depends on itself"),
            ModelError::NoImplementations { task } => {
                write!(f, "task {task} has no implementations")
            }
            ModelError::UnknownImplementation { task, impl_id } => {
                write!(f, "task {task} references unknown implementation {impl_id}")
            }
            ModelError::NoSoftwareImplementation { task } => {
                write!(f, "task {task} has no software implementation")
            }
            ModelError::ImplementationTooLarge { task, impl_id } => write!(
                f,
                "hardware implementation {impl_id} of task {task} exceeds device capacity"
            ),
            ModelError::NoProcessors => write!(f, "architecture has no processor cores"),
            ModelError::NoFabrics => write!(f, "architecture platform has no fabrics"),
            ModelError::DeviceNotRelaxation => write!(
                f,
                "architecture device is not the relaxation of its platform"
            ),
            ModelError::GeometryTooLarge { columns, rows } => write!(
                f,
                "fabric geometry of {columns} columns by {rows} rows exceeds {} of either",
                crate::device::FabricGeometry::MAX_DIM
            ),
            ModelError::Parse(msg) => write!(f, "instance parse error: {msg}"),
            ModelError::Io(e) => write!(f, "instance I/O error: {e}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ModelError {
    fn from(e: std::io::Error) -> Self {
        ModelError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = ModelError::DanglingEdge { from: 1, to: 9 };
        assert!(e.to_string().contains("1 -> 9"));
        let e = ModelError::NoProcessors;
        assert!(e.to_string().contains("no processor"));
        let e = ModelError::Parse("bad json".into());
        assert!(e.to_string().contains("bad json"));
    }
}
