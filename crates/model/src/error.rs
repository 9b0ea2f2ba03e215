//! Error types shared across the ENA toolkit.

use core::fmt;

/// Error produced when validating an [`crate::config::EhpConfig`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The requested CU count exceeds the package area budget.
    AreaBudgetExceeded {
        /// Requested total CU count.
        cus: u32,
        /// Maximum CU count the package can host.
        max: u32,
    },
    /// A structural component count (chiplets, cores, stacks) was zero.
    ZeroComponent(&'static str),
    /// A rate or capacity was zero, negative, or non-finite.
    NonPositive(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::AreaBudgetExceeded { cus, max } => {
                write!(f, "{cus} CUs exceed the package area budget of {max}")
            }
            ConfigError::ZeroComponent(name) => {
                write!(f, "configuration has zero {name}")
            }
            ConfigError::NonPositive(name) => {
                write!(f, "{name} must be positive and finite")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Error produced when validating a [`crate::kernel::KernelProfile`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ProfileError {
    /// A field value fell outside its documented domain.
    OutOfRange {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The profile name was empty.
    EmptyName,
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::OutOfRange { field, value } => {
                write!(f, "profile field {field} out of range: {value}")
            }
            ProfileError::EmptyName => f.write_str("profile name is empty"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// Error applying or propagating an injected component fault.
///
/// Shared by every layer the `ena-faults` engine degrades: the NoC
/// topology reports unknown endpoints and severed routes
/// (`Topology::route`), the memory system reports dead stacks, and the HSA
/// runtime reports exhausted retries — all as values of this type, never
/// as panics. A NoC simulation never fails on a severed route: it counts
/// the packets it could not route in `NocStats::dropped`.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DegradeError {
    /// A node id outside the topology (or already failed) was referenced.
    UnknownNode(usize),
    /// No route exists between two live nodes: degradation severed them.
    Unreachable {
        /// Route source node id.
        src: usize,
        /// Route destination node id.
        dst: usize,
    },
    /// A named component index does not exist or has already failed.
    UnknownComponent {
        /// Component class (e.g. "HBM stack", "interposer link").
        component: &'static str,
        /// The rejected index.
        index: u64,
    },
    /// Refusing to fail the last survivor of a component class.
    LastSurvivor(&'static str),
    /// A task exhausted its retry budget after repeated agent failures.
    RetriesExhausted {
        /// The task that could not complete.
        task: usize,
        /// Attempts consumed (including the first dispatch).
        attempts: u32,
    },
    /// No live agent can run a task.
    NoCompatibleAgent {
        /// The stranded task.
        task: usize,
    },
}

impl fmt::Display for DegradeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeError::UnknownNode(id) => write!(f, "unknown or failed node id {id}"),
            DegradeError::Unreachable { src, dst } => {
                write!(
                    f,
                    "no route from node {src} to node {dst} after degradation"
                )
            }
            DegradeError::UnknownComponent { component, index } => {
                write!(f, "{component} {index} does not exist or already failed")
            }
            DegradeError::LastSurvivor(component) => {
                write!(f, "cannot fail the last surviving {component}")
            }
            DegradeError::RetriesExhausted { task, attempts } => {
                write!(
                    f,
                    "task {task} exhausted its retry budget after {attempts} attempts"
                )
            }
            DegradeError::NoCompatibleAgent { task } => {
                write!(f, "no surviving agent can run task {task}")
            }
        }
    }
}

impl std::error::Error for DegradeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = ConfigError::AreaBudgetExceeded { cus: 400, max: 384 };
        assert_eq!(
            e.to_string(),
            "400 CUs exceed the package area budget of 384"
        );
        let e = ConfigError::ZeroComponent("HBM stacks");
        assert!(e.to_string().contains("HBM stacks"));
        let e = ProfileError::OutOfRange {
            field: "utilization",
            value: 2.0,
        };
        assert!(e.to_string().contains("utilization"));
        assert!(!ProfileError::EmptyName.to_string().is_empty());
    }

    #[test]
    fn degrade_errors_name_the_component() {
        let e = DegradeError::UnknownComponent {
            component: "HBM stack",
            index: 9,
        };
        assert!(e.to_string().contains("HBM stack 9"));
        let e = DegradeError::Unreachable { src: 3, dst: 17 };
        assert!(e.to_string().contains("3"));
        assert!(e.to_string().contains("17"));
        let e = DegradeError::RetriesExhausted {
            task: 4,
            attempts: 3,
        };
        assert!(e.to_string().contains("retry budget"));
        assert!(!DegradeError::LastSurvivor("GPU chiplet")
            .to_string()
            .is_empty());
    }

    #[test]
    fn errors_are_std_errors_and_send_sync() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<ConfigError>();
        assert_err::<ProfileError>();
        assert_err::<DegradeError>();
    }
}
