//! Runtime errors for array evaluation.

use std::fmt;

/// An error raised while evaluating an array program.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A subscript fell outside the declared bounds.
    OutOfBounds {
        array: String,
        index: Vec<i64>,
        bounds: Vec<(i64, i64)>,
    },
    /// Two subscript/value pairs defined the same element of a
    /// monolithic array (§4 "write collisions").
    WriteCollision { array: String, index: Vec<i64> },
    /// An element with no definition was demanded (§4 "empties").
    UndefinedElement { array: String, index: Vec<i64> },
    /// A cell demanded itself while being evaluated: the value is ⊥
    /// (the "black hole" of lazy evaluation).
    Bottom { array: String, index: Vec<i64> },
    /// A scalar variable was unbound.
    UnboundVariable(String),
    /// An array name was unbound.
    UnboundArray(String),
    /// An input array's bounds differ from the program's declaration.
    InputShape {
        array: String,
        declared: Vec<(i64, i64)>,
        given: Vec<(i64, i64)>,
    },
    /// A subscript expression did not evaluate to an integer.
    NonIntegerSubscript { array: String, value: f64 },
    /// A call to an unregistered function.
    UnknownFunction(String),
    /// A generator bound did not evaluate to an integer.
    NonIntegerBound { var: String, value: f64 },
    /// The run's op budget (taken loop iterations + calls) ran out.
    FuelExhausted { limit: u64 },
    /// An allocation would exceed the configured byte budget.
    MemLimitExceeded {
        limit: u64,
        used: u64,
        requested: u64,
    },
    /// A parallel worker faulted and the region could not be safely
    /// re-executed sequentially.
    EngineFault { region: u64, detail: String },
    /// The process-wide resource pool (shared by every concurrent
    /// request) could not cover a reservation or draw.
    CeilingExhausted {
        /// `"fuel"` or `"memory"`.
        resource: &'static str,
        requested: u64,
        available: u64,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::OutOfBounds {
                array,
                index,
                bounds,
            } => write!(
                f,
                "subscript {index:?} of array `{array}` outside bounds {bounds:?}"
            ),
            RuntimeError::WriteCollision { array, index } => {
                write!(f, "multiple definitions for element {index:?} of `{array}`")
            }
            RuntimeError::UndefinedElement { array, index } => {
                write!(f, "element {index:?} of `{array}` has no definition")
            }
            RuntimeError::Bottom { array, index } => {
                write!(f, "element {index:?} of `{array}` depends on itself (⊥)")
            }
            RuntimeError::UnboundVariable(v) => write!(f, "unbound variable `{v}`"),
            RuntimeError::UnboundArray(a) => write!(f, "unbound array `{a}`"),
            RuntimeError::InputShape {
                array,
                declared,
                given,
            } => write!(
                f,
                "input array `{array}` is declared with bounds {declared:?} but was given bounds {given:?}"
            ),
            RuntimeError::NonIntegerSubscript { array, value } => {
                write!(f, "subscript {value} of `{array}` is not an integer")
            }
            RuntimeError::UnknownFunction(name) => {
                write!(f, "call to unknown function `{name}`")
            }
            RuntimeError::NonIntegerBound { var, value } => {
                write!(f, "generator `{var}` bound {value} is not an integer")
            }
            RuntimeError::FuelExhausted { limit } => {
                write!(f, "fuel exhausted: op budget of {limit} spent")
            }
            RuntimeError::MemLimitExceeded {
                limit,
                used,
                requested,
            } => write!(
                f,
                "memory limit of {limit} bytes exceeded: {used} bytes in use, {requested} more requested"
            ),
            RuntimeError::EngineFault { region, detail } => {
                write!(f, "engine fault in parallel region {region}: {detail}")
            }
            RuntimeError::CeilingExhausted {
                resource,
                requested,
                available,
            } => write!(
                f,
                "global {resource} ceiling exhausted: {requested} requested, {available} available"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = RuntimeError::WriteCollision {
            array: "a".into(),
            index: vec![3, 4],
        };
        assert!(e.to_string().contains("[3, 4]"));
        let b = RuntimeError::Bottom {
            array: "a".into(),
            index: vec![1],
        };
        assert!(b.to_string().contains('⊥'));
    }
}
