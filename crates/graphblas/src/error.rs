//! Error type for the GraphBLAS API (`GrB_Info` equivalents).

/// Errors returned by GraphBLAS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrbError {
    /// Object dimensions do not conform (`GrB_DIMENSION_MISMATCH`).
    DimensionMismatch {
        /// What was expected, e.g. `"u.size == a.nrows"`.
        expected: String,
        /// The offending sizes.
        actual: String,
    },
    /// An index is outside the object (`GrB_INDEX_OUT_OF_BOUNDS`).
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The exclusive bound.
        bound: usize,
    },
    /// Build input contained a duplicate index without a `dup` operator.
    DuplicateIndex(usize),
    /// The operation requires a mask that bounds its output: `mxm`
    /// computes one dot product per entry an uncomplemented mask admits,
    /// so without one it would be quadratic.
    MaskRequired(&'static str),
    /// The operation could not obtain the memory it needs
    /// (`GrB_OUT_OF_MEMORY`): no kernel's projected accumulator fits the
    /// calling thread's [`Policy::budget`](crate::ops::Policy::budget),
    /// or an injected `grb.alloc.accumulator` fault fired (reported with
    /// `budget: 0`).
    ResourceExhausted {
        /// Bytes the least-materializing viable kernel would need.
        required: u64,
        /// The budget those bytes exceeded.
        budget: u64,
    },
}

impl std::fmt::Display for GrbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GrbError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            GrbError::IndexOutOfBounds { index, bound } => {
                write!(f, "index {index} out of bounds (size {bound})")
            }
            GrbError::DuplicateIndex(i) => write!(f, "duplicate index {i}"),
            GrbError::MaskRequired(op) => write!(f, "{op} requires a mask"),
            GrbError::ResourceExhausted { required, budget } => write!(
                f,
                "out of memory: accumulator needs {required} bytes, budget is {budget}"
            ),
        }
    }
}

impl std::error::Error for GrbError {}

/// Builds a [`GrbError::DimensionMismatch`] tersely.
pub(crate) fn dim_mismatch(expected: impl Into<String>, actual: impl Into<String>) -> GrbError {
    GrbError::DimensionMismatch {
        expected: expected.into(),
        actual: actual.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GrbError::IndexOutOfBounds { index: 9, bound: 4 };
        assert_eq!(e.to_string(), "index 9 out of bounds (size 4)");
        let e = dim_mismatch("u.size == 4", "u.size == 2");
        assert!(e.to_string().contains("expected u.size == 4"));
        assert!(GrbError::DuplicateIndex(3).to_string().contains('3'));
        assert!(GrbError::MaskRequired("mxm(dot)").to_string().contains("mxm"));
        let e = GrbError::ResourceExhausted {
            required: 4096,
            budget: 1024,
        };
        assert!(e.to_string().contains("4096"));
        assert!(e.to_string().contains("1024"));
    }
}
