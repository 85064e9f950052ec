//! Operation descriptors (`GrB_Descriptor`).
//!
//! Descriptors modify how an operation treats its mask and inputs. The
//! one Algorithm 2 of the paper uses, `Replace_Complemented_Desc`, is
//! [`Descriptor::replace_complement`].

/// Modifies masks and input orientation for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Descriptor {
    /// Clear the output's previous entries that the mask does not cover
    /// (`GrB_REPLACE`). Without it, uncovered entries are kept.
    pub replace: bool,
    /// Use the complement of the mask (`GrB_COMP`).
    pub mask_complement: bool,
    /// Mask by structure (presence) instead of by value
    /// (`GrB_STRUCTURE`).
    pub mask_structural: bool,
    /// Use `Bᵀ` in place of `B` (`GrB_TRAN` on input 1).
    pub transpose_b: bool,
}

impl Descriptor {
    /// The default descriptor (mask as-is, outputs merged).
    pub fn new() -> Self {
        Descriptor::default()
    }

    /// `GrB_REPLACE` + `GrB_COMP`: the bfs descriptor of Algorithm 2.
    pub fn replace_complement() -> Self {
        Descriptor {
            replace: true,
            mask_complement: true,
            ..Descriptor::default()
        }
    }

    /// Sets `GrB_REPLACE`.
    #[must_use]
    pub fn with_replace(mut self, on: bool) -> Self {
        self.replace = on;
        self
    }

    /// Sets `GrB_COMP`.
    #[must_use]
    pub fn with_mask_complement(mut self, on: bool) -> Self {
        self.mask_complement = on;
        self
    }

    /// Sets `GrB_STRUCTURE`.
    #[must_use]
    pub fn with_mask_structural(mut self, on: bool) -> Self {
        self.mask_structural = on;
        self
    }

    /// Sets `GrB_TRAN` on input 1.
    #[must_use]
    pub fn with_transpose_b(mut self, on: bool) -> Self {
        self.transpose_b = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let d = Descriptor::new()
            .with_replace(true)
            .with_mask_complement(true)
            .with_mask_structural(true)
            .with_transpose_b(true);
        assert!(d.replace);
        assert!(d.mask_structural);
        assert!(d.mask_complement);
        assert!(d.transpose_b);
    }

    #[test]
    fn replace_complement_matches_algorithm_2() {
        let d = Descriptor::replace_complement();
        assert!(d.replace && d.mask_complement);
        assert!(!d.mask_structural);
    }
}
