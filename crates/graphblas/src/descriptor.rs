//! Operation descriptors (`GrB_Descriptor`).
//!
//! Descriptors modify how an operation treats its mask and inputs. The
//! one Algorithm 2 of the paper uses, `Replace_Complemented_Desc`, is
//! [`Descriptor::replace_complement`].

/// SpGEMM method selection.
///
/// SuiteSparse chooses between SAXPY (Gustavson or hash) and dot-product
/// methods per call (paper §III-A); [`MethodHint::Auto`] reproduces that
/// choice, and the explicit hints let the differential benchmarks pin a
/// method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MethodHint {
    /// Let the implementation choose (mask present → dot, otherwise
    /// Gustavson for wide accumulators, hash for very sparse rows).
    #[default]
    Auto,
    /// Row-wise SAXPY with a dense Gustavson accumulator.
    Gustavson,
    /// Row-wise SAXPY with a per-row hash table.
    Hash,
    /// Dot-product (requires a mask to bound the output).
    Dot,
}

/// SpMV kernel selection for `vxm` / `mxv`.
///
/// The default defers to the process-wide policy
/// ([`crate::ops::kernel_mode`], seeded from `STUDY_KERNEL`) and, under
/// auto, to the per-call sparsity heuristic; the explicit hints pin a
/// kernel for one call, overriding both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelHint {
    /// Defer to the global mode / sparsity heuristic.
    #[default]
    Auto,
    /// Force the SAXPY scatter with the sparse (per-thread lane)
    /// accumulator.
    PushSparse,
    /// Force the SAXPY scatter with the dense atomic accumulator.
    PushDense,
    /// Force the masked SDOT pull over the (cached) transpose.
    Pull,
}

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
    /// Use `Aᵀ` in place of `A` (`GrB_TRAN` on input 0).
    pub transpose_a: bool,
    /// Use `Bᵀ` in place of `B` (`GrB_TRAN` on input 1).
    pub transpose_b: bool,
    /// SpGEMM method selection.
    pub method: MethodHint,
    /// SpMV kernel selection for `vxm` / `mxv`.
    pub kernel: KernelHint,
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

    /// Pins the SpGEMM method.
    #[must_use]
    pub fn with_method(mut self, method: MethodHint) -> Self {
        self.method = method;
        self
    }

    /// Pins the SpMV kernel for this call.
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelHint) -> Self {
        self.kernel = kernel;
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
            .with_mask_structural(true)
            .with_method(MethodHint::Hash)
            .with_kernel(KernelHint::PushSparse);
        assert!(d.replace);
        assert!(d.mask_structural);
        assert!(!d.mask_complement);
        assert_eq!(d.method, MethodHint::Hash);
        assert_eq!(d.kernel, KernelHint::PushSparse);
        assert_eq!(Descriptor::new().kernel, KernelHint::Auto);
    }

    #[test]
    fn replace_complement_matches_algorithm_2() {
        let d = Descriptor::replace_complement();
        assert!(d.replace && d.mask_complement);
        assert!(!d.mask_structural);
    }
}
