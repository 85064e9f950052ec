//! The study's axes: problems, systems and differential variants.

/// The six graph problems of the study (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Problem {
    /// Breadth-first search of a directed graph.
    Bfs,
    /// Maximal weakly connected components.
    Cc,
    /// Largest subgraph where every edge is in ≥ k−2 triangles.
    Ktruss,
    /// PageRank, 10 iterations.
    Pr,
    /// Single-source shortest path on a weighted directed graph.
    Sssp,
    /// Triangle counting on the undirected graph.
    Tc,
}

impl Problem {
    /// All problems in Table II row order.
    pub fn all() -> [Problem; 6] {
        [
            Problem::Bfs,
            Problem::Cc,
            Problem::Ktruss,
            Problem::Pr,
            Problem::Sssp,
            Problem::Tc,
        ]
    }

    /// Table II row label.
    pub fn name(&self) -> &'static str {
        match self {
            Problem::Bfs => "bfs",
            Problem::Cc => "cc",
            Problem::Ktruss => "ktruss",
            Problem::Pr => "pr",
            Problem::Sssp => "sssp",
            Problem::Tc => "tc",
        }
    }
}

impl std::fmt::Display for Problem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The three systems compared in Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum System {
    /// LAGraph algorithms on the SuiteSparse-like static backend ("SS").
    SuiteSparse,
    /// LAGraph algorithms on GaloisBLAS ("GB").
    GaloisBlas,
    /// Lonestar programs on the Galois runtime ("LS").
    Lonestar,
}

impl System {
    /// All systems in Table II order.
    pub fn all() -> [System; 3] {
        [System::SuiteSparse, System::GaloisBlas, System::Lonestar]
    }

    /// The paper's abbreviation.
    pub fn abbrev(&self) -> &'static str {
        match self {
            System::SuiteSparse => "SS",
            System::GaloisBlas => "GB",
            System::Lonestar => "LS",
        }
    }
}

impl std::fmt::Display for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// The algorithm variants of the differential analysis (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// `pr-ls`: residual pagerank, array-of-structs.
    PrLs,
    /// `pr-ls-soa`: residual pagerank, structure-of-arrays.
    PrLsSoa,
    /// `pr-gb-res`: residual pagerank on GraphBLAS.
    PrGbRes,
    /// `pr-gb`: topology-driven LAGraph pagerank.
    PrGb,
    /// `tc-ls`: triangle listing on the sorted graph.
    TcLs,
    /// `tc-gb-ll`: triangle listing in GraphBLAS on the sorted graph.
    TcGbLl,
    /// `tc-gb-sort`: SandiaDot on the sorted graph.
    TcGbSort,
    /// `tc-gb`: SandiaDot on the unsorted graph.
    TcGb,
    /// `cc-ls`: Afforest.
    CcLs,
    /// `cc-ls-sv`: Shiloach-Vishkin with unbounded jumping.
    CcLsSv,
    /// `cc-gb`: bounded pointer jumping on GraphBLAS.
    CcGb,
    /// `sssp-ls`: async delta-stepping with edge tiling.
    SsspLs,
    /// `sssp-ls-notile`: async delta-stepping without tiling.
    SsspLsNotile,
    /// `sssp-gb`: bulk-synchronous delta-stepping.
    SsspGb,
}

impl Variant {
    /// The variants of each Figure 3 panel, in the paper's order.
    pub fn panel(problem: Problem) -> &'static [Variant] {
        match problem {
            Problem::Pr => &[
                Variant::PrLs,
                Variant::PrLsSoa,
                Variant::PrGbRes,
                Variant::PrGb,
            ],
            Problem::Tc => &[
                Variant::TcLs,
                Variant::TcGbLl,
                Variant::TcGbSort,
                Variant::TcGb,
            ],
            Problem::Cc => &[Variant::CcLs, Variant::CcLsSv, Variant::CcGb],
            Problem::Sssp => &[Variant::SsspLs, Variant::SsspLsNotile, Variant::SsspGb],
            _ => &[],
        }
    }

    /// The Figure 3 panel (problem) this variant belongs to.
    pub fn problem(&self) -> Problem {
        match self {
            Variant::PrLs | Variant::PrLsSoa | Variant::PrGbRes | Variant::PrGb => Problem::Pr,
            Variant::TcLs | Variant::TcGbLl | Variant::TcGbSort | Variant::TcGb => Problem::Tc,
            Variant::CcLs | Variant::CcLsSv | Variant::CcGb => Problem::Cc,
            Variant::SsspLs | Variant::SsspLsNotile | Variant::SsspGb => Problem::Sssp,
        }
    }

    /// The Table II cell this variant is: `Some` for the `ls` and `gb`
    /// baseline of each panel, `None` for the six real alternatives.
    pub fn cell(&self) -> Option<(System, Problem)> {
        let system = match self {
            Variant::PrLs | Variant::TcLs | Variant::CcLs | Variant::SsspLs => System::Lonestar,
            Variant::PrGb | Variant::TcGb | Variant::CcGb | Variant::SsspGb => System::GaloisBlas,
            _ => return None,
        };
        Some((system, self.problem()))
    }

    /// Figure 3 label.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::PrLs => "ls",
            Variant::PrLsSoa => "ls-soa",
            Variant::PrGbRes => "gb-res",
            Variant::PrGb => "gb",
            Variant::TcLs => "ls",
            Variant::TcGbLl => "gb-ll",
            Variant::TcGbSort => "gb-sort",
            Variant::TcGb => "gb",
            Variant::CcLs => "ls",
            Variant::CcLsSv => "ls-sv",
            Variant::CcGb => "gb",
            Variant::SsspLs => "ls",
            Variant::SsspLsNotile => "ls-notile",
            Variant::SsspGb => "gb",
        }
    }
}

/// The output of one run, for cross-system verification.
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemOutput {
    /// bfs levels (0 = unreached, source = 1).
    Levels(Vec<u32>),
    /// Component labels normalized to minimum vertex ids.
    Components(Vec<u32>),
    /// Directed edges surviving the k-truss.
    TrussEdges(usize),
    /// PageRank values.
    Ranks(Vec<f64>),
    /// Shortest-path distances (`u64::MAX` = unreachable).
    Dists(Vec<u64>),
    /// Triangle count.
    Triangles(u64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerations_cover_the_study() {
        assert_eq!(Problem::all().len(), 6);
        assert_eq!(System::all().len(), 3);
        assert_eq!(Variant::panel(Problem::Pr).len(), 4);
        assert_eq!(Variant::panel(Problem::Tc).len(), 4);
        assert_eq!(Variant::panel(Problem::Cc).len(), 3);
        assert_eq!(Variant::panel(Problem::Sssp).len(), 3);
        assert!(Variant::panel(Problem::Bfs).is_empty());
    }

    #[test]
    fn every_panel_variant_maps_back_to_its_problem() {
        for problem in Problem::all() {
            for &variant in Variant::panel(problem) {
                assert_eq!(variant.problem(), problem, "{}", variant.name());
            }
        }
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(System::SuiteSparse.to_string(), "SS");
        assert_eq!(Problem::Ktruss.to_string(), "ktruss");
        assert_eq!(Variant::SsspLsNotile.name(), "ls-notile");
    }
}
