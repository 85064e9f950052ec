//! Property-based tests of the graph substrate: CSR invariants,
//! transform laws and serialization round trips on arbitrary graphs, and
//! the builder, `symmetrize` and `sort_by_degree` held byte-for-byte to
//! the comparison-sort versions they replaced (kept here as the oracle)
//! on graphs whose rows come in any order.
//!
//! Runs on the in-tree harness (`substrate::prop`); set `STUDY_PROP_SEED`
//! to replay a reported failure.

use graph::builder::GraphBuilder;
use graph::transform::{
    lower_triangular, sort_by_degree, symmetrize, symmetrize_from, transpose, upper_triangular,
};
use graph::CsrGraph;
use substrate::prop::{self, Gen};
use substrate::{prop_assert, prop_assert_eq, prop_assert_ne};

const CASES: u32 = 48;

fn arb_graph(g: &mut Gen) -> CsrGraph {
    let n = g.gen_range(1usize..50);
    let edges = g.vec(0..200, |g| {
        (
            g.gen_range(0u32..50),
            g.gen_range(0u32..50),
            g.gen_range(1u32..100),
        )
    });
    let weighted = g.gen_bool(0.5);
    let mut b = GraphBuilder::new(n).weighted(weighted);
    for (s, d, w) in edges {
        b.push_edge(s % n as u32, d % n as u32, w);
    }
    b.build()
}

/// An edge list in insertion order plus the builder switches to build
/// it with.
#[derive(Debug)]
struct EdgeList {
    n: usize,
    edges: Vec<(u32, u32, u32)>,
    weighted: bool,
    dedup: bool,
    symmetric: bool,
    drop_self_loops: bool,
}

/// Small vertex counts against up to 160 edges: parallel edges with
/// distinct weights, self loops and isolated vertices all turn up often.
fn arb_edge_list(g: &mut Gen) -> EdgeList {
    let n = g.gen_range(1usize..40);
    let edges = g.vec(0..160, |g| {
        (
            g.gen_range(0..n as u32),
            g.gen_range(0..n as u32),
            g.gen_range(1u32..100),
        )
    });
    EdgeList {
        n,
        edges,
        weighted: g.gen_bool(0.5),
        dedup: g.gen_bool(0.5),
        symmetric: g.gen_bool(0.5),
        drop_self_loops: g.gen_bool(0.5),
    }
}

/// A graph whose rows are in insertion order rather than sorted (some
/// rows, drawn at random, sorted anyway), made with
/// [`CsrGraph::from_raw`] as ingest and the loaders may make them.
fn arb_unordered_graph(g: &mut Gen) -> CsrGraph {
    let list = arb_edge_list(g);
    let mut rows = vec![Vec::new(); list.n];
    for &(s, d, w) in &list.edges {
        rows[s as usize].push((d, w));
    }
    let mut offsets = vec![0];
    let (mut dests, mut weights) = (Vec::new(), Vec::new());
    for row in &mut rows {
        if g.gen_bool(0.3) {
            row.sort_by_key(|&(d, _)| d);
        }
        dests.extend(row.iter().map(|&(d, _)| d));
        weights.extend(row.iter().map(|&(_, w)| w));
        offsets.push(dests.len());
    }
    CsrGraph::from_raw(offsets, dests, list.weighted.then_some(weights))
}

/// The sort-based `GraphBuilder::build` the counting sort replaced: one
/// sort of every edge by `(src, dst)` — stable, which pins the order of
/// parallel edges the way the counting sort does — then a dedup keeping
/// the minimum weight, then offsets from the counts.
fn reference_build(list: &EdgeList) -> CsrGraph {
    let mut edges = list.edges.clone();
    if list.drop_self_loops {
        edges.retain(|&(s, d, _)| s != d);
    }
    if list.symmetric {
        let rev: Vec<_> = edges.iter().map(|&(s, d, w)| (d, s, w)).collect();
        edges.extend(rev);
    }
    edges.sort_by_key(|&(s, d, _)| (s, d));
    if list.dedup {
        edges.dedup_by(|next, prev| {
            let same = (next.0, next.1) == (prev.0, prev.1);
            if same {
                prev.2 = prev.2.min(next.2);
            }
            same
        });
    }
    let mut offsets = vec![0usize; list.n + 1];
    for &(s, _, _) in &edges {
        offsets[s as usize + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let dests = edges.iter().map(|&(_, d, _)| d).collect();
    let weights = list
        .weighted
        .then(|| edges.iter().map(|&(_, _, w)| w).collect());
    CsrGraph::from_raw(offsets, dests, weights)
}

/// Every edge of `g` in row order, as the transforms used to feed them
/// to the builder.
fn edge_list_of(g: &CsrGraph) -> Vec<(u32, u32, u32)> {
    (0..g.num_nodes() as u32)
        .flat_map(|v| g.neighbors_weighted(v).map(move |(d, w)| (v, d, w)))
        .collect()
}

/// The builder-based `symmetrize` the row merge replaced.
fn reference_symmetrize(g: &CsrGraph) -> CsrGraph {
    reference_build(&EdgeList {
        n: g.num_nodes(),
        edges: edge_list_of(g),
        weighted: g.is_weighted(),
        dedup: true,
        symmetric: true,
        drop_self_loops: true,
    })
}

/// The builder-based `sort_by_degree` the direct row writer replaced.
fn reference_sort_by_degree(g: &CsrGraph) -> (CsrGraph, Vec<u32>) {
    let n = g.num_nodes();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&v| (g.out_degree(v), v));
    let mut perm = vec![0u32; n];
    for (new_id, &old_id) in order.iter().enumerate() {
        perm[old_id as usize] = new_id as u32;
    }
    let edges = edge_list_of(g)
        .into_iter()
        .map(|(s, d, w)| (perm[s as usize], perm[d as usize], w))
        .collect();
    let sorted = reference_build(&EdgeList {
        n,
        edges,
        weighted: g.is_weighted(),
        dedup: false,
        symmetric: false,
        drop_self_loops: false,
    });
    (sorted, perm)
}

#[test]
fn builder_matches_the_sort_reference() {
    prop::check(
        "builder_matches_the_sort_reference",
        prop::cases(CASES * 4),
        arb_edge_list,
        |list| {
            let mut b = GraphBuilder::new(list.n)
                .weighted(list.weighted)
                .dedup(list.dedup)
                .symmetric(list.symmetric)
                .drop_self_loops(list.drop_self_loops);
            for &(s, d, w) in &list.edges {
                b.push_edge(s, d, w);
            }
            prop_assert_eq!(b.build(), reference_build(list));
            Ok(())
        },
    );
}

#[test]
fn transforms_match_the_sort_reference_on_rows_in_any_order() {
    prop::check(
        "transforms_match_the_sort_reference_on_rows_in_any_order",
        prop::cases(CASES * 4),
        arb_unordered_graph,
        |g| {
            let expected = reference_symmetrize(g);
            prop_assert_eq!(symmetrize(g), expected.clone());
            prop_assert_eq!(symmetrize_from(g, &transpose(g)), expected.clone());
            prop_assert_eq!(sort_by_degree(g), reference_sort_by_degree(g));
            prop_assert_eq!(
                sort_by_degree(&expected),
                reference_sort_by_degree(&expected)
            );
            Ok(())
        },
    );
}

#[test]
fn csr_offsets_are_consistent() {
    prop::check("csr_offsets_are_consistent", prop::cases(CASES), arb_graph, |g| {
        let total: usize = (0..g.num_nodes() as u32).map(|v| g.out_degree(v)).sum();
        prop_assert_eq!(total, g.num_edges());
        for v in 0..g.num_nodes() as u32 {
            prop_assert!(
                g.neighbor_slice(v).windows(2).all(|w| w[0] <= w[1]),
                "neighbor lists are sorted"
            );
        }
        Ok(())
    });
}

#[test]
fn transpose_preserves_edge_multiset() {
    prop::check(
        "transpose_preserves_edge_multiset",
        prop::cases(CASES),
        arb_graph,
        |g| {
            let t = transpose(g);
            prop_assert_eq!(t.num_edges(), g.num_edges());
            let mut fwd: Vec<(u32, u32, u32)> = Vec::new();
            for v in 0..g.num_nodes() as u32 {
                for e in g.edge_range(v) {
                    fwd.push((v, g.edge_dst(e), g.edge_weight(e)));
                }
            }
            let mut rev: Vec<(u32, u32, u32)> = Vec::new();
            for v in 0..t.num_nodes() as u32 {
                for e in t.edge_range(v) {
                    rev.push((t.edge_dst(e), v, t.edge_weight(e)));
                }
            }
            fwd.sort_unstable();
            rev.sort_unstable();
            prop_assert_eq!(fwd, rev);
            Ok(())
        },
    );
}

#[test]
fn transpose_involution() {
    prop::check("transpose_involution", prop::cases(CASES), arb_graph, |g| {
        prop_assert_eq!(&transpose(&transpose(g)), g);
        Ok(())
    });
}

#[test]
fn symmetrize_is_idempotent_and_mutual() {
    prop::check(
        "symmetrize_is_idempotent_and_mutual",
        prop::cases(CASES),
        arb_graph,
        |g| {
            let s = symmetrize(g);
            prop_assert_eq!(symmetrize(&s), s.clone());
            for v in 0..s.num_nodes() as u32 {
                for u in s.neighbors(v) {
                    prop_assert_ne!(u, v, "no self loops");
                    prop_assert!(s.neighbors(u).any(|x| x == v), "edges are mutual");
                }
            }
            Ok(())
        },
    );
}

#[test]
fn triangular_halves_partition_symmetric_graphs() {
    prop::check(
        "triangular_halves_partition_symmetric_graphs",
        prop::cases(CASES),
        arb_graph,
        |g| {
            let s = symmetrize(g);
            let u = upper_triangular(&s);
            let l = lower_triangular(&s);
            prop_assert_eq!(u.num_edges() + l.num_edges(), s.num_edges());
            prop_assert_eq!(u.num_edges(), l.num_edges(), "mutual edges split evenly");
            Ok(())
        },
    );
}

#[test]
fn degree_sort_is_a_relabeling() {
    prop::check(
        "degree_sort_is_a_relabeling",
        prop::cases(CASES),
        arb_graph,
        |g| {
            let (sorted, perm) = sort_by_degree(g);
            prop_assert_eq!(sorted.num_nodes(), g.num_nodes());
            prop_assert_eq!(sorted.num_edges(), g.num_edges());
            // perm is a permutation.
            let mut seen = vec![false; g.num_nodes()];
            for &p in &perm {
                prop_assert!(!seen[p as usize], "duplicate target in perm");
                seen[p as usize] = true;
            }
            // Degrees are non-decreasing in the new ids.
            let degs: Vec<usize> =
                (0..sorted.num_nodes() as u32).map(|v| sorted.out_degree(v)).collect();
            prop_assert!(degs.windows(2).all(|w| w[0] <= w[1]));
            // Each vertex keeps its degree through the relabeling.
            for v in 0..g.num_nodes() as u32 {
                prop_assert_eq!(g.out_degree(v), sorted.out_degree(perm[v as usize]));
            }
            Ok(())
        },
    );
}

#[test]
fn edge_list_round_trip() {
    prop::check("edge_list_round_trip", prop::cases(CASES), arb_graph, |g| {
        let mut buf = Vec::new();
        graph::io::write_edge_list(g, &mut buf).unwrap();
        let h = graph::io::read_edge_list(&buf[..], Some(g.num_nodes())).unwrap();
        prop_assert_eq!(g, &h);
        Ok(())
    });
}

#[test]
fn binary_round_trip() {
    prop::check("binary_round_trip", prop::cases(CASES), arb_graph, |g| {
        let mut buf = Vec::new();
        graph::io::write_binary(g, &mut buf).unwrap();
        let h = graph::io::read_binary(&buf[..]).unwrap();
        prop_assert_eq!(g, &h);
        Ok(())
    });
}

#[test]
fn random_weights_cover_range() {
    prop::check(
        "random_weights_cover_range",
        prop::cases(CASES),
        |g| (arb_graph(g), g.gen_range(1u32..1000), g.gen_range(0u64..100)),
        |(g, max_w, seed)| {
            let w = g.clone().with_random_weights(*max_w, *seed);
            prop_assert!(w.is_weighted());
            for e in 0..w.num_edges() {
                let x = w.edge_weight(e);
                prop_assert!(x >= 1 && x <= *max_w);
            }
            Ok(())
        },
    );
}

/// Mutated parser input: either raw random bytes or a valid serialized
/// graph with byte flips, truncation or appended garbage — the shapes a
/// corrupted download or cache file actually takes.
fn arb_parser_input(g: &mut Gen) -> Vec<u8> {
    let mut bytes = match g.gen_range(0u32..4) {
        0 => g.vec(0..256, |g| g.gen_range(0u32..256) as u8),
        1 => {
            let graph = arb_graph(g);
            let mut buf = Vec::new();
            graph::io::write_binary(&graph, &mut buf).unwrap();
            buf
        }
        2 => {
            let graph = arb_graph(g);
            let mut buf = Vec::new();
            graph::io::write_edge_list(&graph, &mut buf).unwrap();
            buf
        }
        _ => {
            let n = g.gen_range(1usize..20);
            let nnz = g.gen_range(0usize..40);
            let mut buf =
                format!("%%MatrixMarket matrix coordinate integer general\n{n} {n} {nnz}\n");
            for _ in 0..nnz {
                let r = g.gen_range(0usize..25);
                let c = g.gen_range(0usize..25);
                let w = g.gen_range(0u32..100);
                buf.push_str(&format!("{r} {c} {w}\n"));
            }
            buf.into_bytes()
        }
    };
    // Corrupt: flip bytes, truncate, extend.
    for _ in 0..g.gen_range(0usize..8) {
        if bytes.is_empty() {
            break;
        }
        let at = g.gen_range(0usize..bytes.len());
        bytes[at] = g.gen_range(0u32..256) as u8;
    }
    if g.gen_bool(0.3) && !bytes.is_empty() {
        bytes.truncate(g.gen_range(0usize..bytes.len()));
    }
    if g.gen_bool(0.3) {
        let extra = g.vec(1..32, |g| g.gen_range(0u32..256) as u8);
        bytes.extend(extra);
    }
    bytes
}

#[test]
fn parsers_never_panic_on_arbitrary_bytes() {
    // The robustness contract of every loader: any byte stream yields
    // error-or-graph, never a panic or abort. The harness counts a panic
    // inside the property as a failure, so calling the parsers is the
    // whole assertion.
    prop::check(
        "parsers_never_panic_on_arbitrary_bytes",
        prop::cases(CASES * 4),
        arb_parser_input,
        |bytes| {
            let _ = graph::io::read_edge_list(&bytes[..], None);
            let _ = graph::io::read_matrix_market(&bytes[..]);
            let _ = graph::io::read_binary(&bytes[..]);
            Ok(())
        },
    );
}
