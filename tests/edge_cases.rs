//! Degenerate-input integration tests: every algorithm must handle empty
//! graphs, single vertices, isolated sources and self loops without
//! panicking, in both API styles. The streaming tests at the bottom pin
//! the delta-layer contract on its own degenerate inputs: no-op deletes,
//! duplicate inserts, updates naming vertices past the snapshot's max
//! id, empty batches and malformed batch text — and the service's
//! ingest → compact → prepare path on a snapshot whose rows ingest left
//! out of order.

use graph_api_study::graph::builder::{from_edges, GraphBuilder};
use graph_api_study::graph::gen::{rmat, RmatParams};
use graph_api_study::graph::transform::{sort_by_degree, symmetrize};
use graph_api_study::graph::{CsrGraph, DeltaGraph, EdgeBatch, NodeId};
use graph_api_study::graphblas::GaloisRuntime;
use graph_api_study::study_core::reference;
use graph_api_study::study_core::verify::verify;
use graph_api_study::study_core::{try_run, PreparedGraph, Problem, System};
use graph_api_study::{lagraph, lonestar};

fn single_vertex() -> CsrGraph {
    GraphBuilder::new(1).build()
}

#[test]
fn bfs_on_single_vertex() {
    let g = single_vertex();
    assert_eq!(lonestar::bfs::bfs(&g, 0).level, vec![1]);
    assert_eq!(lagraph::bfs::bfs(&g, 0, GaloisRuntime).unwrap().level, vec![1]);
}

#[test]
fn sssp_from_isolated_source() {
    let g = from_edges(3, [(1, 2)]);
    let expected = vec![0, u64::MAX, u64::MAX];
    assert_eq!(lonestar::sssp::sssp(&g, 0, 8, true).dist, expected);
    assert_eq!(
        lagraph::sssp::sssp_delta_stepping(&g, 0, 8, GaloisRuntime)
            .unwrap()
            .dist,
        expected
    );
}

#[test]
fn cc_on_edgeless_graph() {
    let g = GraphBuilder::new(5).build();
    let expected: Vec<u32> = (0..5).collect();
    assert_eq!(lonestar::cc::afforest(&g, 2).component, expected);
    assert_eq!(lonestar::cc::shiloach_vishkin(&g).component, expected);
    assert_eq!(
        lagraph::cc::connected_components(&g, GaloisRuntime)
            .unwrap()
            .component,
        expected
    );
}

#[test]
fn tc_and_ktruss_on_edgeless_graph() {
    let g = GraphBuilder::new(4).build();
    assert_eq!(lonestar::tc::tc(&g), 0);
    assert_eq!(
        lagraph::tc::tc_sandia_dot(&g, GaloisRuntime).unwrap().triangles,
        0
    );
    assert_eq!(lonestar::ktruss::ktruss(&g, 3).edges_remaining, 0);
    assert_eq!(
        lagraph::ktruss::ktruss(&g, 3, GaloisRuntime)
            .unwrap()
            .edges_remaining,
        0
    );
}

#[test]
fn lonestar_tc_matches_on_a_degree_sorted_star_of_cliques() {
    // Cliques of 3..=12 vertices, every vertex also joined to one hub.
    // Sorted by degree, the hub gets the highest id, so each edge into
    // it meets a neighbour list that lies wholly below it: the long
    // low-id prefix that LS tc skips with one binary search.
    let mut edges = Vec::new();
    let mut first = 1u32;
    for size in 3..=12u32 {
        for a in first..first + size {
            edges.push((0, a));
            edges.extend((a + 1..first + size).map(|b| (a, b)));
        }
        first += size;
    }
    let g = symmetrize(&from_edges(first as usize, edges));
    let (sorted, perm) = sort_by_degree(&g);
    assert_eq!(
        perm[0] as usize,
        sorted.num_nodes() - 1,
        "the hub sorts last"
    );
    let expected: u64 = (3..=12u64)
        .map(|s| s * (s - 1) * (s - 2) / 6 + s * (s - 1) / 2)
        .sum();
    assert_eq!(reference::triangles(&sorted), expected);
    assert_eq!(lonestar::tc::tc(&sorted), expected);
}

#[test]
fn pagerank_on_single_vertex_is_finite() {
    let g = single_vertex();
    let gt = graph_api_study::graph::transform::transpose(&g);
    let pr = lonestar::pagerank::pagerank(&gt, &[0], 10);
    assert_eq!(pr.len(), 1);
    assert!(pr[0].is_finite());
    let gb = lagraph::pagerank::pagerank(&gt, &[0], 10, GaloisRuntime).unwrap();
    assert!((pr[0] - gb[0]).abs() < 1e-12);
}

#[test]
fn self_loops_do_not_break_traversals() {
    let g = from_edges(3, [(0, 0), (0, 1), (1, 1), (1, 2)]);
    assert_eq!(lonestar::bfs::bfs(&g, 0).level, vec![1, 2, 3]);
    assert_eq!(
        lagraph::bfs::bfs(&g, 0, GaloisRuntime).unwrap().level,
        vec![1, 2, 3]
    );
    let d = lonestar::sssp::sssp(&g.clone().with_random_weights(9, 1), 0, 4, true).dist;
    assert_eq!(d[0], 0);
    assert!(d[1] > 0 && d[2] > d[1] || d[2] >= d[1]);
}

#[test]
fn betweenness_of_single_vertex_is_zero() {
    let g = single_vertex();
    assert_eq!(lonestar::bc::betweenness(&g, &[0]), vec![0.0]);
    assert_eq!(
        lagraph::bc::betweenness(&g, &[0], GaloisRuntime)
            .unwrap()
            .centrality,
        vec![0.0]
    );
}

#[test]
fn deleting_a_never_inserted_edge_is_a_recorded_no_op() {
    let g = from_edges(3, [(0, 1), (1, 2)]);
    let mut d = DeltaGraph::with_threshold(g.clone(), 0);
    let stats = d.apply(&EdgeBatch::new().delete(2, 0)).unwrap();
    assert_eq!(stats.missing_deletes, 1);
    assert_eq!(stats.deleted, 0);
    assert_eq!(d.num_edges(), 2, "merged state must be unchanged");
    d.compact().unwrap();
    assert_eq!(d.snapshot(), &g, "a no-op delete must compact to the original");
}

#[test]
fn duplicate_inserts_stack_and_one_delete_removes_them_all() {
    let g = from_edges(2, [(0, 1)]);
    let mut d = DeltaGraph::with_threshold(g, 0);
    let stats = d.apply(&EdgeBatch::new().insert(0, 1).insert(0, 1)).unwrap();
    assert_eq!(stats.inserted, 2);
    assert_eq!(d.out_degree(0), 3, "duplicate inserts are parallel edges");
    let stats = d.apply(&EdgeBatch::new().delete(0, 1)).unwrap();
    assert_eq!(stats.deleted, 3, "delete removes every (src, dst) occurrence");
    assert_eq!(d.out_degree(0), 0);
    d.compact().unwrap();
    assert_eq!(d.snapshot().num_edges(), 0);
}

#[test]
fn updates_past_the_snapshot_max_id_grow_the_graph() {
    let g = from_edges(2, [(0, 1)]);
    let mut d = DeltaGraph::with_threshold(g, 0);
    let stats = d.apply(&EdgeBatch::new().insert(1, 5)).unwrap();
    assert_eq!(stats.grew_nodes, 4, "ids 2..=5 appear");
    assert_eq!(d.num_nodes(), 6);
    let m = d.materialize();
    assert_eq!(m.num_nodes(), 6);
    assert_eq!(
        lonestar::bfs::bfs(&m, 0).level,
        vec![1, 2, 0, 0, 0, 3],
        "traversals must see the grown vertex through the merged view"
    );
}

#[test]
fn empty_batches_make_no_layers_and_compaction_stays_a_no_op() {
    let g = from_edges(3, [(0, 1), (1, 2)]);
    let mut d = DeltaGraph::with_threshold(g.clone(), 0);
    let stats = d.apply(&EdgeBatch::new()).unwrap();
    assert_eq!(stats.touched, 0);
    assert_eq!(d.layer_count(), 0, "an empty batch must not open a layer");
    d.compact().unwrap();
    assert_eq!(d.compactions(), 0, "compacting zero layers is free");
    assert_eq!(d.snapshot(), &g);
}

#[test]
fn batch_parsing_rejects_garbage_and_accepts_the_documented_forms() {
    let batch = EdgeBatch::parse("# warmup\n+ 0 1\n+ 2 3 7\n- 1 0\n").unwrap();
    assert_eq!(batch.len(), 3);
    assert_eq!(
        batch,
        EdgeBatch::new()
            .insert(0, 1)
            .insert_weighted(2, 3, 7)
            .delete(1, 0)
    );
    assert!(EdgeBatch::parse("* 1 2").is_err(), "unknown op marker");
    assert!(EdgeBatch::parse("+ 1").is_err(), "missing destination");
    assert!(EdgeBatch::parse("+ a b").is_err(), "non-numeric endpoint");
    assert!(EdgeBatch::parse("- 1 2 3").is_err(), "deletes take no weight");
}

#[test]
fn empty_source_list_bc_is_all_zero() {
    let g = from_edges(4, [(0, 1), (1, 2), (2, 3)]);
    assert!(lonestar::bc::betweenness(&g, &[]).iter().all(|&x| x == 0.0));
    assert!(lagraph::bc::betweenness(&g, &[], GaloisRuntime)
        .unwrap()
        .centrality
        .iter()
        .all(|&x| x == 0.0));
}

/// Ingest appends to a row, so a compacted snapshot's rows need not
/// ascend — and the service prepares exactly that graph on every
/// compaction. The prepared symmetric view must still be the sort-based
/// one, and tc (which reads the symmetric and degree-sorted views and
/// counts a non-simple graph differently per system) must verify on all
/// three systems.
#[test]
fn prepare_after_ingest_and_compact_matches_the_sort_based_symmetric_view() {
    let base = rmat(9, 8, RmatParams::default(), 3).with_random_weights(1000, 3);
    let n = base.num_nodes() as NodeId;
    let mut delta = DeltaGraph::with_threshold(base, 0);
    // Scattered inserts: out-of-order rows, parallel edges with new
    // weights, and the odd self loop.
    let mut batch = EdgeBatch::new();
    for i in 0..800u32 {
        let src = i.wrapping_mul(7919) % n;
        let dst = i.wrapping_mul(104_729).wrapping_add(13) % n;
        batch = batch.insert_weighted(src, dst, 1 + i % 97);
    }
    delta.apply(&batch).unwrap();
    delta.compact().unwrap();
    let g = delta.snapshot().clone();
    assert!(
        (0..n).any(|v| !g.neighbor_slice(v).is_sorted()),
        "ingest should leave some row out of order"
    );

    // The sort-based symmetrize: both directions of every non-loop edge,
    // sorted by (src, dst), parallel edges collapsed to the minimum weight.
    let mut edges: Vec<(NodeId, NodeId, u32)> = Vec::new();
    for v in 0..n {
        for (d, w) in g.neighbors_weighted(v) {
            if d != v {
                edges.extend([(v, d, w), (d, v, w)]);
            }
        }
    }
    edges.sort_unstable();
    edges.dedup_by_key(|e| (e.0, e.1));
    let mut offsets = vec![0usize; n as usize + 1];
    for &(s, _, _) in &edges {
        offsets[s as usize + 1] += 1;
    }
    for v in 1..offsets.len() {
        offsets[v] += offsets[v - 1];
    }
    let expected = CsrGraph::from_raw(
        offsets,
        edges.iter().map(|e| e.1).collect(),
        Some(edges.iter().map(|e| e.2).collect()),
    );

    let source = g.max_out_degree_node();
    let p = PreparedGraph::from_graph("ingested", g, source, 7, 1 << 13);
    assert_eq!(p.symmetric, expected);
    for system in System::all() {
        let out = try_run(system, Problem::Tc, &p).unwrap_or_else(|e| panic!("{system} tc: {e}"));
        verify(&p, Problem::Tc, &out).unwrap_or_else(|e| panic!("{system} tc: {e}"));
    }
}
