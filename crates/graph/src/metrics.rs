//! Structural graph metrics: clustering coefficients, degree assortativity,
//! and degree histograms.
//!
//! These are the statistics of the paper's Table 1 (nodes, edges, global
//! clustering coefficient, average local clustering coefficient, degree
//! assortativity) and the inputs to the distribution-fitting analysis of
//! §2.2. All metrics are defined on the *undirected projection* of the
//! graph, matching the convention of the SNAP statistics the paper cites.

use crate::csr::{CsrGraph, Vid};
use crate::edgelist::EdgeListGraph;
use graphalytics_parallel as par;

/// The structural characteristics reported in the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphCharacteristics {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of undirected edges.
    pub num_edges: usize,
    /// Global clustering coefficient (transitivity): `3·triangles / wedges`.
    pub global_cc: f64,
    /// Average local clustering coefficient (vertices with degree < 2
    /// contribute 0, as in SNAP).
    pub avg_local_cc: f64,
    /// Degree assortativity (Pearson correlation of degrees at edge ends).
    pub assortativity: f64,
}

/// Computes all Table-1 characteristics in one pass over the graph.
pub fn characteristics(g: &EdgeListGraph) -> GraphCharacteristics {
    let und = g.to_undirected();
    let csr = CsrGraph::from_edge_list(&und);
    let (global_cc, avg_local_cc) = clustering_coefficients(&csr);
    GraphCharacteristics {
        num_vertices: und.num_vertices(),
        num_edges: und.num_edges(),
        global_cc,
        avg_local_cc,
        assortativity: degree_assortativity(&csr),
    }
}

/// Triangles through every vertex, in internal-id order: `tri[v]` is the
/// number of edges among the neighbours of `v`. Runs on up to `threads`
/// workers; the output is identical at every thread count.
///
/// On an undirected graph this is one degree-ordered pass (GAP's count,
/// Beamer et al., arXiv 1508.03619). Each edge is oriented from lower to
/// higher rank, where rank is `(degree, id)`, so a hub keeps only the few
/// arcs to vertices ranked above it. Each triangle `v < u < w` (by rank)
/// is then found exactly once, from `v`: mark `out(v)`, walk `out(u)` for
/// every `u` in `out(v)`, and a marked `w` closes the triangle and credits
/// all three corners. Every chunk of vertices owns its own count and stamp
/// arrays, and the integer counts are summed in chunk order.
///
/// On a directed graph, `tri[v]` is `⌊links(v) / 2⌋`, where `links(v)`
/// sums `|out(v) ∩ out(u)|` over `u ∈ out(v)`: the out-list convention
/// STATS and LCC have always used there.
pub fn triangles_per_vertex(g: &CsrGraph, threads: usize) -> Vec<u64> {
    let threads = threads.max(1);
    let n = g.num_vertices();
    if g.is_directed() {
        return par::map_chunks(threads, n, |_, range| {
            range
                .map(|v| {
                    let out = g.neighbors(v as Vid);
                    let links: usize = out
                        .iter()
                        .map(|&u| sorted_intersection_len(out, g.neighbors(u)))
                        .sum();
                    (links / 2) as u64
                })
                .collect::<Vec<u64>>()
        })
        .concat();
    }

    // Step 1: the oriented out-CSR, one arc per edge. Filtering a sorted
    // neighbour list keeps each target list sorted.
    let rank = |v: Vid| (g.degree(v), v);
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(g.num_edges());
    offsets.push(0);
    for v in 0..n as Vid {
        targets.extend(g.neighbors(v).iter().filter(|&&u| rank(u) > rank(v)));
        offsets.push(targets.len());
    }
    let out = |v: Vid| &targets[offsets[v as usize]..offsets[v as usize + 1]];

    // Steps 2–4, one chunk of `v`s per worker.
    let mut parts = par::map_chunks(threads, n, |_, range| {
        let mut tri = vec![0u64; n];
        // `stamp[w] == v` marks `w ∈ out(v)`; ids are below `n`, so no
        // vertex is `Vid::MAX`.
        let mut stamp = vec![Vid::MAX; n];
        for v in range {
            let v = v as Vid;
            let out_v = out(v);
            for &u in out_v {
                stamp[u as usize] = v;
            }
            for &u in out_v {
                let mut closed = 0u64;
                for &w in out(u) {
                    if stamp[w as usize] == v {
                        closed += 1;
                        tri[w as usize] += 1;
                    }
                }
                tri[u as usize] += closed;
                tri[v as usize] += closed;
            }
        }
        tri
    })
    .into_iter();
    let mut tri = parts.next().unwrap_or_default();
    for part in parts {
        for (total, count) in tri.iter_mut().zip(part) {
            *total += count;
        }
    }
    tri
}

/// Computes `(global_cc, avg_local_cc)` together from one triangle pass.
/// Requires an undirected CSR graph.
pub fn clustering_coefficients(g: &CsrGraph) -> (f64, f64) {
    assert!(
        !g.is_directed(),
        "clustering coefficients are defined on the undirected projection"
    );
    let n = g.num_vertices();
    if n == 0 {
        return (0.0, 0.0);
    }
    let triangles = triangles_per_vertex(g, 1);
    let mut triangle_sum = 0u64; // Sum over v of triangles through v = 3·T.
    let mut wedges = 0usize;
    let mut local_sum = 0.0f64;
    for (v, &tri) in triangles.iter().enumerate() {
        let d = g.degree(v as Vid);
        if d < 2 {
            continue;
        }
        triangle_sum += tri;
        let pairs = d * (d - 1) / 2;
        wedges += pairs;
        local_sum += tri as f64 / pairs as f64;
    }
    let global = if wedges == 0 {
        0.0
    } else {
        triangle_sum as f64 / wedges as f64
    };
    (global, local_sum / n as f64)
}

/// Total number of triangles in the (undirected) graph.
pub fn triangle_count(g: &CsrGraph) -> usize {
    assert!(!g.is_directed());
    (triangles_per_vertex(g, 1).iter().sum::<u64>() / 3) as usize
}

/// Degree assortativity: the Pearson correlation coefficient between the
/// degrees at the two ends of each edge (Newman 2002). Positive values mean
/// high-degree vertices attach to high-degree vertices. Returns 0 for
/// degree-regular graphs (zero variance).
pub fn degree_assortativity(g: &CsrGraph) -> f64 {
    assert!(!g.is_directed());
    let mut m = 0.0f64;
    let mut sum_jk = 0.0f64;
    let mut sum_j = 0.0f64;
    let mut sum_j2 = 0.0f64;
    for v in 0..g.num_vertices() as Vid {
        let dv = g.degree(v) as f64;
        for &u in g.neighbors(v) {
            if u <= v {
                continue; // Each undirected edge once.
            }
            let du = g.degree(u) as f64;
            m += 1.0;
            sum_jk += dv * du;
            sum_j += 0.5 * (dv + du);
            sum_j2 += 0.5 * (dv * dv + du * du);
        }
    }
    if m == 0.0 {
        return 0.0;
    }
    let mean = sum_j / m;
    let num = sum_jk / m - mean * mean;
    let den = sum_j2 / m - mean * mean;
    if den.abs() < 1e-12 {
        0.0
    } else {
        num / den
    }
}

/// Degree histogram: `hist[i] = (degree, count)` sorted by degree, skipping
/// degrees with zero count. Input to distribution fitting (Figure 1).
pub fn degree_histogram(g: &CsrGraph) -> Vec<(usize, usize)> {
    let mut counts: Vec<usize> = Vec::new();
    for v in 0..g.num_vertices() as Vid {
        let d = g.degree(v);
        if d >= counts.len() {
            counts.resize(d + 1, 0);
        }
        counts[d] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .collect()
}

/// Length of the intersection of two sorted slices (merge-based; falls back
/// to galloping when lengths are very uneven).
pub fn sorted_intersection_len(a: &[Vid], b: &[Vid]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return 0;
    }
    // Galloping pays off when the size ratio is large.
    if long.len() / short.len().max(1) >= 16 {
        let mut count = 0;
        let mut lo = 0usize;
        for &x in short {
            match long[lo..].binary_search(&x) {
                Ok(pos) => {
                    count += 1;
                    lo += pos + 1;
                }
                Err(pos) => lo += pos,
            }
            if lo >= long.len() {
                break;
            }
        }
        return count;
    }
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < short.len() && j < long.len() {
        match short[i].cmp(&long[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn csr(edges: Vec<(u64, u64)>) -> CsrGraph {
        CsrGraph::from_edge_list(&EdgeListGraph::undirected_from_edges(edges))
    }

    /// Triangles through each vertex by brute force: the neighbour pairs
    /// of `v` that are joined by an arc.
    fn naive_triangles(g: &CsrGraph) -> Vec<u64> {
        g.vertex_ids()
            .map(|v| {
                let nv = g.neighbors(v);
                let mut tri = 0;
                for (i, &a) in nv.iter().enumerate() {
                    for &b in &nv[i + 1..] {
                        tri += u64::from(g.has_arc(a, b));
                    }
                }
                tri
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn triangles_per_vertex_matches_naive_pair_count(
            edges in proptest::collection::vec((0u64..40, 0u64..40), 0..300),
            threads in 1usize..9,
        ) {
            let g = csr(edges);
            let expected = naive_triangles(&g);
            prop_assert_eq!(triangles_per_vertex(&g, 1), expected.clone());
            prop_assert_eq!(triangles_per_vertex(&g, threads), expected);
        }

        #[test]
        fn hub_and_clique_with_degree_ties(
            hubs in 1u64..4,
            clique in 3u64..9,
            leaves in 0u64..12,
            extra in proptest::collection::vec((0u64..24, 0u64..24), 0..16),
            threads in 1usize..9,
        ) {
            // Clique members all share one degree, and so do the hubs:
            // each hub joins every clique member and its own `leaves`.
            let mut edges = extra;
            for a in 0..clique {
                edges.extend((a + 1..clique).map(|b| (a, b)));
            }
            for h in 0..hubs {
                let hub = 100 + h;
                edges.extend((0..clique).map(|a| (hub, a)));
                edges.extend((0..leaves).map(|l| (hub, 200 + 16 * h + l)));
            }
            let g = csr(edges);
            let expected = naive_triangles(&g);
            prop_assert_eq!(triangles_per_vertex(&g, 1), expected.clone());
            prop_assert_eq!(triangles_per_vertex(&g, threads), expected);
        }
    }

    #[test]
    fn directed_triangles_halve_out_list_links() {
        // out(0) = {1, 2, 3} links 3 times through out(1) = {2, 3} and
        // out(2) = {1}: ⌊3/2⌋ = 1. The undirected projection would give
        // vertex 0 two triangles.
        let g = CsrGraph::from_edge_list(&EdgeListGraph::directed_from_edges(vec![
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (2, 1),
            (1, 3),
            (3, 0),
        ]));
        for threads in [1, 2, 8] {
            assert_eq!(triangles_per_vertex(&g, threads), vec![1, 0, 0, 0]);
        }
    }

    #[test]
    fn triangle_has_cc_one() {
        let g = csr(vec![(0, 1), (1, 2), (0, 2)]);
        let (global, avg) = clustering_coefficients(&g);
        assert_eq!(global, 1.0);
        assert_eq!(avg, 1.0);
        assert_eq!(triangle_count(&g), 1);
    }

    #[test]
    fn path_has_cc_zero() {
        let g = csr(vec![(0, 1), (1, 2), (2, 3)]);
        let (global, avg) = clustering_coefficients(&g);
        assert_eq!(global, 0.0);
        assert_eq!(avg, 0.0);
        assert_eq!(triangle_count(&g), 0);
    }

    #[test]
    fn paw_graph_coefficients() {
        // Triangle 0-1-2 plus pendant 3 attached to 0.
        let g = csr(vec![(0, 1), (1, 2), (0, 2), (0, 3)]);
        let (global, avg) = clustering_coefficients(&g);
        // Wedges: d0=3 -> 3, d1=2 -> 1, d2=2 -> 1, d3=1 -> 0. Total 5.
        // Closed wedges: 3 (one triangle). Global = 3/5.
        assert!((global - 0.6).abs() < 1e-12);
        // Local: v0 = 1/3, v1 = 1, v2 = 1, v3 = 0; avg = (1/3+1+1+0)/4.
        assert!((avg - (1.0 / 3.0 + 2.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_k5() {
        let mut edges = Vec::new();
        for i in 0..5u64 {
            for j in (i + 1)..5 {
                edges.push((i, j));
            }
        }
        let g = csr(edges);
        let (global, avg) = clustering_coefficients(&g);
        assert!((global - 1.0).abs() < 1e-12);
        assert!((avg - 1.0).abs() < 1e-12);
        assert_eq!(triangle_count(&g), 10);
    }

    #[test]
    fn star_is_disassortative() {
        // A star: hub degree n, leaves degree 1 -> assortativity -1 in the
        // limit, strongly negative for finite n... actually for a pure star
        // the degree pairs are constant (n-1, 1), zero variance -> 0. Add
        // one leaf-leaf edge to create variance.
        let mut edges: Vec<(u64, u64)> = (1..=8).map(|i| (0, i)).collect();
        edges.push((1, 2));
        let g = csr(edges);
        assert!(degree_assortativity(&g) < -0.3);
    }

    #[test]
    fn regular_graph_assortativity_zero() {
        // Cycle: every degree is 2, zero variance.
        let g = csr(vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(degree_assortativity(&g), 0.0);
    }

    #[test]
    fn assortative_graph_positive() {
        // Two cliques K4 joined by a single edge: high-degree vertices
        // mostly connect to high-degree vertices.
        let mut edges = Vec::new();
        for base in [0u64, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        // Pendant vertices attached to low-degree side create contrast.
        edges.push((3, 4));
        edges.push((8, 0));
        edges.push((9, 5));
        let g = csr(edges);
        let r = degree_assortativity(&g);
        assert!(r < 0.0, "pendants make it disassortative: {r}");
    }

    #[test]
    fn histogram_counts_degrees() {
        let g = csr(vec![(0, 1), (1, 2), (2, 3)]);
        // Degrees: 1, 2, 2, 1.
        assert_eq!(degree_histogram(&g), vec![(1, 2), (2, 2)]);
    }

    #[test]
    fn histogram_includes_isolated_vertices() {
        let el = EdgeListGraph::new(vec![10, 11], vec![(0, 1)], false);
        let g = CsrGraph::from_edge_list(&el);
        assert_eq!(degree_histogram(&g), vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn intersection_merge_and_gallop_agree() {
        let a: Vec<Vid> = (0..200).filter(|x| x % 3 == 0).collect();
        let b: Vec<Vid> = (0..2000).filter(|x| x % 5 == 0).collect();
        let expected = a.iter().filter(|x| b.binary_search(x).is_ok()).count();
        assert_eq!(sorted_intersection_len(&a, &b), expected);
        assert_eq!(sorted_intersection_len(&b, &a), expected);
        assert_eq!(sorted_intersection_len(&[], &b), 0);
    }

    #[test]
    fn characteristics_from_edge_list_projects_directed() {
        let dir = EdgeListGraph::directed_from_edges(vec![(0, 1), (1, 0), (1, 2), (2, 0)]);
        let c = characteristics(&dir);
        assert_eq!(c.num_vertices, 3);
        assert_eq!(c.num_edges, 3); // (0,1),(1,2),(0,2) after projection.
        assert_eq!(c.global_cc, 1.0);
    }
}
