//! Synthetic workload generators.
//!
//! The paper evaluates on three collections of real graphs that are not
//! redistributable here; these generators produce the synthetic stand-ins
//! that `kdc_bench::collections` assembles. All generators are
//! deterministic given the caller-supplied RNG.

use crate::graph::{Graph, VertexId};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, &edges)
}

/// The complete multipartite graph with the given part sizes (all edges
/// between different parts, none inside a part). `complete_multipartite(&[a,
/// b])` is the complete bipartite graph `K_{a,b}`.
pub fn complete_multipartite(parts: &[usize]) -> Graph {
    let n: usize = parts.iter().sum();
    let mut part_of = Vec::with_capacity(n);
    for (i, &p) in parts.iter().enumerate() {
        part_of.extend(std::iter::repeat_n(i, p));
    }
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if part_of[u] != part_of[v] {
                edges.push((u as VertexId, v as VertexId));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Erdős–Rényi `G(n, p)` via geometric skipping (O(n + m) expected).
pub fn gnp(n: usize, p: f64, rng: &mut SmallRng) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    if p <= 0.0 || n < 2 {
        return Graph::empty(n);
    }
    let mut edges = Vec::new();
    if p >= 1.0 {
        return complete(n);
    }
    // Iterate over the C(n,2) potential edges in lexicographic order,
    // skipping ahead geometrically.
    let total = n * (n - 1) / 2;
    let log_q = (1.0 - p).ln();
    let mut idx: usize = 0;
    loop {
        let r: f64 = rng.random::<f64>();
        let skip = ((1.0 - r).ln() / log_q).floor() as usize;
        idx = match idx.checked_add(skip) {
            Some(i) => i,
            None => break,
        };
        if idx >= total {
            break;
        }
        edges.push(unrank_edge(n, idx));
        idx += 1;
    }
    Graph::from_edges(n, &edges)
}

/// Maps a linear index in `[0, C(n,2))` to the corresponding `(u, v)` pair in
/// lexicographic order.
fn unrank_edge(n: usize, idx: usize) -> (VertexId, VertexId) {
    // Row u starts at offset u*n - u*(u+3)/2 ... solve incrementally; binary
    // search over rows keeps this O(log n).
    let row_start = |u: usize| u * (2 * n - u - 1) / 2;
    let (mut lo, mut hi) = (0usize, n - 1);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if row_start(mid) <= idx {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let u = lo;
    let v = u + 1 + (idx - row_start(u));
    (u as VertexId, v as VertexId)
}

/// Barabási–Albert preferential attachment: starts from a clique on
/// `m0 = m_attach` vertices and attaches each new vertex to `m_attach`
/// distinct existing vertices chosen preferentially by degree.
pub fn barabasi_albert(n: usize, m_attach: usize, rng: &mut SmallRng) -> Graph {
    assert!(m_attach >= 1 && n > m_attach, "need n > m_attach ≥ 1");
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    // Repeated-endpoint pool: choosing uniformly from it is preferential.
    let mut pool: Vec<VertexId> = Vec::new();
    for u in 0..m_attach as VertexId {
        for v in (u + 1)..m_attach as VertexId {
            edges.push((u, v));
            pool.push(u);
            pool.push(v);
        }
    }
    if m_attach == 1 {
        pool.push(0);
    }
    let mut chosen = Vec::with_capacity(m_attach);
    for v in m_attach..n {
        chosen.clear();
        let mut guard = 0;
        while chosen.len() < m_attach && guard < 50 * m_attach {
            let t = pool[rng.random_range(0..pool.len())];
            if !chosen.contains(&t) {
                chosen.push(t);
            }
            guard += 1;
        }
        // Fallback for degenerate pools: fill with smallest unused ids.
        let mut next = 0 as VertexId;
        while chosen.len() < m_attach {
            if !chosen.contains(&next) && (next as usize) < v {
                chosen.push(next);
            }
            next += 1;
        }
        for &t in &chosen {
            edges.push((v as VertexId, t));
            pool.push(v as VertexId);
            pool.push(t);
        }
    }
    Graph::from_edges(n, &edges)
}

/// Chung–Lu power-law random graph: vertex `i` gets weight
/// `w_i ∝ (i + i0)^(−1/(β−1))`, scaled to the target average degree, and each
/// edge `(u,v)` appears with probability `min(1, w_u·w_v / Σw)`.
pub fn chung_lu(n: usize, avg_deg: f64, beta: f64, rng: &mut SmallRng) -> Graph {
    assert!(beta > 2.0, "power-law exponent must exceed 2");
    if n < 2 {
        return Graph::empty(n);
    }
    let gamma = 1.0 / (beta - 1.0);
    let i0 = 1.0;
    let raw: Vec<f64> = (0..n).map(|i| (i as f64 + i0).powf(-gamma)).collect();
    let raw_sum: f64 = raw.iter().sum();
    let scale = avg_deg * n as f64 / raw_sum;
    let w: Vec<f64> = raw.iter().map(|r| r * scale).collect();
    let wsum: f64 = w.iter().sum();
    // High-weight vertices come first; sample per pair with early row exit
    // once the row's maximum pair probability collapses.
    let mut edges = Vec::new();
    for u in 0..n {
        // For fixed u, p(u,v) decreases in v; skip-sample like G(n,p) rows
        // with p bounded by p(u, u+1).
        let mut v = u + 1;
        while v < n {
            let p = (w[u] * w[v] / wsum).min(1.0);
            if p <= 0.0 {
                break;
            }
            if p >= 1.0 {
                edges.push((u as VertexId, v as VertexId));
                v += 1;
                continue;
            }
            if rng.random::<f64>() < p {
                edges.push((u as VertexId, v as VertexId));
            }
            v += 1;
        }
    }
    Graph::from_edges(n, &edges)
}

/// Plants a k-defective clique of `size` vertices (a clique with
/// `missing_edges` random internal edges deleted) inside a `G(n, p_noise)`
/// background. Returns the graph and the planted vertex set.
pub fn planted_defective_clique(
    n: usize,
    size: usize,
    missing_edges: usize,
    p_noise: f64,
    rng: &mut SmallRng,
) -> (Graph, Vec<VertexId>) {
    assert!(size <= n);
    assert!(missing_edges <= size * size.saturating_sub(1) / 2);
    let background = gnp(n, p_noise, rng);
    // Choose the planted set as a random sample of vertices.
    let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
    for i in 0..size {
        let j = rng.random_range(i..n);
        ids.swap(i, j);
    }
    let planted: Vec<VertexId> = ids[..size].to_vec();

    // All clique pair slots, minus a random sample of `missing_edges`.
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::with_capacity(size * (size - 1) / 2);
    for i in 0..size {
        for j in (i + 1)..size {
            let (a, b) = (planted[i].min(planted[j]), planted[i].max(planted[j]));
            pairs.push((a, b));
        }
    }
    for i in 0..missing_edges {
        let j = rng.random_range(i..pairs.len());
        pairs.swap(i, j);
    }
    let keep = &pairs[missing_edges..];

    let mut edges: Vec<(VertexId, VertexId)> = background.edges().collect();
    // Remove background edges inside the planted set, then add the kept pairs.
    let in_planted: std::collections::HashSet<VertexId> = planted.iter().copied().collect();
    edges.retain(|&(u, v)| !(in_planted.contains(&u) && in_planted.contains(&v)));
    edges.extend_from_slice(keep);
    (Graph::from_edges(n, &edges), planted)
}

/// Parameters for [`community`] graphs.
#[derive(Clone, Debug)]
pub struct CommunityParams {
    /// Number of communities.
    pub communities: usize,
    /// Vertices per community.
    pub community_size: usize,
    /// Intra-community edge probability (dense).
    pub p_in: f64,
    /// Inter-community edge probability (sparse).
    pub p_out: f64,
}

/// A planted-partition ("facebook-like") graph: `communities` dense blocks
/// with sparse random edges between blocks. Social networks' large
/// near-cliques live inside such blocks, which is the regime where the
/// paper's UB1/RR3/RR4 shine.
pub fn community(params: &CommunityParams, rng: &mut SmallRng) -> Graph {
    let n = params.communities * params.community_size;
    let block = |v: usize| v / params.community_size;
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let p = if block(u) == block(v) {
                params.p_in
            } else {
                params.p_out
            };
            if p > 0.0 && rng.random::<f64>() < p {
                edges.push((u as VertexId, v as VertexId));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// A `rows × cols` lattice. With `diagonals`, each cell also connects to its
/// down-right and down-left neighbours (king-move style), which creates
/// triangles and 4-cliques like DIMACS10 mesh instances.
pub fn grid(rows: usize, cols: usize, diagonals: bool) -> Graph {
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c)));
                if diagonals {
                    if c + 1 < cols {
                        edges.push((id(r, c), id(r + 1, c + 1)));
                    }
                    if c > 0 {
                        edges.push((id(r, c), id(r + 1, c - 1)));
                    }
                }
            }
        }
    }
    Graph::from_edges(rows * cols, &edges)
}

/// Random geometric graph: `n` points uniform in the unit square, edges
/// between pairs within distance `radius`. Grid-bucketed, O(n + m) expected.
/// Models road-network/mesh-like DIMACS10 instances.
pub fn random_geometric(n: usize, radius: f64, rng: &mut SmallRng) -> Graph {
    assert!(radius > 0.0);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
        .collect();
    let cells = (1.0 / radius).floor().max(1.0) as usize;
    let cell_of = |p: (f64, f64)| {
        let cx = ((p.0 * cells as f64) as usize).min(cells - 1);
        let cy = ((p.1 * cells as f64) as usize).min(cells - 1);
        (cx, cy)
    };
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); cells * cells];
    for (i, &p) in pts.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        buckets[cy * cells + cx].push(i as u32);
    }
    let r2 = radius * radius;
    let mut edges = Vec::new();
    for (i, &p) in pts.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                let nx = cx as i64 + dx;
                let ny = cy as i64 + dy;
                if nx < 0 || ny < 0 || nx >= cells as i64 || ny >= cells as i64 {
                    continue;
                }
                for &j in &buckets[ny as usize * cells + nx as usize] {
                    if (j as usize) <= i {
                        continue;
                    }
                    let q = pts[j as usize];
                    let (ddx, ddy) = (p.0 - q.0, p.1 - q.1);
                    if ddx * ddx + ddy * ddy <= r2 {
                        edges.push((i as VertexId, j));
                    }
                }
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// A heterogeneous planted-partition graph: like [`community`], but
/// community `c` gets size `community_size · (3 + (c mod 3))/4` and
/// intra-density `p_in · (0.7 + 0.6·c/(communities−1))` (capped at 0.9).
/// One community is clearly densest — as in real social networks, where
/// preprocessing can then discard the rest. Returns the graph and the
/// per-vertex community labels.
pub fn community_heterogeneous(params: &CommunityParams, rng: &mut SmallRng) -> (Graph, Vec<u32>) {
    let c = params.communities;
    assert!(c >= 1);
    let mut label: Vec<u32> = Vec::new();
    let mut p_in_of: Vec<f64> = Vec::new();
    for i in 0..c {
        let size = params.community_size * (3 + (i % 3)) / 4; // 0.75×, 1×, 1.25×
        let boost = if c == 1 {
            1.0
        } else {
            0.7 + 0.6 * i as f64 / (c - 1) as f64
        };
        p_in_of.push((params.p_in * boost).min(0.9));
        label.extend(std::iter::repeat_n(i as u32, size));
    }
    let n = label.len();
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let p = if label[u] == label[v] {
                p_in_of[label[u] as usize]
            } else {
                params.p_out
            };
            if p > 0.0 && rng.random::<f64>() < p {
                edges.push((u as VertexId, v as VertexId));
            }
        }
    }
    (Graph::from_edges(n, &edges), label)
}

/// Watts–Strogatz small-world graph: a ring lattice where every vertex links
/// to its `k_ring / 2` nearest neighbours on each side, with each edge
/// endpoint rewired uniformly at random with probability `p_rewire`.
/// High clustering with short paths — another social-like regime.
pub fn watts_strogatz(n: usize, k_ring: usize, p_rewire: f64, rng: &mut SmallRng) -> Graph {
    assert!(
        k_ring >= 2 && k_ring.is_multiple_of(2),
        "k_ring must be even and ≥ 2"
    );
    assert!(n > k_ring, "need n > k_ring");
    let half = k_ring / 2;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for u in 0..n {
        for d in 1..=half {
            let v = (u + d) % n;
            if rng.random::<f64>() < p_rewire {
                // Rewire to a uniform non-self target; duplicates are merged
                // by the Graph constructor (slight edge-count shrink, as in
                // the standard model).
                let mut t = rng.random_range(0..n);
                let mut guard = 0;
                while t == u && guard < 8 {
                    t = rng.random_range(0..n);
                    guard += 1;
                }
                if t != u {
                    edges.push((u as VertexId, t as VertexId));
                }
            } else {
                edges.push((u as VertexId, v as VertexId));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Stochastic-Kronecker-style (R-MAT) graph on `2^scale` vertices with
/// `edge_factor × 2^scale` sampled edges and the classic (a, b, c, d)
/// quadrant probabilities. Models SNAP-style web/social graphs with
/// heavy-tailed degrees and community-of-communities structure.
pub fn rmat(scale: u32, edge_factor: usize, rng: &mut SmallRng) -> Graph {
    let n = 1usize << scale;
    let target = edge_factor * n;
    let (a, b, c) = (0.57, 0.19, 0.19); // d = 0.05, Graph500 defaults
    let mut edges = Vec::with_capacity(target);
    for _ in 0..target {
        let (mut u, mut v) = (0usize, 0usize);
        for bit in (0..scale).rev() {
            let r: f64 = rng.random();
            let (du, dv) = if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            u |= du << bit;
            v |= dv << bit;
        }
        if u != v {
            edges.push((u as VertexId, v as VertexId));
        }
    }
    Graph::from_edges(n, &edges)
}

/// Convenience: a seeded RNG for deterministic workloads.
pub fn seeded_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_graph_counts() {
        let g = complete(6);
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 15);
        assert!(g.is_k_defective_clique(&[0, 1, 2, 3, 4, 5], 0));
    }

    #[test]
    fn multipartite_counts() {
        let g = complete_multipartite(&[2, 3]);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 6);
        assert!(!g.has_edge(0, 1), "no intra-part edges");
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = seeded_rng(1);
        assert_eq!(gnp(10, 0.0, &mut rng).m(), 0);
        assert_eq!(gnp(10, 1.0, &mut rng).m(), 45);
        assert_eq!(gnp(1, 0.5, &mut rng).n(), 1);
    }

    #[test]
    fn gnp_density_close_to_p() {
        let mut rng = seeded_rng(2);
        let g = gnp(400, 0.1, &mut rng);
        let density = g.density();
        assert!(
            (density - 0.1).abs() < 0.02,
            "density {density} too far from p = 0.1"
        );
    }

    #[test]
    fn unrank_edge_is_lexicographic() {
        let n = 7;
        let mut seen = Vec::new();
        for idx in 0..(n * (n - 1) / 2) {
            seen.push(unrank_edge(n, idx));
        }
        let mut expected = Vec::new();
        for u in 0..n as VertexId {
            for v in (u + 1)..n as VertexId {
                expected.push((u, v));
            }
        }
        assert_eq!(seen, expected);
    }

    #[test]
    fn ba_graph_connected_with_expected_edges() {
        let mut rng = seeded_rng(3);
        let g = barabasi_albert(200, 3, &mut rng);
        assert_eq!(g.n(), 200);
        assert!(g.is_connected());
        // clique(3) + 197 × 3 attachments (dedup may drop a few)
        assert!(g.m() >= 3 + 197 * 3 - 10);
    }

    #[test]
    fn chung_lu_has_skewed_degrees() {
        let mut rng = seeded_rng(4);
        let g = chung_lu(500, 8.0, 2.5, &mut rng);
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!(avg > 2.0 && avg < 20.0, "avg degree {avg}");
        assert!(
            g.max_degree() as f64 > 3.0 * avg,
            "power-law should create hubs (max {} vs avg {avg})",
            g.max_degree()
        );
    }

    #[test]
    fn planted_clique_is_defective() {
        let mut rng = seeded_rng(5);
        let (g, planted) = planted_defective_clique(100, 12, 3, 0.05, &mut rng);
        assert_eq!(planted.len(), 12);
        assert_eq!(g.missing_edges_within(&planted), 3);
        assert!(g.is_k_defective_clique(&planted, 3));
        assert!(!g.is_k_defective_clique(&planted, 2));
    }

    #[test]
    fn planted_zero_missing_is_clique() {
        let mut rng = seeded_rng(6);
        let (g, planted) = planted_defective_clique(50, 8, 0, 0.1, &mut rng);
        assert_eq!(g.missing_edges_within(&planted), 0);
    }

    #[test]
    fn community_blocks_denser_than_background() {
        let mut rng = seeded_rng(7);
        let params = CommunityParams {
            communities: 4,
            community_size: 25,
            p_in: 0.6,
            p_out: 0.02,
        };
        let g = community(&params, &mut rng);
        assert_eq!(g.n(), 100);
        let block0: Vec<VertexId> = (0..25).collect();
        let within = g.edges_within(&block0) as f64 / 300.0;
        assert!(within > 0.4, "intra-block density {within}");
    }

    #[test]
    fn heterogeneous_communities_vary_in_density() {
        let mut rng = seeded_rng(60);
        let params = CommunityParams {
            communities: 4,
            community_size: 40,
            p_in: 0.5,
            p_out: 0.01,
        };
        let (g, label) = community_heterogeneous(&params, &mut rng);
        assert_eq!(g.n(), label.len());
        // Density of the last community strictly exceeds the first's.
        let members = |c: u32| -> Vec<VertexId> {
            label
                .iter()
                .enumerate()
                .filter(|(_, &l)| l == c)
                .map(|(i, _)| i as VertexId)
                .collect()
        };
        let dens =
            |vs: &[VertexId]| g.edges_within(vs) as f64 / (vs.len() * (vs.len() - 1) / 2) as f64;
        let first = members(0);
        let last = members(3);
        assert!(
            dens(&last) > dens(&first) + 0.1,
            "{} vs {}",
            dens(&last),
            dens(&first)
        );
        // Sizes follow the 0.75×/1.25× pattern.
        assert_eq!(first.len(), 30);
        assert_eq!(members(1).len(), 40);
    }

    #[test]
    fn watts_strogatz_ring_without_rewiring() {
        let mut rng = seeded_rng(50);
        let g = watts_strogatz(20, 4, 0.0, &mut rng);
        assert_eq!(g.n(), 20);
        assert_eq!(g.m(), 40, "each vertex links 2 ahead");
        // Ring lattice: neighbours at distance 1 and 2.
        assert!(g.has_edge(0, 1) && g.has_edge(0, 2) && g.has_edge(0, 19) && g.has_edge(0, 18));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn watts_strogatz_rewiring_keeps_graph_simple() {
        let mut rng = seeded_rng(51);
        let g = watts_strogatz(100, 6, 0.3, &mut rng);
        assert_eq!(g.n(), 100);
        assert!(g.m() <= 300, "rewiring can only merge edges");
        assert!(g.m() > 250);
    }

    #[test]
    fn rmat_has_heavy_tail() {
        let mut rng = seeded_rng(52);
        let g = rmat(10, 8, &mut rng);
        assert_eq!(g.n(), 1024);
        assert!(g.m() > 4_000);
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!(
            g.max_degree() as f64 > 5.0 * avg,
            "R-MAT should produce hubs: max {} vs avg {avg:.1}",
            g.max_degree()
        );
    }

    #[test]
    fn grid_shapes() {
        let g = grid(3, 4, false);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert_eq!(g.triangle_count(), 0, "plain lattice is triangle-free");

        let d = grid(3, 3, true);
        assert!(d.triangle_count() > 0, "diagonals create triangles");
        assert!(d.has_edge(0, 4), "down-right diagonal");
        assert!(d.has_edge(1, 3), "down-left diagonal");
    }

    #[test]
    fn geometric_graph_is_local() {
        let mut rng = seeded_rng(77);
        let g = random_geometric(400, 0.08, &mut rng);
        assert_eq!(g.n(), 400);
        assert!(g.m() > 100, "radius should produce edges, got {}", g.m());
        // Bucketed construction must agree with the brute-force definition.
        let mut rng2 = seeded_rng(77);
        let pts: Vec<(f64, f64)> = (0..400)
            .map(|_| (rng2.random::<f64>(), rng2.random::<f64>()))
            .collect();
        let mut expected = 0usize;
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
                if dx * dx + dy * dy <= 0.08 * 0.08 {
                    expected += 1;
                }
            }
        }
        assert_eq!(g.m(), expected);
    }

    #[test]
    fn generators_are_deterministic() {
        let g1 = gnp(50, 0.2, &mut seeded_rng(42));
        let g2 = gnp(50, 0.2, &mut seeded_rng(42));
        assert_eq!(g1, g2);
        let b1 = barabasi_albert(60, 2, &mut seeded_rng(42));
        let b2 = barabasi_albert(60, 2, &mut seeded_rng(42));
        assert_eq!(b1, b2);
    }
}
