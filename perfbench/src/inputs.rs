//! Seeded inputs: the graphs each workload writes to its run directory and
//! the deterministic random stream that orders its requests. The program
//! under test only ever sees the written files and the requests.

use kdc_graph::gen;
use kdc_graph::Graph;
use std::path::{Path, PathBuf};

/// Vertices of the `sparse-large` power-law graph.
pub const SPARSE_N: usize = 200_000;
/// Barabási–Albert attachment count of the `sparse-large` graph (~8n edges).
pub const SPARSE_ATTACH: usize = 8;
/// Defect budget used on `sparse-large`.
pub const SPARSE_K: usize = 3;

/// Graphs in the `serve-mixed` pool.
pub const SERVE_POOL: usize = 6;
/// Largest k a `serve-mixed` request asks for (`MSOLVE k=0..SERVE_K_MAX`).
pub const SERVE_K_MAX: usize = 4;
/// The k values a `serve-mixed` cold `SOLVE` draws from.
pub const SERVE_COLD_KS: [usize; 2] = [3, 4];

/// A small deterministic generator (SplitMix64): request orders depend on
/// nothing but the workload seed.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One generated graph.
pub struct GraphInput {
    /// Stable name (also the file stem).
    pub name: String,
    /// The graph, kept in memory to check witnesses against.
    pub graph: Graph,
    /// Defect budget the workload solves it at (`serve-mixed` varies k per
    /// request and ignores this).
    pub k: usize,
}

/// The `search-planted` inputs: the search-heavy planted snapshot cases
/// (fixed generator seeds; the workload seed only orders the solves).
pub fn planted() -> Vec<GraphInput> {
    kdc_bench::collections::planted_snapshot_cases()
        .into_iter()
        .map(|(name, graph, k)| GraphInput {
            name: name.to_string(),
            graph,
            k,
        })
        .collect()
}

/// The `sparse-large` input: a Barabási–Albert graph drawn from `seed`.
pub fn sparse(seed: u64) -> Vec<GraphInput> {
    let graph = gen::barabasi_albert(SPARSE_N, SPARSE_ATTACH, &mut gen::seeded_rng(seed));
    vec![GraphInput {
        name: format!("ba-{SPARSE_N}-{SPARSE_ATTACH}"),
        graph,
        k: SPARSE_K,
    }]
}

/// The `serve-mixed` graph pool: small planted graphs whose cold solves at
/// k = 3..4 range from a single search node to ~64k (10 ms to ~1 s). The
/// pool is fixed so every seed serves the same work; the seed drives the
/// request sequence.
pub fn serve_pool() -> Vec<GraphInput> {
    (0..SERVE_POOL)
        .map(|i| {
            let (graph, _) =
                gen::planted_defective_clique(160, 13, 3, 0.30, &mut gen::seeded_rng(i as u64));
            GraphInput {
                name: format!("pool-{i}"),
                graph,
                k: 0,
            }
        })
        .collect()
}

/// Writes every input to `dir` as `<name>.clq` with the library's DIMACS
/// writer; returns the paths, in input order.
pub fn write_all(inputs: &[GraphInput], dir: &Path) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    inputs
        .iter()
        .map(|input| {
            let path = dir.join(format!("{}.clq", input.name));
            kdc_graph::io::write_dimacs(&input.graph, &path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}

/// Size in bytes of a written input file.
pub fn file_size(path: &Path) -> std::io::Result<u64> {
    Ok(std::fs::metadata(path)?.len())
}

/// The store's content hash of a written input file.
pub fn file_hash(path: &Path) -> std::io::Result<u64> {
    Ok(kdc_store::content_hash(&std::fs::read(path)?))
}
