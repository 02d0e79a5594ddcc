//! `bench-snapshot`: the machine-readable perf baselines of the suite.
//!
//! Each suite measures one layer and writes its own committed file (format
//! and gate in [`kdc_bench::snapshot`]):
//!
//! * `solve` → `BENCH_6.json`: the planted solve cases, each in three
//!   variants — the flagship `kdc` preset on the word-parallel kernel, the
//!   same preset on the scalar kernel (`kdc-scalar`, the speedup
//!   baseline) and `kdclub` (the KD-Club re-colouring bound, the
//!   node-reduction headline) — with bound-prune counters and per-bound
//!   cost attribution (invocations / prunes / prune-rate / ns for each of
//!   UB2, UB3, UB1, KD-Club, UB4), plus the incremental CTCP case. Write
//!   mode also measures the observability layer's cost on planted-200
//!   (`kdc_obs` enabled vs disabled; target ≤ 2%, reported, never gated).
//! * `batch` → `BENCH_7.json`: the planted-200-k3 sweep over `k = 0..=4`
//!   as one batch versus five fresh-session cold solves.
//! * `recovery` → `BENCH_8.json`: a cold solve versus a warm restart from
//!   a real [`kdc_store::Store`] state dir.
//!
//! Every run asserts its suite's contract before anything is written or
//! compared: node counts deterministic across reps, batch answers
//! byte-identical to cold solves with at least one shared reducer pass
//! and one witness seed and under 70% of the summed cold nodes, and the
//! restart answered from the recovered memo, byte-identical, re-exploring
//! under 50% of the cold nodes. `--check` then gates each suite against
//! its committed file (see [`kdc_bench::snapshot::check`]).
//!
//! Usage: `bench-snapshot [--check] [--reps N] [SUITE...]`; with no suite
//! named, all of them run.

use kdc::{bound, Solver, SolverConfig};
use kdc_api::{Budget, Options, Outcome, Query, Session, SubQuery};
use kdc_bench::snapshot::{self, median_ns, Case, ObsOverhead};
use kdc_graph::ctcp::Ctcp;
use kdc_graph::{gen, Graph};
use kdc_service::{export_graph_state, import_graph_state};
use kdc_store::Store;
use std::path::Path;

/// Committed baseline of the `solve` suite, relative to the invocation
/// directory (the workspace root under `cargo run`).
const SOLVE_FILE: &str = "BENCH_6.json";
/// Committed baseline of the `batch` suite.
const BATCH_FILE: &str = "BENCH_7.json";
/// Committed baseline of the `recovery` suite.
const RECOVERY_FILE: &str = "BENCH_8.json";

/// The batch must explore strictly fewer than this fraction of the nodes
/// the summed cold solves explore — the headline sharing guarantee.
const SHARING_CEILING: f64 = 0.70;

/// The warm restart must re-explore strictly fewer than this fraction of
/// the cold solve's nodes — the headline durability guarantee.
const REEXPLORE_CEILING: f64 = 0.50;

/// One named workload and the file it is baselined in.
struct Suite {
    name: &'static str,
    file: &'static str,
    schema: u32,
    run: fn(usize) -> Vec<Case>,
    /// Write mode also records the observability-overhead report.
    obs_overhead: bool,
}

const SUITES: [Suite; 3] = [
    Suite {
        name: "solve",
        file: SOLVE_FILE,
        schema: 2,
        run: solve_suite,
        obs_overhead: true,
    },
    Suite {
        name: "batch",
        file: BATCH_FILE,
        schema: 1,
        run: batch_suite,
        obs_overhead: false,
    },
    Suite {
        name: "recovery",
        file: RECOVERY_FILE,
        schema: 1,
        run: recovery_suite,
        obs_overhead: false,
    },
];

fn owned(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

/// The `solve` suite: every planted solve case in three variants, then
/// the incremental CTCP case.
fn solve_suite(reps: usize) -> Vec<Case> {
    // The shared search-heavy cases (one source of generator parameters for
    // this bin and the `engine` criterion bench) plus one
    // preprocessing-dominated case — the classic low-noise plant collapses
    // to the planted set before any search, pinning heuristic + CTCP
    // wall-clock.
    let mut cases = kdc_bench::collections::planted_snapshot_cases();
    let (g, _) = gen::planted_defective_clique(2_000, 18, 2, 0.01, &mut gen::seeded_rng(11));
    cases.push(("planted-2k-k2", g, 2));
    let mut out = Vec::new();
    for (name, g, k) in &cases {
        for (variant, cfg) in [
            ("kdc", SolverConfig::kdc()),
            ("kdc-scalar", SolverConfig::kdc().with_scalar_kernel()),
            ("kdclub", SolverConfig::kdclub()),
        ] {
            let case = format!("solve/{name}/{variant}");
            out.push(run_solve_case(case, g, *k, &cfg, reps));
        }
    }
    out.push(run_ctcp_case(reps));
    out
}

/// Measures one (graph, k, config) solve variant.
fn run_solve_case(name: String, g: &Graph, k: usize, cfg: &SolverConfig, reps: usize) -> Case {
    let reference = Solver::new(g, k, cfg.clone()).solve();
    assert!(
        reference.is_optimal(),
        "{name}: case must solve to optimality"
    );
    let median = median_ns(reps, || {
        let sol = Solver::new(g, k, cfg.clone()).solve();
        assert_eq!(
            sol.stats.nodes, reference.stats.nodes,
            "{name}: node counts must be deterministic"
        );
    });
    let s = &reference.stats;
    let mut metrics = owned(&[
        ("nodes", s.nodes),
        ("bound_prunes", s.bound_prunes),
        ("ub1_prunes", s.ub1_prunes),
        ("kdclub_prunes", s.kdclub_prunes),
        ("size", reference.size() as u64),
    ]);
    // Per-bound cost attribution, in the engine's evaluation order. The
    // prune-rate (prunes / invocations) is what tells whether a bound
    // earns its nanoseconds.
    let mut rates = Vec::new();
    for (i, cost) in s.bound_costs.iter().enumerate() {
        let b = bound::NAMES[i];
        metrics.push((format!("{b}_invocations"), cost.invocations));
        metrics.push((format!("{b}_prunes"), cost.prunes));
        metrics.push((format!("{b}_ns"), cost.ns));
        let rate = if cost.invocations > 0 {
            cost.prunes as f64 / cost.invocations as f64
        } else {
            0.0
        };
        rates.push((format!("{b}_prune_rate"), rate));
    }
    Case {
        name,
        median_ns: median,
        runs: reps,
        metrics,
        rates,
    }
}

/// Measures the incremental CTCP case: a warm reducer driven across the
/// rising lower-bound schedule of the `ctcp` criterion bench.
fn run_ctcp_case(reps: usize) -> Case {
    const SCHEDULE: [usize; 6] = [8, 10, 12, 14, 16, 18];
    let (g, _) = gen::planted_defective_clique(2_000, 18, 2, 0.01, &mut gen::seeded_rng(11));
    let mut vertex_removals = 0u64;
    let mut edge_removals = 0u64;
    let median = median_ns(reps, || {
        let mut ctcp = Ctcp::new(&g, 2);
        let mut vs = 0u64;
        let mut es = 0u64;
        for &lb in &SCHEDULE {
            let rem = ctcp.tighten(lb);
            vs += rem.vertices.len() as u64;
            es += rem.edges;
        }
        vertex_removals = vs;
        edge_removals = es;
    });
    Case {
        name: "ctcp/planted-2k-schedule".to_string(),
        median_ns: median,
        runs: reps,
        metrics: owned(&[
            ("vertex_removals", vertex_removals),
            ("edge_removals", edge_removals),
        ]),
        rates: Vec::new(),
    }
}

/// Measures the observability layer's wall-clock cost: the planted-200
/// solve with `kdc_obs` enabled (bound timing on, the default) vs
/// disabled. The global switch is restored to enabled afterwards.
fn measure_obs_overhead(reps: usize) -> ObsOverhead {
    let (g, _) = gen::planted_defective_clique(200, 14, 3, 0.30, &mut gen::seeded_rng(13));
    let cfg = SolverConfig::kdc();
    let run = || {
        let sol = Solver::new(&g, 3, cfg.clone()).solve();
        assert!(sol.is_optimal(), "planted-200 must solve to optimality");
    };
    // Interleave the two variants rep by rep so slow machine-level drift
    // (thermal throttling, background load) hits both sides equally
    // instead of biasing whichever block ran second.
    let mut enabled_samples = Vec::with_capacity(reps);
    let mut disabled_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        kdc_obs::set_enabled(true);
        enabled_samples.push(median_ns(1, run));
        kdc_obs::set_enabled(false);
        disabled_samples.push(median_ns(1, run));
    }
    kdc_obs::set_enabled(true);
    enabled_samples.sort_unstable();
    disabled_samples.sort_unstable();
    ObsOverhead {
        case: "planted-200-k3/kdc",
        enabled_ns: enabled_samples[enabled_samples.len() / 2],
        disabled_ns: disabled_samples[disabled_samples.len() / 2],
    }
}

/// One fresh-session cold solve — the unshared reference execution.
fn cold_solve(g: &Graph, k: usize) -> Outcome {
    Session::new(g.clone())
        .run(
            &Query::Solve { k },
            &Budget::default(),
            &Options::preset("kdc").unwrap(),
        )
        .expect("cold solve")
}

/// The `batch` suite: the planted-200-k3 sweep over `k = 0..=4` as one
/// batch (one shared universe, one reducer schedule, cross-`k` witness
/// seeds and upper-bound caps) versus five fresh-session cold solves.
fn batch_suite(reps: usize) -> Vec<Case> {
    const K_SWEEP: std::ops::RangeInclusive<usize> = 0..=4;
    let (name, g, _) = kdc_bench::collections::planted_snapshot_cases().remove(0);
    let subs: Vec<SubQuery> = K_SWEEP.map(SubQuery::solve).collect();

    // Reference run: per-k cold solves, summed.
    let reference: Vec<Outcome> = K_SWEEP.map(|k| cold_solve(&g, k)).collect();
    let cold_nodes: u64 = reference.iter().map(|o| o.stats.nodes).sum();
    let cold_median = median_ns(reps, || {
        for k in K_SWEEP {
            let out = cold_solve(&g, k);
            assert_eq!(
                out.stats.nodes, reference[k].stats.nodes,
                "{name}: cold node counts must be deterministic"
            );
        }
    });

    // Batched run: one fresh session sweeping the same sub-queries.
    let batch = Session::new(g.clone())
        .run_batch(&subs, &Budget::default(), &Options::preset("kdc").unwrap())
        .expect("batch sweep");
    for (k, (got, want)) in batch.outcomes.iter().zip(&reference).enumerate() {
        assert_eq!(got.status, want.status, "{name} k={k}: status parity");
        assert_eq!(
            got.witnesses, want.witnesses,
            "{name} k={k}: batch answers must be byte-identical to cold solves"
        );
    }
    assert!(
        batch.batch_ctcp_shares >= 1,
        "{name}: sweep must share at least one reducer pass"
    );
    assert!(
        batch.batch_witness_seeds >= 1,
        "{name}: sweep must seed at least one lower bound from a witness"
    );
    let batch_nodes = batch.total_nodes();
    let ceiling = (cold_nodes as f64 * SHARING_CEILING) as u64;
    assert!(
        batch_nodes < ceiling,
        "{name}: batch explored {batch_nodes} nodes, \
         >= {:.0}% of the {cold_nodes} summed cold nodes",
        SHARING_CEILING * 100.0
    );
    let batch_median = median_ns(reps, || {
        let again = Session::new(g.clone())
            .run_batch(&subs, &Budget::default(), &Options::preset("kdc").unwrap())
            .expect("batch sweep");
        assert_eq!(
            again.total_nodes(),
            batch_nodes,
            "{name}: batch node counts must be deterministic"
        );
    });

    let sizes: Vec<(String, u64)> = reference
        .iter()
        .enumerate()
        .map(|(k, o)| (format!("size_k{k}"), o.best().map_or(0, |w| w.len()) as u64))
        .collect();
    let mut batch_metrics = owned(&[
        ("nodes", batch_nodes),
        ("cold_nodes", cold_nodes),
        ("ctcp_shares", batch.batch_ctcp_shares),
        ("witness_seeds", batch.batch_witness_seeds),
        ("memo_dedups", batch.batch_memo_dedups),
    ]);
    batch_metrics.extend(sizes.iter().cloned());
    let mut cold_metrics = owned(&[("nodes", cold_nodes)]);
    cold_metrics.extend(sizes);
    vec![
        Case {
            name: format!("batch/{name}/sweep-k0-4"),
            median_ns: batch_median,
            runs: reps,
            metrics: batch_metrics,
            rates: Vec::new(),
        },
        Case {
            name: format!("cold/{name}/sweep-k0-4"),
            median_ns: cold_median,
            runs: reps,
            metrics: cold_metrics,
            rates: Vec::new(),
        },
    ]
}

/// One full warm restart: replay the state dir, rebuild a session from the
/// recovered state, and re-ask the benchmarked query. Returns the outcome
/// plus how many witnesses/memos the import accepted.
fn warm_restart(state_dir: &Path, g: &Graph, k: usize) -> (Outcome, u64, u64) {
    let (_store, recovered) = Store::open(state_dir).expect("reopen state dir");
    let gs = recovered
        .iter()
        .find(|gs| gs.name == "bench")
        .expect("persisted graph state survived the restart");
    let session = Session::new(g.clone());
    let (witnesses, memos) = session.import_state(&import_graph_state(gs));
    (session.solve(k), witnesses, memos)
}

/// The `recovery` suite on planted-200-k3: a cold solve in a fresh
/// session versus a restart — the proven state is persisted through a
/// real store (snapshot on disk), then a new session is rebuilt from a
/// replay of that state dir and asked the same query. With an intact
/// store the restart re-explores zero nodes; a silent recovery failure
/// falls cold and trips the ceiling.
fn recovery_suite(reps: usize) -> Vec<Case> {
    const K: usize = 3;
    let (name, g, _) = kdc_bench::collections::planted_snapshot_cases().remove(0);
    let dir = kdc_graph::io::fresh_temp_dir("bench_recovery");
    let state_dir = dir.join("state");
    let graph_path = dir.join("bench.clq");
    kdc_graph::io::write_dimacs(&g, &graph_path).expect("write graph file");
    let content_hash =
        kdc_store::content_hash(&std::fs::read(&graph_path).expect("reread graph file"));

    // Cold reference: a fresh session proves the query from nothing.
    let cold_session = Session::new(g.clone());
    let reference = cold_session.solve(K);
    assert!(
        reference.is_optimal(),
        "{name}: cold solve must prove k={K}"
    );
    let cold_nodes = reference.stats.nodes;
    let cold_median = median_ns(reps, || {
        let again = Session::new(g.clone()).solve(K);
        assert_eq!(
            again.stats.nodes, cold_nodes,
            "{name}: cold node counts must be deterministic"
        );
    });

    // Persist the proven state the way the daemon would — one snapshot in
    // a real store — then restart from disk: replay, import, re-solve.
    let state = cold_session.export_state();
    let gs = export_graph_state(
        "bench",
        &graph_path.display().to_string(),
        content_hash,
        &state,
    );
    {
        let (store, _) = Store::open(&state_dir).expect("create state dir");
        store
            .compact(std::slice::from_ref(&gs))
            .expect("write snapshot");
    }

    let (first, witnesses, memos) = warm_restart(&state_dir, &g, K);
    assert!(
        witnesses >= 1 && memos >= 1,
        "{name}: restart must recover the persisted state \
         (witnesses={witnesses} memos={memos})"
    );
    assert_eq!(first.status, reference.status, "{name}: status parity");
    assert_eq!(
        first.best(),
        reference.best(),
        "{name}: warm answer must be byte-identical to the cold solve"
    );
    // A memo hit replays the original proof's stats; the restarted search
    // itself explored nothing.
    let warm_reexplored = if first.cache.result_memo_hit {
        0
    } else {
        first.stats.nodes
    };
    let ceiling = ((cold_nodes as f64) * REEXPLORE_CEILING) as u64;
    assert!(
        warm_reexplored < ceiling.max(1),
        "{name}: warm restart re-explored {warm_reexplored} nodes, \
         >= {:.0}% of the {cold_nodes} cold nodes",
        REEXPLORE_CEILING * 100.0
    );
    let warm_median = median_ns(reps, || {
        let (out, _, _) = warm_restart(&state_dir, &g, K);
        assert!(
            out.cache.result_memo_hit,
            "{name}: the recovered memo must answer the warm solve"
        );
    });
    std::fs::remove_dir_all(&dir).expect("remove the suite's scratch dir");

    let size_key = format!("size_k{K}");
    let size = reference.best().map_or(0, |w| w.len()) as u64;
    vec![
        Case {
            name: format!("warm/{name}/restart-solve-k{K}"),
            median_ns: warm_median,
            runs: reps,
            metrics: owned(&[
                ("nodes", warm_reexplored),
                ("cold_nodes", cold_nodes),
                ("recovered_witnesses", witnesses),
                ("recovered_memos", memos),
                (&size_key, size),
            ]),
            rates: Vec::new(),
        },
        Case {
            name: format!("cold/{name}/solve-k{K}"),
            median_ns: cold_median,
            runs: reps,
            metrics: owned(&[("nodes", cold_nodes), (&size_key, size)]),
            rates: Vec::new(),
        },
    ]
}

fn usage(error: &str) -> ! {
    let names: Vec<&str> = SUITES.iter().map(|s| s.name).collect();
    eprintln!(
        "bench-snapshot: {error}\nusage: bench-snapshot [--check] [--reps N] [SUITE...] \
         (suites: {})",
        names.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut check_mode = false;
    let mut reps = 5usize;
    let mut selected: Vec<&Suite> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check_mode = true,
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|r| r.parse().ok())
                    .filter(|&r| r > 0)
                    .unwrap_or_else(|| usage("--reps needs a positive integer"));
            }
            name => selected.push(
                SUITES
                    .iter()
                    .find(|s| s.name == name)
                    .unwrap_or_else(|| usage(&format!("unknown argument {name:?}"))),
            ),
        }
    }
    if selected.is_empty() {
        selected = SUITES.iter().collect();
    }

    let mut failed = false;
    for suite in selected {
        let cases = (suite.run)(reps);
        if check_mode {
            let verdict = std::fs::read_to_string(suite.file)
                .map_err(|e| format!("cannot read baseline {}: {e}", suite.file))
                .and_then(|text| snapshot::parse(&text))
                .and_then(|baseline| snapshot::check(&baseline, &cases));
            match verdict {
                Ok(()) => println!("{} check passed against {}", suite.name, suite.file),
                Err(e) => {
                    eprintln!("{} check FAILED against {}:\n{e}", suite.name, suite.file);
                    failed = true;
                }
            }
        } else {
            let overhead = suite.obs_overhead.then(|| measure_obs_overhead(reps));
            let bench = suite.file.trim_end_matches(".json");
            let text = snapshot::render(bench, suite.schema, overhead, &cases);
            std::fs::write(suite.file, &text)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", suite.file));
            print!("{text}");
            if let Some(o) = overhead {
                println!(
                    "observability overhead on {}: {:+.2}% \
                     (enabled {} ns vs disabled {} ns, target <= 2%)",
                    o.case,
                    o.pct(),
                    o.enabled_ns,
                    o.disabled_ns
                );
            }
            println!("wrote {} ({} cases)", suite.file, cases.len());
        }
    }
    if failed {
        std::process::exit(1);
    }
}
