//! The file-to-answer workloads, `search-planted` and `sparse-large`.
//!
//! A cold answer is exactly what `kdc solve` does: `Session::open(path)`
//! then `Session::run(Solve { k })` on the fresh session. Each cold answer
//! is followed by [`WARM_BLOCKS`] blocks of [`WARM_BLOCK`] repeats of the
//! same query on the same session, answered from its proven-optimal memo.
//! `kdc solve` never asks a session twice: the repeats stand for an
//! embedding application asking again, and their count is a choice, not a
//! measured ratio (see [`WARM_BLOCK`]). A round answers every case once, in
//! an order drawn from the seed; `answer_ms` samples the per-case mean of a
//! round, so cases of different cost never straddle the median.
//!
//! The traced run adds, per case and round, a second answer assembled from
//! the layers' public calls (`io::read_graph`, `degeneracy::peel`,
//! `heuristic::degen_opt_with`, `Ctcp::with_rules`, `Ctcp::tighten`, then
//! `Solver::solve` with that peeling, reducer and seed installed, so the
//! solver call is the branch-and-bound) with a span around each call.

use crate::inputs::{self, GraphInput, SplitMix};
use crate::report::{Report, Tally};
use crate::spans::{self, Recorder};
use crate::stats::{median, percentile, ratio};
use kdc::{bound, InitialHeuristic, Solution, Solver, SolverConfig, Status};
use kdc_api::{Budget, Options, Outcome, Query, Session};
use kdc_graph::ctcp::Ctcp;
use kdc_graph::{degeneracy, Graph, VertexId};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Timed blocks of memo-answered repeats after each cold answer. The
/// host's speed shifts within milliseconds, so the blocks after one answer
/// (~15 ms in all) span several shifts; with about 5 cold answers in a
/// 25 s `sparse-large` run, that is about 1000 `warm_us` samples.
pub const WARM_BLOCKS: usize = 200;
/// Repeats per timed block; a `warm_us` sample is a block's mean. One memo
/// answer takes under a microsecond, too short for a single pair of clock
/// reads to time steadily, so each sample is timed over 0.1 ms or more.
pub const WARM_BLOCK: usize = 256;

/// One prepared input: the graph, its file and the direct-`Solver`
/// reference answer.
pub struct Case {
    /// The generated graph (witnesses are checked against it).
    pub input: GraphInput,
    /// The written DIMACS file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// `Solver::new(graph, k, kdc).solve()` on the in-memory graph.
    pub reference: Solution,
}

/// Set-up, the part `setup_s` times: generates the workload's inputs for
/// `seed` with the library's generators and writes them under `dir` with
/// `io::write_dimacs`. Returns each input with its file.
pub fn setup(workload: &str, seed: u64, dir: &Path) -> Result<Vec<(GraphInput, PathBuf)>, String> {
    let graphs = match workload {
        "search-planted" => inputs::planted(),
        _ => inputs::sparse(seed),
    };
    let paths = inputs::write_all(&graphs, dir)?;
    Ok(graphs.into_iter().zip(paths).collect())
}

/// Untimed preparation of the written inputs: file sizes and the
/// direct-`Solver` reference answers, each checked.
pub fn prepare(written: Vec<(GraphInput, PathBuf)>, tally: &Tally) -> Result<Vec<Case>, String> {
    let config = kdc_config();
    written
        .into_iter()
        .map(|(input, path)| {
            let bytes = inputs::file_size(&path).map_err(|e| format!("sizing input: {e}"))?;
            let reference = Solver::new(&input.graph, input.k, config.clone()).solve();
            tally.check(check_witness(
                &input.graph,
                input.k,
                &reference.vertices,
                reference.size(),
                reference.status,
            ));
            Ok(Case {
                input,
                path,
                bytes,
                reference,
            })
        })
        .collect()
}

/// The `kdc` preset, as `kdc solve` runs it by default.
fn kdc_config() -> SolverConfig {
    Options::default()
        .resolve()
        .expect("the default preset always resolves")
}

/// Checks a witness: proven optimal, in range, duplicate-free, sorted,
/// a k-defective clique of `g`, and of the expected size.
pub fn check_witness(
    g: &Graph,
    k: usize,
    witness: &[VertexId],
    expected: usize,
    status: Status,
) -> Result<(), String> {
    if status != Status::Optimal {
        return Err(format!("status {status:?}, expected optimal"));
    }
    if witness.len() != expected {
        return Err(format!("size {} != reference {expected}", witness.len()));
    }
    if witness.iter().any(|&v| v as usize >= g.n()) || witness.windows(2).any(|w| w[0] >= w[1]) {
        return Err(format!(
            "witness not sorted, unique and in range: {witness:?}"
        ));
    }
    if !g.is_k_defective_clique(witness, k) {
        return Err(format!(
            "witness is not a {k}-defective clique: {witness:?}"
        ));
    }
    Ok(())
}

/// One cold file-to-answer solve; returns the session (for the warm
/// repeats), the outcome and the elapsed time.
fn cold_answer(
    case: &Case,
    query: &Query,
    options: &Options,
) -> Result<(Session, Outcome, Duration), String> {
    let t0 = Instant::now();
    let session = Session::open(&case.path)?;
    let outcome = session.run(query, &Budget::default(), options)?;
    Ok((session, outcome, t0.elapsed()))
}

/// Per-round means, keyed by metric name.
#[derive(Default)]
struct Rounds {
    series: BTreeMap<String, Vec<f64>>,
    round: BTreeMap<String, f64>,
}

impl Rounds {
    fn add(&mut self, name: &str, value: f64) {
        *self.round.entry(name.to_string()).or_default() += value;
    }

    /// Closes a round of `cases` answers: every sum becomes a per-case mean.
    fn close(&mut self, cases: usize) {
        for (name, sum) in std::mem::take(&mut self.round) {
            self.series
                .entry(name)
                .or_default()
                .push(sum / cases as f64);
        }
    }

    fn median(&self, name: &str) -> (f64, usize) {
        self.series
            .get(name)
            .map_or((0.0, 0), |v| (median(v), v.len()))
    }
}

/// Runs rounds for `seconds` (at least one) and fills `report`;
/// `peak_rss_mb` is the process's peak after the first round.
pub fn measure(
    cases: &[Case],
    seed: u64,
    seconds: u64,
    trace: Option<&mut Recorder>,
    tally: &Tally,
    report: &mut Report,
) {
    let mut rng = SplitMix::new(seed ^ 0x5EED_0001);
    let mut order: Vec<usize> = (0..cases.len()).collect();
    let mut rounds = Rounds::default();
    let mut warm_us: Vec<f64> = Vec::new();
    let mut block = Vec::with_capacity(WARM_BLOCK);
    let mut answers = 0usize;
    let mut ctcp_resumes = 0u64;
    let mut recorder = trace;
    let (budget, options) = (Budget::default(), Options::default());
    let run_for = Duration::from_secs(seconds);
    let t_start = Instant::now();
    let mut round_no = 0usize;
    while round_no == 0 || t_start.elapsed() < run_for {
        rng.shuffle(&mut order);
        for &i in &order {
            let case = &cases[i];
            let traced_first = round_no % 2 == 1;
            if let (Some(rec), true) = (recorder.as_deref_mut(), traced_first) {
                traced_answer(case, rec, &mut rounds, tally);
            }
            let query = Query::Solve { k: case.input.k };
            match cold_answer(case, &query, &options) {
                Ok((session, outcome, elapsed)) => {
                    answers += 1;
                    rounds.add("answer_ms", elapsed.as_secs_f64() * 1e3);
                    let witness = outcome.best().unwrap_or_default().to_vec();
                    tally.check(check_witness(
                        &case.input.graph,
                        case.input.k,
                        &witness,
                        case.reference.size(),
                        outcome.status,
                    ));
                    for _ in 0..WARM_BLOCKS {
                        // The answers are checked after the block, so the
                        // timing covers the calls alone.
                        let t0 = Instant::now();
                        for _ in 0..WARM_BLOCK {
                            block.push(session.run(&query, &budget, &options));
                        }
                        let elapsed = t0.elapsed();
                        warm_us.push(elapsed.as_secs_f64() * 1e6 / WARM_BLOCK as f64);
                        for warm in block.drain(..) {
                            tally.check(match warm {
                                Ok(w) if !w.cache.result_memo_hit => {
                                    Err("warm repeat missed the memo".to_string())
                                }
                                Ok(w)
                                    if w.best() != Some(&witness[..])
                                        || w.status != outcome.status =>
                                {
                                    Err("warm answer differs from the cold answer".to_string())
                                }
                                Ok(_) => Ok(()),
                                Err(e) => Err(e),
                            });
                        }
                    }
                    ctcp_resumes += session.counters().ctcp_resumes;
                }
                Err(e) => {
                    tally.check(Err(e));
                }
            }
            if let (Some(rec), false) = (recorder.as_deref_mut(), traced_first) {
                traced_answer(case, rec, &mut rounds, tally);
            }
        }
        rounds.close(cases.len());
        if round_no == 0 {
            // `kdc solve` answers once per process. Later rounds reuse
            // heap the allocator kept from earlier ones and grow the
            // resident set by a few MB per answer, so a peak over the whole
            // loop would depend on how many rounds the host's speed fits.
            report.set("peak_rss_mb", crate::report::peak_rss_mb(), 1);
        }
        round_no += 1;
    }
    let elapsed = t_start.elapsed().as_secs_f64();

    let (answer_ms, n) = rounds.median("answer_ms");
    report.set("answer_ms.p50", answer_ms, n);
    report.set("warm_us.p50", percentile(&warm_us, 0.5), warm_us.len());
    report.set("warm_us.p90", percentile(&warm_us, 0.9), warm_us.len());
    // Cold file-to-answer solves per second, what `kdc solve` users see;
    // the memo repeats are left out, as their count is a choice.
    report.set("throughput_rps", answers as f64 / elapsed, answers);

    if recorder.is_none() {
        return;
    }
    for (name, _) in crate::report::PER_LAYER {
        if let Some(series) = rounds.series.get(*name) {
            report.set(name, median(series), series.len());
        }
    }
    report.set("session.ctcp_resumes", ctcp_resumes as f64, 1);
    let (traced, _) = rounds.median("trace.answer_ms");
    report.set(
        "trace.overhead_pct",
        100.0 * ratio(traced - answer_ms, answer_ms),
        n,
    );
    let layers: f64 = LAYER_SPANS.iter().map(|(_, m)| rounds.median(m).0).sum();
    report.set("trace.accounted_pct", 100.0 * ratio(layers, answer_ms), n);
}

/// The layer spans of a traced answer (children of the `answer` span) and
/// the per-layer metric that reports each one's self time.
const LAYER_SPANS: [(&str, &str); 6] = [
    ("io.read_graph", "io.parse_ms"),
    ("degeneracy.peel", "degeneracy.peel_ms"),
    ("heuristic.degen_opt", "heuristic.ms"),
    ("ctcp.with_rules", "ctcp.build_ms"),
    ("ctcp.tighten", "ctcp.tighten_ms"),
    ("engine.solve", "engine.branch_ms"),
];

/// One traced answer assembled from the layers' public calls.
fn traced_answer(case: &Case, rec: &mut Recorder, rounds: &mut Rounds, tally: &Tally) {
    let k = case.input.k;
    let first = rec.spans().len();
    let root = rec.begin("answer", None);

    let s = rec.begin("io.read_graph", Some(root));
    let graph = kdc_graph::io::read_graph(&case.path);
    rec.end(s);
    let graph = match graph {
        Ok(g) => g,
        Err(e) => {
            rec.end(root);
            tally.check(Err(format!("traced read: {e}")));
            return;
        }
    };

    let s = rec.begin("degeneracy.peel", Some(root));
    let peeling = degeneracy::peel(&graph);
    rec.end(s);

    let s = rec.begin("heuristic.degen_opt", Some(root));
    let initial = kdc::heuristic::degen_opt_with(&graph, k, &peeling);
    rec.end(s);

    let mut config = kdc_config();
    let s = rec.begin("ctcp.with_rules", Some(root));
    let mut ctcp = Ctcp::with_rules(&graph, k, config.enable_rr5, config.enable_rr6);
    rec.end(s);

    let s = rec.begin("ctcp.tighten", Some(root));
    let removed = ctcp.tighten(initial.len());
    rec.end(s);

    // The heuristic already ran above: the solver takes its answer as the
    // seed and resumes the tightened reducer, so this call is the branch.
    let lb = initial.len();
    config.heuristic = InitialHeuristic::None;
    config.shared_peeling = Some(Arc::new(peeling));
    config.shared_ctcp = Some(Arc::new(Mutex::new(ctcp)));
    config.seed_solution = Some(initial);
    let s = rec.begin("engine.solve", Some(root));
    let solution = Solver::new(&graph, k, config).solve();
    rec.end(s);
    rec.end(root);

    tally.check(check_witness(
        &case.input.graph,
        k,
        &solution.vertices,
        case.reference.size(),
        solution.status,
    ));

    let spans = &rec.spans()[first..];
    let self_ns = spans::self_times(spans, first);
    rounds.add("trace.answer_ms", spans[0].duration_ns() as f64 / 1e6);
    for (span, ns) in spans.iter().zip(&self_ns).skip(1) {
        if let Some((_, metric)) = LAYER_SPANS.iter().find(|(s, _)| *s == span.name) {
            rounds.add(metric, *ns as f64 / 1e6);
        }
    }
    let parse_s = spans[1].duration_ns() as f64 / 1e9;
    rounds.add("io.mb_per_s", ratio(case.bytes as f64 / 1e6, parse_s));
    rounds.add(
        "heuristic.lb_over_opt",
        ratio(lb as f64, case.reference.size() as f64),
    );
    rounds.add(
        "ctcp.vertex_removed_share",
        ratio(removed.vertices.len() as f64, graph.n() as f64),
    );
    rounds.add(
        "ctcp.edge_removed_share",
        ratio(removed.edges as f64, graph.m() as f64),
    );
    let stats = &solution.stats;
    rounds.add("engine.nodes", stats.nodes as f64);
    rounds.add(
        "engine.ns_per_node",
        ratio(spans[6].duration_ns() as f64, stats.nodes as f64),
    );
    rounds.add("engine.universe_rebuilds", stats.universe_rebuilds as f64);
    for (name, cost) in bound::NAMES.iter().zip(&stats.bound_costs) {
        let metric = |field: &str| format!("bounds.{name}.{field}");
        rounds.add(&metric("invocations"), cost.invocations as f64);
        rounds.add(&metric("prunes"), cost.prunes as f64);
        rounds.add(&metric("ns"), cost.ns as f64);
        rounds.add(
            &metric("prune_rate"),
            ratio(cost.prunes as f64, cost.invocations as f64),
        );
    }
}
