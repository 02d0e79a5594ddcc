//! The `serve-mixed` workload: one closed-loop client, with one connection
//! at a time, calling `kdc_service::server::request` against an in-process
//! daemon on `127.0.0.1:0` with [`WORKERS`] workers and a fresh state
//! directory. One client: the benchmark host has two cores, and a second
//! client's cold solve on the other worker made each request's latency
//! depend on the scheduler more than on the daemon.
//!
//! The client runs episodes over the fixed graph pool, in an order drawn
//! from the seed. One episode is:
//!
//! 1. `LOAD <file> AS <fresh name>`;
//! 2. a cold `SOLVE k=K` (first request for this graph, k and preset: it
//!    searches and journals the result to the store);
//! 3. [`WARM_REPEATS`] warm `SOLVE k=K` repeats (answered `cached=true`)
//!    with one inline `STATS <name>` at a seeded position;
//! 4. `MSOLVE k=0..4`;
//! 5. one `SOLVE k=j` per `j = 0..=4`, in seeded order (memo answers of
//!    the sweep);
//! 6. `UNLOAD <name>`, so the cache and snapshots stay small.
//!
//! Every reply is checked against the direct-`Solver` reference of set-up
//! and against the episode's first cold answer (byte for byte).

use crate::inputs::{self, GraphInput, SplitMix, SERVE_COLD_KS, SERVE_K_MAX};
use crate::promtext::{self, Samples};
use crate::report::{Report, Tally};
use crate::solve::check_witness;
use crate::spans::{Recorder, Span};
use crate::stats::{percentile, ratio};
use kdc::{bound, Solver, Status};
use kdc_api::Options;
use kdc_graph::VertexId;
use kdc_service::{request, Server, ServerHandle};
use std::collections::HashMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Warm repeats of the cold query per episode. The first few after a cold
/// solve run on caches the solve evicted and take about twice as long as
/// the rest; 30 make most `warm_us` samples the settled memo path, while
/// every episode still shows the refill.
pub const WARM_REPEATS: usize = 30;

/// The pool on disk with its reference answers.
pub struct Pool {
    /// The generated graphs.
    pub inputs: Vec<GraphInput>,
    /// Their files.
    pub paths: Vec<PathBuf>,
    /// `(size, nodes)` of the direct-`Solver` answer, per graph and k.
    pub reference: Vec<Vec<(usize, u64)>>,
}

/// A running daemon that has `LOAD`ed the pool.
pub struct Daemon {
    /// Its address.
    pub addr: String,
    /// Its state directory.
    pub state_dir: PathBuf,
    handle: ServerHandle,
}

/// Untimed preparation: generates the pool, writes it under `dir` and
/// computes the direct-`Solver` references for every k in `0..=4`.
pub fn pool(dir: &Path, tally: &Tally) -> Result<Pool, String> {
    let inputs = inputs::serve_pool();
    let paths = inputs::write_all(&inputs, dir)?;
    let config = Options::default().resolve()?;
    let mut reference = Vec::new();
    for input in &inputs {
        let per_k = (0..=SERVE_K_MAX)
            .map(|k| {
                let s = Solver::new(&input.graph, k, config.clone()).solve();
                tally.check(check_witness(
                    &input.graph,
                    k,
                    &s.vertices,
                    s.size(),
                    s.status,
                ));
                (s.size(), s.stats.nodes)
            })
            .collect();
        reference.push(per_k);
    }
    Ok(Pool {
        inputs,
        paths,
        reference,
    })
}

/// Set-up, the part `setup_s` times: binds a daemon on port 0 with
/// `state_dir`, starts it and `LOAD`s every pool file once.
pub fn start(pool: &Pool, state_dir: &Path, tally: &Tally) -> Result<Daemon, String> {
    let server = Server::bind("127.0.0.1:0", WORKERS)
        .map_err(|e| format!("bind: {e}"))?
        .with_state_dir(state_dir)?;
    let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    let addr = handle.addr().to_string();
    for (input, path) in pool.inputs.iter().zip(&pool.paths) {
        let reply = request(&addr, &load_command(path, &input.name));
        tally.check(check_load(reply.map_err(|e| e.to_string()), input));
    }
    Ok(Daemon {
        addr,
        state_dir: state_dir.to_path_buf(),
        handle,
    })
}

impl Daemon {
    /// Drains and stops the daemon, waiting for its threads.
    pub fn shutdown(self) -> Result<(), String> {
        let reply = request(&self.addr, "SHUTDOWN mode=drain").map_err(|e| e.to_string())?;
        fields(&reply)?;
        self.handle.join().map_err(|e| format!("server exit: {e}"))
    }
}

fn load_command(path: &Path, name: &str) -> String {
    format!("LOAD {} AS {name}", path.display())
}

/// The `key=value` fields of a reply's final line, which must be `OK`.
pub fn fields(reply: &str) -> Result<HashMap<&str, &str>, String> {
    let last = reply.lines().last().unwrap_or_default();
    let rest = last
        .strip_prefix("OK")
        .ok_or_else(|| format!("not OK: {last}"))?;
    Ok(rest
        .split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .collect())
}

fn field<'a>(f: &HashMap<&str, &'a str>, key: &str) -> Result<&'a str, String> {
    f.get(key)
        .copied()
        .ok_or_else(|| format!("reply lacks {key}="))
}

fn check_load(reply: Result<String, String>, input: &GraphInput) -> Result<(), String> {
    let reply = reply?;
    let f = fields(&reply)?;
    let expect = [
        ("loaded", input.name.clone()),
        ("n", input.graph.n().to_string()),
        ("m", input.graph.m().to_string()),
    ];
    for (key, want) in expect {
        if field(&f, key)? != want {
            return Err(format!("LOAD reply {reply:?}: {key} != {want}"));
        }
    }
    Ok(())
}

/// Request classes, timed separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `LOAD` of a fresh name.
    Load,
    /// First `SOLVE` of a (graph, k, preset).
    Cold,
    /// A `SOLVE` the memo answers.
    Warm,
    /// Inline `STATS <name>`.
    Stats,
    /// `MSOLVE k=0..4`.
    MSolve,
    /// `UNLOAD`.
    Unload,
}

impl Kind {
    fn span_name(self) -> &'static str {
        match self {
            Kind::Load => "request.load",
            Kind::Cold => "request.solve_cold",
            Kind::Warm => "request.solve_warm",
            Kind::Stats => "request.stats",
            Kind::MSolve => "request.msolve",
            Kind::Unload => "request.unload",
        }
    }
}

/// One planned request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    /// Its class.
    pub kind: Kind,
    /// The command line sent.
    pub command: String,
    /// The k it asks for (`None` for non-solve verbs and the sweep).
    pub k: Option<usize>,
}

/// The request sequence of one episode of client `client` on pool graph
/// `graph` with cold k `cold_k`, drawn from `rng`.
fn episode(
    rng: &mut SplitMix,
    client: usize,
    number: usize,
    graph: usize,
    cold_k: usize,
    path: &Path,
) -> Vec<Step> {
    let name = format!("c{client}-e{number}-g{graph}");
    let step = |kind, command: String, k| Step { kind, command, k };
    let mut steps = vec![
        step(Kind::Load, load_command(path, &name), None),
        step(Kind::Cold, format!("SOLVE {name} k={cold_k}"), Some(cold_k)),
    ];
    let mut warm: Vec<Step> = (0..WARM_REPEATS)
        .map(|_| step(Kind::Warm, format!("SOLVE {name} k={cold_k}"), Some(cold_k)))
        .collect();
    warm.push(step(Kind::Stats, format!("STATS {name}"), None));
    rng.shuffle(&mut warm);
    steps.extend(warm);
    steps.push(step(
        Kind::MSolve,
        format!("MSOLVE {name} k=0..{SERVE_K_MAX}"),
        None,
    ));
    let mut ks: Vec<usize> = (0..=SERVE_K_MAX).collect();
    rng.shuffle(&mut ks);
    steps.extend(
        ks.into_iter()
            .map(|k| step(Kind::Warm, format!("SOLVE {name} k={k}"), Some(k))),
    );
    steps.push(step(Kind::Unload, format!("UNLOAD {name}"), None));
    steps
}

/// The episode plan of one client: pool graph and cold k per episode, each
/// cycle a fresh seeded shuffle of every (graph, k) pair.
pub struct Planner {
    rng: SplitMix,
    client: usize,
    cycle: Vec<(usize, usize)>,
    next: usize,
    number: usize,
}

impl Planner {
    /// The plan of client `client` under workload seed `seed`.
    pub fn new(seed: u64, client: usize) -> Self {
        Planner {
            rng: SplitMix::new(seed ^ (0xC11E_4700 + client as u64)),
            client,
            cycle: Vec::new(),
            next: 0,
            number: 0,
        }
    }

    /// Whether the next episode starts a new cycle: runs stop only there,
    /// so every run serves whole cycles of the same request mix.
    pub fn at_cycle_start(&self) -> bool {
        self.next == self.cycle.len()
    }

    /// The next episode's `(graph, cold k, steps)`.
    pub fn next_episode(&mut self, paths: &[PathBuf]) -> (usize, usize, Vec<Step>) {
        if self.next == self.cycle.len() {
            self.cycle = (0..paths.len())
                .flat_map(|g| SERVE_COLD_KS.iter().map(move |&k| (g, k)))
                .collect();
            self.rng.shuffle(&mut self.cycle);
            self.next = 0;
        }
        let (g, k) = self.cycle[self.next];
        self.next += 1;
        let steps = episode(&mut self.rng, self.client, self.number, g, k, &paths[g]);
        self.number += 1;
        (g, k, steps)
    }
}

/// What one client measured.
#[derive(Default)]
struct ClientLog {
    latencies: Vec<(Kind, f64, bool)>,
    /// Mean cold `SOLVE` latency (ms) of each whole cycle.
    cycle_cold_ms: Vec<f64>,
    requests: usize,
    /// From the loop's start to the last reply.
    elapsed_s: f64,
    sweep_nodes_over_cold: Vec<f64>,
    connect_us: Vec<f64>,
    spans: Vec<Span>,
}

/// Checks one reply against the reference and the episode's cold answer.
struct Checker<'a> {
    pool: &'a Pool,
    graph: usize,
    cold_k: usize,
    cold_answer: Option<String>,
}

impl Checker<'_> {
    fn check(&mut self, step: &Step, reply: &str, log: &mut ClientLog) -> Result<(), String> {
        let input = &self.pool.inputs[self.graph];
        let refs = &self.pool.reference[self.graph];
        let f = fields(reply)?;
        match step.kind {
            Kind::Load => {
                let loaded = field(&f, "loaded")?;
                if field(&f, "n")? != input.graph.n().to_string()
                    || field(&f, "m")? != input.graph.m().to_string()
                    || !step.command.ends_with(&format!(" AS {loaded}"))
                {
                    return Err(format!("LOAD reply {reply:?}"));
                }
            }
            Kind::Cold | Kind::Warm => {
                let k = step.k.unwrap_or_default();
                let cached = field(&f, "cached")? == "true";
                if cached != (step.kind == Kind::Warm) {
                    return Err(format!("{} answered cached={cached}", step.command));
                }
                let status = match field(&f, "status")? {
                    "optimal" => Status::Optimal,
                    other => return Err(format!("{} answered status={other}", step.command)),
                };
                let vertices: Vec<VertexId> = field(&f, "vertices")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().map_err(|_| format!("bad vertex {s:?}")))
                    .collect::<Result<_, _>>()?;
                if field(&f, "size")? != vertices.len().to_string() {
                    return Err(format!("size field disagrees with vertices: {reply:?}"));
                }
                check_witness(&input.graph, k, &vertices, refs[k].0, status)?;
                if k == self.cold_k {
                    let answer = format!(
                        "status={} size={} vertices={}",
                        field(&f, "status")?,
                        field(&f, "size")?,
                        field(&f, "vertices")?
                    );
                    match &self.cold_answer {
                        None => self.cold_answer = Some(answer),
                        Some(first) if *first != answer => {
                            return Err(format!("{answer:?} differs from cold {first:?}"))
                        }
                        Some(_) => {}
                    }
                }
            }
            Kind::Stats => {
                if field(&f, "n")? != input.graph.n().to_string()
                    || field(&f, "m")? != input.graph.m().to_string()
                {
                    return Err(format!("STATS reply {reply:?}"));
                }
            }
            Kind::MSolve => {
                let mut seen = [false; SERVE_K_MAX + 1];
                for line in reply.lines().filter(|l| l.starts_with("RESULT ")) {
                    let r: HashMap<&str, &str> = line
                        .split_whitespace()
                        .filter_map(|t| t.split_once('='))
                        .collect();
                    let k: usize = field(&r, "k")?.parse().map_err(|_| "bad k".to_string())?;
                    if k > SERVE_K_MAX || seen[k] {
                        return Err(format!("unexpected RESULT {line:?}"));
                    }
                    seen[k] = true;
                    if field(&r, "size")? != refs[k].0.to_string()
                        || field(&r, "status")? != "optimal"
                    {
                        return Err(format!("RESULT {line:?} != reference {}", refs[k].0));
                    }
                }
                let sizes: Vec<String> = refs.iter().map(|r| r.0.to_string()).collect();
                if seen.contains(&false)
                    || field(&f, "status")? != "optimal"
                    || field(&f, "sizes")? != sizes.join(",")
                {
                    return Err(format!("MSOLVE reply {reply:?}"));
                }
                let nodes: f64 = field(&f, "nodes")?.parse().unwrap_or(0.0);
                let cold: u64 = refs.iter().map(|r| r.1).sum();
                log.sweep_nodes_over_cold.push(ratio(nodes, cold as f64));
            }
            Kind::Unload => {
                if !step.command.ends_with(field(&f, "unloaded")?) {
                    return Err(format!("UNLOAD reply {reply:?}"));
                }
            }
        }
        Ok(())
    }
}

/// One client's closed loop: whole cycles until `deadline` has passed.
fn client(
    id: usize,
    seed: u64,
    pool: &Pool,
    daemon: &Daemon,
    deadline: Instant,
    trace_epoch: Option<Instant>,
    tally: &Tally,
) -> ClientLog {
    let start = Instant::now();
    let mut log = ClientLog::default();
    let mut planner = Planner::new(seed, id);
    let epoch = trace_epoch.unwrap_or(start);
    let at = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let mut cold_ms = Vec::new();
    while !(planner.at_cycle_start() && planner.number > 0 && Instant::now() >= deadline) {
        let (graph, cold_k, steps) = planner.next_episode(&pool.paths);
        // In a traced run every other episode is traced, so tracing
        // overhead can be read off the untraced episodes beside it.
        let trace_this = trace_epoch.is_some() && planner.number.is_multiple_of(2);
        let episode_span = log.spans.len();
        if trace_this {
            log.spans.push(Span {
                name: "episode",
                start_ns: at(Instant::now()),
                end_ns: 0,
                parent: None,
            });
        }
        let mut checker = Checker {
            pool,
            graph,
            cold_k,
            cold_answer: None,
        };
        for step in &steps {
            if trace_this {
                let t0 = Instant::now();
                let probe = TcpStream::connect(&daemon.addr);
                log.connect_us.push(t0.elapsed().as_secs_f64() * 1e6);
                drop(probe);
            }
            let t0 = Instant::now();
            let reply = request(&daemon.addr, &step.command);
            let t1 = Instant::now();
            log.requests += 1;
            let us = (t1 - t0).as_secs_f64() * 1e6;
            log.latencies.push((step.kind, us, trace_this));
            if step.kind == Kind::Cold {
                cold_ms.push(us / 1e3);
            }
            if trace_this {
                log.spans.push(Span {
                    name: step.kind.span_name(),
                    start_ns: at(t0),
                    end_ns: at(t1),
                    parent: Some(episode_span),
                });
            }
            let outcome = reply
                .map_err(|e| format!("{}: {e}", step.command))
                .and_then(|r| checker.check(step, &r, &mut log));
            tally.check(outcome);
        }
        if trace_this {
            log.spans[episode_span].end_ns = at(Instant::now());
        }
        if planner.at_cycle_start() {
            let sum: f64 = cold_ms.iter().sum();
            log.cycle_cold_ms.push(sum / cold_ms.len() as f64);
            cold_ms.clear();
        }
    }
    log.elapsed_s = start.elapsed().as_secs_f64();
    log
}

/// Scrapes the daemon's `METRICS`.
fn scrape(addr: &str) -> Result<Samples, String> {
    let reply = request(addr, "METRICS").map_err(|e| format!("METRICS: {e}"))?;
    fields(&reply)?;
    Ok(promtext::parse(&reply))
}

/// Runs the closed loop for `seconds`, stops the daemon and fills `report`;
/// `peak_rss_mb` is the process's peak over the loop.
pub fn measure(
    pool: &Pool,
    daemon: Daemon,
    seed: u64,
    seconds: u64,
    trace: Option<&mut Recorder>,
    tally: &Tally,
    report: &mut Report,
) -> Result<(), String> {
    let before = scrape(&daemon.addr)?;
    let trace_epoch = trace.as_ref().map(|r| r.epoch());
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let log = client(0, seed, pool, &daemon, deadline, trace_epoch, tally);
    report.set("peak_rss_mb", crate::report::peak_rss_mb(), 1);
    let after = scrape(&daemon.addr)?;
    let d = promtext::delta(&before, &after);
    let state_dir = daemon.state_dir.clone();
    daemon.shutdown()?;
    let t0 = Instant::now();
    let reopened = kdc_store::Store::open(&state_dir);
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    tally.check(reopened.map(drop));

    let class = |kind: Kind, traced_only: Option<bool>| -> Vec<f64> {
        log.latencies
            .iter()
            .filter(|(k, _, t)| *k == kind && traced_only.is_none_or(|want| *t == want))
            .map(|&(_, us, _)| us)
            .collect()
    };
    // Like the solve workloads' rounds: a cycle asks every (graph, k) once,
    // so the median of cycle means never straddles graphs of different
    // cost.
    let cycles = &log.cycle_cold_ms;
    let warm = class(Kind::Warm, None);
    report.set("answer_ms.p50", percentile(cycles, 0.5), cycles.len());
    report.set("warm_us.p50", percentile(&warm, 0.5), warm.len());
    report.set("warm_us.p90", percentile(&warm, 0.9), warm.len());
    report.set(
        "throughput_rps",
        ratio(log.requests as f64, log.elapsed_s),
        log.requests,
    );

    let hits = promtext::get(&d, "kdc_session_result_hits_total");
    let solves = promtext::get(&d, "kdc_session_solves_total");
    let appends = promtext::get(&d, "kdc_store_journal_appends_total");
    tally.check(if hits > 0.0 && appends > 0.0 {
        Ok(())
    } else {
        Err(format!(
            "no memo hits ({hits}) or journal appends ({appends})"
        ))
    });

    let Some(rec) = trace else {
        return Ok(());
    };
    let p50 = |kind: Kind| {
        let v = class(kind, None);
        (percentile(&v, 0.5), v.len())
    };
    let (load_us, loads) = p50(Kind::Load);
    report.set("serve.load_ms.p50", load_us / 1e3, loads);
    let (msolve_us, sweeps) = p50(Kind::MSolve);
    report.set("serve.msolve_ms.p50", msolve_us / 1e3, sweeps);
    let (stats_us, stats) = p50(Kind::Stats);
    report.set("serve.stats_us.p50", stats_us, stats);
    report.set(
        "conn.connect_us.p50",
        percentile(&log.connect_us, 0.5),
        log.connect_us.len(),
    );
    report.set(
        "batch.nodes_over_cold",
        percentile(&log.sweep_nodes_over_cold, 0.5),
        log.sweep_nodes_over_cold.len(),
    );

    // Per real solve, like the per-answer figures of the solve workloads.
    let per_solve = solves as usize;
    let nodes = promtext::get(&d, "kdc_session_nodes_total{preset=\"kdc\"}");
    report.set("engine.nodes", ratio(nodes, solves), per_solve);
    for name in bound::NAMES {
        let series = |metric: &str| format!("kdc_core_bound_{metric}_total{{bound=\"{name}\"}}");
        let inv = promtext::get(&d, &series("invocations"));
        let pr = promtext::get(&d, &series("prunes"));
        let ns = promtext::get(&d, &series("ns"));
        let metric = |field: &str| format!("bounds.{name}.{field}");
        report.set(&metric("invocations"), ratio(inv, solves), per_solve);
        report.set(&metric("prunes"), ratio(pr, solves), per_solve);
        report.set(&metric("ns"), ratio(ns, solves), per_solve);
        report.set(&metric("prune_rate"), ratio(pr, inv), per_solve);
    }
    report.set(
        "session.memo_hit_rate",
        ratio(hits, hits + solves),
        (hits + solves) as usize,
    );
    for (metric, series) in [
        ("session.ctcp_resumes", "kdc_session_ctcp_resumes_total"),
        ("batch.ctcp_shares", "kdc_session_batch_ctcp_shares_total"),
        (
            "batch.witness_seeds",
            "kdc_session_batch_witness_seeds_total",
        ),
        ("jobs.count", "kdc_service_jobs_total"),
        ("store.journal_appends", "kdc_store_journal_appends_total"),
        ("store.snapshot_writes", "kdc_store_snapshot_writes_total"),
    ] {
        report.set(metric, promtext::get(&d, series), 1);
    }
    let jobs = promtext::get(&d, "kdc_service_jobs_total") as usize;
    let queue_wait_ns = promtext::hist_mean(&d, "kdc_service_queue_wait_ns");
    report.set("jobs.queue_wait_us.mean", queue_wait_ns / 1e3, jobs);
    let job_ns = promtext::hist_mean(&d, "kdc_service_job_duration_ns");
    report.set("jobs.job_ms.mean", job_ns / 1e6, jobs);
    report.set("store.open_ms", open_ms, 1);

    let warm_traced = percentile(&class(Kind::Warm, Some(true)), 0.5);
    let warm_plain = percentile(&class(Kind::Warm, Some(false)), 0.5);
    let overhead = ratio(warm_traced - warm_plain, warm_plain);
    report.set("trace.overhead_pct", 100.0 * overhead, warm.len());
    // Share of the client's job-carrying request time (SOLVE and MSOLVE)
    // that the daemon's queue wait plus job execution account for; the
    // rest is connection, protocol, admission and store work.
    let client_us: f64 = [Kind::Cold, Kind::Warm, Kind::MSolve]
        .into_iter()
        .flat_map(|k| class(k, None))
        .sum();
    let server_ns = promtext::get(&d, "kdc_service_queue_wait_ns_sum")
        + promtext::get(&d, "kdc_service_job_duration_ns_sum");
    report.set(
        "trace.accounted_pct",
        100.0 * ratio(server_ns / 1e3, client_us),
        jobs,
    );
    let offset = rec.spans().len();
    for mut span in log.spans {
        span.parent = span.parent.map(|p| p + offset);
        rec.push(span);
    }
    Ok(())
}
