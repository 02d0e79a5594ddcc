//! Chaos soak for the hardened daemon lifecycle: one server with every
//! fault point armed at low probability is hammered by concurrent clients,
//! then must come back clean — no deadlocks, no leaked `JOBS` rows, typed
//! replies (or clean disconnects) throughout, and a post-chaos solve that
//! matches the direct [`kdc::Solver`] answer on the same input.
//!
//! The fault plan is process-global (`kdc_faults` is a set of static
//! atomics), so these tests live in their own integration binary and are
//! serialized through [`FAULT_SCOPE`]: nothing else in this process races
//! an armed plan.

use kdc::{Solver, SolverConfig};
use kdc_graph::gen;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes tests that arm the process-global fault plan.
static FAULT_SCOPE: Mutex<()> = Mutex::new(());

fn write_graph(name: &str, g: &kdc_graph::Graph) -> PathBuf {
    let path = kdc_graph::io::fresh_temp_dir("service_chaos").join(name);
    kdc_graph::io::write_dimacs(g, &path).unwrap();
    path
}

/// Extracts `key=` from an `OK key=value ...` response line.
fn field<'a>(response: &'a str, key: &str) -> &'a str {
    response
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no field {key}= in {response:?}"))
}

/// One chaos exchange: connect, send `line`, read every reply line until
/// the stream ends or a final (non-`EVENT`/`METRIC`) line arrives. Under an
/// armed fault plan every leg may fail; the caller only learns whether a
/// final line arrived and what it was.
fn chaos_exchange(addr: &str, line: &str) -> Option<String> {
    let stream = TcpStream::connect(addr).ok()?;
    // A bounded patience so an injected delay never wedges the soak.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut writer = stream.try_clone().ok()?;
    let mut reader = BufReader::new(stream);
    writer.write_all(format!("{line}\n").as_bytes()).ok()?;
    writer.flush().ok()?;
    loop {
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(0) | Err(_) => return None, // torn reply / injected drop
            Ok(_) => {}
        }
        let reply = reply.trim_end();
        if !reply.starts_with("EVENT ") && !reply.starts_with("METRIC ") {
            return Some(reply.to_string());
        }
    }
}

/// The soak proper. Release builds run a longer storm (CI runs this test
/// with `--release`); debug keeps it short enough for `cargo test`.
#[test]
fn chaos_soak_daemon_survives_and_recovers() {
    let _scope = FAULT_SCOPE.lock().unwrap();
    kdc_faults::set_seed(0xC0FFEE);

    let mut rng = gen::seeded_rng(2023);
    let (g, _) = gen::planted_defective_clique(150, 14, 2, 0.08, &mut rng);
    let path = write_graph("soak.clq", &g);
    let direct = Solver::new(&g, 2, SolverConfig::kdc()).solve();

    let handle = kdc_service::Server::bind("127.0.0.1:0", 3)
        .expect("bind ephemeral port")
        .with_limits(0, 32)
        .with_idle_timeout(Duration::from_secs(20))
        .with_watchdog(Duration::from_secs(10))
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();

    // Load before arming: the soak needs the graph resident, and the
    // cache_insert point would make this LOAD itself flaky.
    let loaded = chaos_exchange(&addr, &format!("LOAD {} AS g", path.display()))
        .expect("pre-chaos LOAD must answer");
    assert_eq!(field(&loaded, "loaded"), "g", "{loaded}");

    // Every point armed; connection-level points low enough that most
    // exchanges complete, solver-level ones high enough to actually fire.
    let armed = kdc_faults::install_plan(
        "accept:error:p=0.05,conn_read:error:p=0.05,conn_write:drop:p=0.05,\
         job_start:error:p=0.10,solve_node:error:p=0.05,cache_insert:error:p=0.50,\
         conn_read:delay=1:p=0.05",
    );
    // Duplicate points overwrite, never stack: the plan still arms 7 rules
    // but conn_read ends up delay-armed.
    assert_eq!(armed.expect("valid plan"), 7);

    let iterations = if cfg!(debug_assertions) { 40 } else { 150 };
    let commands = [
        "SOLVE g k=2 nodes=5000",
        "SOLVE g k=2 preset=kdbb nodes=5000 verbose=1",
        "SOLVE g k=1 nodes=2000",
        "COUNT g k=1 min=12",
        "JOBS",
        "STATS",
        &format!("LOAD {} AS spare", path.display()),
    ];
    std::thread::scope(|scope| {
        for client in 0..12usize {
            let addr = addr.clone();
            let commands = &commands;
            scope.spawn(move || {
                for i in 0..iterations {
                    let line = commands[(client + i) % commands.len()];
                    if let Some(reply) = chaos_exchange(&addr, line) {
                        // Completed exchanges are always typed, even when a
                        // fault fired inside the request.
                        assert!(
                            reply.starts_with("OK ") || reply.starts_with("ERR "),
                            "untyped reply under chaos: {reply:?}"
                        );
                    }
                }
            });
        }
    });
    assert!(
        kdc_faults::injected_total() > 0,
        "the storm must have injected something"
    );
    kdc_faults::disarm_all();

    // Recovery: every job drains (no stuck queued/running rows => no
    // waiter leaked, no worker wedged).
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let jobs = chaos_exchange(&addr, "JOBS").expect("post-chaos JOBS must answer");
        let rows = field(&jobs, "jobs");
        if !rows.contains(":queued:") && !rows.contains(":running:") {
            break;
        }
        assert!(Instant::now() < deadline, "jobs leaked after chaos: {jobs}");
        std::thread::sleep(Duration::from_millis(50));
    }

    // The storm is visible on the scrape surface.
    let metrics = kdc_service::request(&addr, "METRICS").expect("metrics scrape");
    let injected: f64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("METRIC kdc_service_faults_injected_total "))
        .expect("faults counter exported")
        .trim()
        .parse()
        .unwrap();
    assert!(injected >= 1.0, "{metrics}");

    // Post-chaos correctness: a fresh solve still matches the direct
    // solver bit for bit (size and a valid witness).
    let resp = chaos_exchange(&addr, "SOLVE g k=2").expect("post-chaos solve must answer");
    assert_eq!(field(&resp, "status"), "optimal", "{resp}");
    assert_eq!(field(&resp, "size"), direct.size().to_string(), "{resp}");
    let verts: Vec<u32> = field(&resp, "vertices")
        .split(',')
        .map(|v| v.parse().unwrap())
        .collect();
    assert!(g.is_k_defective_clique(&verts, 2), "{resp}");

    // And the daemon still shuts down gracefully.
    let resp = chaos_exchange(&addr, "SHUTDOWN mode=drain").expect("shutdown reply");
    assert_eq!(resp, "OK shutdown=ok mode=drain");
    handle.join().expect("clean server exit");
}

/// `request_with_retry` retries a torn reply — the daemon dropping the
/// connection mid-write — but only for the idempotent read verbs
/// (`SOLVE`/`STATS`/`METRICS`); any other verb surfaces the tear to the
/// caller because the first attempt may already have had side effects.
#[test]
fn torn_replies_retry_only_for_idempotent_verbs() {
    let _scope = FAULT_SCOPE.lock().unwrap();
    kdc_faults::disarm_all();
    let handle = kdc_service::Server::bind("127.0.0.1:0", 2)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();

    // Deterministic tear: exactly the next reply write is dropped, so the
    // first attempt comes back torn and the single retry lands clean.
    // (Arming resets the point's fired counter, so sample after arming.)
    kdc_faults::install_plan("conn_write:drop:n=1").expect("valid plan");
    let before = kdc_faults::injected_total();
    let reply = kdc_service::request_with_retry(&addr, "STATS", 2, Duration::from_millis(1))
        .expect("idempotent verb must retry through the torn reply");
    assert!(
        reply.starts_with("OK "),
        "retry must land a full reply: {reply:?}"
    );
    assert_eq!(
        kdc_faults::injected_total() - before,
        1,
        "exactly one torn write injected, then the retry succeeded"
    );

    // The same tear on a non-idempotent verb is surfaced as-is — one
    // injection, no second attempt.
    kdc_faults::install_plan("conn_write:drop:n=1").expect("valid plan");
    let before = kdc_faults::injected_total();
    let reply = kdc_service::request_with_retry(&addr, "JOBS", 2, Duration::from_millis(1))
        .expect("a torn reply is not a transport error");
    assert!(
        !reply
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("OK") || l.starts_with("ERR")),
        "non-idempotent verb must surface the torn reply: {reply:?}"
    );
    assert_eq!(
        kdc_faults::injected_total() - before,
        1,
        "no retry means no second injection"
    );
    kdc_faults::disarm_all();

    let resp = chaos_exchange(&addr, "SHUTDOWN mode=drain").expect("shutdown reply");
    assert_eq!(resp, "OK shutdown=ok mode=drain");
    handle.join().expect("clean server exit");
}

/// The `FAULTS` verb end to end: arm over the wire, watch a fault fire,
/// disarm. Debug builds only — release daemons refuse the verb.
#[test]
fn faults_verb_arms_and_disarms_over_the_wire() {
    let _scope = FAULT_SCOPE.lock().unwrap();
    kdc_faults::disarm_all();
    let handle = kdc_service::Server::bind("127.0.0.1:0", 1)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut send = move |line: &str| -> String {
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    };

    if cfg!(debug_assertions) {
        assert_eq!(send("FAULTS"), "OK faults=off");
        // Deterministic trigger: exactly the next accept faults, i.e. the
        // next fresh connection — this control connection is unaffected.
        let resp = send("FAULTS accept:error:n=1");
        assert_eq!(resp, "OK faults=armed rules=1");
        let faulted = chaos_exchange(&addr, "JOBS").expect("one typed fault line");
        assert_eq!(faulted, "ERR fault injected at accept");
        let status = send("FAULTS");
        assert!(status.contains("accept=error"), "{status}");
        assert!(status.contains("fired=1"), "{status}");
        assert_eq!(send("FAULTS off"), "OK faults=off");
        let ok = chaos_exchange(&addr, "JOBS").expect("clean after disarm");
        assert!(ok.starts_with("OK "), "{ok}");
    } else {
        let resp = send("FAULTS accept:error:n=1");
        assert!(
            resp.starts_with("ERR ") && resp.contains("debug build"),
            "{resp}"
        );
        assert!(!kdc_faults::enabled(), "release daemon must stay disarmed");
    }

    let resp = send("SHUTDOWN");
    assert_eq!(resp, "OK shutdown=ok mode=abort");
    handle.join().expect("clean server exit");
}
