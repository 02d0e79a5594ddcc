//! Kill-recovery soak: SIGKILL the real `kdc serve --state-dir` daemon —
//! after proven solves, mid-solve in a loop, and mid-journal-append under
//! an injected torn write — then restart on the same state directory and
//! assert the durable store recovers: no corrupt state, answers identical
//! to a fresh in-process solver, and witness/memo reuse proven through the
//! session counters (`cached=true`, `recovered_*`), not timings.
//!
//! Everything runs against one state dir in one `#[test]` so the phases
//! stay strictly ordered; each phase spawns its own daemon process on an
//! ephemeral port.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn kdc_bin() -> &'static str {
    env!("CARGO_BIN_EXE_kdc")
}

/// A spawned daemon plus its parsed listen address.
struct DaemonProc {
    child: Child,
    addr: String,
}

impl DaemonProc {
    /// Spawns `kdc serve --addr 127.0.0.1:0 --workers 2 --state-dir <dir>`
    /// (plus `KDC_FAULTS` when given), parses the ephemeral port off the
    /// `listening on ...` stdout line, and leaves a thread draining the
    /// rest of stdout so the child can never block on a full pipe.
    fn spawn(state_dir: &Path, faults: Option<&str>) -> DaemonProc {
        let mut cmd = Command::new(kdc_bin());
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .arg("--state-dir")
            .arg(state_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(plan) = faults {
            cmd.env("KDC_FAULTS", plan);
        }
        let mut child = cmd.spawn().expect("failed to spawn kdc serve");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        reader.read_line(&mut line).expect("daemon banner");
        let addr = line
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
            .to_string();
        std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
        });
        DaemonProc { child, addr }
    }

    fn request(&self, command: &str) -> String {
        kdc_service::request(&self.addr, command)
            .unwrap_or_else(|e| panic!("request {command:?} failed: {e}"))
    }

    /// SIGKILL — the crash under test: no drain, no final compaction.
    fn kill(mut self) {
        self.child.kill().expect("kill daemon");
        self.child.wait().expect("reap daemon");
    }

    /// Clean shutdown via the protocol, then reap.
    fn shutdown(mut self) {
        let _ = kdc_service::request(&self.addr, "SHUTDOWN mode=drain");
        self.child.wait().expect("reap daemon");
    }
}

/// Extracts `key=value` off a reply's final line.
fn field<'a>(reply: &'a str, key: &str) -> &'a str {
    let last = reply.lines().last().unwrap_or("");
    last.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")[..]))
        .unwrap_or_else(|| panic!("no field {key} in reply {last:?}"))
}

/// Value of a metric series in a `METRICS` reply (0 when absent).
fn metric(reply: &str, name: &str) -> u64 {
    reply
        .lines()
        .filter_map(|line| line.strip_prefix("METRIC "))
        .find_map(|line| line.strip_prefix(name))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or(0)
}

#[test]
fn sigkill_daemon_recovers_state_and_reuses_proofs() {
    let dir = kdc_graph::io::fresh_temp_dir("kill_recovery");
    let state_dir = dir.join("state");
    let graph_path = dir.join("planted.clq");
    let (graph, _planted) = kdc_graph::gen::planted_defective_clique(
        60,
        9,
        3,
        0.25,
        &mut kdc_graph::gen::seeded_rng(7),
    );
    kdc_graph::io::write_dimacs(&graph, &graph_path).unwrap();
    let load = format!("LOAD {} AS g", graph_path.display());

    // Phase 1: prove k=2 and k=3 on a fresh daemon, then SIGKILL it. The
    // journal appends happen before the reply line, so both proofs are on
    // disk the moment the replies arrive.
    let daemon = DaemonProc::spawn(&state_dir, None);
    assert!(daemon.request(&load).starts_with("OK "), "load failed");
    let first_k3 = daemon.request("SOLVE g k=3");
    assert_eq!(field(&first_k3, "status"), "optimal");
    assert_eq!(field(&first_k3, "cached"), "false");
    let first_k2 = daemon.request("SOLVE g k=2");
    assert_eq!(field(&first_k2, "status"), "optimal");
    daemon.kill();

    // Phase 2: kill-mid-solve loop. Each round recovers, fires a solve
    // without waiting for it, and SIGKILLs a few milliseconds later — the
    // kill lands wherever it lands (mid-search, mid-append, mid-reply).
    for round in 0..3u64 {
        let daemon = DaemonProc::spawn(&state_dir, None);
        assert!(daemon.request(&load).starts_with("OK "));
        let addr = daemon.addr.clone();
        let solver = std::thread::spawn(move || {
            let _ = kdc_service::request(&addr, &format!("SOLVE g k={}", round + 1));
        });
        std::thread::sleep(Duration::from_millis(5 * (round + 1)));
        daemon.kill();
        let _ = solver.join();
    }

    // Phase 3: recovery is counter-proven, answers match phase 1 exactly,
    // and a torn journal append is survived in-process. The k=4 solve
    // below journals three records — Graph meta, Witness, Memo — and the
    // armed fault cuts the third (the Memo) mid-record, so the torn frame
    // sits at end-of-journal exactly as a mid-append SIGKILL leaves it.
    let daemon = DaemonProc::spawn(&state_dir, Some("store_write:torn:n=3"));
    assert!(daemon.request(&load).starts_with("OK "));
    let stats_g = daemon.request("STATS g");
    let recovered_witnesses: u64 = field(&stats_g, "recovered_witnesses").parse().unwrap();
    let recovered_memos: u64 = field(&stats_g, "recovered_memos").parse().unwrap();
    assert!(
        recovered_witnesses >= 2 && recovered_memos >= 2,
        "k=2 and k=3 proofs must have been rehydrated: {stats_g}"
    );
    let stats_all = daemon.request("STATS");
    assert_eq!(field(&stats_all, "recovered_graphs"), "1", "{stats_all}");
    let metrics = daemon.request("METRICS");
    assert!(
        metric(&metrics, "kdc_store_recoveries_total") >= 1,
        "store must have counted the recovery"
    );

    // The recovered memo answers without a search, identically to phase 1
    // and to a fresh in-process solver on the same file.
    let warm_k3 = daemon.request("SOLVE g k=3");
    assert_eq!(field(&warm_k3, "cached"), "true", "{warm_k3}");
    for key in ["status", "size", "vertices"] {
        assert_eq!(field(&warm_k3, key), field(&first_k3, key), "{key} drifted");
    }
    let fresh = kdc_api::Session::new(graph.clone()).solve(3);
    assert!(fresh.is_optimal());
    assert_eq!(field(&warm_k3, "size"), fresh.size().to_string());

    // k=4 was never proven: this solve runs a real search seeded by the
    // recovered witnesses, and its memo append is the one the armed
    // fault tears mid-record. The daemon must answer normally anyway.
    let k4 = daemon.request("SOLVE g k=4");
    assert_eq!(field(&k4, "status"), "optimal");
    assert_eq!(field(&k4, "cached"), "false");
    daemon.kill();

    // Phase 4: the torn tail is detected, dropped, and counted; everything
    // before it is intact. The k=4 proof died with the torn append, so it
    // must come back cold — while k=3 still answers from the memo.
    let daemon = DaemonProc::spawn(&state_dir, None);
    assert!(daemon.request(&load).starts_with("OK "));
    let metrics = daemon.request("METRICS");
    assert!(
        metric(&metrics, "kdc_store_torn_records_dropped_total") >= 1,
        "torn append must be detected on replay"
    );
    let warm_k3 = daemon.request("SOLVE g k=3");
    assert_eq!(field(&warm_k3, "cached"), "true");
    assert_eq!(field(&warm_k3, "vertices"), field(&first_k3, "vertices"));
    let k4 = daemon.request("SOLVE g k=4");
    assert_eq!(
        field(&k4, "cached"),
        "false",
        "the torn record must not have survived replay"
    );
    daemon.shutdown();

    // After a clean drain shutdown the state dir holds exactly the final
    // snapshot + journal — no tmp-* leftovers from interrupted writes.
    let names: Vec<String> = std::fs::read_dir(&state_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().any(|n| n == "snapshot.kds") && names.iter().any(|n| n == "journal.kdj"),
        "state dir incomplete: {names:?}"
    );
    assert!(
        names.iter().all(|n| !n.starts_with("tmp-")),
        "leaked temp files: {names:?}"
    );

    // And a final restart of the drained state recovers it all again.
    let daemon = DaemonProc::spawn(&state_dir, None);
    assert!(daemon.request(&load).starts_with("OK "));
    let stats_g = daemon.request("STATS g");
    let recovered: u64 = field(&stats_g, "recovered_memos").parse().unwrap();
    assert!(recovered >= 3, "k=2,3,4 must all be durable now: {stats_g}");
    let warm_k4 = daemon.request("SOLVE g k=4");
    assert_eq!(field(&warm_k4, "cached"), "true");
    assert_eq!(field(&warm_k4, "vertices"), field(&k4, "vertices"));
    daemon.shutdown();
}
