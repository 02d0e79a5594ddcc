//! End-to-end tests for the daemon's batched-execution surface: `MSOLVE`
//! streaming `RESULT` lines, a mid-batch `CANCEL` aborting the whole sweep
//! as one job, and `SHUTDOWN mode=drain` letting a running batch finish.

use kdc::{Solver, SolverConfig};
use kdc_graph::{gen, named, Graph};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

/// A persistent client connection: send one line, read one line.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Client { writer, reader }
    }

    fn send(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        self.writer.flush().expect("flush");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read");
        response.trim_end().to_string()
    }
}

/// Extracts `key=` from an `OK key=value ...` response line.
fn field<'a>(response: &'a str, key: &str) -> &'a str {
    response
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no field {key}= in {response:?}"))
}

fn write_graph(name: &str, g: &Graph) -> PathBuf {
    let path = kdc_graph::io::fresh_temp_dir("service_e2e_batch").join(name);
    kdc_graph::io::write_dimacs(g, &path).unwrap();
    path
}

#[test]
fn msolve_streams_results_before_final_ok() {
    let g = named::figure2();
    let path = write_graph("fig2_msolve.clq", &g);
    // Ground truth: one fresh solver per k, same preset.
    let direct: Vec<usize> = (0..=2)
        .map(|k| Solver::new(&g, k, SolverConfig::kdc()).solve().size())
        .collect();

    let handle = kdc_service::Server::bind("127.0.0.1:0", 2)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();

    let mut client = Client::connect(&addr);
    let resp = client.send(&format!("LOAD {} AS fig2", path.display()));
    assert_eq!(field(&resp, "loaded"), "fig2", "{resp}");

    // Raw line-by-line read: RESULT* then the final OK.
    client.writer.write_all(b"MSOLVE fig2 k=0..2\n").unwrap();
    client.writer.flush().unwrap();
    let mut results: Vec<String> = Vec::new();
    let final_line = loop {
        let mut line = String::new();
        client.reader.read_line(&mut line).unwrap();
        let line = line.trim_end().to_string();
        if line.starts_with("RESULT ") {
            results.push(line);
        } else {
            break line;
        }
    };
    // One RESULT per sub-query, streamed in sweep (ascending-k) order,
    // each matching the fresh individual solve.
    assert_eq!(results.len(), 3, "{results:?}");
    for (k, line) in results.iter().enumerate() {
        assert_eq!(field(line, "idx"), k.to_string(), "{line}");
        assert_eq!(field(line, "k"), k.to_string(), "{line}");
        assert_eq!(field(line, "size"), direct[k].to_string(), "{line}");
        assert_eq!(field(line, "status"), "optimal", "{line}");
    }
    assert_eq!(field(&final_line, "status"), "optimal", "{final_line}");
    assert_eq!(field(&final_line, "subs"), "3", "{final_line}");
    let sizes: Vec<String> = direct.iter().map(usize::to_string).collect();
    assert_eq!(field(&final_line, "sizes"), sizes.join(","), "{final_line}");
    // The shared-work counters are reported on the OK line; on an
    // ascending sweep with k>0 repeats of the k=0 optimum size, at least
    // the seeding counter must have fired.
    assert!(
        field(&final_line, "witness_seeds").parse::<u64>().unwrap() >= 1,
        "{final_line}"
    );
    let _ = field(&final_line, "ctcp_shares");
    let _ = field(&final_line, "memo_dedups");

    // The sweep memoized each k: a follow-up SOLVE answers from the memo
    // without searching, which is how clients retrieve the vertex sets.
    let resp = client.send("SOLVE fig2 k=2");
    assert_eq!(field(&resp, "cached"), "true", "{resp}");
    assert_eq!(field(&resp, "size"), direct[2].to_string(), "{resp}");
    let verts: Vec<u32> = field(&resp, "vertices")
        .split(',')
        .map(|v| v.parse().unwrap())
        .collect();
    assert!(g.is_k_defective_clique(&verts, 2), "{resp}");

    // The one-shot request helper folds RESULT lines into the response.
    let resp = kdc_service::request(&addr, "MSOLVE fig2 k=1..2 r=2").unwrap();
    let lines: Vec<&str> = resp.lines().collect();
    assert_eq!(lines.len(), 3, "{resp}");
    assert!(lines[0].starts_with("RESULT "), "{resp}");
    assert!(lines.last().unwrap().starts_with("OK "), "{resp}");

    // Protocol-edge failures stay single-line ERRs.
    let resp = client.send("MSOLVE fig2 k=0..2 preset=nope");
    assert!(resp.starts_with("ERR "), "{resp}");
    let resp = client.send("MSOLVE nosuch k=0..2");
    assert!(resp.starts_with("ERR "), "{resp}");

    client.send("SHUTDOWN");
    handle.join().expect("clean server exit");
}

/// One `CANCEL <id>` aborts the whole sweep: the batch is a single job,
/// and its final OK reports honest `cancelled` statuses.
#[test]
fn cancel_aborts_whole_batch_as_one_job() {
    let mut rng = gen::seeded_rng(321);
    let hard = gen::gnp(220, 0.5, &mut rng);
    let ph = write_graph("batch_hard.clq", &hard);

    let handle = kdc_service::Server::bind("127.0.0.1:0", 2)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();

    let mut control = Client::connect(&addr);
    let resp = control.send(&format!("LOAD {} AS hard", ph.display()));
    assert_eq!(field(&resp, "loaded"), "hard", "{resp}");

    let reply = std::thread::scope(|scope| {
        let a = addr.clone();
        let sweep = scope.spawn(move || kdc_service::request(&a, "MSOLVE hard k=12..14").unwrap());
        // Poll JOBS until the batch job is running, then cancel it by id.
        let id = loop {
            let jobs = control.send("JOBS");
            let entries = field(&jobs, "jobs");
            if let Some(entry) = entries
                .split(';')
                .find(|e| e.contains(":running:batch(hard,k=12..14"))
            {
                break entry.split(':').next().unwrap().to_string();
            }
            std::thread::yield_now();
        };
        let resp = control.send(&format!("CANCEL {id}"));
        assert_eq!(field(&resp, "cancelled"), id, "{resp}");
        let reply = sweep.join().unwrap();
        // The queue records the whole sweep as one cancelled job.
        let jobs = control.send("JOBS");
        assert!(
            field(&jobs, "jobs").contains(&format!("{id}:cancelled:batch(hard")),
            "{jobs}"
        );
        reply
    });
    let verdict = reply.lines().last().unwrap();
    assert_eq!(field(verdict, "status"), "cancelled", "{reply}");
    assert_eq!(field(verdict, "subs"), "3", "{reply}");

    control.send("SHUTDOWN");
    handle.join().expect("clean server exit");
}

/// `SHUTDOWN mode=drain` lets a running batch finish its whole sweep (here
/// bounded by per-sub-query node budgets) instead of cutting it off.
#[test]
fn drain_shutdown_lets_running_batch_finish() {
    let mut rng = gen::seeded_rng(654);
    let hard = gen::gnp(220, 0.5, &mut rng);
    let ph = write_graph("batch_drain.clq", &hard);
    let handle = kdc_service::Server::bind("127.0.0.1:0", 1)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();

    let mut control = Client::connect(&addr);
    let resp = control.send(&format!("LOAD {} AS hard", ph.display()));
    assert_eq!(field(&resp, "loaded"), "hard", "{resp}");

    let reply = std::thread::scope(|scope| {
        let a = addr.clone();
        let sweep = scope
            .spawn(move || kdc_service::request(&a, "MSOLVE hard k=12..13 nodes=20000").unwrap());
        loop {
            let jobs = control.send("JOBS");
            if field(&jobs, "jobs").contains(":running:batch(hard") {
                break;
            }
            std::thread::yield_now();
        }
        let resp = control.send("SHUTDOWN mode=drain");
        assert_eq!(resp, "OK shutdown=ok mode=drain");
        sweep.join().unwrap()
    });
    // Every sub-query ran to its node budget — none were cancelled by the
    // shutdown — and the RESULT stream completed before the final line.
    let verdict = reply.lines().last().unwrap();
    assert_eq!(field(verdict, "status"), "node-limit", "{reply}");
    assert_eq!(field(verdict, "subs"), "2", "{reply}");
    assert_eq!(
        reply.lines().filter(|l| l.starts_with("RESULT ")).count(),
        2,
        "{reply}"
    );
    handle.join().expect("clean server exit");
}

/// Every proof an `MSOLVE` sweep makes is journaled before its reply, so
/// it survives a restart: the restarted daemon answers each swept `k` from
/// the recovered memo (`cached=true`), byte-equal to a direct solve.
#[test]
fn msolve_proofs_survive_a_restart() {
    let g = named::figure2();
    let path = write_graph("fig2_restart.clq", &g);
    let state_dir = kdc_graph::io::fresh_temp_dir("service_e2e_batch_state");
    let direct: Vec<String> = (0..=2)
        .map(|k| {
            let vertices = Solver::new(&g, k, SolverConfig::kdc()).solve().vertices;
            let rendered: Vec<String> = vertices.iter().map(u32::to_string).collect();
            rendered.join(",")
        })
        .collect();
    let load = format!("LOAD {} AS fig2", path.display());

    let handle = kdc_service::Server::bind("127.0.0.1:0", 2)
        .expect("bind ephemeral port")
        .with_state_dir(&state_dir)
        .expect("open state dir")
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();
    assert!(kdc_service::request(&addr, &load)
        .unwrap()
        .starts_with("OK "));
    let reply = kdc_service::request(&addr, "MSOLVE fig2 k=0..2").unwrap();
    let verdict = reply.lines().last().unwrap();
    assert_eq!(field(verdict, "status"), "optimal", "{reply}");
    // The reply means the proofs are on disk already: a copy of the state
    // directory taken now, before any shutdown compaction, recovers a memo
    // row for every swept k.
    let copy = kdc_graph::io::fresh_temp_dir("service_e2e_batch_copy");
    for file in std::fs::read_dir(&state_dir).unwrap() {
        let file = file.unwrap();
        std::fs::copy(file.path(), copy.join(file.file_name())).unwrap();
    }
    let (_, recovered) = kdc_store::Store::open(&copy).unwrap();
    let memo_ks: Vec<u64> = recovered
        .iter()
        .filter(|gs| gs.name == "fig2")
        .flat_map(|gs| gs.memos.iter())
        .filter(|m| m.preset == "kdc")
        .map(|m| m.k)
        .collect();
    assert_eq!(memo_ks, vec![0, 1, 2], "journaled memo rows");
    let resp = kdc_service::request(&addr, "SHUTDOWN mode=drain").unwrap();
    assert_eq!(resp, "OK shutdown=ok mode=drain");
    handle.join().expect("clean server exit");

    let handle = kdc_service::Server::bind("127.0.0.1:0", 2)
        .expect("bind ephemeral port")
        .with_state_dir(&state_dir)
        .expect("reopen state dir")
        .spawn()
        .expect("spawn accept loop");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr);
    let stats = client.send("STATS");
    assert_eq!(field(&stats, "recovered_graphs"), "1", "{stats}");
    for (k, vertices) in direct.iter().enumerate() {
        let resp = client.send(&format!("SOLVE fig2 k={k}"));
        assert_eq!(field(&resp, "status"), "optimal", "{resp}");
        assert_eq!(field(&resp, "cached"), "true", "{resp}");
        assert_eq!(field(&resp, "vertices"), vertices, "k={k}: {resp}");
    }
    client.send("SHUTDOWN");
    handle.join().expect("clean server exit");
}
