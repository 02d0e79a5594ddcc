//! Self-tests of the benchmark's own machinery: order statistics, the
//! `METRICS` delta parser, span self times, argument parsing, seed
//! determinism of inputs and request sequences, CPU lists, and agreement
//! between the metric catalogue and `BENCHMARK.json`.

use kdc_perfbench::inputs::{self, SplitMix};
use kdc_perfbench::serve::{Kind, Planner};
use kdc_perfbench::spans::{self_times, Span};
use kdc_perfbench::{cli, pin, promtext, report, stats};
use std::path::{Path, PathBuf};

fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn percentile_interpolates_between_ranks() {
    assert_eq!(stats::percentile(&[], 0.5), 0.0);
    assert_eq!(stats::percentile(&[7.0], 0.9), 7.0);
    assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(stats::median(&[5.0, 1.0, 3.0]), 3.0);
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((stats::percentile(&ten, 0.9) - 9.1).abs() < 1e-12);
    assert_eq!(stats::percentile(&ten, 0.0), 1.0);
    assert_eq!(stats::percentile(&ten, 1.0), 10.0);
    assert_eq!(stats::ratio(1.0, 0.0), 0.0);
}

const BEFORE: &str = "METRIC # TYPE kdc_service_queue_wait_ns histogram
METRIC kdc_service_queue_wait_ns_bucket{le=\"1024\"} 3
METRIC kdc_service_queue_wait_ns_bucket{le=\"+Inf\"} 4
METRIC kdc_service_queue_wait_ns_sum 4000
METRIC kdc_service_queue_wait_ns_count 4
METRIC # TYPE kdc_core_bound_ns_total counter
METRIC kdc_core_bound_ns_total{bound=\"ub1\"} 100
METRIC kdc_session_result_hits_total 2
OK series=6";

const AFTER: &str = "METRIC # TYPE kdc_service_queue_wait_ns histogram
METRIC kdc_service_queue_wait_ns_sum 10000
METRIC kdc_service_queue_wait_ns_count 6
METRIC kdc_core_bound_ns_total{bound=\"ub1\"} 350
METRIC kdc_core_bound_ns_total{bound=\"ub3\"} 40
METRIC kdc_session_result_hits_total 12
METRIC kdc_store_journal_appends_total 9
OK series=6";

#[test]
fn metrics_delta_parser() {
    let before = promtext::parse(BEFORE);
    assert_eq!(before.len(), 6, "headers and the OK line are skipped");
    assert_eq!(
        promtext::get(&before, "kdc_service_queue_wait_ns_bucket{le=\"+Inf\"}"),
        4.0
    );
    let d = promtext::delta(&before, &promtext::parse(AFTER));
    assert_eq!(
        promtext::get(&d, "kdc_core_bound_ns_total{bound=\"ub1\"}"),
        250.0
    );
    assert_eq!(
        promtext::get(&d, "kdc_core_bound_ns_total{bound=\"ub3\"}"),
        40.0,
        "new series count from 0"
    );
    assert_eq!(promtext::get(&d, "kdc_session_result_hits_total"), 10.0);
    assert_eq!(promtext::get(&d, "kdc_store_journal_appends_total"), 9.0);
    assert_eq!(promtext::get(&d, "absent"), 0.0);
    // (10000 - 4000) / (6 - 4)
    assert_eq!(promtext::hist_mean(&d, "kdc_service_queue_wait_ns"), 3000.0);
    assert_eq!(promtext::hist_mean(&d, "kdc_service_job_duration_ns"), 0.0);
    // Plain exposition text (no METRIC prefix) parses the same way.
    assert_eq!(promtext::parse("a_total 5\n# TYPE x counter\n").len(), 1);
}

#[test]
fn self_time_subtracts_children_once() {
    let span = |name, start_ns, end_ns, parent| Span {
        name,
        start_ns,
        end_ns,
        parent,
    };
    // Recording offset 10: parents refer to absolute ids.
    let spans = [
        span("root", 0, 100, None),
        span("a", 10, 30, Some(10)),
        span("b", 20, 50, Some(10)), // overlaps a: 10..50 is covered once
        span("c", 60, 70, Some(10)),
        span("c.child", 62, 66, Some(13)),
    ];
    assert_eq!(self_times(&spans, 10), vec![50, 20, 30, 6, 4]);
}

#[test]
fn cpu_lists_parse_in_order() {
    assert_eq!(pin::parse_cpu_list("0-1\n"), Ok(vec![0, 1]));
    assert_eq!(pin::parse_cpu_list(" 3"), Ok(vec![3]));
    assert_eq!(pin::parse_cpu_list("0,2-4,7"), Ok(vec![0, 2, 3, 4, 7]));
    assert!(pin::parse_cpu_list("0-x").is_err());
}

#[test]
fn cli_parses_the_benchmark_arguments() {
    let args: Vec<String> = "--workload serve-mixed --seed 7 --seconds 3 --trace 1"
        .split(' ')
        .map(String::from)
        .collect();
    let parsed = cli::parse(&args).unwrap();
    assert_eq!(parsed.workload, "serve-mixed");
    assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 3, true));
    let bad = |s: &str| cli::parse(&s.split(' ').map(String::from).collect::<Vec<_>>());
    assert!(bad("--workload nope").is_err());
    assert!(bad("--workload sparse-large --trace 2").is_err());
    assert!(bad("--seed 1").is_err(), "workload is required");
    assert!(bad("--workload sparse-large --seed").is_err());
}

fn hashes(inputs: &[inputs::GraphInput], dir: &Path) -> Vec<u64> {
    inputs::write_all(inputs, dir)
        .unwrap()
        .iter()
        .map(|path| inputs::file_hash(path).unwrap())
        .collect()
}

#[test]
fn same_seed_same_graphs() {
    let dir = scratch("graphs");
    let a = hashes(&inputs::sparse(11), &dir.join("a"));
    let b = hashes(&inputs::sparse(11), &dir.join("b"));
    let c = hashes(&inputs::sparse(12), &dir.join("c"));
    assert_eq!(a, b, "same seed, same sparse graph");
    assert_ne!(a, c, "the seed drives the sparse graph");
    assert_eq!(
        hashes(&inputs::planted(), &dir.join("p1")),
        hashes(&inputs::planted(), &dir.join("p2"))
    );
    assert_eq!(
        hashes(&inputs::serve_pool(), &dir.join("s1")),
        hashes(&inputs::serve_pool(), &dir.join("s2"))
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

fn sequence(seed: u64, client: usize) -> Vec<String> {
    let paths: Vec<PathBuf> = (0..inputs::SERVE_POOL)
        .map(|i| PathBuf::from(format!("pool-{i}.clq")))
        .collect();
    let mut planner = Planner::new(seed, client);
    (0..30)
        .flat_map(|_| planner.next_episode(&paths).2)
        .map(|step| step.command)
        .collect()
}

#[test]
fn same_seed_same_request_sequence() {
    assert_eq!(sequence(5, 0), sequence(5, 0));
    assert_ne!(sequence(5, 0), sequence(6, 0), "the seed drives the order");
    assert_ne!(
        sequence(5, 0),
        sequence(5, 1),
        "clients get their own orders"
    );
    let mut rng = SplitMix::new(3);
    let mut again = SplitMix::new(3);
    assert!((0..100).all(|_| rng.next_u64() == again.next_u64()));
}

#[test]
fn every_cycle_serves_every_graph_and_cold_k() {
    let paths: Vec<PathBuf> = (0..inputs::SERVE_POOL)
        .map(|i| PathBuf::from(format!("pool-{i}.clq")))
        .collect();
    let mut planner = Planner::new(9, 0);
    let per_cycle = inputs::SERVE_POOL * inputs::SERVE_COLD_KS.len();
    for _ in 0..2 {
        let mut seen: Vec<(usize, usize)> = (0..per_cycle)
            .map(|_| {
                let (g, k, steps) = planner.next_episode(&paths);
                assert_eq!(steps.iter().filter(|s| s.kind == Kind::Cold).count(), 1);
                assert_eq!(steps.last().map(|s| s.kind), Some(Kind::Unload));
                (g, k)
            })
            .collect();
        assert!(planner.at_cycle_start());
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), per_cycle);
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let names = text.matches("\"name\":").count();
    assert_eq!(
        names,
        cli::WORKLOADS.len() + report::END_TO_END.len() + report::PER_LAYER.len(),
        "every workload and metric is listed once"
    );
    for name in cli::WORKLOADS {
        assert!(text.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }
    for (name, unit) in report::END_TO_END.iter().chain(report::PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "{entry}");
    }
}
