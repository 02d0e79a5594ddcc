//! Rule-contribution ablation: how much work does each reduction rule and
//! bound actually do inside kDC's search? (Complements the solved-count
//! ablations of Figures 7/8 with per-rule activity counts.)
//!
//! For each collection and k, aggregates over the solved instances:
//! RR1/RR2/RR3/RR4/RR5 applications per search node and the share of nodes
//! pruned by bounds (UB1-attributed separately).
//!
//! Usage: `rule_stats [--quick] [--limit <seconds>] [--k <K>]`.

use kdc::{Solver, SolverConfig};
use kdc_bench::collections::{all_collections, Scale};
use kdc_bench::runner::{default_threads, limit_from_args, map_instances};
use kdc_bench::table;

fn main() {
    let scale = Scale::from_args();
    let limit = limit_from_args(3.0);
    let threads = default_threads();
    let ks: Vec<usize> = match std::env::args().position(|a| a == "--k") {
        Some(i) => vec![std::env::args()
            .nth(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--k needs an integer")],
        None => vec![1, 5, 15],
    };

    println!(
        "Rule/bound activity inside kDC (per search node, solved instances only; limit {:.1}s)\n",
        limit.as_secs_f64()
    );
    for collection in all_collections(scale) {
        eprintln!("[rule_stats] {} …", collection.name);
        let mut rows = vec![vec![
            collection.name.to_string(),
            "nodes".into(),
            "rr1/node".into(),
            "rr2/node".into(),
            "rr3/node".into(),
            "rr4/node".into(),
            "rr5/node".into(),
            "bound-pruned".into(),
            "ub1-share".into(),
        ]];
        for &k in &ks {
            let stats = map_instances(&collection, threads, |inst| {
                let cfg = SolverConfig::kdc().with_time_limit(limit);
                let sol = Solver::new(&inst.graph, k, cfg).solve();
                sol.is_optimal().then_some(sol.stats)
            });
            let solved: Vec<_> = stats.into_iter().flatten().collect();
            let nodes: u64 = solved.iter().map(|s| s.nodes).sum::<u64>().max(1);
            let per = |f: fn(&kdc::SearchStats) -> u64| {
                solved.iter().map(f).sum::<u64>() as f64 / nodes as f64
            };
            let prunes: u64 = solved.iter().map(|s| s.bound_prunes).sum();
            let ub1: u64 = solved.iter().map(|s| s.ub1_prunes).sum();
            rows.push(vec![
                format!("k = {k} ({} solved)", solved.len()),
                nodes.to_string(),
                format!("{:.2}", per(|s| s.rr1_removals)),
                format!("{:.2}", per(|s| s.rr2_additions)),
                format!("{:.2}", per(|s| s.rr3_removals)),
                format!("{:.2}", per(|s| s.rr4_removals)),
                format!("{:.2}", per(|s| s.rr5_removals)),
                format!("{:.1}%", 100.0 * prunes as f64 / nodes as f64),
                if prunes > 0 {
                    format!("{:.1}%", 100.0 * ub1 as f64 / prunes as f64)
                } else {
                    "-".into()
                },
            ]);
        }
        println!("{}", table::render(&rows));
    }
}
