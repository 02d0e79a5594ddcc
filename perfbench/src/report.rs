//! Metric catalogue, answer-check tally and the result line.
//!
//! The result line carries every end-to-end metric from an untraced run
//! and every per-layer metric from a traced run, on every workload. A
//! per-layer metric a workload does not exercise reads 0 there; the README
//! maps each metric to the workloads that exercise it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// End-to-end metrics `(name, unit)`, reported with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("answer_ms.p50", "ms"),
    ("warm_us.p50", "us"),
    ("warm_us.p90", "us"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.parse_ms", "ms"),
    ("io.mb_per_s", "MB/s"),
    ("degeneracy.peel_ms", "ms"),
    ("heuristic.ms", "ms"),
    ("heuristic.lb_over_opt", "ratio"),
    ("ctcp.build_ms", "ms"),
    ("ctcp.tighten_ms", "ms"),
    ("ctcp.vertex_removed_share", "ratio"),
    ("ctcp.edge_removed_share", "ratio"),
    ("engine.branch_ms", "ms"),
    ("engine.nodes", "count"),
    ("engine.ns_per_node", "ns"),
    ("engine.universe_rebuilds", "count"),
    ("bounds.ub1.invocations", "count"),
    ("bounds.ub1.prunes", "count"),
    ("bounds.ub1.ns", "ns"),
    ("bounds.ub1.prune_rate", "ratio"),
    ("bounds.ub2.invocations", "count"),
    ("bounds.ub2.prunes", "count"),
    ("bounds.ub2.ns", "ns"),
    ("bounds.ub2.prune_rate", "ratio"),
    ("bounds.ub3.invocations", "count"),
    ("bounds.ub3.prunes", "count"),
    ("bounds.ub3.ns", "ns"),
    ("bounds.ub3.prune_rate", "ratio"),
    ("bounds.kdclub.invocations", "count"),
    ("bounds.kdclub.prunes", "count"),
    ("bounds.kdclub.ns", "ns"),
    ("bounds.kdclub.prune_rate", "ratio"),
    ("bounds.ub4.invocations", "count"),
    ("bounds.ub4.prunes", "count"),
    ("bounds.ub4.ns", "ns"),
    ("bounds.ub4.prune_rate", "ratio"),
    ("session.memo_hit_rate", "ratio"),
    ("session.ctcp_resumes", "count"),
    ("batch.nodes_over_cold", "ratio"),
    ("batch.ctcp_shares", "count"),
    ("batch.witness_seeds", "count"),
    ("jobs.queue_wait_us.mean", "us"),
    ("jobs.job_ms.mean", "ms"),
    ("jobs.count", "count"),
    ("conn.connect_us.p50", "us"),
    ("store.journal_appends", "count"),
    ("store.snapshot_writes", "count"),
    ("store.open_ms", "ms"),
    ("serve.load_ms.p50", "ms"),
    ("serve.msolve_ms.p50", "ms"),
    ("serve.stats_us.p50", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.accounted_pct", "%"),
];

/// Counts checked operations and the ones that failed or answered wrong.
/// Atomics, so that checks can be counted through a shared reference.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    /// Records one checked operation; `Err` describes a failure, which is
    /// logged to stderr (the first few only) and counted.
    pub fn check(&self, outcome: Result<(), String>) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if let Err(msg) = outcome {
            if self.failed.fetch_add(1, Ordering::Relaxed) < 20 {
                eprintln!("perfbench: check failed: {msg}");
            }
        }
    }

    /// Operations checked so far.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Operations that failed so far.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// The metrics of one run: value and sample count, keyed by name.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Report {
    /// Sets metric `name` from `samples` observations. The name must be in
    /// [`END_TO_END`] or [`PER_LAYER`]; anything else is a programming
    /// error and panics.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        self.values.insert(key, (value, samples));
    }

    /// Prints one human-readable line per metric of `catalogue` (value,
    /// unit, sample count) to stdout, then the JSON result line. Metrics of
    /// the catalogue that were never set read 0 (not exercised by this
    /// workload).
    pub fn print(&self, catalogue: &[(&str, &str)], tally: &Tally) {
        let mut json = Vec::new();
        for (name, unit) in catalogue {
            let (value, samples) = self.values.get(name).copied().unwrap_or((0.0, 0));
            println!("{name:<28} {value:>16.4} {unit:<6} n={samples}");
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        let failed = tally.failed();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            tally.attempted(),
            json.join(", ")
        );
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values, which JSON cannot carry, read 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:").unwrap_or(0.0)
}

/// Resets the peak resident set size to the current one (writing `5` to
/// `/proc/self/clear_refs`), so [`peak_rss_mb`] covers only what runs
/// afterwards. Returns the current resident set size in MB, or `None` when
/// the reset is unavailable.
pub fn reset_peak_rss() -> Option<f64> {
    std::fs::write("/proc/self/clear_refs", "5").ok()?;
    proc_status_mb("VmRSS:")
}

/// A `kB` field of `/proc/self/status`, in MB.
fn proc_status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix(field))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kb / 1024.0)
}
