//! Parses the daemon's `METRICS` reply (Prometheus text exposition, one
//! `METRIC <line>` per exposition line) and differences two scrapes, so a
//! run reports what happened during the run rather than since process start.

use std::collections::BTreeMap;

/// Sample values keyed by series, labels included verbatim
/// (`kdc_core_bound_ns_total{bound="ub1"}`).
pub type Samples = BTreeMap<String, f64>;

/// Parses a `METRICS` reply. `# TYPE` headers, the final `OK series=..`
/// line and anything unparsable are skipped; the `METRIC ` prefix is
/// optional, so plain exposition text parses too.
pub fn parse(reply: &str) -> Samples {
    let mut out = Samples::new();
    for line in reply.lines() {
        let line = line.strip_prefix("METRIC ").unwrap_or(line).trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("OK") {
            continue;
        }
        // The value follows the last space; label values never contain one.
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        if let Ok(v) = value.parse::<f64>() {
            out.insert(series.to_string(), v);
        }
    }
    out
}

/// `after - before` per series; a series absent before counts from 0.
pub fn delta(before: &Samples, after: &Samples) -> Samples {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// One series' value in `samples`, 0 when absent.
pub fn get(samples: &Samples, series: &str) -> f64 {
    samples.get(series).copied().unwrap_or(0.0)
}

/// The mean observation of histogram `name` over `samples`
/// (`name_sum / name_count`), 0 when nothing was observed.
pub fn hist_mean(samples: &Samples, name: &str) -> f64 {
    crate::stats::ratio(
        get(samples, &format!("{name}_sum")),
        get(samples, &format!("{name}_count")),
    )
}
