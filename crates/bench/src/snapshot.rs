//! The committed `BENCH_*.json` baselines: their file format and the
//! `--check` gate of the `bench-snapshot` bin.
//!
//! A BENCH file is a small JSON object — `bench` and `schema` header
//! fields, an optional `obs_overhead` report, then a `cases` array with
//! exactly one case object per line. Every case carries `name`,
//! `median_ns` and `runs`, then its integer metrics, then its derived
//! rate columns (four decimals). The one-case-per-line layout keeps the
//! files diffable across commits and lets [`parse`] read them without a
//! JSON library.
//!
//! Node counts are deterministic for a given algorithm, so [`check`]
//! gates on them (and on solution sizes); wall-clock is reported for
//! trend reading but never gated, because CI hardware varies.

use std::time::Instant;

/// Allowed relative node-count growth before [`check`] fails.
pub const NODE_TOLERANCE: f64 = 0.05;

/// One measured case: a name, its median wall-clock, and ordered metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct Case {
    /// Stable case name, e.g. `solve/planted-200-k3/kdc`.
    pub name: String,
    /// Median wall-clock nanoseconds over `runs` repetitions.
    pub median_ns: u128,
    /// Number of timed repetitions.
    pub runs: usize,
    /// Integer metrics in file order (`nodes`, `size`, `size_k3`, ...).
    pub metrics: Vec<(String, u64)>,
    /// Derived ratio columns, rendered with four decimals; never gated.
    pub rates: Vec<(String, f64)>,
}

impl Case {
    /// The first integer metric named `key`.
    pub(crate) fn metric(&self, key: &str) -> Option<u64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// The observability layer's cost on one case: the median of the same
/// workload with `kdc_obs` enabled and disabled.
#[derive(Clone, Copy, Debug)]
pub struct ObsOverhead {
    /// The measured case.
    pub case: &'static str,
    /// Median nanoseconds with observability enabled.
    pub enabled_ns: u128,
    /// Median nanoseconds with observability disabled.
    pub disabled_ns: u128,
}

impl ObsOverhead {
    /// Relative cost of the enabled layer, in percent (can be negative
    /// under timer noise).
    pub fn pct(&self) -> f64 {
        if self.disabled_ns == 0 {
            return 0.0;
        }
        (self.enabled_ns as f64 / self.disabled_ns as f64 - 1.0) * 100.0
    }
}

/// Runs `f` `reps` times and returns the median duration in nanoseconds.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Renders a BENCH file: the `bench`/`schema` header, the optional
/// observability-overhead report, and one line per case.
pub fn render(bench: &str, schema: u32, overhead: Option<ObsOverhead>, cases: &[Case]) -> String {
    let mut s = format!("{{\n  \"bench\": \"{bench}\",\n  \"schema\": {schema},\n");
    if let Some(o) = overhead {
        s.push_str(&format!(
            "  \"obs_overhead\": {{\"case\": \"{}\", \"enabled_median_ns\": {}, \
             \"disabled_median_ns\": {}, \"overhead_pct\": {:.2}}},\n",
            o.case,
            o.enabled_ns,
            o.disabled_ns,
            o.pct()
        ));
    }
    s.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {}, \"runs\": {}",
            c.name, c.median_ns, c.runs
        ));
        for (k, v) in &c.metrics {
            s.push_str(&format!(", \"{k}\": {v}"));
        }
        for (k, v) in &c.rates {
            s.push_str(&format!(", \"{k}\": {v:.4}"));
        }
        s.push_str(if i + 1 == cases.len() { "}\n" } else { "},\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parses the cases of a BENCH file. Every line that opens a case object
/// must parse completely, so a damaged baseline cannot silently drop a
/// gated case.
///
/// # Errors
///
/// Names the first malformed case line.
pub fn parse(text: &str) -> Result<Vec<Case>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| line.trim_start().starts_with("{\"name\": "))
        .map(|(i, line)| parse_case(line).ok_or(format!("line {}: malformed case", i + 1)))
        .collect()
}

fn parse_case(line: &str) -> Option<Case> {
    let body = line.trim().trim_end_matches(',').strip_suffix('}')?;
    let (name, fields) = body.strip_prefix("{\"name\": \"")?.split_once('"')?;
    let mut case = Case {
        name: name.to_string(),
        median_ns: 0,
        runs: 0,
        metrics: Vec::new(),
        rates: Vec::new(),
    };
    for field in fields.split(", ").skip(1) {
        let (key, value) = field.strip_prefix('"')?.split_once("\": ")?;
        match key {
            "median_ns" => case.median_ns = value.parse().ok()?,
            "runs" => case.runs = value.parse().ok()?,
            _ if value.contains('.') => case.rates.push((key.to_string(), value.parse().ok()?)),
            _ => case.metrics.push((key.to_string(), value.parse().ok()?)),
        }
    }
    Some(case)
}

/// Whether `key` is a solution-size column (`size`, `size_k0`, ...).
fn is_size(key: &str) -> bool {
    key == "size" || key.starts_with("size_k")
}

/// Compares a fresh run against a committed baseline, printing the
/// wall-clock ratio of every case (reported, never gated).
///
/// # Errors
///
/// Lists every failure: an empty baseline, a baseline case missing from
/// the run, `nodes` grown by more than [`NODE_TOLERANCE`], or a changed
/// `size`/`size_k*` column.
pub fn check(baseline: &[Case], run: &[Case]) -> Result<(), String> {
    if baseline.is_empty() {
        return Err("baseline contains no cases".to_string());
    }
    let mut failures = Vec::new();
    for base in baseline {
        let name = &base.name;
        let Some(case) = run.iter().find(|c| &c.name == name) else {
            failures.push(format!("case {name} missing from this run"));
            continue;
        };
        println!(
            "{name}: wall {:.2}x of baseline ({} ns vs {} ns)",
            case.median_ns as f64 / base.median_ns as f64,
            case.median_ns,
            base.median_ns
        );
        if let Some(was) = base.metric("nodes") {
            let limit = (was as f64 * (1.0 + NODE_TOLERANCE)).floor() as u64;
            match case.metric("nodes") {
                Some(now) if now <= limit => println!("{name}: nodes {now} (baseline {was}) ok"),
                now => failures.push(format!(
                    "case {name}: nodes regressed {was} -> {now:?} (> {:.0}% tolerance)",
                    NODE_TOLERANCE * 100.0
                )),
            }
        }
        for (key, was) in base.metrics.iter().filter(|(k, _)| is_size(k)) {
            let now = case.metric(key);
            if now != Some(*was) {
                failures.push(format!("case {name}: {key} changed {was} -> {now:?}"));
            }
        }
    }
    for case in run {
        if !baseline.iter().any(|b| b.name == case.name) {
            println!("note: new case {} not in baseline", case.name);
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: [(&str, &str); 3] = [
        ("BENCH_6.json", include_str!("../../../BENCH_6.json")),
        ("BENCH_7.json", include_str!("../../../BENCH_7.json")),
        ("BENCH_8.json", include_str!("../../../BENCH_8.json")),
    ];

    fn case(name: &str, metrics: &[(&str, u64)]) -> Case {
        Case {
            name: name.to_string(),
            median_ns: 1_000,
            runs: 3,
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            rates: Vec::new(),
        }
    }

    fn with_metric(mut c: Case, key: &str, value: u64) -> Case {
        for (k, v) in &mut c.metrics {
            if k == key {
                *v = value;
            }
        }
        c
    }

    fn baseline() -> Vec<Case> {
        vec![
            case("batch/x", &[("nodes", 1_000), ("size_k3", 14)]),
            case("solve/y", &[("nodes", 200), ("size", 14)]),
            case("ctcp/z", &[("vertex_removals", 7)]),
        ]
    }

    #[test]
    fn committed_baselines_parse_with_node_counts() {
        for (file, text) in COMMITTED {
            let cases = parse(text).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(
                cases.iter().any(|c| c.metric("nodes").is_some()),
                "{file}: no case with nodes"
            );
            assert_eq!(
                cases.len(),
                text.matches("\"name\": ").count(),
                "{file}: every case line parses"
            );
        }
        let solve = parse(COMMITTED[0].1).unwrap();
        assert_eq!(solve[0].metric("nodes"), Some(53442));
        assert_eq!(solve[0].rates.len(), 5, "prune-rate columns are rates");
    }

    #[test]
    fn render_round_trips_through_parse() {
        for (file, text) in COMMITTED {
            let cases = parse(text).unwrap();
            let again = render("B", 1, None, &cases);
            assert_eq!(parse(&again).unwrap(), cases, "{file}");
        }
        for (bench, text) in [("BENCH_7", COMMITTED[1].1), ("BENCH_8", COMMITTED[2].1)] {
            assert_eq!(render(bench, 1, None, &parse(text).unwrap()), text);
        }
        let overhead = ObsOverhead {
            case: "c",
            enabled_ns: 102,
            disabled_ns: 100,
        };
        let text = render("BENCH_6", 2, Some(overhead), &baseline());
        assert!(text.contains("\"overhead_pct\": 2.00}"), "{text}");
        assert_eq!(parse(&text).unwrap(), baseline());
    }

    #[test]
    fn malformed_case_line_is_an_error() {
        let text = "  \"cases\": [\n    {\"name\": \"a\", \"nodes\": x}\n  ]\n";
        assert_eq!(parse(text), Err("line 2: malformed case".to_string()));
    }

    #[test]
    fn check_passes_on_equal_or_fewer_nodes() {
        assert!(check(&baseline(), &baseline()).is_ok());
        let mut run = baseline();
        run[0] = with_metric(run[0].clone(), "nodes", 500);
        run[1] = with_metric(run[1].clone(), "nodes", 210);
        run.push(case("solve/new", &[("nodes", 1)]));
        assert!(check(&baseline(), &run).is_ok());
    }

    #[test]
    fn check_fails_on_node_growth_over_tolerance() {
        let mut run = baseline();
        run[0] = with_metric(run[0].clone(), "nodes", 1_051);
        let err = check(&baseline(), &run).unwrap_err();
        assert!(err.contains("batch/x: nodes regressed 1000"), "{err}");
        run[0] = with_metric(run[0].clone(), "nodes", 1_050);
        assert!(check(&baseline(), &run).is_ok(), "5% is within tolerance");
    }

    #[test]
    fn check_fails_on_missing_case() {
        let run = &baseline()[1..];
        let err = check(&baseline(), run).unwrap_err();
        assert!(err.contains("case batch/x missing"), "{err}");
        assert!(check(&[], run).is_err(), "an empty baseline gates nothing");
    }

    #[test]
    fn check_fails_on_changed_size() {
        for (i, key) in [(0, "size_k3"), (1, "size")] {
            let mut run = baseline();
            run[i] = with_metric(run[i].clone(), key, 13);
            let err = check(&baseline(), &run).unwrap_err();
            assert!(
                err.contains(&format!("{key} changed 14 -> Some(13)")),
                "{err}"
            );
        }
    }
}
